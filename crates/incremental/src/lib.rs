//! # incremental — delta-driven view maintenance for cached safe plans
//!
//! The dichotomy result makes safe plans cheap to *re-run*; this crate
//! makes repeated runs against a slowly-mutating database cheaper still by
//! not re-running them at all. An [`IncrementalView`] pins a cached
//! extensional safe plan (`safeplan::PlanNode`) together with per-operator
//! **materialized state**, and [`IncrementalView::refresh`] propagates the
//! tuple-level deltas of [`pdb::ProbDb::apply`]'s versioned log through the
//! plan instead of rescanning the database.
//!
//! ## Delta propagation rules
//!
//! Writing `Δ⁺`/`Δ⁻`/`Δᵖ` for inserted/deleted/probability-updated rows:
//!
//! * **Scan** — the changed tuples of the scanned relation are re-checked
//!   against the atom's constants and repeated variables; surviving
//!   inserts append (fresh tuple ids exceed all prior ids), deletes splice
//!   out of the id-ordered output, updates rewrite one probability.
//! * **Join** (each binary stage of the executor's n-ary left fold) — the
//!   classic rule `Δ(L ⋈ R) = ΔL ⋈ R ∪ L ⋈ ΔR ∪ ΔL ⋈ ΔR`, realized with
//!   persistent join-value indexes on both sides ("hash tables with
//!   tuple-id back-pointers"): `Δ⁺L` probes the *post-update* right index
//!   (so `Δ⁺L ⋈ Δ⁺R` appears exactly once) and `Δ⁺R` probes the
//!   *pre-update* left index; deletions remove the probe-side prefix range
//!   (left) or the index-resolved pairs (right); a probability update
//!   recomputes each affected pair's two-factor product from the current
//!   side rows — the exact multiplication a cold execution performs.
//! * **Independent project** — per-group **row-id sets** (sorted stable
//!   child keys): groups whose sets or member probabilities were touched
//!   are refolded `1 − Π(1−p)` from their stored rows **in row order** —
//!   the serial multiplication order — so refreshed probabilities carry
//!   the same `f64` bits as a cold fold; untouched groups keep their
//!   cached values. The Boolean (`keep = []`) group refolds by one linear
//!   pass over the child output.
//! * **Select** — deltas filter through the compiled predicate.
//!
//! ## Order and bit-for-bit identity
//!
//! Every row carries a **stable key** (tuple id at scans, concatenation
//! across joins, group-minimum at projects), and ascending-key order *is*
//! the cold executor's output order at every operator (see
//! `keyed.rs`). Maintaining the buffers key-sorted therefore reproduces a
//! from-scratch execution exactly — rows, order, and probability bits —
//! which the agreement property tests (`tests/incremental_agreement.rs` at
//! the workspace root) pin at refresh thread counts 1/2/4/8 against the
//! columnar executor as oracle.
//!
//! ## Operator-state memory model
//!
//! Each operator owns its full output (columnar flat buffers plus the key
//! column) and its auxiliary indexes; children are owned by parents, so
//! the state tree mirrors the plan tree and a refresh is one bottom-up
//! pass. Memory is proportional to the sum of intermediate result sizes —
//! the same buffers a single cold execution materializes transiently, held
//! resident across refreshes.
//!
//! Plans containing complement scans (negated sub-goals) are not
//! maintainable — any insert can reshape the active domain wholesale — and
//! [`IncrementalView::new`] declines them ([`Unsupported`]); the engine
//! falls back to version-checked re-execution, which is always sound.

mod keyed;
mod state;
mod view;

pub use state::Unsupported;
pub use view::{IncrementalView, RefreshCounters, RefreshOptions, RefreshRun};

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Value, Vocabulary};
    use pdb::{DeltaBatch, ProbDb};
    use safeplan::{build_plan, execute, optimize};

    fn star_db() -> (ProbDb, safeplan::PlanNode) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let plan = optimize(&build_plan(&q).unwrap());
        let mut db = ProbDb::new(voc);
        for i in 0..6u64 {
            db.insert(r, vec![Value(i)], 0.1 + 0.1 * i as f64);
            db.insert(s, vec![Value(i), Value(100 + i)], 0.3);
            db.insert(s, vec![Value(i), Value(200 + i)], 0.4);
        }
        (db, plan)
    }

    fn assert_matches_cold(view: &IncrementalView, db: &ProbDb, plan: &safeplan::PlanNode) {
        let cold = execute(db, db.probs(), plan);
        let got = view.output();
        assert_eq!(got.cols(), cold.cols());
        assert_eq!(got.len(), cold.len());
        for i in 0..cold.len() {
            assert_eq!(got.row(i), cold.row(i), "row {i}");
            assert_eq!(
                got.prob(i).to_bits(),
                cold.prob(i).to_bits(),
                "prob bits row {i}"
            );
        }
    }

    #[test]
    fn initial_build_matches_cold_execution() {
        let (db, plan) = star_db();
        let view = IncrementalView::new(&db, &plan).unwrap();
        assert_matches_cold(&view, &db, &plan);
        assert_eq!(view.synced_version(), db.version());
    }

    #[test]
    fn refresh_tracks_inserts_deletes_and_updates() {
        let (mut db, plan) = star_db();
        let r = db.voc.find_relation("R").unwrap();
        let s = db.voc.find_relation("S").unwrap();
        let mut view = IncrementalView::new(&db, &plan).unwrap();
        let mut batch = DeltaBatch::new();
        batch
            .update(r, vec![Value(2)], 0.95)
            .delete(s, vec![Value(3), Value(103)])
            .insert(s, vec![Value(0), Value(300)], 0.8)
            .insert(r, vec![Value(9)], 0.5)
            .insert(s, vec![Value(9), Value(309)], 0.7)
            .delete(r, vec![Value(5)]);
        db.apply(&batch);
        let c = view.refresh(&db, RefreshOptions::serial());
        assert_eq!(c.incremental_refreshes, 1);
        assert!(c.rows_retouched > 0);
        assert_matches_cold(&view, &db, &plan);
    }

    #[test]
    fn refresh_is_idempotent_and_cheap_when_synced() {
        let (db, plan) = star_db();
        let mut view = IncrementalView::new(&db, &plan).unwrap();
        let c = view.refresh(&db, RefreshOptions::serial());
        assert_eq!(c, RefreshCounters::default());
    }

    #[test]
    fn out_of_band_mutation_forces_rebuild() {
        let (mut db, plan) = star_db();
        let r = db.voc.find_relation("R").unwrap();
        let mut view = IncrementalView::new(&db, &plan).unwrap();
        db.insert(r, vec![Value(77)], 0.5); // raw insert: log invalidated
        let c = view.refresh(&db, RefreshOptions::serial());
        assert_eq!(c.full_rebuilds, 1);
        assert_eq!(c.incremental_refreshes, 0);
        assert_matches_cold(&view, &db, &plan);
    }

    #[test]
    fn parallel_refresh_is_bit_identical() {
        let (mut db, plan) = star_db();
        let s = db.voc.find_relation("S").unwrap();
        let mut serial = IncrementalView::new(&db, &plan).unwrap();
        let mut par = IncrementalView::new(&db, &plan).unwrap();
        for round in 0..4u64 {
            let mut batch = DeltaBatch::new();
            batch
                .insert(s, vec![Value(round), Value(400 + round)], 0.6)
                .update(s, vec![Value(round), Value(100 + round)], 0.05)
                .delete(s, vec![Value(round), Value(200 + round)]);
            db.apply(&batch);
            serial.refresh(&db, RefreshOptions::serial());
            par.refresh(&db, RefreshOptions::with_grain(4, 1));
            assert_matches_cold(&serial, &db, &plan);
            assert_matches_cold(&par, &db, &plan);
            assert_eq!(
                serial.probability().to_bits(),
                par.probability().to_bits(),
                "round {round}"
            );
        }
    }

    #[test]
    fn sharded_refresh_is_bit_identical() {
        // The sharded scan-delta path (hash-partitioned Added matching,
        // merged back in id order) must agree with the serial refresh for
        // every (threads, shards) pair — including batches big enough that
        // every shard sees candidates.
        let (mut db, plan) = star_db();
        let r = db.voc.find_relation("R").unwrap();
        let s = db.voc.find_relation("S").unwrap();
        let mut serial = IncrementalView::new(&db, &plan).unwrap();
        let mut sharded: Vec<(RefreshOptions, IncrementalView)> = [(1, 2), (4, 2), (4, 4)]
            .into_iter()
            .map(|(threads, shards)| {
                (
                    RefreshOptions::with_tuning(threads, shards),
                    IncrementalView::new(&db, &plan).unwrap(),
                )
            })
            .collect();
        for round in 0..3u64 {
            let mut batch = DeltaBatch::new();
            for i in 0..40u64 {
                let v = 1000 * (round + 1) + i;
                batch
                    .insert(r, vec![Value(v)], 0.2)
                    .insert(s, vec![Value(v), Value(v + 1)], 0.6);
            }
            batch
                .update(s, vec![Value(0), Value(100)], 0.05)
                .delete(s, vec![Value(1), Value(201)]);
            db.apply(&batch);
            serial.refresh(&db, RefreshOptions::serial());
            assert_matches_cold(&serial, &db, &plan);
            for (opts, view) in &mut sharded {
                view.refresh(&db, *opts);
                assert_matches_cold(view, &db, &plan);
                assert_eq!(
                    serial.probability().to_bits(),
                    view.probability().to_bits(),
                    "round {round}, opts {opts:?}"
                );
            }
        }
    }

    #[test]
    fn complement_scans_are_declined() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), not T(x)").unwrap();
        let plan = build_plan(&q).unwrap();
        let db = ProbDb::new(voc);
        assert_eq!(
            IncrementalView::new(&db, &plan).unwrap_err(),
            Unsupported::ComplementScan
        );
    }

    #[test]
    fn group_order_survives_first_row_deletion() {
        // Deleting the first S row of x=0 moves its group behind x=1's in
        // first-seen order; the refreshed output must re-order exactly as
        // a cold execution does.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(x,y)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let plan = optimize(&build_plan(&q).unwrap());
        let mut db = ProbDb::new(voc);
        db.insert(s, vec![Value(0), Value(1)], 0.3);
        db.insert(s, vec![Value(1), Value(1)], 0.4);
        db.insert(s, vec![Value(0), Value(2)], 0.5);
        let mut view = IncrementalView::new(&db, &plan).unwrap();
        let mut batch = DeltaBatch::new();
        batch.delete(s, vec![Value(0), Value(1)]);
        db.apply(&batch);
        view.refresh(&db, RefreshOptions::serial());
        assert_matches_cold(&view, &db, &plan);
    }

    #[test]
    fn view_can_empty_and_refill() {
        let (mut db, plan) = star_db();
        let r = db.voc.find_relation("R").unwrap();
        let mut view = IncrementalView::new(&db, &plan).unwrap();
        let mut wipe = DeltaBatch::new();
        for i in 0..6u64 {
            wipe.delete(r, vec![Value(i)]);
        }
        db.apply(&wipe);
        view.refresh(&db, RefreshOptions::serial());
        assert_matches_cold(&view, &db, &plan);
        assert_eq!(view.probability(), 0.0);
        let mut refill = DeltaBatch::new();
        refill.insert(r, vec![Value(1)], 0.9);
        db.apply(&refill);
        view.refresh(&db, RefreshOptions::serial());
        assert_matches_cold(&view, &db, &plan);
        assert!(view.probability() > 0.0);
    }
}
