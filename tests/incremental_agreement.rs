//! Incremental/cold agreement: after any sequence of delta batches
//! (inserts, deletes, probability updates), an [`IncrementalView`]'s
//! refreshed output must be **bit-for-bit** what a cold execution of the
//! same plan returns against the current database — same rows, same
//! order, same `f64` bits — at refresh thread counts 1/2/4/8, on random
//! hierarchical self-join-free queries over random databases. The
//! columnar executor is the oracle.

mod common;

use common::{random_batch, random_hierarchical_query, seed_batch, seed_db, THREADS};
use probdb::prelude::{
    parse_query, DagOptions, DeltaBatch, Engine, IncrementalView, ProbDb, Strategy, Term, Value,
    Vocabulary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safeplan::{execute, optimize, PlanNode, ProbRelation};

fn assert_bit_identical(got: &ProbRelation<f64>, want: &ProbRelation<f64>, ctx: &str) {
    assert_eq!(got.cols(), want.cols(), "{ctx}: schema");
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for i in 0..want.len() {
        assert_eq!(got.row(i), want.row(i), "{ctx}: row {i} values");
        assert_eq!(
            got.prob(i).to_bits(),
            want.prob(i).to_bits(),
            "{ctx}: row {i} probability bits ({} vs {})",
            got.prob(i),
            want.prob(i)
        );
    }
}

/// The acceptance property: for random hierarchical SJF queries and random
/// delta sequences, `IncrementalView::refresh` output is bit-for-bit
/// identical to cold columnar execution at threads 1, 2, 4, and 8.
#[test]
fn refresh_is_bit_identical_to_cold_execution_on_random_deltas() {
    let mut rng = StdRng::seed_from_u64(0x1ECE);
    for case in 0..20 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let plan = optimize(&safeplan::build_plan(&q).unwrap());
        let mut db = seed_db(&q, &voc, &mut rng);
        // One view per thread count, all tracking the same delta history
        // (tiny grain forces multi-morsel parallel refresh schedules).
        let mut views: Vec<(usize, IncrementalView)> = THREADS
            .iter()
            .map(|&t| (t, IncrementalView::new(&db, &plan).unwrap()))
            .collect();
        for round in 0..8 {
            let batch = random_batch(&q, &db, &mut rng);
            db.apply(&batch);
            // Occasionally let a view lag a round (multi-batch catch-up).
            let lag = round % 3 == 1;
            let cold = execute(&db, &db.prob_vector(), &plan);
            for (threads, view) in &mut views {
                if lag && *threads == 4 {
                    continue;
                }
                view.refresh(&db, DagOptions::with_grain(*threads, 1, 2));
                assert_bit_identical(
                    &view.output(),
                    &cold,
                    &format!(
                        "case {case} round {round} threads {threads}: {}",
                        q.display(&voc)
                    ),
                );
            }
        }
        // Views that lagged catch up on the final state.
        let cold = execute(&db, &db.prob_vector(), &plan);
        for (threads, view) in &mut views {
            view.refresh(&db, DagOptions::with_grain(*threads, 1, 2));
            assert_bit_identical(
                &view.output(),
                &cold,
                &format!("case {case} final threads {threads}"),
            );
            let c = view.counters();
            assert!(
                c.incremental_refreshes > 0,
                "case {case}: refreshes should be incremental, got {c:?}"
            );
            assert_eq!(c.full_rebuilds, 0, "case {case}: no log gaps were created");
        }
    }
}

/// The engine-level wrap: `Engine::subscribe` + `ViewHandle::read` after
/// `apply` agrees with a fresh evaluation, probability bits included.
#[test]
fn subscribed_views_agree_with_cold_engine_evaluations() {
    let mut rng = StdRng::seed_from_u64(0x5_0B5C);
    for case in 0..10 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let mut db = seed_db(&q, &voc, &mut rng);
        let engine = Engine::new();
        let view = engine.subscribe(&db, &q).unwrap();
        for round in 0..5 {
            let batch = random_batch(&q, &db, &mut rng);
            db.apply(&batch);
            let reading = view.read(&db).unwrap();
            let cold = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
            assert_eq!(
                reading.evaluation.probability.to_bits(),
                cold.probability.to_bits(),
                "case {case} round {round}: {}",
                q.display(&voc)
            );
            assert_eq!(reading.version, db.version());
        }
    }
}

/// Shapes the random hierarchical generator never draws, each a fixed
/// query: a constant argument, a repeated variable, `<` and `!=` selects,
/// non-Boolean (ranked) templates, a join on three columns (hashed keys
/// with collision chains), a join on no column, and a template keeping
/// three columns. Every view is materialized three ways — on the seeded
/// database, on the empty database before it is filled, and by the
/// rebuild after a log gap longer than the delta log — and after every
/// batch each one must be bit for bit the cold execution, at threads
/// {1, 4} × shards {1, 3} (grain 2, so morsels split). The last two
/// batches delete every row holding one value of `x` and re-insert them,
/// so emptied join-index and group slots are reused.
#[test]
fn fixed_shapes_agree_however_the_view_was_materialized() {
    const SHAPES: [(&str, usize); 10] = [
        ("R(x), S(x, 2)", 0),
        ("R(x), S(x, x)", 0),
        ("R(x), S(x, y), x < y", 0),
        ("R(x), S(x, y), y != 2", 0),
        ("R(x), S(x, y), T(x, y, 3)", 1),
        ("R(x), S(x, y), x != 1", 1),
        ("R(x), S(x, y), T(y)", 2),
        ("R(x, y, z), S(x, y, z, w)", 0),
        ("R(x), T(y)", 0),
        ("R(x), S(x, y), T(x, y, z)", 3),
    ];
    let mut rng = StdRng::seed_from_u64(0x5A9E5);
    for (text, heads) in SHAPES {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, text).unwrap();
        // The first `heads` variables in occurrence order become head
        // columns of a ranked template (`x0`, `x1`, …).
        let mut head = Vec::new();
        for v in q.atoms.iter().flat_map(|a| a.vars()) {
            if head.len() < heads && !head.contains(&v) {
                head.push(v);
            }
        }
        let plan = optimize(&safeplan::build_ranked_plan(&q, &head).unwrap());
        assert!(!matches!(plan, PlanNode::Never), "{text}: plan is empty");
        let configs: Vec<DagOptions> = [(1, 1), (1, 3), (4, 1), (4, 3)]
            .into_iter()
            .map(|(threads, shards)| DagOptions::with_grain(threads, shards, 2))
            .collect();
        let mut db = ProbDb::new(voc.clone());
        let new_views = |db: &ProbDb| -> Vec<IncrementalView> {
            configs
                .iter()
                .map(|_| IncrementalView::new(db, &plan).unwrap())
                .collect()
        };
        let mut refilled = new_views(&db);
        let mut gapped = new_views(&db);
        db.apply(&seed_batch(&q, &voc, &mut rng));
        let mut seeded = new_views(&db);
        let check = |views: &mut [IncrementalView], db: &ProbDb, way: &str, step: &str| {
            let cold = execute(db, db.probs(), &plan);
            for (view, opts) in views.iter_mut().zip(&configs) {
                view.refresh(db, *opts);
                let ctx = format!("{text} ({way}, {step}, {opts:?})");
                assert_bit_identical(&view.output(), &cold, &ctx);
            }
        };
        check(&mut seeded, &db, "seeded", "start");
        check(&mut refilled, &db, "refilled", "start");
        // Outrun the delta log: the gapped views see none of it until the
        // end; the others catch up every 256 batches.
        for b in 0..=pdb::MAX_DELTA_LOG {
            db.apply(&random_batch(&q, &db, &mut rng));
            if b % 256 == 255 {
                check(&mut seeded, &db, "seeded", "catch-up");
                check(&mut refilled, &db, "refilled", "catch-up");
            }
        }
        check(&mut seeded, &db, "seeded", "after the gap");
        check(&mut refilled, &db, "refilled", "after the gap");
        check(&mut gapped, &db, "gapped", "after the gap");
        for view in &gapped {
            assert_eq!(view.counters().full_rebuilds, 1, "{text}: the gap rebuilds");
        }
        for round in 0..6 {
            db.apply(&random_batch(&q, &db, &mut rng));
            let step = format!("round {round}");
            check(&mut seeded, &db, "seeded", &step);
            check(&mut refilled, &db, "refilled", &step);
            check(&mut gapped, &db, "gapped", &step);
        }
        // Every row holding one value of `x`, across all atoms.
        let x = q.atoms[0].vars()[0];
        let x_at = |i: usize| -> Vec<usize> {
            let args = &q.atoms[i].args;
            (0..args.len())
                .filter(|&p| args[p] == Term::Var(x))
                .collect()
        };
        let ids = db.tuples_of(q.atoms[0].rel);
        let v = ids
            .first()
            .map_or(Value(1), |&id| db.tuple(id).args[x_at(0)[0]]);
        let (mut wipe, mut refill) = (DeltaBatch::new(), DeltaBatch::new());
        for (i, atom) in q.atoms.iter().enumerate() {
            for &id in db.tuples_of(atom.rel) {
                let args = &db.tuple(id).args;
                if x_at(i).iter().any(|&p| args[p] == v) {
                    wipe.delete(atom.rel, args.clone());
                    refill.insert(atom.rel, args.clone(), 0.5);
                }
            }
        }
        for (batch, step) in [(wipe, "x wiped"), (refill, "x refilled")] {
            db.apply(&batch);
            check(&mut seeded, &db, "seeded", step);
            check(&mut refilled, &db, "refilled", step);
            check(&mut gapped, &db, "gapped", step);
        }
        for view in seeded.iter().chain(&refilled) {
            assert_eq!(view.counters().full_rebuilds, 0, "{text}: no gap");
        }
    }
}
