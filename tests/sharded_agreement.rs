//! Sharded/DAG agreement: the executor must return at every
//! (threads × shards) tuning **bit-for-bit** what it returns at one
//! thread and one shard (its serial configuration) — same rows, same
//! order, same `f64` values — including non-power-of-two fan-outs, each
//! on a database laid out at that fan-out (the shard-resident scan
//! plane), on random hierarchical self-join-free queries over random
//! databases, through ranked (top-k) retrieval, and through engine-level
//! evaluation and incremental view refresh.
//!
//! The multi-thread cases use a morsel grain of 2, so even 20-tuple
//! inputs split into many morsels and the multi-chunk filter, the
//! left-build pair re-sort and the hash-partitioned project fold all run.
//! Sharded scans must also resolve without a single global-index probe.
//! The serial configuration is itself held to the row oracle in
//! `columnar_agreement.rs`; the fixed-shape test here runs the whole
//! chain.

mod common;

use common::rowref::row_execute;
use common::{assert_same, random_db, random_hierarchical_query, THREADS};
use probdb::prelude::{
    build_plan, parse_query, Engine, ExecOptions, PlanNode, ProbDb, Strategy, Value, Vocabulary,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeplan::{
    dag_execute_counted, dag_ranked_probabilities_counted, execute, ranked_probabilities,
    DagOptions, OpCounters, ProbRelation,
};

const SHARDS: [usize; 5] = [1, 2, 3, 4, 7];
/// Morsel grain for the DAG cases: small enough that every operator on a
/// 20-tuple database splits into several morsels.
const GRAIN: usize = 2;

/// Run `plan` through the executor at every (threads × shards) tuning
/// on the matching resident layout, asserting each result equals
/// `serial`. Resident runs must probe only the per-shard posting lists.
/// Leaves `db` monolithic.
fn assert_dag_matches_serial(
    db: &mut ProbDb,
    plan: &PlanNode,
    serial: &ProbRelation<f64>,
    serial_counters: &OpCounters,
    ctx: &str,
) {
    for shards in SHARDS {
        let resident = shards > 1;
        db.set_shard_layout(shards);
        for threads in THREADS {
            let ctx = format!("{ctx} t={threads} s={shards} resident={resident}");
            let mut counters = OpCounters::default();
            let (got, run) = dag_execute_counted(
                db,
                db.probs(),
                plan,
                &DagOptions::with_grain(threads, shards, GRAIN),
                &mut counters,
            );
            assert_eq!(serial, &got, "{ctx}");
            assert!(run.sched.tasks >= 1, "{ctx}: no tasks scheduled");
            assert_eq!(run.shards.shards, shards, "{ctx}: shard stats fan-out");
            assert_eq!(counters.joins, serial_counters.joins, "{ctx}: joins");
            assert_eq!(counters.groups, serial_counters.groups, "{ctx}: groups");
            if resident {
                assert_eq!(
                    counters.global_index_probes, 0,
                    "{ctx}: resident scans probed the global index"
                );
                assert!(
                    counters.shard_index_probes > 0,
                    "{ctx}: no shard-local probes recorded"
                );
            }
        }
    }
    db.set_shard_layout(1);
}

/// Every tuning against the serial configuration on random hierarchical
/// SJF queries and databases, for the compiler's plan and the optimizer's
/// rewrite of it (join order and build sides differ).
#[test]
fn dag_matches_serial_on_random_hierarchical_queries() {
    let mut rng = StdRng::seed_from_u64(0x5AA2D);
    for case in 0..25 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let built = build_plan(&q).unwrap();
        let plans = [safeplan::optimize(&built), built];
        for round in 0..2 {
            let mut db = random_db(&q, &voc, &mut rng);
            for (k, plan) in plans.iter().enumerate() {
                let ctx = format!("case {case} round {round} plan {k}: {}", q.display(&voc));
                let mut serial_counters = OpCounters::default();
                let (serial, _) = dag_execute_counted(
                    &db,
                    db.probs(),
                    plan,
                    &DagOptions::default(),
                    &mut serial_counters,
                );
                assert_dag_matches_serial(&mut db, plan, &serial, &serial_counters, &ctx);
            }
        }
    }
}

/// The whole chain — row oracle ⇒ serial ⇒ DAG — on fixed shapes covering
/// the operators random hierarchical queries never produce: arithmetic
/// selections, constant pushdown, repeated variables, disconnected
/// components, and negation (complement scans). Each shape runs as a
/// Boolean plan and as a ranked plan on its first variable, whose
/// multi-row output exposes any change in row order a scalar could hide.
#[test]
fn executors_match_row_oracle_on_every_operator_kind() {
    let shapes = [
        "S(x,y), x < y",
        "R(x), S(x,y), U(x,y,z), y != z",
        "R(1), S(1,y)",
        "S(x,x)",
        "R(x), T(z,w)",
        "R(x), not T(x)",
        "R(x), S(x,y), not U(x,y,z)",
    ];
    let mut rng = StdRng::seed_from_u64(0x0_9E7A);
    for shape in shapes {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, shape).unwrap();
        let ranked = safeplan::build_ranked_plan(&q, &q.vars()[..1]).unwrap();
        let plans = [build_plan(&q).unwrap(), ranked];
        let mut db = random_db(&q, &voc, &mut rng);
        for (k, plan) in plans.iter().enumerate() {
            let ctx = format!("{shape} plan {k}");
            let oracle = row_execute(&db, db.probs(), plan);
            let mut serial_counters = OpCounters::default();
            let (serial, _) = dag_execute_counted(
                &db,
                db.probs(),
                plan,
                &DagOptions::default(),
                &mut serial_counters,
            );
            assert_same(&serial, &oracle, &format!("{ctx} serial"));
            assert_dag_matches_serial(&mut db, plan, &serial, &serial_counters, &ctx);
        }
    }
}

/// Ranked retrieval: the ranked path returns the serial configuration's
/// exact answer list — tuples, probabilities, and order — at every
/// tuning, so any top-k cut is identical.
#[test]
fn dag_ranked_top_k_matches_serial() {
    let mut rng = StdRng::seed_from_u64(0x5AA2E);
    for case in 0..10 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let vars = q.vars();
        let head = vec![vars[rng.gen_range(0..vars.len())]];
        let Ok(plan) = safeplan::build_ranked_plan(&q, &head) else {
            continue;
        };
        let mut db = random_db(&q, &voc, &mut rng);
        let serial = ranked_probabilities(&db, db.probs(), &plan, &head);
        for shards in SHARDS {
            db.set_shard_layout(shards);
            for threads in THREADS {
                let (ranked, _run) = dag_ranked_probabilities_counted(
                    &db,
                    db.probs(),
                    &plan,
                    &head,
                    &DagOptions::with_grain(threads, shards, GRAIN),
                    &mut OpCounters::default(),
                );
                assert_eq!(
                    ranked.len(),
                    serial.len(),
                    "case {case} t={threads} s={shards}"
                );
                for (i, ((tv, tp), (sv, sp))) in ranked.iter().zip(serial.iter()).enumerate() {
                    assert_eq!(tv, sv, "case {case} t={threads} s={shards} row {i} tuple");
                    assert_eq!(
                        tp.to_bits(),
                        sp.to_bits(),
                        "case {case} t={threads} s={shards} row {i} probability"
                    );
                }
            }
        }
    }
}

/// Engine-level agreement: `ExecOptions::with_tuning` (the `--shards`
/// path, cost-model gated) and incremental view refresh
/// with sharded Added-matching both reproduce the serial engine's bits.
#[test]
fn engine_and_views_agree_under_sharded_tuning() {
    let mut rng = StdRng::seed_from_u64(0x5AA2F);
    let text = "R(x), S(x,y)";

    for (threads, shards) in [(1, 2), (2, 4), (4, 4), (8, 2), (4, 3)] {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, text).unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..40u64 {
            db.insert(r, vec![Value(i)], rng.gen_range(0.05..0.95));
            for j in 0..3u64 {
                db.insert(
                    s,
                    vec![Value(i), Value(100 + i * 3 + j)],
                    rng.gen_range(0.05..0.95),
                );
            }
        }

        // Shard-resident layout matching the tuning: the engine's DAG path
        // reads resident buffers, and churn below exercises delta routing.
        db.set_shard_layout(shards);

        let serial = Engine::with_options(0, 7, ExecOptions::serial());
        let tuned = Engine::with_options(0, 7, ExecOptions::with_tuning(threads, shards));
        let p0 = serial
            .evaluate(&db, &q, Strategy::Auto)
            .unwrap()
            .probability;
        let p1 = tuned.evaluate(&db, &q, Strategy::Auto).unwrap().probability;
        assert_eq!(p0.to_bits(), p1.to_bits(), "engine t={threads} s={shards}");

        // Incremental views: the sharded Added-matching refresh path must
        // track cold serial execution bit-for-bit across churn rounds.
        let view = tuned.subscribe(&db, &q).unwrap();
        assert!(view.is_incremental());
        for round in 0..3u64 {
            for i in 0..20u64 {
                let v = 10_000 * (round + 1) + i;
                db.insert(r, vec![Value(v)], rng.gen_range(0.05..0.95));
                db.insert(s, vec![Value(v), Value(v + 1)], rng.gen_range(0.05..0.95));
            }
            let refreshed = view.read(&db).unwrap().evaluation.probability;
            let cold = serial
                .evaluate(&db, &q, Strategy::Auto)
                .unwrap()
                .probability;
            assert_eq!(
                refreshed.to_bits(),
                cold.to_bits(),
                "view refresh round {round} t={threads} s={shards}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random R/1, S/2 databases (duplicate inserts allowed),
    /// the executor is bit-identical to its serial configuration on q_hier
    /// at every (threads × shards) tuning.
    #[test]
    fn dag_is_bit_identical_on_random_dbs(
        r_rows in proptest::collection::vec((0u64..4, 0.05f64..0.95), 1..12),
        s_rows in proptest::collection::vec((0u64..4, 0u64..4, 0.05f64..0.95), 1..16),
    ) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for &(a, p) in &r_rows {
            db.insert(r, vec![Value(a)], p);
        }
        for &(a, b, p) in &s_rows {
            db.insert(s, vec![Value(a), Value(b)], p);
        }
        let plan = safeplan::optimize(&build_plan(&q).unwrap());
        let serial = execute(&db, db.probs(), &plan).scalar();
        for shards in SHARDS {
            db.set_shard_layout(shards);
            for threads in THREADS {
                let opts = DagOptions::with_grain(threads, shards, GRAIN);
                let mut counters = OpCounters::default();
                let (rel, _) = dag_execute_counted(&db, db.probs(), &plan, &opts, &mut counters);
                let p = rel.scalar();
                prop_assert_eq!(p.to_bits(), serial.to_bits(), "t={} s={}", threads, shards);
            }
        }
    }
}
