//! Columnar/row agreement: the executor's serial configuration (one
//! thread, one shard) must return **bit-for-bit** what the row-at-a-time
//! reference executor returns — same rows, same order, same `f64` values
//! — on fixed and random hierarchical self-join-free queries over random
//! databases, and through ranked (top-k) retrieval. The row executor is
//! kept in `tests/common/rowref.rs` as the oracle; `sharded_agreement.rs`
//! holds every other (threads × shards) tuning to the serial one, so
//! together they pin row oracle ⇒ serial ⇒ every tuning.

mod common;

use common::rowref::{row_execute, row_query_probability, row_ranked_probabilities};
use common::{assert_same, random_db, random_hierarchical_query};
use pdb::generators::{random_db_for_query, RandomDbOptions};
use probdb::prelude::{
    build_plan, parse_query, Executor, PhysicalPlan, ProbDb, Value, Var, Vocabulary,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeplan::{execute, ranked_probabilities};

/// Safe queries exercising scans with constants, repeated variables,
/// deep hierarchies, multiple components, and predicates.
const SAFE_QUERIES: &[&str] = &[
    "R(x)",
    "R(x), S(x,y)",
    "R(x), S(x,y), U(x,y,z)",
    "R(x), T(z,w)",
    "R(1), S(1,y)",
    "S(x,y), x < y",
    "S(x,y), x != y",
    "R(x), S(x,y), x < y",
    "R(x), S(x,y), y != 1",
    "S(x,x)",
    "R(x), S(x,y), T2(x,z)",
    "S(u,v), T(u,v)",
    "R(x), S(x,y), U(x,y,z), V(x,w)",
];

/// The columnar executor is bit-for-bit the row-at-a-time reference
/// executor on every safe shape in the suite.
#[test]
fn columnar_matches_row_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xC01);
    for text in SAFE_QUERIES {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, text).unwrap();
        let plan = build_plan(&q).unwrap();
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 8,
            prob_range: (0.1, 0.9),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = db.prob_vector();
        let col = execute(&db, &probs, &plan);
        let row = row_execute(&db, &probs, &plan);
        assert_eq!(col.cols(), row.cols.as_slice(), "{text}");
        assert_eq!(col.len(), row.rows.len(), "{text}");
        for (i, (vals, p)) in row.rows.iter().enumerate() {
            assert_eq!(col.row(i), vals.as_slice(), "{text} row {i}");
            assert_eq!(col.prob(i), p, "{text} prob {i} (must be bit-identical)");
        }
    }
}

/// One thread and one shard is not a separate executor: on a 10k-row
/// star the engine's serial tuning runs the operator DAG inline — one
/// worker, never two tasks at once, one shard — and returns the row
/// oracle's bits, Boolean and ranked.
#[test]
fn serial_tuning_is_the_dag_on_one_thread_and_one_shard() {
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc);
    let mut rng = StdRng::seed_from_u64(0x5E21A1);
    for i in 0..2_500u64 {
        db.insert(r, vec![Value(i)], rng.gen_range(0.0001..0.001));
        for j in 0..3 {
            let y = 10_000 + 3 * i + j;
            db.insert(s, vec![Value(i), Value(y)], rng.gen_range(0.05..0.95));
        }
    }
    assert_eq!(db.num_tuples(), 10_000);
    let plan = safeplan::optimize(&build_plan(&q).unwrap());
    let out = Executor::with_tuning(7, 1, 1)
        .execute(&db, &PhysicalPlan::Extensional { plan: plan.clone() })
        .unwrap();
    let oracle = row_query_probability(&db, &plan);
    assert!(oracle > 0.1 && oracle < 0.9, "unsaturated: {oracle}");
    assert_eq!(out.probability.to_bits(), oracle.to_bits());
    let threads = out.parallel.expect("the run reports its worker pool");
    assert_eq!(threads.threads(), 1, "{threads:?}");
    let sched = out.scheduler.expect("the run reports its task schedule");
    assert!(sched.tasks >= 2, "{sched:?}");
    assert_eq!(sched.max_running, 1, "{sched:?}");
    assert_eq!(out.sharding.expect("the run reports its shards").shards, 1);

    let head = [Var(0)];
    let ranked = safeplan::optimize(&safeplan::build_ranked_plan(&q, &head).unwrap());
    let got = ranked_probabilities(&db, db.probs(), &ranked, &head);
    assert_eq!(got.len(), 2_500);
    assert_eq!(
        got,
        row_ranked_probabilities(&db, db.probs(), &ranked, &head)
    );
}

/// Serial executor against the row oracle on random hierarchical SJF
/// queries and databases, for the compiler's plan and the optimizer's
/// rewrite of it (join order and build sides differ).
#[test]
fn columnar_matches_row_executor_on_random_hierarchical_queries() {
    let mut rng = StdRng::seed_from_u64(0xC0_1AB5);
    for case in 0..25 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let built = build_plan(&q).unwrap();
        let plans = [safeplan::optimize(&built), built];
        for round in 0..2 {
            let db = random_db(&q, &voc, &mut rng);
            for (k, plan) in plans.iter().enumerate() {
                let oracle = row_execute(&db, db.probs(), plan);
                let serial = execute(&db, db.probs(), plan);
                assert_same(
                    &serial,
                    &oracle,
                    &format!("case {case} round {round} plan {k}: {}", q.display(&voc)),
                );
            }
        }
    }
}

/// Ranked retrieval: the serial batched ranked path returns the row
/// oracle's exact answer list — tuples, probabilities, and order — so any
/// top-k cut is identical.
#[test]
fn columnar_ranked_top_k_matches_row_executor() {
    let mut rng = StdRng::seed_from_u64(0x70_9B5);
    for case in 0..10 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let vars = q.vars();
        let head = vec![vars[rng.gen_range(0..vars.len())]];
        let Ok(plan) = safeplan::build_ranked_plan(&q, &head) else {
            continue;
        };
        let db = random_db(&q, &voc, &mut rng);
        let oracle = row_ranked_probabilities(&db, db.probs(), &plan, &head);
        let serial = ranked_probabilities(&db, db.probs(), &plan, &head);
        assert_eq!(oracle, serial, "case {case} serial ranked");
        // The top-k cut (sorted by probability desc, ties by tuple) reads
        // off identical lists, so it is identical by construction; pin the
        // k=3 prefix anyway.
        let by_p = |mut v: Vec<(Vec<Value>, f64)>| {
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
            v.truncate(3);
            v
        };
        assert_eq!(by_p(oracle), by_p(serial), "case {case} top-3");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random R/1, S/2 databases (duplicate inserts allowed —
    /// they exercise the overwrite path of the content index), the serial
    /// executor is bit-identical to the row oracle on q_hier.
    #[test]
    fn columnar_is_bit_identical_on_random_dbs(
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
        let plan = build_plan(&q).unwrap();
        let oracle = row_execute(&db, db.probs(), &plan);
        let serial = execute(&db, db.probs(), &plan);
        prop_assert_eq!(serial.len(), oracle.rows.len());
        prop_assert_eq!(serial.scalar().to_bits(), oracle.scalar().to_bits());
    }
}
