//! Columnar/row agreement: the serial columnar executor must return
//! **bit-for-bit** what the row-at-a-time reference executor returns —
//! same rows, same order, same `f64` values — on random hierarchical
//! self-join-free queries over random databases, and through ranked
//! (top-k) retrieval. The row executor is kept in `safeplan::rowref` as
//! the oracle; `sharded_agreement.rs` holds the parallel DAG executor to
//! the serial one, so together they pin row oracle ⇒ serial ⇒ DAG.

mod common;

use common::{assert_same, random_db, random_hierarchical_query};
use probdb::prelude::{build_plan, parse_query, ProbDb, Value, Vocabulary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safeplan::rowref::{row_execute, row_ranked_probabilities};
use safeplan::{execute, ranked_probabilities};

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
