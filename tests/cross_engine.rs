//! Cross-engine integration tests: every evaluator in the workspace must
//! agree on the probability of every query, on randomized instances.
//!
//! The engines compared:
//! * brute-force possible-world enumeration (Eq. 2, the definition),
//! * exact lineage compilation (weighted model counting),
//! * the Eq. 3 recurrence (hierarchical, no self-joins),
//! * the inversion-free safe evaluator (§3.2 root recursion),
//! * the MystiQ-style engine in `Auto` mode.

use pdb::generators::{random_db_for_query, RandomDbOptions};
use probdb::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PTIME_QUERIES: &[&str] = &[
    "R(x), S(x,y)",
    "R(x), S(x,y), U(x,y,z)",
    "R(x), T(z,w)",
    "R(x), S(x,y), S(x2,y2), T(x2)",
    "P(x), R(x,y), R(x2,y2), S(x2)",
    "R(x,y), R(y,x)",
    "R(x,y,y,x), R(x,y,x,z)",
    "T(x), R(x,x,y), R(u,v,v)",
    "S(x,y), x < y",
    "R(1), S(1,y)",
];

const HARD_QUERIES: &[&str] = &[
    "R(x), S(x,y), T(y)",
    "R(x), S(x,y), S(x2,y2), T(y2)",
    "R(x,y), R(y,z)",
    "R(x), S(x,y), S(y,x)",
];

fn random_instance(text: &str, seed: u64, round: u64) -> (ProbDb, Query) {
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, text).unwrap();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(round));
    let opts = RandomDbOptions {
        domain: 3,
        tuples_per_relation: 3,
        prob_range: (0.05, 0.95),
    };
    let db = random_db_for_query(&q, &voc, opts, &mut rng);
    (db, q)
}

#[test]
fn lineage_matches_brute_force_on_all_queries() {
    for (si, text) in PTIME_QUERIES.iter().chain(HARD_QUERIES).enumerate() {
        for round in 0..4 {
            let (db, q) = random_instance(text, si as u64, round);
            let p_lin = exact_probability(&lineage_of(&db, &q), &db.prob_vector());
            let p_bf = brute_force_probability(&db, &q);
            assert!(
                (p_lin - p_bf).abs() < 1e-9,
                "{text}: lineage {p_lin} vs brute force {p_bf}"
            );
        }
    }
}

#[test]
fn engine_auto_matches_brute_force_on_ptime_queries() {
    let engine = Engine::new();
    for (si, text) in PTIME_QUERIES.iter().enumerate() {
        for round in 0..4 {
            let (db, q) = random_instance(text, 100 + si as u64, round);
            let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
            assert!(
                matches!(
                    ev.method,
                    Method::Extensional | Method::SafePlan | Method::ExactLineage
                ),
                "{text} picked {}",
                ev.method
            );
            let p_bf = brute_force_probability(&db, &q);
            assert!(
                (ev.probability - p_bf).abs() < 1e-7,
                "{text}: engine {} vs brute force {p_bf}",
                ev.probability
            );
        }
    }
}

#[test]
fn engine_karp_luby_approximates_hard_queries() {
    let engine = Engine::with_samples_and_seed(120_000, 11);
    for (si, text) in HARD_QUERIES.iter().enumerate() {
        let (db, q) = random_instance(text, 200 + si as u64, 0);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::KarpLuby, "{text}");
        let p_bf = brute_force_probability(&db, &q);
        assert!(
            (ev.probability - p_bf).abs() < 0.03,
            "{text}: KL {} vs exact {p_bf}",
            ev.probability
        );
    }
}

#[test]
fn recurrence_and_safe_eval_agree_on_no_self_join_queries() {
    for (si, text) in ["R(x), S(x,y)", "R(x), S(x,y), U(x,y,z)", "R(x), T(z,w)"]
        .iter()
        .enumerate()
    {
        for round in 0..4 {
            let (db, q) = random_instance(text, 300 + si as u64, round);
            let p_rec = eval_recurrence(&db, &q).unwrap();
            let p_safe = eval_inversion_free(&db, db.probs(), &q).unwrap();
            assert!(
                (p_rec - p_safe).abs() < 1e-9,
                "{text}: recurrence {p_rec} vs safe {p_safe}"
            );
        }
    }
}

#[test]
fn classification_matches_engine_choice() {
    for text in PTIME_QUERIES {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, text).unwrap();
        assert!(classify(&q).unwrap().complexity.is_ptime(), "{text}");
    }
    for text in HARD_QUERIES {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, text).unwrap();
        assert!(!classify(&q).unwrap().complexity.is_ptime(), "{text}");
    }
}
