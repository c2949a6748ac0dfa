//! Integration tests for the Theorem 3.11 extension: inversion-free
//! queries with negated sub-goals stay PTIME, and the evaluators agree
//! with possible-world enumeration.

use pdb::generators::{random_db_for_query, RandomDbOptions};
use probdb::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn check(text: &str, seed: u64) {
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, text).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = RandomDbOptions {
        domain: 3,
        tuples_per_relation: 3,
        prob_range: (0.1, 0.9),
    };
    for _ in 0..5 {
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let p_bf = brute_force_probability(&db, &q);
        let p_lin = exact_probability(&lineage_of(&db, &q), &db.prob_vector());
        assert!((p_lin - p_bf).abs() < 1e-9, "{text}: lineage");
        if !q.has_self_join() {
            let p_rec = eval_recurrence(&db, &q).unwrap();
            assert!(
                (p_rec - p_bf).abs() < 1e-9,
                "{text}: recurrence {p_rec} vs {p_bf}"
            );
        }
        let p_safe = eval_inversion_free(&db, db.probs(), &q).unwrap();
        assert!(
            (p_safe - p_bf).abs() < 1e-8,
            "{text}: safe {p_safe} vs {p_bf}"
        );
    }
}

#[test]
fn negated_unary_tail() {
    check("R(x), not T(x)", 1);
}

#[test]
fn negated_binary_subgoal() {
    check("R(x), not S(x,y)", 2);
}

#[test]
fn negation_with_predicates() {
    check("R(x), not S(x,y), x != y", 3);
}

#[test]
fn negation_with_self_join() {
    // Positive and negative occurrences of the same relation share tuples;
    // root analysis must treat them as unifiable.
    check("S(x,y), not S(y,x)", 4);
}

#[test]
fn purely_negative_component() {
    check("R(x), not U(z)", 5);
}

#[test]
fn classification_ignores_polarity() {
    let mut voc = Vocabulary::new();
    // Negating T does not save the non-hierarchical pattern (Def. 3.9).
    let q = parse_query(&mut voc, "R(x), S(x,y), not T(y)").unwrap();
    assert!(!classify(&q).unwrap().complexity.is_ptime());
    // And the hierarchical one stays PTIME.
    let q2 = parse_query(&mut voc, "R(x), not S(x,y)").unwrap();
    assert!(classify(&q2).unwrap().complexity.is_ptime());
}
