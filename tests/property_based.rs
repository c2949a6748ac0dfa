//! Property-based tests (proptest): randomized databases — and for the
//! lineage layer, randomized DNFs — must keep every cross-engine invariant.

use probdb::prelude::{
    brute_force_probability, eval_inversion_free, eval_recurrence, exact_probability, karp_luby,
    lineage_of, parse_query, ProbDb, Value, Vocabulary,
};
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: a random tuple-independent database over `R/1, S/2` with the
/// given domain size.
type RsRows = (Vec<(u64, f64)>, Vec<(u64, u64, f64)>);

fn arb_rs_db(domain: u64) -> impl Strategy<Value = RsRows> {
    let r = proptest::collection::vec((0..domain, 0.05f64..0.95), 1..5);
    let s = proptest::collection::vec((0..domain, 0..domain, 0.05f64..0.95), 1..7);
    (r, s)
}

fn build_db(voc: &Vocabulary, r_rows: &[(u64, f64)], s_rows: &[(u64, u64, f64)]) -> ProbDb {
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc.clone());
    for &(a, p) in r_rows {
        db.insert(r, vec![Value(a)], p);
    }
    for &(a, b, p) in s_rows {
        db.insert(s, vec![Value(a), Value(b)], p);
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Eq. 3 recurrence equals possible-world enumeration on q_hier.
    #[test]
    fn recurrence_is_exact_on_q_hier((r_rows, s_rows) in arb_rs_db(3)) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let db = build_db(&voc, &r_rows, &s_rows);
        let p_rec = eval_recurrence(&db, &q).unwrap();
        let p_bf = brute_force_probability(&db, &q);
        prop_assert!((p_rec - p_bf).abs() < 1e-9, "{p_rec} vs {p_bf}");
    }

    /// The safe evaluator is exact on a self-join query (the §1.1 example).
    #[test]
    fn safe_eval_is_exact_on_selfjoin((r_rows, s_rows) in arb_rs_db(3)) {
        let mut voc = Vocabulary::new();
        // Reuse R as the "T" tail too: R(x), S(x,y), S(x2,y2), R(x2) has the
        // same inversion-free shape with an extra self-join on R.
        let q = parse_query(&mut voc, "R(x), S(x,y), S(x2,y2), R(x2)").unwrap();
        let db = build_db(&voc, &r_rows, &s_rows);
        let p_safe = eval_inversion_free(&db, &q).unwrap();
        let p_bf = brute_force_probability(&db, &q);
        prop_assert!((p_safe - p_bf).abs() < 1e-8, "{p_safe} vs {p_bf}");
    }

    /// Lineage compilation is exact on the #P-hard H_0 (exactness is about
    /// the instance, not the query class).
    #[test]
    fn lineage_is_exact_on_h0((r_rows, s_rows) in arb_rs_db(3)) {
        let mut voc = Vocabulary::new();
        // H_0 with R doubling as T: R(x), S(x,y), S(x2,y2), R(y2) — note the
        // tail variable is the *second* S attribute: an inversion.
        let q = parse_query(&mut voc, "R(x), S(x,y), S(x2,y2), R(y2)").unwrap();
        let db = build_db(&voc, &r_rows, &s_rows);
        let p_lin = exact_probability(&lineage_of(&db, &q), &db.prob_vector());
        let p_bf = brute_force_probability(&db, &q);
        prop_assert!((p_lin - p_bf).abs() < 1e-9, "{p_lin} vs {p_bf}");
    }

    /// Probabilities are probabilities.
    #[test]
    fn probabilities_stay_in_unit_interval((r_rows, s_rows) in arb_rs_db(4)) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let db = build_db(&voc, &r_rows, &s_rows);
        let p = eval_recurrence(&db, &q).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
    }

    /// Monotonicity: raising one tuple's probability cannot lower the
    /// probability of a negation-free query.
    #[test]
    fn monotone_in_tuple_probability(
        (r_rows, s_rows) in arb_rs_db(3),
        bump in 0usize..4,
    ) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let db = build_db(&voc, &r_rows, &s_rows);
        let p0 = eval_recurrence(&db, &q).unwrap();
        // Bump one S tuple to certainty.
        let idx = bump % s_rows.len();
        let s = db.voc.find_relation("S").unwrap();
        let (a, b, _) = s_rows[idx];
        let mut db2 = db.clone();
        db2.insert(s, vec![Value(a), Value(b)], 1.0);
        let p1 = eval_recurrence(&db2, &q).unwrap();
        prop_assert!(p1 + 1e-12 >= p0, "{p1} < {p0}");
    }

    /// Karp–Luby is within 6σ of the exact answer (flaky-free: fixed seed
    /// per case via the instance hash).
    #[test]
    fn karp_luby_confidence_interval((r_rows, s_rows) in arb_rs_db(3)) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), S(x2,y2), R(y2)").unwrap();
        let db = build_db(&voc, &r_rows, &s_rows);
        let dnf = lineage_of(&db, &q);
        let exact = exact_probability(&dnf, &db.prob_vector());
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let est = karp_luby(&dnf, &db.prob_vector(), 60_000, &mut rng);
        prop_assert!(
            (est.estimate - exact).abs() <= 6.0 * est.std_error + 1e-9,
            "estimate {} vs exact {exact} (se {})",
            est.estimate,
            est.std_error
        );
    }
}
