//! Exact rational evaluation over probabilistic structures.
//!
//! The problem statement of the paper (§1) assigns each tuple a *rational*
//! probability and measures complexity in the bit-size of those rationals.
//! This module carries a parallel vector of [`QRat`] probabilities next to a
//! [`ProbDb`] and provides:
//!
//! * [`RatProbs`] — rational probabilities per tuple, either converted
//!   exactly from the stored `f64`s (every finite float is a dyadic
//!   rational) or assigned directly,
//! * [`brute_force_probability_exact`] — Eq. 2 by world enumeration in
//!   exact arithmetic,
//! * [`exact_query_probability`] — Eq. 2 via exact lineage compilation in
//!   rational arithmetic (scales past the enumeration bound),
//! * [`count_satisfying_worlds_exact`] — the substructure-counting
//!   specialization (`p ≡ 1/2`) from the paper's conclusions, with no
//!   53-bit mantissa ceiling.

use crate::database::ProbDb;
use crate::eval::satisfies;
use crate::lineage_ext::lineage_of;
use crate::worlds::WorldIter;
use cq::Query;
use lineage::exact_probability_generic;
use numeric::{BigUint, QRat};

/// Rational tuple probabilities parallel to a database's [`crate::TupleId`]
/// order.
#[derive(Clone, Debug)]
pub struct RatProbs {
    probs: Vec<QRat>,
}

impl RatProbs {
    /// Convert the database's `f64` probabilities exactly (each finite float
    /// *is* a dyadic rational, so nothing is lost).
    pub fn from_db(db: &ProbDb) -> Self {
        RatProbs {
            probs: db
                .probs()
                .iter()
                .map(|&p| QRat::from_f64_exact(p))
                .collect(),
        }
    }

    /// All tuples at the same probability — `QRat::ratio(1, 2)` gives the
    /// substructure-counting distribution.
    pub fn uniform(db: &ProbDb, p: QRat) -> Self {
        assert!(p.is_probability(), "{p} is not in [0,1]");
        RatProbs {
            probs: vec![p; db.num_tuples()],
        }
    }

    /// Explicit per-tuple probabilities in [`crate::TupleId`] order.
    ///
    /// # Panics
    /// If the length disagrees with the database or some value is outside
    /// `[0,1]`.
    pub fn explicit(db: &ProbDb, probs: Vec<QRat>) -> Self {
        assert_eq!(probs.len(), db.num_tuples(), "length mismatch");
        for p in &probs {
            assert!(p.is_probability(), "{p} is not in [0,1]");
        }
        RatProbs { probs }
    }

    pub fn as_slice(&self) -> &[QRat] {
        &self.probs
    }
}

/// Eq. 2 by exhaustive world enumeration in exact rational arithmetic.
/// Ground truth for small instances; panics past 30 tuples like
/// [`WorldIter`].
pub fn brute_force_probability_exact(db: &ProbDb, probs: &RatProbs, q: &Query) -> QRat {
    let mut total = QRat::zero();
    for (world, _) in WorldIter::new(db) {
        if satisfies(db, q, &world) {
            let mut wp = QRat::one();
            for (i, &present) in world.iter().enumerate() {
                let p = &probs.probs[i];
                wp = wp.mul_ref(&if present { p.clone() } else { p.complement() });
            }
            total = total.add_ref(&wp);
        }
    }
    total
}

/// Exact rational `p(q)` via lineage compilation — polynomial for safe
/// lineages, exponential in the worst case, but never loses precision.
pub fn exact_query_probability(db: &ProbDb, probs: &RatProbs, q: &Query) -> QRat {
    let dnf = lineage_of(db, q);
    if dnf.is_false() {
        return QRat::zero();
    }
    // The lineage may mention fewer variables than there are tuples.
    let n = db.num_tuples().max(dnf.num_vars());
    let mut padded = probs.probs.clone();
    padded.resize(n, QRat::zero());
    exact_probability_generic(&dnf, &padded).0
}

/// Count the substructures of `db` satisfying `q` — the `p ≡ 1/2`
/// specialization from the paper's conclusions — exactly, as a big integer.
/// There is no 53-bit ceiling: the count is a big integer.
pub fn count_satisfying_worlds_exact(db: &ProbDb, q: &Query) -> BigUint {
    let dnf = lineage_of(db, q);
    let n = db.num_tuples().max(dnf.num_vars());
    lineage::model_count_exact(&dnf, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force_probability;
    use crate::generators::{random_db_for_query, RandomDbOptions};
    use cq::{parse_query, Value, Vocabulary};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_db() -> (ProbDb, Query) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(r, vec![Value(2)], 0.25);
        db.insert(s, vec![Value(1), Value(3)], 0.75);
        db.insert(s, vec![Value(2), Value(3)], 0.125);
        (db, q)
    }

    #[test]
    fn exact_equals_closed_form() {
        let (db, q) = small_db();
        let probs = RatProbs::from_db(&db);
        let exact = brute_force_probability_exact(&db, &probs, &q);
        // p = 1 − (1 − 1/2 · 3/4)(1 − 1/4 · 1/8)
        let p1 = QRat::ratio(1, 2).mul_ref(&QRat::ratio(3, 4));
        let p2 = QRat::ratio(1, 4).mul_ref(&QRat::ratio(1, 8));
        let expected = p1.complement().mul_ref(&p2.complement()).complement();
        assert_eq!(exact, expected);
    }

    #[test]
    fn lineage_path_agrees_with_enumeration() {
        let (db, q) = small_db();
        let probs = RatProbs::from_db(&db);
        assert_eq!(
            exact_query_probability(&db, &probs, &q),
            brute_force_probability_exact(&db, &probs, &q)
        );
    }

    #[test]
    fn exact_agrees_with_f64_on_random_instances() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), T(y)").unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 3,
            prob_range: (0.1, 0.9),
        };
        for _ in 0..5 {
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let probs = RatProbs::from_db(&db);
            let exact = exact_query_probability(&db, &probs, &q);
            let float = brute_force_probability(&db, &q);
            assert!(
                (exact.to_f64() - float).abs() < 1e-9,
                "exact {exact} vs float {float}"
            );
        }
    }

    #[test]
    fn counting_scales_past_the_mantissa() {
        // R(x) over 60 independent tuples: #worlds where some tuple is
        // present = 2^60 − 1... over 60 variables the satisfying count is
        // 2^60 − 1, which still fits u64; use 70 tuples for a count past
        // 2^63: 2^70 − 1.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..70 {
            db.insert(r, vec![Value(i)], 0.5);
        }
        let c = count_satisfying_worlds_exact(&db, &q);
        let expected = BigUint::one().shl_bits(70).sub_ref(&BigUint::one());
        assert_eq!(c, expected);
    }

    #[test]
    fn uniform_and_explicit_probabilities() {
        let (db, q) = small_db();
        let half = RatProbs::uniform(&db, QRat::ratio(1, 2));
        let p = brute_force_probability_exact(&db, &half, &q);
        // With all p = 1/2: p(q) = 1 − (1 − 1/4)^2 = 7/16.
        assert_eq!(p, QRat::ratio(7, 16));
        let explicit = RatProbs::explicit(&db, vec![QRat::ratio(1, 2); db.num_tuples()]);
        assert_eq!(brute_force_probability_exact(&db, &explicit, &q), p);
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn uniform_rejects_non_probability() {
        let (db, _) = small_db();
        let _ = RatProbs::uniform(&db, QRat::ratio(3, 2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn explicit_rejects_wrong_length() {
        let (db, _) = small_db();
        let _ = RatProbs::explicit(&db, vec![QRat::ratio(1, 2)]);
    }

    #[test]
    fn empty_query_probability_is_one() {
        let (db, _) = small_db();
        let probs = RatProbs::from_db(&db);
        assert_eq!(
            brute_force_probability_exact(&db, &probs, &Query::truth()),
            QRat::one()
        );
    }

    #[test]
    fn unsatisfied_query_probability_is_zero() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "T(x)").unwrap();
        let r = voc.relation("R", 1).unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        let probs = RatProbs::from_db(&db);
        assert_eq!(exact_query_probability(&db, &probs, &q), QRat::zero());
    }
}
