//! Possible-world enumeration and the brute-force evaluator (Eq. 2).

use crate::database::ProbDb;
use crate::eval::satisfies;
use cq::Query;

/// Iterator over all `2^n` worlds of a database, yielding the presence
/// bitmap and the world probability (Eq. 1).
pub struct WorldIter<'a> {
    db: &'a ProbDb,
    mask: u64,
    done: bool,
}

impl<'a> WorldIter<'a> {
    /// # Panics
    /// If the database has more than 30 tuples (the enumeration would not
    /// terminate in reasonable time anyway).
    pub fn new(db: &'a ProbDb) -> Self {
        assert!(
            db.num_tuples() <= 30,
            "world enumeration limited to 30 tuples, got {}",
            db.num_tuples()
        );
        WorldIter {
            db,
            mask: 0,
            done: false,
        }
    }
}

impl Iterator for WorldIter<'_> {
    type Item = (Vec<bool>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let n = self.db.num_tuples();
        let world: Vec<bool> = (0..n).map(|i| self.mask >> i & 1 == 1).collect();
        let mut prob = 1.0;
        for (i, &p) in self.db.probs().iter().enumerate() {
            prob *= if world[i] { p } else { 1.0 - p };
        }
        if self.mask == (1u64 << n) - 1 {
            self.done = true;
        } else {
            self.mask += 1;
        }
        Some((world, prob))
    }
}

/// Compute `p(q) = Σ_{B ⊆ A, B ⊨ q} p(B)` (Eq. 2) by enumerating all
/// worlds. Exact ground truth for small instances.
pub fn brute_force_probability(db: &ProbDb, q: &Query) -> f64 {
    WorldIter::new(db)
        .filter(|(world, _)| satisfies(db, q, world))
        .map(|(_, p)| p)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Value, Vocabulary};

    #[test]
    fn world_probabilities_sum_to_one() {
        let mut voc = Vocabulary::new();
        let r = voc.relation("R", 1).unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.3);
        db.insert(r, vec![Value(2)], 0.8);
        let total: f64 = WorldIter::new(&db).map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(WorldIter::new(&db).count(), 4);
    }

    #[test]
    fn single_tuple_query_probability() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.3);
        db.insert(r, vec![Value(2)], 0.5);
        // p(∃x R(x)) = 1 - 0.7*0.5
        let p = brute_force_probability(&db, &q);
        assert!((p - (1.0 - 0.7 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn join_query_probability() {
        // q_hier = R(x), S(x,y); closed form from §1.1:
        // p = 1 - Π_a (1 - p(R(a)) (1 - Π_b (1 - p(S(a,b)))))
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(10)], 0.4);
        db.insert(s, vec![Value(1), Value(11)], 0.6);
        let p = brute_force_probability(&db, &q);
        let expected = 0.5 * (1.0 - 0.6 * 0.4);
        assert!((p - expected).abs() < 1e-12, "p={p} expected={expected}");
    }

    #[test]
    fn impossible_query_has_probability_zero() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "T(x)").unwrap();
        let r = voc.relation("R", 1).unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.9);
        assert_eq!(brute_force_probability(&db, &q), 0.0);
    }

    #[test]
    fn certain_tuple_makes_query_certain() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 1.0);
        assert!((brute_force_probability(&db, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn world_counting_matches_enumeration() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.3);
        db.insert(r, vec![Value(2)], 0.6);
        db.insert(s, vec![Value(1), Value(5)], 0.9);
        db.insert(s, vec![Value(2), Value(5)], 0.9);
        let by_count = crate::count_satisfying_worlds_exact(&db, &q)
            .to_u64()
            .unwrap();
        let by_enum = WorldIter::new(&db)
            .filter(|(w, _)| satisfies(&db, &q, w))
            .count() as u64;
        assert_eq!(by_count, by_enum);
        // (r1∧s1)∨(r2∧s2) over 4 tuples: 4 + 4 − 1 = 7 models.
        assert_eq!(by_count, 7);
    }

    #[test]
    #[should_panic(expected = "limited to 30")]
    fn enumeration_guard() {
        let mut voc = Vocabulary::new();
        let r = voc.relation("R", 1).unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..31 {
            db.insert(r, vec![Value(i)], 0.5);
        }
        let _ = WorldIter::new(&db);
    }
}
