//! The PTIME recurrence for hierarchical queries without self-joins
//! (Theorem 1.3 / Eq. 3) — the VLDB'04 baseline algorithm, extended to
//! negated sub-goals per Theorem 3.11.
//!
//! ```text
//! p(q) = p(f0) · Π_{i=1..m} (1 − Π_{a∈A} (1 − p(f_i[a/x_i])))
//! ```
//!
//! where `f0` collects the constant sub-goals and each `f_i` is a connected
//! component with maximal variable `x_i`. Correctness rests on
//! `f_i[a/x_i] ⫫ f_j[a'/x_j]` for `i ≠ j` or `a ≠ a'`, which holds because
//! without self-joins components use disjoint relation symbols and the
//! maximal variable of a connected hierarchical component occurs in every
//! sub-goal (so different `a` pin disjoint tuples).
//!
//! This is a *reference*, not an engine path: the planner runs
//! hierarchical self-join-free queries on the extensional plan
//! (`safeplan`) and the shapes that compiler declines on the root
//! recursion ([`crate::safe_eval`]). Tests compare both against it (E9,
//! `safeplan::exec::tests::plans_match_recurrence_and_brute_force`, and the
//! cross-engine suites).

use crate::hierarchy::{is_hierarchical, root_candidates};
use cq::{Query, Term, Value};
use pdb::ProbDb;
use std::fmt;

/// Why the recurrence evaluator refused a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecurrenceError {
    /// Non-hierarchical queries are #P-hard (Theorem 1.4).
    NotHierarchical,
    /// A self-join breaks the independence argument behind Eq. 3; use the
    /// coverage-based safe evaluator instead.
    SelfJoin,
    /// A connected component has no variable occurring in all its sub-goals
    /// (cannot happen for hierarchical queries; defensive).
    NoRoot,
}

impl fmt::Display for RecurrenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecurrenceError::NotHierarchical => write!(f, "query is not hierarchical"),
            RecurrenceError::SelfJoin => write!(f, "query has self-joins"),
            RecurrenceError::NoRoot => write!(f, "component has no root variable"),
        }
    }
}

impl std::error::Error for RecurrenceError {}

/// Evaluate `p(q)` by the Eq. 3 recurrence. `q` must be hierarchical and
/// self-join-free (checked); negated sub-goals are allowed.
pub fn eval_recurrence(db: &ProbDb, q: &Query) -> Result<f64, RecurrenceError> {
    let Some(qn) = q.normalize() else {
        return Ok(0.0);
    };
    if !is_hierarchical(&qn) {
        return Err(RecurrenceError::NotHierarchical);
    }
    if qn.has_self_join() {
        return Err(RecurrenceError::SelfJoin);
    }
    rec(db, &qn)
}

fn rec(db: &ProbDb, q: &Query) -> Result<f64, RecurrenceError> {
    let Some(q) = q.normalize() else {
        return Ok(0.0);
    };
    let mut p = 1.0;
    for f in q.connected_components() {
        if f.is_ground() {
            // p(f0): product over constant sub-goals.
            for atom in &f.atoms {
                let args: Vec<Value> = atom
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Const(c) => c,
                        Term::Var(_) => unreachable!("ground component"),
                    })
                    .collect();
                let pt = db.prob_of(atom.rel, &args);
                p *= if atom.negated { 1.0 - pt } else { pt };
            }
        } else {
            let roots = root_candidates(&f).ok_or(RecurrenceError::NoRoot)?;
            let x = roots[0];
            // 1 − Π_a (1 − p(f[a/x])).
            let mut none = 1.0;
            for a in db.eval_domain(&f) {
                none *= 1.0 - rec(db, &f.substitute(x, a))?;
            }
            p *= 1.0 - none;
        }
        if p == 0.0 {
            return Ok(0.0);
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Vocabulary};
    use pdb::brute_force_probability;
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_against_brute_force(query_text: &str, seed: u64) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, query_text).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 3,
            prob_range: (0.1, 0.9),
        };
        for round in 0..5 {
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let safe = eval_recurrence(&db, &q).unwrap();
            let bf = brute_force_probability(&db, &q);
            assert!(
                (safe - bf).abs() < 1e-9,
                "round {round}: recurrence {safe} vs brute force {bf} for {query_text}"
            );
            let _ = round;
        }
    }

    #[test]
    fn q_hier_matches_brute_force() {
        check_against_brute_force("R(x), S(x,y)", 1);
    }

    #[test]
    fn deeper_hierarchy_matches_brute_force() {
        check_against_brute_force("R(x), S(x,y), U(x,y,z)", 2);
    }

    #[test]
    fn multiple_components_match_brute_force() {
        check_against_brute_force("R(x), T(z,w)", 3);
    }

    #[test]
    fn constants_match_brute_force() {
        check_against_brute_force("R(1), S(1,y)", 4);
    }

    #[test]
    fn predicates_match_brute_force() {
        check_against_brute_force("S(x,y), x < y", 5);
        check_against_brute_force("S(x,y), x != y", 6);
    }

    #[test]
    fn negation_matches_brute_force() {
        // Theorem 3.11 extension.
        check_against_brute_force("R(x), not T(x)", 7);
        check_against_brute_force("R(x), not S(x,y)", 8);
    }

    #[test]
    fn closed_form_example_from_paper() {
        // §1.1: p(q_hier) = 1 − Π_a (1 − p(R(a)) (1 − Π_b (1 − p(S(a,b))))).
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = pdb::ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.9);
        db.insert(r, vec![Value(2)], 0.4);
        db.insert(s, vec![Value(1), Value(3)], 0.5);
        db.insert(s, vec![Value(2), Value(3)], 0.7);
        db.insert(s, vec![Value(2), Value(4)], 0.2);
        let p = eval_recurrence(&db, &q).unwrap();
        let inner1 = 0.9 * (1.0 - 0.5); // a=1: 1-(1-p(R))(..) pieces below
        let _ = inner1;
        let p1 = 0.9 * (1.0 - (1.0 - 0.5));
        let p2 = 0.4 * (1.0 - (1.0 - 0.7) * (1.0 - 0.2));
        let expected = 1.0 - (1.0 - p1) * (1.0 - p2);
        assert!((p - expected).abs() < 1e-12, "p={p} expected={expected}");
    }

    #[test]
    fn rejects_non_hierarchical() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), T(y)").unwrap();
        let db = pdb::ProbDb::new(voc);
        assert_eq!(
            eval_recurrence(&db, &q).unwrap_err(),
            RecurrenceError::NotHierarchical
        );
    }

    #[test]
    fn rejects_self_joins() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x,y), R(y,z)").unwrap();
        let db = pdb::ProbDb::new(voc);
        assert_eq!(
            eval_recurrence(&db, &q).unwrap_err(),
            RecurrenceError::SelfJoin
        );
    }

    #[test]
    fn unsatisfiable_query_is_zero() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), x < x").unwrap();
        let db = pdb::ProbDb::new(voc);
        assert_eq!(eval_recurrence(&db, &q).unwrap(), 0.0);
    }

    #[test]
    fn empty_query_is_one() {
        let db = pdb::ProbDb::new(Vocabulary::new());
        assert_eq!(eval_recurrence(&db, &Query::truth()).unwrap(), 1.0);
    }
}
