//! Lineage extraction: from a query and a probabilistic structure to a DNF
//! over tuple events.
//!
//! Each match of the query into the possible tuples ([`crate::each_match`])
//! contributes one clause, built from the tuples the match landed on: a
//! positive literal per positive sub-goal's tuple and a negative literal
//! per negated sub-goal whose tuple is *possible* (a negated sub-goal over
//! an impossible tuple is vacuously true and contributes no literal).
//! `P(q) = P(lineage)` by construction, which the cross-engine tests
//! verify against brute-force world enumeration.

use crate::database::ProbDb;
use crate::eval::{each_match, negated_hits};
use cq::{Query, Value, Var};
use lineage::{Dnf, Lit};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// Compute the lineage DNF of `q` over `db`. Event variable `i` is
/// `TupleId(i)`; pair the result with [`ProbDb::probs`] for the model
/// counters.
pub fn lineage_of(db: &ProbDb, q: &Query) -> Dnf {
    lineages_by_head(db, q, &[])
        .pop()
        .map_or_else(Dnf::new, |(_, dnf)| dnf)
}

/// Compute, in **one pass** over the matches, the lineage of every
/// candidate answer of a non-Boolean query: the result maps each distinct
/// binding of `head`, ascending, to the DNF of its residual `q[ā/h̄]`. It
/// equals [`lineage_of`] on every residual, clause order included, but the
/// join work is shared across candidates instead of repeated per
/// candidate — the batched substrate of ranked answers on lineage and of
/// the multisimulation top-k.
pub fn lineages_by_head(db: &ProbDb, q: &Query, head: &[Var]) -> Vec<(Vec<Value>, Dnf)> {
    let mut by_head: BTreeMap<Vec<Value>, Dnf> = BTreeMap::new();
    let _ = each_match(db, q, None, |val, ids| {
        let lits = ids
            .iter()
            .map(|id| Lit::pos(id.0))
            .chain(negated_hits(db, q, val).map(|id| Lit::neg(id.0)))
            .collect();
        let tuple = head.iter().map(|h| val[h]).collect();
        by_head.entry(tuple).or_default().add_clause(lits);
        ControlFlow::Continue(())
    });
    by_head
        .into_iter()
        .map(|(tuple, mut dnf)| {
            dnf.absorb();
            (tuple, dnf)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::brute_force_probability;
    use cq::{parse_query, Vocabulary};
    use lineage::exact_probability;

    fn check_agrees(db: &ProbDb, q: &Query) {
        let dnf = lineage_of(db, q);
        let p_lin = exact_probability(&dnf, db.probs());
        let p_bf = brute_force_probability(db, q);
        assert!(
            (p_lin - p_bf).abs() < 1e-10,
            "lineage {p_lin} vs brute force {p_bf} for {q:?}, dnf={dnf}"
        );
    }

    #[test]
    fn simple_join_lineage() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(r, vec![Value(2)], 0.25);
        db.insert(s, vec![Value(1), Value(7)], 0.4);
        db.insert(s, vec![Value(2), Value(7)], 0.6);
        let dnf = lineage_of(&db, &q);
        assert_eq!(dnf.clauses.len(), 2);
        check_agrees(&db, &q);
    }

    #[test]
    fn self_join_lineage_shares_events() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "E(x,y), E(y,z)").unwrap();
        let e = voc.find_relation("E").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(e, vec![Value(1), Value(2)], 0.5);
        db.insert(e, vec![Value(2), Value(3)], 0.5);
        db.insert(e, vec![Value(3), Value(1)], 0.5);
        let dnf = lineage_of(&db, &q);
        // Three 2-paths around the triangle.
        assert_eq!(dnf.clauses.len(), 3);
        check_agrees(&db, &q);
    }

    #[test]
    fn negated_subgoal_lineage() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), not T(x)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let t = voc.find_relation("T").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(r, vec![Value(2)], 0.5);
        db.insert(t, vec![Value(1)], 0.7);
        check_agrees(&db, &q);
        let dnf = lineage_of(&db, &q);
        // R(1)∧¬T(1)  ∨  R(2)  (T(2) impossible ⇒ no literal)
        assert_eq!(dnf.clauses.len(), 2);
    }

    #[test]
    fn predicate_filters_clauses() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "E(x,y), x < y").unwrap();
        let e = voc.find_relation("E").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(e, vec![Value(1), Value(2)], 0.5);
        db.insert(e, vec![Value(2), Value(1)], 0.5);
        let dnf = lineage_of(&db, &q);
        assert_eq!(dnf.clauses.len(), 1);
        check_agrees(&db, &q);
    }

    #[test]
    fn unsatisfied_query_has_false_lineage() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,x)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(2), Value(3)], 0.5);
        assert!(lineage_of(&db, &q).is_false());
        check_agrees(&db, &q);
    }

    #[test]
    fn grouped_lineages_match_per_residual_extraction() {
        use crate::generators::{random_db_for_query, RandomDbOptions};
        use cq::Subst;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Each candidate's grouped lineage is the residual's own, clause
        // order included, so evaluating either gives the same bits.
        fn check(db: &ProbDb, q: &Query, head: &[Var]) {
            for (tuple, dnf) in lineages_by_head(db, q, head) {
                let mut subst = Subst::new();
                for (h, &v) in head.iter().zip(&tuple) {
                    subst.bind(*h, v);
                }
                let residual = q.apply(&subst);
                assert_eq!(dnf, lineage_of(db, &residual), "{q:?} at {tuple:?}");
            }
        }

        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let x = q.vars()[0];
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(r, vec![Value(2)], 0.25);
        db.insert(s, vec![Value(1), Value(7)], 0.4);
        db.insert(s, vec![Value(1), Value(8)], 0.6);
        db.insert(s, vec![Value(2), Value(7)], 0.6);
        assert_eq!(lineages_by_head(&db, &q, &[x]).len(), 2);
        check(&db, &q, &[x]);

        let shapes = [
            "R(x), S(x,y)",
            "R(x), S(x,1)",
            "R(x), S(x,x), S(x,y)",
            "R(x), S(x,y), x < y",
            "R(x), S(y,x), x != y",
            "R(x), S(x,y), not T(x)",
            "R(x), not T(y)",
            "S(x,y), S(y,z)",
        ];
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 5,
            prob_range: (0.1, 0.9),
        };
        for (i, text) in shapes.iter().enumerate() {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).unwrap();
            let vars = q.vars();
            let mut rng = StdRng::seed_from_u64(i as u64);
            for _ in 0..4 {
                let db = random_db_for_query(&q, &voc, opts, &mut rng);
                check(&db, &q, &vars[..1]);
                check(&db, &q, &vars[..vars.len().min(2)]);
            }
        }
    }

    #[test]
    fn duplicate_valuations_collapse() {
        // R(x), R(y) has n² valuations but only n distinct clauses after
        // normalization/absorption.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), R(y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(r, vec![Value(2)], 0.5);
        let dnf = lineage_of(&db, &q);
        assert_eq!(dnf.clauses.len(), 2);
        check_agrees(&db, &q);
    }
}
