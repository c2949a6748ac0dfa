//! Lineage extraction: from a query and a probabilistic structure to a DNF
//! over tuple events.
//!
//! Each valuation of the query into the possible tuples contributes one
//! clause: a positive literal per positive sub-goal's tuple and a negative
//! literal per negated sub-goal whose tuple is *possible* (a negated
//! sub-goal over an impossible tuple is vacuously true and contributes no
//! literal). `P(q) = P(lineage)` by construction, which the cross-engine
//! tests verify against brute-force world enumeration.

use crate::database::ProbDb;
use crate::eval::{all_valuations, Valuation};
use cq::{Query, Term, Value, Var};
use lineage::{Dnf, Lit};
use std::collections::BTreeMap;

/// The clause one valuation contributes: a positive literal per positive
/// sub-goal's tuple and a negative literal per negated sub-goal whose
/// tuple is possible. `None` when some positive sub-goal lands on an
/// impossible tuple (the valuation never fires).
fn clause_of_valuation(db: &ProbDb, q: &Query, val: &Valuation) -> Option<Vec<Lit>> {
    let mut lits = Vec::with_capacity(q.atoms.len());
    for atom in &q.atoms {
        let args: Vec<Value> = atom
            .args
            .iter()
            .map(|t| match *t {
                Term::Const(c) => c,
                Term::Var(v) => val[&v],
            })
            .collect();
        match db.find(atom.rel, &args) {
            Some(id) => lits.push(if atom.negated {
                Lit::neg(id.0)
            } else {
                Lit::pos(id.0)
            }),
            None => {
                if atom.negated {
                    // Impossible tuple: never present, negation certain.
                    continue;
                }
                // Positive sub-goal over an impossible tuple.
                return None;
            }
        }
    }
    Some(lits)
}

/// Compute the lineage DNF of `q` over `db`. Event variable `i` is
/// `TupleId(i)`; pair the result with [`ProbDb::probs`] for the model
/// counters.
pub fn lineage_of(db: &ProbDb, q: &Query) -> Dnf {
    let mut dnf = Dnf::new();
    for val in all_valuations(db, q) {
        if let Some(lits) = clause_of_valuation(db, q, &val) {
            dnf.add_clause(lits);
        }
    }
    dnf.absorb();
    dnf
}

/// Compute, in **one pass** over the valuations, the lineage of every
/// candidate answer of a non-Boolean query: the result maps each distinct
/// binding of `head` to the DNF of its residual `q[ā/h̄]`. Equivalent to
/// calling [`lineage_of`] on every residual, but the join work is shared
/// across candidates instead of repeated per candidate — the batched
/// substrate of the multisimulation top-k.
pub fn lineages_by_head(db: &ProbDb, q: &Query, head: &[Var]) -> Vec<(Vec<Value>, Dnf)> {
    let mut by_head: BTreeMap<Vec<Value>, Dnf> = BTreeMap::new();
    for val in all_valuations(db, q) {
        let tuple: Vec<Value> = head.iter().map(|h| val[h]).collect();
        let dnf = by_head.entry(tuple).or_default();
        if let Some(lits) = clause_of_valuation(db, q, &val) {
            dnf.add_clause(lits);
        }
    }
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
        use cq::Subst;
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
        let grouped = lineages_by_head(&db, &q, &[x]);
        assert_eq!(grouped.len(), 2);
        for (tuple, dnf) in &grouped {
            let residual = q.apply(&Subst::singleton(x, tuple[0]));
            let direct = lineage_of(&db, &residual);
            let pv = db.probs();
            assert!(
                (exact_probability(dnf, pv) - exact_probability(&direct, pv)).abs() < 1e-12,
                "candidate {tuple:?}: grouped {dnf} vs direct {direct}"
            );
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
