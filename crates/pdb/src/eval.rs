//! The one enumeration of a query's matches, and satisfaction of
//! conjunctive queries on deterministic worlds — a small relational engine.
//!
//! A *match* of `q` is a valuation of its variables that maps every
//! positive sub-goal onto a possible tuple and satisfies the arithmetic
//! predicates. [`each_match`] enumerates them with one backtracking join
//! and hands each to a visitor with the tuple ids it landed on. World
//! satisfaction ([`satisfies`]), lineage extraction ([`crate::lineage_ext`])
//! and ranked candidates are its visitors, so a change to the join changes
//! all three.
//!
//! A *world* is a sub-structure of the possible tuples, represented as a
//! presence bitmap aligned with the database's [`TupleId`]s. A query is
//! satisfied when some match lands only on present tuples and maps no
//! negated sub-goal onto a present tuple.

use crate::database::{ProbDb, TupleId};
use cq::{Atom, Pred, Query, Term, Value, Var};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// Does `world` satisfy `q`? `world[i]` is the presence of tuple
/// `TupleId(i)`.
pub fn satisfies(db: &ProbDb, q: &Query, world: &[bool]) -> bool {
    each_match(db, q, Some(world), |val, _| {
        if negated_hits(db, q, val).any(|id| world[id.0 as usize]) {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    })
    .is_break()
}

/// Visit every match of `q` into the possible tuples of `db` (only those
/// present in `world`, when one is given) with its bindings and the ids of
/// the tuples its positive sub-goals landed on, in atom order. Negated
/// sub-goals are left to the visitor. Positive sub-goals bind in atom
/// order over [`ProbDb::tuples_of`], then the variables of no positive
/// sub-goal range over the evaluation domain in [`Query::vars`] order, so
/// matches come in a fixed order. Stops at the first
/// [`ControlFlow::Break`] and returns it.
pub fn each_match(
    db: &ProbDb,
    q: &Query,
    world: Option<&[bool]>,
    visit: impl FnMut(&BTreeMap<Var, Value>, &[TupleId]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let positives: Vec<&Atom> = q.positive_atoms().collect();
    let rest: Vec<Var> = q
        .vars()
        .into_iter()
        .filter(|&v| !positives.iter().any(|a| a.contains_var(v)))
        .collect();
    // The domain is O(database): built once, and only when a variable
    // ranges over it.
    let domain = if rest.is_empty() {
        Vec::new()
    } else {
        db.eval_domain(q).into_iter().collect()
    };
    Matcher {
        db,
        q,
        world,
        positives,
        rest,
        domain,
        val: BTreeMap::new(),
        trail: Vec::new(),
        ids: Vec::new(),
        visit,
    }
    .atoms(0)
}

/// The possible tuples `q`'s negated sub-goals land on under the complete
/// bindings `val`; a negated sub-goal over an impossible tuple yields none.
pub(crate) fn negated_hits<'a>(
    db: &'a ProbDb,
    q: &'a Query,
    val: &'a BTreeMap<Var, Value>,
) -> impl Iterator<Item = TupleId> + 'a {
    q.atoms.iter().filter(|a| a.negated).filter_map(|atom| {
        let args: Vec<Value> = atom.args.iter().map(|&t| ground(t, val)).collect();
        db.find(atom.rel, &args)
    })
}

/// The value of `t` under bindings that cover it.
fn ground(t: Term, val: &BTreeMap<Var, Value>) -> Value {
    match t {
        Term::Const(c) => c,
        Term::Var(v) => val[&v],
    }
}

/// The backtracking state of one [`each_match`] enumeration.
struct Matcher<'a, F> {
    db: &'a ProbDb,
    q: &'a Query,
    world: Option<&'a [bool]>,
    positives: Vec<&'a Atom>,
    /// The variables of no positive sub-goal, bound over `domain`.
    rest: Vec<Var>,
    domain: Vec<Value>,
    val: BTreeMap<Var, Value>,
    /// Variables in binding order, popped on backtracking.
    trail: Vec<Var>,
    /// The tuple each bound positive sub-goal landed on.
    ids: Vec<TupleId>,
    visit: F,
}

impl<F> Matcher<'_, F>
where
    F: FnMut(&BTreeMap<Var, Value>, &[TupleId]) -> ControlFlow<()>,
{
    /// Bind positive sub-goal `i` and every later one.
    fn atoms(&mut self, i: usize) -> ControlFlow<()> {
        let Some(&atom) = self.positives.get(i) else {
            return self.rest_vars(0);
        };
        let db = self.db;
        for &id in db.tuples_of(atom.rel) {
            if self.world.is_some_and(|w| !w[id.0 as usize]) {
                continue;
            }
            let mark = self.trail.len();
            let mut flow = ControlFlow::Continue(());
            if self.bind(atom, &db.tuple(id).args) {
                self.ids.push(id);
                flow = self.atoms(i + 1);
                self.ids.pop();
            }
            for v in self.trail.drain(mark..) {
                self.val.remove(&v);
            }
            flow?;
        }
        ControlFlow::Continue(())
    }

    /// Bind `atom`'s unbound variables to `args`; `false` once `args`
    /// contradicts a constant or a binding.
    fn bind(&mut self, atom: &Atom, args: &[Value]) -> bool {
        atom.args
            .iter()
            .zip(args)
            .all(|(term, &actual)| match *term {
                Term::Const(c) => c == actual,
                Term::Var(v) => {
                    *self.val.entry(v).or_insert_with(|| {
                        self.trail.push(v);
                        actual
                    }) == actual
                }
            })
    }

    /// Bind `rest[i..]` over the domain, then check the predicates.
    fn rest_vars(&mut self, i: usize) -> ControlFlow<()> {
        let Some(&v) = self.rest.get(i) else {
            let holds = self.q.preds.iter().all(|p| {
                let (lhs, rhs) = (ground(p.lhs, &self.val), ground(p.rhs, &self.val));
                let pred = Pred {
                    lhs: lhs.into(),
                    rhs: rhs.into(),
                    ..*p
                };
                pred.eval_ground() == Some(true)
            });
            return if holds {
                (self.visit)(&self.val, &self.ids)
            } else {
                ControlFlow::Continue(())
            };
        };
        for k in 0..self.domain.len() {
            self.val.insert(v, self.domain[k]);
            self.rest_vars(i + 1)?;
        }
        self.val.remove(&v);
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Vocabulary};

    /// Every match's bindings, in enumeration order.
    fn match_valuations(db: &ProbDb, q: &Query) -> Vec<BTreeMap<Var, Value>> {
        let mut out = Vec::new();
        let _ = each_match(db, q, None, |val, _| {
            out.push(val.clone());
            ControlFlow::Continue(())
        });
        out
    }

    fn db_rs() -> (ProbDb, Query) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5); // t0
        db.insert(s, vec![Value(1), Value(2)], 0.5); // t1
        db.insert(s, vec![Value(3), Value(4)], 0.5); // t2
        (db, q)
    }

    #[test]
    fn satisfaction_requires_join() {
        let (db, q) = db_rs();
        assert!(satisfies(&db, &q, &[true, true, false]));
        assert!(!satisfies(&db, &q, &[true, false, true])); // S(3,4) doesn't join R(1)
        assert!(!satisfies(&db, &q, &[false, true, false]));
    }

    #[test]
    fn valuations_enumerate_joins() {
        let (db, q) = db_rs();
        let vals = match_valuations(&db, &q);
        assert_eq!(vals.len(), 1);
        let v = &vals[0];
        let vars = q.vars();
        assert_eq!(v[&vars[0]], Value(1));
        assert_eq!(v[&vars[1]], Value(2));
    }

    #[test]
    fn predicates_filter_valuations() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(x,y), x < y").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(s, vec![Value(1), Value(2)], 0.5);
        db.insert(s, vec![Value(2), Value(1)], 0.5);
        let vals = match_valuations(&db, &q);
        assert_eq!(vals.len(), 1);
        assert!(satisfies(&db, &q, &[true, false]));
        assert!(!satisfies(&db, &q, &[false, true]));
    }

    #[test]
    fn constants_in_atoms_pin_tuples() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(1,y)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(s, vec![Value(1), Value(2)], 0.5);
        db.insert(s, vec![Value(3), Value(4)], 0.5);
        assert!(satisfies(&db, &q, &[true, true]));
        assert!(!satisfies(&db, &q, &[false, true]));
        assert_eq!(match_valuations(&db, &q).len(), 1);
    }

    #[test]
    fn negated_subgoal_blocks_on_present_tuple() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), not T(x)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let t = voc.find_relation("T").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5); // t0
        db.insert(t, vec![Value(1)], 0.5); // t1
        assert!(satisfies(&db, &q, &[true, false]));
        assert!(!satisfies(&db, &q, &[true, true]));
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(x,x)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(s, vec![Value(1), Value(2)], 0.5);
        db.insert(s, vec![Value(2), Value(2)], 0.5);
        assert!(!satisfies(&db, &q, &[true, false]));
        assert!(satisfies(&db, &q, &[false, true]));
    }

    #[test]
    fn self_join_uses_same_relation_twice() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "E(x,y), E(y,z)").unwrap();
        let e = voc.find_relation("E").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(e, vec![Value(1), Value(2)], 0.5);
        db.insert(e, vec![Value(2), Value(3)], 0.5);
        assert!(satisfies(&db, &q, &[true, true]));
        assert!(!satisfies(&db, &q, &[true, false]));
        // Self-loop satisfies a 2-path alone.
        let mut db2 = db.clone();
        db2.insert(e, vec![Value(5), Value(5)], 0.5);
        assert!(satisfies(&db2, &q, &[false, false, true]));
    }

    #[test]
    fn empty_query_is_always_true() {
        let (db, _) = db_rs();
        let q = Query::truth();
        assert!(satisfies(&db, &q, &[false, false, false]));
        assert_eq!(match_valuations(&db, &q).len(), 1);
    }
}
