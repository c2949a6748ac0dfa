//! Relational atoms (sub-goals), positive or negated.

use crate::term::{Term, Value, Var};
use crate::vocab::{RelId, Vocabulary};
use std::fmt;

/// A sub-goal `R(t1, …, tk)` or `not R(t1, …, tk)`.
///
/// Negated sub-goals implement Definition 3.9 (conjunctive queries with
/// negation); the classification machinery treats them like positive
/// sub-goals, exactly as the paper prescribes ("the query is said to be
/// inversion-free if the conjunctive query obtained by replacing each
/// `not(R(t))` sub-goal with `R(t)` is inversion-free").
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    pub rel: RelId,
    pub args: Vec<Term>,
    pub negated: bool,
}

impl Atom {
    pub fn new(rel: RelId, args: Vec<Term>) -> Self {
        Atom {
            rel,
            args,
            negated: false,
        }
    }

    pub fn negated(rel: RelId, args: Vec<Term>) -> Self {
        Atom {
            rel,
            args,
            negated: true,
        }
    }

    /// The distinct variables of this atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in &self.args {
            if let Term::Var(v) = *t {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The distinct constants of this atom, in first-occurrence order.
    pub fn constants(&self) -> Vec<Value> {
        let mut out = Vec::new();
        for t in &self.args {
            if let Term::Const(c) = *t {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// True when the atom has no variables.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| t.is_const())
    }

    /// Does variable `v` occur in this atom?
    pub fn contains_var(&self, v: Var) -> bool {
        self.args.contains(&Term::Var(v))
    }

    /// Render with relation/constant names resolved through `voc`.
    pub fn display(&self, voc: &Vocabulary) -> String {
        let args: Vec<String> = self
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => format!("{v}"),
                Term::Const(c) => voc.value_name(*c),
            })
            .collect();
        let head = format!("{}({})", voc.rel_name(self.rel), args.join(","));
        if self.negated {
            format!("not {head}")
        } else {
            head
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "not ")?;
        }
        write!(f, "R{}(", self.rel.0)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t:?}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }
    fn c(i: u64) -> Term {
        Term::Const(Value(i))
    }

    #[test]
    fn vars_and_constants_dedupe_in_order() {
        let a = Atom::new(RelId(0), vec![v(1), c(7), v(0), v(1), c(7)]);
        assert_eq!(a.vars(), vec![Var(1), Var(0)]);
        assert_eq!(a.constants(), vec![Value(7)]);
        assert!(!a.is_ground());
    }

    #[test]
    fn ground_atom() {
        let a = Atom::new(RelId(2), vec![c(1), c(2)]);
        assert!(a.is_ground());
        assert!(a.vars().is_empty());
    }

    #[test]
    fn contains_variable() {
        let a = Atom::new(RelId(0), vec![v(3), v(1), v(3)]);
        assert!(a.contains_var(Var(3)));
        assert!(a.contains_var(Var(1)));
        assert!(!a.contains_var(Var(9)));
    }

    #[test]
    fn display_uses_vocabulary_names() {
        let mut voc = Vocabulary::new();
        let r = voc.relation("Edge", 2).unwrap();
        let a = voc.named_const("a");
        let atom = Atom::new(r, vec![v(0), Term::Const(a)]);
        assert_eq!(atom.display(&voc), "Edge(x0,'a')");
        let neg = Atom::negated(r, vec![v(0), v(1)]);
        assert_eq!(neg.display(&voc), "not Edge(x0,x1)");
    }
}
