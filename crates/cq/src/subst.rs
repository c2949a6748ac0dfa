//! Substitutions: finite maps from variables to terms.

use crate::atom::Atom;
use crate::predicate::Pred;
use crate::term::{Term, Var};
use std::collections::BTreeMap;

/// A substitution `θ`. Variables not in the map are fixed by `θ`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Var, Term>,
}

impl Subst {
    pub fn new() -> Self {
        Self::default()
    }

    /// The identity on a single binding.
    pub fn singleton(v: Var, t: impl Into<Term>) -> Self {
        let mut s = Self::new();
        s.bind(v, t);
        s
    }

    pub fn bind(&mut self, v: Var, t: impl Into<Term>) {
        self.map.insert(v, t.into());
    }

    pub fn get(&self, v: Var) -> Option<Term> {
        self.map.get(&v).copied()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Var, Term)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }

    /// Apply to a term.
    pub fn apply_term(&self, t: Term) -> Term {
        match t {
            Term::Var(v) => self.map.get(&v).copied().unwrap_or(t),
            Term::Const(_) => t,
        }
    }

    /// Apply repeatedly until fixpoint (needed when bindings chain, e.g.
    /// `x ↦ y, y ↦ a`). Cycles among variables are resolved by the bound —
    /// substitutions produced by unification are idempotent after
    /// resolution, so the bound is never hit in practice.
    pub fn apply_term_deep(&self, mut t: Term) -> Term {
        for _ in 0..=self.map.len() {
            let next = self.apply_term(t);
            if next == t {
                return t;
            }
            t = next;
        }
        t
    }

    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom {
            rel: a.rel,
            args: a.args.iter().map(|&t| self.apply_term(t)).collect(),
            negated: a.negated,
        }
    }

    pub fn apply_pred(&self, p: &Pred) -> Pred {
        // Re-normalize symmetric operators through the constructors.
        let (l, r) = (self.apply_term(p.lhs), self.apply_term(p.rhs));
        match p.op {
            crate::predicate::CompOp::Lt => Pred::lt(l, r),
            crate::predicate::CompOp::Eq => Pred::eq(l, r),
            crate::predicate::CompOp::Ne => Pred::ne(l, r),
        }
    }

    /// Compose: `self` then `other` (i.e. `(other ∘ self)(x) = other(self(x))`).
    pub fn then(&self, other: &Subst) -> Subst {
        let mut out = Subst::new();
        for (v, t) in self.iter() {
            out.bind(v, other.apply_term(t));
        }
        for (v, t) in other.iter() {
            out.map.entry(v).or_insert(t);
        }
        out
    }
}

impl FromIterator<(Var, Term)> for Subst {
    fn from_iter<I: IntoIterator<Item = (Var, Term)>>(iter: I) -> Self {
        Subst {
            map: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Value;
    use crate::vocab::RelId;

    #[test]
    fn apply_and_identity() {
        let s = Subst::singleton(Var(0), Value(5));
        assert_eq!(s.apply_term(Term::Var(Var(0))), Term::Const(Value(5)));
        assert_eq!(s.apply_term(Term::Var(Var(1))), Term::Var(Var(1)));
        assert_eq!(s.apply_term(Term::Const(Value(9))), Term::Const(Value(9)));
    }

    #[test]
    fn deep_application_resolves_chains() {
        let mut s = Subst::new();
        s.bind(Var(0), Var(1));
        s.bind(Var(1), Value(3));
        assert_eq!(s.apply_term_deep(Term::Var(Var(0))), Term::Const(Value(3)));
    }

    #[test]
    fn atom_application() {
        let s = Subst::singleton(Var(0), Var(7));
        let a = Atom::new(RelId(0), vec![Term::Var(Var(0)), Term::Var(Var(2))]);
        let b = s.apply_atom(&a);
        assert_eq!(b.args, vec![Term::Var(Var(7)), Term::Var(Var(2))]);
    }

    #[test]
    fn composition_order() {
        let s1 = Subst::singleton(Var(0), Var(1));
        let s2 = Subst::singleton(Var(1), Value(4));
        let c = s1.then(&s2);
        assert_eq!(c.apply_term(Term::Var(Var(0))), Term::Const(Value(4)));
        assert_eq!(c.apply_term(Term::Var(Var(1))), Term::Const(Value(4)));
    }
}
