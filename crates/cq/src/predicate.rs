//! Restricted arithmetic predicates (§2.1) and a small order theory.
//!
//! The paper extends conjunctive queries with predicates `u < v`, `u = v`,
//! `u ≠ v` between a variable and a constant or between two co-occurring
//! variables. The canonical coverage `C<(q)` branches over `<` / `=` / `>`
//! for every co-occurring pair, so the analysis constantly needs to answer
//! two questions about a set of such predicates:
//!
//! * **satisfiability** — is there any assignment of the variables into an
//!   ordered domain satisfying all of them? (unsatisfiable covers are
//!   dropped), and
//! * **entailment** — does the set force a given predicate? (homomorphisms
//!   must map predicates to entailed predicates).
//!
//! [`PredTheory`] answers both by computing equality classes (union–find),
//! pinning classes to constants, and taking the transitive closure of the
//! strict order `<` over classes, with constants contributing their natural
//! order. Satisfiability is interpreted over a dense ordered domain, which
//! matches the paper's abstract treatment of the order predicate.

use crate::term::{Term, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Comparison operator of an arithmetic predicate. `>` is normalized to `<`
/// with swapped operands at construction time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum CompOp {
    Lt,
    Eq,
    Ne,
}

/// An arithmetic predicate between two terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred {
    pub op: CompOp,
    pub lhs: Term,
    pub rhs: Term,
}

impl Pred {
    pub fn lt(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        Pred {
            op: CompOp::Lt,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// `lhs > rhs`, stored as `rhs < lhs`.
    pub fn gt(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        Pred::lt(rhs, lhs)
    }

    /// Symmetric operators store their operands in `Ord` order so that equal
    /// predicates compare equal structurally.
    pub fn eq(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        let (l, r) = ordered(lhs.into(), rhs.into());
        Pred {
            op: CompOp::Eq,
            lhs: l,
            rhs: r,
        }
    }

    pub fn ne(lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        let (l, r) = ordered(lhs.into(), rhs.into());
        Pred {
            op: CompOp::Ne,
            lhs: l,
            rhs: r,
        }
    }

    /// Both operands are constants.
    pub fn is_ground(&self) -> bool {
        self.lhs.is_const() && self.rhs.is_const()
    }

    /// Evaluate a ground predicate. Returns `None` if not ground.
    pub fn eval_ground(&self) -> Option<bool> {
        let (l, r) = (self.lhs.as_const()?, self.rhs.as_const()?);
        Some(match self.op {
            CompOp::Lt => l < r,
            CompOp::Eq => l == r,
            CompOp::Ne => l != r,
        })
    }

    /// The terms of this predicate.
    pub fn terms(&self) -> [Term; 2] {
        [self.lhs, self.rhs]
    }
}

fn ordered(a: Term, b: Term) -> (Term, Term) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            CompOp::Lt => "<",
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
        };
        write!(f, "{:?}{}{:?}", self.lhs, op, self.rhs)
    }
}

/// A decided (consistent) theory over a set of arithmetic predicates.
///
/// Construction fails with `None` exactly when the predicate set is
/// unsatisfiable over a dense ordered domain.
#[derive(Clone, Debug)]
pub struct PredTheory {
    /// Map from term to its equality-class index.
    class_of: HashMap<Term, usize>,
    /// Pinned constant of each class, if any.
    class_const: Vec<Option<Value>>,
    /// Transitively closed strict order between classes.
    lt: HashSet<(usize, usize)>,
    /// Symmetric disequality between classes, stored with `a < b`.
    ne: HashSet<(usize, usize)>,
}

impl PredTheory {
    /// Build the theory of `preds` over the given term universe (terms not
    /// mentioned in any predicate may still be queried for entailment, so
    /// callers pass every term of the query). Returns `None` if
    /// unsatisfiable.
    pub fn new(universe: impl IntoIterator<Item = Term>, preds: &[Pred]) -> Option<Self> {
        // Collect terms.
        let mut terms: Vec<Term> = Vec::new();
        let mut seen: HashSet<Term> = HashSet::new();
        let push = |t: Term, terms: &mut Vec<Term>, seen: &mut HashSet<Term>| {
            if seen.insert(t) {
                terms.push(t);
            }
        };
        for t in universe {
            push(t, &mut terms, &mut seen);
        }
        for p in preds {
            for t in p.terms() {
                push(t, &mut terms, &mut seen);
            }
        }
        let idx: HashMap<Term, usize> = terms.iter().enumerate().map(|(i, &t)| (t, i)).collect();

        // Union-find for equalities.
        let mut parent: Vec<usize> = (0..terms.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for p in preds {
            if p.op == CompOp::Eq {
                let (a, b) = (idx[&p.lhs], idx[&p.rhs]);
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra] = rb;
            }
        }

        // Compress into class indices.
        let mut class_of: HashMap<Term, usize> = HashMap::new();
        let mut rep_to_class: HashMap<usize, usize> = HashMap::new();
        let mut class_const: Vec<Option<Value>> = Vec::new();
        for (i, &t) in terms.iter().enumerate() {
            let r = find(&mut parent, i);
            let c = *rep_to_class.entry(r).or_insert_with(|| {
                class_const.push(None);
                class_const.len() - 1
            });
            class_of.insert(t, c);
            if let Term::Const(v) = t {
                match class_const[c] {
                    None => class_const[c] = Some(v),
                    // Two distinct constants forced equal: unsatisfiable.
                    Some(w) if w != v => return None,
                    Some(_) => {}
                }
            }
        }
        let n = class_const.len();

        // Base strict-order edges: explicit `<` plus the natural order of
        // pinned constants.
        let mut lt: HashSet<(usize, usize)> = HashSet::new();
        for p in preds {
            if p.op == CompOp::Lt {
                lt.insert((class_of[&p.lhs], class_of[&p.rhs]));
            }
        }
        for a in 0..n {
            for b in 0..n {
                if let (Some(va), Some(vb)) = (class_const[a], class_const[b]) {
                    if va < vb {
                        lt.insert((a, b));
                    }
                }
            }
        }

        // Transitive closure (classes are few; Floyd-Warshall style).
        let mut changed = true;
        while changed {
            changed = false;
            let pairs: Vec<(usize, usize)> = lt.iter().copied().collect();
            for &(a, b) in &pairs {
                for &(b2, c) in &pairs {
                    if b == b2 && lt.insert((a, c)) {
                        changed = true;
                    }
                }
            }
        }

        // Irreflexivity: a < a is a contradiction (also catches cycles).
        for &(a, b) in &lt {
            if a == b {
                return None;
            }
        }
        // `<` between classes pinned to constants must agree with the values.
        for &(a, b) in &lt {
            if let (Some(va), Some(vb)) = (class_const[a], class_const[b]) {
                if va >= vb {
                    return None;
                }
            }
        }

        // Disequalities.
        let mut ne: HashSet<(usize, usize)> = HashSet::new();
        for p in preds {
            if p.op == CompOp::Ne {
                let (a, b) = (class_of[&p.lhs], class_of[&p.rhs]);
                if a == b {
                    return None; // x != x
                }
                ne.insert((a.min(b), a.max(b)));
            }
        }

        Some(PredTheory {
            class_of,
            class_const,
            lt,
            ne,
        })
    }

    fn class(&self, t: Term) -> Option<usize> {
        self.class_of.get(&t).copied()
    }

    /// Does the theory entail `p`? Terms unknown to the theory are only
    /// decided when both are constants.
    pub fn entails(&self, p: &Pred) -> bool {
        if let Some(v) = p.eval_ground() {
            return v;
        }
        let (Some(a), Some(b)) = (self.class(p.lhs), self.class(p.rhs)) else {
            return false;
        };
        match p.op {
            CompOp::Eq => a == b,
            CompOp::Lt => {
                if self.lt.contains(&(a, b)) {
                    return true;
                }
                matches!(
                    (self.class_const[a], self.class_const[b]),
                    (Some(va), Some(vb)) if va < vb
                )
            }
            CompOp::Ne => {
                if a == b {
                    return false;
                }
                if self.ne.contains(&(a.min(b), a.max(b))) {
                    return true;
                }
                if self.lt.contains(&(a, b)) || self.lt.contains(&(b, a)) {
                    return true;
                }
                matches!(
                    (self.class_const[a], self.class_const[b]),
                    (Some(va), Some(vb)) if va != vb
                )
            }
        }
    }

    /// Are `preds` satisfiable at all?
    pub fn satisfiable(preds: &[Pred]) -> bool {
        PredTheory::new(std::iter::empty(), preds).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;

    fn x() -> Term {
        Term::Var(Var(0))
    }
    fn y() -> Term {
        Term::Var(Var(1))
    }
    fn z() -> Term {
        Term::Var(Var(2))
    }
    fn c(v: u64) -> Term {
        Term::Const(Value(v))
    }

    fn theory(preds: &[Pred]) -> Option<PredTheory> {
        PredTheory::new([x(), y(), z()], preds)
    }

    #[test]
    fn gt_normalizes_to_lt() {
        assert_eq!(Pred::gt(x(), y()), Pred::lt(y(), x()));
    }

    #[test]
    fn lt_cycle_is_unsat() {
        assert!(theory(&[Pred::lt(x(), y()), Pred::lt(y(), x())]).is_none());
        assert!(theory(&[Pred::lt(x(), y()), Pred::lt(y(), z()), Pred::lt(z(), x())]).is_none());
    }

    #[test]
    fn eq_collapses_then_lt_is_reflexive_unsat() {
        assert!(theory(&[Pred::eq(x(), y()), Pred::lt(x(), y())]).is_none());
        assert!(theory(&[Pred::eq(x(), y()), Pred::ne(x(), y())]).is_none());
    }

    #[test]
    fn const_pinning_contradiction() {
        assert!(theory(&[Pred::eq(x(), c(1)), Pred::eq(x(), c(2))]).is_none());
        assert!(theory(&[Pred::eq(x(), c(5)), Pred::lt(x(), c(3))]).is_none());
        assert!(theory(&[Pred::eq(x(), c(3)), Pred::lt(x(), c(5))]).is_some());
    }

    #[test]
    fn entailment_via_transitivity() {
        let t = theory(&[Pred::lt(x(), y()), Pred::lt(y(), z())]).unwrap();
        assert!(t.entails(&Pred::lt(x(), z())));
        assert!(t.entails(&Pred::ne(x(), z())));
        assert!(!t.entails(&Pred::lt(z(), x())));
        assert!(!t.entails(&Pred::eq(x(), z())));
    }

    #[test]
    fn entailment_via_constants() {
        let t = theory(&[Pred::eq(x(), c(2)), Pred::eq(y(), c(7))]).unwrap();
        assert!(t.entails(&Pred::lt(x(), y())));
        assert!(t.entails(&Pred::ne(x(), y())));
        assert!(t.entails(&Pred::lt(c(1), c(4))));
        assert!(!t.entails(&Pred::lt(c(4), c(1))));
    }

    #[test]
    fn constants_order_through_variables() {
        // x < 3 and 5 < y entails x < y through 3 < 5.
        let t = theory(&[Pred::lt(x(), c(3)), Pred::lt(c(5), y())]).unwrap();
        assert!(t.entails(&Pred::lt(x(), y())));
    }

    #[test]
    fn ne_is_symmetric() {
        let t = theory(&[Pred::ne(x(), y())]).unwrap();
        assert!(t.entails(&Pred::ne(y(), x())));
    }

    #[test]
    fn satisfiable_helpers() {
        assert!(PredTheory::satisfiable(&[Pred::lt(x(), y())]));
        assert!(!PredTheory::satisfiable(&[Pred::lt(x(), x())]));
        assert!(PredTheory::satisfiable(&[
            Pred::lt(x(), y()),
            Pred::ne(x(), y())
        ]));
        assert!(!PredTheory::satisfiable(&[
            Pred::lt(x(), y()),
            Pred::eq(x(), y())
        ]));
    }

    #[test]
    fn ground_eval() {
        assert_eq!(Pred::lt(c(1), c(2)).eval_ground(), Some(true));
        assert_eq!(Pred::eq(c(1), c(2)).eval_ground(), Some(false));
        assert_eq!(Pred::ne(c(1), c(2)).eval_ground(), Some(true));
        assert_eq!(Pred::lt(x(), c(2)).eval_ground(), None);
    }
}
