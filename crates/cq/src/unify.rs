//! Most general unifiers of sub-goals and the paper's strictness test
//! (Definitions 2.2 and 2.3).

use crate::atom::Atom;
use crate::predicate::Pred;
use crate::query::Query;
use crate::subst::Subst;
use crate::term::{Term, Var};
use std::collections::HashMap;

/// A most general unifier of two sub-goals (from two queries that were
/// renamed apart). `subst` maps every unified variable to its class
/// representative (a constant if the class is pinned, otherwise the least
/// variable of the class).
#[derive(Clone, Debug)]
pub struct Mgu {
    pub subst: Subst,
}

impl Mgu {
    /// Definition 2.2: the MGU is *strict* iff it is a 1-1 substitution for
    /// `q q'` — it maps no variable to a constant, and no two distinct
    /// variables of the same query to the same term.
    pub fn is_strict(&self, vars1: &[Var], vars2: &[Var]) -> bool {
        let one_to_one = |vars: &[Var]| {
            let mut images: Vec<Term> = Vec::new();
            for &v in vars {
                let img = self.subst.apply_term_deep(Term::Var(v));
                if img.is_const() || images.contains(&img) {
                    return false;
                }
                images.push(img);
            }
            true
        };
        one_to_one(vars1) && one_to_one(vars2)
    }

    /// Apply the unifier to a query.
    pub fn apply(&self, q: &Query) -> Query {
        let deep: Subst = q
            .vars()
            .into_iter()
            .map(|v| (v, self.subst.apply_term_deep(Term::Var(v))))
            .collect();
        q.apply(&deep)
    }

    /// The equalities this unifier imposes, as predicates — used to test
    /// whether a unification is consistent with the arithmetic predicates of
    /// the participating queries.
    pub fn equalities(&self) -> Vec<Pred> {
        self.subst
            .iter()
            .map(|(v, _)| {
                let img = self.subst.apply_term_deep(Term::Var(v));
                Pred::eq(Term::Var(v), img)
            })
            .collect()
    }
}

/// Compute the MGU of two atoms, or `None` if they do not unify. The atoms
/// must come from queries with disjoint variables (callers rename apart).
pub fn mgu_atoms(g1: &Atom, g2: &Atom) -> Option<Mgu> {
    if g1.rel != g2.rel || g1.negated != g2.negated || g1.args.len() != g2.args.len() {
        return None;
    }
    // Union-find over terms.
    let mut parent: HashMap<Term, Term> = HashMap::new();
    fn find(parent: &mut HashMap<Term, Term>, t: Term) -> Term {
        let p = *parent.entry(t).or_insert(t);
        if p == t {
            return t;
        }
        let r = find(parent, p);
        parent.insert(t, r);
        r
    }
    fn union(parent: &mut HashMap<Term, Term>, a: Term, b: Term) -> bool {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra == rb {
            return true;
        }
        match (ra, rb) {
            (Term::Const(x), Term::Const(y)) => x == y,
            // Keep constants as representatives.
            (Term::Const(_), Term::Var(_)) => {
                parent.insert(rb, ra);
                true
            }
            (Term::Var(_), Term::Const(_)) => {
                parent.insert(ra, rb);
                true
            }
            // Prefer the smaller variable as representative, for determinism.
            (Term::Var(a_), Term::Var(b_)) => {
                if a_ <= b_ {
                    parent.insert(rb, ra);
                } else {
                    parent.insert(ra, rb);
                }
                true
            }
        }
    }
    for (a, b) in g1.args.iter().zip(&g2.args) {
        if !union(&mut parent, *a, *b) {
            return None;
        }
    }
    // Build the substitution: every variable maps to its representative.
    let mut subst = Subst::new();
    let keys: Vec<Term> = parent.keys().copied().collect();
    for t in keys {
        if let Term::Var(v) = t {
            let rep = find(&mut parent, t);
            if rep != t {
                subst.bind(v, rep);
            }
        }
    }
    Some(Mgu { subst })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::term::Value;
    use crate::vocab::Vocabulary;

    fn q(voc: &mut Vocabulary, s: &str) -> Query {
        parse_query(voc, s).unwrap()
    }

    #[test]
    fn paper_example_nonstrict_unifier() {
        // §2.1: q = R(x,x,y,a,z), q' = R(u,v,v,w,w); the MGU equates
        // x=y=u=v and w=z=a — not strict.
        let mut voc = Vocabulary::new();
        let q1 = q(&mut voc, "R(x,x,y,'a',z)");
        let q2 = q(&mut voc, "R(u,v,v,w,w)");
        let q2r = q2.rename_apart(10);
        let mgu = mgu_atoms(&q1.atoms[0], &q2r.atoms[0]).unwrap();
        assert!(!mgu.is_strict(&q1.vars(), &q2r.vars()));
        let unified = mgu.apply(&q1);
        // θ(q) = R(x',x',x',a,a)
        let a = voc.named_const("a");
        assert_eq!(unified.atoms[0].args[3], Term::Const(a));
        assert_eq!(unified.atoms[0].args[4], Term::Const(a));
        assert_eq!(unified.atoms[0].args[0], unified.atoms[0].args[1]);
        assert_eq!(unified.atoms[0].args[1], unified.atoms[0].args[2]);
    }

    #[test]
    fn strict_unifier_of_distinct_vars() {
        let mut voc = Vocabulary::new();
        let q1 = q(&mut voc, "S(x,y)");
        let q2 = q(&mut voc, "S(u,v)").rename_apart(10);
        let mgu = mgu_atoms(&q1.atoms[0], &q2.atoms[0]).unwrap();
        assert!(mgu.is_strict(&q1.vars(), &q2.vars()));
    }

    #[test]
    fn constant_clash_fails() {
        let mut voc = Vocabulary::new();
        let q1 = q(&mut voc, "R('a',x)");
        let q2 = q(&mut voc, "R('b',y)").rename_apart(10);
        assert!(mgu_atoms(&q1.atoms[0], &q2.atoms[0]).is_none());
    }

    #[test]
    fn different_relations_do_not_unify() {
        let mut voc = Vocabulary::new();
        let q1 = q(&mut voc, "R(x)");
        let q2 = q(&mut voc, "S(y)");
        assert!(mgu_atoms(&q1.atoms[0], &q2.atoms[0]).is_none());
    }

    #[test]
    fn var_const_binding() {
        let mut voc = Vocabulary::new();
        let q1 = q(&mut voc, "R(x,3)");
        let q2 = q(&mut voc, "R(5,y)").rename_apart(10);
        let mgu = mgu_atoms(&q1.atoms[0], &q2.atoms[0]).unwrap();
        let x = q1.vars()[0];
        assert_eq!(
            mgu.subst.apply_term_deep(Term::Var(x)),
            Term::Const(Value(5))
        );
        assert!(!mgu.is_strict(&q1.vars(), &q2.vars()));
    }
}
