//! Homomorphisms between conjunctive queries, containment, equivalence.
//!
//! A homomorphism `h : q → q'` maps the variables of `q` to terms of `q'`
//! such that every sub-goal of `q` is mapped onto a sub-goal of `q'` (same
//! relation, same polarity) and every arithmetic predicate of `q` is mapped
//! to a predicate *entailed* by `q'`'s predicate theory. By the classical
//! homomorphism theorem (extended soundly to queries with restricted
//! arithmetic predicates), `h : q2 → q1` implies `q1 ⊨ q2`.

use crate::atom::Atom;
use crate::predicate::PredTheory;
use crate::query::Query;
use crate::subst::Subst;
use crate::term::{Term, Var};

/// Find a homomorphism from `from` into `to`, if any.
pub fn find_homomorphism(from: &Query, to: &Query) -> Option<Subst> {
    find_homomorphism_with(from, to, &Subst::new())
}

/// Find a homomorphism extending the partial assignment `fixed`.
fn find_homomorphism_with(from: &Query, to: &Query, fixed: &Subst) -> Option<Subst> {
    let theory = to.theory()?;
    let mut assignment = fixed.clone();
    if search(from, to, 0, &mut assignment, &theory) {
        Some(assignment)
    } else {
        None
    }
}

/// Enumerate *all* homomorphisms from `from` into `to` (used by the eraser
/// search and by decisiveness checks in the hardness reductions).
pub fn all_homomorphisms(from: &Query, to: &Query) -> Vec<Subst> {
    let Some(theory) = to.theory() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut assignment = Subst::new();
    collect(from, to, 0, &mut assignment, &theory, &mut out);
    out
}

fn atom_candidates<'t>(atom: &Atom, to: &'t Query) -> impl Iterator<Item = &'t Atom> {
    let rel = atom.rel;
    let negated = atom.negated;
    to.atoms
        .iter()
        .filter(move |b| b.rel == rel && b.negated == negated)
}

/// Try to extend `assignment` so that `atom` maps onto `target`.
/// Returns the bindings added (for backtracking) or `None` on clash.
fn try_map(atom: &Atom, target: &Atom, assignment: &mut Subst) -> Option<Vec<Var>> {
    let mut added = Vec::new();
    for (s, t) in atom.args.iter().zip(&target.args) {
        match *s {
            Term::Const(c) => {
                if *t != Term::Const(c) {
                    undo(assignment, &added);
                    return None;
                }
            }
            Term::Var(v) => match assignment.get(v) {
                Some(bound) => {
                    if bound != *t {
                        undo(assignment, &added);
                        return None;
                    }
                }
                None => {
                    assignment.bind(v, *t);
                    added.push(v);
                }
            },
        }
    }
    Some(added)
}

fn undo(assignment: &mut Subst, added: &[Var]) {
    let kept: Subst = assignment
        .iter()
        .filter(|(v, _)| !added.contains(v))
        .collect();
    *assignment = kept;
}

fn preds_ok(from: &Query, assignment: &Subst, theory: &PredTheory) -> bool {
    from.preds
        .iter()
        .all(|p| theory.entails(&assignment.apply_pred(p)))
}

fn search(from: &Query, to: &Query, i: usize, assignment: &mut Subst, theory: &PredTheory) -> bool {
    if i == from.atoms.len() {
        return preds_ok(from, assignment, theory);
    }
    let atom = from.atoms[i].clone();
    let candidates: Vec<Atom> = atom_candidates(&atom, to).cloned().collect();
    for target in candidates {
        if let Some(added) = try_map(&atom, &target, assignment) {
            if search(from, to, i + 1, assignment, theory) {
                return true;
            }
            undo(assignment, &added);
        }
    }
    false
}

fn collect(
    from: &Query,
    to: &Query,
    i: usize,
    assignment: &mut Subst,
    theory: &PredTheory,
    out: &mut Vec<Subst>,
) {
    if i == from.atoms.len() {
        if preds_ok(from, assignment, theory) {
            out.push(assignment.clone());
        }
        return;
    }
    let atom = from.atoms[i].clone();
    let candidates: Vec<Atom> = atom_candidates(&atom, to).cloned().collect();
    for target in candidates {
        if let Some(added) = try_map(&atom, &target, assignment) {
            collect(from, to, i + 1, assignment, theory, out);
            undo(assignment, &added);
        }
    }
}

/// Sound containment test: `q1 ⊨ q2` (every structure satisfying `q1`
/// satisfies `q2`) whenever a homomorphism `q2 → q1` exists. For pure
/// conjunctive queries this is also complete; with arithmetic predicates it
/// is sound but may miss some containments, which the analysis tolerates
/// (it only ever *acts* on positive answers).
pub fn contains(q1: &Query, q2: &Query) -> bool {
    find_homomorphism(q2, q1).is_some()
}

/// Sound equivalence: homomorphisms both ways.
pub fn equivalent(q1: &Query, q2: &Query) -> bool {
    contains(q1, q2) && contains(q2, q1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::vocab::Vocabulary;

    fn q(voc: &mut Vocabulary, s: &str) -> Query {
        parse_query(voc, s).unwrap()
    }

    #[test]
    fn identity_homomorphism_exists() {
        let mut voc = Vocabulary::new();
        let a = q(&mut voc, "R(x,y), S(y)");
        assert!(find_homomorphism(&a, &a).is_some());
    }

    #[test]
    fn path2_maps_into_triangle() {
        let mut voc = Vocabulary::new();
        let path = q(&mut voc, "E(x,y), E(y,z)");
        let tri = q(&mut voc, "E(a,b), E(b,c), E(c,a)");
        assert!(find_homomorphism(&path, &tri).is_some());
        // But not the other way: the triangle needs a cycle.
        assert!(find_homomorphism(&tri, &path).is_none());
    }

    #[test]
    fn constants_must_match() {
        let mut voc = Vocabulary::new();
        let ga = q(&mut voc, "R('a')");
        let gb = q(&mut voc, "R('b')");
        let gv = q(&mut voc, "R(x)");
        assert!(find_homomorphism(&ga, &gb).is_none());
        assert!(find_homomorphism(&gv, &ga).is_some());
        assert!(find_homomorphism(&ga, &gv).is_none());
    }

    #[test]
    fn predicates_block_collapsing_maps() {
        let mut voc = Vocabulary::new();
        let from = q(&mut voc, "R(x,y), x != y");
        let to_eq = q(&mut voc, "R(z,z)");
        let to_ne = q(&mut voc, "R(u,v), u != v");
        assert!(find_homomorphism(&from, &to_eq).is_none());
        assert!(find_homomorphism(&from, &to_ne).is_some());
    }

    #[test]
    fn predicates_entailed_transitively() {
        let mut voc = Vocabulary::new();
        let from = q(&mut voc, "R(x,z), x < z");
        let to = q(&mut voc, "R(u,w), u < v, v < w");
        // Hmm: `to` must contain R(u,w) for the atom to map.
        assert!(find_homomorphism(&from, &to).is_some());
    }

    #[test]
    fn containment_and_equivalence() {
        let mut voc = Vocabulary::new();
        let q1 = q(&mut voc, "R(x,y), R(y,z)");
        let q2 = q(&mut voc, "R(u,v)");
        // Any world with a 2-path has an edge.
        assert!(contains(&q1, &q2));
        assert!(!contains(&q2, &q1));
        let q3 = q(&mut voc, "R(a,b), R(b,c), R(a2,b2)");
        assert!(equivalent(&q1, &q3));
    }

    #[test]
    fn negation_polarity_respected() {
        let mut voc = Vocabulary::new();
        let pos = q(&mut voc, "R(x)");
        let neg = q(&mut voc, "not R(x)");
        assert!(find_homomorphism(&pos, &neg).is_none());
        assert!(find_homomorphism(&neg, &neg).is_some());
    }

    #[test]
    fn all_homomorphisms_counts_valuations() {
        let mut voc = Vocabulary::new();
        let edge = q(&mut voc, "E(x,y)");
        let two = q(&mut voc, "E(a,b), E(c,d)");
        assert_eq!(all_homomorphisms(&edge, &two).len(), 2);
    }

    #[test]
    fn fixed_prefix_restricts_search() {
        let mut voc = Vocabulary::new();
        let edge = q(&mut voc, "E(x,y)");
        let two = q(&mut voc, "E(u,v), E(v,w)");
        let x = edge.vars()[0];
        let w_target = two.vars()[1]; // v
        let fixed = Subst::singleton(x, w_target);
        let h = find_homomorphism_with(&edge, &two, &fixed).unwrap();
        assert_eq!(h.get(x), Some(Term::Var(w_target)));
    }
}
