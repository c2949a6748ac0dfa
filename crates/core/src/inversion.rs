//! Inversions (§2.2): unification paths from a `❂` pair to a `❁` pair.
//!
//! Fix a strict coverage with factors `F`. The unification graph `G` has
//! nodes `(f, x, y)` with `x, y ∈ Vars(f)` and an edge between `(f, x, y)`
//! and `(f', x', y')` whenever two sub-goals `g ∈ f`, `g' ∈ f'` (the factors
//! renamed apart) admit a consistent MGU `θ` with `θ(x) = θ(x')` and
//! `θ(y) = θ(y')`. An *inversion* is a unification path from a node with
//! `x ❂ y` to one with `x' ❁ y'`; by the paper's observation it suffices to
//! search paths whose interior nodes satisfy `u ≡ v`.

use crate::coverage::Coverage;
use crate::hierarchy::{var_rel, VarRel};
use cq::{mgu_atoms, Pred, PredTheory, Query, Term, Var};
use std::collections::{HashMap, HashSet, VecDeque};

/// One node on an inversion path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InversionNode {
    /// Index into [`Coverage::factors`].
    pub factor: usize,
    pub x: Var,
    pub y: Var,
    /// The relation of `x` to `y` inside the factor.
    pub rel: VarRel,
}

/// A witness that a coverage has an inversion: the full unification path.
/// `path.len() - 2` matching `≡`-links corresponds to the `k` of the `H_k`
/// hardness family used in the reduction (§4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InversionWitness {
    pub path: Vec<InversionNode>,
}

impl InversionWitness {
    /// The `k` such that the hardness reduction goes through `H_k`: the
    /// number of interior `≡` nodes.
    pub fn chain_length(&self) -> usize {
        self.path.len().saturating_sub(2)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct NodeId {
    factor: usize,
    x: Var,
    y: Var,
}

/// Search the unification graph of `cov` for an inversion.
pub fn find_inversion(cov: &Coverage) -> Option<InversionWitness> {
    // Enumerate nodes: ordered pairs of distinct variables per factor,
    // keeping only comparable pairs (❂ / ≡ / ❁) — disjoint or crossing
    // pairs can never sit on an inversion path.
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut label: HashMap<NodeId, VarRel> = HashMap::new();
    for (fi, f) in cov.factors.iter().enumerate() {
        let vars = f.vars();
        for &x in &vars {
            for &y in &vars {
                if x == y {
                    continue;
                }
                let r = var_rel(f, x, y);
                if matches!(r, VarRel::Above | VarRel::Equivalent | VarRel::Below) {
                    let id = NodeId { factor: fi, x, y };
                    nodes.push(id);
                    label.insert(id, r);
                }
            }
        }
    }

    // Edges via consistent MGUs of sub-goal pairs between renamed-apart
    // factor copies.
    let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (fi, f) in cov.factors.iter().enumerate() {
        for (gi, g) in cov.factors.iter().enumerate() {
            let offset = f.max_var().map_or(0, |v| v.0 + 1);
            let gr = g.rename_apart(offset);
            for a1 in &f.atoms {
                for a2 in &gr.atoms {
                    let Some(mgu) = mgu_atoms(a1, a2) else {
                        continue;
                    };
                    // Consistency with both factors' predicates.
                    let mut preds: Vec<Pred> = f.preds.clone();
                    preds.extend(gr.preds.iter().copied());
                    preds.extend(mgu.equalities());
                    if !PredTheory::satisfiable(&preds) {
                        continue;
                    }
                    // Connect every θ-matched pair of node orientations.
                    let fvars = f.vars();
                    let gvars = g.vars();
                    for &x in &fvars {
                        for &y in &fvars {
                            if x == y {
                                continue;
                            }
                            let ix = mgu.subst.apply_term_deep(Term::Var(x));
                            let iy = mgu.subst.apply_term_deep(Term::Var(y));
                            for &x2 in &gvars {
                                for &y2 in &gvars {
                                    if x2 == y2 {
                                        continue;
                                    }
                                    let jx =
                                        mgu.subst.apply_term_deep(Term::Var(Var(x2.0 + offset)));
                                    let jy =
                                        mgu.subst.apply_term_deep(Term::Var(Var(y2.0 + offset)));
                                    if ix == jx && iy == jy {
                                        let n1 = NodeId { factor: fi, x, y };
                                        let n2 = NodeId {
                                            factor: gi,
                                            x: x2,
                                            y: y2,
                                        };
                                        if label.contains_key(&n1) && label.contains_key(&n2) {
                                            adj.entry(n1).or_default().push(n2);
                                            adj.entry(n2).or_default().push(n1);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // BFS from every ❂ node through ≡ nodes to a ❁ node.
    let starts: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| label[n] == VarRel::Above)
        .collect();
    let mut visited: HashSet<NodeId> = HashSet::new();
    let mut pred: HashMap<NodeId, NodeId> = HashMap::new();
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for s in starts {
        if visited.insert(s) {
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        for &m in adj.get(&n).into_iter().flatten() {
            if visited.contains(&m) {
                continue;
            }
            match label[&m] {
                VarRel::Below => {
                    // Found: reconstruct the path.
                    let mut path = vec![m, n];
                    let mut cur = n;
                    while let Some(&p) = pred.get(&cur) {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    let witness = InversionWitness {
                        path: path
                            .into_iter()
                            .map(|id| InversionNode {
                                factor: id.factor,
                                x: id.x,
                                y: id.y,
                                rel: label[&id],
                            })
                            .collect(),
                    };
                    return Some(witness);
                }
                VarRel::Equivalent => {
                    visited.insert(m);
                    pred.insert(m, n);
                    queue.push_back(m);
                }
                _ => {}
            }
        }
    }
    None
}

/// Convenience: does the query (via its lazily refined strict coverage)
/// have an inversion? `Err` propagates coverage-construction failures.
pub fn query_has_inversion(q: &Query) -> Result<bool, crate::coverage::CoverageError> {
    let cov = crate::coverage::strict_coverage(q)?;
    Ok(find_inversion(&cov).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::strict_coverage;
    use cq::{parse_query, Vocabulary};

    fn inversion(s: &str) -> Option<InversionWitness> {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, s).unwrap();
        let cov = strict_coverage(&q).unwrap();
        find_inversion(&cov)
    }

    #[test]
    fn h0_has_inversion() {
        // H_0 = R(x), S(x,y), S(u,v), T(v) — Example 2.8(a) with k = 0.
        let w = inversion("R(x), S(x,y), S(u,v), T(v)").expect("H_0 has an inversion");
        assert_eq!(w.path.first().unwrap().rel, VarRel::Above);
        assert_eq!(w.path.last().unwrap().rel, VarRel::Below);
        assert_eq!(w.chain_length(), 0);
    }

    #[test]
    fn h1_has_longer_inversion() {
        // H_1 = R(x),S0(x,y), S0(u1,v1),S1(u1,v1), S1(u,v),T(v).
        let w = inversion("R(x), S0(x,y), S0(u1,v1), S1(u1,v1), S1(u,v), T(v)")
            .expect("H_1 has an inversion");
        assert_eq!(w.chain_length(), 1);
    }

    #[test]
    fn marked_ring_has_inversion() {
        // Example 2.8(b): R(x), S(x,y), S(y,x).
        assert!(inversion("R(x), S(x,y), S(y,x)").is_some());
    }

    #[test]
    fn two_path_has_inversion() {
        // q_2path = R(x,y), R(y,z) — Fig. 2 row 1 (inversion against a
        // renamed copy of itself: y ❂ z vs x' ❁ y').
        assert!(inversion("R(x,y), R(y,z)").is_some());
    }

    #[test]
    fn open_marked_ring_has_inversion() {
        // Fig. 2 row 2: path goes twice through each factor.
        assert!(inversion("R(x), S1(x,y), S1(u1,v1), S2(u1,v1), S2(u2,v2), S2(v2,u2)").is_some());
    }

    #[test]
    fn hierarchical_no_self_join_is_inversion_free() {
        assert!(inversion("R(x), S(x,y)").is_none());
        assert!(inversion("R(x), S(x,y), T(u,v), U(u)").is_none());
    }

    #[test]
    fn symmetric_pair_is_inversion_free() {
        // R(x,y), R(y,x): x ≡ y, so there is no ❂ node at all.
        assert!(inversion("R(x,y), R(y,x)").is_none());
    }

    #[test]
    fn figure1_row1_strictness_breaks_inversion() {
        // Fig. 1 row 1: R(x), S1(x,y,y) | S1(u,v,w), S2(u,v,w) |
        // S2(x2,x2,y2), T(y2). The trivial coverage would show a spurious
        // inversion; strict refinement interrupts the unification chain.
        assert!(inversion("R(x), S1(x,y,y), S1(u,v,w), S2(u,v,w), S2(x2,x2,y2), T(y2)").is_none());
    }

    #[test]
    fn figure1_row2_minimization_removes_inversion() {
        // Fig. 1 row 2.
        assert!(
            inversion("R(x1,x2), S(x1,x2,y,y), S(x1,x1,x2,x2), S(x3,x3,y3,y3), T(y3)").is_none()
        );
    }

    #[test]
    fn figure1_row3_redundancy_removes_inversion() {
        // Fig. 1 row 3.
        assert!(
            inversion("R(x1,x2), S(x1,x2,y,y), S(x1,x2,x1,x2), S(x3,x3,y31,y32), T(y31,y32)")
                .is_none()
        );
    }

    #[test]
    fn footnote_queries_are_inversion_free() {
        // Footnote 1 (atoms share variables): R(x,y,y,x), R(x,y,x,z) and
        // R(y,x,y,x,y), R(y,x,y,z,x), R(x,x,y,z,u) are PTIME (no inversion).
        assert!(inversion("R(x,y,y,x), R(x,y,x,z)").is_none());
        assert!(inversion("R(y,x,y,x,y), R(y,x,y,z,x), R(x,x,y,z,u)").is_none());
    }

    #[test]
    fn footnote_hard_variant_divergence_is_stable() {
        // Footnote 1 claims R(y,x,y,x,y), R(y,y,y,z,x), R(x,x,y,z,u) is
        // #P-hard, without proof. Our strict-coverage analysis finds *no*
        // inversion: the only non-identity unification (g2 against a copy
        // of g3) forces x = y inside one factor, so after the x<y / x=y /
        // x>y refinement every surviving unification is an identity
        // pattern, and the x=y cover minimizes to R(x,x,x,x,x). The safe
        // evaluator built on this coverage agrees with brute-force world
        // enumeration to machine precision on random instances
        // (`safe_eval::tests::footnote_divergent_query_matches_brute_force`),
        // so we record the inversion-free outcome as intended behaviour
        // rather than asserting the footnote.
        assert!(inversion("R(y,x,y,x,y), R(y,y,y,z,x), R(x,x,y,z,u)").is_none());
    }
}
