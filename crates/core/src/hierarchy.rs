//! Hierarchical queries (Definition 1.2) and the variable hierarchy.
//!
//! For a conjunctive query `q` and variables `x, y`, let `sg(x)` be the set
//! of sub-goals containing `x`. The query is *hierarchical* when for any two
//! variables the sets `sg(x)`, `sg(y)` are disjoint or one contains the
//! other. Non-hierarchical queries are #P-hard (Theorem 1.4); everything
//! else in the dichotomy analysis assumes hierarchical queries, so this
//! module is the entry gate.

use cq::{Query, Var};
use std::collections::BTreeSet;

/// The relation between two variables of a query under the `⊑` preorder
/// (`x ⊑ y  ⇔  sg(x) ⊆ sg(y)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarRel {
    /// `sg(x) ∩ sg(y) = ∅`.
    Disjoint,
    /// `x ≡ y`: `sg(x) = sg(y)`.
    Equivalent,
    /// `x ❁ y`: `sg(x) ⊊ sg(y)`.
    Below,
    /// `x ❂ y`: `sg(x) ⊋ sg(y)`.
    Above,
    /// Overlapping but incomparable — the witness of non-hierarchicality.
    Crossing,
}

/// Compare two variables of `q`.
pub fn var_rel(q: &Query, x: Var, y: Var) -> VarRel {
    let sx = q.sg(x);
    let sy = q.sg(y);
    if sx.is_disjoint(&sy) {
        VarRel::Disjoint
    } else if sx == sy {
        VarRel::Equivalent
    } else if sx.is_subset(&sy) {
        VarRel::Below
    } else if sy.is_subset(&sx) {
        VarRel::Above
    } else {
        VarRel::Crossing
    }
}

/// A pair of variables witnessing non-hierarchicality, together with the
/// three sub-goal indices used by the Theorem 1.4 hardness reduction
/// (`x ∈ v̄1, x ∈ v̄2, x ∉ v̄3` and `y ∉ v̄1, y ∈ v̄2, y ∈ v̄3`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonHierarchicalWitness {
    pub x: Var,
    pub y: Var,
    /// Sub-goal with `x` but not `y`.
    pub only_x: usize,
    /// Sub-goal with both.
    pub both: usize,
    /// Sub-goal with `y` but not `x`.
    pub only_y: usize,
}

/// Check Definition 1.2. Negated sub-goals count like positive ones
/// (Definition 3.9). Returns the witness on failure.
pub fn check_hierarchical(q: &Query) -> Result<(), NonHierarchicalWitness> {
    let vars = q.vars();
    for (i, &x) in vars.iter().enumerate() {
        for &y in &vars[i + 1..] {
            if var_rel(q, x, y) == VarRel::Crossing {
                let sx = q.sg(x);
                let sy = q.sg(y);
                let only_x = *sx.difference(&sy).next().expect("crossing");
                let both = *sx.intersection(&sy).next().expect("crossing");
                let only_y = *sy.difference(&sx).next().expect("crossing");
                return Err(NonHierarchicalWitness {
                    x,
                    y,
                    only_x,
                    both,
                    only_y,
                });
            }
        }
    }
    Ok(())
}

/// Is `q` hierarchical?
pub fn is_hierarchical(q: &Query) -> bool {
    check_hierarchical(q).is_ok()
}

/// The *maximal* variables of a query: `x` such that for all `y`,
/// `y ⊒ x` implies `x ⊒ y` (§1.1). For a connected hierarchical query the
/// maximal variables occur in every sub-goal.
pub fn maximal_vars(q: &Query) -> Vec<Var> {
    let vars = q.vars();
    vars.iter()
        .copied()
        .filter(|&x| {
            vars.iter().all(|&y| {
                let r = var_rel(q, x, y);
                // y ⊒ x means r ∈ {Below, Equivalent} from x's viewpoint.
                !(r == VarRel::Below)
            })
        })
        .collect()
}

/// The root variables of a connected hierarchical query: maximal variables,
/// verified to occur in every sub-goal. Returns `None` when the query is
/// not connected-hierarchical in that sense (e.g. has several components).
pub fn root_candidates(q: &Query) -> Option<Vec<Var>> {
    let n = q.atoms.len();
    let all: BTreeSet<usize> = (0..n).collect();
    let roots: Vec<Var> = maximal_vars(q)
        .into_iter()
        .filter(|&v| q.sg(v) == all)
        .collect();
    if roots.is_empty() {
        None
    } else {
        Some(roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Vocabulary};

    fn q(s: &str) -> Query {
        let mut voc = Vocabulary::new();
        parse_query(&mut voc, s).unwrap()
    }

    #[test]
    fn paper_examples_hierarchical() {
        // q_hier = R(x), S(x,y) is hierarchical (§1.1).
        assert!(is_hierarchical(&q("R(x), S(x,y)")));
        // q_non-h = R(x), S(x,y), T(y) is not.
        assert!(!is_hierarchical(&q("R(x), S(x,y), T(y)")));
    }

    #[test]
    fn non_hierarchical_witness_shape() {
        let query = q("R(x), S(x,y), T(y)");
        let w = check_hierarchical(&query).unwrap_err();
        // only_x = R, both = S, only_y = T.
        assert_eq!(w.only_x, 0);
        assert_eq!(w.both, 1);
        assert_eq!(w.only_y, 2);
    }

    #[test]
    fn h0_is_hierarchical() {
        // H_0 = R(x), S(x,y), S(x',y'), T(y') — hierarchical but #P-hard.
        assert!(is_hierarchical(&q("R(x), S(x,y), S(u,v), T(v)")));
    }

    #[test]
    fn var_rel_cases() {
        let query = q("R(x), S(x,y)");
        let vars = query.vars();
        let (x, y) = (vars[0], vars[1]);
        assert_eq!(var_rel(&query, x, y), VarRel::Above);
        assert_eq!(var_rel(&query, y, x), VarRel::Below);
        assert_eq!(var_rel(&query, x, x), VarRel::Equivalent);
        let dis = q("R(x), T(z)");
        let dvars = dis.vars();
        assert_eq!(var_rel(&dis, dvars[0], dvars[1]), VarRel::Disjoint);
    }

    #[test]
    fn maximal_and_roots() {
        let query = q("R(x), S(x,y)");
        let vars = query.vars();
        assert_eq!(maximal_vars(&query), vec![vars[0]]);
        assert_eq!(root_candidates(&query), Some(vec![vars[0]]));
        // R(x,y), S(x,y): both maximal, both in all sub-goals.
        let q2 = q("R(x,y), S(x,y)");
        assert_eq!(root_candidates(&q2).unwrap().len(), 2);
        // Disconnected: no variable in every sub-goal.
        let q3 = q("R(x), T(z)");
        assert!(root_candidates(&q3).is_none());
    }

    #[test]
    fn negated_subgoals_count_for_hierarchy() {
        assert!(!is_hierarchical(&q("R(x), S(x,y), not T(y)")));
    }
}
