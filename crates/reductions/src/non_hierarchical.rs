//! The Theorem B.5 reduction: from bipartite-2DNF probability to the
//! probability of any minimal non-hierarchical pattern.
//!
//! Given a minimal conjunctive pattern `P = R1(v̄1), R2(v̄2), R3(v̄3)` with
//! two variables `x, y` such that `x ∈ v̄1, x ∈ v̄2, x ∉ v̄3` and `y ∉ v̄1,
//! y ∈ v̄2, y ∈ v̄3` (exactly the witness produced by the hierarchy check),
//! build the structure `A`:
//!
//! * `R1^A = { v̄1[x_i/x] }` with probability `P(x_i)`,
//! * `R2^A = { v̄2[x_{i_h}/x, y_{j_h}/y] }` per clause, probability 1,
//! * `R3^A = { v̄3[y_j/y] }` with probability `P(y_j)`,
//!
//! all other variables pinned to fixed fresh domain values. Then
//! `p(P on A) = P(Φ)`. Proposition B.3's `P_3`-on-4-partite-graphs and
//! triangle-on-triangled-graphs reductions are the instances with
//! `P = E(u,x),E(x,y),E(y,v)` and `P = E(z,x),E(x,y),E(y,z)`.

use crate::two_dnf::Bipartite2Dnf;
use cq::{Atom, Query, Term, Value, Var};
use pdb::ProbDb;

/// A reduction instance: the pattern and the constructed structure.
#[derive(Clone, Debug)]
pub struct PatternReduction {
    pub query: Query,
    pub db: ProbDb,
}

/// Build the Theorem B.5 structure for `pattern` (a three-atom query),
/// distinguished variables `x`, `y`, formula `phi`, and per-variable
/// marginals.
///
/// # Panics
/// If the pattern does not have exactly three atoms with the required
/// variable signature, or marginal lengths disagree with `phi`.
pub fn build_pattern_reduction(
    pattern: &Query,
    x: Var,
    y: Var,
    phi: &Bipartite2Dnf,
    x_probs: &[f64],
    y_probs: &[f64],
    voc: &cq::Vocabulary,
) -> PatternReduction {
    assert_eq!(pattern.atoms.len(), 3, "pattern must have three sub-goals");
    assert_eq!(x_probs.len(), phi.m);
    assert_eq!(y_probs.len(), phi.n);
    let (a1, a2, a3) = (&pattern.atoms[0], &pattern.atoms[1], &pattern.atoms[2]);
    assert!(
        a1.contains_var(x) && !a1.contains_var(y),
        "first sub-goal must contain x but not y"
    );
    assert!(
        a2.contains_var(x) && a2.contains_var(y),
        "second sub-goal must contain both x and y"
    );
    assert!(
        a3.contains_var(y) && !a3.contains_var(x),
        "third sub-goal must contain y but not x"
    );

    // Domain layout: x_i ↦ i, y_j ↦ m + j, other variables pinned past that.
    let m = phi.m as u64;
    let n = phi.n as u64;
    let x_val = |i: usize| Value(i as u64);
    let y_val = |j: usize| Value(m + j as u64);
    let mut other_vals: Vec<(Var, Value)> = Vec::new();
    let mut next = m + n;
    for v in pattern.vars() {
        if v != x && v != y {
            other_vals.push((v, Value(next)));
            next += 1;
        }
    }
    let resolve = |t: Term, xv: Option<Value>, yv: Option<Value>| -> Value {
        match t {
            Term::Const(c) => c,
            Term::Var(v) if v == x => xv.expect("x bound"),
            Term::Var(v) if v == y => yv.expect("y bound"),
            Term::Var(v) => {
                other_vals
                    .iter()
                    .find(|(w, _)| *w == v)
                    .expect("pinned variable")
                    .1
            }
        }
    };
    let ground = |atom: &Atom, xv: Option<Value>, yv: Option<Value>| -> Vec<Value> {
        atom.args.iter().map(|&t| resolve(t, xv, yv)).collect()
    };

    let mut db = ProbDb::new(voc.clone());
    for (i, &p) in x_probs.iter().enumerate() {
        db.insert(a1.rel, ground(a1, Some(x_val(i)), None), p);
    }
    for &(i, j) in &phi.clauses {
        db.insert(a2.rel, ground(a2, Some(x_val(i)), Some(y_val(j))), 1.0);
    }
    for (j, &p) in y_probs.iter().enumerate() {
        db.insert(a3.rel, ground(a3, None, Some(y_val(j))), p);
    }
    PatternReduction {
        query: pattern.clone(),
        db,
    }
}

/// End-to-end: compute `P(Φ)` through the pattern reduction, evaluating
/// the (#P-hard) pattern query by exact lineage compilation. With all
/// marginals `1/2`, multiplying by `2^{m+n}` counts models — used by the
/// round-trip tests and experiment E7.
pub fn count_via_pattern(
    pattern: &Query,
    x: Var,
    y: Var,
    phi: &Bipartite2Dnf,
    voc: &cq::Vocabulary,
) -> u64 {
    let x_probs = vec![0.5; phi.m];
    let y_probs = vec![0.5; phi.n];
    let red = build_pattern_reduction(pattern, x, y, phi, &x_probs, &y_probs, voc);
    let dnf = pdb::lineage_of(&red.db, &red.query);
    let p = lineage::exact_probability(&dnf, red.db.probs());
    (p * (1u64 << phi.num_vars()) as f64).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Vocabulary};
    use pdb::brute_force_probability;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn phi() -> Bipartite2Dnf {
        Bipartite2Dnf::new(2, 2, vec![(0, 0), (1, 0), (1, 1)])
    }

    fn xy(q: &Query) -> (Var, Var) {
        // x: in atoms 0,1; y: in atoms 1,2.
        let x = q.atoms[0]
            .vars()
            .into_iter()
            .find(|&v| q.atoms[1].contains_var(v))
            .unwrap();
        let y = q.atoms[2]
            .vars()
            .into_iter()
            .find(|&v| q.atoms[1].contains_var(v))
            .unwrap();
        (x, y)
    }

    #[test]
    fn q_non_h_reduction_matches_formula_probability() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), T(y)").unwrap();
        let (x, y) = xy(&q);
        let f = phi();
        let xp = [0.3, 0.8];
        let yp = [0.6, 0.4];
        let red = build_pattern_reduction(&q, x, y, &f, &xp, &yp, &voc);
        let p_query = brute_force_probability(&red.db, &red.query);
        let p_phi = f.probability(&xp, &yp);
        assert!(
            (p_query - p_phi).abs() < 1e-12,
            "query {p_query} vs formula {p_phi}"
        );
    }

    #[test]
    fn q_non_h_counting_round_trip() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), T(y)").unwrap();
        let (x, y) = xy(&q);
        let f = phi();
        assert_eq!(count_via_pattern(&q, x, y, &f, &voc), f.count_models());
    }

    #[test]
    fn p3_four_partite_reduction() {
        // Proposition B.3: P_3 = E(u,x), E(x,y), E(y,v) on 4-partite graphs.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "E(u,x), E(x,y), E(y,v)").unwrap();
        let (x, y) = xy(&q);
        let f = phi();
        let xp = [0.25, 0.75];
        let yp = [0.5, 0.9];
        let red = build_pattern_reduction(&q, x, y, &f, &xp, &yp, &voc);
        let p_query = brute_force_probability(&red.db, &red.query);
        let p_phi = f.probability(&xp, &yp);
        assert!((p_query - p_phi).abs() < 1e-12);
    }

    #[test]
    fn triangle_reduction() {
        // Proposition B.3: the triangle T = E(z,x), E(x,y), E(y,z) on
        // triangled graphs (u and v merged into a single node z).
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "E(z,x), E(x,y), E(y,z)").unwrap();
        let (x, y) = xy(&q);
        let f = phi();
        let xp = [0.35, 0.65];
        let yp = [0.45, 0.55];
        let red = build_pattern_reduction(&q, x, y, &f, &xp, &yp, &voc);
        let p_query = brute_force_probability(&red.db, &red.query);
        let p_phi = f.probability(&xp, &yp);
        assert!((p_query - p_phi).abs() < 1e-12);
    }

    #[test]
    fn random_formulas_round_trip() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), T(y)").unwrap();
        let (x, y) = xy(&q);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let f = Bipartite2Dnf::random(3, 3, 4, &mut rng);
            assert_eq!(count_via_pattern(&q, x, y, &f, &voc), f.count_models());
        }
    }

    #[test]
    fn reduction_uses_witness_from_classifier() {
        // The classifier's NonHierarchicalWitness indices order the atoms
        // for the reduction automatically.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(x,y), R(x), T(y)").unwrap();
        let w = dichotomy::check_hierarchical(&q).unwrap_err();
        let pattern = Query::new(
            vec![
                q.atoms[w.only_x].clone(),
                q.atoms[w.both].clone(),
                q.atoms[w.only_y].clone(),
            ],
            vec![],
        );
        let f = phi();
        assert_eq!(
            count_via_pattern(&pattern, w.x, w.y, &f, &voc),
            f.count_models()
        );
    }
}
