//! The Appendix C reduction: counting bipartite 2DNF via the chain query
//! `H_k` (Theorem 1.5).
//!
//! Given `Φ = ⋁_h x_{i_h} ∧ y_{j_h}` build the instance
//!
//! * `R(x_i)` with probability 1/2, `T(y_j)` with probability 1/2,
//! * per clause `h` a chain of edges `S_0(x,y), …, S_k(x,y)` with
//!   probability `p1` for `l ∈ {0,k}` and `p2` for the middle layers.
//!
//! Write `H_k = φ_0 ∧ … ∧ φ_{k+1}` where `φ_0 = R,S_0`, `φ_l =
//! S_{l-1},S_l`, `φ_{k+1} = S_k,T`. Every *proper* sub-conjunction is
//! inversion-free, hence PTIME; the probability of the negation
//! `q = ⋀ ¬φ_l` therefore reduces (by inclusion–exclusion) to the single
//! #P-hard oracle call `P(H_k)` plus PTIME side computations. Conditioned
//! on a truth assignment with `i` both-true clauses and `j` none-true
//! clauses,
//!
//! ```text
//! P(q | assignment) = A^i · B^{t−i−j} · C^j
//! ```
//!
//! with `A`, `B`, `C` per-clause chain probabilities computed by a
//! no-two-adjacent-edges dynamic program (the appendix's closed forms hold
//! only for small `k`; the DP is exact for every `k`). Evaluating `P(q)` at
//! a grid of `(p1, p2)` settings yields a generalized Vandermonde system
//! whose solution recovers the assignment counts `T_{i,j}`, and
//! `#Φ = 2^{m+n} − Σ_j T_{0,j}`.
//!
//! `k ≥ 2` is required for the *recovery pipeline*: for `k ∈ {0,1}` the
//! chain has no middle edges, so the measurement family depends on `p1`
//! alone and spans too few dimensions to separate the `T_{i,j}` (the
//! appendix's closed-form coefficients are likewise inconsistent for
//! `k ≤ 1`). `H_0`'s executable reduction is the 4-partite `P_3` pipeline
//! in [`crate::non_hierarchical`]; instance *construction* still supports
//! every `k ≥ 1`.

use crate::linalg::least_squares;
use crate::two_dnf::Bipartite2Dnf;
use cq::{parse_query, Query, Value, Vocabulary};
use pdb::ProbDb;

/// One constructed `H_k` instance.
#[derive(Clone, Debug)]
pub struct HkInstance {
    pub k: usize,
    pub query: Query,
    pub db: ProbDb,
    pub p1: f64,
    pub p2: f64,
}

/// The `H_k` query text over relations `R, S0..Sk, T`.
pub fn hk_query(voc: &mut Vocabulary, k: usize) -> Query {
    let mut parts = vec!["R(x), S0(x,y)".to_string()];
    for l in 1..=k {
        parts.push(format!("S{}(u{l},v{l}), S{l}(u{l},v{l})", l - 1));
    }
    parts.push(format!("S{k}(x2,y2), T(y2)"));
    parse_query(voc, &parts.join(", ")).expect("valid H_k text")
}

/// The sub-queries `φ_0 … φ_{k+1}` of `H_k`.
pub fn hk_subqueries(voc: &mut Vocabulary, k: usize) -> Vec<Query> {
    let mut out = vec![parse_query(voc, "R(x), S0(x,y)").unwrap()];
    for l in 1..=k {
        out.push(parse_query(voc, &format!("S{}(u,v), S{l}(u,v)", l - 1)).unwrap());
    }
    out.push(parse_query(voc, &format!("S{k}(x2,y2), T(y2)")).unwrap());
    out
}

/// Build the Appendix C instance for `phi` at edge probabilities
/// `(p1, p2)`. Variables `x_i ↦ i`, `y_j ↦ m + j`.
pub fn build_hk_instance(
    phi: &Bipartite2Dnf,
    k: usize,
    p1: f64,
    p2: f64,
    voc: &mut Vocabulary,
) -> HkInstance {
    assert!(k >= 1, "the H_k instance needs k >= 1");
    let query = hk_query(voc, k);
    let r = voc.find_relation("R").unwrap();
    let t_rel = voc.find_relation("T").unwrap();
    let s: Vec<_> = (0..=k)
        .map(|l| voc.find_relation(&format!("S{l}")).unwrap())
        .collect();
    let mut db = ProbDb::new(voc.clone());
    let m = phi.m as u64;
    for i in 0..phi.m {
        db.insert(r, vec![Value(i as u64)], 0.5);
    }
    for j in 0..phi.n {
        db.insert(t_rel, vec![Value(m + j as u64)], 0.5);
    }
    for &(i, j) in &phi.clauses {
        let (a, b) = (Value(i as u64), Value(m + j as u64));
        for (l, &sl) in s.iter().enumerate() {
            let p = if l == 0 || l == k { p1 } else { p2 };
            db.insert(sl, vec![a, b], p);
        }
    }
    HkInstance {
        k,
        query,
        db,
        p1,
        p2,
    }
}

/// Per-clause chain probability: no two adjacent edges of the chain
/// `e_0 … e_k` present; `e_0` forced absent when the clause's `x` is true,
/// `e_k` forced absent when its `y` is true.
pub fn clause_factor(k: usize, p1: f64, p2: f64, x_true: bool, y_true: bool) -> f64 {
    let prob = |l: usize| if l == 0 || l == k { p1 } else { p2 };
    // DP over the chain: (probability mass with e_l absent, with e_l present).
    let q0 = prob(0);
    let mut absent = 1.0 - q0;
    let mut present = if x_true { 0.0 } else { q0 };
    for l in 1..=k {
        let ql = prob(l);
        let new_present = if l == k && y_true { 0.0 } else { ql * absent };
        let new_absent = (1.0 - ql) * (absent + present);
        absent = new_absent;
        present = new_present;
    }
    absent + present
}

/// Compute `P(q) = P(⋀ ¬φ_l)` on an instance, spending exactly one call on
/// the `H_k` oracle (the full conjunction) and evaluating every proper
/// sub-conjunction exactly (they are PTIME queries; here computed by exact
/// lineage, which is exact regardless).
pub fn negation_probability(
    inst: &HkInstance,
    voc: &mut Vocabulary,
    oracle: &dyn Fn(&ProbDb, &Query) -> f64,
) -> f64 {
    let phis = hk_subqueries(voc, inst.k);
    let n = phis.len();
    // P(⋁φ) by inclusion–exclusion.
    let mut p_union = 0.0;
    for mask in 1u32..(1 << n) {
        // Conjoin the selected φ's with fresh variables.
        let mut conj = Query::truth();
        let mut offset = 0u32;
        for (b, phi) in phis.iter().enumerate() {
            if mask >> b & 1 == 1 {
                conj = conj.conjoin(&phi.rename_apart(offset));
                offset += phi.vars().len() as u32 + 2;
            }
        }
        let p = if mask == (1 << n) - 1 {
            // The full conjunction is H_k itself: the oracle call.
            oracle(&inst.db, &inst.query)
        } else {
            let dnf = pdb::lineage_of(&inst.db, &conj);
            lineage::exact_probability(&dnf, inst.db.probs())
        };
        let sign = if mask.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        p_union += sign * p;
    }
    1.0 - p_union
}

/// End-to-end Appendix C pipeline: count the models of `phi` using an
/// `H_k` evaluation oracle. Returns the recovered count (exact for the
/// small formulas the tests use; the linear system is solved in f64, which
/// bounds the practical clause count at `t ≈ 3` — beyond that the
/// generalized Vandermonde system becomes numerically singular, a property
/// of the measurement family, not of the reduction's correctness).
pub fn count_via_hk(phi: &Bipartite2Dnf, k: usize, oracle: &dyn Fn(&ProbDb, &Query) -> f64) -> u64 {
    assert!(
        k >= 2,
        "the T_{{i,j}} recovery needs k >= 2 (see module docs)"
    );
    let t = phi.num_clauses();
    // Unknowns T_{i,j} with i + j ≤ t.
    let unknowns: Vec<(usize, usize)> = (0..=t)
        .flat_map(|i| (0..=t - i).map(move |j| (i, j)))
        .collect();
    // Probability grid: spread p1 and p2 to keep the system well
    // conditioned; a couple of extra rows stabilize the least-squares
    // solve.
    let grid: usize = ((unknowns.len() as f64).sqrt().ceil() as usize + 2).max(4);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut rhs: Vec<f64> = Vec::new();
    for gi in 0..grid {
        for gj in 0..grid {
            let p1 = 0.15 + 0.7 * (gi as f64) / (grid - 1) as f64;
            let p2 = 0.15 + 0.7 * (gj as f64) / (grid - 1) as f64;
            let mut voc = Vocabulary::new();
            let inst = build_hk_instance(phi, k, p1, p2, &mut voc);
            let p_q = negation_probability(&inst, &mut voc, oracle);
            let a = clause_factor(k, p1, p2, true, true);
            let b = clause_factor(k, p1, p2, true, false);
            let c = clause_factor(k, p1, p2, false, false);
            // Scale each equation by 2^{m+n} / B^t so the matrix entries
            // are O(1) ratios — this keeps the normal equations well
            // conditioned for larger k.
            let scale = (1u64 << phi.num_vars()) as f64 / b.powi(t as i32);
            rows.push(
                unknowns
                    .iter()
                    .map(|&(i, j)| (a / b).powi(i as i32) * (c / b).powi(j as i32))
                    .collect(),
            );
            rhs.push(p_q * scale);
        }
    }
    let sol = least_squares(&rows, &rhs).expect("H_k system solvable");
    let t0: f64 = unknowns
        .iter()
        .zip(&sol)
        .filter(|&(&(i, _), _)| i == 0)
        .map(|(_, &v)| v)
        .sum();
    let total = (1u64 << phi.num_vars()) as f64;
    (total - t0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lineage::exact_probability;
    use pdb::lineage_of;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lineage_oracle(db: &ProbDb, q: &Query) -> f64 {
        exact_probability(&lineage_of(db, q), db.probs())
    }

    #[test]
    fn clause_factor_matches_hand_computation_k1() {
        let (p1, p2) = (0.3, 0.6);
        // k = 1: edges e0, e1 with prob p1 each; forbidden: both present.
        assert!((clause_factor(1, p1, p2, true, true) - (1.0 - p1) * (1.0 - p1)).abs() < 1e-12);
        assert!((clause_factor(1, p1, p2, true, false) - (1.0 - p1)).abs() < 1e-12);
        assert!((clause_factor(1, p1, p2, false, false) - (1.0 - p1 * p1)).abs() < 1e-12);
    }

    #[test]
    fn clause_factor_brute_force_k3() {
        // Verify the DP against enumeration of all 2^4 chain states.
        let (k, p1, p2) = (3usize, 0.35, 0.55);
        for (x_true, y_true) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut expect = 0.0;
            for mask in 0u32..16 {
                let present: Vec<bool> = (0..=k).map(|l| mask >> l & 1 == 1).collect();
                if x_true && present[0] {
                    continue;
                }
                if y_true && present[k] {
                    continue;
                }
                if (1..=k).any(|l| present[l - 1] && present[l]) {
                    continue;
                }
                let mut p = 1.0;
                for (l, &pr) in present.iter().enumerate() {
                    let q = if l == 0 || l == k { p1 } else { p2 };
                    p *= if pr { q } else { 1.0 - q };
                }
                expect += p;
            }
            let got = clause_factor(k, p1, p2, x_true, y_true);
            assert!((got - expect).abs() < 1e-12, "x={x_true} y={y_true}");
        }
    }

    #[test]
    fn negation_probability_matches_direct_sum() {
        // Check P(q) = Σ_{i,j} T_{i,j} A^i B^{t-i-j} C^j / 2^{m+n}.
        let phi = Bipartite2Dnf::new(2, 2, vec![(0, 0), (1, 1)]);
        let (k, p1, p2) = (1usize, 0.4, 0.7);
        let mut voc = Vocabulary::new();
        let inst = build_hk_instance(&phi, k, p1, p2, &mut voc);
        let p_q = negation_probability(&inst, &mut voc, &lineage_oracle);
        let table = phi.t_table();
        let t = phi.num_clauses();
        let a = clause_factor(k, p1, p2, true, true);
        let b = clause_factor(k, p1, p2, true, false);
        let c = clause_factor(k, p1, p2, false, false);
        let mut expect = 0.0;
        #[allow(clippy::needless_range_loop)] // i, j are also exponents
        for i in 0..=t {
            for j in 0..=t - i {
                expect += table[i][j] as f64
                    * a.powi(i as i32)
                    * c.powi(j as i32)
                    * b.powi((t - i - j) as i32);
            }
        }
        expect /= (1u64 << phi.num_vars()) as f64;
        assert!((p_q - expect).abs() < 1e-9, "p_q={p_q} expect={expect}");
    }

    #[test]
    fn h2_pipeline_counts_models() {
        let phi = Bipartite2Dnf::new(2, 2, vec![(0, 0), (1, 0), (1, 1)]);
        let count = count_via_hk(&phi, 2, &lineage_oracle);
        assert_eq!(count, phi.count_models());
    }

    #[test]
    fn h3_pipeline_counts_models() {
        let phi = Bipartite2Dnf::new(2, 2, vec![(0, 0), (1, 1)]);
        let count = count_via_hk(&phi, 3, &lineage_oracle);
        assert_eq!(count, phi.count_models());
    }

    #[test]
    fn random_formulas_via_h2() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..3 {
            let phi = Bipartite2Dnf::random(2, 3, 3, &mut rng);
            assert_eq!(count_via_hk(&phi, 2, &lineage_oracle), phi.count_models());
        }
    }

    #[test]
    fn brute_force_oracle_agrees() {
        // One run with the world-enumeration oracle instead of lineage.
        let phi = Bipartite2Dnf::new(2, 1, vec![(0, 0), (1, 0)]);
        let bf_oracle = |db: &ProbDb, q: &Query| pdb::brute_force_probability(db, q);
        assert_eq!(count_via_hk(&phi, 2, &bf_oracle), phi.count_models());
    }

    #[test]
    fn hk_query_is_classified_hard() {
        let mut voc = Vocabulary::new();
        let q = hk_query(&mut voc, 1);
        let c = dichotomy::classify(&q).unwrap();
        assert!(!c.complexity.is_ptime());
    }
}
