//! Bipartite 2DNF formulas `Φ = ⋁_{h} x_{i_h} ∧ y_{j_h}` (Eq. 12/13 of the
//! paper's appendices) and direct model counting.

use lineage::{model_count_exact, Dnf, Lit};
use rand::Rng;

/// A bipartite 2DNF formula over variables `x_0..x_{m-1}` and
/// `y_0..y_{n-1}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bipartite2Dnf {
    pub m: usize,
    pub n: usize,
    /// Clauses `(i, j)` standing for `x_i ∧ y_j`.
    pub clauses: Vec<(usize, usize)>,
}

impl Bipartite2Dnf {
    pub fn new(m: usize, n: usize, clauses: Vec<(usize, usize)>) -> Self {
        for &(i, j) in &clauses {
            assert!(i < m && j < n, "clause variable out of range");
        }
        Bipartite2Dnf { m, n, clauses }
    }

    /// A random formula with `t` distinct clauses.
    pub fn random<R: Rng>(m: usize, n: usize, t: usize, rng: &mut R) -> Self {
        assert!(t <= m * n, "cannot pick {t} distinct clauses from {m}x{n}");
        let mut clauses = Vec::new();
        while clauses.len() < t {
            let c = (rng.gen_range(0..m), rng.gen_range(0..n));
            if !clauses.contains(&c) {
                clauses.push(c);
            }
        }
        Bipartite2Dnf { m, n, clauses }
    }

    pub fn num_vars(&self) -> usize {
        self.m + self.n
    }

    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// As a [`Dnf`] over events `0..m` (the `x`s) and `m..m+n` (the `y`s).
    pub fn to_dnf(&self) -> Dnf {
        let mut d = Dnf::new();
        for &(i, j) in &self.clauses {
            d.add_clause(vec![Lit::pos(i as u32), Lit::pos((self.m + j) as u32)]);
        }
        d
    }

    /// The number of satisfying assignments, by exact weighted model
    /// counting (ground truth for the reduction pipelines).
    pub fn count_models(&self) -> u64 {
        model_count_exact(&self.to_dnf(), self.num_vars())
            .to_u64()
            .expect("model count fits u64")
    }

    /// The probability that a uniformly random assignment satisfies `Φ`,
    /// with per-variable marginals `x_probs` / `y_probs`.
    pub fn probability(&self, x_probs: &[f64], y_probs: &[f64]) -> f64 {
        assert_eq!(x_probs.len(), self.m);
        assert_eq!(y_probs.len(), self.n);
        let mut probs = x_probs.to_vec();
        probs.extend_from_slice(y_probs);
        lineage::exact_probability(&self.to_dnf(), &probs)
    }

    /// Truth of `Φ` under an explicit assignment.
    pub fn eval(&self, xs: &[bool], ys: &[bool]) -> bool {
        self.clauses.iter().any(|&(i, j)| xs[i] && ys[j])
    }

    /// The statistics `(i, j)` for an assignment: `i` clauses with both
    /// variables true, `j` clauses with neither true (the `T_{i,j}` indices
    /// of Appendix C).
    pub fn clause_stats(&self, xs: &[bool], ys: &[bool]) -> (usize, usize) {
        let mut both = 0;
        let mut none = 0;
        for &(i, j) in &self.clauses {
            match (xs[i], ys[j]) {
                (true, true) => both += 1,
                (false, false) => none += 1,
                _ => {}
            }
        }
        (both, none)
    }

    /// The exact table `T_{i,j}` by brute-force enumeration (for testing
    /// the `H_k` recovery on small formulas).
    pub fn t_table(&self) -> Vec<Vec<u64>> {
        let t = self.num_clauses();
        let mut table = vec![vec![0u64; t + 1]; t + 1];
        assert!(self.num_vars() <= 24, "t_table is brute force");
        for mask in 0u64..(1 << self.num_vars()) {
            let xs: Vec<bool> = (0..self.m).map(|b| mask >> b & 1 == 1).collect();
            let ys: Vec<bool> = (0..self.n).map(|b| mask >> (self.m + b) & 1 == 1).collect();
            let (i, j) = self.clause_stats(&xs, &ys);
            table[i][j] += 1;
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn phi() -> Bipartite2Dnf {
        // Φ = (x0∧y0) ∨ (x1∧y0) ∨ (x1∧y1)
        Bipartite2Dnf::new(2, 2, vec![(0, 0), (1, 0), (1, 1)])
    }

    #[test]
    fn count_matches_enumeration() {
        let f = phi();
        let mut count = 0;
        for mask in 0..16u64 {
            let xs = vec![mask & 1 == 1, mask >> 1 & 1 == 1];
            let ys = vec![mask >> 2 & 1 == 1, mask >> 3 & 1 == 1];
            if f.eval(&xs, &ys) {
                count += 1;
            }
        }
        assert_eq!(f.count_models(), count);
        assert_eq!(count, 8);
    }

    #[test]
    fn probability_with_half_marginals_matches_count() {
        let f = phi();
        let p = f.probability(&[0.5, 0.5], &[0.5, 0.5]);
        assert!((p - 8.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn t_table_sums_to_all_assignments() {
        let f = phi();
        let table = f.t_table();
        let total: u64 = table.iter().flatten().sum();
        assert_eq!(total, 16);
        // #SAT = total − Σ_j T[0][j].
        let unsat: u64 = table[0].iter().sum();
        assert_eq!(total - unsat, 8);
    }

    #[test]
    fn random_formula_has_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = Bipartite2Dnf::random(3, 4, 5, &mut rng);
        assert_eq!(f.num_clauses(), 5);
        let mut dedup = f.clauses.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn clause_bounds_checked() {
        Bipartite2Dnf::new(1, 1, vec![(1, 0)]);
    }
}
