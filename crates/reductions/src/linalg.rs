//! Minimal dense linear algebra: least-squares solve via normal equations
//! and Gaussian elimination with partial pivoting.
//!
//! The `H_k` pipeline recovers the assignment counts `T_{i,j}` from query
//! probabilities at several `(p1, p2)` settings — a generalized Vandermonde
//! system. The systems are tiny (≤ ~20 unknowns), so a textbook solver is
//! appropriate, and the workspace builds offline with no linear-algebra
//! crate to depend on.

/// Solve `A x = b` in the least-squares sense via the normal equations
/// `AᵀA x = Aᵀb`. `a` is row-major with `rows × cols` entries. Returns
/// `None` when the normal matrix is (numerically) singular.
pub fn least_squares(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let rows = a.len();
    assert_eq!(rows, b.len());
    if rows == 0 {
        return None;
    }
    let cols = a[0].len();
    assert!(a.iter().all(|r| r.len() == cols));
    assert!(rows >= cols, "underdetermined system");
    // Normal matrix and right-hand side.
    let mut ata = vec![vec![0.0; cols]; cols];
    let mut atb = vec![0.0; cols];
    for r in 0..rows {
        for i in 0..cols {
            atb[i] += a[r][i] * b[r];
            for j in 0..cols {
                ata[i][j] += a[r][i] * a[r][j];
            }
        }
    }
    gaussian_solve(&mut ata, &mut atb)
}

/// In-place Gaussian elimination with partial pivoting on a square system.
pub fn gaussian_solve(m: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = m.len();
    assert_eq!(b.len(), n);
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .expect("finite")
        })?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        #[allow(clippy::needless_range_loop)] // split borrows of m[row]/m[col]
        for row in col + 1..n {
            let f = m[row][col] / m[col][col];
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                m[row][k] -= f * m[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        #[allow(clippy::needless_range_loop)] // k indexes both m[col] and x
        for k in col + 1..n {
            acc -= m[col][k] * x[k];
        }
        x[col] = acc / m[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut m = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut b = vec![3.0, 4.0];
        assert_eq!(gaussian_solve(&mut m, &mut b), Some(vec![3.0, 4.0]));
    }

    #[test]
    fn solves_general_system() {
        // 2x + y = 5, x - y = 1 → x = 2, y = 1.
        let mut m = vec![vec![2.0, 1.0], vec![1.0, -1.0]];
        let mut b = vec![5.0, 1.0];
        let x = gaussian_solve(&mut m, &mut b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let mut m = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let mut b = vec![1.0, 2.0];
        assert_eq!(gaussian_solve(&mut m, &mut b), None);
    }

    #[test]
    fn vandermonde_recovery() {
        // Recover coefficients of p(w) = 2 + 3w + w² from evaluations.
        let points = [0.5, 1.0, 1.5, 2.0];
        let a: Vec<Vec<f64>> = points.iter().map(|&w| vec![1.0, w, w * w]).collect();
        let b: Vec<f64> = points.iter().map(|&w| 2.0 + 3.0 * w + w * w).collect();
        let x = least_squares(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!((x[1] - 3.0).abs() < 1e-8);
        assert!((x[2] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn least_squares_overdetermined_consistent() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let b = vec![1.0, 2.0, 3.0];
        let x = least_squares(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 2.0).abs() < 1e-10);
    }
}
