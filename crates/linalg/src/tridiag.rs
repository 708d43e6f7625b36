//! Eigendecomposition of symmetric tridiagonal matrices.
//!
//! Implicit-QL iteration with Wilkinson-style shifts — the classic EISPACK
//! `tql2` routine — producing all eigenvalues and eigenvectors. Lanczos
//! reduces the Laplacian to tridiagonal form; this solves the reduced
//! problem exactly.

/// Errors from the tridiagonal eigensolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TridiagError {
    /// The QL sweep failed to deflate an eigenvalue within the iteration
    /// budget (numerically pathological input).
    NoConvergence {
        /// Index of the eigenvalue being deflated when the budget ran out.
        index: usize,
    },
    /// `off_diag.len()` must equal `diag.len() - 1` (or both be empty).
    BadShape,
}

impl std::fmt::Display for TridiagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TridiagError::NoConvergence { index } => {
                write!(f, "QL iteration failed to converge at eigenvalue {index}")
            }
            TridiagError::BadShape => write!(f, "off-diagonal length must be diag length - 1"),
        }
    }
}

impl std::error::Error for TridiagError {}

/// `sign(a, b)`: `|a|` with the sign of `b` (FORTRAN SIGN intrinsic).
#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Computes all eigenvalues and eigenvectors of the symmetric tridiagonal
/// matrix with diagonal `diag` and sub/super-diagonal `off_diag`.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending and
/// `eigenvectors[j]` the unit eigenvector for `eigenvalues[j]`.
pub fn eigh_tridiagonal(
    diag: &[f64],
    off_diag: &[f64],
) -> Result<(Vec<f64>, Vec<Vec<f64>>), TridiagError> {
    let n = diag.len();
    // z[k][j]: row k, column j; columns accumulate the rotations.
    let mut z = vec![vec![0.0f64; n]; n];
    for (k, row) in z.iter_mut().enumerate() {
        row[k] = 1.0;
    }
    let (values, order) = ql(diag, off_diag, &mut z)?;
    let vectors = order
        .iter()
        .map(|&j| (0..n).map(|k| z[k][j]).collect())
        .collect();
    Ok((values, vectors))
}

/// The eigenvalues of [`eigh_tridiagonal`] and the last component of each
/// eigenvector, in the same order and to the same bits, in O(n²) instead
/// of O(n³): every rotation updates each row of the eigenvector matrix on
/// its own, so only the last row is accumulated. Lanczos reads nothing
/// else when it tests convergence.
// gapart-lint: allow(panic-reach) -- `ql`'s order is a permutation of 0..n, and the one row holds n entries
pub fn eigh_tridiagonal_last_row(
    diag: &[f64],
    off_diag: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), TridiagError> {
    let mut last = vec![0.0f64; diag.len()];
    if let Some(x) = last.last_mut() {
        *x = 1.0;
    }
    let mut z = [last];
    let (values, order) = ql(diag, off_diag, &mut z)?;
    Ok((values, order.iter().map(|&j| z[0][j]).collect()))
}

/// The implicit-QL iteration, applying every rotation to each of the
/// eigenvector-matrix rows in `z`. Returns the eigenvalues ascending and
/// the column each came from.
fn ql(
    diag: &[f64],
    off_diag: &[f64],
    z: &mut [Vec<f64>],
) -> Result<(Vec<f64>, Vec<usize>), TridiagError> {
    let n = diag.len();
    if n == 0 {
        return Ok((Vec::new(), Vec::new()));
    }
    if off_diag.len() + 1 != n {
        return Err(TridiagError::BadShape);
    }
    let mut d = diag.to_vec();
    // e[i] couples rows i and i+1; e[n-1] is a zero sentinel.
    let mut e: Vec<f64> = off_diag.to_vec();
    e.push(0.0);

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first negligible sub-diagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] has converged
            }
            iter += 1;
            if iter > 60 {
                return Err(TridiagError::NoConvergence { index: l });
            }
            // Wilkinson-style shift from the 2x2 at the top of the block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + sign(r, g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: skip the rest of this sweep.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for row in z.iter_mut() {
                    f = row[i + 1];
                    row[i + 1] = s * row[i] + c * f;
                    row[i] = c * row[i] - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // Sort ascending; the caller permutes eigenvector columns along.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).expect("finite eigenvalues"));
    Ok((order.iter().map(|&j| d[j]).collect(), order))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_eigenpairs(diag: &[f64], off: &[f64], values: &[f64], vectors: &[Vec<f64>]) {
        let n = diag.len();
        for (lam, v) in values.iter().zip(vectors) {
            // residual ||T v − λ v||
            let mut res = 0.0f64;
            for i in 0..n {
                let mut tv = diag[i] * v[i];
                if i > 0 {
                    tv += off[i - 1] * v[i - 1];
                }
                if i + 1 < n {
                    tv += off[i] * v[i + 1];
                }
                res += (tv - lam * v[i]).powi(2);
            }
            assert!(res.sqrt() < 1e-9, "residual {} for λ={lam}", res.sqrt());
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "eigenvector not unit: {norm}");
        }
    }

    #[test]
    fn empty_matrix() {
        let (vals, vecs) = eigh_tridiagonal(&[], &[]).unwrap();
        assert!(vals.is_empty() && vecs.is_empty());
    }

    #[test]
    fn one_by_one() {
        let (vals, vecs) = eigh_tridiagonal(&[3.5], &[]).unwrap();
        assert_eq!(vals, vec![3.5]);
        assert_eq!(vecs, vec![vec![1.0]]);
    }

    #[test]
    fn two_by_two_analytic() {
        // [[2, 1], [1, 2]] → eigenvalues 1, 3.
        let (vals, vecs) = eigh_tridiagonal(&[2.0, 2.0], &[1.0]).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
        check_eigenpairs(&[2.0, 2.0], &[1.0], &vals, &vecs);
    }

    #[test]
    fn diagonal_matrix_sorted() {
        let (vals, vecs) = eigh_tridiagonal(&[5.0, -1.0, 2.0], &[0.0, 0.0]).unwrap();
        assert_eq!(vals, vec![-1.0, 2.0, 5.0]);
        check_eigenpairs(&[5.0, -1.0, 2.0], &[0.0, 0.0], &vals, &vecs);
    }

    #[test]
    fn path_laplacian_known_spectrum() {
        // Laplacian of the path P_n (tridiagonal) has eigenvalues
        // 4 sin²(kπ / 2n), k = 0..n-1.
        let n = 8;
        let diag: Vec<f64> = (0..n)
            .map(|i| if i == 0 || i == n - 1 { 1.0 } else { 2.0 })
            .collect();
        let off = vec![-1.0; n - 1];
        let (vals, vecs) = eigh_tridiagonal(&diag, &off).unwrap();
        for (k, &lam) in vals.iter().enumerate() {
            let expect = 4.0
                * (k as f64 * std::f64::consts::PI / (2.0 * n as f64))
                    .sin()
                    .powi(2);
            assert!((lam - expect).abs() < 1e-9, "k={k}: {lam} vs {expect}");
        }
        check_eigenpairs(&diag, &off, &vals, &vecs);
    }

    #[test]
    fn random_tridiagonal_residuals() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for n in [3usize, 10, 25] {
            let diag: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let off: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let (vals, vecs) = eigh_tridiagonal(&diag, &off).unwrap();
            check_eigenpairs(&diag, &off, &vals, &vecs);
            // Trace preserved.
            let tr: f64 = diag.iter().sum();
            let vs: f64 = vals.iter().sum();
            assert!((tr - vs).abs() < 1e-8);
            // Sorted ascending.
            assert!(vals.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        }
    }

    #[test]
    fn rejects_bad_shape() {
        assert_eq!(
            eigh_tridiagonal(&[1.0, 2.0], &[]).unwrap_err(),
            TridiagError::BadShape
        );
    }

    #[test]
    fn eigenvectors_orthogonal() {
        let diag = [1.0, 2.0, 3.0, 4.0];
        let off = [0.5, 0.5, 0.5];
        let (_, vecs) = eigh_tridiagonal(&diag, &off).unwrap();
        for i in 0..4 {
            for j in (i + 1)..4 {
                let d: f64 = vecs[i].iter().zip(&vecs[j]).map(|(a, b)| a * b).sum();
                assert!(d.abs() < 1e-9, "vectors {i},{j} not orthogonal: {d}");
            }
        }
    }

    #[test]
    fn last_row_matches_the_full_solve_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        for n in [1usize, 2, 3, 7, 25, 60, 150] {
            for _ in 0..4 {
                let diag: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
                // Lanczos restarts leave zero couplings; every fifth is one.
                let off: Vec<f64> = (0..n - 1)
                    .map(|i| {
                        let x = rng.gen_range(-2.0..2.0);
                        if i % 5 == 4 {
                            0.0
                        } else {
                            x
                        }
                    })
                    .collect();
                let (vals, vecs) = eigh_tridiagonal(&diag, &off).unwrap();
                let (last_vals, last) = eigh_tridiagonal_last_row(&diag, &off).unwrap();
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&last_vals), bits(&vals), "n={n}");
                let want: Vec<f64> = vecs.iter().map(|v| v[n - 1]).collect();
                assert_eq!(bits(&last), bits(&want), "n={n}");
            }
        }
        assert_eq!(
            eigh_tridiagonal_last_row(&[1.0, 2.0], &[]).unwrap_err(),
            TridiagError::BadShape
        );
    }
}
