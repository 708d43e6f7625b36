//! Lanczos iteration for the smallest eigenpairs of a symmetric operator.
//!
//! Full reorthogonalization (the graphs here are a few hundred to a few
//! thousand nodes, so robustness beats the memory cost) with optional
//! deflation: spectral bisection must project out the constant vector,
//! which spans the Laplacian's known null space on a connected graph.

use crate::dense::{axpy, dot, normalize, orthogonalize_against};
use crate::tridiag::{eigh_tridiagonal, TridiagError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest Krylov subspace [`lanczos_smallest`] builds (capped at the
/// effective problem size automatically).
const MAX_ITERS: usize = 400;

/// Convergence tolerance on the Ritz residual estimate `|β_j s_{ji}|`.
const TOLERANCE: f64 = 1e-7;

/// Outcome of a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// The `k` smallest Ritz values, ascending (fewer if the operator's
    /// effective dimension is smaller than `k`).
    pub eigenvalues: Vec<f64>,
    /// Unit Ritz vectors aligned with `eigenvalues`.
    pub eigenvectors: Vec<Vec<f64>>,
    /// Krylov dimension actually built.
    pub iterations: usize,
    /// Whether every requested pair met the residual tolerance.
    pub converged: bool,
}

/// Errors from the Lanczos driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LanczosError {
    /// The inner tridiagonal eigensolve failed.
    Tridiag(TridiagError),
    /// `n == 0` or `k == 0`.
    Degenerate,
}

impl std::fmt::Display for LanczosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LanczosError::Tridiag(e) => write!(f, "tridiagonal eigensolve failed: {e}"),
            LanczosError::Degenerate => write!(f, "empty problem (n == 0 or k == 0)"),
        }
    }
}

impl std::error::Error for LanczosError {}

impl From<TridiagError> for LanczosError {
    fn from(e: TridiagError) -> Self {
        LanczosError::Tridiag(e)
    }
}

/// Computes the `k` smallest eigenpairs of the symmetric operator `op`
/// (`op(x, y)` must set `y = A x`) of dimension `n`, restricted to the
/// orthogonal complement of `deflate` (which must be orthonormal). `seed`
/// draws the random start vector.
///
/// Uses Lanczos with full reorthogonalization against both the Krylov
/// basis and the deflation vectors, restarting with fresh random
/// directions when the Krylov space goes invariant early. It builds at
/// most 400 Krylov vectors and stops once every wanted Ritz residual
/// estimate is at most 1e-7.
pub fn lanczos_smallest<F>(
    op: F,
    n: usize,
    k: usize,
    deflate: &[Vec<f64>],
    seed: u64,
) -> Result<LanczosResult, LanczosError>
where
    F: Fn(&[f64], &mut [f64]),
{
    if n == 0 || k == 0 {
        return Err(LanczosError::Degenerate);
    }
    let effective_dim = n.saturating_sub(deflate.len());
    let want = k.min(effective_dim);
    if want == 0 {
        return Ok(LanczosResult {
            eigenvalues: Vec::new(),
            eigenvectors: Vec::new(),
            iterations: 0,
            converged: true,
        });
    }
    let max_dim = MAX_ITERS.min(effective_dim).max(want);
    let mut rng = StdRng::seed_from_u64(seed);

    let fresh_start = |rng: &mut StdRng, basis: &[Vec<f64>]| -> Option<Vec<f64>> {
        for _ in 0..20 {
            let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            orthogonalize_against(&mut v, deflate);
            orthogonalize_against(&mut v, basis);
            if normalize(&mut v) > 1e-10 {
                return Some(v);
            }
        }
        None
    };

    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(max_dim);
    let mut alphas: Vec<f64> = Vec::with_capacity(max_dim);
    let mut betas: Vec<f64> = Vec::with_capacity(max_dim); // beta[j] couples v_j, v_{j+1}
    let mut w = vec![0.0f64; n];

    let Some(v0) = fresh_start(&mut rng, &basis) else {
        return Err(LanczosError::Degenerate);
    };
    basis.push(v0);

    let mut converged = false;
    while basis.len() <= max_dim {
        let j = basis.len() - 1;
        op(&basis[j], &mut w);
        let alpha = dot(&basis[j], &w);
        alphas.push(alpha);
        // w ← w − α v_j − β_{j−1} v_{j−1}, then full reorthogonalization.
        axpy(-alpha, &basis[j].clone(), &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            axpy(-beta_prev, &basis[j - 1].clone(), &mut w);
        }
        orthogonalize_against(&mut w, deflate);
        orthogonalize_against(&mut w, &basis);
        let beta = normalize(&mut w);

        // Convergence test on the current tridiagonal system.
        let dim = alphas.len();
        if dim >= want {
            let (vals, vecs) = eigh_tridiagonal(&alphas, &betas[..dim - 1])?;
            let worst_residual = vals
                .iter()
                .zip(&vecs)
                .take(want)
                .map(|(_, s)| (beta * s[dim - 1]).abs())
                .fold(0.0f64, f64::max);
            if worst_residual <= TOLERANCE || dim == max_dim || beta <= 1e-12 {
                if beta <= 1e-12 && dim < max_dim && worst_residual > TOLERANCE {
                    // Invariant subspace before convergence: restart
                    // direction, keep the basis.
                    if let Some(v) = fresh_start(&mut rng, &basis) {
                        betas.push(0.0);
                        basis.push(v);
                        continue;
                    }
                }
                converged = worst_residual <= TOLERANCE;
                let eigenvalues: Vec<f64> = vals[..want].to_vec();
                let eigenvectors: Vec<Vec<f64>> = vecs[..want]
                    .iter()
                    .map(|s| {
                        let mut x = vec![0.0f64; n];
                        for (coeff, v) in s.iter().zip(&basis) {
                            axpy(*coeff, v, &mut x);
                        }
                        normalize(&mut x);
                        x
                    })
                    .collect();
                return Ok(LanczosResult {
                    eigenvalues,
                    eigenvectors,
                    iterations: dim,
                    converged,
                });
            }
        } else if beta <= 1e-12 {
            // Invariant subspace before we even have `want` values.
            match fresh_start(&mut rng, &basis) {
                Some(v) => {
                    betas.push(0.0);
                    basis.push(v);
                    continue;
                }
                None => break,
            }
        }

        betas.push(beta);
        basis.push(w.clone());
    }

    // Fallback: solve whatever space we built.
    let dim = alphas.len();
    let (vals, vecs) = eigh_tridiagonal(&alphas, &betas[..dim.saturating_sub(1)])?;
    let take = want.min(vals.len());
    let eigenvalues: Vec<f64> = vals[..take].to_vec();
    let eigenvectors: Vec<Vec<f64>> = vecs[..take]
        .iter()
        .map(|s| {
            let mut x = vec![0.0f64; n];
            for (coeff, v) in s.iter().zip(&basis) {
                axpy(*coeff, v, &mut x);
            }
            normalize(&mut x);
            x
        })
        .collect();
    Ok(LanczosResult {
        eigenvalues,
        eigenvectors,
        iterations: dim,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The start-vector seed these tests have always drawn ("LANC").
    const SEED: u64 = 0x4c41_4e43;

    /// A test-local dense matrix built from `(row, col, value)` triplets,
    /// duplicates summed.
    fn matrix(n: usize, triplets: &[(u32, u32, f64)]) -> Vec<Vec<f64>> {
        let mut a = vec![vec![0.0; n]; n];
        for &(r, c, v) in triplets {
            a[r as usize][c as usize] += v;
        }
        a
    }

    /// `y = A x` as the operator closure [`lanczos_smallest`] takes.
    fn op(a: &[Vec<f64>]) -> impl Fn(&[f64], &mut [f64]) + '_ {
        move |x, y| {
            for (yi, row) in y.iter_mut().zip(a) {
                *yi = dot(row, x);
            }
        }
    }

    fn path_laplacian(n: usize) -> Vec<Vec<f64>> {
        let mut t = Vec::new();
        for i in 0..n as u32 {
            let deg = if i == 0 || i == n as u32 - 1 {
                1.0
            } else {
                2.0
            };
            t.push((i, i, deg));
            if (i as usize) + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        matrix(n, &t)
    }

    #[test]
    fn smallest_of_diagonal_matrix() {
        let a = matrix(4, &[(0, 0, 4.0), (1, 1, 1.0), (2, 2, 3.0), (3, 3, 2.0)]);
        let r = lanczos_smallest(op(&a), 4, 2, &[], SEED).unwrap();
        assert!(r.converged);
        assert!((r.eigenvalues[0] - 1.0).abs() < 1e-7, "{:?}", r.eigenvalues);
        assert!((r.eigenvalues[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn path_laplacian_fiedler_value() {
        // λ_1 of P_n Laplacian = 4 sin²(π / 2n); deflate the constant.
        let n = 12;
        let a = path_laplacian(n);
        let ones = vec![1.0 / (n as f64).sqrt(); n];
        let r = lanczos_smallest(op(&a), n, 1, &[ones], SEED).unwrap();
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
        assert!(
            (r.eigenvalues[0] - expect).abs() < 1e-7,
            "got {} want {expect}",
            r.eigenvalues[0]
        );
        // Fiedler vector of a path is monotone.
        let v = &r.eigenvectors[0];
        let increasing = v.windows(2).all(|w| w[0] <= w[1] + 1e-9);
        let decreasing = v.windows(2).all(|w| w[0] >= w[1] - 1e-9);
        assert!(
            increasing || decreasing,
            "Fiedler vector not monotone: {v:?}"
        );
    }

    #[test]
    fn residuals_are_small() {
        let a = path_laplacian(30);
        let n = 30;
        let ones = vec![1.0 / (n as f64).sqrt(); n];
        let r = lanczos_smallest(op(&a), n, 3, &[ones], SEED).unwrap();
        assert!(r.converged);
        for (lam, v) in r.eigenvalues.iter().zip(&r.eigenvectors) {
            let mut av = vec![0.0; n];
            op(&a)(v, &mut av);
            let res: f64 = av
                .iter()
                .zip(v)
                .map(|(avi, vi)| (avi - lam * vi).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-6, "residual {res} for λ={lam}");
        }
    }

    #[test]
    fn eigenvectors_orthogonal_to_deflation() {
        let n = 20;
        let a = path_laplacian(n);
        let ones = vec![1.0 / (n as f64).sqrt(); n];
        let r = lanczos_smallest(op(&a), n, 2, std::slice::from_ref(&ones), SEED).unwrap();
        for v in &r.eigenvectors {
            assert!(dot(v, &ones).abs() < 1e-7);
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let a = matrix(3, &[(0, 0, 1.0)]);
        assert!(matches!(
            lanczos_smallest(op(&a), 3, 0, &[], SEED),
            Err(LanczosError::Degenerate)
        ));
    }

    #[test]
    fn want_capped_at_effective_dimension() {
        // 3x3 with one deflation vector: at most 2 pairs available.
        let a = matrix(3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]);
        let e0 = vec![1.0, 0.0, 0.0];
        let r = lanczos_smallest(op(&a), 3, 5, &[e0], SEED).unwrap();
        assert!(r.eigenvalues.len() <= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = path_laplacian(15);
        let ones = vec![1.0 / 15f64.sqrt(); 15];
        let r1 = lanczos_smallest(op(&a), 15, 1, std::slice::from_ref(&ones), SEED).unwrap();
        let r2 = lanczos_smallest(op(&a), 15, 1, &[ones], SEED).unwrap();
        assert_eq!(r1.eigenvalues, r2.eigenvalues);
    }

    #[test]
    fn disconnected_operator_multiple_zero_eigenvalues() {
        // Block diagonal Laplacian of two P_2 components: eigenvalues
        // {0, 0, 2, 2}. Deflating the global constant still leaves one
        // zero (the component indicator difference).
        let t = vec![
            (0u32, 0u32, 1.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 1.0),
            (2, 2, 1.0),
            (2, 3, -1.0),
            (3, 2, -1.0),
            (3, 3, 1.0),
        ];
        let a = matrix(4, &t);
        let ones = vec![0.5; 4];
        let r = lanczos_smallest(op(&a), 4, 1, &[ones], SEED).unwrap();
        assert!(r.eigenvalues[0].abs() < 1e-8, "{:?}", r.eigenvalues);
    }
}
