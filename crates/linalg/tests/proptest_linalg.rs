//! Property-based tests for the linear algebra substrate.

use gapart_linalg::dense::{axpy, dot, norm, normalize, orthogonalize_against};
use gapart_linalg::lanczos_smallest;
use gapart_linalg::tridiag::eigh_tridiagonal;
use proptest::prelude::*;

/// The start-vector seed these tests have always drawn ("LANC").
const SEED: u64 = 0x4c41_4e43;

fn arb_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, n..=n)
}

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

fn apply(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.len()];
    op(a)(x, &mut y);
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dot_is_bilinear(
        a in arb_vec(8), b in arb_vec(8), c in arb_vec(8),
        alpha in -5.0f64..5.0,
    ) {
        let ab = dot(&a, &b);
        let ac = dot(&a, &c);
        let bc_sum: Vec<f64> = b.iter().zip(&c).map(|(x, y)| alpha * x + y).collect();
        let lhs = dot(&a, &bc_sum);
        prop_assert!((lhs - (alpha * ab + ac)).abs() < 1e-8);
    }

    #[test]
    fn cauchy_schwarz(a in arb_vec(12), b in arb_vec(12)) {
        prop_assert!(dot(&a, &b).abs() <= norm(&a) * norm(&b) + 1e-9);
    }

    #[test]
    fn axpy_matches_definition(a in arb_vec(10), b in arb_vec(10), alpha in -3.0f64..3.0) {
        let mut y = b.clone();
        axpy(alpha, &a, &mut y);
        for i in 0..10 {
            prop_assert!((y[i] - (b[i] + alpha * a[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_gives_unit_or_zero(mut a in arb_vec(9)) {
        let n0 = norm(&a);
        let returned = normalize(&mut a);
        prop_assert!((returned - n0).abs() < 1e-12);
        if n0 > 0.0 {
            prop_assert!((norm(&a) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn orthogonalization_annihilates_basis_components(v in arb_vec(6)) {
        // Orthonormal basis: e1, e3.
        let mut e1 = vec![0.0; 6];
        e1[0] = 1.0;
        let mut e3 = vec![0.0; 6];
        e3[2] = 1.0;
        let mut w = v.clone();
        orthogonalize_against(&mut w, &[e1.clone(), e3.clone()]);
        prop_assert!(dot(&w, &e1).abs() < 1e-10);
        prop_assert!(dot(&w, &e3).abs() < 1e-10);
        // Untouched coordinates are preserved.
        prop_assert!((w[1] - v[1]).abs() < 1e-12);
    }

    #[test]
    fn matvec_is_linear(
        entries in proptest::collection::vec((0u32..8, 0u32..8, -4.0f64..4.0), 1..30),
        x in arb_vec(8),
        y in arb_vec(8),
        alpha in -3.0f64..3.0,
    ) {
        let a = matrix(8, &entries);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| alpha * xi + yi).collect();
        let lhs = apply(&a, &combo);
        let ax = apply(&a, &x);
        let ay = apply(&a, &y);
        for i in 0..8 {
            prop_assert!((lhs[i] - (alpha * ax[i] + ay[i])).abs() < 1e-8);
        }
    }

    #[test]
    fn tridiagonal_eigensolve_residuals_and_trace(
        diag in proptest::collection::vec(-5.0f64..5.0, 2..20),
        off_scale in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let n = diag.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let off: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0) * off_scale).collect();
        let (vals, vecs) = eigh_tridiagonal(&diag, &off).unwrap();
        // Trace conserved.
        let trace: f64 = diag.iter().sum();
        let sum: f64 = vals.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7 * (1.0 + trace.abs()));
        // Sorted.
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1] + 1e-10));
        // Residuals small, eigenvectors unit.
        for (lam, v) in vals.iter().zip(&vecs) {
            let mut res = 0.0f64;
            for i in 0..n {
                let mut tv = diag[i] * v[i];
                if i > 0 { tv += off[i - 1] * v[i - 1]; }
                if i + 1 < n { tv += off[i] * v[i + 1]; }
                res += (tv - lam * v[i]).powi(2);
            }
            prop_assert!(res.sqrt() < 1e-7, "residual {}", res.sqrt());
            let nv: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!((nv - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn lanczos_finds_smallest_diagonal_entry(
        diag in proptest::collection::vec(0.0f64..20.0, 3..25),
    ) {
        let n = diag.len();
        let t: Vec<(u32, u32, f64)> = diag
            .iter()
            .enumerate()
            .map(|(i, &d)| (i as u32, i as u32, d))
            .collect();
        let a = matrix(n, &t);
        let r = lanczos_smallest(op(&a), n, 1, &[], SEED).unwrap();
        let expected = diag.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!((r.eigenvalues[0] - expected).abs() < 1e-5,
            "got {} want {expected}", r.eigenvalues[0]);
    }

    #[test]
    fn lanczos_eigenvalue_bounds_by_gershgorin(
        entries in proptest::collection::vec((0u32..6, 0u32..6, -3.0f64..3.0), 1..20),
    ) {
        // Symmetrize to make the operator honest.
        let mut sym: Vec<(u32, u32, f64)> = Vec::new();
        for &(i, j, v) in &entries {
            sym.push((i, j, v));
            if i != j {
                sym.push((j, i, v));
            }
        }
        let a = matrix(6, &sym);
        prop_assume!((0..6).all(|i| (0..6).all(|j| (a[i][j] - a[j][i]).abs() <= 1e-9)));
        let r = lanczos_smallest(op(&a), 6, 1, &[], SEED).unwrap();
        // Gershgorin lower bound.
        let mut lower = f64::INFINITY;
        for (i, row) in a.iter().enumerate() {
            let radius: f64 = (0..6).filter(|&j| j != i).map(|j| row[j].abs()).sum();
            lower = lower.min(row[i] - radius);
        }
        prop_assert!(r.eigenvalues[0] >= lower - 1e-6,
            "λ_min {} below Gershgorin bound {lower}", r.eigenvalues[0]);
    }
}
