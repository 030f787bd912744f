//! Adaptive Cross Approximation (ACA).
//!
//! The production compressor of TLR solvers (HiCMA uses the same family):
//! builds a low-rank approximation `A ≈ U V^T` one cross (rank-1 update) at
//! a time. Because the tile generation path materializes each tile densely
//! anyway, we use *full pivoting* on an explicit residual: pick the largest
//! remaining entry, subtract its cross, and stop when the residual's
//! Frobenius norm is at or below the tolerance. This costs `O(m n k)` — the
//! same order as generating the tile — and, unlike partially pivoted ACA,
//! gives a *guaranteed* `||A - U V^T||_F <= tol` (partial pivoting's
//! heuristic stopping rule can terminate early on covariance tiles whose
//! leading rows are nearly zero). The SVD compressor
//! ([`crate::svd::truncated_svd`]) remains the minimal-rank oracle in
//! tests.

use crate::matrix::Matrix;
use xgs_kernels::{aca_cross, aca_scan};

/// Full-pivot ACA to absolute Frobenius tolerance `tol`.
///
/// Returns `(U, V)` with `||A - U V^T||_F <= tol`, rank at most `max_rank`
/// (at `max_rank` the guarantee is only best-effort; callers cap with
/// `min(m, n)` for an exact fallback). Each cross — pivot search, rank-1
/// residual update, residual norm — is one pass of
/// [`xgs_kernels::aca_cross`], the dispatched kernel body; the pivot is the
/// first column-major largest `|entry|`.
pub fn aca(a: &Matrix, tol: f64, max_rank: usize) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let kmax = max_rank.min(m.min(n));
    let mut residual = a.clone();
    let mut us: Vec<Vec<f64>> = Vec::new();
    let mut vs: Vec<Vec<f64>> = Vec::new();

    // Residual norm^2 and the next pivot, refreshed by every cross.
    let (mut res_sq, mut pivot) = aca_scan(residual.as_slice(), m);
    for _k in 0..kmax {
        if res_sq.max(0.0).sqrt() <= tol || residual.as_slice()[pivot] == 0.0 {
            break; // converged, or the residual is exactly zero
        }
        let mut u = vec![0.0; m];
        let mut v = vec![0.0; n];
        (res_sq, pivot) = aca_cross(residual.as_mut_slice(), m, pivot, &mut u, &mut v);
        us.push(u);
        vs.push(v);
    }
    stack_columns(m, n, &us, &vs)
}

/// The cross columns gathered into the `m x k` and `n x k` factors.
fn stack_columns(m: usize, n: usize, us: &[Vec<f64>], vs: &[Vec<f64>]) -> (Matrix, Matrix) {
    let k = us.len();
    let mut u = Matrix::zeros(m, k);
    let mut v = Matrix::zeros(n, k);
    for (j, (ucol, vcol)) in us.iter().zip(vs).enumerate() {
        u.col_mut(j).copy_from_slice(ucol);
        v.col_mut(j).copy_from_slice(vcol);
    }
    (u, v)
}

/// The scalar ACA the dispatched cross kernel replaced: the bitwise oracle
/// of [`aca`] (its residual norm is a sequential sum, so only a stopping
/// test balanced on the tolerance could tell the two apart).
#[cfg(test)]
#[allow(clippy::needless_range_loop)]
pub(crate) fn aca_oracle(a: &Matrix, tol: f64, max_rank: usize) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let kmax = max_rank.min(m.min(n));
    let mut residual = a.clone();
    let mut us: Vec<Vec<f64>> = Vec::new();
    let mut vs: Vec<Vec<f64>> = Vec::new();

    let mut res_sq: f64 = residual.as_slice().iter().map(|x| x * x).sum();

    for _k in 0..kmax {
        if res_sq.max(0.0).sqrt() <= tol {
            break;
        }
        // Full pivot: largest |entry| of the residual.
        let (mut pi, mut pj, mut pval) = (0usize, 0usize, 0.0f64);
        for j in 0..n {
            let col = residual.col(j);
            for (i, &x) in col.iter().enumerate() {
                if x.abs() > pval.abs() || (pval == 0.0 && x != 0.0) {
                    pi = i;
                    pj = j;
                    pval = x;
                }
            }
        }
        if pval == 0.0 {
            break; // residual exactly zero
        }
        // Cross: u = R[:, pj] / pivot, v = R[pi, :].
        let inv = 1.0 / pval;
        let u: Vec<f64> = residual.col(pj).iter().map(|&x| x * inv).collect();
        let v: Vec<f64> = (0..n).map(|j| residual[(pi, j)]).collect();
        // R -= u v^T, recomputing the norm on the fly.
        res_sq = 0.0;
        for j in 0..n {
            let vj = v[j];
            let col = residual.col_mut(j);
            for (i, x) in col.iter_mut().enumerate() {
                *x -= u[i] * vj;
                res_sq += *x * *x;
            }
        }
        us.push(u);
        vs.push(v);
    }
    stack_columns(m, n, &us, &vs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rnd(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    /// A smooth kernel matrix (what covariance tiles look like off-diagonal):
    /// K[i,j] = 1 / (1 + |x_i - y_j|), x in [0,1], y in [3,4] — well separated
    /// clusters give rapidly decaying singular values.
    fn smooth_kernel(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f64 / m as f64;
            let y = 3.0 + j as f64 / n as f64;
            1.0 / (1.0 + (x - y).abs())
        })
    }

    #[test]
    fn exact_recovery_of_low_rank() {
        let u = rnd(30, 4, 1);
        let v = rnd(25, 4, 2);
        let a = u.matmul_t(&v);
        let (au, av) = aca(&a, 1e-12 * a.norm_fro(), 30);
        assert!(au.cols() <= 6, "rank blew up: {}", au.cols());
        let err = a.add_scaled(-1.0, &au.matmul_t(&av)).norm_fro();
        assert!(err < 1e-10 * a.norm_fro(), "err {err}");
    }

    #[test]
    fn error_bound_is_guaranteed() {
        // Full pivoting with explicit residual: the tolerance is a hard
        // bound, not a heuristic.
        for seed in 0..10u64 {
            let a = rnd(24, 18, seed);
            let tol = 0.05 * a.norm_fro();
            let (u, v) = aca(&a, tol, 24);
            let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
            assert!(err <= tol * (1.0 + 1e-12), "seed {seed}: {err} > {tol}");
        }
    }

    #[test]
    fn smooth_kernel_compresses_hard() {
        let a = smooth_kernel(64, 64);
        let tol = 1e-8 * a.norm_fro();
        let (u, v) = aca(&a, tol, 64);
        assert!(u.cols() < 20, "rank {}", u.cols());
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err <= tol, "err {err} vs tol {tol}");
    }

    #[test]
    fn handles_zero_leading_rows() {
        // Partial pivoting's classic failure: leading rows ~ zero while the
        // mass sits elsewhere.
        let mut a = Matrix::zeros(16, 16);
        for j in 0..16 {
            for i in 8..16 {
                a[(i, j)] = 1.0 / (1.0 + (i + j) as f64);
            }
        }
        let tol = 1e-10 * a.norm_fro();
        let (u, v) = aca(&a, tol, 16);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err <= tol, "err {err}");
    }

    #[test]
    fn full_rank_fallback_is_exact() {
        let a = rnd(12, 12, 3);
        let (u, v) = aca(&a, 0.0, 12);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err < 1e-9 * a.norm_fro(), "err {err}");
    }

    #[test]
    fn zero_matrix_gives_zero_rank_quickly() {
        let a = Matrix::zeros(10, 8);
        let (u, _v) = aca(&a, 1e-8, 10);
        assert_eq!(u.cols(), 0);
    }

    #[test]
    fn respects_max_rank() {
        let a = rnd(20, 20, 4);
        let (u, _v) = aca(&a, 0.0, 5);
        assert_eq!(u.cols(), 5);
    }

    #[test]
    fn rectangular_shapes() {
        for (m, n) in [(40, 10), (10, 40)] {
            let a = smooth_kernel(m, n);
            let tol = 1e-6 * a.norm_fro();
            let (u, v) = aca(&a, tol, m.min(n));
            let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
            assert!(err <= tol, "({m},{n}) err {err}");
        }
    }
}
