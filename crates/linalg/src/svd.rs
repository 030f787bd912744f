//! Singular value decomposition via one-sided Jacobi.
//!
//! One-sided Jacobi is simple and numerically robust. It is the oracle
//! against which the ACA compressor is validated, and the engine of the
//! low-rank recompression ("rounding") step, where it only ever sees the
//! small `k x k` core. It is *not* cheap on a full tile: a full-rank
//! 160 x 160 SVD takes tens of milliseconds on one x86 core, more than ten
//! ACA compressions of such a tile. So the TLR factorization never runs it
//! on a dense tile: `compress_svd` is only a generation option, and the
//! Cholesky GEMM compresses dense updates with ACA. The sweeps run in
//! [`xgs_kernels::jacobi_sweep`], the dispatched kernel body.

use crate::matrix::{norm2_scaled, Matrix};
use crate::qr::{householder_qr, QrFactors};
use xgs_kernels::jacobi_sweep;

/// Sweep cap of the Jacobi iteration.
const MAX_SWEEPS: usize = 60;

/// Thin SVD: `A (m x n) = U (m x k) * diag(s) * V^T (k x n)`, `k = min(m,n)`,
/// singular values sorted descending.
pub struct Svd {
    pub u: Matrix,
    pub s: Vec<f64>,
    pub v: Matrix,
}

impl Svd {
    /// Reassemble `U * diag(s) * V^T`.
    pub fn reconstruct(&self) -> Matrix {
        let k = self.s.len();
        let mut us = self.u.clone();
        for j in 0..k {
            let sj = self.s[j];
            for x in us.col_mut(j) {
                *x *= sj;
            }
        }
        us.matmul_t(&self.v)
    }

    /// Smallest rank whose tail of singular values satisfies
    /// `sqrt(sum_{i>=r} s_i^2) <= tol` (absolute Frobenius tolerance).
    pub fn rank_for_tolerance(&self, tol: f64) -> usize {
        let mut tail = 0.0f64;
        // Walk from the smallest singular value backwards.
        let mut r = self.s.len();
        while r > 0 {
            let cand = tail + self.s[r - 1] * self.s[r - 1];
            if cand.sqrt() > tol {
                break;
            }
            tail = cand;
            r -= 1;
        }
        r
    }
}

/// One-sided Jacobi SVD.
///
/// For tall matrices a QR preconditioning step reduces the work to an
/// `n x n` problem. Sweeps rotate column pairs until all off-diagonal
/// Gram entries are negligible.
pub fn jacobi_svd(a: &Matrix) -> Svd {
    jacobi_svd_by(a, householder_qr, |n, w, v| jacobi_sweep(n, n, w, n, v))
}

/// [`jacobi_svd`] over a given QR and sweep (`sweep(n, w, v)` runs one
/// sweep over the `n x n` `w` and `v`, returning the convergence measure),
/// so the tests can run it on the scalar oracles.
fn jacobi_svd_by(
    a: &Matrix,
    qr: fn(&Matrix) -> QrFactors,
    sweep: fn(usize, &mut [f64], &mut [f64]) -> f64,
) -> Svd {
    let (m, n) = a.shape();
    if m < n {
        // Work on the transpose and swap U/V.
        let svd = jacobi_svd_by(&a.transpose(), qr, sweep);
        return Svd {
            u: svd.v,
            s: svd.s,
            v: svd.u,
        };
    }
    if n == 0 {
        return Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(0, 0),
        };
    }

    // QR preconditioning: A = Q R, SVD of R (n x n), U = Q * U_r.
    let qr = qr(a);
    let mut w = qr.r.clone(); // n x n working copy, columns become U*S
    let mut v = Matrix::identity(n);

    for _sweep in 0..MAX_SWEEPS {
        if sweep(n, w.as_mut_slice(), v.as_mut_slice()) <= f64::EPSILON * 8.0 {
            break;
        }
    }

    // Column norms are the singular values; normalize to get U_r.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n).map(|j| norm2_scaled(w.col(j))).collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

    let mut s = Vec::with_capacity(n);
    let mut ur = Matrix::zeros(n, n);
    let mut vs = Matrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        let sj = norms[old_j];
        s.push(sj);
        if sj > 0.0 {
            let inv = 1.0 / sj;
            for (dst, src) in ur.col_mut(new_j).iter_mut().zip(w.col(old_j)) {
                *dst = src * inv;
            }
        }
        vs.col_mut(new_j).copy_from_slice(v.col(old_j));
    }

    Svd {
        u: qr.q.matmul(&ur),
        s,
        v: vs,
    }
}

/// Rank-truncated SVD approximation to absolute Frobenius tolerance `tol`:
/// returns `(U*sqrt(S), V*sqrt(S))`-style factors — concretely `(U_k scaled
/// by s_k, V_k)` such that `A ≈ U V^T` — along with the chosen rank.
///
/// This is the compression oracle: `||A - U V^T||_F <= tol` by the
/// Eckart–Young theorem.
pub fn truncated_svd(a: &Matrix, tol: f64) -> (Matrix, Matrix, usize) {
    let svd = jacobi_svd(a);
    let k = svd.rank_for_tolerance(tol);
    let mut u = svd.u.truncate_cols(k);
    let v = svd.v.truncate_cols(k);
    for j in 0..k {
        let sj = svd.s[j];
        for x in u.col_mut(j) {
            *x *= sj;
        }
    }
    (u, v, k)
}

/// The scalar Jacobi SVD the dispatched sweep replaced: the bitwise
/// oracle of [`jacobi_svd`].
#[cfg(test)]
pub(crate) fn jacobi_svd_oracle(a: &Matrix) -> Svd {
    jacobi_svd_by(a, crate::qr::householder_qr_oracle, oracle_sweep)
}

#[cfg(test)]
fn oracle_sweep(n: usize, w: &mut [f64], v: &mut [f64]) -> f64 {
    let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    let eps = f64::EPSILON;
    let mut off = 0.0f64;
    for p in 0..n {
        for q in (p + 1)..n {
            // Gram entries of columns p, q.
            let (app, aqq, apq) = {
                let cp = &w[p * n..(p + 1) * n];
                let cq = &w[q * n..(q + 1) * n];
                (dot(cp, cp), dot(cq, cq), dot(cp, cq))
            };
            let denom = (app * aqq).sqrt();
            if denom > 0.0 {
                off = off.max(apq.abs() / denom);
            }
            if apq.abs() <= eps * denom || denom == 0.0 {
                continue;
            }
            // Jacobi rotation zeroing the (p,q) Gram entry.
            let zeta = (aqq - app) / (2.0 * apq);
            let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
            let c = 1.0 / (1.0 + t * t).sqrt();
            let s = c * t;
            rotate_cols(w, n, p, q, c, s);
            rotate_cols(v, n, p, q, c, s);
        }
    }
    off
}

#[cfg(test)]
fn rotate_cols(m: &mut [f64], rows: usize, p: usize, q: usize, c: f64, s: f64) {
    let (a, b) = m.split_at_mut(q * rows);
    let (pc, qc) = (&mut a[p * rows..p * rows + rows], &mut b[..rows]);
    for (x, y) in pc.iter_mut().zip(qc.iter_mut()) {
        let xp = c * *x - s * *y;
        let yq = s * *x + c * *y;
        *x = xp;
        *y = yq;
    }
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

    #[test]
    fn reconstructs_random_square() {
        let a = rnd(9, 9, 1);
        let svd = jacobi_svd(&a);
        let r = svd.reconstruct();
        for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-11);
        }
    }

    #[test]
    fn reconstructs_tall_and_wide() {
        for (m, n, seed) in [(12, 5, 2), (5, 12, 3)] {
            let a = rnd(m, n, seed);
            let svd = jacobi_svd(&a);
            assert_eq!(svd.u.shape(), (m, m.min(n)));
            assert_eq!(svd.v.shape(), (n, m.min(n)));
            let r = svd.reconstruct();
            for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
                assert!((x - y).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = rnd(10, 7, 4);
        let svd = jacobi_svd(&a);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn orthonormal_factors() {
        let a = rnd(8, 6, 5);
        let svd = jacobi_svd(&a);
        let utu = svd.u.t_matmul(&svd.u);
        let vtv = svd.v.t_matmul(&svd.v);
        let i = Matrix::identity(6);
        for (x, y) in utu.as_slice().iter().zip(i.as_slice()) {
            assert!((x - y).abs() < 1e-11);
        }
        for (x, y) in vtv.as_slice().iter().zip(i.as_slice()) {
            assert!((x - y).abs() < 1e-11);
        }
    }

    #[test]
    fn recovers_known_singular_values() {
        // Diagonal matrix: singular values are |diag| sorted.
        let mut a = Matrix::zeros(5, 5);
        let d = [3.0, -7.0, 0.5, 2.0, 0.0];
        for (i, &v) in d.iter().enumerate() {
            a[(i, i)] = v;
        }
        let svd = jacobi_svd(&a);
        let expect = [7.0, 3.0, 2.0, 0.5, 0.0];
        for (got, want) in svd.s.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn exact_low_rank_is_detected() {
        // Rank-3 matrix built from outer products.
        let u = rnd(20, 3, 6);
        let v = rnd(15, 3, 7);
        let a = u.matmul_t(&v);
        let svd = jacobi_svd(&a);
        assert!(svd.s[2] > 1e-8);
        assert!(svd.s[3] < 1e-10 * svd.s[0]);
        let r = svd.rank_for_tolerance(1e-8 * svd.s[0]);
        assert_eq!(r, 3);
    }

    #[test]
    fn truncated_svd_meets_tolerance() {
        let a = rnd(16, 16, 8);
        let tol = 0.3 * a.norm_fro();
        let (u, v, k) = truncated_svd(&a, tol);
        assert!(k < 16);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err <= tol * (1.0 + 1e-10), "err {err} > tol {tol}");
    }

    #[test]
    fn truncated_svd_zero_tolerance_keeps_full_rank() {
        let a = rnd(6, 6, 9);
        let (u, v, k) = truncated_svd(&a, 0.0);
        assert_eq!(k, 6);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err < 1e-11);
    }

    #[test]
    fn rank_for_tolerance_edges() {
        let svd = Svd {
            u: Matrix::identity(3),
            s: vec![4.0, 2.0, 1.0],
            v: Matrix::identity(3),
        };
        assert_eq!(svd.rank_for_tolerance(0.5), 3);
        assert_eq!(svd.rank_for_tolerance(1.0), 2);
        // sqrt(1+4) ~ 2.236
        assert_eq!(svd.rank_for_tolerance(2.3), 1);
        assert_eq!(svd.rank_for_tolerance(100.0), 0);
    }
}
