//! Householder QR factorization.
//!
//! Used by the low-rank "rounding" (recompression) step of TLR arithmetic:
//! after adding two low-rank terms the stacked factors are re-orthogonalized
//! with thin QR before an SVD of the small core.

use crate::matrix::Matrix;
use xgs_kernels::apply_householder;

/// Thin QR factors: `A (m x n) = Q (m x k) * R (k x n)` with `k = min(m,n)`.
pub struct QrFactors {
    pub q: Matrix,
    pub r: Matrix,
}

/// Householder QR with explicit thin-`Q` formation. Each reflector is
/// applied to the trailing columns (and later to thin `Q`) by
/// [`xgs_kernels::apply_householder`], the dispatched kernel body.
pub fn householder_qr(a: &Matrix) -> QrFactors {
    let (m, n) = a.shape();
    let k = m.min(n);
    let mut r = a.clone();
    // Householder vectors stored below the diagonal of `r`, taus aside
    // (H_j = I - tau_j v_j v_j^T).
    let mut taus = vec![0.0f64; k];

    for j in 0..k {
        // Build the reflector from r[j.., j].
        let (tau, _rdiag) = make_householder(&mut r.as_mut_slice()[j * m + j..(j + 1) * m]);
        taus[j] = tau;
        // Apply to trailing columns: r[j.., j+1..] -= tau * v (v^T r).
        if tau != 0.0 && j + 1 < n {
            let (head, trailing) = r.as_mut_slice().split_at_mut((j + 1) * m);
            apply_householder(&head[j * m + j..], tau, n - j - 1, &mut trailing[j..], m);
        }
    }

    // Accumulate thin Q by applying reflectors to the first k columns of I,
    // in reverse order. Reflector j leaves columns c < j alone: their rows
    // j.. are still exact +0.0, so the update would subtract a zero. Q
    // never holds a -0.0 (subtraction yields -0.0 only from a -0.0), so
    // the kernel's +0.0-started dot products equal plain ones here.
    let mut q = Matrix::zeros(m, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    for j in (0..k).rev() {
        if taus[j] != 0.0 {
            let v = &r.as_slice()[j * m + j..(j + 1) * m];
            apply_householder(v, taus[j], k - j, &mut q.as_mut_slice()[j * m + j..], m);
        }
    }

    // Extract upper-triangular R (k x n).
    let mut rr = Matrix::zeros(k, n);
    for j in 0..n {
        for i in 0..=j.min(k - 1) {
            rr[(i, j)] = r[(i, j)];
        }
    }
    QrFactors { q, r: rr }
}

/// Turn `x` into a Householder vector in place (LAPACK `dlarfg` style):
/// on return `x[0]` holds the resulting `R` diagonal entry, `x[1..]` the
/// reflector tail (with implicit leading 1); returns `(tau, rdiag)`.
#[allow(clippy::needless_range_loop)]
fn make_householder(x: &mut [f64]) -> (f64, f64) {
    let n = x.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let alpha = x[0];
    let xnorm = crate::matrix::norm2_scaled(&x[1..]);
    if xnorm == 0.0 {
        // Already upper-triangular in this column; reflector is identity.
        return (0.0, alpha);
    }
    let mut beta_val = -(alpha.hypot(xnorm)).copysign(alpha);
    if beta_val == 0.0 {
        beta_val = -f64::MIN_POSITIVE;
    }
    let tau = (beta_val - alpha) / beta_val;
    let inv = 1.0 / (alpha - beta_val);
    for t in 1..n {
        x[t] *= inv;
    }
    x[0] = beta_val;
    (tau, beta_val)
}

/// The scalar Householder QR the dispatched reflector kernel replaced: the
/// bitwise oracle of [`householder_qr`].
#[cfg(test)]
#[allow(clippy::needless_range_loop)]
pub(crate) fn householder_qr_oracle(a: &Matrix) -> QrFactors {
    let (m, n) = a.shape();
    let k = m.min(n);
    let mut r = a.clone();
    // Householder vectors stored below the diagonal of `r`, taus aside
    // (H_j = I - tau_j v_j v_j^T).
    let mut taus = vec![0.0f64; k];

    for j in 0..k {
        // Build the reflector from r[j.., j].
        let (tau, _rdiag) = {
            let col = &mut r.as_mut_slice()[j * m + j..(j + 1) * m];
            make_householder(col)
        };
        taus[j] = tau;
        // Apply to trailing columns: r[j.., j+1..] -= tau * v (v^T r).
        if tau != 0.0 {
            for c in j + 1..n {
                let mut dot = 0.0;
                {
                    let vcol = &r.as_slice()[j * m + j..(j + 1) * m];
                    let ccol = &r.as_slice()[c * m + j..(c + 1) * m];
                    // v[0] is implicitly 1.
                    dot += ccol[0];
                    for t in 1..vcol.len() {
                        dot += vcol[t] * ccol[t];
                    }
                }
                let scaled = tau * dot;
                // Split borrows: v lives in column j, target in column c.
                let (vcopy, clen) = {
                    let vcol = &r.as_slice()[j * m + j..(j + 1) * m];
                    (vcol.to_vec(), m - j)
                };
                let ccol = &mut r.as_mut_slice()[c * m + j..c * m + j + clen];
                ccol[0] -= scaled;
                for t in 1..clen {
                    ccol[t] -= scaled * vcopy[t];
                }
            }
        }
    }

    // Accumulate thin Q by applying reflectors to the first k columns of I,
    // in reverse order.
    let mut q = Matrix::zeros(m, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    for j in (0..k).rev() {
        let tau = taus[j];
        if tau == 0.0 {
            continue;
        }
        let vcopy: Vec<f64> = r.as_slice()[j * m + j..(j + 1) * m].to_vec();
        for c in 0..k {
            let ccol = &mut q.as_mut_slice()[c * m + j..(c + 1) * m];
            let mut dot = ccol[0];
            for t in 1..vcopy.len() {
                dot += vcopy[t] * ccol[t];
            }
            let scaled = tau * dot;
            ccol[0] -= scaled;
            for t in 1..vcopy.len() {
                ccol[t] -= scaled * vcopy[t];
            }
        }
    }

    // Extract upper-triangular R (k x n).
    let mut rr = Matrix::zeros(k, n);
    for j in 0..n {
        for i in 0..=j.min(k - 1) {
            rr[(i, j)] = r[(i, j)];
        }
    }
    QrFactors { q, r: rr }
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

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn reconstructs_tall_matrix() {
        let a = rnd(10, 4, 1);
        let QrFactors { q, r } = householder_qr(&a);
        assert_eq!(q.shape(), (10, 4));
        assert_eq!(r.shape(), (4, 4));
        assert_close(&q.matmul(&r), &a, 1e-12);
    }

    #[test]
    fn reconstructs_wide_matrix() {
        let a = rnd(3, 8, 2);
        let QrFactors { q, r } = householder_qr(&a);
        assert_eq!(q.shape(), (3, 3));
        assert_eq!(r.shape(), (3, 8));
        assert_close(&q.matmul(&r), &a, 1e-12);
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = rnd(12, 5, 3);
        let QrFactors { q, .. } = householder_qr(&a);
        let qtq = q.t_matmul(&q);
        let i = Matrix::identity(5);
        assert_close(&qtq, &i, 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = rnd(6, 6, 4);
        let QrFactors { r, .. } = householder_qr(&a);
        for j in 0..6 {
            for i in j + 1..6 {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn handles_rank_deficient_input() {
        // Two identical columns.
        let mut a = rnd(5, 1, 5);
        a = a.hcat(&a.clone());
        let QrFactors { q, r } = householder_qr(&a);
        assert_close(&q.matmul(&r), &a, 1e-12);
        // Second diagonal of R must be (numerically) zero.
        assert!(r[(1, 1)].abs() < 1e-12);
    }

    #[test]
    fn single_column() {
        let a = rnd(7, 1, 6);
        let QrFactors { q, r } = householder_qr(&a);
        assert!((q.norm_fro() - 1.0).abs() < 1e-12);
        assert!((r[(0, 0)].abs() - a.norm_fro()).abs() < 1e-12);
        assert_close(&q.matmul(&r), &a, 1e-12);
    }
}
