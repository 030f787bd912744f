//! Symmetric rank-k update, the `SYRK` kernel of Algorithm 1.
//!
//! In the tile Cholesky, `SYRK` updates a diagonal tile with a panel tile:
//! `C <- alpha * A * A^T + beta * C`, touching only the lower triangle of
//! `C` (the covariance matrix is symmetric, so only the lower half is ever
//! stored or updated).
//!
//! Large updates are blocked: `NB`-wide diagonal blocks run the unblocked
//! column loop, and every block strictly below the diagonal is a plain
//! rectangular `A_i * A_j^T` product routed through the cache-blocked
//! [`gemm`] — so SYRK inherits the packed microkernel for the bulk of its
//! flops while the strict upper triangle stays untouched.

use crate::gemm::{dispatch, gemm, Body, Trans};
use crate::Real;

/// Diagonal-block width of the blocked path; below-or-at this order the
/// unblocked loop runs directly.
const NB: usize = 64;

/// `C <- alpha * A * A^T + beta * C`, lower triangle only.
///
/// * `n` — order of `C`; `k` — number of columns of `A`.
/// * The strict upper triangle of `C` is left untouched.
#[allow(clippy::too_many_arguments)]
pub fn syrk_lower_notrans<T: Real>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    check_and_scale(n, k, a, lda, beta, c, ldc);
    if k == 0 || alpha == T::ZERO {
        return;
    }
    if n <= NB {
        syrk_core(n, k, alpha, a, lda, c, ldc);
        return;
    }
    for j0 in (0..n).step_by(NB) {
        let nb = NB.min(n - j0);
        // Diagonal block: triangular update, unblocked.
        syrk_core(nb, k, alpha, &a[j0..], lda, &mut c[j0 + j0 * ldc..], ldc);
        // Strictly-below block column: C[j0+nb.., j0 block] is a full
        // rectangle — hand it to the blocked GEMM (beta already applied).
        let mb = n - j0 - nb;
        if mb > 0 {
            gemm(
                Trans::No,
                Trans::Yes,
                mb,
                nb,
                k,
                alpha,
                &a[j0 + nb..],
                lda,
                &a[j0..],
                lda,
                T::ONE,
                &mut c[j0 * ldc + j0 + nb..],
                ldc,
            );
        }
    }
}

/// Unblocked reference: the original column loop with full semantics —
/// the oracle the blocked path is tested against.
#[allow(clippy::too_many_arguments)]
pub fn syrk_lower_notrans_naive<T: Real>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    check_and_scale(n, k, a, lda, beta, c, ldc);
    if k == 0 || alpha == T::ZERO {
        return;
    }
    syrk_core(n, k, alpha, a, lda, c, ldc);
}

fn check_and_scale<T: Real>(
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    assert!(lda >= n.max(1));
    assert!(ldc >= n.max(1));
    if k > 0 {
        assert!(a.len() >= lda * (k - 1) + n);
    }
    if n > 0 {
        assert!(c.len() >= ldc * (n - 1) + n);
    }
    if beta != T::ONE {
        for j in 0..n {
            for i in j..n {
                let idx = i + j * ldc;
                c[idx] = if beta == T::ZERO {
                    T::ZERO
                } else {
                    c[idx] * beta
                };
            }
        }
    }
}

/// Column-j of the update: `C[j.., j] += alpha * A[j.., l] * A[j, l]`
/// (beta already applied by the caller).
fn syrk_core<T: Real>(n: usize, k: usize, alpha: T, a: &[T], lda: usize, c: &mut [T], ldc: usize) {
    dispatch(SyrkCore {
        n,
        k,
        alpha,
        a,
        lda,
        c,
        ldc,
    });
}

/// [`syrk_core`]'s column loop as one dispatched body.
struct SyrkCore<'a, T> {
    n: usize,
    k: usize,
    alpha: T,
    a: &'a [T],
    lda: usize,
    c: &'a mut [T],
    ldc: usize,
}

impl<T: Real> Body for SyrkCore<'_, T> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        let SyrkCore {
            n,
            k,
            alpha,
            a,
            lda,
            c,
            ldc,
        } = self;
        for j in 0..n {
            for l in 0..k {
                let ajl = alpha * a[j + l * lda];
                if ajl == T::ZERO {
                    continue;
                }
                let acol = &a[l * lda + j..l * lda + n];
                let ccol = &mut c[j * ldc + j..j * ldc + n];
                for (ci, ai) in ccol.iter_mut().zip(acol) {
                    *ci = ai.mul_add(ajl, *ci);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_naive, Trans};

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn matches_full_gemm_on_lower_triangle() {
        let (n, k) = (9, 6);
        let a = fill(n * k, 1);
        let mut c_syrk = fill(n * n, 2);
        // Symmetrize the seed so the GEMM oracle agrees on the lower part.
        let mut c_full = c_syrk.clone();
        gemm_naive(
            Trans::No,
            Trans::Yes,
            n,
            n,
            k,
            0.9,
            &a,
            n,
            &a,
            n,
            0.4,
            &mut c_full,
            n,
        );
        syrk_lower_notrans(n, k, 0.9, &a, n, 0.4, &mut c_syrk, n);
        for j in 0..n {
            for i in j..n {
                assert!((c_syrk[i + j * n] - c_full[i + j * n]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn blocked_matches_naive_beyond_block_size() {
        // n > NB with awkward remainders, padded ldc, negative alpha (the
        // trailing-update signature used by the tile Cholesky).
        let (n, k) = (NB * 2 + 13, 37);
        let (lda, ldc) = (n + 3, n + 5);
        let a = fill(lda * k, 7);
        let mut c1 = fill(ldc * n, 8);
        let mut c2 = c1.clone();
        syrk_lower_notrans(n, k, -1.0, &a, lda, 1.0, &mut c1, ldc);
        syrk_lower_notrans_naive(n, k, -1.0, &a, lda, 1.0, &mut c2, ldc);
        for j in 0..n {
            for i in j..n {
                let idx = i + j * ldc;
                assert!(
                    (c1[idx] - c2[idx]).abs() < 1e-10,
                    "({i},{j}): {} vs {}",
                    c1[idx],
                    c2[idx]
                );
            }
        }
    }

    #[test]
    fn upper_triangle_untouched() {
        let (n, k) = (5, 3);
        let a = fill(n * k, 3);
        let mut c = fill(n * n, 4);
        let before = c.clone();
        syrk_lower_notrans(n, k, 1.0, &a, n, -2.0, &mut c, n);
        for j in 0..n {
            for i in 0..j {
                assert_eq!(c[i + j * n], before[i + j * n]);
            }
        }
    }

    #[test]
    fn upper_triangle_untouched_blocked() {
        let (n, k) = (NB + 21, 16);
        let a = fill(n * k, 9);
        let mut c = fill(n * n, 10);
        let before = c.clone();
        syrk_lower_notrans(n, k, 1.0, &a, n, -2.0, &mut c, n);
        for j in 0..n {
            for i in 0..j {
                assert_eq!(c[i + j * n], before[i + j * n]);
            }
        }
    }

    #[test]
    fn produces_positive_semidefinite_update() {
        // C = A A^T must have nonnegative diagonal.
        let (n, k) = (8, 4);
        let a = fill(n * k, 5);
        let mut c = vec![0f64; n * n];
        syrk_lower_notrans(n, k, 1.0, &a, n, 0.0, &mut c, n);
        for i in 0..n {
            assert!(c[i + i * n] >= 0.0);
        }
    }
}
