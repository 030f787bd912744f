//! Cholesky factorization of a single tile (`POTRF`).
//!
//! `A = L * L^T` with `A` symmetric positive definite; only the lower
//! triangle of `A` is read and it is overwritten by `L`. Small tiles run
//! the right-looking unblocked algorithm; beyond `NB` the factorization is
//! blocked — unblocked diagonal factor, [`trsm_right_lower_trans`] panel
//! solve, [`syrk_lower_notrans`] trailing update — so the O(n³) bulk of a
//! large factorization flows through the cache-blocked GEMM microkernels
//! instead of the column-at-a-time loop.

use crate::gemm::{dispatch, Body};
use crate::syrk::syrk_lower_notrans;
use crate::trsm::trsm_right_lower_trans;
use crate::Real;

/// Panel width of the blocked factorization; at or below this order the
/// unblocked right-looking loop runs directly.
const NB: usize = 64;

/// Failure of a tile Cholesky: the matrix is not (numerically) positive
/// definite. Carries the 0-based index of the offending pivot, like
/// LAPACK's `info`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PotrfError {
    /// Index of the first non-positive pivot.
    pub pivot: usize,
}

impl std::fmt::Display for PotrfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: leading minor {} is not positive",
            self.pivot + 1
        )
    }
}

impl std::error::Error for PotrfError {}

/// Factor the lower triangle in place: `A <- L` with `A = L L^T`.
pub fn potrf<T: Real>(n: usize, a: &mut [T], lda: usize) -> Result<(), PotrfError> {
    assert!(lda >= n.max(1));
    if n > 0 {
        assert!(a.len() >= lda * (n - 1) + n);
    }
    if n <= NB {
        return potrf_core(n, a, lda);
    }
    for j0 in (0..n).step_by(NB) {
        let nb = NB.min(n - j0);
        potrf_core(nb, &mut a[j0 + j0 * lda..], lda).map_err(|e| PotrfError {
            pivot: j0 + e.pivot,
        })?;
        let mb = n - j0 - nb;
        if mb == 0 {
            continue;
        }
        // Panel solve: A[j0+nb.., j0 block] <- A · L_diag^{-T}. The diag
        // block shares columns with the panel inside `a`, so solve against
        // a small copy of it.
        let mut diag = vec![T::ZERO; nb * nb];
        for j in 0..nb {
            diag[j * nb..j * nb + nb]
                .copy_from_slice(&a[j0 + (j0 + j) * lda..j0 + (j0 + j) * lda + nb]);
        }
        trsm_right_lower_trans(mb, nb, T::ONE, &diag, nb, &mut a[j0 + nb + j0 * lda..], lda);
        // Trailing update: A[j0+nb.., j0+nb..] -= panel · panel^T. Panel
        // columns sit strictly left of the trailing block, so a column
        // split gives disjoint borrows.
        let (panel_cols, trailing_cols) = a.split_at_mut((j0 + nb) * lda);
        syrk_lower_notrans(
            mb,
            nb,
            -T::ONE,
            &panel_cols[j0 + nb + j0 * lda..],
            lda,
            T::ONE,
            &mut trailing_cols[j0 + nb..],
            lda,
        );
    }
    Ok(())
}

/// Unblocked right-looking factorization — the reference the blocked path
/// is tested against, and its diagonal-block solver.
pub fn potrf_unblocked<T: Real>(n: usize, a: &mut [T], lda: usize) -> Result<(), PotrfError> {
    assert!(lda >= n.max(1));
    if n > 0 {
        assert!(a.len() >= lda * (n - 1) + n);
    }
    potrf_core(n, a, lda)
}

fn potrf_core<T: Real>(n: usize, a: &mut [T], lda: usize) -> Result<(), PotrfError> {
    dispatch(PotrfCore { n, a, lda })
}

/// The right-looking column loop as one dispatched body.
struct PotrfCore<'a, T> {
    n: usize,
    a: &'a mut [T],
    lda: usize,
}

impl<T: Real> Body for PotrfCore<'_, T> {
    type Out = Result<(), PotrfError>;
    #[inline(always)]
    fn run(self) -> Self::Out {
        let PotrfCore { n, a, lda } = self;
        for j in 0..n {
            // d = A[j,j] - sum_{p<j} L[j,p]^2
            let mut d = a[j + j * lda];
            for p in 0..j {
                let ljp = a[j + p * lda];
                d = (-ljp).mul_add(ljp, d);
            }
            // NaN must fail too, hence the negated comparison (not `d <= 0`).
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(d > T::ZERO) || !d.to_f64().is_finite() {
                return Err(PotrfError { pivot: j });
            }
            let ljj = d.sqrt();
            a[j + j * lda] = ljj;
            let inv = T::ONE / ljj;
            // Column below the pivot: L[i,j] = (A[i,j] - sum L[i,p] L[j,p]) / L[j,j]
            for p in 0..j {
                let ljp = a[j + p * lda];
                if ljp == T::ZERO {
                    continue;
                }
                // a[j+1.., j] -= ljp * a[j+1.., p]; columns are disjoint.
                let (lo, hi) = a.split_at_mut(j * lda);
                let pcol = &lo[p * lda + j + 1..p * lda + n];
                let jcol = &mut hi[j + 1..n];
                for (x, y) in jcol.iter_mut().zip(pcol) {
                    *x = (-ljp).mul_add(*y, *x);
                }
            }
            for i in j + 1..n {
                let idx = i + j * lda;
                a[idx] = a[idx] * inv;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Trans};

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(0x5851F42D4C957F2D)
                    .wrapping_add(0x14057B7EF767814F);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// Random SPD matrix: B B^T + n*I.
    fn spd(n: usize, seed: u64) -> Vec<f64> {
        let b = fill(n * n, seed);
        let mut a = vec![0f64; n * n];
        gemm(
            Trans::No,
            Trans::Yes,
            n,
            n,
            n,
            1.0,
            &b,
            n,
            &b,
            n,
            0.0,
            &mut a,
            n,
        );
        for i in 0..n {
            a[i + i * n] += n as f64;
        }
        a
    }

    #[test]
    fn reconstructs_spd_matrix() {
        let n = 12;
        let a = spd(n, 1);
        let mut l = a.clone();
        potrf(n, &mut l, n).unwrap();
        // Zero the strict upper triangle of L before forming L L^T (potrf
        // leaves the original upper half in place).
        for j in 0..n {
            for i in 0..j {
                l[i + j * n] = 0.0;
            }
        }
        let mut rec = vec![0f64; n * n];
        gemm(
            Trans::No,
            Trans::Yes,
            n,
            n,
            n,
            1.0,
            &l,
            n,
            &l,
            n,
            0.0,
            &mut rec,
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!(
                    (rec[i + j * n] - a[i + j * n]).abs() < 1e-10,
                    "({i},{j}): {} vs {}",
                    rec[i + j * n],
                    a[i + j * n]
                );
            }
        }
    }

    #[test]
    fn blocked_reconstructs_spd_beyond_block_size() {
        // n > NB with an awkward remainder and a padded leading dimension:
        // the blocked potrf (trsm panel + syrk trailing through blocked
        // gemm) must still produce a valid Cholesky factor.
        let n = NB * 2 + 19;
        let lda = n + 3;
        let dense = spd(n, 6);
        let mut a = vec![0f64; lda * n];
        for j in 0..n {
            a[j * lda..j * lda + n].copy_from_slice(&dense[j * n..j * n + n]);
        }
        let pad = a.clone();
        potrf(n, &mut a, lda).unwrap();
        // Reconstruct.
        let mut l = vec![0f64; n * n];
        for j in 0..n {
            for i in j..n {
                l[i + j * n] = a[i + j * lda];
            }
        }
        let mut rec = vec![0f64; n * n];
        gemm(
            Trans::No,
            Trans::Yes,
            n,
            n,
            n,
            1.0,
            &l,
            n,
            &l,
            n,
            0.0,
            &mut rec,
            n,
        );
        let scale = n as f64;
        for j in 0..n {
            for i in j..n {
                assert!(
                    (rec[i + j * n] - dense[i + j * n]).abs() < 1e-9 * scale,
                    "({i},{j}): {} vs {}",
                    rec[i + j * n],
                    dense[i + j * n]
                );
            }
        }
        // Padding rows between columns must be untouched.
        for j in 0..n {
            for i in n..lda {
                assert_eq!(a[i + j * lda], pad[i + j * lda]);
            }
        }
    }

    #[test]
    fn blocked_stays_close_to_unblocked() {
        let n = NB + 41;
        let dense = spd(n, 7);
        let mut blocked = dense.clone();
        let mut unblocked = dense.clone();
        potrf(n, &mut blocked, n).unwrap();
        potrf_unblocked(n, &mut unblocked, n).unwrap();
        for j in 0..n {
            for i in j..n {
                let idx = i + j * n;
                assert!(
                    (blocked[idx] - unblocked[idx]).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    blocked[idx],
                    unblocked[idx]
                );
            }
        }
    }

    #[test]
    fn blocked_reports_offset_pivot() {
        // SPD leading block, then a strongly negative pivot past the first
        // panel: the reported pivot index must be global, not block-local.
        let n = NB + 10;
        let mut a = vec![0f64; n * n];
        for i in 0..n {
            a[i + i * n] = 1.0;
        }
        let bad = NB + 3;
        a[bad + bad * n] = -4.0;
        let err = potrf(n, &mut a, n).unwrap_err();
        assert_eq!(err.pivot, bad);
    }

    #[test]
    fn detects_indefinite_matrix() {
        // Diagonal with a negative entry at position 2.
        let n = 4;
        let mut a = vec![0f64; n * n];
        for i in 0..n {
            a[i + i * n] = 1.0;
        }
        a[2 + 2 * n] = -1.0;
        let err = potrf(n, &mut a, n).unwrap_err();
        assert_eq!(err.pivot, 2);
    }

    #[test]
    fn detects_nan() {
        let n = 3;
        let mut a = vec![0f64; n * n];
        for i in 0..n {
            a[i + i * n] = 1.0;
        }
        a[1 + n] = f64::NAN;
        assert!(potrf(n, &mut a, n).is_err());
    }

    #[test]
    fn one_by_one() {
        let mut a = [4.0f64];
        potrf(1, &mut a, 1).unwrap();
        assert_eq!(a[0], 2.0);
        let mut bad = [-1.0f64];
        assert!(potrf(1, &mut bad, 1).is_err());
    }

    #[test]
    fn identity_is_its_own_factor() {
        let n = 5;
        let mut a = vec![0f64; n * n];
        for i in 0..n {
            a[i + i * n] = 1.0;
        }
        potrf(n, &mut a, n).unwrap();
        for i in 0..n {
            assert_eq!(a[i + i * n], 1.0);
        }
    }

    #[test]
    fn works_in_f32() {
        let n = 8;
        let a64 = spd(n, 2);
        let mut a32: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
        potrf(n, &mut a32, n).unwrap();
        let mut ref64 = a64.clone();
        potrf(n, &mut ref64, n).unwrap();
        for j in 0..n {
            for i in j..n {
                assert!((a32[i + j * n] as f64 - ref64[i + j * n]).abs() < 1e-3);
            }
        }
    }
}
