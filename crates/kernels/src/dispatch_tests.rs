//! The dispatched kernels against their generic instantiation, bit for bit,
//! at sizes on both sides of every blocking constant: `BLOCK_MIN_MK`
//! (48 x 48), the `MR`/`NR` register tile (8 x 4), `KC` (256), `MC` (128)
//! and the `NB` = 64 diagonal blocks of POTRF, SYRK and TRSM; and for the
//! decomposition bodies of `decomp`, the 4-column reflector block and the
//! 8-lane ACA pass. On a CPU without AVX2+FMA both sides run the generic
//! instantiation.

use crate::gemm::{generic_only, kernel_path};
use crate::{
    gemm, gemm_naive, potrf, shgemm, syrk_lower_notrans, trsm_left_lower_notrans,
    trsm_left_lower_notrans_unblocked, trsm_left_lower_trans, trsm_left_lower_trans_unblocked,
    trsm_right_lower_trans, trsm_right_lower_trans_unblocked, Half, Real, Trans,
};

trait Bits: Real {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        self.to_bits().into()
    }
}

fn fill<T: Real>(len: usize, seed: u64) -> Vec<T> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            T::from_f64(((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0)
        })
        .collect()
}

/// Run `kernel` on two copies of `init`, dispatched and generic, and
/// require bitwise equal results.
fn check<T: Bits>(what: &str, init: &[T], kernel: impl Fn(&mut [T])) {
    let mut dispatched = init.to_vec();
    kernel(&mut dispatched);
    let mut generic = init.to_vec();
    generic_only(|| kernel(&mut generic));
    for (i, (x, y)) in dispatched.iter().zip(&generic).enumerate() {
        assert_eq!(x.bits(), y.bits(), "{what}: element {i}: {x:?} vs {y:?}");
    }
}

const TRANSPOSES: [(Trans, Trans); 4] = [
    (Trans::No, Trans::No),
    (Trans::No, Trans::Yes),
    (Trans::Yes, Trans::No),
    (Trans::Yes, Trans::Yes),
];

/// `(m, n, k)`: 48 x 47 stays naive and 48 x 48 blocks; m and n sit on
/// and beside multiples of `MR`, `NR` and `MC`; k on and beside `KC`.
const GEMM_SIZES: [(usize, usize, usize); 7] = [
    (7, 3, 5),
    (9, 5, 47),
    (48, 4, 47),
    (48, 5, 48),
    (65, 9, 255),
    (64, 3, 256),
    (129, 13, 257),
];

/// Orders on both sides of the `NB` = 64 diagonal blocks.
const ORDERS: [usize; 5] = [9, 63, 64, 65, 150];

fn gemm_all<T: Bits>() {
    for (m, n, k) in GEMM_SIZES {
        for (ta, tb) in TRANSPOSES {
            let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
            let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
            let (lda, ldb, ldc) = (ar + 1, br + 2, m + 3);
            let a = fill::<T>(lda * ac, 1);
            let b = fill::<T>(ldb * bc, 2);
            let c = fill::<T>(ldc * n, 3);
            let (alpha, beta) = (T::from_f64(0.7), T::from_f64(-1.3));
            check(&format!("gemm {ta:?}{tb:?} {m}x{n}x{k}"), &c, |c| {
                gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, c, ldc)
            });
            check(&format!("gemm_naive {ta:?}{tb:?} {m}x{n}x{k}"), &c, |c| {
                gemm_naive(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, c, ldc)
            });
        }
    }
}

/// A well-conditioned SPD `n x n` matrix: `B B^T / n + I`.
fn spd<T: Real>(n: usize) -> Vec<T> {
    let b = fill::<T>(n * n, 4);
    let mut a = vec![T::ZERO; n * n];
    let scale = T::from_f64(1.0 / n as f64);
    gemm(
        Trans::No,
        Trans::Yes,
        n,
        n,
        n,
        scale,
        &b,
        n,
        &b,
        n,
        T::ZERO,
        &mut a,
        n,
    );
    for i in 0..n {
        a[i + i * n] += T::ONE;
    }
    a
}

/// A lower triangle with a dominant diagonal, leading dimension `n + 1`.
fn lower<T: Real>(n: usize) -> Vec<T> {
    let ld = n + 1;
    let mut l = fill::<T>(ld * n, 5);
    for j in 0..n {
        for i in 0..j {
            l[i + j * ld] = T::ZERO;
        }
        l[j + j * ld] = T::from_f64(2.0) + l[j + j * ld].abs();
    }
    l
}

fn factor_kernels_all<T: Bits>() {
    for n in ORDERS {
        check(&format!("potrf {n}"), &spd::<T>(n), |a| {
            potrf(n, a, n).expect("SPD by construction")
        });
        let k = n / 2 + 7;
        let a = fill::<T>((n + 2) * k, 6);
        let c = fill::<T>(n * n, 7);
        for (alpha, beta) in [(-1.0, 1.0), (0.7, 0.4)] {
            let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
            check(&format!("syrk {n}x{k}"), &c, |c| {
                syrk_lower_notrans(n, k, alpha, &a, n + 2, beta, c, n)
            });
        }
        let l = lower::<T>(n);
        let ldl = n + 1;
        type Solve<T> = fn(usize, usize, T, &[T], usize, &mut [T], usize);
        let left: [(&str, Solve<T>); 4] = [
            ("left notrans", trsm_left_lower_notrans),
            ("left notrans unblocked", trsm_left_lower_notrans_unblocked),
            ("left trans", trsm_left_lower_trans),
            ("left trans unblocked", trsm_left_lower_trans_unblocked),
        ];
        let right: [(&str, Solve<T>); 2] = [
            ("right trans", trsm_right_lower_trans),
            ("right trans unblocked", trsm_right_lower_trans_unblocked),
        ];
        for rhs in [1, 7] {
            let alpha = T::from_f64(1.5);
            let b = fill::<T>((n + 2) * rhs, 8);
            for (name, solve) in left {
                check(&format!("trsm {name} {n}x{rhs}"), &b, |b| {
                    solve(n, rhs, alpha, &l, ldl, b, n + 2)
                });
            }
            let b = fill::<T>((rhs + 2) * n, 9);
            for (name, solve) in right {
                check(&format!("trsm {name} {rhs}x{n}"), &b, |b| {
                    solve(rhs, n, alpha, &l, ldl, b, rhs + 2)
                });
            }
        }
    }
}

#[test]
fn generic_only_selects_the_generic_instantiation() {
    assert_eq!(generic_only(kernel_path), "generic");
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        kernel_path() == "avx2+fma",
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    );
}

#[test]
fn dispatched_gemm_is_bitwise_generic() {
    gemm_all::<f64>();
    gemm_all::<f32>();
}

#[test]
fn dispatched_factor_kernels_are_bitwise_generic() {
    factor_kernels_all::<f64>();
    factor_kernels_all::<f32>();
}

#[test]
fn dispatched_shgemm_is_bitwise_generic() {
    for (m, n, k) in GEMM_SIZES {
        for (ta, tb) in TRANSPOSES {
            let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
            let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
            let half = |v: Vec<f32>| -> Vec<Half> { v.into_iter().map(Half::from_f32).collect() };
            let a = half(fill(ar * ac, 10));
            let b = half(fill(br * bc, 11));
            check(
                &format!("shgemm {ta:?}{tb:?} {m}x{n}x{k}"),
                &fill::<f32>(m * n, 12),
                |c| shgemm(ta, tb, m, n, k, 0.9, &a, ar, &b, br, 0.5, c, m),
            );
        }
    }
}

/// Reflector lengths and column counts on both sides of the 4-column
/// block; the leading dimension pads each column by 2.
#[test]
fn dispatched_householder_is_bitwise_generic() {
    for len in [1, 2, 7, 64, 161] {
        for ncols in [1, 3, 4, 5, 8, 9, 63] {
            let v = fill::<f64>(len, 13);
            let ldc = len + 2;
            check(
                &format!("householder {len}x{ncols}"),
                &fill::<f64>(ldc * ncols, 14),
                |c| crate::apply_householder(&v, 1.3, ncols, c, ldc),
            );
        }
    }
}

/// Three sweeps over a square and a tall block; the buffer holds `w`,
/// then `v`, then each sweep's convergence measure.
#[test]
fn dispatched_jacobi_sweep_is_bitwise_generic() {
    for (rows, n) in [(1, 1), (5, 5), (9, 4), (64, 64), (70, 33)] {
        let mut init = fill::<f64>(rows * n, 15);
        for j in 0..n {
            init.extend((0..n).map(|i| if i == j { 1.0 } else { 0.0 }));
        }
        init.extend([0.0; 3]);
        check(&format!("jacobi sweep {rows}x{n}"), &init, |buf| {
            let (w, rest) = buf.split_at_mut(rows * n);
            let (v, offs) = rest.split_at_mut(n * n);
            for off in offs {
                *off = crate::jacobi_sweep(rows, n, w, n, v);
            }
        });
    }
}

/// A scan and four crosses over residuals whose heights sit on and beside
/// the 8-lane pass; the buffer holds the residual, each cross's `u` and
/// `v`, and each pass's sum of squares and pivot.
#[test]
fn dispatched_aca_steps_are_bitwise_generic() {
    const CROSSES: usize = 4;
    for (m, n) in [(1, 5), (7, 9), (8, 8), (9, 4), (160, 160), (161, 20)] {
        let mut init = fill::<f64>(m * n, 16);
        init.resize(m * n + CROSSES * (m + n + 2) + 2, 0.0);
        check(&format!("aca {m}x{n}"), &init, |buf| {
            let (r, mut out) = buf.split_at_mut(m * n);
            let (mut sq, mut piv) = crate::aca_scan(r, m);
            for _ in 0..CROSSES.min(m).min(n) {
                let (u, rest) = out.split_at_mut(m);
                let (v, rest) = rest.split_at_mut(n);
                let (step, rest) = rest.split_at_mut(2);
                step[0] = sq;
                step[1] = piv as f64;
                (sq, piv) = crate::aca_cross(r, m, piv, u, v);
                out = rest;
            }
            out[0] = sq;
            out[1] = piv as f64;
        });
    }
}
