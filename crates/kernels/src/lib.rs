//! From-scratch BLAS-like tile kernels for the mixed-precision tile Cholesky.
//!
//! This crate is the lowest substrate of the reproduction: LAPACK/BLAS-style
//! dense kernels (`GEMM`, `SYRK`, `TRSM`, `POTRF`) operating on column-major
//! slices, in three arithmetics:
//!
//! * **FP64** — the reference precision of the paper's dense variant,
//! * **FP32** — the intermediate precision,
//! * **FP16** — emulated IEEE binary16 ([`half::Half`]). Multiplication
//!   operands are *trimmed* to binary16 and products are accumulated in FP32,
//!   matching the paper's SHGEMM semantics (§VI-E and Fig. 8: "we trim the
//!   operands of the GEMM kernel to FP16 and call an SGEMM BLAS routine to
//!   accumulate in FP32").
//!
//! [`decomp`] adds the FP64 loop bodies of the decompositions behind TLR
//! compression (Householder QR, one-sided Jacobi SVD, ACA), so they share
//! the kernels' instruction-set dispatch.
//!
//! All matrices are column-major with an explicit leading dimension, exactly
//! like LAPACK, so a tile is addressed as `a[i + j * lda]`.

pub mod convert;
pub mod decomp;
#[cfg(test)]
mod dispatch_tests;
pub mod gemm;
pub mod half;
pub mod potrf;
pub mod precision;
pub mod syrk;
pub mod trsm;

pub use convert::{
    demote_f32_to_f16, demote_f64_to_f16, demote_f64_to_f32, promote_f16_to_f32,
    promote_f16_to_f64, promote_f32_to_f64,
};
pub use decomp::{aca_cross, aca_scan, apply_householder, jacobi_sweep};
pub use gemm::{gemm, gemm_naive, gemm_notrans, kernel_path, shgemm, Trans};
pub use half::Half;
pub use potrf::{potrf, potrf_unblocked, PotrfError};
pub use precision::Precision;
pub use syrk::{syrk_lower_notrans, syrk_lower_notrans_naive};
pub use trsm::{
    trsm_left_lower_notrans, trsm_left_lower_notrans_unblocked, trsm_left_lower_trans,
    trsm_left_lower_trans_unblocked, trsm_right_lower_trans, trsm_right_lower_trans_unblocked,
};

/// A real scalar type usable by the generic kernels (FP64 or FP32).
///
/// FP16 is intentionally *not* a `Real`: the emulated binary16 kernels
/// always accumulate in FP32 (see [`gemm::shgemm`]), so there is no
/// "pure f16" arithmetic anywhere, mirroring the paper's observation that
/// Fugaku's pure-FP16 HGEMM is unusable for MLE and FP32 accumulation is
/// required.
pub trait Real:
    Copy
    + Send
    + Sync
    + PartialOrd
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + 'static
{
    const ZERO: Self;
    const ONE: Self;
    const PRECISION: Precision;
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn sqrt(self) -> Self;
    fn abs(self) -> Self;
    fn mul_add(self, a: Self, b: Self) -> Self;
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const PRECISION: Precision = Precision::F64;
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const PRECISION: Precision = Precision::F32;
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
}

/// Number of floating-point operations of a real `m x n x k` GEMM
/// (`C <- alpha*A*B + beta*C`): `2mnk` plus lower-order terms, the
/// convention used throughout the paper's performance model.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Flops of a Cholesky factorization of an `n x n` matrix: `n^3/3`.
#[inline]
pub fn potrf_flops(n: usize) -> f64 {
    let n = n as f64;
    n * n * n / 3.0
}

/// Flops of a triangular solve with an `m x m` triangle and `n` right-hand
/// sides: `m^2 n`.
#[inline]
pub fn trsm_flops(m: usize, n: usize) -> f64 {
    m as f64 * m as f64 * n as f64
}

/// Flops of a symmetric rank-k update `C(nxn) <- C - A(nxk) A^T`: `n^2 k`.
#[inline]
pub fn syrk_flops(n: usize, k: usize) -> f64 {
    n as f64 * n as f64 * k as f64
}
