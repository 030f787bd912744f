//! QR, Jacobi SVD and ACA against the scalar loops their dispatched kernel
//! bodies replaced, bit for bit. Shapes straddle the reflector kernel's
//! 4-column block and the ACA pass's 8 lanes; inputs include
//! rank-deficient matrices and zero columns of either sign.

use proptest::prelude::*;

use crate::aca::{aca, aca_oracle};
use crate::matrix::Matrix;
use crate::qr::{householder_qr, householder_qr_oracle};
use crate::svd::{jacobi_svd, jacobi_svd_oracle};

fn rnd(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(0x5851F42D4C957F2D)
            .wrapping_add(0x14057B7EF767814F);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

/// A `rows x cols` test input of the given kind: 0 random, 1 rank
/// deficient, 2 random with zero columns (+0.0 and -0.0), 3 a smooth
/// separated kernel block like an off-diagonal covariance tile.
fn input(rows: usize, cols: usize, kind: usize, seed: u64) -> Matrix {
    match kind {
        0 => rnd(rows, cols, seed),
        1 => {
            let r = (seed as usize) % rows.min(cols).max(1);
            rnd(rows, r, seed).matmul_t(&rnd(cols, r, seed + 1))
        }
        2 => {
            let mut a = rnd(rows, cols, seed);
            for j in 0..cols {
                if (j as u64 + seed).is_multiple_of(3) {
                    let zero = if j % 2 == 0 { 0.0 } else { -0.0 };
                    a.col_mut(j).fill(zero);
                }
            }
            a
        }
        _ => Matrix::from_fn(rows, cols, |i, j| {
            let x = i as f64 / rows as f64;
            let y = 2.0 + j as f64 / cols.max(1) as f64;
            (-(x - y).abs() / 0.3).exp()
        }),
    }
}

fn same_bits(what: &str, got: &Matrix, want: &Matrix) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!(
            "{what}: shape {:?} vs {:?}",
            got.shape(),
            want.shape()
        ));
    }
    same_slice_bits(what, got.as_slice(), want.as_slice())
}

fn same_slice_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} vs {}", got.len(), want.len()));
    }
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{what}: element {i}: {x:e} vs {y:e}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qr_is_bitwise_the_scalar_oracle(
        rows in 1usize..171,
        cols in 0usize..65,
        kind in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let a = input(rows, cols, kind, seed);
        let (got, want) = (householder_qr(&a), householder_qr_oracle(&a));
        let tag = format!("{rows}x{cols} kind {kind}");
        same_bits(&format!("Q {tag}"), &got.q, &want.q)?;
        same_bits(&format!("R {tag}"), &got.r, &want.r)?;
    }

    #[test]
    fn aca_is_bitwise_the_scalar_oracle(
        rows in 1usize..171,
        cols in 0usize..65,
        kind in 0usize..4,
        seed in 0u64..1_000_000,
        digits in 0usize..13,
    ) {
        let a = input(rows, cols, kind, seed);
        let tol = 10f64.powi(-(digits as i32)) * a.norm_fro();
        let ((gu, gv), (wu, wv)) = (aca(&a, tol, rows.min(cols)), aca_oracle(&a, tol, rows.min(cols)));
        let tag = format!("{rows}x{cols} kind {kind} tol {tol:e}");
        same_bits(&format!("U {tag}"), &gu, &wu)?;
        same_bits(&format!("V {tag}"), &gv, &wv)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn jacobi_svd_is_bitwise_the_scalar_oracle(
        rows in 1usize..171,
        cols in 0usize..65,
        kind in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let a = input(rows, cols, kind, seed);
        let (got, want) = (jacobi_svd(&a), jacobi_svd_oracle(&a));
        let tag = format!("{rows}x{cols} kind {kind}");
        same_bits(&format!("U {tag}"), &got.u, &want.u)?;
        same_slice_bits(&format!("s {tag}"), &got.s, &want.s)?;
        same_bits(&format!("V {tag}"), &got.v, &want.v)?;
    }
}

/// Every width from 0 to 9 columns over a few heights, so each remainder of
/// the 4-column reflector block and each ACA lane remainder is hit.
#[test]
fn small_shapes_are_bitwise_the_scalar_oracles() {
    for rows in [1, 2, 3, 4, 5, 7, 8, 9, 17] {
        for cols in 0..10 {
            for kind in 0..4 {
                let a = input(rows, cols, kind, (rows * 31 + cols) as u64);
                let tag = format!("{rows}x{cols} kind {kind}");
                let (q, qo) = (householder_qr(&a), householder_qr_oracle(&a));
                same_bits(&format!("Q {tag}"), &q.q, &qo.q).unwrap();
                same_bits(&format!("R {tag}"), &q.r, &qo.r).unwrap();
                let (s, so) = (jacobi_svd(&a), jacobi_svd_oracle(&a));
                same_bits(&format!("svd U {tag}"), &s.u, &so.u).unwrap();
                same_bits(&format!("svd V {tag}"), &s.v, &so.v).unwrap();
                let tol = 1e-6 * a.norm_fro();
                let ((u, v), (uo, vo)) = (aca(&a, tol, 9), aca_oracle(&a, tol, 9));
                same_bits(&format!("aca U {tag}"), &u, &uo).unwrap();
                same_bits(&format!("aca V {tag}"), &v, &vo).unwrap();
            }
        }
    }
}
