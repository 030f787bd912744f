//! Loop bodies of the dense decompositions behind TLR compression and
//! rounding: Householder reflector application (QR), the one-sided Jacobi
//! sweep (SVD) and the full-pivot cross step (ACA).
//!
//! `xgs-linalg` keeps the algorithms — reflector construction, sweep
//! convergence, ACA stopping — and calls these for the O(mn)-per-step
//! loops, which run through the crate's one dispatch point
//! ([`crate::gemm`]) like every other kernel body. All arithmetic is plain
//! `f64` multiplies and adds in a fixed order, so the AVX2+FMA and generic
//! instantiations agree bit for bit; the restructurings below (four
//! reflector columns at a time, one fused Gram pass) keep each value's own
//! operation order, so they change no bit either. The one value computed
//! in a different grouping is ACA's residual sum of squares, which only
//! the stopping test reads.

use crate::gemm::{dispatch, Body};

/// `C <- (I - tau v v^T) C` over `ncols` columns of `c`: column `j` is
/// `c[j * ldc..j * ldc + v.len()]`, and `v[0]` is read as 1 (LAPACK's
/// implicit unit head). Each column's `v^T c` starts at `+0.0`, adds
/// `c[0]`, then the products `v[t] c[t]` in order.
pub fn apply_householder(v: &[f64], tau: f64, ncols: usize, c: &mut [f64], ldc: usize) {
    let len = v.len();
    if len == 0 || ncols == 0 {
        return;
    }
    assert!(ldc >= len, "ldc {ldc} < reflector length {len}");
    assert!(c.len() >= (ncols - 1) * ldc + len);
    dispatch(Reflect {
        v,
        tau,
        ncols,
        c,
        ldc,
    });
}

struct Reflect<'a> {
    v: &'a [f64],
    tau: f64,
    ncols: usize,
    c: &'a mut [f64],
    ldc: usize,
}

impl Body for Reflect<'_> {
    type Out = ();
    #[inline(always)]
    fn run(self) {
        let Reflect {
            v,
            tau,
            ncols,
            c,
            ldc,
        } = self;
        let len = v.len();
        let vt = &v[1..];
        // Four columns per pass: four independent dot chains share each
        // load of `v`, each chain in its column's own order.
        let mut j = 0;
        while j + 4 <= ncols {
            let block = &mut c[j * ldc..(j + 3) * ldc + len];
            let (c0, rest) = block.split_at_mut(ldc);
            let (c1, rest) = rest.split_at_mut(ldc);
            let (c2, c3) = rest.split_at_mut(ldc);
            let (c0, c1, c2, c3) = (&mut c0[..len], &mut c1[..len], &mut c2[..len], c3);
            let mut d = [0.0 + c0[0], 0.0 + c1[0], 0.0 + c2[0], 0.0 + c3[0]];
            for ((((&x, &y0), &y1), &y2), &y3) in vt
                .iter()
                .zip(&c0[1..])
                .zip(&c1[1..])
                .zip(&c2[1..])
                .zip(&c3[1..])
            {
                d[0] += x * y0;
                d[1] += x * y1;
                d[2] += x * y2;
                d[3] += x * y3;
            }
            let s = d.map(|dot| tau * dot);
            c0[0] -= s[0];
            c1[0] -= s[1];
            c2[0] -= s[2];
            c3[0] -= s[3];
            for ((((&x, y0), y1), y2), y3) in vt
                .iter()
                .zip(&mut c0[1..])
                .zip(&mut c1[1..])
                .zip(&mut c2[1..])
                .zip(&mut c3[1..])
            {
                *y0 -= s[0] * x;
                *y1 -= s[1] * x;
                *y2 -= s[2] * x;
                *y3 -= s[3] * x;
            }
            j += 4;
        }
        for col in j..ncols {
            let cc = &mut c[col * ldc..col * ldc + len];
            let mut dot = 0.0 + cc[0];
            for (&x, &y) in vt.iter().zip(&cc[1..]) {
                dot += x * y;
            }
            let s = tau * dot;
            cc[0] -= s;
            for (&x, y) in vt.iter().zip(&mut cc[1..]) {
                *y -= s * x;
            }
        }
    }
}

/// One cyclic one-sided Jacobi sweep over the `n` columns of `w`
/// (`rows x n`, leading dimension `rows`), accumulating every rotation into
/// the `n` columns of `v` (`vrows x n`, leading dimension `vrows`).
///
/// For each pair `p < q` in row-cyclic order the Gram entries `app`, `aqq`,
/// `apq` are formed in one pass (each sum starting at `-0.0`, products added
/// in row order), and unless the columns are already orthogonal to working
/// precision the rotation zeroing `apq` is applied to both matrices.
/// Returns the sweep's largest `|apq| / sqrt(app aqq)`, the convergence
/// measure.
pub fn jacobi_sweep(rows: usize, n: usize, w: &mut [f64], vrows: usize, v: &mut [f64]) -> f64 {
    assert!(w.len() >= rows * n && v.len() >= vrows * n);
    dispatch(Sweep {
        rows,
        n,
        w,
        vrows,
        v,
    })
}

struct Sweep<'a> {
    rows: usize,
    n: usize,
    w: &'a mut [f64],
    vrows: usize,
    v: &'a mut [f64],
}

/// Columns `p < q` of a column-major buffer with leading dimension `ld`, as
/// two disjoint mutable slices of length `ld`.
#[inline(always)]
fn column_pair(a: &mut [f64], ld: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (lo, hi) = a.split_at_mut(q * ld);
    (&mut lo[p * ld..p * ld + ld], &mut hi[..ld])
}

/// `[x y] <- [x y] [[c, s], [-s, c]]` over two columns.
#[inline(always)]
fn rotate(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let xp = c * *xi - s * *yi;
        let yq = s * *xi + c * *yi;
        *xi = xp;
        *yi = yq;
    }
}

impl Body for Sweep<'_> {
    type Out = f64;
    #[inline(always)]
    fn run(self) -> f64 {
        let Sweep {
            rows,
            n,
            w,
            vrows,
            v,
        } = self;
        let eps = f64::EPSILON;
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (cp, cq) = column_pair(w, rows, p, q);
                let (mut app, mut aqq, mut apq) = (-0.0f64, -0.0f64, -0.0f64);
                for (&x, &y) in cp.iter().zip(cq.iter()) {
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                let denom = (app * aqq).sqrt();
                if denom > 0.0 {
                    off = off.max(apq.abs() / denom);
                }
                if apq.abs() <= eps * denom || denom == 0.0 {
                    continue;
                }
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(cp, cq, c, s);
                let (vp, vq) = column_pair(v, vrows, p, q);
                rotate(vp, vq, c, s);
            }
        }
        off
    }
}

/// Lanes of the ACA residual pass.
const LANES: usize = 8;

/// Lane-split state of one pass over an ACA residual: partial sums of
/// squares, and per lane the first position of its largest `|x|`.
struct Scan {
    sq: [f64; LANES],
    best: [f64; LANES],
    at: [usize; LANES],
}

impl Scan {
    #[inline(always)]
    fn new() -> Scan {
        Scan {
            sq: [0.0; LANES],
            best: [0.0; LANES],
            at: [0; LANES],
        }
    }

    #[inline(always)]
    fn push(&mut self, lane: usize, x: f64, pos: usize) {
        self.sq[lane] += x * x;
        let a = x.abs();
        let better = a > self.best[lane];
        self.best[lane] = if better { a } else { self.best[lane] };
        self.at[lane] = if better { pos } else { self.at[lane] };
    }

    /// Visit one residual column whose first entry sits at position `base`.
    #[inline(always)]
    fn column(&mut self, col: &[f64], base: usize) {
        let mut chunks = col.chunks_exact(LANES);
        for (ci, chunk) in (&mut chunks).enumerate() {
            for (l, &x) in chunk.iter().enumerate() {
                self.push(l, x, base + ci * LANES + l);
            }
        }
        let done = col.len() - chunks.remainder().len();
        for (l, &x) in chunks.remainder().iter().enumerate() {
            self.push(l, x, base + done + l);
        }
    }

    /// Total sum of squares and the first position of the largest `|x|`
    /// (position 0 when every entry is zero).
    #[inline(always)]
    fn finish(self) -> (f64, usize) {
        let sq = self.sq.iter().fold(0.0, |acc, &s| acc + s);
        let mut lane = 0;
        for l in 1..LANES {
            let (b, bl) = (self.best[l], self.best[lane]);
            if b > bl || (b == bl && self.at[l] < self.at[lane]) {
                lane = l;
            }
        }
        (sq, self.at[lane])
    }
}

/// Sum of squares and pivot position of an ACA residual `r` (`m x n`,
/// leading dimension `m`): the pivot is the first column-major position of
/// the largest `|r_ij|`, 0 when `r` is zero. The sum is accumulated in
/// lane-split partial sums.
pub fn aca_scan(r: &[f64], m: usize) -> (f64, usize) {
    dispatch(AcaScan { r, m })
}

struct AcaScan<'a> {
    r: &'a [f64],
    m: usize,
}

impl Body for AcaScan<'_> {
    type Out = (f64, usize);
    #[inline(always)]
    fn run(self) -> (f64, usize) {
        let mut scan = Scan::new();
        if self.m > 0 {
            for (j, col) in self.r.chunks_exact(self.m).enumerate() {
                scan.column(col, j * self.m);
            }
        }
        scan.finish()
    }
}

/// One full-pivot ACA cross at position `piv` of the residual `r` (`m x n`,
/// leading dimension `m`, `n = v.len()`): writes `u = r[:, pj] / r[pi, pj]`
/// and `v = r[pi, :]`, subtracts `u v^T` from `r` column by column, and
/// returns [`aca_scan`] of the new residual, scanning each column while it
/// is still in cache.
pub fn aca_cross(
    r: &mut [f64],
    m: usize,
    piv: usize,
    u: &mut [f64],
    v: &mut [f64],
) -> (f64, usize) {
    assert!(u.len() == m && r.len() == m * v.len() && piv < r.len());
    dispatch(AcaCross { r, m, piv, u, v })
}

struct AcaCross<'a> {
    r: &'a mut [f64],
    m: usize,
    piv: usize,
    u: &'a mut [f64],
    v: &'a mut [f64],
}

impl Body for AcaCross<'_> {
    type Out = (f64, usize);
    #[inline(always)]
    fn run(self) -> (f64, usize) {
        let AcaCross { r, m, piv, u, v } = self;
        let (pi, pj) = (piv % m, piv / m);
        let inv = 1.0 / r[piv];
        for (ui, &x) in u.iter_mut().zip(&r[pj * m..pj * m + m]) {
            *ui = x * inv;
        }
        for (j, vj) in v.iter_mut().enumerate() {
            *vj = r[pi + j * m];
        }
        let mut scan = Scan::new();
        for (j, (col, &vj)) in r.chunks_exact_mut(m).zip(v.iter()).enumerate() {
            for (x, &ui) in col.iter_mut().zip(u.iter()) {
                *x -= ui * vj;
            }
            scan.column(col, j * m);
        }
        scan.finish()
    }
}
