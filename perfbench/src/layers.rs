//! Per-layer measurements: kernel rates, tile census, and the factor
//! breakdown read off the runtime's execution report.

use std::time::Instant;

use xgs_kernels::{
    gemm, gemm_flops, potrf, potrf_flops, shgemm, syrk_flops, syrk_lower_notrans, trsm_flops,
    trsm_right_lower_trans, Half, Trans,
};
use xgs_runtime::ExecReport;
use xgs_tile::{SymTileMatrix, TileStorage};

use crate::harness::Run;
use crate::stats::median;

/// Median seconds of `f` over calls made within `budget` seconds (at
/// least three); `prep` runs untimed before each call.
fn rate<S>(
    budget: f64,
    state: &mut S,
    mut prep: impl FnMut(&mut S),
    mut f: impl FnMut(&mut S),
) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || start.elapsed().as_secs_f64() < budget {
        prep(state);
        let t = Instant::now();
        f(std::hint::black_box(&mut *state));
        std::hint::black_box(&mut *state);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

fn buffer(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// A well-conditioned SPD `nb x nb` matrix and its lower Cholesky factor.
fn spd(nb: usize) -> (Vec<f64>, Vec<f64>) {
    let m = buffer(nb * nb, 7);
    let mut a = vec![0.0; nb * nb];
    gemm(
        Trans::No,
        Trans::Yes,
        nb,
        nb,
        nb,
        1.0 / nb as f64,
        &m,
        nb,
        &m,
        nb,
        0.0,
        &mut a,
        nb,
    );
    for i in 0..nb {
        a[i * nb + i] += 1.0;
    }
    let mut l = a.clone();
    potrf(nb, &mut l, nb).expect("SPD by construction");
    (a, l)
}

/// The `xgs-kernels` entry points on `nb x nb` operands, as the tile
/// Cholesky calls them, in GF/s (flop formulas from `xgs-kernels`).
pub fn kernel_rates(run: &mut Run, nb: usize, budget: f64) {
    let a = buffer(nb * nb, 1);
    let b = buffer(nb * nb, 2);
    let (spd64, l64) = spd(nb);
    let to32 = |v: &[f64]| -> Vec<f32> { v.iter().map(|&x| x as f32).collect() };
    let (a32, b32, spd32, l32) = (to32(&a), to32(&b), to32(&spd64), to32(&l64));
    let ah: Vec<Half> = a32.iter().map(|&x| Half::from_f32(x)).collect();
    let bh: Vec<Half> = b32.iter().map(|&x| Half::from_f32(x)).collect();
    let gf = |flops: f64, s: f64| flops / s / 1e9;

    let mut c64 = vec![0.0f64; nb * nb];
    let mut c32 = vec![0.0f32; nb * nb];
    let t = rate(
        budget,
        &mut c64,
        |_| {},
        |c| {
            gemm(
                Trans::No,
                Trans::Yes,
                nb,
                nb,
                nb,
                -1.0,
                &a,
                nb,
                &b,
                nb,
                1.0,
                c,
                nb,
            )
        },
    );
    run.metric(
        "kernels.gemm_f64.gflops",
        gf(gemm_flops(nb, nb, nb), t),
        "GF/s",
    );
    let t = rate(
        budget,
        &mut c32,
        |_| {},
        |c| {
            gemm(
                Trans::No,
                Trans::Yes,
                nb,
                nb,
                nb,
                -1.0f32,
                &a32,
                nb,
                &b32,
                nb,
                1.0,
                c,
                nb,
            )
        },
    );
    run.metric(
        "kernels.gemm_f32.gflops",
        gf(gemm_flops(nb, nb, nb), t),
        "GF/s",
    );
    let t = rate(
        budget,
        &mut c32,
        |_| {},
        |c| {
            shgemm(
                Trans::No,
                Trans::Yes,
                nb,
                nb,
                nb,
                -1.0,
                &ah,
                nb,
                &bh,
                nb,
                1.0,
                c,
                nb,
            )
        },
    );
    run.metric(
        "kernels.shgemm.gflops",
        gf(gemm_flops(nb, nb, nb), t),
        "GF/s",
    );

    let t = rate(
        budget,
        &mut c64,
        |c| c.copy_from_slice(&spd64),
        |c| potrf(nb, c, nb).expect("SPD"),
    );
    run.metric("kernels.potrf_f64.gflops", gf(potrf_flops(nb), t), "GF/s");
    let t = rate(
        budget,
        &mut c32,
        |c| c.copy_from_slice(&spd32),
        |c| potrf(nb, c, nb).expect("SPD"),
    );
    run.metric("kernels.potrf_f32.gflops", gf(potrf_flops(nb), t), "GF/s");

    let t = rate(
        budget,
        &mut c64,
        |c| c.copy_from_slice(&a),
        |c| trsm_right_lower_trans(nb, nb, 1.0, &l64, nb, c, nb),
    );
    run.metric("kernels.trsm_f64.gflops", gf(trsm_flops(nb, nb), t), "GF/s");
    let t = rate(
        budget,
        &mut c32,
        |c| c.copy_from_slice(&a32),
        |c| trsm_right_lower_trans(nb, nb, 1.0f32, &l32, nb, c, nb),
    );
    run.metric("kernels.trsm_f32.gflops", gf(trsm_flops(nb, nb), t), "GF/s");

    let t = rate(
        budget,
        &mut c64,
        |_| {},
        |c| syrk_lower_notrans(nb, nb, -1.0, &a, nb, 1.0, c, nb),
    );
    run.metric("kernels.syrk_f64.gflops", gf(syrk_flops(nb, nb), t), "GF/s");
    let t = rate(
        budget,
        &mut c32,
        |_| {},
        |c| syrk_lower_notrans(nb, nb, -1.0f32, &a32, nb, 1.0, c, nb),
    );
    run.metric("kernels.syrk_f32.gflops", gf(syrk_flops(nb, nb), t), "GF/s");
}

/// Storage bytes of every stored tile, indexed `[i][j]` for `i >= j`.
pub struct TileBytes {
    nt: usize,
    bytes: Vec<usize>,
}

impl TileBytes {
    pub fn of(m: &SymTileMatrix) -> TileBytes {
        let nt = m.nt();
        let mut bytes = vec![0; nt * nt];
        for j in 0..nt {
            for i in j..nt {
                bytes[i * nt + j] = m.tile(i, j).footprint_bytes();
            }
        }
        TileBytes { nt, bytes }
    }

    fn at(&self, i: usize, j: usize) -> f64 {
        self.bytes[i * self.nt + j] as f64
    }

    /// Bytes the tile Cholesky's tasks touch, computed from the tiles'
    /// generated formats: every read once, every written tile twice (read
    /// and write back).
    pub fn task_bytes(&self) -> f64 {
        let nt = self.nt;
        let mut total = 0.0;
        for k in 0..nt {
            total += 2.0 * self.at(k, k);
            for i in k + 1..nt {
                total += self.at(k, k) + 2.0 * self.at(i, k); // trsm
                total += self.at(i, k) + 2.0 * self.at(i, i); // syrk
                for j in k + 1..i {
                    total += self.at(i, k) + self.at(j, k) + 2.0 * self.at(i, j);
                    // gemm
                }
            }
        }
        total
    }
}

/// Tile-format census of one generated matrix.
pub struct Census {
    pub f64: usize,
    pub f32: usize,
    pub f16: usize,
    pub lr: usize,
    pub lr_rank_mean: f64,
    pub footprint_ratio: f64,
}

pub fn census(m: &SymTileMatrix) -> Census {
    let c = m.census();
    let ranks: Vec<f64> = m
        .tiles
        .iter()
        .filter_map(|t| match &t.storage {
            TileStorage::LowRank(lr) => Some(lr.rank() as f64),
            TileStorage::Dense(_) => None,
        })
        .collect();
    Census {
        f64: c.dense_f64,
        f32: c.dense_f32,
        f16: c.dense_f16,
        lr: c.lr_f64 + c.lr_f32,
        lr_rank_mean: if ranks.is_empty() {
            0.0
        } else {
            ranks.iter().sum::<f64>() / ranks.len() as f64
        },
        footprint_ratio: m.footprint_bytes() as f64 / m.dense_f64_footprint_bytes() as f64,
    }
}

/// Per-kind task counts and busy seconds of one factorization.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindTimes {
    pub count: u64,
    pub busy_s: f64,
}

pub const KINDS: [&str; 4] = ["potrf", "trsm", "syrk", "gemm"];

/// Dense-equivalent flops of one task of `kind` on `nb` tiles.
pub fn kind_flops(kind: &str, nb: usize) -> f64 {
    match kind {
        "potrf" => potrf_flops(nb),
        "trsm" => trsm_flops(nb, nb),
        "syrk" => syrk_flops(nb, nb),
        _ => gemm_flops(nb, nb, nb),
    }
}

/// Per-kind counts and busy time, in [`KINDS`] order.
pub fn kind_times(report: &ExecReport) -> [KindTimes; 4] {
    let mut out = [KindTimes::default(); 4];
    if let Some(m) = &report.metrics {
        for k in &m.kernels {
            if let Some(i) = KINDS.iter().position(|&n| n == k.kind) {
                out[i] = KindTimes {
                    count: k.count,
                    busy_s: k.total_seconds,
                };
            }
        }
    }
    out
}

/// Share of the workers' wall time spent running tasks.
pub fn busy_frac(report: &ExecReport) -> f64 {
    let busy: f64 = report.busy_seconds.iter().sum();
    busy / (report.wall_seconds * report.workers.max(1) as f64)
}

/// OS threads of this process right now (`/proc/self/status`).
pub fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Samples [`os_threads`] every few milliseconds until dropped; the peak
/// is read with [`ThreadSampler::stop`].
pub struct ThreadSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<usize>>,
}

impl ThreadSampler {
    pub fn start() -> ThreadSampler {
        use std::sync::atomic::Ordering;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(os_threads());
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            peak
        });
        ThreadSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Peak thread count seen, not counting the sampler itself.
    pub fn stop(mut self) -> usize {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.handle
            .take()
            .map_or(0, |h| h.join().unwrap_or(0).saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_bytes_of_uniform_tiles_matches_closed_form() {
        // nt tiles of b bytes: potrf 2b each; trsm and syrk 3b each per
        // (k, i); gemm 4b per (k, j, i).
        let nt = 5;
        let b = 100;
        let tb = TileBytes {
            nt,
            bytes: vec![b; nt * nt],
        };
        let pairs = nt * (nt - 1) / 2;
        let triples = (nt * nt * nt - 3 * nt * nt + 2 * nt) / 6;
        let want = (2 * nt + 6 * pairs + 4 * triples) * b;
        assert_eq!(tb.task_bytes(), want as f64);
    }

    #[test]
    fn kernel_rates_are_positive() {
        let mut run = Run::new("t", 1, 1.0, true);
        kernel_rates(&mut run, 32, 0.0);
        for k in [
            "gemm_f64",
            "gemm_f32",
            "shgemm",
            "potrf_f64",
            "potrf_f32",
            "trsm_f64",
            "trsm_f32",
            "syrk_f64",
            "syrk_f32",
        ] {
            let v = run.get(&format!("kernels.{k}.gflops")).unwrap();
            assert!(v > 0.0 && v.is_finite(), "{k}: {v}");
        }
    }
}
