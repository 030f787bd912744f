//! The per-PR perf trajectory record: one binary, one JSON.
//!
//! Runs the surfaces every speed claim in ROADMAP.md rests on — raw GEMM
//! (naive vs cache-blocked at the same size), one tile Cholesky per
//! variant, MLE fit, batch kriging, and the live prediction service under
//! loadgen — and writes the JSON record to `XGS_BENCH_OUT`, conventionally
//! `results/BENCH_<pr>.json` so successive PRs leave a comparable trail
//! (the record's `"pr"` is read from that file name, `null` for any other
//! name). The record names the kernel instantiation the CPU dispatched
//! to (`"kernel_path"`: `avx2+fma` or `generic`). Latencies are medians
//! over `XGS_REPS` repetitions; the serve sections report loadgen's
//! p50/p99 for BOTH frontends (thread-per-connection under `"serve"`,
//! epoll reactor under `"serve_reactor"`), and the two replays of the same
//! seeded stream must agree on the response checksum.
//!
//! The `"factor"` row times the sequential factorization of DenseF64,
//! MpDense and MpDenseTlr at a weak-correlation shape where TLR engages
//! (n = 1600, nb = 160, range 0.02, the demo tile model) and records the
//! MP+TLR log-likelihood's relative error against FP64. The binary exits
//! 1, after writing the record, when that error exceeds
//! [`TLR_LLH_RELERR_MAX`].
//!
//! ```text
//! XGS_BENCH_OUT=results/BENCH_12.json XGS_REPS=5 cargo run -p xgs-bench --release --bin bench_suite
//! ```

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use xgs_bench::{demo_model, env_usize, quartiles, random_buffer, sites, timed};
use xgs_cholesky::TiledFactor;
use xgs_core::mle::FitOptimizer;
use xgs_core::{fit, krige, log_likelihood, FitOptions, ModelFamily, PsoOptions};
use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
use xgs_kernels::{gemm, gemm_naive, kernel_path, Trans};
use xgs_server::{
    build_plan, loadgen, serve, Frontend, LoadgenConfig, ModelRegistry, ServerConfig,
};
use xgs_tile::{SymTileMatrix, TlrConfig, Variant};

/// Sites of the `"factor"` row (10 x 10 tiles of 160).
const FACTOR_N: usize = 1600;

/// The largest MP+TLR log-likelihood relative error (against FP64) the
/// `"factor"` row accepts.
const TLR_LLH_RELERR_MAX: f64 = 1e-7;

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    let (_, median, _) = quartiles(&mut secs);
    median
}

/// The `<pr>` of a `BENCH_<pr>.json` output path as a JSON value, `null`
/// for any other file name.
fn pr_of(out: &str) -> String {
    std::path::Path::new(out)
        .file_stem()
        .and_then(|stem| stem.to_str()?.strip_prefix("BENCH_")?.parse::<u32>().ok())
        .map_or_else(|| "null".to_string(), |pr| pr.to_string())
}

fn main() {
    let reps = env_usize("XGS_REPS", 3);
    let Ok(out) = std::env::var("XGS_BENCH_OUT") else {
        eprintln!("usage: XGS_BENCH_OUT=results/BENCH_<pr>.json bench_suite");
        std::process::exit(2);
    };
    let pool0 = rayon::global_pool_stats();
    println!(
        "-- bench suite: {} pool workers, {reps} reps, kernels {}, out = {out} --",
        pool0.threads,
        kernel_path()
    );

    // 1. GEMM: the ISSUE's headline number. Same size, same inputs, the
    // naive triple loop vs the dispatching entry point (which takes the
    // blocked path at this size). FLOP count is 2*m*n*k.
    let nk = env_usize("XGS_GEMM_N", 256);
    let a = random_buffer(nk * nk, 11);
    let b = random_buffer(nk * nk, 13);
    let mut c = vec![0.0f64; nk * nk];
    let flops = 2.0 * (nk as f64).powi(3);
    let naive = median_secs(reps, || {
        gemm_naive(
            Trans::No,
            Trans::No,
            nk,
            nk,
            nk,
            1.0,
            &a,
            nk,
            &b,
            nk,
            0.0,
            &mut c,
            nk,
        )
    });
    let blocked = median_secs(reps, || {
        gemm(
            Trans::No,
            Trans::No,
            nk,
            nk,
            nk,
            1.0,
            &a,
            nk,
            &b,
            nk,
            0.0,
            &mut c,
            nk,
        )
    });
    println!(
        "gemm {nk}: naive {:.2} GF/s, blocked {:.2} GF/s ({:.2}x)",
        flops / naive / 1e9,
        flops / blocked / 1e9,
        naive / blocked
    );

    // 2. Factor: one sequential tile Cholesky per variant (generation not
    // timed) where TLR engages, and each variant's log-likelihood.
    let flocs = sites(FACTOR_N, 1.0, 3);
    let fkernel = Matern::new(MaternParams::new(1.0, 0.02, 0.5));
    let fz = xgs_core::simulate_field(&fkernel, &flocs, 7);
    let model = demo_model();
    let mut lr_tiles = 0;
    let factor_row: Vec<(f64, f64)> = [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr]
        .into_iter()
        .map(|variant| {
            let cfg = TlrConfig::new(variant, 160);
            let mut secs: Vec<f64> = (0..reps)
                .map(|_| {
                    let m = SymTileMatrix::generate(&fkernel, &flocs, cfg, &model);
                    if variant == Variant::MpDenseTlr {
                        let census = m.census();
                        lr_tiles = census.lr_f64 + census.lr_f32;
                    }
                    let mut f = TiledFactor::from_matrix(m);
                    timed(|| f.factorize_seq().expect("SPD")).1
                })
                .collect();
            let (_, median, _) = quartiles(&mut secs);
            let llh = log_likelihood(&fkernel, &flocs, &fz, &cfg, &model, 1)
                .expect("SPD")
                .llh;
            println!(
                "factor {} n={FACTOR_N}: {median:.3} s, llh {llh}",
                variant.name()
            );
            (median, llh)
        })
        .collect();
    let tlr_relerr = ((factor_row[2].1 - factor_row[0].1) / factor_row[0].1).abs();
    println!("factor: MP+TLR llh relative error {tlr_relerr:.3e}, {lr_tiles} low-rank tiles");

    // 3. Fit: a small PSO MLE over the mixed-precision engine.
    let n_fit = env_usize("XGS_FIT_N", 400);
    let mut rng = StdRng::seed_from_u64(5);
    let mut locs = jittered_grid(n_fit, &mut rng);
    morton_order(&mut locs);
    let kernel = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
    let z = xgs_core::simulate_field(&kernel, &locs, 6);
    let cfg = TlrConfig::new(Variant::MpDense, 64);
    let opts = FitOptions {
        optimizer: FitOptimizer::ParticleSwarm(PsoOptions {
            particles: 8,
            iterations: 5,
            ..PsoOptions::default()
        }),
        ..FitOptions::default()
    };
    let fit_s = median_secs(reps, || {
        let r = fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts);
        assert!(r.llh.is_finite());
    });
    println!("fit n={n_fit}: {fit_s:.3} s");

    // 4. Predict: batch kriging throughput against a prebuilt factor.
    let n_pred = env_usize("XGS_PRED_N", 1000);
    let factor = {
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &model);
        let mut f = TiledFactor::from_matrix(m);
        f.factorize_seq().expect("SPD");
        f
    };
    let mut prng = StdRng::seed_from_u64(17);
    let targets = jittered_grid(n_pred, &mut prng);
    let pred_s = median_secs(reps, || {
        let r = krige(&kernel, &locs, &z, &factor, &targets, true);
        assert_eq!(r.mean.len(), n_pred);
    });
    println!(
        "predict {n_pred} pts: {pred_s:.3} s ({:.0} pts/s)",
        n_pred as f64 / pred_s
    );

    // 5. Serve: in-process server + loadgen, the same loop the CI smoke
    // step drives across a process boundary — once per frontend, over one
    // shared registry, with the same seeded stream. Identical checksums
    // prove the frontends return bitwise-identical predictions.
    let (plan, _llh) = build_plan(
        ModelFamily::MaternSpace,
        &[1.0, 0.1, 0.5],
        Variant::MpDense,
        64,
        locs.clone(),
        &z,
        2,
    )
    .expect("plan builds");
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("default", plan);
    let serve_bench = |frontend: Frontend| {
        let handle = serve(
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                solvers: 2,
                frontend,
                ..ServerConfig::default()
            },
            registry.clone(),
        )
        .expect("bind loopback");
        let report = loadgen::run(&LoadgenConfig {
            addr: handle.addr().to_string(),
            requests: env_usize("XGS_SERVE_REQS", 300),
            conns: 4,
            points: 4,
            uncertainty: true,
            seed: 42,
            connect_timeout: Duration::from_secs(5),
            shutdown: true,
            ..LoadgenConfig::default()
        })
        .expect("loadgen");
        assert_eq!(report.errors, 0, "{}", report.summary());
        handle.join();
        report
    };
    let report = serve_bench(Frontend::Threaded);
    println!("serve (threaded): {}", report.summary());
    let reactor_report = serve_bench(Frontend::Reactor);
    println!("serve (reactor):  {}", reactor_report.summary());
    assert_eq!(
        report.checksum, reactor_report.checksum,
        "frontends disagree on response payloads"
    );

    let pool = rayon::global_pool_stats().since(&pool0);
    let json = format!(
        concat!(
            "{{\"pr\":{},\"kernel_path\":\"{}\",",
            "\"pool\":{{\"workers\":{},\"jobs\":{},\"inline_jobs\":{},\"steals\":{}}},",
            "\"gemm\":{{\"n\":{},\"naive_s\":{:.6},\"blocked_s\":{:.6},",
            "\"naive_gflops\":{:.3},\"blocked_gflops\":{:.3},\"speedup\":{:.3}}},",
            "\"factor\":{{\"n\":{},\"nb\":160,\"range\":0.02,\"dense_f64_s\":{:.4},",
            "\"mp_dense_s\":{:.4},\"mp_dense_tlr_s\":{:.4},\"tlr_lr_tiles\":{},",
            "\"tlr_llh_relerr\":{:.3e}}},",
            "\"fit\":{{\"n\":{},\"median_s\":{:.4}}},",
            "\"predict\":{{\"points\":{},\"median_s\":{:.4},\"points_per_s\":{:.1}}},",
            "\"serve\":{{\"frontend\":\"threaded\",\"requests\":{},\"throughput_rps\":{:.1},",
            "\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"checksum\":\"{:016x}\"}},",
            "\"serve_reactor\":{{\"frontend\":\"reactor\",\"requests\":{},\"throughput_rps\":{:.1},",
            "\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"checksum\":\"{:016x}\"}}}}"
        ),
        pr_of(&out),
        kernel_path(),
        pool0.threads,
        pool.jobs,
        pool.inline_jobs,
        pool.steals,
        nk,
        naive,
        blocked,
        flops / naive / 1e9,
        flops / blocked / 1e9,
        naive / blocked,
        FACTOR_N,
        factor_row[0].0,
        factor_row[1].0,
        factor_row[2].0,
        lr_tiles,
        tlr_relerr,
        n_fit,
        fit_s,
        n_pred,
        pred_s,
        n_pred as f64 / pred_s,
        report.sent,
        report.throughput,
        report.p50_ms,
        report.p99_ms,
        report.checksum,
        reactor_report.sent,
        reactor_report.throughput,
        reactor_report.p50_ms,
        reactor_report.p99_ms,
        reactor_report.checksum,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out, &json).expect("write bench json");
    println!("wrote {out}");
    if tlr_relerr.is_nan() || tlr_relerr > TLR_LLH_RELERR_MAX {
        eprintln!(
            "error: MP+TLR log-likelihood relative error {tlr_relerr:.3e} exceeds {TLR_LLH_RELERR_MAX:e}"
        );
        std::process::exit(1);
    }
}
