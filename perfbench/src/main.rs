//! `perfbench` — the layered benchmark of exageostat-rs.
//!
//! ```text
//! perfbench --workload <mle-weak|fit-strong|predict|mle-sharded> --seed <n>
//!           --seconds <s> --trace <0|1> [--record-dir <dir>]
//! perfbench worker --connect <addr>      (fleet member; launched by mle-sharded)
//! ```
//!
//! Every workload drives the library crates through their public entry
//! points and times them from the outside. With `--trace 0` the last line
//! of standard output carries the end-to-end metrics ([`END_TO_END`]);
//! with `--trace 1` the run records spans and reports the per-layer
//! metrics ([`PER_LAYER`]). Every run also writes a full record (every
//! metric, the build fingerprint, failed checks) and, when traced, its
//! spans to `--record-dir`. `perfbench/run.py` builds and runs this.

mod alloc;
mod checks;
mod client;
mod fit;
mod harness;
mod inputs;
mod layers;
mod mle;
mod predict;
mod stats;
mod trace;

use std::path::PathBuf;

use harness::Run;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// `(name, unit)` of every end-to-end metric; every workload reports all.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("op_s", "s")];

/// `(name, unit)` of every per-layer metric; every workload reports all,
/// with 0 for layers its ops never reach.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.gemm_f64.gflops", "GF/s"),
    ("kernels.gemm_f32.gflops", "GF/s"),
    ("kernels.shgemm.gflops", "GF/s"),
    ("kernels.potrf_f64.gflops", "GF/s"),
    ("kernels.potrf_f32.gflops", "GF/s"),
    ("kernels.trsm_f64.gflops", "GF/s"),
    ("kernels.trsm_f32.gflops", "GF/s"),
    ("kernels.syrk_f64.gflops", "GF/s"),
    ("kernels.syrk_f32.gflops", "GF/s"),
    ("llh_s.dense-fp64", "s"),
    ("llh_s.mp-dense", "s"),
    ("llh_s.mp-dense-tlr", "s"),
    ("llh_relerr.mp-dense", "ratio"),
    ("llh_relerr.mp-dense-tlr", "ratio"),
    ("fit_s", "s"),
    ("krige_pts_per_s", "1/s"),
    ("serve_p50_ms.mid", "ms"),
    ("serve_p99_ms.mid", "ms"),
    ("serve_p50_ms.high", "ms"),
    ("serve_p99_ms.high", "ms"),
    ("serve_max_rps", "1/s"),
    ("tile.generate_s.dense-fp64", "s"),
    ("tile.generate_s.mp-dense", "s"),
    ("tile.generate_s.mp-dense-tlr", "s"),
    ("tile.compress_s", "s"),
    ("tile.count.f64", "count"),
    ("tile.count.f32", "count"),
    ("tile.count.f16", "count"),
    ("tile.count.lr", "count"),
    ("tile.lr_rank_mean", "rank"),
    ("tile.footprint_ratio.dense-fp64", "ratio"),
    ("tile.footprint_ratio.mp-dense", "ratio"),
    ("tile.footprint_ratio.mp-dense-tlr", "ratio"),
    ("cholesky.factor_s.dense-fp64", "s"),
    ("cholesky.factor_s.mp-dense", "s"),
    ("cholesky.factor_s.mp-dense-tlr", "s"),
    ("cholesky.potrf.gflops.dense-fp64", "GF/s"),
    ("cholesky.trsm.gflops.dense-fp64", "GF/s"),
    ("cholesky.syrk.gflops.dense-fp64", "GF/s"),
    ("cholesky.gemm.gflops.dense-fp64", "GF/s"),
    ("cholesky.potrf.gflops.mp-dense", "GF/s"),
    ("cholesky.trsm.gflops.mp-dense", "GF/s"),
    ("cholesky.syrk.gflops.mp-dense", "GF/s"),
    ("cholesky.gemm.gflops.mp-dense", "GF/s"),
    ("cholesky.potrf.gflops.mp-dense-tlr", "GF/s"),
    ("cholesky.trsm.gflops.mp-dense-tlr", "GF/s"),
    ("cholesky.syrk.gflops.mp-dense-tlr", "GF/s"),
    ("cholesky.gemm.gflops.mp-dense-tlr", "GF/s"),
    ("cholesky.gflop.dense-fp64", "Gflop-computed"),
    ("cholesky.gflop.mp-dense", "Gflop-computed"),
    ("cholesky.gflop.mp-dense-tlr", "Gflop-computed"),
    ("cholesky.bytes.dense-fp64", "B-computed"),
    ("cholesky.bytes.mp-dense", "B-computed"),
    ("cholesky.bytes.mp-dense-tlr", "B-computed"),
    ("cholesky.solve_s", "s"),
    ("runtime.busy_frac.dense-fp64", "ratio"),
    ("runtime.busy_frac.mp-dense", "ratio"),
    ("runtime.busy_frac.mp-dense-tlr", "ratio"),
    ("runtime.pool_jobs", "count"),
    ("runtime.pool_steals", "count"),
    ("runtime.threads_peak", "count"),
    ("core.fit_evals", "count"),
    ("core.eval_s_p50", "s"),
    ("core.krige_s", "s"),
    ("core.query_s_mean", "s"),
    ("server.queue_wait_ms_p50.mid", "ms"),
    ("server.queue_wait_ms_p50.high", "ms"),
    ("server.batch_points_mean.mid", "points"),
    ("server.batch_points_mean.high", "points"),
    ("server.solve_ms_mean.mid", "ms"),
    ("server.solve_ms_mean.high", "ms"),
    ("server.request_ms_p99.mid", "ms"),
    ("server.request_ms_p99.high", "ms"),
    ("server.shed", "count"),
    ("server.expired", "count"),
    ("server.threaded_p50_ms.mid", "ms"),
    ("server.threaded_p99_ms.mid", "ms"),
    ("client.overhead_ms_p50.mid", "ms"),
    ("client.overhead_ms_p50.high", "ms"),
    ("client.lateness_ms_p99.mid", "ms"),
    ("client.lateness_ms_p99.high", "ms"),
    ("shard.factor_s.dense-fp64", "s"),
    ("shard.factor_s.mp-dense", "s"),
    ("shard.overhead_s.dense-fp64", "s"),
    ("shard.overhead_s.mp-dense", "s"),
    ("shard.wire_bytes.tile.dense-fp64", "B"),
    ("shard.wire_bytes.tile.mp-dense", "B"),
    ("shard.frames.dense-fp64", "count"),
    ("shard.frames.mp-dense", "count"),
    ("shard.worker_busy_frac.dense-fp64", "ratio"),
    ("shard.worker_busy_frac.mp-dense", "ratio"),
    ("fleet.worker_join", "count"),
    ("trace.self_s.core", "s"),
    ("trace.self_s.tile", "s"),
    ("trace.self_s.cholesky", "s"),
    ("trace.self_s.shard", "s"),
    ("trace.self_s.client", "s"),
    ("trace.overhead_s", "s"),
    ("peak_heap_mib", "MiB"),
];

pub const WORKLOADS: [&str; 4] = ["mle-weak", "fit-strong", "predict", "mle-sharded"];

/// Seconds each kernel's rate is measured for in a traced run.
const KERNEL_BUDGET: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--record-dir <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        record_dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--record-dir" => a.record_dir = Some(PathBuf::from(v)),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// Fleet member mode: run the library's worker loop until the supervisor
/// retires this process.
fn worker(argv: &[String]) -> ! {
    let addr = match argv {
        [flag, addr] if flag == "--connect" => addr,
        _ => usage(),
    };
    let code = match std::net::TcpStream::connect(addr) {
        Ok(s) => match xgs_cholesky::worker_loop_with(s, xgs_cholesky::WorkerOptions::default()) {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("perfbench worker: cannot reach {addr}: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// What this binary can say about the build and machine it runs on.
fn fingerprint(run: &Run) -> String {
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma, avx512f) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma, avx512f) = (false, false, false);
    let env = |k: &str| std::env::var(k).unwrap_or_default();
    format!(
        concat!(
            "{{\"cpu\":{{\"avx2\":{},\"fma\":{},\"avx512f\":{}}},",
            "\"compiled_target_features\":{{\"avx2\":{},\"fma\":{}}},",
            "\"logical_cores\":{},\"pool_threads\":{},\"debug_assertions\":{},",
            "\"rustflags\":\"{}\"}}"
        ),
        avx2,
        fma,
        avx512f,
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
        run.cores,
        rayon::global_pool_stats().threads,
        cfg!(debug_assertions),
        xgs_runtime::escape_json(&env("RUSTFLAGS")),
    )
}

/// Self time per layer over the traced run.
fn self_time_metrics(run: &mut Run, spans: &[trace::Span]) {
    for (layer, s) in trace::layer_self_times(spans) {
        run.metric(format!("trace.self_s.{layer}"), s, "s");
    }
}

fn write_record(dir: &std::path::Path, run: &Run, result: &str, spans: &[trace::Span]) {
    let stem = format!(
        "{}-seed{}-trace{}",
        run.workload,
        run.seed,
        u8::from(run.traced)
    );
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return;
    }
    let failures: Vec<String> = run
        .failures
        .iter()
        .map(|f| format!("\"{}\"", xgs_runtime::escape_json(f)))
        .collect();
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{},\"source\":{},\"result\":{},\"metrics\":{},\"op_times\":{:?},\"failures\":[{}]}}\n",
        run.workload,
        run.seed,
        run.seconds,
        run.traced,
        fingerprint(run),
        std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "null".into()),
        result,
        run.all_metrics_json(),
        run.op_times,
        failures.join(",")
    );
    let path = dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    if run.traced {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = trace::write_jsonl(&path, spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        worker(&argv[1..]);
    }
    let args = parse_args(&argv);
    let mut run = Run::new(&args.workload, args.seed, args.seconds, args.trace);
    eprintln!("perfbench: fingerprint {}", fingerprint(&run));

    match args.workload.as_str() {
        "mle-weak" => mle::weak(&mut run),
        "fit-strong" => fit::run(&mut run),
        "predict" => predict::run(&mut run),
        "mle-sharded" => mle::sharded(&mut run),
        _ => unreachable!("validated in parse_args"),
    }

    run.metric("peak_heap_mib", alloc::peak_heap_mib(), "MiB");
    let spans = trace::spans();
    let wanted: Vec<&str> = if args.trace {
        layers::kernel_rates(&mut run, mle::NB, KERNEL_BUDGET);
        self_time_metrics(&mut run, &spans);
        for &(name, unit) in PER_LAYER {
            if run.get(name).is_none() {
                run.metric(name, 0.0, unit);
            }
        }
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let result = run.result_json(&wanted);
    if let Some(dir) = &args.record_dir {
        write_record(dir, &run, &result, &spans);
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` at the repository root
    /// name the same metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = xgs_runtime::parse_json(&text).expect("valid JSON");
        let table = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(table("end_to_end"), own(&END_TO_END));
        assert_eq!(table("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
