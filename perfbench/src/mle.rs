//! `mle-weak` and `mle-sharded`: log-likelihood evaluations on the
//! weak-correlation dataset, in-process and through the warm fleet.

use std::sync::Arc;

use xgs_cholesky::dag::TileMetaSource;
use xgs_cholesky::{logdet, project_wire_census_warm, solve_lower, ShardBackend, TiledFactor};
use xgs_core::{log_likelihood, log_likelihood_engine, FactorEngine};
use xgs_fleet::{FleetConfig, Supervisor};
use xgs_kernels::Precision;
use xgs_runtime::{ExecReport, MetricsReport};
use xgs_tile::{SymTileMatrix, TlrConfig, Variant};

use crate::checks::{self, Check};
use crate::harness::{repeated_setup, time_boxed, timed, Run};
use crate::inputs::{self, Field};
use crate::layers::{self, TileBytes, KINDS};
use crate::stats::median;
use crate::trace;

/// Sites of the weak-correlation dataset.
pub const N: usize = 2400;
/// Tile size.
pub const NB: usize = 160;
/// Correlation range: weak enough that the precision rule demotes tiles.
pub const RANGE: f64 = 0.02;

pub const VARIANTS: [Variant; 3] = [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr];

/// Stated bound on `|l_v - l_fp64| / |l_fp64|` per variant.
pub fn relerr_bound(v: Variant) -> f64 {
    match v {
        Variant::DenseF64 => 0.0,
        Variant::MpDense => 1e-10,
        Variant::MpDenseTlr => 1e-7,
    }
}

/// `-(n/2) log 2π - (1/2) log|Σ| - (1/2) quad`, in the library's order.
pub fn llh_from(n: usize, ld: f64, quad: f64) -> f64 {
    -0.5 * (n as f64) * (2.0 * std::f64::consts::PI).ln() - 0.5 * ld - 0.5 * quad
}

/// What one traced, decomposed evaluation observed.
pub struct Decomposed {
    pub llh: f64,
    pub generate_s: f64,
    pub factor_s: f64,
    pub solve_s: f64,
    pub bytes: TileBytes,
    pub census: layers::Census,
    pub exec: Option<ExecReport>,
}

/// [`log_likelihood_engine`] re-composed from its public steps, each in
/// its own span: generate, factorize, log-determinant plus forward solve.
/// Callers check the result bitwise against the library's.
pub fn decomposed_llh(
    kernel: &dyn xgs_covariance::CovarianceKernel,
    field: &Field,
    cfg: &TlrConfig,
    engine: &FactorEngine,
) -> Result<Decomposed, String> {
    let _llh = trace::span("core.llh");
    let (matrix, generate_s) = timed(|| {
        let _g = trace::span("tile.generate");
        SymTileMatrix::generate(kernel, &field.locs, *cfg, &inputs::tile_model())
    });
    let bytes = TileBytes::of(&matrix);
    let census = layers::census(&matrix);
    let (factored, factor_s) = timed(
        || -> Result<(Arc<TiledFactor>, Option<ExecReport>), String> {
            match engine {
                FactorEngine::Threads(w) => {
                    let _g = trace::span("cholesky.factorize");
                    let f = Arc::new(TiledFactor::from_matrix(matrix));
                    let (res, rep) = f.factorize_parallel(*w);
                    res.map_err(|e| e.to_string())?;
                    Ok((f, Some(rep)))
                }
                FactorEngine::Sequential => {
                    let _g = trace::span("cholesky.factorize");
                    let mut f = TiledFactor::from_matrix(matrix);
                    f.factorize_seq().map_err(|e| e.to_string())?;
                    Ok((Arc::new(f), None))
                }
                FactorEngine::Sharded(backend) => {
                    let _g = trace::span("shard.factorize");
                    let mut f = TiledFactor::from_matrix(matrix);
                    let rep = backend.factorize(&mut f).map_err(|e| e.to_string())?;
                    Ok((Arc::new(f), Some(sharded_exec(rep.metrics))))
                }
            }
        },
    );
    let (factor, exec) = factored?;
    let ((ld, quad), solve_s) = timed(|| {
        let _g = trace::span("cholesky.solve");
        let ld = logdet(&factor);
        let mut w = field.z.clone();
        solve_lower(&factor, &mut w, 1);
        let quad: f64 = w.iter().map(|x| x * x).sum();
        (ld, quad)
    });
    Ok(Decomposed {
        llh: llh_from(field.locs.len(), ld, quad),
        generate_s,
        factor_s,
        solve_s,
        bytes,
        census,
        exec,
    })
}

/// The sharded engine's report in the executor's shape (as
/// `log_likelihood_engine` builds it).
fn sharded_exec(m: MetricsReport) -> ExecReport {
    ExecReport {
        wall_seconds: m.wall_seconds,
        tasks: m.tasks,
        workers: m.workers,
        busy_seconds: m.worker_stats.iter().map(|w| w.busy_seconds).collect(),
        trace: Vec::new(),
        metrics: Some(m),
    }
}

/// Per-variant accumulators over a run's ops.
#[derive(Default)]
struct Acc {
    llh_s: Vec<f64>,
    generate_s: Vec<f64>,
    factor_s: Vec<f64>,
    solve_s: Vec<f64>,
    reports: Vec<ExecReport>,
    census: Option<layers::Census>,
    bytes: f64,
}

/// Record the factor breakdown of one variant from its traced ops.
fn factor_metrics(run: &mut Run, name: &str, acc: &Acc) {
    let ops = acc.reports.len().max(1) as f64;
    let mut gflop = 0.0;
    for (k, kind) in KINDS.iter().enumerate() {
        let (mut count, mut busy) = (0u64, 0.0);
        for r in &acc.reports {
            let t = layers::kind_times(r)[k];
            count += t.count;
            busy += t.busy_s;
        }
        let flops = count as f64 * layers::kind_flops(kind, NB);
        gflop += flops / 1e9 / ops;
        let rate = if busy > 0.0 { flops / busy / 1e9 } else { 0.0 };
        run.metric(format!("cholesky.{kind}.gflops.{name}"), rate, "GF/s");
    }
    let busy: Vec<f64> = acc.reports.iter().map(layers::busy_frac).collect();
    run.metric(format!("cholesky.gflop.{name}"), gflop, "Gflop-computed");
    run.metric(format!("cholesky.bytes.{name}"), acc.bytes, "B-computed");
    run.metric(format!("runtime.busy_frac.{name}"), median(&busy), "ratio");
}

/// `mle-weak`: one op is one `log_likelihood` per variant on the
/// in-process runtime with one worker per core.
pub fn weak(run: &mut Run) {
    let (field, setup_s) = repeated_setup(|| inputs::field(N, RANGE, run.seed));
    run.metric("setup_s", setup_s, "s");
    let kernel = field.kernel();
    let model = inputs::tile_model();
    let workers = run.cores;
    let engine = FactorEngine::Threads(workers);

    // Reference values for the traced run's bitwise re-composition (and
    // its tracing-overhead baseline): one untraced op first.
    let mut reference: Option<[f64; 3]> = None;
    let mut untraced_op_s = None;
    if run.traced {
        let (llh, s) = timed(|| {
            VARIANTS.map(|v| {
                log_likelihood(
                    &kernel,
                    &field.locs,
                    &field.z,
                    &TlrConfig::new(v, NB),
                    &model,
                    workers,
                )
                .map_or(f64::NAN, |r| r.llh)
            })
        });
        reference = Some(llh);
        untraced_op_s = Some(s);
        trace::set_enabled(true);
    }

    let mut acc: [Acc; 3] = Default::default();
    let pool0 = rayon::global_pool_stats();
    let mut first: Option<[f64; 3]> = reference;
    let seconds = run.seconds;
    let op_s = time_boxed(seconds, 1, |_| {
        let mut llh = [f64::NAN; 3];
        let mut checks: Vec<Check> = Vec::new();
        for (vi, &v) in VARIANTS.iter().enumerate() {
            let cfg = TlrConfig::new(v, NB);
            let t = std::time::Instant::now();
            if run.traced {
                match decomposed_llh(&kernel, &field, &cfg, &engine) {
                    Ok(d) => {
                        llh[vi] = d.llh;
                        let a = &mut acc[vi];
                        a.generate_s.push(d.generate_s);
                        a.factor_s.push(d.factor_s);
                        a.solve_s.push(d.solve_s);
                        a.bytes = d.bytes.task_bytes();
                        a.reports.extend(d.exec);
                        a.census = Some(d.census);
                    }
                    Err(e) => checks.push(Err(format!("{}: {e}", v.name()))),
                }
            } else {
                match log_likelihood(&kernel, &field.locs, &field.z, &cfg, &model, workers) {
                    Ok(r) => llh[vi] = r.llh,
                    Err(e) => checks.push(Err(format!("{}: {e}", v.name()))),
                }
            }
            acc[vi].llh_s.push(t.elapsed().as_secs_f64());
            checks.push(checks::finite(v.name(), llh[vi]));
            checks.push(checks::relerr_within(
                v.name(),
                llh[vi],
                llh[0],
                relerr_bound(v),
            ));
        }
        // Every engine is deterministic: each op (and the traced
        // re-composition) reproduces the first op's values bitwise.
        let want = *first.get_or_insert(llh);
        for (vi, v) in VARIANTS.iter().enumerate() {
            checks.push(checks::bitwise(
                &format!("{} vs first op", v.name()),
                llh[vi],
                want[vi],
            ));
        }
        for (vi, v) in VARIANTS.iter().enumerate().skip(1) {
            run.metric(
                format!("llh_relerr.{}", v.name()),
                checks::relerr(llh[vi], llh[0]),
                "ratio",
            );
        }
        run.op(&checks);
    });
    run.op_times(&op_s);
    trace::set_enabled(false);
    for (vi, v) in VARIANTS.iter().enumerate() {
        run.metric(format!("llh_s.{}", v.name()), median(&acc[vi].llh_s), "s");
    }
    if !run.traced {
        return;
    }
    let ops = op_s.len() as f64;
    let pool = rayon::global_pool_stats().since(&pool0);
    run.metric("runtime.pool_jobs", pool.jobs as f64 / ops, "count");
    run.metric("runtime.pool_steals", pool.steals as f64 / ops, "count");
    if let Some(s) = untraced_op_s {
        run.metric("trace.overhead_s", median(&op_s) - s, "s");
    }
    let mut solve = Vec::new();
    for (vi, v) in VARIANTS.iter().enumerate() {
        let name = v.name();
        let a = &acc[vi];
        run.metric(
            format!("tile.generate_s.{name}"),
            median(&a.generate_s),
            "s",
        );
        run.metric(
            format!("cholesky.factor_s.{name}"),
            median(&a.factor_s),
            "s",
        );
        solve.extend_from_slice(&a.solve_s);
        factor_metrics(run, name, a);
        if let Some(c) = &a.census {
            run.metric(
                format!("tile.footprint_ratio.{name}"),
                c.footprint_ratio,
                "ratio",
            );
        }
    }
    run.metric("cholesky.solve_s", median(&solve), "s");
    run.metric(
        "tile.compress_s",
        median(&acc[2].generate_s) - median(&acc[1].generate_s),
        "s",
    );
    if let (Some(mp), Some(tlr)) = (&acc[1].census, &acc[2].census) {
        run.metric("tile.count.f64", mp.f64 as f64, "count");
        run.metric("tile.count.f32", mp.f32 as f64, "count");
        run.metric("tile.count.f16", mp.f16 as f64, "count");
        run.metric("tile.count.lr", tlr.lr as f64, "count");
        run.metric("tile.lr_rank_mean", tlr.lr_rank_mean, "rank");
    }
}

/// Per-tile formats of a generated matrix, captured for the wire-census
/// projection (static formats: exact for the dense variants).
struct Formats {
    nt: usize,
    tiles: Vec<(bool, usize, Precision)>,
}

impl Formats {
    fn of(m: &SymTileMatrix) -> Formats {
        let nt = m.nt();
        let mut tiles = vec![(true, 0, Precision::F64); nt * nt];
        for j in 0..nt {
            for i in j..nt {
                let t = m.tile(i, j);
                tiles[i * nt + j] = (t.is_dense(), t.rank().unwrap_or(0), t.precision);
            }
        }
        Formats { nt, tiles }
    }

    fn at(&self, i: usize, j: usize) -> (bool, usize, Precision) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        self.tiles[i * self.nt + j]
    }
}

impl TileMetaSource for Formats {
    fn is_dense(&self, i: usize, j: usize) -> bool {
        self.at(i, j).0
    }
    fn rank(&self, i: usize, j: usize) -> usize {
        self.at(i, j).1
    }
    fn precision(&self, i: usize, j: usize) -> Precision {
        self.at(i, j).2
    }
}

/// The variants `mle-sharded` runs: static tile formats, so the wire
/// census has an exact projection.
pub const SHARDED: [Variant; 2] = [Variant::DenseF64, Variant::MpDense];

/// Path of this executable: fleet members are launched as `<exe> worker
/// --connect <addr>`, which runs the library's worker loop.
fn worker_exe() -> std::path::PathBuf {
    std::env::current_exe().expect("own executable path")
}

/// Start a warm fleet of `workers` worker processes and drain its
/// admission census with one small factorization, so ops see a steady
/// fleet.
fn warm_fleet(field: &Field, workers: usize) -> Result<Arc<Supervisor>, String> {
    let fleet = Supervisor::start(FleetConfig::process(worker_exe(), workers))
        .map_err(|e| format!("fleet start: {e}"))?;
    let small = &field.locs[..2 * NB];
    let m = SymTileMatrix::generate(
        &field.kernel(),
        small,
        TlrConfig::new(Variant::DenseF64, NB),
        &inputs::tile_model(),
    );
    let mut f = TiledFactor::from_matrix(m);
    fleet
        .factorize(&mut f)
        .map_err(|e| format!("fleet warm-up: {e}"))?;
    Ok(Arc::new(fleet))
}

/// `mle-sharded`: one op is one `log_likelihood_engine` per variant on
/// `FactorEngine::Sharded` over a warm fleet of one worker process per
/// core. Spawning the fleet is part of set-up.
pub fn sharded(run: &mut Run) {
    let workers = run.cores;
    let ((field, fleet), setup_s) = repeated_setup(|| {
        let field = inputs::field(N, RANGE, run.seed);
        let fleet = warm_fleet(&field, workers);
        (field, fleet)
    });
    run.metric("setup_s", setup_s, "s");
    let fleet = match fleet {
        Ok(f) => f,
        Err(e) => return run.failed_ops(1, &e),
    };
    let kernel = field.kernel();
    let model = inputs::tile_model();
    let engine = FactorEngine::Sharded(fleet.clone() as Arc<dyn ShardBackend>);

    // References, outside the timed loop: the in-process likelihood (the
    // sharded one must equal it bitwise) with its factor time, and the
    // projected wire census of each variant's formats.
    let mut local = [f64::NAN; 2];
    let mut local_factor_s = [f64::NAN; 2];
    let mut projected = Vec::new();
    for (vi, &v) in SHARDED.iter().enumerate() {
        let cfg = TlrConfig::new(v, NB);
        if let Ok(d) = decomposed_llh(&kernel, &field, &cfg, &FactorEngine::Threads(workers)) {
            local[vi] = d.llh;
            local_factor_s[vi] = d.factor_s;
        }
        let m = SymTileMatrix::generate(&kernel, &field.locs, cfg, &model);
        projected.push(project_wire_census_warm(&Formats::of(&m), N, NB, workers));
    }
    let mut untraced_op_s = None;
    if run.traced {
        let (_, s) = timed(|| {
            for &v in &SHARDED {
                let _ = log_likelihood_engine(
                    &kernel,
                    &field.locs,
                    &field.z,
                    &TlrConfig::new(v, NB),
                    &model,
                    &engine,
                );
            }
        });
        untraced_op_s = Some(s);
        trace::set_enabled(true);
    }

    let mut llh_s: [Vec<f64>; 2] = Default::default();
    let mut factor_s: [Vec<f64>; 2] = Default::default();
    let mut reports: [Vec<MetricsReport>; 2] = Default::default();
    let op_s = time_boxed(run.seconds, 1, |_| {
        let mut checks: Vec<Check> = Vec::new();
        for (vi, &v) in SHARDED.iter().enumerate() {
            let cfg = TlrConfig::new(v, NB);
            let t = std::time::Instant::now();
            let got = if run.traced {
                decomposed_llh(&kernel, &field, &cfg, &engine).map(|d| {
                    factor_s[vi].push(d.factor_s);
                    (d.llh, d.exec.and_then(|e| e.metrics))
                })
            } else {
                log_likelihood_engine(&kernel, &field.locs, &field.z, &cfg, &model, &engine)
                    .map(|r| (r.llh, r.exec.and_then(|e| e.metrics)))
                    .map_err(|e| e.to_string())
            };
            llh_s[vi].push(t.elapsed().as_secs_f64());
            match got {
                Ok((llh, metrics)) => {
                    checks.push(checks::finite(v.name(), llh));
                    checks.push(checks::bitwise(
                        &format!("sharded {}", v.name()),
                        llh,
                        local[vi],
                    ));
                    match metrics {
                        Some(m) => {
                            checks.push(checks::wire_census(v.name(), &m.wire, &projected[vi]));
                            reports[vi].push(m);
                        }
                        None => checks.push(Err(format!("{}: no shard report", v.name()))),
                    }
                }
                Err(e) => checks.push(Err(format!("sharded {}: {e}", v.name()))),
            }
        }
        run.op(&checks);
    });
    trace::set_enabled(false);
    run.op_times(&op_s);
    for (vi, v) in SHARDED.iter().enumerate() {
        run.metric(format!("llh_s.{}", v.name()), median(&llh_s[vi]), "s");
    }
    if !run.traced {
        return;
    }
    if let Some(s) = untraced_op_s {
        run.metric("trace.overhead_s", median(&op_s) - s, "s");
    }
    let ops = op_s.len() as f64;
    let mut joins = 0u64;
    for (vi, v) in SHARDED.iter().enumerate() {
        let name = v.name();
        let shard_s = median(&factor_s[vi]);
        run.metric(format!("shard.factor_s.{name}"), shard_s, "s");
        run.metric(
            format!("shard.overhead_s.{name}"),
            shard_s - local_factor_s[vi],
            "s",
        );
        let last = reports[vi].last();
        let wire = |kind: Option<&str>| -> (u64, u64) {
            last.map_or((0, 0), |m| {
                m.wire
                    .iter()
                    .filter(|w| kind.is_none_or(|k| w.kind == k))
                    .fold((0, 0), |a, w| (a.0 + w.frames, a.1 + w.bytes))
            })
        };
        run.metric(
            format!("shard.wire_bytes.tile.{name}"),
            wire(Some("tile")).1 as f64,
            "B",
        );
        run.metric(format!("shard.frames.{name}"), wire(None).0 as f64, "count");
        let busy: Vec<f64> = reports[vi]
            .iter()
            .map(|m| layers::busy_frac(&sharded_exec(m.clone())))
            .collect();
        run.metric(
            format!("shard.worker_busy_frac.{name}"),
            median(&busy),
            "ratio",
        );
        joins += reports[vi]
            .iter()
            .flat_map(|m| m.kernels.iter())
            .filter(|k| k.kind == "worker_join")
            .map(|k| k.count)
            .sum::<u64>();
    }
    run.metric("fleet.worker_join", joins as f64 / ops, "count");
}
