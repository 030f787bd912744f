//! `fit-strong`: fixed-budget particle-swarm fits on the
//! strong-correlation dataset, with the engine users get by default.

use xgs_core::mle::FitOptimizer;
use xgs_core::optimizer::transform::{forward_all, inverse_all};
use xgs_core::{fit, particle_swarm, FactorEngine, FitOptions, FitResult, ModelFamily, PsoOptions};
use xgs_tile::{TlrConfig, Variant};

use crate::checks::{self, Check};
use crate::harness::{repeated_setup, time_boxed, timed, Run};
use crate::inputs::{self, Field};
use crate::layers::{self, ThreadSampler};
use crate::mle::decomposed_llh;
use crate::stats::median;
use crate::trace;
use std::sync::Mutex;

pub const N: usize = 1600;
pub const NB: usize = 160;
/// Strong correlation: every tile stays FP64 under the precision rule.
pub const RANGE: f64 = 0.1;
pub const PARTICLES: usize = 4;
pub const ITERATIONS: usize = 4;

fn options() -> FitOptions {
    FitOptions {
        optimizer: FitOptimizer::ParticleSwarm(PsoOptions {
            particles: PARTICLES,
            iterations: ITERATIONS,
            ..PsoOptions::default()
        }),
        ..FitOptions::default()
    }
}

fn cfg() -> TlrConfig {
    TlrConfig::new(Variant::MpDense, NB)
}

/// `fit`'s default start for the Matérn family: the sample variance
/// (floored at 1e-3), range 0.1, smoothness 1.
fn default_start(z: &[f64]) -> Vec<f64> {
    let var = z.iter().map(|v| v * v).sum::<f64>() / z.len().max(1) as f64;
    vec![var.max(1e-3), 0.1, 1.0]
}

/// [`fit`] re-composed from the outside: the same transforms, start, box
/// and swarm, with every objective evaluation in its own span (parented
/// to the fit span across the pool's threads) and decomposed into
/// generate / factorize / solve. Must be bitwise the library's fit.
fn traced_fit(field: &Field, census: &Mutex<Census>) -> (Vec<f64>, f64, usize) {
    let family = ModelFamily::MaternSpace;
    let fit_span = trace::span("core.fit");
    let parent = fit_span.id();
    let transforms = family.transforms();
    let start = forward_all(&transforms, &default_start(&field.z));
    let bounds: Vec<(f64, f64)> = start.iter().map(|&s| (s - 2.5, s + 2.5)).collect();
    let cfg = cfg();
    let objective = |y: &[f64]| -> f64 {
        let _eval = trace::span_under("core.eval", parent);
        let theta = inverse_all(&transforms, y);
        let kernel = family.kernel(&theta);
        match decomposed_llh(kernel.as_ref(), field, &cfg, &FactorEngine::Sequential) {
            Ok(d) => {
                census.lock().expect("census lock poisoned").add(&d.census);
                -d.llh
            }
            Err(_) => f64::INFINITY,
        }
    };
    let pso = match options().optimizer {
        FitOptimizer::ParticleSwarm(p) => p,
        FitOptimizer::NelderMead(_) => unreachable!("options() builds a swarm"),
    };
    let r = particle_swarm(objective, &bounds, &pso);
    (inverse_all(&transforms, &r.x), -r.f, r.evals)
}

/// Tile formats summed over the fit's evaluations: whether the swarm's
/// parameters pushed `MpDense` into low precision.
#[derive(Default)]
struct Census {
    evals: usize,
    f64: usize,
    f32: usize,
    f16: usize,
}

impl Census {
    fn add(&mut self, c: &layers::Census) {
        self.evals += 1;
        self.f64 += c.f64;
        self.f32 += c.f32;
        self.f16 += c.f16;
    }
}

fn untraced_fit(field: &Field) -> FitResult {
    fit(
        ModelFamily::MaternSpace,
        &field.locs,
        &field.z,
        &cfg(),
        &inputs::tile_model(),
        &options(),
    )
}

pub fn run(run: &mut Run) {
    let (field, setup_s) = repeated_setup(|| inputs::field(N, RANGE, run.seed));
    run.metric("setup_s", setup_s, "s");
    let budget = PARTICLES * (ITERATIONS + 1);

    let mut reference: Option<(Vec<f64>, f64)> = None;
    let mut untraced_op_s = None;
    if run.traced {
        let (r, s) = timed(|| untraced_fit(&field));
        reference = Some((r.theta, r.llh));
        untraced_op_s = Some(s);
        trace::set_enabled(true);
    }

    let census = Mutex::new(Census::default());
    let pool0 = rayon::global_pool_stats();
    let sampler = run.traced.then(ThreadSampler::start);
    let op_s = time_boxed(run.seconds, 1, |_| {
        let (theta, llh, evals) = if run.traced {
            traced_fit(&field, &census)
        } else {
            let r = untraced_fit(&field);
            (r.theta, r.llh, r.evals)
        };
        let mut checks: Vec<Check> = vec![
            checks::finite("fit llh", llh),
            checks::count("fit evaluations", evals, budget),
        ];
        // Fits are deterministic: every op (and the traced re-composition)
        // reproduces the first untraced fit bitwise.
        let (want_theta, want_llh) = reference
            .get_or_insert_with(|| (theta.clone(), llh))
            .clone();
        checks.push(checks::bitwise_all("fit theta", &theta, &want_theta));
        checks.push(checks::bitwise("fit llh", llh, want_llh));
        run.op(&checks);
    });
    trace::set_enabled(false);
    let threads_peak = sampler.map(ThreadSampler::stop);
    run.op_times(&op_s);
    run.metric("fit_s", median(&op_s), "s");
    if !run.traced {
        return;
    }
    let ops = op_s.len() as f64;
    let pool = rayon::global_pool_stats().since(&pool0);
    run.metric("runtime.pool_jobs", pool.jobs as f64 / ops, "count");
    run.metric("runtime.pool_steals", pool.steals as f64 / ops, "count");
    run.metric(
        "runtime.threads_peak",
        threads_peak.unwrap_or(0) as f64,
        "count",
    );
    run.metric("core.fit_evals", budget as f64, "count");
    let c = census.into_inner().expect("census lock poisoned");
    let per_eval = |x: usize| x as f64 / c.evals.max(1) as f64;
    run.metric("tile.count.f64", per_eval(c.f64), "count");
    run.metric("tile.count.f32", per_eval(c.f32), "count");
    run.metric("tile.count.f16", per_eval(c.f16), "count");
    let spans = trace::spans();
    run.metric(
        "core.eval_s_p50",
        median(&trace::durations(&spans, "core.eval")),
        "s",
    );
    if let Some(s) = untraced_op_s {
        run.metric("fit_s", s, "s");
        run.metric("trace.overhead_s", median(&op_s) - s, "s");
    }
}
