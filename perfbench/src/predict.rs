//! `predict`: batch kriging plus an open-loop request stream against the
//! prediction service, over an `MpDense` plan of the weak-correlation data.

use std::sync::Arc;
use std::time::Duration;

use xgs_core::{krige, ModelFamily, PredictionPlan};
use xgs_covariance::Location;
use xgs_runtime::{KernelStats, MetricsReport};
use xgs_server::{build_plan, serve, Frontend, ModelRegistry, ServerConfig, ServerHandle};
use xgs_tile::Variant;

use crate::checks::{self, Check};
use crate::client::{self, Scheduled, Status, StreamResult, StreamSpec};
use crate::harness::{repeated_setup, time_boxed, timed, Run};
use crate::inputs::{self, Field};
use crate::mle::{N, NB, RANGE};
use crate::stats::{median, tail_percentile};
use crate::trace;

/// Kriging targets per batch (split across the cores).
pub const KRIGE_TARGETS: usize = 512;
/// Points per mean-only request.
pub const POINTS: usize = 4;
/// Share of served requests that also ask for the prediction variance;
/// enough that the served p99 falls inside that population.
pub const UNCERTAINTY_SHARE: f64 = 0.02;
/// Points per request with variance (one triangular solve each).
pub const UNCERTAINTY_POINTS: usize = 1;
/// The two fixed offered rates (requests/s): about one half and about
/// 0.8 of the service's capacity on the reference machine (2 cores).
pub const RATES: [(&str, f64); 2] = [("mid", 2200.0), ("high", 3600.0)];
/// Offered-rate ladder for `serve_max_rps`, climbed until a rung fails.
pub const LADDER: [f64; 6] = [2800.0, 3400.0, 4000.0, 4600.0, 5200.0, 6000.0];
/// Seconds of each fixed-rate stream.
pub const STREAM_SECONDS: f64 = 3.0;
/// Seconds per ladder rung.
pub const RUNG_SECONDS: f64 = 1.5;
/// A rung passes while client p99 stays at or under this many ms.
pub const P99_LIMIT_MS: f64 = 50.0;
/// How long stragglers may take after a stream's last send.
const GRACE: Duration = Duration::from_secs(5);

struct Service {
    field: Field,
    plan: Arc<PredictionPlan>,
    registry: Arc<ModelRegistry>,
    /// `None` once stopped.
    server: Option<ServerHandle>,
}

impl Service {
    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("server running")
    }
}

/// A dropped handle does not stop its server; a dropped service does.
impl Drop for Service {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            stop(s);
        }
    }
}

fn start_server(
    registry: &Arc<ModelRegistry>,
    frontend: Frontend,
    solvers: usize,
) -> std::io::Result<ServerHandle> {
    serve(
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            frontend,
            solvers,
            ..ServerConfig::default()
        },
        registry.clone(),
    )
}

fn setup(seed: u64, cores: usize) -> Result<Service, String> {
    let field = inputs::field(N, RANGE, seed);
    let (plan, _llh) = build_plan(
        ModelFamily::MaternSpace,
        &field.theta,
        Variant::MpDense,
        NB,
        field.locs.clone(),
        &field.z,
        cores,
    )?;
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("default", plan.clone());
    let server = start_server(&registry, Frontend::Reactor, cores).map_err(|e| e.to_string())?;
    Ok(Service {
        field,
        plan,
        registry,
        server: Some(server),
    })
}

fn stop(server: ServerHandle) {
    server.shutdown();
    server.join();
}

/// XOR of per-request response hashes computed in-process with
/// [`PredictionPlan::query`] over the requests that were answered. Points
/// are queried in two batches (mean-only and with variance); batching
/// never changes a point's result.
fn local_checksum(plan: &PredictionPlan, reqs: &[Scheduled], result: &StreamResult) -> u64 {
    let mut sum = 0u64;
    for unc in [false, true] {
        let picked: Vec<&Scheduled> = reqs
            .iter()
            .zip(&result.outcomes)
            .filter(|(r, o)| r.uncertainty == unc && o.status == Status::Ok)
            .map(|(r, _)| r)
            .collect();
        let pts: Vec<Location> = picked
            .iter()
            .flat_map(|r| r.points.iter().copied())
            .collect();
        if pts.is_empty() {
            continue;
        }
        let q = plan.query(&pts, unc);
        let mut at = 0;
        for r in picked {
            let k = r.points.len();
            let u = q.uncertainty.as_ref().map(|u| &u[at..at + k]);
            sum ^= client::response_hash(&q.mean[at..at + k], u);
            at += k;
        }
    }
    sum
}

/// Whether requests the service did not answer fail the run: yes at the
/// fixed rates, no on ladder rungs, which probe past capacity on purpose.
#[derive(Clone, Copy, PartialEq)]
enum Misses {
    Fail,
    Probe,
}

/// One stream: run, verify the checksum, account every request as an op.
fn stream(
    run: &mut Run,
    plan: &PredictionPlan,
    addr: std::net::SocketAddr,
    rate: f64,
    seconds: f64,
    salt: u64,
    misses: Misses,
) -> Option<(Vec<Scheduled>, StreamResult)> {
    let spec = StreamSpec {
        rate,
        seconds,
        points: POINTS,
        uncertainty_share: UNCERTAINTY_SHARE,
        uncertainty_points: UNCERTAINTY_POINTS,
    };
    let reqs = client::schedule(&spec, run.seed.wrapping_mul(31).wrapping_add(salt));
    let result = match client::run_stream(addr, &reqs, run.cores, GRACE) {
        Ok(r) => r,
        Err(e) => {
            run.failed_ops(reqs.len() as u64, &format!("stream at {rate} rps: {e}"));
            return None;
        }
    };
    let ok = result.count(Status::Ok) as u64;
    let check = checks::checksum(
        &format!("stream at {rate} rps"),
        result.checksum,
        local_checksum(plan, &reqs, &result),
    );
    run.ops(ok, &[check]);
    let missed = reqs.len() as u64 - ok;
    if missed > 0 && misses == Misses::Fail {
        run.failed_ops(
            missed,
            &format!("requests refused, expired or failed at {rate} rps"),
        );
    }
    Some((reqs, result))
}

fn latency_ms(result: &StreamResult, p: f64) -> f64 {
    tail_percentile(&result.latencies_ms(), p).unwrap_or(f64::INFINITY)
}

fn kernel<'a>(m: &'a MetricsReport, kind: &str) -> Option<&'a KernelStats> {
    m.kernels.iter().find(|k| k.kind == kind)
}

/// `after - before` for one kernel row (counts, totals, histogram).
fn delta(after: &MetricsReport, before: &MetricsReport, kind: &'static str) -> KernelStats {
    let mut d = KernelStats::new(kind);
    if let Some(a) = kernel(after, kind) {
        d.count = a.count;
        d.total_seconds = a.total_seconds;
        d.histogram = a.histogram;
        if let Some(b) = kernel(before, kind) {
            d.count -= b.count;
            d.total_seconds -= b.total_seconds;
            for (x, y) in d.histogram.buckets.iter_mut().zip(b.histogram.buckets) {
                *x -= y;
            }
        }
    }
    d
}

/// Percentile of a log₂-µs histogram, interpolated geometrically inside
/// its bucket; milliseconds.
pub fn histogram_percentile_ms(k: &KernelStats, p: f64) -> f64 {
    let total = k.histogram.count();
    if total == 0 {
        return 0.0;
    }
    let target = p * total as f64;
    let mut cum = 0.0;
    for (i, &c) in k.histogram.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if cum + c as f64 >= target {
            if i == 0 {
                return 0.0005;
            }
            let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
            let lo = 2f64.powi(i as i32 - 1);
            return lo * 2f64.powf(frac) / 1e3;
        }
        cum += c as f64;
    }
    f64::INFINITY
}

fn snapshot(server: &ServerHandle) -> MetricsReport {
    MetricsReport::from_json(&server.metrics_json()).unwrap_or_default()
}

/// One batch of kriging with variance: the targets split into one
/// contiguous slice per core, each slice one `krige` call on its own
/// thread. Points are independent columns, so the joined result is
/// bitwise what one call over all targets returns.
fn krige_batch(svc: &Service, targets: &[Location], cores: usize) -> (Vec<f64>, Vec<f64>) {
    let f = &svc.field;
    let kernel = f.kernel();
    let chunk = targets.len().div_ceil(cores.max(1));
    let parent = trace::current();
    std::thread::scope(|s| {
        let slices: Vec<_> = targets
            .chunks(chunk)
            .map(|c| {
                let kernel = &kernel;
                s.spawn(move || {
                    let _g = trace::span_under("core.krige", parent);
                    krige(kernel, &f.locs, &f.z, svc.plan.factor(), c, true)
                })
            })
            .collect();
        let (mut mean, mut unc) = (Vec::new(), Vec::new());
        for h in slices {
            let r = h.join().expect("kriging thread panicked");
            mean.extend(r.mean);
            unc.extend(r.uncertainty.unwrap_or_default());
        }
        (mean, unc)
    })
}

/// Time-boxed batch kriging: one op is one [`krige_batch`] of the
/// targets, checked bitwise against the plan's query of the same targets.
/// Returns the per-op seconds.
fn krige_ops(run: &mut Run, svc: &Service, budget: f64) -> Vec<f64> {
    let targets = inputs::targets(KRIGE_TARGETS, run.seed);
    let want = svc.plan.query(&targets, true);
    let want_unc = want.uncertainty.unwrap_or_default();
    let sigma2 = svc.field.theta[0];
    let cores = run.cores;
    time_boxed(budget, 3, |_| {
        let (mean, unc) = krige_batch(svc, &targets, cores);
        let checks: Vec<Check> = vec![
            checks::bitwise_all("krige mean vs plan query", &mean, &want.mean),
            checks::bitwise_all("krige variance vs plan query", &unc, &want_unc),
            if unc.iter().all(|u| (0.0..=sigma2).contains(u)) {
                Ok(())
            } else {
                Err("kriging variance outside [0, sigma^2]".into())
            },
        ];
        run.op(&checks);
    })
}

pub fn run(run: &mut Run) {
    let cores = run.cores;
    let (svc, setup_s) = repeated_setup(|| setup(run.seed, cores));
    run.metric("setup_s", setup_s, "s");
    let svc = match svc {
        Ok(s) => s,
        Err(e) => return run.failed_ops(1, &e),
    };
    let addr = svc.server().addr();

    if !run.traced {
        let krige_s = krige_ops(run, &svc, run.seconds);
        run.op_times(&krige_s);
        run.metric(
            "krige_pts_per_s",
            KRIGE_TARGETS as f64 / median(&krige_s),
            "1/s",
        );
        // The serving path is exercised and checked on every run too.
        let (name, rate) = RATES[0];
        if let Some((_, r)) = stream(run, &svc.plan, addr, rate, STREAM_SECONDS, 0, Misses::Fail) {
            run.metric(format!("serve_p50_ms.{name}"), latency_ms(&r, 0.5), "ms");
            run.metric(format!("serve_p99_ms.{name}"), latency_ms(&r, 0.99), "ms");
        }
        return;
    }
    traced(run, svc, addr);
}

fn traced(run: &mut Run, svc: Service, addr: std::net::SocketAddr) {
    // Untraced baseline of the e2e op for the tracing overhead.
    let base = median(&krige_ops(run, &svc, STREAM_SECONDS / 2.0));
    trace::set_enabled(true);

    // Phase 1: offline batch kriging with uncertainty.
    let krige_s = krige_ops(run, &svc, STREAM_SECONDS);
    let ks = median(&krige_s);
    run.metric("core.krige_s", ks, "s");
    run.op_times(&krige_s);
    run.metric("trace.overhead_s", ks - base, "s");
    run.metric("krige_pts_per_s", KRIGE_TARGETS as f64 / ks, "1/s");

    // In-process query cost of the two request shapes the stream sends.
    let shapes = client::schedule(
        &StreamSpec {
            rate: 1000.0,
            seconds: 0.2,
            points: POINTS,
            uncertainty_share: 0.1,
            uncertainty_points: UNCERTAINTY_POINTS,
        },
        run.seed,
    );
    let query_s: Vec<f64> = shapes
        .iter()
        .map(|r| {
            timed(|| {
                let _g = trace::span("core.query");
                svc.plan.query(&r.points, r.uncertainty)
            })
            .1
        })
        .collect();
    run.metric("core.query_s_mean", crate::stats::mean(&query_s), "s");

    // Phase 2: the open-loop stream at each fixed rate.
    let mut shed = 0u64;
    let mut expired = 0u64;
    for (i, &(name, rate)) in RATES.iter().enumerate() {
        let before = snapshot(svc.server());
        let Some((_, r)) = stream(
            run,
            &svc.plan,
            addr,
            rate,
            STREAM_SECONDS,
            1 + i as u64,
            Misses::Fail,
        ) else {
            continue;
        };
        let after = snapshot(svc.server());
        let p50 = latency_ms(&r, 0.5);
        run.metric(format!("serve_p50_ms.{name}"), p50, "ms");
        run.metric(format!("serve_p99_ms.{name}"), latency_ms(&r, 0.99), "ms");
        let lateness = tail_percentile(&r.lateness_ms(), 0.99).unwrap_or(0.0);
        run.metric(format!("client.lateness_ms_p99.{name}"), lateness, "ms");
        let req = delta(&after, &before, "request");
        let wait = delta(&after, &before, "queue_wait");
        let solve = delta(&after, &before, "solve");
        let batch = delta(&after, &before, "batch_size");
        shed += delta(&after, &before, "shed").count;
        expired += delta(&after, &before, "deadline").count;
        run.metric(
            format!("server.queue_wait_ms_p50.{name}"),
            histogram_percentile_ms(&wait, 0.5),
            "ms",
        );
        run.metric(
            format!("server.request_ms_p99.{name}"),
            histogram_percentile_ms(&req, 0.99),
            "ms",
        );
        run.metric(
            format!("server.solve_ms_mean.{name}"),
            solve.total_seconds / solve.count.max(1) as f64 * 1e3,
            "ms",
        );
        run.metric(
            format!("server.batch_points_mean.{name}"),
            batch.total_seconds * 1e6 / batch.count.max(1) as f64,
            "points",
        );
        run.metric(
            format!("client.overhead_ms_p50.{name}"),
            p50 - histogram_percentile_ms(&req, 0.5),
            "ms",
        );
    }
    run.metric("server.shed", shed as f64, "count");
    run.metric("server.expired", expired as f64, "count");

    // The ladder: highest rung whose p99 holds the limit with no backlog.
    let mut max_rps = 0.0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let Some((_, r)) = stream(
            run,
            &svc.plan,
            addr,
            rate,
            RUNG_SECONDS,
            100 + i as u64,
            Misses::Probe,
        ) else {
            break;
        };
        let lat = r.latencies_ms();
        let q = lat.len() / 4;
        let growing = q > 0 && median(&lat[lat.len() - q..]) > 2.0 * median(&lat[..q]) + 1.0;
        if latency_ms(&r, 0.99) > P99_LIMIT_MS || growing {
            break;
        }
        max_rps = rate;
    }
    run.metric("serve_max_rps", max_rps, "1/s");
    trace::set_enabled(false);
    let (plan, registry) = (svc.plan.clone(), svc.registry.clone());
    drop(svc);

    // Comparison only: the same mid-rate stream on the threaded frontend.
    let (name, rate) = RATES[0];
    match start_server(&registry, Frontend::Threaded, run.cores) {
        Ok(threaded) => {
            if let Some((_, r)) = stream(
                run,
                &plan,
                threaded.addr(),
                rate,
                STREAM_SECONDS,
                1,
                Misses::Fail,
            ) {
                run.metric(
                    format!("server.threaded_p50_ms.{name}"),
                    latency_ms(&r, 0.5),
                    "ms",
                );
                run.metric(
                    format!("server.threaded_p99_ms.{name}"),
                    latency_ms(&r, 0.99),
                    "ms",
                );
            }
            stop(threaded);
        }
        Err(e) => run.failed_ops(1, &format!("threaded frontend: {e}")),
    }
}
