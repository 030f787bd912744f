//! The measurement frame every workload shares: repeated set-up, a
//! time-boxed op loop, op accounting, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::checks::Check;
use crate::stats::median;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One run of one workload.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Logical cores; also the worker count every in-process engine and
    /// the server's solver pool get.
    pub cores: usize,
    attempted: u64,
    failed: u64,
    pub failures: Vec<String>,
    /// Wall seconds of each timed op, in order (kept in the record).
    pub op_times: Vec<f64>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Run {
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool) -> Run {
        Run {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            op_times: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Record the timed ops and report their median as `op_s`.
    pub fn op_times(&mut self, times: &[f64]) {
        self.op_times = times.to_vec();
        self.metric("op_s", median(times), "s");
    }

    /// Record a metric (last write wins).
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.0)
    }

    /// Account `n` ops that all share one verdict.
    pub fn ops(&mut self, n: u64, checks: &[Check]) {
        self.attempted += n;
        let errs: Vec<&String> = checks.iter().filter_map(|c| c.as_ref().err()).collect();
        if !errs.is_empty() {
            self.failed += n;
            for e in errs {
                eprintln!("perfbench: check failed: {e}");
                self.failures.push(e.clone());
            }
        }
    }

    /// Account one op.
    pub fn op(&mut self, checks: &[Check]) {
        self.ops(1, checks);
    }

    /// Account ops that failed outright (no check to name).
    pub fn failed_ops(&mut self, n: u64, why: &str) {
        self.attempted += n;
        self.failed += n;
        if n > 0 {
            eprintln!("perfbench: {n} ops failed: {why}");
            self.failures.push(format!("{n} ops failed: {why}"));
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `wanted` (every other recorded metric stays in the
    /// record). A wanted metric that was never recorded, or is not
    /// finite, makes the run incorrect.
    pub fn result_json(&self, wanted: &[&str]) -> String {
        let mut parts = Vec::new();
        let mut ok = self.failed == 0 && self.attempted > 0;
        for name in wanted {
            match self.metrics.get(*name) {
                Some((v, unit)) if v.is_finite() => parts.push(format!(
                    "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
                )),
                other => {
                    ok = false;
                    eprintln!("perfbench: metric {name} missing or not finite: {other:?}");
                    parts.push(format!("\"{name}\":{{\"value\":null,\"unit\":\"?\"}}"));
                }
            }
        }
        format!(
            "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(",")
        )
    }

    /// Every recorded metric as a JSON object (the full record).
    pub fn all_metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".into()
                };
                format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// Run `setup` [`SETUP_REPS`] times; returns the last product and the
/// median set-up seconds. Earlier products are dropped before the next
/// repetition starts, so no two set-ups hold resources at once.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Run ops until the budget is spent: at least `min_ops`, and another op
/// only while the median op so far still fits in what is left. Returns the
/// per-op wall seconds.
pub fn time_boxed(budget: f64, min_ops: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        if times.len() >= min_ops.max(1) && spent + median(&times) > budget {
            return times;
        }
        let t = Instant::now();
        op(times.len());
        times.push(t.elapsed().as_secs_f64());
    }
}

/// Wall-time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_box_runs_min_ops_then_stops_before_overrunning() {
        let times = time_boxed(0.05, 2, |_| {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        assert_eq!(times.len(), 2, "{times:?}");
        let times = time_boxed(0.0, 1, |_| {});
        assert_eq!(times.len(), 1);
    }

    #[test]
    fn failed_check_fails_the_op_and_the_run() {
        let mut run = Run::new("t", 1, 1.0, false);
        run.metric("op_s", 1.5, "s");
        run.op(&[Ok(())]);
        assert!(run
            .result_json(&["op_s"])
            .starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0"));
        run.op(&[Ok(()), Err("boom".into())]);
        let line = run.result_json(&["op_s"]);
        assert!(
            line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"),
            "{line}"
        );
    }

    #[test]
    fn missing_metric_makes_the_run_incorrect() {
        let mut run = Run::new("t", 1, 1.0, false);
        run.op(&[Ok(())]);
        assert!(run.result_json(&["op_s"]).starts_with("{\"correct\":false"));
    }
}
