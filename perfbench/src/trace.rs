//! In-memory span recorder for traced runs.
//!
//! A span has a name, a start, an end and a parent id. Spans nest through
//! a per-thread stack of open spans; work handed to another thread (PSO
//! evaluations on the pool) names its parent explicitly with
//! [`span_under`]. Nothing is written while the run measures: spans stay
//! in memory and [`write_jsonl`] dumps them at the end. With tracing off
//! every call is a branch on one flag.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are seconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Switch recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    OPEN.with(|s| s.borrow().last().copied())
}

/// Closes its span on drop.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, f64)>,
}

impl Guard {
    pub fn id(&self) -> Option<u64> {
        self.open.map(|o| o.0)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let r = recorder();
            let end = r.epoch.elapsed().as_secs_f64();
            OPEN.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.remove(pos);
                }
            });
            // A poisoned recorder still holds whole spans; never panic in drop.
            let mut spans = r.spans.lock().unwrap_or_else(|p| p.into_inner());
            spans.push(Span {
                id,
                parent,
                name,
                start,
                end,
            });
        }
    }
}

/// Open a span whose parent is this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    span_under(name, current())
}

/// Open a span under an explicit parent (work crossing threads).
pub fn span_under(name: &'static str, parent: Option<u64>) -> Guard {
    let r = recorder();
    if !r.enabled.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|s| s.borrow_mut().push(id));
    Guard {
        open: Some((id, parent, name, r.epoch.elapsed().as_secs_f64())),
    }
}

/// Every span recorded so far, in closing order.
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span recorder poisoned by a panicking thread")
        .clone()
}

/// Self time of each span: its duration minus the part of it covered by
/// its direct children. Children running in parallel are measured as the
/// union of their intervals, clipped to the parent, so overlapping
/// children never drive a parent's self time below zero.
pub fn self_times(spans: &[Span]) -> Vec<(usize, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0.0, |c| union_within(c, s.start, s.end));
            (i, (s.seconds() - covered).max(0.0))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Self time summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (i, t) in self_times(spans) {
        *out.entry(spans[i].layer()).or_insert(0.0) += t;
    }
    out
}

/// Durations of every span with this name.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// One JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
            s.id, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    fn self_of(spans: &[Span], id: u64) -> f64 {
        let st = self_times(spans);
        let i = spans.iter().position(|s| s.id == id).unwrap();
        st.iter().find(|(j, _)| *j == i).unwrap().1
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            sp(1, None, "bench.op", 0.0, 10.0),
            sp(2, Some(1), "tile.generate", 1.0, 3.0),
            sp(3, Some(1), "cholesky.factorize", 3.0, 8.0),
            sp(4, Some(3), "runtime.wait", 4.0, 5.0),
        ];
        assert_eq!(self_of(&spans, 1), 3.0);
        assert_eq!(self_of(&spans, 2), 2.0);
        assert_eq!(self_of(&spans, 3), 4.0);
        assert_eq!(self_of(&spans, 4), 1.0);
        // Self times partition the root's wall time.
        let total: f64 = self_times(&spans).iter().map(|x| x.1).sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Four parallel evaluations on two threads under one fit span.
        let spans = vec![
            sp(1, None, "core.fit", 0.0, 10.0),
            sp(2, Some(1), "core.eval", 1.0, 5.0),
            sp(3, Some(1), "core.eval", 1.0, 5.0),
            sp(4, Some(1), "core.eval", 5.0, 9.0),
            sp(5, Some(1), "core.eval", 5.5, 9.5),
        ];
        assert!((self_of(&spans, 1) - 1.5).abs() < 1e-12);
        let layers = layer_self_times(&spans);
        assert!((layers["core"] - (1.5 + 16.0)).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            sp(1, None, "core.query", 2.0, 4.0),
            sp(2, Some(1), "cholesky.solve", 1.0, 3.0),
        ];
        assert_eq!(self_of(&spans, 1), 1.0);
    }

    #[test]
    fn recorder_nests_spans_and_is_silent_when_off() {
        set_enabled(true);
        let before = spans().len();
        {
            let outer = span("test.outer");
            let outer_id = outer.id();
            {
                let inner = span("test.inner");
                assert_eq!(current(), inner.id());
            }
            let other = std::thread::spawn(move || {
                let g = span_under("test.remote", outer_id);
                g.id()
            })
            .join()
            .unwrap();
            assert!(other.is_some());
        }
        set_enabled(false);
        let _ignored = span("test.off");
        let got: Vec<Span> = spans()[before..].to_vec();
        let outer = got.iter().find(|s| s.name == "test.outer").unwrap();
        for name in ["test.inner", "test.remote"] {
            let s = got.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(outer.id), "{name}");
            assert!(s.start >= outer.start && s.end <= outer.end);
        }
        assert!(got.iter().all(|s| s.name != "test.off"));
    }
}
