//! Execution traces and schedule statistics.

use crate::graph::TaskId;

/// One executed task in the trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub task: TaskId,
    pub kind: &'static str,
    /// Tile coordinates `(i, j)` when the task was inserted with
    /// [`crate::TaskGraph::insert_at`].
    pub coords: Option<(u32, u32)>,
    /// Worker loop that ran the task.
    pub worker: usize,
    /// OS thread that ran the loop: a thread of the executing rayon pool,
    /// or the thread that called the executor.
    pub thread: std::thread::ThreadId,
    /// Seconds since execution start.
    pub start: f64,
    pub end: f64,
}

impl TraceEvent {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Export a trace as Chrome Tracing JSON (`chrome://tracing`, Perfetto).
///
/// Workers map to thread lanes; each task becomes one complete ("X")
/// event, giving the Gantt view the paper uses to discuss load imbalance
/// under the adaptive formats.
pub fn chrome_trace_json(trace: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in trace.iter().enumerate() {
        let tile = match e.coords {
            Some((r, c)) => format!(", \"tile\": [{r}, {c}]"),
            None => String::new(),
        };
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"task\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"task\": {}{}}}}}{}\n",
            e.kind,
            e.start * 1e6,
            e.duration() * 1e6,
            e.worker,
            e.task.0,
            tile,
            if i + 1 == trace.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

/// Aggregate per-kind timing from a trace: `(kind, count, total_seconds)`.
pub fn kind_summary(trace: &[TraceEvent]) -> Vec<(&'static str, usize, f64)> {
    let mut out: Vec<(&'static str, usize, f64)> = Vec::new();
    for e in trace {
        match out.iter_mut().find(|(k, _, _)| *k == e.kind) {
            Some((_, c, t)) => {
                *c += 1;
                *t += e.duration();
            }
            None => out.push((e.kind, 1, e.duration())),
        }
    }
    out.sort_by(|a, b| b.2.total_cmp(&a.2));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(task: usize, kind: &'static str, worker: usize, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            task: TaskId(task),
            kind,
            coords: None,
            worker,
            thread: std::thread::current().id(),
            start,
            end,
        }
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let trace = vec![
            TraceEvent {
                task: TaskId(0),
                kind: "potrf",
                coords: Some((3, 3)),
                worker: 0,
                thread: std::thread::current().id(),
                start: 0.0,
                end: 0.5e-3,
            },
            ev(1, "gemm", 1, 0.2e-3, 1.0e-3),
        ];
        let json = chrome_trace_json(&trace);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"name\": \"potrf\""));
        assert!(json.contains("\"tile\": [3, 3]"));
        assert!(json.contains("\"tid\": 1"));
        // Two events, one comma between them.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        // The coordinate-less event carries no tile annotation.
        assert_eq!(json.matches("\"tile\"").count(), 1);
    }

    #[test]
    fn chrome_trace_empty() {
        assert_eq!(chrome_trace_json(&[]), "[\n]");
    }

    #[test]
    fn summary_groups_and_sorts() {
        let trace = vec![
            ev(0, "gemm", 0, 0.0, 2.0),
            ev(1, "trsm", 1, 0.0, 1.0),
            ev(2, "gemm", 0, 2.0, 5.0),
        ];
        let s = kind_summary(&trace);
        assert_eq!(s[0], ("gemm", 2, 5.0));
        assert_eq!(s[1], ("trsm", 1, 1.0));
    }
}
