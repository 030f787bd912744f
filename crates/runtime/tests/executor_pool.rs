//! The executor on the rayon pool: tests that count worker loops or time
//! parallelism run on a private pool of the size they assert, so tests
//! sharing the global pool cannot starve them, and a panicking task must
//! not hang the executor.

use std::sync::mpsc;
use std::time::Duration;
use xgs_runtime::{execute, execute_opts, Access, DataId, ExecOptions, TaskGraph};

/// Run `f` on a private pool of `threads`.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("private pool")
        .install(f)
}

#[test]
fn trace_covers_all_tasks() {
    let mut g = TaskGraph::new();
    for i in 0..50 {
        g.insert("t", vec![Access::write(DataId(i))], 0, 0.0, || {
            std::hint::black_box(0u64);
        });
    }
    let r = on_pool(3, || execute(g, 3, true));
    assert_eq!(r.trace.len(), 50);
    assert!(r.trace.iter().all(|e| e.end >= e.start));
    assert!(r.efficiency() <= 1.0 + 1e-9);
    assert!(r.imbalance() >= 1.0 - 1e-9);
}

#[test]
fn wide_fan_uses_multiple_workers() {
    // 64 independent 2ms sleeps on 8 workers: multiple workers must
    // participate and the wall time must beat the 128ms serial time
    // with margin. (Sleeps overlap even on one CPU; the generous bound
    // keeps the test stable when the host is otherwise loaded.)
    let mut g = TaskGraph::new();
    for i in 0..64 {
        g.insert("sleep", vec![Access::write(DataId(i))], 0, 0.0, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
    }
    let r = on_pool(8, || execute(g, 8, true));
    let distinct: std::collections::HashSet<usize> = r.trace.iter().map(|e| e.worker).collect();
    assert!(
        distinct.len() >= 2,
        "only {} worker(s) ran tasks",
        distinct.len()
    );
    assert!(
        r.wall_seconds < 0.100,
        "no parallelism observed: {}s for 128ms of serial sleeps",
        r.wall_seconds
    );
}

#[test]
fn metrics_cover_kernels_workers_and_queue() {
    let mut g = TaskGraph::new();
    let d = DataId(0);
    for i in 0..40u64 {
        let kind = if i % 2 == 0 { "even" } else { "odd" };
        g.insert(
            kind,
            vec![Access::write(DataId(i % 5)), Access::read(d)],
            0,
            0.0,
            || {
                std::hint::black_box((0..500u64).sum::<u64>());
            },
        );
    }
    let r = on_pool(3, || {
        execute_opts(
            g,
            3,
            ExecOptions {
                validate: true,
                ..ExecOptions::default()
            },
        )
    });
    let m = r.metrics.expect("metrics are always collected");
    assert_eq!(m.tasks, 40);
    assert_eq!(m.workers, 3);
    assert_eq!(m.worker_stats.len(), 3);
    assert_eq!(m.kernels.iter().map(|k| k.count).sum::<u64>(), 40);
    let kinds: Vec<&str> = m.kernels.iter().map(|k| k.kind).collect();
    assert!(kinds.contains(&"even") && kinds.contains(&"odd"));
    assert_eq!(m.worker_stats.iter().map(|w| w.tasks).sum::<u64>(), 40);
    assert!(m.queue_depth.samples > 0);
    let v = m.validation.expect("validator requested");
    assert!(v.edges_checked > 0, "shared read datum must create edges");
    // The JSON export round-trips the structure without NaNs.
    let json = m.to_json();
    assert!(json.contains("\"tasks\":40"));
    assert!(!json.contains("NaN"));
}

#[test]
fn panicking_task_stops_every_loop_and_rethrows_its_payload() {
    let (tx, rx) = mpsc::channel();
    // The executor runs on a watched thread: a hang shows up as a missed
    // deadline instead of a stuck test binary.
    let watched = std::thread::spawn(move || {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("private pool");
        let outcome = pool.install(|| {
            // The dependent can never become ready, so the second loop
            // parks on the ready queue until the abort wakes it.
            let mut g = TaskGraph::new();
            g.insert("boom", vec![Access::write(DataId(0))], 0, 0.0, || {
                panic!("task exploded")
            });
            g.insert("after", vec![Access::read(DataId(0))], 0, 0.0, || {});
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(g, 2, false)))
        });
        let payload = match outcome {
            Ok(_) => "no panic".to_string(),
            Err(p) => p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_else(|| "<non-str payload>".to_string()),
        };
        // The same pool runs the next graph to completion.
        let mut g = TaskGraph::new();
        for i in 0..20 {
            g.insert("ok", vec![Access::write(DataId(i % 3))], 0, 0.0, || {});
        }
        let next = pool.install(|| execute(g, 2, false)).tasks;
        let _ = tx.send((payload, next));
    });
    let (payload, next) = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("executor hung after a task panicked");
    watched.join().expect("watched thread finished");
    assert_eq!(payload, "task exploded");
    assert_eq!(next, 20);
}
