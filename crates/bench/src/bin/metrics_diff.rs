//! Compare two `--metrics` JSON exports kernel by kernel.
//!
//! Every metrics producer in the workspace — the shared-memory executor,
//! the distributed event simulator (`exageostat scale --metrics`), and the
//! prediction server (`loadgen --metrics`) — writes the same schema, so
//! any pair of runs can be diffed: before/after a code change, measured vs
//! simulated, FP64 vs mixed precision.
//!
//! ```text
//! cargo run -p xgs-bench --release --bin metrics_diff -- base.json new.json
//! ```
//!
//! For each kernel kind: task count, total seconds and mean seconds in
//! both runs, plus the relative change of the total. Kernels present in
//! only one file show `-` on the missing side. Exit code 2 on unreadable
//! or unparsable input.
//!
//! `--assert-counts potrf,trsm,...` additionally *checks* that the two
//! runs agree on the per-kernel task counts for the listed kinds (a kind
//! missing on one side counts as 0). This is how CI proves that a real
//! sharded factorization executed exactly the task census the distributed
//! event simulator projected. Exit code 1 on any mismatch.
//!
//! `--assert-wire-equal tile,task,...` does the same for the bytes-on-wire
//! census: the listed frame kinds must agree in both frame count and total
//! bytes. A sharded run held to a `scale --metrics` projection this way
//! proves the coordinator measured exactly the closed-form TILE bytes the
//! simulator predicted. `--assert-wire-below <kind>` checks the candidate
//! moved strictly fewer bytes of that kind than the baseline (the
//! mixed-precision wire must beat dense f64, not just match it).
//!
//! `--expect-count kind=N` and `--expect-min kind=N` assert on the
//! *candidate alone*: its count for `kind` must equal (resp. reach) `N`,
//! with a missing kind counting as 0. This is how the CI chaos smoke
//! holds a fault-injected run to its recovery contract — exactly one
//! `worker_death`, at least one `panel_replay` — without needing a
//! baseline that also lost a worker. Exit code 1 on any miss.
//!
//! `--assert-checksum-equal` compares the `loadgen.checksum` field of two
//! **loadgen** report files (the order-independent FNV fold over every
//! response payload). Two replays of the same seeded stream must agree —
//! this is how CI proves the threaded and reactor frontends return
//! bitwise-identical predictions. Exit code 1 when the checksums differ
//! or either file lacks one.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use xgs_runtime::MetricsReport;

fn load(path: &str) -> Result<MetricsReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    MetricsReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn mean(total: f64, count: u64) -> f64 {
    if count > 0 {
        total / count as f64
    } else {
        0.0
    }
}

fn rel_change(base: f64, new: f64) -> String {
    if base > 0.0 {
        format!("{:+.1}%", 100.0 * (new - base) / base)
    } else if new > 0.0 {
        "new".to_string()
    } else {
        "-".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Explicit scan: `--assert-counts` consumes the next token, so a flag
    // value never masquerades as an input path.
    let mut paths: Vec<&String> = Vec::new();
    let mut assert_counts: Vec<String> = Vec::new();
    let mut assert_wire_equal: Vec<String> = Vec::new();
    let mut assert_wire_below: Vec<String> = Vec::new();
    let mut assert_checksum_equal = false;
    // (kind, n, exact): candidate-only count assertions.
    let mut expect: Vec<(String, u64, bool)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--assert-checksum-equal" => {
                assert_checksum_equal = true;
                i += 1;
            }
            "--assert-counts" => {
                let Some(list) = args.get(i + 1) else {
                    eprintln!("metrics_diff: --assert-counts needs a kind list (e.g. potrf,gemm)");
                    return ExitCode::from(2);
                };
                assert_counts.extend(list.split(',').map(|s| s.trim().to_string()));
                i += 2;
            }
            "--assert-wire-equal" => {
                let Some(list) = args.get(i + 1) else {
                    eprintln!(
                        "metrics_diff: --assert-wire-equal needs a frame kind list (e.g. tile,task)"
                    );
                    return ExitCode::from(2);
                };
                assert_wire_equal.extend(list.split(',').map(|s| s.trim().to_string()));
                i += 2;
            }
            "--assert-wire-below" => {
                let Some(list) = args.get(i + 1) else {
                    eprintln!("metrics_diff: --assert-wire-below needs a frame kind (e.g. tile)");
                    return ExitCode::from(2);
                };
                assert_wire_below.extend(list.split(',').map(|s| s.trim().to_string()));
                i += 2;
            }
            flag @ ("--expect-count" | "--expect-min") => {
                let exact = flag == "--expect-count";
                let parsed = args.get(i + 1).and_then(|spec| {
                    let (kind, n) = spec.split_once('=')?;
                    Some((kind.trim().to_string(), n.trim().parse::<u64>().ok()?))
                });
                let Some((kind, n)) = parsed else {
                    eprintln!("metrics_diff: {flag} needs kind=N (e.g. worker_death=1)");
                    return ExitCode::from(2);
                };
                expect.push((kind, n, exact));
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("metrics_diff: unknown flag '{flag}'");
                return ExitCode::from(2);
            }
            _ => {
                paths.push(&args[i]);
                i += 1;
            }
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: metrics_diff [--assert-counts k1,k2,..] [--assert-wire-equal k1,k2,..] \
             [--assert-wire-below k1,..] [--expect-count kind=N] [--expect-min kind=N] \
             [--assert-checksum-equal] <baseline.json> <candidate.json>"
        );
        return ExitCode::from(2);
    }
    let (base, cand) = match (load(paths[0]), load(paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for r in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("metrics_diff: {r}");
            }
            return ExitCode::from(2);
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "wall      {:>12.6}s -> {:>12.6}s  ({})",
        base.wall_seconds,
        cand.wall_seconds,
        rel_change(base.wall_seconds, cand.wall_seconds)
    );
    let _ = writeln!(
        out,
        "tasks     {:>12} -> {:>12}  workers {} -> {}",
        base.tasks, cand.tasks, base.workers, cand.workers
    );

    // Union of kernel kinds, baseline order first, then candidate-only.
    let mut kinds: Vec<&str> = base.kernels.iter().map(|k| k.kind).collect();
    for k in &cand.kernels {
        if !kinds.contains(&k.kind) {
            kinds.push(k.kind);
        }
    }
    let _ = writeln!(
        out,
        "{:>12} | {:>10} {:>10} | {:>12} {:>12} | {:>12} {:>12} | {:>8}",
        "kernel",
        "count A",
        "count B",
        "total A (s)",
        "total B (s)",
        "mean A (s)",
        "mean B (s)",
        "d total"
    );
    for kind in kinds {
        let a = base.kernels.iter().find(|k| k.kind == kind);
        let b = cand.kernels.iter().find(|k| k.kind == kind);
        let fmt_count = |k: Option<&xgs_runtime::KernelStats>| match k {
            Some(k) => format!("{}", k.count),
            None => "-".to_string(),
        };
        let fmt_total = |k: Option<&xgs_runtime::KernelStats>| match k {
            Some(k) => format!("{:.6}", k.total_seconds),
            None => "-".to_string(),
        };
        let fmt_mean = |k: Option<&xgs_runtime::KernelStats>| match k {
            Some(k) => format!("{:.3e}", mean(k.total_seconds, k.count)),
            None => "-".to_string(),
        };
        let delta = rel_change(
            a.map_or(0.0, |k| k.total_seconds),
            b.map_or(0.0, |k| k.total_seconds),
        );
        let _ = writeln!(
            out,
            "{:>12} | {:>10} {:>10} | {:>12} {:>12} | {:>12} {:>12} | {:>8}",
            kind,
            fmt_count(a),
            fmt_count(b),
            fmt_total(a),
            fmt_total(b),
            fmt_mean(a),
            fmt_mean(b),
            delta
        );
    }

    // Bytes-on-wire census, when either run carries one.
    if !base.wire.is_empty() || !cand.wire.is_empty() {
        let mut frame_kinds: Vec<&str> = base.wire.iter().map(|w| w.kind).collect();
        for w in &cand.wire {
            if !frame_kinds.contains(&w.kind) {
                frame_kinds.push(w.kind);
            }
        }
        let _ = writeln!(
            out,
            "{:>12} | {:>10} {:>10} | {:>14} {:>14} | {:>8}",
            "wire", "frames A", "frames B", "bytes A", "bytes B", "d bytes"
        );
        for kind in frame_kinds {
            let a = base.wire.iter().find(|w| w.kind == kind);
            let b = cand.wire.iter().find(|w| w.kind == kind);
            let fmt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{:>12} | {:>10} {:>10} | {:>14} {:>14} | {:>8}",
                kind,
                fmt(a.map(|w| w.frames)),
                fmt(b.map(|w| w.frames)),
                fmt(a.map(|w| w.bytes)),
                fmt(b.map(|w| w.bytes)),
                rel_change(
                    a.map_or(0.0, |w| w.bytes as f64),
                    b.map_or(0.0, |w| w.bytes as f64)
                )
            );
        }
    }

    if let (Some(va), Some(vb)) = (&base.validation, &cand.validation) {
        let _ = writeln!(
            out,
            "validation  edges {} -> {}",
            va.edges_checked, vb.edges_checked
        );
    }
    // Best-effort write: a reader that hangs up early (| head) is fine.
    let _ = std::io::stdout().write_all(out.as_bytes());

    let mut mismatches = 0u32;
    for kind in &assert_counts {
        let count = |r: &MetricsReport| {
            r.kernels
                .iter()
                .find(|k| k.kind == kind.as_str())
                .map_or(0, |k| k.count)
        };
        let (a, b) = (count(&base), count(&cand));
        if a != b {
            eprintln!("metrics_diff: {kind} count mismatch: {a} (baseline) != {b} (candidate)");
            mismatches += 1;
        }
    }
    let wire = |r: &MetricsReport, kind: &str| {
        r.wire
            .iter()
            .find(|w| w.kind == kind)
            .map_or((0, 0), |w| (w.frames, w.bytes))
    };
    for kind in &assert_wire_equal {
        let (af, ab) = wire(&base, kind);
        let (bf, bb) = wire(&cand, kind);
        if (af, ab) != (bf, bb) {
            eprintln!(
                "metrics_diff: {kind} wire mismatch: {af} frames / {ab} bytes (baseline) != \
                 {bf} frames / {bb} bytes (candidate)"
            );
            mismatches += 1;
        }
    }
    for (kind, n, exact) in &expect {
        let got = cand
            .kernels
            .iter()
            .find(|k| k.kind == kind.as_str())
            .map_or(0, |k| k.count);
        let ok = if *exact { got == *n } else { got >= *n };
        if !ok {
            let rel = if *exact { "==" } else { ">=" };
            eprintln!("metrics_diff: candidate {kind} count {got}, expected {rel} {n}");
            mismatches += 1;
        }
    }
    for kind in &assert_wire_below {
        let (_, ab) = wire(&base, kind);
        let (_, bb) = wire(&cand, kind);
        if bb >= ab {
            eprintln!(
                "metrics_diff: {kind} wire bytes not reduced: {bb} (candidate) >= {ab} (baseline)"
            );
            mismatches += 1;
        }
    }
    if assert_checksum_equal {
        // Loadgen reports, not MetricsReports: read the raw documents and
        // pull `loadgen.checksum` from each.
        let checksum = |path: &str| -> Option<String> {
            let text = std::fs::read_to_string(path).ok()?;
            xgs_runtime::parse_json(&text)
                .ok()?
                .get("loadgen")?
                .get("checksum")?
                .as_str()
                .map(str::to_string)
        };
        match (checksum(paths[0]), checksum(paths[1])) {
            (Some(a), Some(b)) if a == b => {
                println!("checksum   {a} == {b}");
            }
            (Some(a), Some(b)) => {
                eprintln!("metrics_diff: response checksum mismatch: {a} != {b}");
                mismatches += 1;
            }
            (a, b) => {
                for (path, side) in [(paths[0], a), (paths[1], b)] {
                    if side.is_none() {
                        eprintln!("metrics_diff: {path}: no loadgen.checksum field");
                    }
                }
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
