//! Multi-process sharded tile Cholesky over a 2D block-cyclic distribution.
//!
//! This is the distributed-memory execution the paper runs through PaRSEC,
//! scaled down to one machine: a **coordinator** (the process holding the
//! [`TiledFactor`]) partitions the tile grid over `p x q` worker processes
//! with [`block_cyclic_owner`] — the same owner function the
//! discrete-event simulator uses — and drives the right-looking Cholesky
//! DAG. Workers execute the POTRF/TRSM/SYRK/GEMM tasks they own; tiles
//! cross ownership boundaries as length-prefixed binary frames over
//! loopback TCP ([`xgs_runtime::shard`]), bitwise
//! ([`xgs_tile::wire`]).
//!
//! Topology is hub-and-spoke: workers connect only to the coordinator,
//! which relays tiles between owners. Commands to one worker form a FIFO
//! stream, and the coordinator only sends a task after (a) every operand
//! the worker does not own has been forwarded earlier on the same stream,
//! and (b) the DONE of every cross-worker predecessor has been processed.
//! Together with per-tile write-ownership (every writer of a stored tile
//! is owned by that tile's owner) this makes the coordinator's
//! DONE-processing order a linearization of the DAG — which is exactly
//! what we hand to the same hazard-edge validator that checks the
//! shared-memory executor.
//!
//! Per-tile kernel invocation order is identical to
//! [`TiledFactor::factorize_seq`], so the sharded factor is **bitwise**
//! equal to the single-process one (asserted by `tests/shard_equivalence`).
//!
//! Frame kinds (payloads little-endian, see the match arms for layouts):
//!
//! | kind | dir | payload |
//! |------|-----|---------|
//! | `HELLO`     | c→w | `version, worker_id, p, q, nt, nb, n` |
//! | `TILE`      | both | `i, j, tile bytes` ([`xgs_tile::wire`]) |
//! | `TASK`      | c→w | `kind, task_id, k, i, j, tol, publish` |
//! | `DONE`      | w→c | `task_id, kind, ok, pivot, elapsed` |
//! | 5, 6        | —   | retired (`SHUTDOWN`/`BYE` of protocol 2); never reused |
//! | `JOIN`      | w→c | `version, cores, precision_mask` |
//! | `HEARTBEAT` | c→w `nonce`, w→c `nonce, tasks_executed` |
//! | `ASSIGN`    | c→w | `version, member_id, role` |
//!
//! `JOIN`/`ASSIGN` form the registration handshake a worker performs once
//! per connection, before any `HELLO` ([`admit_worker`]); `HEARTBEAT` is
//! the liveness probe and the end-of-run census carrier. Connections stay
//! warm between factorizations: a worker resets its state on each `HELLO`
//! and exits only when the coordinator closes the socket.
//! Variable-length payload decoding is forward-compatible: a decoder
//! accepts any payload at least as long as the fields it knows and
//! ignores trailing bytes, so the protocol can grow fields; the leading
//! version byte on `HELLO`/`JOIN`/`ASSIGN` is what rejects genuinely
//! incompatible peers with a clear error.
//!
//! Elasticity: [`TiledFactor::factorize_elastic`] accepts a
//! [`ReplacementSource`]. When a worker dies mid-run the coordinator does
//! not fail the factorization — it takes a replacement connection,
//! rebuilds the lost shard's state by replaying that worker's logged
//! frame prefix (seeding finally-published tiles from the coordinator's
//! published-tile map instead of re-running their producers), and
//! re-dispatches only the tasks whose written tiles were not yet final.
//! Every recovery plan is validated by `xgs-analysis` (`check_shard_plan`
//! on the base plan plus `check_recovery_plan` on the replay) before any
//! frame is sent. Workers are deterministic functions of their FIFO input
//! stream, so the recovered factor stays bitwise-equal to sequential.

use crate::dag::{lr_precision, TileMetaSource};
use crate::factor::{FactorError, TiledFactor};
use crate::kernels::{gemm_update, potrf_diag, syrk_diag, trsm_panel};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xgs_kernels::Precision;
use xgs_runtime::shard::{
    read_frame, write_frame, FrameError, WireReader, WireWriter, FRAME_HEADER_BYTES,
};
use xgs_runtime::{
    block_cyclic_owner, check_schedule, conversion_counts, count_conversion,
    crosscheck_static_edges, precheck_env_default, task_census, Access, DataId, KernelStats,
    MetricsReport, TaskOrder, WireStats, WorkerStats,
};
use xgs_tile::wire::{
    decode_tile, dense_payload_len, encode_tile, encoded_len, low_rank_payload_len, wire_elements,
};
use xgs_tile::{Tile, TileLayout};

/// Frame kinds of the coordinator/worker protocol.
pub const K_HELLO: u8 = 1;
pub const K_TILE: u8 = 2;
pub const K_TASK: u8 = 3;
pub const K_DONE: u8 = 4;
// Kinds 5 and 6 were the one-shot SHUTDOWN/BYE drain of protocol 2. They
// are retired, never to be reused: a worker answers them with the
// "unexpected frame kind" error like any other unknown kind.
pub const K_JOIN: u8 = 7;
pub const K_HEARTBEAT: u8 = 8;
pub const K_ASSIGN: u8 = 9;

/// Version byte leading `HELLO`, `JOIN` and `ASSIGN` payloads. Bumped
/// whenever a frame layout changes incompatibly; both sides reject a
/// mismatched peer with a protocol error naming the two versions instead
/// of mis-decoding a garbled frame.
pub const PROTO_VERSION: u8 = 3;

const KIND_POTRF: u8 = 0;
const KIND_TRSM: u8 = 1;
const KIND_SYRK: u8 = 2;
const KIND_GEMM: u8 = 3;

/// Bytes a TILE frame carries before the `xgs_tile::wire` body: the two
/// `u32` tile coordinates.
pub const TILE_COORD_BYTES: usize = 8;

/// Fixed payload sizes of the non-TILE frames, byte-for-byte the layouts
/// in the module table above. Decoders accept payloads *at least* this
/// long (trailing bytes are future fields, ignored); planned and
/// projected byte censuses use these so they speak the same units as the
/// measured one.
const HELLO_PAYLOAD_BYTES: usize = 29;
const TASK_PAYLOAD_BYTES: usize = 30;
const DONE_PAYLOAD_BYTES: usize = 26;
const JOIN_PAYLOAD_BYTES: usize = 6;
const ASSIGN_PAYLOAD_BYTES: usize = 6;
const HEARTBEAT_PING_BYTES: usize = 8;
const HEARTBEAT_ECHO_BYTES: usize = 16;

/// Metrics keys of the frame kinds, indexed `K_* - 1`. The retired kinds
/// keep their names so the slots stay aligned.
const FRAME_KIND_NAMES: [&str; 9] = [
    "hello",
    "tile",
    "task",
    "done",
    "shutdown",
    "bye",
    "join",
    "heartbeat",
    "assign",
];

/// Per-frame-kind `{frames, bytes}` tally. Bytes count whole frames —
/// header plus payload — in both directions, as seen from the coordinator.
#[derive(Clone, Copy, Default)]
struct WireCensus {
    counts: [(u64, u64); 9],
}

impl WireCensus {
    fn record(&mut self, kind: u8, payload_len: usize) {
        self.record_many(kind, 1, payload_len);
    }

    fn record_many(&mut self, kind: u8, frames: u64, payload_len: usize) {
        debug_assert!((K_HELLO..=K_ASSIGN).contains(&kind));
        let c = &mut self.counts[(kind - 1) as usize];
        c.0 += frames;
        c.1 += frames * (FRAME_HEADER_BYTES + payload_len) as u64;
    }

    fn merge(&mut self, other: &WireCensus) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    fn to_stats(self) -> Vec<WireStats> {
        let mut out = Vec::new();
        for (idx, &(frames, bytes)) in self.counts.iter().enumerate() {
            if frames > 0 {
                out.push(WireStats {
                    kind: FRAME_KIND_NAMES[idx],
                    frames,
                    bytes,
                });
            }
        }
        out
    }
}

/// Wire bytes of the TILE frame that ships tile `(i, j)` in the format
/// `meta` declares for it: frame header, coordinates, then the
/// [`xgs_tile::wire`] body at the tile's storage precision (low-rank
/// tiles ship `U`/`V` at the TLR compute precision, rank capped at the
/// tile's short dimension). Exact for static formats; for TLR tiles it is
/// the pre-factorization estimate, since ranks drift as the trailing
/// update recompresses.
pub fn tile_wire_frame_bytes(
    meta: &dyn TileMetaSource,
    rows: usize,
    cols: usize,
    i: usize,
    j: usize,
) -> u64 {
    let body = if meta.is_dense(i, j) {
        dense_payload_len(rows, cols, meta.precision(i, j))
    } else {
        let rank = meta.rank(i, j).min(rows.min(cols));
        low_rank_payload_len(rows, cols, rank, lr_precision(meta.precision(i, j)))
    };
    (FRAME_HEADER_BYTES + TILE_COORD_BYTES + body) as u64
}

/// Tally the element-format conversions one wire crossing performs:
/// encoding demotes the f64-emulated buffer to the tile's storage width,
/// decoding promotes it back. Both directions are exact (tile values are
/// pre-rounded through their format), but they are real conversions and
/// the runtime's global counters are the ledger the paper's
/// "convert on the fly" accounting reads. Counters are per-process: a
/// coordinator's report covers its own encodes/decodes, not a remote
/// worker's.
fn count_wire_conversion(tile: &Tile, encode: bool) {
    let elems = wire_elements(tile) as u64;
    if encode {
        count_conversion(Precision::F64, tile.precision, elems);
    } else {
        count_conversion(tile.precision, Precision::F64, elems);
    }
}

/// Failure of a sharded factorization.
#[derive(Debug)]
pub enum ShardError {
    /// Numerical failure, identical semantics to the in-process engines.
    Factor(FactorError),
    /// A worker process died or its connection broke mid-run.
    WorkerLost { worker: usize, detail: String },
    /// The run exceeded [`ShardOptions::deadline`].
    Timeout { phase: &'static str },
    /// The peer violated the protocol (bad frame, missing operand, wrong
    /// task census ...).
    Protocol(String),
    /// Worker processes could not be spawned or connected.
    Spawn(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Factor(e) => write!(f, "{e}"),
            ShardError::WorkerLost { worker, detail } => {
                write!(f, "shard worker {worker} lost: {detail}")
            }
            ShardError::Timeout { phase } => write!(f, "sharded run timed out during {phase}"),
            ShardError::Protocol(what) => write!(f, "shard protocol violation: {what}"),
            ShardError::Spawn(what) => write!(f, "failed to launch shard workers: {what}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<FactorError> for ShardError {
    fn from(e: FactorError) -> ShardError {
        ShardError::Factor(e)
    }
}

/// How a sharded factorization is driven.
#[derive(Clone, Copy, Debug)]
pub struct ShardOptions {
    /// Process grid: `grid_p * grid_q` must equal the worker count.
    pub grid_p: usize,
    pub grid_q: usize,
    /// Wall-clock budget for the whole factorization, including the
    /// end-of-run `HEARTBEAT` census. On expiry the coordinator aborts with
    /// [`ShardError::Timeout`] rather than hanging on a wedged worker.
    pub deadline: Duration,
    /// Run the completion order through the hazard-edge validator
    /// (default: on in debug builds, like the shared-memory executor).
    pub validate: bool,
    /// Statically check the sharded plan before any frame is sent: the
    /// `xgs-analysis` checker replays the coordinator's exact emission
    /// order over the block-cyclic owner map and proves every remote
    /// operand has a matching TILE transfer, nothing is sent to its own
    /// shard, no tile is used stale, and the per-kernel census matches the
    /// closed form; the static hazard-edge derivation is also
    /// cross-checked against the validator's. Default: on in debug
    /// builds, opt-in in release via `XGS_PRECHECK=1` (see
    /// [`xgs_runtime::precheck_env_default`]).
    pub precheck: bool,
}

impl ShardOptions {
    /// Near-square grid for `workers` processes, generous deadline.
    pub fn for_workers(workers: usize) -> ShardOptions {
        let (grid_p, grid_q) = grid_shape(workers);
        ShardOptions {
            grid_p,
            grid_q,
            deadline: Duration::from_secs(120),
            validate: cfg!(debug_assertions),
            precheck: precheck_env_default(),
        }
    }
}

/// Largest near-square factorization of `workers`: the same `p <= sqrt(w)`
/// rule as `xgs-perfmodel`'s `process_grid`, so a sharded run and a
/// `scale --nodes` projection of the same worker count land on the same
/// `p x q` grid (that equality is what lets `metrics_diff` compare their
/// per-worker task counts).
pub fn grid_shape(workers: usize) -> (usize, usize) {
    let w = workers.max(1);
    let mut p = (w as f64).sqrt() as usize;
    while p > 1 && !w.is_multiple_of(p) {
        p -= 1;
    }
    let p = p.max(1);
    (p, w / p)
}

/// What one sharded factorization observed.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Same schema as the in-process executor's metrics: per-kernel stats
    /// from worker-reported task timings, per-worker busy/task counters.
    pub metrics: MetricsReport,
    /// Tasks each worker reported executing in its end-of-run `HEARTBEAT`
    /// echo; verified against the block-cyclic census of the DAG.
    pub worker_tasks: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

fn proto_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// The wire task kinds, decoded once so every later dispatch is an
/// exhaustive enum match (the `frame-kind-exhaustive` lint rule).
#[derive(Clone, Copy)]
enum WireTask {
    Potrf,
    Trsm,
    Syrk,
    Gemm,
}

impl WireTask {
    fn from_wire(kind: u8) -> Option<WireTask> {
        match kind {
            KIND_POTRF => Some(WireTask::Potrf),
            KIND_TRSM => Some(WireTask::Trsm),
            KIND_SYRK => Some(WireTask::Syrk),
            KIND_GEMM => Some(WireTask::Gemm),
            _unknown => None,
        }
    }
}

/// How a chaos-injected worker dies (fault-matrix tests and the CI chaos
/// smoke). The spec targets one fleet member by its `ASSIGN`ed id, so a
/// whole fleet can inherit the same environment variable and still lose
/// exactly one deterministic worker — respawned replacements get fresh
/// member ids and never re-trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Fleet member id (`ASSIGN` payload) the spec targets.
    pub member: u32,
    /// When to die.
    pub trigger: ChaosTrigger,
    /// Die by `SIGKILL` (out-of-process workers) or by silently dropping
    /// the connection (in-process worker threads, which must not take the
    /// test process down with them).
    pub disconnect: bool,
}

/// When a [`ChaosSpec`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosTrigger {
    /// On receipt of the `n`-th `TASK` frame (0-based), before executing
    /// it: `TaskStart(0)` dies while the coordinator is still seeding its
    /// first panel, a mid-range value dies mid-panel.
    TaskStart(u64),
    /// On the first `HEARTBEAT` (the end-of-run census ping): every task
    /// is done, the coordinator is gathering — the departed-worker path,
    /// no replay needed.
    Drain,
}

impl ChaosSpec {
    /// Parse the `XGS_CHAOS_ABORT` format: `member=M,tasks=N` (die on
    /// receipt of the N-th TASK) or `member=M,on=drain`.
    pub fn parse(spec: &str) -> Option<ChaosSpec> {
        let mut member = None;
        let mut trigger = None;
        for part in spec.split(',') {
            let (key, val) = part.trim().split_once('=')?;
            match (key.trim(), val.trim()) {
                ("member", v) => member = v.parse::<u32>().ok(),
                ("tasks", v) => trigger = Some(ChaosTrigger::TaskStart(v.parse().ok()?)),
                ("on", "drain") => trigger = Some(ChaosTrigger::Drain),
                _other => return None,
            }
        }
        Some(ChaosSpec {
            member: member?,
            trigger: trigger?,
            disconnect: false,
        })
    }

    fn fire(&self) -> ChaosDeath {
        if self.disconnect {
            return ChaosDeath::Disconnect;
        }
        // A real SIGKILL — the abrupt death the fault matrix specifies —
        // delivered by the only route std offers; abort() is the fallback
        // and is just as unannounced at the protocol level.
        let pid = std::process::id().to_string();
        let _ = Command::new("kill").args(["-KILL", &pid]).status();
        std::process::abort();
    }
}

/// What [`ChaosSpec::fire`] resolved to (only `Disconnect` ever returns).
enum ChaosDeath {
    Disconnect,
}

/// Knobs of [`worker_loop_with`]; [`Default`] is what `worker --connect`
/// uses unless flags override it.
#[derive(Clone, Copy, Debug)]
pub struct WorkerOptions {
    /// How long to wait for the supervisor's `ASSIGN` after sending
    /// `JOIN`. A coordinator that never acknowledges must not wedge the
    /// worker forever on a fresh socket: expiry is an error the CLI turns
    /// into a nonzero exit with a diagnostic.
    pub handshake_timeout: Duration,
    /// Per-frame stall budget of the main loop. Warm fleets heartbeat
    /// idle members well inside this, so expiry means the supervisor is
    /// gone or wedged. `None` blocks forever (in-process test workers).
    pub idle_timeout: Option<Duration>,
    /// Fault injection, `None` in production.
    pub chaos: Option<ChaosSpec>,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            handshake_timeout: Duration::from_secs(30),
            idle_timeout: Some(Duration::from_secs(300)),
            chaos: None,
        }
    }
}

/// Serve one coordinator connection: register (`JOIN` → `ASSIGN`), then
/// receive owned tiles, execute assigned tasks, publish written tiles when
/// asked, echo `HEARTBEAT` probes with the executed-task count, and exit
/// when the coordinator closes the connection. Returns the number of
/// tasks executed since the last `HELLO`.
///
/// The worker is deliberately dumb: it has no view of the DAG and trusts
/// the coordinator's stream order for operand availability — which the
/// coordinator guarantees by forwarding operands before dependent tasks on
/// the same FIFO stream.
pub fn worker_loop_with(mut stream: TcpStream, opts: WorkerOptions) -> io::Result<u64> {
    let _ = stream.set_nodelay(true);

    // Registration: advertise capabilities, wait (bounded) for the grid
    // assignment. A supervisor that never answers is an error, not a hang.
    let mut w = WireWriter::new();
    w.put_u8(PROTO_VERSION);
    w.put_u32(xgs_runtime::logical_cores() as u32);
    // Precision mask: bit 0 = f64, bit 1 = f32, bit 2 = f16. Every build
    // of this binary supports all three emulated widths.
    w.put_u8(0b111);
    write_frame(&mut stream, K_JOIN, &w.buf)?;
    let member_id = match read_frame(&mut stream, Some(opts.handshake_timeout), None) {
        Ok((K_ASSIGN, payload)) => {
            if payload.len() < ASSIGN_PAYLOAD_BYTES {
                return Err(proto_err("short ASSIGN frame"));
            }
            let mut r = WireReader::new(&payload);
            let version = r.get_u8().map_err(|e| proto_err(&e.to_string()))?;
            if version != PROTO_VERSION {
                return Err(proto_err(&format!(
                    "supervisor speaks protocol version {version}, this worker requires \
                     {PROTO_VERSION}; upgrade the older binary"
                )));
            }
            let member = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
            let _role = r.get_u8().map_err(|e| proto_err(&e.to_string()))?;
            member
        }
        Ok((other, _)) => {
            return Err(proto_err(&format!(
                "expected ASSIGN to acknowledge JOIN, got frame kind {other}"
            )))
        }
        Err(FrameError::Stalled) => {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "no JOIN acknowledgement within {:?}; supervisor unreachable or wedged",
                    opts.handshake_timeout
                ),
            ))
        }
        Err(e) => return Err(io::Error::other(e.to_string())),
    };
    let chaos = opts.chaos.filter(|c| c.member == member_id);

    let mut store: HashMap<(u32, u32), Tile> = HashMap::new();
    let mut nb: usize = 0;
    let mut executed: u64 = 0;
    // Lifetime task counter: chaos triggers count across `HELLO` resets so
    // a spec fires at most once per process even in multi-run fleets.
    let mut lifetime_executed: u64 = 0;
    loop {
        let (kind, payload) = match read_frame(&mut stream, opts.idle_timeout, None) {
            Ok(f) => f,
            // Coordinator vanished: exit quietly, nothing to clean up.
            Err(FrameError::Closed) => return Ok(executed),
            Err(FrameError::Stalled) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "no frame within {:?}; supervisor heartbeats have stopped",
                        opts.idle_timeout.unwrap_or_default()
                    ),
                ))
            }
            Err(e) => return Err(io::Error::other(e.to_string())),
        };
        let mut r = WireReader::new(&payload);
        match kind {
            K_HELLO => {
                if payload.len() < HELLO_PAYLOAD_BYTES {
                    return Err(proto_err("short HELLO frame"));
                }
                let version = r.get_u8().map_err(|e| proto_err(&e.to_string()))?;
                if version != PROTO_VERSION {
                    return Err(proto_err(&format!(
                        "coordinator speaks protocol version {version}, this worker requires \
                         {PROTO_VERSION}; upgrade the older binary"
                    )));
                }
                let _worker_id = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                let _p = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                let _q = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                let _nt = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                nb = r.get_u32().map_err(|e| proto_err(&e.to_string()))? as usize;
                let _n = r.get_u64().map_err(|e| proto_err(&e.to_string()))?;
                store.clear();
                executed = 0;
            }
            K_TILE => {
                let i = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                let j = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                let body = payload
                    .get(8..)
                    .ok_or_else(|| proto_err("short TILE frame"))?;
                let tile = decode_tile(body).map_err(|e| proto_err(&e.to_string()))?;
                count_wire_conversion(&tile, false);
                store.insert((i, j), tile);
            }
            K_TASK => {
                if nb == 0 {
                    return Err(proto_err("TASK before HELLO"));
                }
                if let Some(c) = chaos {
                    if c.trigger == ChaosTrigger::TaskStart(lifetime_executed) {
                        match c.fire() {
                            ChaosDeath::Disconnect => return Ok(executed),
                        }
                    }
                }
                let task_kind = r.get_u8().map_err(|e| proto_err(&e.to_string()))?;
                let task_id = r.get_u64().map_err(|e| proto_err(&e.to_string()))?;
                let k = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                let i = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                let j = r.get_u32().map_err(|e| proto_err(&e.to_string()))?;
                let tol = r.get_f64().map_err(|e| proto_err(&e.to_string()))?;
                let publish = r.get_u8().map_err(|e| proto_err(&e.to_string()))? != 0;

                let Some(task) = WireTask::from_wire(task_kind) else {
                    return Err(proto_err("unknown task kind"));
                };
                let written = match task {
                    WireTask::Potrf => (k, k),
                    WireTask::Trsm => (i, k),
                    WireTask::Syrk => (i, i),
                    WireTask::Gemm => (i, j),
                };
                let mut target = store
                    .remove(&written)
                    .ok_or_else(|| proto_err("task targets a tile this worker does not hold"))?;
                let operand = |key: (u32, u32)| {
                    store
                        .get(&key)
                        .ok_or_else(|| proto_err("task operand missing from worker store"))
                };

                let t0 = Instant::now();
                let mut ok = 1u8;
                let mut pivot = 0u64;
                match task {
                    WireTask::Potrf => {
                        if let Err(e) = potrf_diag(&mut target) {
                            ok = 0;
                            pivot = e.pivot as u64;
                        }
                    }
                    WireTask::Trsm => trsm_panel(operand((k, k))?, &mut target),
                    WireTask::Syrk => syrk_diag(operand((i, k))?, &mut target),
                    WireTask::Gemm => {
                        gemm_update(operand((i, k))?, operand((j, k))?, &mut target, tol)
                    }
                }
                let elapsed = t0.elapsed().as_secs_f64();

                if publish && ok != 0 {
                    let mut w = WireWriter::new();
                    w.put_u32(written.0);
                    w.put_u32(written.1);
                    encode_tile(&target, &mut w.buf);
                    count_wire_conversion(&target, true);
                    write_frame(&mut stream, K_TILE, &w.buf)?;
                }
                store.insert(written, target);
                executed += 1;

                let mut w = WireWriter::new();
                w.put_u64(task_id);
                w.put_u8(task_kind);
                w.put_u8(ok);
                w.put_u64(pivot);
                w.put_f64(elapsed);
                write_frame(&mut stream, K_DONE, &w.buf)?;
                lifetime_executed += 1;
            }
            K_HEARTBEAT => {
                if let Some(c) = chaos {
                    if c.trigger == ChaosTrigger::Drain {
                        match c.fire() {
                            ChaosDeath::Disconnect => return Ok(executed),
                        }
                    }
                }
                let nonce = r.get_u64().map_err(|e| proto_err(&e.to_string()))?;
                let mut w = WireWriter::new();
                w.put_u64(nonce);
                w.put_u64(executed);
                write_frame(&mut stream, K_HEARTBEAT, &w.buf)?;
            }
            K_JOIN | K_ASSIGN => {
                return Err(proto_err(
                    "registration frame after the handshake already completed",
                ))
            }
            other => return Err(proto_err(&format!("unexpected frame kind {other}"))),
        }
    }
}

/// What a worker advertised in its `JOIN` frame.
#[derive(Clone, Copy, Debug)]
pub struct JoinInfo {
    pub version: u8,
    /// `xgs_runtime::logical_cores()` on the worker's host.
    pub cores: u32,
    /// Bit 0 = f64, bit 1 = f32, bit 2 = f16.
    pub precisions: u8,
}

/// Supervisor side of the registration handshake: read the worker's
/// `JOIN` (bounded by `deadline`), verify the protocol version, and
/// answer with an `ASSIGN` carrying `member_id` and the standby/active
/// role. The `xgs-fleet` supervisor admits every connection (launched,
/// dialed in, or a mid-run replacement) through here, as do the in-crate
/// tests, so the handshake cannot drift between entry points.
pub fn admit_worker(
    stream: &mut TcpStream,
    member_id: u32,
    standby: bool,
    deadline: Duration,
) -> Result<JoinInfo, ShardError> {
    let info = match read_frame(stream, Some(deadline), None) {
        Ok((K_JOIN, payload)) => {
            if payload.len() < JOIN_PAYLOAD_BYTES {
                return Err(ShardError::Protocol(format!(
                    "JOIN payload of {} bytes, need at least {JOIN_PAYLOAD_BYTES}",
                    payload.len()
                )));
            }
            let mut r = WireReader::new(&payload);
            let parse = |e: FrameError| ShardError::Protocol(e.to_string());
            let info = JoinInfo {
                version: r.get_u8().map_err(parse)?,
                cores: r.get_u32().map_err(parse)?,
                precisions: r.get_u8().map_err(parse)?,
            };
            if info.version != PROTO_VERSION {
                return Err(ShardError::Protocol(format!(
                    "worker speaks protocol version {}, this supervisor requires \
                     {PROTO_VERSION}; upgrade the older worker binary",
                    info.version
                )));
            }
            info
        }
        Ok((other, _)) => {
            return Err(ShardError::Protocol(format!(
                "expected JOIN as a dialing worker's first frame, got kind {other}"
            )))
        }
        Err(FrameError::Stalled) => {
            return Err(ShardError::Spawn(format!(
                "worker sent no JOIN within {deadline:?}"
            )))
        }
        Err(e) => return Err(ShardError::Spawn(format!("JOIN read failed: {e}"))),
    };
    let mut w = WireWriter::new();
    w.put_u8(PROTO_VERSION);
    w.put_u32(member_id);
    w.put_u8(standby as u8);
    write_frame(stream, K_ASSIGN, &w.buf)
        .map_err(|e| ShardError::Spawn(format!("ASSIGN write failed: {e}")))?;
    Ok(info)
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// One task of the canonical right-looking DAG, in insertion order.
struct TaskMeta {
    kind: u8,
    k: u32,
    i: u32,
    j: u32,
    owner: usize,
    tol: f64,
}

enum Event {
    Tile {
        payload: Vec<u8>,
    },
    Done {
        from: usize,
        task_id: u64,
        kind: u8,
        ok: u8,
        pivot: u64,
        elapsed: f64,
    },
    Heartbeat {
        from: usize,
        tasks: u64,
    },
    Lost {
        from: usize,
        detail: String,
    },
}

/// Reader thread: drain one worker's frames into the event channel. Exits
/// on stop or on connection loss (reported as `Lost`).
/// Each thread sends at most one `Lost`, always as its final event — the
/// coordinator relies on that to run at most one recovery per worker
/// incarnation, with every pre-death frame already processed.
fn reader_thread(worker: usize, mut stream: TcpStream, tx: Sender<Event>, stop: Arc<AtomicBool>) {
    loop {
        match read_frame(&mut stream, None, Some(&stop)) {
            Ok((K_TILE, payload)) => {
                if tx.send(Event::Tile { payload }).is_err() {
                    return;
                }
            }
            Ok((K_HEARTBEAT, payload)) => {
                let mut r = WireReader::new(&payload);
                let (_nonce, tasks) = (r.get_u64().unwrap_or(0), r.get_u64().unwrap_or(0));
                if tx
                    .send(Event::Heartbeat {
                        from: worker,
                        tasks,
                    })
                    .is_err()
                {
                    return;
                }
            }
            Ok((K_DONE, payload)) => {
                let mut r = WireReader::new(&payload);
                let parsed = (|| -> Result<Event, FrameError> {
                    Ok(Event::Done {
                        from: worker,
                        task_id: r.get_u64()?,
                        kind: r.get_u8()?,
                        ok: r.get_u8()?,
                        pivot: r.get_u64()?,
                        elapsed: r.get_f64()?,
                    })
                })();
                let ev = parsed.unwrap_or_else(|e| Event::Lost {
                    from: worker,
                    detail: format!("bad DONE frame: {e}"),
                });
                let last = matches!(ev, Event::Lost { .. });
                if tx.send(ev).is_err() || last {
                    return;
                }
            }
            Ok((other, _)) => {
                let _ = tx.send(Event::Lost {
                    from: worker,
                    detail: format!("unexpected frame kind {other} from worker"),
                });
                return;
            }
            Err(FrameError::Stopped) => return,
            Err(e) => {
                let _ = tx.send(Event::Lost {
                    from: worker,
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
}

/// Indices into [`Drive::events`], the fleet lifecycle counters the
/// metrics report carries alongside the kernel stats.
const EV_WORKER_DEATH: usize = 0;
const EV_PANEL_REPLAY: usize = 1;
const EV_STANDBY_PROMOTE: usize = 2;

/// Coordinator bookkeeping while a sharded run is in flight.
struct Drive {
    /// Published tiles, keyed `(i, j)`, still in wire encoding so relaying
    /// to other owners is a plain byte copy (decoded once at gather).
    tiles: HashMap<(u32, u32), Vec<u8>>,
    /// Completion order in DONE-processing sequence (validator input).
    order: Vec<TaskOrder>,
    done: Vec<bool>,
    /// Whether a task has *ever* completed: replayed tasks keep their
    /// original [`TaskOrder`] stamp, because consumers already read the
    /// originally published value — re-stamping would fabricate RAW
    /// violations in the post-run validator.
    completed_once: Vec<bool>,
    done_count: usize,
    seq: u64,
    kernels: [KernelStats; 4],
    /// Fleet lifecycle events, indexed by the `EV_*` constants.
    events: [KernelStats; 3],
    workers: Vec<WorkerStats>,
    /// End-of-run executed-task census, from each worker's `HEARTBEAT`
    /// echo.
    reported: Vec<Option<u64>>,
    /// Workers that died after every task completed: the factor is fully
    /// published, so they are recorded as deaths but not replaced.
    departed: Vec<bool>,
    /// How many worker recoveries ran (0 on the happy path).
    recoveries: u32,
    /// Earliest global pivot failure, if any.
    failed: Option<usize>,
    /// Frames/bytes received from workers (TILE publishes, DONE,
    /// HEARTBEAT echoes).
    census: WireCensus,
}

impl Drive {
    fn handle(
        &mut self,
        ev: Event,
        meta: &[TaskMeta],
        layout: &xgs_tile::TileLayout,
    ) -> Result<(), ShardError> {
        match ev {
            Event::Tile { payload } => {
                self.census.record(K_TILE, payload.len());
                let mut r = WireReader::new(&payload);
                let i = r
                    .get_u32()
                    .map_err(|e| ShardError::Protocol(e.to_string()))?;
                let j = r
                    .get_u32()
                    .map_err(|e| ShardError::Protocol(e.to_string()))?;
                self.tiles.insert((i, j), payload);
                Ok(())
            }
            Event::Done {
                from,
                task_id,
                kind,
                ok,
                pivot,
                elapsed,
            } => {
                self.census.record(K_DONE, DONE_PAYLOAD_BYTES);
                let idx = task_id as usize;
                let m = meta.get(idx).ok_or_else(|| {
                    ShardError::Protocol(format!("unexpected DONE for task {task_id}"))
                })?;
                if m.kind != kind || m.owner != from || self.done[idx] {
                    return Err(ShardError::Protocol(format!(
                        "mismatched or duplicate DONE for task {task_id}"
                    )));
                }
                self.done[idx] = true;
                self.done_count += 1;
                if !self.completed_once[idx] {
                    self.completed_once[idx] = true;
                    self.order[idx] = TaskOrder {
                        start_seq: 2 * self.seq,
                        end_seq: 2 * self.seq + 1,
                    };
                    self.seq += 1;
                }
                self.kernels[kind as usize].record(elapsed);
                self.workers[from].busy_seconds += elapsed;
                self.workers[from].tasks += 1;
                if ok == 0 {
                    let global = layout.tile_range(m.k as usize).start + pivot as usize;
                    self.failed = Some(self.failed.map_or(global, |p| p.min(global)));
                }
                Ok(())
            }
            Event::Heartbeat { from, tasks } => {
                self.census.record(K_HEARTBEAT, HEARTBEAT_ECHO_BYTES);
                self.reported[from] = Some(tasks);
                Ok(())
            }
            Event::Lost { from, detail } => Err(ShardError::WorkerLost {
                worker: from,
                detail,
            }),
        }
    }
}

/// One frame the coordinator sent to a specific worker, minus liveness
/// traffic: the logical prefix a replacement must replay. Everything
/// needed to rebuild the frame is re-derivable — seeds re-encode from the
/// (untouched until gather) factor or, when the tile has since been
/// finally published, from the coordinator's published-tile map; forwards
/// re-send published bytes; tasks re-encode from `meta`, skipping those
/// whose written tile is already final.
#[derive(Clone, Copy)]
enum LoggedFrame {
    Seed { i: u32, j: u32 },
    Forward { i: u32, j: u32 },
    Task { id: usize },
}

/// Where a replacement worker came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplacementOrigin {
    /// A standby admitted earlier, promoted into the grid slot.
    Standby,
    /// A worker spawned (or dialed in) after the death.
    Respawn,
}

/// A replacement connection handed to the coordinator mid-run.
#[derive(Debug)]
pub struct ReplacementWorker {
    /// Registered connection (the `JOIN`/`ASSIGN` handshake already ran).
    pub stream: TcpStream,
    pub origin: ReplacementOrigin,
}

/// Supplies replacement workers during [`TiledFactor::factorize_elastic`].
/// Returning `None` declines: the run fails with the original
/// [`ShardError::WorkerLost`].
pub trait ReplacementSource {
    fn replace(&mut self, worker: usize) -> Option<ReplacementWorker>;
}

struct Coordinator<'a> {
    streams: &'a mut [TcpStream],
    rx: Receiver<Event>,
    deadline: Instant,
    /// Frames/bytes sent to workers (HELLO, TILE seeds/forwards, TASK,
    /// HEARTBEAT pings).
    census: WireCensus,
    /// Per-worker logical frame log (current incarnation), the replay
    /// source on recovery.
    sent_log: Vec<Vec<LoggedFrame>>,
    /// TASK frames sent to each worker's current incarnation — what its
    /// end-of-run census must report back.
    sent_tasks: Vec<u64>,
    /// Tasks dispatched so far, globally (recovery-plan input).
    dispatched: Vec<bool>,
    /// Workers whose socket failed a write: subsequent writes are
    /// swallowed (but still logged) until the reader surfaces the death
    /// as a `Lost` event and recovery swaps the stream. The frames are in
    /// the log, so the replay covers them.
    dead: Vec<bool>,
}

impl Coordinator<'_> {
    fn send(&mut self, worker: usize, kind: u8, payload: &[u8]) -> Result<(), ShardError> {
        self.census.record(kind, payload.len());
        if self.dead[worker] {
            return Ok(());
        }
        if let Err(e) = write_frame(&mut self.streams[worker], kind, payload) {
            // Don't fail here: the worker's reader thread delivers the
            // authoritative `Lost` event (after any frames the worker got
            // out before dying), and recovery — or the no-replacement
            // error path — runs from `wait_until`. Until then the stream
            // is write-dead and frames land only in the log.
            let _ = e;
            self.dead[worker] = true;
        }
        Ok(())
    }

    fn log(&mut self, worker: usize, frame: LoggedFrame) {
        if let LoggedFrame::Task { .. } = frame {
            self.sent_tasks[worker] += 1;
        }
        self.sent_log[worker].push(frame);
    }
}

/// Everything [`recover`] needs besides the coordinator/drive pair.
struct RecoveryCtx<'s> {
    source: &'s mut dyn ReplacementSource,
    readers: &'s mut Vec<std::thread::JoinHandle<()>>,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
    /// Tile `(i, j)` → id of its finally-publishing task (`POTRF` for the
    /// diagonal, the step-`j` `TRSM` for panel tiles): a tile is *final*
    /// exactly when that task has completed.
    publisher: HashMap<(u32, u32), usize>,
    /// `(p, q, nt, workers)`.
    grid: (usize, usize, usize, usize),
}

/// Pump events until `pred` holds (checked after each event). A `Lost`
/// event routes through [`recover`] instead of failing the run.
#[allow(clippy::too_many_arguments)]
fn wait_until(
    f: &TiledFactor,
    co: &mut Coordinator,
    drive: &mut Drive,
    rec: &mut RecoveryCtx,
    meta: &[TaskMeta],
    layout: &xgs_tile::TileLayout,
    phase: &'static str,
    mut pred: impl FnMut(&Drive) -> bool,
) -> Result<(), ShardError> {
    while !pred(drive) {
        let remaining = co.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ShardError::Timeout { phase });
        }
        match co.rx.recv_timeout(remaining) {
            Ok(Event::Lost { from, detail }) => {
                recover(f, co, drive, rec, meta, layout, from, detail)?
            }
            Ok(ev) => drive.handle(ev, meta, layout)?,
            Err(RecvTimeoutError::Timeout) => return Err(ShardError::Timeout { phase }),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ShardError::Protocol(
                    "all worker connections closed unexpectedly".into(),
                ))
            }
        }
    }
    Ok(())
}

fn hello_payload(worker: usize, layout: &TileLayout, p: usize, q: usize, nt: usize) -> Vec<u8> {
    let mut h = WireWriter::new();
    h.put_u8(PROTO_VERSION);
    h.put_u32(worker as u32);
    h.put_u32(p as u32);
    h.put_u32(q as u32);
    h.put_u32(nt as u32);
    h.put_u32(layout.tile_size() as u32);
    h.put_u64(layout.n() as u64);
    h.buf
}

/// Encode the coordinator's stored tile `(i, j)` as a seeding TILE frame.
fn seed_payload(f: &TiledFactor, i: usize, j: usize) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(i as u32);
    w.put_u32(j as u32);
    f.with_tile(i, j, |t| {
        encode_tile(t, &mut w.buf);
        count_wire_conversion(t, true);
    });
    w.buf
}

fn task_payload(id: usize, m: &TaskMeta, publish: bool) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(m.kind);
    w.put_u64(id as u64);
    w.put_u32(m.k);
    w.put_u32(m.i);
    w.put_u32(m.j);
    w.put_f64(m.tol);
    w.put_u8(publish as u8);
    w.buf
}

/// The tile task `m` writes.
fn write_tile(m: &TaskMeta) -> (u32, u32) {
    match m.kind {
        KIND_POTRF => (m.k, m.k),
        KIND_TRSM => (m.i, m.k),
        KIND_SYRK => (m.i, m.i),
        // GEMM and (unreachable for locally built meta) anything else.
        _kind_gemm_or_unknown => (m.i, m.j),
    }
}

/// Recover from the death of `lost`'s current incarnation.
///
/// If every task has already completed, the factor is fully published and
/// the worker is only marked departed (the gather needs nothing further
/// from it). Otherwise a replacement is taken from the source and the lost
/// shard's state is rebuilt by replaying the worker's logged frame prefix:
/// tiles whose final value was already published are seeded from the
/// coordinator's published bytes ("replay from the last published tile
/// versions"), everything else re-runs. Workers are deterministic
/// functions of their FIFO input stream, so the rebuilt state — and the
/// finished factor — is bitwise identical to an undisturbed run.
///
/// The replay is validated before a single frame is sent:
/// `check_shard_plan` re-proves the base plan and
/// [`xgs_analysis::check_recovery_plan`] replays the recovery events
/// against it (seed/forward legality, operand versions, re-dispatch
/// completeness).
#[allow(clippy::too_many_arguments)]
fn recover(
    f: &TiledFactor,
    co: &mut Coordinator,
    drive: &mut Drive,
    rec: &mut RecoveryCtx,
    meta: &[TaskMeta],
    layout: &xgs_tile::TileLayout,
    lost: usize,
    detail: String,
) -> Result<(), ShardError> {
    let t_rec = Instant::now();
    if drive.departed[lost] {
        return Ok(());
    }
    co.dead[lost] = true;
    if drive.done_count == meta.len() {
        // Death during gather/drain: every task is done and every final
        // tile is already in `drive.tiles` — record the death, skip the
        // worker in the census, and let the run finish without it.
        drive.departed[lost] = true;
        drive.events[EV_WORKER_DEATH].record(0.0);
        return Ok(());
    }
    let Some(repl) = rec.source.replace(lost) else {
        return Err(ShardError::WorkerLost {
            worker: lost,
            detail,
        });
    };
    drive.events[EV_WORKER_DEATH].record(0.0);
    let (p, q, nt, workers) = rec.grid;

    // Tiles whose final publishing task has completed. Stable across the
    // resets below: only non-final-writing tasks are reset, and they are
    // never a tile's final publisher.
    let final_tiles: std::collections::HashSet<(u32, u32)> = rec
        .publisher
        .iter()
        .filter(|&(_, &id)| drive.done[id])
        .map(|(&t, _)| t)
        .collect();

    // Build the recovery event list in the original per-worker frame
    // order, and validate it against the re-proven base plan before any
    // frame is sent.
    let old_log = std::mem::take(&mut co.sent_log[lost]);
    let mut revents = Vec::with_capacity(old_log.len());
    for fr in &old_log {
        match *fr {
            LoggedFrame::Seed { i, j } => {
                let tile = (i as usize, j as usize);
                revents.push(if final_tiles.contains(&(i, j)) {
                    xgs_analysis::RecoveryEvent::SeedPublished { tile }
                } else {
                    xgs_analysis::RecoveryEvent::SeedOriginal { tile }
                });
            }
            LoggedFrame::Forward { i, j } => {
                revents.push(xgs_analysis::RecoveryEvent::Forward {
                    tile: (i as usize, j as usize),
                });
            }
            LoggedFrame::Task { id } => {
                if !final_tiles.contains(&write_tile(&meta[id])) {
                    revents.push(xgs_analysis::RecoveryEvent::Replay { task: id });
                }
            }
        }
    }
    let base = build_shard_plan(f, meta, nt, p, q, workers);
    xgs_analysis::check_shard_plan(&base)
        .map_err(|e| ShardError::Protocol(format!("recovery base plan rejected: {e}")))?;
    let rplan = xgs_analysis::RecoveryPlan {
        lost,
        completed: drive.done.clone(),
        dispatched: co.dispatched.clone(),
        events: revents,
    };
    xgs_analysis::check_recovery_plan(&base, &rplan)
        .map_err(|e| ShardError::Protocol(format!("recovery plan rejected: {e}")))?;

    // Reset completed tasks the replacement will re-run, so their fresh
    // DONEs are accepted (their original order stamps stay — consumers
    // read the originally published values).
    for fr in &old_log {
        if let LoggedFrame::Task { id } = *fr {
            if !final_tiles.contains(&write_tile(&meta[id])) && drive.done[id] {
                drive.done[id] = false;
                drive.done_count -= 1;
            }
        }
    }

    // Swap in the replacement and give it a reader.
    co.streams[lost] = repl.stream;
    co.dead[lost] = false;
    co.sent_tasks[lost] = 0;
    let _ = co.streams[lost].set_nodelay(true);
    match co.streams[lost].try_clone() {
        Ok(clone) => {
            let tx = rec.tx.clone();
            let stop = Arc::clone(&rec.stop);
            rec.readers.push(std::thread::spawn(move || {
                reader_thread(lost, clone, tx, stop)
            }));
        }
        Err(e) => {
            // Treat an uncloneable replacement as instantly dead: the
            // synthetic Lost re-enters recovery for another replacement.
            let tx = rec.tx.clone();
            let synth = format!("replacement stream clone failed: {e}");
            rec.readers.push(std::thread::spawn(move || {
                let _ = tx.send(Event::Lost {
                    from: lost,
                    detail: synth,
                });
            }));
        }
    }

    // Replay the validated plan: HELLO resets the worker, then the logged
    // prefix with final tiles seeded from their published bytes and
    // final-writing tasks skipped.
    co.send(lost, K_HELLO, &hello_payload(lost, layout, p, q, nt))?;
    let mut panels: Vec<u32> = Vec::new();
    for fr in old_log {
        match fr {
            LoggedFrame::Seed { i, j } => {
                if final_tiles.contains(&(i, j)) {
                    let payload = drive.tiles.get(&(i, j)).cloned().ok_or_else(|| {
                        ShardError::Protocol(format!(
                            "final tile ({i},{j}) missing from the published map"
                        ))
                    })?;
                    co.send(lost, K_TILE, &payload)?;
                } else {
                    let payload = seed_payload(f, i as usize, j as usize);
                    co.send(lost, K_TILE, &payload)?;
                }
                co.log(lost, fr);
            }
            LoggedFrame::Forward { i, j } => {
                let payload = drive.tiles.get(&(i, j)).cloned().ok_or_else(|| {
                    ShardError::Protocol(format!(
                        "forwarded tile ({i},{j}) missing from the published map"
                    ))
                })?;
                co.send(lost, K_TILE, &payload)?;
                co.log(lost, fr);
            }
            LoggedFrame::Task { id } => {
                let m = &meta[id];
                if final_tiles.contains(&write_tile(m)) {
                    continue;
                }
                let publish = matches!(m.kind, KIND_POTRF | KIND_TRSM);
                let payload = task_payload(id, m, publish);
                co.send(lost, K_TASK, &payload)?;
                co.log(lost, fr);
                if !panels.contains(&m.k) {
                    panels.push(m.k);
                }
            }
        }
    }
    // One panel_replay event per affected step, stamped with the recovery
    // wall time so the report shows what the death cost.
    let dt = t_rec.elapsed().as_secs_f64();
    for _k in &panels {
        drive.events[EV_PANEL_REPLAY].record(dt);
    }
    if repl.origin == ReplacementOrigin::Standby {
        drive.events[EV_STANDBY_PROMOTE].record(0.0);
    }
    drive.recoveries += 1;
    Ok(())
}

impl TiledFactor {
    /// Factorize by fanning the DAG out over the registered worker
    /// connections on `streams` (one per worker; the `xgs-fleet`
    /// supervisor owns them in production). Tile `(i, j)` tasks run on
    /// worker `block_cyclic_owner(i, j, p, q)`; per-tile kernel order
    /// matches [`TiledFactor::factorize_seq`], so the result is bitwise
    /// identical to the single-process factor.
    ///
    /// When a worker dies mid-run, `source` supplies a replacement (a
    /// promoted standby or a fresh respawn) and the coordinator replays
    /// the lost shard's frame prefix from the last published tile versions
    /// instead of failing — see [`recover`].
    ///
    /// On success the workers stay warm: the executed-task census rides a
    /// `HEARTBEAT` exchange, the sockets stay open, and the next
    /// factorization starts with a state-resetting `HELLO`. On error the
    /// sockets are shut down before returning, so a failed run can never
    /// leave a worker half-driven.
    pub fn factorize_elastic(
        &mut self,
        streams: &mut Vec<TcpStream>,
        opts: &ShardOptions,
        source: &mut dyn ReplacementSource,
    ) -> Result<ShardReport, ShardError> {
        let workers = streams.len();
        let (p, q) = (opts.grid_p, opts.grid_q);
        if p * q != workers || workers == 0 {
            return Err(ShardError::Protocol(format!(
                "grid {p}x{q} does not match {workers} workers"
            )));
        }
        let t0 = Instant::now();
        let conv0 = conversion_counts();
        let layout = self.layout;
        let nt = layout.nt();

        // Canonical DAG in insertion order: task_id == index. Also the
        // access lists the validator re-derives hazard edges from.
        let (meta, accesses) = canonical_tasks(self, p, q);
        let total = meta.len();
        let census = task_census(meta.iter().map(|m| m.owner), workers);

        // Static safety gate before any worker sees a frame: replay the
        // exact emission plan (owner placement, census, operand versions,
        // forward/publish protocol, TILE frame bytes) and cross-check the
        // statically derived hazard edges against the post-run validator's
        // derivation.
        let mut planned_tiles: Option<(u64, u64)> = None;
        if opts.precheck {
            let plan = build_shard_plan(self, &meta, nt, p, q, workers);
            let summary = xgs_analysis::check_shard_plan(&plan)
                .map_err(|e| ShardError::Protocol(format!("shard plan precheck: {e}")))?;
            for (w, (&got, &want)) in summary.per_worker.iter().zip(census.iter()).enumerate() {
                if got != want {
                    return Err(ShardError::Protocol(format!(
                        "shard plan precheck: plan places {got} tasks on worker {w}, \
                         census says {want}"
                    )));
                }
            }
            crosscheck_static_edges(&accesses)
                .map_err(|e| ShardError::Protocol(format!("shard plan precheck: {e}")))?;
            // With static formats (every stored tile dense) the plan's TILE
            // byte budget is exact, so the measured census must hit it to
            // the byte. TLR ranks drift during the trailing update, so
            // there the budget is only an estimate and the check is off.
            if self.tiles.iter().all(|t| t.lock().is_dense()) {
                planned_tiles = Some((summary.tile_frames, summary.tile_bytes));
            }
        }

        // Spin up reader threads over cloned handles; writes stay on the
        // original streams in this thread.
        let stop = Arc::new(AtomicBool::new(false));
        // Reader threads must never block sending into the coordinator,
        // which may itself be blocked writing to a worker — a bounded
        // fan-in channel here can deadlock the whole run. Depth is bounded
        // in practice by frames in flight (one publish + one DONE per task).
        // xgs-lint: allow(no-unbounded-channel-send): bounding would deadlock; see above
        let (tx, rx) = channel();
        let mut readers = Vec::with_capacity(workers);
        for (w, s) in streams.iter().enumerate() {
            let _ = s.set_nodelay(true);
            let clone = s
                .try_clone()
                .map_err(|e| ShardError::Spawn(e.to_string()))?;
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                reader_thread(w, clone, tx, stop)
            }));
        }

        // Tile (i, j) -> the task whose completion makes it final.
        let mut publisher: HashMap<(u32, u32), usize> = HashMap::new();
        for (id, m) in meta.iter().enumerate() {
            match m.kind {
                KIND_POTRF => {
                    publisher.insert((m.k, m.k), id);
                }
                KIND_TRSM => {
                    publisher.insert((m.i, m.k), id);
                }
                _other => {}
            }
        }

        let mut drive = Drive {
            tiles: HashMap::new(),
            order: vec![TaskOrder::default(); total],
            done: vec![false; total],
            completed_once: vec![false; total],
            done_count: 0,
            seq: 0,
            kernels: [
                KernelStats::new("potrf"),
                KernelStats::new("trsm"),
                KernelStats::new("syrk"),
                KernelStats::new("gemm"),
            ],
            events: [
                KernelStats::new("worker_death"),
                KernelStats::new("panel_replay"),
                KernelStats::new("standby_promote"),
            ],
            workers: vec![WorkerStats::default(); workers],
            reported: vec![None; workers],
            departed: vec![false; workers],
            recoveries: 0,
            failed: None,
            census: WireCensus::default(),
        };
        let mut co = Coordinator {
            streams,
            rx,
            deadline: t0 + opts.deadline,
            census: WireCensus::default(),
            sent_log: vec![Vec::new(); workers],
            sent_tasks: vec![0; workers],
            dispatched: vec![false; total],
            dead: vec![false; workers],
        };
        let mut rec = RecoveryCtx {
            source,
            readers: &mut readers,
            tx,
            stop: Arc::clone(&stop),
            publisher,
            grid: (p, q, nt, workers),
        };

        let result = run_steps(
            self, &mut co, &mut drive, &mut rec, &meta, p, q, nt, workers,
        );
        drop(rec);

        // Reader threads never outlive the run: the stop flag unblocks
        // them even though the sockets stay open for the next run. Sockets
        // are torn down only when the run failed.
        stop.store(true, Ordering::Release);
        if result.is_err() {
            for s in co.streams.iter() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        let sent_tasks = co.sent_tasks.clone();
        drop(co);
        for r in readers {
            let _ = r.join();
        }
        let mut report = result?;

        // Census: each surviving incarnation must report back exactly the
        // TASK frames the coordinator sent it. Workers that departed after
        // the last DONE have nothing left to prove. Without recoveries the
        // sent counts are the block-cyclic census itself.
        for (w, &want) in sent_tasks.iter().enumerate() {
            if drive.departed[w] {
                continue;
            }
            let got = drive.reported[w];
            if got != Some(want) {
                return Err(ShardError::Protocol(format!(
                    "worker {w} executed {got:?} tasks, coordinator sent {want}"
                )));
            }
        }
        if drive.recoveries == 0 {
            debug_assert_eq!(sent_tasks, census);
        }
        report.worker_tasks = census;
        report.metrics.conversions = conversion_counts().since(&conv0);

        // The bytes the plan budgeted are the bytes the wire carried — a
        // mismatch means the encoder and the static model disagree about
        // the format of some tile, which is exactly the bug class the
        // f64-everywhere regression was. Replays legitimately resend TILE
        // frames, so the exact-byte check only binds undisturbed runs.
        if let (Some((frames, bytes)), 0) = (planned_tiles, drive.recoveries) {
            let (got_frames, got_bytes) = report
                .metrics
                .wire
                .iter()
                .find(|w| w.kind == "tile")
                .map_or((0, 0), |w| (w.frames, w.bytes));
            if (got_frames, got_bytes) != (frames, bytes) {
                return Err(ShardError::Protocol(format!(
                    "wire census mismatch: plan budgeted {frames} TILE frames / {bytes} bytes, \
                     coordinator observed {got_frames} frames / {got_bytes} bytes"
                )));
            }
        }

        if opts.validate {
            let summary = check_schedule(&accesses, &drive.order).map_err(|v| {
                ShardError::Protocol(format!(
                    "sharded completion order violates {} hazard edges",
                    v.len()
                ))
            })?;
            report.metrics.validation = Some(summary);
        }
        report.metrics.wall_seconds = t0.elapsed().as_secs_f64();
        Ok(report)
    }
}

/// The per-step drive loop, separated so `factorize_elastic` can run the
/// teardown on every exit path.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    f: &mut TiledFactor,
    co: &mut Coordinator,
    drive: &mut Drive,
    rec: &mut RecoveryCtx,
    meta: &[TaskMeta],
    p: usize,
    q: usize,
    nt: usize,
    workers: usize,
) -> Result<ShardReport, ShardError> {
    let layout = f.layout;
    let total = meta.len();

    // HELLO + initial tile distribution: each worker gets the stored tiles
    // it owns, before any task can reference them (stream FIFO). HELLO is
    // not logged — a replacement's replay opens with its own HELLO.
    for w in 0..workers {
        let payload = hello_payload(w, &layout, p, q, nt);
        co.send(w, K_HELLO, &payload)?;
    }
    for j in 0..nt {
        for i in j..nt {
            let payload = seed_payload(f, i, j);
            let owner = block_cyclic_owner(i, j, p, q);
            co.send(owner, K_TILE, &payload)?;
            co.log(
                owner,
                LoggedFrame::Seed {
                    i: i as u32,
                    j: j as u32,
                },
            );
        }
    }

    let send_task = |co: &mut Coordinator, id: usize, m: &TaskMeta, publish: bool| {
        co.dispatched[id] = true;
        let payload = task_payload(id, m, publish);
        co.send(m.owner, K_TASK, &payload)?;
        co.log(m.owner, LoggedFrame::Task { id });
        Ok::<(), ShardError>(())
    };
    let forward = |co: &mut Coordinator, drive: &Drive, key: (u32, u32), to: usize| {
        let payload = drive.tiles.get(&key).ok_or_else(|| {
            ShardError::Protocol(format!(
                "tile ({},{}) forwarded before its producer published it",
                key.0, key.1
            ))
        })?;
        co.send(to, K_TILE, payload)?;
        co.log(to, LoggedFrame::Forward { i: key.0, j: key.1 });
        Ok::<(), ShardError>(())
    };
    // Index of task `m` in canonical order, maintained incrementally.
    let mut next_id = 0usize;

    for k in 0..nt {
        // POTRF(k): publish always — its output is both the step's operand
        // and the final value of the diagonal tile.
        let potrf_id = next_id;
        send_task(co, potrf_id, &meta[potrf_id], true)?;
        next_id += 1;
        wait_until(f, co, drive, rec, meta, &layout, "potrf", |d| {
            d.done[potrf_id] || d.failed.is_some()
        })?;
        if let Some(pivot) = drive.failed {
            return Err(ShardError::Factor(FactorError::NotPositiveDefinite {
                pivot,
            }));
        }

        // Forward L_kk to every *other* owner of a TRSM in this panel,
        // then release the TRSMs (publish: a panel tile's final write).
        let trsm_ids: Vec<usize> = (next_id..next_id + (nt - 1 - k)).collect();
        next_id += trsm_ids.len();
        for o in kk_forward_targets(k, nt, p, q, workers) {
            forward(co, drive, (k as u32, k as u32), o)?;
        }
        for &id in &trsm_ids {
            send_task(co, id, &meta[id], true)?;
        }
        wait_until(f, co, drive, rec, meta, &layout, "trsm", |d| {
            trsm_ids.iter().all(|&id| d.done[id])
        })?;

        // Forward each finished panel (r, k) to every other worker that
        // consumes it this step: syrk(r,r), gemm(r,j) as A, gemm(i,r) as B.
        for r in k + 1..nt {
            for o in panel_forward_targets(k, r, nt, p, q, workers) {
                forward(co, drive, (r as u32, k as u32), o)?;
            }
        }

        // Release the trailing update; no barrier — the next step's POTRF
        // is ordered behind these on its owner's FIFO stream, and their
        // DONEs drain while later steps run.
        for i in k + 1..nt {
            for _j in k + 1..=i {
                send_task(co, next_id, &meta[next_id], false)?;
                next_id += 1;
            }
        }
    }
    debug_assert_eq!(next_id, total);

    wait_until(f, co, drive, rec, meta, &layout, "drain", |d| {
        d.done_count == total
    })?;

    // Gather: every stored tile's final write is a published POTRF (diag)
    // or TRSM (panel) output, so the tile map now holds the whole factor.
    for j in 0..nt {
        for i in j..nt {
            let payload = drive
                .tiles
                .get(&(i as u32, j as u32))
                .ok_or_else(|| ShardError::Protocol(format!("tile ({i},{j}) never published")))?;
            let body = payload
                .get(8..)
                .ok_or_else(|| ShardError::Protocol(format!("short published tile ({i},{j})")))?;
            let tile = decode_tile(body).map_err(|e| ShardError::Protocol(e.to_string()))?;
            count_wire_conversion(&tile, false);
            *f.tiles[layout.stored_index(i, j)].lock() = tile;
        }
    }

    // End-of-run census: ping each live worker once with a HEARTBEAT whose
    // echo carries its executed-task count, leaving the connection warm for
    // the next factorization. Workers that departed after the final DONE
    // have nothing to report.
    for w in 0..workers {
        if drive.departed[w] {
            continue;
        }
        let mut hb = WireWriter::new();
        hb.put_u64(w as u64);
        co.send(w, K_HEARTBEAT, &hb.buf)?;
    }
    wait_until(f, co, drive, rec, meta, &layout, "census", |d| {
        d.reported
            .iter()
            .zip(d.departed.iter())
            .all(|(r, &dep)| dep || r.is_some())
    })?;

    let mut kernels: Vec<KernelStats> = drive
        .kernels
        .iter()
        .filter(|k| k.count > 0)
        .copied()
        .collect();
    kernels.sort_by(|a, b| b.total_seconds.total_cmp(&a.total_seconds));
    // Fleet lifecycle events ride the same kernel-stats schema (count +
    // seconds), trailing the compute kernels, so `metrics_diff
    // --assert-counts worker_death,panel_replay` can hold a chaos run to
    // an exact recovery profile.
    kernels.extend(drive.events.iter().filter(|e| e.count > 0).copied());
    // One census for both directions: coordinator-side sends plus the
    // worker frames the reader threads drained.
    let mut wire = co.census;
    wire.merge(&drive.census);
    Ok(ShardReport {
        metrics: MetricsReport {
            wall_seconds: 0.0, // stamped by the caller
            tasks: total,
            workers,
            kernels,
            worker_stats: drive.workers.clone(),
            wire: wire.to_stats(),
            ..MetricsReport::default()
        },
        worker_tasks: Vec::new(), // stamped by the caller from the census
    })
}

/// The canonical right-looking Cholesky task list over `f`'s tile grid:
/// insertion order is task id, owners follow [`block_cyclic_owner`] on the
/// `p x q` grid. Second element is the per-task access lists the hazard
/// validator (and the static cross-check) re-derives edges from.
fn canonical_tasks(f: &TiledFactor, p: usize, q: usize) -> (Vec<TaskMeta>, Vec<Vec<Access>>) {
    let layout = f.layout;
    let nt = layout.nt();
    let mut meta: Vec<TaskMeta> = Vec::new();
    let mut accesses: Vec<Vec<Access>> = Vec::new();
    let data = |i: usize, j: usize| DataId(layout.stored_index(i, j) as u64);
    for k in 0..nt {
        meta.push(TaskMeta {
            kind: KIND_POTRF,
            k: k as u32,
            i: k as u32,
            j: k as u32,
            owner: block_cyclic_owner(k, k, p, q),
            tol: 0.0,
        });
        accesses.push(vec![Access::write(data(k, k))]);
        for i in k + 1..nt {
            meta.push(TaskMeta {
                kind: KIND_TRSM,
                k: k as u32,
                i: i as u32,
                j: k as u32,
                owner: block_cyclic_owner(i, k, p, q),
                tol: 0.0,
            });
            accesses.push(vec![Access::read(data(k, k)), Access::write(data(i, k))]);
        }
        for i in k + 1..nt {
            for j in k + 1..=i {
                if i == j {
                    meta.push(TaskMeta {
                        kind: KIND_SYRK,
                        k: k as u32,
                        i: i as u32,
                        j: i as u32,
                        owner: block_cyclic_owner(i, i, p, q),
                        tol: 0.0,
                    });
                    accesses.push(vec![Access::read(data(i, k)), Access::write(data(i, i))]);
                } else {
                    meta.push(TaskMeta {
                        kind: KIND_GEMM,
                        k: k as u32,
                        i: i as u32,
                        j: j as u32,
                        owner: block_cyclic_owner(i, j, p, q),
                        tol: f.tols[layout.stored_index(i, j)],
                    });
                    accesses.push(vec![
                        Access::read(data(i, k)),
                        Access::read(data(j, k)),
                        Access::write(data(i, j)),
                    ]);
                }
            }
        }
    }
    (meta, accesses)
}

/// Workers, other than `(k, k)`'s owner, that run a TRSM in panel `k` and
/// therefore need `L_kk` forwarded. First-consumer order, deduplicated.
/// Shared by [`run_steps`] (emission) and [`build_shard_plan`] (precheck)
/// so the checked plan is the executed plan by construction.
fn kk_forward_targets(k: usize, nt: usize, p: usize, q: usize, workers: usize) -> Vec<usize> {
    let mut sent = vec![false; workers];
    sent[block_cyclic_owner(k, k, p, q)] = true;
    let mut out = Vec::new();
    for i in k + 1..nt {
        let o = block_cyclic_owner(i, k, p, q);
        if !sent[o] {
            sent[o] = true;
            out.push(o);
        }
    }
    out
}

/// Workers, other than `(r, k)`'s owner, that consume the finished panel
/// tile `(r, k)` in step `k`'s trailing update: SYRK `(r, r)`, GEMM
/// `(r, j)` as the A operand, GEMM `(i, r)` as the B operand.
/// First-consumer order, deduplicated. Shared like [`kk_forward_targets`].
fn panel_forward_targets(
    k: usize,
    r: usize,
    nt: usize,
    p: usize,
    q: usize,
    workers: usize,
) -> Vec<usize> {
    let mut sent = vec![false; workers];
    sent[block_cyclic_owner(r, k, p, q)] = true;
    let mut out = Vec::new();
    let mut consumers = vec![block_cyclic_owner(r, r, p, q)];
    for j in k + 1..r {
        consumers.push(block_cyclic_owner(r, j, p, q));
    }
    for i in r + 1..nt {
        consumers.push(block_cyclic_owner(i, r, p, q));
    }
    for o in consumers {
        if !sent[o] {
            sent[o] = true;
            out.push(o);
        }
    }
    out
}

/// Closed-form projection of a sharded run's whole wire traffic, per
/// frame kind: replays exactly the frame sequence [`run_steps`] emits
/// (HELLO per worker, tile seeding, per step the POTRF publish, `L_kk`
/// forwards, TRSM publishes and panel forwards, one TASK/DONE pair per
/// task, and the end-of-run HEARTBEAT ping and echo per worker) over the
/// block-cyclic owner map, with TILE frame sizes from `meta`'s per-tile
/// formats ([`tile_wire_frame_bytes`]). For static formats this equals
/// the measured census byte-for-byte — `metrics_diff --assert-wire-equal`
/// holds a real run to it in CI; with TLR storage the ranks drift during
/// the trailing update and the TILE row is an estimate.
pub fn project_wire_census_warm(
    meta: &dyn TileMetaSource,
    n: usize,
    nb: usize,
    workers: usize,
) -> Vec<WireStats> {
    let layout = TileLayout::new(n, nb);
    let nt = layout.nt();
    let (p, q) = grid_shape(workers);
    let mut census = WireCensus::default();
    let tile_payload = |i: usize, j: usize| -> usize {
        tile_wire_frame_bytes(meta, layout.tile_dim(i), layout.tile_dim(j), i, j) as usize
            - FRAME_HEADER_BYTES
    };
    census.record_many(K_HELLO, workers as u64, HELLO_PAYLOAD_BYTES);
    // Seeding: every stored tile to its owner.
    for j in 0..nt {
        for i in j..nt {
            census.record(K_TILE, tile_payload(i, j));
        }
    }
    for k in 0..nt {
        // POTRF publish, then L_kk forwarded to the other TRSM owners.
        let kk = tile_payload(k, k);
        census.record(K_TILE, kk);
        census.record_many(
            K_TILE,
            kk_forward_targets(k, nt, p, q, workers).len() as u64,
            kk,
        );
        // TRSM publishes, then each panel tile to its trailing consumers.
        for r in k + 1..nt {
            let rk = tile_payload(r, k);
            census.record(K_TILE, rk);
            census.record_many(
                K_TILE,
                panel_forward_targets(k, r, nt, p, q, workers).len() as u64,
                rk,
            );
        }
    }
    // One TASK down and one DONE back per task; one HEARTBEAT ping and
    // echo per worker.
    let tasks = (nt + nt * (nt - 1) / 2 + (nt * nt * nt - nt) / 6) as u64;
    census.record_many(K_TASK, tasks, TASK_PAYLOAD_BYTES);
    census.record_many(K_DONE, tasks, DONE_PAYLOAD_BYTES);
    census.record_many(K_HEARTBEAT, workers as u64, HEARTBEAT_PING_BYTES);
    census.record_many(K_HEARTBEAT, workers as u64, HEARTBEAT_ECHO_BYTES);
    census.to_stats()
}

/// Mirror [`run_steps`]'s frame emission as a pure data structure so
/// [`xgs_analysis::check_shard_plan`] can replay it before any worker is
/// contacted. Tasks are `meta` in canonical order; events are the exact
/// TILE/TASK sequence: initial distribution, then per step the POTRF,
/// `L_kk` forwards, TRSMs, panel forwards, and trailing updates. Every
/// transfer and publish carries its wire frame size, computed from the
/// tile as `f` holds it now — exact for static formats, an estimate once
/// TLR ranks drift.
fn build_shard_plan(
    f: &TiledFactor,
    meta: &[TaskMeta],
    nt: usize,
    p: usize,
    q: usize,
    workers: usize,
) -> xgs_analysis::ShardPlan {
    use xgs_analysis::{PlanEvent, PlanTask};
    let frame = |i: usize, j: usize| -> u64 {
        (FRAME_HEADER_BYTES + TILE_COORD_BYTES + f.with_tile(i, j, encoded_len)) as u64
    };
    let tasks: Vec<PlanTask> = meta
        .iter()
        .map(|m| {
            let (k, i, j) = (m.k as usize, m.i as usize, m.j as usize);
            match m.kind {
                KIND_POTRF => PlanTask {
                    kind: "potrf",
                    owner: m.owner,
                    reads: Vec::new(),
                    write: (k, k),
                    publish: true,
                    publish_bytes: frame(k, k),
                },
                KIND_TRSM => PlanTask {
                    kind: "trsm",
                    owner: m.owner,
                    reads: vec![(k, k)],
                    write: (i, k),
                    publish: true,
                    publish_bytes: frame(i, k),
                },
                KIND_SYRK => PlanTask {
                    kind: "syrk",
                    owner: m.owner,
                    reads: vec![(i, k)],
                    write: (i, i),
                    publish: false,
                    publish_bytes: 0,
                },
                KIND_GEMM => PlanTask {
                    kind: "gemm",
                    owner: m.owner,
                    reads: vec![(i, k), (j, k)],
                    write: (i, j),
                    publish: false,
                    publish_bytes: 0,
                },
                // Locally-built meta never carries other kinds; a poisoned
                // kind string makes the census check reject it loudly.
                _unknown => PlanTask {
                    kind: "unknown",
                    owner: m.owner,
                    reads: Vec::new(),
                    write: (i, j),
                    publish: false,
                    publish_bytes: 0,
                },
            }
        })
        .collect();

    let mut events = Vec::new();
    for j in 0..nt {
        for i in j..nt {
            events.push(PlanEvent::Transfer {
                tile: (i, j),
                to: block_cyclic_owner(i, j, p, q),
                initial: true,
                bytes: frame(i, j),
            });
        }
    }
    let mut next_id = 0usize;
    for k in 0..nt {
        events.push(PlanEvent::Task(next_id));
        next_id += 1;
        for o in kk_forward_targets(k, nt, p, q, workers) {
            events.push(PlanEvent::Transfer {
                tile: (k, k),
                to: o,
                initial: false,
                bytes: frame(k, k),
            });
        }
        for _i in k + 1..nt {
            events.push(PlanEvent::Task(next_id));
            next_id += 1;
        }
        for r in k + 1..nt {
            for o in panel_forward_targets(k, r, nt, p, q, workers) {
                events.push(PlanEvent::Transfer {
                    tile: (r, k),
                    to: o,
                    initial: false,
                    bytes: frame(r, k),
                });
            }
        }
        for i in k + 1..nt {
            for _j in k + 1..=i {
                events.push(PlanEvent::Task(next_id));
                next_id += 1;
            }
        }
    }
    debug_assert_eq!(next_id, meta.len());
    xgs_analysis::ShardPlan {
        nt,
        p,
        q,
        workers,
        tasks,
        events,
    }
}

/// Anything that can run a sharded factorization for the higher layers
/// (`FactorEngine::Sharded`, the prediction server). The one
/// implementation is the `xgs-fleet` supervisor's warm fleet; the trait is
/// the seam that keeps those layers from depending on `xgs-fleet`.
pub trait ShardBackend: Send + Sync + std::fmt::Debug {
    fn factorize(&self, f: &mut TiledFactor) -> Result<ShardReport, ShardError>;

    /// Human-readable strategy tag for logs and `serve` banners.
    fn describe(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::net::TcpListener;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, PrecisionRule, SymTileMatrix, TlrConfig, Variant};

    type LocalWorkerHandle = std::thread::JoinHandle<io::Result<u64>>;

    /// Test stand-in for the fleet's launch path: `shards` in-process
    /// threads running [`worker_loop_with`] over loopback connections,
    /// registered through [`admit_worker`] like real fleet members.
    fn local_workers(
        shards: usize,
        chaos: Option<ChaosSpec>,
    ) -> (Vec<TcpStream>, Vec<LocalWorkerHandle>) {
        let opts = WorkerOptions {
            chaos,
            ..test_worker_options()
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut streams = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for w in 0..shards {
            let mut conn = TcpStream::connect(addr).unwrap();
            let (server_end, _) = listener.accept().unwrap();
            handles.push(std::thread::spawn(move || {
                worker_loop_with(server_end, opts)
            }));
            admit_worker(&mut conn, w as u32, false, Duration::from_secs(10)).unwrap();
            streams.push(conn);
        }
        (streams, handles)
    }

    fn test_worker_options() -> WorkerOptions {
        WorkerOptions {
            idle_timeout: None,
            ..WorkerOptions::default()
        }
    }

    /// Declines every replacement: any mid-run death fails the run.
    struct NoReplacement;

    impl ReplacementSource for NoReplacement {
        fn replace(&mut self, _worker: usize) -> Option<ReplacementWorker> {
            None
        }
    }

    /// One factorization on `streams` with no replacements, then close the
    /// connections so the warm workers exit.
    fn factorize_once(
        f: &mut TiledFactor,
        mut streams: Vec<TcpStream>,
        opts: &ShardOptions,
    ) -> Result<ShardReport, ShardError> {
        f.factorize_elastic(&mut streams, opts, &mut NoReplacement)
    }

    fn build(n: usize, nb: usize, variant: Variant) -> TiledFactor {
        build_with_config(n, TlrConfig::new(variant, nb))
    }

    fn build_with_config(n: usize, cfg: TlrConfig) -> TiledFactor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let kernel = Matern::new(MaternParams::new(1.0, 0.05, 0.5));
        let model = FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        };
        TiledFactor::from_matrix(SymTileMatrix::generate(&kernel, &locs, cfg, &model))
    }

    #[test]
    fn grid_shape_matches_perfmodel_process_grid() {
        assert_eq!(grid_shape(1), (1, 1));
        assert_eq!(grid_shape(2), (1, 2));
        assert_eq!(grid_shape(3), (1, 3));
        assert_eq!(grid_shape(4), (2, 2));
        assert_eq!(grid_shape(5), (1, 5));
        assert_eq!(grid_shape(6), (2, 3));
        assert_eq!(grid_shape(12), (3, 4));
        assert_eq!(grid_shape(0), (1, 1));
    }

    #[test]
    fn sharded_matches_sequential_bitwise_in_process() {
        for (shards, variant) in [
            (4usize, Variant::DenseF64),
            (3, Variant::MpDense),
            (4, Variant::MpDenseTlr),
        ] {
            let mut seq = build(200, 64, variant);
            seq.factorize_seq().unwrap();

            let mut shd = build(200, 64, variant);
            let (streams, handles) = local_workers(shards, None);
            let mut opts = ShardOptions::for_workers(shards);
            opts.validate = true; // assert hazard edges even in release
            let report = factorize_once(&mut shd, streams, &opts).unwrap();
            for h in handles {
                h.join().unwrap().unwrap();
            }

            assert_eq!(
                seq.to_dense_lower().as_slice(),
                shd.to_dense_lower().as_slice(),
                "sharded factor must be bitwise equal ({shards} shards, {variant:?})"
            );
            let nt = seq.nt();
            let total = nt + nt * (nt - 1) / 2 + nt * (nt * nt - 1) / 6;
            assert_eq!(report.metrics.tasks, total);
            assert_eq!(report.worker_tasks.iter().sum::<u64>() as usize, total);
            let v = report.metrics.validation.expect("validation forced on");
            assert_eq!(v.war_edges, 0);
            assert!(v.raw_edges > 0);
        }
    }

    #[test]
    fn sharded_indefinite_fails_with_global_pivot() {
        let mut f = build(150, 50, Variant::DenseF64);
        {
            let idx = f.layout.stored_index(1, 1);
            let mut t = f.tiles[idx].lock();
            if let xgs_tile::TileStorage::Dense(d) = &mut t.storage {
                d[(5, 5)] = -100.0;
            }
        }
        let (streams, handles) = local_workers(2, None);
        let err = factorize_once(&mut f, streams, &ShardOptions::for_workers(2)).unwrap_err();
        match err {
            ShardError::Factor(FactorError::NotPositiveDefinite { pivot }) => {
                assert!(pivot >= 50, "pivot {pivot} should be inside tile 1");
            }
            other => panic!("expected factor error, got {other}"),
        }
        // Workers were torn down, not left hanging.
        for h in handles {
            let _ = h.join().unwrap();
        }
    }

    #[test]
    fn shard_plan_precheck_accepts_real_plans() {
        // Every grid the equivalence tests use, plus a ragged one.
        for workers in [1usize, 2, 3, 4, 6] {
            let f = build(200, 64, Variant::DenseF64);
            let (p, q) = grid_shape(workers);
            let (meta, accesses) = canonical_tasks(&f, p, q);
            let plan = build_shard_plan(&f, &meta, f.nt(), p, q, workers);
            let summary = xgs_analysis::check_shard_plan(&plan)
                .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
            assert_eq!(summary.tasks as usize, meta.len());
            let census = task_census(meta.iter().map(|m| m.owner), workers);
            assert_eq!(summary.per_worker, census);
            xgs_runtime::crosscheck_static_edges(&accesses).unwrap();
        }
    }

    #[test]
    fn shard_plan_missing_tile_rejected_with_diagnostic() {
        let f = build(200, 64, Variant::DenseF64);
        let (p, q) = grid_shape(4);
        let (meta, _) = canonical_tasks(&f, p, q);
        let mut plan = build_shard_plan(&f, &meta, f.nt(), p, q, 4);

        // Drop the initial TILE transfer seeding tile (1, 0) to its owner:
        // the first TRSM that writes it must be rejected, and the message
        // must say which task, which tile, and which worker.
        let victim = plan
            .events
            .iter()
            .position(|e| {
                matches!(
                    e,
                    xgs_analysis::PlanEvent::Transfer {
                        tile: (1, 0),
                        initial: true,
                        ..
                    }
                )
            })
            .expect("plan seeds every stored tile");
        plan.events.remove(victim);
        let err = xgs_analysis::check_shard_plan(&plan).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("trsm") && msg.contains("(1,0)"),
            "diagnostic should name the kernel and tile: {msg}"
        );
    }

    #[test]
    fn shard_plan_forward_before_publish_rejected() {
        let f = build(200, 64, Variant::DenseF64);
        let (p, q) = grid_shape(4);
        let (meta, _) = canonical_tasks(&f, p, q);
        let mut plan = build_shard_plan(&f, &meta, f.nt(), p, q, 4);

        // Move the first non-initial forward ahead of every task: the tile
        // it ships hasn't been produced yet.
        let fwd = plan
            .events
            .iter()
            .position(|e| matches!(e, xgs_analysis::PlanEvent::Transfer { initial: false, .. }))
            .expect("multi-worker plans forward tiles");
        let ev = plan.events.remove(fwd);
        plan.events.insert(0, ev);
        let err = xgs_analysis::check_shard_plan(&plan).unwrap_err();
        assert!(
            matches!(err, xgs_analysis::PlanError::ForwardBeforeProduce { .. }),
            "got {err}"
        );
    }

    #[test]
    fn shard_plan_misplaced_task_rejected() {
        let f = build(200, 64, Variant::DenseF64);
        let (p, q) = grid_shape(4);
        let (mut meta, _) = canonical_tasks(&f, p, q);
        // Place the first TRSM on the wrong worker.
        let t = meta
            .iter()
            .position(|m| m.kind == KIND_TRSM)
            .expect("nt > 1 has TRSMs");
        meta[t].owner = (meta[t].owner + 1) % 4;
        let plan = build_shard_plan(&f, &meta, f.nt(), p, q, 4);
        let err = xgs_analysis::check_shard_plan(&plan).unwrap_err();
        assert!(
            matches!(err, xgs_analysis::PlanError::WrongOwner { .. }),
            "got {err}"
        );
    }

    #[test]
    fn more_workers_than_tiles_still_bitwise() {
        // 100/60 -> NT = 2 (3 stored tiles) on 6 workers: most idle.
        let mut seq = build(100, 60, Variant::DenseF64);
        seq.factorize_seq().unwrap();
        let mut shd = build(100, 60, Variant::DenseF64);
        let (streams, handles) = local_workers(6, None);
        let report = factorize_once(&mut shd, streams, &ShardOptions::for_workers(6)).unwrap();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            shd.to_dense_lower().as_slice()
        );
        assert!(report.worker_tasks.contains(&0), "idle workers");
    }

    /// Pre-factorization snapshot of every stored tile's wire-relevant
    /// format, so the projection can be compared against a run that has
    /// since mutated the factor in place.
    struct CapturedMeta {
        layout: TileLayout,
        dense: Vec<bool>,
        rank: Vec<usize>,
        prec: Vec<Precision>,
    }

    impl CapturedMeta {
        fn of(f: &TiledFactor) -> CapturedMeta {
            let mut m = CapturedMeta {
                layout: f.layout,
                dense: Vec::new(),
                rank: Vec::new(),
                prec: Vec::new(),
            };
            for t in &f.tiles {
                let t = t.lock();
                m.dense.push(t.is_dense());
                m.rank.push(t.rank().unwrap_or(0));
                m.prec.push(t.precision);
            }
            m
        }
    }

    impl TileMetaSource for CapturedMeta {
        fn is_dense(&self, i: usize, j: usize) -> bool {
            self.dense[self.layout.stored_index(i, j)]
        }
        fn rank(&self, i: usize, j: usize) -> usize {
            self.rank[self.layout.stored_index(i, j)]
        }
        fn precision(&self, i: usize, j: usize) -> Precision {
            self.prec[self.layout.stored_index(i, j)]
        }
    }

    #[test]
    fn measured_wire_census_matches_projection_for_static_formats() {
        for variant in [Variant::DenseF64, Variant::MpDense] {
            let mut cfg = TlrConfig::new(variant, 64);
            if variant == Variant::MpDense {
                // The data-independent band rule (diagonal f64, everything
                // else f16) pins the formats, so the projection is exact
                // and the narrow-payload savings are guaranteed — the same
                // setup CI's measured-vs-projected comparison runs.
                cfg.precision_rule = PrecisionRule::Band {
                    f64_band: 1,
                    f32_band: 1,
                };
            }
            let mut shd = build_with_config(200, cfg);
            let meta = CapturedMeta::of(&shd);
            let (streams, handles) = local_workers(4, None);
            let report = factorize_once(&mut shd, streams, &ShardOptions::for_workers(4)).unwrap();
            for h in handles {
                h.join().unwrap().unwrap();
            }
            let projected = project_wire_census_warm(&meta, 200, 64, 4);
            assert_eq!(
                report.metrics.wire, projected,
                "measured census must equal the closed-form projection ({variant:?})"
            );
            let tile = |w: &[WireStats]| {
                w.iter()
                    .find(|s| s.kind == "tile")
                    .map_or((0, 0), |s| (s.frames, s.bytes))
            };
            let (frames, bytes) = tile(&report.metrics.wire);
            assert!(frames > 0 && bytes > 0);
            if variant == Variant::MpDense {
                // Narrow tiles really shrink the wire: strictly below the
                // dense-f64 projection of the same grid, and the report's
                // conversion ledger shows the demotions/promotions.
                let dense = CapturedMeta {
                    layout: meta.layout,
                    dense: meta.dense.clone(),
                    rank: meta.rank.clone(),
                    prec: vec![Precision::F64; meta.prec.len()],
                };
                let (_, dense_bytes) = tile(&project_wire_census_warm(&dense, 200, 64, 4));
                assert!(
                    bytes < dense_bytes,
                    "MP TILE bytes {bytes} should be below dense-f64 {dense_bytes}"
                );
                let c = &report.metrics.conversions;
                assert!(
                    c.f64_to_f16 > 0 && c.f16_to_f64 > 0,
                    "wire crossings must be ledgered: {c:?}"
                );
            }
        }
    }

    fn event_count(report: &ShardReport, kind: &str) -> u64 {
        report
            .metrics
            .kernels
            .iter()
            .find(|k| k.kind == kind)
            .map_or(0, |k| k.count)
    }

    /// In-process [`ReplacementSource`]: dials a fresh loopback worker
    /// thread per death, registered through the same `JOIN`/`ASSIGN`
    /// handshake real fleet members use.
    struct LocalRespawn {
        listener: TcpListener,
        handles: Vec<LocalWorkerHandle>,
        next_member: u32,
        origin: ReplacementOrigin,
    }

    impl LocalRespawn {
        fn new(origin: ReplacementOrigin) -> LocalRespawn {
            LocalRespawn {
                listener: TcpListener::bind("127.0.0.1:0").unwrap(),
                handles: Vec::new(),
                next_member: 100,
                origin,
            }
        }
    }

    impl ReplacementSource for LocalRespawn {
        fn replace(&mut self, _worker: usize) -> Option<ReplacementWorker> {
            let addr = self.listener.local_addr().ok()?;
            let mut conn = TcpStream::connect(addr).ok()?;
            let (server_end, _) = self.listener.accept().ok()?;
            self.handles.push(std::thread::spawn(move || {
                worker_loop_with(server_end, test_worker_options())
            }));
            let standby = self.origin == ReplacementOrigin::Standby;
            admit_worker(
                &mut conn,
                self.next_member,
                standby,
                Duration::from_secs(10),
            )
            .ok()?;
            self.next_member += 1;
            Some(ReplacementWorker {
                stream: conn,
                origin: self.origin,
            })
        }
    }

    #[test]
    fn elastic_recovery_mid_panel_stays_bitwise() {
        for origin in [ReplacementOrigin::Respawn, ReplacementOrigin::Standby] {
            let mut seq = build(200, 64, Variant::DenseF64);
            seq.factorize_seq().unwrap();

            let mut shd = build(200, 64, Variant::DenseF64);
            // Member 3 owns tiles (1,1), (3,1) and (3,3) on the 2x2 grid;
            // dying on receipt of its fourth TASK — the step-1 POTRF —
            // leaves completed-but-unpublished trailing work to replay
            // while the coordinator is blocked on that very panel.
            let (mut streams, handles) = local_workers(
                4,
                Some(ChaosSpec {
                    member: 3,
                    trigger: ChaosTrigger::TaskStart(3),
                    disconnect: true,
                }),
            );
            let mut source = LocalRespawn::new(origin);
            let mut opts = ShardOptions::for_workers(4);
            opts.validate = true;
            let report = shd
                .factorize_elastic(&mut streams, &opts, &mut source)
                .unwrap();
            drop(streams);
            for h in handles.into_iter().chain(source.handles) {
                let _ = h.join().unwrap();
            }

            assert_eq!(
                seq.to_dense_lower().as_slice(),
                shd.to_dense_lower().as_slice(),
                "recovered factor must stay bitwise equal to sequential ({origin:?})"
            );
            assert_eq!(event_count(&report, "worker_death"), 1);
            assert!(event_count(&report, "panel_replay") >= 1);
            let promoted = u64::from(origin == ReplacementOrigin::Standby);
            assert_eq!(event_count(&report, "standby_promote"), promoted);
            // Replay re-runs tasks, so the hazard validator must still see
            // a clean linearization (original order stamps).
            let v = report.metrics.validation.expect("validation forced on");
            assert_eq!(v.war_edges, 0);
        }
    }

    #[test]
    fn repeated_deaths_still_recover() {
        // The same member id is never reassigned, but a respawned member
        // can die again: target the second incarnation too by killing
        // member 100 (the first respawn) after one task.
        let mut seq = build(200, 64, Variant::DenseF64);
        seq.factorize_seq().unwrap();
        let mut shd = build(200, 64, Variant::DenseF64);
        let chaos = ChaosSpec {
            member: 3,
            trigger: ChaosTrigger::TaskStart(3),
            disconnect: true,
        };
        let (mut streams, handles) = local_workers(4, Some(chaos));

        struct ChaosRespawn {
            inner: LocalRespawn,
            second_death: ChaosSpec,
        }
        impl ReplacementSource for ChaosRespawn {
            fn replace(&mut self, _worker: usize) -> Option<ReplacementWorker> {
                let addr = self.inner.listener.local_addr().ok()?;
                let mut conn = TcpStream::connect(addr).ok()?;
                let (server_end, _) = self.inner.listener.accept().ok()?;
                let opts = WorkerOptions {
                    idle_timeout: None,
                    chaos: Some(self.second_death),
                    ..WorkerOptions::default()
                };
                self.inner.handles.push(std::thread::spawn(move || {
                    worker_loop_with(server_end, opts)
                }));
                let member = self.inner.next_member;
                self.inner.next_member += 1;
                admit_worker(&mut conn, member, false, Duration::from_secs(10)).ok()?;
                Some(ReplacementWorker {
                    stream: conn,
                    origin: ReplacementOrigin::Respawn,
                })
            }
        }
        let mut source = ChaosRespawn {
            inner: LocalRespawn::new(ReplacementOrigin::Respawn),
            second_death: ChaosSpec {
                member: 100,
                trigger: ChaosTrigger::TaskStart(2),
                disconnect: true,
            },
        };
        let report = shd
            .factorize_elastic(&mut streams, &ShardOptions::for_workers(4), &mut source)
            .unwrap();
        drop(streams);
        for h in handles.into_iter().chain(source.inner.handles) {
            let _ = h.join().unwrap();
        }
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            shd.to_dense_lower().as_slice()
        );
        assert_eq!(event_count(&report, "worker_death"), 2);
    }

    #[test]
    fn drain_death_departs_without_replacement() {
        // Dying on the end-of-run HEARTBEAT means every task is done and
        // the factor is fully published: even with no replacement source
        // the run must succeed, recording the death but no replay.
        let mut seq = build(200, 64, Variant::DenseF64);
        seq.factorize_seq().unwrap();
        let mut shd = build(200, 64, Variant::DenseF64);
        let (streams, handles) = local_workers(
            4,
            Some(ChaosSpec {
                member: 2,
                trigger: ChaosTrigger::Drain,
                disconnect: true,
            }),
        );
        let report = factorize_once(&mut shd, streams, &ShardOptions::for_workers(4)).unwrap();
        for h in handles {
            let _ = h.join().unwrap();
        }
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            shd.to_dense_lower().as_slice()
        );
        assert_eq!(event_count(&report, "worker_death"), 1);
        assert_eq!(event_count(&report, "panel_replay"), 0);
        assert_eq!(event_count(&report, "standby_promote"), 0);
    }

    #[test]
    fn death_without_replacement_still_fails() {
        let mut shd = build(200, 64, Variant::DenseF64);
        let (streams, handles) = local_workers(
            4,
            Some(ChaosSpec {
                member: 3,
                trigger: ChaosTrigger::TaskStart(3),
                disconnect: true,
            }),
        );
        let err = factorize_once(&mut shd, streams, &ShardOptions::for_workers(4)).unwrap_err();
        assert!(
            matches!(err, ShardError::WorkerLost { worker: 3, .. }),
            "got {err}"
        );
        for h in handles {
            let _ = h.join().unwrap();
        }
    }

    #[test]
    fn warm_fleet_survives_two_runs_and_matches_warm_projection() {
        let mut seq = build(200, 64, Variant::DenseF64);
        seq.factorize_seq().unwrap();

        let (mut streams, handles) = local_workers(4, None);
        let opts = ShardOptions::for_workers(4);
        let mut none = NoReplacement;
        let mut reports = Vec::new();
        for _run in 0..2 {
            let mut shd = build(200, 64, Variant::DenseF64);
            let report = shd
                .factorize_elastic(&mut streams, &opts, &mut none)
                .unwrap();
            assert_eq!(
                seq.to_dense_lower().as_slice(),
                shd.to_dense_lower().as_slice(),
                "warm-fleet factorization must stay bitwise"
            );
            reports.push(report);
        }
        // The census rides HEARTBEAT (no retired SHUTDOWN/BYE frames) and
        // the whole wire matches the projection exactly.
        let shd = build(200, 64, Variant::DenseF64);
        let meta = CapturedMeta::of(&shd);
        let projected = project_wire_census_warm(&meta, 200, 64, 4);
        for report in &reports {
            assert_eq!(report.metrics.wire, projected);
            assert!(report.metrics.wire.iter().all(|w| w.kind != "bye"));
        }
        // Dropping the connections retires the still-warm workers.
        drop(streams);
        for h in handles {
            let _ = h.join().unwrap();
        }
    }

    #[test]
    fn worker_without_join_ack_times_out_with_diagnostic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = TcpStream::connect(addr).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        // Supervisor side (conn) never answers the JOIN.
        let err = worker_loop_with(
            server_end,
            WorkerOptions {
                handshake_timeout: Duration::from_millis(200),
                idle_timeout: None,
                chaos: None,
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            err.to_string().contains("JOIN acknowledgement"),
            "diagnostic should say what was missing: {err}"
        );
        drop(conn);
    }

    #[test]
    fn join_decoding_is_forward_compatible_and_version_gated() {
        // Trailing bytes after the known JOIN fields are future protocol
        // growth, not an error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut worker_side = TcpStream::connect(addr).unwrap();
        let (mut sup_side, _) = listener.accept().unwrap();
        let mut w = WireWriter::new();
        w.put_u8(PROTO_VERSION);
        w.put_u32(8);
        w.put_u8(0b111);
        w.put_u64(0xDEAD_BEEF); // a field from the future
        write_frame(&mut worker_side, K_JOIN, &w.buf).unwrap();
        let info = admit_worker(&mut sup_side, 7, true, Duration::from_secs(5)).unwrap();
        assert_eq!((info.cores, info.precisions), (8, 0b111));

        // An old worker (version byte below ours) is named and rejected.
        let mut old_worker = TcpStream::connect(addr).unwrap();
        let (mut sup_side, _) = listener.accept().unwrap();
        let mut w = WireWriter::new();
        w.put_u8(PROTO_VERSION - 1);
        w.put_u32(8);
        w.put_u8(0b111);
        write_frame(&mut old_worker, K_JOIN, &w.buf).unwrap();
        let err = admit_worker(&mut sup_side, 8, false, Duration::from_secs(5)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("protocol version") && msg.contains("upgrade"),
            "got: {msg}"
        );
    }

    /// Connect an in-process worker and run the registration handshake;
    /// returns the supervisor end and the worker's join handle.
    fn hand_driven_worker(listener: &TcpListener) -> (TcpStream, LocalWorkerHandle) {
        let mut sup = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        let handle =
            std::thread::spawn(move || worker_loop_with(server_end, test_worker_options()));
        admit_worker(&mut sup, 0, false, Duration::from_secs(5)).unwrap();
        (sup, handle)
    }

    #[test]
    fn hello_accepts_trailing_bytes_and_rejects_old_version() {
        // Drive a real worker loop by hand: JOIN/ASSIGN, then a HELLO
        // padded with future fields, then a HEARTBEAT whose echo must
        // carry the nonce, then a socket close — must exit cleanly.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut sup, handle) = hand_driven_worker(&listener);
        let mut h = WireWriter::new();
        h.put_u8(PROTO_VERSION);
        for _ in 0..4 {
            h.put_u32(1);
        }
        h.put_u32(64);
        h.put_u64(64);
        h.put_u64(0xFEED); // future field
        write_frame(&mut sup, K_HELLO, &h.buf).unwrap();
        let mut ping = WireWriter::new();
        ping.put_u64(0xBEEF);
        write_frame(&mut sup, K_HEARTBEAT, &ping.buf).unwrap();
        let (kind, echo) = read_frame(&mut sup, Some(Duration::from_secs(5)), None).unwrap();
        assert_eq!(kind, K_HEARTBEAT);
        let mut r = WireReader::new(&echo);
        assert_eq!((r.get_u64().unwrap(), r.get_u64().unwrap()), (0xBEEF, 0));
        drop(sup);
        assert_eq!(handle.join().unwrap().unwrap(), 0);

        // Same dance with a previous-version HELLO: the worker must refuse
        // with an error naming the versions, not mis-decode.
        let (mut sup, handle) = hand_driven_worker(&listener);
        let mut h = WireWriter::new();
        h.put_u8(PROTO_VERSION - 1);
        for _ in 0..4 {
            h.put_u32(1);
        }
        h.put_u32(64);
        h.put_u64(64);
        write_frame(&mut sup, K_HELLO, &h.buf).unwrap();
        let err = handle.join().unwrap().unwrap_err();
        assert!(err.to_string().contains("protocol version"), "got: {err}");

        // Kinds 5 and 6 (the protocol-2 SHUTDOWN/BYE drain) are retired: a
        // worker rejects them like any unknown kind, never as a drain.
        for retired in [5u8, 6] {
            let (mut sup, handle) = hand_driven_worker(&listener);
            write_frame(&mut sup, retired, &[]).unwrap();
            let err = handle.join().unwrap().unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unexpected frame kind {retired}")),
                "got: {err}"
            );
        }
    }

    #[test]
    fn chaos_spec_parses_both_trigger_forms() {
        assert_eq!(
            ChaosSpec::parse("member=1,tasks=5"),
            Some(ChaosSpec {
                member: 1,
                trigger: ChaosTrigger::TaskStart(5),
                disconnect: false,
            })
        );
        assert_eq!(
            ChaosSpec::parse("member=3,on=drain"),
            Some(ChaosSpec {
                member: 3,
                trigger: ChaosTrigger::Drain,
                disconnect: false,
            })
        );
        assert_eq!(ChaosSpec::parse("member=1"), None);
        assert_eq!(ChaosSpec::parse("tasks=2"), None);
        assert_eq!(ChaosSpec::parse("member=x,tasks=2"), None);
        assert_eq!(ChaosSpec::parse("member=1,on=fire"), None);
    }

    #[test]
    fn recovery_plan_validator_rejects_bad_replays() {
        use xgs_analysis::{RecoveryEvent, RecoveryPlan};
        let f = build(200, 64, Variant::DenseF64);
        let (p, q) = grid_shape(4);
        let (meta, _) = canonical_tasks(&f, p, q);
        let base = build_shard_plan(&f, &meta, f.nt(), p, q, 4);
        let n = meta.len();

        // A legal "death before anything ran" plan: worker 1 lost with
        // nothing dispatched — replay is just its seeds from originals.
        let seeds = |lost: usize| -> Vec<RecoveryEvent> {
            let mut ev = Vec::new();
            for j in 0..f.nt() {
                for i in j..f.nt() {
                    if block_cyclic_owner(i, j, p, q) == lost {
                        ev.push(RecoveryEvent::SeedOriginal { tile: (i, j) });
                    }
                }
            }
            ev
        };
        let ok = RecoveryPlan {
            lost: 1,
            completed: vec![false; n],
            dispatched: vec![false; n],
            events: seeds(1),
        };
        xgs_analysis::check_recovery_plan(&base, &ok).unwrap();

        // Claiming published bytes for a tile that is not final: rejected.
        let mut bad = ok.clone();
        if let Some(RecoveryEvent::SeedOriginal { tile }) = bad.events.first().copied() {
            bad.events[0] = RecoveryEvent::SeedPublished { tile };
        }
        let err = xgs_analysis::check_recovery_plan(&base, &bad).unwrap_err();
        assert!(
            matches!(err, xgs_analysis::PlanError::RecoveryBadSeed { .. }),
            "got {err}"
        );

        // A dispatched, uncompleted task that is never replayed: rejected
        // as incomplete.
        let victim = meta.iter().position(|m| m.owner == 1).unwrap();
        let mut dispatched = vec![false; n];
        dispatched[victim] = true;
        let missing = RecoveryPlan {
            lost: 1,
            completed: vec![false; n],
            dispatched,
            events: seeds(1),
        };
        let err = xgs_analysis::check_recovery_plan(&base, &missing).unwrap_err();
        assert!(
            matches!(err, xgs_analysis::PlanError::RecoveryIncomplete { .. }),
            "got {err}"
        );

        // Replaying another worker's task: rejected.
        let foreign = meta.iter().position(|m| m.owner == 0).unwrap();
        let mut stolen = ok.clone();
        stolen.dispatched[foreign] = true;
        stolen.events.push(RecoveryEvent::Replay { task: foreign });
        let err = xgs_analysis::check_recovery_plan(&base, &stolen).unwrap_err();
        assert!(
            matches!(err, xgs_analysis::PlanError::RecoveryBadReplay { .. }),
            "got {err}"
        );
    }
}
