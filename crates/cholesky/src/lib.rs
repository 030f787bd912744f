//! Tile Cholesky factorization in the paper's three variants, plus the
//! tiled triangular solves and log-determinant the MLE pipeline needs.
//!
//! * **dense FP64** — the reference (Algorithm 1 with all tiles FP64);
//! * **MP dense** — per-tile FP64/FP32/FP16 with on-demand operand
//!   conversion (Algorithm 1's `+`/`*` operands);
//! * **MP + dense/TLR** — the paper's contribution: a dense FP64 band,
//!   mixed-precision dense tiles where norms allow, and low-rank tiles
//!   elsewhere, with HiCMA-style low-rank kernels (TRSM touches only the
//!   `V` factor; GEMM products stay low-rank and are *rounded* back to the
//!   target accuracy after each update).
//!
//! Both a sequential reference loop and a task-graph execution on
//! `xgs-runtime` are provided; they produce bitwise-identical tiles because
//! the runtime enforces the sequential semantics of the DAG.

pub mod dag;
pub mod factor;
pub mod kernels;
pub mod shard;
pub mod solve;

pub use dag::{cholesky_dag, DagOptions, DagStats};
pub use factor::{FactorError, TiledFactor};
pub use shard::{
    admit_worker, grid_shape, project_wire_census_warm, tile_wire_frame_bytes, worker_loop_with,
    ChaosSpec, JoinInfo, ReplacementOrigin, ReplacementSource, ReplacementWorker, ShardBackend,
    ShardError, ShardOptions, ShardReport, WorkerOptions,
};
pub use solve::{logdet, solve_lower, solve_lower_transpose};
