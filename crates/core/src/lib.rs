#![warn(missing_docs)]
//! # ftdsm — fault-tolerant home-based software distributed shared memory
//!
//! A reproduction of *Sultan, Nguyen, Iftode: "Scalable Fault-Tolerant
//! Distributed Shared Memory" (SC 2000)*: a Home-based Lazy Release
//! Consistency (HLRC) software DSM extended with independent checkpointing,
//! volatile sender-based logging, Lazy Log Trimming (LLT) and Checkpoint
//! Garbage Collection (CGC), recovering from single-node fail-stop failures
//! by local log-driven replay.
//!
//! The cluster is simulated inside one process (one application thread plus
//! one protocol service thread per node over a byte-accounted fabric; see
//! DESIGN.md for the substitutions relative to the paper's Myrinet/VMMC
//! testbed).
//!
//! ## Quickstart
//!
//! ```
//! use ftdsm::{run, ClusterConfig, HomeAlloc};
//!
//! let cfg = ClusterConfig::base(2).with_page_size(1024);
//! let report = run(cfg, &[], |proc| {
//!     // SPMD: the same closure runs on every node.
//!     let counts = proc.alloc_vec::<u64>(2, HomeAlloc::Interleaved);
//!     let me = proc.me();
//!     proc.acquire(0);
//!     counts.set(proc, me, (me as u64 + 1) * 10);
//!     proc.release(0);
//!     proc.barrier();
//!     counts.get(proc, 0) + counts.get(proc, 1)
//! });
//! assert_eq!(report.results, vec![30, 30]);
//! ```

pub mod config;
pub mod ft;
pub mod monitor;
pub mod msg;
pub mod runtime;
pub mod shareable;
pub mod stats;
pub mod wire;

pub use config::{seed_from_env, CkptPolicy, ClusterConfig, FailureSpec, HomeAlloc, MetricsConfig};
pub use dsm_net::{FaultPlan, FaultRule};
pub use dsm_page::{GlobalAddr, PageId};
pub use dsm_storage::{DiskMode, DiskModel};
pub use dsm_trace::{Trace, TraceConfig};
pub use hlrc::LockId;
pub use monitor::{Monitor, MonitorReport, Violation};
pub use runtime::{run, AppState, Process, SharedVec};
pub use shareable::Shareable;
pub use stats::{Breakdown, Counts, FtReport, NodeReport, ReqCause, ReqCauses, RunReport};
