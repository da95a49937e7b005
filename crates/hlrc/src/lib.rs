#![warn(missing_docs)]
//! Home-based Lazy Release Consistency (HLRC) protocol substrate.
//!
//! Pure protocol data structures and state machines, free of threads and
//! I/O, so every transition is unit-testable:
//!
//! * [`wn`] — write notices (page invalidations tagged with the writer's
//!   interval) and the table of notices a node has learned.
//! * [`pagetable`] — per-node page state: cached copies, twins, per-page
//!   required versions; authoritative home copies with version vectors and
//!   idempotent diff application.
//! * [`homestore`] — the sharded store of home-page state, shared between
//!   the page table and the service thread so homes serve fetches and apply
//!   diffs concurrently with application compute.
//! * [`locks`] — the per-lock manager state machine: routing acquire
//!   requests to the last owner (which grants directly to the requester with
//!   LRC write notices), queueing, and the forwards a restart re-issues.
//! * `ring` — the diffs a home copy last applied, which answer a reader
//!   that kept a known version with what it is missing.
//! * `wants` — which peers reported using which homed pages: what a grant
//!   or release pushes them, kept for one unread push.
//! * [`barrier`] — the centralized barrier manager: episode arrivals
//!   carrying each node's own write notices since its previous arrival,
//!   aggregated releases.
//!
//! The threaded runtime that drives these machines over a
//! `dsm_net::Fabric` lives in the `ftdsm` crate, together with the fault
//! tolerance extensions (logging, checkpointing, LLT/CGC, recovery).

pub mod barrier;
pub mod homestore;
pub mod locks;
pub mod pagetable;
mod ring;
mod wants;
pub mod wn;

pub use barrier::{Arrival, BarrierManager, ReleaseSet};
pub use homestore::{
    ApplyOutcome, DiffJob, FetchOutcome, Have, HomeStore, PageBody, ReadyFetch, WaitingFetch,
};
pub use locks::{LockAction, LockId, LockManagerTable};
pub use pagetable::{AccessOutcome, Held, PageMeta, PageState, PageTable};
pub use wn::{WnDelta, WnTable, WriteNotice};
