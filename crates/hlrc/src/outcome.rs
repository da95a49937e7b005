//! What the home store answers a fetch or an applied diff with.

use dsm_page::{PageId, ProcId, VectorClock};

use crate::homestore::PageBody;

/// A remote fetch parked at the home until the diffs it needs arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitingFetch {
    /// The requesting node.
    pub from: ProcId,
    /// The page requested.
    pub page: PageId,
    /// Minimal version the served copy must include.
    pub needed: VectorClock,
    /// The requester's id for matching the reply to its request.
    pub req_id: u64,
}

/// A parked fetch whose page now satisfies its needed version.
#[derive(Debug)]
pub struct ReadyFetch {
    /// The requesting node.
    pub from: ProcId,
    /// The page requested.
    pub page: PageId,
    /// The requester's id for matching the reply to its request.
    pub req_id: u64,
    /// Version of the served copy.
    pub version: VectorClock,
    /// The page, or the diffs the requester's kept copy is missing.
    pub body: PageBody,
}

/// Outcome of serving one fetch against the store.
#[derive(Debug)]
pub enum FetchOutcome {
    /// The copy satisfies the request; reply with this version and body.
    Ready(VectorClock, PageBody),
    /// In-flight diffs are still missing; the fetch was parked and will be
    /// surfaced by [`crate::HomeStore::drain_ready`] once they arrive.
    Parked,
    /// The page is not homed here (not allocated yet, or a routing bug —
    /// the caller decides which).
    NotHome,
    /// The liveness check failed under the shard lock (node crashing or
    /// recovering); nothing was done.
    Stale,
}

/// Outcome of applying one diff against the store.
#[derive(Debug)]
pub enum ApplyOutcome {
    /// Diff accepted; any fetches it unparked are returned for the caller
    /// to answer. `fresh` is false when the version gate idempotently
    /// skipped an already-covered interval (a diff recovery replay resent)
    /// — observability must not report those as applies.
    Applied {
        /// Did the home version actually advance?
        fresh: bool,
        /// Fetches the diff unparked.
        ready: Vec<ReadyFetch>,
    },
    /// The page is not homed here.
    NotHome,
    /// The liveness check failed under the shard lock; nothing was done.
    Stale,
}
