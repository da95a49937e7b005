//! The diff ring: the most recent diffs applied to one home copy, kept so
//! that a reader whose stale copy is a known version can be sent what it is
//! missing instead of the page ([`crate::PageBody::Delta`]). Volatile:
//! recovery never reads it.

use std::collections::VecDeque;
use std::sync::Arc;

use dsm_page::{Diff, VectorClock};

/// One home copy's diff ring.
#[derive(Debug)]
pub(crate) struct DiffRing {
    /// Oldest first, in the order they were applied to the copy.
    pub(crate) diffs: VecDeque<Arc<Diff>>,
    /// Sum of the diffs' `wire_size`, kept below the page size.
    pub(crate) bytes: usize,
    /// Covers every diff ever applied to the copy that is not in `diffs`.
    pub(crate) base: VectorClock,
    /// Between [`crate::HomeStore::collect_dirty`]'s version bump and the
    /// hand-over of the home's own diff the version names a diff the ring
    /// cannot supply yet.
    pub(crate) own_pending: bool,
}

impl DiffRing {
    /// An empty ring over a copy that is exactly version `base`.
    pub(crate) fn new(base: VectorClock) -> Self {
        DiffRing {
            diffs: VecDeque::new(),
            bytes: 0,
            base,
            own_pending: false,
        }
    }

    /// Forget the diffs held: the base becomes `version`, the copy's.
    pub(crate) fn reset(&mut self, version: &VectorClock) {
        self.diffs.clear();
        self.bytes = 0;
        self.own_pending = false;
        self.base.join(version);
    }

    /// Remember `diff` as the newest, then fold the oldest into the base
    /// until less than `budget` wire bytes are held.
    pub(crate) fn push(&mut self, diff: Arc<Diff>, budget: usize) {
        self.bytes += diff.wire_size();
        self.diffs.push_back(diff);
        while self.bytes >= budget {
            let old = self.diffs.pop_front().expect("bytes held without a diff");
            self.bytes -= old.wire_size();
            if !self.base.covers_interval(old.interval) {
                self.base.set(old.interval.proc, old.interval.seq);
            }
        }
    }
}
