//! Lazy release consistency on the application thread: closing an interval
//! (twins to diffs, write notices, the FT log, the diffs out to their homes)
//! and opening the next one at an acquire or a barrier (join the sender's
//! timestamp, apply the notices it carried). [`crate::Process`] wraps these
//! in the operation skeleton — the crash clock, the wait, the breakdown.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dsm_page::{Diff, Interval, PageId, ProcId, VectorClock};
use dsm_trace::EventKind;
use hlrc::{LockId, WnDelta, WriteNotice};

use crate::ft::logs::{BarEntry, RelEntry};
use crate::ft::{self, recovery};
use crate::msg::Payload;
use crate::runtime::fetch;
use crate::runtime::node::NodeState;
use crate::stats::Breakdown;

impl NodeState {
    /// End the current interval: turn twins into diffs, publish write
    /// notices, send diffs to remote homes, and (FT) log everything. The
    /// protocol and logging time spent is charged to `bd`, the running
    /// incarnation's breakdown.
    pub(crate) fn close_interval(&mut self, bd: &mut Breakdown) {
        // O(1) early exit: one vec emptiness check plus one atomic load — the
        // common no-writes release pays no slot walk and takes no shard lock.
        if !self.pt.has_writes() {
            return;
        }
        let t0 = Instant::now();
        let me = self.me;
        let iv = self.vt.tick(me);
        let diffs = self.pt.end_interval(iv);
        self.hists
            .diff_create
            .record(t0.elapsed().as_nanos() as u64);
        if diffs.is_empty() {
            // Twins existed but no word actually changed: nothing to publish.
            self.hists
                .release_flush
                .record(t0.elapsed().as_nanos() as u64);
            bd.protocol += t0.elapsed();
            return;
        }
        let pages: Vec<PageId> = diffs.iter().map(|d| d.page).collect();
        if self.tracer.enabled() {
            for d in &diffs {
                self.tracer.emit(EventKind::DiffCreate {
                    page: d.page.0,
                    bytes: d.payload_bytes() as u32,
                });
            }
        }
        self.wn_table.insert_parts(iv, pages.clone());
        self.wn_since_barrier.push(WriteNotice {
            interval: iv,
            pages: pages.clone(),
        });

        // Group diffs for remote homes (reference bumps, not payload copies);
        // each home's keep the order the interval made them in, so the
        // batches — and the piggyback state they advance — replay the same.
        let mut remote: BTreeMap<ProcId, Vec<Arc<Diff>>> = BTreeMap::new();
        for d in &diffs {
            let home = self.pt.home_of(d.page);
            if home != me {
                remote.entry(home).or_default().push(Arc::clone(d));
            }
        }
        bd.protocol += t0.elapsed();

        // FT: log the write notice and every diff (including homed pages') as
        // one batch. The log entries share the diff objects just grouped into
        // the outgoing batches — logging costs one Arc bump plus a timestamp
        // per diff, never a payload copy.
        let t1 = Instant::now();
        if let Some(logs) = self.ft.logs() {
            logs.log_interval(iv.seq, pages, &self.vt, &diffs);
        }
        bd.logging += t1.elapsed();

        // One coalesced DiffBatch per remote home: the release-side flush is
        // one message per home regardless of how many pages the interval wrote,
        // in ascending home order so the piggyback state advances identically
        // on replay.
        for (home, batch) in remote {
            ft::send_diff_batch(self, home, batch);
        }
        // The whole release flush — dirty collection, diff creation, logging,
        // per-home batches out.
        self.hists
            .release_flush
            .record(t0.elapsed().as_nanos() as u64);
    }
}

/// Ask for `lock`: number the acquisition, park it in the wait slot and
/// send the request to the lock's manager.
pub(crate) fn request(st: &mut NodeState, lock: LockId) {
    let acq_seq = st.sync.take_acq_seq();
    st.tracer.emit(EventKind::LockRequest { lock: lock as u32 });
    let vt = st.vt.clone();
    st.block_on(lock % st.n, Payload::LockAcq { lock, acq_seq, vt });
}

/// Apply the write notices a grant or a barrier release carried that `pre`
/// — our timestamp before joining the sender's — does not cover: record
/// them, invalidate their pages, and prefetch what was in use.
fn apply_notices<'a>(
    st: &mut NodeState,
    pre: &VectorClock,
    wns: impl Iterator<Item = (Interval, &'a [PageId])>,
) {
    let mut invalidated = Vec::new();
    for (interval, pages) in wns {
        if pre.covers_interval(interval) {
            continue;
        }
        st.wn_table.insert_parts(interval, pages.to_vec());
        for &pg in pages {
            st.pt.invalidate(pg, interval.proc, interval.seq);
            invalidated.push(pg);
        }
    }
    fetch::issue_prefetch(st, &invalidated);
}

/// The LRC acquire, `grant` taken from the wait slot with its granter:
/// close the interval, join the granter's release timestamp, apply the write
/// notices we were missing, enter the tenure.
pub(crate) fn apply_grant(st: &mut NodeState, grant: (ProcId, Payload), bd: &mut Breakdown) {
    let (granter, grant) = grant;
    let Payload::LockGrant {
        lock,
        acq_seq,
        gen,
        vt,
        wns,
    } = grant
    else {
        unreachable!("a lock wait took {}", grant.kind())
    };
    st.close_interval(bd);
    let req_vt = st.vt.clone();
    st.vt.join(&vt);
    let wns = wns.iter().map(|wn| (wn.interval, &wn.pages[..]));
    apply_notices(st, &req_vt, wns);
    let t_after = st.vt.clone();
    if let Some(logs) = st.ft.logs() {
        let entry = RelEntry {
            acq_seq,
            lock,
            gen,
            req_vt,
            t_after,
        };
        logs.log_acq(granter, entry);
    }
    st.sync.enter(lock, acq_seq, gen);
}

/// Release `lock`, whose interval the caller has closed (which flushed its
/// diffs to their homes).
pub(crate) fn release(st: &mut NodeState, lock: LockId) {
    st.sync.leave(lock, st.vt.clone());
    if st.rec.replaying() {
        return recovery::apply_pending_home(st);
    }
    let mut out = Vec::new();
    for pg in st.sync.take_due_grants(lock) {
        st.sync
            .grant_now(pg, &st.wn_table, &mut st.ft, &st.tracer, &mut out);
    }
    st.send_all(out);
    st.ft.policy_check(st.shared_bytes(), None);
}

/// Arrive at the barrier, the interval closed: park the arrival in the wait
/// slot and send it to the manager. Returns the episode.
pub(crate) fn arrive(st: &mut NodeState) -> u64 {
    let episode = st.sync.bar_episode();
    st.tracer.emit(EventKind::BarrierEnter {
        episode: episode as u32,
    });
    let vt = st.vt.clone();
    // Interval-delta encode the notices accumulated since the previous
    // arrival: the arena is built once here; the wait slot and the
    // arrival share it by refcount.
    let own_wns = WnDelta::from_notices(&std::mem::take(&mut st.wn_since_barrier));
    st.ft.arrived_at_barrier(vt.get(st.me));
    let arrival = Payload::BarrierArrive {
        episode,
        vt,
        own_wns,
    };
    st.block_on(0, arrival);
    episode
}

/// Cross the barrier, `release` taken from the wait slot: join its
/// timestamp and apply the notices it carried.
pub(crate) fn cross_barrier(st: &mut NodeState, release: Payload) {
    let Payload::BarrierRelease { vt, wns, .. } = release else {
        unreachable!("a barrier wait took {}", release.kind())
    };
    let arrive_vt = st.vt.clone();
    st.vt.join(&vt);
    apply_notices(st, &arrive_vt, wns.iter());
    let episode = st.sync.crossed();
    if let Some(logs) = st.ft.logs() {
        logs.log_bar(BarEntry {
            episode,
            arrive_vt,
            result_vt: st.vt.clone(),
        });
    }
    st.ft.policy_check(st.shared_bytes(), Some(episode));
}
