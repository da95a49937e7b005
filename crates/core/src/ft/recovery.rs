//! Log-based recovery.
//!
//! A restarted node (§4.3 of the paper):
//!
//! 1. restores processor-equivalent state from its last local checkpoint
//!    (vector timestamp, homed pages, counters, application state at a step
//!    boundary, saved logs);
//! 2. asks every peer once — one `RecLogReq` each, carrying the restored
//!    version `p0.v` of every page it homes — and collects from each its
//!    write-notice log, the grants it sent us (`rel_log[us]`), the mirror
//!    restoring our own release logs (`acq_log[us]`), barrier crossing logs,
//!    lock-chain generations (manager rebuild), and its diff-log entries for
//!    our homed pages that the restored copies do not hold;
//! 3. fully restores its homed pages by applying those diffs in a linear
//!    extension of happens-before, each once the replay point's timestamp
//!    covers its own (what is left at the crash point is concurrent with
//!    the whole replay and lands then);
//! 4. re-executes the application from the checkpointed step, replaying
//!    acquires and barriers from the collected logs and page misses by
//!    *local emulation of a home* — one `RecPageReq` to every peer per
//!    remote page touched: the home answers with the maximal starting copy,
//!    everyone with their partially ordered diffs;
//! 5. switches to live execution at the first operation with no log record
//!    (the crash point), processing the backlog of deferred peer requests.
//!
//! Recovery traffic is therefore 2 (n − 1) (1 + R) messages for R replayed
//! remote pages, whatever the number of pages homed.

use std::collections::HashMap;
use std::sync::Arc;

use dsm_page::{Page, PageId, ProcId, VectorClock};
use dsm_storage::SegmentKind;
use dsm_trace::{EventKind, RecPhase};
use hlrc::barrier::BarrierManager;
use parking_lot::MutexGuard;

use crate::ft::ckpt::{self, RetainedCkpt};
use crate::ft::logs::{DiffLogEntry, RelEntry};
use crate::msg::Payload;
use crate::runtime::node::{
    apply_pending_home, apply_pending_home_where, handle_msg, Mode, NodeShared, NodeState, WaitSlot,
};
use crate::runtime::process::wait_until;

/// One remote page being rebuilt by local home emulation.
#[derive(Debug)]
pub(crate) struct ReplayPage {
    /// The evolving copy (starts as the maximal starting copy `p0`).
    pub copy: Page,
    /// Versions applied so far (starts as `p0.v`).
    pub version: VectorClock,
    /// Collected, not-yet-applied diffs (kept in linear-extension order).
    pub entries: Vec<DiffLogEntry>,
}

/// Everything the replay needs, attached to the node while recovering.
#[derive(Debug, Default)]
pub(crate) struct ReplayState {
    /// When the recovery began (for the recovery-time statistic).
    pub started: Option<std::time::Instant>,
    /// When replay (phase 4→5 re-execution) began, for the trace span.
    pub replay_from: Option<std::time::Instant>,
    /// Grants to this node, keyed by our acquisition sequence number.
    pub rel: HashMap<u64, (ProcId, RelEntry)>,
    /// Completed barrier episodes: episode → joined timestamp.
    pub bar_results: HashMap<u64, VectorClock>,
    /// Emulated-home copies of remote pages.
    pub pages: HashMap<PageId, ReplayPage>,
    /// Diffs for our homed pages not yet applied: the replay point does not
    /// cover them yet (kept in linear-extension order).
    pub pending_home: Vec<DiffLogEntry>,
    /// Highest interval of OURS any collected peer record proves existed:
    /// peers only learn our interval k after the op that created it
    /// completed, so a record carrying our component `> vt[me]` during
    /// replay is proof the op at hand finished before the crash. Needed to
    /// recognize a *final* self-granted acquire (which leaves no mirrored
    /// grant record and no later logged event of our own).
    pub evidence_self: u32,
}

/// Sort key: a linear extension of the happens-before partial order on
/// diffs (if `a.t <= b.t` pointwise with `a != b`, then `sum(a) < sum(b)`).
pub(crate) fn linear_key(e: &DiffLogEntry) -> (u64, usize, u32) {
    let sum: u64 = e.t.as_slice().iter().map(|&x| x as u64).sum();
    (sum, e.diff.interval.proc, e.diff.interval.seq)
}

/// Which recovery replies a wait collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecAsk {
    /// Every peer's `RecLogReply` (the handshake).
    Logs,
    /// Every peer's `RecPageReply` for this page.
    Page(PageId),
}

impl RecAsk {
    fn matches(self, reply: &Payload) -> bool {
        match (self, reply) {
            (RecAsk::Logs, Payload::RecLogReply { .. }) => true,
            (RecAsk::Page(want), Payload::RecPageReply { page, .. }) => *page == want,
            _ => false,
        }
    }
}

/// Move the replies `ask` matches from `inbox` to `got`, one per peer still
/// in `owed` (which it then leaves); a further matching reply from a peer
/// that has answered is a duplicate and is dropped. Everything else stays
/// queued, in order, for the wait that asks for it.
fn take_replies(
    inbox: &mut Vec<(ProcId, Payload)>,
    ask: RecAsk,
    owed: &mut Vec<ProcId>,
    got: &mut Vec<(ProcId, Payload)>,
) {
    let mut i = 0;
    while i < inbox.len() {
        if !ask.matches(&inbox[i].1) {
            i += 1;
            continue;
        }
        let (peer, payload) = inbox.remove(i);
        if let Some(k) = owed.iter().position(|&p| p == peer) {
            owed.swap_remove(k);
            got.push((peer, payload));
        }
    }
}

/// Block until every peer in `from` has answered `ask`, and return the
/// replies in arrival order. The wait is a [`WaitSlot::Recovery`] under
/// [`wait_until`], so a reply that never comes ends in the same 60 s
/// deadline panic as any other blocked operation, naming what was asked and
/// who still owes it.
pub(crate) fn collect_replies(
    shared: &NodeShared,
    st: &mut MutexGuard<'_, NodeState>,
    ask: RecAsk,
    from: &[ProcId],
) -> Vec<(ProcId, Payload)> {
    let owed = from.to_vec();
    st.wait = WaitSlot::Recovery { ask, owed };
    let mut got = Vec::new();
    wait_until(shared, st, |st| {
        let WaitSlot::Recovery { ask, owed } = &mut st.wait else {
            unreachable!("recovery wait slot replaced while collecting")
        };
        take_replies(&mut st.rec_inbox, *ask, owed, &mut got);
        owed.is_empty().then_some(())
    });
    st.wait = WaitSlot::None;
    got
}

/// Restore node state from the last checkpoint, collect peer logs, rebuild
/// homed pages, and install the replay state. Returns the application's
/// `(step, encoded state)` to resume from.
pub(crate) fn run_recovery(shared: &Arc<NodeShared>) -> (u64, Vec<u8>) {
    let me = shared.me;
    let n = shared.n;

    // ---- Phase 1: restore from the restart checkpoint ----------------------
    let t_recovery = std::time::Instant::now();
    let mut st = shared.state.lock();
    st.recoveries += 1;

    // Everything still on stable storage (ids ascend with `seq`), the
    // retained window over it, and the one image to restart from — the
    // genesis blob if the node never checkpointed.
    let store = Arc::clone(&st.ft.as_ref().expect("recovery requires FT").store);
    let blobs = ckpt::load_chain(&store, store.segment_ids(SegmentKind::Checkpoint));
    let mut window = Vec::with_capacity(blobs.len());
    for b in &blobs {
        RetainedCkpt::append(&mut window, b);
    }
    let image = ckpt::restart_image(blobs, n);
    st.restart_from(&image, window);

    let homed = st.pt.homed_pages();

    st.hists
        .rec_restore
        .record(t_recovery.elapsed().as_nanos() as u64);
    st.tracer.emit_span(
        EventKind::RecoveryPhase {
            phase: RecPhase::Restore,
        },
        t_recovery,
    );

    // ---- Phase 2: handshake ---------------------------------------------
    // Each peer is told what of its own the restored homed copies hold, so
    // its one reply brings exactly the diffs they lack.
    let peers: Vec<ProcId> = (0..n).filter(|&p| p != me).collect();
    for &p in &peers {
        let p0v = |&pg| (pg, st.pt.home_version(pg).get(p));
        let homed = homed.iter().map(p0v).collect();
        st.send(p, Payload::RecLogReq { homed });
    }

    // ---- Phase 3: collect and merge log replies -----------------------------
    let t_collect = std::time::Instant::now();
    let mut replay = ReplayState::default();
    let mut entries: Vec<DiffLogEntry> = Vec::new();
    for (peer, payload) in collect_replies(shared, &mut st, RecAsk::Logs, &peers) {
        let Payload::RecLogReply {
            wn,
            rel_for_you,
            acq_mirror,
            bar,
            bar_mgr,
            lock_chains,
            gen_floor,
            applied_of_you,
            diffs,
        } = payload
        else {
            unreachable!("collected a reply that was not asked for")
        };
        entries.extend(diffs);
        // A home that applied our interval k saw it flushed: without this a
        // final self-granted acquire whose only witness is a remote home
        // goes live and runs interval k a second time — the home drops the
        // second diff by version, and we would keep words it does not have.
        // Like the timestamps below it proves only that interval k existed
        // (a home sets `p.v[me] = k` by applying a diff our closed interval
        // k made), which one page is enough for; replay re-sends the diffs
        // of every interval up to k whether or not they had arrived.
        replay.evidence_self = replay.evidence_self.max(applied_of_you);
        for e in wn {
            st.wn_table.insert_parts(
                dsm_page::Interval {
                    proc: peer,
                    seq: e.seq,
                },
                e.pages,
            );
        }
        // The peer's rel_log[me] is simultaneously our acquire replay input
        // and the mirror restoring our acq_log.
        st.ft.as_mut().unwrap().logs.acq[peer] = rel_for_you.clone();
        for e in rel_for_you {
            replay.evidence_self = replay.evidence_self.max(e.t_after.get(me));
            replay.rel.insert(e.acq_seq, (peer, e));
        }
        // acq_mirror restores our rel_log[peer] and the chain info for
        // grants we issued. Its timestamps also carry our own clock
        // component: a grant we gave after releasing interval k proves
        // interval k completed.
        for e in &acq_mirror {
            replay.evidence_self = replay.evidence_self.max(e.t_after.get(me));
            st.note_grant(e.lock, e.gen, peer, e.acq_seq);
        }
        st.ft.as_mut().unwrap().logs.rel[peer] = acq_mirror;
        for e in &bar {
            replay.evidence_self = replay.evidence_self.max(e.result_vt.get(me));
            replay.bar_results.insert(e.episode, e.result_vt.clone());
        }
        for e in &bar_mgr {
            replay.evidence_self = replay.evidence_self.max(e.result_vt.get(me));
            replay.bar_results.insert(e.episode, e.result_vt.clone());
        }
        // Manager rebuild: chains for locks we manage. Chain reset: the peer
        // discarded its queued edges for our locks when serving the
        // handshake and reports only materialized acquisitions (its
        // delivered tenures, the grants in its release log). Rebuild tails
        // from those; the discarded edges' requesters re-drive their
        // acquisitions and are chained fresh. `gen_floor` keeps fresh edges
        // above every pre-crash generation, including the discarded ones.
        let mut sync = st.sync.lock();
        for (lock, gen, grantee, grantee_acq, granter) in lock_chains {
            if lock % n == me {
                sync.lock_mgr
                    .restore_chain(lock, gen, grantee, grantee_acq, granter);
            }
        }
        for (lock, gen) in gen_floor {
            if lock % n == me {
                sync.lock_mgr.bound_gen(lock, gen);
            }
        }
    }
    // Our own chains: locks we manage where we granted (restored from
    // the grantees' mirrors — every entry was a delivered grant), plus
    // our own checkpoint-restored tenures of locks we manage (replayed
    // tenures restore theirs as the replay reaches them).
    {
        let mut sync = st.sync.lock();
        for (&lock, &(gen, grantee, grantee_acq)) in &st.lock_chain_info {
            if lock % n == me {
                sync.lock_mgr
                    .restore_chain(lock, gen, grantee, grantee_acq, Some(me));
            }
        }
        for (&lock, &(acq, _)) in &st.tenure {
            if lock % n == me {
                let gen = st.tenure_gen.get(&lock).copied().unwrap_or(0);
                sync.lock_mgr.restore_chain(lock, gen, me, acq, None);
            }
        }
    }
    // Rebuild the barrier-manager mirror for future recoveries of peers.
    if me == 0 {
        let ft = st.ft.as_mut().unwrap();
        for (&episode, vt) in &replay.bar_results {
            ft.logs.log_bar_mgr(crate::ft::logs::MgrBarEntry {
                episode,
                arrival_vts: vec![VectorClock::zero(n); n],
                result_vt: vt.clone(),
            });
        }
        ft.logs.bar_mgr.sort_by_key(|e| e.episode);
    }

    // ---- Phase 4: restore homed pages -----------------------------------
    // From the diffs the handshake brought; nothing more is asked for.
    entries.sort_by_key(linear_key);
    for e in &entries {
        replay.evidence_self = replay.evidence_self.max(e.t.get(me));
    }
    replay.pending_home = entries;
    replay.started = Some(t_recovery);
    replay.replay_from = Some(std::time::Instant::now());
    st.replay = Some(replay);
    apply_pending_home(&mut st);
    st.hists
        .rec_log_collect
        .record(t_collect.elapsed().as_nanos() as u64);
    st.tracer.emit_span(
        EventKind::RecoveryPhase {
            phase: RecPhase::LogCollect,
        },
        t_collect,
    );

    (image.step, image.app_state)
}

/// Switch from replay to live execution: the first operation with no log
/// record is the crash point.
pub(crate) fn go_live(st: &mut NodeState) {
    // What is left is concurrent with everything replayed: before the crash
    // it had arrived or it had not, a race-free program cannot tell, and from
    // here on it must be there. Its creator can have seen only intervals of
    // ours that replay made again (checked below).
    let me = st.me;
    apply_pending_home_where(st, |vt, t| t.get(me) <= vt.get(me));
    let replay = st.replay.take().expect("go_live without replay state");
    if let (Some(t0), Some(ft)) = (replay.started, st.ft.as_mut()) {
        ft.report.recovery_time += t0.elapsed();
    }
    if let Some(t0) = replay.replay_from {
        st.hists.rec_replay.record(t0.elapsed().as_nanos() as u64);
        st.tracer.emit_span(
            EventKind::RecoveryPhase {
                phase: RecPhase::Replay,
            },
            t0,
        );
    }
    if !replay.pending_home.is_empty() {
        let leftover: Vec<String> = replay
            .pending_home
            .iter()
            .map(|e| format!("page {} iv {} t={}", e.diff.page, e.diff.interval, e.t))
            .collect();
        panic!(
            "node {}: homed-page diffs left unapplied at the crash point (vt={}): {}",
            st.me,
            st.vt,
            leftover.join("; ")
        );
    }
    let n = st.n;
    if st.me == 0 {
        // Restore the barrier manager. Arrival timestamps and notice sets
        // for the last completed episode are rebuilt conservatively (zero
        // arrivals, all notices the joined timestamp covers); receivers skip
        // notices they already cover, so extras are harmless.
        let mut mgr = BarrierManager::new(n);
        let ep = st.bar_episode;
        let last = if ep > 0 {
            replay.bar_results.get(&(ep - 1)).map(|vt| {
                let all_wns = st.wn_table.missing_between(&VectorClock::zero(n), vt);
                (vt.clone(), vec![VectorClock::zero(n); n], all_wns)
            })
        } else {
            None
        };
        mgr.restore(ep, last);
        st.sync.lock().bar_mgr = Some(mgr);
    }
    st.set_mode(Mode::Normal);
    let backlog = std::mem::take(&mut st.backlog);
    for (from, payload) in backlog {
        handle_msg(st, from, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_reply() -> Payload {
        Payload::RecLogReply {
            wn: Vec::new(),
            rel_for_you: Vec::new(),
            acq_mirror: Vec::new(),
            bar: Vec::new(),
            bar_mgr: Vec::new(),
            lock_chains: Vec::new(),
            gen_floor: Vec::new(),
            applied_of_you: 0,
            diffs: Vec::new(),
        }
    }

    /// A non-home's reply, or with `copy` the home's.
    fn page_reply(page: u32, copy: bool) -> Payload {
        Payload::RecPageReply {
            page: PageId(page),
            copy: copy.then(|| (VectorClock::zero(3), vec![0u8; 8].into())),
            entries: Vec::new(),
        }
    }

    #[test]
    fn collector_takes_only_what_was_asked_once_per_peer_and_keeps_the_rest_in_order() {
        let mut inbox = vec![
            (1, page_reply(7, false)),
            (1, page_reply(4, false)),
            (1, log_reply()),
            (1, page_reply(4, false)), // duplicate from peer 1
            (2, page_reply(9, true)),
            (3, page_reply(4, false)), // peer 3 was never asked
        ];
        let mut owed = vec![1, 2];
        let mut got = Vec::new();
        take_replies(&mut inbox, RecAsk::Page(PageId(4)), &mut owed, &mut got);
        assert_eq!(
            got,
            [(1, page_reply(4, false))],
            "one reply, from the peer asked"
        );
        assert_eq!(owed, [2], "peer 2 still owes its reply");
        // The duplicate and the unasked reply are gone; everything that is
        // some other wait's business is still queued, in arrival order.
        assert_eq!(
            inbox,
            [
                (1, page_reply(7, false)),
                (1, log_reply()),
                (2, page_reply(9, true)),
            ]
        );

        // The late reply completes the wait; the home's and a non-home's
        // are the same kind, told apart by the copy alone.
        inbox.push((2, page_reply(4, true)));
        take_replies(&mut inbox, RecAsk::Page(PageId(4)), &mut owed, &mut got);
        assert!(owed.is_empty());
        assert_eq!(got[1], (2, page_reply(4, true)));

        // Kind and page both select: the handshake takes only log replies.
        let (mut owed, mut got) = (vec![1, 2], Vec::new());
        take_replies(&mut inbox, RecAsk::Logs, &mut owed, &mut got);
        assert_eq!(got, [(1, log_reply())]);
        assert_eq!(owed, [2]);
        assert_eq!(inbox, [(1, page_reply(7, false)), (2, page_reply(9, true))]);
    }

    #[test]
    fn a_blocked_recovery_wait_names_what_it_asked_and_who_owes_it() {
        // `wait_until`'s deadline panic prints the wait slot.
        for (ask, named) in [
            (RecAsk::Page(PageId(12)), "Page(PageId(12))"),
            (RecAsk::Logs, "Logs"),
        ] {
            let wait = WaitSlot::Recovery {
                ask,
                owed: vec![0, 3],
            };
            let shown = format!("{wait:?}");
            assert!(shown.contains(named), "{shown}");
            assert!(shown.contains("[0, 3]"), "{shown}");
        }
    }
}
