//! Log-based recovery: [`RecoverySvc`].
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
//!
//! The module owns the replay state, the inbox of recovery replies and the
//! backlog of what peers sent meanwhile, both sides of the four `Rec*`
//! kinds, and the replayed halves of a page miss, an acquire and a barrier.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dsm_page::{Interval, Page, PageId, ProcId, VectorClock};
use dsm_trace::{EventKind, RecPhase};
use hlrc::LockId;
use parking_lot::MutexGuard;

use crate::ft::ckpt;
use crate::ft::logs::{BarEntry, DiffLogEntry, MgrBarEntry, RelEntry};
use crate::msg::Payload;
use crate::runtime::home::{emit_diff_apply, serve_waiting_fetches};
use crate::runtime::node::{handle_msg, Mode, NodeShared, NodeState, WaitSlot};
use crate::runtime::process::wait_until;
use crate::stats::Breakdown;

/// One remote page being rebuilt by local home emulation.
#[derive(Debug, PartialEq)]
struct ReplayPage {
    /// The evolving copy (starts as the maximal starting copy `p0`).
    copy: Page,
    /// Versions applied so far (starts as `p0.v`).
    version: VectorClock,
    /// Collected, not-yet-applied diffs (kept in linear-extension order).
    entries: Vec<DiffLogEntry>,
}

/// Everything the replay needs, attached to the node while recovering.
#[derive(Debug, Default, PartialEq)]
struct ReplayState {
    /// When the recovery began (for the recovery-time statistic).
    started: Option<Instant>,
    /// When replay (phase 4→5 re-execution) began, for the trace span.
    replay_from: Option<Instant>,
    /// Grants to this node, keyed by our acquisition sequence number.
    rel: HashMap<u64, (ProcId, RelEntry)>,
    /// Completed barrier episodes: episode → joined timestamp.
    bar_results: HashMap<u64, VectorClock>,
    /// Emulated-home copies of remote pages.
    pages: HashMap<PageId, ReplayPage>,
    /// Diffs for our homed pages not yet applied: the replay point does not
    /// cover them yet (kept in linear-extension order).
    pending_home: Vec<DiffLogEntry>,
    /// Highest interval of OURS any collected peer record proves existed:
    /// peers only learn our interval k after the op that created it
    /// completed, so a record carrying our component `> vt[me]` during
    /// replay is proof the op at hand finished before the crash. Needed to
    /// recognize a *final* self-granted acquire (which leaves no mirrored
    /// grant record and no later logged event of our own).
    evidence_self: u32,
}

/// The recovery state of one node. All of it is volatile, and empty outside
/// a recovery.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct RecoverySvc {
    /// Set from the end of the handshake to the crash point.
    replay: Option<ReplayState>,
    /// Recovery replies deposited while recovering.
    rec_inbox: Vec<(ProcId, Payload)>,
    /// Non-recovery messages deferred while recovering.
    backlog: Vec<(ProcId, Payload)>,
}

impl RecoverySvc {
    /// Fail-stop: everything is lost, and a restart restores nothing —
    /// [`run_recovery`] builds the replay state from the peers' replies.
    pub(crate) fn fail_stop(&mut self) {
        *self = Self::default();
    }

    /// Is the node re-executing from its checkpoint towards the crash point?
    pub(crate) fn replaying(&self) -> bool {
        self.replay.is_some()
    }

    /// A message that arrived in `Recovering` mode: recovery replies go to
    /// the inbox the collector reads, everything else waits for `go_live`.
    pub(crate) fn defer(&mut self, from: ProcId, payload: Payload) {
        match payload {
            Payload::RecLogReply { .. } | Payload::RecPageReply { .. } => {
                self.rec_inbox.push((from, payload))
            }
            other => self.backlog.push((from, other)),
        }
    }
}

/// Sort key: a linear extension of the happens-before partial order on
/// diffs (if `a.t <= b.t` pointwise with `a != b`, then `sum(a) < sum(b)`).
fn linear_key(e: &DiffLogEntry) -> (u64, usize, u32) {
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
fn collect_replies(
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
        take_replies(&mut st.rec.rec_inbox, *ask, owed, &mut got);
        owed.is_empty().then_some(())
    });
    st.wait = WaitSlot::None;
    got
}

/// The module's slice of the message kinds in normal mode: the two requests
/// a recovering peer sends. Replies to *our* recovery arriving after we
/// already went live are stale duplicates.
pub(crate) fn handle(st: &mut NodeState, from: ProcId, payload: Payload) {
    match payload {
        Payload::RecLogReq { homed } => {
            let reply = build_rec_log_reply(st, from, &homed);
            st.send(from, reply);
        }
        Payload::RecPageReq { page, tckp } => serve_rec_page(st, from, page, tckp),
        Payload::RecLogReply { .. } | Payload::RecPageReply { .. } => {}
        other => unreachable!("{} is not a recovery kind", other.kind()),
    }
}

/// Build the reply to recovering peer `r`'s log-collection handshake; for
/// the locks it manages this is also the chain reset (see
/// [`crate::runtime::sync::SyncSvc::chain_report`]).
///
/// `homed` is the handshake's `(page, p0.v[me])` list: the reply carries our
/// logged diffs for those pages that the recovering home's restored copies do
/// not hold. It is read from the diff log alone — a page the recovering node
/// homes need not be allocated here yet.
fn build_rec_log_reply(st: &mut NodeState, r: ProcId, homed: &[(PageId, u32)]) -> Payload {
    let ft = st.ft.state.as_ref().expect("recovery handshake without FT");
    let (lock_chains, gen_floor) = st.sync.chain_report(r, &ft.logs.rel);
    Payload::RecLogReply {
        wn: ft.logs.wn.clone(),
        rel_for_you: ft.logs.rel[r].clone(),
        acq_mirror: ft.logs.acq[r].clone(),
        bar: ft.logs.bar.clone(),
        bar_mgr: ft.logs.bar_mgr.clone(),
        lock_chains,
        gen_floor,
        applied_of_you: st.pt.home_store().newest_applied_of(r),
        diffs: homed
            .iter()
            .flat_map(|&(page, have)| ft.logs.diffs_after(page, have))
            .collect(),
    }
}

/// Serve a replayed page: our logged diffs for it and, if we are its home,
/// the maximal starting copy — the newest retained checkpointed copy whose
/// version the requester's restart checkpoint covers, falling back to the
/// initial zero page. Our own diffs the copy already holds are left out.
fn serve_rec_page(st: &mut NodeState, from: ProcId, page: PageId, tckp: VectorClock) {
    let ft = st.ft.state.as_ref().expect("recovery without FT");
    let copy = st.pt.is_home(page).then(|| {
        let covered = ft
            .retained
            .iter()
            .rev()
            .find(|rc| rc.versions.get(&page).is_some_and(|v| tckp.covers(v)));
        match covered {
            Some(rc) => {
                let blob = ckpt::load_blob(&ft.store, rc.seq);
                let (_, v, bytes) = blob
                    .home_pages
                    .into_iter()
                    .find(|e| e.0 == page)
                    .expect("a blob holds every page its index names");
                (v, Arc::from(bytes))
            }
            None => (VectorClock::zero(st.n), vec![0u8; st.pt.page_size()].into()),
        }
    });
    let have = copy.as_ref().map_or(0, |(v, _)| v.get(st.me));
    let entries = ft.logs.diffs_after(page, have).collect();
    let reply = Payload::RecPageReply {
        page,
        copy,
        entries,
    };
    st.send(from, reply);
}

/// Apply the pending homed-page diffs that happened before the replay point
/// (`vt` covers their timestamp) — the writes a read replayed next may see,
/// and no others: a diff made after something replay has yet to reach, a
/// read included, must not land ahead of it (docs/PROTOCOL.md, Recovery).
pub(crate) fn apply_pending_home(st: &mut NodeState) {
    apply_pending_home_where(st, |vt, t| vt.covers(t));
}

/// Apply the pending homed-page diffs `eligible(vt, diff.T)` admits, in
/// their order — a linear extension of happens-before, which preserves
/// same-word ordering.
fn apply_pending_home_where(
    st: &mut NodeState,
    eligible: impl Fn(&VectorClock, &VectorClock) -> bool,
) {
    let Some(replay) = st.rec.replay.as_mut() else {
        return;
    };
    if replay.pending_home.is_empty() {
        return;
    }
    let mut rest = Vec::with_capacity(replay.pending_home.len());
    for e in replay.pending_home.drain(..) {
        if eligible(&st.vt, &e.t) {
            if st.pt.home_apply_diff(&e.diff) {
                emit_diff_apply(&st.tracer, &e.diff);
            }
        } else {
            rest.push(e);
        }
    }
    replay.pending_home = rest;
    serve_waiting_fetches(st);
}

/// Recovery phase `phase`, begun at `t0`, is over: its histogram sample and
/// its trace span.
fn phase_done(st: &mut NodeState, phase: RecPhase, t0: Instant) {
    let hist = match phase {
        RecPhase::Restore => &mut st.hists.rec_restore,
        RecPhase::LogCollect => &mut st.hists.rec_log_collect,
        RecPhase::Replay => &mut st.hists.rec_replay,
    };
    hist.record(t0.elapsed().as_nanos() as u64);
    st.tracer.emit_span(EventKind::RecoveryPhase { phase }, t0);
}

/// Restore node state from the last checkpoint, collect peer logs, rebuild
/// homed pages, and install the replay state. Returns the application's
/// `(step, encoded state)` to resume from.
pub(crate) fn run_recovery(shared: &Arc<NodeShared>) -> (u64, Vec<u8>) {
    let me = shared.me;
    let n = shared.n;

    // ---- Phase 1: restore from the restart checkpoint ----------------------
    let t_recovery = Instant::now();
    let mut st = shared.state.lock();

    let store = Arc::clone(&st.ft.state.as_ref().expect("recovery requires FT").store);
    let (image, window) = ckpt::restart_image(&store, n);
    st.restart_from(&image, window);

    let homed = st.pt.homed_pages();

    phase_done(&mut st, RecPhase::Restore, t_recovery);

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
    let t_collect = Instant::now();
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
            let (proc, seq) = (peer, e.seq);
            st.wn_table.insert_parts(Interval { proc, seq }, e.pages);
        }
        // Manager rebuild: chains for locks we manage, and the chain info
        // for the grants we issued (`acq_mirror`).
        st.sync
            .absorb_chain_report(peer, &acq_mirror, (lock_chains, gen_floor));
        let logs = &mut st.ft.state.as_mut().unwrap().logs;
        // The peer's rel_log[me] is simultaneously our acquire replay input
        // and the mirror restoring our acq_log.
        logs.acq[peer] = rel_for_you.clone();
        for e in rel_for_you {
            replay.evidence_self = replay.evidence_self.max(e.t_after.get(me));
            replay.rel.insert(e.acq_seq, (peer, e));
        }
        // acq_mirror restores our rel_log[peer]. Its timestamps also carry
        // our own clock component: a grant we gave after releasing interval
        // k proves interval k completed.
        for e in &acq_mirror {
            replay.evidence_self = replay.evidence_self.max(e.t_after.get(me));
        }
        logs.rel[peer] = acq_mirror;
        let mut crossed = |episode, result_vt: &VectorClock| {
            replay.evidence_self = replay.evidence_self.max(result_vt.get(me));
            replay.bar_results.insert(episode, result_vt.clone());
        };
        bar.iter().for_each(|e| crossed(e.episode, &e.result_vt));
        bar_mgr
            .iter()
            .for_each(|e| crossed(e.episode, &e.result_vt));
    }
    st.sync.restore_own_chains();
    // Rebuild the barrier-manager mirror for future recoveries of peers.
    if me == 0 {
        let logs = &mut st.ft.state.as_mut().unwrap().logs;
        for (&episode, vt) in &replay.bar_results {
            logs.log_bar_mgr(MgrBarEntry {
                episode,
                arrival_vts: vec![VectorClock::zero(n); n],
                result_vt: vt.clone(),
            });
        }
        logs.bar_mgr.sort_by_key(|e| e.episode);
    }

    // ---- Phase 4: restore homed pages -----------------------------------
    // From the diffs the handshake brought; nothing more is asked for.
    entries.sort_by_key(linear_key);
    for e in &entries {
        replay.evidence_self = replay.evidence_self.max(e.t.get(me));
    }
    replay.pending_home = entries;
    replay.started = Some(t_recovery);
    replay.replay_from = Some(Instant::now());
    st.rec.replay = Some(replay);
    apply_pending_home(&mut st);
    phase_done(&mut st, RecPhase::LogCollect, t_collect);

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
    let replay = st.rec.replay.take().expect("go_live without replay state");
    if let (Some(t0), Some(ft)) = (replay.started, st.ft.state.as_mut()) {
        ft.report.recovery_time += t0.elapsed();
    }
    if let Some(t0) = replay.replay_from {
        phase_done(st, RecPhase::Replay, t0);
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
    if st.me == 0 {
        let last = st.sync.bar_episode().checked_sub(1);
        let last = last.and_then(|ep| replay.bar_results.get(&ep));
        st.sync.restore_barrier_manager(last, &st.wn_table);
    }
    st.set_mode(Mode::Normal);
    let backlog = std::mem::take(&mut st.rec.backlog);
    for (from, payload) in backlog {
        handle_msg(st, from, payload);
    }
}

/// A replayed miss on remote `page`: build the emulated-home copy and
/// install it.
pub(crate) fn replay_materialize(
    shared: &NodeShared,
    st: &mut MutexGuard<'_, NodeState>,
    page: PageId,
) {
    let me = st.me;
    if !st.rec.replay.as_ref().unwrap().pages.contains_key(&page) {
        // One round: every peer's diff log for the page, and with the
        // home's the maximal starting copy.
        let tckp = st.ft.state.as_ref().unwrap().last_ckpt_vt.clone();
        let peers: Vec<usize> = (0..st.n).filter(|&p| p != me).collect();
        for &p in &peers {
            let tckp = tckp.clone();
            st.send(p, Payload::RecPageReq { page, tckp });
        }
        let (mut base, mut entries) = (None, Vec::new());
        for (_, payload) in collect_replies(shared, st, RecAsk::Page(page), &peers) {
            let Payload::RecPageReply {
                copy, entries: es, ..
            } = payload
            else {
                unreachable!("collected a reply that was not asked for")
            };
            base = base.or(copy);
            entries.extend(es);
        }
        let (version, bytes) = base.expect("the home's reply carries the starting copy");
        entries.sort_by_key(linear_key);
        let rp = ReplayPage {
            copy: Page::from_shared(bytes),
            version,
            entries,
        };
        st.rec.replay.as_mut().unwrap().pages.insert(page, rp);
        st.ft.state.as_mut().unwrap().report.replayed_pages += 1;
    }
    let st = &mut **st;
    let rp = st
        .rec
        .replay
        .as_mut()
        .unwrap()
        .pages
        .get_mut(&page)
        .unwrap();
    // Our own logged diffs participate too: the pre-crash fetched copy
    // included them, and replay keeps regenerating them (logged at every
    // replayed interval end). Merge those the copy does not have yet —
    // at the first materialization and at every re-materialization
    // after an invalidation — so that it reproduces our own writes.
    let logs = &st.ft.state.as_ref().unwrap().logs;
    let before = rp.entries.len();
    for e in logs.diffs_after(page, rp.version.get(me)) {
        if !rp.entries[..before]
            .iter()
            .any(|x| x.diff.interval == e.diff.interval)
        {
            rp.entries.push(e);
        }
    }
    if rp.entries.len() > before {
        rp.entries.sort_by_key(linear_key);
    }
    // Apply every diff that happened before our current replay point.
    let mut rest = Vec::with_capacity(rp.entries.len());
    for e in rp.entries.drain(..) {
        let writer = e.diff.interval.proc;
        if st.vt.covers(&e.t) {
            if e.diff.interval.seq > rp.version.get(writer) {
                e.diff.apply(&mut rp.copy);
                rp.version.set(writer, e.diff.interval.seq);
            }
        } else {
            rest.push(e);
        }
    }
    rp.entries = rest;
    // Share the emulated-home copy straight into the page table: later
    // replayed diffs copy-on-write `rp.copy`, so the installed buffer
    // stays a consistent snapshot.
    st.pt.install_fetch(page, rp.copy.share(), &rp.version);
}

/// Invalidate what the notices of the intervals between `pre` and the
/// replayed timestamp name.
fn apply_replay_invalidations(st: &mut NodeState, pre: &VectorClock) {
    for iv in pre.missing_from(&st.vt) {
        if let Some(pages) = st.wn_table.get(iv) {
            for &pg in pages {
                st.pt.invalidate(pg, iv.proc, iv.seq);
            }
        }
    }
}

/// Replay the acquire of `lock` from the collected logs; `false` at the
/// crash point.
pub(crate) fn try_replay_acquire(st: &mut NodeState, lock: LockId, bd: &mut Breakdown) -> bool {
    let acq_seq = st.sync.acq_seq_next();
    let replay = st.rec.replay.as_ref().unwrap();
    match replay.rel.get(&acq_seq).cloned() {
        Some((granter, entry)) => {
            assert_eq!(
                entry.lock, lock,
                "replay acquire lock mismatch at acq_seq {acq_seq}"
            );
            st.close_interval(bd);
            let pre = st.vt.clone();
            st.vt.join(&entry.t_after);
            apply_replay_invalidations(st, &pre);
            st.sync.replayed_acquire(lock, Some((entry.gen, granter)));
        }
        None => {
            // No peer logged a grant for this acquisition. Either the
            // acquire never completed (the crash point) or it was a
            // *self-grant* — we were the chain tail and granted
            // ourselves, and the grant record died with us. Evidence of
            // any later logged event of ours proves the acquire
            // completed, and since no peer granted it, it must have
            // been a self-grant: replaying one is purely local (the
            // grant joins our own release timestamp — a no-op — and
            // carries no notices).
            let later_rel = replay.rel.keys().any(|&s| s > acq_seq);
            let crossed = st.sync.bar_episode();
            let later_bar = replay.bar_results.keys().any(|&e| e >= crossed);
            // A grant we *gave* (mirrored in a peer's acq_log) or a
            // peer diff whose timestamp carries our component beyond
            // the replayed clock is equally conclusive: peers can only
            // have seen interval vt[me]+1 if the op that created it —
            // at or after this acquire — completed before the crash.
            let later_iv = replay.evidence_self > st.vt.get(st.me);
            if !(later_rel || later_bar || later_iv) {
                return false;
            }
            st.close_interval(bd);
            st.sync.replayed_acquire(lock, None);
        }
    }
    apply_pending_home(st);
    true
}

/// Replay the barrier from the collected logs; `false` at the crash point.
pub(crate) fn try_replay_barrier(st: &mut NodeState, bd: &mut Breakdown) -> bool {
    let episode = st.sync.bar_episode();
    let replay = st.rec.replay.as_ref().unwrap();
    let Some(result) = replay.bar_results.get(&episode).cloned() else {
        return false;
    };
    st.close_interval(bd);
    let arrive_vt = st.vt.clone();
    st.ft.arrived_at_barrier(arrive_vt.get(st.me));
    st.wn_since_barrier.clear();
    st.vt.join(&result);
    apply_replay_invalidations(st, &arrive_vt);
    let result_vt = st.vt.clone();
    if let Some(logs) = st.ft.logs() {
        logs.log_bar(BarEntry {
            episode,
            arrive_vt,
            result_vt,
        });
    }
    st.sync.crossed();
    apply_pending_home(st);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::node::tests::{diff_of, gated, only_payload, page_of, test_state};
    use std::time::Duration;

    impl RecoverySvc {
        /// A node in replay with nothing collected.
        pub(crate) fn replaying_nothing() -> Self {
            RecoverySvc {
                replay: Some(ReplayState::default()),
                ..Self::default()
            }
        }
    }

    #[test]
    fn a_crash_forgets_the_replay_and_both_queues() {
        let mut rec = RecoverySvc::replaying_nothing();
        rec.defer(0, log_reply());
        rec.defer(0, Payload::DiffAck { seq: 1 });
        assert!(rec.replaying());
        assert_eq!((rec.rec_inbox.len(), rec.backlog.len()), (1, 1));
        rec.fail_stop();
        assert_eq!(rec, RecoverySvc::default());
    }

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

    fn logged_seqs(entries: &[DiffLogEntry]) -> Vec<(u32, u32)> {
        (entries.iter())
            .map(|e| (e.diff.page.0, e.diff.interval.seq))
            .collect()
    }

    #[test]
    fn the_handshake_reply_carries_the_diffs_the_restored_copies_lack_and_needs_no_page() {
        // Node 1 has allocated nothing yet; its restored log knows pages
        // 4, 6 and 9.
        let (mut st, eps) = test_state(1, 3, true);
        let logs = st.ft.logs().unwrap();
        for (seq, pages) in [(1, vec![6]), (2, vec![4]), (3, vec![4, 9]), (5, vec![4])] {
            let diffs: Vec<_> = pages.iter().map(|&p| diff_of(p, 1, seq)).collect();
            let pages = pages.iter().map(|&p| PageId(p)).collect();
            logs.log_interval(seq, pages, &gated(3, 1, seq), &diffs);
        }
        // Node 0 homes 4, 7 and 9; its copy of 4 holds our interval 2.
        let homed = vec![(PageId(9), 0), (PageId(4), 2), (PageId(7), 0)];
        handle_msg(&mut st, 0, Payload::RecLogReq { homed });
        assert!(
            st.pending_unalloc.is_empty(),
            "the handshake must never wait for an allocation"
        );
        let Payload::RecLogReply { diffs, .. } = only_payload(&eps[0]) else {
            panic!("not a handshake reply")
        };
        // Request order, then log order; nothing at or below `p0.v`, and
        // nothing for a page that was not named.
        assert_eq!(logged_seqs(&diffs), [(9, 3), (4, 3), (4, 5)]);
        assert!(diffs
            .iter()
            .all(|e| e.t == gated(3, 1, e.diff.interval.seq)));
        // At `p0.v` zero the whole log for the page comes.
        handle_msg(
            &mut st,
            0,
            Payload::RecLogReq {
                homed: vec![(PageId(4), 0)],
            },
        );
        let Payload::RecLogReply { diffs, .. } = only_payload(&eps[0]) else {
            panic!("not a handshake reply")
        };
        assert_eq!(logged_seqs(&diffs), [(4, 2), (4, 3), (4, 5)]);
    }

    #[test]
    fn a_replayed_barrier_sends_the_managers_batch_as_a_diff_batch() {
        // Node 1 of 2 replays episode 0 having written page 0, node 0's:
        // no arrival goes out for the batch to ride.
        let (mut st, eps) = test_state(1, 2, true);
        st.pt.add_page(0);
        st.pt.install(PageId(0), page_of(0), &VectorClock::zero(2));
        st.pt.write(PageId(0), 8, &[1]);
        let mut replay = ReplayState::default();
        replay.bar_results.insert(0, gated(2, 1, 1));
        st.rec.replay = Some(replay);
        assert!(try_replay_barrier(&mut st, &mut Breakdown::default()));
        match only_payload(&eps[0]) {
            Payload::DiffBatch { seq: 0, diffs } => assert_eq!(diffs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st.diff_batches_carried, 0);
    }

    #[test]
    fn a_replayed_page_gets_the_copy_from_its_home_alone_and_diffs_from_everyone() {
        let (mut st, eps) = test_state(1, 3, true);
        st.pt.add_page(1); // page 0: homed here
        st.pt.add_page(2); // page 1: remote
        let write_both = |st: &mut NodeState, byte: u8| {
            st.pt.install(PageId(1), page_of(0), &VectorClock::zero(3));
            st.pt.write(PageId(0), 8, &[byte]);
            st.pt.write(PageId(1), 8, &[byte]);
            st.close_interval(&mut Breakdown::default());
        };
        write_both(&mut st, 1);
        crate::ft::take_checkpoint(&mut st, 1, Vec::new(), &mut Breakdown::default());
        write_both(&mut st, 2);
        while eps[1].recv_any(Duration::ZERO).is_some() {} // the diff batches

        let tckp = gated(3, 1, 1);
        let ask = |st: &mut NodeState, page| {
            let tckp = tckp.clone();
            handle_msg(st, 0, Payload::RecPageReq { page, tckp });
            match only_payload(&eps[0]) {
                Payload::RecPageReply {
                    page: p,
                    copy,
                    entries,
                } if p == page => (copy, logged_seqs(&entries)),
                other => panic!("unexpected {other:?}"),
            }
        };
        // Home: the checkpointed copy, and only the diff it does not hold.
        let (copy, entries) = ask(&mut st, PageId(0));
        let (version, bytes) = copy.expect("the home sends the starting copy");
        assert_eq!((version, bytes[8]), (gated(3, 1, 1), 1));
        assert_eq!(entries, [(0, 2)]);
        // Not the home: no copy, the whole log for the page.
        let (copy, entries) = ask(&mut st, PageId(1));
        assert!(copy.is_none());
        assert_eq!(entries, [(1, 1), (1, 2)]);
    }
}
