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
//!    restoring our own release logs (`acq_log[us]`), its barrier log,
//!    lock-chain generations (manager rebuild), its diff-log entries for
//!    our homed pages that the restored copies do not hold, and the pages
//!    it homes that we reported using (its wants of ours, which the
//!    handshake drops);
//! 3. fully restores its homed pages by applying those diffs in a linear
//!    extension of happens-before, each once the replay point's timestamp
//!    covers its own (what is left at the crash point is concurrent with
//!    the whole replay and lands then);
//! 4. re-executes the application from the checkpointed step, replaying
//!    acquires and barriers from the collected logs and page misses by
//!    *local emulation of a home*, which builds its copies in rounds of one
//!    `RecPageReq` to every peer: the home of each page asked answers with
//!    the maximal starting copy, everyone with their partially ordered
//!    diffs. The first round, before the replay, asks for every page the
//!    handshake named; a replayed miss on any other page is a round of its
//!    own;
//! 5. switches to live execution at the first operation with no log record
//!    (the crash point), processing the backlog of deferred peer requests.
//!
//! Recovery traffic is therefore 2 (n − 1) (1 + W) messages for W rounds
//! (`FtReport::rec_rounds`), whatever the number of pages homed: at most one
//! for the named pages and one per replayed remote page outside them. A
//! round's answers are what a later one would get — the starting copies
//! come from the homes' retained checkpoints and the diffs from the
//! writers' logs, neither of which can be trimmed while the victim's restart
//! checkpoint is its stamp — so only the time of asking moves.
//!
//! The handshake and every round wait in the node's wait slot as an acquire
//! or a barrier does: [`NodeState::block_on`] opens the wait and sends one
//! request to every peer, and each reply is deposited as it comes — a
//! round's must name the pages asked, in the order asked. The handshake's
//! caller takes the replies once every peer has answered
//! ([`crate::runtime::node::WaitSlot::take`]); a round's last reply
//! completes it where [`defer`] deposits it ([`close_round`]).
//!
//! A replayed acquire or barrier is a live one whose answer the logs give:
//! it builds its request as live, [`NodeState::block_on`] parks the logged
//! grant or release in the wait slot instead of sending it
//! ([`logged_answer`]), and the operation applies it as it applies one that
//! came over the wire. What only a live operation does after the apply, and
//! what only a replayed one does, the mode decides in one place
//! ([`synced`]). A replayed page miss is a live one too: it waits on its
//! page's fetch entry, and the emulated home answers the request with a
//! `PageReply` that the live install takes ([`fetch_missed`]), after it has
//! checked its copy against the page's `needed` as a real home does.
//!
//! The module owns the replay state and the backlog of what peers sent
//! meanwhile, both sides of the four `Rec*` kinds, the logged answers and
//! the emulated home.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use dsm_page::{Interval, Page, PageId, ProcId, VectorClock};
use dsm_trace::{EventKind, RecPhase};
use hlrc::{LockId, PageBody};

use crate::ft::ckpt;
use crate::ft::logs::{BarEntry, DiffLogEntry, RelEntry};
use crate::msg::{Payload, RecPage};
use crate::runtime::fetch;
use crate::runtime::home::{emit_diff_apply, serve_waiting_fetches};
use crate::runtime::node::{handle_msg, handle_peer_restart, Mode, NodeShared, NodeState};
use crate::runtime::process::wait_until;

/// One remote page being rebuilt by local home emulation.
#[derive(Debug, PartialEq)]
struct ReplayPage {
    /// The evolving copy (starts as the maximal starting copy `p0`).
    copy: Page,
    /// Versions applied so far (starts as `p0.v`).
    version: VectorClock,
    /// Collected, not-yet-applied diffs, put in linear-extension order
    /// before each answer applies what it can.
    entries: Vec<DiffLogEntry>,
    /// Has the replay installed the page yet? A page the handshake named is
    /// built before the replay reads it, or whether it does.
    installed: bool,
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
    bar_results: BTreeMap<u64, VectorClock>,
    /// Emulated-home copies of remote pages.
    pages: HashMap<PageId, ReplayPage>,
    /// The replayed miss the open round was opened for, `(page, req_id)`:
    /// its copy is answered once the round has built it.
    owed: Option<(PageId, u64)>,
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
}

/// A message that arrived in `Recovering` mode: a recovery reply answers
/// the request the recovery waits on, deposited as a grant is
/// ([`crate::runtime::sync::handle`]); everything else waits for
/// [`go_live`]. While replaying, a recovery reply can only answer a round,
/// and the last one completes it ([`close_round`]).
///
/// # Panics
/// On a recovery reply no open request is owed — a second reply from a
/// peer, or one to a round that is not the open one: rounds run one after
/// another, every peer is asked once per round, and the link delivers each
/// reply once.
pub(crate) fn defer(st: &mut NodeState, from: ProcId, payload: Payload) {
    match payload {
        Payload::RecLogReply { .. } | Payload::RecPageReply { .. } => {
            if let Some(reply) = st.wait.deposit(from, payload) {
                let (me, kind, wait) = (st.me, reply.kind(), &st.wait);
                panic!("node {me}: {kind} from {from} is owed to no open request (wait={wait:?})");
            }
            if st.rec.replaying() {
                if let Some(replies) = st.wait.take() {
                    close_round(st, replies);
                }
            }
        }
        other => st.rec.backlog.push((from, other)),
    }
}

/// Sort key: a linear extension of the happens-before partial order on
/// diffs (if `a.t <= b.t` pointwise with `a != b`, then `sum(a) < sum(b)`).
fn linear_key(e: &DiffLogEntry) -> (u64, usize, u32) {
    let sum: u64 = e.t.as_slice().iter().map(|&x| x as u64).sum();
    (sum, e.diff.interval.proc, e.diff.interval.seq)
}

/// The module's slice of the message kinds in normal mode: the two requests
/// a recovering peer sends. A `RecLogReq` is how a survivor learns that its
/// sender restarted: what that asks of it goes out ahead of the reply.
/// A reply to *our* recovery cannot come after we went live: the recovery
/// waited for one from every peer, and each answers once.
pub(crate) fn handle(st: &mut NodeState, from: ProcId, payload: Payload) {
    match payload {
        Payload::RecLogReq { homed } => {
            let wanted = handle_peer_restart(st, from);
            let reply = build_rec_log_reply(st, from, &homed, wanted);
            st.send(from, reply);
        }
        Payload::RecPageReq { pages, tckp } => serve_rec_pages(st, from, pages, &tckp),
        other => unreachable!("{} from {from} after going live", other.kind()),
    }
}

/// Build the reply to recovering peer `r`'s log-collection handshake; for
/// the locks it manages this is also the chain reset (see
/// [`crate::runtime::sync::SyncSvc::chain_report`]).
///
/// `homed` is the handshake's `(page, p0.v[me])` list: the reply carries our
/// logged diffs for those pages that the recovering home's restored copies do
/// not hold. It is read from the diff log alone — a page the recovering node
/// homes need not be allocated here yet. `wanted` are the pages of ours `r`
/// reported using, which the reply names.
fn build_rec_log_reply(
    st: &mut NodeState,
    r: ProcId,
    homed: &[(PageId, u32)],
    wanted: Vec<PageId>,
) -> Payload {
    let ft = st.ft.state.as_mut().expect("recovery handshake without FT");
    let (lock_chains, gen_floor) = st.sync.chain_report(r, &ft.logs.rel);
    let diffs = homed
        .iter()
        .flat_map(|&(page, have)| ft.diffs_after(page, have));
    Payload::RecLogReply {
        diffs: diffs.collect(),
        wn: ft.wn_log(),
        rel_for_you: ft.logs.rel[r].clone(),
        acq_mirror: ft.logs.acq[r].clone(),
        bar: ft.logs.bar.clone(),
        lock_chains,
        gen_floor,
        applied_of_you: st
            .pt
            .home_store()
            .newest_applied_of(r)
            .max(st.fetch.seen_of(r)),
        wanted,
    }
}

/// Serve a round of replayed pages: per page, our logged diffs for it and,
/// if we are its home, the maximal starting copy — the newest retained
/// checkpointed copy whose version the requester's restart checkpoint
/// covers, falling back to the initial zero page. Our own diffs the copy
/// already holds are left out. Each retained checkpoint the round reads
/// from is loaded once.
fn serve_rec_pages(st: &mut NodeState, from: ProcId, pages: Vec<PageId>, tckp: &VectorClock) {
    let ft = st.ft.state.as_mut().expect("recovery without FT");
    let mut by_ckpt: BTreeMap<u64, Vec<PageId>> = BTreeMap::new();
    for &page in pages.iter().filter(|&&p| st.pt.is_home(p)) {
        let covers =
            |rc: &&ckpt::RetainedCkpt| rc.versions.get(&page).is_some_and(|v| tckp.covers(v));
        if let Some(rc) = ft.retained.iter().rev().find(covers) {
            by_ckpt.entry(rc.seq).or_default().push(page);
        }
    }
    let mut copies = HashMap::new();
    for (seq, named) in by_ckpt {
        let blob = ckpt::load_blob(&ft.store, seq);
        let kept = blob.home_pages.into_iter().filter(|e| named.contains(&e.0));
        copies.extend(kept.map(|(page, v, bytes)| (page, (v, Arc::from(bytes)))));
        let held = named.iter().all(|p| copies.contains_key(p));
        assert!(held, "a blob holds every page its index names");
    }
    let zero = (
        VectorClock::zero(st.n),
        st.pt.home_store().zero_page().share(),
    );
    let pages = pages.into_iter().map(|page| {
        let copy =
            (st.pt.is_home(page)).then(|| copies.remove(&page).unwrap_or_else(|| zero.clone()));
        let have = copy.as_ref().map_or(0, |(v, _)| v.get(st.me));
        let entries = ft.diffs_after(page, have);
        RecPage {
            page,
            copy,
            entries,
        }
    });
    let reply = Payload::RecPageReply {
        pages: pages.collect(),
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

    let homed: Vec<PageId> = st.pt.homed_pages().collect();

    phase_done(&mut st, RecPhase::Restore, t_recovery);

    // ---- Phase 2: handshake ---------------------------------------------
    // Each peer is told what of its own the restored homed copies hold, so
    // its one reply brings exactly the diffs they lack.
    let handshake = (0..n).filter(|&p| p != me).map(|p| {
        let p0v = |&pg| (pg, st.pt.home_version(pg).get(p));
        let homed = homed.iter().map(p0v).collect();
        (p, Payload::RecLogReq { homed })
    });
    let handshake = handshake.collect();

    // ---- Phase 3: collect and merge log replies -----------------------------
    // A reply that never comes ends in `wait_until`'s deadline panic, as any
    // other blocked operation does, naming what was asked and who owes it.
    let t_collect = Instant::now();
    st.block_on(handshake);
    let (replies, wait) = wait_until(shared, &mut st, |st| st.wait.take());
    wait.close(shared, &mut st);
    let (mut replay, mut entries, wanted) = merge_log_replies(&mut st, replies);

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

    // One round for every page the peers named: those the replay is about
    // to read, built before it does. Its last reply completes it.
    if !wanted.is_empty() {
        open_round(&mut st, wanted);
        let ((), wait) = wait_until(shared, &mut st, |st| (!st.wait_opened()).then_some(()));
        wait.close(shared, &mut st);
    }
    phase_done(&mut st, RecPhase::LogCollect, t_collect);

    (image.step, image.app_state)
}

/// Merge every peer's handshake reply: the notices into the table, the
/// chain reports into the lock managers, the grant logs back into ours, and
/// the grants, barrier results and evidence into a new replay state. Returns
/// it with the collected diffs for our homed pages and, ascending, the pages
/// the peers' wants named (each home names its own).
fn merge_log_replies(
    st: &mut NodeState,
    replies: Vec<(ProcId, Payload)>,
) -> (ReplayState, Vec<DiffLogEntry>, Vec<PageId>) {
    let me = st.me;
    let mut replay = ReplayState::default();
    let mut entries: Vec<DiffLogEntry> = Vec::new();
    let mut wanted = Vec::new();
    for (peer, payload) in replies {
        let Payload::RecLogReply {
            wn,
            rel_for_you,
            acq_mirror,
            bar,
            lock_chains,
            gen_floor,
            applied_of_you,
            diffs,
            wanted: named,
        } = payload
        else {
            unreachable!("collected a reply that was not asked for")
        };
        entries.extend(diffs);
        wanted.extend(named);
        // A home that applied our interval k saw it flushed: without this a
        // final self-granted acquire whose only witness is a remote home
        // goes live and runs interval k a second time — the home drops the
        // second diff by version, and we would keep words it does not have.
        // Like the timestamps below it proves only that interval k existed
        // (a home sets `p.v[me] = k` by applying a diff our closed interval
        // k made), which one page is enough for; replay re-sends the diffs
        // of every interval up to k whether or not they had arrived. A
        // reader that installed a copy of one of our pages at `v[me] = k`
        // proves it too, and holds k's words: a tenure that wrote only our
        // own pages, released with no one waiting and then fetched, would
        // otherwise run again after the reader had counted it.
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
        for e in bar {
            replay.evidence_self = replay.evidence_self.max(e.result_vt.get(me));
            replay.bar_results.insert(e.episode, e.result_vt);
        }
    }
    st.sync.restore_own_chains();
    // Every episode a peer logged waited for our arrival, and the replay
    // crosses those we had not: the collected results are our barrier log,
    // for future recoveries of peers.
    let bar = replay.bar_results.iter();
    st.ft.state.as_mut().unwrap().logs.bar = bar
        .map(|(&episode, vt)| BarEntry {
            episode,
            result_vt: vt.clone(),
        })
        .collect();
    wanted.sort_unstable();
    (replay, entries, wanted)
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
        let unused = replay.pages.values().filter(|rp| !rp.installed);
        ft.report.batched_unused += unused.count() as u64;
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

/// One round of home emulation: ask every peer for `pages` (ascending) at
/// once — each peer's diff log for them, and with the home's the maximal
/// starting copy. The request parks in the wait slot
/// ([`NodeState::block_on`]); the last reply completes the round
/// ([`close_round`]).
fn open_round(st: &mut NodeState, pages: Vec<PageId>) {
    let me = st.me;
    let tckp = &st.ft.state.as_ref().unwrap().stamps[me].tckp;
    let round = (0..st.n).filter(|&p| p != me).map(|p| {
        let (pages, tckp) = (pages.clone(), tckp.clone());
        (p, Payload::RecPageReq { pages, tckp })
    });
    st.block_on(round.collect());
}

/// Every peer has answered the open round: keep the copies the answers
/// build for the replay to install, and answer the replayed miss the round
/// was opened for.
fn close_round(st: &mut NodeState, replies: Vec<(ProcId, Payload)>) {
    let mut built: BTreeMap<PageId, (Option<_>, Vec<_>)> = BTreeMap::new();
    for (_, payload) in replies {
        let Payload::RecPageReply { pages } = payload else {
            unreachable!("collected a reply that was not asked for")
        };
        for rp in pages {
            let (base, entries) = built.entry(rp.page).or_default();
            *base = base.take().or(rp.copy);
            entries.extend(rp.entries);
        }
    }
    let replay = st.rec.replay.as_mut().unwrap();
    for (page, (base, entries)) in built {
        let (version, bytes) = base.expect("the home's reply carries the starting copy");
        let rp = ReplayPage {
            copy: Page::from_shared(bytes),
            version,
            entries,
            installed: false,
        };
        replay.pages.insert(page, rp);
    }
    st.ft.state.as_mut().unwrap().report.rec_rounds += 1;
    if let Some((page, req_id)) = replay.owed.take() {
        answer_miss(st, page, req_id);
    }
}

/// A miss on remote `page` that no fetch in flight covers, decided by the
/// mode. A live one asks the page's home, with the neighbours prefetch
/// left out ([`fetch::fetch_with_neighbours`]). A replayed one tracks the
/// page alone as in flight ([`fetch::track_alone`]) — a round would build
/// and ship the neighbour run whether the replay reads it or not — and the
/// emulated home answers it: at once if the page's copy is built, else
/// when the round this opens for the page completes.
pub(crate) fn fetch_missed(st: &mut NodeState, page: PageId) {
    if !st.rec.replaying() {
        return fetch::fetch_with_neighbours(st, page);
    }
    let req_id = fetch::track_alone(st, page);
    let replay = st.rec.replay.as_mut().unwrap();
    if replay.pages.contains_key(&page) {
        answer_miss(st, page, req_id);
    } else {
        replay.owed = Some((page, req_id));
        open_round(st, vec![page]);
    }
}

/// The emulated home answers the replayed miss on remote `page`, asked
/// under `req_id`, as a home answers a `PageReq`: with a `PageReply` of its
/// copy, which the live install takes ([`fetch::handle`]). The copy holds
/// every collected diff the replay point covers.
///
/// # Panics
/// When the copy does not cover the page's `needed`, which a real home
/// waits for: the install would refuse it, and the replay would read a
/// page that misses a write it must see.
fn answer_miss(st: &mut NodeState, page: PageId, req_id: u64) {
    let me = st.me;
    let replay = st.rec.replay.as_mut().unwrap();
    let rp = replay.pages.get_mut(&page).expect("a round built the page");
    let ft = st.ft.state.as_mut().unwrap();
    if !rp.installed {
        rp.installed = true;
        ft.report.replayed_pages += 1;
    }
    // Our own logged diffs participate too: the pre-crash fetched copy
    // included them, and replay keeps regenerating them (logged at every
    // replayed interval end). Merge those the copy does not have yet — at
    // the first answer and at every one after an invalidation — so that it
    // reproduces our own writes. None is in `entries` already: a peer sends
    // only diffs it made, and ours are covered, so applied and dropped here.
    rp.entries.extend(ft.diffs_after(page, rp.version.get(me)));
    rp.entries.sort_by_key(linear_key);
    // Apply every diff that happened before our current replay point, each
    // once.
    let vt = &st.vt;
    rp.entries.retain(|e| {
        let (writer, seq, due) = (e.diff.interval.proc, e.diff.interval.seq, vt.covers(&e.t));
        if due && seq > rp.version.get(writer) {
            e.diff.apply(&mut rp.copy);
            rp.version.set(writer, seq);
        }
        !due
    });
    let (needed, version) = (&st.pt.remote_meta(page).needed, &rp.version);
    assert!(
        version.covers(needed),
        "node {me}: replayed page {page}: the emulated home's copy at version {version} does not cover needed {needed}"
    );
    // Share the copy straight into the page table: later replayed diffs
    // copy-on-write `rp.copy`, so the installed buffer stays a consistent
    // snapshot. No base: the copy is no version a later delta builds on.
    let body = PageBody::Full {
        bytes: rp.copy.share(),
        base: 0,
    };
    let pages = vec![(page, version.clone(), body)];
    fetch::handle(st, Payload::PageReply { req_id, pages });
}

/// The answer the logs give `request` while replaying, which
/// [`NodeState::block_on`] parks in the wait slot in place of sending it:
/// for a `LockAcq` the grant its granter logged ([`logged_grant`]), for a
/// `BarrierArrive` the release of the episode a peer logged, each with the
/// notices between the request's clock and the logged one from the table the
/// handshake filled, and no pushes. The first request with no logged answer
/// is the crash point: the node goes live ([`go_live`], the backlog
/// included) and the request leaves as a live one. `None` as well outside a
/// replay, and for a recovery round, which is always sent.
pub(crate) fn logged_answer(st: &mut NodeState, request: &Payload) -> Option<(ProcId, Payload)> {
    let replay = st.rec.replay.as_ref()?;
    let answer = match request {
        Payload::LockAcq { lock, acq_seq, vt } => logged_grant(st, *lock, *acq_seq, vt),
        Payload::BarrierArrive { episode, vt, .. } => {
            replay.bar_results.get(episode).map(|result| {
                let wns = st.wn_table.missing_between(vt, result);
                (0, Payload::logged_release(*episode, result.clone(), wns))
            })
        }
        _ => return None,
    };
    if answer.is_none() {
        go_live(st);
    }
    answer
}

/// The grant of our replayed acquisition `acq_seq` of `lock`, asked for at
/// `vt`: the one its granter logged, or one from ourselves when no peer
/// logged one and later evidence says the acquire completed; `None` at the
/// crash point. Building it restores the chain position the tenure holds
/// at a lock we manage ([`crate::runtime::sync::SyncSvc::replayed_grant`]).
fn logged_grant(
    st: &mut NodeState,
    lock: LockId,
    acq_seq: u64,
    vt: &VectorClock,
) -> Option<(ProcId, Payload)> {
    let replay = st.rec.replay.as_ref().unwrap();
    let (granted, t_after) = match replay.rel.get(&acq_seq) {
        Some((granter, e)) if e.lock == lock => (Some((e.gen, *granter)), e.t_after.clone()),
        Some(_) => panic!("replay acquire lock mismatch at acq_seq {acq_seq}"),
        None => {
            // No peer logged a grant for this acquisition. Either the
            // acquire never completed (the crash point) or it was a
            // *self-grant* — we were the chain tail and granted ourselves,
            // and the grant record died with us. Evidence of any later
            // logged event of ours proves the acquire completed, and since
            // no peer granted it, it must have been a self-grant: its grant
            // joins our own release timestamp — a no-op — and carries no
            // notices.
            let later_rel = replay.rel.keys().any(|&s| s > acq_seq);
            let crossed = st.sync.bar_episode();
            let later_bar = replay.bar_results.keys().any(|&e| e >= crossed);
            // A grant we *gave* (mirrored in a peer's acq_log) or a peer
            // diff whose timestamp carries our component beyond the
            // replayed clock is equally conclusive: peers can only have
            // seen interval vt[me]+1 if the op that created it — at or
            // after this acquire — completed before the crash.
            let later_iv = replay.evidence_self > vt.get(st.me);
            if !(later_rel || later_bar || later_iv) {
                return None;
            }
            (None, vt.clone())
        }
    };
    let (granter, gen) = st.sync.replayed_grant(lock, acq_seq, granted);
    let grant = Payload::LockGrant {
        lock,
        acq_seq,
        gen,
        wns: st.wn_table.missing_between(vt, &t_after),
        vt: t_after,
        pushed: Vec::new(),
    };
    Some((granter, grant))
}

/// The end of an acquire, a release or a barrier crossing, decided by the
/// mode. A live one runs `live`: what only a live operation does once it has
/// applied its answer — prefetch, the checkpoint policy, a new report of the
/// copies used. A replayed one applies instead the homed-page diffs its clock
/// now covers ([`apply_pending_home`]).
pub(crate) fn synced(st: &mut NodeState, live: impl FnOnce(&mut NodeState)) {
    if st.rec.replaying() {
        apply_pending_home(st);
    } else {
        live(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;
    use crate::runtime::interval;
    use crate::runtime::node::tests::{
        diff_of, gated, only_payload, page_of, recv_any, test_state, the_answer,
    };
    use crate::runtime::node::WaitSlot;
    use crate::stats::{Breakdown, Counts};
    use dsm_net::Endpoint;
    use dsm_trace::{Trace, TraceConfig};
    use std::time::Duration;

    impl RecoverySvc {
        /// A node in replay with nothing collected.
        pub(crate) fn replaying_nothing() -> Self {
            RecoverySvc {
                replay: Some(ReplayState::default()),
                ..Self::default()
            }
        }

        /// A node in replay that knows the result of one barrier episode.
        pub(crate) fn replaying_episode(episode: u64, result: VectorClock) -> Self {
            let mut replay = ReplayState::default();
            replay.bar_results.insert(episode, result);
            RecoverySvc {
                replay: Some(replay),
                ..Self::default()
            }
        }

        /// A node in replay that knows the grant `granter` logged for our
        /// acquisition `entry.acq_seq`.
        pub(crate) fn replaying_grant(granter: ProcId, entry: RelEntry) -> Self {
            let mut replay = ReplayState::default();
            replay.rel.insert(entry.acq_seq, (granter, entry));
            RecoverySvc {
                replay: Some(replay),
                ..Self::default()
            }
        }

        /// What waits for `go_live`.
        pub(crate) fn deferred(&self) -> &[(ProcId, Payload)] {
            &self.backlog
        }
    }

    #[test]
    fn a_crash_forgets_the_replay_and_the_backlog() {
        let (mut st, _eps) = test_state(1, 3, true);
        st.set_mode(Mode::Recovering);
        st.rec = RecoverySvc::replaying_nothing();
        defer(&mut st, 0, Payload::RecLogReq { homed: Vec::new() });
        assert!(st.rec.replaying());
        assert_eq!(st.rec.backlog.len(), 1);
        st.rec.fail_stop();
        assert_eq!(st.rec, RecoverySvc::default());
    }

    fn log_reply() -> Payload {
        log_reply_with(Vec::new())
    }

    /// An empty handshake reply but for its barrier log.
    fn log_reply_with(bar: Vec<BarEntry>) -> Payload {
        Payload::RecLogReply {
            wn: Vec::new(),
            rel_for_you: Vec::new(),
            acq_mirror: Vec::new(),
            bar,
            lock_chains: Vec::new(),
            gen_floor: Vec::new(),
            applied_of_you: 0,
            diffs: Vec::new(),
            wanted: Vec::new(),
        }
    }

    #[test]
    fn an_episode_only_the_managers_reply_names_is_replayed_and_becomes_our_log() {
        // Node 1 of 3 crossed episode 0 and crashed. Node 0 logged the
        // episode when it completed it; node 2 had yet to cross it when the
        // handshake reached it.
        let (mut st, _eps) = test_state(1, 3, true);
        let episode0 = BarEntry {
            episode: 0,
            result_vt: gated(3, 2, 4),
        };
        let replies = vec![
            (2, log_reply()),
            (0, log_reply_with(vec![episode0.clone()])),
        ];
        let (replay, ..) = merge_log_replies(&mut st, replies);
        assert_eq!(st.ft.logs().unwrap().bar, std::slice::from_ref(&episode0));
        st.rec.replay = Some(replay);
        let (_, release) = replay_barrier(&mut st).expect("episode 0 is logged");
        interval::cross_barrier(&mut st, release);
        assert_eq!((st.sync.bar_episode(), &st.vt), (1, &episode0.result_vt));
        // The replay logged nothing of its own, and the next episode, which
        // nobody names, is the crash point.
        assert_eq!(st.ft.logs().unwrap().bar, [episode0]);
        assert!(replay_barrier(&mut st).is_none());
    }

    /// A barrier at replaying `st`: arrive, and take the logs' answer, or
    /// `None` at the crash point, where the arrival went live — sent to node
    /// 0, its wait open and owed.
    fn replay_barrier(st: &mut NodeState) -> Option<(ProcId, Payload)> {
        interval::arrive(st, &mut Breakdown::default());
        if st.rec.replaying() {
            return Some(the_answer(&mut st.wait));
        }
        assert!(st.wait_opened() && st.mode == Mode::Normal);
        None
    }

    #[test]
    fn the_pages_the_peers_wanted_are_asked_for_in_page_order() {
        let (mut st, _eps) = test_state(1, 3, true);
        let named = |pages: &[u32]| {
            let mut reply = log_reply();
            if let Payload::RecLogReply { wanted, .. } = &mut reply {
                *wanted = pages.iter().map(|&p| PageId(p)).collect();
            }
            reply
        };
        // Each home names pages of its own.
        let replies = vec![(2, named(&[5, 9])), (0, named(&[2, 7]))];
        let (.., wanted) = merge_log_replies(&mut st, replies);
        assert_eq!(wanted, [2, 5, 7, 9].map(PageId));
    }

    /// A non-home's reply for one page, or with `copy` the home's.
    fn page_reply(page: u32, copy: bool) -> Payload {
        batch_reply(&[page], copy)
    }

    /// A reply to a round that asked for `pages`.
    fn batch_reply(pages: &[u32], copy: bool) -> Payload {
        let rec_page = |&page| RecPage {
            page: PageId(page),
            copy: copy.then(|| (VectorClock::zero(3), vec![0u8; 8].into())),
            entries: Vec::new(),
        };
        Payload::RecPageReply {
            pages: pages.iter().map(rec_page).collect(),
        }
    }

    /// Node 1 of `n`, recovering, blocked on a round that asks every peer
    /// for `pages`.
    fn asking(n: usize, pages: &[u32]) -> (NodeState, Vec<Arc<Endpoint<Msg>>>) {
        let (mut st, eps) = test_state(1, n, true);
        st.set_mode(Mode::Recovering);
        let pages: Vec<_> = pages.iter().map(|&p| PageId(p)).collect();
        let round = (0..n).filter(|&p| p != 1).map(|p| {
            let (pages, tckp) = (pages.clone(), VectorClock::zero(n));
            (p, Payload::RecPageReq { pages, tckp })
        });
        st.block_on(round.collect());
        (st, eps)
    }

    #[test]
    fn a_recovery_wait_takes_one_reply_from_each_peer_in_arrival_order() {
        let (mut st, eps) = asking(3, &[4]);
        for ep in &eps {
            assert_eq!(only_payload(ep).kind(), "RecPageReq");
        }
        assert!(st.wait_opened(), "the wait opens before the round leaves");
        defer(&mut st, 2, page_reply(4, true));
        assert!(st.wait.take().is_none(), "peer 0 still owes its reply");
        // A peer's request waits for `go_live`; the wait takes nothing of it.
        defer(&mut st, 0, Payload::RecLogReq { homed: Vec::new() });
        assert_eq!(st.rec.backlog.len(), 1);
        // The home's reply and a non-home's are the same kind, told apart
        // by the copy alone.
        defer(&mut st, 0, page_reply(4, false));
        let round = [(2, page_reply(4, true)), (0, page_reply(4, false))];
        assert_eq!(st.wait.take(), Some(round.to_vec()));
        assert!(matches!(st.wait, WaitSlot::None));
    }

    /// A round's reply names every page the round asked for, in its order:
    /// a reply to another round — a subset, a superset, another order, or
    /// the same pages asked one at a time — is not this round's, and
    /// neither is a handshake reply.
    #[test]
    fn a_rounds_reply_is_taken_only_by_its_own_ask() {
        let (mut st, _eps) = asking(3, &[3, 5]);
        for other in [
            batch_reply(&[3], false),
            batch_reply(&[3, 5, 8], false),
            batch_reply(&[5, 3], false),
            batch_reply(&[5], false),
            log_reply(),
        ] {
            assert_eq!(st.wait.deposit(0, other.clone()), Some(other));
        }
        for (peer, home) in [(2, true), (0, false)] {
            assert_eq!(st.wait.deposit(peer, batch_reply(&[3, 5], home)), None);
        }
        let round = [
            (2, batch_reply(&[3, 5], true)),
            (0, batch_reply(&[3, 5], false)),
        ];
        assert_eq!(st.wait.take(), Some(round.to_vec()));
    }

    #[test]
    #[should_panic(expected = "node 1: RecPageReply from 0 is owed to no open request")]
    fn a_second_reply_from_a_peer_is_a_bug() {
        let (mut st, _eps) = asking(3, &[4]);
        defer(&mut st, 0, page_reply(4, false));
        defer(&mut st, 0, page_reply(4, false));
    }

    #[test]
    #[should_panic(expected = "RecPageReply from 2 after going live")]
    fn a_recovery_reply_after_going_live_is_a_bug() {
        let (mut st, _eps) = test_state(1, 3, true);
        handle(&mut st, 2, page_reply(4, true));
    }

    #[test]
    fn a_blocked_recovery_wait_names_what_it_asked_and_who_owes_it() {
        // `wait_until`'s deadline panic prints the wait slot. Node 1 of 4
        // asks peers 0, 2 and 3; peer 2 has answered.
        let (mut st, _eps) = asking(4, &[12, 14]);
        defer(&mut st, 2, batch_reply(&[12, 14], false));
        let shown = format!("{:?}", st.wait);
        assert!(shown.contains("pages: [PageId(12), PageId(14)]"), "{shown}");
        assert!(shown.contains("owed: [0, 3]"), "{shown}");
        // The handshake: what every peer was asked, less its own versions.
        let (mut st, _eps) = test_state(1, 4, true);
        let homed = vec![(PageId(1), 2)];
        let handshake = [0, 2, 3].map(|p| {
            (
                p,
                Payload::RecLogReq {
                    homed: homed.clone(),
                },
            )
        });
        st.block_on(handshake.to_vec());
        let shown = format!("{:?}", st.wait);
        assert!(shown.contains("RecLogReq { homed: [] }"), "{shown}");
        assert!(shown.contains("owed: [0, 2, 3]"), "{shown}");
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

    /// A copy of the recovering node's page that a reader installed at the
    /// node's interval 3 is the reader's evidence that interval 3 was
    /// closed, as a diff its home applied would be: the handshake reply
    /// says so, and says nothing of another node's pages.
    #[test]
    fn the_handshake_reply_names_the_newest_own_interval_an_installed_copy_carried() {
        // Node 0 of 3; page 0 is homed at node 1, which wrote it in its
        // interval 3.
        let (mut st, eps) = test_state(0, 3, true);
        st.pt.add_page(1);
        st.pt.invalidate(PageId(0), 1, 3);
        crate::runtime::fetch::fetch_with_neighbours(&mut st, PageId(0));
        let Payload::PageReq { req_id, .. } = only_payload(&eps[0]) else {
            panic!("no fetch")
        };
        let pages = vec![(PageId(0), gated(3, 1, 3), page_of(1))];
        handle_msg(&mut st, 1, Payload::PageReply { req_id, pages });
        let evidence = |st: &mut NodeState, r: ProcId| {
            handle_msg(st, r, Payload::RecLogReq { homed: Vec::new() });
            let Payload::RecLogReply { applied_of_you, .. } = only_payload(&eps[r - 1]) else {
                panic!("not a handshake reply")
            };
            applied_of_you
        };
        assert_eq!((evidence(&mut st, 1), evidence(&mut st, 2)), (3, 0));
    }

    #[test]
    fn a_replayed_barrier_holds_the_managers_batch_for_the_next_message() {
        // Node 1 of 2 replays episode 0 having written page 0, node 0's:
        // no arrival goes out, and neither does the batch.
        let (mut st, eps) = test_state(1, 2, true);
        st.pt.add_page(0);
        st.pt.install(PageId(0), page_of(0), &VectorClock::zero(2));
        st.pt.write(PageId(0), 8, &[1]);
        st.rec = RecoverySvc::replaying_episode(0, gated(2, 1, 1));
        let (_, release) = replay_barrier(&mut st).expect("episode 0 is logged");
        interval::cross_barrier(&mut st, release);
        assert!(recv_any(&eps[0], Duration::ZERO).is_none());
        // Episode 1 is the crash point: the live arrival carries it.
        assert!(replay_barrier(&mut st).is_none());
        match only_payload(&eps[0]) {
            Payload::BarrierArrive {
                episode: 1,
                batch: Some(diffs),
                ..
            } => assert_eq!(diffs[0].interval.seq, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st.counts.diff_batches_carried, 1);
    }

    /// A replayed acquisition no peer logged a grant for is a self-grant
    /// when later evidence says it completed: the logs' answer is a grant
    /// from this node at the generation of its last tenure of the lock, and
    /// nothing is sent — not even to the lock's manager, this node, whose
    /// chain the answer puts this tenure at the tail of.
    #[test]
    fn a_self_grant_with_evidence_is_answered_from_the_log() {
        // Node 1 of 3 manages lock 4, and held it at generation 3 before
        // the checkpoint; a peer holds a record of our interval 1. `eps` are
        // nodes 0 and 2.
        let (mut st, eps) = test_state(1, 3, true);
        st.set_mode(Mode::Recovering);
        st.sync.enter(4, 0, 3);
        st.sync.leave(4, VectorClock::zero(3));
        st.sync.take_acq_seq();
        st.rec.replay = Some(ReplayState {
            evidence_self: 1,
            ..ReplayState::default()
        });
        interval::request(&mut st, 4);
        let (granter, grant) = the_answer(&mut st.wait);
        let Payload::LockGrant {
            lock: 4,
            acq_seq: 1,
            gen: 3,
            ref wns,
            ref pushed,
            ..
        } = grant
        else {
            panic!("not the self-grant: {grant:?}")
        };
        assert_eq!((granter, wns.len(), pushed.len()), (1, 0, 0));
        interval::apply_grant(&mut st, (granter, grant), &mut Breakdown::default());
        assert!(st.sync.holds(4) && st.rec.replaying());
        for ep in &eps {
            assert!(recv_any(ep, Duration::ZERO).is_none());
        }
        // Live again, the tenure is the chain's tail: a peer's request
        // waits for its release.
        go_live(&mut st);
        let acq = Payload::LockAcq {
            lock: 4,
            acq_seq: 0,
            vt: VectorClock::zero(3),
        };
        handle_msg(&mut st, 2, acq);
        assert!(recv_any(&eps[1], Duration::ZERO).is_none());
        interval::release(&mut st, 4);
        assert_eq!(only_payload(&eps[1]).kind(), "LockGrant");
    }

    /// With no logged grant and no evidence, the acquisition is the crash
    /// point: the node goes live, handles its backlog, and only then parks
    /// the request and sends it. A forward in the backlog behind the
    /// acquisition is handled with nothing in flight, as it was before the
    /// restart.
    #[test]
    fn a_self_grant_without_evidence_is_the_crash_point_and_goes_on_the_wire() {
        // Node 1 of 3; node 2 (`eps[1]`) manages lock 5, and a forward it
        // sent during the recovery chains node 0's acquisition 9 behind ours.
        let (mut st, eps) = test_state(1, 3, true);
        st.set_mode(Mode::Recovering);
        st.rec = RecoverySvc::replaying_nothing();
        let forward = Payload::LockForward {
            lock: 5,
            requester: 0,
            acq_seq: 9,
            gen: 2,
            pred_acq: 0,
            vt: VectorClock::zero(3),
        };
        defer(&mut st, 2, forward);
        interval::request(&mut st, 5);
        assert!(!st.rec.replaying() && st.mode == Mode::Normal);
        let Payload::LockGrant { acq_seq: 9, .. } = only_payload(&eps[0]) else {
            panic!("the forward was not granted")
        };
        let Payload::LockAcq {
            lock: 5,
            acq_seq: 0,
            ..
        } = only_payload(&eps[1])
        else {
            panic!("the request did not leave")
        };
        assert!(st.wait_opened());
    }
    #[test]
    fn a_replayed_page_gets_the_copy_from_its_home_alone_and_diffs_from_everyone() {
        let (mut st, eps) = test_state(1, 3, true);
        st.pt.add_page(1); // page 0: homed here
        st.pt.add_page(2); // page 1: remote
        let write_both = |st: &mut NodeState, byte: u8| {
            // A fresh copy of page 1 that holds our writes so far.
            let ours = gated(3, 1, byte as u32 - 1);
            st.pt.install(PageId(1), page_of(0), &ours);
            st.pt.write(PageId(0), 8, &[byte]);
            st.pt.write(PageId(1), 8, &[byte]);
            st.close_interval(&mut Breakdown::default());
        };
        write_both(&mut st, 1);
        crate::ft::take_checkpoint(&mut st, 1, Vec::new(), &mut Breakdown::default());
        write_both(&mut st, 2);
        while recv_any(&eps[1], Duration::ZERO).is_some() {} // the diff batches

        let tckp = gated(3, 1, 1);
        let ask = |st: &mut NodeState, pages: Vec<PageId>| {
            let tckp = tckp.clone();
            handle_msg(st, 0, Payload::RecPageReq { pages, tckp });
            match only_payload(&eps[0]) {
                Payload::RecPageReply { pages } => pages
                    .into_iter()
                    .map(|rp| (rp.page, rp.copy, logged_seqs(&rp.entries)))
                    .collect::<Vec<_>>(),
                other => panic!("unexpected {other:?}"),
            }
        };
        // Home: the checkpointed copy, and only the diff it does not hold.
        let [(page, copy, entries)] = &ask(&mut st, vec![PageId(0)])[..] else {
            panic!("one page asked, one answered")
        };
        let (version, bytes) = copy.clone().expect("the home sends the starting copy");
        assert_eq!((*page, version, bytes[8]), (PageId(0), gated(3, 1, 1), 1));
        assert_eq!(entries, &[(0, 2)]);
        // Not the home: no copy, the whole log for the page.
        let [(_, None, entries)] = &ask(&mut st, vec![PageId(1)])[..] else {
            panic!("a copy from a peer that is not the home")
        };
        assert_eq!(entries, &[(1, 1), (1, 2)]);
        // Both in one round: each answered as it was alone, in the order
        // asked.
        let both = ask(&mut st, vec![PageId(0), PageId(1)]);
        let alone = [ask(&mut st, vec![PageId(0)]), ask(&mut st, vec![PageId(1)])];
        assert_eq!(both, alone.concat());
    }

    /// Node 1 of `n`, replaying at node 0's interval 2, which a notice has
    /// named for page 0, node 0's. The emulated home has built the page if
    /// `built` carries its entries: its copy, byte 8 set to 7, holds node
    /// 0's interval 1, and the entries are not applied yet.
    fn replaying_a_miss(
        n: usize,
        built: Option<Vec<DiffLogEntry>>,
    ) -> (NodeState, Vec<Arc<Endpoint<Msg>>>) {
        let (mut st, eps) = test_state(1, n, true);
        st.set_mode(Mode::Recovering);
        let mut replay = ReplayState::default();
        if let Some(entries) = built {
            let mut copy = Page::zeroed(256);
            copy.write(8, &[7]);
            let version = gated(n, 0, 1);
            let rp = ReplayPage {
                copy,
                version,
                entries,
                installed: false,
            };
            replay.pages.insert(PageId(0), rp);
        }
        st.rec.replay = Some(replay);
        st.pt.add_page(0);
        st.pt.invalidate(PageId(0), 0, 2);
        st.vt = gated(n, 0, 2);
        (st, eps)
    }

    /// Node 0's logged diff of page 0 in its interval `seq`: byte 0 set to
    /// `seq`.
    fn logged(n: usize, seq: u32) -> DiffLogEntry {
        let (diff, t) = (diff_of(0, 0, seq), gated(n, 0, seq));
        DiffLogEntry { diff, t }
    }

    /// A replayed miss on a built page runs the live fault: it waits on
    /// the page's fetch entry, and the emulated home's `PageReply` installs
    /// the copy through the live install, which notes the home's interval
    /// it carries, as after a live install. Nothing goes on the wire and no
    /// traffic counter moves; the page wait is recorded as a live one's.
    #[test]
    fn a_replayed_miss_is_answered_through_the_live_install_and_counts_as_a_page_wait() {
        let (mut st, eps) = replaying_a_miss(2, Some(vec![logged(2, 2)]));
        let trace = Trace::new(2, &TraceConfig::enabled());
        st.tracer = trace.tracer(1);
        let (mut proc, shared) = crate::runtime::fetch::tests::process(st);
        let addr = proc.alloc(256, crate::HomeAlloc::Node(0));
        let mut bytes = [0u8; 16];
        proc.read_bytes(addr, &mut bytes);
        assert_eq!((bytes[0], bytes[8]), (2, 7));
        let mut st = shared.state.lock();
        // The evidence the home's next recovery asks for: its interval 2.
        assert_eq!(st.fetch.seen_of(0), 2);
        assert!(!st.fetch.in_flight(PageId(0)));
        assert_eq!(st.ft.state.as_ref().unwrap().report.replayed_pages, 1);
        assert!(
            recv_any(&eps[0], Duration::ZERO).is_none(),
            "a replayed miss sent"
        );
        assert_eq!((st.counts, st.req_causes.total()), (Counts::default(), 0));
        assert_eq!(st.hists.page_fetch.count(), 1);
        proc.flush_stats(&mut st);
        assert!(st.breakdown_acc.page_wait > Duration::ZERO);
        let kinds: Vec<_> = trace.node_events(1).into_iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains(&EventKind::PageFault { page: 0 }),
            "{kinds:?}"
        );
        assert!(
            kinds.contains(&EventKind::PageReply { page: 0, from: 0 }),
            "{kinds:?}"
        );
    }

    /// The emulated home checks its copy against the page's `needed`, as a
    /// real home does: a copy that misses an interval a notice named is a
    /// fail-stop, never an install.
    #[test]
    #[should_panic(
        expected = "replayed page p0: the emulated home's copy at version [1,0] does not cover needed [2,0]"
    )]
    fn a_replayed_copy_short_of_needed_is_a_fail_stop() {
        let (st, _eps) = replaying_a_miss(2, Some(Vec::new()));
        let (mut proc, _shared) = crate::runtime::fetch::tests::process(st);
        let addr = proc.alloc(256, crate::HomeAlloc::Node(0));
        proc.read::<u64>(addr);
    }

    /// A replayed miss on a page no round has built opens a round of its
    /// own; the round's last reply builds the copy and answers the miss.
    #[test]
    fn a_replayed_miss_on_a_page_no_round_built_is_answered_as_its_round_completes() {
        let (mut st, eps) = replaying_a_miss(3, None);
        fetch_missed(&mut st, PageId(0));
        for ep in &eps {
            let Payload::RecPageReq { pages, .. } = only_payload(ep) else {
                panic!("no round")
            };
            assert_eq!(pages, [PageId(0)]);
        }
        assert!(st.fetch.in_flight(PageId(0)) && st.wait_opened());
        defer(&mut st, 2, page_reply(0, false));
        assert!(st.fetch.in_flight(PageId(0)), "peer 0 still owes its reply");
        let home = Payload::RecPageReply {
            pages: vec![RecPage {
                page: PageId(0),
                copy: Some((VectorClock::zero(3), vec![0u8; 256].into())),
                entries: vec![logged(3, 1), logged(3, 2)],
            }],
        };
        defer(&mut st, 0, home);
        assert!(matches!(st.wait, WaitSlot::None));
        assert_eq!(st.pt.ensure_access(PageId(0)), hlrc::AccessOutcome::Ready);
        assert_eq!(st.fetch.seen_of(0), 2);
        let report = &st.ft.state.as_ref().unwrap().report;
        assert_eq!((report.rec_rounds, report.replayed_pages), (1, 1));
        assert_eq!(st.rec.replay.as_ref().unwrap().owed, None);
        assert_eq!(st.req_causes.total(), 0);
    }
}
