//! Locks and barriers as one node sees them: [`SyncSvc`].
//!
//! The module owns the lock- and barrier-manager state, this node's tenures
//! and the grants queued behind them, the counters that number its
//! acquisitions and barrier crossings, and the five kinds that route
//! through those: `LockAcq`, `LockForward`, `LockGrant`, `BarrierArrive`,
//! `BarrierRelease`. All of it is served under the big lock (lock order
//! big → shard; this module takes no lock of its own). Its handlers take
//! what they need of the rest of the node as arguments and answer through a
//! reply sink, so they can be driven with no endpoint at all.

use std::collections::HashMap;
use std::time::Instant;

use dsm_page::{ProcId, VectorClock};
use dsm_trace::{EventKind, LatencyHists, NodeTracer};
use hlrc::barrier::{Arrival, ArriveOutcome, BarrierManager};
use hlrc::locks::{AcqReq, LockAction, LockManagerTable};
use hlrc::{LockId, WnTable};

use crate::ft::ckpt::CheckpointBlob;
use crate::ft::logs::{MgrBarEntry, RelEntry};
use crate::ft::FtSvc;
use crate::msg::Payload;
use crate::runtime::node::{NodeState, Replies, WaitSlot};

/// This node's latest tenure of one lock. Deterministic local knowledge,
/// reconstructed exactly by checkpoint restore plus replay — the basis of
/// forward gating. The locks this node holds are the unreleased tenures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tenure {
    /// Our own acquisition sequence number.
    acq: u64,
    /// The manager-issued edge number that granted it, reported to a
    /// recovering manager so it can order delivered tenures. A replayed
    /// self-granted tenure keeps the generation of the newest peer-granted
    /// one before it (0 if none) — its own died with the old manager
    /// incarnation, and an underestimate is safe because generations are
    /// monotone along the chain.
    gen: u64,
    released: bool,
}

/// One peer's chain report: `(lock, generation, grantee, the grantee's
/// acquisition number, granter)` for the newest materialized acquisition of
/// each lock, and `(lock, generation)` floors.
type ChainReport = (
    Vec<(LockId, u64, ProcId, u64, Option<ProcId>)>,
    Vec<(LockId, u64)>,
);

/// The lock and barrier state of one node. All of it is volatile.
#[derive(Debug, PartialEq)]
pub(crate) struct SyncSvc {
    me: ProcId,
    n: usize,
    /// The chains of the locks this node manages (`lock % n == me`).
    lock_mgr: LockManagerTable,
    /// The barrier manager, on node 0.
    bar_mgr: Option<BarrierManager>,
    tenures: HashMap<LockId, Tenure>,
    last_release_vt: HashMap<LockId, VectorClock>,
    /// Forwarded acquires queued while this node still holds the lock.
    pending_grants: HashMap<LockId, Vec<LockAction>>,
    /// Highest grant generation this node issued or queued, per lock, with
    /// the grantee and the grantee's acquisition sequence number (reported
    /// to a recovering manager for chain rebuild).
    lock_chain_info: HashMap<LockId, (u64, ProcId, u64)>,
    acq_seq_next: u64,
    bar_episode: u64,
    /// Our interval at our last barrier arrival: an arrival carries our
    /// notices past it.
    last_bar_arrive_seq: u32,
}

impl SyncSvc {
    pub(crate) fn new(me: ProcId, n: usize) -> Self {
        SyncSvc {
            me,
            n,
            lock_mgr: LockManagerTable::new(me),
            bar_mgr: (me == 0).then(|| BarrierManager::new(n)),
            tenures: HashMap::new(),
            last_release_vt: HashMap::new(),
            pending_grants: HashMap::new(),
            lock_chain_info: HashMap::new(),
            acq_seq_next: 0,
            bar_episode: 0,
            last_bar_arrive_seq: 0,
        }
    }

    /// Fail-stop: everything is lost. The barrier manager (node 0) comes
    /// back in `go_live`, from the collected barrier logs.
    pub(crate) fn fail_stop(&mut self) {
        *self = SyncSvc {
            bar_mgr: None,
            ..Self::new(self.me, self.n)
        };
    }

    /// Restart: counters, tenures and release timestamps come from the
    /// image. The manager chains and `lock_chain_info` are rebuilt from the
    /// peers' handshake replies ([`SyncSvc::absorb_chain_report`]), queued
    /// grants by live execution.
    pub(crate) fn restart_from(&mut self, image: &CheckpointBlob) {
        self.acq_seq_next = image.acq_seq_next;
        self.bar_episode = image.bar_episode;
        self.last_bar_arrive_seq = image.last_bar_arrive_seq;
        self.tenures = image
            .tenures
            .iter()
            .map(|&(l, acq, gen, released)| (l, Tenure { acq, gen, released }))
            .collect();
        self.last_release_vt = image.last_release_vts.iter().cloned().collect();
    }

    /// Write what [`SyncSvc::restart_from`] reads back into a checkpoint.
    pub(crate) fn save_into(&self, blob: &mut CheckpointBlob) {
        blob.bar_episode = self.bar_episode;
        blob.acq_seq_next = self.acq_seq_next;
        blob.last_bar_arrive_seq = self.last_bar_arrive_seq;
        let tenures = self.tenures.iter();
        blob.tenures = tenures
            .map(|(&l, t)| (l, t.acq, t.gen, t.released))
            .collect();
        let vts = self.last_release_vt.iter();
        blob.last_release_vts = vts.map(|(l, v)| (*l, v.clone())).collect();
    }

    /// Does this node hold `lock`? (Its latest tenure is unreleased.)
    pub(crate) fn holds(&self, lock: LockId) -> bool {
        self.tenures.get(&lock).is_some_and(|t| !t.released)
    }

    /// Barrier episodes crossed so far.
    pub(crate) fn bar_episode(&self) -> u64 {
        self.bar_episode
    }

    /// The sequence number the next acquisition takes.
    pub(crate) fn acq_seq_next(&self) -> u64 {
        self.acq_seq_next
    }

    /// Enter the tenure of `lock` that our acquisition `acq` opened, granted
    /// at generation `gen`.
    pub(crate) fn enter(&mut self, lock: LockId, acq: u64, gen: u64) {
        let released = false;
        self.tenures.insert(lock, Tenure { acq, gen, released });
    }

    /// Number the next acquisition.
    pub(crate) fn take_acq_seq(&mut self) -> u64 {
        self.acq_seq_next += 1;
        self.acq_seq_next - 1
    }

    /// Leave the tenure of `lock` at release timestamp `vt`.
    pub(crate) fn leave(&mut self, lock: LockId, vt: VectorClock) {
        self.last_release_vt.insert(lock, vt);
        self.tenures
            .get_mut(&lock)
            .expect("released a tenure")
            .released = true;
    }

    /// The queued forwards of `lock` that chain behind tenures we have
    /// released by now; one chaining behind a *future* tenure of ours (our
    /// next in-flight acquisition) stays queued until that tenure's release.
    pub(crate) fn take_due_grants(&mut self, lock: LockId) -> Vec<LockAction> {
        let released_acq = self.tenures.get(&lock).map_or(u64::MAX, |t| t.acq);
        let q = self.pending_grants.remove(&lock).unwrap_or_default();
        let (now, later): (Vec<_>, Vec<_>) =
            q.into_iter().partition(|pg| pg.pred_acq <= released_acq);
        if !later.is_empty() {
            self.pending_grants.insert(lock, later);
        }
        now
    }

    /// Arrive at the barrier at our interval `seq` (live or replayed);
    /// returns our interval at the previous arrival.
    pub(crate) fn note_arrival(&mut self, seq: u32) -> u32 {
        std::mem::replace(&mut self.last_bar_arrive_seq, seq)
    }

    /// Cross the barrier; returns the episode crossed.
    pub(crate) fn crossed(&mut self) -> u64 {
        self.bar_episode += 1;
        self.bar_episode - 1
    }

    /// Record a grant this node issued or queued; per lock the highest
    /// generation wins (see `lock_chain_info`).
    fn note_grant(&mut self, lock: LockId, gen: u64, grantee: ProcId, acq_seq: u64) {
        let e = self
            .lock_chain_info
            .entry(lock)
            .or_insert((gen, grantee, acq_seq));
        if gen >= e.0 {
            *e = (gen, grantee, acq_seq);
        }
    }

    /// Produce the grant `a` asks for right now (the lock is free at this
    /// node).
    pub(crate) fn grant_now(
        &self,
        a: LockAction,
        wn_table: &WnTable,
        ft: &mut FtSvc,
        tracer: &NodeTracer,
        reply: &mut Replies,
    ) {
        let (lock, gen) = (a.lock, a.gen);
        let AcqReq {
            requester,
            acq_seq,
            vt: req_vt,
        } = a.req;
        let zero = || VectorClock::zero(self.n);
        let req_vt = if req_vt.is_empty() { zero() } else { req_vt };
        let grant_vt = self
            .last_release_vt
            .get(&lock)
            .cloned()
            .unwrap_or_else(zero);
        let wns = wn_table.missing_between(&req_vt, &grant_vt);
        tracer.emit(EventKind::LockGrant {
            lock: lock as u32,
            to: requester,
            gen,
        });
        if let Some(logs) = ft.logs() {
            let mut t_after = req_vt.clone();
            t_after.join(&grant_vt);
            logs.log_rel(
                requester,
                RelEntry {
                    acq_seq,
                    lock,
                    gen,
                    req_vt,
                    t_after,
                },
            );
        }
        let vt = grant_vt;
        let grant = Payload::LockGrant {
            lock,
            acq_seq,
            gen,
            vt,
            wns,
        };
        reply.push((requester, grant));
    }

    /// Handle a forwarded acquire at the granter (chain predecessor). `wait`
    /// is what the application thread is blocked on.
    pub(crate) fn handle_forward(
        &mut self,
        fwd: LockAction,
        wait: &WaitSlot,
        wn_table: &WnTable,
        ft: &mut FtSvc,
        tracer: &NodeTracer,
        reply: &mut Replies,
    ) {
        let (lock, requester, acq_seq) = (fwd.lock, fwd.req.requester, fwd.req.acq_seq);
        // Track the newest grant this node is responsible for (manager
        // recovery).
        self.note_grant(lock, fwd.gen, requester, acq_seq);
        // Retransmission of a grant we already produced? Replay it from the
        // release log so the requester sees an identical grant.
        if let Some(entry) = ft.logs().and_then(|l| l.find_rel(requester, acq_seq)) {
            if entry.lock == lock {
                let replay = Payload::LockGrant {
                    lock,
                    acq_seq,
                    gen: fwd.gen,
                    vt: entry.t_after.clone(),
                    wns: wn_table.missing_between(&entry.req_vt, &entry.t_after),
                };
                return reply.push((requester, replay));
            }
        }
        // The forward chains behind our tenure whose own acquisition number is
        // `pred_acq`. If we have already released that tenure (or any newer
        // one), grant immediately from our latest release timestamp
        // (conservative: extra happens-before edges are harmless). Otherwise
        // the tenure is still in flight — possibly our grant for it has not
        // even arrived yet, since the manager advances the tail at forward
        // time: if we are currently blocked acquiring this very tenure — and
        // the requester queues until our release.
        let in_flight = matches!(
            wait,
            WaitSlot::Request { request: Payload::LockAcq { lock: l, acq_seq: s, .. }, .. }
                if *l == lock && *s == fwd.pred_acq
        );
        let grantable = fwd.pred_acq == u64::MAX
            || (!in_flight
                && match self.tenures.get(&lock) {
                    None => true, // no record: the tenure predates anything we know
                    Some(t) => fwd.pred_acq < t.acq || (fwd.pred_acq == t.acq && t.released),
                });
        if grantable {
            return self.grant_now(fwd, wn_table, ft, tracer, reply);
        }
        // One queued edge per acquisition: a retransmitted forward
        // replaces (or is subsumed by) the copy already queued, newest
        // generation winning, so retries can't grow the queue.
        let q = self.pending_grants.entry(lock).or_default();
        let same = |pg: &LockAction| pg.req.requester == requester && pg.req.acq_seq == acq_seq;
        if q.iter().any(|pg| same(pg) && pg.gen > fwd.gen) {
            return;
        }
        q.retain(|pg| !same(pg));
        q.push(fwd);
    }

    /// Process a barrier arrival at the manager (local or remote).
    pub(crate) fn barrier_manager_arrive(
        &mut self,
        arrival: Arrival,
        hists: &mut LatencyHists,
        ft: &mut FtSvc,
        reply: &mut Replies,
    ) {
        let t_arrive = Instant::now();
        let mgr = self.bar_mgr.as_mut();
        let outcome = mgr.expect("barrier arrival at non-manager").arrive(arrival);
        match outcome {
            ArriveOutcome::Pending => {}
            ArriveOutcome::Complete(rel) => {
                // Time the episode-completing arrival: join, dedupe and
                // per-participant delta fan-out all happen inside `arrive`.
                hists
                    .barrier_release_build
                    .record(t_arrive.elapsed().as_nanos() as u64);
                if let Some(logs) = ft.logs() {
                    logs.log_bar_mgr(MgrBarEntry {
                        episode: rel.episode,
                        arrival_vts: rel.arrival_vts.clone(),
                        result_vt: rel.vt.clone(),
                    });
                }
                for (p, wns) in rel.per_proc_wns.into_iter().enumerate() {
                    let release = Payload::BarrierRelease {
                        episode: rel.episode,
                        vt: rel.vt.clone(),
                        wns,
                    };
                    reply.push((p, release));
                }
            }
            ArriveOutcome::Resend { proc, release } => {
                let release = Payload::BarrierRelease {
                    episode: release.episode,
                    vt: release.vt.clone(),
                    wns: release.per_proc_wns[proc].clone(),
                };
                reply.push((proc, release));
            }
        }
    }

    /// The chain-report half of the recovery handshake, for the locks the
    /// recovering node `r` manages; `rel` is our release log, per grantee.
    ///
    /// This is also the *chain reset*: queued-but-ungranted forwards are
    /// discarded here, so the recovered manager rebuilds the chain only from
    /// acquisitions that materialized — our own delivered tenures and the
    /// grants in our release log. The discarded edges' requesters are still
    /// blocked and re-drive their acquisition (retry timer under chaos,
    /// NodeUp re-send otherwise), re-entering the chain behind a real
    /// tenure. Without the reset, stale pre-crash edges and the manager's
    /// fresh post-crash edges can order the same two waiters both ways round
    /// and deadlock the chain. This leans on a synchrony assumption: a
    /// crashed node stays dead longer than any message can be delayed (`run`
    /// refuses a chaos plan whose `max_delay` reaches the dead time), so by
    /// the time this handshake runs, no pre-crash forward is still in flight
    /// toward us.
    pub(crate) fn chain_report(&mut self, r: ProcId, rel: &[Vec<RelEntry>]) -> ChainReport {
        let (me, n) = (self.me, self.n);
        let managed_by_r = |lock: LockId| lock % n == r;
        self.pending_grants.retain(|&lock, _| !managed_by_r(lock));

        let mut chains: HashMap<LockId, (u64, ProcId, u64, Option<ProcId>)> = HashMap::new();
        let mut offer = |lock, gen, grantee, acq, granter| {
            if managed_by_r(lock) {
                let e = chains.entry(lock).or_insert((gen, grantee, acq, granter));
                if gen >= e.0 {
                    *e = (gen, grantee, acq, granter);
                }
            }
        };
        // Our newest delivered tenure per lock the recovering node manages.
        for (&lock, t) in &self.tenures {
            offer(lock, t.gen, me, t.acq, None);
        }
        // The newest grant per lock in our release log: issued, hence
        // replayable here if its delivery was lost.
        for (grantee, log) in rel.iter().enumerate() {
            for entry in log {
                offer(entry.lock, entry.gen, grantee, entry.acq_seq, Some(me));
            }
        }
        let chains = chains
            .into_iter()
            .map(|(lock, (gen, grantee, acq, granter))| (lock, gen, grantee, acq, granter));
        let floors = self.lock_chain_info.iter();
        (
            chains.collect(),
            floors
                .filter(|(&lock, _)| managed_by_r(lock))
                .map(|(&lock, &(gen, _, _))| (lock, gen))
                .collect(),
        )
    }

    /// The chain-rebuild half, for one peer's reply. `acq_mirror` (the
    /// grants we issued to `peer`, out of its acquire log) restores the
    /// chain info for them. Chain reset: the peer discarded its queued edges
    /// for our locks when serving the handshake and reports only
    /// materialized acquisitions (its delivered tenures, the grants in its
    /// release log). Rebuild tails from those; the discarded edges'
    /// requesters re-drive their acquisitions and are chained fresh. The
    /// floors keep fresh edges above every pre-crash generation, including
    /// the discarded ones.
    pub(crate) fn absorb_chain_report(
        &mut self,
        peer: ProcId,
        acq_mirror: &[RelEntry],
        (chains, floors): ChainReport,
    ) {
        for e in acq_mirror {
            self.note_grant(e.lock, e.gen, peer, e.acq_seq);
        }
        let (me, n) = (self.me, self.n);
        for (lock, gen, grantee, grantee_acq, granter) in chains {
            if lock % n == me {
                self.lock_mgr
                    .restore_chain(lock, gen, grantee, grantee_acq, granter);
            }
        }
        for (lock, gen) in floors {
            if lock % n == me {
                self.lock_mgr.bound_gen(lock, gen);
            }
        }
    }

    /// Once every peer has reported — our own chains: locks we manage where
    /// we granted (restored from the grantees' mirrors: every entry was a
    /// delivered grant), plus our own checkpoint-restored tenures of locks
    /// we manage (replayed tenures restore theirs as the replay reaches
    /// them).
    pub(crate) fn restore_own_chains(&mut self) {
        let (me, n) = (self.me, self.n);
        for (&lock, &(gen, grantee, grantee_acq)) in &self.lock_chain_info {
            if lock % n == me {
                self.lock_mgr
                    .restore_chain(lock, gen, grantee, grantee_acq, Some(me));
            }
        }
        for (&lock, t) in &self.tenures {
            if lock % n == me {
                self.lock_mgr.restore_chain(lock, t.gen, me, t.acq, None);
            }
        }
    }

    /// Replay the acquire of `lock` that takes the next sequence number:
    /// `granted` is `(generation, granter)` out of the granter's release
    /// log, or `None` for a self-grant, whose record died with us.
    pub(crate) fn replayed_acquire(&mut self, lock: LockId, granted: Option<(u64, ProcId)>) {
        let (me, acq) = (self.me, self.take_acq_seq());
        let g_run = self.tenures.get(&lock).map_or(0, |t| t.gen);
        self.enter(lock, acq, granted.map_or(g_run, |(gen, _)| gen));
        if lock % self.n != me {
            return;
        }
        let lock_mgr = &mut self.lock_mgr;
        match granted {
            // We manage this lock: our replayed tenure is a chain position
            // the handshake could not report (peers report their own tenures
            // and issued grants, not ours).
            Some((gen, granter)) => lock_mgr.restore_chain(lock, gen, me, acq, Some(granter)),
            // We also manage this lock: our self-grant proves we were the
            // chain tail *at this tenure*. A self-grant's generation died
            // with the old manager incarnation, but the run of consecutive
            // self-granted tenures extends back to our newest peer-granted
            // tenure (generation `g_run`), and any tenure after the run was
            // granted *by us* — restored from our mirrored release log with
            // its real, higher generation. So a restored tail newer than
            // `g_run` means the chain moved past the run (claiming the tail
            // would let our post-recovery acquire self-grant without the
            // peers' write notices); anything else is stale and the run's
            // end is the true tail.
            None => {
                let moved_past = lock_mgr
                    .tail_gen_of(lock)
                    .is_some_and(|g| g > g_run && lock_mgr.tail_of(lock) != Some(me));
                if !moved_past {
                    lock_mgr.force_tail(lock, me, acq);
                }
            }
        }
    }

    /// Restore the barrier manager (node 0, at `go_live`); `last` is the
    /// joined timestamp of the last completed episode. Its arrival
    /// timestamps and notice set are rebuilt conservatively (zero arrivals,
    /// all notices the joined timestamp covers); receivers skip notices they
    /// already cover, so extras are harmless.
    pub(crate) fn restore_barrier_manager(
        &mut self,
        last: Option<&VectorClock>,
        wn_table: &WnTable,
    ) {
        let zero = VectorClock::zero(self.n);
        let mut mgr = BarrierManager::new(self.n);
        let last = last.map(|vt| {
            let all_wns = wn_table.missing_between(&zero, vt);
            (vt.clone(), vec![zero.clone(); self.n], all_wns)
        });
        mgr.restore(self.bar_episode, last);
        self.bar_mgr = Some(mgr);
    }
}

/// The forward that carries a manager decision to the chain predecessor.
fn lock_forward(a: LockAction) -> Payload {
    Payload::LockForward {
        lock: a.lock,
        requester: a.req.requester,
        acq_seq: a.req.acq_seq,
        gen: a.gen,
        pred_acq: a.pred_acq,
        vt: a.req.vt,
    }
}

/// A crashed peer restarted: re-issue the forwards it lost.
pub(crate) fn reforward_to(st: &mut NodeState, node: ProcId) {
    let actions = st.sync.lock_mgr.on_node_up(node);
    for a in actions {
        st.send(a.grant_from, lock_forward(a));
    }
}

/// The module's slice of the message kinds, under the big lock.
pub(crate) fn handle(st: &mut NodeState, from: ProcId, payload: Payload) {
    match payload {
        // The manager routes the request to the chain tail. When that is
        // this node, the forward is a send to itself: it never reaches the
        // wire and is granted below, in this same handler call.
        Payload::LockAcq { lock, acq_seq, vt } => {
            debug_assert_eq!(lock % st.n, st.me, "lock request at wrong manager");
            let req = AcqReq {
                requester: from,
                acq_seq,
                vt,
            };
            if let Some(a) = st.sync.lock_mgr.on_request(lock, req) {
                st.send(a.grant_from, lock_forward(a));
            }
        }
        Payload::LockForward {
            lock,
            requester,
            acq_seq,
            gen,
            pred_acq,
            vt,
        } => {
            let req = AcqReq {
                requester,
                acq_seq,
                vt,
            };
            let grant_from = st.me;
            let a = LockAction {
                lock,
                gen,
                pred_acq,
                grant_from,
                req,
            };
            let mut out = Vec::new();
            st.sync
                .handle_forward(a, &st.wait, &st.wn_table, &mut st.ft, &st.tracer, &mut out);
            st.send_all(out);
        }
        Payload::BarrierArrive {
            episode,
            vt,
            own_wns,
            batch,
        } => {
            debug_assert!(batch.is_none(), "`handle_msg` serves a batch first");
            let arrival = Arrival {
                proc: from,
                episode,
                vt,
                own_wns,
            };
            let mut out = Vec::new();
            st.sync
                .barrier_manager_arrive(arrival, &mut st.hists, &mut st.ft, &mut out);
            st.send_all(out);
        }
        // A grant or release nobody waits for is a stale retransmission.
        grant_or_release => {
            if st.wait.deposit(from, grant_or_release).is_some() {
                st.dup_suppressed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtConfig;
    use crate::ft::FtState;
    use dsm_storage::{DiskModel, StableStore};
    use hlrc::WnDelta;
    use std::sync::Arc;

    fn ft_svc(logging: bool) -> FtSvc {
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let state = logging.then(|| FtState::new(0, 3, FtConfig::default(), store));
        FtSvc::new(0, 3, state, None)
    }

    /// A forward for lock 9 from node 1's acquisition `acq_seq`.
    fn forward_behind(pred_acq: u64, acq_seq: u64, vt: VectorClock) -> LockAction {
        LockAction {
            lock: 9,
            gen: 10,
            pred_acq,
            grant_from: 0,
            req: AcqReq {
                requester: 1,
                acq_seq,
                vt,
            },
        }
    }

    /// Drive `fwd` at `sync` alone — no node, no endpoint — and return what
    /// it answered.
    fn drive(sync: &mut SyncSvc, ft: &mut FtSvc, wait: &WaitSlot, fwd: LockAction) -> Replies {
        let mut out = Vec::new();
        let tracer = NodeTracer::disabled();
        sync.handle_forward(fwd, wait, &WnTable::new(), ft, &tracer, &mut out);
        out
    }

    fn grant(acq_seq: u64, vt: VectorClock) -> (ProcId, Payload) {
        let grant = Payload::LockGrant {
            lock: 9,
            acq_seq,
            gen: 10,
            vt,
            wns: WnDelta::empty(),
        };
        (1, grant)
    }

    #[test]
    fn forward_behind_released_tenure_grants_immediately() {
        let mut sync = SyncSvc::new(0, 3);
        let released_at = VectorClock::from_vec(vec![2, 0, 0]);
        sync.enter(9, 4, 7); // our acquisition #4 ...
        sync.leave(9, released_at.clone()); // ... released
        let fwd = forward_behind(4, 0, VectorClock::zero(3));
        let out = drive(&mut sync, &mut ft_svc(false), &WaitSlot::None, fwd);
        assert_eq!(
            out,
            [grant(0, released_at)],
            "released tenure must grant now"
        );
        assert!(sync.pending_grants.is_empty());
        assert_eq!(sync.lock_chain_info[&9], (10, 1, 0));
    }

    #[test]
    fn forward_behind_unreleased_tenure_queues() {
        let mut sync = SyncSvc::new(0, 3);
        sync.enter(9, 4, 7); // still holding acquisition #4
        let fwd = forward_behind(4, 0, VectorClock::zero(3));
        let out = drive(&mut sync, &mut ft_svc(false), &WaitSlot::None, fwd.clone());
        assert!(out.is_empty());
        assert_eq!(sync.pending_grants[&9], [fwd]);
        // Its release serves it, and nothing chained behind a later tenure.
        sync.pending_grants
            .get_mut(&9)
            .unwrap()
            .push(forward_behind(5, 3, VectorClock::zero(3)));
        sync.leave(9, VectorClock::zero(3));
        let due = sync.take_due_grants(9);
        assert_eq!(due.len(), 1);
        let later = &sync.pending_grants[&9];
        assert_eq!((due[0].req.acq_seq, later[0].req.acq_seq), (0, 3));
    }

    #[test]
    fn forward_behind_in_flight_acquire_queues() {
        // The grant for our own acquisition #5 has not arrived yet, but the
        // manager already chained a requester behind it.
        let mut sync = SyncSvc::new(0, 3);
        sync.enter(9, 4, 7);
        sync.leave(9, VectorClock::zero(3));
        let acquiring = Payload::LockAcq {
            lock: 9,
            acq_seq: 5,
            vt: VectorClock::zero(3),
        };
        let wait = crate::runtime::node::tests::waiting_on(1, acquiring);
        let fwd = forward_behind(5, 0, VectorClock::zero(3));
        let out = drive(&mut sync, &mut ft_svc(false), &wait, fwd);
        assert!(out.is_empty(), "in-flight tenure must queue");
        assert_eq!(sync.pending_grants[&9].len(), 1);
    }

    #[test]
    fn chain_start_forward_always_grants() {
        let mut sync = SyncSvc::new(0, 3);
        let fwd = forward_behind(u64::MAX, 0, VectorClock::zero(3));
        let out = drive(&mut sync, &mut ft_svc(false), &WaitSlot::None, fwd);
        assert_eq!(out, [grant(0, VectorClock::zero(3))]);
        assert!(sync.pending_grants.is_empty());
    }

    #[test]
    fn forward_retransmission_replays_logged_grant() {
        let mut sync = SyncSvc::new(0, 3);
        let mut ft = ft_svc(true);
        sync.enter(9, 0, 0);
        sync.leave(9, VectorClock::from_vec(vec![3, 0, 0]));
        // First forward: grants and logs.
        let fwd = forward_behind(0, 7, VectorClock::zero(3));
        let first = drive(&mut sync, &mut ft, &WaitSlot::None, fwd);
        let logged = ft.logs().unwrap().find_rel(1, 7).cloned().unwrap();
        // Retransmission (zero-length vt, as after a crash): identical grant
        // from the log, no new rel entry.
        let again = forward_behind(0, 7, VectorClock::zero(0));
        assert_eq!(drive(&mut sync, &mut ft, &WaitSlot::None, again), first);
        let logs = ft.logs().unwrap();
        assert_eq!(logs.rel[1].len(), 1);
        assert_eq!(logs.find_rel(1, 7).unwrap(), &logged);
    }

    #[test]
    fn a_crash_leaves_what_new_builds_and_a_restart_reads_the_image_back() {
        let mut sync = SyncSvc::new(1, 3);
        for _ in 0..4 {
            sync.take_acq_seq();
        }
        sync.crossed();
        sync.enter(4, 2, 9);
        sync.enter(5, 3, 1);
        sync.leave(5, VectorClock::from_vec(vec![1, 1, 0]));
        let mut fwd = forward_behind(2, 1, VectorClock::zero(3));
        fwd.lock = 4;
        drive(&mut sync, &mut ft_svc(false), &WaitSlot::None, fwd);
        assert!(!sync.pending_grants.is_empty() && !sync.lock_chain_info.is_empty());
        let request = AcqReq {
            requester: 2,
            acq_seq: 0,
            vt: VectorClock::zero(3),
        };
        sync.lock_mgr.on_request(4, request);
        let mut image = CheckpointBlob::genesis(3);
        sync.save_into(&mut image);

        sync.fail_stop();
        assert_eq!(sync, SyncSvc::new(1, 3));

        sync.restart_from(&image);
        assert!(sync.holds(4) && !sync.holds(5));
        assert_eq!((sync.acq_seq_next(), sync.bar_episode()), (4, 1));
        let mut again = CheckpointBlob::genesis(3);
        sync.save_into(&mut again);
        image.tenures.sort_unstable();
        again.tenures.sort_unstable();
        assert_eq!(again, image);
        assert!(sync.pending_grants.is_empty() && sync.lock_chain_info.is_empty());
    }
}
