//! Per-node runtime state and the protocol service loop.
//!
//! Each node is a pair of threads sharing a [`NodeState`] behind a mutex,
//! each reading one lane of the node's endpoint: the *service* thread
//! receives the peers' requests and advances the protocol while the
//! application computes (the paper's VMMC handlers); the *application*
//! thread runs user code and, when an operation needs remote data, blocks
//! on the reply lane and handles the reply itself — as the paper's
//! requester notices a page or grant landing in its own memory. Both run
//! what they receive through the same [`dispatch`].
//!
//! The big state lock is *not* the only lock (see DESIGN.md "Hot path").
//! Home-page state lives in the sharded [`hlrc::HomeStore`] and
//! lock/barrier-manager state in the small [`SyncState`] lock, and the one
//! handler for `PageReq`/`PageBatchReq`/`DiffBatch`/`LockAcq`
//! ([`HomeSvc::serve`]) needs nothing else — so the service loop runs it
//! without the big lock while the application computes under it. The big
//! lock keeps the rarely-contended rest: mode, waits, FT logs, recovery
//! state. Lock order is big → sync → shard; shard locks are leaves.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_member::{Action as MemberAction, Detector, MemberConfig};
use dsm_net::{Endpoint, Event};
use dsm_page::{Diff, Interval, PageId, ProcId, VectorClock};
use dsm_trace::{EventKind, Histogram, LatencyHists, NodeTracer};
use hlrc::barrier::{Arrival, ArriveOutcome, BarrierManager};
use hlrc::locks::{AcqReq, LockAction, LockManagerTable};
use hlrc::{
    ApplyOutcome, FetchOutcome, Have, HomeStore, LockId, PageBody, PageState, PageTable,
    ReadyFetch, WaitingFetch, WnDelta, WnTable, WriteNotice,
};
use parking_lot::Mutex;

use crate::ft::ckpt::{self, CheckpointBlob, RetainedCkpt};
use crate::ft::logs::{MgrBarEntry, RelEntry};
use crate::ft::recovery::{RecAsk, ReplayState};
use crate::ft::FtState;
use crate::msg::{Msg, Payload, Piggy};
use crate::runtime::outbox::DiffOutbox;
use crate::stats::PrefetchCounts;

/// Panic payload used to simulate a fail-stop crash of the application
/// thread at a DSM operation boundary.
#[derive(Debug)]
pub struct CrashSignal;

/// Node liveness as seen by its own runtime. The discriminant is the
/// encoding of the lock-free [`NodeState::mode_flag`] mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Mode {
    Normal,
    Crashed,
    Recovering,
}

/// Lock-manager and barrier-manager state, behind its own small lock.
///
/// `LockAcq` routing (manager forwards to the chain tail) only needs this
/// state, so the service thread can route forwards while the application
/// holds the big lock. The application thread takes this lock
/// *after* the big lock (big → sync); neither is ever taken while a
/// home-store shard lock is held.
pub(crate) struct SyncState {
    pub lock_mgr: LockManagerTable,
    pub bar_mgr: Option<BarrierManager>,
}

/// The membership/failure-detection runtime of one node: the heartbeat
/// [`Detector`] plus its latency samples, each behind its own small lock so
/// that the ticker thread and the service thread drive the detector without
/// ever touching the big state lock (heartbeat processing must not stall
/// behind a computing application thread, or peers falsely suspect us).
/// The sample histograms are folded into the node's [`LatencyHists`] at
/// teardown. Lock order: never hold `det` while taking the big lock is
/// *allowed* (big → det at the crash path), so action application always
/// drops the detector guard first.
pub(crate) struct MemberRuntime {
    pub det: Mutex<Detector>,
    /// Heartbeat round-trip samples (ns).
    pub rtt: Mutex<Histogram>,
    /// First-suspicion-to-confirmed-down samples (ns).
    pub susp: Mutex<Histogram>,
}

/// A prefetch batch entry: one invalidated remote page with a batched
/// fetch in flight to its home.
#[derive(Debug, Clone)]
pub(crate) struct PrefetchEntry {
    /// Correlation id of the `PageBatchReq` that covers this page.
    pub req_id: u64,
    /// The page's home (retransmission target on `NodeUp`).
    pub home: ProcId,
}

/// A lock grant in flight to the application thread.
#[derive(Debug, Clone)]
pub(crate) struct GrantData {
    pub lock: LockId,
    pub acq_seq: u64,
    pub gen: u64,
    pub granter: ProcId,
    pub vt: VectorClock,
    pub wns: Vec<WriteNotice>,
}

/// A barrier release in flight to the application thread.
#[derive(Debug, Clone)]
pub(crate) struct ReleaseData {
    pub episode: u64,
    pub vt: VectorClock,
    pub wns: WnDelta,
}

/// What the application thread is currently blocked on.
#[derive(Debug)]
pub(crate) enum WaitSlot {
    None,
    Page {
        page: PageId,
        req_id: u64,
        home: ProcId,
        needed: VectorClock,
        /// The reply's version and body (a shared page buffer, installed
        /// without copying, or the diffs the kept copy is missing).
        reply: Option<(VectorClock, PageBody)>,
    },
    Lock {
        lock: LockId,
        acq_seq: u64,
        manager: ProcId,
        req_vt: VectorClock,
        grant: Option<GrantData>,
    },
    Barrier {
        episode: u64,
        arrive_vt: VectorClock,
        own_wns: WnDelta,
        release: Option<ReleaseData>,
    },
    /// Recovery: collecting the replies `ask` describes; `owed` are the
    /// peers that have not answered yet. Nothing is retransmitted for it —
    /// the recovery handshake is the fabric's reliable control plane.
    Recovery {
        ask: RecAsk,
        owed: Vec<ProcId>,
    },
}

impl WaitSlot {
    /// Does the slot hold an answer the application thread has yet to take?
    fn answered(&self) -> bool {
        matches!(
            self,
            WaitSlot::Page { reply: Some(_), .. }
                | WaitSlot::Lock { grant: Some(_), .. }
                | WaitSlot::Barrier {
                    release: Some(_),
                    ..
                }
        )
    }
}

/// A forwarded acquire queued while this node still holds the lock.
#[derive(Debug, Clone)]
pub(crate) struct PendingGrant {
    pub requester: ProcId,
    pub acq_seq: u64,
    pub gen: u64,
    /// Our tenure (by our own acquisition number) this grant chains behind.
    pub pred_acq: u64,
    pub req_vt: VectorClock,
}

/// The mutable state of one node.
pub(crate) struct NodeState {
    pub me: ProcId,
    pub n: usize,
    pub mode: Mode,
    /// Lock-free mirror of `mode`: the service loop's `live` fence. Only
    /// [`NodeState::set_mode`] writes it (always under the big lock).
    pub mode_flag: Arc<AtomicU8>,
    pub pt: PageTable,
    pub vt: VectorClock,
    pub wn_table: WnTable,
    /// Lock- and barrier-manager state (its own small lock; big → sync).
    pub sync: Arc<Mutex<SyncState>>,
    /// Latest tenure per lock: (our own acquisition sequence number,
    /// released?). Deterministic local knowledge, reconstructed exactly by
    /// checkpoint restore plus replay — the basis of forward gating. The
    /// locks this node holds are the unreleased tenures.
    pub tenure: HashMap<LockId, (u64, bool)>,
    /// Grant generation of the latest tenure per lock (the manager-issued
    /// edge number that granted it). Reported to a recovering manager so
    /// it can order delivered tenures; checkpointed with `tenure`. Absent
    /// (treated as 0) only for self-granted replayed tenures, whose
    /// generation died with the old manager incarnation — an underestimate
    /// is safe because generations are monotone along the chain.
    pub tenure_gen: HashMap<LockId, u64>,
    pub last_release_vt: HashMap<LockId, VectorClock>,
    pub pending_grants: HashMap<LockId, Vec<PendingGrant>>,
    /// Highest grant generation this node issued or queued, per lock, with
    /// the grantee and the grantee's acquisition sequence number (reported
    /// to a recovering manager for chain rebuild).
    pub lock_chain_info: HashMap<LockId, (u64, ProcId, u64)>,
    pub wait: WaitSlot,
    /// Recovery replies deposited by the service thread while recovering.
    pub rec_inbox: Vec<(ProcId, Payload)>,
    /// Non-recovery messages deferred while recovering.
    pub backlog: Vec<(ProcId, Payload)>,
    /// Messages referencing pages this node has not allocated yet (SPMD
    /// allocation is local, so an eager peer can request a page before our
    /// application thread reaches the corresponding alloc). Replayed by
    /// [`crate::Process::alloc`].
    pub pending_unalloc: Vec<(ProcId, Payload)>,
    /// Remote pages with a batched fetch in flight: issued right after an
    /// acquire or barrier invalidated them, or by a miss on a page that
    /// prefetch had left out. A first touch of one of these waits for the
    /// batch reply instead of sending its own `PageReq`.
    pub prefetch: HashMap<PageId, PrefetchEntry>,
    /// What was prefetched, what of it was used and what the filter left
    /// out, over all incarnations (for the node report).
    pub prefetch_counts: PrefetchCounts,
    pub acq_seq_next: u64,
    pub bar_episode: u64,
    pub req_id_next: u64,
    /// Own write notices since the last barrier arrival.
    pub wn_since_barrier: Vec<WriteNotice>,
    /// Allocation cursor (page index of the next allocation).
    pub alloc_cursor: u32,
    pub ft: Option<FtState>,
    pub replay: Option<ReplayState>,
    /// Protocol handler time, attributed per message kind: the service
    /// thread's (folded in when the service loop exits) and the application
    /// thread's for the replies it handles inside its own waits.
    pub svc_time_by_kind: HashMap<&'static str, Duration>,
    /// The application thread's share of `svc_time_by_kind` since it last
    /// closed a page, lock or barrier wait — which takes it, so that the
    /// time is counted as handler time and not as waiting as well.
    pub own_svc: Duration,
    pub shutdown: bool,
    /// DSM operations executed (crash-injection clock).
    pub ops: u64,
    /// Scripted failures (ascending op counts).
    pub crash_queue: Vec<u64>,
    pub recoveries: u64,
    pub ep: Arc<Endpoint<Msg>>,
    /// Membership/failure-detection runtime; `None` keeps orchestrated
    /// recovery (perfect-knowledge `NodeUp` broadcasts).
    pub member: Option<Arc<MemberRuntime>>,
    /// Request/diff retransmission timeout; `Some` switches the retry layer
    /// on (set together with `member`).
    pub retry_after: Option<Duration>,
    /// Requests and diff batches retransmitted after a timeout.
    pub retransmits: u64,
    /// Duplicate or stale deliveries suppressed by the idempotency gates
    /// (grant/release/ack dedup, superseded prefetch replies).
    pub dup_suppressed: u64,
    /// The retry layer's stop-and-wait outbox of unacknowledged diff
    /// batches (empty when the retry layer is off).
    pub diffs: DiffOutbox,
    /// Breakdown accumulated across this node's incarnations.
    pub breakdown_acc: crate::stats::Breakdown,
    /// Protocol event tracer (a no-op handle when tracing is disabled).
    pub tracer: NodeTracer,
    /// Latency histograms accumulated across this node's incarnations.
    pub hists: LatencyHists,
    /// Flow id of the message currently being handled (0 outside a
    /// handler). Every message [`NodeState::send`] emits while a handler
    /// runs is causally parented on this flow, which is what lets the
    /// exporter stitch request → forward → grant chains across nodes.
    pub cur_flow: u64,
    /// Test-only (set via `ClusterConfig::inject_stale_apply`): one-shot
    /// trigger that re-emits a `DiffApply` event with an already-applied
    /// interval, so tests can prove the invariant monitor catches it.
    pub inject_stale_apply: Option<Arc<AtomicBool>>,
}

/// Everything shared between a node's threads.
pub(crate) struct NodeShared {
    pub state: Mutex<NodeState>,
    pub me: ProcId,
    pub n: usize,
    /// The run's `FTDSM_SEED`, for diagnostics.
    pub seed: u64,
}

impl NodeState {
    /// A node at the start of a run — the only field-by-field construction.
    /// `membership` switches the failure detector and the retry layer on,
    /// together. A scripted `crash_queue` and the monitor's
    /// `inject_stale_apply` trigger are set by the one caller that has them.
    pub(crate) fn new(
        me: ProcId,
        n: usize,
        page_size: usize,
        ep: Arc<Endpoint<Msg>>,
        ft: Option<FtState>,
        tracer: NodeTracer,
        membership: Option<&MemberConfig>,
    ) -> Self {
        NodeState {
            me,
            n,
            mode: Mode::Normal,
            mode_flag: Arc::new(AtomicU8::new(Mode::Normal as u8)),
            pt: PageTable::new(me, n, page_size),
            vt: VectorClock::zero(n),
            wn_table: WnTable::new(),
            sync: Arc::new(Mutex::new(SyncState {
                lock_mgr: LockManagerTable::new(me),
                bar_mgr: (me == 0).then(|| BarrierManager::new(n)),
            })),
            tenure: HashMap::new(),
            tenure_gen: HashMap::new(),
            last_release_vt: HashMap::new(),
            pending_grants: HashMap::new(),
            lock_chain_info: HashMap::new(),
            wait: WaitSlot::None,
            rec_inbox: Vec::new(),
            backlog: Vec::new(),
            pending_unalloc: Vec::new(),
            prefetch: HashMap::new(),
            prefetch_counts: Default::default(),
            acq_seq_next: 0,
            bar_episode: 0,
            req_id_next: 0,
            wn_since_barrier: Vec::new(),
            alloc_cursor: 0,
            ft,
            replay: None,
            svc_time_by_kind: HashMap::new(),
            own_svc: Duration::ZERO,
            shutdown: false,
            ops: 0,
            crash_queue: Vec::new(),
            recoveries: 0,
            ep,
            member: membership.map(|cfg| {
                Arc::new(MemberRuntime {
                    det: Mutex::new(Detector::new(me, n, cfg.clone(), Instant::now())),
                    rtt: Mutex::new(Histogram::new()),
                    susp: Mutex::new(Histogram::new()),
                })
            }),
            retry_after: membership.map(|cfg| cfg.retry_after),
            retransmits: 0,
            dup_suppressed: 0,
            diffs: DiffOutbox::new(n),
            breakdown_acc: Default::default(),
            tracer,
            hists: Default::default(),
            cur_flow: 0,
            inject_stale_apply: None,
        }
    }

    /// Bytes of shared memory allocated so far (page granular).
    pub(crate) fn shared_bytes(&self) -> u64 {
        (self.pt.len() * self.pt.page_size()) as u64
    }

    /// Record a grant this node issued or queued; per lock the highest
    /// generation wins (see [`NodeState::lock_chain_info`]).
    pub(crate) fn note_grant(&mut self, lock: LockId, gen: u64, grantee: ProcId, acq_seq: u64) {
        let e = self
            .lock_chain_info
            .entry(lock)
            .or_insert((gen, grantee, acq_seq));
        if gen >= e.0 {
            *e = (gen, grantee, acq_seq);
        }
    }

    /// Does this node hold `lock`? (Its latest tenure is unreleased.)
    pub(crate) fn holds(&self, lock: LockId) -> bool {
        matches!(self.tenure.get(&lock), Some(&(_, false)))
    }

    /// Fail-stop: the node goes silent and everything volatile is gone. This
    /// and [`NodeState::restart_from`] are the only code that clears or
    /// restores protocol state for a crash; the destructuring is exhaustive
    /// so that a new field does not compile until it is classified here as
    /// lost or surviving, and there as restored or not.
    pub(crate) fn fail_stop(&mut self) {
        self.set_mode(Mode::Crashed);
        // Fence the service loop's lock-free handler: after the mode flag
        // flips, drain the sync and shard locks so nothing that started
        // before the flip is still in flight.
        drop(self.sync.lock());
        self.pt.home_store().quiesce();
        let NodeState {
            // Survive — identity, configuration and handles to the outside.
            me,
            n,
            ep: _,
            member: _,
            retry_after: _,
            tracer: _,
            inject_stale_apply: _,
            shutdown: _,
            // Survive — the failure script and what the run reports,
            // accumulated across incarnations.
            crash_queue: _,
            ops: _,
            recoveries: _,
            retransmits: _,
            dup_suppressed: _,
            prefetch_counts: _,
            svc_time_by_kind: _,
            own_svc: _,
            breakdown_acc: _,
            hists: _,
            // Survives — ids keep counting, so an answer addressed to the
            // previous incarnation never matches a new request.
            req_id_next: _,
            // Set above.
            mode: _,
            mode_flag: _,
            // Survive in part. The page *slots* stay allocated: replay
            // re-runs the same allocations over them. Home copies and the
            // volatile half of the FT state are overwritten from stable
            // storage by `restart_from`; remote copies (kept ones and their
            // versions included), parked fetches (requesters retransmit on
            // NodeUp) and the homed pages' diff rings are lost now.
            pt,
            ft: _,
            // Lost — the rest.
            vt,
            wn_table,
            sync,
            tenure,
            tenure_gen,
            last_release_vt,
            pending_grants,
            lock_chain_info,
            wait,
            rec_inbox,
            backlog,
            pending_unalloc,
            prefetch,
            acq_seq_next,
            bar_episode,
            wn_since_barrier,
            alloc_cursor,
            replay,
            diffs,
            cur_flow,
        } = self;
        pt.reset_for_restart(&[]);
        *vt = VectorClock::zero(*n);
        *wn_table = WnTable::new();
        {
            // The barrier manager (node 0) comes back in `go_live`, from
            // the collected barrier logs.
            let mut sync = sync.lock();
            sync.lock_mgr = LockManagerTable::new(*me);
            sync.bar_mgr = None;
        }
        tenure.clear();
        tenure_gen.clear();
        last_release_vt.clear();
        pending_grants.clear();
        lock_chain_info.clear();
        *wait = WaitSlot::None;
        rec_inbox.clear();
        backlog.clear();
        pending_unalloc.clear();
        prefetch.clear();
        *acq_seq_next = 0;
        *bar_episode = 0;
        wn_since_barrier.clear();
        *alloc_cursor = 0;
        *replay = None;
        diffs.clear();
        *cur_flow = 0;
    }

    /// Restart from `image` — the last checkpoint (see
    /// [`crate::ft::ckpt::restart_image`]) or, when there is none, the
    /// genesis blob — after [`NodeState::fail_stop`] wiped the node.
    /// `window` is the retained-checkpoint index of the blobs still on
    /// stable storage. What is neither restored here nor a survivor is
    /// rebuilt by `run_recovery` from the peers' logs and by replay.
    pub(crate) fn restart_from(&mut self, image: &CheckpointBlob, window: Vec<RetainedCkpt>) {
        let NodeState {
            // Restored from the image.
            vt,
            acq_seq_next,
            bar_episode,
            tenure,
            tenure_gen,
            last_release_vt,
            pt,
            // Restored from stable storage: the FT state and, out of its
            // saved logs, our own write notices.
            ft,
            wn_table,
            wn_since_barrier,
            // Read.
            me,
            n,
            mode,
            // Rebuilt from the peers' logs (`run_recovery`).
            sync: _,
            lock_chain_info: _,
            replay: _,
            // Re-created by replay and live execution.
            pending_grants: _,
            wait: _,
            rec_inbox: _,
            backlog: _,
            pending_unalloc: _,
            prefetch: _,
            alloc_cursor: _,
            diffs: _,
            cur_flow: _,
            // Survivors (see `fail_stop`).
            mode_flag: _,
            req_id_next: _,
            ep: _,
            member: _,
            retry_after: _,
            tracer: _,
            inject_stale_apply: _,
            shutdown: _,
            crash_queue: _,
            ops: _,
            recoveries: _,
            retransmits: _,
            dup_suppressed: _,
            prefetch_counts: _,
            svc_time_by_kind: _,
            own_svc: _,
            breakdown_acc: _,
            hists: _,
        } = self;
        assert_eq!(*mode, Mode::Recovering, "restart outside Recovering mode");
        *vt = image.tckp.clone();
        *acq_seq_next = image.acq_seq_next;
        *bar_episode = image.bar_episode;
        *tenure = image
            .tenures
            .iter()
            .map(|&(l, a, _, r)| (l, (a, r)))
            .collect();
        *tenure_gen = image.tenures.iter().map(|&(l, _, g, _)| (l, g)).collect();
        *last_release_vt = image.last_release_vts.iter().cloned().collect();
        // Homed pages: the image's copy, or zeros for a page no checkpoint
        // has carried yet.
        pt.reset_for_restart(&image.needed);
        let zeros = vec![0u8; pt.page_size()];
        for p in pt.homed_pages() {
            pt.restore_home_page(p, &zeros, VectorClock::zero(*n));
        }
        for (p, v, bytes) in &image.home_pages {
            pt.restore_home_page(*p, bytes, v.clone());
        }

        let ft = ft.as_mut().expect("recovery requires FT");
        ft.restart_from(*me, *n, image, window);
        // Own write notices back into the table and the since-barrier
        // buffer.
        for e in &ft.logs.wn {
            let interval = Interval {
                proc: *me,
                seq: e.seq,
            };
            wn_table.insert_parts(interval, e.pages.clone());
            if e.seq > image.last_bar_arrive_seq {
                wn_since_barrier.push(WriteNotice {
                    interval,
                    pages: e.pages.clone(),
                });
            }
        }
        wn_since_barrier.sort_by_key(|w| w.interval.seq);
    }

    /// Change the node's mode, keeping the service loop's atomic mirror in
    /// step. Every transition happens under the big lock; the store-then-
    /// quiesce fencing on the crash path is what makes the mirror safe to
    /// read without it (see DESIGN.md).
    pub(crate) fn set_mode(&mut self, m: Mode) {
        self.mode = m;
        self.mode_flag.store(m as u8, Ordering::SeqCst);
    }

    /// Send a protocol message with the FT piggyback attached (when it
    /// carries news: a checkpoint timestamp the destination hasn't seen,
    /// `p0.v` hints, or — on barrier releases — the gossip table).
    ///
    /// A message to this node itself (it manages the lock or the barrier,
    /// or it is the next granter in a lock chain) never reaches the wire:
    /// its handler runs here, under the big lock the caller already holds,
    /// with no piggyback, inside the current causal flow. A re-send dedups
    /// by `acq_seq`/`episode` exactly as it would at a remote manager.
    pub(crate) fn send(&mut self, to: ProcId, payload: Payload) {
        if to == self.me {
            return handle_msg(self, to, payload);
        }
        let gossip = matches!(payload, Payload::BarrierRelease { .. });
        let piggy = self.make_piggy(to, gossip);
        let ep = Arc::clone(&self.ep);
        ep.send(to, Msg::with_parent(payload, piggy, self.cur_flow));
    }

    fn make_piggy(&mut self, to: ProcId, gossip: bool) -> Option<Piggy> {
        let me = self.me;
        let ft = self.ft.as_mut()?;
        let mut p0v = Vec::new();
        // `p0.v` hints exist only once a checkpoint is retained; until then
        // (and in base-HLRC runs) no send pays the walk over the page slots.
        let homed = if ft.retained.is_empty() {
            Vec::new()
        } else {
            self.pt.homed_pages()
        };
        if !homed.is_empty() {
            let batch = ft.cfg.piggy_page_batch;
            let start = ft.piggy_cursor % homed.len();
            for k in 0..homed.len() {
                if p0v.len() >= batch {
                    break;
                }
                let page = homed[(start + k) % homed.len()];
                ft.piggy_cursor = (start + k + 1) % homed.len();
                if !self.pt.home_writers_contain(page, to) {
                    continue;
                }
                if let Some(v) = ft.cover_version(me, page) {
                    let bound = v.get(to);
                    if bound > 0 && ft.p0v_sent.get(&(page, to)).copied().unwrap_or(0) < bound {
                        ft.p0v_sent.insert((page, to), bound);
                        p0v.push((page, bound));
                    }
                }
            }
        }
        let news = ft.piggy_sent[to] != ft.ckpt_seq;
        let table = if gossip {
            ft.gossip_table(me)
        } else {
            Vec::new()
        };
        if !news && p0v.is_empty() && table.is_empty() {
            return None;
        }
        ft.piggy_sent[to] = ft.ckpt_seq;
        Some(Piggy {
            tckp: ft.last_ckpt_vt.clone(),
            ckpt_seq: ft.ckpt_seq,
            ckpt_episode: ft.last_ckpt_episode,
            p0v,
            table,
        })
    }

    /// Deposit a grant for the blocked application thread.
    pub(crate) fn deposit_grant(&mut self, g: GrantData) {
        if let WaitSlot::Lock { acq_seq, grant, .. } = &mut self.wait {
            if *acq_seq == g.acq_seq && grant.is_none() {
                *grant = Some(g);
                return;
            }
        }
        // Anything else is a stale retransmission: drop.
        self.dup_suppressed += 1;
    }

    /// Deposit a barrier release.
    pub(crate) fn deposit_release(&mut self, r: ReleaseData) {
        if let WaitSlot::Barrier {
            episode, release, ..
        } = &mut self.wait
        {
            if *episode == r.episode && release.is_none() {
                *release = Some(r);
                return;
            }
        }
        self.dup_suppressed += 1;
    }

    /// Deposit a page reply (the shared buffer, never a copy). Returns the
    /// reply back when no blocked fetch consumed it — the caller then
    /// offers it to the prefetch tracker (a home answers a parked batched
    /// page with an individual `PageReply` carrying the batch's `req_id`).
    pub(crate) fn deposit_page(
        &mut self,
        req_id: u64,
        version: VectorClock,
        body: PageBody,
    ) -> Option<(VectorClock, PageBody)> {
        if let WaitSlot::Page {
            req_id: want,
            reply,
            ..
        } = &mut self.wait
        {
            if *want == req_id && reply.is_none() {
                *reply = Some((version, body));
                return None;
            }
        }
        Some((version, body))
    }

    /// For a thread other than the application thread, after it ran a
    /// handler under the big lock: if that answered the application thread's
    /// wait (a self-send — the barrier completed at this manager, a forward
    /// named this node granter of its own request), wake it.
    pub(crate) fn poke_if_answered(&self) {
        if self.wait.answered() {
            self.ep.poke();
        }
    }
}

/// End the current interval: turn twins into diffs, publish write notices,
/// send diffs to remote homes, and (FT) log everything.
///
/// Returns (protocol time, logging time) spent.
pub(crate) fn end_interval(st: &mut NodeState) -> (Duration, Duration) {
    // O(1) early exit: one vec emptiness check plus one atomic load — the
    // common no-writes release pays no slot walk and takes no shard lock.
    if !st.pt.has_writes() {
        return (Duration::ZERO, Duration::ZERO);
    }
    let t0 = Instant::now();
    let me = st.me;
    let iv = st.vt.tick(me);
    let diffs = st.pt.end_interval(iv);
    st.hists.diff_create.record(t0.elapsed().as_nanos() as u64);
    if diffs.is_empty() {
        // Twins existed but no word actually changed: nothing to publish.
        st.hists
            .release_flush
            .record(t0.elapsed().as_nanos() as u64);
        return (t0.elapsed(), Duration::ZERO);
    }
    let pages: Vec<PageId> = diffs.iter().map(|d| d.page).collect();
    if st.tracer.enabled() {
        for d in &diffs {
            st.tracer.emit(EventKind::DiffCreate {
                page: d.page.0,
                bytes: d.payload_bytes() as u32,
            });
        }
    }
    st.wn_table.insert_parts(iv, pages.clone());
    st.wn_since_barrier.push(WriteNotice {
        interval: iv,
        pages: pages.clone(),
    });

    // Group diffs for remote homes (reference bumps, not payload copies).
    // A stable sort on a short Vec beats a HashMap at release sizes, and
    // the common one-page release stays a single allocation; stability
    // keeps per-home page order (and thus replayed piggyback state)
    // deterministic.
    let mut remote: Vec<(ProcId, Arc<Diff>)> = diffs
        .iter()
        .filter_map(|d| {
            let home = st.pt.home_of(d.page);
            (home != me).then(|| (home, Arc::clone(d)))
        })
        .collect();
    remote.sort_by_key(|(home, _)| *home);
    let proto = t0.elapsed();

    // FT: log the write notice and every diff (including homed pages') as
    // one batch. The log entries share the diff objects just grouped into
    // the outgoing batches — logging costs one Arc bump plus a timestamp
    // per diff, never a payload copy.
    let t1 = Instant::now();
    if let Some(ft) = st.ft.as_mut() {
        let t = st.vt.clone();
        ft.logs.log_interval(iv.seq, pages, &t, &diffs);
    }
    let logging = t1.elapsed();

    // One coalesced DiffBatch per remote home: the release-side flush is
    // one message per home regardless of how many pages the interval wrote,
    // in ascending home order so the piggyback state advances identically
    // on replay.
    while !remote.is_empty() {
        let home = remote[0].0;
        let split = remote
            .iter()
            .position(|(h, _)| *h != home)
            .unwrap_or(remote.len());
        let rest = remote.split_off(split);
        send_diff_batch(st, home, remote.into_iter().map(|(_, d)| d).collect());
        remote = rest;
    }
    // The whole release flush — dirty collection, diff creation, logging,
    // per-home batches out.
    st.hists
        .release_flush
        .record(t0.elapsed().as_nanos() as u64);
    (proto, logging)
}

/// Send one coalesced diff batch to a remote home. With the retry layer on
/// the batch enters the per-home stop-and-wait outbox; otherwise it goes
/// straight out with `seq: 0` (no ack — the reliable-fabric hot path is
/// unchanged).
pub(crate) fn send_diff_batch(st: &mut NodeState, home: ProcId, batch: Vec<Arc<Diff>>) {
    if st.retry_after.is_none() {
        st.send(
            home,
            Payload::DiffBatch {
                seq: 0,
                diffs: batch,
            },
        );
        return;
    }
    st.diffs.push(home, batch);
    pump_diffs(st, home);
}

/// The `needed` version a fetch of `page` should carry: the accumulated
/// invalidation vector plus the seq of our own last diff for the page the
/// outbox may still hold (see [`DiffOutbox::fold_needed`]).
pub(crate) fn fetch_needed(st: &NodeState, page: PageId, mut needed: VectorClock) -> VectorClock {
    st.diffs.fold_needed(st.me, page, &mut needed);
    needed
}

/// A remote page as a `PageBatchReq` asks for it: the version needed and the
/// stale copy kept, as they are now (a resend reads them again).
fn batch_entry(st: &NodeState, page: PageId) -> (PageId, VectorClock, Option<Have>) {
    let m = st.pt.remote_meta(page);
    let needed = fetch_needed(st, page, m.needed.clone());
    (page, needed, m.base.clone())
}

/// Transmit the next batch queued for `home`, unless one is still
/// unacknowledged there.
fn pump_diffs(st: &mut NodeState, home: ProcId) {
    if let Some((seq, diffs)) = st.diffs.start_next(home) {
        st.send(home, Payload::DiffBatch { seq, diffs });
    }
}

/// Retransmit the diff batch in flight to `home`, if there is one.
/// Re-delivery is idempotent at the home (per-writer version gate); the
/// duplicate ack is dropped by seq.
pub(crate) fn resend_inflight_diffs(st: &mut NodeState, home: ProcId) {
    let Some((seq, diffs)) = st.diffs.resend(home) else {
        return;
    };
    st.retransmits += 1;
    if st.tracer.enabled() {
        st.tracer.emit(EventKind::Retransmit {
            kind: "DiffBatch",
            to: home,
        });
    }
    st.send(home, Payload::DiffBatch { seq, diffs });
}

/// Retransmit every in-flight diff batch older than the retry timeout
/// (driven by the membership ticker and by the application thread whenever
/// one of its own waits times out).
pub(crate) fn retransmit_stale_diffs(st: &mut NodeState) {
    let Some(after) = st.retry_after else {
        return;
    };
    for home in st.diffs.stale(after) {
        resend_inflight_diffs(st, home);
    }
}

/// The request the application thread is blocked on, as the wire message
/// that asks for it and its destination. The first send, the timeout
/// retransmit and the `NodeUp` resend all come from here, so a resend is the
/// first send again by construction.
pub(crate) fn blocked_request(st: &NodeState) -> Option<(ProcId, Payload)> {
    match &st.wait {
        WaitSlot::Page {
            page,
            req_id,
            home,
            needed,
            reply: None,
        } => Some((
            *home,
            Payload::PageReq {
                page: *page,
                needed: needed.clone(),
                have: st.pt.have(*page).cloned(),
                req_id: *req_id,
            },
        )),
        WaitSlot::Lock {
            lock,
            acq_seq,
            manager,
            req_vt,
            grant: None,
        } => Some((
            *manager,
            Payload::LockAcq {
                lock: *lock,
                acq_seq: *acq_seq,
                vt: req_vt.clone(),
            },
        )),
        WaitSlot::Barrier {
            episode,
            arrive_vt,
            own_wns,
            release: None,
        } => Some((
            0,
            Payload::BarrierArrive {
                episode: *episode,
                vt: arrive_vt.clone(),
                own_wns: own_wns.clone(),
            },
        )),
        _ => None,
    }
}

/// Send the request the application thread is blocked on; `false` when it
/// is blocked on nothing unanswered.
pub(crate) fn send_blocked_request(st: &mut NodeState) -> bool {
    let Some((to, payload)) = blocked_request(st) else {
        return false;
    };
    st.send(to, payload);
    true
}

/// Retransmit whatever request the application thread is blocked on (called
/// by the wait loop after `retry_after` of silence). Returns 1 when
/// something was resent. Every receiver path is idempotent under
/// duplication: requests dedup by `req_id`/`acq_seq`/`episode`, grants
/// replay from the release log, and installs are version-gated.
pub(crate) fn retransmit_wait_slot(st: &mut NodeState) -> u64 {
    let Some((to, payload)) = blocked_request(st) else {
        return 0;
    };
    st.retransmits += 1;
    if st.tracer.enabled() {
        st.tracer.emit(EventKind::Retransmit {
            kind: payload.kind(),
            to,
        });
    }
    st.send(to, payload);
    1
}

/// Apply the actions a [`Detector`] produced. Must be called *without*
/// holding the detector lock (an `Up` action takes the big lock to drive
/// retransmissions). Sends go out as bare messages — membership traffic
/// never carries piggybacks and never enters the recovery backlog.
pub(crate) fn apply_member_actions(
    shared: &NodeShared,
    ep: &Endpoint<Msg>,
    tracer: &NodeTracer,
    mr: &MemberRuntime,
    actions: Vec<MemberAction>,
) {
    let mut suspects_traced: Vec<usize> = Vec::new();
    for a in actions {
        match a {
            MemberAction::Send { to, msg } => {
                if tracer.enabled() {
                    if let dsm_member::Wire::SuspectQuery { about } = msg {
                        if !suspects_traced.contains(&about) {
                            suspects_traced.push(about);
                            tracer.emit(EventKind::Suspect { node: about });
                        }
                    }
                }
                ep.send(to, Msg::bare(Payload::Member(msg)));
            }
            MemberAction::RttSample { ns } => mr.rtt.lock().record(ns),
            MemberAction::SuspicionLatency { ns } => mr.susp.lock().record(ns),
            MemberAction::Down { node, .. } => {
                if tracer.enabled() {
                    tracer.emit(EventKind::MemberDown { node });
                }
            }
            MemberAction::Up { node, .. } => {
                if tracer.enabled() {
                    tracer.emit(EventKind::MemberUp { node });
                }
                // The returned peer lost everything in flight to it:
                // retransmit blocked requests and in-flight prefetch batches
                // (same path orchestrated `NodeUp` events used to drive),
                // plus the in-flight diff batch, immediately.
                let mut st = shared.state.lock();
                if st.mode == Mode::Normal {
                    handle_node_up(&mut st, node);
                    resend_inflight_diffs(&mut st, node);
                    st.poke_if_answered();
                }
            }
        }
    }
}

/// The reply to a parked fetch that has become servable.
fn page_reply(r: ReadyFetch) -> (ProcId, Payload) {
    let reply = Payload::PageReply {
        page: r.page,
        req_id: r.req_id,
        version: r.version,
        body: r.body,
    };
    (r.from, reply)
}

/// Drain every parked fetch the home store can now serve and answer it.
pub(crate) fn serve_waiting_fetches(st: &mut NodeState) {
    for r in st.pt.home_store().drain_ready() {
        let (to, reply) = page_reply(r);
        st.send(to, reply);
    }
}

/// Trace one version-advancing diff application at the home.
fn emit_diff_apply(tracer: &NodeTracer, d: &Diff) {
    if tracer.enabled() {
        tracer.emit(EventKind::DiffApply {
            page: d.page.0,
            bytes: d.payload_bytes() as u32,
            writer: d.interval.proc,
            interval: d.interval.seq as u64,
        });
    }
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
pub(crate) fn apply_pending_home_where(
    st: &mut NodeState,
    eligible: impl Fn(&VectorClock, &VectorClock) -> bool,
) {
    let Some(replay) = st.replay.as_mut() else {
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

/// Produce a grant right now (the lock is free at this node).
pub(crate) fn grant_now(
    st: &mut NodeState,
    lock: LockId,
    requester: ProcId,
    acq_seq: u64,
    gen: u64,
    req_vt: VectorClock,
) {
    let n = st.n;
    let req_vt = if req_vt.is_empty() {
        VectorClock::zero(n)
    } else {
        req_vt
    };
    let grant_vt = st
        .last_release_vt
        .get(&lock)
        .cloned()
        .unwrap_or_else(|| VectorClock::zero(n));
    let wns = st.wn_table.missing_between(&req_vt, &grant_vt);
    st.tracer.emit(EventKind::LockGrant {
        lock: lock as u32,
        to: requester,
        gen,
    });
    if let Some(ft) = st.ft.as_mut() {
        let mut t_after = req_vt.clone();
        t_after.join(&grant_vt);
        ft.logs.log_rel(
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
    st.send(
        requester,
        Payload::LockGrant {
            lock,
            acq_seq,
            gen,
            vt: grant_vt,
            wns,
        },
    );
}

/// Handle a forwarded acquire at the granter (chain predecessor).
pub(crate) fn handle_forward(
    st: &mut NodeState,
    lock: LockId,
    requester: ProcId,
    acq_seq: u64,
    gen: u64,
    pred_acq: u64,
    req_vt: VectorClock,
) {
    // Track the newest grant this node is responsible for (manager
    // recovery).
    st.note_grant(lock, gen, requester, acq_seq);
    // Retransmission of a grant we already produced? Replay it from the
    // release log so the requester sees an identical grant.
    if let Some(ft) = st.ft.as_ref() {
        if let Some(entry) = ft.logs.find_rel(requester, acq_seq) {
            if entry.lock == lock {
                let replay = Payload::LockGrant {
                    lock,
                    acq_seq,
                    gen,
                    vt: entry.t_after.clone(),
                    wns: st.wn_table.missing_between(&entry.req_vt, &entry.t_after),
                };
                st.send(requester, replay);
                return;
            }
        }
    }
    // The forward chains behind our tenure whose own acquisition number is
    // `pred_acq`. If we have already released that tenure (or any newer
    // one), grant immediately from our latest release timestamp
    // (conservative: extra happens-before edges are harmless). Otherwise
    // the tenure is still in flight — possibly our grant for it has not
    // even arrived yet, since the manager advances the tail at forward
    // time — and the requester queues until our release.
    // A forward can reference our tenure before its own grant has reached
    // us (the manager advances the tail at forward time): if we are
    // currently blocked acquiring this very tenure, the requester queues
    // until our release.
    let in_flight = matches!(
        &st.wait,
        WaitSlot::Lock { lock: l, acq_seq: s, .. } if *l == lock && *s == pred_acq
    );
    let grantable = pred_acq == u64::MAX
        || (!in_flight
            && match st.tenure.get(&lock) {
                None => true, // no record: the tenure predates anything we know
                Some(&(ts, released)) => pred_acq < ts || (pred_acq == ts && released),
            });
    if !grantable {
        // One queued edge per acquisition: a retransmitted forward
        // replaces (or is subsumed by) the copy already queued, newest
        // generation winning, so retries can't grow the queue.
        let q = st.pending_grants.entry(lock).or_default();
        if q.iter()
            .any(|pg| pg.requester == requester && pg.acq_seq == acq_seq && pg.gen > gen)
        {
            return;
        }
        q.retain(|pg| !(pg.requester == requester && pg.acq_seq == acq_seq));
        q.push(PendingGrant {
            requester,
            acq_seq,
            gen,
            pred_acq,
            req_vt,
        });
        return;
    }
    grant_now(st, lock, requester, acq_seq, gen, req_vt);
}

/// A manager decision whose chain predecessor is this node: no forward, the
/// grant is finished here, under the big lock.
fn grant_here(st: &mut NodeState, a: LockAction) {
    let r = a.req;
    handle_forward(st, a.lock, r.requester, r.acq_seq, a.gen, a.pred_acq, r.vt);
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

/// Process a barrier arrival at the manager (local or remote).
pub(crate) fn barrier_manager_arrive(st: &mut NodeState, arrival: Arrival) {
    let t_arrive = Instant::now();
    let outcome = {
        let mut sync = st.sync.lock();
        let mgr = sync
            .bar_mgr
            .as_mut()
            .expect("barrier arrival at non-manager");
        mgr.arrive(arrival)
    };
    match outcome {
        ArriveOutcome::Pending => {}
        ArriveOutcome::Complete(rel) => {
            // Time the episode-completing arrival: join, dedupe and
            // per-participant delta fan-out all happen inside `arrive`.
            st.hists
                .barrier_release_build
                .record(t_arrive.elapsed().as_nanos() as u64);
            if let Some(ft) = st.ft.as_mut() {
                ft.logs.log_bar_mgr(MgrBarEntry {
                    episode: rel.episode,
                    arrival_vts: rel.arrival_vts.clone(),
                    result_vt: rel.vt.clone(),
                });
            }
            for p in 0..st.n {
                let release = Payload::BarrierRelease {
                    episode: rel.episode,
                    vt: rel.vt.clone(),
                    wns: rel.per_proc_wns[p].clone(),
                };
                st.send(p, release);
            }
        }
        ArriveOutcome::Resend { proc, release } => {
            let release = Payload::BarrierRelease {
                episode: release.episode,
                vt: release.vt.clone(),
                wns: release.per_proc_wns[proc].clone(),
            };
            st.send(proc, release);
        }
    }
}

/// Build the reply to a recovering peer's log-collection handshake.
///
/// For locks managed by the recovering node this is also the *chain
/// reset*: queued-but-ungranted forwards are discarded here, so the
/// recovered manager rebuilds the chain only from acquisitions that
/// materialized — our own delivered tenures and the grants in our release
/// log. The discarded edges' requesters are still blocked and re-drive
/// their acquisition (retry timer under chaos, NodeUp re-send otherwise),
/// re-entering the chain behind a real tenure. Without the reset, stale
/// pre-crash edges and the manager's fresh post-crash edges can order the
/// same two waiters both ways round and deadlock the chain. This leans on
/// the failure-detection synchrony assumption (max message delay is far
/// below the detection bound): by the time this handshake runs, no
/// pre-crash forward is still in flight toward us.
///
/// `homed` is the handshake's `(page, p0.v[me])` list: the reply carries our
/// logged diffs for those pages that the recovering home's restored copies do
/// not hold. It is read from the diff log alone — a page the recovering node
/// homes need not be allocated here yet.
fn build_rec_log_reply(st: &mut NodeState, r: ProcId, homed: &[(PageId, u32)]) -> Payload {
    let n = st.n;
    let managed_by_r = |lock: LockId| lock % n == r;
    st.pending_grants.retain(|&lock, _| !managed_by_r(lock));

    let ft = st.ft.as_ref().expect("recovery handshake without FT");
    let mut chains: HashMap<LockId, (u64, ProcId, u64, Option<ProcId>)> = HashMap::new();
    // Our newest delivered tenure per lock the recovering node manages.
    for (&lock, &(acq, _)) in &st.tenure {
        if managed_by_r(lock) {
            let gen = st.tenure_gen.get(&lock).copied().unwrap_or(0);
            let e = chains.entry(lock).or_insert((gen, st.me, acq, None));
            if gen >= e.0 {
                *e = (gen, st.me, acq, None);
            }
        }
    }
    // The newest grant per lock in our release log: issued, hence
    // replayable here if its delivery was lost.
    for (grantee, log) in ft.logs.rel.iter().enumerate() {
        for entry in log {
            if managed_by_r(entry.lock) {
                let e = chains.entry(entry.lock).or_insert((
                    entry.gen,
                    grantee,
                    entry.acq_seq,
                    Some(st.me),
                ));
                if entry.gen >= e.0 {
                    *e = (entry.gen, grantee, entry.acq_seq, Some(st.me));
                }
            }
        }
    }
    Payload::RecLogReply {
        wn: ft.logs.wn.clone(),
        rel_for_you: ft.logs.rel[r].clone(),
        acq_mirror: ft.logs.acq[r].clone(),
        bar: ft.logs.bar.clone(),
        bar_mgr: ft.logs.bar_mgr.clone(),
        lock_chains: chains
            .into_iter()
            .map(|(lock, (gen, grantee, acq, granter))| (lock, gen, grantee, acq, granter))
            .collect(),
        gen_floor: st
            .lock_chain_info
            .iter()
            .filter(|(&lock, _)| managed_by_r(lock))
            .map(|(&lock, &(gen, _, _))| (lock, gen))
            .collect(),
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
    let ft = st.ft.as_ref().expect("recovery without FT");
    let copy = st.pt.is_home(page).then(|| {
        let covered = ft
            .retained
            .iter()
            .rev()
            .find(|rc| rc.versions.get(&page).is_some_and(|v| tckp.covers(v)));
        match covered {
            Some(rc) => {
                let chain = ckpt::load_chain(&ft.store, rc.anchor_seq..=rc.seq);
                let (v, bytes) = ckpt::accumulate_chain(&chain)[&page];
                (v.clone(), Arc::from(bytes))
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

/// The highest page a payload references, if any.
fn max_page(payload: &Payload) -> Option<PageId> {
    match payload {
        Payload::PageReq { page, .. } | Payload::RecPageReq { page, .. } => Some(*page),
        Payload::DiffBatch { diffs, .. } => diffs.iter().map(|d| d.page).max(),
        Payload::PageBatchReq { pages, .. } => pages.iter().map(|(p, ..)| *p).max(),
        _ => None,
    }
}

/// Install a page delivered by a prefetch batch (either in the batched
/// reply or as a straggler `PageReply` carrying the batch's `req_id`).
/// Superseded and overtaken replies are dropped: the page stays `Invalid`,
/// a kept copy and its version stay what the next request will say they
/// are, and a later touch fetches fresh.
fn install_prefetched(
    st: &mut NodeState,
    page: PageId,
    req_id: u64,
    version: VectorClock,
    body: PageBody,
) {
    match st.prefetch.get(&page) {
        Some(e) if e.req_id == req_id => {}
        // A reply from a superseded batch (or none in flight): drop it and
        // keep the entry for the current batch's reply.
        _ => {
            st.dup_suppressed += 1;
            return;
        }
    }
    st.prefetch.remove(&page);
    if st.pt.is_home(page) {
        return;
    }
    let m = st.pt.remote_meta(page);
    // A new invalidation may have overtaken the batch; install only when
    // the reply still covers everything the page is known to need.
    if m.state == PageState::Invalid && version.covers(&m.needed) {
        install_reply(st, page, body, &version);
    }
}

/// Install the reply to a fetch, one `fetch_copy` sample per install: the
/// bytes written into the local copy — none for an adopted page buffer, the
/// diff payloads for a delta.
pub(crate) fn install_reply(st: &mut NodeState, page: PageId, body: PageBody, v: &VectorClock) {
    let copied = st.pt.install(page, body, v);
    st.hists.fetch_copy.record(copied as u64);
}

/// How many page ids the fault on a page [`issue_prefetch`] left out looks
/// across — its own and the next 15 — for others left out (see
/// [`fetch_with_neighbours`]).
const NEIGHBOUR_SPAN: u32 = 16;

/// The home of `page` if [`issue_prefetch`] left it out and nothing has asked
/// for it since: remote, invalidated, its last copy unused, no batch in
/// flight.
fn left_out(st: &NodeState, page: PageId) -> Option<ProcId> {
    if st.pt.is_home(page) || st.prefetch.contains_key(&page) {
        return None;
    }
    let m = st.pt.remote_meta(page);
    (m.state == PageState::Invalid && !m.used).then_some(m.home)
}

/// Batch-fetch the remote pages just invalidated by applied write notices
/// whose last copy was used: one `PageBatchReq` per home covers every such
/// page, turning N page-miss round trips into one. A page whose last copy
/// was never read or written is left out — most invalidated copies are not
/// touched again, and a refetch nobody reads is traffic for nothing; if it
/// is touched after all, [`fetch_with_neighbours`] fetches it. Skipped
/// during recovery replay (replay fetches must stay individually
/// deterministic).
pub(crate) fn issue_prefetch(st: &mut NodeState, invalidated: &[PageId]) {
    if st.replay.is_some() {
        return;
    }
    let mut seen = HashSet::new();
    let mut pages = Vec::new();
    for &page in invalidated {
        if !seen.insert(page) || st.pt.is_home(page) || st.prefetch.contains_key(&page) {
            continue;
        }
        let m = st.pt.remote_meta(page);
        if m.state != PageState::Invalid {
            continue;
        }
        if m.used {
            pages.push(page);
        } else {
            st.prefetch_counts.prefetch_skipped += 1;
        }
    }
    st.prefetch_counts.prefetched += pages.len() as u64;
    send_page_batches(st, &pages);
}

/// A demand miss on `page`. If [`issue_prefetch`] left it out, it has
/// probably left out the pages an application sweep touches next as well:
/// when any of the next `NEIGHBOUR_SPAN - 1` page ids is a left-out page of
/// the same home, ask for `page` and all of them in one `PageBatchReq` and
/// return `true` — the fault then waits on its `prefetch` entry as it would
/// on any batch in flight. Otherwise nothing is sent and the fault is the
/// one-page `PageReq` it always was.
pub(crate) fn fetch_with_neighbours(st: &mut NodeState, page: PageId) -> bool {
    let Some(home) = left_out(st, page) else {
        return false;
    };
    st.prefetch_counts.skipped_then_missed += 1;
    let end = (page.0 + NEIGHBOUR_SPAN).min(st.pt.len() as u32);
    let after = (page.0 + 1..end).map(PageId);
    let mut pages = vec![page];
    pages.extend(after.filter(|&q| left_out(st, q) == Some(home)));
    if pages.len() == 1 {
        return false;
    }
    st.prefetch_counts.prefetched += pages.len() as u64 - 1;
    send_page_batches(st, &pages);
    true
}

/// Ask for `pages` — remote, invalid, none in flight — with one
/// `PageBatchReq` per home, and track each in `prefetch` until its reply.
fn send_page_batches(st: &mut NodeState, pages: &[PageId]) {
    let mut per_home: HashMap<ProcId, Vec<_>> = HashMap::new();
    for &page in pages {
        per_home
            .entry(st.pt.home_of(page))
            .or_default()
            .push(batch_entry(st, page));
    }
    // Deterministic send order (piggyback state advances per send).
    let mut per_home: Vec<_> = per_home.into_iter().collect();
    per_home.sort_unstable_by_key(|(home, _)| *home);
    for (home, pages) in per_home {
        let req_id = st.req_id_next;
        st.req_id_next += 1;
        st.hists.fetch_batch_pages.record(pages.len() as u64);
        for (p, ..) in &pages {
            st.prefetch.insert(*p, PrefetchEntry { req_id, home });
        }
        st.send(home, Payload::PageBatchReq { pages, req_id });
    }
}

/// Run the shared home/manager handler with the big lock held. Mode
/// changes need that lock, so the fence is constantly open; replies go
/// through [`NodeState::send`] and carry the FT piggyback.
fn serve_locked(st: &mut NodeState, from: ProcId, payload: &Payload) {
    let mut replies = Vec::new();
    let served = st.home_svc().serve(
        &mut st.hists,
        from,
        payload,
        || true,
        |to, reply| replies.push((to, reply)),
    );
    for (to, reply) in replies {
        st.send(to, reply);
    }
    match served {
        // An applied diff can be what an access to a homed page waits for.
        Served::Done { wake } => {
            if wake {
                st.ep.poke()
            }
        }
        Served::GrantHere(a) => grant_here(st, a),
        // `handle_msg` has already deferred pages this node has yet to
        // allocate, so what is left is a routing bug.
        Served::HandBack => panic!("{} for a page not homed here", payload.kind()),
    }
}

/// Handle one protocol message in normal mode, under the big lock.
pub(crate) fn handle_msg(st: &mut NodeState, from: ProcId, payload: Payload) {
    if let Some(p) = max_page(&payload) {
        if p.index() >= st.pt.len() {
            st.pending_unalloc.push((from, payload));
            return;
        }
    }
    match payload {
        Payload::PageReq { .. }
        | Payload::PageBatchReq { .. }
        | Payload::DiffBatch { .. }
        | Payload::LockAcq { .. } => serve_locked(st, from, &payload),
        Payload::LockForward {
            lock,
            requester,
            acq_seq,
            gen,
            pred_acq,
            vt,
        } => {
            handle_forward(st, lock, requester, acq_seq, gen, pred_acq, vt);
        }
        Payload::LockGrant {
            lock,
            acq_seq,
            gen,
            vt,
            wns,
        } => {
            st.deposit_grant(GrantData {
                lock,
                acq_seq,
                gen,
                granter: from,
                vt,
                wns,
            });
        }
        Payload::DiffAck { seq } => {
            if st.diffs.ack(from, seq) {
                pump_diffs(st, from);
                // A checkpoint waits for exactly this (`safe_point`).
                if st.diffs.drained() {
                    st.ep.poke();
                }
            } else {
                st.dup_suppressed += 1;
            }
        }
        // Membership traffic is handled off the big lock in the service
        // loop; one can still land here through a recovery-backlog replay —
        // by then it is stale, and the detector gets fresher input every
        // heartbeat period anyway.
        Payload::Member(_) => {}
        Payload::BarrierArrive {
            episode,
            vt,
            own_wns,
        } => {
            barrier_manager_arrive(
                st,
                Arrival {
                    proc: from,
                    episode,
                    vt,
                    own_wns,
                },
            );
        }
        Payload::BarrierRelease { episode, vt, wns } => {
            st.deposit_release(ReleaseData { episode, vt, wns });
        }
        Payload::PageBatchReply { req_id, pages } => {
            for (page, version, body) in pages {
                install_prefetched(st, page, req_id, version, body);
            }
        }
        Payload::PageReply {
            page,
            req_id,
            version,
            body,
        } => {
            if let Some((version, body)) = st.deposit_page(req_id, version, body) {
                install_prefetched(st, page, req_id, version, body);
            }
        }
        Payload::RecLogReq { homed } => {
            let reply = build_rec_log_reply(st, from, &homed);
            st.send(from, reply);
        }
        Payload::RecPageReq { page, tckp } => {
            serve_rec_page(st, from, page, tckp);
        }
        // Replies to *our* recovery arriving after we already went live are
        // stale duplicates.
        Payload::RecLogReply { .. } | Payload::RecPageReply { .. } => {}
    }
}

/// Replay messages that were deferred because they referenced pages this
/// node had not allocated yet (called after every allocation).
pub(crate) fn drain_unalloc(st: &mut NodeState) {
    if st.pending_unalloc.is_empty() {
        return;
    }
    let pending = std::mem::take(&mut st.pending_unalloc);
    for (from, payload) in pending {
        handle_msg(st, from, payload);
    }
}

/// A crashed peer restarted: re-issue lost forwards and retransmit whatever
/// request our application thread is blocked on against that peer.
pub(crate) fn handle_node_up(st: &mut NodeState, node: ProcId) {
    let actions = st.sync.lock().lock_mgr.on_node_up(node);
    for a in actions {
        st.send(a.grant_from, lock_forward(a));
    }
    // Re-issue in-flight prefetch batches the restarted home lost, grouped
    // back into their original batches (the needed versions are re-read:
    // they may have advanced, and the install gate checks coverage anyway).
    let mut groups: HashMap<u64, Vec<_>> = HashMap::new();
    for (&page, e) in &st.prefetch {
        if e.home == node {
            groups
                .entry(e.req_id)
                .or_default()
                .push(batch_entry(st, page));
        }
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_unstable_by_key(|(req_id, _)| *req_id);
    for (req_id, mut pages) in groups {
        pages.sort_unstable_by_key(|(p, ..)| p.0);
        st.send(node, Payload::PageBatchReq { pages, req_id });
    }
    if let Some((to, payload)) = blocked_request(st) {
        if to == node {
            st.send(node, payload);
        }
    }
}

/// The handles the home-side (`PageReq`/`PageBatchReq`/`DiffBatch`) and
/// manager-side (`LockAcq`) handler works against: the sharded home store
/// and the sync lock — never the big lock, which is what lets the service
/// loop run it while the application computes.
pub(crate) struct HomeSvc {
    me: ProcId,
    home: Arc<HomeStore>,
    sync: Arc<Mutex<SyncState>>,
    tracer: NodeTracer,
    inject_stale_apply: Option<Arc<AtomicBool>>,
}

/// What [`HomeSvc::serve`] did with a message.
pub(crate) enum Served {
    /// Handled; the replies went to the sink. `wake` says a diff batch was
    /// applied, which can satisfy the application thread's blocked access
    /// to a homed page.
    Done { wake: bool },
    /// A `LockAcq` was routed and the manager named this very node as the
    /// granter. The grant needs big-lock state (tenure, FT logs); the caller
    /// finishes it there — never by re-running the message, so the routing
    /// decision is taken exactly once.
    GrantHere(LockAction),
    /// Not handled, or a batch not handled to its end: `live` failed under
    /// a shard or the sync lock, a page is not in the home store (yet), or
    /// the kind needs big-lock state. Running the whole message again later
    /// loses nothing and repeats nothing visible: applies are version-gated,
    /// fetches unparked so far have been answered, and a page parked twice
    /// yields a duplicate reply the requester drops by `req_id`.
    HandBack,
}

impl NodeState {
    /// This node's handles for [`HomeSvc::serve`].
    pub(crate) fn home_svc(&self) -> HomeSvc {
        HomeSvc {
            me: self.me,
            home: self.pt.home_store(),
            sync: Arc::clone(&self.sync),
            tracer: self.tracer.clone(),
            inject_stale_apply: self.inject_stale_apply.clone(),
        }
    }
}

impl HomeSvc {
    /// The one handler for `PageReq`, `PageBatchReq`, `DiffBatch` and
    /// `LockAcq`, whoever delivers them. `live` is re-checked under every
    /// shard lock and under the sync lock, so a crash or recovery transition
    /// (mode flag flip, then quiesce) fences the handler out; a caller that
    /// holds the big lock passes `|| true`. Replies go to `reply`, which
    /// decides how they travel (bare, or with the FT piggyback).
    pub(crate) fn serve(
        &self,
        hists: &mut LatencyHists,
        from: ProcId,
        payload: &Payload,
        live: impl Fn() -> bool,
        mut reply: impl FnMut(ProcId, Payload),
    ) -> Served {
        match payload {
            Payload::PageReq {
                page,
                needed,
                have,
                req_id,
            } => {
                // A one-page batch, answered with the single-page reply.
                let one = std::iter::once((*page, needed, have.as_ref()));
                let req_id = *req_id;
                if !self.serve_fetches(hists, from, req_id, one, &live, |page, version, body| {
                    let single = Payload::PageReply {
                        page,
                        req_id,
                        version,
                        body,
                    };
                    reply(from, single)
                }) {
                    return Served::HandBack;
                }
            }
            Payload::PageBatchReq { pages, req_id } => {
                let req_id = *req_id;
                let mut ready = Vec::new();
                let all = pages
                    .iter()
                    .map(|(page, needed, have)| (*page, needed, have.as_ref()));
                if !self.serve_fetches(hists, from, req_id, all, &live, |page, version, body| {
                    ready.push((page, version, body))
                }) {
                    return Served::HandBack;
                }
                if !ready.is_empty() {
                    let batch = Payload::PageBatchReply {
                        req_id,
                        pages: ready,
                    };
                    reply(from, batch);
                }
            }
            Payload::DiffBatch { seq, diffs } => {
                let mut ready = Vec::new();
                let mut applied_all = true;
                for d in diffs {
                    let t0 = Instant::now();
                    let (outcome, waited) = self.home.apply_diff_kept(d, &live);
                    hists.shard_lock_wait.record(waited.as_nanos() as u64);
                    let ApplyOutcome::Applied { fresh, ready: r } = outcome else {
                        applied_all = false;
                        break;
                    };
                    hists.diff_apply.record(t0.elapsed().as_nanos() as u64);
                    ready.extend(r);
                    // Only a version-advancing apply is an apply; a
                    // duplicated or retransmitted batch the gate skipped
                    // must not emit (the invariant monitor treats a repeat
                    // as a violation).
                    if fresh {
                        emit_diff_apply(&self.tracer, d);
                    }
                }
                if applied_all {
                    self.inject_stale_apply_if_armed(diffs.last().map(|d| &**d));
                }
                // Unparked fetches are answered even when the batch is
                // handed back: they are out of the parked set for good.
                for (to, page) in ready.into_iter().map(page_reply) {
                    reply(to, page);
                }
                if !applied_all {
                    return Served::HandBack;
                }
                // Stop-and-wait ack. The home keeps no per-writer seq state:
                // it acks whatever arrives (the version gate inside
                // apply_diff is the dedup), and the writer drops stale acks
                // by seq.
                if *seq != 0 {
                    reply(from, Payload::DiffAck { seq: *seq });
                }
                return Served::Done { wake: true };
            }
            Payload::LockAcq { lock, acq_seq, vt } => {
                debug_assert_eq!(
                    lock % self.home.cluster_size(),
                    self.me,
                    "lock request at wrong manager"
                );
                // Manager routing touches only the sync lock.
                let action = {
                    let mut sync = self.sync.lock();
                    if !live() {
                        return Served::HandBack;
                    }
                    let req = AcqReq {
                        requester: from,
                        acq_seq: *acq_seq,
                        vt: vt.clone(),
                    };
                    sync.lock_mgr.on_request(*lock, req)
                };
                match action {
                    None => {}
                    Some(a) if a.grant_from == self.me => return Served::GrantHere(a),
                    Some(a) => reply(a.grant_from, lock_forward(a)),
                }
            }
            _ => return Served::HandBack,
        }
        Served::Done { wake: false }
    }

    /// Serve `pages` to `from` in order: a page whose copy already covers
    /// its `needed` version goes to `ready` — the diffs a requester that
    /// kept a copy is missing, else the page (an Arc bump: the home's next
    /// write copy-on-writes, leaving the served buffer untouched) — the rest
    /// park and are answered one by one, under the same `req_id`, when
    /// their diffs arrive. `false` hands the request back.
    fn serve_fetches<'a>(
        &self,
        hists: &mut LatencyHists,
        from: ProcId,
        req_id: u64,
        pages: impl Iterator<Item = (PageId, &'a VectorClock, Option<&'a Have>)>,
        live: &impl Fn() -> bool,
        mut ready: impl FnMut(PageId, VectorClock, PageBody),
    ) -> bool {
        for (page, needed, have) in pages {
            let fetch = WaitingFetch {
                from,
                page,
                needed: needed.clone(),
                req_id,
            };
            let (outcome, waited) = self.home.serve_fetch_have(fetch, have, live);
            hists.shard_lock_wait.record(waited.as_nanos() as u64);
            match outcome {
                FetchOutcome::Ready(version, body) => ready(page, version, body),
                FetchOutcome::Parked => {}
                FetchOutcome::NotHome | FetchOutcome::Stale => return false,
            }
        }
        true
    }

    /// Test-only (armed via `ClusterConfig::inject_stale_apply`): re-emit the
    /// `DiffApply` event for an already-applied diff, once, simulating a home
    /// that applied a stale duplicate. The invariant monitor must catch it.
    fn inject_stale_apply_if_armed(&self, last: Option<&Diff>) {
        let Some(flag) = &self.inject_stale_apply else {
            return;
        };
        if self.tracer.enabled() && flag.swap(false, Ordering::Relaxed) {
            if let Some(d) = last {
                emit_diff_apply(&self.tracer, d);
            }
        }
    }
}

/// Handle one event under the big lock, whoever received it — the service
/// loop (requests) or the application thread's wait (replies): mode routing,
/// the FT piggyback, then [`handle_msg`].
pub(crate) fn dispatch(st: &mut NodeState, ev: Event<Msg>) {
    match ev {
        Event::Wakeup => unreachable!("wakeups stay in the service loop"),
        Event::NodeUp { node } => match st.mode {
            Mode::Normal => handle_node_up(st, node),
            // Single-fault model: no other node can restart while we are
            // crashed or recovering.
            Mode::Crashed | Mode::Recovering => {}
        },
        Event::Msg { from, msg } => {
            if st.mode != Mode::Crashed {
                if let (Some(p), Some(ft)) = (&msg.piggy, st.ft.as_mut()) {
                    ft.absorb_piggy(from, p);
                }
            }
            match st.mode {
                Mode::Crashed => {}
                Mode::Recovering => match msg.payload {
                    Payload::RecLogReply { .. } | Payload::RecPageReply { .. } => {
                        st.rec_inbox.push((from, msg.payload));
                    }
                    other => st.backlog.push((from, other)),
                },
                Mode::Normal => {
                    // Everything the handler sends is causally parented on
                    // the message being handled.
                    st.cur_flow = msg.ctx.flow_id();
                    handle_msg(st, from, msg.payload);
                    st.cur_flow = 0;
                }
            }
        }
    }
}

/// [`dispatch`] from the service loop. Returns the time spent once the lock
/// was held.
fn handle_locked(shared: &NodeShared, ev: Event<Msg>) -> Duration {
    let mut st = shared.state.lock();
    let t0 = Instant::now();
    dispatch(&mut st, ev);
    st.poke_if_answered();
    t0.elapsed()
}

/// The service loop: one per node, owns the endpoint's request lane.
///
/// Blocks on the endpoint — no polling; [`Endpoint::wake`] posts an
/// [`Event::Wakeup`] when the shutdown flag needs re-checking. A bare
/// message that arrives in Normal mode goes to [`HomeSvc::serve`] without
/// the big lock, fenced by the mode flag; what that hands back, and
/// everything else, is handled under the big lock.
pub(crate) fn service_loop(shared: Arc<NodeShared>) {
    let (ep, svc, mode_flag, member) = {
        let st = shared.state.lock();
        (
            Arc::clone(&st.ep),
            st.home_svc(),
            Arc::clone(&st.mode_flag),
            st.member.clone(),
        )
    };
    let live = || mode_flag.load(Ordering::SeqCst) == Mode::Normal as u8;
    // Handler time per message kind and the handler's histograms are loop
    // locals (the point is not to touch the big lock), folded into the node
    // state at exit — teardown joins service threads before collecting
    // reports.
    let mut svc_time: HashMap<&'static str, Duration> = HashMap::new();
    let mut hists = LatencyHists::default();
    // Loop until shutdown (a request-lane receive always returns an event).
    while let Some(ev) = ep.recv() {
        let (t0, kind) = (Instant::now(), ev.kind_name());
        let dt = match ev {
            Event::Wakeup => {
                if shared.state.lock().shutdown {
                    break;
                }
                continue;
            }
            Event::NodeUp { .. } => handle_locked(&shared, ev),
            // Membership traffic must not wait on the big lock (the
            // application thread holds it while computing, and a stalled
            // Pong looks like a dead node to the peer). A crashed node's
            // input is already cut off at the fabric; the mode check here
            // just fences the drain race.
            Event::Msg {
                from,
                msg:
                    Msg {
                        payload: Payload::Member(w),
                        ..
                    },
            } => {
                if let Some(mr) = &member {
                    if mode_flag.load(Ordering::SeqCst) != Mode::Crashed as u8 {
                        let actions = mr.det.lock().on_msg(from, w, Instant::now());
                        apply_member_actions(&shared, &ep, &svc.tracer, mr, actions);
                    }
                }
                t0.elapsed()
            }
            Event::Msg { from, msg } => {
                let served = if msg.piggy.is_none() && live() {
                    // Replies are parented on the request's flow so the
                    // exporter can stitch request → reply across nodes (0
                    // when tracing is off).
                    let flow = msg.ctx.flow_id();
                    let bare = |to, reply| {
                        ep.send(to, Msg::reply_to(reply, flow));
                    };
                    svc.serve(&mut hists, from, &msg.payload, live, bare)
                } else {
                    Served::HandBack
                };
                match served {
                    Served::Done { wake } => {
                        if wake {
                            // No big lock needed: a poke is sticky, so a
                            // waiter between its check and its receive
                            // still sees it.
                            ep.poke();
                        }
                        t0.elapsed()
                    }
                    Served::GrantHere(a) => {
                        let mut st = shared.state.lock();
                        // A crash slipped in between the sync-lock decision
                        // and here: drop the action. Recovery resets the
                        // manager state and the requester retransmits on
                        // NodeUp.
                        if st.mode == Mode::Normal {
                            st.cur_flow = msg.ctx.flow_id();
                            grant_here(&mut st, a);
                            st.cur_flow = 0;
                        }
                        t0.elapsed()
                    }
                    Served::HandBack => handle_locked(&shared, Event::Msg { from, msg }),
                }
            }
        };
        *svc_time.entry(kind).or_default() += dt;
    }
    let mut st = shared.state.lock();
    for (k, d) in svc_time {
        *st.svc_time_by_kind.entry(k).or_default() += d;
    }
    st.hists.merge(&hists);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtConfig;
    use crate::ft::FtState;
    use dsm_net::Fabric;
    use dsm_storage::{DiskModel, StableStore};

    fn test_state(me: ProcId, n: usize, ft: bool) -> (NodeState, Vec<Arc<Endpoint<Msg>>>) {
        let (_fabric, endpoints) = Fabric::<Msg>::new(n);
        let mut eps: Vec<Arc<Endpoint<Msg>>> = endpoints.into_iter().map(Arc::new).collect();
        let ep = Arc::clone(&eps[me]);
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let ft = ft.then(|| FtState::new(me, n, FtConfig::default(), store));
        let st = NodeState::new(me, n, 256, ep, ft, NodeTracer::disabled(), None);
        eps.remove(me);
        (st, eps)
    }

    #[test]
    fn crash_then_genesis_restart_equals_a_new_node_and_keeps_the_survivors() {
        let n = 3;
        let vt = |v: [u32; 3]| VectorClock::from_vec(v.to_vec());
        let with_pages = || {
            let (mut st, eps) = test_state(1, n, true);
            st.pt.add_page(0); // page 0: remote
            st.pt.add_page(1); // pages 1, 2: homed here
            st.pt.add_page(1);
            (st, eps)
        };
        let (mut st, _eps) = with_pages();

        // Dirty everything a run can dirty.
        let iv = |proc, seq| dsm_page::Interval { proc, seq };
        st.vt = vt([3, 5, 1]);
        st.wn_table.insert_parts(iv(0, 3), vec![PageId(1)]);
        st.wn_since_barrier.push(WriteNotice {
            interval: iv(1, 5),
            pages: vec![PageId(0)],
        });
        st.tenure.insert(4, (2, false));
        st.tenure_gen.insert(4, 9);
        st.last_release_vt.insert(5, vt([1, 1, 0]));
        st.pending_grants.insert(
            4,
            vec![PendingGrant {
                requester: 2,
                acq_seq: 1,
                gen: 10,
                pred_acq: 2,
                req_vt: vt([0, 0, 1]),
            }],
        );
        st.lock_chain_info.insert(4, (10, 2, 1));
        st.wait = WaitSlot::Lock {
            lock: 7,
            acq_seq: 3,
            manager: 1,
            req_vt: vt([3, 5, 1]),
            grant: None,
        };
        for q in [&mut st.rec_inbox, &mut st.backlog, &mut st.pending_unalloc] {
            q.push((0, Payload::RecLogReq { homed: Vec::new() }));
        }
        st.prefetch.insert(
            PageId(0),
            PrefetchEntry {
                req_id: 16,
                home: 0,
            },
        );
        st.acq_seq_next = 4;
        st.bar_episode = 2;
        st.alloc_cursor = 3;
        st.replay = Some(ReplayState::default());
        st.cur_flow = 77;
        st.pt
            .restore_home_page(PageId(1), &[7u8; 256], vt([2, 5, 0]));
        st.pt.write(PageId(2), 8, &[1, 2, 3]);
        // A remote copy kept across its invalidation, and a diff in a ring.
        st.pt.install(PageId(0), page_of(1), &vt([0, 0, 0]));
        st.pt.invalidate(PageId(0), 0, 3);
        assert_eq!(st.pt.have(PageId(0)), Some(&(1, vt([0, 0, 0]))));
        let home = st.pt.home_store();
        home.apply_diff_kept(&diff_of(1, 2, 1), || true);
        assert!(home.ring_bytes(PageId(1)) > 0);
        home.serve_fetch(parked_fetch(PageId(2), gated(n, 0, 9)), || true);
        let request = AcqReq {
            requester: 2,
            acq_seq: 0,
            vt: vt([0, 0, 0]),
        };
        st.sync.lock().lock_mgr.on_request(4, request);
        st.diffs.push(0, vec![diff_of(0, 1, 5)]);
        let (old_seq, _) = st.diffs.start_next(0).unwrap();
        {
            let ft = st.ft.as_mut().unwrap();
            let d = diff_of(0, 1, 5);
            ft.logs
                .log_interval(5, vec![PageId(0)], &vt([3, 5, 1]), &[d]);
            ft.tckp[0] = vt([2, 0, 0]);
            ft.peer_ckpt_seq[0] = 3;
            ft.peer_ckpt_episode[0] = 1;
            ft.p0v_known.insert(PageId(0), 2);
            ft.p0v_sent.insert((PageId(1), 0), 2);
            ft.piggy_sent = vec![0; n];
            ft.ckpt_due = true;
        }
        // ... and what a crash must leave alone.
        st.ops = 40;
        st.recoveries = 1;
        st.req_id_next = 17;
        st.crash_queue = vec![99];
        st.retransmits = 3;
        st.dup_suppressed = 2;
        st.hists.lock_wait.record(5);
        st.breakdown_acc.protocol = Duration::from_millis(1);

        st.fail_stop();
        assert_eq!(st.mode, Mode::Crashed);
        assert_eq!(st.mode_flag.load(Ordering::SeqCst), Mode::Crashed as u8);
        // Rings and kept copies are volatile: gone with the crash, before
        // any restart, so recovery cannot come to read them.
        assert!(st.pt.have(PageId(0)).is_none() && st.pt.remote_meta(PageId(0)).copy.is_none());
        assert_eq!(home.ring_bytes(PageId(1)), 0);
        st.set_mode(Mode::Recovering);
        st.restart_from(&CheckpointBlob::genesis(n), Vec::new());

        // Every volatile field is what `NodeState::new` makes it.
        let (new, _new_eps) = with_pages();
        assert_eq!(st.vt, new.vt);
        assert!(st.wn_table.is_empty() && st.wn_since_barrier.is_empty());
        assert!(st.tenure.is_empty() && st.tenure_gen.is_empty());
        assert!(!st.holds(4) && st.last_release_vt.is_empty());
        assert!(st.pending_grants.is_empty() && st.lock_chain_info.is_empty());
        assert!(matches!(st.wait, WaitSlot::None));
        assert!(st.rec_inbox.is_empty() && st.backlog.is_empty());
        assert!(st.pending_unalloc.is_empty() && st.prefetch.is_empty());
        assert_eq!(
            (
                st.acq_seq_next,
                st.bar_episode,
                st.alloc_cursor,
                st.cur_flow
            ),
            (0, 0, 0, 0)
        );
        assert!(st.replay.is_none());
        assert!(st.diffs.drained());
        assert_eq!(fetch_needed(&st, PageId(0), vt([0, 0, 0])), vt([0, 0, 0]));
        {
            let sync = st.sync.lock();
            assert!(sync.lock_mgr.is_empty() && sync.bar_mgr.is_none());
        }
        // Restoring from genesis zeroes every homed page and forgets every
        // copy, twin, needed version and parked fetch.
        assert!(!st.pt.has_writes());
        for p in [PageId(1), PageId(2)] {
            let (version, bytes) = st.pt.home_snapshot(p);
            assert_eq!(version, vt([0, 0, 0]));
            assert!(bytes.iter().all(|&b| b == 0), "page {p} not zeroed");
        }
        assert_eq!(st.pt.needed_triples(), new.pt.needed_triples());
        assert_eq!(
            st.pt.ensure_access(PageId(0)),
            new.pt.ensure_access(PageId(0))
        );
        assert!(unpark(&st.pt.home_store(), 2, 0, 9).is_empty());
        // The restarted home is a new incarnation: a reader that kept a
        // copy of the previous one's — of this very version — gets the page.
        let kept = (1, home.version_of(PageId(1)));
        let fetch = parked_fetch(PageId(1), vt([0, 0, 0]));
        match home.serve_fetch_have(fetch, Some(&kept), || true).0 {
            FetchOutcome::Ready(_, PageBody::Full { base, .. }) => assert!(base > 1),
            other => panic!("unexpected: {other:?}"),
        }
        {
            let (ft, new_ft) = (st.ft.as_ref().unwrap(), new.ft.as_ref().unwrap());
            assert_eq!(ft.logs.volatile_bytes(), new_ft.logs.volatile_bytes());
            assert!(ft.logs.diffs.is_empty() && ft.logs.wn.is_empty());
            assert!(ft.retained.is_empty());
            assert_eq!((ft.ckpt_seq, ft.ckpt_due), (0, false));
            assert_eq!(ft.last_ckpt_vt, new_ft.last_ckpt_vt);
            assert_eq!(ft.tckp, new_ft.tckp);
            assert_eq!(ft.peer_ckpt_seq, new_ft.peer_ckpt_seq);
            assert_eq!(ft.peer_ckpt_episode, new_ft.peer_ckpt_episode);
            assert!(ft.p0v_known.is_empty() && ft.p0v_sent.is_empty());
            assert_eq!(ft.piggy_sent, new_ft.piggy_sent);
            assert_eq!(ft.report.recoveries, 1);
        }

        // Survivors are untouched.
        assert_eq!(st.mode, Mode::Recovering);
        assert_eq!((st.ops, st.recoveries, st.req_id_next), (40, 1, 17));
        assert_eq!(st.crash_queue, [99]);
        assert_eq!((st.retransmits, st.dup_suppressed), (3, 2));
        assert_eq!(st.hists.lock_wait.count(), 1);
        assert_eq!(st.breakdown_acc.protocol, Duration::from_millis(1));
        assert_eq!((st.pt.len(), st.shared_bytes()), (3, 3 * 256));
        // The diff sequence keeps counting: an ack addressed to the previous
        // incarnation cannot retire a new batch.
        st.diffs.push(0, vec![diff_of(0, 1, 1)]);
        let (new_seq, _) = st.diffs.start_next(0).unwrap();
        assert!(new_seq > old_seq && !st.diffs.ack(0, old_seq));
    }

    #[test]
    fn forward_behind_released_tenure_grants_immediately() {
        let (mut st, _eps) = test_state(0, 3, false);
        st.tenure.insert(9, (4, true)); // our acquisition #4, released
        st.last_release_vt
            .insert(9, VectorClock::from_vec(vec![2, 0, 0]));
        handle_forward(&mut st, 9, 1, 0, 10, 4, VectorClock::zero(3));
        assert!(
            st.pending_grants.is_empty(),
            "released tenure must grant now"
        );
    }

    #[test]
    fn forward_behind_unreleased_tenure_queues() {
        let (mut st, _eps) = test_state(0, 3, false);
        st.tenure.insert(9, (4, false)); // still holding acquisition #4
        handle_forward(&mut st, 9, 1, 0, 10, 4, VectorClock::zero(3));
        assert_eq!(st.pending_grants[&9].len(), 1);
        assert_eq!(st.pending_grants[&9][0].pred_acq, 4);
    }

    #[test]
    fn forward_behind_in_flight_acquire_queues() {
        // The grant for our own acquisition #5 has not arrived yet, but the
        // manager already chained a requester behind it.
        let (mut st, _eps) = test_state(0, 3, false);
        st.tenure.insert(9, (4, true));
        st.wait = WaitSlot::Lock {
            lock: 9,
            acq_seq: 5,
            manager: 1,
            req_vt: VectorClock::zero(3),
            grant: None,
        };
        handle_forward(&mut st, 9, 2, 0, 11, 5, VectorClock::zero(3));
        assert_eq!(
            st.pending_grants[&9].len(),
            1,
            "in-flight tenure must queue"
        );
    }

    #[test]
    fn chain_start_forward_always_grants() {
        let (mut st, _eps) = test_state(0, 3, false);
        handle_forward(&mut st, 9, 1, 0, 1, u64::MAX, VectorClock::zero(3));
        assert!(st.pending_grants.is_empty());
    }

    #[test]
    fn forward_retransmission_replays_logged_grant() {
        let (mut st, _eps) = test_state(0, 3, true);
        st.last_release_vt
            .insert(9, VectorClock::from_vec(vec![3, 0, 0]));
        st.tenure.insert(9, (0, true));
        // First forward: grants and logs.
        handle_forward(&mut st, 9, 1, 7, 10, 0, VectorClock::zero(3));
        let logged = st
            .ft
            .as_ref()
            .unwrap()
            .logs
            .find_rel(1, 7)
            .cloned()
            .unwrap();
        // Retransmission (zero-length vt, as after a crash): identical grant
        // from the log, no new rel entry.
        handle_forward(&mut st, 9, 1, 7, 10, 0, VectorClock::zero(0));
        let ft = st.ft.as_ref().unwrap();
        assert_eq!(ft.logs.rel[1].len(), 1);
        assert_eq!(ft.logs.find_rel(1, 7).unwrap(), &logged);
    }

    #[test]
    fn deposits_match_only_the_waited_for_slot() {
        let (mut st, _eps) = test_state(1, 3, false);
        st.wait = WaitSlot::Page {
            page: PageId(3),
            req_id: 42,
            home: 0,
            needed: VectorClock::zero(3),
            reply: None,
        };
        // Stale reply for an older request id is dropped.
        st.deposit_page(41, VectorClock::zero(3), page_of(0));
        if let WaitSlot::Page { reply, .. } = &st.wait {
            assert!(reply.is_none());
        }
        st.deposit_page(42, VectorClock::zero(3), page_of(0));
        if let WaitSlot::Page { reply, .. } = &st.wait {
            assert!(reply.is_some());
        } else {
            panic!("slot vanished");
        }
    }

    #[test]
    fn piggyback_is_attached_only_when_it_carries_news() {
        let (mut st, _eps) = test_state(0, 2, true);
        // Fresh FT state advertises checkpoint 0 once.
        let first = st.make_piggy(1, false);
        assert!(first.is_some());
        let second = st.make_piggy(1, false);
        assert!(second.is_none(), "no news: no piggyback");
        // A gossip request always produces one (even without news) when the
        // table would be empty it still returns None though:
        let gossip = st.make_piggy(1, true);
        assert!(gossip.is_none(), "empty gossip table carries no news");
        // After a checkpoint-sequence bump, news flows again.
        st.ft.as_mut().unwrap().ckpt_seq = 1;
        assert!(st.make_piggy(1, false).is_some());
    }

    /// The one payload waiting for `ep`, on either lane.
    fn only_payload(ep: &Endpoint<Msg>) -> Payload {
        let Some(Event::Msg { msg, .. }) = ep.recv_any(Duration::ZERO) else {
            panic!("nothing was sent")
        };
        assert!(ep.recv_any(Duration::ZERO).is_none(), "more than one");
        msg.payload
    }

    fn logged_seqs(entries: &[crate::ft::logs::DiffLogEntry]) -> Vec<(u32, u32)> {
        (entries.iter())
            .map(|e| (e.diff.page.0, e.diff.interval.seq))
            .collect()
    }

    #[test]
    fn the_handshake_reply_carries_the_diffs_the_restored_copies_lack_and_needs_no_page() {
        // Node 1 has allocated nothing yet; its restored log knows pages
        // 4, 6 and 9.
        let (mut st, eps) = test_state(1, 3, true);
        let logs = &mut st.ft.as_mut().unwrap().logs;
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
    fn a_replayed_page_gets_the_copy_from_its_home_alone_and_diffs_from_everyone() {
        let (mut st, eps) = test_state(1, 3, true);
        st.pt.add_page(1); // page 0: homed here
        st.pt.add_page(2); // page 1: remote
        let write_both = |st: &mut NodeState, byte: u8| {
            st.pt.install(PageId(1), page_of(0), &VectorClock::zero(3));
            st.pt.write(PageId(0), 8, &[byte]);
            st.pt.write(PageId(1), 8, &[byte]);
            end_interval(st);
        };
        write_both(&mut st, 1);
        crate::ft::take_checkpoint(&mut st, 1, Vec::new());
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

    /// The requests waiting on `ep`'s request lane.
    fn requests(ep: &Endpoint<Msg>) -> Vec<Payload> {
        std::iter::from_fn(|| ep.try_recv())
            .map(|ev| match ev {
                Event::Msg { msg, .. } => msg.payload,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    fn page_of(byte: u8) -> PageBody {
        PageBody::Full {
            bytes: vec![byte; 256].into(),
            base: 1,
        }
    }

    fn gated(n: usize, writer: ProcId, seq: u32) -> VectorClock {
        let mut v = VectorClock::zero(n);
        v.set(writer, seq);
        v
    }

    /// A one-byte diff of `page` by `writer` at interval `seq`.
    fn diff_of(page: u32, writer: ProcId, seq: u32) -> Arc<Diff> {
        let twin = dsm_page::Page::zeroed(256);
        let mut cur = twin.clone();
        cur.write(0, &[seq as u8]);
        let iv = dsm_page::Interval { proc: writer, seq };
        Arc::new(Diff::create(PageId(page), iv, &twin, &cur).unwrap())
    }

    fn parked_fetch(page: PageId, needed: VectorClock) -> WaitingFetch {
        WaitingFetch {
            from: 2,
            page,
            needed,
            req_id: 1,
        }
    }

    /// `(requester, page, req_id)` of every fetch still parked on `page`,
    /// found by applying the diff (`writer`, `seq`) they wait for.
    fn unpark(home: &HomeStore, page: u32, writer: ProcId, seq: u32) -> Vec<(ProcId, PageId, u64)> {
        match home.apply_diff_kept(&diff_of(page, writer, seq), || true).0 {
            ApplyOutcome::Applied { fresh, ready } => {
                assert!(
                    fresh,
                    "diff ({writer},{seq}) for page {page} already applied"
                );
                let mut parked: Vec<_> = ready.iter().map(|r| (r.from, r.page, r.req_id)).collect();
                parked.sort_unstable();
                parked
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn crash_fence_hands_all_four_kinds_back_untouched() {
        let (mut st, eps) = test_state(0, 2, false);
        st.pt.add_page(0);
        st.pt.add_page(0);
        let svc = st.home_svc();
        // Fetches that would park and a diff that would apply, were the
        // fence open.
        let fenced = [
            Payload::PageReq {
                page: PageId(0),
                needed: gated(2, 1, 1),
                have: None,
                req_id: 1,
            },
            Payload::PageBatchReq {
                pages: vec![
                    (PageId(0), VectorClock::zero(2), None),
                    (PageId(1), gated(2, 1, 1), None),
                ],
                req_id: 2,
            },
            Payload::DiffBatch {
                seq: 3,
                diffs: vec![diff_of(0, 1, 1), diff_of(1, 1, 1)],
            },
            Payload::LockAcq {
                lock: 4,
                acq_seq: 0,
                vt: VectorClock::zero(2),
            },
        ];
        for payload in &fenced {
            let served = svc.serve(
                &mut st.hists,
                1,
                payload,
                || false,
                |_, reply| panic!("fenced {} replied {}", payload.kind(), reply.kind()),
            );
            assert!(
                matches!(served, Served::HandBack),
                "{} must be handed back",
                payload.kind()
            );
        }
        let home = st.pt.home_store();
        for p in 0..2 {
            assert_eq!(home.version_of(PageId(p)), VectorClock::zero(2));
            assert!(unpark(&home, p, 1, 1).is_empty(), "page {p} parked a fetch");
        }
        assert_eq!(st.sync.lock().lock_mgr.tail_of(4), None);
        assert!(eps[0].try_recv().is_none());
    }

    /// Deliver one fixed request sequence to node 0 of three through its
    /// running service loop — bare, or every message piggybacked, which
    /// routes it through `handle_msg` under the big lock — and return what
    /// nodes 1 and 2 received, the home versions, and what stayed parked.
    #[allow(clippy::type_complexity)]
    fn deliver_to_service_loop(
        piggybacked: bool,
    ) -> (
        Vec<Vec<Payload>>,
        Vec<VectorClock>,
        Vec<(ProcId, PageId, u64)>,
    ) {
        let n = 3;
        let (mut st, eps) = test_state(0, n, true);
        for _ in 0..3 {
            st.pt.add_page(0);
        }
        let home = st.pt.home_store();
        let shared = Arc::new(NodeShared {
            state: Mutex::new(st),
            me: 0,
            n,
            seed: 0,
        });
        let svc_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || service_loop(shared))
        };
        let zero = || VectorClock::zero(n);
        let script = [
            // Pages 0 and 2 are ready, page 1 parks until (1,1) arrives.
            (
                1,
                Payload::PageBatchReq {
                    pages: vec![
                        (PageId(0), zero(), None),
                        (PageId(1), gated(n, 1, 1), None),
                        (PageId(2), zero(), None),
                    ],
                    req_id: 9,
                },
            ),
            (
                2,
                Payload::PageReq {
                    page: PageId(1),
                    needed: gated(n, 1, 1),
                    have: None,
                    req_id: 4,
                },
            ),
            // Page 3 is not allocated yet: deferred until it is.
            (
                2,
                Payload::PageReq {
                    page: PageId(3),
                    needed: zero(),
                    have: None,
                    req_id: 5,
                },
            ),
            // Unparks both fetches of page 1, then acks.
            (
                1,
                Payload::DiffBatch {
                    seq: 7,
                    diffs: vec![diff_of(1, 1, 1)],
                },
            ),
            // Stays parked to the end.
            (
                2,
                Payload::PageReq {
                    page: PageId(2),
                    needed: gated(n, 1, 5),
                    have: None,
                    req_id: 6,
                },
            ),
            // Lock 3 is managed here. First request: this node is the chain
            // start and grants itself; second: forwarded to the new tail.
            (
                1,
                Payload::LockAcq {
                    lock: 3,
                    acq_seq: 0,
                    vt: zero(),
                },
            ),
            (
                2,
                Payload::LockAcq {
                    lock: 3,
                    acq_seq: 0,
                    vt: zero(),
                },
            ),
        ];
        for (from, payload) in script {
            let piggy = piggybacked.then(|| Piggy {
                tckp: zero(),
                ckpt_seq: 0,
                ckpt_episode: 0,
                p0v: Vec::new(),
                table: Vec::new(),
            });
            // eps[k] is node k+1's endpoint.
            assert!(eps[from - 1].send(0, Msg::with_parent(payload, piggy, 0)));
        }
        // Whatever lane it came in on. Each lane is FIFO, so putting the
        // reply lane first (stably) gives one order to compare.
        let recv = |node: usize, count: usize| -> Vec<Payload> {
            let mut msgs: Vec<Msg> = (0..count)
                .map(|_| match eps[node - 1].recv_any(Duration::from_secs(10)) {
                    Some(Event::Msg { from: 0, msg }) => msg,
                    other => panic!("node {node}: expected a message from 0, got {other:?}"),
                })
                .collect();
            msgs.sort_by_key(|m| !dsm_net::WireSized::to_waiter(m));
            msgs.into_iter().map(|m| m.payload).collect()
        };
        // One service thread handling one FIFO request lane: node 1's fifth
        // message means the whole script has been handled.
        let mut got = vec![recv(1, 5), recv(2, 1)];
        {
            let mut st = shared.state.lock();
            assert_eq!(st.pending_unalloc.len(), 1);
            st.pt.add_page(0);
            drain_unalloc(&mut st);
            assert!(st.pending_unalloc.is_empty());
            st.shutdown = true;
            st.ep.wake();
        }
        svc_thread.join().unwrap();
        got[1].extend(recv(2, 1));
        for ep in &eps {
            let extra = ep.recv_any(Duration::ZERO);
            assert!(extra.is_none(), "unexpected extra reply");
        }
        let versions = (0..4).map(|p| home.version_of(PageId(p))).collect();
        (got, versions, unpark(&home, 2, 1, 5))
    }

    #[test]
    fn bare_and_piggybacked_deliveries_run_the_same_handler() {
        let (got, versions, parked) = deliver_to_service_loop(false);
        let kinds = |node: usize| got[node - 1].iter().map(Payload::kind).collect::<Vec<_>>();
        assert_eq!(
            kinds(1),
            [
                "PageBatchReply",
                "PageReply",
                "LockGrant",
                "DiffAck",
                "LockForward"
            ]
        );
        assert_eq!(kinds(2), ["PageReply", "PageReply"]);
        // Pages 0 and 2 came back in one batched reply; page 1 was parked
        // and answered on its own, under the batch's req_id.
        match (&got[0][0], &got[0][1]) {
            (
                Payload::PageBatchReply { req_id: 9, pages },
                Payload::PageReply {
                    page: PageId(1),
                    req_id: 9,
                    version,
                    ..
                },
            ) => {
                let ids: Vec<_> = pages.iter().map(|(p, _, _)| *p).collect();
                assert_eq!(ids, [PageId(0), PageId(2)]);
                assert_eq!(version.get(1), 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // The deferred fetch of page 3 was answered once the page existed.
        assert!(matches!(
            got[1][1],
            Payload::PageReply {
                page: PageId(3),
                req_id: 5,
                ..
            }
        ));
        assert_eq!(versions[1].get(1), 1);
        assert_eq!(parked, [(2, PageId(2), 6)]);
        assert_eq!(deliver_to_service_loop(true), (got, versions, parked));
    }

    #[test]
    fn a_page_miss_is_answered_past_the_requesters_service_loop() {
        // Node 0 homes the page and runs its service loop. Node 1 runs none,
        // so the only thread that can take the `PageReply` is the one that
        // waits for it.
        let (_fabric, endpoints) = Fabric::<Msg>::new(2);
        let shareds: Vec<Arc<NodeShared>> = endpoints
            .into_iter()
            .enumerate()
            .map(|(me, ep)| {
                let ep = Arc::new(ep);
                let mut st = NodeState::new(me, 2, 256, ep, None, NodeTracer::disabled(), None);
                st.pt.add_page(0);
                let state = Mutex::new(st);
                let (n, seed) = (2, 0);
                Arc::new(NodeShared { state, me, n, seed })
            })
            .collect();
        shareds[0].state.lock().pt.write(PageId(0), 8, &[7]);
        let home = Arc::clone(&shareds[0]);
        let svc_thread = std::thread::spawn(move || service_loop(home));

        let mut proc = crate::Process::new(Arc::clone(&shareds[1]), false);
        let base = proc.alloc(256, crate::HomeAlloc::Node(0));
        assert_eq!(proc.read::<u8>(base + 8), 7);

        let st = shareds[1].state.lock();
        assert!(st.ep.try_recv().is_none(), "reply took the request lane");
        // The waiter's handler time has a bucket, and the page wait took it
        // out of what it charged as waiting.
        assert!(st.svc_time_by_kind["PageReply"] > Duration::ZERO);
        assert_eq!(st.own_svc, Duration::ZERO);
        drop(st);
        {
            let mut st = shareds[0].state.lock();
            st.shutdown = true;
            st.ep.wake();
        }
        svc_thread.join().unwrap();
    }

    #[test]
    fn resends_of_a_blocked_wait_equal_the_first_send() {
        let waits = [
            WaitSlot::Page {
                page: PageId(3),
                req_id: 42,
                home: 0,
                needed: gated(2, 0, 7),
                reply: None,
            },
            WaitSlot::Lock {
                lock: 2,
                acq_seq: 5,
                manager: 0,
                req_vt: gated(2, 1, 3),
                grant: None,
            },
            WaitSlot::Barrier {
                episode: 4,
                arrive_vt: gated(2, 1, 9),
                own_wns: WnDelta::from_notices(&[WriteNotice {
                    interval: dsm_page::Interval { proc: 1, seq: 9 },
                    pages: vec![PageId(3)],
                }]),
                release: None,
            },
        ];
        for (wait, kind) in waits
            .into_iter()
            .zip(["PageReq", "LockAcq", "BarrierArrive"])
        {
            let (mut st, eps) = test_state(1, 2, false);
            // Page 3 was invalidated with its copy kept: every send says so,
            // the one a `NodeUp` triggers included — a peer coming up (or
            // first heard from) is no reason to forget what we hold.
            for _ in 0..4 {
                st.pt.add_page(0);
            }
            st.pt.install(PageId(3), page_of(1), &VectorClock::zero(2));
            st.pt.invalidate(PageId(3), 0, 7);
            st.wait = wait;
            assert!(send_blocked_request(&mut st), "first send");
            assert_eq!(retransmit_wait_slot(&mut st), 1, "timeout retransmit");
            handle_node_up(&mut st, 0);
            let sent = requests(&eps[0]);
            assert_eq!(sent.len(), 3);
            assert_eq!(sent[0].kind(), kind);
            assert!(sent.iter().all(|p| *p == sent[0]), "{kind} resends differ");
            if let Payload::PageReq { have, .. } = &sent[0] {
                assert_eq!(have, &Some((1, VectorClock::zero(2))));
            }
        }
        // An answered wait resends nothing.
        let (mut st, eps) = test_state(1, 2, false);
        for _ in 0..4 {
            st.pt.add_page(0);
        }
        st.wait = WaitSlot::Page {
            page: PageId(3),
            req_id: 42,
            home: 0,
            needed: VectorClock::zero(2),
            reply: Some((VectorClock::zero(2), page_of(0))),
        };
        assert_eq!(retransmit_wait_slot(&mut st), 0);
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn a_node_that_is_its_own_manager_never_touches_the_wire() {
        // Node 0 of 2 manages lock 0 and the barrier.
        let (mut st, eps) = test_state(0, 2, false);
        st.wait = WaitSlot::Lock {
            lock: 0,
            acq_seq: 0,
            manager: 0,
            req_vt: VectorClock::zero(2),
            grant: None,
        };
        assert!(send_blocked_request(&mut st));
        match &st.wait {
            WaitSlot::Lock { grant: Some(g), .. } => {
                assert_eq!((g.lock, g.acq_seq, g.granter), (0, 0, 0));
            }
            _ => panic!("own LockAcq must deposit the grant"),
        }
        assert!(eps[0].try_recv().is_none() && st.ep.try_recv().is_none());

        st.wait = WaitSlot::Barrier {
            episode: 0,
            arrive_vt: gated(2, 0, 1),
            own_wns: WnDelta::from_notices(&[]),
            release: None,
        };
        assert!(send_blocked_request(&mut st));
        assert!(
            matches!(&st.wait, WaitSlot::Barrier { release: None, .. }),
            "episode incomplete until node 1 arrives"
        );
        let from_node_1 = Payload::BarrierArrive {
            episode: 0,
            vt: gated(2, 1, 1),
            own_wns: WnDelta::from_notices(&[]),
        };
        handle_msg(&mut st, 1, from_node_1);
        match &st.wait {
            WaitSlot::Barrier {
                release: Some(r), ..
            } => assert_eq!((r.episode, r.vt.get(0), r.vt.get(1)), (0, 1, 1)),
            _ => panic!("own release must land in the wait slot"),
        }
        let sent: Vec<Event<Msg>> =
            std::iter::from_fn(|| eps[0].recv_any(Duration::ZERO)).collect();
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            &sent[0],
            Event::Msg { from: 0, msg } if msg.payload.kind() == "BarrierRelease"
        ));
        assert!(st.ep.try_recv().is_none());
        assert_eq!(st.dup_suppressed, 0);
    }

    #[test]
    fn prefetch_reply_installs_only_matching_and_still_needed_pages() {
        let (mut st, _eps) = test_state(1, 2, false);
        for _ in 0..2 {
            st.pt.add_page(0); // homed at node 0, remote here
        }
        st.prefetch
            .insert(PageId(0), PrefetchEntry { req_id: 5, home: 0 });
        st.prefetch
            .insert(PageId(1), PrefetchEntry { req_id: 5, home: 0 });
        // Stale req_id: dropped, entry kept.
        install_prefetched(&mut st, PageId(0), 4, VectorClock::zero(2), page_of(0));
        assert!(st.prefetch.contains_key(&PageId(0)));
        // Matching req_id: installed, entry consumed.
        install_prefetched(&mut st, PageId(0), 5, VectorClock::zero(2), page_of(7));
        assert!(!st.prefetch.contains_key(&PageId(0)));
        assert_eq!(st.pt.ensure_access(PageId(0)), hlrc::AccessOutcome::Ready);
        // Overtaken by a newer invalidation: entry consumed, page stays
        // invalid (a later touch fetches fresh).
        st.pt.invalidate(PageId(1), 0, 3);
        install_prefetched(&mut st, PageId(1), 5, VectorClock::zero(2), page_of(7));
        assert!(!st.prefetch.contains_key(&PageId(1)));
        assert!(matches!(
            st.pt.ensure_access(PageId(1)),
            hlrc::AccessOutcome::NeedFetch { .. }
        ));
    }

    #[test]
    fn a_delta_lands_once_and_an_overtaken_one_not_at_all() {
        let (mut st, eps) = test_state(1, 2, false);
        st.pt.add_page(0); // homed at node 0, remote here
        let page = PageId(0);
        st.pt.install(page, page_of(7), &gated(2, 0, 1));
        // Read, so that the invalidation prefetches it.
        st.pt.read_into(page, 8, &mut [0u8; 8]);
        st.pt.invalidate(page, 0, 2);
        issue_prefetch(&mut st, &[page]);
        // The request says what was kept.
        let kept = Some((1, gated(2, 0, 1)));
        match eps[0].try_recv() {
            Some(Event::Msg { msg, .. }) => match msg.payload {
                Payload::PageBatchReq { pages, .. } => {
                    assert_eq!(pages, [(page, gated(2, 0, 2), kept.clone())]);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        let req_id = st.prefetch[&page].req_id;
        let delta = |seq: u32| {
            let twin = dsm_page::Page::zeroed(256);
            let mut cur = twin.clone();
            cur.write(8, &[seq as u8; 8]);
            let iv = dsm_page::Interval { proc: 0, seq };
            PageBody::Delta(vec![Arc::new(Diff::create(page, iv, &twin, &cur).unwrap())])
        };
        let word = |st: &NodeState| {
            let copy = st.pt.remote_meta(page).copy.as_ref().expect("copy kept");
            copy.read(8, 8)[0]
        };
        // A newer notice overtakes the reply: the delta is not applied, and
        // the kept copy is still what the next request will say it is.
        st.pt.invalidate(page, 0, 3);
        install_prefetched(&mut st, page, req_id, gated(2, 0, 2), delta(2));
        assert!(!st.prefetch.contains_key(&page));
        assert_eq!((word(&st), st.pt.have(page)), (7, kept.as_ref()));
        assert_eq!(st.hists.fetch_copy.count(), 0);

        // The next batch's reply lands ...
        issue_prefetch(&mut st, &[page]);
        let req_id = st.prefetch[&page].req_id;
        install_prefetched(&mut st, page, req_id, gated(2, 0, 3), delta(3));
        assert_eq!(st.pt.ensure_access(page), hlrc::AccessOutcome::Ready);
        assert_eq!(
            (word(&st), st.pt.have(page)),
            (3, Some(&(1, gated(2, 0, 3))))
        );
        // ... and its duplicate does not: one sample, of the delta's bytes.
        st.pt.invalidate(page, 0, 4);
        install_prefetched(&mut st, page, req_id, gated(2, 0, 4), delta(4));
        assert_eq!(
            (word(&st), st.pt.have(page)),
            (3, Some(&(1, gated(2, 0, 3))))
        );
        assert_eq!(st.dup_suppressed, 1);
        let h = &st.hists.fetch_copy;
        assert_eq!((h.count(), h.sum(), st.pt.delta_installs()), (1, 8, (1, 8)));
    }

    /// Install a copy of remote `page`, read it if `used`, and invalidate it
    /// with a notice from its home.
    fn invalidated_copy(st: &mut NodeState, page: u32, used: bool) {
        let (page, n) = (PageId(page), st.n);
        st.pt.install(page, page_of(0), &VectorClock::zero(n));
        if used {
            st.pt.read_into(page, 0, &mut [0u8; 8]);
        }
        st.pt.invalidate(page, st.pt.home_of(page), 1);
    }

    fn batch_pages(payload: &Payload) -> Vec<u32> {
        match payload {
            Payload::PageBatchReq { pages, .. } => pages.iter().map(|(p, ..)| p.0).collect(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn an_invalidation_prefetches_only_pages_whose_last_copy_was_used() {
        let (mut st, eps) = test_state(2, 3, false);
        for home in [0, 0, 1, 1] {
            st.pt.add_page(home);
        }
        for (page, used) in [(0, false), (1, false), (2, true), (3, false)] {
            invalidated_copy(&mut st, page, used);
        }
        let all: Vec<PageId> = (0..4).map(PageId).collect();
        issue_prefetch(&mut st, &all);
        // Home 0 hears nothing: neither of its pages was touched. Home 1 is
        // asked for the one that was.
        assert!(requests(&eps[0]).is_empty());
        let to_home_1 = requests(&eps[1]);
        assert_eq!(to_home_1.len(), 1);
        assert_eq!(batch_pages(&to_home_1[0]), [2]);
        assert_eq!(st.prefetch.keys().collect::<Vec<_>>(), [&PageId(2)]);
        let counts = PrefetchCounts {
            prefetched: 1,
            prefetch_skipped: 3,
            ..Default::default()
        };
        assert_eq!(st.prefetch_counts, counts);
        // The next round of notices leaves the same pages out again.
        st.prefetch.clear();
        for page in &all {
            st.pt.invalidate(*page, st.pt.home_of(*page), 2);
        }
        issue_prefetch(&mut st, &all);
        assert!(requests(&eps[0]).is_empty());
        assert_eq!(batch_pages(&requests(&eps[1])[0]), [2]);
        assert_eq!(st.prefetch_counts.prefetch_skipped, 6);
        // Replay fetches page by page: nothing goes out, used or not.
        st.prefetch.clear();
        st.replay = Some(ReplayState::default());
        issue_prefetch(&mut st, &all);
        assert!(requests(&eps[1]).is_empty() && st.prefetch.is_empty());
        assert_eq!(st.prefetch_counts.prefetched, 2);
    }

    #[test]
    fn a_miss_on_a_left_out_page_asks_for_its_left_out_neighbours_in_the_same_request() {
        // Node 1 of 3; `eps` are nodes 0 and 2.
        let (mut st, eps) = test_state(1, 3, false);
        let homes = [
            0, 0, 0, 0, 0, 1, 2, 0, 0, 0, // 5 homed here, 6 of home 2
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        for home in homes {
            st.pt.add_page(home);
        }
        // Left out by the filter: the page before the miss, the miss, and
        // pages 3, 6 (of another home), 7 (asked for since), 17 and 18 after
        // it. Page 4 is valid, 8 was never held, 9 was used and is due a
        // prefetch of its own, 19 is valid.
        for page in [1, 2, 3, 6, 7, 17, 18] {
            invalidated_copy(&mut st, page, false);
        }
        invalidated_copy(&mut st, 9, true);
        for page in [4, 19] {
            st.pt
                .install(PageId(page), page_of(0), &VectorClock::zero(3));
        }
        st.prefetch
            .insert(PageId(7), PrefetchEntry { req_id: 0, home: 0 });
        st.req_id_next = 1;

        assert!(fetch_with_neighbours(&mut st, PageId(2)));
        // One request, to the page's home: the miss and what the filter
        // left out of the fifteen page ids after it.
        let sent = requests(&eps[0]);
        assert_eq!(sent.len(), 1);
        assert_eq!(batch_pages(&sent[0]), [2, 3, 17]);
        assert!(requests(&eps[1]).is_empty());
        for page in [2, 3, 17] {
            assert_eq!(st.prefetch[&PageId(page)].req_id, 1);
        }
        assert_eq!((st.prefetch.len(), st.prefetch[&PageId(7)].req_id), (4, 0));
        let mut counts = PrefetchCounts {
            prefetched: 2,
            skipped_then_missed: 1,
            ..Default::default()
        };
        assert_eq!(st.prefetch_counts, counts);

        // No left-out neighbour (the table ends inside the span): nothing
        // is sent and the fault goes on to its one-page `PageReq`.
        assert!(!fetch_with_neighbours(&mut st, PageId(18)));
        counts.skipped_then_missed = 2;
        // Nor for a miss the filter had no part in.
        for page in [8, 9] {
            assert!(!fetch_with_neighbours(&mut st, PageId(page)));
        }
        assert!(requests(&eps[0]).is_empty() && requests(&eps[1]).is_empty());
        assert_eq!((st.prefetch.len(), st.prefetch_counts), (4, counts));
    }

    #[test]
    fn prefetch_issue_groups_pages_per_home_and_skips_tracked_ones() {
        let (mut st, _eps) = test_state(2, 3, false);
        st.pt.add_page(0); // page 0 at home 0
        st.pt.add_page(1); // page 1 at home 1
        st.pt.add_page(0); // page 2 at home 0
        st.pt.add_page(2); // page 3 homed here
        for p in [0u32, 1, 2] {
            st.pt.invalidate(PageId(p), 0, 1);
        }
        st.prefetch
            .insert(PageId(2), PrefetchEntry { req_id: 0, home: 0 });
        issue_prefetch(
            &mut st,
            &[PageId(0), PageId(1), PageId(2), PageId(3), PageId(0)],
        );
        // Page 2 already in flight, page 3 homed here, page 0 deduped:
        // one batch to home 0 (page 0) and one to home 1 (page 1).
        assert_eq!(st.prefetch.len(), 3);
        assert_eq!(st.prefetch[&PageId(0)].home, 0);
        assert_eq!(st.prefetch[&PageId(1)].home, 1);
        assert_eq!(st.prefetch[&PageId(2)].req_id, 0, "in-flight entry kept");
        assert_eq!(st.hists.fetch_batch_pages.count(), 2);
    }
}
