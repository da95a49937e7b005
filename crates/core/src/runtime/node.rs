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
//! A node is a struct of modules. This file keeps what is nobody's in
//! particular — identity, mode, the page table and clocks every module
//! reads, the wait slot, [`NodeState::send`] and the kind → module
//! [`handle_msg`] — and each module owns its fields, its slice of the
//! message kinds and its own `fail_stop` / `restart_from`:
//!
//! | module | file | kinds |
//! |---|---|---|
//! | [`HomeSvc`] | `runtime/home.rs` | `PageReq`, `DiffBatch` (and the batch a `BarrierArrive` carries) |
//! | [`FetchSvc`] | `runtime/fetch.rs` | `PageReply` |
//! | [`SyncSvc`] | `runtime/sync.rs` | `LockAcq`, `LockForward`, `LockGrant`, `BarrierArrive`, `BarrierRelease` |
//! | [`FtSvc`] | `ft/mod.rs` | `DiffAck` |
//! | [`RecoverySvc`] | `ft/recovery.rs` | `RecLogReq`, `RecLogReply`, `RecPageReq`, `RecPageReply` |
//! | [`MemberSvc`] | `runtime/member.rs` | `Member` |
//!
//! A node's protocol state has two locks (see DESIGN.md "Hot path"; the
//! membership runtime keeps small locks of its own). Home-page state lives
//! in the sharded [`hlrc::HomeStore`], and the one handler for
//! `PageReq`/`DiffBatch` ([`HomeSvc::serve`]) needs nothing else — so the
//! service loop runs it without the big lock while the application computes
//! under it. The big lock keeps the rest: mode, waits, lock and barrier
//! managers, FT logs, recovery state. Lock order is big → shard; shard
//! locks are leaves.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_member::MemberConfig;
use dsm_net::{Endpoint, Event, NodeTraffic};
use dsm_page::{Interval, PageId, ProcId, VectorClock};
use dsm_trace::{EventKind, LatencyHists, NodeTracer};
use hlrc::{PageTable, WnTable};
use parking_lot::Mutex;

use crate::ft::ckpt::{CheckpointBlob, RetainedCkpt};
use crate::ft::recovery::{self, RecAsk, RecoverySvc};
use crate::ft::{self, FtState, FtSvc};
use crate::msg::{Msg, Payload};
use crate::runtime::fetch::{self, FetchSvc};
use crate::runtime::home::{self, HomeSvc, Served};
use crate::runtime::member::MemberSvc;
use crate::runtime::sync::{self, SyncSvc};
use crate::stats::NodeReport;

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

/// What the application thread is currently blocked on, a page apart (a
/// fault waits on its entry in [`FetchSvc`]). (One per node: the size of a
/// parked request does not matter.)
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum WaitSlot {
    None,
    /// The answer to `request` — a `LockAcq` or `BarrierArrive`, kept as it
    /// was sent to `to`, so that a resend is the first send again by
    /// construction — and, once it has come, the answer and its sender: a
    /// `LockGrant` or `BarrierRelease`.
    Request {
        to: ProcId,
        request: Payload,
        answer: Option<(ProcId, Payload)>,
    },
    /// Recovery: collecting the replies `ask` describes; `owed` are the
    /// peers that have not answered yet. Nothing is retransmitted for it —
    /// the recovery handshake is the fabric's reliable control plane.
    Recovery {
        ask: RecAsk,
        owed: Vec<ProcId>,
    },
}

/// Is `reply` the answer to `request`, by the number the two share?
fn answers(request: &Payload, reply: &Payload) -> bool {
    use Payload::*;
    match (request, reply) {
        (LockAcq { acq_seq: a, .. }, LockGrant { acq_seq: b, .. }) => a == b,
        (BarrierArrive { episode: a, .. }, BarrierRelease { episode: b, .. }) => a == b,
        _ => false,
    }
}

impl WaitSlot {
    /// Deposit `reply` from `from` for the blocked application thread, if
    /// it is the first answer to the request waited for. Anything else — a
    /// stale retransmission, a duplicate, a reply nobody waits for — comes
    /// back.
    pub(crate) fn deposit(&mut self, from: ProcId, reply: Payload) -> Option<Payload> {
        match self {
            WaitSlot::Request {
                request, answer, ..
            } if answer.is_none() && answers(request, &reply) => {
                *answer = Some((from, reply));
                None
            }
            _ => Some(reply),
        }
    }

    /// Take the answer deposited, with its sender; that ends the wait.
    pub(crate) fn take(&mut self) -> Option<(ProcId, Payload)> {
        let WaitSlot::Request { answer, .. } = self else {
            return None;
        };
        let answer = answer.take()?;
        *self = WaitSlot::None;
        Some(answer)
    }
}

/// The mutable state of one node: what every module reads, and the modules.
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
    /// Allocation cursor (page index of the next allocation).
    pub alloc_cursor: u32,
    /// Messages referencing pages this node has not allocated yet (SPMD
    /// allocation is local, so an eager peer can request a page before our
    /// application thread reaches the corresponding alloc). Replayed by
    /// [`crate::Process::alloc`].
    pub pending_unalloc: Vec<(ProcId, Payload)>,
    pub wait: WaitSlot,
    /// Flow id of the message currently being handled (0 outside a
    /// handler). Every message [`NodeState::send`] emits while a handler
    /// runs is causally parented on this flow, which is what lets the
    /// exporter stitch request → forward → grant chains across nodes.
    pub cur_flow: u64,
    pub fetch: FetchSvc,
    pub sync: SyncSvc,
    pub ft: FtSvc,
    pub rec: RecoverySvc,
    /// Membership (restart detection) runtime; `None` keeps orchestrated
    /// recovery (perfect-knowledge `NodeUp` broadcasts).
    pub member: Option<Arc<MemberSvc>>,
    pub ep: Arc<Endpoint<Msg>>,
    /// Protocol event tracer (a no-op handle when tracing is disabled).
    pub tracer: NodeTracer,
    /// Test-only (set via `ClusterConfig::inject_stale_apply`): one-shot
    /// trigger that re-emits a `DiffApply` event with an already-applied
    /// interval, so tests can prove the invariant monitor catches it.
    pub inject_stale_apply: Option<Arc<AtomicBool>>,
    pub shutdown: bool,
    /// DSM operations executed (crash-injection clock).
    pub ops: u64,
    /// Scripted failures (ascending op counts).
    pub crash_queue: Vec<u64>,
    /// Requests and diff batches retransmitted after a timeout.
    pub retransmits: u64,
    /// Diff batches that rode a barrier arrival instead of going alone.
    pub diff_batches_carried: u64,
    /// Duplicate or stale deliveries suppressed by the idempotency gates
    /// (grant/release/ack dedup, superseded prefetch replies).
    pub dup_suppressed: u64,
    /// Protocol handler time, attributed per message kind: the service
    /// thread's (folded in when the service loop exits) and the application
    /// thread's for the replies it handles inside its own waits.
    pub svc_time_by_kind: BTreeMap<&'static str, Duration>,
    /// The application thread's share of `svc_time_by_kind` since it last
    /// closed a page, lock or barrier wait — which takes it, so that the
    /// time is counted as handler time and not as waiting as well.
    pub own_svc: Duration,
    /// Breakdown accumulated across this node's incarnations.
    pub breakdown_acc: crate::stats::Breakdown,
    /// Latency histograms accumulated across this node's incarnations.
    pub hists: LatencyHists,
}

/// A reply sink that collects: what a handler answers, and to whom.
pub(crate) type Replies = Vec<(ProcId, Payload)>;

/// Everything shared between a node's threads.
pub(crate) struct NodeShared {
    pub state: Mutex<NodeState>,
    pub me: ProcId,
    pub n: usize,
    /// The run's `FTDSM_SEED`, for diagnostics.
    pub seed: u64,
}

impl NodeState {
    /// A node at the start of a run. `membership` switches the failure
    /// detector and the retry layer on, together. A scripted `crash_queue`
    /// and the monitor's `inject_stale_apply` trigger are set by the one
    /// caller that has them.
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
            alloc_cursor: 0,
            pending_unalloc: Vec::new(),
            wait: WaitSlot::None,
            cur_flow: 0,
            fetch: FetchSvc::default(),
            sync: SyncSvc::new(me, n),
            ft: FtSvc::new(me, n, ft, membership.map(|cfg| cfg.retry_after)),
            rec: RecoverySvc::default(),
            member: membership
                .map(|cfg| Arc::new(MemberSvc::new(cfg, Arc::clone(&ep), tracer.clone()))),
            ep,
            tracer,
            inject_stale_apply: None,
            shutdown: false,
            ops: 0,
            crash_queue: Vec::new(),
            retransmits: 0,
            diff_batches_carried: 0,
            dup_suppressed: 0,
            svc_time_by_kind: BTreeMap::new(),
            own_svc: Duration::ZERO,
            breakdown_acc: Default::default(),
            hists: Default::default(),
        }
    }

    /// Everything measured on this node so far, over all its incarnations,
    /// with what `traffic` (the fabric's counters of this node's sends) says
    /// — the one place a [`NodeReport`] is put together: teardown, the
    /// periodic sampler and the panic-time dump all call it. Never waits:
    /// `None` while a home-store shard or one of the membership layer's
    /// small locks is held (see [`MemberSvc::fold_into`]). Handler time and histograms the service
    /// loop keeps in locals are folded in when that thread exits, and the
    /// application thread's breakdown when an incarnation ends, so a mid-run
    /// report lags them.
    pub(crate) fn report(&self, traffic: &NodeTraffic) -> Option<NodeReport> {
        let mut hists = self.hists.clone();
        let member = match &self.member {
            Some(m) => m.fold_into(&mut hists)?,
            None => Default::default(),
        };
        let mut breakdown = self.breakdown_acc;
        breakdown.protocol += self.svc_time_by_kind.values().sum::<Duration>();
        let (fetch_delta_pages, fetch_delta_bytes) = self.pt.delta_installs();
        Some(NodeReport {
            breakdown,
            traffic: traffic.snapshot(),
            ft: self.ft.report(),
            ops: self.ops,
            hists,
            pool: self.pt.pool_stats()?,
            svc_time_by_kind: self
                .svc_time_by_kind
                .iter()
                .map(|(&k, &d)| (k, d))
                .collect(),
            msg_kinds: traffic.kind_counts(),
            msg_kind_bytes: traffic.kind_bytes(),
            member,
            retransmits: self.retransmits,
            diff_batches_carried: self.diff_batches_carried,
            dup_suppressed: self.dup_suppressed,
            fetch_delta_pages,
            fetch_delta_bytes,
            prefetch: self.fetch.counts(),
            diff_outbox_depth: self.ft.outbox_depth() as u64,
        })
    }

    /// Bytes of shared memory allocated so far (page granular).
    pub(crate) fn shared_bytes(&self) -> u64 {
        (self.pt.len() * self.pt.page_size()) as u64
    }

    /// Fail-stop: the node goes silent and everything volatile is gone —
    /// each module's by its own `fail_stop`, and here what is no module's.
    /// Identity, the handles to the outside, the failure script and what the
    /// run reports (accumulated across incarnations) survive.
    pub(crate) fn fail_stop(&mut self) {
        self.set_mode(Mode::Crashed);
        // Fence the service loop's lock-free handler: after the mode flag
        // flips, drain the shard locks, so nothing that started before the
        // flip is still in flight.
        self.pt.home_store().quiesce();
        // The page *slots* stay allocated: replay re-runs the same
        // allocations over them. Home copies are overwritten from stable
        // storage by `restart_from`; remote copies (kept ones and their
        // versions included), parked fetches (requesters retransmit on
        // NodeUp) and the homed pages' diff rings are lost now.
        self.pt.reset_for_restart(&[]);
        self.vt = VectorClock::zero(self.n);
        self.wn_table = WnTable::new();
        self.alloc_cursor = 0;
        self.pending_unalloc.clear();
        self.wait = WaitSlot::None;
        self.cur_flow = 0;
        self.fetch.fail_stop();
        self.sync.fail_stop();
        self.ft.fail_stop();
        self.rec.fail_stop();
    }

    /// Restart from `image` — the newest checkpoint or, when there is none,
    /// the genesis blob (see [`crate::ft::ckpt::restart_image`]) — after [`NodeState::fail_stop`] wiped the node.
    /// `window` is the retained-checkpoint index of the blobs still on
    /// stable storage. What is neither restored here nor a survivor is
    /// rebuilt by `run_recovery` from the peers' logs and by replay.
    pub(crate) fn restart_from(&mut self, image: &CheckpointBlob, window: Vec<RetainedCkpt>) {
        assert_eq!(
            self.mode,
            Mode::Recovering,
            "restart outside Recovering mode"
        );
        self.vt = image.tckp.clone();
        self.sync.restart_from(image);
        // Homed pages: the image's copy, or zeros for a page no checkpoint
        // has carried yet.
        self.pt.reset_for_restart(&image.needed);
        let zeros = vec![0u8; self.pt.page_size()];
        for p in self.pt.homed_pages() {
            self.pt
                .restore_home_page(p, &zeros, VectorClock::zero(self.n));
        }
        for (p, v, bytes) in &image.home_pages {
            self.pt.restore_home_page(*p, bytes, v.clone());
        }
        // Own write notices, out of the restored logs, back into the table:
        // the next arrival sends those past `last_bar_arrive_seq` from it.
        self.ft.restart_from(image, window);
        for e in self.ft.logs().expect("recovery requires FT").wn() {
            let (proc, seq) = (self.me, e.seq);
            let interval = Interval { proc, seq };
            self.wn_table.insert_parts(interval, e.pages.clone());
        }
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
    /// carries news, see [`FtSvc::make_piggy`]).
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
        let piggy = self.ft.make_piggy(&self.pt, to, gossip);
        self.ep
            .send(to, Msg::with_parent(payload, piggy, self.cur_flow));
    }

    /// [`NodeState::send`] what a handler put in its reply sink, in order.
    pub(crate) fn send_all(&mut self, replies: Replies) {
        for (to, reply) in replies {
            self.send(to, reply);
        }
    }

    /// For a thread other than the application thread, after it ran a
    /// handler under the big lock: if that answered the application thread's
    /// wait (a self-send — the barrier completed at this manager, a forward
    /// named this node granter of its own request), wake it.
    pub(crate) fn poke_if_answered(&self) {
        if matches!(
            self.wait,
            WaitSlot::Request {
                answer: Some(_),
                ..
            }
        ) {
            self.ep.poke();
        }
    }

    /// The unanswered request the application thread is blocked on and its
    /// destination. The first send, the timeout retransmit and the `NodeUp`
    /// resend all come from here.
    fn blocked_request(&self) -> Option<(ProcId, Payload)> {
        match &self.wait {
            WaitSlot::Request {
                to,
                request,
                answer: None,
            } => Some((*to, request.clone())),
            _ => None,
        }
    }

    /// Park `request` in the wait slot and send it to `to`, for the
    /// application thread to block on its answer. A batch it carries rides
    /// this send only: the outbox, not a resend, retransmits a batch.
    pub(crate) fn block_on(&mut self, to: ProcId, request: Payload) {
        let (mut parked, answer) = (request.clone(), None);
        parked.take_carried();
        self.wait = WaitSlot::Request {
            to,
            request: parked,
            answer,
        };
        self.send(to, request);
    }

    /// Retransmit whatever request the application thread is blocked on —
    /// the one in the wait slot, or the fetch its fault waits for (called by
    /// the wait loop after the retry timeout of silence). Returns 1 when
    /// something was resent. Every receiver path is idempotent under
    /// duplication: requests dedup by `req_id`/`acq_seq`/`episode`, grants
    /// replay from the release log, and installs are version-gated.
    pub(crate) fn retransmit_wait_slot(&mut self) -> u64 {
        let Some((to, payload)) = self.blocked_request() else {
            return fetch::retransmit_awaited(self);
        };
        self.retransmit(to, payload);
        1
    }

    /// Send `payload` again, counted and traced as a retransmission.
    pub(crate) fn retransmit(&mut self, to: ProcId, payload: Payload) {
        self.retransmits += 1;
        if self.tracer.enabled() {
            let kind = payload.kind();
            self.tracer.emit(EventKind::Retransmit { kind, to });
        }
        self.send(to, payload);
    }
}

/// The highest page a payload references, if any.
fn max_page(payload: &Payload) -> Option<PageId> {
    let diffs = match payload {
        Payload::RecPageReq { page, .. } => return Some(*page),
        Payload::PageReq { pages, .. } => return pages.iter().map(|(p, ..)| *p).max(),
        Payload::DiffBatch { diffs, .. } => diffs,
        carrier => &carrier.carried()?.1,
    };
    diffs.iter().map(|d| d.page).max()
}

/// Handle one protocol message in normal mode, under the big lock: the
/// module that owns its kind does (the table in the module header). A
/// message for a page this node has yet to allocate waits for the
/// allocation. A batch a message carries is served first, as the
/// `DiffBatch` it stands for.
pub(crate) fn handle_msg(st: &mut NodeState, from: ProcId, mut payload: Payload) {
    if max_page(&payload).is_some_and(|p| p.index() >= st.pt.len()) {
        return st.pending_unalloc.push((from, payload));
    }
    if let Some(batch) = payload.take_carried() {
        home::handle(st, from, &batch);
    }
    match payload {
        Payload::PageReq { .. } | Payload::DiffBatch { .. } => home::handle(st, from, &payload),
        Payload::PageReply { .. } => fetch::handle(st, payload),
        Payload::LockAcq { .. }
        | Payload::LockForward { .. }
        | Payload::LockGrant { .. }
        | Payload::BarrierArrive { .. }
        | Payload::BarrierRelease { .. } => sync::handle(st, from, payload),
        Payload::DiffAck { seq } => ft::on_diff_ack(st, from, seq),
        Payload::RecLogReq { .. }
        | Payload::RecPageReq { .. }
        | Payload::RecLogReply { .. }
        | Payload::RecPageReply { .. } => recovery::handle(st, from, payload),
        // Membership traffic is handled off the big lock in the service
        // loop; one can still land here through a recovery-backlog replay —
        // by then it is stale, and the detector gets fresher input every
        // heartbeat period anyway.
        Payload::Member(_) => {}
    }
}

/// Replay messages that were deferred because they referenced pages this
/// node had not allocated yet (called after every allocation).
pub(crate) fn drain_unalloc(st: &mut NodeState) {
    for (from, payload) in std::mem::take(&mut st.pending_unalloc) {
        handle_msg(st, from, payload);
    }
}

/// A crashed peer restarted: re-issue lost forwards and fetches, and
/// retransmit whatever request our application thread is blocked on against
/// that peer.
pub(crate) fn handle_node_up(st: &mut NodeState, node: ProcId) {
    sync::reforward_to(st, node);
    fetch::resend_batches_to(st, node);
    if let Some((to, payload)) = st.blocked_request() {
        if to == node {
            st.send(node, payload);
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
            if st.mode == Mode::Crashed {
                return;
            }
            if let Some(p) = &msg.piggy {
                st.ft.absorb_piggy(from, p);
            }
            if st.mode == Mode::Recovering {
                return st.rec.defer(from, msg.payload);
            }
            // Everything the handler sends is causally parented on the
            // message being handled.
            st.cur_flow = msg.ctx.flow_id();
            handle_msg(st, from, msg.payload);
            st.cur_flow = 0;
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
/// the big lock, fenced by the mode flag, and so does the batch a bare
/// barrier arrival carries ([`HomeSvc::serve_batch`]); what that hands back,
/// the arrival, and everything else, is handled under the big lock.
pub(crate) fn service_loop(shared: Arc<NodeShared>) {
    let (ep, svc, mode_flag, member) = {
        let st = shared.state.lock();
        (
            Arc::clone(&st.ep),
            HomeSvc::of(&st),
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
            // Membership traffic must not wait on the big lock: the
            // application thread holds it while computing, and a Pong held
            // up behind it would tell the peer of a restart late. A crashed
            // node's input is already cut off at the fabric; the mode check
            // here just fences the drain race.
            Event::Msg {
                from,
                msg:
                    Msg {
                        payload: Payload::Member(w),
                        ..
                    },
            } => {
                if let Some(member) = &member {
                    if mode_flag.load(Ordering::SeqCst) != Mode::Crashed as u8 {
                        member.on_msg(&shared, from, w);
                    }
                }
                t0.elapsed()
            }
            Event::Msg { from, mut msg } => {
                // Replies are parented on the request's flow so the exporter
                // can stitch request → reply across nodes (0 when tracing is
                // off).
                let flow = msg.ctx.flow_id();
                let bare = |to, reply| {
                    ep.send(to, Msg::reply_to(reply, flow));
                };
                let served = if msg.piggy.is_some() || !live() {
                    Served::HandBack
                } else if let Some((seq, diffs)) = msg.payload.carried() {
                    // A carried batch is served here, as its `DiffBatch`
                    // would be; the message itself needs the big lock.
                    let served = svc.serve_batch(&mut hists, from, *seq, diffs, live, bare);
                    if let Served::Done { wake } = served {
                        msg.payload.take_carried();
                        if wake {
                            ep.poke();
                        }
                    }
                    Served::HandBack
                } else {
                    svc.serve(&mut hists, from, &msg.payload, live, bare)
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
                    Served::HandBack => {
                        t0.elapsed() + handle_locked(&shared, Event::Msg { from, msg })
                    }
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
pub(crate) mod tests {
    use super::*;
    use crate::config::FtConfig;
    use crate::msg::Piggy;
    use crate::runtime::interval;
    use crate::stats::Breakdown;
    use dsm_net::Fabric;
    use dsm_page::Diff;
    use dsm_storage::{DiskModel, StableStore};
    use hlrc::{ApplyOutcome, FetchOutcome, HomeStore, WaitingFetch};
    use hlrc::{PageBody, WnDelta};

    /// Node `me` of `n` with 256-byte pages and no membership, and the
    /// other nodes' endpoints in rank order.
    pub(crate) fn test_state(
        me: ProcId,
        n: usize,
        ft: bool,
    ) -> (NodeState, Vec<Arc<Endpoint<Msg>>>) {
        test_state_with(me, n, ft, None)
    }

    pub(crate) fn test_state_with(
        me: ProcId,
        n: usize,
        ft: bool,
        membership: Option<&MemberConfig>,
    ) -> (NodeState, Vec<Arc<Endpoint<Msg>>>) {
        let (_fabric, endpoints) = Fabric::<Msg>::new(n);
        let mut eps: Vec<Arc<Endpoint<Msg>>> = endpoints.into_iter().map(Arc::new).collect();
        let ep = Arc::clone(&eps[me]);
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let ft = ft.then(|| FtState::new(me, n, FtConfig::default(), store));
        let st = NodeState::new(me, n, 256, ep, ft, NodeTracer::disabled(), membership);
        eps.remove(me);
        (st, eps)
    }

    /// A wait for the answer to `request`, sent to `to`.
    pub(crate) fn waiting_on(to: ProcId, request: Payload) -> WaitSlot {
        let answer = None;
        WaitSlot::Request {
            to,
            request,
            answer,
        }
    }

    /// The one payload waiting for `ep`, on either lane.
    pub(crate) fn only_payload(ep: &Endpoint<Msg>) -> Payload {
        let Some(Event::Msg { msg, .. }) = ep.recv_any(Duration::ZERO) else {
            panic!("nothing was sent")
        };
        assert!(ep.recv_any(Duration::ZERO).is_none(), "more than one");
        msg.payload
    }

    /// The requests waiting on `ep`'s request lane.
    pub(crate) fn requests(ep: &Endpoint<Msg>) -> Vec<Payload> {
        std::iter::from_fn(|| ep.try_recv())
            .map(|ev| match ev {
                Event::Msg { msg, .. } => msg.payload,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    pub(crate) fn page_of(byte: u8) -> PageBody {
        PageBody::Full {
            bytes: vec![byte; 256].into(),
            base: 1,
        }
    }

    pub(crate) fn gated(n: usize, writer: ProcId, seq: u32) -> VectorClock {
        let mut v = VectorClock::zero(n);
        v.set(writer, seq);
        v
    }

    /// A one-byte diff of `page` by `writer` at interval `seq`.
    pub(crate) fn diff_of(page: u32, writer: ProcId, seq: u32) -> Arc<Diff> {
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
    pub(crate) fn unpark(
        home: &HomeStore,
        page: u32,
        writer: ProcId,
        seq: u32,
    ) -> Vec<(ProcId, PageId, u64)> {
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
    fn crash_then_genesis_restart_equals_a_new_node_and_keeps_the_survivors() {
        let n = 3;
        let vt = |v: [u32; 3]| VectorClock::from_vec(v.to_vec());
        let retrying = MemberConfig::default();
        let with_pages = || {
            let (mut st, eps) = test_state_with(1, n, true, Some(&retrying));
            st.pt.add_page(0); // page 0: remote
            st.pt.add_page(1); // pages 1, 2: homed here
            st.pt.add_page(1);
            (st, eps)
        };
        let (mut st, eps) = with_pages();

        // Dirty what is nobody's in particular ...
        let iv = |proc, seq| dsm_page::Interval { proc, seq };
        st.vt = vt([3, 5, 1]);
        st.wn_table.insert_parts(iv(0, 3), vec![PageId(1)]);
        st.wn_table.insert_parts(iv(1, 5), vec![PageId(0)]);
        st.pending_unalloc
            .push((0, Payload::RecLogReq { homed: Vec::new() }));
        st.alloc_cursor = 3;
        st.cur_flow = 77;
        st.pt
            .restore_home_page(PageId(1), &[7u8; 256], vt([2, 5, 0]));
        st.pt.write(PageId(2), 8, &[1, 2, 3]);
        // A remote copy, read and kept across its invalidation, and a diff
        // in a ring.
        st.pt.install(PageId(0), page_of(1), &vt([0, 0, 0]));
        st.pt.read_into(PageId(0), 0, &mut [0u8; 8]);
        st.pt.invalidate(PageId(0), 0, 3);
        assert_eq!(st.pt.have(PageId(0)), Some(&(1, vt([0, 0, 0]))));
        let home = st.pt.home_store();
        home.apply_diff_kept(&diff_of(1, 2, 1), || true);
        assert!(home.ring_bytes(PageId(1)) > 0);
        home.serve_fetch(parked_fetch(PageId(2), gated(n, 0, 9)), || true);
        // ... and every module, through what it handles. Sync: we hold lock
        // 4 (which we manage) by acquisition 2, node 2's request for it has
        // reached us as its manager, a forward queues behind our tenure,
        // lock 5 was released, and the counters have counted.
        for _ in 0..4 {
            st.sync.take_acq_seq();
        }
        st.sync.crossed();
        st.sync.note_arrival(5);
        st.sync.enter(4, 2, 9);
        st.sync.enter(5, 3, 1);
        st.sync.leave(5, vt([1, 1, 0]));
        let request = Payload::LockAcq {
            lock: 4,
            acq_seq: 0,
            vt: vt([0, 0, 0]),
        };
        handle_msg(&mut st, 2, request);
        let forward = Payload::LockForward {
            lock: 4,
            requester: 2,
            acq_seq: 1,
            gen: 10,
            pred_acq: 2,
            vt: vt([0, 0, 1]),
        };
        handle_msg(&mut st, 1, forward);
        // Fetch: a request in flight for page 0. FT: a diff batch in the
        // outbox and knowledge about a peer. Recovery: both queues.
        fetch::issue_prefetch(&mut st, &[PageId(0)]);
        assert!(st.fetch.in_flight(PageId(0)));
        ft::send_diff_batch(&mut st, 0, vec![diff_of(0, 1, 5)]);
        assert!(!st.ft.drained());
        let sent = requests(&eps[0]);
        let (Payload::PageReq { req_id, .. }, Payload::DiffBatch { seq: old_seq, .. }) =
            (&sent[0], &sent[1])
        else {
            panic!("unexpected {sent:?}")
        };
        st.rec.defer(0, Payload::RecLogReq { homed: Vec::new() });
        st.rec.defer(0, Payload::DiffAck { seq: 9 });
        let blocked = Payload::LockAcq {
            lock: 7,
            acq_seq: 3,
            vt: vt([3, 5, 1]),
        };
        st.wait = waiting_on(1, blocked);
        // ... and what a crash must leave alone.
        st.ops = 40;
        st.crash_queue = vec![99];
        st.retransmits = 3;
        st.dup_suppressed = 2;
        st.hists.lock_wait.record(5);
        st.breakdown_acc.protocol = Duration::from_millis(1);
        let counts = st.fetch.counts();
        assert_eq!(counts.prefetched, 1);

        st.fail_stop();
        assert_eq!(st.mode, Mode::Crashed);
        assert_eq!(st.mode_flag.load(Ordering::SeqCst), Mode::Crashed as u8);
        // Rings and kept copies are volatile: gone with the crash, before
        // any restart, so recovery cannot come to read them.
        assert!(st.pt.have(PageId(0)).is_none() && st.pt.remote_meta(PageId(0)).copy.is_none());
        assert_eq!(home.ring_bytes(PageId(1)), 0);
        st.set_mode(Mode::Recovering);
        st.restart_from(&CheckpointBlob::genesis(n), Vec::new());

        // Every wholly volatile module equals a freshly built one (the two
        // with survivors are compared in their own files), and what is
        // nobody's is what `NodeState::new` makes it.
        let (new, _new_eps) = with_pages();
        assert_eq!(st.sync, new.sync);
        assert_eq!(st.rec, new.rec);
        assert!(!st.fetch.in_flight(PageId(0)) && st.ft.drained());
        assert_eq!(st.ft.fetch_needed(PageId(0), vt([0, 0, 0])), vt([0, 0, 0]));
        assert_eq!(st.vt, new.vt);
        assert!(st.wn_table.is_empty());
        assert!(matches!(st.wait, WaitSlot::None) && st.pending_unalloc.is_empty());
        assert_eq!((st.alloc_cursor, st.cur_flow), (0, 0));
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

        // Survivors are untouched.
        assert_eq!(st.mode, Mode::Recovering);
        assert_eq!(st.ops, 40);
        assert_eq!(st.crash_queue, [99]);
        assert_eq!((st.retransmits, st.dup_suppressed), (3, 2));
        assert_eq!(st.hists.lock_wait.count(), 1);
        assert_eq!(st.breakdown_acc.protocol, Duration::from_millis(1));
        assert_eq!((st.pt.len(), st.shared_bytes()), (3, 3 * 256));
        assert_eq!(st.fetch.counts(), counts);
        // Request ids and the diff sequence keep counting: an answer
        // addressed to the previous incarnation cannot match a new request.
        st.set_mode(Mode::Normal);
        st.pt.install(PageId(0), page_of(1), &vt([0, 0, 0]));
        st.pt.read_into(PageId(0), 0, &mut [0u8; 8]);
        st.pt.invalidate(PageId(0), 0, 3);
        fetch::issue_prefetch(&mut st, &[PageId(0)]);
        ft::send_diff_batch(&mut st, 0, vec![diff_of(0, 1, 1)]);
        let sent = requests(&eps[0]);
        match (&sent[0], &sent[1]) {
            (Payload::PageReq { req_id: r, .. }, Payload::DiffBatch { seq, .. }) => {
                assert!(r > req_id && seq > old_seq)
            }
            _ => panic!("unexpected {sent:?}"),
        }
        handle_msg(&mut st, 0, Payload::DiffAck { seq: *old_seq });
        assert!(!st.ft.drained() && st.dup_suppressed == 3);
    }

    #[test]
    fn a_lock_request_waits_out_a_recovery_and_dies_with_a_crash() {
        // Node 0 of 2 manages lock 0; node 1 asks for it.
        let acq = Payload::LockAcq {
            lock: 0,
            acq_seq: 0,
            vt: VectorClock::zero(2),
        };
        let request = || Event::Msg {
            from: 1,
            msg: Msg::with_parent(acq.clone(), None, 0),
        };
        let (mut st, eps) = test_state(0, 2, false);
        st.set_mode(Mode::Recovering);
        dispatch(&mut st, request());
        let mut backlog = RecoverySvc::default();
        backlog.defer(1, acq.clone());
        assert_eq!(st.rec, backlog, "a recovering manager defers the request");
        st.set_mode(Mode::Crashed);
        dispatch(&mut st, request());
        assert_eq!(st.rec, backlog, "a crashed manager drops it");
        assert_eq!(st.sync, SyncSvc::new(0, 2), "the manager routed nothing");
        assert!(eps[0].recv_any(Duration::ZERO).is_none());
        // In Normal mode the same request is routed: node 0 is the chain
        // start, so node 1 is granted at once.
        st.set_mode(Mode::Normal);
        dispatch(&mut st, request());
        assert_ne!(st.sync, SyncSvc::new(0, 2));
        assert_eq!(only_payload(&eps[0]).kind(), "LockGrant");
    }

    #[test]
    fn deposits_match_only_the_waited_for_slot() {
        let grant = |acq_seq, gen| Payload::LockGrant {
            lock: 1,
            acq_seq,
            gen,
            vt: VectorClock::zero(3),
            wns: WnDelta::empty(),
        };
        let request = Payload::LockAcq {
            lock: 1,
            acq_seq: 42,
            vt: VectorClock::zero(3),
        };
        let mut wait = waiting_on(0, request);
        // A grant for an older acquisition comes back, and so does a
        // release, whatever its number: only a grant answers an acquire.
        assert_eq!(wait.deposit(0, grant(41, 0)), Some(grant(41, 0)));
        let release = Payload::BarrierRelease {
            episode: 42,
            vt: VectorClock::zero(3),
            wns: WnDelta::empty(),
        };
        assert_eq!(wait.deposit(0, release.clone()), Some(release));
        assert!(wait.take().is_none());
        assert_eq!(wait.deposit(0, grant(42, 0)), None);
        // A second grant of the same acquisition is a duplicate.
        assert_eq!(wait.deposit(0, grant(42, 1)), Some(grant(42, 1)));
        assert_eq!(wait.take(), Some((0, grant(42, 0))));
        assert!(wait.take().is_none());
        // Nothing is deposited when nothing is waited for.
        assert!(WaitSlot::None.deposit(0, grant(42, 0)).is_some());
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
        let one_page = |page, needed, req_id| Payload::PageReq {
            pages: vec![(PageId(page), needed, None)],
            req_id,
        };
        let script = [
            // Pages 0 and 2 are ready, page 1 parks until (1,1) arrives.
            (
                1,
                Payload::PageReq {
                    pages: vec![
                        (PageId(0), zero(), None),
                        (PageId(1), gated(n, 1, 1), None),
                        (PageId(2), zero(), None),
                    ],
                    req_id: 9,
                },
            ),
            (2, one_page(1, gated(n, 1, 1), 4)),
            // Page 3 is not allocated yet: deferred until it is.
            (2, one_page(3, zero(), 5)),
            // Unparks both fetches of page 1, then acks.
            (
                1,
                Payload::DiffBatch {
                    seq: 7,
                    diffs: vec![diff_of(1, 1, 1)],
                },
            ),
            // Stays parked to the end.
            (2, one_page(2, gated(n, 1, 5), 6)),
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
            // Node 1 arrives at the barrier managed here with a diff for
            // page 0: applied and acked, the episode still open.
            (
                1,
                Payload::BarrierArrive {
                    episode: 0,
                    vt: gated(n, 1, 2),
                    own_wns: WnDelta::empty(),
                    batch: Some((8, vec![diff_of(0, 1, 2)])),
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
        // One service thread handling one FIFO request lane: node 1's sixth
        // message means the whole script has been handled.
        let mut got = vec![recv(1, 6), recv(2, 1)];
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
                "PageReply",
                "PageReply",
                "LockGrant",
                "DiffAck",
                "LockForward",
                "DiffAck"
            ]
        );
        assert_eq!(kinds(2), ["PageReply", "PageReply"]);
        // `(req_id, pages)` of a reply.
        let replied = |reply: &Payload| match reply {
            Payload::PageReply { req_id, pages } => {
                (*req_id, pages.iter().map(|(p, ..)| p.0).collect::<Vec<_>>())
            }
            other => panic!("unexpected: {other:?}"),
        };
        // Pages 0 and 2 came back in one reply; page 1 was parked and
        // answered on its own, under the same req_id.
        assert_eq!(replied(&got[0][0]), (9, vec![0, 2]));
        assert_eq!(replied(&got[0][1]), (9, vec![1]));
        assert_eq!(replied(&got[1][0]), (4, vec![1]));
        // The deferred fetch of page 3 was answered once the page existed.
        assert_eq!(replied(&got[1][1]), (5, vec![3]));
        assert_eq!(versions[1].get(1), 1);
        // The arrival's batch was served as a `DiffBatch` would be.
        assert_eq!(versions[0].get(1), 2);
        assert_eq!(got[0][5], Payload::DiffAck { seq: 8 });
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
        type Block = fn(&mut NodeState);
        let blocks: [(&str, Block); 3] = [
            ("PageReq", |st| {
                fetch::fetch_with_neighbours(st, PageId(3));
                st.fetch.await_page(PageId(3));
            }),
            ("LockAcq", |st| interval::request(st, 2)),
            ("BarrierArrive", |st| {
                interval::arrive(st, &mut Breakdown::default());
            }),
        ];
        for (kind, block) in blocks {
            let (mut st, eps) = test_state(1, 2, false);
            // Page 3 was invalidated with its copy kept: every send says so,
            // the one a `NodeUp` triggers included — a peer coming up (or
            // first heard from) is no reason to forget what we hold.
            for _ in 0..4 {
                st.pt.add_page(0);
            }
            st.pt.install(PageId(3), page_of(1), &VectorClock::zero(2));
            st.pt.invalidate(PageId(3), 0, 7);
            st.pt.install(PageId(0), page_of(0), &VectorClock::zero(2));
            st.pt.write(PageId(0), 0, &[1]);
            st.close_interval(&mut Breakdown::default()); // a notice for the arrival to carry
            requests(&eps[0]);
            block(&mut st); // parks the request and sends it
            assert_eq!(st.retransmit_wait_slot(), 1, "timeout retransmit");
            handle_node_up(&mut st, 0);
            let sent = requests(&eps[0]);
            assert_eq!(sent.len(), 3);
            assert_eq!(sent[0].kind(), kind);
            assert!(sent.iter().all(|p| *p == sent[0]), "{kind} resends differ");
            if let Payload::PageReq { pages, .. } = &sent[0] {
                let kept = Some((1, VectorClock::zero(2)));
                assert_eq!(pages, &[(PageId(3), gated(2, 0, 7), kept)]);
            }
            // An answered wait resends nothing.
            let answer = match &sent[0] {
                Payload::PageReq { req_id, .. } => Payload::PageReply {
                    req_id: *req_id,
                    pages: vec![(PageId(3), gated(2, 0, 7), page_of(0))],
                },
                Payload::LockAcq { lock, acq_seq, .. } => Payload::LockGrant {
                    lock: *lock,
                    acq_seq: *acq_seq,
                    gen: 1,
                    vt: VectorClock::zero(2),
                    wns: WnDelta::empty(),
                },
                _ => Payload::BarrierRelease {
                    episode: 0,
                    vt: VectorClock::zero(2),
                    wns: WnDelta::empty(),
                },
            };
            handle_msg(&mut st, 0, answer);
            assert_eq!(st.retransmit_wait_slot(), 0);
            assert!(eps[0].try_recv().is_none() && st.dup_suppressed == 0);
        }
    }

    #[test]
    fn a_node_that_is_its_own_manager_never_touches_the_wire() {
        // Node 0 of 2 manages lock 0 and the barrier.
        let (mut st, eps) = test_state(0, 2, false);
        interval::request(&mut st, 0);
        match st.wait.take() {
            Some((0, Payload::LockGrant { lock, acq_seq, .. })) => {
                assert_eq!((lock, acq_seq), (0, 0));
            }
            other => panic!("own LockAcq must deposit the grant, not {other:?}"),
        }
        assert!(eps[0].try_recv().is_none() && st.ep.try_recv().is_none());

        st.vt = gated(2, 0, 1);
        interval::arrive(&mut st, &mut Breakdown::default());
        assert!(
            st.wait.take().is_none(),
            "episode incomplete until node 1 arrives"
        );
        let from_node_1 = Payload::BarrierArrive {
            episode: 0,
            vt: gated(2, 1, 1),
            own_wns: WnDelta::empty(),
            batch: None,
        };
        handle_msg(&mut st, 1, from_node_1);
        match st.wait.take() {
            Some((0, Payload::BarrierRelease { episode, vt, .. })) => {
                assert_eq!((episode, vt.get(0), vt.get(1)), (0, 1, 1))
            }
            other => panic!("own release must land in the wait slot, not {other:?}"),
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

    /// Every `Counter` row of the metric table is a total of the run, not of
    /// an incarnation: a node that has sent, faulted, logged, checkpointed,
    /// prefetched and retransmitted reports none of them lower after a crash
    /// and a restart from its checkpoint. Generic over the table, so a new
    /// statistic that a restart resets fails here without being named.
    #[test]
    fn no_counter_of_the_metric_table_decreases_across_a_crash_and_a_restart() {
        use crate::ft::ckpt;
        use dsm_metrics::MetricValue;
        use std::collections::BTreeMap;

        let (me, n) = (1, 3);
        let (fabric, endpoints) = Fabric::<Msg>::new(n);
        let ep = Arc::new(endpoints.into_iter().nth(me).unwrap());
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let ft = FtState::new(me, n, FtConfig::default(), Arc::clone(&store));
        let retrying = MemberConfig::default();
        let tracer = NodeTracer::disabled();
        let mut st = NodeState::new(me, n, 256, ep, Some(ft), tracer, Some(&retrying));
        st.pt.add_page(1); // page 0: homed here
        st.pt.add_page(2); // page 1: remote
        let mut bd = Breakdown::default();
        let write_both = |st: &mut NodeState, bd: &mut Breakdown, byte: u8| {
            st.pt.install(PageId(1), page_of(0), &VectorClock::zero(n));
            st.pt.write(PageId(0), 8, &[byte]);
            st.pt.write(PageId(1), 8, &[byte]);
            st.close_interval(bd);
        };
        // One interval logged and saved by a checkpoint that trims nothing
        // yet, one logged and lost with the crash.
        write_both(&mut st, &mut bd, 1);
        ft::take_checkpoint(&mut st, 1, Vec::new(), &mut bd);
        write_both(&mut st, &mut bd, 2);
        st.pt.invalidate(PageId(1), 2, 1);
        fetch::issue_prefetch(&mut st, &[PageId(1)]);
        st.retransmit_wait_slot();
        ft::resend_inflight_diffs(&mut st, 2);
        st.ops = 40;
        st.dup_suppressed = 2;
        st.hists.page_fetch.record(5);
        *st.svc_time_by_kind.entry("PageReply").or_default() += Duration::from_millis(1);
        st.breakdown_acc = bd;

        let counters = |st: &NodeState| -> BTreeMap<String, u64> {
            let report = st
                .report(fabric.stats().node(me))
                .expect("nothing is locked");
            let rows = report.metrics().into_iter();
            rows.filter_map(|(name, value)| match value {
                MetricValue::Counter(v) => Some((name, v)),
                _ => None,
            })
            .collect()
        };
        let before = counters(&st);
        for did in [
            "ops_total",
            "protocol_ns_total",
            "fabric_msgs_sent_total",
            "ckpts_taken_total",
            "log_created_bytes_total",
            "log_saved_bytes_total",
            "store_writes_total",
            "pool_misses_total",
            "retransmits_total",
            "dup_suppressed_total",
            "prefetched_total",
            "msgs_sent_by_kind_total{kind=\"DiffBatch\"}",
            "svc_time_ns_by_kind_total{kind=\"PageReply\"}",
        ] {
            assert!(before[did] > 0, "the node has not counted {did}");
        }

        st.fail_stop();
        st.set_mode(Mode::Recovering);
        let (image, window) = ckpt::restart_image(&store, n);
        st.restart_from(&image, window);

        let after = counters(&st);
        assert!(after.keys().eq(before.keys()), "a crash changed the table");
        for (name, was) in &before {
            assert!(after[name] >= *was, "{name}: {was} -> {}", after[name]);
        }
        assert_eq!(after["recoveries_total"], before["recoveries_total"] + 1);
        assert!(after["log_saved_bytes_total"] <= after["log_created_bytes_total"]);
    }
}
