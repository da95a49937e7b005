//! Per-node runtime state and the protocol service loop.
//!
//! Each node is a pair of threads sharing a [`NodeState`] behind a mutex
//! and one inbound queue on the node's endpoint. The *application* thread
//! runs user code and, when an operation needs remote data, blocks for it;
//! from its first receive until the operation has applied what it waited
//! for it reads the queue alone and handles every message itself — the
//! reply it waits for, as the paper's requester notices a page or grant
//! landing in its own memory, and the requests that come meanwhile. The
//! *service* thread reads only while the application computes, and passes
//! what is for the waiter; when the application thread ends, it takes
//! everything. Both run a message through the same [`Reader::handle`].
//!
//! A node is a struct of modules. This file keeps what is nobody's in
//! particular — identity, mode, the page table and clocks every module
//! reads, the wait slot, [`NodeState::send`] and the kind → module
//! [`handle_msg`] — and each module owns its fields, its slice of the
//! message kinds and its own `fail_stop` / `restart_from`:
//!
//! | module | file | kinds (*passed by the service thread*) |
//! |---|---|---|
//! | [`HomeSvc`] | `runtime/home.rs` | `PageReq`, `DiffBatch` (and the batch a `BarrierArrive` or `BarrierRelease` carries, under the big lock) |
//! | [`FetchSvc`] | `runtime/fetch.rs` | *`PageReply`* |
//! | [`SyncSvc`] | `runtime/sync.rs` | `LockAcq`, `LockForward`, *`LockGrant`*, *`BarrierArrive`*, *`BarrierRelease`* |
//! | [`RecoverySvc`] | `ft/recovery.rs` | `RecLogReq`, *`RecLogReply`*, `RecPageReq`, *`RecPageReply`* |
//!
//! What the node counts is no module's: [`Counts`] is the node's, every
//! module adds to it in place, and a module's `fail_stop` carries no
//! counter over a crash.
//!
//! A node's protocol state has two locks (see DESIGN.md "Hot path").
//! Home-page state lives in the sharded [`hlrc::HomeStore`], and the one
//! handler for `PageReq`/`DiffBatch` ([`HomeSvc::serve`]) needs nothing
//! else — so the service loop runs it without the big lock while the
//! application computes under it. The big lock keeps the rest: mode,
//! waits, lock and barrier managers, FT logs, recovery state. Lock order is
//! big → shard; shard locks are leaves.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_net::{Endpoint, Event, NodeTraffic};
use dsm_page::{Diff, Interval, PageId, ProcId, VectorClock};
use dsm_trace::{EventKind, LatencyHists, NodeTracer};
use hlrc::{PageTable, WnTable};
use parking_lot::Mutex;

use crate::ft::ckpt::{CheckpointBlob, RetainedCkpt};
use crate::ft::recovery::{self, RecoverySvc};
use crate::ft::{FtState, FtSvc};
use crate::msg::{Msg, Payload};
use crate::runtime::fetch::{self, FetchSvc};
use crate::runtime::home::{self, HomeSvc, Served};
use crate::runtime::sync::{self, SyncSvc};
use crate::stats::{Counts, NodeReport, ReqCauses};

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
#[allow(clippy::large_enum_variant)]
pub(crate) enum WaitSlot {
    None,
    /// `request`, sent to every node in `to` ([`NodeState::block_on`]), and
    /// the answers come so far, each with its sender, in arrival order. A
    /// request to one node — a `LockAcq` or a `BarrierArrive` — is owed one
    /// answer, from whichever node grants it: a `LockGrant` or a
    /// `BarrierRelease`. The recovery handshake (`RecLogReq`) and a round of
    /// home emulation (`RecPageReq`) go to every peer, and each owes its
    /// own: a `RecLogReply` or a `RecPageReply`. Nothing is sent again but
    /// to a restarted peer: the fabric delivers every message to a live
    /// node, under a fault plan through its link.
    Request {
        to: Vec<ProcId>,
        request: Payload,
        got: Vec<(ProcId, Payload)>,
    },
}

/// Is `reply` the answer to `request`, by the number the two share — or,
/// for a round of home emulation, by the pages asked, in the order asked?
pub(crate) fn answers(request: &Payload, reply: &Payload) -> bool {
    use Payload::*;
    match (request, reply) {
        (LockAcq { acq_seq: a, .. }, LockGrant { acq_seq: b, .. }) => a == b,
        (BarrierArrive { episode: a, .. }, BarrierRelease { episode: b, .. }) => a == b,
        (RecLogReq { .. }, RecLogReply { .. }) => true,
        (RecPageReq { pages: asked, .. }, RecPageReply { pages }) => {
            pages.iter().map(|rp| rp.page).eq(asked.iter().copied())
        }
        _ => false,
    }
}

impl WaitSlot {
    /// Deposit `reply` from `from` for the blocked application thread, if
    /// it answers the request waited for, an answer is still owed, and
    /// `from` has given none yet. Anything else comes back: a restart's
    /// second answer to a request already answered (the link delivers every
    /// other message once).
    pub(crate) fn deposit(&mut self, from: ProcId, reply: Payload) -> Option<Payload> {
        match self {
            WaitSlot::Request { to, request, got }
                if got.len() < to.len()
                    && !got.iter().any(|&(p, _)| p == from)
                    && answers(request, &reply) =>
            {
                got.push((from, reply));
                None
            }
            _ => Some(reply),
        }
    }

    /// Has every answer owed come?
    pub(crate) fn answered(&self) -> bool {
        matches!(self, WaitSlot::Request { to, got, .. } if got.len() == to.len())
    }

    /// Take the answers, each with its sender, in arrival order, once every
    /// one owed has come; that ends the wait.
    pub(crate) fn take(&mut self) -> Option<Vec<(ProcId, Payload)>> {
        if !self.answered() {
            return None;
        }
        match std::mem::replace(self, WaitSlot::None) {
            WaitSlot::Request { got, .. } => Some(got),
            WaitSlot::None => None,
        }
    }

    /// The nodes whose answer has not come: the one asked until a request
    /// to one node is answered, every peer yet to reply to a recovery's.
    fn owed(&self) -> Vec<ProcId> {
        match self {
            WaitSlot::Request { to, got, .. } if got.len() < to.len() => {
                let answered = |p: &ProcId| got.iter().any(|(q, _)| q == p);
                to.iter().copied().filter(|p| !answered(p)).collect()
            }
            _ => Vec::new(),
        }
    }
}

/// What the request is and who owes its answer — the answers that came are
/// left out: a deadline panic prints the slot.
impl std::fmt::Debug for WaitSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitSlot::None => f.write_str("None"),
            WaitSlot::Request { request, .. } => f
                .debug_struct("Request")
                .field("request", request)
                .field("owed", &self.owed())
                .finish(),
        }
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
    /// Lock-free mirror of `!pending_unalloc.is_empty()`, the service loop's
    /// second fence: while a message waits for an allocation nothing is
    /// served off the big lock. A later diff of the same writer could
    /// otherwise be applied as soon as the page exists, before the waiting
    /// one is replayed, and the version gate would then drop the older diff.
    pub deferring: Arc<AtomicBool>,
    pub wait: WaitSlot,
    /// The diffs of closed intervals for each remote home, oldest interval
    /// first, not sent yet. A diff is needed only by a node that knows its
    /// interval, and only a message of ours can tell one of it, so each
    /// home's leave as one `DiffBatch` ahead of our next message
    /// ([`NodeState::send`]); node 0's ride the barrier arrival when that is
    /// the next, and the manager's ride its release to each home. Volatile:
    /// a crash forgets them, with intervals nobody learned of.
    pub unsent: BTreeMap<ProcId, Vec<Arc<Diff>>>,
    /// Flow id of the message currently being handled (0 outside a
    /// handler). Every message [`NodeState::send`] emits while a handler
    /// runs is causally parented on this flow, which is what lets the
    /// exporter stitch request → forward → grant chains across nodes.
    pub cur_flow: u64,
    pub fetch: FetchSvc,
    pub sync: SyncSvc,
    pub ft: FtSvc,
    pub rec: RecoverySvc,
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
    /// What the node counts, over all its incarnations: every module adds
    /// to it in place, and no `fail_stop` touches it.
    pub counts: Counts,
    /// Why each `PageReq` was sent, over all incarnations.
    pub req_causes: ReqCauses,
    /// Bytes of pushed pages per carrying kind: see
    /// [`NodeReport::pushed_bytes`].
    pub pushed_bytes: BTreeMap<&'static str, u64>,
    /// Bytes of carried diff batches per carrying kind: see
    /// [`NodeReport::carried_bytes`].
    pub carried_bytes: BTreeMap<&'static str, u64>,
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
    /// A node at the start of a run. A scripted `crash_queue` and the
    /// monitor's `inject_stale_apply` trigger are set by the one caller that
    /// has them.
    pub(crate) fn new(
        me: ProcId,
        n: usize,
        page_size: usize,
        ep: Arc<Endpoint<Msg>>,
        ft: Option<FtState>,
        tracer: NodeTracer,
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
            deferring: Arc::new(AtomicBool::new(false)),
            wait: WaitSlot::None,
            unsent: BTreeMap::new(),
            cur_flow: 0,
            fetch: FetchSvc::default(),
            sync: SyncSvc::new(me, n),
            ft: FtSvc::new(me, n, ft),
            rec: RecoverySvc::default(),
            ep,
            tracer,
            inject_stale_apply: None,
            shutdown: false,
            ops: 0,
            crash_queue: Vec::new(),
            counts: Counts::default(),
            req_causes: ReqCauses::default(),
            pushed_bytes: BTreeMap::new(),
            carried_bytes: BTreeMap::new(),
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
    /// `None` while a home-store shard is held. Handler time and histograms
    /// the service loop keeps in locals are folded in when that thread
    /// exits, and the application thread's breakdown when an incarnation
    /// ends, so a mid-run report lags them.
    pub(crate) fn report(&self, traffic: &NodeTraffic) -> Option<NodeReport> {
        let mut breakdown = self.breakdown_acc;
        breakdown.protocol += self.svc_time_by_kind.values().sum::<Duration>();
        Some(NodeReport {
            breakdown,
            traffic: traffic.snapshot(),
            ft: self.ft.report(),
            ops: self.ops,
            hists: self.hists.clone(),
            pool: self.pt.pool_stats()?,
            svc_time_by_kind: self
                .svc_time_by_kind
                .iter()
                .map(|(&k, &d)| (k, d))
                .collect(),
            msg_kinds: traffic.kind_counts(),
            msg_kind_bytes: traffic.kind_bytes(),
            counts: self.counts,
            req_causes: self.req_causes,
            pushed_bytes: self.pushed_bytes.iter().map(|(&k, &b)| (k, b)).collect(),
            carried_bytes: self.carried_bytes.iter().map(|(&k, &b)| (k, b)).collect(),
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
        // versions included), parked fetches (requesters resend them when
        // the recovery handshake reaches them) and the homed pages' diff
        // rings are lost now.
        self.pt.reset_for_restart(&[]);
        self.vt = VectorClock::zero(self.n);
        self.wn_table = WnTable::new();
        self.alloc_cursor = 0;
        self.pending_unalloc.clear();
        self.deferring.store(false, Ordering::SeqCst);
        self.wait = WaitSlot::None;
        self.unsent.clear();
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
        // Homed pages: the image's copy, or the zero page the reset left
        // for a page no checkpoint has carried yet.
        self.pt.reset_for_restart(&image.needed);
        for (p, v, bytes) in &image.home_pages {
            self.pt.restore_home_page(*p, bytes, v.clone());
        }
        // Own write notices, out of the restored logs, back into the table:
        // the next arrival sends those past `last_bar_arrive_seq` from it.
        for e in self.ft.restart_from(image, window) {
            let interval = Interval {
                proc: self.me,
                seq: e.seq,
            };
            self.wn_table.insert_parts(interval, e.pages);
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
    /// carries news, see [`FtSvc::make_piggy`]), after the diffs held for
    /// every remote home ([`NodeState::send_unsent`]): whatever it says —
    /// a grant, a forward, a request, a release, a reply — may make its
    /// receiver or a third node need them, and per-pair FIFO and the home's
    /// one queue keep them ahead of anything that can, but for those a
    /// barrier release already carries ([`NodeState::send_all`]).
    ///
    /// A message to this node itself (it manages the lock or the barrier,
    /// or it is the next granter in a lock chain) never reaches the wire:
    /// its handler runs here, under the big lock the caller already holds,
    /// with no piggyback, inside the current causal flow, and it tells no
    /// one anything. A re-send dedups by `acq_seq`/`episode` exactly as it
    /// would at a remote manager.
    pub(crate) fn send(&mut self, to: ProcId, payload: Payload) {
        if to == self.me {
            return handle_msg(self, to, payload);
        }
        self.send_unsent();
        self.put(to, payload);
    }

    /// Send each remote home the diffs held for it as one `DiffBatch`, in
    /// ascending home order, so the piggyback state they advance replays
    /// the same.
    pub(crate) fn send_unsent(&mut self) {
        for (home, diffs) in std::mem::take(&mut self.unsent) {
            self.put(home, Payload::DiffBatch { diffs });
        }
    }

    /// Put one message for peer `to` on the wire.
    fn put(&mut self, to: ProcId, payload: Payload) {
        let gossip = matches!(payload, Payload::BarrierRelease { .. });
        let pushed = payload.pushed();
        if !pushed.is_empty() {
            self.counts.pages_pushed += pushed.len() as u64;
            let bytes = crate::wire::len_of(|w| crate::wire::put_list(w, pushed));
            *self.pushed_bytes.entry(payload.kind()).or_default() += bytes as u64;
        }
        if let Some(diffs) = payload.carried() {
            let bytes = crate::wire::len_of(|w| crate::wire::put_list(w, diffs));
            *self.carried_bytes.entry(payload.kind()).or_default() += bytes as u64;
        }
        let piggy = self.ft.make_piggy(&self.pt, to, gossip);
        self.ep
            .send(to, Msg::with_parent(payload, piggy, self.cur_flow));
    }

    /// [`NodeState::send`] what a handler put in its reply sink, in order.
    /// Every barrier arrival and release first takes the diffs held for its
    /// receiver, before the first message leaves and would send them ahead:
    /// no later message of ours can be handled ahead of either — an arrival
    /// is for the manager's waiting thread, and a release answers an arrival
    /// its receiver sent with its wait open ([`NodeState::block_on`]) — so
    /// the receiver takes every message of ours in the order sent.
    pub(crate) fn send_all(&mut self, mut replies: Replies) {
        for (to, reply) in &mut replies {
            if let Some(batch) = reply.batch_slot() {
                *batch = self.unsent.remove(to);
                self.counts.diff_batches_carried += batch.is_some() as u64;
            }
        }
        for (to, reply) in replies {
            self.send(to, reply);
        }
    }

    /// Park a request in the wait slot and send `requests` — one node's, or
    /// one to every peer — for the application thread to block on the
    /// answers. The slot keeps the first as it was built, so that a resend
    /// to a restarted peer is the first send again by construction, less
    /// what rides one send only: the batch it takes as it leaves
    /// ([`NodeState::send_all`]) — a restarted manager gets the diffs from
    /// the writer's log, as it gets every other diff it lost —, the pages it
    /// pushes — a restarted manager keeps no copy they build on — and the
    /// handshake's versions, which are each peer's own.
    ///
    /// While replaying, an acquire's or a barrier's request is not sent: the
    /// logs' answer is parked with it ([`recovery::logged_answer`]), and the
    /// wait is over at once. The first with no logged answer is the crash
    /// point, which goes live — the backlog handled before the request is
    /// parked — and leaves as any other.
    ///
    /// The wait opens before a request to another node leaves
    /// ([`Endpoint::open_wait`]): the service thread passes no answer and
    /// takes nothing behind it, so the answer — and a batch it carries — is
    /// handled before any later message of its sender. [`wait_until`]'s
    /// [`Waiting`] closes it. A request to this node is answered inline or
    /// by a third node, and opens nothing here.
    ///
    /// [`wait_until`]: crate::runtime::process::wait_until
    /// [`Waiting`]: crate::runtime::process::Waiting
    pub(crate) fn block_on(&mut self, requests: Vec<(ProcId, Payload)>) {
        let to: Vec<ProcId> = requests.iter().map(|&(p, _)| p).collect();
        let mut request = requests[0].1.clone();
        match &mut request {
            Payload::BarrierArrive { pushed, .. } => pushed.clear(),
            Payload::RecLogReq { homed } => homed.clear(),
            _ => {}
        }
        let mut got = Vec::with_capacity(to.len());
        got.extend(recovery::logged_answer(self, &request));
        let live = got.is_empty();
        if live && to != [self.me] {
            self.ep.open_wait();
        }
        self.wait = WaitSlot::Request { to, request, got };
        if live {
            self.send_all(requests);
        }
    }

    /// Whether [`NodeState::block_on`] opened the wait for a request that
    /// is still owed an answer.
    pub(crate) fn wait_opened(&self) -> bool {
        matches!(&self.wait, WaitSlot::Request { to, .. } if *to != [self.me])
            && !self.wait.answered()
    }
}

/// The highest page a payload references, if any.
fn max_page(payload: &Payload) -> Option<PageId> {
    let diffs = match payload {
        Payload::RecPageReq { pages, .. } => return pages.iter().copied().max(),
        Payload::PageReq { pages, .. } => return pages.iter().map(|(p, ..)| *p).max(),
        Payload::DiffBatch { diffs, .. } => diffs,
        carrier => carrier.carried()?,
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
        st.deferring.store(true, Ordering::SeqCst);
        return st.pending_unalloc.push((from, payload));
    }
    if let Some(diffs) = payload.batch_slot().and_then(Option::take) {
        home::handle(st, from, &Payload::DiffBatch { diffs });
    }
    match payload {
        Payload::PageReq { .. } | Payload::DiffBatch { .. } => home::handle(st, from, &payload),
        Payload::PageReply { .. } => fetch::handle(st, payload),
        Payload::LockAcq { .. }
        | Payload::LockForward { .. }
        | Payload::LockGrant { .. }
        | Payload::BarrierArrive { .. }
        | Payload::BarrierRelease { .. } => sync::handle(st, from, payload),
        Payload::RecLogReq { .. }
        | Payload::RecPageReq { .. }
        | Payload::RecLogReply { .. }
        | Payload::RecPageReply { .. } => recovery::handle(st, from, payload),
    }
}

/// Replay messages that were deferred because they referenced pages this
/// node had not allocated yet (called after every allocation).
pub(crate) fn drain_unalloc(st: &mut NodeState) {
    for (from, payload) in std::mem::take(&mut st.pending_unalloc) {
        handle_msg(st, from, payload);
    }
    let waiting = !st.pending_unalloc.is_empty();
    st.deferring.store(waiting, Ordering::SeqCst);
}

/// Peer `node` restarted — its recovery handshake has just arrived, the one
/// restart signal: it lost everything in flight to it, so re-issue lost
/// forwards and fetches, and resend whatever request our application
/// thread is blocked on against it. It kept no copy: it wants no push.
/// Returns the pages it wanted, which its replay will likely read.
pub(crate) fn handle_peer_restart(st: &mut NodeState, node: ProcId) -> Vec<PageId> {
    st.counts.restarts_seen += 1;
    st.tracer.emit(EventKind::PeerRestart { node });
    let wanted = st.pt.home_store().drop_wants(node);
    sync::reforward_to(st, node);
    fetch::resend_batches_to(st, node);
    if let WaitSlot::Request { request, .. } = &st.wait {
        if st.wait.owed().contains(&node) {
            st.send(node, request.clone());
        }
    }
    wanted
}

/// Handle one message under the big lock, whichever reader took it (see
/// [`Reader::handle`]): mode routing, the FT piggyback, then [`handle_msg`].
pub(crate) fn dispatch(st: &mut NodeState, from: ProcId, msg: Msg) {
    if st.mode == Mode::Crashed {
        return;
    }
    if let Some(p) = &msg.piggy {
        st.ft.absorb_piggy(from, p);
    }
    if st.mode == Mode::Recovering {
        return recovery::defer(st, from, msg.payload);
    }
    // Everything the handler sends is causally parented on the message
    // being handled.
    st.cur_flow = msg.ctx.flow_id();
    handle_msg(st, from, msg.payload);
    st.cur_flow = 0;
}

/// What a reader serves off the big lock behind, re-read under every shard
/// lock: the node is in Normal mode and no message waits for an allocation
/// (see [`NodeState::deferring`]).
fn off_lock_fence(st: &NodeState) -> impl Fn() -> bool + Send {
    let (mode, deferring) = (Arc::clone(&st.mode_flag), Arc::clone(&st.deferring));
    move || mode.load(Ordering::SeqCst) == Mode::Normal as u8 && !deferring.load(Ordering::SeqCst)
}

/// One reader of the node's inbound queue — the service thread, or the
/// application thread inside a wait — with what it handles messages by
/// outside the big lock.
pub(crate) struct Reader {
    pub ep: Arc<Endpoint<Msg>>,
    home: HomeSvc,
    live: Box<dyn Fn() -> bool + Send>,
    /// What the off-lock handler recorded, for the owner to fold into the
    /// node's histograms.
    pub hists: LatencyHists,
}

impl Reader {
    pub(crate) fn of(st: &NodeState) -> Reader {
        Reader {
            ep: Arc::clone(&st.ep),
            home: HomeSvc::of(st),
            live: Box::new(off_lock_fence(st)),
            hists: LatencyHists::default(),
        }
    }

    /// The one body both readers run a message through. A bare message that
    /// arrives in Normal mode goes to [`HomeSvc::serve`] without the big
    /// lock, behind [`off_lock_fence`]; what that hands back, and everything
    /// else, is [`dispatch`]ed under the big lock. Returns the time spent
    /// once the lock was held, and whether the application thread's wait
    /// may now be over: a batch was applied (it may fault on a homed page),
    /// or its wait slot holds an answer (a self-send).
    pub(crate) fn handle(
        &mut self,
        shared: &NodeShared,
        from: ProcId,
        msg: Msg,
    ) -> (Duration, bool) {
        let t0 = Instant::now();
        // Replies are parented on the request's flow so the exporter can
        // stitch request → reply across nodes (0 when tracing is off).
        let flow = msg.ctx.flow_id();
        let (ep, live) = (&self.ep, &self.live);
        let bare = |to, reply| {
            ep.send(to, Msg::reply_to(reply, flow));
        };
        let served = if msg.piggy.is_some() || !live() {
            Served::HandBack
        } else {
            self.home
                .serve(&mut self.hists, from, &msg.payload, live, bare)
        };
        if let Served::Done { wake } = served {
            return (t0.elapsed(), wake);
        }
        let batch = matches!(msg.payload, Payload::DiffBatch { .. });
        let off_lock = t0.elapsed();
        let mut st = shared.state.lock();
        let t1 = Instant::now();
        dispatch(&mut st, from, msg);
        (off_lock + t1.elapsed(), batch || st.wait.answered())
    }
}

/// The service loop: one per node, the reader of its queue while the
/// application thread computes, and of every message once that thread has
/// ended ([`Endpoint::hand_over_replies`]).
///
/// Blocks on the endpoint — no polling; [`Endpoint::wake`] posts an
/// [`Event::Wakeup`] when the shutdown flag needs re-checking. While the
/// application thread waits, that thread reads the queue instead; a message
/// this loop handled that may have ended the wait pokes it.
pub(crate) fn service_loop(shared: Arc<NodeShared>) {
    let mut reader = Reader::of(&shared.state.lock());
    let ep = Arc::clone(&reader.ep);
    // Handler time per message kind and the handler's histograms are loop
    // locals (the point is not to touch the big lock), folded into the node
    // state at exit — teardown joins service threads before collecting
    // reports.
    let mut svc_time: HashMap<&'static str, Duration> = HashMap::new();
    let mut arrivals = 0;
    // Loop until shutdown (a service receive always returns an event).
    while let Some(ev) = ep.recv() {
        let Event::Msg { from, msg } = ev else {
            if shared.state.lock().shutdown {
                break;
            }
            continue;
        };
        let kind = msg.payload.kind();
        arrivals += matches!(msg.payload, Payload::BarrierArrive { .. }) as u64;
        let (dt, answered) = reader.handle(&shared, from, msg);
        if answered {
            // No big lock needed: a poke is sticky, so a waiter between its
            // check and its receive still sees it.
            ep.poke();
        }
        *svc_time.entry(kind).or_default() += dt;
    }
    let mut st = shared.state.lock();
    for (k, d) in svc_time {
        *st.svc_time_by_kind.entry(k).or_default() += d;
    }
    st.hists.merge(&reader.hists);
    st.counts.svc_arrivals += arrivals;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::CkptPolicy;
    use crate::msg::{CkptStamp, Piggy};
    use crate::runtime::interval;
    use crate::stats::{Breakdown, ReqCause};
    use dsm_net::{Fabric, WireSized};
    use dsm_storage::{DiskModel, StableStore};
    use dsm_trace::{Trace, TraceConfig};
    use hlrc::{ApplyOutcome, FetchOutcome, HomeStore, WaitingFetch};
    use hlrc::{PageBody, WnDelta};

    /// Node `me` of `n` with 256-byte pages, and the other nodes'
    /// endpoints in rank order.
    pub(crate) fn test_state(
        me: ProcId,
        n: usize,
        ft: bool,
    ) -> (NodeState, Vec<Arc<Endpoint<Msg>>>) {
        let (_fabric, endpoints) = Fabric::<Msg>::new(n);
        let mut eps: Vec<Arc<Endpoint<Msg>>> = endpoints.into_iter().map(Arc::new).collect();
        let ep = Arc::clone(&eps[me]);
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let ft = ft.then(|| FtState::new(me, n, CkptPolicy::default(), store));
        let st = NodeState::new(me, n, 256, ep, ft, NodeTracer::disabled());
        eps.remove(me);
        (st, eps)
    }

    /// A wait for the answer to `request`, sent to `to`.
    pub(crate) fn waiting_on(to: ProcId, request: Payload) -> WaitSlot {
        let (to, got) = (vec![to], Vec::new());
        WaitSlot::Request { to, request, got }
    }

    /// The one answer a request to one node was owed, with its sender; the
    /// wait ends.
    pub(crate) fn the_answer(wait: &mut WaitSlot) -> (ProcId, Payload) {
        let answers = wait.take().expect("every answer owed has come");
        let [answer] = <[_; 1]>::try_from(answers).expect("a request to one node");
        answer
    }

    /// The next message for `ep` within `d`, whichever thread would read
    /// it: a wait that takes it and closes.
    pub(crate) fn recv_any(ep: &Endpoint<Msg>, d: Duration) -> Option<Event<Msg>> {
        let ev = ep.recv_reply(d);
        ep.close_wait();
        ev
    }

    /// The one payload waiting for `ep`.
    pub(crate) fn only_payload(ep: &Endpoint<Msg>) -> Payload {
        let Some(Event::Msg { msg, .. }) = recv_any(ep, Duration::ZERO) else {
            panic!("nothing was sent")
        };
        assert!(recv_any(ep, Duration::ZERO).is_none(), "more than one");
        msg.payload
    }

    /// The requests waiting for `ep`'s service thread.
    pub(crate) fn requests(ep: &Endpoint<Msg>) -> Vec<Payload> {
        std::iter::from_fn(|| ep.try_recv())
            .map(|ev| match ev {
                Event::Msg { msg, .. } => msg.payload,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// What a wait on `ep` takes — every kind, in arrival order — and then
    /// closes.
    pub(crate) fn waited(ep: &Endpoint<Msg>) -> Vec<Payload> {
        let taken = std::iter::from_fn(|| ep.recv_reply(Duration::ZERO))
            .map(|ev| match ev {
                Event::Msg { msg, .. } => msg.payload,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        ep.close_wait();
        taken
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
        let with_pages = || {
            let (mut st, eps) = test_state(1, n, true);
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
        // Fetch: a request in flight for page 0. Recovery: its backlog.
        fetch::issue_prefetch(&mut st, &[PageId(0)], ReqCause::ReleasePrefetch);
        assert!(st.fetch.in_flight(PageId(0)));
        let sent = requests(&eps[0]);
        let [Payload::PageReq { req_id, .. }] = &sent[..] else {
            panic!("unexpected {sent:?}")
        };
        recovery::defer(&mut st, 0, Payload::RecLogReq { homed: Vec::new() });
        // A closed interval's diff for page 0, held for its home.
        st.unsent.insert(0, vec![diff_of(0, 1, 5)]);
        let blocked = Payload::LockAcq {
            lock: 7,
            acq_seq: 3,
            vt: vt([3, 5, 1]),
        };
        st.wait = waiting_on(1, blocked);
        // ... and what a crash must leave alone.
        st.ops = 40;
        st.crash_queue = vec![99];
        st.counts.restarts_seen = 3;
        st.counts.dup_suppressed = 2;
        st.hists.lock_wait.record(5);
        st.breakdown_acc.protocol = Duration::from_millis(1);
        let (counts, causes) = (st.counts, st.req_causes);
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

        // Every wholly volatile module equals a freshly built one, the fetch
        // state but for its ids (FT's survivors are compared in its own
        // file), and what is nobody's is what `NodeState::new` makes it.
        let (new, _new_eps) = with_pages();
        assert_eq!(st.sync, new.sync);
        assert_eq!(st.rec, new.rec);
        assert_eq!(st.fetch, fetch::tests::restarted(req_id + 1));
        assert_eq!(st.vt, new.vt);
        assert!(st.wn_table.is_empty());
        assert!(matches!(st.wait, WaitSlot::None) && st.pending_unalloc.is_empty());
        assert!(st.unsent.is_empty(), "a held diff outlived the crash");
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
        assert_eq!((st.counts.restarts_seen, st.counts.dup_suppressed), (3, 2));
        assert_eq!(st.hists.lock_wait.count(), 1);
        assert_eq!(st.breakdown_acc.protocol, Duration::from_millis(1));
        assert_eq!((st.pt.len(), st.shared_bytes()), (3, 3 * 256));
        assert_eq!((st.counts, st.req_causes), (counts, causes));
        // Request ids keep counting: an answer addressed to the previous
        // incarnation cannot match a new request.
        st.set_mode(Mode::Normal);
        st.pt.install(PageId(0), page_of(1), &vt([0, 0, 0]));
        st.pt.read_into(PageId(0), 0, &mut [0u8; 8]);
        st.pt.invalidate(PageId(0), 0, 3);
        fetch::issue_prefetch(&mut st, &[PageId(0)], ReqCause::ReleasePrefetch);
        match &requests(&eps[0])[..] {
            [Payload::PageReq { req_id: r, .. }] => assert!(r > req_id),
            sent => panic!("unexpected {sent:?}"),
        }
    }

    #[test]
    fn a_lock_request_waits_out_a_recovery_and_dies_with_a_crash() {
        // Node 0 of 2 manages lock 0; node 1 asks for it.
        let acq = Payload::LockAcq {
            lock: 0,
            acq_seq: 0,
            vt: VectorClock::zero(2),
        };
        let request = || Msg::with_parent(acq.clone(), None, 0);
        let (mut st, eps) = test_state(0, 2, false);
        st.set_mode(Mode::Recovering);
        dispatch(&mut st, 1, request());
        let backlog = [(1, acq.clone())];
        assert_eq!(st.rec.deferred(), backlog, "a recovering manager defers it");
        st.set_mode(Mode::Crashed);
        dispatch(&mut st, 1, request());
        assert_eq!(st.rec.deferred(), backlog, "a crashed manager drops it");
        assert_eq!(st.sync, SyncSvc::new(0, 2), "the manager routed nothing");
        assert!(recv_any(&eps[0], Duration::ZERO).is_none());
        // In Normal mode the same request is routed: node 0 is the chain
        // start, so node 1 is granted at once.
        st.set_mode(Mode::Normal);
        dispatch(&mut st, 1, request());
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
            pushed: Vec::new(),
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
            pushed: Vec::new(),
            used: Vec::new(),
            batch: None,
        };
        assert_eq!(wait.deposit(0, release.clone()), Some(release));
        assert!(wait.take().is_none());
        assert_eq!(wait.deposit(0, grant(42, 0)), None);
        // A second grant of the same acquisition is a duplicate.
        assert_eq!(wait.deposit(0, grant(42, 1)), Some(grant(42, 1)));
        assert_eq!(wait.take(), Some(vec![(0, grant(42, 0))]));
        assert!(wait.take().is_none());
        // Nothing is deposited when nothing is waited for.
        assert!(WaitSlot::None.deposit(0, grant(42, 0)).is_some());
    }

    #[test]
    fn a_request_to_three_peers_takes_one_answer_from_each() {
        let round = |pages: &[u32]| {
            let pages = pages.iter().map(|&p| PageId(p)).collect();
            let tckp = VectorClock::zero(4);
            Payload::RecPageReq { pages, tckp }
        };
        let reply = |pages: &[u32]| {
            let pages = pages.iter().map(|&p| crate::msg::RecPage {
                page: PageId(p),
                copy: None,
                entries: Vec::new(),
            });
            Payload::RecPageReply {
                pages: pages.collect(),
            }
        };
        // Node 1 of 4 asks nodes 0, 2 and 3 for pages 5 and 7.
        let (to, got) = (vec![0, 2, 3], Vec::new());
        let request = round(&[5, 7]);
        let mut wait = WaitSlot::Request { to, request, got };
        assert_eq!(wait.deposit(3, reply(&[5, 7])), None);
        assert_eq!(wait.owed(), [0, 2]);
        // A second answer from the same peer, and another round's.
        assert_eq!(wait.deposit(3, reply(&[5, 7])), Some(reply(&[5, 7])));
        assert_eq!(wait.deposit(0, reply(&[5])), Some(reply(&[5])));
        assert!(!wait.answered() && wait.take().is_none());
        assert_eq!(wait.deposit(0, reply(&[5, 7])), None);
        assert_eq!(wait.deposit(2, reply(&[5, 7])), None);
        assert!(wait.answered() && wait.owed().is_empty());
        let got = [
            (3, reply(&[5, 7])),
            (0, reply(&[5, 7])),
            (2, reply(&[5, 7])),
        ];
        assert_eq!(wait.take(), Some(got.to_vec()));
        assert!(matches!(wait, WaitSlot::None));
    }

    /// Deliver one fixed request sequence to node 0 of three — bare, or
    /// every message piggybacked, which routes it through `handle_msg` under
    /// the big lock — to the service loop, or to the application thread
    /// inside a wait, and return what nodes 1 and 2 received, the home
    /// versions, and what stayed parked. The whole script is queued before
    /// either reads. The service loop passes the barrier arrival at its end,
    /// which carries a batch, until the application thread leaves it the
    /// queue; a waiter takes every message in arrival order.
    #[allow(clippy::type_complexity)]
    fn deliver_to_node_0(
        piggybacked: bool,
        waiter: bool,
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
            // Unparks both fetches of page 1.
            (
                1,
                Payload::DiffBatch {
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
            // page 0: applied, the episode still open.
            (
                1,
                Payload::BarrierArrive {
                    episode: 0,
                    vt: gated(n, 1, 2),
                    own_wns: WnDelta::empty(),
                    batch: Some(vec![diff_of(0, 1, 2)]),
                    used: Vec::new(),
                    pushed: Vec::new(),
                },
            ),
        ];
        for (from, payload) in script {
            let piggy = piggybacked.then(|| Piggy {
                stamp: CkptStamp::zero(n),
                p0v: Vec::new(),
                table: Vec::new(),
            });
            // eps[k] is node k+1's endpoint.
            assert!(eps[from - 1].send(0, Msg::with_parent(payload, piggy, 0)));
        }
        let ep = Arc::clone(&shared.state.lock().ep);
        let svc_thread = if waiter {
            // No service thread runs: the waiter takes the requests too.
            let mut reader = Reader::of(&shared.state.lock());
            let mut requests = Vec::new();
            while let Some(Event::Msg { from, msg }) = ep.recv_reply(Duration::ZERO) {
                requests.push(!msg.to_waiter());
                reader.handle(&shared, from, msg);
            }
            assert_eq!(requests, [true, true, true, true, true, true, true, false]);
            ep.close_wait();
            None
        } else {
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || service_loop(shared)))
        };
        // Whichever thread handled the request it answers. Putting the
        // replies first (stably) gives one order to compare.
        let recv = |node: usize, count: usize| -> Vec<Payload> {
            let mut msgs: Vec<Msg> = (0..count)
                .map(
                    |_| match recv_any(&eps[node - 1], Duration::from_secs(10)) {
                        Some(Event::Msg { from: 0, msg }) => msg,
                        other => panic!("node {node}: expected a message from 0, got {other:?}"),
                    },
                )
                .collect();
            msgs.sort_by_key(|m| !dsm_net::WireSized::to_waiter(m));
            msgs.into_iter().map(|m| m.payload).collect()
        };
        // One reader at a time, in arrival order: node 1's fourth message
        // means the whole script has been handled, but for the arrival the
        // service loop passed.
        let mut got = vec![recv(1, 4), recv(2, 1)];
        if svc_thread.is_some() {
            assert_eq!(
                home.version_of(PageId(0)).get(1),
                0,
                "the arrival was handled"
            );
            ep.hand_over_replies();
            let start = Instant::now();
            while home.version_of(PageId(0)).get(1) == 0 {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "the arrival stayed queued"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        {
            let mut st = shared.state.lock();
            assert_eq!(st.pending_unalloc.len(), 1);
            st.pt.add_page(0);
            drain_unalloc(&mut st);
            assert!(st.pending_unalloc.is_empty());
            st.shutdown = true;
            st.ep.wake();
        }
        if let Some(svc_thread) = svc_thread {
            svc_thread.join().unwrap();
        }
        got[1].extend(recv(2, 1));
        for ep in &eps {
            let extra = recv_any(ep, Duration::ZERO);
            assert!(extra.is_none(), "unexpected extra reply");
        }
        let versions = (0..4).map(|p| home.version_of(PageId(p))).collect();
        (got, versions, unpark(&home, 2, 1, 5))
    }

    #[test]
    fn bare_and_piggybacked_deliveries_run_the_same_handler_whichever_thread_reads_them() {
        let (got, versions, parked) = deliver_to_node_0(false, false);
        let kinds = |node: usize| got[node - 1].iter().map(Payload::kind).collect::<Vec<_>>();
        assert_eq!(
            kinds(1),
            ["PageReply", "PageReply", "LockGrant", "LockForward"]
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
        assert_eq!(parked, [(2, PageId(2), 6)]);
        let same = (got, versions, parked);
        assert_eq!(deliver_to_node_0(true, false), same);
        assert_eq!(deliver_to_node_0(false, true), same);
        assert_eq!(deliver_to_node_0(true, true), same);
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
                let mut st = NodeState::new(me, 2, 256, ep, None, NodeTracer::disabled());
                st.pt.add_page(0);
                let state = Mutex::new(st);
                let (n, seed) = (2, 0);
                Arc::new(NodeShared { state, me, n, seed })
            })
            .collect();
        // Node 0 writes the page in its interval 1, and node 1 has the
        // notice: the page is not cold, and its miss goes to the home.
        {
            let mut st = shareds[0].state.lock();
            st.pt.write(PageId(0), 8, &[7]);
            st.pt.end_interval(Interval { proc: 0, seq: 1 });
        }
        shareds[1].state.lock().pt.invalidate(PageId(0), 0, 1);
        let home = Arc::clone(&shareds[0]);
        let svc_thread = std::thread::spawn(move || service_loop(home));

        let mut proc = crate::Process::new(Arc::clone(&shareds[1]), false);
        let base = proc.alloc(256, crate::HomeAlloc::Node(0));
        assert_eq!(proc.read::<u8>(base + 8), 7);

        let st = shareds[1].state.lock();
        assert!(st.ep.try_recv().is_none(), "the reply was left queued");
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
        // Everything `ep` was sent, in the order it was sent:
        // the sender's endpoint is traced, so its stamps number its sends.
        let trace = Trace::new(2, &TraceConfig::enabled());
        let sent_in_order = |ep: &Endpoint<Msg>| {
            let mut sent = Vec::new();
            while let Some(Event::Msg { msg, .. }) = recv_any(ep, Duration::ZERO) {
                sent.push((msg.ctx.seq, msg.payload));
            }
            sent.sort_by_key(|(seq, _)| *seq);
            sent.into_iter().map(|(_, p)| p).collect::<Vec<_>>()
        };
        for (kind, block) in blocks {
            let (mut st, eps) = test_state(1, 2, true);
            let ep = Arc::get_mut(&mut st.ep).expect("the state holds its endpoint alone");
            ep.attach_tracer(trace.tracer(1));
            // Page 3 was invalidated with its copy kept: every send says so,
            // the one a restart triggers included — a peer coming back is
            // no reason to forget what we hold.
            for _ in 0..4 {
                st.pt.add_page(0);
            }
            st.pt.install(PageId(3), page_of(1), &VectorClock::zero(2));
            st.pt.invalidate(PageId(3), 0, 7);
            st.pt.install(PageId(0), page_of(0), &VectorClock::zero(2));
            st.pt.write(PageId(0), 0, &[1]);
            st.close_interval(&mut Breakdown::default()); // a notice for the arrival to carry
            st.send_unsent();
            requests(&eps[0]);
            block(&mut st); // parks the request and sends it
                            // Node 0 restarted: its handshake is the signal, and the resend
                            // goes out before the reply, as it did when a fabric broadcast
                            // announced the restart ahead of the handshake.
            let handshake = || Payload::RecLogReq { homed: Vec::new() };
            handle_msg(&mut st, 0, handshake());
            assert_eq!(st.counts.restarts_seen, 1);
            let mut sent = sent_in_order(&eps[0]);
            assert_eq!(sent.pop().map(|p| p.kind()), Some("RecLogReply"));
            assert_eq!(sent.len(), 2);
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
                    pushed: Vec::new(),
                },
                _ => Payload::BarrierRelease {
                    episode: 0,
                    vt: VectorClock::zero(2),
                    wns: WnDelta::empty(),
                    pushed: Vec::new(),
                    used: Vec::new(),
                    batch: None,
                },
            };
            handle_msg(&mut st, 0, answer);
            handle_msg(&mut st, 0, handshake());
            let sent = sent_in_order(&eps[0]);
            assert_eq!(
                sent.iter().map(Payload::kind).collect::<Vec<_>>(),
                ["RecLogReply"]
            );
            assert_eq!(st.counts.dup_suppressed, 0);
        }
    }

    /// A grant, a lock request and a page request sent while an interval's
    /// diffs are held each go out behind them: one `DiffBatch` for every
    /// home they are held for, whoever the message is for.
    #[test]
    fn every_message_leaves_behind_the_diffs_held_for_every_home() {
        type Send = fn(&mut NodeState);
        let sends: [(&str, ProcId, Send); 3] = [
            ("LockGrant", 2, |st| {
                // Node 2 asks for lock 1 while we hold it: due at the release.
                let vt = VectorClock::zero(3);
                let (acq_seq, lock) = (0, 1);
                handle_msg(st, 2, Payload::LockAcq { lock, acq_seq, vt });
                interval::release(st, lock);
            }),
            ("LockAcq", 2, |st| interval::request(st, 2)),
            ("PageReq", 2, |st| {
                fetch::fetch_with_neighbours(st, PageId(3))
            }),
        ];
        let trace = Trace::new(3, &TraceConfig::enabled());
        for (kind, to, send) in sends {
            // Node 1 of 3 manages lock 1 and holds it. Pages 0 and 1 are
            // node 0's and node 2's, both written; page 3, node 2's, was
            // read and has been invalidated since.
            let (mut st, eps) = test_state(1, 3, false);
            let ep = Arc::get_mut(&mut st.ep).expect("the state holds its endpoint alone");
            ep.attach_tracer(trace.tracer(1));
            for home in [0, 2, 1, 2] {
                st.pt.add_page(home);
            }
            interval::request(&mut st, 1);
            let grant = the_answer(&mut st.wait);
            interval::apply_grant(&mut st, grant, &mut Breakdown::default());
            for page in [0, 1, 3] {
                st.pt
                    .install(PageId(page), page_of(0), &VectorClock::zero(3));
            }
            st.pt.read_into(PageId(3), 0, &mut [0u8; 8]);
            st.pt.invalidate(PageId(3), 2, 7);
            st.pt.write(PageId(0), 8, &[1]);
            st.pt.write(PageId(1), 8, &[1]);
            st.close_interval(&mut Breakdown::default());
            assert!(eps.iter().all(|ep| recv_any(ep, Duration::ZERO).is_none()));

            send(&mut st);
            // Everything sent, in the order it was sent (the stamps number
            // the sender's sends), with its destination.
            let mut sent = Vec::new();
            for (ep, dest) in eps.iter().zip([0, 2]) {
                while let Some(Event::Msg { msg, .. }) = recv_any(ep, Duration::ZERO) {
                    sent.push((msg.ctx.seq, dest, msg.payload.kind()));
                }
            }
            sent.sort_unstable();
            let sent: Vec<_> = sent
                .into_iter()
                .map(|(_, dest, kind)| (dest, kind))
                .collect();
            let batches = [(0, "DiffBatch"), (2, "DiffBatch")];
            assert_eq!(sent, [batches[0], batches[1], (to, kind)], "{kind}");
            assert!(st.unsent.is_empty());
        }
    }

    #[test]
    fn a_node_that_is_its_own_manager_never_touches_the_wire() {
        // Node 0 of 2 manages lock 0 and the barrier.
        let (mut st, eps) = test_state(0, 2, false);
        interval::request(&mut st, 0);
        match st.wait.take().as_deref() {
            Some([(0, Payload::LockGrant { lock, acq_seq, .. })]) => {
                assert_eq!((*lock, *acq_seq), (0, 0));
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
            used: Vec::new(),
            pushed: Vec::new(),
        };
        handle_msg(&mut st, 1, from_node_1);
        match st.wait.take().as_deref() {
            Some([(0, Payload::BarrierRelease { episode, vt, .. })]) => {
                assert_eq!((*episode, vt.get(0), vt.get(1)), (0, 1, 1))
            }
            other => panic!("own release must land in the wait slot, not {other:?}"),
        }
        let sent: Vec<Event<Msg>> =
            std::iter::from_fn(|| recv_any(&eps[0], Duration::ZERO)).collect();
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            &sent[0],
            Event::Msg { from: 0, msg } if msg.payload.kind() == "BarrierRelease"
        ));
        assert!(st.ep.try_recv().is_none());
        assert_eq!(st.counts.dup_suppressed, 0);
    }

    #[test]
    fn an_arrival_waits_for_the_managers_application_thread_until_it_leaves_the_queue() {
        let (st, eps) = test_state(0, 2, false);
        let arrival = |episode, batch| Payload::BarrierArrive {
            episode,
            vt: VectorClock::zero(2),
            own_wns: WnDelta::empty(),
            batch,
            used: Vec::new(),
            pushed: Vec::new(),
        };
        let bare = |episode| arrival(episode, None);
        let from_node_1 = |payload| assert!(eps[0].send(0, Msg::bare(payload)));
        from_node_1(bare(0));
        assert!(st.ep.try_recv().is_none(), "the service thread passes it");
        assert_eq!(waited(&st.ep), [bare(0)]);
        // An arrival stays behind the sender's earlier requests, a batch or
        // a fetch: a wait takes them in arrival order, and takes nothing
        // while the service thread has an earlier one in hand.
        let batch = |seq| Payload::DiffBatch {
            diffs: vec![diff_of(0, 1, seq)],
        };
        let fetch = Payload::PageReq {
            pages: vec![(PageId(0), VectorClock::zero(2), None)],
            req_id: 1,
        };
        let carrying = |episode| arrival(episode, Some(vec![diff_of(0, 1, 2)]));
        from_node_1(batch(1));
        from_node_1(carrying(1));
        assert_eq!(waited(&st.ep), [batch(1), carrying(1)]);
        from_node_1(fetch.clone());
        from_node_1(bare(2));
        let Some(Event::Msg { msg, .. }) = st.ep.try_recv() else {
            panic!("the service thread takes the fetch")
        };
        assert_eq!(msg.payload, fetch);
        assert!(
            st.ep.recv_reply(Duration::ZERO).is_none(),
            "the fetch is in hand"
        );
        st.ep.close_wait();
        assert_eq!(requests(&st.ep), []);
        from_node_1(carrying(2));
        assert_eq!(waited(&st.ep), [bare(2), carrying(2)]);
        // Queued when the application thread leaves the queue to the
        // service thread, and sent after.
        from_node_1(bare(3));
        st.ep.hand_over_replies();
        from_node_1(bare(4));
        assert!(waited(&st.ep).is_empty());
        assert_eq!(requests(&st.ep), [bare(3), bare(4)]);
    }

    #[test]
    fn nothing_is_served_off_the_big_lock_while_a_message_waits_for_an_allocation() {
        // Writer 1's diffs of node 0's page 0, each to a word of its own.
        let batch = |seq: u32| {
            let twin = dsm_page::Page::zeroed(256);
            let mut cur = twin.clone();
            cur.write(8 * seq as usize, &[seq as u8]);
            let iv = Interval { proc: 1, seq };
            let diffs = vec![Arc::new(Diff::create(PageId(0), iv, &twin, &cur).unwrap())];
            Payload::DiffBatch { diffs }
        };
        let (mut st, _eps) = test_state(0, 2, false);
        let fence = off_lock_fence(&st);
        // The first comes before node 0 has allocated the page, and waits.
        handle_msg(&mut st, 1, batch(1));
        assert!(!fence());
        // The page exists, and the allocation has yet to replay the first:
        // the second, served off the big lock, is handed back untouched.
        st.pt.add_page(0);
        let svc = HomeSvc::of(&st);
        let served = svc.serve(&mut st.hists, 1, &batch(2), &fence, |_, _| {});
        assert!(matches!(served, Served::HandBack));
        drain_unalloc(&mut st);
        assert!(fence());
        handle_msg(&mut st, 1, batch(2));
        let (version, bytes) = st.pt.home_snapshot(PageId(0));
        assert_eq!((version, bytes[8], bytes[16]), (gated(2, 1, 2), 1, 2));
    }

    /// Every `Counter` row of the metric table is a total of the run, not of
    /// an incarnation: a node that has sent, faulted, logged, checkpointed,
    /// prefetched and seen a peer restart reports none of them lower after a crash
    /// and a restart from its checkpoint. Generic over the table, so a new
    /// statistic that a restart resets fails here without being named.
    #[test]
    fn after_a_restart_a_page_written_before_the_checkpoint_is_fetched_not_zero_filled() {
        let (me, n) = (1, 2);
        let (_fabric, endpoints) = Fabric::<Msg>::new(n);
        let mut eps: Vec<Arc<Endpoint<Msg>>> = endpoints.into_iter().map(Arc::new).collect();
        let ep = eps.remove(me);
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let ft = FtState::new(me, n, CkptPolicy::default(), Arc::clone(&store));
        let mut st = NodeState::new(me, n, 256, ep, Some(ft), NodeTracer::disabled());
        st.pt.add_page(0);
        st.pt.add_page(0);
        // Page 0 was cold: zero-filled, written and flushed before the
        // checkpoint. Page 1 was never touched.
        assert!(fetch::zero_fill(&mut st, PageId(0)));
        st.pt.write(PageId(0), 8, &[3]);
        let mut bd = Breakdown::default();
        st.close_interval(&mut bd);
        crate::ft::take_checkpoint(&mut st, 1, Vec::new(), &mut bd);
        assert_eq!(requests(&eps[0]).len(), 1, "the diff batch");

        st.fail_stop();
        st.set_mode(Mode::Recovering);
        let (image, window) = crate::ft::ckpt::restart_image(&store, n);
        st.restart_from(&image, window);
        st.set_mode(Mode::Normal);
        assert_eq!(st.pt.remote_meta(PageId(0)).held, hlrc::Held::Never);
        assert!(!fetch::zero_fill(&mut st, PageId(0)));
        assert!(fetch::zero_fill(&mut st, PageId(1)));
        // Asked for as before the crash: the home has our interval.
        fetch::fetch_with_neighbours(&mut st, PageId(0));
        let Payload::PageReq { pages, .. } = only_payload(&eps[0]) else {
            panic!("page 0 was not asked for")
        };
        assert_eq!(pages, [(PageId(0), VectorClock::zero(n), None)]);
        assert_eq!(st.pt.remote_meta(PageId(0)).needed, gated(n, me, 1));
    }

    #[test]
    fn no_counter_of_the_metric_table_decreases_across_a_crash_and_a_restart() {
        use crate::ft::ckpt;
        use dsm_metrics::MetricValue;
        use std::collections::BTreeMap;

        let (me, n) = (1, 3);
        let (fabric, endpoints) = Fabric::<Msg>::new(n);
        let ep = Arc::new(endpoints.into_iter().nth(me).unwrap());
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let ft = FtState::new(me, n, CkptPolicy::default(), Arc::clone(&store));
        let tracer = NodeTracer::disabled();
        let mut st = NodeState::new(me, n, 256, ep, Some(ft), tracer);
        st.pt.add_page(1); // page 0: homed here
        st.pt.add_page(2); // page 1: remote
        st.pt.add_page(2); // page 2: remote, cold
        assert!(fetch::zero_fill(&mut st, PageId(2)));
        let mut bd = Breakdown::default();
        let write_both = |st: &mut NodeState, bd: &mut Breakdown, byte: u8| {
            // A fresh copy of page 1 that holds our writes so far.
            let ours = gated(n, me, byte as u32 - 1);
            st.pt.install(PageId(1), page_of(0), &ours);
            st.pt.write(PageId(0), 8, &[byte]);
            st.pt.write(PageId(1), 8, &[byte]);
            st.close_interval(bd);
        };
        // One interval logged and saved by a checkpoint that trims nothing
        // yet, one logged and lost with the crash.
        write_both(&mut st, &mut bd, 1);
        crate::ft::take_checkpoint(&mut st, 1, Vec::new(), &mut bd);
        write_both(&mut st, &mut bd, 2);
        st.pt.invalidate(PageId(1), 2, 1);
        fetch::issue_prefetch(&mut st, &[PageId(1)], ReqCause::ReleasePrefetch);
        handle_msg(&mut st, 2, Payload::RecLogReq { homed: Vec::new() });
        st.ops = 40;
        st.counts.dup_suppressed = 2;
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
            "peer_restarts_total",
            "dup_suppressed_total",
            "prefetched_total",
            "zero_fills_total",
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
