//! Endpoints and the fabric connecting them.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_trace::{EventKind, NodeTracer};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::chaos::{ChaosState, Fate, FaultPlan};
use crate::mailbox::{Mailbox, Wait};
use crate::stats::FabricStats;

/// Index of a node in the cluster, `0..n`.
pub type NodeId = usize;

/// Liveness of a node as seen by the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Normal operation (includes a node that is executing its recovery
    /// procedure — it can already exchange messages again).
    Up,
    /// Fail-stopped: input discarded, sends to it dropped.
    Crashed,
}

/// Messages must report their encoded size so traffic can be accounted
/// without actually serializing on the hot path.
///
/// The trace-context hooks (`stamp_send`, `add_chaos_delay`, `trace_view`)
/// default to no-ops so size-only message types keep working; a message
/// carrying a [`dsm_trace::TraceCtx`] overrides them and gets causal
/// cross-node flow stitching plus queue/chaos latency attribution for free.
pub trait WireSized {
    /// Encoded size of the base-protocol part of the message, in bytes.
    fn base_wire_size(&self) -> usize;
    /// Encoded size of the fault-tolerance control (piggyback) part.
    fn ft_wire_size(&self) -> usize {
        0
    }
    /// Short stable message-kind label for tracing (e.g. `"PageReq"`).
    fn kind_name(&self) -> &'static str {
        "msg"
    }
    /// Is this a reply that a blocked requester is waiting for? Replies are
    /// delivered to the destination's reply lane ([`Endpoint::recv_reply`]),
    /// everything else to its request lane ([`Endpoint::recv`]).
    fn to_waiter(&self) -> bool {
        false
    }
    /// Stamp a fresh trace context at send time: the stamping node, a
    /// per-endpoint monotonic sequence number (starting at 1), and the
    /// send timestamp in trace-epoch nanoseconds (0 when tracing is off).
    /// Must preserve any parent flow already set by the sender.
    fn stamp_send(&mut self, _origin: u32, _seq: u64, _now_ns: u64) {}
    /// Accumulate `ns` of fabric-injected delay (chaos Delay rules and
    /// duplicate detours) so the receive side can subtract it from the
    /// observed transit time.
    fn add_chaos_delay(&mut self, _ns: u64) {}
    /// Receive-side view of the stamped context:
    /// `(flow, parent, sent_at_ns, chaos_delay_ns)`. All zeros when the
    /// message carries no context.
    fn trace_view(&self) -> (u64, u64, u64, u64) {
        (0, 0, 0, 0)
    }
}

/// What an endpoint receives: either a peer message or a fabric control
/// event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A message from `from`.
    Msg {
        /// The sender.
        from: NodeId,
        /// The payload.
        msg: M,
    },
    /// Node `node` restarted after a crash; blocked requesters should
    /// retransmit any request they still owe an answer for.
    NodeUp {
        /// The restarted node.
        node: NodeId,
    },
    /// Self-posted nudge (see [`Endpoint::wake`]): a blocking receiver
    /// should re-check its shutdown/state flags. Carries no payload.
    Wakeup,
}

impl<M: WireSized> Event<M> {
    /// The message's kind label, or the control event's name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::Msg { msg, .. } => msg.kind_name(),
            Event::NodeUp { .. } => "NodeUp",
            Event::Wakeup => "Wakeup",
        }
    }
}

/// One node's inbound queues. FIFO holds per sender *per lane*: a reply can
/// overtake a request the same peer sent earlier, and the other way round.
struct Inbox<M> {
    /// Requests and control events, for the node's service thread.
    requests: Mailbox<Event<M>>,
    /// Replies ([`WireSized::to_waiter`]), for the thread that waits for
    /// them.
    replies: Mailbox<Event<M>>,
}

struct FabricShared<M> {
    status: RwLock<Vec<NodeStatus>>,
    inboxes: Vec<Inbox<M>>,
    stats: FabricStats,
    /// Fast-path gate: false means no chaos plan and no partition, so
    /// [`Endpoint::send`] skips all injection checks.
    chaos_on: AtomicBool,
    chaos: RwLock<Option<ChaosState>>,
    /// Partition group per node; empty = fully connected. Messages whose
    /// endpoints sit in different groups are silently lost.
    partition: RwLock<Vec<u32>>,
    pump: Mutex<Option<Arc<PumpShared<M>>>>,
    pump_seq: AtomicU64,
}

impl<M> FabricShared<M> {
    fn refresh_chaos_gate(&self) {
        let on = self.chaos.read().is_some() || !self.partition.read().is_empty();
        self.chaos_on.store(on, Ordering::Release);
    }
}

impl<M: WireSized> FabricShared<M> {
    /// Queue `msg` on the lane of `to` its kind belongs to.
    fn deliver(&self, from: NodeId, to: NodeId, msg: M) {
        let inbox = &self.inboxes[to];
        let lane = if msg.to_waiter() {
            &inbox.replies
        } else {
            &inbox.requests
        };
        lane.push(Event::Msg { from, msg });
    }
}

/// A message parked in the delivery pump, due at `due`. Min-heap order by
/// `(due, seq)`; `seq` keeps ties FIFO.
struct Delayed<M> {
    due: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<M> PartialEq for Delayed<M> {
    fn eq(&self, o: &Self) -> bool {
        self.due == o.due && self.seq == o.seq
    }
}
impl<M> Eq for Delayed<M> {}
impl<M> PartialOrd for Delayed<M> {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl<M> Ord for Delayed<M> {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due first.
        o.due.cmp(&self.due).then(o.seq.cmp(&self.seq))
    }
}

/// Shared state of the delivery pump thread (delayed/reordered messages).
struct PumpShared<M> {
    q: Mutex<BinaryHeap<Delayed<M>>>,
    cv: Condvar,
}

/// How often the pump re-checks fabric liveness while idle; also the upper
/// bound on how long the thread outlives a dropped fabric.
const PUMP_POLL: Duration = Duration::from_millis(25);

fn spawn_pump<M: Send + WireSized + 'static>(shared: &Arc<FabricShared<M>>) -> Arc<PumpShared<M>> {
    let mut slot = shared.pump.lock();
    if let Some(ps) = slot.as_ref() {
        return Arc::clone(ps);
    }
    let ps = Arc::new(PumpShared {
        q: Mutex::new(BinaryHeap::new()),
        cv: Condvar::new(),
    });
    *slot = Some(Arc::clone(&ps));
    let weak = Arc::downgrade(shared);
    let pump = Arc::clone(&ps);
    std::thread::Builder::new()
        .name("dsm-chaos-pump".into())
        .spawn(move || loop {
            let Some(shared) = weak.upgrade() else { break };
            let mut q = pump.q.lock();
            let now = Instant::now();
            while q.peek().is_some_and(|d| d.due <= now) {
                let d = q.pop().unwrap();
                if shared.status.read()[d.to] == NodeStatus::Crashed {
                    shared.stats.node(d.from).record_drop();
                } else {
                    shared.deliver(d.from, d.to, d.msg);
                }
            }
            let wait = q
                .peek()
                .map(|d| {
                    d.due
                        .saturating_duration_since(Instant::now())
                        .min(PUMP_POLL)
                })
                .unwrap_or(PUMP_POLL);
            drop(shared); // don't keep the fabric alive while parked
            pump.cv.wait_for(&mut q, wait);
        })
        .expect("spawn chaos pump");
    Arc::clone(&ps)
}

/// Builder/handle for a simulated cluster interconnect of `n` nodes.
pub struct Fabric<M> {
    shared: Arc<FabricShared<M>>,
    n: usize,
}

impl<M: Send + WireSized> Fabric<M> {
    /// Create a fabric of `n` nodes; returns the fabric handle and one
    /// endpoint per node.
    pub fn new(n: usize) -> (Fabric<M>, Vec<Endpoint<M>>) {
        assert!(n >= 1);
        let inboxes = (0..n).map(|_| Inbox {
            requests: Mailbox::new(),
            replies: Mailbox::new(),
        });
        let shared = Arc::new(FabricShared {
            status: RwLock::new(vec![NodeStatus::Up; n]),
            inboxes: inboxes.collect(),
            stats: FabricStats::new(n),
            chaos_on: AtomicBool::new(false),
            chaos: RwLock::new(None),
            partition: RwLock::new(Vec::new()),
            pump: Mutex::new(None),
            pump_seq: AtomicU64::new(0),
        });
        let endpoints = (0..n)
            .map(|id| Endpoint {
                id,
                n,
                shared: Arc::clone(&shared),
                tracer: NodeTracer::disabled(),
                ctx_seq: AtomicU64::new(0),
            })
            .collect();
        (Fabric { shared, n }, endpoints)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the fabric has no nodes (never; for clippy).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.shared.stats
    }

    /// Status of `node`.
    pub fn status(&self, node: NodeId) -> NodeStatus {
        self.shared.status.read()[node]
    }

    /// Fail-stop `node`: subsequent sends to it are dropped. The victim's
    /// already-queued input is discarded by the node runtime calling
    /// [`Endpoint::drain`] (the receiver is owned by the endpoint), modeling
    /// the loss of in-flight messages to a failed process.
    pub fn crash(&self, node: NodeId) {
        let mut st = self.shared.status.write();
        assert_eq!(st[node], NodeStatus::Up, "node {node} is already crashed");
        st[node] = NodeStatus::Crashed;
    }

    /// Restart `node` after a crash and notify every *other* node with
    /// [`Event::NodeUp`] so blocked requesters retransmit.
    pub fn restart(&self, node: NodeId) {
        self.restart_silent(node);
        for (peer, inbox) in self.shared.inboxes.iter().enumerate() {
            if peer != node {
                inbox.requests.push(Event::NodeUp { node });
            }
        }
    }

    /// Restart `node` after a crash *without* telling anyone: peers must
    /// discover the restart themselves (heartbeat incarnation bumps in the
    /// membership layer). This is the restart used when failure detection
    /// is on — the orchestrated [`Fabric::restart`] broadcast would be
    /// perfect-knowledge cheating.
    pub fn restart_silent(&self, node: NodeId) {
        let mut st = self.shared.status.write();
        assert_eq!(st[node], NodeStatus::Crashed, "node {node} is not crashed");
        st[node] = NodeStatus::Up;
    }

    /// Split the cluster: nodes in different groups can no longer exchange
    /// messages (sends are silently lost and counted). Every node must
    /// appear in exactly one group. [`Fabric::heal`] reconnects.
    pub fn partition(&self, groups: &[&[NodeId]]) {
        let mut assign = vec![u32::MAX; self.n];
        for (g, members) in groups.iter().enumerate() {
            for &m in *members {
                assert_eq!(assign[m], u32::MAX, "node {m} listed in two groups");
                assign[m] = g as u32;
            }
        }
        assert!(
            assign.iter().all(|&g| g != u32::MAX),
            "every node must be in a partition group"
        );
        *self.shared.partition.write() = assign;
        self.shared.refresh_chaos_gate();
    }

    /// Remove an active partition; all links work again.
    pub fn heal(&self) {
        self.shared.partition.write().clear();
        self.shared.refresh_chaos_gate();
    }

    /// Attach a seeded fault plan; all subsequent sends are subject to it.
    /// Replaces any previous plan (RNG streams restart from the seed).
    pub fn set_fault_plan(&self, plan: &FaultPlan)
    where
        M: 'static,
    {
        if plan.needs_pump() {
            spawn_pump(&self.shared);
        }
        *self.shared.chaos.write() = Some(ChaosState::new(plan, self.n));
        self.shared.refresh_chaos_gate();
    }

    /// Detach the fault plan; delivery is reliable again (already-delayed
    /// messages still arrive).
    pub fn clear_fault_plan(&self) {
        *self.shared.chaos.write() = None;
        self.shared.refresh_chaos_gate();
    }

    /// Has request traffic died down? True when no request is queued on any
    /// endpoint, nothing is parked in the chaos pump, no request-lane
    /// receiver is between one receive and its next, and nothing was sent
    /// while this looked. Exact once request handlers are the only senders
    /// left: a handler sends before it goes back to its receive, so one that
    /// was still busy when an earlier lane was inspected shows up as a moved
    /// send count. Reply lanes are not consulted — a reply nobody waits for
    /// any more causes no further traffic.
    pub fn quiescent(&self) -> bool {
        let sent = || self.shared.stats.total().msgs_sent;
        let before = sent();
        // The pump delivers with its heap locked, so an empty heap means
        // nothing is on its way out of it either.
        let pump = self.shared.pump.lock().as_ref().map(Arc::clone);
        pump.is_none_or(|ps| ps.q.lock().is_empty())
            && self.shared.inboxes.iter().all(|i| i.requests.idle())
            && sent() == before
    }
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric {
            shared: Arc::clone(&self.shared),
            n: self.n,
        }
    }
}

/// One node's attachment to the fabric.
pub struct Endpoint<M> {
    id: NodeId,
    n: usize,
    shared: Arc<FabricShared<M>>,
    tracer: NodeTracer,
    /// Monotonic trace-context sequence; `(id, seq)` names a flow.
    ctx_seq: AtomicU64,
}

impl<M: Send + Clone + WireSized> Endpoint<M> {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Attach a tracer so sends/receives emit `MsgSend`/`MsgRecv` events.
    /// Called once at cluster construction, before the endpoint is shared.
    pub fn attach_tracer(&mut self, tracer: NodeTracer) {
        self.tracer = tracer;
    }

    fn inbox(&self) -> &Inbox<M> {
        &self.shared.inboxes[self.id]
    }

    /// Trace the receipt of whatever was just popped off a lane.
    fn note_recv(&self, ev: Option<Event<M>>) -> Option<Event<M>> {
        if self.tracer.enabled() {
            if let Some(Event::Msg { from, msg }) = &ev {
                let (flow, _parent, sent_at, chaos_ns) = msg.trace_view();
                // Transit minus injected chaos = sender hand-off + inbound
                // queue wait. Only attributable when the send was stamped
                // with a timestamp (tracing was on at the sender too).
                let queue_ns = if sent_at != 0 {
                    let q = self
                        .tracer
                        .now_ns()
                        .saturating_sub(sent_at)
                        .saturating_sub(chaos_ns);
                    self.shared
                        .stats
                        .node(self.id)
                        .record_recv_phase(msg.kind_name(), q, chaos_ns);
                    q
                } else {
                    0
                };
                self.tracer.emit(EventKind::MsgRecv {
                    kind: msg.kind_name(),
                    from: *from,
                    bytes: (msg.base_wire_size() + msg.ft_wire_size()) as u32,
                    flow,
                    queue_ns,
                    chaos_ns: if sent_at != 0 { chaos_ns } else { 0 },
                });
            }
        }
        ev
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> usize {
        self.n
    }

    /// Send `msg` to `to`. Without a fault plan, delivery is reliable and
    /// FIFO per sender-receiver pair and lane unless the destination is
    /// crashed, in which case the message is dropped (and counted) and
    /// `false` is returned. Under a fault plan or partition the message may be lost,
    /// duplicated, delayed or reordered; the sender can't tell (`true` is
    /// still returned — a real NIC doesn't know the network ate its packet).
    pub fn send(&self, to: NodeId, mut msg: M) -> bool {
        assert_ne!(to, self.id, "self-sends are a protocol bug");
        let traffic = self.shared.stats.node(self.id);
        if self.shared.status.read()[to] == NodeStatus::Crashed {
            traffic.record_drop();
            return false;
        }
        // Stamp the causal context: origin + per-endpoint seq name the
        // flow; the timestamp (trace-epoch ns) is only taken when tracing
        // is on so the disabled path stays a relaxed load + counter bump.
        let seq = self.ctx_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let now_ns = if self.tracer.enabled() {
            self.tracer.now_ns()
        } else {
            0
        };
        msg.stamp_send(self.id as u32, seq, now_ns);
        traffic.record_send(msg.base_wire_size(), msg.ft_wire_size(), msg.kind_name());
        if self.tracer.enabled() {
            let (flow, parent, _, _) = msg.trace_view();
            self.tracer.emit(EventKind::MsgSend {
                kind: msg.kind_name(),
                to,
                bytes: (msg.base_wire_size() + msg.ft_wire_size()) as u32,
                flow,
                parent,
            });
        }
        if self.shared.chaos_on.load(Ordering::Acquire) {
            {
                let part = self.shared.partition.read();
                if !part.is_empty() && part[self.id] != part[to] {
                    traffic.record_partition_block();
                    return true;
                }
            }
            let fate = match self.shared.chaos.read().as_ref() {
                Some(c) => c.decide(self.id, to, msg.kind_name()),
                None => Fate::Deliver,
            };
            match fate {
                Fate::Deliver => {}
                Fate::Drop => {
                    traffic.record_chaos_drop();
                    return true;
                }
                Fate::Dup { detour } => {
                    // Deliver now; the extra copy takes a detour so it can
                    // arrive out of order.
                    traffic.record_chaos_dup();
                    let mut dup = msg.clone();
                    dup.add_chaos_delay(detour.as_nanos() as u64);
                    self.push_delayed(to, dup, detour);
                }
                Fate::Delay { by } => {
                    traffic.record_chaos_delay();
                    msg.add_chaos_delay(by.as_nanos() as u64);
                    self.push_delayed(to, msg, by);
                    return true;
                }
            }
        }
        self.shared.deliver(self.id, to, msg);
        true
    }

    /// Park `msg` in the delivery pump until `by` elapses. Falls back to
    /// immediate delivery if no pump is running (a plan whose rules need one
    /// always starts it).
    fn push_delayed(&self, to: NodeId, msg: M, by: Duration) {
        let pump = self.shared.pump.lock().as_ref().map(Arc::clone);
        match pump {
            Some(ps) => {
                let d = Delayed {
                    due: Instant::now() + by,
                    seq: self.shared.pump_seq.fetch_add(1, Ordering::Relaxed),
                    from: self.id,
                    to,
                    msg,
                };
                ps.q.lock().push(d);
                ps.cv.notify_one();
            }
            None => self.shared.deliver(self.id, to, msg),
        }
    }

    /// Post an [`Event::Wakeup`] to *this* endpoint's own request lane,
    /// nudging a thread blocked in [`Endpoint::recv`] to re-check its state.
    /// Not routed through the fabric: wakeups are local control flow, so
    /// they bypass crash status and traffic accounting.
    pub fn wake(&self) {
        self.inbox().requests.push(Event::Wakeup);
    }

    /// Make the thread in [`Endpoint::recv_reply`] — or the next one to call
    /// it — return `None` at once and look at its own state again. For
    /// changes a waiter's predicate depends on that no reply carries (a
    /// request handler did them). Never lost — a waiter that has checked
    /// its predicate but not blocked yet still sees it — and never queued
    /// up: any number of pokes end one receive.
    pub fn poke(&self) {
        self.inbox().replies.poke();
    }

    /// Blocking receive on the request lane.
    pub fn recv(&self) -> Option<Event<M>> {
        self.note_recv(self.inbox().requests.pop(Wait::Forever))
    }

    /// Receive on the request lane with a timeout; `None` on timeout.
    pub fn recv_timeout(&self, d: Duration) -> Option<Event<M>> {
        self.note_recv(self.inbox().requests.pop(Wait::Until(Instant::now() + d)))
    }

    /// Non-blocking receive on the request lane.
    pub fn try_recv(&self) -> Option<Event<M>> {
        self.note_recv(self.inbox().requests.pop(Wait::No))
    }

    /// Receive on the reply lane: the next reply addressed to this node, or
    /// `None` after `d` or a [`Endpoint::poke`], whichever is first.
    pub fn recv_reply(&self, d: Duration) -> Option<Event<M>> {
        self.note_recv(self.inbox().replies.pop(Wait::Until(Instant::now() + d)))
    }

    /// Test receive over both lanes, for code that inspects what a peer was
    /// sent without caring which thread would have read it: polls until an
    /// event shows up on either lane (replies first) or `d` is over.
    pub fn recv_any(&self, d: Duration) -> Option<Event<M>> {
        let deadline = Instant::now() + d;
        loop {
            let ev = self.recv_reply(Duration::ZERO).or_else(|| self.try_recv());
            if ev.is_some() || Instant::now() >= deadline {
                return ev;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Discard everything queued for this endpoint, on both lanes (used when
    /// simulating the restart of a crashed node: whatever was queued
    /// before/during the crash is lost). Returns the number of discarded
    /// events.
    pub fn drain(&self) -> usize {
        self.inbox().requests.drain() + self.inbox().replies.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestMsg(u32, usize, usize);
    impl WireSized for TestMsg {
        fn base_wire_size(&self) -> usize {
            self.1
        }
        fn ft_wire_size(&self) -> usize {
            self.2
        }
    }

    #[test]
    fn point_to_point_fifo_delivery() {
        let (_fabric, eps) = Fabric::<TestMsg>::new(2);
        eps[0].send(1, TestMsg(1, 10, 0));
        eps[0].send(1, TestMsg(2, 10, 0));
        assert_eq!(
            eps[1].recv(),
            Some(Event::Msg {
                from: 0,
                msg: TestMsg(1, 10, 0)
            })
        );
        assert_eq!(
            eps[1].recv(),
            Some(Event::Msg {
                from: 0,
                msg: TestMsg(2, 10, 0)
            })
        );
    }

    #[test]
    fn traffic_is_charged_to_sender() {
        let (fabric, eps) = Fabric::<TestMsg>::new(3);
        eps[0].send(1, TestMsg(0, 100, 8));
        eps[0].send(2, TestMsg(0, 50, 0));
        eps[1].send(0, TestMsg(0, 7, 0));
        let s0 = fabric.stats().node(0).snapshot();
        assert_eq!(s0.msgs_sent, 2);
        assert_eq!(s0.base_bytes_sent, 150);
        assert_eq!(s0.ft_bytes_sent, 8);
        assert_eq!(fabric.stats().total().msgs_sent, 3);
    }

    #[test]
    fn sends_to_crashed_node_are_dropped_and_counted() {
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        fabric.crash(1);
        assert!(!eps[0].send(1, TestMsg(9, 10, 0)));
        assert_eq!(fabric.stats().node(0).snapshot().msgs_dropped, 1);
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn restart_notifies_peers() {
        let (fabric, eps) = Fabric::<TestMsg>::new(3);
        fabric.crash(2);
        fabric.restart(2);
        assert_eq!(eps[0].recv(), Some(Event::NodeUp { node: 2 }));
        assert_eq!(eps[1].recv(), Some(Event::NodeUp { node: 2 }));
        // The restarted node itself gets no NodeUp.
        assert!(eps[2].try_recv().is_none());
        // And messaging works again.
        assert!(eps[0].send(2, TestMsg(5, 1, 0)));
        assert!(matches!(eps[2].recv(), Some(Event::Msg { from: 0, .. })));
    }

    #[test]
    fn drain_discards_queued_input() {
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        eps[0].send(1, TestMsg(1, 1, 0));
        eps[0].send(1, TestMsg(2, 1, 0));
        fabric.crash(1);
        assert_eq!(eps[1].drain(), 2);
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn wake_unblocks_own_receiver_without_traffic() {
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        eps[1].wake();
        assert_eq!(eps[1].recv(), Some(Event::Wakeup));
        // Wakeups are local control flow: no send is charged, and they are
        // not delivered to peers.
        assert_eq!(fabric.stats().total().msgs_sent, 0);
        assert!(eps[0].try_recv().is_none());
        // A wakeup works even while the node is marked crashed (the runtime
        // wakes its own service thread during teardown and recovery).
        fabric.crash(1);
        eps[1].wake();
        assert_eq!(eps[1].recv(), Some(Event::Wakeup));
    }

    #[test]
    #[should_panic(expected = "already crashed")]
    fn double_crash_rejected() {
        let (fabric, _eps) = Fabric::<TestMsg>::new(2);
        fabric.crash(0);
        fabric.crash(0);
    }

    #[test]
    fn restart_silent_skips_node_up() {
        let (fabric, eps) = Fabric::<TestMsg>::new(3);
        fabric.crash(2);
        fabric.restart_silent(2);
        assert!(eps[0].try_recv().is_none());
        assert!(eps[1].try_recv().is_none());
        assert!(eps[0].send(2, TestMsg(5, 1, 0)));
        assert!(matches!(eps[2].recv(), Some(Event::Msg { from: 0, .. })));
    }

    #[test]
    fn chaos_drop_loses_messages_and_counts_them() {
        use crate::chaos::{FaultPlan, FaultRule};
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        fabric.set_fault_plan(&FaultPlan::new(7).with_rule(FaultRule::all().dropping(1.0)));
        // The sender can't tell: send still reports success.
        assert!(eps[0].send(1, TestMsg(1, 10, 0)));
        assert!(eps[1].try_recv().is_none());
        assert_eq!(fabric.stats().node(0).snapshot().chaos_dropped, 1);
        // Clearing the plan restores reliable delivery.
        fabric.clear_fault_plan();
        eps[0].send(1, TestMsg(2, 10, 0));
        assert!(matches!(eps[1].recv(), Some(Event::Msg { .. })));
    }

    #[test]
    fn chaos_dup_delivers_twice() {
        use crate::chaos::{FaultPlan, FaultRule};
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        fabric.set_fault_plan(&FaultPlan::new(7).with_rule(FaultRule::all().duplicating(1.0)));
        eps[0].send(1, TestMsg(1, 10, 0));
        let a = eps[1].recv_timeout(Duration::from_secs(2));
        let b = eps[1].recv_timeout(Duration::from_secs(2));
        let want = Event::Msg {
            from: 0,
            msg: TestMsg(1, 10, 0),
        };
        assert_eq!(a, Some(want.clone()));
        assert_eq!(b, Some(want));
        assert_eq!(fabric.stats().node(0).snapshot().chaos_duplicated, 1);
        // One send was charged, not two.
        assert_eq!(fabric.stats().node(0).snapshot().msgs_sent, 1);
    }

    #[test]
    fn chaos_delay_still_delivers() {
        use crate::chaos::{FaultPlan, FaultRule};
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        fabric.set_fault_plan(&FaultPlan::new(7).with_rule(FaultRule::all().delaying(
            1.0,
            Duration::from_millis(1),
            Duration::from_millis(5),
        )));
        eps[0].send(1, TestMsg(9, 10, 0));
        // Nothing immediately (the message is parked in the pump)…
        assert!(eps[1].try_recv().is_none());
        // …but it arrives once the delay elapses.
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(2)),
            Some(Event::Msg {
                from: 0,
                msg: TestMsg(9, 10, 0)
            })
        );
        assert_eq!(fabric.stats().node(0).snapshot().chaos_delayed, 1);
    }

    #[test]
    fn delayed_messages_can_reorder() {
        use crate::chaos::{FaultPlan, FaultRule};
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Kinded(u32, &'static str);
        impl WireSized for Kinded {
            fn base_wire_size(&self) -> usize {
                4
            }
            fn kind_name(&self) -> &'static str {
                self.1
            }
        }
        let (fabric, eps) = Fabric::<Kinded>::new(2);
        // Delay only the "slow" kind; a later undelayed message overtakes it.
        fabric.set_fault_plan(&FaultPlan::new(7).with_rule(
            FaultRule::all().of_kind("slow").delaying(
                1.0,
                Duration::from_millis(20),
                Duration::from_millis(30),
            ),
        ));
        eps[0].send(1, Kinded(1, "slow"));
        eps[0].send(1, Kinded(2, "fast"));
        let first = eps[1].recv_timeout(Duration::from_secs(2)).unwrap();
        let second = eps[1].recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(
            first,
            Event::Msg {
                from: 0,
                msg: Kinded(2, "fast")
            }
        );
        assert_eq!(
            second,
            Event::Msg {
                from: 0,
                msg: Kinded(1, "slow")
            }
        );
    }

    #[test]
    fn partition_blocks_cross_group_until_heal() {
        let (fabric, eps) = Fabric::<TestMsg>::new(4);
        fabric.partition(&[&[0, 1], &[2, 3]]);
        assert!(eps[0].send(2, TestMsg(1, 10, 0))); // silently lost
        assert!(eps[0].send(1, TestMsg(2, 10, 0))); // same side: delivered
        assert!(eps[2].try_recv().is_none());
        assert!(matches!(eps[1].recv(), Some(Event::Msg { .. })));
        assert_eq!(fabric.stats().node(0).snapshot().partition_blocked, 1);
        fabric.heal();
        eps[0].send(2, TestMsg(3, 10, 0));
        assert!(matches!(eps[2].recv(), Some(Event::Msg { .. })));
    }

    #[test]
    fn chaos_off_costs_nothing_for_delivery_semantics() {
        // A plan with all-zero probabilities behaves exactly like no plan.
        use crate::chaos::{FaultPlan, FaultRule};
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        fabric.set_fault_plan(&FaultPlan::new(1).with_rule(FaultRule::all()));
        for i in 0..100 {
            eps[0].send(1, TestMsg(i, 1, 0));
        }
        for i in 0..100 {
            assert_eq!(
                eps[1].recv(),
                Some(Event::Msg {
                    from: 0,
                    msg: TestMsg(i, 1, 0)
                })
            );
        }
        let s = fabric.stats().node(0).snapshot();
        assert_eq!(s.chaos_dropped + s.chaos_delayed + s.chaos_duplicated, 0);
    }
}
