//! Endpoints and the fabric connecting them.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_trace::{EventKind, NodeTracer};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::chaos::{ChaosState, Fate, FaultPlan};
use crate::link::{Frame, Links, Received};
use crate::mailbox::{Mailbox, Reader};
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
/// without actually serializing on the hot path. [`Endpoint::send`] asks
/// once per send, after stamping the trace context (which it does only
/// while tracing is on).
///
/// The trace-context hooks (`stamp_send`, `add_chaos_delay`, `trace_view`,
/// `trace_wire_size`) default to no-ops so size-only message types keep
/// working; a message carrying a [`dsm_trace::TraceCtx`] overrides them and
/// gets causal cross-node flow stitching plus queue/chaos latency
/// attribution for free.
pub trait WireSized {
    /// Encoded size of the base-protocol part of the message, in bytes,
    /// without the trace context.
    fn base_wire_size(&self) -> usize;
    /// Encoded size of the fault-tolerance control (piggyback) part.
    fn ft_wire_size(&self) -> usize {
        0
    }
    /// Encoded size of the stamped trace context: 0 for a message the
    /// endpoint did not stamp. Counted apart from the other two, so tracing
    /// moves no base or FT byte.
    fn trace_wire_size(&self) -> usize {
        0
    }
    /// Short stable message-kind label for tracing (e.g. `"PageReq"`).
    fn kind_name(&self) -> &'static str {
        "msg"
    }
    /// Is this for the thread that blocks for replies? The service thread
    /// ([`Endpoint::recv`]) passes such a message until the waiter is gone
    /// ([`Endpoint::hand_over_replies`]); the waiter
    /// ([`Endpoint::recv_reply`]) takes every kind, in arrival order.
    fn to_waiter(&self) -> bool {
        false
    }
    /// Stamp a fresh trace context at send time: the stamping node, a
    /// per-endpoint monotonic sequence number (starting at 1), and the
    /// send timestamp in trace-epoch nanoseconds. Called only while tracing
    /// is on. Must preserve any parent flow already set by the sender.
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
    /// Self-posted nudge (see [`Endpoint::wake`]): a blocking receiver
    /// should re-check its shutdown/state flags. Carries no payload.
    Wakeup,
}

struct FabricShared<M> {
    status: RwLock<Vec<NodeStatus>>,
    /// One queue per node, read by its two threads.
    inboxes: Vec<Mailbox<M>>,
    stats: FabricStats,
    /// Fast-path gate: false until a fault plan is first set, so [`Endpoint::send`] hands a message straight to its queue. From
    /// then on every send goes through the link, for good: a later send
    /// must not overtake what the link still holds.
    chaos_on: AtomicBool,
    chaos: RwLock<Option<ChaosState>>,
    links: Links<M>,
    /// Per node: where the links stood when it crashed, while it is down
    /// under the link (see [`Fabric::restart`]).
    crash_marks: Mutex<Vec<Vec<(u64, u64)>>>,
    pump: Mutex<Option<Arc<PumpShared<M>>>>,
    pump_seq: AtomicU64,
}

impl<M: Clone + WireSized> FabricShared<M> {
    /// Queue `msg` on the inbound queue of `to`.
    fn deliver(&self, from: NodeId, to: NodeId, msg: M) {
        self.inboxes[to].push((from, msg));
    }

    /// Put a link frame on the wire from `from` to `to`, where the fault
    /// plan decides its fate.
    fn transmit(&self, from: NodeId, to: NodeId, mut frame: Frame<M>) {
        let traffic = self.stats.node(from);
        let fate = match self.chaos.read().as_ref() {
            Some(c) => c.decide(from, to, frame.kind_name()),
            None => Fate::Deliver,
        };
        match fate {
            Fate::Deliver => self.arrive(from, to, frame),
            Fate::Drop => traffic.record_chaos_drop(),
            Fate::Dup { detour } => {
                // Deliver now; the extra copy takes a detour so it can
                // arrive out of order.
                traffic.record_chaos_dup();
                let mut dup = frame.clone();
                dup.add_chaos_delay(detour);
                self.push_delayed(from, to, dup, detour);
                self.arrive(from, to, frame);
            }
            Fate::Delay { by } => {
                traffic.record_chaos_delay();
                frame.add_chaos_delay(by);
                self.push_delayed(from, to, frame, by);
            }
        }
    }

    /// A frame from `from` reached `to`. A data frame is released to the
    /// queue in order — unless `to` is down: a frame to a crashed node is
    /// lost — and acked; an ack retires the sender's copies.
    fn arrive(&self, from: NodeId, to: NodeId, frame: Frame<M>) {
        let (gen, seq, msg) = match frame {
            Frame::Ack { gen, upto, held } => return self.links.ack(to, from, (gen, upto, held)),
            Frame::Data { gen, seq, msg } => (gen, seq, msg),
        };
        let received = {
            // Held across the release, so that a crash (which takes the
            // write lock) finds every frame released before it in the
            // inbox it drains.
            let status = self.status.read();
            if status[to] == NodeStatus::Crashed {
                return self.stats.node(from).record_drop();
            }
            let release = |m| self.deliver(from, to, m);
            self.links.receive(from, to, (gen, seq, msg), release)
        };
        if let Received::Ack {
            gen,
            upto,
            held,
            dup,
        } = received
        {
            let ack = Frame::Ack { gen, upto, held };
            self.stats.node(to).record_link_ack(ack.link_bytes(), dup);
            self.transmit(to, from, ack);
        }
    }

    /// Send again every frame whose ack is overdue; returns when the next
    /// one falls due.
    fn resend_overdue(&self) -> Option<Instant> {
        let (due, next) = self.links.overdue(Instant::now());
        for (from, to, frame) in due {
            let bytes = frame.link_bytes() + frame.wire_size();
            self.stats.node(from).record_link_resend(bytes);
            self.transmit(from, to, frame);
        }
        next
    }

    /// Park `frame` in the delivery pump until `by` elapses. The pump runs
    /// once a plan is set, which is when frames exist.
    fn push_delayed(&self, from: NodeId, to: NodeId, frame: Frame<M>, by: Duration) {
        let pump = self.pump.lock().as_ref().map(Arc::clone);
        let ps = pump.expect("the link runs with the pump");
        let d = Delayed {
            due: Instant::now() + by,
            seq: self.pump_seq.fetch_add(1, Ordering::Relaxed),
            from,
            to,
            frame,
        };
        ps.q.lock().push(d);
        ps.cv.notify_one();
    }
}

/// A frame parked in the delivery pump, due at `due`. Min-heap order by
/// `(due, seq)`; `seq` keeps ties FIFO.
struct Delayed<M> {
    due: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    frame: Frame<M>,
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

/// Shared state of the delivery pump thread (delayed/reordered frames and
/// the link's resends).
struct PumpShared<M> {
    q: Mutex<BinaryHeap<Delayed<M>>>,
    cv: Condvar,
}

/// The longest the pump sleeps: the slack of a resend past
/// [`crate::link::RETRY_AFTER`], and the upper bound on how long the thread
/// outlives a dropped fabric.
const PUMP_POLL: Duration = Duration::from_millis(5);

/// Start the pump, once, and switch every later send onto the link.
fn link_on<M: Send + Clone + WireSized + 'static>(shared: &Arc<FabricShared<M>>) {
    let mut slot = shared.pump.lock();
    if slot.is_some() {
        return;
    }
    let ps = Arc::new(PumpShared {
        q: Mutex::new(BinaryHeap::new()),
        cv: Condvar::new(),
    });
    *slot = Some(Arc::clone(&ps));
    shared.chaos_on.store(true, Ordering::Release);
    let weak = Arc::downgrade(shared);
    std::thread::Builder::new()
        .name("dsm-chaos-pump".into())
        .spawn(move || loop {
            let Some(shared) = weak.upgrade() else { break };
            let now = Instant::now();
            let mut due = Vec::new();
            {
                let mut q = ps.q.lock();
                while q.peek().is_some_and(|d| d.due <= now) {
                    due.push(q.pop().unwrap());
                }
            }
            for d in due {
                shared.arrive(d.from, d.to, d.frame);
            }
            let resend = shared.resend_overdue();
            let mut q = ps.q.lock();
            let wake = [q.peek().map(|d| d.due), resend, Some(now + PUMP_POLL)];
            let wake = wake.into_iter().flatten().min().unwrap();
            drop(shared); // don't keep the fabric alive while parked
            ps.cv
                .wait_for(&mut q, wake.saturating_duration_since(Instant::now()));
        })
        .expect("spawn chaos pump");
}

/// Builder/handle for a simulated cluster interconnect of `n` nodes.
pub struct Fabric<M> {
    shared: Arc<FabricShared<M>>,
    n: usize,
}

impl<M: Send + Clone + WireSized> Fabric<M> {
    /// Create a fabric of `n` nodes; returns the fabric handle and one
    /// endpoint per node.
    pub fn new(n: usize) -> (Fabric<M>, Vec<Endpoint<M>>) {
        assert!(n >= 1);
        let inboxes = (0..n).map(|_| Mailbox::new());
        let shared = Arc::new(FabricShared {
            status: RwLock::new(vec![NodeStatus::Up; n]),
            inboxes: inboxes.collect(),
            stats: FabricStats::new(n),
            chaos_on: AtomicBool::new(false),
            chaos: RwLock::new(None),
            links: Links::new(n),
            crash_marks: Mutex::new(vec![Vec::new(); n]),
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

    /// Fail-stop `node`: subsequent sends to it are dropped, and so is what
    /// the link still has in flight to it. The victim's already-queued
    /// input is discarded by the node runtime calling [`Endpoint::drain`]
    /// (the receiver is owned by the endpoint), modeling the loss of
    /// in-flight messages to a failed process. What `node` itself sent
    /// before is still delivered.
    pub fn crash(&self, node: NodeId) {
        {
            let mut st = self.shared.status.write();
            assert_eq!(st[node], NodeStatus::Up, "node {node} is already crashed");
            st[node] = NodeStatus::Crashed;
        }
        if self.shared.chaos_on.load(Ordering::Acquire) {
            self.shared.links.reset_into(node);
            self.shared.crash_marks.lock()[node] = self.shared.links.marks();
        }
    }

    /// Restart `node` after a crash: sends to it are delivered again. Nobody
    /// is told — peers learn of the restart from what the node sends them.
    /// Under the link it first waits until every frame sent before the
    /// crash, by any node, is delivered (or lost with the crashed node), as
    /// a reliable fabric has them by then: the node comes back to a network
    /// that holds nothing from before its crash.
    pub fn restart(&self, node: NodeId) {
        let marks = std::mem::take(&mut self.shared.crash_marks.lock()[node]);
        while !self.shared.links.settled_since(&marks) {
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut st = self.shared.status.write();
        assert_eq!(st[node], NodeStatus::Crashed, "node {node} is not crashed");
        st[node] = NodeStatus::Up;
    }

    /// Attach a seeded fault plan; all subsequent sends are subject to it,
    /// through the link. Replaces any previous plan (RNG streams restart
    /// from the seed).
    pub fn set_fault_plan(&self, plan: &FaultPlan)
    where
        M: 'static,
    {
        *self.shared.chaos.write() = Some(ChaosState::new(plan, self.n));
        link_on(&self.shared);
    }

    /// Has traffic died down? True when the link holds no unacked frame,
    /// nothing is queued for any endpoint, no reader is handling an item it
    /// took, and nothing was sent while this looked. Exact once handlers
    /// are the only senders left — every endpoint's waiter gone
    /// ([`Endpoint::hand_over_replies`]), so that only the service threads
    /// read: a handler sends before it goes back to its receive, so one that
    /// was still busy when an earlier queue was inspected shows up as a
    /// moved send count. A frame is acked only once it is queued, so a frame
    /// on its way (in the pump, or lost and due again) is an unacked one.
    pub fn quiescent(&self) -> bool {
        let sent = || self.shared.stats.total().msgs_sent;
        let before = sent();
        let idle = self.shared.inboxes.iter().all(Mailbox::idle);
        !self.shared.links.unacked() && idle && sent() == before
    }

    /// Has every frame the link sent been acked?
    #[cfg(test)]
    pub(crate) fn link_settled(&self) -> bool {
        !self.shared.links.unacked()
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
    /// Monotonic trace-context sequence of the traced sends; `(id, seq)`
    /// names a flow.
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

    fn inbox(&self) -> &Mailbox<M> {
        &self.shared.inboxes[self.id]
    }

    /// Trace the receipt of whatever was just taken off the queue.
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

    /// Send `msg` to `to`. Delivery is reliable and FIFO per
    /// sender-receiver pair unless the destination is crashed, in
    /// which case the message is dropped (and counted) and `false` is
    /// returned. Under a fault plan the message goes through
    /// the link ([`crate::link`]), which masks loss, duplication and
    /// reordering: it may only arrive late, or not at all if its
    /// destination crashes first.
    ///
    /// While tracing is on the message is stamped with a trace context
    /// (origin, sequence number, send time), whose bytes are charged to the
    /// trace counter; with tracing off it carries none, and its flow is 0.
    pub fn send(&self, to: NodeId, mut msg: M) -> bool {
        assert_ne!(to, self.id, "self-sends are a protocol bug");
        let traffic = self.shared.stats.node(self.id);
        // Held until the message is numbered on its link: a crash (which
        // takes the write lock) resets the link into `to` after, so the
        // message is lost with `to` or never sent.
        let status = self.shared.status.read();
        if status[to] == NodeStatus::Crashed {
            traffic.record_drop();
            return false;
        }
        // Stamp the causal context only when tracing is on, so the disabled
        // path is one relaxed load: no sequence number, no wire byte.
        let traced = self.tracer.enabled();
        if traced {
            let seq = self.ctx_seq.fetch_add(1, Ordering::Relaxed) + 1;
            msg.stamp_send(self.id as u32, seq, self.tracer.now_ns());
        }
        // Sized once, after the stamp.
        let (base, ft) = (msg.base_wire_size(), msg.ft_wire_size());
        traffic.record_send(base, ft, msg.trace_wire_size(), msg.kind_name());
        if traced {
            let (flow, parent, _, _) = msg.trace_view();
            self.tracer.emit(EventKind::MsgSend {
                kind: msg.kind_name(),
                to,
                bytes: (base + ft) as u32,
                flow,
                parent,
            });
        }
        if !self.shared.chaos_on.load(Ordering::Acquire) {
            drop(status);
            self.shared.deliver(self.id, to, msg);
            return true;
        }
        let frame = self.shared.links.enqueue(self.id, to, msg);
        drop(status);
        traffic.record_link_header(frame.link_bytes());
        self.shared.transmit(self.id, to, frame);
        true
    }

    /// Post an [`Event::Wakeup`] for *this* endpoint's service thread,
    /// nudging it, blocked in [`Endpoint::recv`], to re-check its state; its
    /// next receive returns it ahead of any message. Not routed through the
    /// fabric: wakeups are local control flow, so they bypass crash status
    /// and traffic accounting.
    pub fn wake(&self) {
        self.inbox().wake();
    }

    /// Make the thread in [`Endpoint::recv_reply`] — or the next one to call
    /// it — return `None` at once and look at its own state again. For
    /// changes a waiter's predicate depends on that the service thread's
    /// handlers made. Never lost — a waiter that has checked its predicate
    /// but not blocked yet still sees it — and never queued up: any number
    /// of pokes end one receive.
    pub fn poke(&self) {
        self.inbox().poke();
    }

    fn service_recv(&self, deadline: Option<Instant>) -> Option<Event<M>> {
        let ev = match self.inbox().pop(Reader::Service, deadline)? {
            Some((from, msg)) => Event::Msg { from, msg },
            None => Event::Wakeup,
        };
        self.note_recv(Some(ev))
    }

    /// The service thread's blocking receive: a wakeup, or — while no wait
    /// is open — the oldest message not [`WireSized::to_waiter`] (every
    /// message once the waiter is gone).
    pub fn recv(&self) -> Option<Event<M>> {
        self.service_recv(None)
    }

    /// Non-blocking [`Endpoint::recv`].
    pub fn try_recv(&self) -> Option<Event<M>> {
        self.service_recv(Some(Instant::now()))
    }

    /// The thread that waits is gone for good: from now on the service
    /// thread takes every message, what is queued first. A node's
    /// application thread calls it as it returns.
    pub fn hand_over_replies(&self) {
        self.inbox().close(true);
    }

    /// The waiting thread's receive: opens a wait, if none is open, and
    /// returns the next message addressed to this node, of any kind, once
    /// the service thread holds none — or `None` after `d` or a
    /// [`Endpoint::poke`], whichever is first. Until [`Endpoint::close_wait`]
    /// the service thread takes nothing, so every message is handled after
    /// the ones its sender sent before it (bar one the service thread
    /// passed as the waiter's).
    pub fn recv_reply(&self, d: Duration) -> Option<Event<M>> {
        let (from, msg) = self
            .inbox()
            .pop(Reader::Waiter, Some(Instant::now() + d))??;
        self.note_recv(Some(Event::Msg { from, msg }))
    }

    /// Open the wait now, ahead of the first [`Endpoint::recv_reply`]: the
    /// service thread takes nothing from here on, not even a message queued
    /// behind one it would pass, so the waiting thread handles every message
    /// in arrival order from the first on. A thread calls it before it sends
    /// the request it will wait for, so that no later message of the peer
    /// that answers is handled ahead of the answer.
    pub fn open_wait(&self) {
        self.inbox().open();
    }

    /// End the wait [`Endpoint::recv_reply`] or [`Endpoint::open_wait`]
    /// opened: the service thread reads again — woken, if something is
    /// queued for it.
    pub fn close_wait(&self) {
        self.inbox().close(false);
    }

    /// Discard everything queued for this endpoint (used when simulating
    /// the restart of a crashed node: whatever was queued before/during the
    /// crash is lost). Returns the number of discarded messages.
    pub fn drain(&self) -> usize {
        self.inbox().drain()
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

    /// A message whose context is its stamp's seq, 3 bytes once stamped.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Stamped(u64);
    impl WireSized for Stamped {
        fn base_wire_size(&self) -> usize {
            10
        }
        fn trace_wire_size(&self) -> usize {
            3 * (self.0 != 0) as usize
        }
        fn stamp_send(&mut self, _origin: u32, seq: u64, _now_ns: u64) {
            self.0 = seq;
        }
    }

    #[test]
    fn only_a_traced_send_is_stamped_and_its_context_is_counted_apart() {
        let trace = dsm_trace::Trace::new(2, &dsm_trace::TraceConfig::enabled());
        trace.set_enabled(false);
        let (fabric, mut eps) = Fabric::<Stamped>::new(2);
        eps[0].attach_tracer(trace.tracer(0));
        eps[0].send(1, Stamped(0));
        trace.set_enabled(true);
        eps[0].send(1, Stamped(0));
        eps[0].send(1, Stamped(0));
        let seqs: Vec<u64> = std::iter::from_fn(|| match eps[1].try_recv()? {
            Event::Msg { msg, .. } => Some(msg.0),
            Event::Wakeup => None,
        })
        .collect();
        // The untraced send took no sequence number.
        assert_eq!(seqs, [0, 1, 2]);
        let s = fabric.stats().node(0).snapshot();
        assert_eq!((s.base_bytes_sent, s.trace_bytes_sent), (30, 6));
        assert_eq!(fabric.stats().node(0).kind_bytes(), [("msg", 30)]);
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
    fn a_restart_tells_nobody_and_delivers_again() {
        let (fabric, eps) = Fabric::<TestMsg>::new(3);
        fabric.crash(2);
        fabric.restart(2);
        assert!(eps[0].try_recv().is_none());
        assert!(eps[1].try_recv().is_none());
        assert!(eps[0].send(2, TestMsg(5, 1, 0)));
        assert!(matches!(eps[2].recv(), Some(Event::Msg { from: 0, .. })));
    }

    #[test]
    fn a_dropped_frame_is_counted_and_sent_again() {
        use crate::chaos::{FaultPlan, FaultRule};
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        let first = FaultRule::all().of_kind("msg").dropping(1.0);
        fabric.set_fault_plan(&FaultPlan::new(7).with_rule(first));
        // The sender can't tell: send still reports success.
        assert!(eps[0].send(1, TestMsg(1, 10, 0)));
        assert!(eps[1].try_recv().is_none());
        let s = fabric.stats().node(0).snapshot();
        assert_eq!((s.chaos_dropped, s.msgs_sent, s.link_resent), (1, 1, 0));
        // Lost for good under this plan: the link keeps sending it.
        std::thread::sleep(Duration::from_millis(60));
        let s = fabric.stats().node(0).snapshot();
        assert!(s.link_resent >= 1 && s.chaos_dropped == 1 + s.link_resent);
        assert!(eps[1].try_recv().is_none() && !fabric.quiescent());
    }

    #[test]
    fn a_duplicate_is_dropped_by_the_link() {
        use crate::chaos::{FaultPlan, FaultRule};
        let (fabric, eps) = Fabric::<TestMsg>::new(2);
        let dup = FaultRule::all().of_kind("msg").duplicating(1.0);
        fabric.set_fault_plan(&FaultPlan::new(7).with_rule(dup));
        eps[0].send(1, TestMsg(1, 10, 0));
        let want = Event::Msg {
            from: 0,
            msg: TestMsg(1, 10, 0),
        };
        assert_eq!(eps[1].recv_reply(Duration::from_secs(2)), Some(want));
        assert_eq!(eps[1].recv_reply(Duration::from_millis(20)), None);
        assert_eq!(fabric.stats().node(0).snapshot().chaos_duplicated, 1);
        let s = fabric.stats().node(1).snapshot();
        assert_eq!((s.link_dups_dropped, s.link_acks), (1, 2));
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
            eps[1].recv_reply(Duration::from_secs(2)),
            Some(Event::Msg {
                from: 0,
                msg: TestMsg(9, 10, 0)
            })
        );
        assert_eq!(fabric.stats().node(0).snapshot().chaos_delayed, 1);
    }

    /// `(id, to_waiter)`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Laned(u32, bool);
    impl WireSized for Laned {
        fn base_wire_size(&self) -> usize {
            4
        }
        fn to_waiter(&self) -> bool {
            self.1
        }
    }

    fn id(ev: Option<Event<Laned>>) -> Option<u32> {
        match ev {
            Some(Event::Msg { msg, .. }) => Some(msg.0),
            _ => None,
        }
    }

    /// Node 1 sends node 0 requests (`false`) and replies (`true`), numbered
    /// from 1 in this order.
    fn sent(kinds: &[bool]) -> (Fabric<Laned>, Vec<Endpoint<Laned>>) {
        let (fabric, eps) = Fabric::<Laned>::new(2);
        for (i, &reply) in kinds.iter().enumerate() {
            eps[1].send(0, Laned(i as u32 + 1, reply));
        }
        (fabric, eps)
    }

    #[test]
    fn the_waiter_takes_every_kind_in_arrival_order() {
        let (fabric, eps) = sent(&[false, true, false, true]);
        let taken: Vec<_> = (0..4)
            .map(|_| id(eps[0].recv_reply(Duration::ZERO)))
            .collect();
        assert_eq!(taken, [1, 2, 3, 4].map(Some));
        // The last one is still in hand: the node is not idle until the
        // waiter comes back for more, or the wait closes.
        assert!(!fabric.quiescent());
        eps[0].close_wait();
        assert!(fabric.quiescent());
    }

    #[test]
    fn the_service_thread_passes_only_what_is_for_the_waiter() {
        let (_fabric, eps) = sent(&[true, false, true, false]);
        let taken: Vec<_> = std::iter::from_fn(|| id(eps[0].try_recv())).collect();
        assert_eq!(taken, [2, 4]);
        // The replies it passed wait for the next wait, in order.
        assert_eq!(id(eps[0].recv_reply(Duration::ZERO)), Some(1));
        assert_eq!(id(eps[0].recv_reply(Duration::ZERO)), Some(3));
        // While the wait is open, the service thread takes nothing.
        eps[1].send(0, Laned(5, false));
        assert_eq!(id(eps[0].try_recv()), None);
        eps[0].close_wait();
        assert_eq!(id(eps[0].try_recv()), Some(5));
    }

    #[test]
    fn a_waiter_blocks_while_the_service_thread_has_an_item_in_hand() {
        let (_fabric, eps) = sent(&[false, true]);
        assert_eq!(id(eps[0].try_recv()), Some(1));
        // Request 1 is in hand: reply 2 is not taken before it is handled.
        assert_eq!(id(eps[0].recv_reply(Duration::ZERO)), None);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| id(eps[0].recv_reply(Duration::from_secs(10))));
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !waiter.is_finished(),
                "took an item the service thread was behind"
            );
            // The service thread comes back for more: that ends its hold,
            // wakes the waiter, and finds nothing it may take.
            assert_eq!(id(eps[0].try_recv()), None);
            assert_eq!(waiter.join().unwrap(), Some(2));
        });
    }

    #[test]
    fn an_opened_wait_leaves_the_service_thread_nothing_until_it_closes() {
        let (_fabric, eps) = Fabric::<Laned>::new(2);
        eps[0].open_wait();
        // A reply the service thread would pass, and a request behind it.
        eps[1].send(0, Laned(1, true));
        eps[1].send(0, Laned(2, false));
        assert_eq!(id(eps[0].try_recv()), None);
        eps[0].close_wait();
        let taken: Vec<_> = std::iter::from_fn(|| id(eps[0].try_recv())).collect();
        assert_eq!(taken, [2]);
        assert_eq!(id(eps[0].recv_reply(Duration::ZERO)), Some(1));
    }

    #[test]
    fn a_wait_that_closes_with_requests_queued_wakes_the_service_thread() {
        let (_fabric, eps) = Fabric::<Laned>::new(2);
        assert_eq!(id(eps[0].recv_reply(Duration::ZERO)), None);
        std::thread::scope(|s| {
            let service = s.spawn(|| id(eps[0].recv()));
            eps[1].send(0, Laned(1, false));
            std::thread::sleep(Duration::from_millis(20));
            assert!(!service.is_finished(), "read while a wait was open");
            eps[0].close_wait();
            assert_eq!(service.join().unwrap(), Some(1));
        });
    }

    #[test]
    fn a_wait_closed_by_unwinding_leaves_the_service_thread_reading() {
        struct Closes<'a>(&'a Endpoint<Laned>);
        impl Drop for Closes<'_> {
            fn drop(&mut self) {
                self.0.close_wait();
            }
        }
        let (_fabric, eps) = sent(&[false, false]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _open = Closes(&eps[0]);
            assert_eq!(id(eps[0].recv_reply(Duration::ZERO)), Some(1));
            panic!("the handler of request 1 failed");
        }));
        assert!(unwound.is_err());
        assert_eq!(id(eps[0].try_recv()), Some(2));
    }

    #[test]
    fn after_the_hand_over_the_service_thread_takes_everything() {
        let (fabric, eps) = sent(&[false, true, true]);
        assert_eq!(id(eps[0].recv_reply(Duration::ZERO)), Some(1));
        eps[0].hand_over_replies();
        eps[1].send(0, Laned(4, true));
        eps[1].send(0, Laned(5, false));
        let taken: Vec<_> = std::iter::from_fn(|| id(eps[0].try_recv())).collect();
        assert_eq!(taken, [2, 3, 4, 5]);
        assert!(fabric.quiescent());
        // Another node's queue is its own.
        eps[0].send(1, Laned(6, true));
        assert!(eps[1].try_recv().is_none());
        assert_eq!(id(eps[1].recv_reply(Duration::ZERO)), Some(6));
    }

    #[test]
    fn a_delayed_frame_holds_back_the_later_ones() {
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
        // Delay only the "slow" kind: the later "fast" one reaches the
        // receiver first, and the link releases both in send order.
        fabric.set_fault_plan(&FaultPlan::new(7).with_rule(
            FaultRule::all().of_kind("slow").delaying(
                1.0,
                Duration::from_millis(20),
                Duration::from_millis(30),
            ),
        ));
        eps[0].send(1, Kinded(1, "slow"));
        eps[0].send(1, Kinded(2, "fast"));
        assert!(eps[1].try_recv().is_none());
        let got: Vec<u32> =
            std::iter::from_fn(|| match eps[1].recv_reply(Duration::from_secs(2))? {
                Event::Msg { msg, .. } => Some(msg.0),
                Event::Wakeup => None,
            })
            .take(2)
            .collect();
        assert_eq!(got, [1, 2]);
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
