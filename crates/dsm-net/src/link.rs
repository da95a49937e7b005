//! The link layer: one sequenced, acknowledged channel per ordered node
//! pair, between [`crate::Endpoint::send`] and the fault plan.
//!
//! Under a fault plan the fabric loses, duplicates, delays and reorders
//! frames. The link masks all four, so the protocol above it sees what
//! VMMC gives the paper's: reliable point-to-point messages, FIFO per
//! sender, that may be late and may be cut by a fail-stop crash.
//!
//! * The sender numbers each message on its `(src, dst)` pair and keeps a
//!   copy until a cumulative ack covers it.
//! * The receiver releases frames to the destination's queue in sequence
//!   order, holds one that arrives early, drops a duplicate, and acks what
//!   it has released so far — and, selectively, which of the next 64 it
//!   holds early. Acks are frames too: the plan can drop, duplicate or
//!   delay them.
//! * The chaos pump is the one timer: it sends a frame again once it has
//!   gone [`RETRY_AFTER`] without an ack, unless an ack said the receiver
//!   holds it already.
//! * A crash of a node resets every link into it: the senders' copies and
//!   its receive state go, and the pair's generation moves on, so a frame
//!   or ack still on its way from before is ignored. Links out of a crashed
//!   node keep going: what it sent before the crash is still delivered.
//!   Its restart waits until every frame any node sent before the crash is
//!   delivered or lost, as it is on a reliable fabric by then.
//!
//! The link exists only once a fault plan is set; a reliable fabric hands
//! every message straight to its queue.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::endpoint::{NodeId, WireSized};

/// How long a frame goes without an ack before the pump sends it again.
pub(crate) const RETRY_AFTER: Duration = Duration::from_millis(25);

/// What crosses the fabric while the link is on.
#[derive(Clone)]
pub(crate) enum Frame<M> {
    /// Message number `seq` of its pair's generation `gen`.
    Data { gen: u64, seq: u64, msg: M },
    /// Every message of generation `gen` below `upto` has been released,
    /// and bit `i` of `held` is set when message `upto + 1 + i` is held
    /// early.
    Ack { gen: u64, upto: u64, held: u64 },
}

/// Length of `v` as a LEB128 varint, the wire's integer encoding.
fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

impl<M: WireSized> Frame<M> {
    /// The message kind a fault rule matches: an ack is `"Ack"`.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            Frame::Data { msg, .. } => msg.kind_name(),
            Frame::Ack { .. } => "Ack",
        }
    }

    /// Bytes the link adds to the wire: a data frame's header (generation
    /// and sequence number), or a whole ack (a tag byte, generation, upto,
    /// and the held-early bitmap as a varint).
    pub(crate) fn link_bytes(&self) -> usize {
        match self {
            Frame::Data { gen, seq, .. } => varint_len(*gen) + varint_len(*seq),
            Frame::Ack { gen, upto, held } => {
                1 + varint_len(*gen) + varint_len(*upto) + varint_len(*held)
            }
        }
    }

    /// The message's own bytes, all three streams (none for an ack).
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            Frame::Data { msg, .. } => {
                msg.base_wire_size() + msg.ft_wire_size() + msg.trace_wire_size()
            }
            Frame::Ack { .. } => 0,
        }
    }

    /// Charge `by` of injected delay to the message's trace context.
    pub(crate) fn add_chaos_delay(&mut self, by: Duration) {
        if let Frame::Data { msg, .. } = self {
            msg.add_chaos_delay(by.as_nanos() as u64);
        }
    }
}

/// A sent message its receiver has not acked yet.
struct Unacked<M> {
    seq: u64,
    msg: M,
    sent_at: Instant,
    /// An ack said the receiver holds it early: it is not sent again.
    held: bool,
}

/// Both ends of one directed link: the sender's numbering and copies, and
/// the receiver's release point and early frames.
struct Pair<M> {
    gen: u64,
    next_seq: u64,
    unacked: VecDeque<Unacked<M>>,
    /// The next sequence number the receiver releases.
    next_release: u64,
    early: BTreeMap<u64, M>,
}

impl<M> Pair<M> {
    fn new() -> Self {
        Pair {
            gen: 0,
            next_seq: 0,
            unacked: VecDeque::new(),
            next_release: 0,
            early: BTreeMap::new(),
        }
    }
}

/// What the receiver made of a data frame.
pub(crate) enum Received {
    /// From a generation reset since: ignored, not acked.
    Stale,
    /// Released, held early, or — `dup` — had already arrived. Ack it,
    /// with what is held early past `upto`.
    Ack {
        gen: u64,
        upto: u64,
        held: u64,
        dup: bool,
    },
}

/// Every directed link of an `n`-node fabric.
pub(crate) struct Links<M> {
    n: usize,
    /// Indexed `src * n + dst`.
    pairs: Vec<Mutex<Pair<M>>>,
}

impl<M: Clone> Links<M> {
    pub(crate) fn new(n: usize) -> Self {
        Links {
            n,
            pairs: (0..n * n).map(|_| Mutex::new(Pair::new())).collect(),
        }
    }

    fn pair(&self, src: NodeId, dst: NodeId) -> &Mutex<Pair<M>> {
        &self.pairs[src * self.n + dst]
    }

    /// Number `msg` on `src → dst` and keep a copy until it is acked.
    pub(crate) fn enqueue(&self, src: NodeId, dst: NodeId, msg: M) -> Frame<M> {
        let mut p = self.pair(src, dst).lock();
        let seq = p.next_seq;
        p.next_seq += 1;
        let copy = msg.clone();
        p.unacked.push_back(Unacked {
            seq,
            msg: copy,
            sent_at: Instant::now(),
            held: false,
        });
        Frame::Data {
            gen: p.gen,
            seq,
            msg,
        }
    }

    /// A data frame of `src → dst` arrived: release it and every early one
    /// it lets through to `release`, in order, under the pair's lock.
    pub(crate) fn receive(
        &self,
        src: NodeId,
        dst: NodeId,
        (gen, seq, msg): (u64, u64, M),
        mut release: impl FnMut(M),
    ) -> Received {
        let mut guard = self.pair(src, dst).lock();
        let p = &mut *guard;
        if gen != p.gen {
            return Received::Stale;
        }
        let dup = seq < p.next_release || p.early.contains_key(&seq);
        if !dup {
            p.early.insert(seq, msg);
            while let Some(m) = p.early.remove(&p.next_release) {
                release(m);
                p.next_release += 1;
            }
        }
        let upto = p.next_release;
        let ahead = p
            .early
            .range(upto + 1..=upto + 64)
            .map(|(s, _)| s - upto - 1);
        let held = ahead.fold(0, |bits, i| bits | 1 << i);
        Received::Ack {
            gen,
            upto,
            held,
            dup,
        }
    }

    /// `dst` acked every message of `src → dst` below `upto`, and holds
    /// those `held` marks early.
    pub(crate) fn ack(&self, src: NodeId, dst: NodeId, (gen, upto, held): (u64, u64, u64)) {
        let mut p = self.pair(src, dst).lock();
        if gen != p.gen {
            return;
        }
        while p.unacked.front().is_some_and(|u| u.seq < upto) {
            p.unacked.pop_front();
        }
        for u in p.unacked.iter_mut().take_while(|u| u.seq <= upto + 64) {
            u.held |= u.seq > upto && held >> (u.seq - upto - 1) & 1 == 1;
        }
    }

    /// The frames unacked for [`RETRY_AFTER`] as of `now`, as
    /// `(src, dst, frame)`, each stamped sent again; and when the next
    /// one falls due.
    #[allow(clippy::type_complexity)]
    pub(crate) fn overdue(
        &self,
        now: Instant,
    ) -> (Vec<(NodeId, NodeId, Frame<M>)>, Option<Instant>) {
        let (mut due, mut next) = (Vec::new(), None::<Instant>);
        for (i, pair) in self.pairs.iter().enumerate() {
            let mut p = pair.lock();
            let gen = p.gen;
            for u in p.unacked.iter_mut().filter(|u| !u.held) {
                if now >= u.sent_at + RETRY_AFTER {
                    u.sent_at = now;
                    let msg = u.msg.clone();
                    let frame = Frame::Data {
                        gen,
                        seq: u.seq,
                        msg,
                    };
                    due.push((i / self.n, i % self.n, frame));
                }
                let at = u.sent_at + RETRY_AFTER;
                next = Some(next.map_or(at, |t| t.min(at)));
            }
        }
        (due, next)
    }

    /// `dst` crashed: what was sent to it and not acked, and what it held
    /// early, is lost; frames and acks of the old generation are ignored.
    pub(crate) fn reset_into(&self, dst: NodeId) {
        for src in 0..self.n {
            let mut p = self.pair(src, dst).lock();
            let gen = p.gen + 1;
            *p = Pair { gen, ..Pair::new() };
        }
    }

    /// Where every link stands now: its generation and next sequence
    /// number, per pair.
    pub(crate) fn marks(&self) -> Vec<(u64, u64)> {
        let mark = |p: &Mutex<Pair<M>>| {
            let p = p.lock();
            (p.gen, p.next_seq)
        };
        self.pairs.iter().map(mark).collect()
    }

    /// Has every message sent before `marks` were taken been acked, or
    /// lost with a reset since?
    pub(crate) fn settled_since(&self, marks: &[(u64, u64)]) -> bool {
        self.pairs.iter().zip(marks).all(|(p, &(gen, next))| {
            let p = p.lock();
            p.gen != gen || p.unacked.front().is_none_or(|u| u.seq >= next)
        })
    }

    /// Is any message sent and not acked yet?
    pub(crate) fn unacked(&self) -> bool {
        self.pairs.iter().any(|p| !p.lock().unacked.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultPlan, FaultRule};
    use crate::endpoint::{Event, Fabric};

    #[test]
    fn varints_are_as_long_as_the_wire_writes_them() {
        let lens = [0, 1, 127, 128, 16_383, 16_384, u64::MAX].map(varint_len);
        assert_eq!(lens, [1, 1, 1, 2, 2, 3, 10]);
    }

    /// `(stream id, n-th message of it, to_waiter)`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Numbered(usize, u32, bool);
    impl WireSized for Numbered {
        fn base_wire_size(&self) -> usize {
            8
        }
        fn to_waiter(&self) -> bool {
            self.2
        }
    }

    /// Whatever reaches `ep` within `d`, in arrival order.
    fn collect(ep: &crate::Endpoint<Numbered>, d: Duration) -> Vec<(usize, Numbered)> {
        let mut got = Vec::new();
        while let Some(ev) = ep.recv_reply(d) {
            if let Event::Msg { from, msg } = ev {
                got.push((from, msg));
            }
        }
        got
    }

    /// Wait until every frame sent is acked: queued, or lost with a crashed
    /// receiver. (Nothing reads the queues meanwhile, so they are idle only
    /// if empty: quiescence is the link's alone here.)
    fn settle(fabric: &Fabric<Numbered>) {
        let start = Instant::now();
        while !fabric.link_settled() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the link never settled"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Frames 1 and 4 are lost: the ack releases 0, says 2 and 3 are held
    /// early, and only 1 and 4 are sent again.
    #[test]
    fn an_ack_names_the_frames_held_early_and_only_the_others_are_resent() {
        let links = Links::<Numbered>::new(2);
        let frames: Vec<_> = (0..5)
            .map(|i| links.enqueue(0, 1, Numbered(0, i, false)))
            .collect();
        let mut released = Vec::new();
        let mut last = None;
        for f in frames
            .into_iter()
            .filter(|f| !matches!(f, Frame::Data { seq: 1 | 4, .. }))
        {
            let Frame::Data { gen, seq, msg } = f else {
                unreachable!()
            };
            last = Some(links.receive(0, 1, (gen, seq, msg), |m| released.push(m.1)));
        }
        let Some(Received::Ack {
            gen, upto, held, ..
        }) = last
        else {
            panic!("no ack")
        };
        assert_eq!((released, upto, held), (vec![0], 1, 0b11));
        let ack = Frame::<Numbered>::Ack { gen, upto, held };
        assert_eq!(ack.link_bytes(), 4);
        links.ack(0, 1, (gen, upto, held));
        let (due, _) = links.overdue(Instant::now() + RETRY_AFTER);
        let seqs: Vec<u64> = (due.iter())
            .map(|(_, _, f)| match f {
                Frame::Data { seq, .. } => *seq,
                Frame::Ack { .. } => panic!("an ack is never resent"),
            })
            .collect();
        assert_eq!(seqs, [1, 4]);
    }

    #[test]
    fn a_stream_arrives_once_and_in_order_through_loss_dups_and_reordering() {
        const N: u32 = 1_000;
        let (fabric, eps) = Fabric::<Numbered>::new(3);
        // Every kind, acks included.
        let rule = FaultRule::all()
            .dropping(0.3)
            .duplicating(0.3)
            .reordering(0.3);
        fabric.set_fault_plan(&FaultPlan::new(0xA11).with_rule(rule));
        for i in 0..N {
            for (src, ep) in eps.iter().enumerate() {
                for dst in (0..3).filter(|&d| d != src) {
                    ep.send(dst, Numbered(src, i, i % 3 == 0));
                }
            }
        }
        settle(&fabric);
        for (dst, ep) in eps.iter().enumerate() {
            let got = collect(ep, Duration::ZERO);
            for src in (0..3).filter(|&s| s != dst) {
                let seen: Vec<u32> = (got.iter())
                    .filter(|(f, _)| *f == src)
                    .map(|(_, m)| m.1)
                    .collect();
                assert_eq!(seen, (0..N).collect::<Vec<_>>(), "{src} -> {dst}");
            }
        }
        let t = fabric.stats().total();
        assert_eq!(t.msgs_sent, 6 * N as u64);
        assert!(t.chaos_dropped > 0 && t.link_resent > 0, "{t:?}");
        assert!(t.link_dups_dropped > 0 && t.link_acks > 0, "{t:?}");
    }

    #[test]
    fn a_receiver_crash_loses_what_is_in_flight_to_it_and_its_restart_gets_only_later_sends() {
        let (fabric, eps) = Fabric::<Numbered>::new(2);
        let slow = FaultRule::all().of_kind("msg").delaying(
            1.0,
            Duration::from_millis(5),
            Duration::from_millis(8),
        );
        fabric.set_fault_plan(&FaultPlan::new(1).with_rule(slow));
        for i in 0..10 {
            eps[0].send(1, Numbered(0, i, false));
        }
        fabric.crash(1);
        eps[1].drain();
        assert!(!eps[0].send(1, Numbered(0, 10, false)), "sent to the dead");
        fabric.restart(1);
        for i in 11..14 {
            eps[0].send(1, Numbered(0, i, false));
        }
        settle(&fabric);
        let got: Vec<u32> = (collect(&eps[1], Duration::ZERO).into_iter())
            .map(|(_, m)| m.1)
            .collect();
        assert_eq!(got, [11, 12, 13]);
    }

    #[test]
    fn a_sender_crash_cancels_nothing_it_sent_before() {
        let (fabric, eps) = Fabric::<Numbered>::new(2);
        let lossy = FaultRule::all().from_src(0).dropping(0.5);
        fabric.set_fault_plan(&FaultPlan::new(3).with_rule(lossy));
        for i in 0..20 {
            eps[0].send(1, Numbered(0, i, i % 2 == 0));
        }
        fabric.crash(0);
        eps[0].drain();
        fabric.restart(0);
        eps[0].send(1, Numbered(0, 20, false));
        settle(&fabric);
        let got = collect(&eps[1], Duration::ZERO);
        let order: Vec<u32> = got.iter().map(|(_, m)| m.1).collect();
        assert_eq!(order, (0..=20).collect::<Vec<_>>());
        assert!(fabric.stats().node(0).snapshot().link_resent > 0);
        // Only data frames are dropped and every ack says which frames the
        // receiver holds early, so a resend goes only for a frame it lacks:
        // no duplicate. (Resending every unacked frame past a lost one, node
        // 1 dropped 12 duplicates here.)
        assert_eq!(fabric.stats().node(1).snapshot().link_dups_dropped, 0);
    }

    #[test]
    fn the_fabric_is_not_quiescent_while_a_frame_is_unacked() {
        let (fabric, eps) = Fabric::<Numbered>::new(2);
        let late_acks = FaultRule::all().of_kind("Ack").delaying(
            1.0,
            Duration::from_millis(30),
            Duration::from_millis(40),
        );
        fabric.set_fault_plan(&FaultPlan::new(5).with_rule(late_acks));
        eps[0].send(1, Numbered(0, 0, false));
        assert!(matches!(eps[1].try_recv(), Some(Event::Msg { .. })));
        assert!(eps[1].try_recv().is_none());
        assert!(!fabric.quiescent(), "the ack is still on its way");
        std::thread::sleep(Duration::from_millis(60));
        assert!(fabric.quiescent());
    }
}
