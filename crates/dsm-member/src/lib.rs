#![warn(missing_docs)]
//! Heartbeat membership: restart detection.
//!
//! The paper's failure model is one fail-stop node that restarts from its
//! own checkpoint. What a survivor does about it happens on the *restart*:
//! it resupplies what the restarted node lost (retransmits blocked requests
//! and in-flight diff batches). A death needs no action of its own — every
//! request a survivor has outstanding at a dead peer is resent by the
//! runtime's retry timers, which do not ask who is alive.
//!
//! So this crate detects restarts and nothing else. Every node runs a
//! [`Detector`], a pure state machine driven by a ticker thread in the
//! runtime. Nodes exchange periodic heartbeats carrying their *incarnation*
//! (the recovery count); a restarting node bumps its incarnation and keeps
//! heartbeating, and the first heartbeat with a higher incarnation than a
//! peer has seen from it surfaces there as [`Action::Up`].
//!
//! The detector is transport-free: it receives wire messages ([`Wire`]) and
//! clock readings, and returns [`Action`]s (messages to send, `Up` events to
//! raise, round-trip samples to record). The intervals live in
//! [`MemberConfig`].

use std::time::{Duration, Instant};

/// Index of a node in the cluster (matches `dsm_net::NodeId`).
pub type NodeId = usize;

/// Heartbeat and retry intervals.
#[derive(Debug, Clone)]
pub struct MemberConfig {
    /// Heartbeat period.
    pub heartbeat_every: Duration,
    /// Timeout after which an outstanding protocol request (page fetch,
    /// lock acquire, barrier arrival) is retransmitted. Used by the
    /// runtime's retry layer, not the detector itself.
    pub retry_after: Duration,
}

impl Default for MemberConfig {
    fn default() -> Self {
        MemberConfig {
            heartbeat_every: Duration::from_millis(2),
            retry_after: Duration::from_millis(25),
        }
    }
}

/// Membership messages on the wire. The runtime embeds these in its own
/// message enum and encodes them with the rest of its kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Periodic heartbeat.
    Ping {
        /// Sender-local heartbeat sequence number (RTT correlation).
        seq: u64,
        /// Sender's incarnation (its recovery count).
        incarnation: u64,
    },
    /// Heartbeat reply.
    Pong {
        /// Echo of the ping's sequence number.
        seq: u64,
        /// Responder's incarnation.
        incarnation: u64,
    },
}

impl Wire {
    /// Stable kind label for tracing/traffic accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            Wire::Ping { .. } => "HbPing",
            Wire::Pong { .. } => "HbPong",
        }
    }
}

/// What the detector wants done after processing an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Wire,
    },
    /// `node` restarted: it lost everything in flight to it, so requesters
    /// should retransmit anything they still owe to or expect from it.
    Up {
        /// The restarted node.
        node: NodeId,
        /// Its new incarnation.
        incarnation: u64,
    },
    /// A heartbeat round-trip-time sample, in nanoseconds.
    RttSample {
        /// The sample.
        ns: u64,
    },
}

/// Monotonic counters the detector keeps (exported into `NodeReport`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemberStats {
    /// Up events raised.
    pub up_events: u64,
    /// Heartbeats sent.
    pub pings_sent: u64,
}

#[derive(Debug, Default)]
struct PeerView {
    /// Highest incarnation seen from this peer.
    incarnation: u64,
    /// `(seq, sent_at)` of the most recent ping, for RTT.
    last_ping: Option<(u64, Instant)>,
}

/// The per-node restart-detector state machine. Not thread-safe by itself;
/// the runtime drives it under one lock from the ticker thread and the
/// message-service thread.
#[derive(Debug)]
pub struct Detector {
    every: Duration,
    /// This node's own incarnation (bumped by the runtime at each recovery).
    incarnation: u64,
    hb_seq: u64,
    next_hb: Instant,
    /// One view per peer; `None` at this node's own index.
    peers: Vec<Option<PeerView>>,
    stats: MemberStats,
}

impl Detector {
    /// New detector for node `me` of `n`; its first tick at or after `now`
    /// heartbeats.
    pub fn new(me: NodeId, n: usize, cfg: MemberConfig, now: Instant) -> Detector {
        Detector {
            every: cfg.heartbeat_every,
            incarnation: 0,
            hb_seq: 0,
            next_hb: now,
            peers: (0..n).map(|p| (p != me).then(PeerView::default)).collect(),
            stats: MemberStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> MemberStats {
        self.stats
    }

    /// This node's current incarnation.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The runtime calls this when *this* node starts recovering: bump the
    /// incarnation so peers can tell the new life from the old one, and
    /// heartbeat at the next tick.
    pub fn begin_new_incarnation(&mut self, now: Instant) {
        self.incarnation += 1;
        self.next_hb = now;
    }

    fn peer(&mut self, peer: NodeId) -> &mut PeerView {
        self.peers[peer].as_mut().expect("no view of self")
    }

    /// A heartbeat from `peer` carried `incarnation`: a higher one than any
    /// seen before means the peer restarted.
    fn heard_from(&mut self, peer: NodeId, incarnation: u64, out: &mut Vec<Action>) {
        let p = self.peer(peer);
        if incarnation > p.incarnation {
            p.incarnation = incarnation;
            self.stats.up_events += 1;
            out.push(Action::Up {
                node: peer,
                incarnation,
            });
        }
    }

    /// Send the heartbeat when one is due. Call every ~heartbeat period.
    pub fn tick(&mut self, now: Instant) -> Vec<Action> {
        if now < self.next_hb {
            return Vec::new();
        }
        self.next_hb = now + self.every;
        self.hb_seq += 1;
        let msg = Wire::Ping {
            seq: self.hb_seq,
            incarnation: self.incarnation,
        };
        let mut out = Vec::new();
        for (to, p) in self.peers.iter_mut().enumerate() {
            if let Some(p) = p {
                p.last_ping = Some((self.hb_seq, now));
                self.stats.pings_sent += 1;
                out.push(Action::Send { to, msg });
            }
        }
        out
    }

    /// Feed one received membership message into the detector.
    pub fn on_msg(&mut self, from: NodeId, msg: Wire, now: Instant) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            Wire::Ping { seq, incarnation } => {
                self.heard_from(from, incarnation, &mut out);
                let incarnation = self.incarnation;
                let msg = Wire::Pong { seq, incarnation };
                out.push(Action::Send { to: from, msg });
            }
            Wire::Pong { seq, incarnation } => {
                self.heard_from(from, incarnation, &mut out);
                let p = self.peer(from);
                if let Some((sent_seq, sent_at)) = p.last_ping {
                    if sent_seq == seq {
                        let ns = now.duration_since(sent_at).as_nanos() as u64;
                        out.push(Action::RttSample { ns });
                        p.last_ping = None;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn ping(seq: u64, incarnation: u64) -> Wire {
        Wire::Ping { seq, incarnation }
    }

    fn sends(actions: &[Action]) -> Vec<(NodeId, Wire)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((*to, *msg)),
                _ => None,
            })
            .collect()
    }

    fn ups(actions: &[Action]) -> Vec<(NodeId, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Up { node, incarnation } => Some((*node, *incarnation)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_higher_incarnation_raises_one_up_and_the_same_or_a_lower_one_none() {
        let t0 = Instant::now();
        let mut d = Detector::new(0, 3, MemberConfig::default(), t0);
        // First contact with the first life: nothing restarted.
        assert!(ups(&d.on_msg(1, ping(1, 0), t0)).is_empty());
        // Node 1 restarted: exactly one Up, whichever heartbeat brings it.
        assert_eq!(ups(&d.on_msg(1, ping(2, 1), t0)), [(1, 1)]);
        let pong = Wire::Pong {
            seq: 9,
            incarnation: 1,
        };
        assert!(ups(&d.on_msg(1, pong, t0)).is_empty());
        assert!(ups(&d.on_msg(1, ping(3, 1), t0)).is_empty());
        // A stale heartbeat of the old life, overtaken on the wire.
        assert!(ups(&d.on_msg(1, ping(1, 0), t0)).is_empty());
        // A second restart is a second Up; node 2's history is its own.
        assert_eq!(ups(&d.on_msg(1, ping(4, 2), t0)), [(1, 2)]);
        assert!(ups(&d.on_msg(2, ping(1, 0), t0)).is_empty());
        assert_eq!(d.stats().up_events, 2);
    }

    #[test]
    fn every_period_pings_every_peer_a_silent_one_included() {
        let t0 = Instant::now();
        let mut d = Detector::new(1, 3, MemberConfig::default(), t0);
        let every_peer = |a: &[Action]| sends(a).iter().map(|&(to, _)| to).collect::<Vec<_>>();
        assert_eq!(every_peer(&d.tick(t0)), [0, 2]);
        // Before the period is up: nothing.
        assert!(d.tick(t0 + Duration::from_micros(500)).is_empty());
        // Node 0 answers, node 2 never does; both are pinged for ever.
        for step in 1..=20 {
            let now = t0 + ms(2 * step);
            let _ = d.on_msg(0, ping(step, 0), now);
            assert_eq!(every_peer(&d.tick(now)), [0, 2], "period {step}");
        }
        assert_eq!(d.stats().pings_sent, 42);
        assert_eq!(d.stats().up_events, 0);
    }

    #[test]
    fn a_new_incarnation_is_announced_by_the_next_tick() {
        let t0 = Instant::now();
        let mut d = Detector::new(0, 3, MemberConfig::default(), t0);
        let _ = d.tick(t0);
        // Crashed at once, back 1 ms later: before the period is up.
        let back = t0 + ms(1);
        d.begin_new_incarnation(back);
        assert_eq!(d.incarnation(), 1);
        let pings = sends(&d.tick(back));
        assert_eq!(pings.len(), 2);
        assert!(pings
            .iter()
            .all(|(_, m)| matches!(m, Wire::Ping { incarnation: 1, .. })));
        // A peer that hears it raises Up; its Pong carries its own life.
        let mut peer = Detector::new(1, 3, MemberConfig::default(), t0);
        let a = peer.on_msg(0, pings[0].1, back);
        assert_eq!(ups(&a), [(0, 1)]);
        assert!(matches!(
            sends(&a)[..],
            [(0, Wire::Pong { incarnation: 0, .. })]
        ));
    }

    #[test]
    fn a_matching_pong_yields_an_rtt_sample() {
        let t0 = Instant::now();
        let mut d0 = Detector::new(0, 2, MemberConfig::default(), t0);
        let mut d1 = Detector::new(1, 2, MemberConfig::default(), t0);
        let (to, ping) = sends(&d0.tick(t0))[0];
        assert_eq!(to, 1);
        let (to, pong) = sends(&d1.on_msg(0, ping, t0))[0];
        assert_eq!(to, 0);
        assert!(matches!(pong, Wire::Pong { seq: 1, .. }));
        let a = d0.on_msg(1, pong, t0 + Duration::from_micros(300));
        assert_eq!(a, [Action::RttSample { ns: 300_000 }]);
        // The same pong again (a duplicate) is no second sample.
        assert!(d0.on_msg(1, pong, t0 + ms(1)).is_empty());
    }
}
