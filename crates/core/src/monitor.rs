//! Online protocol-invariant monitor.
//!
//! The monitor is a [`dsm_trace::EventSink`]: it consumes the live event
//! stream as nodes emit it and checks a catalog of protocol invariants on
//! the fly. A violation is recorded (and echoed to stderr immediately, so a
//! wedged soak still shows it); at collection time the runtime panics on
//! the first violation with the offending causal flow attached, turning a
//! silent corruption into a pinpointed, replayable failure.
//!
//! ## Invariant catalog
//!
//! 1. **Version monotonicity** — on each home node, per `(page, writer)`,
//!    applied interval sequence numbers strictly increase: a duplicate or
//!    out-of-order diff apply is exactly the corruption the per-writer
//!    version gate exists to prevent. State resets when the *home* crashes
//!    (its copy is rebuilt; applies surfacing between the crash and the
//!    restore are ignored) and clears per writer when the writer returns
//!    (`PeerRestart`, emitted by the home as it answers the writer's
//!    recovery handshake, before any replayed diff can reach it): recovery
//!    replay legitimately re-applies the writer's logged diffs.
//! 2. **Lock tenure uniqueness** — per `(lock, generation)`, at most one
//!    distinct grantee. Re-granting the same generation to the same node is
//!    a legal restart replay; to a different node it is a split
//!    tenure — unless the grant died with its granter: the granter has had
//!    a `CrashInjected` since it emitted the grant, and either the grantee
//!    never consumed it (no `LockAcquire` of that lock by the grantee after
//!    the `LockGrant`) or the grantee is the granter itself (a self-grant:
//!    the tenure it opened is rolled back by the same crash, and no
//!    survivor holds a record of it). The recovered manager, which cannot
//!    know of such a grant, issues the generation again. A grant another
//!    node consumed and that is re-issued is a split tenure whoever crashed.
//! 3. **Barrier episode order** — each node's `BarrierRelease` episodes
//!    strictly increase (reset when that node crashes), and every node's
//!    final episode agrees at finish (nodes that crashed mid-run and nodes
//!    that never entered a barrier are exempt from the final check only if
//!    they saw no release at all).
//! 4. **Recovery phase order** — after a `CrashInjected` on a node, its
//!    `RecoveryPhase` events run restore → log_collect → replay, each at
//!    most once per incarnation.
//!
//! The monitor never holds a reference back to the [`dsm_trace::Trace`]
//! (that would leak the rings via an `Arc` cycle); it tracks the last flow
//! id each node was serving and the runtime stitches the full flow from the
//! trace at panic time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dsm_trace::{Event, EventKind, EventSink, RecPhase};
use parking_lot::Mutex;

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke (short stable name).
    pub invariant: &'static str,
    /// Human-readable description with the offending values.
    pub detail: String,
    /// Node the violating event was recorded on.
    pub node: usize,
    /// Trace-epoch timestamp of the violating event.
    pub ts_ns: u64,
    /// The causal flow the node was serving when it violated (0 if none —
    /// e.g. an app-thread event outside any message handler).
    pub flow: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] n{} @{}ns: {} (flow {})",
            self.invariant, self.node, self.ts_ns, self.detail, self.flow
        )
    }
}

/// Summary of a finished monitor run (attached to the run report).
#[derive(Debug, Clone, Default)]
pub struct MonitorReport {
    /// Events the monitor consumed. Zero means the monitor never saw the
    /// stream — an assertion that it actually ran.
    pub events_seen: u64,
    /// All recorded violations (empty on a clean run).
    pub violations: Vec<Violation>,
}

#[derive(Default)]
struct PerNode {
    /// Applied interval per (page, writer) — strictly increasing.
    applied: HashMap<(u32, usize), u64>,
    /// Last barrier release episode seen.
    last_episode: Option<u32>,
    /// Recovery phases seen since the last crash (in arrival order).
    rec_phases: Vec<RecPhase>,
    /// Are we between a CrashInjected and the end of replay?
    recovering: bool,
    /// Flow id of the message this node is currently serving (last MsgRecv).
    last_flow: u64,
    /// `CrashInjected` events so far.
    crashes: u32,
    /// `LockAcquire` events so far, per lock.
    acquired: HashMap<u32, u64>,
}

/// One `LockGrant`, as tenure uniqueness remembers it: grantee and granter,
/// and where the granter's crash count and the grantee's acquire count of
/// the lock stood when it was emitted.
struct Grant {
    to: usize,
    from: usize,
    from_crashes: u32,
    to_acquired: u64,
}

struct Inner {
    nodes: Vec<PerNode>,
    /// The grant per (lock, generation).
    tenures: HashMap<(u32, u64), Grant>,
    violations: Vec<Violation>,
}

/// The online monitor. Install with [`dsm_trace::Trace::set_sink`]; call
/// [`Monitor::finish`] after the run for the cross-node final checks.
pub struct Monitor {
    inner: Mutex<Inner>,
    events_seen: AtomicU64,
}

impl Monitor {
    /// A monitor for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        Monitor {
            inner: Mutex::new(Inner {
                nodes: (0..n).map(|_| PerNode::default()).collect(),
                tenures: HashMap::new(),
                violations: Vec::new(),
            }),
            events_seen: AtomicU64::new(0),
        }
    }

    fn violate(inner: &mut Inner, e: &Event, invariant: &'static str, detail: String) {
        let v = Violation {
            invariant,
            detail,
            node: e.node,
            ts_ns: e.ts_ns,
            flow: inner.nodes[e.node].last_flow,
        };
        // Echo the first violation immediately: a soak that wedges after
        // the corruption still shows what broke.
        if inner.violations.is_empty() {
            eprintln!("[monitor] INVARIANT VIOLATION: {v}");
        }
        inner.violations.push(v);
    }

    /// Cross-node checks that only make sense once the run is over.
    /// Returns the final report.
    pub fn finish(&self) -> MonitorReport {
        let mut inner = self.inner.lock();
        // Barrier agreement: every node that saw any release must agree on
        // the final episode.
        let finals: Vec<(usize, u32)> = inner
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.last_episode.map(|e| (i, e)))
            .collect();
        if let Some(&(first_node, first_ep)) = finals.first() {
            for &(node, ep) in &finals[1..] {
                if ep != first_ep {
                    let v = Violation {
                        invariant: "barrier-agreement",
                        detail: format!(
                            "final barrier episode disagrees: n{first_node} ended at \
                             {first_ep}, n{node} at {ep}"
                        ),
                        node,
                        ts_ns: 0,
                        flow: 0,
                    };
                    if inner.violations.is_empty() {
                        eprintln!("[monitor] INVARIANT VIOLATION: {v}");
                    }
                    inner.violations.push(v);
                }
            }
        }
        MonitorReport {
            events_seen: self.events_seen.load(Ordering::Relaxed),
            violations: inner.violations.clone(),
        }
    }
}

impl EventSink for Monitor {
    fn on_event(&self, e: &Event) {
        self.events_seen.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        match &e.kind {
            EventKind::MsgRecv { flow, .. } => {
                inner.nodes[e.node].last_flow = *flow;
            }
            EventKind::DiffApply {
                page,
                writer,
                interval,
                ..
            } => {
                let node = &inner.nodes[e.node];
                if node.recovering && node.rec_phases.is_empty() {
                    // Crashed, not yet restored: an apply the service thread
                    // had in flight when the crash hit. Restore overwrites
                    // the home copy, and replay legitimately applies the
                    // same interval again.
                    return;
                }
                let key = (*page, *writer);
                let prev = inner.nodes[e.node].applied.get(&key).copied();
                match prev {
                    Some(p) if *interval <= p => {
                        let detail = format!(
                            "diff for page {page} writer {writer} applied at interval \
                             {interval} but interval {p} was already applied \
                             ({})",
                            if *interval == p {
                                "duplicate apply"
                            } else {
                                "out-of-order apply"
                            }
                        );
                        Self::violate(inner, e, "version-monotonicity", detail);
                    }
                    _ => {
                        inner.nodes[e.node].applied.insert(key, *interval);
                    }
                }
            }
            EventKind::LockGrant { lock, to, gen } => {
                let acquired = |node: usize| *inner.nodes[node].acquired.get(lock).unwrap_or(&0);
                let grant = Grant {
                    to: *to,
                    from: e.node,
                    from_crashes: inner.nodes[e.node].crashes,
                    to_acquired: acquired(*to),
                };
                match inner.tenures.get(&(*lock, *gen)) {
                    // Same grantee again: a legal restart replay.
                    Some(prev) if prev.to == *to => {}
                    // The granter crashed after emitting the grant, and the
                    // grantee never entered the tenure (the grant died on
                    // the wire) or is the granter itself (the tenure died in
                    // that crash too): the generation is free again.
                    Some(prev)
                        if inner.nodes[prev.from].crashes > prev.from_crashes
                            && (acquired(prev.to) == prev.to_acquired || prev.to == prev.from) =>
                    {
                        inner.tenures.insert((*lock, *gen), grant);
                    }
                    Some(prev) => {
                        let detail = format!(
                            "lock {lock} generation {gen} granted to n{to} but was \
                             already granted to n{} (split tenure)",
                            prev.to
                        );
                        Self::violate(inner, e, "tenure-uniqueness", detail);
                    }
                    None => {
                        inner.tenures.insert((*lock, *gen), grant);
                    }
                }
            }
            EventKind::LockAcquire { lock } => {
                *inner.nodes[e.node].acquired.entry(*lock).or_default() += 1;
            }
            EventKind::BarrierRelease { episode } => {
                let node = &mut inner.nodes[e.node];
                if let Some(prev) = node.last_episode {
                    if *episode <= prev {
                        let detail = format!(
                            "barrier release for episode {episode} after episode {prev} \
                             was already released"
                        );
                        node.last_episode = Some(*episode);
                        Self::violate(inner, e, "barrier-order", detail);
                        return;
                    }
                }
                node.last_episode = Some(*episode);
            }
            EventKind::CrashInjected { .. } => {
                let node = &mut inner.nodes[e.node];
                node.crashes += 1;
                // The home copy is rebuilt from checkpoint + peer logs; its
                // apply history starts over. Barrier progress likewise.
                node.applied.clear();
                node.last_episode = None;
                node.rec_phases.clear();
                node.recovering = true;
            }
            EventKind::RecoveryPhase { phase } => {
                let node = &mut inner.nodes[e.node];
                if !node.recovering {
                    let detail =
                        format!("recovery phase {} without a preceding crash", phase.name());
                    Self::violate(inner, e, "recovery-order", detail);
                    return;
                }
                let expected = match node.rec_phases.len() {
                    0 => RecPhase::Restore,
                    1 => RecPhase::LogCollect,
                    2 => RecPhase::Replay,
                    _ => {
                        let detail =
                            format!("fourth recovery phase {} in one incarnation", phase.name());
                        Self::violate(inner, e, "recovery-order", detail);
                        return;
                    }
                };
                if *phase != expected {
                    let detail = format!(
                        "recovery phase {} arrived where {} was expected",
                        phase.name(),
                        expected.name()
                    );
                    Self::violate(inner, e, "recovery-order", detail);
                    return;
                }
                node.rec_phases.push(*phase);
                if *phase == RecPhase::Replay {
                    node.recovering = false;
                }
            }
            EventKind::PeerRestart { node: subject } => {
                // The returned writer replays its logged diffs; the home
                // legitimately re-applies them from scratch.
                inner.nodes[e.node].applied.retain(|(_, w), _| w != subject);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: usize, ts_ns: u64, kind: EventKind) -> Event {
        Event {
            ts_ns,
            dur_ns: 0,
            node,
            kind,
        }
    }

    fn apply(node: usize, ts: u64, page: u32, writer: usize, interval: u64) -> Event {
        ev(
            node,
            ts,
            EventKind::DiffApply {
                page,
                bytes: 64,
                writer,
                interval,
            },
        )
    }

    #[test]
    fn clean_stream_has_no_violations() {
        let m = Monitor::new(2);
        m.on_event(&apply(0, 1, 3, 1, 1));
        m.on_event(&apply(0, 2, 3, 1, 2));
        m.on_event(&ev(0, 3, EventKind::BarrierRelease { episode: 1 }));
        m.on_event(&ev(1, 3, EventKind::BarrierRelease { episode: 1 }));
        let r = m.finish();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.events_seen, 4);
    }

    #[test]
    fn duplicate_apply_is_caught_with_flow() {
        let m = Monitor::new(2);
        m.on_event(&ev(
            0,
            1,
            EventKind::MsgRecv {
                kind: "DiffBatch",
                from: 1,
                bytes: 100,
                flow: 42,
                queue_ns: 0,
                chaos_ns: 0,
            },
        ));
        m.on_event(&apply(0, 2, 3, 1, 5));
        m.on_event(&apply(0, 3, 3, 1, 5));
        let r = m.finish();
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.invariant, "version-monotonicity");
        assert_eq!(v.flow, 42);
        assert!(v.detail.contains("duplicate apply"));
    }

    #[test]
    fn split_tenure_is_caught_but_regrant_is_legal() {
        let m = Monitor::new(3);
        let grant = |to| EventKind::LockGrant {
            lock: 5,
            to,
            gen: 7,
        };
        m.on_event(&ev(0, 1, grant(1)));
        m.on_event(&ev(0, 2, grant(1))); // restart replay: legal
        m.on_event(&ev(0, 3, grant(2))); // split tenure: violation
        let r = m.finish();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "tenure-uniqueness");
    }

    #[test]
    fn a_grant_that_died_with_its_granter_may_be_issued_again_but_not_a_consumed_one() {
        let grant = |to| EventKind::LockGrant {
            lock: 5,
            to,
            gen: 7,
        };
        let crash = EventKind::CrashInjected { at_op: 75 };
        let acquire = EventKind::LockAcquire { lock: 5 };
        // Node 1 grants to node 2 and crashes; node 2 — which held the lock
        // once before, through an earlier generation — never hears of it.
        // The recovered manager gives generation 7 to node 0.
        let m = Monitor::new(3);
        m.on_event(&ev(2, 1, acquire.clone()));
        m.on_event(&ev(1, 2, grant(2)));
        m.on_event(&ev(1, 3, crash.clone()));
        m.on_event(&ev(1, 4, grant(0)));
        assert!(m.finish().violations.is_empty());
        // The new grant is what is remembered now: node 0 consumes it, and
        // a third grantee is a split tenure although node 1 crashed again.
        m.on_event(&ev(0, 5, acquire.clone()));
        m.on_event(&ev(1, 6, crash.clone()));
        m.on_event(&ev(1, 7, grant(2)));
        assert_eq!(m.finish().violations.len(), 1);

        // A grant the grantee consumed is a tenure that happened, whether or
        // not its granter crashes afterwards ...
        let m = Monitor::new(3);
        m.on_event(&ev(1, 1, grant(2)));
        m.on_event(&ev(2, 2, acquire.clone()));
        m.on_event(&ev(1, 3, crash));
        m.on_event(&ev(1, 4, grant(0)));
        let r = m.finish();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "tenure-uniqueness");
        // ... unless it was a self-grant, which that crash rolls back.
        let m = Monitor::new(3);
        m.on_event(&ev(1, 1, grant(1)));
        m.on_event(&ev(1, 2, acquire));
        m.on_event(&ev(1, 3, EventKind::CrashInjected { at_op: 235 }));
        m.on_event(&ev(1, 4, grant(0)));
        assert!(m.finish().violations.is_empty());
        // An unconsumed grant whose granter is still up is a tenure too.
        let m = Monitor::new(3);
        m.on_event(&ev(1, 1, grant(2)));
        m.on_event(&ev(0, 2, EventKind::CrashInjected { at_op: 9 }));
        m.on_event(&ev(1, 3, grant(0)));
        assert_eq!(m.finish().violations.len(), 1);
    }

    #[test]
    fn crash_resets_version_and_barrier_state() {
        let m = Monitor::new(2);
        m.on_event(&apply(0, 1, 3, 1, 9));
        m.on_event(&ev(0, 2, EventKind::BarrierRelease { episode: 4 }));
        m.on_event(&ev(1, 2, EventKind::BarrierRelease { episode: 4 }));
        m.on_event(&ev(0, 3, EventKind::CrashInjected { at_op: 100 }));
        // An apply the service thread had in flight when the crash hit
        // surfaces late; restore wipes it, so it does not count.
        m.on_event(&apply(0, 4, 3, 1, 10));
        m.on_event(&ev(
            0,
            5,
            EventKind::RecoveryPhase {
                phase: RecPhase::Restore,
            },
        ));
        m.on_event(&ev(
            0,
            6,
            EventKind::RecoveryPhase {
                phase: RecPhase::LogCollect,
            },
        ));
        // Replay re-applies old intervals (that one included) and re-runs
        // old episodes: legal.
        m.on_event(&apply(0, 7, 3, 1, 1));
        m.on_event(&apply(0, 7, 3, 1, 10));
        m.on_event(&ev(0, 7, EventKind::BarrierRelease { episode: 1 }));
        m.on_event(&ev(
            0,
            8,
            EventKind::RecoveryPhase {
                phase: RecPhase::Replay,
            },
        ));
        // Catch back up to the cluster's episode.
        m.on_event(&ev(0, 9, EventKind::BarrierRelease { episode: 4 }));
        let r = m.finish();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn out_of_order_recovery_phase_is_caught() {
        let m = Monitor::new(2);
        m.on_event(&ev(0, 1, EventKind::CrashInjected { at_op: 10 }));
        m.on_event(&ev(
            0,
            2,
            EventKind::RecoveryPhase {
                phase: RecPhase::Replay,
            },
        ));
        let r = m.finish();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "recovery-order");
    }

    #[test]
    fn a_peer_restart_clears_that_writers_history_at_the_home() {
        let m = Monitor::new(3);
        m.on_event(&apply(0, 1, 7, 2, 9));
        m.on_event(&ev(0, 2, EventKind::PeerRestart { node: 2 }));
        // Writer 2 replays from its log: old intervals re-apply legally.
        m.on_event(&apply(0, 3, 7, 2, 1));
        // Another writer's history is untouched.
        m.on_event(&apply(0, 4, 7, 1, 3));
        m.on_event(&apply(0, 5, 7, 1, 3)); // still a violation
        let r = m.finish();
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].detail.contains("writer 1"));
    }

    #[test]
    fn final_barrier_disagreement_is_caught() {
        let m = Monitor::new(3);
        m.on_event(&ev(0, 1, EventKind::BarrierRelease { episode: 5 }));
        m.on_event(&ev(1, 1, EventKind::BarrierRelease { episode: 4 }));
        let r = m.finish();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "barrier-agreement");
    }
}
