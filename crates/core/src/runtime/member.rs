//! Membership: [`MemberSvc`], the restart detector.
//!
//! The module owns the heartbeat [`Detector`] and its round-trip samples,
//! the `Member` message kind and the ticker thread. Nothing here is touched
//! by a crash: the detector belongs to the machine, not to the incarnation,
//! and a restart only bumps its incarnation number.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_member::{Action as MemberAction, Detector, MemberConfig, MemberStats, Wire};
use dsm_net::Endpoint;
use dsm_page::ProcId;
use dsm_trace::{EventKind, Histogram, LatencyHists, NodeTracer};
use parking_lot::Mutex;

use crate::ft;
use crate::msg::{Msg, Payload};
use crate::runtime::node::{handle_node_up, Mode, NodeShared};

/// The membership runtime of one node: the heartbeat [`Detector`] plus its
/// round-trip samples, each behind its own small lock so that the ticker
/// thread and the service thread drive the detector without ever touching
/// the big state lock (a heartbeat must not queue behind a computing
/// application thread, or a restart would be noticed late and the round
/// trip would measure the lock). The samples are folded into the
/// [`LatencyHists`] of each node report. Lock order: never hold `det` while
/// taking the big lock is *allowed* (big → det at the crash path), so action
/// application always drops the detector guard first.
pub(crate) struct MemberSvc {
    /// Where membership traffic goes out: bare, past the big lock.
    ep: Arc<Endpoint<Msg>>,
    tracer: NodeTracer,
    det: Mutex<Detector>,
    /// Heartbeat round-trip samples (ns).
    rtt: Mutex<Histogram>,
}

impl MemberSvc {
    pub(crate) fn new(cfg: &MemberConfig, ep: Arc<Endpoint<Msg>>, tracer: NodeTracer) -> Self {
        let (me, n) = (ep.id(), ep.cluster_size());
        MemberSvc {
            ep,
            tracer,
            det: Mutex::new(Detector::new(me, n, cfg.clone(), Instant::now())),
            rtt: Mutex::new(Histogram::new()),
        }
    }

    /// The module's message kind, handled by the service loop off the big
    /// lock.
    pub(crate) fn on_msg(&self, shared: &NodeShared, from: ProcId, w: Wire) {
        let actions = self.det.lock().on_msg(from, w, Instant::now());
        self.apply(shared, actions);
    }

    /// The restarted node is a new incarnation: its next heartbeat carries
    /// the bumped number, which is how peers learn it is back.
    pub(crate) fn begin_new_incarnation(&self) {
        self.det.lock().begin_new_incarnation(Instant::now());
    }

    /// For a node report: fold the off-big-lock samples into its `hists` and
    /// return the detector's counters. Never waits — a report may be taken
    /// mid-run or from a panic hook: `None` while the ticker or the service
    /// thread holds one of the two.
    pub(crate) fn fold_into(&self, hists: &mut LatencyHists) -> Option<MemberStats> {
        let stats = self.det.try_lock()?.stats();
        hists.heartbeat_rtt.merge(&*self.rtt.try_lock()?);
        Some(stats)
    }

    /// Apply the actions the [`Detector`] produced. Must be called *without*
    /// holding the detector lock (an `Up` action takes the big lock to drive
    /// retransmissions). Sends go out as bare messages — membership traffic
    /// never carries piggybacks and never enters the recovery backlog.
    fn apply(&self, shared: &NodeShared, actions: Vec<MemberAction>) {
        for a in actions {
            match a {
                MemberAction::Send { to, msg } => {
                    self.ep.send(to, Msg::bare(Payload::Member(msg)));
                }
                MemberAction::RttSample { ns } => self.rtt.lock().record(ns),
                MemberAction::Up { node, .. } => {
                    self.tracer.emit(EventKind::MemberUp { node });
                    // The restarted peer lost everything in flight to it:
                    // retransmit blocked requests and in-flight prefetch batches
                    // (same path orchestrated `NodeUp` events used to drive),
                    // plus the in-flight diff batch, immediately.
                    let mut st = shared.state.lock();
                    if st.mode == Mode::Normal {
                        handle_node_up(&mut st, node);
                        ft::resend_inflight_diffs(&mut st, node);
                        st.poke_if_answered();
                    }
                }
            }
        }
    }
}

/// The heartbeat ticker, one thread per node: drives the detector's
/// heartbeats and the diff-outbox retransmission scan every `every`, until
/// `stop` (heartbeats never quiesce on their own).
pub(crate) fn ticker(shared: &NodeShared, stop: &AtomicBool, every: Duration) {
    let (member, mode_flag) = {
        let st = shared.state.lock();
        let member = st.member.clone().expect("ticker without member runtime");
        (member, st.mode_flag.clone())
    };
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(every);
        // A crashed node is silent: no heartbeats, no retransmissions. Its
        // peers learn of the crash when it is back, from the new incarnation.
        if mode_flag.load(Ordering::SeqCst) == Mode::Crashed as u8 {
            continue;
        }
        let actions = member.det.lock().tick(Instant::now());
        member.apply(shared, actions);
        // Retransmit stale in-flight diff batches. Skip when the big lock is
        // busy — the app thread owns it while computing; the next tick
        // retries.
        if let Some(mut st) = shared.state.try_lock() {
            if st.mode != Mode::Crashed {
                ft::retransmit_stale_diffs(&mut st);
            }
        }
    }
}
