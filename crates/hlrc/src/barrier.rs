//! Centralized barrier manager.
//!
//! One node (node 0 by default) manages the single global barrier used by
//! the SPLASH-style applications. Barrier crossings are numbered *episodes*.
//! An arriving node sends its vector timestamp and the write notices of its
//! *own* intervals since its previous arrival; once all `n` arrivals are in,
//! the manager computes the joined timestamp and sends each participant the
//! notices it is missing.
//!
//! Invariant making the own-notices-only arrival sufficient: after episode
//! `e-1`, every participant's timestamp covers every interval that ended
//! before the corresponding arrival, so anything a participant can be
//! missing at episode `e` was created since someone's `e-1` arrival and is
//! therefore included in that someone's own notices at `e`.
//!
//! The last completed episode is retained so the release can be recomputed
//! for a participant that lost it to a crash and re-arrives: the episode's
//! notices past the re-arrival's own clock.
//!
//! Arrivals and releases are deltas ([`WnDelta`]): an arrival's notices are
//! its own intervals past the node's previous arrival, a release the
//! episode's notices past the participant's arrival clock. An arrival names
//! only its sender's intervals, so the episode's notices are the arrivals'
//! lists side by side, each interval once.

use std::collections::HashMap;

use dsm_page::{ProcId, VectorClock};

use crate::wn::WnDelta;

/// A node's arrival at the barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// The arriving node.
    pub proc: ProcId,
    /// Barrier episode number (0-based count of crossings at that node).
    pub episode: u64,
    /// The node's timestamp at arrival (its arrival interval just ended).
    pub vt: VectorClock,
    /// The node's own write notices since its previous arrival.
    pub own_wns: WnDelta,
}

/// What the manager sends each participant when the barrier completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseSet {
    /// The completed episode.
    pub episode: u64,
    /// Join of all arrival timestamps.
    pub vt: VectorClock,
    /// Per-participant missing notices, indexed by process id.
    pub per_proc_wns: Vec<WnDelta>,
}

#[derive(Debug, PartialEq)]
struct CompletedEpisode {
    episode: u64,
    vt: VectorClock,
    all_wns: WnDelta,
}

/// The barrier manager state machine.
#[derive(Debug, PartialEq)]
pub struct BarrierManager {
    n: usize,
    episode: u64,
    arrivals: HashMap<ProcId, Arrival>,
    last: Option<CompletedEpisode>,
}

/// Outcome of processing one arrival.
#[derive(Debug, PartialEq, Eq)]
pub enum ArriveOutcome {
    /// Still waiting for more arrivals.
    Pending,
    /// All `n` nodes arrived: release everyone.
    Complete(ReleaseSet),
    /// A (re-)arrival for the last completed episode (the sender lost the
    /// release to a crash): resend its release.
    Resend {
        /// The re-arriving node.
        proc: ProcId,
        /// The completed episode.
        episode: u64,
        /// Its joined timestamp.
        vt: VectorClock,
        /// The episode's notices the re-arrival's clock lacks.
        wns: WnDelta,
    },
}

impl BarrierManager {
    /// Manager for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        BarrierManager {
            n,
            episode: 0,
            arrivals: HashMap::new(),
            last: None,
        }
    }

    /// The episode currently being collected.
    pub fn current_episode(&self) -> u64 {
        self.episode
    }

    /// Process one arrival (idempotent per (episode, proc)).
    ///
    /// # Panics
    /// On an arrival from the future (more than the current episode), which
    /// would indicate a runtime bug: no node can pass a barrier before it
    /// completes. On one older than the last completed episode: that
    /// episode needed the sender's arrival, the link delivers each arrival
    /// once, and a restart resends only the arrival its sender blocks on.
    pub fn arrive(&mut self, a: Arrival) -> ArriveOutcome {
        debug_assert!(
            a.own_wns.iter().all(|w| w.interval.proc == a.proc),
            "an arrival from {} names another node's interval",
            a.proc
        );
        if a.episode < self.episode {
            // Only the immediately previous episode can be re-requested: a
            // node blocked at episode e cannot have passed e, and e-1 is the
            // newest barrier anyone can have crossed.
            let last = self
                .last
                .as_ref()
                .expect("re-arrival with no completed episode");
            let (from, ep, done) = (a.proc, a.episode, last.episode);
            assert_eq!(
                ep, done,
                "arrival of episode {ep} from {from} after episode {done} completed"
            );
            // The restart's re-arrival. The receiver skips every notice its
            // arrival clock covers, so restricting by the re-arrival's
            // clock loses nothing.
            return ArriveOutcome::Resend {
                proc: a.proc,
                episode: last.episode,
                vt: last.vt.clone(),
                wns: last.all_wns.restrict_to_missing(&a.vt),
            };
        }
        assert_eq!(a.episode, self.episode, "arrival from the future");
        self.arrivals.entry(a.proc).or_insert(a);
        if self.arrivals.len() < self.n {
            return ArriveOutcome::Pending;
        }
        // Everyone is here: join the timestamps and put the own notices side
        // by side (no two arrivals name the same interval).
        let mut vt = VectorClock::zero(self.arrivals[&0].vt.len());
        let mut arrival_vts = Vec::with_capacity(self.n);
        let mut all_wns = Vec::new();
        for p in 0..self.n {
            let a = self.arrivals.remove(&p).expect("every node arrived");
            vt.join(&a.vt);
            arrival_vts.push(a.vt);
            all_wns.extend(a.own_wns);
        }
        let all_wns = WnDelta::from(all_wns);
        let per_proc_wns = arrival_vts
            .iter()
            .map(|have| all_wns.restrict_to_missing(have))
            .collect();
        let release = ReleaseSet {
            episode: self.episode,
            vt: vt.clone(),
            per_proc_wns,
        };
        self.last = Some(CompletedEpisode {
            episode: self.episode,
            vt,
            all_wns,
        });
        self.episode += 1;
        ArriveOutcome::Complete(release)
    }

    /// Restore the manager's episode counter and last completed episode —
    /// its joined timestamp and write notices — from logged records
    /// (manager recovery). The notices may be a conservative superset of the
    /// episode's: a resend lists only those the re-arrival's clock lacks,
    /// and receivers skip notices their timestamp already covers.
    pub fn restore(&mut self, episode: u64, last: Option<(VectorClock, WnDelta)>) {
        self.episode = episode;
        self.arrivals.clear();
        self.last = last.map(|(vt, all_wns)| CompletedEpisode {
            episode: episode.saturating_sub(1),
            vt,
            all_wns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wn::WriteNotice;
    use dsm_page::{Interval, PageId};

    fn wn(p: ProcId, seq: u32, pages: &[u32]) -> WriteNotice {
        WriteNotice {
            interval: Interval { proc: p, seq },
            pages: pages.iter().map(|&x| PageId(x)).collect(),
        }
    }

    fn arrival(p: ProcId, ep: u64, vt: Vec<u32>, wns: Vec<WriteNotice>) -> Arrival {
        Arrival {
            proc: p,
            episode: ep,
            vt: VectorClock::from_vec(vt),
            own_wns: wns.into(),
        }
    }

    #[test]
    fn completes_when_all_arrive_and_joins_vts() {
        let mut b = BarrierManager::new(3);
        assert_eq!(
            b.arrive(arrival(0, 0, vec![1, 0, 0], vec![wn(0, 1, &[1])])),
            ArriveOutcome::Pending
        );
        assert_eq!(
            b.arrive(arrival(1, 0, vec![0, 2, 0], vec![wn(1, 2, &[2])])),
            ArriveOutcome::Pending
        );
        let out = b.arrive(arrival(2, 0, vec![0, 0, 3], vec![wn(2, 3, &[3])]));
        let ArriveOutcome::Complete(rel) = out else {
            panic!("expected completion")
        };
        assert_eq!(rel.episode, 0);
        assert_eq!(rel.vt.as_slice(), &[1, 2, 3]);
        // Node 0 is missing notices from 1 and 2 but not its own.
        let wns0: Vec<_> = rel.per_proc_wns[0]
            .iter()
            .map(|w| w.interval.proc)
            .collect();
        assert_eq!(wns0, vec![1, 2]);
        assert_eq!(b.current_episode(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "names another node's interval")]
    fn an_arrival_naming_another_nodes_interval_is_a_bug() {
        let mut b = BarrierManager::new(2);
        b.arrive(arrival(1, 0, vec![1, 1], vec![wn(0, 1, &[4])]));
    }

    #[test]
    fn duplicate_arrival_is_idempotent() {
        let mut b = BarrierManager::new(2);
        assert_eq!(
            b.arrive(arrival(0, 0, vec![1, 0], vec![])),
            ArriveOutcome::Pending
        );
        assert_eq!(
            b.arrive(arrival(0, 0, vec![9, 9], vec![])),
            ArriveOutcome::Pending
        );
        let out = b.arrive(arrival(1, 0, vec![0, 1], vec![]));
        let ArriveOutcome::Complete(rel) = out else {
            panic!()
        };
        // First arrival wins: vt from the duplicate was ignored.
        assert_eq!(rel.vt.as_slice(), &[1, 1]);
    }

    #[test]
    fn rearrival_for_last_episode_resends_release() {
        let mut b = BarrierManager::new(2);
        b.arrive(arrival(0, 0, vec![1, 0], vec![wn(0, 1, &[4])]));
        let ArriveOutcome::Complete(_) = b.arrive(arrival(1, 0, vec![0, 1], vec![])) else {
            panic!()
        };
        // Node 1 crashed before receiving the release and re-arrives.
        let out = b.arrive(arrival(1, 0, vec![0, 1], vec![]));
        let ArriveOutcome::Resend {
            proc,
            episode,
            vt,
            wns,
        } = out
        else {
            panic!("expected resend")
        };
        assert_eq!((proc, episode), (1, 0));
        assert_eq!(vt.as_slice(), &[1, 1]);
        assert_eq!(wns.len(), 1);
        // The current episode is still open for new arrivals.
        assert_eq!(
            b.arrive(arrival(0, 1, vec![2, 1], vec![])),
            ArriveOutcome::Pending
        );
    }

    #[test]
    #[should_panic(expected = "arrival of episode 0 from 1 after episode 1 completed")]
    fn an_arrival_older_than_the_last_completed_episode_is_a_bug() {
        let mut b = BarrierManager::new(2);
        for ep in 0..2 {
            b.arrive(arrival(0, ep, vec![ep as u32 + 1, 0], vec![]));
            b.arrive(arrival(1, ep, vec![0, ep as u32 + 1], vec![]));
        }
        b.arrive(arrival(1, 0, vec![0, 1], vec![]));
    }

    #[test]
    fn a_resend_after_a_restore_lists_only_what_the_rearrival_lacks() {
        // A restored manager knows episode 0's joined clock and a superset
        // of its notices: node 0's intervals 1 and 2, node 2's 1.
        let mut b = BarrierManager::new(3);
        let all = vec![wn(0, 1, &[4]), wn(0, 2, &[5]), wn(2, 1, &[6])];
        b.restore(1, Some((VectorClock::from_vec(vec![2, 3, 1]), all.into())));
        // Node 1 re-arrives having seen node 0's interval 1.
        let out = b.arrive(arrival(1, 0, vec![1, 3, 0], vec![]));
        let ArriveOutcome::Resend { proc, wns, .. } = out else {
            panic!("expected resend")
        };
        let listed: Vec<_> = wns.iter().map(|w| w.interval).collect();
        let lacks = [Interval { proc: 0, seq: 2 }, Interval { proc: 2, seq: 1 }];
        assert_eq!((proc, listed), (1, lacks.to_vec()));
    }

    #[test]
    #[should_panic(expected = "future")]
    fn arrival_from_the_future_panics() {
        let mut b = BarrierManager::new(2);
        b.arrive(arrival(0, 5, vec![0, 0], vec![]));
    }
}
