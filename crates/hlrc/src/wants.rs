//! The want table: which peers reported using which pages homed here, and
//! what each copy is exactly — what [`crate::HomeStore::push`] answers a
//! grant or release to the peer with.
//!
//! A peer's barrier arrival reports the copies of node 0's pages it used
//! since its last one; node 0's own report of the other homes' pages
//! reaches each home on its barrier release. Each becomes a [`Want`], based
//! on the reported copy. A push — on a grant or release from node 0, on a
//! grant or barrier arrival to node 0 from another home — answers it as
//! a fetch naming that copy would be answered, and leaves the want based on
//! the pushed copy — what the peer keeps once it installs the push — so a
//! page the peer skips for one epoch rides the next grant or release again.
//! The second push with no report in between ends the want. A new report
//! re-arms it; the peer's own fetch of the page and a restart of either end
//! remove it. A push whose base the peer no longer keeps is refused there
//! and fetched as if nothing had come, so the rule changes which pages
//! travel unasked, never what is installed.

use std::sync::atomic::{AtomicUsize, Ordering};

use dsm_page::ProcId;

use crate::homestore::Have;

/// One peer's want of one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Want {
    /// What the peer's copy is exactly: the base of the next push.
    have: Have,
    /// Was a push built on it since the peer last reported the page?
    pushed: bool,
}

impl Want {
    /// The want a report of a copy that is exactly `have` arms.
    fn reported(have: Have) -> Self {
        Want {
            have,
            pushed: false,
        }
    }

    /// A diff of the peer's own, interval `seq` of `writer`, is in its copy.
    fn own_diff(&mut self, writer: ProcId, seq: u32) {
        self.have.1.set(writer, seq);
    }

    /// A push was built on the want. It lives on, based on `kept` — what
    /// the peer keeps once it installs the push; `None` when the pushed copy
    /// is no known version — unless this was the second push since the
    /// report. Returns whether it lives on.
    fn push(&mut self, kept: Option<Have>) -> bool {
        match kept {
            Some(have) if !self.pushed => {
                *self = Want { have, pushed: true };
                true
            }
            _ => false,
        }
    }
}

/// The wants of one homed page, at most one per peer.
#[derive(Debug, Default)]
pub(crate) struct Wants(Vec<(ProcId, Want)>);

impl Wants {
    fn position(&self, peer: ProcId) -> Option<usize> {
        self.0.iter().position(|(p, _)| *p == peer)
    }

    /// What `peer`'s copy is exactly, if `peer` wants the page.
    pub(crate) fn of(&self, peer: ProcId) -> Option<&Have> {
        self.0
            .iter()
            .find(|(p, _)| *p == peer)
            .map(|(_, w)| &w.have)
    }

    /// Interval `seq` of `writer` was applied to the home copy: a writer
    /// that wants the page holds its own diff.
    pub(crate) fn own_diff(&mut self, writer: ProcId, seq: u32) {
        if let Some((_, w)) = self.0.iter_mut().find(|(p, _)| *p == writer) {
            w.own_diff(writer, seq);
        }
    }
}

/// Per peer, how many pages it wants: a grant or release to a peer that
/// wants none looks up no page. Every change to a page's [`Wants`] goes
/// through here, so the counts never drift from the lists.
#[derive(Debug)]
pub(crate) struct Wanted(Vec<AtomicUsize>);

impl Wanted {
    /// No peer of an `n`-node cluster wants anything.
    pub(crate) fn new(n: usize) -> Self {
        Wanted((0..n).map(|_| AtomicUsize::new(0)).collect())
    }

    /// Does `peer` want any page?
    pub(crate) fn any(&self, peer: ProcId) -> bool {
        self.0
            .get(peer)
            .is_some_and(|w| w.load(Ordering::Relaxed) > 0)
    }

    /// `peer` reported using its copy of the page, which is exactly `have`:
    /// the want is armed again, whatever was pushed before.
    pub(crate) fn report(&self, wants: &mut Wants, peer: ProcId, have: Have) {
        match wants.position(peer) {
            Some(i) => wants.0[i].1 = Want::reported(have),
            None => {
                wants.0.push((peer, Want::reported(have)));
                self.0[peer].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `peer` asked for the page, or restarted: its copy is no base any more.
    /// Returns whether `peer` wanted the page.
    pub(crate) fn forget(&self, wants: &mut Wants, peer: ProcId) -> bool {
        let Some(i) = wants.position(peer) else {
            return false;
        };
        wants.0.swap_remove(i);
        self.0[peer].fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// A push to `peer` was built on its want; see [`Want::push`].
    pub(crate) fn pushed(&self, wants: &mut Wants, peer: ProcId, kept: Option<Have>) {
        let Some(i) = wants.position(peer) else {
            return;
        };
        if !wants.0[i].1.push(kept) {
            self.forget(wants, peer);
        }
    }

    /// Every want is gone (this home restarted; the caller clears the
    /// pages' lists).
    pub(crate) fn clear(&self) {
        self.0.iter().for_each(|w| w.store(0, Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_page::VectorClock;

    fn have(inc: u32, v: [u32; 2]) -> Have {
        (inc, VectorClock::from_vec(v.to_vec()))
    }

    /// The lifecycle of one want: a report arms it, the first push rebases
    /// it on the pushed copy, a second push with no report in between ends
    /// it, a report re-arms it, and a push of no known version ends it.
    #[test]
    fn a_want_outlives_one_push_and_a_report_rearms_it() {
        let mut want = Want::reported(have(1, [0, 0]));
        assert!(want.push(Some(have(1, [3, 0]))));
        assert_eq!(
            want,
            Want {
                have: have(1, [3, 0]),
                pushed: true
            }
        );
        // A diff of the peer's own goes into the base, pushed or not.
        want.own_diff(1, 2);
        assert_eq!(want.have, have(1, [3, 2]));
        assert!(!want.clone().push(Some(have(1, [4, 0]))), "second push");
        let mut want = Want::reported(have(1, [3, 2]));
        assert!(want.push(Some(have(1, [4, 2]))), "re-armed");
        let mut want = Want::reported(have(1, [0, 0]));
        assert!(!want.push(None), "no base to rebase on");
    }

    #[test]
    fn the_counts_follow_reports_pushes_and_forgets() {
        let wanted = Wanted::new(2);
        let mut wants = Wants::default();
        assert!(!wanted.any(1));
        wanted.report(&mut wants, 1, have(1, [0, 0]));
        wanted.report(&mut wants, 1, have(1, [1, 0])); // replaces, one want
        assert_eq!((wants.0.len(), wanted.any(1)), (1, true));
        wanted.pushed(&mut wants, 1, Some(have(1, [2, 0])));
        assert_eq!(wants.of(1), Some(&have(1, [2, 0])));
        // Reported between two pushes: the second rebases it again.
        wanted.report(&mut wants, 1, have(1, [2, 0]));
        wanted.pushed(&mut wants, 1, Some(have(1, [3, 0])));
        assert_eq!(wants.of(1), Some(&have(1, [3, 0])));
        wanted.pushed(&mut wants, 1, Some(have(1, [4, 0])));
        assert!(wants.of(1).is_none() && !wanted.any(1));
        wanted.pushed(&mut wants, 1, None); // nothing wanted: no-op
        wanted.report(&mut wants, 0, have(1, [0, 0]));
        assert!(wanted.forget(&mut wants, 0));
        assert!(!wanted.forget(&mut wants, 0));
        assert!(!wanted.any(0));
    }
}
