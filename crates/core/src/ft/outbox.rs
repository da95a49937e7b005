//! The retry layer's stop-and-wait diff outbox.
//!
//! With the retry layer on, a flushed diff batch is kept until its home
//! acknowledges it, and at most one batch per home is unacknowledged at any
//! time. That keeps first-delivery order under loss and reordering: the
//! home's per-writer version gate makes *re*-delivery idempotent, but it
//! would silently discard an older batch arriving after a newer one.
//! [`DiffOutbox`] owns that invariant — callers only put what it hands
//! them on the wire. Unused (empty) when the retry layer is off.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_page::{Diff, IntervalSeq, PageId, ProcId, VectorClock};

/// One sequenced batch: `(stop-and-wait seq, the diffs)`.
pub(crate) type SeqBatch = (u64, Vec<Arc<Diff>>);

/// Per-home queues of unacknowledged diff batches, the front one in flight.
#[derive(Debug, PartialEq)]
pub(crate) struct DiffOutbox {
    queues: Vec<VecDeque<SeqBatch>>,
    /// Per home: when the front batch was last put on the wire (`None`: the
    /// queue is empty or its front has not been sent yet).
    sent_at: Vec<Option<Instant>>,
    /// Last sequence number issued (0 is reserved for the no-ack path). It
    /// keeps counting across incarnations, so an ack addressed to a
    /// previous one never matches.
    seq_next: u64,
    /// Per page: the interval seq of the last diff *we* published for it.
    /// Our own diff may still be queued here when we re-fetch the page, and
    /// a request's `needed` names only other writers' intervals besides
    /// this (the no-ack path gets the same guarantee from per-channel FIFO
    /// order).
    own_seq: HashMap<PageId, IntervalSeq>,
}

impl DiffOutbox {
    pub(crate) fn new(n: usize) -> Self {
        DiffOutbox {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            sent_at: vec![None; n],
            seq_next: 0,
            own_seq: HashMap::new(),
        }
    }

    /// Queue `batch` for `home` under the next sequence number. It goes out
    /// when [`DiffOutbox::start_next`] reaches it.
    pub(crate) fn push(&mut self, home: ProcId, batch: Vec<Arc<Diff>>) {
        self.seq_next += 1;
        for d in &batch {
            self.own_seq.insert(d.page, d.interval.seq);
        }
        self.queues[home].push_back((self.seq_next, batch));
    }

    /// The batch to transmit to `home` now, stamped in flight — `None` while
    /// one is still unacknowledged there (the next goes only after its ack)
    /// or nothing is queued.
    pub(crate) fn start_next(&mut self, home: ProcId) -> Option<SeqBatch> {
        if self.sent_at[home].is_some() {
            return None;
        }
        self.stamp_front(home)
    }

    /// The batch in flight to `home`, stamped again for a retransmission.
    pub(crate) fn resend(&mut self, home: ProcId) -> Option<SeqBatch> {
        self.sent_at[home]?;
        self.stamp_front(home)
    }

    fn stamp_front(&mut self, home: ProcId) -> Option<SeqBatch> {
        let front = self.queues[home].front()?.clone();
        self.sent_at[home] = Some(Instant::now());
        Some(front)
    }

    /// `home` acknowledged `seq`. `true` retires the in-flight batch;
    /// `false` is a duplicate ack of a retransmission, or an ack to a
    /// previous incarnation, and changes nothing.
    pub(crate) fn ack(&mut self, home: ProcId, seq: u64) -> bool {
        let in_flight = self.sent_at[home].is_some();
        if !in_flight || self.queues[home].front().map(|b| b.0) != Some(seq) {
            return false;
        }
        self.queues[home].pop_front();
        self.sent_at[home] = None;
        true
    }

    /// Homes whose in-flight batch has gone unacknowledged for `after`.
    pub(crate) fn stale(&self, after: Duration) -> Vec<ProcId> {
        (0..self.queues.len())
            .filter(|&h| self.sent_at[h].is_some_and(|t| t.elapsed() >= after))
            .collect()
    }

    /// Fail-stop: the queued batches are lost with everything else (replay
    /// regenerates the diffs, under new sequence numbers).
    pub(crate) fn clear(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.sent_at.fill(None);
        self.own_seq.clear();
    }

    /// Has every batch been acknowledged?
    pub(crate) fn drained(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Batches queued or in flight, over all homes.
    pub(crate) fn depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Raise `needed[me]` to our own last published diff of `page`, so the
    /// home cannot serve a copy that misses a write of ours still queued
    /// here.
    pub(crate) fn fold_needed(&self, me: ProcId, page: PageId, needed: &mut VectorClock) {
        if let Some(&seq) = self.own_seq.get(&page) {
            if seq > needed.get(me) {
                needed.set(me, seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_page::{Interval, Page};

    fn batch(page: u32, seq: u32) -> Vec<Arc<Diff>> {
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[seq as u8]);
        let iv = Interval { proc: 0, seq };
        vec![Arc::new(
            Diff::create(PageId(page), iv, &twin, &cur).unwrap(),
        )]
    }

    #[test]
    fn one_batch_in_flight_per_home_and_the_next_only_after_its_ack() {
        let mut o = DiffOutbox::new(3);
        o.push(1, batch(0, 1));
        o.push(1, batch(0, 2));
        o.push(2, batch(1, 2));
        let (first, _) = o.start_next(1).expect("idle home: head goes out");
        assert!(o.start_next(1).is_none(), "second batch must wait");
        // Homes are independent.
        let (other, _) = o.start_next(2).expect("home 2 is idle");
        assert_ne!(first, other);
        assert_eq!(o.depth(), 3);
        assert!(o.ack(1, first));
        let (second, diffs) = o.start_next(1).expect("ack frees the slot");
        assert!(second > first);
        assert_eq!(diffs[0].interval.seq, 2);
        assert!(o.ack(1, second) && o.ack(2, other));
        assert!(o.drained());
        assert!(o.start_next(1).is_none());
    }

    #[test]
    fn stale_and_duplicate_acks_change_nothing() {
        let mut o = DiffOutbox::new(2);
        o.push(1, batch(0, 1));
        // Queued but never sent: nothing to acknowledge yet.
        assert!(!o.ack(1, 1));
        let (seq, _) = o.start_next(1).unwrap();
        assert!(!o.ack(1, seq + 1), "ack of another seq");
        assert!(!o.ack(0, seq), "ack from another home");
        assert_eq!(o.depth(), 1);
        assert!(o.ack(1, seq));
        assert!(!o.ack(1, seq), "duplicate ack of a retransmission");
        assert!(o.drained());
    }

    #[test]
    fn retransmission_resends_the_same_batch_and_only_when_one_is_in_flight() {
        let mut o = DiffOutbox::new(2);
        assert!(o.resend(1).is_none());
        o.push(1, batch(0, 1));
        assert!(o.resend(1).is_none(), "queued, never sent");
        assert!(o.stale(Duration::ZERO).is_empty());
        let (seq, _) = o.start_next(1).unwrap();
        assert_eq!(o.stale(Duration::ZERO), [1]);
        assert!(o.stale(Duration::from_secs(3600)).is_empty());
        assert_eq!(o.resend(1).unwrap().0, seq);
    }

    #[test]
    fn clear_on_crash_drops_batches_but_keeps_counting() {
        let mut o = DiffOutbox::new(2);
        o.push(1, batch(0, 1));
        let (old, _) = o.start_next(1).unwrap();
        o.clear();
        // All that is left is where the count stands.
        let survivors = DiffOutbox {
            seq_next: old,
            ..DiffOutbox::new(2)
        };
        assert_eq!(o, survivors);
        assert!(o.drained() && o.resend(1).is_none());
        let mut needed = VectorClock::zero(2);
        o.fold_needed(0, PageId(0), &mut needed);
        assert_eq!(needed.get(0), 0, "own-diff floor is volatile");
        o.push(1, batch(0, 1));
        let (new, _) = o.start_next(1).unwrap();
        assert!(new > old, "a previous incarnation's ack must not match");
        assert!(!o.ack(1, old));
    }

    #[test]
    fn needed_floor_folds_our_own_last_seq() {
        let mut o = DiffOutbox::new(2);
        o.push(1, batch(4, 3));
        o.push(1, batch(4, 7));
        let mut needed = VectorClock::from_vec(vec![5, 9]);
        o.fold_needed(0, PageId(4), &mut needed);
        assert_eq!(needed.as_slice(), [7, 9], "raised to our last diff");
        o.fold_needed(0, PageId(5), &mut needed);
        assert_eq!(needed.as_slice(), [7, 9], "no diff of ours for page 5");
        let mut ahead = VectorClock::from_vec(vec![8, 0]);
        o.fold_needed(0, PageId(4), &mut ahead);
        assert_eq!(ahead.get(0), 8, "never lowered");
    }
}
