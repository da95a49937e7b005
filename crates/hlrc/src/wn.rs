//! Write notices and the write-notice table.
//!
//! A *write notice* announces that a process wrote a set of pages during one
//! of its intervals. Notices travel as a [`WnDelta`] on lock grants, barrier
//! arrivals and barrier releases; a receiving node invalidates its cached
//! copies of the named pages.
//!
//! The [`WnTable`] stores every notice a node has learned (its own and
//! foreign). LRC invariant: a node's table covers its vector timestamp, so
//! when it grants a lock it can supply the notices the acquirer is missing,
//! and when it arrives at a barrier, its own notices since its last arrival.

use std::collections::HashMap;

use dsm_page::{Interval, PageId, ProcId, VectorClock};

/// The pages one process wrote during one interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteNotice {
    /// The writer's interval.
    pub interval: Interval,
    /// Pages written in that interval (sorted, deduplicated).
    pub pages: Vec<PageId>,
}

/// A list of write notices: what a lock grant, a barrier arrival and a
/// barrier release carry, one layout on the wire for all three. A list is
/// always *relative to some vector clock* the receiver is known to cover
/// (its acquire timestamp, its last barrier arrival): it carries only
/// intervals past that clock, and receivers skip any notice their current
/// timestamp already covers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WnDelta(Vec<WriteNotice>);

impl WnDelta {
    /// A list with no notices.
    pub fn empty() -> Self {
        WnDelta(Vec::new())
    }

    /// The notices `have` does not cover (cloned).
    pub fn restrict_to_missing(&self, have: &VectorClock) -> WnDelta {
        let missing = self.iter().filter(|w| !have.covers_interval(w.interval));
        missing.cloned().collect()
    }

    /// The notices, in list order.
    pub fn iter(&self) -> std::slice::Iter<'_, WriteNotice> {
        self.0.iter()
    }

    /// Number of notices.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the list carries no notices.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<Vec<WriteNotice>> for WnDelta {
    fn from(wns: Vec<WriteNotice>) -> Self {
        WnDelta(wns)
    }
}

impl FromIterator<WriteNotice> for WnDelta {
    fn from_iter<I: IntoIterator<Item = WriteNotice>>(iter: I) -> Self {
        WnDelta(iter.into_iter().collect())
    }
}

impl IntoIterator for WnDelta {
    type Item = WriteNotice;
    type IntoIter = std::vec::IntoIter<WriteNotice>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// All write notices known to a node, keyed by interval.
#[derive(Debug, Default, Clone)]
pub struct WnTable {
    map: HashMap<(ProcId, u32), Vec<PageId>>,
}

impl WnTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a notice. Re-insertions (a notice recovery hands over again)
    /// are idempotent.
    pub fn insert(&mut self, wn: WriteNotice) {
        self.map
            .entry((wn.interval.proc, wn.interval.seq))
            .or_insert(wn.pages);
    }

    /// Record a notice from parts.
    pub fn insert_parts(&mut self, interval: Interval, pages: Vec<PageId>) {
        self.insert(WriteNotice { interval, pages });
    }

    /// Pages written in `interval`, or `None` when the table has no notice
    /// for it: the interval is unknown, was trimmed, or wrote nothing (the
    /// protocol never inserts an empty notice).
    pub fn get(&self, interval: Interval) -> Option<&[PageId]> {
        self.map
            .get(&(interval.proc, interval.seq))
            .map(|v| v.as_slice())
    }

    /// Number of stored notices.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no notices are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The notices for every interval in `(from, to]` (elementwise) that has
    /// an entry, in interval order — what a granter sends to an acquirer
    /// with timestamp `from` when its own timestamp is `to`, and what a node
    /// arriving at a barrier sends of its own intervals. Intervals without
    /// writes simply have no notice.
    pub fn missing_between(&self, from: &VectorClock, to: &VectorClock) -> WnDelta {
        from.missing_from(to)
            .into_iter()
            .filter_map(|iv| {
                self.get(iv).map(|pages| WriteNotice {
                    interval: iv,
                    pages: pages.to_vec(),
                })
            })
            .collect()
    }

    /// Drop notices for intervals covered by `bound` (elementwise): used
    /// when every process is known to have advanced past them. Returns the
    /// number of dropped notices.
    pub fn trim_covered_by(&mut self, bound: &VectorClock) -> usize {
        let before = self.map.len();
        self.map.retain(|(p, seq), _| *seq > bound.get(*p));
        before - self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(p: ProcId, s: u32) -> Interval {
        Interval { proc: p, seq: s }
    }

    #[test]
    fn insert_and_get() {
        let mut t = WnTable::new();
        t.insert_parts(iv(1, 3), vec![PageId(5), PageId(9)]);
        assert_eq!(t.get(iv(1, 3)), Some(&[PageId(5), PageId(9)][..]));
        assert_eq!(t.get(iv(1, 4)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut t = WnTable::new();
        t.insert_parts(iv(0, 1), vec![PageId(1)]);
        t.insert_parts(iv(0, 1), vec![PageId(2)]); // retransmission: ignored
        assert_eq!(t.get(iv(0, 1)), Some(&[PageId(1)][..]));
    }

    #[test]
    fn missing_between_selects_gap_with_entries() {
        let mut t = WnTable::new();
        t.insert_parts(iv(0, 2), vec![PageId(1)]);
        t.insert_parts(iv(0, 3), vec![PageId(2)]);
        t.insert_parts(iv(1, 1), vec![PageId(3)]);
        // interval (0,1) exists logically but had no writes: no entry.
        let from = VectorClock::from_vec(vec![1, 0]);
        let to = VectorClock::from_vec(vec![3, 1]);
        let missing = t.missing_between(&from, &to);
        let ivs: Vec<_> = missing.iter().map(|w| w.interval).collect();
        assert_eq!(ivs, [iv(0, 2), iv(0, 3), iv(1, 1)]);
    }

    #[test]
    fn trim_drops_only_covered() {
        let mut t = WnTable::new();
        t.insert_parts(iv(0, 1), vec![PageId(1)]);
        t.insert_parts(iv(0, 5), vec![PageId(1)]);
        t.insert_parts(iv(1, 2), vec![PageId(2)]);
        let dropped = t.trim_covered_by(&VectorClock::from_vec(vec![3, 2]));
        assert_eq!(dropped, 2);
        assert!(t.get(iv(0, 5)).is_some());
        assert!(t.get(iv(0, 1)).is_none());
        assert!(t.get(iv(1, 2)).is_none());
    }

    fn notice(p: ProcId, s: u32, pages: &[u32]) -> WriteNotice {
        WriteNotice {
            interval: iv(p, s),
            pages: pages.iter().map(|&x| PageId(x)).collect(),
        }
    }

    #[test]
    fn restrict_to_missing_keeps_the_notices_the_clock_lacks_in_order() {
        let d = WnDelta::from(vec![
            notice(0, 1, &[1]),
            notice(0, 2, &[2]),
            notice(1, 2, &[3]),
        ]);
        assert_eq!(d.len(), 3);
        // A clock covering (0,1) but neither (0,2) nor (1,2).
        let have = VectorClock::from_vec(vec![1, 1]);
        let m = d.restrict_to_missing(&have);
        assert_eq!(
            m,
            WnDelta::from(vec![notice(0, 2, &[2]), notice(1, 2, &[3])])
        );
        let all = VectorClock::from_vec(vec![2, 2]);
        assert!(d.restrict_to_missing(&all).is_empty());
        assert!(WnDelta::empty().is_empty());
    }
}
