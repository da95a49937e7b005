//! Write notices and the write-notice table.
//!
//! A *write notice* announces that a process wrote a set of pages during one
//! of its intervals. Notices travel on lock grants and barrier releases; a
//! receiving node invalidates its cached copies of the named pages.
//!
//! The [`WnTable`] stores every notice a node has learned (its own and
//! foreign). LRC invariant: a node's table covers its vector timestamp, so
//! when it grants a lock it can supply the notices the acquirer is missing.

use std::collections::HashMap;
use std::sync::Arc;

use dsm_page::{Interval, PageId, ProcId, VectorClock};

/// The pages one process wrote during one interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteNotice {
    /// The writer's interval.
    pub interval: Interval,
    /// Pages written in that interval (sorted, deduplicated).
    pub pages: Vec<PageId>,
}

impl WriteNotice {
    /// Encoded size in bytes (interval: 8, count: 4, page ids: 4 each).
    pub fn wire_size(&self) -> usize {
        12 + 4 * self.pages.len()
    }
}

/// One interval's span into a [`WnDelta`] page arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WnSpan {
    /// The writer's interval.
    pub interval: Interval,
    start: u32,
    len: u32,
}

impl WnSpan {
    /// A span covering `arena[start..start + len]`.
    pub fn new(interval: Interval, start: u32, len: u32) -> Self {
        WnSpan {
            interval,
            start,
            len,
        }
    }
}

/// Interval-delta encoded write notices: the page ids of every notice live
/// in one shared arena (`Arc<[PageId]>`) with per-interval spans indexing
/// into it. A delta is always *relative to some vector clock* the receiver
/// is known to cover (its last barrier arrival, its acquire timestamp): it
/// carries only intervals past that clock, and receivers skip any span
/// their current timestamp already covers.
///
/// Cloning a delta — or deriving a per-receiver subset with
/// [`WnDelta::restrict_to_missing`] — bumps the arena refcount instead of
/// copying page ids, so the barrier manager fans one episode's notices out
/// to `n` participants with a single page-id allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WnDelta {
    pages: Arc<[PageId]>,
    spans: Vec<WnSpan>,
}

impl Default for WnDelta {
    fn default() -> Self {
        WnDelta::empty()
    }
}

impl WnDelta {
    /// A delta with no notices.
    pub fn empty() -> Self {
        WnDelta {
            pages: Arc::from(&[][..]),
            spans: Vec::new(),
        }
    }

    /// Assemble a delta from a prebuilt arena and spans (the barrier
    /// manager's scratch-arena path).
    pub fn from_arena(pages: Arc<[PageId]>, spans: Vec<WnSpan>) -> Self {
        debug_assert!(spans
            .iter()
            .all(|s| (s.start + s.len) as usize <= pages.len()));
        WnDelta { pages, spans }
    }

    /// Encode a slice of classic write notices (one arena copy).
    pub fn from_notices(wns: &[WriteNotice]) -> Self {
        let mut pages: Vec<PageId> = Vec::with_capacity(wns.iter().map(|w| w.pages.len()).sum());
        let mut spans = Vec::with_capacity(wns.len());
        for wn in wns {
            let start = pages.len() as u32;
            pages.extend_from_slice(&wn.pages);
            spans.push(WnSpan::new(wn.interval, start, wn.pages.len() as u32));
        }
        WnDelta {
            pages: pages.into(),
            spans,
        }
    }

    /// The subset of notices `have` does not cover, sharing this delta's
    /// arena (no page ids are copied).
    pub fn restrict_to_missing(&self, have: &VectorClock) -> WnDelta {
        WnDelta {
            pages: Arc::clone(&self.pages),
            spans: self
                .spans
                .iter()
                .filter(|s| !have.covers_interval(s.interval))
                .copied()
                .collect(),
        }
    }

    /// `(interval, pages)` per notice, in span order.
    pub fn iter(&self) -> impl Iterator<Item = (Interval, &[PageId])> {
        self.spans.iter().map(move |s| {
            (
                s.interval,
                &self.pages[s.start as usize..(s.start + s.len) as usize],
            )
        })
    }

    /// Decode into classic write notices (copies page ids).
    pub fn to_notices(&self) -> Vec<WriteNotice> {
        self.iter()
            .map(|(interval, pages)| WriteNotice {
                interval,
                pages: pages.to_vec(),
            })
            .collect()
    }

    /// Number of notices (spans).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the delta carries no notices.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The shared page arena (exposed so tests can assert fan-out subsets
    /// really share it).
    pub fn arena(&self) -> &Arc<[PageId]> {
        &self.pages
    }

    /// Encoded size in bytes: span count (4), then per span interval (8),
    /// page count (4) and page ids (4 each) — the same layout a
    /// `Vec<WriteNotice>` would encode to, plus the count word.
    pub fn wire_size(&self) -> usize {
        4 + self
            .spans
            .iter()
            .map(|s| 12 + 4 * s.len as usize)
            .sum::<usize>()
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

    /// Record a notice. Re-insertions (retransmissions during recovery) are
    /// idempotent.
    pub fn insert(&mut self, wn: WriteNotice) {
        self.map
            .entry((wn.interval.proc, wn.interval.seq))
            .or_insert(wn.pages);
    }

    /// Record a notice from parts.
    pub fn insert_parts(&mut self, interval: Interval, pages: Vec<PageId>) {
        self.insert(WriteNotice { interval, pages });
    }

    /// Pages written in `interval`, if known. An interval with no writes has
    /// no entry; both "unknown" and "empty" return `None`/`Some(&[])`
    /// respectively only if inserted that way — the protocol never inserts
    /// empty notices.
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
    /// an entry — what a granter sends to an acquirer with timestamp `from`
    /// when its own timestamp is `to`. Intervals without writes simply have
    /// no notice.
    pub fn missing_between(&self, from: &VectorClock, to: &VectorClock) -> Vec<WriteNotice> {
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
        assert_eq!(missing.len(), 3);
        assert_eq!(missing[0].interval, iv(0, 2));
        assert_eq!(missing[1].interval, iv(0, 3));
        assert_eq!(missing[2].interval, iv(1, 1));
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

    #[test]
    fn wire_size_matches_layout() {
        let wn = WriteNotice {
            interval: iv(0, 1),
            pages: vec![PageId(1), PageId(2)],
        };
        assert_eq!(wn.wire_size(), 12 + 8);
    }

    fn notice(p: ProcId, s: u32, pages: &[u32]) -> WriteNotice {
        WriteNotice {
            interval: iv(p, s),
            pages: pages.iter().map(|&x| PageId(x)).collect(),
        }
    }

    #[test]
    fn delta_roundtrips_through_notices() {
        let wns = vec![notice(0, 1, &[1, 2]), notice(1, 3, &[7]), notice(2, 2, &[])];
        let d = WnDelta::from_notices(&wns);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.to_notices(), wns);
        let got: Vec<_> = d.iter().map(|(i, p)| (i, p.to_vec())).collect();
        assert_eq!(got[0], (iv(0, 1), vec![PageId(1), PageId(2)]));
        assert!(WnDelta::empty().is_empty());
    }

    #[test]
    fn restrict_to_missing_filters_spans_and_shares_the_arena() {
        let d =
            WnDelta::from_notices(&[notice(0, 1, &[1]), notice(0, 2, &[2]), notice(1, 1, &[3])]);
        // A clock covering (0,1) and (1,1) but not (0,2).
        let have = VectorClock::from_vec(vec![1, 1]);
        let m = d.restrict_to_missing(&have);
        assert_eq!(m.to_notices(), vec![notice(0, 2, &[2])]);
        assert!(Arc::ptr_eq(m.arena(), d.arena()));
    }

    #[test]
    fn delta_wire_size_matches_notice_layout() {
        let wns = vec![notice(0, 1, &[1, 2]), notice(1, 3, &[7])];
        let d = WnDelta::from_notices(&wns);
        let per_notice: usize = wns.iter().map(|w| w.wire_size()).sum();
        assert_eq!(d.wire_size(), 4 + per_notice);
    }
}
