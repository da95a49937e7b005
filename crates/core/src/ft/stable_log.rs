//! The stable half of the notice and diff logs: each checkpoint's log
//! segment `(Log, seq)` on the node's [`StableStore`] — the [`LogBounds`]
//! record of what the trims kept, then the entries no earlier save wrote —
//! and [`StableLog`], which knows where each segment's entries sit
//! ([`SegmentSpan`]), deletes a segment once nothing in it is kept, and
//! reads saved entries back in place when a recovery asks for them.
//! [`VolatileLogs`] writes the segments ([`VolatileLogs::save`]) and keeps
//! only the entries no published segment holds.

use std::ops::Range;

use dsm_page::PageId;
use dsm_storage::{ByteReader, ByteWriter, CodecError, SegmentKind, StableStore};

use super::logs::{Logged, VolatileLogs, WnLogEntry};
use crate::wire::Wire;

/// What a checkpoint's trims kept of the notice and diff logs. Trims drop
/// only prefixes, so every entry logged before that checkpoint is kept
/// exactly when its seq is at or past its bound.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogBounds {
    /// The first kept own notice's seq.
    pub(super) wn_from: u32,
    /// Per page with a kept diff, in page order, its first kept diff's
    /// seq. A page not listed kept none.
    pub(super) diffs_from: Vec<(PageId, u32)>,
}

impl LogBounds {
    /// The first kept seq of `page`'s diffs, if any is kept.
    pub(super) fn diff_from(&self, page: PageId) -> Option<u32> {
        let at = self.diffs_from.binary_search_by_key(&page, |&(p, _)| p);
        at.ok().map(|i| self.diffs_from[i].1)
    }
}

/// A bounds record: the notice bound, then the page count and per page its
/// id and bound, all varints.
pub(super) fn put_bounds(w: &mut ByteWriter, b: &LogBounds) {
    b.wn_from.put(w);
    b.diffs_from.put(w);
}

pub(super) fn get_bounds(r: &mut ByteReader) -> Result<LogBounds, CodecError> {
    let wn_from = u32::get(r)?;
    let diffs_from = Vec::<(PageId, u32)>::get(r)?;
    if !diffs_from.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(CodecError::Invalid {
            context: "bound order",
        });
    }
    Ok(LogBounds {
        wn_from,
        diffs_from,
    })
}

/// Write `entries` as a count and the entries, adding their bytes to
/// `entry_bytes`. Returns where they went, when there is one.
pub(super) fn put_section<T: Logged>(
    w: &mut ByteWriter,
    entries: &[T],
    entry_bytes: &mut u64,
) -> Option<Section> {
    let start = w.len();
    w.put_varint(entries.len() as u64);
    let body = w.len();
    entries.iter().for_each(|e| e.put(w));
    *entry_bytes += (w.len() - body) as u64;
    entries.last().map(|last| Section {
        newest: last.seq(),
        at: start as u32..w.len() as u32,
    })
}

/// Where one log's entries sit in a segment: the byte range of their count
/// and entries, and the newest entry's seq.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Section {
    pub(super) newest: u32,
    pub(super) at: Range<u32>,
}

/// What GC and a read need of a segment: where its notices sit and, per
/// page it holds diffs of, in page order, where those sit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentSpan {
    pub(super) wn: Option<Section>,
    pub(super) diffs: Vec<(PageId, Section)>,
}

impl SegmentSpan {
    /// Is any entry of the segment kept under `bounds`?
    fn live_under(&self, bounds: &LogBounds) -> bool {
        self.wn.as_ref().is_some_and(|s| s.newest >= bounds.wn_from)
            || (self.diffs.iter())
                .any(|(p, s)| bounds.diff_from(*p).is_some_and(|from| s.newest >= from))
    }

    /// Where `page`'s diffs sit — with `None`, the notices — if the
    /// segment holds any.
    fn section(&self, page: Option<PageId>) -> Option<&Section> {
        let Some(page) = page else {
            return self.wn.as_ref();
        };
        let at = self.diffs.binary_search_by_key(&page, |(p, _)| *p);
        at.ok().map(|i| &self.diffs[i].1)
    }
}

/// One checkpoint's log save ([`VolatileLogs::save`]).
#[derive(Debug, PartialEq)]
pub struct LogSave {
    /// The segment's bytes.
    pub bytes: Vec<u8>,
    /// What the trims kept, the record the segment starts with.
    pub bounds: LogBounds,
    /// The segment's span, for GC.
    pub span: SegmentSpan,
    /// Bytes of the entries the segment saves (Table 4's "saved logs").
    pub entry_bytes: u64,
}

/// A node's stable log: the live segments `(Log, id)`, oldest first, each
/// with its span. Segments are only appended and deleted, never rewritten.
#[derive(Debug, Default, PartialEq)]
pub struct StableLog {
    live: Vec<(u64, SegmentSpan)>,
}

impl StableLog {
    /// Write checkpoint `id`'s segment — before the checkpoint's blob, so a
    /// checkpoint torn between the two leaves a segment no restart reads.
    pub fn append(&mut self, store: &StableStore, id: u64, bytes: Vec<u8>, span: SegmentSpan) {
        self.live.push((id, span));
        store.write_segment(SegmentKind::Log, id, bytes);
    }

    /// Once the newest checkpoint's blob is written, delete every older
    /// segment none of whose entries its `bounds` keep. Bounds only rise,
    /// so no later save or restart needs what goes.
    pub fn collect(&mut self, store: &StableStore, bounds: &LogBounds) {
        let newest = self.live.len().saturating_sub(1);
        let mut k = 0;
        self.live.retain(|(id, span)| {
            let keep = k == newest || span.live_under(bounds);
            if !keep {
                store.delete_segment(SegmentKind::Log, *id);
            }
            k += 1;
            keep
        });
    }

    /// A restart from the checkpoint `seq` whose own interval seq is
    /// `through`: `logs` are restored from the live segments up to `seq`
    /// ([`VolatileLogs::restore`]), read in place. A segment past `seq` was
    /// written by a checkpoint whose blob never was; it is deleted unread.
    /// Returns the kept notices.
    pub fn restore(
        &mut self,
        store: &StableStore,
        logs: &mut VolatileLogs,
        seq: u64,
        through: u32,
    ) -> Result<Vec<WnLogEntry>, CodecError> {
        let (ids, torn): (Vec<u64>, Vec<u64>) =
            (store.segment_ids(SegmentKind::Log).into_iter()).partition(|&id| id <= seq);
        torn.into_iter().for_each(|id| {
            store.delete_segment(SegmentKind::Log, id);
        });
        let disk = store.read();
        let segment = |&id| {
            disk.segment(SegmentKind::Log, id)
                .expect("a listed segment")
        };
        let (spans, wn) = logs.restore(ids.iter().map(segment), through)?;
        self.live = ids.into_iter().zip(spans).collect();
        Ok(wn)
    }

    /// The saved entries of one log — `page`'s diffs, or with `None` the
    /// notices — at or past seq `from`, read in place from the log's byte
    /// range in each live segment that holds any: never a whole segment.
    pub(super) fn read<T: Logged>(
        &self,
        store: &StableStore,
        page: Option<PageId>,
        from: u32,
    ) -> Vec<T> {
        let disk = store.read();
        let mut entries = Vec::new();
        for (id, span) in &self.live {
            let Some(Section { newest, at }) = span.section(page) else {
                continue;
            };
            if *newest < from {
                continue;
            }
            let bytes = disk.segment(SegmentKind::Log, *id).expect("a live segment");
            let mut r = ByteReader::new(&bytes[at.start as usize..at.end as usize]);
            let saved = Vec::<T>::get(&mut r).expect("corrupt saved log");
            entries.extend(saved.into_iter().filter(|e| e.seq() >= from));
        }
        entries
    }
}
