//! Volatile (in-memory) logs for sender-based logging.
//!
//! Per the paper (§4.2), every node logs:
//!
//! * `wn_log` — write notices it generates (its own intervals' page sets);
//! * `diff_log(p)` — every diff it creates, with the full vector timestamp
//!   of its creation (`diff.T`), including diffs for its own homed pages
//!   (which base HLRC never creates);
//! * `rel_log[j]` — grants it sent to process `j` (the acquirer's timestamp
//!   after the acquire, plus the request timestamp so a lost grant can be
//!   retransmitted byte-identically);
//! * `acq_log[j]` — the mirror of `j`'s `rel_log[me]`, restorable from one
//!   another; neither is ever written to stable storage;
//! * `bar` — per barrier episode its result timestamp, logged by the
//!   manager when it completes the episode and by every participant when it
//!   crosses it.
//!
//! Trimming implements Rules 1–3 plus the barrier analogue, and every trim
//! and append is byte-accounted for Table 4 / Figure 4.
//!
//! The notice and diff logs are saved to stable storage by appending: each
//! checkpoint writes one segment, `(Log, seq)`, of the entries logged since
//! the last save and the [`LogBounds`] of what the trims kept
//! ([`VolatileLogs::save`]); [`StableLog`] deletes a segment once nothing
//! in it is kept, and a restart merges the live ones
//! ([`VolatileLogs::restore`]).

use std::collections::HashMap;
use std::sync::Arc;

use dsm_page::{PageId, ProcId, VectorClock};
use dsm_storage::{ByteReader, ByteWriter, CodecError, SegmentKind, StableStore};
use hlrc::LockId;

use crate::msg::CkptStamp;
use crate::wire;

/// One own-interval write-notice record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WnLogEntry {
    /// The interval's sequence number at this node.
    pub seq: u32,
    /// Pages written in the interval.
    pub pages: Vec<PageId>,
}

impl WnLogEntry {
    /// Encoded size in bytes: what [`wire::put_wn_entry`] writes.
    pub fn wire_size(&self) -> usize {
        wire::len_of(|w| wire::put_wn_entry(w, self))
    }
}

/// One logged diff: the diff plus the creator's full timestamp at creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffLogEntry {
    /// The diff itself (carries the creating interval). Shared with the
    /// `DiffBatch` message that delivered the same interval — logging never
    /// copies run payloads, exactly as the paper's "reuse what the base
    /// protocol already produces" argument requires.
    pub diff: Arc<dsm_page::Diff>,
    /// `diff.T`: the writer's vector timestamp at the end of the creating
    /// interval. Orders diffs by happens-before during recovery replay.
    pub t: VectorClock,
}

impl DiffLogEntry {
    /// Encoded size in bytes: what [`wire::put_entry`] writes.
    pub fn wire_size(&self) -> usize {
        wire::len_of(|w| wire::put_entry(w, self))
    }
}

/// One grant record: lives in the granter's `rel_log[acquirer]` and,
/// mirrored, in the acquirer's `acq_log[granter]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelEntry {
    /// The acquirer's acquisition sequence number (replay key).
    pub acq_seq: u64,
    /// The lock acquired.
    pub lock: LockId,
    /// The manager-assigned grant generation (rebuilds lock chains after a
    /// manager crash).
    pub gen: u64,
    /// The acquirer's timestamp in the request (kept so a lost grant can be
    /// regenerated with the same write notices).
    pub req_vt: VectorClock,
    /// The acquirer's timestamp after the acquire completed.
    pub t_after: VectorClock,
}

/// One barrier episode: what a replay of its crossing joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarEntry {
    /// Episode number.
    pub episode: u64,
    /// The join of every arrival timestamp, the release's.
    pub result_vt: VectorClock,
}

/// Byte counters for Table 4 / Figure 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounters {
    /// Cumulative bytes ever appended to the volatile logs.
    pub created_bytes: u64,
    /// Cumulative bytes dropped by trimming.
    pub discarded_bytes: u64,
}

/// All volatile logs of one node.
#[derive(Debug, PartialEq)]
pub struct VolatileLogs {
    me: ProcId,
    n: usize,
    /// Own write notices (Rule 1).
    wn: Vec<WnLogEntry>,
    /// Per-page diff logs (Rule 3 / LLT).
    diffs: HashMap<PageId, Vec<DiffLogEntry>>,
    /// Bytes of the entries in `wn` and `diffs`: every method that adds or
    /// drops one keeps it, so the policy check never walks the logs.
    held: u64,
    /// The own interval seq the last save covered: every entry is saved
    /// once, by the first checkpoint after it is logged, so the unsaved
    /// ones are those of later intervals.
    saved_through: u32,
    /// Grants sent, per acquirer (Rule 2).
    pub rel: Vec<Vec<RelEntry>>,
    /// Mirror of grants received, per granter (Rule 2).
    pub acq: Vec<Vec<RelEntry>>,
    /// Barrier episodes, one entry each, in episode order.
    pub bar: Vec<BarEntry>,
    counters: LogCounters,
}

impl VolatileLogs {
    /// Empty logs for node `me` of `n`.
    pub fn new(me: ProcId, n: usize) -> Self {
        VolatileLogs {
            me,
            n,
            wn: Vec::new(),
            diffs: HashMap::new(),
            rel: vec![Vec::new(); n],
            acq: vec![Vec::new(); n],
            bar: Vec::new(),
            held: 0,
            saved_through: 0,
            counters: LogCounters::default(),
        }
    }

    /// Fail-stop: every entry is lost. The byte counters are statistics of
    /// the run, not of the incarnation, and keep counting.
    pub fn clear(&mut self) {
        let counters = self.counters;
        *self = VolatileLogs::new(self.me, self.n);
        self.counters = counters;
    }

    /// Cumulative created/discarded counters.
    pub fn counters(&self) -> LogCounters {
        self.counters
    }

    /// Current volatile size of the diff + write-notice logs — the quantity
    /// the `OF(L)` checkpoint policy limits (the lock and barrier logs are
    /// tiny and never saved, as in the paper).
    pub fn volatile_bytes(&self) -> u64 {
        self.held
    }

    /// Own write notices, oldest first.
    pub fn wn(&self) -> &[WnLogEntry] {
        &self.wn
    }

    /// Per-page diff logs, each oldest first.
    pub fn diffs(&self) -> &HashMap<PageId, Vec<DiffLogEntry>> {
        &self.diffs
    }

    /// Record one completed interval: its write notice and its diffs. The
    /// diffs are the exact `Arc`s the interval's outgoing `DiffBatch`es
    /// share, taken as one batch with the interval-end timestamp `t` — the
    /// log entries are built here so callers never clone run payloads.
    pub fn log_interval(
        &mut self,
        seq: u32,
        pages: Vec<PageId>,
        t: &VectorClock,
        diffs: &[Arc<dsm_page::Diff>],
    ) {
        let entry = WnLogEntry { seq, pages };
        let mut created = entry.wire_size() as u64;
        self.wn.push(entry);
        for diff in diffs {
            let d = DiffLogEntry {
                diff: Arc::clone(diff),
                t: t.clone(),
            };
            created += d.wire_size() as u64;
            self.diffs.entry(d.diff.page).or_default().push(d);
        }
        self.counters.created_bytes += created;
        self.held += created;
    }

    /// Record a grant sent to `to`.
    pub fn log_rel(&mut self, to: ProcId, entry: RelEntry) {
        self.rel[to].push(entry);
    }

    /// Record (mirror) a grant received from `from`.
    pub fn log_acq(&mut self, from: ProcId, entry: RelEntry) {
        self.acq[from].push(entry);
    }

    /// Record a barrier episode this node completed or crossed. An episode
    /// already logged — the manager crossing one it completed — is kept as
    /// it is.
    pub fn log_bar(&mut self, entry: BarEntry) {
        if self.bar.last().is_none_or(|e| e.episode < entry.episode) {
            self.bar.push(entry);
        }
    }

    /// Find the grant this node sent to `to` for acquisition `acq_seq`
    /// (used to retransmit lost grants idempotently).
    pub fn find_rel(&self, to: ProcId, acq_seq: u64) -> Option<&RelEntry> {
        self.rel[to].iter().find(|e| e.acq_seq == acq_seq)
    }

    /// This node's logged diffs for `page` from intervals after `have` —
    /// what a copy holding its intervals up to `have` lacks (Rule 3's
    /// predicate). Cloning an entry is an `Arc` bump plus a vector-clock
    /// clone, never a run-payload copy.
    pub fn diffs_after(&self, page: PageId, have: u32) -> impl Iterator<Item = DiffLogEntry> + '_ {
        let log = self.diffs.get(&page).into_iter().flatten();
        log.filter(move |e| e.diff.interval.seq > have).cloned()
    }

    /// Rule 1: retain only write notices from intervals newer than
    /// `min_{j != me} T^j_ckp[me]`.
    pub fn trim_rule1(&mut self, min_peer_ckp_of_me: u32) {
        let mut dropped = 0u64;
        self.wn.retain(|e| {
            if e.seq > min_peer_ckp_of_me {
                true
            } else {
                dropped += e.wire_size() as u64;
                false
            }
        });
        self.counters.discarded_bytes += dropped;
        self.held -= dropped;
    }

    /// Rule 2: trim grant logs against the acquirers' checkpoint timestamps
    /// (`stamps[j]`: the last known checkpoint of process `j`) and the
    /// mirror against this node's own.
    pub fn trim_rule2(&mut self, stamps: &[CkptStamp]) {
        let me = self.me;
        let own_bound = stamps[me].tckp.get(me);
        for (j, stamp) in stamps.iter().enumerate().take(self.n) {
            // Keep boundary entries (>=): an acquire with no writes since
            // the acquirer's checkpoint has t_after equal to the checkpoint
            // timestamp and is still needed for replay.
            let bound = stamp.tckp.get(j);
            self.rel[j].retain(|e| e.t_after.get(j) >= bound);
            self.acq[j].retain(|e| e.t_after.get(me) >= own_bound);
        }
    }

    /// Rule 3 (LLT): for each page with a known retained starting-copy
    /// version `p0.v[me]`, drop diffs from intervals the starting copy
    /// already contains.
    pub fn trim_rule3(&mut self, p0v_known: &HashMap<PageId, u32>) {
        let me = self.me;
        let mut dropped = 0u64;
        for (page, log) in self.diffs.iter_mut() {
            let Some(&bound) = p0v_known.get(page) else {
                continue;
            };
            log.retain(|e| {
                if e.t.get(me) > bound {
                    true
                } else {
                    dropped += e.wire_size() as u64;
                    false
                }
            });
        }
        self.diffs.retain(|_, log| !log.is_empty());
        self.counters.discarded_bytes += dropped;
        self.held -= dropped;
    }

    /// Barrier-log analogue of Rule 1: drop episodes every process has
    /// checkpointed past.
    pub fn trim_bar(&mut self, min_ckpt_episode: u64) {
        self.bar.retain(|e| e.episode >= min_ckpt_episode);
    }

    /// Encode this checkpoint's log segment and mark everything up to own
    /// interval `through` saved. The segment is the [`LogBounds`] record of
    /// what the trims kept — the logs are in interval order and every trim
    /// drops a prefix; with no notice kept the notice bound is past
    /// `through` — then the entries no save has written, those of intervals
    /// past the last save's, in the layout messages use: the notices, then
    /// per page with new diffs its id and entries. The lock and barrier
    /// logs are mirrored on other nodes and never saved.
    pub fn save(&mut self, through: u32) -> LogSave {
        let first = self.diffs.iter().map(|(p, log)| (*p, seq_of(&log[0])));
        let mut diffs_from: Vec<_> = first.collect();
        diffs_from.sort_unstable();
        let bounds = LogBounds {
            wn_from: self.wn.first().map_or(through + 1, |e| e.seq),
            diffs_from,
        };
        let (from, mut w) = (self.saved_through, ByteWriter::with_capacity(4096));
        put_bounds(&mut w, &bounds);
        let (mut span, mut entry_bytes) = (SegmentSpan::default(), 0);
        let new_wn = &self.wn[self.wn.partition_point(|e| e.seq <= from)..];
        w.put_varint(new_wn.len() as u64);
        for e in new_wn {
            let at = w.len();
            wire::put_wn_entry(&mut w, e);
            entry_bytes += (w.len() - at) as u64;
        }
        span.wn_newest = new_wn.last().map(|e| e.seq);
        let new_diffs = self.diffs.iter().filter_map(|(p, log)| {
            let new = &log[log.partition_point(|e| seq_of(e) <= from)..];
            new.last().map(|last| (*p, new, seq_of(last)))
        });
        let mut new_diffs: Vec<_> = new_diffs.collect();
        new_diffs.sort_unstable_by_key(|&(p, ..)| p);
        w.put_varint(new_diffs.len() as u64);
        for (p, log, newest) in new_diffs {
            w.put_varint(p.0.into());
            w.put_varint(log.len() as u64);
            for e in log {
                let at = w.len();
                wire::put_entry(&mut w, e);
                entry_bytes += (w.len() - at) as u64;
            }
            span.diffs_newest.push((p, newest));
        }
        self.saved_through = through;
        LogSave {
            bytes: w.into_bytes(),
            bounds,
            span,
            entry_bytes,
        }
    }

    /// A restart: the entries are replaced by the saved ones — every live
    /// segment's, in id order, then kept as the newest segment's bounds
    /// say — and `through`, the own interval seq of the image the node
    /// restarts from, is what they saved. The byte counters keep counting.
    /// Returns each segment's span, for [`StableLog`] to collect.
    pub fn restore<'a>(
        &mut self,
        segments: impl IntoIterator<Item = &'a [u8]>,
        through: u32,
    ) -> Result<Vec<SegmentSpan>, CodecError> {
        self.clear();
        let mut spans = Vec::new();
        let mut newest = None;
        for bytes in segments {
            let mut r = ByteReader::new(bytes);
            let bounds = get_bounds(&mut r)?;
            let mut span = SegmentSpan::default();
            let wn = wire::get_list(&mut r, 2, wire::get_wn_entry)?;
            span.wn_newest = wn.last().map(|e| e.seq);
            self.wn.extend(wn);
            for _ in 0..r.get_varint()? {
                let page = wire::get_page(&mut r)?;
                let log = wire::get_entries(&mut r)?;
                if let Some(e) = log.last() {
                    span.diffs_newest.push((page, seq_of(e)));
                }
                self.diffs.entry(page).or_default().extend(log);
            }
            if !r.is_exhausted() {
                return Err(CodecError::Invalid {
                    context: "log segment end",
                });
            }
            spans.push(span);
            newest = Some(bounds);
        }
        if let Some(bounds) = newest {
            self.wn.retain(|e| e.seq >= bounds.wn_from);
            self.diffs.retain(|p, log| match bounds.diff_from(*p) {
                Some(from) => {
                    log.retain(|e| seq_of(e) >= from);
                    !log.is_empty()
                }
                None => false,
            });
        }
        let wn = self.wn.iter().map(WnLogEntry::wire_size);
        let diffs = self.diffs.values().flatten().map(DiffLogEntry::wire_size);
        self.held = wn.chain(diffs).sum::<usize>() as u64;
        self.saved_through = through;
        Ok(spans)
    }
}

/// A diff-log entry's own interval seq (`diff.T[me]`), the key every trim
/// and every save compares.
fn seq_of(e: &DiffLogEntry) -> u32 {
    e.diff.interval.seq
}

/// What a checkpoint's trims kept of the notice and diff logs. Trims drop
/// only prefixes, so every entry logged before that checkpoint is kept
/// exactly when its seq is at or past its bound.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogBounds {
    /// The first kept own notice's seq.
    wn_from: u32,
    /// Per page with a kept diff, in page order, its first kept diff's
    /// seq. A page not listed kept none.
    diffs_from: Vec<(PageId, u32)>,
}

impl LogBounds {
    /// The first kept seq of `page`'s diffs, if any is kept.
    fn diff_from(&self, page: PageId) -> Option<u32> {
        let at = self.diffs_from.binary_search_by_key(&page, |&(p, _)| p);
        at.ok().map(|i| self.diffs_from[i].1)
    }
}

/// A bounds record: the notice bound, then the page count and per page its
/// id and bound, all varints.
fn put_bounds(w: &mut ByteWriter, b: &LogBounds) {
    w.put_varint(b.wn_from.into());
    w.put_varint(b.diffs_from.len() as u64);
    for &(p, from) in &b.diffs_from {
        w.put_varint(p.0.into());
        w.put_varint(from.into());
    }
}

fn get_bounds(r: &mut ByteReader) -> Result<LogBounds, CodecError> {
    let wn_from = wire::get_u32(r, "notice bound")?;
    let diffs_from = wire::get_list(r, 2, |r| {
        Ok((wire::get_page(r)?, wire::get_u32(r, "diff bound")?))
    })?;
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

/// What GC needs of a segment: the newest seq among its notices and, per
/// page it holds diffs of, the newest among those.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentSpan {
    wn_newest: Option<u32>,
    diffs_newest: Vec<(PageId, u32)>,
}

impl SegmentSpan {
    /// Is any entry of the segment kept under `bounds`?
    fn live_under(&self, bounds: &LogBounds) -> bool {
        self.wn_newest.is_some_and(|s| s >= bounds.wn_from)
            || (self.diffs_newest.iter())
                .any(|&(p, s)| bounds.diff_from(p).is_some_and(|from| s >= from))
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
    /// ([`VolatileLogs::restore`]). A segment past `seq` was written by a
    /// checkpoint whose blob never was; it is deleted unread.
    pub fn restore(
        &mut self,
        store: &StableStore,
        logs: &mut VolatileLogs,
        seq: u64,
        through: u32,
    ) -> Result<(), CodecError> {
        let (ids, torn): (Vec<u64>, Vec<u64>) =
            (store.segment_ids(SegmentKind::Log).into_iter()).partition(|&id| id <= seq);
        torn.into_iter().for_each(|id| {
            store.delete_segment(SegmentKind::Log, id);
        });
        let segments: Vec<Vec<u8>> = (ids.iter())
            .map(|&id| {
                store
                    .read_segment(SegmentKind::Log, id)
                    .expect("a listed segment")
            })
            .collect();
        let spans = logs.restore(segments.iter().map(Vec::as_slice), through)?;
        self.live = ids.into_iter().zip(spans).collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_page::{Diff, Interval, Page};
    use dsm_storage::DiskModel;

    fn vt(v: &[u32]) -> VectorClock {
        VectorClock::from_vec(v.to_vec())
    }

    fn diff(me: ProcId, page: u32, seq: u32) -> Arc<Diff> {
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[seq as u8; 8]);
        Arc::new(Diff::create(PageId(page), Interval { proc: me, seq }, &twin, &cur).unwrap())
    }

    #[test]
    fn interval_logging_accounts_bytes() {
        let mut l = VolatileLogs::new(0, 2);
        l.log_interval(1, vec![PageId(0)], &vt(&[1, 0]), &[diff(0, 0, 1)]);
        assert!(l.volatile_bytes() > 0);
        assert_eq!(l.counters().created_bytes, l.volatile_bytes());
        assert_eq!(l.counters().discarded_bytes, 0);
    }

    #[test]
    fn rule1_trims_covered_write_notices() {
        let mut l = VolatileLogs::new(0, 2);
        for seq in 1..=5 {
            l.log_interval(seq, vec![PageId(seq)], &vt(&[seq, 0]), &[]);
        }
        l.trim_rule1(3);
        let seqs: Vec<_> = l.wn.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
        assert!(l.counters().discarded_bytes > 0);
    }

    #[test]
    fn rule2_trims_by_acquirer_checkpoint() {
        let mut l = VolatileLogs::new(0, 2);
        l.log_rel(
            1,
            RelEntry {
                acq_seq: 0,
                lock: 3,
                gen: 0,
                req_vt: vt(&[0, 0]),
                t_after: vt(&[1, 2]),
            },
        );
        l.log_rel(
            1,
            RelEntry {
                acq_seq: 1,
                lock: 3,
                gen: 0,
                req_vt: vt(&[1, 2]),
                t_after: vt(&[1, 5]),
            },
        );
        l.log_acq(
            1,
            RelEntry {
                acq_seq: 0,
                lock: 4,
                gen: 0,
                req_vt: vt(&[0, 0]),
                t_after: vt(&[2, 1]),
            },
        );
        // Process 1 checkpointed at [1,3]: the t_after=[1,2] grant is
        // strictly older and covered; the boundary would be retained. Our
        // own checkpoint at [3,1]: acq mirror entry t_after[me]=2 is
        // strictly below and trimmed.
        let stamp = |tckp| CkptStamp {
            seq: 1,
            episode: 0,
            tckp,
        };
        l.trim_rule2(&[stamp(vt(&[3, 1])), stamp(vt(&[1, 3]))]);
        assert_eq!(l.rel[1].len(), 1);
        assert_eq!(l.rel[1][0].acq_seq, 1);
        assert!(l.acq[1].is_empty());
    }

    #[test]
    fn rule3_trims_diffs_covered_by_starting_copy() {
        let mut l = VolatileLogs::new(0, 2);
        l.log_interval(1, vec![PageId(9)], &vt(&[1, 0]), &[diff(0, 9, 1)]);
        l.log_interval(2, vec![PageId(9)], &vt(&[2, 0]), &[diff(0, 9, 2)]);
        l.log_interval(3, vec![PageId(7)], &vt(&[3, 0]), &[diff(0, 7, 3)]);
        let mut p0v = HashMap::new();
        p0v.insert(PageId(9), 1u32); // home's oldest retained copy has our interval 1
        l.trim_rule3(&p0v);
        assert_eq!(l.diffs[&PageId(9)].len(), 1);
        assert_eq!(l.diffs[&PageId(9)][0].diff.interval.seq, 2);
        assert_eq!(l.diffs[&PageId(7)].len(), 1); // unknown p0: untouched
        assert!(l.counters().discarded_bytes > 0);
    }

    /// Restore `logs`' saved state from `store` into fresh logs, as a
    /// restart from checkpoint `seq` at own interval `through` does.
    fn restarted(store: &StableStore, seq: u64, through: u32) -> (VolatileLogs, StableLog) {
        let (mut logs, mut stable) = (VolatileLogs::new(0, 2), StableLog::default());
        stable.restore(store, &mut logs, seq, through).unwrap();
        (logs, stable)
    }

    /// Save `l` as checkpoint `id` at own interval `through`, the way a
    /// checkpoint's capture and publish do: segment, then GC under the new
    /// bounds.
    fn checkpoint(
        l: &mut VolatileLogs,
        stable: &mut StableLog,
        store: &StableStore,
        id: u64,
        through: u32,
    ) -> u64 {
        let save = l.save(through);
        stable.append(store, id, save.bytes, save.span);
        stable.collect(store, &save.bounds);
        save.entry_bytes
    }

    #[test]
    fn a_save_writes_each_entry_once_and_a_restart_rebuilds_the_logs() {
        let store = StableStore::new(DiskModel::instant());
        let (mut l, mut stable) = (VolatileLogs::new(0, 2), StableLog::default());
        l.log_interval(
            1,
            vec![PageId(0), PageId(2)],
            &vt(&[1, 0]),
            &[diff(0, 0, 1)],
        );
        l.log_interval(2, vec![PageId(2)], &vt(&[2, 1]), &[diff(0, 2, 2)]);
        let first = checkpoint(&mut l, &mut stable, &store, 1, 2);
        assert_eq!(
            first,
            l.volatile_bytes(),
            "the first save holds every entry"
        );
        assert_eq!(
            checkpoint(&mut l, &mut stable, &store, 2, 2),
            0,
            "a second save writes nothing new"
        );
        l.log_interval(3, vec![PageId(2)], &vt(&[3, 1]), &[diff(0, 2, 3)]);
        let third = checkpoint(&mut l, &mut stable, &store, 3, 3);
        assert_eq!(first + third, l.volatile_bytes());
        // Segment 2 saved nothing and is dead under segment 3's bounds.
        assert_eq!(store.segment_ids(SegmentKind::Log), [1, 3]);
        let (l2, stable2) = restarted(&store, 3, 3);
        assert_eq!((l2.wn(), l2.diffs()), (l.wn(), l.diffs()));
        assert_eq!(
            (l2.volatile_bytes(), l2.saved_through),
            (l.volatile_bytes(), 3)
        );
        assert_eq!(stable2, stable);
    }

    #[test]
    fn a_segment_with_nothing_kept_is_deleted_and_a_partly_kept_one_stays() {
        let store = StableStore::new(DiskModel::instant());
        let (mut l, mut stable) = (VolatileLogs::new(0, 2), StableLog::default());
        for seq in 1..=2 {
            l.log_interval(seq, vec![PageId(seq)], &vt(&[seq, 0]), &[diff(0, seq, seq)]);
        }
        checkpoint(&mut l, &mut stable, &store, 1, 2);
        for seq in 3..=4 {
            l.log_interval(seq, vec![PageId(seq)], &vt(&[seq, 0]), &[diff(0, seq, seq)]);
        }
        // Rule 1 drops notices 1–3: segment 1 keeps only its diffs.
        l.trim_rule1(3);
        checkpoint(&mut l, &mut stable, &store, 2, 4);
        assert_eq!(store.segment_ids(SegmentKind::Log), [1, 2]);
        // Rule 3 drops page 1's diff: segment 1 still holds page 2's.
        l.trim_rule3(&HashMap::from([(PageId(1), 1)]));
        l.log_interval(5, vec![PageId(5)], &vt(&[5, 0]), &[diff(0, 5, 5)]);
        checkpoint(&mut l, &mut stable, &store, 3, 5);
        assert_eq!(store.segment_ids(SegmentKind::Log), [1, 2, 3]);
        // ... and once page 2's goes too, nothing of segment 1 is kept.
        l.trim_rule3(&HashMap::from([(PageId(2), 2)]));
        checkpoint(&mut l, &mut stable, &store, 4, 5);
        assert_eq!(store.segment_ids(SegmentKind::Log), [2, 3, 4]);
        let (l2, _) = restarted(&store, 4, 5);
        assert_eq!((l2.wn(), l2.diffs()), (l.wn(), l.diffs()));
        assert_eq!(l2.volatile_bytes(), l.volatile_bytes());
    }

    #[test]
    fn a_segment_newer_than_the_image_is_ignored_and_deleted() {
        let store = StableStore::new(DiskModel::instant());
        let (mut l, mut stable) = (VolatileLogs::new(0, 2), StableLog::default());
        l.log_interval(1, vec![PageId(0)], &vt(&[1, 0]), &[diff(0, 0, 1)]);
        checkpoint(&mut l, &mut stable, &store, 1, 1);
        let image = (l.wn().to_vec(), l.diffs().clone());
        // Checkpoint 2 writes its segment, and its blob never follows: it
        // trimmed everything checkpoint 1 kept.
        l.trim_rule1(1);
        l.trim_rule3(&HashMap::from([(PageId(0), 1)]));
        l.log_interval(2, vec![PageId(0)], &vt(&[2, 0]), &[diff(0, 0, 2)]);
        let save = l.save(2);
        stable.append(&store, 2, save.bytes, save.span);
        let (l2, _) = restarted(&store, 1, 1);
        assert_eq!((l2.wn(), l2.diffs()), (&image.0[..], &image.1));
        assert_eq!(store.segment_ids(SegmentKind::Log), [1]);
    }

    #[test]
    fn every_truncation_of_a_stable_log_segment_is_an_error() {
        let mut l = VolatileLogs::new(0, 2);
        l.log_interval(1, vec![PageId(0)], &vt(&[1, 0]), &[diff(0, 0, 1)]);
        l.log_interval(2, vec![PageId(2)], &vt(&[2, 1]), &[diff(0, 2, 2)]);
        let bytes = l.save(2).bytes;
        VolatileLogs::new(0, 2).restore([&bytes[..]], 2).unwrap();
        for len in 0..bytes.len() {
            let cut = VolatileLogs::new(0, 2).restore([&bytes[..len]], 2);
            assert!(cut.is_err(), "{len} of {} bytes decoded", bytes.len());
        }
    }

    #[test]
    fn find_rel_locates_grants_for_retransmission() {
        let mut l = VolatileLogs::new(0, 2);
        l.log_rel(
            1,
            RelEntry {
                acq_seq: 5,
                lock: 0,
                gen: 0,
                req_vt: vt(&[0, 1]),
                t_after: vt(&[2, 1]),
            },
        );
        assert!(l.find_rel(1, 5).is_some());
        assert!(l.find_rel(1, 4).is_none());
    }

    #[test]
    fn barrier_trim_drops_old_episodes() {
        let mut l = VolatileLogs::new(0, 2);
        for ep in 0..4 {
            l.log_bar(BarEntry {
                episode: ep,
                result_vt: vt(&[0, 0]),
            });
        }
        l.trim_bar(2);
        let eps: Vec<_> = l.bar.iter().map(|e| e.episode).collect();
        assert_eq!(eps, vec![2, 3]);
    }
}
