//! Volatile (in-memory) logs for sender-based logging.
//!
//! Per the paper (§4.2), every node logs:
//!
//! * `wn_log` — write notices it generates (its own intervals' page sets);
//! * `diff_log(p)` — every diff it creates, with the full vector timestamp
//!   of its creation (`diff.T`), including diffs for its own homed pages
//!   (which base HLRC never creates);
//! * `rel_log[j]` — grants it sent to process `j` (the acquirer's timestamp
//!   after the acquire, plus the request timestamp so a grant lost in a
//!   crash can be replayed byte-identically);
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
//! ([`VolatileLogs::save`], [`super::stable_log`]); [`StableLog`] deletes a
//! segment once nothing in it is kept, and a restart indexes the live ones
//! ([`VolatileLogs::restore`]). A saved entry lives on stable storage only:
//! once its segment is published it leaves memory, kept as its seq and size
//! for the trims and the byte counts, and is read back from the segment
//! when a recovery asks for it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dsm_page::{PageId, ProcId, VectorClock};
use dsm_storage::{ByteReader, ByteWriter, CodecError, StableStore};
use hlrc::LockId;

use super::stable_log::{get_bounds, put_bounds, put_section, LogBounds, LogSave, Section};
use super::stable_log::{SegmentSpan, StableLog};
use crate::msg::CkptStamp;
use crate::wire::{self, wire_struct, Wire};

wire_struct! {
    /// One own-interval write-notice record.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WnLogEntry {
        /// The interval's sequence number at this node.
        pub seq: u32,
        /// Pages written in the interval.
        pub pages: Vec<PageId>,
    }

    /// One logged diff: the diff plus the creator's full timestamp at
    /// creation.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DiffLogEntry {
        /// The diff itself (carries the creating interval). Shared with the
        /// `DiffBatch` message that delivered the same interval — logging
        /// never copies run payloads, exactly as the paper's "reuse what the
        /// base protocol already produces" argument requires.
        pub diff: Arc<dsm_page::Diff>,
        /// `diff.T`: the writer's vector timestamp at the end of the
        /// creating interval. Orders diffs by happens-before during
        /// recovery replay.
        pub t: VectorClock,
    }

    /// One grant record: lives in the granter's `rel_log[acquirer]` and,
    /// mirrored, in the acquirer's `acq_log[granter]`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RelEntry {
        /// The acquirer's acquisition sequence number (replay key).
        pub acq_seq: u64,
        /// The lock acquired.
        pub lock: LockId,
        /// The manager-assigned grant generation (rebuilds lock chains after
        /// a manager crash).
        pub gen: u64,
        /// The acquirer's timestamp in the request (kept so a lost grant can
        /// be regenerated with the same write notices).
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
}

/// Byte counters for Table 4 / Figure 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounters {
    /// Cumulative bytes ever appended to the volatile logs.
    pub created_bytes: u64,
    /// Cumulative bytes dropped by trimming.
    pub discarded_bytes: u64,
}

impl WnLogEntry {
    /// Encoded size in bytes: what its [`Wire`] codec writes.
    pub fn wire_size(&self) -> usize {
        wire::len_of(|w| self.put(w))
    }
}

impl DiffLogEntry {
    /// Encoded size in bytes: what its [`Wire`] codec writes.
    pub fn wire_size(&self) -> usize {
        wire::len_of(|w| self.put(w))
    }
}

/// What every logged notice and diff is to its log: an own interval's
/// entry, written by its [`Wire`] codec.
pub(super) trait Logged: Wire {
    /// The own interval seq, the key every trim, save and eviction
    /// compares.
    fn seq(&self) -> u32;
    /// Encoded size in bytes, what the entry counts for in `OF(L)`.
    fn size(&self) -> u32;
}

impl Logged for WnLogEntry {
    fn seq(&self) -> u32 {
        self.seq
    }
    fn size(&self) -> u32 {
        self.wire_size() as u32
    }
}

impl Logged for DiffLogEntry {
    fn seq(&self) -> u32 {
        self.diff.interval.seq
    }
    fn size(&self) -> u32 {
        self.wire_size() as u32
    }
}

/// The bytes of indexed entries.
fn bytes(index: impl IntoIterator<Item = (u32, u32)>) -> u64 {
    index.into_iter().map(|(_, size)| u64::from(size)).sum()
}

/// One log — the notices, or one page's diffs — oldest first: the saved
/// prefix, which lives on stable storage only and is kept here as each
/// entry's `(seq, encoded size)`, then the resident tail.
#[derive(Debug, PartialEq)]
struct SeqLog<T> {
    saved: Vec<(u32, u32)>,
    tail: Vec<T>,
}

impl<T> Default for SeqLog<T> {
    fn default() -> Self {
        SeqLog {
            saved: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T: Logged> SeqLog<T> {
    /// The oldest kept entry's seq.
    fn first(&self) -> Option<u32> {
        let saved = self.saved.first().map(|&(seq, _)| seq);
        saved.or_else(|| self.tail.first().map(T::seq))
    }

    fn is_empty(&self) -> bool {
        self.saved.is_empty() && self.tail.is_empty()
    }

    /// Drop every entry at or below `bound`, saved or resident — a trim
    /// always drops a prefix. Returns the bytes dropped and, of those, the
    /// resident ones.
    fn trim_through(&mut self, bound: u32) -> (u64, u64) {
        let k = self.saved.partition_point(|&(seq, _)| seq <= bound);
        let saved = bytes(self.saved.drain(..k));
        let k = self.tail.partition_point(|e| e.seq() <= bound);
        let resident = bytes(self.tail.drain(..k).map(|e| (e.seq(), e.size())));
        (saved + resident, resident)
    }

    /// Move the resident entries at or below `through` — saved and stable
    /// — to the index. Returns their bytes.
    fn evict_through(&mut self, through: u32) -> u64 {
        let k = self.tail.partition_point(|e| e.seq() <= through);
        let at = self.saved.len();
        (self.saved).extend(self.tail.drain(..k).map(|e| (e.seq(), e.size())));
        bytes(self.saved[at..].iter().copied())
    }

    /// The resident entries past `seq`.
    fn tail_after(&self, seq: u32) -> &[T] {
        &self.tail[self.tail.partition_point(|e| e.seq() <= seq)..]
    }

    /// The first saved seq past `seq` when one is kept: where a read of the
    /// saved entries past `seq` starts.
    fn saved_after(&self, seq: u32) -> Option<u32> {
        let k = self.saved.partition_point(|&(s, _)| s <= seq);
        self.saved.get(k).map(|&(s, _)| s)
    }

    /// Every kept entry's `(seq, encoded size)`, saved or resident.
    fn index(&self) -> Vec<(u32, u32)> {
        let tail = self.tail.iter().map(|e| (e.seq(), e.size()));
        self.saved.iter().copied().chain(tail).collect()
    }
}

/// All volatile logs of one node. The notice and diff logs keep in memory
/// only what no checkpoint has made stable yet: once a checkpoint's log
/// segment is on stable storage its entries are evicted
/// ([`VolatileLogs::evict_saved`]), each kept as its seq and size, and a
/// peer's recovery reads them back from the live segments
/// ([`VolatileLogs::diffs_after`], [`VolatileLogs::wn_log`]).
#[derive(Debug, PartialEq)]
pub struct VolatileLogs {
    me: ProcId,
    n: usize,
    /// Own write notices (Rule 1).
    wn: SeqLog<WnLogEntry>,
    /// Per-page diff logs (Rule 3 / LLT).
    diffs: HashMap<PageId, SeqLog<DiffLogEntry>>,
    /// Bytes of the entries in `wn` and `diffs`, saved or resident: every
    /// method that adds or drops one keeps it, so the policy check never
    /// walks the logs.
    held: u64,
    /// Bytes of the resident entries alone.
    resident: u64,
    /// The largest `resident` has been; like the counters, a statistic of
    /// the run.
    peak_resident: u64,
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

/// Every kept notice and diff, saved or resident, as its `(seq, encoded
/// size)`: what the trims and `OF(L)` see of the logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogIndex {
    /// The notices, oldest first.
    pub wn: Vec<(u32, u32)>,
    /// Per page with a kept diff, its diffs, oldest first.
    pub diffs: BTreeMap<PageId, Vec<(u32, u32)>>,
}

impl VolatileLogs {
    /// Empty logs for node `me` of `n`.
    pub fn new(me: ProcId, n: usize) -> Self {
        VolatileLogs {
            me,
            n,
            wn: SeqLog::default(),
            diffs: HashMap::new(),
            rel: vec![Vec::new(); n],
            acq: vec![Vec::new(); n],
            bar: Vec::new(),
            held: 0,
            resident: 0,
            peak_resident: 0,
            saved_through: 0,
            counters: LogCounters::default(),
        }
    }

    /// Fail-stop: every entry is lost. The byte counters and the resident
    /// peak are statistics of the run, not of the incarnation, and keep
    /// counting.
    pub fn clear(&mut self) {
        let (counters, peak) = (self.counters, self.peak_resident);
        *self = VolatileLogs::new(self.me, self.n);
        (self.counters, self.peak_resident) = (counters, peak);
    }

    /// Cumulative created/discarded counters.
    pub fn counters(&self) -> LogCounters {
        self.counters
    }

    /// Current size of the diff + write-notice logs, saved or resident —
    /// the quantity the `OF(L)` checkpoint policy limits (the lock and
    /// barrier logs are tiny and never saved, as in the paper).
    pub fn volatile_bytes(&self) -> u64 {
        self.held
    }

    /// Bytes of the entries held in memory: those no published checkpoint
    /// has saved.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// The largest [`VolatileLogs::resident_bytes`] of the run.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident
    }

    /// Every kept notice and diff as its seq and size.
    pub fn index(&self) -> LogIndex {
        let diffs = self.diffs.iter().map(|(p, log)| (*p, log.index()));
        LogIndex {
            wn: self.wn.index(),
            diffs: diffs.collect(),
        }
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
        self.wn.tail.push(entry);
        for diff in diffs {
            let d = DiffLogEntry {
                diff: Arc::clone(diff),
                t: t.clone(),
            };
            created += d.wire_size() as u64;
            self.diffs.entry(d.diff.page).or_default().tail.push(d);
        }
        self.counters.created_bytes += created;
        self.held += created;
        self.resident += created;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// Record a grant sent to `to`.
    pub fn log_rel(&mut self, to: ProcId, entry: RelEntry) {
        self.rel[to].push(entry);
    }

    /// Record (mirror) a grant received from `from`, unless it is already
    /// logged: its `acq_seq` is not above the last from `from` — a replayed
    /// grant, whose entry the handshake's mirror restored.
    pub fn log_acq(&mut self, from: ProcId, entry: RelEntry) {
        let log = &mut self.acq[from];
        if log.last().is_none_or(|e| e.acq_seq < entry.acq_seq) {
            log.push(entry);
        }
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
    /// (replayed for a forward a restart re-issues).
    pub fn find_rel(&self, to: ProcId, acq_seq: u64) -> Option<&RelEntry> {
        self.rel[to].iter().find(|e| e.acq_seq == acq_seq)
    }

    /// This node's logged diffs for `page` from intervals after `have` —
    /// what a copy holding its intervals up to `have` lacks (Rule 3's
    /// predicate) — oldest first: the saved ones read back from `stable`'s
    /// segments on `store`, then the resident ones (an `Arc` bump each,
    /// never a run-payload copy). Returns them with how many were read from
    /// the store.
    pub fn diffs_after(
        &self,
        stable: &StableLog,
        store: &StableStore,
        page: PageId,
        have: u32,
    ) -> (Vec<DiffLogEntry>, usize) {
        let Some(log) = self.diffs.get(&page) else {
            return (Vec::new(), 0);
        };
        self.read(log, have, |from| stable.read(store, Some(page), from))
    }

    /// Every kept own write notice, oldest first: the saved ones read back
    /// from `stable`'s segments on `store`, then the resident ones. Returns
    /// them with how many were read from the store.
    pub fn wn_log(&self, stable: &StableLog, store: &StableStore) -> (Vec<WnLogEntry>, usize) {
        self.read(&self.wn, 0, |from| stable.read(store, None, from))
    }

    /// `log`'s entries past `have`: `read_saved(from)` reads the saved ones
    /// from seq `from` on, then the resident ones follow.
    fn read<T: Logged + Clone>(
        &self,
        log: &SeqLog<T>,
        have: u32,
        read_saved: impl FnOnce(u32) -> Vec<T>,
    ) -> (Vec<T>, usize) {
        let mut entries = log.saved_after(have).map_or_else(Vec::new, read_saved);
        let read = entries.len();
        entries.extend_from_slice(log.tail_after(have));
        (entries, read)
    }

    /// Rule 1: retain only write notices from intervals newer than
    /// `min_{j != me} T^j_ckp[me]`.
    pub fn trim_rule1(&mut self, min_peer_ckp_of_me: u32) {
        let dropped = self.wn.trim_through(min_peer_ckp_of_me);
        self.dropped(dropped);
    }

    /// Account a trim's `(bytes, of which resident)`.
    fn dropped(&mut self, (bytes, resident): (u64, u64)) {
        self.counters.discarded_bytes += bytes;
        self.held -= bytes;
        self.resident -= resident;
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
    /// already contains (an own diff's interval seq is its `diff.T[me]`).
    pub fn trim_rule3(&mut self, p0v_known: &HashMap<PageId, u32>) {
        let mut dropped = (0, 0);
        for (page, log) in self.diffs.iter_mut() {
            if let Some(&bound) = p0v_known.get(page) {
                let (bytes, resident) = log.trim_through(bound);
                dropped = (dropped.0 + bytes, dropped.1 + resident);
            }
        }
        self.diffs.retain(|_, log| !log.is_empty());
        self.dropped(dropped);
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
        let first = self
            .diffs
            .iter()
            .filter_map(|(p, log)| Some((*p, log.first()?)));
        let mut diffs_from: Vec<_> = first.collect();
        diffs_from.sort_unstable();
        let bounds = LogBounds {
            wn_from: self.wn.first().unwrap_or(through + 1),
            diffs_from,
        };
        let (from, mut w) = (self.saved_through, ByteWriter::with_capacity(4096));
        put_bounds(&mut w, &bounds);
        let (mut span, mut entry_bytes) = (SegmentSpan::default(), 0);
        let new_wn = self.wn.tail_after(from);
        span.wn = put_section(&mut w, new_wn, &mut entry_bytes);
        let new_diffs = self.diffs.iter().map(|(p, log)| (*p, log.tail_after(from)));
        let mut new_diffs: Vec<_> = new_diffs.filter(|(_, new)| !new.is_empty()).collect();
        new_diffs.sort_unstable_by_key(|&(p, _)| p);
        w.put_varint(new_diffs.len() as u64);
        for (p, new) in new_diffs {
            w.put_varint(p.0.into());
            let section = put_section(&mut w, new, &mut entry_bytes);
            span.diffs.push((p, section.expect("new diffs")));
        }
        self.saved_through = through;
        LogSave {
            bytes: w.into_bytes(),
            bounds,
            span,
            entry_bytes,
        }
    }

    /// The last save's segment is on stable storage: the entries it saved
    /// leave memory for the index.
    pub fn evict_saved(&mut self) {
        let through = self.saved_through;
        let mut evicted = self.wn.evict_through(through);
        for log in self.diffs.values_mut() {
            evicted += log.evict_through(through);
        }
        self.resident -= evicted;
    }

    /// A restart: the logs become the saved ones — every live segment's, in
    /// id order, then kept as the newest segment's bounds say — indexed,
    /// none of them loaded, and `through`, the own interval seq of the image
    /// the node restarts from, is what they saved. The byte counters keep
    /// counting. Returns each segment's span, for [`StableLog`] to collect,
    /// and the kept notices, which the restarted node's notice table needs.
    pub fn restore<'a>(
        &mut self,
        segments: impl IntoIterator<Item = &'a [u8]>,
        through: u32,
    ) -> Result<(Vec<SegmentSpan>, Vec<WnLogEntry>), CodecError> {
        self.clear();
        let (mut spans, mut wn, mut newest) = (Vec::new(), Vec::new(), None);
        for bytes in segments {
            let (bounds, span) = self.index_segment(bytes, &mut wn)?;
            spans.push(span);
            newest = Some(bounds);
        }
        if let Some(bounds) = newest {
            wn.retain(|e| e.seq >= bounds.wn_from);
            self.diffs.retain(|p, log| match bounds.diff_from(*p) {
                Some(from) => {
                    log.saved.retain(|&(seq, _)| seq >= from);
                    !log.is_empty()
                }
                None => false,
            });
        }
        self.wn.saved = wn.iter().map(|e| (e.seq, e.size())).collect();
        let diffs = self.diffs.values().flat_map(|log| &log.saved);
        self.held = bytes(self.wn.saved.iter().chain(diffs).copied());
        self.saved_through = through;
        Ok((spans, wn))
    }

    /// Index one segment: its diffs go to `self`'s saved prefixes, its
    /// notices to `wn`. Returns its bounds and its span.
    fn index_segment(
        &mut self,
        bytes: &[u8],
        wn: &mut Vec<WnLogEntry>,
    ) -> Result<(LogBounds, SegmentSpan), CodecError> {
        let mut r = ByteReader::new(bytes);
        let at = |r: &ByteReader| (bytes.len() - r.remaining()) as u32;
        let bounds = get_bounds(&mut r)?;
        let mut span = SegmentSpan::default();
        let start = at(&r);
        let new_wn = Vec::<WnLogEntry>::get(&mut r)?;
        span.wn = (new_wn.last()).map(|e| Section {
            newest: e.seq,
            at: start..at(&r),
        });
        wn.extend(new_wn);
        for _ in 0..r.get_varint()? {
            let page = PageId::get(&mut r)?;
            let (start, log) = (at(&r), self.diffs.entry(page).or_default());
            let mut newest = None;
            for _ in 0..r.get_varint()? {
                let before = at(&r);
                let seq = DiffLogEntry::get(&mut r)?.seq();
                log.saved.push((seq, at(&r) - before));
                newest = Some(seq);
            }
            if let Some(newest) = newest {
                let at = start..at(&r);
                span.diffs.push((page, Section { newest, at }));
            }
        }
        if !r.is_exhausted() {
            return Err(CodecError::Invalid {
                context: "log segment end",
            });
        }
        Ok((bounds, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_page::{Diff, Interval, Page};
    use dsm_storage::{DiskModel, SegmentKind};

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
        let seqs: Vec<_> = l.index().wn.iter().map(|&(seq, _)| seq).collect();
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
        let seqs = |page| -> Vec<u32> {
            let log = &l.index().diffs[&PageId(page)];
            log.iter().map(|&(seq, _)| seq).collect()
        };
        assert_eq!(seqs(9), vec![2]);
        assert_eq!(seqs(7), vec![3]); // unknown p0: untouched
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
    /// checkpoint's capture and publish do: segment, eviction, then GC
    /// under the new bounds.
    fn checkpoint(
        l: &mut VolatileLogs,
        stable: &mut StableLog,
        store: &StableStore,
        id: u64,
        through: u32,
    ) -> u64 {
        let save = l.save(through);
        stable.append(store, id, save.bytes, save.span);
        l.evict_saved();
        stable.collect(store, &save.bounds);
        save.entry_bytes
    }

    /// Every kept notice and, per page, every kept diff, saved ones read
    /// back from `store`.
    type Contents = (Vec<WnLogEntry>, BTreeMap<PageId, Vec<DiffLogEntry>>);

    fn contents(l: &VolatileLogs, stable: &StableLog, store: &StableStore) -> Contents {
        let pages = l.index().diffs.into_keys();
        let diffs = pages.map(|p| (p, l.diffs_after(stable, store, p, 0).0));
        (l.wn_log(stable, store).0, diffs.collect())
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
        assert_eq!(l2.index(), l.index());
        assert_eq!(
            contents(&l2, &stable2, &store),
            contents(&l, &stable, &store)
        );
        assert_eq!(
            (l2.volatile_bytes(), l2.saved_through),
            (l.volatile_bytes(), 3)
        );
        assert_eq!((l.resident_bytes(), l2.resident_bytes()), (0, 0));
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
        let (l2, stable2) = restarted(&store, 4, 5);
        assert_eq!(l2.index(), l.index());
        assert_eq!(
            contents(&l2, &stable2, &store),
            contents(&l, &stable, &store)
        );
        assert_eq!(l2.volatile_bytes(), l.volatile_bytes());
    }

    #[test]
    fn a_segment_newer_than_the_image_is_ignored_and_deleted() {
        let store = StableStore::new(DiskModel::instant());
        let (mut l, mut stable) = (VolatileLogs::new(0, 2), StableLog::default());
        l.log_interval(1, vec![PageId(0)], &vt(&[1, 0]), &[diff(0, 0, 1)]);
        checkpoint(&mut l, &mut stable, &store, 1, 1);
        let image = contents(&l, &stable, &store);
        // Checkpoint 2 writes its segment, and its blob never follows: it
        // trimmed everything checkpoint 1 kept.
        l.trim_rule1(1);
        l.trim_rule3(&HashMap::from([(PageId(0), 1)]));
        l.log_interval(2, vec![PageId(0)], &vt(&[2, 0]), &[diff(0, 0, 2)]);
        let save = l.save(2);
        stable.append(&store, 2, save.bytes, save.span);
        let (l2, stable2) = restarted(&store, 1, 1);
        assert_eq!(contents(&l2, &stable2, &store), image);
        assert_eq!(store.segment_ids(SegmentKind::Log), [1]);
    }

    /// Two copies of one history, one evicting at every publish and one
    /// keeping every entry resident, each on a store of its own: logging,
    /// trims, saves and publishes — with a read between a capture and its
    /// publish too — count, bound, save, collect and serve alike, and the
    /// evicting one holds only the unsaved tail in memory.
    #[test]
    fn an_evicting_log_trims_saves_and_serves_what_an_all_resident_one_does() {
        struct Copy {
            l: VolatileLogs,
            stable: StableLog,
            store: StableStore,
        }
        let mut copies = [(); 2].map(|_| Copy {
            l: VolatileLogs::new(0, 2),
            stable: StableLog::default(),
            store: StableStore::new(DiskModel::instant()),
        });
        // What a peer's recovery is served: the notices, and per page the
        // diffs past each `have` — with how many came from the store.
        let served = |c: &Copy| {
            let (wn, mut read) = c.l.wn_log(&c.stable, &c.store);
            let mut diffs = Vec::new();
            for page in 0..5 {
                for have in [0, 4, 9, 13] {
                    let (d, r) = c.l.diffs_after(&c.stable, &c.store, PageId(page), have);
                    diffs.push(d);
                    read += r;
                }
            }
            ((wn, diffs), read)
        };
        let same = |copies: &[Copy; 2]| {
            let [ev, all] = copies;
            assert_eq!(ev.l.index(), all.l.index());
            assert_eq!(ev.l.volatile_bytes(), all.l.volatile_bytes());
            assert_eq!(ev.l.counters(), all.l.counters());
            assert_eq!(all.l.resident_bytes(), all.l.volatile_bytes());
            let (ev_served, read) = served(ev);
            let (all_served, none) = served(all);
            assert_eq!((ev_served, none), (all_served, 0));
            read
        };
        let (mut seq, mut read) = (0, 0);
        for id in 1..=6u64 {
            for _ in 0..3 {
                seq += 1;
                let pages = [PageId(seq % 4), PageId(4)];
                for c in copies.iter_mut() {
                    let diffs = pages.map(|p| diff(0, p.0, seq));
                    c.l.log_interval(seq, pages.to_vec(), &vt(&[seq, 0]), &diffs);
                }
            }
            let p0v = HashMap::from([(PageId(4), seq.saturating_sub(7)), (PageId(1), 5)]);
            let saves = copies.each_mut().map(|c| {
                c.l.trim_rule1(seq.saturating_sub(5));
                c.l.trim_rule3(&p0v);
                c.l.save(seq)
            });
            assert_eq!(saves[0], saves[1]);
            read += same(&copies);
            for (k, (c, save)) in copies.iter_mut().zip(saves).enumerate() {
                c.stable.append(&c.store, id, save.bytes, save.span);
                if k == 0 {
                    c.l.evict_saved();
                }
                c.stable.collect(&c.store, &save.bounds);
            }
            let ids = copies
                .each_ref()
                .map(|c| c.store.segment_ids(SegmentKind::Log));
            assert_eq!(ids[0], ids[1]);
            let live = copies
                .each_ref()
                .map(|c| c.store.live_bytes(SegmentKind::Log));
            assert_eq!(live[0], live[1]);
            read += same(&copies);
            assert_eq!(copies[0].l.resident_bytes(), 0, "all of it is saved");
        }
        assert!(read > 0, "the evicting copy served from its store");
        assert!(copies[0].l.peak_resident_bytes() < copies[1].l.peak_resident_bytes());
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

    /// A replayed grant is one the handshake's mirror restored: logging it
    /// again keeps the entry as the mirror has it, and a newer grant from
    /// the same granter is logged as before.
    #[test]
    fn a_grant_already_logged_from_its_granter_is_kept_as_it_is() {
        let mut l = VolatileLogs::new(0, 3);
        let grant = |acq_seq, t: &[u32]| RelEntry {
            acq_seq,
            lock: 4,
            gen: acq_seq + 1,
            req_vt: vt(&[0, 0, 0]),
            t_after: vt(t),
        };
        l.acq[1] = vec![grant(2, &[0, 1, 0]), grant(5, &[0, 2, 0])];
        for replayed in [grant(2, &[1, 1, 0]), grant(5, &[1, 2, 0])] {
            l.log_acq(1, replayed);
        }
        assert_eq!(l.acq[1], [grant(2, &[0, 1, 0]), grant(5, &[0, 2, 0])]);
        l.log_acq(1, grant(6, &[1, 3, 0]));
        l.log_acq(2, grant(3, &[0, 0, 1]));
        let seqs = |log: &[RelEntry]| log.iter().map(|e| e.acq_seq).collect::<Vec<_>>();
        assert_eq!((seqs(&l.acq[1]), seqs(&l.acq[2])), (vec![2, 5, 6], vec![3]));
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
