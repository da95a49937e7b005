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
//! * barrier crossing logs — a pair of logical times per crossing, mirrored
//!   between manager and participant.
//!
//! Trimming implements Rules 1–3 plus the barrier analogue, and every trim
//! and append is byte-accounted for Table 4 / Figure 4.

use std::collections::HashMap;
use std::sync::Arc;

use dsm_page::{PageId, ProcId, VectorClock};
use dsm_storage::{ByteReader, ByteWriter, CodecError};
use hlrc::LockId;

use crate::wire;

/// One own-interval write-notice record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WnLogEntry {
    /// The interval's sequence number at this node.
    pub seq: u32,
    /// Pages written in the interval.
    pub pages: Vec<PageId>,
    /// Has this entry been written to stable storage before? (Table 4's
    /// "saved logs" counts bytes on their first save only.)
    pub saved: bool,
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
    /// First-save tracking (not part of the wire encoding).
    pub saved: bool,
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

/// One barrier crossing: the participant's pair of logical times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarEntry {
    /// Episode number.
    pub episode: u64,
    /// The participant's timestamp at arrival.
    pub arrive_vt: VectorClock,
    /// The joined timestamp it was released with.
    pub result_vt: VectorClock,
}

/// The barrier manager's mirror: per episode, every participant's arrival
/// timestamp and the joined result (enough to regenerate any participant's
/// release).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgrBarEntry {
    /// Episode number.
    pub episode: u64,
    /// Arrival timestamps, indexed by process.
    pub arrival_vts: Vec<VectorClock>,
    /// The joined release timestamp.
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
    /// Grants sent, per acquirer (Rule 2).
    pub rel: Vec<Vec<RelEntry>>,
    /// Mirror of grants received, per granter (Rule 2).
    pub acq: Vec<Vec<RelEntry>>,
    /// Own barrier crossings.
    pub bar: Vec<BarEntry>,
    /// Manager-side barrier mirror (non-empty only at the barrier manager).
    pub bar_mgr: Vec<MgrBarEntry>,
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
            bar_mgr: Vec::new(),
            held: 0,
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
        let entry = WnLogEntry {
            seq,
            pages,
            saved: false,
        };
        let mut created = entry.wire_size() as u64;
        self.wn.push(entry);
        for diff in diffs {
            let d = DiffLogEntry {
                diff: Arc::clone(diff),
                t: t.clone(),
                saved: false,
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

    /// Record one of this node's barrier crossings.
    pub fn log_bar(&mut self, entry: BarEntry) {
        self.bar.push(entry);
    }

    /// Record a completed episode at the barrier manager.
    pub fn log_bar_mgr(&mut self, entry: MgrBarEntry) {
        self.bar_mgr.push(entry);
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
    /// (`tckp[j]` = last known checkpoint timestamp of process `j`) and the
    /// mirror against this node's own last checkpoint timestamp.
    pub fn trim_rule2(&mut self, tckp: &[VectorClock], own_ckp: &VectorClock) {
        let own_bound = own_ckp.get(self.me);
        for (j, peer_ckp) in tckp.iter().enumerate().take(self.n) {
            // Keep boundary entries (>=): an acquire with no writes since
            // the acquirer's checkpoint has t_after equal to the checkpoint
            // timestamp and is still needed for replay.
            let bound = peer_ckp.get(j);
            self.rel[j].retain(|e| e.t_after.get(j) >= bound);
            let me = self.me;
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
        self.bar_mgr.retain(|e| e.episode >= min_ckpt_episode);
    }

    /// Bytes of log entries that have never been saved before, marking them
    /// saved (call exactly once per stable save).
    pub fn mark_saved(&mut self) -> u64 {
        let mut newly = 0u64;
        for e in &mut self.wn {
            if !e.saved {
                newly += e.wire_size() as u64;
                e.saved = true;
            }
        }
        for log in self.diffs.values_mut() {
            for e in log {
                if !e.saved {
                    newly += e.wire_size() as u64;
                    e.saved = true;
                }
            }
        }
        newly
    }

    /// Encode the stable-save portion (wn + diff logs; lock and barrier
    /// logs are mirrored on other nodes and never saved): the notices, then
    /// per page with a log its id and entries, each in the layout messages
    /// use, so an entry's `wire_size` is its bytes here.
    pub fn encode_stable(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(4096);
        w.put_varint(self.wn.len() as u64);
        self.wn.iter().for_each(|e| wire::put_wn_entry(&mut w, e));
        let mut logs: Vec<_> = self.diffs.iter().collect();
        logs.sort_by_key(|&(p, _)| *p);
        w.put_varint(logs.len() as u64);
        for (p, log) in logs {
            w.put_varint(p.0.into());
            w.put_varint(log.len() as u64);
            log.iter().for_each(|e| wire::put_entry(&mut w, e));
        }
        w.into_bytes()
    }

    /// Decode one stable save and append its entries, marked saved. A
    /// restart clears the logs and merges the last checkpoint's save.
    pub fn decode_stable_merge(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(bytes);
        for _ in 0..r.get_varint()? {
            let e = wire::get_wn_entry(&mut r, true)?;
            self.held += e.wire_size() as u64;
            self.wn.push(e);
        }
        for _ in 0..r.get_varint()? {
            let page = wire::get_page(&mut r)?;
            let len = r.get_varint()?;
            let log = self.diffs.entry(page).or_default();
            for _ in 0..len {
                let e = wire::get_entry(&mut r, true)?;
                self.held += e.wire_size() as u64;
                log.push(e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_page::{Diff, Interval, Page};

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
        // strictly older and covered; the boundary would be retained.
        let tckp = vec![vt(&[0, 0]), vt(&[1, 3])];
        // Our own checkpoint at [3,1]: acq mirror entry t_after[me]=2 is
        // strictly below and trimmed.
        l.trim_rule2(&tckp, &vt(&[3, 1]));
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

    #[test]
    fn stable_encode_decode_roundtrip() {
        let mut l = VolatileLogs::new(0, 2);
        l.log_interval(
            1,
            vec![PageId(0), PageId(2)],
            &vt(&[1, 0]),
            &[diff(0, 0, 1)],
        );
        l.log_interval(2, vec![PageId(2)], &vt(&[2, 1]), &[diff(0, 2, 2)]);
        let bytes = l.encode_stable();
        // Saving marks entries; decoding marks them saved too.
        assert!(l.mark_saved() > 0);
        assert_eq!(l.mark_saved(), 0, "second save writes nothing new");
        let mut l2 = VolatileLogs::new(0, 2);
        l2.decode_stable_merge(&bytes).unwrap();
        assert_eq!(l2.wn, l.wn);
        assert_eq!(l2.diffs.len(), 2);
        assert_eq!(l2.diffs[&PageId(0)], l.diffs[&PageId(0)]);
        assert_eq!(l2.diffs[&PageId(2)], l.diffs[&PageId(2)]);
    }

    #[test]
    fn every_truncation_of_a_stable_log_segment_is_an_error() {
        let mut l = VolatileLogs::new(0, 2);
        l.log_interval(1, vec![PageId(0)], &vt(&[1, 0]), &[diff(0, 0, 1)]);
        l.log_interval(2, vec![PageId(2)], &vt(&[2, 1]), &[diff(0, 2, 2)]);
        let bytes = l.encode_stable();
        VolatileLogs::new(0, 2).decode_stable_merge(&bytes).unwrap();
        for len in 0..bytes.len() {
            let cut = VolatileLogs::new(0, 2).decode_stable_merge(&bytes[..len]);
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
                arrive_vt: vt(&[0, 0]),
                result_vt: vt(&[0, 0]),
            });
        }
        l.trim_bar(2);
        let eps: Vec<_> = l.bar.iter().map(|e| e.episode).collect();
        assert_eq!(eps, vec![2, 3]);
    }
}
