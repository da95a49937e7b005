//! Fault tolerance: logging, independent checkpointing, lazy log trimming
//! (LLT), checkpoint garbage collection (CGC), and recovery.
//!
//! The layer meets the base protocol in one module, [`FtSvc`]: a piggyback
//! made for every message out and absorbed from every message in, a log hook
//! ([`FtSvc::logs`]) the protocol writes its intervals, grants and barrier
//! crossings through, and the checkpoint a safe point captures and a later
//! operation publishes ([`ckpt`]).

pub mod ckpt;
pub mod logs;
pub mod recovery;
pub mod stable_log;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dsm_page::{elementwise_min, PageId, ProcId, VectorClock};
use dsm_storage::StableStore;
use hlrc::PageTable;

use crate::config::CkptPolicy;
use crate::msg::{CkptStamp, Piggy};
use crate::stats::FtReport;
pub(crate) use ckpt::{publish_written, take_checkpoint};
use ckpt::{CheckpointBlob, InFlight, RetainedCkpt};
use logs::{DiffLogEntry, VolatileLogs, WnLogEntry};
use stable_log::StableLog;

/// Per-node fault-tolerance state, when fault tolerance is on.
#[derive(Debug, PartialEq)]
pub(crate) struct FtState {
    policy: CkptPolicy,
    logs: VolatileLogs,
    store: Arc<StableStore>,
    /// The live log segments on `store`.
    stable_log: StableLog,
    /// Every process's last checkpoint as far as this node knows it,
    /// indexed by process. Its own entry is exact: it is set when a
    /// checkpoint is taken or restored.
    stamps: Vec<CkptStamp>,
    /// Learned `p0.v[me]` per remote-homed page this node writes (LLT).
    p0v_known: HashMap<PageId, u32>,
    /// Retained checkpoint window, oldest first.
    retained: Vec<RetainedCkpt>,
    /// Round-robin cursor for the `p0.v` piggyback: the page id its walk
    /// over the homed pages resumes at.
    piggy_cursor: usize,
    /// Own checkpoint sequence last advertised to each peer (a piggyback is
    /// only attached when it carries news).
    piggy_sent: Vec<u64>,
    /// Largest `p0.v[writer]` hint already sent per (page, writer).
    p0v_sent: HashMap<(PageId, ProcId), u32>,
    /// Latched "checkpoint at next safe point" flag.
    ckpt_due: bool,
    /// The checkpoint captured and not yet published: the disk is still
    /// writing it, so it is neither on `store` nor advertised.
    inflight: Option<InFlight>,
    /// Statistics.
    report: FtReport,
}

impl FtState {
    pub(crate) fn new(me: ProcId, n: usize, policy: CkptPolicy, store: Arc<StableStore>) -> Self {
        FtState {
            policy,
            logs: VolatileLogs::new(me, n),
            store,
            stable_log: StableLog::default(),
            stamps: vec![CkptStamp::zero(n); n],
            p0v_known: HashMap::new(),
            retained: Vec::new(),
            piggy_cursor: 0,
            piggy_sent: vec![u64::MAX; n],
            p0v_sent: HashMap::new(),
            ckpt_due: false,
            inflight: None,
            report: FtReport::default(),
        }
    }

    /// Restart after a failure: everything volatile is rebuilt from stable
    /// storage — the saved logs (the live segments up to `image`'s), the
    /// retained window (`window`, indexed from every blob still stored, the
    /// newest being `image`) and the image's own checkpoint bookkeeping —
    /// and what was known about the peers is forgotten (their next
    /// piggybacks teach it again). Configuration, the store, the statistics
    /// — the logs' byte counters among them — and the piggyback cursor
    /// survive. Returns the kept own write notices, read off the saved logs
    /// as they are indexed.
    pub(crate) fn restart_from(
        &mut self,
        me: ProcId,
        n: usize,
        image: &CheckpointBlob,
        window: Vec<RetainedCkpt>,
    ) -> Vec<WnLogEntry> {
        self.report.recoveries += 1;
        self.retained = window;
        // The saved logs: every live segment the image's checkpoint or an
        // earlier one wrote (none before the first checkpoint), indexed.
        let through = image.tckp.get(me);
        let wn = (self.stable_log)
            .restore(&self.store, &mut self.logs, image.seq, through)
            .expect("corrupt saved logs");
        self.stamps = vec![CkptStamp::zero(n); n];
        self.stamps[me] = image.stamp();
        self.p0v_known.clear();
        self.p0v_sent.clear();
        self.piggy_sent = vec![u64::MAX; n];
        self.ckpt_due = false;
        self.inflight = None;
        wn
    }

    /// This node's logged diffs for `page` past own interval `have`, the
    /// saved ones read back from the store ([`VolatileLogs::diffs_after`]).
    pub(crate) fn diffs_after(&mut self, page: PageId, have: u32) -> Vec<DiffLogEntry> {
        let (entries, read) = (self.logs).diffs_after(&self.stable_log, &self.store, page, have);
        self.report.log_entries_read += read as u64;
        entries
    }

    /// Every kept own write notice, the saved ones read back from the store
    /// ([`VolatileLogs::wn_log`]).
    pub(crate) fn wn_log(&mut self) -> Vec<WnLogEntry> {
        let (wn, read) = self.logs.wn_log(&self.stable_log, &self.store);
        self.report.log_entries_read += read as u64;
        wn
    }

    /// The gossip table: everything this node knows about everyone's last
    /// checkpoint (attached to barrier releases).
    pub(crate) fn gossip_table(&self, me: ProcId) -> Vec<(ProcId, CkptStamp)> {
        let known = self.stamps.iter().enumerate();
        let known = known.filter(|&(j, s)| j != me && s.seq > 0);
        known.map(|(j, s)| (j, s.clone())).collect()
    }

    /// The last known checkpoints of every process but `me`.
    fn peer_stamps(&self, me: ProcId) -> impl Iterator<Item = &CkptStamp> {
        let all = self.stamps.iter().enumerate();
        all.filter(move |&(j, _)| j != me).map(|(_, s)| s)
    }

    /// `Tmin = min_{j != me} T^j_ckp` (Rule 3).
    pub(crate) fn tmin_peers(&self, me: ProcId) -> Option<VectorClock> {
        elementwise_min(self.peer_stamps(me).map(|s| &s.tckp))
    }

    /// Rule 3's gate: the version of `page` in the oldest retained
    /// checkpoint — the `p0.v` the CGC rule pins, which bounds every
    /// writer's diff log — but only when `tmin` ([`FtState::tmin_peers`])
    /// covers that whole checkpoint. CGC keeps, for every peer, the newest
    /// retained checkpoint the peer's stamp covers whole, so only then does
    /// every peer's restart find a copy of each page at least this new.
    /// Otherwise some peer's recovery may start a page from the virtual
    /// initial (zero) copy, so no diff may be trimmed and nothing is
    /// advertised.
    fn cover_version(&self, tmin: &VectorClock, page: PageId) -> Option<&VectorClock> {
        let oldest = self.retained.first()?;
        oldest
            .covered_by(tmin)
            .then(|| oldest.versions.get(&page))?
    }

    /// The `p0.v` hints for a message to `to`: the bound of each page of
    /// `pt` homed here that `to` writes, gated by `tmin` as
    /// [`FtState::cover_version`] says, each `(page, writer, bound)` once —
    /// at most [`PIGGY_PAGE_BATCH`] of them, walking the pages round-robin
    /// from where the last message stopped. The walk reads the page slots in
    /// place: a send allocates nothing unless it has a hint.
    fn p0v_hints(&mut self, pt: &PageTable, to: ProcId, tmin: &VectorClock) -> Vec<(PageId, u32)> {
        let mut p0v = Vec::new();
        let len = pt.len();
        let start = self.piggy_cursor % len.max(1);
        for k in 0..len {
            if p0v.len() >= PIGGY_PAGE_BATCH {
                break;
            }
            let page = PageId(((start + k) % len) as u32);
            if !pt.is_home(page) {
                continue;
            }
            self.piggy_cursor = (start + k + 1) % len;
            if !pt.home_writers_contain(page, to) {
                continue;
            }
            let bound = self.cover_version(tmin, page).map_or(0, |v| v.get(to));
            if bound > 0 && self.p0v_sent.get(&(page, to)).copied().unwrap_or(0) < bound {
                self.p0v_sent.insert((page, to), bound);
                p0v.push((page, bound));
            }
        }
        p0v
    }
}

/// Most per-page `p0.v[writer]` integers piggybacked on a single home→writer
/// message (the lazy CGC/LLT propagation).
const PIGGY_PAGE_BATCH: usize = 32;

/// The fault-tolerance layer of one node. It is there in base-HLRC runs
/// too, where everything it does is a no-op: `state` is unset.
#[derive(Debug, PartialEq)]
pub(crate) struct FtSvc {
    me: ProcId,
    n: usize,
    state: Option<FtState>,
}

impl FtSvc {
    pub(crate) fn new(me: ProcId, n: usize, state: Option<FtState>) -> Self {
        FtSvc { me, n, state }
    }

    /// Fail-stop: the checkpoint the disk was still writing is lost — the
    /// restart reads the one before it. The volatile half of the FT state
    /// is overwritten from stable storage by [`FtSvc::restart_from`].
    pub(crate) fn fail_stop(&mut self) {
        if let Some(ft) = &mut self.state {
            ft.inflight = None;
        }
    }

    /// Restart (see [`FtState::restart_from`]); returns the kept own
    /// write notices.
    pub(crate) fn restart_from(
        &mut self,
        image: &CheckpointBlob,
        window: Vec<RetainedCkpt>,
    ) -> Vec<WnLogEntry> {
        let ft = self.state.as_mut().expect("recovery requires FT");
        ft.restart_from(self.me, self.n, image, window)
    }

    /// The log hook: where the base protocol records its intervals, grants
    /// and barrier crossings. `None` when fault tolerance is off.
    pub(crate) fn logs(&mut self) -> Option<&mut VolatileLogs> {
        self.state.as_mut().map(|ft| &mut ft.logs)
    }

    /// The FT piggyback for a message to `to`, when it carries news: a
    /// checkpoint timestamp the destination hasn't seen, `p0.v` hints for
    /// pages of `pt` homed here that `to` writes, or — with `gossip`, on
    /// barrier releases — the gossip table.
    pub(crate) fn make_piggy(&mut self, pt: &PageTable, to: ProcId, gossip: bool) -> Option<Piggy> {
        let me = self.me;
        let ft = self.state.as_mut()?;
        // `p0.v` hints exist only once a checkpoint is retained and `Tmin`
        // is known; until then (and in base-HLRC runs) no send pays the walk
        // over the page slots.
        let tmin = ft.retained.first().and_then(|_| ft.tmin_peers(me));
        let p0v = tmin.map_or_else(Vec::new, |tmin| ft.p0v_hints(pt, to, &tmin));
        let stamp = &ft.stamps[me];
        let news = ft.piggy_sent[to] != stamp.seq;
        let table = if gossip {
            ft.gossip_table(me)
        } else {
            Vec::new()
        };
        if !news && p0v.is_empty() && table.is_empty() {
            return None;
        }
        ft.piggy_sent[to] = stamp.seq;
        Some(Piggy {
            stamp: stamp.clone(),
            p0v,
            table,
        })
    }

    /// Merge a received piggyback.
    pub(crate) fn absorb_piggy(&mut self, from: ProcId, piggy: &Piggy) {
        let Some(ft) = &mut self.state else {
            return;
        };
        ft.stamps[from].merge(&piggy.stamp);
        for &(page, v) in &piggy.p0v {
            let e = ft.p0v_known.entry(page).or_insert(0);
            if v > *e {
                *e = v;
            }
        }
        for (proc_, stamp) in &piggy.table {
            ft.stamps[*proc_].merge(stamp);
        }
    }

    /// Latch a checkpoint for the next safe point.
    pub(crate) fn request_checkpoint(&mut self) {
        if let Some(ft) = &mut self.state {
            ft.ckpt_due = true;
        }
    }

    /// Evaluate the checkpoint policy at a synchronization point — after a
    /// release, or after crossing barrier `crossed` — with `footprint` bytes
    /// of shared memory allocated. `OF(L)` latches nothing while a
    /// checkpoint is in flight: a second one, on the log the first has not
    /// trimmed yet, would only wait for the disk.
    pub(crate) fn policy_check(&mut self, footprint: u64, crossed: Option<u64>) {
        let Some(ft) = &mut self.state else {
            return;
        };
        ft.ckpt_due |= match ft.policy {
            CkptPolicy::LogOverflow { l } => {
                let limit = (l * footprint as f64) as u64;
                let over = footprint > 0 && ft.logs.volatile_bytes() > limit;
                over && ft.inflight.is_none()
            }
            CkptPolicy::AtBarrier(k) => {
                crossed.is_some_and(|episode| k > 0 && (episode + 1).is_multiple_of(k))
            }
            _ => false,
        };
    }

    /// Should a checkpoint be taken at this safe point (step boundary)?
    pub(crate) fn ckpt_due_at_step(&self, step: u64) -> bool {
        let Some(ft) = &self.state else {
            return false;
        };
        match ft.policy {
            CkptPolicy::LogOverflow { .. } | CkptPolicy::Manual | CkptPolicy::AtBarrier(_) => {
                ft.ckpt_due
            }
            CkptPolicy::EverySteps(k) => {
                ft.ckpt_due || (k > 0 && step > 0 && step.is_multiple_of(k))
            }
            CkptPolicy::Never => false,
        }
    }

    /// When the disk is done with the checkpoint in flight, if there is one.
    pub(crate) fn disk_busy_until(&self) -> Option<Instant> {
        let ft = self.state.as_ref()?;
        ft.inflight.as_ref().map(|w| w.done_at)
    }

    /// The layer's statistics so far.
    pub(crate) fn report(&self) -> FtReport {
        let Some(ft) = &self.state else {
            return FtReport::default();
        };
        FtReport {
            log_counters: ft.logs.counters(),
            max_resident_log_bytes: ft.logs.peak_resident_bytes(),
            store: ft.store.stats(),
            ..ft.report.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_storage::DiskModel;

    fn ft_state(me: ProcId, n: usize, store: &Arc<StableStore>) -> FtState {
        FtState::new(me, n, CkptPolicy::default(), Arc::clone(store))
    }

    fn stamp(seq: u64, tckp: &[u32]) -> CkptStamp {
        let tckp = VectorClock::from_vec(tckp.to_vec());
        CkptStamp {
            seq,
            episode: seq.saturating_mul(10),
            tckp,
        }
    }

    #[test]
    fn piggyback_is_attached_only_when_it_carries_news() {
        // The layer alone: no node, no endpoint, an empty page table.
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let mut ft = FtSvc::new(0, 2, Some(ft_state(0, 2, &store)));
        let pt = PageTable::new(0, 2, 256);
        // Fresh FT state advertises checkpoint 0 once.
        let first = ft.make_piggy(&pt, 1, false);
        assert!(first.is_some());
        let second = ft.make_piggy(&pt, 1, false);
        assert!(second.is_none(), "no news: no piggyback");
        // A gossip request always produces one (even without news) when the
        // table would be empty it still returns None though:
        let gossip = ft.make_piggy(&pt, 1, true);
        assert!(gossip.is_none(), "empty gossip table carries no news");
        // After a checkpoint-sequence bump, news flows again.
        ft.state.as_mut().unwrap().stamps[0].seq = 1;
        assert!(ft.make_piggy(&pt, 1, false).is_some());
        // With fault tolerance off there is never anything to say.
        assert!(FtSvc::new(0, 2, None).make_piggy(&pt, 1, true).is_none());
    }

    #[test]
    fn p0v_hints_wait_for_tmin_go_to_each_writer_once_and_come_in_batches() {
        use crate::runtime::node::tests::diff_of;
        // Node 0 of 3 homes 40 pages. Node 1 wrote every one of them, node 2
        // page 0 only, and the oldest retained checkpoint holds what they
        // wrote.
        let (n, pages) = (3, 40);
        let vt = |v: [u32; 3]| VectorClock::from_vec(v.to_vec());
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let mut ft = FtSvc::new(0, n, Some(ft_state(0, n, &store)));
        let mut pt = PageTable::new(0, n, 256);
        for p in 0..pages {
            pt.add_page(0);
            assert!(pt.home_apply_diff(&diff_of(p, 1, 1)));
        }
        assert!(pt.home_apply_diff(&diff_of(0, 2, 1)));
        let versions = (0..pages).map(|p| (PageId(p), pt.home_version(PageId(p))));
        let retained = RetainedCkpt::new(1, versions.collect());
        fn state(ft: &mut FtSvc) -> &mut FtState {
            ft.state.as_mut().unwrap()
        }
        state(&mut ft).retained.push(retained);
        let hints = |ft: &mut FtSvc, to| {
            let piggy = ft.make_piggy(&pt, to, false);
            piggy.map_or_else(Vec::new, |p| p.p0v)
        };

        // Tmin is zero: a peer may restart from the zero copy, so no writer
        // is told it may trim.
        assert!(hints(&mut ft, 1).is_empty() && hints(&mut ft, 2).is_empty());
        // Tmin covers every page's copy but page 0's: CGC may drop the
        // checkpoint, and a peer's restart then starts every page from the
        // zero copy, so still no writer is told anything.
        state(&mut ft).stamps = vec![stamp(1, &[0, 1, 0]); n];
        assert!(hints(&mut ft, 1).is_empty() && hints(&mut ft, 2).is_empty());
        // Every peer has checkpointed past the copy: node 1 learns the bound
        // of every page it writes, at most a batch a message; node 2 only
        // page 0's. Then nothing is news.
        state(&mut ft).stamps = vec![stamp(1, &[0, 1, 1]); n];
        let first = hints(&mut ft, 1);
        let second = hints(&mut ft, 1);
        assert_eq!(first.len(), PIGGY_PAGE_BATCH);
        let mut told: Vec<_> = first.into_iter().chain(second).collect();
        told.sort_unstable();
        assert_eq!(told, (0..pages).map(|p| (PageId(p), 1)).collect::<Vec<_>>());
        assert!(hints(&mut ft, 1).is_empty(), "a bound is told once");
        assert_eq!(hints(&mut ft, 2), [(PageId(0), 1)]);
        assert!(hints(&mut ft, 2).is_empty());
        // A higher bound for the same page and writer is news again.
        let ft_state = state(&mut ft);
        let mut versions = ft_state.retained[0].versions.clone();
        versions.insert(PageId(0), vt([0, 2, 1]));
        ft_state.retained[0] = RetainedCkpt::new(1, versions);
        ft_state.stamps = vec![stamp(2, &[0, 2, 1]); n];
        assert_eq!(hints(&mut ft, 1), [(PageId(0), 2)]);
        assert!(hints(&mut ft, 2).is_empty());
    }

    #[test]
    fn a_crash_and_a_genesis_restart_leave_a_new_layer_but_for_its_survivors() {
        let (me, n) = (1, 3);
        let vt = |v: [u32; 3]| VectorClock::from_vec(v.to_vec());
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let mut svc = FtSvc::new(me, n, Some(ft_state(me, n, &store)));
        // One interval logged, its write notice trimmed: bytes created and
        // bytes discarded, which the run's report must not forget.
        let log_and_trim = |logs: &mut VolatileLogs| {
            let twin = dsm_page::Page::zeroed(64);
            let mut cur = twin.clone();
            cur.write(0, &[5]);
            let iv = dsm_page::Interval { proc: me, seq: 5 };
            let d = Arc::new(dsm_page::Diff::create(PageId(0), iv, &twin, &cur).unwrap());
            logs.log_interval(5, vec![PageId(0)], &vt([3, 5, 1]), &[d]);
            logs.trim_rule1(5);
        };
        {
            let ft = svc.state.as_mut().unwrap();
            log_and_trim(&mut ft.logs);
            ft.stamps[0] = stamp(3, &[2, 0, 0]);
            ft.p0v_known.insert(PageId(0), 2);
            ft.p0v_sent.insert((PageId(1), 0), 2);
            ft.piggy_sent = vec![0; n];
            ft.ckpt_due = true;
            // ... and what a crash must leave alone.
            ft.piggy_cursor = 2;
            ft.report.ckpts_taken = 3;
        }
        let before = svc.report().log_counters;
        assert!(before.created_bytes > before.discarded_bytes && before.discarded_bytes > 0);
        svc.fail_stop();
        assert!(svc
            .restart_from(&CheckpointBlob::genesis(n), Vec::new())
            .is_empty());

        // The logs' entries are gone, their byte counters are not: what a
        // later checkpoint saves was created once and is counted once
        // (`log_bytes_saved` ≤ `created_bytes` over any number of crashes).
        assert_eq!(svc.report().log_counters, before);
        let mut report = FtReport::default();
        (report.ckpts_taken, report.recoveries) = (3, 1);
        let mut survivors = FtState {
            piggy_cursor: 2,
            report,
            ..ft_state(me, n, &store)
        };
        log_and_trim(&mut survivors.logs);
        survivors.logs.clear();
        assert_eq!(svc, FtSvc::new(me, n, Some(survivors)));
    }

    #[test]
    fn the_newest_checkpoint_wins_in_any_order_and_gossip_never_lowers_a_direct_stamp() {
        let stamps = [
            stamp(2, &[1, 4, 0]),
            stamp(0, &[0, 0, 0]),
            stamp(5, &[3, 9, 2]),
            stamp(3, &[2, 6, 1]),
            stamp(u64::MAX, &[7, 7, 7]),
        ];
        // Every order of the same stamps merges to the one with the newest
        // seq; a decoded `u64::MAX` is never taken.
        for first in 0..stamps.len() {
            for step in 1..stamps.len() {
                let mut known = CkptStamp::zero(3);
                for k in 0..stamps.len() {
                    known.merge(&stamps[(first + k * step) % stamps.len()]);
                }
                assert_eq!(known, stamps[2], "order {first} + k * {step}");
            }
        }

        // Node 2 of 3 hears node 1's checkpoint 3 from node 1 itself, then
        // node 0's barrier release, whose gossip names node 1's older
        // checkpoint 2.
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let mut ft = FtSvc::new(2, 3, Some(ft_state(2, 3, &store)));
        let direct = Piggy {
            stamp: stamps[3].clone(),
            p0v: Vec::new(),
            table: Vec::new(),
        };
        ft.absorb_piggy(1, &direct);
        let release = Piggy {
            stamp: stamps[2].clone(),
            p0v: Vec::new(),
            table: vec![(1, stamps[0].clone())],
        };
        ft.absorb_piggy(0, &release);
        let known = &ft.state.as_ref().unwrap().stamps;
        assert_eq!(known[1], stamps[3], "gossip lowered a direct stamp");
        assert_eq!(known[0], stamps[2]);
    }
}
