//! Fault tolerance: logging, independent checkpointing, lazy log trimming
//! (LLT), checkpoint garbage collection (CGC), and recovery.
//!
//! The layer meets the base protocol in one module, [`FtSvc`]: a piggyback
//! made for every message out and absorbed from every message in, a log hook
//! ([`FtSvc::logs`]) the protocol writes its intervals, grants and barrier
//! crossings through, the retry layer's diff outbox with the `DiffAck` kind,
//! and the checkpoint a safe point takes.

pub mod ckpt;
pub mod logs;
mod outbox;
pub mod recovery;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_page::{elementwise_min, Diff, PageId, ProcId, VectorClock};
use dsm_storage::{SegmentKind, StableStore};
use dsm_trace::{EventKind, TrimRule};
use hlrc::PageTable;

use crate::config::{CkptPolicy, FtConfig};
use crate::msg::{Payload, Piggy};
use crate::runtime::node::NodeState;
use crate::stats::{Breakdown, FtReport};
use ckpt::{CheckpointBlob, RetainedCkpt};
use logs::VolatileLogs;
use outbox::DiffOutbox;
pub(crate) use outbox::SeqBatch;

/// Per-node fault-tolerance state, when fault tolerance is on.
#[derive(Debug, PartialEq)]
pub(crate) struct FtState {
    cfg: FtConfig,
    logs: VolatileLogs,
    store: Arc<StableStore>,
    /// Last known checkpoint timestamp of every process (self kept exact).
    tckp: Vec<VectorClock>,
    /// Last known checkpoint sequence number per process.
    peer_ckpt_seq: Vec<u64>,
    /// Last known checkpointed barrier-episode count per process.
    peer_ckpt_episode: Vec<u64>,
    /// This node's checkpoint count.
    ckpt_seq: u64,
    /// This node's restart-checkpoint timestamp.
    last_ckpt_vt: VectorClock,
    /// Barrier episodes crossed at the last checkpoint.
    last_ckpt_episode: u64,
    /// Learned `p0.v[me]` per remote-homed page this node writes (LLT).
    p0v_known: HashMap<PageId, u32>,
    /// Retained checkpoint window, oldest first.
    retained: Vec<RetainedCkpt>,
    /// Round-robin cursor over homed pages for the `p0.v` piggyback.
    piggy_cursor: usize,
    /// Own checkpoint sequence last advertised to each peer (a piggyback is
    /// only attached when it carries news).
    piggy_sent: Vec<u64>,
    /// Largest `p0.v[writer]` hint already sent per (page, writer).
    p0v_sent: HashMap<(PageId, ProcId), u32>,
    /// Latched "checkpoint at next safe point" flag.
    ckpt_due: bool,
    /// Statistics.
    report: FtReport,
}

impl FtState {
    pub(crate) fn new(me: ProcId, n: usize, cfg: FtConfig, store: Arc<StableStore>) -> Self {
        FtState {
            cfg,
            logs: VolatileLogs::new(me, n),
            store,
            tckp: vec![VectorClock::zero(n); n],
            peer_ckpt_seq: vec![0; n],
            peer_ckpt_episode: vec![0; n],
            ckpt_seq: 0,
            last_ckpt_vt: VectorClock::zero(n),
            last_ckpt_episode: 0,
            p0v_known: HashMap::new(),
            retained: Vec::new(),
            piggy_cursor: 0,
            piggy_sent: vec![u64::MAX; n],
            p0v_sent: HashMap::new(),
            ckpt_due: false,
            report: FtReport::default(),
        }
    }

    /// Restart after a failure: everything volatile is rebuilt from stable
    /// storage — the saved logs, the retained window (`window`, indexed from
    /// every blob still stored, the newest being `image`) and the image's own
    /// checkpoint bookkeeping — and what was known about the peers is
    /// forgotten (their next piggybacks teach it again). Configuration, the
    /// store, the statistics — the logs' byte counters among them — and the
    /// piggyback cursor survive.
    pub(crate) fn restart_from(
        &mut self,
        n: usize,
        image: &CheckpointBlob,
        window: Vec<RetainedCkpt>,
    ) {
        self.report.recoveries += 1;
        self.retained = window;
        self.ckpt_seq = image.seq;
        self.last_ckpt_vt = image.tckp.clone();
        self.last_ckpt_episode = image.bar_episode;
        // The saved logs: the last checkpoint's save, segment 0 (none
        // before the first checkpoint).
        self.logs.clear();
        if let Some(seg) = self.store.read_segment(SegmentKind::Log, 0) {
            self.logs
                .decode_stable_merge(&seg)
                .expect("corrupt saved logs");
        }
        self.tckp = vec![VectorClock::zero(n); n];
        self.peer_ckpt_seq = vec![0; n];
        self.peer_ckpt_episode = vec![0; n];
        self.p0v_known.clear();
        self.p0v_sent.clear();
        self.piggy_sent = vec![u64::MAX; n];
        self.ckpt_due = false;
    }

    /// The gossip table: everything this node knows about everyone's last
    /// checkpoint (attached to barrier releases).
    pub(crate) fn gossip_table(&self, me: ProcId) -> Vec<(ProcId, u64, u64, VectorClock)> {
        (0..self.tckp.len())
            .filter(|&j| j != me && self.peer_ckpt_seq[j] > 0)
            .map(|j| {
                (
                    j,
                    self.peer_ckpt_seq[j],
                    self.peer_ckpt_episode[j],
                    self.tckp[j].clone(),
                )
            })
            .collect()
    }

    /// `Tmin = min_{j != me} T^j_ckp` (Rule 3).
    pub(crate) fn tmin_peers(&self, me: ProcId) -> Option<VectorClock> {
        elementwise_min(
            self.tckp
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != me)
                .map(|(_, v)| v),
        )
    }

    /// Rule 3's gate: the version of `page` in the oldest retained
    /// checkpoint — the `p0.v` the CGC rule pins, which bounds every
    /// writer's diff log — but only when `tmin` ([`FtState::tmin_peers`])
    /// covers it. Otherwise some peer's recovery may need to start from the
    /// virtual initial (zero) copy, so no diff may be trimmed and nothing is
    /// advertised.
    fn cover_version(&self, tmin: &VectorClock, page: PageId) -> Option<&VectorClock> {
        let v = self.retained.first()?.versions.get(&page)?;
        tmin.covers(v).then_some(v)
    }

    /// The `p0.v` hints for a message to `to`: the bound of each page of
    /// `pt` homed here that `to` writes, gated by `tmin` as
    /// [`FtState::cover_version`] says, each `(page, writer, bound)` once —
    /// at most [`PIGGY_PAGE_BATCH`] of them, walking the pages round-robin
    /// from where the last message stopped.
    fn p0v_hints(&mut self, pt: &PageTable, to: ProcId, tmin: &VectorClock) -> Vec<(PageId, u32)> {
        let homed = pt.homed_pages();
        let mut p0v = Vec::new();
        if homed.is_empty() {
            return p0v;
        }
        let start = self.piggy_cursor % homed.len();
        for k in 0..homed.len() {
            if p0v.len() >= PIGGY_PAGE_BATCH {
                break;
            }
            let page = homed[(start + k) % homed.len()];
            self.piggy_cursor = (start + k + 1) % homed.len();
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

/// The fault-tolerance layer of one node. It is there in base-HLRC runs too
/// (the retry layer's outbox works without logging); everything else it does
/// is a no-op until `state` is set.
#[derive(Debug, PartialEq)]
pub(crate) struct FtSvc {
    me: ProcId,
    n: usize,
    state: Option<FtState>,
    /// Request/diff retransmission timeout; `Some` switches the retry layer
    /// on (set together with membership).
    retry_after: Option<Duration>,
    /// The retry layer's stop-and-wait outbox of unacknowledged diff
    /// batches (empty when the retry layer is off).
    diffs: DiffOutbox,
}

impl FtSvc {
    pub(crate) fn new(
        me: ProcId,
        n: usize,
        state: Option<FtState>,
        retry_after: Option<Duration>,
    ) -> Self {
        let diffs = DiffOutbox::new(n);
        FtSvc {
            me,
            n,
            state,
            retry_after,
            diffs,
        }
    }

    /// Fail-stop: the queued diff batches are lost (replay regenerates the
    /// diffs, under new sequence numbers). The volatile half of the FT state
    /// is overwritten from stable storage by [`FtSvc::restart_from`].
    pub(crate) fn fail_stop(&mut self) {
        self.diffs.clear();
    }

    /// Restart (see [`FtState::restart_from`]).
    pub(crate) fn restart_from(&mut self, image: &CheckpointBlob, window: Vec<RetainedCkpt>) {
        let ft = self.state.as_mut().expect("recovery requires FT");
        ft.restart_from(self.n, image, window);
    }

    /// The log hook: where the base protocol records its intervals, grants
    /// and barrier crossings. `None` when fault tolerance is off.
    pub(crate) fn logs(&mut self) -> Option<&mut VolatileLogs> {
        self.state.as_mut().map(|ft| &mut ft.logs)
    }

    /// The retry timeout, when the retry layer is on.
    pub(crate) fn retry_after(&self) -> Option<Duration> {
        self.retry_after
    }

    /// Has every diff batch been acknowledged? (A checkpoint and teardown
    /// wait for it.)
    pub(crate) fn drained(&self) -> bool {
        self.diffs.drained()
    }

    /// What to put on the wire to `home` now for one coalesced diff batch:
    /// with the retry layer off, the batch itself under `seq: 0` (no ack —
    /// the reliable-fabric hot path is unchanged); with it on, the batch
    /// enters the per-home stop-and-wait outbox and this is the outbox's
    /// next to send, stamped in flight — `None` while one is still
    /// unacknowledged there (the new one goes when that ack comes).
    pub(crate) fn batch_out(&mut self, home: ProcId, batch: Vec<Arc<Diff>>) -> Option<SeqBatch> {
        if self.retry_after.is_none() {
            return Some((0, batch));
        }
        self.diffs.push(home, batch);
        self.diffs.start_next(home)
    }

    /// The `needed` version a fetch of `page` should carry: the accumulated
    /// invalidation vector plus the seq of our own last diff for the page
    /// the outbox may still hold (see [`DiffOutbox::fold_needed`]).
    pub(crate) fn fetch_needed(&self, page: PageId, mut needed: VectorClock) -> VectorClock {
        self.diffs.fold_needed(self.me, page, &mut needed);
        needed
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
        let news = ft.piggy_sent[to] != ft.ckpt_seq;
        let table = if gossip {
            ft.gossip_table(me)
        } else {
            Vec::new()
        };
        if !news && p0v.is_empty() && table.is_empty() {
            return None;
        }
        ft.piggy_sent[to] = ft.ckpt_seq;
        Some(Piggy {
            tckp: ft.last_ckpt_vt.clone(),
            ckpt_seq: ft.ckpt_seq,
            ckpt_episode: ft.last_ckpt_episode,
            p0v,
            table,
        })
    }

    /// Merge a received piggyback.
    pub(crate) fn absorb_piggy(&mut self, from: ProcId, piggy: &Piggy) {
        let Some(ft) = &mut self.state else {
            return;
        };
        if piggy.ckpt_seq > ft.peer_ckpt_seq[from] {
            ft.peer_ckpt_seq[from] = piggy.ckpt_seq;
            ft.peer_ckpt_episode[from] = piggy.ckpt_episode;
            ft.tckp[from] = piggy.tckp.clone();
        }
        for &(page, v) in &piggy.p0v {
            let e = ft.p0v_known.entry(page).or_insert(0);
            if v > *e {
                *e = v;
            }
        }
        for (proc_, seq, episode, tckp) in &piggy.table {
            if *seq != u64::MAX && *seq > ft.peer_ckpt_seq[*proc_] {
                ft.peer_ckpt_seq[*proc_] = *seq;
                ft.peer_ckpt_episode[*proc_] = *episode;
                ft.tckp[*proc_] = tckp.clone();
            }
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
    /// of shared memory allocated.
    pub(crate) fn policy_check(&mut self, footprint: u64, crossed: Option<u64>) {
        let Some(ft) = &mut self.state else {
            return;
        };
        ft.ckpt_due |= match ft.cfg.policy {
            CkptPolicy::LogOverflow { l } => {
                let limit = (l * footprint as f64) as u64;
                footprint > 0 && ft.logs.volatile_bytes() > limit
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
        match ft.cfg.policy {
            CkptPolicy::LogOverflow { .. } | CkptPolicy::Manual | CkptPolicy::AtBarrier(_) => {
                ft.ckpt_due
            }
            CkptPolicy::EverySteps(k) => {
                ft.ckpt_due || (k > 0 && step > 0 && step.is_multiple_of(k))
            }
            CkptPolicy::Never => false,
        }
    }

    /// Diff batches queued and not yet acknowledged.
    pub(crate) fn outbox_depth(&self) -> usize {
        self.diffs.depth()
    }

    /// The layer's statistics so far.
    pub(crate) fn report(&self) -> FtReport {
        let Some(ft) = &self.state else {
            return FtReport::default();
        };
        FtReport {
            log_counters: ft.logs.counters(),
            store: ft.store.stats(),
            ..ft.report.clone()
        }
    }
}

/// Send one coalesced diff batch to a remote home (see
/// [`FtSvc::batch_out`]).
pub(crate) fn send_diff_batch(st: &mut NodeState, home: ProcId, batch: Vec<Arc<Diff>>) {
    if let Some((seq, diffs)) = st.ft.batch_out(home, batch) {
        st.send(home, Payload::DiffBatch { seq, diffs });
    }
}

/// Transmit the next batch queued for `home`, unless one is still
/// unacknowledged there.
fn pump_diffs(st: &mut NodeState, home: ProcId) {
    if let Some((seq, diffs)) = st.ft.diffs.start_next(home) {
        st.send(home, Payload::DiffBatch { seq, diffs });
    }
}

/// Retransmit the diff batch in flight to `home`, if there is one.
/// Re-delivery is idempotent at the home (per-writer version gate); the
/// duplicate ack is dropped by seq.
pub(crate) fn resend_inflight_diffs(st: &mut NodeState, home: ProcId) {
    if let Some((seq, diffs)) = st.ft.diffs.resend(home) {
        st.retransmit(home, Payload::DiffBatch { seq, diffs });
    }
}

/// Retransmit every in-flight diff batch older than the retry timeout
/// (driven by the membership ticker and by the application thread whenever
/// one of its own waits times out).
pub(crate) fn retransmit_stale_diffs(st: &mut NodeState) {
    let Some(after) = st.ft.retry_after else {
        return;
    };
    for home in st.ft.diffs.stale(after) {
        resend_inflight_diffs(st, home);
    }
}

/// The module's message kind: `home` acknowledged diff batch `seq`.
pub(crate) fn on_diff_ack(st: &mut NodeState, home: ProcId, seq: u64) {
    if !st.ft.diffs.ack(home, seq) {
        st.dup_suppressed += 1;
        return;
    }
    pump_diffs(st, home);
    // A checkpoint waits for exactly this (`safe_point`).
    if st.ft.diffs.drained() {
        st.ep.poke();
    }
}

/// Take an independent checkpoint on the application thread.
///
/// `app_state` is the encoded private state at step `step`. The logging and
/// trimming time and the modeled disk time are charged to `bd`.
pub(crate) fn take_checkpoint(
    st: &mut NodeState,
    step: u64,
    app_state: Vec<u8>,
    bd: &mut Breakdown,
) {
    // The caller has closed the interval (and charged it): the checkpoint
    // has no twins and the saved diff logs include everything up to T_ckp.
    debug_assert!(!st.pt.has_writes(), "checkpoint inside an open interval");

    let me = st.me;
    let n = st.n;
    let tckp = st.vt.clone();
    let tracing = st.tracer.enabled();
    let t_ckpt = Instant::now();
    let ft = st.ft.state.as_ref().expect("checkpoint without FT enabled");
    let seq = ft.ckpt_seq + 1;
    st.tracer.emit(EventKind::CkptBegin {
        seq,
        outbox: st.ft.diffs.depth() as u32,
    });
    let t_log = Instant::now();

    // --- assemble the blob: every homed page -------------------------------
    let homed = st.pt.homed_pages();
    let mut home_pages = Vec::with_capacity(homed.len());
    for p in homed {
        let (version, bytes) = st.pt.home_snapshot(p);
        home_pages.push((p, version, bytes.to_vec()));
    }
    let ft = st.ft.state.as_mut().expect("checkpoint without FT enabled");
    let mut blob = CheckpointBlob {
        seq,
        tckp: tckp.clone(),
        step,
        app_state,
        needed: st.pt.needed_triples(),
        home_pages,
        ..CheckpointBlob::genesis(n)
    };
    st.sync.save_into(&mut blob);

    // --- trim logs (LLT + Rules 1/2 + barrier analogue) --------------------
    // Read the volatile log size (a running count) around each rule so
    // every `LogTrim` event carries the bytes that rule actually freed.
    let mut vb = ft.logs.volatile_bytes();
    let mut note_trim = |ft: &FtState, tracer: &dsm_trace::NodeTracer, rule: TrimRule| {
        let now = ft.logs.volatile_bytes();
        if now < vb {
            tracer.emit(EventKind::LogTrim {
                rule,
                bytes: vb - now,
            });
        }
        vb = now;
    };
    // Rule 1 bound: min over peers of their checkpointed knowledge of us.
    let rule1_bound = (0..n)
        .filter(|&j| j != me)
        .map(|j| ft.tckp[j].get(me))
        .min()
        .unwrap_or(0);
    ft.logs.trim_rule1(rule1_bound);
    note_trim(ft, &st.tracer, TrimRule::Rule1);
    let tckp_table: Vec<VectorClock> = ft.tckp.clone();
    ft.logs.trim_rule2(&tckp_table, &tckp);
    note_trim(ft, &st.tracer, TrimRule::Rule2);
    // Rule 3 for remote-homed pages uses lazily learned p0.v; for our own
    // homed pages we know the oldest retained copy exactly — gated, like
    // the piggyback, on Tmin covering it (otherwise a peer may need to
    // start from the virtual zero copy and every diff must stay).
    let mut p0v = ft.p0v_known.clone();
    if let (Some(tmin), Some(oldest)) = (ft.tmin_peers(me), ft.retained.first()) {
        for page in oldest.versions.keys() {
            if let Some(v) = ft.cover_version(&tmin, *page) {
                p0v.insert(*page, v.get(me));
            }
        }
    }
    ft.logs.trim_rule3(&p0v);
    note_trim(ft, &st.tracer, TrimRule::Rule3);
    let min_ckpt_episode = (0..n)
        .filter(|&j| j != me)
        .map(|j| ft.peer_ckpt_episode[j])
        .chain(std::iter::once(blob.bar_episode))
        .min()
        .unwrap_or(0);
    ft.logs.trim_bar(min_ckpt_episode);
    note_trim(ft, &st.tracer, TrimRule::Barrier);
    let log_blob = ft.logs.encode_stable();
    bd.logging += t_log.elapsed();

    // --- write to stable storage -------------------------------------------
    // The log save overwrites the previous one: recovery reads (Log, 0).
    let encoded = blob.encode();
    let ckpt_bytes = (encoded.len() + log_blob.len()) as u64;
    let d1 = ft
        .store
        .write_segment(SegmentKind::Checkpoint, seq, encoded);
    ft.report.log_bytes_saved += ft.logs.mark_saved();
    let d2 = ft.store.write_segment(SegmentKind::Log, 0, log_blob);
    bd.disk_write += d1 + d2;

    // --- update window and run CGC ------------------------------------------
    ft.retained.push(RetainedCkpt::of(&blob));
    // Exact per-peer retention (a refinement of Rule 3's window): keep, for
    // every peer j, the newest retained copy whose versions j's restart
    // checkpoint covers (j's maximal starting copy), plus the latest
    // checkpoint. A peer with no covered copy recovers from the virtual
    // initial zero copy, which is always available — in that case the
    // `p0.v` piggyback is suppressed (see `cover_version`) so writers keep
    // every diff.
    {
        let last = ft.retained.len() - 1;
        let mut needed = vec![false; ft.retained.len()];
        needed[last] = true;
        for j in (0..n).filter(|&j| j != me) {
            let mut found = None;
            for (k, rc) in ft.retained.iter().enumerate() {
                // Page versions are monotone in checkpoint order, so the
                // covered prefix is contiguous.
                if rc.versions.values().all(|v| ft.tckp[j].covers(v)) {
                    found = Some(k);
                } else {
                    break;
                }
            }
            if let Some(k) = found {
                needed[k] = true;
            }
        }
        let mut k = 0;
        let store = Arc::clone(&ft.store);
        let tracer = st.tracer.clone();
        ft.retained.retain(|rc| {
            let keep = needed[k];
            if !keep {
                if tracing {
                    let bytes = store
                        .segment_len(SegmentKind::Checkpoint, rc.seq)
                        .unwrap_or(0);
                    tracer.emit(EventKind::CgcDiscard { seq: rc.seq, bytes });
                }
                store.delete_segment(SegmentKind::Checkpoint, rc.seq);
            }
            k += 1;
            keep
        });
    }

    // --- bookkeeping and statistics ------------------------------------------
    ft.ckpt_seq = seq;
    ft.piggy_sent = vec![u64::MAX; n];
    ft.last_ckpt_vt = tckp;
    ft.last_ckpt_episode = blob.bar_episode;
    ft.ckpt_due = false;
    ft.report.ckpts_taken += 1;
    ft.report.max_ckpt_window = ft.report.max_ckpt_window.max(ft.retained.len());
    let live_log = ft.store.live_bytes(SegmentKind::Log);
    ft.report.max_stable_log_bytes = ft.report.max_stable_log_bytes.max(live_log);
    ft.report.stable_log_curve.push((seq, live_log));

    // Bound the write-notice table: every process has checkpointed past the
    // elementwise minimum of the checkpoint timestamps, so no future grant
    // or recovery can need notices at or below it.
    let mut all_tckp = ft.tckp.clone();
    all_tckp[me] = ft.last_ckpt_vt.clone();
    if let Some(bound) = elementwise_min(all_tckp.iter()) {
        st.wn_table.trim_covered_by(&bound);
    }

    st.hists
        .ckpt_write
        .record(t_ckpt.elapsed().as_nanos() as u64);
    st.tracer.emit_span(
        EventKind::CkptEnd {
            seq,
            bytes: ckpt_bytes,
        },
        t_ckpt,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_storage::DiskModel;

    fn ft_state(me: ProcId, n: usize, store: &Arc<StableStore>) -> FtState {
        FtState::new(me, n, FtConfig::default(), Arc::clone(store))
    }

    #[test]
    fn piggyback_is_attached_only_when_it_carries_news() {
        // The layer alone: no node, no endpoint, an empty page table.
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let mut ft = FtSvc::new(0, 2, Some(ft_state(0, 2, &store)), None);
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
        ft.state.as_mut().unwrap().ckpt_seq = 1;
        assert!(ft.make_piggy(&pt, 1, false).is_some());
        // With fault tolerance off there is never anything to say.
        assert!(FtSvc::new(0, 2, None, None)
            .make_piggy(&pt, 1, true)
            .is_none());
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
        let mut ft = FtSvc::new(0, n, Some(ft_state(0, n, &store)), None);
        let mut pt = PageTable::new(0, n, 256);
        for p in 0..pages {
            pt.add_page(0);
            assert!(pt.home_apply_diff(&diff_of(p, 1, 1)));
        }
        assert!(pt.home_apply_diff(&diff_of(0, 2, 1)));
        let versions = (0..pages).map(|p| (PageId(p), pt.home_version(PageId(p))));
        let retained = RetainedCkpt {
            seq: 1,
            versions: versions.collect(),
        };
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
        // Every peer has checkpointed past the copy: node 1 learns the bound
        // of every page it writes, at most a batch a message; node 2 only
        // page 0's. Then nothing is news.
        state(&mut ft).tckp = vec![vt([0, 1, 1]); n];
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
        ft_state.retained[0]
            .versions
            .insert(PageId(0), vt([0, 2, 1]));
        ft_state.tckp = vec![vt([0, 2, 1]); n];
        assert_eq!(hints(&mut ft, 1), [(PageId(0), 2)]);
        assert!(hints(&mut ft, 2).is_empty());
    }

    #[test]
    fn a_crash_and_a_genesis_restart_leave_a_new_layer_but_for_its_survivors() {
        let (me, n) = (1, 3);
        let vt = |v: [u32; 3]| VectorClock::from_vec(v.to_vec());
        let store = Arc::new(StableStore::new(DiskModel::instant()));
        let retry = Some(Duration::from_millis(5));
        let mut svc = FtSvc::new(me, n, Some(ft_state(me, n, &store)), retry);
        // One interval logged, its write notice trimmed: bytes created and
        // bytes discarded, which the run's report must not forget.
        let log_and_trim = |logs: &mut VolatileLogs| {
            let twin = dsm_page::Page::zeroed(64);
            let mut cur = twin.clone();
            cur.write(0, &[5]);
            let iv = dsm_page::Interval { proc: me, seq: 5 };
            let d = Arc::new(Diff::create(PageId(0), iv, &twin, &cur).unwrap());
            logs.log_interval(5, vec![PageId(0)], &vt([3, 5, 1]), &[d]);
            logs.trim_rule1(5);
        };
        {
            let ft = svc.state.as_mut().unwrap();
            log_and_trim(&mut ft.logs);
            ft.tckp[0] = vt([2, 0, 0]);
            ft.peer_ckpt_seq[0] = 3;
            ft.peer_ckpt_episode[0] = 1;
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
        svc.restart_from(&CheckpointBlob::genesis(n), Vec::new());

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
        assert_eq!(svc, FtSvc::new(me, n, Some(survivors), retry));
    }
}
