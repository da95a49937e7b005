//! Checkpoint blobs.
//!
//! A checkpoint contains exactly the state the paper identifies as needed
//! for recovery: the vector timestamp, the homed pages with their version
//! vectors, per-page required versions, the owner-side lock state, a few
//! counters, and the application's private state captured at a step
//! boundary. The saved volatile logs are written as a separate stable
//! segment so their size can be tracked independently (Figure 4).
//!
//! Every blob is complete: it holds every homed page, so a restart reads
//! the newest blob alone and a recovering peer's starting copy is read from
//! one blob.
//!
//! A checkpoint is taken in two steps. [`take_checkpoint`] *captures* it at
//! a safe point: it trims what the peers' checkpoints allow, encodes the
//! blob and the appended log segment, and hands both to the node's disk,
//! which is busy with them for their modeled write time while the node
//! computes on. [`publish_written`] *publishes* it at the node's first
//! synchronization operation once the disk is done — a barrier waits for
//! the disk, so its release's gossip carries the checkpoint: the segments
//! reach stable storage and only then is the checkpoint advertised and what
//! it makes unneeded trimmed and collected. A crash in between loses the
//! capture, and the node restarts from the checkpoint before it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dsm_page::{elementwise_min, PageId, ProcId, VectorClock};
use dsm_storage::{ByteReader, ByteWriter, CodecError, SegmentKind, StableStore};
use dsm_trace::{EventKind, NodeTracer, TrimRule};
use hlrc::LockId;

use super::stable_log::LogSave;
use super::FtState;
use crate::msg::CkptStamp;
use crate::runtime::node::NodeState;
use crate::stats::Breakdown;
use crate::wire;

/// A decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBlob {
    /// Checkpoint sequence number at this node (1-based).
    pub seq: u64,
    /// Always `false`: the blob holds every homed page. The byte stays in
    /// the encoding, and [`CheckpointBlob::decode`] refuses a blob that
    /// sets it.
    pub delta: bool,
    /// Always `0`, like `delta`: a blob extends no other.
    pub base_seq: u64,
    /// `T_ckp`: the node's vector timestamp when the checkpoint was taken.
    pub tckp: VectorClock,
    /// Barrier episodes crossed so far.
    pub bar_episode: u64,
    /// Next lock-acquisition sequence number.
    pub acq_seq_next: u64,
    /// The node's own interval sequence at its last barrier arrival
    /// (rebuilds the own-notices-since-last-barrier buffer).
    pub last_bar_arrive_seq: u32,
    /// The application step the run_steps loop resumes from.
    pub step: u64,
    /// Encoded application private state.
    pub app_state: Vec<u8>,
    /// Sparse (page, writer, seq) required-version triples.
    pub needed: Vec<(PageId, ProcId, u32)>,
    /// Lock tenures: (lock, our acquisition sequence number, the grant
    /// generation that granted it, released?). Unreleased tenures are the
    /// locks held at checkpoint time; the generation orders delivered
    /// tenures when a recovering lock manager rebuilds its chains.
    pub tenures: Vec<(LockId, u64, u64, bool)>,
    /// Release-time timestamps of locks this node last released.
    pub last_release_vts: Vec<(LockId, VectorClock)>,
    /// Homed pages: (page, version vector, contents).
    pub home_pages: Vec<(PageId, VectorClock, Vec<u8>)>,
}

impl CheckpointBlob {
    /// The paper's initial state as a checkpoint: what a node that fails
    /// before its first checkpoint restarts from. It is a value only — never
    /// written to storage, never in the retained window — and its sequence
    /// number 0 is the "no checkpoint yet" every peer already assumes.
    pub fn genesis(n: usize) -> Self {
        CheckpointBlob {
            seq: 0,
            delta: false,
            base_seq: 0,
            tckp: VectorClock::zero(n),
            bar_episode: 0,
            acq_seq_next: 0,
            last_bar_arrive_seq: 0,
            step: 0,
            app_state: Vec::new(),
            needed: Vec::new(),
            tenures: Vec::new(),
            last_release_vts: Vec::new(),
            home_pages: Vec::new(),
        }
    }

    /// The checkpoint this blob is, as its node advertises it.
    pub fn stamp(&self) -> CkptStamp {
        CkptStamp {
            seq: self.seq,
            episode: self.bar_episode,
            tckp: self.tckp.clone(),
        }
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(&self.home_pages)
    }

    /// Encode to bytes with `pages` as the homed pages, in place of
    /// `home_pages`: a checkpoint's capture encodes the page table's own
    /// buffers this way and copies none of them.
    fn encode_with<B: AsRef<[u8]>>(&self, pages: &[(PageId, VectorClock, B)]) -> Vec<u8> {
        let page_bytes = pages.iter().map(|p| p.2.as_ref().len() + 64);
        let mut w =
            ByteWriter::with_capacity(256 + self.app_state.len() + page_bytes.sum::<usize>());
        w.put_u64(self.seq);
        w.put_u8(self.delta as u8);
        w.put_u64(self.base_seq);
        wire::put_vt(&mut w, &self.tckp);
        w.put_u64(self.bar_episode);
        w.put_u64(self.acq_seq_next);
        w.put_u32(self.last_bar_arrive_seq);
        w.put_u64(self.step);
        w.put_bytes(&self.app_state);
        w.put_u64(self.needed.len() as u64);
        for &(p, proc_, seq) in &self.needed {
            w.put_u32(p.0);
            w.put_u32(proc_ as u32);
            w.put_u32(seq);
        }
        w.put_u64(self.tenures.len() as u64);
        for &(l, acq, gen, released) in &self.tenures {
            w.put_u64(l as u64);
            w.put_u64(acq);
            w.put_u64(gen);
            w.put_u8(released as u8);
        }
        w.put_u64(self.last_release_vts.len() as u64);
        for (l, vt) in &self.last_release_vts {
            w.put_u64(*l as u64);
            wire::put_vt(&mut w, vt);
        }
        w.put_u64(pages.len() as u64);
        for (p, v, bytes) in pages {
            w.put_u32(p.0);
            wire::put_vt(&mut w, v);
            wire::put_page_bytes(&mut w, bytes.as_ref());
        }
        w.into_bytes()
    }

    /// Decode from bytes. A blob whose `delta` or `base_seq` is set is
    /// refused: it would not hold every homed page.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let seq = r.get_u64()?;
        if let Some(&tag) = r.get_raw(9)?.iter().find(|&&b| b != 0) {
            return Err(CodecError::BadTag {
                context: "checkpoint kind",
                tag,
            });
        }
        let tckp = wire::get_vt(&mut r)?;
        let bar_episode = r.get_u64()?;
        let acq_seq_next = r.get_u64()?;
        let last_bar_arrive_seq = r.get_u32()?;
        let step = r.get_u64()?;
        let app_state = r.get_bytes()?.to_vec();
        // Each list is sized by its count only as far as the input left
        // could hold that many of its smallest entry.
        let n_needed = r.get_u64()?;
        let mut needed = Vec::with_capacity(r.capacity_for(n_needed, 12));
        for _ in 0..n_needed {
            let p = PageId(r.get_u32()?);
            let proc_ = r.get_u32()? as usize;
            let seq = r.get_u32()?;
            needed.push((p, proc_, seq));
        }
        let n_ten = r.get_u64()?;
        let mut tenures = Vec::with_capacity(r.capacity_for(n_ten, 25));
        for _ in 0..n_ten {
            let l = r.get_u64()? as LockId;
            let acq = r.get_u64()?;
            let gen = r.get_u64()?;
            let released = r.get_u8()? != 0;
            tenures.push((l, acq, gen, released));
        }
        let n_rel = r.get_u64()?;
        let mut last_release_vts = Vec::with_capacity(r.capacity_for(n_rel, 9));
        for _ in 0..n_rel {
            let l = r.get_u64()? as LockId;
            let vt = wire::get_vt(&mut r)?;
            last_release_vts.push((l, vt));
        }
        let n_pages = r.get_u64()?;
        // A page is at least its id, a clock's count, its length and its
        // run count.
        let mut home_pages = Vec::with_capacity(r.capacity_for(n_pages, 7));
        for _ in 0..n_pages {
            let p = PageId(r.get_u32()?);
            let v = wire::get_vt(&mut r)?;
            home_pages.push((p, v, wire::get_page_bytes(&mut r)?));
        }
        Ok(CheckpointBlob {
            seq,
            delta: false,
            base_seq: 0,
            tckp,
            bar_episode,
            acq_seq_next,
            last_bar_arrive_seq,
            step,
            app_state,
            needed,
            tenures,
            last_release_vts,
            home_pages,
        })
    }
}

/// In-memory index of one retained past checkpoint: which version of each
/// homed page it holds (drives Rule 3's CGC and the `p0.v` piggyback).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RetainedCkpt {
    pub seq: u64,
    pub versions: HashMap<PageId, VectorClock>,
    /// The join of `versions`, when there is a page: a clock covers every
    /// page's version exactly when it covers this one.
    newest: Option<VectorClock>,
}

impl RetainedCkpt {
    pub(crate) fn new(seq: u64, versions: HashMap<PageId, VectorClock>) -> Self {
        let newest = versions.values().cloned().reduce(|mut all, v| {
            all.join(&v);
            all
        });
        RetainedCkpt {
            seq,
            versions,
            newest,
        }
    }

    /// The index entry of checkpoint `seq` holding `pages`. Taking a
    /// checkpoint and rebuilding the window after a restart both index
    /// blobs here, so the two cannot disagree.
    pub(crate) fn of<B>(seq: u64, pages: &[(PageId, VectorClock, B)]) -> Self {
        let versions = pages.iter().map(|(p, v, _)| (*p, v.clone()));
        RetainedCkpt::new(seq, versions.collect())
    }

    /// Does `clock` cover the version of every page this checkpoint holds?
    /// Then the checkpoint is a starting copy for a process that restarts
    /// at `clock` or later.
    pub(crate) fn covered_by(&self, clock: &VectorClock) -> bool {
        self.newest.as_ref().is_none_or(|v| clock.covers(v))
    }
}

/// Decode checkpoint blob `seq` in place on stable storage.
pub(crate) fn load_blob(store: &StableStore, seq: u64) -> CheckpointBlob {
    let disk = store.read();
    let bytes = (disk.segment(SegmentKind::Checkpoint, seq))
        .expect("retained checkpoint missing from stable storage");
    CheckpointBlob::decode(bytes).expect("corrupt checkpoint blob")
}

/// What a node restarts from: the newest checkpoint blob on stable storage
/// — or [`genesis`] when it never checkpointed — and the retained window,
/// every blob still there indexed oldest first.
///
/// [`genesis`]: CheckpointBlob::genesis
pub(crate) fn restart_image(store: &StableStore, n: usize) -> (CheckpointBlob, Vec<RetainedCkpt>) {
    let seqs = store.segment_ids(SegmentKind::Checkpoint);
    let mut blobs: Vec<_> = seqs.into_iter().map(|seq| load_blob(store, seq)).collect();
    let window = (blobs.iter())
        .map(|b| RetainedCkpt::of(b.seq, &b.home_pages))
        .collect();
    let image = blobs.pop().unwrap_or_else(|| CheckpointBlob::genesis(n));
    (image, window)
}

/// A captured checkpoint whose segments the disk is still writing.
#[derive(Debug, PartialEq)]
pub(crate) struct InFlight {
    /// When the disk is done with both segments.
    pub(crate) done_at: Instant,
    /// When the capture began: where the `CkptEnd` span starts.
    began: Instant,
    /// The checkpoint as its node advertises it once published.
    stamp: CkptStamp,
    /// Its entry in the retained window.
    index: RetainedCkpt,
    /// The encoded blob.
    blob: Vec<u8>,
    /// The appended log segment.
    log: LogSave,
}

/// Capture an independent checkpoint on the application thread, at a safe
/// point: the interval closed, the disk idle.
///
/// `app_state` is the encoded private state at step `step`. The trims whose
/// bounds are the peers' checkpoints run here and are charged to `bd`; the
/// blob and the log segment go to the disk, and [`publish_written`] makes
/// them stable when it is done — at once on a disk that takes no time.
pub(crate) fn take_checkpoint(
    st: &mut NodeState,
    step: u64,
    app_state: Vec<u8>,
    bd: &mut Breakdown,
) {
    // The caller has closed the interval (and charged it): the checkpoint
    // has no twins and the saved diff logs include everything up to T_ckp.
    // A restart replays nothing up to T_ckp, so none of those diffs may die
    // held with a crash: they leave now.
    debug_assert!(!st.pt.has_writes(), "checkpoint inside an open interval");
    st.send_unsent();

    let me = st.me;
    let began = Instant::now();
    let ft = st.ft.state.as_ref().expect("checkpoint without FT enabled");
    debug_assert!(ft.inflight.is_none(), "checkpoint while the disk is busy");
    let seq = ft.stamps[me].seq + 1;
    st.tracer.emit(EventKind::CkptBegin { seq });

    // --- assemble the blob: every homed page, the page table's buffers ----
    let snapshot = |p| {
        let (version, bytes) = st.pt.home_snapshot(p);
        (p, version, bytes)
    };
    let home_pages: Vec<_> = st.pt.homed_pages().map(snapshot).collect();
    let ft = st.ft.state.as_mut().expect("checkpoint without FT enabled");
    let mut blob = CheckpointBlob {
        seq,
        tckp: st.vt.clone(),
        step,
        app_state,
        needed: st.pt.needed_triples(),
        ..CheckpointBlob::genesis(st.n)
    };
    st.sync.save_into(&mut blob);

    // --- trim what the peers' checkpoints allow (Rules 1 and 3, LLT) --------
    // Read the volatile log size (a running count) around each rule so
    // every `LogTrim` event carries the bytes that rule actually freed.
    let mut vb = ft.logs.volatile_bytes();
    let mut note_trim = |ft: &FtState, tracer: &NodeTracer, rule: TrimRule| {
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
    let rule1_bound = ft.peer_stamps(me).map(|s| s.tckp.get(me)).min();
    ft.logs.trim_rule1(rule1_bound.unwrap_or(0));
    note_trim(ft, &st.tracer, TrimRule::Rule1);
    // Rule 3 for remote-homed pages uses lazily learned p0.v; for our own
    // homed pages we know the oldest retained copy exactly — gated, like
    // the piggyback, on Tmin covering that whole checkpoint (otherwise a
    // peer may need to start from the virtual zero copy and every diff
    // must stay).
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
    let log = ft.logs.save(st.vt.get(me));
    bd.logging += began.elapsed();

    // --- hand both segments to the disk -------------------------------------
    // The snapshots share the page table's buffers until the capture
    // returns: a diff the home applies meanwhile copies its page first, as
    // it does under a fetch reply's shared copy.
    let blob_bytes = blob.encode_with(&home_pages);
    let disk = ft.store.disk();
    let busy = disk.busy_time(log.bytes.len() as u64) + disk.busy_time(blob_bytes.len() as u64);
    ft.inflight = Some(InFlight {
        done_at: Instant::now() + busy,
        began,
        stamp: blob.stamp(),
        index: RetainedCkpt::of(seq, &home_pages),
        blob: blob_bytes,
        log,
    });
    ft.ckpt_due = false;
    publish_written(st);
}

/// Publish the checkpoint in flight if the disk is done with it: its
/// segments reach stable storage, log first — a restart reads only the
/// segments of a checkpoint whose blob is written — and only then does the
/// node advertise it, trim what its own checkpoint bounds and collect the
/// checkpoints and log segments no one needs any more.
pub(crate) fn publish_written(st: &mut NodeState) {
    let me = st.me;
    let Some(ft) = st.ft.state.as_mut() else {
        return;
    };
    if (ft.inflight.as_ref()).is_none_or(|w| w.done_at > Instant::now()) {
        return;
    }
    let InFlight {
        began,
        stamp,
        index,
        blob,
        log,
        ..
    } = ft.inflight.take().expect("checked above");
    let seq = stamp.seq;
    let ckpt_bytes = (blob.len() + log.bytes.len()) as u64;

    // --- write to stable storage, then advertise -----------------------------
    ft.stable_log.append(&ft.store, seq, log.bytes, log.span);
    ft.logs.evict_saved();
    ft.store.write_segment(SegmentKind::Checkpoint, seq, blob);
    ft.report.log_bytes_saved += log.entry_bytes;
    ft.stamps[me] = stamp;

    // --- trim what the own checkpoint bounds ---------------------------------
    // Rule 2 (the grant mirror against the own stamp), the barrier log and
    // the write-notice table: every process has checkpointed past the
    // elementwise minimum of the checkpoint timestamps, so no future grant
    // or recovery can need notices at or below it.
    ft.logs.trim_rule2(&ft.stamps);
    let min_ckpt_episode = ft.stamps.iter().map(|s| s.episode).min();
    ft.logs.trim_bar(min_ckpt_episode.unwrap_or(0));
    if let Some(bound) = elementwise_min(ft.stamps.iter().map(|s| &s.tckp)) {
        st.wn_table.trim_covered_by(&bound);
    }

    // --- update the window and run CGC ----------------------------------------
    ft.retained.push(index);
    collect_checkpoints(ft, me, &st.tracer);
    // Once the blob is written, the segments the new bounds keep nothing of
    // go.
    ft.stable_log.collect(&ft.store, &log.bounds);

    // --- bookkeeping and statistics ------------------------------------------
    ft.piggy_sent = vec![u64::MAX; st.n];
    ft.report.ckpts_taken += 1;
    ft.report.max_ckpt_window = ft.report.max_ckpt_window.max(ft.retained.len());
    let live_log = ft.store.live_bytes(SegmentKind::Log);
    ft.report.max_stable_log_bytes = ft.report.max_stable_log_bytes.max(live_log);
    ft.report.stable_log_curve.push((seq, live_log));
    st.hists
        .ckpt_write
        .record(began.elapsed().as_nanos() as u64);
    st.tracer.emit_span(
        EventKind::CkptEnd {
            seq,
            bytes: ckpt_bytes,
        },
        began,
    );
}

/// CGC, with exact per-peer retention (a refinement of Rule 3's window):
/// keep, for every peer j, the newest retained copy whose versions j's
/// restart checkpoint covers (j's maximal starting copy), plus the latest
/// checkpoint. A peer with no covered copy recovers from the virtual
/// initial zero copy, which is always available — in that case the `p0.v`
/// piggyback is suppressed (see `FtState::cover_version`) so writers keep
/// every diff.
fn collect_checkpoints(ft: &mut FtState, me: ProcId, tracer: &NodeTracer) {
    let last = ft.retained.len() - 1;
    let mut needed = vec![false; ft.retained.len()];
    needed[last] = true;
    for stamp in ft.peer_stamps(me) {
        // Page versions are monotone in checkpoint order, so the covered
        // prefix is contiguous.
        let covered = (ft.retained.iter())
            .take_while(|rc| rc.covered_by(&stamp.tckp))
            .count();
        if covered > 0 {
            needed[covered - 1] = true;
        }
    }
    let mut k = 0;
    let store = Arc::clone(&ft.store);
    ft.retained.retain(|rc| {
        let keep = needed[k];
        if !keep {
            if tracer.enabled() {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(v: &[u32]) -> VectorClock {
        VectorClock::from_vec(v.to_vec())
    }

    fn sample() -> CheckpointBlob {
        CheckpointBlob {
            seq: 3,
            delta: false,
            base_seq: 0,
            tckp: vt(&[4, 1, 0]),
            bar_episode: 2,
            acq_seq_next: 7,
            last_bar_arrive_seq: 3,
            step: 11,
            app_state: vec![9, 8, 7],
            needed: vec![(PageId(2), 1, 5)],
            tenures: vec![(13, 4, 6, false), (2, 1, 3, true)],
            last_release_vts: vec![(4, vt(&[2, 0, 0]))],
            home_pages: vec![
                (PageId(0), vt(&[4, 0, 0]), vec![0u8; 64]),
                (PageId(5), vt(&[4, 2, 0]), sparse_page()),
            ],
        }
    }

    /// A 2 KiB page whose non-zero words are 1 and 200, so its two gaps
    /// take a one-byte and a two-byte varint.
    fn sparse_page() -> Vec<u8> {
        let mut page = vec![0u8; 2048];
        page[8..16].fill(3);
        page[1600..1608].fill(4);
        page
    }

    /// Every byte of a blob set to each of its other values decodes to `Ok`
    /// or `Err`, never a panic.
    #[test]
    fn no_changed_byte_panics_the_blob_decoder() {
        let bytes = sample().encode();
        let mut changed = bytes.clone();
        for i in 0..bytes.len() {
            for v in (0..=u8::MAX).filter(|&v| v != bytes[i]) {
                changed[i] = v;
                let _ = CheckpointBlob::decode(&changed);
            }
            changed[i] = bytes[i];
        }
    }

    #[test]
    fn roundtrip() {
        let b = sample();
        let bytes = b.encode();
        let d = CheckpointBlob::decode(&bytes).unwrap();
        assert_eq!(d, b);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let b = CheckpointBlob {
            seq: 1,
            delta: false,
            base_seq: 0,
            tckp: vt(&[0, 0]),
            bar_episode: 0,
            acq_seq_next: 0,
            last_bar_arrive_seq: 0,
            step: 0,
            app_state: vec![],
            needed: vec![],
            tenures: vec![],
            last_release_vts: vec![],
            home_pages: vec![],
        };
        assert_eq!(CheckpointBlob::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn genesis_is_the_empty_restart_image_and_a_well_formed_blob() {
        let g = CheckpointBlob::genesis(3);
        assert_eq!((g.seq, g.step, g.delta), (0, 0, false));
        assert_eq!(g.tckp, vt(&[0, 0, 0]));
        assert!(g.home_pages.is_empty(), "genesis carries no page");
        assert_eq!(CheckpointBlob::decode(&g.encode()).unwrap(), g);
        // A node with nothing on stable storage restarts from it.
        let store = StableStore::new(dsm_storage::DiskModel::instant());
        assert_eq!(restart_image(&store, 3), (g, Vec::new()));
    }

    #[test]
    fn restart_image_is_the_newest_blob_over_a_window_of_every_blob() {
        let store = StableStore::new(dsm_storage::DiskModel::instant());
        let mut blobs = [sample(), sample()];
        for (k, b) in blobs.iter_mut().enumerate() {
            b.seq = k as u64 + 1;
            b.step = 20 + k as u64;
            b.home_pages = vec![
                (PageId(0), vt(&[1, k as u32, 0]), vec![1u8; 64]),
                (PageId(3), vt(&[1, 0, k as u32]), vec![k as u8; 64]),
            ];
            store.write_segment(SegmentKind::Checkpoint, b.seq, b.encode());
        }
        let (image, window) = restart_image(&store, 3);
        assert_eq!(image, blobs[1]);
        assert_eq!(
            window,
            (blobs.iter())
                .map(|b| RetainedCkpt::of(b.seq, &b.home_pages))
                .collect::<Vec<_>>()
        );
        assert_eq!(window[1].seq, 2);
        assert_eq!(window[1].versions[&PageId(3)], vt(&[1, 0, 1]));
        assert_eq!(load_blob(&store, 1), blobs[0]);
    }

    /// Node 0 of 2 homing one page, checkpointing at `OF(0)` on `disk`.
    fn node_on(disk: dsm_storage::DiskModel) -> NodeState {
        use crate::config::CkptPolicy;
        let (_fabric, endpoints) = dsm_net::Fabric::<crate::msg::Msg>::new(2);
        let ep = Arc::new(endpoints.into_iter().next().unwrap());
        let store = Arc::new(StableStore::new(disk));
        let policy = CkptPolicy::LogOverflow { l: 0.0 };
        let ft = FtState::new(0, 2, policy, store);
        let mut st = NodeState::new(0, 2, 256, ep, Some(ft), NodeTracer::disabled());
        st.pt.add_page(0);
        st
    }

    /// One logged interval on the homed page, then a release's policy check.
    fn interval(st: &mut NodeState, byte: u8) {
        st.pt.write(PageId(0), 8, &[byte]);
        st.close_interval(&mut Breakdown::default());
        st.ft.policy_check(st.shared_bytes(), None);
    }

    /// What a run of checkpoints leaves: the report, the retained window
    /// and the store's live segments. Left out are what a slower disk moves:
    /// its busy time, and the resident log's peak — a saved entry leaves
    /// memory only once its checkpoint is published.
    fn outcome(st: &NodeState) -> (crate::stats::FtReport, Vec<u64>, Vec<u64>) {
        let ft = st.ft.state.as_ref().unwrap();
        let window = ft.retained.iter().map(|rc| rc.seq).collect();
        let mut report = st.ft.report();
        report.store.write_time = std::time::Duration::ZERO;
        report.max_resident_log_bytes = 0;
        (report, window, ft.store.segment_ids(SegmentKind::Log))
    }

    /// The disk is never written twice at once. Three checkpoints at `OF(0)`
    /// on a disk busy 20 ms a write: while one is in flight it is neither on
    /// the store nor advertised, and `OF(L)` latches nothing however far the
    /// log grows; one that falls due meanwhile waits for the disk, so seq k
    /// publishes before k + 1. The report, `Wmax` and the retained window
    /// are those of an instant disk.
    #[test]
    fn one_checkpoint_is_on_the_disk_at_a_time_and_they_publish_in_order() {
        use dsm_storage::{DiskMode, DiskModel};
        let busy = DiskModel {
            latency: std::time::Duration::from_millis(20),
            ..DiskModel::scsi_1999(1.0, DiskMode::Stall)
        };
        let run = |disk: DiskModel| {
            let (mut st, mut waits) = (node_on(disk), 0);
            for k in 1..=3u8 {
                interval(&mut st, k);
                assert!(st.ft.ckpt_due_at_step(1), "an idle disk: OF(L) latches");
                take_checkpoint(&mut st, k.into(), Vec::new(), &mut Breakdown::default());
                assert!(!st.ft.ckpt_due_at_step(1), "a capture clears the latch");
                interval(&mut st, k + 10);
                let ft = st.ft.state.as_ref().unwrap();
                let published = ft.store.segment_ids(SegmentKind::Checkpoint);
                if let Some(done_at) = st.ft.disk_busy_until() {
                    assert!(!st.ft.ckpt_due_at_step(1), "OF(L) latched in flight");
                    assert_eq!(ft.stamps[0].seq, u64::from(k) - 1, "advertised early");
                    assert!(!published.contains(&k.into()), "stable early");
                    // Due now, it waits: nothing publishes before the disk
                    // is done, then seq k does.
                    st.ft.request_checkpoint();
                    publish_written(&mut st);
                    assert_eq!(st.ft.disk_busy_until(), Some(done_at));
                    std::thread::sleep(done_at.saturating_duration_since(Instant::now()));
                    publish_written(&mut st);
                    assert_eq!(st.ft.disk_busy_until(), None);
                    waits += 1;
                } else {
                    assert!(st.ft.ckpt_due_at_step(1), "no write in flight");
                }
                let ft = st.ft.state.as_mut().unwrap();
                assert_eq!(ft.stamps[0].seq, u64::from(k));
                if k == 1 {
                    // Peer 1 checkpointed past checkpoint 1's copy: CGC
                    // keeps it as 1's starting copy from now on.
                    ft.stamps[1] = CkptStamp {
                        seq: 1,
                        episode: 0,
                        tckp: ft.stamps[0].tckp.clone(),
                    };
                }
            }
            (outcome(&st), waits)
        };
        let (on_busy, waits) = run(busy);
        assert_eq!(waits, 3, "every checkpoint was in flight a while");
        assert_eq!((on_busy.clone(), 0), run(DiskModel::instant()));
        let (report, window, _) = on_busy;
        let seqs: Vec<u64> = report
            .stable_log_curve
            .iter()
            .map(|&(seq, _)| seq)
            .collect();
        assert_eq!((seqs, window), (vec![1, 2, 3], vec![1, 3]));
        assert_eq!(report.max_ckpt_window, 2);
    }

    /// A capture reads every homed page into the blob — one no change has
    /// reached as the zero page at version zero — and gives none an entry.
    #[test]
    fn a_capture_gives_an_untouched_homed_page_no_entry() {
        let mut st = node_on(dsm_storage::DiskModel::instant());
        st.pt.add_page(0); // page 1: homed here, never touched
        interval(&mut st, 1);
        let home = st.pt.home_store();
        assert_eq!(home.entries(), 1, "only the written page has one");
        take_checkpoint(&mut st, 1, Vec::new(), &mut Breakdown::default());
        assert_eq!(home.entries(), 1, "the capture created an entry");
        let blob = load_blob(&st.ft.state.as_ref().unwrap().store, 1);
        let untouched = (PageId(1), vt(&[0, 0]), vec![0u8; 256]);
        assert_eq!(blob.home_pages[1], untouched);
    }

    #[test]
    fn every_truncation_of_a_blob_is_an_error() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let cut = CheckpointBlob::decode(&bytes[..len]);
            assert!(cut.is_err(), "{len} of {} bytes decoded", bytes.len());
        }
    }

    #[test]
    fn a_blob_that_is_not_complete_is_refused() {
        let delta = CheckpointBlob {
            delta: true,
            ..sample()
        };
        let based = CheckpointBlob {
            base_seq: 2 << 8,
            ..sample()
        };
        for (b, tag) in [(delta, 1), (based, 2)] {
            let refused = CodecError::BadTag {
                context: "checkpoint kind",
                tag,
            };
            assert_eq!(CheckpointBlob::decode(&b.encode()), Err(refused));
        }
    }
}
