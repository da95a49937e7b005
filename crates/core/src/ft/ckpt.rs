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

use std::collections::HashMap;

use dsm_page::{PageId, ProcId, VectorClock};
use dsm_storage::{ByteReader, ByteWriter, CodecError, SegmentKind, StableStore};
use hlrc::LockId;

use crate::msg::CkptStamp;
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
        let mut w = ByteWriter::with_capacity(
            256 + self.app_state.len()
                + self
                    .home_pages
                    .iter()
                    .map(|p| p.2.len() + 64)
                    .sum::<usize>(),
        );
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
        w.put_u64(self.home_pages.len() as u64);
        for (p, v, bytes) in &self.home_pages {
            w.put_u32(p.0);
            wire::put_vt(&mut w, v);
            wire::put_page_bytes(&mut w, bytes);
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
}

impl RetainedCkpt {
    /// The index entry of `blob`. Taking a checkpoint and rebuilding the
    /// window after a restart both index blobs here, so the two cannot
    /// disagree.
    pub(crate) fn of(blob: &CheckpointBlob) -> Self {
        let versions = blob.home_pages.iter().map(|(p, v, _)| (*p, v.clone()));
        RetainedCkpt {
            seq: blob.seq,
            versions: versions.collect(),
        }
    }
}

/// Read and decode checkpoint blob `seq` from stable storage.
pub(crate) fn load_blob(store: &StableStore, seq: u64) -> CheckpointBlob {
    let bytes = store
        .read_segment(SegmentKind::Checkpoint, seq)
        .expect("retained checkpoint missing from stable storage");
    CheckpointBlob::decode(&bytes).expect("corrupt checkpoint blob")
}

/// What a node restarts from: the newest checkpoint blob on stable storage
/// — or [`genesis`] when it never checkpointed — and the retained window,
/// every blob still there indexed oldest first.
///
/// [`genesis`]: CheckpointBlob::genesis
pub(crate) fn restart_image(store: &StableStore, n: usize) -> (CheckpointBlob, Vec<RetainedCkpt>) {
    let seqs = store.segment_ids(SegmentKind::Checkpoint);
    let mut blobs: Vec<_> = seqs.into_iter().map(|seq| load_blob(store, seq)).collect();
    let window = blobs.iter().map(RetainedCkpt::of).collect();
    let image = blobs.pop().unwrap_or_else(|| CheckpointBlob::genesis(n));
    (image, window)
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
            blobs.iter().map(RetainedCkpt::of).collect::<Vec<_>>()
        );
        assert_eq!(window[1].seq, 2);
        assert_eq!(window[1].versions[&PageId(3)], vt(&[1, 0, 1]));
        assert_eq!(load_blob(&store, 1), blobs[0]);
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
