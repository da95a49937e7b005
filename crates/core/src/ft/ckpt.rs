//! Checkpoint blobs.
//!
//! A checkpoint contains exactly the state the paper identifies as needed
//! for recovery: the vector timestamp, the homed pages with their version
//! vectors, per-page required versions, the owner-side lock state, a few
//! counters, and the application's private state captured at a step
//! boundary. The saved volatile logs are written as a separate stable
//! segment so their size can be tracked independently (Figure 4).
//!
//! With incremental checkpoints enabled, a blob is either a full *anchor*
//! (every homed page) or a *delta* carrying only the pages written since
//! the previous checkpoint. Non-page state is full in every blob, so a
//! restart restores everything but pages from the latest blob alone and
//! rebuilds the pages by replaying the chain `anchor..=latest` ascending
//! (see [`accumulate_chain`]).

use std::collections::HashMap;

use dsm_page::{PageId, ProcId, VectorClock};
use dsm_storage::{ByteReader, ByteWriter, CodecError, SegmentKind, StableStore};
use hlrc::LockId;

use crate::wire;

/// A decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBlob {
    /// Checkpoint sequence number at this node (1-based).
    pub seq: u64,
    /// Is this a delta blob (`home_pages` holds only the pages written
    /// since checkpoint `base_seq`)? Full blobs hold every homed page.
    pub delta: bool,
    /// For a delta, the sequence number of the checkpoint it extends
    /// (always `seq - 1`; kept explicit so recovery can validate the
    /// chain). Zero for full blobs.
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
            w.put_bytes(bytes);
        }
        w.into_bytes()
    }

    /// Decode from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let seq = r.get_u64()?;
        let delta = r.get_u8()? != 0;
        let base_seq = r.get_u64()?;
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
        let mut last_release_vts = Vec::with_capacity(r.capacity_for(n_rel, 16));
        for _ in 0..n_rel {
            let l = r.get_u64()? as LockId;
            let vt = wire::get_vt(&mut r)?;
            last_release_vts.push((l, vt));
        }
        let n_pages = r.get_u64()?;
        let mut home_pages = Vec::with_capacity(r.capacity_for(n_pages, 20));
        for _ in 0..n_pages {
            let p = PageId(r.get_u32()?);
            let v = wire::get_vt(&mut r)?;
            let bytes = r.get_bytes()?.to_vec();
            home_pages.push((p, v, bytes));
        }
        Ok(CheckpointBlob {
            seq,
            delta,
            base_seq,
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

/// Replay a checkpoint chain's page payloads: blobs are applied in
/// ascending `seq` order, each full blob resetting the accumulated state
/// (its page set is complete) and each delta overlaying only the pages it
/// carries. The result is exactly the page state the last blob logically
/// represents, borrowed from the newest blob that carries each page. The
/// restart image and the `p0` server ([`restart_image`], `serve_rec_page`)
/// both read pages through this and nothing else walks a chain; the
/// incremental fault-tolerance tests check a chain restart against a full
/// checkpoint of the same moment.
pub fn accumulate_chain<'a>(
    chain: impl IntoIterator<Item = &'a CheckpointBlob>,
) -> HashMap<PageId, (&'a VectorClock, &'a [u8])> {
    let mut acc = HashMap::new();
    for blob in chain {
        if !blob.delta {
            acc.clear();
        }
        for (p, v, bytes) in &blob.home_pages {
            acc.insert(*p, (v, bytes.as_slice()));
        }
    }
    acc
}

/// In-memory index of one retained past checkpoint: which version of each
/// homed page it holds (drives Rule 3's CGC and the `p0.v` piggyback).
/// With incremental checkpoints, `versions` is the *accumulated* map over
/// the chain `anchor_seq..=seq` — the full page state the checkpoint
/// logically represents, even when its blob on disk is a delta — so every
/// consumer (CGC coverage, `cover_version`, the `p0` server) keeps working
/// on complete maps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RetainedCkpt {
    pub seq: u64,
    /// The full anchor this checkpoint's chain starts at (`== seq` for a
    /// full checkpoint). Serving its pages needs every blob in
    /// `anchor_seq..=seq`, which CGC therefore keeps together.
    pub anchor_seq: u64,
    pub versions: HashMap<PageId, VectorClock>,
}

impl RetainedCkpt {
    /// Append to `window` the index entry of `blob`, the checkpoint that
    /// follows the window's last: a full blob starts a chain and a version
    /// map of its own, a delta extends its predecessor's. Taking a
    /// checkpoint and rebuilding the window after a restart both index
    /// blobs here, so the two cannot disagree.
    pub(crate) fn append(window: &mut Vec<RetainedCkpt>, blob: &CheckpointBlob) {
        let (anchor_seq, mut versions) = if blob.delta {
            let prev = window
                .last()
                .expect("delta checkpoint without a predecessor");
            (prev.anchor_seq, prev.versions.clone())
        } else {
            (blob.seq, HashMap::with_capacity(blob.home_pages.len()))
        };
        for (p, v, _) in &blob.home_pages {
            versions.insert(*p, v.clone());
        }
        window.push(RetainedCkpt {
            seq: blob.seq,
            anchor_seq,
            versions,
        });
    }
}

/// Read and decode the checkpoint blobs `seqs` from stable storage.
pub(crate) fn load_chain(
    store: &StableStore,
    seqs: impl IntoIterator<Item = u64>,
) -> Vec<CheckpointBlob> {
    seqs.into_iter()
        .map(|seq| {
            let bytes = store
                .read_segment(SegmentKind::Checkpoint, seq)
                .expect("retained checkpoint missing from stable storage");
            CheckpointBlob::decode(&bytes).expect("corrupt checkpoint blob")
        })
        .collect()
}

/// The one image a node restarts from, given every checkpoint blob it still
/// has on stable storage (ascending): the latest blob's non-page state with
/// the pages its chain accumulates, as one full blob — or [`genesis`] when
/// it never checkpointed. CGC keeps a delta only together with its whole
/// chain prefix, so when any blob exists its anchor does too.
///
/// [`genesis`]: CheckpointBlob::genesis
pub(crate) fn restart_image(mut retained: Vec<CheckpointBlob>, n: usize) -> CheckpointBlob {
    let Some(anchor) = retained.iter().rposition(|b| !b.delta) else {
        assert!(retained.is_empty(), "checkpoint chain without an anchor");
        return CheckpointBlob::genesis(n);
    };
    let home_pages = accumulate_chain(&retained[anchor..])
        .into_iter()
        .map(|(p, (v, bytes))| (p, v.clone(), bytes.to_vec()))
        .collect();
    let latest = retained.pop().expect("a chain has a latest blob");
    CheckpointBlob {
        delta: false,
        base_seq: 0,
        home_pages,
        ..latest
    }
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
            home_pages: vec![(PageId(0), vt(&[4, 0, 0]), vec![0u8; 64])],
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
        assert!(accumulate_chain([&g]).is_empty(), "genesis carries no page");
        assert_eq!(CheckpointBlob::decode(&g.encode()).unwrap(), g);
        // A node with nothing on stable storage restarts from it.
        assert_eq!(restart_image(Vec::new(), 3), g);
    }

    #[test]
    fn restart_image_is_the_latest_blob_over_its_chains_pages() {
        let mut anchor = sample();
        anchor.seq = 1;
        anchor.home_pages = vec![
            (PageId(0), vt(&[1, 0, 0]), vec![1u8; 64]),
            (PageId(3), vt(&[1, 0, 0]), vec![3u8; 64]),
        ];
        let mut delta = sample();
        delta.seq = 2;
        delta.delta = true;
        delta.base_seq = 1;
        delta.step = 12;
        delta.home_pages = vec![(PageId(3), vt(&[2, 1, 0]), vec![9u8; 64])];
        let mut window = Vec::new();
        RetainedCkpt::append(&mut window, &anchor);
        RetainedCkpt::append(&mut window, &delta);
        assert_eq!((window[1].seq, window[1].anchor_seq), (2, 1));
        assert_eq!(window[1].versions[&PageId(0)], vt(&[1, 0, 0]));
        assert_eq!(window[1].versions[&PageId(3)], vt(&[2, 1, 0]));

        let mut image = restart_image(vec![anchor, delta.clone()], 3);
        image.home_pages.sort_by_key(|(p, _, _)| *p);
        let expect = CheckpointBlob {
            delta: false,
            base_seq: 0,
            home_pages: vec![
                (PageId(0), vt(&[1, 0, 0]), vec![1u8; 64]),
                (PageId(3), vt(&[2, 1, 0]), vec![9u8; 64]),
            ],
            ..delta
        };
        assert_eq!(image, expect);
    }

    #[test]
    fn truncated_blob_is_an_error() {
        let bytes = sample().encode();
        assert!(CheckpointBlob::decode(&bytes[..bytes.len() - 10]).is_err());
    }

    #[test]
    fn delta_blob_roundtrips() {
        let mut b = sample();
        b.delta = true;
        b.base_seq = 2;
        b.home_pages = vec![(PageId(5), vt(&[1, 2, 0]), vec![7u8; 64])];
        let d = CheckpointBlob::decode(&b.encode()).unwrap();
        assert_eq!(d, b);
        assert!(d.delta);
        assert_eq!(d.base_seq, 2);
    }

    #[test]
    fn accumulate_chain_overlays_deltas_and_resets_at_anchors() {
        let mk = |seq, delta, pages: Vec<(u32, u8)>| CheckpointBlob {
            seq,
            delta,
            base_seq: if delta { seq - 1 } else { 0 },
            tckp: vt(&[seq as u32, 0]),
            bar_episode: 0,
            acq_seq_next: 0,
            last_bar_arrive_seq: 0,
            step: 0,
            app_state: vec![],
            needed: vec![],
            tenures: vec![],
            last_release_vts: vec![],
            home_pages: pages
                .into_iter()
                .map(|(p, fill)| (PageId(p), vt(&[seq as u32, 0]), vec![fill; 8]))
                .collect(),
        };
        // Anchor(1): pages 0,1.  Delta(2): page 1 rewritten.  Delta(3): new
        // page 2.  Anchor(4): pages 0,2 only (page 1 freed logically).
        let chain = [
            mk(1, false, vec![(0, 10), (1, 11)]),
            mk(2, true, vec![(1, 22)]),
            mk(3, true, vec![(2, 33)]),
        ];
        let acc = accumulate_chain(chain.iter());
        assert_eq!(acc[&PageId(0)].1, vec![10u8; 8]);
        assert_eq!(acc[&PageId(1)].1, vec![22u8; 8]);
        assert_eq!(*acc[&PageId(1)].0, vt(&[2, 0]));
        assert_eq!(acc[&PageId(2)].1, vec![33u8; 8]);

        // A later anchor resets — stale pages from the old chain vanish.
        let with_anchor = [
            mk(1, false, vec![(0, 10), (1, 11)]),
            mk(2, true, vec![(1, 22)]),
            mk(4, false, vec![(0, 40), (2, 42)]),
        ];
        let acc = accumulate_chain(with_anchor.iter());
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[&PageId(0)].1, vec![40u8; 8]);
        assert!(!acc.contains_key(&PageId(1)));
    }
}
