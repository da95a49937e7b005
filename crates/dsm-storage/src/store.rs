//! Per-node stable storage.
//!
//! A [`StableStore`] models one node's local disk. It survives the node's
//! simulated crash (the paper assumes stable storage remains available after
//! a failure) and tracks byte-exact statistics:
//!
//! * cumulative bytes written ("total disk traffic", Table 4),
//! * split between checkpoint data and saved logs,
//! * live (currently retained) bytes per kind — the stable-log size curve of
//!   Figure 4 is `live_bytes(SegmentKind::Log)` sampled at checkpoints.

use std::collections::BTreeMap;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use crate::disk::DiskModel;

/// What a stable segment holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SegmentKind {
    /// Checkpoint data (metadata, homed page copies, private state).
    Checkpoint,
    /// Saved volatile logs.
    Log,
}

/// Cumulative statistics for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreStats {
    /// Total bytes ever written (disk traffic).
    pub bytes_written: u64,
    /// Bytes ever written to checkpoint segments.
    pub ckpt_bytes_written: u64,
    /// Bytes ever written to log segments.
    pub log_bytes_written: u64,
    /// Number of segment writes.
    pub writes: u64,
    /// Total modeled disk time: how long the disk was busy.
    pub write_time: Duration,
}

#[derive(Debug, Default)]
struct Inner {
    segments: BTreeMap<(SegmentKind, u64), Vec<u8>>,
    stats: StoreStats,
}

/// One node's stable storage.
#[derive(Debug)]
pub struct StableStore {
    disk: DiskModel,
    inner: Mutex<Inner>,
}

/// A store stands for a device: it equals only itself.
impl PartialEq for StableStore {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl StableStore {
    /// An empty store backed by the given disk model.
    pub fn new(disk: DiskModel) -> Self {
        StableStore {
            disk,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The disk model in use.
    pub fn disk(&self) -> &DiskModel {
        &self.disk
    }

    /// Write (replace) segment `(kind, id)`. Accounts the modeled disk time
    /// of the bytes written and returns that duration; nothing sleeps. The
    /// disk is busy for that time ([`DiskModel::busy_time`]): the writer
    /// hands a checkpoint's segments here once it has passed, and waits
    /// only when it needs the disk again before then.
    pub fn write_segment(&self, kind: SegmentKind, id: u64, data: Vec<u8>) -> Duration {
        let len = data.len() as u64;
        let d = self.disk.write_time(len);
        let mut inner = self.inner.lock();
        inner.stats.bytes_written += len;
        inner.stats.writes += 1;
        inner.stats.write_time += d;
        match kind {
            SegmentKind::Checkpoint => inner.stats.ckpt_bytes_written += len,
            SegmentKind::Log => inner.stats.log_bytes_written += len,
        }
        inner.segments.insert((kind, id), data);
        d
    }

    /// Read the store in place: the segments are borrowed, never copied,
    /// and the store is locked until the reader is dropped.
    pub fn read(&self) -> StoreReader<'_> {
        StoreReader(self.inner.lock())
    }

    /// Delete segment `(kind, id)` (garbage collection; free). Returns true
    /// when the segment existed.
    pub fn delete_segment(&self, kind: SegmentKind, id: u64) -> bool {
        self.inner.lock().segments.remove(&(kind, id)).is_some()
    }

    /// Size in bytes of segment `(kind, id)`, if live.
    pub fn segment_len(&self, kind: SegmentKind, id: u64) -> Option<u64> {
        self.inner
            .lock()
            .segments
            .get(&(kind, id))
            .map(|v| v.len() as u64)
    }

    /// Ids of live segments of `kind`, ascending.
    pub fn segment_ids(&self, kind: SegmentKind) -> Vec<u64> {
        self.inner
            .lock()
            .segments
            .keys()
            .filter(|(k, _)| *k == kind)
            .map(|(_, id)| *id)
            .collect()
    }

    /// Currently retained bytes of `kind`.
    pub fn live_bytes(&self, kind: SegmentKind) -> u64 {
        self.inner
            .lock()
            .segments
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|(_, v)| v.len() as u64)
            .sum()
    }

    /// Currently retained bytes across all kinds.
    pub fn total_live_bytes(&self) -> u64 {
        self.inner
            .lock()
            .segments
            .values()
            .map(|v| v.len() as u64)
            .sum()
    }

    /// Snapshot of cumulative statistics.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }
}

/// A borrowing read of one store ([`StableStore::read`]).
pub struct StoreReader<'a>(MutexGuard<'a, Inner>);

impl StoreReader<'_> {
    /// Segment `(kind, id)`, if live.
    pub fn segment(&self, kind: SegmentKind, id: u64) -> Option<&[u8]> {
        self.0.segments.get(&(kind, id)).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskModel;

    fn store() -> StableStore {
        StableStore::new(DiskModel::instant())
    }

    #[test]
    fn write_read_delete_roundtrip() {
        let s = store();
        s.write_segment(SegmentKind::Checkpoint, 1, vec![1, 2, 3]);
        assert_eq!(
            s.read().segment(SegmentKind::Checkpoint, 1),
            Some(&[1, 2, 3][..])
        );
        assert!(s.delete_segment(SegmentKind::Checkpoint, 1));
        assert_eq!(s.read().segment(SegmentKind::Checkpoint, 1), None);
        assert!(!s.delete_segment(SegmentKind::Checkpoint, 1));
    }

    #[test]
    fn kinds_are_separate_namespaces() {
        let s = store();
        s.write_segment(SegmentKind::Checkpoint, 7, vec![0; 10]);
        s.write_segment(SegmentKind::Log, 7, vec![0; 20]);
        assert_eq!(s.live_bytes(SegmentKind::Checkpoint), 10);
        assert_eq!(s.live_bytes(SegmentKind::Log), 20);
        assert_eq!(s.total_live_bytes(), 30);
        assert_eq!(s.segment_ids(SegmentKind::Log), vec![7]);
    }

    #[test]
    fn replace_updates_live_but_traffic_accumulates() {
        let s = store();
        s.write_segment(SegmentKind::Log, 0, vec![0; 100]);
        s.write_segment(SegmentKind::Log, 0, vec![0; 40]);
        assert_eq!(s.live_bytes(SegmentKind::Log), 40);
        let st = s.stats();
        assert_eq!(st.bytes_written, 140);
        assert_eq!(st.log_bytes_written, 140);
        assert_eq!(st.ckpt_bytes_written, 0);
        assert_eq!(st.writes, 2);
    }

    #[test]
    fn deletion_is_free_of_disk_traffic() {
        let s = store();
        s.write_segment(SegmentKind::Checkpoint, 0, vec![0; 64]);
        let before = s.stats();
        s.delete_segment(SegmentKind::Checkpoint, 0);
        assert_eq!(s.stats(), before);
        assert_eq!(s.total_live_bytes(), 0);
    }

    #[test]
    fn a_write_to_a_stall_disk_accounts_its_time_and_does_not_sleep() {
        let s = StableStore::new(DiskModel::scsi_1999(1.0, crate::DiskMode::Stall));
        let start = std::time::Instant::now();
        let d = s.write_segment(SegmentKind::Checkpoint, 0, vec![0; 32 << 20]);
        assert!(d.as_secs_f64() > 2.0, "modeled: ~2.1 s");
        assert!(start.elapsed().as_secs_f64() < 1.0, "real: no sleep");
        assert_eq!(s.stats().write_time, d);
    }
}
