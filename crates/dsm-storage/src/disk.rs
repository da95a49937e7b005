//! Disk time model.
//!
//! The paper's overhead numbers (Table 3) include the time to write homed
//! pages and saved logs to a local disk (circa-1999 hardware, roughly
//! 10-20 MB/s sequential). The simulation models a duration per write;
//! depending on [`DiskMode`] the writing node's disk is busy for that long
//! (the node goes on computing, and waits only when it needs the disk
//! again while it is still busy) or the time is only accounted.

use std::time::Duration;

/// Whether modeled disk time keeps the disk busy or is only accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskMode {
    /// The disk is busy for the modeled duration ([`DiskModel::busy_time`]):
    /// a checkpoint is durable only once it passed, and a node waits only
    /// for a disk that is still busy when it needs it again.
    Stall,
    /// Only account the duration; the disk is never busy. Useful in unit
    /// tests.
    AccountOnly,
}

/// Bandwidth/latency model for stable-storage writes.
#[derive(Debug, Clone, Copy)]
pub struct DiskModel {
    /// Sustained write bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed per-write latency (seek + controller).
    pub latency: Duration,
    /// Global scale applied to modeled durations, so experiment runs stay
    /// short: `0.01` means modeled disk time passes 100x faster than the
    /// modeled hardware. Applied to both bandwidth time and latency.
    pub time_scale: f64,
    /// Stall or account-only.
    pub mode: DiskMode,
}

impl DiskModel {
    /// A model of a ~1999 local SCSI disk (15 MB/s, 8 ms per write), scaled.
    pub fn scsi_1999(time_scale: f64, mode: DiskMode) -> Self {
        DiskModel {
            bandwidth_bytes_per_s: 15.0 * 1024.0 * 1024.0,
            latency: Duration::from_millis(8),
            time_scale,
            mode,
        }
    }

    /// An infinitely fast disk: zero modeled time.
    pub fn instant() -> Self {
        DiskModel {
            bandwidth_bytes_per_s: f64::INFINITY,
            latency: Duration::ZERO,
            time_scale: 1.0,
            mode: DiskMode::AccountOnly,
        }
    }

    /// Modeled wall-clock duration for writing `bytes` bytes (already
    /// scaled by `time_scale`).
    pub fn write_time(&self, bytes: u64) -> Duration {
        let secs = self.latency.as_secs_f64() + bytes as f64 / self.bandwidth_bytes_per_s;
        Duration::from_secs_f64((secs * self.time_scale).max(0.0))
    }

    /// How long writing `bytes` bytes keeps the disk busy: the modeled
    /// duration in [`DiskMode::Stall`], none when it is only accounted.
    pub fn busy_time(&self, bytes: u64) -> Duration {
        match self.mode {
            DiskMode::Stall => self.write_time(bytes),
            DiskMode::AccountOnly => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_time_scales_with_bytes_and_time_scale() {
        let m = DiskModel {
            bandwidth_bytes_per_s: 1_000_000.0,
            latency: Duration::from_millis(10),
            time_scale: 1.0,
            mode: DiskMode::AccountOnly,
        };
        let t = m.write_time(1_000_000);
        assert!((t.as_secs_f64() - 1.010).abs() < 1e-9);

        let scaled = DiskModel {
            time_scale: 0.1,
            ..m
        };
        assert!((scaled.write_time(1_000_000).as_secs_f64() - 0.101).abs() < 1e-9);
    }

    #[test]
    fn instant_disk_is_never_busy() {
        let m = DiskModel::instant();
        assert_eq!(m.write_time(1 << 30), Duration::ZERO);
        assert_eq!(m.busy_time(1 << 30), Duration::ZERO);
    }

    #[test]
    fn only_a_stall_disk_is_busy_for_the_modeled_time() {
        let bytes = 100 * 1024 * 1024;
        let stall = DiskModel::scsi_1999(1.0, DiskMode::Stall);
        assert!(stall.write_time(bytes).as_secs_f64() > 5.0); // ~6.7 s
        assert_eq!(stall.busy_time(bytes), stall.write_time(bytes));
        let account = DiskModel {
            mode: DiskMode::AccountOnly,
            ..stall
        };
        assert_eq!(account.write_time(bytes), stall.write_time(bytes));
        assert_eq!(account.busy_time(bytes), Duration::ZERO);
    }
}
