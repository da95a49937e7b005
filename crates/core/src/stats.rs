//! Execution statistics.
//!
//! Each node's application thread accumulates a wall-clock [`Breakdown`]
//! around every DSM operation (Figure 3 of the paper), and the
//! fault-tolerance layer tracks log/checkpoint byte counters (Tables 3–4,
//! Figure 4). The harness aggregates per-node reports into the paper's
//! tables.

use std::time::Duration;

use dsm_member::MemberStats;
use dsm_metrics::TimeSeries;
use dsm_net::stats::TrafficSnapshot;
use dsm_net::PhaseAcc;
use dsm_page::PoolStats;
use dsm_storage::StoreStats;
use dsm_trace::{LatencyHists, Trace};

use crate::ft::logs::LogCounters;
use crate::monitor::MonitorReport;

/// Wall-clock execution-time breakdown of one node's application thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Total application wall time.
    pub total: Duration,
    /// Waiting for page fetches from homes.
    pub page_wait: Duration,
    /// Waiting for lock grants.
    pub lock_wait: Duration,
    /// Waiting at barriers.
    pub barrier_wait: Duration,
    /// Protocol work on the application thread (diff creation, write-notice
    /// application, message assembly).
    pub protocol: Duration,
    /// Fault-tolerance logging and trimming work.
    pub logging: Duration,
    /// Modeled stable-storage write time.
    pub disk_write: Duration,
}

impl Breakdown {
    /// Computation time: whatever the overheads don't account for.
    pub fn compute(&self) -> Duration {
        self.total
            .saturating_sub(self.page_wait)
            .saturating_sub(self.lock_wait)
            .saturating_sub(self.barrier_wait)
            .saturating_sub(self.protocol)
            .saturating_sub(self.logging)
            .saturating_sub(self.disk_write)
    }

    /// Elementwise sum of two breakdowns.
    pub fn merged(&self, o: &Breakdown) -> Breakdown {
        Breakdown {
            total: self.total + o.total,
            page_wait: self.page_wait + o.page_wait,
            lock_wait: self.lock_wait + o.lock_wait,
            barrier_wait: self.barrier_wait + o.barrier_wait,
            protocol: self.protocol + o.protocol,
            logging: self.logging + o.logging,
            disk_write: self.disk_write + o.disk_write,
        }
    }
}

/// Fault-tolerance statistics of one node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FtReport {
    /// Checkpoints taken.
    pub ckpts_taken: u64,
    /// Of those, incremental (delta) checkpoints — blobs carrying only the
    /// pages written since the previous checkpoint. Zero unless
    /// `FtConfig::anchor_every` is above 1.
    pub delta_ckpts: u64,
    /// Volatile-log byte counters (created / discarded by trimming).
    pub log_counters: LogCounters,
    /// Cumulative bytes of volatile logs saved to stable storage.
    pub log_bytes_saved: u64,
    /// Largest observed stable-log residency (Table 4 "max log disk").
    pub max_stable_log_bytes: u64,
    /// Largest observed checkpoint-window size (Table 4 `Wmax`).
    pub max_ckpt_window: usize,
    /// `(checkpoint number, stable-log bytes after that checkpoint)` —
    /// Figure 4's curve.
    pub stable_log_curve: Vec<(u64, u64)>,
    /// Stable-storage statistics (disk traffic, modeled write time).
    pub store: StoreStats,
    /// Number of recoveries this node performed.
    pub recoveries: u64,
    /// Total wall time spent in recovery (checkpoint restore + log
    /// collection + replay, up to the transition back to live execution).
    pub recovery_time: std::time::Duration,
    /// Remote pages those recoveries rebuilt by home emulation: each costs
    /// one request to, and one reply from, every peer.
    pub replayed_pages: u64,
}

/// What speculative page fetching moved and what came of it. A page is
/// *prefetched* when a `PageReq` asks for it before any access does:
/// after an invalidation, if the copy held last was used, or as the
/// left-out neighbour of a page that missed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchCounts {
    /// Pages asked for ahead of any access to them.
    pub prefetched: u64,
    /// Of the copies those requests installed, the ones read or written
    /// before the next invalidation (or found in flight by a fault).
    pub prefetched_used: u64,
    /// Invalidated pages left out of the prefetch because the copy held
    /// last was never read or written (once per page and invalidation
    /// round).
    pub prefetch_skipped: u64,
    /// Demand misses on a page that had been left out.
    pub skipped_then_missed: u64,
}

impl std::ops::AddAssign for PrefetchCounts {
    fn add_assign(&mut self, o: Self) {
        self.prefetched += o.prefetched;
        self.prefetched_used += o.prefetched_used;
        self.prefetch_skipped += o.prefetch_skipped;
        self.skipped_then_missed += o.skipped_then_missed;
    }
}

/// Everything measured on one node.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Application-thread time breakdown.
    pub breakdown: Breakdown,
    /// Network traffic sent by this node.
    pub traffic: TrafficSnapshot,
    /// Fault-tolerance statistics (zeroed when FT is off).
    pub ft: FtReport,
    /// DSM operations performed.
    pub ops: u64,
    /// Protocol latency histograms (always collected; cheap).
    pub hists: LatencyHists,
    /// Twin/copy buffer pool statistics (hits = allocation-free reuses).
    pub pool: PoolStats,
    /// Service-thread protocol time attributed per message kind (sorted by
    /// kind name). The sum equals `breakdown.protocol`'s service share.
    pub svc_time_by_kind: Vec<(&'static str, Duration)>,
    /// Messages sent by this node per payload kind (sorted by kind name).
    pub msg_kinds: Vec<(&'static str, u64)>,
    /// Bytes sent by this node per payload kind, piggyback included.
    pub msg_kind_bytes: Vec<(&'static str, u64)>,
    /// Membership/failure-detection counters (zeroed when membership is off).
    pub member: MemberStats,
    /// Request retransmissions issued by this node (page/lock/barrier/diff
    /// traffic resent after the retry timeout; zero when retries are off).
    pub retransmits: u64,
    /// Duplicate deliveries this node detected and suppressed (re-granted
    /// locks, re-delivered pages, stale diff acks, mismatched prefetches).
    pub dup_suppressed: u64,
    /// Fetches this node installed as a delta: the home sent the diffs the
    /// kept stale copy was missing instead of the page.
    pub fetch_delta_pages: u64,
    /// Diff payload bytes those deltas wrote into the kept copies.
    pub fetch_delta_bytes: u64,
    /// Prefetch traffic against its use.
    pub prefetch: PrefetchCounts,
}

/// The result of a cluster run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-node application results (in node order).
    pub results: Vec<R>,
    /// Per-node statistics.
    pub nodes: Vec<NodeReport>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Bytes of shared memory allocated.
    pub shared_bytes: u64,
    /// FNV-1a hash of the final shared memory contents (read from the
    /// authoritative home copies). Crash-free and crash+recovery runs of a
    /// deterministic application must produce the same hash.
    pub shared_hash: u64,
    /// The run's protocol trace (empty rings unless tracing was enabled);
    /// export with [`dsm_trace::export`].
    pub trace: Trace,
    /// Receive-side latency attribution per message kind, cluster-wide:
    /// queue wait vs chaos-injected delay. Empty unless tracing was on.
    pub phases: Vec<(&'static str, PhaseAcc)>,
    /// Periodic metrics snapshots sampled during the run (empty when
    /// metrics sampling was off).
    pub metrics: TimeSeries,
    /// Invariant-monitor summary (`None` when the monitor was off). A run
    /// with violations panics before this report is returned; the field
    /// exists so clean runs can assert the monitor actually consumed
    /// events.
    pub monitor: Option<MonitorReport>,
}

impl<R> RunReport<R> {
    /// Sum of all nodes' traffic.
    pub fn total_traffic(&self) -> TrafficSnapshot {
        self.nodes
            .iter()
            .map(|n| n.traffic)
            .fold(TrafficSnapshot::default(), |a, b| a + b)
    }

    /// Breakdown averaged... summed across nodes (the paper normalizes, so
    /// sums and averages are interchangeable for ratios).
    pub fn total_breakdown(&self) -> Breakdown {
        self.nodes
            .iter()
            .map(|n| n.breakdown)
            .fold(Breakdown::default(), |a, b| a.merged(&b))
    }

    /// Total checkpoints across the cluster.
    pub fn total_ckpts(&self) -> u64 {
        self.nodes.iter().map(|n| n.ft.ckpts_taken).sum()
    }

    /// Max checkpoint window across the cluster (Table 4 `Wmax`).
    pub fn max_ckpt_window(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.ft.max_ckpt_window)
            .max()
            .unwrap_or(0)
    }

    /// All nodes' latency histograms folded together.
    pub fn total_hists(&self) -> LatencyHists {
        let mut acc = LatencyHists::default();
        for n in &self.nodes {
            acc.merge(&n.hists);
        }
        acc
    }

    /// All nodes' page-pool statistics folded together.
    pub fn total_pool(&self) -> PoolStats {
        let mut acc = PoolStats::default();
        for n in &self.nodes {
            acc.merge(&n.pool);
        }
        acc
    }

    /// All nodes' per-kind service time folded together (sorted by kind).
    pub fn total_svc_time_by_kind(&self) -> Vec<(&'static str, Duration)> {
        let mut acc: std::collections::BTreeMap<&'static str, Duration> = Default::default();
        for n in &self.nodes {
            for &(k, d) in &n.svc_time_by_kind {
                *acc.entry(k).or_default() += d;
            }
        }
        acc.into_iter().collect()
    }

    /// All nodes' membership counters folded together.
    pub fn total_member(&self) -> MemberStats {
        let mut acc = MemberStats::default();
        for n in &self.nodes {
            acc.suspicions += n.member.suspicions;
            acc.false_suspicions += n.member.false_suspicions;
            acc.down_events += n.member.down_events;
            acc.up_events += n.member.up_events;
            acc.pings_sent += n.member.pings_sent;
        }
        acc
    }

    /// Total request retransmissions across the cluster.
    pub fn total_retransmits(&self) -> u64 {
        self.nodes.iter().map(|n| n.retransmits).sum()
    }

    /// Total suppressed duplicate deliveries across the cluster.
    pub fn total_dup_suppressed(&self) -> u64 {
        self.nodes.iter().map(|n| n.dup_suppressed).sum()
    }

    /// Fetches installed as deltas across the cluster.
    pub fn fetch_delta_pages(&self) -> u64 {
        self.nodes.iter().map(|n| n.fetch_delta_pages).sum()
    }

    /// Diff payload bytes the cluster's delta installs copied.
    pub fn fetch_delta_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.fetch_delta_bytes).sum()
    }

    /// All nodes' prefetch counters summed.
    pub fn total_prefetch(&self) -> PrefetchCounts {
        let mut acc = PrefetchCounts::default();
        for n in &self.nodes {
            acc += n.prefetch;
        }
        acc
    }

    /// All nodes' per-kind sent-message counts folded together.
    pub fn total_msg_kinds(&self) -> Vec<(&'static str, u64)> {
        let mut acc: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for n in &self.nodes {
            for &(k, c) in &n.msg_kinds {
                *acc.entry(k).or_default() += c;
            }
        }
        acc.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_is_residual() {
        let b = Breakdown {
            total: Duration::from_secs(10),
            page_wait: Duration::from_secs(1),
            lock_wait: Duration::from_secs(2),
            barrier_wait: Duration::from_secs(3),
            protocol: Duration::from_millis(500),
            logging: Duration::from_millis(250),
            disk_write: Duration::from_millis(250),
        };
        assert_eq!(b.compute(), Duration::from_secs(3));
    }

    #[test]
    fn compute_saturates_rather_than_panics() {
        let b = Breakdown {
            total: Duration::from_secs(1),
            page_wait: Duration::from_secs(5),
            ..Default::default()
        };
        assert_eq!(b.compute(), Duration::ZERO);
    }
}
