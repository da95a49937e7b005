//! Execution statistics.
//!
//! Each node's application thread accumulates a wall-clock [`Breakdown`]
//! around every DSM operation (Figure 3 of the paper), and the
//! fault-tolerance layer tracks log/checkpoint byte counters (Tables 3–4,
//! Figure 4). The harness aggregates per-node reports into the paper's
//! tables.

use std::ops::AddAssign;
use std::time::Duration;

use dsm_member::MemberStats;
use dsm_metrics::{labelled, MetricValue, TimeSeries};
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

impl FtReport {
    /// Fold another node's statistics in: totals add, high-water marks take
    /// the larger; the curve is a node's own and is left alone.
    fn merge(&mut self, o: &FtReport) {
        self.ckpts_taken += o.ckpts_taken;
        self.log_counters.created_bytes += o.log_counters.created_bytes;
        self.log_counters.discarded_bytes += o.log_counters.discarded_bytes;
        self.log_bytes_saved += o.log_bytes_saved;
        self.max_stable_log_bytes = self.max_stable_log_bytes.max(o.max_stable_log_bytes);
        self.max_ckpt_window = self.max_ckpt_window.max(o.max_ckpt_window);
        self.store.bytes_written += o.store.bytes_written;
        self.store.ckpt_bytes_written += o.store.ckpt_bytes_written;
        self.store.log_bytes_written += o.store.log_bytes_written;
        self.store.writes += o.store.writes;
        self.store.write_time += o.store.write_time;
        self.recoveries += o.recoveries;
        self.recovery_time += o.recovery_time;
        self.replayed_pages += o.replayed_pages;
    }
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

impl AddAssign for PrefetchCounts {
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
    /// Diff batches this node's barrier arrivals carried to the manager
    /// instead of sending each as a `DiffBatch` of its own.
    pub diff_batches_carried: u64,
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
    /// Diff batches queued and not acknowledged when the report was taken
    /// (zero at teardown, and whenever the retry layer is off).
    pub diff_outbox_depth: u64,
}

/// Add `other`'s per-kind values to `acc`'s, keeping it sorted by kind.
fn add_kinds<V: Copy + AddAssign>(acc: &mut Vec<(&'static str, V)>, other: &[(&'static str, V)]) {
    for &(kind, v) in other {
        match acc.binary_search_by_key(&kind, |&(k, _)| k) {
            Ok(i) => acc[i].1 += v,
            Err(i) => acc.insert(i, (kind, v)),
        }
    }
}

impl NodeReport {
    /// Fold another node's report in (cluster totals).
    pub fn merge(&mut self, o: &NodeReport) {
        self.breakdown = self.breakdown.merged(&o.breakdown);
        self.traffic = self.traffic + o.traffic;
        self.ft.merge(&o.ft);
        self.ops += o.ops;
        self.hists.merge(&o.hists);
        self.pool.merge(&o.pool);
        add_kinds(&mut self.svc_time_by_kind, &o.svc_time_by_kind);
        add_kinds(&mut self.msg_kinds, &o.msg_kinds);
        add_kinds(&mut self.msg_kind_bytes, &o.msg_kind_bytes);
        self.member.suspicions += o.member.suspicions;
        self.member.false_suspicions += o.member.false_suspicions;
        self.member.down_events += o.member.down_events;
        self.member.up_events += o.member.up_events;
        self.member.pings_sent += o.member.pings_sent;
        self.retransmits += o.retransmits;
        self.diff_batches_carried += o.diff_batches_carried;
        self.dup_suppressed += o.dup_suppressed;
        self.fetch_delta_pages += o.fetch_delta_pages;
        self.fetch_delta_bytes += o.fetch_delta_bytes;
        self.prefetch += o.prefetch;
        self.diff_outbox_depth += o.diff_outbox_depth;
    }

    /// The metric table: every number of this report under its metric name —
    /// the one place a name is written (docs/OBSERVABILITY.md §2 lists them,
    /// and a test holds it to that). A [`MetricValue::Counter`] never
    /// decreases over a run, crashes included. A per-kind row carries its
    /// message kind as a `{kind="…"}` label; `stable_log_curve` is the one
    /// field with no row (a series, not a number). A histogram's name is its
    /// `LatencyHists::named()` label plus `_ns`, but for the three that count
    /// bytes, pages or retries.
    pub fn metrics(&self) -> Vec<(String, MetricValue<'_>)> {
        use MetricValue::{Counter, Gauge, Hist};
        let ns = |d: Duration| d.as_nanos() as u64;
        let (b, t, ft, pf) = (&self.breakdown, &self.traffic, &self.ft, &self.prefetch);
        let (logs, store, pool, member) = (&ft.log_counters, &ft.store, &self.pool, &self.member);
        let counters = [
            ("ops_total", self.ops),
            ("app_time_ns_total", ns(b.total)),
            ("page_wait_ns_total", ns(b.page_wait)),
            ("lock_wait_ns_total", ns(b.lock_wait)),
            ("barrier_wait_ns_total", ns(b.barrier_wait)),
            ("protocol_ns_total", ns(b.protocol)),
            ("logging_ns_total", ns(b.logging)),
            ("disk_write_ns_total", ns(b.disk_write)),
            ("fabric_msgs_sent_total", t.msgs_sent),
            ("fabric_base_bytes_sent_total", t.base_bytes_sent),
            ("fabric_ft_bytes_sent_total", t.ft_bytes_sent),
            ("fabric_msgs_dropped_total", t.msgs_dropped),
            ("fabric_chaos_dropped_total", t.chaos_dropped),
            ("fabric_chaos_delayed_total", t.chaos_delayed),
            ("fabric_chaos_duplicated_total", t.chaos_duplicated),
            ("fabric_partition_blocked_total", t.partition_blocked),
            ("ckpts_taken_total", ft.ckpts_taken),
            ("log_created_bytes_total", logs.created_bytes),
            ("log_discarded_bytes_total", logs.discarded_bytes),
            ("log_saved_bytes_total", ft.log_bytes_saved),
            ("store_bytes_written_total", store.bytes_written),
            ("store_ckpt_bytes_written_total", store.ckpt_bytes_written),
            ("store_log_bytes_written_total", store.log_bytes_written),
            ("store_writes_total", store.writes),
            ("store_write_time_ns_total", ns(store.write_time)),
            ("recoveries_total", ft.recoveries),
            ("recovery_time_ns_total", ns(ft.recovery_time)),
            ("replayed_pages_total", ft.replayed_pages),
            ("pool_hits_total", pool.hits),
            ("pool_misses_total", pool.misses),
            ("pool_recycled_total", pool.recycled),
            ("pool_rejected_total", pool.rejected),
            ("member_suspicions_total", member.suspicions),
            ("member_false_suspicions_total", member.false_suspicions),
            ("member_down_events_total", member.down_events),
            ("member_up_events_total", member.up_events),
            ("member_pings_sent_total", member.pings_sent),
            ("retransmits_total", self.retransmits),
            ("diff_batches_carried_total", self.diff_batches_carried),
            ("dup_suppressed_total", self.dup_suppressed),
            ("fetch_delta_pages_total", self.fetch_delta_pages),
            ("fetch_delta_bytes_total", self.fetch_delta_bytes),
            ("prefetched_total", pf.prefetched),
            ("prefetched_used_total", pf.prefetched_used),
            ("prefetch_skipped_total", pf.prefetch_skipped),
            ("skipped_then_missed_total", pf.skipped_then_missed),
        ];
        let gauges = [
            ("stable_log_max_bytes", ft.max_stable_log_bytes),
            ("ckpt_window_max", ft.max_ckpt_window as u64),
            ("diff_outbox_depth", self.diff_outbox_depth),
        ];
        let svc = self.svc_time_by_kind.iter();
        let svc_ns: Vec<_> = svc.map(|&(k, d)| (k, ns(d))).collect();
        let by_kind = [
            ("msgs_sent_by_kind_total", &self.msg_kinds),
            ("bytes_sent_by_kind_total", &self.msg_kind_bytes),
            ("svc_time_ns_by_kind_total", &svc_ns),
        ];
        let mut rows: Vec<(String, MetricValue)> = Vec::new();
        rows.extend(counters.map(|(name, v)| (name.into(), Counter(v))));
        rows.extend(gauges.map(|(name, v)| (name.into(), Gauge(v))));
        for (name, list) in by_kind {
            let kinds = list.iter();
            rows.extend(kinds.map(|&(kind, v)| (labelled(name, "kind", kind), Counter(v))));
        }
        rows.extend(self.hists.named().map(|(label, h)| match label {
            "fetch_copy_bytes" | "fetch_batch_pages" | "retransmits" => (label.into(), Hist(h)),
            _ => (format!("{label}_ns"), Hist(h)),
        }));
        rows
    }
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
    /// FNV-1a hash, over the pages in order, of each page's FNV-1a hash of
    /// the final shared memory contents (read from the authoritative home
    /// copies). Crash-free and crash+recovery runs of a
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
    /// Every node's report folded into one (see [`NodeReport::merge`]); the
    /// `total_*` accessors below are its fields.
    pub fn total(&self) -> NodeReport {
        let mut total = NodeReport::default();
        self.nodes.iter().for_each(|n| total.merge(n));
        total
    }

    /// Sum of all nodes' traffic.
    pub fn total_traffic(&self) -> TrafficSnapshot {
        self.total().traffic
    }

    /// Breakdown summed across nodes (the paper normalizes, so sums and
    /// averages are interchangeable for ratios).
    pub fn total_breakdown(&self) -> Breakdown {
        self.total().breakdown
    }

    /// Total checkpoints across the cluster.
    pub fn total_ckpts(&self) -> u64 {
        self.total().ft.ckpts_taken
    }

    /// Max checkpoint window across the cluster (Table 4 `Wmax`).
    pub fn max_ckpt_window(&self) -> usize {
        self.total().ft.max_ckpt_window
    }

    /// All nodes' latency histograms folded together.
    pub fn total_hists(&self) -> LatencyHists {
        self.total().hists
    }

    /// All nodes' page-pool statistics folded together.
    pub fn total_pool(&self) -> PoolStats {
        self.total().pool
    }

    /// All nodes' per-kind service time folded together (sorted by kind).
    pub fn total_svc_time_by_kind(&self) -> Vec<(&'static str, Duration)> {
        self.total().svc_time_by_kind
    }

    /// All nodes' per-kind sent-message counts folded together.
    pub fn total_msg_kinds(&self) -> Vec<(&'static str, u64)> {
        self.total().msg_kinds
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
