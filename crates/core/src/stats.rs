//! Execution statistics.
//!
//! Each node's application thread accumulates a wall-clock [`Breakdown`]
//! around every DSM operation (Figure 3 of the paper), and the
//! fault-tolerance layer tracks log/checkpoint byte counters (Tables 3–4,
//! Figure 4). The harness aggregates per-node reports into the paper's
//! tables.

use std::ops::AddAssign;
use std::time::Duration;

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
    /// Waiting for the disk: a barrier, a checkpoint that fell due or the
    /// end of the run found the last checkpoint still being written. The
    /// disk's own modeled busy time is `FtReport::store.write_time`.
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
    /// Remote pages those recoveries' replays installed, rebuilt by home
    /// emulation.
    pub replayed_pages: u64,
    /// Rounds of home emulation those recoveries ran: each is one
    /// `RecPageReq` to, and one `RecPageReply` from, every peer. The first
    /// asks for every page the handshake named; each later one, for a
    /// replayed miss on a page it did not.
    pub rec_rounds: u64,
    /// Pages a first round built that the replay never installed.
    pub batched_unused: u64,
    /// Saved log entries read back from stable storage to serve a
    /// recovery, a peer's or this node's own.
    pub log_entries_read: u64,
    /// Largest observed size of the log entries held in memory: those no
    /// published checkpoint has saved yet.
    pub max_resident_log_bytes: u64,
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
        self.rec_rounds += o.rec_rounds;
        self.batched_unused += o.batched_unused;
        self.log_entries_read += o.log_entries_read;
        self.max_resident_log_bytes = self.max_resident_log_bytes.max(o.max_resident_log_bytes);
    }
}

/// Declares [`Counts`] from one list — field, doc and metric name — so that
/// a new count is one entry: the struct, [`Counts::merge`] and
/// [`Counts::named`] (the metric rows) cannot fall out of step.
macro_rules! counts {
    ($($(#[$doc:meta])* $field:ident => $name:literal,)*) => {
        /// The event counts a node keeps. They are the node's, not a
        /// module's: every module adds to them in place, and a crash, which
        /// wipes the modules, leaves them alone, so they cover the whole run.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counts {
            /// Fold another node's counts in.
            pub fn merge(&mut self, o: &Counts) {
                $(self.$field += o.$field;)*
            }

            /// (metric name, count) pairs in table order.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(($name, self.$field),)*].into_iter()
            }
        }
    };
}

counts! {
    /// Peer restarts this node learned of: one per recovery handshake
    /// (`RecLogReq`) it answered.
    restarts_seen => "peer_restarts_total",
    /// Diff batches this node's barrier arrivals carried to the manager,
    /// and its releases to their receivers, instead of sending each as a
    /// `DiffBatch` of its own.
    diff_batches_carried => "diff_batches_carried_total",
    /// Barrier arrivals this node's service thread handled (folded in when
    /// the service loop exits). The service thread passes an arrival while
    /// the application thread lives, so the manager's application thread
    /// takes every arrival inside its waits; this counts only those that
    /// came after it ended.
    svc_arrivals => "svc_barrier_arrivals_total",
    /// Requests (messages not [`dsm_net::WireSized::to_waiter`]) this node's
    /// application thread served inside its waits, which the service thread
    /// would otherwise have been woken for.
    app_served => "app_served_requests_total",
    /// A restart's second answers this node dropped: grants replayed for
    /// forwards re-issued after their grants were delivered, page replies
    /// to requests resent to a restarted home. 0 without a crash.
    dup_suppressed => "dup_suppressed_total",
    /// Fetches this node installed as a delta: the home sent the diffs the
    /// kept stale copy was missing instead of the page.
    fetch_delta_pages => "fetch_delta_pages_total",
    /// Diff payload bytes those deltas wrote into the kept copies.
    fetch_delta_bytes => "fetch_delta_bytes_total",
    /// Pages asked for ahead of any access to them: after an invalidation,
    /// if the copy held last was used, or as the left-out neighbour of a
    /// page that missed.
    prefetched => "prefetched_total",
    /// Of the copies those requests installed, the ones read or written
    /// before the next invalidation (or found in flight by a fault).
    prefetched_used => "prefetched_used_total",
    /// Invalidated pages left out of the prefetch because the copy held
    /// last was never read or written (once per page and invalidation
    /// round).
    prefetch_skipped => "prefetch_skipped_total",
    /// Demand misses on a page that had been left out.
    skipped_then_missed => "skipped_then_missed_total",
    /// Misses on a cold page — never held, named by no write notice —
    /// answered with the zero page instead of a fetch.
    zero_fills => "zero_fills_total",
    /// Pages this node's grants, releases and barrier arrivals carried to
    /// a peer that had reported using its copy, with the notices that
    /// invalidate it there: node 0's to every peer, whose arrivals report
    /// to it, and every other home's to node 0, whose reports its releases
    /// relay.
    pages_pushed => "pages_pushed_total",
    /// Of the pushed pages this node installed, the ones read or written
    /// before the next invalidation.
    pushed_used => "pushed_used_total",
    /// Pushed pages this node did not install: its copy was no longer the
    /// one the push built on, a fetch of the page was in flight, or the
    /// version did not cover what the page needed. Each was then fetched
    /// as if nothing had come.
    pushes_refused => "pushes_refused_total",
    /// Of those, the ones whose version missed a notice the page needed (a
    /// writer other than the home wrote it too); this node reports the
    /// page no more.
    pushes_stale => "pushes_stale_total",
}

/// Why a `PageReq` was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqCause {
    /// The prefetch a barrier release's notices start: pages whose last
    /// copy was used.
    ReleasePrefetch,
    /// The same after a lock grant.
    GrantPrefetch,
    /// A miss on a page the prefetch left out whose last copy was pushed
    /// and never read.
    MissPushedUnread,
    /// A miss on a left-out page whose last copy, fetched, was never read.
    MissUnused,
    /// A miss on a left-out page never held, that a notice names.
    MissNeverHeld,
    /// Any other miss: the last copy was used, or the page was not left
    /// out.
    MissOther,
}

impl ReqCause {
    /// Every cause, in report order.
    pub const ALL: [ReqCause; 6] = [
        ReqCause::ReleasePrefetch,
        ReqCause::GrantPrefetch,
        ReqCause::MissPushedUnread,
        ReqCause::MissUnused,
        ReqCause::MissNeverHeld,
        ReqCause::MissOther,
    ];

    /// The cause's metric label.
    pub fn label(self) -> &'static str {
        match self {
            ReqCause::ReleasePrefetch => "release_prefetch",
            ReqCause::GrantPrefetch => "grant_prefetch",
            ReqCause::MissPushedUnread => "miss_pushed_unread",
            ReqCause::MissUnused => "miss_unused",
            ReqCause::MissNeverHeld => "miss_never_held",
            ReqCause::MissOther => "miss_other",
        }
    }
}

/// `PageReq`s sent per [`ReqCause`], to node 0 and to the other homes. A
/// resend to a restarted home is not counted again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReqCauses([[u64; 2]; 6]);

impl ReqCauses {
    /// One `PageReq` for `cause` went to `home`.
    pub fn count(&mut self, cause: ReqCause, home: usize) {
        self.0[cause as usize][(home != 0) as usize] += 1;
    }

    /// `(to node 0, to the other homes)` for `cause`.
    pub fn get(&self, cause: ReqCause) -> (u64, u64) {
        let [node0, others] = self.0[cause as usize];
        (node0, others)
    }

    /// Every `PageReq` counted.
    pub fn total(&self) -> u64 {
        self.0.iter().flatten().sum()
    }
}

impl AddAssign for ReqCauses {
    fn add_assign(&mut self, o: Self) {
        let counts = self.0.iter_mut().flatten();
        counts.zip(o.0.iter().flatten()).for_each(|(a, b)| *a += b);
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
    /// The node's counts, over all its incarnations.
    pub counts: Counts,
    /// Why each `PageReq` this node sent was sent.
    pub req_causes: ReqCauses,
    /// Bytes of pushed pages this node sent per message kind (sorted by
    /// kind name): part of `msg_kind_bytes`.
    pub pushed_bytes: Vec<(&'static str, u64)>,
    /// Bytes of the diff batches this node's barrier arrivals and releases
    /// carried, per carrying kind (sorted by kind name): part of
    /// `msg_kind_bytes`, where a `DiffBatch` of their own would have been.
    pub carried_bytes: Vec<(&'static str, u64)>,
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
        self.counts.merge(&o.counts);
        self.req_causes += o.req_causes;
        add_kinds(&mut self.pushed_bytes, &o.pushed_bytes);
        add_kinds(&mut self.carried_bytes, &o.carried_bytes);
    }

    /// The metric table: every number of this report under its metric name —
    /// written here, in the [`Counts`] list, or as `fabric_<field>_total`
    /// for each [`TrafficSnapshot::named`] counter, and nowhere else
    /// (docs/OBSERVABILITY.md §2 lists them, and a test holds it to that).
    /// A [`MetricValue::Counter`] never
    /// decreases over a run, crashes included. A per-kind row carries its
    /// message kind as a `{kind="…"}` label; `stable_log_curve` is the one
    /// field with no row (a series, not a number). A histogram's name is its
    /// `LatencyHists::named()` label plus `_ns`, but for the two that count
    /// bytes or pages.
    pub fn metrics(&self) -> Vec<(String, MetricValue<'_>)> {
        use MetricValue::{Counter, Gauge, Hist};
        let ns = |d: Duration| d.as_nanos() as u64;
        let (b, ft) = (&self.breakdown, &self.ft);
        let (logs, store, pool) = (&ft.log_counters, &ft.store, &self.pool);
        let counters = [
            ("ops_total", self.ops),
            ("app_time_ns_total", ns(b.total)),
            ("page_wait_ns_total", ns(b.page_wait)),
            ("lock_wait_ns_total", ns(b.lock_wait)),
            ("barrier_wait_ns_total", ns(b.barrier_wait)),
            ("protocol_ns_total", ns(b.protocol)),
            ("logging_ns_total", ns(b.logging)),
            ("disk_write_ns_total", ns(b.disk_write)),
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
            ("rec_rounds_total", ft.rec_rounds),
            ("rec_batched_unused_total", ft.batched_unused),
            ("log_entries_read_total", ft.log_entries_read),
            ("pool_hits_total", pool.hits),
            ("pool_misses_total", pool.misses),
            ("pool_recycled_total", pool.recycled),
            ("pool_rejected_total", pool.rejected),
        ];
        let gauges = [
            ("stable_log_max_bytes", ft.max_stable_log_bytes),
            ("resident_log_max_bytes", ft.max_resident_log_bytes),
            ("ckpt_window_max", ft.max_ckpt_window as u64),
        ];
        let svc = self.svc_time_by_kind.iter();
        let svc_ns: Vec<_> = svc.map(|&(k, d)| (k, ns(d))).collect();
        let by_kind = [
            ("msgs_sent_by_kind_total", &self.msg_kinds),
            ("bytes_sent_by_kind_total", &self.msg_kind_bytes),
            ("svc_time_ns_by_kind_total", &svc_ns),
            ("pushed_bytes_by_kind_total", &self.pushed_bytes),
            ("carried_bytes_by_kind_total", &self.carried_bytes),
        ];
        let counter = |(name, v): (&str, u64)| (name.to_owned(), Counter(v));
        let fabric = self.traffic.named();
        let fabric = fabric.map(|(field, v)| (format!("fabric_{field}_total"), Counter(v)));
        let mut rows: Vec<(String, MetricValue)> = Vec::new();
        rows.extend(counters.map(counter));
        rows.extend(fabric);
        rows.extend(self.counts.named().map(counter));
        rows.extend(gauges.map(|(name, v)| (name.into(), Gauge(v))));
        for cause in ReqCause::ALL {
            let name = labelled("page_reqs_by_cause_total", "cause", cause.label());
            let (node0, others) = self.req_causes.get(cause);
            rows.push((labelled(&name, "home", 0), Counter(node0)));
            rows.push((labelled(&name, "home", "other"), Counter(others)));
        }
        for (name, list) in by_kind {
            let kinds = list.iter();
            rows.extend(kinds.map(|&(kind, v)| (labelled(name, "kind", kind), Counter(v))));
        }
        rows.extend(self.hists.named().map(|(label, h)| match label {
            "fetch_copy_bytes" | "fetch_batch_pages" => (label.into(), Hist(h)),
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

    #[test]
    fn the_metric_table_names_no_row_twice() {
        let report = NodeReport {
            svc_time_by_kind: vec![("PageReq", Duration::from_micros(3))],
            msg_kinds: vec![("PageReq", 1)],
            msg_kind_bytes: vec![("PageReq", 12)],
            pushed_bytes: vec![("LockGrant", 40)],
            carried_bytes: vec![("BarrierArrive", 20)],
            ..Default::default()
        };
        let rows = report.metrics();
        let mut names = std::collections::HashSet::new();
        for (name, _) in &rows {
            assert!(names.insert(name), "{name} is in the table twice");
        }
        let by_kind = rows.iter().filter(|(name, _)| name.contains("kind="));
        assert_eq!(by_kind.count(), 5, "a per-kind list has no row");
    }
}
