//! The per-layer ledger of one repetition, read from outside: the public
//! `RunReport` (source R) and the benchmark's own spans (source S).

use std::collections::BTreeMap;

use dsm_trace::Histogram;
use ftdsm::RunReport;

use crate::spans::Span;
use crate::stats::quantile_or_zero;
use crate::workloads::{NodeOut, Workload};

pub type Values = BTreeMap<&'static str, f64>;

pub const MB: f64 = 1e6;

/// The application-thread ledger: Figure-3 shares of the time the
/// application threads existed, summed over nodes (`process.total_s`).
/// Compute is the residual, so the seven add up to 100 unless a wait was
/// counted twice (then compute stops at 0 and they exceed 100).
pub const SHARES: [&str; 7] = [
    "process.compute_pct",
    "process.page_wait_pct",
    "process.lock_wait_pct",
    "process.barrier_wait_pct",
    "process.protocol_pct",
    "ft.logging_pct",
    "storage.disk_pct",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean_us(h: &Histogram) -> f64 {
    ratio(h.sum() as f64, h.count() as f64) / 1e3
}

fn total_ms(h: &Histogram) -> f64 {
    h.sum() as f64 / 1e6
}

/// Source R: every number below is a field of the public report.
pub fn from_report(report: &RunReport<NodeOut>, elapsed_s: f64) -> Values {
    let mut v = Values::new();
    let n = report.nodes.len() as f64;
    let wall = report.wall.as_secs_f64();

    let b = report.total_breakdown();
    let total = b.total.as_secs_f64();
    v.insert("process.total_s", total);
    let parts = [
        b.compute(),
        b.page_wait,
        b.lock_wait,
        b.barrier_wait,
        b.protocol,
        b.logging,
        b.disk_write,
    ];
    for (name, part) in SHARES.into_iter().zip(parts) {
        v.insert(name, 100.0 * ratio(part.as_secs_f64(), total));
    }
    v.insert(
        "ledger.unattributed_pct",
        100.0 * ratio((n * wall - total).abs(), n * wall),
    );
    let ops: u64 = report.nodes.iter().map(|nd| nd.ops).sum();
    v.insert("process.ops", ops as f64);
    v.insert(
        "process.ns_per_op",
        ratio(b.compute().as_secs_f64() * 1e9, ops as f64),
    );

    let h = report.total_hists();
    let kinds = report.total_msg_kinds();
    let msgs = |names: &[&str]| -> f64 {
        kinds
            .iter()
            .filter(|(k, _)| names.contains(k))
            .map(|&(_, c)| c as f64)
            .sum()
    };

    // Every remote page install records one `fetch_copy` sample.
    let fetched = h.fetch_copy.count() as f64;
    v.insert("pagetable.fetches", fetched);
    v.insert("pagetable.fetch_mean_us", mean_us(&h.page_fetch));
    v.insert(
        "pagetable.round_trips_per_page",
        ratio(msgs(&["PageReq", "PageBatchReq"]), fetched),
    );
    let (hits, misses) = (
        h.prefetch_hit.count() as f64,
        h.prefetch_miss.count() as f64,
    );
    v.insert("pagetable.prefetch_hit_ratio", ratio(hits, hits + misses));
    v.insert(
        "pagetable.batch_pages_mean",
        ratio(
            h.fetch_batch_pages.sum() as f64,
            h.fetch_batch_pages.count() as f64,
        ),
    );

    v.insert("homestore.diffs_applied", h.diff_apply.count() as f64);
    v.insert("homestore.diff_apply_mean_us", mean_us(&h.diff_apply));
    v.insert(
        "homestore.shard_lock_waits",
        h.shard_lock_wait.count() as f64,
    );
    v.insert(
        "homestore.shard_lock_wait_mean_us",
        mean_us(&h.shard_lock_wait),
    );

    v.insert("diff.create_mean_us", mean_us(&h.diff_create));
    let pool = report.total_pool();
    v.insert(
        "pool.hit_ratio",
        ratio(pool.hits as f64, (pool.hits + pool.misses) as f64),
    );
    v.insert("pool.rejected", pool.rejected as f64);

    v.insert("flush.release_mean_us", mean_us(&h.release_flush));
    v.insert("locks.acquires", h.lock_wait.count() as f64);
    v.insert("locks.wait_mean_us", mean_us(&h.lock_wait));
    v.insert("barrier.crossings", h.barrier_wait.count() as f64);
    v.insert("barrier.wait_mean_us", mean_us(&h.barrier_wait));
    v.insert(
        "barrier.release_build_mean_us",
        mean_us(&h.barrier_release_build),
    );

    // Service thread: busy share, and mean service time per message of the
    // kinds the home serves most (sent == received on the reliable fabric).
    let svc = report.total_svc_time_by_kind();
    let svc_total: f64 = svc.iter().map(|(_, d)| d.as_secs_f64()).sum();
    v.insert("node.svc_busy_pct", 100.0 * ratio(svc_total, n * wall));
    const NAMED: [(&str, &str); 5] = [
        ("node.svc_us.PageReq", "PageReq"),
        ("node.svc_us.PageBatchReq", "PageBatchReq"),
        ("node.svc_us.DiffBatch", "DiffBatch"),
        ("node.svc_us.LockAcq", "LockAcq"),
        ("node.svc_us.BarrierArrive", "BarrierArrive"),
    ];
    let (mut named_s, mut named_msgs) = (0.0, 0.0);
    for (metric, kind) in NAMED {
        let s = svc
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |(_, d)| d.as_secs_f64());
        let count = msgs(&[kind]);
        v.insert(metric, ratio(s * 1e6, count));
        named_s += s;
        named_msgs += count;
    }
    let traffic = report.total_traffic();
    v.insert(
        "node.svc_us.other",
        ratio(
            (svc_total - named_s) * 1e6,
            traffic.msgs_sent as f64 - named_msgs,
        ),
    );

    v.insert(
        "net.msgs_page",
        msgs(&["PageReq", "PageBatchReq", "PageReply", "PageBatchReply"]),
    );
    v.insert("net.msgs_diff", msgs(&["DiffBatch", "DiffAck"]));
    v.insert(
        "net.msgs_lock",
        msgs(&["LockAcq", "LockForward", "LockGrant"]),
    );
    v.insert(
        "net.msgs_barrier",
        msgs(&["BarrierArrive", "BarrierRelease"]),
    );
    v.insert(
        "net.msgs_recovery",
        kinds
            .iter()
            .filter(|(k, _)| k.starts_with("Rec"))
            .map(|&(_, c)| c as f64)
            .sum(),
    );
    let bytes = (traffic.base_bytes_sent + traffic.ft_bytes_sent) as f64;
    v.insert("net.bytes_per_msg", ratio(bytes, traffic.msgs_sent as f64));
    v.insert(
        "net.ft_piggyback_pct",
        100.0 * traffic.ft_overhead_fraction(),
    );
    // Receive-side queue wait is only stamped while tracing is on.
    let (queue_ns, received) = report
        .phases
        .iter()
        .fold((0u64, 0u64), |(q, c), (_, p)| (q + p.queue_ns, c + p.count));
    v.insert(
        "net.queue_wait_mean_us",
        ratio(queue_ns as f64, received as f64) / 1e3,
    );

    let ft = || report.nodes.iter().map(|nd| &nd.ft);
    v.insert(
        "storage.modeled_write_s",
        ft().map(|f| f.store.write_time.as_secs_f64()).sum(),
    );
    let ckpts = report.total_ckpts() as f64;
    v.insert("ft.ckpts", ckpts);
    v.insert("ft.ckpt_write_mean_us", mean_us(&h.ckpt_write));
    let ckpt_bytes: u64 = ft().map(|f| f.store.ckpt_bytes_written).sum();
    v.insert("ft.ckpt_mb_mean", ratio(ckpt_bytes as f64 / MB, ckpts));
    let created: u64 = ft().map(|f| f.log_counters.created_bytes).sum();
    let discarded: u64 = ft().map(|f| f.log_counters.discarded_bytes).sum();
    let saved: u64 = ft().map(|f| f.log_bytes_saved).sum();
    v.insert("ft.log_created_mb", created as f64 / MB);
    v.insert(
        "ft.log_saved_pct",
        100.0 * ratio(saved as f64, created as f64),
    );
    v.insert(
        "ft.log_discarded_pct",
        100.0 * ratio(discarded as f64, created as f64),
    );
    v.insert("ft.ckpt_window_max", report.max_ckpt_window() as f64);

    v.insert("recovery.restore_ms", total_ms(&h.rec_restore));
    v.insert("recovery.log_collect_ms", total_ms(&h.rec_log_collect));
    v.insert("recovery.replay_ms", total_ms(&h.rec_replay));

    v.insert(
        "trace.events",
        report.trace.counts().iter().map(|&(_, e)| e as f64).sum(),
    );
    v.insert("cluster.spawn_teardown_ms", (elapsed_s - wall) * 1e3);
    v
}

/// Source S: numbers taken from the spans of one traced repetition.
pub fn from_spans(workload: Workload, spans: &[Span], report_values: &Values) -> Values {
    // Durations in ns of the spans called `name`; on node 0 a batch round
    // has nothing to fetch, so the readers can be asked for alone.
    let durations = |name: &str, readers_only: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && !(readers_only && s.node == 0))
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let q_us = |d: Vec<f64>, q: f64| quantile_or_zero(d, q) / 1e3;
    let mut v = Values::new();
    let demand = durations("get_miss", false);
    v.insert(
        "fetch.pages_per_s",
        ratio(demand.len() as f64, demand.iter().sum::<f64>() / 1e9),
    );
    v.insert("fetch.demand_p50_us", q_us(demand.clone(), 0.5));
    v.insert("fetch.demand_p99_us", q_us(demand, 0.99));
    v.insert(
        "fetch.batch_round_p50_us",
        q_us(durations("batch_round", true), 0.5),
    );
    v.insert(
        "barrier.empty_p50_us",
        q_us(durations("barrier_empty", false), 0.5),
    );
    v.insert(
        "locks.acquire_p99_us",
        q_us(durations("acquire", false), 0.99),
    );
    // Diffs are created and flushed inside one call of each round: the
    // cluster-wide count of diffs over the mean per-node time spent there.
    let flush_call = match workload {
        Workload::DiffFanin => "barrier",
        Workload::LockMigratory => "release",
        _ => "",
    };
    let in_flush: f64 = durations(flush_call, false).iter().sum::<f64>() / 1e9;
    let nodes = spans.iter().map(|s| s.node + 1).max().unwrap_or(1) as f64;
    v.insert(
        "flush.diffs_per_s",
        ratio(report_values["homestore.diffs_applied"], in_flush / nodes),
    );
    v
}
