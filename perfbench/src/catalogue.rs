//! The metric catalogue: every number the benchmark reports, with its unit,
//! direction, regression bound and where it is measured. `BENCHMARK.json`
//! and the README tables are generated from these tables, and every result
//! file is checked against them, so the three cannot drift apart.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. `bound` is the relative
/// worsening of the median that counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// The workloads the metric is defined on.
    pub on: fn(Workload) -> bool,
}

impl EndToEnd {
    /// Does `BENCHMARK.json` bound the metric? It prints each end-to-end
    /// metric on each workload and accepts none that is ever 0 or that
    /// spreads wider than its bound from run to run, so it can hold only
    /// metrics defined on all seven workloads and steady on all seven. That
    /// leaves out the four defined on some workloads only — and the two
    /// times, `wall_s` and `cpu_s`: the kernels spend theirs on thread
    /// wake-ups, whose cost on a shared virtual host changes several times
    /// over from one minute to the next (see README.md). Those six keep
    /// their bound in `bench compare` and are listed per layer in the
    /// manifest.
    pub fn in_manifest(&self) -> bool {
        MANIFEST_END_TO_END.contains(&self.name)
    }
}

const MANIFEST_END_TO_END: [&str; 5] = [
    "setup_s",
    "ctx_switches",
    "net_mb",
    "net_msgs",
    "peak_rss_mb",
];

fn all(_: Workload) -> bool {
    true
}

pub const END_TO_END: &[EndToEnd] = &[
    // median over repetitions of the time a repetition spends outside
    // RunReport.wall: input generation from the seed, cluster spawn, quiesce,
    // teardown and report collection
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        on: all,
    },
    // median RunReport.wall of the repetitions at the stated size (time to
    // solution)
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        on: all,
    },
    // median CPU seconds (user + system, all threads) the process is charged
    // per repetition
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
        on: all,
    },
    // median voluntary context switches per repetition: how often a thread
    // blocked and had to be woken, the cost every wait in this system comes
    // down to
    EndToEnd {
        name: "ctx_switches",
        unit: "count",
        better: Better::Lower,
        bound: 0.20,
        on: all,
    },
    // median of the workload's blocking call timed around the public call,
    // pooled over nodes and repetitions: page_fetch = phase-A SharedVec::get,
    // diff_fanin = one round, lock_migratory = acquire
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
        on: Workload::has_op,
    },
    // median victim FtReport.recovery_time
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        on: |w| w == Workload::WaterSpCrash,
    },
    // median bytes sent per repetition (base + FT piggyback); the fabric has no
    // bandwidth model, so wall time never pays for bytes and this metric does
    EndToEnd {
        name: "net_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        on: all,
    },
    // median messages sent per repetition
    EndToEnd {
        name: "net_msgs",
        unit: "count",
        better: Better::Lower,
        bound: 0.08,
        on: all,
    },
    // median bytes written to stable storage per repetition, summed over nodes
    EndToEnd {
        name: "stable_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.03,
        on: Workload::ft,
    },
    // median of the largest stable-log residency of any node (the bounded-log
    // claim)
    EndToEnd {
        name: "stable_log_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        on: Workload::ft,
    },
    // peak resident memory of the workload's process once set-up is over
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        on: all,
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The public `RunReport` of the traced pass.
    Report,
    /// Benchmark spans around public calls.
    Spans,
    /// A direct probe of the layer's public functions.
    Probe,
    /// Derived from two passes (traced vs untraced, workload vs reference).
    Derived,
}

impl Source {
    pub fn letter(self) -> &'static str {
        match self {
            Source::Report => "R",
            Source::Spans => "S",
            Source::Probe => "P",
            Source::Derived => "D",
        }
    }
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Derived, Probe, Report, Spans};

/// Per-layer metrics, grouped by module. A metric that does not apply to a
/// workload (no locks, no FT, no recovery) reads 0 there.
pub const PER_LAYER: &[Layer] = &[
    // core::runtime::process — the application-thread ledger (Figure 3).
    layer("process.total_s", "s", Lower, Report),
    layer("process.compute_pct", "%", Higher, Report),
    layer("process.page_wait_pct", "%", Lower, Report),
    layer("process.lock_wait_pct", "%", Lower, Report),
    layer("process.barrier_wait_pct", "%", Lower, Report),
    layer("process.protocol_pct", "%", Lower, Report),
    layer("ft.logging_pct", "%", Lower, Report),
    layer("storage.disk_pct", "%", Lower, Report),
    layer("ledger.unattributed_pct", "%", Lower, Report),
    layer("process.ops", "count", Lower, Report),
    layer("process.ns_per_op", "ns", Lower, Report),
    layer("process.local_read_ns", "ns", Lower, Probe),
    layer("process.local_write_ns", "ns", Lower, Probe),
    // hlrc::pagetable and the fetch path.
    layer("pagetable.fetches", "count", Lower, Report),
    layer("pagetable.fetch_mean_us", "us", Lower, Report),
    layer("pagetable.round_trips_per_page", "ratio", Lower, Report),
    layer("pagetable.prefetch_hit_ratio", "ratio", Higher, Report),
    layer("pagetable.batch_pages_mean", "count", Higher, Report),
    layer("pagetable.ensure_access_ns", "ns", Lower, Probe),
    layer("pagetable.install_fetch_ns", "ns", Lower, Probe),
    layer("fetch.demand_p50_us", "us", Lower, Spans),
    layer("fetch.demand_p99_us", "us", Lower, Spans),
    layer("fetch.batch_round_p50_us", "us", Lower, Spans),
    layer("fetch.pages_per_s", "1/s", Higher, Spans),
    layer("fetch.wakeup_floor_pct", "%", Higher, Derived),
    // hlrc::homestore.
    layer("homestore.serve_fetch_ns", "ns", Lower, Probe),
    layer("homestore.apply_diff_ns", "ns", Lower, Probe),
    layer("homestore.diffs_applied", "count", Lower, Report),
    layer("homestore.diff_apply_mean_us", "us", Lower, Report),
    layer("homestore.shard_lock_waits", "count", Lower, Report),
    layer("homestore.shard_lock_wait_mean_us", "us", Lower, Report),
    // dsm-page.
    layer("diff.create_ns.w1", "ns", Lower, Probe),
    layer("diff.create_ns.w32", "ns", Lower, Probe),
    layer("diff.create_ns.w512", "ns", Lower, Probe),
    layer("diff.apply_ns.w32", "ns", Lower, Probe),
    layer("page.twin_write_ns", "ns", Lower, Probe),
    layer("vclock.join_ns", "ns", Lower, Probe),
    layer("diff.create_mean_us", "us", Lower, Report),
    layer("pool.hit_ratio", "ratio", Higher, Report),
    layer("pool.rejected", "count", Lower, Report),
    // hlrc::flush / wn / locks / barrier.
    layer("flush.release_mean_us", "us", Lower, Report),
    layer("locks.acquires", "count", Lower, Report),
    layer("locks.wait_mean_us", "us", Lower, Report),
    layer("barrier.crossings", "count", Lower, Report),
    layer("barrier.wait_mean_us", "us", Lower, Report),
    layer("barrier.release_build_mean_us", "us", Lower, Report),
    layer("flush.diffs_per_s", "1/s", Higher, Spans),
    layer("locks.acquire_p99_us", "us", Lower, Spans),
    layer("barrier.empty_p50_us", "us", Lower, Spans),
    layer("wn.missing_between_ns", "ns", Lower, Probe),
    layer("locks.on_request_ns", "ns", Lower, Probe),
    layer("barrier.arrive_ns", "ns", Lower, Probe),
    // core::runtime::node — the service thread.
    layer("node.svc_busy_pct", "%", Lower, Report),
    layer("node.svc_us.PageReq", "us", Lower, Report),
    layer("node.svc_us.PageBatchReq", "us", Lower, Report),
    layer("node.svc_us.DiffBatch", "us", Lower, Report),
    layer("node.svc_us.LockAcq", "us", Lower, Report),
    layer("node.svc_us.BarrierArrive", "us", Lower, Report),
    layer("node.svc_us.other", "us", Lower, Report),
    // dsm-net::endpoint.
    layer("net.msgs_page", "count", Lower, Report),
    layer("net.msgs_diff", "count", Lower, Report),
    layer("net.msgs_lock", "count", Lower, Report),
    layer("net.msgs_barrier", "count", Lower, Report),
    layer("net.msgs_recovery", "count", Lower, Report),
    layer("net.bytes_per_msg", "B", Lower, Report),
    layer("net.ft_piggyback_pct", "%", Lower, Report),
    layer("net.queue_wait_mean_us", "us", Lower, Report),
    layer("net.send_recv_ns", "ns", Lower, Probe),
    layer("net.oneway_wake_us", "us", Lower, Probe),
    // core::wire / dsm-storage.
    layer("wire.page_copies_encode_ns", "ns", Lower, Probe),
    layer("wire.diff_roundtrip_ns", "ns", Lower, Probe),
    layer("codec.ckpt_encode_mb_s", "MB/s", Higher, Probe),
    layer("codec.ckpt_decode_mb_s", "MB/s", Higher, Probe),
    layer("store.write_segment_us", "us", Lower, Probe),
    layer("storage.modeled_write_s", "s", Lower, Report),
    // core::ft.
    layer("ft.ckpts", "count", Lower, Report),
    layer("ft.ckpt_write_mean_us", "us", Lower, Report),
    layer("ft.ckpt_mb_mean", "MB", Lower, Report),
    layer("ft.log_created_mb", "MB", Lower, Report),
    layer("ft.log_saved_pct", "%", Lower, Report),
    layer("ft.log_discarded_pct", "%", Higher, Report),
    layer("ft.ckpt_window_max", "count", Lower, Report),
    layer("ft.overhead_pct", "%", Lower, Derived),
    // core::ft::recovery — the victim node.
    layer("recovery.restore_ms", "ms", Lower, Report),
    layer("recovery.log_collect_ms", "ms", Lower, Report),
    layer("recovery.replay_ms", "ms", Lower, Report),
    layer("recovery.wall_delta_pct", "%", Lower, Derived),
    // dsm-trace / dsm-metrics / runtime::cluster.
    layer("trace.overhead_pct", "%", Lower, Derived),
    layer("trace.events", "count", Lower, Report),
    layer("trace.emit_disabled_ns", "ns", Lower, Probe),
    layer("trace.emit_enabled_ns", "ns", Lower, Probe),
    layer("metrics.counter_inc_ns", "ns", Lower, Probe),
    layer("cluster.spawn_teardown_ms", "ms", Lower, Report),
    // The workload's blocking call beyond its median: tails do not repeat on
    // a shared host, so they carry no bound.
    layer("op_p99_us", "us", Lower, Spans),
];

/// `BENCHMARK.json`, generated: the end-to-end metrics it can bound, with their
/// bounds; every other metric, including the end-to-end ones defined on
/// only some workloads, per layer.
pub fn manifest(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .filter(|m| m.in_manifest())
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let demoted = END_TO_END
        .iter()
        .filter(|m| !m.in_manifest())
        .map(|m| (m.name, m.unit, m.better));
    let rows: Vec<String> = demoted
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit, l.better)))
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_manifest_rules() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in Workload::ALL {
            assert!(seen.insert(w.name()), "{} used twice", w.name());
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let per_layer = PER_LAYER.len() + END_TO_END.iter().filter(|m| !m.in_manifest()).count();
        assert!(per_layer <= 128, "{per_layer} per-layer metrics");
        let bounded: Vec<_> = END_TO_END.iter().filter(|m| m.in_manifest()).collect();
        assert_eq!(bounded.len(), MANIFEST_END_TO_END.len());
        assert!(bounded.iter().any(|m| m.name == "setup_s"));
        for m in bounded {
            let everywhere = Workload::ALL.into_iter().all(m.on);
            assert!(everywhere, "{} is not defined on every workload", m.name);
        }
    }

    #[test]
    fn manifest_is_json_and_matches_the_committed_file() {
        let text = manifest(crate::RUN_SECONDS);
        let doc = dsm_trace::json::parse(&text).expect("manifest parses");
        assert_eq!(doc.get("workloads").unwrap().as_arr().unwrap().len(), 7);
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(committed).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk, text,
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }
}
