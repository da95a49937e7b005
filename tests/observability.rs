//! Observability acceptance tests: causal cross-node flow export, per-kind
//! latency attribution, service-time coverage of every sent message kind,
//! order-insensitive metric merges, the invariant monitor catching an
//! injected protocol bug with the causal flow attached, the
//! disabled-trace overhead bound, and the metric table: the snapshot, the
//! panic-time dump, the cluster totals and the catalogue in the docs are
//! all views of the per-node report.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use dsm_metrics::{labelled, Snapshot, TimeSeries};
use dsm_trace::export::to_chrome_trace;
use dsm_trace::json::{self, Json};
use dsm_trace::{EventKind, Histogram, Trace};
use ftdsm_suite::{
    run, CkptPolicy, ClusterConfig, FailureSpec, FaultPlan, HomeAlloc, MetricsConfig, NodeReport,
    Process, ReqCause, TraceConfig,
};

/// Fixed seed: these runs are golden artifacts, not seed sweeps.
const SEED: u64 = 0x0b5e_44ab_111e_5eed;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Small two-node exchange: page fetches, lock-flush diff batches, barrier
/// releases — every message is a cross-node hop. The cells are node 0's,
/// and each step every node bumps one under lock 0 and then under lock 1.
/// Node 1's diffs leave with its next message: its arrival carries them,
/// unless node 0 holds lock 1, or held it last, when node 1 asks for it —
/// in at least one of any two steps — and they go alone, as a `DiffBatch`
/// ahead of the forward to node 0.
fn exchange(p: &mut Process) -> u64 {
    let cells = p.alloc_vec::<u64>(8, HomeAlloc::Interleaved);
    let mut state = 0u64;
    p.run_steps(&mut state, 4, |p, state, step| {
        for lock in [0, 1] {
            p.acquire(lock);
            let idx = step as usize % 8;
            let v = cells.get(p, idx);
            cells.set(p, idx, v + p.me() as u64 + 1);
            p.release(lock);
        }
        *state += step;
        p.barrier();
    });
    p.barrier();
    (0..8).map(|i| cells.get(p, i)).sum()
}

/// Wider workload (from the chaos suite) that exercises every traffic kind:
/// prefetch batches over interleaved pages, lock chains, barrier flushes.
fn wide_app(p: &mut Process) -> u64 {
    let n = p.nodes();
    let data = p.alloc_vec::<u64>(96, HomeAlloc::Interleaved);
    let counter = p.alloc_vec::<u64>(1, HomeAlloc::Node(1));
    let mut state = 0u64;
    p.run_steps(&mut state, 6, |p, state, step| {
        p.acquire(5);
        let v = counter.get(p, 0);
        counter.set(p, 0, v + 1);
        p.release(5);
        let me = p.me();
        for i in 0..96 {
            if i % n == me {
                let v = data.get(p, i);
                data.set(p, i, v.wrapping_mul(31).wrapping_add(step + i as u64));
            }
        }
        *state = state.wrapping_add(step);
        p.barrier();
    });
    p.barrier();
    let mut acc = counter.get(p, 0);
    for i in 0..96 {
        acc = acc.rotate_left(9) ^ data.get(p, i);
    }
    acc.wrapping_add(state)
}

/// Golden export: a fixed-seed two-node run must produce Chrome/Perfetto
/// flow events (`ph:"s"` / `ph:"f"`) whose ids bind a send on one node lane
/// to the matching receive on a *different* lane, and the run report must
/// attribute receive latency (queue wait vs chaos delay) per message kind.
#[test]
fn fixed_seed_two_node_exchange_exports_cross_node_flows() {
    let report = run(
        ClusterConfig::fault_tolerant(2)
            .with_page_size(256)
            .with_seed(SEED)
            .with_trace(TraceConfig::enabled()),
        &[],
        exchange,
    );

    let text = to_chrome_trace(&report.trace);
    let doc = json::parse(&text).expect("chrome trace must parse");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    // Bind flow starts to finishes by id and compare lanes.
    let mut start_lane: HashMap<u64, u64> = HashMap::new();
    let mut finish_lane: HashMap<u64, u64> = HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph != "s" && ph != "f" {
            continue;
        }
        assert_eq!(
            ev.get("cat").and_then(Json::as_str),
            Some("dsm.flow"),
            "flow events carry the dsm.flow category"
        );
        let id = ev.get("id").and_then(Json::as_num).expect("flow id") as u64;
        let tid = ev.get("tid").and_then(Json::as_num).expect("flow tid") as u64;
        if ph == "s" {
            start_lane.insert(id, tid);
        } else {
            finish_lane.insert(id, tid);
        }
    }
    assert!(!start_lane.is_empty(), "no flow starts exported");
    let cross = start_lane
        .iter()
        .filter(|(id, s)| finish_lane.get(id).is_some_and(|f| f != *s))
        .count();
    assert!(
        cross > 0,
        "no flow id connects two different node lanes ({} starts, {} finishes)",
        start_lane.len(),
        finish_lane.len()
    );

    // Per-kind end-to-end latency attribution reached the report: every
    // protocol exchange in this app crosses nodes, so queue wait must have
    // been measured, and chaos delay must be zero (no fault plan).
    assert!(!report.phases.is_empty(), "no phase attribution collected");
    let kinds: BTreeSet<&str> = report.phases.iter().map(|&(k, _)| k).collect();
    for expected in [
        "PageReq",
        "PageReply",
        "DiffBatch",
        "LockAcq",
        "BarrierArrive",
    ] {
        assert!(kinds.contains(expected), "no attribution for {expected}");
    }
    assert!(
        report.phases.iter().any(|(_, a)| a.queue_ns > 0),
        "queue wait never attributed"
    );
    assert!(
        report.phases.iter().all(|(_, a)| a.chaos_ns == 0),
        "chaos delay attributed on a chaos-free run"
    );
}

/// Two nodes taking turns, a barrier between every turn: node 0 rewrites a
/// block of its own pages and takes lock 1 (managed by node 1) twice to
/// bump a cell homed on node 1 — its second request leaves behind the first
/// tenure's diff, a `DiffBatch`; the second's rides its release to node 1 —
/// then node 1 refetches the block in batches and takes the lock from node
/// 0. A step's safe point lies between two
/// barriers, so a checkpoint is taken while nothing is in flight, and
/// which messages are sent and what they carry does not depend on thread
/// timing.
fn turns(p: &mut Process) -> u64 {
    let block = p.alloc_vec::<u64>(256, HomeAlloc::Node(0));
    let cell = p.alloc_vec::<u64>(1, HomeAlloc::Node(1));
    let bump = |p: &mut Process| {
        p.acquire(1);
        let v = cell.get(p, 0);
        cell.set(p, 0, v + 1);
        p.release(1);
    };
    let mut state = 0u64;
    p.run_steps(&mut state, 4, |p, state, step| {
        p.barrier();
        if p.me() == 0 {
            for i in 0..256 {
                block.set(p, i, step * 1000 + i as u64);
            }
            bump(p);
            bump(p);
        }
        p.barrier();
        if p.me() == 1 {
            *state += (0..256).map(|i| block.get(p, i)).sum::<u64>();
            bump(p);
        }
        p.barrier();
    });
    p.barrier();
    state + cell.get(p, 0)
}

/// Tracing moves no protocol byte: the same deterministic two-node run,
/// traced and untraced, sends the same messages of every kind with the same
/// base and FT bytes. Only the traced run pays for its contexts,
/// in the trace counter alone, and its replies still name their requests'
/// flows.
#[test]
fn tracing_moves_no_protocol_byte() {
    let run_with = |trace: TraceConfig| {
        run(
            ClusterConfig::fault_tolerant(2)
                .with_page_size(256)
                .with_policy(CkptPolicy::EverySteps(2))
                .with_seed(SEED)
                .with_trace(trace),
            &[],
            turns,
        )
    };
    let (plain, traced) = (
        run_with(TraceConfig::default()),
        run_with(TraceConfig::enabled()),
    );
    assert_eq!(plain.results, traced.results);
    assert_eq!(plain.shared_hash, traced.shared_hash);
    let (p, t) = (plain.total(), traced.total());
    for kind in [
        "PageReq",
        "PageReply",
        "LockAcq",
        "LockForward",
        "LockGrant",
        "DiffBatch",
    ] {
        assert!(
            p.msg_kinds.iter().any(|&(k, _)| k == kind),
            "no {kind} sent"
        );
    }
    assert!(p.ft.ckpts_taken > 0 && p.traffic.ft_bytes_sent > 0);
    // Per kind, counts only: a piggyback may ride whichever of two racing
    // messages leaves first (node 1's arrival or its service thread's
    // grant), so its bytes can change kinds, but not their sum.
    assert_eq!(p.msg_kinds, t.msg_kinds);
    assert_eq!(p.traffic.base_bytes_sent, t.traffic.base_bytes_sent);
    assert_eq!(p.traffic.ft_bytes_sent, t.traffic.ft_bytes_sent);
    assert_eq!(p.traffic.trace_bytes_sent, 0);
    assert!(t.traffic.trace_bytes_sent > 0);

    // Every page reply is parented on the request it answers.
    let events = traced.trace.all_events();
    let sends = || {
        events.iter().filter_map(|e| match e.kind {
            EventKind::MsgSend {
                kind, flow, parent, ..
            } => Some((kind, flow, parent)),
            _ => None,
        })
    };
    let requests: BTreeSet<u64> = sends().filter(|s| s.0 == "PageReq").map(|s| s.1).collect();
    let replies: Vec<u64> = sends()
        .filter(|s| s.0 == "PageReply")
        .map(|s| s.2)
        .collect();
    assert!(!replies.is_empty(), "no traced page reply");
    for parent in replies {
        assert!(requests.contains(&parent), "a reply names flow {parent:#x}");
    }
}

/// Service-time coverage: every message kind the cluster *sent* must show
/// up as a service-time bucket, the page fetch and the recovery kinds
/// included. An empty chaos plan puts the link under every message, which
/// must move no kind's count.
#[test]
fn every_sent_message_kind_gets_a_service_time_bucket() {
    let report = run(
        ClusterConfig::fault_tolerant(4)
            .with_page_size(512)
            .with_policy(CkptPolicy::LogOverflow { l: 0.2 })
            .with_seed(SEED)
            .with_chaos(FaultPlan::new(0))
            .with_trace(TraceConfig::enabled()),
        &[FailureSpec { node: 2, at_op: 60 }],
        wide_app,
    );
    assert_eq!(report.nodes[2].ft.recoveries, 1, "crash did not fire");

    let sent: BTreeSet<&str> = report.total_msg_kinds().iter().map(|&(k, _)| k).collect();
    let attributed: BTreeSet<&str> = report
        .total_svc_time_by_kind()
        .iter()
        .map(|&(k, _)| k)
        .collect();
    for kind in &sent {
        assert!(
            attributed.contains(kind),
            "sent kind {kind:?} has no service-time bucket (attributed: {attributed:?})"
        );
    }
    // The run must actually exercise the once-unattributed kinds: diff
    // batches, page fetches, and the recovery protocol.
    for kind in [
        "DiffBatch",
        "PageReq",
        "PageReply",
        "RecLogReq",
        "RecLogReply",
    ] {
        assert!(sent.contains(kind), "workload never sent {kind:?}");
    }
}

/// A clean monitored run: the invariant monitor must have consumed the
/// event stream and found nothing.
#[test]
fn clean_monitored_run_reports_zero_violations() {
    let report = run(
        ClusterConfig::fault_tolerant(3)
            .with_page_size(256)
            .with_seed(SEED)
            .with_monitor(true),
        &[],
        exchange,
    );
    let m = report.monitor.expect("monitor report missing");
    assert!(m.events_seen > 0, "monitor saw no events");
    assert!(
        m.violations.is_empty(),
        "clean run flagged: {:?}",
        m.violations
    );
}

/// The acceptance bar for the monitor: a deliberately injected stale
/// version apply (test-only hook re-emitting an already-applied diff
/// interval) must fail the run, naming the violated invariant and
/// attaching the stitched causal flow.
#[test]
fn injected_stale_apply_is_caught_with_causal_flow() {
    let mut cfg = ClusterConfig::fault_tolerant(3)
        .with_page_size(256)
        .with_seed(SEED)
        .with_monitor(true);
    cfg.inject_stale_apply = true;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        run(cfg, &[], exchange)
    }));
    let err = result.expect_err("monitor must fail the injected run");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload must be a string");
    assert!(
        msg.contains("protocol invariant violated"),
        "unexpected failure message: {msg}"
    );
    assert!(
        msg.contains("version-monotonicity"),
        "wrong invariant named: {msg}"
    );
    assert!(
        msg.contains("FTDSM_SEED="),
        "no reproducing seed in the failure: {msg}"
    );
    assert!(
        msg.contains("causal flow:"),
        "no causal flow attached: {msg}"
    );
}

/// Property: folding per-shard metric time-series in any order yields the
/// identical series, and histogram merge is order-insensitive too.
#[test]
fn metric_and_histogram_merges_are_order_insensitive() {
    let mut s = SEED;
    for case in 0..8u64 {
        // Random snapshots, some with colliding timestamps.
        let parts: Vec<TimeSeries> = (0..6)
            .map(|_| {
                let mut ts = TimeSeries::new();
                for _ in 0..(1 + splitmix(&mut s) % 4) {
                    let mut counters = BTreeMap::new();
                    for c in 0..(splitmix(&mut s) % 3) {
                        counters.insert(format!("c{c}_total"), splitmix(&mut s) % 1000);
                    }
                    ts.push(Snapshot {
                        ts_ns: (splitmix(&mut s) % 5) * 100,
                        counters,
                        gauges: BTreeMap::new(),
                        hists: BTreeMap::new(),
                    });
                }
                ts
            })
            .collect();
        let mut fwd = TimeSeries::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = TimeSeries::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev, "case {case}: time-series merge order mattered");

        // Histograms: same samples distributed into shards, merged both ways.
        let samples: Vec<u64> = (0..64).map(|_| splitmix(&mut s) % (1 << 20)).collect();
        let mut shards = vec![Histogram::new(); 4];
        for (i, &v) in samples.iter().enumerate() {
            shards[i % 4].record(v);
        }
        let mut fwd_h = Histogram::new();
        for h in &shards {
            fwd_h.merge(h);
        }
        let mut rev_h = Histogram::new();
        for h in shards.iter().rev() {
            rev_h.merge(h);
        }
        assert_eq!(fwd_h, rev_h, "case {case}: histogram merge order mattered");
        assert_eq!(fwd_h.count(), samples.len() as u64);
    }
}

/// With tracing off, the emit hook must stay one relaxed atomic load: ten
/// million no-op emits have to finish comfortably inside a generous wall
/// bound even on a loaded debug-mode CI runner, and record nothing.
#[test]
fn disabled_trace_emit_overhead_stays_negligible() {
    let trace = Trace::new(1, &TraceConfig::default());
    let t = trace.tracer(0);
    assert!(!trace.is_enabled());
    let t0 = Instant::now();
    for i in 0..10_000_000u64 {
        t.emit(EventKind::MsgSend {
            kind: "PageReq",
            to: 0,
            bytes: i as u32,
            flow: i,
            parent: 0,
        });
    }
    let dt = t0.elapsed();
    assert!(
        trace.all_events().is_empty(),
        "disabled trace recorded events"
    );
    assert!(
        dt.as_secs_f64() < 5.0,
        "10M disabled emits took {dt:?} — the disabled hook is no longer cheap"
    );
}

/// Every key of a snapshot, whichever of its three maps holds it.
fn keys_of(snap: &Snapshot) -> BTreeSet<String> {
    let (c, g, h) = (snap.counters.keys(), snap.gauges.keys(), snap.hists.keys());
    c.chain(g).chain(h).cloned().collect()
}

/// The closing snapshot of a sampled run is the metric table of every node's
/// report and nothing else: its key set is table × nodes, and its values are
/// the report's own fields (spot-checked under keys written out by hand, so
/// that the table cannot agree with itself about a wrong name).
#[test]
fn the_final_snapshot_is_the_metric_table_of_every_node_report() {
    let sampling = MetricsConfig {
        every: std::time::Duration::from_millis(1),
        out: None,
    };
    let cfg = ClusterConfig::fault_tolerant(2)
        .with_page_size(512)
        .with_policy(CkptPolicy::EverySteps(2))
        .with_seed(SEED)
        .with_metrics(sampling);
    let report = run(cfg, &[], wide_app);
    assert!(report.metrics.snapshots.len() >= 2, "no periodic sample");
    let last = report.metrics.last().unwrap();

    let mut table = BTreeSet::new();
    for (i, node) in report.nodes.iter().enumerate() {
        for (name, _) in node.metrics() {
            assert!(table.insert(labelled(&name, "node", i)), "{name} twice");
        }
    }
    assert_eq!(keys_of(last), table);

    for (i, node) in report.nodes.iter().enumerate() {
        let counter = |name: &str| last.counters[&format!("{name}{{node=\"{i}\"}}")];
        assert_eq!(
            counter("fabric_link_resent_total"),
            node.traffic.link_resent
        );
        assert_eq!(counter("prefetched_total"), node.counts.prefetched);
        assert_eq!(
            counter("prefetched_used_total"),
            node.counts.prefetched_used
        );
        assert_eq!(
            counter("prefetch_skipped_total"),
            node.counts.prefetch_skipped
        );
        let missed = node.counts.skipped_then_missed;
        assert_eq!(counter("skipped_then_missed_total"), missed);
        assert_eq!(counter("ckpts_taken_total"), node.ft.ckpts_taken);
        assert_eq!(counter("fabric_msgs_sent_total"), node.traffic.msgs_sent);
        let fetches = &last.hists[&format!("page_fetch_ns{{node=\"{i}\"}}")];
        assert_eq!(fetches.count, node.hists.page_fetch.count());
        let installs = &last.hists[&format!("fetch_copy_bytes{{node=\"{i}\"}}")];
        assert_eq!(installs.count, node.hists.fetch_copy.count());
        let by_kind = format!("msgs_sent_by_kind_total{{kind=\"PageReq\",node=\"{i}\"}}");
        let sent = node.msg_kinds.iter().find(|(k, _)| *k == "PageReq");
        assert_eq!(last.counters[&by_kind], sent.unwrap().1);
        // A crash-free run resends nothing: every request has one cause.
        let by_cause = |home: &str| -> u64 {
            let key = |c: &str| {
                format!("page_reqs_by_cause_total{{cause=\"{c}\",home=\"{home}\",node=\"{i}\"}}")
            };
            ReqCause::ALL
                .iter()
                .map(|c| last.counters[&key(c.label())])
                .sum()
        };
        assert_eq!(by_cause("0") + by_cause("other"), sent.unwrap().1);
        assert!(node.ft.ckpts_taken > 0 && node.traffic.msgs_sent > 0);
        // Every node installs pages; whether one ever waits for a fetch is
        // timing: a node whose every remote page is zero-filled on its cold
        // miss and prefetched after each barrier may find each in place.
        assert!(node.hists.fetch_copy.count() > 0 && node.counts.prefetched > 0);
    }
}

/// The panic-time dump shows the moment of death whether or not the run was
/// sampled: with `metrics: None`, the flight source the run registered says
/// mid-run what the node that asks has counted so far.
#[test]
fn the_flight_source_reports_mid_run_with_sampling_off() {
    // An op count no other cluster of this test binary stops at.
    const OPS: u64 = 1237;
    let mut cfg = ClusterConfig::base(2).with_page_size(512).with_seed(SEED);
    cfg.metrics = None;
    let report = run(cfg, &[], |p| {
        let cells = p.alloc_vec::<u64>(64, HomeAlloc::Node(1));
        // Written, so that the barrier's notices name the page and node 0's
        // reads fetch it rather than find it cold.
        if p.me() == 1 {
            for i in 0..64 {
                cells.set(p, i, 1);
            }
        }
        p.barrier();
        let mut found = None;
        if p.me() == 0 {
            let mut sum = 0;
            // The allocation and the barrier were operations too.
            for i in 0..OPS - 2 {
                sum += cells.get(p, i as usize % 64);
            }
            // Not inside a DSM operation: this node's lock is free, so its
            // rows are there; the peer's are if it is not handling a message.
            let ours = |s: &Snapshot| s.counters.get("ops_total{node=\"0\"}") == Some(&OPS);
            found = dsm_metrics::flight_snapshots().into_iter().find(ours);
            assert_eq!(sum, OPS - 2);
        }
        p.barrier();
        found
    });
    let snap = report.results[0]
        .as_ref()
        .expect("no flight source saw the run");
    assert!(snap.counters["fabric_msgs_sent_total{node=\"0\"}"] > 0);
    assert!(snap.counters["msgs_sent_by_kind_total{kind=\"PageReq\",node=\"0\"}"] > 0);
    assert!(snap.hists["page_fetch_ns{node=\"0\"}"].count > 0);
    assert!(
        report.metrics.snapshots.is_empty(),
        "the run was not sampled"
    );
}

/// The `total_*` accessors are fields of one merged report, and they still
/// return what summing (or, for high-water marks, maximizing) over the nodes
/// by hand does — on a run with a crash in it.
#[test]
fn cluster_totals_are_the_per_node_sums_on_a_crash_run() {
    let report = run(
        ClusterConfig::fault_tolerant(3)
            .with_page_size(512)
            .with_policy(CkptPolicy::EverySteps(2))
            .with_seed(SEED),
        &[FailureSpec { node: 1, at_op: 60 }],
        wide_app,
    );
    assert_eq!(report.nodes[1].ft.recoveries, 1, "crash did not fire");
    let nodes = &report.nodes;
    let sum = |f: fn(&NodeReport) -> u64| nodes.iter().map(f).sum::<u64>();
    let time = |f: fn(&NodeReport) -> std::time::Duration| nodes.iter().map(f).sum();

    let t = report.total_traffic();
    assert_eq!(t.msgs_sent, sum(|n| n.traffic.msgs_sent));
    assert_eq!(t.base_bytes_sent, sum(|n| n.traffic.base_bytes_sent));
    assert_eq!(t.ft_bytes_sent, sum(|n| n.traffic.ft_bytes_sent));
    assert_eq!(t.trace_bytes_sent, sum(|n| n.traffic.trace_bytes_sent));
    assert_eq!(t.msgs_dropped, sum(|n| n.traffic.msgs_dropped));
    let b = report.total_breakdown();
    assert_eq!(b.total, time(|n| n.breakdown.total));
    assert_eq!(b.page_wait, time(|n| n.breakdown.page_wait));
    assert_eq!(b.protocol, time(|n| n.breakdown.protocol));
    assert_eq!(b.disk_write, time(|n| n.breakdown.disk_write));
    assert_eq!(report.total_ckpts(), sum(|n| n.ft.ckpts_taken));
    let wmax = nodes.iter().map(|n| n.ft.max_ckpt_window).max();
    assert_eq!(Some(report.max_ckpt_window()), wmax);
    let pool = report.total_pool();
    assert_eq!(pool.hits, sum(|n| n.pool.hits));
    assert_eq!(pool.rejected, sum(|n| n.pool.rejected));

    let mut hists = dsm_trace::LatencyHists::default();
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    let mut svc: BTreeMap<&str, std::time::Duration> = BTreeMap::new();
    for n in nodes {
        hists.merge(&n.hists);
        for &(k, c) in &n.msg_kinds {
            *kinds.entry(k).or_default() += c;
        }
        for &(k, d) in &n.svc_time_by_kind {
            *svc.entry(k).or_default() += d;
        }
    }
    for ((name, total), (_, by_hand)) in report.total_hists().named().iter().zip(hists.named()) {
        assert_eq!(*total, by_hand, "{name}");
    }
    assert_eq!(
        report.total_msg_kinds(),
        kinds.into_iter().collect::<Vec<_>>()
    );
    assert_eq!(
        report.total_svc_time_by_kind(),
        svc.into_iter().collect::<Vec<_>>()
    );

    let total = report.total();
    assert_eq!(total.ops, sum(|n| n.ops));
    assert_eq!(total.traffic.link_acks, sum(|n| n.traffic.link_acks));
    assert_eq!(total.counts.restarts_seen, sum(|n| n.counts.restarts_seen));
    assert_eq!(
        total.counts.restarts_seen, 2,
        "each survivor counts the restart once"
    );
    assert_eq!(total.counts.prefetched, sum(|n| n.counts.prefetched));
    assert_eq!(total.ft.recoveries, 1);
    assert_eq!(total.ft.store.writes, sum(|n| n.ft.store.writes));
    let saved = total.ft.log_bytes_saved;
    assert!(saved > 0 && saved <= total.ft.log_counters.created_bytes);
    for n in nodes {
        assert!(n.ft.log_bytes_saved <= n.ft.log_counters.created_bytes);
    }
}

/// docs/OBSERVABILITY.md §2 lists every metric of the table by name, and
/// its catalogue names no other: a name added to `NodeReport::metrics`
/// without a line there fails here, and so does a catalogue row whose
/// metric the code no longer has.
#[test]
fn every_metric_of_the_table_is_in_the_observability_catalogue() {
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let section = doc.split("\n## ").find(|s| s.starts_with("2. Metrics"));
    let section = section.expect("docs/OBSERVABILITY.md has no §2");
    // A default report has every scalar and histogram; give each per-kind
    // list a row so that their names show too.
    let report = NodeReport {
        msg_kinds: vec![("K", 1)],
        msg_kind_bytes: vec![("K", 1)],
        svc_time_by_kind: vec![("K", std::time::Duration::ZERO)],
        pushed_bytes: vec![("K", 1)],
        carried_bytes: vec![("K", 1)],
        ..NodeReport::default()
    };
    let names: BTreeSet<String> = report
        .metrics()
        .iter()
        .map(|(name, _)| name.split('{').next().unwrap().to_string())
        .collect();
    assert!(names.len() >= 66, "the table lost rows: {}", names.len());
    for name in &names {
        assert!(
            section.contains(&format!("`{name}`")),
            "{name} is not in §2"
        );
    }
    // The other way: every backticked name in the catalogue's first column.
    let catalogue = section.split("### Metric catalogue").nth(1);
    let catalogue = catalogue.expect("§2 has no metric catalogue");
    let catalogue = catalogue.split("\n### ").next().unwrap();
    let first_cells = catalogue.lines().filter_map(|l| l.split('|').nth(1));
    let listed: Vec<&str> = first_cells
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .collect();
    assert!(listed.len() >= names.len(), "catalogue rows not found");
    for name in listed {
        assert!(
            names.contains(name),
            "§2's catalogue lists {name}, the table has no such row"
        );
    }
}
