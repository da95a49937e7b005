//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p dsm-bench --release --bin paper -- all
//! cargo run -p dsm-bench --release --bin paper -- table3
//! cargo run -p dsm-bench --release --bin paper -- fig4 --nodes 8 --disk-scale 8
//! cargo run -p dsm-bench --release --bin paper -- ablate
//! cargo run -p dsm-bench --release --bin paper -- hist
//! ```

use dsm_bench::{fig3, fig4, print_table, run_app, table1, table2, table3, table4, App, Scale};
use ftdsm::{run, CkptPolicy, ClusterConfig, DiskMode, DiskModel, FailureSpec, ReqCause};

fn parse_args() -> (Vec<String>, Scale) {
    let mut scale = Scale::default();
    let mut cmds = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--nodes" => scale.nodes = args.next().expect("--nodes N").parse().expect("node count"),
            "--disk-scale" => {
                scale.disk_time_scale = args.next().expect("--disk-scale X").parse().expect("scale")
            }
            "--page" => {
                scale.page_size = args
                    .next()
                    .expect("--page BYTES")
                    .parse()
                    .expect("page size")
            }
            other => cmds.push(other.to_string()),
        }
    }
    if cmds.is_empty() {
        cmds.push("all".to_string());
    }
    (cmds, scale)
}

fn main() {
    let (cmds, scale) = parse_args();
    println!(
        "# ftdsm paper harness: {} nodes, {} B pages, disk time scale {}",
        scale.nodes, scale.page_size, scale.disk_time_scale
    );
    for cmd in &cmds {
        match cmd.as_str() {
            "table1" => do_table1(&scale),
            "table2" => do_table2(&scale),
            "table3" => do_table3(&scale),
            "table4" => do_table4(&scale),
            "fig3" => do_fig3(&scale),
            "fig4" => do_fig4(&scale),
            "ablate" => do_ablate(&scale),
            "sweep" => do_sweep(&scale),
            "recover" => do_recover(&scale),
            "hist" => do_hist(&scale),
            "protocol" => do_protocol(&scale),
            "all" => {
                do_table1(&scale);
                do_table2(&scale);
                do_table3(&scale);
                do_table4(&scale);
                do_fig3(&scale);
                do_fig4(&scale);
            }
            other => eprintln!("unknown command: {other}"),
        }
    }
}

fn do_table1(scale: &Scale) {
    let rows = table1(scale);
    print_table(
        "Table 1: applications and characteristics",
        &["Application", "Problem", "Shared (MB)", "Base time (s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.app.to_string(),
                    r.problem.clone(),
                    format!("{:.2}", r.shared_mb),
                    format!("{:.2}", r.base_time_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn do_table2(scale: &Scale) {
    let rows = table2(scale);
    print_table(
        "Table 2: message traffic overhead of CGC and LLT",
        &[
            "Application",
            "HLRC traffic (MB)",
            "CGC traffic (MB)",
            "% overhead",
            "prefetch used %",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.app.to_string(),
                    format!("{:.2}", r.hlrc_traffic_mb),
                    format!("{:.3}", r.cgc_traffic_mb),
                    format!("{:.2}", r.overhead_pct),
                    format!("{:.1}", r.prefetch_used_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn do_table3(scale: &Scale) {
    let rows = table3(scale);
    print_table(
        "Table 3: performance of independent checkpointing with CGC and LLT",
        &[
            "Application",
            "Policy",
            "Ckpts",
            "Base (s)",
            "FT (s)",
            "% incr",
            "Log (s)",
            "Disk (s)",
            "Disk busy (s)",
            "% overh",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.app.to_string(),
                    format!("OF L={}", r.policy_l),
                    r.ckpts.to_string(),
                    format!("{:.2}", r.base_time_s),
                    format!("{:.2}", r.ft_time_s),
                    format!("{:.1}", r.increase_pct),
                    format!("{:.3}", r.logging_s),
                    format!("{:.3}", r.disk_s),
                    format!("{:.3}", r.disk_busy_s),
                    format!("{:.2}", r.overhead_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn do_table4(scale: &Scale) {
    let rows = table4(scale);
    print_table(
        "Table 4: overall efficiency of CGC and LLT",
        &[
            "Application",
            "Wmax",
            "Max log disk (MB)",
            "Disk traffic (MB)",
            "Created (MB)",
            "Saved (MB)",
            "% saved",
            "Discarded (MB)",
            "% disc",
            "Resident log (MB)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.app.to_string(),
                    r.wmax.to_string(),
                    format!("{:.3}", r.max_log_disk_mb),
                    format!("{:.3}", r.total_disk_traffic_mb),
                    format!("{:.3}", r.logs_created_mb),
                    format!("{:.3}", r.logs_saved_mb),
                    format!("{:.0}", r.saved_pct),
                    format!("{:.3}", r.logs_discarded_mb),
                    format!("{:.0}", r.discarded_pct),
                    format!("{:.3}", r.max_resident_log_mb),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn do_fig3(scale: &Scale) {
    println!("\n=== Figure 3: normalized execution time breakdown (base | FT, % of base) ===");
    for row in fig3(scale) {
        println!("\n{}:", row.app);
        for (cat, b, f) in &row.categories {
            let bar = |v: f64| "#".repeat((v / 2.0).round() as usize);
            println!("  {cat:<14} base {b:6.1}% {}", bar(*b));
            println!("  {:<14} FT   {f:6.1}% {}", "", bar(*f));
        }
    }
}

fn do_fig4(scale: &Scale) {
    println!("\n=== Figure 4: stable-log size vs checkpoint number ===");
    for s in fig4(scale) {
        let slope = s.policy_l * s.footprint_mb;
        println!(
            "\n{} (OF L={}, footprint {:.2} MB; unbounded growth would be {:.2} MB/ckpt):",
            s.app, s.policy_l, s.footprint_mb, slope
        );
        for (ckpt, mb) in &s.points {
            let unbounded = slope * *ckpt as f64;
            println!(
                "  ckpt {ckpt:>3}: {mb:8.3} MB  (no-LLT line: {unbounded:8.3} MB)  {}",
                "*".repeat(
                    (mb * 40.0 / (slope * s.points.len() as f64).max(0.001)).min(60.0) as usize
                )
            );
        }
    }
}

/// Ablation: checkpoint-policy comparison on Water-Spatial (the paper's
/// §5.4 discussion of policy choice), plus an L-sensitivity sweep.
/// Cluster-size scaling sweep (the paper's scalability motivation: HLRC
/// was chosen because it scales with cluster size).
fn do_sweep(scale: &Scale) {
    println!("\n=== Scaling sweep: Water-Spatial, base protocol ===");
    let mut rows = Vec::new();
    for n in [2usize, 4, 8] {
        let cfg = ClusterConfig::base(n).with_page_size(scale.page_size);
        let r = run_app(App::WaterSp, cfg);
        let t = r.total_traffic();
        rows.push(vec![
            n.to_string(),
            format!("{:.2}", r.wall.as_secs_f64()),
            t.msgs_sent.to_string(),
            format!("{:.2}", t.base_bytes_sent as f64 / 1048576.0),
        ]);
    }
    print_table(
        "node-count scaling",
        &["Nodes", "Time (s)", "Messages", "Traffic (MB)"],
        &rows,
    );
}

/// Recovery-cost experiment (§4.3: replay is local and expected to be
/// faster than the lost execution segment). Its traffic is split the way
/// arXiv:2010.09025 splits a log fetch: "Rec msgs" is the per-message cost —
/// 2 (n − 1) for the handshake and as many again per round of home
/// emulation ("Rec rounds": one for the pages the handshake named, one per
/// replayed miss on any other page), which CI holds it to — and "Rec MB"
/// the volume, both over every message kind starting `Rec`. "Batched
/// unused" are the pages the first round built that the replay never read.
fn do_recover(scale: &Scale) {
    println!("\n=== Recovery cost (crash one node mid-run) ===");
    let mut rows = Vec::new();
    for app in App::ALL {
        let clean = run_app(app, scale.ft_config(app));
        // Crash the victim roughly two thirds through its op count.
        let victim = 2usize.min(scale.nodes - 1);
        let at_op = (clean.nodes[victim].ops * 2) / 3;
        let crashed = run(
            scale.ft_config(app),
            &[FailureSpec {
                node: victim,
                at_op,
            }],
            move |p| app.run_scaled(p),
        );
        assert_eq!(
            clean.shared_hash,
            crashed.shared_hash,
            "{}: recovery diverged",
            app.name()
        );
        let rec = |per_kind: fn(&ftdsm::NodeReport) -> &Vec<(&'static str, u64)>| -> u64 {
            let kinds = crashed.nodes.iter().flat_map(per_kind);
            kinds
                .filter(|(k, _)| k.starts_with("Rec"))
                .map(|&(_, v)| v)
                .sum()
        };
        rows.push(vec![
            app.name().to_string(),
            at_op.to_string(),
            format!("{}", crashed.nodes[victim].ft.recoveries),
            format!("{}", crashed.nodes[victim].ft.replayed_pages),
            format!("{}", rec(|n| &n.msg_kinds)),
            format!("{:.3}", rec(|n| &n.msg_kind_bytes) as f64 / 1e6),
            format!(
                "{:.3}",
                crashed.nodes[victim].ft.recovery_time.as_secs_f64()
            ),
            format!("{:.3}", clean.wall.as_secs_f64()),
            format!("{:.3}", crashed.wall.as_secs_f64()),
            format!("{}", crashed.nodes[victim].ft.rec_rounds),
            format!("{}", crashed.nodes[victim].ft.batched_unused),
        ]);
    }
    print_table(
        "recovery cost (results verified bit-identical)",
        &[
            "Application",
            "Crash op",
            "Recoveries",
            "Replayed pages",
            "Rec msgs",
            "Rec MB",
            "Recovery (s)",
            "Clean wall (s)",
            "Crashed wall (s)",
            "Rec rounds",
            "Batched unused",
        ],
        &rows,
    );
}

/// Render a nanosecond figure with a readable unit.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

fn print_hists(title: &str, hists: &dsm_trace::LatencyHists) {
    println!("\n{title}:");
    println!(
        "  {:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "metric", "count", "mean", "p50", "p95", "max"
    );
    for (name, h) in hists.named() {
        if h.count() == 0 {
            continue;
        }
        // Histograms of bytes or pages are counts, not durations.
        let count = name.ends_with("_bytes") || name.ends_with("_pages");
        let fmt = if count {
            |v: u64| v.to_string()
        } else {
            fmt_ns
        };
        println!(
            "  {:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
            name,
            h.count(),
            fmt(h.mean()),
            fmt(h.quantile(0.5)),
            fmt(h.quantile(0.95)),
            fmt(h.max()),
        );
    }
}

/// Protocol latency histograms (page fetch, lock wait, barrier wait, diff
/// apply, checkpoint write, recovery phases), clean and crashed runs.
fn do_hist(scale: &Scale) {
    println!("\n=== Protocol latency histograms (log2-bucketed, ns) ===");
    let clean = run_app(App::WaterSp, scale.ft_config(App::WaterSp));
    print_hists(
        "Water-Spatial, FT, clean run (all nodes merged)",
        &clean.total_hists(),
    );
    let pool = clean.total_pool();
    println!(
        "  page pool: {} hits, {} misses, {} recycled, {} rejected",
        pool.hits, pool.misses, pool.recycled, pool.rejected
    );
    let victim = 2usize.min(scale.nodes - 1);
    let at_op = (clean.nodes[victim].ops * 2) / 3;
    let crashed = run(
        scale.ft_config(App::WaterSp),
        &[FailureSpec {
            node: victim,
            at_op,
        }],
        move |p| App::WaterSp.run_scaled(p),
    );
    print_hists(
        &format!("Water-Spatial, FT, node {victim} crashed at op {at_op}"),
        &crashed.total_hists(),
    );
    print_hists(
        &format!("  recovery detail, victim node {victim} only"),
        &crashed.nodes[victim].hists,
    );
}

/// Latencies, service time, and message counts and bytes per kind on a
/// barrier-heavy kernel (Water-Spatial, FT).
fn do_protocol(scale: &Scale) {
    println!(
        "\n=== Protocol latencies and message counts (Water-Spatial, FT, n={}) ===",
        scale.nodes
    );
    let r = run_app(App::WaterSp, scale.ft_config(App::WaterSp));
    print_hists("latency (all nodes merged)", &r.total_hists());
    let total = r.total();
    println!("\nfetches installed as deltas (diffs onto the kept copy, not the page):");
    println!("  fetch_delta_pages {:>8}", total.counts.fetch_delta_pages);
    println!("  fetch_delta_bytes {:>8}", total.counts.fetch_delta_bytes);
    println!(
        "  of installs       {:>8}",
        r.total_hists().fetch_copy.count()
    );
    println!("\ncold misses answered with the zero page (no message):");
    println!("  zero_fills        {:>8}", total.counts.zero_fills);
    // Over the three applications (Table 2 has the ratio per app, and CI
    // gates each one).
    let mut pf = total.counts;
    let mut causes = vec![(App::WaterSp, total.req_causes)];
    for app in [App::Barnes, App::WaterNsq] {
        let t = run_app(app, scale.ft_config(app)).total();
        pf.merge(&t.counts);
        causes.push((app, t.req_causes));
    }
    println!(
        "\npages asked for ahead of their first access, and what came of it (all three apps):"
    );
    println!("  prefetched          {:>8}", pf.prefetched);
    println!("  prefetched_used     {:>8}", pf.prefetched_used);
    println!("  prefetch_skipped    {:>8}", pf.prefetch_skipped);
    println!("  skipped_then_missed {:>8}", pf.skipped_then_missed);
    // `req_cause <app> <cause> <to node 0> <to the other homes>`.
    println!(
        "\nPageReqs by why they were sent, to node 0 and to the other homes (a miss on a page \
         the prefetch left out is split by what was held of it last):"
    );
    for (app, c) in &causes {
        for cause in ReqCause::ALL {
            let (node0, others) = c.get(cause);
            let (app, cause) = (app.name(), cause.label());
            println!("  req_cause {app:<10} {cause:<18} {node0:>6} {others:>6}");
        }
    }
    println!(
        "\ndiff batches that rode a barrier arrival or release instead of going alone, and \
         their bytes by the kind that carried them (inside that kind's `msg_count` bytes below):"
    );
    println!(
        "  diff_batches_carried {:>8}",
        total.counts.diff_batches_carried
    );
    for (k, b) in &total.carried_bytes {
        println!("  carried_bytes {k:<16} {b:>10}");
    }
    println!(
        "\npages a home carried with the notices that invalidate them, because the receiver \
         reported using its copy — node 0's grants and releases to the peers, the other homes' \
         grants and barrier arrivals to node 0 (a refused one is fetched; a stale one missed \
         another writer's notice):"
    );
    println!("  pages_pushed   {:>8}", total.counts.pages_pushed);
    println!("  pushed_used    {:>8}", total.counts.pushed_used);
    println!("  pushes_refused {:>8}", total.counts.pushes_refused);
    println!("  pushes_stale   {:>8}", total.counts.pushes_stale);
    // `$3` is the bytes of the pushed pages a kind carried, inside that
    // kind's `msg_count` bytes below.
    println!("\npushed page bytes by the kind that carried them:");
    for (k, b) in &total.pushed_bytes {
        println!("  pushed_bytes {k:<16} {b:>10}");
    }
    println!(
        "\nbarrier arrivals a service thread handled (the manager's application thread takes \
         every one inside its waits), and requests application threads served inside theirs:"
    );
    println!("  svc_arrivals {:>8}", total.counts.svc_arrivals);
    println!("  app_served   {:>8}", total.counts.app_served);
    println!("\nservice time by message kind (all nodes summed):");
    for (k, d) in r.total_svc_time_by_kind() {
        println!("  svc_time {k:<16} {:>10.3}ms", d.as_secs_f64() * 1e3);
    }
    // Count then bytes (piggyback included): `$3` is the count, `$4` the
    // bytes, so a gate can read either.
    println!("\nmessages and bytes sent by kind (all nodes summed):");
    for ((k, c), (_, b)) in total.msg_kinds.iter().zip(&total.msg_kind_bytes) {
        println!("  msg_count {k:<16} {c:>8} {b:>10}");
    }
    println!("\ntrace-context bytes (only a traced message has a context; in no count above):");
    println!("  trace_bytes {:>8}", total.traffic.trace_bytes_sent);
}

fn do_ablate(scale: &Scale) {
    println!("\n=== Ablation: checkpoint policy (Water-Spatial) ===");
    let mk = |policy: CkptPolicy| -> ClusterConfig {
        ClusterConfig::fault_tolerant(scale.nodes)
            .with_page_size(scale.page_size)
            .with_policy(policy)
            .with_disk(DiskModel::scsi_1999(scale.disk_time_scale, DiskMode::Stall))
    };
    // Wall times at this scale are noisy; take the best of three base runs
    // as the reference.
    let base_s = (0..3)
        .map(|_| {
            run_app(App::WaterSp, scale.base_config())
                .wall
                .as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let mut rows = Vec::new();
    let policies: Vec<(String, CkptPolicy)> = vec![
        ("OF L=0.05".into(), CkptPolicy::LogOverflow { l: 0.05 }),
        ("OF L=0.1".into(), CkptPolicy::LogOverflow { l: 0.1 }),
        ("OF L=0.5".into(), CkptPolicy::LogOverflow { l: 0.5 }),
        ("OF L=1.0".into(), CkptPolicy::LogOverflow { l: 1.0 }),
        ("every 2 steps".into(), CkptPolicy::EverySteps(2)),
        ("every 4 steps".into(), CkptPolicy::EverySteps(4)),
        ("never".into(), CkptPolicy::Never),
    ];
    for (name, policy) in policies {
        let r = run_app(App::WaterSp, mk(policy));
        let max_log: u64 = r
            .nodes
            .iter()
            .map(|x| x.ft.max_stable_log_bytes)
            .max()
            .unwrap_or(0);
        let volatile: u64 = r
            .nodes
            .iter()
            .map(|x| x.ft.log_counters.created_bytes)
            .sum();
        rows.push(vec![
            name,
            r.total_ckpts().to_string(),
            format!("{:.1}", 100.0 * (r.wall.as_secs_f64() - base_s) / base_s),
            format!("{:.3}", max_log as f64 / 1048576.0),
            format!("{:.3}", volatile as f64 / 1048576.0),
            r.max_ckpt_window().to_string(),
        ]);
    }
    print_table(
        "policy ablation (Water-Spatial)",
        &[
            "Policy",
            "Ckpts",
            "% time incr",
            "Max stable log (MB)",
            "Logs created (MB)",
            "Wmax",
        ],
        &rows,
    );

    // Barrier-aligned checkpointing (§5.4): for a barrier-heavy application
    // the paper suggests taking checkpoints at barriers so the stall is
    // amortized inside the barrier wait instead of landing randomly between
    // barriers. Compare against OF(1.0) on Barnes at matched checkpoint
    // counts.
    println!();
    let base_b = (0..3)
        .map(|_| run_app(App::Barnes, scale.base_config()).wall.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let mut rows = Vec::new();
    for (name, policy) in [
        (
            "OF L=1.0 (paper)".to_string(),
            CkptPolicy::LogOverflow { l: 1.0 },
        ),
        (
            "at every 20th barrier".to_string(),
            CkptPolicy::AtBarrier(20),
        ),
        (
            "at every 40th barrier".to_string(),
            CkptPolicy::AtBarrier(40),
        ),
    ] {
        let r = run_app(App::Barnes, mk(policy));
        rows.push(vec![
            name,
            r.total_ckpts().to_string(),
            format!("{:.1}", 100.0 * (r.wall.as_secs_f64() - base_b) / base_b),
            r.max_ckpt_window().to_string(),
        ]);
    }
    print_table(
        "checkpoint placement ablation (Barnes)",
        &["Policy", "Ckpts", "% time incr", "Wmax"],
        &rows,
    );

    // Page-size ablation: the coherence-unit trade-off (bigger pages mean
    // fewer fetches but more false sharing and larger diff/log volume).
    println!();
    let mut rows = Vec::new();
    for page in [1024usize, 2048, 4096, 8192] {
        let cfg = ClusterConfig::fault_tolerant(scale.nodes)
            .with_page_size(page)
            .with_policy(CkptPolicy::LogOverflow { l: 0.1 })
            .with_disk(DiskModel::scsi_1999(scale.disk_time_scale, DiskMode::Stall));
        let r = run_app(App::WaterSp, cfg);
        let t = r.total_traffic();
        let created: u64 = r
            .nodes
            .iter()
            .map(|x| x.ft.log_counters.created_bytes)
            .sum();
        rows.push(vec![
            page.to_string(),
            format!("{:.2}", r.wall.as_secs_f64()),
            t.msgs_sent.to_string(),
            format!("{:.2}", t.base_bytes_sent as f64 / 1048576.0),
            format!("{:.2}", created as f64 / 1048576.0),
            r.total_ckpts().to_string(),
        ]);
    }
    print_table(
        "page-size ablation (Water-Spatial, OF L=0.1)",
        &[
            "Page (B)",
            "Time (s)",
            "Messages",
            "Traffic (MB)",
            "Logs created (MB)",
            "Ckpts",
        ],
        &rows,
    );
}
