#![warn(missing_docs)]
//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) on the simulated cluster.
//!
//! Scale disclaimer (see DESIGN.md): problem sizes and the disk-time model
//! are scaled so a full run takes seconds; the harness reproduces the
//! *shape* of the results (relative overheads, window bounds, log-size
//! dynamics), not the absolute 1999 numbers.

use std::time::Duration;

use ftdsm::{run, CkptPolicy, ClusterConfig, DiskMode, DiskModel, Process, RunReport};
use splash::{barnes, water_nsq, water_sp, BarnesParams, WaterNsqParams, WaterSpParams};

/// The three applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Barnes-Hut hierarchical N-body.
    Barnes,
    /// O(n²) molecular dynamics.
    WaterNsq,
    /// Spatial cell-decomposition molecular dynamics.
    WaterSp,
}

impl App {
    /// All three, in the paper's table order.
    pub const ALL: [App; 3] = [App::Barnes, App::WaterNsq, App::WaterSp];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            App::Barnes => "Barnes",
            App::WaterNsq => "Water-Nsq.",
            App::WaterSp => "Water-Sp.",
        }
    }

    /// Problem-size label.
    pub fn problem(self) -> String {
        match self {
            App::Barnes => format!("{} bodies", BarnesParams::paper_scaled().bodies),
            App::WaterNsq => format!("{} mols", WaterNsqParams::paper_scaled().molecules),
            App::WaterSp => {
                let p = WaterSpParams::paper_scaled();
                format!("{} mols", p.side.pow(3) * p.per_cell)
            }
        }
    }

    /// The `OF(L)` limit the paper used per application (Table 3: Barnes
    /// runs with L = 1.0 because of its large log volume per byte of shared
    /// memory; the waters with L = 0.1).
    pub fn policy_l(self) -> f64 {
        match self {
            App::Barnes => 1.0,
            App::WaterNsq => 0.1,
            App::WaterSp => 0.1,
        }
    }

    /// Run the application at benchmark scale.
    pub fn run_scaled(self, p: &mut Process) -> u64 {
        match self {
            App::Barnes => barnes(p, &BarnesParams::paper_scaled()),
            App::WaterNsq => water_nsq(p, &WaterNsqParams::paper_scaled()),
            App::WaterSp => water_sp(p, &WaterSpParams::paper_scaled()),
        }
    }
}

/// Harness-wide scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Cluster size (the paper used 8 PCs).
    pub nodes: usize,
    /// Page size (the paper used the 4 KB hardware page).
    pub page_size: usize,
    /// Disk-model time multiplier: >1 models a slower disk relative to the
    /// (scaled-down) computation, which is what surfaces the paper's
    /// checkpoint/barrier interference on Barnes.
    pub disk_time_scale: f64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            nodes: 8,
            page_size: 4096,
            disk_time_scale: 0.2,
        }
    }
}

impl Scale {
    /// Base-protocol configuration.
    pub fn base_config(&self) -> ClusterConfig {
        ClusterConfig::base(self.nodes).with_page_size(self.page_size)
    }

    /// Fault-tolerant configuration for one application.
    pub fn ft_config(&self, app: App) -> ClusterConfig {
        ClusterConfig::fault_tolerant(self.nodes)
            .with_page_size(self.page_size)
            .with_policy(CkptPolicy::LogOverflow { l: app.policy_l() })
            .with_disk(DiskModel::scsi_1999(self.disk_time_scale, DiskMode::Stall))
    }
}

/// Run one app under a config.
pub fn run_app(app: App, cfg: ClusterConfig) -> RunReport<u64> {
    run(cfg, &[], move |p| app.run_scaled(p))
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One row of Table 1.
#[derive(Debug)]
pub struct Table1Row {
    /// Application name.
    pub app: &'static str,
    /// Problem-size label.
    pub problem: String,
    /// Shared-memory footprint in MB.
    pub shared_mb: f64,
    /// Base-protocol execution time in seconds.
    pub base_time_s: f64,
}

/// Table 1: application characteristics.
pub fn table1(scale: &Scale) -> Vec<Table1Row> {
    App::ALL
        .iter()
        .map(|&app| {
            let r = run_app(app, scale.base_config());
            Table1Row {
                app: app.name(),
                problem: app.problem(),
                shared_mb: mb(r.shared_bytes),
                base_time_s: secs(r.wall),
            }
        })
        .collect()
}

/// One row of Table 2.
#[derive(Debug)]
pub struct Table2Row {
    /// Application name.
    pub app: &'static str,
    /// Base HLRC protocol traffic in MB.
    pub hlrc_traffic_mb: f64,
    /// Piggybacked LLT/CGC control traffic in MB.
    pub cgc_traffic_mb: f64,
    /// Control traffic as a percentage of base traffic.
    pub overhead_pct: f64,
    /// Prefetched pages whose copy was read or written, as a percentage of
    /// the pages prefetched (not the paper's: what the base traffic bought).
    pub prefetch_used_pct: f64,
}

/// Table 2: message-traffic overhead of the CGC/LLT piggyback.
pub fn table2(scale: &Scale) -> Vec<Table2Row> {
    App::ALL
        .iter()
        .map(|&app| {
            let r = run_app(app, scale.ft_config(app));
            let t = r.total_traffic();
            let pf = r.total().counts;
            Table2Row {
                app: app.name(),
                hlrc_traffic_mb: mb(t.base_bytes_sent),
                cgc_traffic_mb: mb(t.ft_bytes_sent),
                overhead_pct: 100.0 * t.ft_overhead_fraction(),
                prefetch_used_pct: 100.0 * pf.prefetched_used as f64 / pf.prefetched.max(1) as f64,
            }
        })
        .collect()
}

/// One row of Table 3.
#[derive(Debug)]
pub struct Table3Row {
    /// Application name.
    pub app: &'static str,
    /// The OF(L) limit used.
    pub policy_l: f64,
    /// Checkpoints taken across the cluster.
    pub ckpts: u64,
    /// Base-protocol execution time in seconds.
    pub base_time_s: f64,
    /// Fault-tolerant execution time in seconds.
    pub ft_time_s: f64,
    /// Execution-time increase over base, percent.
    pub increase_pct: f64,
    /// Per-node average logging/trimming time in seconds.
    pub logging_s: f64,
    /// Per-node average time the application waited for its disk, in
    /// seconds: a barrier, a checkpoint that fell due or the end of the run
    /// found the last checkpoint still being written.
    pub disk_s: f64,
    /// Per-node average modeled time the disk was busy writing, in seconds.
    pub disk_busy_s: f64,
    /// Control traffic as a percentage of base traffic.
    pub overhead_pct: f64,
}

/// Table 3: performance of independent checkpointing with CGC and LLT.
pub fn table3(scale: &Scale) -> Vec<Table3Row> {
    App::ALL
        .iter()
        .map(|&app| {
            let base = run_app(app, scale.base_config());
            let ft = run_app(app, scale.ft_config(app));
            let base_s = secs(base.wall);
            let ft_s = secs(ft.wall);
            // Per-node averages, as in the paper.
            let n = ft.nodes.len() as f64;
            let logging: f64 = ft
                .nodes
                .iter()
                .map(|x| secs(x.breakdown.logging))
                .sum::<f64>()
                / n;
            let disk: f64 = ft
                .nodes
                .iter()
                .map(|x| secs(x.breakdown.disk_write))
                .sum::<f64>()
                / n;
            let disk_busy: f64 = ft
                .nodes
                .iter()
                .map(|x| secs(x.ft.store.write_time))
                .sum::<f64>()
                / n;
            Table3Row {
                app: app.name(),
                policy_l: app.policy_l(),
                ckpts: ft.total_ckpts(),
                base_time_s: base_s,
                ft_time_s: ft_s,
                increase_pct: 100.0 * (ft_s - base_s) / base_s,
                logging_s: logging,
                disk_s: disk,
                disk_busy_s: disk_busy,
                overhead_pct: 100.0 * (logging + disk) / base_s,
            }
        })
        .collect()
}

/// One row of Table 4.
#[derive(Debug)]
pub struct Table4Row {
    /// Application name.
    pub app: &'static str,
    /// Largest checkpoint window observed on any node.
    pub wmax: usize,
    /// Largest stable-log residency on any node, MB.
    pub max_log_disk_mb: f64,
    /// Total bytes written to stable storage, MB.
    pub total_disk_traffic_mb: f64,
    /// Volatile log bytes created, MB.
    pub logs_created_mb: f64,
    /// Log bytes first-saved to stable storage, MB.
    pub logs_saved_mb: f64,
    /// Saved as a percentage of created.
    pub saved_pct: f64,
    /// Log bytes discarded by trimming, MB.
    pub logs_discarded_mb: f64,
    /// Discarded as a percentage of created.
    pub discarded_pct: f64,
    /// Largest log residency in memory on any node, MB: the entries no
    /// published checkpoint has saved.
    pub max_resident_log_mb: f64,
}

/// Table 4: overall efficiency of CGC and LLT.
pub fn table4(scale: &Scale) -> Vec<Table4Row> {
    App::ALL
        .iter()
        .map(|&app| {
            let r = run_app(app, scale.ft_config(app));
            let created: u64 = r
                .nodes
                .iter()
                .map(|x| x.ft.log_counters.created_bytes)
                .sum();
            let discarded: u64 = r
                .nodes
                .iter()
                .map(|x| x.ft.log_counters.discarded_bytes)
                .sum();
            let saved: u64 = r.nodes.iter().map(|x| x.ft.log_bytes_saved).sum();
            let disk: u64 = r.nodes.iter().map(|x| x.ft.store.bytes_written).sum();
            let max_log: u64 = r
                .nodes
                .iter()
                .map(|x| x.ft.max_stable_log_bytes)
                .max()
                .unwrap_or(0);
            let max_resident = (r.nodes.iter())
                .map(|x| x.ft.max_resident_log_bytes)
                .max()
                .unwrap_or(0);
            Table4Row {
                app: app.name(),
                wmax: r.max_ckpt_window(),
                max_log_disk_mb: mb(max_log),
                total_disk_traffic_mb: mb(disk),
                logs_created_mb: mb(created),
                logs_saved_mb: mb(saved),
                saved_pct: if created > 0 {
                    100.0 * saved as f64 / created as f64
                } else {
                    0.0
                },
                logs_discarded_mb: mb(discarded),
                discarded_pct: if created > 0 {
                    100.0 * discarded as f64 / created as f64
                } else {
                    0.0
                },
                max_resident_log_mb: mb(max_resident),
            }
        })
        .collect()
}

/// One bar pair of Figure 3: the normalized execution-time breakdown.
#[derive(Debug)]
pub struct Fig3Row {
    /// Application name.
    pub app: &'static str,
    /// (category, base %, FT %) — percentages of the *base* execution time,
    /// so the FT bar can exceed 100 like in the paper.
    pub categories: Vec<(&'static str, f64, f64)>,
}

/// Figure 3: normalized execution-time breakdown, base vs fault-tolerant.
pub fn fig3(scale: &Scale) -> Vec<Fig3Row> {
    App::ALL
        .iter()
        .map(|&app| {
            let base = run_app(app, scale.base_config());
            let ft = run_app(app, scale.ft_config(app));
            let bb = base.total_breakdown();
            let fb = ft.total_breakdown();
            let denom = secs(bb.total).max(1e-9);
            let pct = |d: Duration| 100.0 * secs(d) / denom;
            Fig3Row {
                app: app.name(),
                categories: vec![
                    ("Computation", pct(bb.compute()), pct(fb.compute())),
                    ("Page wait", pct(bb.page_wait), pct(fb.page_wait)),
                    ("Lock wait", pct(bb.lock_wait), pct(fb.lock_wait)),
                    ("Barrier wait", pct(bb.barrier_wait), pct(fb.barrier_wait)),
                    ("Protocol", pct(bb.protocol), pct(fb.protocol)),
                    ("Log & Ckp", 0.0, pct(fb.logging) + pct(fb.disk_write)),
                ],
            }
        })
        .collect()
}

/// One application's Figure 4 series.
#[derive(Debug)]
pub struct Fig4Series {
    /// Application name.
    pub app: &'static str,
    /// The OF(L) limit used.
    pub policy_l: f64,
    /// Shared footprint in MB (the unbounded-growth line has slope
    /// `L * footprint` per checkpoint).
    pub footprint_mb: f64,
    /// Max-over-nodes stable-log MB at each checkpoint number.
    pub points: Vec<(u64, f64)>,
}

/// Figure 4: stable-log size dynamics under LLT.
pub fn fig4(scale: &Scale) -> Vec<Fig4Series> {
    App::ALL
        .iter()
        .map(|&app| {
            let r = run_app(app, scale.ft_config(app));
            // Merge per-node curves: for each checkpoint number take the max
            // across nodes (the paper plots per-node curves; max is the
            // envelope).
            let mut by_ckpt: std::collections::BTreeMap<u64, u64> = Default::default();
            for node in &r.nodes {
                for &(seq, bytes) in &node.ft.stable_log_curve {
                    let e = by_ckpt.entry(seq).or_insert(0);
                    *e = (*e).max(bytes);
                }
            }
            Fig4Series {
                app: app.name(),
                policy_l: app.policy_l(),
                footprint_mb: mb(r.shared_bytes),
                points: by_ckpt.into_iter().map(|(s, b)| (s, mb(b))).collect(),
            }
        })
        .collect()
}

/// Simple fixed-width ASCII table printing.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}
