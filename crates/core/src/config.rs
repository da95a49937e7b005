//! Cluster and fault-tolerance configuration.

use std::path::PathBuf;
use std::time::Duration;

use dsm_member::MemberConfig;
use dsm_net::FaultPlan;
use dsm_storage::DiskModel;
use dsm_trace::TraceConfig;

/// The cluster seed when `FTDSM_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0xF7D5;

/// Read the cluster seed from the `FTDSM_SEED` environment variable
/// (decimal, or hex with an `0x` prefix); falls back to [`DEFAULT_SEED`].
/// Every chaos/membership test failure echoes the seed it ran with, so any
/// failure reproduces with `FTDSM_SEED=<seed> cargo test …`.
pub fn seed_from_env() -> u64 {
    match std::env::var("FTDSM_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("FTDSM_SEED not a u64: {s:?}"))
        }
        Err(_) => DEFAULT_SEED,
    }
}

/// When a node decides to take an independent checkpoint.
///
/// Decisions are evaluated at synchronization points (the paper samples the
/// volatile log size only there) and latch a "checkpoint due" flag; the
/// checkpoint itself is taken at the application's next safe point (a step
/// boundary of [`crate::Process::run_steps`]), where private state can be
/// captured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CkptPolicy {
    /// The paper's log-overflow policy `OF(L)`: checkpoint when the volatile
    /// log exceeds `l` times the shared-memory footprint.
    LogOverflow {
        /// Limit as a fraction of the shared footprint (e.g. 0.1).
        l: f64,
    },
    /// Checkpoint every `steps` application safe points.
    EverySteps(u64),
    /// Checkpoint after every `k`-th barrier episode. Because all nodes
    /// cross the same episodes, their checkpoints align without any extra
    /// coordination messages — the "checkpoints taken by all processes at a
    /// barrier" scheme the paper suggests for barrier-heavy applications
    /// (§5.4), which amortizes the stall inside the barrier wait instead of
    /// spreading stalls randomly between barriers.
    AtBarrier(u64),
    /// Checkpoint only when the application calls
    /// [`crate::Process::request_checkpoint`].
    Manual,
    /// Never checkpoint (logging still runs; useful for overhead isolation).
    Never,
}

/// Fault-tolerance configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FtConfig {
    /// Checkpoint policy.
    pub policy: CkptPolicy,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            policy: CkptPolicy::LogOverflow { l: 0.1 },
        }
    }
}

/// How shared allocations choose page homes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeAlloc {
    /// Pages round-robin across nodes (page i of the allocation homed at
    /// `(first_page + i) % n`).
    Interleaved,
    /// The allocation's pages are split into `n` contiguous blocks, block
    /// `k` homed at node `k` — the distribution SPLASH-style apps get from
    /// first-touch.
    Blocked,
    /// All pages homed at one node.
    Node(usize),
}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (the paper uses 8).
    pub nodes: usize,
    /// Page size in bytes (power of two, multiple of 8).
    pub page_size: usize,
    /// Fault tolerance: `None` runs the base HLRC protocol.
    pub ft: Option<FtConfig>,
    /// Stable-storage timing model.
    pub disk: DiskModel,
    /// Protocol event tracing. Defaults to the `FTDSM_TRACE*` environment
    /// variables, so any run can be traced without code changes.
    pub trace: TraceConfig,
    /// The run's seed: drives the chaos plan's fault decisions. Defaults to
    /// `FTDSM_SEED` (see [`seed_from_env`]).
    pub seed: u64,
    /// Fault injection on the fabric. The plan's own `seed` field is
    /// ignored — the cluster seed above is threaded in so one knob
    /// reproduces a run. Enabling chaos auto-enables membership (the retry
    /// layer is what makes a lossy fabric survivable).
    pub chaos: Option<FaultPlan>,
    /// Heartbeat membership / failure detection, plus the request
    /// timeout-retry layer. `None` (the default) keeps the original
    /// orchestrated-recovery behavior with a reliable fabric.
    pub membership: Option<MemberConfig>,
    /// Run the online protocol-invariant monitor against the live event
    /// stream. Forces tracing on (the monitor is an event sink); the run
    /// panics at collection time on the first violation, with the offending
    /// causal flow attached.
    pub monitor: bool,
    /// Periodic metrics sampling during the run. `None` still registers the
    /// metrics handles (they are a handful of atomics); it just skips the
    /// sampler thread. Defaults to the `FTDSM_METRICS_EVERY_MS` /
    /// `FTDSM_METRICS_OUT` environment variables.
    pub metrics: Option<MetricsConfig>,
    /// Test-only: after the first diff-batch apply on a home node, re-emit
    /// the apply event with its already-applied interval, simulating a stale
    /// (duplicate) apply. Exists so tests can prove the invariant monitor
    /// catches real protocol bugs; never set outside tests.
    pub inject_stale_apply: bool,
}

/// Periodic metrics sampling configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Sampling period.
    pub every: Duration,
    /// Where to append JSONL snapshots (one object per sample). A sibling
    /// `.prom` file with the final Prometheus exposition is written next to
    /// it. `None` keeps the series in memory only (returned in the report).
    pub out: Option<PathBuf>,
}

impl MetricsConfig {
    /// Read the sampling config from `FTDSM_METRICS_EVERY_MS` (period in
    /// milliseconds; absent or 0 disables sampling) and `FTDSM_METRICS_OUT`
    /// (optional JSONL path).
    pub fn from_env() -> Option<Self> {
        let ms: u64 = std::env::var("FTDSM_METRICS_EVERY_MS")
            .ok()?
            .trim()
            .parse()
            .ok()?;
        if ms == 0 {
            return None;
        }
        Some(MetricsConfig {
            every: Duration::from_millis(ms),
            out: std::env::var("FTDSM_METRICS_OUT").ok().map(PathBuf::from),
        })
    }
}

impl ClusterConfig {
    /// Base-protocol configuration (no fault tolerance), instant disk.
    pub fn base(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            page_size: 4096,
            ft: None,
            disk: DiskModel::instant(),
            trace: TraceConfig::from_env(),
            seed: seed_from_env(),
            chaos: None,
            membership: None,
            monitor: false,
            metrics: MetricsConfig::from_env(),
            inject_stale_apply: false,
        }
    }

    /// Fault-tolerant configuration with the default `OF(0.1)` policy and an
    /// instant disk (tests); benchmarks override `disk`.
    pub fn fault_tolerant(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            page_size: 4096,
            ft: Some(FtConfig::default()),
            disk: DiskModel::instant(),
            trace: TraceConfig::from_env(),
            seed: seed_from_env(),
            chaos: None,
            membership: None,
            monitor: false,
            metrics: MetricsConfig::from_env(),
            inject_stale_apply: false,
        }
    }

    /// Replace the page size.
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Replace the checkpoint policy (enables FT if it was off).
    pub fn with_policy(mut self, policy: CkptPolicy) -> Self {
        self.ft = Some(FtConfig { policy });
        self
    }

    /// Replace the disk model.
    pub fn with_disk(mut self, disk: DiskModel) -> Self {
        self.disk = disk;
        self
    }

    /// Replace the trace configuration (e.g. `TraceConfig::enabled()`).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Replace the seed (normally left to `FTDSM_SEED`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a chaos fault plan to the fabric. The plan's embedded seed is
    /// replaced by the cluster seed; membership (and with it the retry
    /// layer) is switched on if it wasn't already.
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        if self.membership.is_none() {
            self.membership = Some(MemberConfig::default());
        }
        self
    }

    /// Enable heartbeat membership / failure detection with `cfg`.
    pub fn with_membership(mut self, cfg: MemberConfig) -> Self {
        self.membership = Some(cfg);
        self
    }

    /// Enable (or disable) the online protocol-invariant monitor. Enabling
    /// it forces tracing on — the monitor consumes the live event stream.
    pub fn with_monitor(mut self, on: bool) -> Self {
        self.monitor = on;
        if on && !self.trace.enabled {
            self.trace = TraceConfig::enabled();
        }
        self
    }

    /// Enable periodic metrics sampling.
    pub fn with_metrics(mut self, m: MetricsConfig) -> Self {
        self.metrics = Some(m);
        self
    }

    /// Is fault tolerance enabled?
    pub fn ft_enabled(&self) -> bool {
        self.ft.is_some()
    }
}

/// A scripted fail-stop failure: node `node` crashes when its DSM operation
/// counter reaches `at_op`. The paper's model allows a single failure at a
/// time; the runtime rejects overlapping failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureSpec {
    /// The victim.
    pub node: usize,
    /// Crash when the victim's cumulative DSM-operation count reaches this
    /// value (operations = reads, writes, syncs — anything the runtime
    /// mediates).
    pub at_op: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = ClusterConfig::base(8)
            .with_page_size(1024)
            .with_policy(CkptPolicy::LogOverflow { l: 1.0 });
        assert_eq!(c.nodes, 8);
        assert_eq!(c.page_size, 1024);
        assert!(c.ft_enabled());
        match c.ft.unwrap().policy {
            CkptPolicy::LogOverflow { l } => assert_eq!(l, 1.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn base_config_has_no_ft() {
        assert!(!ClusterConfig::base(4).ft_enabled());
    }
}
