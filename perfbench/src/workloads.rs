//! The seven workloads: what runs, at which size, under which pinned
//! configuration, and what the result must be.
//!
//! A repetition is input generation from the seed followed by one fresh
//! `ftdsm::run`; the load generators are the cluster's own application
//! threads, in a closed loop (each issues its next DSM call when the
//! previous one returns).

use std::time::Instant;

use ftdsm::{
    run, CkptPolicy, ClusterConfig, DiskMode, DiskModel, FailureSpec, HomeAlloc, Process,
    RunReport, TraceConfig,
};
use splash::{barnes, hash_unit, water_sp, BarnesParams, WaterSpParams};

use crate::spans::Recorder;

/// u64 words in one 4 KiB page.
const WORDS: usize = 512;
/// Pages written/fetched per round by the kernels.
const HOT: usize = 16;
/// Words each writer dirties per page in `diff_fanin`.
const BURST: usize = 32;
/// Words in the `lock_migratory` cell.
const CELL: usize = 8;
const PAGE_SIZE: usize = WORDS * 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    WaterSpBase,
    WaterSpFt,
    WaterSpCrash,
    BarnesFt,
    PageFetch,
    DiffFanin,
    LockMigratory,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::WaterSpBase,
        Workload::WaterSpFt,
        Workload::WaterSpCrash,
        Workload::BarnesFt,
        Workload::PageFetch,
        Workload::DiffFanin,
        Workload::LockMigratory,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WaterSpBase => "water_sp_base",
            Workload::WaterSpFt => "water_sp_ft",
            Workload::WaterSpCrash => "water_sp_crash",
            Workload::BarnesFt => "barnes_ft",
            Workload::PageFetch => "page_fetch",
            Workload::DiffFanin => "diff_fanin",
            Workload::LockMigratory => "lock_migratory",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; also written to BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WaterSpBase => {
                "Regular barrier-structured app with FT off: baseline of the FT-overhead pair; every FT-layer change must leave it flat"
            }
            Workload::WaterSpFt => {
                "Same app and inputs with logging, checkpoints and the modeled disk on the critical path: checkpoint, codec and storage changes show here"
            }
            Workload::WaterSpCrash => {
                "water_sp_ft with node 1 crashed two thirds through: the only workload that runs recovery; result must equal the clean run bit for bit"
            }
            Workload::BarnesFt => {
                "The paper's stress app under FT: irregular access, largest log, diff and traffic volume, most time in local DSM reads and writes"
            }
            Workload::PageFetch => {
                "Read side of the home: demand misses on cold pages, then invalidate and batched refetch; home writes make no diffs, so diff and FT layers idle"
            }
            Workload::DiffFanin => {
                "Write side of the same home shards: twin, diff create, flush pool, diff apply, diff log and trimming, with CPU-only checkpoints"
            }
            Workload::LockMigratory => {
                "Lock manager, grant-carried write notices and one-page migration; no bulk data, so it is message and wake-up bound"
            }
        }
    }

    /// The workload whose clean result this one must reproduce, and against
    /// whose wall time its overhead is stated.
    pub fn reference(self) -> Option<Workload> {
        match self {
            Workload::WaterSpFt => Some(Workload::WaterSpBase),
            Workload::WaterSpCrash => Some(Workload::WaterSpFt),
            _ => None,
        }
    }

    pub fn ft(self) -> bool {
        !matches!(
            self,
            Workload::WaterSpBase | Workload::PageFetch | Workload::LockMigratory
        )
    }

    /// Does the workload time a blocking call of its own (`op_p50_us`)?
    pub fn has_op(self) -> bool {
        matches!(
            self,
            Workload::PageFetch | Workload::DiffFanin | Workload::LockMigratory
        )
    }
}

/// What one invocation runs: fixed for all its repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub nodes: usize,
    /// Tiny sizes for the smoke test; recorded numbers never use it.
    pub smoke: bool,
    /// Crash node 1 when its DSM-operation count reaches this value.
    pub crash_at: Option<u64>,
}

impl Plan {
    /// The plan of this plan's reference workload, same seed and size.
    pub fn for_reference(&self, workload: Workload) -> Plan {
        Plan {
            workload,
            crash_at: None,
            ..*self
        }
    }

    /// Pinned in code: ambient `FTDSM_*` variables must not change a number.
    fn config(&self, traced: bool) -> ClusterConfig {
        let scsi = DiskModel::scsi_1999(0.2, DiskMode::Stall);
        let mut cfg = match self.workload {
            Workload::WaterSpBase | Workload::PageFetch | Workload::LockMigratory => {
                ClusterConfig::base(self.nodes)
            }
            Workload::WaterSpFt | Workload::WaterSpCrash => {
                ClusterConfig::fault_tolerant(self.nodes)
                    .with_policy(CkptPolicy::LogOverflow { l: 0.1 })
                    .with_disk(scsi)
            }
            Workload::BarnesFt => ClusterConfig::fault_tolerant(self.nodes)
                .with_policy(CkptPolicy::LogOverflow { l: 1.0 })
                .with_disk(scsi),
            Workload::DiffFanin => ClusterConfig::fault_tolerant(self.nodes)
                .with_policy(CkptPolicy::EverySteps(if self.smoke { 8 } else { 256 }))
                .with_disk(DiskModel::instant()),
        }
        .with_page_size(PAGE_SIZE)
        .with_seed(self.seed)
        .with_trace(if traced {
            TraceConfig::enabled()
        } else {
            TraceConfig::default()
        })
        .with_monitor(false);
        cfg.metrics = None;
        cfg.chaos = None;
        cfg.membership = None;
        cfg
    }

    fn water_params(&self) -> WaterSpParams {
        let size = if self.smoke {
            WaterSpParams::tiny()
        } else {
            WaterSpParams::paper_scaled()
        };
        WaterSpParams {
            seed: self.seed,
            ..size
        }
    }

    fn barnes_params(&self) -> BarnesParams {
        let size = if self.smoke {
            BarnesParams::tiny()
        } else {
            BarnesParams::paper_scaled()
        };
        BarnesParams {
            seed: self.seed,
            ..size
        }
    }

    /// The value every node must return, where a closed form exists.
    pub fn closed_form(&self) -> Option<u64> {
        match self.workload {
            Workload::PageFetch => Some(PageFetchIn::generate(self).expected()),
            Workload::DiffFanin => Some(DiffFaninIn::generate(self).expected(self.nodes)),
            Workload::LockMigratory => Some(LockMigratoryIn::generate(self).expected()),
            _ => None,
        }
    }
}

/// What one node's application thread hands back.
pub struct NodeOut {
    pub value: u64,
    pub rec: Recorder,
}

/// One finished repetition, as seen from outside.
pub struct Rep {
    pub report: RunReport<NodeOut>,
    /// Input generation plus the whole `ftdsm::run` call, in seconds.
    pub elapsed_s: f64,
}

/// Generate the inputs from the plan's seed and run the workload once.
pub fn run_rep(plan: &Plan, traced: bool) -> Rep {
    let t0 = Instant::now();
    let cfg = plan.config(traced);
    let failures: Vec<FailureSpec> = plan
        .crash_at
        .map(|at_op| FailureSpec { node: 1, at_op })
        .into_iter()
        .collect();
    // The SPLASH applications make their calls inside `splash`: no spans.
    let plain = |value| NodeOut {
        value,
        rec: Recorder::new(false),
    };
    let report = match plan.workload {
        Workload::WaterSpBase | Workload::WaterSpFt | Workload::WaterSpCrash => {
            let params = plan.water_params();
            run(cfg, &failures, move |p| plain(water_sp(p, &params)))
        }
        Workload::BarnesFt => {
            let params = plan.barnes_params();
            run(cfg, &failures, move |p| plain(barnes(p, &params)))
        }
        Workload::PageFetch => run_kernel(cfg, traced, PageFetchIn::generate(plan), page_fetch),
        Workload::DiffFanin => run_kernel(cfg, traced, DiffFaninIn::generate(plan), diff_fanin),
        Workload::LockMigratory => {
            run_kernel(cfg, traced, LockMigratoryIn::generate(plan), lock_migratory)
        }
    };
    Rep {
        report,
        elapsed_s: t0.elapsed().as_secs_f64(),
    }
}

/// Run one of the benchmark's own kernels on every node, each with a span
/// recorder of its own, over the inputs generated outside the cluster.
fn run_kernel<I: Send + Sync + 'static>(
    cfg: ClusterConfig,
    traced: bool,
    inputs: I,
    kernel: fn(&mut Process, &mut Recorder, &I) -> u64,
) -> RunReport<NodeOut> {
    run(cfg, &[], move |p| {
        let mut rec = Recorder::new(traced);
        let value = kernel(p, &mut rec, &inputs);
        NodeOut { value, rec }
    })
}

/// The kernels' only source of randomness: successive draws of the SPLASH
/// workloads' own `hash_unit`.
struct Rng {
    seed: u64,
    draws: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Rng { seed, draws: 0 }
    }

    fn below(&mut self, n: usize) -> usize {
        self.draws += 1;
        (hash_unit(self.seed, self.draws) * n as f64) as usize
    }

    /// `0..n` in seeded order (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all
    }
}

// ---- page_fetch ---------------------------------------------------------------

struct PageFetchIn {
    /// Phase A: the cold pages in the order they are touched.
    order: Vec<usize>,
    /// Phase A: the word read in every cold page.
    cold_word: usize,
    /// Phase B: the word written and read in each hot page.
    hot_words: Vec<usize>,
    rounds: usize,
}

impl PageFetchIn {
    fn generate(plan: &Plan) -> Self {
        let mut rng = Rng::new(plan.seed ^ 0x7061_6765);
        let (cold, rounds) = if plan.smoke { (64, 20) } else { (4096, 1000) };
        PageFetchIn {
            order: rng.permutation(cold),
            cold_word: rng.below(WORDS),
            hot_words: (0..HOT).map(|_| rng.below(WORDS)).collect(),
            rounds,
        }
    }

    fn value(round: usize, page: usize) -> u64 {
        (round * HOT + page + 1) as u64
    }

    /// Cold pages read as zero; every round's hot words are summed once.
    fn expected(&self) -> u64 {
        let n = (self.rounds * HOT) as u64;
        n * (n + 1) / 2
    }
}

/// Phase A: every node reads one word of each never-touched page homed at
/// node 0, in seeded order — one demand `PageReq` per page on the others.
/// Phase B: node 0 writes one word in each of 16 homed pages, the barrier's
/// write notices invalidate them, and the others read them back through one
/// batched fetch. Node 0 reads the same words locally, so all nodes agree.
fn page_fetch(p: &mut Process, rec: &mut Recorder, inp: &PageFetchIn) -> u64 {
    let cold = p.alloc_vec::<u64>(inp.order.len() * WORDS, HomeAlloc::Node(0));
    let hot = p.alloc_vec::<u64>(HOT * WORDS, HomeAlloc::Node(0));
    let home = p.me() == 0;
    let mut sum = 0u64;
    for &page in &inp.order {
        let i = page * WORDS + inp.cold_word;
        if home {
            sum += cold.get(p, i);
        } else {
            let op = rec.begin_op("get_miss");
            sum += cold.get(p, i);
            rec.end_op(op);
        }
    }
    p.barrier();
    for round in 0..inp.rounds {
        let r = rec.begin("round");
        if home {
            let s = rec.begin("write_burst");
            for (k, &w) in inp.hot_words.iter().enumerate() {
                hot.set(p, k * WORDS + w, PageFetchIn::value(round, k));
            }
            rec.end(s);
        }
        let batch = rec.begin("batch_round");
        let s = rec.begin("barrier");
        p.barrier();
        rec.end(s);
        let s = rec.begin("get_batch");
        for (k, &w) in inp.hot_words.iter().enumerate() {
            sum += hot.get(p, k * WORDS + w);
        }
        rec.end(s);
        rec.end(batch);
        // Nobody wrote since the last crossing: a barrier with no dirty pages.
        let s = rec.begin("barrier_empty");
        p.barrier();
        rec.end(s);
        rec.end(r);
    }
    sum
}

// ---- diff_fanin -----------------------------------------------------------------

struct DiffFaninIn {
    /// The words each writer dirties in every page it writes.
    words: Vec<usize>,
    rounds: u64,
}

impl DiffFaninIn {
    fn generate(plan: &Plan) -> Self {
        let mut rng = Rng::new(plan.seed ^ 0x6469_6666);
        // One even word in each 16-word slot: never two adjacent, so every
        // seed gives 32 one-word runs per diff and the same bytes on the wire.
        let slot = WORDS / BURST;
        DiffFaninIn {
            words: (0..BURST)
                .map(|k| k * slot + 2 * rng.below(slot / 2))
                .collect(),
            rounds: if plan.smoke { 40 } else { 2000 },
        }
    }

    /// After the last round every written word holds the round count.
    fn expected(&self, nodes: usize) -> u64 {
        (nodes * HOT * BURST) as u64 * self.rounds
    }
}

/// Each node writes 32 seeded words in each of the 16 pages homed at its
/// right neighbour, then crosses a barrier: every round is twin, diff
/// create, flush, diff batch, apply at the home, diff log and trimming.
fn diff_fanin(p: &mut Process, rec: &mut Recorder, inp: &DiffFaninIn) -> u64 {
    let n = p.nodes();
    // Blocked over n * 16 pages: block k is homed at node k.
    let data = p.alloc_vec::<u64>(n * HOT * WORDS, HomeAlloc::Blocked);
    let target = (p.me() + 1) % n;
    let mut state = ();
    p.run_steps(&mut state, inp.rounds, |p, _state, round| {
        let op = rec.begin_op("round");
        let s = rec.begin("write_burst");
        for page in 0..HOT {
            let base = (target * HOT + page) * WORDS;
            for &w in &inp.words {
                data.set(p, base + w, round + 1);
            }
        }
        rec.end(s);
        let s = rec.begin("barrier");
        p.barrier();
        rec.end(s);
        rec.end_op(op);
    });
    let mut sum = 0u64;
    for page in 0..n * HOT {
        for &w in &inp.words {
            sum += data.get(p, page * WORDS + w);
        }
    }
    sum
}

// ---- lock_migratory ---------------------------------------------------------------

struct LockMigratoryIn {
    /// What each node adds to every word of the cell per round.
    increments: Vec<u64>,
    rounds: usize,
}

impl LockMigratoryIn {
    fn generate(plan: &Plan) -> Self {
        let mut rng = Rng::new(plan.seed ^ 0x6c6f_636b);
        LockMigratoryIn {
            increments: (0..plan.nodes).map(|_| 1 + rng.below(7) as u64).collect(),
            rounds: if plan.smoke { 50 } else { 5000 },
        }
    }

    fn expected(&self) -> u64 {
        CELL as u64 * self.rounds as u64 * self.increments.iter().sum::<u64>()
    }
}

/// Every node takes lock 1, read-modify-writes an 8-word cell homed at
/// node 0, releases, and crosses a barrier: the cell's page migrates with
/// the lock, and nothing else moves.
fn lock_migratory(p: &mut Process, rec: &mut Recorder, inp: &LockMigratoryIn) -> u64 {
    let cell = p.alloc_vec::<u64>(CELL, HomeAlloc::Node(0));
    let inc = inp.increments[p.me()];
    for _ in 0..inp.rounds {
        let r = rec.begin("round");
        let op = rec.begin_op("acquire");
        p.acquire(1);
        rec.end_op(op);
        for w in 0..CELL {
            let v = cell.get(p, w);
            cell.set(p, w, v + inc);
        }
        let s = rec.begin("release");
        p.release(1);
        rec.end(s);
        let s = rec.begin("barrier");
        p.barrier();
        rec.end(s);
        rec.end(r);
    }
    (0..CELL).map(|w| cell.get(p, w)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_whys_fit_the_manifest() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs() {
        let plan = |seed| Plan {
            workload: Workload::PageFetch,
            seed,
            nodes: 2,
            smoke: true,
            crash_at: None,
        };
        let a = PageFetchIn::generate(&plan(7));
        let b = PageFetchIn::generate(&plan(7));
        let c = PageFetchIn::generate(&plan(8));
        assert_eq!(a.order, b.order);
        assert_eq!(a.hot_words, b.hot_words);
        assert_ne!(a.order, c.order);
        let mut sorted = a.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..a.order.len()).collect::<Vec<_>>());
    }
}
