//! Integration tests: the SPLASH-style workloads on real simulated
//! clusters — determinism, base-vs-FT equivalence, and crash recovery.

use ftdsm::{run, CkptPolicy, ClusterConfig, FailureSpec, Process};
use splash::{
    barnes, jacobi, migratory, producer_consumer, water_nsq, water_sp, BarnesParams, JacobiParams,
    WaterNsqParams, WaterSpParams,
};

fn base(n: usize) -> ClusterConfig {
    ClusterConfig::base(n).with_page_size(1024)
}

fn ft(n: usize) -> ClusterConfig {
    ClusterConfig::fault_tolerant(n)
        .with_page_size(1024)
        .with_policy(CkptPolicy::EverySteps(2))
}

/// All nodes must agree on the checksum, and two runs must agree with each
/// other (bit-exact determinism).
fn assert_deterministic(app: impl Fn(&mut Process) -> u64 + Send + Sync + Clone + 'static) {
    let r1 = run(base(4), &[], app.clone());
    let first = r1.results[0];
    assert!(
        r1.results.iter().all(|&c| c == first),
        "nodes disagree: {:?}",
        r1.results
    );
    let r2 = run(base(4), &[], app);
    assert_eq!(r1.results, r2.results, "runs disagree");
    assert_eq!(r1.shared_hash, r2.shared_hash);
}

#[test]
fn barnes_is_deterministic() {
    assert_deterministic(|p| barnes(p, &BarnesParams::tiny()));
}

#[test]
fn water_nsq_is_deterministic() {
    assert_deterministic(|p| water_nsq(p, &WaterNsqParams::tiny()));
}

#[test]
fn water_sp_is_deterministic() {
    assert_deterministic(|p| water_sp(p, &WaterSpParams::tiny()));
}

#[test]
fn jacobi_converges_and_is_deterministic() {
    assert_deterministic(|p| jacobi(p, &JacobiParams { side: 32, steps: 6 }));
}

#[test]
fn ft_runs_match_base_runs() {
    let b = run(base(4), &[], |p| barnes(p, &BarnesParams::tiny()));
    let f = run(ft(4), &[], |p| barnes(p, &BarnesParams::tiny()));
    assert_eq!(b.results, f.results);
    assert_eq!(b.shared_hash, f.shared_hash);
    assert!(f.total_ckpts() > 0);
}

fn assert_recovers(
    victim: usize,
    at_op: u64,
    app: impl Fn(&mut Process) -> u64 + Send + Sync + Clone + 'static,
) {
    let clean = run(ft(4), &[], app.clone());
    let crashed = run(
        ft(4),
        &[FailureSpec {
            node: victim,
            at_op,
        }],
        app,
    );
    assert_eq!(
        clean.results, crashed.results,
        "results diverge after recovery"
    );
    assert_eq!(
        clean.shared_hash, crashed.shared_hash,
        "memory diverges after recovery"
    );
    assert_eq!(crashed.nodes[victim].ft.recoveries, 1, "crash did not fire");
}

#[test]
fn barnes_recovers_from_worker_crash() {
    assert_recovers(2, 400, |p| barnes(p, &BarnesParams::tiny()));
}

#[test]
fn barnes_recovers_from_tree_builder_crash() {
    // Node 0 builds the octree and is also the barrier manager.
    assert_recovers(0, 500, |p| barnes(p, &BarnesParams::tiny()));
}

#[test]
fn water_nsq_recovers_from_worker_crash() {
    assert_recovers(1, 300, |p| water_nsq(p, &WaterNsqParams::tiny()));
}

#[test]
fn water_sp_recovers_from_worker_crash() {
    assert_recovers(3, 300, |p| water_sp(p, &WaterSpParams::tiny()));
}

#[test]
fn migratory_kernel_is_exact() {
    let rounds = 10u64;
    let r = run(base(4), &[], move |p| migratory(p, rounds));
    // Each round every node adds me+1 to each of 8 cells: 8 * rounds * (1+2+3+4).
    assert_eq!(r.results, vec![8 * rounds * 10; 4]);
}

#[test]
fn producer_consumer_kernel_is_exact() {
    let rounds = 6u64;
    let items = 32usize;
    let r = run(base(3), &[], move |p| producer_consumer(p, rounds, items));
    let expected: u64 = (0..rounds)
        .map(|round| {
            (0..items as u64)
                .map(|i| round * items as u64 + i)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(r.results, vec![expected; 3]);
}

#[test]
fn recovery_time_is_recorded_and_bounded() {
    use splash::{water_nsq, WaterNsqParams};
    let crashed = run(
        ft(4),
        &[ftdsm::FailureSpec {
            node: 1,
            at_op: 300,
        }],
        |p| water_nsq(p, &WaterNsqParams::tiny()),
    );
    let rec = crashed.nodes[1].ft.recovery_time;
    assert!(
        rec > std::time::Duration::ZERO,
        "recovery time not recorded"
    );
    // §4.3: local replay is expected to be faster than the original
    // execution of the lost segment, and certainly than the whole run.
    assert!(
        rec < crashed.wall,
        "recovery took longer than the entire run"
    );
}

#[test]
fn radix_sorts_and_is_deterministic() {
    use splash::{radix, RadixParams};
    assert_deterministic(|p| radix(p, &RadixParams::tiny()));
}

#[test]
fn radix_recovers_from_worker_crash() {
    use splash::{radix, RadixParams};
    assert_recovers(1, 400, |p| radix(p, &RadixParams::tiny()));
}
