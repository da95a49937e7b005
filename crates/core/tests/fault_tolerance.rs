//! Fault-tolerance integration tests: logging/checkpointing overhead paths,
//! the OF(L) policy, and crash/recovery correctness for worker, home,
//! lock-manager and barrier-manager failures.

use ftdsm::{run, CkptPolicy, ClusterConfig, FailureSpec, HomeAlloc, Process};

const STEPS: u64 = 12;

/// A deterministic step-structured SPMD workload touching every protocol
/// path: a lock-protected global counter, per-node partitioned writes with
/// interleaved homes (so every node is a home), and a barrier per step.
fn stepped_app(p: &mut Process) -> u64 {
    let n = p.nodes();
    let data = p.alloc_vec::<u64>(64, HomeAlloc::Interleaved);
    let counter = p.alloc_vec::<u64>(1, HomeAlloc::Node(0));
    let mut state = 0u64;
    p.run_steps(&mut state, STEPS, |p, state, step| {
        p.acquire(3);
        let v = counter.get(p, 0);
        counter.set(p, 0, v + 1);
        p.release(3);
        let me = p.me();
        for i in 0..64 {
            if i % n == me {
                let cur = data.get(p, i);
                data.set(p, i, cur + (step + 1) * (i as u64 + 1));
            }
        }
        *state += step;
        p.barrier();
    });
    p.barrier();
    counter.get(p, 0) + state
}

fn expected_result(n: u64) -> u64 {
    n * STEPS + (0..STEPS).sum::<u64>()
}

fn ft_cfg(n: usize, policy: CkptPolicy) -> ClusterConfig {
    ClusterConfig::fault_tolerant(n)
        .with_page_size(256)
        .with_policy(policy)
}

#[test]
fn ft_run_matches_base_run() {
    let base = run(ClusterConfig::base(4).with_page_size(256), &[], stepped_app);
    let ft = run(ft_cfg(4, CkptPolicy::EverySteps(3)), &[], stepped_app);
    assert_eq!(base.results, ft.results);
    assert_eq!(base.results, vec![expected_result(4); 4]);
    assert_eq!(base.shared_hash, ft.shared_hash);
    assert!(ft.total_ckpts() > 0, "EverySteps policy must checkpoint");
    // Piggyback traffic flows only in the FT run.
    assert_eq!(base.total_traffic().ft_bytes_sent, 0);
    assert!(ft.total_traffic().ft_bytes_sent > 0);
}

#[test]
fn log_overflow_policy_checkpoints_and_bounds_logs() {
    let report = run(
        ft_cfg(4, CkptPolicy::LogOverflow { l: 0.05 }),
        &[],
        stepped_app,
    );
    assert_eq!(report.results, vec![expected_result(4); 4]);
    assert!(report.total_ckpts() > 0, "OF policy should have triggered");
    for node in &report.nodes {
        let c = node.ft.log_counters;
        assert!(c.created_bytes > 0);
        // Saved logs were written at every checkpoint.
        if node.ft.ckpts_taken > 0 {
            assert!(node.ft.log_bytes_saved > 0);
            assert!(!node.ft.stable_log_curve.is_empty());
        }
    }
}

#[test]
fn never_policy_logs_but_does_not_checkpoint() {
    let report = run(ft_cfg(3, CkptPolicy::Never), &[], stepped_app);
    assert_eq!(report.results, vec![expected_result(3); 3]);
    assert_eq!(report.total_ckpts(), 0);
    assert!(report
        .nodes
        .iter()
        .any(|n| n.ft.log_counters.created_bytes > 0));
}

#[test]
fn manual_checkpoints_fire_at_safe_points() {
    let report = run(ft_cfg(3, CkptPolicy::Manual), &[], |p| {
        let data = p.alloc_vec::<u64>(8, HomeAlloc::Interleaved);
        let mut state = 0u64;
        p.run_steps(&mut state, 6, |p, state, step| {
            data.set(p, p.me(), step);
            if step == 2 {
                p.request_checkpoint();
            }
            *state += 1;
            p.barrier();
        });
        state
    });
    assert_eq!(report.results, vec![6, 6, 6]);
    assert_eq!(report.total_ckpts(), 3, "one checkpoint per node");
}

fn check_recovery(n: usize, victim: usize, at_op: u64, policy: CkptPolicy) {
    check_recovery_of(stepped_app, n, victim, at_op, policy);
}

fn check_recovery_of(
    app: fn(&mut Process) -> u64,
    n: usize,
    victim: usize,
    at_op: u64,
    policy: CkptPolicy,
) {
    let clean = run(ft_cfg(n, policy), &[], app);
    let crashed = run(
        ft_cfg(n, policy),
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
        "shared memory diverges after recovery"
    );
    assert_eq!(
        crashed.nodes[victim].ft.recoveries, 1,
        "victim must have recovered"
    );
}

/// `stepped_app` beside eight pages on every node that nobody touches: they
/// hold no home state until a restart of their home restores them.
fn stepped_app_with_untouched_pages(p: &mut Process) -> u64 {
    let pages = 8 * p.nodes();
    p.alloc_vec::<u64>(pages * 256 / 8, HomeAlloc::Interleaved);
    stepped_app(p)
}

#[test]
fn recovery_of_a_home_with_untouched_pages_is_bit_identical() {
    let app = stepped_app_with_untouched_pages;
    check_recovery_of(app, 4, 2, 60, CkptPolicy::EverySteps(4));
    check_recovery_of(app, 4, 2, 260, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_of_worker_before_first_checkpoint() {
    // Crash early: restart from scratch, full replay.
    check_recovery(4, 2, 60, CkptPolicy::EverySteps(4));
}

#[test]
fn recovery_of_worker_from_checkpoint() {
    // Crash late enough that checkpoints exist.
    check_recovery(4, 2, 260, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_of_barrier_manager_node0() {
    check_recovery(4, 0, 200, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_of_lock_manager() {
    // Lock 3 is managed by node 3 % n; for n = 4 that is node 3.
    check_recovery(4, 3, 230, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_under_log_overflow_policy() {
    check_recovery(4, 1, 300, CkptPolicy::LogOverflow { l: 0.05 });
}

#[test]
fn recovery_with_two_sequential_failures() {
    let clean = run(ft_cfg(4, CkptPolicy::EverySteps(3)), &[], stepped_app);
    let crashed = run(
        ft_cfg(4, CkptPolicy::EverySteps(3)),
        &[
            FailureSpec {
                node: 1,
                at_op: 150,
            },
            FailureSpec {
                node: 2,
                at_op: 350,
            },
        ],
        stepped_app,
    );
    assert_eq!(clean.results, crashed.results);
    assert_eq!(clean.shared_hash, crashed.shared_hash);
    assert_eq!(crashed.nodes[1].ft.recoveries, 1);
    assert_eq!(crashed.nodes[2].ft.recoveries, 1);
}

#[test]
fn checkpoint_window_stays_bounded() {
    let report = run(ft_cfg(4, CkptPolicy::EverySteps(2)), &[], stepped_app);
    let wmax = report.max_ckpt_window();
    assert!(wmax >= 1);
    assert!(
        wmax <= 4,
        "CGC failed to bound the checkpoint window: Wmax = {wmax}"
    );
}

#[test]
fn trimming_discards_logs() {
    let report = run(ft_cfg(4, CkptPolicy::EverySteps(2)), &[], stepped_app);
    let discarded: u64 = report
        .nodes
        .iter()
        .map(|n| n.ft.log_counters.discarded_bytes)
        .sum();
    assert!(discarded > 0, "LLT never discarded anything");
}

#[test]
fn recovery_on_a_two_node_cluster() {
    // n = 2 is the tightest case for the mirrored logs: exactly one peer
    // holds every mirror.
    check_recovery(2, 1, 200, CkptPolicy::EverySteps(3));
    check_recovery(2, 0, 200, CkptPolicy::EverySteps(3));
}

#[test]
fn recovery_of_same_node_twice() {
    let clean = run(ft_cfg(4, CkptPolicy::EverySteps(3)), &[], stepped_app);
    let crashed = run(
        ft_cfg(4, CkptPolicy::EverySteps(3)),
        &[
            FailureSpec {
                node: 2,
                at_op: 120,
            },
            FailureSpec {
                node: 2,
                at_op: 320,
            },
        ],
        stepped_app,
    );
    assert_eq!(clean.results, crashed.results);
    assert_eq!(clean.shared_hash, crashed.shared_hash);
    assert_eq!(crashed.nodes[2].ft.recoveries, 2);
}

#[test]
fn recovery_when_crash_is_near_the_end() {
    // The victim's crash lands in the last steps; replay covers nearly the
    // whole (logged) execution.
    check_recovery(4, 1, 430, CkptPolicy::EverySteps(5));
}

#[test]
fn recovery_with_crash_inside_critical_section() {
    // Ops 4..7 of each step sit between acquire and release; sweep a few
    // in-CS offsets to land inside the lock tenure.
    for at_op in [41, 78, 115] {
        let clean = run(ft_cfg(4, CkptPolicy::EverySteps(3)), &[], stepped_app);
        let crashed = run(
            ft_cfg(4, CkptPolicy::EverySteps(3)),
            &[FailureSpec { node: 2, at_op }],
            stepped_app,
        );
        assert_eq!(clean.results, crashed.results, "at_op {at_op}");
        assert_eq!(clean.shared_hash, crashed.shared_hash, "at_op {at_op}");
    }
}

#[test]
fn base_protocol_rejects_failure_injection() {
    let result = std::panic::catch_unwind(|| {
        run(
            ClusterConfig::base(2).with_page_size(256),
            &[FailureSpec { node: 0, at_op: 10 }],
            |p| p.me(),
        )
    });
    assert!(
        result.is_err(),
        "failure injection without FT must be rejected"
    );
}

#[test]
fn at_barrier_policy_aligns_checkpoints_across_nodes() {
    // Every node crosses the same episodes, so AtBarrier(k) gives every
    // node the same checkpoint count without any coordination messages.
    let report = run(ft_cfg(4, CkptPolicy::AtBarrier(4)), &[], stepped_app);
    assert_eq!(report.results, vec![expected_result(4); 4]);
    let counts: Vec<u64> = report.nodes.iter().map(|n| n.ft.ckpts_taken).collect();
    assert!(
        counts.iter().all(|&c| c == counts[0] && c > 0),
        "misaligned: {counts:?}"
    );
}

#[test]
fn recovery_under_at_barrier_policy() {
    check_recovery(4, 2, 260, CkptPolicy::AtBarrier(3));
}
