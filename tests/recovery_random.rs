//! Property test of the paper's central correctness claim: for *any*
//! single-node fail-stop failure at *any* point in the execution, local
//! checkpoint restore plus log-driven replay reproduces the crash-free
//! execution exactly.
//!
//! Uses a fixed seeded sweep rather than proptest shrinking (each case is a
//! pair of full multi-threaded cluster runs, so cases are expensive and
//! shrinking adds nothing: the case is already just (victim, op)).
//!
//! The sweep derives from the cluster seed: set `FTDSM_SEED` to reproduce
//! a failing case (every assertion echoes the seed it ran with).

use ftdsm_suite::apps::{water_nsq, WaterNsqParams};
use ftdsm_suite::{run, seed_from_env, CkptPolicy, ClusterConfig, FailureSpec, HomeAlloc, Process};

const NODES: usize = 4;

fn cfg(l: f64) -> ClusterConfig {
    ClusterConfig::fault_tolerant(NODES)
        .with_page_size(512)
        .with_policy(CkptPolicy::LogOverflow { l })
}

/// The reference workload: locks, barriers, partitioned writes, a global
/// reduction — all protocol paths.
fn app(p: &mut Process) -> u64 {
    let n = p.nodes();
    let data = p.alloc_vec::<u64>(96, HomeAlloc::Interleaved);
    let counter = p.alloc_vec::<u64>(1, HomeAlloc::Node(1));
    let mut state = 0u64;
    p.run_steps(&mut state, 8, |p, state, step| {
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

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[test]
fn any_single_failure_point_recovers_exactly() {
    let clean = run(cfg(0.1), &[], app);
    // The op space: the workload performs ~450 ops per node; sweep seeded
    // random (victim, op) pairs across the whole execution.
    let base = seed_from_env();
    let mut seed = base ^ 0xC0FFEE;
    for case in 0..10 {
        let victim = (splitmix(&mut seed) % NODES as u64) as usize;
        let at_op = 20 + splitmix(&mut seed) % 420;
        let crashed = run(
            cfg(0.1),
            &[FailureSpec {
                node: victim,
                at_op,
            }],
            app,
        );
        assert_eq!(
            clean.results, crashed.results,
            "case {case}: results diverge (victim {victim}, op {at_op}, FTDSM_SEED={base:#x})"
        );
        assert_eq!(
            clean.shared_hash, crashed.shared_hash,
            "case {case}: memory diverges (victim {victim}, op {at_op}, FTDSM_SEED={base:#x})"
        );
        assert_eq!(
            crashed.nodes[victim].ft.recoveries, 1,
            "case {case}: crash did not fire (victim {victim}, op {at_op}, FTDSM_SEED={base:#x})"
        );
    }
}

#[test]
fn recovery_holds_under_a_real_workload_sweep() {
    let params = WaterNsqParams::tiny();
    let p0 = params.clone();
    let clean = run(cfg(0.2), &[], move |p| water_nsq(p, &p0));
    let base = seed_from_env();
    let mut seed = base ^ 0xBEEF;
    for case in 0..4 {
        let victim = (splitmix(&mut seed) % NODES as u64) as usize;
        let at_op = 50 + splitmix(&mut seed) % 500;
        let pc = params.clone();
        let crashed = run(
            cfg(0.2),
            &[FailureSpec {
                node: victim,
                at_op,
            }],
            move |p| water_nsq(p, &pc),
        );
        assert_eq!(
            clean.results, crashed.results,
            "case {case}: (victim {victim}, op {at_op}, FTDSM_SEED={base:#x})"
        );
        assert_eq!(
            clean.shared_hash, crashed.shared_hash,
            "case {case}: (victim {victim}, op {at_op}, FTDSM_SEED={base:#x})"
        );
    }
}
