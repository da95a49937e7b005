//! Chaos quickstart: run a small workload twice — once on a reliable
//! fabric, once under seeded fault injection — and show that the results
//! and final memory image are identical, along with the fault and restart
//! counters from the run report.
//!
//! ```text
//! cargo run --release --example chaos_demo -- [scenario] [seed]
//!   scenario: lossy (default) | dup-reorder | crash
//!   seed:     u64 (decimal or 0x hex); defaults to FTDSM_SEED
//! ```

use std::time::Duration;

use ftdsm_suite::{
    run, seed_from_env, CkptPolicy, ClusterConfig, FailureSpec, FaultPlan, FaultRule, HomeAlloc,
    Process,
};

const NODES: usize = 4;

fn cfg() -> ClusterConfig {
    ClusterConfig::fault_tolerant(NODES)
        .with_page_size(512)
        .with_policy(CkptPolicy::LogOverflow { l: 0.2 })
}

fn app(p: &mut Process) -> u64 {
    let n = p.nodes();
    let data = p.alloc_vec::<u64>(128, HomeAlloc::Interleaved);
    let mut state = 0u64;
    p.run_steps(&mut state, 8, |p, state, step| {
        p.acquire(1);
        let v = data.get(p, 0);
        data.set(p, 0, v + 1);
        p.release(1);
        let me = p.me();
        for i in (me..128).step_by(n) {
            if i != 0 {
                let v = data.get(p, i);
                data.set(p, i, v.wrapping_mul(31).wrapping_add(step + i as u64));
            }
        }
        *state += step;
        p.barrier();
    });
    p.barrier();
    let mut acc = 0u64;
    for i in 0..128 {
        acc = acc.rotate_left(7) ^ data.get(p, i);
    }
    acc
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scenario = args.get(1).map(String::as_str).unwrap_or("lossy");
    let seed = match args.get(2) {
        Some(s) => match s.strip_prefix("0x") {
            Some(h) => u64::from_str_radix(h, 16).expect("bad hex seed"),
            None => s.parse().expect("bad seed"),
        },
        None => seed_from_env(),
    };

    println!("scenario: {scenario}   seed: {seed:#x}");
    let reliable = run(cfg().with_seed(seed), &[], app);
    println!(
        "reliable run:  results[0] = {:#018x}  shared_hash = {:#018x}",
        reliable.results[0], reliable.shared_hash
    );

    let (plan, failures) = match scenario {
        "lossy" => (FaultPlan::lossy(0), vec![]),
        "dup-reorder" => (
            FaultPlan::new(0).with_rule(
                FaultRule::all()
                    .duplicating(0.25)
                    .reordering(0.25)
                    .delaying(0.5, Duration::from_micros(50), Duration::from_millis(2)),
            ),
            vec![],
        ),
        "crash" => (
            FaultPlan::lossy(0),
            vec![FailureSpec {
                node: 2,
                at_op: 200,
            }],
        ),
        other => panic!("unknown scenario {other:?} (lossy | dup-reorder | crash)"),
    };

    let chaotic = run(cfg().with_seed(seed).with_chaos(plan), &failures, app);
    println!(
        "chaotic run:   results[0] = {:#018x}  shared_hash = {:#018x}",
        chaotic.results[0], chaotic.shared_hash
    );
    assert_eq!(reliable.results, chaotic.results, "results diverged!");
    assert_eq!(
        reliable.shared_hash, chaotic.shared_hash,
        "final memory diverged!"
    );
    println!("=> identical results and final memory image\n");

    let t = chaotic.total_traffic();
    println!(
        "injected faults: {} dropped, {} delayed, {} duplicated",
        t.chaos_dropped, t.chaos_delayed, t.chaos_duplicated
    );
    println!(
        "link:            {} retransmits, {} duplicates dropped, {} acks, {} link bytes",
        t.link_resent, t.link_dups_dropped, t.link_acks, t.link_bytes_sent
    );
    let recoveries = chaotic.total().ft.recoveries;
    let seen = chaotic.total().counts.restarts_seen;
    println!("restarts:        {recoveries} recoveries, {seen} restarts seen by peers");
    // The restart's second answers; the link delivers everything else once.
    let dups = chaotic.total().counts.dup_suppressed;
    println!("dup_suppressed:  {dups}");
    // Each recovery's handshake reaches every survivor once.
    assert_eq!(
        seen,
        recoveries * (NODES as u64 - 1),
        "a survivor missed a restart or counted one twice"
    );
    for (i, n) in chaotic.nodes.iter().enumerate() {
        if n.ft.recoveries > 0 {
            println!(
                "node {i}:          crashed and recovered {}x (announced by its handshake)",
                n.ft.recoveries
            );
        }
    }
}
