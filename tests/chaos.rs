//! Chaos-fabric and membership integration tests: the cluster must produce
//! byte-identical results on a lossy, reordering, duplicating network, and
//! must detect injected crashes through heartbeats alone (no orchestrator
//! hint), recovering from its own detection.
//!
//! Every run is driven by one seed. Failures echo it; reproduce with
//! `FTDSM_SEED=<seed> cargo test --test chaos <name>`.

use std::time::Duration;

use ftdsm_suite::apps::{water_nsq, WaterNsqParams};
use ftdsm_suite::{
    run, seed_from_env, CkptPolicy, ClusterConfig, FailureSpec, FaultPlan, FaultRule, HomeAlloc,
    Process,
};

const NODES: usize = 4;

fn cfg() -> ClusterConfig {
    // The whole chaos suite runs under the online invariant monitor: any
    // protocol-invariant violation (stale diff apply, split lock tenure,
    // barrier disagreement, illegal membership transition) panics the run
    // with the offending causal flow and the reproducing seed attached.
    ClusterConfig::fault_tolerant(NODES)
        .with_page_size(512)
        .with_policy(CkptPolicy::LogOverflow { l: 0.2 })
        .with_monitor(true)
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A crash point the victim is sure to reach: past start-up, and below the
/// operation count it reached in the clean run.
fn crash_op(s: &mut u64, clean_ops: u64) -> u64 {
    20 + splitmix(s) % (clean_ops - 20)
}

/// Reference workload exercising every install/apply path: page fetches,
/// diff batches (lock and barrier flushes), lock grants with write notices,
/// barrier releases, and prefetch batches.
fn app(p: &mut Process) -> u64 {
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

/// Membership alone (reliable fabric): heartbeats must flow and nobody may
/// ever be suspected.
#[test]
fn quiet_cluster_has_no_false_suspicions() {
    let seed = seed_from_env();
    let report = run(
        cfg().with_seed(seed).with_membership(Default::default()),
        &[],
        app,
    );
    let clean = run(cfg().with_seed(seed), &[], app);
    assert_eq!(
        report.results, clean.results,
        "membership changed results (FTDSM_SEED={seed:#x})"
    );
    let m = report.total().member;
    assert!(
        m.pings_sent > 0,
        "no heartbeats sent (FTDSM_SEED={seed:#x})"
    );
    assert_eq!(
        m.suspicions, 0,
        "healthy node suspected on a reliable fabric (FTDSM_SEED={seed:#x})"
    );
    assert_eq!(m.down_events, 0, "FTDSM_SEED={seed:#x}");
}

/// The acceptance bar: a fixed-seed lossy fabric (drops, delays, duplicates,
/// reorders — no crash) must leave a SPLASH FT kernel byte-identical to the
/// reliable run.
#[test]
fn lossy_fabric_splash_kernel_is_byte_identical() {
    let seed = seed_from_env();
    let params = WaterNsqParams::tiny();
    let p0 = params.clone();
    let clean = run(cfg().with_seed(seed), &[], move |p| water_nsq(p, &p0));
    let p1 = params.clone();
    let chaotic = run(
        cfg().with_seed(seed).with_chaos(FaultPlan::lossy(0)),
        &[],
        move |p| water_nsq(p, &p1),
    );
    assert_eq!(
        clean.results, chaotic.results,
        "lossy run diverged (FTDSM_SEED={seed:#x})"
    );
    assert_eq!(
        clean.shared_hash, chaotic.shared_hash,
        "lossy run memory diverged (FTDSM_SEED={seed:#x})"
    );
    let t = chaotic.total_traffic();
    assert!(
        t.chaos_dropped + t.chaos_delayed + t.chaos_duplicated > 0,
        "chaos plan injected nothing (FTDSM_SEED={seed:#x})"
    );
}

/// Idempotency property: under a duplicate+reorder-only plan (nothing is
/// ever lost, but everything may arrive twice and out of order), every
/// install/apply path — page install, diff batch, lock grant, barrier
/// release — must converge to the reliable run's memory image. Swept across
/// seeds derived from the run seed.
#[test]
fn dup_reorder_delivery_is_idempotent() {
    let base = seed_from_env();
    let clean = run(cfg().with_seed(base), &[], app);
    let mut s = base;
    let mut dups_seen = 0u64;
    for case in 0..4 {
        let seed = splitmix(&mut s);
        let plan = FaultPlan::new(0).with_rule(
            FaultRule::all()
                .duplicating(0.25)
                .reordering(0.25)
                .delaying(0.5, Duration::from_micros(50), Duration::from_millis(2)),
        );
        let chaotic = run(cfg().with_seed(seed).with_chaos(plan), &[], app);
        assert_eq!(
            clean.results, chaotic.results,
            "case {case}: dup+reorder diverged (FTDSM_SEED={seed:#x})"
        );
        assert_eq!(
            clean.shared_hash, chaotic.shared_hash,
            "case {case}: memory diverged (FTDSM_SEED={seed:#x})"
        );
        let t = chaotic.total_traffic();
        assert!(
            t.chaos_duplicated > 0,
            "case {case}: plan duplicated nothing (FTDSM_SEED={seed:#x})"
        );
        dups_seen += chaotic.total().dup_suppressed;
    }
    assert!(
        dups_seen > 0,
        "no duplicate delivery was ever suppressed across the sweep (FTDSM_SEED={base:#x})"
    );
}

/// Self-detected recovery: a node crashes with no orchestrator announcement;
/// peers must notice the silence via heartbeats (suspicions observed), mark
/// it down, and the recovered incarnation must rejoin and finish with the
/// reliable run's exact results.
#[test]
fn crash_is_detected_by_heartbeats_alone() {
    let seed = seed_from_env();
    let clean = run(cfg().with_seed(seed), &[], app);
    let mut s = seed;
    for case in 0..3 {
        let victim = (splitmix(&mut s) % NODES as u64) as usize;
        let at_op = crash_op(&mut s, clean.nodes[victim].ops);
        let crashed = run(
            cfg().with_seed(seed).with_membership(Default::default()),
            &[FailureSpec {
                node: victim,
                at_op,
            }],
            app,
        );
        assert_eq!(
            clean.results, crashed.results,
            "case {case}: results diverge (victim {victim}, op {at_op}, FTDSM_SEED={seed:#x})"
        );
        assert_eq!(
            clean.shared_hash, crashed.shared_hash,
            "case {case}: memory diverges (victim {victim}, op {at_op}, FTDSM_SEED={seed:#x})"
        );
        assert_eq!(
            crashed.nodes[victim].ft.recoveries, 1,
            "case {case}: crash did not fire (victim {victim}, op {at_op}, FTDSM_SEED={seed:#x})"
        );
        let m = crashed.total().member;
        assert!(
            m.suspicions > 0,
            "case {case}: nobody suspected the dead node (victim {victim}, op {at_op}, \
             FTDSM_SEED={seed:#x})"
        );
        assert!(
            m.down_events > 0,
            "case {case}: suspicion never confirmed to Down (victim {victim}, op {at_op}, \
             FTDSM_SEED={seed:#x})"
        );
        assert!(
            m.up_events > 0,
            "case {case}: recovered incarnation never marked Up (victim {victim}, op {at_op}, \
             FTDSM_SEED={seed:#x})"
        );
    }
}

/// Crash during chaos: loss + delay + a real fail-stop crash, detection and
/// recovery driven entirely by the membership layer. Iteration count is
/// env-tunable (`FTDSM_STRESS_ITERS`) for long soak runs; CI uses the small
/// default.
///
/// A census, not a first-failure stop: every case runs to the end, each
/// failing one prints a line that names it, and the final `CENSUS` line
/// counts them — so two trees can be compared by how often they fail, which
/// one failure in a 300-case run cannot tell. Any failure still fails the
/// test.
#[test]
fn crash_during_chaos_stress() {
    let iters: u64 = std::env::var("FTDSM_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let base = seed_from_env();
    let clean = run(cfg().with_seed(base), &[], app);
    let mut s = base;
    let (mut diverged, mut panics, mut unfired) = (0u64, 0u64, 0u64);
    let (mut delta_installs, mut installs) = (0u64, 0u64);
    for case in 0..iters {
        let seed = splitmix(&mut s);
        let victim = (splitmix(&mut s) % NODES as u64) as usize;
        let at_op = crash_op(&mut s, clean.nodes[victim].ops);
        let crashed = std::panic::catch_unwind(|| {
            run(
                cfg().with_seed(seed).with_chaos(FaultPlan::lossy(0)),
                &[FailureSpec {
                    node: victim,
                    at_op,
                }],
                app,
            )
        });
        let failure = match &crashed {
            // An invariant-monitor violation or a blocked wait's deadline;
            // the panic message is on stderr above this line.
            Err(_) => {
                panics += 1;
                "panicked"
            }
            Ok(r) if r.results != clean.results || r.shared_hash != clean.shared_hash => {
                diverged += 1;
                "results diverge"
            }
            Ok(r) if r.nodes[victim].ft.recoveries != 1 => {
                unfired += 1;
                "crash did not fire"
            }
            Ok(r) => {
                delta_installs += r.total().fetch_delta_pages;
                installs += r.total_hists().fetch_copy.count();
                continue;
            }
        };
        eprintln!("case {case}: {failure} (FTDSM_SEED={seed:#x} victim={victim} at_op={at_op})");
    }
    eprintln!(
        "CENSUS base={base:#x} iters={iters} diverged={diverged} panics={panics} \
         unfired={unfired} delta_installs={delta_installs} installs={installs}"
    );
    assert_eq!(
        (diverged, panics, unfired),
        (0, 0, 0),
        "{} of {iters} cases failed (FTDSM_SEED={base:#x}); each is named above",
        diverged + panics + unfired
    );
    assert!(delta_installs > 0, "the soak never installed a delta");
}

/// A checkpoint waits for its outbox. With half of all `DiffAck`s dropped a
/// flushed diff sits unacknowledged — or, behind another, unsent — in its
/// writer's volatile outbox for a retry period at a time; a checkpoint taken
/// meanwhile records the interval as done, and a crash on the very next
/// operation loses diffs replay will not make again: every node then agrees
/// on a wrong result. The crash points are each step's first `acquire`, the
/// operation right after a safe point (2 allocations, then 53 operations a
/// step); the last case is the soak's own repro of the bug.
#[test]
fn a_crash_right_after_a_checkpoint_loses_no_queued_diff() {
    let clean = run(cfg(), &[], app);
    let lost_acks =
        || FaultPlan::new(0).with_rule(FaultRule::all().of_kind("DiffAck").dropping(0.5));
    let mut cases = Vec::new();
    for victim in 0..NODES {
        for step in 1..6 {
            cases.push((cfg().with_chaos(lost_acks()), victim, 3 + 53 * step));
        }
    }
    let soak_repro = cfg()
        .with_seed(0x419c2cdd428202f4)
        .with_chaos(FaultPlan::lossy(0));
    cases.push((soak_repro, 0, 215));
    let mut ckpts = 0;
    for (case_cfg, victim, at_op) in cases {
        let crashed = run(
            case_cfg,
            &[FailureSpec {
                node: victim,
                at_op,
            }],
            app,
        );
        assert_eq!(
            (&clean.results, clean.shared_hash),
            (&crashed.results, crashed.shared_hash),
            "victim {victim} at_op {at_op}"
        );
        assert_eq!(crashed.nodes[victim].ft.recoveries, 1, "victim {victim}");
        ckpts += crashed.nodes[victim].ft.ckpts_taken;
    }
    assert!(ckpts > 0, "no victim ever checkpointed");
}

/// One fetch path under loss. With half of all `PageReply`s dropped — then
/// half of all `PageReq`s — a fault keeps waiting on its page's entry and
/// each retry period sends the request that covers it again, under the same
/// id: there is no second way to ask. The soak kernel must finish
/// bit-identical to the reliable run.
#[test]
fn a_lost_fetch_is_asked_again_under_its_id_until_the_page_lands() {
    let seed = seed_from_env();
    let clean = run(cfg().with_seed(seed), &[], app);
    for kind in ["PageReply", "PageReq"] {
        let plan = FaultPlan::new(0).with_rule(FaultRule::all().of_kind(kind).dropping(0.5));
        let lossy = run(cfg().with_seed(seed).with_chaos(plan), &[], app);
        assert_eq!(
            (&clean.results, clean.shared_hash),
            (&lossy.results, lossy.shared_hash),
            "run diverged with {kind} dropped (FTDSM_SEED={seed:#x})"
        );
        assert!(
            lossy.total_traffic().chaos_dropped > 0 && lossy.total().retransmits > 0,
            "no dropped {kind} was ever retransmitted (FTDSM_SEED={seed:#x})"
        );
    }
}

/// A partition that heals: the minority side must be suspected (possibly
/// even declared down) and then rescinded or re-admitted, and the run must
/// still finish with correct results.
#[test]
fn partition_then_heal_converges() {
    let seed = seed_from_env();
    let plan = FaultPlan::new(0).with_rule(FaultRule::all().dropping(0.02).delaying(
        0.05,
        Duration::from_micros(100),
        Duration::from_millis(1),
    ));
    let clean = run(cfg().with_seed(seed), &[], app);
    let chaotic = run(cfg().with_seed(seed).with_chaos(plan), &[], app);
    assert_eq!(
        clean.results, chaotic.results,
        "lossy run diverged (FTDSM_SEED={seed:#x})"
    );
    assert_eq!(
        clean.shared_hash, chaotic.shared_hash,
        "lossy run memory diverged (FTDSM_SEED={seed:#x})"
    );
}
