//! Chaos-fabric and restart integration tests: the cluster must produce
//! byte-identical results on a lossy, reordering, duplicating network, and
//! every survivor must learn of a restart from the restarted node's
//! recovery handshake alone (no orchestrator hint).
//!
//! Every run is driven by one seed. Failures echo it; reproduce with
//! `FTDSM_SEED=<seed> cargo test --test chaos <name>`.

use std::time::Duration;

use dsm_trace::EventKind;
use ftdsm_suite::apps::{water_nsq, WaterNsqParams};
use ftdsm_suite::{
    run, seed_from_env, CkptPolicy, ClusterConfig, DiskMode, DiskModel, FailureSpec, FaultPlan,
    FaultRule, HomeAlloc, Process, TraceConfig,
};

const NODES: usize = 4;

fn cfg() -> ClusterConfig {
    // The whole chaos suite runs under the online invariant monitor: any
    // protocol-invariant violation (stale diff apply, split lock tenure,
    // barrier disagreement, recovery phases out of order) panics the run
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

/// The acceptance bar: a fixed-seed lossy fabric (drops, delays, duplicates,
/// reorders — no crash) must leave a SPLASH FT kernel byte-identical to the
/// reliable run, and no node may report a restart that did not happen.
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
    assert_eq!(
        chaotic.total().counts.restarts_seen,
        0,
        "a restart reported with no crash (FTDSM_SEED={seed:#x})"
    );
}

/// Under a duplicate+reorder-only plan (nothing is ever lost, but every
/// frame may arrive twice and out of order) the link drops the duplicates
/// and restores the order, and every install/apply path — page install,
/// diff batch, lock grant, barrier release — converges to the reliable
/// run's memory image. Swept across seeds derived from the run seed.
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
        dups_seen += chaotic.total_traffic().link_dups_dropped;
    }
    assert!(
        dups_seen > 0,
        "the link dropped no duplicate across the sweep (FTDSM_SEED={base:#x})"
    );
}

/// One restart signal: a node crashes and restarts on a reliable fabric with
/// no orchestrator announcement; every survivor must learn of the restart
/// from its recovery handshake, exactly once, and the recovered node must
/// finish with the reliable run's exact results.
#[test]
fn a_restart_is_announced_by_the_handshake_alone() {
    let seed = seed_from_env();
    let clean = run(cfg().with_seed(seed), &[], app);
    let mut s = seed;
    for case in 0..3 {
        let victim = (splitmix(&mut s) % NODES as u64) as usize;
        let at_op = crash_op(&mut s, clean.nodes[victim].ops);
        let crashed = run(
            cfg().with_seed(seed),
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
        assert_eq!(
            crashed.total().counts.restarts_seen,
            NODES as u64 - 1,
            "case {case}: not every survivor saw the restart once (victim {victim}, \
             op {at_op}, FTDSM_SEED={seed:#x})"
        );
    }
}

/// Crash during chaos: loss + delay + a real fail-stop crash, the restart
/// announced by the recovery handshake and the losses repaired by the
/// link. Iteration count is
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
    let (mut diverged, mut panics, mut unfired, mut miscounted) = (0u64, 0u64, 0u64, 0u64);
    let (mut delta_installs, mut installs, mut dup_suppressed) = (0u64, 0u64, 0u64);
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
            Ok(r) if r.total().counts.restarts_seen != NODES as u64 - 1 => {
                miscounted += 1;
                "survivors did not see the restart once each"
            }
            Ok(r) => {
                delta_installs += r.total().counts.fetch_delta_pages;
                installs += r.total_hists().fetch_copy.count();
                dup_suppressed += r.total().counts.dup_suppressed;
                continue;
            }
        };
        eprintln!("case {case}: {failure} (FTDSM_SEED={seed:#x} victim={victim} at_op={at_op})");
    }
    eprintln!(
        "CENSUS base={base:#x} iters={iters} diverged={diverged} panics={panics} \
         unfired={unfired} miscounted={miscounted} delta_installs={delta_installs} \
         installs={installs} dup_suppressed={dup_suppressed}"
    );
    assert_eq!(
        (diverged, panics, unfired, miscounted),
        (0, 0, 0, 0),
        "{} of {iters} cases failed (FTDSM_SEED={base:#x}); each is named above",
        diverged + panics + unfired + miscounted
    );
    assert!(delta_installs > 0, "the soak never installed a delta");
}

/// A checkpoint records a flushed interval as sent, and a crash on the
/// very next operation must not lose its diffs: replay from that checkpoint
/// will not make them again, and every node would then agree on a wrong
/// result. With half of all `DiffBatch` frames dropped, a flushed diff is
/// still on its way — in its writer's link, due for a resend — when the
/// writer checkpoints and crashes; the link delivers it all the same. The
/// crash points are each step's first `acquire`, the operation right after
/// a safe point (2 allocations, then 53 operations a step); the last case
/// is an old soak's repro of the bug.
#[test]
fn a_crash_right_after_a_checkpoint_loses_no_queued_diff() {
    let clean = run(cfg(), &[], app);
    let lost_batches =
        || FaultPlan::new(0).with_rule(FaultRule::all().of_kind("DiffBatch").dropping(0.5));
    let mut cases = Vec::new();
    for victim in 0..NODES {
        for step in 1..6 {
            cases.push((cfg().with_chaos(lost_batches()), victim, 3 + 53 * step));
        }
    }
    let soak_repro = cfg()
        .with_seed(0x419c2cdd428202f4)
        .with_chaos(FaultPlan::lossy(0));
    cases.push((soak_repro, 0, 215));
    let (mut ckpts, mut resent) = (0, 0);
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
        resent += crashed.nodes[victim].traffic.link_resent;
    }
    assert!(ckpts > 0, "no victim ever checkpointed");
    assert!(resent > 0, "no victim's link ever resent a frame");
}

/// A release's diffs are held until the writer's next message, and a crash
/// forgets them with their interval, which no one has learned of: the
/// restart runs it again live, or replays it where some message of the
/// writer's told of it — and that message sent the diffs first. Node 1
/// alone takes lock 4, which node 0 manages: no request is due at its
/// release. Its tenure bumps a counter on node 2's page and writes a word
/// of node 0's, and it then reads and writes its own words, which sends
/// nothing, before the barrier. Each case crashes node 1 at the first
/// of those reads in one step, on a reliable or a lossy fabric. A census:
/// every case runs to the end, each failing one is named, the `CENSUS` line
/// counts them, and any failure fails the test.
#[test]
fn a_crash_between_a_release_and_its_arrival_loses_only_unsent_diffs() {
    // Operations before step 0 (two allocations), in a step of node 1's,
    // and up to its release (acquire, read, two writes, release).
    const START: u64 = 2;
    const STEP: u64 = 54;
    const TENURE: u64 = 5;
    fn app(p: &mut Process) -> u64 {
        let n = p.nodes();
        let data = p.alloc_vec::<u64>(96, HomeAlloc::Interleaved);
        let counter = p.alloc_vec::<u64>(1, HomeAlloc::Node(2));
        let mut state = 0u64;
        p.run_steps(&mut state, 6, |p, state, step| {
            let me = p.me();
            if me == 1 {
                p.acquire(4);
                let v = counter.get(p, 0);
                counter.set(p, 0, v + 1);
                data.set(p, me, step + 1);
                p.release(4);
            }
            for i in (me..96).step_by(n) {
                let v = data.get(p, i);
                data.set(p, i, v.wrapping_mul(31).wrapping_add(step + i as u64));
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
    let base = seed_from_env();
    let clean = run(cfg().with_seed(base), &[], app);
    let mut s = base;
    let (mut diverged, mut panics, mut unfired) = (0u64, 0u64, 0u64);
    for step in 0..6 {
        let at_op = START + STEP * step + TENURE + 1;
        for lossy in [false, true] {
            let seed = splitmix(&mut s);
            let mut case_cfg = cfg().with_seed(seed);
            if lossy {
                case_cfg = case_cfg.with_chaos(FaultPlan::lossy(0));
            }
            let crashed =
                std::panic::catch_unwind(|| run(case_cfg, &[FailureSpec { node: 1, at_op }], app));
            let failure = match &crashed {
                Err(_) => {
                    panics += 1;
                    "panicked"
                }
                Ok(r) if r.results != clean.results || r.shared_hash != clean.shared_hash => {
                    diverged += 1;
                    "results diverge"
                }
                Ok(r) if r.nodes[1].ft.recoveries != 1 => {
                    unfired += 1;
                    "crash did not fire"
                }
                Ok(_) => continue,
            };
            eprintln!("step {step}: {failure} (FTDSM_SEED={seed:#x} lossy={lossy} at_op={at_op})");
        }
    }
    eprintln!("CENSUS base={base:#x} diverged={diverged} panics={panics} unfired={unfired}");
    assert_eq!(
        (diverged, panics, unfired),
        (0, 0, 0),
        "FTDSM_SEED={base:#x}: each failing case is named above"
    );
}

/// A home that crashes around a release carrying the manager's diffs for
/// its pages loses them with everything volatile, and rebuilds them from
/// the manager's log. Node 0 writes a word of node 1's page before every
/// barrier, so each release to node 1 carries that diff; right after
/// crossing, every node reads the word and node 1 copies it to a page of
/// its own. Each case crashes node 1 either at that read — the first
/// operation after a carrying release — or at its barrier, with the diffs
/// still held for the release the manager has yet to build (a crash fires
/// only between operations, so never with a node's own release in its
/// queue: its wait takes it before the barrier returns), on a reliable or
/// a lossy fabric. A census: every case runs to the end, each failing one
/// is named, and any failure fails the test.
#[test]
fn a_home_crash_around_a_carrying_release_recovers_bit_identical() {
    // Node 1's operations: the two allocations, then per step its barrier,
    // the read after it and its own write.
    const START: u64 = 2;
    const STEP: u64 = 3;
    const STEPS: u64 = 6;
    fn app(p: &mut Process) -> u64 {
        let data = p.alloc_vec::<u64>(64, HomeAlloc::Node(1));
        let copies = p.alloc_vec::<u64>(64, HomeAlloc::Node(1));
        let mut state = 0u64;
        p.run_steps(&mut state, STEPS, |p, state, step| {
            // A word a step: a reader fetching late may get the page with
            // the next step's word in it, and reads only this one.
            let word = step as usize;
            if p.me() == 0 {
                data.set(p, word, state.wrapping_mul(31).wrapping_add(step + 1));
            }
            p.barrier();
            let v = data.get(p, word);
            if p.me() == 1 {
                copies.set(p, step as usize, v);
            }
            *state = state.wrapping_add(v);
        });
        p.barrier();
        let words = (0..64).map(|i| data.get(p, i) ^ copies.get(p, i).rotate_left(3));
        words.fold(state, |acc, w| acc.rotate_left(7) ^ w)
    }
    let base = seed_from_env();
    let clean = run(cfg().with_seed(base), &[], app);
    let carried = clean.nodes[0].counts.diff_batches_carried;
    assert!(
        carried >= STEPS,
        "{carried} carrying releases in {STEPS} steps"
    );
    let mut s = base;
    let (mut diverged, mut panics, mut unfired) = (0u64, 0u64, 0u64);
    for step in 0..STEPS {
        for (case, at_op) in [("barrier", 1), ("read after", 2)] {
            let at_op = START + STEP * step + at_op;
            for lossy in [false, true] {
                let seed = splitmix(&mut s);
                let mut case_cfg = cfg().with_seed(seed);
                if lossy {
                    case_cfg = case_cfg.with_chaos(FaultPlan::lossy(0));
                }
                let crashed = std::panic::catch_unwind(|| {
                    run(case_cfg, &[FailureSpec { node: 1, at_op }], app)
                });
                let failure = match &crashed {
                    Err(_) => {
                        panics += 1;
                        "panicked"
                    }
                    Ok(r) if r.results != clean.results || r.shared_hash != clean.shared_hash => {
                        diverged += 1;
                        "results diverge"
                    }
                    Ok(r) if r.nodes[1].ft.recoveries != 1 => {
                        unfired += 1;
                        "crash did not fire"
                    }
                    Ok(_) => continue,
                };
                eprintln!(
                    "step {step}, {case}: {failure} (FTDSM_SEED={seed:#x} lossy={lossy} at_op={at_op})"
                );
            }
        }
    }
    eprintln!("CENSUS base={base:#x} diverged={diverged} panics={panics} unfired={unfired}");
    assert_eq!(
        (diverged, panics, unfired),
        (0, 0, 0),
        "FTDSM_SEED={base:#x}: each failing case is named above"
    );
}

/// A checkpoint is stable only once the disk is done with it. Every step
/// from step 1 on checkpoints, on a disk that stays busy 100 ms a write, so
/// each step's barrier waits for its write; the crash is at the first
/// operation after step 4's safe point, with checkpoint 4 still in flight.
/// Its segments never reach the store, the restart reads checkpoint 3, and
/// the run ends as the crash-free one did, bit for bit.
#[test]
fn a_crash_while_a_checkpoint_is_written_restarts_from_the_one_before() {
    let busy = DiskModel {
        latency: Duration::from_millis(100),
        ..DiskModel::scsi_1999(1.0, DiskMode::Stall)
    };
    let cfg = || {
        cfg()
            .with_policy(CkptPolicy::EverySteps(1))
            .with_disk(busy)
            .with_trace(TraceConfig::enabled())
    };
    let clean = run(cfg(), &[], app);
    assert!(
        clean
            .nodes
            .iter()
            .all(|x| x.breakdown.disk_write > Duration::ZERO),
        "a barrier found the disk busy and did not wait"
    );
    for victim in [0, 2] {
        // Two allocations, then 53 operations a step: step 4's acquire.
        let crash = FailureSpec {
            node: victim,
            at_op: 3 + 53 * 4,
        };
        let crashed = run(cfg(), &[crash], app);
        assert_eq!(
            (&clean.results, clean.shared_hash),
            (&crashed.results, crashed.shared_hash),
            "victim {victim}"
        );
        let ft = &crashed.nodes[victim].ft;
        assert_eq!(ft.recoveries, 1, "victim {victim}");
        // Every published checkpoint wrote its two segments; the one in
        // flight wrote none.
        assert_eq!(ft.store.writes, 2 * ft.ckpts_taken, "victim {victim}");
        let events = crashed.trace.node_events(victim);
        let crash_at = (events.iter())
            .position(|e| matches!(e.kind, EventKind::CrashInjected { .. }))
            .expect("the crash fired");
        let seqs = |range: &[dsm_trace::Event], end: bool| -> Vec<u64> {
            let seqs = range.iter().filter_map(|e| match e.kind {
                EventKind::CkptBegin { seq, .. } if !end => Some(seq),
                EventKind::CkptEnd { seq, .. } if end => Some(seq),
                _ => None,
            });
            seqs.collect()
        };
        let (before, after) = events.split_at(crash_at);
        assert_eq!(seqs(before, false), [1, 2, 3, 4], "victim {victim}");
        assert_eq!(seqs(before, true), [1, 2, 3], "victim {victim}");
        // Restarted from checkpoint 3: the next capture is number 4 again.
        assert_eq!(seqs(after, false).first(), Some(&4), "victim {victim}");
    }
}

/// A saved log entry lives on stable storage only. Every node checkpoints
/// at every step, so by step 4 each survivor's notices and diffs from the
/// earlier steps have left its memory; the victim crashes mid-step 4 and
/// its recovery handshake and replayed pages are served from the
/// survivors' stores. The run ends as the crash-free one did, bit for bit.
#[test]
fn a_survivor_serves_a_restarted_peer_from_its_stable_log() {
    let cfg = || cfg().with_policy(CkptPolicy::EverySteps(1));
    let clean = run(cfg(), &[], app);
    for victim in 0..NODES {
        // Two allocations, then 53 operations a step: mid-step 4.
        let crash = FailureSpec {
            node: victim,
            at_op: 3 + 53 * 4 + 30,
        };
        let crashed = run(cfg(), &[crash], app);
        assert_eq!(
            (&clean.results, clean.shared_hash),
            (&crashed.results, crashed.shared_hash),
            "victim {victim}"
        );
        assert_eq!(crashed.nodes[victim].ft.recoveries, 1, "victim {victim}");
        let survivors = (crashed.nodes.iter().enumerate()).filter(|&(j, _)| j != victim);
        let read: u64 = survivors.map(|(_, x)| x.ft.log_entries_read).sum();
        assert!(read > 0, "victim {victim}: no survivor read its stable log");
    }
}

/// One fetch path under loss. With half of all `PageReply`s dropped — then
/// half of all `PageReq`s — a fault keeps waiting on its page's entry while
/// the link sends the lost frame again: the protocol asks once. The soak
/// kernel must finish bit-identical to the reliable run.
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
            lossy.total_traffic().chaos_dropped > 0 && lossy.total_traffic().link_resent > 0,
            "no dropped {kind} was ever resent (FTDSM_SEED={seed:#x})"
        );
    }
}

/// Light loss and delay (2 % of frames dropped, 5 % delayed by up to
/// 1 ms): the link alone must bring the run to the reliable run's results.
#[test]
fn light_loss_and_delay_converge() {
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

/// The manager's application thread takes the barrier arrivals; once it
/// has returned, its reply lane is the service thread's. Node 0 homes both
/// slots, so after the one barrier it reads them without a wait, returns
/// and ends. The release to node 1 is lost (seed 1 draws a drop, then a
/// delivery, from node 0's stream), and node 0's link sends it again after
/// node 0's application thread has returned: the frame needs no thread of
/// the sender's, and node 1 crosses the barrier as in the clean run.
#[test]
fn a_re_arrival_after_the_managers_last_barrier_is_answered_by_its_service_thread() {
    const SEED: u64 = 1;
    fn app(p: &mut Process) -> u64 {
        let slots = p.alloc_vec::<u64>(2, HomeAlloc::Node(0));
        let me = p.me();
        slots.set(p, me, 7 + me as u64);
        p.barrier();
        100 * slots.get(p, 0) + slots.get(p, 1)
    }
    let cfg = || ClusterConfig { nodes: 2, ..cfg() }.with_seed(SEED);
    let release = FaultRule::all()
        .from_src(0)
        .to_dst(1)
        .of_kind("BarrierRelease");
    let plan = FaultPlan::new(0).with_rule(release.dropping(0.5));
    let clean = run(cfg(), &[], app);
    let lossy = run(cfg().with_chaos(plan), &[], app);
    assert_eq!(clean.results, [708, 708]);
    assert_eq!(
        (&clean.results, clean.shared_hash),
        (&lossy.results, lossy.shared_hash)
    );
    let (dropped, resent) = (
        lossy.total_traffic().chaos_dropped,
        lossy.total_traffic().link_resent,
    );
    assert!(
        dropped > 0 && resent > 0,
        "dropped {dropped}, resent {resent}"
    );
}

/// The recovery handshake and the replayed pages' requests and replies ride
/// the link like every other kind: with half of all `Rec*` frames dropped,
/// a crashed node still recovers to the clean run's results, bit for bit.
#[test]
fn recovery_frames_dropped_at_half_still_recover_bit_identical() {
    let seed = seed_from_env();
    let clean = run(cfg().with_seed(seed), &[], app);
    let plan = ["RecLogReq", "RecLogReply", "RecPageReq", "RecPageReply"]
        .into_iter()
        .fold(FaultPlan::new(0), |plan, kind| {
            plan.with_rule(FaultRule::all().of_kind(kind).dropping(0.5))
        });
    let mut s = seed;
    let victim = (splitmix(&mut s) % NODES as u64) as usize;
    let at_op = crash_op(&mut s, clean.nodes[victim].ops);
    let crashed = run(
        cfg().with_seed(seed).with_chaos(plan),
        &[FailureSpec {
            node: victim,
            at_op,
        }],
        app,
    );
    let case = format!("victim {victim}, op {at_op}, FTDSM_SEED={seed:#x}");
    assert_eq!(
        (&clean.results, clean.shared_hash),
        (&crashed.results, crashed.shared_hash),
        "{case}"
    );
    assert_eq!(crashed.nodes[victim].ft.recoveries, 1, "{case}");
    let t = crashed.total_traffic();
    assert!(t.chaos_dropped > 0 && t.link_resent > 0, "{case}: {t:?}");
}
