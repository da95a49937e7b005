//! Workspace-level integration: the full stack (net + page + storage +
//! protocol + FT + workloads) exercised through the umbrella crate.

use std::time::Duration;

use ftdsm_suite::apps::{
    barnes, jacobi, water_nsq, water_sp, BarnesParams, JacobiParams, WaterNsqParams, WaterSpParams,
};
use ftdsm_suite::{run, CkptPolicy, ClusterConfig, FailureSpec, HomeAlloc, NodeReport, ReqCause};

#[test]
fn all_workloads_agree_across_cluster_sizes() {
    // Each workload must produce node-identical checksums for any cluster
    // size (the checksum itself may differ between sizes because work
    // partitioning changes float accumulation order per node).
    for n in [2, 3, 5] {
        let cfg = ClusterConfig::base(n).with_page_size(1024);
        let r = run(cfg, &[], |p| {
            (
                barnes(p, &BarnesParams::tiny()),
                water_nsq(p, &WaterNsqParams::tiny()),
                water_sp(p, &WaterSpParams::tiny()),
                jacobi(p, &JacobiParams { side: 24, steps: 4 }),
            )
        });
        let first = r.results[0];
        assert!(
            r.results.iter().all(|c| *c == first),
            "{n}-node cluster disagrees: {:?}",
            r.results
        );
    }
}

#[test]
fn page_size_does_not_change_results() {
    let run_with = |page: usize| {
        let cfg = ClusterConfig::base(4).with_page_size(page);
        run(cfg, &[], |p| water_sp(p, &WaterSpParams::tiny())).results[0]
    };
    let a = run_with(256);
    let b = run_with(1024);
    let c = run_with(4096);
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn ft_with_small_pages_recovers_barnes() {
    let cfg = || {
        ClusterConfig::fault_tolerant(4)
            .with_page_size(512)
            .with_policy(CkptPolicy::EverySteps(2))
    };
    let clean = run(cfg(), &[], |p| barnes(p, &BarnesParams::tiny()));
    let crashed = run(
        cfg(),
        &[FailureSpec {
            node: 1,
            at_op: 600,
        }],
        |p| barnes(p, &BarnesParams::tiny()),
    );
    assert_eq!(clean.results, crashed.results);
    assert_eq!(clean.shared_hash, crashed.shared_hash);
    assert_eq!(crashed.nodes[1].ft.recoveries, 1);
}

#[test]
fn mixed_kernel_with_many_locks_and_crash() {
    // A kernel contending on several locks managed by different nodes, with
    // a crash of one lock manager.
    let app = |p: &mut ftdsm_suite::Process| {
        let n = p.nodes();
        let cells = p.alloc_vec::<u64>(16, HomeAlloc::Interleaved);
        let mut state = 0u64;
        p.run_steps(&mut state, 10, |p, state, step| {
            for lock in 0..4usize {
                p.acquire(lock);
                let idx = lock * 4 + (step as usize % 4);
                let v = cells.get(p, idx);
                cells.set(p, idx, v + p.me() as u64 + 1);
                p.release(lock);
            }
            *state += step;
            p.barrier();
        });
        p.barrier();
        (0..16).map(|i| cells.get(p, i)).sum::<u64>() + state * n as u64
    };
    let cfg = || {
        ClusterConfig::fault_tolerant(4)
            .with_page_size(256)
            .with_policy(CkptPolicy::EverySteps(3))
    };
    let clean = run(cfg(), &[], app);
    // The lock grants' write notices must have exercised the batched
    // prefetch path, or this test no longer covers it.
    assert!(
        clean.total_hists().fetch_batch_pages.count() > 0,
        "no prefetch batches were issued"
    );
    for victim in 0..4 {
        let crashed = run(
            cfg(),
            &[FailureSpec {
                node: victim,
                at_op: 150,
            }],
            app,
        );
        assert_eq!(clean.results, crashed.results, "victim {victim}");
        assert_eq!(clean.shared_hash, crashed.shared_hash, "victim {victim}");
        assert_eq!(crashed.nodes[victim].ft.recoveries, 1, "victim {victim}");
    }
}

/// A home crashes while batched prefetches are in flight: every barrier
/// invalidates each reader's copies of every writer's pages, so the nodes
/// issue many-page `PageReq` bursts continuously. Crashing a home at various
/// points lands crashes between a request and its reply; the requesters
/// must resend when the home's recovery handshake reaches them, and
/// recovery replay must still converge bit-identically.
#[test]
fn home_crash_with_prefetch_batches_in_flight() {
    let app = |p: &mut ftdsm_suite::Process| {
        let n = p.nodes();
        let words = 32; // one 256 B page per stripe entry
        let pages = 4 * n;
        let data = p.alloc_vec::<u64>(pages * words, HomeAlloc::Interleaved);
        let mut state = 0u64;
        p.run_steps(&mut state, 8, |p, state, step| {
            let me = p.me();
            // Dirty our stripe (pages homed on every node, ours included).
            for pg in (me..pages).step_by(n) {
                let v = data.get(p, pg * words + me);
                data.set(p, pg * words + me, v + step + 1);
            }
            p.barrier();
            // Read every page: all remote copies were just invalidated, so
            // the post-barrier prefetch covers them in one batch per home.
            let mut acc = 0u64;
            for pg in 0..pages {
                for w in 0..n {
                    acc = acc.wrapping_add(data.get(p, pg * words + w));
                }
            }
            *state = state.wrapping_add(acc);
            p.barrier();
        });
        state
    };
    let cfg = || {
        ClusterConfig::fault_tolerant(4)
            .with_page_size(256)
            .with_policy(CkptPolicy::EverySteps(2))
    };
    let clean = run(cfg(), &[], app);
    let h = clean.total_hists();
    assert!(
        h.fetch_batch_pages.count() > 0,
        "no prefetch batches issued"
    );
    assert!(h.prefetch_hit.count() > 0, "no read ever hit a prefetch");
    for (victim, at_op) in [(0, 120), (1, 200), (2, 333), (3, 451)] {
        let crashed = run(
            cfg(),
            &[FailureSpec {
                node: victim,
                at_op,
            }],
            app,
        );
        assert_eq!(clean.results, crashed.results, "victim {victim}");
        assert_eq!(clean.shared_hash, crashed.shared_hash, "victim {victim}");
        assert_eq!(crashed.nodes[victim].ft.recoveries, 1, "victim {victim}");
    }
}

/// The migratory pattern the delta refetch exists for: a small cell under a
/// lock, read-modify-written by both nodes in turn. After the cold fetch a
/// round moves the words that changed, not the 4 KiB page they live in.
#[test]
fn a_migratory_cell_refetch_moves_what_changed_not_the_page() {
    use dsm_trace::EventKind;
    const ROUNDS: u64 = 40;
    let cfg = ClusterConfig::base(2)
        .with_page_size(4096)
        .with_trace(ftdsm_suite::TraceConfig::enabled());
    let r = run(cfg, &[], |p| {
        let cell = p.alloc_vec::<u64>(8, HomeAlloc::Node(0));
        for _ in 0..ROUNDS {
            // Turns, by barrier: node 1 never fetches while node 0 — the
            // cell's home — is inside its own tenure, when the copy it would
            // be served is not one a delta can build on.
            for turn in 0..2 {
                if p.me() == turn {
                    p.acquire(1);
                    for w in 0..8 {
                        let v = cell.get(p, w);
                        cell.set(p, w, v + turn as u64 + 1);
                    }
                    p.release(1);
                }
                p.barrier();
            }
        }
        (0..8).map(|w| cell.get(p, w)).sum::<u64>()
    });
    assert_eq!(r.results, [8 * 3 * ROUNDS; 2]);
    let reply_bytes: u64 = (r.trace.all_events().iter())
        .filter_map(|e| match e.kind {
            EventKind::MsgSend { kind, bytes, .. } if kind.starts_with("Page") => {
                kind.ends_with("Reply").then_some(bytes as u64)
            }
            _ => None,
        })
        .sum();
    // Node 1 fetches the cell once a round: the page the first time, node
    // 0's eight words from then on.
    assert_eq!(r.total_hists().fetch_copy.count(), ROUNDS);
    assert_eq!(
        (
            r.total().counts.fetch_delta_pages,
            r.total().counts.fetch_delta_bytes
        ),
        (ROUNDS - 1, (ROUNDS - 1) * 64)
    );
    let first = 4096 + 128;
    assert!(
        reply_bytes < first + 1024 * (ROUNDS - 1),
        "{reply_bytes} bytes of page replies in {ROUNDS} rounds"
    );
}

/// The prefetch rule end to end: node 1 reads 40 pages node 0 rewrites every
/// round, stops reading them, then sweeps them again, then comes back for
/// one page.
#[test]
fn prefetch_follows_use_and_a_late_sweep_costs_a_request_per_sixteen_pages() {
    const PAGES: usize = 40;
    let r = run(ClusterConfig::base(2).with_page_size(256), &[], |p| {
        let cells = p.alloc_vec::<u64>(PAGES * 32, HomeAlloc::Node(0));
        let mut sum = 0;
        for round in 0..6u64 {
            if p.me() == 0 {
                let written = if round < 4 { 0..PAGES } else { 5..6 };
                for page in written {
                    cells.set(p, page * 32, round + 1);
                }
            }
            p.barrier();
            if p.me() == 1 {
                let read = match round {
                    0 | 3 => 0..PAGES,
                    5 => 5..6,
                    _ => 0..0,
                };
                sum += read.map(|page| cells.get(p, page * 32)).sum::<u64>();
            }
            p.barrier();
        }
        sum
    });
    assert_eq!(r.results[1], (1 + 4) * PAGES as u64 + 6);
    let sent = |kind| {
        let kinds = r.total_msg_kinds();
        kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, c)| c)
    };
    // Round 0: never held, so nothing is asked for; the reads' misses on
    // pages 0, 16 and 32 each bring the noticed pages after them, and the
    // next arrival reports the 40 copies used. 1: every copy was read, so
    // the release that invalidates them carries them, and nothing is asked
    // for. 2: none of those was, but the wants outlive one unread push: the
    // release carries all 40 again, built on the copies it carried before,
    // and that was their last push. 3: nothing is carried, the copies were
    // not read, and the sweep misses as round 0 did. 4: page 5 was read in
    // the sweep and rides the release alone. 5: that copy was not, and it
    // rides the release once more, to be read: no request.
    assert_eq!((sent("PageReq"), sent("PageReply")), (6, 6));
    let t = r.total();
    assert_eq!(
        (
            t.counts.pages_pushed,
            t.counts.pushed_used,
            t.counts.pushes_refused
        ),
        (40 + 40 + 1 + 1, 1, 0)
    );
    // Round 0's misses are on pages never held, round 3's on copies pushed
    // in round 2 and never read; all to node 0.
    let causes = t.req_causes;
    assert_eq!(causes.get(ReqCause::MissNeverHeld), (3, 0));
    assert_eq!(causes.get(ReqCause::MissPushedUnread), (3, 0));
    assert_eq!(causes.total(), sent("PageReq"));
    // Those two are every kind a fetch has.
    let kinds = r.total_msg_kinds();
    let of_fetches = kinds.iter().filter(|(k, _)| k.starts_with("Page"));
    assert_eq!(of_fetches.count(), 2);
    // Skipped: the never-held pages in round 0 and the unread pushed
    // copies in round 3; the releases of rounds 2 and 5 leave nothing
    // invalid to skip.
    let total = r.total().counts;
    let counts = ftdsm_suite::Counts {
        prefetched: 37 + 37,
        prefetched_used: 37 + 37,
        prefetch_skipped: 40 + 40,
        skipped_then_missed: 3 + 3,
        ..total
    };
    assert_eq!(total, counts);
    let c = &r.nodes[0].counts;
    let prefetch = [
        c.prefetched,
        c.prefetched_used,
        c.prefetch_skipped,
        c.skipped_then_missed,
    ];
    assert_eq!(prefetch, [0; 4]);
    // A fault on a left-out page is a miss, with neighbours or without: as
    // many as the filter guessed wrong. No read finds its page in flight:
    // each miss's reply brings its whole run before the next read.
    let h = r.total_hists();
    assert_eq!((h.prefetch_hit.count(), h.prefetch_miss.count()), (0, 6));
    assert_eq!(h.prefetch_miss.count(), counts.skipped_then_missed);
    assert_eq!(h.fetch_batch_pages.count(), sent("PageReq"));
}

/// A lock only its manager ever takes is self-granted every time, which
/// leaves no grant record on any peer. When the node crashes right after
/// such a tenure, the one witness that its interval was flushed is the
/// remote home that applied the diff; recovery must take its word and
/// replay the tenure. Going live before it runs the interval a second time:
/// the home drops the second diff by version and the node keeps a count the
/// home does not have.
#[test]
fn a_self_granted_tenure_only_a_remote_home_saw_is_replayed_not_rerun() {
    let app = |p: &mut ftdsm_suite::Process| {
        let cell = p.alloc_vec::<u64>(1, HomeAlloc::Node(0));
        let mut state = 0u64;
        p.run_steps(&mut state, 6, |p, state, step| {
            if p.me() == 1 {
                for _ in 0..3 {
                    p.acquire(1);
                    let v = cell.get(p, 0);
                    cell.set(p, 0, v + 1);
                    p.release(1);
                }
            }
            *state += step;
            p.barrier();
        });
        cell.get(p, 0)
    };
    let cfg = || {
        ClusterConfig::fault_tolerant(2)
            .with_page_size(256)
            .with_policy(CkptPolicy::EverySteps(2))
    };
    let clean = run(cfg(), &[], app);
    assert_eq!(clean.results, [18, 18]);
    // Every operation boundary of node 1 from the first step's tenures on.
    for at_op in 4..clean.nodes[1].ops {
        let crashed = run(cfg(), &[FailureSpec { node: 1, at_op }], app);
        assert_eq!(clean.results, crashed.results, "at_op {at_op}");
        assert_eq!(clean.shared_hash, crashed.shared_hash, "at_op {at_op}");
        assert_eq!(crashed.nodes[1].ft.recoveries, 1, "at_op {at_op}");
    }
}

/// Recovery asks each peer once, and once more a round. The victim homes six
/// of the 24 pages and between its last checkpoint and the crash touches all
/// 18 others: the handshake is one request to each peer however many pages
/// are homed — their diffs ride its reply — and a round of replayed remote
/// pages is one request to each peer, answered by the home of each page with
/// the starting copy and by everyone with their diffs. The handshake names
/// the pages whose homes kept the victim's wants of them, and the first
/// round asks for all of them: node 0's six pages. Every other page is a
/// round of its own — all 18 for node 0, whose wants its homes drop when it
/// refetches a page right after crossing the barrier that relayed them.
/// Nothing else is sent for the recovery.
#[test]
fn recovery_asks_each_peer_once_and_once_more_a_round() {
    const N: usize = 4;
    const PAGES: usize = 24;
    let app = |p: &mut ftdsm_suite::Process| {
        let words = 32; // one 256 B page
        let data = p.alloc_vec::<u64>(PAGES * words, HomeAlloc::Interleaved);
        let mut state = 0u64;
        p.run_steps(&mut state, 6, |p, state, step| {
            let me = p.me();
            for pg in 0..PAGES {
                let v = data.get(p, pg * words + me);
                data.set(p, pg * words + me, v + step + 1);
            }
            p.barrier();
            let all = (0..PAGES * words).map(|w| data.get(p, w));
            *state = state.wrapping_add(all.fold(0, u64::wrapping_add));
            p.barrier();
        });
        state
    };
    let cfg = || {
        ClusterConfig::fault_tolerant(N)
            .with_page_size(256)
            .with_policy(CkptPolicy::EverySteps(2))
    };
    let clean = run(cfg(), &[], app);
    let rec_kinds = |r: &ftdsm_suite::RunReport<u64>, node: usize| -> Vec<(&'static str, u64)> {
        let kinds = r.nodes[node].msg_kinds.iter();
        kinds
            .filter(|(k, _)| k.starts_with("Rec"))
            .copied()
            .collect()
    };
    assert!((0..N).all(|node| rec_kinds(&clean, node).is_empty()));
    for victim in 0..N {
        // Late in the fourth step: a checkpoint and a full sweep behind it.
        let at_op = clean.nodes[victim].ops * 7 / 12;
        let crashed = run(
            cfg(),
            &[FailureSpec {
                node: victim,
                at_op,
            }],
            app,
        );
        assert_eq!(clean.results, crashed.results, "victim {victim}");
        assert_eq!(clean.shared_hash, crashed.shared_hash, "victim {victim}");
        let ft = &crashed.nodes[victim].ft;
        assert_eq!((ft.recoveries, ft.ckpts_taken > 0), (1, true));
        let replayed = ft.replayed_pages;
        assert_eq!(replayed, (PAGES - PAGES / N) as u64, "victim {victim}");
        // One round for node 0's pages, one each for the others; node 0
        // itself asks for every page alone.
        let (batched, alone) = match victim {
            0 => (0, PAGES - PAGES / N),
            _ => (1, PAGES - 2 * PAGES / N),
        };
        let rounds = (batched + alone) as u64;
        assert_eq!(
            (ft.rec_rounds, ft.batched_unused),
            (rounds, 0),
            "victim {victim}"
        );
        let peers = N as u64 - 1;
        for node in 0..N {
            let sent = rec_kinds(&crashed, node);
            if node == victim {
                let asked = [("RecLogReq", peers), ("RecPageReq", peers * rounds)];
                assert_eq!(sent, asked, "victim {victim}");
            } else {
                let answered = [("RecLogReply", 1), ("RecPageReply", rounds)];
                assert_eq!(sent, answered, "victim {victim}, peer {node}");
            }
        }
    }
}

/// A writer's diffs reach a home in the order it made them, whichever
/// message carries them. Every node bumps a lock-protected counter on node
/// 0's page, then writes its own words of that page and node 1's and
/// crosses a barrier. With no request due at its release, the counter's
/// diff is held and leaves with the node's next message: the arrival, in
/// one batch ahead of the barrier interval's, or a fetch. In the second
/// case every tenure lasts a millisecond, so the next requester's request
/// is due at the release, and the counter's diff leaves alone in a
/// `DiffBatch` ahead of the grant, with the arrival's batch behind it. Were
/// that batch applied first, the home's version gate would drop the
/// counter's diff for good. A race, so each cluster runs a few times.
#[test]
fn a_release_flush_is_not_overtaken_by_the_barrier_batch_behind_it() {
    const STEPS: u64 = 8;
    const NODES: usize = 4;
    const WORDS: usize = 128; // two 512 B pages, node 0's and node 1's
    let cfgs = [
        ClusterConfig::base(NODES),
        ClusterConfig::fault_tolerant(NODES).with_policy(CkptPolicy::LogOverflow { l: 0.2 }),
    ];
    // Batches node 1 sent in the second case: its barrier intervals' diffs
    // for node 0 ride its arrivals and its other words are on its own
    // page, so each is a tenure's counter diff that left ahead of another
    // message — the grant due at its release, mostly.
    let mut alone = 0;
    for tenure in [Duration::ZERO, Duration::from_millis(1)] {
        for cfg in cfgs.iter().cycle().take(10) {
            let r = run(cfg.clone().with_page_size(512), &[], move |p| {
                let (n, me) = (p.nodes(), p.me());
                let data = p.alloc_vec::<u64>(WORDS, HomeAlloc::Interleaved);
                for step in 0..STEPS {
                    p.acquire(1);
                    let v = data.get(p, 0);
                    data.set(p, 0, v + 1);
                    std::thread::sleep(tenure);
                    p.release(1);
                    for i in (me..WORDS).step_by(n).filter(|&i| i != 0) {
                        data.set(p, i, step + 1);
                    }
                    p.barrier();
                }
                data.get(p, 0)
            });
            let ft = cfg.ft_enabled();
            let want = [STEPS * NODES as u64; NODES];
            assert_eq!(r.results, want, "ft {ft}, tenure {tenure:?}");
            if !tenure.is_zero() {
                alone += sent(&r.nodes[1], "DiffBatch");
            }
        }
    }
    assert!(alone > 0, "no request was ever due at a release");
}

/// A release's batch is served before any later message of the manager's.
/// Node 0, the manager, writes a word of node 1's page before each barrier,
/// a new one each round, so its release to node 1 carries that diff. Right
/// after crossing, every node takes lock 0 for a millisecond's tenure and
/// bumps a counter on the same page: when a request is due at node 0's
/// release, its counter diff leaves alone in a `DiffBatch` right behind the
/// carrying release. Were that batch applied first, the home's version
/// gate would drop the release's diff for good, and a reader of the word
/// after the barrier would miss it. A race, so each cluster runs a few
/// times.
#[test]
fn a_releases_batch_is_not_overtaken_by_the_managers_next_diff_batch() {
    const ROUNDS: u64 = 6;
    const WORDS: usize = 32; // one 256 B page, node 1's
    let (mut carried, mut alone) = (0, 0);
    for n in [2, 4] {
        let cfgs = [ClusterConfig::base(n), ClusterConfig::fault_tolerant(n)];
        for cfg in cfgs.iter().cycle().take(4) {
            let r = run(cfg.clone().with_page_size(256), &[], |p| {
                let page = p.alloc_vec::<u64>(WORDS, HomeAlloc::Node(1));
                let mut seen = 0;
                for round in 0..ROUNDS {
                    // A word a round: a reader fetching late may get the
                    // page with the next round's word in it.
                    let word = 1 + round as usize;
                    if p.me() == 0 {
                        page.set(p, word, round + 1);
                    }
                    p.barrier();
                    seen += page.get(p, word);
                    p.acquire(0);
                    let v = page.get(p, 0);
                    page.set(p, 0, v + 1);
                    std::thread::sleep(Duration::from_millis(1));
                    p.release(0);
                }
                p.barrier();
                (seen, page.get(p, 0))
            });
            let ft = cfg.ft_enabled();
            let want = (ROUNDS * (ROUNDS + 1) / 2, ROUNDS * n as u64);
            assert_eq!(r.results, vec![want; n], "n = {n}, ft {ft}");
            carried += r.nodes[0].counts.diff_batches_carried;
            alone += sent(&r.nodes[0], "DiffBatch");
        }
    }
    // A request the manager forwards while it waits at the barrier sends
    // the word's diff ahead of the release.
    assert!(
        carried > 0,
        "no release of the manager's ever carried a batch"
    );
    assert!(
        alone > 0,
        "no request was ever due at the manager's release"
    );
}

/// How many messages of `kind` `node` sent.
fn sent(node: &NodeReport, kind: &str) -> u64 {
    let kinds = node.msg_kinds.iter();
    kinds.filter(|(k, _)| *k == kind).map(|&(_, c)| c).sum()
}

/// A release with no request due sends nothing: its diffs leave with the
/// writer's next message. Node 1 alone takes a lock node 0 manages, bumps a
/// counter on node 0's page, releases the lock and crosses a barrier, every
/// round: each release's diff rides the arrival behind it, so no node
/// sends a `DiffBatch` and every arrival of node 1 carries a batch.
#[test]
fn a_release_with_no_request_due_sends_its_diff_on_the_next_arrival() {
    const ROUNDS: u64 = 20;
    for cfg in [ClusterConfig::base(2), ClusterConfig::fault_tolerant(2)] {
        let ft = cfg.ft_enabled();
        let r = run(cfg.with_page_size(256), &[], |p| {
            let cell = p.alloc_vec::<u64>(1, HomeAlloc::Node(0));
            for _ in 0..ROUNDS {
                if p.me() == 1 {
                    p.acquire(0);
                    let v = cell.get(p, 0);
                    cell.set(p, 0, v + 1);
                    p.release(0);
                }
                p.barrier();
            }
            cell.get(p, 0)
        });
        assert_eq!(r.results, [ROUNDS; 2], "ft {ft}");
        let batches = r.nodes.iter().map(|node| sent(node, "DiffBatch"));
        assert_eq!(batches.collect::<Vec<_>>(), [0, 0], "ft {ft}");
        let carried = r.nodes.iter().map(|node| node.counts.diff_batches_carried);
        assert_eq!(carried.collect::<Vec<_>>(), [0, ROUNDS], "ft {ft}");
    }
}

/// A barrier arrival carries the arriver's diffs for the manager's pages,
/// and a release the manager's diffs for its receiver's. Each node writes
/// the pages homed at its right neighbour, then crosses a barrier: node
/// n − 1, the one writer of node 0's pages, sends one message a round where
/// it sent a `DiffBatch` and an arrival; node 0, the one writer of node 1's,
/// sends none alone either, its batch riding its release to node 1; every
/// other writer's batch still goes alone.
#[test]
fn the_writer_of_the_managers_pages_sends_one_message_fewer_a_barrier() {
    const ROUNDS: u64 = 12;
    const WORDS: usize = 32; // one 256 B page
    for n in [2, 4] {
        let r = run(ClusterConfig::base(n).with_page_size(256), &[], |p| {
            let n = p.nodes();
            // Blocked over 2n pages: pages 2k and 2k + 1 are node k's.
            let data = p.alloc_vec::<u64>(2 * n * WORDS, HomeAlloc::Blocked);
            let target = (p.me() + 1) % n;
            for round in 0..ROUNDS {
                for page in 2 * target..2 * target + 2 {
                    data.set(p, page * WORDS + p.me(), round + 1);
                }
                p.barrier();
            }
            (0..2 * n * WORDS).map(|w| data.get(p, w)).sum::<u64>()
        });
        assert_eq!(r.results, vec![2 * n as u64 * ROUNDS; n], "n = {n}");
        for node in 0..n {
            let carried = r.nodes[node].counts.diff_batches_carried;
            let report = &r.nodes[node];
            let (batches, arrivals) = (sent(report, "DiffBatch"), sent(report, "BarrierArrive"));
            if node == 0 || node == n - 1 {
                // The manager's only remote home is node 1, which gets a
                // release every round; node n − 1's is the manager, which
                // gets its arrival: nothing goes alone.
                assert_eq!((batches, carried), (0, ROUNDS), "n = {n}, node {node}");
            } else {
                assert_eq!((batches, carried), (ROUNDS, 0), "n = {n}, node {node}");
            }
            let arrives = if node == 0 { 0 } else { ROUNDS };
            assert_eq!(arrivals, arrives, "n = {n}, node {node}");
        }
        let releases = sent(&r.nodes[0], "BarrierRelease");
        assert_eq!(releases, (n as u64 - 1) * ROUNDS, "n = {n}");
        // n batches a round, two of them inside an arrival and a release.
        assert_eq!(r.total().counts.diff_batches_carried, 2 * ROUNDS);
    }
}

/// A barrier kernel shaped like the benchmark's `page_fetch`: node 0
/// rewrites sixteen pages it homes every round, and every other node reads
/// them back. Each reader fetches them once, in the first round, when it
/// has never held them; from then on the barrier release whose notices
/// invalidate them carries them, and no reader asks again.
#[test]
fn a_reader_of_the_managers_pages_asks_only_in_the_first_round() {
    const ROUNDS: u64 = 10;
    const HOT: usize = 16;
    const WORDS: usize = 32; // one 256 B page
    for n in [2, 4] {
        let r = run(ClusterConfig::base(n).with_page_size(256), &[], |p| {
            let hot = p.alloc_vec::<u64>(HOT * WORDS, HomeAlloc::Node(0));
            let mut sum = 0;
            for round in 0..ROUNDS {
                if p.me() == 0 {
                    for k in 0..HOT {
                        hot.set(p, k * WORDS + 3, round * HOT as u64 + k as u64 + 1);
                    }
                }
                p.barrier();
                sum += (0..HOT).map(|k| hot.get(p, k * WORDS + 3)).sum::<u64>();
                p.barrier();
            }
            sum
        });
        let words = ROUNDS * HOT as u64;
        assert_eq!(r.results, vec![words * (words + 1) / 2; n], "n = {n}");
        let sent = |kind| {
            let kinds = r.total_msg_kinds();
            let found = kinds.iter().find(|(k, _)| *k == kind);
            found.map_or(0, |&(_, c)| c)
        };
        let readers = n as u64 - 1;
        assert_eq!(
            (sent("PageReq"), sent("PageReply")),
            (readers, readers),
            "n = {n}"
        );
        let pushed = readers * HOT as u64 * (ROUNDS - 1);
        let t = r.total();
        let counts = (
            t.counts.pages_pushed,
            t.counts.pushed_used,
            t.counts.pushes_refused,
        );
        assert_eq!(counts, (pushed, pushed, 0), "n = {n}");
        assert_eq!(
            r.nodes[0].counts.pages_pushed, pushed,
            "only the manager pushes"
        );
        assert_eq!(r.total().counts.prefetched, 15 * readers, "n = {n}");
    }
}

/// Barnes's shape on two nodes: node 0 rewrites sixteen pages it homes
/// every epoch, node 1 reads them every other epoch. A want outlives the
/// push nobody read: the release of the epoch node 1 reads in carries the
/// pages again, built on the copies the one before carried, so node 1 asks
/// only in the first round, and every second page pushed is read.
#[test]
fn a_page_read_every_other_epoch_rides_every_release_after_the_first() {
    const ROUNDS: u64 = 11;
    const HOT: usize = 16;
    const WORDS: usize = 32; // one 256 B page
    let r = run(ClusterConfig::base(2).with_page_size(256), &[], |p| {
        let hot = p.alloc_vec::<u64>(HOT * WORDS, HomeAlloc::Node(0));
        let mut sum = 0;
        for round in 0..ROUNDS {
            if p.me() == 0 {
                for k in 0..HOT {
                    hot.set(p, k * WORDS, round + 1);
                }
            }
            p.barrier();
            if p.me() == 1 && round % 2 == 0 {
                sum += (0..HOT).map(|k| hot.get(p, k * WORDS)).sum::<u64>();
            }
            p.barrier();
        }
        sum
    });
    // Rounds 0, 2, …, 10 read: (1 + 3 + … + 11) per page.
    assert_eq!(r.results[1], 36 * HOT as u64);
    let reader = &r.nodes[1];
    let reqs = reader.msg_kinds.iter().find(|(k, _)| *k == "PageReq");
    assert_eq!(reqs.map(|&(_, c)| c), Some(1), "only round 0's miss");
    assert_eq!(reader.req_causes.get(ReqCause::MissNeverHeld), (1, 0));
    assert_eq!(reader.req_causes.total(), 1);
    // Every release from round 1 on carries all sixteen; those of the
    // even rounds are read.
    let t = r.total();
    let pushed = HOT as u64 * (ROUNDS - 1);
    assert_eq!(
        (
            t.counts.pages_pushed,
            t.counts.pushed_used,
            t.counts.pushes_refused
        ),
        (pushed, pushed / 2, 0)
    );
    assert!(2 * t.counts.pushed_used >= t.counts.pages_pushed);
}

/// The push the other way: node 1 rewrites one word of each of eight pages
/// it homes every epoch, and node 0 reads them after the barrier that ends
/// it (a second barrier keeps the next epoch's writes out). Node 0's
/// arrival reports the copies it read, its release relays the report to
/// node 1, and node 1's next arrival carries the pages its notices
/// invalidate at node 0, which node 0 installs when it crosses: node 0
/// asks once, in the first epoch, and reads every word exactly.
#[test]
fn a_homes_arrival_carries_the_pages_node_0_reads_every_epoch() {
    const EPOCHS: u64 = 12;
    const PAGES: usize = 8;
    const WORDS: usize = 32; // one 256 B page
    let r = run(ClusterConfig::base(2).with_page_size(256), &[], |p| {
        let pages = p.alloc_vec::<u64>(PAGES * WORDS, HomeAlloc::Node(1));
        let word = |epoch: u64, k: usize| epoch * PAGES as u64 + k as u64 + 1;
        let mut exact = true;
        for epoch in 0..EPOCHS {
            if p.me() == 1 {
                for k in 0..PAGES {
                    pages.set(p, k * WORDS + 5, word(epoch, k));
                }
            }
            p.barrier();
            if p.me() == 0 {
                for k in 0..PAGES {
                    exact &= pages.get(p, k * WORDS + 5) == word(epoch, k);
                }
            }
            p.barrier();
        }
        exact
    });
    assert_eq!(r.results, [true, true]);
    assert_eq!(
        sent(&r.nodes[0], "PageReq"),
        1,
        "only the first epoch's miss"
    );
    let home = &r.nodes[1];
    let pushed = PAGES as u64 * (EPOCHS - 1);
    let kinds: Vec<_> = home.pushed_bytes.iter().map(|&(k, _)| k).collect();
    assert_eq!(
        (home.counts.pages_pushed, &kinds[..]),
        (pushed, &["BarrierArrive"][..])
    );
    let manager = &r.nodes[0].counts;
    assert_eq!((manager.pushed_used, manager.pushes_refused), (pushed, 0));
}

/// A lock kernel whose cell is homed at node 0. Node 0 holds the lock across
/// each round's first barrier, so node 1's acquire waits for node 0's
/// release: the grant node 0 sends then names node 0's write of the cell,
/// and carries the cell. Node 1 fetches the cell once, in the first round.
#[test]
fn the_grant_from_the_cells_home_carries_the_cell() {
    const ROUNDS: u64 = 12;
    let r = run(ClusterConfig::base(2).with_page_size(256), &[], |p| {
        let cell = p.alloc_vec::<u64>(8, HomeAlloc::Node(0));
        let add = p.me() as u64 + 1;
        if p.me() == 0 {
            p.acquire(1);
        }
        p.barrier();
        for _ in 0..ROUNDS {
            if p.me() == 1 {
                p.acquire(1);
            }
            for w in 0..8 {
                let v = cell.get(p, w);
                cell.set(p, w, v + add);
            }
            p.release(1);
            p.barrier();
            if p.me() == 0 {
                p.acquire(1);
            }
            p.barrier();
        }
        if p.me() == 0 {
            p.release(1);
        }
        p.barrier();
        (0..8).map(|w| cell.get(p, w)).sum::<u64>()
    });
    assert_eq!(r.results, [8 * 3 * ROUNDS; 2]);
    assert_eq!(sent(&r.nodes[1], "PageReq"), 1);
    let manager = &r.nodes[0];
    assert_eq!(manager.counts.pages_pushed, ROUNDS - 1);
    let kinds: Vec<_> = manager.pushed_bytes.iter().map(|&(k, _)| k).collect();
    assert_eq!(kinds, ["LockGrant"]);
    assert_eq!(
        (
            r.nodes[1].counts.pushed_used,
            r.nodes[1].counts.pushes_refused
        ),
        (ROUNDS - 1, 0)
    );
}

/// While a node waits, its application thread reads the node's queue alone
/// and serves the requests that come meanwhile. Two nodes take turns on a
/// lock node 0 manages, over a counter node 0 homes: each waits while the
/// other asks for the lock, flushes to the home or fetches from it. The FT
/// run's results and shared memory equal the base run's, both waiters
/// served requests, and no arrival reached a service thread.
#[test]
fn a_waiting_application_thread_serves_its_nodes_requests() {
    const ROUNDS: u64 = 200;
    let kernel = |p: &mut ftdsm_suite::Process| {
        let cell = p.alloc_vec::<u64>(8, HomeAlloc::Node(0));
        p.barrier();
        for _ in 0..ROUNDS {
            p.acquire(0);
            let v = cell.get(p, 0);
            cell.set(p, 0, v + 1);
            p.release(0);
        }
        p.barrier();
        cell.get(p, 0)
    };
    let base = run(ClusterConfig::base(2).with_page_size(256), &[], kernel);
    let ft = run(
        ClusterConfig::fault_tolerant(2).with_page_size(256),
        &[],
        kernel,
    );
    assert_eq!(base.results, [2 * ROUNDS; 2]);
    assert_eq!(
        (&ft.results, ft.shared_hash),
        (&base.results, base.shared_hash)
    );
    for r in [&base, &ft] {
        let served: Vec<u64> = r.nodes.iter().map(|n| n.counts.app_served).collect();
        assert!(
            served.iter().all(|&s| s > 0),
            "requests served in waits: {served:?}"
        );
        assert_eq!(r.total().counts.svc_arrivals, 0);
    }
}
