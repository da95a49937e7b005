//! Property tests for the protocol state machines.

use std::sync::Arc;

use dsm_page::{Diff, Interval, PageId, VectorClock};
use hlrc::barrier::{Arrival, ArriveOutcome, BarrierManager};
use hlrc::locks::{AcqReq, LockManagerTable};
use hlrc::{
    AccessOutcome, DiffJob, FetchOutcome, HomeStore, PageBody, PageTable, WaitingFetch, WnTable,
    WriteNotice,
};
use proptest::prelude::*;

/// One page of 32 words homed at node 0 and written by three nodes, each
/// its own words (word `w` belongs to node `w % 3`): node 0 through the home
/// store, node 1 — the reader, too — through a page table, node 2 as diffs.
const PAGE: PageId = PageId(0);
const PAGE_SIZE: usize = 256;

fn iv(proc: usize, seq: u32) -> Interval {
    Interval { proc, seq }
}

/// Word `3 * slot + owner`: the `slot`-th word node `owner` may write.
fn offset(owner: u32, slot: u32) -> usize {
    (3 * (slot % 10) + owner) as usize * 8
}

/// Run one history of `(kind, slot, value)` steps (see the `match`) over
/// the page, checking after every install that the reader's bytes are the
/// home copy's on every word the home's own open interval has not written,
/// that no delta is as large as the page, and that the ring never holds a
/// page's worth. Returns how many fetches were answered with a delta.
fn delta_history(ops: &[(u8, u32, u64)]) -> Result<usize, TestCaseError> {
    let home = HomeStore::new(3, PAGE_SIZE);
    home.add(PAGE);
    let mut reader = PageTable::new(1, 3, PAGE_SIZE);
    reader.add_page(0);
    // Interval counters per node, the notices the reader has seen, the
    // words the home's open interval wrote, and its collected-but-not-
    // handed-over jobs.
    let mut seq = [0u32; 3];
    let mut seen = [0u32; 3];
    let mut open: Vec<usize> = Vec::new();
    let mut collected: Option<Vec<DiffJob>> = None;
    let mut deltas = 0;
    for &(kind, slot, value) in ops {
        let bytes = value.to_le_bytes();
        match kind {
            // The home writes a word of its own (same value again and
            // a → b → a included: values come from a domain of three).
            0 | 1 if collected.is_none() => {
                home.write(PAGE, offset(0, slot), &bytes);
                open.push(offset(0, slot));
            }
            // The home ends its interval, in the two steps the release
            // takes: version bump and twin hand-out, then diff hand-over.
            2 if collected.is_none() && home.has_writes() => {
                seq[0] += 1;
                let mut jobs = Vec::new();
                home.collect_dirty(iv(0, seq[0]), &mut jobs);
                collected = Some(jobs);
                open.clear();
            }
            3 => {
                let jobs = collected.take().into_iter().flatten();
                home.finish_dirty(jobs.map(|j| {
                    let diff = Diff::create(j.page, iv(0, seq[0]), &j.twin, &j.current);
                    (j.page, diff.map(Arc::new), j.twin)
                }));
            }
            // Node 2 flushes an interval that set one or two of its words.
            4 | 5 => {
                seq[2] += 1;
                let mut runs = vec![(offset(2, slot) as u32, &bytes[..])];
                if kind == 5 && slot % 10 < 9 {
                    runs.push((offset(2, slot + 1) as u32, &bytes[..]));
                }
                let diff = Arc::new(Diff::from_runs(PAGE, iv(2, seq[2]), runs));
                home.apply_diff_kept(&diff, || true);
            }
            // The reader writes a word of its own, when its copy is valid.
            6 if reader.ensure_access(PAGE) == AccessOutcome::Ready => {
                reader.write(PAGE, offset(1, slot), &bytes);
            }
            // The home restarts (from an image of what it holds).
            7 if slot == 0 && collected.is_none() => {
                let (version, image) = home.snapshot(PAGE);
                home.reset_for_restart();
                home.restore(PAGE, &image, version);
                open.clear();
            }
            // The reader synchronises: flushes its interval, learns of
            // every interval the home copy holds, and fetches if that
            // (or a cold start) left it without a valid copy.
            8 | 9 => {
                if reader.has_writes() {
                    seq[1] += 1;
                    for diff in reader.end_interval(iv(1, seq[1])) {
                        home.apply_diff_kept(&diff, || true);
                    }
                }
                let at_home = home.version_of(PAGE);
                for writer in [0, 2] {
                    if at_home.get(writer) > seen[writer] {
                        seen[writer] = at_home.get(writer);
                        reader.invalidate(PAGE, writer, seen[writer]);
                    }
                }
                let AccessOutcome::NeedFetch { needed, .. } = reader.ensure_access(PAGE) else {
                    continue;
                };
                let fetch = WaitingFetch {
                    from: 1,
                    page: PAGE,
                    needed,
                    req_id: 0,
                };
                let served = home.serve_fetch_have(fetch, reader.have(PAGE), || true).0;
                let FetchOutcome::Ready(version, body) = served else {
                    return Err(TestCaseError::fail(
                        "home copy does not cover its own version",
                    ));
                };
                match &body {
                    PageBody::Full { bytes, .. } => prop_assert_eq!(bytes.len(), PAGE_SIZE),
                    PageBody::Delta(diffs) => {
                        let held = diffs.iter().map(|d| d.wire_size()).sum::<usize>();
                        prop_assert!(held < PAGE_SIZE);
                        deltas += 1;
                    }
                }
                reader.install(PAGE, body, &version);
                if let Some((_, exact)) = reader.have(PAGE) {
                    prop_assert_eq!(exact, &version);
                }
                let (_, at_home) = home.snapshot(PAGE);
                let mut got = [0u8; PAGE_SIZE];
                reader.read_into(PAGE, 0, &mut got);
                for w in (0..PAGE_SIZE).step_by(8).filter(|w| !open.contains(w)) {
                    prop_assert_eq!(&got[w..w + 8], &at_home[w..w + 8], "word at {}", w);
                }
            }
            _ => {}
        }
        prop_assert!(home.ring_bytes(PAGE) < PAGE_SIZE);
    }
    Ok(deltas)
}

#[test]
fn the_delta_histories_are_not_vacuous() {
    // Cold fetch; node 2 flushes two intervals; the reader synchronises,
    // writes, flushes and synchronises again after a third.
    let ops = [
        (8, 0, 1),
        (4, 0, 1),
        (5, 1, 2),
        (8, 0, 1),
        (6, 0, 3),
        (4, 2, 3),
        (9, 0, 1),
    ];
    assert_eq!(delta_history(&ops), Ok(2));
}

#[test]
fn a_delta_does_not_undo_a_word_the_reader_wrote() {
    // The reader's <1:1> reaches the home while the home's <0:1> is open;
    // the home closes <0:1>; the reader, not yet told of it, flushes <1:2>
    // over the same word and then refetches, missing only <0:1>. The own
    // diff must not carry <1:1>'s word, or it sets the reader's back.
    let ops = [
        (8, 0, 1),
        (0, 0, 1),
        (6, 0, 1),
        (8, 0, 1),
        (2, 0, 1),
        (3, 0, 1),
        (6, 0, 2),
        (8, 0, 1),
    ];
    assert_eq!(delta_history(&ops), Ok(1));
}

proptest! {
    /// The lock manager builds one chain: every request gets exactly one
    /// forward, the granter of request k+1 is the requester of request k,
    /// generations are strictly increasing, and pred_acq always names the
    /// granter's own previous acquisition.
    #[test]
    fn lock_chain_is_a_chain(reqs in proptest::collection::vec(0usize..5, 1..40)) {
        let me = 7usize;
        let mut mgr = LockManagerTable::new(me);
        let mut acq_seq = [0u64; 6];
        let mut prev_requester = me;
        let mut prev_acq = u64::MAX;
        let mut prev_gen = 0u64;
        for r in reqs {
            let seq = acq_seq[r];
            acq_seq[r] += 1;
            let a = mgr
                .on_request(3, AcqReq { requester: r, acq_seq: seq, vt: VectorClock::zero(8) });
            prop_assert_eq!(a.grant_from, prev_requester);
            prop_assert_eq!(a.pred_acq, prev_acq);
            prop_assert!(a.gen > prev_gen);
            prev_gen = a.gen;
            prev_requester = r;
            prev_acq = seq;
        }
    }

    /// Restart resends never advance the chain: re-sending each
    /// requester's latest request returns the original routing.
    #[test]
    fn lock_retransmission_is_idempotent(reqs in proptest::collection::vec(0usize..4, 1..20)) {
        let mut mgr = LockManagerTable::new(0);
        let mut acq_seq = [0u64; 4];
        let mut actions = Vec::new();
        for r in &reqs {
            let seq = acq_seq[*r];
            acq_seq[*r] += 1;
            let a = mgr
                .on_request(1, AcqReq { requester: *r, acq_seq: seq, vt: VectorClock::zero(4) });
            actions.push(a);
        }
        // Re-send the most recent request of each requester, as a restart
        // does; the link delivers every earlier one once.
        for a in actions.iter().rev() {
            if a.req.acq_seq + 1 != acq_seq[a.req.requester] {
                continue;
            }
            let rx = mgr.on_request(
                1,
                AcqReq {
                    requester: a.req.requester,
                    acq_seq: a.req.acq_seq,
                    vt: VectorClock::zero(4),
                },
            );
            if rx.req.acq_seq == a.req.acq_seq {
                prop_assert_eq!(rx.grant_from, a.grant_from);
                prop_assert_eq!(rx.gen, a.gen);
                prop_assert_eq!(rx.pred_acq, a.pred_acq);
            }
        }
    }

    /// The barrier release timestamp is exactly the join of the arrivals,
    /// each participant receives exactly the notices its own arrival
    /// timestamp does not cover, and no release lists an interval twice.
    #[test]
    fn barrier_release_is_join_of_arrivals(
        vts in proptest::collection::vec(proptest::collection::vec(0u32..8, 3), 3),
    ) {
        let mut mgr = BarrierManager::new(3);
        let mut expected = VectorClock::zero(3);
        let mut outcome = ArriveOutcome::Pending;
        let arrival_vts: Vec<_> = vts.iter().map(|raw| VectorClock::from_vec(raw.clone())).collect();
        for (p, raw) in vts.iter().enumerate() {
            let vt = arrival_vts[p].clone();
            expected.join(&vt);
            let wns = vec![WriteNotice {
                interval: Interval { proc: p, seq: raw[p] + 1 },
                pages: vec![PageId(p as u32)],
            }];
            outcome = mgr.arrive(Arrival {
                proc: p,
                episode: 0,
                vt,
                own_wns: wns.into(),
            });
        }
        let ArriveOutcome::Complete(rel) = outcome else {
            return Err(TestCaseError::fail("barrier did not complete"));
        };
        prop_assert_eq!(&rel.vt, &expected);
        for (p, wns) in rel.per_proc_wns.iter().enumerate() {
            let mut listed = std::collections::HashSet::new();
            for wn in wns.iter() {
                prop_assert!(!arrival_vts[p].covers_interval(wn.interval));
                prop_assert!(listed.insert(wn.interval), "{} listed twice", wn.interval);
            }
        }
    }

    /// A reader that keeps its stale copy and is sent the diffs it is missing
    /// ends up where a reader that is sent the page would, whatever the
    /// three writers and the home's restarts do in between.
    #[test]
    fn a_delta_refetch_installs_what_a_full_fetch_would(
        ops in proptest::collection::vec((0u8..10, 0u32..10, 1u64..4), 1..160),
    ) {
        delta_history(&ops)?;
    }

    /// `missing_between` returns exactly the table entries in the half-open
    /// version interval, compared against a brute-force scan.
    #[test]
    fn wn_missing_between_matches_bruteforce(
        entries in proptest::collection::vec((0usize..4, 1u32..12, 0u32..64), 0..60),
        from in proptest::collection::vec(0u32..12, 4),
        to_delta in proptest::collection::vec(0u32..6, 4),
    ) {
        let mut table = WnTable::new();
        let mut reference = std::collections::HashMap::new();
        for (p, seq, page) in entries {
            let iv = Interval { proc: p, seq };
            table.insert_parts(iv, vec![PageId(page)]);
            reference.entry((p, seq)).or_insert(page);
        }
        let from = VectorClock::from_vec(from);
        let mut to = from.clone();
        for (p, d) in to_delta.iter().enumerate() {
            to.set(p, from.get(p) + d);
        }
        let got = table.missing_between(&from, &to);
        for wn in got.iter() {
            let iv = wn.interval;
            prop_assert!(!from.covers_interval(iv));
            prop_assert!(to.covers_interval(iv));
            prop_assert!(reference.contains_key(&(iv.proc, iv.seq)));
        }
        // Every known entry in the gap is present.
        let expected = reference
            .keys()
            .filter(|(p, seq)| {
                let iv = Interval { proc: *p, seq: *seq };
                !from.covers_interval(iv) && to.covers_interval(iv)
            })
            .count();
        prop_assert_eq!(got.len(), expected);
    }
}
