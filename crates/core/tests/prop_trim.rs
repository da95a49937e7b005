//! Property tests for the log-trimming rules (Rules 1–3).
//!
//! The rules are exercised against an independent oracle: an entry may be
//! discarded only if *no peer's restart point can need it*. Restart points
//! are the peers' checkpoint timestamps; a peer `j` restarting replays its
//! execution from `T^j_ckp`, needing
//!   - our write notices for our intervals beyond `T^j_ckp[me]` (Rule 1),
//!   - our grants to `j` with `t_after[j] > T^j_ckp[j]` (Rule 2),
//!   - our diffs beyond the home's retained starting copy (Rule 3).

use std::sync::Arc;

use dsm_page::{Diff, Interval, Page, PageId, VectorClock};
use dsm_storage::{DiskModel, StableStore};
use ftdsm::ft::logs::{RelEntry, VolatileLogs};
use ftdsm::ft::stable_log::StableLog;
use ftdsm::msg::CkptStamp;
use proptest::prelude::*;

const N: usize = 4;
const ME: usize = 0;

fn vt(raw: &[u32]) -> VectorClock {
    VectorClock::from_vec(raw.to_vec())
}

fn diff(seq: u32, page: u32) -> Arc<Diff> {
    let twin = Page::zeroed(64);
    let mut cur = twin.clone();
    cur.write(0, &[seq as u8; 8]);
    Arc::new(Diff::create(PageId(page), Interval { proc: ME, seq }, &twin, &cur).unwrap())
}

proptest! {
    /// Rule 1 never discards a write notice some peer's restart still needs.
    #[test]
    fn rule1_is_safe_against_every_peer(
        n_intervals in 1u32..40,
        peer_ckps in proptest::collection::vec(0u32..40, N - 1),
    ) {
        let mut logs = VolatileLogs::new(ME, N);
        for seq in 1..=n_intervals {
            logs.log_interval(seq, vec![PageId(seq)], &vt(&[0; N]), &[]);
        }
        let bound = *peer_ckps.iter().min().unwrap();
        logs.trim_rule1(bound);
        // Oracle: peer j restarting from checkpoint with entry peer_ckps[j]
        // for us needs our intervals with seq > that entry.
        for &ckp in &peer_ckps {
            for needed_seq in (ckp + 1)..=n_intervals {
                prop_assert!(
                    logs.index().wn.iter().any(|&(seq, _)| seq == needed_seq),
                    "interval {needed_seq} needed by a peer with ckp {ckp} was trimmed (bound {bound})"
                );
            }
        }
    }

    /// Rule 2 never discards a grant the acquirer's restart still needs,
    /// and keeps the boundary entry (t_after == checkpoint timestamp).
    #[test]
    fn rule2_is_safe_for_the_acquirer(
        grants in proptest::collection::vec((1u32..30, 0usize..8), 1..25),
        ckp_entry in 0u32..30,
    ) {
        let mut logs = VolatileLogs::new(ME, N);
        for (i, (t_after_j, lock)) in grants.iter().enumerate() {
            logs.log_rel(1, RelEntry {
                acq_seq: i as u64,
                lock: *lock,
                gen: i as u64,
                req_vt: vt(&[0; N]),
                t_after: {
                    let mut v = vt(&[0; N]);
                    v.set(1, *t_after_j);
                    v
                },
            });
        }
        let mut stamps = vec![CkptStamp::zero(N); N];
        stamps[1].tckp.set(1, ckp_entry);
        logs.trim_rule2(&stamps);
        // Oracle: the acquirer restarting from ckp_entry replays every
        // acquire whose t_after[1] >= ckp_entry (its acquisition counter at
        // the checkpoint corresponds to that logical time; the boundary may
        // be needed when no writes separated the checkpoint from the next
        // acquire).
        for (i, (t_after_j, _)) in grants.iter().enumerate() {
            if *t_after_j >= ckp_entry {
                prop_assert!(
                    logs.rel[1].iter().any(|e| e.acq_seq == i as u64),
                    "grant {i} (t_after[1]={t_after_j}) needed beyond ckp {ckp_entry} was trimmed"
                );
            }
        }
    }

    /// Rule 3 (LLT) discards exactly the diffs the starting copy already
    /// contains, and only for pages with a known `p0.v`.
    #[test]
    fn rule3_trims_exactly_below_p0(
        diffs in proptest::collection::vec((1u32..20, 0u32..4), 1..30),
        p0 in proptest::collection::vec(0u32..20, 4),
    ) {
        let mut logs = VolatileLogs::new(ME, N);
        let mut seqs = std::collections::HashMap::new();
        for (_, page) in diffs.iter() {
            // Make per-page seqs unique and increasing.
            let seq = *seqs.entry(*page).and_modify(|s| *s += 1).or_insert(1);
            let mut t = vec![0u32; N];
            t[ME] = seq;
            logs.log_interval(seq, vec![PageId(*page)], &vt(&t), &[diff(seq, *page)]);
        }
        // Only pages 0 and 1 have known starting copies.
        let mut known = std::collections::HashMap::new();
        known.insert(PageId(0), p0[0]);
        known.insert(PageId(1), p0[1]);
        logs.trim_rule3(&known);
        // A diff's own interval seq is its `diff.T[me]`.
        let kept = logs.index().diffs;
        for (page, log) in &kept {
            for &(seq, _) in log {
                if let Some(bound) = known.get(page) {
                    prop_assert!(seq > *bound, "kept a diff the starting copy covers");
                }
            }
        }
        // Unknown pages keep everything.
        let kept_unknown: usize =
            kept.iter().filter(|(p, _)| p.0 >= 2).map(|(_, l)| l.len()).sum();
        let created_unknown = diffs.iter().filter(|(_, p)| *p >= 2).count();
        prop_assert_eq!(kept_unknown, created_unknown);
    }

    /// Counters stay consistent through arbitrary interleavings of appends,
    /// checkpoints (none, one or both trims, then a save, its publish and
    /// the eviction of what it saved) and restarts: created >= discarded,
    /// the running volatile size is what a walk over the logs — saved
    /// entries read back from the store — adds up, and it never exceeds
    /// created - discarded. At every checkpoint a restart from the live
    /// segments rebuilds exactly the logs' entries and their size, and a
    /// restart rebuilds what the last checkpoint held.
    #[test]
    fn log_counters_are_consistent(
        ops in proptest::collection::vec((0u32..5, 1u32..30), 1..60),
    ) {
        let store = StableStore::new(DiskModel::instant());
        let (mut logs, mut stable) = (VolatileLogs::new(ME, N), StableLog::default());
        // Own interval seq; last checkpoint's id, seq and logs.
        let (mut seq, mut ckpt, mut through) = (0u32, 0u64, 0u32);
        let mut at_ckpt = (Vec::new(), Vec::new());
        let restart = |logs: &mut VolatileLogs, ckpt, through| {
            let mut stable = StableLog::default();
            stable.restore(&store, logs, ckpt, through).unwrap();
            stable
        };
        // Every kept notice and diff, the saved ones read from the store.
        let contents = |logs: &VolatileLogs, stable: &StableLog| {
            let pages = logs.index().diffs.into_keys();
            let diffs = pages.map(|p| logs.diffs_after(stable, &store, p, 0).0);
            (logs.wn_log(stable, &store).0, diffs.collect::<Vec<_>>())
        };
        for (op, arg) in ops {
            match op {
                0 => {
                    seq += 1;
                    let mut t = vec![0u32; N];
                    t[ME] = seq;
                    logs.log_interval(seq, vec![PageId(arg % 8)], &vt(&t), &[diff(seq, arg % 8)]);
                }
                1..=3 => {
                    if op & 1 != 0 {
                        logs.trim_rule1(arg);
                    }
                    if op & 2 != 0 {
                        let known = (0..8).map(|pg| (PageId(pg), arg));
                        logs.trim_rule3(&known.collect());
                    }
                    (ckpt, through) = (ckpt + 1, seq);
                    let save = logs.save(through);
                    stable.append(&store, ckpt, save.bytes, save.span);
                    logs.evict_saved();
                    stable.collect(&store, &save.bounds);
                    prop_assert_eq!(logs.resident_bytes(), 0);
                    let mut restored = VolatileLogs::new(ME, N);
                    let restored_stable = restart(&mut restored, ckpt, through);
                    prop_assert_eq!(&restored_stable, &stable);
                    prop_assert_eq!(restored.index(), logs.index());
                    at_ckpt = contents(&logs, &stable);
                    prop_assert_eq!(&contents(&restored, &restored_stable), &at_ckpt);
                    prop_assert_eq!(restored.volatile_bytes(), logs.volatile_bytes());
                }
                _ => {
                    stable = restart(&mut logs, ckpt, through);
                    prop_assert_eq!(&contents(&logs, &stable), &at_ckpt);
                    seq = through;
                }
            }
            let (wn, diffs) = contents(&logs, &stable);
            let walk = diffs.iter().flatten().map(|e| e.wire_size()).sum::<usize>()
                + wn.iter().map(|e| e.wire_size()).sum::<usize>();
            prop_assert_eq!(logs.volatile_bytes(), walk as u64);
            let index = logs.index();
            let sizes = index.wn.iter().chain(index.diffs.values().flatten());
            prop_assert_eq!(sizes.map(|&(_, size)| u64::from(size)).sum::<u64>(), walk as u64);
            let c = logs.counters();
            prop_assert!(c.created_bytes >= c.discarded_bytes);
            prop_assert!(logs.volatile_bytes() <= c.created_bytes - c.discarded_bytes);
        }
    }
}
