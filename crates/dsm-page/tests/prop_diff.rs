//! Property tests for the diff and vector-clock machinery.

use dsm_page::{Diff, DiffScratch, Interval, Page, PageId, VectorClock, PAGE_ALIGN_WORD};
use proptest::prelude::*;

const PAGE: usize = 256;

/// Random page contents with low entropy so that diffs have both changed and
/// unchanged words.
fn page_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], PAGE)
}

/// A twin/current pair built from an explicit write pattern, covering the
/// shapes the u64 fast path must not get wrong:
/// - dense: most words mutated (runs span nearly the whole page),
/// - sparse: a handful of isolated words (many short runs),
/// - unaligned run boundaries: runs starting/ending at the first/last word
///   of the page and runs separated by exactly one unchanged word.
fn pair_strategy() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let words = PAGE / 8;
    let base = proptest::collection::vec(any::<u8>(), PAGE);
    // Each mutation is (word index, new word value); duplicates are fine.
    let sparse = proptest::collection::vec((0..words, any::<u64>()), 0..6);
    let dense = proptest::collection::vec((0..words, any::<u64>()), words..2 * words);
    let edges = prop_oneof![
        Just(vec![(0usize, 1u64)]),                              // first word only
        Just(vec![(words - 1, 1u64)]),                           // last word only
        Just(vec![(0usize, 1u64), (words - 1, 1)]),              // both edges
        Just(vec![(3usize, 1u64), (5, 1)]),                      // one-word gap
        Just((0..words).map(|w| (w, 1u64)).collect::<Vec<_>>()), // whole page
    ];
    (base, prop_oneof![sparse, dense, edges]).prop_map(
        |(base, muts): (Vec<u8>, Vec<(usize, u64)>)| {
            let mut cur = base.clone();
            for (w, val) in muts {
                cur[w * 8..w * 8 + 8].copy_from_slice(&val.to_ne_bytes());
            }
            (base, cur)
        },
    )
}

/// The pre-optimization byte-slice diffing, retained as an executable
/// reference: the tests below assert the u64 fast path produces identical
/// runs.
mod reference {
    use super::*;

    /// A run produced by the reference implementation (owns its bytes, as
    /// the original `DiffRun` did).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NaiveRun {
        /// Byte offset of the run within the page.
        pub offset: u32,
        /// The new contents of the run.
        pub bytes: Vec<u8>,
    }

    /// Word-by-word `[u8]` slice comparison, one `Vec<u8>` per run — the
    /// exact shape of `Diff::create` before the zero-copy rework. Returns an
    /// empty vector when the page is unchanged.
    pub fn create(twin: &Page, current: &Page) -> Vec<NaiveRun> {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        let a = twin.bytes();
        let b = current.bytes();
        let mut runs: Vec<NaiveRun> = Vec::new();
        let mut run_start: Option<usize> = None;
        let words = a.len() / PAGE_ALIGN_WORD;
        for w in 0..words {
            let off = w * PAGE_ALIGN_WORD;
            let same = a[off..off + PAGE_ALIGN_WORD] == b[off..off + PAGE_ALIGN_WORD];
            match (same, run_start) {
                (false, None) => run_start = Some(off),
                (true, Some(start)) => {
                    runs.push(NaiveRun {
                        offset: start as u32,
                        bytes: b[start..off].to_vec(),
                    });
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(start) = run_start {
            runs.push(NaiveRun {
                offset: start as u32,
                bytes: b[start..].to_vec(),
            });
        }
        runs
    }
}

#[test]
fn dense_page_diff_is_one_bulk_run_matching_reference() {
    // The dirty_words_512 shape: every word of the page modified. The
    // fast path must produce a single page-sized run via one bulk copy
    // (not a per-word append) and still match the reference exactly.
    let twin = Page::zeroed(4096);
    let mut cur = twin.clone();
    for w in 0..512 {
        cur.write(
            w * PAGE_ALIGN_WORD,
            &(w as u64).wrapping_add(1).to_ne_bytes(),
        );
    }
    let d = Diff::create(PageId(0), Interval { proc: 0, seq: 1 }, &twin, &cur).unwrap();
    assert_eq!(d.run_count(), 1);
    assert_eq!(d.payload_bytes(), 4096);
    let naive = reference::create(&twin, &cur);
    assert_eq!(naive.len(), 1);
    let fast: Vec<(usize, &[u8])> = d.runs().collect();
    assert_eq!(fast, [(0usize, &naive[0].bytes[..])]);

    // Mostly dirty with periodic clean words: run boundaries must agree
    // with the reference even when runs close mid-block.
    let mut holey = twin.clone();
    for w in 0..512 {
        if w % 7 != 0 {
            holey.write(w * PAGE_ALIGN_WORD, &[0xCD; 8]);
        }
    }
    let d = Diff::create(PageId(0), Interval { proc: 0, seq: 1 }, &twin, &holey).unwrap();
    let naive = reference::create(&twin, &holey);
    let fast: Vec<(u32, Vec<u8>)> = d.runs().map(|(o, b)| (o as u32, b.to_vec())).collect();
    let slow: Vec<(u32, Vec<u8>)> = naive.into_iter().map(|r| (r.offset, r.bytes)).collect();
    assert_eq!(fast, slow);
}

#[test]
fn fast_path_matches_reference_implementation() {
    let twin = Page::zeroed(256);
    let mut cur = twin.clone();
    cur.write(0, &[1; 8]);
    cur.write(24, &[2; 32]);
    cur.write(248, &[3; 8]);
    let d = Diff::create(PageId(0), Interval { proc: 0, seq: 1 }, &twin, &cur).unwrap();
    let naive = reference::create(&twin, &cur);
    let fast: Vec<(u32, Vec<u8>)> = d.runs().map(|(o, b)| (o as u32, b.to_vec())).collect();
    let slow: Vec<(u32, Vec<u8>)> = naive.into_iter().map(|r| (r.offset, r.bytes)).collect();
    assert_eq!(fast, slow);
}

proptest! {
    /// diff(create(twin, cur)).apply(twin) == cur, for arbitrary page pairs.
    #[test]
    fn diff_is_exact_patch(a in page_strategy(), b in page_strategy()) {
        let twin = Page::from_bytes(&a);
        let cur = Page::from_bytes(&b);
        let mut replay = twin.clone();
        if let Some(d) = Diff::create(PageId(0), Interval { proc: 0, seq: 1 }, &twin, &cur) {
            d.apply(&mut replay);
        }
        prop_assert_eq!(replay.bytes(), cur.bytes());
    }

    /// Runs are sorted, non-overlapping, word-aligned, and only cover words
    /// that actually differ.
    #[test]
    fn diff_runs_are_canonical(a in page_strategy(), b in page_strategy()) {
        let twin = Page::from_bytes(&a);
        let cur = Page::from_bytes(&b);
        if let Some(d) = Diff::create(PageId(0), Interval { proc: 0, seq: 1 }, &twin, &cur) {
            let mut prev_end = 0usize;
            for (i, (off, bytes)) in d.runs().enumerate() {
                prop_assert_eq!(off % 8, 0);
                prop_assert_eq!(bytes.len() % 8, 0);
                if i > 0 {
                    // A gap of at least one unchanged word separates runs.
                    prop_assert!(off >= prev_end + 8);
                }
                // Boundary words of each run really differ.
                prop_assert_ne!(&a[off..off + 8], &b[off..off + 8]);
                let last = off + bytes.len() - 8;
                prop_assert_ne!(&a[last..last + 8], &b[last..last + 8]);
                prev_end = off + bytes.len();
            }
        }
    }

    /// The u64 fast path produces run-for-run identical output to the
    /// retained byte-wise reference implementation, on random pairs.
    #[test]
    fn fast_diff_equals_reference_random(a in page_strategy(), b in page_strategy()) {
        let twin = Page::from_bytes(&a);
        let cur = Page::from_bytes(&b);
        let naive = reference::create(&twin, &cur);
        let fast = Diff::create(PageId(0), Interval { proc: 0, seq: 1 }, &twin, &cur);
        match fast {
            None => prop_assert!(naive.is_empty()),
            Some(d) => {
                let f: Vec<(u32, Vec<u8>)> =
                    d.runs().map(|(o, bytes)| (o as u32, bytes.to_vec())).collect();
                let n: Vec<(u32, Vec<u8>)> =
                    naive.into_iter().map(|r| (r.offset, r.bytes)).collect();
                prop_assert_eq!(f, n);
            }
        }
    }

    /// Same equivalence on structured dense / sparse / run-boundary-edge
    /// patterns, plus apply-roundtrip, using the reused node scratch.
    #[test]
    fn fast_diff_equals_reference_patterns(pair in pair_strategy()) {
        let (a, b) = pair;
        let twin = Page::from_bytes(&a);
        let cur = Page::from_bytes(&b);
        let naive = reference::create(&twin, &cur);
        let mut scratch = DiffScratch::new();
        let fast = Diff::create_with(
            &mut scratch, PageId(0), Interval { proc: 0, seq: 1 }, &twin, &cur);
        match fast {
            None => prop_assert!(naive.is_empty()),
            Some(d) => {
                let f: Vec<(u32, Vec<u8>)> =
                    d.runs().map(|(o, bytes)| (o as u32, bytes.to_vec())).collect();
                let n: Vec<(u32, Vec<u8>)> =
                    naive.into_iter().map(|r| (r.offset, r.bytes)).collect();
                prop_assert_eq!(f, n);
                let mut replay = twin.clone();
                d.apply(&mut replay);
                prop_assert_eq!(replay.bytes(), cur.bytes());
            }
        }
    }

    /// Vector clock join is the lattice least-upper-bound: commutative,
    /// idempotent, and covers both operands.
    #[test]
    fn vector_clock_join_laws(
        a in proptest::collection::vec(0u32..50, 4),
        b in proptest::collection::vec(0u32..50, 4),
    ) {
        let va = VectorClock::from_vec(a);
        let vb = VectorClock::from_vec(b);
        let mut ab = va.clone();
        ab.join(&vb);
        let mut ba = vb.clone();
        ba.join(&va);
        prop_assert_eq!(&ab, &ba);
        prop_assert!(ab.covers(&va) && ab.covers(&vb));
        let mut idem = ab.clone();
        idem.join(&ab);
        prop_assert_eq!(&idem, &ab);
        // join is the *least* upper bound: any other upper bound covers it.
        let mut ub = va.clone();
        ub.join(&vb);
        prop_assert!(ub.covers(&ab) && ab.covers(&ub));
    }

    /// `missing_from` enumerates exactly the intervals whose join closes the
    /// gap between two clocks.
    #[test]
    fn missing_from_closes_gap(
        a in proptest::collection::vec(0u32..20, 4),
        b in proptest::collection::vec(0u32..20, 4),
    ) {
        let va = VectorClock::from_vec(a);
        let vb = VectorClock::from_vec(b);
        let missing = va.missing_from(&vb);
        let mut closed = va.clone();
        for iv in &missing {
            prop_assert!(!va.covers_interval(*iv));
            prop_assert!(vb.covers_interval(*iv));
            let cur = closed.get(iv.proc);
            closed.set(iv.proc, cur.max(iv.seq));
        }
        // Applying all missing intervals turns `a` into join(a, b).
        let mut j = va.clone();
        j.join(&vb);
        prop_assert_eq!(closed, j);
    }
}
