//! Word-granularity page diffs.
//!
//! A writer creates a *twin* (copy) of a page before its first write in an
//! interval. At release time the modified words are encoded as a [`Diff`]
//! relative to the twin, sent to the page's home, and (in the fault-tolerant
//! protocol) appended to the writer's per-page diff log.
//!
//! Performance shape: comparison is u64-word-wide (one load + compare per
//! 8 bytes instead of a bounds-checked 8-byte `memcmp`), preceded by a
//! whole-buffer equality pre-check that dismisses silent-store pages in one
//! `memcmp`. All modified runs share a single immutable payload buffer
//! (`Arc<[u8]>`), built in one pass through a reused [`DiffScratch`], so a
//! diff costs exactly one payload allocation no matter how many runs it has
//! — and cloning or logging a diff never copies the payload.

use std::sync::Arc;

use crate::addr::PageId;
use crate::page::{Page, PAGE_ALIGN_WORD};
use crate::pool::PagePool;
use crate::version::Interval;

/// Block size of the coarse scan in [`Diff::create_with`]: each block is
/// condensed into a per-word dirty bitmask in one vectorized pass, and only
/// mixed (partially dirty) blocks pay per-word run bookkeeping.
const DIFF_BLOCK: usize = 8 * PAGE_ALIGN_WORD;

/// One contiguous run of modified bytes within a page: a span of the diff's
/// shared payload buffer.
///
/// Constructed only by [`Diff::create`] / [`Diff::from_runs`]; consumers
/// iterate [`Diff::runs`] to see `(page_offset, bytes)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset of the run within the page (word aligned).
    pub offset: u32,
    /// Start of the run's bytes within the diff payload.
    start: u32,
    /// Length of the run in bytes (a multiple of the diff word).
    pub len: u32,
}

/// Reusable scratch space for [`Diff::create_with`]: one per node, so
/// steady-state diff creation does not grow fresh vectors per run.
#[derive(Debug, Default)]
pub struct DiffScratch {
    buf: Vec<u8>,
    runs: Vec<DiffRun>,
    /// `(page_offset, end)` of each run found by the scan; byte copying is
    /// deferred until all runs are known so a single-run diff can build its
    /// payload straight from the page (one copy, no staging).
    spans: Vec<(usize, usize)>,
}

impl DiffScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The modifications one writer made to one page in one interval.
///
/// Immutable once created: the same `Arc<Diff>` is sent to the home, kept in
/// the sender's volatile diff log, and replayed during recovery, without any
/// payload copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    /// The page this diff applies to.
    pub page: PageId,
    /// The interval in which the writes were performed. Applying the diff at
    /// the home advances the page version vector entry for `interval.proc`
    /// to `interval.seq`.
    pub interval: Interval,
    /// Modified runs, in increasing offset order, non-overlapping.
    runs: Vec<DiffRun>,
    /// Concatenated run contents; runs index into this buffer.
    payload: Arc<[u8]>,
    /// The encoded length, computed once where the runs are built.
    wire_size: usize,
}

/// Bytes `v` takes as an LEB128 varint. The codec's length-only writer
/// (`dsm_storage::ByteWriter`) and a diff's stored size count varints with
/// this one function; it lives here because the codec crate depends on
/// this one.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The encoded length of a diff (the layout `wire::put_diff` writes): page
/// id, interval proc, interval seq and run count as varints, then per run
/// its gap in words since the previous run's end and its length in words as
/// varints, and its bytes.
fn encoded_len(page: PageId, interval: Interval, runs: &[DiffRun]) -> usize {
    let header = [
        page.0.into(),
        interval.proc as u64,
        interval.seq.into(),
        runs.len() as u64,
    ];
    let mut len: usize = header.into_iter().map(varint_len).sum();
    let mut end = 0;
    for r in runs {
        let gap = (r.offset - end) as usize / PAGE_ALIGN_WORD;
        let words = r.len as usize / PAGE_ALIGN_WORD;
        len += varint_len(gap as u64) + varint_len(words as u64) + r.len as usize;
        end = r.offset + r.len;
    }
    len
}

impl Diff {
    /// Compute the diff between `twin` (the pre-write copy) and `current`,
    /// using a private scratch buffer. Prefer [`Diff::create_with`] on hot
    /// paths.
    pub fn create(page: PageId, interval: Interval, twin: &Page, current: &Page) -> Option<Diff> {
        let mut scratch = DiffScratch::new();
        Self::create_with(&mut scratch, page, interval, twin, current)
    }

    /// Compute the diff between `twin` and `current` into `scratch`
    /// (reused across calls; its capacity amortizes to the largest diff).
    ///
    /// Comparison is at [`PAGE_ALIGN_WORD`]-byte granularity, exactly like
    /// the word-level diffing of HLRC implementations; adjacent modified
    /// words are merged into a single run. Returns `None` when the page is
    /// unchanged (no word differs).
    pub fn create_with(
        scratch: &mut DiffScratch,
        page: PageId,
        interval: Interval,
        twin: &Page,
        current: &Page,
    ) -> Option<Diff> {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        let a = twin.bytes();
        let b = current.bytes();
        // Silent stores (every written word holds its old value) are common
        // enough to deserve a single whole-buffer memcmp before word-walking.
        if std::ptr::eq(a.as_ptr(), b.as_ptr()) || a == b {
            return None;
        }
        scratch.buf.clear();
        scratch.runs.clear();
        scratch.spans.clear();
        // Each 64-byte block is scanned once into a per-word dirty bitmask.
        // The build is branchless (eight u64 compares OR-ed together), so it
        // vectorizes — cheaper than a `bcmp` call per block, and the mask
        // then classifies the block without re-reading it: all-clean and
        // all-dirty blocks (the two common shapes — mostly-clean pages at
        // interval end, fully dirty pages in the `dirty_words_512` bench)
        // extend or close the open run block-wise with no per-word
        // bookkeeping; only mixed blocks walk their mask bits. A clean
        // block's first word is clean, so any open run legitimately closes
        // at the block boundary.
        //
        // Byte copying is deferred until every run is known (`spans`), so
        // each run is one bulk copy rather than a tiny extend per word.
        let mut open: Option<usize> = None; // page offset where the run began
        fn close_run(spans: &mut Vec<(usize, usize)>, open: &mut Option<usize>, end: usize) {
            if let Some(offset) = open.take() {
                spans.push((offset, end));
            }
        }
        let mut base = 0;
        while base < a.len() {
            let end = (base + DIFF_BLOCK).min(a.len());
            let (ba, bb) = (&a[base..end], &b[base..end]);
            let words = (end - base) / PAGE_ALIGN_WORD;
            let mut mask = 0u64;
            for (w, (wa, wb)) in ba
                .chunks_exact(PAGE_ALIGN_WORD)
                .zip(bb.chunks_exact(PAGE_ALIGN_WORD))
                .enumerate()
            {
                let xa = u64::from_ne_bytes(wa.try_into().unwrap());
                let xb = u64::from_ne_bytes(wb.try_into().unwrap());
                mask |= u64::from(xa != xb) << w;
            }
            if mask == 0 {
                close_run(&mut scratch.spans, &mut open, base);
                base = end;
                continue;
            }
            if mask == (1u64 << words) - 1 {
                // Fully dirty block: extend the open run block-wise.
                if open.is_none() {
                    open = Some(base);
                }
                base = end;
                continue;
            }
            for w in 0..words {
                if mask & (1 << w) != 0 {
                    if open.is_none() {
                        open = Some(base + w * PAGE_ALIGN_WORD);
                    }
                } else {
                    close_run(&mut scratch.spans, &mut open, base + w * PAGE_ALIGN_WORD);
                }
            }
            base = end;
        }
        close_run(&mut scratch.spans, &mut open, a.len());
        debug_assert!(!scratch.spans.is_empty(), "unequal pages must yield runs");
        // Single-run diffs — a contiguous write, or a fully dirty page —
        // build the payload straight from the page: one memcpy instead of
        // staging through `scratch.buf` and copying again into the `Arc`.
        let payload: Arc<[u8]> = if let [(offset, end)] = scratch.spans[..] {
            scratch.runs.push(DiffRun {
                offset: offset as u32,
                start: 0,
                len: (end - offset) as u32,
            });
            Arc::from(&b[offset..end])
        } else {
            for &(offset, end) in &scratch.spans {
                let start = scratch.buf.len();
                scratch.buf.extend_from_slice(&b[offset..end]);
                scratch.runs.push(DiffRun {
                    offset: offset as u32,
                    start: start as u32,
                    len: (end - offset) as u32,
                });
            }
            Arc::from(&scratch.buf[..])
        };
        Some(Diff {
            page,
            interval,
            runs: scratch.runs.clone(),
            payload,
            wire_size: encoded_len(page, interval, &scratch.runs),
        })
    }

    /// Build a diff from explicit `(offset, bytes)` runs (decoder support).
    ///
    /// # Panics
    ///
    /// Unless every run is non-empty, word aligned at both ends, and starts
    /// at or past the previous run's end: the shape [`Diff::create`] makes
    /// and the encoding can express.
    pub fn from_runs<'a>(
        page: PageId,
        interval: Interval,
        runs: impl IntoIterator<Item = (u32, &'a [u8])>,
    ) -> Diff {
        let mut payload = Vec::new();
        let mut spans: Vec<DiffRun> = Vec::new();
        for (offset, bytes) in runs {
            let end = spans.last().map_or(0, |r| r.offset + r.len);
            let (word, len) = (PAGE_ALIGN_WORD as u32, bytes.len() as u32);
            assert!(
                len > 0 && offset >= end && offset.is_multiple_of(word) && len.is_multiple_of(word),
                "run ({offset}, {len}) is empty, unaligned or overlaps one ending at {end}"
            );
            spans.push(DiffRun {
                offset,
                start: payload.len() as u32,
                len,
            });
            payload.extend_from_slice(bytes);
        }
        Diff {
            page,
            interval,
            wire_size: encoded_len(page, interval, &spans),
            runs: spans,
            payload: Arc::from(&payload[..]),
        }
    }

    /// The modified runs as `(page_offset, bytes)` pairs, in increasing
    /// offset order.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        self.runs.iter().map(move |r| {
            (
                r.offset as usize,
                &self.payload[r.start as usize..(r.start + r.len) as usize],
            )
        })
    }

    /// Number of modified runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Apply the diff to `target`, overwriting the modified runs.
    pub fn apply(&self, target: &mut Page) {
        for (offset, bytes) in self.runs() {
            target.write(offset, bytes);
        }
    }

    /// Apply the diff to `target`, drawing any copy-on-write buffer from
    /// `pool` (the home's apply path).
    pub fn apply_pooled(&self, target: &mut Page, pool: &mut PagePool) {
        for (offset, bytes) in self.runs() {
            target.write_pooled(pool, offset, bytes);
        }
    }

    /// Total number of modified bytes carried by the diff.
    pub fn payload_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Encoded size in bytes: payload plus the varint run and diff headers.
    /// Matches `wire::put_diff` exactly (asserted by a codec unit test);
    /// used for log-size accounting and traffic statistics.
    pub fn wire_size(&self) -> usize {
        self.wire_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(proc_: usize, seq: u32) -> Interval {
        Interval { proc: proc_, seq }
    }

    fn runs_of(d: &Diff) -> Vec<(usize, Vec<u8>)> {
        d.runs().map(|(o, b)| (o, b.to_vec())).collect()
    }

    #[test]
    fn unchanged_page_yields_no_diff() {
        let p = Page::zeroed(128);
        assert!(Diff::create(PageId(0), iv(0, 1), &p, &p.clone()).is_none());
    }

    #[test]
    fn diff_captures_exactly_the_modified_words() {
        let twin = Page::zeroed(128);
        let mut cur = twin.clone();
        cur.write(16, &[1, 2, 3]); // word 2
        cur.write(120, &[9]); // last word
        let d = Diff::create(PageId(3), iv(1, 4), &twin, &cur).unwrap();
        let runs = runs_of(&d);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, 16);
        assert_eq!(runs[0].1.len(), PAGE_ALIGN_WORD);
        assert_eq!(runs[1].0, 120);

        let mut replay = Page::zeroed(128);
        d.apply(&mut replay);
        assert_eq!(replay.bytes(), cur.bytes());
    }

    #[test]
    fn adjacent_modified_words_merge_into_one_run() {
        let twin = Page::zeroed(128);
        let mut cur = twin.clone();
        cur.write(8, &[1u8; 24]); // words 1..=3
        let d = Diff::create(PageId(0), iv(0, 1), &twin, &cur).unwrap();
        let runs = runs_of(&d);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, 8);
        assert_eq!(runs[0].1.len(), 24);
    }

    #[test]
    fn apply_to_diverged_base_only_touches_modified_words() {
        // Multiple-writer semantics: applying a diff on a page that has
        // concurrent writes elsewhere must not clobber them.
        let twin = Page::zeroed(64);
        let mut writer_a = twin.clone();
        writer_a.write(0, &[0xAA; 8]);
        let da = Diff::create(PageId(0), iv(0, 1), &twin, &writer_a).unwrap();

        let mut home = twin.clone();
        home.write(32, &[0xBB; 8]); // concurrent independent write
        da.apply(&mut home);
        assert_eq!(home.read(0, 8), &[0xAA; 8]);
        assert_eq!(home.read(32, 8), &[0xBB; 8]);
    }

    #[test]
    fn wire_size_counts_payload_and_headers() {
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[1; 8]);
        let d = Diff::create(PageId(0), iv(0, 1), &twin, &cur).unwrap();
        assert_eq!(d.payload_bytes(), 8);
        // Page, proc, seq and run count (a byte each), then the run's gap
        // and length (a byte each) and its word.
        assert_eq!(d.wire_size(), 4 + 2 + 8);
        // A varint grows a byte every seven bits: page 200, seq 20,000, a
        // run 128 words past the start.
        let mut far = Page::zeroed(2048);
        far.write(1024, &[1; 8]);
        let d = Diff::create(PageId(200), iv(3, 20_000), &Page::zeroed(2048), &far).unwrap();
        assert_eq!(d.wire_size(), (2 + 1 + 3 + 1) + (2 + 1) + 8);
    }

    /// The two shapes the benchmark leans on: a `diff_fanin` diff (32
    /// one-word runs, one in each 16-word slot of a 4 KiB page) and a whole
    /// page. Fixed-width fields, 16 bytes a diff and 8 a run, would spend
    /// 528 and 4,120.
    #[test]
    fn a_fanin_diff_and_a_whole_page_are_pinned() {
        let twin = Page::zeroed(4096);
        let mut sparse = twin.clone();
        for slot in 0..32 {
            sparse.write(slot * 128 + 16 * (slot % 7), &[1; 8]);
        }
        let d = Diff::create(PageId(40), iv(1, 1000), &twin, &sparse).unwrap();
        assert_eq!((d.run_count(), d.wire_size()), (32, 5 + 32 * (2 + 8)));
        let d = Diff::create(PageId(40), iv(1, 7), &twin, &Page::from_bytes(&[7; 4096])).unwrap();
        assert_eq!(d.wire_size(), 4 + 3 + 4096);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn from_runs_refuses_runs_out_of_order() {
        let word = [1u8; 8];
        Diff::from_runs(PageId(0), iv(0, 1), [(16, &word[..]), (8, &word[..])]);
    }

    #[test]
    fn scratch_is_reusable_across_diffs() {
        let mut scratch = DiffScratch::new();
        let twin = Page::zeroed(128);
        let mut cur1 = twin.clone();
        cur1.write(0, &[1; 16]);
        let mut cur2 = twin.clone();
        cur2.write(64, &[2; 8]);
        let d1 = Diff::create_with(&mut scratch, PageId(0), iv(0, 1), &twin, &cur1).unwrap();
        let d2 = Diff::create_with(&mut scratch, PageId(1), iv(0, 1), &twin, &cur2).unwrap();
        assert_eq!(runs_of(&d1), vec![(0, vec![1; 16])]);
        assert_eq!(runs_of(&d2), vec![(64, vec![2; 8])]);
    }

    #[test]
    fn from_runs_matches_create() {
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(8, &[7; 8]);
        cur.write(40, &[9; 16]);
        let d = Diff::create(PageId(2), iv(1, 3), &twin, &cur).unwrap();
        let rebuilt = Diff::from_runs(PageId(2), iv(1, 3), d.runs().map(|(o, b)| (o as u32, b)));
        assert_eq!(d, rebuilt);
    }
}
