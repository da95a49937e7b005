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
//! `memcmp`. A diff is its run section — the encoding a message and a log
//! save carry — in one immutable buffer (`Arc<[u8]>`), written in one pass
//! through a reused [`DiffScratch`], so a diff costs exactly one buffer no
//! matter how many runs it has, and cloning, logging or sending a diff
//! never copies or re-encodes it.

use std::ops::Range;
use std::sync::Arc;

use crate::addr::PageId;
use crate::page::{Page, PAGE_ALIGN_WORD};
use crate::pool::PagePool;
use crate::runs::{
    put_runs, put_varint, varint_len, RunSection, RunSectionLen, Runs, SectionError,
};
use crate::version::Interval;

/// Block size of the coarse scan in [`Diff::create_with`] and
/// [`for_each_nonzero_run`]: each block is condensed into a per-word dirty
/// bitmask in one pass, and only mixed (partially dirty) blocks pay per-run
/// bookkeeping.
const DIFF_BLOCK: usize = 8 * PAGE_ALIGN_WORD;

/// Reusable scratch space for [`Diff::create_with`]: one per node, so
/// steady-state diff creation does not grow fresh vectors per run.
#[derive(Debug, Default)]
pub struct DiffScratch {
    /// The run section being written.
    buf: Vec<u8>,
    /// `(page_offset, end)` of each run found by the scan; the section is
    /// written once every run is known, since it starts with their count.
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
/// payload copies. Its runs are held as their encoding, the run section
/// ([`crate::runs`]) that follows the header on the wire and in a log save.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diff {
    /// The page this diff applies to.
    pub page: PageId,
    /// The interval in which the writes were performed. Applying the diff at
    /// the home advances the page version vector entry for `interval.proc`
    /// to `interval.seq`.
    pub interval: Interval,
    /// Number of runs in `section`.
    run_count: u32,
    /// Bytes the runs carry.
    payload: u32,
    /// The run section: runs in increasing offset order, non-overlapping.
    section: Arc<[u8]>,
}

/// Report each maximal run of dirty words of a `len`-byte page as its
/// `(offset, end)` byte span, in increasing order. `mask_of` condenses the
/// 64-byte block at a byte range into a per-word dirty bitmask; the walk
/// then jumps from one clean/dirty transition to the next with
/// `trailing_zeros`, so an all-clean or all-dirty block — the two common
/// shapes — costs one test and a mixed block one step per run edge.
#[inline(always)]
fn scan_runs(len: usize, mask_of: impl Fn(Range<usize>) -> u64, mut run: impl FnMut(usize, usize)) {
    let mut open: Option<usize> = None; // offset where the open run began
    let mut base = 0;
    while base < len {
        let end = (base + DIFF_BLOCK).min(len);
        let (mask, words) = (mask_of(base..end), (end - base) / PAGE_ALIGN_WORD);
        let mut w = 0;
        while w < words {
            // Words until the next one whose state differs from the run's.
            let flip = (if open.is_some() { !mask } else { mask } >> w).trailing_zeros();
            if flip as usize >= words - w {
                break;
            }
            w += flip as usize;
            let at = base + w * PAGE_ALIGN_WORD;
            match open.take() {
                Some(offset) => run(offset, at),
                None => open = Some(at),
            }
        }
        base = end;
    }
    if let Some(offset) = open {
        run(offset, len);
    }
}

/// Per-word mask of the words in which the block `cur` differs from `twin`.
/// Branchless (eight u64 compares OR-ed together), so it vectorizes —
/// cheaper than a `bcmp` call per block.
#[inline(always)]
fn diff_mask(twin: &[u8], cur: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_ne_bytes(w.try_into().expect("a word is 8 bytes"));
    let words = twin
        .chunks_exact(PAGE_ALIGN_WORD)
        .zip(cur.chunks_exact(PAGE_ALIGN_WORD));
    words.enumerate().fold(0, |mask, (w, (a, b))| {
        mask | u64::from(word(a) != word(b)) << w
    })
}

/// Per-word mask of the non-zero words of the block `cur`: [`diff_mask`]
/// with zero standing in for the twin. A whole block is eight fixed loads
/// OR-ed first, so an all-zero block — most of a cold page — costs one test.
#[inline(always)]
fn nonzero_mask(cur: &[u8]) -> u64 {
    let Ok(block) = <&[u8; DIFF_BLOCK]>::try_from(cur) else {
        return diff_mask(&[0; DIFF_BLOCK][..cur.len()], cur);
    };
    let words: [u64; DIFF_BLOCK / PAGE_ALIGN_WORD] = std::array::from_fn(|w| {
        let word = &block[w * PAGE_ALIGN_WORD..][..PAGE_ALIGN_WORD];
        u64::from_ne_bytes(word.try_into().expect("a word is 8 bytes"))
    });
    if words.iter().fold(0, |any, x| any | x) == 0 {
        return 0;
    }
    let nonzero = words.iter().enumerate();
    nonzero.fold(0, |mask, (w, &x)| mask | u64::from(x != 0) << w)
}

/// Report each maximal run of non-zero 8-byte words of the page `bytes` as
/// its `(offset, end)` byte span, in increasing order: the runs a whole
/// page is encoded as.
pub fn for_each_nonzero_run(bytes: &[u8], run: impl FnMut(usize, usize)) {
    scan_runs(bytes.len(), |at| nonzero_mask(&bytes[at]), run);
}

/// The encoded length of the whole page `bytes` (the layout
/// `wire::put_page_bytes` writes): its length in words as a varint, then
/// the run section of its non-zero words. One scan; nothing is allocated or
/// copied.
pub fn page_wire_size(bytes: &[u8]) -> usize {
    let mut section = RunSectionLen::default();
    for_each_nonzero_run(bytes, |offset, end| section.add(offset, end));
    varint_len((bytes.len() / PAGE_ALIGN_WORD) as u64) + section.len()
}

/// Append a whole page `bytes` as it is encoded: its length in words, then
/// the run section of its non-zero words ([`page_wire_size`] bytes).
pub fn put_page(out: &mut Vec<u8>, bytes: &[u8]) {
    let mut spans = Vec::new();
    for_each_nonzero_run(bytes, |offset, end| spans.push((offset, end)));
    put_varint(out, (bytes.len() / PAGE_ALIGN_WORD) as u64);
    put_runs(
        out,
        spans.len(),
        spans.iter().map(|&(o, e)| (o, &bytes[o..e])),
    );
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
        scratch.spans.clear();
        // The section is written once every run is known (`spans`), so
        // each run is one bulk copy rather than a tiny extend per word.
        let spans = &mut scratch.spans;
        let mask_of = |at: Range<usize>| diff_mask(&a[at.clone()], &b[at]);
        scan_runs(a.len(), mask_of, |offset, end| spans.push((offset, end)));
        debug_assert!(!scratch.spans.is_empty(), "unequal pages must yield runs");
        let runs = scratch.spans.iter().map(|&(o, e)| (o, &b[o..e]));
        put_runs(&mut scratch.buf, scratch.spans.len(), runs);
        let payload = scratch.spans.iter().map(|&(o, e)| e - o).sum::<usize>();
        Some(Diff {
            page,
            interval,
            run_count: scratch.spans.len() as u32,
            payload: payload as u32,
            section: Arc::from(&scratch.buf[..]),
        })
    }

    /// Build a diff from explicit `(offset, bytes)` runs.
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
        let runs: Vec<_> = runs.into_iter().collect();
        let mut end = 0;
        for &(offset, bytes) in &runs {
            let (word, len) = (PAGE_ALIGN_WORD as u32, bytes.len() as u32);
            assert!(
                len > 0 && offset >= end && offset.is_multiple_of(word) && len.is_multiple_of(word),
                "run ({offset}, {len}) is empty, unaligned or overlaps one ending at {end}"
            );
            end = offset + len;
        }
        let mut section = Vec::new();
        put_runs(
            &mut section,
            runs.len(),
            runs.iter().map(|&(o, b)| (o as usize, b)),
        );
        Diff {
            page,
            interval,
            run_count: runs.len() as u32,
            payload: runs.iter().map(|(_, b)| b.len() as u32).sum(),
            section: Arc::from(section),
        }
    }

    /// Decode a diff whose header the caller has read: check the run
    /// section `bytes` starts with and copy exactly it, in one allocation.
    /// What [`RunSection::check`] refuses is an error, never a diff.
    pub fn from_section(
        page: PageId,
        interval: Interval,
        bytes: &[u8],
    ) -> Result<Diff, SectionError> {
        let section = RunSection::check(bytes)?;
        Ok(Diff {
            page,
            interval,
            run_count: section.run_count() as u32,
            payload: section.payload_bytes() as u32,
            section: Arc::from(section.bytes()),
        })
    }

    /// The modified runs as `(page_offset, bytes)` pairs, in increasing
    /// offset order, decoded from the section as they are iterated.
    pub fn runs(&self) -> Runs<'_> {
        Runs::of(&self.section)
    }

    /// Number of modified runs.
    pub fn run_count(&self) -> usize {
        self.run_count as usize
    }

    /// The run section, exactly as the diff is encoded after its header.
    pub fn section(&self) -> &[u8] {
        &self.section
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
        self.payload as usize
    }

    /// Encoded size in bytes, what `wire::put_diff` writes: page id,
    /// interval proc and interval seq as varints, then the stored section.
    /// Used for log-size accounting and traffic statistics.
    pub fn wire_size(&self) -> usize {
        let header = [
            self.page.0.into(),
            self.interval.proc as u64,
            self.interval.seq.into(),
        ];
        header.into_iter().map(varint_len).sum::<usize>() + self.section.len()
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
    /// 528 and 4,120. The fanin diff stores its section byte for byte: the
    /// run count, then per run a one-byte gap, a one-word length and the
    /// word.
    #[test]
    fn a_fanin_diff_and_a_whole_page_are_pinned() {
        let twin = Page::zeroed(4096);
        let mut sparse = twin.clone();
        let mut section = vec![32];
        for slot in 0..32 {
            let word = slot * 16 + 2 * (slot % 7);
            sparse.write(word * 8, &[1; 8]);
            let end = if slot == 0 {
                0
            } else {
                (slot - 1) * 16 + 2 * ((slot - 1) % 7) + 1
            };
            section.extend([(word - end) as u8, 1]);
            section.extend([1; 8]);
        }
        let d = Diff::create(PageId(40), iv(1, 1000), &twin, &sparse).unwrap();
        assert_eq!((d.run_count(), d.wire_size()), (32, 5 + 32 * (2 + 8)));
        assert_eq!((d.section(), d.payload_bytes()), (&section[..], 32 * 8));
        let d = Diff::create(PageId(40), iv(1, 7), &twin, &Page::from_bytes(&[7; 4096])).unwrap();
        assert_eq!(d.wire_size(), 4 + 3 + 4096);
        assert_eq!(d.section()[..4], [1, 0, 0x80, 0x04]);
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

    /// A checked section is copied as it is; what the check refuses is an
    /// error, and bytes past the section are not the diff's.
    #[test]
    fn from_section_keeps_exactly_the_checked_section() {
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(8, &[7; 8]);
        cur.write(40, &[9; 16]);
        let d = Diff::create(PageId(2), iv(1, 3), &twin, &cur).unwrap();
        let trailing = [d.section(), &[0xFF]].concat();
        assert_eq!(
            Diff::from_section(PageId(2), iv(1, 3), &trailing),
            Ok(d.clone())
        );
        let cut = &d.section()[..d.section().len() - 1];
        assert!(Diff::from_section(PageId(2), iv(1, 3), cut).is_err());
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
