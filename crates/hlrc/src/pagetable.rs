//! Per-node page state.
//!
//! Each node sees every shared page as either *homed here* (it holds the
//! authoritative copy and its version vector `p.v`) or *remote* (it may hold
//! a cached copy, which write notices invalidate).
//!
//! Writes are detected at the API boundary (see DESIGN.md: this substitutes
//! for the paper's mprotect/SIGSEGV machinery): the first write to a page in
//! an interval creates a *twin*; at interval end, [`PageTable::end_interval`]
//! turns twins into word-granularity diffs exactly as HLRC does.
//!
//! Home-page state itself lives in the sharded [`HomeStore`], shared with
//! the service thread's lock-free-of-the-big-lock fast path; this table
//! keeps the remote-page cache (application-thread state under the node's
//! big lock) plus a slot marker recording where each page is homed.

use std::sync::Arc;

use dsm_page::{
    Diff, DiffScratch, Interval, Page, PageId, PagePool, PoolStats, ProcId, VectorClock,
};

use crate::homestore::{DiffJob, Have, HomeStore, PageBody};

/// Validity of a cached remote page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// No usable local copy; the next access must fetch from the home.
    Invalid,
    /// The cached copy satisfies every invalidation seen so far.
    Valid,
}

/// What became of the copy this node last held of a remote page — what a
/// prefetch goes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Held {
    /// No copy since the page was added or the node restarted: nothing says
    /// the page is wanted, so a notice naming it fetches nothing. The first
    /// touch asks for it — or, when nothing has named it, installs the zero
    /// page ([`PageTable::install_zero`]).
    Never,
    /// The copy was read or written since its `install`.
    Used,
    /// The copy was installed and nothing has touched it since.
    Unused,
}

/// State for a page homed elsewhere.
#[derive(Debug)]
pub struct PageMeta {
    /// The page's home node.
    pub home: ProcId,
    /// Validity of `copy`.
    pub state: PageState,
    /// Cached copy: current when `state == Valid`; when `Invalid`, kept only
    /// with a `base` for the home's diffs to bring up to date.
    pub copy: Option<Page>,
    /// Minimal version the next fetch must include: the join of the
    /// invalidations, and of this node's own intervals that diffed the page
    /// (which invalidate nothing).
    pub needed: VectorClock,
    /// The `(home incarnation, version)` `copy` is *exactly* — the version
    /// of the reply that installed it joined with our own intervals flushed
    /// since — or `None` when that is not known: the copy then goes at the
    /// next invalidation and the refetch moves the page.
    pub base: Option<Have>,
    /// Was the copy this node last held read or written — or has it held
    /// none? `Never` for a new page, `Unused` from `install`, `Used` from
    /// the first access of the new copy. Whoever prefetches invalidated
    /// pages asks only for `Used` ones: the others went unread last time or
    /// were never wanted. Volatile — in no checkpoint, `Never` again after a
    /// restart.
    pub held: Held,
}

impl PageMeta {
    /// Note an access of the copy; true when it is the first since `install`
    /// (the common later access stores nothing).
    fn touch(&mut self) -> bool {
        let first = self.held != Held::Used;
        if first {
            self.held = Held::Used;
        }
        first
    }
}

#[derive(Debug)]
enum Entry {
    /// Homed here; the data lives in the [`HomeStore`].
    Home,
    Remote(PageMeta),
}

#[derive(Debug)]
struct Slot {
    entry: Entry,
    /// Pre-write copy for the current interval; `Some` iff this node wrote
    /// the (remote) page in the current interval. Home twins live in the
    /// home store, under the same shard lock as the copy they snapshot.
    twin: Option<Page>,
}

/// What an access needs before it can proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The local copy is usable.
    Ready,
    /// Fetch the page from `home` with at least version `needed` (for homed
    /// pages this means: wait until in-flight diffs arrive).
    NeedFetch {
        /// The page's home node.
        home: ProcId,
        /// Minimal version the fetched copy must include.
        needed: VectorClock,
    },
}

/// The full per-node page table.
#[derive(Debug)]
pub struct PageTable {
    me: ProcId,
    page_size: usize,
    slots: Vec<Slot>,
    /// Sharded authoritative copies of pages homed here, shared with the
    /// service thread.
    home: Arc<HomeStore>,
    /// Free list recycling twin / copy-on-write buffers across intervals
    /// (remote pages; each home-store shard pools its own).
    pool: PagePool,
    /// Reused diff-creation scratch (one per node, per the zero-copy design).
    scratch: DiffScratch,
    /// Remote pages twinned this interval, in twin-creation order — the
    /// dirty set, so the release flush touches only written slots instead of
    /// scanning the whole table. Invariant: a page is listed iff its slot
    /// has a twin (`invalidate` asserts no twin, so entries never go stale).
    twinned: Vec<PageId>,
}

impl PageTable {
    /// An empty table for node `me` of an `n`-node cluster.
    pub fn new(me: ProcId, n: usize, page_size: usize) -> Self {
        PageTable {
            me,
            page_size,
            slots: Vec::new(),
            home: Arc::new(HomeStore::new(n, page_size)),
            pool: PagePool::new(page_size),
            scratch: DiffScratch::new(),
            twinned: Vec::new(),
        }
    }

    /// Cumulative buffer-pool counters (exported through run reports),
    /// merged over the remote-page pool and the home-store shard pools;
    /// `None` while a shard is locked (see [`HomeStore::pool_stats`]).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        let mut stats = self.pool.stats();
        stats.merge(&self.home.pool_stats()?);
        Some(stats)
    }

    /// This node's id.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages in the shared space.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no pages exist yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The shared home store, for the service thread's fast path.
    pub fn home_store(&self) -> Arc<HomeStore> {
        Arc::clone(&self.home)
    }

    /// Append the next shared page, homed at `home`. Every node must call
    /// this in the same order with the same arguments (allocation is a
    /// deterministic SPMD operation). Returns the new page id.
    pub fn add_page(&mut self, home: ProcId) -> PageId {
        let id = PageId(self.slots.len() as u32);
        let entry = if home == self.me {
            self.home.add(id);
            Entry::Home
        } else {
            Entry::Remote(PageMeta {
                home,
                state: PageState::Invalid,
                copy: None,
                needed: VectorClock::zero(self.cluster_size()),
                base: None,
                held: Held::Never,
            })
        };
        self.slots.push(Slot { entry, twin: None });
        id
    }

    fn cluster_size(&self) -> usize {
        // The home store knows `n`; avoid storing it twice.
        self.home.cluster_size()
    }

    /// The home of `page`.
    pub fn home_of(&self, page: PageId) -> ProcId {
        match &self.slots[page.index()].entry {
            Entry::Home => self.me,
            Entry::Remote(m) => m.home,
        }
    }

    /// Is `page` homed at this node?
    pub fn is_home(&self, page: PageId) -> bool {
        matches!(self.slots[page.index()].entry, Entry::Home)
    }

    /// Can `page` be accessed right now, and if not, what fetch is needed?
    pub fn ensure_access(&self, page: PageId) -> AccessOutcome {
        match &self.slots[page.index()].entry {
            Entry::Home => match self.home.access_gap(page) {
                None => AccessOutcome::Ready,
                Some(needed) => AccessOutcome::NeedFetch {
                    home: self.me,
                    needed,
                },
            },
            Entry::Remote(m) => {
                if m.state == PageState::Valid {
                    AccessOutcome::Ready
                } else {
                    AccessOutcome::NeedFetch {
                        home: m.home,
                        needed: m.needed.clone(),
                    }
                }
            }
        }
    }

    /// Copy `dst.len()` bytes at `offset` of a `Ready` page into `dst`.
    /// Returns whether this is the first access of a remote copy since its
    /// `install` (never for a homed page).
    ///
    /// # Panics
    /// If the page is not accessible (callers must first get
    /// [`AccessOutcome::Ready`]).
    pub fn read_into(&mut self, page: PageId, offset: usize, dst: &mut [u8]) -> bool {
        match &mut self.slots[page.index()].entry {
            Entry::Home => {
                self.home.read_into(page, offset, dst);
                false
            }
            Entry::Remote(m) => {
                dst.copy_from_slice(
                    m.copy
                        .as_ref()
                        .filter(|_| m.state == PageState::Valid)
                        .unwrap_or_else(|| panic!("read of invalid page {page}"))
                        .read(offset, dst.len()),
                );
                m.touch()
            }
        }
    }

    /// Write `bytes` at `offset` of a `Ready` page, creating the twin on the
    /// first write of the interval. Returns what [`PageTable::read_into`]
    /// does.
    ///
    /// # Panics
    /// If the page is not accessible.
    pub fn write(&mut self, page: PageId, offset: usize, bytes: &[u8]) -> bool {
        let Self {
            slots,
            pool,
            twinned,
            ..
        } = self;
        let slot = &mut slots[page.index()];
        match &mut slot.entry {
            Entry::Home => {
                self.home.write(page, offset, bytes);
                false
            }
            Entry::Remote(m) => {
                let copy = m
                    .copy
                    .as_mut()
                    .filter(|_| m.state == PageState::Valid)
                    .unwrap_or_else(|| panic!("write to invalid page {page}"));
                if slot.twin.is_none() {
                    slot.twin = Some(copy.twin());
                    twinned.push(page);
                }
                copy.write_pooled(pool, offset, bytes);
                m.touch()
            }
        }
    }

    /// Any pages written (twinned) this interval? O(1): a vec emptiness
    /// check plus one atomic load — the release path's early exit.
    pub fn has_writes(&self) -> bool {
        !self.twinned.is_empty() || self.home.has_writes()
    }

    /// Install a fetched copy of a remote page whose exact version is not
    /// known, adopting the shared buffer: a [`PageBody::Full`] with no base.
    pub fn install_fetch(&mut self, page: PageId, bytes: Arc<[u8]>, version: &VectorClock) {
        self.install(page, PageBody::Full { bytes, base: 0 }, version);
    }

    /// Install the zero page, shared, as the copy of remote `page` at
    /// version zero with no base: what a page no write has reached holds.
    /// The first write copies it, as the twin is taken first.
    pub fn install_zero(&mut self, page: PageId) {
        let bytes = self.home.zero_page().share();
        let version = VectorClock::zero(self.cluster_size());
        self.install(page, PageBody::Full { bytes, base: 0 }, &version);
    }

    /// What a fetch of `page` tells its home this node kept.
    pub fn have(&self, page: PageId) -> Option<&Have> {
        self.remote_meta(page).base.as_ref()
    }

    /// Install the reply to a fetch of a remote page: adopt a full copy's
    /// shared buffer without copying (any replaced copy is recycled into the
    /// pool), or apply a delta's diffs to the kept copy. Returns the bytes
    /// written into the local copy.
    pub fn install(&mut self, page: PageId, body: PageBody, version: &VectorClock) -> usize {
        let Self { slots, pool, .. } = self;
        let Entry::Remote(m) = &mut slots[page.index()].entry else {
            panic!("install on homed page {page}");
        };
        debug_assert!(
            version.covers(&m.needed),
            "fetched copy older than required version"
        );
        m.state = PageState::Valid;
        m.held = Held::Unused;
        match body {
            PageBody::Full { bytes, base } => {
                if let Some(old) = m.copy.replace(Page::from_shared(bytes)) {
                    pool.recycle(old);
                }
                m.base = (base != 0).then(|| (base, version.clone()));
                0
            }
            PageBody::Delta(diffs) => {
                let (copy, (_, exact)) = (m.copy.as_mut())
                    .zip(m.base.as_mut())
                    .expect("delta reply for a page with no kept copy");
                let copied = diffs.iter().map(|d| d.payload_bytes()).sum();
                for d in diffs {
                    d.apply_pooled(copy, pool);
                }
                exact.clone_from(version);
                copied
            }
        }
    }

    /// Apply a write notice: invalidate the cached copy (remote) or record
    /// the pending version (home). Must not be called while the node has an
    /// unflushed twin for the page (sync ops end the interval first).
    pub fn invalidate(&mut self, page: PageId, writer: ProcId, seq: u32) {
        let Self {
            me, slots, pool, ..
        } = self;
        let slot = &mut slots[page.index()];
        assert!(
            slot.twin.is_none(),
            "invalidation with unflushed twin for {page}"
        );
        match &mut slot.entry {
            Entry::Home => self.home.bump_needed(page, writer, seq),
            Entry::Remote(m) => {
                if writer != *me {
                    m.state = PageState::Invalid;
                    // A copy of known version stays: the refetch says which
                    // and the home sends what it is missing.
                    if m.base.is_none() {
                        if let Some(old) = m.copy.take() {
                            pool.recycle(old);
                        }
                    }
                }
                if m.needed.get(writer) < seq {
                    m.needed.set(writer, seq);
                }
            }
        }
    }

    /// End the current interval: turn every twin into a diff, drop the
    /// twins, and (for homed pages) advance `p.v[me]` to the interval.
    ///
    /// Only dirty pages are visited (the `twinned` list and the home
    /// store's dirty shards), and the diffs are created on the calling
    /// thread, *outside* the home shard locks, from copy-on-write
    /// snapshots.
    ///
    /// Returns the diffs in page order, shared: the caller sends those for
    /// remote pages to their homes and (in the fault-tolerant protocol)
    /// appends all of them to the diff logs, and a homed page's ring keeps
    /// the same object. A page written but left with its old bytes yields
    /// no diff.
    pub fn end_interval(&mut self, interval: Interval) -> Vec<Arc<Diff>> {
        debug_assert_eq!(interval.proc, self.me);
        let mut jobs: Vec<DiffJob> = Vec::new();
        for page in std::mem::take(&mut self.twinned) {
            let slot = &mut self.slots[page.index()];
            let Some(twin) = slot.twin.take() else {
                continue;
            };
            let Entry::Remote(m) = &slot.entry else {
                unreachable!("home twins live in the home store");
            };
            let current = m.copy.as_ref().expect("twinned page must be valid");
            jobs.push(DiffJob {
                page,
                twin,
                current: current.clone(),
            });
        }
        jobs.sort_unstable_by_key(|j| j.page.0);
        let mut home_jobs = Vec::new();
        self.home.collect_dirty(interval, &mut home_jobs);
        let Self {
            slots,
            pool,
            scratch,
            ..
        } = self;
        let mut diffs = Vec::new();
        let mut diff_of = |j: &DiffJob| {
            let diff = Diff::create_with(scratch, j.page, interval, &j.twin, &j.current);
            let diff = diff.map(Arc::new);
            diffs.extend(diff.clone());
            diff
        };
        // A twin's buffer is dead once diffed — it goes back for the next
        // interval's copy-on-write (rejected harmlessly if still shared,
        // e.g. by an in-flight page reply).
        for j in jobs {
            if let (Some(_), Entry::Remote(m)) = (diff_of(&j), &mut slots[j.page.index()].entry) {
                // What the copy is exactly now includes this interval.
                if let Some((_, exact)) = &mut m.base {
                    exact.set(interval.proc, interval.seq);
                }
            }
            pool.recycle(j.twin);
        }
        let home_jobs = home_jobs.into_iter();
        let home_jobs = home_jobs.map(|j| (j.page, diff_of(&j), j.twin));
        self.home.finish_dirty(home_jobs);
        diffs.sort_unstable_by_key(|d| d.page.0);
        diffs
    }

    /// Apply a diff at the home. Idempotent: diffs for intervals already
    /// covered by `p.v[writer]` are skipped (replay resends diffs on
    /// purpose). Returns whether the diff was applied.
    ///
    /// # Panics
    /// If this node is not the page's home.
    pub fn home_apply_diff(&mut self, diff: &Arc<Diff>) -> bool {
        use crate::homestore::ApplyOutcome;
        match self.home.apply_diff_kept(diff, || true).0 {
            ApplyOutcome::Applied { fresh, .. } => fresh,
            ApplyOutcome::NotHome => panic!("diff for page {} sent to non-home", diff.page),
            ApplyOutcome::Stale => unreachable!("liveness check is constant"),
        }
    }

    /// Version vector of a page homed here.
    pub fn home_version(&self, page: PageId) -> VectorClock {
        assert!(self.is_home(page), "home_version on remote page {page}");
        self.home.version_of(page)
    }

    /// Zero-copy `(version, bytes)` view of a page homed here.
    pub fn home_snapshot(&self, page: PageId) -> (VectorClock, Arc<[u8]>) {
        assert!(self.is_home(page), "home_snapshot on remote page {page}");
        self.home.snapshot(page)
    }

    /// Has `proc` ever sent a diff for `page` (homed here)?
    pub fn home_writers_contain(&self, page: PageId, proc_: ProcId) -> bool {
        self.home.writers_contain(page, proc_)
    }

    /// Ids of all pages homed at this node, in page order.
    pub fn homed_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        let slots = self.slots.iter().enumerate();
        let homed = slots.filter(|(_, s)| matches!(s.entry, Entry::Home));
        homed.map(|(i, _)| PageId(i as u32))
    }

    /// Remote-page metadata (for checkpointing `needed` and tests).
    pub fn remote_meta(&self, page: PageId) -> &PageMeta {
        match &self.slots[page.index()].entry {
            Entry::Remote(m) => m,
            Entry::Home => panic!("remote_meta on homed page {page}"),
        }
    }

    /// Crash and restart support: drop every cached or kept remote copy and
    /// twin (the crash lost them), every parked remote fetch and every
    /// homed page's diff ring, zero the home copies for the caller to
    /// overwrite from the checkpoint, and set the `needed` vectors from
    /// `needed_by_page` (page, writer, seq) triples saved in the checkpoint.
    /// No remote page has been held since: every one is [`Held::Never`].
    pub fn reset_for_restart(&mut self, needed_by_page: &[(PageId, ProcId, u32)]) {
        let n = self.cluster_size();
        self.home.reset_for_restart();
        self.twinned.clear();
        for slot in &mut self.slots {
            slot.twin = None;
            if let Entry::Remote(m) = &mut slot.entry {
                m.state = PageState::Invalid;
                m.copy = None;
                m.base = None;
                m.held = Held::Never;
                m.needed = VectorClock::zero(n);
            }
        }
        for &(page, writer, seq) in needed_by_page {
            match &mut self.slots[page.index()].entry {
                Entry::Home => self.home.bump_needed(page, writer, seq),
                Entry::Remote(m) => m.needed.set(writer, seq),
            }
        }
    }

    /// Checkpoint support: the (page, writer, seq) triples of every nonzero
    /// `needed` entry.
    pub fn needed_triples(&self) -> Vec<(PageId, ProcId, u32)> {
        let mut out = self.home.needed_triples();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Entry::Remote(m) = &slot.entry {
                for (p, &seq) in m.needed.as_slice().iter().enumerate() {
                    if seq > 0 {
                        out.push((PageId(i as u32), p, seq));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Overwrite the authoritative copy and version of a homed page
    /// (restoring from a checkpoint during recovery).
    pub fn restore_home_page(&mut self, page: PageId, bytes: &[u8], version: VectorClock) {
        assert!(self.is_home(page), "restore of remote page {page}");
        self.home.restore(page, bytes, version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(p: ProcId, s: u32) -> Interval {
        Interval { proc: p, seq: s }
    }

    fn table() -> PageTable {
        // Node 0 of 2; page 0 homed here, page 1 homed at node 1.
        let mut t = PageTable::new(0, 2, 64);
        t.add_page(0);
        t.add_page(1);
        t
    }

    fn read_vec(t: &mut PageTable, page: PageId, offset: usize, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        t.read_into(page, offset, &mut buf);
        buf
    }

    #[test]
    fn home_pages_are_immediately_accessible() {
        let mut t = table();
        assert!(t.is_home(PageId(0)));
        assert_eq!(t.ensure_access(PageId(0)), AccessOutcome::Ready);
        assert_eq!(read_vec(&mut t, PageId(0), 0, 4), &[0, 0, 0, 0]);
    }

    #[test]
    fn remote_pages_start_invalid_and_need_fetch() {
        let t = table();
        assert!(!t.is_home(PageId(1)));
        match t.ensure_access(PageId(1)) {
            AccessOutcome::NeedFetch { home, needed } => {
                assert_eq!(home, 1);
                assert_eq!(needed, VectorClock::zero(2));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn fetch_install_then_write_creates_twin_and_diff() {
        let mut t = table();
        t.install_fetch(PageId(1), vec![0u8; 64].into(), &VectorClock::zero(2));
        assert_eq!(t.ensure_access(PageId(1)), AccessOutcome::Ready);
        t.write(PageId(1), 8, &[42]);
        assert!(t.has_writes());
        let diffs = t.end_interval(iv(0, 1));
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].page, PageId(1));
        assert_eq!(diffs[0].interval, iv(0, 1));
        assert!(!t.has_writes());
    }

    #[test]
    fn home_writes_advance_own_version_at_interval_end() {
        let mut t = table();
        t.write(PageId(0), 0, &[1, 2, 3]);
        assert!(t.has_writes());
        let diffs = t.end_interval(iv(0, 3));
        // The home's own diff is returned (for FT logging) but the copy is
        // already up to date and p.v[0] advanced.
        assert_eq!(diffs.len(), 1);
        assert_eq!(t.home_version(PageId(0)).get(0), 3);
    }

    #[test]
    fn mixed_home_and_remote_writes_diff_in_page_order() {
        // (pages, of which every `home_every`-th is homed here): the
        // two-page table, and a 24-page dirty set of 16 remote + 8 homed.
        for (pages, home_every) in [(2u32, 2u32), (24, 3)] {
            let mut t = PageTable::new(0, 2, 64);
            for p in 0..pages {
                t.add_page(if p % home_every == 0 { 0 } else { 1 });
            }
            let mut expected = Vec::new();
            // Written in descending order; every fifth page (past the first
            // two) is written with the bytes it already holds.
            for p in (0..pages).rev() {
                let page = PageId(p);
                if !t.is_home(page) {
                    t.install_fetch(page, vec![0u8; 64].into(), &VectorClock::zero(2));
                }
                let unchanged = p >= 2 && p % 5 == 0;
                let byte = if unchanged { 0 } else { p as u8 + 1 };
                t.write(page, (p as usize % 8) * 8, &[byte]);
                let twin = Page::zeroed(64);
                let mut current = twin.clone();
                current.write((p as usize % 8) * 8, &[byte]);
                let diff = Diff::create(page, iv(0, 1), &twin, &current);
                assert_eq!(diff.is_none(), unchanged);
                expected.extend(diff.map(Arc::new));
            }
            expected.reverse();
            assert_eq!(t.end_interval(iv(0, 1)), expected);
            assert!(!t.has_writes());
        }
    }

    #[test]
    fn diff_application_is_idempotent_and_ordered() {
        let mut t = table();
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[7; 8]);
        let d = Arc::new(Diff::create(PageId(0), iv(1, 2), &twin, &cur).unwrap());
        assert!(t.home_apply_diff(&d));
        assert!(!t.home_apply_diff(&d)); // duplicate skipped
        assert_eq!(t.home_version(PageId(0)).get(1), 2);
        assert!(t.home_writers_contain(PageId(0), 1));
        assert!(!t.home_writers_contain(PageId(0), 0));
        assert_eq!(read_vec(&mut t, PageId(0), 0, 8), &[7; 8]);
    }

    #[test]
    fn invalidation_forces_refetch_with_higher_version() {
        let mut t = table();
        t.install_fetch(PageId(1), vec![0u8; 64].into(), &VectorClock::zero(2));
        t.invalidate(PageId(1), 1, 4);
        match t.ensure_access(PageId(1)) {
            AccessOutcome::NeedFetch { needed, .. } => assert_eq!(needed.get(1), 4),
            other => panic!("unexpected: {other:?}"),
        }
    }

    fn vc(v: [u32; 2]) -> VectorClock {
        VectorClock::from_vec(v.to_vec())
    }

    /// A full copy of `byte`s that is exactly its reply's version at home
    /// incarnation 1.
    fn base_copy(byte: u8) -> PageBody {
        PageBody::Full {
            bytes: vec![byte; 64].into(),
            base: 1,
        }
    }

    #[test]
    fn an_invalidated_copy_stays_only_when_its_exact_version_is_known() {
        let mut t = table();
        // Known: the copy survives the notice, and the refetch says which
        // version of which incarnation it is.
        assert_eq!(t.install(PageId(1), base_copy(7), &vc([0, 3])), 0);
        t.invalidate(PageId(1), 1, 4);
        assert!(matches!(
            t.ensure_access(PageId(1)),
            AccessOutcome::NeedFetch { .. }
        ));
        // Kept is not readable: an access still panics as on any invalid page.
        let stale_read = std::panic::AssertUnwindSafe(|| read_vec(&mut t, PageId(1), 0, 8));
        assert!(std::panic::catch_unwind(stale_read).is_err());
        assert_eq!(t.have(PageId(1)), Some(&(1, vc([0, 3]))));
        // The delta lands on it: only the diff's bytes are copied.
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(8, &[9; 16]);
        let d = Arc::new(Diff::create(PageId(1), iv(1, 4), &twin, &cur).unwrap());
        assert_eq!(
            t.install(PageId(1), PageBody::Delta(vec![d]), &vc([0, 4])),
            16
        );
        assert_eq!(t.ensure_access(PageId(1)), AccessOutcome::Ready);
        assert_eq!(
            read_vec(&mut t, PageId(1), 0, 32),
            [[7; 8], [9; 8], [9; 8], [7; 8]].concat()
        );
        assert_eq!(t.have(PageId(1)), Some(&(1, vc([0, 4]))));

        // Not known — the home was writing the page when it served it, or
        // recovery's emulated home built it: the copy goes as before.
        let mid_interval = PageBody::Full {
            bytes: vec![5u8; 64].into(),
            base: 0,
        };
        t.install(PageId(1), mid_interval, &vc([0, 4]));
        assert_eq!(t.have(PageId(1)), None);
        t.install_fetch(PageId(1), vec![6u8; 64].into(), &vc([0, 4]));
        assert_eq!(t.have(PageId(1)), None);
        t.invalidate(PageId(1), 1, 5);
        assert!(t.remote_meta(PageId(1)).copy.is_none());
    }

    #[test]
    fn only_a_page_whose_last_copy_was_used_is_marked_for_prefetch() {
        let mut t = table();
        let p = PageId(1);
        let held = |t: &PageTable| t.remote_meta(p).held;
        // Never held: nothing says the page is wanted, and a notice naming
        // it says so no more than before.
        assert_eq!(held(&t), Held::Never);
        t.invalidate(p, 1, 1);
        assert_eq!(held(&t), Held::Never);
        // A copy invalidated unread is not wanted again, however many
        // notices follow — and stays, with its version, for the delta the
        // miss that does come asks for.
        t.install(p, base_copy(7), &vc([0, 1]));
        for seq in 2..5 {
            t.invalidate(p, 1, seq);
            assert!(held(&t) == Held::Unused && t.remote_meta(p).copy.is_some());
            assert_eq!(t.have(p), Some(&(1, vc([0, 1]))));
        }
        // One read, or one write, of the copy that miss fetches and the
        // page is wanted again.
        for (seq, write) in [(5, false), (6, true)] {
            t.install(p, base_copy(8), &vc([0, seq - 1]));
            assert_eq!(held(&t), Held::Unused);
            let access = |t: &mut PageTable| match write {
                true => t.write(p, 0, &[1]),
                false => t.read_into(p, 0, &mut [0u8; 8]),
            };
            assert!(access(&mut t), "first access of the copy");
            assert!(!access(&mut t), "second access of the copy");
            t.end_interval(iv(0, seq));
            t.invalidate(p, 1, seq);
            assert_eq!(held(&t), Held::Used);
        }
        // Homed pages have no such state: an access of one is never a first.
        assert!(!t.write(PageId(0), 0, &[1]) && !t.read_into(PageId(0), 0, &mut [0u8; 8]));
    }

    #[test]
    fn a_readers_own_flushed_write_set_back_by_a_later_writer_comes_back_in_the_delta() {
        // Node 0 reads and writes page 1; `home` is node 1's store for it.
        let home = HomeStore::new(2, 64);
        home.add(PageId(1));
        let fetch = |t: &PageTable, needed: VectorClock| {
            let req = crate::WaitingFetch {
                from: 0,
                page: PageId(1),
                needed,
                req_id: 0,
            };
            match home.serve_fetch_have(req, t.have(PageId(1)), || true).0 {
                crate::FetchOutcome::Ready(version, body) => (version, body),
                other => panic!("unexpected: {other:?}"),
            }
        };
        let mut t = table();
        let (v, body) = fetch(&t, vc([0, 0]));
        t.install(PageId(1), body, &v);
        // We set word 0 to x and flush: the copy is exactly [1,0] now.
        t.write(PageId(1), 0, &[0xAA; 8]);
        let own = t.end_interval(iv(0, 1));
        assert_eq!(t.have(PageId(1)), Some(&(1, vc([1, 0]))));
        home.apply_diff_kept(&own[0], || true);
        // The home's next interval sets it back. A diff of the page against
        // the copy we were served would not name the word.
        home.write(PageId(1), 0, &[0; 8]);
        let mut jobs = Vec::new();
        home.collect_dirty(iv(1, 1), &mut jobs);
        home.finish_dirty(jobs.into_iter().map(|j| {
            let back = Diff::create(j.page, iv(1, 1), &j.twin, &j.current).unwrap();
            (j.page, Some(Arc::new(back)), j.twin)
        }));
        t.invalidate(PageId(1), 1, 1);
        let (v, body) = fetch(&t, vc([0, 1]));
        // Only the home's diff travels: ours is part of what we have.
        let PageBody::Delta(diffs) = &body else {
            panic!("expected a delta")
        };
        assert_eq!(
            diffs.iter().map(|d| d.interval).collect::<Vec<_>>(),
            [iv(1, 1)]
        );
        assert_eq!(t.install(PageId(1), body, &v), 8);
        assert_eq!(
            read_vec(&mut t, PageId(1), 0, 64),
            &home.snapshot(PageId(1)).1[..]
        );
        assert_eq!(t.have(PageId(1)), Some(&(1, vc([1, 1]))));
    }

    #[test]
    fn a_write_to_a_zero_filled_copy_leaves_every_other_zero_page_at_zero() {
        // Node 0 of 2: pages 0 and 2 homed here, 1 and 3 at node 1. Every
        // one of them is a share of the one zero buffer.
        let mut t = table();
        t.add_page(0);
        t.add_page(1);
        for p in [1, 3] {
            t.install_zero(PageId(p));
            assert_eq!(t.ensure_access(PageId(p)), AccessOutcome::Ready);
            assert_eq!(t.have(PageId(p)), None);
        }
        let zero = t.home.zero_page().share();
        let buffer = |t: &PageTable, p| match t.is_home(PageId(p)) {
            true => t.home_snapshot(PageId(p)).1,
            false => t.remote_meta(PageId(p)).copy.as_ref().unwrap().share(),
        };
        assert!((0..4).all(|p| Arc::ptr_eq(&buffer(&t, p), &zero)));

        t.write(PageId(1), 8, &[5; 8]);
        t.write(PageId(0), 16, &[6; 8]);
        let zeros = vec![0u8; 64];
        for p in [2, 3] {
            assert_eq!(read_vec(&mut t, PageId(p), 0, 64), zeros);
        }
        assert_eq!(&zero[..], &zeros[..]);
        t.add_page(0);
        assert_eq!(read_vec(&mut t, PageId(4), 0, 64), zeros);
        // Each write diffs against the zero twin: its own word only.
        let diffs = t.end_interval(iv(0, 1));
        let runs = |d: &Diff| d.runs().map(|(o, b)| (o, b.to_vec())).collect::<Vec<_>>();
        assert_eq!(runs(&diffs[0]), [(16, vec![6; 8])]);
        assert_eq!(runs(&diffs[1]), [(8, vec![5; 8])]);
    }

    #[test]
    fn own_write_notice_does_not_invalidate_own_copy() {
        let mut t = table();
        t.install_fetch(PageId(1), vec![0u8; 64].into(), &VectorClock::zero(2));
        // A notice about our own interval comes back via a barrier: the
        // local copy already contains those writes.
        t.invalidate(PageId(1), 0, 1);
        assert_eq!(t.ensure_access(PageId(1)), AccessOutcome::Ready);
    }

    #[test]
    fn home_access_waits_for_pending_diffs() {
        let mut t = table();
        t.invalidate(PageId(0), 1, 2); // notice arrived before the diff
        match t.ensure_access(PageId(0)) {
            AccessOutcome::NeedFetch { home, needed } => {
                assert_eq!(home, 0);
                assert_eq!(needed.get(1), 2);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Diff arrives: accessible again.
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[1; 8]);
        let d = Arc::new(Diff::create(PageId(0), iv(1, 2), &twin, &cur).unwrap());
        t.home_apply_diff(&d);
        assert_eq!(t.ensure_access(PageId(0)), AccessOutcome::Ready);
    }

    #[test]
    fn restart_reset_drops_copies_and_restores_needed() {
        // Node 0 of 2; pages 1 to 4 homed at node 1. Page 1 is valid and
        // used, 2 valid and unused, 3 kept across a notice with its version,
        // unused, and 4 was never held but a notice named it.
        let mut t = table();
        for _ in 0..3 {
            t.add_page(1);
        }
        for page in 1..4 {
            t.install(PageId(page), base_copy(1), &VectorClock::zero(2));
        }
        t.read_into(PageId(1), 0, &mut [0u8; 8]);
        for page in [3, 4] {
            t.invalidate(PageId(page), 1, 1);
        }
        let held = |t: &PageTable| {
            (1..5)
                .map(|p| t.remote_meta(PageId(p)).held)
                .collect::<Vec<_>>()
        };
        let (used, unused) = (Held::Used, Held::Unused);
        assert_eq!(held(&t), [used, unused, unused, Held::Never]);
        assert!(t.have(PageId(3)).is_some());
        t.reset_for_restart(&[(PageId(3), 1, 7)]);
        // Every copy is lost with everything else: no page has been held.
        assert_eq!(held(&t), [Held::Never; 4]);
        for page in 1..5 {
            let m = t.remote_meta(PageId(page));
            assert!(m.state == PageState::Invalid && m.copy.is_none() && m.base.is_none());
        }
        // What is needed is what the checkpoint saved.
        match t.ensure_access(PageId(3)) {
            AccessOutcome::NeedFetch { needed, .. } => assert_eq!(needed.get(1), 7),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(t.remote_meta(PageId(4)).needed, vc([0, 0]));
    }

    #[test]
    fn needed_triples_roundtrip_through_reset() {
        let mut t = table();
        t.invalidate(PageId(1), 1, 3);
        t.invalidate(PageId(0), 1, 5);
        let mut triples = t.needed_triples();
        triples.sort();
        let mut t2 = table();
        t2.reset_for_restart(&triples);
        assert_eq!(t2.needed_triples().len(), 2);
        assert_eq!(t2.remote_meta(PageId(1)).needed.get(1), 3);
        match t2.ensure_access(PageId(0)) {
            AccessOutcome::NeedFetch { needed, .. } => assert_eq!(needed.get(1), 5),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
