//! Sharded store of home-page state.
//!
//! The authoritative copies a node homes — page bytes, version vector
//! `p.v`, pending `needed` version, writer set, and the current interval's
//! twin — live here behind per-shard locks instead of the node's big state
//! lock. That lets the service thread serve `PageReq` traffic and apply
//! incoming diffs concurrently with application compute, which only touches
//! the shards it reads or writes.
//!
//! Lock hierarchy (see DESIGN.md): shard locks are *leaf* locks. A thread
//! holding a shard lock must not acquire the node's big lock, the sync-state
//! lock, or another shard lock (the few whole-store walks lock shards one at
//! a time in ascending order). Both the application thread (via
//! [`crate::PageTable`]) and the service thread (directly, through a shared
//! `Arc<HomeStore>`) take the same per-shard locks, so per-page operations
//! interleave exactly as they did under the big lock — just page-wise
//! instead of node-wise.
//!
//! A homed page holds no state until its first change — an own write, an
//! applied diff, a notice, a want or a restore — so what the store costs
//! grows with the pages used, not the pages allocated. Until then every read
//! answers it as the zero page at version zero, with an empty ring, no
//! writers and no wants, which is what its contents are.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dsm_page::{Diff, Interval, Page, PageId, PagePool, PoolStats, ProcId, VectorClock};
use parking_lot::Mutex;

pub use crate::outcome::{ApplyOutcome, FetchOutcome, ReadyFetch, WaitingFetch};
use crate::ring::DiffRing;
use crate::wants::{Wanted, Wants};

/// One dirty page to diff: its pre-write twin and current contents (both
/// CoW handles — cloning them shares buffers).
#[derive(Debug)]
pub struct DiffJob {
    /// The dirty page.
    pub page: PageId,
    /// Pre-write snapshot from the first write of the interval.
    pub twin: Page,
    /// The page's contents at interval end.
    pub current: Page,
}

/// Number of shards. Pages map to shards by `page % NUM_SHARDS`, so
/// consecutive pages — the common access pattern — spread across shards.
pub const NUM_SHARDS: usize = 8;

/// What a reader that kept its stale copy tells the home: the copy is
/// *exactly* this version of the page as this home incarnation served it.
pub type Have = (u32, VectorClock);

/// What a fetch reply carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageBody {
    /// The whole page, a zero-copy share of the home copy.
    Full {
        /// The page contents.
        bytes: Arc<[u8]>,
        /// The home's incarnation when the bytes are exactly the reply's
        /// version — a copy a later delta can build on. 0 when they are
        /// not: the home's own open interval has written the page, and a
        /// word it set and set back would be in no later diff.
        base: u32,
    },
    /// The diffs the requester's kept copy is missing, in the order the
    /// home applied them; applying them yields exactly the reply's version.
    Delta(Vec<Arc<Diff>>),
}

/// State for one page homed at this node that a change has reached.
#[derive(Debug)]
struct HomeEntry {
    /// The authoritative copy.
    copy: Page,
    /// Pre-write snapshot for the current interval; `Some` iff the home
    /// node itself wrote the page in the current interval.
    twin: Option<Page>,
    /// `p.v`: the most recent interval of each writer applied to the copy.
    version: VectorClock,
    /// Minimal version local accesses must observe (bumped by write
    /// notices; accesses wait until `version` covers it, since diffs travel
    /// separately from notices).
    needed: VectorClock,
    /// Processes that have ever sent diffs for this page (targets for the
    /// lazy `p0.v` piggyback of the CGC/LLT scheme).
    writers: Vec<ProcId>,
    /// The last page's worth of diffs applied to `copy`.
    ring: DiffRing,
    /// What [`HomeStore::push`] may answer peers with (`crate::wants`).
    wants: Wants,
}

impl HomeEntry {
    /// A page no change has reached: a share of `zero` at version zero.
    fn untouched(zero: Page, n: usize) -> Self {
        HomeEntry {
            copy: zero,
            twin: None,
            version: VectorClock::zero(n),
            needed: VectorClock::zero(n),
            writers: Vec::new(),
            ring: DiffRing::new(VectorClock::zero(n)),
            wants: Wants::default(),
        }
    }

    /// The answer to a requester that kept `have`, for a fetch the copy
    /// covers: the copy's version, and the ring's diffs `have` is missing
    /// when it names this incarnation and covers the ring's base, the page
    /// otherwise.
    fn answer(&self, incarnation: u32, have: Option<&Have>) -> (VectorClock, PageBody) {
        let body = match have {
            Some((inc, v))
                if *inc == incarnation && !self.ring.own_pending && v.covers(&self.ring.base) =>
            {
                let missing = self
                    .ring
                    .diffs
                    .iter()
                    .filter(|d| !v.covers_interval(d.interval));
                PageBody::Delta(missing.cloned().collect())
            }
            _ => PageBody::Full {
                bytes: self.copy.share(),
                base: if self.twin.is_none() { incarnation } else { 0 },
            },
        };
        (self.version.clone(), body)
    }
}

/// One shard's homed pages: bit `page / NUM_SHARDS` is set iff the page is
/// homed here.
#[derive(Debug, Default)]
struct Members(Vec<u64>);

impl Members {
    fn contains(&self, page: u32) -> bool {
        let i = page as usize / NUM_SHARDS;
        self.0.get(i / 64).is_some_and(|m| m >> (i % 64) & 1 == 1)
    }

    /// Record `page` as homed here; false if it already was.
    fn insert(&mut self, page: u32) -> bool {
        let (fresh, i) = (!self.contains(page), page as usize / NUM_SHARDS);
        self.0.resize(self.0.len().max(i / 64 + 1), 0);
        self.0[i / 64] |= 1 << (i % 64);
        fresh
    }
}

/// One shard's homed pages, and the entries of those a change has reached.
#[derive(Debug, Default)]
struct Homed {
    members: Members,
    entries: HashMap<u32, HomeEntry>,
}

impl Homed {
    /// The state of `page`: its entry, or `untouched` when it has none;
    /// `None` when it is not homed here.
    fn get<'a>(&'a self, page: u32, untouched: &'a HomeEntry) -> Option<&'a HomeEntry> {
        match self.entries.get(&page) {
            Some(e) => Some(e),
            None => self.members.contains(page).then_some(untouched),
        }
    }

    /// `page`'s entry for a change, created as `untouched` is at the first.
    fn get_mut(&mut self, page: u32, untouched: &HomeEntry) -> Option<&mut HomeEntry> {
        let fresh = || HomeEntry::untouched(untouched.copy.clone(), untouched.version.len());
        let homed = self.members.contains(page);
        homed.then(|| self.entries.entry(page).or_insert_with(fresh))
    }
}

fn not_homed(page: PageId) -> ! {
    panic!("page {page} not homed here")
}

/// One lock's worth of the store: the pages `page % NUM_SHARDS` selects.
#[derive(Debug)]
struct Shard {
    homed: Homed,
    /// Fetches parked until in-flight diffs arrive, each beside what its
    /// requester kept.
    waiting: Vec<(WaitingFetch, Option<Have>)>,
    /// Buffer pool for this shard's copy-on-write and diff application.
    pool: PagePool,
    /// Pages twinned this interval (dirty set), in twin-creation order.
    /// Invariant: a page is listed here iff its entry has a twin, so the
    /// release flush visits exactly the dirty pages instead of scanning
    /// every entry.
    dirty: Vec<u32>,
}

/// The sharded home-page store. Shared as `Arc<HomeStore>` between the
/// page table (application thread) and the service thread's fast path.
#[derive(Debug)]
pub struct HomeStore {
    shards: Vec<Mutex<Shard>>,
    /// Bit `s` set iff shard `s` has a nonempty dirty set — lets
    /// [`HomeStore::has_writes`] answer without taking any shard lock, and
    /// the flush visit only dirty shards. Only the application thread
    /// creates twins, so `Relaxed` ordering suffices.
    dirty_mask: AtomicU32,
    /// Which life of this home its copies and rings belong to; a restart
    /// begins the next (standing in for a boot nonce). Never 0, which in a
    /// reply means "not a base". Read under a shard lock past the `live`
    /// check; [`HomeStore::reset_for_restart`] advances it while that check
    /// fails and then takes every shard lock.
    incarnation: AtomicU32,
    /// Per peer, how many pages it wants ([`HomeEntry::wants`]).
    wanted: Wanted,
    /// What a homed page with no entry is: a share of the zero page — which
    /// the page table's copy of a remote page no write has reached shares
    /// too — at version zero, with an empty ring, no writers and no wants.
    /// The page's entry is created as it is at the page's first change.
    untouched: HomeEntry,
    n: usize,
    page_size: usize,
}

fn shard_of(page: PageId) -> usize {
    page.0 as usize % NUM_SHARDS
}

impl HomeStore {
    /// An empty store for one node of an `n`-node cluster.
    pub fn new(n: usize, page_size: usize) -> Self {
        HomeStore {
            shards: (0..NUM_SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        homed: Homed::default(),
                        waiting: Vec::new(),
                        pool: PagePool::new(page_size),
                        dirty: Vec::new(),
                    })
                })
                .collect(),
            dirty_mask: AtomicU32::new(0),
            incarnation: AtomicU32::new(1),
            wanted: Wanted::new(n),
            untouched: HomeEntry::untouched(Page::zeroed(page_size), n),
            n,
            page_size,
        }
    }

    /// The node's one zero page, shared: a write to a clone copies it.
    pub fn zero_page(&self) -> Page {
        self.untouched.copy.clone()
    }

    /// Register a new page homed at this node. It holds no state until its
    /// first change.
    pub fn add(&self, page: PageId) {
        let shard = &mut *self.shards[shard_of(page)].lock();
        assert!(
            shard.homed.members.insert(page.0),
            "page {page} homed twice"
        );
    }

    /// Cluster size the store was built for.
    pub fn cluster_size(&self) -> usize {
        self.n
    }

    /// Is `page` homed here?
    pub fn contains(&self, page: PageId) -> bool {
        let shard = self.shards[shard_of(page)].lock();
        shard.homed.members.contains(page.0)
    }

    /// How many homed pages hold an entry: those a change has reached since
    /// the store was built or last restarted.
    pub fn entries(&self) -> usize {
        let count = |s: &Mutex<Shard>| s.lock().homed.entries.len();
        self.shards.iter().map(count).sum()
    }

    /// Read `page`'s state under its shard lock; an untouched page reads as
    /// [`HomeStore::untouched`] and stays without an entry.
    fn read<R>(&self, page: PageId, f: impl FnOnce(&HomeEntry) -> R) -> R {
        let shard = self.shards[shard_of(page)].lock();
        let e = shard.homed.get(page.0, &self.untouched);
        f(e.unwrap_or_else(|| not_homed(page)))
    }

    /// `None` when the copy satisfies every notice seen so far; otherwise
    /// the needed version the access must wait for.
    pub fn access_gap(&self, page: PageId) -> Option<VectorClock> {
        self.read(page, |e| {
            if e.version.covers(&e.needed) {
                None
            } else {
                Some(e.needed.clone())
            }
        })
    }

    /// Copy `dst.len()` bytes at `offset` out of the home copy.
    pub fn read_into(&self, page: PageId, offset: usize, dst: &mut [u8]) {
        self.read(page, |e| {
            dst.copy_from_slice(e.copy.read(offset, dst.len()));
        });
    }

    /// Write to the home copy, snapshotting the twin on the interval's
    /// first write. Returns `true` when this write created the twin.
    pub fn write(&self, page: PageId, offset: usize, bytes: &[u8]) -> bool {
        let s = shard_of(page);
        let shard = &mut *self.shards[s].lock();
        let e = (shard.homed.get_mut(page.0, &self.untouched)).unwrap_or_else(|| not_homed(page));
        let first = e.twin.is_none();
        if first {
            e.twin = Some(e.copy.twin());
            if shard.dirty.is_empty() {
                self.dirty_mask.fetch_or(1 << s, Ordering::Relaxed);
            }
            shard.dirty.push(page.0);
        }
        e.copy.write_pooled(&mut shard.pool, offset, bytes);
        first
    }

    /// Any pages twinned this interval? O(1): one atomic load, no locks.
    pub fn has_writes(&self) -> bool {
        self.dirty_mask.load(Ordering::Relaxed) != 0
    }

    /// Record a write notice: local accesses must now wait until `version`
    /// covers `(writer, seq)`.
    pub fn bump_needed(&self, page: PageId, writer: ProcId, seq: u32) {
        let shard = &mut *self.shards[shard_of(page)].lock();
        let e = (shard.homed.get_mut(page.0, &self.untouched)).unwrap_or_else(|| not_homed(page));
        assert!(
            e.twin.is_none(),
            "invalidation with unflushed twin for {page}"
        );
        if e.needed.get(writer) < seq {
            e.needed.set(writer, seq);
        }
    }

    /// End-of-interval collection of this node's own home writes: for every
    /// dirty page, take the twin, snapshot the current copy (a CoW handle —
    /// concurrent diff application copies-on-write, leaving the snapshot
    /// untouched), and advance `p.v[me]`; the jobs are appended to `out` in
    /// page order for the caller to diff *outside* the shard locks. Only
    /// shards flagged in the dirty mask are visited. Until the caller hands
    /// each job's twin and diff back via [`HomeStore::finish_dirty`], the
    /// page's version names a diff its ring does not hold, and fetches of it
    /// are answered in full.
    pub fn collect_dirty(&self, interval: Interval, out: &mut Vec<DiffJob>) {
        let mask = self.dirty_mask.swap(0, Ordering::Relaxed);
        if mask == 0 {
            return;
        }
        for s in 0..NUM_SHARDS {
            if mask & (1 << s) == 0 {
                continue;
            }
            let shard = &mut *self.shards[s].lock();
            let mut pages = std::mem::take(&mut shard.dirty);
            pages.sort_unstable();
            for p in pages {
                let e = shard.homed.entries.get_mut(&p).unwrap();
                let Some(twin) = e.twin.take() else {
                    continue; // cleared by a concurrent restore
                };
                // The home's own writes are applied in place; record them
                // in the version vector like any other writer's diff.
                e.version.set(interval.proc, interval.seq);
                debug_assert!(!e.ring.own_pending, "own diff never handed over");
                e.ring.own_pending = true;
                out.push(DiffJob {
                    page: PageId(p),
                    twin,
                    current: e.copy.clone(),
                });
            }
        }
    }

    /// Finish the jobs [`HomeStore::collect_dirty`] handed out: each page's
    /// own diff (`None`: no word changed) becomes the newest in the page's
    /// ring, and the diffed-out twin returns to its shard's pool (rejected
    /// harmlessly if the buffer is still shared). The iterator runs before
    /// any lock is taken; one acquisition per shard.
    pub fn finish_dirty(&self, jobs: impl IntoIterator<Item = (PageId, Option<Arc<Diff>>, Page)>) {
        let mut by_shard: [Vec<_>; NUM_SHARDS] = Default::default();
        for job in jobs {
            by_shard[shard_of(job.0)].push(job);
        }
        for (s, jobs) in by_shard.into_iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            let shard = &mut *self.shards[s].lock();
            for (page, diff, twin) in jobs {
                shard.pool.recycle(twin);
                // Gone or not pending: a restart dropped the entry meanwhile.
                let Some(e) = shard.homed.entries.get_mut(&page.0) else {
                    continue;
                };
                let ring = &mut e.ring;
                if let (true, Some(diff)) = (std::mem::take(&mut ring.own_pending), diff) {
                    ring.push(diff, self.page_size);
                }
            }
        }
    }

    /// Serve one fetch from a requester that kept nothing: the no-`have`
    /// case of [`HomeStore::serve_fetch_have`], without the lock wait.
    pub fn serve_fetch(&self, req: WaitingFetch, live: impl FnOnce() -> bool) -> FetchOutcome {
        self.serve_fetch_have(req, None, live).0
    }

    /// Serve one fetch from a requester that kept `have` (answered with the
    /// diffs it is missing when the ring still holds them, with the page
    /// otherwise), also reporting how long the caller waited for the shard
    /// lock (the fast path's contention metric). `live` is re-checked
    /// *under the shard lock* so a concurrent crash/recovery transition can
    /// fence the fast path out (see the module docs); pass `|| true` when
    /// already serialized with mode changes by the big lock.
    pub fn serve_fetch_have(
        &self,
        req: WaitingFetch,
        have: Option<&Have>,
        live: impl FnOnce() -> bool,
    ) -> (FetchOutcome, std::time::Duration) {
        let t0 = std::time::Instant::now();
        let shard = &mut *self.shards[shard_of(req.page)].lock();
        let waited = t0.elapsed();
        if !live() {
            return (FetchOutcome::Stale, waited);
        }
        // The requester's copy is about to change: what it reported using
        // is no base for a push any more. An untouched page has no wants.
        let e = match shard.homed.entries.get_mut(&req.page.0) {
            Some(e) => {
                self.wanted.forget(&mut e.wants, req.from);
                &*e
            }
            None if shard.homed.members.contains(req.page.0) => &self.untouched,
            None => return (FetchOutcome::NotHome, waited),
        };
        let outcome = if e.version.covers(&req.needed) {
            let incarnation = self.incarnation.load(Ordering::SeqCst);
            let (version, body) = e.answer(incarnation, have);
            FetchOutcome::Ready(version, body)
        } else {
            shard.waiting.push((req, have.cloned()));
            FetchOutcome::Parked
        };
        (outcome, waited)
    }

    /// Apply one diff the caller holds only by reference (the benchmark's
    /// probe): [`HomeStore::apply_diff_kept`], except that the page's ring
    /// cannot share the diff and so forgets what it holds — the page's next
    /// fetches are answered in full. The protocol itself never calls this.
    pub fn apply_diff(&self, diff: &Diff, live: impl FnOnce() -> bool) -> ApplyOutcome {
        let shard = &mut *self.shards[shard_of(diff.page)].lock();
        self.apply_diff_locked(shard, diff, None, live)
    }

    /// Apply one diff and keep it in the page's ring, which shares it with
    /// the batch or log it came in. Idempotent: diffs for intervals already
    /// covered by `p.v[writer]` are skipped (replay resends diffs on
    /// purpose). `live` is re-checked under the shard lock, as for
    /// [`HomeStore::serve_fetch_have`]. On success, any fetches the diff
    /// unparked are returned for the caller to answer, with the shard-lock
    /// wait.
    pub fn apply_diff_kept(
        &self,
        diff: &Arc<Diff>,
        live: impl FnOnce() -> bool,
    ) -> (ApplyOutcome, std::time::Duration) {
        let t0 = std::time::Instant::now();
        let shard = &mut *self.shards[shard_of(diff.page)].lock();
        let waited = t0.elapsed();
        (
            self.apply_diff_locked(shard, diff, Some(diff), live),
            waited,
        )
    }

    fn apply_diff_locked(
        &self,
        shard: &mut Shard,
        diff: &Diff,
        keep: Option<&Arc<Diff>>,
        live: impl FnOnce() -> bool,
    ) -> ApplyOutcome {
        if !live() {
            return ApplyOutcome::Stale;
        }
        let Some(e) = shard.homed.get_mut(diff.page.0, &self.untouched) else {
            return ApplyOutcome::NotHome;
        };
        let writer = diff.interval.proc;
        let fresh = e.version.get(writer) < diff.interval.seq;
        if fresh {
            diff.apply_pooled(&mut e.copy, &mut shard.pool);
            // The open interval's twin too: the home's own diff is twin
            // against copy, and must hold the home's words only. Repeating
            // this diff's, it would set them back at a reader whose `have`
            // covers a later diff of theirs but not the home's.
            if let Some(twin) = &mut e.twin {
                diff.apply_pooled(twin, &mut shard.pool);
            }
            e.version.set(writer, diff.interval.seq);
            e.wants.own_diff(writer, diff.interval.seq);
            if !e.writers.contains(&writer) {
                e.writers.push(writer);
            }
            match keep {
                Some(diff) => e.ring.push(Arc::clone(diff), self.page_size),
                None => e.ring.reset(&e.version),
            }
        }
        let mut ready = Vec::new();
        self.unpark(shard, &mut ready);
        ApplyOutcome::Applied { fresh, ready }
    }

    /// Move every fetch parked in `shard` whose page now covers its needed
    /// version to `ready` (a cheap linear scan; an applied diff can unpark
    /// fetches of its own page only, but all of them live in its shard).
    fn unpark(&self, shard: &mut Shard, ready: &mut Vec<ReadyFetch>) {
        let incarnation = self.incarnation.load(Ordering::SeqCst);
        let mut i = 0;
        while i < shard.waiting.len() {
            let (w, have) = &shard.waiting[i];
            match shard.homed.get(w.page.0, &self.untouched) {
                Some(e) if e.version.covers(&w.needed) => {
                    let (version, body) = e.answer(incarnation, have.as_ref());
                    let (w, _) = shard.waiting.swap_remove(i);
                    ready.push(ReadyFetch {
                        from: w.from,
                        page: w.page,
                        req_id: w.req_id,
                        version,
                        body,
                    });
                }
                _ => i += 1,
            }
        }
    }

    /// `peer` used its copy of `page`, which is exactly `have`: (re-)arm
    /// its want (`crate::wants`). A page not homed here, or a clock not of
    /// this cluster, is ignored.
    pub fn want(&self, peer: ProcId, page: PageId, have: Have) {
        if have.1.len() != self.n {
            return;
        }
        let shard = &mut *self.shards[shard_of(page)].lock();
        if let Some(e) = shard.homed.get_mut(page.0, &self.untouched) {
            self.wanted.report(&mut e.wants, peer, have);
        }
    }

    /// Does `peer` want any page homed here?
    pub fn wants_any(&self, peer: ProcId) -> bool {
        self.wanted.any(peer)
    }

    /// The push of `page` to `peer` with notices whose join is `covers`:
    /// when `peer` wants the page and the copy covers them, what a fetch
    /// from `peer` naming the copy its want is based on would be answered
    /// now — `(that copy, version, body)`. The want lives on, based on the
    /// pushed copy, unless it was pushed before with no report since.
    /// `None` leaves the want for the fetch that follows, and is the answer
    /// for an untouched page, which no peer wants.
    pub fn push(
        &self,
        peer: ProcId,
        page: PageId,
        covers: &VectorClock,
    ) -> Option<(Have, VectorClock, PageBody)> {
        let shard = &mut *self.shards[shard_of(page)].lock();
        let e = shard.homed.entries.get_mut(&page.0)?;
        if !e.version.covers(covers) {
            return None;
        }
        let have = e.wants.of(peer)?.clone();
        let incarnation = self.incarnation.load(Ordering::SeqCst);
        let (version, body) = e.answer(incarnation, Some(&have));
        let exact = !matches!(body, PageBody::Full { base: 0, .. });
        let kept = exact.then(|| (incarnation, version.clone()));
        self.wanted.pushed(&mut e.wants, peer, kept);
        Some((have, version, body))
    }

    /// `peer` restarted: it kept no copy, so it wants nothing. Returns the
    /// pages it wanted, ascending — what its replay will likely read.
    pub fn drop_wants(&self, peer: ProcId) -> Vec<PageId> {
        let mut wanted = Vec::new();
        for shard in &self.shards {
            for (&p, e) in shard.lock().homed.entries.iter_mut() {
                if self.wanted.forget(&mut e.wants, peer) {
                    wanted.push(PageId(p));
                }
            }
        }
        wanted.sort_unstable();
        wanted
    }

    /// Drain every parked fetch that has become servable (used after
    /// recovery replay rebuilds home pages in bulk).
    pub fn drain_ready(&self) -> Vec<ReadyFetch> {
        let mut ready = Vec::new();
        for shard in &self.shards {
            self.unpark(&mut shard.lock(), &mut ready);
        }
        ready
    }

    /// Version vector of the home copy.
    pub fn version_of(&self, page: PageId) -> VectorClock {
        self.read(page, |e| e.version.clone())
    }

    /// Zero-copy view of the home copy: `(version, bytes)`.
    pub fn snapshot(&self, page: PageId) -> (VectorClock, Arc<[u8]>) {
        self.read(page, |e| (e.version.clone(), e.copy.share()))
    }

    /// Wire bytes of the diffs `page`'s ring holds (always less than a page).
    pub fn ring_bytes(&self, page: PageId) -> usize {
        self.read(page, |e| e.ring.bytes)
    }

    /// The newest interval of `proc`'s applied to any page homed here
    /// (recovery: a survivor's proof that the interval was flushed).
    pub fn newest_applied_of(&self, proc_: ProcId) -> u32 {
        let newest = |shard: &Mutex<Shard>| {
            let shard = shard.lock();
            let entries = shard.homed.entries.values();
            entries.map(|e| e.version.get(proc_)).max()
        };
        self.shards.iter().filter_map(newest).max().unwrap_or(0)
    }

    /// Has `proc` ever sent a diff for `page`?
    pub fn writers_contain(&self, page: PageId, proc_: ProcId) -> bool {
        self.read(page, |e| e.writers.contains(&proc_))
    }

    /// Overwrite the authoritative copy and version of a homed page
    /// (restoring from a checkpoint during recovery). A copy at version
    /// zero is the zero page: an untouched page stays without an entry.
    pub fn restore(&self, page: PageId, bytes: &[u8], version: VectorClock) {
        let s = shard_of(page);
        let shard = &mut *self.shards[s].lock();
        let untouched =
            shard.homed.members.contains(page.0) && !shard.homed.entries.contains_key(&page.0);
        if untouched && version == self.untouched.version {
            debug_assert!(
                bytes.iter().all(|&b| b == 0),
                "page {page} is not the zero page"
            );
            return;
        }
        let e = (shard.homed.get_mut(page.0, &self.untouched)).unwrap_or_else(|| not_homed(page));
        e.copy = Page::from_bytes(bytes);
        e.ring = DiffRing::new(version.clone());
        e.version = version;
        if e.twin.take().is_some() {
            shard.dirty.retain(|&p| p != page.0);
            if shard.dirty.is_empty() {
                self.dirty_mask.fetch_and(!(1u32 << s), Ordering::Relaxed);
            }
        }
    }

    /// Crash and restart support: drop every entry — twins, pending
    /// `needed` state, rings and wants — and the parked fetches (requesters
    /// resend them once the restart reaches them), and begin a new
    /// incarnation, so that what a reader kept of this one is answered in
    /// full. Every page is untouched again, the zero page at version zero —
    /// what a page no checkpoint has carried yet restarts from — for the
    /// caller to overwrite from the checkpoint via [`HomeStore::restore`].
    pub fn reset_for_restart(&self) {
        self.dirty_mask.store(0, Ordering::Relaxed);
        self.incarnation.fetch_add(1, Ordering::SeqCst);
        for shard in &self.shards {
            let shard = &mut *shard.lock();
            shard.waiting.clear();
            shard.dirty.clear();
            shard.homed.entries.clear();
        }
        self.wanted.clear();
    }

    /// Checkpoint support: `(page, writer, seq)` triples of every nonzero
    /// `needed` entry, sorted by page.
    pub fn needed_triples(&self) -> Vec<(PageId, ProcId, u32)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (&p, e) in shard.homed.entries.iter() {
                for (w, &seq) in e.needed.as_slice().iter().enumerate() {
                    if seq > 0 {
                        out.push((PageId(p), w, seq));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Cumulative buffer-pool counters over all shards. Never waits (a
    /// report may be taken from the panic hook of the thread that holds a
    /// shard): `None` while any shard is locked.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        let mut stats = PoolStats::default();
        for shard in &self.shards {
            stats.merge(&shard.try_lock()?.pool.stats());
        }
        Some(stats)
    }

    /// Fence: acquire and release every shard lock in order. After this
    /// returns, every fast-path operation that started before the caller's
    /// preceding state change (e.g. flipping the mode flag) has finished.
    pub fn quiesce(&self) {
        for shard in &self.shards {
            drop(shard.lock());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(p: ProcId, s: u32) -> Interval {
        Interval { proc: p, seq: s }
    }

    fn store() -> HomeStore {
        let s = HomeStore::new(2, 64);
        s.add(PageId(0));
        s.add(PageId(8)); // same shard as page 0 (8 % NUM_SHARDS == 0)
        s.add(PageId(3));
        s
    }

    /// The bytes and base of a full body.
    fn full(body: &PageBody) -> (&[u8], u32) {
        match body {
            PageBody::Full { bytes, base } => (bytes, *base),
            PageBody::Delta(d) => panic!("expected the page, got {} diffs", d.len()),
        }
    }

    /// The intervals of a delta body's diffs, in order.
    fn delta(body: &PageBody) -> Vec<Interval> {
        match body {
            PageBody::Delta(diffs) => diffs.iter().map(|d| d.interval).collect(),
            PageBody::Full { .. } => panic!("expected a delta, got the page"),
        }
    }

    /// The encoded bytes of a delta's diffs.
    fn delta_bytes(body: &PageBody) -> usize {
        match body {
            PageBody::Delta(diffs) => diffs.iter().map(|d| d.wire_size()).sum(),
            PageBody::Full { .. } => panic!("expected a delta, got the page"),
        }
    }

    /// The diff of `interval` that sets word `word` of `page` to `value`.
    fn set_word(page: u32, interval: Interval, word: u32, value: u64) -> Arc<Diff> {
        let run = (word * 8, &value.to_le_bytes()[..]);
        Arc::new(Diff::from_runs(PageId(page), interval, [run]))
    }

    /// A 256-byte page 0 (its ring holds eighteen one-word diffs of 14 wire
    /// bytes, not nineteen) in a 3-node cluster.
    fn ring_store() -> HomeStore {
        let s = HomeStore::new(3, 256);
        s.add(PageId(0));
        s
    }

    fn vc(v: [u32; 3]) -> VectorClock {
        VectorClock::from_vec(v.to_vec())
    }

    /// Serve page 0, needing nothing, to a requester that kept `have`.
    fn fetch(s: &HomeStore, have: Option<&Have>) -> (VectorClock, PageBody) {
        let req = WaitingFetch {
            from: 1,
            page: PageId(0),
            needed: VectorClock::zero(3),
            req_id: 0,
        };
        match s.serve_fetch_have(req, have, || true).0 {
            FetchOutcome::Ready(version, body) => (version, body),
            other => panic!("unexpected: {other:?}"),
        }
    }

    fn apply(s: &HomeStore, d: &Arc<Diff>) {
        let outcome = s.apply_diff_kept(d, || true).0;
        assert!(matches!(outcome, ApplyOutcome::Applied { fresh: true, .. }));
    }

    /// The pages that hold an entry, in page order.
    fn with_entries(s: &HomeStore) -> Vec<u32> {
        let shards = s.shards.iter().map(|shard| shard.lock());
        let mut pages: Vec<u32> = shards
            .flat_map(|shard| shard.homed.entries.keys().copied().collect::<Vec<_>>())
            .collect();
        pages.sort_unstable();
        pages
    }

    /// Until its first change a homed page holds no entry, and every read
    /// answers it as the entry it was given when it was added: a share of
    /// the zero page at version zero — a base of this incarnation — with an
    /// empty ring, no writers, no wants and no notice to wait for.
    #[test]
    fn an_untouched_page_holds_no_entry_and_reads_as_the_zero_page() {
        let s = ring_store();
        let zero = s.zero_page().share();
        let (v, bytes) = s.snapshot(PageId(0));
        assert!(v == vc([0, 0, 0]) && Arc::ptr_eq(&bytes, &zero));
        let mut dst = [1u8; 16];
        s.read_into(PageId(0), 8, &mut dst);
        assert_eq!(dst, [0; 16]);
        assert!(s.access_gap(PageId(0)).is_none());
        assert!(s.version_of(PageId(0)).covers(&vc([0, 0, 0])));
        assert!(!s.version_of(PageId(0)).covers(&vc([0, 1, 0])));
        let page = PageBody::Full {
            bytes: Arc::clone(&zero),
            base: 1,
        };
        assert_eq!(fetch(&s, None), (vc([0, 0, 0]), page));
        assert!(delta(&fetch(&s, Some(&(1, vc([0, 0, 0])))).1).is_empty());
        assert_eq!(full(&fetch(&s, Some(&(7, vc([0, 0, 0])))).1).1, 1);
        assert!(s.push(1, PageId(0), &vc([0, 0, 0])).is_none());
        assert_eq!(s.ring_bytes(PageId(0)), 0);
        assert!(!s.writers_contain(PageId(0), 1));
        assert_eq!(s.newest_applied_of(1), 0);
        assert!(s.needed_triples().is_empty());
        // A fetch that must wait parks without one.
        let req = WaitingFetch {
            from: 2,
            page: PageId(0),
            needed: vc([0, 1, 0]),
            req_id: 1,
        };
        assert!(matches!(s.serve_fetch(req, || true), FetchOutcome::Parked));
        assert!(s.drain_ready().is_empty());
        assert_eq!(with_entries(&s), [0u32; 0], "a read created an entry");
        // The next incarnation's untouched page is its base.
        s.reset_for_restart();
        assert_eq!(full(&fetch(&s, None).1), (&zero[..], 2));
    }

    /// Each kind of change creates exactly its page's entry; a restart drops
    /// every entry, and a page never added is no home's, entry or not.
    #[test]
    fn each_change_creates_its_pages_entry_and_a_restart_drops_them_all() {
        let s = HomeStore::new(2, 64);
        (0..6).for_each(|p| s.add(PageId(p)));
        let changes: [&dyn Fn(); 5] = [
            &|| assert!(s.write(PageId(0), 0, &[1])),
            &|| apply(&s, &set_word(1, iv(1, 1), 0, 5)),
            &|| s.bump_needed(PageId(2), 1, 3),
            &|| s.want(1, PageId(3), (1, VectorClock::zero(2))),
            &|| s.restore(PageId(4), &[7; 64], VectorClock::from_vec(vec![0, 2])),
        ];
        for (k, change) in changes.iter().enumerate() {
            change();
            assert_eq!(with_entries(&s), (0..=k as u32).collect::<Vec<_>>());
        }
        // A clock not of this cluster is no want.
        s.want(1, PageId(5), (1, VectorClock::zero(3)));
        assert_eq!(s.entries(), 5);
        s.reset_for_restart();
        assert_eq!(s.entries(), 0);
        assert!((0..6).all(|p| s.contains(PageId(p))));
        let req = WaitingFetch {
            from: 1,
            page: PageId(6),
            needed: VectorClock::zero(2),
            req_id: 1,
        };
        assert!(matches!(s.serve_fetch(req, || true), FetchOutcome::NotHome));
        let diff = set_word(6, iv(1, 1), 0, 5);
        assert!(matches!(
            s.apply_diff(&diff, || true),
            ApplyOutcome::NotHome
        ));
        assert_eq!(s.entries(), 0);
    }

    /// A restart restores the checkpoint's copy of every homed page, but a
    /// copy at version zero is the zero page an untouched page reads as: it
    /// gets no entry, and the others read as restored.
    #[test]
    fn a_restart_gives_an_entry_only_to_a_blob_page_a_change_had_reached() {
        let s = HomeStore::new(2, 64);
        (0..8).for_each(|p| s.add(PageId(p)));
        (0..8).for_each(|p| assert!(s.write(PageId(p), 0, &[1])));
        s.reset_for_restart();
        // A blob of every homed page: pages 1, 4 and 6 had been written.
        let blob: Vec<_> = (0..8u32)
            .map(|p| match p {
                1 | 4 | 6 => (PageId(p), [p as u8; 64], VectorClock::from_vec(vec![p, 1])),
                _ => (PageId(p), [0; 64], VectorClock::zero(2)),
            })
            .collect();
        for (page, bytes, version) in &blob {
            s.restore(*page, bytes, version.clone());
        }
        let touched = blob.iter().filter(|(.., v)| *v != VectorClock::zero(2));
        assert_eq!(s.entries(), touched.count());
        assert_eq!(with_entries(&s), [1, 4, 6]);
        for (page, bytes, version) in &blob {
            assert_eq!(s.snapshot(*page), (version.clone(), Arc::from(&bytes[..])));
        }
        // A page that has an entry is overwritten whatever the version.
        s.restore(PageId(4), &[0; 64], VectorClock::zero(2));
        assert_eq!(s.snapshot(PageId(4)).1[..], [0; 64]);
        assert_eq!(s.entries(), 3);
    }

    /// A want is answered as the fetch it stands for once the copy covers
    /// the notices. The first push leaves it based on the pushed copy, the
    /// second with no report in between ends it, and a report re-arms it; a
    /// fetch of the page, or a restart of either end, drops it.
    #[test]
    fn a_want_outlives_one_unread_push_and_goes_with_a_second_a_fetch_or_a_restart() {
        let s = ring_store();
        let (v0, _) = fetch(&s, None);
        let kept: Have = (1, v0);
        assert!(!s.wants_any(1));
        s.want(1, PageId(0), kept.clone());
        s.want(1, PageId(7), kept.clone()); // not homed here: ignored
        s.want(2, PageId(0), (1, VectorClock::from_vec(vec![0, 0]))); // nor a short clock
        assert!(s.wants_any(1) && !s.wants_any(2));
        apply(&s, &set_word(0, iv(2, 1), 0, 11));
        // A notice the copy does not cover yet: no push, the want stays.
        assert!(s.push(1, PageId(0), &vc([0, 0, 2])).is_none());
        assert!(
            s.push(2, PageId(0), &vc([0, 0, 1])).is_none(),
            "2 wants nothing"
        );
        let (base, version, body) = s.push(1, PageId(0), &vc([0, 0, 1])).unwrap();
        assert_eq!((base, version), (kept.clone(), vc([0, 0, 1])));
        assert_eq!(delta(&body), [iv(2, 1)]);
        // Not reported since: the pushed copy is the next push's base, and
        // that push is the last.
        assert!(s.wants_any(1));
        apply(&s, &set_word(0, iv(2, 2), 0, 12));
        let (base, _, body) = s.push(1, PageId(0), &vc([0, 0, 2])).unwrap();
        assert_eq!((base, delta(&body)), ((1, vc([0, 0, 1])), vec![iv(2, 2)]));
        assert!(!s.wants_any(1) && s.push(1, PageId(0), &vc([0, 0, 2])).is_none());
        // A report re-arms it. A diff of the reader's own is in its copy,
        // and so in the want's base, reported or pushed: pushes leave it out.
        s.want(1, PageId(0), (1, vc([0, 0, 2])));
        apply(&s, &set_word(0, iv(1, 1), 1, 12));
        apply(&s, &set_word(0, iv(2, 3), 2, 13));
        let (base, _, body) = s.push(1, PageId(0), &vc([0, 0, 3])).unwrap();
        assert_eq!((base, delta(&body)), ((1, vc([0, 1, 2])), vec![iv(2, 3)]));
        apply(&s, &set_word(0, iv(1, 2), 1, 14));
        apply(&s, &set_word(0, iv(2, 4), 2, 15));
        let (base, _, body) = s.push(1, PageId(0), &vc([0, 0, 4])).unwrap();
        assert_eq!((base, delta(&body)), ((1, vc([0, 2, 3])), vec![iv(2, 4)]));
        // A copy of another life goes in full, a base unless the home is
        // writing the page: then it is the want's last push.
        s.want(1, PageId(0), (9, vc([0, 0, 0])));
        let (_, version, body) = s.push(1, PageId(0), &vc([0, 0, 4])).unwrap();
        assert_eq!(full(&body).1, 1);
        assert_eq!(
            s.push(1, PageId(0), &vc([0, 0, 4])).unwrap().0,
            (1, version)
        );
        s.want(1, PageId(0), (9, vc([0, 0, 0])));
        s.write(PageId(0), 24, &[1]);
        let (_, _, body) = s.push(1, PageId(0), &vc([0, 0, 4])).unwrap();
        assert_eq!(full(&body).1, 0);
        assert!(!s.wants_any(1));
        // Asked for, or restarted: nothing left to push.
        s.want(1, PageId(0), kept.clone());
        fetch(&s, Some(&kept));
        assert!(!s.wants_any(1));
        s.want(1, PageId(0), kept.clone());
        s.want(2, PageId(0), (1, vc([0, 0, 0])));
        assert_eq!(s.drop_wants(1), [PageId(0)]);
        assert!(!s.wants_any(1) && s.drop_wants(1).is_empty());
        assert_eq!(s.drop_wants(2), [PageId(0)], "another peer's want stays");
        s.want(1, PageId(0), kept);
        s.reset_for_restart();
        assert!(!s.wants_any(1));
    }

    #[test]
    fn a_delta_goes_only_to_this_incarnation_and_only_past_the_rings_base() {
        let s = ring_store();
        // A cold fetch moves the page; nobody wrote it, so it is a base.
        let (v0, body) = fetch(&s, None);
        assert_eq!((v0.clone(), full(&body).1), (vc([0, 0, 0]), 1));
        apply(&s, &set_word(0, iv(1, 1), 0, 11));
        apply(&s, &set_word(0, iv(2, 1), 1, 21));
        // The reader that kept that copy gets what it is missing, in the
        // order the home applied it; one that is current gets nothing.
        let (v2, body) = fetch(&s, Some(&(1, v0.clone())));
        assert_eq!(
            (v2.clone(), delta(&body)),
            (vc([0, 1, 1]), vec![iv(1, 1), iv(2, 1)])
        );
        assert!(delta_bytes(&body) < 256);
        assert_eq!(delta(&fetch(&s, Some(&(1, vc([0, 1, 0])))).1), [iv(2, 1)]);
        assert!(delta(&fetch(&s, Some(&(1, v2.clone()))).1).is_empty());
        // A copy of another incarnation's is answered with the page.
        assert_eq!(full(&fetch(&s, Some(&(2, v2.clone()))).1).1, 1);

        // Seventeen more diffs: the nineteenth makes a page's worth, so the
        // oldest folds into the base and the first reader is past it.
        for seq in 2..=18 {
            apply(&s, &set_word(0, iv(1, seq), seq, seq as u64));
            assert!(s.ring_bytes(PageId(0)) < 256);
        }
        assert_eq!(s.ring_bytes(PageId(0)), 18 * 14);
        let (v8, body) = fetch(&s, Some(&(1, v0.clone())));
        assert_eq!(
            &full(&body).0[..16],
            &[11, 0, 0, 0, 0, 0, 0, 0, 21, 0, 0, 0, 0, 0, 0, 0]
        );
        let body = fetch(&s, Some(&(1, vc([0, 1, 0])))).1;
        assert_eq!(delta(&body).len(), 18);
        assert!(
            delta_bytes(&body) < 256,
            "a delta's diffs never reach the page"
        );
        // A diff as large as the page is never held at all.
        let whole = Diff::create(PageId(0), iv(2, 2), &Page::zeroed(256), &{
            let mut p = Page::zeroed(256);
            p.write(0, &[7; 256]);
            p
        });
        apply(&s, &Arc::new(whole.unwrap()));
        assert_eq!(s.ring_bytes(PageId(0)), 0);
        assert_eq!(full(&fetch(&s, Some(&(1, v8.clone()))).1).1, 1);

        // A restart empties the ring and begins a new incarnation: what a
        // reader kept of the old one — current or not — is answered in full.
        apply(&s, &set_word(0, iv(1, 19), 0, 12));
        let kept = (1, fetch(&s, None).0);
        s.reset_for_restart();
        assert_eq!(s.ring_bytes(PageId(0)), 0);
        assert_eq!(full(&fetch(&s, Some(&kept)).1).1, 2);
        // `restore` too, to whatever version it restores.
        apply(&s, &set_word(0, iv(1, 20), 0, 13));
        s.restore(PageId(0), &[0u8; 256], vc([0, 3, 0]));
        assert_eq!(s.ring_bytes(PageId(0)), 0);
        let (v, body) = fetch(&s, Some(&(2, vc([0, 1, 0]))));
        assert_eq!((v, full(&body).1), (vc([0, 3, 0]), 2));
    }

    #[test]
    fn a_copy_served_while_the_home_writes_the_page_is_not_a_base() {
        let s = ring_store();
        let kept = (1, fetch(&s, None).0);
        // Word 0 goes a → b → a inside one interval of the home's: the
        // interval's diff will not name it, so a reader that took the copy
        // served in between for version [0,0,0] exactly would keep b.
        s.write(PageId(0), 0, &[0xb]);
        s.write(PageId(0), 8, &[1]);
        let (v, body) = fetch(&s, None);
        assert_eq!(
            (v, full(&body)),
            (vc([0, 0, 0]), (&s.snapshot(PageId(0)).1[..], 0))
        );
        s.write(PageId(0), 0, &[0]);
        // A delta served meanwhile holds none of the open interval's words:
        // it builds exactly the version it says.
        apply(&s, &set_word(0, iv(1, 1), 2, 5));
        let (v, body) = fetch(&s, Some(&kept));
        assert_eq!((v, delta(&body)), (vc([0, 1, 0]), vec![iv(1, 1)]));

        // From the version bump to the hand-over of the home's own diff the
        // version names a diff the ring does not hold: the page goes out in
        // full — an exact copy by then, the twin is gone.
        let mut jobs = Vec::new();
        s.collect_dirty(iv(0, 1), &mut jobs);
        let (v, body) = fetch(&s, Some(&kept));
        assert_eq!((v, full(&body).1), (vc([1, 1, 0]), 1));
        // The own diff holds the home's words only: <1:1> went into the twin
        // as well as the copy, so twin against copy does not repeat word 2.
        // It is the ring's newest at the hand-over, after the <1:2> applied
        // meanwhile; they are of concurrent intervals and share no word.
        apply(&s, &set_word(0, iv(1, 2), 2, 6));
        assert_eq!(full(&fetch(&s, Some(&kept)).1).1, 1);
        s.finish_dirty(jobs.into_iter().map(|j| {
            let own = Diff::create(j.page, iv(0, 1), &j.twin, &j.current).unwrap();
            assert_eq!(
                own.runs().map(|(o, b)| (o, b.len())).collect::<Vec<_>>(),
                [(8, 8)]
            );
            (j.page, Some(Arc::new(own)), j.twin)
        }));
        let (v, body) = fetch(&s, Some(&kept));
        assert_eq!(v, vc([1, 2, 0]));
        assert_eq!(delta(&body), [iv(1, 1), iv(1, 2), iv(0, 1)]);
        let mut rebuilt = Page::zeroed(256);
        let PageBody::Delta(diffs) = body else {
            unreachable!()
        };
        diffs.iter().for_each(|d| d.apply(&mut rebuilt));
        assert_eq!(rebuilt.bytes(), &s.snapshot(PageId(0)).1[..]);
        // The writer of <1:1> and <1:2> holds both (rule 2) and is missing
        // only <0:1>, which leaves its word 2 alone.
        let body = fetch(&s, Some(&(1, vc([0, 2, 0])))).1;
        assert_eq!(delta(&body), [iv(0, 1)]);
    }

    #[test]
    fn an_apply_that_is_not_remembered_empties_the_ring() {
        let s = ring_store();
        let kept = (1, fetch(&s, None).0);
        apply(&s, &set_word(0, iv(1, 1), 0, 1));
        assert_eq!(delta(&fetch(&s, Some(&kept)).1), [iv(1, 1)]);
        // The probe's entry point applies by reference and keeps nothing.
        let outcome = s.apply_diff(&set_word(0, iv(1, 2), 1, 2), || true);
        assert!(matches!(outcome, ApplyOutcome::Applied { fresh: true, .. }));
        assert_eq!(s.ring_bytes(PageId(0)), 0);
        assert_eq!(full(&fetch(&s, Some(&kept)).1).1, 1);
        let current = (1, fetch(&s, None).0);
        assert!(delta(&fetch(&s, Some(&current)).1).is_empty());
    }

    #[test]
    fn a_parked_fetch_is_answered_with_what_its_requester_is_missing() {
        let s = ring_store();
        let kept = (1, fetch(&s, None).0);
        let parked = |req_id| WaitingFetch {
            from: 2,
            page: PageId(0),
            needed: vc([0, 2, 0]),
            req_id,
        };
        let park = |req_id, have| {
            let outcome = s.serve_fetch_have(parked(req_id), have, || true).0;
            assert!(matches!(outcome, FetchOutcome::Parked));
        };
        park(1, Some(&kept));
        park(2, None);
        apply(&s, &set_word(0, iv(1, 1), 0, 1));
        let ApplyOutcome::Applied { ready, .. } =
            s.apply_diff_kept(&set_word(0, iv(1, 2), 0, 2), || true).0
        else {
            panic!("not applied")
        };
        let mut ready: Vec<_> = ready.iter().map(|r| (r.req_id, &r.body)).collect();
        ready.sort_unstable_by_key(|r| r.0);
        assert_eq!(delta(ready[0].1), [iv(1, 1), iv(1, 2)]);
        assert_eq!(full(ready[1].1).1, 1);
    }

    #[test]
    fn serve_parks_until_diff_arrives_then_unparks() {
        let s = store();
        let needed = {
            let mut v = VectorClock::zero(2);
            v.set(1, 2);
            v
        };
        let req = WaitingFetch {
            from: 1,
            page: PageId(0),
            needed: needed.clone(),
            req_id: 7,
        };
        assert!(matches!(s.serve_fetch(req, || true), FetchOutcome::Parked));

        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[9; 8]);
        let d = Diff::create(PageId(0), iv(1, 2), &twin, &cur).unwrap();
        match s.apply_diff(&d, || true) {
            ApplyOutcome::Applied { fresh, ready } => {
                assert!(fresh);
                assert_eq!(ready.len(), 1);
                assert_eq!(ready[0].from, 1);
                assert_eq!(ready[0].req_id, 7);
                assert_eq!(ready[0].page, PageId(0));
                assert!(ready[0].version.covers(&needed));
                assert_eq!(&full(&ready[0].body).0[0..8], &[9; 8]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn stale_liveness_check_fences_out_under_the_shard_lock() {
        let s = store();
        let req = WaitingFetch {
            from: 1,
            page: PageId(0),
            needed: VectorClock::zero(2),
            req_id: 1,
        };
        assert!(matches!(s.serve_fetch(req, || false), FetchOutcome::Stale));
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[1]);
        let d = Diff::create(PageId(0), iv(1, 1), &twin, &cur).unwrap();
        assert!(matches!(s.apply_diff(&d, || false), ApplyOutcome::Stale));
        // Nothing was applied.
        assert_eq!(s.version_of(PageId(0)).get(1), 0);
    }

    #[test]
    fn unknown_pages_report_not_home() {
        let s = store();
        let req = WaitingFetch {
            from: 1,
            page: PageId(5),
            needed: VectorClock::zero(2),
            req_id: 1,
        };
        assert!(matches!(s.serve_fetch(req, || true), FetchOutcome::NotHome));
        assert!(!s.contains(PageId(5)));
        assert!(s.contains(PageId(3)));
    }

    /// Pages of the jobs `collect_dirty` hands out for `interval`.
    fn collect_pages(s: &HomeStore, interval: Interval) -> Vec<PageId> {
        let mut jobs = Vec::new();
        s.collect_dirty(interval, &mut jobs);
        let pages = jobs.iter().map(|j| j.page).collect();
        s.finish_dirty(jobs.into_iter().map(|j| (j.page, None, j.twin)));
        pages
    }

    #[test]
    fn twin_write_collect_dirty_produces_sorted_jobs() {
        let s = store();
        assert!(s.write(PageId(8), 0, &[1, 2]));
        assert!(!s.write(PageId(8), 8, &[3])); // twin already exists
        assert!(s.write(PageId(0), 0, &[4]));
        assert_eq!(collect_pages(&s, iv(0, 1)), vec![PageId(0), PageId(8)]);
        assert_eq!(s.version_of(PageId(8)).get(0), 1);
        assert!(!s.has_writes());
    }

    #[test]
    fn needed_gates_access_until_version_covers() {
        let s = store();
        assert!(s.access_gap(PageId(0)).is_none());
        s.bump_needed(PageId(0), 1, 3);
        let gap = s.access_gap(PageId(0)).expect("gated");
        assert_eq!(gap.get(1), 3);
        assert!(!s.version_of(PageId(0)).covers(&gap));
        let twin = Page::zeroed(64);
        let mut cur = twin.clone();
        cur.write(0, &[5]);
        let d = Diff::create(PageId(0), iv(1, 3), &twin, &cur).unwrap();
        assert!(matches!(
            s.apply_diff(&d, || true),
            ApplyOutcome::Applied { fresh: true, .. }
        ));
        // A duplicate apply is accepted and skipped by the version gate.
        assert!(matches!(
            s.apply_diff(&d, || true),
            ApplyOutcome::Applied { fresh: false, .. }
        ));
        assert!(s.access_gap(PageId(0)).is_none());
        assert!(s.writers_contain(PageId(0), 1));
        assert!(!s.writers_contain(PageId(0), 0));
        assert_eq!((s.newest_applied_of(1), s.newest_applied_of(0)), (3, 0));
    }

    #[test]
    fn has_writes_tracks_dirty_shards_without_scans() {
        let s = store();
        assert!(!s.has_writes());
        s.write(PageId(3), 0, &[1]);
        assert!(s.has_writes());
        assert_eq!(collect_pages(&s, iv(0, 1)), vec![PageId(3)]);
        assert!(!s.has_writes());
        // restore drops the twin and its dirty marker with it.
        s.write(PageId(0), 0, &[2]);
        assert!(s.has_writes());
        s.restore(PageId(0), &[0u8; 64], VectorClock::zero(2));
        assert!(!s.has_writes());
        // ... from the shard's dirty list too: a later write to the same
        // shard does not bring the restored page back.
        s.write(PageId(8), 0, &[3]);
        assert_eq!(collect_pages(&s, iv(0, 2)), vec![PageId(8)]);
    }

    #[test]
    fn collect_dirty_snapshots_survive_later_writes() {
        let s = store();
        s.write(PageId(0), 0, &[9; 8]);
        let mut jobs = Vec::new();
        s.collect_dirty(iv(0, 1), &mut jobs);
        assert_eq!(jobs.len(), 1);
        // A concurrent writer (next interval / another node's diff) mutates
        // the copy after collection; the job's CoW snapshot must not move.
        s.write(PageId(0), 0, &[1; 8]);
        assert_eq!(jobs[0].current.read(0, 8), &[9; 8]);
        assert_eq!(s.version_of(PageId(0)).get(0), 1);
        s.finish_dirty(jobs.into_iter().map(|j| (j.page, None, j.twin)));
    }

    #[test]
    fn restore_and_reset_clear_transients() {
        let s = store();
        s.write(PageId(0), 0, &[1]);
        s.bump_needed(PageId(3), 1, 2);
        s.reset_for_restart();
        assert!(!s.has_writes());
        assert!(s.needed_triples().is_empty());
        let mut v = VectorClock::zero(2);
        v.set(1, 9);
        s.restore(PageId(0), &[7u8; 64], v.clone());
        let (version, bytes) = s.snapshot(PageId(0));
        assert_eq!(version, v);
        assert_eq!(&bytes[..], &[7u8; 64]);
    }
}
