//! The application-facing DSM handle.
//!
//! One [`Process`] per node, used by the application thread. All shared
//! memory access, synchronization, allocation, checkpoint safe points, and
//! (after a crash) log-based replay run through it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_page::{GlobalAddr, Layout, PageId, VectorClock};
use dsm_storage::{ByteReader, ByteWriter};
use dsm_trace::EventKind;
use hlrc::{AccessOutcome, LockId, WnDelta};
use parking_lot::MutexGuard;

use crate::config::HomeAlloc;
use crate::ft::logs::{BarEntry, RelEntry};
use crate::ft::recovery::{self, collect_replies, linear_key, RecAsk, ReplayPage};
use crate::msg::Payload;
use crate::runtime::node::{
    apply_pending_home, dispatch, end_interval, fetch_needed, fetch_with_neighbours, grant_now,
    install_reply, issue_prefetch, retransmit_stale_diffs, retransmit_wait_slot,
    send_blocked_request, CrashSignal, GrantData, Mode, NodeShared, NodeState, ReleaseData,
    WaitSlot,
};
use crate::shareable::Shareable;
use crate::stats::Breakdown;

/// Maximum size of a single typed access.
const MAX_ACCESS: usize = 256;

/// How long a blocked DSM operation waits before declaring a deadlock.
const WAIT_DEADLINE: Duration = Duration::from_secs(60);

/// Application private state that can be captured in a checkpoint.
///
/// Everything the application mutates across steps must live in one value
/// implementing this trait (see [`Process::run_steps`]); the paper
/// checkpoints processor state, which a thread cannot snapshot, so the
/// state is captured at step boundaries instead.
pub trait AppState {
    /// Encode into the checkpoint.
    fn encode(&self, w: &mut ByteWriter);
    /// Decode from a checkpoint.
    fn decode(r: &mut ByteReader) -> Self;
}

impl AppState for () {
    fn encode(&self, _w: &mut ByteWriter) {}
    fn decode(_r: &mut ByteReader) -> Self {}
}

impl AppState for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut ByteReader) -> Self {
        r.get_u64().expect("corrupt app state")
    }
}

impl AppState for Vec<u8> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(self);
    }
    fn decode(r: &mut ByteReader) -> Self {
        r.get_bytes().expect("corrupt app state").to_vec()
    }
}

impl AppState for Vec<f64> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            w.put_f64(*v);
        }
    }
    fn decode(r: &mut ByteReader) -> Self {
        let len = r.get_u64().expect("corrupt app state") as usize;
        (0..len)
            .map(|_| r.get_f64().expect("corrupt app state"))
            .collect()
    }
}

/// A typed, fixed-length array in shared memory.
#[derive(Debug, Clone, Copy)]
pub struct SharedVec<T> {
    base: GlobalAddr,
    len: usize,
    _t: std::marker::PhantomData<T>,
}

impl<T: Shareable> SharedVec<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of element `i`.
    pub fn addr(&self, i: usize) -> GlobalAddr {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + (i * T::BYTES) as u64
    }

    /// Read element `i`.
    pub fn get(&self, proc: &mut Process, i: usize) -> T {
        proc.read(self.addr(i))
    }

    /// Write element `i`.
    pub fn set(&self, proc: &mut Process, i: usize, v: T) {
        proc.write(self.addr(i), v)
    }
}

/// Lock the node state, count the operation, and fire scripted crashes.
fn begin_op(shared: &NodeShared) -> MutexGuard<'_, NodeState> {
    let mut st = shared.state.lock();
    st.ops += 1;
    if let Some(&t) = st.crash_queue.first() {
        if st.ops >= t && st.mode == Mode::Normal && st.replay.is_none() {
            st.crash_queue.remove(0);
            st.tracer.emit(EventKind::CrashInjected { at_op: st.ops });
            drop(st);
            std::panic::panic_any(CrashSignal);
        }
    }
    st
}

/// Block until `take` produces a value; a wait that outlasts
/// [`WAIT_DEADLINE`] is a deadlock and panics with the node's state.
pub(crate) fn wait_until<T>(
    shared: &NodeShared,
    st: &mut MutexGuard<'_, NodeState>,
    take: impl FnMut(&mut NodeState) -> Option<T>,
) -> T {
    wait_until_for(st, WAIT_DEADLINE, take).unwrap_or_else(|| {
        panic!(
            "node {}: DSM operation blocked for {:?} — deadlock? wait={:?} vt={} tenure={:?} pending={:?} (FTDSM_SEED={:#x})",
            shared.me, WAIT_DEADLINE, st.wait, st.vt, st.tenure, st.pending_grants, shared.seed
        )
    })
}

/// The one place the application thread blocks: on its endpoint's reply
/// lane, with the big lock released, until `take` produces a value or
/// `timeout` is over (`None` — for waits on state someone else may abandon,
/// e.g. a prefetch batch whose reply the network dropped).
///
/// What the lane delivers — the page, grant or release being waited for, a
/// prefetched batch, recovery replies — this thread runs through
/// [`dispatch`], the function the service loop runs requests through, and
/// then asks `take` again; the handler time goes to `svc_time_by_kind` like
/// the service thread's and to [`NodeState::own_svc`]. A change `take`
/// depends on that no reply carries arrives as a poke
/// ([`NodeState::poke_if_answered`], an applied diff), which ends the
/// receive the same way.
///
/// When the node has a retry timeout configured ([`NodeState::retry_after`]),
/// the blocked request described by [`NodeState::wait`] — and any in-flight
/// diff batches — are retransmitted each time that timeout elapses without
/// the wait completing. The check is time-based (elapsed since last send)
/// rather than receive-timeout-based: unrelated replies and pokes end the
/// receive constantly, and a timer they reset would never fire under load.
fn wait_until_for<T>(
    st: &mut MutexGuard<'_, NodeState>,
    timeout: Duration,
    mut take: impl FnMut(&mut NodeState) -> Option<T>,
) -> Option<T> {
    let ep = Arc::clone(&st.ep);
    let start = Instant::now();
    let retry = st.retry_after;
    let mut retries = 0u64;
    let mut last_send = Instant::now();
    loop {
        if let Some(v) = take(st) {
            if retry.is_some() {
                st.hists.retransmits.record(retries);
            }
            return Some(v);
        }
        let mut slice = timeout.checked_sub(start.elapsed())?;
        if let Some(after) = retry {
            if last_send.elapsed() >= after {
                retries += retransmit_wait_slot(st);
                retransmit_stale_diffs(st);
                last_send = Instant::now();
            }
            slice = slice.min(after);
        }
        if let Some(ev) = MutexGuard::unlocked(st, || ep.recv_reply(slice)) {
            let (t0, kind) = (Instant::now(), ev.kind_name());
            dispatch(st, ev);
            let dt = t0.elapsed();
            *st.svc_time_by_kind.entry(kind).or_default() += dt;
            st.own_svc += dt;
        }
    }
}

/// The part of the wait since `t0` to charge as waiting: all of it but the
/// time this thread spent handling replies, which `svc_time_by_kind` has.
fn waited(st: &mut NodeState, t0: Instant) -> Duration {
    t0.elapsed().saturating_sub(std::mem::take(&mut st.own_svc))
}

/// The DSM handle of one node's application thread.
pub struct Process {
    shared: Arc<NodeShared>,
    me: usize,
    n: usize,
    layout: Layout,
    breakdown: Breakdown,
    started: Instant,
    /// Set when this incarnation restarted after a crash.
    recovering: bool,
    /// The step to resume run_steps from (checkpoint restore).
    restored_step: u64,
    /// Encoded application state from the restart checkpoint.
    restored_state: Option<Vec<u8>>,
}

impl Process {
    pub(crate) fn new(shared: Arc<NodeShared>, recovering: bool) -> Self {
        let page_size = shared.state.lock().pt.page_size();
        Process {
            me: shared.me,
            n: shared.n,
            shared,
            layout: Layout::new(page_size),
            breakdown: Breakdown::default(),
            started: Instant::now(),
            recovering,
            restored_step: 0,
            restored_state: None,
        }
    }

    /// This node's rank (0-based).
    pub fn me(&self) -> usize {
        self.me
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// True when this incarnation resumed from a checkpoint (applications
    /// guard one-time initialization writes with `!resuming()` or put them
    /// in step 0 of [`Process::run_steps`]).
    pub fn resuming(&self) -> bool {
        self.recovering && (self.restored_step > 0 || self.restored_state.is_some())
    }

    /// Run the recovery procedure (called by the cluster runtime before
    /// re-invoking the application closure).
    pub(crate) fn recover(&mut self) {
        let (step, state) = recovery::run_recovery(&self.shared);
        self.restored_step = step;
        self.restored_state = if state.is_empty() { None } else { Some(state) };
    }

    // ---- operation plumbing -------------------------------------------------
    // Guards are obtained through free functions on a locally cloned Arc so
    // that `&mut self` (breakdown timers) stays available while the node
    // state is locked.

    // ---- allocation ---------------------------------------------------------

    /// Allocate `bytes` of shared memory (page granular). Every node must
    /// perform the same allocations in the same order (SPMD); homes are
    /// chosen deterministically per `home`.
    pub fn alloc(&mut self, bytes: u64, home: HomeAlloc) -> GlobalAddr {
        let shared = Arc::clone(&self.shared);
        let mut st = begin_op(&shared);
        let pages = self.layout.pages_for(bytes).max(1);
        let first = st.alloc_cursor;
        let n = st.n;
        for i in 0..pages {
            let idx = first + i;
            let home_node = match home {
                HomeAlloc::Interleaved => idx as usize % n,
                HomeAlloc::Blocked => (i as u64 * n as u64 / pages as u64) as usize,
                HomeAlloc::Node(p) => {
                    assert!(p < n, "home node {p} out of range");
                    p
                }
            };
            if (idx as usize) < st.pt.len() {
                // Deterministic re-allocation during recovery replay.
                debug_assert_eq!(st.pt.home_of(PageId(idx)), home_node);
            } else {
                let id = st.pt.add_page(home_node);
                debug_assert_eq!(id.0, idx);
            }
        }
        st.alloc_cursor = first + pages;
        crate::runtime::node::drain_unalloc(&mut st);
        self.layout.page_base(PageId(first))
    }

    /// Allocate a typed shared array.
    pub fn alloc_vec<T: Shareable>(&mut self, len: usize, home: HomeAlloc) -> SharedVec<T> {
        let base = self.alloc((len * T::BYTES) as u64, home);
        SharedVec {
            base,
            len,
            _t: std::marker::PhantomData,
        }
    }

    // ---- reads and writes ----------------------------------------------------

    /// Read a typed value.
    pub fn read<T: Shareable>(&mut self, addr: GlobalAddr) -> T {
        let mut buf = [0u8; MAX_ACCESS];
        assert!(T::BYTES <= MAX_ACCESS, "typed access too large");
        self.access(addr, T::BYTES, None, &mut buf);
        T::read_from(&buf[..T::BYTES])
    }

    /// Write a typed value.
    pub fn write<T: Shareable>(&mut self, addr: GlobalAddr, v: T) {
        let mut buf = [0u8; MAX_ACCESS];
        assert!(T::BYTES <= MAX_ACCESS, "typed access too large");
        v.write_to(&mut buf[..T::BYTES]);
        self.access(addr, T::BYTES, Some(T::BYTES), &mut buf);
    }

    /// Read `dst.len()` raw bytes.
    pub fn read_bytes(&mut self, addr: GlobalAddr, dst: &mut [u8]) {
        let len = dst.len();
        self.access(addr, len, None, dst);
    }

    /// Write raw bytes.
    pub fn write_bytes(&mut self, addr: GlobalAddr, src: &[u8]) {
        let mut buf = src.to_vec();
        let len = src.len();
        self.access(addr, len, Some(len), &mut buf);
    }

    /// The access engine: chunk over pages, faulting pages in as needed.
    /// `write` is `Some(len)` when `buf[..len]` should be written, otherwise
    /// the bytes are read into `buf`.
    fn access(&mut self, addr: GlobalAddr, len: usize, write: Option<usize>, buf: &mut [u8]) {
        let mut st = begin_op(&self.shared);
        let mut done = 0usize;
        // Did this access fetch the copy it is about to use itself?
        let mut demanded = false;
        while done < len {
            let cur = addr + done as u64;
            let page = self.layout.page_of(cur);
            let off = self.layout.offset_in_page(cur);
            let chunk = (self.layout.page_size() - off).min(len - done);
            if let AccessOutcome::NeedFetch { .. } = st.pt.ensure_access(page) {
                // Fault the page in without the lock, then look again: only
                // our own sync operations invalidate pages, and this thread
                // is here, so one fetch normally settles it.
                drop(st);
                demanded = self.fault_in(page);
                st = self.shared.state.lock();
                continue;
            }
            let first_use = if write.is_some() {
                st.pt.write(page, off, &buf[done..done + chunk])
            } else {
                st.pt.read_into(page, off, &mut buf[done..done + chunk])
            };
            // A copy nobody had touched that no fault of ours asked for was
            // prefetched.
            if first_use && !demanded {
                st.prefetch_counts.prefetched_used += 1;
            }
            demanded = false;
            done += chunk;
        }
    }

    /// Make `page` accessible: fetch from home, wait for in-flight diffs on
    /// our own homed page, or (during recovery) emulate the home locally.
    /// Returns whether the copy is one this fault asked for, as opposed to
    /// one a prefetch already in flight brought.
    fn fault_in(&mut self, page: PageId) -> bool {
        let shared = Arc::clone(&self.shared);
        // Set once this fault has sent its own request, batch or replay.
        let mut demanded = false;
        loop {
            let mut st = shared.state.lock();
            match st.pt.ensure_access(page) {
                AccessOutcome::Ready => return demanded,
                AccessOutcome::NeedFetch { home, needed } => {
                    if st.replay.is_some() {
                        if home == self.me {
                            apply_pending_home(&mut st);
                            assert!(
                                matches!(st.pt.ensure_access(page), AccessOutcome::Ready),
                                "homed page {page} not ready during replay"
                            );
                            return false;
                        }
                        self.replay_materialize(&mut st, page);
                        demanded = true;
                        continue;
                    }
                    let t0 = Instant::now();
                    st.tracer.emit(EventKind::PageFault { page: page.0 });
                    if home == self.me {
                        // Wait for in-flight diffs to reach our own copy.
                        wait_until(&shared, &mut st, |st| {
                            matches!(st.pt.ensure_access(page), AccessOutcome::Ready).then_some(())
                        });
                        self.page_wait_done(&mut st, page, home, t0);
                        return false;
                    }
                    // A page the prefetch left out brings the neighbours it
                    // left out with it, in a batch of this fault's own.
                    if !demanded {
                        demanded = fetch_with_neighbours(&mut st, page);
                    }
                    // A batch covers this page: wait for it instead of
                    // issuing a duplicate fetch. The entry is removed when
                    // its reply is processed whether or not the install
                    // succeeded, so a miss falls through to the ordinary
                    // single-page fetch below.
                    if st.prefetch.contains_key(&page) {
                        let covered = |st: &mut NodeState| {
                            (!st.prefetch.contains_key(&page)
                                || matches!(st.pt.ensure_access(page), AccessOutcome::Ready))
                            .then_some(())
                        };
                        // With retries enabled the batch reply may have been
                        // dropped outright; bound the wait and fall back to a
                        // (retried) single-page fetch. A straggler reply for
                        // the abandoned entry is dropped by install_prefetched.
                        match st.retry_after {
                            Some(after) => {
                                if wait_until_for(&mut st, after, covered).is_none() {
                                    st.prefetch.remove(&page);
                                    st.hists
                                        .prefetch_miss
                                        .record(t0.elapsed().as_nanos() as u64);
                                    continue;
                                }
                            }
                            None => wait_until(&shared, &mut st, covered),
                        }
                        if matches!(st.pt.ensure_access(page), AccessOutcome::Ready) {
                            // Only a batch sent before the fault was a hit.
                            let ns = t0.elapsed().as_nanos() as u64;
                            if demanded {
                                st.hists.prefetch_miss.record(ns);
                            } else {
                                st.hists.prefetch_hit.record(ns);
                            }
                            self.page_wait_done(&mut st, page, home, t0);
                            return demanded;
                        }
                        st.hists
                            .prefetch_miss
                            .record(t0.elapsed().as_nanos() as u64);
                        continue;
                    }
                    let needed = fetch_needed(&st, page, needed);
                    let req_id = st.req_id_next;
                    st.req_id_next += 1;
                    st.wait = WaitSlot::Page {
                        page,
                        req_id,
                        home,
                        needed,
                        reply: None,
                    };
                    send_blocked_request(&mut st);
                    let (version, body) = wait_until(&shared, &mut st, |st| {
                        if let WaitSlot::Page { reply, .. } = &mut st.wait {
                            reply.take()
                        } else {
                            None
                        }
                    });
                    st.wait = WaitSlot::None;
                    // A full reply's shared buffer is installed as-is: the
                    // fetch path (serve → deposit → install) copies zero
                    // page bytes end to end.
                    install_reply(&mut st, page, body, &version);
                    self.page_wait_done(&mut st, page, home, t0);
                    return true;
                }
            }
        }
    }

    /// Account one finished page wait: breakdown, histogram, trace span.
    fn page_wait_done(&mut self, st: &mut NodeState, page: PageId, home: usize, t0: Instant) {
        self.breakdown.page_wait += waited(st, t0);
        st.hists.page_fetch.record(t0.elapsed().as_nanos() as u64);
        st.tracer.emit_span(
            EventKind::PageReply {
                page: page.0,
                from: home,
            },
            t0,
        );
    }

    /// End the current interval and charge its protocol and logging time to
    /// this incarnation's breakdown.
    fn close_interval(&mut self, st: &mut NodeState) {
        let (p, l) = end_interval(st);
        self.breakdown.protocol += p;
        self.breakdown.logging += l;
    }

    /// Recovery: build the emulated-home copy of `page` and install it.
    fn replay_materialize(&mut self, st: &mut MutexGuard<'_, NodeState>, page: PageId) {
        if !st.replay.as_ref().unwrap().pages.contains_key(&page) {
            // One round: every peer's diff log for the page, and with the
            // home's the maximal starting copy.
            let tckp = st.ft.as_ref().unwrap().last_ckpt_vt.clone();
            let peers: Vec<usize> = (0..self.n).filter(|&p| p != self.me).collect();
            for &p in &peers {
                let tckp = tckp.clone();
                st.send(p, Payload::RecPageReq { page, tckp });
            }
            let (mut base, mut entries) = (None, Vec::new());
            for (_, payload) in collect_replies(&self.shared, st, RecAsk::Page(page), &peers) {
                let Payload::RecPageReply {
                    copy, entries: es, ..
                } = payload
                else {
                    unreachable!("collected a reply that was not asked for")
                };
                base = base.or(copy);
                entries.extend(es);
            }
            let (version, bytes) = base.expect("the home's reply carries the starting copy");
            entries.sort_by_key(linear_key);
            let rp = ReplayPage {
                copy: dsm_page::Page::from_shared(bytes),
                version,
                entries,
            };
            st.replay.as_mut().unwrap().pages.insert(page, rp);
            st.ft.as_mut().unwrap().report.replayed_pages += 1;
        }
        // Our own logged diffs participate too: the pre-crash fetched copy
        // included them, and replay keeps regenerating them (logged at every
        // replayed interval end). Merge those the copy does not have yet —
        // at the first materialization and at every re-materialization
        // after an invalidation — so that it reproduces our own writes.
        {
            let st = &mut **st;
            let rp = st.replay.as_mut().unwrap().pages.get_mut(&page).unwrap();
            let logs = &st.ft.as_ref().unwrap().logs;
            let before = rp.entries.len();
            for e in logs.diffs_after(page, rp.version.get(self.me)) {
                if !rp.entries[..before]
                    .iter()
                    .any(|x| x.diff.interval == e.diff.interval)
                {
                    rp.entries.push(e);
                }
            }
            if rp.entries.len() > before {
                rp.entries.sort_by_key(linear_key);
            }
        }
        // Apply every diff that happened before our current replay point.
        let vt = st.vt.clone();
        let replay = st.replay.as_mut().unwrap();
        let rp = replay.pages.get_mut(&page).unwrap();
        let mut rest = Vec::with_capacity(rp.entries.len());
        for e in rp.entries.drain(..) {
            let writer = e.diff.interval.proc;
            if vt.covers(&e.t) {
                if e.diff.interval.seq > rp.version.get(writer) {
                    e.diff.apply(&mut rp.copy);
                    rp.version.set(writer, e.diff.interval.seq);
                }
            } else {
                rest.push(e);
            }
        }
        rp.entries = rest;
        // Share the emulated-home copy straight into the page table: later
        // replayed diffs copy-on-write `rp.copy`, so the installed buffer
        // stays a consistent snapshot.
        let bytes = rp.copy.share();
        let version = rp.version.clone();
        st.pt.install_fetch(page, bytes, &version);
    }

    // ---- synchronization -----------------------------------------------------

    /// Acquire a lock (LRC acquire: joins the granter's release timestamp
    /// and applies the write notices we were missing).
    pub fn acquire(&mut self, lock: LockId) {
        let shared = Arc::clone(&self.shared);
        let mut st = begin_op(&shared);
        assert!(
            !st.holds(lock),
            "node {} re-acquiring held lock {lock}",
            self.me
        );
        if st.replay.is_some() {
            if self.try_replay_acquire(&mut st, lock) {
                return;
            }
            recovery::go_live(&mut st);
        }
        let acq_seq = st.acq_seq_next;
        st.acq_seq_next += 1;
        let manager = lock % st.n;
        st.tracer.emit(EventKind::LockRequest { lock: lock as u32 });
        let req_vt = st.vt.clone();
        st.wait = WaitSlot::Lock {
            lock,
            acq_seq,
            manager,
            req_vt,
            grant: None,
        };
        send_blocked_request(&mut st);
        let t0 = Instant::now();
        let g = wait_until(&shared, &mut st, |st| {
            if let WaitSlot::Lock { grant, .. } = &mut st.wait {
                grant.take()
            } else {
                None
            }
        });
        st.wait = WaitSlot::None;
        self.breakdown.lock_wait += waited(&mut st, t0);
        st.hists.lock_wait.record(t0.elapsed().as_nanos() as u64);
        st.tracer
            .emit_span(EventKind::LockAcquire { lock: lock as u32 }, t0);
        self.apply_grant(&mut st, g);
    }

    fn apply_grant(&mut self, st: &mut MutexGuard<'_, NodeState>, g: GrantData) {
        self.close_interval(st);
        let pre = st.vt.clone();
        st.vt.join(&g.vt);
        let mut invalidated = Vec::new();
        for wn in &g.wns {
            if pre.covers_interval(wn.interval) {
                continue;
            }
            st.wn_table.insert(wn.clone());
            for &pg in &wn.pages {
                st.pt.invalidate(pg, wn.interval.proc, wn.interval.seq);
                invalidated.push(pg);
            }
        }
        issue_prefetch(st, &invalidated);
        let t_after = st.vt.clone();
        if let Some(ft) = st.ft.as_mut() {
            ft.logs.log_acq(
                g.granter,
                RelEntry {
                    acq_seq: g.acq_seq,
                    lock: g.lock,
                    gen: g.gen,
                    req_vt: pre,
                    t_after,
                },
            );
        }
        st.tenure.insert(g.lock, (g.acq_seq, false));
        st.tenure_gen.insert(g.lock, g.gen);
    }

    fn try_replay_acquire(&mut self, st: &mut MutexGuard<'_, NodeState>, lock: LockId) -> bool {
        let acq_seq = st.acq_seq_next;
        let replay = st.replay.as_ref().unwrap();
        match replay.rel.get(&acq_seq).cloned() {
            Some((granter, entry)) => {
                assert_eq!(
                    entry.lock, lock,
                    "replay acquire lock mismatch at acq_seq {acq_seq}"
                );
                st.acq_seq_next += 1;
                self.close_interval(st);
                let pre = st.vt.clone();
                st.vt.join(&entry.t_after);
                self.apply_replay_invalidations(st, &pre);
                st.tenure.insert(lock, (acq_seq, false));
                st.tenure_gen.insert(lock, entry.gen);
                if lock % st.n == self.me {
                    // We manage this lock: our replayed tenure is a chain
                    // position the handshake could not report (peers report
                    // their own tenures and issued grants, not ours).
                    st.sync.lock().lock_mgr.restore_chain(
                        lock,
                        entry.gen,
                        self.me,
                        acq_seq,
                        Some(granter),
                    );
                }
                apply_pending_home(st);
                true
            }
            None => {
                // No peer logged a grant for this acquisition. Either the
                // acquire never completed (the crash point) or it was a
                // *self-grant* — we were the chain tail and granted
                // ourselves, and the grant record died with us. Evidence of
                // any later logged event of ours proves the acquire
                // completed, and since no peer granted it, it must have
                // been a self-grant: replaying one is purely local (the
                // grant joins our own release timestamp — a no-op — and
                // carries no notices).
                let later_rel = replay.rel.keys().any(|&s| s > acq_seq);
                let later_bar = replay.bar_results.keys().any(|&e| e >= st.bar_episode);
                // A grant we *gave* (mirrored in a peer's acq_log) or a
                // peer diff whose timestamp carries our component beyond
                // the replayed clock is equally conclusive: peers can only
                // have seen interval vt[me]+1 if the op that created it —
                // at or after this acquire — completed before the crash.
                let later_iv = replay.evidence_self > st.vt.get(st.me);
                if !(later_rel || later_bar || later_iv) {
                    return false;
                }
                st.acq_seq_next += 1;
                self.close_interval(st);
                st.tenure.insert(lock, (acq_seq, false));
                if lock % st.n == self.me {
                    // We also manage this lock: our self-grant proves we
                    // were the chain tail *at this tenure*. A self-grant's
                    // generation died with the old manager incarnation, but
                    // the run of consecutive self-granted tenures extends
                    // back to our newest peer-granted tenure (generation
                    // `tenure_gen`), and any tenure after the run was
                    // granted *by us* — restored from our mirrored release
                    // log with its real, higher generation. So a restored
                    // tail newer than `tenure_gen` means the chain moved
                    // past the run (claiming the tail would let our
                    // post-recovery acquire self-grant without the peers'
                    // write notices); anything else is stale and the run's
                    // end is the true tail.
                    let me = self.me;
                    let g_run = st.tenure_gen.get(&lock).copied().unwrap_or(0);
                    let mut sync = st.sync.lock();
                    let moved_past = sync
                        .lock_mgr
                        .tail_gen_of(lock)
                        .is_some_and(|g| g > g_run && sync.lock_mgr.tail_of(lock) != Some(me));
                    if !moved_past {
                        sync.lock_mgr.force_tail(lock, me, acq_seq);
                    }
                    drop(sync);
                }
                apply_pending_home(st);
                true
            }
        }
    }

    fn apply_replay_invalidations(
        &mut self,
        st: &mut MutexGuard<'_, NodeState>,
        pre: &VectorClock,
    ) {
        let post = st.vt.clone();
        for iv in pre.missing_from(&post) {
            if let Some(pages) = st.wn_table.get(iv).map(|p| p.to_vec()) {
                for pg in pages {
                    st.pt.invalidate(pg, iv.proc, iv.seq);
                }
            }
        }
    }

    /// Release a lock (flushes the interval's diffs to their homes).
    pub fn release(&mut self, lock: LockId) {
        let shared = Arc::clone(&self.shared);
        let mut st = begin_op(&shared);
        assert!(
            st.holds(lock),
            "node {} releasing unheld lock {lock}",
            self.me
        );
        self.close_interval(&mut st);
        let vt = st.vt.clone();
        st.last_release_vt.insert(lock, vt);
        if let Some(t) = st.tenure.get_mut(&lock) {
            t.1 = true;
        }
        if st.replay.is_some() {
            apply_pending_home(&mut st);
            return;
        }
        // Serve only the queued forwards chaining behind tenures we have now
        // released; one chaining behind a *future* tenure of ours (our next
        // in-flight acquisition) stays queued until that tenure's release.
        let released_acq = st.tenure.get(&lock).map(|&(a, _)| a).unwrap_or(u64::MAX);
        if let Some(mut q) = st.pending_grants.remove(&lock) {
            let (now, later): (Vec<_>, Vec<_>) =
                q.drain(..).partition(|pg| pg.pred_acq <= released_acq);
            if !later.is_empty() {
                st.pending_grants.insert(lock, later);
            }
            for pg in now {
                grant_now(&mut st, lock, pg.requester, pg.acq_seq, pg.gen, pg.req_vt);
            }
        }
        let fp = st.shared_bytes();
        if let Some(ft) = st.ft.as_mut() {
            ft.policy_check_sync(fp);
        }
    }

    /// Global barrier.
    pub fn barrier(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut st = begin_op(&shared);
        if st.replay.is_some() {
            if self.try_replay_barrier(&mut st) {
                return;
            }
            recovery::go_live(&mut st);
        }
        self.close_interval(&mut st);
        let episode = st.bar_episode;
        st.tracer.emit(EventKind::BarrierEnter {
            episode: episode as u32,
        });
        let arrive_vt = st.vt.clone();
        // Interval-delta encode the notices accumulated since the previous
        // arrival: the arena is built once here; the wait slot and the
        // arrival share it by refcount.
        let own_wns = WnDelta::from_notices(&std::mem::take(&mut st.wn_since_barrier));
        let me = self.me;
        if let Some(ft) = st.ft.as_mut() {
            ft.last_bar_arrive_seq = arrive_vt.get(me);
        }
        st.wait = WaitSlot::Barrier {
            episode,
            arrive_vt: arrive_vt.clone(),
            own_wns,
            release: None,
        };
        send_blocked_request(&mut st);
        let t0 = Instant::now();
        let rel: ReleaseData = wait_until(&shared, &mut st, |st| {
            if let WaitSlot::Barrier { release, .. } = &mut st.wait {
                release.take()
            } else {
                None
            }
        });
        st.wait = WaitSlot::None;
        self.breakdown.barrier_wait += waited(&mut st, t0);
        st.hists.barrier_wait.record(t0.elapsed().as_nanos() as u64);
        st.tracer.emit_span(
            EventKind::BarrierRelease {
                episode: episode as u32,
            },
            t0,
        );

        let pre = st.vt.clone();
        st.vt.join(&rel.vt);
        let mut invalidated = Vec::new();
        for (interval, pages) in rel.wns.iter() {
            if pre.covers_interval(interval) {
                continue;
            }
            st.wn_table.insert_parts(interval, pages.to_vec());
            for &pg in pages {
                st.pt.invalidate(pg, interval.proc, interval.seq);
                invalidated.push(pg);
            }
        }
        issue_prefetch(&mut st, &invalidated);
        let result_vt = st.vt.clone();
        if let Some(ft) = st.ft.as_mut() {
            ft.logs.log_bar(BarEntry {
                episode,
                arrive_vt,
                result_vt,
            });
        }
        let crossed = st.bar_episode;
        st.bar_episode += 1;
        let fp = st.shared_bytes();
        if let Some(ft) = st.ft.as_mut() {
            ft.policy_check_sync(fp);
            ft.policy_check_barrier(crossed);
        }
    }

    fn try_replay_barrier(&mut self, st: &mut MutexGuard<'_, NodeState>) -> bool {
        let episode = st.bar_episode;
        let Some(result) = st
            .replay
            .as_ref()
            .unwrap()
            .bar_results
            .get(&episode)
            .cloned()
        else {
            return false;
        };
        self.close_interval(st);
        let arrive_vt = st.vt.clone();
        let me = self.me;
        if let Some(ft) = st.ft.as_mut() {
            ft.last_bar_arrive_seq = arrive_vt.get(me);
        }
        st.wn_since_barrier.clear();
        let pre = st.vt.clone();
        st.vt.join(&result);
        self.apply_replay_invalidations(st, &pre);
        let result_vt = st.vt.clone();
        if let Some(ft) = st.ft.as_mut() {
            ft.logs.log_bar(BarEntry {
                episode,
                arrive_vt,
                result_vt,
            });
        }
        st.bar_episode += 1;
        apply_pending_home(st);
        true
    }

    // ---- checkpoint safe points ------------------------------------------------

    /// Request a checkpoint at the next safe point (for
    /// [`crate::CkptPolicy::Manual`] and application-directed checkpoints —
    /// the memory-exclusion style optimization the paper discusses).
    pub fn request_checkpoint(&mut self) {
        let mut st = self.shared.state.lock();
        if let Some(ft) = st.ft.as_mut() {
            ft.ckpt_due = true;
        }
    }

    /// One-time initialization: runs `f` followed by a barrier, skipped
    /// entirely when resuming from a checkpoint (the restored state already
    /// contains the initialization's effects, and re-crossing its barrier
    /// would desynchronize replay). Use this for everything an application
    /// does before its [`Process::run_steps`] loop.
    pub fn init_phase(&mut self, f: impl FnOnce(&mut Process)) {
        if self.resuming() {
            return;
        }
        f(self);
        self.barrier();
    }

    /// Step-structured execution with checkpoint safe points.
    ///
    /// Runs `body(self, state, step)` for `step in 0..total`. At each step
    /// boundary the runtime may take an independent checkpoint capturing
    /// `state`; after a crash, execution resumes from the checkpointed step
    /// with `state` restored, replaying the DSM operations in between from
    /// the peers' logs.
    pub fn run_steps<S: AppState>(
        &mut self,
        state: &mut S,
        total: u64,
        mut body: impl FnMut(&mut Process, &mut S, u64),
    ) {
        let start = if self.recovering {
            if let Some(bytes) = self.restored_state.take() {
                let mut r = ByteReader::new(&bytes);
                *state = S::decode(&mut r);
            }
            self.restored_step
        } else {
            0
        };
        for step in start..total {
            self.safe_point(step, state);
            body(self, state, step);
        }
    }

    fn safe_point<S: AppState>(&mut self, step: u64, state: &S) {
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        if st.replay.is_some() {
            return; // no checkpoints while replaying
        }
        let due = match st.ft.as_mut() {
            Some(ft) => ft.ckpt_due_at_step(step),
            None => false,
        };
        if !due {
            return;
        }
        // A checkpoint must not record as sent what no survivor can
        // resupply: a diff still in the outbox dies with this node, and
        // replay from this checkpoint would not make it again. Flush the
        // open interval, then let every home acknowledge (the `DiffAck`
        // that empties the outbox pokes this wait; nothing is queued when
        // the retry layer is off).
        self.close_interval(&mut st);
        let t0 = Instant::now();
        wait_until(&shared, &mut st, |st| st.diffs.drained().then_some(()));
        self.breakdown.logging += waited(&mut st, t0);
        let mut w = ByteWriter::new();
        state.encode(&mut w);
        let (logging, disk) = crate::ft::take_checkpoint(&mut st, step, w.into_bytes());
        self.breakdown.logging += logging;
        self.breakdown.disk_write += disk;
    }

    // ---- lifecycle ----------------------------------------------------------

    /// Flush any unsynchronized writes and fold this incarnation's
    /// breakdown into the node report.
    pub(crate) fn finish(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        if st.replay.is_some() {
            // The application completed entirely under replay (it had
            // finished before the crash): transition to live so peers can
            // be served.
            recovery::go_live(&mut st);
        }
        self.close_interval(&mut st);
        self.flush_stats(&mut st);
    }

    /// Fold timing into the node report without finishing (crash path).
    pub(crate) fn flush_stats(&mut self, st: &mut NodeState) {
        self.breakdown.total = self.started.elapsed();
        st.breakdown_acc = st.breakdown_acc.merged(&self.breakdown);
        self.breakdown = Breakdown::default();
        self.started = Instant::now();
    }

    /// Crash path: record partial timing.
    pub(crate) fn abandon(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        self.flush_stats(&mut st);
    }
}
