//! The application-facing DSM handle.
//!
//! One [`Process`] per node, used by the application thread. All shared
//! memory access, synchronization, allocation, checkpoint safe points, and
//! (after a crash) log-based replay run through it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_net::{Event, WireSized};
use dsm_page::{GlobalAddr, Layout, PageId};
use dsm_storage::{ByteReader, ByteWriter};
use dsm_trace::EventKind;
use hlrc::{AccessOutcome, LockId};
use parking_lot::MutexGuard;

use crate::config::HomeAlloc;
use crate::ft::{self, recovery};
use crate::runtime::node::{drain_unalloc, CrashSignal, Mode, NodeShared, NodeState, Reader};
use crate::runtime::{fetch, interval};
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
        if st.ops >= t && st.mode == Mode::Normal && !st.rec.replaying() {
            st.crash_queue.remove(0);
            st.tracer.emit(EventKind::CrashInjected { at_op: st.ops });
            drop(st);
            std::panic::panic_any(CrashSignal);
        }
    }
    st
}

/// The one place the application thread blocks: on its endpoint's queue,
/// with the big lock released, until `take` produces a value. A wait that
/// outlasts [`WAIT_DEADLINE`] is a deadlock and panics with the node's state.
///
/// From its first receive on, the wait is open: this thread reads every
/// message that comes for the node — the pages, grant or release waited
/// for, a prefetched page, recovery replies, the peers' requests and, at
/// the barrier manager, their arrivals — runs each through
/// [`Reader::handle`], the body the service loop runs, and then asks `take`
/// again; the handler time goes to `svc_time_by_kind` like the service
/// thread's and to [`NodeState::own_svc`]. A change `take` depends on that a
/// message the service thread handled made arrives as a poke, which ends the
/// receive the same way. Nothing is sent again from here: the fabric
/// delivers every request, under a fault plan through its link.
///
/// A wait [`NodeState::block_on`] opened as its request left is this
/// one's from the start. The wait stays open — the service thread reads
/// nothing — until the caller has applied what it waited for and closes it
/// ([`Waiting::close`]): a message served before the apply could be a
/// forward of the very lock whose grant is not applied yet.
pub(crate) fn wait_until<T>(
    shared: &NodeShared,
    st: &mut MutexGuard<'_, NodeState>,
    mut take: impl FnMut(&mut NodeState) -> Option<T>,
) -> (T, Waiting) {
    let mut wait = Waiting(st.wait_opened().then(|| Reader::of(st)));
    let start = Instant::now();
    loop {
        if let Some(v) = take(st) {
            return (v, wait);
        }
        let Some(slice) = WAIT_DEADLINE.checked_sub(start.elapsed()) else {
            panic!(
                "node {}: DSM operation blocked for {:?} — deadlock? wait={:?} fetch={:?} vt={} sync={:?} (FTDSM_SEED={:#x})",
                shared.me, WAIT_DEADLINE, st.wait, st.fetch.awaited(), st.vt, st.sync, shared.seed
            )
        };
        if let Some(dt) = wait.serve(shared, st, slice) {
            st.own_svc += dt;
        }
    }
}

/// A wait [`wait_until`] may have opened: its reader, once it received or
/// from the start if the request's send opened it. Closed by
/// [`Waiting::close`] or, unwinding, by its drop.
pub(crate) struct Waiting(Option<Reader>);

type Guard<'a> = MutexGuard<'a, NodeState>;

impl Waiting {
    /// Take the next message ([`dsm_net::Endpoint::recv_reply`], blocking up
    /// to `d`) and handle it; returns the handler time. Its kind's bucket
    /// gets the time, and a request counts as one served inside a wait.
    fn serve(&mut self, shared: &NodeShared, st: &mut Guard<'_>, d: Duration) -> Option<Duration> {
        let reader = self.0.get_or_insert_with(|| Reader::of(st));
        let (kind, dt, request) = MutexGuard::unlocked(st, || {
            let Some(Event::Msg { from, msg }) = reader.ep.recv_reply(d) else {
                return None;
            };
            let (kind, request) = (msg.payload.kind(), !msg.to_waiter());
            Some((kind, reader.handle(shared, from, msg).0, request))
        })?;
        *st.svc_time_by_kind.entry(kind).or_default() += dt;
        st.counts.app_served += request as u64;
        Some(dt)
    }

    /// Serve, without blocking, what is queued, then close the wait, so the
    /// service thread reads again. Called once the operation has applied
    /// what it waited for. A message that comes now would otherwise wake the
    /// service thread: the next lock request, say, right behind a release.
    pub(crate) fn close(mut self, shared: &NodeShared, st: &mut Guard<'_>) {
        while self.0.is_some() && self.serve(shared, st, Duration::ZERO).is_some() {}
        if let Some(reader) = self.0.take() {
            st.hists.merge(&reader.hists);
            reader.ep.close_wait();
        }
    }
}

impl Drop for Waiting {
    fn drop(&mut self) {
        if let Some(reader) = &self.0 {
            reader.ep.close_wait();
        }
    }
}

/// The part of the wait since `t0` to charge as waiting: all of it but the
/// time this thread spent handling messages, which `svc_time_by_kind` has.
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
        drain_unalloc(&mut st);
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
            if first_use {
                fetch::first_use(&mut st, page, demanded);
            }
            demanded = false;
            done += chunk;
        }
    }

    /// Make `page` accessible: install the zero page when it is cold, fetch
    /// from home, or wait for in-flight diffs on our own homed page. A
    /// replayed miss is the same: its home is emulated, and answers its
    /// request ([`recovery::fetch_missed`]). Returns whether the copy is one
    /// this fault asked for, as opposed to one a fetch already in flight
    /// brought.
    fn fault_in(&mut self, page: PageId) -> bool {
        let shared = Arc::clone(&self.shared);
        // Set once this fault has sent its own request.
        let mut demanded = false;
        loop {
            let mut st = shared.state.lock();
            let AccessOutcome::NeedFetch { home, .. } = st.pt.ensure_access(page) else {
                return demanded;
            };
            // No page wait: nothing is sent, and no sample recorded.
            if fetch::zero_fill(&mut st, page) {
                return true;
            }
            let t0 = Instant::now();
            st.tracer.emit(EventKind::PageFault { page: page.0 });
            let ready =
                |st: &mut NodeState| matches!(st.pt.ensure_access(page), AccessOutcome::Ready);
            if home == self.me {
                // Wait for in-flight diffs to reach our own copy.
                let ((), wait) = wait_until(&shared, &mut st, |st| ready(st).then_some(()));
                self.page_wait_done(&mut st, page, home, t0);
                wait.close(&shared, &mut st);
                return false;
            }
            // A fetch in flight that covers the page is waited for; else the
            // fault asks: live, for the page and the neighbours prefetch left
            // out with it, replayed, the emulated home for the page alone.
            // Either way the wait is on the page's entry, which its reply
            // removes whether or not it installed the page.
            let found = st.fetch.in_flight(page);
            let skipped = fetch::left_out(&st, page).is_some();
            if !found {
                recovery::fetch_missed(&mut st, page);
                demanded = true;
            }
            st.fetch.await_page(page);
            let ((), wait) = wait_until(&shared, &mut st, |st| {
                (!st.fetch.in_flight(page) || ready(st)).then_some(())
            });
            st.fetch.await_over();
            // A hit found its page in flight and that request made it ready;
            // a miss is a page prefetch left out — its last copy unused, or
            // never held and named by a notice — or one whose request was
            // overtaken by a newer invalidation. A miss prefetch had no part
            // in is neither.
            let (ready, ns) = (ready(&mut st), t0.elapsed().as_nanos() as u64);
            if skipped || !ready {
                st.hists.prefetch_miss.record(ns);
            } else if found {
                st.hists.prefetch_hit.record(ns);
            }
            if ready {
                self.page_wait_done(&mut st, page, home, t0);
            }
            wait.close(&shared, &mut st);
            if ready {
                return demanded;
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

    // ---- synchronization -----------------------------------------------------

    /// Acquire a lock (LRC acquire: joins the granter's release timestamp
    /// and applies the write notices we were missing). Replayed, the grant
    /// is the one the logs give, parked in the wait slot as the request's
    /// answer (`NodeState::block_on`).
    pub fn acquire(&mut self, lock: LockId) {
        let shared = Arc::clone(&self.shared);
        let mut st = begin_op(&shared);
        ft::publish_written(&mut st);
        assert!(
            !st.sync.holds(lock),
            "node {} re-acquiring held lock {lock}",
            self.me
        );
        interval::request(&mut st, lock);
        let t0 = Instant::now();
        let (g, wait) = wait_until(&shared, &mut st, |st| st.wait.take()?.pop());
        self.breakdown.lock_wait += waited(&mut st, t0);
        st.hists.lock_wait.record(t0.elapsed().as_nanos() as u64);
        st.tracer
            .emit_span(EventKind::LockAcquire { lock: lock as u32 }, t0);
        interval::apply_grant(&mut st, g, &mut self.breakdown);
        wait.close(&shared, &mut st);
    }

    /// Release a lock (closes the interval; its diffs leave with the node's
    /// next message).
    pub fn release(&mut self, lock: LockId) {
        let shared = Arc::clone(&self.shared);
        let mut st = begin_op(&shared);
        ft::publish_written(&mut st);
        assert!(
            st.sync.holds(lock),
            "node {} releasing unheld lock {lock}",
            self.me
        );
        st.close_interval(&mut self.breakdown);
        interval::release(&mut st, lock);
    }

    /// Global barrier. Replayed, the release is the one the logs give, as
    /// for [`Process::acquire`].
    pub fn barrier(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut st = begin_op(&shared);
        // A checkpoint is advertised by the next barrier: its release's
        // gossip is how every peer learns it in time to trim against it.
        self.await_disk(&mut st);
        let episode = interval::arrive(&mut st, &mut self.breakdown);
        let t0 = Instant::now();
        let ((_, release), wait) = wait_until(&shared, &mut st, |st| st.wait.take()?.pop());
        self.breakdown.barrier_wait += waited(&mut st, t0);
        st.hists.barrier_wait.record(t0.elapsed().as_nanos() as u64);
        st.tracer.emit_span(
            EventKind::BarrierRelease {
                episode: episode as u32,
            },
            t0,
        );
        interval::cross_barrier(&mut st, release);
        wait.close(&shared, &mut st);
    }

    // ---- checkpoint safe points ------------------------------------------------

    /// Request a checkpoint at the next safe point (for
    /// [`crate::CkptPolicy::Manual`] and application-directed checkpoints —
    /// the memory-exclusion style optimization the paper discusses).
    pub fn request_checkpoint(&mut self) {
        self.shared.state.lock().ft.request_checkpoint();
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
        ft::publish_written(&mut st);
        // No checkpoints while replaying.
        if st.rec.replaying() || !st.ft.ckpt_due_at_step(step) {
            return;
        }
        // Close the open interval: the checkpoint sends every held diff
        // before it records the interval as sent, and what is sent is
        // delivered even if this node crashes next.
        st.close_interval(&mut self.breakdown);
        // One checkpoint on the disk at a time: one that falls due while
        // the last is still being written waits for it.
        self.await_disk(&mut st);
        let mut w = ByteWriter::new();
        state.encode(&mut w);
        ft::take_checkpoint(&mut st, step, w.into_bytes(), &mut self.breakdown);
    }

    // ---- lifecycle ----------------------------------------------------------

    /// Wait, with the big lock released, until the disk is done with the
    /// checkpoint in flight, then publish it. The wait — at a barrier, a
    /// checkpoint that falls due, or the end of the run — is the
    /// application's disk stall (`Breakdown::disk_write`).
    fn await_disk(&mut self, st: &mut MutexGuard<'_, NodeState>) {
        let Some(done_at) = st.ft.disk_busy_until() else {
            return;
        };
        let t0 = Instant::now();
        if done_at > t0 {
            MutexGuard::unlocked(st, || std::thread::sleep(done_at - t0));
            self.breakdown.disk_write += t0.elapsed();
        }
        ft::publish_written(st);
    }

    /// Flush any unsynchronized writes and send the diffs held for their
    /// homes, wait until the disk has the last checkpoint, fold this
    /// incarnation's breakdown into the node report, and leave the node's
    /// queue to the service thread.
    pub(crate) fn finish(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        if st.rec.replaying() {
            // The application completed entirely under replay (it had
            // finished before the crash): transition to live so peers can
            // be served.
            recovery::go_live(&mut st);
        }
        st.close_interval(&mut self.breakdown);
        st.send_unsent();
        self.await_disk(&mut st);
        self.flush_stats(&mut st);
        // No wait reads the queue from here on, and a peer may still need
        // what comes for this thread handled: a re-arrival whose release
        // was lost after our last barrier.
        st.ep.hand_over_replies();
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
