//! Structured protocol tracing for the fault-tolerant DSM.
//!
//! The crate provides four layers:
//!
//! 1. **Events** ([`Event`], [`EventKind`]) — a typed vocabulary for every
//!    HLRC + FT protocol transition (page faults, diffs, locks, barriers,
//!    checkpoints, log trims, CGC, messages, crashes, recovery phases).
//! 2. **Recording** ([`Trace`], [`NodeTracer`], [`Ring`]) — one bounded
//!    ring buffer per node behind a single atomic enable flag; when
//!    disabled, emitting costs one relaxed load and a branch.
//! 3. **Aggregation** ([`Histogram`], [`LatencyHists`]) — hand-rolled
//!    log2-bucketed latency histograms merged into the run report.
//! 4. **Export** ([`export`]) — JSONL and Chrome trace-event JSON (one
//!    lane per node, loadable in Perfetto / `chrome://tracing`), plus a
//!    flight recorder that dumps the last events per node on panic.

mod ctx;
mod event;
pub mod export;
mod flight;
mod hist;
pub mod json;
mod ring;

pub use ctx::TraceCtx;
pub use event::{Event, EventKind, RecPhase, TrimRule};
pub use flight::{dump_flight_recorders, register_flight_recorder};
pub use hist::{bucket_lo, bucket_of, Histogram, LatencyHists, BUCKETS};
pub use ring::Ring;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// A consumer of the live event stream, called synchronously from the
/// emitting thread (after the event is recorded into the ring). Used by
/// the online invariant monitor; a sink must be cheap and must not emit
/// events itself.
pub trait EventSink: Send + Sync {
    /// Observe one freshly recorded event.
    fn on_event(&self, e: &Event);
}

/// How a [`Trace`] records. Built explicitly or from the environment
/// (`FTDSM_TRACE`, `FTDSM_TRACE_ECHO`, `FTDSM_TRACE_BUF`).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Master switch; when false, emit is a load + branch.
    pub enabled: bool,
    /// Echo every recorded event to stderr as it happens.
    pub echo: bool,
    /// Per-node ring capacity in events.
    pub buffer: usize,
}

/// Events per node the flight recorder dumps.
const FLIGHT_EVENTS: usize = 64;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            echo: false,
            buffer: 16 * 1024,
        }
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

impl TraceConfig {
    /// Tracing on with default buffering.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Read the `FTDSM_TRACE*` environment variables.
    pub fn from_env() -> Self {
        let enabled = env_flag("FTDSM_TRACE");
        let echo = env_flag("FTDSM_TRACE_ECHO");
        let buffer = std::env::var("FTDSM_TRACE_BUF")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(16 * 1024);
        TraceConfig {
            enabled,
            echo,
            buffer,
        }
    }
}

pub(crate) struct Shared {
    enabled: AtomicBool,
    echo: AtomicBool,
    epoch: Instant,
    nodes: Vec<Mutex<Ring>>,
    sink: RwLock<Option<Arc<dyn EventSink>>>,
}

/// Cluster-wide trace handle: owns the per-node rings and the enable flag.
/// Cheap to clone (an `Arc` internally); one per run.
#[derive(Clone)]
pub struct Trace {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("nodes", &self.n_nodes())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Trace {
    /// Create a trace for an `n_nodes` cluster.
    pub fn new(n_nodes: usize, config: &TraceConfig) -> Self {
        let shared = Arc::new(Shared {
            enabled: AtomicBool::new(config.enabled),
            echo: AtomicBool::new(config.echo),
            epoch: Instant::now(),
            nodes: (0..n_nodes)
                .map(|_| Mutex::new(Ring::new(config.buffer)))
                .collect(),
            sink: RwLock::new(None),
        });
        Trace { shared }
    }

    /// A disabled trace for tests and default construction.
    pub fn disabled(n_nodes: usize) -> Self {
        Trace::new(n_nodes, &TraceConfig::default())
    }

    /// Handle for one node's threads to emit through.
    pub fn tracer(&self, node: usize) -> NodeTracer {
        assert!(node < self.shared.nodes.len(), "node out of range");
        NodeTracer {
            shared: Arc::clone(&self.shared),
            node,
        }
    }

    /// Is recording on?
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed);
    }

    /// Number of node lanes.
    pub fn n_nodes(&self) -> usize {
        self.shared.nodes.len()
    }

    /// Nanoseconds since the trace epoch.
    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// Copy out one node's retained events, oldest first.
    pub fn node_events(&self, node: usize) -> Vec<Event> {
        self.shared.nodes[node]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot()
    }

    /// Copy out all events from all nodes, merged in timestamp order.
    pub fn all_events(&self) -> Vec<Event> {
        let mut all: Vec<Event> = (0..self.n_nodes())
            .flat_map(|n| self.node_events(n))
            .collect();
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Per-node (retained, total-pushed) counts.
    pub fn counts(&self) -> Vec<(usize, u64)> {
        self.shared
            .nodes
            .iter()
            .map(|m| {
                let r = m.lock().unwrap_or_else(PoisonError::into_inner);
                (r.len(), r.total_pushed())
            })
            .collect()
    }

    /// Register this trace with the global flight-recorder registry so a
    /// panic anywhere dumps its tail (see [`dump_flight_recorders`]).
    pub fn register_flight_recorder(&self) {
        flight::register(Arc::downgrade(&self.shared));
    }

    /// Attach a live event sink (e.g. the invariant monitor). The sink is
    /// called synchronously from every emitting thread while tracing is
    /// enabled. Pass `None` to detach. The sink must not hold a strong
    /// reference back to this trace (that would leak the rings).
    pub fn set_sink(&self, sink: Option<Arc<dyn EventSink>>) {
        *self
            .shared
            .sink
            .write()
            .unwrap_or_else(PoisonError::into_inner) = sink;
    }

    /// Stitch the causal flow `flow` out of the retained events: every
    /// `MsgSend`/`MsgRecv` on the flow or directly parented by it, plus the
    /// chain of ancestor sends (bounded walk), in timestamp order.
    pub fn events_for_flow(&self, flow: u64) -> Vec<Event> {
        stitch_flow(self.all_events(), flow)
    }
}

/// Stitch one causal flow out of a timestamp-sorted event dump. Walks the
/// parent chain upward (a reply's parent is the request's flow, whose send
/// may itself have a parent), then keeps every event on any flow in the
/// chain or directly parented by one.
pub(crate) fn stitch_flow(all: Vec<Event>, flow: u64) -> Vec<Event> {
    let mut flows = vec![flow];
    let mut cursor = flow;
    for _ in 0..8 {
        let parent = all.iter().find_map(|e| match e.kind.flow_ref() {
            Some((f, p)) if f == cursor && p != 0 => Some(p),
            _ => None,
        });
        match parent {
            Some(p) if !flows.contains(&p) => {
                flows.push(p);
                cursor = p;
            }
            _ => break,
        }
    }
    all.into_iter()
        .filter(|e| match e.kind.flow_ref() {
            Some((f, p)) => flows.contains(&f) || (p != 0 && flows.contains(&p)),
            None => false,
        })
        .collect()
}

impl Shared {
    pub(crate) fn dump_tail(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        let mut all: Vec<Event> = Vec::new();
        for (node, ring) in self.nodes.iter().enumerate() {
            let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
            let snap = ring.snapshot();
            let tail = snap.len().saturating_sub(FLIGHT_EVENTS);
            writeln!(
                out,
                "--- node {node}: last {} of {} events ({} dropped from ring) ---",
                snap.len() - tail,
                ring.total_pushed(),
                ring.dropped(),
            )?;
            for e in &snap[tail..] {
                writeln!(out, "{e}")?;
            }
            all.extend(snap);
        }
        // The last stitched causal flow: usually the message being served
        // when things went wrong.
        all.sort_by_key(|e| e.ts_ns);
        let last_flow = all.iter().rev().find_map(|e| match &e.kind {
            EventKind::MsgRecv { flow, .. } if *flow != 0 => Some(*flow),
            _ => None,
        });
        if let Some(flow) = last_flow {
            writeln!(out, "--- last causal flow (flow {flow}) ---")?;
            for e in stitch_flow(all, flow) {
                writeln!(out, "{e}")?;
            }
        }
        Ok(())
    }
}

/// Per-node emitting handle, shared by a node's app and service threads.
/// All emit paths start with one relaxed atomic load; when tracing is
/// disabled nothing else runs.
#[derive(Clone)]
pub struct NodeTracer {
    shared: Arc<Shared>,
    node: usize,
}

impl NodeTracer {
    /// A tracer that records nothing (for default-constructed state).
    pub fn disabled() -> Self {
        Trace::disabled(1).tracer(0)
    }

    /// Is recording on? Callers can skip payload construction when not.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Record an instant event.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if !self.enabled() {
            return;
        }
        let ts = self.shared.epoch.elapsed().as_nanos() as u64;
        self.push(Event {
            ts_ns: ts,
            dur_ns: 0,
            node: self.node,
            kind,
        });
    }

    /// Record a span that started at `start` and ends now.
    #[inline]
    pub fn emit_span(&self, kind: EventKind, start: Instant) {
        if !self.enabled() {
            return;
        }
        let dur = start.elapsed().as_nanos() as u64;
        let end = self.shared.epoch.elapsed().as_nanos() as u64;
        self.push(Event {
            ts_ns: end.saturating_sub(dur),
            dur_ns: dur.max(1),
            node: self.node,
            kind,
        });
    }

    fn push(&self, e: Event) {
        if self.shared.echo.load(Ordering::Relaxed) {
            eprintln!("{e}");
        }
        self.shared.nodes[self.node]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(e.clone());
        let sink = self
            .shared
            .sink
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = sink.as_ref() {
            s.on_event(&e);
        }
    }

    /// Nanoseconds since the trace epoch (shared by every node's tracer,
    /// so cross-node timestamps and transit times are comparable).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// The node this tracer writes to.
    pub fn node(&self) -> usize {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled(2);
        let tr = t.tracer(1);
        assert!(!tr.enabled());
        tr.emit(EventKind::PageFault { page: 1 });
        tr.emit_span(
            EventKind::RecoveryPhase {
                phase: RecPhase::Replay,
            },
            Instant::now(),
        );
        assert!(t.all_events().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_ts_order_across_nodes() {
        let t = Trace::new(2, &TraceConfig::enabled());
        let a = t.tracer(0);
        let b = t.tracer(1);
        a.emit(EventKind::LockRequest { lock: 1 });
        b.emit(EventKind::LockGrant {
            lock: 1,
            to: 0,
            gen: 1,
        });
        a.emit(EventKind::LockAcquire { lock: 1 });
        let all = t.all_events();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        assert_eq!(t.node_events(0).len(), 2);
        assert_eq!(t.node_events(1).len(), 1);
    }

    #[test]
    fn span_event_has_duration_and_earlier_start() {
        let t = Trace::new(1, &TraceConfig::enabled());
        let tr = t.tracer(0);
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.emit_span(EventKind::CkptBegin { seq: 1 }, start);
        let e = &t.all_events()[0];
        assert!(e.dur_ns >= 1_000_000, "dur {} too small", e.dur_ns);
        assert!(e.ts_ns + e.dur_ns <= t.now_ns() + 1_000_000);
    }

    #[test]
    fn runtime_toggle() {
        let t = Trace::disabled(1);
        let tr = t.tracer(0);
        tr.emit(EventKind::PageFault { page: 1 });
        t.set_enabled(true);
        tr.emit(EventKind::PageFault { page: 2 });
        t.set_enabled(false);
        tr.emit(EventKind::PageFault { page: 3 });
        let all = t.all_events();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].kind, EventKind::PageFault { page: 2 });
    }
}
