//! Cluster construction and the run loop.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_metrics::{labelled, FlightSource, Snapshot, TimeSeries};
use dsm_net::Fabric;
use dsm_page::PageId;
use dsm_storage::StableStore;
use dsm_trace::{EventSink, Trace, TraceConfig};
use parking_lot::Mutex;

use crate::config::{ClusterConfig, FailureSpec};
use crate::ft::FtState;
use crate::monitor::Monitor;
use crate::msg::Msg;
use crate::runtime::node::{service_loop, CrashSignal, Mode, NodeShared, NodeState};
use crate::runtime::process::Process;
use crate::stats::{NodeReport, RunReport};

/// Keep injected fail-stop crashes (which are implemented as panics with a
/// [`CrashSignal`] payload) out of stderr; real panics still print, followed
/// by the flight-recorder tail of any trace-enabled run in the process.
fn install_crash_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CrashSignal>() {
                return;
            }
            default(info);
            dsm_trace::dump_flight_recorders("panic");
            dsm_metrics::dump_on_panic();
        }));
    });
}

/// What the cluster's metrics are `ts_ns` into the run: the metric table of
/// a fresh [`NodeState::report`] of every node. Never blocks — it is what the
/// sampler calls during the run and the panic hook at the moment of death: a
/// node whose lock is held is left out (of a periodic sample, until the next).
fn snapshot(ts_ns: u64, fabric: &Fabric<Msg>, shareds: &[Arc<NodeShared>]) -> Snapshot {
    let mut snap = Snapshot::at(ts_ns);
    for s in shareds {
        let traffic = fabric.stats().node(s.me);
        let report = s.state.try_lock().and_then(|st| st.report(traffic));
        for (name, value) in report.iter().flat_map(NodeReport::metrics) {
            snap.insert(labelled(&name, "node", s.me), value);
        }
    }
    snap
}

/// How long a crashed node stays dead before it restarts. No message sent
/// before the crash may still be in flight when it is back (the lock-chain
/// reset of recovery relies on it), so `run` refuses a chaos plan that can
/// delay a message this long; a frame the plan lost, the fabric's restart
/// waits for the link to deliver.
const DEAD_FOR: Duration = Duration::from_millis(10);

const FNV_BASIS: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over 64-bit values.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .fold(FNV_BASIS, |h, v| (h ^ v).wrapping_mul(FNV_PRIME))
}

/// The hash of a page's bytes: four FNV-1a lanes over its little-endian
/// `u64` words, word `i` to lane `i % 4` — four multiplies in flight rather
/// than one per byte in a chain — then the lanes and any bytes past the
/// last 32-byte block, folded in order. Each step is a bijection of its
/// lane for a fixed word and of its word for a fixed lane, so a page that
/// differs in one byte hashes differently.
fn page_hash(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_BASIS; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
            *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
        }
    }
    let tail = blocks.remainder().iter().map(|&b| b as u64);
    fnv1a(lanes.into_iter().chain(tail))
}

/// FNV-1a over the [`page_hash`] of every page's home copy, in page order.
/// Each node's state lock is taken once, and a buffer pages share is hashed
/// once: a node's zero page, which every page it homes that no change has
/// reached still is.
fn shared_hash(shareds: &[Arc<NodeShared>]) -> u64 {
    let homes: Vec<usize> = {
        let st = shareds[0].state.lock();
        (0..st.pt.len() as u32)
            .map(|p| st.pt.home_of(PageId(p)))
            .collect()
    };
    let mut copies = vec![None; homes.len()];
    for s in shareds {
        let st = s.state.lock();
        for (p, _) in homes.iter().enumerate().filter(|&(_, &h)| h == s.me) {
            copies[p] = Some(st.pt.home_snapshot(PageId(p as u32)).1);
        }
    }
    // Keyed by address: `copies` keeps every buffer alive meanwhile.
    let mut hashed: HashMap<*const u8, u64> = HashMap::new();
    fnv1a(copies.iter().map(|bytes| {
        let bytes = bytes.as_ref().expect("every page has a home");
        *hashed
            .entry(bytes.as_ptr())
            .or_insert_with(|| page_hash(bytes))
    }))
}

/// Run an SPMD application on a simulated cluster.
///
/// `app` is invoked once per node with that node's [`Process`] handle (and
/// re-invoked after a scripted crash, with recovery and replay handled by
/// the runtime). Returns the per-node results plus all statistics.
pub fn run<R, F>(config: ClusterConfig, failures: &[FailureSpec], app: F) -> RunReport<R>
where
    F: Fn(&mut Process) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    install_crash_hook();
    let n = config.nodes;
    assert!(n >= 2, "a DSM cluster needs at least two nodes");
    if !failures.is_empty() {
        assert!(
            config.ft_enabled(),
            "failure injection requires fault tolerance"
        );
    }

    // The monitor is an event sink: it needs the stream, so it forces
    // tracing on even if the config left it off.
    let trace_cfg = if config.monitor && !config.trace.enabled {
        TraceConfig::enabled()
    } else {
        config.trace.clone()
    };
    let trace = Trace::new(n, &trace_cfg);
    if trace.is_enabled() {
        trace.register_flight_recorder();
    }
    let monitor: Option<Arc<Monitor>> = config.monitor.then(|| Arc::new(Monitor::new(n)));
    if let Some(m) = &monitor {
        trace.set_sink(Some(Arc::clone(m) as Arc<dyn EventSink>));
    }
    let inject_stale_apply = config
        .inject_stale_apply
        .then(|| Arc::new(AtomicBool::new(true)));
    let (fabric, endpoints) = Fabric::<Msg>::new(n);
    if let Some(plan) = &config.chaos {
        let delay = plan.max_delay();
        assert!(
            delay < DEAD_FOR,
            "the chaos plan may delay a message by {delay:?}, not less than the {DEAD_FOR:?} a \
             crashed node stays dead: recovery's lock-chain reset needs every message sent \
             before a crash delivered or lost by the time the node is back"
        );
        // One knob reproduces a run: the cluster seed replaces whatever the
        // plan was built with.
        let mut plan = plan.clone();
        plan.seed = config.seed;
        fabric.set_fault_plan(&plan);
    }
    let mut shareds: Vec<Arc<NodeShared>> = Vec::with_capacity(n);
    for (i, mut ep) in endpoints.into_iter().enumerate() {
        ep.attach_tracer(trace.tracer(i));
        let mut crash_queue: Vec<u64> = failures
            .iter()
            .filter(|f| f.node == i)
            .map(|f| f.at_op)
            .collect();
        crash_queue.sort_unstable();
        let ft = (config.ft)
            .map(|policy| FtState::new(i, n, policy, Arc::new(StableStore::new(config.disk))));
        let mut state = NodeState::new(i, n, config.page_size, Arc::new(ep), ft, trace.tracer(i));
        state.crash_queue = crash_queue;
        state.inject_stale_apply = inject_stale_apply.clone();
        shareds.push(Arc::new(NodeShared {
            state: Mutex::new(state),
            me: i,
            n,
            seed: config.seed,
        }));
    }

    let service_handles: Vec<_> = shareds
        .iter()
        .map(|s| {
            let s = Arc::clone(s);
            std::thread::Builder::new()
                .name(format!("dsm-svc-{}", s.me))
                .spawn(move || service_loop(s))
                .expect("spawn service thread")
        })
        .collect();

    // One closure says what the metrics are now: the panic-time dump calls
    // it (registered weakly: it dies with this run), the periodic sampler
    // does, and teardown does for a sampled run's closing snapshot.
    let take_snapshot: Arc<FlightSource> = {
        let (fabric, shareds, epoch) = (fabric.clone(), shareds.clone(), Instant::now());
        Arc::new(move || snapshot(epoch.elapsed().as_nanos() as u64, &fabric, &shareds))
    };
    dsm_metrics::register_flight_source(&take_snapshot);
    // The periodic sampler: one thread, a snapshot every `every` into the
    // series it hands back (and onto the JSONL file when one is configured).
    let metrics_out = config.metrics.as_ref().and_then(|m| m.out.clone());
    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics_handle = config.metrics.as_ref().map(|mcfg| {
        let (every, stop, out) = (mcfg.every, Arc::clone(&metrics_stop), metrics_out.clone());
        let take_snapshot = Arc::clone(&take_snapshot);
        std::thread::Builder::new()
            .name("dsm-metrics".into())
            .spawn(move || {
                let mut series = TimeSeries::new();
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(every);
                    let snap = take_snapshot();
                    if let Some(path) = &out {
                        snap.append_jsonl(path);
                    }
                    series.push(snap);
                }
                series
            })
            .expect("spawn metrics sampler")
    });

    let app = Arc::new(app);
    let active_recoveries = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let app_handles: Vec<_> = (0..n)
        .map(|i| {
            let shared = Arc::clone(&shareds[i]);
            let app = Arc::clone(&app);
            let fabric = fabric.clone();
            let active = Arc::clone(&active_recoveries);
            std::thread::Builder::new()
                .name(format!("dsm-app-{i}"))
                .spawn(move || {
                    let mut recovering = false;
                    loop {
                        let mut proc = Process::new(Arc::clone(&shared), recovering);
                        if recovering {
                            proc.recover();
                            active.fetch_sub(1, Ordering::SeqCst);
                        }
                        let res = catch_unwind(AssertUnwindSafe(|| app(&mut proc)));
                        match res {
                            Ok(v) => {
                                proc.finish();
                                return v;
                            }
                            Err(p) if p.is::<CrashSignal>() => {
                                proc.abandon();
                                let prev = active.fetch_add(1, Ordering::SeqCst);
                                assert_eq!(
                                    prev, 0,
                                    "overlapping failures violate the single-fault model"
                                );
                                // Fail-stop: volatile state is gone, then
                                // queued input is lost.
                                shared.state.lock().fail_stop();
                                fabric.crash(i);
                                shared.state.lock().ep.drain();
                                std::thread::sleep(DEAD_FOR);
                                shared.state.lock().set_mode(Mode::Recovering);
                                // Peers learn of the restart from the
                                // recovery handshake.
                                fabric.restart(i);
                                recovering = true;
                            }
                            Err(p) => resume_unwind(p),
                        }
                    }
                })
                .expect("spawn app thread")
        })
        .collect();

    let results: Vec<R> = app_handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        })
        .collect();
    let wall = t0.elapsed();

    // Let in-flight protocol traffic (final diff flushes) quiesce. Only the
    // service threads' handlers still send, which makes the check exact.
    while !fabric.quiescent() {
        std::thread::sleep(Duration::from_micros(200));
    }

    // Stop the service threads before collecting reports: the fast path
    // folds its accumulated per-kind timing and histograms into the node
    // state only at loop exit.
    for s in shareds.iter() {
        let mut st = s.state.lock();
        st.shutdown = true;
        st.ep.wake();
    }
    for h in service_handles {
        let _ = h.join();
    }

    // Stop the metrics sampler; a sampled run ends its series with a closing
    // snapshot, so that even a short one has the final state.
    metrics_stop.store(true, Ordering::SeqCst);
    let mut metrics = TimeSeries::new();
    if let Some(h) = metrics_handle {
        metrics = h.join().unwrap_or_default();
        let final_snap = take_snapshot();
        if let Some(path) = &metrics_out {
            // Final state in Prometheus exposition format next to the JSONL.
            final_snap.append_jsonl(path);
            let _ = std::fs::write(path.with_extension("prom"), final_snap.to_prometheus());
        }
        metrics.push(final_snap);
    }

    // The monitor's verdict: fail the run loudly on the first violation,
    // with the offending causal flow stitched from the trace.
    let monitor_report = monitor.as_ref().map(|m| {
        trace.set_sink(None);
        let rep = m.finish();
        if let Some(v) = rep.violations.first() {
            let mut msg = format!(
                "protocol invariant violated: {v}\n  (FTDSM_SEED={:#x}, {} violations total)\n",
                config.seed,
                rep.violations.len()
            );
            let flow = trace.events_for_flow(v.flow);
            if !flow.is_empty() {
                msg.push_str("  causal flow:\n");
                for e in &flow {
                    msg.push_str(&format!("    {e}\n"));
                }
            }
            panic!("{msg}");
        }
        rep
    });

    // Collect reports and compute the final shared-memory hash from the
    // authoritative home copies.
    let mut nodes = Vec::with_capacity(n);
    let mut shared_bytes = 0;
    let hash = shared_hash(&shareds);
    for s in &shareds {
        let st = s.state.lock();
        shared_bytes = shared_bytes.max(st.shared_bytes());
        let report = st.report(fabric.stats().node(s.me));
        nodes.push(report.expect("every thread of the node has exited"));
    }

    RunReport {
        results,
        nodes,
        wall,
        shared_bytes,
        shared_hash: hash,
        trace,
        phases: fabric.stats().total_phases(),
        metrics,
        monitor: monitor_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_net::{FaultPlan, FaultRule};

    fn two_nodes_under(plan: FaultPlan) -> RunReport<usize> {
        run(ClusterConfig::base(2).with_chaos(plan), &[], |p| p.me())
    }

    #[test]
    fn a_lossy_plan_delivers_within_the_dead_time() {
        assert_eq!(FaultPlan::lossy(0).max_delay(), Duration::from_millis(2));
        assert_eq!(two_nodes_under(FaultPlan::lossy(0)).results, [0, 1]);
    }

    #[test]
    #[should_panic(expected = "the chaos plan may delay a message by 20ms, not less than the 10ms")]
    fn a_plan_that_delays_past_the_dead_time_is_refused() {
        let slow = Duration::from_millis(20);
        let rule = FaultRule::all().delaying(0.01, Duration::from_millis(1), slow);
        two_nodes_under(FaultPlan::new(0).with_rule(rule));
    }

    #[test]
    fn a_flipped_byte_changes_its_page_and_swapped_pages_change_the_run() {
        // 4 blocks of 32 bytes and a 5-byte tail: every word of every lane,
        // and the bytes no lane takes.
        let page: Vec<u8> = (0..133u32).map(|i| (i * 37 % 251) as u8).collect();
        let h = page_hash(&page);
        for i in 0..page.len() {
            for bit in [0x01, 0x80, 0xff] {
                let mut flipped = page.clone();
                flipped[i] ^= bit;
                assert_ne!(page_hash(&flipped), h, "byte {i} ^ {bit:#x}");
            }
        }
        // The run hash is over pages in page order.
        let other = page_hash(&page[..128]);
        assert_ne!(fnv1a([h, other]), fnv1a([other, h]));
        assert_ne!(fnv1a([h, h]), fnv1a([h]));
    }

    /// The run hash is over every page's bytes, and pages no change has
    /// reached — they hold no home state — are explicit zero pages to it.
    #[test]
    fn pages_nobody_touches_hash_as_explicit_zero_pages() {
        let config = ClusterConfig::base(2);
        let size = config.page_size;
        let report = run(config, &[], move |p| {
            let base = p.alloc(5 * size as u64, crate::HomeAlloc::Interleaved);
            if p.me() == 1 {
                p.write(base + 2 * size as u64 + 8, 7u64);
            }
            p.barrier();
        });
        let zero = vec![0u8; size];
        let mut written = zero.clone();
        written[8] = 7;
        let pages = [&zero, &zero, &written, &zero, &zero];
        let hashes = pages.map(|bytes| page_hash(bytes));
        assert_eq!(report.shared_hash, fnv1a(hashes));
    }
}
