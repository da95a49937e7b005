//! Direct probes (source P): each layer's public functions called in a
//! tight loop from one thread, outside any cluster unless stated. A probe
//! runs five batches and reports the median batch's time per call, so one
//! descheduled batch does not move the number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_metrics::Registry;
use dsm_net::{Event, Fabric, WireSized};
use dsm_page::{Diff, DiffScratch, Interval, Page, PageId, VectorClock};
use dsm_storage::{ByteReader, ByteWriter, DiskModel, SegmentKind, StableStore};
use dsm_trace::{EventKind, Trace, TraceConfig};
use ftdsm::ft::ckpt::CheckpointBlob;
use ftdsm::{wire, ClusterConfig, HomeAlloc};
use hlrc::barrier::ArriveOutcome;
use hlrc::locks::AcqReq;
use hlrc::{
    Arrival, BarrierManager, HomeStore, LockManagerTable, PageTable, WaitingFetch, WnDelta, WnTable,
};

use crate::ledger::Values;
use crate::spans::Recorder;

const PAGE: usize = 4096;
const BATCHES: usize = 5;

/// Median over the batches of nanoseconds per call of `f`, which is handed
/// the call's running index. Each batch lasts at least `batch`.
fn ns_per_call(batch: Duration, mut f: impl FnMut(u64)) -> f64 {
    let mut k = 0u64;
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let mut calls = 0u64;
        loop {
            for _ in 0..64 {
                f(k);
                k += 1;
            }
            calls += 64;
            if t0.elapsed() >= batch {
                break;
            }
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// A page whose first `words` u64 words differ from `Page::zeroed`.
fn dirty_page(words: usize) -> Page {
    let mut p = Page::zeroed(PAGE);
    for w in 0..words {
        p.write(w * 8, &(w as u64 + 1).to_le_bytes());
    }
    p
}

fn diff_of(words: usize) -> Diff {
    let iv = Interval { proc: 1, seq: 1 };
    Diff::create(PageId(0), iv, &Page::zeroed(PAGE), &dirty_page(words)).expect("pages differ")
}

/// The smallest message the fabric accepts.
#[derive(Clone)]
struct Ping;

impl WireSized for Ping {
    fn base_wire_size(&self) -> usize {
        8
    }
}

/// Run every probe, one span each, and return the numbers by metric name.
pub fn run_all(batch: Duration, rec: &mut Recorder) -> Values {
    let mut v = Values::new();
    let mut probe = |name: &'static str, rec: &mut Recorder, value: &mut dyn FnMut() -> f64| {
        let s = rec.begin_owned(format!("probe.{name}"));
        v.insert(name, value());
        rec.end(s);
    };

    // core::runtime::process: reads and writes of a valid, locally homed page
    // through the public DSM API, in a live 2-node cluster (node 1 idles).
    let s = rec.begin("probe.process.local_rw");
    let report = ftdsm::run(cluster_config(), &[], move |p| {
        let data = p.alloc_vec::<u64>(PAGE / 8, HomeAlloc::Node(0));
        let mut out = (0.0, 0.0);
        if p.me() == 0 {
            data.set(p, 0, 1);
            out.0 = ns_per_call(batch, |k| {
                black_box(data.get(p, (k % 512) as usize));
            });
            out.1 = ns_per_call(batch, |k| data.set(p, (k % 512) as usize, k));
        }
        p.barrier();
        out
    });
    rec.end(s);
    let (local_read_ns, local_write_ns) = report.results[0];

    // hlrc::pagetable: the access check on a valid remote page, and the
    // install of a fetched copy.
    let zero = VectorClock::zero(2);
    let mut pt = PageTable::new(0, 2, PAGE);
    let remote = pt.add_page(1);
    let copies: [Arc<[u8]>; 2] = [vec![1u8; PAGE].into(), vec![2u8; PAGE].into()];
    pt.install_fetch(remote, Arc::clone(&copies[0]), &zero);
    probe("pagetable.ensure_access_ns", rec, &mut || {
        ns_per_call(batch, |_| {
            black_box(pt.ensure_access(black_box(remote)));
        })
    });
    probe("pagetable.install_fetch_ns", rec, &mut || {
        ns_per_call(batch, |k| {
            pt.install_fetch(remote, Arc::clone(&copies[(k % 2) as usize]), &zero)
        })
    });

    // hlrc::homestore: serving a fetch that is ready, and applying a 32-word
    // diff whose interval advances the page version every call.
    let store = HomeStore::new(2, PAGE);
    store.add(PageId(0));
    probe("homestore.serve_fetch_ns", rec, &mut || {
        ns_per_call(batch, |k| {
            let req = WaitingFetch {
                from: 1,
                page: PageId(0),
                needed: zero.clone(),
                req_id: k,
            };
            black_box(store.serve_fetch(req, || true));
        })
    });
    let mut diff = diff_of(32);
    probe("homestore.apply_diff_ns", rec, &mut || {
        ns_per_call(batch, |k| {
            diff.interval.seq = k as u32 + 1;
            black_box(store.apply_diff(&diff, || true));
        })
    });

    // dsm-page: diff creation at three densities, diff application, the
    // twin plus first write of an interval, and a vector-clock join.
    let clean = Page::zeroed(PAGE);
    let mut scratch = DiffScratch::new();
    for (name, words) in [
        ("diff.create_ns.w1", 1),
        ("diff.create_ns.w32", 32),
        ("diff.create_ns.w512", 512),
    ] {
        let dirty = dirty_page(words);
        probe(name, rec, &mut || {
            ns_per_call(batch, |k| {
                let iv = Interval {
                    proc: 1,
                    seq: k as u32,
                };
                black_box(Diff::create_with(
                    &mut scratch,
                    PageId(0),
                    iv,
                    &clean,
                    &dirty,
                ));
            })
        });
    }
    let d32 = diff_of(32);
    let mut target = Page::zeroed(PAGE);
    target.write(0, &[0]);
    probe("diff.apply_ns.w32", rec, &mut || {
        ns_per_call(batch, |_| d32.apply(black_box(&mut target)))
    });
    let mut page = dirty_page(8);
    probe("page.twin_write_ns", rec, &mut || {
        ns_per_call(batch, |k| {
            let twin = page.twin();
            page.write(0, &k.to_le_bytes());
            black_box(twin);
        })
    });
    let mut a = VectorClock::from_vec(vec![1, 9, 3, 7]);
    let b = VectorClock::from_vec(vec![5, 2, 8, 4]);
    probe("vclock.join_ns", rec, &mut || {
        ns_per_call(batch, |_| a.join(black_box(&b)))
    });

    // hlrc::wn / locks / barrier: the manager-side state machines.
    let mut wns = WnTable::new();
    for seq in 1..=64u32 {
        for proc in 0..2 {
            wns.insert_parts(Interval { proc, seq }, vec![PageId(seq), PageId(seq + 64)]);
        }
    }
    let (from, to) = (
        VectorClock::from_vec(vec![56, 56]),
        VectorClock::from_vec(vec![64, 64]),
    );
    probe("wn.missing_between_ns", rec, &mut || {
        ns_per_call(batch, |_| {
            black_box(wns.missing_between(&from, &to));
        })
    });
    let mut locks = LockManagerTable::new(0);
    probe("locks.on_request_ns", rec, &mut || {
        ns_per_call(batch, |k| {
            let req = AcqReq {
                requester: 1 + (k % 2) as usize,
                acq_seq: k,
                vt: zero.clone(),
            };
            black_box(locks.on_request(1, req));
        })
    });
    let mut barrier = BarrierManager::new(2);
    probe("barrier.arrive_ns", rec, &mut || {
        ns_per_call(batch, |k| {
            let outcome = barrier.arrive(Arrival {
                proc: (k % 2) as usize,
                episode: k / 2,
                vt: zero.clone(),
                own_wns: WnDelta::empty(),
            });
            debug_assert_eq!(matches!(outcome, ArriveOutcome::Complete(_)), k % 2 == 1);
            black_box(outcome);
        })
    });

    // dsm-net::endpoint: enqueue plus dequeue on one thread, and the
    // blocked-receiver wake-up floor of this host (two threads, half a
    // ping-pong round trip).
    let (_fabric, eps) = Fabric::<Ping>::new(2);
    probe("net.send_recv_ns", rec, &mut || {
        ns_per_call(batch, |_| {
            eps[0].send(1, Ping);
            black_box(eps[1].try_recv());
        })
    });
    probe("net.oneway_wake_us", rec, &mut || {
        std::thread::scope(|s| {
            s.spawn(|| {
                while let Some(Event::Msg { .. }) = eps[1].recv() {
                    eps[1].send(0, Ping);
                }
            });
            let round_trip_ns = ns_per_call(batch, |_| {
                eps[0].send(1, Ping);
                black_box(eps[0].recv());
            });
            eps[1].wake();
            round_trip_ns / 2.0 / 1e3
        })
    });

    // core::wire and dsm-storage: reply and diff codecs, the checkpoint
    // codec on a 32-page blob, and a 128 KiB segment write to an instant disk.
    let copies16: Vec<_> = (0..16u32)
        .map(|i| (PageId(i), zero.clone(), Arc::clone(&copies[0])))
        .collect();
    probe("wire.page_copies_encode_ns", rec, &mut || {
        ns_per_call(batch, |_| {
            let mut w = ByteWriter::with_capacity(17 * PAGE);
            wire::put_page_copies(&mut w, &copies16);
            black_box(w.into_bytes());
        })
    });
    probe("wire.diff_roundtrip_ns", rec, &mut || {
        ns_per_call(batch, |_| {
            let mut w = ByteWriter::new();
            wire::put_diff(&mut w, &d32);
            let bytes = w.into_bytes();
            black_box(wire::get_diff(&mut ByteReader::new(&bytes)).expect("own encoding"));
        })
    });
    let blob = CheckpointBlob {
        seq: 1,
        delta: false,
        base_seq: 0,
        tckp: zero.clone(),
        bar_episode: 7,
        acq_seq_next: 3,
        last_bar_arrive_seq: 2,
        step: 5,
        app_state: vec![0; 64],
        needed: vec![(PageId(1), 1, 2)],
        tenures: vec![(1, 2, 3, true)],
        last_release_vts: vec![(1, zero.clone())],
        home_pages: (0..32u32)
            .map(|i| (PageId(i), zero.clone(), vec![i as u8; PAGE]))
            .collect(),
    };
    let encoded = blob.encode();
    let mb_per_s = |ns: f64| encoded.len() as f64 / 1e6 / (ns / 1e9);
    probe("codec.ckpt_encode_mb_s", rec, &mut || {
        mb_per_s(ns_per_call(batch, |_| {
            black_box(blob.encode());
        }))
    });
    probe("codec.ckpt_decode_mb_s", rec, &mut || {
        mb_per_s(ns_per_call(batch, |_| {
            black_box(CheckpointBlob::decode(&encoded).expect("own encoding"));
        }))
    });
    let disk = StableStore::new(DiskModel::instant());
    let segment = vec![7u8; 128 * 1024];
    probe("store.write_segment_us", rec, &mut || {
        ns_per_call(batch, |k| {
            black_box(disk.write_segment(SegmentKind::Checkpoint, k % 8, segment.clone()));
        }) / 1e3
    });

    // dsm-trace / dsm-metrics: what one hook costs, off and on.
    for (name, cfg) in [
        ("trace.emit_disabled_ns", TraceConfig::default()),
        ("trace.emit_enabled_ns", TraceConfig::enabled()),
    ] {
        let tracer = Trace::new(1, &cfg).tracer(0);
        probe(name, rec, &mut || {
            ns_per_call(batch, |k| {
                tracer.emit(EventKind::CrashInjected { at_op: k })
            })
        });
    }
    let counter = Registry::new().counter("probe_total");
    probe("metrics.counter_inc_ns", rec, &mut || {
        ns_per_call(batch, |_| counter.inc())
    });
    v.insert("process.local_read_ns", local_read_ns);
    v.insert("process.local_write_ns", local_write_ns);
    v
}

fn cluster_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::base(2)
        .with_page_size(PAGE)
        .with_trace(TraceConfig::default())
        .with_seed(0);
    cfg.metrics = None;
    cfg
}
