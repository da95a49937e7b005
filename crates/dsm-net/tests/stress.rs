//! Concurrency stress tests for the fabric.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use dsm_net::{Event, Fabric, WireSized};

#[derive(Debug, Clone, PartialEq, Eq)]
struct M(usize, u64);
impl WireSized for M {
    fn base_wire_size(&self) -> usize {
        16
    }
}

#[test]
fn concurrent_all_to_all_delivery_is_complete_and_fifo() {
    const N: usize = 6;
    const PER_PAIR: u64 = 500;
    let (fabric, endpoints) = Fabric::<M>::new(N);
    let endpoints: Vec<Arc<_>> = endpoints.into_iter().map(Arc::new).collect();

    let mut handles = Vec::new();
    // Senders: every node sends PER_PAIR numbered messages to every peer.
    for (me, ep) in endpoints.iter().enumerate() {
        let ep = Arc::clone(ep);
        handles.push(thread::spawn(move || {
            for k in 0..PER_PAIR {
                for to in 0..N {
                    if to != me {
                        assert!(ep.send(to, M(me, k)));
                    }
                }
            }
        }));
    }
    // Receivers: drain and check per-sender FIFO.
    let mut receivers = Vec::new();
    for ep in endpoints.iter() {
        let ep = Arc::clone(ep);
        receivers.push(thread::spawn(move || {
            let mut next = [0u64; N];
            let mut got = 0u64;
            while got < PER_PAIR * (N as u64 - 1) {
                match ep.recv() {
                    Some(Event::Msg { from, msg }) => {
                        assert_eq!(msg.0, from);
                        assert_eq!(msg.1, next[from], "per-sender FIFO violated");
                        next[from] += 1;
                        got += 1;
                    }
                    Some(Event::Wakeup) => {}
                    None => panic!("fabric closed early"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for h in receivers {
        h.join().unwrap();
    }
    let total = fabric.stats().total();
    assert_eq!(total.msgs_sent, (N * (N - 1)) as u64 * PER_PAIR);
    assert_eq!(total.base_bytes_sent, total.msgs_sent * 16);
}

#[test]
fn crash_during_traffic_never_wedges_senders() {
    let (fabric, endpoints) = Fabric::<M>::new(3);
    let endpoints: Vec<Arc<_>> = endpoints.into_iter().map(Arc::new).collect();
    let ep0 = Arc::clone(&endpoints[0]);
    let sender = thread::spawn(move || {
        for k in 0..10_000 {
            ep0.send(1, M(0, k)); // may be dropped mid-stream
        }
    });
    thread::sleep(std::time::Duration::from_millis(1));
    fabric.crash(1);
    endpoints[1].drain();
    sender.join().unwrap();
    fabric.restart(1);
    // Nobody is told of the restart.
    assert!(endpoints[2].try_recv().is_none());
    // Fresh messages flow again.
    assert!(endpoints[0].send(1, M(0, 1)));
    let stats = fabric.stats().node(0).snapshot();
    assert!(stats.msgs_dropped > 0 || stats.msgs_sent == 10_001);
}

/// The wakeup-driven service-loop shape under churn: a blocking receiver is
/// nudged with [`Endpoint::wake`] through repeated crash/restart cycles and
/// interleaved traffic, and must neither wedge nor miss its shutdown signal.
#[test]
fn wakeups_race_with_crash_restart_and_never_wedge() {
    const ROUNDS: u64 = 300;
    let (fabric, endpoints) = Fabric::<M>::new(2);
    let endpoints: Vec<Arc<_>> = endpoints.into_iter().map(Arc::new).collect();

    let done = Arc::new(AtomicBool::new(false));
    let svc = {
        let ep = Arc::clone(&endpoints[1]);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let (mut msgs, mut wakeups) = (0u64, 0u64);
            loop {
                match ep.recv() {
                    Some(Event::Wakeup) => {
                        wakeups += 1;
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Some(Event::Msg { from, .. }) => {
                        assert_eq!(from, 0);
                        msgs += 1;
                    }
                    None => break,
                }
            }
            (msgs, wakeups)
        })
    };

    for k in 0..ROUNDS {
        assert!(endpoints[0].send(1, M(0, k)));
        fabric.crash(1);
        // A wakeup is local control flow: it reaches the crashed node's own
        // queue (the runtime wakes its service thread during recovery).
        endpoints[1].wake();
        // Sends to the crashed node are dropped, never delivered late.
        assert!(!endpoints[0].send(1, M(0, k)));
        fabric.restart(1);
    }
    done.store(true, Ordering::SeqCst);
    endpoints[1].wake();
    let (msgs, wakeups) = svc.join().unwrap();
    assert!(wakeups >= 1, "shutdown wakeup was lost");
    assert!(msgs <= ROUNDS, "a dropped message was delivered");
    assert_eq!(fabric.stats().node(0).snapshot().msgs_dropped, ROUNDS);
}

#[test]
fn no_poke_is_lost_between_a_waiters_check_and_its_receive() {
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};
    const ROUNDS: u64 = 100_000;
    const LOST: Duration = Duration::from_secs(20);
    let (_fabric, mut endpoints) = Fabric::<M>::new(2);
    let ep = Arc::new(endpoints.remove(0));
    // `state` is what the waiter's predicate reads; `seen` hands the turn
    // back, so every round races one check-then-receive against one
    // change-then-poke with nothing else to wake the waiter.
    let state = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(0));
    let poker = {
        let (ep, state, seen) = (Arc::clone(&ep), Arc::clone(&state), Arc::clone(&seen));
        thread::spawn(move || {
            for round in 1..=ROUNDS {
                while seen.load(Ordering::SeqCst) < round - 1 {
                    thread::yield_now();
                }
                state.store(round, Ordering::SeqCst);
                ep.poke();
            }
        })
    };
    for round in 1..=ROUNDS {
        while state.load(Ordering::SeqCst) < round {
            let t0 = Instant::now();
            assert!(ep.recv_reply(LOST).is_none());
            assert!(t0.elapsed() < LOST, "round {round}: wake-up lost");
        }
        seen.store(round, Ordering::SeqCst);
    }
    poker.join().unwrap();
}
