//! Offline shim for the `crossbeam` crate.
//!
//! **Unused.** The fabric's queue is `dsm-net`'s own `Mailbox` now, and no
//! crate imports this one; it stays a dependency of `dsm-net` and `ftdsm`
//! only because dropping the edge rewrites `perfbench/Cargo.lock`, which CI
//! builds `--locked` (ROADMAP item 3 removes both together). What follows
//! describes what it was for.
//!
//! Only `crossbeam::channel::{unbounded, Sender, Receiver, RecvTimeoutError}`
//! is used by this workspace. Unlike `std::sync::mpsc`, crossbeam receivers
//! are `Sync` and cloneable (MPMC) — the DSM runtime relies on this because
//! an `Arc<Endpoint>` (holding the receiver) is shared between each node's
//! service thread and app thread. The shim therefore implements a small
//! MPMC queue on a `Mutex<VecDeque>` + `Condvar` rather than delegating to
//! std mpsc.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        avail: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the timeout elapsed.
        Timeout,
        /// All senders dropped and the queue is empty.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("receive timed out"),
                RecvTimeoutError::Disconnected => f.write_str("channel disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is currently empty.
        Empty,
        /// All senders dropped and the queue is empty.
        Disconnected,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Sending half of an unbounded MPMC channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of an unbounded MPMC channel (cloneable, `Sync`).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            avail: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message, waking one waiting receiver.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.items.push_back(value);
            drop(st);
            self.shared.avail.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut st = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.senders += 1;
            drop(st);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                // Wake all receivers so they observe the disconnect.
                self.shared.avail.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match st.items.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Block until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .shared
                    .avail
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Block until a message arrives, all senders disconnect, or
        /// `timeout` elapses.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = st.items.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .shared
                    .avail
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .items
                .len()
        }

        /// True when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            let mut st = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.receivers += 1;
            drop(st);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc as StdArc;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        }

        #[test]
        fn disconnect_observed_after_drain() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn receiver_is_sync_and_shareable() {
            let (tx, rx) = unbounded();
            let rx = StdArc::new(rx);
            let rx2 = StdArc::clone(&rx);
            let h = std::thread::spawn(move || rx2.recv_timeout(Duration::from_secs(2)).unwrap());
            tx.send(42usize).unwrap();
            assert_eq!(h.join().unwrap(), 42);
            assert!(rx.is_empty());
        }

        #[test]
        fn mpmc_cross_thread_wakeups() {
            let (tx, rx) = unbounded::<usize>();
            let mut handles = Vec::new();
            for _ in 0..4 {
                let rx = rx.clone();
                handles.push(std::thread::spawn(move || {
                    rx.recv_timeout(Duration::from_secs(5)).unwrap()
                }));
            }
            for i in 0..4 {
                tx.send(i).unwrap();
            }
            let mut got: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1, 2, 3]);
        }
    }
}
