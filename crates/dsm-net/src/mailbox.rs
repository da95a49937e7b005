//! The one inbound queue of an [`crate::Endpoint`], and its two readers.
//!
//! An unbounded multi-producer FIFO on `std::sync`, read by two threads:
//!
//! * the *waiter*: while a wait is open — from its first pop, or from
//!   [`Mailbox::open`] if that comes first — it takes the head item,
//!   whatever its kind, and never passes one;
//! * the *service* reader: only while no wait is open, it takes the oldest
//!   item not for the waiter — it may pass those — and, once the waiter is
//!   gone for good ([`Mailbox::close`]), every item.
//!
//! Neither takes an item while the other may be handling one — the service
//! reader from its pop to its next pop, the waiter until its wait closes —
//! so no item is handled before an earlier one from the same sender, unless
//! the service reader passed that one as the waiter's. Besides the items,
//! each reader has a *signal* with no payload that is never lost — the
//! service reader's wake-ups, the waiter's poke — and the queue knows
//! whether anyone may be handling an item, which is what makes
//! [`crate::Fabric::quiescent`] exact instead of a guess from silence.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::{NodeId, WireSized};

/// An item: a message and its sender. One [`WireSized::to_waiter`] is for
/// the waiter, which the service reader passes.
type Item<M> = (NodeId, M);

/// One of the two readers; indexes their condvars.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reader {
    Waiter,
    Service,
}

struct State<M> {
    items: VecDeque<Item<M>>,
    /// The service reader's signals: wake-ups it has yet to see.
    wakeups: usize,
    /// The waiter's signal, sticky until its next pop returns.
    poked: bool,
    /// A wait is open: the waiter reads, the service reader takes nothing.
    waiting: bool,
    /// The service reader is handling the last item it took.
    serving: bool,
    /// The waiter is gone for good: the service reader takes every item.
    handed_over: bool,
}

impl<M: WireSized> State<M> {
    /// What `r` would pop now: its signal (`None` inside), an item's index,
    /// or nothing. The waiter takes an item before its poke; the service
    /// reader a wake-up before an item.
    fn next(&self, r: Reader) -> Option<Option<usize>> {
        let free = !self.serving && !self.items.is_empty();
        match r {
            Reader::Waiter if self.handed_over => None,
            Reader::Waiter if free && self.waiting => Some(Some(0)),
            Reader::Waiter => self.poked.then_some(None),
            Reader::Service if self.wakeups > 0 => Some(None),
            Reader::Service if !free || self.waiting && !self.handed_over => None,
            Reader::Service if self.handed_over => Some(Some(0)),
            Reader::Service => self.items.iter().position(|i| !i.1.to_waiter()).map(Some),
        }
    }
}

pub(crate) struct Mailbox<M> {
    state: Mutex<State<M>>,
    woken: [Condvar; 2],
}

impl<M: WireSized> Mailbox<M> {
    pub(crate) fn new() -> Self {
        let state = State {
            items: VecDeque::new(),
            wakeups: 0,
            poked: false,
            waiting: false,
            serving: false,
            handed_over: false,
        };
        let (state, woken) = (Mutex::new(state), [Condvar::new(), Condvar::new()]);
        Mailbox { state, woken }
    }

    /// Every update leaves the queue valid, so a panicking holder (an
    /// injected crash unwinding through a receive) poisons nothing.
    fn lock(&self) -> MutexGuard<'_, State<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Release `st`, then wake each reader but `busy` that now has something
    /// to pop. Woken under the lock, a reader would find the lock held and
    /// sleep once more.
    fn wake_after(&self, st: MutexGuard<'_, State<M>>, busy: Option<Reader>) {
        let readers = [Reader::Waiter, Reader::Service];
        let due = readers.map(|r| Some(r) != busy && st.next(r).is_some());
        drop(st);
        for (cv, _) in self.woken.iter().zip(due).filter(|(_, due)| *due) {
            cv.notify_one();
        }
    }

    /// Run `change` under the lock, then wake whom it left work for.
    fn update(&self, change: impl FnOnce(&mut State<M>)) {
        let mut st = self.lock();
        change(&mut st);
        self.wake_after(st, None);
    }

    pub(crate) fn push(&self, item: Item<M>) {
        self.update(|st| st.items.push_back(item));
    }

    /// A signal for the service reader: its current pop — or, if it is not
    /// in one, its next — returns the signal before any item.
    pub(crate) fn wake(&self) {
        self.update(|st| st.wakeups += 1);
    }

    /// Make the waiter's current pop — or, if it is not in one, its next —
    /// return the signal, unless an item is there first. Sticky until a
    /// waiter pop returns, so a waiter that checked its predicate, found it
    /// false and has not blocked yet still sees a poke sent in between.
    pub(crate) fn poke(&self) {
        self.update(|st| st.poked = true);
    }

    /// Open a wait before the waiter's first pop: from now on the service
    /// reader takes nothing, not even an item queued behind one it would
    /// pass, until the wait closes.
    pub(crate) fn open(&self) {
        self.lock().waiting = true;
    }

    /// Close the wait — the waiter reads no more until its next pop — and,
    /// `for_good`, leave the service reader every item from now on.
    pub(crate) fn close(&self, for_good: bool) {
        self.update(|st| {
            st.waiting = false;
            st.handed_over |= for_good;
        });
    }

    /// `r`'s pop, blocking until `deadline` (`None`: for good): an item, or
    /// `Some(None)` for the reader's signal. A service pop ends the hold on
    /// its last item, and a waiter's pop opens the wait. Any return consumes the
    /// signal: either way the caller looks at its own state again, which is
    /// all a signal asks for. `None` means timed out; once the queue is
    /// handed over, a waiter's pop only times out.
    pub(crate) fn pop(&self, r: Reader, deadline: Option<Instant>) -> Option<Option<Item<M>>> {
        let mut st = self.lock();
        if r == Reader::Service && st.serving {
            st.serving = false;
            self.wake_after(st, Some(r));
            st = self.lock();
        }
        st.waiting |= r == Reader::Waiter;
        loop {
            match st.next(r) {
                Some(Some(i)) => {
                    // An item ends a waiter's receive as its poke would.
                    st.serving = r == Reader::Service;
                    st.poked &= r == Reader::Service;
                    return Some(st.items.remove(i));
                }
                Some(None) if r == Reader::Waiter => st.poked = false,
                Some(None) => st.wakeups -= 1,
                None => {
                    let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
                    if left.is_some_and(|left| left.is_zero()) {
                        return None;
                    }
                    let cv = &self.woken[r as usize];
                    st = match left {
                        Some(left) => {
                            cv.wait_timeout(st, left)
                                .unwrap_or_else(PoisonError::into_inner)
                                .0
                        }
                        None => cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                    };
                    continue;
                }
            }
            return Some(None);
        }
    }

    /// Nothing queued, no wait open and the service reader not handling an
    /// item.
    pub(crate) fn idle(&self) -> bool {
        let st = self.lock();
        st.items.is_empty() && !st.waiting && !st.serving
    }

    /// Discard everything queued (and any poke); returns how many items.
    pub(crate) fn drain(&self) -> usize {
        let mut st = self.lock();
        st.poked = false;
        st.items.drain(..).count()
    }
}
