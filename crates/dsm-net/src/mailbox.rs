//! The inbound queue behind each lane of an [`crate::Endpoint`].
//!
//! An unbounded multi-producer FIFO on `std::sync`. Besides items it carries
//! two bits of state the runtime needs from outside the queue: a *poke* — a
//! wake-up with no payload that is never lost (see [`Mailbox::poke`]) — and
//! whether the consumer is between one pop and its next
//! ([`Mailbox::idle`]), which is what makes [`crate::Fabric::quiescent`]
//! exact instead of a guess from silence. A lane whose consumer is gone is
//! closed into another ([`Mailbox::close_into`]): what it held and what
//! comes later go there.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

struct State<T> {
    items: VecDeque<T>,
    poked: bool,
    /// The last pop returned an item and the consumer has not come back.
    busy: bool,
    /// The consumer is gone for good: nothing is queued here any more.
    closed: bool,
}

pub(crate) struct Mailbox<T> {
    state: Mutex<State<T>>,
    avail: Condvar,
}

/// How long a [`Mailbox::pop`] that finds nothing to return may block.
pub(crate) enum Wait {
    /// Not at all.
    No,
    Until(Instant),
    Forever,
}

impl<T> Mailbox<T> {
    pub(crate) fn new() -> Self {
        Mailbox {
            state: Mutex::new(State {
                items: VecDeque::new(),
                poked: false,
                busy: false,
                closed: false,
            }),
            avail: Condvar::new(),
        }
    }

    /// Every update leaves the queue valid, so a panicking holder (an
    /// injected crash unwinding through a receive) poisons nothing.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn push(&self, item: T) {
        self.lock().items.push_back(item);
        self.avail.notify_one();
    }

    /// Queue `item`, or hand it back if the mailbox is closed. As in
    /// [`Mailbox::push`], the consumer is woken once the lock is released:
    /// woken under it, it would find the lock held and sleep once more.
    pub(crate) fn push_open(&self, item: T) -> Result<(), T> {
        let mut st = self.lock();
        if st.closed {
            return Err(item);
        }
        st.items.push_back(item);
        drop(st);
        self.avail.notify_one();
        Ok(())
    }

    /// Close for good: move everything queued to `other`, in order, under
    /// this mailbox's lock — so a [`Mailbox::push_open`] that finds it
    /// closed, and pushes to `other` itself, lands behind what was moved.
    pub(crate) fn close_into(&self, other: &Mailbox<T>) {
        let mut st = self.lock();
        st.closed = true;
        st.busy = false;
        for item in st.items.drain(..) {
            other.push(item);
        }
    }

    /// Make the consumer's current pop — or, if it is not in one, its next —
    /// return `None` at once. The flag is sticky until a pop returns, so a
    /// consumer that checked its predicate, found it false and has not
    /// blocked yet still sees a poke sent in between.
    pub(crate) fn poke(&self) {
        self.lock().poked = true;
        self.avail.notify_one();
    }

    /// The next item, blocking as long as `wait` allows. `None` means poked
    /// or timed out: either way the caller looks at its own state again,
    /// which is all a poke asks for — so any return consumes the poke.
    pub(crate) fn pop(&self, wait: Wait) -> Option<T> {
        let mut st = self.lock();
        st.busy = false;
        loop {
            let item = st.items.pop_front();
            if item.is_none() && !st.poked {
                match wait {
                    Wait::No => {}
                    Wait::Until(at) => {
                        let left = at.saturating_duration_since(Instant::now());
                        if !left.is_zero() {
                            let woken = self.avail.wait_timeout(st, left);
                            st = woken.unwrap_or_else(PoisonError::into_inner).0;
                            continue;
                        }
                    }
                    Wait::Forever => {
                        st = self.avail.wait(st).unwrap_or_else(PoisonError::into_inner);
                        continue;
                    }
                }
            }
            st.poked = false;
            st.busy = item.is_some();
            return item;
        }
    }

    /// Nothing queued and the consumer is not handling an earlier item.
    pub(crate) fn idle(&self) -> bool {
        let st = self.lock();
        st.items.is_empty() && !st.busy
    }

    /// Discard everything queued (and any poke); returns how many items.
    pub(crate) fn drain(&self) -> usize {
        let mut st = self.lock();
        st.poked = false;
        st.items.drain(..).count()
    }
}
