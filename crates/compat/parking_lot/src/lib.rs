//! Offline shim for the `parking_lot` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! the real `parking_lot` cannot be fetched. This crate re-implements the
//! small API surface the workspace uses (`Mutex`, `MutexGuard`, `Condvar`,
//! `RwLock`) on top of `std::sync`, with parking_lot's poison-free calling
//! convention (`lock()` returns the guard directly; a poisoned std lock is
//! recovered with `into_inner`, matching parking_lot's behavior of not
//! propagating panics between lock holders).

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutual-exclusion primitive (std-backed, parking_lot calling style).
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard(Some(inner), &self.0)
    }

    /// Try to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g), &self.0)),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()), &self.0)),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// RAII guard for [`Mutex`]. The inner `Option` is only `None` transiently
/// inside [`Condvar::wait_for`] while the guard is parked and inside
/// [`MutexGuard::unlocked`]; the second field is the mutex to lock again.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>, &'a sync::Mutex<T>);

impl<T: ?Sized> MutexGuard<'_, T> {
    /// Temporarily unlock the mutex to run `f`, and lock it again before
    /// returning — also when `f` panics (parking_lot's own signature).
    pub fn unlocked<F, U>(s: &mut Self, f: F) -> U
    where
        F: FnOnce() -> U,
    {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<T: ?Sized> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                let MutexGuard(inner, mutex) = &mut *self.0;
                *inner = Some(mutex.lock().unwrap_or_else(PoisonError::into_inner));
            }
        }
        drop(s.0.take().expect("guard already parked"));
        let _relock = Relock(s);
        f()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_deref().expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_deref_mut()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with this crate's [`MutexGuard`].
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Block on the condition variable (no timeout).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard already parked");
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    /// Block on the condition variable for at most `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard already parked");
        let (inner, res) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => e.into_inner(),
        };
        guard.0 = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A reader-writer lock (std-backed, parking_lot calling style).
#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Shared read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Exclusive write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn unlocked_releases_the_mutex_for_the_closure_and_retakes_it() {
        let m = Mutex::new(1);
        let mut g = m.lock();
        let seen = MutexGuard::unlocked(&mut g, || {
            // Another holder gets in while the closure runs…
            *m.try_lock().expect("mutex still held inside unlocked") += 1;
            7
        });
        // …and the guard is live again, over the same data, afterwards.
        assert_eq!((seen, *g), (7, 2));
        assert!(m.try_lock().is_none(), "guard did not retake the mutex");
        *g += 1;
        // A panic inside the closure still leaves a usable, held guard.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MutexGuard::unlocked(&mut g, || panic!("boom"))
        }));
        assert!(caught.is_err() && m.try_lock().is_none());
        assert_eq!(*g, 3);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let t0 = Instant::now();
        let r = cv.wait_for(&mut g, Duration::from_millis(20));
        assert!(r.timed_out());
        assert!(t0.elapsed() >= Duration::from_millis(19));
        drop(g);
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock();
            while !*g {
                let r = cv.wait_for(&mut g, Duration::from_secs(5));
                assert!(!r.timed_out(), "notify lost");
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (m, cv) = &*shared;
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(r1[0] + r2[1], 3);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
