//! Checked personality: every lock/wait/notify consults the `interleave`
//! model checker when the calling thread participates in an exploration.
//!
//! The real std primitives are still used for actual mutual exclusion, but
//! under exploration they are only ever taken uncontended: the model alone
//! decides who blocks. Guards therefore carry the owning lock reference and
//! an `Option` of the real guard so `Condvar::wait` can drop the real lock
//! while the model keeps the blocked thread suspended.
//!
//! When no exploration is active, every operation reduces to one
//! thread-local read plus the plain std call — behavior is identical to the
//! production personality.

use crate::testing::SpuriousBudget;
use crate::WaitTimeoutResult;
use std::time::Duration;

fn key_of<P: ?Sized>(p: &P) -> usize {
    p as *const P as *const () as usize
}

/// Drop-in `std::sync::Mutex`, model-checked under exploration.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex (usable in statics).
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn raw_lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Acquires the lock, recovering from poisoning. Under exploration this
    /// is a modeled blocking acquisition (and a schedule yield point).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let modeled = interleave::participating();
        if modeled {
            interleave::mutex_lock(key_of(self));
        }
        MutexGuard {
            lock: self,
            inner: Some(self.raw_lock()),
            modeled,
        }
    }
}

impl<T: ?Sized> Drop for Mutex<T> {
    fn drop(&mut self) {
        if interleave::participating() {
            interleave::object_destroyed(key_of(self));
        }
    }
}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    modeled: bool,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("facade mutex guard used after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("facade mutex guard used after release")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first: once the model unlock yields, the
        // next granted thread may immediately take the real lock.
        self.inner = None;
        if self.modeled {
            interleave::mutex_unlock(key_of(self.lock));
        }
    }
}

/// Drop-in `std::sync::Condvar`, model-checked under exploration.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    spurious: SpuriousBudget,
}

impl Condvar {
    /// Creates a new condition variable (usable in statics).
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            spurious: SpuriousBudget::new(),
        }
    }

    /// Test hook: the next `n` waits on this condvar (on any thread)
    /// return at once, not timed out, as if spuriously woken; 0
    /// disarms. Waits on every other condvar are untouched.
    pub fn inject_spurious_wakeups(&self, n: u32) {
        self.spurious.arm(n);
    }

    /// Blocks until notified; under exploration the wakeup (notify choice,
    /// injected spurious wake, or timeout) is a scheduler decision.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_inner(guard, None).0
    }

    /// Blocks until notified or `dur` elapses (virtual time under
    /// exploration: the deadline fires when the scheduler elects to
    /// advance the clock).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.wait_inner(guard, Some(dur))
    }

    fn wait_inner<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: Option<Duration>,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        if self.spurious.consume() {
            return (guard, WaitTimeoutResult::new(false));
        }
        if guard.modeled && interleave::participating() {
            let lock = guard.lock;
            let mkey = key_of(lock);
            let ckey = key_of(self);
            // Drop the real lock; the model keeps us suspended and
            // re-acquires the model mutex before we resume.
            guard.inner = None;
            guard.modeled = false;
            drop(guard);
            let timeout_ns = dur.map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
            let timed_out = interleave::condvar_wait(ckey, mkey, timeout_ns);
            let inner = lock.raw_lock();
            (
                MutexGuard {
                    lock,
                    inner: Some(inner),
                    modeled: true,
                },
                WaitTimeoutResult::new(timed_out),
            )
        } else {
            let lock = guard.lock;
            let modeled = guard.modeled;
            let std_g = guard
                .inner
                .take()
                .expect("facade mutex guard used after release");
            guard.modeled = false;
            drop(guard);
            let (std_g, timed_out) = match dur {
                None => (
                    self.inner.wait(std_g).unwrap_or_else(|p| p.into_inner()),
                    false,
                ),
                Some(d) => match self.inner.wait_timeout(std_g, d) {
                    Ok((g, r)) => (g, r.timed_out()),
                    Err(p) => {
                        let (g, r) = p.into_inner();
                        (g, r.timed_out())
                    }
                },
            };
            (
                MutexGuard {
                    lock,
                    inner: Some(std_g),
                    modeled,
                },
                WaitTimeoutResult::new(timed_out),
            )
        }
    }

    /// Wakes one waiter (a scheduler choice among model waiters under
    /// exploration).
    pub fn notify_one(&self) {
        if interleave::participating() {
            interleave::condvar_notify(key_of(self), false);
        } else {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        if interleave::participating() {
            interleave::condvar_notify(key_of(self), true);
        } else {
            self.inner.notify_all();
        }
    }
}

impl Drop for Condvar {
    fn drop(&mut self) {
        if interleave::participating() {
            interleave::object_destroyed(key_of(self));
        }
    }
}

/// Drop-in `std::sync::RwLock`, model-checked under exploration.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new rwlock (usable in statics).
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock, recovering from poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let modeled = interleave::participating();
        if modeled {
            interleave::rw_lock(key_of(self), false);
        }
        let inner = self.inner.read().unwrap_or_else(|p| p.into_inner());
        RwLockReadGuard {
            lock_key: key_of(self),
            inner: Some(inner),
            modeled,
        }
    }

    /// Acquires the exclusive write lock, recovering from poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let modeled = interleave::participating();
        if modeled {
            interleave::rw_lock(key_of(self), true);
        }
        let inner = self.inner.write().unwrap_or_else(|p| p.into_inner());
        RwLockWriteGuard {
            lock_key: key_of(self),
            inner: Some(inner),
            modeled,
        }
    }
}

impl<T: ?Sized> Drop for RwLock<T> {
    fn drop(&mut self) {
        if interleave::participating() {
            interleave::object_destroyed(key_of(self));
        }
    }
}

/// Guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock_key: usize,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    modeled: bool,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("facade read guard used after release")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if self.modeled {
            interleave::rw_unlock(self.lock_key, false);
        }
    }
}

/// Guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock_key: usize,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    modeled: bool,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("facade write guard used after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("facade write guard used after release")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if self.modeled {
            interleave::rw_unlock(self.lock_key, true);
        }
    }
}
