//! Production personality: inline newtypes over `std::sync` primitives.
//!
//! Guards are plain wrappers with no custom `Drop`, so the compiled code is
//! the same as using std directly. The only semantic addition is poison
//! tolerance: `lock()`/`read()`/`write()`/`wait()` recover the inner value
//! from a poisoned primitive instead of panicking (the workspace treats
//! poisoning as "some other thread crashed", which must never cascade into
//! wedging metrics or caches).

use crate::testing::SpuriousBudget;
use crate::WaitTimeoutResult;
use std::time::Duration;

/// Drop-in `std::sync::Mutex` with poison-tolerant locking.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex (usable in statics).
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Drop-in `std::sync::Condvar` with injectable spurious wakeups.
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

    /// Blocks until notified (or an injected spurious wakeup fires).
    #[inline]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        if self.spurious.consume() {
            return guard;
        }
        self.inner.wait(guard).unwrap_or_else(|p| p.into_inner())
    }

    /// Blocks until notified or `dur` elapses (injected spurious wakeups
    /// return early with `timed_out() == false`, like the real thing).
    #[inline]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        if self.spurious.consume() {
            return (guard, WaitTimeoutResult::new(false));
        }
        match self.inner.wait_timeout(guard, dur) {
            Ok((g, r)) => (g, WaitTimeoutResult::new(r.timed_out())),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, WaitTimeoutResult::new(r.timed_out()))
            }
        }
    }

    /// Wakes one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Drop-in `std::sync::RwLock` with poison-tolerant locking.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

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
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Acquires the exclusive write lock, recovering from poisoning.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|p| p.into_inner())
    }
}
