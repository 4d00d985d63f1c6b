//! gendt-sync — the workspace's threading substrate.
//!
//! Every crate that does real concurrency (`serve`, `trace`, `faults`,
//! `nn/threads`) imports its `Mutex`/`Condvar`/`RwLock`/atomics/channels/
//! `thread::spawn`/`Instant` from here instead of `std::sync`, enforced by
//! the `sync-discipline` audit lint. The facade has two personalities:
//!
//! - **Production** (default): inline newtypes over `std::sync` with no
//!   extra state (but a condvar's spurious-wakeup test budget) and no
//!   custom guard `Drop` impls — zero overhead, bitwise identical
//!   behavior. The one deliberate difference from raw std is that
//!   `lock()`/`read()`/`write()` are poison-tolerant: a panicking thread
//!   can never wedge `/metrics` or the context cache (ISSUE 7 satellite).
//! - **Checked** (`--features check`, enabled by `gendt-audit`): every
//!   acquire/release/wait/notify/load/store first consults the vendored
//!   `interleave` model checker. When no exploration is active the hooks
//!   reduce to one thread-local read, so checked builds still behave
//!   identically outside the harness; under `gendt-audit sync-check` the
//!   checker serializes all participant threads and systematically explores
//!   interleavings of the *real* production code.
//!
//! Deterministic spurious-wakeup injection for tests,
//! [`Condvar::inject_spurious_wakeups`], reaches only the condvar it is
//! armed on and works in both personalities.

#![forbid(unsafe_code)]

pub mod atomic;
pub mod mpsc;
mod testing;
pub mod thread;
pub mod time;

#[cfg(not(feature = "check"))]
mod locks_prod;
#[cfg(not(feature = "check"))]
pub use locks_prod::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(feature = "check")]
mod locks_checked;
#[cfg(feature = "check")]
pub use locks_checked::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Result of a `Condvar::wait_timeout` (mode-agnostic stand-in for
/// `std::sync::WaitTimeoutResult`, which cannot be constructed manually).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub(crate) fn new(timed_out: bool) -> Self {
        Self { timed_out }
    }

    /// True when the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}
