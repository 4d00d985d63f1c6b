//! Deterministic test hooks.
//!
//! Spurious wakeups are allowed by the `Condvar` contract but essentially
//! impossible to provoke on demand with raw std. The facade makes them
//! injectable: [`Condvar::inject_spurious_wakeups`](crate::Condvar::inject_spurious_wakeups)
//! arms a budget on one condvar, and its next N `wait`/`wait_timeout`
//! calls (on any thread) return immediately without having been
//! notified, exactly like an OS-level spurious wakeup. The budget belongs
//! to that condvar alone, so a test that arms it cannot wake the waits of
//! other tests running in parallel in the same process. Works in both
//! facade personalities; disarmed (the default) it costs one relaxed
//! atomic load per blocking wait.

use std::sync::atomic::{AtomicU32, Ordering};

/// A condvar's armed spurious wakeups.
#[derive(Debug, Default)]
pub(crate) struct SpuriousBudget(AtomicU32);

impl SpuriousBudget {
    /// Disarmed.
    pub(crate) const fn new() -> Self {
        SpuriousBudget(AtomicU32::new(0))
    }

    /// Arms `n` spurious wakeups; 0 disarms.
    pub(crate) fn arm(&self, n: u32) {
        self.0.store(n, Ordering::SeqCst);
    }

    /// Consumes one armed spurious wakeup if any remain.
    pub(crate) fn consume(&self) -> bool {
        // sync: fast-path probe; the authoritative decrement below is SeqCst.
        if self.0.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_consumed_exactly() {
        let budget = SpuriousBudget::new();
        budget.arm(2);
        assert!(budget.consume());
        assert!(budget.consume());
        assert!(!budget.consume());
        budget.arm(1);
        budget.arm(0);
        assert!(!budget.consume());
    }
}
