//! Opt-in runtime sanitizer for the autograd engine.
//!
//! When enabled — via `GENDT_SANITIZE=1` in the environment or
//! [`set_sanitize`] in-process — every value recorded on a
//! [`crate::graph::Graph`] tape and every gradient its backward pass
//! pushes into a node is checked for NaN/Inf at op granularity (shapes
//! need no sanitizer: the executor binds every value to its step's
//! shape, and leaves are checked where they enter the tape). A
//! violation panics with the offending op, its attributes, and the
//! state of its inputs, so corruption is caught where it is *born*
//! (e.g. a Gaussian head blowing up) instead of surfacing steps later as
//! a silently wrong fidelity table.
//!
//! The checks wrap the plan executor only while recording — each
//! recorded op runs unfused, with its own value and gradient buffer, so
//! every value, and every gradient until its node has pushed it on, is
//! there to inspect — and never a replay. So while the mode is on, [`crate::plan::PlanCache::run`]
//! records every step instead of replaying compiled plans.
//!
//! The checks cost one linear scan per recorded node and per gradient,
//! so the mode is off by default; `scripts/ci.sh` runs one sanitized
//! smoke train step, and any training run can be sanitized by exporting
//! the environment variable — no rebuild needed.

use gendt_sync::atomic::{AtomicU8, Ordering};

const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Tri-state so the environment is consulted exactly once.
static STATE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// True when sanitizer mode is active.
///
/// First call resolves `GENDT_SANITIZE` (`1`, `true`, or `on` enable it);
/// later calls are a single atomic load. [`set_sanitize`] overrides the
/// environment in-process.
pub fn sanitize_enabled() -> bool {
    // sync: isolated gate; nothing is published through it.
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = matches!(
                std::env::var("GENDT_SANITIZE")
                    .ok()
                    .as_deref()
                    .map(str::trim),
                Some("1") | Some("true") | Some("on")
            );
            // sync: CAS so a racing resolver or an interleaved
            // set_sanitize override wins exactly once.
            let _ = STATE.compare_exchange(
                UNRESOLVED,
                if on { ON } else { OFF },
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            matches!(STATE.load(Ordering::Relaxed), ON)
        }
    }
}

/// Force sanitizer mode on or off in-process (wins over `GENDT_SANITIZE`).
/// Intended for tests and for embedders that sanitize selected phases.
pub fn set_sanitize(on: bool) {
    // sync: explicit override; last writer wins by design.
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_sticks() {
        set_sanitize(true);
        assert!(sanitize_enabled());
        set_sanitize(false);
        assert!(!sanitize_enabled());
    }
}
