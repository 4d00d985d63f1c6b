//! # gendt-trace — observability substrate for the GenDT workspace
//!
//! A zero-dependency tracing layer threaded through training, generation,
//! benchmarking, and serving:
//!
//! * [`span`] / [`span_arg`] and the [`span!`] macro — lock-cheap scoped
//!   spans recorded into per-thread ring buffers and drained by a
//!   collector; [`chrome_trace_json`] renders them as Chrome Trace Event
//!   Format JSON loadable in `chrome://tracing` / Perfetto.
//! * [`record_op`] / [`op_table`] — the per-op tape profiler: wall time
//!   plus estimated FLOPs/bytes attributed to every autograd `Op` kind,
//!   aggregated into a ranked hot-op table.
//! * [`Record`] — structured training telemetry as JSONL (one record per
//!   step/epoch), buffered in memory and optionally mirrored to the file
//!   named by `GENDT_TELEMETRY`.
//! * [`out!`], [`error!`], [`info!`], [`debug!`] — the workspace's
//!   logging macros: program output and errors always print; progress
//!   chatter is quiet by default and enabled with `GENDT_LOG=1|2`.
//!
//! Everything is gated on `GENDT_TRACE=1` (or [`set_trace`]); when the
//! gate is off every instrumentation site costs one relaxed atomic load
//! and never touches values, RNG streams, or control flow — traced and
//! untraced runs are bitwise-identical.
//!
//! Synchronization goes through `gendt-sync`, the workspace's std-only
//! threading substrate: in production builds the facade is plain
//! `std::sync`, and under `gendt-audit sync-check` the same rings and
//! sinks become model-checkable (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod oplog;
mod span;
mod telemetry;

pub use oplog::{op_table, record_op, render_op_table, reset_ops, OpStat, Phase};
pub use span::{
    chrome_trace_json, current_trace, drain_spans, export_chrome_trace, mark, snapshot_spans, span,
    span_arg, trace_scope, SpanEvent, SpanGuard, TraceScope,
};
pub use telemetry::{set_telemetry_path, take_telemetry, Record};

use gendt_sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Tri-state so the environment is consulted exactly once.
static STATE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// True when tracing is active.
///
/// First call resolves `GENDT_TRACE` (`1`, `true`, or `on` enable it);
/// later calls are a single relaxed atomic load — that load is the whole
/// cost of a disabled instrumentation site. [`set_trace`] overrides the
/// environment in-process.
pub fn trace_enabled() -> bool {
    // sync: the flag is an isolated gate; nothing is published through
    // it, so the hot-path load can stay relaxed.
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = matches!(
                std::env::var("GENDT_TRACE").ok().as_deref().map(str::trim),
                Some("1") | Some("true") | Some("on")
            );
            // sync: CAS instead of a blind store so a racing resolver
            // (or an interleaved set_trace) wins exactly once — a store
            // here could clobber a concurrent override.
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

/// Force tracing on or off in-process (wins over `GENDT_TRACE`).
/// Intended for tests and for embedders that trace selected phases.
pub fn set_trace(on: bool) {
    // sync: explicit override; last writer wins by design.
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Log-level state, resolved once from `GENDT_LOG` (same tri-state
/// trick, with the level stored as `value + 2`).
static LOG_STATE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// Current log verbosity: 0 quiet (default), 1 info, 2 debug.
///
/// Resolved once from `GENDT_LOG` (`0`/`1`/`2`, or `info`/`debug`);
/// [`set_log_level`] overrides the environment in-process.
pub fn log_level() -> u8 {
    // sync: isolated verbosity gate, same reasoning as trace_enabled.
    match LOG_STATE.load(Ordering::Relaxed) {
        UNRESOLVED => {
            let level = match std::env::var("GENDT_LOG").ok().as_deref().map(str::trim) {
                Some("1") | Some("info") => 1,
                Some("2") | Some("debug") => 2,
                _ => 0,
            };
            // sync: CAS so a concurrent set_log_level is not clobbered
            // by the lazy env resolution.
            let _ = LOG_STATE.compare_exchange(
                UNRESOLVED,
                level + 2,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            LOG_STATE.load(Ordering::Relaxed).saturating_sub(2)
        }
        stored => stored - 2,
    }
}

/// Force the log verbosity in-process (wins over `GENDT_LOG`).
pub fn set_log_level(level: u8) {
    // sync: explicit override; last writer wins by design.
    LOG_STATE.store(level.min(2) + 2, Ordering::Relaxed);
}

/// Monotonic process clock anchored at first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (first call anchors it).
///
/// This is the only clock the workspace's instrumented paths use: the
/// determinism lint bans `Instant::now` in training files, and routing
/// every read through here keeps timing observations out of any code
/// that could feed them back into computation.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Print program output (results, tables) to stdout. Unconditional:
/// this is the layer's explicit "deliverable output" channel, as opposed
/// to progress chatter ([`info!`]) which is quiet by default.
#[macro_export]
macro_rules! out {
    ($($t:tt)*) => { ::std::println!($($t)*) };
}

/// Print an error to stderr. Unconditional: failures must never be
/// silenced by the verbosity gate.
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { ::std::eprintln!($($t)*) };
}

/// Print progress chatter to stderr when `GENDT_LOG >= 1`.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => {
        if $crate::log_level() >= 1 {
            ::std::eprintln!($($t)*)
        }
    };
}

/// Print debug detail to stderr when `GENDT_LOG >= 2`.
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => {
        if $crate::log_level() >= 2 {
            ::std::eprintln!($($t)*)
        }
    };
}

/// Open a scoped span that records on drop. Expands to a `let` binding
/// of the guard, so the span covers the rest of the enclosing block.
///
/// ```
/// gendt_trace::set_trace(true);
/// {
///     gendt_trace::span!("train_step");
///     // ... work ...
/// }
/// let (events, _) = gendt_trace::drain_spans();
/// assert!(events.iter().any(|e| e.name == "train_step"));
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _gendt_trace_span = $crate::span($name);
    };
    ($name:expr, $key:expr => $val:expr) => {
        let _gendt_trace_span = $crate::span_arg($name, $key, $val as i64);
    };
}

/// Escape a string for inclusion in a JSON document. Shared by the
/// Chrome-trace exporter and the telemetry record builder.
pub(crate) fn json_escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes unit tests that flip the global trace flag.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: gendt_sync::Mutex<()> = gendt_sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_and_sticks() {
        let _guard = TEST_FLAG_LOCK.lock();
        set_trace(true);
        assert!(trace_enabled());
        set_trace(false);
        assert!(!trace_enabled());
    }

    #[test]
    fn log_level_override() {
        set_log_level(2);
        assert_eq!(log_level(), 2);
        set_log_level(0);
        assert_eq!(log_level(), 0);
        set_log_level(9);
        assert_eq!(log_level(), 2, "level clamps to debug");
        set_log_level(0);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
