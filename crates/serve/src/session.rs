//! Stream session table: server-side state for `/v1/stream`.
//!
//! A streaming session holds the carried LSTM state, RNG stream
//! position, and window offset of a partially generated series so a
//! continuation request resumes bitwise-exactly where the last chunk
//! stopped. Of its route it holds only the track positions (shared with
//! the route cache, 16 B per point); each chunk extracts the context of
//! its own windows when it runs, so no session keeps a context. The
//! table layers the same recency discipline as the LRU route cache,
//! plus an idle TTL: capacity pressure evicts the least recently used
//! *idle* session, and a sweep expires sessions idle longer than the
//! TTL.
//!
//! Checkout leaves a `Busy` marker in the slot, so a session being
//! continued right now can never be evicted, expired, or shed out from
//! under its in-flight request — the churn interleave model in
//! `gendt-audit sync-check` drives exactly that race. Checkin restores
//! the slot (refreshing recency) unless the session was force-removed
//! while busy, in which case the state is simply dropped.

use crate::cache::Route;
use crate::metrics::ServeMetrics;
use crate::registry::ModelEntry;
use gendt::GenCursor;
use gendt_sync::atomic::Ordering;
use gendt_sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a `/v1/stream` continuation needs to resume generation
/// bitwise-exactly: the pinned model, the route, and the resume cursor.
pub struct StreamSession {
    /// Session id (minted by the worker or forwarded by the fleet).
    pub id: String,
    /// Model entry pinned at open time; a `/reload` cannot swap it.
    pub entry: Arc<ModelEntry>,
    /// The route's track positions (shared via the route cache).
    pub route: Route,
    /// Resume position: carried LSTM state, RNG stream, next window.
    pub cursor: GenCursor,
    /// Total generation windows in the full series.
    pub total_windows: usize,
    /// The open request's sample seed (reported, not re-used: the
    /// cursor carries the live RNG stream).
    pub sample_seed: u64,
    /// Windows per streamed chunk for this session.
    pub chunk_windows: usize,
    /// Next chunk sequence number.
    pub seq: u64,
}

/// One slot: an idle session, or a `Busy` marker while a request holds
/// the session checked out.
enum SlotState<T> {
    Idle(T),
    Busy,
}

struct Slot<T> {
    state: SlotState<T>,
    /// Recency tick for LRU ordering (monotonic, clock-free).
    tick: u64,
    /// Wall-clock recency for the idle TTL.
    last_used: Instant,
}

struct Inner<T> {
    map: BTreeMap<String, Slot<T>>,
    tick: u64,
}

/// Outcome of [`SessionTable::checkout`].
pub enum Checkout<T> {
    /// The session, now exclusively held by the caller; the slot keeps
    /// a `Busy` marker until checkin or removal.
    Session(T),
    /// The session exists but another request holds it checked out.
    Busy,
    /// No such session (never opened, completed, evicted, or expired).
    NotFound,
}

/// Bounded table of stream sessions with LRU + TTL eviction over idle
/// slots. Generic over the session payload so the audit crate's
/// interleave models can churn the real table with cheap values.
pub struct SessionTable<T> {
    cap: usize,
    ttl: Duration,
    metrics: Arc<ServeMetrics>,
    inner: Mutex<Inner<T>>,
}

impl<T> SessionTable<T> {
    /// Table holding at most `cap` sessions (at least one); idle
    /// sessions expire after `ttl` on the next [`sweep`].
    ///
    /// [`sweep`]: SessionTable::sweep
    pub fn new(cap: usize, ttl: Duration, metrics: Arc<ServeMetrics>) -> SessionTable<T> {
        SessionTable {
            cap: cap.max(1),
            ttl,
            metrics,
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
            }),
        }
    }

    fn publish_len(&self, len: usize) {
        // sync: gauge scraped by /metrics; the map itself is guarded by
        // `inner`, the gauge needs no ordering against it.
        self.metrics
            .stream_sessions
            .store(len as u64, Ordering::Relaxed);
    }

    /// Insert a freshly opened session, evicting least-recently-used
    /// *idle* sessions while over capacity. Busy slots are never
    /// evicted; the table may transiently exceed `cap` when every slot
    /// is busy. Returns the ids evicted to make room.
    pub fn open(&self, id: String, session: T) -> Vec<String> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            id,
            Slot {
                state: SlotState::Idle(session),
                tick,
                last_used: Instant::now(),
            },
        );
        let mut evicted = Vec::new();
        while inner.map.len() > self.cap {
            let oldest = inner
                .map
                .iter()
                .filter(|(_, slot)| matches!(slot.state, SlotState::Idle(_)))
                .min_by_key(|(_, slot)| slot.tick)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    inner.map.remove(&k);
                    evicted.push(k);
                }
                None => break, // every remaining slot is busy
            }
        }
        // sync: monotonic counters for /metrics; see publish_len.
        self.metrics
            .stream_sessions_opened
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .stream_sessions_evicted
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        self.publish_len(inner.map.len());
        evicted
    }

    /// Take the session out of its slot for exclusive use, leaving a
    /// `Busy` marker that shields it from eviction, expiry, and
    /// shedding until [`checkin`] or [`remove`].
    ///
    /// [`checkin`]: SessionTable::checkin
    /// [`remove`]: SessionTable::remove
    pub fn checkout(&self, id: &str) -> Checkout<T> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(id) {
            None => Checkout::NotFound,
            Some(slot) => {
                slot.tick = tick;
                slot.last_used = Instant::now();
                match std::mem::replace(&mut slot.state, SlotState::Busy) {
                    SlotState::Idle(sess) => Checkout::Session(sess),
                    SlotState::Busy => Checkout::Busy,
                }
            }
        }
    }

    /// Return a checked-out session to its slot, refreshing recency.
    /// Returns `false` (dropping the session) when the slot was
    /// force-removed while busy.
    pub fn checkin(&self, id: &str, session: T) -> bool {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(id) {
            Some(slot) => {
                slot.state = SlotState::Idle(session);
                slot.tick = tick;
                slot.last_used = Instant::now();
                true
            }
            None => false,
        }
    }

    /// Remove a session outright (completion, drain, or error),
    /// whether idle or checked out. The holder of a busy checkout
    /// simply drops the state instead of checking it back in.
    pub fn remove(&self, id: &str) -> bool {
        let mut inner = self.inner.lock();
        let hit = inner.map.remove(id).is_some();
        self.publish_len(inner.map.len());
        hit
    }

    /// Expire idle sessions whose last use is older than the TTL.
    /// Busy slots are shielded. Returns the expired ids.
    pub fn sweep(&self) -> Vec<String> {
        let mut inner = self.inner.lock();
        // One clock read per sweep, not one per session.
        let now = Instant::now();
        let dead: Vec<String> = inner
            .map
            .iter()
            .filter(|(_, slot)| {
                matches!(slot.state, SlotState::Idle(_))
                    && now.saturating_duration_since(slot.last_used) >= self.ttl
            })
            .map(|(k, _)| k.clone())
            .collect();
        for k in &dead {
            inner.map.remove(k);
        }
        // sync: monotonic counter for /metrics; see publish_len.
        self.metrics
            .stream_sessions_expired
            .fetch_add(dead.len() as u64, Ordering::Relaxed);
        self.publish_len(inner.map.len());
        dead
    }

    /// Shed every idle session (drain): the server stops carrying
    /// state for sessions with no in-flight request. Busy sessions
    /// finish their current chunk; their handlers observe the drain
    /// flag and close with a `drain` trailer. Returns the shed ids.
    pub fn shed_idle(&self) -> Vec<String> {
        let mut inner = self.inner.lock();
        let idle: Vec<String> = inner
            .map
            .iter()
            .filter(|(_, slot)| matches!(slot.state, SlotState::Idle(_)))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &idle {
            inner.map.remove(k);
        }
        self.publish_len(inner.map.len());
        idle
    }

    /// Live sessions, busy markers included.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the table holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cap: usize, ttl_ms: u64) -> SessionTable<u64> {
        SessionTable::new(
            cap,
            Duration::from_millis(ttl_ms),
            Arc::new(ServeMetrics::new(4)),
        )
    }

    #[test]
    fn checkout_checkin_roundtrip() {
        let t = table(4, 60_000);
        t.open("a".to_string(), 1);
        let Checkout::Session(v) = t.checkout("a") else {
            panic!("expected checkout to yield the session");
        };
        assert_eq!(v, 1);
        assert!(matches!(t.checkout("a"), Checkout::Busy));
        assert!(t.checkin("a", v + 1));
        let Checkout::Session(v) = t.checkout("a") else {
            panic!("expected re-checkout after checkin");
        };
        assert_eq!(v, 2);
        assert!(matches!(t.checkout("missing"), Checkout::NotFound));
    }

    #[test]
    fn capacity_evicts_lru_idle_but_never_busy() {
        let t = table(2, 60_000);
        t.open("a".to_string(), 1);
        t.open("b".to_string(), 2);
        // Touch "a" so "b" is LRU, then overflow.
        let Checkout::Session(v) = t.checkout("a") else {
            panic!("checkout a");
        };
        t.checkin("a", v);
        let evicted = t.open("c".to_string(), 3);
        assert_eq!(evicted, vec!["b".to_string()]);
        assert!(matches!(t.checkout("b"), Checkout::NotFound));

        // A busy slot is shielded: with "a" checked out, overflow must
        // evict idle "c" even though "a" is older.
        let Checkout::Session(_) = t.checkout("a") else {
            panic!("checkout a again");
        };
        let evicted = t.open("d".to_string(), 4);
        assert_eq!(evicted, vec!["c".to_string()]);
        assert!(matches!(t.checkout("a"), Checkout::Busy));
    }

    #[test]
    fn sweep_expires_idle_not_busy() {
        let t = table(8, 0); // zero TTL: everything idle is expired
        t.open("idle".to_string(), 1);
        t.open("busy".to_string(), 2);
        let Checkout::Session(_) = t.checkout("busy") else {
            panic!("checkout busy");
        };
        let dead = t.sweep();
        assert_eq!(dead, vec!["idle".to_string()]);
        assert!(matches!(t.checkout("busy"), Checkout::Busy));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shed_idle_leaves_busy_and_checkin_after_removal_drops() {
        let t = table(8, 60_000);
        t.open("idle".to_string(), 1);
        t.open("busy".to_string(), 2);
        let Checkout::Session(v) = t.checkout("busy") else {
            panic!("checkout busy");
        };
        assert_eq!(t.shed_idle(), vec!["idle".to_string()]);
        assert_eq!(t.len(), 1, "busy marker survives shedding");
        // Force-remove while busy: the later checkin drops the state.
        assert!(t.remove("busy"));
        assert!(!t.checkin("busy", v));
        assert!(t.is_empty());
    }

    #[test]
    fn gauge_tracks_table_size() {
        let metrics = Arc::new(ServeMetrics::new(4));
        let t: SessionTable<u64> =
            SessionTable::new(2, Duration::from_secs(60), Arc::clone(&metrics));
        t.open("a".to_string(), 1);
        t.open("b".to_string(), 2);
        t.open("c".to_string(), 3);
        assert_eq!(metrics.stream_sessions.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.stream_sessions_opened.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.stream_sessions_evicted.load(Ordering::Relaxed), 1);
        t.remove("b");
        t.remove("c");
        assert_eq!(metrics.stream_sessions.load(Ordering::Relaxed), 0);
    }
}
