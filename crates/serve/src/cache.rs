//! Route cache: one trajectory synthesis, and one resident copy, per
//! route.
//!
//! The cache holds each route's track positions, 16 B per point: what
//! context extraction reads, and nothing else. A request extracts the
//! context of just the steps it generates when it generates them (a
//! `/v1/generate` request its full windows, a `/v1/stream` chunk its own
//! windows), about 2 µs per step against about 50 µs to generate it, so
//! no context outlives its request or chunk. The cache keys on the exact
//! trajectory specification (scenario, the bit patterns of every float,
//! the seed), so two requests for the same route share one
//! `Arc<[XY]>` whatever model they generate with, and two different
//! routes never do. Eviction is least-recently-used over a fixed
//! capacity.
//!
//! Resolution is single-flight. The first miss on a key synthesizes the
//! route outside the cache lock; later requests for that key wait on the
//! cache's condvar, no longer than their deadline, and receive the same
//! `Arc<[XY]>` — even when the entry is evicted before they wake. Every
//! stream session keeps the route it was handed for its whole life, so a
//! duplicate synthesis would stay resident next to the cached copy;
//! single flight keeps one copy per route. A synthesis that panics
//! withdraws its flight and wakes its waiters, and the next of them
//! synthesizes again.

use gendt_faults::GendtError;
use gendt_geo::trajectory::{Scenario, TrajectoryCfg};
use gendt_geo::XY;
use gendt_sync::atomic::{AtomicU64, Ordering};
use gendt_sync::time::Instant;
use gendt_sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A route's track positions, one per trajectory point.
pub type Route = Arc<[XY]>;

/// Cache key: the exact trajectory specification. Floats enter by bit
/// pattern, so two requests share a route only when every parameter is
/// identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RouteKey {
    scenario: Scenario,
    heading: Option<u64>,
    /// Duration, start x, start y and period jitter, then the seed.
    traj: [u64; 5],
}

impl RouteKey {
    /// Key for the route `traj` specifies.
    pub fn new(traj: &TrajectoryCfg) -> RouteKey {
        RouteKey {
            scenario: traj.scenario,
            heading: traj.heading_deg.map(f64::to_bits),
            traj: [
                traj.duration_s.to_bits(),
                traj.start.x.to_bits(),
                traj.start.y.to_bits(),
                traj.period_jitter.to_bits(),
                traj.seed,
            ],
        }
    }
}

/// One synthesis in progress, or landed with waiters still to collect.
struct Flight {
    /// Tells this flight from a later one on the same key.
    id: u64,
    /// Requests waiting for this flight's route.
    waiters: usize,
    /// The synthesized route, held until every waiter has taken it.
    landed: Option<Route>,
}

struct CacheInner {
    /// Resolved routes with their last-use tick.
    map: BTreeMap<RouteKey, (Route, u64)>,
    /// Flights by key; only the synthesizer or the last waiter removes one.
    flights: BTreeMap<RouteKey, Flight>,
    tick: u64,
}

/// LRU cache of synthesized routes with single-flight resolution.
pub struct RouteCache {
    cap: usize,
    inner: Mutex<CacheInner>,
    /// Signalled when a flight lands or is withdrawn.
    flight_done: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Ends its synthesizer's flight when dropped: published when `route`
/// is set, withdrawn when the synthesis unwound.
struct FlightGuard<'a> {
    cache: &'a RouteCache,
    key: RouteKey,
    route: Option<Route>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock();
        match inner.flights.get_mut(&self.key) {
            Some(flight) if flight.waiters > 0 && self.route.is_some() => {
                flight.landed = self.route.clone();
            }
            _ => {
                inner.flights.remove(&self.key);
            }
        }
        if let Some(route) = self.route.take() {
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.insert(self.key, (route, tick));
            while inner.map.len() > self.cache.cap {
                let oldest = inner
                    .map
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(k, _)| *k);
                match oldest {
                    Some(k) => inner.map.remove(&k),
                    None => break,
                };
            }
        }
        drop(inner);
        self.cache.flight_done.notify_all();
    }
}

impl RouteCache {
    /// Cache holding at most `cap` routes (at least one).
    pub fn new(cap: usize) -> RouteCache {
        RouteCache {
            cap: cap.max(1),
            inner: Mutex::new(CacheInner {
                map: BTreeMap::new(),
                flights: BTreeMap::new(),
                tick: 0,
            }),
            flight_done: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The route for `key`: the cached one, or the one a concurrent
    /// request is synthesizing for the same key, or else the one
    /// `synthesize` builds here, outside the cache lock. A request that
    /// waits for another's synthesis gives up at `deadline` with a
    /// [`Timeout`](gendt_faults::ErrorKind::Timeout) error.
    pub fn resolve(
        &self,
        key: RouteKey,
        deadline: Option<Instant>,
        synthesize: impl FnOnce() -> Route,
    ) -> Result<Route, GendtError> {
        let mut inner = self.inner.lock();
        'resolve: loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((route, last_used)) = inner.map.get_mut(&key) {
                *last_used = tick;
                let route = route.clone();
                return Ok(self.hit(route));
            }
            let id = match inner.flights.get_mut(&key) {
                None => break 'resolve,
                Some(flight) => {
                    flight.waiters += 1;
                    flight.id
                }
            };
            // Wait for flight `id` to land (it may have already, and its
            // entry been evicted), or to be withdrawn (then resolve
            // afresh), or for the deadline.
            loop {
                let flight = match inner.flights.get_mut(&key) {
                    Some(flight) if flight.id == id => flight,
                    _ => continue 'resolve,
                };
                if let Some(route) = flight.landed.clone() {
                    flight.waiters -= 1;
                    if flight.waiters == 0 {
                        inner.flights.remove(&key);
                    }
                    return Ok(self.hit(route));
                }
                let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                inner = match left {
                    None => self.flight_done.wait(inner),
                    Some(left) if left.is_zero() => {
                        flight.waiters -= 1;
                        return Err(GendtError::timeout(
                            "deadline passed while the route was being synthesized",
                        ));
                    }
                    Some(left) => self.flight_done.wait_timeout(inner, left).0,
                };
            }
        }
        let id = inner.tick;
        inner.flights.insert(
            key,
            Flight {
                id,
                waiters: 0,
                landed: None,
            },
        );
        drop(inner);
        // sync: hit/miss are independent monotonic counters for
        // /metrics; the map itself is guarded by `inner`.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut flight = FlightGuard {
            cache: self,
            key,
            route: None,
        };
        let route = synthesize();
        flight.route = Some(route.clone());
        drop(flight);
        Ok(route)
    }

    fn hit(&self, route: Route) -> Route {
        // sync: see the miss counter in `resolve`.
        self.hits.fetch_add(1, Ordering::Relaxed);
        route
    }

    /// Routes currently cached.
    pub fn resident(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// (hits, misses) counters for `/metrics`. A miss is one route
    /// synthesis; a request handed another request's synthesis counts
    /// as a hit, and one that timed out waiting counts as neither.
    pub fn stats(&self) -> (u64, u64) {
        (
            // sync: scrape of independent counters; no ordering needed.
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendt_faults::ErrorKind;
    use gendt_sync::atomic::AtomicUsize;
    use gendt_sync::{mpsc, thread};
    use std::time::Duration;

    fn traj(scenario: Scenario, duration_s: f64, start_x: f64, seed: u64) -> TrajectoryCfg {
        TrajectoryCfg::new(scenario, duration_s, XY::new(start_x, 0.0), seed)
    }

    fn key(seed: u64) -> RouteKey {
        RouteKey::new(&traj(Scenario::Walk, 60.0, 0.0, seed))
    }

    /// A route whose length tells which synthesis built it.
    fn route_of_len(n: usize) -> Route {
        vec![XY::new(0.0, 0.0); n].into()
    }

    /// Resolve `k` with a synthesizer that counts its runs in `runs`.
    fn resolve_counted(cache: &RouteCache, k: RouteKey, runs: &AtomicUsize, n: usize) -> Route {
        cache
            .resolve(k, None, || {
                // sync: test tally, read after the resolvers joined.
                runs.fetch_add(1, Ordering::SeqCst);
                route_of_len(n)
            })
            .expect("no deadline, no timeout")
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = RouteCache::new(4);
        let runs = AtomicUsize::new(0);
        let first = resolve_counted(&cache, key(1), &runs, 3);
        let again = resolve_counted(&cache, key(1), &runs, 3);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = RouteCache::new(2);
        let runs = AtomicUsize::new(0);
        resolve_counted(&cache, key(1), &runs, 1);
        resolve_counted(&cache, key(2), &runs, 1);
        // Touch 1 so 2 is the LRU entry, then overflow.
        resolve_counted(&cache, key(1), &runs, 1);
        resolve_counted(&cache, key(3), &runs, 1);
        assert_eq!(runs.load(Ordering::SeqCst), 3);
        assert_eq!(cache.resident(), 2);
        resolve_counted(&cache, key(1), &runs, 1);
        resolve_counted(&cache, key(3), &runs, 1);
        assert_eq!(runs.load(Ordering::SeqCst), 3, "a live entry was evicted");
        resolve_counted(&cache, key(2), &runs, 1);
        assert_eq!(
            runs.load(Ordering::SeqCst),
            4,
            "LRU entry survived eviction"
        );
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let base = key(1);
        assert_eq!(base, key(1));
        assert_ne!(base, key(2));
        assert_ne!(base, RouteKey::new(&traj(Scenario::Bus, 60.0, 0.0, 1)));
        assert_ne!(base, RouteKey::new(&traj(Scenario::Walk, 61.0, 0.0, 1)));
        assert_ne!(base, RouteKey::new(&traj(Scenario::Walk, 60.0, 0.5, 1)));
        let mut headed = traj(Scenario::Walk, 60.0, 0.0, 1);
        headed.heading_deg = Some(90.0);
        assert_ne!(base, RouteKey::new(&headed));
    }

    /// Two ordinary requests whose specs collided under the 64-bit
    /// FNV-1a digest of spec and extraction settings an earlier key
    /// used: each must still get its own route.
    #[test]
    fn fnv_colliding_routes_keep_their_own_contexts() {
        let a = traj(Scenario::Walk, 600.0, -93.14900398254395, 3078519218);
        let b = traj(Scenario::Walk, 600.0, -1995.641408920288, 2849119464);
        let (ka, kb) = (RouteKey::new(&a), RouteKey::new(&b));
        assert_ne!(ka, kb);
        let cache = RouteCache::new(4);
        let runs = AtomicUsize::new(0);
        let ra = resolve_counted(&cache, ka, &runs, 1);
        let rb = resolve_counted(&cache, kb, &runs, 2);
        assert_eq!(
            (ra.len(), rb.len()),
            (1, 2),
            "a request got another's route"
        );
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    /// Block until `n` requests wait on `k`'s flight.
    fn await_waiters(cache: &RouteCache, k: RouteKey, n: usize) {
        while cache.inner.lock().flights.get(&k).map(|f| f.waiters) != Some(n) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_resolvers_share_one_extraction() {
        const N: usize = 8;
        let cache = Arc::new(RouteCache::new(2));
        let runs = Arc::new(AtomicUsize::new(0));
        let (gates, resolvers): (Vec<_>, Vec<_>) = (0..N)
            .map(|_| {
                let (go, wait) = mpsc::channel::<()>();
                let (cache, runs) = (cache.clone(), runs.clone());
                let h = thread::spawn(move || {
                    wait.recv().expect("released");
                    cache
                        .resolve(key(7), None, || {
                            // Whichever resolver synthesizes finishes
                            // only once every other one waits on its
                            // flight.
                            await_waiters(&cache, key(7), N - 1);
                            // sync: test tally, read after the joins.
                            runs.fetch_add(1, Ordering::SeqCst);
                            route_of_len(5)
                        })
                        .expect("no deadline, no timeout")
                });
                (go, h)
            })
            .unzip();
        for go in gates {
            go.send(()).expect("resolver alive");
        }
        let got: Vec<Route> = resolvers
            .into_iter()
            .map(|h| h.join().expect("resolver must not panic"))
            .collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one key, one synthesis");
        assert!(got.iter().all(|c| Arc::ptr_eq(c, &got[0])));
        assert_eq!(cache.stats(), (N as u64 - 1, 1));
    }

    #[test]
    fn landed_context_outlives_its_eviction_for_waiters() {
        let cache = RouteCache::new(1);
        // A flight on key(1) that one request waits on lands...
        cache.inner.lock().flights.insert(
            key(1),
            Flight {
                id: 0,
                waiters: 1,
                landed: None,
            },
        );
        let landed = route_of_len(1);
        drop(FlightGuard {
            cache: &cache,
            key: key(1),
            route: Some(landed.clone()),
        });
        // ...and another route's publish evicts it before the waiter
        // wakes: a request joining the flight still gets its route.
        let runs = AtomicUsize::new(0);
        resolve_counted(&cache, key(2), &runs, 2);
        assert_eq!(cache.resident(), 1);
        let got = resolve_counted(&cache, key(1), &runs, 1);
        assert!(Arc::ptr_eq(&got, &landed), "the landed route was lost");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "only key(2) is synthesized");
    }

    /// Spawn a resolver of `k` whose synthesis reports that it started,
    /// then blocks until `release` fires, then panics or finishes.
    fn blocked_synthesizer(
        cache: &Arc<RouteCache>,
        k: RouteKey,
        panics: bool,
    ) -> (
        mpsc::Sender<()>,
        thread::JoinHandle<Result<Route, GendtError>>,
    ) {
        let (started_tx, started) = mpsc::channel::<()>();
        let (release, released) = mpsc::channel::<()>();
        let cache = cache.clone();
        let h = thread::spawn(move || {
            cache.resolve(k, None, move || {
                started_tx.send(()).expect("test alive");
                released.recv().expect("released");
                assert!(!panics, "synthesis failed");
                route_of_len(2)
            })
        });
        started.recv().expect("synthesis started");
        (release, h)
    }

    #[test]
    fn panicking_extraction_does_not_strand_its_waiters() {
        let cache = Arc::new(RouteCache::new(2));
        let (release, synthesizer) = blocked_synthesizer(&cache, key(3), true);
        let runs = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let (cache, runs) = (cache.clone(), runs.clone());
            thread::spawn(move || resolve_counted(&cache, key(3), &runs, 4))
        };
        // Fail the synthesis once the waiter has joined the flight.
        await_waiters(&cache, key(3), 1);
        release.send(()).expect("synthesizer alive");
        assert!(
            synthesizer.join().is_err(),
            "the synthesis was meant to panic"
        );
        let got = waiter.join().expect("waiter must not panic");
        assert_eq!(got.len(), 4, "the waiter must synthesize again");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let again = resolve_counted(&cache, key(3), &runs, 4);
        assert!(Arc::ptr_eq(&got, &again));
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn waiter_times_out_at_its_deadline() {
        let cache = Arc::new(RouteCache::new(2));
        let (release, synthesizer) = blocked_synthesizer(&cache, key(4), false);
        let deadline = Instant::now() + Duration::from_millis(30);
        let err = cache
            .resolve(key(4), Some(deadline), || {
                unreachable!("a flight is in progress")
            })
            .expect_err("the synthesis is blocked past the deadline");
        assert_eq!(err.kind(), ErrorKind::Timeout);
        assert!(Instant::now() >= deadline);
        release.send(()).expect("synthesizer alive");
        let route = synthesizer
            .join()
            .expect("synthesizer must not panic")
            .expect("synthesizer has no deadline");
        let runs = AtomicUsize::new(0);
        assert!(Arc::ptr_eq(
            &route,
            &resolve_counted(&cache, key(4), &runs, 2)
        ));
        assert_eq!(runs.load(Ordering::SeqCst), 0);
        assert_eq!(cache.stats(), (1, 1), "a timed-out waiter is neither");
    }
}
