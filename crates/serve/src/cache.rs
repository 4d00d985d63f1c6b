//! Context cache: one extraction, and one resident copy, per route.
//!
//! Extraction runs, for every trajectory point, a k-nearest query over
//! the deployment's cell buckets and a PoI count over the buckets that
//! reach the environment disc: about 2.3 µs per point on 2 vCPUs, so
//! tens of milliseconds for a multi-hour route, more than generating its
//! first window. The cache keys on the exact trajectory specification
//! (scenario, the bit patterns of every float, the seed) plus the
//! `ContextCfg` the model extracts with, so two requests for the same
//! route and the same extraction settings share one `Arc<RunContext>`,
//! and two different routes never do. Eviction is least-recently-used
//! over a fixed capacity.
//!
//! Resolution is single-flight. The first miss on a key extracts outside
//! the cache lock; later requests for that key wait on the cache's
//! condvar, no longer than their deadline, and receive the same
//! `Arc<RunContext>` — even when the entry is evicted before they wake.
//! Every generate job and every stream session keeps the context it was
//! handed for its whole life, so a duplicate extraction would stay
//! resident next to the cached copy; single flight keeps one copy per
//! route. An extraction that panics withdraws its flight and wakes its
//! waiters, and the next of them extracts again.

use gendt_data::context::{ContextCfg, RunContext};
use gendt_faults::GendtError;
use gendt_geo::trajectory::{Scenario, TrajectoryCfg};
use gendt_sync::atomic::{AtomicU64, Ordering};
use gendt_sync::time::Instant;
use gendt_sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cache key: the exact trajectory specification plus the extraction
/// configuration. Floats enter by bit pattern, so two requests share a
/// context only when every parameter is identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ContextKey {
    scenario: Scenario,
    heading: Option<u64>,
    /// Duration, start x, start y and period jitter, then the seed.
    traj: [u64; 5],
    /// `d_s`, `env_radius_m` and `coord_scale_m`, then `max_cells`.
    cfg: [u64; 4],
}

impl ContextKey {
    /// Key for the context `cfg` extracts along `traj`'s trajectory.
    pub fn new(traj: &TrajectoryCfg, cfg: &ContextCfg) -> ContextKey {
        ContextKey {
            scenario: traj.scenario,
            heading: traj.heading_deg.map(f64::to_bits),
            traj: [
                traj.duration_s.to_bits(),
                traj.start.x.to_bits(),
                traj.start.y.to_bits(),
                traj.period_jitter.to_bits(),
                traj.seed,
            ],
            cfg: [
                cfg.d_s.to_bits(),
                cfg.env_radius_m.to_bits(),
                cfg.coord_scale_m.to_bits(),
                cfg.max_cells as u64,
            ],
        }
    }
}

/// One extraction in progress, or landed with waiters still to collect.
struct Flight {
    /// Tells this flight from a later one on the same key.
    id: u64,
    /// Requests waiting for this flight's context.
    waiters: usize,
    /// The extracted context, held until every waiter has taken it.
    landed: Option<Arc<RunContext>>,
}

struct CacheInner {
    /// Resolved contexts with their last-use tick.
    map: BTreeMap<ContextKey, (Arc<RunContext>, u64)>,
    /// Flights by key; only the extractor or the last waiter removes one.
    flights: BTreeMap<ContextKey, Flight>,
    tick: u64,
}

/// LRU cache of extracted contexts with single-flight resolution.
pub struct ContextCache {
    cap: usize,
    inner: Mutex<CacheInner>,
    /// Signalled when a flight lands or is withdrawn.
    flight_done: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Ends its extractor's flight when dropped: published when `ctx` is
/// set, withdrawn when the extraction unwound.
struct FlightGuard<'a> {
    cache: &'a ContextCache,
    key: ContextKey,
    ctx: Option<Arc<RunContext>>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock();
        match inner.flights.get_mut(&self.key) {
            Some(flight) if flight.waiters > 0 && self.ctx.is_some() => {
                flight.landed = self.ctx.clone();
            }
            _ => {
                inner.flights.remove(&self.key);
            }
        }
        if let Some(ctx) = self.ctx.take() {
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.insert(self.key, (ctx, tick));
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

impl ContextCache {
    /// Cache holding at most `cap` contexts (at least one).
    pub fn new(cap: usize) -> ContextCache {
        ContextCache {
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

    /// The context for `key`: the cached one, or the one a concurrent
    /// request is extracting for the same key, or else the one `extract`
    /// builds here, outside the cache lock. A request that waits for
    /// another's extraction gives up at `deadline` with a
    /// [`Timeout`](gendt_faults::ErrorKind::Timeout) error.
    pub fn resolve(
        &self,
        key: ContextKey,
        deadline: Option<Instant>,
        extract: impl FnOnce() -> RunContext,
    ) -> Result<Arc<RunContext>, GendtError> {
        let mut inner = self.inner.lock();
        'resolve: loop {
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((ctx, last_used)) = inner.map.get_mut(&key) {
                *last_used = tick;
                let ctx = ctx.clone();
                return Ok(self.hit(ctx));
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
                if let Some(ctx) = flight.landed.clone() {
                    flight.waiters -= 1;
                    if flight.waiters == 0 {
                        inner.flights.remove(&key);
                    }
                    return Ok(self.hit(ctx));
                }
                let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                inner = match left {
                    None => self.flight_done.wait(inner),
                    Some(left) if left.is_zero() => {
                        flight.waiters -= 1;
                        return Err(GendtError::timeout(
                            "deadline passed while the route's context was being extracted",
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
            ctx: None,
        };
        let ctx = Arc::new(extract());
        flight.ctx = Some(ctx.clone());
        drop(flight);
        Ok(ctx)
    }

    fn hit(&self, ctx: Arc<RunContext>) -> Arc<RunContext> {
        // sync: see the miss counter in `resolve`.
        self.hits.fetch_add(1, Ordering::Relaxed);
        ctx
    }

    /// Contexts currently cached.
    pub fn resident(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// (hits, misses) counters for `/metrics`. A miss is one extraction;
    /// a request handed another request's extraction counts as a hit,
    /// and one that timed out waiting counts as neither.
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
    use gendt_geo::XY;
    use gendt_sync::atomic::AtomicUsize;
    use gendt_sync::{mpsc, thread};
    use std::time::Duration;

    fn traj(scenario: Scenario, duration_s: f64, start_x: f64, seed: u64) -> TrajectoryCfg {
        TrajectoryCfg::new(scenario, duration_s, XY::new(start_x, 0.0), seed)
    }

    fn key(seed: u64) -> ContextKey {
        ContextKey::new(
            &traj(Scenario::Walk, 60.0, 0.0, seed),
            &ContextCfg::default(),
        )
    }

    /// A context whose length tells which extraction built it.
    fn ctx_of_len(n: usize) -> RunContext {
        let mut ctx = RunContext::default();
        for _ in 0..n {
            ctx.push_step([], &[0.0; gendt_geo::landuse::ENV_ATTRS]);
        }
        ctx
    }

    /// Resolve `k` with an extractor that counts its runs in `runs`.
    fn resolve_counted(
        cache: &ContextCache,
        k: ContextKey,
        runs: &AtomicUsize,
        n: usize,
    ) -> Arc<RunContext> {
        cache
            .resolve(k, None, || {
                // sync: test tally, read after the resolvers joined.
                runs.fetch_add(1, Ordering::SeqCst);
                ctx_of_len(n)
            })
            .expect("no deadline, no timeout")
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ContextCache::new(4);
        let runs = AtomicUsize::new(0);
        let first = resolve_counted(&cache, key(1), &runs, 3);
        let again = resolve_counted(&cache, key(1), &runs, 3);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ContextCache::new(2);
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
        let cfg = ContextCfg::default();
        let base = key(1);
        assert_eq!(base, key(1));
        assert_ne!(base, key(2));
        assert_ne!(
            base,
            ContextKey::new(&traj(Scenario::Bus, 60.0, 0.0, 1), &cfg)
        );
        assert_ne!(
            base,
            ContextKey::new(&traj(Scenario::Walk, 61.0, 0.0, 1), &cfg)
        );
        let mut headed = traj(Scenario::Walk, 60.0, 0.0, 1);
        headed.heading_deg = Some(90.0);
        assert_ne!(base, ContextKey::new(&headed, &cfg));
        let capped = ContextCfg {
            max_cells: 3,
            ..cfg
        };
        assert_ne!(
            base,
            ContextKey::new(&traj(Scenario::Walk, 60.0, 0.0, 1), &capped)
        );
    }

    /// Two ordinary requests whose specs collide under a 64-bit FNV-1a
    /// digest of the spec (at `max_cells` 8 and at the default config):
    /// each must still get its own context.
    #[test]
    fn fnv_colliding_routes_keep_their_own_contexts() {
        let a = traj(Scenario::Walk, 600.0, -93.14900398254395, 3078519218);
        let b = traj(Scenario::Walk, 600.0, -1995.641408920288, 2849119464);
        for cfg in [
            ContextCfg {
                max_cells: 8,
                ..ContextCfg::default()
            },
            ContextCfg::default(),
        ] {
            let (ka, kb) = (ContextKey::new(&a, &cfg), ContextKey::new(&b, &cfg));
            assert_ne!(ka, kb);
            let cache = ContextCache::new(4);
            let runs = AtomicUsize::new(0);
            let ca = resolve_counted(&cache, ka, &runs, 1);
            let cb = resolve_counted(&cache, kb, &runs, 2);
            assert_eq!(
                (ca.len(), cb.len()),
                (1, 2),
                "a route got another's context"
            );
            assert_eq!(runs.load(Ordering::SeqCst), 2);
        }
    }

    /// Block until `n` requests wait on `k`'s flight.
    fn await_waiters(cache: &ContextCache, k: ContextKey, n: usize) {
        while cache.inner.lock().flights.get(&k).map(|f| f.waiters) != Some(n) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_resolvers_share_one_extraction() {
        const N: usize = 8;
        let cache = Arc::new(ContextCache::new(2));
        let runs = Arc::new(AtomicUsize::new(0));
        let (gates, resolvers): (Vec<_>, Vec<_>) = (0..N)
            .map(|_| {
                let (go, wait) = mpsc::channel::<()>();
                let (cache, runs) = (cache.clone(), runs.clone());
                let h = thread::spawn(move || {
                    wait.recv().expect("released");
                    cache
                        .resolve(key(7), None, || {
                            // Whichever resolver extracts finishes only
                            // once every other one waits on its flight.
                            await_waiters(&cache, key(7), N - 1);
                            // sync: test tally, read after the joins.
                            runs.fetch_add(1, Ordering::SeqCst);
                            ctx_of_len(5)
                        })
                        .expect("no deadline, no timeout")
                });
                (go, h)
            })
            .unzip();
        for go in gates {
            go.send(()).expect("resolver alive");
        }
        let got: Vec<Arc<RunContext>> = resolvers
            .into_iter()
            .map(|h| h.join().expect("resolver must not panic"))
            .collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one key, one extraction");
        assert!(got.iter().all(|c| Arc::ptr_eq(c, &got[0])));
        assert_eq!(cache.stats(), (N as u64 - 1, 1));
    }

    #[test]
    fn landed_context_outlives_its_eviction_for_waiters() {
        let cache = ContextCache::new(1);
        // A flight on key(1) that one request waits on lands...
        cache.inner.lock().flights.insert(
            key(1),
            Flight {
                id: 0,
                waiters: 1,
                landed: None,
            },
        );
        let landed = Arc::new(ctx_of_len(1));
        drop(FlightGuard {
            cache: &cache,
            key: key(1),
            ctx: Some(landed.clone()),
        });
        // ...and another route's publish evicts it before the waiter
        // wakes: a request joining the flight still gets its context.
        let runs = AtomicUsize::new(0);
        resolve_counted(&cache, key(2), &runs, 2);
        assert_eq!(cache.resident(), 1);
        let got = resolve_counted(&cache, key(1), &runs, 1);
        assert!(Arc::ptr_eq(&got, &landed), "the landed context was lost");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "only key(2) is extracted");
    }

    /// Spawn a resolver of `k` whose extraction reports that it started,
    /// then blocks until `release` fires, then panics or finishes.
    fn blocked_extractor(
        cache: &Arc<ContextCache>,
        k: ContextKey,
        panics: bool,
    ) -> (
        mpsc::Sender<()>,
        thread::JoinHandle<Result<Arc<RunContext>, GendtError>>,
    ) {
        let (started_tx, started) = mpsc::channel::<()>();
        let (release, released) = mpsc::channel::<()>();
        let cache = cache.clone();
        let h = thread::spawn(move || {
            cache.resolve(k, None, move || {
                started_tx.send(()).expect("test alive");
                released.recv().expect("released");
                assert!(!panics, "extraction failed");
                ctx_of_len(2)
            })
        });
        started.recv().expect("extraction started");
        (release, h)
    }

    #[test]
    fn panicking_extraction_does_not_strand_its_waiters() {
        let cache = Arc::new(ContextCache::new(2));
        let (release, extractor) = blocked_extractor(&cache, key(3), true);
        let runs = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let (cache, runs) = (cache.clone(), runs.clone());
            thread::spawn(move || resolve_counted(&cache, key(3), &runs, 4))
        };
        // Fail the extraction once the waiter has joined the flight.
        await_waiters(&cache, key(3), 1);
        release.send(()).expect("extractor alive");
        assert!(
            extractor.join().is_err(),
            "the extraction was meant to panic"
        );
        let got = waiter.join().expect("waiter must not panic");
        assert_eq!(got.len(), 4, "the waiter must extract again");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let again = resolve_counted(&cache, key(3), &runs, 4);
        assert!(Arc::ptr_eq(&got, &again));
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn waiter_times_out_at_its_deadline() {
        let cache = Arc::new(ContextCache::new(2));
        let (release, extractor) = blocked_extractor(&cache, key(4), false);
        let deadline = Instant::now() + Duration::from_millis(30);
        let err = cache
            .resolve(key(4), Some(deadline), || {
                unreachable!("a flight is in progress")
            })
            .expect_err("the extraction is blocked past the deadline");
        assert_eq!(err.kind(), ErrorKind::Timeout);
        assert!(Instant::now() >= deadline);
        release.send(()).expect("extractor alive");
        let ctx = extractor
            .join()
            .expect("extractor must not panic")
            .expect("extractor has no deadline");
        let runs = AtomicUsize::new(0);
        assert!(Arc::ptr_eq(
            &ctx,
            &resolve_counted(&cache, key(4), &runs, 2)
        ));
        assert_eq!(runs.load(Ordering::SeqCst), 0);
        assert_eq!(cache.stats(), (1, 1), "a timed-out waiter is neither");
    }
}
