//! Context cache: repeated trajectories skip `gendt_data::extract`.
//!
//! Extraction runs, for every trajectory point, a k-nearest query over
//! the deployment's cell buckets and a PoI count over the buckets that
//! reach the environment disc: about 2.3 µs per point on 2 vCPUs, so
//! tens of milliseconds for a multi-hour route, more than generating its
//! first window. The cache
//! keys on an FNV-1a hash of the full trajectory specification plus the
//! `ContextCfg` the model extracts with, so two requests for the same
//! route and the same extraction settings share one `Arc<RunContext>`.
//! Eviction is least-recently-used over a fixed capacity.

use gendt_data::context::{ContextCfg, RunContext};
use gendt_sync::atomic::{AtomicU64, Ordering};
use gendt_sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Cache key for one (trajectory spec, extraction cfg) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ContextKey(u64);

impl ContextKey {
    /// Hash a trajectory specification together with the extraction
    /// configuration. Floats hash by their exact bit patterns — two
    /// requests share a context only when every parameter is identical.
    pub fn new(
        scenario: &str,
        duration_s: f64,
        start_x: f64,
        start_y: f64,
        traj_seed: u64,
        cfg: &ContextCfg,
    ) -> ContextKey {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv1a(scenario.as_bytes(), h);
        for v in [duration_s, start_x, start_y] {
            h = fnv1a(&v.to_bits().to_le_bytes(), h);
        }
        h = fnv1a(&traj_seed.to_le_bytes(), h);
        for v in [cfg.d_s, cfg.env_radius_m, cfg.coord_scale_m] {
            h = fnv1a(&v.to_bits().to_le_bytes(), h);
        }
        h = fnv1a(&(cfg.max_cells as u64).to_le_bytes(), h);
        ContextKey(h)
    }
}

struct CacheInner {
    map: BTreeMap<ContextKey, (Arc<RunContext>, u64)>,
    tick: u64,
}

/// LRU cache of extracted contexts.
pub struct ContextCache {
    cap: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ContextCache {
    /// Cache holding at most `cap` contexts (at least one).
    pub fn new(cap: usize) -> ContextCache {
        ContextCache {
            cap: cap.max(1),
            inner: Mutex::new(CacheInner {
                map: BTreeMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a context, refreshing its recency on hit.
    pub fn get(&self, key: ContextKey) -> Option<Arc<RunContext>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some((ctx, last_used)) => {
                *last_used = tick;
                let ctx = ctx.clone();
                // sync: hit/miss are independent monotonic counters for
                // /metrics; the map itself is guarded by `inner`.
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(ctx)
            }
            None => {
                // sync: see the hit counter above.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a context, evicting the least recently used entry when
    /// over capacity. (Extraction runs outside the cache lock; a racing
    /// duplicate insert is harmless — last writer wins.)
    pub fn insert(&self, key: ContextKey, ctx: Arc<RunContext>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (ctx, tick));
        while inner.map.len() > self.cap {
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

    /// (hits, misses) counters for `/metrics`.
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

    fn ctx_of_len(n: usize) -> Arc<RunContext> {
        Arc::new(RunContext {
            steps: Vec::with_capacity(n),
        })
    }

    fn key(seed: u64) -> ContextKey {
        ContextKey::new("walk", 60.0, 0.0, 0.0, seed, &ContextCfg::default())
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ContextCache::new(4);
        assert!(cache.get(key(1)).is_none());
        cache.insert(key(1), ctx_of_len(0));
        assert!(cache.get(key(1)).is_some());
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ContextCache::new(2);
        cache.insert(key(1), ctx_of_len(0));
        cache.insert(key(2), ctx_of_len(0));
        // Touch 1 so 2 is the LRU entry, then overflow.
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(3), ctx_of_len(0));
        assert!(cache.get(key(2)).is_none(), "LRU entry survived eviction");
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(3)).is_some());
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let base = key(1);
        assert_ne!(
            base,
            ContextKey::new("walk", 60.0, 0.0, 0.0, 2, &ContextCfg::default())
        );
        assert_ne!(
            base,
            ContextKey::new("bus", 60.0, 0.0, 0.0, 1, &ContextCfg::default())
        );
        assert_ne!(
            base,
            ContextKey::new("walk", 61.0, 0.0, 0.0, 1, &ContextCfg::default())
        );
        let cfg = ContextCfg {
            max_cells: 3,
            ..ContextCfg::default()
        };
        assert_ne!(base, ContextKey::new("walk", 60.0, 0.0, 0.0, 1, &cfg));
    }
}
