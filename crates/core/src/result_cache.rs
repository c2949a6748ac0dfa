//! The result cache: short-circuit repeated identical reads within an
//! epoch.
//!
//! A serving workload is dominated by *repeats* — the same query against
//! the same database state, over and over. The plan cache already removes
//! classification and compilation from that path; the result cache
//! removes execution too, returning the memoized [`ExecOutcome`] of the
//! earlier run (probability, method, and every counter family,
//! bit-for-bit — a cache hit is indistinguishable from the run that
//! populated it, except for being instant).
//!
//! # Keying
//!
//! An entry is valid only for the exact content state and execution
//! configuration that produced it:
//!
//! * `db.uid()` + `db.version()` — the content state. The uid is fresh
//!   per database value *and per clone* (see [`pdb::ProbDb::uid`]), so
//!   entries never leak across databases that happen to share version
//!   numbers, nor across clones that diverged from a common ancestor.
//!   Within the epoch-snapshot discipline, each published epoch is one
//!   immutable `(uid, version)` state — precisely the "within an epoch"
//!   validity the serving layer needs, with no invalidation protocol:
//!   a new epoch simply has a new key.
//! * seed, threads, shards — execution tuning that changes sampling
//!   streams (estimates are deterministic per `(seed, threads)`).
//! * the strategy discriminant and effective sample count — a forced
//!   exact-lineage run and an `Auto` run of the same query must not
//!   share an entry, and a changed `mc_samples` must re-execute.
//! * `Query::cache_key()` — the canonical query, so alpha-renamed and
//!   atom-permuted variants share an entry (same normalization the plan
//!   cache uses).
//!
//! Since every input of the execution is in the key and the executors are
//! deterministic, a hit is *bit-for-bit* the answer a cold execution
//! would produce — `tests/config_matrix.rs` pins exactly that for every
//! plan kind, ranked, view and served read, cache on against cache off.

use crate::plan::ExecOutcome;
use crate::shared_cache::ShardedCache;

/// Default capacity (entries, across shards).
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 4096;

/// A shared, concurrent memo of execution outcomes. Cheap to share
/// (engines hold it behind an `Arc`); probes are sharded-lock reads.
/// Hits, misses and contention are the store's own counters, registered
/// as `engine.result_cache.{hits,misses,contended}`.
pub struct ResultCache {
    cache: ShardedCache<ExecOutcome>,
}

impl ResultCache {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RESULT_CACHE_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            cache: ShardedCache::new(capacity, "engine.result_cache"),
        }
    }

    /// Probe for a memoized outcome under `key` (built by the engine via
    /// [`ResultCache::key`]).
    pub fn get(&self, key: &str) -> Option<ExecOutcome> {
        self.cache.get(key)
    }

    /// Memoize `outcome` under `key`.
    pub fn insert(&self, key: String, outcome: ExecOutcome) {
        self.cache.insert(key, outcome);
    }

    /// Build the cache key for one evaluation. `strategy_tag` encodes the
    /// strategy discriminant plus its effective sample count (0 for exact
    /// strategies); `query_key` is `Query::cache_key()`.
    pub fn key(
        db: &pdb::ProbDb,
        seed: u64,
        threads: usize,
        shards: usize,
        strategy_tag: &str,
        query_key: &str,
    ) -> String {
        format!(
            "{}:{}:{seed}:{threads}:{shards}:{strategy_tag}:{query_key}",
            db.uid(),
            db.version(),
        )
    }

    /// Lifetime hits of *this* cache instance.
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Lifetime misses of *this* cache instance.
    pub fn misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Contended lock acquisitions observed by the underlying sharded
    /// store (serving surfaces this next to hits/misses).
    pub fn contended(&self) -> u64 {
        self.cache.contended()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}
