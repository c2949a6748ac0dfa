//! Hash-sharding of tuple storage: the data-plane partitioning scheme
//! behind the sharded executors and the shard-resident storage layout.
//!
//! # Ownership
//!
//! A [`ShardMap`] deterministically assigns every [`TupleId`] to one of
//! `N` shards by hashing the id (a splitmix64-style integer mix — cheap,
//! stateless, and uniform even on the dense sequential ids `ProbDb`
//! allocates). Ownership is a pure function of `(id, N)`: every executor,
//! refresh path, storage slab, and test sees the same assignment, and it
//! never changes for the lifetime of a layout.
//!
//! # Shard-resident storage
//!
//! With `ProbDb::set_shard_layout(N)` the database keeps, per shard, a
//! contiguous columnar buffer per relation (tuple ids + row values at the
//! relation's arity stride + an `f64` probability column — the same flat
//! layout as `safeplan`'s relations) and this shard's slice of every
//! `(relation, column, value)` posting list. Invariants:
//!
//! * **Filter equality** — each per-shard list is exactly the ownership
//!   filter of the corresponding global list: `shard_tuples_with(s, …) ==
//!   tuples_with(…).filter(|id| shard_of(id) == s)`, element for element.
//! * **Ascending ids** — insertion appends monotonically increasing ids
//!   and deletion splices whole rows, so every per-shard list stays
//!   strictly ascending, exactly like the global lists.
//! * **Delta routing** — `DeltaBatch::apply` (and the out-of-band
//!   mutators) route each tuple-level change to its owning shard only,
//!   and stamp that shard's version (`ProbDb::shard_version`), so a
//!   shard-local reader can skip untouched shards.
//!
//! # Merge discipline
//!
//! Because per-shard lists ascend and partition the global list, a k-way
//! min-merge of per-shard scan outputs keyed by tuple id reproduces the
//! unsharded scan **exactly** — same rows, same order, same bits. This is
//! the invariant the sharded executor leans on for the bit-for-bit
//! oracle guarantee.
//!
//! A scan shards only over the layout the database already has:
//! [`ProbDb::shard_map_for`](crate::ProbDb::shard_map_for) grants a
//! requested fan-out only when it equals `shard_layout()`, and the
//! monolithic map otherwise. NUMA pinning and multi-process placement of
//! whole slabs are the follow-up this layout enables.

use crate::database::TupleId;

/// Deterministic tuple-id → shard assignment for an `N`-way sharded data
/// plane. Construction clamps `N` to at least 1; a 1-shard map assigns
/// everything to shard 0 (the monolithic plane).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl Default for ShardMap {
    /// The monolithic (1-shard) map.
    fn default() -> Self {
        ShardMap::new(1)
    }
}

impl ShardMap {
    pub fn new(shards: usize) -> Self {
        ShardMap {
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `id`. A pure function of `(id, shards)` — every
    /// executor, refresh path, and test sees the same assignment.
    #[inline]
    pub fn shard_of(&self, id: TupleId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        // splitmix64 finalizer: sequential ids spread uniformly.
        let mut x = u64::from(id.0).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((x ^ (x >> 31)) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        let map = ShardMap::new(4);
        for i in 0..1000u32 {
            let s = map.shard_of(TupleId(i));
            assert!(s < 4);
            assert_eq!(s, map.shard_of(TupleId(i)), "id {i} unstable");
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        let map = ShardMap::new(1);
        assert_eq!(map.shards(), 1);
        for i in [0u32, 7, 1 << 20] {
            assert_eq!(map.shard_of(TupleId(i)), 0);
        }
        // Zero clamps to one.
        assert_eq!(ShardMap::new(0).shards(), 1);
    }

    /// `ids` bucketed by owning shard, each bucket in `ids` order — the
    /// ownership filter the resident layout applies to every global list.
    fn owners(map: ShardMap, ids: &[TupleId]) -> Vec<Vec<TupleId>> {
        let mut out = vec![Vec::new(); map.shards()];
        for &id in ids {
            out[map.shard_of(id)].push(id);
        }
        out
    }

    #[test]
    fn split_partitions_and_preserves_ascending_order() {
        let dense: Vec<TupleId> = (0..200u32).map(TupleId).collect();
        // A sparse, non-contiguous list (posting lists look like this).
        let sparse: Vec<TupleId> = (0..300u32).filter(|i| i % 3 == 0).map(TupleId).collect();
        for ids in [&dense, &sparse] {
            for shards in [1usize, 2, 3, 4, 8] {
                let parts = owners(ShardMap::new(shards), ids);
                assert_eq!(parts.len(), shards);
                let mut seen: Vec<TupleId> = parts.concat();
                seen.sort();
                assert_eq!(&seen, ids, "{shards} shards lose/duplicate ids");
                for (s, part) in parts.iter().enumerate() {
                    assert!(
                        part.windows(2).all(|w| w[0] < w[1]),
                        "shard {s} not ascending"
                    );
                    assert!(!part.is_empty(), "{shards} shards: shard {s} owns nothing");
                }
            }
        }
    }

    #[test]
    fn sequential_ids_spread_roughly_uniformly() {
        let ids: Vec<TupleId> = (0..10_000u32).map(TupleId).collect();
        let parts = owners(ShardMap::new(4), &ids);
        for (s, part) in parts.iter().enumerate() {
            assert!(
                (2_000..=3_000).contains(&part.len()),
                "shard {s} holds {} of 10000 ids — badly skewed",
                part.len()
            );
        }
    }
}
