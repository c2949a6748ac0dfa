//! The tuple-independent probabilistic structure `(A, p)`.

use crate::delta::{AppliedDelta, ChangeKind, DeltaBatch, DeltaOp, TupleChange};
use crate::shard::ShardMap;
use cq::{Query, RelId, Value, Vocabulary};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Index of a tuple within a [`ProbDb`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TupleId(pub u32);

/// A possible tuple: its relation and arguments. The marginal
/// probability lives in the database's probability column
/// ([`ProbDb::probs`] / [`ProbDb::prob`]), indexed by the same
/// [`TupleId`].
#[derive(Clone, Debug, PartialEq)]
pub struct ProbTuple {
    pub rel: RelId,
    pub args: Vec<Value>,
}

/// One relation's resident rows inside one shard: a contiguous columnar
/// buffer with the same invariants as `safeplan`'s flat relations —
/// `data.len() == ids.len() * arity` (row `i` occupies
/// `data[i*arity .. (i+1)*arity]`) and `ids` strictly ascending
/// (insertion appends monotonically increasing ids; deletion splices
/// whole rows, preserving order). Probabilities are not stored here:
/// scans index the caller's probability vector ([`ProbDb::probs`], or an
/// exact-rational one) by tuple id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardColumn {
    /// Tuple ids of the resident rows, ascending.
    pub ids: Vec<TupleId>,
    /// Row values, `ids.len() * arity`, row-major with the relation's
    /// arity as stride.
    pub data: Vec<Value>,
}

/// One shard's resident storage: per-relation columnar buffers plus this
/// shard's slice of every `(relation, column, value)` posting list. All
/// id lists are ascending, so a k-way merge of per-shard scan outputs by
/// tuple id reproduces the monolithic scan order bit for bit.
#[derive(Clone, Debug, Default)]
struct ShardSlab {
    /// Relation → resident columnar rows owned by this shard.
    by_rel: HashMap<RelId, ShardColumn>,
    /// `(relation, column, value)` → owned tuple ids holding `value` in
    /// that column, ascending — the shard-local constant-pushdown lists.
    cols: HashMap<(RelId, u32, Value), Vec<TupleId>>,
}

/// A tuple-independent probabilistic structure (§1): a finite first-order
/// structure together with a probability `p(t) ∈ [0,1]` for every tuple.
/// Tuples not present have probability 0. The induced distribution over
/// sub-structures is the product distribution of Eq. 1.
#[derive(Debug)]
pub struct ProbDb {
    /// Process-unique identity, minted fresh on construction *and on
    /// clone*: two databases share a `uid` only if they are the same
    /// value. `(uid, version)` therefore names one immutable-under-`&`
    /// content state, which is what cross-database caches (the engine's
    /// result cache) key by — version stamps alone collide across
    /// independently grown databases and across diverged clones.
    /// In-place mutation ([`ProbDb::apply`], [`ProbDb::replay_from`])
    /// keeps the `uid` and moves the version.
    uid: u64,
    pub voc: Vocabulary,
    tuples: Vec<ProbTuple>,
    /// The probability column `p(t)`, parallel to `tuples` — the only
    /// copy. Evaluators borrow it whole ([`ProbDb::probs`]) as the
    /// id-indexed probability slice every executor and lineage counter
    /// takes; it is written only by the `insert_inner` / `delete_inner`
    /// kernels and `replay_from`'s overwrite, and a tombstone reads 0.0.
    probs: Vec<f64>,
    /// Tombstone flags, parallel to `tuples`: deleting a tuple keeps its
    /// slot (ids never shift — the incremental views and probability
    /// vectors key by id) but removes it from every index and zeroes its
    /// probability, so no evaluator can observe it.
    dead: Vec<bool>,
    /// Content lookup, keyed by a 64-bit hash of `(rel, args)` with the
    /// candidate ids verified against tuple storage — the tuple's own
    /// `args` allocation is the only copy of the key (bulk loads used to
    /// clone every `args` twice into a `(RelId, Vec<Value>)` map key).
    index: HashMap<u64, Vec<TupleId>>,
    by_rel: HashMap<RelId, Vec<TupleId>>,
    /// Secondary indexes: `(relation, column, value)` → ids of the tuples
    /// holding `value` in that column, **ascending** (insertion appends
    /// monotonically increasing ids and deletion splices, preserving
    /// order). The extensional executor's constant-pushdown scans read
    /// these posting lists so `R(x, 'c')` atoms stop filtering full
    /// relations; ascending order keeps a pushed-down scan's output
    /// bit-identical to a filtered full scan.
    cols: HashMap<(RelId, u32, Value), Vec<TupleId>>,
    /// Monotonically increasing version stamp: every mutation bumps it.
    version: u64,
    /// The delta log: one [`AppliedDelta`] per [`ProbDb::apply`] batch,
    /// capped at [`MAX_DELTA_LOG`] entries. Out-of-band mutations (raw
    /// [`ProbDb::insert`] / [`ProbDb::delete`]) clear it — views detect
    /// the gap through `logged_from` and rebuild instead of replaying.
    log: VecDeque<AppliedDelta>,
    /// The version immediately before the oldest retained log entry: the
    /// log can replay any view synced at `version >= logged_from`.
    logged_from: u64,
    /// The storage-level shard layout. 1 (the default) keeps the database
    /// monolithic; `> 1` keeps per-shard resident buffers and posting
    /// lists (`resident`) maintained alongside the global indexes, with
    /// ownership fixed by [`ShardMap::shard_of`] over tuple ids.
    layout: ShardMap,
    /// Per-shard resident storage, `layout.shards()` slabs when the
    /// layout is sharded, empty when monolithic.
    resident: Vec<ShardSlab>,
    /// Per-shard version stamps, parallel to `resident`: the database
    /// version at which each shard last changed. A reader synced at
    /// version `v` can skip any shard with `shard_versions[s] <= v` —
    /// deltas propagate shard-locally.
    shard_versions: Vec<u64>,
}

/// Applied batches retained in the delta log; older entries are dropped
/// (views further behind fall back to a full rebuild).
pub const MAX_DELTA_LOG: usize = 1024;

/// Mint a process-unique database identity (see `ProbDb::uid`).
fn fresh_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Clone for ProbDb {
    /// Clones carry every field verbatim — same version stamp, same delta
    /// log, so incremental views synced against the original replay
    /// against the clone — but mint a fresh `uid`: the clone may diverge,
    /// and caches must not confuse its states with the original's.
    fn clone(&self) -> Self {
        ProbDb {
            uid: fresh_uid(),
            voc: self.voc.clone(),
            tuples: self.tuples.clone(),
            probs: self.probs.clone(),
            dead: self.dead.clone(),
            index: self.index.clone(),
            by_rel: self.by_rel.clone(),
            cols: self.cols.clone(),
            version: self.version,
            log: self.log.clone(),
            logged_from: self.logged_from,
            layout: self.layout,
            resident: self.resident.clone(),
            shard_versions: self.shard_versions.clone(),
        }
    }
}

impl Default for ProbDb {
    fn default() -> Self {
        ProbDb::new(Vocabulary::default())
    }
}

/// Splice `id` out of an ascending id list (binary search + remove).
fn remove_ascending(list: &mut Vec<TupleId>, id: TupleId) {
    if let Ok(pos) = list.binary_search(&id) {
        list.remove(pos);
    }
}

/// FNV-1a content hash of a tuple key. Collisions are handled (candidates
/// are verified against tuple storage), so this only affects probe cost.
fn content_hash(rel: RelId, args: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h ^= u64::from(rel.0);
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for v in args {
        h ^= v.0;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

// The morsel-driven parallel executor shares `&ProbDb` across scoped
// worker threads; keep the structure free of interior mutability so these
// bounds hold (a compile error here means a field broke that contract).
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<ProbDb>();
    assert_shareable::<ProbTuple>();
};

impl ProbDb {
    pub fn new(voc: Vocabulary) -> Self {
        ProbDb {
            uid: fresh_uid(),
            voc,
            tuples: Vec::new(),
            probs: Vec::new(),
            dead: Vec::new(),
            index: HashMap::new(),
            by_rel: HashMap::new(),
            cols: HashMap::new(),
            version: 0,
            log: VecDeque::new(),
            logged_from: 0,
            layout: ShardMap::new(1),
            resident: Vec::new(),
            shard_versions: Vec::new(),
        }
    }

    /// Insert (or overwrite) a tuple with probability `prob`. `args` is
    /// moved into tuple storage — the content and column indexes key by
    /// hash and tuple id, so a bulk load performs no key cloning.
    ///
    /// This is an *out-of-band* mutation: it bumps the version stamp and
    /// invalidates the delta log (incremental views will rebuild rather
    /// than replay). Use [`ProbDb::apply`] to mutate through the log.
    ///
    /// # Panics
    /// If the arity disagrees with the vocabulary or `prob ∉ [0,1]`.
    pub fn insert(&mut self, rel: RelId, args: Vec<Value>, prob: f64) -> TupleId {
        let (id, _) = self.insert_inner(rel, args, prob);
        self.bump_out_of_band();
        id
    }

    /// Delete a tuple by content, returning its id (now a tombstone) if it
    /// was present. Out-of-band like [`ProbDb::insert`]: bumps the version
    /// and invalidates the delta log.
    pub fn delete(&mut self, rel: RelId, args: &[Value]) -> Option<TupleId> {
        let deleted = self.delete_inner(rel, args).map(|(id, _)| id);
        if deleted.is_some() {
            self.bump_out_of_band();
        }
        deleted
    }

    /// The insert kernel shared by [`ProbDb::insert`], [`ProbDb::apply`]
    /// and [`ProbDb::replay_from`]; does not touch the version or the
    /// log. Returns the id and, for an overwrite of present content, the
    /// probability it replaced (`None` for a fresh id) — one content-hash
    /// probe either way.
    fn insert_inner(&mut self, rel: RelId, args: Vec<Value>, prob: f64) -> (TupleId, Option<f64>) {
        assert_eq!(
            args.len(),
            self.voc.arity(rel),
            "arity mismatch inserting into {}",
            self.voc.rel_name(rel)
        );
        assert!(
            (0.0..=1.0).contains(&prob),
            "tuple probability {prob} outside [0,1]"
        );
        let h = content_hash(rel, &args);
        if let Some(id) = self.lookup_hashed(h, rel, &args) {
            let old = std::mem::replace(&mut self.probs[id.0 as usize], prob);
            if old.to_bits() != prob.to_bits() {
                self.resident_overwrite(id);
            }
            return (id, Some(old));
        }
        let id = TupleId(self.tuples.len() as u32);
        self.index.entry(h).or_default().push(id);
        self.by_rel.entry(rel).or_default().push(id);
        for (pos, &v) in args.iter().enumerate() {
            self.cols.entry((rel, pos as u32, v)).or_default().push(id);
        }
        self.tuples.push(ProbTuple { rel, args });
        self.probs.push(prob);
        self.dead.push(false);
        self.resident_insert(id);
        (id, None)
    }

    /// The delete kernel: tombstone the slot and splice the id out of the
    /// content index, the relation list, and every column posting list
    /// (all ascending — removal preserves order, so index-served scans
    /// stay bit-identical to filtered full scans). Returns the id and the
    /// old probability when the tuple was present.
    fn delete_inner(&mut self, rel: RelId, args: &[Value]) -> Option<(TupleId, f64)> {
        let h = content_hash(rel, args);
        let id = self.lookup_hashed(h, rel, args)?;
        let chain = self.index.get_mut(&h).expect("indexed tuple has a chain");
        chain.retain(|&x| x != id);
        if chain.is_empty() {
            self.index.remove(&h);
        }
        remove_ascending(self.by_rel.get_mut(&rel).expect("by_rel list"), id);
        for (pos, &v) in args.iter().enumerate() {
            let key = (rel, pos as u32, v);
            let list = self.cols.get_mut(&key).expect("posting list");
            remove_ascending(list, id);
            if list.is_empty() {
                self.cols.remove(&key);
            }
        }
        // The tombstone keeps its args (diagnostics, late readers) but can
        // never contribute probability mass: every evaluator that bypasses
        // the indexes (brute force, lineage) sees `p = 0`.
        let old_prob = std::mem::replace(&mut self.probs[id.0 as usize], 0.0);
        self.dead[id.0 as usize] = true;
        self.resident_delete(id);
        Some((id, old_prob))
    }

    /// Mirror a fresh tuple into its owning shard's resident buffers and
    /// stamp the shard with the post-mutation version (the callers —
    /// out-of-band wrappers and [`ProbDb::apply`] — bump the global
    /// version exactly once after their inner kernels run).
    fn resident_insert(&mut self, id: TupleId) {
        if self.resident.is_empty() {
            return;
        }
        let owner = self.layout.shard_of(id);
        let ProbDb {
            tuples,
            resident,
            shard_versions,
            version,
            ..
        } = self;
        let t = &tuples[id.0 as usize];
        let slab = &mut resident[owner];
        let col = slab.by_rel.entry(t.rel).or_default();
        col.ids.push(id);
        col.data.extend_from_slice(&t.args);
        for (pos, &v) in t.args.iter().enumerate() {
            slab.cols
                .entry((t.rel, pos as u32, v))
                .or_default()
                .push(id);
        }
        shard_versions[owner] = *version + 1;
    }

    /// Stamp the owning shard of a tuple whose probability was overwritten
    /// (resident rows, posting lists and row values are untouched, exactly
    /// like the global indexes).
    fn resident_overwrite(&mut self, id: TupleId) {
        if self.resident.is_empty() {
            return;
        }
        let owner = self.layout.shard_of(id);
        self.shard_versions[owner] = self.version + 1;
    }

    /// Splice a deleted tuple out of its owning shard: remove the whole
    /// resident row (id and value stride) and the id from every
    /// shard-local posting list — ascending order preserved throughout, so
    /// per-shard lists stay exactly the ownership-filtered global lists.
    fn resident_delete(&mut self, id: TupleId) {
        if self.resident.is_empty() {
            return;
        }
        let owner = self.layout.shard_of(id);
        let ProbDb {
            tuples,
            resident,
            shard_versions,
            version,
            ..
        } = self;
        let t = &tuples[id.0 as usize];
        let slab = &mut resident[owner];
        let col = slab
            .by_rel
            .get_mut(&t.rel)
            .expect("resident rows for an owned tuple");
        let at = col.ids.binary_search(&id).expect("resident row present");
        let arity = t.args.len();
        col.ids.remove(at);
        col.data.drain(at * arity..(at + 1) * arity);
        for (pos, &v) in t.args.iter().enumerate() {
            let key = (t.rel, pos as u32, v);
            let list = slab.cols.get_mut(&key).expect("shard posting list");
            remove_ascending(list, id);
            if list.is_empty() {
                slab.cols.remove(&key);
            }
        }
        shard_versions[owner] = *version + 1;
    }

    fn bump_out_of_band(&mut self) {
        self.version += 1;
        self.log.clear();
        self.logged_from = self.version;
    }

    /// Apply a [`DeltaBatch`] atomically: resolve every operation to a
    /// tuple-level [`TupleChange`], bump the version once, and append the
    /// [`AppliedDelta`] to the delta log (capped at [`MAX_DELTA_LOG`]
    /// entries — views further behind rebuild). Returns the new version.
    ///
    /// Semantics per op: `Insert` of present content and `Update` overwrite
    /// the probability in place (`Updated`); `Update` of absent content
    /// inserts (`Inserted`); `Delete` of absent content is a no-op and
    /// writing an identical probability is dropped from the change list.
    pub fn apply(&mut self, batch: &DeltaBatch) -> u64 {
        let mut changes = Vec::with_capacity(batch.ops.len());
        for op in &batch.ops {
            match op {
                DeltaOp::Insert { rel, args, prob } | DeltaOp::Update { rel, args, prob } => {
                    let (id, old) = self.insert_inner(*rel, args.clone(), *prob);
                    let kind = match old {
                        None => ChangeKind::Inserted,
                        // Identical probability: nothing changed.
                        Some(old_prob) if old_prob.to_bits() == prob.to_bits() => continue,
                        Some(old_prob) => ChangeKind::Updated {
                            old_prob,
                            new_prob: *prob,
                        },
                    };
                    changes.push(TupleChange {
                        id,
                        rel: *rel,
                        kind,
                    });
                }
                DeltaOp::Delete { rel, args } => {
                    if let Some((id, old_prob)) = self.delete_inner(*rel, args) {
                        changes.push(TupleChange {
                            id,
                            rel: *rel,
                            kind: ChangeKind::Deleted { old_prob },
                        });
                    }
                }
            }
        }
        self.push_log(AppliedDelta {
            version: self.version + 1,
            changes,
        });
        self.version
    }

    /// Advance to `delta.version` and append `delta` to the log, trimmed
    /// to [`MAX_DELTA_LOG`] entries.
    fn push_log(&mut self, delta: AppliedDelta) {
        self.version = delta.version;
        self.log.push_back(delta);
        while self.log.len() > MAX_DELTA_LOG {
            let dropped = self.log.pop_front().expect("non-empty log");
            self.logged_from = dropped.version;
        }
    }

    /// Catch a stale copy up to `ahead` by replaying `ahead`'s delta log:
    /// O(changes since `self.version()`), not O(database). `self` must be
    /// a state `ahead` passed through — a clone taken (or an epoch
    /// published) at an earlier version of the same history; vocabularies
    /// are append-only, so a size difference is the only way they differ.
    /// Afterwards `self` equals `ahead.clone()` on every observable except
    /// `uid`, which it keeps.
    ///
    /// Returns `false`, leaving `self` untouched, when the log cannot
    /// bridge the gap: `self` is behind [`ProbDb::delta_log_start`]
    /// ([`MAX_DELTA_LOG`] overflow, or an out-of-band
    /// [`ProbDb::insert`] / [`ProbDb::delete`] in between), the log does
    /// not hold one entry per missing version, the shard layouts differ,
    /// or `self` has more tuple slots than `ahead`.
    ///
    /// # Panics
    /// If a replayed change resolves to a different tuple id than the one
    /// logged — `self` was not an earlier state of `ahead`.
    pub fn replay_from(&mut self, ahead: &ProbDb) -> bool {
        // An intact log holds exactly the versions `logged_from + 1 ..=
        // version`, so the missing ones are its last `behind` entries —
        // if it still has that many, and they start right after `self`.
        let Some(skip) = ahead
            .version
            .checked_sub(self.version)
            .and_then(|behind| ahead.log.len().checked_sub(usize::try_from(behind).ok()?))
        else {
            return false;
        };
        let bridged = |first: &AppliedDelta| first.version == self.version + 1;
        if !ahead.log.get(skip).is_none_or(bridged)
            || self.layout != ahead.layout
            || self.tuples.len() > ahead.tuples.len()
        {
            return false;
        }
        if self.voc.num_relations() != ahead.voc.num_relations()
            || self.voc.num_named_consts() != ahead.voc.num_named_consts()
        {
            self.voc = ahead.voc.clone();
        }
        for delta in ahead.log.range(skip..) {
            for c in &delta.changes {
                // `ahead` keeps the args of every slot, tombstones
                // included. An `Inserted` entry logs no probability:
                // insert with the slot's final one, which is also where
                // any later `Updated` / `Deleted` entries for it end.
                let t = &ahead.tuples[c.id.0 as usize];
                match c.kind {
                    ChangeKind::Inserted => {
                        let minted = self.insert_inner(t.rel, t.args.clone(), ahead.prob(c.id));
                        assert_eq!(minted, (c.id, None), "replay minted a different id");
                    }
                    ChangeKind::Updated { new_prob, .. } => {
                        self.probs[c.id.0 as usize] = new_prob;
                        self.resident_overwrite(c.id);
                    }
                    ChangeKind::Deleted { .. } => {
                        let deleted = self.delete_inner(t.rel, &t.args).map(|(id, _)| id);
                        assert_eq!(deleted, Some(c.id), "replay deleted a different id");
                    }
                }
            }
            // Per entry, so the kernels' `version + 1` shard stamps match.
            self.push_log(delta.clone());
        }
        true
    }

    /// The current version stamp. Starts at 0; every mutation — applied
    /// batch or out-of-band insert/delete — increases it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique identity of this database value, fresh per
    /// construction and per clone, kept while the value is mutated in
    /// place — by [`ProbDb::apply`], or by [`ProbDb::replay_from`] when
    /// the epoch store recycles a retired snapshot, so successive epochs
    /// may alternate between two `uid`s. `(uid(), version())` names one
    /// immutable-under-`&` content state — the key cross-database caches
    /// use (version stamps alone collide across databases and clones).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The oldest version the delta log can replay *from*: a reader synced
    /// at `v >= delta_log_start()` can catch up through
    /// [`ProbDb::changes_since`]; one behind it must rebuild.
    pub fn delta_log_start(&self) -> u64 {
        self.logged_from
    }

    /// The logged deltas with `version > since`, oldest first.
    pub fn changes_since(&self, since: u64) -> impl Iterator<Item = &AppliedDelta> {
        self.log.iter().filter(move |d| d.version > since)
    }

    /// Is the tuple slot live (not a tombstone)?
    pub fn is_live(&self, id: TupleId) -> bool {
        !self.dead[id.0 as usize]
    }

    fn lookup(&self, rel: RelId, args: &[Value]) -> Option<TupleId> {
        self.lookup_hashed(content_hash(rel, args), rel, args)
    }

    fn lookup_hashed(&self, h: u64, rel: RelId, args: &[Value]) -> Option<TupleId> {
        self.index.get(&h)?.iter().copied().find(|&id| {
            let t = &self.tuples[id.0 as usize];
            t.rel == rel && t.args == args
        })
    }

    /// Number of tuple *slots* (including tombstones left by deletions —
    /// a tombstone has probability 0 and is invisible to every index, so
    /// probability computations are unaffected). [`TupleId`]s index this
    /// range, and probability vectors have this length.
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    pub fn tuples(&self) -> &[ProbTuple] {
        &self.tuples
    }

    pub fn tuple(&self, id: TupleId) -> &ProbTuple {
        &self.tuples[id.0 as usize]
    }

    /// The probability column: `probs()[id]` is `p(t)` of tuple `id`
    /// (0.0 for a tombstone), `num_tuples()` long. This is the slice every
    /// executor, lineage counter and sampler takes — borrowed, not
    /// rebuilt, so a query that touches five tuples pays for five.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Marginal probability of tuple `id` (0.0 for a tombstone).
    pub fn prob(&self, id: TupleId) -> f64 {
        self.probs[id.0 as usize]
    }

    /// Ids of the possible tuples of relation `rel`.
    pub fn tuples_of(&self, rel: RelId) -> &[TupleId] {
        self.by_rel.get(&rel).map_or(&[], |v| v.as_slice())
    }

    /// Ids of the tuples of `rel` whose column `col` holds `value`, in
    /// ascending id order — the constant-pushdown posting list. Empty when
    /// no tuple matches.
    pub fn tuples_with(&self, rel: RelId, col: usize, value: Value) -> &[TupleId] {
        self.cols
            .get(&(rel, col as u32, value))
            .map_or(&[], |v| v.as_slice())
    }

    /// Configure the storage-level shard layout: `shards > 1` builds (or
    /// rebuilds) per-shard resident columnar buffers and posting lists
    /// from the global indexes; `1` drops them and the database is
    /// monolithic again. Ownership is [`ShardMap::shard_of`] over tuple
    /// ids — the same splitmix64 partition every executor uses — so each
    /// per-shard list is exactly the ownership filter of its global list.
    /// Purely a physical re-layout: no version bump, and every evaluator
    /// returns bit-for-bit the same results as on the monolithic layout.
    pub fn set_shard_layout(&mut self, shards: usize) {
        let shards = shards.max(1);
        self.layout = ShardMap::new(shards);
        self.resident.clear();
        if shards == 1 {
            self.shard_versions.clear();
            return;
        }
        self.resident.resize_with(shards, ShardSlab::default);
        self.shard_versions = vec![self.version; shards];
        let ProbDb {
            tuples,
            by_rel,
            cols,
            resident,
            layout,
            ..
        } = self;
        for (&rel, ids) in by_rel.iter() {
            for &id in ids {
                let col = resident[layout.shard_of(id)].by_rel.entry(rel).or_default();
                col.ids.push(id);
                col.data.extend_from_slice(&tuples[id.0 as usize].args);
            }
        }
        for (&key, list) in cols.iter() {
            for &id in list {
                resident[layout.shard_of(id)]
                    .cols
                    .entry(key)
                    .or_default()
                    .push(id);
            }
        }
    }

    /// The number of shards in the storage layout (1 = monolithic, no
    /// resident buffers kept).
    pub fn shard_layout(&self) -> usize {
        self.layout.shards()
    }

    /// The shard map a scan asking for `requested` shards runs over: the
    /// layout's map when `requested` equals [`ProbDb::shard_layout`], the
    /// monolithic map otherwise. Scans fan out only over per-shard storage
    /// the database already keeps, so a fan-out above 1 needs a matching
    /// [`ProbDb::set_shard_layout`].
    pub fn shard_map_for(&self, requested: usize) -> ShardMap {
        if requested.max(1) == self.layout.shards() {
            self.layout
        } else {
            ShardMap::default()
        }
    }

    /// The database version at which `shard` last changed (the version at
    /// layout-build time if untouched since). A reader synced at version
    /// `v` can skip every shard with `shard_version(shard) <= v`.
    ///
    /// # Panics
    /// If the layout is monolithic or `shard` is out of range.
    pub fn shard_version(&self, shard: usize) -> u64 {
        self.shard_versions[shard]
    }

    /// Ids of the tuples of `rel` owned by `shard`, ascending — exactly
    /// the ownership filter of [`ProbDb::tuples_of`], resolved inside the
    /// shard without a global-index probe.
    ///
    /// # Panics
    /// If the layout is monolithic or `shard` is out of range.
    pub fn shard_tuples_of(&self, shard: usize, rel: RelId) -> &[TupleId] {
        self.resident[shard]
            .by_rel
            .get(&rel)
            .map_or(&[], |c| c.ids.as_slice())
    }

    /// The shard-local constant-pushdown posting list: ids of the tuples
    /// of `rel` owned by `shard` whose column `col` holds `value`,
    /// ascending — exactly the ownership filter of
    /// [`ProbDb::tuples_with`], resolved without touching the global
    /// index.
    ///
    /// # Panics
    /// If the layout is monolithic or `shard` is out of range.
    pub fn shard_tuples_with(
        &self,
        shard: usize,
        rel: RelId,
        col: usize,
        value: Value,
    ) -> &[TupleId] {
        self.resident[shard]
            .cols
            .get(&(rel, col as u32, value))
            .map_or(&[], |v| v.as_slice())
    }

    /// The resident columnar rows of `rel` owned by `shard`, if the shard
    /// holds any.
    ///
    /// # Panics
    /// If the layout is monolithic or `shard` is out of range.
    pub fn shard_resident(&self, shard: usize, rel: RelId) -> Option<&ShardColumn> {
        self.resident[shard].by_rel.get(&rel)
    }

    /// Look up a tuple id by content.
    pub fn find(&self, rel: RelId, args: &[Value]) -> Option<TupleId> {
        self.lookup(rel, args)
    }

    /// Marginal probability of a (possibly absent) tuple.
    pub fn prob_of(&self, rel: RelId, args: &[Value]) -> f64 {
        self.find(rel, args).map_or(0.0, |id| self.prob(id))
    }

    /// The active domain: every value occurring in some possible (live)
    /// tuple — tombstones left by deletions do not contribute.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.tuples
            .iter()
            .zip(&self.dead)
            .filter(|(_, &dead)| !dead)
            .flat_map(|(t, _)| t.args.iter().copied())
            .collect()
    }

    /// Active domain extended with the constants of a query — the range the
    /// paper's recurrences iterate over (`Π_{a∈A}` in Eq. 3).
    pub fn eval_domain(&self, q: &Query) -> BTreeSet<Value> {
        let mut dom = self.active_domain();
        dom.extend(q.constants());
        dom
    }

    /// An owned copy of the probability column ([`ProbDb::probs`]), for
    /// callers that need a `Vec` to keep or modify. Evaluating against
    /// the database itself needs no copy: borrow `probs()`.
    pub fn prob_vector(&self) -> Vec<f64> {
        self.probs.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ProbDb, RelId) {
        let mut voc = Vocabulary::new();
        let r = voc.relation("R", 2).unwrap();
        (ProbDb::new(voc), r)
    }

    /// The probability-column invariant: one entry per tuple slot,
    /// tombstones at 0.0, `prob` / `prob_vector` reading the same bits.
    fn assert_prob_column(db: &ProbDb) {
        let probs = db.probs();
        assert_eq!(probs.len(), db.num_tuples());
        for (i, &p) in probs.iter().enumerate() {
            let id = TupleId(i as u32);
            assert_eq!(db.prob(id).to_bits(), p.to_bits());
            if !db.is_live(id) {
                assert_eq!(p.to_bits(), 0.0f64.to_bits(), "tombstone {i} reads 0.0");
            }
        }
        let owned: Vec<u64> = db.prob_vector().iter().map(|p| p.to_bits()).collect();
        let borrowed: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
        assert_eq!(owned, borrowed);
    }

    /// Every mutation kind writes the column through the shared kernels:
    /// fresh inserts push, overwrites replace, deletes zero, re-inserted
    /// content gets a fresh slot, and clone / replay / re-layout carry the
    /// column bit for bit.
    #[test]
    fn probability_column_tracks_every_mutation() {
        use crate::delta::DeltaBatch;
        let (mut db, r) = setup();
        let t = |a: u64, b: u64| vec![Value(a), Value(b)];
        let mut b1 = DeltaBatch::new();
        for i in 0..12u64 {
            b1.insert(r, t(i, i % 4), 0.05 * (i + 1) as f64);
        }
        db.apply(&b1); // fresh inserts
        assert_prob_column(&db);
        assert_eq!(db.prob(TupleId(3)), 0.2);
        let behind = db.clone();
        assert_prob_column(&behind);

        let mut b2 = DeltaBatch::new();
        b2.update(r, t(0, 0), 0.05) // same probability
            .insert(r, t(1, 1), 0.75) // overwrite, different probability
            .delete(r, t(2, 2));
        db.apply(&b2);
        assert_prob_column(&db);
        assert_eq!(db.prob(TupleId(0)), 0.05);
        assert_eq!(db.prob(TupleId(1)), 0.75);
        assert_eq!(db.prob(TupleId(2)), 0.0);

        let mut b3 = DeltaBatch::new();
        b3.insert(r, t(2, 2), 0.6); // delete-then-reinsert: fresh slot
        db.apply(&b3);
        assert_prob_column(&db);
        let reborn = db.find(r, &t(2, 2)).expect("re-inserted");
        assert_eq!(reborn, TupleId(12));
        assert_eq!(db.prob(reborn), 0.6);
        assert_eq!(db.prob(TupleId(2)), 0.0, "old slot stays a tombstone");

        // Replay carries the column; so does a clone.
        let mut caught_up = behind;
        assert!(caught_up.replay_from(&db));
        assert_prob_column(&caught_up);
        assert_eq!(caught_up.probs(), db.probs());
        assert_eq!(db.clone().probs(), db.probs());

        // Out-of-band mutations, then re-layout 1 → 3 → 1 with writes in
        // between.
        db.insert(r, t(20, 0), 0.9);
        db.delete(r, &t(5, 1));
        assert_prob_column(&db);
        db.set_shard_layout(3);
        assert_prob_column(&db);
        let mut b4 = DeltaBatch::new();
        b4.update(r, t(6, 2), 0.45)
            .delete(r, t(7, 3))
            .insert(r, t(7, 3), 0.35)
            .insert(r, t(30, 1), 0.15);
        db.apply(&b4);
        db.insert(r, t(31, 2), 0.55);
        assert_prob_column(&db);
        let expect = db.prob_vector();
        db.set_shard_layout(1);
        assert_prob_column(&db);
        assert_eq!(db.probs(), expect.as_slice());
        assert_eq!(db.probs().len(), 17);
    }

    #[test]
    fn insert_and_lookup() {
        let (mut db, r) = setup();
        let id = db.insert(r, vec![Value(1), Value(2)], 0.5);
        assert_eq!(db.find(r, &[Value(1), Value(2)]), Some(id));
        assert_eq!(db.prob_of(r, &[Value(1), Value(2)]), 0.5);
        assert_eq!(db.prob_of(r, &[Value(2), Value(1)]), 0.0);
        assert_eq!(db.num_tuples(), 1);
    }

    #[test]
    fn reinsert_overwrites_probability() {
        let (mut db, r) = setup();
        let id1 = db.insert(r, vec![Value(1), Value(2)], 0.5);
        let id2 = db.insert(r, vec![Value(1), Value(2)], 0.9);
        assert_eq!(id1, id2);
        assert_eq!(db.num_tuples(), 1);
        assert_eq!(db.prob_of(r, &[Value(1), Value(2)]), 0.9);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let (mut db, r) = setup();
        db.insert(r, vec![Value(1)], 0.5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn probability_range_checked() {
        let (mut db, r) = setup();
        db.insert(r, vec![Value(1), Value(2)], 1.5);
    }

    #[test]
    fn active_domain_collects_values() {
        let (mut db, r) = setup();
        db.insert(r, vec![Value(1), Value(2)], 0.5);
        db.insert(r, vec![Value(2), Value(7)], 0.5);
        let dom = db.active_domain();
        assert_eq!(dom, BTreeSet::from([Value(1), Value(2), Value(7)]));
    }

    #[test]
    fn column_posting_lists_ascend_and_track_inserts() {
        let (mut db, r) = setup();
        let a = db.insert(r, vec![Value(1), Value(9)], 0.5);
        let b = db.insert(r, vec![Value(2), Value(9)], 0.5);
        let c = db.insert(r, vec![Value(1), Value(7)], 0.5);
        assert_eq!(db.tuples_with(r, 0, Value(1)), &[a, c]);
        assert_eq!(db.tuples_with(r, 1, Value(9)), &[a, b]);
        assert_eq!(db.tuples_with(r, 1, Value(7)), &[c]);
        assert_eq!(db.tuples_with(r, 0, Value(42)), &[] as &[TupleId]);
        // Overwrites change probabilities, not posting lists.
        db.insert(r, vec![Value(1), Value(9)], 0.9);
        assert_eq!(db.tuples_with(r, 0, Value(1)), &[a, c]);
        assert_eq!(db.prob_of(r, &[Value(1), Value(9)]), 0.9);
    }

    #[test]
    fn hash_keyed_content_index_distinguishes_relations() {
        let (mut db, r) = setup();
        let mut voc2 = db.voc.clone();
        let s = voc2.relation("S", 2).unwrap();
        db.voc = voc2;
        let a = db.insert(r, vec![Value(1), Value(2)], 0.25);
        let b = db.insert(s, vec![Value(1), Value(2)], 0.75);
        assert_ne!(a, b);
        assert_eq!(db.find(r, &[Value(1), Value(2)]), Some(a));
        assert_eq!(db.find(s, &[Value(1), Value(2)]), Some(b));
        assert_eq!(db.find(s, &[Value(2), Value(1)]), None);
    }

    #[test]
    fn delete_tombstones_and_unindexes() {
        let (mut db, r) = setup();
        let a = db.insert(r, vec![Value(1), Value(9)], 0.5);
        let b = db.insert(r, vec![Value(2), Value(9)], 0.25);
        assert_eq!(db.delete(r, &[Value(1), Value(9)]), Some(a));
        // Content lookups, posting lists, and the relation list all forget
        // the tuple; the slot stays (ids never shift) with probability 0.
        assert_eq!(db.find(r, &[Value(1), Value(9)]), None);
        assert_eq!(db.prob_of(r, &[Value(1), Value(9)]), 0.0);
        assert_eq!(db.tuples_of(r), &[b]);
        assert_eq!(db.tuples_with(r, 1, Value(9)), &[b]);
        assert_eq!(db.tuples_with(r, 0, Value(1)), &[] as &[TupleId]);
        assert_eq!(db.num_tuples(), 2, "slot retained");
        assert!(!db.is_live(a));
        assert!(db.is_live(b));
        assert_eq!(db.prob(a), 0.0, "tombstone carries no mass");
        assert_eq!(db.active_domain(), BTreeSet::from([Value(2), Value(9)]));
        // Deleting an absent tuple is a no-op.
        assert_eq!(db.delete(r, &[Value(1), Value(9)]), None);
        // Re-inserting the same content allocates a fresh id.
        let c = db.insert(r, vec![Value(1), Value(9)], 0.75);
        assert_ne!(c, a);
        assert_eq!(db.tuples_of(r), &[b, c]);
        assert_eq!(db.tuples_with(r, 1, Value(9)), &[b, c]);
    }

    /// The satellite invariant: interleaved inserts, deletes, and updates
    /// keep every `(column, value)` posting list equal to a filtered full
    /// scan — ascending ids, live tuples only, exact column matches.
    #[test]
    fn posting_lists_survive_interleaved_mutations() {
        let (mut db, r) = setup();
        use crate::delta::DeltaBatch;
        let mut batch = DeltaBatch::new();
        for i in 0..20u64 {
            batch.insert(r, vec![Value(i % 4), Value(i % 3)], 0.5);
        }
        db.apply(&batch);
        let mut b2 = DeltaBatch::new();
        b2.delete(r, vec![Value(1), Value(1)])
            .update(r, vec![Value(2), Value(2)], 0.9)
            .insert(r, vec![Value(1), Value(1)], 0.3) // resurrect content
            .delete(r, vec![Value(0), Value(0)])
            .insert(r, vec![Value(9), Value(0)], 0.4);
        db.apply(&b2);
        // Oracle: filter the full relation list per (column, value).
        for col in 0..2usize {
            for v in 0..10u64 {
                let want: Vec<TupleId> = db
                    .tuples_of(r)
                    .iter()
                    .copied()
                    .filter(|&id| db.tuple(id).args[col] == Value(v))
                    .collect();
                assert_eq!(
                    db.tuples_with(r, col, Value(v)),
                    want.as_slice(),
                    "col {col} value {v}"
                );
                assert!(
                    want.windows(2).all(|w| w[0] < w[1]),
                    "ascending col {col} value {v}"
                );
            }
        }
        for &id in db.tuples_of(r) {
            assert!(db.is_live(id));
        }
    }

    /// The shard-resident oracle: for every shard, the per-shard posting
    /// lists and relation lists must equal the ownership-filtered global
    /// lists and stay ascending, and the resident columnar buffers must
    /// mirror tuple storage (stride invariant included) — under bulk
    /// load, delta splice, tombstoning, and probability overwrites.
    #[test]
    fn shard_resident_storage_matches_filtered_global_indexes() {
        use crate::delta::DeltaBatch;
        for shards in [2usize, 3, 7] {
            let (mut db, r) = setup();
            let mut batch = DeltaBatch::new();
            for i in 0..40u64 {
                batch.insert(r, vec![Value(i % 5), Value(i % 3)], 0.5);
            }
            db.apply(&batch);
            db.set_shard_layout(shards);
            assert_eq!(db.shard_layout(), shards);
            let check = |db: &ProbDb| {
                let map = db.shard_map_for(shards);
                for s in 0..shards {
                    let want: Vec<TupleId> = db
                        .tuples_of(r)
                        .iter()
                        .copied()
                        .filter(|&id| map.shard_of(id) == s)
                        .collect();
                    assert_eq!(db.shard_tuples_of(s, r), want.as_slice(), "shard {s}");
                    for col in 0..2usize {
                        for v in 0..10u64 {
                            let want: Vec<TupleId> = db
                                .tuples_with(r, col, Value(v))
                                .iter()
                                .copied()
                                .filter(|&id| map.shard_of(id) == s)
                                .collect();
                            let got = db.shard_tuples_with(s, r, col, Value(v));
                            assert_eq!(got, want.as_slice(), "shard {s} col {col} v {v}");
                            assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending");
                        }
                    }
                    if let Some(colrel) = db.shard_resident(s, r) {
                        assert_eq!(colrel.data.len(), colrel.ids.len() * 2, "stride");
                        for (i, &id) in colrel.ids.iter().enumerate() {
                            let args = db.tuple(id).args.as_slice();
                            assert_eq!(&colrel.data[i * 2..(i + 1) * 2], args);
                        }
                    }
                }
                assert_prob_column(db);
            };
            check(&db);
            // Delta splice/tombstone + overwrite, then re-check the oracle.
            let mut b2 = DeltaBatch::new();
            b2.delete(r, vec![Value(1), Value(1)])
                .update(r, vec![Value(2), Value(2)], 0.9)
                .insert(r, vec![Value(1), Value(1)], 0.3)
                .delete(r, vec![Value(0), Value(0)])
                .insert(r, vec![Value(9), Value(0)], 0.4);
            db.apply(&b2);
            check(&db);
            // Out-of-band mutations maintain the resident layout too.
            db.insert(r, vec![Value(8), Value(8)], 0.6);
            db.delete(r, &[Value(2), Value(2)]);
            check(&db);
        }
    }

    /// Per-shard version stamps: the layout build stamps every shard at
    /// the current version; a mutation re-stamps only the owning shard, so
    /// shard-local readers can skip untouched shards.
    #[test]
    fn shard_versions_stamp_only_touched_shards() {
        use crate::delta::DeltaBatch;
        let (mut db, r) = setup();
        let mut batch = DeltaBatch::new();
        for i in 0..32u64 {
            batch.insert(r, vec![Value(i), Value(i)], 0.5);
        }
        db.apply(&batch);
        db.set_shard_layout(4);
        let v0 = db.version();
        for s in 0..4 {
            assert_eq!(db.shard_version(s), v0);
        }
        // Update one existing tuple: exactly its owner re-stamps.
        let id = db.find(r, &[Value(3), Value(3)]).expect("present");
        let owner = db.shard_map_for(4).shard_of(id);
        let mut b2 = DeltaBatch::new();
        b2.update(r, vec![Value(3), Value(3)], 0.25);
        let v1 = db.apply(&b2);
        for s in 0..4 {
            let want = if s == owner { v1 } else { v0 };
            assert_eq!(db.shard_version(s), want, "shard {s}");
        }
        // An identical-probability overwrite changes nothing, stamps
        // nothing.
        let mut b3 = DeltaBatch::new();
        b3.update(r, vec![Value(3), Value(3)], 0.25);
        db.apply(&b3);
        assert_eq!(db.shard_version(owner), v1);
    }

    #[test]
    fn apply_logs_versioned_tuple_changes() {
        use crate::delta::{ChangeKind, DeltaBatch};
        let (mut db, r) = setup();
        assert_eq!(db.version(), 0);
        let mut batch = DeltaBatch::new();
        batch
            .insert(r, vec![Value(1), Value(2)], 0.5)
            .insert(r, vec![Value(3), Value(4)], 0.25);
        assert_eq!(db.apply(&batch), 1);
        let mut b2 = DeltaBatch::new();
        b2.update(r, vec![Value(1), Value(2)], 0.75)
            .delete(r, vec![Value(3), Value(4)])
            .delete(r, vec![Value(9), Value(9)]) // absent: dropped
            .update(r, vec![Value(5), Value(6)], 0.1); // absent: upsert
        assert_eq!(db.apply(&b2), 2);
        assert_eq!(db.version(), 2);
        assert_eq!(db.delta_log_start(), 0);
        let logged: Vec<_> = db.changes_since(1).collect();
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].version, 2);
        let kinds: Vec<ChangeKind> = logged[0].changes.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ChangeKind::Updated {
                    old_prob: 0.5,
                    new_prob: 0.75
                },
                ChangeKind::Deleted { old_prob: 0.25 },
                ChangeKind::Inserted,
            ]
        );
        assert_eq!(db.changes_since(0).count(), 2);
        // An identical-probability overwrite is not a change.
        let mut b3 = DeltaBatch::new();
        b3.update(r, vec![Value(1), Value(2)], 0.75);
        db.apply(&b3);
        assert!(db.changes_since(2).next().unwrap().changes.is_empty());
    }

    #[test]
    fn out_of_band_mutation_invalidates_the_log() {
        use crate::delta::DeltaBatch;
        let (mut db, r) = setup();
        let mut batch = DeltaBatch::new();
        batch.insert(r, vec![Value(1), Value(2)], 0.5);
        db.apply(&batch);
        assert_eq!(db.changes_since(0).count(), 1);
        db.insert(r, vec![Value(3), Value(4)], 0.5);
        assert_eq!(db.version(), 2);
        assert_eq!(db.delta_log_start(), 2, "log can no longer replay");
        assert_eq!(db.changes_since(0).count(), 0);
    }

    #[test]
    fn by_rel_index() {
        let (mut db, r) = setup();
        let mut voc2 = db.voc.clone();
        let s = voc2.relation("S", 1).unwrap();
        db.voc = voc2;
        db.insert(r, vec![Value(1), Value(2)], 0.5);
        db.insert(s, vec![Value(3)], 0.5);
        db.insert(r, vec![Value(4), Value(5)], 0.5);
        assert_eq!(db.tuples_of(r).len(), 2);
        assert_eq!(db.tuples_of(s).len(), 1);
    }
}
