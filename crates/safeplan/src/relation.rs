//! Probabilistic relations: the values flowing between plan operators.
//!
//! # Columnar flat-buffer layout
//!
//! A [`ProbRelation`] stores its rows in **one contiguous buffer** with a
//! fixed stride, plus a parallel probability column:
//!
//! ```text
//! cols : [x, y]                      arity (stride) = 2
//! data : [x0 y0 | x1 y1 | x2 y2]     len = rows · arity
//! probs: [p0,     p1,     p2    ]    len = rows
//! ```
//!
//! Invariants every operator kernel relies on (and must preserve):
//!
//! * **Stride** — `data.len() == probs.len() * arity` with
//!   `arity == cols.len()`; row `i` occupies
//!   `data[i*arity .. (i+1)*arity]` and never straddles that boundary.
//!   A Boolean relation has `arity == 0`, an empty `data`, and 0 or 1
//!   entries in `probs`.
//! * **Alignment** — operators append *whole rows* (`push` /
//!   `extend_from_slice` of `arity` values plus one probability); a
//!   half-written row is never observable. Morsel-parallel kernels
//!   partition the **row index space**; the element range of a morsel is
//!   `rows.start*arity .. rows.end*arity`, so chunk concatenation in
//!   morsel order reproduces a serial left-to-right pass bit for bit.
//! * **Order is meaning** — row order is the executor's output order at
//!   every thread count. Joins emit probe-major/build-insertion-order rows *regardless
//!   of which side was hashed* (see `choose_build_side`), and grouping
//!   emits groups in first-seen row order folding each group's rows in row
//!   order, so `f64` results are bit-identical across executors and thread
//!   counts.
//!
//! Scans, joins, projections, and filters touch **no per-row heap
//! allocations**: values are copied slice-to-slice into the flat buffer,
//! and grouping keys are packed into `u64`/`u128` machine words for arity
//! ≤ 2 (`Grouper`) with a hashed fallback (with explicit collision
//! chains) above that. The pre-columnar row executor is kept as a test
//! oracle (`tests/common/rowref.rs`).

use cq::{Value, Var};
use lineage::ProbValue;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// A relation whose rows carry marginal probabilities of *mutually
/// independent* events. Operator correctness (product for joins,
/// `1 − Π(1−p)` for projections) relies on the independence discipline the
/// plan compiler enforces: rows of one relation pin disjoint tuple sets, and
/// joined relations touch disjoint relation symbols.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbRelation<P> {
    /// Column schema: the query variables each position binds.
    cols: Vec<Var>,
    /// Row stride: `cols.len()`, cached.
    arity: usize,
    /// The flat value buffer: `rows · arity` values, row-major.
    data: Vec<Value>,
    /// The probability column: one entry per row.
    probs: Vec<P>,
}

impl<P: ProbValue> ProbRelation<P> {
    pub fn new(cols: Vec<Var>) -> Self {
        let arity = cols.len();
        ProbRelation {
            cols,
            arity,
            data: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// An empty relation with buffer space for `rows` rows.
    pub fn with_capacity(cols: Vec<Var>, rows: usize) -> Self {
        let arity = cols.len();
        ProbRelation {
            cols,
            arity,
            data: Vec::with_capacity(rows * arity),
            probs: Vec::with_capacity(rows),
        }
    }

    /// Assemble a relation from already-built columnar buffers.
    ///
    /// # Panics
    /// If the stride invariant `data.len() == probs.len() * cols.len()`
    /// does not hold.
    pub fn from_parts(cols: Vec<Var>, data: Vec<Value>, probs: Vec<P>) -> Self {
        let arity = cols.len();
        assert_eq!(data.len(), probs.len() * arity, "stride invariant");
        ProbRelation {
            cols,
            arity,
            data,
            probs,
        }
    }

    /// The zero-column, one-row relation of probability 1 — the unit of
    /// independent join; a Boolean "true" scalar.
    pub fn certain() -> Self {
        ProbRelation {
            cols: Vec::new(),
            arity: 0,
            data: Vec::new(),
            probs: vec![P::one()],
        }
    }

    /// The zero-column, zero-row relation — a Boolean "false" scalar.
    pub fn never() -> Self {
        ProbRelation {
            cols: Vec::new(),
            arity: 0,
            data: Vec::new(),
            probs: Vec::new(),
        }
    }

    pub fn cols(&self) -> &[Var] {
        &self.cols
    }

    /// Row stride (number of columns).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The values of row `i` (an `arity`-long slice of the flat buffer).
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// The probability of row `i`.
    #[inline]
    pub fn prob(&self, i: usize) -> &P {
        &self.probs[i]
    }

    /// The whole flat value buffer (row-major, stride [`Self::arity`]).
    pub fn values(&self) -> &[Value] {
        &self.data
    }

    /// The whole probability column.
    pub fn probs(&self) -> &[P] {
        &self.probs
    }

    /// Append one row (copies `row` into the flat buffer — no per-row
    /// allocation).
    ///
    /// # Panics
    /// If `row.len() != self.arity()`.
    #[inline]
    pub fn push(&mut self, row: &[Value], p: P) {
        debug_assert_eq!(row.len(), self.arity, "row stride");
        self.data.extend_from_slice(row);
        self.probs.push(p);
    }

    /// Iterate `(row values, probability)` pairs in row order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &P)> {
        (0..self.len()).map(|i| (self.row(i), self.prob(i)))
    }

    /// Position of variable `v` in the schema.
    pub fn col_index(&self, v: Var) -> Option<usize> {
        self.cols.iter().position(|&c| c == v)
    }

    /// For a Boolean (zero-column) relation: the scalar probability.
    ///
    /// # Panics
    /// If the relation has columns or more than one row.
    pub fn scalar(&self) -> P {
        assert!(self.cols.is_empty(), "scalar() on non-Boolean relation");
        match self.probs.len() {
            0 => P::zero(),
            1 => self.probs[0].clone(),
            n => panic!("Boolean relation with {n} rows"),
        }
    }

    /// Independent project: keep columns `keep`, combining collapsing rows
    /// with `1 − Π (1 − p)`. Correct when rows mapping to the same group are
    /// independent events (distinct values of the projected-away root
    /// variable pin disjoint tuples). Groups are interned through the
    /// packed-key `Grouper`; emission order is first-seen row order and
    /// each group folds its rows in row order (the serial multiplication
    /// order).
    ///
    /// # Panics
    /// If some column in `keep` is not in the schema.
    pub fn independent_project(&self, keep: &[Var]) -> ProbRelation<P> {
        let key_idx: Vec<usize> = keep
            .iter()
            .map(|&v| self.col_index(v).expect("projection column missing"))
            .collect();
        let fold = group_fold_rows(self, &key_idx, 0..self.len() as u32);
        let mut out = ProbRelation::with_capacity(keep.to_vec(), fold.grouper.len());
        for s in 0..fold.grouper.len() {
            out.push(fold.grouper.key(s), fold.none[s].complement());
        }
        out
    }
}

/// The filter kernel over a row range: copies matching rows slice-to-slice
/// into fresh columnar buffers — `dag`'s select, with a
/// [`CompiledPred`](crate::CompiledPred), per morsel.
pub(crate) fn filter_rows<P: ProbValue>(
    rel: &ProbRelation<P>,
    rows: Range<usize>,
    pred: impl Fn(&[Value]) -> bool,
) -> (Vec<Value>, Vec<P>) {
    let mut data = Vec::new();
    let mut probs = Vec::new();
    for i in rows {
        let row = rel.row(i);
        if pred(row) {
            data.extend_from_slice(row);
            probs.push(rel.prob(i).clone());
        }
    }
    (data, probs)
}

/// Concatenate columnar morsel outputs in morsel order. Because every chunk
/// holds whole rows (the alignment invariant), plain concatenation of the
/// value buffers and probability columns reproduces the serial output.
pub(crate) fn stitch_columnar<P>(chunks: Vec<(Vec<Value>, Vec<P>)>) -> (Vec<Value>, Vec<P>) {
    let (data, probs): (Vec<_>, Vec<_>) = chunks.into_iter().unzip();
    (stitch(data), stitch(probs))
}

/// Concatenate morsel outputs in morsel order; a lone chunk (every
/// one-worker dispatch) is the output as it stands.
pub(crate) fn stitch<T>(mut chunks: Vec<Vec<T>>) -> Vec<T> {
    if chunks.len() == 1 {
        return chunks.pop().expect("one chunk");
    }
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for c in chunks {
        out.extend(c);
    }
    out
}

// ---------------------------------------------------------------------------
// Packed-key grouping
// ---------------------------------------------------------------------------

/// FNV-1a over raw bytes — the workspace builds offline, so the
/// [`Grouper`]'s `HashMap`s swap SipHash for this cheap deterministic
/// hasher (keys are machine-word packs of trusted in-process values, not
/// attacker input).
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // Final avalanche: FNV distributes low bits poorly for small
        // integer keys; xor-fold the high bits down.
        let h = self.0;
        h ^ (h >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Pack an arity-≤2 key into one machine word ([`Value`] is a `u64`
/// newtype, so the packing is **exact** — distinct keys map to distinct
/// words, no collision handling needed).
#[inline]
fn pack1(key: &[Value]) -> u64 {
    key[0].0
}

#[inline]
fn pack2(key: &[Value]) -> u128 {
    (u128::from(key[0].0) << 64) | u128::from(key[1].0)
}

/// Key hash for the arity ≥ 3 fallback and for hash-partitioning rows
/// across workers (FNV-1a over the key values plus a mixing shift). Only
/// ever used to spread keys over buckets/partitions; never reaches results.
#[inline]
pub(crate) fn hash_values(vals: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        h ^= v.0;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Gather the `idx` columns of `row` into `key` (`key.len() == idx.len()`)
/// — the one key builder of every grouping, index build and probe loop.
#[inline]
pub fn gather_key(row: &[Value], idx: &[usize], key: &mut [Value]) {
    for (k, &i) in key.iter_mut().zip(idx) {
        *k = row[i];
    }
}

/// Interns group keys to dense slot ids in first-seen order, with the key
/// representation picked by arity:
///
/// * arity 0 — the single unit key, slot 0;
/// * arity 1 — the value itself as a `u64` map key (exact);
/// * arity 2 — both values packed into a `u128` map key (exact);
/// * arity ≥ 3 — a 64-bit key hash with **explicit collision chains**:
///   each hash bucket holds the slots of every distinct key that hashed to
///   it, and a probe compares the candidate's stored key values before
///   trusting the match.
///
/// Slot ids are assigned 0, 1, 2, … in first-seen order, so iterating
/// slots reproduces the first-seen group order of a whole-input fold.
pub struct Grouper {
    arity: usize,
    /// Flat interned keys, stride `arity`: slot `s` owns
    /// `keys[s*arity .. (s+1)*arity]`.
    keys: Vec<Value>,
    slots: usize,
    map1: FnvMap<u64, u32>,
    map2: FnvMap<u128, u32>,
    /// arity ≥ 3: key hash → slots of the distinct keys behind that hash.
    maph: FnvMap<u64, Vec<u32>>,
    /// Mask applied to fallback hashes. `!0` in production; tests set `0`
    /// to funnel every key into one bucket and exercise the chains.
    hash_mask: u64,
}

impl Grouper {
    /// An empty grouper for keys of `arity` values.
    pub fn new(arity: usize) -> Self {
        Grouper {
            arity,
            keys: Vec::new(),
            slots: 0,
            map1: FnvMap::default(),
            map2: FnvMap::default(),
            maph: FnvMap::default(),
            hash_mask: !0,
        }
    }

    /// A grouper whose fallback hash is constant — every arity ≥ 3 key
    /// collides, forcing every probe through the collision chains.
    #[cfg(test)]
    pub fn with_constant_hash(arity: usize) -> Self {
        let mut g = Grouper::new(arity);
        g.hash_mask = 0;
        g
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.slots
    }

    pub fn is_empty(&self) -> bool {
        self.slots == 0
    }

    /// The interned key of `slot`.
    pub fn key(&self, slot: usize) -> &[Value] {
        &self.keys[slot * self.arity..(slot + 1) * self.arity]
    }

    #[inline]
    fn key_eq(&self, slot: u32, key: &[Value]) -> bool {
        self.key(slot as usize) == key
    }

    /// Slot of `key`, interning it if unseen; the flag is `true` for a
    /// fresh slot.
    pub fn intern(&mut self, key: &[Value]) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.arity);
        let next = self.slots as u32;
        let slot = match self.arity {
            0 => {
                if self.slots == 0 {
                    self.slots = 1;
                    return (0, true);
                }
                return (0, false);
            }
            1 => *self.map1.entry(pack1(key)).or_insert(next),
            2 => *self.map2.entry(pack2(key)).or_insert(next),
            _ => {
                let h = self.hashed(key);
                let chain = self.maph.entry(h).or_default();
                match chain.iter().find(|&&s| {
                    // Inlined key_eq: `chain` borrows self.maph mutably.
                    &self.keys[s as usize * key.len()..(s as usize + 1) * key.len()] == key
                }) {
                    Some(&s) => s,
                    None => {
                        chain.push(next);
                        next
                    }
                }
            }
        };
        if slot == next {
            self.keys.extend_from_slice(key);
            self.slots += 1;
            (slot as usize, true)
        } else {
            (slot as usize, false)
        }
    }

    /// Slot of `key` without interning.
    pub fn get(&self, key: &[Value]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.arity);
        let slot = match self.arity {
            0 => {
                return if self.slots == 1 { Some(0) } else { None };
            }
            1 => self.map1.get(&pack1(key)).copied(),
            2 => self.map2.get(&pack2(key)).copied(),
            _ => {
                let h = self.hashed(key);
                self.maph
                    .get(&h)
                    .and_then(|chain| chain.iter().find(|&&s| self.key_eq(s, key)))
                    .copied()
            }
        };
        slot.map(|s| s as usize)
    }

    #[inline]
    fn hashed(&self, key: &[Value]) -> u64 {
        hash_values(key) & self.hash_mask
    }
}

/// One group-by pass over a set of rows: the interned groups, the running
/// `Π(1−p)` per group (folded in visit order), and the first row index
/// that opened each group (the partition-merge sort key of the parallel
/// aggregation).
pub(crate) struct GroupFold<P> {
    pub grouper: Grouper,
    pub none: Vec<P>,
    pub first_row: Vec<u32>,
}

/// Fold `Π(1−p)` per group over an ascending row-id sequence with
/// [`ProbValue::fold_complement`] — the whole input (visit order = row
/// order, the serial multiplication order), or one partition of the
/// parallel aggregation (each partition owns whole groups, so visiting its
/// rows in ascending order preserves the serial fold order within every
/// group).
pub(crate) fn group_fold_rows<P: ProbValue>(
    rel: &ProbRelation<P>,
    key_idx: &[usize],
    rows: impl Iterator<Item = u32>,
) -> GroupFold<P> {
    let mut grouper = Grouper::new(key_idx.len());
    let mut none: Vec<P> = Vec::new();
    let mut first_row: Vec<u32> = Vec::new();
    let mut keybuf = vec![Value(0); key_idx.len()];
    for i in rows {
        gather_key(rel.row(i as usize), key_idx, &mut keybuf);
        let (s, new) = grouper.intern(&keybuf);
        if new {
            none.push(rel.prob(i as usize).complement());
            first_row.push(i);
        } else {
            none[s].fold_complement(rel.prob(i as usize));
        }
    }
    GroupFold {
        grouper,
        none,
        first_row,
    }
}

// ---------------------------------------------------------------------------
// Join machinery
// ---------------------------------------------------------------------------

/// Column bookkeeping of a natural join, shared by every probe morsel,
/// both build sides and the incremental join stages, so they produce
/// identical schemas and row layouts.
pub struct JoinSpec {
    /// Key positions of the join columns in the left side.
    pub left_key: Vec<usize>,
    /// Key positions of the join columns in the right side.
    pub other_key: Vec<usize>,
    /// Right-side columns that are not join columns, in schema order.
    pub other_extra: Vec<usize>,
    /// Output schema: left columns, then the right extras.
    pub out_cols: Vec<Var>,
}

/// The [`JoinSpec`] of `left ⋈ right` on their common columns.
pub fn join_spec(left: &[Var], right: &[Var]) -> JoinSpec {
    let common: Vec<Var> = left.iter().copied().filter(|c| right.contains(c)).collect();
    let left_key: Vec<usize> = common
        .iter()
        .map(|c| left.iter().position(|l| l == c).unwrap())
        .collect();
    let other_key: Vec<usize> = common
        .iter()
        .map(|c| right.iter().position(|r| r == c).unwrap())
        .collect();
    let other_extra: Vec<usize> = (0..right.len())
        .filter(|&i| !common.contains(&right[i]))
        .collect();
    let mut out_cols = left.to_vec();
    out_cols.extend(other_extra.iter().map(|&i| right[i]));
    JoinSpec {
        left_key,
        other_key,
        other_extra,
        out_cols,
    }
}

/// Which input a join hashes. The **smaller** side becomes the build side;
/// ties keep the right (the legacy choice). The decision is a pure function
/// of the two materialized row counts, and the emitted rows are identical
/// either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BuildSide {
    Left,
    Right,
}

pub(crate) fn choose_build_side(left_len: usize, right_len: usize) -> BuildSide {
    if left_len < right_len {
        BuildSide::Left
    } else {
        BuildSide::Right
    }
}

/// Build-side hash index: packed-key [`Grouper`] plus, per key slot, the
/// build rows holding that key in insertion (ascending row) order.
pub(crate) struct JoinIndex {
    grouper: Grouper,
    postings: Vec<Vec<u32>>,
}

impl JoinIndex {
    pub fn build<P: ProbValue>(rel: &ProbRelation<P>, key_idx: &[usize]) -> Self {
        let mut grouper = Grouper::new(key_idx.len());
        let mut postings: Vec<Vec<u32>> = Vec::new();
        let mut keybuf = vec![Value(0); key_idx.len()];
        for i in 0..rel.len() {
            gather_key(rel.row(i), key_idx, &mut keybuf);
            let (s, new) = grouper.intern(&keybuf);
            if new {
                postings.push(Vec::new());
            }
            postings[s].push(i as u32);
        }
        JoinIndex { grouper, postings }
    }

    /// Build rows whose key equals `key`, in insertion order.
    #[inline]
    pub fn matches(&self, key: &[Value]) -> Option<&[u32]> {
        self.grouper.get(key).map(|s| self.postings[s].as_slice())
    }
}

/// Probe-and-emit kernel for a **right-side** build: stream `left` rows in
/// `range` against the index, emitting output rows straight into columnar
/// buffers (left values, then right extras; probability product). This is
/// the join's exact output for that probe range, so chunks stitched in
/// morsel order agree bit for bit with a whole-range probe.
pub(crate) fn probe_emit<P: ProbValue>(
    spec: &JoinSpec,
    left: &ProbRelation<P>,
    right: &ProbRelation<P>,
    index: &JoinIndex,
    range: Range<usize>,
) -> (Vec<Value>, Vec<P>) {
    let mut data = Vec::new();
    let mut probs = Vec::new();
    let mut keybuf = vec![Value(0); spec.left_key.len()];
    for i in range {
        let row = left.row(i);
        gather_key(row, &spec.left_key, &mut keybuf);
        let Some(matches) = index.matches(&keybuf) else {
            continue;
        };
        let p = left.prob(i);
        for &j in matches {
            let orow = right.row(j as usize);
            data.extend_from_slice(row);
            for &e in &spec.other_extra {
                data.push(orow[e]);
            }
            probs.push(p.mul(right.prob(j as usize)));
        }
    }
    (data, probs)
}

/// Probe kernel for a **left-side** build (the left input was smaller):
/// stream `right` rows in `range` against an index over the left, emitting
/// `(left row, right row)` id pairs. Within the range, pairs come out
/// right-ascending; [`pairs_by_left`] then restores the output order.
pub(crate) fn probe_pairs<P: ProbValue>(
    index_on_left: &JoinIndex,
    right: &ProbRelation<P>,
    right_key: &[usize],
    range: Range<usize>,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut keybuf = vec![Value(0); right_key.len()];
    for j in range {
        gather_key(right.row(j), right_key, &mut keybuf);
        if let Some(lefts) = index_on_left.matches(&keybuf) {
            for &i in lefts {
                out.push((i, j as u32));
            }
        }
    }
    out
}

/// Stable counting sort of join pairs by left row id: the result is
/// left-major with right ids ascending per left row — exactly the order a
/// right-side build emits, so build-side selection never changes output.
pub(crate) fn pairs_by_left(pairs: &[(u32, u32)], left_len: usize) -> Vec<(u32, u32)> {
    let mut counts = vec![0u32; left_len + 1];
    for &(i, _) in pairs {
        counts[i as usize + 1] += 1;
    }
    for k in 1..counts.len() {
        counts[k] += counts[k - 1];
    }
    let mut out = vec![(0u32, 0u32); pairs.len()];
    for &(i, j) in pairs {
        let c = &mut counts[i as usize];
        out[*c as usize] = (i, j);
        *c += 1;
    }
    out
}

/// Emission kernel over join id pairs: materialize each `(left, right)`
/// pair into the columnar output (left values, right extras, probability
/// product). A one-worker pool runs it once over all pairs of a
/// build-left join, a wider one per morsel.
pub(crate) fn emit_pairs<P: ProbValue>(
    spec: &JoinSpec,
    left: &ProbRelation<P>,
    right: &ProbRelation<P>,
    pairs: &[(u32, u32)],
) -> (Vec<Value>, Vec<P>) {
    let mut data = Vec::with_capacity(pairs.len() * spec.out_cols.len());
    let mut probs = Vec::with_capacity(pairs.len());
    for &(i, j) in pairs {
        let row = left.row(i as usize);
        let orow = right.row(j as usize);
        data.extend_from_slice(row);
        for &e in &spec.other_extra {
            data.push(orow[e]);
        }
        probs.push(left.prob(i as usize).mul(right.prob(j as usize)));
    }
    (data, probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The executor's join at one thread.
    fn join(l: &ProbRelation<f64>, r: &ProbRelation<f64>) -> ProbRelation<f64> {
        let pool = exec_parallel::Pool::new(1);
        crate::dag::par_join(l, r, &pool, &mut crate::OpCounters::default())
    }

    fn rel(cols: &[u32], rows: &[(&[u64], f64)]) -> ProbRelation<f64> {
        let mut out = ProbRelation::new(cols.iter().map(|&c| Var(c)).collect());
        for (vals, p) in rows {
            let row: Vec<Value> = vals.iter().map(|&v| Value(v)).collect();
            out.push(&row, *p);
        }
        out
    }

    #[test]
    fn scalars() {
        assert_eq!(ProbRelation::<f64>::certain().scalar(), 1.0);
        assert_eq!(ProbRelation::<f64>::never().scalar(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-Boolean")]
    fn scalar_requires_zero_columns() {
        let _ = rel(&[0], &[(&[1], 0.5)]).scalar();
    }

    #[test]
    fn flat_buffer_layout() {
        let r = rel(&[0, 1], &[(&[1, 2], 0.5), (&[3, 4], 0.25)]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.values(), &[Value(1), Value(2), Value(3), Value(4)]);
        assert_eq!(r.row(1), &[Value(3), Value(4)]);
        assert_eq!(*r.prob(1), 0.25);
        let collected: Vec<_> = r.iter().map(|(row, p)| (row.to_vec(), *p)).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].1, 0.5);
    }

    #[test]
    #[should_panic(expected = "stride invariant")]
    fn from_parts_checks_stride() {
        let _ = ProbRelation::from_parts(vec![Var(0), Var(1)], vec![Value(1)], vec![0.5f64]);
    }

    #[test]
    fn join_on_common_column() {
        let r = rel(&[0], &[(&[1], 0.5), (&[2], 0.25)]);
        let s = rel(&[0, 1], &[(&[1, 7], 0.5), (&[1, 8], 0.5), (&[3, 9], 0.5)]);
        let j = join(&r, &s);
        assert_eq!(j.cols(), &[Var(0), Var(1)]);
        assert_eq!(j.len(), 2); // only x = 1 matches
        for (_, p) in j.iter() {
            assert_eq!(*p, 0.25);
        }
    }

    #[test]
    fn join_disjoint_schemas_is_cartesian() {
        let r = rel(&[0], &[(&[1], 0.5)]);
        let s = rel(&[1], &[(&[7], 0.5), (&[8], 0.25)]);
        let j = join(&r, &s);
        assert_eq!(j.len(), 2);
        assert_eq!(j.cols().len(), 2);
    }

    #[test]
    fn join_with_certain_is_identity() {
        let r = rel(&[0], &[(&[1], 0.5), (&[2], 0.25)]);
        let j = join(&ProbRelation::certain(), &r);
        assert_eq!(j.len(), 2);
        let probs: Vec<f64> = j.probs().to_vec();
        assert_eq!(probs, vec![0.5, 0.25]);
    }

    /// Build-side selection must be invisible: a join where the left input
    /// is smaller (build-left path) emits exactly the rows and order the
    /// build-right path would.
    #[test]
    fn build_side_selection_preserves_output_order() {
        // Left (2 rows) smaller than right (5 rows) → build-left path.
        let l = rel(&[0], &[(&[1], 0.5), (&[2], 0.25)]);
        let r = rel(
            &[0, 1],
            &[
                (&[2, 9], 0.5),
                (&[1, 7], 0.5),
                (&[1, 8], 0.25),
                (&[3, 6], 0.5),
                (&[2, 5], 0.125),
            ],
        );
        let j = join(&l, &r);
        // Expected: probe-major over l, per key right rows ascending.
        let spec = join_spec(l.cols(), r.cols());
        let index = JoinIndex::build(&r, &spec.other_key);
        let (data, probs) = probe_emit(&spec, &l, &r, &index, 0..l.len());
        let reference = ProbRelation::from_parts(spec.out_cols, data, probs);
        assert_eq!(j, reference);
        assert_eq!(j.len(), 4);
        assert_eq!(j.row(0), &[Value(1), Value(7)]);
        assert_eq!(j.row(1), &[Value(1), Value(8)]);
        assert_eq!(j.row(2), &[Value(2), Value(9)]);
        assert_eq!(j.row(3), &[Value(2), Value(5)]);
    }

    #[test]
    fn project_combines_independent_rows() {
        let s = rel(&[0, 1], &[(&[1, 7], 0.5), (&[1, 8], 0.5), (&[2, 9], 0.25)]);
        let p = s.independent_project(&[Var(0)]);
        assert_eq!(p.cols(), &[Var(0)]);
        assert_eq!(p.len(), 2);
        let x1 = p.iter().find(|(r, _)| r[0] == Value(1)).unwrap();
        assert!((x1.1 - 0.75).abs() < 1e-12);
        let x2 = p.iter().find(|(r, _)| r[0] == Value(2)).unwrap();
        assert!((x2.1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn project_to_scalar() {
        let s = rel(&[0], &[(&[1], 0.5), (&[2], 0.5)]);
        let p = s.independent_project(&[]);
        assert!((p.scalar() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn project_of_empty_is_never() {
        let s = rel(&[0], &[]);
        assert_eq!(s.independent_project(&[]).scalar(), 0.0);
    }

    /// The project fold's saturation rule changes no bits: `f64` chains
    /// falling through `2⁻⁵⁴`, the subnormals and exact zero emit what an
    /// un-short-circuited fold emits, and `QRat` chains fold exactly.
    #[test]
    fn saturated_folds_emit_the_full_folds_bits() {
        let tail = [0.3, 0.7, 1e-300];
        let chains = [
            [vec![0.5; 54], tail.to_vec()].concat(), // lands on 2⁻⁵⁴ exactly
            [vec![0.5; 53], vec![0.25], tail.to_vec()].concat(), // just above
            vec![0.9; 400],                          // subnormals, then 0
            [vec![1.0], tail.to_vec()].concat(),     // exact 0 at once
            vec![1e-3; 50],                          // never saturates
        ];
        for (g, chain) in chains.iter().enumerate() {
            let full = (1.0 - chain.iter().fold(1.0f64, |none, p| none * (1.0 - p))).to_bits();
            let rel = ProbRelation::from_parts(Vec::new(), Vec::new(), chain.clone());
            assert_eq!(rel.independent_project(&[]).scalar().to_bits(), full, "{g}");
            assert_eq!(f64::independent_or(chain).to_bits(), full, "{g}");
        }
        use numeric::QRat;
        let chain = [vec![QRat::ratio(1, 2); 70], vec![QRat::ratio(1, 3)]].concat();
        let none = QRat::ratio(1, 2).pow(70).mul(&QRat::ratio(2, 3)); // Π(1−p)
        let rel = ProbRelation::from_parts(Vec::new(), Vec::new(), chain);
        assert_eq!(rel.independent_project(&[]).scalar(), none.complement());
    }

    // --- Grouper: packed keys and collision handling at arity 1, 2, 3 ---

    fn v(vals: &[u64]) -> Vec<Value> {
        vals.iter().map(|&x| Value(x)).collect()
    }

    #[test]
    fn grouper_arity0_has_one_slot() {
        let mut g = Grouper::new(0);
        assert_eq!(g.get(&[]), None);
        assert_eq!(g.intern(&[]), (0, true));
        assert_eq!(g.intern(&[]), (0, false));
        assert_eq!(g.get(&[]), Some(0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.key(0), &[] as &[Value]);
    }

    #[test]
    fn grouper_arity1_packs_exactly() {
        let mut g = Grouper::new(1);
        // Values straddling the whole u64 range stay distinct — packing is
        // the identity, never a hash.
        let keys = [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(g.intern(&v(&[k])), (i, true), "key {k}");
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(g.intern(&v(&[k])), (i, false));
            assert_eq!(g.get(&v(&[k])), Some(i));
            assert_eq!(g.key(i), v(&[k]).as_slice());
        }
        assert_eq!(g.get(&v(&[7])), None);
    }

    #[test]
    fn grouper_arity2_packs_exactly() {
        let mut g = Grouper::new(2);
        // (a, b) and (b, a) — and boundary values — must never merge: the
        // u128 pack is position-exact.
        let keys: [(u64, u64); 6] = [
            (1, 2),
            (2, 1),
            (0, u64::MAX),
            (u64::MAX, 0),
            (u64::MAX, u64::MAX),
            (0, 0),
        ];
        for (i, &(a, b)) in keys.iter().enumerate() {
            assert_eq!(g.intern(&v(&[a, b])), (i, true), "key ({a},{b})");
        }
        for (i, &(a, b)) in keys.iter().enumerate() {
            assert_eq!(g.get(&v(&[a, b])), Some(i));
        }
        assert_eq!(g.len(), keys.len());
    }

    #[test]
    fn grouper_arity3_uses_hash_fallback_with_collision_chains() {
        // Constant hash: every key collides; correctness must come from the
        // chain's key comparison alone.
        let mut g = Grouper::with_constant_hash(3);
        let keys: [[u64; 3]; 4] = [[1, 2, 3], [3, 2, 1], [1, 2, 4], [0, 0, 0]];
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(g.intern(&v(k)), (i, true), "key {k:?}");
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(g.intern(&v(k)), (i, false));
            assert_eq!(g.get(&v(k)), Some(i));
            assert_eq!(g.key(i), v(k).as_slice());
        }
        assert_eq!(g.get(&v(&[9, 9, 9])), None);
        assert_eq!(g.len(), keys.len());
    }

    #[test]
    fn grouper_arity3_normal_hash_agrees_with_forced_collisions() {
        // The same interning sequence through the production hash and the
        // all-collide hash must assign identical slots.
        let mut a = Grouper::new(3);
        let mut b = Grouper::with_constant_hash(3);
        let keys: Vec<[u64; 3]> = (0..50u64).map(|i| [i % 5, (i / 5) % 5, i % 3]).collect();
        for k in &keys {
            assert_eq!(a.intern(&v(k)), b.intern(&v(k)), "key {k:?}");
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn pairs_by_left_is_stable_counting_sort() {
        let pairs = vec![(2u32, 0u32), (0, 1), (2, 3), (1, 4), (0, 5)];
        let sorted = pairs_by_left(&pairs, 3);
        assert_eq!(sorted, vec![(0, 1), (0, 5), (1, 4), (2, 0), (2, 3)]);
    }
}
