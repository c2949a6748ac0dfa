//! Stable-key columnar relations: the materialized state of incremental
//! operators.
//!
//! A [`KeyedRel`] is a columnar relation (flat value buffer with arity
//! stride plus a probability column, like `safeplan::ProbRelation`) whose
//! rows additionally carry a **stable key** — a fixed-stride `u64` tuple
//! identifying the row across refreshes. Rows are kept sorted ascending by
//! key, and the whole design rests on one fact about the cold executor:
//!
//! > every safe-plan operator emits its rows in ascending stable-key order.
//!
//! * a scan's key is the tuple id — scans emit matching tuples in
//!   ascending id order;
//! * a join's key is the left key concatenated with the right key — joins
//!   emit probe-major over the left, per left row in right order, which is
//!   exactly lexicographic `(left key, right key)`;
//! * an independent project's key is the minimum child key of the group —
//!   groups emit in first-seen row order, and first-seen over ascending
//!   rows *is* minimum-key order;
//! * selects inherit the keys of the rows they keep.
//!
//! So "maintain the buffer sorted by key" and "reproduce the cold output
//! order bit for bit" are the same requirement, and a refreshed view's
//! `(data, probs)` equal a from-scratch execution's buffers exactly.

use cq::{Value, Var};

/// First chunk index of `flat` (stride `k`, chunks ascending) whose first
/// `key.len()` words are not below `key` — a full key's lower bound, or
/// where the chunks starting with a prefix begin. Stride-1 keys (scan
/// tuple ids and everything built on one scan) compare as raw `u64`s.
pub(crate) fn lower_bound(flat: &[u64], k: usize, key: &[u64]) -> usize {
    if k == 0 || key.is_empty() {
        return 0;
    }
    if k == 1 {
        return flat.partition_point(|&x| x < key[0]);
    }
    let (mut lo, mut hi) = (0, flat.len() / k);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if &flat[mid * k..mid * k + key.len()] < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A columnar relation with a parallel sorted stable-key column.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct KeyedRel {
    /// Output schema; empty for delta carriers (arity still authoritative).
    pub cols: Vec<Var>,
    /// Row stride of `data`.
    pub arity: usize,
    /// Key stride of `keys`.
    pub kstride: usize,
    /// Stable keys, `rows * kstride`, ascending by row.
    pub keys: Vec<u64>,
    /// Row values, `rows * arity`, aligned with `keys`.
    pub data: Vec<Value>,
    /// Probabilities, one per row.
    pub probs: Vec<f64>,
}

impl KeyedRel {
    pub fn new(cols: Vec<Var>, kstride: usize) -> Self {
        let arity = cols.len();
        KeyedRel {
            cols,
            arity,
            kstride,
            keys: Vec::new(),
            data: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// A schemaless delta carrier with explicit strides.
    pub fn carrier(arity: usize, kstride: usize) -> Self {
        KeyedRel {
            cols: Vec::new(),
            arity,
            kstride,
            keys: Vec::new(),
            data: Vec::new(),
            probs: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.probs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    #[inline]
    pub fn key(&self, i: usize) -> &[u64] {
        &self.keys[i * self.kstride..(i + 1) * self.kstride]
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    #[inline]
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Append a row; the caller guarantees `key` exceeds the last key.
    pub fn push(&mut self, key: &[u64], row: &[Value], prob: f64) {
        debug_assert_eq!(key.len(), self.kstride);
        debug_assert_eq!(row.len(), self.arity);
        debug_assert!(
            self.is_empty() || self.key(self.len() - 1) < key,
            "keys must ascend"
        );
        self.keys.extend_from_slice(key);
        self.data.extend_from_slice(row);
        self.probs.push(prob);
    }

    /// Row index of an exact key, by binary search.
    pub fn find(&self, key: &[u64]) -> Option<usize> {
        debug_assert_eq!(key.len(), self.kstride);
        let i = lower_bound(&self.keys, self.kstride, key);
        (i < self.len() && self.key(i) == key).then_some(i)
    }

    /// The contiguous row range whose keys start with `prefix`
    /// (lexicographic sorting keeps equal prefixes adjacent).
    pub fn prefix_range(&self, prefix: &[u64]) -> std::ops::Range<usize> {
        debug_assert!(prefix.len() <= self.kstride);
        let lo = lower_bound(&self.keys, self.kstride, prefix);
        let hi = (lo..self.len())
            .find(|&i| &self.key(i)[..prefix.len()] != prefix)
            .unwrap_or(self.len());
        lo..hi
    }

    /// First row index in `from..len` whose key is `>= key`, by
    /// **galloping** from `from`: callers probing an ascending key
    /// sequence pass the previous hit, and each probe costs
    /// `O(log gap)` touching only the cache lines near the cursor —
    /// resolving a sorted batch of edits is one forward pass.
    pub fn lower_bound_from(&self, from: usize, key: &[u64]) -> usize {
        let below = |i: usize| -> bool {
            if self.kstride == 1 {
                self.keys[i] < key[0]
            } else {
                self.key(i) < key
            }
        };
        let n = self.len();
        if from >= n || !below(from) {
            return from;
        }
        // Gallop: double the step until the key is bracketed.
        let mut step = 1usize;
        let mut lo = from; // below(lo) holds
        let mut hi;
        loop {
            hi = from + step;
            if hi >= n {
                hi = n;
                break;
            }
            if !below(hi) {
                break;
            }
            lo = hi;
            step *= 2;
        }
        // Binary search in (lo, hi].
        let k = self.kstride;
        lo + 1 + lower_bound(&self.keys[(lo + 1) * k..hi * k], k, key)
    }

    /// Remove the rows whose keys appear in `removed` (flat, stride
    /// [`Self::kstride`], sorted ascending, all present) and return them in
    /// key order. Edits are usually sparse relative to the buffer, so the
    /// removal positions are binary-searched (each search windowed past the
    /// previous hit) and the surviving rows move as **whole runs** — large
    /// `copy_within` block moves, not per-row shuffles.
    pub fn remove_sorted_keys(&mut self, removed: &[u64]) -> KeyedRel {
        let k = self.kstride;
        let arity = self.arity;
        let mut out = KeyedRel::carrier(arity, k);
        if removed.is_empty() {
            return out;
        }
        debug_assert!(k > 0, "0-stride relations have nothing removable");
        debug_assert_eq!(removed.len() % k, 0);
        let nrem = removed.len() / k;
        let mut pos = Vec::with_capacity(nrem);
        let mut from = 0usize;
        for c in 0..nrem {
            let key = &removed[c * k..(c + 1) * k];
            let idx = self.lower_bound_from(from, key);
            debug_assert!(idx < self.len() && self.key(idx) == key, "key present");
            pos.push(idx);
            from = idx + 1;
        }
        for &i in &pos {
            out.keys.extend_from_slice(self.key(i));
            out.data.extend_from_slice(self.row(i));
            out.probs.push(self.probs[i]);
        }
        // Compact the survivors run by run.
        let mut write = pos[0];
        for (ri, &p) in pos.iter().enumerate() {
            let next = if ri + 1 < pos.len() {
                pos[ri + 1]
            } else {
                self.len()
            };
            let run = p + 1..next;
            if !run.is_empty() {
                self.keys.copy_within(run.start * k..run.end * k, write * k);
                self.data
                    .copy_within(run.start * arity..run.end * arity, write * arity);
                self.probs.copy_within(run.clone(), write);
                write += run.len();
            }
        }
        self.keys.truncate(write * k);
        self.data.truncate(write * arity);
        self.probs.truncate(write);
        out
    }

    /// Concatenate carriers of one shape in order; the first part is
    /// adopted, not copied (so a single part costs nothing).
    pub fn concat(arity: usize, kstride: usize, parts: Vec<KeyedRel>) -> KeyedRel {
        let mut parts = parts.into_iter();
        let mut out = parts
            .next()
            .unwrap_or_else(|| KeyedRel::carrier(arity, kstride));
        for p in parts {
            out.keys.extend_from_slice(&p.keys);
            out.data.extend_from_slice(&p.data);
            out.probs.extend_from_slice(&p.probs);
        }
        out
    }

    /// Order a carrier whose rows arrived unordered ascending by key (keys
    /// must be distinct): one index sort, one gather. A carrier already in
    /// order is returned as is.
    pub fn into_sorted(self) -> KeyedRel {
        if (1..self.len()).all(|i| self.key(i - 1) < self.key(i)) {
            return self;
        }
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.key(a as usize).cmp(self.key(b as usize)));
        let mut out = KeyedRel::carrier(self.arity, self.kstride);
        out.keys.reserve(self.keys.len());
        out.data.reserve(self.data.len());
        out.probs.reserve(self.len());
        for &i in &order {
            let i = i as usize;
            out.push(self.key(i), self.row(i), self.probs[i]);
        }
        out
    }

    /// Merge `added` (sorted by key, disjoint from existing keys) into the
    /// relation, preserving the key order. Appends when all added keys
    /// exceed the current maximum; otherwise rebuilds with the kept rows
    /// copied as whole runs between the binary-searched insertion points.
    pub fn merge_added(&mut self, added: &KeyedRel) {
        if added.is_empty() {
            return;
        }
        debug_assert_eq!(added.kstride, self.kstride);
        debug_assert_eq!(added.arity, self.arity);
        let (k, arity) = (self.kstride, self.arity);
        if self.is_empty() || self.key(self.len() - 1) < added.key(0) {
            self.keys.extend_from_slice(&added.keys);
            self.data.extend_from_slice(&added.data);
            self.probs.extend_from_slice(&added.probs);
            return;
        }
        let mut ins = Vec::with_capacity(added.len());
        let mut from = 0usize;
        for j in 0..added.len() {
            let idx = self.lower_bound_from(from, added.key(j));
            debug_assert!(
                idx >= self.len() || self.key(idx) != added.key(j),
                "disjoint"
            );
            ins.push(idx);
            from = idx;
        }
        let total = self.len() + added.len();
        let mut keys = Vec::with_capacity(total * k);
        let mut data = Vec::with_capacity(total * arity);
        let mut probs = Vec::with_capacity(total);
        let mut prev = 0usize;
        for (j, &at) in ins.iter().enumerate() {
            let run = prev..at;
            keys.extend_from_slice(&self.keys[run.start * k..run.end * k]);
            data.extend_from_slice(&self.data[run.start * arity..run.end * arity]);
            probs.extend_from_slice(&self.probs[run.clone()]);
            keys.extend_from_slice(added.key(j));
            data.extend_from_slice(added.row(j));
            probs.push(added.probs[j]);
            prev = at;
        }
        keys.extend_from_slice(&self.keys[prev * k..]);
        data.extend_from_slice(&self.data[prev * arity..]);
        probs.extend_from_slice(&self.probs[prev..]);
        self.keys = keys;
        self.data = data;
        self.probs = probs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(kstride: usize, rows: &[(&[u64], &[u64], f64)]) -> KeyedRel {
        let arity = rows.first().map_or(0, |r| r.1.len());
        let mut out = KeyedRel::carrier(arity, kstride);
        for (k, v, p) in rows {
            let vals: Vec<Value> = v.iter().map(|&x| Value(x)).collect();
            out.push(k, &vals, *p);
        }
        out
    }

    #[test]
    fn find_and_prefix_range() {
        let r = rel(
            2,
            &[
                (&[1, 1], &[10], 0.1),
                (&[1, 5], &[11], 0.2),
                (&[2, 0], &[12], 0.3),
                (&[2, 7], &[13], 0.4),
                (&[3, 2], &[14], 0.5),
            ],
        );
        assert_eq!(r.find(&[2, 0]), Some(2));
        assert_eq!(r.find(&[2, 1]), None);
        assert_eq!(r.prefix_range(&[2]), 2..4);
        assert_eq!(r.prefix_range(&[9]), 5..5);
        assert_eq!(r.prefix_range(&[]), 0..5);
    }

    #[test]
    fn remove_and_merge_round_trip() {
        let mut r = rel(
            1,
            &[
                (&[1], &[10], 0.1),
                (&[3], &[11], 0.2),
                (&[5], &[12], 0.3),
                (&[7], &[13], 0.4),
            ],
        );
        let removed = r.remove_sorted_keys(&[3, 7]);
        assert_eq!(removed.len(), 2);
        assert_eq!(removed.key(0), &[3]);
        assert_eq!(removed.prob(1), 0.4);
        assert_eq!(r.len(), 2);
        assert_eq!(r.key(1), &[5]);
        r.merge_added(&removed);
        assert_eq!(r.len(), 4);
        assert_eq!(
            (0..4).map(|i| r.key(i)[0]).collect::<Vec<_>>(),
            vec![1, 3, 5, 7]
        );
        assert_eq!(r.row(3), &[Value(13)]);
    }

    #[test]
    fn merge_appends_on_tail_keys() {
        let mut r = rel(1, &[(&[1], &[10], 0.1)]);
        let add = rel(1, &[(&[2], &[11], 0.2), (&[4], &[12], 0.3)]);
        r.merge_added(&add);
        assert_eq!(r.len(), 3);
        assert_eq!(r.key(2), &[4]);
    }

    #[test]
    fn zero_stride_scalar_rows() {
        let mut r = KeyedRel::carrier(0, 0);
        r.push(&[], &[], 0.25);
        assert_eq!(r.find(&[]), Some(0));
        let removed = r.remove_sorted_keys(&[]);
        assert_eq!(removed.len(), 0, "empty removal is a no-op");
    }
}
