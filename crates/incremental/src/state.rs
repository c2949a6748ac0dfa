//! Per-operator materialized state and delta propagation.
//!
//! Every plan operator keeps its full output as a [`KeyedRel`] plus the
//! auxiliary structure that makes a refresh cheap:
//!
//! * **scan** — the matching rows in tuple-id order; a delta re-checks
//!   only the changed tuples;
//! * **join** (a chain of binary stages, exactly the executor's n-ary
//!   fold) — value-keyed hash indexes on *both* sides mapping join values
//!   to sorted stable row keys, the "hash tables with tuple-id
//!   back-pointers". The stage delta is the classic
//!   `ΔL⋈R ∪ L⋈ΔR ∪ ΔL⋈ΔR`, realized by probing the post-update right
//!   index with ΔL and the pre-update left index with ΔR;
//! * **independent project** — per-group sorted row-key sets; groups whose
//!   sets were touched are refolded from their stored rows in row order
//!   (the serial multiplication order), everything else keeps its cached
//!   `f64` untouched — which is what makes the refreshed output
//!   bit-for-bit a cold execution's;
//! * **select** — just its output; deltas filter through the predicate.
//!
//! The row-level work is `safeplan`'s own kernels ([`ScanPlan`],
//! [`CompiledPred`], [`JoinSpec`], [`Grouper`], [`gather_key`]) and the
//! cold fold [`ProbValue::independent_or`]; see the crate docs.
//!
//! [`Node::new`] builds only this structure — compiled scans and
//! predicates, join-stage schemas, empty indexes and group tables — with
//! every output empty. Data enters through one door, [`Node::refresh`]:
//! materializing a view is a refresh from the empty state whose net
//! changes are every live tuple as Δ⁺ ([`NetDelta::Seed`]), so filling and
//! maintaining a view are the same delta rules. Every output is empty
//! during that refresh, so each operator adopts its added rows as its
//! output instead of copying them ([`OpDelta::commit_added`]).
//!
//! Deltas between operators are value-carrying row sets
//! ([`OpDelta`]: removed, probability-updated, added), always sorted by
//! stable key and pairwise key-disjoint within one refresh.

use crate::keyed::{lower_bound, KeyedRel};
use crate::view::RefreshCounters;
use cq::{Atom, Pred, RelId, Value, Var};
use exec_parallel::Pool;
use pdb::{ChangeKind, ProbDb, ShardMap, TupleChange, TupleId};
use safeplan::{
    gather_key, join_spec, scan_plan, CompiledPred, Grouper, JoinSpec, PlanNode, ProbValue,
    ScanPlan,
};
use std::fmt;

/// Why a plan cannot be maintained incrementally (the caller should fall
/// back to re-execution, which is always sound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unsupported {
    /// Complement scans enumerate the active domain, which any insert or
    /// delete can reshape wholesale — there is no tuple-local delta rule.
    ComplementScan,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unsupported::ComplementScan => {
                write!(f, "complement scans cannot be delta-maintained")
            }
        }
    }
}

impl std::error::Error for Unsupported {}

// ---------------------------------------------------------------------------
// Net tuple changes
// ---------------------------------------------------------------------------

/// The net effect of a change sequence on one tuple slot, relative to the
/// state the view last saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NetChange {
    Added,
    Updated,
    Removed,
}

/// One relation's net changes, each list ascending by id.
#[derive(Default)]
pub(crate) struct RelChanges {
    added: Vec<TupleId>,
    /// Removed or updated ids.
    touched: Vec<(TupleId, NetChange)>,
}

/// The net tuple changes one refresh propagates, per relation.
pub(crate) enum NetDelta {
    /// Materialization from the empty state: every live tuple of every
    /// scanned relation is added, straight from `db.tuples_of` (ascending
    /// ids) — nothing is read from the delta log.
    Seed,
    /// The coalesced pending log entries, indexed by relation id.
    Log(Vec<RelChanges>),
}

impl NetDelta {
    fn added<'a>(&'a self, db: &'a ProbDb, rel: RelId) -> &'a [TupleId] {
        match self {
            NetDelta::Seed => db.tuples_of(rel),
            NetDelta::Log(by_rel) => by_rel.get(rel.0 as usize).map_or(&[], |c| &c.added),
        }
    }

    fn touched(&self, rel: RelId) -> &[(TupleId, NetChange)] {
        match self {
            NetDelta::Seed => &[],
            NetDelta::Log(by_rel) => by_rel.get(rel.0 as usize).map_or(&[], |c| &c.touched),
        }
    }
}

/// Pending log entries flattened and coalesced per tuple id (an insert
/// later deleted nets out; an update before a delete is just the delete),
/// grouped by relation and ascending by id. Current args/probs are read
/// from the database — only the *membership* transitions need the history.
pub(crate) fn coalesce<'a>(batches: impl Iterator<Item = &'a pdb::AppliedDelta>) -> NetDelta {
    // A stable sort by id keeps each tuple's history in log order.
    let mut log: Vec<&TupleChange> = batches.flat_map(|b| &b.changes).collect();
    log.sort_by_key(|c| c.id);
    let mut by_rel: Vec<RelChanges> = Vec::new();
    for history in log.chunk_by(|a, b| a.id == b.id) {
        let mut net = None;
        for TupleChange { kind, .. } in history {
            net = match (net, kind) {
                (None, ChangeKind::Inserted) => Some(NetChange::Added),
                (None, ChangeKind::Updated { .. }) => Some(NetChange::Updated),
                (None, ChangeKind::Deleted { .. }) => Some(NetChange::Removed),
                (Some(NetChange::Added), ChangeKind::Updated { .. }) => Some(NetChange::Added),
                (Some(NetChange::Added), ChangeKind::Deleted { .. }) => None,
                (Some(NetChange::Updated), ChangeKind::Updated { .. }) => Some(NetChange::Updated),
                (Some(NetChange::Updated), ChangeKind::Deleted { .. }) => Some(NetChange::Removed),
                // A deleted id's slot is never re-inserted (fresh content
                // allocates a fresh id), and a fresh id cannot be
                // re-inserted either.
                (prior, kind) => unreachable!("change {kind:?} after net {prior:?}"),
            };
        }
        let Some(change) = net else { continue };
        let TupleChange { id, rel, .. } = *history[0];
        if by_rel.len() <= rel.0 as usize {
            by_rel.resize_with(rel.0 as usize + 1, RelChanges::default);
        }
        let c = &mut by_rel[rel.0 as usize];
        if change == NetChange::Added {
            c.added.push(id);
        } else {
            c.touched.push((id, change));
        }
    }
    NetDelta::Log(by_rel)
}

/// One refresh in flight: what every operator reads, and what it tallies.
pub(crate) struct Pass<'a> {
    pub db: &'a ProbDb,
    pub net: &'a NetDelta,
    /// Join probes and group refolds fan out over it.
    pub pool: &'a Pool,
    /// Scan-delta matching partitions tuple ids over it.
    pub shards: ShardMap,
    pub counters: RefreshCounters,
    /// Scan-delta rows matched per shard.
    pub shard_rows: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Operator deltas
// ---------------------------------------------------------------------------

/// How much of its output delta an operator must materialize for its
/// parent. A Boolean (scalar) project refolds its whole child regardless,
/// so its child can skip assembling the `updated` row list — membership
/// changes (`removed`/`added`) are always produced, because the child's
/// own state maintenance computes them as a byproduct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DeltaDetail {
    Full,
    /// The parent only needs to know *whether* something changed plus the
    /// membership edits; probability-update rows may be left empty, but
    /// `updated.is_empty()` must then be compensated by `touched`.
    DirtyOnly,
}

/// Changes to one operator's output, each list sorted by stable key; the
/// three key sets are pairwise disjoint. `removed` carries the old rows,
/// `updated` the rows with their new probabilities (possibly elided under
/// [`DeltaDetail::DirtyOnly`], in which case `touched` is still set).
pub(crate) struct OpDelta {
    pub removed: KeyedRel,
    pub updated: KeyedRel,
    /// Read through [`OpDelta::added`]: [`OpDelta::commit_added`] may have
    /// moved these rows into the operator's output.
    pub added: KeyedRel,
    added_is_out: bool,
    /// True when the operator changed anything at all (set even when the
    /// `updated` rows were elided under [`DeltaDetail::DirtyOnly`]).
    pub touched: bool,
}

impl OpDelta {
    fn empty(arity: usize, kstride: usize) -> Self {
        OpDelta {
            removed: KeyedRel::carrier(arity, kstride),
            updated: KeyedRel::carrier(arity, kstride),
            added: KeyedRel::carrier(arity, kstride),
            added_is_out: false,
            touched: false,
        }
    }

    /// Merge the added rows into `out`, the operator's output (after its
    /// removals). An empty output — every output during a seeding
    /// refresh — adopts them instead: no copy, and no second resident
    /// copy while the parent consumes the delta.
    fn commit_added(&mut self, out: &mut KeyedRel) {
        if !out.is_empty() {
            out.merge_added(&self.added);
            return;
        }
        out.keys = std::mem::take(&mut self.added.keys);
        out.data = std::mem::take(&mut self.added.data);
        out.probs = std::mem::take(&mut self.added.probs);
        self.added_is_out = true;
    }

    /// The added rows, given `out`, the refreshed output of the operator
    /// that produced this delta.
    fn added<'a>(&'a self, out: &'a KeyedRel) -> &'a KeyedRel {
        if self.added_is_out {
            out
        } else {
            &self.added
        }
    }

    pub fn is_empty(&self) -> bool {
        !self.touched && self.removed.is_empty() && self.updated.is_empty() && self.added.is_empty()
    }

    /// Rows in the delta (counted before [`OpDelta::commit_added`]).
    fn rows(&self) -> u64 {
        (self.removed.len() + self.updated.len() + self.added.len()) as u64
    }
}

// ---------------------------------------------------------------------------
// The state tree
// ---------------------------------------------------------------------------

pub(crate) enum Node {
    /// `Certain` (one row, probability 1) or `Never` (no rows) — static.
    Const(KeyedRel),
    Scan(ScanState),
    Select(SelectState),
    Join(JoinState),
    Project(ProjectState),
}

impl Node {
    /// The operator structure of `plan` with every output empty (the
    /// constants `Certain`/`Never` excepted: they are static). A refresh
    /// with [`NetDelta::Seed`] fills it.
    pub fn new(plan: &PlanNode) -> Result<Node, Unsupported> {
        Node::new_node(plan, true)
    }

    fn new_node(plan: &PlanNode, is_root: bool) -> Result<Node, Unsupported> {
        Ok(match plan {
            PlanNode::Certain => {
                let mut out = KeyedRel::new(Vec::new(), 0);
                out.push(&[], &[], 1.0);
                Node::Const(out)
            }
            PlanNode::Never => Node::Const(KeyedRel::new(Vec::new(), 0)),
            PlanNode::ComplementScan { .. } => return Err(Unsupported::ComplementScan),
            PlanNode::Scan { atom } => Node::Scan(ScanState::new(atom, !is_root)),
            PlanNode::Select { pred, input } => {
                Node::Select(SelectState::new(pred, Node::new_node(input, false)?))
            }
            PlanNode::IndependentJoin { inputs } => match inputs.len() {
                0 => Node::new_node(&PlanNode::Certain, is_root)?,
                1 => Node::new_node(&inputs[0], is_root)?,
                _ => {
                    let children = inputs
                        .iter()
                        .map(|i| Node::new_node(i, false))
                        .collect::<Result<Vec<_>, _>>()?;
                    Node::Join(JoinState::new(children))
                }
            },
            PlanNode::IndependentProject { keep, input } => Node::Project(ProjectState::new(
                keep.clone(),
                Node::new_node(input, false)?,
            )),
        })
    }

    pub fn out(&self) -> &KeyedRel {
        match self {
            Node::Const(out) => out,
            Node::Scan(s) => &s.out,
            Node::Select(s) => &s.out,
            Node::Join(s) => s.out(),
            Node::Project(s) => &s.out,
        }
    }

    /// Total materialized rows across the subtree — what a full
    /// re-execution would have to produce from scratch.
    pub fn total_rows(&self) -> u64 {
        let own = self.out().len() as u64;
        match self {
            Node::Const(_) | Node::Scan(_) => own,
            Node::Select(s) => own + s.child.total_rows(),
            Node::Join(s) => {
                s.children.iter().map(Node::total_rows).sum::<u64>()
                    + s.stages.iter().map(|st| st.out.len() as u64).sum::<u64>()
            }
            Node::Project(s) => own + s.child.total_rows(),
        }
    }

    /// Propagate the pass's net tuple changes through the subtree, updating
    /// every materialized output, and return the changes to this node's
    /// output.
    pub fn refresh(&mut self, pass: &mut Pass, detail: DeltaDetail) -> OpDelta {
        match self {
            Node::Const(out) => OpDelta::empty(out.arity, out.kstride),
            Node::Scan(s) => s.refresh(pass),
            Node::Select(s) => s.refresh(pass, detail),
            Node::Join(s) => s.refresh(pass, detail),
            Node::Project(s) => s.refresh(pass, detail),
        }
    }
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

pub(crate) struct ScanState {
    rel: RelId,
    plan: ScanPlan,
    /// Matching rows in ascending tuple-id order; key = tuple id.
    out: KeyedRel,
    /// Deferred removals (non-root scans only): a removed row is
    /// tombstoned in place — probability forced to `0.0`, which is a
    /// `× 1.0` no-op in every complement fold, so the buffer stays
    /// **fold-equivalent** to the compacted one bit for bit. Membership
    /// flows to parents through the delta (they never consult the buffer
    /// for it), and probes only ever target live keys. Tombstone keys
    /// collect here; one real compaction runs when they exceed ~12% of
    /// the buffer, amortizing the big tail-move that a per-refresh splice
    /// would pay on every delete.
    tombstones: Vec<u64>,
    /// Root scans keep their buffer exactly the cold output (it *is* the
    /// view's exposed output), so they compact on every refresh.
    defer_removals: bool,
}

impl ScanState {
    fn new(atom: &Atom, defer_removals: bool) -> ScanState {
        assert!(!atom.negated, "plans scan positive atoms only");
        let cols = atom.vars();
        ScanState {
            rel: atom.rel,
            plan: scan_plan(atom, &cols),
            out: KeyedRel::new(cols, 1),
            tombstones: Vec::new(),
            defer_removals,
        }
    }

    /// Apply this relation's net changes. Tuple ids are hash-partitioned
    /// over the pass's shards on the pool — the same shard/merge stage as
    /// the DAG executor's sharded scans; one shard is the whole relation.
    /// Per shard, over the still-immutable buffer: added ids are matched
    /// against the compiled scan, and removed/updated ids are located
    /// (the O(log n) part; ids ascend within a shard, so each lookup
    /// windows past the previous hit). The merge restores ascending-id
    /// order, then the buffer edits replay serially in that order, so the
    /// delta and the buffer are the same at every shard count.
    fn refresh(&mut self, pass: &mut Pass) -> OpDelta {
        let _span = telemetry::span("scan-delta");
        let (db, map) = (pass.db, pass.shards);
        let added = pass.net.added(db, self.rel);
        let touched = pass.net.touched(self.rel);
        let parts = pass.pool.map_partitions(map.shards(), |s| {
            let mut rows = KeyedRel::carrier(self.out.arity, 1);
            let mut rowbuf = vec![Value(0); self.out.arity];
            for &id in added.iter().filter(|&&id| map.shard_of(id) == s) {
                if self.plan.bind(&db.tuple(id).args, &mut rowbuf) {
                    rows.push(&[u64::from(id.0)], &rowbuf, db.prob(id));
                }
            }
            let mut hits: Vec<(u32, usize)> = Vec::new();
            let mut cursor = 0usize;
            let mine = touched.iter().enumerate();
            for (t, &(id, _)) in mine.filter(|(_, &(id, _))| map.shard_of(id) == s) {
                let key = [u64::from(id.0)];
                let lb = self.out.lower_bound_from(cursor, &key);
                cursor = lb;
                if lb < self.out.len() && self.out.key(lb) == key {
                    hits.push((t as u32, lb));
                    cursor = lb + 1;
                }
            }
            (rows, hits)
        });
        let mut added_parts = Vec::with_capacity(parts.len());
        let mut hits: Vec<(u32, usize)> = Vec::new();
        for (s, (rows, h)) in parts.into_iter().enumerate() {
            pass.shard_rows[s] += (rows.len() + h.len()) as u64;
            added_parts.push(rows);
            hits.extend(h);
        }
        let mut delta = OpDelta::empty(self.out.arity, 1);
        delta.added = KeyedRel::concat(self.out.arity, 1, added_parts).into_sorted();
        hits.sort_unstable();
        let mut rem_keys: Vec<u64> = Vec::new();
        for (t, lb) in hits {
            let (id, change) = touched[t as usize];
            let key = [u64::from(id.0)];
            if change == NetChange::Removed {
                if self.defer_removals {
                    // Tombstone: the parent learns through the delta; the
                    // buffer stays fold-equivalent.
                    delta
                        .removed
                        .push(&key, self.out.row(lb), self.out.probs[lb]);
                    self.out.probs[lb] = 0.0;
                    self.tombstones.push(key[0]);
                } else {
                    rem_keys.extend_from_slice(&key);
                }
            } else {
                let prob = db.prob(id);
                self.out.probs[lb] = prob;
                delta.updated.push(&key, self.out.row(lb), prob);
            }
        }
        if self.defer_removals {
            debug_assert!(rem_keys.is_empty());
            if self.tombstones.len() * 8 >= self.out.len().max(8) {
                // Amortized compaction; rows are already logically gone,
                // so no delta is emitted for them.
                self.tombstones.sort_unstable();
                let keys = std::mem::take(&mut self.tombstones);
                let _ = self.out.remove_sorted_keys(&keys);
            }
        } else {
            delta.removed = self.out.remove_sorted_keys(&rem_keys);
        }
        delta.touched =
            !delta.removed.is_empty() || !delta.updated.is_empty() || !delta.added.is_empty();
        pass.counters.rows_retouched += delta.rows();
        delta.commit_added(&mut self.out);
        delta
    }
}

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

pub(crate) struct SelectState {
    pred: CompiledPred,
    child: Box<Node>,
    out: KeyedRel,
}

impl SelectState {
    fn new(pred: &Pred, child: Node) -> SelectState {
        let cin = child.out();
        SelectState {
            pred: CompiledPred::new(pred, &cin.cols),
            out: KeyedRel::new(cin.cols.clone(), cin.kstride),
            child: Box::new(child),
        }
    }

    fn refresh(&mut self, pass: &mut Pass, detail: DeltaDetail) -> OpDelta {
        // A select must see full child updates to mirror probability
        // changes into its own buffer, whatever the parent asked for.
        let d = self.child.refresh(pass, DeltaDetail::Full);
        let _span = telemetry::span("select-delta");
        let mut delta = OpDelta::empty(self.out.arity, self.out.kstride);
        if d.is_empty() {
            return delta;
        }
        delta.touched = true;
        for i in 0..d.updated.len() {
            if let Some(idx) = self.out.find(d.updated.key(i)) {
                self.out.probs[idx] = d.updated.prob(i);
                if detail == DeltaDetail::Full {
                    delta
                        .updated
                        .push(d.updated.key(i), d.updated.row(i), d.updated.prob(i));
                }
            }
        }
        let mut rem_keys: Vec<u64> = Vec::new();
        for i in 0..d.removed.len() {
            if self.out.find(d.removed.key(i)).is_some() {
                rem_keys.extend_from_slice(d.removed.key(i));
            }
        }
        delta.removed = self.out.remove_sorted_keys(&rem_keys);
        let added = d.added(self.child.out());
        for i in 0..added.len() {
            if self.pred.eval(added.row(i)) {
                delta.added.push(added.key(i), added.row(i), added.prob(i));
            }
        }
        pass.counters.rows_retouched += delta.rows();
        delta.commit_added(&mut self.out);
        delta
    }
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// Join-value index of one side: join-column values interned in a
/// [`Grouper`], and per value slot the side's stable row keys holding them,
/// flat and ascending (the back-pointers a probe follows). The executor's
/// build-side hash table, kept alive and delta-maintained instead of
/// rebuilt per execution. A value whose rows are all removed keeps its
/// slot, emptied, for a later insert to reuse.
struct ValIndex {
    kstride: usize,
    values: Grouper,
    postings: Vec<Vec<u64>>,
}

impl ValIndex {
    fn new(arity: usize, kstride: usize) -> ValIndex {
        ValIndex {
            kstride,
            values: Grouper::new(arity),
            postings: Vec::new(),
        }
    }

    fn get(&self, vals: &[Value]) -> &[u64] {
        self.values.get(vals).map_or(&[], |s| &self.postings[s])
    }

    fn insert(&mut self, vals: &[Value], key: &[u64]) {
        debug_assert!(self.kstride > 0, "const sides are never indexed");
        let (s, new) = self.values.intern(vals);
        if new {
            self.postings.push(Vec::new());
        }
        let list = &mut self.postings[s];
        let at = lower_bound(list, self.kstride, key) * self.kstride;
        list.splice(at..at, key.iter().copied());
    }

    fn remove(&mut self, vals: &[Value], key: &[u64]) {
        let s = self.values.get(vals).expect("indexed row");
        let list = &mut self.postings[s];
        let at = lower_bound(list, self.kstride, key) * self.kstride;
        debug_assert_eq!(&list[at..at + self.kstride], key);
        list.drain(at..at + self.kstride);
        if list.is_empty() {
            *list = Vec::new();
        }
    }
}

/// One binary stage of the executor's left-fold over join inputs.
struct Stage {
    spec: JoinSpec,
    /// Indexes on the join columns; their strides are the sides' key
    /// strides.
    left_index: ValIndex,
    right_index: ValIndex,
    /// Output: key = left key ++ right key (lexicographic = the cold
    /// executor's probe-major order), values = left row ++ right extras,
    /// probability = product.
    out: KeyedRel,
}

impl Stage {
    fn new(left: &KeyedRel, right: &KeyedRel) -> Stage {
        let spec = join_spec(&left.cols, &right.cols);
        let arity = spec.left_key.len();
        Stage {
            left_index: ValIndex::new(arity, left.kstride),
            right_index: ValIndex::new(arity, right.kstride),
            out: KeyedRel::new(spec.out_cols.clone(), left.kstride + right.kstride),
            spec,
        }
    }

    /// Append the pair of left row `(lkey, lrow)` and right row
    /// `(rkey, rrow)` to a flat pair carrier: key = left key ++ right key,
    /// values = left row ++ right extras. Pairs arrive unordered;
    /// [`KeyedRel::into_sorted`] orders the carrier.
    fn push_pair(
        &self,
        pairs: &mut KeyedRel,
        (lkey, lrow): (&[u64], &[Value]),
        (rkey, rrow): (&[u64], &[Value]),
        prob: f64,
    ) {
        pairs.keys.extend_from_slice(lkey);
        pairs.keys.extend_from_slice(rkey);
        pairs.data.extend_from_slice(lrow);
        pairs
            .data
            .extend(self.spec.other_extra.iter().map(|&e| rrow[e]));
        pairs.probs.push(prob);
    }

    /// Propagate one refresh through this stage. `left`/`right` are the
    /// post-edit side outputs, `dl`/`dr` their deltas.
    fn refresh(
        &mut self,
        left: &KeyedRel,
        dl: &OpDelta,
        right: &KeyedRel,
        dr: &OpDelta,
        pass: &mut Pass,
        detail: DeltaDetail,
    ) -> OpDelta {
        let mut delta = OpDelta::empty(self.out.arity, self.out.kstride);
        if dl.is_empty() && dr.is_empty() {
            return delta;
        }
        delta.touched = true;
        let (lk, rk) = (self.left_index.kstride, self.right_index.kstride);
        let (left_key, right_key) = (&self.spec.left_key, &self.spec.other_key);
        let mut valbuf = vec![Value(0); left_key.len()];
        // 1. Forget removed rows on both side indexes.
        for i in 0..dl.removed.len() {
            if lk > 0 {
                gather_key(dl.removed.row(i), left_key, &mut valbuf);
                self.left_index.remove(&valbuf, dl.removed.key(i));
            }
        }
        for j in 0..dr.removed.len() {
            if rk > 0 {
                gather_key(dr.removed.row(j), right_key, &mut valbuf);
                self.right_index.remove(&valbuf, dr.removed.key(j));
            }
        }
        // 2. Remove output pairs: every pair under a removed left key
        //    (contiguous prefix ranges), plus surviving-left × removed-right
        //    pairs found through the (already pruned) left index.
        let ks = self.out.kstride;
        let mut rem: Vec<u64> = Vec::new(); // stride ks
        for i in 0..dl.removed.len() {
            for idx in self.out.prefix_range(dl.removed.key(i)) {
                rem.extend_from_slice(self.out.key(idx));
            }
        }
        for j in 0..dr.removed.len() {
            gather_key(dr.removed.row(j), right_key, &mut valbuf);
            for_each_match(&self.left_index, left, &valbuf, |lkey| {
                rem.extend_from_slice(lkey);
                rem.extend_from_slice(dr.removed.key(j));
            });
        }
        delta.removed = self.out.remove_sorted_keys(&sorted_keys(&rem, ks));

        // 3. Recompute the probabilities of pairs whose side rows updated
        //    (full two-factor product from the post-edit sides — exactly
        //    what a cold execution multiplies). Entries carry the pair's
        //    row index, so row-index order is key order and application
        //    needs no second lookup.
        let mut upd: Vec<(usize, f64)> = Vec::new();
        let mut padded = vec![0u64; self.out.kstride];
        let mut pcur = 0usize;
        // Pairs of updated left rows, with the right probability resolved
        // in a second, right-key-sorted pass (windowed lookups). Flat
        // buffers + an index sort: no per-pair allocations.
        let mut lp_rkeys: Vec<u64> = Vec::new(); // stride rk
        let mut lp_aux: Vec<(u32, f64)> = Vec::new(); // (pair row idx, new lp)
        for i in 0..dl.updated.len() {
            // Updated left keys ascend, so each prefix range starts at the
            // galloped lower bound of (lkey, 0, …) past the previous one.
            let lkey = dl.updated.key(i);
            let lp = dl.updated.prob(i);
            padded[..lk].copy_from_slice(lkey);
            padded[lk..].fill(0);
            let mut idx = self.out.lower_bound_from(pcur, &padded);
            while idx < self.out.len() && &self.out.key(idx)[..lk] == lkey {
                lp_rkeys.extend_from_slice(&self.out.key(idx)[lk..]);
                lp_aux.push((idx as u32, lp));
                idx += 1;
            }
            pcur = idx;
        }
        let rs = rk.max(1);
        let mut order: Vec<u32> = (0..lp_aux.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            lp_rkeys[a * rs..(a + 1) * rs].cmp(&lp_rkeys[b * rs..(b + 1) * rs])
        });
        let mut rcur = 0usize;
        for &o in &order {
            let o = o as usize;
            let rkey = &lp_rkeys[o * rs..(o + 1) * rs];
            let ridx = right.lower_bound_from(rcur, rkey);
            debug_assert!(right.key(ridx) == rkey, "right row of live pair");
            rcur = ridx; // several pairs may share one right row
            let (idx, lp) = lp_aux[o];
            upd.push((idx as usize, lp * right.prob(ridx)));
        }
        // Right-side updates: candidate pair keys flat, sorted by index,
        // resolved by one cursor-windowed pass over output and left side.
        let mut cand_keys: Vec<u64> = Vec::new(); // stride ks
        let mut cand_rp: Vec<f64> = Vec::new();
        for j in 0..dr.updated.len() {
            gather_key(dr.updated.row(j), right_key, &mut valbuf);
            let rp = dr.updated.prob(j);
            if lk > 0 {
                for lkey in self.left_index.get(&valbuf).chunks(lk) {
                    cand_keys.extend_from_slice(lkey);
                    cand_keys.extend_from_slice(dr.updated.key(j));
                    cand_rp.push(rp);
                }
            } else if !left.is_empty() {
                // Constant left: the pair key is the right key alone.
                if let Some(idx) = self.out.find(dr.updated.key(j)) {
                    upd.push((idx, left.prob(0) * rp));
                }
            }
        }
        let mut order: Vec<u32> = (0..cand_rp.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            cand_keys[a * ks..(a + 1) * ks].cmp(&cand_keys[b * ks..(b + 1) * ks])
        });
        let (mut ocur, mut lcur) = (0usize, 0usize);
        for &o in &order {
            let o = o as usize;
            let key = &cand_keys[o * ks..(o + 1) * ks];
            let lb = self.out.lower_bound_from(ocur, key);
            ocur = lb;
            if lb < self.out.len() && self.out.key(lb) == key {
                let lidx = left.lower_bound_from(lcur, &key[..lk]);
                debug_assert!(left.key(lidx) == &key[..lk], "left row of live pair");
                lcur = lidx; // several pairs may share one left row
                upd.push((lb, left.prob(lidx) * cand_rp[o]));
                ocur = lb + 1;
            }
        }
        upd.sort_unstable_by_key(|&(idx, _)| idx);
        upd.dedup_by_key(|&mut (idx, _)| idx);
        pass.counters.rows_retouched += upd.len() as u64;
        if detail == DeltaDetail::Full {
            for &(idx, p) in &upd {
                self.out.probs[idx] = p;
                delta.updated.push(self.out.key(idx), self.out.row(idx), p);
            }
        } else {
            for &(idx, p) in &upd {
                self.out.probs[idx] = p;
            }
        }

        // 4. New pairs: ΔL probes the post-update right index (so ΔL×ΔR
        //    appears exactly once), ΔR probes the pre-update left index.
        //    Probes are morsel-parallel into flat pair carriers stitched in
        //    morsel order; one index sort restores the global key order
        //    (and is skipped when the pairs already ascend, as the ΔL
        //    probes of a seeding refresh do).
        let (dl_added, dr_added) = (dl.added(left), dr.added(right));
        for j in 0..dr_added.len() {
            if rk > 0 {
                gather_key(dr_added.row(j), right_key, &mut valbuf);
                self.right_index.insert(&valbuf, dr_added.key(j));
            }
        }
        let (arity, stage, pool) = (self.out.arity, &*self, pass.pool);
        let mut parts = pool.map_morsels(dl_added.len(), |r| {
            let mut pairs = KeyedRel::carrier(arity, ks);
            let mut vals = vec![Value(0); left_key.len()];
            for i in r {
                let l = (dl_added.key(i), dl_added.row(i));
                gather_key(l.1, left_key, &mut vals);
                for_each_match(&stage.right_index, right, &vals, |rkey| {
                    let j = right.find(rkey).expect("indexed right row");
                    let p = dl_added.prob(i) * right.prob(j);
                    stage.push_pair(&mut pairs, l, (rkey, right.row(j)), p);
                });
            }
            pairs
        });
        parts.extend(pool.map_morsels(dr_added.len(), |r| {
            let mut pairs = KeyedRel::carrier(arity, ks);
            let mut vals = vec![Value(0); right_key.len()];
            for j in r {
                let rt = (dr_added.key(j), dr_added.row(j));
                gather_key(rt.1, right_key, &mut vals);
                for_each_match(&stage.left_index, left, &vals, |lkey| {
                    let i = left.find(lkey).expect("indexed left row");
                    let p = left.prob(i) * dr_added.prob(j);
                    stage.push_pair(&mut pairs, (lkey, left.row(i)), rt, p);
                });
            }
            pairs
        }));
        for i in 0..dl_added.len() {
            if lk > 0 {
                gather_key(dl_added.row(i), left_key, &mut valbuf);
                self.left_index.insert(&valbuf, dl_added.key(i));
            }
        }
        delta.added = KeyedRel::concat(arity, ks, parts).into_sorted();
        pass.counters.rows_retouched += delta.rows();
        delta.commit_added(&mut self.out);
        delta
    }
}

/// Call `f` with each key of `side` whose join values are `vals`, in
/// ascending order: through the value index for keyed sides, or the
/// single constant row of a 0-stride side (whose join-column set is
/// necessarily empty).
fn for_each_match(index: &ValIndex, side: &KeyedRel, vals: &[Value], mut f: impl FnMut(&[u64])) {
    if index.kstride == 0 {
        if !side.is_empty() {
            f(&[]);
        }
        return;
    }
    for key in index.get(vals).chunks_exact(index.kstride) {
        f(key);
    }
}

/// A flat key list (stride `k`) in ascending key order.
fn sorted_keys(flat: &[u64], k: usize) -> Vec<u64> {
    let mut keys: Vec<&[u64]> = flat.chunks_exact(k.max(1)).collect();
    keys.sort_unstable();
    keys.concat()
}

pub(crate) struct JoinState {
    children: Vec<Node>,
    /// Indices of children that participate in stages (everything except
    /// `Certain` constants, which are the join unit).
    active: Vec<usize>,
    /// `active.len() - 1` binary stages; stage `j` joins the previous
    /// accumulator (stage `j-1`'s output, or the first active child) with
    /// active child `j + 1`.
    stages: Vec<Stage>,
    /// Short-circuit output when no stage chain exists: all children
    /// certain (one certain row), or some child is `Never` (permanently
    /// empty — a join with an empty constant can never emit).
    fixed_out: Option<KeyedRel>,
}

impl JoinState {
    fn new(children: Vec<Node>) -> JoinState {
        let is_certain = |n: &Node| matches!(n, Node::Const(out) if !out.is_empty());
        let is_never = |n: &Node| matches!(n, Node::Const(out) if out.is_empty());
        if children.iter().any(is_never) {
            // Fold the schema the executor would produce; rows: none, ever.
            let cols = children.iter().fold(Vec::new(), |cols: Vec<Var>, c| {
                join_spec(&cols, &c.out().cols).out_cols
            });
            let out = KeyedRel::new(cols, 0);
            return JoinState {
                children,
                active: Vec::new(),
                stages: Vec::new(),
                fixed_out: Some(out),
            };
        }
        let active: Vec<usize> = (0..children.len())
            .filter(|&i| !is_certain(&children[i]))
            .collect();
        if active.is_empty() {
            let mut out = KeyedRel::new(Vec::new(), 0);
            out.push(&[], &[], 1.0);
            return JoinState {
                children,
                active,
                stages: Vec::new(),
                fixed_out: Some(out),
            };
        }
        let mut stages: Vec<Stage> = Vec::new();
        for w in 1..active.len() {
            let left: &KeyedRel = if w == 1 {
                children[active[0]].out()
            } else {
                &stages[w - 2].out
            };
            let stage = Stage::new(left, children[active[w]].out());
            stages.push(stage);
        }
        JoinState {
            children,
            active,
            stages,
            fixed_out: None,
        }
    }

    fn out(&self) -> &KeyedRel {
        if let Some(out) = &self.fixed_out {
            out
        } else if let Some(s) = self.stages.last() {
            &s.out
        } else {
            self.children[self.active[0]].out()
        }
    }

    fn refresh(&mut self, pass: &mut Pass, detail: DeltaDetail) -> OpDelta {
        let mut deltas: Vec<OpDelta> = self
            .children
            .iter_mut()
            .map(|c| c.refresh(pass, DeltaDetail::Full))
            .collect();
        let _span = telemetry::span("join-delta");
        if let Some(out) = &self.fixed_out {
            return OpDelta::empty(out.arity, out.kstride);
        }
        // Each side delta is dropped as soon as its stage has consumed it.
        let mut take = |i: usize| std::mem::replace(&mut deltas[i], OpDelta::empty(0, 0));
        let mut acc = take(self.active[0]);
        for w in 1..self.active.len() {
            let (done, rest) = self.stages.split_at_mut(w - 1);
            let left: &KeyedRel = if w == 1 {
                self.children[self.active[0]].out()
            } else {
                &done[w - 2].out
            };
            let right = self.children[self.active[w]].out();
            // Intermediate stages feed further stages (need full deltas);
            // only the last stage's output delta honors the parent's wish.
            let want = if w + 1 == self.active.len() {
                detail
            } else {
                DeltaDetail::Full
            };
            let dr = take(self.active[w]);
            acc = rest[0].refresh(left, &acc, right, &dr, pass, want);
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Independent project
// ---------------------------------------------------------------------------

/// One group of a project; its key values (its output row) are the
/// [`Grouper`] slot's key.
#[derive(Default)]
struct GroupSlot {
    /// Stable child keys of the group's rows, flat, ascending — the fold
    /// order, which is the serial multiplication order.
    rows: Vec<u64>,
    /// The members' current probabilities, parallel to `rows` — a refold
    /// walks this buffer directly instead of binary-searching the child
    /// output per member. Kept current by the child's update deltas.
    probs: Vec<f64>,
    /// Is the group currently emitted?
    present: bool,
    /// The output key it is emitted under (its min child key at last emit).
    out_key: Vec<u64>,
    /// The emitted probability (`1 − Π(1−p)`).
    prob: f64,
}

pub(crate) struct ProjectState {
    keep_idx: Vec<usize>,
    /// Boolean aggregation (`keep = []`): one group holding every child
    /// row; refolded by a linear pass instead of per-group row sets.
    scalar: bool,
    child: Box<Node>,
    /// Child stable-key stride (also the output key stride: a group is
    /// keyed by its minimum child key).
    ck: usize,
    /// Group keys; slot `s` of the grouper is `slots[s]`.
    groups: Grouper,
    slots: Vec<GroupSlot>,
    /// Per-slot dirty flags for the current refresh (cleared afterwards),
    /// parallel to `slots` — O(1) marking.
    dirty_flag: Vec<bool>,
    /// `ck == 1` fast path: child stable key (tuple-id-like, dense, never
    /// reused) → owning slot, so updates and removals skip the value-keyed
    /// hash probe entirely. `u32::MAX` = unassigned.
    slot_by_child_key: Vec<u32>,
    out: KeyedRel,
}

impl ProjectState {
    fn new(keep: Vec<Var>, child: Node) -> ProjectState {
        let cin = child.out();
        let keep_idx: Vec<usize> = keep
            .iter()
            .map(|v| cin.cols.iter().position(|c| c == v).expect("keep column"))
            .collect();
        let scalar = keep.is_empty();
        let ck = cin.kstride;
        // The Boolean group exists (absent) from the start.
        let slots = if scalar {
            vec![GroupSlot::default()]
        } else {
            Vec::new()
        };
        ProjectState {
            groups: Grouper::new(keep_idx.len()),
            keep_idx,
            scalar,
            ck,
            slots,
            dirty_flag: Vec::new(),
            slot_by_child_key: Vec::new(),
            out: KeyedRel::new(keep, ck),
            child: Box::new(child),
        }
    }

    /// The group of a child row, through the dense index when available.
    #[inline]
    fn slot_of(&self, key: &[u64], row: &[Value], keybuf: &mut [Value]) -> u32 {
        if self.ck == 1 {
            if let Some(&s) = self.slot_by_child_key.get(key[0] as usize) {
                if s != u32::MAX {
                    return s;
                }
            }
            unreachable!("live child row has an indexed slot");
        }
        gather_key(row, &self.keep_idx, keybuf);
        self.groups
            .get(keybuf)
            .expect("live child row's group exists") as u32
    }

    fn refresh(&mut self, pass: &mut Pass, detail: DeltaDetail) -> OpDelta {
        // The Boolean group refolds over the whole child output, so the
        // child may elide its probability-update rows entirely.
        let want = if self.scalar {
            DeltaDetail::DirtyOnly
        } else {
            DeltaDetail::Full
        };
        let d = self.child.refresh(pass, want);
        let counters = &mut pass.counters;
        let pool = pass.pool;
        let _span = telemetry::span("project-delta");
        let mut delta = OpDelta::empty(self.out.arity, self.out.kstride);
        if d.is_empty() {
            return delta;
        }
        delta.touched = true;
        if self.scalar {
            self.refresh_scalar(&mut delta, counters);
            return delta;
        }
        // Phase 1: apply membership edits to the per-group row sets and
        // collect the touched groups (flag vector: O(1) per mark).
        let mut dirty: Vec<u32> = Vec::new();
        let mut keybuf = vec![Value(0); self.keep_idx.len()];
        for i in 0..d.removed.len() {
            let s = self.slot_of(d.removed.key(i), d.removed.row(i), &mut keybuf);
            let slot = &mut self.slots[s as usize];
            let pos = lower_bound(&slot.rows, self.ck, d.removed.key(i));
            slot.rows.drain(pos * self.ck..(pos + 1) * self.ck);
            slot.probs.remove(pos);
            if !std::mem::replace(&mut self.dirty_flag[s as usize], true) {
                dirty.push(s);
            }
        }
        for i in 0..d.updated.len() {
            let s = self.slot_of(d.updated.key(i), d.updated.row(i), &mut keybuf);
            let slot = &mut self.slots[s as usize];
            let pos = lower_bound(&slot.rows, self.ck, d.updated.key(i));
            slot.probs[pos] = d.updated.prob(i);
            if !std::mem::replace(&mut self.dirty_flag[s as usize], true) {
                dirty.push(s);
            }
        }
        let added = d.added(self.child.out());
        for i in 0..added.len() {
            gather_key(added.row(i), &self.keep_idx, &mut keybuf);
            let (s, new) = self.groups.intern(&keybuf);
            if new {
                self.slots.push(GroupSlot::default());
                self.dirty_flag.push(false);
            }
            let s = s as u32;
            if self.ck == 1 {
                note_child_key(&mut self.slot_by_child_key, added.key(i)[0], s);
            }
            let slot = &mut self.slots[s as usize];
            let pos = lower_bound(&slot.rows, self.ck, added.key(i));
            let at = pos * self.ck;
            slot.rows.splice(at..at, added.key(i).iter().copied());
            slot.probs.insert(pos, added.prob(i));
            if !std::mem::replace(&mut self.dirty_flag[s as usize], true) {
                dirty.push(s);
            }
        }
        dirty.sort_unstable();
        for &s in &dirty {
            self.dirty_flag[s as usize] = false;
        }

        // Phase 2: refold every touched group from its stored rows in row
        // order — morsel-parallel over groups; each group folds wholly on
        // one worker, results stitch in group order.
        let slots = &self.slots;
        let folded: Vec<Vec<(u32, Option<f64>, u64)>> = pool.map_morsels(dirty.len(), |r| {
            let mut out = Vec::with_capacity(r.len());
            for di in r {
                let s = dirty[di];
                let probs = &slots[s as usize].probs;
                let p = (!probs.is_empty()).then(|| f64::independent_or(probs));
                out.push((s, p, probs.len() as u64));
            }
            out
        });

        // Phase 3: emit group-level edits in stable-key order.
        let mut rem: Vec<u64> = Vec::new(); // stride ck
        let mut upd: Vec<u32> = Vec::new();
        let mut add: Vec<u32> = Vec::new();
        for (s, prob, rows_walked) in folded.into_iter().flatten() {
            counters.rows_retouched += rows_walked;
            counters.groups_refolded += 1;
            let slot = &mut self.slots[s as usize];
            match prob {
                None => {
                    if slot.present {
                        rem.extend_from_slice(&slot.out_key);
                        slot.present = false;
                    }
                }
                Some(p) => {
                    let newmin = slot.rows[..self.ck].to_vec();
                    if !slot.present {
                        slot.present = true;
                        slot.out_key = newmin;
                        slot.prob = p;
                        add.push(s);
                    } else if slot.out_key != newmin {
                        rem.extend_from_slice(&slot.out_key);
                        slot.out_key = newmin;
                        slot.prob = p;
                        add.push(s);
                    } else if slot.prob.to_bits() != p.to_bits() {
                        slot.prob = p;
                        upd.push(s);
                    }
                }
            }
        }
        delta.removed = self.out.remove_sorted_keys(&sorted_keys(&rem, self.ck));
        if self.ck == 1 {
            // Sort by the (single-word) output key without touching the
            // slot heap blocks during comparisons.
            let mut keyed: Vec<(u64, u32)> = upd
                .iter()
                .map(|&s| (self.slots[s as usize].out_key[0], s))
                .collect();
            keyed.sort_unstable();
            upd.clear();
            upd.extend(keyed.into_iter().map(|(_, s)| s));
        } else {
            upd.sort_by(|&a, &b| {
                self.slots[a as usize]
                    .out_key
                    .cmp(&self.slots[b as usize].out_key)
            });
        }
        let mut ucur = 0usize;
        for &s in &upd {
            let slot = &self.slots[s as usize];
            let idx = self.out.lower_bound_from(ucur, &slot.out_key);
            debug_assert!(
                self.out.key(idx) == slot.out_key.as_slice(),
                "updated group is live"
            );
            ucur = idx + 1;
            self.out.probs[idx] = slot.prob;
            if detail == DeltaDetail::Full {
                // Key and values live contiguously in the output buffer.
                delta
                    .updated
                    .push(self.out.key(idx), self.out.row(idx), slot.prob);
            }
        }
        add.sort_by(|&a, &b| {
            self.slots[a as usize]
                .out_key
                .cmp(&self.slots[b as usize].out_key)
        });
        for &s in &add {
            let slot = &self.slots[s as usize];
            let vals = self.groups.key(s as usize);
            delta.added.push(&slot.out_key, vals, slot.prob);
        }
        counters.rows_retouched += delta.rows();
        delta.commit_added(&mut self.out);
        delta
    }

    /// Boolean aggregation: the single group spans every child row, so a
    /// bit-exact refold is one linear pass over the child output (the same
    /// multiplication sequence as a cold execution's fold).
    fn refresh_scalar(&mut self, delta: &mut OpDelta, counters: &mut RefreshCounters) {
        let cin: &KeyedRel = self.child.out();
        counters.groups_refolded += 1;
        counters.rows_retouched += cin.len() as u64;
        let slot = &mut self.slots[0];
        if cin.is_empty() {
            if slot.present {
                delta.removed.push(&slot.out_key.clone(), &[], slot.prob);
                slot.present = false;
                self.out = KeyedRel::new(Vec::new(), self.ck);
            }
            return;
        }
        let p = f64::independent_or(&cin.probs);
        let newmin = cin.key(0).to_vec();
        if !slot.present {
            slot.present = true;
            slot.out_key = newmin;
            slot.prob = p;
            delta.added.push(&slot.out_key, &[], p);
        } else if slot.out_key != newmin {
            delta.removed.push(&slot.out_key.clone(), &[], slot.prob);
            slot.out_key = newmin;
            slot.prob = p;
            delta.added.push(&slot.out_key, &[], p);
        } else if slot.prob.to_bits() != p.to_bits() {
            slot.prob = p;
            delta.updated.push(&slot.out_key, &[], p);
        } else {
            return;
        }
        self.out = KeyedRel::new(Vec::new(), self.ck);
        self.out.push(&slot.out_key, &[], slot.prob);
    }
}

/// Record `key → slot` in a project's dense fast-path index (`ck == 1`
/// only).
fn note_child_key(index: &mut Vec<u32>, key: u64, slot: u32) {
    let i = key as usize;
    if i >= index.len() {
        index.resize(i + 1, u32::MAX);
    }
    index[i] = slot;
}
