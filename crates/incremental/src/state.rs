//! Per-operator materialized state and delta propagation.
//!
//! Every plan operator keeps its full output as a [`KeyedRel`] plus the
//! auxiliary structure that makes a refresh cheap:
//!
//! * **scan** — the compiled per-position slots and the matching rows in
//!   tuple-id order; a delta re-checks only the changed tuples;
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
//! Deltas between operators are value-carrying row sets
//! ([`OpDelta`]: removed, probability-updated, added), always sorted by
//! stable key and pairwise key-disjoint within one refresh.

use crate::keyed::{sorted_carrier, KeyedRel};
use crate::view::RefreshCounters;
use cq::{Atom, CompOp, Pred, RelId, Term, Value, Var};
use exec_parallel::Pool;
use pdb::{ChangeKind, ProbDb, ShardMap, TupleChange, TupleId};
use safeplan::PlanNode;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

/// The executor's cheap deterministic FNV hasher — keys are trusted
/// in-process values (packed `Value`s / tuple ids), not attacker input,
/// and SipHash is measurably the hot-path cost at delta rates.
pub(crate) type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<safeplan::FnvHasher>>;

// Probability arithmetic note: every fold below uses the literal `f64`
// operations of `lineage::ProbValue` for f64 — `mul` is `*`, `complement`
// is `1.0 - x`, `one` is `1.0` — in the executor's exact sequence, which
// is what makes refreshed buffers bit-identical to a cold execution. The
// agreement property tests pin this.

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

/// Pending log entries flattened and coalesced per tuple id (an insert
/// later deleted nets out; an update before a delete is just the delete),
/// sorted ascending by id. Current args/probs are read from the database —
/// only the *membership* transitions need the history.
pub(crate) fn coalesce<'a>(
    batches: impl Iterator<Item = &'a pdb::AppliedDelta>,
) -> Vec<(TupleId, RelId, NetChange)> {
    let mut net: FnvMap<u32, (RelId, Option<NetChange>)> = FnvMap::default();
    for batch in batches {
        for TupleChange { id, rel, kind } in &batch.changes {
            let entry = net.entry(id.0).or_insert((*rel, None));
            entry.1 = match (entry.1, kind) {
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
    }
    let mut out: Vec<(TupleId, RelId, NetChange)> = net
        .into_iter()
        .filter_map(|(id, (rel, ch))| ch.map(|c| (TupleId(id), rel, c)))
        .collect();
    out.sort_by_key(|&(id, _, _)| id);
    out
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
    pub added: KeyedRel,
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
            touched: false,
        }
    }

    pub fn is_empty(&self) -> bool {
        !self.touched && self.removed.is_empty() && self.updated.is_empty() && self.added.is_empty()
    }

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
    /// Build the materialized state of `plan` against `db`. The resulting
    /// output buffers are bit-for-bit the cold executor's.
    pub fn build(db: &ProbDb, plan: &PlanNode) -> Result<Node, Unsupported> {
        Node::build_node(db, plan, true)
    }

    fn build_node(db: &ProbDb, plan: &PlanNode, is_root: bool) -> Result<Node, Unsupported> {
        Ok(match plan {
            PlanNode::Certain => {
                let mut out = KeyedRel::new(Vec::new(), 0);
                out.push(&[], &[], 1.0);
                Node::Const(out)
            }
            PlanNode::Never => Node::Const(KeyedRel::new(Vec::new(), 0)),
            PlanNode::ComplementScan { .. } => return Err(Unsupported::ComplementScan),
            PlanNode::Scan { atom } => Node::Scan(ScanState::build(db, atom, !is_root)),
            PlanNode::Select { pred, input } => {
                let child = Node::build_node(db, input, false)?;
                Node::Select(SelectState::build(*pred, child))
            }
            PlanNode::IndependentJoin { inputs } => match inputs.len() {
                0 => Node::build_node(db, &PlanNode::Certain, is_root)?,
                1 => Node::build_node(db, &inputs[0], is_root)?,
                _ => {
                    let children = inputs
                        .iter()
                        .map(|i| Node::build_node(db, i, false))
                        .collect::<Result<Vec<_>, _>>()?;
                    Node::Join(JoinState::build(children))
                }
            },
            PlanNode::IndependentProject { keep, input } => {
                let child = Node::build_node(db, input, false)?;
                Node::Project(ProjectState::build(keep.clone(), child))
            }
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

    /// Propagate the net tuple changes through the subtree, updating every
    /// materialized output, and return the changes to this node's output.
    #[allow(clippy::too_many_arguments)]
    pub fn refresh(
        &mut self,
        db: &ProbDb,
        net: &[(TupleId, RelId, NetChange)],
        pool: &Pool,
        shards: usize,
        detail: DeltaDetail,
        counters: &mut RefreshCounters,
        shard_rows: &mut Vec<u64>,
    ) -> OpDelta {
        match self {
            Node::Const(out) => OpDelta::empty(out.arity, out.kstride),
            Node::Scan(s) => s.refresh(db, net, pool, shards, counters, shard_rows),
            Node::Select(s) => s.refresh(db, net, pool, shards, detail, counters, shard_rows),
            Node::Join(s) => s.refresh(db, net, pool, shards, detail, counters, shard_rows),
            Node::Project(s) => s.refresh(db, net, pool, shards, detail, counters, shard_rows),
        }
    }
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// One argument position's demand, compiled once (mirrors the executor's
/// scan compilation, so the surviving rows — and their order — match).
#[derive(Clone, Copy, Debug)]
enum Slot {
    Const(Value),
    Bind(usize),
    Check(usize),
}

fn compile_slots(atom: &Atom, cols: &[Var]) -> Vec<Slot> {
    let mut seen = vec![false; cols.len()];
    atom.args
        .iter()
        .map(|term| match term {
            Term::Const(c) => Slot::Const(*c),
            Term::Var(v) => {
                let ci = cols.iter().position(|c| c == v).expect("own var");
                if seen[ci] {
                    Slot::Check(ci)
                } else {
                    seen[ci] = true;
                    Slot::Bind(ci)
                }
            }
        })
        .collect()
}

fn match_tuple(slots: &[Slot], args: &[Value], rowbuf: &mut [Value]) -> bool {
    for (pos, slot) in slots.iter().enumerate() {
        let got = args[pos];
        match *slot {
            Slot::Const(c) => {
                if got != c {
                    return false;
                }
            }
            Slot::Bind(ci) => rowbuf[ci] = got,
            Slot::Check(ci) => {
                if rowbuf[ci] != got {
                    return false;
                }
            }
        }
    }
    true
}

pub(crate) struct ScanState {
    rel: RelId,
    slots: Vec<Slot>,
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
    fn build(db: &ProbDb, atom: &Atom, defer_removals: bool) -> ScanState {
        assert!(!atom.negated, "plans scan positive atoms only");
        let cols = atom.vars();
        let slots = compile_slots(atom, &cols);
        let mut out = KeyedRel::new(cols, 1);
        let mut rowbuf = vec![Value(0); out.arity];
        for &id in db.tuples_of(atom.rel) {
            let t = db.tuple(id);
            if match_tuple(&slots, &t.args, &mut rowbuf) {
                out.push(&[u64::from(id.0)], &rowbuf, db.prob(id));
            }
        }
        ScanState {
            rel: atom.rel,
            slots,
            out,
            tombstones: Vec::new(),
            defer_removals,
        }
    }

    /// Match this relation's net-added ids against the compiled slots,
    /// hash-partitioned over `shards` shards on the pool — the same
    /// shard/merge stage as the DAG executor's sharded scans. Each shard
    /// returns ascending positions into `ids` plus the survivor rows;
    /// merging by position restores `net` order bit for bit.
    #[allow(clippy::type_complexity)]
    fn match_added_sharded(
        &self,
        db: &ProbDb,
        ids: &[TupleId],
        pool: &Pool,
        shards: usize,
    ) -> Vec<(Vec<u32>, Vec<Value>, Vec<f64>)> {
        let map = ShardMap::new(shards);
        let parts = map.split_positions(ids);
        pool.map_partitions(parts.len(), |s| {
            let mut pos: Vec<u32> = Vec::new();
            let mut rows: Vec<Value> = Vec::new();
            let mut probs: Vec<f64> = Vec::new();
            let mut rowbuf = vec![Value(0); self.out.arity];
            for &p in &parts[s] {
                let id = ids[p as usize];
                if match_tuple(&self.slots, &db.tuple(id).args, &mut rowbuf) {
                    pos.push(p);
                    rows.extend_from_slice(&rowbuf);
                    probs.push(db.prob(id));
                }
            }
            (pos, rows, probs)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn refresh(
        &mut self,
        db: &ProbDb,
        net: &[(TupleId, RelId, NetChange)],
        pool: &Pool,
        shards: usize,
        counters: &mut RefreshCounters,
        shard_rows: &mut Vec<u64>,
    ) -> OpDelta {
        if shard_rows.len() < shards.max(1) {
            shard_rows.resize(shards.max(1), 0);
        }
        let _span = telemetry::span("scan-delta");
        let mut delta = OpDelta::empty(self.out.arity, 1);
        let mut rem_keys: Vec<u64> = Vec::new();
        if shards > 1 {
            // Sharded candidate matching: collect this relation's added ids
            // (ascending — `net` ascends), match per shard, merge ascending.
            // Added rows only ever land in `delta.added`, so hoisting them
            // out of the serial walk leaves the delta byte-identical.
            let ids: Vec<TupleId> = net
                .iter()
                .filter(|&&(_, rel, change)| rel == self.rel && change == NetChange::Added)
                .map(|&(id, _, _)| id)
                .collect();
            let outs = self.match_added_sharded(db, &ids, pool, shards);
            for (s, out) in outs.iter().enumerate() {
                shard_rows[s] += out.2.len() as u64;
            }
            let arity = self.out.arity;
            let mut cursors = vec![0usize; outs.len()];
            loop {
                let mut best: Option<(u32, usize)> = None;
                for (s, out) in outs.iter().enumerate() {
                    if cursors[s] < out.0.len() {
                        let p = out.0[cursors[s]];
                        if best.is_none_or(|(b, _)| p < b) {
                            best = Some((p, s));
                        }
                    }
                }
                let Some((p, s)) = best else { break };
                let i = cursors[s];
                cursors[s] += 1;
                let key = [u64::from(ids[p as usize].0)];
                delta
                    .added
                    .push(&key, &outs[s].1[i * arity..(i + 1) * arity], outs[s].2[i]);
            }
            // Sharded Removed/Updated matching, same discipline: the
            // buffer lookups (the O(log n) part) run per shard over the
            // *immutable* buffer — positions cannot move until the apply
            // pass below and the `merge_added` at the end — then the
            // mutations replay serially in merged ascending-id order, so
            // the delta lists and buffer stay byte-identical to the
            // serial walk's.
            let touched: Vec<(TupleId, NetChange)> = net
                .iter()
                .filter(|&&(_, rel, change)| rel == self.rel && change != NetChange::Added)
                .map(|&(id, _, change)| (id, change))
                .collect();
            let tids: Vec<TupleId> = touched.iter().map(|&(id, _)| id).collect();
            let map = ShardMap::new(shards);
            let parts = map.split_positions(&tids);
            let out_ref = &self.out;
            let hit_lists: Vec<Vec<(u32, usize)>> = pool.map_partitions(parts.len(), |s| {
                let mut hits = Vec::new();
                // Positions ascend within a shard, so each shard keeps
                // its own monotonic window into the buffer.
                let mut cursor = 0usize;
                for &p in &parts[s] {
                    let key = [u64::from(tids[p as usize].0)];
                    let lb = out_ref.lower_bound_from(cursor, &key);
                    cursor = lb;
                    if lb < out_ref.len() && out_ref.key(lb) == key {
                        hits.push((p, lb));
                        cursor = lb + 1;
                    }
                }
                hits
            });
            for (s, hits) in hit_lists.iter().enumerate() {
                shard_rows[s] += hits.len() as u64;
            }
            let mut cursors = vec![0usize; hit_lists.len()];
            loop {
                let mut best: Option<(u32, usize)> = None;
                for (s, hits) in hit_lists.iter().enumerate() {
                    if let Some(&(p, _)) = hits.get(cursors[s]) {
                        if best.is_none_or(|(b, _)| p < b) {
                            best = Some((p, s));
                        }
                    }
                }
                let Some((p, s)) = best else { break };
                let lb = hit_lists[s][cursors[s]].1;
                cursors[s] += 1;
                let (id, change) = touched[p as usize];
                let key = [u64::from(id.0)];
                if change == NetChange::Removed {
                    if self.defer_removals {
                        // Tombstone: the parent learns through the delta;
                        // the buffer stays fold-equivalent.
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
        } else {
            let mut rowbuf = vec![Value(0); self.out.arity];
            // `net` ascends by id, so each delta list comes out key-sorted
            // — and every lookup can window past the previous hit.
            let mut cursor = 0usize;
            for &(id, rel, change) in net {
                if rel != self.rel {
                    continue;
                }
                let key = [u64::from(id.0)];
                match change {
                    NetChange::Added => {
                        let t = db.tuple(id);
                        if match_tuple(&self.slots, &t.args, &mut rowbuf) {
                            delta.added.push(&key, &rowbuf, db.prob(id));
                            shard_rows[0] += 1;
                        }
                    }
                    NetChange::Removed | NetChange::Updated => {
                        let lb = self.out.lower_bound_from(cursor, &key);
                        cursor = lb;
                        if lb < self.out.len() && self.out.key(lb) == key {
                            shard_rows[0] += 1;
                            if change == NetChange::Removed {
                                if self.defer_removals {
                                    // Tombstone: the parent learns through
                                    // the delta; the buffer stays
                                    // fold-equivalent.
                                    delta
                                        .removed
                                        .push(&key, self.out.row(lb), self.out.probs[lb]);
                                    self.out.probs[lb] = 0.0;
                                    self.tombstones.push(key[0]);
                                } else {
                                    rem_keys.extend_from_slice(&key);
                                }
                            } else {
                                let p = db.prob(id);
                                self.out.probs[lb] = p;
                                delta.updated.push(&key, self.out.row(lb), p);
                            }
                            cursor = lb + 1;
                        }
                    }
                }
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
        self.out.merge_added(&delta.added);
        delta.touched =
            !delta.removed.is_empty() || !delta.updated.is_empty() || !delta.added.is_empty();
        counters.rows_retouched += delta.rows();
        delta
    }
}

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum PredSrc {
    Col(usize),
    Const(Value),
}

fn compile_pred_src(t: &Term, cols: &[Var]) -> PredSrc {
    match t {
        Term::Const(c) => PredSrc::Const(*c),
        Term::Var(v) => PredSrc::Col(cols.iter().position(|c| c == v).expect("select var bound")),
    }
}

pub(crate) struct SelectState {
    op: CompOp,
    lhs: PredSrc,
    rhs: PredSrc,
    child: Box<Node>,
    out: KeyedRel,
}

impl SelectState {
    fn build(pred: Pred, child: Node) -> SelectState {
        let cin = child.out();
        let lhs = compile_pred_src(&pred.lhs, &cin.cols);
        let rhs = compile_pred_src(&pred.rhs, &cin.cols);
        let mut out = KeyedRel::new(cin.cols.clone(), cin.kstride);
        for i in 0..cin.len() {
            if eval_compiled(pred.op, lhs, rhs, cin.row(i)) {
                out.push(cin.key(i), cin.row(i), cin.prob(i));
            }
        }
        SelectState {
            op: pred.op,
            lhs,
            rhs,
            child: Box::new(child),
            out,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn refresh(
        &mut self,
        db: &ProbDb,
        net: &[(TupleId, RelId, NetChange)],
        pool: &Pool,
        shards: usize,
        detail: DeltaDetail,
        counters: &mut RefreshCounters,
        shard_rows: &mut Vec<u64>,
    ) -> OpDelta {
        // A select must see full child updates to mirror probability
        // changes into its own buffer, whatever the parent asked for.
        let d = self.child.refresh(
            db,
            net,
            pool,
            shards,
            DeltaDetail::Full,
            counters,
            shard_rows,
        );
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
        for i in 0..d.added.len() {
            if eval_compiled(self.op, self.lhs, self.rhs, d.added.row(i)) {
                delta
                    .added
                    .push(d.added.key(i), d.added.row(i), d.added.prob(i));
            }
        }
        self.out.merge_added(&delta.added);
        counters.rows_retouched += delta.rows();
        delta
    }
}

fn eval_compiled(op: CompOp, lhs: PredSrc, rhs: PredSrc, row: &[Value]) -> bool {
    let resolve = |s: PredSrc| match s {
        PredSrc::Col(i) => row[i],
        PredSrc::Const(c) => c,
    };
    let (l, r) = (resolve(lhs), resolve(rhs));
    match op {
        CompOp::Lt => l < r,
        CompOp::Eq => l == r,
        CompOp::Ne => l != r,
    }
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

/// Join-value index of one side: join-column values → the side's stable
/// row keys holding them, flat and ascending (the back-pointers a probe
/// follows). The executor's build-side hash table, kept alive and
/// delta-maintained instead of rebuilt per execution.
struct ValIndex {
    kstride: usize,
    map: FnvMap<Vec<Value>, Vec<u64>>,
}

impl ValIndex {
    fn new(kstride: usize) -> ValIndex {
        ValIndex {
            kstride,
            map: FnvMap::default(),
        }
    }

    fn get(&self, vals: &[Value]) -> &[u64] {
        self.map.get(vals).map_or(&[], |v| v.as_slice())
    }

    fn insert(&mut self, vals: &[Value], key: &[u64]) {
        debug_assert!(self.kstride > 0, "const sides are never indexed");
        if let Some(list) = self.map.get_mut(vals) {
            let pos = chunk_lower_bound(list, self.kstride, key);
            list.splice(pos * self.kstride..pos * self.kstride, key.iter().copied());
        } else {
            self.map.insert(vals.to_vec(), key.to_vec());
        }
    }

    fn remove(&mut self, vals: &[Value], key: &[u64]) {
        let list = self.map.get_mut(vals).expect("indexed row");
        let pos = chunk_lower_bound(list, self.kstride, key);
        debug_assert_eq!(&list[pos * self.kstride..(pos + 1) * self.kstride], key);
        list.drain(pos * self.kstride..(pos + 1) * self.kstride);
        if list.is_empty() {
            self.map.remove(vals);
        }
    }
}

/// First chunk index in `flat` (stride `k`, chunks ascending) not below
/// `key`.
fn chunk_lower_bound(flat: &[u64], k: usize, key: &[u64]) -> usize {
    let n = flat.len() / k;
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if &flat[mid * k..(mid + 1) * k] < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One binary stage of the executor's left-fold over join inputs.
struct Stage {
    /// Positions of the join columns in the left/right schemas.
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    /// Right columns that are not join columns, in schema order.
    right_extra: Vec<usize>,
    /// Stable-key strides of the two sides.
    lk: usize,
    rk: usize,
    left_index: ValIndex,
    right_index: ValIndex,
    /// Output: key = left key ++ right key (lexicographic = the cold
    /// executor's probe-major order), values = left row ++ right extras,
    /// probability = product.
    out: KeyedRel,
}

impl Stage {
    fn build(left: &KeyedRel, right: &KeyedRel) -> Stage {
        let common: Vec<Var> = left
            .cols
            .iter()
            .copied()
            .filter(|c| right.cols.contains(c))
            .collect();
        let left_key: Vec<usize> = common
            .iter()
            .map(|c| left.cols.iter().position(|l| l == c).unwrap())
            .collect();
        let right_key: Vec<usize> = common
            .iter()
            .map(|c| right.cols.iter().position(|r| r == c).unwrap())
            .collect();
        let right_extra: Vec<usize> = (0..right.cols.len())
            .filter(|&i| !common.contains(&right.cols[i]))
            .collect();
        let mut out_cols = left.cols.clone();
        out_cols.extend(right_extra.iter().map(|&i| right.cols[i]));
        let mut stage = Stage {
            left_key,
            right_key,
            right_extra,
            lk: left.kstride,
            rk: right.kstride,
            left_index: ValIndex::new(left.kstride),
            right_index: ValIndex::new(right.kstride),
            out: KeyedRel::new(out_cols, left.kstride + right.kstride),
        };
        for j in 0..right.len() {
            if stage.rk > 0 {
                stage
                    .right_index
                    .insert(&extract(right.row(j), &stage.right_key), right.key(j));
            }
        }
        for i in 0..left.len() {
            if stage.lk > 0 {
                stage
                    .left_index
                    .insert(&extract(left.row(i), &stage.left_key), left.key(i));
            }
        }
        // Probe-major emission over the sorted left side: output keys
        // ascend by construction. Field-level destructuring keeps the
        // index borrow apart from the output writes.
        let Stage {
            left_key,
            right_extra,
            rk,
            right_index,
            out,
            ..
        } = &mut stage;
        let mut keybuf = vec![0u64; out.kstride];
        let mut valbuf = vec![Value(0); out.arity];
        let mut emit = |out: &mut KeyedRel, i: usize, j: usize| {
            pair_key_into(&mut keybuf, left.key(i), right.key(j));
            pair_vals_into(&mut valbuf, left.row(i), right.row(j), right_extra);
            out.push(&keybuf, &valbuf, left.prob(i) * right.prob(j));
        };
        for i in 0..left.len() {
            if *rk == 0 {
                if !right.is_empty() {
                    emit(out, i, 0);
                }
                continue;
            }
            let lvals = extract(left.row(i), left_key);
            for chunk in right_index.get(&lvals).chunks(*rk) {
                let j = right.find(chunk).expect("indexed right row");
                emit(out, i, j);
            }
        }
        stage
    }

    /// Propagate one refresh through this stage. `left`/`right` are the
    /// post-edit side outputs, `dl`/`dr` their deltas.
    #[allow(clippy::too_many_arguments)]
    fn refresh(
        &mut self,
        left: &KeyedRel,
        dl: &OpDelta,
        right: &KeyedRel,
        dr: &OpDelta,
        pool: &Pool,
        detail: DeltaDetail,
        counters: &mut RefreshCounters,
    ) -> OpDelta {
        let mut delta = OpDelta::empty(self.out.arity, self.out.kstride);
        if dl.is_empty() && dr.is_empty() {
            return delta;
        }
        delta.touched = true;
        let mut valbuf: Vec<Value> = Vec::new();
        // 1. Forget removed rows on both side indexes.
        for i in 0..dl.removed.len() {
            if self.lk > 0 {
                extract_into(&mut valbuf, dl.removed.row(i), &self.left_key);
                self.left_index.remove(&valbuf, dl.removed.key(i));
            }
        }
        for j in 0..dr.removed.len() {
            if self.rk > 0 {
                extract_into(&mut valbuf, dr.removed.row(j), &self.right_key);
                self.right_index.remove(&valbuf, dr.removed.key(j));
            }
        }
        // 2. Remove output pairs: every pair under a removed left key
        //    (contiguous prefix ranges), plus surviving-left × removed-right
        //    pairs found through the (already pruned) left index.
        let mut rem: Vec<Vec<u64>> = Vec::new();
        for i in 0..dl.removed.len() {
            let range = self.out.prefix_range(dl.removed.key(i));
            for idx in range {
                rem.push(self.out.key(idx).to_vec());
            }
        }
        for j in 0..dr.removed.len() {
            extract_into(&mut valbuf, dr.removed.row(j), &self.right_key);
            for lk in index_keys(&self.left_index, self.lk, &valbuf, left) {
                rem.push(pair_key(&lk, dr.removed.key(j)));
            }
        }
        rem.sort();
        let rem_flat: Vec<u64> = rem.iter().flatten().copied().collect();
        delta.removed = self.out.remove_sorted_keys(&rem_flat);

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
            padded[..self.lk].copy_from_slice(lkey);
            padded[self.lk..].fill(0);
            let mut idx = self.out.lower_bound_from(pcur, &padded);
            while idx < self.out.len() && &self.out.key(idx)[..self.lk] == lkey {
                lp_rkeys.extend_from_slice(&self.out.key(idx)[self.lk..]);
                lp_aux.push((idx as u32, lp));
                idx += 1;
            }
            pcur = idx;
        }
        let rk = self.rk.max(1);
        let mut order: Vec<u32> = (0..lp_aux.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            lp_rkeys[a * rk..(a + 1) * rk].cmp(&lp_rkeys[b * rk..(b + 1) * rk])
        });
        let mut rcur = 0usize;
        for &o in &order {
            let o = o as usize;
            let rkey = &lp_rkeys[o * rk..(o + 1) * rk];
            let ridx = right.lower_bound_from(rcur, rkey);
            debug_assert!(right.key(ridx) == rkey, "right row of live pair");
            rcur = ridx; // several pairs may share one right row
            let (idx, lp) = lp_aux[o];
            upd.push((idx as usize, lp * right.prob(ridx)));
        }
        // Right-side updates: candidate pair keys flat, sorted by index,
        // resolved by one cursor-windowed pass over output and left side.
        let ks = self.out.kstride;
        let mut cand_keys: Vec<u64> = Vec::new(); // stride ks
        let mut cand_rp: Vec<f64> = Vec::new();
        for j in 0..dr.updated.len() {
            extract_into(&mut valbuf, dr.updated.row(j), &self.right_key);
            let rp = dr.updated.prob(j);
            if self.lk > 0 {
                for lk in self.left_index.get(&valbuf).chunks(self.lk) {
                    cand_keys.extend_from_slice(lk);
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
                let lidx = left.lower_bound_from(lcur, &key[..self.lk]);
                debug_assert!(left.key(lidx) == &key[..self.lk], "left row of live pair");
                lcur = lidx; // several pairs may share one left row
                upd.push((lb, left.prob(lidx) * cand_rp[o]));
                ocur = lb + 1;
            }
        }
        upd.sort_unstable_by_key(|&(idx, _)| idx);
        upd.dedup_by_key(|&mut (idx, _)| idx);
        counters.rows_retouched += upd.len() as u64;
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
        //    Probes are morsel-parallel — results stitch in morsel order,
        //    then one sort restores the global key order.
        for j in 0..dr.added.len() {
            if self.rk > 0 {
                extract_into(&mut valbuf, dr.added.row(j), &self.right_key);
                self.right_index.insert(&valbuf, dr.added.key(j));
            }
        }
        let mut pairs: Vec<(Vec<u64>, Vec<Value>, f64)> = Vec::new();
        let left_chunks = pool.map_morsels(dl.added.len(), |r| {
            let mut out = Vec::new();
            for i in r {
                let lvals = extract(dl.added.row(i), &self.left_key);
                for rk in index_keys(&self.right_index, self.rk, &lvals, right) {
                    let j = right.find(&rk).expect("indexed right row");
                    out.push((
                        pair_key(dl.added.key(i), &rk),
                        pair_vals(dl.added.row(i), right.row(j), &self.right_extra),
                        dl.added.prob(i) * right.prob(j),
                    ));
                }
            }
            out
        });
        for c in left_chunks {
            pairs.extend(c);
        }
        let right_chunks = pool.map_morsels(dr.added.len(), |r| {
            let mut out = Vec::new();
            for j in r {
                let rvals = extract(dr.added.row(j), &self.right_key);
                for lk in index_keys(&self.left_index, self.lk, &rvals, left) {
                    let i = left.find(&lk).expect("indexed left row");
                    out.push((
                        pair_key(&lk, dr.added.key(j)),
                        pair_vals(left.row(i), dr.added.row(j), &self.right_extra),
                        left.prob(i) * dr.added.prob(j),
                    ));
                }
            }
            out
        });
        for c in right_chunks {
            pairs.extend(c);
        }
        for i in 0..dl.added.len() {
            if self.lk > 0 {
                extract_into(&mut valbuf, dl.added.row(i), &self.left_key);
                self.left_index.insert(&valbuf, dl.added.key(i));
            }
        }
        delta.added = sorted_carrier(self.out.arity, self.out.kstride, pairs);
        self.out.merge_added(&delta.added);
        counters.rows_retouched += delta.rows();
        delta
    }
}

/// The side keys matching `vals`: through the value index for keyed sides,
/// or the single constant row for a 0-stride side (whose join-column set is
/// necessarily empty).
fn index_keys(index: &ValIndex, kstride: usize, vals: &[Value], side: &KeyedRel) -> Vec<Vec<u64>> {
    if kstride == 0 {
        return if side.is_empty() {
            Vec::new()
        } else {
            vec![Vec::new()]
        };
    }
    index
        .get(vals)
        .chunks(kstride)
        .map(<[u64]>::to_vec)
        .collect()
}

fn extract(row: &[Value], idx: &[usize]) -> Vec<Value> {
    idx.iter().map(|&i| row[i]).collect()
}

/// [`extract`] into a reusable buffer — the hot probe loops' key builder.
fn extract_into(buf: &mut Vec<Value>, row: &[Value], idx: &[usize]) {
    buf.clear();
    buf.extend(idx.iter().map(|&i| row[i]));
}

fn pair_key(lk: &[u64], rk: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(lk.len() + rk.len());
    out.extend_from_slice(lk);
    out.extend_from_slice(rk);
    out
}

fn pair_key_into(buf: &mut [u64], lk: &[u64], rk: &[u64]) {
    buf[..lk.len()].copy_from_slice(lk);
    buf[lk.len()..].copy_from_slice(rk);
}

fn pair_vals(lrow: &[Value], rrow: &[Value], right_extra: &[usize]) -> Vec<Value> {
    let mut out = Vec::with_capacity(lrow.len() + right_extra.len());
    out.extend_from_slice(lrow);
    for &e in right_extra {
        out.push(rrow[e]);
    }
    out
}

fn pair_vals_into(buf: &mut [Value], lrow: &[Value], rrow: &[Value], right_extra: &[usize]) {
    buf[..lrow.len()].copy_from_slice(lrow);
    for (slot, &e) in buf[lrow.len()..].iter_mut().zip(right_extra) {
        *slot = rrow[e];
    }
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
    fn build(children: Vec<Node>) -> JoinState {
        let is_certain = |n: &Node| matches!(n, Node::Const(out) if !out.is_empty());
        let is_never = |n: &Node| matches!(n, Node::Const(out) if out.is_empty());
        if children.iter().any(is_never) {
            // Fold the schema the executor would produce; rows: none, ever.
            let mut cols: Vec<Var> = Vec::new();
            for c in &children {
                for &v in &c.out().cols {
                    if !cols.contains(&v) {
                        cols.push(v);
                    }
                }
            }
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
            let stage = Stage::build(left, children[active[w]].out());
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

    #[allow(clippy::too_many_arguments)]
    fn refresh(
        &mut self,
        db: &ProbDb,
        net: &[(TupleId, RelId, NetChange)],
        pool: &Pool,
        shards: usize,
        detail: DeltaDetail,
        counters: &mut RefreshCounters,
        shard_rows: &mut Vec<u64>,
    ) -> OpDelta {
        let mut deltas: Vec<OpDelta> = self
            .children
            .iter_mut()
            .map(|c| {
                c.refresh(
                    db,
                    net,
                    pool,
                    shards,
                    DeltaDetail::Full,
                    counters,
                    shard_rows,
                )
            })
            .collect();
        let _span = telemetry::span("join-delta");
        if let Some(out) = &self.fixed_out {
            return OpDelta::empty(out.arity, out.kstride);
        }
        let mut acc = std::mem::replace(
            &mut deltas[self.active[0]],
            OpDelta::empty(0, 0), // placeholder, never read again
        );
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
            acc = rest[0].refresh(
                left,
                &acc,
                right,
                &deltas[self.active[w]],
                pool,
                want,
                counters,
            );
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Independent project
// ---------------------------------------------------------------------------

struct GroupSlot {
    /// The group's key values (its output row).
    vals: Vec<Value>,
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
    keep: Vec<Var>,
    keep_idx: Vec<usize>,
    /// Boolean aggregation (`keep = []`): one group holding every child
    /// row; refolded by a linear pass instead of per-group row sets.
    scalar: bool,
    child: Box<Node>,
    /// Child stable-key stride (also the output key stride: a group is
    /// keyed by its minimum child key).
    ck: usize,
    groups: FnvMap<Vec<Value>, u32>,
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
    fn build(keep: Vec<Var>, child: Node) -> ProjectState {
        let cin = child.out();
        let keep_idx: Vec<usize> = keep
            .iter()
            .map(|v| cin.cols.iter().position(|c| c == v).expect("keep column"))
            .collect();
        let scalar = keep.is_empty();
        let ck = cin.kstride;
        let mut state = ProjectState {
            keep: keep.clone(),
            keep_idx,
            scalar,
            ck,
            groups: FnvMap::default(),
            slots: Vec::new(),
            dirty_flag: Vec::new(),
            slot_by_child_key: Vec::new(),
            out: KeyedRel::new(keep, ck),
            child: Box::new(child),
        };
        let cin = state.child.out();
        if scalar {
            let mut slot = GroupSlot {
                vals: Vec::new(),
                rows: Vec::new(),
                probs: Vec::new(),
                present: false,
                out_key: Vec::new(),
                prob: 0.0,
            };
            if !cin.is_empty() {
                slot.present = true;
                slot.out_key = cin.key(0).to_vec();
                slot.prob = fold_all(cin);
                state.out.push(&slot.out_key.clone(), &[], slot.prob);
            }
            state.slots.push(slot);
            return state;
        }
        // One pass in child row order: intern groups, fold Π(1−p) per
        // group as rows arrive — the exact serial fold.
        let mut none: Vec<f64> = Vec::new();
        let mut gv: Vec<Value> = Vec::with_capacity(state.keep_idx.len());
        for i in 0..cin.len() {
            extract_into(&mut gv, cin.row(i), &state.keep_idx);
            let c = 1.0 - cin.prob(i);
            match state.groups.get(gv.as_slice()) {
                Some(&s) => {
                    let s = s as usize;
                    if none[s] != 0.0 {
                        none[s] *= c;
                    }
                    state.slots[s].rows.extend_from_slice(cin.key(i));
                    state.slots[s].probs.push(cin.prob(i));
                }
                None => {
                    let s = state.slots.len() as u32;
                    state.groups.insert(gv.clone(), s);
                    none.push(c);
                    state.slots.push(GroupSlot {
                        vals: gv.clone(),
                        rows: cin.key(i).to_vec(),
                        probs: vec![cin.prob(i)],
                        present: true,
                        out_key: cin.key(i).to_vec(),
                        prob: 0.0,
                    });
                }
            }
        }
        // Emit in slot (first-seen = ascending-min-key) order.
        for (s, slot) in state.slots.iter_mut().enumerate() {
            slot.prob = 1.0 - none[s];
            state.out.push(&slot.out_key, &slot.vals, slot.prob);
        }
        state.dirty_flag = vec![false; state.slots.len()];
        if ck == 1 {
            let mut index = std::mem::take(&mut state.slot_by_child_key);
            for (s, slot) in state.slots.iter().enumerate() {
                for &k in &slot.rows {
                    let i = k as usize;
                    if i >= index.len() {
                        index.resize(i + 1, u32::MAX);
                    }
                    index[i] = s as u32;
                }
            }
            state.slot_by_child_key = index;
        }
        state
    }

    /// Record `key → slot` in the dense fast-path index (`ck == 1` only).
    fn note_child_key(&mut self, key: u64, slot: u32) {
        let i = key as usize;
        if i >= self.slot_by_child_key.len() {
            self.slot_by_child_key.resize(i + 1, u32::MAX);
        }
        self.slot_by_child_key[i] = slot;
    }

    /// Slot of a child row, through the dense index when available.
    #[inline]
    fn slot_of(&self, key: &[u64], row: &[Value], keybuf: &mut Vec<Value>) -> u32 {
        if self.ck == 1 {
            if let Some(&s) = self.slot_by_child_key.get(key[0] as usize) {
                if s != u32::MAX {
                    return s;
                }
            }
            unreachable!("live child row has an indexed slot");
        }
        extract_into(keybuf, row, &self.keep_idx);
        *self
            .groups
            .get(keybuf.as_slice())
            .expect("live child row's group exists")
    }

    #[allow(clippy::too_many_arguments)]
    fn refresh(
        &mut self,
        db: &ProbDb,
        net: &[(TupleId, RelId, NetChange)],
        pool: &Pool,
        shards: usize,
        detail: DeltaDetail,
        counters: &mut RefreshCounters,
        shard_rows: &mut Vec<u64>,
    ) -> OpDelta {
        // The Boolean group refolds over the whole child output, so the
        // child may elide its probability-update rows entirely.
        let want = if self.scalar {
            DeltaDetail::DirtyOnly
        } else {
            DeltaDetail::Full
        };
        let d = self
            .child
            .refresh(db, net, pool, shards, want, counters, shard_rows);
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
        let mut keybuf: Vec<Value> = Vec::with_capacity(self.keep_idx.len());
        for i in 0..d.removed.len() {
            let s = self.slot_of(d.removed.key(i), d.removed.row(i), &mut keybuf);
            let slot = &mut self.slots[s as usize];
            let pos = chunk_lower_bound(&slot.rows, self.ck.max(1), d.removed.key(i));
            slot.rows.drain(pos * self.ck..(pos + 1) * self.ck);
            slot.probs.remove(pos);
            if !std::mem::replace(&mut self.dirty_flag[s as usize], true) {
                dirty.push(s);
            }
        }
        for i in 0..d.updated.len() {
            let s = self.slot_of(d.updated.key(i), d.updated.row(i), &mut keybuf);
            let slot = &mut self.slots[s as usize];
            let pos = chunk_lower_bound(&slot.rows, self.ck.max(1), d.updated.key(i));
            slot.probs[pos] = d.updated.prob(i);
            if !std::mem::replace(&mut self.dirty_flag[s as usize], true) {
                dirty.push(s);
            }
        }
        for i in 0..d.added.len() {
            extract_into(&mut keybuf, d.added.row(i), &self.keep_idx);
            let s = match self.groups.get(keybuf.as_slice()) {
                Some(&s) => s,
                None => {
                    let s = self.slots.len() as u32;
                    self.groups.insert(keybuf.clone(), s);
                    self.slots.push(GroupSlot {
                        vals: keybuf.clone(),
                        rows: Vec::new(),
                        probs: Vec::new(),
                        present: false,
                        out_key: Vec::new(),
                        prob: 0.0,
                    });
                    self.dirty_flag.push(false);
                    s
                }
            };
            if self.ck == 1 {
                self.note_child_key(d.added.key(i)[0], s);
            }
            let slot = &mut self.slots[s as usize];
            let pos = chunk_lower_bound(&slot.rows, self.ck.max(1), d.added.key(i));
            let at = pos * self.ck;
            slot.rows.splice(at..at, d.added.key(i).iter().copied());
            slot.probs.insert(pos, d.added.prob(i));
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
                let slot = &slots[s as usize];
                if slot.probs.is_empty() {
                    out.push((s, None, 0));
                } else {
                    out.push((s, Some(fold_prob(&slot.probs)), slot.probs.len() as u64));
                }
            }
            out
        });

        // Phase 3: emit group-level edits in stable-key order.
        let mut rem: Vec<Vec<u64>> = Vec::new();
        let mut upd: Vec<u32> = Vec::new();
        let mut add: Vec<u32> = Vec::new();
        for (s, prob, rows_walked) in folded.into_iter().flatten() {
            counters.rows_retouched += rows_walked;
            counters.groups_refolded += 1;
            let slot = &mut self.slots[s as usize];
            match prob {
                None => {
                    if slot.present {
                        rem.push(slot.out_key.clone());
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
                        rem.push(slot.out_key.clone());
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
        rem.sort();
        let rem_flat: Vec<u64> = rem.iter().flatten().copied().collect();
        delta.removed = self.out.remove_sorted_keys(&rem_flat);
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
            delta.added.push(&slot.out_key, &slot.vals, slot.prob);
        }
        self.out.merge_added(&delta.added);
        counters.rows_retouched += delta.rows();
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
                self.out = KeyedRel::new(self.keep.clone(), self.ck);
            }
            return;
        }
        let p = fold_all(cin);
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
        self.out = KeyedRel::new(self.keep.clone(), self.ck);
        self.out.push(&slot.out_key, &[], slot.prob);
    }
}

/// `1 − Π(1−p)` over every row of `rel`, in row order, with the executor's
/// exact fold sequence (a strict left-to-right multiply chain — bit-exact
/// maintenance forbids re-association, so this linear pass is the floor a
/// Boolean refresh always pays).
fn fold_all(rel: &KeyedRel) -> f64 {
    fold_prob(&rel.probs)
}

/// Half an ulp of 1.0 (`2^-54`): once `Π(1−p)` is at or below this, the
/// emitted probability `1 − Π` rounds to exactly `1.0` — and it can only
/// shrink further (complements are in `[0, 1]`), so a cold execution that
/// grinds the rest of the chain lands on the same bits.
const HALF_ULP_OF_ONE: f64 = 5.551_115_123_125_783e-17;

/// `1 − Π(1−p)` over `probs` in order — the group emission the executor
/// computes — with the saturation short-circuit: the chain stops as soon
/// as the running product can no longer affect the rounded complement.
/// Bit-identical to the full fold (pinned by the agreement tests), and it
/// skips the subnormal-arithmetic tail that costs tens of cycles per
/// multiply on long saturated groups.
fn fold_prob(probs: &[f64]) -> f64 {
    match probs.split_first() {
        None => 0.0,
        Some((&p0, rest)) => {
            let mut none = 1.0 - p0;
            for &p in rest {
                if none <= HALF_ULP_OF_ONE {
                    return 1.0;
                }
                none *= 1.0 - p;
            }
            1.0 - none
        }
    }
}
