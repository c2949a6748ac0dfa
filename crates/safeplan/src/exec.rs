//! The operator kernels of the safe-plan executor, and its counters.
//!
//! The kernels are **columnar and allocation-free per row**: they read
//! and write the flat-buffer layout of [`ProbRelation`](crate::ProbRelation)
//! (see `relation.rs` for the stride/alignment invariants), scans push
//! constants down to the `(column, value)` posting lists
//! [`pdb::ProbDb`] maintains, and joins hash the smaller input. Every
//! kernel takes an explicit row range or id slice, so the executor in
//! [`crate::dag`] runs the same code over a whole input (one worker) or
//! one morsel at a time (several) — the foundation of the bit-for-bit
//! thread-count invariance.

use cq::{Atom, CompOp, Pred, Term, Value, Var};
use lineage::ProbValue;
use pdb::{ProbDb, TupleId};
use std::ops::Range;

/// Wall-clock nanoseconds spent inside each operator kind, exclusive of
/// child operators. On the DAG path concurrent tasks accrue in parallel,
/// so the sums read as CPU time, not elapsed time. Timing observes the
/// kernels from outside — it never feeds back into what they compute.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTimes {
    pub scan_ns: u64,
    pub complement_ns: u64,
    pub select_ns: u64,
    pub join_ns: u64,
    pub project_ns: u64,
}

impl OpTimes {
    pub fn absorb(&mut self, other: &OpTimes) {
        self.scan_ns += other.scan_ns;
        self.complement_ns += other.complement_ns;
        self.select_ns += other.select_ns;
        self.join_ns += other.join_ns;
        self.project_ns += other.project_ns;
    }

    /// Total time attributed to operators.
    pub fn total_ns(&self) -> u64 {
        self.scan_ns + self.complement_ns + self.select_ns + self.join_ns + self.project_ns
    }
}

/// Operator-level counters of one extensional execution — what the data
/// plane actually did (as opposed to the per-thread timing counters the
/// worker pool reports). Deterministic for a fixed plan and database:
/// counts are taken at operator granularity, never inside morsels.
/// Equality compares the deterministic count fields only — [`OpTimes`]
/// varies run to run and is excluded, so the counter agreement tests
/// across thread counts stay meaningful.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounters {
    /// Relation scans executed.
    pub scans: u64,
    /// Scans served from a constant-pushdown `(column, value)` posting
    /// list instead of the full relation.
    pub index_scans: u64,
    /// Tuple ids visited by scans (after pushdown).
    pub rows_scanned: u64,
    /// Tuples a full scan would have visited that pushdown skipped.
    pub rows_pruned: u64,
    /// Complement scans executed (negated sub-goals, Theorem 3.11).
    pub complement_scans: u64,
    /// Domain bindings enumerated by complement scans (kept separate from
    /// `rows_scanned` — they are generated, not read).
    pub complement_rows: u64,
    /// Independent joins executed (per pair of inputs).
    pub joins: u64,
    /// Joins whose build side was the left input (smaller than the right).
    pub joins_build_left: u64,
    /// Rows emitted by joins.
    pub join_rows: u64,
    /// Distinct groups across all independent-project aggregations.
    pub groups: u64,
    /// Shard fan-out the execution ran with (1 = monolithic; 0 only on a
    /// default value no execution has touched).
    pub shard_fanout: u64,
    /// Global-index lookups made while resolving scans (the relation list
    /// plus one per probed `(column, value)` posting list). Stays 0 on the
    /// shard-resident path — the acceptance gate for shard-local scans.
    pub global_index_probes: u64,
    /// Shard-local index lookups on the resident path (one per shard per
    /// probed list). 0 everywhere else.
    pub shard_index_probes: u64,
    /// Per-operator wall time (excluded from equality).
    pub times: OpTimes,
}

impl PartialEq for OpCounters {
    fn eq(&self, other: &Self) -> bool {
        self.scans == other.scans
            && self.index_scans == other.index_scans
            && self.rows_scanned == other.rows_scanned
            && self.rows_pruned == other.rows_pruned
            && self.complement_scans == other.complement_scans
            && self.complement_rows == other.complement_rows
            && self.joins == other.joins
            && self.joins_build_left == other.joins_build_left
            && self.join_rows == other.join_rows
            && self.groups == other.groups
            && self.shard_fanout == other.shard_fanout
            && self.global_index_probes == other.global_index_probes
            && self.shard_index_probes == other.shard_index_probes
    }
}

impl Eq for OpCounters {}

impl OpCounters {
    /// Add `other`'s counts into `self` — all fields but `shard_fanout`
    /// (a max) are plain sums, so absorbing per-task counters in any
    /// order gives the same totals.
    pub fn absorb(&mut self, other: &OpCounters) {
        self.scans += other.scans;
        self.index_scans += other.index_scans;
        self.rows_scanned += other.rows_scanned;
        self.rows_pruned += other.rows_pruned;
        self.complement_scans += other.complement_scans;
        self.complement_rows += other.complement_rows;
        self.joins += other.joins;
        self.joins_build_left += other.joins_build_left;
        self.join_rows += other.join_rows;
        self.groups += other.groups;
        self.shard_fanout = self.shard_fanout.max(other.shard_fanout);
        self.global_index_probes += other.global_index_probes;
        self.shard_index_probes += other.shard_index_probes;
        self.times.absorb(&other.times);
    }
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// What one argument position of a scanned atom demands of a tuple, with
/// the per-tuple `position()` searches of the old row kernel hoisted out.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Position must equal this constant.
    Const(Value),
    /// First occurrence of a variable: bind output column `col`.
    Bind(usize),
    /// Repeated variable: position must equal the value already bound to
    /// output column `col` (its first occurrence is at an earlier
    /// position, so the column is always bound before the check runs).
    Check(usize),
}

/// A compiled scan: per-position slots plus the output arity.
pub(crate) struct ScanPlan {
    slots: Vec<Slot>,
    arity: usize,
}

pub(crate) fn scan_plan(atom: &Atom, cols: &[Var]) -> ScanPlan {
    let mut seen = vec![false; cols.len()];
    let slots = atom
        .args
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
        .collect();
    ScanPlan {
        slots,
        arity: cols.len(),
    }
}

impl ScanPlan {
    /// Match one tuple's arguments against the slots, binding output
    /// columns into `row`; false when a constant or a repeated variable
    /// does not match (the row is then partly written and must be
    /// discarded).
    #[inline]
    fn bind(&self, args: &[Value], row: &mut [Value]) -> bool {
        for (slot, &got) in self.slots.iter().zip(args) {
            match *slot {
                Slot::Const(c) if got != c => return false,
                Slot::Check(ci) if row[ci] != got => return false,
                Slot::Bind(ci) => row[ci] = got,
                Slot::Const(_) | Slot::Check(_) => {}
            }
        }
        true
    }
}

/// A scan's resolved inputs: output schema, compiled per-position slots,
/// and the tuple-id list to visit — the smallest constant-pushdown posting
/// list when the atom has constants, the full relation otherwise. The id
/// choice is a pure function of the atom and database, so every thread
/// count visits the same ids in the same order.
pub(crate) struct ScanSpec<'a> {
    pub cols: Vec<Var>,
    pub plan: ScanPlan,
    pub ids: &'a [TupleId],
}

impl<'a> ScanSpec<'a> {
    pub fn new(db: &'a ProbDb, atom: &Atom, counters: &mut OpCounters) -> Self {
        assert!(!atom.negated, "plans scan positive atoms only");
        let cols = atom.vars();
        let plan = scan_plan(atom, &cols);
        let all = db.tuples_of(atom.rel);
        counters.global_index_probes += 1;
        // Constant pushdown: visit the smallest `(column, value)` posting
        // list. Posting lists ascend in tuple id, so the surviving rows
        // come out in exactly the order a filtered full scan emits them.
        let mut best: Option<&[TupleId]> = None;
        for (pos, term) in atom.args.iter().enumerate() {
            if let Term::Const(c) = term {
                let list = db.tuples_with(atom.rel, pos, *c);
                counters.global_index_probes += 1;
                if best.is_none_or(|b| list.len() < b.len()) {
                    best = Some(list);
                }
            }
        }
        counters.scans += 1;
        let ids = match best {
            Some(list) => {
                counters.index_scans += 1;
                counters.rows_pruned += (all.len() - list.len()) as u64;
                list
            }
            None => all,
        };
        counters.rows_scanned += ids.len() as u64;
        ScanSpec { cols, plan, ids }
    }
}

/// The scan kernel over an explicit tuple-id slice: a one-worker pool
/// passes the whole id list, a wider one a morsel at a time. Rows come
/// back in `ids` order as columnar buffers, so stitching morsel outputs
/// in morsel order reproduces the whole-list scan exactly. The only
/// allocations are the output buffers and one scratch row.
pub(crate) fn scan_rows<P: ProbValue>(
    db: &ProbDb,
    probs: &[P],
    plan: &ScanPlan,
    ids: &[TupleId],
) -> (Vec<Value>, Vec<P>) {
    let mut data: Vec<Value> = Vec::new();
    let mut out_probs: Vec<P> = Vec::new();
    let mut rowbuf = vec![Value(0); plan.arity];
    for &tid in ids {
        if plan.bind(&db.tuple(tid).args, &mut rowbuf) {
            data.extend_from_slice(&rowbuf);
            out_probs.push(probs[tid.0 as usize].clone());
        }
    }
    (data, out_probs)
}

/// The keyed scan kernel behind the k-way shard merge: visits
/// `(tuple id, merge key)` pairs in ascending key order and returns the
/// surviving rows as columnar buffers **plus each row's key**, so a merge
/// of shard outputs by key reproduces the unsharded [`scan_rows`] output
/// bit for bit (filtering can drop rows, so keys — not counts — are what
/// the merge stitches by). The split-derived plane keys rows by their
/// position in the global id list, shard-local posting lists by tuple id.
pub(crate) fn scan_rows_keyed<P: ProbValue>(
    db: &ProbDb,
    probs: &[P],
    plan: &ScanPlan,
    rows: impl Iterator<Item = (TupleId, u32)>,
) -> (Vec<Value>, Vec<P>, Vec<u32>) {
    let mut data: Vec<Value> = Vec::new();
    let mut out_probs: Vec<P> = Vec::new();
    let mut keys: Vec<u32> = Vec::new();
    let mut rowbuf = vec![Value(0); plan.arity];
    for (tid, key) in rows {
        if plan.bind(&db.tuple(tid).args, &mut rowbuf) {
            data.extend_from_slice(&rowbuf);
            out_probs.push(probs[tid.0 as usize].clone());
            keys.push(key);
        }
    }
    (data, out_probs, keys)
}

/// A sharded scan resolved entirely from shard-resident storage: one
/// tuple-id list per shard (shard-local posting lists on constant
/// pushdown, the resident relation lists otherwise), with **zero
/// global-index probes**.
pub(crate) struct ShardScanSpec<'a> {
    pub cols: Vec<Var>,
    pub plan: ScanPlan,
    /// Per-shard id lists to visit, ascending within each shard; together
    /// they partition exactly the id list [`ScanSpec::new`] would choose.
    pub shard_ids: Vec<&'a [TupleId]>,
    /// Whether a constant pushed down to a posting list. When false the
    /// scan covers whole relations and kernels can walk the resident
    /// columnar buffers directly instead of chasing ids.
    pub pushdown: bool,
}

impl<'a> ShardScanSpec<'a> {
    /// Resolve `atom` against the resident layout of `db` (the caller
    /// guarantees `db.shard_layout() == shards`). Replicates the
    /// smallest-posting-list choice of [`ScanSpec::new`] exactly: the
    /// per-shard lists partition the global lists, so the summed lengths
    /// equal the global lengths and the same column wins under the same
    /// strict `<` tie-break in argument order. Scan counters
    /// (`rows_scanned`, `rows_pruned`) therefore also match the
    /// monolithic figures; only `shard_index_probes` accrue.
    pub fn new(db: &'a ProbDb, atom: &Atom, shards: usize, counters: &mut OpCounters) -> Self {
        assert!(!atom.negated, "plans scan positive atoms only");
        debug_assert_eq!(db.shard_layout(), shards, "resident layout mismatch");
        let cols = atom.vars();
        let plan = scan_plan(atom, &cols);
        let all: Vec<&[TupleId]> = (0..shards)
            .map(|s| db.shard_tuples_of(s, atom.rel))
            .collect();
        counters.shard_index_probes += shards as u64;
        let all_len: usize = all.iter().map(|l| l.len()).sum();
        let mut best: Option<(Vec<&'a [TupleId]>, usize)> = None;
        for (pos, term) in atom.args.iter().enumerate() {
            if let Term::Const(c) = term {
                let lists: Vec<&[TupleId]> = (0..shards)
                    .map(|s| db.shard_tuples_with(s, atom.rel, pos, *c))
                    .collect();
                counters.shard_index_probes += shards as u64;
                let len: usize = lists.iter().map(|l| l.len()).sum();
                if best.as_ref().is_none_or(|(_, b)| len < *b) {
                    best = Some((lists, len));
                }
            }
        }
        counters.scans += 1;
        let (shard_ids, pushdown) = match best {
            Some((lists, len)) => {
                counters.index_scans += 1;
                counters.rows_pruned += (all_len - len) as u64;
                counters.rows_scanned += len as u64;
                (lists, true)
            }
            None => {
                counters.rows_scanned += all_len as u64;
                (all, false)
            }
        };
        ShardScanSpec {
            cols,
            plan,
            shard_ids,
            pushdown,
        }
    }
}

/// The id-keyed scan kernel over one shard's **resident columnar
/// buffer**: row values come straight off the shard's contiguous value
/// buffer (stride = relation arity), never touching global tuple storage
/// row by row. Emits the same `(data, probs, id keys)` triple as
/// [`scan_rows_keyed`] over the same ids.
pub(crate) fn scan_column_keyed<P: ProbValue>(
    col: &pdb::ShardColumn,
    probs: &[P],
    plan: &ScanPlan,
) -> (Vec<Value>, Vec<P>, Vec<u32>) {
    let stride = plan.slots.len();
    let mut data: Vec<Value> = Vec::new();
    let mut out_probs: Vec<P> = Vec::new();
    let mut keys: Vec<u32> = Vec::new();
    let mut rowbuf = vec![Value(0); plan.arity];
    for (i, &tid) in col.ids.iter().enumerate() {
        if plan.bind(&col.data[i * stride..(i + 1) * stride], &mut rowbuf) {
            data.extend_from_slice(&rowbuf);
            out_probs.push(probs[tid.0 as usize].clone());
            keys.push(tid.0);
        }
    }
    (data, out_probs, keys)
}

// ---------------------------------------------------------------------------
// Complement scan
// ---------------------------------------------------------------------------

/// One row per binding of the atom's distinct variables over the evaluation
/// domain (active domain plus the atom's constants), with probability
/// `1 − p(tuple)` — absent tuples contribute certainty. This is the Theorem
/// 3.11 treatment of negated sub-goals, set-at-a-time; the `O(|domain|^k)`
/// row count matches the bound the tuple-at-a-time recurrence pays.
pub(crate) struct ComplementSpec {
    pub cols: Vec<Var>,
    pub domain: Vec<Value>,
    pub total: usize,
    rel: cq::RelId,
    /// Per argument position: the constant, or the binding column to read.
    arg_src: Vec<ArgSrc>,
}

#[derive(Clone, Copy)]
enum ArgSrc {
    Const(Value),
    Col(usize),
}

impl ComplementSpec {
    pub fn new(db: &ProbDb, atom: &Atom, counters: &mut OpCounters) -> Self {
        let cols = atom.vars();
        let domain = complement_domain(db, atom);
        let total = complement_row_count(cols.len(), domain.len());
        counters.complement_scans += 1;
        counters.complement_rows += total as u64;
        let arg_src = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => ArgSrc::Const(*c),
                Term::Var(v) => ArgSrc::Col(cols.iter().position(|c| c == v).expect("own var")),
            })
            .collect();
        ComplementSpec {
            cols,
            domain,
            total,
            rel: atom.rel,
            arg_src,
        }
    }
}

/// Evaluation domain of a complement scan: active domain plus the atom's
/// constants, in a fixed order every morsel shares.
pub(crate) fn complement_domain(db: &ProbDb, atom: &Atom) -> Vec<Value> {
    let mut domain: Vec<Value> = db.active_domain().into_iter().collect();
    for c in atom.constants() {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    domain
}

/// Rows a complement scan over `k` variables produces: `|domain|^k`, with
/// the `k == 0` ground atom contributing its single row.
pub(crate) fn complement_row_count(k: usize, domain_len: usize) -> usize {
    if k == 0 {
        1
    } else {
        // A count that overflows usize could never be materialized anyway.
        domain_len
            .checked_pow(k as u32)
            .expect("complement scan domain too large")
    }
}

/// The complement-scan kernel over a range of linearized bindings. Binding
/// `i` decodes base-`|domain|` with the *first* column most significant —
/// exactly the order the old odometer emitted — so morsel outputs stitched
/// in morsel order match the whole-range scan bit for bit. Scratch binding and
/// argument rows are reused across the whole range.
pub(crate) fn complement_rows<P: ProbValue>(
    db: &ProbDb,
    probs: &[P],
    spec: &ComplementSpec,
    range: Range<usize>,
) -> (Vec<Value>, Vec<P>) {
    let k = spec.cols.len();
    let mut data: Vec<Value> = Vec::with_capacity(range.len() * k);
    let mut out_probs: Vec<P> = Vec::with_capacity(range.len());
    let mut binding = vec![Value(0); k];
    let mut args = vec![Value(0); spec.arg_src.len()];
    for i in range {
        let mut rem = i;
        for slot in binding.iter_mut().rev() {
            *slot = spec.domain[rem % spec.domain.len()];
            rem /= spec.domain.len();
        }
        for (a, src) in args.iter_mut().zip(&spec.arg_src) {
            *a = match *src {
                ArgSrc::Const(c) => c,
                ArgSrc::Col(ci) => binding[ci],
            };
        }
        let p = match db.find(spec.rel, &args) {
            Some(id) => probs[id.0 as usize].complement(),
            None => P::one(),
        };
        data.extend_from_slice(&binding);
        out_probs.push(p);
    }
    (data, out_probs)
}

pub(crate) fn eval_pred(pred: &Pred, cols: &[Var], row: &[Value]) -> bool {
    let resolve = |t: &Term| -> Value {
        match t {
            Term::Const(c) => *c,
            Term::Var(v) => {
                let i = cols.iter().position(|c| c == v).expect("select var bound");
                row[i]
            }
        }
    };
    let (l, r) = (resolve(&pred.lhs), resolve(&pred.rhs));
    match pred.op {
        CompOp::Lt => l < r,
        CompOp::Eq => l == r,
        CompOp::Ne => l != r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_plan;
    use crate::dag::{query_probability, query_probability_counted, query_probability_exact};
    use crate::node::PlanNode;
    use cq::{parse_query, Query, Vocabulary};
    use dichotomy::eval_recurrence;
    use pdb::brute_force_probability;
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    use pdb::RatProbs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Safe queries exercising scans with constants, repeated variables,
    /// deep hierarchies, multiple components, and predicates.
    const SAFE_QUERIES: &[&str] = &[
        "R(x)",
        "R(x), S(x,y)",
        "R(x), S(x,y), U(x,y,z)",
        "R(x), T(z,w)",
        "R(1), S(1,y)",
        "S(x,y), x < y",
        "S(x,y), x != y",
        "R(x), S(x,y), x < y",
        "R(x), S(x,y), y != 1",
        "S(x,x)",
        "R(x), S(x,y), T2(x,z)",
        "S(u,v), T(u,v)",
        "R(x), S(x,y), U(x,y,z), V(x,w)",
    ];

    fn check(query_text: &str, seed: u64) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, query_text).unwrap();
        let plan = build_plan(&q).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 4,
            prob_range: (0.1, 0.9),
        };
        for round in 0..4 {
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let by_plan = query_probability(&db, &plan);
            let by_rec = eval_recurrence(&db, &q).unwrap();
            assert!(
                (by_plan - by_rec).abs() < 1e-9,
                "round {round}: plan {by_plan} vs recurrence {by_rec} for {query_text}\nplan:\n{}",
                plan.display(&voc)
            );
            if db.num_tuples() <= 16 {
                let bf = brute_force_probability(&db, &q);
                assert!(
                    (by_plan - bf).abs() < 1e-9,
                    "round {round}: plan {by_plan} vs brute force {bf} for {query_text}"
                );
            }
        }
    }

    #[test]
    fn plans_match_recurrence_and_brute_force() {
        for (i, q) in SAFE_QUERIES.iter().enumerate() {
            check(q, 100 + i as u64);
        }
    }

    #[test]
    fn exact_execution_agrees_with_f64() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let plan = build_plan(&q).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 3,
            prob_range: (0.1, 0.9),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = RatProbs::from_db(&db);
        let exact = query_probability_exact(&db, &probs, &plan);
        let float = query_probability(&db, &plan);
        assert!((exact.to_f64() - float).abs() < 1e-12);
    }

    /// Negated-sub-goal queries (Theorem 3.11) compile to complement scans
    /// and must agree with the recurrence evaluator.
    #[test]
    fn negation_matches_recurrence() {
        for (i, text) in [
            "R(x), not T(x)",
            "R(x), not S(x,y)",
            "R(x), S(x,y), not U(x,y,z)",
            "R(x), not T(1)",
        ]
        .iter()
        .enumerate()
        {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).unwrap();
            let plan = build_plan(&q).unwrap();
            let mut rng = StdRng::seed_from_u64(500 + i as u64);
            let opts = RandomDbOptions {
                domain: 3,
                tuples_per_relation: 3,
                prob_range: (0.1, 0.9),
            };
            for round in 0..4 {
                let db = random_db_for_query(&q, &voc, opts, &mut rng);
                let by_plan = query_probability(&db, &plan);
                let by_rec = eval_recurrence(&db, &q).unwrap();
                assert!(
                    (by_plan - by_rec).abs() < 1e-9,
                    "round {round}: plan {by_plan} vs recurrence {by_rec} for {text}\n{}",
                    plan.display(&voc)
                );
            }
        }
    }

    #[test]
    fn negation_exact_rational_agrees_with_f64() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), not T(x)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let t = voc.find_relation("T").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(r, vec![Value(2)], 0.25);
        db.insert(t, vec![Value(1)], 0.75);
        let plan = build_plan(&q).unwrap();
        let probs = RatProbs::from_db(&db);
        let exact = query_probability_exact(&db, &probs, &plan);
        let float = query_probability(&db, &plan);
        assert!((exact.to_f64() - float).abs() < 1e-15);
        // p = 1 − (1 − 1/2·1/4)(1 − 1/4·1) = 1 − (7/8)(3/4) = 11/32.
        assert_eq!(exact, numeric::QRat::ratio(11, 32));
    }

    #[test]
    fn negated_ground_atom() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "not R(1)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.25);
        let plan = build_plan(&q).unwrap();
        assert!((query_probability(&db, &plan) - 0.75).abs() < 1e-12);
        // Absent tuple: certainty.
        let mut voc2 = Vocabulary::new();
        let q2 = parse_query(&mut voc2, "not R(7)").unwrap();
        let r2 = voc2.find_relation("R").unwrap();
        let mut db2 = ProbDb::new(voc2);
        db2.insert(r2, vec![Value(1)], 0.25);
        let plan2 = build_plan(&q2).unwrap();
        assert!((query_probability(&db2, &plan2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_scan_filters() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(1)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.25);
        db.insert(r, vec![Value(2)], 0.75);
        let plan = build_plan(&q).unwrap();
        assert!((query_probability(&db, &plan) - 0.25).abs() < 1e-12);
    }

    /// `Select` filters over a full scan of `atom`'s relation with every
    /// constant position freed: the plan constant pushdown must agree with
    /// bit for bit.
    fn filtered_full_scan(voc: &mut Vocabulary, atom: &str, eqs: &[(usize, u64)]) -> PlanNode {
        let q = parse_query(voc, atom).unwrap();
        let vars = q.atoms[0].vars();
        let mut plan = PlanNode::Scan {
            atom: q.atoms[0].clone(),
        };
        for &(col, c) in eqs {
            plan = PlanNode::Select {
                pred: Pred::eq(vars[col], Value(c)),
                input: Box::new(plan),
            };
        }
        PlanNode::IndependentProject {
            keep: Vec::new(),
            input: Box::new(plan),
        }
    }

    /// A constant atom must be served from the pushdown posting list —
    /// visiting only the matching ids — and still agree with the filtered
    /// full scan.
    #[test]
    fn constant_pushdown_prunes_and_agrees() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(x, 7)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..50u64 {
            // Second column is 7 for i ∈ {0, 7, 10, 20, 30, 40}: six hits.
            db.insert(
                s,
                vec![Value(i), Value(if i % 10 == 0 { 7 } else { i })],
                0.3,
            );
        }
        let plan = build_plan(&q).unwrap();
        let mut counters = OpCounters::default();
        let p = query_probability_counted(&db, &plan, &mut counters);
        assert_eq!(counters.index_scans, 1, "{counters:?}");
        assert_eq!(counters.rows_scanned, 6, "{counters:?}");
        assert_eq!(counters.rows_pruned, 44, "{counters:?}");
        let full = filtered_full_scan(&mut db.voc.clone(), "S(x, y)", &[(1, 7)]);
        let full_p = query_probability(&db, &full);
        assert_eq!(p, full_p, "pushdown must not change the result bits");
    }

    /// Multiple constants: the scan picks the smallest posting list but
    /// still verifies every constant position.
    #[test]
    fn pushdown_picks_smallest_posting_list_and_verifies_rest() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "U(1, y, 5)").unwrap();
        let u = voc.find_relation("U").unwrap();
        let mut db = ProbDb::new(voc);
        // Column 0 = 1 matches 20 tuples, column 2 = 5 matches 2 tuples,
        // both constraints together match exactly 1.
        for i in 0..20u64 {
            db.insert(u, vec![Value(1), Value(i), Value(100 + i)], 0.5);
        }
        db.insert(u, vec![Value(1), Value(50), Value(5)], 0.25);
        db.insert(u, vec![Value(2), Value(51), Value(5)], 0.5);
        let plan = build_plan(&q).unwrap();
        let mut counters = OpCounters::default();
        let p = query_probability_counted(&db, &plan, &mut counters);
        assert_eq!(counters.rows_scanned, 2, "smallest list: {counters:?}");
        assert!((p - 0.25).abs() < 1e-12);
        let full = filtered_full_scan(&mut db.voc.clone(), "U(x, y, z)", &[(0, 1), (2, 5)]);
        assert_eq!(p, query_probability(&db, &full));
    }

    #[test]
    fn join_counters_report_build_side_selection() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        // R is tiny, the projected S is big: after the independent-project
        // of S down to [x] both sides reach the join, and the accumulator
        // (certain, 1 row) always builds left first.
        for i in 0..3u64 {
            db.insert(r, vec![Value(i)], 0.5);
        }
        for i in 0..30u64 {
            db.insert(s, vec![Value(i % 3), Value(100 + i)], 0.2);
        }
        let plan = build_plan(&q).unwrap();
        let mut counters = OpCounters::default();
        let p = query_probability_counted(&db, &plan, &mut counters);
        assert!(counters.joins >= 1, "{counters:?}");
        assert!(counters.joins_build_left >= 1, "{counters:?}");
        assert!(counters.groups >= 1, "{counters:?}");
        // Every x has ten S rows at 0.2 and one R row at 0.5, so the
        // closed form, folded in the plan's row order, is exact.
        let s_x = 1.0 - (0..10).fold(1.0, |none: f64, _| none * (1.0 - 0.2));
        let want = 1.0 - (0..3).fold(1.0, |none: f64, _| none * (1.0 - 0.5 * s_x));
        assert_eq!(p, want);
    }

    #[test]
    fn repeated_variable_scan() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(x,x)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(s, vec![Value(1), Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(2)], 0.9);
        let plan = build_plan(&q).unwrap();
        assert!((query_probability(&db, &plan) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn never_and_certain_execute() {
        let mut voc = Vocabulary::new();
        let _ = voc.relation("R", 1).unwrap();
        let db = ProbDb::new(voc);
        assert_eq!(query_probability(&db, &PlanNode::Never), 0.0);
        assert_eq!(query_probability(&db, &PlanNode::Certain), 1.0);
        let plan = build_plan(&Query::truth()).unwrap();
        assert_eq!(query_probability(&db, &plan), 1.0);
    }

    #[test]
    fn empty_database_gives_zero() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let db = ProbDb::new(voc);
        let plan = build_plan(&q).unwrap();
        assert_eq!(query_probability(&db, &plan), 0.0);
    }
}
