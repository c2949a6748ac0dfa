//! Plan-level pipelining over a sharded data plane.
//!
//! The [`par`](crate::par) module parallelizes *inside* one operator and
//! still walks the plan tree serially: a join's build input fully
//! materializes before its probe input starts. This module removes that
//! barrier. [`dag_execute`] decomposes a [`PlanNode`] tree into a
//! dependency DAG of **operator tasks** and hands it to
//! [`exec_parallel::run_dag`]: independent subtrees (the inputs of an
//! independent join) evaluate concurrently, each task nests morsel
//! dispatches on the shared [`Pool`], and every task's output lands in a
//! pre-assigned slot so downstream stitching is deterministic.
//!
//! ## Task decomposition
//!
//! * Leaves (scans, complement scans, constants) become zero-dependency
//!   tasks — all of a plan's scans are runnable at once.
//! * `Select`/`IndependentProject` are **fused into their child task** as
//!   post-operators: a single-child chain never pays a scheduler hop
//!   (ready-queue round trip, slot write, dependency count) per operator.
//!   The operator kernels run unchanged and in the same order, so the
//!   fusion is invisible in the output; [`DagStats::inlined`] counts the
//!   operators absorbed this way.
//! * An `IndependentJoin` over inputs `i0, i1, …` becomes a chain of
//!   `JoinStage` tasks replicating the serial fold
//!   `certain ⋈ i0 ⋈ i1 ⋈ …` — stage `k` depends on stage `k−1` *and*
//!   input `k`, so input `k+1` evaluates while stage `k` joins.
//!
//! Each join stage's **build side is chosen from the cost model's
//! posting-list estimates** ([`estimate_rows`]) at decomposition time —
//! before either input materializes — mirroring the incremental estimate
//! the join-ordering rule uses. The output is bit-identical either way
//! (see `par_join_sided`); [`OpCounters::est_builds`] counts the
//! estimate-driven choices and [`OpCounters::est_build_overrides`] how
//! many disagreed with the materialized-row-count rule.
//!
//! ## Sharded scans
//!
//! With [`DagOptions::shards`] `> 1`, scan tasks run one kernel per shard
//! and k-way-merge the per-shard outputs back into the exact monolithic
//! row order — same rows, same order, same bits. Two data planes feed
//! that merge:
//!
//! * **Shard-resident** (`db.shard_layout() == shards`): the scan
//!   resolves against per-shard posting lists and reads rows off each
//!   shard's resident columnar buffer (`scan_column_keyed`) — zero
//!   global-index probes, no split step — and the merge keys are tuple
//!   ids (global scan order *is* ascending-id order).
//! * **Split-derived** (no matching layout): the global id list is
//!   hash-partitioned through [`pdb::ShardMap`] on the fly and
//!   [`scan_rows_at`](crate::exec) reports which original positions
//!   survived; the merge keys are those positions.
//!
//! When the pool is inline (one worker), the resident plane fuses the
//! k-way id merge into the scan itself (`scan_columns_merged`) — one
//! pass over the resident buffers, no per-shard materialization, same
//! rows in the same ascending-id order. Complement scans stay monolithic
//! (their rows are generated bindings with no tuple ids). Independent
//! projects fan groups out over `shards × threads` partitions; the
//! first-seen-row merge is partition-count invariant, so the fan-out
//! never perturbs a bit.
//!
//! The invariant pinned by `tests/sharded_agreement.rs` and the in-crate
//! tests below: for every plan, database, thread count, shard count, and
//! scheduler picker, the DAG executor returns **bit-for-bit** the serial
//! executor's relation.

use crate::exec::{
    complement_rows, scan_column_keyed, scan_columns_merged, scan_rows, scan_rows_at,
    scan_rows_keyed, ComplementSpec, OpCounters, ScanSpec, ShardScanSpec,
};
use crate::node::PlanNode;
use crate::optimize::{columns, estimate_rows};
use crate::par::{par_join_sided, par_project_parts, par_select};
use crate::relation::{choose_build_side, stitch_columnar, BuildSide, ProbRelation};
use cq::{Pred, Value, Var};
use exec_parallel::{run_dag_with_picker, DagSlots, DagStats, ExecStats, Pool, DEFAULT_GRAIN};
use lineage::ProbValue;
use pdb::{ProbDb, ShardMap};
use std::collections::BTreeSet;
use std::time::Instant;

/// Tuning for one DAG execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagOptions {
    /// Worker threads shared by the task scheduler and the nested morsel
    /// dispatches (1 = serial task schedule, serial morsels).
    pub threads: usize,
    /// Morsel size in rows for the nested intra-operator dispatches.
    pub grain: usize,
    /// Shard fan-out of the data plane (1 = monolithic). Callers wanting
    /// the cost model's opinion gate their request through
    /// [`crate::optimize::plan_shard_fanout`] first; the executor runs
    /// whatever fan-out it is handed.
    pub shards: usize,
}

impl DagOptions {
    pub fn new(threads: usize, shards: usize) -> Self {
        DagOptions {
            threads,
            grain: DEFAULT_GRAIN,
            shards,
        }
    }

    pub fn with_grain(threads: usize, shards: usize, grain: usize) -> Self {
        DagOptions {
            threads,
            grain,
            shards,
        }
    }

    /// The morsel pool this configuration describes.
    pub fn pool(&self) -> Pool {
        Pool::with_grain(self.threads, self.grain)
    }
}

impl Default for DagOptions {
    fn default() -> Self {
        DagOptions::new(1, 1)
    }
}

/// How the sharded data plane spread one execution's scan output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Fan-out the execution ran with (1 = monolithic plane).
    pub shards: usize,
    /// Scan-output rows per shard, summed over every sharded scan. All in
    /// shard 0 when the plane is monolithic.
    pub rows: Vec<u64>,
}

/// Everything a DAG execution reports besides the relation itself.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DagRun {
    /// Per-worker morsel timings from the shared pool.
    pub threads: ExecStats,
    /// Task-schedule shape: ready/running peaks and subtree overlap.
    pub sched: DagStats,
    /// Per-shard row spread of the data plane.
    pub shards: ShardStats,
}

/// One schedulable unit of a decomposed plan.
enum Task<'p> {
    /// An empty join's unit: the certain relation.
    Unit,
    /// A leaf node (scan, complement scan, constant) — no dependencies.
    Leaf(&'p PlanNode),
    /// One fold step of `certain ⋈ i0 ⋈ i1 ⋈ …`; `left` is the previous
    /// stage (`None` = the certain accumulator), `right` the input task.
    JoinStage {
        left: Option<usize>,
        right: usize,
        est_side: BuildSide,
    },
}

/// A single-child operator fused into its child task: after the task's
/// own kernel produces a relation, its posts run in plan order on the
/// same worker — identical kernels, identical order, no scheduler hop.
enum Post<'p> {
    Select(Pred),
    Project(&'p [Var]),
}

/// What one task hands downstream: its relation plus the counters and
/// per-shard row counts it accrued (merged by the coordinator after the
/// schedule drains — tasks never share mutable state).
struct TaskOut<P> {
    rel: ProbRelation<P>,
    counters: OpCounters,
    shard_rows: Vec<u64>,
}

/// Flatten `plan` into `tasks`/`deps`, children before parents (so every
/// dependency index precedes its task, the shape [`run_dag`] requires),
/// and return the root task's index — always the last. Single-child
/// `Select`/`IndependentProject` chains are fused into their child's
/// `posts` instead of becoming tasks; `inlined` counts the fusions.
fn decompose<'p>(
    plan: &'p PlanNode,
    db: &ProbDb,
    tasks: &mut Vec<Task<'p>>,
    deps: &mut Vec<Vec<usize>>,
    posts: &mut Vec<Vec<Post<'p>>>,
    inlined: &mut u64,
) -> usize {
    match plan {
        PlanNode::Certain
        | PlanNode::Never
        | PlanNode::Scan { .. }
        | PlanNode::ComplementScan { .. } => {
            tasks.push(Task::Leaf(plan));
            deps.push(Vec::new());
            posts.push(Vec::new());
        }
        PlanNode::Select { pred, input } => {
            let i = decompose(input, db, tasks, deps, posts, inlined);
            posts[i].push(Post::Select(*pred));
            *inlined += 1;
            return i;
        }
        PlanNode::IndependentProject { keep, input } => {
            let i = decompose(input, db, tasks, deps, posts, inlined);
            posts[i].push(Post::Project(keep));
            *inlined += 1;
            return i;
        }
        PlanNode::IndependentJoin { inputs } => {
            if inputs.is_empty() {
                tasks.push(Task::Unit);
                deps.push(Vec::new());
                posts.push(Vec::new());
                return tasks.len() - 1;
            }
            // All input subtrees first — they are mutually independent,
            // so they all become runnable as their own leaves complete.
            let ins: Vec<usize> = inputs
                .iter()
                .map(|i| decompose(i, db, tasks, deps, posts, inlined))
                .collect();
            // Then the fold chain, each stage's build side chosen from
            // the same incremental estimate the join-ordering rule
            // computes (the accumulator starts as certain: one row).
            let mut acc_est = 1.0f64;
            let mut seen: BTreeSet<Var> = BTreeSet::new();
            let mut prev: Option<usize> = None;
            for (k, &right) in ins.iter().enumerate() {
                let right_est = estimate_rows(&inputs[k], db);
                let est_side = if acc_est < right_est {
                    BuildSide::Left
                } else {
                    BuildSide::Right
                };
                let mut d = vec![right];
                if let Some(p) = prev {
                    d.push(p);
                }
                tasks.push(Task::JoinStage {
                    left: prev,
                    right,
                    est_side,
                });
                deps.push(d);
                posts.push(Vec::new());
                prev = Some(tasks.len() - 1);
                let cols = columns(&inputs[k]);
                let shared = cols.intersection(&seen).count();
                acc_est *= right_est / 2f64.powi(shared as i32);
                seen.extend(cols);
            }
        }
    }
    tasks.len() - 1
}

/// Evaluate a leaf node, sharding scan tasks over `map` when the plane is
/// partitioned.
fn leaf_rel<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    node: &PlanNode,
    pool: &Pool,
    map: ShardMap,
    counters: &mut OpCounters,
    shard_rows: &mut [u64],
) -> ProbRelation<P> {
    match node {
        PlanNode::Certain => ProbRelation::certain(),
        PlanNode::Never => ProbRelation::never(),
        PlanNode::Scan { atom } => {
            if map.shards() > 1 && db.shard_layout() == map.shards() {
                // Shard-resident path: the scan resolves against the
                // per-shard posting lists (zero global-index probes) and
                // full scans read straight off each shard's resident
                // columnar buffer. Keys are tuple ids — global scan order
                // *is* ascending-id order, so the id merge reproduces the
                // monolithic output exactly.
                let scan = ShardScanSpec::new(db, atom, map.shards(), counters);
                if !scan.pushdown && pool.threads() == 1 {
                    // Inline pool: nothing scans concurrently, so fuse the
                    // k-way id merge into the scan itself — one pass over
                    // the resident buffers writing survivors straight into
                    // the output, no per-shard materialization.
                    let resident: Vec<_> = (0..map.shards())
                        .map(|s| db.shard_resident(s, atom.rel))
                        .collect();
                    return scan_columns_merged(
                        &resident, probs, &scan.plan, scan.cols, shard_rows,
                    );
                }
                let outs = pool.map_partitions(map.shards(), |s| {
                    if scan.pushdown {
                        scan_rows_keyed(db, probs, &scan.plan, scan.shard_ids[s])
                    } else {
                        match db.shard_resident(s, atom.rel) {
                            Some(col) => scan_column_keyed(col, probs, &scan.plan),
                            None => Default::default(),
                        }
                    }
                });
                for (s, o) in outs.iter().enumerate() {
                    shard_rows[s] += o.1.len() as u64;
                }
                merge_shard_scans(scan.cols, outs)
            } else {
                let scan = ScanSpec::new(db, atom, counters);
                if map.shards() <= 1 {
                    let chunks = pool.map_morsels(scan.ids.len(), |r| {
                        scan_rows(db, probs, &scan.plan, &scan.ids[r])
                    });
                    let (data, out) = stitch_columnar(chunks);
                    shard_rows[0] += out.len() as u64;
                    ProbRelation::from_parts(scan.cols, data, out)
                } else {
                    // No resident layout: hash-partition the global id
                    // list on the fly. One kernel per shard over that
                    // shard's (ascending) positions into the id list; the
                    // k-way merge by original position restores the
                    // monolithic row order exactly.
                    let parts = map.split_positions(scan.ids);
                    let outs = pool.map_partitions(map.shards(), |s| {
                        scan_rows_at(db, probs, &scan.plan, scan.ids, &parts[s])
                    });
                    for (s, o) in outs.iter().enumerate() {
                        shard_rows[s] += o.1.len() as u64;
                    }
                    merge_shard_scans(scan.cols, outs)
                }
            }
        }
        PlanNode::ComplementScan { atom } => {
            // Complement rows are generated bindings with no tuple ids —
            // nothing to shard; morsel parallelism still applies.
            let spec = ComplementSpec::new(db, atom, counters);
            let chunks = pool.map_morsels(spec.total, |r| complement_rows(db, probs, &spec, r));
            let (data, out) = stitch_columnar(chunks);
            ProbRelation::from_parts(spec.cols.clone(), data, out)
        }
        other => unreachable!("non-leaf node in leaf task: {other:?}"),
    }
}

/// Merge per-shard scan outputs by ascending original position — the
/// selection merge over at most `shards` cursors that makes sharding
/// invisible in the output.
fn merge_shard_scans<P: ProbValue>(
    cols: Vec<Var>,
    outs: Vec<(Vec<Value>, Vec<P>, Vec<u32>)>,
) -> ProbRelation<P> {
    let _span = telemetry::span("merge");
    // Fast path: at most one shard produced rows (fan-out 1, or all
    // survivors hashed to one shard) — its buffer already *is* the merged
    // output, so adopt it wholesale instead of walking cursors.
    if outs.iter().filter(|o| !o.1.is_empty()).count() <= 1 {
        return match outs.into_iter().find(|o| !o.1.is_empty()) {
            Some((data, probs, _)) => ProbRelation::from_parts(cols, data, probs),
            None => ProbRelation::with_capacity(cols, 0),
        };
    }
    let arity = cols.len();
    let total: usize = outs.iter().map(|o| o.1.len()).sum();
    let mut out = ProbRelation::with_capacity(cols, total);
    let mut cur = vec![0usize; outs.len()];
    loop {
        let mut best: Option<(u32, usize)> = None;
        for (s, o) in outs.iter().enumerate() {
            if let Some(&pos) = o.2.get(cur[s]) {
                if best.is_none_or(|(b, _)| pos < b) {
                    best = Some((pos, s));
                }
            }
        }
        let Some((_, s)) = best else {
            return out;
        };
        let i = cur[s];
        out.push(&outs[s].0[i * arity..(i + 1) * arity], outs[s].1[i].clone());
        cur[s] += 1;
    }
}

/// Execute `plan` as an operator DAG over the (possibly sharded) data
/// plane. Returns exactly what [`crate::execute`] returns — same rows,
/// same order, same bits — for every thread count, shard count, and
/// schedule.
pub fn dag_execute<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    opts: &DagOptions,
) -> ProbRelation<P> {
    dag_execute_counted(db, probs, plan, opts, &mut OpCounters::default()).0
}

/// [`dag_execute`] accumulating [`OpCounters`] and reporting the schedule
/// and shard shape. Per-task counters are absorbed in task order after the
/// schedule drains, so the totals are deterministic (and, for the fields
/// the serial executor maintains, equal to its totals).
pub fn dag_execute_counted<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    opts: &DagOptions,
    counters: &mut OpCounters,
) -> (ProbRelation<P>, DagRun) {
    dag_execute_counted_with_picker(db, probs, plan, opts, |ready| ready.len() - 1, counters)
}

/// [`dag_execute_counted`] with an injectable scheduler picker (see
/// [`exec_parallel::run_dag_with_picker`]). The torn-schedule property
/// tests drive this with seeded random pickers and assert the output bits
/// never move.
pub fn dag_execute_counted_with_picker<P, PK>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    opts: &DagOptions,
    picker: PK,
    counters: &mut OpCounters,
) -> (ProbRelation<P>, DagRun)
where
    P: ProbValue + Send + Sync,
    PK: Fn(&[usize]) -> usize + Sync,
{
    assert_eq!(probs.len(), db.num_tuples(), "probability vector length");
    let fanout = opts.shards.max(1);
    let map = ShardMap::new(fanout);
    let pool = opts.pool();
    let mut tasks: Vec<Task<'_>> = Vec::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut posts: Vec<Vec<Post<'_>>> = Vec::new();
    let mut inlined = 0u64;
    let root = decompose(plan, db, &mut tasks, &mut deps, &mut posts, &mut inlined);
    debug_assert_eq!(root, tasks.len() - 1, "root must be the last task");

    let (mut outs, mut sched) = run_dag_with_picker(
        opts.threads,
        &deps,
        picker,
        |t, slots: DagSlots<'_, TaskOut<P>>| {
            let mut c = OpCounters::default();
            let mut shard_rows = vec![0u64; fanout];
            let mut rel = match &tasks[t] {
                Task::Unit => ProbRelation::certain(),
                Task::Leaf(node) => {
                    let _span = telemetry::span(match node {
                        PlanNode::Scan { .. } => "scan",
                        PlanNode::ComplementScan { .. } => "complement-scan",
                        _ => "leaf",
                    });
                    let t0 = Instant::now();
                    let out = leaf_rel(db, probs, node, &pool, map, &mut c, &mut shard_rows);
                    match node {
                        PlanNode::ComplementScan { .. } => {
                            c.times.complement_ns += t0.elapsed().as_nanos() as u64;
                        }
                        _ => c.times.scan_ns += t0.elapsed().as_nanos() as u64,
                    }
                    out
                }
                Task::JoinStage {
                    left,
                    right,
                    est_side,
                } => {
                    let _span = telemetry::span("join");
                    let t0 = Instant::now();
                    let unit;
                    let l = match left {
                        Some(i) => &slots.get(*i).rel,
                        None => {
                            unit = ProbRelation::certain();
                            &unit
                        }
                    };
                    let r = &slots.get(*right).rel;
                    c.est_builds += 1;
                    if *est_side != choose_build_side(l.len(), r.len()) {
                        c.est_build_overrides += 1;
                    }
                    let out = par_join_sided(l, r, *est_side, &pool, &mut c);
                    c.times.join_ns += t0.elapsed().as_nanos() as u64;
                    out
                }
            };
            // Fused single-child operators run here, on the same worker,
            // with the exact kernels and order the standalone tasks used.
            for post in &posts[t] {
                match post {
                    Post::Select(pred) => {
                        let _span = telemetry::span("select");
                        let t0 = Instant::now();
                        rel = par_select(&rel, pred, &pool);
                        c.times.select_ns += t0.elapsed().as_nanos() as u64;
                    }
                    Post::Project(keep) => {
                        let _span = telemetry::span("project");
                        let t0 = Instant::now();
                        rel = par_project_parts(&rel, keep, &pool, fanout * pool.threads());
                        c.groups += rel.len() as u64;
                        c.times.project_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
            TaskOut {
                rel,
                counters: c,
                shard_rows,
            }
        },
    );
    sched.inlined = inlined;

    let mut shards = ShardStats {
        shards: fanout,
        rows: vec![0; fanout],
    };
    for o in &outs {
        counters.absorb(&o.counters);
        for (s, r) in o.shard_rows.iter().enumerate() {
            shards.rows[s] += r;
        }
    }
    counters.shard_fanout = counters.shard_fanout.max(fanout as u64);
    let rel = outs.swap_remove(root).rel;
    let run = DagRun {
        threads: pool.stats(),
        sched,
        shards,
    };
    (rel, run)
}

/// `p(q)` of a Boolean plan in `f64` arithmetic via the DAG executor.
pub fn dag_query_probability(db: &ProbDb, plan: &PlanNode, opts: &DagOptions) -> (f64, DagRun) {
    dag_query_probability_counted(db, plan, opts, &mut OpCounters::default())
}

/// [`dag_query_probability`] with operator counters.
pub fn dag_query_probability_counted(
    db: &ProbDb,
    plan: &PlanNode,
    opts: &DagOptions,
    counters: &mut OpCounters,
) -> (f64, DagRun) {
    let (rel, run) = dag_execute_counted(db, db.probs(), plan, opts, counters);
    (rel.scalar(), run)
}

/// DAG counterpart of [`crate::ranked_probabilities`]: one
/// `(head binding, marginal probability)` pair per candidate, in the
/// serial path's exact order.
///
/// # Panics
/// If `plan` does not carry every variable of `head` as an output column.
pub fn dag_ranked_probabilities<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    head: &[Var],
    opts: &DagOptions,
) -> (Vec<(Vec<Value>, P)>, DagRun) {
    let mut counters = OpCounters::default();
    dag_ranked_probabilities_counted(db, probs, plan, head, opts, &mut counters)
}

/// [`dag_ranked_probabilities`] accumulating operator counters into
/// `counters` alongside the scheduler/shard report.
pub fn dag_ranked_probabilities_counted<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    head: &[Var],
    opts: &DagOptions,
    counters: &mut OpCounters,
) -> (Vec<(Vec<Value>, P)>, DagRun) {
    let (rel, run) = dag_execute_counted(db, probs, plan, opts, counters);
    (crate::exec::project_head(&rel, head), run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_plan;
    use crate::exec::{execute, execute_counted};
    use cq::{parse_query, Vocabulary};
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    use pdb::RatProbs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;

    /// The parallel suite's safe shapes: joins, constants, predicates,
    /// self-key atoms, negation — every leaf and stage kind.
    const QUERIES: &[&str] = &[
        "R(x)",
        "R(x), S(x,y)",
        "R(x), S(x,y), U(x,y,z)",
        "R(x), T(z,w)",
        "R(1), S(1,y)",
        "S(x,y), x < y",
        "S(x,x)",
        "R(x), S(x,y), U(x,y,z), V(x,w)",
        "R(x), not T(x)",
        "R(x), S(x,y), not U(x,y,z)",
    ];

    #[test]
    fn dag_matches_serial_across_threads_and_shards() {
        let mut rng = StdRng::seed_from_u64(0xDA6);
        for (i, text) in QUERIES.iter().enumerate() {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).unwrap();
            let plan = build_plan(&q).unwrap();
            let opts = RandomDbOptions {
                domain: 3,
                tuples_per_relation: 12,
                prob_range: (0.1, 0.9),
            };
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let probs = db.prob_vector();
            let serial = execute(&db, &probs, &plan);
            for threads in [1, 2, 4] {
                for shards in [1, 2, 4] {
                    // grain 2: force multi-morsel schedules inside tasks.
                    let opts = DagOptions::with_grain(threads, shards, 2);
                    let (got, run) =
                        dag_execute_counted(&db, &probs, &plan, &opts, &mut OpCounters::default());
                    assert_eq!(
                        serial, got,
                        "query {i} ({text}) diverged at {threads} threads {shards} shards"
                    );
                    assert_eq!(run.shards.shards, shards);
                }
            }
        }
    }

    /// Satellite: torn schedules on real plans — a seeded random picker
    /// permutes task completion order; output bits never change.
    #[test]
    fn torn_schedules_never_change_plan_output() {
        let mut rng = StdRng::seed_from_u64(0x70A2);
        for text in [
            "R(x), S(x,y), U(x,y,z), V(x,w)",
            "R(x), S(x,y), not U(x,y,z)",
        ] {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).unwrap();
            let plan = build_plan(&q).unwrap();
            let opts = RandomDbOptions {
                domain: 3,
                tuples_per_relation: 12,
                prob_range: (0.1, 0.9),
            };
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let probs = db.prob_vector();
            let serial = execute(&db, &probs, &plan);
            for seed in 0..8u64 {
                for threads in [1, 3] {
                    let picker_rng = Mutex::new(StdRng::seed_from_u64(seed));
                    let picker =
                        |ready: &[usize]| picker_rng.lock().unwrap().gen_range(0..ready.len());
                    let opts = DagOptions::with_grain(threads, 2, 2);
                    let (got, _) = dag_execute_counted_with_picker(
                        &db,
                        &probs,
                        &plan,
                        &opts,
                        picker,
                        &mut OpCounters::default(),
                    );
                    assert_eq!(serial, got, "{text} seed={seed} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn dag_counters_match_serial_totals_and_record_the_cost_model() {
        let mut rng = StdRng::seed_from_u64(0xC057);
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(1), S(1,y), U(x,y,z)").unwrap();
        let plan = build_plan(&q).unwrap();
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 12,
            prob_range: (0.1, 0.9),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = db.prob_vector();
        let mut serial = OpCounters::default();
        let _ = execute_counted(&db, &probs, &plan, &mut serial);
        let mut dag = OpCounters::default();
        let _ = dag_execute_counted(
            &db,
            &probs,
            &plan,
            &DagOptions::with_grain(4, 2, 2),
            &mut dag,
        );
        // Operator-granularity counters are identical; the DAG path adds
        // its cost-model record on top.
        assert_eq!(serial.scans, dag.scans);
        assert_eq!(serial.index_scans, dag.index_scans);
        assert_eq!(serial.rows_scanned, dag.rows_scanned);
        assert_eq!(serial.rows_pruned, dag.rows_pruned);
        assert_eq!(serial.joins, dag.joins);
        assert_eq!(serial.join_rows, dag.join_rows);
        assert_eq!(serial.groups, dag.groups);
        assert_eq!(dag.est_builds, dag.joins, "every stage is estimate-chosen");
        assert_eq!(dag.shard_fanout, 2);
        assert_eq!(serial.shard_fanout, 0, "serial path never shards");
    }

    #[test]
    fn resident_layout_scans_without_global_index_probes() {
        let mut rng = StdRng::seed_from_u64(0x5A1D);
        for text in [
            "R(x), S(x,y)",
            "R(1), S(1,y), U(x,y,z)",
            "S(x,x)",
            "R(x), not T(x)",
        ] {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).unwrap();
            let plan = build_plan(&q).unwrap();
            let opts = RandomDbOptions {
                domain: 4,
                tuples_per_relation: 40,
                prob_range: (0.1, 0.9),
            };
            let mut db = random_db_for_query(&q, &voc, opts, &mut rng);
            let probs = db.prob_vector();
            let mut serial_c = OpCounters::default();
            let serial = execute_counted(&db, &probs, &plan, &mut serial_c);
            assert!(serial_c.global_index_probes > 0, "{text}: serial probes");
            for shards in [2usize, 3, 7] {
                db.set_shard_layout(shards);
                for threads in [1, 4] {
                    let mut c = OpCounters::default();
                    let (got, _) = dag_execute_counted(
                        &db,
                        &probs,
                        &plan,
                        &DagOptions::with_grain(threads, shards, 2),
                        &mut c,
                    );
                    assert_eq!(serial, got, "{text} at {threads} threads {shards} shards");
                    assert_eq!(
                        c.global_index_probes, 0,
                        "{text}: resident path probed globally"
                    );
                    assert!(c.shard_index_probes > 0, "{text}: no shard probes recorded");
                    // Scan-granularity counters replicate the monolithic
                    // figures exactly — the per-shard lists partition the
                    // global lists, so the same column wins pushdown.
                    assert_eq!(c.scans, serial_c.scans, "{text}");
                    assert_eq!(c.index_scans, serial_c.index_scans, "{text}");
                    assert_eq!(c.rows_scanned, serial_c.rows_scanned, "{text}");
                    assert_eq!(c.rows_pruned, serial_c.rows_pruned, "{text}");
                }
            }
            // Fan-out ≠ layout: the executor must fall back to the
            // split-derived path (global probes again) and still agree.
            let mut c = OpCounters::default();
            let (got, _) =
                dag_execute_counted(&db, &probs, &plan, &DagOptions::with_grain(2, 2, 2), &mut c);
            assert_eq!(serial, got, "{text}: split fallback diverged");
            assert_eq!(
                c.global_index_probes, serial_c.global_index_probes,
                "{text}"
            );
        }
    }

    #[test]
    fn sharded_scan_rows_spread_and_sum() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..400u64 {
            db.insert(r, vec![Value(i)], 0.3);
            db.insert(s, vec![Value(i % 40), Value(i)], 0.6);
        }
        let plan = build_plan(&q).unwrap();
        let probs = db.prob_vector();
        let serial = execute(&db, &probs, &plan);
        let opts = DagOptions::with_grain(4, 4, 16);
        let (got, run) = dag_execute_counted(&db, &probs, &plan, &opts, &mut OpCounters::default());
        assert_eq!(serial, got);
        assert_eq!(run.shards.rows.len(), 4);
        assert_eq!(run.shards.rows.iter().sum::<u64>(), 800, "all scan rows");
        assert!(
            run.shards.rows.iter().all(|&r| r > 0),
            "skewed shards: {:?}",
            run.shards.rows
        );
    }

    #[test]
    fn dag_matches_serial_on_exact_rationals() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let plan = build_plan(&q).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 8,
            prob_range: (0.1, 0.9),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = RatProbs::from_db(&db);
        let serial = execute(&db, probs.as_slice(), &plan);
        let got = dag_execute(
            &db,
            probs.as_slice(),
            &plan,
            &DagOptions::with_grain(4, 2, 2),
        );
        assert_eq!(serial, got);
    }

    #[test]
    fn ranked_dag_matches_serial() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
        let d = q.vars()[0];
        let plan = crate::build::build_ranked_plan(&q, &[d]).unwrap();
        let director = voc.find_relation("Director").unwrap();
        let credit = voc.find_relation("Credit").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..20u64 {
            db.insert(director, vec![Value(i)], 0.02 + 0.04 * i as f64);
            db.insert(credit, vec![Value(i), Value(100 + i)], 0.9);
            db.insert(credit, vec![Value(i), Value(200 + i)], 0.4);
        }
        let probs = db.prob_vector();
        let serial = crate::exec::ranked_probabilities(&db, &probs, &plan, &[d]);
        for threads in [1, 2, 4] {
            for shards in [1, 3] {
                let (got, _) = dag_ranked_probabilities(
                    &db,
                    &probs,
                    &plan,
                    &[d],
                    &DagOptions::with_grain(threads, shards, 2),
                );
                assert_eq!(serial, got, "{threads} threads {shards} shards");
            }
        }
    }

    #[test]
    fn bushy_plans_overlap_subtrees() {
        // Four scans under one join: with 4 workers, independent subtrees
        // must actually run concurrently at least once.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), U(x,y,z), V(x,w)").unwrap();
        let plan = build_plan(&q).unwrap();
        let mut rng = StdRng::seed_from_u64(0xB00);
        let opts = RandomDbOptions {
            domain: 6,
            tuples_per_relation: 300,
            prob_range: (0.1, 0.9),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = db.prob_vector();
        let (got, run) = dag_execute_counted(
            &db,
            &probs,
            &plan,
            &DagOptions::with_grain(4, 1, 32),
            &mut OpCounters::default(),
        );
        assert_eq!(execute(&db, &probs, &plan), got);
        assert!(run.sched.max_ready >= 2, "{:?}", run.sched);
        assert!(run.sched.tasks >= 8, "{:?}", run.sched);
        assert!(
            run.sched.inlined >= 1,
            "projects should fuse into their producers: {:?}",
            run.sched
        );
    }

    #[test]
    fn empty_database_scalar_is_zero() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let db = ProbDb::new(voc);
        let plan = build_plan(&q).unwrap();
        let (p, _) = dag_query_probability(&db, &plan, &DagOptions::new(4, 4));
        assert_eq!(p, 0.0);
    }
}
