//! The safe-plan executor: plan-level pipelining over a sharded data
//! plane.
//!
//! [`dag_execute_counted`] is the one executor of a [`PlanNode`]. It runs
//! the columnar flat-buffer kernels of [`crate::exec`] with parallelism
//! at two levels. It decomposes the plan tree into a dependency DAG of
//! **operator tasks** and hands it to
//! [`exec_parallel::run_dag`]: independent subtrees (the inputs of an
//! independent join) evaluate concurrently, and every task's output
//! lands in a pre-assigned slot so downstream stitching is deterministic.
//! Inside a task, operators fan morsels out on the shared [`Pool`]:
//!
//! * **scans** and **complement scans** partition their input (pushed-down
//!   tuple ids, linearized bindings) into morsels; each morsel emits a
//!   columnar chunk of whole rows, stitched in morsel order;
//! * **joins** index the build side once, then probe the other side in
//!   parallel morsels. When the build side is the left input, probing
//!   yields `(left, right)` id pairs that a stable counting sort restores
//!   to probe-major output order before a morsel-parallel emission pass
//!   materializes them;
//! * **independent projects** — the `1 − Π(1−p)` aggregation at the core
//!   of the extensional operators — hash-partition *groups* across
//!   workers (packed-key `Grouper` folds) and merge the per-partition
//!   results by first-seen row index, so every group is folded by exactly
//!   one worker in row order.
//!
//! The serial configuration is [`DagOptions::default`] — one thread, one
//! shard — and it is not a separate code path: the task schedule runs
//! inline on the calling thread, a one-worker pool's morsel is the whole
//! input, and stitching one chunk moves its buffers. [`execute`],
//! [`query_probability`] and [`ranked_probabilities`] are that
//! configuration.
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
//!   `JoinStage` tasks folding `certain ⋈ i0 ⋈ i1 ⋈ …` — stage `k`
//!   depends on stage `k−1` *and* input `k`, so input `k+1` evaluates
//!   while stage `k` joins.
//!
//! A join stage runs only once both its inputs have materialized, so it
//! hashes the input with fewer rows (`choose_build_side`): an exact count,
//! where a posting-list estimate taken before the inputs exist would
//! often pick the larger side. The output is bit-identical either way
//! (see `par_join`).
//!
//! ## Sharded scans
//!
//! A scan shards only over the layout the database already has:
//! [`ProbDb::shard_map_for`] grants [`DagOptions::shards`] when it equals
//! `db.shard_layout()` and hands back the monolithic map otherwise, so a
//! fan-out above 1 needs a matching [`ProbDb::set_shard_layout`]. On a
//! matching layout, scan tasks run one kernel per shard: the scan resolves
//! against per-shard posting lists and reads rows off each shard's
//! resident columnar buffer (`scan_column_keyed`) — zero global-index
//! probes — and the per-shard outputs k-way-merge by tuple id back into
//! the exact monolithic row order (global scan order *is* ascending-id
//! order): same rows, same order, same bits. Without one, the run is
//! monolithic and [`ShardStats::shards`] reports 1.
//!
//! Complement scans stay monolithic (their rows are generated bindings
//! with no tuple ids). Independent projects fan groups out over
//! `shards × threads` partitions; the first-seen-row merge is
//! partition-count invariant, so the fan-out never perturbs a bit.
//!
//! The invariant pinned by `tests/sharded_agreement.rs` (against the
//! row-at-a-time oracle in `tests/common/rowref.rs`) and the in-crate
//! tests below: for every plan, database, thread count, shard count,
//! morsel grain, and scheduler picker, the executor returns
//! **bit-for-bit** the same relation — same rows, same order, same `f64`
//! values. Morsel outputs stitch in morsel order (the stride invariant
//! makes that plain buffer concatenation), group folds keep the row-order
//! multiplication, and worker scheduling never leaks into results.
//! Parallelism changes wall time, not answers.

use crate::exec::{
    complement_rows, scan_column_keyed, scan_rows, scan_rows_keyed, CompiledPred, ComplementSpec,
    OpCounters, ScanSpec, ShardScanSpec,
};
use crate::node::PlanNode;
use crate::relation::{
    choose_build_side, emit_pairs, filter_rows, gather_key, group_fold_rows, hash_values,
    join_spec, pairs_by_left, probe_emit, probe_pairs, stitch, stitch_columnar, BuildSide,
    GroupFold, JoinIndex, ProbRelation,
};
use cq::{Pred, Value, Var};
use exec_parallel::{run_dag_with_picker, DagSlots, DagStats, ExecStats, Pool, DEFAULT_GRAIN};
use lineage::ProbValue;
use numeric::QRat;
use pdb::{ProbDb, RatProbs, ShardMap, TupleId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tuning for one execution. The default is the serial configuration:
/// one thread, one shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagOptions {
    /// Worker threads shared by the task scheduler and the nested morsel
    /// dispatches (1 = inline task schedule, one morsel per operator).
    pub threads: usize,
    /// Morsel size in rows for the nested intra-operator dispatches of a
    /// multi-thread pool.
    pub grain: usize,
    /// Shard fan-out of the data plane (1 = monolithic). A fan-out above
    /// 1 runs only on a database laid out at that count by
    /// [`ProbDb::set_shard_layout`]; any other layout runs monolithic
    /// ([`ProbDb::shard_map_for`]). Callers wanting the cost model's
    /// opinion gate their request through
    /// [`crate::optimize::plan_shard_fanout`] first.
    pub shards: usize,
}

impl DagOptions {
    /// One thread, one shard: the serial configuration.
    pub fn serial() -> Self {
        DagOptions::new(1, 1)
    }

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
        DagOptions::serial()
    }
}

/// How the sharded data plane spread one execution's scan output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Fan-out the execution ran with (1 = monolithic plane, also when
    /// the database was not laid out at the requested fan-out).
    pub shards: usize,
    /// Scan-output rows per shard, summed over every sharded scan. All in
    /// shard 0 when the plane is monolithic.
    pub rows: Vec<u64>,
}

/// Everything an execution reports besides the relation itself.
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
    JoinStage { left: Option<usize>, right: usize },
}

/// A single-child operator fused into its child task: after the task's
/// own kernel produces a relation, its posts run in plan order on the
/// same worker — identical kernels, identical order, no scheduler hop.
enum Post<'p> {
    Select(Pred),
    Project(&'p [Var]),
}

/// What one task hands downstream: its relation plus the counters it
/// accrued (merged by the coordinator after the schedule drains — tasks
/// never share mutable state). In a plan tree every task's relation has
/// exactly one consumer, which takes it: an input is freed as soon as the
/// stage that joins it is done, not when the whole schedule is.
struct TaskOut<P> {
    rel: Mutex<Option<ProbRelation<P>>>,
    counters: OpCounters,
}

impl<P> TaskOut<P> {
    fn take(&self) -> ProbRelation<P> {
        self.rel
            .lock()
            .expect("task output poisoned")
            .take()
            .expect("a task output has one consumer")
    }
}

/// A plan flattened into tasks, children before parents — every
/// dependency index precedes its task, the shape [`run_dag`] requires.
/// Single-child `Select`/`IndependentProject` chains are fused into their
/// child's `posts` instead of becoming tasks; `inlined` counts them.
///
/// [`run_dag`]: exec_parallel::run_dag
struct Tasks<'p> {
    tasks: Vec<Task<'p>>,
    deps: Vec<Vec<usize>>,
    posts: Vec<Vec<Post<'p>>>,
    inlined: u64,
}

impl<'p> Tasks<'p> {
    fn new(plan: &'p PlanNode) -> Self {
        // A plan of n operators never needs more than n tasks.
        let n = plan.size();
        let mut out = Tasks {
            tasks: Vec::with_capacity(n),
            deps: Vec::with_capacity(n),
            posts: Vec::with_capacity(n),
            inlined: 0,
        };
        out.decompose(plan);
        out
    }

    fn push(&mut self, task: Task<'p>, deps: Vec<usize>) -> usize {
        self.tasks.push(task);
        self.deps.push(deps);
        self.posts.push(Vec::new());
        self.tasks.len() - 1
    }

    /// Flatten `plan` and return its task index — always the last task
    /// pushed.
    fn decompose(&mut self, plan: &'p PlanNode) -> usize {
        match plan {
            PlanNode::Certain
            | PlanNode::Never
            | PlanNode::Scan { .. }
            | PlanNode::ComplementScan { .. } => self.push(Task::Leaf(plan), Vec::new()),
            PlanNode::Select { pred, input } => {
                let i = self.decompose(input);
                self.posts[i].push(Post::Select(*pred));
                self.inlined += 1;
                i
            }
            PlanNode::IndependentProject { keep, input } => {
                let i = self.decompose(input);
                self.posts[i].push(Post::Project(keep));
                self.inlined += 1;
                i
            }
            PlanNode::IndependentJoin { inputs } => {
                // The fold chain `certain ⋈ i0 ⋈ i1 ⋈ …`: stage k joins
                // stage k−1 with input k. The input subtrees depend on
                // nothing outside themselves, so their leaves are all
                // runnable from the start.
                let mut prev: Option<usize> = None;
                for input in inputs {
                    let right = self.decompose(input);
                    let deps = match prev {
                        Some(p) => vec![right, p],
                        None => vec![right],
                    };
                    prev = Some(self.push(Task::JoinStage { left: prev, right }, deps));
                }
                prev.unwrap_or_else(|| self.push(Task::Unit, Vec::new()))
            }
        }
    }
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
    shard_rows: &[AtomicU64],
) -> ProbRelation<P> {
    let tally = |s: usize, rows: usize| {
        shard_rows[s].fetch_add(rows as u64, Ordering::Relaxed);
    };
    match node {
        PlanNode::Certain => ProbRelation::certain(),
        PlanNode::Never => ProbRelation::never(),
        PlanNode::Scan { atom } if map.shards() > 1 => {
            // `map` came from `ProbDb::shard_map_for`, so the database is
            // laid out at this fan-out: the scan resolves against the
            // per-shard posting lists (zero global-index probes) and full
            // scans read straight off each shard's resident columnar
            // buffer.
            let scan = ShardScanSpec::new(db, atom, counters);
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
                tally(s, o.1.len());
            }
            merge_shard_scans(scan.cols, outs)
        }
        PlanNode::Scan { atom } => {
            let scan = ScanSpec::new(db, atom, counters);
            let chunks = pool.map_morsels(scan.ids.len(), |r| {
                scan_rows(db, probs, &scan.plan, &scan.ids[r])
            });
            let (data, out) = stitch_columnar(chunks);
            tally(0, out.len());
            ProbRelation::from_parts(scan.cols, data, out)
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

/// Merge per-shard scan outputs by ascending tuple id — the selection
/// merge over at most `shards` cursors that makes sharding invisible in
/// the output, since the monolithic scan emits rows in id order.
fn merge_shard_scans<P: ProbValue>(
    cols: Vec<Var>,
    outs: Vec<(Vec<Value>, Vec<P>, Vec<TupleId>)>,
) -> ProbRelation<P> {
    let _span = telemetry::span("merge");
    // Fast path: at most one shard produced rows (all survivors hashed to
    // one shard) — its buffer already *is* the merged output, so adopt it
    // wholesale instead of walking cursors.
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
        let mut best: Option<(TupleId, usize)> = None;
        for (s, o) in outs.iter().enumerate() {
            if let Some(&id) = o.2.get(cur[s]) {
                if best.is_none_or(|(b, _)| id < b) {
                    best = Some((id, s));
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

/// Execute `plan` over the (possibly sharded) data plane, accumulating
/// [`OpCounters`] and reporting the schedule and shard shape. Scans shard
/// only when `db` is laid out at `opts.shards` (see
/// [`ProbDb::shard_map_for`]). Returns the same rows in the same order
/// with the same bits for every thread count, shard count, layout and
/// schedule. Per-task counters are absorbed in task order after the
/// schedule drains, so the totals are deterministic.
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
fn dag_execute_counted_with_picker<P, PK>(
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
    let map = db.shard_map_for(opts.shards);
    let fanout = map.shards();
    let pool = opts.pool();
    let Tasks {
        tasks,
        deps,
        posts,
        inlined,
    } = Tasks::new(plan);
    let root = tasks.len() - 1;
    let shard_rows: Vec<AtomicU64> = (0..fanout).map(|_| AtomicU64::new(0)).collect();

    let (mut outs, mut sched) = run_dag_with_picker(
        opts.threads,
        &deps,
        picker,
        |t, slots: DagSlots<'_, TaskOut<P>>| {
            let mut c = OpCounters::default();
            let mut rel = match &tasks[t] {
                Task::Unit => ProbRelation::certain(),
                Task::Leaf(node) => {
                    let _span = telemetry::span(match node {
                        PlanNode::Scan { .. } => "scan",
                        PlanNode::ComplementScan { .. } => "complement-scan",
                        _ => "leaf",
                    });
                    let t0 = Instant::now();
                    let out = leaf_rel(db, probs, node, &pool, map, &mut c, &shard_rows);
                    match node {
                        PlanNode::ComplementScan { .. } => {
                            c.times.complement_ns += t0.elapsed().as_nanos() as u64;
                        }
                        _ => c.times.scan_ns += t0.elapsed().as_nanos() as u64,
                    }
                    out
                }
                Task::JoinStage { left, right } => {
                    let _span = telemetry::span("join");
                    let t0 = Instant::now();
                    let l = match left {
                        Some(i) => slots.get(*i).take(),
                        None => ProbRelation::certain(),
                    };
                    let out = par_join(&l, &slots.get(*right).take(), &pool, &mut c);
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
                rel: Mutex::new(Some(rel)),
                counters: c,
            }
        },
    );
    sched.inlined = inlined;
    for o in &outs {
        counters.absorb(&o.counters);
    }
    counters.shard_fanout = counters.shard_fanout.max(fanout as u64);
    let rel = outs.swap_remove(root).take();
    let run = DagRun {
        threads: pool.stats(),
        sched,
        shards: ShardStats {
            shards: fanout,
            rows: shard_rows
                .iter()
                .map(|r| r.load(Ordering::Relaxed))
                .collect(),
        },
    };
    (rel, run)
}

/// `p(q)` of a Boolean plan in `f64` arithmetic.
pub fn dag_query_probability(db: &ProbDb, plan: &PlanNode, opts: &DagOptions) -> (f64, DagRun) {
    let (rel, run) = dag_execute_counted(db, db.probs(), plan, opts, &mut OpCounters::default());
    (rel.scalar(), run)
}

/// Execute a ranked plan (see [`crate::build_ranked_plan`]) and return one
/// `(head binding, marginal probability)` pair per candidate answer, with
/// the binding ordered as `head` — the whole answer set of a non-Boolean
/// query in a single set-at-a-time pass — alongside the schedule and
/// shard report, accumulating operator counters into `counters`.
///
/// # Panics
/// If `plan` does not carry every variable of `head` as an output column
/// (i.e. it was built for a different head).
pub fn dag_ranked_probabilities_counted<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    head: &[Var],
    opts: &DagOptions,
    counters: &mut OpCounters,
) -> (Vec<(Vec<Value>, P)>, DagRun) {
    let (rel, run) = dag_execute_counted(db, probs, plan, opts, counters);
    let order: Vec<usize> = head
        .iter()
        .map(|&h| rel.col_index(h).expect("ranked plan carries head column"))
        .collect();
    let pairs = rel
        .iter()
        .map(|(row, p)| (order.iter().map(|&i| row[i]).collect(), p.clone()))
        .collect();
    (pairs, run)
}

/// Execute `plan` over `db` serially, with tuple probabilities supplied
/// in [`pdb::TupleId`] order (so the same plan runs on `f64` and on exact
/// rationals).
pub fn execute<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
) -> ProbRelation<P> {
    dag_execute_counted(
        db,
        probs,
        plan,
        &DagOptions::default(),
        &mut OpCounters::default(),
    )
    .0
}

/// `p(q)` of a Boolean plan in `f64` arithmetic, serially.
pub fn query_probability(db: &ProbDb, plan: &PlanNode) -> f64 {
    dag_query_probability(db, plan, &DagOptions::default()).0
}

/// [`query_probability`] with operator counters.
pub fn query_probability_counted(db: &ProbDb, plan: &PlanNode, counters: &mut OpCounters) -> f64 {
    dag_execute_counted(db, db.probs(), plan, &DagOptions::default(), counters)
        .0
        .scalar()
}

/// `p(q)` of a Boolean plan in exact rational arithmetic, serially.
pub fn query_probability_exact(db: &ProbDb, probs: &RatProbs, plan: &PlanNode) -> QRat {
    execute(db, probs.as_slice(), plan).scalar()
}

/// [`dag_ranked_probabilities_counted`], serially and without counters.
pub fn ranked_probabilities<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    head: &[Var],
) -> Vec<(Vec<Value>, P)> {
    let opts = DagOptions::default();
    dag_ranked_probabilities_counted(db, probs, plan, head, &opts, &mut OpCounters::default()).0
}

/// Partitioned filter: morsels over the input rows, each emitting a
/// columnar chunk of whole rows.
fn par_select<P: ProbValue + Send + Sync>(
    rel: &ProbRelation<P>,
    pred: &Pred,
    pool: &Pool,
) -> ProbRelation<P> {
    let cols = rel.cols().to_vec();
    let pred = CompiledPred::new(pred, &cols);
    let chunks = pool.map_morsels(rel.len(), |rows| {
        filter_rows(rel, rows, |row| pred.eval(row))
    });
    let (data, probs) = stitch_columnar(chunks);
    ProbRelation::from_parts(cols, data, probs)
}

/// Independent join, hashing the input with fewer rows. The build side
/// is indexed once on the calling worker; the probe side streams through
/// in morsels. The output is bit-identical whichever side is built — a
/// right build emits probe-major directly; a left build counting-sorts
/// the probe pairs back into the same left-major order and materializes
/// in parallel over stride-aligned pair ranges.
pub(crate) fn par_join<P: ProbValue + Send + Sync>(
    left: &ProbRelation<P>,
    right: &ProbRelation<P>,
    pool: &Pool,
    counters: &mut OpCounters,
) -> ProbRelation<P> {
    counters.joins += 1;
    let spec = join_spec(left.cols(), right.cols());
    let (data, probs) = match choose_build_side(left.len(), right.len()) {
        BuildSide::Right => {
            let index = JoinIndex::build(right, &spec.other_key);
            let chunks =
                pool.map_morsels(left.len(), |r| probe_emit(&spec, left, right, &index, r));
            stitch_columnar(chunks)
        }
        BuildSide::Left => {
            counters.joins_build_left += 1;
            let index = JoinIndex::build(left, &spec.left_key);
            let pair_chunks = pool.map_morsels(right.len(), |r| {
                probe_pairs(&index, right, &spec.other_key, r)
            });
            // Chunks concatenate right-ascending (morsel order), exactly
            // the serial probe sequence; the counting sort then restores
            // left-major output order.
            let pairs = pairs_by_left(&stitch(pair_chunks), left.len());
            let chunks =
                pool.map_morsels(pairs.len(), |r| emit_pairs(&spec, left, right, &pairs[r]));
            stitch_columnar(chunks)
        }
    };
    counters.join_rows += probs.len() as u64;
    ProbRelation::from_parts(spec.out_cols, data, probs)
}

/// Parallel independent project over `parts` hash partitions of the
/// groups: each worker folds its groups' rows **in row order** (the
/// serial multiplication order) through the packed-key grouper, and the
/// per-partition results merge by first-seen row index — disjoint groups,
/// so merging is concatenation, not re-multiplication, and `f64` bits are
/// preserved. The merge makes the output a pure function of the input,
/// identical for **any** `parts`, so groups can fan out over
/// `shards × threads` partitions without perturbing a single bit.
fn par_project_parts<P: ProbValue + Send + Sync>(
    rel: &ProbRelation<P>,
    keep: &[Var],
    pool: &Pool,
    parts: usize,
) -> ProbRelation<P> {
    // Sub-morsel inputs are not worth a fan-out; the serial fold is the
    // same computation (bit for bit), minus the partition scaffolding.
    if (pool.threads() == 1 && parts <= 1) || rel.len() <= pool.grain() {
        return rel.independent_project(keep);
    }
    let parts = parts.max(1);
    let key_idx: Vec<usize> = keep
        .iter()
        .map(|&v| rel.col_index(v).expect("projection column missing"))
        .collect();
    // Phase 1: group hashes, one pass in parallel morsels (order-stable).
    let hash_chunks = pool.map_morsels(rel.len(), |rows| {
        let mut key = vec![Value(0); key_idx.len()];
        rows.map(|i| {
            gather_key(rel.row(i), &key_idx, &mut key);
            hash_values(&key)
        })
        .collect::<Vec<u64>>()
    });
    let owners = partition_rows(&stitch(hash_chunks), parts);
    // Phase 2: each worker owns the groups hashing to its partitions and
    // folds `Π(1−p)` over their rows in row order, touching only its own
    // rows (`owners[part]` ascends, preserving the serial fold order).
    let partials: Vec<GroupFold<P>> = pool.map_partitions(parts, |part| {
        group_fold_rows(rel, &key_idx, owners[part].iter().copied())
    });
    // Phase 3: merge partitions by first-seen row index — the serial
    // executor's group emission order.
    let mut entries: Vec<(u32, usize, usize)> = Vec::new();
    for (pi, fold) in partials.iter().enumerate() {
        for s in 0..fold.grouper.len() {
            entries.push((fold.first_row[s], pi, s));
        }
    }
    entries.sort_unstable_by_key(|&(first, _, _)| first);
    let mut out = ProbRelation::with_capacity(keep.to_vec(), entries.len());
    for (_, pi, s) in entries {
        out.push(
            partials[pi].grouper.key(s),
            partials[pi].none[s].complement(),
        );
    }
    out
}

/// Bucket row indices by hash partition; each bucket ascends, so workers
/// iterating a bucket visit rows in the serial pass's order.
fn partition_rows(hashes: &[u64], parts: usize) -> Vec<Vec<u32>> {
    let mut owners: Vec<Vec<u32>> = vec![Vec::new(); parts];
    for (i, &h) in hashes.iter().enumerate() {
        let i = u32::try_from(i).expect("partitioned input exceeds u32 rows");
        owners[h as usize % parts].push(i);
    }
    owners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_plan;
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
            let mut db = random_db_for_query(&q, &voc, opts, &mut rng);
            let probs = db.prob_vector();
            let serial = execute(&db, &probs, &plan);
            for shards in [1, 2, 4] {
                db.set_shard_layout(shards);
                for threads in [1, 2, 4] {
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
            let mut db = random_db_for_query(&q, &voc, opts, &mut rng);
            let probs = db.prob_vector();
            let serial = execute(&db, &probs, &plan);
            db.set_shard_layout(2);
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
        let mut db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = db.prob_vector();
        let mut serial = OpCounters::default();
        let _ = dag_execute_counted(&db, &probs, &plan, &DagOptions::default(), &mut serial);
        assert!(serial.index_scans > 0, "{serial:?}");
        assert_eq!(serial.shard_fanout, 1, "one thread runs one shard");
        db.set_shard_layout(2);
        for threads in [1, 2, 4] {
            let mut dag = OpCounters::default();
            let _ = dag_execute_counted(
                &db,
                &probs,
                &plan,
                &DagOptions::with_grain(threads, 2, 2),
                &mut dag,
            );
            // Operator-granularity counters are identical at every thread
            // count; the DAG path adds its cost-model record on top.
            assert_eq!(serial.scans, dag.scans, "{threads} threads");
            assert_eq!(serial.index_scans, dag.index_scans, "{threads} threads");
            assert_eq!(serial.rows_scanned, dag.rows_scanned, "{threads} threads");
            assert_eq!(serial.rows_pruned, dag.rows_pruned, "{threads} threads");
            assert_eq!(serial.joins, dag.joins, "{threads} threads");
            assert_eq!(serial.join_rows, dag.join_rows, "{threads} threads");
            assert_eq!(serial.groups, dag.groups, "{threads} threads");
            assert_eq!(
                serial.joins_build_left, dag.joins_build_left,
                "{threads} threads: build sides follow the materialized sizes"
            );
            assert_eq!(dag.shard_fanout, 2);
        }
    }

    #[test]
    fn stats_report_the_fan_out() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let plan = build_plan(&q).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let opts = RandomDbOptions {
            domain: 5,
            tuples_per_relation: 40,
            prob_range: (0.1, 0.9),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let (p, run) = dag_query_probability(&db, &plan, &DagOptions::with_grain(4, 1, 4));
        assert_eq!(p, query_probability(&db, &plan));
        let stats = run.threads;
        assert_eq!(stats.threads(), 4);
        assert!(stats.total_morsels() > 0, "{stats:?}");
        assert!(stats.total_rows() > 0, "{stats:?}");
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
            let (serial, _) =
                dag_execute_counted(&db, &probs, &plan, &DagOptions::default(), &mut serial_c);
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
            // Fan-out ≠ layout: the scans stay monolithic — the serial
            // bits, the serial global probes, a reported fan-out of 1.
            for layout in [1usize, 3] {
                db.set_shard_layout(layout);
                let mut c = OpCounters::default();
                let opts = DagOptions::with_grain(2, 2, 2);
                let (got, run) = dag_execute_counted(&db, &probs, &plan, &opts, &mut c);
                assert_eq!(serial, got, "{text}: layout {layout}");
                assert_eq!(run.shards.shards, 1, "{text}: layout {layout}");
                assert_eq!(
                    c.global_index_probes, serial_c.global_index_probes,
                    "{text}: layout {layout}"
                );
            }
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
        db.set_shard_layout(4);
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
        let mut db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = RatProbs::from_db(&db);
        let serial = execute(&db, probs.as_slice(), &plan);
        db.set_shard_layout(2);
        let (got, _) = dag_execute_counted(
            &db,
            probs.as_slice(),
            &plan,
            &DagOptions::with_grain(4, 2, 2),
            &mut OpCounters::default(),
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
        let serial = ranked_probabilities(&db, &probs, &plan, &[d]);
        for shards in [1, 3] {
            db.set_shard_layout(shards);
            for threads in [1, 2, 4] {
                let (got, _) = dag_ranked_probabilities_counted(
                    &db,
                    &probs,
                    &plan,
                    &[d],
                    &DagOptions::with_grain(threads, shards, 2),
                    &mut OpCounters::default(),
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
        let mut db = ProbDb::new(voc);
        db.set_shard_layout(4);
        let plan = build_plan(&q).unwrap();
        let (p, run) = dag_query_probability(&db, &plan, &DagOptions::new(4, 4));
        assert_eq!(p, 0.0);
        assert_eq!(run.shards.shards, 4);
    }
}
