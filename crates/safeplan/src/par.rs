//! Morsel-driven parallel execution of safe plans.
//!
//! [`par_execute`] runs the same [`PlanNode`] language as [`crate::execute`]
//! on a scoped-thread worker [`Pool`] (see the `exec-parallel` crate), one
//! operator at a time, parallel *within* each operator — and on the same
//! **columnar flat-buffer kernels** as the serial executor:
//!
//! * **scans** and **complement scans** partition their input (pushed-down
//!   tuple ids, linearized bindings) into morsels pulled from a shared
//!   cursor; each morsel emits a columnar chunk of whole rows;
//! * **joins** hash the **smaller** input once (build-side selection —
//!   identical to the serial choice, a pure function of the row counts),
//!   then probe the larger side in parallel morsels. When the build side
//!   is the left input, probing yields `(left, right)` id pairs that a
//!   stable counting sort restores to the serial output order before a
//!   morsel-parallel emission pass materializes them;
//! * **independent projects** — the `1 − Π(1−p)` aggregation at the core of
//!   the extensional operators — hash-partition *groups* across workers
//!   (packed-key [`Grouper`](crate::relation) folds, no per-row keys) and
//!   merge the per-partition results by first-seen row index, so every
//!   group is folded by exactly one worker in row order.
//!
//! The invariant throughout (and the property the agreement tests pin
//! down): for any plan, database, and thread count, `par_execute` returns
//! **bit-for-bit** the relation the serial executor returns — same row
//! order, same `f64` values. Morsel outputs are stitched in morsel order
//! (the stride invariant makes that plain buffer concatenation), group
//! folds keep the serial multiplication order, and worker scheduling never
//! leaks into results. Parallelism changes wall time, not answers.

use crate::exec::{complement_rows, eval_pred, scan_rows, ComplementSpec, OpCounters, ScanSpec};
use crate::node::PlanNode;
use crate::relation::{
    choose_build_side, emit_pairs, filter_rows, group_fold_rows, hash_row_key, join_spec,
    pairs_by_left, probe_emit, probe_pairs, stitch_columnar, BuildSide, GroupFold, JoinIndex,
    ProbRelation,
};
use cq::{Pred, Value, Var};
use exec_parallel::{ExecStats, Pool, DEFAULT_GRAIN};
use lineage::ProbValue;
use pdb::ProbDb;
use std::time::Instant;

/// Tuning for one parallel execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParOptions {
    /// Worker threads (1 = inline serial dispatch, no spawning).
    pub threads: usize,
    /// Morsel size in rows; tests shrink it to force multi-morsel
    /// schedules on small inputs.
    pub grain: usize,
}

impl ParOptions {
    pub fn new(threads: usize) -> Self {
        ParOptions {
            threads,
            grain: DEFAULT_GRAIN,
        }
    }

    pub fn with_grain(threads: usize, grain: usize) -> Self {
        ParOptions { threads, grain }
    }

    /// The pool this configuration describes.
    pub fn pool(&self) -> Pool {
        Pool::with_grain(self.threads, self.grain)
    }
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions::new(1)
    }
}

/// Execute `plan` over `db` on `pool`, with tuple probabilities in
/// [`pdb::TupleId`] order. Returns exactly what [`crate::execute`] returns
/// — same rows, same order, same bits — for every thread count.
pub fn par_execute<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    pool: &Pool,
) -> ProbRelation<P> {
    par_execute_counted(db, probs, plan, pool, &mut OpCounters::default())
}

/// [`par_execute`] accumulating [`OpCounters`]. Counters are taken at
/// operator granularity on the coordinating thread, never inside morsels,
/// so they equal the serial execution's counters exactly.
pub fn par_execute_counted<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    pool: &Pool,
    counters: &mut OpCounters,
) -> ProbRelation<P> {
    assert_eq!(probs.len(), db.num_tuples(), "probability vector length");
    par_node(db, probs, plan, pool, counters)
}

fn par_node<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    pool: &Pool,
    counters: &mut OpCounters,
) -> ProbRelation<P> {
    match plan {
        PlanNode::Certain => ProbRelation::certain(),
        PlanNode::Never => ProbRelation::never(),
        PlanNode::Scan { atom } => {
            let _span = telemetry::span("scan");
            let t0 = Instant::now();
            let scan = ScanSpec::new(db, atom, counters);
            let chunks = pool.map_morsels(scan.ids.len(), |r| {
                scan_rows(db, probs, &scan.plan, &scan.ids[r])
            });
            let (data, out) = stitch_columnar(chunks);
            counters.times.scan_ns += t0.elapsed().as_nanos() as u64;
            ProbRelation::from_parts(scan.cols, data, out)
        }
        PlanNode::ComplementScan { atom } => {
            let _span = telemetry::span("complement-scan");
            let t0 = Instant::now();
            let spec = ComplementSpec::new(db, atom, counters);
            let chunks = pool.map_morsels(spec.total, |r| complement_rows(db, probs, &spec, r));
            let (data, out) = stitch_columnar(chunks);
            counters.times.complement_ns += t0.elapsed().as_nanos() as u64;
            ProbRelation::from_parts(spec.cols.clone(), data, out)
        }
        PlanNode::Select { pred, input } => {
            let rel = par_node(db, probs, input, pool, counters);
            let _span = telemetry::span("select");
            let t0 = Instant::now();
            let out = par_select(&rel, pred, pool);
            counters.times.select_ns += t0.elapsed().as_nanos() as u64;
            out
        }
        PlanNode::IndependentJoin { inputs } => {
            let mut acc = ProbRelation::certain();
            for i in inputs {
                let right = par_node(db, probs, i, pool, counters);
                let _span = telemetry::span("join");
                let t0 = Instant::now();
                acc = par_join(&acc, &right, pool, counters);
                counters.times.join_ns += t0.elapsed().as_nanos() as u64;
            }
            acc
        }
        PlanNode::IndependentProject { keep, input } => {
            let rel = par_node(db, probs, input, pool, counters);
            let _span = telemetry::span("project");
            let t0 = Instant::now();
            let out = par_project(&rel, keep, pool);
            counters.groups += out.len() as u64;
            counters.times.project_ns += t0.elapsed().as_nanos() as u64;
            out
        }
    }
}

/// `p(q)` of a Boolean plan in `f64` arithmetic, executed in parallel;
/// also reports how the work spread over the workers.
pub fn par_query_probability(db: &ProbDb, plan: &PlanNode, opts: ParOptions) -> (f64, ExecStats) {
    let pool = opts.pool();
    let p = par_execute(db, db.probs(), plan, &pool).scalar();
    (p, pool.stats())
}

/// [`par_query_probability`] with operator counters alongside the
/// per-thread timing counters.
pub fn par_query_probability_counted(
    db: &ProbDb,
    plan: &PlanNode,
    opts: ParOptions,
    counters: &mut OpCounters,
) -> (f64, ExecStats) {
    let pool = opts.pool();
    let p = par_execute_counted(db, db.probs(), plan, &pool, counters).scalar();
    (p, pool.stats())
}

/// Parallel counterpart of [`crate::ranked_probabilities`]: execute a
/// ranked plan with the answer set partitioned across workers and return
/// one `(head binding, marginal probability)` pair per candidate, in the
/// serial path's exact order. Callers wanting per-thread counters can run
/// [`par_execute`] on their own [`Pool`] and read its stats.
///
/// # Panics
/// If `plan` does not carry every variable of `head` as an output column.
pub fn par_ranked_probabilities<P: ProbValue + Send + Sync>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    head: &[Var],
    opts: ParOptions,
) -> Vec<(Vec<Value>, P)> {
    let pool = opts.pool();
    let rel = par_execute(db, probs, plan, &pool);
    crate::exec::project_head(&rel, head)
}

/// Partitioned filter: morsels over the input rows, each emitting a
/// columnar chunk of whole rows.
pub(crate) fn par_select<P: ProbValue + Send + Sync>(
    rel: &ProbRelation<P>,
    pred: &Pred,
    pool: &Pool,
) -> ProbRelation<P> {
    let cols = rel.cols().to_vec();
    let chunks = pool.map_morsels(rel.len(), |rows| {
        filter_rows(rel, rows, |row| eval_pred(pred, &cols, row))
    });
    let (data, probs) = stitch_columnar(chunks);
    ProbRelation::from_parts(cols, data, probs)
}

/// Parallel independent join with build-side selection. The build side —
/// the smaller input, same deterministic choice as the serial join — is
/// indexed once on the coordinating thread; the probe side streams through
/// in morsels. A left-side build probes into id pairs, counting-sorts them
/// back to the serial output order, and materializes in parallel over
/// stride-aligned pair ranges.
fn par_join<P: ProbValue + Send + Sync>(
    left: &ProbRelation<P>,
    right: &ProbRelation<P>,
    pool: &Pool,
    counters: &mut OpCounters,
) -> ProbRelation<P> {
    par_join_sided(
        left,
        right,
        choose_build_side(left.len(), right.len()),
        pool,
        counters,
    )
}

/// [`par_join`] with the build side supplied by the caller. The output is
/// bit-identical regardless of `side` — a right build emits probe-major
/// directly; a left build counting-sorts the probe pairs back into the
/// same left-major order — so callers (the DAG executor's cost model) may
/// pick the side from *estimates* without risking the agreement invariant.
pub(crate) fn par_join_sided<P: ProbValue + Send + Sync>(
    left: &ProbRelation<P>,
    right: &ProbRelation<P>,
    side: BuildSide,
    pool: &Pool,
    counters: &mut OpCounters,
) -> ProbRelation<P> {
    counters.joins += 1;
    let spec = join_spec(left.cols(), right.cols());
    let (data, probs) = match side {
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
            let mut pairs = Vec::with_capacity(pair_chunks.iter().map(Vec::len).sum());
            for c in pair_chunks {
                pairs.extend(c);
            }
            let pairs = pairs_by_left(&pairs, left.len());
            let chunks =
                pool.map_morsels(pairs.len(), |r| emit_pairs(&spec, left, right, &pairs[r]));
            stitch_columnar(chunks)
        }
    };
    counters.join_rows += probs.len() as u64;
    ProbRelation::from_parts(spec.out_cols, data, probs)
}

/// Parallel independent project: groups are hash-partitioned across
/// workers; each worker folds its groups' rows **in row order** (the
/// serial multiplication order) through the packed-key grouper, and the
/// per-partition results merge by first-seen row index — disjoint groups,
/// so merging is concatenation, not re-multiplication, and `f64` bits are
/// preserved.
fn par_project<P: ProbValue + Send + Sync>(
    rel: &ProbRelation<P>,
    keep: &[Var],
    pool: &Pool,
) -> ProbRelation<P> {
    par_project_parts(rel, keep, pool, pool.threads())
}

/// [`par_project`] with an explicit partition count. The first-seen-row
/// merge makes the output a pure function of the input — identical for
/// **any** `parts` — so the sharded executor can fan groups out over
/// `shards × threads` partitions without perturbing a single bit.
pub(crate) fn par_project_parts<P: ProbValue + Send + Sync>(
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
    // Phase 1: group hashes, one pass in parallel stride-aligned morsels
    // (order-stable). Each morsel walks its slice of the flat value buffer
    // directly — the element range is row-aligned by construction.
    let arity = rel.arity();
    let hash_chunks = pool.map_morsels_strided(rel.len(), arity, |rows, elems| {
        if arity == 0 {
            // Zero-column relation: every row has the empty key.
            vec![hash_row_key(&[], &key_idx); rows.len()]
        } else {
            rel.values()[elems]
                .chunks_exact(arity)
                .map(|row| hash_row_key(row, &key_idx))
                .collect::<Vec<u64>>()
        }
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

/// Concatenate morsel outputs in morsel order.
fn stitch<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for c in chunks {
        out.extend(c);
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
    use crate::exec::execute;
    use cq::{parse_query, Vocabulary};
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    use pdb::RatProbs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Safe shapes from the serial executor's suite, plus negation and
    /// constants (pushdown scans must partition identically).
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
    fn parallel_matches_serial_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x9A9);
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
            for threads in [1, 2, 4, 8] {
                // grain 2: force many morsels even on the tiny test dbs.
                let pool = Pool::with_grain(threads, 2);
                let par = par_execute(&db, &probs, &plan, &pool);
                assert_eq!(
                    serial, par,
                    "query {i} ({text}) diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_counters_equal_serial_counters() {
        let mut rng = StdRng::seed_from_u64(0xC0C0);
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(1), S(1,y)").unwrap();
        let plan = build_plan(&q).unwrap();
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 12,
            prob_range: (0.1, 0.9),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = db.prob_vector();
        let mut serial = OpCounters::default();
        let _ = crate::exec::execute_counted(&db, &probs, &plan, &mut serial);
        for threads in [1, 2, 4] {
            let pool = Pool::with_grain(threads, 2);
            let mut par = OpCounters::default();
            let _ = par_execute_counted(&db, &probs, &plan, &pool, &mut par);
            assert_eq!(serial, par, "{threads} threads");
        }
        assert!(serial.index_scans > 0, "{serial:?}");
    }

    #[test]
    fn parallel_matches_serial_on_exact_rationals() {
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
        let pool = Pool::with_grain(4, 2);
        let par = par_execute(&db, probs.as_slice(), &plan, &pool);
        assert_eq!(serial, par);
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
        let (p, stats) = par_query_probability(&db, &plan, ParOptions::with_grain(4, 4));
        let serial = crate::exec::query_probability(&db, &plan);
        assert_eq!(p, serial);
        assert_eq!(stats.threads(), 4);
        assert!(stats.total_morsels() > 0, "{stats:?}");
        assert!(stats.total_rows() > 0, "{stats:?}");
    }

    #[test]
    fn ranked_parallel_matches_serial() {
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
            let par = par_ranked_probabilities(
                &db,
                &probs,
                &plan,
                &[d],
                ParOptions::with_grain(threads, 2),
            );
            assert_eq!(serial, par, "{threads} threads");
        }
    }

    #[test]
    fn empty_database_scalar_is_zero() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let db = ProbDb::new(voc);
        let plan = build_plan(&q).unwrap();
        let (p, _) = par_query_probability(&db, &plan, ParOptions::new(4));
        assert_eq!(p, 0.0);
    }
}
