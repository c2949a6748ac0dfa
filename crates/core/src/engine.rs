//! A MystiQ-style evaluation engine (§1, "Background and motivation") —
//! now split into a planner and an executor.
//!
//! MystiQ "tests if queries have a PTIME plan ...; if not, then we run a
//! Monte Carlo simulation algorithm". Earlier revisions of this engine
//! re-ran that test on every call; the [`Engine`] is now a thin facade
//! over the split architecture:
//!
//! * the [`crate::planner::Planner`] classifies a query **once**, compiles
//!   a [`crate::plan::PhysicalPlan`], and memoizes it in an LRU cache
//!   keyed by the canonicalized query — repeated traffic (alpha-renamed or
//!   atom-permuted variants included) skips classification entirely;
//! * the [`crate::plan::Executor`] runs the plan against any database,
//!   set-at-a-time through the `safeplan` extensional operators where the
//!   query allows it (hierarchical, self-join-free — Theorem 1.3's
//!   tractable fragment), tuple-at-a-time or via lineage otherwise.
//!
//! | classification | plan |
//! |---|---|
//! | hierarchical, no self-joins | extensional safe plan ([`safeplan`]) |
//! | inversion-free; hierarchical shapes the extensional compiler declines | root-recursion safe plan ([`crate::safe_eval`]) |
//! | erasable inversions | exact lineage compilation (documented §3.4 substitution) |
//! | #P-hard | Karp–Luby FPRAS over the lineage (MystiQ's fallback) |
//!
//! Small instances may force exact lineage evaluation for ground truth via
//! [`Strategy::ExactLineage`]; [`Strategy::MonteCarlo`] forces sampling.
//! [`Evaluation`] reports planning and execution time separately, plus
//! whether the plan came from the cache.

use crate::classify::{Classification, ClassifyError};
use crate::plan::{Executor, PhysicalPlan};
use crate::planner::{PlannedQuery, Planner, PlannerStats};
use crate::result_cache::ResultCache;
use cq::Query;
use exec_parallel::ExecStats;
use incremental::{IncrementalView, RefreshCounters};
use numeric::{BigUint, QRat};
use pdb::{ProbDb, RatProbs};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::MetricSet;

pub use crate::plan::Method;

/// Execution tuning the engine hands its executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for the parallel (DAG) executor; 1 = serial.
    /// Parallel extensional execution is bit-for-bit identical to serial;
    /// sampling plans stay deterministic per `(seed, threads)`.
    pub threads: usize,
    /// Requested shard fan-out for the hash-partitioned extensional data
    /// plane; 1 = monolithic. The executor's cost model collapses the
    /// request per plan when every scan is too small to split, and a
    /// fan-out above 1 needs a database laid out at it by
    /// [`pdb::ProbDb::set_shard_layout`] (the CLI and `probdb serve` do
    /// that for `--shards`); scans stay monolithic otherwise. Sharded
    /// execution is bit-for-bit identical to monolithic serial.
    pub shards: usize,
}

impl ExecOptions {
    pub fn serial() -> Self {
        ExecOptions {
            threads: 1,
            shards: 1,
        }
    }

    pub fn with_threads(threads: usize) -> Self {
        Self::with_tuning(threads, 1)
    }

    pub fn with_tuning(threads: usize, shards: usize) -> Self {
        ExecOptions {
            threads: threads.max(1),
            shards: shards.max(1),
        }
    }
}

impl Default for ExecOptions {
    /// Serial and monolithic. Nothing is read from the environment: a
    /// parallel or sharded engine is always asked for explicitly.
    fn default() -> Self {
        Self::serial()
    }
}

/// Evaluation strategy selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Plan (with caching), then execute — the MystiQ architecture.
    Auto,
    /// Force exact lineage compilation (exponential worst case).
    ExactLineage,
    /// Force Monte-Carlo estimation with the given sample count.
    MonteCarlo { samples: u64 },
}

/// The result of an evaluation.
#[derive(Clone, Debug)]
pub struct Evaluation {
    pub probability: f64,
    pub method: Method,
    /// The classification behind an `Auto` plan (shared with the plan
    /// cache — cloning an `Arc`, not the coverage artifacts).
    pub classification: Option<Arc<Classification>>,
    /// Standard error of the estimate. Populated for every sampling path
    /// (including forced [`Strategy::MonteCarlo`]); 0 for exact methods.
    pub std_error: f64,
    /// Time spent planning: classification + plan compilation, or the
    /// cache probe when the plan was already cached.
    pub planning: Duration,
    /// Time spent executing the physical plan against the database.
    pub execution: Duration,
    /// Total: `planning + execution`.
    pub wall_time: Duration,
    /// Whether the plan came from the engine's plan cache.
    pub cache_hit: bool,
    /// Whether the *answer* came from the engine's result cache (no
    /// execution ran; every field below is the memoized run's). Always
    /// `false` when the result cache is disabled — the default outside
    /// the serving layer ([`Engine::with_result_cache`]).
    pub result_cache_hit: bool,
    /// Per-thread timing counters of the worker pool: every extensional
    /// run (one entry at `ExecOptions::threads == 1`) and sampling runs
    /// at `threads > 1`; `None` when no pool ran.
    pub parallel: Option<ExecStats>,
    /// Operator counters when the plan ran on the extensional columnar
    /// data plane (scans vs index scans, rows pruned by constant
    /// pushdown, join build sides, groups). Thread-count invariant.
    pub extensional: Option<safeplan::OpCounters>,
    /// Refresh counters when this evaluation was served by an incremental
    /// view ([`Engine::subscribe`]): rows re-touched by delta propagation
    /// vs rows a full re-execution would have recomputed. `None` for
    /// plain (re-)executions.
    pub incremental: Option<RefreshCounters>,
    /// Operator-DAG scheduler counters when an extensional plan ran
    /// (`max_running == 1` at one thread); `None` for other methods.
    pub scheduler: Option<safeplan::DagStats>,
    /// Per-shard scan row counts when an extensional plan ran (one shard
    /// unless a fan-out survived the cost model on a database laid out at
    /// it); `None` otherwise.
    pub sharding: Option<safeplan::ShardStats>,
}

impl Evaluation {
    /// One uniform metric snapshot of everything this evaluation reported:
    /// the result, the planning/execution split, and whichever of the
    /// operator / scheduler / shard / thread / refresh counter families
    /// were populated, flattened under dotted keys. The same snapshot
    /// backs the CLI's `--json` output, so machine consumers read one
    /// schema whatever substrate ran.
    pub fn metric_set(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.set_f64("eval.probability", self.probability);
        m.set_f64("eval.std_error", self.std_error);
        m.set_ns("eval.planning_ns", self.planning.as_nanos() as u64);
        m.set_ns("eval.execution_ns", self.execution.as_nanos() as u64);
        m.set_ns("eval.wall_ns", self.wall_time.as_nanos() as u64);
        m.set_count("eval.cache_hit", u64::from(self.cache_hit));
        m.set_count("eval.result_cache_hit", u64::from(self.result_cache_hit));
        if let Some(ops) = &self.extensional {
            ops_metrics(&mut m, ops);
        }
        if let Some(sched) = &self.scheduler {
            sched_metrics(&mut m, sched);
        }
        if let Some(sh) = &self.sharding {
            shard_metrics(&mut m, sh);
        }
        if let Some(par) = &self.parallel {
            thread_metrics(&mut m, par);
        }
        if let Some(inc) = &self.incremental {
            m.set_count("incremental.rows_retouched", inc.rows_retouched);
            m.set_count("incremental.rows_avoided", inc.rows_avoided);
            m.set_count("incremental.groups_refolded", inc.groups_refolded);
            m.set_count("incremental.batches_replayed", inc.batches_replayed);
            m.set_count("incremental.refreshes", inc.incremental_refreshes);
            m.set_count("incremental.full_rebuilds", inc.full_rebuilds);
        }
        m
    }
}

/// Flatten operator counters under `ops.*` (shared by [`Evaluation`] and
/// [`crate::ranking::RankedRun`] snapshots).
pub(crate) fn ops_metrics(m: &mut MetricSet, ops: &safeplan::OpCounters) {
    m.set_count("ops.scans", ops.scans);
    m.set_count("ops.index_scans", ops.index_scans);
    m.set_count("ops.rows_scanned", ops.rows_scanned);
    m.set_count("ops.rows_pruned", ops.rows_pruned);
    m.set_count("ops.complement_scans", ops.complement_scans);
    m.set_count("ops.complement_rows", ops.complement_rows);
    m.set_count("ops.joins", ops.joins);
    m.set_count("ops.joins_build_left", ops.joins_build_left);
    m.set_count("ops.join_rows", ops.join_rows);
    m.set_count("ops.groups", ops.groups);
    m.set_count("ops.shard_fanout", ops.shard_fanout);
    m.set_count("ops.global_index_probes", ops.global_index_probes);
    m.set_count("ops.shard_index_probes", ops.shard_index_probes);
    m.set_ns("ops.time.scan_ns", ops.times.scan_ns);
    m.set_ns("ops.time.complement_ns", ops.times.complement_ns);
    m.set_ns("ops.time.select_ns", ops.times.select_ns);
    m.set_ns("ops.time.join_ns", ops.times.join_ns);
    m.set_ns("ops.time.project_ns", ops.times.project_ns);
}

/// Flatten DAG scheduler counters under `sched.*`.
pub(crate) fn sched_metrics(m: &mut MetricSet, sched: &safeplan::DagStats) {
    m.set_count("sched.tasks", sched.tasks);
    m.set_count("sched.inlined", sched.inlined);
    m.set_count("sched.max_ready", sched.max_ready);
    m.set_count("sched.max_running", sched.max_running);
    m.set_ns("sched.overlap_ns", sched.overlap.as_nanos() as u64);
}

/// Flatten per-shard scan rows under `shards.*`.
pub(crate) fn shard_metrics(m: &mut MetricSet, sh: &safeplan::ShardStats) {
    m.set_count("shards.count", sh.shards as u64);
    m.set_count("shards.rows_total", sh.rows.iter().sum());
    for (i, rows) in sh.rows.iter().enumerate() {
        m.set_count(&format!("shards.rows.{i}"), *rows);
    }
}

/// Flatten per-worker thread timings under `threads.*`.
pub(crate) fn thread_metrics(m: &mut MetricSet, par: &ExecStats) {
    m.set_count("threads.count", par.threads() as u64);
    m.set_count("threads.morsels", par.total_morsels());
    m.set_count("threads.rows", par.total_rows());
    for (i, t) in par.per_thread.iter().enumerate() {
        m.set_ns(
            &format!("threads.worker.{i}.busy_ns"),
            t.busy.as_nanos() as u64,
        );
        m.set_count(&format!("threads.worker.{i}.morsels"), t.morsels);
        m.set_count(&format!("threads.worker.{i}.rows"), t.rows);
    }
}

/// Engine errors.
#[derive(Debug)]
pub enum EngineError {
    Classify(ClassifyError),
    Eval(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Classify(e) => write!(f, "classification failed: {e}"),
            EngineError::Eval(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The evaluation engine: a shared planner (with its plan cache) plus an
/// executor. Databases and queries are passed per call so one engine can
/// serve many evaluations; clones share the same plan cache, so a fleet
/// of workers warms one cache.
#[derive(Clone)]
pub struct Engine {
    /// Samples for the Monte-Carlo fallback. Honored at evaluation time:
    /// changing it after construction overrides the sample count of
    /// already-cached sampling plans on their next execution.
    pub mc_samples: u64,
    /// RNG seed for reproducible estimates.
    pub seed: u64,
    /// Execution tuning (worker threads), honored at evaluation time.
    pub exec: ExecOptions,
    planner: Arc<Planner>,
    /// The result cache, when enabled ([`Engine::with_result_cache`]).
    /// Clones share it, like the planner.
    results: Option<Arc<ResultCache>>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("mc_samples", &self.mc_samples)
            .field("seed", &self.seed)
            .field("threads", &self.exec.threads)
            .field("cache", &self.planner.stats())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::with_samples_and_seed(100_000, 0xD_A151)
    }
}

impl Engine {
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with explicit tuning (the struct-literal construction
    /// sites of earlier revisions map onto this): one thread, one shard,
    /// no result cache.
    pub fn with_samples_and_seed(mc_samples: u64, seed: u64) -> Self {
        Self::with_options(mc_samples, seed, ExecOptions::serial())
    }

    /// An engine with explicit execution options (worker threads, shard
    /// fan-out) and no result cache.
    pub fn with_options(mc_samples: u64, seed: u64, exec: ExecOptions) -> Self {
        Engine {
            mc_samples,
            seed,
            exec,
            planner: Arc::new(Planner::new(mc_samples)),
            results: None,
        }
    }

    /// Enable the result cache on this engine (idempotent). Clones made
    /// afterwards share it — the serving layer's workers all probe one
    /// memo.
    pub fn with_result_cache(mut self) -> Self {
        if self.results.is_none() {
            self.results = Some(Arc::new(ResultCache::new()));
        }
        self
    }

    /// The result cache, when enabled.
    pub fn result_cache(&self) -> Option<&ResultCache> {
        self.results.as_deref()
    }

    /// The planner behind this engine (plan inspection, ranked templates).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Cache counters of the shared planner.
    pub fn cache_stats(&self) -> PlannerStats {
        self.planner.stats()
    }

    pub(crate) fn executor(&self) -> Executor {
        Executor::with_tuning(self.seed, self.exec.threads, self.exec.shards)
    }

    /// Evaluate `p(q)` on `db` with the chosen strategy.
    pub fn evaluate(
        &self,
        db: &ProbDb,
        q: &Query,
        strategy: Strategy,
    ) -> Result<Evaluation, EngineError> {
        // The cached plan is shared, not cloned: the executor borrows it.
        enum Holder {
            Cached(Arc<crate::planner::PlannedQuery>),
            Adhoc(PhysicalPlan),
        }

        let _span = telemetry::span("evaluate");
        let plan_start = Instant::now();
        let plan_span = telemetry::span("plan");
        let mut classification = None;
        let mut cache_hit = false;
        let holder = match strategy {
            Strategy::Auto => {
                let (planned, hit) = self
                    .planner
                    .plan_tracked(q)
                    .map_err(EngineError::Classify)?;
                classification = Some(Arc::clone(&planned.classification));
                cache_hit = hit;
                match &planned.plan {
                    // Honor the engine's *current* sample count even when a
                    // cached sampling plan was compiled with another.
                    PhysicalPlan::KarpLuby { query, samples } if *samples != self.mc_samples => {
                        Holder::Adhoc(PhysicalPlan::KarpLuby {
                            query: query.clone(),
                            samples: self.mc_samples,
                        })
                    }
                    _ => Holder::Cached(planned),
                }
            }
            Strategy::ExactLineage => {
                Holder::Adhoc(PhysicalPlan::ExactLineage { query: q.clone() })
            }
            Strategy::MonteCarlo { samples } => Holder::Adhoc(PhysicalPlan::KarpLuby {
                query: q.clone(),
                samples,
            }),
        };
        let plan: &PhysicalPlan = match &holder {
            Holder::Cached(planned) => &planned.plan,
            Holder::Adhoc(plan) => plan,
        };
        let planning = plan_start.elapsed();
        drop(plan_span);

        // The result cache interposes *after* planning (plan-cache stats
        // stay meaningful either way) and keys on every input of the
        // execution — content state `(uid, version)`, tuning, strategy,
        // effective samples, canonical query — so a hit is bit-for-bit
        // the outcome a cold execution would produce.
        let result_key = self.results.as_ref().map(|_| {
            let tag = match strategy {
                Strategy::Auto => format!("auto:{}", self.mc_samples),
                Strategy::ExactLineage => "exact".to_string(),
                Strategy::MonteCarlo { samples } => format!("mc:{samples}"),
            };
            ResultCache::key(
                db,
                self.seed,
                self.exec.threads,
                self.exec.shards,
                &tag,
                &q.cache_key(),
            )
        });

        let exec_start = Instant::now();
        let mut result_cache_hit = false;
        let cached_outcome = match (&self.results, &result_key) {
            (Some(cache), Some(key)) => {
                let hit = cache.get(key);
                result_cache_hit = hit.is_some();
                hit
            }
            _ => None,
        };
        let outcome = match cached_outcome {
            Some(outcome) => outcome,
            None => {
                let outcome = {
                    let _span = telemetry::span("execute");
                    self.executor()
                        .execute(db, plan)
                        .map_err(EngineError::Eval)?
                };
                if let (Some(cache), Some(key)) = (&self.results, result_key) {
                    cache.insert(key, outcome.clone());
                }
                outcome
            }
        };
        let execution = exec_start.elapsed();

        let reg = telemetry::registry();
        reg.counter("engine.evaluations").incr();
        if cache_hit {
            reg.counter("engine.cache_hits").incr();
        }
        reg.histogram("engine.planning_ns")
            .record_ns(planning.as_nanos() as u64);
        reg.histogram("engine.execution_ns")
            .record_ns(execution.as_nanos() as u64);

        Ok(Evaluation {
            probability: outcome.probability,
            method: outcome.method,
            classification,
            std_error: outcome.std_error,
            planning,
            execution,
            wall_time: planning + execution,
            cache_hit,
            result_cache_hit,
            parallel: outcome.parallel,
            extensional: outcome.extensional,
            incremental: None,
            scheduler: outcome.scheduler,
            sharding: outcome.sharding,
        })
    }

    /// [`Engine::evaluate`] with the calling thread's spans captured and
    /// returned alongside the evaluation — the per-request trace behind
    /// the serving layer's flight recorder and opt-in `"trace": true`
    /// responses. Capture works whether or not global tracing
    /// ([`telemetry::set_enabled`]) is on, records into a private bounded
    /// buffer (never the global sink), and is purely observational: the
    /// evaluation is byte-identical to an uncaptured call. Spans emitted
    /// on pool worker threads during a parallel execution stay out of the
    /// window — the capture is the serving thread's view (evaluate /
    /// plan / execute), which is what per-request triage needs.
    pub fn evaluate_captured(
        &self,
        db: &ProbDb,
        q: &Query,
        strategy: Strategy,
    ) -> Result<(Evaluation, Vec<telemetry::SpanRec>), EngineError> {
        let mut window = telemetry::Capture::begin();
        let ev = self.evaluate(db, q, strategy)?;
        Ok((ev, window.take()))
    }

    /// Subscribe to `q` over `db`: plan through the shared cache, then pin
    /// the plan together with per-operator materialized state as an
    /// incremental view. The returned handle has **refresh-on-read**
    /// semantics — [`ViewHandle::read`] replays whatever delta batches were
    /// applied since the last read and serves the refreshed answer, so a
    /// reader can never observe a stale probability.
    ///
    /// Plans the incremental subsystem cannot maintain (non-extensional
    /// substrates, complement scans) degrade to version-checked
    /// re-execution behind the same handle: every read still reflects the
    /// database's current version, just without delta savings.
    pub fn subscribe(&self, db: &ProbDb, q: &Query) -> Result<ViewHandle, EngineError> {
        let (planned, _) = self
            .planner
            .plan_tracked(q)
            .map_err(EngineError::Classify)?;
        let inner = match &planned.plan {
            PhysicalPlan::Extensional { plan } => match IncrementalView::new(db, plan) {
                Ok(view) => ViewInner::Incremental(Box::new(view)),
                Err(_) => ViewInner::Reexec { cached: None },
            },
            _ => ViewInner::Reexec { cached: None },
        };
        Ok(ViewHandle {
            planned,
            seed: self.seed,
            exec: self.exec,
            inner: Mutex::new(inner),
        })
    }

    /// Evaluate `p(q)` in exact rational arithmetic, through the same
    /// planner and the same evaluators as [`Engine::evaluate`]: the
    /// extensional plan or the root-recursion safe plan when the query is
    /// PTIME, exact lineage compilation otherwise (and as the safe plan's
    /// runtime fallback). Always exact; the lineage path is worst-case
    /// exponential (and must be, for #P-hard queries).
    pub fn evaluate_exact(&self, db: &ProbDb, probs: &RatProbs, q: &Query) -> (QRat, Method) {
        match self.planner.plan(q) {
            Ok(planned) => self.executor().execute_exact(db, probs, &planned.plan),
            // Classification resource bounds: exact lineage is always sound.
            Err(_) => (
                pdb::exact_query_probability(db, probs, q),
                Method::ExactLineage,
            ),
        }
    }

    /// Count the substructures of `db` (its `2^n` possible worlds) that
    /// satisfy `q`: [`Engine::evaluate_exact`] with every tuple at `1/2`,
    /// times `2^n` — the specialization the paper's conclusions ask about.
    /// Polynomial wherever the query is PTIME; exact lineage, worst-case
    /// exponential, on the hard side. Returns the method that ran.
    pub fn count_substructures(&self, db: &ProbDb, q: &Query) -> (BigUint, Method) {
        let half = RatProbs::uniform(db, QRat::ratio(1, 2));
        let (p, method) = self.evaluate_exact(db, &half, q);
        let count = p.mul_ref(&QRat::from_int(2).pow(db.num_tuples() as u64));
        assert!(
            count.denominator().is_one(),
            "substructure count must be integral, got {count}"
        );
        (count.numerator().magnitude().clone(), method)
    }
}

/// How a [`ViewHandle`] stays current.
enum ViewInner {
    /// Delta-driven: materialized operator state refreshed from the
    /// database's delta log.
    Incremental(Box<IncrementalView>),
    /// Fallback: re-execute when the version moved; `cached` remembers the
    /// last outcome and the version it was computed at.
    Reexec {
        cached: Option<Box<(u64, crate::plan::ExecOutcome)>>,
    },
}

/// A subscription to one query: the cached plan pinned together with
/// whatever state keeps reads cheap. Obtained from [`Engine::subscribe`];
/// thread-safe (reads serialize on an internal lock).
pub struct ViewHandle {
    planned: Arc<PlannedQuery>,
    seed: u64,
    exec: ExecOptions,
    inner: Mutex<ViewInner>,
}

/// One [`ViewHandle::read`]: the refreshed evaluation plus the version
/// stamp it reflects.
#[derive(Clone, Debug)]
pub struct ViewReading {
    /// The evaluation, with [`Evaluation::incremental`] carrying this
    /// read's refresh counters when the view is delta-maintained.
    pub evaluation: Evaluation,
    /// The database version this reading reflects — always the database's
    /// current version at read time (the stale-read guard tests pin this).
    pub version: u64,
    /// Did this read have to refresh (replay deltas or re-execute)?
    pub refreshed: bool,
}

impl fmt::Debug for ViewHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewHandle")
            .field("plan", &self.planned.plan.method())
            .finish()
    }
}

impl ViewHandle {
    /// The compiled plan behind the view.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.planned.plan
    }

    /// Is the view delta-maintained (as opposed to re-executing on
    /// version changes)?
    pub fn is_incremental(&self) -> bool {
        matches!(
            &*self.inner.lock().expect("view poisoned"),
            ViewInner::Incremental(_)
        )
    }

    /// Lifetime refresh counters of a delta-maintained view.
    pub fn counters(&self) -> Option<RefreshCounters> {
        match &*self.inner.lock().expect("view poisoned") {
            ViewInner::Incremental(view) => Some(view.counters()),
            ViewInner::Reexec { .. } => None,
        }
    }

    /// Refresh-on-read: bring the view up to `db`'s current version (no-op
    /// when nothing changed), then serve the answer. The refreshed
    /// probability is bit-for-bit what a cold execution of the cached plan
    /// returns against the current database.
    pub fn read(&self, db: &ProbDb) -> Result<ViewReading, EngineError> {
        let _span = telemetry::span("view-read");
        let start = Instant::now();
        let mut inner = self.inner.lock().expect("view poisoned");
        match &mut *inner {
            ViewInner::Incremental(view) => {
                // A read against an older epoch than the view last synced
                // to (worker B still holds epoch v while worker A already
                // refreshed to v+1) rematerializes the view at B's
                // snapshot inside `refresh_run`: every read answers from
                // the exact epoch it was handed.
                let refreshed = view.synced_version() != db.version();
                let run = view.refresh_run(
                    db,
                    safeplan::DagOptions::new(self.exec.threads, self.exec.shards),
                );
                let execution = start.elapsed();
                // An incremental refresh runs its delta kernels on the same
                // morsel pool and sharded scan-matching as the DAG
                // executor, so a refreshed read reports the same thread and
                // shard counter families a re-execution would.
                let parallel = (run.threads.threads() > 0).then(|| run.threads.clone());
                let sharding = (run.shards.shards > 0).then(|| run.shards.clone());
                Ok(ViewReading {
                    evaluation: Evaluation {
                        probability: view.probability(),
                        method: Method::Extensional,
                        classification: Some(Arc::clone(&self.planned.classification)),
                        std_error: 0.0,
                        planning: Duration::ZERO,
                        execution,
                        wall_time: execution,
                        cache_hit: !refreshed,
                        result_cache_hit: false,
                        parallel,
                        extensional: None,
                        incremental: Some(run.counters),
                        scheduler: None,
                        sharding,
                    },
                    version: db.version(),
                    refreshed,
                })
            }
            ViewInner::Reexec { cached } => {
                let version = db.version();
                let (refreshed, outcome) = match cached {
                    Some(entry) if entry.0 == version => (false, entry.1.clone()),
                    _ => {
                        let outcome =
                            Executor::with_tuning(self.seed, self.exec.threads, self.exec.shards)
                                .execute(db, &self.planned.plan)
                                .map_err(EngineError::Eval)?;
                        *cached = Some(Box::new((version, outcome.clone())));
                        (true, outcome)
                    }
                };
                let execution = start.elapsed();
                Ok(ViewReading {
                    evaluation: Evaluation {
                        probability: outcome.probability,
                        method: outcome.method,
                        classification: Some(Arc::clone(&self.planned.classification)),
                        std_error: outcome.std_error,
                        planning: Duration::ZERO,
                        execution,
                        wall_time: execution,
                        cache_hit: !refreshed,
                        result_cache_hit: false,
                        parallel: outcome.parallel,
                        extensional: outcome.extensional,
                        incremental: None,
                        scheduler: outcome.scheduler,
                        sharding: outcome.sharding,
                    },
                    version,
                    refreshed,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Value, Vocabulary};
    use pdb::brute_force_probability;
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    use rand::rngs::StdRng as TestRng;
    use rand::SeedableRng;

    fn setup(s: &str, seed: u64) -> (ProbDb, Query) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, s).unwrap();
        let mut rng = TestRng::seed_from_u64(seed);
        let db = random_db_for_query(&q, &voc, RandomDbOptions::default(), &mut rng);
        (db, q)
    }

    #[test]
    fn auto_picks_extensional_plan_for_no_self_join() {
        let (db, q) = setup("R(x), S(x,y)", 1);
        let ev = Engine::new().evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::Extensional);
        let bf = brute_force_probability(&db, &q);
        assert!((ev.probability - bf).abs() < 1e-9);
    }

    #[test]
    fn auto_picks_safe_plan_for_inversion_free_self_join() {
        let (db, q) = setup("R(x), S(x,y), S(x2,y2), T(x2)", 2);
        let ev = Engine::new().evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::SafePlan);
        let bf = brute_force_probability(&db, &q);
        assert!((ev.probability - bf).abs() < 1e-8);
    }

    #[test]
    fn auto_falls_back_to_karp_luby_for_hard_query() {
        let (db, q) = setup("R(x), S(x,y), S(x2,y2), T(y2)", 3);
        let engine = Engine::with_samples_and_seed(50_000, 7);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::KarpLuby);
        assert!(ev.std_error > 0.0, "sampling must report a standard error");
        let bf = brute_force_probability(&db, &q);
        assert!(
            (ev.probability - bf).abs() < 0.02,
            "estimate {} vs exact {bf}",
            ev.probability
        );
    }

    #[test]
    fn exact_lineage_strategy_is_exact() {
        let (db, q) = setup("R(x,y), R(y,z)", 4);
        let ev = Engine::new()
            .evaluate(&db, &q, Strategy::ExactLineage)
            .unwrap();
        let bf = brute_force_probability(&db, &q);
        assert!((ev.probability - bf).abs() < 1e-9);
    }

    #[test]
    fn forced_monte_carlo_reports_std_error() {
        let (db, q) = setup("R(x), S(x,y)", 8);
        let ev = Engine::new()
            .evaluate(&db, &q, Strategy::MonteCarlo { samples: 10_000 })
            .unwrap();
        assert_eq!(ev.method, Method::KarpLuby);
        assert!(ev.std_error > 0.0);
        let bf = brute_force_probability(&db, &q);
        assert!((ev.probability - bf).abs() < 0.05);
    }

    #[test]
    fn trivial_queries_answered_without_data() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), x < x").unwrap();
        let db = ProbDb::new(voc);
        let ev = Engine::new().evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.probability, 0.0);
    }

    #[test]
    fn evaluate_exact_dispatches_and_agrees() {
        use pdb::RatProbs;
        // Safe query → extensional plan; hard query → exact lineage; both
        // agree with the f64 oracle.
        for (text, seed) in [("R(x), S(x,y)", 10u64), ("R(x,y), R(y,z)", 11)] {
            let (db, q) = setup(text, seed);
            let probs = RatProbs::from_db(&db);
            let (p, method) = Engine::new().evaluate_exact(&db, &probs, &q);
            let bf = brute_force_probability(&db, &q);
            assert!(
                (p.to_f64() - bf).abs() < 1e-9,
                "{text}: exact {p} vs brute force {bf}"
            );
            if text.starts_with("R(x),") {
                assert_eq!(method, Method::Extensional);
            } else {
                assert_eq!(method, Method::ExactLineage);
            }
        }
    }

    #[test]
    fn exact_inversion_free_runs_the_safe_plan() {
        use pdb::brute_force_probability_exact;
        for name in ["q_selfjoin_T_on_x", "example_2_14"] {
            let entry = crate::catalog::CATALOG.iter().find(|e| e.name == name);
            for seed in [20u64, 21] {
                let (db, q) = setup(entry.unwrap().text, seed);
                let probs = RatProbs::from_db(&db);
                let (p, method) = Engine::new().evaluate_exact(&db, &probs, &q);
                assert_eq!(method, Method::SafePlan, "{name} seed {seed}");
                let bf = brute_force_probability_exact(&db, &probs, &q);
                assert_eq!(p, bf, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn declined_hierarchical_shapes_evaluate() {
        use pdb::brute_force_probability_exact;
        // The extensional compiler declines a predicate spanning components
        // and a negated self-join; the root-recursion plan (or its
        // exact-lineage fallback) answers both, in f64 and in rationals.
        for (text, seed) in [("R(x), S(y), x < y", 30u64), ("R(x), not R(y)", 31)] {
            let (db, q) = setup(text, seed);
            let ev = Engine::new().evaluate(&db, &q, Strategy::Auto).unwrap();
            let bf = brute_force_probability(&db, &q);
            assert!(
                (ev.probability - bf).abs() < 1e-9,
                "{text}: engine {} vs brute force {bf}",
                ev.probability
            );
            let probs = RatProbs::from_db(&db);
            let (p, _) = Engine::new().evaluate_exact(&db, &probs, &q);
            assert_eq!(p, brute_force_probability_exact(&db, &probs, &q), "{text}");
        }
    }

    #[test]
    fn counting_matches_exact_lineage_counting() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..3 {
            db.insert(r, vec![Value(i)], 0.9);
            for j in 0..3 {
                db.insert(s, vec![Value(i), Value(10 + j)], 0.9);
            }
        }
        let (count, method) = Engine::new().count_substructures(&db, &q);
        assert_eq!(method, Method::Extensional);
        assert_eq!(count, pdb::count_satisfying_worlds_exact(&db, &q));
        // The self-join side of the PTIME class counts on the safe plan.
        let (db, q) = setup("R(x), S(x,y), S(x2,y2), T(x2)", 12);
        let (count, method) = Engine::new().count_substructures(&db, &q);
        assert_eq!(method, Method::SafePlan);
        assert_eq!(count, pdb::count_satisfying_worlds_exact(&db, &q));
    }

    #[test]
    fn counting_scales_to_large_databases() {
        // 120 tuples: 2^120 worlds — enumeration is unthinkable, the safe
        // plan is instant and exact.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..30 {
            db.insert(r, vec![Value(i)], 0.5);
            for j in 0..3 {
                db.insert(s, vec![Value(i), Value(100 + j)], 0.5);
            }
        }
        assert_eq!(db.num_tuples(), 120);
        let (count, _) = Engine::new().count_substructures(&db, &q);
        // Per root value a block is satisfied with probability
        // 1/2 · (1 − (1/2)^3) = 7/16, so p(q) = 1 − (9/16)^30 and
        // count = 16^30 − 9^30.
        let sixteen = BigUint::from_u64(16).pow(30);
        let nine = BigUint::from_u64(9).pow(30);
        assert_eq!(count, sixteen.sub_ref(&nine));
    }

    #[test]
    fn certain_world_evaluates_to_one() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 1.0);
        let ev = Engine::new().evaluate(&db, &q, Strategy::Auto).unwrap();
        assert!((ev.probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_evaluation_hits_the_plan_cache() {
        let (db, q) = setup("R(x), S(x,y)", 5);
        let engine = Engine::new();
        let first = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert!(!first.cache_hit);
        let second = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert!(second.cache_hit);
        let stats = engine.cache_stats();
        assert_eq!(stats.classifications, 1);
        assert_eq!(stats.hits, 1);
        // Clones share the cache.
        let clone = engine.clone();
        let third = clone.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert!(third.cache_hit);
    }

    #[test]
    fn mutated_mc_samples_override_cached_sampling_plans() {
        let (db, q) = setup("R(x), S(x,y), S(x2,y2), T(y2)", 3);
        let mut engine = Engine::with_samples_and_seed(500, 7);
        let coarse = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(coarse.method, Method::KarpLuby);
        // Tighten the budget after the plan is cached: the next execution
        // must use the new count (more samples → smaller standard error).
        engine.mc_samples = 50_000;
        let fine = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert!(fine.cache_hit);
        assert!(
            fine.std_error < coarse.std_error / 2.0,
            "std error {} should shrink well below {}",
            fine.std_error,
            coarse.std_error
        );
    }

    #[test]
    fn parallel_execution_matches_serial_bit_for_bit() {
        let (db, q) = setup("R(x), S(x,y)", 21);
        let serial = Engine::with_options(100_000, 1, ExecOptions::serial());
        let want = serial.evaluate(&db, &q, Strategy::Auto).unwrap();
        let ran = |ev: &Evaluation| {
            let threads = ev.parallel.as_ref().map(ExecStats::threads);
            (threads, ev.sharding.as_ref().map(|s| s.shards))
        };
        assert_eq!(ran(&want), (Some(1), Some(1)), "one thread, one shard");
        for threads in [2, 4, 8] {
            let par = Engine::with_options(100_000, 1, ExecOptions::with_threads(threads));
            let ev = par.evaluate(&db, &q, Strategy::Auto).unwrap();
            assert_eq!(ev.probability, want.probability, "threads={threads}");
            let stats = ev.parallel.expect("parallel run reports thread counters");
            assert_eq!(stats.threads(), threads);
        }
    }

    #[test]
    fn parallel_sampling_is_deterministic_per_thread_count() {
        let (db, q) = setup("R(x), S(x,y), S(x2,y2), T(y2)", 3);
        let engine = Engine::with_options(20_000, 7, ExecOptions::with_threads(4));
        let a = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        let b = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(a.probability, b.probability, "same seed, same threads");
        assert!(a.std_error > 0.0);
        assert!(a.parallel.is_some());
        let bf = brute_force_probability(&db, &q);
        assert!(
            (a.probability - bf).abs() < 0.05,
            "estimate {} vs exact {bf}",
            a.probability
        );
    }

    #[test]
    fn subscribed_view_refreshes_on_read() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        let mut seed = pdb::DeltaBatch::new();
        for i in 0..5u64 {
            seed.insert(r, vec![Value(i)], 0.3)
                .insert(s, vec![Value(i), Value(100 + i)], 0.5);
        }
        db.apply(&seed);
        let engine = Engine::new();
        let view = engine.subscribe(&db, &q).unwrap();
        assert!(view.is_incremental());
        let first = view.read(&db).unwrap();
        assert!(!first.refreshed, "freshly built view is already synced");
        assert_eq!(first.version, db.version());
        // Mutate through the log: the next read must reflect it, bit-for-
        // bit with a cold evaluation of the same (cached) plan.
        let mut batch = pdb::DeltaBatch::new();
        batch
            .update(r, vec![Value(0)], 0.9)
            .delete(s, vec![Value(1), Value(101)])
            .insert(s, vec![Value(2), Value(777)], 0.25);
        db.apply(&batch);
        let second = view.read(&db).unwrap();
        assert!(second.refreshed);
        assert_eq!(second.version, db.version());
        let cold = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(
            second.evaluation.probability.to_bits(),
            cold.probability.to_bits(),
            "refresh must be bit-for-bit a cold execution"
        );
        let counters = second.evaluation.incremental.expect("incremental view");
        assert!(counters.rows_retouched > 0);
        assert_eq!(counters.incremental_refreshes, 1);
        // Third read without mutation: served from state, no refresh.
        let third = view.read(&db).unwrap();
        assert!(!third.refreshed);
        assert!(third.evaluation.cache_hit);
    }

    #[test]
    fn subscribed_view_falls_back_to_reexecution_for_unsupported_plans() {
        // Hard query: Karp–Luby plan, no delta maintenance — the handle
        // re-executes when the version moves and caches otherwise.
        let (mut db, q) = setup("R(x), S(x,y), S(x2,y2), T(y2)", 3);
        let engine = Engine::with_samples_and_seed(5_000, 7);
        let view = engine.subscribe(&db, &q).unwrap();
        assert!(!view.is_incremental());
        assert!(view.counters().is_none());
        let first = view.read(&db).unwrap();
        assert!(first.refreshed, "first read executes");
        let again = view.read(&db).unwrap();
        assert!(!again.refreshed, "unchanged version served from cache");
        assert_eq!(
            again.evaluation.probability.to_bits(),
            first.evaluation.probability.to_bits()
        );
        let rel = db.voc.find_relation("R").unwrap();
        let mut batch = pdb::DeltaBatch::new();
        batch.insert(rel, vec![Value(9_999)], 0.5);
        db.apply(&batch);
        let refreshed = view.read(&db).unwrap();
        assert!(refreshed.refreshed, "version moved: must re-execute");
        assert_eq!(refreshed.version, db.version());
    }

    #[test]
    fn timings_cover_planning_and_execution() {
        let (db, q) = setup("R(x), S(x,y)", 6);
        let ev = Engine::new().evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.wall_time, ev.planning + ev.execution);
    }
}
