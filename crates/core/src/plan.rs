//! The physical plan IR joining the [`crate::planner`] to the executor.
//!
//! The paper's motivating system (MystiQ, §1) is an *engine*: classify a
//! query once, compile the cheapest sound plan, then evaluate it
//! extensionally inside the database. [`PhysicalPlan`] is the typed
//! artifact that crosses that boundary: the planner runs the dichotomy
//! classification exactly once and emits a plan; the [`Executor`] runs the
//! plan against any [`ProbDb`] — many times, against many scenarios —
//! without ever touching the classifier again.
//!
//! Plan variants, in preference order for PTIME queries:
//!
//! | variant | substrate | when |
//! |---|---|---|
//! | [`PhysicalPlan::Extensional`] | `safeplan` set-at-a-time operators | hierarchical, no self-joins; a constant (`certain` / `never`) when nothing is left after minimization |
//! | [`PhysicalPlan::RootRecursion`] | §3.2 coverage root recursion | inversion-free self-joins; hierarchical self-join-free queries the extensional compiler declines |
//! | [`PhysicalPlan::ExactLineage`] | weighted model counting | erasable inversions (§3.4 substitution) |
//! | [`PhysicalPlan::KarpLuby`] | FPRAS over the lineage | #P-hard queries |
//!
//! Both PTIME substrates run in `f64` ([`Executor::execute`]) and in exact
//! rationals ([`Executor::execute_exact`]): one evaluator per class, generic
//! over [`lineage::ProbValue`].

use crate::safe_eval::eval_inversion_free;
use cq::{Query, Vocabulary};
use exec_parallel::ExecStats;
use lineage::{exact_probability, karp_luby, karp_luby_par, Dnf};
use numeric::QRat;
use pdb::{lineage_of, ProbDb, RatProbs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safeplan::{DagOptions, DagStats, ShardStats};
use std::fmt;

/// How a probability was computed — the executor's report of which
/// substrate actually ran (runtime fallbacks may differ from the plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Extensional set-at-a-time safe plan (`safeplan` operators).
    Extensional,
    /// Inversion-free coverage safe plan, root-recursion form (§3.2).
    SafePlan,
    /// Exact weighted model counting over the lineage.
    ExactLineage,
    /// Karp–Luby estimation over the lineage.
    KarpLuby,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Extensional => write!(f, "extensional-plan"),
            Method::SafePlan => write!(f, "safe-plan"),
            Method::ExactLineage => write!(f, "exact-lineage"),
            Method::KarpLuby => write!(f, "karp-luby"),
        }
    }
}

/// A compiled evaluation plan for a Boolean query: everything the executor
/// needs, nothing the classifier produced along the way.
#[derive(Clone, Debug)]
pub enum PhysicalPlan {
    /// Extensional safe plan run by the `safeplan` set-at-a-time executor —
    /// the preferred backend for hierarchical self-join-free queries.
    Extensional { plan: safeplan::PlanNode },
    /// Root-recursion safe evaluation for inversion-free queries, and for
    /// hierarchical self-join-free ones the extensional compiler declines
    /// (a negated self-join, a predicate spanning components).
    RootRecursion { query: Query },
    /// Exact lineage compilation (worst-case exponential, always exact).
    ExactLineage { query: Query },
    /// Karp–Luby FPRAS over the lineage (MystiQ's Monte-Carlo fallback).
    KarpLuby { query: Query, samples: u64 },
}

impl PhysicalPlan {
    /// The method this plan runs under normal (non-fallback) execution.
    pub fn method(&self) -> Method {
        match self {
            PhysicalPlan::Extensional { .. } => Method::Extensional,
            PhysicalPlan::RootRecursion { .. } => Method::SafePlan,
            PhysicalPlan::ExactLineage { .. } => Method::ExactLineage,
            PhysicalPlan::KarpLuby { .. } => Method::KarpLuby,
        }
    }

    /// Render the plan for CLI/debug output.
    pub fn display(&self, voc: &Vocabulary) -> String {
        match self {
            PhysicalPlan::Extensional { plan } => {
                format!("extensional plan:\n{}", plan.display(voc))
            }
            PhysicalPlan::RootRecursion { query } => {
                format!("root-recursion safe plan over {}\n", query.display(voc))
            }
            PhysicalPlan::ExactLineage { query } => {
                format!("exact lineage compilation of {}\n", query.display(voc))
            }
            PhysicalPlan::KarpLuby { query, samples } => {
                format!(
                    "karp-luby estimation of {} ({samples} samples)\n",
                    query.display(voc)
                )
            }
        }
    }
}

/// What one execution produced.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    pub probability: f64,
    /// Standard error of the estimate; 0 for exact methods.
    pub std_error: f64,
    /// The substrate that actually ran (after runtime fallbacks).
    pub method: Method,
    /// Per-thread timing counters of the worker pool: every extensional
    /// run (one entry at one thread), and sampling plans at `threads > 1`.
    pub parallel: Option<ExecStats>,
    /// Operator counters when the plan ran on the extensional columnar
    /// data plane: scans (and how many were served by constant-pushdown
    /// posting lists), rows visited vs pruned, join build-side choices,
    /// groups aggregated. Identical at every thread count.
    pub extensional: Option<safeplan::OpCounters>,
    /// Operator-DAG scheduler counters of an extensional run: tasks
    /// scheduled, peak ready/running widths, and wall time with ≥2 tasks
    /// overlapped (`max_running == 1` and no overlap at one thread).
    pub scheduler: Option<DagStats>,
    /// Per-shard scan row counts of an extensional run. `shards == 1`
    /// means one shard was asked for, the cost model collapsed the
    /// requested fan-out (inputs below [`safeplan::SHARD_MIN_ROWS`]), or
    /// the database was not laid out at that fan-out
    /// ([`pdb::ProbDb::set_shard_layout`]).
    pub sharding: Option<ShardStats>,
}

/// The executor: runs a [`PhysicalPlan`] against a database. Holds only
/// tuning that affects execution (the RNG seed for sampling plans, the
/// worker-thread count, and the requested shard fan-out); all query
/// analysis lives behind it in the planner. Extensional plans run on
/// `safeplan`'s one executor at every tuning; one thread and one shard
/// is its serial configuration, not a separate path.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    /// RNG seed for reproducible Monte-Carlo estimates.
    pub seed: u64,
    /// Worker threads for execution; 1 = serial.
    pub threads: usize,
    /// Requested shard fan-out for the hash-partitioned extensional data
    /// plane; 1 = monolithic. The cost model collapses the request per
    /// plan when every scan is too small to be worth splitting
    /// ([`safeplan::plan_shard_fanout`]), and a fan-out above 1 runs only
    /// on a database laid out at it ([`pdb::ProbDb::set_shard_layout`]);
    /// scans stay monolithic otherwise.
    pub shards: usize,
}

impl Executor {
    pub fn new(seed: u64) -> Self {
        Executor {
            seed,
            threads: 1,
            shards: 1,
        }
    }

    /// An executor running on `threads` workers. Extensional results are
    /// bit-for-bit those of one thread; only wall time (and the reported
    /// [`ExecOutcome::parallel`] counters) change with the thread count.
    /// Sampling plans draw from seed-split per-worker RNG streams —
    /// deterministic for a fixed `(seed, threads)`, but a *different*
    /// stream than the serial sampler's.
    pub fn with_threads(seed: u64, threads: usize) -> Self {
        Self::with_tuning(seed, threads, 1)
    }

    /// An executor with both worker threads and a shard fan-out for the
    /// extensional data plane. Results stay bit-for-bit those of one
    /// thread and one shard for every `(threads, shards)` pair.
    pub fn with_tuning(seed: u64, threads: usize, shards: usize) -> Self {
        Executor {
            seed,
            threads: threads.max(1),
            shards: shards.max(1),
        }
    }

    /// Run `plan` against `db` in `f64` arithmetic.
    ///
    /// Root recursion degrades gracefully at runtime: whenever it refuses
    /// (its inclusion–exclusion budget trips, no consistent root choice
    /// exists, the coverage cannot be built), the plan falls back to exact
    /// lineage. The fallback stays exact — only the reported [`Method`]
    /// changes — so no PTIME verdict ends in an evaluation error.
    pub fn execute(&self, db: &ProbDb, plan: &PhysicalPlan) -> Result<ExecOutcome, String> {
        match plan {
            PhysicalPlan::Extensional { plan } => {
                let mut counters = safeplan::OpCounters::default();
                // The cost model gates the requested shard fan-out per
                // plan: tiny scans stay monolithic, so `shards` is a
                // ceiling, not a mandate.
                let fanout = safeplan::plan_shard_fanout(plan, db, self.shards);
                let opts = DagOptions::new(self.threads, fanout);
                let (rel, run) =
                    safeplan::dag_execute_counted(db, db.probs(), plan, &opts, &mut counters);
                Ok(ExecOutcome {
                    probability: rel.scalar(),
                    std_error: 0.0,
                    method: Method::Extensional,
                    parallel: Some(run.threads),
                    extensional: Some(counters),
                    scheduler: Some(run.sched),
                    sharding: Some(run.shards),
                })
            }
            PhysicalPlan::RootRecursion { query } => {
                Ok(match eval_inversion_free(db, db.probs(), query) {
                    Ok(p) => outcome(p, Method::SafePlan),
                    // The safe plan's inclusion-exclusion budget is an
                    // engineering bound, a per-binding residual can carry
                    // constants that create unifications the planned
                    // template did not have, and a predicate spanning
                    // components leaves no root; exact lineage stays correct
                    // in every such case (if not worst-case polynomial).
                    Err(_) => self.exact_lineage(db, &lineage_of(db, query)),
                })
            }
            PhysicalPlan::ExactLineage { query } => {
                Ok(self.exact_lineage(db, &lineage_of(db, query)))
            }
            PhysicalPlan::KarpLuby { query, samples } => {
                Ok(self.karp_luby(db, &lineage_of(db, query), *samples))
            }
        }
    }

    /// Run `plan` against `db` in exact rational arithmetic, on the same
    /// evaluators as [`Executor::execute`]. Sampling plans and the same
    /// runtime fallbacks route to exact lineage compilation — always exact,
    /// worst-case exponential (necessarily, for #P-hard queries).
    pub fn execute_exact(
        &self,
        db: &ProbDb,
        probs: &RatProbs,
        plan: &PhysicalPlan,
    ) -> (QRat, Method) {
        match plan {
            PhysicalPlan::Extensional { plan } => (
                safeplan::query_probability_exact(db, probs, plan),
                Method::Extensional,
            ),
            PhysicalPlan::RootRecursion { query } => {
                match eval_inversion_free(db, probs.as_slice(), query) {
                    Ok(p) => (p, Method::SafePlan),
                    Err(_) => (
                        pdb::exact_query_probability(db, probs, query),
                        Method::ExactLineage,
                    ),
                }
            }
            PhysicalPlan::ExactLineage { query } | PhysicalPlan::KarpLuby { query, .. } => (
                pdb::exact_query_probability(db, probs, query),
                Method::ExactLineage,
            ),
        }
    }

    /// Exact weighted model counting over `dnf`, a lineage over `db`'s
    /// tuple events.
    pub(crate) fn exact_lineage(&self, db: &ProbDb, dnf: &Dnf) -> ExecOutcome {
        outcome(exact_probability(dnf, db.probs()), Method::ExactLineage)
    }

    /// Karp–Luby over `dnf`, a lineage over `db`'s tuple events; at
    /// `threads > 1` the sample budget fans out over per-worker seed-split
    /// RNG streams and per-thread counters come back alongside the
    /// estimate.
    pub(crate) fn karp_luby(&self, db: &ProbDb, dnf: &Dnf, samples: u64) -> ExecOutcome {
        let (est, parallel) = if self.threads > 1 {
            let (est, stats) = karp_luby_par(dnf, db.probs(), samples, self.threads, self.seed);
            // Degenerate lineages short-circuit without fanning out; empty
            // stats mean nothing ran in parallel, so report no counters.
            (est, (stats.threads() > 0).then_some(stats))
        } else {
            let mut rng = StdRng::seed_from_u64(self.seed);
            (karp_luby(dnf, db.probs(), samples, &mut rng), None)
        };
        ExecOutcome {
            std_error: est.std_error,
            parallel,
            ..outcome(est.estimate, Method::KarpLuby)
        }
    }
}

/// An outcome with no standard error and no execution counters.
fn outcome(p: f64, method: Method) -> ExecOutcome {
    ExecOutcome {
        probability: p,
        std_error: 0.0,
        method,
        parallel: None,
        extensional: None,
        scheduler: None,
        sharding: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Value, Vocabulary};
    use pdb::brute_force_probability;

    fn small_db() -> (ProbDb, Query) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(2)], 0.4);
        // A second component, so sampling plans have a non-degenerate
        // (multi-clause) lineage and a genuine standard error.
        db.insert(r, vec![Value(3)], 0.7);
        db.insert(s, vec![Value(3), Value(4)], 0.6);
        (db, q)
    }

    #[test]
    fn every_plan_variant_executes_r_s() {
        let (db, q) = small_db();
        let want = brute_force_probability(&db, &q);
        let exec = Executor::new(7);
        let plans = [
            PhysicalPlan::Extensional {
                plan: safeplan::build_plan(&q).unwrap(),
            },
            PhysicalPlan::RootRecursion { query: q.clone() },
            PhysicalPlan::ExactLineage { query: q.clone() },
        ];
        for plan in &plans {
            let out = exec.execute(&db, plan).unwrap();
            assert!(
                (out.probability - want).abs() < 1e-12,
                "{:?}: {} vs {want}",
                plan.method(),
                out.probability
            );
            assert_eq!(out.std_error, 0.0);
        }
        let kl = exec
            .execute(
                &db,
                &PhysicalPlan::KarpLuby {
                    query: q.clone(),
                    samples: 20_000,
                },
            )
            .unwrap();
        assert!((kl.probability - want).abs() < 0.02);
        assert!(kl.std_error > 0.0, "sampling must report a standard error");
    }

    #[test]
    fn exact_execution_matches_f64() {
        let (db, q) = small_db();
        let probs = RatProbs::from_db(&db);
        let exec = Executor::new(7);
        let plan = PhysicalPlan::Extensional {
            plan: safeplan::build_plan(&q).unwrap(),
        };
        let (p, method) = exec.execute_exact(&db, &probs, &plan);
        assert_eq!(method, Method::Extensional);
        // RatProbs::from_db embeds the exact binary f64 values, so compare
        // against the f64 executor, not a decimal closed form.
        let f = exec.execute(&db, &plan).unwrap().probability;
        assert!((p.to_f64() - f).abs() < 1e-15);
    }

    #[test]
    fn pipelined_execution_matches_serial_and_reports_dag_counters() {
        let (db, q) = small_db();
        let plan = PhysicalPlan::Extensional {
            plan: safeplan::build_plan(&q).unwrap(),
        };
        let one_thread_one_shard = |out: &ExecOutcome| {
            out.parallel.as_ref().map(ExecStats::threads) == Some(1)
                && out.sharding.as_ref().map(|s| s.shards) == Some(1)
        };
        let serial = Executor::new(7).execute(&db, &plan).unwrap();
        assert!(one_thread_one_shard(&serial), "{serial:?}");
        // Tiny scans + one thread: the cost model collapses the requested
        // fan-out to 1 and the plan runs on one thread and one shard.
        let collapsed = Executor::with_tuning(7, 1, 4).execute(&db, &plan).unwrap();
        assert_eq!(
            collapsed.probability.to_bits(),
            serial.probability.to_bits()
        );
        assert!(one_thread_one_shard(&collapsed), "{collapsed:?}");
        for (threads, shards) in [(2, 1), (4, 4)] {
            let out = Executor::with_tuning(7, threads, shards)
                .execute(&db, &plan)
                .unwrap();
            assert_eq!(
                out.probability.to_bits(),
                serial.probability.to_bits(),
                "threads={threads} shards={shards}"
            );
            let sched = out.scheduler.expect("pipelined run reports DAG stats");
            assert!(sched.tasks >= 2);
            let sharding = out.sharding.expect("pipelined run reports shard stats");
            // Tiny scans: the cost model collapses the requested fan-out.
            assert_eq!(sharding.shards, 1);
        }
    }

    #[test]
    fn trivial_plans_skip_data() {
        let mut voc = Vocabulary::new();
        let _ = voc.relation("R", 1).unwrap();
        let db = ProbDb::new(voc);
        let probs = RatProbs::from_db(&db);
        let exec = Executor::new(1);
        for (node, p) in [
            (safeplan::PlanNode::Certain, 1),
            (safeplan::PlanNode::Never, 0),
        ] {
            let plan = PhysicalPlan::Extensional { plan: node };
            assert_eq!(plan.method(), Method::Extensional);
            let out = exec.execute(&db, &plan).unwrap();
            assert_eq!(out.probability, p as f64);
            assert_eq!(out.method, Method::Extensional);
            assert_eq!(out.extensional.unwrap().rows_scanned, 0);
            let (q, method) = exec.execute_exact(&db, &probs, &plan);
            assert_eq!(q, QRat::from_int(p));
            assert_eq!(method, Method::Extensional);
        }
    }
}
