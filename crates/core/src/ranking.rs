//! Non-Boolean queries: answer tuples ranked by probability.
//!
//! The paper studies *Boolean* properties, but its motivating system
//! (MystiQ, §1: "a system for finding more answers by using probabilities")
//! answers ordinary conjunctive queries and ranks the answer tuples by
//! their marginal probability. This module closes that loop through the
//! planner/executor split:
//!
//! * For the tractable shapes (residual hierarchical and self-join-free)
//!   the planner emits a **batched extensional plan** whose output relation
//!   holds one row per candidate binding — the whole ranked answer set in a
//!   single set-at-a-time execution, no per-candidate work at all.
//! * Otherwise the **residual template** `q[ā/h̄]` is classified once and
//!   each candidate executes the template's evaluator directly — earlier
//!   revisions re-ran the dichotomy classifier for *every* candidate
//!   tuple; the planner now runs it at most once per query shape.

use crate::engine::{Engine, EngineError, Method, Strategy};
use crate::planner::RankedPlan;
use cq::{Query, Subst, Value, Var};
use exec_parallel::ExecStats;
use pdb::{all_valuations, ProbDb};
use std::collections::BTreeSet;

/// One ranked answer.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedAnswer {
    /// The head-variable binding, in the order the heads were given.
    pub tuple: Vec<Value>,
    pub probability: f64,
    /// Standard error when the residual needed Monte Carlo, else 0.
    pub std_error: f64,
    /// The plan used for this answer's residual query.
    pub method: Method,
}

/// Execution counters of one ranked evaluation — the same families a
/// Boolean [`crate::engine::Evaluation`] carries, so batched ranked runs
/// report their thread/scheduler/shard behavior instead of dropping it.
#[derive(Clone, Debug, Default)]
pub struct RankedRun {
    /// Per-thread timing counters when the batched extensional plan ran
    /// (one entry at one thread).
    pub parallel: Option<ExecStats>,
    /// Operator counters when the batched extensional plan ran.
    pub extensional: Option<safeplan::OpCounters>,
    /// DAG scheduler counters when the batched extensional plan ran.
    pub scheduler: Option<safeplan::DagStats>,
    /// Per-shard scan rows when the batched extensional plan ran (one
    /// shard unless a fan-out survived the cost model on a database laid
    /// out at it).
    pub sharding: Option<safeplan::ShardStats>,
}

impl RankedRun {
    /// One uniform metric snapshot of the counter families this run
    /// populated, flattened under the same dotted keys an
    /// [`crate::engine::Evaluation`] snapshot uses — the CLI's `--json`
    /// rank output reads the same schema as `--json` eval.
    pub fn metric_set(&self) -> telemetry::MetricSet {
        let mut m = telemetry::MetricSet::new();
        if let Some(ops) = &self.extensional {
            crate::engine::ops_metrics(&mut m, ops);
        }
        if let Some(sched) = &self.scheduler {
            crate::engine::sched_metrics(&mut m, sched);
        }
        if let Some(sh) = &self.sharding {
            crate::engine::shard_metrics(&mut m, sh);
        }
        if let Some(par) = &self.parallel {
            crate::engine::thread_metrics(&mut m, par);
        }
        m
    }
}

fn assert_head_occurs(q: &Query, head: &[Var]) {
    for h in head {
        assert!(
            q.vars().contains(h),
            "head variable {h} does not occur in the query"
        );
    }
}

/// Candidate answers: distinct projections of the valuations.
pub(crate) fn candidates(db: &ProbDb, q: &Query, head: &[Var]) -> BTreeSet<Vec<Value>> {
    let mut out: BTreeSet<Vec<Value>> = BTreeSet::new();
    for val in all_valuations(db, q) {
        out.insert(head.iter().map(|h| val[h]).collect());
    }
    out
}

/// Evaluate a non-Boolean query: candidates for `head` are enumerated from
/// the valuations of `q` over the possible tuples (or read off the batched
/// plan's output relation); answers come back sorted by probability,
/// descending (ties broken by tuple order for determinism).
pub fn ranked_answers(
    engine: &Engine,
    db: &ProbDb,
    q: &Query,
    head: &[Var],
    strategy: Strategy,
) -> Result<Vec<RankedAnswer>, EngineError> {
    ranked_answers_counted(engine, db, q, head, strategy).map(|(answers, _)| answers)
}

/// [`ranked_answers`], also reporting the run's execution counters (thread
/// timings, operator counts, DAG scheduler and shard spread where the
/// batched plan ran pipelined).
pub fn ranked_answers_counted(
    engine: &Engine,
    db: &ProbDb,
    q: &Query,
    head: &[Var],
    strategy: Strategy,
) -> Result<(Vec<RankedAnswer>, RankedRun), EngineError> {
    let _span = telemetry::span("rank");
    assert_head_occurs(q, head);
    let (mut out, run) = match strategy {
        Strategy::Auto => ranked_auto(engine, db, q, head)?,
        _ => ranked_forced(engine, db, q, head, strategy)?,
    };
    out.sort_by(|a, b| {
        b.probability
            .partial_cmp(&a.probability)
            .expect("finite probabilities")
            .then_with(|| a.tuple.cmp(&b.tuple))
    });
    Ok((out, run))
}

/// [`ranked_answers_counted`] with the calling thread's spans captured
/// and returned — the ranked counterpart of
/// [`Engine::evaluate_captured`](crate::engine::Engine::evaluate_captured):
/// same bounded per-thread window, same purely-observational guarantee
/// (answers are byte-identical to an uncaptured run).
pub fn ranked_answers_captured(
    engine: &Engine,
    db: &ProbDb,
    q: &Query,
    head: &[Var],
    strategy: Strategy,
) -> Result<(Vec<RankedAnswer>, RankedRun, Vec<telemetry::SpanRec>), EngineError> {
    let mut window = telemetry::Capture::begin();
    let (answers, run) = ranked_answers_counted(engine, db, q, head, strategy)?;
    Ok((answers, run, window.take()))
}

/// The plan-once path: one ranked template per query shape.
fn ranked_auto(
    engine: &Engine,
    db: &ProbDb,
    q: &Query,
    head: &[Var],
) -> Result<(Vec<RankedAnswer>, RankedRun), EngineError> {
    let template = engine
        .planner()
        .plan_ranked(q, head)
        .map_err(EngineError::Classify)?;
    let mut run = RankedRun::default();
    match &*template {
        RankedPlan::Batched { plan, head } => {
            // One set-at-a-time execution computes every candidate's
            // marginal probability, bit-for-bit the same answers in the
            // same order at every thread count and shard fan-out; the
            // scheduler/shard/thread counters come back with them.
            let mut counters = safeplan::OpCounters::default();
            let fanout = safeplan::plan_shard_fanout(plan, db, engine.exec.shards);
            let (pairs, dag) = safeplan::dag_ranked_probabilities_counted(
                db,
                db.probs(),
                plan,
                head,
                &safeplan::DagOptions::new(engine.exec.threads, fanout),
                &mut counters,
            );
            run.parallel = Some(dag.threads);
            run.scheduler = Some(dag.sched);
            run.sharding = Some(dag.shards);
            run.extensional = Some(counters);
            Ok((
                pairs
                    .into_iter()
                    .map(|(tuple, probability)| RankedAnswer {
                        tuple,
                        probability,
                        std_error: 0.0,
                        method: Method::Extensional,
                    })
                    .collect(),
                run,
            ))
        }
        RankedPlan::PerBinding { kind, .. } => {
            let executor = engine.executor();
            let mut out = Vec::new();
            let mut ops = safeplan::OpCounters::default();
            let mut saw_ops = false;
            for tuple in candidates(db, q, head) {
                let mut subst = Subst::new();
                for (h, &v) in head.iter().zip(&tuple) {
                    subst.bind(*h, v);
                }
                let residual = q.apply(&subst);
                let plan = kind.instantiate(residual);
                let outcome = executor.execute(db, &plan).map_err(EngineError::Eval)?;
                if let Some(c) = &outcome.extensional {
                    ops.absorb(c);
                    saw_ops = true;
                }
                out.push(RankedAnswer {
                    tuple,
                    probability: outcome.probability,
                    std_error: outcome.std_error,
                    method: outcome.method,
                });
            }
            if saw_ops {
                run.extensional = Some(ops);
            }
            Ok((out, run))
        }
    }
}

/// Forced strategies evaluate each residual under that strategy (no
/// classification happens there either).
fn ranked_forced(
    engine: &Engine,
    db: &ProbDb,
    q: &Query,
    head: &[Var],
    strategy: Strategy,
) -> Result<(Vec<RankedAnswer>, RankedRun), EngineError> {
    // Forced Monte Carlo routes through the shared multisimulation
    // harness: one lineage-extraction pass over the valuations and
    // candidate-parallel sampling from per-candidate seed-split streams —
    // byte-identical per seed at every thread count, where the old
    // per-residual Karp–Luby loop re-enumerated the join per candidate.
    if let Strategy::MonteCarlo { samples } = strategy {
        return Ok((
            crate::multisim::multisim_marginals(
                db,
                q,
                head,
                samples,
                engine.seed,
                engine.exec.threads,
            )
            .into_iter()
            .map(|(tuple, probability, std_error)| RankedAnswer {
                tuple,
                probability,
                std_error,
                method: Method::KarpLuby,
            })
            .collect(),
            RankedRun::default(),
        ));
    }
    let mut out = Vec::new();
    for tuple in candidates(db, q, head) {
        let mut subst = Subst::new();
        for (h, &v) in head.iter().zip(&tuple) {
            subst.bind(*h, v);
        }
        let residual = q.apply(&subst);
        let ev = engine.evaluate(db, &residual, strategy)?;
        out.push(RankedAnswer {
            tuple,
            probability: ev.probability,
            std_error: ev.std_error,
            method: ev.method,
        });
    }
    Ok((out, RankedRun::default()))
}

/// The top-`k` answers (MystiQ-style ranked retrieval).
pub fn top_k(
    engine: &Engine,
    db: &ProbDb,
    q: &Query,
    head: &[Var],
    k: usize,
    strategy: Strategy,
) -> Result<Vec<RankedAnswer>, EngineError> {
    let mut all = ranked_answers(engine, db, q, head, strategy)?;
    all.truncate(k);
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Vocabulary};
    use pdb::brute_force_probability;

    fn movie_db() -> (ProbDb, Query, Vec<Var>) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
        let d = q.vars()[0];
        let director = voc.find_relation("Director").unwrap();
        let credit = voc.find_relation("Credit").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(director, vec![Value(1)], 0.9);
        db.insert(director, vec![Value(2)], 0.4);
        db.insert(director, vec![Value(3)], 0.99); // no credits: never an answer
        db.insert(credit, vec![Value(1), Value(100)], 0.8);
        db.insert(credit, vec![Value(2), Value(100)], 0.9);
        db.insert(credit, vec![Value(2), Value(101)], 0.9);
        (db, q, vec![d])
    }

    #[test]
    fn answers_match_per_answer_brute_force() {
        let (db, q, head) = movie_db();
        let engine = Engine::new();
        let answers = ranked_answers(&engine, &db, &q, &head, Strategy::Auto).unwrap();
        assert_eq!(answers.len(), 2);
        for a in &answers {
            let mut subst = Subst::new();
            subst.bind(head[0], a.tuple[0]);
            let residual = q.apply(&subst);
            let bf = brute_force_probability(&db, &residual);
            assert!((a.probability - bf).abs() < 1e-9, "{a:?} vs {bf}");
        }
    }

    #[test]
    fn safe_shapes_run_batched_without_classification() {
        let (db, q, head) = movie_db();
        let engine = Engine::new();
        let answers = ranked_answers(&engine, &db, &q, &head, Strategy::Auto).unwrap();
        assert_eq!(answers.len(), 2);
        for a in &answers {
            assert_eq!(a.method, Method::Extensional);
        }
        // The batched template never touches the classifier, and repeat
        // traffic hits the ranked-plan cache.
        assert_eq!(engine.cache_stats().classifications, 0);
        let _ = ranked_answers(&engine, &db, &q, &head, Strategy::Auto).unwrap();
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn parallel_ranked_answers_match_serial() {
        use crate::engine::ExecOptions;
        let (db, q, head) = movie_db();
        let serial_engine = Engine::with_options(1_000, 1, ExecOptions::serial());
        let serial = ranked_answers(&serial_engine, &db, &q, &head, Strategy::Auto).unwrap();
        for threads in [2, 4] {
            let par_engine = Engine::with_options(1_000, 1, ExecOptions::with_threads(threads));
            let par = ranked_answers(&par_engine, &db, &q, &head, Strategy::Auto).unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn forced_monte_carlo_ranking_is_byte_identical_across_threads() {
        use crate::engine::ExecOptions;
        let (db, q, head) = movie_db();
        let strategy = Strategy::MonteCarlo { samples: 4_096 };
        let run = |threads: usize| {
            let engine = Engine::with_options(1_000, 77, ExecOptions::with_threads(threads));
            ranked_answers(&engine, &db, &q, &head, strategy).unwrap()
        };
        let serial = run(1);
        assert_eq!(serial.len(), 2);
        for a in &serial {
            // Sampled through the shared multisim harness.
            assert_eq!(a.method, Method::KarpLuby);
            assert!(a.std_error > 0.0);
            let residual = q.apply(&Subst::singleton(head[0], a.tuple[0]));
            let bf = brute_force_probability(&db, &residual);
            assert!((a.probability - bf).abs() < 0.05, "{a:?} vs {bf}");
        }
        for threads in [2, 4, 8] {
            let par = run(threads);
            assert_eq!(par.len(), serial.len(), "threads={threads}");
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.tuple, b.tuple, "threads={threads}");
                assert_eq!(a.probability.to_bits(), b.probability.to_bits());
                assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
            }
        }
    }

    #[test]
    fn ranking_is_descending() {
        let (db, q, head) = movie_db();
        let engine = Engine::new();
        let answers = ranked_answers(&engine, &db, &q, &head, Strategy::Auto).unwrap();
        // d=1: 0.9·0.8 = 0.72; d=2: 0.4·(1−0.01·... ) = 0.4·0.99 = 0.396.
        assert_eq!(answers[0].tuple, vec![Value(1)]);
        assert!((answers[0].probability - 0.72).abs() < 1e-9);
        assert_eq!(answers[1].tuple, vec![Value(2)]);
        assert!((answers[1].probability - 0.4 * 0.99).abs() < 1e-9);
        assert!(answers[0].probability >= answers[1].probability);
    }

    #[test]
    fn top_k_truncates() {
        let (db, q, head) = movie_db();
        let engine = Engine::new();
        let top = top_k(&engine, &db, &q, &head, 1, Strategy::Auto).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].tuple, vec![Value(1)]);
    }

    #[test]
    fn multi_variable_heads() {
        let (db, q, _) = movie_db();
        let vars = q.vars();
        let engine = Engine::new();
        let answers = ranked_answers(&engine, &db, &q, &vars, Strategy::Auto).unwrap();
        // Three (d, m) pairs with credits.
        assert_eq!(answers.len(), 3);
        for a in &answers {
            assert_eq!(a.tuple.len(), 2);
        }
    }

    #[test]
    fn hard_query_residuals_become_tractable() {
        // H_0's residual under a grounding of x is hierarchical without the
        // inversion: the template classifies once, and no candidate falls
        // back to Monte Carlo.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), S(x2,y2), T(y2)").unwrap();
        let x = q.vars()[0];
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let t = voc.find_relation("T").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..3u64 {
            db.insert(r, vec![Value(i)], 0.5);
            db.insert(s, vec![Value(i), Value(10 + i)], 0.5);
            db.insert(t, vec![Value(10 + i)], 0.5);
        }
        let engine = Engine::new();
        let answers = ranked_answers(&engine, &db, &q, &[x], Strategy::Auto).unwrap();
        assert_eq!(answers.len(), 3);
        for a in &answers {
            assert_ne!(a.method, Method::KarpLuby, "residual should be safe: {a:?}");
            // Cross-check exactness.
            let residual = q.apply(&Subst::singleton(x, a.tuple[0]));
            let bf = brute_force_probability(&db, &residual);
            assert!((a.probability - bf).abs() < 1e-9);
        }
        // One classification for the whole template, not one per candidate.
        assert_eq!(engine.cache_stats().classifications, 1);
    }

    #[test]
    fn head_constant_predicates_over_a_hard_residual_use_exact_lineage() {
        // The generic residual binds `h` to a sentinel far above 5, so it
        // plans as the constant `never`; the residual for a real binding is
        // the non-hierarchical `R(x), S(x,y), T(y)` and needs lineage.
        for pred in ["h < 5", "h = 3"] {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, &format!("A(h), R(x), S(x,y), T(y), {pred}")).unwrap();
            let h = q.vars()[0];
            let a = voc.find_relation("A").unwrap();
            let r = voc.find_relation("R").unwrap();
            let s = voc.find_relation("S").unwrap();
            let t = voc.find_relation("T").unwrap();
            let mut db = ProbDb::new(voc);
            db.insert(a, vec![Value(3)], 0.7);
            db.insert(a, vec![Value(9)], 0.8);
            for i in 0..2u64 {
                db.insert(r, vec![Value(i)], 0.5);
                db.insert(t, vec![Value(i)], 0.6);
                for j in 0..2u64 {
                    db.insert(s, vec![Value(i), Value(j)], 0.4);
                }
            }
            let engine = Engine::new();
            let answers = ranked_answers(&engine, &db, &q, &[h], Strategy::Auto).unwrap();
            assert_eq!(answers.len(), 1, "{pred}");
            assert_eq!(answers[0].tuple, vec![Value(3)]);
            assert_eq!(answers[0].method, Method::ExactLineage);
            let residual = q.apply(&Subst::singleton(h, Value(3)));
            let bf = brute_force_probability(&db, &residual);
            assert!((answers[0].probability - bf).abs() < 1e-9, "{pred}");
        }
    }

    #[test]
    #[should_panic(expected = "does not occur")]
    fn foreign_head_variable_rejected() {
        let (db, q, _) = movie_db();
        let engine = Engine::new();
        let _ = ranked_answers(&engine, &db, &q, &[Var(99)], Strategy::Auto);
    }
}
