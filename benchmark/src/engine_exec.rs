//! `engine_exec`: no sockets. Direct library calls on the 100k-tuple star
//! and the 156k-tuple bushy database, so the `safeplan` kernels, the
//! `exec-parallel` DAG scheduler and `pdb` scans are all there is — and
//! both executors the engine routes to sit side by side.

use std::collections::BTreeMap;
use std::time::Instant;

use cq::{Query, Var};
use dichotomy::engine::{Engine, ExecOptions, Strategy};
use dichotomy::planner::RankedPlan;
use dichotomy::ranking::ranked_answers;
use dichotomy::PhysicalPlan;
use pdb::ProbDb;
use safeplan::{DagOptions, OpCounters};

use crate::common::*;
use crate::gen::{self, Rng, BUSHY_QUERY, STAR_QUERY};
use crate::replay;
use crate::stats::peak_rss_mb;
use crate::trace::Recorder;

pub const NAME: &str = "engine_exec";
const CLASSES: [&str; 4] = ["eval", "bushy_serial", "bushy_dag", "rank"];
/// The DAG leg: two workers over a two-shard resident layout.
const DAG_THREADS: usize = 2;
const DAG_SHARDS: usize = 2;

/// Result cache off (the engine default, and `ENGINE_RESULT_CACHE` is
/// refused at start-up); plans are cached after the first cycle.
struct Fixture {
    star: ProbDb,
    bushy: ProbDb,
    /// The bushy database again, laid out in `DAG_SHARDS` resident shards.
    bushy_sharded: ProbDb,
    serial: Engine,
    dag: Engine,
    star_q: Query,
    bushy_q: Query,
}

fn build(star_text: &str, bushy_text: &str) -> Result<Fixture, Error> {
    let star = load(star_text)?;
    let bushy = load(bushy_text)?;
    let mut bushy_sharded = bushy.clone();
    bushy_sharded.set_shard_layout(DAG_SHARDS);
    Ok(Fixture {
        star_q: parse(&star, STAR_QUERY)?,
        bushy_q: parse(&bushy, BUSHY_QUERY)?,
        star,
        bushy,
        bushy_sharded,
        serial: direct_engine(DEFAULT_MC_SAMPLES),
        dag: Engine::with_options(
            DEFAULT_MC_SAMPLES,
            ENGINE_SEED,
            ExecOptions::with_tuning(DAG_THREADS, DAG_SHARDS),
        ),
    })
}

/// The bits each op of the cycle must return, taken by another route:
/// plans built and run through `safeplan` directly, not the engine.
struct Expected {
    star: u64,
    bushy: u64,
    ranked: Vec<(Vec<cq::Value>, u64)>,
}

fn ranked_plan(q: &Query) -> Result<safeplan::PlanNode, Error> {
    Ok(safeplan::optimize(&safeplan::build_ranked_plan(
        q,
        &[Var(0)],
    )?))
}

impl Expected {
    fn new(fx: &Fixture) -> Result<Expected, Error> {
        let star_plan = safeplan::optimize(&safeplan::build_plan(&fx.star_q)?);
        let bushy_plan = safeplan::optimize(&safeplan::build_plan(&fx.bushy_q)?);
        let mut ranked = safeplan::ranked_probabilities(
            &fx.star,
            &fx.star.prob_vector(),
            &ranked_plan(&fx.star_q)?,
            &[Var(0)],
        );
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        Ok(Expected {
            star: safeplan::query_probability(&fx.star, &star_plan).to_bits(),
            bushy: safeplan::query_probability(&fx.bushy, &bushy_plan).to_bits(),
            ranked: ranked.into_iter().map(|(t, p)| (t, p.to_bits())).collect(),
        })
    }
}

fn cycle(rec: &mut ClientRec, fx: &Fixture, want: Option<&Expected>) -> Result<(), Error> {
    let start = Instant::now();
    let eval = |rec: &mut ClientRec,
                class,
                engine: &Engine,
                db,
                q,
                bits: Option<u64>|
     -> Result<(), Error> {
        let t0 = Instant::now();
        let ev = engine.evaluate(db, q, Strategy::Auto)?;
        let t1 = Instant::now();
        rec.op(
            class,
            t0,
            t1,
            bits.is_none_or(|b| b == ev.probability.to_bits()),
            true,
        );
        Ok(())
    };
    eval(
        rec,
        "eval",
        &fx.serial,
        &fx.star,
        &fx.star_q,
        want.map(|w| w.star),
    )?;
    eval(
        rec,
        "bushy_serial",
        &fx.serial,
        &fx.bushy,
        &fx.bushy_q,
        want.map(|w| w.bushy),
    )?;
    // Same bits from the DAG executor: scheduling and sharding never leak
    // into results.
    eval(
        rec,
        "bushy_dag",
        &fx.dag,
        &fx.bushy_sharded,
        &fx.bushy_q,
        want.map(|w| w.bushy),
    )?;
    let t0 = Instant::now();
    let answers = ranked_answers(&fx.serial, &fx.star, &fx.star_q, &[Var(0)], Strategy::Auto)?;
    let t1 = Instant::now();
    let ok = want.is_none_or(|w| {
        answers.len() == w.ranked.len()
            && answers
                .iter()
                .zip(&w.ranked)
                .all(|(a, (t, p))| a.tuple == *t && a.probability.to_bits() == *p)
    });
    rec.op("rank", t0, t1, ok, true);
    rec.cycle(start, Instant::now());
    Ok(())
}

fn window(fx: &Fixture, want: &Expected, seconds: f64, traced: bool) -> ClientRec {
    let mut rec = ClientRec::new(0, &CLASSES, traced);
    run_window(&mut rec, seconds, |rec| {
        cycle(rec, fx, Some(want)).map_err(|e| std::io::Error::other(e.to_string()))
    });
    rec
}

/// Replay the cycle's four ops as plan lookup + kernel call on prebuilt
/// plans, and read the exact counters off the `*_counted` variants.
fn replay_ops(
    lane: &mut Recorder,
    fx: &Fixture,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Error> {
    let planner = fx.serial.planner();
    let extensional = |q: &Query| -> Result<safeplan::PlanNode, Error> {
        match &planner.plan(q)?.plan {
            PhysicalPlan::Extensional { plan } => Ok(plan.clone()),
            other => Err(format!("expected an extensional plan, got {:?}", other.method()).into()),
        }
    };
    let star_plan = extensional(&fx.star_q)?;
    let bushy_plan = extensional(&fx.bushy_q)?;
    let fanout = safeplan::plan_shard_fanout(&bushy_plan, &fx.bushy_sharded, DAG_SHARDS);
    let dag_opts = DagOptions::new(DAG_THREADS, fanout);
    let (mut busy, mut overlap, mut tasks) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..16 {
        lane.replay("eval", |r| {
            r.stage("core.plan_hit_us", || {
                planner.plan_tracked(&fx.star_q).is_ok()
            });
            r.stage("safeplan.star_serial_ms", || {
                safeplan::query_probability(&fx.star, &star_plan)
            });
        });
        lane.replay("bushy_serial", |r| {
            r.stage("core.plan_hit_us", || {
                planner.plan_tracked(&fx.bushy_q).is_ok()
            });
            r.stage("safeplan.bushy_serial_ms", || {
                safeplan::query_probability(&fx.bushy, &bushy_plan)
            });
        });
        lane.replay("bushy_dag", |r| {
            r.stage("core.plan_hit_us", || {
                planner.plan_tracked(&fx.bushy_q).is_ok()
            });
            let t0 = Instant::now();
            let ((_, run), _) = r.stage("safeplan.bushy_dag_ms", || {
                safeplan::dag_query_probability(&fx.bushy_sharded, &bushy_plan, &dag_opts)
            });
            let wall = t0.elapsed().as_secs_f64();
            tasks = run.sched.tasks as f64;
            busy.push(run.threads.total_busy().as_secs_f64() / (DAG_THREADS as f64 * wall));
            overlap.push(run.sched.overlap.as_secs_f64() / wall);
        });
        lane.replay("rank", |r| -> Result<(), Error> {
            let (template, _) = r.stage("core.plan_hit_us", || {
                planner.plan_ranked(&fx.star_q, &[Var(0)])
            });
            let template = template?;
            let RankedPlan::Batched { plan, head } = &*template else {
                return Err("star ranking did not compile to a batched plan".into());
            };
            r.stage("safeplan.ranked_ms", || {
                safeplan::ranked_probabilities(&fx.star, &fx.star.prob_vector(), plan, head)
            });
            Ok(())
        })?;
    }
    layers.insert("exec-parallel.tasks", tasks);
    layers.insert("exec-parallel.busy_share", crate::stats::median(&busy));
    layers.insert(
        "exec-parallel.overlap_share",
        crate::stats::median(&overlap),
    );
    let mut counters = OpCounters::default();
    safeplan::query_probability_counted(&fx.star, &star_plan, &mut counters);
    layers.insert("safeplan.rows_scanned", counters.rows_scanned as f64);
    layers.insert("safeplan.join_rows", counters.join_rows as f64);
    layers.insert("safeplan.groups", counters.groups as f64);
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome, Error> {
    let rng = Rng::new(cfg.seed);
    let star_text = gen::star_text(&mut rng.fork(1));
    let bushy_text = gen::bushy_text(&mut rng.fork(2));
    let mut layers = BTreeMap::new();
    let mut notes = Vec::new();
    if cfg.trace {
        replay::setup_layers(&[(&star_text, 1), (&bushy_text, DAG_SHARDS)], &mut layers)?;
    }

    let mut replicas: Vec<Vec<ClientRec>> = Vec::new();
    let mut peak = 0.0;
    let mut lane = Recorder::new(1);
    let share = cfg.seconds / cfg.replicas as f64;
    for replica in 0..cfg.replicas {
        let fx = build(&star_text, &bushy_text)?;
        let want = Expected::new(&fx)?;
        window(&fx, &want, cfg.warmup, false);
        let recs = if cfg.trace {
            vec![
                window(&fx, &want, share / 2.0, false),
                window(&fx, &want, share / 2.0, true),
            ]
        } else {
            vec![window(&fx, &want, share, false)]
        };
        if replica == 0 {
            peak = peak_rss_mb();
        }
        if cfg.trace && replica + 1 == cfg.replicas {
            let stats = fx.serial.cache_stats();
            layers.insert(
                "core.plan_hit_share",
                crate::common::share(stats.hits, stats.hits + stats.misses),
            );
            replay_ops(&mut lane, &fx, &mut layers)?;
        }
        drop(fx);
        replicas.push(recs);
    }

    let quiet = Quietest::of(&replicas);
    notes.push(quiet.note.clone());
    let recs: Vec<ClientRec> = replicas.into_iter().flatten().collect();
    let mut m = Merged::of(&recs);
    let errors = std::mem::take(&mut m.errors);

    if cfg.trace {
        replay::finish(NAME, &recs, &lane, &CLASSES, &mut layers, &mut notes)?;
    }

    // Set-ups are timed last, as in the served workloads.
    let setup_s = time_setups(cfg.setup_reps, || {
        let star_text = gen::star_text(&mut rng.fork(1));
        let bushy_text = gen::bushy_text(&mut rng.fork(2));
        let fx = build(&star_text, &bushy_text)?;
        cycle(&mut ClientRec::new(0, &CLASSES, false), &fx, None)?;
        drop(fx);
        Ok(())
    })?;

    let mut own: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    own.insert("setup_s", (setup_s, cfg.setup_reps));
    own.insert("ops_per_s", (quiet.ops_per_s, m.ops as usize));
    own.insert("cycle_p50_ms", quiet.cycle);
    own.insert("peak_rss_mb", (peak, 0));
    own.insert("eval_p50_ms", quiet.class("eval"));
    own.insert("rank_p50_ms", quiet.class("rank"));
    own.insert("bushy_serial_p50_ms", quiet.class("bushy_serial"));
    own.insert("bushy_dag_p50_ms", quiet.class("bushy_dag"));
    Ok(Outcome {
        workload: NAME,
        attempted: m.ops,
        failed: m.failed,
        errors,
        end_to_end: end_to_end(&own),
        layers,
        notes,
    })
}
