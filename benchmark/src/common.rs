//! What the four workloads share: run configuration, pinned program
//! options, answer rendering for the correctness gate, the closed-loop
//! window, and the result record.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cq::{parse_query, Query, Var, Vocabulary};
use dichotomy::engine::{Engine, ExecOptions, Strategy};
use dichotomy::ranking::{ranked_answers, RankedAnswer};
use dichotomy::Evaluation;
use pdb::ProbDb;
use serve::{ServeOptions, Server};
use telemetry::metrics::format_f64;

use crate::http::Conn;
use crate::stats::Samples;
use crate::trace::Recorder;

/// The seed the service and every verification engine share: Karp–Luby
/// estimates are deterministic per seed, which is what makes a
/// bit-for-bit gate on the hard class possible.
pub const ENGINE_SEED: u64 = 0xDA151;
pub const DEFAULT_MC_SAMPLES: u64 = 100_000;

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    /// Timed window per workload, seconds, split evenly over the replicas.
    pub seconds: f64,
    /// Independently built fixtures the window is spread over. A fixture's
    /// heap layout shifts every memory-bound median by a few percent for
    /// as long as it lives; pooling samples over several layouts is what
    /// lets two runs of the same code agree.
    pub replicas: usize,
    /// Warm-up before each replica's window, seconds.
    pub warmup: f64,
    /// Cold set-ups timed per run (workloads with a short set-up take
    /// `setup_reps_short`).
    pub setup_reps: usize,
    pub setup_reps_short: usize,
    pub trace: bool,
}

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Every option the service reads from the environment or defaults,
/// pinned: two workers (= cores here), the serial executor, the result
/// cache and observability on as shipped.
pub fn serve_options(mc_samples: u64) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        mc_samples,
        seed: ENGINE_SEED,
        exec: ExecOptions::serial(),
        watch_timeout: Duration::from_secs(5),
        result_cache: true,
        slow_ms: Some(serve::service::DEFAULT_SLOW_MS),
        access_log_path: None,
        observability: true,
        recorder_capacity: serve::service::DEFAULT_RECORDER_CAPACITY,
    }
}

/// A direct engine with the service's evaluation settings and no result
/// cache: the reference every served answer is compared with.
pub fn direct_engine(mc_samples: u64) -> Engine {
    Engine::with_options(mc_samples, ENGINE_SEED, ExecOptions::serial())
}

pub fn load(text: &str) -> Result<ProbDb, Error> {
    let mut voc = Vocabulary::new();
    Ok(pdb::text::load_db(&mut voc, text)?)
}

pub fn start_server(db: ProbDb, mc_samples: u64) -> Result<Server, Error> {
    Ok(Server::start(db, serve_options(mc_samples))?)
}

pub fn parse(db: &ProbDb, text: &str) -> Result<Query, Error> {
    let mut voc = db.voc.clone();
    Ok(parse_query(&mut voc, text)?)
}

pub fn eval_body(query: &str) -> String {
    format!("{{\"query\":{}}}", crate::http::json_string(query))
}

pub fn rank_body(query: &str, top: Option<usize>) -> String {
    let top = top.map(|k| format!(",\"top\":{k}")).unwrap_or_default();
    format!(
        "{{\"query\":{},\"head\":\"x0\"{top}}}",
        crate::http::json_string(query)
    )
}

/// The answer part of an `/eval` response — everything up to the cache
/// flags — as the service renders it. `{:?}` on an `f64` round-trips, so
/// equal text is equal bits.
pub fn eval_answer(ev: &Evaluation) -> String {
    format!(
        "{{\"probability\":{},\"std_error\":{},\"method\":\"{}\"",
        format_f64(ev.probability),
        format_f64(ev.std_error),
        ev.method
    )
}

/// The answer part of an `/eval` response body.
pub fn served_eval_answer(body: &str) -> &str {
    body.find(",\"cache_hit\"").map_or(body, |at| &body[..at])
}

/// The `"answers":[…]` part of a `/rank` response, from a direct call.
pub fn rank_answer(db: &ProbDb, answers: &[RankedAnswer], top: Option<usize>) -> String {
    let rows: Vec<String> = answers
        .iter()
        .take(top.unwrap_or(usize::MAX))
        .map(|a| {
            let tuple: Vec<String> = a
                .tuple
                .iter()
                .map(|v| format!("\"{}\"", telemetry::json::escape(&db.voc.value_name(*v))))
                .collect();
            format!(
                "{{\"tuple\":[{}],\"probability\":{},\"std_error\":{},\"method\":\"{}\"}}",
                tuple.join(","),
                format_f64(a.probability),
                format_f64(a.std_error),
                a.method
            )
        })
        .collect();
    format!("\"answers\":[{}]}}", rows.join(","))
}

/// The `"answers":[…]` part of a `/rank` response body.
pub fn served_rank_answer(body: &str) -> &str {
    body.find("\"answers\":").map_or(body, |at| &body[at..])
}

pub fn direct_eval(engine: &Engine, db: &ProbDb, q: &Query) -> Result<String, Error> {
    Ok(eval_answer(&engine.evaluate(db, q, Strategy::Auto)?))
}

/// Rank on the first variable (`x0`), as the workloads' `/rank` bodies do.
pub fn direct_rank(
    engine: &Engine,
    db: &ProbDb,
    q: &Query,
    top: Option<usize>,
) -> Result<String, Error> {
    let answers = ranked_answers(engine, db, q, &[Var(0)], Strategy::Auto)?;
    Ok(rank_answer(db, &answers, top))
}

/// What one client thread measured over one window.
pub struct ClientRec {
    pub lane: u32,
    pub cycles: Samples,
    /// Per-class latency samples, keyed by class name.
    pub classes: BTreeMap<&'static str, Samples>,
    pub ops: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub elapsed: Duration,
    /// Client-side spans, when this window is traced.
    pub spans: Option<Recorder>,
}

impl ClientRec {
    pub fn new(lane: u32, classes: &[&'static str], traced: bool) -> ClientRec {
        ClientRec {
            lane,
            cycles: Samples::new(),
            classes: classes.iter().map(|c| (*c, Samples::new())).collect(),
            ops: 0,
            failed: 0,
            first_error: None,
            elapsed: Duration::ZERO,
            spans: traced.then(|| Recorder::new(lane)),
        }
    }

    /// Record one finished op: `ok` is the correctness verdict.
    pub fn op(
        &mut self,
        class: &'static str,
        start: Instant,
        end: Instant,
        ok: bool,
        sampled: bool,
    ) {
        self.ops += 1;
        if !ok {
            self.fail(format!("{class}: wrong answer or status"));
        }
        if sampled {
            if let Some(s) = self.classes.get_mut(class) {
                s.push((end - start).as_nanos());
            }
        }
        if let Some(rec) = &mut self.spans {
            rec.client_op(class, start, end);
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    pub fn cycle(&mut self, start: Instant, end: Instant) {
        self.cycles.push((end - start).as_nanos());
        if let Some(rec) = &mut self.spans {
            rec.client_cycle(start, end);
        }
    }
}

/// Run whole cycles until `seconds` have passed; the cycle in flight at
/// the deadline completes. An I/O error ends the window and is counted.
pub fn run_window(
    rec: &mut ClientRec,
    seconds: f64,
    mut cycle: impl FnMut(&mut ClientRec) -> std::io::Result<()>,
) {
    let start = Instant::now();
    loop {
        if let Err(e) = cycle(rec) {
            rec.ops += 1;
            rec.fail(format!("i/o: {e}"));
            break;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    rec.elapsed = start.elapsed();
}

/// One timed round trip with a text check on the response.
pub fn timed_op(
    rec: &mut ClientRec,
    conn: &mut Conn,
    class: &'static str,
    request: &[u8],
    sampled: bool,
    check: impl FnOnce(&str) -> bool,
) -> std::io::Result<()> {
    let start = Instant::now();
    let (status, body) = conn.round_trip(request)?;
    let end = Instant::now();
    let ok = status == 200 && check(body);
    rec.op(class, start, end, ok, sampled);
    Ok(())
}

/// Plan- and result-cache hit counters as `/stats` reports them.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub result_hits: u64,
    pub result_misses: u64,
}

impl CacheStats {
    pub fn read(conn: &mut Conn) -> Result<CacheStats, Error> {
        let (status, body) = conn.round_trip(&crate::http::request("GET", "/stats", ""))?;
        if status != 200 {
            return Err(format!("/stats answered {status}").into());
        }
        let get = |obj: &str, key: &str| {
            crate::http::field_u64(body, obj, key).ok_or_else(|| format!("/stats lacks {obj}{key}"))
        };
        Ok(CacheStats {
            plan_hits: get("\"plan_cache\":", "hits")?,
            plan_misses: get("\"plan_cache\":", "misses")?,
            result_hits: get("\"result_cache\":", "hits")?,
            result_misses: get("\"result_cache\":", "misses")?,
        })
    }

    pub fn plus(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            plan_hits: self.plan_hits + other.plan_hits,
            plan_misses: self.plan_misses + other.plan_misses,
            result_hits: self.result_hits + other.result_hits,
            result_misses: self.result_misses + other.result_misses,
        }
    }

    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            result_hits: self.result_hits - before.result_hits,
            result_misses: self.result_misses - before.result_misses,
        }
    }

    pub fn plan_hit_share(&self) -> f64 {
        share(self.plan_hits, self.plan_hits + self.plan_misses)
    }

    pub fn result_hit_share(&self) -> f64 {
        share(self.result_hits, self.result_hits + self.result_misses)
    }
}

pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind a median (0 for single readings).
    pub samples: usize,
    /// `false`: the workload has no op of this class; the value is its
    /// cycle median, printed only because every run must carry every
    /// end-to-end name (see README, "Metrics a workload does not have").
    pub own: bool,
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report (cache shares, tails, …).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// The fastest of `reps` complete cold set-ups (build → first answered
/// request → teardown). Interference on a shared box only ever adds
/// time, so the minimum repeats where a single stopwatch — or even a
/// median of a few — does not.
pub fn time_setups(reps: usize, mut one: impl FnMut() -> Result<(), Error>) -> Result<f64, Error> {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        one()?;
        best = best.min(start.elapsed().as_secs_f64());
    }
    Ok(best)
}

/// The end-to-end metrics, in report order: `(name, unit, better)`.
/// `BENCHMARK.json` carries the same table, with each metric's bound.
pub const END_TO_END: [(&str, &str, &str); 11] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cycle_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("eval_p50_ms", "ms", "lower"),
    ("rank_p50_ms", "ms", "lower"),
    ("selfjoin_p50_ms", "ms", "lower"),
    ("hard_p50_ms", "ms", "lower"),
    ("apply_p50_ms", "ms", "lower"),
    ("bushy_serial_p50_ms", "ms", "lower"),
    ("bushy_dag_p50_ms", "ms", "lower"),
];

/// All eleven end-to-end metrics from the ones a workload measured
/// (`(value, samples)` by name); the class medians it has no ops for
/// carry its cycle median, marked `own: false`.
pub fn end_to_end(own: &BTreeMap<&'static str, (f64, usize)>) -> Vec<Metric> {
    let (cycle_ms, cycles) = own["cycle_p50_ms"];
    END_TO_END
        .iter()
        .map(|(name, ..)| match own.get(name) {
            Some(&(value, samples)) => Metric {
                name,
                value,
                samples,
                own: true,
            },
            None => Metric {
                name,
                value: cycle_ms,
                samples: cycles,
                own: false,
            },
        })
        .collect()
}

/// What the gated metrics are read from: every replica reduced to its
/// own medians and rate, and of those the best — lowest median, highest
/// rate — per metric. Interference on a shared box comes in bursts of a
/// few seconds that add 30–45 % to everything they touch; a median pooled
/// over the whole window follows them, the quietest replica does not.
pub struct Quietest {
    /// Ops ÷ wall seconds (summed over client threads) of the fastest
    /// replica.
    pub ops_per_s: f64,
    /// `(lowest replica median ms, samples over all replicas)`.
    pub cycle: (f64, usize),
    classes: BTreeMap<&'static str, (f64, usize)>,
    /// Each replica's cycle median, for the report: how far apart they
    /// sit is how much layout and interference moved this run.
    pub note: String,
}

impl Quietest {
    pub fn of(replicas: &[Vec<ClientRec>]) -> Quietest {
        let mut q = Quietest {
            ops_per_s: 0.0,
            cycle: (f64::INFINITY, 0),
            classes: BTreeMap::new(),
            note: String::new(),
        };
        let mut cycle_medians = Vec::new();
        for recs in replicas {
            let mut m = Merged::of(recs);
            q.ops_per_s = q.ops_per_s.max(m.ops_per_s);
            let cycle = m.cycles.median_ms();
            cycle_medians.push(format!("{cycle:.4}"));
            q.cycle = (q.cycle.0.min(cycle), q.cycle.1 + m.cycles.len());
            for (class, samples) in &mut m.classes {
                if samples.len() > 0 {
                    let e = q.classes.entry(class).or_insert((f64::INFINITY, 0));
                    *e = (e.0.min(samples.median_ms()), e.1 + samples.len());
                }
            }
        }
        q.note = format!("replica cycle_p50_ms: {}", cycle_medians.join(" "));
        q
    }

    /// `(median ms of the quietest replica, samples over all replicas)`.
    pub fn class(&self, class: &str) -> (f64, usize) {
        self.classes.get(class).copied().unwrap_or((0.0, 0))
    }
}

/// Sum what the client threads of one window measured.
pub struct Merged {
    pub cycles: Samples,
    pub classes: BTreeMap<&'static str, Samples>,
    pub ops: u64,
    pub failed: u64,
    /// Sum of the per-thread rates.
    pub ops_per_s: f64,
    pub errors: Vec<String>,
}

impl Merged {
    pub fn of<'a>(recs: impl IntoIterator<Item = &'a ClientRec>) -> Merged {
        let mut m = Merged {
            cycles: Samples::new(),
            classes: BTreeMap::new(),
            ops: 0,
            failed: 0,
            ops_per_s: 0.0,
            errors: Vec::new(),
        };
        // Per lane: ops over the lane's own elapsed time, legs pooled.
        let mut lanes: BTreeMap<u32, (u64, f64)> = BTreeMap::new();
        for rec in recs {
            let lane = lanes.entry(rec.lane).or_default();
            lane.0 += rec.ops;
            lane.1 += rec.elapsed.as_secs_f64();
            m.cycles.absorb(&rec.cycles);
            for (class, s) in &rec.classes {
                m.classes
                    .entry(class)
                    .or_insert_with(Samples::new)
                    .absorb(s);
            }
            m.ops += rec.ops;
            m.failed += rec.failed;
            m.errors.extend(rec.first_error.clone());
        }
        m.ops_per_s = lanes
            .values()
            .map(|(ops, s)| *ops as f64 / s.max(1e-9))
            .sum();
        m
    }

    /// `(median ms, samples)` of one class.
    pub fn class(&mut self, class: &str) -> (f64, usize) {
        match self.classes.get_mut(class) {
            Some(s) => (s.median_ms(), s.len()),
            None => (0.0, 0),
        }
    }
}
