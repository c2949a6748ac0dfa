//! One suite run, every configuration. The engine, ranked answers,
//! incremental views and the query service are driven under an explicit
//! matrix of `(threads, shards, trace, result cache, slow threshold)`,
//! and every answer must be bit-for-bit what the configuration's *plain*
//! twin (same executor shape, tracing, result cache and slow capture off)
//! returns — and, for every method that does not sample, what the serial
//! baseline returns. Sampling estimates are deterministic per
//! `(seed, threads)`, so Karp–Luby answers are compared at equal thread
//! counts only.
//!
//! The library reads no environment variable, so a configuration reaches
//! a test only through options spelled out here: `ExecOptions` for the
//! executor shape (with the database laid out shard-resident whenever the
//! fan-out is above 1, as the CLI does), `Engine::with_result_cache`,
//! `telemetry::set_enabled`, and `ServeOptions::{result_cache, slow_ms}`.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::Duration;

use common::{random_batch, random_hierarchical_query, seed_db};
use pdb::generators::{random_db_for_query, RandomDbOptions};
use probdb::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::service::DEFAULT_SLOW_MS;
use telemetry::json::{parse, Json};

const SEED: u64 = 0xC0F1;
const MC_SAMPLES: u64 = 2_000;

#[derive(Clone, Copy, Debug)]
struct Config {
    threads: usize,
    shards: usize,
    trace: bool,
    result_cache: bool,
    slow_ms: u64,
}

const BASELINE: Config = Config {
    threads: 1,
    shards: 1,
    trace: false,
    result_cache: false,
    slow_ms: DEFAULT_SLOW_MS,
};

/// Every configuration the suite runs under: the baseline, one row per
/// knob, and every knob at once.
const MATRIX: [Config; 7] = [
    BASELINE,
    // The DAG executor at fan-out 1.
    Config {
        threads: 4,
        ..BASELINE
    },
    // A non-power-of-two resident layout, traced.
    Config {
        threads: 4,
        shards: 3,
        trace: true,
        ..BASELINE
    },
    // Every repeated read replayed from the result cache.
    Config {
        result_cache: true,
        ..BASELINE
    },
    // Every served request takes the slow-capture path.
    Config {
        slow_ms: 0,
        ..BASELINE
    },
    // The widest refresh and sampling fan-out.
    Config {
        threads: 8,
        ..BASELINE
    },
    Config {
        threads: 2,
        shards: 4,
        trace: true,
        result_cache: true,
        slow_ms: 0,
    },
];

/// Traced runs hold this exclusively and untraced runs share it, so the
/// process-wide tracing flag is what the running configuration says.
static TRACING: RwLock<()> = RwLock::new(());

impl Config {
    fn exec(self) -> ExecOptions {
        ExecOptions::with_tuning(self.threads, self.shards)
    }

    fn engine(self) -> Engine {
        let engine = Engine::with_options(MC_SAMPLES, SEED, self.exec());
        if self.result_cache {
            engine.with_result_cache()
        } else {
            engine
        }
    }

    /// `db` laid out the way the CLI lays it out for this fan-out.
    fn layout(self, db: &ProbDb) -> ProbDb {
        let mut db = db.clone();
        if self.shards > 1 {
            db.set_shard_layout(self.shards);
        }
        db
    }

    fn serve_options(self) -> ServeOptions {
        ServeOptions {
            workers: 2,
            mc_samples: MC_SAMPLES,
            seed: SEED,
            exec: self.exec(),
            watch_timeout: Duration::from_secs(2),
            result_cache: self.result_cache,
            slow_ms: Some(self.slow_ms),
            ..ServeOptions::default()
        }
    }

    /// The same executor shape with every observational knob off.
    fn plain(self) -> Config {
        Config {
            trace: false,
            result_cache: false,
            slow_ms: DEFAULT_SLOW_MS,
            ..self
        }
    }

    /// Run `f` with process-wide tracing as this configuration says; a
    /// traced run must have recorded spans.
    fn run<T>(self, f: impl FnOnce() -> T) -> T {
        if !self.trace {
            let _shared = TRACING.read().unwrap_or_else(|e| e.into_inner());
            return f();
        }
        let _exclusive = TRACING.write().unwrap_or_else(|e| e.into_inner());
        telemetry::clear_spans();
        telemetry::set_enabled(true);
        let out = f();
        telemetry::set_enabled(false);
        assert!(
            !telemetry::take_spans().is_empty(),
            "{self:?}: tracing was on but nothing was recorded"
        );
        out
    }
}

fn assert_same_eval(got: &Evaluation, want: &Evaluation, ctx: &str) {
    assert_eq!(got.method, want.method, "{ctx}: method");
    assert_eq!(
        got.probability.to_bits(),
        want.probability.to_bits(),
        "{ctx}: probability {} vs {}",
        got.probability,
        want.probability
    );
    assert_eq!(
        got.std_error.to_bits(),
        want.std_error.to_bits(),
        "{ctx}: std_error"
    );
}

fn assert_same_ranked(got: &[RankedAnswer], want: &[RankedAnswer], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: answer count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.tuple, w.tuple, "{ctx}: answer {i} tuple");
        assert_eq!(g.method, w.method, "{ctx}: answer {i} method");
        assert_eq!(
            g.probability.to_bits(),
            w.probability.to_bits(),
            "{ctx}: answer {i} probability {} vs {}",
            g.probability,
            w.probability
        );
    }
}

fn sampled(ranked: &[RankedAnswer]) -> bool {
    ranked.iter().any(|a| a.method == Method::KarpLuby)
}

/// One query per plan the planner emits — extensional (with a constant,
/// a predicate, a three-way join), the §3.2 safe plan, the Eq. 3
/// recurrence (a negated self-join, answered by its fallback), Karp–Luby
/// — on a small random instance.
const QUERIES: &[&str] = &[
    "R(x), S(x,y)",
    "R(x), S(x,y), U(x,y,z)",
    "R(1), S(1,y)",
    "S(x,y), x < y",
    "R(x), S(x,y), S(x2,y2), T(x2)",
    "R(x), not R(y)",
    "R(x), S(x,y), T(y)",
    "R(x,y), R(y,z)",
];

fn instance(text: &str, seed: u64) -> (ProbDb, Query) {
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, text).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = RandomDbOptions {
        domain: 3,
        tuples_per_relation: 4,
        prob_range: (0.05, 0.95),
    };
    let db = random_db_for_query(&q, &voc, opts, &mut rng);
    (db, q)
}

#[test]
fn every_plan_kind_answers_alike_under_every_configuration() {
    let strategies = [
        Strategy::Auto,
        Strategy::ExactLineage,
        Strategy::MonteCarlo { samples: 500 },
    ];
    let mut methods = Vec::new();
    for (qi, text) in QUERIES.iter().enumerate() {
        let (db, q) = instance(text, qi as u64);
        let head = [Var(0)];
        for strategy in strategies {
            let read = |engine: &Engine, db: &ProbDb| {
                let ev = engine.evaluate(db, &q, strategy).unwrap();
                (ev, ranked_answers(engine, db, &q, &head, strategy).unwrap())
            };
            let (serial, serial_ranked) = BASELINE.run(|| read(&BASELINE.engine(), &db));
            if !methods.contains(&serial.method) {
                methods.push(serial.method);
            }
            for cfg in MATRIX {
                let ctx = format!("{text} {strategy:?} {cfg:?}");
                let db = cfg.layout(&db);
                let (want, want_ranked) = cfg.plain().run(|| read(&cfg.plain().engine(), &db));
                if want.method != Method::KarpLuby {
                    assert_same_eval(&want, &serial, &format!("{ctx} vs serial"));
                }
                if !sampled(&want_ranked) {
                    assert_same_ranked(&want_ranked, &serial_ranked, &format!("{ctx} vs serial"));
                }
                let (first, ranked, repeat) = cfg.run(|| {
                    let engine = cfg.engine();
                    let (first, ranked) = read(&engine, &db);
                    (first, ranked, engine.evaluate(&db, &q, strategy).unwrap())
                });
                assert_same_eval(&first, &want, &ctx);
                assert_same_eval(&repeat, &want, &format!("{ctx} repeat"));
                assert!(!first.result_cache_hit, "{ctx}: a first read hit");
                assert_eq!(repeat.result_cache_hit, cfg.result_cache, "{ctx}: repeat");
                assert_same_ranked(&ranked, &want_ranked, &format!("{ctx} ranked"));
            }
        }
    }
    for method in [
        Method::Extensional,
        Method::SafePlan,
        Method::ExactLineage,
        Method::KarpLuby,
    ] {
        assert!(methods.contains(&method), "no query planned as {method}");
    }
}

/// A star large enough that every scan reaches `SHARD_MIN_ROWS`, so the
/// cost model keeps the requested fan-out.
fn star(rows: u64) -> (ProbDb, Vocabulary) {
    let mut voc = Vocabulary::new();
    parse_query(&mut voc, "R(x), S(x, y), T(y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let t = voc.find_relation("T").unwrap();
    let mut db = ProbDb::new(voc.clone());
    let mut batch = DeltaBatch::new();
    for i in 0..rows {
        batch.insert(r, vec![Value(i)], 0.05 + 0.9 * ((i % 17) as f64 / 17.0));
        for j in 0..2 {
            let y = 1_000 + 2 * i + j;
            batch.insert(
                s,
                vec![Value(i), Value(y)],
                0.1 + 0.8 * ((y % 7) as f64 / 7.0),
            );
            if y % 5 == 0 {
                batch.insert(t, vec![Value(y)], 0.3);
            }
        }
    }
    db.apply(&batch);
    (db, voc)
}

#[test]
fn sharded_reads_answer_alike_under_every_configuration() {
    let (db, mut voc) = star(300);
    let q = parse_query(&mut voc, "R(x), S(x, y)").unwrap();
    let head = [Var(0)];
    let read = |engine: &Engine, db: &ProbDb| {
        let ev = engine.evaluate(db, &q, Strategy::Auto).unwrap();
        (
            ev,
            ranked_answers(engine, db, &q, &head, Strategy::Auto).unwrap(),
        )
    };
    let (serial, serial_ranked) = BASELINE.run(|| read(&BASELINE.engine(), &db));
    for cfg in MATRIX {
        let ctx = format!("{cfg:?}");
        let db = cfg.layout(&db);
        let (ev, ranked) = cfg.run(|| read(&cfg.engine(), &db));
        assert_same_eval(&ev, &serial, &ctx);
        assert_same_ranked(&ranked, &serial_ranked, &ctx);
        let fanout = ev.sharding.as_ref().map_or(1, |s| s.shards);
        assert_eq!(fanout, cfg.shards, "{ctx}: shard fan-out");
        if cfg.shards > 1 {
            let ops = ev.extensional.expect("extensional counters");
            assert_eq!(ops.global_index_probes, 0, "{ctx}: resident scans");
        }
    }
}

#[test]
fn views_refresh_alike_under_every_configuration() {
    let mut rng = StdRng::seed_from_u64(0x71E5);
    for case in 0..4 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let start = seed_db(&q, &voc, &mut rng);
        let mut db = start.clone();
        let (batches, cold): (Vec<DeltaBatch>, Vec<Evaluation>) = BASELINE.run(|| {
            (0..4)
                .map(|_| {
                    let batch = random_batch(&q, &db, &mut rng);
                    db.apply(&batch);
                    let cold = BASELINE.engine().evaluate(&db, &q, Strategy::Auto).unwrap();
                    (batch, cold)
                })
                .unzip()
        });
        for cfg in MATRIX {
            let ctx = format!("case {case} {} {cfg:?}", q.display(&voc));
            let mut db = cfg.layout(&start);
            cfg.run(|| {
                let engine = cfg.engine();
                let view = engine.subscribe(&db, &q).unwrap();
                assert!(view.is_incremental(), "{ctx}");
                for (round, (batch, cold)) in batches.iter().zip(&cold).enumerate() {
                    let ctx = format!("{ctx} round {round}");
                    db.apply(batch);
                    let reading = view.read(&db).unwrap();
                    assert_eq!(reading.version, db.version(), "{ctx}");
                    assert_same_eval(&reading.evaluation, cold, &ctx);
                    let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
                    assert_same_eval(&ev, cold, &format!("{ctx} evaluate"));
                }
            });
        }
    }
}

/// Readers sharing one engine and one subscription across epoch
/// snapshots, while a writer publishes: every read is bit-for-bit the
/// serial replay of the epoch it was handed.
#[test]
fn concurrent_readers_answer_from_their_epoch_under_every_configuration() {
    let mut rng = StdRng::seed_from_u64(0xE90C);
    let (start, mut voc) = star(300);
    let q = parse_query(&mut voc, "R(x), S(x, y)").unwrap();
    let (batches, oracle) = BASELINE.run(|| {
        let engine = BASELINE.engine();
        let bits = |db: &ProbDb| prob_of(&engine, db, &q);
        let mut db = start.clone();
        let mut oracle = HashMap::from([(db.version(), bits(&db))]);
        let batches: Vec<DeltaBatch> = (0..12)
            .map(|_| {
                let batch = random_batch(&q, &db, &mut rng);
                db.apply(&batch);
                oracle.insert(db.version(), bits(&db));
                batch
            })
            .collect();
        (batches, oracle)
    });
    for cfg in MATRIX {
        cfg.run(|| {
            let store = EpochStore::new(cfg.layout(&start));
            let engine = cfg.engine();
            let view = engine.subscribe(&store.snapshot(), &q).unwrap();
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let readers: Vec<_> = (0..2)
                    .map(|_| {
                        let mut reader = store.reader();
                        let (engine, view, q, oracle, done) = (&engine, &view, &q, &oracle, &done);
                        // At least one read each, the last one after the
                        // final publish.
                        scope.spawn(move || loop {
                            let last = done.load(Ordering::Acquire);
                            let snap = reader.snapshot();
                            let version = snap.version();
                            let want = oracle[&version];
                            let ctx = format!("{cfg:?} version {version}");
                            assert_eq!(prob_of(engine, &snap, q), want, "{ctx} evaluate");
                            let reading = view.read(&snap).unwrap();
                            assert_eq!(reading.version, version, "{ctx}");
                            let got = reading.evaluation.probability.to_bits();
                            assert_eq!(got, want, "{ctx} view");
                            if last {
                                break;
                            }
                        })
                    })
                    .collect();
                for batch in &batches {
                    store.apply(batch);
                    std::thread::sleep(Duration::from_micros(300));
                }
                done.store(true, Ordering::Release);
                for reader in readers {
                    reader.join().unwrap();
                }
            });
        });
    }
}

fn doc(resp: &HttpResponse, ctx: &str) -> Json {
    assert_eq!(resp.status, 200, "{ctx}: {}", resp.body);
    parse(&resp.body).unwrap()
}

fn prob_bits(doc: &Json) -> u64 {
    doc.get("probability")
        .and_then(Json::as_f64)
        .unwrap()
        .to_bits()
}

/// The probabilities of a `/rank` response, in rank order.
fn ranked_bits(doc: &Json) -> Vec<u64> {
    let answers = doc.get("answers").and_then(Json::as_arr).unwrap();
    answers.iter().map(prob_bits).collect()
}

#[test]
fn served_answers_alike_under_every_configuration() {
    const SAFE: &str = "R(x), S(x, y)";
    const HARD: &str = "R(x), S(x, y), T(y)";
    const SCRIPT: &str = "+ R(900) @ 0.9\n+ S(900, 2801) @ 0.6\n~ R(0) @ 0.5\n- S(1, 1002)";
    let (db, mut voc) = star(300);
    let safe = parse_query(&mut voc, SAFE).unwrap();
    let hard = parse_query(&mut voc, HARD).unwrap();
    let mut after = db.clone();
    for batch in pdb::parse_delta_batches(&mut after.voc, SCRIPT).unwrap() {
        after.apply(&batch);
    }
    let body = |q: &str| format!("{{\"query\":\"{q}\"}}");
    let rank_body = format!("{{\"query\":\"{SAFE}\",\"head\":\"x0\",\"top\":5}}");
    let apply_body = format!("{{\"deltas\":{:?}}}", SCRIPT);
    let watch_body = format!("{{\"query\":\"{SAFE}\",\"updates\":1}}");

    for cfg in MATRIX {
        let ctx = format!("{cfg:?}");
        // What the service must serve, before and after the script: direct
        // reads on the plain twin.
        let want = cfg.plain().run(|| {
            let plain = cfg.plain().engine();
            [&db, &after].map(|db| {
                let ranked = ranked_answers(&plain, db, &safe, &[Var(0)], Strategy::Auto).unwrap();
                let top: Vec<u64> = ranked
                    .iter()
                    .take(5)
                    .map(|a| a.probability.to_bits())
                    .collect();
                (prob_of(&plain, db, &safe), prob_of(&plain, db, &hard), top)
            })
        });
        cfg.run(|| {
            let server = Server::start(cfg.layout(&db), cfg.serve_options()).unwrap();
            let mut client = HttpClient::connect(server.addr()).unwrap();
            for (state, (safe_bits, hard_bits, top)) in ["before", "after"].into_iter().zip(&want) {
                if state == "after" {
                    doc(&client.post("/apply", &apply_body).unwrap(), &ctx);
                }
                for (text, bits) in [(SAFE, safe_bits), (HARD, hard_bits)] {
                    for attempt in 0..2 {
                        let ctx = format!("{ctx} {state} {text} #{attempt}");
                        let got = doc(&client.post("/eval", &body(text)).unwrap(), &ctx);
                        assert_eq!(prob_bits(&got), *bits, "{ctx}");
                        let hit = attempt == 1 && cfg.result_cache;
                        assert_eq!(got.get("result_cache_hit"), Some(&Json::Bool(hit)), "{ctx}");
                    }
                }
                let ranked = doc(&client.post("/rank", &rank_body).unwrap(), &ctx);
                assert_eq!(&ranked_bits(&ranked), top, "{ctx} {state} rank");
            }
            let watch = client.post("/watch", &watch_body).unwrap();
            assert_eq!(watch.status, 200, "{ctx}: {}", watch.body);
            let reading = parse(watch.body.lines().next().unwrap()).unwrap();
            assert_eq!(prob_bits(&reading), want[1].0, "{ctx} watch");

            let stats = doc(&client.get("/stats").unwrap(), &ctx);
            let enabled = stats.get("result_cache").and_then(|rc| rc.get("enabled"));
            assert_eq!(enabled, Some(&Json::Bool(cfg.result_cache)), "{ctx}");
            assert_eq!(server.slow_ms(), cfg.slow_ms, "{ctx}");
            assert_access_log(&server, cfg, &ctx);
        });
    }
}

fn prob_of(engine: &Engine, db: &ProbDb, q: &Query) -> u64 {
    let ev = engine.evaluate(db, q, Strategy::Auto).unwrap();
    ev.probability.to_bits()
}

/// Every eval/rank line of the access log parses; slow ones carry the
/// plan summary, and at threshold 0 every one is slow.
fn assert_access_log(server: &Server, cfg: Config, ctx: &str) {
    // 4 evals and a rank per state; lines land just after the response.
    let reads = |tail: &[String]| {
        tail.iter()
            .map(|l| parse(l).unwrap())
            .filter(|d| {
                let ep = d.get("endpoint").and_then(Json::as_str);
                matches!(ep, Some("eval" | "rank"))
            })
            .collect::<Vec<_>>()
    };
    let mut entries = reads(&server.access_log_tail());
    for _ in 0..50 {
        if entries.len() >= 10 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        entries = reads(&server.access_log_tail());
    }
    assert_eq!(entries.len(), 10, "{ctx}: access-log reads");
    for entry in &entries {
        let slow = entry.get("slow") == Some(&Json::Bool(true));
        assert!(
            slow || cfg.slow_ms > 0,
            "{ctx}: fast entry at 0 ms {entry:?}"
        );
        assert_eq!(entry.get("plan").is_some(), slow, "{ctx}: {entry:?}");
    }
}
