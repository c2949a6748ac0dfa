//! `serve_churn`: the write path. One client alternates a 128-op `/apply`
//! with reads of the full star, while a second connection holds a
//! `/watch` stream on the same query. Sequential on purpose: with no
//! background writer the schedule — and every count — repeats exactly.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::time::Instant;

use incremental::{IncrementalView, RefreshOptions};
use pdb::{EpochStore, ProbDb};
use serve::Server;

use crate::common::*;
use crate::gen::{self, DeltaScripts, Rng, STAR_QUERY};
use crate::http::{field, field_u64, json_string, post_json, Conn};
use crate::replay::{self, CacheMode, ExecKind, ServeReplay};
use crate::stats::peak_rss_mb;
use crate::trace::Recorder;

pub const NAME: &str = "serve_churn";
const CLASSES: [&str; 4] = ["apply", "watch", "eval", "rank"];
const RANK_TOP: usize = 10;
/// Readings a `/watch` stream delivers before the service ends it.
const WATCH_UPDATES: u64 = 1000;
/// Identical reads after the first read of a version (result-cache hits).
const REPEATS: usize = 4;

/// Connection A carries requests, connection B the watch stream: with two
/// workers, that is every worker the service has.
struct Fixture {
    requests: Conn,
    watch: Conn,
    /// Readings delivered on the current stream.
    delivered: u64,
    server: Server,
}

fn open_watch(fx: &mut Fixture) -> Result<(), Error> {
    let body = format!(
        "{{\"query\":{},\"updates\":{WATCH_UPDATES},\"timeout_ms\":600000}}",
        json_string(STAR_QUERY)
    );
    fx.watch.send(&post_json("/watch", &body))?;
    let status = fx.watch.recv_stream_head()?;
    if status != 200 || fx.watch.recv_chunk()?.is_none() {
        return Err(format!("/watch did not start a stream (status {status})").into());
    }
    fx.delivered = 1;
    Ok(())
}

fn build(text: &str) -> Result<Fixture, Error> {
    let server = start_server(load(text)?, DEFAULT_MC_SAMPLES)?;
    let mut fx = Fixture {
        requests: Conn::connect(server.addr())?,
        watch: Conn::connect(server.addr())?,
        delivered: 0,
        server,
    };
    open_watch(&mut fx)?;
    Ok(fx)
}

/// What one cycle was served, kept as text for the replay on the mirror.
struct Served {
    script: String,
    version: u64,
    watch_probability: String,
    eval: String,
    rank: String,
}

struct Requests {
    eval: Vec<u8>,
    rank: Vec<u8>,
}

fn cycle(
    rec: &mut ClientRec,
    fx: &mut Fixture,
    reqs: &Requests,
    scripts: &mut DeltaScripts,
    served: &mut Vec<Served>,
) -> std::io::Result<()> {
    // Outside every timer: a spent stream is re-opened, the script drawn
    // and rendered.
    if fx.delivered == WATCH_UPDATES {
        let ended = fx.watch.recv_chunk()?.is_none();
        if !ended || open_watch(fx).is_err() {
            return Err(std::io::Error::other("could not re-open the /watch stream"));
        }
    }
    let script = scripts.next_script();
    let apply = post_json(
        "/apply",
        &format!("{{\"deltas\":{}}}", json_string(&script)),
    );
    let mut s = Served {
        script,
        version: 0,
        watch_probability: String::new(),
        eval: String::new(),
        rank: String::new(),
    };

    let start = Instant::now();
    timed_op(rec, &mut fx.requests, "apply", &apply, true, |body| {
        s.version = field_u64(body, "", "version").unwrap_or(0);
        s.version > 0
    })?;
    let applied = Instant::now();
    // The watcher's reading for that version. Its "latency" is the lag
    // behind the `/apply` response (`serve.watch_lag_us`).
    let chunk = fx.watch.recv_chunk()?;
    let seen = Instant::now();
    fx.delivered += 1;
    let ok = chunk.is_some_and(|c| {
        s.watch_probability = field(c, "", "probability").unwrap_or("").to_string();
        field_u64(c, "", "version") == Some(s.version)
    });
    rec.op("watch", applied, seen, ok, true);

    // First read after the write: plan hit, result miss, 100k tuples.
    timed_op(rec, &mut fx.requests, "eval", &reqs.eval, true, |body| {
        s.eval = served_eval_answer(body).to_string();
        field_u64(body, "", "version") == Some(s.version)
    })?;
    for _ in 0..REPEATS {
        timed_op(rec, &mut fx.requests, "eval", &reqs.eval, false, |body| {
            served_eval_answer(body) == s.eval && body.contains("\"result_cache_hit\":true")
        })?;
    }
    timed_op(rec, &mut fx.requests, "rank", &reqs.rank, true, |body| {
        s.rank = served_rank_answer(body).to_string();
        field_u64(body, "", "version") == Some(s.version)
    })?;
    rec.cycle(start, Instant::now());
    served.push(s);
    Ok(())
}

/// Apply `script` the way the service's `/apply` does.
fn apply_script(db: &mut ProbDb, script: &str) -> Result<u64, Error> {
    let mut voc = db.voc.clone();
    let batches = pdb::text::parse_delta_batches(&mut voc, script)?;
    db.voc = voc;
    let mut version = db.version();
    for batch in &batches {
        version = db.apply(batch);
    }
    Ok(version)
}

/// Replay every delta script on a private mirror loaded from the same
/// text and compare each cycle's served answers — the watcher's reading,
/// the first read, the ranking — with direct engine calls at that version.
fn verify(text: &str, served: &[Served]) -> Result<(u64, Option<String>), Error> {
    let mut mirror = load(text)?;
    let engine = direct_engine(DEFAULT_MC_SAMPLES);
    let star = parse(&mirror, STAR_QUERY)?;
    let (mut bad, mut first) = (0, None);
    for s in served {
        let version = apply_script(&mut mirror, &s.script)?;
        let ev = engine.evaluate(&mirror, &star, dichotomy::engine::Strategy::Auto)?;
        let rank = direct_rank(&engine, &mirror, &star, Some(RANK_TOP))?;
        let watch = telemetry::metrics::format_f64(ev.probability);
        if version != s.version
            || eval_answer(&ev) != s.eval
            || rank != s.rank
            || watch != s.watch_probability
        {
            bad += 1;
            first.get_or_insert(format!(
                "version {version}: served (v{}, eval {}, watch {}) but the mirror gives (eval {}, watch {watch}); rank equal: {}",
                s.version,
                s.eval,
                s.watch_probability,
                eval_answer(&ev),
                rank == s.rank
            ));
        }
    }
    Ok((bad, first))
}

/// Replay the write path stage by stage on private copies: the scripts
/// the run would send next go through delta parse, apply, clone, publish
/// and view refresh, one public call each.
fn replay_writes(
    lane: &mut Recorder,
    base: &ProbDb,
    scripts: &mut DeltaScripts,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), Error> {
    let star = parse(base, STAR_QUERY)?;
    let plan = safeplan::optimize(&safeplan::build_plan(&star)?);
    let start = Instant::now();
    let mut view = IncrementalView::new(base, &plan).map_err(|e| format!("{e:?}"))?;
    layers.insert("incremental.build_ms", start.elapsed().as_secs_f64() * 1e3);
    let store = EpochStore::new(base.clone());
    let mut mirror = base.clone();
    let mut sink = Vec::with_capacity(1 << 12);
    let mut avoided = (0u64, 0u64);
    for _ in 0..24 {
        let script = scripts.next_script();
        let wire = post_json(
            "/apply",
            &format!("{{\"deltas\":{}}}", json_string(&script)),
        );
        lane.replay("apply", |r| -> Result<(), Error> {
            let (req, _) = r.stage("serve.http_read_us", || {
                serve::http::read_request(&mut BufReader::new(&wire[..]), || false)
            });
            let req = req?.ok_or("empty request")?;
            let (doc, _) = r.stage("telemetry.json_parse_us", || {
                telemetry::json::parse(&req.body)
            });
            let doc = doc?;
            let text = doc
                .get("deltas")
                .and_then(|j| j.as_str())
                .ok_or("no deltas")?;
            let (batches, _) = r.stage("pdb.delta_parse_us", || {
                let mut voc = mirror.voc.clone();
                pdb::text::parse_delta_batches(&mut voc, text)
            });
            let batch = batches?.into_iter().next().ok_or("empty script")?;
            // What the writer does under its lock: apply to the master,
            // clone it, swap the pointer — then the same two calls on
            // their own, so the table can split the publish.
            let (_, publish) = r.stage("pdb.publish_ms", || store.apply(&batch));
            r.child(publish, "pdb.apply_us", || mirror.apply(&batch));
            let (copy, _) = r.child(publish, "pdb.clone_ms", || mirror.clone());
            drop(copy);
            sink.clear();
            let body = format!(
                "{{\"version\":{},\"batches\":1,\"ops\":{},\"publish_ns\":0}}",
                mirror.version(),
                batch.len()
            );
            r.stage("serve.http_write_us", || {
                serve::http::respond_json(&mut sink, 200, &body)
            })
            .0?;
            Ok(())
        })?;
        lane.replay("watch", |r| {
            let (counters, _) = r.stage("incremental.refresh_us", || {
                view.refresh(&mirror, RefreshOptions::serial())
            });
            avoided.0 += counters.rows_avoided;
            avoided.1 += counters.rows_avoided + counters.rows_retouched;
        });
    }
    layers.insert("incremental.avoided_share", share(avoided.0, avoided.1));
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome, Error> {
    let rng = Rng::new(cfg.seed);
    let text = gen::star_text(&mut rng.fork(1));
    let mut layers = BTreeMap::new();
    let mut notes = Vec::new();
    if cfg.trace {
        replay::setup_layers(&[(&text, 1)], &mut layers)?;
    }
    let reqs = Requests {
        eval: post_json("/eval", &eval_body(STAR_QUERY)),
        rank: post_json("/rank", &rank_body(STAR_QUERY, Some(RANK_TOP))),
    };

    // Every replica starts from the same text, so each has its own script
    // stream and its own list of served answers to replay on a mirror.
    let mut served: Vec<Vec<Served>> = Vec::new();
    let mut replicas: Vec<Vec<ClientRec>> = Vec::new();
    let mut delta = CacheStats::default();
    let mut peak = 0.0;
    let mut lane = Recorder::new(1);
    let share = cfg.seconds / cfg.replicas as f64;
    for replica in 0..cfg.replicas {
        let mut fx = build(&text)?;
        let mut scripts = DeltaScripts::new(&rng.fork(replica as u64));
        let mut answers: Vec<Served> = Vec::new();
        let mut window = |fx: &mut Fixture, seconds: f64, traced: bool| {
            let mut rec = ClientRec::new(0, &CLASSES, traced);
            run_window(&mut rec, seconds, |rec| {
                cycle(rec, fx, &reqs, &mut scripts, &mut answers)
            });
            rec
        };
        window(&mut fx, cfg.warmup, false);
        let before = CacheStats::read(&mut fx.requests)?;
        let recs = if cfg.trace {
            vec![
                window(&mut fx, share / 2.0, false),
                window(&mut fx, share / 2.0, true),
            ]
        } else {
            vec![window(&mut fx, share, false)]
        };
        delta = delta.plus(&CacheStats::read(&mut fx.requests)?.since(&before));
        if replica == 0 {
            peak = peak_rss_mb();
        }
        if cfg.trace && replica + 1 == cfg.replicas {
            layers.insert("serve.floor_us", replay::health_floor_us(&mut fx.requests)?);
            let mut ctx = ServeReplay::new(&fx.server, DEFAULT_MC_SAMPLES);
            for _ in 0..24 {
                ctx.eval(
                    &mut lane,
                    "eval",
                    &eval_body(STAR_QUERY),
                    ExecKind::StarSerial,
                    CacheMode::PlanOnly,
                )?;
                ctx.rank(
                    &mut lane,
                    "rank",
                    &rank_body(STAR_QUERY, Some(RANK_TOP)),
                    Some(RANK_TOP),
                    true,
                )?;
            }
            drop(ctx);
            replay_writes(
                &mut lane,
                &load(&text)?,
                &mut DeltaScripts::new(&rng),
                &mut layers,
            )?;
        }
        drop(fx);
        replicas.push(recs);
        served.push(answers);
    }

    let quiet = Quietest::of(&replicas);
    notes.push(quiet.note.clone());
    let recs: Vec<ClientRec> = replicas.into_iter().flatten().collect();
    let mut m = Merged::of(&recs);
    let mut errors = std::mem::take(&mut m.errors);
    let lag_us = m.class("watch").0 * 1e3;
    notes.push(format!(
        "core.plan_hit_share {:.4}  core.result_hit_share {:.4} ({} result hits, {} misses)  serve.watch_lag_us {:.1}",
        delta.plan_hit_share(),
        delta.result_hit_share(),
        delta.result_hits,
        delta.result_misses,
        lag_us
    ));
    // Four of every five evals repeat the read before them.
    let cycles = m.cycles.len() as u64;
    if delta.result_hits != cycles * REPEATS as u64 || delta.result_misses != cycles {
        errors.push(format!(
            "cache use changed: {} result hits / {} misses over {cycles} cycles",
            delta.result_hits, delta.result_misses
        ));
    }

    if cfg.trace {
        layers.insert("core.plan_hit_share", delta.plan_hit_share());
        layers.insert("core.result_hit_share", delta.result_hit_share());
        layers.insert("serve.watch_lag_us", lag_us);
        let classes = ["eval", "apply", "rank", "watch"];
        replay::finish(NAME, &recs, &lane, &classes, &mut layers, &mut notes)?;
    }

    let start = Instant::now();
    let (mut wrong, mut replayed) = (0, 0);
    for answers in &served {
        let (bad, first_wrong) = verify(&text, answers)?;
        wrong += bad;
        replayed += answers.len();
        errors.extend(first_wrong);
    }
    let verify_s = start.elapsed().as_secs_f64();
    layers.insert("client.verify_s", verify_s);
    notes.push(format!(
        "client.verify_s {verify_s:.3} s ({replayed} cycles replayed on mirrors)"
    ));

    // Set-ups are timed last: servers built and torn down before the
    // first window leave the allocator's thread arenas in a state that
    // differs from run to run, and peak RSS with it.
    let setup_s = time_setups(cfg.setup_reps, || {
        let text = gen::star_text(&mut rng.fork(1));
        let mut fx = build(&text)?;
        let (status, _) = fx.requests.round_trip(&reqs.eval)?;
        drop(fx);
        if status == 200 {
            Ok(())
        } else {
            Err("first request failed".into())
        }
    })?;

    let mut own: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    own.insert("setup_s", (setup_s, cfg.setup_reps));
    own.insert("ops_per_s", (quiet.ops_per_s, m.ops as usize));
    own.insert("cycle_p50_ms", quiet.cycle);
    own.insert("peak_rss_mb", (peak, 0));
    own.insert("eval_p50_ms", quiet.class("eval"));
    own.insert("rank_p50_ms", quiet.class("rank"));
    own.insert("apply_p50_ms", quiet.class("apply"));
    Ok(Outcome {
        workload: NAME,
        attempted: m.ops,
        failed: m.failed + wrong,
        errors,
        end_to_end: end_to_end(&own),
        layers,
        notes,
    })
}
