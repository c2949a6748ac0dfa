//! `serve_hot`: two keep-alive clients hammering a 64-query hot set on
//! the 100k-tuple star. After warm-up every `/eval` is a result-cache
//! hit, so HTTP, JSON, query parsing, cache-key building and the cache
//! probes are all the work there is.

use std::collections::BTreeMap;

use pdb::ProbDb;
use serve::Server;

use crate::common::*;
use crate::gen::{self, HotSet, Rng};
use crate::http::{post_json, Conn};
use crate::replay::{self, CacheMode, ExecKind, ServeReplay};
use crate::stats::peak_rss_mb;
use crate::trace::Recorder;

pub const NAME: &str = "serve_hot";
const CLIENTS: usize = 2;
const CLASSES: [&str; 2] = ["eval", "rank"];
/// Ops per cycle: seven `/eval`, one `/rank`.
const CYCLE: usize = 8;

/// The connections come first so they close before the server shuts
/// down: its workers then see EOF at once instead of riding out a
/// read-timeout poll.
struct Fixture {
    conns: Vec<Conn>,
    server: Server,
}

/// Generate → load → start → connect.
fn build(text: &str, clients: usize) -> Result<Fixture, Error> {
    let server = start_server(load(text)?, DEFAULT_MC_SAMPLES)?;
    let conns = (0..clients)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<_, _>>()?;
    Ok(Fixture { conns, server })
}

/// Prebuilt request bytes and the answer text each must come back with.
struct Requests {
    evals: Vec<(Vec<u8>, String)>,
    ranks: Vec<(Vec<u8>, String)>,
}

impl Requests {
    fn new(db: &ProbDb, hot: &HotSet) -> Result<Requests, Error> {
        let engine = direct_engine(DEFAULT_MC_SAMPLES);
        let mut evals = Vec::new();
        for text in &hot.evals {
            let want = direct_eval(&engine, db, &parse(db, text)?)?;
            evals.push((post_json("/eval", &eval_body(text)), want));
        }
        let mut ranks = Vec::new();
        for text in &hot.ranks {
            let want = direct_rank(&engine, db, &parse(db, text)?, None)?;
            ranks.push((post_json("/rank", &rank_body(text, None)), want));
        }
        Ok(Requests { evals, ranks })
    }
}

fn cycle(
    rec: &mut ClientRec,
    conn: &mut Conn,
    reqs: &Requests,
    rng: &mut Rng,
) -> std::io::Result<()> {
    let rank_at = rng.below(CYCLE);
    let start = std::time::Instant::now();
    for slot in 0..CYCLE {
        if slot == rank_at {
            let (req, want) = &reqs.ranks[rng.below(reqs.ranks.len())];
            timed_op(rec, conn, "rank", req, true, |body| {
                served_rank_answer(body) == want
            })?;
        } else {
            let (req, want) = &reqs.evals[rng.below(reqs.evals.len())];
            timed_op(rec, conn, "eval", req, true, |body| {
                served_eval_answer(body) == want
            })?;
        }
    }
    rec.cycle(start, std::time::Instant::now());
    Ok(())
}

/// One window on `clients` connections (1 or 2), one thread each.
fn window(
    conns: &mut [Conn],
    reqs: &Requests,
    rng: &Rng,
    leg: u64,
    seconds: f64,
    traced: bool,
) -> Vec<ClientRec> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                let mut rng = rng.fork(leg * 16 + lane as u64);
                scope.spawn(move || {
                    let mut rec = ClientRec::new(lane as u32, &CLASSES, traced);
                    run_window(&mut rec, seconds, |rec| cycle(rec, conn, reqs, &mut rng));
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Touch every hot query once on every connection, so the window starts
/// with both caches holding the whole hot set.
fn prime(conns: &mut [Conn], reqs: &Requests) -> Result<(), Error> {
    for conn in conns {
        for (req, _) in reqs.evals.iter().chain(&reqs.ranks) {
            let (status, _) = conn.round_trip(req)?;
            if status != 200 {
                return Err(format!("priming request answered {status}").into());
            }
        }
    }
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
    let hot = HotSet::new(&rng);
    let reqs = Requests::new(&load(&text)?, &hot)?;

    let mut replicas: Vec<Vec<ClientRec>> = Vec::new();
    let mut delta = CacheStats::default();
    let mut peak = 0.0;
    let mut lane = Recorder::new(CLIENTS as u32);
    let mut one_client_rate = 0.0;
    let share = cfg.seconds / cfg.replicas as f64;
    for replica in 0..cfg.replicas {
        let leg = replica as u64 * 4;
        let mut fx = build(&text, CLIENTS)?;
        prime(&mut fx.conns, &reqs)?;
        window(&mut fx.conns, &reqs, &rng, leg, cfg.warmup, false);
        let before = CacheStats::read(&mut fx.conns[0])?;
        let recs = if cfg.trace {
            // Half untraced (the baseline of `client.trace_overhead`), half
            // with client spans recorded.
            let mut recs = window(&mut fx.conns, &reqs, &rng, leg + 1, share / 2.0, false);
            recs.extend(window(
                &mut fx.conns,
                &reqs,
                &rng,
                leg + 2,
                share / 2.0,
                true,
            ));
            recs
        } else {
            window(&mut fx.conns, &reqs, &rng, leg + 1, share, false)
        };
        delta = delta.plus(&CacheStats::read(&mut fx.conns[0])?.since(&before));
        if replica == 0 {
            peak = peak_rss_mb();
        }
        if cfg.trace && replica + 1 == cfg.replicas {
            // Scaling: the same loop on one connection.
            let one = window(
                &mut fx.conns[..1],
                &reqs,
                &rng,
                leg + 3,
                (share / 4.0).max(1.0),
                false,
            );
            one_client_rate = Merged::of(&one).ops_per_s;
            layers.insert("serve.floor_us", replay::health_floor_us(&mut fx.conns[0])?);
            let mut ctx = ServeReplay::new(&fx.server, DEFAULT_MC_SAMPLES);
            let mut pick = rng.fork(0x7E);
            for _ in 0..replay::SAMPLES {
                let i = pick.below(hot.evals.len());
                let kind = if i == 0 {
                    ExecKind::StarSerial
                } else {
                    ExecKind::Small
                };
                ctx.eval(
                    &mut lane,
                    "eval",
                    &eval_body(&hot.evals[i]),
                    kind,
                    CacheMode::Hot,
                )?;
                let j = pick.below(hot.ranks.len());
                ctx.rank(
                    &mut lane,
                    "rank",
                    &rank_body(&hot.ranks[j], None),
                    None,
                    true,
                )?;
            }
        }
        drop(fx);
        replicas.push(recs);
    }

    let quiet = Quietest::of(&replicas);
    notes.push(quiet.note.clone());
    let recs: Vec<ClientRec> = replicas.into_iter().flatten().collect();
    let mut m = Merged::of(&recs);
    let mut errors = std::mem::take(&mut m.errors);
    let evals = m.class("eval").1 as u64;
    if delta.result_hits != evals || delta.plan_misses != 0 {
        errors.push(format!(
            "hot set not hot: {} result-cache hits for {evals} evals, {} plan misses",
            delta.result_hits, delta.plan_misses
        ));
    }
    notes.push(format!(
        "core.plan_hit_share {:.4}  core.result_hit_share {:.4} (over {evals} evals)",
        delta.plan_hit_share(),
        delta.result_hit_share()
    ));

    if cfg.trace {
        layers.insert("core.plan_hit_share", delta.plan_hit_share());
        layers.insert("core.result_hit_share", delta.result_hit_share());
        let scale = quiet.ops_per_s / one_client_rate.max(1e-9);
        layers.insert("serve.scale_2c", scale);
        notes.push(format!(
            "serve.scale_2c {scale:.4} (ops/s with 2 clients / with 1)"
        ));
        replay::finish(NAME, &recs, &lane, &CLASSES, &mut layers, &mut notes)?;
    }

    // Set-ups are timed last: servers built and torn down before the
    // first window leave the allocator's thread arenas in a state that
    // differs from run to run, and peak RSS with it.
    let first = post_json("/eval", &eval_body(&hot.evals[1]));
    let setup_s = time_setups(cfg.setup_reps, || {
        let text = gen::star_text(&mut rng.fork(1));
        let mut fx = build(&text, CLIENTS)?;
        let (status, _) = fx.conns[0].round_trip(&first)?;
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
