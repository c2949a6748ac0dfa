//! `serve_adhoc`: one client, every request a first sight. The paper's
//! decision procedure — parse, classify, compile or sample — runs on the
//! request path; both caches only insert and evict.

use std::collections::BTreeMap;

use dichotomy::Engine;
use pdb::ProbDb;
use serve::Server;

use crate::common::*;
use crate::gen::{self, AdhocClass, AdhocCycles, AdhocOp, Rng};
use crate::http::{post_json, Conn};
use crate::replay::{self, CacheMode, ExecKind, ServeReplay};
use crate::stats::peak_rss_mb;
use crate::trace::Recorder;

pub const NAME: &str = "serve_adhoc";
/// The service's Monte-Carlo budget for the hard class.
const MC_SAMPLES: u64 = 1000;
const CLASSES: [&str; 4] = ["eval", "rank", "selfjoin", "hard"];

struct Fixture {
    conn: Conn,
    server: Server,
}

fn build(text: &str) -> Result<Fixture, Error> {
    let server = start_server(load(text)?, MC_SAMPLES)?;
    let conn = Conn::connect(server.addr())?;
    Ok(Fixture { conn, server })
}

fn class_name(class: AdhocClass) -> &'static str {
    match class {
        AdhocClass::Hier(_) => "eval",
        AdhocClass::Rank => "rank",
        AdhocClass::SelfJoin => "selfjoin",
        AdhocClass::Hard => "hard",
    }
}

fn request_of(op: &AdhocOp) -> Vec<u8> {
    if op.is_rank() {
        post_json("/rank", &rank_body(&op.query(), None))
    } else {
        post_json("/eval", &eval_body(&op.query()))
    }
}

/// One served answer, kept as text for the check after the window.
struct Served {
    op: AdhocOp,
    answer: String,
}

fn cycle(
    rec: &mut ClientRec,
    conn: &mut Conn,
    ops: &[AdhocOp],
    served: &mut Vec<Served>,
) -> std::io::Result<()> {
    // Requests are rendered before the cycle's clock starts: the client's
    // own formatting is not the program's latency.
    let requests: Vec<Vec<u8>> = ops.iter().map(request_of).collect();
    let start = std::time::Instant::now();
    for (op, request) in ops.iter().zip(&requests) {
        let rank = op.is_rank();
        timed_op(rec, conn, class_name(op.class), request, true, |body| {
            let answer = if rank {
                served_rank_answer(body)
            } else {
                served_eval_answer(body)
            };
            served.push(Served {
                op: *op,
                answer: answer.to_string(),
            });
            true
        })?;
    }
    rec.cycle(start, std::time::Instant::now());
    Ok(())
}

/// Compare every served answer with a direct engine call on the same
/// data, seed and sample budget. Two threads: nothing else runs by now.
fn verify(db: &ProbDb, served: &[Served]) -> (u64, Option<String>) {
    let check = |chunk: &[Served]| -> (u64, Option<String>) {
        let engine: Engine = direct_engine(MC_SAMPLES);
        let (mut bad, mut first) = (0, None);
        for s in chunk {
            let want = parse(db, &s.op.query()).and_then(|q| {
                if s.op.is_rank() {
                    direct_rank(&engine, db, &q, None)
                } else {
                    direct_eval(&engine, db, &q)
                }
            });
            let hard_ok = s.op.class != AdhocClass::Hard || s.answer.contains("karp-luby");
            match want {
                Ok(want) if want == s.answer && hard_ok => {}
                other => {
                    bad += 1;
                    first.get_or_insert(format!(
                        "{}: served {} but direct call gave {:?}",
                        s.op.query(),
                        s.answer,
                        other.map_err(|e| e.to_string())
                    ));
                }
            }
        }
        (bad, first)
    };
    let (left, right) = served.split_at(served.len() / 2);
    let ((a, ea), (b, eb)) = std::thread::scope(|scope| {
        let h = scope.spawn(|| check(left));
        let right = check(right);
        (h.join().expect("verifier panicked"), right)
    });
    (a + b, ea.or(eb))
}

pub fn run(cfg: &Config) -> Result<Outcome, Error> {
    let rng = Rng::new(cfg.seed);
    let text = gen::family_text(&mut rng.fork(3));
    let mut layers = BTreeMap::new();
    let mut notes = Vec::new();
    if cfg.trace {
        replay::setup_layers(&[(&text, 1)], &mut layers)?;
    }

    let mut cycles = AdhocCycles::new(&rng);
    let mut served: Vec<Served> = Vec::new();
    let mut replicas: Vec<Vec<ClientRec>> = Vec::new();
    let mut delta = CacheStats::default();
    let mut peak = 0.0;
    let mut lane = Recorder::new(1);
    let share = cfg.seconds / cfg.replicas as f64;
    for replica in 0..cfg.replicas {
        let mut fx = build(&text)?;
        let mut window = |fx: &mut Fixture, seconds: f64, traced: bool| {
            let mut rec = ClientRec::new(0, &CLASSES, traced);
            run_window(&mut rec, seconds, |rec| {
                cycle(rec, &mut fx.conn, &cycles.next_cycle(), &mut served)
            });
            rec
        };
        // Warm-up answers are checked too; only their timings are dropped.
        window(&mut fx, cfg.warmup, false);
        let before = CacheStats::read(&mut fx.conn)?;
        let recs = if cfg.trace {
            vec![
                window(&mut fx, share / 2.0, false),
                window(&mut fx, share / 2.0, true),
            ]
        } else {
            vec![window(&mut fx, share, false)]
        };
        delta = delta.plus(&CacheStats::read(&mut fx.conn)?.since(&before));
        if replica == 0 {
            peak = peak_rss_mb();
        }
        if cfg.trace && replica + 1 == cfg.replicas {
            layers.insert("serve.floor_us", replay::health_floor_us(&mut fx.conn)?);
            // Replay the next requests the generator would have sent:
            // unseen by the private planner, so every plan is a miss, as
            // served.
            let mut ctx = ServeReplay::new(&fx.server, MC_SAMPLES);
            let mut quota: BTreeMap<&str, usize> = [
                ("eval", replay::SAMPLES),
                ("rank", 64),
                ("selfjoin", 64),
                ("hard", 8),
            ]
            .into();
            while quota.values().any(|left| *left > 0) {
                for op in cycles.next_cycle() {
                    let class = class_name(op.class);
                    let left = quota.get_mut(class).expect("class");
                    if *left == 0 {
                        continue;
                    }
                    *left -= 1;
                    let kind = match op.class {
                        AdhocClass::Rank => {
                            ctx.rank(&mut lane, class, &rank_body(&op.query(), None), None, false)?;
                            continue;
                        }
                        AdhocClass::Hier(_) => ExecKind::Small,
                        AdhocClass::SelfJoin => ExecKind::SelfJoin,
                        AdhocClass::Hard => ExecKind::Hard,
                    };
                    ctx.eval(
                        &mut lane,
                        class,
                        &eval_body(&op.query()),
                        kind,
                        CacheMode::Cold,
                    )?;
                }
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
    if delta.plan_hits != 0 || delta.result_hits != 0 {
        errors.push(format!(
            "not every request was a first sight: {} plan-cache hits, {} result-cache hits in the window",
            delta.plan_hits, delta.result_hits
        ));
    }
    notes.push(format!(
        "core.plan_hit_share {:.4}  core.result_hit_share {:.4} ({} plan misses, {} result misses)",
        delta.plan_hit_share(),
        delta.result_hit_share(),
        delta.plan_misses,
        delta.result_misses
    ));

    if cfg.trace {
        layers.insert("core.plan_hit_share", delta.plan_hit_share());
        layers.insert("core.result_hit_share", delta.result_hit_share());
        replay::finish(NAME, &recs, &lane, &CLASSES, &mut layers, &mut notes)?;
    }

    let start = std::time::Instant::now();
    let (wrong, first_wrong) = verify(&load(&text)?, &served);
    let verify_s = start.elapsed().as_secs_f64();
    layers.insert("client.verify_s", verify_s);
    notes.push(format!(
        "client.verify_s {verify_s:.3} s ({} answers against direct engine calls)",
        served.len()
    ));
    errors.extend(first_wrong);

    // Set-ups are timed last: servers built and torn down before the
    // first window leave the allocator's thread arenas in a state that
    // differs from run to run, and peak RSS with it.
    let first = post_json("/eval", &eval_body("R0(x), S0(x,y)"));
    let setup_s = time_setups(cfg.setup_reps_short, || {
        let text = gen::family_text(&mut rng.fork(3));
        let mut fx = build(&text)?;
        let (status, _) = fx.conn.round_trip(&first)?;
        drop(fx);
        if status == 200 {
            Ok(())
        } else {
            Err("first request failed".into())
        }
    })?;

    let mut own: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    own.insert("setup_s", (setup_s, cfg.setup_reps_short));
    own.insert("ops_per_s", (quiet.ops_per_s, m.ops as usize));
    own.insert("cycle_p50_ms", quiet.cycle);
    own.insert("peak_rss_mb", (peak, 0));
    own.insert("eval_p50_ms", quiet.class("eval"));
    own.insert("rank_p50_ms", quiet.class("rank"));
    own.insert("selfjoin_p50_ms", quiet.class("selfjoin"));
    own.insert("hard_p50_ms", quiet.class("hard"));
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
