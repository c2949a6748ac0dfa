//! The `probdb` command-line tool: classify, explain, and evaluate
//! conjunctive queries on probabilistic databases in the plain-text format
//! of `pdb::text`.
//!
//! ```text
//! probdb classify "R(x), S(x,y), T(y)"
//! probdb explain  "R(x), S(x,y), S(u,v), T(v)"
//! probdb eval db.txt "R(x), S(x,y)" [--mc-samples 100000] [--exact] [--threads N] [--shards N] [--json] [--trace out.json]
//! probdb count db.txt "R(x), S(x,y)"        # satisfying substructures
//! probdb plan "R(x), S(x,y)"                # the planner's physical plan
//! probdb rank db.txt "Director(d), Credit(d,m)" x0 [--top K] [--threads N]
//!                                   # head variables are x0, x1, … in
//!                                   # first-occurrence order
//! probdb apply db.txt deltas.txt [-o out.txt]   # apply delta batches
//! probdb watch db.txt "R(x), S(x,y)" deltas.txt [--threads N]
//!                                   # subscribe an incremental view, then
//!                                   # apply each batch and read through it
//! probdb serve db.txt [--addr host:port] [--workers N] [--slow-ms N] [--access-log file]
//!                                   # HTTP query service: epoch-snapshot
//!                                   # reads, single-writer applies;
//!                                   # /metrics (Prometheus), /debug/requests
//!                                   # (flight recorder), JSONL access log
//! ```
//!
//! Delta scripts hold one mutation per line — `+ R(1,2) @ 0.5` (insert),
//! `~ R(1,2) @ 0.9` (probability update), `- R(1,2)` (delete) — with blank
//! lines separating atomically-applied batches.
//!
//! `--threads N` runs the parallel operator-DAG executor on N workers
//! (results are bit-for-bit the serial answers; sampling stays
//! deterministic per seed and thread count). `--shards N` lays the loaded
//! database out shard-resident (per-shard columnar buffers and posting
//! lists) and runs extensional scans shard-affine on the pipelined
//! operator-DAG executor — still bit-for-bit serial answers; a per-plan
//! cost model keeps small scans monolithic. Both default to 1 (serial,
//! monolithic). The `--exact` rational path is serial-only and ignores
//! both flags.
//!
//! `--trace out.json` (any command) records a span trace of the run —
//! planner phases, DAG tasks, operator kernels, morsel batches,
//! incremental refresh phases, sampling rounds — and writes it as Chrome
//! trace-event JSON, loadable in Perfetto / `chrome://tracing` with one
//! lane per worker thread. `--json` on `eval` and `rank` replaces the
//! human-readable report with one JSON object: the result plus the
//! evaluation's uniform metric snapshot (`Evaluation::metric_set` dotted
//! keys).
//!
//! `serve` ships with observability on: `GET /metrics` exposes the
//! telemetry registry as Prometheus text, `GET /debug/requests` dumps the
//! in-memory flight recorder, and every request writes one JSONL access
//! log line (in-memory tail; `--access-log file` appends to disk).
//! Requests at or above the slow threshold — `--slow-ms N`, default 500 —
//! log their plan summary (method, dichotomy classification, operator
//! counters) and retain a span capture served by `/debug/requests`;
//! `"trace": true` on `/eval`/`/rank` returns the request's spans inline.
//!
//! Every setting is a flag: the tool reads no environment variable.

use dichotomy::engine::{Engine, ExecOptions, Strategy};
use dichotomy::{classify, explain, ranked_answers_counted};
use pdb::load_db;
use probdb::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: probdb classify <query> | explain <query> | eval <db.txt> <query> [--mc-samples N] [--threads N] [--shards N] [--json] [--trace out.json] | count <db.txt> <query> | plan <query> | rank <db.txt> <query> <head-var> [--top K] [--threads N] [--shards N] [--json] [--trace out.json] | apply <db.txt> <deltas.txt> [-o out.txt] | watch <db.txt> <query> <deltas.txt> [--threads N] [--shards N] [--trace out.json] | serve <db.txt> [--addr host:port] [--workers N] [--mc-samples N] [--threads N] [--shards N] [--slow-ms N] [--access-log file]"
            );
            ExitCode::from(2)
        }
    }
}

/// Parse optional `--threads N` / `--shards N` flags into execution
/// options; an absent flag is 1.
fn exec_options(args: &[String]) -> Result<ExecOptions, String> {
    let tuning = |flag: &str| -> Result<usize, String> {
        match args.iter().position(|a| a == flag) {
            Some(i) => {
                let n = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .parse::<usize>()
                    .map_err(|e| e.to_string())?;
                if n == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
                Ok(n)
            }
            None => Ok(1),
        }
    };
    Ok(ExecOptions::with_tuning(
        tuning("--threads")?,
        tuning("--shards")?,
    ))
}

/// `--trace out.json`, which forces span tracing on for the whole run.
fn trace_path(args: &[String]) -> Result<Option<String>, String> {
    let path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).cloned().ok_or("--trace needs a path"))
        .transpose()?;
    if path.is_some() {
        telemetry::set_enabled(true);
    }
    Ok(path)
}

/// Write every span recorded so far as Chrome trace-event JSON.
fn write_trace(path: &str) -> Result<(), String> {
    let spans = telemetry::take_spans();
    let json = telemetry::chrome_trace(&spans);
    std::fs::write(path, &json).map_err(|e| e.to_string())?;
    eprintln!(
        "trace: {} span(s), {} bytes -> {path}",
        spans.len(),
        json.len()
    );
    Ok(())
}

fn json_mode(args: &[String]) -> bool {
    args.iter().any(|a| a == "--json")
}

fn run(args: &[String]) -> Result<(), String> {
    let trace = trace_path(args)?;
    dispatch(args)?;
    if let Some(path) = &trace {
        write_trace(path)?;
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "classify" => {
            let text = args.get(1).ok_or("missing query")?;
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let c = classify(&q).map_err(|e| e.to_string())?;
            println!("{}", c.complexity);
            Ok(())
        }
        "explain" => {
            let text = args.get(1).ok_or("missing query")?;
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let c = classify(&q).map_err(|e| e.to_string())?;
            print!("{}", explain(&c, &voc));
            Ok(())
        }
        "eval" => {
            let path = args.get(1).ok_or("missing database file")?;
            let text = args.get(2).ok_or("missing query")?;
            let samples = match args.iter().position(|a| a == "--mc-samples") {
                Some(i) => args
                    .get(i + 1)
                    .ok_or("--mc-samples needs a value")?
                    .parse::<u64>()
                    .map_err(|e| e.to_string())?,
                None => 100_000,
            };
            let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            if args.iter().any(|a| a == "--exact") {
                // Exact rational path: the plan `probdb plan` prints, run by
                // the engine in rationals. Probabilities like `1/3` in the
                // database file survive with no rounding at all.
                let (db, probs) = pdb::load_db_exact(&mut voc, &data).map_err(|e| e.to_string())?;
                let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
                let engine = Engine::with_samples_and_seed(samples, 0xDA151);
                let (p, method) = engine.evaluate_exact(&db, &probs, &q);
                println!("P(q) = {p}");
                println!("     ≈ {:.12}   method={method}", p.to_f64());
                return Ok(());
            }
            let mut db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let exec = exec_options(args)?;
            // A sharded tuning gets a matching resident layout, so DAG
            // scans resolve inside per-shard buffers and posting lists.
            if exec.shards > 1 {
                db.set_shard_layout(exec.shards);
            }
            let engine = Engine::with_options(samples, 0xDA151, exec);
            let ev = engine
                .evaluate(&db, &q, Strategy::Auto)
                .map_err(|e| e.to_string())?;
            if json_mode(args) {
                println!(
                    "{{\"probability\":{},\"std_error\":{},\"method\":\"{}\",\"cache_hit\":{},\"metrics\":{}}}",
                    telemetry::metrics::format_f64(ev.probability),
                    telemetry::metrics::format_f64(ev.std_error),
                    telemetry::json::escape(&ev.method.to_string()),
                    ev.cache_hit,
                    ev.metric_set().to_json()
                );
            } else {
                print!("{}", explain_evaluation(&ev));
            }
            Ok(())
        }
        "count" => {
            let path = args.get(1).ok_or("missing database file")?;
            let text = args.get(2).ok_or("missing query")?;
            let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let n = db.num_tuples();
            // The planner's plan in rationals at p ≡ 1/2: PTIME queries
            // count in polynomial time, the rest through exact lineage.
            let (count, method) = Engine::new().count_substructures(&db, &q);
            println!("{count} of 2^{n} substructures satisfy q   method={method}");
            Ok(())
        }
        "plan" => {
            let text = args.get(1).ok_or("missing query")?;
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            // The planner's view: classification once, then the compiled
            // physical plan the executor would run.
            let planner = Planner::new(100_000);
            let planned = planner.plan(&q).map_err(|e| e.to_string())?;
            print!("{}", planned.plan.display(&voc));
            if let PhysicalPlan::Extensional { plan } = &planned.plan {
                println!("({} operators, depth {})", plan.size(), plan.depth());
            }
            println!("classification: {}", planned.classification.complexity);
            Ok(())
        }
        "rank" => {
            let path = args.get(1).ok_or("missing database file")?;
            let text = args.get(2).ok_or("missing query")?;
            let head_name = args.get(3).ok_or("missing head variable")?;
            let k = match args.iter().position(|a| a == "--top") {
                Some(i) => Some(
                    args.get(i + 1)
                        .ok_or("--top needs a value")?
                        .parse::<usize>()
                        .map_err(|e| e.to_string())?,
                ),
                None => None,
            };
            let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let mut db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            // Head variables are named x0, x1, … in parse order.
            let head_idx: usize = head_name
                .trim_start_matches('x')
                .parse()
                .map_err(|_| format!("head variable {head_name:?} should look like x0"))?;
            let head = [Var(head_idx as u32)];
            if !q.vars().contains(&head[0]) {
                return Err(format!("{head_name} does not occur in the query"));
            }
            let mut engine = Engine::new();
            engine.exec = exec_options(args)?;
            if engine.exec.shards > 1 {
                db.set_shard_layout(engine.exec.shards);
            }
            let (mut answers, ranked_run) =
                ranked_answers_counted(&engine, &db, &q, &head, Strategy::Auto)
                    .map_err(|e| e.to_string())?;
            if let Some(k) = k {
                answers.truncate(k);
            }
            if json_mode(args) {
                let rows: Vec<String> = answers
                    .iter()
                    .map(|a| {
                        let tuple: Vec<String> = a
                            .tuple
                            .iter()
                            .map(|v| format!("\"{}\"", telemetry::json::escape(&voc.value_name(*v))))
                            .collect();
                        format!(
                            "{{\"tuple\":[{}],\"probability\":{},\"std_error\":{},\"method\":\"{}\"}}",
                            tuple.join(","),
                            telemetry::metrics::format_f64(a.probability),
                            telemetry::metrics::format_f64(a.std_error),
                            telemetry::json::escape(&a.method.to_string())
                        )
                    })
                    .collect();
                println!(
                    "{{\"answers\":[{}],\"metrics\":{}}}",
                    rows.join(","),
                    ranked_run.metric_set().to_json()
                );
                return Ok(());
            }
            for a in &answers {
                let tuple: Vec<String> = a.tuple.iter().map(|v| voc.value_name(*v)).collect();
                println!(
                    "({})  p={:.6}{}  [{}]",
                    tuple.join(", "),
                    a.probability,
                    if a.std_error > 0.0 {
                        format!(" ±{:.6}", 1.96 * a.std_error)
                    } else {
                        String::new()
                    },
                    a.method
                );
            }
            let stats = engine.cache_stats();
            eprintln!(
                "planned once: {} classification(s), {} cache hit(s)",
                stats.classifications, stats.hits
            );
            Ok(())
        }
        "apply" => {
            let db_path = args.get(1).ok_or("missing database file")?;
            let delta_path = args.get(2).ok_or("missing delta file")?;
            let data = std::fs::read_to_string(db_path).map_err(|e| e.to_string())?;
            let script = std::fs::read_to_string(delta_path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let mut db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let batches = pdb::parse_delta_batches(&mut voc, &script).map_err(|e| e.to_string())?;
            db.voc = voc;
            let v0 = db.version();
            let ops: usize = batches.iter().map(pdb::DeltaBatch::len).sum();
            for batch in &batches {
                db.apply(batch);
            }
            eprintln!(
                "applied {} batch(es) / {ops} operation(s): version {v0} -> {}",
                batches.len(),
                db.version()
            );
            let dump = pdb::dump_db(&db);
            match args.iter().position(|a| a == "-o") {
                Some(i) => {
                    let out = args.get(i + 1).ok_or("-o needs a path")?;
                    std::fs::write(out, dump).map_err(|e| e.to_string())?;
                    eprintln!("wrote {out}");
                }
                None => print!("{dump}"),
            }
            Ok(())
        }
        "watch" => {
            let db_path = args.get(1).ok_or("missing database file")?;
            let text = args.get(2).ok_or("missing query")?;
            let delta_path = args.get(3).ok_or("missing delta file")?;
            let data = std::fs::read_to_string(db_path).map_err(|e| e.to_string())?;
            let script = std::fs::read_to_string(delta_path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let mut db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            let q = parse_query(&mut voc, text).map_err(|e| e.to_string())?;
            let batches = pdb::parse_delta_batches(&mut voc, &script).map_err(|e| e.to_string())?;
            db.voc = voc;
            let mut engine = Engine::new();
            engine.exec = exec_options(args)?;
            // Resident layout before subscribing: delta batches below then
            // route shard-locally and stamp per-shard versions.
            if engine.exec.shards > 1 {
                db.set_shard_layout(engine.exec.shards);
            }
            let view = engine.subscribe(&db, &q).map_err(|e| e.to_string())?;
            let first = view.read(&db).map_err(|e| e.to_string())?;
            println!(
                "v{}  P(q) = {:.9}   [{}{}]",
                first.version,
                first.evaluation.probability,
                first.evaluation.method,
                if view.is_incremental() {
                    ", incremental"
                } else {
                    ", re-executing"
                }
            );
            for batch in &batches {
                db.apply(batch);
                let reading = view.read(&db).map_err(|e| e.to_string())?;
                print!(
                    "v{}  P(q) = {:.9}   ({} op(s)",
                    reading.version,
                    reading.evaluation.probability,
                    batch.len()
                );
                if let Some(c) = &reading.evaluation.incremental {
                    print!(
                        "; {} row(s) re-touched, {} avoided",
                        c.rows_retouched, c.rows_avoided
                    );
                }
                println!(")");
            }
            if let Some(c) = view.counters() {
                eprintln!(
                    "totals: {} refresh(es), {} rebuild(s), {} row(s) re-touched vs {} avoided, {} group(s) refolded",
                    c.incremental_refreshes,
                    c.full_rebuilds,
                    c.rows_retouched,
                    c.rows_avoided,
                    c.groups_refolded
                );
            }
            Ok(())
        }
        "serve" => {
            let db_path = args.get(1).ok_or("missing database file")?;
            let data = std::fs::read_to_string(db_path).map_err(|e| e.to_string())?;
            let mut voc = Vocabulary::new();
            let mut db = load_db(&mut voc, &data).map_err(|e| e.to_string())?;
            db.voc = voc;
            let mut opts = serve::ServeOptions {
                exec: exec_options(args)?,
                ..serve::ServeOptions::default()
            };
            if opts.exec.shards > 1 {
                db.set_shard_layout(opts.exec.shards);
            }
            if let Some(i) = args.iter().position(|a| a == "--addr") {
                opts.addr = args.get(i + 1).ok_or("--addr needs host:port")?.clone();
            }
            if let Some(i) = args.iter().position(|a| a == "--workers") {
                opts.workers = args
                    .get(i + 1)
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            if let Some(i) = args.iter().position(|a| a == "--mc-samples") {
                opts.mc_samples = args
                    .get(i + 1)
                    .ok_or("--mc-samples needs a value")?
                    .parse()
                    .map_err(|e| format!("--mc-samples: {e}"))?;
            }
            if let Some(i) = args.iter().position(|a| a == "--slow-ms") {
                opts.slow_ms = Some(
                    args.get(i + 1)
                        .ok_or("--slow-ms needs a value (milliseconds)")?
                        .parse()
                        .map_err(|e| format!("--slow-ms: {e}"))?,
                );
            }
            if let Some(i) = args.iter().position(|a| a == "--access-log") {
                opts.access_log_path = Some(
                    args.get(i + 1)
                        .ok_or("--access-log needs a file path")?
                        .clone(),
                );
            }
            let server = serve::Server::start(db, opts).map_err(|e| e.to_string())?;
            println!("serving on http://{}", server.addr());
            eprintln!(
                "endpoints: GET /health /stats /metrics /debug/requests; \
                 POST /eval /rank /apply /watch (Ctrl-C to stop)"
            );
            eprintln!(
                "observability: slow threshold {} ms (--slow-ms)",
                server.slow_ms()
            );
            // Serve until killed.
            loop {
                std::thread::park();
            }
        }
        other => Err(format!("unknown command {other:?}")),
    }
}
