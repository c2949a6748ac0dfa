//! One repeatable benchmark for the served and direct query paths.
//!
//! ```text
//! probdb-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//!                  [--aa N] [--smoke]
//! ```
//!
//! Without `--workload` all four workloads run, one after another, in
//! this process. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. See `README.md` for the
//! workloads, the metric definitions and how to read the trace.

mod aa;
mod common;
mod engine_exec;
mod gen;
mod http;
mod replay;
mod serve_adhoc;
mod serve_churn;
mod serve_hot;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use common::{Config, Outcome, END_TO_END};

const WORKLOADS: [&str; 4] = [
    serve_hot::NAME,
    serve_adhoc::NAME,
    serve_churn::NAME,
    engine_exec::NAME,
];

/// The options the program reads from the environment. Any of them set
/// would change what is measured behind the benchmark's back.
const ENV_KNOBS: [&str; 5] = [
    "ENGINE_THREADS",
    "ENGINE_SHARDS",
    "ENGINE_TRACE",
    "ENGINE_RESULT_CACHE",
    "ENGINE_SLOW_MS",
];

const DEFAULT_SEED: u64 = 20070611;
const DEFAULT_SECONDS: f64 = 30.0;
/// Shorter windows do not repeat within the bounds on a two-core box.
const MIN_SECONDS: f64 = 15.0;

/// The per-layer metrics a traced run prints: `(name, unit, better)`.
/// `BENCHMARK.json` carries the same table; a workload that never visits
/// a layer reports 0 for it.
pub const LAYERS: [(&str, &str, &str); 47] = [
    ("serve.floor_us", "us", "lower"),
    ("serve.http_read_us", "us", "lower"),
    ("serve.http_write_us", "us", "lower"),
    ("serve.scale_2c", "ratio", "higher"),
    ("serve.watch_lag_us", "us", "lower"),
    ("serve.unattributed_share", "ratio", "lower"),
    ("telemetry.json_parse_us", "us", "lower"),
    ("cq.parse_us", "us", "lower"),
    ("cq.cache_key_us", "us", "lower"),
    ("core.classify_sjf_us", "us", "lower"),
    ("core.classify_selfjoin_us", "us", "lower"),
    ("core.classify_hard_us", "us", "lower"),
    ("core.plan_miss_us", "us", "lower"),
    ("core.plan_hit_us", "us", "lower"),
    ("core.result_get_us", "us", "lower"),
    ("core.result_put_us", "us", "lower"),
    ("core.plan_hit_share", "ratio", "higher"),
    ("core.result_hit_share", "ratio", "higher"),
    ("core.selfjoin_eval_ms", "ms", "lower"),
    ("safeplan.compile_us", "us", "lower"),
    ("safeplan.small_exec_us", "us", "lower"),
    ("safeplan.star_serial_ms", "ms", "lower"),
    ("safeplan.bushy_serial_ms", "ms", "lower"),
    ("safeplan.bushy_dag_ms", "ms", "lower"),
    ("safeplan.ranked_ms", "ms", "lower"),
    ("safeplan.rows_scanned", "count", "lower"),
    ("safeplan.join_rows", "count", "lower"),
    ("safeplan.groups", "count", "lower"),
    ("exec-parallel.tasks", "count", "lower"),
    ("exec-parallel.busy_share", "ratio", "higher"),
    ("exec-parallel.overlap_share", "ratio", "higher"),
    ("pdb.load_s", "s", "lower"),
    ("pdb.layout_s", "s", "lower"),
    ("pdb.delta_parse_us", "us", "lower"),
    ("pdb.apply_us", "us", "lower"),
    ("pdb.clone_ms", "ms", "lower"),
    ("pdb.publish_ms", "ms", "lower"),
    ("pdb.snapshot_ns", "ns", "lower"),
    ("pdb.bytes_per_tuple", "B", "lower"),
    ("incremental.build_ms", "ms", "lower"),
    ("incremental.refresh_us", "us", "lower"),
    ("incremental.avoided_share", "ratio", "higher"),
    ("lineage.extract_us", "us", "lower"),
    ("lineage.kl_ms", "ms", "lower"),
    ("client.op_tail_ms", "ms", "lower"),
    ("client.trace_overhead", "ratio", "lower"),
    ("client.verify_s", "s", "lower"),
];

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub aa: Option<usize>,
    pub smoke: bool,
}

fn usage(problem: &str) -> String {
    format!(
        "{problem}\nusage: probdb-benchmark [--workload {}] [--seed N] [--seconds N (>= {MIN_SECONDS}, default {DEFAULT_SECONDS})] [--trace 0|1] [--aa N] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(usage(&format!("unknown workload {w:?}")));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| usage("--seed takes a whole number"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| usage("--seconds takes a number"))?
            }
            "--aa" => {
                args.aa = Some(
                    value("--aa")?
                        .parse()
                        .map_err(|_| usage("--aa takes a count"))?,
                )
            }
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace 0|1`; a bare `--trace` means 1.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(usage(&format!("unknown argument {other:?}"))),
        }
    }
    if !args.smoke && args.seconds < MIN_SECONDS {
        return Err(usage(&format!(
            "--seconds {} is below {MIN_SECONDS}",
            args.seconds
        )));
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(args: &Args, cfg: &Config) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "probdb-benchmark  nproc {nproc}  git {}  {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"])
    );
    println!(
        "seed {}  --seconds {}  over {} replicas, warm-up {} s each  set-up reps {}/{}  trace {}{}",
        cfg.seed,
        cfg.seconds,
        cfg.replicas,
        cfg.warmup,
        cfg.setup_reps,
        cfg.setup_reps_short,
        u8::from(cfg.trace),
        if args.smoke { "  (smoke)" } else { "" }
    );
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, common::Error> {
    stats::reset_peak_rss();
    match name {
        serve_hot::NAME => serve_hot::run(cfg),
        serve_adhoc::NAME => serve_adhoc::run(cfg),
        serve_churn::NAME => serve_churn::run(cfg),
        _ => engine_exec::run(cfg),
    }
}

fn report(out: &Outcome, cfg: &Config) {
    println!(
        "\n== {}  attempted {}  ok {}  failed {}",
        out.workload,
        out.attempted,
        out.attempted - out.failed.min(out.attempted),
        out.failed
    );
    for (m, (_, unit, better)) in out.end_to_end.iter().zip(END_TO_END) {
        if m.own {
            let n = if m.samples > 0 {
                format!("n={}", m.samples)
            } else {
                String::new()
            };
            println!(
                "  {:<22} {:>14.4} {:<4} {:<7} {n}",
                m.name, m.value, unit, better
            );
        } else {
            println!("  {:<22} {:>14} ", m.name, "-");
        }
    }
    if cfg.trace {
        println!("  -- per-layer metrics (0 = this workload does not visit the layer)");
        for (name, unit, _) in LAYERS {
            println!(
                "  {:<28} {:>14.4} {unit}",
                name,
                out.layers.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    for note in &out.notes {
        println!("  {}", note.trim_end().replace('\n', "\n  "));
    }
    for e in &out.errors {
        println!("  ERROR {e}");
    }
}

/// `"name":{"value":v,"unit":"u"}` entries of one outcome.
fn metrics_json(out: &Outcome, trace: bool, prefix: &str) -> Vec<String> {
    if trace {
        LAYERS
            .iter()
            .map(|(name, unit, _)| {
                let v = out.layers.get(name).copied().unwrap_or(0.0);
                format!("\"{prefix}{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect()
    } else {
        out.end_to_end
            .iter()
            .zip(END_TO_END)
            .map(|(m, (_, unit, ..))| {
                format!(
                    "\"{prefix}{}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    m.name, m.value
                )
            })
            .collect()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = ENV_KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: the program reads it, and every option is pinned here",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let cfg = if args.smoke {
        Config {
            seed: args.seed,
            seconds: 2.0,
            replicas: 2,
            warmup: 0.25,
            setup_reps: 3,
            setup_reps_short: 3,
            trace: args.trace,
        }
    } else if args.trace {
        // One fixture: the replay needs it alive, and nothing here is gated.
        Config {
            seed: args.seed,
            seconds: args.seconds,
            replicas: 1,
            warmup: 3.0,
            setup_reps: 9,
            setup_reps_short: 15,
            trace: true,
        }
    } else {
        Config {
            seed: args.seed,
            seconds: args.seconds,
            replicas: 5,
            warmup: 0.5,
            setup_reps: 9,
            setup_reps_short: 15,
            trace: false,
        }
    };
    header(&args, &cfg);
    if let Some(n) = args.aa {
        return aa::run(&args, n);
    }

    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut entries = Vec::new();
    for name in &names {
        let out = match run_workload(name, &cfg) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::from(1);
            }
        };
        report(&out, &cfg);
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.correct();
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        entries.extend(metrics_json(&out, cfg.trace, &prefix));
    }
    println!(
        "\n{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        entries.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
