//! `--aa N`: the benchmark checking its own repeatability. Every workload
//! runs N times for side A and N times for side B — the same binary, each
//! run its own process and seed, interleaved ABBA so drift on the box
//! lands on both sides — and each end-to-end metric's two medians are
//! compared against its bound in `BENCHMARK.json`.

use std::process::{Command, ExitCode};

use crate::common::END_TO_END;
use crate::http::field;
use crate::stats::{median, quartiles};
use crate::{Args, WORKLOADS};

/// One child run: the end-to-end values, in `END_TO_END` order.
fn child_run(args: &Args, workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        "0",
    ]);
    cmd.args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !last.contains("\"correct\":true") {
        return Err(format!("{workload} seed {seed} failed: {last}"));
    }
    END_TO_END
        .iter()
        .map(|(name, ..)| {
            field(last, &format!("\"{name}\":"), "value")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{workload}: no {name} in {last}"))
        })
        .collect()
}

/// Bounds by metric name, from the `BENCHMARK.json` this build sits under.
fn bounds() -> Result<Vec<f64>, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    END_TO_END
        .iter()
        .map(|(name, ..)| {
            field(&text, &format!("\"name\": \"{name}\""), "bound")
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))
        })
        .collect()
}

pub fn run(args: &Args, n: usize) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    println!("\n# A/A self-check: {n} runs a side, same binary, ABBA order, one seed a run\n");
    println!("PASS = the two medians differ by no more than the metric's bound; `>half` marks a");
    println!("difference above half the bound. `iqr` is the quartile distance over the median;");
    println!(
        "`iqr all` takes all {} runs together, which is the spread the driver checks.\n",
        2 * n
    );
    let mut all_pass = true;
    for workload in names {
        // ABBA ABBA …: side of run i.
        let mut sides: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * n {
            let side = [0, 1, 1, 0][i % 4];
            match child_run(args, workload, args.seed + i as u64) {
                Ok(values) => sides[side].push(values),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(1);
                }
            }
        }
        println!("## {workload}\n");
        println!("| metric | unit | median A | median B | diff | iqr A | iqr B | iqr all | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|---|");
        let cycle_at = END_TO_END
            .iter()
            .position(|(name, ..)| *name == "cycle_p50_ms")
            .expect("cycle metric");
        for (k, (name, unit, ..)) in END_TO_END.iter().enumerate() {
            let col = |side: usize| -> Vec<f64> { sides[side].iter().map(|run| run[k]).collect() };
            let (a, b) = (col(0), col(1));
            // A class the workload lacks carries its cycle median: no row.
            if k != cycle_at && sides.iter().flatten().all(|run| run[k] == run[cycle_at]) {
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let diff = (mb - ma) / ma;
            let iqr = |v: &[f64], m: f64| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / m
            };
            let verdict = if diff.abs() > bounds[k] {
                all_pass = false;
                "FAIL"
            } else if diff.abs() > bounds[k] / 2.0 {
                "PASS >half"
            } else {
                "PASS"
            };
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            println!(
                "| {name} | {unit} | {ma:.4} | {mb:.4} | {:+.2}% | {:.2}% | {:.2}% | {:.2}% | {:.0}% | {verdict} |",
                100.0 * diff,
                100.0 * iqr(&a, ma),
                100.0 * iqr(&b, mb),
                100.0 * iqr(&all, median(&all)),
                100.0 * bounds[k]
            );
        }
        println!();
    }
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
