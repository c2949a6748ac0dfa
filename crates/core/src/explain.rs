//! Human-readable explanations of classification outcomes — render the
//! dichotomy's witnesses (non-hierarchical variable pairs, inversion paths,
//! hard joins) the way the paper presents them — and of evaluations (which
//! plan ran, planning vs execution time, cache behavior).

use crate::classify::{Classification, Complexity, HardReason, PTimeReason};
use crate::engine::Evaluation;
use crate::hierarchy::VarRel;
use cq::Vocabulary;
use std::fmt::Write as _;

/// Render an evaluation: probability (with its 95% interval when the plan
/// sampled), the substrate that ran, and the planning/execution split the
/// planner/executor architecture makes observable.
pub fn explain_evaluation(ev: &Evaluation) -> String {
    let mut out = String::new();
    if ev.std_error > 0.0 {
        let _ = writeln!(
            out,
            "P(q) ≈ {:.6} ± {:.6} (95%)",
            ev.probability,
            1.96 * ev.std_error
        );
    } else {
        let _ = writeln!(out, "P(q) = {:.9}", ev.probability);
    }
    let _ = writeln!(out, "method    : {}", ev.method);
    let _ = writeln!(
        out,
        "planning  : {:?}{}",
        ev.planning,
        if ev.cache_hit {
            " (plan-cache hit)"
        } else {
            ""
        }
    );
    let _ = writeln!(out, "execution : {:?}", ev.execution);
    if let Some(ops) = &ev.extensional {
        // EXPLAIN ANALYZE-style operator tree: one row per operator kind
        // with calls, rows, wall time, and its share of the evaluation's
        // wall clock (unconditional per-invocation timings, so the table
        // renders with or without span tracing).
        let wall_ns = (ev.wall_time.as_nanos() as u64).max(1);
        let _ = writeln!(out, "operators :      calls        rows        time  share");
        let mut row = |name: &str, calls: u64, rows: u64, ns: u64, detail: &str| {
            let time = format!("{:?}", std::time::Duration::from_nanos(ns));
            let share = 100.0 * ns as f64 / wall_ns as f64;
            let _ = writeln!(
                out,
                "  {name:<16}{calls:>6}  {rows:>10}  {time:>10}  {share:>5.1}%  {detail}"
            );
        };
        row(
            "scan",
            ops.scans,
            ops.rows_scanned,
            ops.times.scan_ns,
            &format!(
                "{} index-served, {} pruned",
                ops.index_scans, ops.rows_pruned
            ),
        );
        if ops.complement_scans > 0 || ops.times.complement_ns > 0 {
            row(
                "complement-scan",
                ops.complement_scans,
                ops.complement_rows,
                ops.times.complement_ns,
                "bindings enumerated",
            );
        }
        if ops.times.select_ns > 0 {
            row("select", 0, 0, ops.times.select_ns, "");
        }
        row(
            "join",
            ops.joins,
            ops.join_rows,
            ops.times.join_ns,
            &format!("{} built left", ops.joins_build_left),
        );
        row(
            "project",
            ops.groups,
            ops.groups,
            ops.times.project_ns,
            "group(s)",
        );
    }
    if let Some(sched) = &ev.scheduler {
        let _ = writeln!(
            out,
            "scheduler : {} task(s), peak {} ready / {} running, {:?} overlapped",
            sched.tasks, sched.max_ready, sched.max_running, sched.overlap
        );
    }
    if let Some(sh) = &ev.sharding {
        if sh.shards > 1 {
            let _ = writeln!(
                out,
                "shards    : {} ({} scan rows: {})",
                sh.shards,
                sh.rows.iter().sum::<u64>(),
                sh.rows
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join("/")
            );
        } else {
            let _ = writeln!(out, "shards    : 1 (cost model kept scans monolithic)");
        }
    }
    if let Some(inc) = &ev.incremental {
        if inc.full_rebuilds > 0 {
            let _ = writeln!(
                out,
                "incremental: full rebuild ({} rows re-materialized; view fell behind the delta log)",
                inc.rows_retouched
            );
        } else {
            let _ = writeln!(
                out,
                "incremental: {} row(s) re-touched, {} avoided ({} group(s) refolded, {} batch(es) replayed)",
                inc.rows_retouched, inc.rows_avoided, inc.groups_refolded, inc.batches_replayed
            );
        }
    }
    if let Some(par) = &ev.parallel {
        let _ = writeln!(
            out,
            "threads   : {} ({} morsels, {} rows)",
            par.threads(),
            par.total_morsels(),
            par.total_rows()
        );
        for (i, t) in par.per_thread.iter().enumerate() {
            let _ = writeln!(
                out,
                "  worker {i}: busy {:?}, {} morsel(s), {} row(s)",
                t.busy, t.morsels, t.rows
            );
        }
    }
    let _ = writeln!(out, "wall time : {:?}", ev.wall_time);
    if let Some(c) = &ev.classification {
        let _ = writeln!(out, "complexity: {}", c.complexity);
    }
    out
}

/// Render a classification with its witnesses. Intended for CLI/debug
/// output; stable enough to grep in tests but not a machine interface.
pub fn explain(c: &Classification, voc: &Vocabulary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "query     : {}", c.minimized.display(voc));
    let _ = writeln!(out, "complexity: {}", c.complexity);
    match &c.complexity {
        Complexity::PTime(reason) => match reason {
            PTimeReason::Trivial => {
                let _ = writeln!(out, "  the minimized query has no sub-goals (constant).");
            }
            PTimeReason::HierarchicalNoSelfJoin => {
                let _ = writeln!(
                    out,
                    "  hierarchical without self-joins: evaluated by the Eq. 3 recurrence."
                );
            }
            PTimeReason::InversionFree => {
                let _ = writeln!(
                    out,
                    "  the strict coverage has no inversion: evaluated by the §3.2 safe plan."
                );
                if let Some(cov) = &c.coverage {
                    let _ = writeln!(
                        out,
                        "  coverage: {} factor(s), {} cover(s)",
                        cov.factors.len(),
                        cov.covers.len()
                    );
                    for (i, f) in cov.factors.iter().enumerate() {
                        let _ = writeln!(out, "    f{}: {}", i, f.display(voc));
                    }
                }
            }
            PTimeReason::ErasableInversions => {
                let _ = writeln!(
                    out,
                    "  every hierarchically joined inversion has an eraser (Thm 3.17)."
                );
            }
        },
        Complexity::SharpPHard(reason) => match reason {
            HardReason::NonHierarchical(w) => {
                let _ = writeln!(
                    out,
                    "  non-hierarchical (Thm 1.4): sg({}) and sg({}) cross.",
                    w.x, w.y
                );
                let _ = writeln!(
                    out,
                    "  witness pattern: {} | {} | {}",
                    c.minimized.atoms[w.only_x].display(voc),
                    c.minimized.atoms[w.both].display(voc),
                    c.minimized.atoms[w.only_y].display(voc),
                );
                let _ = writeln!(
                    out,
                    "  hardness via the Theorem B.5 reduction from bipartite-2DNF counting."
                );
            }
            HardReason::EraserFreeInversion { join, chain_length } => {
                let _ = writeln!(
                    out,
                    "  an inversion without an eraser (Thm 4.4): reduction from H_{chain_length}."
                );
                let _ = writeln!(out, "  offending join query: {}", join.display(voc));
                if let Some(inv) = &c.inversion {
                    let _ = writeln!(out, "  inversion path ({} node(s)):", inv.path.len());
                    for node in &inv.path {
                        let rel = match node.rel {
                            VarRel::Above => "⊐",
                            VarRel::Below => "⊏",
                            VarRel::Equivalent => "≡",
                            _ => "?",
                        };
                        let _ = writeln!(
                            out,
                            "    (f{}, {}, {})  {} {} {}",
                            node.factor, node.x, node.y, node.x, rel, node.y
                        );
                    }
                }
            }
        },
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use cq::parse_query;

    fn explained(text: &str) -> String {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, text).unwrap();
        let c = classify(&q).unwrap();
        explain(&c, &voc)
    }

    #[test]
    fn explains_recurrence_case() {
        let s = explained("R(x), S(x,y)");
        assert!(s.contains("Eq. 3 recurrence"), "{s}");
    }

    #[test]
    fn explains_non_hierarchical_witness() {
        let s = explained("R(x), S(x,y), T(y)");
        assert!(s.contains("non-hierarchical"), "{s}");
        assert!(
            s.contains("R(") && s.contains("S(") && s.contains("T("),
            "{s}"
        );
        assert!(s.contains("Theorem B.5"), "{s}");
    }

    #[test]
    fn explains_inversion_path() {
        let s = explained("R(x), S(x,y), S(u,v), T(v)");
        assert!(s.contains("inversion without an eraser"), "{s}");
        assert!(s.contains("inversion path"), "{s}");
        assert!(s.contains("H_0"), "{s}");
    }

    #[test]
    fn explains_inversion_free_coverage() {
        let s = explained("P(x), R(x,y), R(x2,y2), S(x2)");
        assert!(s.contains("no inversion"), "{s}");
        assert!(s.contains("factor(s)"), "{s}");
    }

    #[test]
    fn explains_evaluation_timings_and_method() {
        use crate::engine::{Engine, Strategy};
        use cq::Value;
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = pdb::ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(2)], 0.4);
        // Second component: a multi-clause lineage so forced Monte Carlo
        // has a genuine standard error to render.
        db.insert(r, vec![Value(3)], 0.7);
        db.insert(s, vec![Value(3), Value(4)], 0.6);
        let engine = Engine::new();
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        let text = explain_evaluation(&ev);
        assert!(text.contains("method    : extensional-plan"), "{text}");
        assert!(text.contains("planning"), "{text}");
        assert!(text.contains("execution"), "{text}");
        let again = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert!(explain_evaluation(&again).contains("plan-cache hit"));
        let mc = engine
            .evaluate(&db, &q, Strategy::MonteCarlo { samples: 5_000 })
            .unwrap();
        assert!(explain_evaluation(&mc).contains("±"), "std error rendered");
    }

    #[test]
    fn explains_parallel_thread_counters() {
        use crate::engine::{Engine, ExecOptions, Strategy};
        use cq::Value;
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = pdb::ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(2)], 0.4);
        let engine = Engine::with_options(1_000, 1, ExecOptions::with_threads(2));
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        let text = explain_evaluation(&ev);
        assert!(text.contains("threads   : 2"), "{text}");
        assert!(text.contains("worker 0"), "{text}");
    }

    #[test]
    fn explains_dag_scheduler_and_shard_counters() {
        use crate::engine::{Engine, ExecOptions, Strategy};
        use cq::Value;
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = pdb::ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(2)], 0.4);
        let engine = Engine::with_options(1_000, 1, ExecOptions::with_tuning(2, 4));
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        let text = explain_evaluation(&ev);
        assert!(text.contains("scheduler :"), "{text}");
        assert!(text.contains("task(s), peak"), "{text}");
        assert!(text.contains("built left"), "{text}");
        // Tiny scans: the requested fan-out collapses to monolithic.
        assert!(
            text.contains("shards    : 1 (cost model kept scans monolithic)"),
            "{text}"
        );
    }

    #[test]
    fn explains_erasable_inversions() {
        let s = explained(
            "R(r,x), S(r,x,y), U('a',r), U(r,z), V(r,z), \
             S(r2,x2,y2), T(r2,y2), V('a',r2), \
             R('a','b'), S('a','b','c'), U('a','a')",
        );
        assert!(s.contains("eraser"), "{s}");
    }
}
