//! Plan rewriting: algebraic rules and cost-based join ordering.
//!
//! The compiler emits canonical plans; real engines (the paper's MystiQ
//! context) rewrite them before execution. Every rule here preserves the
//! plan's probability semantics:
//!
//! * **flatten** — `⋈(…, ⋈(a,b), …) → ⋈(…, a, b, …)` (independent join is
//!   associative),
//! * **unit** — drop `certain` inputs (unit of independent join), unwrap
//!   single-input joins,
//! * **merge-projects** — `Π_K(Π_L(x)) → Π_K(x)` when `K ⊆ L`: the
//!   complement-products compose, `1 − Π_g (1 − (1 − Π_{i∈g}(1−p_i))) =
//!   1 − Π_i (1 − p_i)`,
//! * **push-select** — selections commute with independent project when
//!   they only read kept columns (groups are filtered wholesale), and slide
//!   into the join input that binds all their columns,
//! * **join ordering** — inputs sorted by estimated cardinality so the
//!   running intermediate result stays small (a textbook heuristic; exact
//!   scan counts come from the database, selectivities are documented
//!   constants).
//!
//! The equivalence of every rewrite is fuzz-checked in `tests` by executing
//! original and optimized plans on random databases.

use crate::node::PlanNode;
use cq::{Atom, Term, Var};
use pdb::ProbDb;
use std::collections::BTreeSet;

/// Apply all semantics-preserving rules to a fixpoint (no cost model).
pub fn optimize(plan: &PlanNode) -> PlanNode {
    let mut cur = plan.clone();
    loop {
        let next = rewrite_once(&cur);
        if next == cur {
            return cur;
        }
        cur = next;
    }
}

/// As [`optimize`], then order join inputs by estimated cardinality
/// against `db` (ascending — smallest input first keeps intermediate
/// results small).
pub fn optimize_with_stats(plan: &PlanNode, db: &ProbDb) -> PlanNode {
    order_joins(&optimize(plan), db)
}

/// The output columns a node produces, computed statically.
pub fn columns(plan: &PlanNode) -> BTreeSet<Var> {
    match plan {
        PlanNode::Certain | PlanNode::Never => BTreeSet::new(),
        PlanNode::Scan { atom } | PlanNode::ComplementScan { atom } => {
            atom.vars().into_iter().collect()
        }
        PlanNode::Select { input, .. } => columns(input),
        PlanNode::IndependentJoin { inputs } => inputs.iter().flat_map(columns).collect(),
        PlanNode::IndependentProject { keep, .. } => keep.iter().copied().collect(),
    }
}

fn rewrite_once(plan: &PlanNode) -> PlanNode {
    // Rewrite children first, then apply the local rules bottom-up.
    let node = match plan {
        PlanNode::Certain
        | PlanNode::Never
        | PlanNode::Scan { .. }
        | PlanNode::ComplementScan { .. } => plan.clone(),
        PlanNode::Select { pred, input } => PlanNode::Select {
            pred: *pred,
            input: Box::new(rewrite_once(input)),
        },
        PlanNode::IndependentJoin { inputs } => PlanNode::IndependentJoin {
            inputs: inputs.iter().map(rewrite_once).collect(),
        },
        PlanNode::IndependentProject { keep, input } => PlanNode::IndependentProject {
            keep: keep.clone(),
            input: Box::new(rewrite_once(input)),
        },
    };
    apply_local(node)
}

fn apply_local(node: PlanNode) -> PlanNode {
    match node {
        PlanNode::IndependentJoin { inputs } => {
            // flatten + unit.
            let mut flat: Vec<PlanNode> = Vec::with_capacity(inputs.len());
            for i in inputs {
                match i {
                    PlanNode::IndependentJoin { inputs: nested } => flat.extend(nested),
                    PlanNode::Certain => {}
                    other => flat.push(other),
                }
            }
            match flat.len() {
                0 => PlanNode::Certain,
                1 => flat.pop().expect("one input"),
                _ => PlanNode::IndependentJoin { inputs: flat },
            }
        }
        PlanNode::IndependentProject { keep, input } => match *input {
            // merge-projects (sound when the outer keeps a subset).
            PlanNode::IndependentProject {
                keep: inner_keep,
                input: inner,
            } if keep.iter().all(|k| inner_keep.contains(k)) => {
                PlanNode::IndependentProject { keep, input: inner }
            }
            // Projecting constants stays constant.
            PlanNode::Certain => PlanNode::Certain,
            PlanNode::Never => PlanNode::Never,
            other => PlanNode::IndependentProject {
                keep,
                input: Box::new(other),
            },
        },
        PlanNode::Select { pred, input } => {
            let pred_vars: BTreeSet<Var> = pred
                .terms()
                .iter()
                .filter_map(|t| match t {
                    Term::Var(v) => Some(*v),
                    Term::Const(_) => None,
                })
                .collect();
            match *input {
                // push-select below project.
                PlanNode::IndependentProject { keep, input: inner }
                    if pred_vars.iter().all(|v| keep.contains(v)) =>
                {
                    PlanNode::IndependentProject {
                        keep,
                        input: Box::new(PlanNode::Select { pred, input: inner }),
                    }
                }
                // push-select into the first covering join input.
                PlanNode::IndependentJoin { inputs } => {
                    let covering = inputs
                        .iter()
                        .position(|i| pred_vars.iter().all(|v| columns(i).contains(v)));
                    match covering {
                        Some(idx) => {
                            let mut inputs = inputs;
                            let target = inputs.remove(idx);
                            inputs.insert(
                                idx,
                                PlanNode::Select {
                                    pred,
                                    input: Box::new(target),
                                },
                            );
                            PlanNode::IndependentJoin { inputs }
                        }
                        None => PlanNode::Select {
                            pred,
                            input: Box::new(PlanNode::IndependentJoin { inputs }),
                        },
                    }
                }
                PlanNode::Never => PlanNode::Never,
                other => PlanNode::Select {
                    pred,
                    input: Box::new(other),
                },
            }
        }
        other => other,
    }
}

/// The exact number of tuple ids the executor will visit for `atom`: the
/// smallest constant-pushdown posting list when the atom has constants,
/// the full relation otherwise — the same pure choice `ScanSpec::new`
/// makes, read here without running the scan. This is the cost model's
/// ground truth: posting-list sizes, not materialized row counts.
pub fn scan_estimate(db: &ProbDb, atom: &Atom) -> usize {
    let all = db.tuples_of(atom.rel).len();
    let mut best: Option<usize> = None;
    for (pos, term) in atom.args.iter().enumerate() {
        if let Term::Const(c) = term {
            let len = db.tuples_with(atom.rel, pos, *c).len();
            if best.is_none_or(|b| len < b) {
                best = Some(len);
            }
        }
    }
    best.unwrap_or(all)
}

/// Estimated output cardinality of a node against `db`. Scans start from
/// the **exact posting-list size** the executor will visit (see
/// [`scan_estimate`]) — constants beyond the pushed-down one and
/// repeated-variable positions still filter at the documented 1/3 guess;
/// selections keep 1/3; independent projects keep every group (an upper
/// bound: the group count is at most the row count); joins multiply and
/// divide by 2 per shared column — the classic System-R-flavoured guess,
/// sufficient for input ordering and build-side selection.
pub fn estimate_rows(plan: &PlanNode, db: &ProbDb) -> f64 {
    match plan {
        PlanNode::Certain => 1.0,
        PlanNode::Never => 0.0,
        PlanNode::Scan { atom } => {
            let consts = atom
                .args
                .iter()
                .filter(|t| matches!(t, Term::Const(_)))
                .count();
            // Repeated-variable positions: arity minus constants minus
            // distinct output columns.
            let repeated = atom.args.len() - consts - columns(plan).len();
            // One constant is priced exactly by the posting list; each
            // residual constant and repeated position filters at 1/3.
            let (base, residual) = if consts > 0 {
                (scan_estimate(db, atom) as f64, consts - 1 + repeated)
            } else {
                (db.tuples_of(atom.rel).len() as f64, repeated)
            };
            base / 3f64.powi(residual as i32)
        }
        PlanNode::ComplementScan { .. } => {
            // One row per domain binding of the distinct variables.
            (db.active_domain().len().max(1) as f64).powi(columns(plan).len() as i32)
        }
        PlanNode::Select { input, .. } => estimate_rows(input, db) / 3.0,
        PlanNode::IndependentProject { input, .. } => estimate_rows(input, db),
        PlanNode::IndependentJoin { inputs } => {
            let mut rows = 1.0;
            let mut seen: BTreeSet<Var> = BTreeSet::new();
            for i in inputs {
                let shared = columns(i).intersection(&seen).count();
                rows *= estimate_rows(i, db) / 2f64.powi(shared as i32);
                seen.extend(columns(i));
            }
            rows
        }
    }
}

/// Minimum posting-list size at which hash-sharding a plan's scans pays
/// for its per-shard scaffolding. Deliberately low so mid-size test
/// workloads still exercise the sharded path when a test asks for shards;
/// tiny inputs collapse to the monolithic plane.
pub const SHARD_MIN_ROWS: usize = 256;

/// The shard fan-out the cost model grants `plan`: the `requested` count
/// when at least one scan will visit [`SHARD_MIN_ROWS`] or more tuple ids
/// (per [`scan_estimate`] — posting lists, not materialized counts),
/// otherwise 1. A pure function of `(plan, db, requested)`, so every
/// executor and refresh path lands on the same data-plane layout.
pub fn plan_shard_fanout(plan: &PlanNode, db: &ProbDb, requested: usize) -> usize {
    if requested <= 1 {
        return 1;
    }
    if widest_scan(plan, db) >= SHARD_MIN_ROWS {
        requested
    } else {
        1
    }
}

/// The largest tuple-id list any scan in `plan` will visit. Complement
/// scans contribute nothing: their rows are generated bindings with no
/// tuple ids, so they never shard.
fn widest_scan(plan: &PlanNode, db: &ProbDb) -> usize {
    match plan {
        PlanNode::Certain | PlanNode::Never | PlanNode::ComplementScan { .. } => 0,
        PlanNode::Scan { atom } => scan_estimate(db, atom),
        PlanNode::Select { input, .. } | PlanNode::IndependentProject { input, .. } => {
            widest_scan(input, db)
        }
        PlanNode::IndependentJoin { inputs } => {
            inputs.iter().map(|i| widest_scan(i, db)).max().unwrap_or(0)
        }
    }
}

fn order_joins(plan: &PlanNode, db: &ProbDb) -> PlanNode {
    match plan {
        PlanNode::Certain
        | PlanNode::Never
        | PlanNode::Scan { .. }
        | PlanNode::ComplementScan { .. } => plan.clone(),
        PlanNode::Select { pred, input } => PlanNode::Select {
            pred: *pred,
            input: Box::new(order_joins(input, db)),
        },
        PlanNode::IndependentProject { keep, input } => PlanNode::IndependentProject {
            keep: keep.clone(),
            input: Box::new(order_joins(input, db)),
        },
        PlanNode::IndependentJoin { inputs } => {
            let mut ordered: Vec<PlanNode> = inputs.iter().map(|i| order_joins(i, db)).collect();
            ordered.sort_by(|a, b| {
                estimate_rows(a, db)
                    .partial_cmp(&estimate_rows(b, db))
                    .expect("finite estimates")
            });
            PlanNode::IndependentJoin { inputs: ordered }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_plan;
    use crate::dag::query_probability;
    use cq::{parse_query, Pred, Query, Vocabulary};
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn parse(s: &str) -> (Vocabulary, Query) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, s).unwrap();
        (voc, q)
    }

    #[test]
    fn flatten_and_unit() {
        let (_, q) = parse("R(x)");
        let scan = PlanNode::Scan {
            atom: q.atoms[0].clone(),
        };
        let nested = PlanNode::IndependentJoin {
            inputs: vec![
                PlanNode::Certain,
                PlanNode::IndependentJoin {
                    inputs: vec![scan.clone(), PlanNode::Certain],
                },
            ],
        };
        assert_eq!(optimize(&nested), scan);
    }

    #[test]
    fn empty_join_is_certain() {
        let j = PlanNode::IndependentJoin {
            inputs: vec![PlanNode::Certain, PlanNode::Certain],
        };
        assert_eq!(optimize(&j), PlanNode::Certain);
    }

    #[test]
    fn cascaded_projects_merge() {
        let (_, q) = parse("S(x,y)");
        let x = q.vars()[0];
        let scan = PlanNode::Scan {
            atom: q.atoms[0].clone(),
        };
        let cascade = PlanNode::IndependentProject {
            keep: vec![],
            input: Box::new(PlanNode::IndependentProject {
                keep: vec![x],
                input: Box::new(scan.clone()),
            }),
        };
        let opt = optimize(&cascade);
        assert_eq!(
            opt,
            PlanNode::IndependentProject {
                keep: vec![],
                input: Box::new(scan)
            }
        );
    }

    #[test]
    fn merged_projects_compute_the_same_probability() {
        // The merge rule's soundness, checked numerically.
        let (voc, q) = parse("S(x,y)");
        let x = q.vars()[0];
        let scan = PlanNode::Scan {
            atom: q.atoms[0].clone(),
        };
        let cascade = PlanNode::IndependentProject {
            keep: vec![],
            input: Box::new(PlanNode::IndependentProject {
                keep: vec![x],
                input: Box::new(scan),
            }),
        };
        let merged = optimize(&cascade);
        let mut rng = StdRng::seed_from_u64(3);
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 6,
            prob_range: (0.1, 0.9),
        };
        for _ in 0..5 {
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let a = query_probability(&db, &cascade);
            let b = query_probability(&db, &merged);
            assert!((a - b).abs() < 1e-12, "cascade {a} vs merged {b}");
        }
    }

    #[test]
    fn select_pushes_below_project_and_into_join() {
        let (_, q) = parse("R(x), S(x,y), x != 1");
        let x = q.vars()[0];
        let scan_r = PlanNode::Scan {
            atom: q.atoms[0].clone(),
        };
        let scan_s = PlanNode::Scan {
            atom: q.atoms[1].clone(),
        };
        let pred: Pred = q.preds[0];
        let plan = PlanNode::Select {
            pred,
            input: Box::new(PlanNode::IndependentProject {
                keep: vec![x],
                input: Box::new(PlanNode::IndependentJoin {
                    inputs: vec![scan_r.clone(), scan_s],
                }),
            }),
        };
        let opt = optimize(&plan);
        // The select must now sit directly above a scan inside the join.
        match &opt {
            PlanNode::IndependentProject { input, .. } => match &**input {
                PlanNode::IndependentJoin { inputs } => {
                    assert!(inputs
                        .iter()
                        .any(|i| matches!(i, PlanNode::Select { input, .. } if matches!(**input, PlanNode::Scan { .. }))));
                }
                other => panic!("expected join, got {other:?}"),
            },
            other => panic!("expected project on top, got {other:?}"),
        }
    }

    #[test]
    fn columns_are_computed_statically() {
        let (_, q) = parse("R(x), S(x,y)");
        let plan = build_plan(&q).unwrap();
        assert!(columns(&plan).is_empty(), "Boolean plan has no columns");
        if let PlanNode::IndependentProject { input, .. } = &plan {
            assert_eq!(columns(input).len(), 1);
        }
    }

    #[test]
    fn optimizer_is_idempotent() {
        for text in [
            "R(x), S(x,y)",
            "R(x), S(x,y), U(x,y,z), x != 1",
            "R(x), T(z,w)",
        ] {
            let (_, q) = parse(text);
            let plan = build_plan(&q).unwrap();
            let once = optimize(&plan);
            assert_eq!(optimize(&once), once, "not idempotent on {text}");
        }
    }

    #[test]
    fn optimized_plans_preserve_probabilities() {
        let shapes = [
            "R(x), S(x,y)",
            "R(x), S(x,y), U(x,y,z)",
            "R(x), S(x,y), x < y",
            "R(x), S(x,y), x != 1",
            "R(x), T(z,w), S(x,y)",
            "S(u,v), T(u,v), u < v",
        ];
        let mut rng = StdRng::seed_from_u64(0x0071);
        for shape in shapes {
            let (voc, q) = parse(shape);
            let plan = build_plan(&q).unwrap();
            let opts = RandomDbOptions {
                domain: 3,
                tuples_per_relation: 4,
                prob_range: (0.05, 0.95),
            };
            for round in 0..4 {
                let db = random_db_for_query(&q, &voc, opts, &mut rng);
                let base = query_probability(&db, &plan);
                let opt = query_probability(&db, &optimize(&plan));
                let opt_stats = query_probability(&db, &optimize_with_stats(&plan, &db));
                assert!(
                    (base - opt).abs() < 1e-12,
                    "{shape} round {round}: {base} vs optimized {opt}"
                );
                assert!(
                    (base - opt_stats).abs() < 1e-12,
                    "{shape} round {round}: {base} vs stats-optimized {opt_stats}"
                );
            }
        }
    }

    #[test]
    fn join_ordering_puts_small_inputs_first() {
        let (voc, q) = parse("R(x), S(x,y)");
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        // R much larger than S.
        for i in 0..20u64 {
            db.insert(r, vec![cq::Value(i)], 0.5);
        }
        db.insert(s, vec![cq::Value(0), cq::Value(1)], 0.5);
        let plan = build_plan(&q).unwrap();
        let opt = optimize_with_stats(&plan, &db);
        if let PlanNode::IndependentProject { input, .. } = &opt {
            if let PlanNode::IndependentJoin { inputs } = &**input {
                let first = estimate_rows(&inputs[0], &db);
                let second = estimate_rows(&inputs[1], &db);
                assert!(
                    first <= second,
                    "join inputs not ordered: {first} > {second}"
                );
                return;
            }
        }
        panic!("unexpected plan shape: {opt:?}");
    }

    #[test]
    fn scan_estimates_read_posting_lists() {
        let (voc, q) = parse("S(1,y)");
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        // 3 tuples match S(1, _) out of 20.
        for i in 0..20u64 {
            let key = if i < 3 { 1 } else { i + 10 };
            db.insert(s, vec![cq::Value(key), cq::Value(i)], 0.5);
        }
        let atom = &q.atoms[0];
        assert_eq!(scan_estimate(&db, atom), 3, "posting list is exact");
        let est = estimate_rows(&PlanNode::Scan { atom: atom.clone() }, &db);
        assert_eq!(est, 3.0, "one constant priced exactly, no residuals");
    }

    #[test]
    fn shard_fanout_collapses_on_tiny_inputs() {
        let (voc, q) = parse("R(x), S(x,y)");
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 0..10u64 {
            db.insert(r, vec![cq::Value(i)], 0.5);
            db.insert(s, vec![cq::Value(i), cq::Value(i + 1)], 0.5);
        }
        let plan = build_plan(&q).unwrap();
        // Ten-tuple scans are below the threshold: collapse to 1.
        assert_eq!(plan_shard_fanout(&plan, &db, 4), 1);
        assert_eq!(plan_shard_fanout(&plan, &db, 1), 1);
        // Grow one relation past the threshold: the request is granted.
        for i in 10..(SHARD_MIN_ROWS as u64 + 10) {
            db.insert(r, vec![cq::Value(i)], 0.5);
        }
        assert_eq!(plan_shard_fanout(&plan, &db, 4), 4);
        assert_eq!(plan_shard_fanout(&plan, &db, 1), 1, "requested 1 stays 1");
    }
}
