//! Cross-engine checks for the extensional plan subsystem: every query the
//! plan compiler accepts must produce the same probabilities as the engine's
//! tuple-at-a-time evaluators and as exhaustive world enumeration, in both
//! `f64` and exact rational arithmetic — on randomly generated databases
//! and randomly generated queries.

mod common;

use common::random_hierarchical_query;
use dichotomy::engine::{Engine, Strategy};
use pdb::generators::{random_db_for_query, RandomDbOptions};
use pdb::{satisfies, WorldIter};
use probdb::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn plans_agree_with_engine_across_query_shapes() {
    let shapes = [
        "R(x)",
        "R(x), S(x,y)",
        "R(x), S(x,y), U(x,y,z)",
        "R(x), T(z,w)",
        "R(1), S(1,y)",
        "S(x,y), x < y",
        "R(x), S(x,y), x != y",
        "S(x,x)",
        "S(u,v), T(u,v)",
        "R(x), S(x,y), U(x,y,z), T(x,w)",
    ];
    let engine = Engine::new();
    let mut rng = StdRng::seed_from_u64(0x5AFE);
    for (i, shape) in shapes.iter().enumerate() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, shape).unwrap();
        let plan = build_plan(&q).unwrap();
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 4,
            prob_range: (0.05, 0.95),
        };
        for round in 0..3 {
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let by_plan = query_probability(&db, &plan);
            let by_engine = engine
                .evaluate(&db, &q, Strategy::Auto)
                .unwrap()
                .probability;
            assert!(
                (by_plan - by_engine).abs() < 1e-9,
                "shape {i} round {round}: plan {by_plan} vs engine {by_engine} for {shape}"
            );
            // Exact rational execution must agree with the f64 path.
            let probs = RatProbs::from_db(&db);
            let exact = query_probability_exact(&db, &probs, &plan);
            assert!(
                (exact.to_f64() - by_plan).abs() < 1e-9,
                "shape {i} round {round}: exact {exact} vs f64 {by_plan} for {shape}"
            );
        }
    }
}

/// Random self-join-free queries: whenever the compiler accepts one, its
/// plan must match brute force; whenever it rejects, the reason must be
/// visible in the query's syntax.
#[test]
fn random_queries_compile_or_reject_consistently() {
    let mut rng = StdRng::seed_from_u64(0xB111D);
    let mut compiled = 0;
    let mut rejected = 0;
    for round in 0..80u64 {
        let mut voc = Vocabulary::new();
        // Distinct relation symbols per atom: self-join-free by construction.
        let n_atoms = rng.gen_range(1..=3);
        let n_vars = rng.gen_range(1..=3u32);
        let parts: Vec<String> = (0..n_atoms)
            .map(|i| {
                let arity = rng.gen_range(1..=3usize);
                let args: Vec<String> = (0..arity)
                    .map(|_| format!("v{}", rng.gen_range(0..n_vars)))
                    .collect();
                format!("N{i}({})", args.join(","))
            })
            .collect();
        let q = parse_query(&mut voc, &parts.join(", ")).unwrap();
        match build_plan(&q) {
            Ok(plan) => {
                compiled += 1;
                let opts = RandomDbOptions {
                    domain: 2,
                    tuples_per_relation: 3,
                    prob_range: (0.1, 0.9),
                };
                let db = random_db_for_query(&q, &voc, opts, &mut rng);
                if db.num_tuples() > 18 {
                    continue;
                }
                let by_plan = query_probability(&db, &plan);
                let bf = brute_force_probability(&db, &q);
                assert!(
                    (by_plan - bf).abs() < 1e-9,
                    "round {round}: plan {by_plan} vs brute force {bf} for {q:?}"
                );
            }
            Err(safeplan::PlanError::NotHierarchical) => {
                rejected += 1;
                assert!(
                    !dichotomy::is_hierarchical(&q.normalize().unwrap()),
                    "round {round}: rejected hierarchical query {q:?}"
                );
            }
            Err(e) => panic!("round {round}: unexpected rejection {e} for {q:?}"),
        }
    }
    assert!(compiled >= 20, "only {compiled} queries compiled");
    assert!(rejected >= 5, "only {rejected} rejections exercised");
}

/// The exact plan, the exact root-recursion safe plan, and exact lineage
/// agree as rationals (no epsilon anywhere).
#[test]
fn exact_paths_agree_as_rationals() {
    let mut rng = StdRng::seed_from_u64(0xE8AC7);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let plan = build_plan(&q).unwrap();
    let opts = RandomDbOptions {
        domain: 3,
        tuples_per_relation: 4,
        prob_range: (0.1, 0.9),
    };
    for _ in 0..5 {
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let probs = RatProbs::from_db(&db);
        let by_plan = query_probability_exact(&db, &probs, &plan);
        let by_rec = eval_inversion_free(&db, probs.as_slice(), &q).unwrap();
        let by_lineage = pdb::exact_query_probability(&db, &probs, &q);
        assert_eq!(by_plan, by_rec);
        assert_eq!(by_rec, by_lineage);
    }
}

/// Substructure counting agrees across the engine's plan, lineage, and
/// world enumeration.
#[test]
fn counting_agrees_across_methods() {
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..3u64 {
        db.insert(r, vec![Value(i)], 0.7);
        db.insert(s, vec![Value(i), Value(10 + i % 2)], 0.7);
    }
    let (by_rec, _) = Engine::new().count_substructures(&db, &q);
    let by_lineage = count_satisfying_worlds_exact(&db, &q);
    let by_enum = WorldIter::new(&db)
        .filter(|(w, _)| satisfies(&db, &q, w))
        .count();
    assert_eq!(by_rec, by_lineage);
    assert_eq!(by_rec.to_u64().unwrap(), by_enum as u64);
}

/// Multisimulation's converged top-k equals the exact top-k on random
/// instances (when separated enough to converge, which the config forces by
/// a generous budget).
#[test]
fn multisim_matches_exact_ranking() {
    let mut rng = StdRng::seed_from_u64(0x707);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
    let d = q.vars()[0];
    let director = voc.find_relation("Director").unwrap();
    let credit = voc.find_relation("Credit").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..5u64 {
        db.insert(director, vec![Value(i)], rng.gen_range(0.05..0.95));
        db.insert(credit, vec![Value(i), Value(100 + i)], 0.9);
    }
    let engine = Engine::new();
    let exact = dichotomy::ranked_answers(&engine, &db, &q, &[d], Strategy::Auto).unwrap();
    let config = MultiSimConfig {
        batch: 1024,
        delta: 0.02,
        max_samples_per_candidate: 1 << 22,
        seed: 99,
        threads: 1,
    };
    let ms = multisim_top_k(&db, &q, &[d], 2, config);
    if ms.converged {
        let got: Vec<_> = ms.top.iter().map(|a| a.tuple.clone()).collect();
        let want: Vec<_> = exact.iter().take(2).map(|a| a.tuple.clone()).collect();
        assert_eq!(got, want);
    }
    // Whatever happened, the intervals must cover the exact values.
    for a in &ms.all {
        let ex = exact.iter().find(|e| e.tuple == a.tuple).unwrap();
        assert!(
            a.low - 1e-9 <= ex.probability && ex.probability <= a.high + 1e-9,
            "interval [{}, {}] misses {}",
            a.low,
            a.high,
            ex.probability
        );
    }
}

/// For randomized hierarchical self-join-free queries, the planner's
/// extensional plan, the Eq. 3 recurrence, and exact lineage compilation
/// agree within 1e-9 — the cross-engine guarantee of the planner/executor
/// split, exercised through the new Planner API.
#[test]
fn planner_extensional_recurrence_and_lineage_agree_on_random_safe_queries() {
    let mut rng = StdRng::seed_from_u64(0x91A);
    for case in 0..40 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let planner = Planner::new(10_000);
        let planned = planner.plan(&q).unwrap();
        assert!(
            matches!(planned.plan, PhysicalPlan::Extensional { .. }),
            "case {case}: safe query must compile extensionally, got {:?} for {}",
            planned.plan,
            q.display(&voc)
        );
        let executor = Executor::new(7);
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 3,
            prob_range: (0.1, 0.9),
        };
        for round in 0..2 {
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let by_plan = executor.execute(&db, &planned.plan).unwrap().probability;
            let by_rec = eval_recurrence(&db, &q).unwrap();
            let dnf = lineage_of(&db, &q);
            let by_lineage = exact_probability(&dnf, &db.prob_vector());
            assert!(
                (by_plan - by_rec).abs() < 1e-9,
                "case {case} round {round}: extensional {by_plan} vs recurrence {by_rec} for {}",
                q.display(&voc)
            );
            assert!(
                (by_plan - by_lineage).abs() < 1e-9,
                "case {case} round {round}: extensional {by_plan} vs lineage {by_lineage} for {}",
                q.display(&voc)
            );
        }
        // And the cache serves the same plan on re-planning.
        let again = planner.plan(&q).unwrap();
        assert_eq!(planner.stats().hits, 1);
        assert_eq!(again.plan.method(), planned.plan.method());
    }
}

/// Batched ranked plans agree with per-residual evaluation: for random
/// head choices over random safe queries, every candidate's probability
/// from the one-pass extensional plan matches the residual's probability
/// computed independently.
#[test]
fn batched_ranked_plans_agree_with_per_residual_evaluation() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut batched_seen = 0;
    for case in 0..30 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let vars = q.vars();
        let head = vec![vars[rng.gen_range(0..vars.len())]];
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 3,
            prob_range: (0.1, 0.9),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let engine = Engine::new();
        let answers = dichotomy::ranked_answers(&engine, &db, &q, &head, Strategy::Auto).unwrap();
        if answers.iter().all(|a| a.method == Method::Extensional) && !answers.is_empty() {
            batched_seen += 1;
        }
        for a in &answers {
            let residual = q.apply(&cq::Subst::singleton(head[0], a.tuple[0]));
            let by_rec = eval_recurrence(&db, &residual).unwrap();
            assert!(
                (a.probability - by_rec).abs() < 1e-9,
                "case {case}: batched {} vs residual recurrence {by_rec} for {} head {:?}",
                a.probability,
                q.display(&voc),
                head
            );
        }
    }
    assert!(
        batched_seen >= 10,
        "expected most random safe shapes to run batched, saw {batched_seen}"
    );
}
