//! Incremental/cold agreement: after any sequence of delta batches
//! (inserts, deletes, probability updates), an [`IncrementalView`]'s
//! refreshed output must be **bit-for-bit** what a cold execution of the
//! same plan returns against the current database — same rows, same
//! order, same `f64` bits — at refresh thread counts 1/2/4/8, on random
//! hierarchical self-join-free queries over random databases. The
//! columnar executor is the oracle.

mod common;

use common::{random_batch, random_hierarchical_query, seed_db, THREADS};
use probdb::prelude::{Engine, IncrementalView, RefreshOptions, Strategy, Vocabulary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use safeplan::{execute, optimize, ProbRelation};

fn assert_bit_identical(got: &ProbRelation<f64>, want: &ProbRelation<f64>, ctx: &str) {
    assert_eq!(got.cols(), want.cols(), "{ctx}: schema");
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for i in 0..want.len() {
        assert_eq!(got.row(i), want.row(i), "{ctx}: row {i} values");
        assert_eq!(
            got.prob(i).to_bits(),
            want.prob(i).to_bits(),
            "{ctx}: row {i} probability bits ({} vs {})",
            got.prob(i),
            want.prob(i)
        );
    }
}

/// The acceptance property: for random hierarchical SJF queries and random
/// delta sequences, `IncrementalView::refresh` output is bit-for-bit
/// identical to cold columnar execution at threads 1, 2, 4, and 8.
#[test]
fn refresh_is_bit_identical_to_cold_execution_on_random_deltas() {
    let mut rng = StdRng::seed_from_u64(0x1ECE);
    for case in 0..20 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let plan = optimize(&safeplan::build_plan(&q).unwrap());
        let mut db = seed_db(&q, &voc, &mut rng);
        // One view per thread count, all tracking the same delta history
        // (tiny grain forces multi-morsel parallel refresh schedules).
        let mut views: Vec<(usize, IncrementalView)> = THREADS
            .iter()
            .map(|&t| (t, IncrementalView::new(&db, &plan).unwrap()))
            .collect();
        for round in 0..8 {
            let batch = random_batch(&q, &db, &mut rng);
            db.apply(&batch);
            // Occasionally let a view lag a round (multi-batch catch-up).
            let lag = round % 3 == 1;
            let cold = execute(&db, &db.prob_vector(), &plan);
            for (threads, view) in &mut views {
                if lag && *threads == 4 {
                    continue;
                }
                view.refresh(&db, RefreshOptions::with_grain(*threads, 2));
                assert_bit_identical(
                    &view.output(),
                    &cold,
                    &format!(
                        "case {case} round {round} threads {threads}: {}",
                        q.display(&voc)
                    ),
                );
            }
        }
        // Views that lagged catch up on the final state.
        let cold = execute(&db, &db.prob_vector(), &plan);
        for (threads, view) in &mut views {
            view.refresh(&db, RefreshOptions::with_grain(*threads, 2));
            assert_bit_identical(
                &view.output(),
                &cold,
                &format!("case {case} final threads {threads}"),
            );
            let c = view.counters();
            assert!(
                c.incremental_refreshes > 0,
                "case {case}: refreshes should be incremental, got {c:?}"
            );
            assert_eq!(c.full_rebuilds, 0, "case {case}: no log gaps were created");
        }
    }
}

/// The engine-level wrap: `Engine::subscribe` + `ViewHandle::read` after
/// `apply` agrees with a fresh evaluation, probability bits included.
#[test]
fn subscribed_views_agree_with_cold_engine_evaluations() {
    let mut rng = StdRng::seed_from_u64(0x5_0B5C);
    for case in 0..10 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let mut db = seed_db(&q, &voc, &mut rng);
        let engine = Engine::new();
        let view = engine.subscribe(&db, &q).unwrap();
        for round in 0..5 {
            let batch = random_batch(&q, &db, &mut rng);
            db.apply(&batch);
            let reading = view.read(&db).unwrap();
            let cold = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
            assert_eq!(
                reading.evaluation.probability.to_bits(),
                cold.probability.to_bits(),
                "case {case} round {round}: {}",
                q.display(&voc)
            );
            assert_eq!(reading.version, db.version());
        }
    }
}
