//! Result-cache semantics (the serving layer's read short-circuit): a
//! hit must be **bit-for-bit** the memoized cold run — including Monte
//! Carlo estimates, which are deterministic per `(seed, threads,
//! samples)` — and the key must separate everything that could change
//! the answer: database identity (uid), version, strategy, sample
//! budget, and executor shape.

use probdb::prelude::*;

fn hard_db() -> (ProbDb, Query) {
    // H0 = R(x), S(x, y), T(y) — the canonical #P-hard query, so Auto
    // takes the sampling path and bit-identity is a real statement about
    // RNG reproducibility, not just exact arithmetic.
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x, y), T(y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let t = voc.find_relation("T").unwrap();
    let mut db = ProbDb::new(voc);
    let mut batch = DeltaBatch::new();
    // Kept sparse so the query probability sits well inside (0, 1) —
    // otherwise every estimate saturates at the same bits and
    // distinguishing cache entries by their answers is meaningless.
    for i in 0..6u64 {
        batch.insert(r, vec![Value(i)], 0.10 + (i as f64) * 0.02);
        batch.insert(t, vec![Value(i)], 0.15);
        for j in 0..6u64 {
            if (i + j) % 3 == 0 {
                batch.insert(s, vec![Value(i), Value(j)], 0.2);
            }
        }
    }
    db.apply(&batch);
    (db, q)
}

fn mc_engine(samples: u64, seed: u64) -> Engine {
    Engine::with_options(samples, seed, ExecOptions::default()).with_result_cache()
}

#[test]
fn hits_are_bit_identical_to_the_cold_run_even_for_sampling() {
    let (db, q) = hard_db();
    let engine = mc_engine(4_000, 0xABCD);

    let cold = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    assert!(!cold.result_cache_hit);
    assert!(cold.std_error > 0.0, "expected the sampling path");

    let hit = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    assert!(hit.result_cache_hit, "second identical read must hit");
    assert_eq!(hit.probability.to_bits(), cold.probability.to_bits());
    assert_eq!(hit.std_error.to_bits(), cold.std_error.to_bits());
    assert_eq!(hit.method, cold.method);

    let rc = engine.result_cache().unwrap();
    assert_eq!(rc.hits(), 1);
    assert_eq!(rc.misses(), 1);
}

#[test]
fn keys_separate_version_strategy_and_database_identity() {
    let (mut db, q) = hard_db();
    let engine = mc_engine(2_000, 0x1234);

    let a = engine.evaluate(&db, &q, Strategy::Auto).unwrap();

    // A different strategy (explicit budget) must not collide with Auto.
    let forced = engine
        .evaluate(&db, &q, Strategy::MonteCarlo { samples: 500 })
        .unwrap();
    assert!(!forced.result_cache_hit);

    // A clone is a distinct database identity even at the same version:
    // its tuples could diverge later, so it gets a fresh uid and never
    // shares entries with the original.
    let clone = db.clone();
    assert_eq!(clone.version(), db.version());
    assert_ne!(clone.uid(), db.uid());
    let via_clone = engine.evaluate(&clone, &q, Strategy::Auto).unwrap();
    assert!(!via_clone.result_cache_hit);
    // Same content, same seed → same bits, via a different cache entry.
    assert_eq!(via_clone.probability.to_bits(), a.probability.to_bits());

    // A version bump invalidates by construction (new key, old entries
    // left to age out of the LRU).
    let r = db.voc.find_relation("R").unwrap();
    let mut bump = DeltaBatch::new();
    bump.update(r, vec![Value(0)], 0.99);
    db.apply(&bump);
    let after = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    assert!(!after.result_cache_hit);
    assert_ne!(after.probability.to_bits(), a.probability.to_bits());

    // And a repeat at the new version hits again.
    let again = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    assert!(again.result_cache_hit);
    assert_eq!(again.probability.to_bits(), after.probability.to_bits());
}

#[test]
fn different_seeds_and_budgets_never_share_entries() {
    let (db, q) = hard_db();

    let a1 = mc_engine(2_000, 1)
        .evaluate(&db, &q, Strategy::Auto)
        .unwrap();
    let a2 = mc_engine(2_000, 2)
        .evaluate(&db, &q, Strategy::Auto)
        .unwrap();
    // Different seeds produce different estimates — if these collided in
    // a shared cache the bits would have to match.
    assert_ne!(a1.probability.to_bits(), a2.probability.to_bits());

    let engine = mc_engine(2_000, 1);
    let small = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    let engine_big = mc_engine(8_000, 1);
    let big = engine_big.evaluate(&db, &q, Strategy::Auto).unwrap();
    assert!(!big.result_cache_hit);
    assert!(
        big.std_error < small.std_error,
        "larger budget must tighten the estimate, not replay the small one"
    );
}

#[test]
fn disabled_cache_never_reports_hits() {
    let (db, q) = hard_db();
    let engine = Engine::with_options(2_000, 7, ExecOptions::default());
    assert!(engine.result_cache().is_none());
    let a = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    let b = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
    assert!(!a.result_cache_hit && !b.result_cache_hit);
}
