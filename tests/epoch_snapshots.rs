//! Torn-snapshot property test (the epoch discipline's core guarantee):
//! concurrent readers racing a writer that applies random `DeltaBatch`es
//! must only ever observe **bit-for-bit the result of some published
//! epoch** — never a mix of two epochs — and the versions seen by each
//! reader must be monotone. Verified by first replaying the same batch
//! sequence serially to build a `version → probability-bits` oracle, then
//! racing {2, 4, 8} readers against the live writer and checking every
//! observation for oracle membership.
//!
//! The writer recycles retired epochs as its next write buffer, so half
//! the readers also *hold* each snapshot across a random number of further
//! publishes and check it again when they let go: a buffer recycled while
//! a reader still had it would have moved under them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use probdb::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const READER_COUNTS: [usize; 3] = [2, 4, 8];
const BATCHES: usize = 24;

fn build_db(voc: &Vocabulary, rng: &mut StdRng) -> ProbDb {
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc.clone());
    let mut batch = DeltaBatch::new();
    for _ in 0..30 {
        let x = rng.gen_range(0..12u64);
        batch.insert(r, vec![Value(x)], rng.gen_range(0.05..0.95));
        batch.insert(
            s,
            vec![Value(x), Value(rng.gen_range(0..12u64))],
            rng.gen_range(0.05..0.95),
        );
    }
    db.apply(&batch);
    db
}

/// A mix of inserts, probability updates, and deletes over the query's
/// relations — some ops colliding with existing tuples (the upsert path).
fn random_batches(voc: &Vocabulary, rng: &mut StdRng) -> Vec<DeltaBatch> {
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    (0..BATCHES)
        .map(|_| {
            let mut batch = DeltaBatch::new();
            for _ in 0..rng.gen_range(1..=5usize) {
                let (rel, args) = if rng.gen_bool(0.5) {
                    (r, vec![Value(rng.gen_range(0..12u64))])
                } else {
                    (
                        s,
                        vec![
                            Value(rng.gen_range(0..12u64)),
                            Value(rng.gen_range(0..12u64)),
                        ],
                    )
                };
                match rng.gen_range(0..3u32) {
                    0 => batch.insert(rel, args, rng.gen_range(0.05..0.95)),
                    1 => batch.update(rel, args, rng.gen_range(0.05..0.95)),
                    _ => batch.delete(rel, args),
                };
            }
            batch
        })
        .collect()
}

fn prob_bits(db: &ProbDb) -> Vec<u64> {
    db.probs().iter().map(|p| p.to_bits()).collect()
}

#[test]
fn readers_only_observe_published_epochs() {
    let mut rng = StdRng::seed_from_u64(0xE90C);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x, y)").unwrap();

    for &readers in &READER_COUNTS {
        let db = build_db(&voc, &mut rng);
        let batches = random_batches(&voc, &mut rng);

        // Serial replay: the oracle of every publishable state. The query
        // is hierarchical, so Auto evaluates extensionally — exact and
        // deterministic, making bit-equality meaningful.
        let oracle_engine = Engine::new();
        let mut oracle: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut replay = db.clone();
        let ev = oracle_engine.evaluate(&replay, &q, Strategy::Auto).unwrap();
        oracle.insert(replay.version(), ev.probability.to_bits());
        for b in &batches {
            replay.apply(b);
            let ev = oracle_engine.evaluate(&replay, &q, Strategy::Auto).unwrap();
            oracle.insert(replay.version(), ev.probability.to_bits());
        }
        assert_eq!(oracle.len(), BATCHES + 1);

        // Race: one writer publishing every batch, `readers` readers
        // continuously snapshotting and evaluating.
        let store = EpochStore::new(db);
        let engine = Arc::new(Engine::new());
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for idx in 0..readers {
                let mut reader = store.reader();
                let engine = Arc::clone(&engine);
                let done = Arc::clone(&done);
                let oracle = &oracle;
                let q = &q;
                let store = &store;
                let mut hold_rng = StdRng::seed_from_u64(0x401D + idx as u64);
                handles.push(scope.spawn(move || {
                    let mut last_version = 0u64;
                    let mut observations = 0usize;
                    while !done.load(Ordering::Relaxed) {
                        let snap = reader.snapshot();
                        let version = snap.version();
                        assert!(
                            version >= last_version,
                            "snapshot versions went backwards: {last_version} -> {version}"
                        );
                        last_version = version;
                        let ev = engine.evaluate(&snap, q, Strategy::Auto).unwrap();
                        let expected = oracle
                            .get(&version)
                            .unwrap_or_else(|| panic!("observed unpublished version {version}"));
                        assert_eq!(
                            ev.probability.to_bits(),
                            *expected,
                            "torn read at version {version}: result is not bit-for-bit \
                             the serial replay of that epoch"
                        );
                        observations += 1;
                        if idx % 2 == 1 {
                            // Keep this epoch while the writer publishes
                            // 1–4 more (retiring it, and looking for a
                            // buffer to recycle), then look again.
                            let held = prob_bits(&snap);
                            let release_at = store.epoch() + hold_rng.gen_range(1..=4u64);
                            while store.epoch() < release_at && !done.load(Ordering::Relaxed) {
                                std::thread::yield_now();
                            }
                            assert_eq!(snap.version(), version, "held snapshot changed version");
                            assert_eq!(
                                prob_bits(&snap),
                                held,
                                "held epoch {version} mutated under its reader"
                            );
                            // A fresh engine: no result cache can answer
                            // from memory instead of from the held epoch.
                            let ev = Engine::new().evaluate(&snap, q, Strategy::Auto).unwrap();
                            assert_eq!(
                                ev.probability.to_bits(),
                                *expected,
                                "held epoch {version} no longer evaluates to its published result"
                            );
                        }
                    }
                    observations
                }));
            }
            for b in &batches {
                store.apply(b);
                // A tiny pause so readers interleave with distinct epochs.
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            done.store(true, Ordering::Relaxed);
            let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(total > 0, "readers never got to observe anything");
        });
        assert_eq!(store.version(), replay.version());
        // With every reader joined nobody holds the previous epoch, so the
        // next write recycles it instead of cloning the database.
        let r = voc.find_relation("R").unwrap();
        let mut flush = DeltaBatch::new();
        flush.insert(r, vec![Value(999)], 0.5);
        let before = store.publish_counts();
        store.apply(&flush);
        let after = store.publish_counts();
        assert_eq!(
            after.recycled,
            before.recycled + 1,
            "{before:?} -> {after:?}"
        );
        assert_eq!(after.cloned, before.cloned, "{before:?} -> {after:?}");
    }
}
