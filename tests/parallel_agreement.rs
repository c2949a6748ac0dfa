//! Parallel/serial agreement at the engine layer: an engine built with
//! `ExecOptions::with_threads(n)` (the DAG executor at shard fan-out 1)
//! must return **bit-for-bit** what the serial engine returns, for every
//! thread count, through evaluation and ranked (top-k) retrieval. The
//! executor-level checks live in `columnar_agreement.rs` and
//! `sharded_agreement.rs`.

mod common;

use common::{random_db, random_hierarchical_query, THREADS};
use probdb::prelude::{
    parse_query, ranked_answers, top_k, Engine, ExecOptions, Strategy, Vocabulary,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Engine-level agreement: `ExecOptions::with_threads(n)` must not change
/// any probability the serial engine reports, across plan kinds (safe
/// extensional shapes and per-binding residual paths alike).
#[test]
fn engine_probabilities_are_thread_count_invariant() {
    let shapes = [
        "R(x)",
        "R(x), S(x,y)",
        "R(x), S(x,y), U(x,y,z)",
        "R(x), T(z,w)",
        "S(x,y), x < y",
        "S(x,x)",
        "R(x), not T(x)",
    ];
    let mut rng = StdRng::seed_from_u64(0xE9_617E);
    for shape in shapes {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, shape).unwrap();
        let db = random_db(&q, &voc, &mut rng);
        let serial = Engine::with_options(10_000, 5, ExecOptions::serial());
        let want = serial.evaluate(&db, &q, Strategy::Auto).unwrap();
        for threads in THREADS {
            let engine = Engine::with_options(10_000, 5, ExecOptions::with_threads(threads));
            let got = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
            assert_eq!(
                got.probability, want.probability,
                "{shape} diverged at {threads} threads"
            );
            assert_eq!(got.method, want.method, "{shape} at {threads} threads");
        }
    }
}

/// Ranked retrieval through the engine: the batched ranked plan on the
/// DAG path returns the identical answer list (tuples, probabilities, and
/// order) as the serial batched execution — and the same top-k.
#[test]
fn ranked_top_k_is_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(0x70_9B);
    for case in 0..10 {
        let mut voc = Vocabulary::new();
        let q = random_hierarchical_query(&mut rng, &mut voc);
        let vars = q.vars();
        let head = vec![vars[rng.gen_range(0..vars.len())]];
        let db = random_db(&q, &voc, &mut rng);
        let serial = Engine::with_options(10_000, 5, ExecOptions::serial());
        let want = ranked_answers(&serial, &db, &q, &head, Strategy::Auto).unwrap();
        let want_top = top_k(&serial, &db, &q, &head, 3, Strategy::Auto).unwrap();
        for threads in THREADS {
            let engine = Engine::with_options(10_000, 5, ExecOptions::with_threads(threads));
            let got = ranked_answers(&engine, &db, &q, &head, Strategy::Auto).unwrap();
            assert_eq!(want, got, "case {case} threads {threads}");
            let got_top = top_k(&engine, &db, &q, &head, 3, Strategy::Auto).unwrap();
            assert_eq!(want_top, got_top, "case {case} top-k threads {threads}");
        }
    }
}
