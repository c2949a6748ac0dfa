//! Block-independent-disjoint databases: mutually exclusive alternatives.
//!
//! The paper's conclusions point at "richer probabilistic models (e.g.
//! probabilistic databases with disjoint and independent tuples)". This
//! example models a sensor fleet where each sensor reports *at most one*
//! reading — the readings of one sensor are mutually exclusive (one block),
//! sensors are independent of each other — and evaluates a join query three
//! ways: block-wise world enumeration (ground truth), and the shared exact
//! lineage compiler and Karp–Luby on the *encoded* lineage (the standard
//! encoding turns the blocks into independent events).
//!
//! Run with: `cargo run --release --example bid_sensors`

use pdb::BidDb;
use probdb::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Query: does some sensor report a value flagged as critical?
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "Reading(s, v), Critical(v)").unwrap();
    let reading = voc.find_relation("Reading").unwrap();
    let critical = voc.find_relation("Critical").unwrap();

    // --- Small instance: enumeration is feasible, so cross-check ---------
    let mut small = BidDb::new(voc.clone());
    for s in 0..6u64 {
        // Sensor s reports value 10 (p=.35), value 11 (p=.35), or nothing.
        small.add_block(
            reading,
            vec![
                (vec![Value(s), Value(10)], 0.35),
                (vec![Value(s), Value(11)], 0.35),
            ],
        );
    }
    small.add_block(critical, vec![(vec![Value(10)], 0.5)]);
    small.add_block(critical, vec![(vec![Value(11)], 0.5)]);

    let by_enum = small.brute_force_probability(&q);
    let by_blocks = small.exact_probability(&q);
    let mut rng = StdRng::seed_from_u64(7);
    let by_mc = small.monte_carlo(&q, 200_000, &mut rng);
    println!("small instance ({} blocks):", small.num_blocks());
    println!("  world enumeration     : {by_enum:.9}");
    println!("  encoded lineage, exact: {by_blocks:.9}");
    println!("  karp-luby (200k)      : {by_mc:.4}");
    assert!((by_enum - by_blocks).abs() < 1e-10);
    assert!((by_mc - by_enum).abs() < 0.01);

    // Mutual exclusion at work: with *independent* tuples both readings of
    // one sensor can coexist, and the query probability measurably differs
    // from the BID value — the two models are not interchangeable.
    let mut independent = ProbDb::new(voc.clone());
    for s in 0..6u64 {
        independent.insert(reading, vec![Value(s), Value(10)], 0.35);
        independent.insert(reading, vec![Value(s), Value(11)], 0.35);
    }
    independent.insert(critical, vec![Value(10)], 0.5);
    independent.insert(critical, vec![Value(11)], 0.5);
    let p_ind = Engine::new()
        .evaluate(&independent, &q, Strategy::ExactLineage)
        .unwrap()
        .probability;
    println!("  (same tuples, independent semantics: {p_ind:.9} — exclusivity matters)");
    assert!((p_ind - by_blocks).abs() > 1e-3);

    // --- Large instance: enumeration impossible, encoded lineage instant --
    let mut large = BidDb::new(voc.clone());
    for s in 0..200u64 {
        large.add_block(
            reading,
            vec![
                (vec![Value(s), Value(10)], 0.01),
                (vec![Value(s), Value(11)], 0.39),
            ],
        );
    }
    large.add_block(critical, vec![(vec![Value(10)], 0.5)]);
    let worlds: f64 = 3f64.powi(200);
    println!("\nlarge instance: 200 sensor blocks → ~{worlds:.1e} worlds");
    let p = large.exact_probability(&q);
    println!("  encoded lineage, exact: {p:.9}");
    // Closed form: P = 0.5 · (1 − 0.99^200).
    let expected = 0.5 * (1.0 - 0.99f64.powi(200));
    assert!((p - expected).abs() < 1e-9);
    println!("  closed form           : {expected:.9} ✓");
}
