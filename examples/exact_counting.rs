//! Exact rational probabilities and substructure counting.
//!
//! The paper defines tuple probabilities as *rational* numbers and its
//! conclusions ask "whether the hardness results can be sharpened to
//! counting the number of substructures (i.e. when all probabilities are
//! 1/2)". This example shows both directions of that question made
//! executable:
//!
//! * safe queries: the engine's PTIME plan, run in exact rational
//!   arithmetic at `p ≡ 1/2`, counts the satisfying substructures of a
//!   160-tuple database — a 2^160-world space — instantly and exactly;
//!   the extensional plan does it for a self-join-free query and the
//!   root-recursion safe plan (§3.2) for the self-join query of §1.1,
//! * hard queries: the same engine call runs exact lineage compilation,
//!   which is exponential in the worst case (as it must be, unless
//!   FP = #P).
//!
//! Run with: `cargo run --example exact_counting`

use probdb::prelude::*;

fn main() {
    // --- 1. A safe query on a database far past the f64 mantissa ---------
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "Account(a), Flagged(a,r)").unwrap();
    let account = voc.find_relation("Account").unwrap();
    let flagged = voc.find_relation("Flagged").unwrap();
    let mut db = ProbDb::new(voc);
    for a in 0..40u64 {
        db.insert(account, vec![Value(a)], 0.5);
        for r in 0..3u64 {
            db.insert(flagged, vec![Value(a), Value(100 + r)], 0.5);
        }
    }
    let n = db.num_tuples();
    println!("database: {n} independent tuples → 2^{n} substructures");

    let engine = Engine::new();
    let (count, method) = engine.count_substructures(&db, &q);
    assert_eq!(method, Method::Extensional);
    println!("substructures satisfying q (exact, {method} at p = 1/2):");
    println!("  {count}");
    // Closed form: per account block (1 Account + 3 Flagged tuples) the
    // satisfying fraction is 1/2 · (1 − (1/2)^3) = 7/16; over 40 blocks
    // count = 16^40 − 9^40.
    let expected = BigUint::from_u64(16)
        .pow(40)
        .sub_ref(&BigUint::from_u64(9).pow(40));
    assert_eq!(count, expected);
    println!("  matches the closed form 16^40 − 9^40");

    // --- 2. Exact rational probability, arbitrary p ----------------------
    let probs = RatProbs::uniform(&db, QRat::ratio(1, 3));
    let (p, _) = engine.evaluate_exact(&db, &probs, &q);
    println!("\nP(q) with every tuple at 1/3, exactly:");
    let digits = p.denominator().to_string().len();
    println!("  a rational with a {digits}-digit denominator");
    println!("  ≈ {:.12}", p.to_f64());

    // --- 3. A self-join query on the safe side ---------------------------
    // R(x), S(x,y), S(x2,y2), T(x2) (§1.1) is inversion-free: it counts on
    // the root-recursion safe plan, still in polynomial time.
    let mut voc3 = Vocabulary::new();
    let q_sj = parse_query(&mut voc3, "R(x), S(x,y), S(x2,y2), T(x2)").unwrap();
    let (r, s, t) = (
        voc3.find_relation("R").unwrap(),
        voc3.find_relation("S").unwrap(),
        voc3.find_relation("T").unwrap(),
    );
    let mut db3 = ProbDb::new(voc3);
    for a in 0..6u64 {
        db3.insert(r, vec![Value(a)], 0.5);
        db3.insert(t, vec![Value(a + 3)], 0.5);
        db3.insert(s, vec![Value(a), Value(a + 1)], 0.5);
    }
    let (sj_count, method) = engine.count_substructures(&db3, &q_sj);
    assert_eq!(method, Method::SafePlan);
    assert_eq!(sj_count, count_satisfying_worlds_exact(&db3, &q_sj));
    println!(
        "\nself-join query on {} tuples: {sj_count} of 2^{} substructures ({method})",
        db3.num_tuples(),
        db3.num_tuples()
    );

    // --- 4. The hard side stays hard --------------------------------------
    // H_0 on a small instance: counting must go through the lineage.
    let mut voc2 = Vocabulary::new();
    let q_hard = parse_query(&mut voc2, "R(x), S(x,y), S(x2,y2), T(y2)").unwrap();
    let r = voc2.find_relation("R").unwrap();
    let s = voc2.find_relation("S").unwrap();
    let t = voc2.find_relation("T").unwrap();
    let mut db2 = ProbDb::new(voc2);
    for i in 0..4u64 {
        db2.insert(r, vec![Value(i)], 0.5);
        db2.insert(t, vec![Value(10 + i)], 0.5);
        db2.insert(s, vec![Value(i), Value(10 + i)], 0.5);
        db2.insert(s, vec![Value(i), Value(10 + (i + 1) % 4)], 0.5);
    }
    let hard_count = count_satisfying_worlds_exact(&db2, &q_hard);
    println!(
        "\nhard query H_0 on {} tuples: {} of 2^{} substructures satisfy it",
        db2.num_tuples(),
        hard_count,
        db2.num_tuples()
    );
    // No PTIME plan exists: the engine counts through exact lineage.
    let (engine_count, method) = engine.count_substructures(&db2, &q_hard);
    assert_eq!(method, Method::ExactLineage);
    assert_eq!(engine_count, hard_count);
    println!("(no PTIME plan for H_0: the engine counted through {method})");
}
