//! # bench-harness — the paper's experiments
//!
//! Workload generators and timing helpers shared by the nine criterion
//! benches under `benches/` and the `report` binary, which prints the
//! paper experiments E1–E11 (`report -- table1 | mystiq | …`; see
//! `src/bin/report.rs`). Performance of the served and direct query paths
//! is measured by the standalone `benchmark/` package, not here.

use cq::{parse_query, Query, Value, Vocabulary};
use pdb::ProbDb;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build the `q_hier = R(x), S(x,y)` star workload: `n` roots, `fanout`
/// children each (the E4/E5 scaling family).
pub fn star_workload(n: u64, fanout: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.02..0.2));
        for j in 0..fanout {
            db.insert(
                s,
                vec![Value(i), Value(n + i * fanout + j)],
                rng.gen_range(0.02..0.3),
            );
        }
    }
    (db, q)
}

/// The §1.1 self-join workload for `q = R(x), S(x,y), S(x2,y2), T(x2)`
/// (inversion-free, exercised by the coverage-based safe plan).
pub fn selfjoin_workload(n: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), S(x2,y2), T(x2)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let t = voc.find_relation("T").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.05..0.4));
        db.insert(t, vec![Value(i)], rng.gen_range(0.05..0.4));
        db.insert(s, vec![Value(i), Value(n + i)], rng.gen_range(0.05..0.4));
        db.insert(
            s,
            vec![Value(i), Value(n + (i + 1) % n)],
            rng.gen_range(0.05..0.4),
        );
    }
    (db, q)
}

/// A three-level hierarchy workload for `V(q) = 3`:
/// `R(x), S(x,y), U(x,y,z)`.
pub fn deep_workload(n: u64, fanout: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), U(x,y,z)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let u = voc.find_relation("U").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.05..0.3));
        for j in 0..fanout {
            let y = n + i * fanout + j;
            db.insert(s, vec![Value(i), Value(y)], rng.gen_range(0.05..0.3));
            for l in 0..fanout {
                db.insert(
                    u,
                    vec![Value(i), Value(y), Value(10_000 + y * fanout + l)],
                    rng.gen_range(0.05..0.3),
                );
            }
        }
    }
    (db, q)
}

/// The `H_0` workload (hard query) on a bipartite-ish instance with `n`
/// left values: `R(x), S(x,y), S(x2,y2), T(y2)`.
pub fn h0_workload(n: u64, seed: u64) -> (ProbDb, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut voc = Vocabulary::new();
    let q = parse_query(&mut voc, "R(x), S(x,y), S(x2,y2), T(y2)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let t = voc.find_relation("T").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.2..0.8));
        db.insert(t, vec![Value(1000 + i)], rng.gen_range(0.2..0.8));
        // Sparse random bipartite S: two edges per left value.
        for _ in 0..2 {
            let j = rng.gen_range(0..n);
            db.insert(s, vec![Value(i), Value(1000 + j)], rng.gen_range(0.2..0.8));
        }
    }
    (db, q)
}

/// Time a closure, returning (seconds, result).
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Least-squares slope of `log(y)` against `log(x)` — the polynomial degree
/// estimate for scaling figures.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-12).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy::engine::{Engine, Method, Strategy};

    #[test]
    fn workloads_have_expected_shapes() {
        let (db, q) = star_workload(5, 3, 1);
        assert_eq!(db.num_tuples(), 5 + 15);
        assert_eq!(q.atoms.len(), 2);
        let (db, _) = selfjoin_workload(4, 1);
        assert_eq!(db.num_tuples(), 4 * 4);
        let (db, _) = deep_workload(2, 2, 1);
        assert_eq!(db.num_tuples(), 2 + 4 + 8);
        let (db, _) = h0_workload(3, 1);
        assert!(db.num_tuples() >= 9);
    }

    #[test]
    fn engine_solves_workloads_with_expected_methods() {
        let engine = Engine::with_samples_and_seed(5_000, 3);
        let (db, q) = star_workload(10, 2, 2);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::Extensional);
        let (db, q) = selfjoin_workload(6, 2);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::SafePlan);
        let (db, q) = h0_workload(4, 2);
        let ev = engine.evaluate(&db, &q, Strategy::Auto).unwrap();
        assert_eq!(ev.method, Method::KarpLuby);
    }

    #[test]
    fn loglog_slope_recovers_power() {
        let pts: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, (i as f64).powi(2))).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }
}
