//! Synthetic workload generators.
//!
//! The paper's evaluation artifacts need structures of controlled shape:
//! random tuple-independent databases (cross-engine property tests),
//! bipartite/4-partite graphs (the Appendix B and C hardness reductions),
//! and scalable instances for the `q_hier`-style queries (experiments E4,
//! E5).

use crate::database::ProbDb;
use cq::{Query, RelId, Value, Vocabulary};
use rand::Rng;

/// Options for [`random_db_for_query`].
#[derive(Clone, Copy, Debug)]
pub struct RandomDbOptions {
    /// Active-domain size.
    pub domain: u64,
    /// Expected number of tuples per relation.
    pub tuples_per_relation: usize,
    /// Probability range assigned uniformly at random.
    pub prob_range: (f64, f64),
}

impl Default for RandomDbOptions {
    fn default() -> Self {
        RandomDbOptions {
            domain: 3,
            tuples_per_relation: 4,
            prob_range: (0.1, 0.9),
        }
    }
}

/// Build a random database over exactly the relations a query mentions
/// (plus nothing else). Includes every constant of the query in the domain
/// so ground sub-goals can fire.
pub fn random_db_for_query<R: Rng>(
    q: &Query,
    voc: &Vocabulary,
    opts: RandomDbOptions,
    rng: &mut R,
) -> ProbDb {
    let mut db = ProbDb::new(voc.clone());
    let mut domain: Vec<Value> = (0..opts.domain).map(Value).collect();
    for c in q.constants() {
        if !domain.contains(&c) {
            domain.push(c);
        }
    }
    let rels: Vec<RelId> = {
        let mut rels: Vec<RelId> = q.atoms.iter().map(|a| a.rel).collect();
        rels.sort();
        rels.dedup();
        rels
    };
    for rel in rels {
        let arity = voc.arity(rel);
        for _ in 0..opts.tuples_per_relation {
            let args: Vec<Value> = (0..arity)
                .map(|_| domain[rng.gen_range(0..domain.len())])
                .collect();
            let p = rng.gen_range(opts.prob_range.0..=opts.prob_range.1);
            db.insert(rel, args, p);
        }
    }
    db
}

/// Instance family for `q_hier = R(x), S(x,y)` with `n` `R`-tuples and `m`
/// `S`-tuples per `R`-value — the scaling workload of experiments E4/E5.
pub fn star_instance<R: Rng>(n: u64, m: u64, rng: &mut R) -> (ProbDb, Query) {
    let mut voc = Vocabulary::new();
    let q = cq::parse_query(&mut voc, "R(x), S(x,y)").unwrap();
    let r = voc.find_relation("R").unwrap();
    let s = voc.find_relation("S").unwrap();
    let mut db = ProbDb::new(voc);
    for i in 0..n {
        db.insert(r, vec![Value(i)], rng.gen_range(0.05..0.95));
        for j in 0..m {
            db.insert(s, vec![Value(i), Value(n + j)], rng.gen_range(0.05..0.95));
        }
    }
    (db, q)
}

/// The 4-partite layered graph of Proposition B.3: layers `u → X → Y → v`,
/// with an edge `(x_i, y_j)` per clause of a bipartite 2DNF. Returned as an
/// edge relation `E`; tuple probabilities follow the proposition (variable
/// edges carry the variable probabilities, clause edges are certain).
pub fn four_partite_from_clauses(
    voc: &mut Vocabulary,
    x_probs: &[f64],
    y_probs: &[f64],
    clauses: &[(usize, usize)],
) -> ProbDb {
    let e = voc.relation("E", 2).unwrap();
    let mut db = ProbDb::new(voc.clone());
    // Node numbering: u = 0; x_i = 1 + i; y_j = 1 + m + j; v = 1 + m + n.
    let m = x_probs.len() as u64;
    let n = y_probs.len() as u64;
    let u = Value(0);
    let v = Value(1 + m + n);
    for (i, &p) in x_probs.iter().enumerate() {
        db.insert(e, vec![u, Value(1 + i as u64)], p);
    }
    for &(i, j) in clauses {
        db.insert(e, vec![Value(1 + i as u64), Value(1 + m + j as u64)], 1.0);
    }
    for (j, &p) in y_probs.iter().enumerate() {
        db.insert(e, vec![Value(1 + m + j as u64), v], p);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse_query;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_db_respects_domain_and_relations() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let db = random_db_for_query(&q, &voc, RandomDbOptions::default(), &mut rng);
        assert!(db.num_tuples() > 0);
        for t in db.tuples() {
            for a in &t.args {
                assert!(a.0 < 3);
            }
        }
    }

    #[test]
    fn random_db_includes_query_constants() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R('a'), S(x,y)").unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let opts = RandomDbOptions {
            domain: 2,
            tuples_per_relation: 50,
            prob_range: (0.5, 0.5),
        };
        let db = random_db_for_query(&q, &voc, opts, &mut rng);
        let a = db.voc.clone().named_const("a");
        // With 50 draws over a 3-value domain, 'a' almost surely appears.
        assert!(db.tuples().iter().any(|t| t.args.contains(&a)));
    }

    #[test]
    fn star_instance_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let (db, q) = star_instance(4, 3, &mut rng);
        assert_eq!(db.num_tuples(), 4 + 12);
        assert_eq!(q.atoms.len(), 2);
    }

    #[test]
    fn four_partite_layout() {
        let mut voc = Vocabulary::new();
        let db = four_partite_from_clauses(&mut voc, &[0.5, 0.5], &[0.5], &[(0, 0), (1, 0)]);
        // 2 variable edges + 2 clause edges + 1 y-edge.
        assert_eq!(db.num_tuples(), 5);
        let e = db.voc.find_relation("E").unwrap();
        assert_eq!(db.prob_of(e, &[Value(1), Value(3)]), 1.0);
    }
}
