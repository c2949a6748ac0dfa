//! Synthetic workload generators: random tuple-independent databases over
//! the relations a query mentions, the inputs of the cross-engine property
//! tests.

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
}
