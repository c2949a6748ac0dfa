//! Fixtures shared by the agreement suites (`columnar_agreement`,
//! `sharded_agreement`, `parallel_agreement`, `incremental_agreement`,
//! `safeplan_cross_engine`, `config_matrix`): the thread counts they
//! sweep, the random hierarchical query, database and delta generators,
//! and the row oracle ([`rowref`]) with its comparison.

// Each suite links this module separately and uses a subset of it.
#![allow(dead_code)]

pub mod rowref;

use probdb::prelude::{DeltaBatch, ProbDb, Query, Value, Var, Vocabulary};
use rand::rngs::StdRng;
use rand::Rng;
use rowref::RowRelation;
use safeplan::ProbRelation;

pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Assert the columnar relation is bit-for-bit the row relation.
pub fn assert_same(col: &ProbRelation<f64>, row: &RowRelation<f64>, ctx: &str) {
    assert_eq!(col.cols(), row.cols.as_slice(), "{ctx}: schema");
    assert_eq!(col.len(), row.rows.len(), "{ctx}: row count");
    for (i, (vals, p)) in row.rows.iter().enumerate() {
        assert_eq!(col.row(i), vals.as_slice(), "{ctx}: row {i} values");
        assert_eq!(
            col.prob(i).to_bits(),
            p.to_bits(),
            "{ctx}: row {i} probability bits ({} vs {p})",
            col.prob(i)
        );
    }
}

/// Random hierarchical self-join-free query: a forest of hierarchy trees
/// where every atom's variables are a root-to-node path, each atom over a
/// fresh relation — exactly the fragment the extensional compiler accepts.
pub fn random_hierarchical_query(rng: &mut StdRng, voc: &mut Vocabulary) -> Query {
    fn grow(
        rng: &mut StdRng,
        voc: &mut Vocabulary,
        atoms: &mut Vec<cq::Atom>,
        path: &mut Vec<Var>,
        next_var: &mut u32,
        depth: u32,
    ) {
        for _ in 0..rng.gen_range(1..=2u32) {
            let name = format!("P{}", atoms.len());
            let rel = voc.relation(&name, path.len()).unwrap();
            let args = path.iter().map(|&v| cq::Term::Var(v)).collect();
            atoms.push(cq::Atom::new(rel, args));
        }
        if depth < 3 {
            for _ in 0..rng.gen_range(0..=2u32) {
                path.push(Var(*next_var));
                *next_var += 1;
                grow(rng, voc, atoms, path, next_var, depth + 1);
                path.pop();
            }
        }
    }
    let mut atoms = Vec::new();
    let mut next_var = 0u32;
    for _ in 0..rng.gen_range(1..=2u32) {
        let mut path = vec![Var(next_var)];
        next_var += 1;
        grow(rng, voc, &mut atoms, &mut path, &mut next_var, 1);
    }
    Query::new(atoms, vec![])
}

pub fn random_db(q: &Query, voc: &Vocabulary, rng: &mut StdRng) -> ProbDb {
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    let opts = RandomDbOptions {
        domain: 4,
        tuples_per_relation: 20,
        prob_range: (0.05, 0.95),
    };
    random_db_for_query(q, voc, opts, rng)
}

/// Seed a database for `q` through the delta log (so views can be built at
/// any point of the mutation history).
pub fn seed_db(q: &Query, voc: &Vocabulary, rng: &mut StdRng) -> ProbDb {
    let mut db = ProbDb::new(voc.clone());
    db.apply(&seed_batch(q, voc, rng));
    db
}

/// The one insert batch [`seed_db`] applies: 8–16 random tuples per atom.
pub fn seed_batch(q: &Query, voc: &Vocabulary, rng: &mut StdRng) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for atom in &q.atoms {
        let arity = voc.arity(atom.rel);
        for _ in 0..rng.gen_range(8..=16usize) {
            let args: Vec<Value> = (0..arity).map(|_| Value(rng.gen_range(0..4u64))).collect();
            batch.insert(atom.rel, args, rng.gen_range(0.05..0.95));
        }
    }
    batch
}

/// One random delta batch over the query's relations: a mix of
/// probability updates and deletes of existing tuples plus fresh inserts
/// (some colliding with existing content — the upsert path).
pub fn random_batch(q: &Query, db: &ProbDb, rng: &mut StdRng) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for _ in 0..rng.gen_range(1..=6usize) {
        let atom = &q.atoms[rng.gen_range(0..q.atoms.len())];
        let rel = atom.rel;
        let arity = db.voc.arity(rel);
        match rng.gen_range(0..3u32) {
            0 => {
                let args: Vec<Value> = (0..arity).map(|_| Value(rng.gen_range(0..5u64))).collect();
                batch.insert(rel, args, rng.gen_range(0.05..0.95));
            }
            1 => {
                let ids = db.tuples_of(rel);
                if ids.is_empty() {
                    continue;
                }
                let id = ids[rng.gen_range(0..ids.len())];
                batch.delete(rel, db.tuple(id).args.clone());
            }
            _ => {
                let ids = db.tuples_of(rel);
                if ids.is_empty() {
                    continue;
                }
                let id = ids[rng.gen_range(0..ids.len())];
                batch.update(rel, db.tuple(id).args.clone(), rng.gen_range(0.05..0.95));
            }
        }
    }
    batch
}
