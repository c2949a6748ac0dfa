//! Block-independent-disjoint (BID) probabilistic databases — the richer
//! model the paper's conclusions point to ("extensions to richer
//! probabilistic models (e.g. to probabilistic databases with disjoint and
//! independent tuples)", citing Ré–Dalvi–Suciu 2006).
//!
//! A BID database partitions its possible tuples into *blocks*: tuples in
//! the same block are mutually exclusive (at most one is present), blocks
//! are independent. Tuple-independent databases are the special case of
//! singleton blocks. This module provides the representation, exact
//! evaluation by block-wise world enumeration, and Monte-Carlo sampling;
//! [`crate::bid_exact`] adds a block-decomposition evaluator that scales
//! far past enumeration. *Safe plans* for BID databases are the follow-up
//! line of work the paper defers.

use crate::database::ProbDb;
use crate::eval::satisfies;
use cq::{Query, RelId, Value, Vocabulary};
use rand::Rng;

/// One alternative of a block.
#[derive(Clone, Debug, PartialEq)]
pub struct Alternative {
    pub args: Vec<Value>,
    pub prob: f64,
}

/// A block: mutually exclusive alternatives of one relation. The
/// probabilities must sum to at most 1; the slack is the probability that
/// no alternative is present.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    pub rel: RelId,
    pub alternatives: Vec<Alternative>,
}

impl Block {
    /// Probability that the block contributes no tuple.
    pub fn none_prob(&self) -> f64 {
        1.0 - self.alternatives.iter().map(|a| a.prob).sum::<f64>()
    }
}

/// A block-independent-disjoint probabilistic database.
#[derive(Clone, Debug, Default)]
pub struct BidDb {
    pub voc: Vocabulary,
    blocks: Vec<Block>,
}

impl BidDb {
    pub fn new(voc: Vocabulary) -> Self {
        BidDb {
            voc,
            blocks: Vec::new(),
        }
    }

    /// Add a block of mutually exclusive alternatives.
    ///
    /// # Panics
    /// On arity mismatch, a probability outside `[0,1]`, or block mass
    /// exceeding 1 (beyond rounding).
    pub fn add_block(&mut self, rel: RelId, alternatives: Vec<(Vec<Value>, f64)>) -> usize {
        let mut total = 0.0;
        let alts: Vec<Alternative> = alternatives
            .into_iter()
            .map(|(args, prob)| {
                assert_eq!(args.len(), self.voc.arity(rel), "arity mismatch");
                assert!((0.0..=1.0).contains(&prob), "probability {prob} invalid");
                total += prob;
                Alternative { args, prob }
            })
            .collect();
        assert!(total <= 1.0 + 1e-9, "block mass {total} exceeds 1");
        self.blocks.push(Block {
            rel,
            alternatives: alts,
        });
        self.blocks.len() - 1
    }

    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// A tuple-independent database is a BID database with singleton
    /// blocks.
    pub fn from_independent(db: &ProbDb) -> BidDb {
        let mut out = BidDb::new(db.voc.clone());
        for (t, &p) in db.tuples().iter().zip(db.probs()) {
            out.add_block(t.rel, vec![(t.args.clone(), p)]);
        }
        out
    }

    /// Materialize one world as a deterministic instance embedded in a
    /// [`ProbDb`] (all chosen tuples at probability 1) together with the
    /// presence bitmap, for reuse of the deterministic evaluator.
    fn world_db(&self, choice: &[Option<usize>]) -> (ProbDb, Vec<bool>) {
        let mut db = ProbDb::new(self.voc.clone());
        for (block, ch) in self.blocks.iter().zip(choice) {
            if let Some(i) = ch {
                db.insert(block.rel, block.alternatives[*i].args.clone(), 1.0);
            }
        }
        let world = vec![true; db.num_tuples()];
        (db, world)
    }

    /// Exact probability of a Boolean query by enumerating block choices
    /// (`Π (|block|+1)` worlds — exact ground truth for small databases).
    ///
    /// # Panics
    /// When the choice space exceeds `2^26`.
    pub fn brute_force_probability(&self, q: &Query) -> f64 {
        let space: f64 = self
            .blocks
            .iter()
            .map(|b| (b.alternatives.len() + 1) as f64)
            .product();
        assert!(space <= (1u64 << 26) as f64, "world space too large");
        let mut choice: Vec<Option<usize>> = vec![None; self.blocks.len()];
        self.enumerate(q, &mut choice, 0, 1.0)
    }

    fn enumerate(
        &self,
        q: &Query,
        choice: &mut Vec<Option<usize>>,
        depth: usize,
        prob: f64,
    ) -> f64 {
        if prob == 0.0 {
            return 0.0;
        }
        if depth == self.blocks.len() {
            let (db, world) = self.world_db(choice);
            return if satisfies(&db, q, &world) { prob } else { 0.0 };
        }
        let block = &self.blocks[depth].clone();
        let mut total = 0.0;
        choice[depth] = None;
        total += self.enumerate(q, choice, depth + 1, prob * block.none_prob().max(0.0));
        for (i, alt) in block.alternatives.iter().enumerate() {
            choice[depth] = Some(i);
            total += self.enumerate(q, choice, depth + 1, prob * alt.prob);
        }
        choice[depth] = None;
        total
    }

    /// Sample one world.
    pub fn sample_world<R: Rng>(&self, rng: &mut R) -> Vec<Option<usize>> {
        self.blocks
            .iter()
            .map(|b| {
                let mut u: f64 = rng.gen();
                for (i, alt) in b.alternatives.iter().enumerate() {
                    if u < alt.prob {
                        return Some(i);
                    }
                    u -= alt.prob;
                }
                None
            })
            .collect()
    }

    /// Naive Monte-Carlo estimate of `p(q)`.
    pub fn monte_carlo<R: Rng>(&self, q: &Query, samples: u64, rng: &mut R) -> f64 {
        let mut hits = 0u64;
        for _ in 0..samples {
            let choice = self.sample_world(rng);
            let (db, world) = self.world_db(&choice);
            if satisfies(&db, q, &world) {
                hits += 1;
            }
        }
        hits as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::brute_force_probability as independent_bf;
    use cq::parse_query;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn singleton_blocks_match_independent_semantics() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.7);
        db.insert(r, vec![Value(2)], 0.2);
        db.insert(s, vec![Value(1), Value(5)], 0.5);
        db.insert(s, vec![Value(2), Value(5)], 0.9);
        let bid = BidDb::from_independent(&db);
        let p_bid = bid.brute_force_probability(&q);
        let p_ind = independent_bf(&db, &q);
        assert!((p_bid - p_ind).abs() < 1e-12, "{p_bid} vs {p_ind}");
    }

    #[test]
    fn disjoint_alternatives_are_exclusive() {
        // One block: sensor 1 reports value 10 XOR value 11 (or nothing).
        let mut voc = Vocabulary::new();
        let q_any = parse_query(&mut voc, "S(1,v)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut bid = BidDb::new(voc.clone());
        bid.add_block(
            s,
            vec![
                (vec![Value(1), Value(10)], 0.3),
                (vec![Value(1), Value(11)], 0.5),
            ],
        );
        // P(any reading) = 0.3 + 0.5 (disjoint, NOT 1-(0.7·0.5)).
        assert!((bid.brute_force_probability(&q_any) - 0.8).abs() < 1e-12);
        // Both readings at once is impossible.
        let q_both = parse_query(&mut voc, "S(1,10), S(1,11)").unwrap();
        assert_eq!(bid.brute_force_probability(&q_both), 0.0);
    }

    #[test]
    fn blocks_are_independent_of_each_other() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(1,10), S(2,20)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut bid = BidDb::new(voc);
        bid.add_block(s, vec![(vec![Value(1), Value(10)], 0.4)]);
        bid.add_block(s, vec![(vec![Value(2), Value(20)], 0.5)]);
        assert!((bid.brute_force_probability(&q) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_converges_on_bid() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(x,v), T(v)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let t = voc.find_relation("T").unwrap();
        let mut bid = BidDb::new(voc);
        bid.add_block(
            s,
            vec![
                (vec![Value(1), Value(10)], 0.45),
                (vec![Value(1), Value(11)], 0.45),
            ],
        );
        bid.add_block(t, vec![(vec![Value(10)], 0.6)]);
        bid.add_block(t, vec![(vec![Value(11)], 0.2)]);
        let exact = bid.brute_force_probability(&q);
        let mut rng = StdRng::seed_from_u64(4);
        let est = bid.monte_carlo(&q, 100_000, &mut rng);
        assert!((est - exact).abs() < 0.01, "est {est} vs exact {exact}");
    }

    #[test]
    fn none_prob_accounts_for_slack() {
        let mut voc = Vocabulary::new();
        let s = voc.relation("S", 1).unwrap();
        let mut bid = BidDb::new(voc);
        bid.add_block(s, vec![(vec![Value(1)], 0.3), (vec![Value(2)], 0.3)]);
        assert!((bid.blocks()[0].none_prob() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds 1")]
    fn overfull_block_rejected() {
        let mut voc = Vocabulary::new();
        let s = voc.relation("S", 1).unwrap();
        let mut bid = BidDb::new(voc);
        bid.add_block(s, vec![(vec![Value(1)], 0.7), (vec![Value(2)], 0.7)]);
    }
}
