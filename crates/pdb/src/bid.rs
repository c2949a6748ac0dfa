//! Block-independent-disjoint (BID) probabilistic databases — the richer
//! model the paper's conclusions point to ("extensions to richer
//! probabilistic models (e.g. to probabilistic databases with disjoint and
//! independent tuples)", citing Ré–Dalvi–Suciu 2006). Tuples of one *block*
//! are mutually exclusive, blocks are independent; tuple-independent
//! databases are the case of singleton blocks.
//!
//! Exact evaluation and Monte Carlo run on the tuple-independent lineage
//! back end through the *standard encoding* (Suciu, Olteanu, Ré & Koch,
//! *Probabilistic Databases*, 2011): a block with alternatives of
//! probabilities `p_1 … p_k` gets independent events `x_1 … x_k`,
//! `P(x_i) = p_i / (1 − p_1 − … − p_{i−1})`, and alternative `i` is present
//! iff `x_i ∧ ¬x_1 ∧ … ∧ ¬x_{i−1}`. Two alternatives of a block are never
//! both present, and the marginals telescope back:
//! `Π_{j<i}(1 − P(x_j)) = 1 − Σ_{j<i} p_j`, so alternative `i` has
//! probability `p_i`. When that remainder is `≤ 0`, alternative `i` is
//! impossible and `P(x_i) = 0` rather than a division by zero; otherwise
//! the quotient is clamped to `[0, 1]`. A query's lineage over them, each
//! positive literal replaced by its conjunction and each negated one by
//! `¬x_i ∨ x_1 ∨ … ∨ x_{i−1}` (distributed over its clause), goes to
//! [`lineage::exact_probability`] or [`lineage::karp_luby`].
//! [`BidDb::brute_force_probability`] enumerates block choices: the model's
//! definition and the test oracle. *Safe plans* for BID databases are the
//! follow-up work the paper defers.

use crate::database::ProbDb;
use crate::eval::satisfies;
use crate::lineage_ext::lineage_of;
use cq::{Query, RelId, Value, Vocabulary};
use lineage::{Dnf, Lit};
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
    blocks: Vec<Block>,
    /// Every alternative as a tuple, ids in block order, at its encoded
    /// event probability `P(x_i)`.
    tuples: ProbDb,
    /// Tuple id → the id of its block's first alternative.
    first: Vec<u32>,
}

impl BidDb {
    pub fn new(voc: Vocabulary) -> Self {
        BidDb {
            tuples: ProbDb::new(voc),
            ..BidDb::default()
        }
    }

    /// Add a block of mutually exclusive alternatives.
    ///
    /// # Panics
    /// On arity mismatch, a probability outside `[0,1]`, block mass
    /// exceeding 1 (beyond rounding), or a tuple that this block or an
    /// earlier one already holds.
    pub fn add_block(&mut self, rel: RelId, alternatives: Vec<(Vec<Value>, f64)>) -> usize {
        let mut total = 0.0;
        for (i, (args, prob)) in alternatives.iter().enumerate() {
            assert_eq!(args.len(), self.tuples.voc.arity(rel), "arity mismatch");
            assert!((0.0..=1.0).contains(prob), "probability {prob} invalid");
            assert!(
                self.tuples.find(rel, args).is_none()
                    && alternatives[..i].iter().all(|(a, _)| a != args),
                "duplicate tuple {}{args:?}",
                self.tuples.voc.rel_name(rel)
            );
            total += prob;
        }
        assert!(total <= 1.0 + 1e-9, "block mass {total} exceeds 1");
        let first = self.tuples.num_tuples() as u32;
        let mut rest = 1.0; // 1 − Σ_{j<i} p_j: the mass earlier alternatives left
        let alternatives = alternatives
            .into_iter()
            .map(|(args, prob)| {
                let x = if rest > 0.0 {
                    (prob / rest).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                self.tuples.insert(rel, args.clone(), x);
                self.first.push(first);
                rest -= prob;
                Alternative { args, prob }
            })
            .collect();
        self.blocks.push(Block { rel, alternatives });
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
        self.enumerate(q, &self.blocks, &mut Vec::new(), 1.0)
    }

    /// The probability mass of the satisfying worlds that extend `world`,
    /// the choices made for the blocks before `blocks`.
    fn enumerate(&self, q: &Query, blocks: &[Block], world: &mut Vec<bool>, prob: f64) -> f64 {
        if prob == 0.0 {
            return 0.0;
        }
        let Some((block, later)) = blocks.split_first() else {
            let sat = satisfies(&self.tuples, q, world);
            return if sat { prob } else { 0.0 };
        };
        let base = world.len();
        world.resize(base + block.alternatives.len(), false);
        let mut total = self.enumerate(q, later, world, prob * block.none_prob().max(0.0));
        for (i, alt) in block.alternatives.iter().enumerate() {
            world[base + i] = true;
            total += self.enumerate(q, later, world, prob * alt.prob);
            world[base + i] = false;
        }
        world.truncate(base);
        total
    }

    /// Exact `p(q)`: the encoded lineage through
    /// [`lineage::exact_probability`].
    pub fn exact_probability(&self, q: &Query) -> f64 {
        lineage::exact_probability(&self.encoded_lineage(q), self.tuples.probs())
    }

    /// Karp–Luby estimate of `p(q)` on the encoded lineage
    /// ([`lineage::karp_luby`]).
    pub fn monte_carlo<R: Rng>(&self, q: &Query, samples: u64, rng: &mut R) -> f64 {
        lineage::karp_luby(&self.encoded_lineage(q), self.tuples.probs(), samples, rng).estimate
    }

    /// The lineage of `q` over the alternatives' tuples, every literal
    /// substituted by its encoding over the independent events `x`.
    fn encoded_lineage(&self, q: &Query) -> Dnf {
        let mut out = Dnf::new();
        for clause in &lineage_of(&self.tuples, q).clauses {
            // The clause as a disjunction of conjunctions: a negated
            // alternative splits every conjunction built so far.
            let mut conj: Vec<Vec<Lit>> = vec![Vec::new()];
            for l in clause.lits() {
                let earlier = self.first[l.var as usize]..l.var;
                if l.positive {
                    for c in &mut conj {
                        c.push(Lit::pos(l.var));
                        c.extend(earlier.clone().map(Lit::neg));
                    }
                } else {
                    let options: Vec<Lit> = std::iter::once(Lit::neg(l.var))
                        .chain(earlier.map(Lit::pos))
                        .collect();
                    conj = conj
                        .iter()
                        .flat_map(|c| options.iter().map(move |&o| [c.as_slice(), &[o]].concat()))
                        .collect();
                }
            }
            for c in conj {
                out.add_clause(c);
            }
        }
        out.absorb();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::brute_force_probability as independent_bf;
    use cq::parse_query;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// `(args, p)` rows as a block's alternatives.
    fn alts(rows: &[(&[u64], f64)]) -> Vec<(Vec<Value>, f64)> {
        let row = |&(args, p): &(&[u64], f64)| (args.iter().map(|&v| Value(v)).collect(), p);
        rows.iter().map(row).collect()
    }

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
        let p_ind = independent_bf(&db, &q);
        for p_bid in [bid.brute_force_probability(&q), bid.exact_probability(&q)] {
            assert!((p_bid - p_ind).abs() < 1e-12, "{p_bid} vs {p_ind}");
        }
    }

    #[test]
    fn disjoint_alternatives_are_exclusive() {
        // One block: sensor 1 reports value 10 XOR value 11 (or nothing).
        let mut voc = Vocabulary::new();
        let q_any = parse_query(&mut voc, "S(1,v)").unwrap();
        let q_both = parse_query(&mut voc, "S(1,10), S(1,11)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut bid = BidDb::new(voc);
        bid.add_block(s, alts(&[(&[1, 10], 0.3), (&[1, 11], 0.5)]));
        // P(any reading) = 0.3 + 0.5 (disjoint, NOT 1-(0.7·0.5)), and both
        // readings at once are impossible — under either evaluator.
        assert!((bid.brute_force_probability(&q_any) - 0.8).abs() < 1e-12);
        assert!((bid.exact_probability(&q_any) - 0.8).abs() < 1e-12);
        assert_eq!(bid.brute_force_probability(&q_both), 0.0);
        assert_eq!(bid.exact_probability(&q_both), 0.0);
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
        bid.add_block(s, alts(&[(&[1, 10], 0.45), (&[1, 11], 0.45)]));
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

    #[test]
    #[should_panic(expected = "duplicate tuple")]
    fn duplicate_tuple_across_blocks_rejected() {
        let mut voc = Vocabulary::new();
        let s = voc.relation("S", 2).unwrap();
        let mut bid = BidDb::new(voc);
        bid.add_block(s, vec![(vec![Value(1), Value(2)], 0.3)]);
        bid.add_block(s, vec![(vec![Value(1), Value(2)], 0.3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate tuple")]
    fn duplicate_tuple_within_block_rejected() {
        let mut voc = Vocabulary::new();
        let s = voc.relation("S", 2).unwrap();
        let mut bid = BidDb::new(voc);
        bid.add_block(s, alts(&[(&[1, 2], 0.3), (&[1, 2], 0.3)]));
    }

    /// A random BID instance over `S/2` and `T/1`: possible tuples cut into
    /// blocks of 1 to 3 alternatives. About a third of the blocks carry the
    /// full mass in eighths, often with trailing zero-probability
    /// alternatives, so the zero-remainder rule runs.
    fn random_bid(rng: &mut StdRng, voc: &Vocabulary) -> (BidDb, usize) {
        let s = voc.find_relation("S").unwrap();
        let t = voc.find_relation("T").unwrap();
        let mut bid = BidDb::new(voc.clone());
        let mut full = 0;
        let s_pool = (0..3).flat_map(|x| (10..13).map(move |v| vec![Value(x), Value(v)]));
        let t_pool = (10..13).map(|v| vec![Value(v)]);
        for (rel, mut pool, keep) in [
            (s, s_pool.collect::<Vec<_>>(), rng.gen_range(2..=6)),
            (t, t_pool.collect(), rng.gen_range(1..=3)),
        ] {
            pool.shuffle(rng);
            pool.truncate(keep);
            while !pool.is_empty() {
                let n = rng.gen_range(1..=3usize).min(pool.len());
                let mut probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.3)).collect();
                if rng.gen_range(0..3) == 0 {
                    full += 1;
                    let mut left = 8u32; // eighths of the mass not yet given out
                    for p in &mut probs {
                        let e = rng.gen_range(0..=left);
                        left -= e;
                        *p = f64::from(e) / 8.0;
                    }
                    probs[n - 1] += f64::from(left) / 8.0;
                }
                bid.add_block(rel, pool.drain(..n).zip(probs).collect());
            }
        }
        (bid, full)
    }

    #[test]
    fn agrees_with_world_enumeration_on_random_instances() {
        let mut voc = Vocabulary::new();
        let queries = ["S(x,v), T(v)", "S(x,v), not T(v)", "S(x,v), S(y,v), x != y"]
            .map(|text| parse_query(&mut voc, text).unwrap());
        let mut rng = StdRng::seed_from_u64(0xB1D);
        let mut full = 0;
        for round in 0..60 {
            let (bid, full_blocks) = random_bid(&mut rng, &voc);
            full += full_blocks;
            for q in &queries {
                let exact = bid.exact_probability(q);
                let bf = bid.brute_force_probability(q);
                assert!(
                    (exact - bf).abs() < 1e-12,
                    "round {round}, {}: encoded lineage {exact} vs enumeration {bf}",
                    q.display(&voc)
                );
            }
        }
        assert!(full > 0, "no block carried the full mass");
    }

    #[test]
    fn scales_past_world_enumeration() {
        // 80 blocks: 3^40 · 2^40 ≈ 1e31 worlds for the enumerator; the
        // encoded lineage is instant on this safe shape.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "S(x,v), T(v)").unwrap();
        let s = voc.find_relation("S").unwrap();
        let t = voc.find_relation("T").unwrap();
        let mut bid = BidDb::new(voc);
        for b in 0..40u64 {
            bid.add_block(s, alts(&[(&[b, 1000 + b], 0.4), (&[b, 2000 + b], 0.4)]));
            bid.add_block(t, vec![(vec![Value(1000 + b)], 0.5)]);
        }
        let p = bid.exact_probability(&q);
        // Per b: P(S picks the 1000-reading ∧ T(1000+b)) = 0.4·0.5 = 0.2;
        // independent across b: 1 − 0.8^40.
        let expected = 1.0 - 0.8f64.powi(40);
        assert!((p - expected).abs() < 1e-9, "{p} vs {expected}");
    }

    #[test]
    fn empty_lineage_is_zero() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "T(x)").unwrap();
        let s = voc.relation("S", 2).unwrap();
        let mut bid = BidDb::new(voc);
        bid.add_block(s, vec![(vec![Value(1), Value(2)], 0.5)]);
        assert_eq!(bid.exact_probability(&q), 0.0);
    }
}
