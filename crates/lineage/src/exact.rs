//! Exact DNF probability by decomposition + Shannon expansion.
//!
//! The evaluator repeatedly:
//! 1. simplifies (absorption, constant detection),
//! 2. splits the clause set into *independent components* (clauses sharing
//!    no event variable are independent, so
//!    `P(D1 ∨ D2) = 1 − (1 − P(D1))(1 − P(D2))`),
//! 3. otherwise picks the most frequent event variable and applies Shannon
//!    expansion `P(D) = p·P(D|v) + (1−p)·P(D|¬v)`.
//!
//! Sub-results are memoized on the serialized clause set. This is a small
//! knowledge-compilation engine (the traces are decision-DNNFs); it is the
//! exact oracle used throughout the workspace and — deliberately — has
//! exponential worst-case behaviour on the lineages of #P-hard queries,
//! which experiment E7 (`tests/paper_claims.rs`) asserts.
//!
//! The engine is generic over [`ProbValue`], so it runs both on `f64` and on
//! exact rationals ([`numeric::QRat`]); [`exact_probability_generic`] also
//! returns the work counters ([`ExactStats`]), and [`model_count_exact`] —
//! the crate's only model counter — uses rationals to count satisfying
//! assignments without any precision ceiling.

use crate::dnf::{Clause, Dnf};
use crate::field::ProbValue;
use numeric::{BigUint, QRat, Sign};
use std::collections::HashMap;

/// Counters describing the work done by one exact evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExactStats {
    /// Shannon expansions performed (decision nodes).
    pub decisions: u64,
    /// Independent-component splits.
    pub decompositions: u64,
    /// Memoization hits.
    pub cache_hits: u64,
}

/// Exact probability of `dnf` under independent event probabilities
/// `probs[v]`.
pub fn exact_probability(dnf: &Dnf, probs: &[f64]) -> f64 {
    exact_probability_generic(dnf, probs).0
}

/// The generic engine: exact probability over any [`ProbValue`] number type.
pub fn exact_probability_generic<P: ProbValue>(dnf: &Dnf, probs: &[P]) -> (P, ExactStats) {
    let mut ev = Evaluator {
        probs,
        memo: HashMap::new(),
        stats: ExactStats::default(),
    };
    let mut d = dnf.clone();
    d.absorb();
    let p = ev.eval(&d);
    (p, ev.stats)
}

/// Exact model count over `num_vars` variables with no precision ceiling:
/// evaluates `P(dnf)` in rational arithmetic at `p = 1/2` everywhere and
/// returns `2^num_vars · P(dnf)` as a big integer. This is the "counting
/// the number of substructures (when all probabilities are 1/2)"
/// specialization from the paper's conclusions.
///
/// # Panics
/// If `num_vars` is smaller than the variables used by `dnf`.
pub fn model_count_exact(dnf: &Dnf, num_vars: usize) -> BigUint {
    assert!(
        num_vars >= dnf.num_vars(),
        "num_vars {num_vars} < variables used by the DNF ({})",
        dnf.num_vars()
    );
    let probs = vec![QRat::ratio(1, 2); num_vars.max(1)];
    let (p, _) = exact_probability_generic(dnf, &probs);
    debug_assert!(p.sign() != Sign::Negative);
    // p = k / 2^m with m ≤ num_vars, so p · 2^num_vars is integral.
    let scaled = p.mul_ref(&QRat::from_parts(
        numeric::BigInt::from_biguint(Sign::Positive, BigUint::one().shl_bits(num_vars as u64)),
        BigUint::one(),
    ));
    assert!(
        scaled.denominator().is_one(),
        "model count must be integral, got {scaled}"
    );
    scaled.numerator().magnitude().clone()
}

struct Evaluator<'a, P: ProbValue> {
    probs: &'a [P],
    memo: HashMap<Vec<Clause>, P>,
    stats: ExactStats,
}

impl<P: ProbValue> Evaluator<'_, P> {
    fn eval(&mut self, dnf: &Dnf) -> P {
        if dnf.is_false() {
            return P::zero();
        }
        if dnf.is_true() {
            return P::one();
        }
        // Single clause: product of literal probabilities.
        if dnf.clauses.len() == 1 {
            return self.clause_prob(&dnf.clauses[0]);
        }
        let mut key: Vec<Clause> = dnf.clauses.clone();
        key.sort();
        if let Some(p) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return p.clone();
        }

        let p = self.eval_uncached(dnf);
        self.memo.insert(key, p.clone());
        p
    }

    fn clause_prob(&self, c: &Clause) -> P {
        let mut p = P::one();
        for l in c.lits() {
            let pv = &self.probs[l.var as usize];
            p = p.mul(&if l.positive {
                pv.clone()
            } else {
                pv.complement()
            });
        }
        p
    }

    fn eval_uncached(&mut self, dnf: &Dnf) -> P {
        // Independent-component split.
        let comps = components(dnf);
        if comps.len() > 1 {
            self.stats.decompositions += 1;
            let mut none = P::one();
            for c in comps {
                none = none.mul(&self.eval(&c).complement());
            }
            return none.complement();
        }

        // Shannon expansion on the most frequent variable.
        self.stats.decisions += 1;
        let v = most_frequent_var(dnf);
        let p = self.probs[v as usize].clone();
        let mut pos = dnf.condition(v, true);
        pos.absorb();
        let mut neg = dnf.condition(v, false);
        neg.absorb();
        let t = p.mul(&self.eval(&pos));
        let f = p.complement().mul(&self.eval(&neg));
        t.add(&f)
    }
}

fn most_frequent_var(dnf: &Dnf) -> u32 {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for c in &dnf.clauses {
        for l in c.lits() {
            *counts.entry(l.var).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(v, n)| (n, std::cmp::Reverse(v)))
        .map(|(v, _)| v)
        .expect("non-constant DNF has variables")
}

/// Partition clauses into groups sharing no variables (union–find), in the
/// order of each group's first clause.
fn components(dnf: &Dnf) -> Vec<Dnf> {
    let n = dnf.clauses.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner: HashMap<u32, usize> = HashMap::new();
    for (i, c) in dnf.clauses.iter().enumerate() {
        for l in c.lits() {
            match owner.get(&l.var) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                }
                None => {
                    owner.insert(l.var, i);
                }
            }
        }
    }
    // Groups in the order of their first clause: the evaluator folds the
    // component complements in this order, so it must not depend on a
    // hash state.
    let mut slot: Vec<Option<usize>> = vec![None; n];
    let mut groups: Vec<Dnf> = Vec::new();
    for (i, c) in dnf.clauses.iter().enumerate() {
        let r = find(&mut parent, i);
        let g = *slot[r].get_or_insert_with(|| {
            groups.push(Dnf::new());
            groups.len() - 1
        });
        groups[g].clauses.push(c.clone());
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Lit;

    fn brute_force(dnf: &Dnf, probs: &[f64]) -> f64 {
        let n = probs.len();
        let mut total = 0.0;
        for mask in 0u64..(1 << n) {
            let world: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            if dnf.satisfied_by(&world) {
                let mut p = 1.0;
                for (i, &b) in world.iter().enumerate() {
                    p *= if b { probs[i] } else { 1.0 - probs[i] };
                }
                total += p;
            }
        }
        total
    }

    #[test]
    fn constants() {
        assert_eq!(exact_probability(&Dnf::new(), &[]), 0.0);
        assert_eq!(exact_probability(&Dnf::truth(), &[]), 1.0);
    }

    #[test]
    fn single_positive_event() {
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0)]);
        assert!((exact_probability(&d, &[0.3]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn independent_union() {
        // e0 ∨ e1 with independent events: 1 - (1-p0)(1-p1).
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0)]);
        d.add_clause(vec![Lit::pos(1)]);
        let p = exact_probability(&d, &[0.3, 0.4]);
        assert!((p - (1.0 - 0.7 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn shared_variable_requires_shannon() {
        // (e0 ∧ e1) ∨ (e0 ∧ e2)
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        d.add_clause(vec![Lit::pos(0), Lit::pos(2)]);
        let probs = [0.5, 0.5, 0.5];
        let p = exact_probability(&d, &probs);
        assert!((p - brute_force(&d, &probs)).abs() < 1e-12);
        assert!((p - 0.5 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn negative_literals() {
        // (¬e0) ∨ (e0 ∧ e1)
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::neg(0)]);
        d.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        let probs = [0.6, 0.25];
        let p = exact_probability(&d, &probs);
        assert!((p - brute_force(&d, &probs)).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_formulas() {
        // Deterministic pseudo-random DNFs over 8 vars.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let n = 8usize;
            let mut d = Dnf::new();
            let clauses = 1 + (next() % 6) as usize;
            for _ in 0..clauses {
                let len = 1 + (next() % 3) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = (next() % n as u64) as u32;
                        if next() % 2 == 0 {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        }
                    })
                    .collect();
                d.add_clause(lits);
            }
            let probs: Vec<f64> = (0..n)
                .map(|i| (i as f64 + 1.0) / (n as f64 + 1.0))
                .collect();
            let p = exact_probability(&d, &probs);
            let bf = brute_force(&d, &probs);
            assert!((p - bf).abs() < 1e-10, "dnf={d} p={p} bf={bf}");
        }
    }

    #[test]
    fn repeated_calls_are_bit_identical() {
        // Ten independent components: the complement product's rounding
        // depends on the order the components are folded in.
        let mut dnf = Dnf::new();
        for i in 0..10u32 {
            dnf.add_clause(vec![Lit::pos(2 * i), Lit::neg(2 * i + 1)]);
        }
        let probs: Vec<f64> = (0..20).map(|i| 0.05 + 0.9 * f64::from(i) / 19.3).collect();
        let first = exact_probability(&dnf, &probs).to_bits();
        for _ in 0..200 {
            assert_eq!(exact_probability(&dnf, &probs).to_bits(), first);
        }
    }

    #[test]
    fn model_count_small() {
        // x0 ∨ x1 over 2 vars: 3 models.
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0)]);
        d.add_clause(vec![Lit::pos(1)]);
        assert_eq!(model_count_exact(&d, 2).to_u64(), Some(3));
        // Over 3 vars: 6 models.
        assert_eq!(model_count_exact(&d, 3).to_u64(), Some(6));
    }

    #[test]
    fn stats_are_reported() {
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        d.add_clause(vec![Lit::pos(0), Lit::pos(2)]);
        d.add_clause(vec![Lit::pos(3)]);
        let (_, stats) = exact_probability_generic(&d, &[0.5; 4]);
        assert!(stats.decompositions >= 1);
        assert!(stats.decisions >= 1);
    }

    #[test]
    fn rational_engine_agrees_with_f64() {
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        d.add_clause(vec![Lit::pos(0), Lit::pos(2)]);
        d.add_clause(vec![Lit::neg(1), Lit::pos(3)]);
        let fprobs = [0.5, 0.25, 0.75, 0.125];
        let qprobs: Vec<QRat> = [(1, 2), (1, 4), (3, 4), (1, 8)]
            .iter()
            .map(|&(n, den)| QRat::ratio(n, den))
            .collect();
        let pf = exact_probability(&d, &fprobs);
        let (pq, _) = exact_probability_generic(&d, &qprobs);
        assert!((pf - pq.to_f64()).abs() < 1e-12, "f64 {pf} vs exact {pq}");
    }

    #[test]
    fn model_count_exact_matches_f64_count() {
        // The rational count against `2^n · P` from the f64 engine at 1/2.
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0)]);
        d.add_clause(vec![Lit::pos(1), Lit::pos(2)]);
        for n in [3usize, 5, 10] {
            let f64_count = exact_probability(&d, &vec![0.5; n]) * (1u64 << n) as f64;
            assert_eq!(model_count_exact(&d, n).to_u64(), Some(f64_count as u64));
        }
    }

    #[test]
    fn model_count_exact_beyond_f64_mantissa() {
        // e0 over 80 variables: 2^79 models — far past the 53-bit ceiling.
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0)]);
        let c = model_count_exact(&d, 80);
        assert_eq!(c, BigUint::one().shl_bits(79));
    }

    #[test]
    #[should_panic(expected = "num_vars")]
    fn model_count_exact_rejects_undersized_domain() {
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(5)]);
        let _ = model_count_exact(&d, 3);
    }
}
