//! The PTIME evaluation algorithm for inversion-free queries (§3.2,
//! Theorems 3.4/3.6), implemented in *root recursion* form.
//!
//! Starting from the rooted strict coverage (Theorem 3.4 guarantees a root
//! choice where every consistent unification maps roots to roots), the
//! probability is computed by mutually recursive inclusion–exclusion:
//!
//! * **UCQ layer** — `P(⋁_i q_i) = Σ_{∅≠s} (−1)^{|s|+1} P(⋀_{i∈s} q_i)`,
//! * **conjunction layer** — split into connected factors; ground sub-goals
//!   condition the database and contribute their probability directly; for
//!   the variable factors `P(⋀_f A_f) = Σ_{τ⊆F} (−1)^{|τ|} Π_{a∈A}
//!   (1 − P(⋁_{f∈τ} f[a/r_f]))`, which is sound because for `a ≠ a'` the
//!   instantiated factors touch disjoint tuples (roots occur in every
//!   sub-goal and unifications map roots to roots — checked at runtime, so
//!   a violation is a typed error rather than a wrong number).
//!
//! Each substitution removes one variable from *every* sub-goal of a
//! factor, so the recursion depth is bounded by `V(q)` and the total cost by
//! `O(N^{V(q)})` — Corollary 3.7. Sub-results are memoized on the
//! canonicalized query plus the conditioning context.
//!
//! The evaluator is generic over [`ProbValue`], like `safeplan`: the same
//! circuit runs on `f64` and on exact [`numeric::QRat`] rationals, the
//! number type the paper states its complexity in (§1).

use crate::coverage::{rooted_coverage, CoverageError};
use crate::hierarchy::root_candidates;
use cq::{contains, mgu_atoms, Pred, PredTheory, Query, Term, Value, Var};
use lineage::ProbValue;
use pdb::ProbDb;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Safe-evaluation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SafeEvalError {
    /// Coverage construction failed.
    Coverage(CoverageError),
    /// No consistent root assignment exists — the query has an inversion
    /// (Theorem 3.4 fails), use another evaluator.
    RootSelectionFailed,
    /// Defensive recursion bound (depth exceeds `V(q)` would indicate a
    /// bug, not an input property).
    DepthExceeded,
    /// The coverage produced more disjuncts/factors than the
    /// inclusion–exclusion budget allows (an engineering bound, not a
    /// theoretical one — callers fall back to exact lineage).
    TooComplex,
}

impl fmt::Display for SafeEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafeEvalError::Coverage(e) => write!(f, "{e}"),
            SafeEvalError::RootSelectionFailed => {
                write!(f, "no consistent root choice (query has an inversion?)")
            }
            SafeEvalError::DepthExceeded => write!(f, "recursion depth bound exceeded"),
            SafeEvalError::TooComplex => {
                write!(f, "coverage exceeds the inclusion-exclusion budget")
            }
        }
    }
}

impl std::error::Error for SafeEvalError {}

impl From<CoverageError> for SafeEvalError {
    fn from(e: CoverageError) -> Self {
        SafeEvalError::Coverage(e)
    }
}

/// Conditioning context: tuples forced present/absent by ground sub-goals
/// along the current recursion branch.
type Ctx = BTreeMap<(cq::RelId, Vec<Value>), bool>;

/// Evaluate `p(q)` for an inversion-free query `q` in polynomial time in
/// the size of `db`, over the tuple probabilities `probs` in
/// [`pdb::TupleId`] order: `db.probs()` for `f64`,
/// [`pdb::RatProbs::as_slice`] for exact rationals.
pub fn eval_inversion_free<P: ProbValue>(
    db: &ProbDb,
    probs: &[P],
    q: &Query,
) -> Result<P, SafeEvalError> {
    let Some(qn) = q.normalize() else {
        return Ok(P::zero());
    };
    if qn.atoms.is_empty() {
        return Ok(P::one());
    }
    let cov = rooted_coverage(&qn)?;
    let covers = cov.cover_queries();
    let mut domain: Vec<Value> = db.eval_domain(&qn).into_iter().collect();
    for c in &covers {
        for v in c.constants() {
            if !domain.contains(&v) {
                domain.push(v);
            }
        }
    }
    domain.sort();
    let mut ev = Evaluator {
        db,
        probs,
        domain,
        memo: HashMap::new(),
        depth_limit: 4 * (qn.max_vars_per_subgoal() + 2),
    };
    ev.ucq(&covers, &Ctx::new(), 0)
}

struct Evaluator<'a, P> {
    db: &'a ProbDb,
    probs: &'a [P],
    domain: Vec<Value>,
    memo: HashMap<String, P>,
    depth_limit: usize,
}

impl<P: ProbValue> Evaluator<'_, P> {
    fn prob_of(&self, rel: cq::RelId, args: &[Value], ctx: &Ctx) -> P {
        match ctx.get(&(rel, args.to_vec())) {
            Some(true) => P::one(),
            Some(false) => P::zero(),
            None => self
                .db
                .find(rel, args)
                .map_or_else(P::zero, |id| self.probs[id.0 as usize].clone()),
        }
    }

    fn ctx_key(ctx: &Ctx) -> String {
        let mut s = String::new();
        for ((rel, args), present) in ctx {
            s.push_str(&format!("{}:{:?}={};", rel.0, args, present));
        }
        s
    }

    /// `P(⋁ disjuncts)`.
    fn ucq(&mut self, disjuncts: &[Query], ctx: &Ctx, depth: usize) -> Result<P, SafeEvalError> {
        if depth > self.depth_limit {
            return Err(SafeEvalError::DepthExceeded);
        }
        // Normalize; unsatisfiable disjuncts vanish.
        let mut qs: Vec<Query> = Vec::new();
        for d in disjuncts {
            if let Some(n) = d.normalize() {
                if n.atoms.is_empty() {
                    return Ok(P::one()); // a disjunct became `true`
                }
                qs.push(n.compact_vars());
            }
        }
        // Dedup and drop disjuncts implied by another (q_i ⊨ q_j ⇒ drop q_i
        // from the union... no: q_i implies q_j means q_i ∨ q_j = q_j, drop
        // q_i).
        let mut kept: Vec<Query> = Vec::new();
        'outer: for (i, q) in qs.iter().enumerate() {
            for (j, r) in qs.iter().enumerate() {
                if i == j {
                    continue;
                }
                if contains(q, r) {
                    // q ⊨ r: q is absorbed by r; break ties by index.
                    let mutual = contains(r, q);
                    if !mutual || j < i {
                        continue 'outer;
                    }
                }
            }
            kept.push(q.clone());
        }
        if kept.is_empty() {
            return Ok(P::zero());
        }

        let mut keys: Vec<String> = kept.iter().map(|q| q.cache_key()).collect();
        keys.sort();
        let memo_key = format!("U|{}|{}", keys.join("&"), Self::ctx_key(ctx));
        if let Some(p) = self.memo.get(&memo_key) {
            return Ok(p.clone());
        }

        // Inclusion–exclusion over nonempty subsets of the disjuncts.
        let n = kept.len();
        if n >= 16 {
            return Err(SafeEvalError::TooComplex);
        }
        let mut total = P::zero();
        for mask in 1u32..(1 << n) {
            // Conjoin the selected disjuncts with variables renamed apart.
            let mut factors: Vec<Query> = Vec::new();
            let mut offset = 0u32;
            for (b, q) in kept.iter().enumerate() {
                if mask >> b & 1 == 1 {
                    let r = q.rename_apart(offset);
                    offset += q.vars().len() as u32 + 1;
                    factors.extend(r.connected_components());
                }
            }
            let term = self.conj(&factors, ctx, depth + 1)?;
            total = if mask.count_ones() % 2 == 1 {
                total.add(&term)
            } else {
                total.sub(&term)
            };
        }
        self.memo.insert(memo_key, total.clone());
        Ok(total)
    }

    /// `P(⋀ factors)` for connected factors (variables pairwise disjoint).
    fn conj(&mut self, factors: &[Query], ctx: &Ctx, depth: usize) -> Result<P, SafeEvalError> {
        if depth > self.depth_limit {
            return Err(SafeEvalError::DepthExceeded);
        }
        // Split ground factors from variable factors; ground sub-goals
        // contribute their probability and condition the context.
        let mut ctx = ctx.clone();
        let mut multiplier = P::one();
        let mut var_factors: Vec<Query> = Vec::new();
        for f in factors {
            let Some(f) = f.normalize() else {
                return Ok(P::zero());
            };
            if f.atoms.is_empty() {
                continue;
            }
            if f.is_ground() {
                for atom in &f.atoms {
                    let args: Vec<Value> = atom
                        .args
                        .iter()
                        .map(|t| t.as_const().expect("ground"))
                        .collect();
                    let want_present = !atom.negated;
                    match ctx.get(&(atom.rel, args.clone())) {
                        Some(&p) => {
                            if p != want_present {
                                return Ok(P::zero());
                            }
                        }
                        None => {
                            let pt = self.prob_of(atom.rel, &args, &ctx);
                            multiplier =
                                multiplier.mul(&if want_present { pt } else { pt.complement() });
                            if multiplier.is_zero() {
                                return Ok(P::zero());
                            }
                            ctx.insert((atom.rel, args), want_present);
                        }
                    }
                }
            } else {
                var_factors.push(f);
            }
        }
        if var_factors.is_empty() {
            return Ok(multiplier);
        }

        // Conjunction absorption: drop a factor implied by another
        // (`A ⊨ B ⇒ A ∧ B = A`).
        let mut comps: Vec<Query> = Vec::new();
        'outer: for (i, f) in var_factors.iter().enumerate() {
            for (j, g) in var_factors.iter().enumerate() {
                if i == j {
                    continue;
                }
                if contains(g, f) {
                    // g ⊨ f: f is implied.
                    let mutual = contains(f, g);
                    if !mutual || j < i {
                        continue 'outer;
                    }
                }
            }
            comps.push(f.clone());
        }

        let mut keys: Vec<String> = comps.iter().map(|q| q.cache_key()).collect();
        keys.sort();
        let memo_key = format!("C|{}|{}", keys.join("&"), Self::ctx_key(&ctx));
        if let Some(p) = self.memo.get(&memo_key) {
            return Ok(multiplier.mul(p));
        }

        let roots = self
            .select_roots(&comps)
            .ok_or(SafeEvalError::RootSelectionFailed)?;

        // P(⋀_f A_f) = Σ_{τ⊆F} (−1)^{|τ|} Π_a (1 − P(⋁_{f∈τ} f[a/r_f])).
        let k = comps.len();
        if k >= 16 {
            return Err(SafeEvalError::TooComplex);
        }
        // τ = ∅ contributes `+1`.
        let mut total = P::one();
        for mask in 1u32..(1 << k) {
            let mut prod = P::one();
            for i in 0..self.domain.len() {
                let a = self.domain[i];
                let disjuncts: Vec<Query> = comps
                    .iter()
                    .zip(&roots)
                    .enumerate()
                    .filter(|&(b, _)| mask >> b & 1 == 1)
                    .map(|(_, (f, &r))| f.substitute(r, a))
                    .collect();
                let p = self.ucq(&disjuncts, &ctx, depth + 1)?;
                prod = prod.mul(&p.complement());
                if prod.is_zero() {
                    break;
                }
            }
            total = if mask.count_ones() % 2 == 0 {
                total.add(&prod)
            } else {
                total.sub(&prod)
            };
        }
        self.memo.insert(memo_key, total.clone());
        Ok(multiplier.mul(&total))
    }

    /// Choose one root per factor such that every consistent unification of
    /// sub-goals (across factors or between renamed copies of one factor)
    /// maps roots to roots — the Theorem 3.4 property that underwrites the
    /// per-value independence.
    fn select_roots(&self, comps: &[Query]) -> Option<Vec<Var>> {
        let candidates: Vec<Vec<Var>> = comps
            .iter()
            .map(|f| {
                // Prefer the predicate-maximal candidate: with the rooted
                // coverage the top ≡-class is totally ordered and the
                // >-maximum is the canonical choice.
                let mut cands = root_candidates(f)?;
                if let Some(theory) = f.theory() {
                    cands.sort_by(|&a, &b| {
                        if theory.entails(&Pred::lt(a, b)) {
                            std::cmp::Ordering::Greater
                        } else if theory.entails(&Pred::gt(a, b)) {
                            std::cmp::Ordering::Less
                        } else {
                            std::cmp::Ordering::Equal
                        }
                    });
                }
                Some(cands)
            })
            .collect::<Option<Vec<_>>>()?;
        let mut choice: Vec<Var> = Vec::new();
        if self.search_roots(comps, &candidates, &mut choice) {
            Some(choice)
        } else {
            None
        }
    }

    fn search_roots(
        &self,
        comps: &[Query],
        candidates: &[Vec<Var>],
        choice: &mut Vec<Var>,
    ) -> bool {
        let i = choice.len();
        if i == comps.len() {
            return true;
        }
        'cand: for &r in &candidates[i] {
            choice.push(r);
            // Check consistency against all factors chosen so far,
            // including the new factor against itself.
            for j in 0..=i {
                if !roots_consistent(&comps[j], choice[j], &comps[i], r) {
                    choice.pop();
                    continue 'cand;
                }
            }
            if self.search_roots(comps, candidates, choice) {
                return true;
            }
            choice.pop();
        }
        false
    }
}

/// Does every consistent MGU between a sub-goal of `f` and a sub-goal of a
/// renamed copy of `g` identify `rf` with `rg`? Polarity is ignored: a
/// positive and a negated sub-goal over the same relation can still touch
/// the same tuple.
fn roots_consistent(f: &Query, rf: Var, g: &Query, rg: Var) -> bool {
    let offset = f.max_var().map_or(0, |v| v.0 + 1);
    let gr = g.rename_apart(offset);
    let rg_r = Var(rg.0 + offset);
    for a1 in &f.atoms {
        for a2 in &gr.atoms {
            let mut p1 = a1.clone();
            p1.negated = false;
            let mut p2 = a2.clone();
            p2.negated = false;
            let Some(mgu) = mgu_atoms(&p1, &p2) else {
                continue;
            };
            let mut preds: Vec<Pred> = f.preds.clone();
            preds.extend(gr.preds.iter().copied());
            preds.extend(mgu.equalities());
            if !PredTheory::satisfiable(&preds) {
                continue;
            }
            let ir = mgu.subst.apply_term_deep(Term::Var(rf));
            let jr = mgu.subst.apply_term_deep(Term::Var(rg_r));
            if ir != jr {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Vocabulary};
    use numeric::QRat;
    use pdb::generators::{random_db_for_query, RandomDbOptions};
    use pdb::{brute_force_probability, brute_force_probability_exact, RatProbs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The `f64` run matches world enumeration to `1e-8`, and the rational
    /// run on the same database equals exact enumeration with `==`.
    fn check(query_text: &str, seed: u64, rounds: usize) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, query_text).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = RandomDbOptions {
            domain: 3,
            tuples_per_relation: 3,
            prob_range: (0.1, 0.9),
        };
        for round in 0..rounds {
            let db = random_db_for_query(&q, &voc, opts, &mut rng);
            let safe = eval_inversion_free(&db, db.probs(), &q)
                .unwrap_or_else(|e| panic!("round {round}: {e} for {query_text}"));
            let bf = brute_force_probability(&db, &q);
            assert!(
                (safe - bf).abs() < 1e-8,
                "round {round}: safe {safe} vs brute force {bf} for {query_text}"
            );
            let probs = RatProbs::from_db(&db);
            let exact = eval_inversion_free(&db, probs.as_slice(), &q)
                .unwrap_or_else(|e| panic!("round {round}: {e} for {query_text}"));
            let bf = brute_force_probability_exact(&db, &probs, &q);
            assert_eq!(exact, bf, "round {round}: {query_text}");
        }
    }

    #[test]
    fn exact_matches_float_and_enumeration() {
        // The hierarchical self-join-free shapes Eq. 3 covers, incl. a
        // predicate and a negated sub-goal (Theorem 3.11).
        check("R(x), S(x,y)", 1, 4);
        check("R(x), S(x,y), U(x,y,z)", 2, 4);
        check("R(x), T(z,w)", 3, 4);
        check("S(x,y), x < y", 4, 4);
        check("R(x), not T(x)", 5, 4);
    }

    #[test]
    fn exact_closed_form() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(2)], 0.25);
        let probs = RatProbs::from_db(&db);
        let p = eval_inversion_free(&db, probs.as_slice(), &q).unwrap();
        assert_eq!(p, QRat::ratio(1, 8));
    }

    #[test]
    fn no_self_join_queries_match_brute_force() {
        check("R(x), S(x,y)", 1, 5);
        check("R(x), T(z,w)", 2, 5);
        check("S(x,y), x < y", 3, 5);
    }

    #[test]
    fn section_1_1_selfjoin_query_matches() {
        // q = R(x), S(x,y), S(x2,y2), T(x2): the motivating self-join
        // example, PTIME via f3 = R(x),S(x,y),T(x) (Example 3.8).
        check("R(x), S(x,y), S(x2,y2), T(x2)", 4, 6);
    }

    #[test]
    fn example_2_14_query_matches() {
        check("P(x), R(x,y), R(x2,y2), S(x2)", 5, 6);
    }

    #[test]
    fn symmetric_pair_matches() {
        // R(x,y), R(y,x) — needs the rooted coverage (Example 3.5).
        check("R(x,y), R(y,x)", 6, 8);
    }

    #[test]
    fn repeated_relation_same_pattern_matches() {
        // R(x), R(y): trivially equivalent to R(x).
        check("R(x), R(y)", 7, 4);
    }

    #[test]
    fn footnote_ptime_query_matches() {
        // R(x,y,y,x), R(x,y,x,z) — "we are not aware of any algorithm
        // that is simpler than ours" (footnote 1).
        check("R(x,y,y,x), R(x,y,x,z)", 8, 6);
    }

    #[test]
    fn footnote_divergent_query_matches_brute_force() {
        // The footnote-1 query the paper claims #P-hard (without proof)
        // but our analysis finds inversion-free — the only non-identity
        // unification forces x = y inside one factor, see
        // `inversion::tests::footnote_hard_variant_divergence_is_stable`:
        // polynomial evaluation agrees with exact enumeration.
        check("R(y,x,y,x,y), R(y,y,y,z,x), R(x,x,y,z,u)", 21, 8);
    }

    #[test]
    fn ground_atoms_condition_correctly() {
        check("R(1), S(1,y)", 9, 4);
        check("R(1), R(2)", 10, 4);
        check("R(1), R(x), S(x,y)", 11, 6);
    }

    #[test]
    fn constants_inside_selfjoins_match() {
        check("S(1,y), S(x,y2)", 12, 6);
    }

    #[test]
    fn negated_subgoals_match() {
        check("R(x), not T(x)", 13, 5);
        check("R(x), not S(x,y)", 14, 5);
    }

    #[test]
    fn empty_and_unsat_queries() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), x < x").unwrap();
        let db = ProbDb::new(voc);
        assert_eq!(eval_inversion_free(&db, db.probs(), &q).unwrap(), 0.0);
        let db2 = ProbDb::new(Vocabulary::new());
        assert_eq!(
            eval_inversion_free(&db2, db2.probs(), &Query::truth()).unwrap(),
            1.0
        );
    }

    #[test]
    fn inverted_query_reports_root_failure() {
        // H_0 has an inversion: the evaluator must refuse, not mis-answer.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), S(u,v), T(v)").unwrap();
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        let t = voc.find_relation("T").unwrap();
        let mut db = ProbDb::new(voc);
        db.insert(r, vec![Value(1)], 0.5);
        db.insert(s, vec![Value(1), Value(2)], 0.5);
        db.insert(t, vec![Value(2)], 0.5);
        assert_eq!(
            eval_inversion_free(&db, db.probs(), &q).unwrap_err(),
            SafeEvalError::RootSelectionFailed
        );
    }

    #[test]
    fn rejects_unsafe_queries() {
        // The non-hierarchical H_0 without self-joins: refused in exact
        // arithmetic too, before any data is read.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "R(x), S(x,y), T(y)").unwrap();
        let db = ProbDb::new(voc);
        let probs = RatProbs::from_db(&db);
        assert_eq!(
            eval_inversion_free(&db, probs.as_slice(), &q).unwrap_err(),
            SafeEvalError::RootSelectionFailed
        );
    }
}
