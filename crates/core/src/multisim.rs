//! Multisimulation: top-k answer retrieval by interval Monte Carlo.
//!
//! The MystiQ line of work pairs the safe-plan classifier with a ranked
//! retrieval strategy for the hard cases: run Monte-Carlo simulations on the
//! *lineages of the candidate answers concurrently*, maintain a confidence
//! interval per candidate, and spend further samples only on the candidates
//! that are still *critical* — those whose interval overlaps the boundary
//! between the tentative top-k set and the rest. Non-critical candidates
//! stop early, which is where the savings over uniform sampling come from.
//!
//! Intervals are Hoeffding bounds with a union-bound confidence budget over
//! all candidates, so when the procedure reports convergence the returned
//! set is the true top-k with probability at least `1 − delta` (under the
//! usual i.i.d.-sampling caveats).
//!
//! Sampling is **candidate-parallel**: every candidate owns its own RNG
//! stream, seed-split from the master seed at creation, so each round's
//! batches fan out over the morsel-driven worker pool with estimates that
//! are *byte-identical for a fixed seed at every thread count* — worker
//! scheduling never reaches the numbers.

use cq::{Query, Value, Var};
use exec_parallel::Pool;
use lineage::{Dnf, McScratch};
use pdb::{lineages_by_head, ProbDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for [`multisim_top_k`].
#[derive(Clone, Copy, Debug)]
pub struct MultiSimConfig {
    /// Samples added to each critical candidate per round.
    pub batch: u64,
    /// Overall error probability budget for the Hoeffding intervals.
    pub delta: f64,
    /// Per-candidate sampling ceiling; the run reports `converged = false`
    /// when critical candidates hit it (e.g. exact ties).
    pub max_samples_per_candidate: u64,
    /// RNG seed (reproducible runs).
    pub seed: u64,
    /// Worker threads for candidate sampling (1 = serial). Candidates draw
    /// from per-candidate seed-split streams, so estimates are
    /// byte-identical at every thread count.
    pub threads: usize,
}

impl Default for MultiSimConfig {
    fn default() -> Self {
        MultiSimConfig {
            batch: 512,
            delta: 0.05,
            max_samples_per_candidate: 1 << 20,
            seed: 0x7075,
            threads: 1,
        }
    }
}

/// One candidate answer with its current interval.
#[derive(Clone, Debug)]
pub struct MultiSimAnswer {
    /// Head-variable binding.
    pub tuple: Vec<Value>,
    /// Monte-Carlo point estimate of the answer probability.
    pub estimate: f64,
    /// Lower/upper confidence bounds.
    pub low: f64,
    pub high: f64,
    /// Samples spent on this candidate.
    pub samples: u64,
}

/// The result of a multisimulation run.
#[derive(Clone, Debug)]
pub struct MultiSimResult {
    /// The tentative top-k, ordered by estimate, descending.
    pub top: Vec<MultiSimAnswer>,
    /// Every candidate (top included), ordered by estimate, descending.
    pub all: Vec<MultiSimAnswer>,
    /// Total samples across candidates.
    pub total_samples: u64,
    /// Did the intervals separate the top-k from the rest?
    pub converged: bool,
}

struct Candidate {
    tuple: Vec<Value>,
    dnf: Dnf,
    /// The lineage's variables, hoisted out of the sampling loop.
    vars: Vec<u32>,
    /// This candidate's own RNG stream (seed-split from the master seed),
    /// which is what makes sampling order — and thread count — irrelevant
    /// to the estimates.
    rng: StdRng,
    hits: u64,
    samples: u64,
    /// Constant-probability shortcut for trivially true/false lineages.
    fixed: Option<f64>,
}

impl Candidate {
    fn estimate(&self) -> f64 {
        if let Some(p) = self.fixed {
            return p;
        }
        if self.samples == 0 {
            return 0.5;
        }
        self.hits as f64 / self.samples as f64
    }

    fn halfwidth(&self, delta_each: f64) -> f64 {
        if self.fixed.is_some() {
            return 0.0;
        }
        if self.samples == 0 {
            return 0.5;
        }
        ((2.0 / delta_each).ln() / (2.0 * self.samples as f64)).sqrt()
    }

    fn interval(&self, delta_each: f64) -> (f64, f64) {
        let e = self.estimate();
        let h = self.halfwidth(delta_each);
        ((e - h).max(0.0), (e + h).min(1.0))
    }
}

/// Retrieve the top-`k` answers of `q` with head variables `head` by
/// multisimulation over the candidate lineages.
///
/// # Panics
/// If some head variable does not occur in the query, or `k == 0`.
pub fn multisim_top_k(
    db: &ProbDb,
    q: &Query,
    head: &[Var],
    k: usize,
    config: MultiSimConfig,
) -> MultiSimResult {
    assert!(k > 0, "top-0 is empty by definition");
    for h in head {
        assert!(
            q.vars().contains(h),
            "head variable {h} does not occur in the query"
        );
    }
    let probs = db.probs();

    // Candidates and their lineages, extracted in one shared pass over the
    // valuations (earlier revisions re-enumerated the join once per
    // candidate).
    let lineages = lineages_by_head(db, q, head);
    // One RNG stream per candidate, split off the master seed. A
    // candidate's draws depend only on (seed, its index, its own batch
    // history) — not on which other candidates sampled or on the worker
    // pool's schedule.
    let mut master = StdRng::seed_from_u64(config.seed);
    let streams = master.split(lineages.len());
    let mut cands: Vec<Candidate> = lineages
        .into_iter()
        .zip(streams)
        .map(|((tuple, dnf), rng)| {
            let fixed = if dnf.is_false() {
                Some(0.0)
            } else if dnf.is_true() {
                Some(1.0)
            } else {
                None
            };
            let vars: Vec<u32> = dnf.vars().into_iter().collect();
            Candidate {
                tuple,
                dnf,
                vars,
                rng,
                hits: 0,
                samples: 0,
                fixed,
            }
        })
        .collect();

    let m = cands.len();
    // Union-bound budget: each candidate's interval must hold for its whole
    // trajectory; the doubling trick costs a log factor we fold into delta.
    let delta_each = if m == 0 { 1.0 } else { config.delta / m as f64 };
    let mut converged = m <= k;

    // One world bitmap reused across every serial sample of every
    // candidate; parallel workers carry their own.
    let mut scratch = McScratch::new();
    if m > k {
        loop {
            // Tentative top-k by estimate.
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by(|&a, &b| {
                cands[b]
                    .estimate()
                    .partial_cmp(&cands[a].estimate())
                    .expect("finite")
                    .then_with(|| cands[a].tuple.cmp(&cands[b].tuple))
            });
            let (top, rest) = order.split_at(k);
            let min_top_low = top
                .iter()
                .map(|&i| cands[i].interval(delta_each).0)
                .fold(f64::INFINITY, f64::min);
            let max_rest_high = rest
                .iter()
                .map(|&i| cands[i].interval(delta_each).1)
                .fold(0.0, f64::max);
            if min_top_low >= max_rest_high {
                converged = true;
                break;
            }
            // Critical candidates: intervals crossing the separation band.
            let critical: Vec<usize> = top
                .iter()
                .filter(|&&i| cands[i].interval(delta_each).0 < max_rest_high)
                .chain(
                    rest.iter()
                        .filter(|&&i| cands[i].interval(delta_each).1 > min_top_low),
                )
                .copied()
                .filter(|&i| cands[i].fixed.is_none())
                .collect();
            let samplable: Vec<usize> = critical
                .into_iter()
                .filter(|&i| cands[i].samples < config.max_samples_per_candidate)
                .collect();
            if samplable.is_empty() {
                // Ties or exhausted budget: report honestly.
                converged = false;
                break;
            }
            // Fan the round's batches over the worker pool, one candidate
            // per work item: each worker samples with a clone of the
            // candidate's stream (and its own scratch world) and hands the
            // advanced state back — byte-identical to the serial loop.
            if config.threads > 1 {
                let cands_ref = &cands;
                let samplable_ref = &samplable;
                let pool = Pool::with_grain(config.threads, 1);
                let results: Vec<Vec<(usize, u64, StdRng)>> =
                    pool.map_morsels(samplable.len(), |r| {
                        let mut scratch = McScratch::new();
                        let mut out = Vec::with_capacity(r.len());
                        for si in r {
                            let c = &cands_ref[samplable_ref[si]];
                            let mut rng = c.rng.clone();
                            let hits = sample_batch(
                                &c.dnf,
                                &c.vars,
                                probs,
                                &mut rng,
                                config.batch,
                                &mut scratch,
                            );
                            out.push((samplable_ref[si], hits, rng));
                        }
                        out
                    });
                for (i, hits, rng) in results.into_iter().flatten() {
                    let c = &mut cands[i];
                    c.hits += hits;
                    c.samples += config.batch;
                    c.rng = rng;
                }
            } else {
                for i in samplable {
                    let c = &mut cands[i];
                    c.hits += sample_batch(
                        &c.dnf,
                        &c.vars,
                        probs,
                        &mut c.rng,
                        config.batch,
                        &mut scratch,
                    );
                    c.samples += config.batch;
                }
            }
        }
    }

    let mut answers: Vec<MultiSimAnswer> = cands
        .iter()
        .map(|c| {
            let (low, high) = c.interval(delta_each);
            MultiSimAnswer {
                tuple: c.tuple.clone(),
                estimate: c.estimate(),
                low,
                high,
                samples: c.samples,
            }
        })
        .collect();
    answers.sort_by(|a, b| {
        b.estimate
            .partial_cmp(&a.estimate)
            .expect("finite")
            .then_with(|| a.tuple.cmp(&b.tuple))
    });
    let total_samples = answers.iter().map(|a| a.samples).sum();
    MultiSimResult {
        top: answers.iter().take(k).cloned().collect(),
        all: answers,
        total_samples,
        converged,
    }
}

/// Fixed-budget marginal estimation over the candidate lineages — the
/// harness behind the ranked [`crate::engine::Strategy::MonteCarlo`]
/// path. Unlike [`multisim_top_k`]'s adaptive allocation, every candidate
/// receives exactly `samples` draws from its own seed-split stream,
/// fanned candidate-parallel over the worker pool. Returns
/// `(tuple, estimate, std_error)` per candidate, in lineage-extraction
/// order; for a fixed seed every number is **byte-identical at every
/// thread count** — the same determinism contract as the top-k
/// multisimulation, because the streams are per-candidate and worker
/// scheduling never reaches them.
pub fn multisim_marginals(
    db: &ProbDb,
    q: &Query,
    head: &[Var],
    samples: u64,
    seed: u64,
    threads: usize,
) -> Vec<(Vec<Value>, f64, f64)> {
    for h in head {
        assert!(
            q.vars().contains(h),
            "head variable {h} does not occur in the query"
        );
    }
    let probs = db.probs();
    let lineages = lineages_by_head(db, q, head);
    let mut master = StdRng::seed_from_u64(seed);
    let streams = master.split(lineages.len());
    let cands: Vec<(Vec<Value>, Dnf, StdRng)> = lineages
        .into_iter()
        .zip(streams)
        .map(|((tuple, dnf), rng)| (tuple, dnf, rng))
        .collect();
    let estimate_one = |(tuple, dnf, rng): &(Vec<Value>, Dnf, StdRng), scratch: &mut McScratch| {
        let (est, se) = if dnf.is_false() {
            (0.0, 0.0)
        } else if dnf.is_true() {
            (1.0, 0.0)
        } else if samples == 0 {
            (0.5, 0.5)
        } else {
            let vars: Vec<u32> = dnf.vars().into_iter().collect();
            let mut rng = rng.clone();
            let hits = sample_batch(dnf, &vars, probs, &mut rng, samples, scratch);
            let e = hits as f64 / samples as f64;
            (e, (e * (1.0 - e) / samples as f64).sqrt())
        };
        (tuple.clone(), est, se)
    };
    if threads > 1 {
        let pool = Pool::with_grain(threads, 1);
        let parts: Vec<Vec<(Vec<Value>, f64, f64)>> = pool.map_morsels(cands.len(), |r| {
            let mut scratch = McScratch::new();
            r.map(|i| estimate_one(&cands[i], &mut scratch)).collect()
        });
        parts.into_iter().flatten().collect()
    } else {
        let mut scratch = McScratch::new();
        cands
            .iter()
            .map(|c| estimate_one(c, &mut scratch))
            .collect()
    }
}

/// Draw `batch` worlds for one candidate's lineage and count the
/// satisfying ones. Samples only the variables the lineage mentions (in
/// ascending order, from the candidate's own stream); the scratch world is
/// cleared once per batch and the sampled positions are overwritten on
/// every draw.
fn sample_batch(
    dnf: &Dnf,
    vars: &[u32],
    probs: &[f64],
    rng: &mut StdRng,
    batch: u64,
    scratch: &mut McScratch,
) -> u64 {
    let world = scratch.world(probs.len().max(dnf.num_vars()));
    let mut hits = 0;
    for _ in 0..batch {
        for &v in vars {
            world[v as usize] = rng.gen_bool(probs[v as usize]);
        }
        if dnf.satisfied_by(world) {
            hits += 1;
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Strategy};
    use crate::ranking::ranked_answers;
    use cq::{parse_query, Vocabulary};

    /// A database whose answers are well-separated, so multisimulation must
    /// converge and agree with the exact ranking.
    fn separated_db() -> (ProbDb, Query, Vec<Var>) {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
        let d = q.vars()[0];
        let director = voc.find_relation("Director").unwrap();
        let credit = voc.find_relation("Credit").unwrap();
        let mut db = ProbDb::new(voc);
        let profile = [(1u64, 0.95), (2, 0.6), (3, 0.3), (4, 0.05)];
        for &(i, p) in &profile {
            db.insert(director, vec![Value(i)], p);
            db.insert(credit, vec![Value(i), Value(100 + i)], 0.9);
        }
        (db, q, vec![d])
    }

    #[test]
    fn converges_to_exact_top_k() {
        let (db, q, head) = separated_db();
        let exact = ranked_answers(&Engine::new(), &db, &q, &head, Strategy::Auto).unwrap();
        for k in 1..=3 {
            let ms = multisim_top_k(&db, &q, &head, k, MultiSimConfig::default());
            assert!(ms.converged, "k={k} did not converge");
            let got: Vec<_> = ms.top.iter().map(|a| a.tuple.clone()).collect();
            let want: Vec<_> = exact.iter().take(k).map(|a| a.tuple.clone()).collect();
            assert_eq!(got, want, "k={k}");
            // Intervals cover the exact probabilities.
            for a in &ms.all {
                let ex = exact.iter().find(|e| e.tuple == a.tuple).unwrap();
                assert!(
                    a.low - 1e-9 <= ex.probability && ex.probability <= a.high + 1e-9,
                    "interval [{}, {}] misses exact {} for {:?}",
                    a.low,
                    a.high,
                    ex.probability,
                    a.tuple
                );
            }
        }
    }

    #[test]
    fn non_critical_candidates_stop_early() {
        // A close pair at the top plus a distant loser: the pair needs many
        // rounds to separate, the loser exits the critical region after the
        // first round — adaptive allocation must show in the sample counts.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
        let d = q.vars()[0];
        let director = voc.find_relation("Director").unwrap();
        let credit = voc.find_relation("Credit").unwrap();
        let mut db = ProbDb::new(voc);
        for &(i, p) in &[(1u64, 0.85), (2, 0.78), (3, 0.08)] {
            db.insert(director, vec![Value(i)], p);
            db.insert(credit, vec![Value(i), Value(100 + i)], 0.9);
        }
        let ms = multisim_top_k(&db, &q, &[d], 1, MultiSimConfig::default());
        assert!(ms.converged);
        assert_eq!(ms.top[0].tuple, vec![Value(1)]);
        let loser = ms.all.iter().find(|a| a.tuple == vec![Value(3)]).unwrap();
        let max = ms.all.iter().map(|a| a.samples).max().unwrap();
        assert!(
            loser.samples < max,
            "expected adaptive allocation; loser spent {} of max {max}",
            loser.samples
        );
    }

    /// The satellite invariant: candidate-parallel sampling draws from
    /// per-candidate seed-split streams, so for a fixed seed the estimates
    /// — every point estimate, interval bound, and sample count — are
    /// byte-identical at every thread count.
    #[test]
    fn parallel_sampling_is_byte_identical_across_thread_counts() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
        let d = q.vars()[0];
        let director = voc.find_relation("Director").unwrap();
        let credit = voc.find_relation("Credit").unwrap();
        let mut db = ProbDb::new(voc);
        // A crowded field with close pairs: several rounds of sampling
        // with a changing critical set.
        for i in 0..8u64 {
            db.insert(director, vec![Value(i)], 0.2 + 0.08 * i as f64);
            db.insert(credit, vec![Value(i), Value(100 + i)], 0.9);
            db.insert(credit, vec![Value(i), Value(200 + i)], 0.5);
        }
        let run = |threads: usize| {
            let config = MultiSimConfig {
                batch: 128,
                max_samples_per_candidate: 1 << 14,
                threads,
                ..Default::default()
            };
            multisim_top_k(&db, &q, &[d], 3, config)
        };
        let serial = run(1);
        assert!(serial.total_samples > 0, "sampling must actually happen");
        for threads in [2, 4, 8] {
            let par = run(threads);
            assert_eq!(par.converged, serial.converged, "threads {threads}");
            assert_eq!(par.total_samples, serial.total_samples);
            assert_eq!(par.all.len(), serial.all.len());
            for (a, b) in par.all.iter().zip(&serial.all) {
                assert_eq!(a.tuple, b.tuple, "threads {threads}");
                assert_eq!(a.samples, b.samples);
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                assert_eq!(a.low.to_bits(), b.low.to_bits());
                assert_eq!(a.high.to_bits(), b.high.to_bits());
            }
        }
    }

    #[test]
    fn fewer_candidates_than_k_short_circuits() {
        let (db, q, head) = separated_db();
        let ms = multisim_top_k(&db, &q, &head, 10, MultiSimConfig::default());
        assert!(ms.converged);
        assert_eq!(ms.top.len(), 4);
        assert_eq!(ms.total_samples, 0, "no sampling needed when all qualify");
    }

    #[test]
    fn exhausted_budget_reports_non_convergence() {
        // Two identical candidates: no sample budget separates them.
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
        let d = q.vars()[0];
        let director = voc.find_relation("Director").unwrap();
        let credit = voc.find_relation("Credit").unwrap();
        let mut db = ProbDb::new(voc);
        for i in 1..=2u64 {
            db.insert(director, vec![Value(i)], 0.5);
            db.insert(credit, vec![Value(i), Value(100)], 0.5);
        }
        let config = MultiSimConfig {
            batch: 64,
            max_samples_per_candidate: 256,
            ..Default::default()
        };
        let ms = multisim_top_k(&db, &q, &head_of(d), 1, config);
        assert!(!ms.converged);
        assert!(ms.total_samples > 0);
    }

    fn head_of(v: Var) -> Vec<Var> {
        vec![v]
    }

    #[test]
    #[should_panic(expected = "top-0")]
    fn k_zero_rejected() {
        let (db, q, head) = separated_db();
        let _ = multisim_top_k(&db, &q, &head, 0, MultiSimConfig::default());
    }

    #[test]
    #[should_panic(expected = "does not occur")]
    fn foreign_head_rejected() {
        let (db, q, _) = separated_db();
        let _ = multisim_top_k(&db, &q, &[Var(99)], 1, MultiSimConfig::default());
    }
}
