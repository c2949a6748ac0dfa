//! Monte-Carlo estimation of DNF probability: [`karp_luby`], the Karp–Luby
//! importance sampler, an FPRAS for DNF probability. Sample a clause
//! proportionally to its weight, complete it to a world, and count the
//! sample iff the chosen clause is the *first* satisfied clause. Relative
//! error is controlled independently of how small the answer is — naive
//! world sampling would need `Ω(1/P)` samples.
//!
//! This is the paper's practical foil: MystiQ (§1) falls back to "a Monte
//! Carlo simulation algorithm" for unsafe queries. Experiment E4
//! (`tests/paper_claims.rs`) asserts that seeded Karp–Luby lands inside
//! its reported standard error where the safe plan is exact.
//!
//! The estimator also comes in parallel form ([`karp_luby_par`]): the
//! sample budget is fanned out over a scoped-thread worker pool, each
//! worker drawing from its own RNG stream (seed-split via
//! [`rand::rngs::StdRng::split`], so a fixed seed and thread count is fully
//! reproducible), and the per-worker hit counts pool into one estimate with
//! a pooled standard error.

use crate::dnf::Dnf;
use exec_parallel::{ExecStats, Pool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Monte-Carlo estimate with its standard error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct McEstimate {
    pub estimate: f64,
    /// Standard error of the mean (σ/√n).
    pub std_error: f64,
    pub samples: u64,
}

/// Reusable sampling scratch: the world bitmap the estimators fill on
/// every draw. One scratch per (worker) thread, reused across samples
/// *and* across calls — per-candidate ranking loops used to pay one heap
/// allocation per estimator invocation; carrying a scratch across the
/// loop drops that to zero. Purely an allocation cache: it never affects
/// which random numbers are drawn, so estimates stay byte-identical per
/// `(seed, threads)` with or without reuse.
#[derive(Default)]
pub struct McScratch {
    world: Vec<bool>,
}

impl McScratch {
    pub fn new() -> Self {
        McScratch::default()
    }

    /// A cleared world bitmap of (at least) `n` events.
    pub fn world(&mut self, n: usize) -> &mut Vec<bool> {
        self.world.clear();
        self.world.resize(n, false);
        &mut self.world
    }
}

/// Split `samples` over `threads` seed-split RNG streams, run `kernel` on
/// each worker's share, and pool the hit counts. The split is by worker
/// index (worker `w` gets `samples/threads` plus one of the remainder), so
/// the schedule cannot leak into the totals.
fn pooled_hits(
    samples: u64,
    threads: usize,
    seed: u64,
    kernel: impl Fn(u64, &mut StdRng) -> u64 + Sync,
) -> (u64, ExecStats) {
    let threads = threads.max(1);
    let streams = StdRng::seed_from_u64(seed).split(threads);
    let base = samples / threads as u64;
    let rem = samples % threads as u64;
    let pool = Pool::new(threads);
    let hits: u64 = pool
        .map_partitions(threads, |w| {
            let _span = telemetry::span_with(|| format!("mc-round {w}"));
            let budget = base + u64::from((w as u64) < rem);
            let mut rng = streams[w].clone();
            kernel(budget, &mut rng)
        })
        .into_iter()
        .sum();
    (hits, pool.stats())
}

/// Karp–Luby importance sampling for `P(dnf)`.
///
/// Let `w_i = P(clause_i)` and `W = Σ w_i`. Draw clause `i ∝ w_i`, draw the
/// remaining events independently, and score `W · 1[i = min{ j : world ⊨
/// clause_j }]`. The score is an unbiased estimator of `P(⋁ clauses)` with
/// variance at most `W²/4 ≤ (m·P)²/4`, giving an FPRAS.
pub fn karp_luby<R: Rng>(dnf: &Dnf, probs: &[f64], samples: u64, rng: &mut R) -> McEstimate {
    karp_luby_with_scratch(dnf, probs, samples, rng, &mut McScratch::new())
}

/// [`karp_luby`] reusing a caller-held [`McScratch`] — for hot loops that
/// estimate many lineages back to back.
pub fn karp_luby_with_scratch<R: Rng>(
    dnf: &Dnf,
    probs: &[f64],
    samples: u64,
    rng: &mut R,
    scratch: &mut McScratch,
) -> McEstimate {
    match karp_luby_prepare(dnf, probs) {
        KlPrep::Constant(p) => McEstimate {
            estimate: p,
            std_error: 0.0,
            samples,
        },
        KlPrep::Ready { cum, n, total_w } => {
            let hits = karp_luby_hits(dnf, probs, &cum, n, samples, rng, scratch);
            karp_luby_estimate(hits, samples, total_w)
        }
    }
}

/// [`karp_luby`] with the sample budget fanned out over `threads` workers
/// on seed-split RNG streams; per-worker hit counts pool into one unbiased
/// estimate with a pooled standard error. Deterministic for a fixed
/// `(seed, threads)`.
pub fn karp_luby_par(
    dnf: &Dnf,
    probs: &[f64],
    samples: u64,
    threads: usize,
    seed: u64,
) -> (McEstimate, ExecStats) {
    match karp_luby_prepare(dnf, probs) {
        KlPrep::Constant(p) => (
            McEstimate {
                estimate: p,
                std_error: 0.0,
                samples,
            },
            ExecStats::default(),
        ),
        KlPrep::Ready { cum, n, total_w } => {
            let (hits, stats) = pooled_hits(samples, threads, seed, |budget, rng| {
                // One scratch per worker, reused across its samples.
                karp_luby_hits(dnf, probs, &cum, n, budget, rng, &mut McScratch::new())
            });
            (karp_luby_estimate(hits, samples, total_w), stats)
        }
    }
}

/// What the serial and parallel Karp–Luby entry points share: degenerate
/// DNFs short-circuit to a constant, everything else gets the clause CDF.
enum KlPrep {
    Constant(f64),
    Ready {
        cum: Vec<f64>,
        n: usize,
        total_w: f64,
    },
}

fn karp_luby_prepare(dnf: &Dnf, probs: &[f64]) -> KlPrep {
    if dnf.is_false() {
        return KlPrep::Constant(0.0);
    }
    if dnf.is_true() {
        return KlPrep::Constant(1.0);
    }
    let n = probs.len().max(dnf.num_vars());
    let weights: Vec<f64> = dnf.clauses.iter().map(|c| c.prob(probs)).collect();
    let total_w: f64 = weights.iter().sum();
    if total_w == 0.0 {
        return KlPrep::Constant(0.0);
    }
    // Cumulative distribution for clause sampling.
    let mut cum = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total_w;
        cum.push(acc);
    }
    KlPrep::Ready { cum, n, total_w }
}

/// The Karp–Luby sampling kernel: `samples` draws, counting those where
/// the sampled clause is the first satisfied one. The world bitmap comes
/// from `scratch`; every position is overwritten per draw.
#[allow(clippy::too_many_arguments)]
fn karp_luby_hits<R: Rng>(
    dnf: &Dnf,
    probs: &[f64],
    cum: &[f64],
    n: usize,
    samples: u64,
    rng: &mut R,
    scratch: &mut McScratch,
) -> u64 {
    let world = scratch.world(n);
    let mut hits = 0u64;
    for _ in 0..samples {
        // Pick a clause proportionally to its weight.
        let u: f64 = rng.gen();
        let idx = match cum.iter().position(|&c| u <= c) {
            Some(i) => i,
            None => cum.len() - 1,
        };
        // Sample a world conditioned on clause idx being true.
        for (i, w) in world.iter_mut().enumerate() {
            let p = probs.get(i).copied().unwrap_or(0.0);
            *w = rng.gen::<f64>() < p;
        }
        for l in dnf.clauses[idx].lits() {
            world[l.var as usize] = l.positive;
        }
        // Count iff idx is the first satisfied clause.
        let first = dnf
            .clauses
            .iter()
            .position(|c| c.satisfied_by(world))
            .expect("sampled clause is satisfied");
        if first == idx {
            hits += 1;
        }
    }
    hits
}

fn karp_luby_estimate(hits: u64, samples: u64, total_w: f64) -> McEstimate {
    let frac = hits as f64 / samples as f64;
    let est = total_w * frac;
    let se = total_w * (frac * (1.0 - frac) / samples as f64).sqrt();
    McEstimate {
        estimate: est.min(1.0),
        std_error: se,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Lit;
    use crate::exact::exact_probability;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_dnf(k: usize) -> (Dnf, Vec<f64>) {
        // (e0 ∧ e1) ∨ (e1 ∧ e2) ∨ … — overlapping clauses.
        let mut d = Dnf::new();
        for i in 0..k {
            d.add_clause(vec![Lit::pos(i as u32), Lit::pos(i as u32 + 1)]);
        }
        let probs = (0..=k).map(|i| 0.2 + 0.05 * (i % 7) as f64).collect();
        (d, probs)
    }

    #[test]
    fn karp_luby_converges() {
        let (d, probs) = chain_dnf(6);
        let exact = exact_probability(&d, &probs);
        let mut rng = StdRng::seed_from_u64(11);
        let est = karp_luby(&d, &probs, 100_000, &mut rng);
        assert!(
            (est.estimate - exact).abs() < 5.0 * est.std_error.max(1e-3),
            "exact={exact} est={est:?}"
        );
    }

    #[test]
    fn karp_luby_handles_tiny_probabilities() {
        // P ≈ 1e-6: naive MC with few samples sees nothing, Karp–Luby still
        // achieves small relative error.
        let mut d = Dnf::new();
        d.add_clause(vec![Lit::pos(0), Lit::pos(1)]);
        let probs = [1e-3, 1e-3];
        let exact = 1e-6;
        let mut rng = StdRng::seed_from_u64(3);
        let est = karp_luby(&d, &probs, 10_000, &mut rng);
        assert!(
            (est.estimate - exact).abs() / exact < 0.05,
            "est={est:?} exact={exact}"
        );
    }

    #[test]
    fn constants_short_circuit() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(karp_luby(&Dnf::new(), &[], 10, &mut rng).estimate, 0.0);
        assert_eq!(karp_luby(&Dnf::truth(), &[], 10, &mut rng).estimate, 1.0);
    }

    #[test]
    fn parallel_estimators_are_deterministic_per_seed_and_thread_count() {
        let (d, probs) = chain_dnf(6);
        for threads in [1, 2, 4, 8] {
            let (a, _) = karp_luby_par(&d, &probs, 20_000, threads, 99);
            let (b, _) = karp_luby_par(&d, &probs, 20_000, threads, 99);
            assert_eq!(a, b, "karp_luby_par threads={threads}");
        }
    }

    #[test]
    fn parallel_estimators_converge() {
        let (d, probs) = chain_dnf(6);
        let exact = exact_probability(&d, &probs);
        for threads in [2, 4] {
            let (kl, stats) = karp_luby_par(&d, &probs, 100_000, threads, 5);
            assert!(
                (kl.estimate - exact).abs() < 5.0 * kl.std_error.max(1e-3),
                "threads={threads}: exact={exact} est={kl:?}"
            );
            assert_eq!(stats.threads(), threads);
            assert_eq!(stats.total_morsels(), threads as u64);
        }
    }

    #[test]
    fn parallel_constants_short_circuit() {
        let (kl, _) = karp_luby_par(&Dnf::new(), &[], 10, 4, 0);
        assert_eq!(kl.estimate, 0.0);
        let (kl, _) = karp_luby_par(&Dnf::truth(), &[], 10, 4, 0);
        assert_eq!(kl.estimate, 1.0);
    }

    #[test]
    fn scratch_reuse_is_byte_identical_and_deterministic() {
        let (d, probs) = chain_dnf(6);
        // Fresh-scratch and reused-scratch runs draw the same RNG stream
        // and must produce the same bits — including when the scratch was
        // dirtied by a *different* (larger) DNF first.
        let (d_big, probs_big) = chain_dnf(9);
        let mut scratch = McScratch::new();
        let mut rng = StdRng::seed_from_u64(123);
        let _ = karp_luby_with_scratch(&d_big, &probs_big, 500, &mut rng, &mut scratch);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let fresh = karp_luby(&d, &probs, 5_000, &mut rng_a);
        let reused = karp_luby_with_scratch(&d, &probs, 5_000, &mut rng_b, &mut scratch);
        assert_eq!(fresh, reused);
        // And the other way round: a scratch last sized for a smaller DNF.
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let fresh = karp_luby(&d_big, &probs_big, 5_000, &mut rng_a);
        let reused = karp_luby_with_scratch(&d_big, &probs_big, 5_000, &mut rng_b, &mut scratch);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn estimates_report_sample_count_and_ci() {
        let (d, probs) = chain_dnf(3);
        let mut rng = StdRng::seed_from_u64(5);
        let est = karp_luby(&d, &probs, 1000, &mut rng);
        assert_eq!(est.samples, 1000);
        assert!(est.std_error > 0.0);
    }
}
