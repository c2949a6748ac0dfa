//! Print the paper experiments E1–E11: the Table 1 classification of the
//! query catalog, the MystiQ safe-plan vs Monte-Carlo gap, scaling,
//! hardness reductions, exact-compilation blow-up, estimator
//! convergence, the Fig. 1 ablation, safe plans vs the Eq. 3 recurrence,
//! substructure counting, and multisimulation top-k.
//!
//! ```text
//! cargo run --release -p bench-harness --bin report -- all
//! cargo run --release -p bench-harness --bin report -- table1 | mystiq | scaling | hardness | blowup | mc | ablation | plans | counting | multisim
//! ```

use bench_harness::{
    deep_workload, h0_workload, loglog_slope, selfjoin_workload, star_workload, time,
};
use cq::{parse_query, Query, Vocabulary};
use dichotomy::engine::{Engine, Strategy};
use dichotomy::{classify, Complexity, Expected, CATALOG};
use lineage::exact::exact_probability_with_stats;
use lineage::{exact_probability, karp_luby, naive_mc};
use pdb::{lineage_of, ProbDb};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    match which {
        "table1" => table1(),
        "mystiq" => mystiq(),
        "scaling" => scaling(),
        "hardness" => hardness(),
        "blowup" => blowup(),
        "mc" => mc_convergence(),
        "ablation" => ablation(),
        "plans" => plans(),
        "counting" => counting(),
        "multisim" => multisim(),
        "all" => {
            table1();
            mystiq();
            scaling();
            hardness();
            blowup();
            mc_convergence();
            ablation();
            plans();
            counting();
            multisim();
        }
        other => {
            eprintln!("unknown report: {other}");
            eprintln!(
                "available: table1 mystiq scaling hardness blowup mc ablation plans counting multisim all"
            );
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!(
        "\n=== {title} {}",
        "=".repeat(76usize.saturating_sub(title.len()))
    );
}

/// E1 + E2 + E3: the classification table over the full paper catalog
/// (Fig. 1, Fig. 2, and every named query), with classification time.
fn table1() {
    header("E1-E3 (Table 1): dichotomy classification of the paper's query catalog");
    println!(
        "{:<26} {:<24} {:<36} {:>9}  paper",
        "query", "source", "classification", "time"
    );
    let mut agree = 0;
    let mut diverge = 0;
    for entry in CATALOG {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, entry.text).unwrap();
        let (secs, got) = time(|| classify(&q).unwrap().complexity);
        let verdict = match (entry.expected, &got) {
            (Expected::PTime, Complexity::PTime(_))
            | (Expected::SharpPHard, Complexity::SharpPHard(_)) => {
                agree += 1;
                "agrees"
            }
            (Expected::DivergesFromPaper, _) => {
                diverge += 1;
                "documented divergence"
            }
            _ => "MISMATCH",
        };
        println!(
            "{:<26} {:<24} {:<36} {:>8.2}ms  {}",
            entry.name,
            entry.source,
            got.to_string(),
            secs * 1e3,
            verdict
        );
    }
    println!(
        "-> {agree}/{} agree with the paper; {diverge} documented divergence(s)",
        CATALOG.len()
    );
}

/// E4: the MystiQ gap — safe plans vs Monte-Carlo at matched accuracy
/// ("one or two orders of magnitude, seconds vs minutes", §1).
fn mystiq() {
    header("E4 (MystiQ gap): safe plan vs Karp-Luby at matched accuracy");
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>14} {:>9}",
        "N", "tuples", "safe plan", "karp-luby", "exact lineage", "ratio"
    );
    for n in [20u64, 50, 100, 200] {
        let (db, q) = star_workload(n, 4, 42);
        let engine = Engine::with_samples_and_seed(0, 1);
        let (t_safe, p_safe) = time(|| {
            engine
                .evaluate(&db, &q, Strategy::Auto)
                .unwrap()
                .probability
        });
        // Match Monte-Carlo accuracy to ~1e-3 absolute error: Karp-Luby
        // needs ~ (m·P / eps)^2-ish samples; fix 200k as MystiQ-scale work.
        let dnf = lineage_of(&db, &q);
        let probs = db.prob_vector();
        let mut rng = StdRng::seed_from_u64(5);
        let (t_mc, est) = time(|| karp_luby(&dnf, &probs, 200_000, &mut rng));
        let (t_exact, p_exact) = time(|| exact_probability(&dnf, &probs));
        assert!((p_safe - p_exact).abs() < 1e-7);
        assert!((est.estimate - p_exact).abs() < 6.0 * est.std_error + 1e-3);
        println!(
            "{:>6} {:>8} {:>12.2}ms {:>12.2}ms {:>12.2}ms {:>8.0}x",
            n,
            db.num_tuples(),
            t_safe * 1e3,
            t_mc * 1e3,
            t_exact * 1e3,
            t_mc / t_safe.max(1e-9)
        );
    }
    println!("-> paper's claim: safe plans beat Monte Carlo by 1-2 orders of magnitude.");
}

/// E5: polynomial scaling of the safe evaluators (Corollary 3.7).
fn scaling() {
    header("E5 (Cor. 3.7): safe-plan runtime vs domain size N");
    type Family = (&'static str, Box<dyn Fn(u64) -> (ProbDb, Query)>);
    let families: Vec<Family> = vec![
        (
            "q_hier (V=2, recurrence)",
            Box::new(|n| star_workload(n, 4, 7)),
        ),
        (
            "selfjoin (V=2, safe plan)",
            Box::new(|n| selfjoin_workload(n, 7)),
        ),
        (
            "deep (V=3, recurrence)",
            Box::new(|n| deep_workload(n, 3, 7)),
        ),
    ];
    let engine = Engine::new();
    for (name, build) in families {
        let mut pts = Vec::new();
        print!("{name:<28}");
        for n in [10u64, 20, 40, 80] {
            let (db, q) = build(n);
            let (secs, _p) = time(|| {
                engine
                    .evaluate(&db, &q, Strategy::Auto)
                    .unwrap()
                    .probability
            });
            pts.push((n as f64, secs));
            print!(" N={n}:{:>8.2}ms", secs * 1e3);
        }
        println!("   fitted degree ~ {:.2}", loglog_slope(&pts));
    }
    println!("-> runtimes fit low-degree polynomials (the paper bounds O(N^V(q))).");
}

/// E6: the Appendix C H_k counting pipeline.
fn hardness() {
    header("E6 (Thm 1.5 / App. C): counting 2DNF through the H_k oracle");
    let oracle = |db: &ProbDb, q: &Query| exact_probability(&lineage_of(db, q), &db.prob_vector());
    let mut rng = StdRng::seed_from_u64(13);
    println!(
        "{:>4} {:>8} {:>10} {:>12} {:>9}",
        "k", "clauses", "direct", "via H_k", "agrees"
    );
    for k in [2usize, 3] {
        for t in [2usize, 3] {
            let phi = reductions::Bipartite2Dnf::random(3, 3, t, &mut rng);
            let truth = phi.count_models();
            let (secs, got) = time(|| reductions::count_via_hk(&phi, k, &oracle));
            println!(
                "{:>4} {:>8} {:>10} {:>12} {:>9} ({:.1}s)",
                k,
                t,
                truth,
                got,
                if got == truth { "yes" } else { "NO" },
                secs
            );
        }
    }
    println!("-> the reduction recovers exact model counts (Vandermonde inversion).");
}

/// E7: exact methods blow up on #P-hard lineages; safe plans do not exist
/// for them, and PTIME queries stay cheap at the same scale.
fn blowup() {
    header("E7 (App. B): exact-compilation cost on hard vs easy queries");
    println!(
        "{:>6} {:>10} {:>14} {:>12} {:>14}",
        "N", "tuples", "hard decisions", "hard time", "easy time"
    );
    let engine = Engine::new();
    for n in [4u64, 6, 8, 10, 12] {
        let (db, q) = h0_workload(n, 3);
        let dnf = lineage_of(&db, &q);
        let probs = db.prob_vector();
        let (t_hard, (_p, stats)) = time(|| exact_probability_with_stats(&dnf, &probs));
        let (db_e, q_e) = star_workload(n, 2, 3);
        let (t_easy, _) = time(|| {
            engine
                .evaluate(&db_e, &q_e, Strategy::Auto)
                .unwrap()
                .probability
        });
        println!(
            "{:>6} {:>10} {:>14} {:>10.2}ms {:>12.2}ms",
            n,
            db.num_tuples(),
            stats.decisions,
            t_hard * 1e3,
            t_easy * 1e3
        );
    }
    println!(
        "-> Shannon decisions on the hard lineage grow super-linearly; the easy query stays flat."
    );
}

/// Ablation (Fig. 1): disable the coverage simplification passes and show
/// which PTIME queries would be misclassified as hard.
fn ablation() {
    header("Ablation (Fig. 1): coverage simplification passes");
    use dichotomy::{find_inversion, strict_coverage_with, CoverageOptions};
    let rows = [
        (
            "fig1_row2",
            "R(x1,x2), S(x1,x2,y,y), S(x1,x1,x2,x2), S(x3,x3,y3,y3), T(y3)",
        ),
        (
            "fig1_row3",
            "R(x1,x2), S(x1,x2,y,y), S(x1,x2,x1,x2), S(x3,x3,y31,y32), T(y31,y32)",
        ),
    ];
    let settings = [
        ("full pipeline", true, true),
        ("no minimization", false, true),
        ("no redundancy removal", true, false),
        ("neither pass", false, false),
    ];
    println!("{:<12} {:<24} inversion found?", "query", "setting");
    for (name, text) in rows {
        for (label, minimize_covers, remove_redundant) in settings {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, text).unwrap();
            let opts = CoverageOptions {
                minimize_covers,
                remove_redundant,
            };
            let inv = strict_coverage_with(&q, opts)
                .map(|cov| find_inversion(&cov).is_some())
                .unwrap_or(false);
            println!(
                "{:<12} {:<24} {}",
                name,
                label,
                if inv {
                    "SPURIOUS inversion -> would misclassify"
                } else {
                    "none (correct)"
                }
            );
        }
    }
    println!("-> the Fig. 1 simplifications are collectively load-bearing for the PTIME side.");
}

/// MC estimator convergence: Karp-Luby vs naive sampling (supporting E4).
fn mc_convergence() {
    header("E4b: estimator convergence (relative error vs samples, small-P regime)");
    // Scale the tuple probabilities down so P(q) is tiny: the regime where
    // naive sampling needs Ω(1/P) samples but Karp-Luby keeps its relative
    // accuracy (the reason MystiQ uses it).
    let (db, q) = h0_workload(12, 9);
    let dnf = lineage_of(&db, &q);
    let probs: Vec<f64> = db.prob_vector().iter().map(|p| p * 0.08).collect();
    let exact = exact_probability(&dnf, &probs);
    println!("exact P = {exact:.3e}");
    println!(
        "{:>10} {:>16} {:>16}",
        "samples", "naive rel.err", "karp-luby rel.err"
    );
    for samples in [1_000u64, 10_000, 100_000] {
        let mut rng1 = StdRng::seed_from_u64(21);
        let mut rng2 = StdRng::seed_from_u64(22);
        let nv = naive_mc(&dnf, &probs, samples, &mut rng1);
        let kl = karp_luby(&dnf, &probs, samples, &mut rng2);
        println!(
            "{:>10} {:>16.4} {:>16.4}",
            samples,
            (nv.estimate - exact).abs() / exact,
            (kl.estimate - exact).abs() / exact
        );
    }
    println!("-> Karp-Luby is an FPRAS: relative error shrinks with samples even at tiny P.");
}

/// E9: extensional safe plans — operator counts and the set-at-a-time vs
/// tuple-at-a-time gap on the same safe queries.
fn plans() {
    header("E9: extensional safe plans vs Eq. 3 recurrence (set- vs tuple-at-a-time)");
    println!(
        "{:>6} {:>8} {:>5} {:>6} {:>14} {:>14} {:>9}",
        "N", "tuples", "ops", "depth", "plan exec", "recurrence", "speedup"
    );
    for n in [50u64, 100, 200, 400] {
        let (db, q) = star_workload(n, 4, 7);
        let plan = safeplan::build_plan(&q).unwrap();
        let (t_plan, p_plan) = time(|| safeplan::query_probability(&db, &plan));
        let (t_rec, p_rec) = time(|| dichotomy::eval_recurrence(&db, &q).unwrap());
        assert!((p_plan - p_rec).abs() < 1e-9);
        println!(
            "{:>6} {:>8} {:>5} {:>6} {:>12.2}ms {:>12.2}ms {:>8.0}x",
            n,
            db.num_tuples(),
            plan.size(),
            plan.depth(),
            t_plan * 1e3,
            t_rec * 1e3,
            t_rec / t_plan.max(1e-9)
        );
    }
    println!("-> same probabilities, same asymptotics; one relational pass per operator wins.");
}

/// E10: exact substructure counting (the conclusions' p = 1/2 question):
/// PTIME on the safe side via the rational recurrence, exponential lineage
/// compilation on the hard side.
fn counting() {
    header("E10: substructure counting at p = 1/2 (paper conclusions)");
    println!("safe query R(x), S(x,y):");
    println!(
        "{:>8} {:>10} {:>14} {:>16}",
        "tuples", "worlds", "time", "count digits"
    );
    for n in [20u64, 40, 80, 160] {
        let (db, q) = star_workload(n, 3, 5);
        let (secs, count) = time(|| dichotomy::count_substructures_recurrence(&db, &q).unwrap());
        println!(
            "{:>8} {:>9}  {:>12.2}ms {:>16}",
            db.num_tuples(),
            format!("2^{}", db.num_tuples()),
            secs * 1e3,
            count.to_string().len()
        );
    }
    println!("hard query H_0 (exact lineage; exponential worst case):");
    println!(
        "{:>8} {:>10} {:>14} {:>16}",
        "tuples", "worlds", "time", "count digits"
    );
    for n in [6u64, 10, 14] {
        let (db, q) = h0_workload(n, 5);
        let (secs, count) = time(|| pdb::count_satisfying_worlds_exact(&db, &q));
        println!(
            "{:>8} {:>9}  {:>12.2}ms {:>16}",
            db.num_tuples(),
            format!("2^{}", db.num_tuples()),
            secs * 1e3,
            count.to_string().len()
        );
    }
    println!("-> counting inherits the dichotomy: instant on safe queries at any scale,");
    println!("   lineage-compilation cost (worst-case exponential) on hard ones.");
}

/// E11: multisimulation adaptivity — sample allocation across candidates
/// at the top-k boundary vs clear winners/losers.
fn multisim() {
    header("E11: multisimulation top-k (adaptive sample allocation)");
    use dichotomy::{multisim_top_k, MultiSimConfig};
    let mut rng = StdRng::seed_from_u64(23);
    let mut voc = cq::Vocabulary::new();
    let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
    let d = q.vars()[0];
    let director = voc.find_relation("Director").unwrap();
    let credit = voc.find_relation("Credit").unwrap();
    let mut db = ProbDb::new(voc);
    let m = 12u64;
    for i in 0..m {
        use rand::Rng;
        db.insert(director, vec![cq::Value(i)], rng.gen_range(0.05..0.95));
        db.insert(credit, vec![cq::Value(i), cq::Value(1000 + i)], 0.9);
    }
    let k = 3;
    let config = MultiSimConfig {
        batch: 256,
        delta: 0.05,
        ..Default::default()
    };
    let (secs, result) = time(|| multisim_top_k(&db, &q, &[d], k, config));
    println!(
        "{m} candidates, top-{k}: converged={} in {:.0}ms, {} total samples",
        result.converged,
        secs * 1e3,
        result.total_samples
    );
    let max = result.all.iter().map(|a| a.samples).max().unwrap_or(0);
    let uniform = max * m;
    println!("uniform allocation at the same per-candidate depth would need {uniform} samples");
    println!(
        "-> adaptivity saves {:.0}% of the simulation work on this instance",
        100.0 * (1.0 - result.total_samples as f64 / uniform as f64)
    );
    println!(
        "{:<8} {:>10} {:>20} {:>10}",
        "answer", "estimate", "interval", "samples"
    );
    for a in result.all.iter().take(6) {
        println!(
            "d={:<6} {:>10.4} [{:>8.4}, {:>8.4}] {:>10}",
            a.tuple[0].0, a.estimate, a.low, a.high, a.samples
        );
    }
}
