//! # dichotomy — the Dalvi–Suciu dichotomy of conjunctive queries
//!
//! The paper's primary contribution (PODS 2007): every Boolean conjunctive
//! query has either PTIME or #P-complete data complexity on
//! tuple-independent probabilistic structures, decidably so.
//!
//! ## The analysis layer (the paper's machinery)
//!
//! * [`hierarchy`] — hierarchical queries (Definition 1.2), the `⊑` variable
//!   hierarchy.
//! * [`coverage`] — strict coverages (§2.1) by lazy `<`/`=`/`>` refinement,
//!   plus the rooted refinement behind Theorem 3.4.
//! * [`inversion`] — the unification graph and inversion detection (§2.2).
//! * [`closure`] — hierarchical unifiers/joins and the hierarchical closure
//!   (§2.6, Appendix E.1).
//! * [`eraser`] — the `N(C,σ)` inclusion–exclusion coefficients
//!   (Definition 2.11) and eraser search (Definition 2.21).
//! * [`classify`](mod@classify) — the dichotomy decision procedure (Theorem 1.8).
//! * [`catalog`] — the paper's named queries with their claimed
//!   complexities, as data.
//!
//! ## The evaluation layer (MystiQ's architecture, split in two)
//!
//! * [`planner`] — runs [`classify`](fn@classify) **once** per canonical query, compiles
//!   a [`plan::PhysicalPlan`], and memoizes it in an LRU cache keyed by
//!   [`cq::Query::cache_key`]; alpha-renamed and atom-permuted variants
//!   share one entry, so repeated traffic never re-classifies. Also plans
//!   non-Boolean *ranked templates* (batched extensional plans carrying the
//!   head variables as columns, or a per-binding residual template).
//! * [`plan`] — the typed `PhysicalPlan` IR and the [`plan::Executor`] that
//!   runs it against any [`pdb::ProbDb`]: the `safeplan` set-at-a-time
//!   extensional operators for hierarchical self-join-free queries (the
//!   preferred backend), the §3.2 root recursion ([`safe_eval`]) for
//!   inversion-free queries and the hierarchical shapes the extensional
//!   compiler declines, exact lineage compilation, or Karp–Luby sampling —
//!   with exact runtime fallbacks between them. Both PTIME evaluators run
//!   in `f64` and in exact rationals
//!   ([`Engine::evaluate_exact`](engine::Engine::evaluate_exact),
//!   [`Engine::count_substructures`](engine::Engine::count_substructures)).
//! * [`engine`] — the facade: plan (with caching), execute, report planning
//!   and execution time separately. Extensional plans and batched ranked
//!   plans run on `safeplan`'s one executor (`safeplan::dag`, an
//!   operator DAG on the scoped-thread worker pool of the
//!   `exec-parallel` crate), tuned by [`engine::ExecOptions`] and the
//!   plan's shard fan-out; one thread and one shard is its serial
//!   configuration. It overlaps operators, fans scans out over shards
//!   and morsels inside each task, and returns bit-for-bit the same
//!   result at every tuning; sampling plans fan their budget over
//!   seed-split per-worker RNG streams. [`Evaluation`] carries the
//!   per-thread, scheduler and shard counters.
//! * [`ranking`] — non-Boolean queries: answer tuples ranked by marginal
//!   probability; tractable shapes run as **one** batched plan over all
//!   candidates, others plan the residual template once and execute it per
//!   head binding.
//! * [`multisim`] — top-k retrieval for hard answer sets by adaptive
//!   interval Monte Carlo over per-candidate lineages, extracted in one
//!   shared pass.
//!
//! [`safe_eval`] remains directly callable; the planner is the policy that
//! chooses it. [`recurrence`] is the paper's Eq. 3 as a test reference,
//! not an engine path.

pub mod catalog;
pub mod classify;
pub mod closure;
pub mod coverage;
pub mod engine;
pub mod eraser;
pub mod explain;
pub mod hierarchy;
pub mod inversion;
pub mod multisim;
pub mod plan;
pub mod planner;
pub mod ranking;
pub mod recurrence;
pub mod result_cache;
pub mod safe_eval;
pub mod shared_cache;

pub use catalog::{CatalogEntry, Expected, CATALOG};
pub use classify::{classify, Classification, Complexity, HardReason, PTimeReason};
pub use coverage::{
    rooted_coverage, strict_coverage, strict_coverage_with, Coverage, CoverageError,
    CoverageOptions,
};
pub use engine::{Engine, Evaluation, ExecOptions, Method, ViewHandle, ViewReading};
pub use exec_parallel::{ExecStats, ThreadStats};
pub use explain::{explain, explain_evaluation};
pub use hierarchy::{check_hierarchical, is_hierarchical};
pub use incremental::RefreshCounters;
pub use inversion::{find_inversion, InversionWitness};
pub use multisim::{
    multisim_marginals, multisim_top_k, MultiSimAnswer, MultiSimConfig, MultiSimResult,
};
pub use plan::{ExecOutcome, Executor, PhysicalPlan};
pub use planner::{PlannedQuery, Planner, PlannerStats, RankedPlan, ResidualKind};
pub use ranking::{
    ranked_answers, ranked_answers_captured, ranked_answers_counted, top_k, RankedAnswer, RankedRun,
};
pub use recurrence::eval_recurrence;
pub use result_cache::ResultCache;
pub use safe_eval::eval_inversion_free;
pub use shared_cache::ShardedCache;
