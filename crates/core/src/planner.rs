//! The planner: one classification, one plan, many executions.
//!
//! [`Planner::plan`] runs the dichotomy decision procedure
//! ([`crate::classify`](fn@crate::classify)) exactly once per *canonical* query and compiles
//! the outcome into a [`PhysicalPlan`]. Plans are memoized in an LRU cache
//! keyed by [`Query::cache_key`], so alpha-renamed and atom-permuted
//! variants of the same query share one entry and repeated traffic skips
//! classification entirely — the MystiQ architecture at engine speed.
//!
//! [`Planner::plan_ranked`] is the non-Boolean counterpart: it plans a
//! query with head variables *once* as a template. The preferred outcome is
//! a [`RankedPlan::Batched`] extensional plan whose output relation carries
//! one row per candidate answer (set-at-a-time over the whole candidate
//! set); otherwise a [`RankedPlan::PerBinding`] template records which
//! evaluator every residual should run, so per-candidate evaluation never
//! re-classifies.

use crate::classify::{classify, Classification, ClassifyError, Complexity, PTimeReason};
use crate::plan::PhysicalPlan;
use crate::shared_cache::ShardedCache;
use cq::{Query, Subst, Value, Var};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A classified, compiled Boolean query — the planner's cache line. The
/// classification is behind an `Arc` so evaluations can report it without
/// deep-copying coverage artifacts on the hot (cache-hit) path.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    pub plan: PhysicalPlan,
    pub classification: Arc<Classification>,
}

/// A compiled non-Boolean (ranked) query template.
#[derive(Clone, Debug)]
pub enum RankedPlan {
    /// One extensional plan whose output has a row per candidate head
    /// binding with its marginal probability: the entire answer set in a
    /// single set-at-a-time execution.
    Batched {
        plan: safeplan::PlanNode,
        head: Vec<Var>,
    },
    /// The residual template `q[ā/h̄]` planned once on generic bindings;
    /// each candidate instantiates `kind` without re-classifying.
    PerBinding {
        head: Vec<Var>,
        kind: ResidualKind,
        /// Classification of the generic residual (what `kind` came from).
        classification: Arc<Classification>,
    },
}

/// Which evaluator a per-binding residual runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResidualKind {
    RootRecursion,
    ExactLineage,
    KarpLuby { samples: u64 },
}

impl ResidualKind {
    /// Instantiate the template for one candidate's residual query.
    pub fn instantiate(self, residual: Query) -> PhysicalPlan {
        match self {
            ResidualKind::RootRecursion => PhysicalPlan::RootRecursion { query: residual },
            ResidualKind::ExactLineage => PhysicalPlan::ExactLineage { query: residual },
            ResidualKind::KarpLuby { samples } => PhysicalPlan::KarpLuby {
                query: residual,
                samples,
            },
        }
    }
}

/// Cache observability: cumulative counters since the planner was built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans compiled because no cache entry existed.
    pub misses: u64,
    /// Invocations of the dichotomy classifier — the expensive step the
    /// cache exists to avoid. At most one per miss.
    pub classifications: u64,
}

/// The planner. Cheap to share: clones of an [`crate::engine::Engine`]
/// hold the same `Arc<Planner>`, so a fleet of workers shares one cache.
///
/// Cache keys are built from [`Query::cache_key`], which identifies
/// relations by [`cq::RelId`]. One planner therefore serves queries over
/// **one vocabulary** (the usual deployment: an engine in front of a
/// database); reusing it across unrelated vocabularies would conflate
/// same-id relations.
pub struct Planner {
    /// Samples a compiled Karp–Luby plan will draw.
    mc_samples: u64,
    /// Boolean plans, sharded by key hash for concurrent serving traffic
    /// (lock contention lands on `planner.cache.contended` in the
    /// telemetry registry). Small capacities stay single-sharded with
    /// exact global LRU order.
    cache: ShardedCache<Arc<PlannedQuery>>,
    ranked_cache: ShardedCache<Arc<RankedPlan>>,
    /// Invocations of the dichotomy classifier.
    classifications: AtomicU64,
}

/// Default capacity of each plan cache (Boolean and ranked).
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

impl Planner {
    pub fn new(mc_samples: u64) -> Self {
        Self::with_capacity(mc_samples, DEFAULT_CACHE_CAPACITY)
    }

    pub fn with_capacity(mc_samples: u64, capacity: usize) -> Self {
        Planner {
            mc_samples,
            cache: ShardedCache::new(capacity, "planner.cache"),
            ranked_cache: ShardedCache::new(capacity, "planner.ranked_cache"),
            classifications: AtomicU64::new(0),
        }
    }

    /// Cumulative cache counters: hits and misses summed over the Boolean
    /// and ranked caches.
    pub fn stats(&self) -> PlannerStats {
        PlannerStats {
            hits: self.cache.hits() + self.ranked_cache.hits(),
            misses: self.cache.misses() + self.ranked_cache.misses(),
            classifications: self.classifications.load(Ordering::Relaxed),
        }
    }

    /// Number of cached Boolean plans.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Contended lock acquisitions on this planner's Boolean plan cache
    /// (the `planner.cache.contended` registry counter sums every planner).
    pub fn cache_contention(&self) -> u64 {
        self.cache.contended()
    }

    /// Contended lock acquisitions on this planner's ranked-template cache
    /// (the `planner.ranked_cache.contended` registry counter sums every
    /// planner).
    pub fn ranked_cache_contention(&self) -> u64 {
        self.ranked_cache.contended()
    }

    /// Plan a Boolean query: classification + compilation on the first
    /// sight of a canonical query, a cache hit afterwards.
    pub fn plan(&self, q: &Query) -> Result<Arc<PlannedQuery>, ClassifyError> {
        self.plan_tracked(q).map(|(planned, _)| planned)
    }

    /// As [`Planner::plan`], also reporting whether *this* call was served
    /// from the cache (the cumulative [`Planner::stats`] counters are
    /// shared across threads, so diffing them cannot attribute a hit to a
    /// particular call).
    pub fn plan_tracked(&self, q: &Query) -> Result<(Arc<PlannedQuery>, bool), ClassifyError> {
        let key = q.cache_key();
        if let Some(hit) = self.cache.get(&key) {
            return Ok((hit, true));
        }
        let planned = Arc::new(self.plan_uncached(q)?);
        self.cache.insert(key, Arc::clone(&planned));
        Ok((planned, false))
    }

    /// Plan a non-Boolean query template with head variables `head`.
    pub fn plan_ranked(&self, q: &Query, head: &[Var]) -> Result<Arc<RankedPlan>, ClassifyError> {
        let key = ranked_cache_key(q, head);
        if let Some(hit) = self.ranked_cache.get(&key) {
            return Ok(hit);
        }
        let plan = Arc::new(self.plan_ranked_uncached(q, head)?);
        self.ranked_cache.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    fn plan_uncached(&self, q: &Query) -> Result<PlannedQuery, ClassifyError> {
        let _span = telemetry::span("plan-compile");
        self.classifications.fetch_add(1, Ordering::Relaxed);
        let classification = {
            let _span = telemetry::span("classify");
            classify(q)?
        };
        // Evaluate the minimized equivalent: classification is a property
        // of the minimal query (e.g. `R(x), R(y)` minimizes to the
        // self-join-free `R(x)`). With negated sub-goals the classifier
        // minimized the *positive* version, which is not equivalent — keep
        // the original there.
        let eval_q = if q.has_negation() {
            q.clone()
        } else {
            classification.minimized.clone()
        };
        let plan = match &classification.complexity {
            Complexity::PTime(PTimeReason::Trivial) => {
                // Satisfiable trivial queries (no atoms) are certain;
                // unsatisfiable ones have probability 0. `minimize`
                // returned an empty-atom query only in those cases.
                let certain = classification.minimized.atoms.is_empty()
                    && classification.minimized.normalize().is_some();
                PhysicalPlan::Extensional {
                    plan: if certain {
                        safeplan::PlanNode::Certain
                    } else {
                        safeplan::PlanNode::Never
                    },
                }
            }
            Complexity::PTime(PTimeReason::HierarchicalNoSelfJoin) => {
                // Preferred backend: the set-at-a-time extensional plan. The
                // compiler declines a negated self-join that survived the
                // positive-only classification (e.g. `R(x), not R(y)`) and
                // a predicate spanning components (`R(x), S(y), x < y`);
                // root recursion (with its exact-lineage fallback) takes
                // those.
                match safeplan::build_plan(&eval_q) {
                    // Plan once, optimize once, execute many: the algebraic
                    // rewrites pay for themselves on the first cache hit.
                    Ok(plan) => PhysicalPlan::Extensional {
                        plan: safeplan::optimize(&plan),
                    },
                    Err(_) => PhysicalPlan::RootRecursion { query: eval_q },
                }
            }
            Complexity::PTime(PTimeReason::InversionFree) => {
                PhysicalPlan::RootRecursion { query: eval_q }
            }
            Complexity::PTime(PTimeReason::ErasableInversions) => {
                // A substitution: the paper's PTIME algorithm for erasable
                // inversions (§3.4) is replaced by exact lineage
                // compilation — exact, not worst-case polynomial.
                PhysicalPlan::ExactLineage { query: eval_q }
            }
            Complexity::SharpPHard(_) => PhysicalPlan::KarpLuby {
                query: eval_q,
                samples: self.mc_samples,
            },
        };
        Ok(PlannedQuery {
            plan,
            classification: Arc::new(classification),
        })
    }

    fn plan_ranked_uncached(&self, q: &Query, head: &[Var]) -> Result<RankedPlan, ClassifyError> {
        if let Ok(plan) = safeplan::build_ranked_plan(q, head) {
            return Ok(RankedPlan::Batched {
                plan: safeplan::optimize(&plan),
                head: head.to_vec(),
            });
        }
        // The batched compiler declined (self-joins, inversions, hard
        // residuals, unsupported heads): classify one *generic* residual —
        // head variables bound to fresh distinct constants — and reuse its
        // plan kind for every candidate. The residual's complexity is a
        // property of the query shape, not of which constants are
        // substituted, so one classification covers all bindings. (A
        // specific binding can only be *easier* — e.g. collapse with an
        // existing constant — so the template stays sound.)
        let generic = generic_residual(q, head);
        let planned = self.plan_uncached(&generic)?;
        let kind = match &planned.plan {
            // A constant generic residual says nothing about real bindings:
            // a predicate comparing a head variable with a constant can be
            // false for the sentinels and true for data (`h < 5`), leaving
            // a residual of any shape. Exact lineage answers every shape.
            PhysicalPlan::Extensional {
                plan: safeplan::PlanNode::Certain | safeplan::PlanNode::Never,
            }
            | PhysicalPlan::ExactLineage { .. } => ResidualKind::ExactLineage,
            PhysicalPlan::Extensional { .. } | PhysicalPlan::RootRecursion { .. } => {
                ResidualKind::RootRecursion
            }
            PhysicalPlan::KarpLuby { samples, .. } => ResidualKind::KarpLuby { samples: *samples },
        };
        Ok(RankedPlan::PerBinding {
            head: head.to_vec(),
            kind,
            classification: planned.classification,
        })
    }
}

/// Base for the sentinel constants that stand in for head variables in
/// generic residuals and ranked cache keys. Chosen at the top of the value
/// space, far away from data the workload generators and parsers produce.
const HEAD_SENTINEL_BASE: u64 = u64::MAX - (1 << 16);

/// The residual template `q[ā/h̄]` with fresh, pairwise-distinct sentinel
/// constants for the head variables.
pub(crate) fn generic_residual(q: &Query, head: &[Var]) -> Query {
    let mut subst = Subst::new();
    for (i, &h) in head.iter().enumerate() {
        subst.bind(h, Value(HEAD_SENTINEL_BASE + i as u64));
    }
    q.apply(&subst)
}

/// Cache key for ranked templates: the canonical key of the generic
/// residual (which captures head positions through the sentinels, so
/// alpha-renamed variants with corresponding heads share an entry), plus
/// the head arity.
fn ranked_cache_key(q: &Query, head: &[Var]) -> String {
    format!(
        "ranked:{}:{}",
        head.len(),
        generic_residual(q, head).cache_key()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Method;
    use cq::{parse_query, Vocabulary};

    /// Parse every test query against one shared vocabulary: cache keys
    /// identify relations by `RelId`, so a planner serves one vocabulary.
    fn shared_voc() -> Vocabulary {
        let mut voc = Vocabulary::new();
        for (name, arity) in [("R", 1), ("S", 2), ("T", 1)] {
            voc.relation(name, arity).unwrap();
        }
        voc
    }

    fn parsed(s: &str) -> Query {
        let mut voc = shared_voc();
        parse_query(&mut voc, s).unwrap()
    }

    #[test]
    fn hierarchical_queries_get_extensional_plans() {
        let planner = Planner::new(1000);
        let planned = planner.plan(&parsed("R(x), S(x,y)")).unwrap();
        assert_eq!(planned.plan.method(), Method::Extensional);
    }

    #[test]
    fn hard_queries_get_sampling_plans() {
        let planner = Planner::new(1234);
        let planned = planner.plan(&parsed("R(x), S(x,y), T(y)")).unwrap();
        match &planned.plan {
            PhysicalPlan::KarpLuby { samples, .. } => assert_eq!(*samples, 1234),
            other => panic!("expected sampling plan, got {other:?}"),
        }
    }

    #[test]
    fn cache_hits_on_repeat_and_alpha_renaming() {
        let planner = Planner::new(1000);
        let q1 = parsed("R(x), S(x,y)");
        let q2 = parsed("R(u), S(u,w)"); // alpha-renamed
        planner.plan(&q1).unwrap();
        assert_eq!(planner.stats().misses, 1);
        planner.plan(&q1).unwrap();
        planner.plan(&q2).unwrap();
        let stats = planner.stats();
        assert_eq!(stats.hits, 2, "repeat + alpha-rename must both hit");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.classifications, 1);
        assert_eq!(planner.cached_plans(), 1);
    }

    #[test]
    fn distinct_queries_do_not_collide() {
        let planner = Planner::new(1000);
        planner.plan(&parsed("R(x), S(x,y)")).unwrap();
        planner.plan(&parsed("R(x), S(y,x)")).unwrap();
        assert_eq!(planner.stats().misses, 2);
        assert_eq!(planner.cached_plans(), 2);
    }

    #[test]
    fn lru_evicts_stalest_entry() {
        let planner = Planner::with_capacity(1000, 2);
        let a = parsed("R(x)");
        let b = parsed("S(x,y)");
        let c = parsed("T(x)");
        planner.plan(&a).unwrap();
        planner.plan(&b).unwrap();
        planner.plan(&a).unwrap(); // refresh a; b is now stalest
        planner.plan(&c).unwrap(); // evicts b
        assert_eq!(planner.cached_plans(), 2);
        planner.plan(&a).unwrap();
        assert_eq!(planner.stats().misses, 3, "a must still be cached");
        planner.plan(&b).unwrap();
        assert_eq!(planner.stats().misses, 4, "b must have been evicted");
    }

    #[test]
    fn ranked_template_is_batched_for_safe_shapes() {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, "Director(d), Credit(d,m)").unwrap();
        let d = q.vars()[0];
        let planner = Planner::new(1000);
        let rp = planner.plan_ranked(&q, &[d]).unwrap();
        assert!(matches!(&*rp, RankedPlan::Batched { .. }));
        // Planned once, no classification needed for the batched path.
        assert_eq!(planner.stats().classifications, 0);
        planner.plan_ranked(&q, &[d]).unwrap();
        assert_eq!(planner.stats().hits, 1);
    }

    #[test]
    fn ranked_template_falls_back_per_binding_for_self_joins() {
        let mut voc = Vocabulary::new();
        // Self-join: the batched compiler declines; the generic residual
        // R(a,y), R(y,z) stays a self-join, planned once per binding-kind.
        let q = parse_query(&mut voc, "R(x,y), R(y,z)").unwrap();
        let x = q.vars()[0];
        let planner = Planner::new(1000);
        let rp = planner.plan_ranked(&q, &[x]).unwrap();
        match &*rp {
            RankedPlan::PerBinding { kind, .. } => {
                assert_eq!(planner.stats().classifications, 1);
                // The residual R(a,y), R(y,z) keeps its self-join, so the
                // extensional/recurrence backends are out; the coverage
                // root recursion (inversion-free) handles it.
                assert_eq!(*kind, ResidualKind::RootRecursion);
            }
            other => panic!("expected per-binding template, got {other:?}"),
        }
    }
}
