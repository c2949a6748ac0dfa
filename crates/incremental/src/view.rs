//! The incremental view: a cached safe plan pinned together with its
//! per-operator materialized state, refreshed from the database delta log.

use crate::state::{coalesce, DeltaDetail, NetDelta, Node, Pass, Unsupported};
use exec_parallel::ExecStats;
use pdb::{ProbDb, ShardMap};
use safeplan::{DagOptions, PlanNode, ProbRelation, ShardStats};

/// What one refresh (or a lifetime of refreshes — the counters add) did:
/// the work the delta propagation performed vs the work a full
/// re-execution would have re-done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshCounters {
    /// Materialized rows written, re-probed, or refolded across all
    /// operators during delta propagation.
    pub rows_retouched: u64,
    /// Materialized rows the refresh did *not* have to touch — rows a full
    /// re-execution would have recomputed from scratch.
    pub rows_avoided: u64,
    /// Independent-project groups refolded from their stored rows.
    pub groups_refolded: u64,
    /// Delta-log batches replayed.
    pub batches_replayed: u64,
    /// Refreshes that propagated deltas.
    pub incremental_refreshes: u64,
    /// Refreshes that fell back to rematerializing the state from empty
    /// (view behind the log's retention window, an out-of-band mutation
    /// invalidated the log, or the database is an older snapshot than the
    /// view).
    pub full_rebuilds: u64,
}

impl RefreshCounters {
    pub fn absorb(&mut self, other: &RefreshCounters) {
        self.rows_retouched += other.rows_retouched;
        self.rows_avoided += other.rows_avoided;
        self.groups_refolded += other.groups_refolded;
        self.batches_replayed += other.batches_replayed;
        self.incremental_refreshes += other.incremental_refreshes;
        self.full_rebuilds += other.full_rebuilds;
    }
}

/// Everything one refresh reports besides the view state itself: the
/// delta-propagation counters plus the same pool/shard telemetry the DAG
/// executor exposes, so the engine can surface a uniform counter set
/// whether an evaluation re-executed or refreshed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefreshRun {
    /// Work done vs work avoided by the delta propagation.
    pub counters: RefreshCounters,
    /// Per-worker morsel timings from the refresh pool.
    pub threads: ExecStats,
    /// Scan-delta rows matched per shard (all in shard 0 when the plane
    /// is monolithic). Empty for a no-op or full-rebuild refresh.
    pub shards: ShardStats,
}

/// A cached safe plan with materialized per-operator state, kept in sync
/// with a mutating [`ProbDb`] by replaying its delta log.
///
/// The contract (pinned by the agreement property tests): after
/// [`IncrementalView::refresh`], the view's output relation is
/// **bit-for-bit** what a cold execution of the same plan against the
/// current database returns — same rows, same order, same `f64` bits — at
/// every refresh thread count.
pub struct IncrementalView {
    plan: PlanNode,
    root: Node,
    synced: u64,
    cumulative: RefreshCounters,
}

impl std::fmt::Debug for IncrementalView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalView")
            .field("synced", &self.synced)
            .field("rows", &self.root.out().len())
            .field("counters", &self.cumulative)
            .finish()
    }
}

impl IncrementalView {
    /// Materialize the state of `plan` against the current database: the
    /// empty operator state, filled by one seeding refresh in which every
    /// live tuple of every scanned relation is Δ⁺ — the same delta rules
    /// every later refresh runs, so there is one way to fill a view. Fails
    /// on plans with operators that cannot be delta-maintained (complement
    /// scans) — callers fall back to re-execution.
    pub fn new(db: &ProbDb, plan: &PlanNode) -> Result<IncrementalView, Unsupported> {
        Ok(IncrementalView {
            plan: plan.clone(),
            root: materialize(db, plan, DagOptions::serial())?,
            synced: db.version(),
            cumulative: RefreshCounters::default(),
        })
    }

    /// The database version this view reflects.
    pub fn synced_version(&self) -> u64 {
        self.synced
    }

    /// Lifetime refresh counters (each refresh's counters, summed).
    pub fn counters(&self) -> RefreshCounters {
        self.cumulative
    }

    /// The scalar probability of a Boolean view.
    ///
    /// # Panics
    /// If the plan is non-Boolean (its output has columns).
    pub fn probability(&self) -> f64 {
        let out = self.root.out();
        assert!(out.cols.is_empty(), "probability() on non-Boolean view");
        if out.is_empty() {
            0.0
        } else {
            out.prob(0)
        }
    }

    /// The view's full output relation (a copy of the materialized root
    /// buffers).
    pub fn output(&self) -> ProbRelation<f64> {
        let out = self.root.out();
        ProbRelation::from_parts(out.cols.clone(), out.data.clone(), out.probs.clone())
    }

    /// Bring the view to the database's version: replay the pending
    /// delta-log entries through the operator state, or rematerialize it
    /// when the log cannot carry the view there. `opts` tunes it as it
    /// tunes an execution: join probes and group refolds fan out over
    /// `threads` workers in morsels of `grain` rows, and scan-delta
    /// matching hash-partitions tuple ids over `shards` — the refreshed
    /// state is bit for bit the serial refresh's at every setting.
    /// Returns this refresh's counters (also folded into
    /// [`IncrementalView::counters`]).
    pub fn refresh(&mut self, db: &ProbDb, opts: DagOptions) -> RefreshCounters {
        self.refresh_run(db, opts).counters
    }

    /// [`IncrementalView::refresh`], also reporting the refresh pool's
    /// per-worker timings and the scan-delta shard spread.
    pub fn refresh_run(&mut self, db: &ProbDb, opts: DagOptions) -> RefreshRun {
        let _span = telemetry::span("refresh");
        if db.version() == self.synced {
            return RefreshRun::default();
        }
        let run = if db.version() < self.synced || self.synced < db.delta_log_start() {
            // The log cannot carry us there: the retention window passed,
            // an out-of-band mutation cleared it, or `db` is an older
            // snapshot than the view (replay only moves forward).
            // Rematerialize — never wrong, just not incremental.
            let _span = telemetry::span("rebuild");
            self.root =
                materialize(db, &self.plan, opts).expect("a previously-built plan stays buildable");
            RefreshRun {
                counters: RefreshCounters {
                    full_rebuilds: 1,
                    rows_retouched: self.root.total_rows(),
                    ..RefreshCounters::default()
                },
                ..RefreshRun::default()
            }
        } else {
            let net = {
                let _span = telemetry::span("coalesce");
                coalesce(db.changes_since(self.synced))
            };
            let mut run = propagate(&mut self.root, db, &net, opts);
            let c = &mut run.counters;
            c.batches_replayed = db.changes_since(self.synced).count() as u64;
            c.incremental_refreshes = 1;
            c.rows_avoided = self.root.total_rows().saturating_sub(c.rows_retouched);
            run
        };
        self.synced = db.version();
        self.cumulative.absorb(&run.counters);
        run
    }
}

/// The one fill path: `plan`'s empty operator state plus one seeding
/// refresh ([`NetDelta::Seed`]: every live tuple is Δ⁺).
fn materialize(db: &ProbDb, plan: &PlanNode, opts: DagOptions) -> Result<Node, Unsupported> {
    let mut root = Node::new(plan)?;
    propagate(&mut root, db, &NetDelta::Seed, opts);
    Ok(root)
}

/// Run `net` through the state tree on a pool sized by `opts`.
fn propagate(root: &mut Node, db: &ProbDb, net: &NetDelta, opts: DagOptions) -> RefreshRun {
    let pool = opts.pool();
    let shards = opts.shards.max(1);
    let mut pass = Pass {
        db,
        net,
        pool: &pool,
        shards: ShardMap::new(shards),
        counters: RefreshCounters::default(),
        shard_rows: vec![0; shards],
    };
    {
        let _span = telemetry::span("propagate");
        root.refresh(&mut pass, DeltaDetail::Full);
    }
    RefreshRun {
        counters: pass.counters,
        threads: pool.stats(),
        shards: ShardStats {
            shards,
            rows: pass.shard_rows,
        },
    }
}
