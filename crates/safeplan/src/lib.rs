//! # safeplan — extensional safe plans for hierarchical queries
//!
//! The paper's introduction describes how MystiQ evaluates self-join-free
//! queries: "we test if they have a PTIME plan using the techniques in \[9\]"
//! — an *extensional* relational-algebra plan whose operators manipulate
//! probabilities directly inside the database engine. This crate builds that
//! subsystem: a plan language with *independent join* and *independent
//! project* operators, a compiler from hierarchical self-join-free
//! conjunctive queries (the Theorem 1.3 tractable fragment) to plans, and a
//! set-at-a-time executor generic over the probability number type (fast
//! `f64` or exact rationals).
//!
//! The plan computes exactly the Eq. 3 recurrence, but *set-at-a-time*
//! (one pass per operator over sorted/hashed relations) rather than
//! tuple-at-a-time (one recursive call per domain value), which is how a
//! real engine would run it.
//!
//! The data plane is **columnar**: relations are flat buffers (one
//! contiguous value vector with arity stride plus a probability column —
//! see [`relation`] for the invariants), operator kernels touch no per-row
//! heap allocations, grouping runs on packed `u64`/`u128` keys, joins hash
//! the smaller input, and scans push constants down to per-relation
//! `(column, value)` posting lists in [`pdb::ProbDb`]. One executor runs
//! those kernels ([`exec`] holds them, [`dag`] runs them): plans
//! decompose into an operator-task DAG whose independent subtrees overlap
//! on a morsel-driven scoped-thread worker pool, over a hash-**sharded**
//! data plane — bit-for-bit identical results for every thread count,
//! shard count, and schedule. One thread and one shard
//! ([`DagOptions::default`]) is the serial configuration, and the
//! serial entry points ([`execute`], [`query_probability`],
//! [`ranked_probabilities`]) are that configuration. Scans shard only
//! over the database's own **shard-resident layout**
//! ([`pdb::ProbDb::set_shard_layout`]): at a matching fan-out they read
//! per-shard columnar buffers and posting lists and resolve with zero
//! global-index probes (counter-verified via [`OpCounters`]); at any
//! other they stay monolithic. The pre-columnar row
//! executor is kept out of the library, as the test oracle in
//! `tests/common/rowref.rs`. The row kernels ([`ScanPlan`],
//! [`CompiledPred`], [`JoinSpec`], [`Grouper`], [`gather_key`]) are
//! public: incremental view maintenance runs its delta rules on them.
//!
//! ```
//! use cq::{parse_query, Vocabulary, Value};
//! use pdb::ProbDb;
//! use safeplan::{build_plan, query_probability};
//!
//! let mut voc = Vocabulary::new();
//! let q = parse_query(&mut voc, "R(x), S(x,y)").unwrap();
//! let r = voc.find_relation("R").unwrap();
//! let s = voc.find_relation("S").unwrap();
//! let mut db = ProbDb::new(voc);
//! db.insert(r, vec![Value(1)], 0.5);
//! db.insert(s, vec![Value(1), Value(2)], 0.4);
//! let plan = build_plan(&q).unwrap();
//! assert!((query_probability(&db, &plan) - 0.2).abs() < 1e-12);
//! ```

pub mod build;
pub mod dag;
pub mod exec;
pub mod node;
pub mod optimize;
pub mod relation;

pub use build::{build_plan, build_ranked_plan, PlanError};
pub use dag::{
    dag_execute_counted, dag_execute_counted_with_picker, dag_query_probability,
    dag_ranked_probabilities_counted, execute, query_probability, query_probability_counted,
    query_probability_exact, ranked_probabilities, DagOptions, DagRun, ShardStats,
};
pub use exec::{scan_plan, CompiledPred, OpCounters, OpTimes, ScanPlan};
pub use node::PlanNode;
pub use optimize::{columns, optimize, plan_shard_fanout, scan_estimate, SHARD_MIN_ROWS};
// Re-exported so downstream crates and tests can read the executor's
// reports, and fold in the kernels' number type, without a direct
// `exec-parallel` or `lineage` dependency.
pub use exec_parallel::{DagStats, ExecStats, Pool, ThreadStats};
pub use lineage::ProbValue;
pub use relation::{gather_key, join_spec, Grouper, JoinSpec, ProbRelation};
