//! # pdb — tuple-independent probabilistic structures
//!
//! The data substrate of the reproduction: an in-memory implementation of
//! the paper's *tuple-independent probabilistic structure* `(A, p)` (§1,
//! Eq. 1) and the machinery around it:
//!
//! * [`database`] — the probabilistic structure: relations, tuples, tuple
//!   probabilities, active domain, conditioning,
//! * [`eval`] — satisfaction of conjunctive queries (with negated sub-goals
//!   and arithmetic predicates) on a deterministic world, plus enumeration
//!   of all valuations — a small relational engine,
//! * [`worlds`] — possible-world enumeration and the brute-force evaluator
//!   computing Eq. 2 exactly (the small-instance ground truth),
//! * [`exact`] — Eq. 2 and substructure counting in exact rationals,
//! * [`lineage_ext`] — extraction of a query's lineage DNF over the tuple
//!   events, bridging to the `lineage` crate's model counters,
//! * [`generators`] — synthetic workload generators (random structures)
//!   used by tests and benchmarks,
//! * [`bid`] — the block-independent-disjoint extension the paper's
//!   conclusions point to (disjoint + independent tuples), evaluated on the
//!   same lineage back end through the standard encoding.
//!
//! MystiQ's role as the paper's motivating system is played by
//! `dichotomy::engine`, which drives everything in this crate.

pub mod bid;
pub mod database;
pub mod delta;
pub mod epoch;
pub mod eval;
pub mod exact;
pub mod generators;
pub mod lineage_ext;
pub mod shard;
pub mod text;
pub mod worlds;

pub use bid::{BidDb, Block};
pub use database::{ProbDb, ProbTuple, ShardColumn, TupleId, MAX_DELTA_LOG};
pub use delta::{AppliedDelta, ChangeKind, DeltaBatch, DeltaOp, TupleChange};
pub use epoch::{EpochStore, PublishCounts, ReaderHandle};
pub use eval::{all_valuations, satisfies, Valuation};
pub use exact::{
    brute_force_probability_exact, count_satisfying_worlds_exact, exact_query_probability, RatProbs,
};
pub use lineage_ext::{lineage_of, lineages_by_head};
pub use shard::ShardMap;
pub use text::{
    dump_db, dump_db_exact, load_db, load_db_exact, parse_delta_batches, parse_rational, DeltaPos,
    TextError,
};
pub use worlds::{brute_force_probability, WorldIter};
