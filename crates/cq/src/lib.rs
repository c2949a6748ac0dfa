//! # cq — conjunctive queries with restricted arithmetic predicates
//!
//! This crate implements the query-language substrate of the Dalvi–Suciu
//! dichotomy (PODS 2007): Boolean conjunctive queries over a relational
//! vocabulary, extended with
//!
//! * *restricted arithmetic predicates* (`<`, `=`, `≠` between co-occurring
//!   variables or a variable and a constant — §2.1 of the paper),
//! * *negated subgoals* (Definition 3.9, used by the Theorem 3.11 extension).
//!
//! On top of the representation it provides the classical query-side
//! machinery the dichotomy analysis needs:
//!
//! * substitutions and variable renaming ([`subst`]),
//! * a consistency/entailment theory for the arithmetic predicates
//!   ([`predicate::PredTheory`]),
//! * homomorphisms and containment ([`homomorphism`]),
//! * query minimization — the *core* computation ([`minimize`](fn@minimize)),
//! * most-general unifiers of subgoals, with the paper's *strictness* test
//!   ([`unify`]),
//! * a small datalog-style text syntax ([`parser`]).
//!
//! All algorithms in this crate may be exponential in the size of the
//! *query* (queries are a handful of atoms); they are never run on data.

pub mod atom;
pub mod homomorphism;
pub mod minimize;
pub mod parser;
pub mod predicate;
pub mod query;
pub mod subst;
pub mod term;
pub mod unify;
pub mod vocab;

pub use atom::Atom;
pub use homomorphism::{all_homomorphisms, contains, equivalent, find_homomorphism};
pub use minimize::minimize;
pub use parser::{parse_query, ParseError};
pub use predicate::{CompOp, Pred, PredTheory};
pub use query::Query;
pub use subst::Subst;
pub use term::{Term, Value, Var};
pub use unify::{mgu_atoms, Mgu};
pub use vocab::{RelId, Vocabulary};
