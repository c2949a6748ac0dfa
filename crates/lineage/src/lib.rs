//! # lineage — weighted model counting over event DNFs
//!
//! Evaluating a conjunctive query `q` on a tuple-independent probabilistic
//! structure reduces to computing the probability of its *lineage*: a
//! monotone (or, with negated sub-goals, non-monotone) DNF over independent
//! Boolean tuple events — one clause per valuation of `q` into the set of
//! possible tuples. This crate is the model-counting substrate:
//!
//! * [`dnf`] — the DNF representation,
//! * [`exact`] — exact probability by knowledge-compilation-style
//!   evaluation (independent-component decomposition + Shannon expansion +
//!   memoization). Exponential in the worst case — the paper proves it must
//!   be, for #P-hard queries — but effective at laptop scale and the
//!   ground-truth oracle for every other evaluator in the workspace. Its
//!   one model counter, [`model_count_exact`], runs the same engine in
//!   rationals at `p = 1/2`, with no precision ceiling,
//! * [`mc`] — the Karp–Luby FPRAS for DNF probability, the "MystiQ
//!   fallback" baseline the paper's introduction compares safe plans
//!   against.

pub mod dnf;
pub mod exact;
pub mod field;
pub mod mc;

pub use dnf::{Clause, Dnf, Lit};
pub use exact::{exact_probability, exact_probability_generic, model_count_exact, ExactStats};
pub use field::ProbValue;
pub use mc::{karp_luby, karp_luby_par, karp_luby_with_scratch, McEstimate, McScratch};
