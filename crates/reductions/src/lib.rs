//! # reductions — executable #P-hardness reductions
//!
//! The hardness half of the dichotomy rests on reductions from counting the
//! satisfying assignments of *bipartite 2DNF formulas* (`Φ = ⋁ x_i ∧ y_j`),
//! the canonical #P-complete counting problem used throughout the paper's
//! appendices. This crate makes those reductions runnable:
//!
//! * [`two_dnf`] — bipartite 2DNF formulas, random generation, direct
//!   model counting (the ground truth the pipelines must reproduce),
//! * [`non_hierarchical`] — the Theorem B.5 reduction: any minimal
//!   three-sub-goal pattern `R1(v̄1), R2(v̄2), R3(v̄3)` with the
//!   non-hierarchical `x`/`y` signature yields a structure on which the
//!   query's probability equals `P(Φ)` (Proposition B.3's 4-partite `P_3`
//!   and triangled-graph reductions are instances),
//! * [`hk`] — the Appendix C reduction: counting `Φ` reduces to evaluating
//!   the chain query `H_k`; the assignment counts `T_{i,j}` are recovered
//!   from `H_k`-probabilities at several `(p1, p2)` edge-probability
//!   settings by solving a (generalized Vandermonde) linear system,
//! * [`linalg`] — a small dense Gaussian-elimination solver used by the
//!   `H_k` pipeline (no external linear-algebra dependency is available
//!   offline, and partial-pivoting elimination on ≤ 20×20 systems is a
//!   page of code).

pub mod hk;
pub mod linalg;
pub mod non_hierarchical;
pub mod two_dnf;

pub use hk::{count_via_hk, HkInstance};
pub use non_hierarchical::{count_via_pattern, PatternReduction};
pub use two_dnf::Bipartite2Dnf;
