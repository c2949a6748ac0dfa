//! The dichotomy decision procedure (Theorem 1.8): classify any conjunctive
//! query as PTIME or #P-complete.
//!
//! Pipeline:
//! 1. minimize the query (the property is defined by its minimal query);
//! 2. non-hierarchical ⇒ #P-hard (Theorem 1.4);
//! 3. build a strict coverage; no inversion ⇒ PTIME (Theorem 1.6);
//! 4. otherwise compute the hierarchical closure; if some hierarchical join
//!    between `H*` members has an inversion without an eraser ⇒ #P-hard
//!    (Theorem 4.4), else PTIME (Theorem 3.17).
//!
//! Negated sub-goals are classified by their positive counterparts
//! (Definition 3.9).

use crate::closure::{
    hierarchical_closure, is_query_inversion_free, joins_with_images, ClosureError,
};
use crate::coverage::{strict_coverage, Coverage, CoverageError};
use crate::eraser::{find_eraser, ClosureCoefficients};
use crate::hierarchy::{check_hierarchical, NonHierarchicalWitness};
use crate::inversion::{find_inversion, InversionWitness};
use cq::{minimize, Query};
use std::fmt;

/// Why a query is PTIME.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PTimeReason {
    /// No variables or no atoms after minimization.
    Trivial,
    /// Hierarchical without self-joins (Theorem 1.3(1), Eq. 3 recurrence).
    HierarchicalNoSelfJoin,
    /// Hierarchical, self-joins, but inversion-free (Theorem 1.6).
    InversionFree,
    /// Has inversions, but every hierarchically joined inversion has an
    /// eraser (Theorem 3.17).
    ErasableInversions,
}

/// Why a query is #P-complete.
#[derive(Clone, Debug, PartialEq)]
pub enum HardReason {
    /// Not hierarchical (Theorem 1.4); carries the `R,S,T`-pattern witness.
    NonHierarchical(NonHierarchicalWitness),
    /// A hierarchical join with an inversion admits no eraser
    /// (Theorem 4.4); carries the join query and the inversion path length
    /// (the `k` of the `H_k` reduction).
    EraserFreeInversion { join: Query, chain_length: usize },
}

/// The two sides of the dichotomy.
#[derive(Clone, Debug, PartialEq)]
pub enum Complexity {
    PTime(PTimeReason),
    SharpPHard(HardReason),
}

impl Complexity {
    pub fn is_ptime(&self) -> bool {
        matches!(self, Complexity::PTime(_))
    }
}

impl fmt::Display for Complexity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Complexity::PTime(r) => write!(f, "PTIME ({r:?})"),
            Complexity::SharpPHard(HardReason::NonHierarchical(_)) => {
                write!(f, "#P-complete (non-hierarchical)")
            }
            Complexity::SharpPHard(HardReason::EraserFreeInversion { chain_length, .. }) => {
                write!(f, "#P-complete (eraser-free inversion, k={chain_length})")
            }
        }
    }
}

/// Full classification output, with the analysis artifacts for inspection.
#[derive(Clone, Debug)]
pub struct Classification {
    pub complexity: Complexity,
    /// The minimized query the classification is about.
    pub minimized: Query,
    /// The strict coverage, when one was built.
    pub coverage: Option<Coverage>,
    /// The inversion witness found on the coverage, if any.
    pub inversion: Option<InversionWitness>,
}

/// Classification failures (resource bounds; never observed on the paper's
/// query catalog).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClassifyError {
    Coverage(CoverageError),
    Closure(ClosureError),
    /// The closure coefficients exceeded their enumeration budget.
    CoefficientBudget,
}

impl fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassifyError::Coverage(e) => write!(f, "{e}"),
            ClassifyError::Closure(e) => write!(f, "{e}"),
            ClassifyError::CoefficientBudget => {
                write!(f, "closure coefficient budget exceeded")
            }
        }
    }
}

impl std::error::Error for ClassifyError {}

impl From<CoverageError> for ClassifyError {
    fn from(e: CoverageError) -> Self {
        ClassifyError::Coverage(e)
    }
}

impl From<ClosureError> for ClassifyError {
    fn from(e: ClosureError) -> Self {
        ClassifyError::Closure(e)
    }
}

/// Decide the complexity of evaluating `q` on tuple-independent
/// probabilistic structures.
pub fn classify(q: &Query) -> Result<Classification, ClassifyError> {
    // Classification ignores polarity (Definition 3.9).
    let positive = strip_negation(q);
    let Some(minimized) = minimize(&positive) else {
        // Unsatisfiable: probability is constantly 0.
        return Ok(Classification {
            complexity: Complexity::PTime(PTimeReason::Trivial),
            minimized: positive,
            coverage: None,
            inversion: None,
        });
    };
    if minimized.atoms.is_empty() {
        return Ok(Classification {
            complexity: Complexity::PTime(PTimeReason::Trivial),
            minimized,
            coverage: None,
            inversion: None,
        });
    }

    // Step 1: hierarchy (Theorem 1.4).
    if let Err(witness) = check_hierarchical(&minimized) {
        return Ok(Classification {
            complexity: Complexity::SharpPHard(HardReason::NonHierarchical(witness)),
            minimized,
            coverage: None,
            inversion: None,
        });
    }

    // Fast path: hierarchical without self-joins (Theorem 1.3(1)).
    if !minimized.has_self_join() {
        return Ok(Classification {
            complexity: Complexity::PTime(PTimeReason::HierarchicalNoSelfJoin),
            minimized,
            coverage: None,
            inversion: None,
        });
    }

    // Step 2: inversions on a strict coverage (Theorem 1.6).
    let cov = strict_coverage(&minimized)?;
    let inversion = find_inversion(&cov);
    if inversion.is_none() {
        return Ok(Classification {
            complexity: Complexity::PTime(PTimeReason::InversionFree),
            minimized,
            coverage: Some(cov),
            inversion: None,
        });
    }

    // Step 3: erasers over the hierarchical closure (Theorems 3.17 / 4.4).
    let closure = hierarchical_closure(&cov)?;
    let h_star = closure.h_star(cov.factors.len());
    let coeffs = ClosureCoefficients::new(&cov, &closure, &h_star)
        .map_err(|_| ClassifyError::CoefficientBudget)?;
    for (pi, &i) in h_star.iter().enumerate() {
        for (pj, &j) in h_star.iter().enumerate() {
            let (qi, qj) = (&closure.items[i].query, &closure.items[j].query);
            // Every unifier's join (hierarchical-prefix and full-MGU alike)
            // must be erasable: the expansion can insert an independence
            // predicate between T_i and T_j only when the corresponding
            // join query is inversion-free (its own eraser) or erased by
            // other H* members.
            for join in joins_with_images(qi, qj) {
                let jq = join.query.clone();
                if crate::hierarchy::is_hierarchical(&jq) && is_query_inversion_free(&jq)? {
                    continue;
                }
                if find_eraser(&coeffs, &closure, &h_star, &join, pi, pj).is_none() {
                    // Inversion without eraser: #P-hard.
                    let chain_length = strict_coverage(&jq)
                        .ok()
                        .and_then(|c| find_inversion(&c))
                        .map_or(0, |w| w.chain_length());
                    return Ok(Classification {
                        complexity: Complexity::SharpPHard(HardReason::EraserFreeInversion {
                            join: jq,
                            chain_length,
                        }),
                        minimized,
                        coverage: Some(cov),
                        inversion,
                    });
                }
            }
        }
    }

    Ok(Classification {
        complexity: Complexity::PTime(PTimeReason::ErasableInversions),
        minimized,
        coverage: Some(cov),
        inversion,
    })
}

/// Replace negated sub-goals by positive ones (Definition 3.9).
fn strip_negation(q: &Query) -> Query {
    let atoms = q
        .atoms
        .iter()
        .map(|a| {
            let mut a = a.clone();
            a.negated = false;
            a
        })
        .collect();
    Query::new(atoms, q.preds.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{parse_query, Vocabulary};

    fn classify_text(s: &str) -> Complexity {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, s).unwrap();
        classify(&q).unwrap().complexity
    }

    #[test]
    fn q_hier_is_ptime_no_self_join() {
        assert_eq!(
            classify_text("R(x), S(x,y)"),
            Complexity::PTime(PTimeReason::HierarchicalNoSelfJoin)
        );
    }

    #[test]
    fn q_non_hierarchical_is_hard() {
        assert!(matches!(
            classify_text("R(x), S(x,y), T(y)"),
            Complexity::SharpPHard(HardReason::NonHierarchical(_))
        ));
    }

    #[test]
    fn section_1_1_selfjoin_query_is_ptime() {
        // q = R(x), S(x,y), S(x2,y2), T(x2) — hierarchical with self-join
        // but no inversion (§1.1's first self-join example).
        assert_eq!(
            classify_text("R(x), S(x,y), S(x2,y2), T(x2)"),
            Complexity::PTime(PTimeReason::InversionFree)
        );
    }

    #[test]
    fn h0_is_hard() {
        assert!(matches!(
            classify_text("R(x), S(x,y), S(x2,y2), T(y2)"),
            Complexity::SharpPHard(HardReason::EraserFreeInversion { .. })
        ));
    }

    #[test]
    fn h1_is_hard() {
        assert!(matches!(
            classify_text("R(x), S0(x,y), S0(u1,v1), S1(u1,v1), S1(x2,y2), T(y2)"),
            Complexity::SharpPHard(HardReason::EraserFreeInversion { .. })
        ));
    }

    #[test]
    fn q2path_is_hard() {
        assert!(matches!(
            classify_text("R(x,y), R(y,z)"),
            Complexity::SharpPHard(_)
        ));
    }

    #[test]
    fn marked_ring_is_hard() {
        assert!(matches!(
            classify_text("R(x), S(x,y), S(y,x)"),
            Complexity::SharpPHard(_)
        ));
    }

    #[test]
    fn footnote_ptime_queries() {
        assert!(classify_text("R(x,y,y,x), R(x,y,x,z)").is_ptime());
        assert!(classify_text("R(y,x,y,x,y), R(y,x,y,z,x), R(x,x,y,z,u)").is_ptime());
    }

    #[test]
    fn footnote_hard_variant_documented_divergence() {
        // The paper's footnote 1 claims this query is #P-hard (no proof
        // given). Our analysis classifies it PTIME/inversion-free, and the
        // resulting polynomial evaluation agrees with exact brute force on
        // random instances — see
        // `inversion::tests::footnote_hard_variant_divergence_is_stable`
        // for the argument and `safe_eval`'s brute-force check.
        assert_eq!(
            classify_text("R(y,x,y,x,y), R(y,y,y,z,x), R(x,x,y,z,u)"),
            Complexity::PTime(PTimeReason::InversionFree)
        );
    }

    #[test]
    fn symmetric_pair_is_ptime() {
        assert!(classify_text("R(x,y), R(y,x)").is_ptime());
    }

    #[test]
    fn trivial_queries() {
        assert_eq!(
            classify_text("R(x), x < x"),
            Complexity::PTime(PTimeReason::Trivial)
        );
    }

    #[test]
    fn negation_classified_by_positive_part() {
        assert!(matches!(
            classify_text("R(x), S(x,y), not T(y)"),
            Complexity::SharpPHard(HardReason::NonHierarchical(_))
        ));
    }

    #[test]
    fn example_1_7_eraser_makes_ptime() {
        // Example 1.7 / 3.13: inversion with an eraser thanks to the third
        // line of constant sub-goals.
        let q = "R(r,x), S(r,x,y), U('a',r), U(r,z), V(r,z), \
                 S(r2,x2,y2), T(r2,y2), V('a',r2), \
                 R('a','b'), S('a','b','c'), U('a','a')";
        assert_eq!(
            classify_text(q),
            Complexity::PTime(PTimeReason::ErasableInversions)
        );
    }

    #[test]
    fn example_1_7_without_constants_is_hard() {
        // Removing the third line removes the eraser (Example 3.13's note).
        let q = "R(r,x), S(r,x,y), U('a',r), U(r,z), V(r,z), \
                 S(r2,x2,y2), T(r2,y2), V('a',r2)";
        assert!(matches!(
            classify_text(q),
            Complexity::SharpPHard(HardReason::EraserFreeInversion { .. })
        ));
    }
}
