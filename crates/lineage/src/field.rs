//! The number-type abstraction for probability computation.
//!
//! Every algorithm in this crate is an arithmetic circuit over `(+, ·, 1−x)`
//! applied to tuple probabilities (inclusion–exclusion adds `−`). [`ProbValue`] captures exactly the
//! operations those circuits need, so the same evaluator runs on fast `f64`
//! and on exact [`numeric::QRat`] rationals — the number type the paper's
//! problem statement is actually about (complexity is measured in the
//! bit-size of the rational probabilities `p(t)`).

use numeric::QRat;
use std::fmt::Debug;

/// A probability value: the operations used by the paper's recurrences and
/// by weighted model counting. Implementations must satisfy the usual
/// semifield laws with `complement(x) = 1 − x`.
pub trait ProbValue: Clone + PartialEq + Debug {
    fn zero() -> Self;
    fn one() -> Self;
    fn add(&self, other: &Self) -> Self;
    /// `self − other`; the signed terms of inclusion–exclusion.
    fn sub(&self, other: &Self) -> Self;
    fn mul(&self, other: &Self) -> Self;
    /// `1 − self`.
    fn complement(&self) -> Self;
    fn is_zero(&self) -> bool;
    fn is_one(&self) -> bool;
    /// Best-effort float view, for diagnostics and cross-checks.
    fn to_f64(&self) -> f64;

    /// Whether a running product `none = Π(1−p)` of an independent-project
    /// group is saturated: every further factor leaves `1 − none`
    /// unchanged. Exact arithmetic saturates only at zero.
    fn saturated(&self) -> bool {
        self.is_zero()
    }

    /// One step of the independent-project group fold: `none` absorbs one
    /// more row of probability `p`, `none ← none · (1 − p)`, skipped once
    /// `none` is [saturated](ProbValue::saturated).
    ///
    /// For `f64` the rule is `none ≤ 2⁻⁵⁴`. Complements lie in `[0, 1]`,
    /// so `none` only shrinks from there, and `fl(1 − x) = 1.0` for every
    /// `0 ≤ x ≤ 2⁻⁵⁴` (at `x = 2⁻⁵⁴` exactly, `1 − x` is the midpoint of
    /// `1 − 2⁻⁵³` and `1.0`, and ties go to the even `1.0`). The emitted
    /// `1 − none` is therefore `1.0` with or without the remaining
    /// factors: the short-circuit's absolute error is 0, and it skips the
    /// subnormal tail that costs tens of cycles per multiply on long
    /// saturated groups. For [`QRat`] the rule is `none == 0`, so exact
    /// results are unchanged.
    fn fold_complement(&mut self, p: &Self) {
        if !self.saturated() {
            *self = self.mul(&p.complement());
        }
    }

    /// `1 − Π(1−p)` over `probs` in order (`0` when empty): the group value
    /// of an independent project, folded with
    /// [`fold_complement`](ProbValue::fold_complement).
    fn independent_or<'a>(probs: impl IntoIterator<Item = &'a Self>) -> Self
    where
        Self: 'a,
    {
        let mut probs = probs.into_iter();
        let Some(first) = probs.next() else {
            return Self::zero();
        };
        let mut none = first.complement();
        for p in probs {
            if none.saturated() {
                break;
            }
            none.fold_complement(p);
        }
        none.complement()
    }
}

/// `2⁻⁵⁴`, half an ulp of `1.0`: the `f64` saturation threshold of
/// [`ProbValue::fold_complement`].
const HALF_ULP_OF_ONE: f64 = f64::EPSILON / 4.0;

impl ProbValue for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn complement(&self) -> Self {
        1.0 - self
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn is_one(&self) -> bool {
        *self == 1.0
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn saturated(&self) -> bool {
        *self <= HALF_ULP_OF_ONE
    }
}

impl ProbValue for QRat {
    fn zero() -> Self {
        QRat::zero()
    }
    fn one() -> Self {
        QRat::one()
    }
    fn add(&self, other: &Self) -> Self {
        self.add_ref(other)
    }
    fn sub(&self, other: &Self) -> Self {
        self.sub_ref(other)
    }
    fn mul(&self, other: &Self) -> Self {
        self.mul_ref(other)
    }
    fn complement(&self) -> Self {
        QRat::complement(self)
    }
    fn is_zero(&self) -> bool {
        QRat::is_zero(self)
    }
    fn is_one(&self) -> bool {
        QRat::is_one(self)
    }
    fn to_f64(&self) -> f64 {
        QRat::to_f64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laws<P: ProbValue>(half: P, third: P) {
        assert!(P::zero().is_zero());
        assert!(P::one().is_one());
        assert_eq!(half.add(&P::zero()), half);
        assert!(half.sub(&half).is_zero());
        assert_eq!(P::one().sub(&third), third.complement());
        assert_eq!(half.mul(&P::one()), half);
        assert_eq!(half.complement().complement(), half);
        let s = half.add(&third);
        assert!((s.to_f64() - (0.5 + 1.0 / 3.0)).abs() < 1e-9);
        let m = half.mul(&third);
        assert!((m.to_f64() - 0.5 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn f64_laws() {
        laws(0.5f64, 1.0 / 3.0);
    }

    #[test]
    fn qrat_laws() {
        laws(QRat::ratio(1, 2), QRat::ratio(1, 3));
    }
}
