//! Signed arbitrary-precision integers: a sign-magnitude wrapper over
//! [`BigUint`].

use crate::{BigUint, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A signed arbitrary-precision integer in sign-magnitude form. Canonical:
/// magnitude zero always carries [`Sign::Zero`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl BigInt {
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            mag: BigUint::zero(),
        }
    }

    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            mag: BigUint::one(),
        }
    }

    pub fn from_i64(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                sign: Sign::Positive,
                mag: BigUint::from_u64(v as u64),
            },
            Ordering::Less => BigInt {
                sign: Sign::Negative,
                mag: BigUint::from_u64(v.unsigned_abs()),
            },
        }
    }

    pub fn from_biguint(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            assert!(sign != Sign::Zero, "nonzero magnitude with Sign::Zero");
            BigInt { sign, mag }
        }
    }

    pub fn sign(&self) -> Sign {
        self.sign
    }

    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    pub fn to_f64(&self) -> f64 {
        let m = self.mag.to_f64();
        match self.sign {
            Sign::Zero => 0.0,
            Sign::Positive => m,
            Sign::Negative => -m,
        }
    }

    pub fn abs(&self) -> BigInt {
        BigInt::from_biguint(
            if self.is_zero() {
                Sign::Zero
            } else {
                Sign::Positive
            },
            self.mag.clone(),
        )
    }

    pub fn add_ref(&self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt {
                sign: a,
                mag: self.mag.add_ref(&other.mag),
            },
            _ => match self.mag.cmp(&other.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt {
                    sign: self.sign,
                    mag: self.mag.sub_ref(&other.mag),
                },
                Ordering::Less => BigInt {
                    sign: other.sign,
                    mag: other.mag.sub_ref(&self.mag),
                },
            },
        }
    }

    pub fn sub_ref(&self, other: &BigInt) -> BigInt {
        self.add_ref(&other.clone().neg())
    }

    pub fn mul_ref(&self, other: &BigInt) -> BigInt {
        let sign = self.sign.mul(other.sign);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        BigInt {
            sign,
            mag: self.mag.mul_ref(&other.mag),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.negate(),
            mag: self.mag,
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        self.add_ref(rhs)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self.sub_ref(rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        self.mul_ref(rhs)
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (a, b) if a != b => a.cmp(&b),
            (Sign::Negative, _) => other.mag.cmp(&self.mag),
            _ => self.mag.cmp(&other.mag),
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bi(v: i64) -> BigInt {
        BigInt::from_i64(v)
    }

    #[test]
    fn construction_and_sign() {
        assert!(bi(0).is_zero());
        assert_eq!(bi(5).sign(), Sign::Positive);
        assert_eq!(bi(-5).sign(), Sign::Negative);
        assert_eq!(bi(i64::MIN).magnitude().to_u64(), Some(1 << 63));
        assert_eq!(bi(i64::MAX).magnitude().to_u64(), Some(i64::MAX as u64));
    }

    #[test]
    fn add_mixed_signs() {
        assert_eq!(&bi(5) + &bi(-3), bi(2));
        assert_eq!(&bi(3) + &bi(-5), bi(-2));
        assert_eq!(&bi(-3) + &bi(-5), bi(-8));
        assert_eq!(&bi(5) + &bi(-5), bi(0));
        assert_eq!(&bi(0) + &bi(7), bi(7));
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(&bi(5) - &bi(8), bi(-3));
        assert_eq!(-bi(4), bi(-4));
        assert_eq!(-bi(0), bi(0));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(&bi(3) * &bi(-4), bi(-12));
        assert_eq!(&bi(-3) * &bi(-4), bi(12));
        assert_eq!(&bi(0) * &bi(-4), bi(0));
    }

    #[test]
    fn ordering() {
        assert!(bi(-5) < bi(-3));
        assert!(bi(-3) < bi(0));
        assert!(bi(0) < bi(2));
        assert!(bi(2) < bi(7));
    }

    #[test]
    fn display_negative() {
        assert_eq!(bi(-42).to_string(), "-42");
        assert_eq!(bi(0).to_string(), "0");
    }

    #[test]
    #[should_panic(expected = "nonzero magnitude")]
    fn invalid_sign_zero_rejected() {
        let _ = BigInt::from_biguint(Sign::Zero, BigUint::one());
    }

    proptest! {
        #[test]
        fn prop_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let s = &bi(a) + &bi(b);
            prop_assert_eq!(s.to_string(), (a as i128 + b as i128).to_string());
        }

        #[test]
        fn prop_mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let p = &bi(a) * &bi(b);
            prop_assert_eq!(p.to_string(), (a as i128 * b as i128).to_string());
        }

        #[test]
        fn prop_sub_add_roundtrip(a in any::<i64>(), b in any::<i64>()) {
            prop_assert_eq!(&(&bi(a) - &bi(b)) + &bi(b), bi(a));
        }

        #[test]
        fn prop_cmp_matches_i64(a in any::<i64>(), b in any::<i64>()) {
            prop_assert_eq!(bi(a).cmp(&bi(b)), a.cmp(&b));
        }
    }
}
