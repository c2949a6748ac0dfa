//! Terms: variables and domain constants.

use std::fmt;

/// A query variable. Variables are plain integers; human-readable names are
/// kept only by the parser/pretty-printer. Renaming-apart (needed before
/// unifying two queries, §2.1 "we rename their variables to ensure
/// `Vars(q) ∩ Vars(q') = ∅`") is just an offset shift.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A domain element of a (probabilistic) structure. Named constants from
/// query text (`'a'`, `'b'`) are interned by [`crate::Vocabulary`] into the
/// upper value range so they never collide with small numeric domains.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u64);

impl Value {
    /// First value used for named (interned) constants.
    pub const NAMED_BASE: u64 = 1 << 32;

    /// True if this value was produced by interning a named constant.
    pub fn is_named(self) -> bool {
        self.0 >= Self::NAMED_BASE
    }
}

/// A term: either a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    Var(Var),
    Const(Value),
}

impl Term {
    pub fn as_const(self) -> Option<Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    pub fn is_const(self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(c: Value) -> Self {
        Term::Const(c)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_named() {
            write!(f, "#{}", self.0 - Self::NAMED_BASE)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v:?}"),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_range_is_disjoint_from_numeric() {
        assert!(!Value(0).is_named());
        assert!(!Value(u32::MAX as u64).is_named());
        assert!(Value(Value::NAMED_BASE).is_named());
    }

    #[test]
    fn term_accessors() {
        let t: Term = Var(3).into();
        assert_eq!(t, Term::Var(Var(3)));
        assert_eq!(t.as_const(), None);
        assert!(!t.is_const());
        let c: Term = Value(7).into();
        assert_eq!(c.as_const(), Some(Value(7)));
        assert!(c.is_const());
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Var(2)), "x2");
        assert_eq!(format!("{}", Value(9)), "9");
        assert_eq!(format!("{}", Term::Var(Var(1))), "x1");
    }
}
