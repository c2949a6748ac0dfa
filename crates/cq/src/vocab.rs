//! Relational vocabularies: relation symbols with fixed arities plus an
//! interner for named constants.
//!
//! The paper fixes a relational vocabulary `R1, …, Rk` up front (§1). Both
//! queries and probabilistic structures are built against the same
//! [`Vocabulary`], which guarantees arity agreement and lets us print
//! human-readable relation/constant names.

use crate::term::Value;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a relation symbol within a [`Vocabulary`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RelId(pub u32);

#[derive(Clone, Debug)]
struct RelInfo {
    name: String,
    arity: usize,
}

/// Errors raised when declaring or resolving vocabulary entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VocabError {
    /// The relation was previously declared with a different arity.
    ArityMismatch {
        name: String,
        declared: usize,
        requested: usize,
    },
}

impl fmt::Display for VocabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VocabError::ArityMismatch {
                name,
                declared,
                requested,
            } => write!(
                f,
                "relation {name} declared with arity {declared}, used with arity {requested}"
            ),
        }
    }
}

impl std::error::Error for VocabError {}

/// A relational vocabulary: relation symbols (name + arity) and interned
/// named constants.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    rels: Vec<RelInfo>,
    rel_by_name: HashMap<String, RelId>,
    consts: Vec<String>,
    const_by_name: HashMap<String, Value>,
}

impl Vocabulary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare (or fetch) a relation symbol. Re-declaring with the same arity
    /// is idempotent; a different arity is an error.
    pub fn relation(&mut self, name: &str, arity: usize) -> Result<RelId, VocabError> {
        if let Some(&id) = self.rel_by_name.get(name) {
            let declared = self.rels[id.0 as usize].arity;
            if declared != arity {
                return Err(VocabError::ArityMismatch {
                    name: name.to_string(),
                    declared,
                    requested: arity,
                });
            }
            return Ok(id);
        }
        let id = RelId(self.rels.len() as u32);
        self.rels.push(RelInfo {
            name: name.to_string(),
            arity,
        });
        self.rel_by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Fetch a relation symbol by name without declaring it.
    pub fn find_relation(&self, name: &str) -> Option<RelId> {
        self.rel_by_name.get(name).copied()
    }

    pub fn rel_name(&self, id: RelId) -> &str {
        &self.rels[id.0 as usize].name
    }

    pub fn arity(&self, id: RelId) -> usize {
        self.rels[id.0 as usize].arity
    }

    pub fn num_relations(&self) -> usize {
        self.rels.len()
    }

    /// Iterate over all relation ids.
    pub fn relations(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.rels.len() as u32).map(RelId)
    }

    /// Intern a named constant (e.g. the `a`, `b`, `c` of the paper's
    /// Example 1.7), returning a stable [`Value`] in the named range.
    pub fn named_const(&mut self, name: &str) -> Value {
        if let Some(&v) = self.const_by_name.get(name) {
            return v;
        }
        let v = Value(Value::NAMED_BASE + self.consts.len() as u64);
        self.consts.push(name.to_string());
        self.const_by_name.insert(name.to_string(), v);
        v
    }

    /// Number of interned named constants. Together with
    /// [`Vocabulary::num_relations`] this sizes the vocabulary: both lists
    /// are append-only, so equal sizes mean neither side grew.
    pub fn num_named_consts(&self) -> usize {
        self.consts.len()
    }

    /// The print name of a value: the interned name for named constants,
    /// the number otherwise.
    pub fn value_name(&self, v: Value) -> String {
        if v.is_named() {
            let idx = (v.0 - Value::NAMED_BASE) as usize;
            match self.consts.get(idx) {
                Some(name) => format!("'{name}'"),
                None => format!("#{idx}"),
            }
        } else {
            v.0.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_declaration_is_idempotent() {
        let mut voc = Vocabulary::new();
        let r1 = voc.relation("R", 2).unwrap();
        let r2 = voc.relation("R", 2).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(voc.num_relations(), 1);
        assert_eq!(voc.rel_name(r1), "R");
        assert_eq!(voc.arity(r1), 2);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut voc = Vocabulary::new();
        voc.relation("R", 2).unwrap();
        let err = voc.relation("R", 3).unwrap_err();
        assert!(matches!(err, VocabError::ArityMismatch { .. }));
    }

    #[test]
    fn named_constants_are_interned_and_stable() {
        let mut voc = Vocabulary::new();
        let a = voc.named_const("a");
        let b = voc.named_const("b");
        let a2 = voc.named_const("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert!(a.is_named());
        assert_eq!(voc.value_name(a), "'a'");
        assert_eq!(voc.value_name(Value(5)), "5");
    }

    #[test]
    fn find_relation_does_not_declare() {
        let mut voc = Vocabulary::new();
        assert!(voc.find_relation("S").is_none());
        voc.relation("S", 1).unwrap();
        assert!(voc.find_relation("S").is_some());
    }
}
