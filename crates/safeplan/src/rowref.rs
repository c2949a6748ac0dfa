//! The row-at-a-time reference executor: the data plane as it stood before
//! the columnar flat-buffer rewrite (PR 3).
//!
//! Rows travel as `Vec<(Vec<Value>, P)>` — one heap allocation per row —
//! joins always hash the right-hand input, and grouping goes through a
//! `BTreeMap<Vec<Value>, P>` with per-row key clones. It is kept, verbatim
//! in behavior, as the **correctness oracle**: the columnar executors
//! (serial [`crate::exec`] and the parallel [`crate::dag`], at every
//! thread and shard count) must return *bit-for-bit* what this executor
//! returns — same rows, same order, same `f64` values. The
//! `columnar_agreement` and `sharded_agreement` integration tests pin
//! that property on random hierarchical self-join-free queries and ranked
//! answer sets.
//!
//! Nothing in the production path calls into this module.

use crate::exec::{complement_domain, complement_row_count, eval_pred};
use crate::node::PlanNode;
use cq::{Atom, Term, Value, Var};
use lineage::ProbValue;
use pdb::{ProbDb, TupleId};
use std::collections::BTreeMap;
use std::ops::Range;

/// A probabilistic relation in the pre-columnar row layout.
#[derive(Clone, Debug, PartialEq)]
pub struct RowRelation<P> {
    pub cols: Vec<Var>,
    pub rows: Vec<(Vec<Value>, P)>,
}

impl<P: ProbValue> RowRelation<P> {
    pub fn certain() -> Self {
        RowRelation {
            cols: Vec::new(),
            rows: vec![(Vec::new(), P::one())],
        }
    }

    pub fn never() -> Self {
        RowRelation {
            cols: Vec::new(),
            rows: Vec::new(),
        }
    }

    pub fn col_index(&self, v: Var) -> Option<usize> {
        self.cols.iter().position(|&c| c == v)
    }

    /// For a Boolean (zero-column) relation: the scalar probability.
    pub fn scalar(&self) -> P {
        assert!(self.cols.is_empty(), "scalar() on non-Boolean relation");
        match self.rows.len() {
            0 => P::zero(),
            1 => self.rows[0].1.clone(),
            n => panic!("Boolean relation with {n} rows"),
        }
    }

    /// Natural join, multiplying probabilities; always hashes the
    /// right-hand side regardless of size (the PR-2 behavior).
    pub fn independent_join(&self, other: &RowRelation<P>) -> RowRelation<P> {
        let spec = row_join_spec(&self.cols, &other.cols);
        let index = build_join_index(&other.rows, &spec.other_key);
        let rows = probe_join_rows(&spec, &self.rows, &index, &other.rows);
        RowRelation {
            cols: spec.out_cols,
            rows,
        }
    }

    /// Independent project through a `BTreeMap` keyed by cloned row keys,
    /// preserving first-seen group order and row-order folds.
    pub fn independent_project(&self, keep: &[Var]) -> RowRelation<P> {
        let key_idx: Vec<usize> = keep
            .iter()
            .map(|&v| self.col_index(v).expect("projection column missing"))
            .collect();
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut none: BTreeMap<Vec<Value>, P> = BTreeMap::new();
        for (row, p) in &self.rows {
            let key: Vec<Value> = key_idx.iter().map(|&k| row[k]).collect();
            match none.get_mut(&key) {
                Some(acc) => *acc = acc.mul(&p.complement()),
                None => {
                    none.insert(key.clone(), p.complement());
                    order.push(key);
                }
            }
        }
        let mut rows = Vec::with_capacity(order.len());
        for key in order {
            let p = none[&key].complement();
            rows.push((key, p));
        }
        RowRelation {
            cols: keep.to_vec(),
            rows,
        }
    }
}

struct RowJoinSpec {
    left_key: Vec<usize>,
    other_key: Vec<usize>,
    other_extra: Vec<usize>,
    out_cols: Vec<Var>,
}

fn row_join_spec(left: &[Var], right: &[Var]) -> RowJoinSpec {
    let common: Vec<Var> = left.iter().copied().filter(|c| right.contains(c)).collect();
    let left_key: Vec<usize> = common
        .iter()
        .map(|c| left.iter().position(|l| l == c).unwrap())
        .collect();
    let other_key: Vec<usize> = common
        .iter()
        .map(|c| right.iter().position(|r| r == c).unwrap())
        .collect();
    let other_extra: Vec<usize> = (0..right.len())
        .filter(|&i| !common.contains(&right[i]))
        .collect();
    let mut out_cols = left.to_vec();
    out_cols.extend(other_extra.iter().map(|&i| right[i]));
    RowJoinSpec {
        left_key,
        other_key,
        other_extra,
        out_cols,
    }
}

fn build_join_index<P>(
    rows: &[(Vec<Value>, P)],
    key: &[usize],
) -> BTreeMap<Vec<Value>, Vec<usize>> {
    let mut index: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
    for (i, (row, _)) in rows.iter().enumerate() {
        let k: Vec<Value> = key.iter().map(|&ki| row[ki]).collect();
        index.entry(k).or_default().push(i);
    }
    index
}

fn probe_join_rows<P: ProbValue>(
    spec: &RowJoinSpec,
    left_rows: &[(Vec<Value>, P)],
    index: &BTreeMap<Vec<Value>, Vec<usize>>,
    other_rows: &[(Vec<Value>, P)],
) -> Vec<(Vec<Value>, P)> {
    let mut out = Vec::new();
    for (row, p) in left_rows {
        let key: Vec<Value> = spec.left_key.iter().map(|&k| row[k]).collect();
        let Some(matches) = index.get(&key) else {
            continue;
        };
        for &j in matches {
            let (orow, op) = &other_rows[j];
            let mut values = row.clone();
            values.extend(spec.other_extra.iter().map(|&i| orow[i]));
            out.push((values, p.mul(op)));
        }
    }
    out
}

/// Execute `plan` row-at-a-time. Same contract as [`crate::execute`]; no
/// pushdown indexes, no columnar buffers.
pub fn row_execute<P: ProbValue>(db: &ProbDb, probs: &[P], plan: &PlanNode) -> RowRelation<P> {
    assert_eq!(probs.len(), db.num_tuples(), "probability vector length");
    match plan {
        PlanNode::Certain => RowRelation::certain(),
        PlanNode::Never => RowRelation::never(),
        PlanNode::Scan { atom } => {
            let cols = atom.vars();
            let rows = scan_rows(db, probs, atom, &cols, db.tuples_of(atom.rel));
            RowRelation { cols, rows }
        }
        PlanNode::ComplementScan { atom } => {
            let cols = atom.vars();
            let domain = complement_domain(db, atom);
            let total = complement_row_count(cols.len(), domain.len());
            let rows = complement_rows(db, probs, atom, &cols, &domain, 0..total);
            RowRelation { cols, rows }
        }
        PlanNode::Select { pred, input } => {
            let rel = row_execute(db, probs, input);
            let rows = rel
                .rows
                .iter()
                .filter(|(row, _)| eval_pred(pred, &rel.cols, row))
                .cloned()
                .collect();
            RowRelation {
                cols: rel.cols.clone(),
                rows,
            }
        }
        PlanNode::IndependentJoin { inputs } => {
            let mut acc = RowRelation::certain();
            for i in inputs {
                acc = acc.independent_join(&row_execute(db, probs, i));
            }
            acc
        }
        PlanNode::IndependentProject { keep, input } => {
            row_execute(db, probs, input).independent_project(keep)
        }
    }
}

/// `p(q)` of a Boolean plan, row-at-a-time.
pub fn row_query_probability(db: &ProbDb, plan: &PlanNode) -> f64 {
    row_execute(db, db.probs(), plan).scalar()
}

/// Ranked-plan read-off in the row layout: one `(head binding, marginal)`
/// pair per candidate, ordered as `head`.
pub fn row_ranked_probabilities<P: ProbValue>(
    db: &ProbDb,
    probs: &[P],
    plan: &PlanNode,
    head: &[Var],
) -> Vec<(Vec<Value>, P)> {
    let rel = row_execute(db, probs, plan);
    let order: Vec<usize> = head
        .iter()
        .map(|&h| rel.col_index(h).expect("ranked plan carries head column"))
        .collect();
    rel.rows
        .iter()
        .map(|(row, p)| {
            (
                order.iter().map(|&i| row[i]).collect::<Vec<Value>>(),
                p.clone(),
            )
        })
        .collect()
}

/// The PR-2 scan kernel: filter the whole relation by the atom's constants
/// and repeated variables, emitting rows in tuple-id order.
fn scan_rows<P: ProbValue>(
    db: &ProbDb,
    probs: &[P],
    atom: &Atom,
    cols: &[Var],
    ids: &[TupleId],
) -> Vec<(Vec<Value>, P)> {
    let mut out = Vec::new();
    'tuples: for &tid in ids {
        let tuple = db.tuple(tid);
        let mut bound: Vec<Option<Value>> = vec![None; cols.len()];
        for (pos, term) in atom.args.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if tuple.args[pos] != *c {
                        continue 'tuples;
                    }
                }
                Term::Var(v) => {
                    let ci = cols.iter().position(|c| c == v).expect("own var");
                    match bound[ci] {
                        None => bound[ci] = Some(tuple.args[pos]),
                        Some(prev) => {
                            if prev != tuple.args[pos] {
                                continue 'tuples;
                            }
                        }
                    }
                }
            }
        }
        let row: Vec<Value> = bound.into_iter().map(|b| b.expect("all bound")).collect();
        out.push((row, probs[tid.0 as usize].clone()));
    }
    out
}

/// The PR-2 complement kernel over a range of linearized bindings.
fn complement_rows<P: ProbValue>(
    db: &ProbDb,
    probs: &[P],
    atom: &Atom,
    cols: &[Var],
    domain: &[Value],
    range: Range<usize>,
) -> Vec<(Vec<Value>, P)> {
    let k = cols.len();
    let mut out = Vec::with_capacity(range.len());
    for i in range {
        let mut binding = vec![Value(0); k];
        let mut rem = i;
        for slot in binding.iter_mut().rev() {
            *slot = domain[rem % domain.len()];
            rem /= domain.len();
        }
        let args: Vec<Value> = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => binding[cols.iter().position(|c| c == v).expect("own var")],
            })
            .collect();
        let p = match db.find(atom.rel, &args) {
            Some(id) => probs[id.0 as usize].complement(),
            None => P::one(),
        };
        out.push((binding, p));
    }
    out
}
