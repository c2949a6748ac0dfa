//! A plain-text format for probabilistic databases.
//!
//! One tuple per line: `Rel(arg, …) @ prob`, with `#` comments and blank
//! lines ignored. Arguments are integers or quoted named constants, exactly
//! like query constants:
//!
//! ```text
//! # sensors
//! Alive(1)        @ 0.9
//! Reading(1, 42)  @ 0.5
//! Label('a', 7)   @ 1.0
//! ```
//!
//! Used by the `probdb` CLI and handy for test fixtures.

use crate::database::ProbDb;
use crate::exact::RatProbs;
use cq::{Value, Vocabulary};
use numeric::{BigInt, BigUint, QRat, Sign};
use std::fmt;

/// Position of a failing operation inside a delta script, 1-based: which
/// batch (blank-line-separated group) and which op within it. Lets a
/// server-side `apply` rejection — where the client sent the script and
/// has no file to open at a line number — name the exact delta that
/// failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaPos {
    pub batch: usize,
    pub op: usize,
}

/// Parse failure with line number and, for delta scripts, the batch/op
/// position of the failing operation.
#[derive(Clone, Debug, PartialEq)]
pub struct TextError {
    pub line: usize,
    pub message: String,
    /// `Some` iff the failure was inside [`parse_delta_batches`].
    pub delta: Option<DeltaPos>,
}

impl TextError {
    fn at(line: usize, message: impl Into<String>) -> TextError {
        TextError {
            line,
            message: message.into(),
            delta: None,
        }
    }

    fn with_delta(mut self, pos: DeltaPos) -> TextError {
        self.delta = Some(pos);
        self
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.delta {
            Some(DeltaPos { batch, op }) => write!(
                f,
                "line {} (batch {batch}, op {op}): {}",
                self.line, self.message
            ),
            None => write!(f, "line {}: {}", self.line, self.message),
        }
    }
}

impl std::error::Error for TextError {}

/// Load a database from the text format, interning relations and named
/// constants into `voc`.
pub fn load_db(voc: &mut Vocabulary, text: &str) -> Result<ProbDb, TextError> {
    let mut rows: Vec<(cq::RelId, Vec<Value>, f64)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (head, prob_text) = match line.split_once('@') {
            Some((h, p)) => (h.trim(), p.trim()),
            None => (line, "1.0"),
        };
        let prob: f64 = prob_text
            .parse()
            .map_err(|_| TextError::at(lineno, format!("invalid probability {prob_text:?}")))?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(TextError::at(
                lineno,
                format!("probability {prob} outside [0,1]"),
            ));
        }
        // Reuse the query parser: a single ground atom.
        let q = cq::parse_query(voc, head).map_err(|e| TextError::at(lineno, e.to_string()))?;
        if q.atoms.len() != 1 || !q.preds.is_empty() {
            return Err(TextError::at(lineno, "expected exactly one atom per line"));
        }
        let atom = &q.atoms[0];
        if atom.negated {
            return Err(TextError::at(lineno, "tuples cannot be negated"));
        }
        let args: Result<Vec<Value>, TextError> = atom
            .args
            .iter()
            .map(|t| {
                t.as_const()
                    .ok_or_else(|| TextError::at(lineno, "tuple arguments must be constants"))
            })
            .collect();
        rows.push((atom.rel, args?, prob));
    }
    let mut db = ProbDb::new(voc.clone());
    for (rel, args, prob) in rows {
        db.insert(rel, args, prob);
    }
    Ok(db)
}

/// Parse a delta script: one mutation per line, blank lines separating
/// [`DeltaBatch`](crate::DeltaBatch)es (each batch applies atomically under one version
/// stamp). `#` comments are ignored.
///
/// ```text
/// + R(1, 2) @ 0.5     # insert
/// ~ R(1, 2) @ 0.9     # probability update (upsert)
///
/// - R(1, 2)           # delete — second batch
/// ```
pub fn parse_delta_batches(
    voc: &mut Vocabulary,
    text: &str,
) -> Result<Vec<crate::DeltaBatch>, TextError> {
    use crate::DeltaBatch;
    let mut batches: Vec<DeltaBatch> = Vec::new();
    let mut cur = DeltaBatch::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            if !cur.is_empty() {
                batches.push(std::mem::take(&mut cur));
            }
            continue;
        }
        // Where the op about to be parsed will land — so the error from a
        // bad line names the failing delta (batch/op, 1-based), which is
        // what a server-side `apply` rejection reports back to a client
        // that has no script file to open at a line number.
        let pos = DeltaPos {
            batch: batches.len() + 1,
            op: cur.len() + 1,
        };
        let op = parse_delta_line(voc, line, lineno).map_err(|e| e.with_delta(pos))?;
        cur.ops.push(op);
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    Ok(batches)
}

/// Parse one (non-blank, comment-stripped) delta-script line into a
/// [`DeltaOp`](crate::DeltaOp).
fn parse_delta_line(
    voc: &mut Vocabulary,
    line: &str,
    lineno: usize,
) -> Result<crate::DeltaOp, TextError> {
    use crate::DeltaOp;
    let op = line.chars().next().expect("line is non-empty");
    let rest = line[op.len_utf8()..].trim();
    let (head, prob_text) = match rest.split_once('@') {
        Some((h, p)) => (h.trim(), Some(p.trim())),
        None => (rest, None),
    };
    let q = cq::parse_query(voc, head).map_err(|e| TextError::at(lineno, e.to_string()))?;
    let atom = match q.atoms.as_slice() {
        [atom] if q.preds.is_empty() && !atom.negated => atom,
        _ => {
            return Err(TextError::at(
                lineno,
                "expected exactly one positive atom per line",
            ))
        }
    };
    let args: Result<Vec<Value>, TextError> = atom
        .args
        .iter()
        .map(|t| {
            t.as_const()
                .ok_or_else(|| TextError::at(lineno, "tuple arguments must be constants"))
        })
        .collect();
    let args = args?;
    let prob = |default: Option<f64>| -> Result<f64, TextError> {
        let text = match (prob_text, default) {
            (Some(t), _) => t,
            (None, Some(d)) => return Ok(d),
            (None, None) => return Err(TextError::at(lineno, "this operation needs `@ prob`")),
        };
        let p: f64 = text
            .parse()
            .map_err(|_| TextError::at(lineno, format!("invalid probability {text:?}")))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(TextError::at(
                lineno,
                format!("probability {p} outside [0,1]"),
            ));
        }
        Ok(p)
    };
    match op {
        '+' => Ok(DeltaOp::Insert {
            rel: atom.rel,
            args,
            prob: prob(Some(1.0))?,
        }),
        '~' => Ok(DeltaOp::Update {
            rel: atom.rel,
            args,
            prob: prob(None)?,
        }),
        '-' => {
            if prob_text.is_some() {
                return Err(TextError::at(lineno, "delete takes no probability"));
            }
            Ok(DeltaOp::Delete {
                rel: atom.rel,
                args,
            })
        }
        other => Err(TextError::at(
            lineno,
            format!("expected +, -, or ~, got {other:?}"),
        )),
    }
}

/// Parse a probability written as `n/d` (exact rational), a decimal like
/// `0.25` (exact: `25/100`), or an integer `0`/`1`. Arbitrary precision —
/// `1/3` and fifty-digit decimals survive exactly.
fn parse_rational(s: &str) -> Option<QRat> {
    let s = s.trim();
    if let Some((n, d)) = s.split_once('/') {
        let num = BigUint::from_decimal(n.trim())?;
        let den = BigUint::from_decimal(d.trim())?;
        if den.is_zero() {
            return None;
        }
        let sign = if num.is_zero() {
            Sign::Zero
        } else {
            Sign::Positive
        };
        return Some(QRat::from_parts(BigInt::from_biguint(sign, num), den));
    }
    let (int_part, frac_part) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    let digits = format!("{int_part}{frac_part}");
    let num = BigUint::from_decimal(&digits)?;
    let den = BigUint::from_u64(10).pow(frac_part.len() as u64);
    let sign = if num.is_zero() {
        Sign::Zero
    } else {
        Sign::Positive
    };
    Some(QRat::from_parts(BigInt::from_biguint(sign, num), den))
}

/// As [`load_db`], but keep the probabilities as exact rationals alongside
/// the `f64` database (the float view is the nearest `f64`, used by the
/// approximate evaluators; the rational view by the exact ones).
pub fn load_db_exact(voc: &mut Vocabulary, text: &str) -> Result<(ProbDb, RatProbs), TextError> {
    let mut rows: Vec<(cq::RelId, Vec<Value>, QRat)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (head, prob_text) = match line.split_once('@') {
            Some((h, p)) => (h.trim(), p.trim()),
            None => (line, "1"),
        };
        let prob = parse_rational(prob_text)
            .ok_or_else(|| TextError::at(lineno, format!("invalid probability {prob_text:?}")))?;
        if !prob.is_probability() {
            return Err(TextError::at(
                lineno,
                format!("probability {prob} outside [0,1]"),
            ));
        }
        let q = cq::parse_query(voc, head).map_err(|e| TextError::at(lineno, e.to_string()))?;
        let atom = match q.atoms.as_slice() {
            [atom] if q.preds.is_empty() && !atom.negated => atom,
            _ => {
                return Err(TextError::at(
                    lineno,
                    "expected exactly one positive atom per line",
                ))
            }
        };
        let args: Result<Vec<Value>, TextError> = atom
            .args
            .iter()
            .map(|t| {
                t.as_const()
                    .ok_or_else(|| TextError::at(lineno, "tuple arguments must be constants"))
            })
            .collect();
        rows.push((atom.rel, args?, prob));
    }
    let mut db = ProbDb::new(voc.clone());
    let mut rats: Vec<QRat> = Vec::with_capacity(rows.len());
    for (rel, args, prob) in rows {
        let id = db.insert(rel, args, prob.to_f64());
        let idx = id.0 as usize;
        if idx == rats.len() {
            rats.push(prob);
        } else {
            rats[idx] = prob; // duplicate line overwrites, like `insert`
        }
    }
    let probs = RatProbs::explicit(&db, rats);
    Ok((db, probs))
}

/// Render a database with exact rational probabilities (stable round trip
/// through [`load_db_exact`]).
pub fn dump_db_exact(db: &ProbDb, probs: &RatProbs) -> String {
    let mut out = String::new();
    for (i, (t, p)) in db.tuples().iter().zip(probs.as_slice()).enumerate() {
        if !db.is_live(crate::TupleId(i as u32)) {
            continue; // tombstones left by deletions are not data
        }
        let args: Vec<String> = t.args.iter().map(|&v| db.voc.value_name(v)).collect();
        out.push_str(&format!(
            "{}({}) @ {}\n",
            db.voc.rel_name(t.rel),
            args.join(", "),
            p
        ));
    }
    out
}

/// Render a database back to the text format (stable round trip).
pub fn dump_db(db: &ProbDb) -> String {
    let mut out = String::new();
    for (i, t) in db.tuples().iter().enumerate() {
        let id = crate::TupleId(i as u32);
        if !db.is_live(id) {
            continue; // tombstones left by deletions are not data
        }
        let args: Vec<String> = t.args.iter().map(|&v| db.voc.value_name(v)).collect();
        out.push_str(&format!(
            "{}({}) @ {}\n",
            db.voc.rel_name(t.rel),
            args.join(", "),
            db.prob(id)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_tuples_with_probabilities_and_comments() {
        let mut voc = Vocabulary::new();
        let db = load_db(
            &mut voc,
            "# fixture\nR(1) @ 0.5\n\nS(1, 2) @ 0.25  # trailing\nT('a') \n",
        )
        .unwrap();
        assert_eq!(db.num_tuples(), 3);
        let r = db.voc.find_relation("R").unwrap();
        assert_eq!(db.prob_of(r, &[Value(1)]), 0.5);
        let t = db.voc.find_relation("T").unwrap();
        let a = voc.named_const("a");
        assert_eq!(db.prob_of(t, &[a]), 1.0);
    }

    #[test]
    fn round_trip() {
        let mut voc = Vocabulary::new();
        let db = load_db(&mut voc, "R(1) @ 0.5\nS(1, 2) @ 0.25\n").unwrap();
        let dumped = dump_db(&db);
        let mut voc2 = Vocabulary::new();
        let db2 = load_db(&mut voc2, &dumped).unwrap();
        assert_eq!(db.num_tuples(), db2.num_tuples());
        let r = db2.voc.find_relation("R").unwrap();
        assert_eq!(db2.prob_of(r, &[Value(1)]), 0.5);
    }

    #[test]
    fn parse_rational_forms() {
        assert_eq!(parse_rational("1/3").unwrap(), QRat::ratio(1, 3));
        assert_eq!(parse_rational("0.25").unwrap(), QRat::ratio(1, 4));
        assert_eq!(parse_rational("1").unwrap(), QRat::one());
        assert_eq!(parse_rational("0").unwrap(), QRat::zero());
        assert_eq!(parse_rational(" 2 / 6 ").unwrap(), QRat::ratio(1, 3));
        // Fifty-digit decimals survive exactly.
        let tiny = parse_rational("0.00000000000000000000000000000000000000000000000001").unwrap();
        assert_eq!(tiny.denominator().to_string().len(), 51);
        assert!(parse_rational("1/0").is_none());
        assert!(parse_rational("abc").is_none());
        assert!(parse_rational("").is_none());
    }

    #[test]
    fn exact_load_keeps_rationals() {
        let mut voc = Vocabulary::new();
        let (db, probs) = load_db_exact(&mut voc, "R(1) @ 1/3\nS(1,2) @ 0.25\n").unwrap();
        assert_eq!(db.num_tuples(), 2);
        assert_eq!(probs.as_slice()[0], QRat::ratio(1, 3));
        assert_eq!(probs.as_slice()[1], QRat::ratio(1, 4));
        // f64 view is the nearest float.
        let r = db.voc.find_relation("R").unwrap();
        assert!((db.prob_of(r, &[Value(1)]) - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn exact_round_trip() {
        let mut voc = Vocabulary::new();
        let (db, probs) = load_db_exact(&mut voc, "R(1) @ 1/3\nS(1,2) @ 1/7\n").unwrap();
        let dumped = dump_db_exact(&db, &probs);
        let mut voc2 = Vocabulary::new();
        let (db2, probs2) = load_db_exact(&mut voc2, &dumped).unwrap();
        assert_eq!(db2.num_tuples(), 2);
        assert_eq!(probs2.as_slice(), probs.as_slice());
    }

    #[test]
    fn exact_load_duplicate_overwrites() {
        let mut voc = Vocabulary::new();
        let (db, probs) = load_db_exact(&mut voc, "R(1) @ 1/3\nR(1) @ 1/2\n").unwrap();
        assert_eq!(db.num_tuples(), 1);
        assert_eq!(probs.as_slice()[0], QRat::ratio(1, 2));
    }

    #[test]
    fn exact_load_rejects_bad_probability() {
        let mut voc = Vocabulary::new();
        assert!(load_db_exact(&mut voc, "R(1) @ 3/2").is_err());
        assert!(load_db_exact(&mut voc, "R(1) @ x").is_err());
    }

    #[test]
    fn error_positions() {
        let mut voc = Vocabulary::new();
        assert_eq!(load_db(&mut voc, "R(1) @ 2.0").unwrap_err().line, 1);
        assert_eq!(load_db(&mut voc, "R(1)\nR(x) @ 0.1").unwrap_err().line, 2);
        assert!(load_db(&mut voc, "R(1), S(2) @ 0.5").is_err());
        assert!(load_db(&mut voc, "not R(1) @ 0.5").is_err());
        assert!(load_db(&mut voc, "R(1) @ nope").is_err());
    }

    #[test]
    fn delta_batches_parse_and_apply() {
        use crate::DeltaOp;
        let mut voc = Vocabulary::new();
        let db_text = "R(1) @ 0.5\nS(1, 2) @ 0.25\n";
        let mut db = load_db(&mut voc, db_text).unwrap();
        let script = "\
# round one
+ R(2) @ 0.75
~ S(1, 2) @ 0.9

- R(1)
+ S(2, 'x') @ 0.1
";
        let batches = parse_delta_batches(&mut voc, script).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 2);
        assert!(matches!(batches[0].ops[0], DeltaOp::Insert { prob, .. } if prob == 0.75));
        assert!(matches!(batches[1].ops[0], DeltaOp::Delete { .. }));
        db.voc = voc.clone();
        let v0 = db.version();
        for b in &batches {
            db.apply(b);
        }
        assert_eq!(db.version(), v0 + 2);
        let r = voc.find_relation("R").unwrap();
        let s = voc.find_relation("S").unwrap();
        assert_eq!(db.prob_of(r, &[Value(1)]), 0.0);
        assert_eq!(db.prob_of(r, &[Value(2)]), 0.75);
        assert_eq!(db.prob_of(s, &[Value(1), Value(2)]), 0.9);
    }

    #[test]
    fn delta_parse_errors() {
        let mut voc = Vocabulary::new();
        assert!(parse_delta_batches(&mut voc, "* R(1) @ 0.5").is_err());
        // A multi-byte leading character (editor-smartened minus) must be
        // a parse error with a line number, not a char-boundary panic.
        assert_eq!(
            parse_delta_batches(&mut voc, "\u{2212} R(1)")
                .unwrap_err()
                .line,
            1
        );
        assert!(parse_delta_batches(&mut voc, "- R(1) @ 0.5").is_err());
        assert!(parse_delta_batches(&mut voc, "~ R(1)").is_err());
        assert!(parse_delta_batches(&mut voc, "+ R(x) @ 0.5").is_err());
        assert_eq!(
            parse_delta_batches(&mut voc, "+ R(1) @ 2.0")
                .unwrap_err()
                .line,
            1
        );
    }

    #[test]
    fn delta_parse_errors_name_the_failing_batch_and_op() {
        let mut voc = Vocabulary::new();
        // Batch 1 is fine; the second op of batch 2 (line 5) is bad.
        let err = parse_delta_batches(&mut voc, "+ R(1) @ 0.5\n+ R(2)\n\n- R(1)\n~ R(2) @ 3.0\n")
            .unwrap_err();
        assert_eq!(err.line, 5);
        assert_eq!(err.delta, Some(DeltaPos { batch: 2, op: 2 }));
        assert_eq!(
            err.to_string(),
            "line 5 (batch 2, op 2): probability 3 outside [0,1]"
        );
        // Comment and blank lines don't shift the op numbering.
        let err =
            parse_delta_batches(&mut voc, "# header\n+ R(1)\n\n# note\n* R(2)\n").unwrap_err();
        assert_eq!(err.line, 5);
        assert_eq!(err.delta, Some(DeltaPos { batch: 2, op: 1 }));
        // Database loads are not delta scripts: no batch/op context.
        let err = load_db(&mut voc, "R(1) @ 2.0").unwrap_err();
        assert_eq!(err.delta, None);
        assert_eq!(err.to_string(), "line 1: probability 2 outside [0,1]");
    }
}
