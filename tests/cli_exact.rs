//! `probdb eval --exact` runs the planner's plan: its rational value is the
//! possible-worlds probability, and the method it reports is the one
//! `probdb plan` prints for the same query. `probdb count` is the same
//! engine call at `p ≡ 1/2`, and `probdb eval` answers every PTIME shape.

use std::path::PathBuf;
use std::process::Command;

fn probdb(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_probdb"))
        .args(args)
        .output()
        .expect("probdb runs");
    assert!(out.status.success(), "probdb {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Writes `text` as a database file in a fresh per-test directory.
fn db_file(tag: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("probdb-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.txt");
    std::fs::write(&db, text).unwrap();
    db
}

#[test]
fn exact_eval_reports_the_planned_method() {
    let path = db_file(
        "exact",
        "R(1) @ 1/2\nR(2) @ 1/3\nS(1,2) @ 1/4\nS(1,3) @ 1/2\nS(2,3) @ 1/4\n",
    );
    let db = path.to_str().unwrap();
    // `x < x` holds for no binding: the plan is `never`. R(1) contributes
    // 1/2 · (1 − 3/4 · 1/2) = 5/16 and R(2) 1/3 · 1/4 = 1/12, so
    // 1 − 11/16 · 11/12 = 71/192.
    for (query, want) in [
        ("R(x), x < x", "P(q) = 0"),
        ("R(x), S(x,y)", "P(q) = 71/192"),
    ] {
        let plan = probdb(&["plan", query]);
        assert!(plan.starts_with("extensional plan:"), "{query}: {plan}");
        let eval = probdb(&["eval", db, query, "--exact"]);
        let mut lines = eval.lines();
        assert_eq!(lines.next(), Some(want), "{query}: {eval}");
        let method = lines.next().and_then(|l| l.split("method=").nth(1));
        assert_eq!(method, Some("extensional-plan"), "{query}: {eval}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn count_equals_world_counting_and_reports_the_engine_method() {
    let text = "R(1) @ 0.5\nR(2) @ 0.3\nS(1,2) @ 0.4\nS(2,3) @ 0.6\nS(1,3) @ 0.2\n\
                T(1) @ 0.5\nT(2) @ 0.7\n";
    let path = db_file("count", text);
    for (query, method) in [
        ("R(x), S(x,y)", "extensional-plan"),
        ("R(x), S(x,y), S(x2,y2), T(x2)", "safe-plan"),
    ] {
        let out = probdb(&["count", path.to_str().unwrap(), query]);
        let mut voc = cq::Vocabulary::new();
        let db = pdb::load_db(&mut voc, text).unwrap();
        let q = cq::parse_query(&mut voc, query).unwrap();
        let want = pdb::count_satisfying_worlds_exact(&db, &q);
        assert_eq!(
            out.trim_end(),
            format!("{want} of 2^7 substructures satisfy q   method={method}"),
            "{query}"
        );
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn eval_answers_a_predicate_spanning_components() {
    // Hierarchical and self-join-free, but `x < y` joins the two
    // components, so the extensional compiler declines the query.
    let text = "R(1) @ 0.5\nR(2) @ 0.25\nS(2) @ 0.5\nS(3) @ 0.25\n";
    let query = "R(x), S(y), x < y";
    let path = db_file("span", text);
    let out = probdb(&["eval", path.to_str().unwrap(), query]);
    let got: f64 = out
        .lines()
        .find_map(|l| l.strip_prefix("P(q) = "))
        .and_then(|p| p.trim().parse().ok())
        .unwrap_or_else(|| panic!("no probability in {out}"));
    let mut voc = cq::Vocabulary::new();
    let db = pdb::load_db(&mut voc, text).unwrap();
    let q = cq::parse_query(&mut voc, query).unwrap();
    let want = pdb::brute_force_probability(&db, &q);
    assert!((got - want).abs() < 1e-9, "{out} vs brute force {want}");
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}
