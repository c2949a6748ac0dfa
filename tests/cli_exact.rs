//! `probdb eval --exact` runs the planner's plan: its rational value is the
//! possible-worlds probability, and the method it reports is the one
//! `probdb plan` prints for the same query.

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

#[test]
fn exact_eval_reports_the_planned_method() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("probdb-cli-exact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("db.txt");
    std::fs::write(
        &db,
        "R(1) @ 1/2\nR(2) @ 1/3\nS(1,2) @ 1/4\nS(1,3) @ 1/2\nS(2,3) @ 1/4\n",
    )
    .unwrap();
    let db = db.to_str().unwrap();
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
    std::fs::remove_dir_all(&dir).unwrap();
}
