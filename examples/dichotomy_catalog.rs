//! Classify the paper's full query catalog and print the dichotomy table
//! (experiment E3 as an example binary; the test
//! `catalog::tests::full_catalog_classification` asserts the same
//! verdicts).
//!
//! Run with: `cargo run --example dichotomy_catalog`

use dichotomy::{classify, Complexity, Expected, CATALOG};
use probdb::prelude::*;

fn main() {
    println!(
        "{:<28} {:<22} {:<34} paper agrees?",
        "query", "source", "classification"
    );
    println!("{}", "-".repeat(100));
    let mut agreements = 0;
    let mut divergences = 0;
    for entry in CATALOG {
        let mut voc = Vocabulary::new();
        let q = parse_query(&mut voc, entry.text).unwrap();
        let got = classify(&q).unwrap().complexity;
        let verdict = match (entry.expected, &got) {
            (Expected::PTime, Complexity::PTime(_))
            | (Expected::SharpPHard, Complexity::SharpPHard(_)) => {
                agreements += 1;
                "yes"
            }
            (Expected::DivergesFromPaper, _) => {
                divergences += 1;
                "documented divergence"
            }
            _ => "NO — BUG",
        };
        println!(
            "{:<28} {:<22} {:<34} {}",
            entry.name,
            entry.source,
            got.to_string(),
            verdict
        );
    }
    println!("{}", "-".repeat(100));
    println!(
        "{} queries: {} agree with the paper, {} documented divergence(s)",
        CATALOG.len(),
        agreements,
        divergences
    );
}
