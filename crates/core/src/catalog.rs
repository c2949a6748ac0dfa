//! The paper's query catalog: every named query from the text, Fig. 1 and
//! Fig. 2, with its claimed complexity. Drives the classification
//! regression test (experiment E3) and the `table1` report.

/// Expected complexity per the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    PTime,
    SharpPHard,
    /// The paper's claim and this implementation's analysis disagree. The
    /// one such entry is footnote 1's query, claimed #P-hard without
    /// proof: its only non-identity unification forces `x = y` inside one
    /// factor, so the analysis finds it inversion-free, and the resulting
    /// polynomial evaluation matches brute-force world enumeration.
    DivergesFromPaper,
}

/// One catalog entry.
#[derive(Clone, Copy, Debug)]
pub struct CatalogEntry {
    pub name: &'static str,
    /// Where in the paper the query appears.
    pub source: &'static str,
    /// The query in this workspace's text syntax.
    pub text: &'static str,
    pub expected: Expected,
}

/// The full catalog.
pub const CATALOG: &[CatalogEntry] = &[
    CatalogEntry {
        name: "q_hier",
        source: "§1.1",
        text: "R(x), S(x,y)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "q_non-h",
        source: "§1.1",
        text: "R(x), S(x,y), T(y)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "q_selfjoin_T_on_x",
        source: "§1.1 (f1 f2 example)",
        text: "R(x), S(x,y), S(x2,y2), T(x2)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "H_0",
        source: "§1.1 / Thm 1.5",
        text: "R(x), S(x,y), S(x2,y2), T(y2)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "H_1",
        source: "Thm 1.5",
        text: "R(x), S0(x,y), S0(u1,v1), S1(u1,v1), S1(x2,y2), T(y2)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "H_2",
        source: "Thm 1.5",
        text: "R(x), S0(x,y), S0(u1,v1), S1(u1,v1), S1(u2,v2), S2(u2,v2), S2(x2,y2), T(y2)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "q_2path",
        source: "§1.1 / Fig. 2 row 1",
        text: "R(x,y), R(y,z)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "q_marked-ring",
        source: "§1.1 / Fig. 2 row 3 / Ex. 4.1",
        text: "R(x), S(x,y), S(y,x)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "q_open-marked-ring",
        source: "Fig. 2 row 2",
        text: "R(x), S1(x,y), S1(u1,v1), S2(u1,v1), S2(u2,v2), S2(v2,u2)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "example_1_7",
        source: "Ex. 1.7 / 3.13 (erasable inversion)",
        text: "R(r,x), S(r,x,y), U('a',r), U(r,z), V(r,z), \
               S(r2,x2,y2), T(r2,y2), V('a',r2), \
               R('a','b'), S('a','b','c'), U('a','a')",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "example_1_7_minus_line3",
        source: "Ex. 3.13 note",
        text: "R(r,x), S(r,x,y), U('a',r), U(r,z), V(r,z), \
               S(r2,x2,y2), T(r2,y2), V('a',r2)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "example_2_4",
        source: "Ex. 2.4",
        text: "T(x), R(x,x,y), R(u,v,v)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "example_2_14",
        source: "Ex. 2.14 / 3.8",
        text: "P(x), R(x,y), R(x2,y2), S(x2)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "example_3_5_symmetric",
        source: "Ex. 3.5 (q2)",
        text: "R(x,y), R(y,x)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "marked_ring_UV",
        source: "Ex. 4.1",
        text: "U(x), V(x,y), V(y,x)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "footnote_ptime_1",
        source: "fn. 1",
        text: "R(x,y,y,x), R(x,y,x,z)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "footnote_ptime_2",
        source: "fn. 1",
        text: "R(y,x,y,x,y), R(y,x,y,z,x), R(x,x,y,z,u)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "footnote_hard_variant",
        source: "fn. 1 (claimed #P-hard)",
        text: "R(y,x,y,x,y), R(y,y,y,z,x), R(x,x,y,z,u)",
        expected: Expected::DivergesFromPaper,
    },
    CatalogEntry {
        name: "fig1_row1",
        source: "Fig. 1 row 1",
        text: "R(x), S1(x,y,y), S1(u,v,w), S2(u,v,w), S2(x2,x2,y2), T(y2)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "fig1_row2",
        source: "Fig. 1 row 2",
        text: "R(x1,x2), S(x1,x2,y,y), S(x1,x1,x2,x2), S(x3,x3,y3,y3), T(y3)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "fig1_row3",
        source: "Fig. 1 row 3",
        text: "R(x1,x2), S(x1,x2,y,y), S(x1,x2,x1,x2), S(x3,x3,y31,y32), T(y31,y32)",
        expected: Expected::PTime,
    },
    CatalogEntry {
        name: "triangle_pattern",
        source: "App. B (Ex. B.2)",
        text: "E(z,x), E(x,y), E(y,z)",
        expected: Expected::SharpPHard,
    },
    CatalogEntry {
        name: "p3_pattern",
        source: "App. B (Ex. B.1)",
        text: "E(u,x), E(x,y), E(y,v)",
        expected: Expected::SharpPHard,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, Complexity};
    use cq::{parse_query, Vocabulary};

    /// Experiment E3: the dichotomy decision procedure reproduces the
    /// paper's classification of its own query catalog.
    #[test]
    fn full_catalog_classification() {
        let mut failures = Vec::new();
        for entry in CATALOG {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, entry.text).unwrap();
            let got = classify(&q).unwrap().complexity;
            let ok = match entry.expected {
                Expected::PTime => matches!(got, Complexity::PTime(_)),
                Expected::SharpPHard => matches!(got, Complexity::SharpPHard(_)),
                Expected::DivergesFromPaper => true, // recorded, not asserted
            };
            if !ok {
                failures.push(format!("{}: got {got}", entry.name));
            }
        }
        assert!(failures.is_empty(), "misclassified: {failures:#?}");
    }

    #[test]
    fn catalog_queries_parse_and_are_satisfiable() {
        for entry in CATALOG {
            let mut voc = Vocabulary::new();
            let q = parse_query(&mut voc, entry.text).unwrap();
            assert!(q.normalize().is_some(), "{} unsatisfiable", entry.name);
        }
    }
}
