//! Seeded input generator: databases (as text, loaded through
//! `pdb::text::load_db` like a user's file), query cycles and delta
//! scripts. Nothing here touches the program under test — the same seed
//! yields the same bytes.

use std::fmt::Write as _;

/// splitmix64: small, fast, and ours — the program's RNG shim is not an
/// input source.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `lane` (client thread, data set, …).
    pub fn fork(&self, lane: u64) -> Rng {
        let mut r = Rng(self.0 ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2^32, so the modulo bias is nil).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A probability in `[lo, hi)`, as the six-decimal text a database
    /// file carries — the served database and the verification mirror
    /// both parse the same digits.
    pub fn prob(&mut self, lo: f64, hi: f64) -> String {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        format!("{:.6}", lo + unit * (hi - lo))
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub const STAR_ROOTS: u64 = 20_000;
pub const STAR_FANOUT: u64 = 4;
pub const BUSHY_ROOTS: u64 = 12_000;
pub const BUSHY_FANOUT: u64 = 4;
/// Families of 32 tuples: 8 `R` roots, 2 `S` children each, 8 `T`.
pub const FAMILIES: usize = 1536;

pub const STAR_QUERY: &str = "R(x), S(x,y)";
pub const BUSHY_QUERY: &str = "R(x), S(x,y), U(x,y,z), V(x,w)";

/// The 100k-tuple star: `R(i)`, `S(i, y)` with `fanout` children a root.
pub fn star_text(rng: &mut Rng) -> String {
    let mut out = String::with_capacity(3 << 20);
    for i in 0..STAR_ROOTS {
        writeln!(out, "R({i}) @ {}", rng.prob(0.02, 0.2)).unwrap();
        for j in 0..STAR_FANOUT {
            let y = STAR_ROOTS + i * STAR_FANOUT + j;
            writeln!(out, "S({i}, {y}) @ {}", rng.prob(0.02, 0.3)).unwrap();
        }
    }
    out
}

/// The 156k-tuple bushy database for `R(x), S(x,y), U(x,y,z), V(x,w)`:
/// the `V` subtree is independent of the `S`/`U` chain, which is what a
/// DAG schedule can overlap.
pub fn bushy_text(rng: &mut Rng) -> String {
    let mut out = String::with_capacity(5 << 20);
    for i in 0..BUSHY_ROOTS {
        writeln!(out, "R({i}) @ {}", rng.prob(0.05, 0.3)).unwrap();
        for j in 0..BUSHY_FANOUT {
            let y = BUSHY_ROOTS + i * BUSHY_FANOUT + j;
            writeln!(out, "S({i}, {y}) @ {}", rng.prob(0.05, 0.3)).unwrap();
            writeln!(
                out,
                "U({i}, {y}, {}) @ {}",
                100_000 + y,
                rng.prob(0.05, 0.3)
            )
            .unwrap();
            writeln!(out, "V({i}, {}) @ {}", 200_000 + y, rng.prob(0.05, 0.3)).unwrap();
        }
    }
    out
}

/// The 49k-tuple multi-family database: family `f` owns `R{f}`, `S{f}`,
/// `T{f}`. `T{f}` holds four root ids and four child ids, so both the
/// self-join shape (`T(x2)` on a root) and the hard shape (`T(y)` on a
/// child) have non-empty lineage. Every family draws its 24 values from
/// the same small range — relations are many, the active domain is not —
/// so the cost of a request is its family's, not the database's.
pub fn family_text(rng: &mut Rng) -> String {
    let mut out = String::with_capacity(2 << 20);
    for f in 0..FAMILIES as u64 {
        for x in 0..8 {
            writeln!(out, "R{f}({x}) @ {}", rng.prob(0.05, 0.4)).unwrap();
            for j in 0..2 {
                let y = 10 + x * 2 + j;
                writeln!(out, "S{f}({x}, {y}) @ {}", rng.prob(0.05, 0.4)).unwrap();
            }
            let t = if x < 4 { x } else { 10 + (x - 4) * 2 };
            writeln!(out, "T{f}({t}) @ {}", rng.prob(0.05, 0.4)).unwrap();
        }
    }
    out
}

/// The op classes of `serve_adhoc`, in the order their medians print.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdhocClass {
    /// Hierarchical, self-join-free Boolean query (four shapes).
    Hier(u8),
    /// `R{f}(x0), S{f}(x0,x1)` ranked on `x0`.
    Rank,
    /// Inversion-free self-join.
    SelfJoin,
    /// Non-hierarchical: #P-hard, Karp–Luby.
    Hard,
}

pub const ADHOC_CYCLE: usize = 128;

/// One `serve_adhoc` request: its class and the family it names.
#[derive(Clone, Copy, Debug)]
pub struct AdhocOp {
    pub class: AdhocClass,
    pub family: usize,
}

impl AdhocOp {
    pub fn query(&self) -> String {
        let f = self.family;
        match self.class {
            AdhocClass::Hier(0) => format!("R{f}(x), S{f}(x,y)"),
            AdhocClass::Hier(1) => format!("S{f}(x,y), T{f}(y)"),
            AdhocClass::Hier(2) => format!("R{f}(x), S{f}(x,y), T{f}(z)"),
            AdhocClass::Hier(_) => format!("R{f}(x), T{f}(y)"),
            AdhocClass::Rank => format!("R{f}(x), S{f}(x,y)"),
            AdhocClass::SelfJoin => format!("R{f}(x), S{f}(x,y), S{f}(x2,y2), T{f}(x2)"),
            AdhocClass::Hard => format!("R{f}(x), S{f}(x,y), T{f}(y)"),
        }
    }

    pub fn is_rank(&self) -> bool {
        self.class == AdhocClass::Rank
    }
}

/// Generates `serve_adhoc` cycles: 104 hierarchical (26 of each shape),
/// 16 ranked, 7 self-join, 1 hard, in a seeded order. Every shape walks
/// the families with its own counter from a seeded start, so a key comes
/// round again only after all 1536 families of its shape — by then
/// thousands of other keys have passed through both caches.
pub struct AdhocCycles {
    rng: Rng,
    /// Next family per shape: four hierarchical, rank, self-join, hard.
    next: [usize; 7],
}

impl AdhocCycles {
    pub fn new(rng: &Rng) -> AdhocCycles {
        let mut rng = rng.fork(0xAD0C);
        let next = std::array::from_fn(|_| rng.below(FAMILIES));
        AdhocCycles { rng, next }
    }

    pub fn next_cycle(&mut self) -> Vec<AdhocOp> {
        let mut classes = Vec::with_capacity(ADHOC_CYCLE);
        for shape in 0..4 {
            classes.extend(std::iter::repeat_n(AdhocClass::Hier(shape), 26));
        }
        classes.extend(std::iter::repeat_n(AdhocClass::Rank, 16));
        classes.extend(std::iter::repeat_n(AdhocClass::SelfJoin, 7));
        classes.push(AdhocClass::Hard);
        self.rng.shuffle(&mut classes);
        classes
            .into_iter()
            .map(|class| {
                let slot = match class {
                    AdhocClass::Hier(s) => s as usize,
                    AdhocClass::Rank => 4,
                    AdhocClass::SelfJoin => 5,
                    AdhocClass::Hard => 6,
                };
                let family = self.next[slot];
                self.next[slot] = (family + 1) % FAMILIES;
                AdhocOp { class, family }
            })
            .collect()
    }
}

pub const HOT_SET: usize = 64;

/// The `serve_hot` working set: the full-star query plus 63 point
/// queries on seeded distinct roots, and the ranked form of each point.
pub struct HotSet {
    pub evals: Vec<String>,
    /// `(query, head)` — `x0` is the first variable, i.e. `y`.
    pub ranks: Vec<String>,
}

impl HotSet {
    pub fn new(rng: &Rng) -> HotSet {
        let mut rng = rng.fork(0x407);
        let mut roots: Vec<u64> = Vec::new();
        while roots.len() < HOT_SET - 1 {
            let k = rng.below(STAR_ROOTS as usize) as u64;
            if !roots.contains(&k) {
                roots.push(k);
            }
        }
        let mut evals = vec![STAR_QUERY.to_string()];
        evals.extend(roots.iter().map(|k| format!("R({k}), S({k},y)")));
        let ranks = roots.iter().map(|k| format!("R({k}), S({k},y)")).collect();
        HotSet { evals, ranks }
    }
}

pub const DELTA_OPS: usize = 128;

/// Generates `serve_churn` delta scripts against its own model of the
/// star's live `S` tuples, so every op names a tuple that exists: 80 %
/// probability updates (a quarter of them on `R`), 10 % inserts of a
/// fresh child, 10 % deletes.
pub struct DeltaScripts {
    rng: Rng,
    live_s: Vec<(u64, u64)>,
    next_y: u64,
}

impl DeltaScripts {
    pub fn new(rng: &Rng) -> DeltaScripts {
        let live_s = (0..STAR_ROOTS)
            .flat_map(|i| (0..STAR_FANOUT).map(move |j| (i, STAR_ROOTS + i * STAR_FANOUT + j)))
            .collect();
        DeltaScripts {
            rng: rng.fork(0xDE17A),
            live_s,
            next_y: STAR_ROOTS * (STAR_FANOUT + 1),
        }
    }

    /// One 128-op script: a single batch, so one version per `/apply`.
    pub fn next_script(&mut self) -> String {
        let mut out = String::with_capacity(DELTA_OPS * 28);
        for _ in 0..DELTA_OPS {
            match self.rng.below(10) {
                0 => {
                    let root = self.rng.below(STAR_ROOTS as usize) as u64;
                    let y = self.next_y;
                    self.next_y += 1;
                    self.live_s.push((root, y));
                    writeln!(out, "+ S({root}, {y}) @ {}", self.rng.prob(0.02, 0.3)).unwrap();
                }
                1 => {
                    let at = self.rng.below(self.live_s.len());
                    let (x, y) = self.live_s.swap_remove(at);
                    writeln!(out, "- S({x}, {y})").unwrap();
                }
                2 | 3 => {
                    let root = self.rng.below(STAR_ROOTS as usize);
                    writeln!(out, "~ R({root}) @ {}", self.rng.prob(0.02, 0.2)).unwrap();
                }
                _ => {
                    let (x, y) = self.live_s[self.rng.below(self.live_s.len())];
                    writeln!(out, "~ S({x}, {y}) @ {}", self.rng.prob(0.02, 0.3)).unwrap();
                }
            }
        }
        out
    }
}
