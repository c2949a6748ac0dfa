//! Replay equivalence: a stale copy of a database caught up by
//! [`ProbDb::replay_from`] must equal a `clone()` of the database that
//! ran ahead, on every observable the rest of the workspace reads — the
//! property the epoch store's buffer recycling rests on. Random delta
//! sequences (inserts, deletes, delete-then-reinsert of the same content,
//! upserts, identical-probability no-ops, empty batches) over gaps of 0–5
//! versions at shard layouts {1, 2, 3}; plus the refusals, each of which
//! must leave the stale copy exactly as it was.

use cq::{RelId, Value, Vocabulary};
use pdb::{AppliedDelta, DeltaBatch, ProbDb, ProbTuple, ShardColumn, TupleId, MAX_DELTA_LOG};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LAYOUTS: [usize; 3] = [1, 2, 3];
/// Values are drawn from `0..DOMAIN`, so ops collide with existing tuples
/// (upserts, deletes that hit) about as often as they miss.
const DOMAIN: u64 = 6;

/// Everything observable about a database except its `uid`.
#[derive(Debug, PartialEq)]
struct Observed {
    version: u64,
    log_start: u64,
    log: Vec<AppliedDelta>,
    relations: usize,
    named_consts: Vec<String>,
    tuples: Vec<ProbTuple>,
    live: Vec<bool>,
    by_rel: Vec<Vec<TupleId>>,
    /// `find` and `tuples_with` for every `(rel, col, value)` in the
    /// domain — live content and absent content alike.
    found: Vec<Option<TupleId>>,
    postings: Vec<Vec<TupleId>>,
    shards: Vec<ShardObserved>,
}

#[derive(Debug, PartialEq)]
struct ShardObserved {
    version: u64,
    by_rel: Vec<Vec<TupleId>>,
    resident: Vec<Option<ShardColumn>>,
    postings: Vec<Vec<TupleId>>,
}

fn observe(db: &ProbDb) -> Observed {
    let rels: Vec<RelId> = db.voc.relations().collect();
    let values = || (0..DOMAIN).map(Value).chain([named(0)]);
    let mut found = Vec::new();
    for &rel in &rels {
        match db.voc.arity(rel) {
            1 => found.extend(values().map(|a| db.find(rel, &[a]))),
            _ => {
                for a in values() {
                    found.extend(values().map(|b| db.find(rel, &[a, b])));
                }
            }
        }
    }
    let keys: Vec<(RelId, usize, Value)> = rels
        .iter()
        .flat_map(|&rel| (0..db.voc.arity(rel)).map(move |col| (rel, col)))
        .flat_map(|(rel, col)| values().map(move |v| (rel, col, v)))
        .collect();
    let shards = if db.shard_layout() == 1 {
        Vec::new()
    } else {
        (0..db.shard_layout())
            .map(|s| ShardObserved {
                version: db.shard_version(s),
                by_rel: rels
                    .iter()
                    .map(|&rel| db.shard_tuples_of(s, rel).to_vec())
                    .collect(),
                resident: rels
                    .iter()
                    .map(|&rel| db.shard_resident(s, rel).cloned())
                    .collect(),
                postings: keys
                    .iter()
                    .map(|&(rel, col, v)| db.shard_tuples_with(s, rel, col, v).to_vec())
                    .collect(),
            })
            .collect()
    };
    Observed {
        version: db.version(),
        log_start: db.delta_log_start(),
        log: db.changes_since(0).cloned().collect(),
        relations: db.voc.num_relations(),
        named_consts: (0..db.voc.num_named_consts())
            .map(|i| db.voc.value_name(named(i)))
            .collect(),
        tuples: db.tuples().to_vec(),
        live: (0..db.num_tuples())
            .map(|i| db.is_live(TupleId(i as u32)))
            .collect(),
        by_rel: rels.iter().map(|&rel| db.tuples_of(rel).to_vec()).collect(),
        found,
        postings: keys
            .iter()
            .map(|&(rel, col, v)| db.tuples_with(rel, col, v).to_vec())
            .collect(),
        shards,
    }
}

/// The `i`-th named constant's value (whether or not a database interned it).
fn named(i: usize) -> Value {
    Value(Value::NAMED_BASE + i as u64)
}

/// `R/1`, `S/2` with ~20 tuples, loaded through one batch.
fn seed(rng: &mut StdRng, layout: usize) -> (ProbDb, RelId, RelId) {
    let mut voc = Vocabulary::new();
    let r = voc.relation("R", 1).unwrap();
    let s = voc.relation("S", 2).unwrap();
    let mut db = ProbDb::new(voc);
    let mut batch = DeltaBatch::new();
    for _ in 0..12 {
        batch.insert(
            r,
            vec![Value(rng.gen_range(0..DOMAIN))],
            rng.gen_range(0.05..0.95),
        );
        batch.insert(
            s,
            vec![
                Value(rng.gen_range(0..DOMAIN)),
                Value(rng.gen_range(0..DOMAIN)),
            ],
            rng.gen_range(0.05..0.95),
        );
    }
    db.apply(&batch);
    db.set_shard_layout(layout);
    (db, r, s)
}

/// One random batch: 0–6 ops over the small domain. Besides plain
/// insert / update / delete it emits the sequences the log resolves
/// specially: delete-then-reinsert of one content inside a batch (fresh
/// id), and a rewrite of a present tuple's own probability (dropped from
/// the change list).
fn random_batch(rng: &mut StdRng, db: &ProbDb, r: RelId, s: RelId) -> DeltaBatch {
    let mut batch = DeltaBatch::new();
    for _ in 0..rng.gen_range(0..=6usize) {
        let (rel, args) = if rng.gen_bool(0.5) {
            (r, vec![Value(rng.gen_range(0..DOMAIN))])
        } else {
            (
                s,
                vec![
                    Value(rng.gen_range(0..DOMAIN)),
                    Value(rng.gen_range(0..DOMAIN)),
                ],
            )
        };
        match rng.gen_range(0..6u32) {
            0 => batch.insert(rel, args, rng.gen_range(0.0..=1.0)),
            1 => batch.update(rel, args, rng.gen_range(0.0..=1.0)),
            2 => batch.delete(rel, args),
            3 => batch
                .delete(rel, args.clone())
                .insert(rel, args, rng.gen_range(0.05..0.95)),
            4 => {
                let same = db.prob_of(rel, &args);
                batch.update(rel, args, same)
            }
            _ => batch
                .insert(rel, args.clone(), 0.5)
                .update(rel, args.clone(), 0.25)
                .delete(rel, args),
        };
    }
    batch
}

#[test]
fn replayed_stale_copy_equals_a_clone_of_the_database_ahead() {
    let mut rng = StdRng::seed_from_u64(0x5EED_1E57);
    for &layout in &LAYOUTS {
        for round in 0..40 {
            let (mut ahead, r, s) = seed(&mut rng, layout);
            // Some history before the stale copy is taken, so its own log
            // and tombstones are non-trivial.
            for _ in 0..rng.gen_range(0..4usize) {
                let batch = random_batch(&mut rng, &ahead, r, s);
                ahead.apply(&batch);
            }
            let mut stale = ahead.clone();
            let stale_uid = stale.uid();
            let gap = rng.gen_range(0..=5usize);
            for step in 0..gap {
                if step == 1 && round % 4 == 0 {
                    // The vocabulary grows between versions (what `/apply`
                    // does when a script names something new).
                    let mut voc = ahead.voc.clone();
                    voc.relation("Late", 1).unwrap();
                    voc.named_const("late");
                    ahead.voc = voc;
                }
                let batch = random_batch(&mut rng, &ahead, r, s);
                ahead.apply(&batch);
            }
            assert!(
                stale.replay_from(&ahead),
                "layout {layout} round {round}: replay over a {gap}-version gap refused"
            );
            assert_eq!(
                observe(&stale),
                observe(&ahead.clone()),
                "layout {layout} round {round} gap {gap}"
            );
            assert_eq!(stale.uid(), stale_uid, "a replayed buffer keeps its uid");
            // The caught-up copy is a working database: both sides take
            // the next batch identically.
            let batch = random_batch(&mut rng, &ahead, r, s);
            assert_eq!(stale.apply(&batch), ahead.apply(&batch));
            assert_eq!(observe(&stale), observe(&ahead));
        }
    }
}

#[test]
fn replay_leapfrogs_like_the_epoch_store_does() {
    // Two buffers alternately one version behind each other, for longer
    // than the log retains: every replay bridges exactly one entry and
    // the trimmed logs stay equal.
    let mut rng = StdRng::seed_from_u64(0xF206);
    let (mut a, r, s) = seed(&mut rng, 2);
    let mut b = a.clone();
    for i in 0..MAX_DELTA_LOG + 40 {
        let (front, back) = if i % 2 == 0 {
            (&mut a, &mut b)
        } else {
            (&mut b, &mut a)
        };
        assert!(front.replay_from(back), "step {i}");
        let batch = random_batch(&mut rng, front, r, s);
        front.apply(&batch);
        if i % 97 == 0 || i + 3 > MAX_DELTA_LOG + 40 {
            let mut caught_up = back.clone();
            assert!(caught_up.replay_from(front));
            assert_eq!(observe(&caught_up), observe(front), "step {i}");
        }
    }
    assert!(a.delta_log_start() > 0, "the log was trimmed along the way");
}

#[test]
fn replay_refuses_what_the_log_cannot_bridge_and_touches_nothing() {
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let refused = |stale: &mut ProbDb, ahead: &ProbDb, why: &str| {
        let before = observe(stale);
        assert!(!stale.replay_from(ahead), "{why}: replay went ahead");
        assert_eq!(
            observe(stale),
            before,
            "{why}: refused replay changed the copy"
        );
    };
    for &layout in &LAYOUTS {
        let (base, r, s) = seed(&mut rng, layout);

        // More missing versions than the log retains.
        let mut ahead = base.clone();
        let mut stale = base.clone();
        for _ in 0..MAX_DELTA_LOG + 1 {
            ahead.apply(&DeltaBatch::new());
        }
        refused(&mut stale, &ahead, "gap wider than MAX_DELTA_LOG");
        // One fewer is still bridgeable.
        let mut ahead = base.clone();
        for _ in 0..MAX_DELTA_LOG {
            ahead.apply(&DeltaBatch::new());
        }
        assert!(stale.replay_from(&ahead));
        assert_eq!(observe(&stale), observe(&ahead));

        // An out-of-band insert between logged batches clears the log.
        let mut ahead = base.clone();
        let mut stale = base.clone();
        let batch = random_batch(&mut rng, &ahead, r, s);
        ahead.apply(&batch);
        ahead.insert(r, vec![Value(DOMAIN + 1)], 0.5);
        let batch = random_batch(&mut rng, &ahead, r, s);
        ahead.apply(&batch);
        refused(&mut stale, &ahead, "out-of-band insert");
        // A copy taken after the out-of-band write replays fine.
        let mut stale = ahead.clone();
        let batch = random_batch(&mut rng, &ahead, r, s);
        ahead.apply(&batch);
        assert!(stale.replay_from(&ahead));
        assert_eq!(observe(&stale), observe(&ahead));

        // A different shard layout on either side.
        let mut ahead = base.clone();
        let mut stale = base.clone();
        ahead.set_shard_layout(layout + 1);
        let batch = random_batch(&mut rng, &ahead, r, s);
        ahead.apply(&batch);
        refused(&mut stale, &ahead, "layout changed ahead");

        // The "stale" copy is in fact ahead.
        let mut stale = ahead.clone();
        stale.apply(&DeltaBatch::new());
        refused(&mut stale, &ahead, "copy is newer");
    }
}
