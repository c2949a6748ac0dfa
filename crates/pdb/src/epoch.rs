//! Epoch-snapshot concurrency over [`ProbDb`]: many snapshot readers, one
//! publishing writer, two long-lived copies of the database.
//!
//! The `&mut ProbDb` discipline used everywhere else in the workspace
//! structurally forbids concurrent readers during a mutation. The
//! [`EpochStore`] lifts that restriction for the serving layer:
//!
//! * **Readers** evaluate against immutable `Arc<ProbDb>` snapshots.
//!   [`EpochStore::snapshot`] locks the *publication cell* — a small mutex
//!   around the current epoch's `Arc` and its publication counter —
//!   clones the `Arc`, and unlocks. The cell is held only for that clone
//!   and for the writer's pointer swap, so a reader waits at most for a
//!   swap, never for a write in progress, however many readers there are.
//! * **The writer** owns no private copy. To write it takes the *spare* —
//!   the epoch the last publish swapped out, if by now nobody else holds
//!   it — and catches it up to the published epoch by replaying the
//!   published epoch's own delta log ([`ProbDb::replay_from`], O(delta));
//!   runs the caller's closure on it; and publishes that buffer: swap it
//!   into the cell, bump the publication counter, notify watchers, and
//!   keep the previous epoch as the next spare. The two buffers leapfrog,
//!   so a write costs what its delta costs, twice — not a copy of the
//!   database. Whenever there is no usable spare (the first write, or a
//!   reader still holds the previous epoch when the next write starts) or
//!   the log cannot bridge the gap ([`crate::MAX_DELTA_LOG`] overflow,
//!   an out-of-band `insert`/`delete`, a layout change), the same path
//!   starts from `(*published).clone()` instead — O(database), never
//!   wrong. [`EpochStore::publish_counts`] says how often each happened.
//!   The PR-5 version stamps double as the epoch tokens — every published
//!   snapshot carries the version its content reflects and the delta log
//!   up to it, so incremental views refresh across epochs exactly as they
//!   do against a single mutating database.
//! * **Watchers** block in [`EpochStore::wait_newer`] on the cell's
//!   condvar, which every publish notifies, whoever made it.
//!
//! # Invariants (the epoch discipline)
//!
//! 1. **Published epochs are immutable.** The writer never mutates a
//!    snapshot a reader can reach or holds; readers can hold an epoch
//!    arbitrarily long and observe bit-for-bit stable content.
//! 2. **Versions are monotone.** Successive snapshots acquired by one
//!    reader carry non-decreasing version stamps (the cell only ever
//!    advances).
//! 3. **No torn reads.** A reader observes exactly the content of *some*
//!    published epoch — never a mix of two epochs, never a half-applied
//!    batch (the property test in `tests/epoch_snapshots.rs` races
//!    readers against a writer to pin this).
//! 4. **Readers wait only for a pointer swap, never for a write.** The
//!    writer mutex, held for a whole write, is never taken by a reader;
//!    the cell mutex, which readers take, is never held across the
//!    caller's closure.
//!
//! # Why recycling the previous epoch is safe
//!
//! The writer keeps the epoch it swapped out as the spare and, when the
//! next write starts, calls `Arc::try_unwrap` on it. Once swapped out, the
//! epoch cannot be reached through the cell, so no new reader can obtain
//! it: the only parties that can touch it are holders of an `Arc` cloned
//! before the swap and already counted in its strong count. `try_unwrap`
//! succeeds only when that count is one (ours): the value moves out and
//! is mutated as a plain owned `ProbDb`. If a reader still holds the
//! epoch, `try_unwrap` fails, the writer's reference is dropped, and the
//! reader's copy stays immutable until it lets go. Recycling therefore
//! writes to memory only where freeing it would be legal. The check is
//! made at the last moment on purpose: a read in flight when its epoch
//! retires — the normal state of a busy server — has until the next
//! write to finish, so whether a write replays or clones does not hang on
//! where the publish instant fell among the reads. A recycled buffer
//! keeps its [`ProbDb::uid`] while its version advances; it is never
//! published twice at one version, so `(uid, version)` still names one
//! content state.
//!
//! # Panics in the writer's closure
//!
//! The closure runs on a buffer local to [`EpochStore::with_writer`]. If
//! it unwinds, the buffer is dropped with whatever half-applied state it
//! had, and the cell was not touched: the only state under the writer
//! mutex is the spare, already taken, so later lockers recover the guard
//! from the poisoned mutex and carry on (the next write simply starts
//! from a clone). The cell mutex is never held across caller code.

use crate::database::ProbDb;
use crate::delta::DeltaBatch;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Shared {
    /// The publication cell: the current epoch and its publication
    /// counter (1 after construction, +1 per publish). Held only for a
    /// reader's `Arc::clone` and for the writer's swap.
    cell: Mutex<(Arc<ProbDb>, u64)>,
    /// Notified after every publish.
    published: Condvar,
    /// Serializes writes, and holds the next write's buffer if it is ours
    /// alone by then: the epoch the last publish swapped out (at an older
    /// version than the cell's; a reader that acquired it before the swap
    /// may still hold it), or the buffer of a closure that published
    /// nothing (at the cell's version, possibly carrying a versionless
    /// change such as a grown vocabulary).
    spare: Mutex<Option<Arc<ProbDb>>>,
    /// Nanoseconds the last publication spent obtaining its buffer and
    /// swapping it in (the snapshot-publication latency the serve bench
    /// reports).
    publish_ns: AtomicU64,
    /// Publications whose buffer was the recycled spare / a fresh clone.
    recycled: AtomicU64,
    cloned: AtomicU64,
}

/// How many publications started from each kind of buffer (see
/// [`EpochStore::publish_counts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishCounts {
    /// The previous epoch, caught up by delta-log replay: O(delta).
    pub recycled: u64,
    /// A deep clone of the published epoch: O(database).
    pub cloned: u64,
}

/// The epoch store: one writer, many snapshot readers. Cheap to clone —
/// clones share the same epochs (hand one to the writer thread and one to
/// every worker). See the module docs for the discipline.
#[derive(Clone)]
pub struct EpochStore {
    shared: Arc<Shared>,
}

impl EpochStore {
    /// Publish `db` itself as the first epoch (no copy is made).
    pub fn new(db: ProbDb) -> EpochStore {
        EpochStore {
            shared: Arc::new(Shared {
                cell: Mutex::new((Arc::new(db), 1)),
                published: Condvar::new(),
                spare: Mutex::new(None),
                publish_ns: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                cloned: AtomicU64::new(0),
            }),
        }
    }

    /// A reader's handle on the store; see [`ReaderHandle`].
    pub fn reader(&self) -> ReaderHandle {
        ReaderHandle {
            store: self.clone(),
        }
    }

    /// The version stamp of the current epoch.
    pub fn version(&self) -> u64 {
        self.cell().0.version()
    }

    /// The publication counter (1 after construction, +1 per publish).
    pub fn epoch(&self) -> u64 {
        self.cell().1
    }

    /// Nanoseconds the most recent publication spent obtaining its
    /// writable buffer (replay or clone) and swapping it in — not the
    /// caller's closure (0 before the first publish).
    pub fn last_publish_ns(&self) -> u64 {
        self.shared.publish_ns.load(SeqCst)
    }

    /// Publications so far by the buffer they started from. `cloned`
    /// counts the O(database) slow case: the first write, a reader still
    /// holding the previous epoch when the next write starts, or a gap
    /// the delta log cannot bridge.
    /// (A buffer kept from a closure that published nothing counts as
    /// recycled when a later write publishes it.)
    pub fn publish_counts(&self) -> PublishCounts {
        PublishCounts {
            recycled: self.shared.recycled.load(SeqCst),
            cloned: self.shared.cloned.load(SeqCst),
        }
    }

    /// The current epoch: lock the cell, clone the `Arc`, unlock. Never
    /// waits for a write in progress.
    pub fn snapshot(&self) -> Arc<ProbDb> {
        Arc::clone(&self.cell().0)
    }

    /// Wait up to `timeout` for an epoch newer than `version`, and return
    /// the current epoch either way (its version tells which happened).
    /// Returns at once if the current epoch is already newer, and early at
    /// [`EpochStore::wake_waiters`] (or a spurious wake-up), so callers
    /// loop until they see the version they want or have a reason to
    /// stop.
    pub fn wait_newer(&self, version: u64, timeout: Duration) -> Arc<ProbDb> {
        let mut cell = self.cell();
        if cell.0.version() <= version {
            cell = self
                .shared
                .published
                .wait_timeout(cell, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        Arc::clone(&cell.0)
    }

    /// Wake every thread in [`EpochStore::wait_newer`] without a publish,
    /// so it can look at a stop condition of its own (a server shutting
    /// down wakes its `/watch` streams this way).
    pub fn wake_waiters(&self) {
        self.shared.published.notify_all();
    }

    /// Apply one delta batch and publish the new epoch. Returns the new
    /// version stamp. Serializes with other writers (the single-writer
    /// discipline is a mutex, so "single writer" means "writes are
    /// serialized", not "only one thread may ever write").
    pub fn apply(&self, batch: &DeltaBatch) -> u64 {
        self.with_writer(|db| db.apply(batch))
    }

    /// Run `f` against a writable copy of the current epoch, then publish
    /// that copy as the new epoch if its version moved (out-of-band
    /// mutations included — the published buffer carries the invalidated
    /// log, and views rebuild exactly as they would against a single
    /// mutating database). If the version did not move nothing is
    /// published and the copy, with whatever `f` did to it, is what the
    /// next write starts from. If `f` panics the copy is discarded and
    /// the store is unchanged.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut ProbDb) -> R) -> R {
        let mut spare = lock_recovering(&self.shared.spare);
        let start = Instant::now();
        let published = self.snapshot();
        let (mut buf, recycled) = take_writable(spare.take(), &published);
        let obtained = start.elapsed();
        let out = f(&mut buf);
        if buf.version() == published.version() {
            *spare = Some(Arc::new(buf));
            return out;
        }
        let start = Instant::now();
        let snap = Arc::new(buf);
        let previous = {
            let mut cell = self.cell();
            cell.1 += 1;
            std::mem::replace(&mut cell.0, snap)
        };
        self.shared.published.notify_all();
        *spare = Some(previous);
        let counter = if recycled {
            &self.shared.recycled
        } else {
            &self.shared.cloned
        };
        counter.fetch_add(1, SeqCst);
        self.shared
            .publish_ns
            .store((obtained + start.elapsed()).as_nanos() as u64, SeqCst);
        out
    }

    fn cell(&self) -> MutexGuard<'_, (Arc<ProbDb>, u64)> {
        lock_recovering(&self.shared.cell)
    }
}

/// The buffer the next write mutates, and whether it was recycled: the
/// spare — if no reader holds it any more — caught up to `published` by
/// log replay, else a clone.
fn take_writable(spare: Option<Arc<ProbDb>>, published: &ProbDb) -> (ProbDb, bool) {
    // Still held by a reader: let go of it — the last holder frees it —
    // and clone.
    if let Some(mut spare) = spare.and_then(|s| Arc::try_unwrap(s).ok()) {
        if spare.version() == published.version() || spare.replay_from(published) {
            return (spare, true);
        }
    }
    (published.clone(), false)
}

/// Lock `m`, recovering the guard if a panic poisoned it: the state under
/// both of the store's mutexes is valid at every step (see "Panics in the
/// writer's closure" in the module docs).
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reader's handle on the store. [`ReaderHandle::snapshot`] is
/// [`EpochStore::snapshot`]; the handle holds no state of its own.
pub struct ReaderHandle {
    store: EpochStore,
}

impl ReaderHandle {
    /// Acquire the current epoch (see [`EpochStore::snapshot`]).
    pub fn snapshot(&mut self) -> Arc<ProbDb> {
        self.store.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{Value, Vocabulary};
    use std::sync::mpsc;

    fn seed_db() -> (ProbDb, cq::RelId) {
        let mut voc = Vocabulary::new();
        let r = voc.relation("R", 1).unwrap();
        let mut db = ProbDb::new(voc);
        let mut batch = DeltaBatch::new();
        for i in 0..8u64 {
            batch.insert(r, vec![Value(i)], 0.5);
        }
        db.apply(&batch);
        (db, r)
    }

    #[test]
    fn snapshots_track_published_epochs() {
        let (db, r) = seed_db();
        let v0 = db.version();
        let store = EpochStore::new(db);
        let mut reader = store.reader();
        let snap = reader.snapshot();
        assert_eq!(snap.version(), v0);
        assert_eq!(store.version(), v0);
        assert_eq!(store.epoch(), 1);

        let mut batch = DeltaBatch::new();
        batch.update(r, vec![Value(0)], 0.9);
        let v1 = store.apply(&batch);
        assert_eq!(v1, v0 + 1);
        assert_eq!(store.epoch(), 2);
        assert!(store.last_publish_ns() > 0);
        // The held snapshot is immutable; a fresh acquisition sees v1.
        assert_eq!(snap.version(), v0);
        assert_eq!(snap.prob_of(r, &[Value(0)]), 0.5);
        let snap2 = reader.snapshot();
        assert_eq!(snap2.version(), v1);
        assert_eq!(snap2.prob_of(r, &[Value(0)]), 0.9);
    }

    #[test]
    fn no_publish_without_a_version_change() {
        let (db, r) = seed_db();
        let store = EpochStore::new(db);
        let before = store.epoch();
        // Applying a batch always bumps the version (ProbDb::apply logs
        // even empty change lists), but with_writer on a no-op closure
        // must not publish.
        store.with_writer(|_db| ());
        assert_eq!(store.epoch(), before);
        let mut batch = DeltaBatch::new();
        batch.update(r, vec![Value(0)], 0.7);
        store.apply(&batch);
        assert_eq!(store.epoch(), before + 1);
    }

    #[test]
    fn readers_never_wait_for_a_write_in_progress() {
        let (db, r) = seed_db();
        let v0 = db.version();
        let store = EpochStore::new(db);
        let mut readers: Vec<ReaderHandle> = (0..128).map(|_| store.reader()).collect();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let seen = std::thread::scope(|scope| {
            scope.spawn(move || {
                // Acquire only once the write below is under way.
                entered_rx.recv().unwrap();
                let versions: Vec<u64> =
                    readers.iter_mut().map(|h| h.snapshot().version()).collect();
                let _ = done_tx.send(versions);
            });
            store.with_writer(|db| {
                entered_tx.send(()).unwrap();
                // Hold the write open until every reader has acquired; the
                // bound makes a reader that waits for it fail, not hang.
                let seen = done_rx.recv_timeout(Duration::from_secs(10));
                db.apply(&update0(r, 0.9));
                seen
            })
        });
        let seen = seen.expect("a reader waited for the write in progress");
        assert_eq!(
            seen,
            vec![v0; 128],
            "readers saw the epoch before the write"
        );
        assert_eq!(store.version(), v0 + 1);
    }

    #[test]
    fn wait_newer_returns_on_a_publish_a_wake_or_its_timeout() {
        let (db, r) = seed_db();
        let v0 = db.version();
        let store = EpochStore::new(db);
        let quiet = store.wait_newer(v0, Duration::from_millis(20));
        assert_eq!(quiet.version(), v0, "nothing published: the current epoch");
        // `wake_waiters` ends a wait long before its timeout. Keep waking
        // until the waiter is back, so it cannot sleep through the call.
        let start = Instant::now();
        let woken = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| store.wait_newer(v0, Duration::from_secs(60)));
            while !waiter.is_finished() {
                store.wake_waiters();
                std::thread::yield_now();
            }
            waiter.join().unwrap()
        });
        assert_eq!(woken.version(), v0);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "slept through the wake"
        );
        let woken = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let start = Instant::now();
                loop {
                    let snap = store.wait_newer(v0, Duration::from_secs(10));
                    if snap.version() > v0 || start.elapsed() > Duration::from_secs(10) {
                        return snap;
                    }
                }
            });
            store.apply(&update0(r, 0.9));
            watcher.join().unwrap()
        });
        assert_eq!(woken.version(), v0 + 1);
        assert_eq!(woken.prob_of(r, &[Value(0)]), 0.9);
    }

    #[test]
    fn out_of_band_writer_mutations_publish_too() {
        let (db, r) = seed_db();
        let store = EpochStore::new(db);
        let mut reader = store.reader();
        store.with_writer(|db| {
            db.insert(r, vec![Value(99)], 0.25);
        });
        let snap = reader.snapshot();
        assert_eq!(snap.prob_of(r, &[Value(99)]), 0.25);
        // The out-of-band insert invalidated the log; the published epoch
        // carries that invalidation so views rebuild rather than replay.
        assert_eq!(snap.delta_log_start(), snap.version());
        // The retired epoch cannot be replayed across that gap: the next
        // write clones, and readers still see every change.
        let mut batch = DeltaBatch::new();
        batch.update(r, vec![Value(0)], 0.75);
        store.apply(&batch);
        assert_eq!(store.publish_counts().cloned, 2);
        let snap = reader.snapshot();
        assert_eq!(snap.prob_of(r, &[Value(99)]), 0.25);
        assert_eq!(snap.prob_of(r, &[Value(0)]), 0.75);
    }

    fn prob_bits(db: &ProbDb) -> Vec<u64> {
        db.probs().iter().map(|p| p.to_bits()).collect()
    }

    fn update0(r: cq::RelId, prob: f64) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        batch.update(r, vec![Value(0)], prob);
        batch
    }

    #[test]
    fn sequential_writer_recycles_and_a_held_epoch_forces_one_clone() {
        let (db, r) = seed_db();
        let store = EpochStore::new(db);
        let mut reader = store.reader();
        // Nothing retired yet: the first write clones. From then on the
        // two buffers leapfrog.
        for i in 1..=6u64 {
            store.apply(&update0(r, i as f64 / 100.0));
            let counts = store.publish_counts();
            assert_eq!(counts.recycled + counts.cloned, i);
            assert_eq!(counts.cloned, 1, "publish {i}: {counts:?}");
            assert_eq!(reader.snapshot().prob_of(r, &[Value(0)]), i as f64 / 100.0);
        }

        // Hold the current epoch across two publishes: it retires at the
        // first and is still not ours alone when the second starts, so
        // that write has no usable spare and clones — once.
        let before = store.publish_counts();
        let held = reader.snapshot();
        let held_version = held.version();
        let held_bits = prob_bits(&held);
        for i in 0..4u64 {
            store.apply(&update0(r, 0.5 + i as f64 / 100.0));
        }
        let after = store.publish_counts();
        assert_eq!(after.cloned, before.cloned + 1, "one clone while held");
        assert_eq!(after.recycled, before.recycled + 3);
        assert_eq!(held.version(), held_version);
        assert_eq!(prob_bits(&held), held_bits, "held epoch mutated");
        drop(held);

        // Released: recycling carries on.
        for i in 0..4u64 {
            store.apply(&update0(r, 0.7 + i as f64 / 100.0));
        }
        assert_eq!(store.publish_counts().cloned, after.cloned);
        assert_eq!(reader.snapshot().prob_of(r, &[Value(0)]), 0.73);
    }

    #[test]
    fn a_read_in_flight_at_retirement_has_until_the_next_write() {
        let (db, r) = seed_db();
        let store = EpochStore::new(db);
        let mut reader = store.reader();
        store.apply(&update0(r, 0.1));
        store.apply(&update0(r, 0.2));
        let before = store.publish_counts();
        // Every epoch is still being read when it retires, and let go
        // before the write after that: the normal overlap of reads and
        // writes on a busy server. No write clones.
        for i in 0..6u64 {
            let held = reader.snapshot();
            let bits = prob_bits(&held);
            store.apply(&update0(r, 0.3 + i as f64 / 100.0));
            assert_eq!(prob_bits(&held), bits, "held epoch mutated");
        }
        let after = store.publish_counts();
        assert_eq!(after.cloned, before.cloned);
        assert_eq!(after.recycled, before.recycled + 6);
        assert_eq!(reader.snapshot().prob_of(r, &[Value(0)]), 0.35);
    }

    #[test]
    fn a_panicking_writer_closure_leaves_the_store_serving() {
        let (db, r) = seed_db();
        let store = EpochStore::new(db);
        let mut reader = store.reader();
        store.apply(&update0(r, 0.25));
        store.apply(&update0(r, 0.5)); // a spare exists: the panic eats it
        let before = reader.snapshot();
        let bits = prob_bits(&before);
        let epoch = store.epoch();

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.with_writer(|db| {
                // Half a batch, then the rest goes wrong.
                db.apply(&update0(r, 0.99));
                db.insert(r, vec![Value(77)], 0.5);
                panic!("writer closure failed midway");
            })
        }));
        assert!(unwound.is_err());

        // Nothing was published and nothing readers can see moved.
        assert_eq!(store.epoch(), epoch);
        assert_eq!(store.version(), before.version());
        let now = reader.snapshot();
        assert!(Arc::ptr_eq(&now, &before));
        assert_eq!(prob_bits(&now), bits);
        assert_eq!(store.snapshot().version(), before.version());

        // The poisoned mutex is recovered: the next write publishes, from
        // the published state — none of the abandoned half-batch.
        let v = store.apply(&update0(r, 0.125));
        assert_eq!(v, before.version() + 1);
        assert_eq!(store.epoch(), epoch + 1);
        let snap = reader.snapshot();
        assert_eq!(snap.prob_of(r, &[Value(0)]), 0.125);
        assert_eq!(snap.prob_of(r, &[Value(77)]), 0.0);
        assert_eq!(snap.num_tuples(), before.num_tuples());
    }

    #[test]
    fn a_closure_that_publishes_nothing_keeps_its_buffer_for_the_next_write() {
        let (db, r) = seed_db();
        let store = EpochStore::new(db);
        let epoch = store.epoch();
        // A vocabulary change bumps no version: nothing is published…
        store.with_writer(|db| {
            db.voc.relation("Late", 1).unwrap();
        });
        assert_eq!(store.epoch(), epoch);
        assert!(store.snapshot().voc.find_relation("Late").is_none());
        // …but the next write starts from that buffer and publishes it.
        store.apply(&update0(r, 0.9));
        assert!(store.snapshot().voc.find_relation("Late").is_some());
        // And the buffer recycled after it catches the vocabulary up.
        store.apply(&update0(r, 0.8));
        let snap = store.snapshot();
        assert!(snap.voc.find_relation("Late").is_some());
        assert_eq!(snap.prob_of(r, &[Value(0)]), 0.8);
    }
}
