//! Epoch-snapshot concurrency over [`ProbDb`]: many wait-free readers,
//! one publishing writer, two long-lived copies of the database.
//!
//! The `&mut ProbDb` discipline used everywhere else in the workspace
//! structurally forbids concurrent readers during a mutation. The
//! [`EpochStore`] lifts that restriction for the serving layer:
//!
//! * **Readers** evaluate against immutable `Arc<ProbDb>` snapshots. A
//!   registered [`ReaderHandle`] acquires the current snapshot with three
//!   atomic operations and no locks — acquisition is wait-free, and a
//!   reader never blocks on (or is blocked by) an in-flight writer.
//! * **The writer** owns no private copy. To write it takes the *spare* —
//!   the one retired epoch it kept, if by now nobody else holds it — and
//!   catches it up to the published epoch by replaying the published
//!   epoch's own delta log ([`ProbDb::replay_from`], O(delta)); runs the
//!   caller's closure on it; and publishes that buffer: swap the snapshot
//!   pointer, retire the previous epoch, which becomes the next spare
//!   once no acquisition can reach it. The two buffers leapfrog, so a
//!   write costs what its delta costs, twice — not a copy of the
//!   database. Whenever there is no usable spare (the first write, or a
//!   reader still holds the retired epoch when the next write starts) or
//!   the log cannot bridge the gap ([`crate::MAX_DELTA_LOG`] overflow,
//!   an out-of-band `insert`/`delete`, a layout change), the same path
//!   starts from `(*published).clone()` instead — O(database), never
//!   wrong. [`EpochStore::publish_counts`] says how often each happened.
//!   The PR-5 version stamps double as the epoch tokens — every published
//!   snapshot carries the version its content reflects and the delta log
//!   up to it, so incremental views refresh across epochs exactly as they
//!   do against a single mutating database.
//!
//! # Invariants (the epoch discipline)
//!
//! 1. **Published epochs are immutable.** The writer never mutates a
//!    snapshot a reader can reach or holds; readers can hold an epoch
//!    arbitrarily long and observe bit-for-bit stable content.
//! 2. **Versions are monotone.** Successive snapshots acquired by one
//!    reader carry non-decreasing version stamps (the pointer only ever
//!    advances).
//! 3. **No torn reads.** A reader observes exactly the content of *some*
//!    published epoch — never a mix of two epochs, never a half-applied
//!    batch (the property test in `tests/epoch_snapshots.rs` races
//!    readers against a writer to pin this).
//! 4. **Readers never block the writer; the writer never blocks
//!    readers.** Publication is a pointer swap; reclamation is deferred
//!    until no in-flight acquisition can still reach the retired epoch.
//!
//! # How reclamation works
//!
//! Lock-free snapshot acquisition from a raw pointer needs a guarantee
//! that the pointee is alive between the pointer load and the refcount
//! increment. With no crates.io (`arc-swap`, `crossbeam`) available, the
//! store hand-rolls a bounded epoch-based scheme: each registered reader
//! owns an *announcement slot*. Acquisition announces the observed
//! publication epoch, then loads the pointer; the writer swaps the
//! pointer **before** bumping the publication epoch, retires the old
//! `Arc` tagged with the post-bump epoch, and only reclaims a retired
//! epoch once every active announcement is at least as new as its
//! retirement tag. SeqCst ordering on the four operations makes the
//! argument a total-order one: if a reader's load returned the retired
//! pointer, its announcement preceded the writer's swap — and therefore
//! carries an epoch strictly below the retirement tag, which keeps the
//! `Arc` alive until the reader's own refcount increment lands and the
//! slot clears.
//!
//! Slots are a fixed array of [`MAX_READERS`]; readers registered past
//! that fall back to a lock-based acquisition (clone the published `Arc`
//! under the writer mutex) — still correct, just not wait-free.
//!
//! # Why recycling a retired epoch is safe
//!
//! Reclaiming used to mean dropping the writer's reference; now the
//! writer keeps one reclaimed epoch as the spare and, when the next write
//! starts, calls `Arc::try_unwrap` on it. Both happen after the rule
//! above has established that no acquisition in flight can still reach
//! the epoch (and none can start: the pointer readers load has moved on),
//! so the only parties that can touch it are holders of an `Arc` already
//! counted in its strong count. `try_unwrap` succeeds only when that
//! count is one (ours): the value moves out and is mutated as a plain
//! owned `ProbDb`. If a reader still holds the epoch, `try_unwrap` fails,
//! the writer's reference is dropped exactly as before, and the reader's
//! copy stays immutable until it lets go. Recycling therefore writes to
//! memory only where freeing it was already legal. The check is made at
//! the last moment on purpose: a read in flight when its epoch retires —
//! the normal state of a busy server — has until the next write to
//! finish, so whether a write replays or clones does not hang on where
//! the publish instant fell among the reads. A recycled buffer keeps its
//! [`ProbDb::uid`] while its version advances; it is never published
//! twice at one version, so `(uid, version)` still names one content
//! state.
//!
//! # Panics in the writer's closure
//!
//! The closure runs on a buffer local to [`EpochStore::with_writer`]. If
//! it unwinds, the buffer is dropped with whatever half-applied state it
//! had, and neither the published epoch nor the retired list was touched:
//! the bookkeeping under the writer mutex is valid at every step, so later
//! lockers recover the guard from the poisoned mutex and carry on (the
//! next write simply starts from a clone).

use crate::database::ProbDb;
use crate::delta::DeltaBatch;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Wait-free reader slots per store; readers registered past this use the
/// lock-based fallback path.
pub const MAX_READERS: usize = 64;

struct WriterInner {
    /// The `Arc` behind `Shared::current` — keeps the current epoch alive.
    published: Arc<ProbDb>,
    /// Former epochs awaiting reclamation, tagged with the publication
    /// epoch at which they were retired.
    retired: Vec<(u64, Arc<ProbDb>)>,
    /// The next write's buffer, if it is ours alone by then: a reclaimed
    /// epoch (at an older version than `published`; a reader that
    /// acquired it before it retired may still hold it), or the buffer of
    /// a closure that published nothing (at `published`'s version,
    /// possibly carrying a versionless change such as a grown vocabulary).
    spare: Option<Arc<ProbDb>>,
}

impl WriterInner {
    /// The buffer the next write mutates, and whether it was recycled:
    /// the spare — if no reader holds it any more — caught up to
    /// `published` by log replay, else a clone.
    fn take_writable(&mut self) -> (ProbDb, bool) {
        // Still held by a reader: let go of it — the last holder frees
        // it — and clone.
        let ours = self.spare.take().and_then(|s| Arc::try_unwrap(s).ok());
        if let Some(mut spare) = ours {
            if spare.version() == self.published.version() || spare.replay_from(&self.published) {
                return (spare, true);
            }
        }
        ((*self.published).clone(), false)
    }
}

struct Shared {
    /// Data pointer of `WriterInner::published`: the current epoch.
    current: AtomicPtr<ProbDb>,
    /// Publication counter, bumped (after the pointer swap) on every
    /// publish.
    epoch: AtomicU64,
    /// Version stamp of the current epoch, mirrored for lock-free reads.
    version: AtomicU64,
    /// Reader announcement slots: 0 = idle, `e + 1` = acquiring after
    /// observing publication epoch `e`.
    slots: [AtomicU64; MAX_READERS],
    /// Next slot to hand out.
    registered: AtomicUsize,
    /// Nanoseconds the last publication spent obtaining its buffer and
    /// swapping it in (the snapshot-publication latency the serve bench
    /// reports).
    publish_ns: AtomicU64,
    /// Publications whose buffer was the recycled spare / a fresh clone.
    recycled: AtomicU64,
    cloned: AtomicU64,
    writer: Mutex<WriterInner>,
}

/// How many publications started from each kind of buffer (see
/// [`EpochStore::publish_counts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishCounts {
    /// The retired epoch, caught up by delta-log replay: O(delta).
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
        let published = Arc::new(db);
        let shared = Shared {
            current: AtomicPtr::new(Arc::as_ptr(&published) as *mut ProbDb),
            epoch: AtomicU64::new(1),
            version: AtomicU64::new(published.version()),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
            registered: AtomicUsize::new(0),
            publish_ns: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            cloned: AtomicU64::new(0),
            writer: Mutex::new(WriterInner {
                published,
                retired: Vec::new(),
                spare: None,
            }),
        };
        EpochStore {
            shared: Arc::new(shared),
        }
    }

    /// Register a reader. The first [`MAX_READERS`] registrations get a
    /// wait-free announcement slot; later ones fall back to lock-based
    /// acquisition. One handle per thread — the slot protocol is
    /// single-owner, which `snapshot(&mut self)` enforces.
    pub fn reader(&self) -> ReaderHandle {
        let idx = self.shared.registered.fetch_add(1, SeqCst);
        ReaderHandle {
            shared: Arc::clone(&self.shared),
            slot: (idx < MAX_READERS).then_some(idx),
        }
    }

    /// The version stamp of the current epoch.
    pub fn version(&self) -> u64 {
        self.shared.version.load(SeqCst)
    }

    /// The publication counter (1 after construction, +1 per publish).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(SeqCst)
    }

    /// Nanoseconds the most recent publication spent obtaining its
    /// writable buffer (replay or clone) and swapping it in — not the
    /// caller's closure (0 before the first publish).
    pub fn last_publish_ns(&self) -> u64 {
        self.shared.publish_ns.load(SeqCst)
    }

    /// Publications so far by the buffer they started from. `cloned`
    /// counts the O(database) slow case: the first write, a reader still
    /// holding the retired epoch when the next write starts, or a gap the
    /// delta log cannot bridge.
    /// (A buffer kept from a closure that published nothing counts as
    /// recycled when a later write publishes it.)
    pub fn publish_counts(&self) -> PublishCounts {
        PublishCounts {
            recycled: self.shared.recycled.load(SeqCst),
            cloned: self.shared.cloned.load(SeqCst),
        }
    }

    /// Lock-based snapshot of the current epoch — for casual readers
    /// (stats endpoints, tests) that don't hold a [`ReaderHandle`].
    pub fn snapshot(&self) -> Arc<ProbDb> {
        Arc::clone(&self.lock_writer().published)
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
        let mut w = self.lock_writer();
        let start = Instant::now();
        let (mut buf, recycled) = w.take_writable();
        let obtained = start.elapsed();
        let out = f(&mut buf);
        if buf.version() == w.published.version() {
            w.spare = Some(Arc::new(buf));
        } else {
            self.publish_locked(&mut w, buf, recycled, obtained);
        }
        out
    }

    /// Epochs retired but not yet reclaimed (observability; bounded by
    /// in-flight reader acquisitions, which are a few instructions long).
    /// The spare is reclaimed, not awaiting reclamation: not counted.
    pub fn retired_epochs(&self) -> usize {
        self.lock_writer().retired.len()
    }

    fn lock_writer(&self) -> MutexGuard<'_, WriterInner> {
        lock_recovering(&self.shared.writer)
    }

    /// Swap the snapshot pointer to `buf`, retire the previous epoch, and
    /// reclaim every retired epoch no in-flight acquisition can still
    /// reach — the first one becomes the spare. Caller holds the writer
    /// lock and has taken the spare.
    fn publish_locked(&self, w: &mut WriterInner, buf: ProbDb, recycled: bool, obtained: Duration) {
        let start = Instant::now();
        let snap = Arc::new(buf);
        // Order matters (see module docs): swap the pointer first, *then*
        // bump the publication epoch the retirement tag is drawn from.
        self.shared
            .current
            .store(Arc::as_ptr(&snap) as *mut ProbDb, SeqCst);
        let tag = self.shared.epoch.fetch_add(1, SeqCst) + 1;
        self.shared.version.store(snap.version(), SeqCst);
        let old = std::mem::replace(&mut w.published, snap);
        w.retired.push((tag, old));
        let slots = &self.shared.slots;
        let mut i = 0;
        while i < w.retired.len() {
            // Keep while any active announcement predates the retirement:
            // that reader may still be between its pointer load and its
            // refcount increment.
            let retired_at = w.retired[i].0;
            let reachable = slots.iter().any(|s| {
                let v = s.load(SeqCst);
                v != 0 && v - 1 < retired_at
            });
            if reachable {
                i += 1;
                continue;
            }
            // Keep one for the next write (which checks that no reader
            // holds it by then); let go of the rest.
            let (_, epoch) = w.retired.swap_remove(i);
            w.spare.get_or_insert(epoch);
        }
        let counter = if recycled {
            &self.shared.recycled
        } else {
            &self.shared.cloned
        };
        counter.fetch_add(1, SeqCst);
        self.shared
            .publish_ns
            .store((obtained + start.elapsed()).as_nanos() as u64, SeqCst);
    }
}

/// Lock the writer mutex, recovering the guard if a writer closure
/// panicked under it: `WriterInner` is valid at every step (see "Panics
/// in the writer's closure" in the module docs).
fn lock_recovering(writer: &Mutex<WriterInner>) -> MutexGuard<'_, WriterInner> {
    writer.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A registered reader: acquires the current epoch wait-free (or through
/// the lock-based fallback when the slot array was exhausted).
pub struct ReaderHandle {
    shared: Arc<Shared>,
    slot: Option<usize>,
}

impl ReaderHandle {
    /// Acquire the current epoch. Wait-free for slotted readers: announce
    /// the observed publication epoch, load the pointer, take a refcount,
    /// clear the announcement — no locks, no retries, never blocked by a
    /// concurrent [`EpochStore::apply`].
    pub fn snapshot(&mut self) -> Arc<ProbDb> {
        let Some(idx) = self.slot else {
            return Arc::clone(&lock_recovering(&self.shared.writer).published);
        };
        let slot = &self.shared.slots[idx];
        let announce = self.shared.epoch.load(SeqCst);
        slot.store(announce + 1, SeqCst);
        let ptr = self.shared.current.load(SeqCst);
        // SAFETY: `ptr` is the data pointer of an `Arc` the writer
        // retains (`published`, or a retired entry). If this load
        // returned a pointer the writer has since retired, our
        // announcement — stored before the load, SeqCst — precedes the
        // writer's swap in the total order and carries an epoch below the
        // retirement tag, so the reclamation rule in `publish_locked`
        // keeps the `Arc` in the retired list — neither dropped nor made
        // the spare — until the increment below lands and the slot
        // clears; from then on our own count keeps the writer's
        // `try_unwrap` from succeeding.
        let snap = unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr as *const ProbDb)
        };
        slot.store(0, SeqCst);
        snap
    }

    /// Did this handle get a wait-free announcement slot?
    pub fn is_wait_free(&self) -> bool {
        self.slot.is_some()
    }

    /// The version stamp of the current epoch (no acquisition).
    pub fn version(&self) -> u64 {
        self.shared.version.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::{Value, Vocabulary};

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
        assert!(reader.is_wait_free());
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
    fn retired_epochs_are_reclaimed_when_no_reader_is_acquiring() {
        let (db, r) = seed_db();
        let store = EpochStore::new(db);
        let mut reader = store.reader();
        // Hold a snapshot across many publishes: holding an acquired Arc
        // does not pin the retired list (only in-flight acquisitions do).
        let held = reader.snapshot();
        for i in 0..20u64 {
            let mut batch = DeltaBatch::new();
            batch.update(r, vec![Value(0)], 0.01 + (i as f64) * 0.01);
            store.apply(&batch);
        }
        assert_eq!(
            store.retired_epochs(),
            0,
            "no in-flight acquisition: every retired epoch reclaimed"
        );
        assert_eq!(held.prob_of(r, &[Value(1)]), 0.5, "held epoch stable");
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
    fn readers_past_the_slot_array_fall_back_to_locking() {
        let (db, _r) = seed_db();
        let v = db.version();
        let store = EpochStore::new(db);
        let mut handles: Vec<ReaderHandle> = (0..MAX_READERS + 2).map(|_| store.reader()).collect();
        assert!(handles[0].is_wait_free());
        assert!(!handles[MAX_READERS].is_wait_free());
        assert_eq!(handles[MAX_READERS + 1].snapshot().version(), v);
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
        db.tuples().iter().map(|t| t.prob.to_bits()).collect()
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
        assert_eq!(store.retired_epochs(), 0);

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
