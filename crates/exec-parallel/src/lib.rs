//! # exec-parallel — a morsel-driven scoped-thread worker pool
//!
//! The workspace builds offline (no crates.io, hence no rayon), so this
//! crate hand-rolls the one parallel primitive the executors need: fan a
//! batch of *morsels* — small contiguous chunks of an index space — out to
//! a fixed set of scoped worker threads pulling from a shared atomic
//! cursor, and hand the per-morsel results back **in morsel order**, so a
//! caller that stitches them recovers exactly the output a serial
//! left-to-right pass would have produced.
//!
//! Two dispatch shapes cover the operators built on top:
//!
//! * [`Pool::map_morsels`] — divide `0..len` into ranges of `grain`
//!   elements; workers steal ranges until the cursor runs dry. Used for
//!   partitioned scans, join probes, and filters, where each element is
//!   independent.
//! * [`Pool::map_partitions`] — exactly `parts` work items, one per hash
//!   partition; each worker prefers the partitions striped to it
//!   (worker–shard affinity: the same worker tends to revisit the same
//!   shard across dispatches) and steals the rest. Used for group-by
//!   aggregation and per-shard scans, where every row of a partition must
//!   be folded by the same worker (in row order) to keep floating-point
//!   results bit-identical to a one-worker pass.
//!
//! The pool also keeps per-worker [`ThreadStats`] (busy time, morsels,
//! rows) across every dispatch it serves, so an execution can report how
//! the work actually spread over the threads.
//!
//! On top of the morsel pool, the [`dag`] module schedules a **dependency
//! DAG of operator tasks** ([`run_dag`]): independent plan subtrees run
//! concurrently (a join's build and probe inputs overlap), each task may
//! nest morsel dispatches on the pool, results land in pre-assigned
//! per-task slots, and an injectable picker ([`run_dag_with_picker`])
//! lets property tests randomize completion order to pin schedule
//! independence. See the module docs for the scheduling model.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub mod dag;

pub use dag::{run_dag, run_dag_with_picker, DagSlots, DagStats};

/// Default morsel size (elements per work unit). Small enough to balance
/// skewed operators, large enough that the cursor fetch is noise.
pub const DEFAULT_GRAIN: usize = 4096;

/// What one worker thread did over the lifetime of a [`Pool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Wall time spent inside morsel work (not waiting on the cursor).
    pub busy: Duration,
    /// Morsels (or partitions) this worker processed.
    pub morsels: u64,
    /// Elements covered by those morsels.
    pub rows: u64,
}

/// One worker's [`ThreadStats`] as relaxed atomics: a worker adds its
/// totals once per dispatch, and nothing orders against the counters.
#[derive(Debug, Default)]
struct WorkerCounters {
    busy_ns: AtomicU64,
    morsels: AtomicU64,
    rows: AtomicU64,
}

impl WorkerCounters {
    fn absorb(&self, s: &ThreadStats) {
        self.busy_ns
            .fetch_add(s.busy.as_nanos() as u64, Ordering::Relaxed);
        self.morsels.fetch_add(s.morsels, Ordering::Relaxed);
        self.rows.fetch_add(s.rows, Ordering::Relaxed);
    }

    fn load(&self) -> ThreadStats {
        ThreadStats {
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            morsels: self.morsels.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
        }
    }
}

/// Per-thread counters for one parallel execution, in worker order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub per_thread: Vec<ThreadStats>,
}

impl ExecStats {
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    pub fn total_busy(&self) -> Duration {
        self.per_thread.iter().map(|t| t.busy).sum()
    }

    pub fn total_morsels(&self) -> u64 {
        self.per_thread.iter().map(|t| t.morsels).sum()
    }

    pub fn total_rows(&self) -> u64 {
        self.per_thread.iter().map(|t| t.rows).sum()
    }
}

/// A worker pool of fixed width. Creating one is cheap (no threads are
/// kept alive between dispatches — workers are `std::thread::scope`d per
/// call, which keeps every borrow a plain `&T` and needs no channels);
/// what persists is the configuration and the accumulated [`ExecStats`].
#[derive(Debug)]
pub struct Pool {
    threads: usize,
    grain: usize,
    stats: Box<[WorkerCounters]>,
}

impl Pool {
    /// A pool of `threads` workers with the default morsel grain.
    /// `threads` is clamped to at least 1; one thread degenerates to an
    /// inline serial loop (no spawning) whose morsel is the whole range.
    pub fn new(threads: usize) -> Self {
        Self::with_grain(threads, DEFAULT_GRAIN)
    }

    /// A pool with an explicit morsel grain — tests use tiny grains to
    /// force multi-morsel schedules on small inputs.
    pub fn with_grain(threads: usize, grain: usize) -> Self {
        let threads = threads.max(1);
        Pool {
            threads,
            grain: grain.max(1),
            stats: (0..threads).map(|_| WorkerCounters::default()).collect(),
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn grain(&self) -> usize {
        self.grain
    }

    /// The counters accumulated so far, leaving the pool's view intact.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            per_thread: self.stats.iter().map(WorkerCounters::load).collect(),
        }
    }

    /// Apply `work` to every morsel of `0..len` and return the results in
    /// morsel order (morsel `i` covers `i*grain .. min((i+1)*grain, len)`).
    /// A one-worker pool has nobody to balance against, so its single
    /// morsel is the whole range: the caller gets one chunk back, and
    /// stitching one chunk is a move, not a copy.
    ///
    /// Workers pull morsel indices from a shared atomic cursor, so skew in
    /// one morsel does not idle the other workers. Result order is
    /// *independent of the schedule*: stitching the returned chunks in
    /// order reproduces a serial left-to-right pass exactly.
    pub fn map_morsels<T, F>(&self, len: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        let grain = if self.threads == 1 {
            len.max(1)
        } else {
            self.grain
        };
        let morsels = len.div_ceil(grain);
        let ranges = move |i: usize| i * grain..((i + 1) * grain).min(len);
        self.dispatch(morsels, |i| {
            let r = ranges(i);
            let rows = r.len();
            (work(r), rows)
        })
    }

    /// Apply `work` to partition ids `0..parts`, returning results in
    /// partition order. Each partition is handled by exactly one worker.
    ///
    /// Dispatch is **partition-affine**: worker `w` claims the partitions
    /// striped to it (`p % workers == w`) before stealing anything else,
    /// so across repeated dispatches the same worker tends to touch the
    /// same partition — the cache-locality hint the shard-resident data
    /// plane leans on (and the hook NUMA pinning would extend). Stealing
    /// keeps skewed partitions from idling workers, and the results are
    /// re-sorted by partition id, so the affinity is invisible in the
    /// output.
    pub fn map_partitions<T, F>(&self, parts: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.dispatch_affine(parts, |i| (work(i), 1))
    }

    /// The shared engine behind both shapes: `tasks` work items pulled
    /// from an atomic cursor by `min(threads, tasks)` scoped workers.
    /// `work` returns `(result, rows_covered)`.
    fn dispatch<T, F>(&self, tasks: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> (T, usize) + Sync,
    {
        let workers = self.threads.min(tasks);
        if workers <= 1 {
            // Inline serial fast path: same work function, no spawning,
            // and the results are already in item order.
            let mut local = ThreadStats::default();
            let out = (0..tasks)
                .map(|i| timed(&mut local, tasks > 1, || work(i)))
                .collect();
            self.stats[0].absorb(&local);
            return out;
        }
        let cursor = AtomicUsize::new(0);
        let run_worker = |out: &mut Vec<(usize, T)>| -> ThreadStats {
            let mut local = ThreadStats::default();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    return local;
                }
                out.push((i, timed(&mut local, true, || work(i))));
            }
        };
        let mut tagged: Vec<(usize, T)> = Vec::with_capacity(tasks);
        std::thread::scope(|scope| {
            // Workers 1.. run on spawned scoped threads; worker 0 is the
            // calling thread itself, so a 2-thread pool spawns 1.
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        let s = run_worker(&mut out);
                        // Drain this worker's span lane before the scope
                        // joins: TLS destructors may run after the join,
                        // so an exit-time flush could land after the
                        // caller exports the trace.
                        telemetry::flush_thread();
                        (out, s)
                    })
                })
                .collect();
            let own_stats = run_worker(&mut tagged);
            self.stats[0].absorb(&own_stats);
            for (w, h) in handles.into_iter().enumerate() {
                let (out, s) = h.join().expect("pool worker panicked");
                tagged.extend(out);
                self.stats[w + 1].absorb(&s);
            }
        });
        // Restore morsel order: the schedule is nondeterministic, the
        // output must not be.
        tagged.sort_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, t)| t).collect()
    }

    /// [`Pool::dispatch`] with worker–partition **affinity**: instead of a
    /// shared cursor, every partition carries a claim flag and worker `w`
    /// walks its own stripe (`p % workers == w`) first, then sweeps the
    /// rest ascending as a steal pass. Exactly one worker wins each flag,
    /// so coverage and the sorted output are identical to the cursor path
    /// — only the (invisible) work placement changes.
    fn dispatch_affine<T, F>(&self, tasks: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> (T, usize) + Sync,
    {
        let workers = self.threads.min(tasks);
        if workers <= 1 {
            // One worker owns every stripe; the cursor path is identical.
            return self.dispatch(tasks, work);
        }
        let claimed: Vec<AtomicBool> = (0..tasks).map(|_| AtomicBool::new(false)).collect();
        let run_worker = |w: usize, out: &mut Vec<(usize, T)>| -> ThreadStats {
            let mut local = ThreadStats::default();
            let stripe = (0..tasks).filter(|p| p % workers == w);
            let steal = (0..tasks).filter(|p| p % workers != w);
            for p in stripe.chain(steal) {
                if claimed[p].swap(true, Ordering::Relaxed) {
                    continue;
                }
                out.push((p, timed(&mut local, true, || work(p))));
            }
            local
        };
        let mut tagged: Vec<(usize, T)> = Vec::with_capacity(tasks);
        std::thread::scope(|scope| {
            // Same discipline as `dispatch`: workers 1.. on spawned scoped
            // threads, worker 0 is the calling thread.
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let s = run_worker(w, &mut out);
                        telemetry::flush_thread();
                        (out, s)
                    })
                })
                .collect();
            let own_stats = run_worker(0, &mut tagged);
            self.stats[0].absorb(&own_stats);
            for (w, h) in handles.into_iter().enumerate() {
                let (out, s) = h.join().expect("pool worker panicked");
                tagged.extend(out);
                self.stats[w + 1].absorb(&s);
            }
        });
        tagged.sort_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, t)| t).collect()
    }
}

/// Run one work item on the current worker, timed into `local`, under a
/// `morsel` span when `traced`. A dispatch of a single item passes
/// false: its caller's span already covers exactly that work.
fn timed<T>(local: &mut ThreadStats, traced: bool, work: impl FnOnce() -> (T, usize)) -> T {
    let start = Instant::now();
    let (result, rows) = {
        // A single relaxed load when tracing is off. Timing flows out,
        // never back in.
        let _morsel = traced.then(|| telemetry::span("morsel"));
        work()
    };
    local.busy += start.elapsed();
    local.morsels += 1;
    local.rows += rows as u64;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_results_come_back_in_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_grain(threads, 3);
            let got = pool.map_morsels(10, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = got.into_iter().flatten().collect();
            assert_eq!(flat, (0..10).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn morsels_cover_exactly_the_range() {
        let pool = Pool::with_grain(4, 7);
        let chunks = pool.map_morsels(23, |r| r.len());
        assert_eq!(chunks, vec![7, 7, 7, 2]);
        assert_eq!(pool.stats().total_rows(), 23);
        assert_eq!(pool.stats().total_morsels(), 4);
    }

    #[test]
    fn empty_input_dispatches_nothing() {
        let pool = Pool::new(4);
        let got: Vec<u32> = pool.map_morsels(0, |_| unreachable!("no morsels"));
        assert!(got.is_empty());
        assert_eq!(pool.stats().total_morsels(), 0);
    }

    #[test]
    fn partitions_run_once_each_in_order() {
        for threads in [1, 3, 8] {
            let pool = Pool::new(threads);
            let got = pool.map_partitions(5, |p| p * p);
            assert_eq!(got, vec![0, 1, 4, 9, 16], "threads={threads}");
        }
    }

    #[test]
    fn affine_partitions_cover_once_each_under_contention() {
        // Slow partitions force overlap between the stripe walks and the
        // steal sweeps; every partition must still run exactly once and
        // come back in partition order.
        use std::sync::atomic::AtomicU32;
        for threads in [2, 3, 4, 8] {
            let parts = 13;
            let runs: Vec<AtomicU32> = (0..parts).map(|_| AtomicU32::new(0)).collect();
            let pool = Pool::new(threads);
            let got = pool.map_partitions(parts, |p| {
                runs[p].fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
                p * 2
            });
            assert_eq!(got, (0..parts).map(|p| p * 2).collect::<Vec<_>>());
            for (p, r) in runs.iter().enumerate() {
                assert_eq!(
                    r.load(Ordering::Relaxed),
                    1,
                    "partition {p} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn stats_accumulate_across_dispatches() {
        let pool = Pool::with_grain(2, 4);
        pool.map_morsels(8, |r| r.len());
        pool.map_morsels(8, |r| r.len());
        let stats = pool.stats();
        assert_eq!(stats.threads(), 2);
        assert_eq!(stats.total_morsels(), 4);
        assert_eq!(stats.total_rows(), 16);
    }

    #[test]
    fn work_actually_spreads_over_workers() {
        // With many more morsels than threads every worker should pull at
        // least one (each morsel takes long enough that no single worker
        // can drain the queue before the others start).
        let pool = Pool::with_grain(4, 1);
        pool.map_morsels(64, |r| {
            std::thread::sleep(Duration::from_millis(1));
            r.len()
        });
        let stats = pool.stats();
        assert_eq!(stats.total_morsels(), 64);
        assert!(
            stats.per_thread.iter().filter(|t| t.morsels > 0).count() >= 2,
            "expected ≥2 busy workers: {stats:?}"
        );
    }
}
