//! # Operator-DAG task scheduling
//!
//! [`run_dag`] executes a dependency DAG of tasks on scoped worker
//! threads: every task is a node, `deps[t]` lists the tasks whose results
//! `t` consumes, and any set of mutually independent tasks (e.g. the two
//! input subtrees of a join) runs **concurrently**. This is the
//! plan-level complement to the morsel pool in the crate root: the pool
//! parallelizes *inside* one operator, the DAG overlaps *different*
//! operators — a task may itself fan morsels out on a nested [`Pool`](crate::Pool)
//! dispatch (scoped threads are spawned per dispatch, so nesting is
//! safe).
//!
//! ## Scheduling model
//!
//! * A task becomes **ready** when all its dependencies have completed;
//!   ready tasks sit in a queue in the order they became ready.
//! * Workers (scoped threads; worker 0 is the calling thread) claim one
//!   ready task at a time under a mutex and park on a condvar while the
//!   queue is empty. Which ready task a worker claims is decided by a
//!   **picker** — [`run_dag`] takes the newest, and
//!   [`run_dag_with_picker`] injects any other policy. The torn-schedule
//!   property tests exploit this hook: a seeded random picker permutes
//!   completion order arbitrarily and asserts results never change.
//! * Every task writes its result into a **pre-assigned slot**
//!   (`OnceLock` per task), so downstream tasks read dependency outputs
//!   by index and the caller gets results back in task order — the
//!   schedule is nondeterministic, the output placement is not.
//!
//! ## Determinism contract
//!
//! The scheduler guarantees a task only starts after all of `deps[t]`
//! completed, and that `work(t, slots)` sees exactly those results. As
//! long as `work` is a pure function of its task id and dependency
//! results (the executors built on top guarantee bit-for-bit output per
//! task), the returned `Vec` is identical for every thread count and
//! every picker.
//!
//! [`DagStats`] reports how much the schedule actually overlapped:
//! peak ready-queue depth, peak tasks running at once, and the wall time
//! during which ≥ 2 tasks ran concurrently (`overlap`).

use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// What one DAG execution's schedule looked like.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DagStats {
    /// Tasks in the DAG.
    pub tasks: u64,
    /// Single-child operators the decomposer fused into their child task
    /// instead of scheduling separately (the scheduler never sees them;
    /// the caller that did the fusing records the count here).
    pub inlined: u64,
    /// Peak depth of the ready queue (tasks runnable but unclaimed).
    pub max_ready: u64,
    /// Peak number of tasks running at the same time.
    pub max_running: u64,
    /// Wall time during which at least two tasks ran concurrently — the
    /// subtree-overlap the scheduler bought (0 on a serial schedule).
    pub overlap: Duration,
}

/// Read-only view of the completed task slots, handed to each task's work
/// function so it can fetch its dependencies' results by task index.
pub struct DagSlots<'a, T> {
    slots: &'a [OnceLock<T>],
}

impl<'a, T> DagSlots<'a, T> {
    /// The result of `task`.
    ///
    /// # Panics
    /// If `task` has not completed — i.e. it was not listed in the
    /// current task's dependencies.
    pub fn get(&self, task: usize) -> &'a T {
        self.slots[task]
            .get()
            .expect("task read a result it did not declare as a dependency")
    }
}

/// Mutable scheduler state shared by the workers.
struct Sched {
    ready: Vec<usize>,
    /// Unmet dependency count per task.
    remaining: Vec<usize>,
    running: usize,
    completed: usize,
    stats: DagStats,
    /// When the running count last crossed up through 2.
    overlap_since: Option<Instant>,
}

impl Sched {
    fn note_ready_depth(&mut self) {
        self.stats.max_ready = self.stats.max_ready.max(self.ready.len() as u64);
    }

    /// Record `t` as completed and queue every dependent it unblocked.
    fn complete(&mut self, t: usize, dependents: &Dependents) {
        self.completed += 1;
        for &d in dependents.of(t) {
            self.remaining[d] -= 1;
            if self.remaining[d] == 0 {
                self.ready.push(d);
            }
        }
        self.note_ready_depth();
    }
}

/// The reverse of `deps`, in two flat vectors: the tasks consuming `d`
/// are `ids[first[d]..first[d + 1]]`, ascending.
struct Dependents {
    first: Vec<usize>,
    ids: Vec<usize>,
}

impl Dependents {
    /// # Panics
    /// If some dependency index is `>=` its task's index.
    fn new(deps: &[Vec<usize>]) -> Self {
        let n = deps.len();
        let mut first = vec![0usize; n + 1];
        for (t, ds) in deps.iter().enumerate() {
            for &d in ds {
                assert!(d < t, "dependency {d} of task {t} must precede it");
                first[d] += 1;
            }
        }
        // Running totals put each block's end in `first[d]`; filling every
        // block back to front from there leaves `first[d]` at its start.
        for d in 1..=n {
            first[d] += first[d - 1];
        }
        let mut ids = vec![0usize; first[n]];
        for (t, ds) in deps.iter().enumerate().rev() {
            for &d in ds {
                first[d] -= 1;
                ids[first[d]] = t;
            }
        }
        Dependents { first, ids }
    }

    fn of(&self, d: usize) -> &[usize] {
        &self.ids[self.first[d]..self.first[d + 1]]
    }
}

/// Run the task DAG described by `deps` on up to `threads` workers and
/// return every task's result, in task order. `deps[t]` must only name
/// tasks with index `< t` (children first — a topological order by
/// construction, which also rules out cycles).
///
/// Ready tasks are claimed newest-first; use [`run_dag_with_picker`] to
/// inject a different claim policy.
///
/// # Panics
/// If some dependency index is `>= ` its task's index.
pub fn run_dag<T, F>(threads: usize, deps: &[Vec<usize>], work: F) -> (Vec<T>, DagStats)
where
    T: Send + Sync,
    F: Fn(usize, DagSlots<'_, T>) -> T + Sync,
{
    run_dag_with_picker(threads, deps, |ready| ready.len() - 1, work)
}

/// [`run_dag`] with an injectable **picker**: given the current ready
/// queue (task ids in the order they became ready), return the index of
/// the entry to claim next. The picker runs under the scheduler lock and
/// may be stateful behind interior mutability; out-of-range picks are
/// clamped. Results are identical for every picker — the hook exists so
/// tests can randomize completion order and pin exactly that property.
pub fn run_dag_with_picker<T, F, P>(
    threads: usize,
    deps: &[Vec<usize>],
    picker: P,
    work: F,
) -> (Vec<T>, DagStats)
where
    T: Send + Sync,
    F: Fn(usize, DagSlots<'_, T>) -> T + Sync,
    P: Fn(&[usize]) -> usize + Sync,
{
    let n = deps.len();
    if n == 0 {
        return (Vec::new(), DagStats::default());
    }
    let dependents = Dependents::new(deps);
    let remaining: Vec<usize> = deps.iter().map(Vec::len).collect();
    let ready: Vec<usize> = (0..n).filter(|&t| remaining[t] == 0).collect();
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let pick = |ready: &[usize]| picker(ready).min(ready.len() - 1);

    let mut s = Sched {
        ready,
        remaining,
        running: 0,
        completed: 0,
        stats: DagStats {
            tasks: n as u64,
            ..DagStats::default()
        },
        overlap_since: None,
    };
    s.note_ready_depth();

    let workers = threads.min(n).max(1);
    let stats = if workers == 1 {
        // Inline serial schedule: same ready queue and picker, no locks.
        // max_running is 1 and no overlap accrues, by construction.
        s.stats.max_running = 1;
        while s.completed < n {
            let chosen = pick(&s.ready);
            let t = s.ready.remove(chosen);
            let out = {
                let _task = telemetry::span_with(|| format!("dag-task {t}"));
                work(t, DagSlots { slots: &slots })
            };
            assert!(slots[t].set(out).is_ok(), "task {t} ran twice");
            s.complete(t, &dependents);
        }
        s.stats
    } else {
        let sched = Mutex::new(s);
        let idle = Condvar::new();
        let worker = || {
            loop {
                let t = {
                    let mut s = sched.lock().expect("dag sched poisoned");
                    loop {
                        if s.completed == n {
                            return;
                        }
                        if !s.ready.is_empty() {
                            break;
                        }
                        s = idle.wait(s).expect("dag sched poisoned");
                    }
                    let chosen = pick(&s.ready);
                    let t = s.ready.remove(chosen);
                    s.running += 1;
                    s.stats.max_running = s.stats.max_running.max(s.running as u64);
                    if s.running == 2 && s.overlap_since.is_none() {
                        s.overlap_since = Some(Instant::now());
                    }
                    t
                };
                let out = {
                    let _task = telemetry::span_with(|| format!("dag-task {t}"));
                    work(t, DagSlots { slots: &slots })
                };
                assert!(slots[t].set(out).is_ok(), "task {t} ran twice");
                let mut s = sched.lock().expect("dag sched poisoned");
                s.running -= 1;
                if s.running <= 1 {
                    if let Some(since) = s.overlap_since.take() {
                        s.stats.overlap += since.elapsed();
                    }
                }
                s.complete(t, &dependents);
                // Wake everyone: new ready tasks, or the all-done signal.
                idle.notify_all();
            }
        };
        std::thread::scope(|scope| {
            // Workers 1.. on spawned scoped threads; worker 0 is the
            // calling thread (same discipline as the morsel pool).
            let handles: Vec<_> = (1..workers)
                .map(|_| {
                    scope.spawn(|| {
                        worker();
                        // Drain this worker's span lane before the scope
                        // joins: TLS destructors may run after the join,
                        // so an exit-time flush could land after the
                        // caller exports the trace.
                        telemetry::flush_thread();
                    })
                })
                .collect();
            worker();
            for h in handles {
                h.join().expect("dag worker panicked");
            }
        });
        sched.into_inner().expect("dag sched poisoned").stats
    };

    let results = slots
        .into_iter()
        .map(|s| s.into_inner().expect("task never completed"))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bushy DAG: four leaves, two mid joins, one root.
    /// 6 depends on (4, 5), 4 on (0, 1), 5 on (2, 3).
    fn bushy_deps() -> Vec<Vec<usize>> {
        vec![
            vec![],
            vec![],
            vec![],
            vec![],
            vec![0, 1],
            vec![2, 3],
            vec![4, 5],
        ]
    }

    fn bushy_work(t: usize, slots: DagSlots<'_, u64>) -> u64 {
        match t {
            0..=3 => (t as u64 + 1) * 10,
            4 => slots.get(0) + slots.get(1),
            5 => slots.get(2) * slots.get(3),
            _ => slots.get(4) * 1000 + slots.get(5),
        }
    }

    #[test]
    fn results_land_in_task_order_at_every_thread_count() {
        let deps = bushy_deps();
        let expected = vec![10, 20, 30, 40, 30, 1200, 31200];
        for threads in [1, 2, 4, 8] {
            let (got, stats) = run_dag(threads, &deps, bushy_work);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(stats.tasks, 7);
            assert!(stats.max_ready >= 4, "{stats:?}");
        }
    }

    /// Satellite: torn-schedule property — a seeded random picker permutes
    /// the completion order arbitrarily; the results never change.
    #[test]
    fn torn_schedules_never_change_results() {
        let deps = bushy_deps();
        let expected = vec![10, 20, 30, 40, 30, 1200, 31200];
        for seed in 0..32u64 {
            for threads in [1, 3] {
                // Tiny xorshift behind a mutex: a stateful, adversarial
                // picker (no rand dependency in this crate).
                let state = Mutex::new(seed.wrapping_mul(2862933555777941757).wrapping_add(3037));
                let picker = |ready: &[usize]| {
                    let mut s = state.lock().unwrap();
                    *s ^= *s << 13;
                    *s ^= *s >> 7;
                    *s ^= *s << 17;
                    (*s as usize) % ready.len()
                };
                let (got, _) = run_dag_with_picker(threads, &deps, picker, bushy_work);
                assert_eq!(got, expected, "seed={seed} threads={threads}");
            }
        }
    }

    #[test]
    fn independent_tasks_overlap() {
        // Two independent sleepers plus a root: with 2 workers both
        // sleepers run at once, so overlap registers and max_running hits 2.
        let deps = vec![vec![], vec![], vec![0, 1]];
        let (got, stats) = run_dag(2, &deps, |t, slots: DagSlots<'_, u64>| match t {
            0 | 1 => {
                std::thread::sleep(Duration::from_millis(20));
                t as u64
            }
            _ => slots.get(0) + slots.get(1),
        });
        assert_eq!(got, vec![0, 1, 1]);
        assert_eq!(stats.max_running, 2, "{stats:?}");
        assert!(stats.overlap > Duration::ZERO, "{stats:?}");
    }

    #[test]
    fn serial_schedule_reports_no_overlap() {
        let (got, stats) = run_dag(1, &bushy_deps(), bushy_work);
        assert_eq!(got[6], 31200);
        assert_eq!(stats.max_running, 1);
        assert_eq!(stats.overlap, Duration::ZERO);
    }

    #[test]
    fn chain_dag_executes_in_dependency_order() {
        let deps: Vec<Vec<usize>> = (0..10)
            .map(|t| if t == 0 { vec![] } else { vec![t - 1] })
            .collect();
        for threads in [1, 4] {
            let (got, stats) = run_dag(threads, &deps, |t, slots: DagSlots<'_, u64>| {
                if t == 0 {
                    1
                } else {
                    slots.get(t - 1) + 1
                }
            });
            assert_eq!(got, (1..=10).collect::<Vec<u64>>(), "threads={threads}");
            // A chain never has two runnable tasks.
            assert_eq!(stats.max_ready, 1);
        }
    }

    #[test]
    fn empty_dag_is_empty() {
        let (got, stats) = run_dag::<u64, _>(4, &[], |_, _| unreachable!());
        assert!(got.is_empty());
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    #[should_panic(expected = "must precede it")]
    fn forward_dependency_is_rejected() {
        let _ = run_dag::<u64, _>(1, &[vec![1], vec![]], |_, _| 0);
    }
}
