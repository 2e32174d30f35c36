//! A hand-rolled work-stealing scheduler for resumable tasks.
//!
//! The workspace is std-only, so this is a small deque scheduler built
//! from scratch: one worker thread per shard, one `Mutex` over the whole
//! queue and one `Condvar` idle workers wait on. The queue holds the
//! fresh tasks in submission order, one ready deque per worker, the
//! count of started-but-unfinished tasks and the outcome slots. Tasks
//! are *resumable*: a call to [`Task::run_quantum`] advances the task by
//! one bounded quantum and either yields ([`Quantum::Pending`], put back
//! at the back of the worker's own ready deque) or finishes
//! ([`Quantum::Complete`]). Round-robining the ready deque front while
//! re-enqueueing at the back interleaves every in-flight task, so a
//! long-running task cannot starve short ones; a worker with nothing of
//! its own steals from the back of another's deque — the slot the owner
//! would reach last. A match stays on the worker that started it unless
//! it is stolen, so its state stays in that core's caches.
//!
//! **Picking the next task.** A worker takes a fresh task while fewer
//! than `workers × max_local` tasks are in flight, otherwise the front
//! of its own ready deque, otherwise the back of another worker's
//! (scanning from the next worker), and otherwise waits on the condvar.
//! The in-flight bound keeps a 10k-match fleet from building 10k
//! simulations up front. Every check and every wait happens under the
//! one lock, so no wakeup is lost and the wait needs no timeout: a
//! finish frees a slot and wakes everyone, and a pending task goes back
//! to the worker that will take it next anyway.
//!
//! **Failure isolation.** Each quantum runs under
//! [`std::panic::catch_unwind`]: a panicking task is dropped, recorded as
//! [`TaskOutcome::Panicked`] with the panic message, and the worker moves
//! on. The lock is never held across user code, so a panic cannot poison
//! the scheduler.
//!
//! **Determinism.** The scheduler itself promises nothing about
//! execution order — determinism is a property of the *tasks*: outcomes
//! are keyed by submission index, so shared-nothing tasks that derive
//! all randomness from their own seeds produce byte-identical outcome
//! vectors for any worker count (see `tests/fleet_e2e.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

use watchmen_telemetry::Registry;

/// The result of advancing a task by one quantum.
#[derive(Debug)]
pub enum Quantum<T> {
    /// The task has more work; it is re-enqueued.
    Pending {
        /// Ticks (frames) advanced during this quantum.
        ticks: u64,
    },
    /// The task finished and produced its output.
    Complete {
        /// Ticks advanced during this final quantum.
        ticks: u64,
        /// The task's result.
        output: T,
    },
}

/// A resumable unit of work the pool schedules.
pub trait Task: Send {
    /// What the task produces when it completes.
    type Output: Send;

    /// Advances the task by one bounded quantum. Called repeatedly, never
    /// concurrently, possibly from different workers across calls.
    fn run_quantum(&mut self, cx: &ShardContext) -> Quantum<Self::Output>;
}

/// What a task sees of the shard (worker) currently running it.
#[derive(Debug)]
pub struct ShardContext {
    /// The worker index, stable for the lifetime of the pool run.
    pub shard: usize,
    /// The shard-private registry the pool's and the match's `fleet_*`
    /// metrics go to (the nodes' own metrics go to the process-wide
    /// `watchmen_telemetry::global()`, which counts every match the
    /// process has run since start; see [`crate::rollup`]).
    pub registry: Arc<Registry>,
}

/// How one task ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome<T> {
    /// Ran to completion.
    Completed(T),
    /// Panicked mid-quantum; the message is the panic payload. The worker
    /// that ran it survived.
    Panicked(String),
}

impl<T> TaskOutcome<T> {
    /// The completed output, if any.
    pub fn completed(&self) -> Option<&T> {
        match self {
            TaskOutcome::Completed(v) => Some(v),
            TaskOutcome::Panicked(_) => None,
        }
    }
}

/// Per-worker scheduler counters, derived from the shard registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub shard: usize,
    /// Quanta executed (including the panicking one, if any).
    pub quanta: u64,
    /// Ticks reported by tasks run on this worker.
    pub ticks: u64,
    /// Tasks stolen from other workers' deques.
    pub steals: u64,
    /// Tasks that completed on this worker.
    pub completed: u64,
    /// Tasks that panicked on this worker.
    pub panicked: u64,
}

/// Everything a pool run produced.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// One outcome per submitted task, in submission order.
    pub outcomes: Vec<TaskOutcome<T>>,
    /// Per-worker counters.
    pub workers: Vec<WorkerStats>,
    /// The shard-private registries (index = worker), for rollups.
    pub shards: Vec<Arc<Registry>>,
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// In-flight tasks per worker (≥ 1): fresh work starts only while
    /// fewer than `workers × max_local` tasks are started but unfinished.
    pub max_local: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { workers: default_workers(), max_local: 8 }
    }
}

/// The default worker count: available parallelism minus nothing fancy,
/// clamped to at least one.
#[must_use]
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A task plus its submission index.
struct Unit<T> {
    id: usize,
    task: T,
}

/// Everything the workers share, behind the pool's one lock.
struct Queue<T: Task> {
    /// Not-yet-started tasks, in submission order.
    fresh: VecDeque<Unit<T>>,
    /// Per-worker deques of started tasks waiting for their next quantum.
    ready: Vec<VecDeque<Unit<T>>>,
    /// Tasks started but not yet completed or panicked, including the
    /// ones a worker holds mid-quantum.
    in_flight: usize,
    /// One slot per submitted task, filled when it ends.
    outcomes: Vec<Option<TaskOutcome<T::Output>>>,
}

impl<T: Task> Queue<T> {
    /// The next unit for worker `me` (see the module docs for the order).
    fn next(
        &mut self,
        me: usize,
        cap: usize,
        steals: &watchmen_telemetry::Counter,
    ) -> Option<Unit<T>> {
        if self.in_flight < cap {
            if let Some(unit) = self.fresh.pop_front() {
                self.in_flight += 1;
                return Some(unit);
            }
        }
        if let Some(unit) = self.ready[me].pop_front() {
            return Some(unit);
        }
        let workers = self.ready.len();
        let unit =
            (1..workers).find_map(|offset| self.ready[(me + offset) % workers].pop_back())?;
        steals.inc();
        Some(unit)
    }

    /// Whether every task has ended.
    fn done(&self) -> bool {
        self.fresh.is_empty() && self.in_flight == 0
    }
}

fn lock<T: Task>(queue: &Mutex<Queue<T>>) -> MutexGuard<'_, Queue<T>> {
    queue.lock().expect("fleet pool queue lock")
}

/// Cached per-worker metric handles into the shard registry.
struct WorkerMetrics {
    quanta: Arc<watchmen_telemetry::Counter>,
    ticks: Arc<watchmen_telemetry::Counter>,
    steals: Arc<watchmen_telemetry::Counter>,
    completed: Arc<watchmen_telemetry::Counter>,
    panicked: Arc<watchmen_telemetry::Counter>,
    quantum_ms: Arc<watchmen_telemetry::Histogram>,
}

impl WorkerMetrics {
    fn new(registry: &Registry) -> Self {
        registry.describe("fleet_quanta_total", "task quanta executed by this shard");
        registry.describe("fleet_worker_ticks_total", "ticks advanced by tasks on this shard");
        registry.describe("fleet_steals_total", "tasks stolen from other shards' deques");
        registry.describe("fleet_tasks_completed_total", "tasks completed on this shard");
        registry.describe("fleet_tasks_panicked_total", "tasks that panicked on this shard");
        registry.describe("fleet_quantum_ms", "wall-clock duration of one task quantum");
        WorkerMetrics {
            quanta: registry.counter("fleet_quanta_total"),
            ticks: registry.counter("fleet_worker_ticks_total"),
            steals: registry.counter("fleet_steals_total"),
            completed: registry.counter("fleet_tasks_completed_total"),
            panicked: registry.counter("fleet_tasks_panicked_total"),
            quantum_ms: registry.histogram("fleet_quantum_ms"),
        }
    }
}

/// Runs every task to completion (or panic) across `config.workers`
/// threads and returns the outcomes in submission order, per-worker
/// stats, and the shard registries.
///
/// # Panics
///
/// Panics if `config.workers` or `config.max_local` is zero. Task panics
/// do **not** propagate — they are captured as
/// [`TaskOutcome::Panicked`].
pub fn run_tasks<T: Task>(config: &PoolConfig, tasks: Vec<T>) -> PoolRun<T::Output> {
    let shards: Vec<Arc<Registry>> =
        (0..config.workers).map(|_| Arc::new(Registry::new())).collect();
    run_tasks_on(config, tasks, shards)
}

/// Like [`run_tasks`], but records into caller-provided shard registries
/// (one per worker) instead of creating fresh ones — the hook a live
/// metrics endpoint uses to scrape a fleet *while* it runs: keep clones
/// of the `Arc`s, snapshot them from another thread at any time.
///
/// # Panics
///
/// Panics if `config.workers` or `config.max_local` is zero, or if
/// `shards.len() != config.workers`.
pub fn run_tasks_on<T: Task>(
    config: &PoolConfig,
    tasks: Vec<T>,
    shards: Vec<Arc<Registry>>,
) -> PoolRun<T::Output> {
    assert!(config.workers >= 1, "need at least one worker");
    assert!(config.max_local >= 1, "need a positive in-flight bound");
    assert_eq!(shards.len(), config.workers, "one shard registry per worker");
    let queue = Mutex::new(Queue {
        outcomes: (0..tasks.len()).map(|_| None).collect(),
        fresh: tasks.into_iter().enumerate().map(|(id, task)| Unit { id, task }).collect(),
        ready: (0..config.workers).map(|_| VecDeque::new()).collect(),
        in_flight: 0,
    });
    let wake = Condvar::new();
    let cap = config.workers * config.max_local;

    thread::scope(|s| {
        for (w, registry) in shards.iter().enumerate() {
            let (queue, wake) = (&queue, &wake);
            let cx = ShardContext { shard: w, registry: Arc::clone(registry) };
            s.spawn(move || worker_loop(&cx, queue, wake, cap));
        }
    });

    let outcomes = queue
        .into_inner()
        .expect("fleet pool queue lock")
        .outcomes
        .into_iter()
        .map(|o| o.expect("every task reaches an outcome"))
        .collect();
    let workers = shards
        .iter()
        .enumerate()
        .map(|(shard, r)| {
            let snap = r.snapshot();
            WorkerStats {
                shard,
                quanta: snap.counter_sum("fleet_quanta_total"),
                ticks: snap.counter_sum("fleet_worker_ticks_total"),
                steals: snap.counter_sum("fleet_steals_total"),
                completed: snap.counter_sum("fleet_tasks_completed_total"),
                panicked: snap.counter_sum("fleet_tasks_panicked_total"),
            }
        })
        .collect();
    PoolRun { outcomes, workers, shards }
}

fn worker_loop<T: Task>(cx: &ShardContext, queue: &Mutex<Queue<T>>, wake: &Condvar, cap: usize) {
    let metrics = WorkerMetrics::new(&cx.registry);
    let me = cx.shard;
    let mut q = lock(queue);
    loop {
        let Some(mut unit) = q.next(me, cap, &metrics.steals) else {
            if q.done() {
                return;
            }
            q = wake.wait(q).expect("fleet pool queue lock");
            continue;
        };
        drop(q);

        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| unit.task.run_quantum(cx)));
        metrics.quantum_ms.record(started.elapsed().as_secs_f64() * 1000.0);
        metrics.quanta.inc();
        let outcome = match result {
            Ok(Quantum::Pending { ticks }) => {
                metrics.ticks.add(ticks);
                q = lock(queue);
                q.ready[me].push_back(unit);
                continue;
            }
            Ok(Quantum::Complete { ticks, output }) => {
                metrics.ticks.add(ticks);
                metrics.completed.inc();
                TaskOutcome::Completed(output)
            }
            Err(payload) => {
                metrics.panicked.inc();
                TaskOutcome::Panicked(panic_message(payload.as_ref()))
            }
        };
        // The finished (or poisoned) task is dropped outside the lock; the
        // worker itself carries on with the next unit.
        let id = unit.id;
        drop(unit);
        q = lock(queue);
        q.outcomes[id] = Some(outcome);
        q.in_flight -= 1;
        wake.notify_all();
    }
}

/// Renders a panic payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A task that counts down `quanta_left` quanta of `ticks_per` ticks,
    /// then completes with its label.
    struct Countdown {
        label: usize,
        quanta_left: u64,
        ticks_per: u64,
        panic_at: Option<u64>,
    }

    impl Task for Countdown {
        type Output = usize;
        fn run_quantum(&mut self, _cx: &ShardContext) -> Quantum<usize> {
            if self.panic_at == Some(self.quanta_left) {
                panic!("scripted panic in task {}", self.label);
            }
            self.quanta_left -= 1;
            if self.quanta_left == 0 {
                Quantum::Complete { ticks: self.ticks_per, output: self.label }
            } else {
                Quantum::Pending { ticks: self.ticks_per }
            }
        }
    }

    fn countdowns(n: usize, quanta: u64) -> Vec<Countdown> {
        (0..n)
            .map(|label| Countdown { label, quanta_left: quanta, ticks_per: 3, panic_at: None })
            .collect()
    }

    #[test]
    fn completes_all_tasks_in_submission_order() {
        for workers in [1, 2, 8] {
            let run = run_tasks(&PoolConfig { workers, max_local: 4 }, countdowns(23, 5));
            assert_eq!(run.outcomes.len(), 23);
            for (i, o) in run.outcomes.iter().enumerate() {
                assert_eq!(o.completed(), Some(&i), "task {i} under {workers} workers");
            }
            let quanta: u64 = run.workers.iter().map(|w| w.quanta).sum();
            assert_eq!(quanta, 23 * 5);
            let ticks: u64 = run.workers.iter().map(|w| w.ticks).sum();
            assert_eq!(ticks, 23 * 5 * 3);
        }
    }

    #[test]
    fn more_workers_than_tasks_terminates() {
        let run = run_tasks(&PoolConfig { workers: 8, max_local: 8 }, countdowns(2, 1));
        assert_eq!(run.outcomes.len(), 2);
        assert_eq!(run.workers.len(), 8);
        assert!(run.outcomes.iter().all(|o| o.completed().is_some()));
    }

    #[test]
    fn empty_task_list_terminates() {
        let run = run_tasks(&PoolConfig { workers: 4, max_local: 8 }, countdowns(0, 1));
        assert!(run.outcomes.is_empty());
    }

    #[test]
    fn panicking_task_is_isolated_and_reported() {
        let mut tasks = countdowns(9, 4);
        tasks[4].panic_at = Some(2); // panic on its third quantum
        let run = run_tasks(&PoolConfig { workers: 2, max_local: 4 }, tasks);
        match &run.outcomes[4] {
            TaskOutcome::Panicked(msg) => {
                assert!(msg.contains("scripted panic in task 4"), "{msg}");
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
        // Every other task still completed — the worker wasn't poisoned.
        for (i, o) in run.outcomes.iter().enumerate() {
            if i != 4 {
                assert_eq!(o.completed(), Some(&i));
            }
        }
        assert_eq!(run.workers.iter().map(|w| w.panicked).sum::<u64>(), 1);
        assert_eq!(run.workers.iter().map(|w| w.completed).sum::<u64>(), 8);
    }

    #[test]
    fn in_flight_cap_bounds_concurrent_tasks() {
        // With max_local 2, at most 2 tasks per worker may be started but
        // unfinished at once, and no task may run two quanta at once.
        // Track the high-water mark of started tasks and each task's busy
        // flag via shared atomics.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        struct Tracking<'a> {
            label: usize,
            started: bool,
            quanta_left: u64,
            live: &'a AtomicUsize,
            high: &'a AtomicUsize,
            busy: &'a [AtomicBool],
            overlapped: &'a AtomicBool,
        }
        impl Task for Tracking<'_> {
            type Output = ();
            fn run_quantum(&mut self, _cx: &ShardContext) -> Quantum<()> {
                if self.busy[self.label].swap(true, Ordering::SeqCst) {
                    self.overlapped.store(true, Ordering::SeqCst);
                }
                if !self.started {
                    self.started = true;
                    let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
                    self.high.fetch_max(live, Ordering::SeqCst);
                }
                thread::sleep(std::time::Duration::from_micros(100));
                self.quanta_left -= 1;
                let done = self.quanta_left == 0;
                if done {
                    self.live.fetch_sub(1, Ordering::SeqCst);
                }
                self.busy[self.label].store(false, Ordering::SeqCst);
                if done {
                    Quantum::Complete { ticks: 1, output: () }
                } else {
                    Quantum::Pending { ticks: 1 }
                }
            }
        }
        for workers in [1, 3] {
            let (live, high, overlapped) =
                (AtomicUsize::new(0), AtomicUsize::new(0), AtomicBool::new(false));
            let busy: Vec<AtomicBool> = (0..24).map(|_| AtomicBool::new(false)).collect();
            let tasks: Vec<Tracking> = (0..24)
                .map(|label| Tracking {
                    label,
                    started: false,
                    quanta_left: 4,
                    live: &live,
                    high: &high,
                    busy: &busy,
                    overlapped: &overlapped,
                })
                .collect();
            let run = run_tasks(&PoolConfig { workers, max_local: 2 }, tasks);
            assert!(run.outcomes.iter().all(|o| o.completed().is_some()));
            let high = high.load(Ordering::SeqCst);
            assert!(high <= workers * 2, "{workers} workers: {high} tasks in flight");
            assert!(
                !overlapped.load(Ordering::SeqCst),
                "{workers} workers ran a task twice at once"
            );
        }
    }

    #[test]
    fn steals_rebalance_a_seeded_backlog() {
        // A worker that finds no fresh task and an empty ready deque
        // must steal to contribute.
        let run = run_tasks(&PoolConfig { workers: 4, max_local: 16 }, countdowns(32, 30));
        assert!(run.outcomes.iter().all(|o| o.completed().is_some()));
        // Stealing is opportunistic: all we assert is the counters are
        // well-formed and the work all happened somewhere.
        let quanta: u64 = run.workers.iter().map(|w| w.quanta).sum();
        assert_eq!(quanta, 32 * 30);
    }
}
