//! The wall-clock execution engine: a work-stealing pool of pinned worker
//! threads stepping shard batches in real time.
//!
//! The modeled-time path ([`crate::fleet::ExecutionMode::Modeled`]) answers
//! "how much CPU would this tick cost"; this module answers "how fast does
//! the hardware actually serve it" — and is the only place in the workspace
//! that creates a thread (audit rule R5 holds everything else to that). A
//! [`WallClockExecutor`] spawns its workers **once per fleet run** —
//! each worker is pinned to its index for the lifetime of the run, so the
//! per-tick cost is a task hand-off, not a thread spawn — and every tick the
//! fleet driver injects one *shard-batch task* per shard:
//!
//! * tasks enter through a lock-free [`crossbeam::deque::Injector`] (the
//!   admission-to-shard hand-off);
//! * each worker drains its own [`crossbeam::deque::Worker`] deque first,
//!   then batch-steals from the injector, then steals from sibling
//!   [`crossbeam::deque::Stealer`]s — the classic work-stealing loop, so a
//!   worker that finishes its shard early takes load off a slower sibling
//!   instead of idling;
//! * results return over a `crossbeam::channel` and are **merged in shard-id
//!   order**, which is what keeps a wall-clock run bit-identical to a
//!   modeled run of the same configuration at *any* thread count: threads
//!   decide only who executes a shard's batch, never what the batch computes
//!   or the order its results are folded in.
//!
//! Wall-clock timings live beside the deterministic outcome (see
//! [`crate::fleet::WallClockStats`]), never inside it: `FLEET_cod.json`
//! carries no wall numbers and stays byte-identical per seed whether a run
//! took one thread or eight.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cod_cb::CbError;
use cod_net::Micros;
use cod_trace::WallTrace;
use crossbeam::channel::{unbounded, Receiver, Sender};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};

use crate::shard::{Completed, Shard};

/// A wall-clock stopwatch: started once, read as a [`Duration`] since.
///
/// This is the only sanctioned way for fleet code outside this module to
/// measure real time. `cod_audit` bans `Instant`/`elapsed(` everywhere but
/// the explicit wall-clock allowlist (this file is on it), so routing every
/// fleet timing through here keeps the fence mechanical: a stray clock read
/// in the deterministic tick loop is a lint error, not a seed hunt. The
/// reading deliberately lands in a [`Duration`] — a value, not a clock — so
/// the borrow ends at the fence.
#[derive(Debug, Clone, Copy)]
pub struct WallStopwatch {
    started: Instant,
}

impl WallStopwatch {
    /// Starts the stopwatch now.
    pub fn start() -> WallStopwatch {
        WallStopwatch { started: Instant::now() }
    }

    /// Real time since [`WallStopwatch::start`].
    pub fn read(&self) -> Duration {
        self.started.elapsed()
    }
}

/// One tick's result for one shard: its retirements plus its modeled busy
/// time.
pub(crate) type TickResult = (Vec<Completed>, Micros);

/// A shard-batch task: the shard is moved into the pool for the duration of
/// its step and handed back with the result.
type Task = Shard;

/// What a worker sends back for one task.
enum TaskDone {
    /// The shard stepped its batch (the step itself may still carry a
    /// session error); the shard comes back for the next tick.
    Stepped(Box<Shard>, Result<TickResult, CbError>),
    /// The task panicked; the shard is lost with the worker's stack.
    Panicked,
}

/// Per-worker observability counters. Purely diagnostic: they describe how
/// the race unfolded (who stole what, who idled how long), never what was
/// computed, and are never serialized into `FLEET_cod.json`.
#[derive(Debug, Default)]
struct WorkerCounters {
    /// Tasks this worker took from outside its local deque — injector
    /// batch-takes plus sibling steals.
    steals: AtomicU64,
    /// Times this worker came up empty-handed and backed off.
    idle_spins: AtomicU64,
    /// Total shard-batch tasks this worker ran, whatever their source.
    tasks: AtomicU64,
}

/// A pool of long-lived worker threads stepping shard batches via work
/// stealing. Create one per fleet run; submit one tick at a time through
/// the crate-private `step_shards`.
pub struct WallClockExecutor {
    injector: Arc<Injector<Task>>,
    done_rx: Receiver<TaskDone>,
    live: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<Vec<WorkerCounters>>,
}

impl WallClockExecutor {
    /// Spawns `threads` workers (clamped to at least one). Workers are
    /// pinned to their index for the lifetime of the executor: worker `i`
    /// keeps its own deque and its name (`fleet-worker-i`) from first tick
    /// to shutdown, so the per-tick cost is a queue hand-off, not a thread
    /// spawn.
    ///
    /// When `wall` is `Some`, every worker records per-task spans, steal
    /// instants and idle gaps into its own trace lane
    /// ([`WallTrace::worker_lane`]); when `None` the loop is exactly the
    /// untraced hot path.
    pub fn new(threads: usize, wall: Option<Arc<WallTrace>>) -> WallClockExecutor {
        let threads = threads.max(1);
        let injector = Arc::new(Injector::new());
        let (done_tx, done_rx) = unbounded();
        let live = Arc::new(AtomicBool::new(true));

        let counters: Arc<Vec<WorkerCounters>> =
            Arc::new((0..threads).map(|_| WorkerCounters::default()).collect());

        let deques: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Task>> = deques.iter().map(Worker::stealer).collect();
        let workers = deques
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let injector = Arc::clone(&injector);
                let live = Arc::clone(&live);
                let stealers = stealers.clone();
                let done_tx = done_tx.clone();
                let counters = Arc::clone(&counters);
                let wall = wall.clone();
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{index}"))
                    .spawn(move || {
                        worker_loop(
                            index,
                            &local,
                            &injector,
                            &stealers,
                            &done_tx,
                            &live,
                            &counters,
                            wall.as_deref(),
                        )
                    })
                    .expect("spawn fleet worker")
            })
            .collect();

        WallClockExecutor { injector, done_rx, live, workers, counters }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Per-worker count of tasks taken from outside the worker's own deque
    /// (injector batch-takes plus sibling steals), indexed by worker.
    /// Diagnostic only — the values depend on the race and are never part of
    /// the deterministic outcome.
    pub fn worker_steals(&self) -> Vec<u64> {
        self.counters.iter().map(|c| c.steals.load(Ordering::Relaxed)).collect()
    }

    /// Per-worker count of empty-handed scheduling rounds (yield or sleep),
    /// indexed by worker. Diagnostic only.
    pub fn worker_idle_spins(&self) -> Vec<u64> {
        self.counters.iter().map(|c| c.idle_spins.load(Ordering::Relaxed)).collect()
    }

    /// Per-worker count of shard-batch tasks run (from any source), indexed
    /// by worker. Diagnostic only.
    pub fn worker_tasks(&self) -> Vec<u64> {
        self.counters.iter().map(|c| c.tasks.load(Ordering::Relaxed)).collect()
    }

    /// Steps every shard's batch once across the pool and merges the results
    /// **in shard-id order**, so the outcome is independent of which worker
    /// ran what and of how the steals interleaved. The shards are moved into
    /// the pool for the duration of the tick and handed back in id order.
    ///
    /// # Errors
    ///
    /// Returns the first (by shard id) hard error any session raised; all
    /// shards still complete their batch first, so the pool is quiescent
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics with "shard thread panicked" if a worker thread panicked while
    /// stepping a shard, like a failed join would.
    pub(crate) fn step_shards(&self, shards: &mut Vec<Shard>) -> Result<Vec<TickResult>, CbError> {
        let expected = shards.len();
        // Hand every shard to the pool. Shard ids are fleet indices, so id
        // order and vector order agree; the injector serves them FIFO but
        // nothing below depends on that.
        for shard in shards.drain(..) {
            self.injector.push(shard);
        }
        let mut slots: Vec<Option<(Shard, Result<TickResult, CbError>)>> = Vec::new();
        slots.resize_with(expected, || None);
        for _ in 0..expected {
            match self.done_rx.recv().expect("fleet workers are alive") {
                TaskDone::Stepped(shard, result) => {
                    let id = shard.id;
                    debug_assert!(slots[id].is_none(), "shard {id} stepped twice in one tick");
                    slots[id] = Some((*shard, result));
                }
                TaskDone::Panicked => panic!("shard thread panicked"),
            }
        }
        // Reassemble in shard-id order: the merge order — and therefore the
        // whole outcome — is a function of the configuration, not the race.
        let mut results = Vec::with_capacity(expected);
        for slot in slots {
            let (shard, result) = slot.expect("every shard reported back");
            shards.push(shard);
            results.push(result);
        }
        results.into_iter().collect()
    }
}

impl Drop for WallClockExecutor {
    fn drop(&mut self) {
        self.live.store(false, Ordering::Release);
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a task already delivered its
            // verdict through the channel; nothing useful left to propagate.
            let _ = worker.join();
        }
    }
}

/// Where [`find_task`] got its task from — the label each steal instant
/// carries in the wall-clock trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskSource {
    /// The worker's own deque: not a steal.
    Local,
    /// A batch-take off the shared injector.
    Injector,
    /// A single task stolen from a sibling's deque.
    Sibling,
}

/// One worker's life: drain the local deque, else batch-steal from the
/// injector, else steal from a sibling, else back off until shutdown.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    index: usize,
    local: &Worker<Task>,
    injector: &Injector<Task>,
    stealers: &[Stealer<Task>],
    done_tx: &Sender<TaskDone>,
    live: &AtomicBool,
    counters: &[WorkerCounters],
    wall: Option<&WallTrace>,
) {
    let lane = WallTrace::worker_lane(index);
    let mut idle_spins = 0u32;
    // Wall-clock µs at which the current idle gap started, if one is open.
    let mut idle_since: Option<u64> = None;
    loop {
        match find_task(index, local, injector, stealers) {
            Some((mut shard, source)) => {
                if source != TaskSource::Local {
                    counters[index].steals.fetch_add(1, Ordering::Relaxed);
                }
                counters[index].tasks.fetch_add(1, Ordering::Relaxed);
                idle_spins = 0;
                let start = wall.map(|w| {
                    if let Some(since) = idle_since.take() {
                        w.complete(lane, "idle".to_string(), "idle", since);
                    }
                    match source {
                        TaskSource::Local => {}
                        TaskSource::Injector => w.instant(lane, "injector-take", "steal"),
                        TaskSource::Sibling => w.instant(lane, "sibling-steal", "steal"),
                    }
                    w.now_us()
                });
                let shard_id = shard.id;
                shard.set_wall_lane(lane);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let result = shard.step_batch();
                    (shard, result)
                }));
                if let (Some(w), Some(start)) = (wall, start) {
                    w.complete(lane, format!("shard{shard_id}"), "step", start);
                }
                let done = match result {
                    Ok((shard, result)) => TaskDone::Stepped(Box::new(shard), result),
                    Err(_) => TaskDone::Panicked,
                };
                if done_tx.send(done).is_err() {
                    return; // Executor dropped mid-tick; nobody is listening.
                }
            }
            None => {
                if !live.load(Ordering::Acquire) {
                    if let (Some(w), Some(since)) = (wall, idle_since.take()) {
                        w.complete(lane, "idle".to_string(), "idle", since);
                    }
                    return;
                }
                if let Some(w) = wall {
                    if idle_since.is_none() {
                        idle_since = Some(w.now_us());
                    }
                }
                // Briefly spin-yield for the next tick's tasks, then sleep:
                // ticks are milliseconds apart, so the pool must not burn a
                // core per worker while the fleet driver places sessions.
                counters[index].idle_spins.fetch_add(1, Ordering::Relaxed);
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }
        }
    }
}

/// The steal policy: local work first, then a batch off the injector (moving
/// up to half the queue into the local deque so siblings contend less), then
/// a single task off the first non-empty sibling. The source says where the
/// task came from (for the steal counters and the trace's steal instants).
fn find_task(
    index: usize,
    local: &Worker<Task>,
    injector: &Injector<Task>,
    stealers: &[Stealer<Task>],
) -> Option<(Task, TaskSource)> {
    if let Some(task) = local.pop() {
        return Some((task, TaskSource::Local));
    }
    if let Steal::Success(task) = injector.steal_batch_and_pop(local) {
        return Some((task, TaskSource::Injector));
    }
    for (i, stealer) in stealers.iter().enumerate() {
        if i == index {
            continue;
        }
        if let Steal::Success(task) = stealer.steal() {
            return Some((task, TaskSource::Sibling));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use crate::workload::{generate, WorkloadConfig};

    fn shard_with_session(id: usize, seed: u64, frames: usize) -> Shard {
        let mut shard = Shard::new(
            id,
            ShardConfig { slots: 2, batch_frames: 4, pool_per_shape: 1, ..ShardConfig::default() },
            1.0,
        );
        let mut arrivals = generate(&WorkloadConfig {
            sessions: 1,
            seed,
            base_frames: frames,
            mean_interarrival_ticks: 0,
        });
        let mut spec = arrivals.remove(0).spec;
        spec.id = id as u64;
        spec.frames = frames;
        spec.config.exam_frames = frames;
        shard.admit(spec, 0, 0).unwrap();
        shard
    }

    #[test]
    fn executor_steps_match_sequential_steps_at_any_thread_count() {
        for threads in [1usize, 2, 4] {
            // Sequential reference.
            let mut expected = Vec::new();
            let mut reference: Vec<Shard> =
                (0..3).map(|i| shard_with_session(i, 7 + i as u64, 8)).collect();
            for shard in reference.iter_mut() {
                expected.push(shard.step_batch().unwrap());
            }
            // Pool run of identically prepared shards.
            let executor = WallClockExecutor::new(threads, None);
            let mut shards: Vec<Shard> =
                (0..3).map(|i| shard_with_session(i, 7 + i as u64, 8)).collect();
            let results = executor.step_shards(&mut shards).unwrap();
            assert_eq!(results.len(), 3);
            for (i, ((completed, busy), (exp_completed, exp_busy))) in
                results.iter().zip(&expected).enumerate()
            {
                assert_eq!(busy, exp_busy, "shard {i} busy time diverged at {threads} threads");
                assert_eq!(completed, exp_completed, "shard {i} diverged at {threads} threads");
            }
            // Shards come back in id order, ready for the next tick.
            for (i, shard) in shards.iter().enumerate() {
                assert_eq!(shard.id, i);
            }
        }
    }

    #[test]
    fn executor_survives_many_ticks_and_returns_shards_every_time() {
        let executor = WallClockExecutor::new(2, None);
        assert_eq!(executor.threads(), 2);
        let mut shards: Vec<Shard> = (0..2).map(|i| shard_with_session(i, 3, 12)).collect();
        let mut retired = 0usize;
        for _ in 0..3 {
            let results = executor.step_shards(&mut shards).unwrap();
            assert_eq!(shards.len(), 2, "every shard must come home each tick");
            retired += results.iter().map(|(done, _)| done.len()).sum::<usize>();
        }
        assert_eq!(retired, 2, "both 12-frame sessions retire within 3 x 4-frame ticks");
    }

    #[test]
    fn zero_threads_clamps_to_one_worker() {
        let executor = WallClockExecutor::new(0, None);
        assert_eq!(executor.threads(), 1);
        let mut shards = vec![shard_with_session(0, 5, 4)];
        let results = executor.step_shards(&mut shards).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0.len(), 1, "the 4-frame session retires in one 4-frame tick");
    }

    #[test]
    fn worker_panic_surfaces_like_a_failed_join() {
        let executor = WallClockExecutor::new(2, None);
        let mut shards: Vec<Shard> = (0..2).map(|i| shard_with_session(i, 9, 8)).collect();
        shards[1].poison_for_test = true;
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            executor.step_shards(&mut shards)
        }))
        .expect_err("a poisoned shard must panic the tick");
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "shard thread panicked");
    }
}
