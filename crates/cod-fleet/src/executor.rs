//! The wall-clock execution engine: a fixed pool of stepping threads — the
//! fleet driver plus spawned workers — stepping shard batches in real time.
//!
//! The modeled-time path ([`crate::fleet::ExecutionMode::Modeled`]) answers
//! "how much CPU would this tick cost"; this module answers "how fast does
//! the hardware actually serve it" — and is the only place in the workspace
//! that creates a thread (audit rule R5 holds everything else to that). A
//! [`WallClockExecutor`] spawns its workers **once per fleet run**, so the
//! per-tick cost is a task hand-off, not a thread spawn, and every tick the
//! fleet driver hands over one *shard-batch task* per shard:
//!
//! * there is one queue — a `Mutex` around the shards ready to step, the
//!   results stepped so far and the pool's counters — and two `Condvar`s;
//! * the driver is worker 0 of its own pool: it pushes the tick's shards,
//!   wakes the spawned workers and then steps shards off the same queue
//!   itself, exactly as a worker does; only when nothing is left to take
//!   does it wait for the shards still out on other threads — so a
//!   `threads`-thread pool spawns `threads - 1` workers, and a 1-thread
//!   pool spawns none and hands nothing off;
//! * a worker pops a shard, steps it *outside* the lock, pushes the result
//!   and wakes the driver; when it finds nothing ready it parks on the
//!   condvar (the check and the park happen under the lock, so no wake-up is
//!   lost) and costs no CPU until the next tick;
//! * results are **merged in shard-id order**, which is what keeps a
//!   wall-clock run bit-identical to a modeled run of the same configuration
//!   at *any* thread count: threads decide only who executes a shard's
//!   batch, never what the batch computes or the order its results are
//!   folded in.
//!
//! A tick is one task per shard — a handful — so one lock is never the
//! bottleneck and there is nothing to steal.
//!
//! Wall-clock timings live beside the deterministic outcome (see
//! [`crate::fleet::WallClockStats`]), never inside it: `FLEET_cod.json`
//! carries no wall numbers and stays byte-identical per seed whether a run
//! took one thread or eight.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cod_cb::CbError;
use cod_net::Micros;
use cod_trace::WallTrace;

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

/// What a task reports back: the shard (home again for the next tick) with
/// its step's result — which may itself be a session error — or, if the
/// step panicked, the payload `catch_unwind` caught; the shard is then lost
/// with the task's stack.
type TaskDone = std::thread::Result<(Shard, Result<TickResult, CbError>)>;

/// Everything the driver and the workers share, under the pool's one lock.
struct Queue {
    /// Shards handed over for this tick and not yet taken by any thread.
    ready: Vec<Shard>,
    /// Results of this tick so far, in the order the tasks finished.
    done: Vec<TaskDone>,
    /// Cleared on drop: a worker that finds nothing ready exits instead of
    /// parking.
    live: bool,
    /// Shard-batch tasks run, per stepping thread (0 is the driver). Purely
    /// diagnostic, like `parks`: they describe how the race unfolded, never
    /// what was computed, and are never serialized into `FLEET_cod.json`.
    tasks: Vec<u64>,
    /// Times each stepping thread found nothing ready and parked — for the
    /// driver, times it waited on shards still out on a worker.
    parks: Vec<u64>,
}

/// The queue and the two conditions threads wait for on it.
struct Pool {
    queue: Mutex<Queue>,
    /// Workers park here until shards are ready or the pool shuts down.
    work: Condvar,
    /// The driver waits here, once it has nothing left to take, until every
    /// shard of the tick has reported.
    finished: Condvar,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Shards are stepped outside the lock, so only a failed allocation
        // in a push can poison it.
        self.queue.lock().expect("executor queue poisoned")
    }
}

/// A pool of stepping threads taking shard batches off one shared queue:
/// the thread that calls the crate-private `step_shards` is worker 0, and
/// long-lived spawned threads are the rest. Create one per fleet run; submit
/// one tick at a time.
pub struct WallClockExecutor {
    pool: Arc<Pool>,
    /// Workers `1..threads`; worker 0 is whoever calls `step_shards`.
    workers: Vec<JoinHandle<()>>,
    wall: Option<Arc<WallTrace>>,
}

impl WallClockExecutor {
    /// A pool of `threads` stepping threads (clamped to at least one): the
    /// caller of `step_shards` plus `threads - 1` spawned workers, so a
    /// 1-thread pool spawns nothing. Spawned worker `i` keeps its name
    /// (`fleet-worker-i`, from 1) from first tick to shutdown, so the
    /// per-tick cost is a queue hand-off, not a thread spawn.
    ///
    /// When `wall` is `Some`, every stepping thread records per-task spans
    /// and idle gaps into its own trace lane ([`WallTrace::worker_lane`]) —
    /// the caller into worker 0's; when `None` the loop is exactly the
    /// untraced hot path.
    pub fn new(threads: usize, wall: Option<Arc<WallTrace>>) -> WallClockExecutor {
        let threads = threads.max(1);
        let pool = Arc::new(Pool {
            queue: Mutex::new(Queue {
                ready: Vec::new(),
                done: Vec::new(),
                live: true,
                tasks: vec![0; threads],
                parks: vec![0; threads],
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|index| {
                let pool = Arc::clone(&pool);
                let wall = wall.clone();
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{index}"))
                    .spawn(move || worker_loop(index, &pool, wall.as_deref()))
                    .expect("spawn fleet worker")
            })
            .collect();
        WallClockExecutor { pool, workers, wall }
    }

    /// Number of stepping threads: the caller plus the spawned workers.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Per-thread count of times the thread found nothing ready and parked,
    /// indexed by worker (0 is the caller, which parks only to wait for
    /// shards still out on a worker). Diagnostic only — the values depend on
    /// the race and are never part of the deterministic outcome.
    pub fn worker_idle_spins(&self) -> Vec<u64> {
        self.pool.lock().parks.clone()
    }

    /// Per-thread count of shard-batch tasks run, indexed by worker (0 is
    /// the caller). Diagnostic only.
    pub fn worker_tasks(&self) -> Vec<u64> {
        self.pool.lock().tasks.clone()
    }

    /// Steps every shard's batch once across the pool — the calling thread
    /// included — and merges the results **in shard-id order**, so the
    /// outcome is independent of which thread ran what and of the order they
    /// finished in. The shards are moved into the pool for the duration of
    /// the tick and handed back in id order.
    ///
    /// # Errors
    ///
    /// Returns the first (by shard id) hard error any session raised; all
    /// shards still complete their batch first, so the pool is quiescent
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics with "shard thread panicked" if stepping a shard panicked —
    /// on a worker or on the caller alike, like a failed join would — after
    /// every other shard of the tick has reported, so the pool is left idle
    /// and reusable.
    pub(crate) fn step_shards(&self, shards: &mut Vec<Shard>) -> Result<Vec<TickResult>, CbError> {
        let expected = shards.len();
        let wall = self.wall.as_deref();
        // Wall-clock µs at which the caller ran out of shards to take.
        let mut idle_since: Option<u64> = None;
        let done = {
            // Pushed in reverse so that threads, popping from the back, take
            // shards in id order. The outcome does not depend on it; the
            // makespan can: a heterogeneous rack lists its fastest — and so
            // fullest — shard first, and the longest task should start first.
            // The caller pops before it lets go of the lock, so it always
            // runs the first task of a tick.
            let mut queue = self.pool.lock();
            queue.ready.extend(shards.drain(..).rev());
            self.pool.work.notify_all();
            loop {
                if let Some(shard) = queue.ready.pop() {
                    queue.tasks[0] += 1;
                    drop(queue);
                    let done = run_task(0, shard, wall);
                    queue = self.pool.lock();
                    queue.done.push(done);
                } else if queue.done.len() < expected {
                    queue.parks[0] += 1;
                    if idle_since.is_none() {
                        idle_since = wall.map(WallTrace::now_us);
                    }
                    queue = self.pool.finished.wait(queue).expect("executor queue poisoned");
                } else {
                    break std::mem::take(&mut queue.done);
                }
            }
        };
        if let (Some(w), Some(since)) = (wall, idle_since) {
            w.complete(WallTrace::worker_lane(0), "idle".to_string(), "idle", since);
        }
        // The lock is released and every shard has reported, so a panic
        // raised here leaves the pool idle and reusable.
        let mut slots: Vec<Option<(Shard, Result<TickResult, CbError>)>> = Vec::new();
        slots.resize_with(expected, || None);
        for done in done {
            let Ok((shard, result)) = done else { panic!("shard thread panicked") };
            let id = shard.id;
            debug_assert!(slots[id].is_none(), "shard {id} stepped twice in one tick");
            slots[id] = Some((shard, result));
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
        // `live` is valid whatever a panicking thread left half-done, and a
        // drop must not panic: recover the guard from a poisoned lock.
        self.pool.queue.lock().unwrap_or_else(PoisonError::into_inner).live = false;
        self.pool.work.notify_all();
        for worker in self.workers.drain(..) {
            // A task's panic already surfaced through `step_shards`; nothing
            // useful left to propagate.
            let _ = worker.join();
        }
    }
}

/// One spawned worker's life: take a ready shard, step it outside the lock,
/// report it; park while nothing is ready; exit once the pool is no longer
/// live.
fn worker_loop(index: usize, pool: &Pool, wall: Option<&WallTrace>) {
    loop {
        // Wall-clock µs at which this worker first found nothing ready.
        let mut idle_since: Option<u64> = None;
        let task = {
            let mut queue = pool.lock();
            loop {
                if let Some(shard) = queue.ready.pop() {
                    queue.tasks[index] += 1;
                    break Some(shard);
                }
                if !queue.live {
                    break None;
                }
                queue.parks[index] += 1;
                if idle_since.is_none() {
                    idle_since = wall.map(WallTrace::now_us);
                }
                queue = pool.work.wait(queue).expect("executor queue poisoned");
            }
        };
        // Recorded with the queue released: the trace lane has its own lock.
        if let (Some(w), Some(since)) = (wall, idle_since) {
            w.complete(WallTrace::worker_lane(index), "idle".to_string(), "idle", since);
        }
        let Some(shard) = task else { return };
        let done = run_task(index, shard, wall);
        pool.lock().done.push(done);
        pool.finished.notify_one();
    }
}

/// One shard-batch task, on whichever stepping thread took it: step the
/// shard on worker `index`'s trace lane, catching a panic so that it
/// surfaces through `step_shards` as a failed join instead of unwinding
/// through the pool.
fn run_task(index: usize, mut shard: Shard, wall: Option<&WallTrace>) -> TaskDone {
    let lane = WallTrace::worker_lane(index);
    let start = wall.map(WallTrace::now_us);
    let shard_id = shard.id;
    shard.set_wall_lane(lane);
    let done: TaskDone = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let result = shard.step_batch();
        (shard, result)
    }));
    if let (Some(w), Some(start)) = (wall, start) {
        w.complete(lane, format!("shard{shard_id}"), "step", start);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use crate::workload::{generate, WorkloadConfig};

    fn shard_with_session(id: usize, seed: u64, frames: usize) -> Shard {
        shard_with_batch(id, seed, frames, 4)
    }

    fn shard_with_batch(id: usize, seed: u64, frames: usize, batch_frames: usize) -> Shard {
        let mut shard = Shard::new(
            id,
            ShardConfig { slots: 2, batch_frames, pool_per_shape: 1, ..ShardConfig::default() },
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

    #[test]
    fn a_parked_pool_does_not_spin() {
        let executor = WallClockExecutor::new(1, None);
        let mut shards: Vec<Shard> = (0..2).map(|i| shard_with_batch(i, 3, 50, 1)).collect();
        for _ in 0..50 {
            executor.step_shards(&mut shards).unwrap();
        }
        assert_eq!(executor.worker_tasks(), [100]);
        // A 1-thread pool is the caller alone, which steps every shard itself
        // and so never waits; the bound (one park per tick plus one before the
        // first, with slack for spurious wake-ups) is what a spawned worker is
        // held to below. A polling pool reads in the thousands here.
        let parks = executor.worker_idle_spins()[0];
        assert!(parks <= 2 * (50 + 1), "a worker with nothing ready must park, not poll: {parks}");
    }

    #[test]
    fn a_one_thread_pool_is_the_caller_alone() {
        let executor = WallClockExecutor::new(1, None);
        assert!(executor.workers.is_empty(), "a 1-thread pool must spawn no thread");
        assert_eq!(executor.threads(), 1);
        let mut shards: Vec<Shard> = (0..2).map(|i| shard_with_batch(i, 3, 20, 1)).collect();
        for _ in 0..20 {
            executor.step_shards(&mut shards).unwrap();
        }
        assert_eq!(executor.worker_tasks(), [40], "the caller stepped every shard every tick");
        assert_eq!(executor.worker_idle_spins(), [0], "with nobody to wait for, it never parks");
    }

    #[test]
    fn the_caller_takes_the_first_task_of_every_tick() {
        let executor = WallClockExecutor::new(2, None);
        assert_eq!(executor.workers.len(), 1);
        let ticks = 50;
        let mut shards: Vec<Shard> = (0..2).map(|i| shard_with_batch(i, 3, ticks, 1)).collect();
        for _ in 0..ticks {
            executor.step_shards(&mut shards).unwrap();
        }
        let tasks = executor.worker_tasks();
        assert_eq!(tasks.iter().sum::<u64>(), 2 * ticks as u64);
        // The caller pushes and pops under one lock, so it cannot lose the
        // first task of a tick to the worker — whatever the race does next.
        assert!(tasks[0] >= ticks as u64, "the caller must step every tick: {tasks:?}");
        // The spawned worker parks between ticks instead of polling: one park
        // per tick plus one before the first, with slack for spurious wake-ups.
        let parks = executor.worker_idle_spins()[1];
        assert!(parks <= 2 * (ticks as u64 + 1), "a worker must park, not poll: {parks}");
    }

    #[test]
    fn a_panic_on_the_caller_surfaces_like_a_failed_join() {
        let executor = WallClockExecutor::new(1, None);
        let mut shards: Vec<Shard> = (0..2).map(|i| shard_with_session(i, 9, 8)).collect();
        shards[1].poison_for_test = true;
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            executor.step_shards(&mut shards)
        }))
        .expect_err("a poisoned shard must panic the tick");
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "shard thread panicked");
        // The task ran on the caller and its panic was caught there: the
        // same pool steps a fresh set of shards.
        let mut fresh: Vec<Shard> = (0..2).map(|i| shard_with_session(i, 9, 8)).collect();
        assert_eq!(executor.step_shards(&mut fresh).unwrap().len(), 2);
        assert_eq!(fresh.iter().map(|s| s.id).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn a_mid_tick_error_reports_the_lowest_failing_shard_and_brings_every_shard_home() {
        for threads in [1usize, 2] {
            let executor = WallClockExecutor::new(threads, None);
            let mut shards: Vec<Shard> = (0..4).map(|i| shard_with_session(i, 5, 8)).collect();
            shards[3].fail_for_test = true;
            shards[1].fail_for_test = true;
            match executor.step_shards(&mut shards) {
                Err(CbError::Codec(message)) => {
                    assert_eq!(message, "shard 1 failed for an error test", "at {threads} threads")
                }
                other => panic!("expected shard 1's error at {threads} threads, got {other:?}"),
            }
            assert_eq!(
                shards.iter().map(|s| s.id).collect::<Vec<_>>(),
                [0, 1, 2, 3],
                "every shard must come home in id order at {threads} threads"
            );
            for shard in shards.iter_mut() {
                shard.fail_for_test = false;
            }
            let results = executor.step_shards(&mut shards).unwrap();
            assert_eq!(results.len(), 4, "the tick after an error steps at {threads} threads");
        }
    }

    #[test]
    fn no_wakeup_is_lost_with_more_workers_than_shards() {
        let executor = WallClockExecutor::new(8, None);
        let mut shards = vec![shard_with_batch(0, 11, 300, 1)];
        for tick in 0..300 {
            let results = executor.step_shards(&mut shards).unwrap();
            assert_eq!(results.len(), 1);
            assert_eq!(shards.len(), 1, "the shard must come home at tick {tick}");
        }
        assert_eq!(executor.worker_tasks().iter().sum::<u64>(), 300);
    }

    #[test]
    fn dropping_a_pool_of_parked_workers_returns() {
        drop(WallClockExecutor::new(4, None));
    }

    #[test]
    fn a_panic_mid_tick_does_not_strand_the_pool() {
        let executor = WallClockExecutor::new(2, None);
        let mut shards: Vec<Shard> = (0..2).map(|i| shard_with_session(i, 9, 8)).collect();
        shards[0].poison_for_test = true;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            executor.step_shards(&mut shards)
        }))
        .expect_err("a poisoned shard must panic the tick");
        // Both shards were taken and the survivor's result discarded with the
        // tick: nothing of it is left to leak into the next one.
        assert_eq!(executor.worker_tasks().iter().sum::<u64>(), 2);
        let mut fresh: Vec<Shard> = (0..2).map(|i| shard_with_session(i, 9, 8)).collect();
        let results = executor.step_shards(&mut fresh).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(fresh.iter().map(|s| s.id).collect::<Vec<_>>(), [0, 1]);
        // Dropping joins every worker; a stranded one would hang here.
        drop(executor);
    }
}
