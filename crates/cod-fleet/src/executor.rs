//! The execution engine: a fixed pool of stepping threads — the fleet driver
//! plus spawned workers — stepping shard batches in real time.
//!
//! Every fleet run steps its shards here, on one pool of
//! [`crate::fleet::ExecutionMode::threads_for`] threads;
//! [`crate::fleet::ExecutionMode::Modeled`] is the 1-thread pool, the driver
//! alone. The modeled costs the shards return answer "how much CPU would this
//! tick cost"; the pool's wall time answers "how fast does the hardware
//! actually serve it". This is the only place in the workspace that creates
//! a thread (`clippy.toml` bans it everywhere else). A
//! [`WallClockExecutor`] spawns its workers **once per fleet run**, so the
//! per-tick cost is a task hand-off, not a thread spawn, and every tick the
//! fleet driver hands over one *shard-batch task* per shard:
//!
//! * there is one queue — a `Mutex` around the shards ready to step, the
//!   results stepped so far and the pool's counters — and two `Condvar`s;
//! * the driver is worker 0 of its own pool: it pushes the tick's shards,
//!   wakes any parked worker and then steps shards off the same queue
//!   itself, exactly as a worker does; only when nothing is left to take
//!   does it wait for the shards still out on other threads — so a
//!   `threads`-thread pool spawns `threads - 1` workers, and a 1-thread
//!   pool spawns none and hands nothing off;
//! * each shard has a **home thread**, thread `id % threads`, as each module
//!   of the paper's COD keeps its own desktop PC: a thread takes the
//!   lowest-id ready shard whose home it is, and only then the lowest-id
//!   ready shard of any home, so a shard's racks stay in one core's caches
//!   from tick to tick while no ready shard waits for a busy home;
//! * a thread that finds nothing ready — a worker between ticks, the driver
//!   waiting for the shards still out — **spins** for at most
//!   `SPIN_BUDGET`, yielding the CPU each round, on a counter the other
//!   side bumps, and only then parks on its condvar (the check and the park
//!   happen under the lock, so no wake-up is lost). A tick's serial gap is
//!   far shorter than the budget, so a busy pool hands a tick over without a
//!   sleep and wake; an idle one parks and costs no CPU. A worker that is
//!   home to no shard of the tick (more threads than shards) parks at once,
//!   and a condvar is notified only when a thread is parked on it;
//! * results are **merged in shard-id order**, which is what keeps a run
//!   bit-identical to a 1-thread run of the same configuration at *any*
//!   thread count: threads decide only who executes a shard's
//!   batch, never what the batch computes or the order its results are
//!   folded in.
//!
//! A tick is one task per shard — a handful — so one lock is never the
//! bottleneck.
//!
//! Wall-clock timings live beside the deterministic outcome (see
//! [`crate::fleet::WallClockStats`]), never inside it: `FLEET_cod.json`
//! carries no wall numbers and stays byte-identical per seed whether a run
//! took one thread or eight.

#![allow(
    clippy::disallowed_types,
    reason = "WallStopwatch and the per-task worker spans live here by design; timings are \
              returned beside the FleetOutcome (WallClockStats) and never serialized into \
              FLEET_cod.json"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "the executor pool is the workspace's only thread spawner; its fold order is \
              proved scheduling-independent by the wallclock equivalence gates"
)]

use std::sync::atomic::{AtomicU64, Ordering};
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
/// measure real time. `clippy.toml` bans `Instant` everywhere but the three
/// files that allow it (this is one), so routing every fleet timing through
/// here keeps the fence mechanical: a stray clock read
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
type TickResult = (Vec<Completed>, Micros);

/// What a task reports back: the shard (home again for the next tick) with
/// its step's result — which may itself be a session error — or, if the
/// step panicked, the payload `catch_unwind` caught; the shard is then lost
/// with the task's stack.
type TaskDone = std::thread::Result<(Shard, Result<TickResult, CbError>)>;

/// How long a stepping thread that finds nothing ready spins, yielding the
/// CPU each round, before it parks on its condvar.
///
/// A `fleet_churn` tick (4 shards on 2 threads, one frame per session per
/// tick) leaves a worker ~9 µs between its tasks of two ticks while the
/// driver folds the last one in, and a task steps for ~25 µs, so a 100 µs
/// budget covers every gap of a busy pool, handing its ticks over without a
/// futex sleep and wake, while an idle pool still parks within a tenth of a
/// millisecond. On a 2-core x86-64 box, this budget and the home thread
/// together raised `fleet_churn`'s frames per wall second from a median
/// 99.8k to 114.2k (ten alternating 20 s pairs, the change ahead in all
/// ten) and cut a traced drain's parks from 3 299 to 19; pinned to one core
/// it read 81.4k against 83.9k.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Everything the driver and the workers share, under the pool's one lock.
struct Queue {
    /// Shards handed over for this tick and not yet taken by any thread, in
    /// shard-id order.
    ready: Vec<Shard>,
    /// Results of this tick so far, in the order the tasks finished.
    done: Vec<TaskDone>,
    /// Cleared on drop: a worker that finds nothing ready exits instead of
    /// parking.
    live: bool,
    /// Shards in the latest tick posted: a worker of a higher index is home
    /// to none of them, so it parks at once instead of spinning.
    homes: usize,
    /// Spawned workers parked on [`Pool::work`].
    parked_workers: usize,
    /// Whether the driver is parked on [`Pool::finished`].
    driver_parked: bool,
    /// Shard-batch tasks run, per stepping thread (0 is the driver). Purely
    /// diagnostic, like `parks`: they describe how the race unfolded, never
    /// what was computed, and are never serialized into `FLEET_cod.json`.
    tasks: Vec<u64>,
    /// Times each stepping thread found nothing ready, spun out its budget
    /// and parked — for the driver, times it parked waiting on shards still
    /// out on a worker.
    parks: Vec<u64>,
}

impl Queue {
    /// Takes the shard stepping thread `thread` runs next, counting the task.
    fn take(&mut self, thread: usize) -> Option<Shard> {
        let threads = self.tasks.len();
        let position = next_task(self.ready.iter().map(|s| s.id), thread, threads)?;
        self.tasks[thread] += 1;
        Some(self.ready.remove(position))
    }
}

/// The position, among the ready shards' `ids`, of the shard that stepping
/// thread `thread` of `threads` takes: the lowest id whose home it is (shard
/// `i`'s home is thread `i % threads`), else the lowest id of any home.
fn next_task(ids: impl Iterator<Item = usize>, thread: usize, threads: usize) -> Option<usize> {
    ids.enumerate()
        .min_by_key(|&(_, id)| (id % threads != thread, id))
        .map(|(position, _)| position)
}

/// The queue, the two conditions threads park on, and the two counters they
/// spin on before parking.
struct Pool {
    queue: Mutex<Queue>,
    /// Workers park here until shards are ready or the pool shuts down.
    work: Condvar,
    /// The driver parks here, once it has nothing left to take, until every
    /// shard of the tick has reported.
    finished: Condvar,
    /// Bumped under the lock when the driver posts a tick and when the pool
    /// shuts down: what a worker with nothing ready spins on.
    posted: AtomicU64,
    /// Bumped under the lock when a worker reports a result: what the driver
    /// spins on while shards are still out.
    reported: AtomicU64,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Shards are stepped outside the lock, so only a failed allocation
        // in a push can poison it.
        self.queue.lock().expect("executor queue poisoned")
    }

    /// Releases `queue`, spins until `counter` moves off the value it held
    /// under the lock or [`SPIN_BUDGET`] runs out, and takes the lock back.
    /// Returns the guard and whether the counter moved. The counters are
    /// only written under the lock, which orders the queue itself; a relaxed
    /// load is enough to say when to look again.
    fn spin<'a>(
        &'a self,
        queue: MutexGuard<'a, Queue>,
        counter: &AtomicU64,
    ) -> (MutexGuard<'a, Queue>, bool) {
        let seen = counter.load(Ordering::Relaxed);
        drop(queue);
        let started = Instant::now();
        let moved = loop {
            if counter.load(Ordering::Relaxed) != seen {
                break true;
            }
            if started.elapsed() >= SPIN_BUDGET {
                break false;
            }
            // Yield rather than busy-wait: on a box with fewer cores than
            // stepping threads the thread being waited for needs this one.
            std::thread::yield_now();
        };
        (self.lock(), moved)
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
                homes: 0,
                parked_workers: 0,
                driver_parked: false,
                tasks: vec![0; threads],
                parks: vec![0; threads],
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
            posted: AtomicU64::new(0),
            reported: AtomicU64::new(0),
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

    /// Per-thread count of times the thread found nothing ready, spun out
    /// its budget and parked, indexed by worker (0 is the caller, which
    /// parks only to wait for shards still out on a worker). Diagnostic
    /// only — the values depend on the race and are never part of the
    /// deterministic outcome.
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
        let pool = &*self.pool;
        // Wall-clock µs at which the caller ran out of shards to take.
        let mut idle_since: Option<u64> = None;
        let done = {
            // The caller takes its first task before it lets go of the lock,
            // so it always runs the first task of a tick: shard 0, whose
            // home it is. The outcome does not depend on who runs what; the
            // makespan can: a heterogeneous rack lists its fastest — and so
            // fullest — shard first, and the longest task should start first.
            let mut queue = pool.lock();
            queue.ready.append(shards);
            queue.homes = expected;
            pool.posted.fetch_add(1, Ordering::Relaxed);
            if queue.parked_workers > 0 {
                pool.work.notify_all();
            }
            let mut spun = false;
            loop {
                if let Some(shard) = queue.take(0) {
                    drop(queue);
                    let done = run_task(0, shard, wall);
                    queue = pool.lock();
                    queue.done.push(done);
                } else if queue.done.len() < expected {
                    if idle_since.is_none() {
                        idle_since = wall.map(WallTrace::now_us);
                    }
                    if spun {
                        queue.parks[0] += 1;
                        queue.driver_parked = true;
                        queue = pool.finished.wait(queue).expect("executor queue poisoned");
                        queue.driver_parked = false;
                        spun = false;
                    } else {
                        let moved;
                        (queue, moved) = pool.spin(queue, &pool.reported);
                        spun = !moved;
                    }
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
        let mut queue = self.pool.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.live = false;
        // A spinning worker sees the counter move and exits; a parked one is
        // woken.
        self.pool.posted.fetch_add(1, Ordering::Relaxed);
        if queue.parked_workers > 0 {
            self.pool.work.notify_all();
        }
        drop(queue);
        for worker in self.workers.drain(..) {
            // A task's panic already surfaced through `step_shards`; nothing
            // useful left to propagate.
            let _ = worker.join();
        }
    }
}

/// One spawned worker's life: take a ready shard, step it outside the lock,
/// report it; spin and then park while nothing is ready; exit once the pool
/// is no longer live.
fn worker_loop(index: usize, pool: &Pool, wall: Option<&WallTrace>) {
    loop {
        // Wall-clock µs at which this worker first found nothing ready.
        let mut idle_since: Option<u64> = None;
        let task = {
            let mut queue = pool.lock();
            let mut spun = false;
            loop {
                if let Some(shard) = queue.take(index) {
                    break Some(shard);
                }
                if !queue.live {
                    break None;
                }
                if idle_since.is_none() {
                    idle_since = wall.map(WallTrace::now_us);
                }
                if spun || index >= queue.homes {
                    queue.parks[index] += 1;
                    queue.parked_workers += 1;
                    queue = pool.work.wait(queue).expect("executor queue poisoned");
                    queue.parked_workers -= 1;
                    spun = false;
                } else {
                    let moved;
                    (queue, moved) = pool.spin(queue, &pool.posted);
                    spun = !moved;
                }
            }
        };
        // Recorded with the queue released: the trace lane has its own lock.
        if let (Some(w), Some(since)) = (wall, idle_since) {
            w.complete(WallTrace::worker_lane(index), "idle".to_string(), "idle", since);
        }
        let Some(shard) = task else { return };
        let done = run_task(index, shard, wall);
        let mut queue = pool.lock();
        queue.done.push(done);
        pool.reported.fetch_add(1, Ordering::Relaxed);
        let driver_parked = queue.driver_parked;
        drop(queue);
        if driver_parked {
            pool.finished.notify_one();
        }
    }
}

/// One shard-batch task, on whichever stepping thread took it: step the
/// shard, recording the span on worker `index`'s trace lane, and catch a
/// panic so that it surfaces through `step_shards` as a failed join instead
/// of unwinding through the pool.
fn run_task(index: usize, mut shard: Shard, wall: Option<&WallTrace>) -> TaskDone {
    let start = wall.map(WallTrace::now_us);
    let shard_id = shard.id;
    let done: TaskDone = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let result = shard.step_batch();
        (shard, result)
    }));
    if let (Some(w), Some(start)) = (wall, start) {
        w.complete(WallTrace::worker_lane(index), format!("shard{shard_id}"), "step", start);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use crate::workload::{generate, WorkloadConfig};
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Whatever the shard count, thread count and number of ticks, the
        /// pool's per-tick results equal stepping the same shards one after
        /// another, and the shards come home in id order every tick.
        #[test]
        fn executor_steps_match_sequential_steps_at_any_thread_count(
            shards in 1usize..7,
            threads in 1usize..5,
            ticks in 1usize..6,
            seed in 0u64..(1 << 32),
        ) {
            // Six-frame sessions stepped two frames a tick retire on the third.
            let prepare =
                || (0..shards).map(|i| shard_with_batch(i, seed + i as u64, 6, 2)).collect();
            let mut reference: Vec<Shard> = prepare();
            let mut pooled: Vec<Shard> = prepare();
            let executor = WallClockExecutor::new(threads, None);
            for tick in 0..ticks {
                let expected: Vec<TickResult> =
                    reference.iter_mut().map(|s| s.step_batch().unwrap()).collect();
                let results = executor.step_shards(&mut pooled).unwrap();
                prop_assert_eq!(&results, &expected, "tick {} at {} threads", tick, threads);
                let ids: Vec<usize> = pooled.iter().map(|s| s.id).collect();
                prop_assert_eq!(ids, (0..shards).collect::<Vec<_>>());
            }
            prop_assert_eq!(executor.worker_tasks().iter().sum::<u64>(), (shards * ticks) as u64);
        }
    }

    #[test]
    fn a_thread_takes_its_own_lowest_shard_first_else_the_lowest() {
        // Two threads: shards 0, 2, 4 are thread 0's, 1, 3, 5 thread 1's.
        assert_eq!(next_task([0, 1, 2, 3].into_iter(), 0, 2), Some(0));
        assert_eq!(next_task([0, 1, 2, 3].into_iter(), 1, 2), Some(1));
        assert_eq!(next_task([1, 2, 3].into_iter(), 1, 2), Some(0));
        assert_eq!(next_task([2, 3, 5].into_iter(), 1, 2), Some(1), "own shard 3 before 2");
        // With none of its own left, a thread takes the lowest id of any home.
        assert_eq!(next_task([3, 5].into_iter(), 0, 2), Some(0));
        assert_eq!(next_task([4, 1, 7].into_iter(), 2, 3), Some(1), "order-independent");
        // Three threads: shard 4's home is thread 1, shard 5's thread 2.
        assert_eq!(next_task([2, 4, 5].into_iter(), 1, 3), Some(1));
        assert_eq!(next_task([3, 5].into_iter(), 1, 3), Some(0));
        // A single thread is every shard's home.
        assert_eq!(next_task([2, 5, 6].into_iter(), 0, 1), Some(0));
        assert_eq!(next_task(std::iter::empty(), 0, 2), None);
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
        // held to below. A pool counting every spin round reads in the
        // thousands here.
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
        // The spawned worker spins out its budget and parks between ticks
        // instead of polling without end: at most one park per tick plus one
        // before the first, with slack for spurious wake-ups (spinning only
        // lowers the count).
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
    fn dropping_a_pool_right_after_a_tick_returns() {
        // The workers are still inside their spin budget when the pool
        // drops, so no condvar wake-up reaches them: each must find the pool
        // shut down when its spin ends (the drop bumps the counter it spins
        // on) and exit rather than park.
        for threads in [2usize, 4] {
            let executor = WallClockExecutor::new(threads, None);
            let mut shards: Vec<Shard> =
                (0..threads).map(|i| shard_with_batch(i, 3, 4, 1)).collect();
            executor.step_shards(&mut shards).unwrap();
            drop(executor);
        }
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
