//! Minimal dependency-free async runtime: a single-threaded cooperative
//! executor for crawl-scale fan-out.
//!
//! The paper's crawler drove many hundreds of parallel page loads per
//! vantage point; those tasks spend almost all their time blocked on the
//! network, not the CPU. The thread-per-shard
//! [`ParallelExecutor`](crate::par::ParallelExecutor) therefore caps
//! effective concurrency at core count, while this module decouples the
//! two: any number of in-flight tasks interleave cooperatively on one
//! thread, parked on timers or I/O readiness between polls.
//!
//! Everything is hand-rolled on `std`'s task machinery (`Future`,
//! [`std::task::Wake`]) — no external runtime:
//!
//! * **Deterministic ready queue** — woken tasks are polled in FIFO wake
//!   order. All wakes originate on the executor thread (timers, spawns,
//!   polls), so the full schedule is a pure function of the task set.
//! * **Timer wheel over [`VirtualClock`]** — `sleep_ms` registers a
//!   `(deadline, seq)` entry; when no task is ready the executor advances
//!   the virtual clock to the earliest deadline and fires it. Simulated
//!   network latency costs no wall time, exactly like `retry.rs`'s
//!   backoff sleeps.
//! * **I/O readiness** — [`IoPoll`] adapts edge-less, poll-based sources
//!   (e.g. a non-blocking [`Transport`] receive in `minedig_net::aio`);
//!   pending sources are re-polled in registration order whenever the
//!   executor runs out of ready tasks and due timers. What happens
//!   *between* those sweeps is a pluggable [`IdleWait`] strategy:
//!   [`YieldBackoff`] (the default) yields with a bounded escalation to
//!   a short sleep, while [`ParkWait`] blocks on one registered
//!   readiness source (a real socket) so waiting on an external peer
//!   burns no CPU. The strategy only runs when nothing is schedulable,
//!   so outcomes are identical across strategies.
//!
//! ## Determinism contract
//!
//! The executor never *creates* determinism — it preserves it. Campaign
//! code keeps outcomes a pure function of entity identity (domain name,
//! link code) and folds completions through
//! [`AsyncExecutor::run_ordered`]'s reorder buffer in spawn order, so
//! results are bit-identical to the sequential loop for any concurrency
//! level, fault schedule, or poll interleaving.

use crate::retry::{Clock, VirtualClock};
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::ops::ControlFlow;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Environment variable selecting the in-flight task budget of
/// [`Backend::Async`](crate::supervise::Backend::Async).
pub const CONCURRENCY_ENV: &str = "MINEDIG_CONCURRENCY";

/// Default in-flight task budget: the paper-scale crawl fan-out, far
/// beyond any core count.
pub const DEFAULT_CONCURRENCY: usize = 256;

/// Wake-side state shared between the executor and every task's waker.
/// Wakers must be `Send + Sync` by contract even though this runtime
/// never leaves its thread, hence the mutex (uncontended in practice).
struct WakeQueue {
    woken: Mutex<VecDeque<usize>>,
    wakeups: AtomicU64,
}

struct TaskWaker {
    id: usize,
    queue: Arc<WakeQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.wakeups.fetch_add(1, Ordering::Relaxed);
        self.queue.woken.lock().unwrap().push_back(self.id);
    }
}

/// Timer wheel and I/O waiter registry, shared with tasks through
/// [`Ctx`] handles.
struct Reactor {
    clock: VirtualClock,
    timer_seq: u64,
    timers: BTreeMap<(u64, u64), Waker>,
    timer_fires: u64,
    io_waiters: Vec<Waker>,
    io_repolls: u64,
}

impl Reactor {
    fn new() -> Reactor {
        Reactor {
            clock: VirtualClock::new(),
            timer_seq: 0,
            timers: BTreeMap::new(),
            timer_fires: 0,
            io_waiters: Vec::new(),
            io_repolls: 0,
        }
    }

    /// Advances the virtual clock to the earliest pending deadline and
    /// wakes every timer due at or before it. Returns false when no
    /// timers are pending.
    fn fire_next_timers(&mut self) -> bool {
        let Some((&(deadline, _), _)) = self.timers.iter().next() else {
            return false;
        };
        let now = self.clock.now_ms();
        if deadline > now {
            self.clock.sleep_ms(deadline - now);
        }
        let now = self.clock.now_ms();
        while let Some((&key, _)) = self.timers.iter().next() {
            if key.0 > now {
                break;
            }
            let waker = self.timers.remove(&key).expect("key just observed");
            self.timer_fires += 1;
            waker.wake();
        }
        true
    }
}

/// Cheap clonable handle a task uses to reach the executor's reactor:
/// virtual sleeps, the current virtual time, and I/O registration.
#[derive(Clone)]
pub struct Ctx {
    reactor: Rc<RefCell<Reactor>>,
}

impl Ctx {
    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.reactor.borrow().clock.now_ms()
    }

    /// A future that completes after `ms` virtual milliseconds. Always
    /// yields to the scheduler at least once, even for `ms == 0`.
    pub fn sleep_ms(&self, ms: u64) -> Sleep {
        Sleep {
            reactor: self.reactor.clone(),
            ms,
            key: None,
        }
    }

    /// Drives a poll-based I/O source to completion: the source is
    /// polled whenever the executor sweeps its idle I/O waiters.
    pub fn io<S: IoPoll + Unpin>(&self, source: S) -> IoFuture<S> {
        IoFuture {
            reactor: self.reactor.clone(),
            source,
        }
    }
}

/// Virtual-time sleep future returned by [`Ctx::sleep_ms`].
pub struct Sleep {
    reactor: Rc<RefCell<Reactor>>,
    ms: u64,
    key: Option<(u64, u64)>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut r = this.reactor.borrow_mut();
        match this.key {
            None => {
                let deadline = r.clock.now_ms().saturating_add(this.ms);
                let key = (deadline, r.timer_seq);
                r.timer_seq += 1;
                r.timers.insert(key, cx.waker().clone());
                this.key = Some(key);
                Poll::Pending
            }
            Some(key) => match r.timers.entry(key) {
                // Spurious poll before the deadline: refresh the
                // waker so the timer wakes the current task.
                Entry::Occupied(mut slot) => {
                    slot.insert(cx.waker().clone());
                    Poll::Pending
                }
                Entry::Vacant(_) => Poll::Ready(()),
            },
        }
    }
}

/// A poll-based readiness source: the executor's level-triggered
/// counterpart of an epoll registration. `minedig_net::aio` adapts
/// `Transport`/`FaultyTransport` receives onto this.
pub trait IoPoll {
    /// What the source yields once ready.
    type Out;
    /// Polls the source without blocking: `Ready` with the value, or
    /// `Pending` to be re-polled on the executor's next idle sweep.
    fn poll_io(&mut self) -> Poll<Self::Out>;
}

/// Future returned by [`Ctx::io`].
pub struct IoFuture<S: IoPoll> {
    reactor: Rc<RefCell<Reactor>>,
    source: S,
}

impl<S: IoPoll + Unpin> Future for IoFuture<S> {
    type Output = S::Out;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<S::Out> {
        let this = self.get_mut();
        match this.source.poll_io() {
            Poll::Ready(v) => Poll::Ready(v),
            Poll::Pending => {
                this.reactor
                    .borrow_mut()
                    .io_waiters
                    .push(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// Strategy for what the executor does between idle I/O sweeps — the
/// pluggable replacement for a hard-coded backoff. When every live task
/// is parked on a pending [`IoPoll`] source, readiness can only come
/// from outside this thread (a peer writing to a socket), so the
/// executor asks the strategy to burn or yield some time before the next
/// level-triggered re-poll.
///
/// The strategy only ever runs when *no* task is ready and *no* virtual
/// timer is due, so it cannot perturb the task schedule: outcomes stay
/// bit-identical across strategies, only `io_repolls` and CPU burn
/// change.
pub trait IdleWait {
    /// Called before idle sweep number `consecutive` (0 for the first
    /// sweep after a completion, counting up while no task completes).
    fn wait(&mut self, consecutive: u32);
}

/// Default [`IdleWait`]: yield the thread between sweeps, escalating to
/// a 100 µs sleep once the wait has clearly left the executor's hands.
/// Right for virtual-clock runs and cross-thread channel transports,
/// where readiness usually arrives within a few yields.
pub struct YieldBackoff;

impl IdleWait for YieldBackoff {
    fn wait(&mut self, consecutive: u32) {
        if consecutive > 0 {
            std::thread::yield_now();
        }
        if consecutive > 64 {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// [`IdleWait`] for real-socket runs: park on a short blocking poll of
/// one registered readiness source (e.g.
/// `TcpParker::wait` in `minedig_net::tcp`) instead of spinning on
/// zero-timeout receives. The closure gets the park budget and returns
/// whether the source looked ready — the return value is advisory; the
/// next sweep re-polls every source either way.
///
/// The first sweep after a completion (`consecutive == 0`) skips the
/// park: freshly registered sources get one immediate re-poll before
/// the executor commits to blocking.
pub struct ParkWait<F: FnMut(Duration) -> bool> {
    park: F,
    budget: Duration,
}

impl<F: FnMut(Duration) -> bool> ParkWait<F> {
    /// Parks via `park` for up to `budget` per idle sweep.
    pub fn new(budget: Duration, park: F) -> ParkWait<F> {
        ParkWait { park, budget }
    }
}

impl<F: FnMut(Duration) -> bool> IdleWait for ParkWait<F> {
    fn wait(&mut self, consecutive: u32) {
        if consecutive == 0 {
            return;
        }
        let _ready = (self.park)(self.budget);
    }
}

/// Observability counters of one async run.
#[derive(Clone, Debug, Default)]
pub struct AsyncStats {
    /// Configured in-flight task budget.
    pub concurrency: usize,
    /// Tasks spawned over the run's lifetime.
    pub tasks: u64,
    /// Tasks that ran to completion (the rest were cancelled by an
    /// early sink break).
    pub completed: u64,
    /// Peak number of simultaneously in-flight tasks — the figure that
    /// demonstrates concurrency beyond the core count.
    pub in_flight_high_water: u64,
    /// Future polls issued.
    pub polls: u64,
    /// Waker invocations.
    pub wakeups: u64,
    /// Timer entries fired by the virtual-clock wheel.
    pub timer_fires: u64,
    /// Idle sweeps that re-polled pending I/O sources.
    pub io_repolls: u64,
    /// How far the virtual clock advanced, in milliseconds: the
    /// simulated network time the run slept through for free.
    pub virtual_ms: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl AsyncStats {
    /// Completed tasks per wall-clock second.
    pub fn tasks_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return self.completed as f64;
        }
        self.completed as f64 / secs
    }

    /// Accumulates another run's counters into this one — used by the
    /// attribution scenario, which drives one async poll sweep per
    /// interval and reports the aggregate. Counters and durations add;
    /// `concurrency` and `in_flight_high_water` take the maximum (they
    /// are per-run peaks, not totals).
    pub fn absorb(&mut self, other: &AsyncStats) {
        self.concurrency = self.concurrency.max(other.concurrency);
        self.tasks += other.tasks;
        self.completed += other.completed;
        self.in_flight_high_water = self.in_flight_high_water.max(other.in_flight_high_water);
        self.polls += other.polls;
        self.wakeups += other.wakeups;
        self.timer_fires += other.timer_fires;
        self.io_repolls += other.io_repolls;
        self.virtual_ms += other.virtual_ms;
        self.elapsed += other.elapsed;
    }
}

/// An outcome folded from async completions plus the [`AsyncStats`] of
/// producing it.
#[derive(Clone, Debug)]
pub struct AsyncRun<T> {
    /// The folded outcome, bit-identical to the sequential fold.
    pub outcome: T,
    /// How the run was scheduled and how fast it went.
    pub stats: AsyncStats,
}

/// The executor core: a slab of tasks plus the FIFO ready queue. Task
/// futures may borrow caller state (`'a`) — the runtime never outlives
/// the function driving it.
struct Runtime<'a> {
    tasks: Vec<Option<Pin<Box<dyn Future<Output = ()> + 'a>>>>,
    free: Vec<usize>,
    ready: VecDeque<usize>,
    queue: Arc<WakeQueue>,
    reactor: Rc<RefCell<Reactor>>,
    live: u64,
    high_water: u64,
    spawned: u64,
    completed: u64,
    polls: u64,
    /// Consecutive idle I/O sweeps with no completion in between; drives
    /// the bounded back-off that keeps external waits from hot-spinning.
    idle_sweeps: u32,
}

/// What one scheduler step accomplished.
enum Step {
    /// Polled a ready task.
    Polled,
    /// Fired due timers after advancing the virtual clock.
    Timers,
    /// Re-woke pending I/O waiters for a re-poll sweep.
    IoSwept,
    /// Nothing to do: no ready tasks, timers, or I/O waiters.
    Idle,
}

impl<'a> Runtime<'a> {
    fn new() -> Runtime<'a> {
        Runtime {
            tasks: Vec::new(),
            free: Vec::new(),
            ready: VecDeque::new(),
            queue: Arc::new(WakeQueue {
                woken: Mutex::new(VecDeque::new()),
                wakeups: AtomicU64::new(0),
            }),
            reactor: Rc::new(RefCell::new(Reactor::new())),
            live: 0,
            high_water: 0,
            spawned: 0,
            completed: 0,
            polls: 0,
            idle_sweeps: 0,
        }
    }

    fn ctx(&self) -> Ctx {
        Ctx {
            reactor: self.reactor.clone(),
        }
    }

    fn spawn(&mut self, fut: impl Future<Output = ()> + 'a) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.tasks[slot] = Some(Box::pin(fut));
                slot
            }
            None => {
                self.tasks.push(Some(Box::pin(fut)));
                self.tasks.len() - 1
            }
        };
        self.spawned += 1;
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        // Newly spawned tasks enter the ready queue like a wake, so
        // spawn order is poll order.
        self.ready.push_back(slot);
    }

    /// Moves wake events into the ready queue in FIFO order. Stale ids
    /// (tasks that completed after the wake) are filtered at poll time.
    fn drain_woken(&mut self) {
        let mut woken = self.queue.woken.lock().unwrap();
        while let Some(id) = woken.pop_front() {
            self.ready.push_back(id);
        }
    }

    fn poll_task(&mut self, id: usize) {
        let Some(mut fut) = self.tasks[id].take() else {
            return; // stale wake of a completed slot
        };
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            queue: self.queue.clone(),
        }));
        let mut cx = Context::from_waker(&waker);
        self.polls += 1;
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.free.push(id);
                self.live -= 1;
                self.completed += 1;
                self.idle_sweeps = 0;
            }
            Poll::Pending => self.tasks[id] = Some(fut),
        }
    }

    /// Runs one scheduler step: poll one ready task, else fire timers,
    /// else sweep I/O waiters (after asking `idle` how to wait), else
    /// report idle.
    fn step(&mut self, idle: &mut dyn IdleWait) -> Step {
        self.drain_woken();
        if let Some(id) = self.ready.pop_front() {
            self.poll_task(id);
            return Step::Polled;
        }
        if self.reactor.borrow_mut().fire_next_timers() {
            return Step::Timers;
        }
        let waiters = std::mem::take(&mut self.reactor.borrow_mut().io_waiters);
        if !waiters.is_empty() {
            // Level-triggered re-poll: wake every pending source. If the
            // previous sweep made no progress the readiness must come
            // from outside this thread, so let the idle strategy yield,
            // sleep, or park on a registered source instead of spinning
            // on the poll loop.
            idle.wait(self.idle_sweeps);
            self.idle_sweeps = self.idle_sweeps.saturating_add(1);
            self.reactor.borrow_mut().io_repolls += 1;
            for w in waiters {
                w.wake();
            }
            return Step::IoSwept;
        }
        Step::Idle
    }

    /// True while any spawned task has not completed.
    fn has_live(&self) -> bool {
        self.live > 0
    }

    fn stats(&self, concurrency: usize, elapsed: Duration) -> AsyncStats {
        let r = self.reactor.borrow();
        AsyncStats {
            concurrency,
            tasks: self.spawned,
            completed: self.completed,
            in_flight_high_water: self.high_water,
            polls: self.polls,
            wakeups: self.queue.wakeups.load(Ordering::Relaxed),
            timer_fires: r.timer_fires,
            io_repolls: r.io_repolls,
            virtual_ms: r.clock.now_ms(),
            elapsed,
        }
    }
}

/// Runs `fut` to completion on a throwaway single-task runtime. The
/// convenience entry point for driving one async I/O exchange (tests,
/// protocol probes); campaign fan-out goes through [`AsyncExecutor`].
pub fn block_on<Out: 'static, Fut>(make: impl FnOnce(Ctx) -> Fut) -> Out
where
    Fut: Future<Output = Out>,
{
    let mut rt = Runtime::new();
    let out: Rc<RefCell<Option<Out>>> = Rc::new(RefCell::new(None));
    let slot = out.clone();
    let fut = make(rt.ctx());
    // Single-task runtime: the future cannot outlive this frame.
    rt.spawn(async move {
        *slot.borrow_mut() = Some(fut.await);
    });
    while rt.has_live() {
        if let Step::Idle = rt.step(&mut YieldBackoff) {
            panic!("block_on deadlocked: task pending with nothing to wake it");
        }
    }
    let out = out.borrow_mut().take();
    out.expect("task completed")
}

/// Cooperative fan-out driver: keeps up to `concurrency` item tasks in
/// flight and folds their completions in spawn (= item) order through a
/// reorder buffer, so the fold sees exactly the sequence a sequential
/// loop would produce.
#[derive(Clone, Copy, Debug)]
pub struct AsyncExecutor {
    concurrency: usize,
}

impl AsyncExecutor {
    /// Executor with an in-flight budget of `concurrency` tasks
    /// (clamped to at least 1).
    pub fn new(concurrency: usize) -> AsyncExecutor {
        AsyncExecutor {
            concurrency: concurrency.max(1),
        }
    }

    /// One task in flight: the sequential loop, with stats.
    pub fn sequential() -> AsyncExecutor {
        AsyncExecutor::new(1)
    }

    /// Configured in-flight budget.
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// Fans `source`'s items out across up to `concurrency` in-flight
    /// tasks built by `make`, folding each task's output into `acc`
    /// strictly in item order (a reorder buffer holds early finishers).
    ///
    /// A `ControlFlow::Break` from `fold` stops the run: no further
    /// items are spawned, in-flight overshoot is cancelled (dropped) and
    /// discarded. `source` may be
    /// infinite when the fold is guaranteed to break.
    pub fn run_ordered<'a, T, Out, A, I, F, Fut, Fold>(
        &self,
        source: I,
        make: F,
        acc: A,
        fold: Fold,
    ) -> AsyncRun<A>
    where
        I: IntoIterator<Item = T>,
        F: Fn(Ctx, T) -> Fut,
        Fut: Future<Output = Out> + 'a,
        Out: 'a,
        Fold: FnMut(&mut A, Out) -> ControlFlow<()>,
    {
        self.run_ordered_with(source, make, acc, fold, &mut YieldBackoff)
    }

    /// [`run_ordered`](AsyncExecutor::run_ordered) with an explicit
    /// [`IdleWait`] strategy — real-socket runs pass a
    /// [`ParkWait`] blocking on one registered source so the idle sweep
    /// parks instead of spinning. The strategy cannot change outcomes
    /// (it only runs when nothing is schedulable), just the shape of the
    /// wait.
    pub fn run_ordered_with<'a, T, Out, A, I, F, Fut, Fold>(
        &self,
        source: I,
        make: F,
        acc: A,
        mut fold: Fold,
        idle: &mut dyn IdleWait,
    ) -> AsyncRun<A>
    where
        I: IntoIterator<Item = T>,
        F: Fn(Ctx, T) -> Fut,
        Fut: Future<Output = Out> + 'a,
        Out: 'a,
        Fold: FnMut(&mut A, Out) -> ControlFlow<()>,
    {
        let started = Instant::now();
        let mut rt = Runtime::new();
        let completions: Rc<RefCell<BTreeMap<u64, Out>>> = Rc::new(RefCell::new(BTreeMap::new()));
        let mut source = source.into_iter();
        let mut acc = acc;
        let mut next_spawn = 0u64;
        let mut next_fold = 0u64;
        let mut exhausted = false;
        let mut broken = false;
        loop {
            // Top up to the in-flight budget.
            while !broken && !exhausted && rt.live < self.concurrency as u64 {
                match source.next() {
                    Some(item) => {
                        let seq = next_spawn;
                        next_spawn += 1;
                        let fut = make(rt.ctx(), item);
                        let sink = completions.clone();
                        rt.spawn(async move {
                            let out = fut.await;
                            sink.borrow_mut().insert(seq, out);
                        });
                    }
                    None => exhausted = true,
                }
            }
            // Fold every contiguous completion, in item order.
            loop {
                let next = completions.borrow_mut().remove(&next_fold);
                let Some(out) = next else { break };
                next_fold += 1;
                if fold(&mut acc, out).is_break() {
                    broken = true;
                    break;
                }
            }
            if broken || (!rt.has_live() && exhausted) {
                break;
            }
            if let Step::Idle = rt.step(idle) {
                // No ready tasks, timers, or I/O — yet tasks are live.
                // Nothing in this runtime can wake them.
                panic!("async executor deadlocked: {} tasks stuck", rt.live);
            }
        }
        let stats = rt.stats(self.concurrency, started.elapsed());
        // An early break cancels in-flight overshoot: dropping the
        // runtime drops the futures (and their timer/io registrations).
        drop(rt);
        AsyncRun {
            outcome: acc,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_drives_sleeps_in_virtual_time() {
        let started = Instant::now();
        let out = block_on(|ctx| async move {
            ctx.sleep_ms(10_000).await;
            ctx.sleep_ms(5_000).await;
            ctx.now_ms()
        });
        assert_eq!(out, 15_000);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "sleeps are virtual"
        );
    }

    #[test]
    fn run_ordered_folds_in_item_order_despite_reversed_latency() {
        // Item i sleeps (100 - i) ms: completions arrive in reverse.
        let exec = AsyncExecutor::new(128);
        let run = exec.run_ordered(
            0u64..100,
            |ctx, i| async move {
                ctx.sleep_ms(100 - i).await;
                i
            },
            Vec::new(),
            |acc: &mut Vec<u64>, i| {
                acc.push(i);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(run.outcome, (0..100).collect::<Vec<_>>());
        assert_eq!(run.stats.tasks, 100);
        assert_eq!(run.stats.completed, 100);
        assert_eq!(run.stats.in_flight_high_water, 100);
        assert!(run.stats.timer_fires >= 100);
    }

    #[test]
    fn concurrency_budget_caps_in_flight_tasks() {
        for n in [1usize, 4, 32] {
            let run = AsyncExecutor::new(n).run_ordered(
                0u64..64,
                |ctx, i| async move {
                    ctx.sleep_ms(1 + i % 7).await;
                    i
                },
                0u64,
                |acc, i| {
                    *acc += i;
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(run.outcome, (0..64).sum::<u64>(), "n={n}");
            assert!(
                run.stats.in_flight_high_water <= n as u64,
                "n={n} high water {}",
                run.stats.in_flight_high_water
            );
        }
    }

    #[test]
    fn outcome_is_identical_for_any_concurrency() {
        let reference: Vec<u64> = (0..200).map(|i| i * 3 + 1).collect();
        for n in [1usize, 2, 16, 256] {
            let run = AsyncExecutor::new(n).run_ordered(
                0u64..200,
                |ctx, i| async move {
                    // Latency keyed by item identity, not schedule.
                    ctx.sleep_ms((i * 37) % 23).await;
                    i * 3 + 1
                },
                Vec::new(),
                |acc: &mut Vec<u64>, v| {
                    acc.push(v);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(run.outcome, reference, "n={n}");
        }
    }

    #[test]
    fn break_stops_spawning_and_cancels_overshoot() {
        let run = AsyncExecutor::new(8).run_ordered(
            0u64..,
            |ctx, i| async move {
                ctx.sleep_ms(i % 5).await;
                i
            },
            Vec::new(),
            |acc: &mut Vec<u64>, i| {
                if i >= 20 {
                    return ControlFlow::Break(());
                }
                acc.push(i);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(run.outcome, (0..20).collect::<Vec<_>>());
        // The infinite source stopped; overshoot beyond the break was
        // spawned (up to the budget) but never folded.
        assert!(run.stats.tasks >= 21);
        assert!(run.stats.tasks < 40, "spawned {}", run.stats.tasks);
    }

    #[test]
    fn zero_sleep_still_yields_to_the_scheduler() {
        // Two tasks ping-ponging on 0 ms sleeps must interleave, not
        // run to completion back to back.
        let trace: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let t = trace.clone();
        AsyncExecutor::new(2).run_ordered(
            0u64..2,
            move |ctx, id| {
                let t = t.clone();
                async move {
                    for step in 0..3u32 {
                        t.borrow_mut().push((id, step));
                        ctx.sleep_ms(0).await;
                    }
                }
            },
            (),
            |_, _| ControlFlow::Continue(()),
        );
        let trace = trace.borrow();
        assert_eq!(trace.len(), 6);
        assert!(
            trace.windows(2).any(|w| w[0].0 != w[1].0),
            "tasks must interleave: {trace:?}"
        );
    }

    #[test]
    fn io_future_completes_via_idle_repoll() {
        // A source that needs several idle sweeps before turning ready.
        struct CountDown(Rc<RefCell<u32>>);
        impl IoPoll for CountDown {
            type Out = u32;
            fn poll_io(&mut self) -> Poll<u32> {
                let mut n = self.0.borrow_mut();
                if *n == 0 {
                    Poll::Ready(7)
                } else {
                    *n -= 1;
                    Poll::Pending
                }
            }
        }
        let counter = Rc::new(RefCell::new(3u32));
        let got = block_on(|ctx| {
            let source = CountDown(counter.clone());
            async move { ctx.io(source).await }
        });
        assert_eq!(got, 7);
    }

    #[test]
    fn stats_account_every_counter() {
        let run = AsyncExecutor::new(16).run_ordered(
            0u64..32,
            |ctx, i| async move {
                ctx.sleep_ms(1 + i).await;
            },
            (),
            |_, _| ControlFlow::Continue(()),
        );
        let s = &run.stats;
        assert_eq!(s.concurrency, 16);
        assert_eq!(s.tasks, 32);
        assert_eq!(s.completed, 32);
        assert_eq!(s.in_flight_high_water, 16);
        // Each task polls at least twice (register sleep, complete).
        assert!(s.polls >= 64, "polls {}", s.polls);
        assert!(s.wakeups >= 32, "wakeups {}", s.wakeups);
        assert_eq!(s.timer_fires, 32);
        assert!(s.virtual_ms >= 32, "virtual ms {}", s.virtual_ms);
        assert!(s.tasks_per_sec() > 0.0);
    }

    #[test]
    fn concurrency_defaults_and_clamps() {
        assert_eq!(AsyncExecutor::new(0).concurrency(), 1);
        assert_eq!(AsyncExecutor::sequential().concurrency(), 1);
        assert_eq!(DEFAULT_CONCURRENCY, 256);
    }

    #[test]
    fn park_wait_parks_between_idle_sweeps_without_changing_outcomes() {
        // A source that turns ready only after wall-clock time passes,
        // as a real socket would; the park strategy absorbs the wait.
        struct ReadyAfter(Instant);
        impl IoPoll for ReadyAfter {
            type Out = u32;
            fn poll_io(&mut self) -> Poll<u32> {
                if self.0.elapsed() >= Duration::from_millis(30) {
                    Poll::Ready(9)
                } else {
                    Poll::Pending
                }
            }
        }
        let parks = Rc::new(RefCell::new(0u32));
        let p = parks.clone();
        let mut idle = ParkWait::new(Duration::from_millis(5), move |budget| {
            *p.borrow_mut() += 1;
            std::thread::sleep(budget);
            false
        });
        let start = Instant::now();
        let run = AsyncExecutor::new(4).run_ordered_with(
            0u32..1,
            |ctx, _| async move { ctx.io(ReadyAfter(Instant::now())).await },
            Vec::new(),
            |acc: &mut Vec<u32>, v| {
                acc.push(v);
                ControlFlow::Continue(())
            },
            &mut idle,
        );
        assert_eq!(run.outcome, vec![9]);
        assert!(*parks.borrow() > 0, "the idle sweeps must have parked");
        // ~30 ms of waiting across 5 ms parks: the sweep count is
        // bounded by the park budget, not by how fast the CPU can spin.
        assert!(
            run.stats.io_repolls < 1_000,
            "io_repolls {} suggests spinning",
            run.stats.io_repolls
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn idle_wait_cannot_change_the_schedule() {
        // Same run, three different idle strategies: identical outcome
        // and identical scheduler counters (polls/wakeups/timer fires),
        // because the strategy only runs when nothing is schedulable.
        let run_with = |idle: &mut dyn IdleWait| {
            AsyncExecutor::new(7).run_ordered_with(
                0u64..50,
                |ctx, i| async move {
                    ctx.sleep_ms((i * 31) % 13).await;
                    i * 7
                },
                0u64,
                |acc, v| {
                    *acc = acc.wrapping_mul(31).wrapping_add(v);
                    ControlFlow::Continue(())
                },
                idle,
            )
        };
        let a = run_with(&mut YieldBackoff);
        let mut park = ParkWait::new(Duration::from_millis(1), |_| false);
        let b = run_with(&mut park);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.stats.polls, b.stats.polls);
        assert_eq!(a.stats.wakeups, b.stats.wakeups);
        assert_eq!(a.stats.timer_fires, b.stats.timer_fires);
        assert_eq!(a.stats.virtual_ms, b.stats.virtual_ms);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_peaks() {
        let mut total = AsyncStats::default();
        for i in 1..=3u64 {
            let run = AsyncExecutor::new(4).run_ordered(
                0..i,
                |ctx, j| async move { ctx.sleep_ms(j).await },
                (),
                |_, _| ControlFlow::Continue(()),
            );
            total.absorb(&run.stats);
        }
        assert_eq!(total.tasks, 6);
        assert_eq!(total.completed, 6);
        assert_eq!(total.concurrency, 4);
        assert!(total.in_flight_high_water <= 4);
        assert!(total.polls >= 6);
    }

    #[test]
    fn schedule_is_deterministic() {
        // Identical runs produce identical stats — the scheduler has no
        // hidden nondeterminism (single thread, FIFO wakes, virtual
        // time).
        let run = |_: ()| {
            AsyncExecutor::new(9).run_ordered(
                0u64..100,
                |ctx, i| async move {
                    ctx.sleep_ms((i * 13) % 11).await;
                    i
                },
                0u64,
                |acc, i| {
                    *acc ^= i.rotate_left(7);
                    ControlFlow::Continue(())
                },
            )
        };
        let a = run(());
        let b = run(());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.stats.polls, b.stats.polls);
        assert_eq!(a.stats.wakeups, b.stats.wakeups);
        assert_eq!(a.stats.timer_fires, b.stats.timer_fires);
        assert_eq!(a.stats.virtual_ms, b.stats.virtual_ms);
    }
}
