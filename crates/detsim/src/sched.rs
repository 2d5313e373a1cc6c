//! Cooperative, deterministic scheduling of simulated ranks.
//!
//! Simulated processes (e.g. MPI ranks) run as **stackful coroutines**
//! ("fibers", see [`crate::fiber`]): each rank program gets its own stack
//! and a natural blocking programming model, but there is only one OS
//! thread. Exactly one rank executes at a time — the scheduler hands a run
//! token from rank to rank by switching stacks. A rank gives up the token
//! only at explicit blocking points (waiting on a [`Completion`], delaying).
//! When no rank is runnable, the scheduler runs the event loop until an
//! event makes one runnable. Runnable ranks are granted the token in
//! ascending rank-id order.
//!
//! Because grants depend only on (deterministic) event order and rank ids,
//! a simulation produces bit-identical virtual times on every run. The
//! full execution model — token contract, fiber discipline, the
//! determinism argument, and how this replaced the earlier
//! one-OS-thread-per-rank design — is documented in `docs/RUNTIME.md`.

use std::cell::{RefCell, RefMut};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use crate::fiber::{FiberFn, Runtime, DEFAULT_STACK_SIZE, RESUME_POISON, RESUME_RUN};
use crate::kernel::{Completion, Kernel};
use crate::time::{SimDuration, SimTime};

/// Lifecycle of one simulated rank, indexed by rank id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RankState {
    /// In the ready queue, waiting for the token.
    Ready,
    /// Holds the token.
    Running,
    /// Suspended on a blocking primitive; not in the ready queue.
    Blocked,
    /// Program returned (or unwound); never runnable again.
    Finished,
}

/// Two-level bitset of ready rank ids with O(1) lowest-id pop.
///
/// Level 0 packs one bit per rank; level 1 summarizes which level-0 words
/// are non-empty. `pop_first` finds the lowest set bit via two
/// `trailing_zeros` — constant time up to 4096 ranks, and one extra word
/// scan per further 4096. This replaces a `BTreeSet<usize>`, whose node
/// allocations and pointer chasing dominated token hand-off at paper scale
/// (1536 ranks = 256 nodes x 6).
struct ReadyQueue {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl ReadyQueue {
    fn new() -> Self {
        ReadyQueue {
            words: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Size for `n` rank ids, all bits clear.
    fn reset(&mut self, n: usize) {
        let nw = n.div_ceil(64);
        self.words.clear();
        self.words.resize(nw, 0);
        self.summary.clear();
        self.summary.resize(nw.div_ceil(64), 0);
    }

    /// Idempotent.
    fn insert(&mut self, tid: usize) {
        let w = tid / 64;
        self.words[w] |= 1u64 << (tid % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    fn remove(&mut self, tid: usize) {
        let w = tid / 64;
        if w >= self.words.len() {
            return;
        }
        self.words[w] &= !(1u64 << (tid % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
    }

    /// Remove and return the lowest ready rank id.
    fn pop_first(&mut self) -> Option<usize> {
        for (si, summary) in self.summary.iter_mut().enumerate() {
            if *summary == 0 {
                continue;
            }
            let w = si * 64 + summary.trailing_zeros() as usize;
            let bits = self.words[w];
            let remaining = bits & (bits - 1);
            self.words[w] = remaining;
            if remaining == 0 {
                *summary &= !(1u64 << (w % 64));
            }
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        None
    }
}

/// Scheduler bookkeeping; lives inside [`Kernel`] so event callbacks can wake
/// ranks.
pub(crate) struct SchedState {
    ready: ReadyQueue,
    state: Vec<RankState>,
    current: Option<usize>,
    alive: usize,
    poisoned: bool,
    /// Per-rank token of the timer wake the rank is blocked on (0 = none).
    /// Lets [`crate::SimCtx::delay`] schedule a bare `(tid, token)` wake
    /// event — no completion allocation — while still ignoring spurious
    /// wakeups from stale completion waiters.
    wake_wanted: Vec<u64>,
    /// Monotonic timer-wake token source. Never reset, so a stale wake
    /// event surviving a poisoned run can never match a later token.
    next_wake_token: u64,
}

impl SchedState {
    pub(crate) fn new() -> Self {
        SchedState {
            ready: ReadyQueue::new(),
            state: Vec::new(),
            current: None,
            alive: 0,
            poisoned: false,
            wake_wanted: Vec::new(),
            next_wake_token: 1,
        }
    }

    /// Mark a rank ready to receive the token. Idempotent; no-ops for the
    /// currently-running or already-finished ranks.
    pub(crate) fn make_runnable(&mut self, tid: usize) {
        // Running: a wakeup for the token holder is meaningless — it
        // re-checks its wait condition before blocking. Ready: already
        // queued. Finished / out of range (a stale waiter from an earlier
        // `Sim::run`): gone.
        if let Some(RankState::Blocked) = self.state.get(tid) {
            self.state[tid] = RankState::Ready;
            self.ready.insert(tid);
        }
    }

    /// Arm a timer wake for `tid`, returning its token.
    pub(crate) fn arm_wake(&mut self, tid: usize) -> u64 {
        let token = self.next_wake_token;
        self.next_wake_token += 1;
        self.wake_wanted[tid] = token;
        token
    }

    /// Fire a timer wake: wakes `tid` iff `token` is the one it is armed
    /// with (a mismatch means the wake is stale — e.g. left over from a
    /// poisoned earlier run).
    pub(crate) fn fire_wake(&mut self, tid: usize, token: u64) {
        if token != 0 && self.wake_wanted.get(tid).copied() == Some(token) {
            self.wake_wanted[tid] = 0;
            self.make_runnable(tid);
        }
    }
}

/// A deterministic simulation with cooperative coroutine ranks.
///
/// A `Sim` and everything it hands out (completions, rank contexts) belong
/// to the thread that created it: the type is `!Send`, so a world is built
/// on the thread that runs it. Rank programs may capture `Rc`/`RefCell`
/// state freely.
///
/// ```
/// use detsim::{Sim, SimDuration};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Sim::new();
/// let order = Rc::new(RefCell::new(Vec::new()));
/// let o = order.clone();
/// sim.run(2, move |ctx| {
///     ctx.delay(SimDuration::from_micros(10 * (ctx.tid() as u64 + 1)));
///     o.borrow_mut().push(ctx.tid());
/// });
/// assert_eq!(*order.borrow(), vec![0, 1]);
/// ```
pub struct Sim {
    shared: Shared,
    stack_size: usize,
}

/// The kernel, shared by the scheduler and every rank of one world.
type Shared = Rc<RefCell<Kernel>>;

/// Borrow the kernel. Every borrow is scoped to one kernel call and released
/// before the run token moves, so a failure here means a kernel borrow was
/// nested (e.g. `SimCtx::now` inside a `with_kernel` closure).
fn kernel(shared: &Shared) -> RefMut<'_, Kernel> {
    shared
        .try_borrow_mut()
        .expect("detsim: kernel borrowed re-entrantly (nested with_kernel?)")
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// A fresh simulation (empty kernel at t = 0).
    pub fn new() -> Self {
        Sim {
            shared: Rc::new(RefCell::new(Kernel::new())),
            stack_size: DEFAULT_STACK_SIZE,
        }
    }

    /// Set the per-rank fiber stack size in bytes for subsequent
    /// [`Sim::run`] calls (default 512 KiB, the same budget rank OS threads
    /// used to get). Values below 16 KiB are clamped up; the size is
    /// rounded to 16-byte alignment internally.
    ///
    /// Stacks are plain heap allocations: untouched pages cost nothing, so
    /// large worlds with a generous stack size are cheap — but there is no
    /// OS guard page. A canary at the overflow end turns an overflow into
    /// an abort with a message naming this method.
    ///
    /// ```
    /// use detsim::{Sim, SimDuration};
    ///
    /// let mut sim = Sim::new();
    /// sim.stack_size(1024 * 1024); // rank programs recurse deeply
    /// sim.run(1, |ctx| ctx.delay(SimDuration::from_micros(1)));
    /// assert_eq!(sim.now().picos(), SimDuration::from_micros(1).picos());
    /// ```
    pub fn stack_size(&mut self, bytes: usize) -> &mut Self {
        self.stack_size = bytes.max(16 * 1024);
        self
    }

    /// Mutate or inspect the kernel outside of a running simulation
    /// (topology setup, reading traces/statistics afterwards).
    ///
    /// Panics if called from inside another kernel borrow.
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut kernel(&self.shared))
    }

    /// Run `n` copies of `program` (distinguished by [`SimCtx::tid`]) to
    /// completion. Blocks the calling thread; returns when every rank has
    /// returned. Virtual time persists across calls.
    pub fn run<F>(&mut self, n: usize, program: F)
    where
        F: Fn(&SimCtx) + 'static,
    {
        let program = Rc::new(program);
        let programs: Vec<Program> = (0..n)
            .map(|_| {
                let p = Rc::clone(&program);
                Box::new(move |ctx: &SimCtx| p(ctx)) as Program
            })
            .collect();
        self.run_programs(programs);
    }

    /// Run heterogeneous per-rank programs.
    pub fn run_programs(&mut self, programs: Vec<Program>) {
        let n = programs.len();
        if n == 0 {
            return;
        }
        {
            let mut k = kernel(&self.shared);
            assert!(
                k.sched.alive == 0 && k.sched.current.is_none(),
                "Sim::run re-entered while already running"
            );
            k.sched.ready.reset(n);
            k.sched.state = vec![RankState::Ready; n];
            k.sched.wake_wanted.clear();
            k.sched.wake_wanted.resize(n, 0);
            k.sched.poisoned = false;
            k.sched.alive = n;
            for tid in 0..n {
                k.sched.ready.insert(tid);
            }
        }
        let rt = Runtime::new(n);
        let rt_ptr: *const Runtime = &rt;
        for (tid, program) in programs.into_iter().enumerate() {
            let shared = Rc::clone(&self.shared);
            let f: FiberFn = Box::new(move |first_msg| {
                fiber_main(shared, tid, rt_ptr, program, first_msg);
            });
            rt.spawn(f, self.stack_size);
        }
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| drive(&self.shared, &rt)))
            .unwrap_or_else(Outcome::Panicked);
        match outcome {
            Outcome::Completed => {}
            Outcome::Deadlock(msg) => {
                poison_teardown(&self.shared, &rt);
                panic!("{msg}");
            }
            Outcome::Panicked(p) => {
                kernel(&self.shared).sched.poisoned = true;
                poison_teardown(&self.shared, &rt);
                panic::resume_unwind(p);
            }
        }
    }

    /// Virtual time at present.
    pub fn now(&self) -> SimTime {
        kernel(&self.shared).now()
    }
}

/// A boxed per-rank program.
pub type Program = Box<dyn FnOnce(&SimCtx)>;

/// Panic payload used to unwind ranks when the simulation has been poisoned
/// (another rank panicked, or a deadlock was detected); filtered out in
/// favour of the original panic.
struct SimPoisoned;

/// How a drive loop ended.
enum Outcome {
    /// Every rank finished.
    Completed,
    /// No rank runnable and no event pending; the message lists the stuck
    /// ranks.
    Deadlock(String),
    /// A rank program (or an event callback) panicked with this payload.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// The scheduler proper: grant the token to the lowest ready rank, switch
/// into its fiber, repeat; run the event loop when nobody is ready.
///
/// This is the same decision procedure the thread-based scheduler ran
/// (pop lowest ready id, else step one event, else deadlock) — executed on
/// the scheduler's own context instead of by whichever rank was releasing
/// the token. The sequence of pops and steps, and therefore every virtual
/// timestamp, is unchanged. See `docs/RUNTIME.md`.
fn drive(shared: &Shared, rt: &Runtime) -> Outcome {
    loop {
        let next = {
            let mut k = kernel(shared);
            loop {
                if let Some(next) = k.sched.ready.pop_first() {
                    k.sched.state[next] = RankState::Running;
                    k.sched.current = Some(next);
                    break next;
                }
                if k.sched.alive == 0 {
                    return Outcome::Completed;
                }
                if !k.step() {
                    k.sched.poisoned = true;
                    let alive = k.sched.alive;
                    let blocked: Vec<usize> = (0..k.sched.state.len())
                        .filter(|&t| k.sched.state[t] != RankState::Finished)
                        .collect();
                    return Outcome::Deadlock(format!(
                        "detsim: deadlock — {alive} sim rank(s) blocked at {} with no pending \
                         events; blocked ranks {blocked:?}; active flows {}; busy fifos {:?}",
                        k.now(),
                        k.active_flows(),
                        k.busy_fifos(),
                    ));
                }
            }
        };
        // Kernel released: the fiber borrows it at its own pace.
        unsafe { rt.resume(next, RESUME_RUN) };
        if let Some(p) = rt.take_panic() {
            return Outcome::Panicked(p);
        }
    }
}

/// Unwind every unfinished fiber after the simulation is poisoned, so rank
/// stacks run their destructors before being freed. A fiber that blocks
/// *again* while unwinding (a destructor waiting on virtual time that will
/// never come) is abandoned: its stack is freed without running the
/// remaining frames. The old thread model hung forever on join in that
/// case; leaking is strictly better.
fn poison_teardown(shared: &Shared, rt: &Runtime) {
    let n = kernel(shared).sched.state.len();
    for tid in 0..n {
        {
            let mut k = kernel(shared);
            debug_assert!(k.sched.poisoned);
            if k.sched.state[tid] == RankState::Finished {
                continue;
            }
            k.sched.ready.remove(tid);
            k.sched.state[tid] = RankState::Running;
            k.sched.current = Some(tid);
        }
        unsafe { rt.resume(tid, RESUME_POISON) };
        let mut k = kernel(shared);
        if k.sched.current == Some(tid) {
            // The fiber re-blocked instead of finishing: abandon it.
            k.sched.current = None;
        }
    }
}

/// Body of every fiber: run the rank program, catch any unwind before it
/// could reach the context-switch frame, and record the outcome. On return
/// the fiber runtime parks the fiber forever (the scheduler never resumes a
/// finished fiber; its stack is freed when the runtime drops).
fn fiber_main(shared: Shared, tid: usize, rt: *const Runtime, program: Program, first_msg: usize) {
    let ctx = SimCtx { shared, tid, rt };
    let panicked = if first_msg == RESUME_RUN {
        match panic::catch_unwind(AssertUnwindSafe(|| program(&ctx))) {
            Ok(()) => None,
            Err(p) if p.is::<SimPoisoned>() => None,
            Err(p) => Some(p),
        }
    } else {
        // Poisoned before ever running: don't start the program.
        drop(program);
        None
    };
    let mut k = kernel(&ctx.shared);
    if k.sched.state[tid] != RankState::Finished {
        k.sched.state[tid] = RankState::Finished;
        k.sched.ready.remove(tid);
        k.sched.alive -= 1;
    }
    if k.sched.current == Some(tid) {
        k.sched.current = None;
    }
    if panicked.is_some() {
        k.sched.poisoned = true;
    }
    drop(k);
    if let Some(p) = panicked {
        // SAFETY: the runtime lives on the scheduler's stack for the whole
        // `run_programs` call, which outlives every fiber it resumes.
        unsafe { (*rt).store_panic(p) };
    }
}

/// Per-rank handle into the simulation. Passed to each program; provides
/// virtual-clock blocking primitives. Each method runs on the rank's own
/// fiber and may suspend it (handing the run token back to the scheduler)
/// until the wake condition holds.
pub struct SimCtx {
    shared: Shared,
    tid: usize,
    rt: *const Runtime,
}

impl SimCtx {
    /// This rank's id, `0..n`.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        kernel(&self.shared).now()
    }

    /// Mutate the kernel (start flows, submit FIFO tasks, build hardware…).
    /// Runs instantaneously in virtual time. `f` must not reach the kernel
    /// through this or any other `SimCtx` (the borrow would nest and panic);
    /// it already holds `&mut Kernel`.
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut kernel(&self.shared))
    }

    /// Block this rank for `d` of virtual time.
    ///
    /// Fast path: schedules a single bare timer-wake event — no completion,
    /// no allocation. The event fires at the same `(time, seq)` key the
    /// old completion-based implementation used, so virtual times are
    /// unchanged to the bit.
    pub fn delay(&self, d: SimDuration) {
        let mut k = kernel(&self.shared);
        k.schedule_wake(self.tid, d);
        loop {
            k = self.block(k);
            // Wakes from stale completion waiters (e.g. a `wait_any` loser
            // completing later) are spurious: the timer is still armed, so
            // give the token straight back — exactly what the old
            // completion-based delay did.
            if k.sched.wake_wanted[self.tid] == 0 {
                return;
            }
        }
    }

    /// Block until `c` completes. Returns immediately if it already has.
    pub fn wait(&self, c: &Completion) {
        let mut k = kernel(&self.shared);
        loop {
            if c.is_done() {
                return;
            }
            k.add_waiter(c, self.tid);
            k = self.block(k);
        }
    }

    /// Block until every one of `cs` completes.
    pub fn wait_all(&self, cs: &[Completion]) {
        for c in cs {
            self.wait(c);
        }
    }

    /// Block until at least one of `cs` completes; returns the index of the
    /// first (lowest-index) completed one. Panics on an empty slice.
    pub fn wait_any(&self, cs: &[Completion]) -> usize {
        assert!(!cs.is_empty(), "wait_any on empty slice");
        let mut k = kernel(&self.shared);
        loop {
            if let Some(i) = cs.iter().position(|c| c.is_done()) {
                return i;
            }
            for c in cs {
                k.add_waiter(c, self.tid);
            }
            k = self.block(k);
        }
    }

    /// Give up the token until some event callback wakes this rank with
    /// [`Kernel::wake`]. Like every blocking primitive here, a wake may be
    /// spurious (a completion this rank waited on earlier firing late), so
    /// callers re-check their own condition in a loop.
    pub fn park(&self) {
        drop(self.block(kernel(&self.shared)));
    }

    /// Yield the token; other runnable ranks (and due events) run before
    /// this rank resumes at the same virtual instant.
    pub fn yield_now(&self) {
        self.delay(SimDuration::ZERO);
    }

    /// Give up the token — suspend this fiber and switch to the scheduler —
    /// returning a re-acquired kernel borrow once the token is granted back.
    fn block<'a>(&'a self, mut guard: RefMut<'a, Kernel>) -> RefMut<'a, Kernel> {
        debug_assert_eq!(guard.sched.current, Some(self.tid));
        guard.sched.current = None;
        guard.sched.state[self.tid] = RankState::Blocked;
        drop(guard);
        let msg = unsafe { (*self.rt).yield_to_scheduler(self.tid, 0) };
        if msg == RESUME_POISON && !std::thread::panicking() {
            // Another rank panicked or a deadlock was declared; unwind this
            // rank's stack. (While already unwinding, keep going normally —
            // a destructor is doing sim work and gets one chance to run.)
            panic::resume_unwind(Box::new(SimPoisoned));
        }
        kernel(&self.shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn ready_queue_pops_in_ascending_order() {
        let mut q = ReadyQueue::new();
        q.reset(200);
        for tid in [150, 3, 64, 199, 0, 65, 127, 128] {
            q.insert(tid);
        }
        q.insert(3); // idempotent
        q.remove(127);
        q.remove(127); // idempotent
        let mut got = Vec::new();
        while let Some(t) = q.pop_first() {
            got.push(t);
        }
        assert_eq!(got, vec![0, 3, 64, 65, 128, 150, 199]);
        assert_eq!(q.pop_first(), None);
    }

    #[test]
    fn threads_interleave_by_virtual_time() {
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(vec![]));
        let l = Rc::clone(&log);
        sim.run(3, move |ctx| {
            // rank 0 sleeps 30us, rank 1 sleeps 20us, rank 2 sleeps 10us
            let d = SimDuration::from_micros(30 - 10 * ctx.tid() as u64);
            ctx.delay(d);
            l.borrow_mut().push((ctx.tid(), ctx.now().picos()));
        });
        let log = log.borrow_mut();
        assert_eq!(
            *log,
            vec![
                (2, SimDuration::from_micros(10).picos()),
                (1, SimDuration::from_micros(20).picos()),
                (0, SimDuration::from_micros(30).picos()),
            ]
        );
    }

    #[test]
    fn equal_wakeups_resolve_in_tid_order() {
        for _ in 0..10 {
            let mut sim = Sim::new();
            let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(vec![]));
            let l = Rc::clone(&log);
            sim.run(4, move |ctx| {
                ctx.delay(SimDuration::from_micros(5));
                l.borrow_mut().push(ctx.tid());
            });
            assert_eq!(*log.borrow_mut(), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn wait_on_completion_fired_by_other_thread() {
        let mut sim = Sim::new();
        let c = sim.with_kernel(|k| k.completion());
        let c2 = c.clone();
        let done_at = Rc::new(Cell::new(0));
        let d2 = Rc::clone(&done_at);
        sim.run(2, move |ctx| {
            if ctx.tid() == 0 {
                ctx.wait(&c2);
                d2.set(ctx.now().picos() as usize);
            } else {
                ctx.delay(SimDuration::from_micros(42));
                let c3 = c2.clone();
                ctx.with_kernel(move |k| k.complete(&c3));
            }
        });
        assert_eq!(done_at.get() as u64, SimDuration::from_micros(42).picos());
    }

    #[test]
    fn wait_any_returns_first_done() {
        let mut sim = Sim::new();
        let winner = Rc::new(Cell::new(usize::MAX));
        let w = Rc::clone(&winner);
        sim.run(1, move |ctx| {
            let (a, b) = ctx.with_kernel(|k| {
                (
                    k.completion_in(SimDuration::from_micros(50)),
                    k.completion_in(SimDuration::from_micros(10)),
                )
            });
            let i = ctx.wait_any(&[a, b]);
            w.set(i);
        });
        assert_eq!(winner.get(), 1);
    }

    #[test]
    fn wait_all_waits_for_latest() {
        let mut sim = Sim::new();
        let t = Rc::new(Cell::new(0));
        let t2 = Rc::clone(&t);
        sim.run(1, move |ctx| {
            let cs: Vec<_> = (1..=5)
                .map(|i| ctx.with_kernel(|k| k.completion_in(SimDuration::from_micros(i * 10))))
                .collect();
            ctx.wait_all(&cs);
            t2.set(ctx.now().picos() as usize);
        });
        assert_eq!(t.get() as u64, SimDuration::from_micros(50).picos());
    }

    #[test]
    fn determinism_many_threads() {
        let run_once = || {
            let mut sim = Sim::new();
            let log: Rc<RefCell<Vec<(usize, u64)>>> = Rc::new(RefCell::new(vec![]));
            let l = Rc::clone(&log);
            sim.run(16, move |ctx| {
                for round in 0..20u64 {
                    let d = SimDuration::from_nanos(((ctx.tid() as u64 * 7 + round * 13) % 29) + 1);
                    ctx.delay(d);
                }
                l.borrow_mut().push((ctx.tid(), ctx.now().picos()));
            });
            let v = log.borrow_mut().clone();
            v
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "simulation must be deterministic");
    }

    #[test]
    fn virtual_time_persists_across_runs() {
        let mut sim = Sim::new();
        sim.run(1, |ctx| ctx.delay(SimDuration::from_micros(10)));
        sim.run(1, |ctx| ctx.delay(SimDuration::from_micros(5)));
        assert_eq!(sim.now().picos(), SimDuration::from_micros(15).picos());
    }

    #[test]
    fn zero_threads_is_a_noop() {
        let mut sim = Sim::new();
        sim.run_programs(vec![]);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut sim = Sim::new();
        let c = sim.with_kernel(|k| k.completion());
        sim.run_programs(vec![Box::new(move |ctx: &SimCtx| {
            ctx.wait(&c); // nobody will ever complete this
        })]);
    }

    #[test]
    #[should_panic(expected = "kernel borrowed re-entrantly")]
    fn nested_with_kernel_panics() {
        let mut sim = Sim::new();
        sim.run(1, |ctx| {
            // The kernel is a RefCell: reaching it again from inside a
            // kernel closure is a clear panic, not a silent self-deadlock.
            ctx.with_kernel(|_| ctx.now());
        });
    }

    #[test]
    fn park_returns_after_wake() {
        let mut sim = Sim::new();
        let woke_at = Rc::new(Cell::new(0));
        let w = Rc::clone(&woke_at);
        sim.run(1, move |ctx| {
            let tid = ctx.tid();
            ctx.with_kernel(|k| k.schedule_in(SimDuration::from_micros(3), move |k| k.wake(tid)));
            ctx.park();
            w.set(ctx.now().picos());
        });
        assert_eq!(woke_at.get(), SimDuration::from_micros(3).picos());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn thread_panic_propagates() {
        let mut sim = Sim::new();
        sim.run(2, |ctx| {
            if ctx.tid() == 1 {
                panic!("boom");
            }
            ctx.delay(SimDuration::from_micros(100));
        });
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let mut sim = Sim::new();
        let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(vec![]));
        let l = Rc::clone(&log);
        sim.run(2, move |ctx| {
            for _ in 0..3 {
                l.borrow_mut().push(ctx.tid());
                ctx.yield_now();
            }
        });
        let v = log.borrow_mut().clone();
        assert_eq!(v, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn panic_on_first_rank_unwinds_large_world() {
        // Poison teardown must unwind every not-yet-started fiber without
        // running its program.
        let mut sim = Sim::new();
        let started = Rc::new(Cell::new(0));
        let s = Rc::clone(&started);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run(100, move |ctx| {
                s.set(s.get() + 1);
                if ctx.tid() == 0 {
                    panic!("early");
                }
                ctx.delay(SimDuration::from_micros(1));
            });
        }));
        assert!(r.is_err());
        // Rank 0 panicked before anyone else got the token.
        assert_eq!(started.get(), 1);
    }

    #[test]
    fn custom_stack_size_survives_deep_recursion() {
        fn burn(depth: usize) -> usize {
            // Defeat tail-call-ish optimization with a stack array.
            let pad = [depth as u8; 256];
            if depth == 0 {
                pad[0] as usize
            } else {
                burn(depth - 1) + pad.len()
            }
        }
        let mut sim = Sim::new();
        sim.stack_size(4 * 1024 * 1024);
        let out = Rc::new(Cell::new(0));
        let o = Rc::clone(&out);
        sim.run(1, move |ctx| {
            ctx.delay(SimDuration::from_nanos(1));
            o.set(burn(2000));
        });
        assert_eq!(out.get(), 2000 * 256);
    }
}
