//! The simulation kernel: virtual clock, deterministic event queue, and
//! one-shot completions.
//!
//! All simulation state (links, flows, FIFOs, traces, scheduler bookkeeping)
//! hangs off [`Kernel`]. A world lives on one OS thread and the kernel sits
//! in a `RefCell` owned by [`crate::Sim`], so event callbacks get
//! `&mut Kernel` and can mutate anything; a nested borrow is a bug and
//! panics.
//!
//! Determinism: events are ordered by `(time, sequence-number)` where the
//! sequence number is assigned at scheduling time. Two events scheduled for
//! the same instant therefore execute in scheduling order, independent of
//! heap internals. Flow completions live in their own indexed queue (one
//! entry per active flow, see [`crate::flow`]) and are merged with the event
//! heap by the same key.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::rc::Rc;

use crate::fifo::FifoTable;
use crate::flow::FlowNet;
use crate::metrics::Metrics;
use crate::sched::SchedState;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Words of closure capture an inline [`SmallFn`] holds without boxing.
const INLINE_WORDS: usize = 2;

/// Inline closure storage: two pointer-aligned words.
type InlineData = MaybeUninit<[*mut (); INLINE_WORDS]>;

/// A type-erased `FnOnce(&mut Kernel, A)` that stores closures of up to
/// two words inline instead of boxing them.
///
/// Event churn at paper scale is dominated by tiny closures — a completion
/// handle, a `(machine, slot)` or `(rank, token)` pair — so keeping the
/// capture inside the event itself removes a heap round-trip per scheduled
/// event, queued FIFO task and completion callback. Closures larger than
/// two words, or aligned above a pointer, fall back to a (thin) box,
/// transparently. The whole thing is three words — payload plus a
/// `&'static` vtable — which keeps [`Event`] at 40 bytes (asserted below):
/// growing events would slow every `BinaryHeap` sift.
pub(crate) struct SmallFn<A: 'static> {
    data: InlineData,
    vtable: &'static FnVTable<A>,
}

/// A callback run by the event loop or by a completion. Runs at most once.
pub(crate) type SmallAction = SmallFn<()>;

struct FnVTable<A> {
    call: unsafe fn(*mut InlineData, &mut Kernel, A),
    drop: unsafe fn(*mut InlineData),
    /// Whether the closure lives in the payload itself (read by tests).
    #[cfg_attr(not(test), allow(dead_code))]
    inline: bool,
}

impl<A: 'static> SmallFn<A> {
    pub(crate) fn new<F: FnOnce(&mut Kernel, A) + 'static>(f: F) -> Self {
        let mut data = InlineData::uninit();
        if size_of::<F>() <= size_of::<InlineData>() && align_of::<F>() <= align_of::<InlineData>()
        {
            // SAFETY: `F` fits the payload in size and alignment.
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            SmallFn {
                data,
                vtable: &FnVTable {
                    call: call_inline::<F, A>,
                    drop: drop_inline::<F>,
                    inline: true,
                },
            }
        } else {
            let p = Box::into_raw(Box::new(f));
            // SAFETY: a thin pointer fits the payload.
            unsafe { data.as_mut_ptr().cast::<*mut F>().write(p) };
            SmallFn {
                data,
                vtable: &FnVTable {
                    call: call_boxed::<F, A>,
                    drop: drop_boxed::<F>,
                    inline: false,
                },
            }
        }
    }

    /// Invoke the closure, consuming it.
    pub(crate) fn call(self, k: &mut Kernel, arg: A) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: the payload holds the closure `vtable` was built for, and
        // `ManuallyDrop` keeps it from being dropped after the call moved it
        // out.
        unsafe { (this.vtable.call)(&mut this.data, k, arg) }
    }

    /// Whether the closure is stored inline (no heap allocation).
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        self.vtable.inline
    }
}

impl SmallAction {
    /// Wrap a plain `FnOnce(&mut Kernel)`.
    pub(crate) fn action(f: impl FnOnce(&mut Kernel) + 'static) -> Self {
        SmallFn::new(move |k, ()| f(k))
    }
}

impl<A: 'static> Drop for SmallFn<A> {
    fn drop(&mut self) {
        // SAFETY: the closure was never called (`call` forgets `self`).
        unsafe { (self.vtable.drop)(&mut self.data) }
    }
}

unsafe fn call_inline<F: FnOnce(&mut Kernel, A), A>(data: *mut InlineData, k: &mut Kernel, a: A) {
    // SAFETY: `data` holds an `F`, read out exactly once.
    let f = unsafe { data.cast::<F>().read() };
    f(k, a)
}

unsafe fn drop_inline<F>(data: *mut InlineData) {
    // SAFETY: `data` holds an `F` that was never moved out.
    unsafe { std::ptr::drop_in_place(data.cast::<F>()) }
}

unsafe fn call_boxed<F: FnOnce(&mut Kernel, A), A>(data: *mut InlineData, k: &mut Kernel, a: A) {
    // SAFETY: `data` holds the pointer `Box::into_raw` gave for an `F`.
    let f = unsafe { Box::from_raw(data.cast::<*mut F>().read()) };
    f(k, a)
}

unsafe fn drop_boxed<F>(data: *mut InlineData) {
    // SAFETY: as in `call_boxed`; the box is freed exactly once.
    drop(unsafe { Box::from_raw(data.cast::<*mut F>().read()) });
}

/// A scheduled callback. Timer wakes (the `SimCtx::delay` fast path) are
/// ordinary two-word actions too; flow completions are not events at all
/// but live in the flow network's own queue.
pub(crate) struct Event {
    at: SimTime,
    seq: u64,
    action: SmallAction,
}

const _: () = assert!(size_of::<Event>() == 40, "Event grew past 40 bytes");

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

enum CompletionState {
    Pending {
        /// Rank ids to make runnable when this completes.
        waiters: Vec<usize>,
        /// The first callback, kept inline: most completions get exactly
        /// one.
        first: Option<SmallAction>,
        /// Later callbacks; they run after `first`, in registration order.
        rest: Vec<SmallAction>,
        /// Parts still outstanding for a [`Kernel::completion_all`]; the
        /// last part to finish completes this one.
        parts_left: usize,
    },
    Done,
}

/// A one-shot completion signal.
///
/// Ranks block on completions via [`crate::SimCtx::wait`]; event callbacks
/// chain off them via [`Kernel::on_complete`]. Cloning yields another handle
/// to the same underlying signal. Like the rest of a world, completions
/// belong to the thread that runs it.
#[derive(Clone)]
pub struct Completion(Rc<RefCell<CompletionState>>);

impl Completion {
    pub(crate) fn new() -> Self {
        Completion(Rc::new(RefCell::new(CompletionState::Pending {
            waiters: Vec::new(),
            first: None,
            rest: Vec::new(),
            parts_left: 0,
        })))
    }

    /// Whether the completion has fired.
    pub fn is_done(&self) -> bool {
        matches!(*self.0.borrow(), CompletionState::Done)
    }
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Completion({})",
            if self.is_done() { "done" } else { "pending" }
        )
    }
}

/// The heart of the simulator. See module docs.
pub struct Kernel {
    now: SimTime,
    pub(crate) next_seq: u64,
    pub(crate) queue: BinaryHeap<Event>,
    pub(crate) flows: FlowNet,
    pub(crate) fifos: FifoTable,
    pub(crate) sched: SchedState,
    /// Trace recorder (spans + instants) for timeline output.
    pub trace: Trace,
    /// Metrics registry (counters, gauges, histograms); disabled by default.
    pub metrics: Metrics,
    executed_events: u64,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// A fresh kernel at t = 0 with no hardware.
    pub fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            flows: FlowNet::new(),
            fifos: FifoTable::new(),
            sched: SchedState::new(),
            trace: Trace::new(),
            metrics: Metrics::new(),
            executed_events: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far, flow completions included
    /// (diagnostics).
    pub fn executed_events(&self) -> u64 {
        self.executed_events
    }

    /// Superseded flow completions discarded so far. Always 0: a reshare
    /// re-keys a flow's single queue entry in place, so no completion is
    /// ever stale. Kept for callers that report it.
    pub fn stale_events_dropped(&self) -> u64 {
        0
    }

    /// Times the event queue was compacted. Always 0, for the same reason
    /// as [`Kernel::stale_events_dropped`].
    pub fn heap_compactions(&self) -> u64 {
        0
    }

    /// Entries currently queued: scheduled events plus one completion per
    /// active flow (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.flows.due.len()
    }

    /// Push an event, assigning the next sequence number.
    fn push_event(&mut self, at: SimTime, action: SmallAction) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Event { at, seq, action });
    }

    /// Schedule `action` to run at absolute time `at`. Scheduling into the
    /// past is clamped to "now" (it still runs strictly after the current
    /// callback returns).
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Kernel) + 'static) {
        let at = at.max(self.now);
        self.push_event(at, SmallAction::action(action));
    }

    /// Arm and schedule a bare timer wake for rank `tid`, `d` from now: the
    /// `SimCtx::delay` fast path. One event, same `(time, seq)` key a
    /// completion-based delay would have consumed — virtual times are
    /// unchanged — but no completion: the `(tid, token)` capture is two
    /// words and sits inline in the event.
    pub(crate) fn schedule_wake(&mut self, tid: usize, d: SimDuration) {
        let token = self.sched.arm_wake(tid);
        self.push_event(
            self.now + d,
            SmallAction::action(move |k| k.sched.fire_wake(tid, token)),
        );
    }

    /// Make rank `tid` runnable if it is blocked — the wake half of
    /// [`crate::SimCtx::park`]. A no-op for a rank that is running, ready
    /// or finished. Granting order is unchanged: woken ranks still receive
    /// the token in ascending id order once the current event returns.
    pub fn wake(&mut self, tid: usize) {
        self.sched.make_runnable(tid);
    }

    /// Schedule `action` to run `d` from now.
    pub fn schedule_in(&mut self, d: SimDuration, action: impl FnOnce(&mut Kernel) + 'static) {
        self.schedule_at(self.now + d, action);
    }

    /// Create a fresh pending completion.
    pub fn completion(&mut self) -> Completion {
        Completion::new()
    }

    /// Create a completion that fires `d` from now.
    pub fn completion_in(&mut self, d: SimDuration) -> Completion {
        let c = Completion::new();
        let c2 = c.clone();
        self.schedule_in(d, move |k| k.complete(&c2));
        c
    }

    /// Create a completion that fires when all of `parts` have fired.
    /// An empty slice yields an already-done completion.
    pub fn completion_all(&mut self, parts: &[Completion]) -> Completion {
        let all = Completion::new();
        let pending = parts.iter().filter(|c| !c.is_done());
        let left = pending.clone().count();
        if left == 0 {
            self.complete(&all);
            return all;
        }
        if let CompletionState::Pending { parts_left, .. } = &mut *all.0.borrow_mut() {
            *parts_left = left;
        }
        for part in pending {
            let all = all.clone();
            self.on_complete(part, move |k| k.part_done(&all));
        }
        all
    }

    /// One part of a [`Kernel::completion_all`] finished: complete `all`
    /// once it was the last.
    fn part_done(&mut self, all: &Completion) {
        let last = match &mut *all.0.borrow_mut() {
            CompletionState::Pending { parts_left, .. } => {
                *parts_left -= 1;
                *parts_left == 0
            }
            CompletionState::Done => false,
        };
        if last {
            self.complete(all);
        }
    }

    /// Fire a completion: wake all waiting threads and run all chained
    /// callbacks (in registration order). Completing twice is a no-op.
    pub fn complete(&mut self, c: &Completion) {
        let prev = c.0.replace(CompletionState::Done);
        if let CompletionState::Pending {
            waiters,
            first,
            rest,
            ..
        } = prev
        {
            for tid in waiters {
                self.sched.make_runnable(tid);
            }
            for cb in first.into_iter().chain(rest) {
                cb.call(self, ());
            }
        }
    }

    /// Run `action` when `c` completes; immediately if it already has.
    pub fn on_complete(&mut self, c: &Completion, action: impl FnOnce(&mut Kernel) + 'static) {
        let mut st = c.0.borrow_mut();
        match &mut *st {
            CompletionState::Pending { first, rest, .. } => {
                let action = SmallAction::action(action);
                if first.is_none() {
                    *first = Some(action);
                } else {
                    rest.push(action);
                }
            }
            CompletionState::Done => {
                drop(st);
                action(self);
            }
        }
    }

    /// Register sim thread `tid` as a waiter. Returns `true` if the
    /// completion was already done (no registration happened).
    pub(crate) fn add_waiter(&mut self, c: &Completion, tid: usize) -> bool {
        let mut st = c.0.borrow_mut();
        match &mut *st {
            CompletionState::Pending { waiters, .. } => {
                waiters.push(tid);
                false
            }
            CompletionState::Done => true,
        }
    }

    /// Whether any events remain queued.
    pub fn has_pending_events(&self) -> bool {
        !self.queue.is_empty() || self.flows.due.len() > 0
    }

    /// Execute the earliest pending event or flow completion (advancing the
    /// clock to it). Returns `false` if nothing was queued.
    ///
    /// The event heap and the flow-completion queue are merged by their
    /// `(time, seq)` keys, which are unique because both draw `seq` from
    /// the same counter: the pop order is the one a single queue would give.
    pub fn step(&mut self) -> bool {
        let flow_first = match (self.flows.due.peek(), self.queue.peek()) {
            (Some(f), Some(ev)) => f < (ev.at, ev.seq),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if flow_first {
            let (at, fid) = self.flows.due.pop().expect("peeked flow completion");
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.executed_events += 1;
            self.finish_flow(fid);
            return true;
        }
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.executed_events += 1;
        ev.action.call(self, ());
        true
    }

    /// Run the event loop until the queue drains. For pure event-driven
    /// simulations (no sim threads).
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Run the event loop until `c` completes or the queue drains. Returns
    /// `true` if `c` completed.
    pub fn run_until(&mut self, c: &Completion) -> bool {
        while !c.is_done() {
            if !self.step() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts the live heap bytes of the calling thread only, so tests
    /// running in parallel do not disturb each other's counts.
    struct ThreadCounting;

    thread_local! {
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    fn track(delta: isize) {
        let _ = LIVE.try_with(|l| l.set(l.get() + delta));
    }

    unsafe impl GlobalAlloc for ThreadCounting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            track(layout.size() as isize);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            track(-(layout.size() as isize));
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            track(new_size as isize - layout.size() as isize);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: ThreadCounting = ThreadCounting;

    fn live_bytes() -> isize {
        LIVE.with(|l| l.get())
    }

    /// Counts its own drops.
    struct Dropper(Rc<Cell<u32>>);

    impl Drop for Dropper {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn event_is_forty_bytes() {
        assert_eq!(size_of::<Event>(), 40);
        assert_eq!(size_of::<SmallAction>(), 24);
    }

    #[test]
    fn two_word_capture_stays_inline_and_drops_once() {
        let mut k = Kernel::new();
        let drops = Rc::new(Cell::new(0));
        let ran = Rc::new(Cell::new(0u64));
        // Called: the capture drops when the call consumes it.
        let (guard, r) = (Dropper(Rc::clone(&drops)), Rc::clone(&ran));
        let a = SmallAction::action(move |_| {
            let _g = &guard;
            r.set(r.get() + 1);
        });
        assert!(a.is_inline());
        a.call(&mut k, ());
        assert_eq!((ran.get(), drops.get()), (1, 1));
        // Dropped uncalled: the capture drops exactly once, too.
        let (guard, r) = (Dropper(Rc::clone(&drops)), Rc::clone(&ran));
        let b = SmallAction::action(move |_| {
            let _g = &guard;
            r.set(r.get() + 1);
        });
        assert!(b.is_inline());
        drop(b);
        assert_eq!((ran.get(), drops.get()), (1, 2));
        // A FIFO-task shape (taking an argument) is inline the same way.
        let guard = Dropper(Rc::clone(&drops));
        let t = SmallFn::<u64>::new(move |_, x| {
            let _g = &guard;
            assert_eq!(x, 7);
        });
        assert!(t.is_inline());
        t.call(&mut k, 7);
        assert_eq!(drops.get(), 3);
    }

    #[test]
    fn large_or_overaligned_captures_fall_back_to_a_box() {
        #[repr(align(16))]
        struct Aligned(u64);
        let mut k = Kernel::new();
        let drops = Rc::new(Cell::new(0));
        let sum = Rc::new(Cell::new(0u64));
        let (guard, s, extra) = (Dropper(Rc::clone(&drops)), Rc::clone(&sum), 5u64);
        let three = SmallAction::action(move |_| {
            let _g = &guard;
            s.set(s.get() + extra);
        });
        assert!(!three.is_inline(), "three words must be boxed");
        three.call(&mut k, ());
        assert_eq!((sum.get(), drops.get()), (5, 1));
        let aligned = Aligned(9);
        let s = Rc::clone(&sum);
        let boxed = SmallAction::action(move |_| {
            // Borrow the whole struct so the closure captures it, not just
            // its (8-byte-aligned) field.
            let a = &aligned;
            s.set(s.get() + a.0)
        });
        assert!(!boxed.is_inline(), "16-byte alignment must be boxed");
        boxed.call(&mut k, ());
        assert_eq!(sum.get(), 14);
        let guard = Dropper(Rc::clone(&drops));
        let uncalled = SmallAction::action(move |_| {
            let _g = &guard;
            let _ = [0u64; 3];
        });
        drop(uncalled);
        assert_eq!(drops.get(), 2);
    }

    #[test]
    fn pending_flow_slots_are_reused() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 1e9, SimDuration::from_nanos(100));
        for _ in 0..3 {
            for _ in 0..4 {
                k.start_flow(&[l], 1000, |_| {});
            }
            k.run_to_completion();
        }
        assert_eq!(k.flows.pending_slots(), 4);
        assert_eq!(k.active_flows(), 0);
    }

    #[test]
    fn sequential_flows_leave_live_bytes_at_baseline() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 1e9, SimDuration::from_nanos(100));
        let done = Rc::new(Cell::new(0u32));
        let one_flow = |k: &mut Kernel| {
            let d = Rc::clone(&done);
            k.start_flow(&[l], 1000, move |_| d.set(d.get() + 1));
            k.run_to_completion();
        };
        // The first flow sizes every queue and slab once.
        one_flow(&mut k);
        let baseline = live_bytes();
        for _ in 0..1000 {
            one_flow(&mut k);
        }
        assert_eq!(live_bytes() - baseline, 0, "1,000 flows changed live bytes");
        assert_eq!(done.get(), 1001);
        assert_eq!(k.flows.pending_slots(), 1);
    }

    #[test]
    fn completion_all_counts_parts_without_helpers() {
        let mut k = Kernel::new();
        let parts: Vec<Completion> = (0..3).map(|_| k.completion()).collect();
        k.complete(&parts[1]);
        let all = k.completion_all(&parts);
        k.complete(&parts[0]);
        assert!(!all.is_done());
        k.complete(&parts[2]);
        assert!(all.is_done());
    }

    #[test]
    fn events_execute_in_time_order() {
        let mut k = Kernel::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for (i, us) in [(1u32, 30u64), (2, 10), (3, 20)] {
            let log = Rc::clone(&log);
            k.schedule_in(SimDuration::from_micros(us), move |_| {
                log.borrow_mut().push(i)
            });
        }
        k.run_to_completion();
        assert_eq!(*log.borrow_mut(), vec![2, 3, 1]);
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_micros(30));
    }

    #[test]
    fn same_time_events_execute_in_schedule_order() {
        let mut k = Kernel::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for i in 0..100u32 {
            let log = Rc::clone(&log);
            k.schedule_in(SimDuration::from_micros(5), move |_| {
                log.borrow_mut().push(i)
            });
        }
        k.run_to_completion();
        assert_eq!(*log.borrow_mut(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_from_callbacks() {
        let mut k = Kernel::new();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(vec![]));
        let l2 = Rc::clone(&log);
        k.schedule_in(SimDuration::from_micros(1), move |k| {
            l2.borrow_mut().push("outer");
            let l3 = Rc::clone(&l2);
            k.schedule_in(SimDuration::from_micros(1), move |_| {
                l3.borrow_mut().push("inner");
            });
        });
        k.run_to_completion();
        assert_eq!(*log.borrow_mut(), vec!["outer", "inner"]);
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_micros(2));
    }

    #[test]
    fn completion_fires_callbacks_in_order() {
        let mut k = Kernel::new();
        let c = k.completion();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for i in 0..5u32 {
            let log = Rc::clone(&log);
            k.on_complete(&c, move |_| log.borrow_mut().push(i));
        }
        assert!(!c.is_done());
        k.complete(&c);
        assert!(c.is_done());
        assert_eq!(*log.borrow_mut(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn on_complete_after_done_runs_immediately() {
        let mut k = Kernel::new();
        let c = k.completion();
        k.complete(&c);
        let hit = Rc::new(RefCell::new(false));
        let h2 = Rc::clone(&hit);
        k.on_complete(&c, move |_| *h2.borrow_mut() = true);
        assert!(*hit.borrow_mut());
    }

    #[test]
    fn double_complete_is_noop() {
        let mut k = Kernel::new();
        let c = k.completion();
        let hits = Rc::new(RefCell::new(0));
        let h2 = Rc::clone(&hits);
        k.on_complete(&c, move |_| *h2.borrow_mut() += 1);
        k.complete(&c);
        k.complete(&c);
        assert_eq!(*hits.borrow_mut(), 1);
    }

    #[test]
    fn completion_all_waits_for_every_part() {
        let mut k = Kernel::new();
        let a = k.completion_in(SimDuration::from_micros(10));
        let b = k.completion_in(SimDuration::from_micros(20));
        let all = k.completion_all(&[a, b]);
        assert!(k.run_until(&all));
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_micros(20));
    }

    #[test]
    fn completion_all_empty_is_done() {
        let mut k = Kernel::new();
        let all = k.completion_all(&[]);
        assert!(all.is_done());
    }

    #[test]
    fn run_until_reports_unreachable_completion() {
        let mut k = Kernel::new();
        let c = k.completion();
        assert!(!k.run_until(&c));
    }

    #[test]
    fn schedule_into_past_clamps_to_now() {
        let mut k = Kernel::new();
        let fired_at = Rc::new(RefCell::new(SimTime::ZERO));
        let f2 = Rc::clone(&fired_at);
        k.schedule_in(SimDuration::from_micros(10), move |k| {
            let f3 = Rc::clone(&f2);
            // deliberately "before now"
            k.schedule_at(SimTime::ZERO, move |k| *f3.borrow_mut() = k.now());
        });
        k.run_to_completion();
        assert_eq!(
            *fired_at.borrow_mut(),
            SimTime::ZERO + SimDuration::from_micros(10)
        );
    }
}
