//! Stackful coroutines ("fibers") for the cooperative scheduler.
//!
//! Each simulated rank runs on its own heap-allocated stack and is entered
//! and exited by swapping the callee-saved register set — spawning a rank is
//! an allocation, and handing over the run token is a function call, not a
//! futex round-trip through the OS scheduler. The context switch saves only
//! what the System V / AAPCS64 ABIs require a callee to preserve; everything
//! else is dead across the call by definition.
//!
//! The module is deliberately minimal: a [`FiberStack`], a `fiber_switch`
//! primitive per architecture, and a [`Runtime`] that owns the per-fiber
//! saved stack pointers plus the scheduler's own context. Policy (who runs
//! next, deadlock detection, panic routing) lives in [`crate::sched`], which
//! is the only user.
//!
//! Safety model, in brief:
//!
//! * All fibers of a [`Runtime`] run on the **same OS thread**, strictly
//!   interleaved — there is no concurrency, so `Cell`s are enough for the
//!   mutable slots and the kernel sits in a `RefCell`.
//! * Unwinding never crosses a `fiber_switch`: the fiber entry wrapper
//!   catches every panic before it could reach the assembly frame.
//! * A fiber that is abandoned mid-flight (simulation poisoned while it
//!   still has frames on its stack) is never resumed again; its stack
//!   memory is freed without running the remaining destructors, which can
//!   leak heap objects but cannot touch freed memory.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::any::Any;
use std::cell::{Cell, RefCell};

/// Message passed into a fiber when it is granted the run token.
pub(crate) const RESUME_RUN: usize = 0;
/// Message passed into a fiber when the simulation has been poisoned and the
/// fiber should unwind instead of continuing its program.
pub(crate) const RESUME_POISON: usize = 1;

/// Default per-fiber stack size: matches the 512 KiB the scheduler used to
/// request for each rank's OS thread, so no program that ran under the
/// thread model can newly overflow.
pub(crate) const DEFAULT_STACK_SIZE: usize = 512 * 1024;

/// Written to the lowest word of every stack; checked after each switch back
/// to the scheduler. Fiber stacks have no OS guard page, so an overflow
/// scribbles over adjacent heap — the canary turns that into a loud abort
/// instead of silent corruption.
const STACK_CANARY: u64 = 0xFEED_FACE_CAFE_BEEF;

/// The boxed entry closure a fiber runs. Receives the first resume message
/// ([`RESUME_RUN`] or [`RESUME_POISON`]). When it returns, the fiber parks
/// in the scheduler forever.
pub(crate) type FiberFn = Box<dyn FnOnce(usize)>;

/// What `Runtime::spawn` hands a fresh stack: the entry closure plus what
/// the fiber needs to park itself once the closure has returned.
struct FiberStart {
    f: FiberFn,
    rt: *const Runtime,
    tid: usize,
}

// ---------------------------------------------------------------------------
// Context switch (per architecture)
// ---------------------------------------------------------------------------
//
// `fiber_switch(save, restore, msg)` pushes the callee-saved registers on
// the current stack, stores the resulting stack pointer to `*save`, loads a
// new stack pointer from `*restore`, pops the callee-saved registers from
// it, and returns `msg` to whatever call site that stack was suspended in.
// A freshly initialized stack "returns" into `fiber_tramp`, which forwards
// the stashed closure pointer and the message to `fiber_entry`.

#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
pub(crate) unsafe extern "sysv64" fn fiber_switch(
    save: *mut *mut u8,
    restore: *mut *mut u8,
    msg: usize,
) -> usize {
    core::arch::naked_asm!(
        // Callee-saved per SysV: rbp, rbx, r12-r15 (rsp implicitly).
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        // The message rides through the switch in rdx and becomes the
        // return value on the resumed side.
        "mov rax, rdx",
        "ret",
    )
}

#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_tramp() {
    core::arch::naked_asm!(
        // First activation of a fresh stack: the init frame put the closure
        // pointer in r12 and `fiber_switch` left the resume message in rax.
        "mov rdi, r12",
        "mov rsi, rax",
        // Terminate unwinder/backtrace frame chains here.
        "xor ebp, ebp",
        "and rsp, -16",
        "call {entry}",
        "ud2",
        entry = sym fiber_entry,
    )
}

#[cfg(target_arch = "x86_64")]
unsafe extern "sysv64" fn fiber_entry(arg: *mut u8, msg: usize) -> ! {
    fiber_entry_impl(arg, msg)
}

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn fiber_switch(
    save: *mut *mut u8,
    restore: *mut *mut u8,
    msg: usize,
) -> usize {
    core::arch::naked_asm!(
        // Callee-saved per AAPCS64: x19-x28, fp (x29), lr (x30), d8-d15.
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "ldr x9, [x1]",
        "mov sp, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "mov x0, x2",
        "ret",
    )
}

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn fiber_tramp() {
    core::arch::naked_asm!(
        // Fresh stack: closure pointer was stashed in x19, message arrived
        // in x0 (moved there from x2 by fiber_switch before `ret`).
        "mov x1, x0",
        "mov x0, x19",
        "mov x29, xzr",
        "mov x30, xzr",
        "bl {entry}",
        "brk #0x1",
        entry = sym fiber_entry,
    )
}

#[cfg(target_arch = "aarch64")]
unsafe extern "C" fn fiber_entry(arg: *mut u8, msg: usize) -> ! {
    fiber_entry_impl(arg, msg)
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("detsim's fiber runtime supports x86_64 and aarch64 only");

fn fiber_entry_impl(arg: *mut u8, msg: usize) -> ! {
    // Reclaim the start record stashed by `Runtime::spawn`; unboxing frees
    // it, and the closure's own box is freed when the call returns. Nothing
    // on this stack owns heap memory past this block, so freeing the stack
    // without unwinding it leaks nothing.
    let (rt, tid) = {
        // SAFETY: `arg` is the `Box<FiberStart>` leaked by `Runtime::spawn`
        // for this stack, and a fresh stack is entered exactly once.
        let start = *unsafe { Box::from_raw(arg.cast::<FiberStart>()) };
        (start.f)(msg);
        (start.rt, start.tid)
    };
    // A finished fiber is never resumed; there is no frame to return into.
    loop {
        // SAFETY: the runtime outlives every resumable fiber (it owns their
        // stacks), and this is fiber `tid` switching out of its own stack.
        unsafe { (*rt).yield_to_scheduler(tid, 0) };
    }
}

// ---------------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------------

/// A heap-allocated fiber stack with a canary word at the overflow end.
struct FiberStack {
    base: *mut u8,
    layout: Layout,
}

impl FiberStack {
    fn new(size: usize) -> Self {
        let layout = Layout::from_size_align(size, 16).expect("fiber stack layout");
        let base = unsafe { alloc(layout) };
        if base.is_null() {
            handle_alloc_error(layout);
        }
        // Stacks grow down, so the lowest word is the last one a deep call
        // chain would reach.
        unsafe { base.cast::<u64>().write(STACK_CANARY) };
        FiberStack { base, layout }
    }

    fn canary_intact(&self) -> bool {
        unsafe { self.base.cast::<u64>().read() == STACK_CANARY }
    }

    /// Lay out the initial frame so the first `fiber_switch` into this stack
    /// "returns" into `fiber_tramp` with `arg` in the stash register.
    /// Returns the stack pointer to store in the fiber's slot.
    fn init_frame(&mut self, arg: *mut u8) -> *mut u8 {
        let top = unsafe { self.base.add(self.layout.size()) };
        let top = ((top as usize) & !15) as *mut u8;
        unsafe {
            #[cfg(target_arch = "x86_64")]
            {
                // Matches the pop order in fiber_switch: r15, r14, r13, r12,
                // rbx, rbp, then `ret` into the trampoline.
                let sp = top.sub(64).cast::<u64>();
                sp.add(0).write(0); // r15
                sp.add(1).write(0); // r14
                sp.add(2).write(0); // r13
                sp.add(3).write(arg as u64); // r12 -> closure pointer
                sp.add(4).write(0); // rbx
                sp.add(5).write(0); // rbp
                sp.add(6).write(fiber_tramp as *const () as u64); // return address
                sp.cast()
            }
            #[cfg(target_arch = "aarch64")]
            {
                // Matches the ldp layout in fiber_switch; lr (x30) carries
                // the trampoline address, x19 the closure pointer.
                let sp = top.sub(160).cast::<u64>();
                for i in 0..20 {
                    sp.add(i).write(0);
                }
                sp.add(0).write(arg as u64); // x19 -> closure pointer
                sp.add(11).write(fiber_tramp as *const () as u64); // x30 (lr)
                sp.cast()
            }
        }
    }
}

impl Drop for FiberStack {
    fn drop(&mut self) {
        unsafe { dealloc(self.base, self.layout) };
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

struct FiberSlot {
    /// Saved stack pointer while the fiber is suspended; meaningless while
    /// it runs.
    sp: Cell<*mut u8>,
    stack: FiberStack,
}

/// Owns every fiber of one `Sim::run_programs` call plus the scheduler's own
/// saved context. Lives on the scheduler's stack for the duration of the
/// run; fibers hold a raw pointer to it (valid because the runtime strictly
/// outlives every resumable fiber).
pub(crate) struct Runtime {
    sched_sp: Cell<*mut u8>,
    slots: RefCell<Vec<FiberSlot>>,
    /// First real (non-poison) panic payload captured from a fiber.
    panic_payload: Cell<Option<Box<dyn Any + Send>>>,
}

impl Runtime {
    pub(crate) fn new(capacity: usize) -> Self {
        Runtime {
            sched_sp: Cell::new(std::ptr::null_mut()),
            slots: RefCell::new(Vec::with_capacity(capacity)),
            panic_payload: Cell::new(None),
        }
    }

    /// Allocate a stack for fiber `tid` (== current slot count) and arm it
    /// with `f`. Must be called for all fibers before the first `resume`.
    /// The runtime must not move while fibers are resumable.
    pub(crate) fn spawn(&self, f: FiberFn, stack_size: usize) {
        let mut stack = FiberStack::new(stack_size);
        let mut slots = self.slots.borrow_mut();
        // Box the start record so a single thin pointer carries it.
        let start = FiberStart {
            f,
            rt: self,
            tid: slots.len(),
        };
        let arg = Box::into_raw(Box::new(start)) as *mut u8;
        let sp = Cell::new(stack.init_frame(arg));
        slots.push(FiberSlot { sp, stack });
    }

    /// Scheduler side: run fiber `tid` until it switches back. Returns the
    /// message the fiber passed on its way out (currently unused).
    ///
    /// # Safety
    /// Must be called from the scheduler context only, for a spawned,
    /// unfinished, un-abandoned fiber.
    pub(crate) unsafe fn resume(&self, tid: usize, msg: usize) -> usize {
        let (save, restore) = {
            let slots = self.slots.borrow();
            (self.sched_sp.as_ptr(), slots[tid].sp.as_ptr())
        };
        let out = unsafe { fiber_switch(save, restore, msg) };
        if !self.slots.borrow()[tid].stack.canary_intact() {
            // Adjacent allocations are already clobbered; unwinding through
            // them would make it worse.
            eprintln!(
                "detsim: fiber {tid} overflowed its stack (canary clobbered); \
                 raise it with Sim::stack_size. aborting"
            );
            std::process::abort();
        }
        out
    }

    /// Fiber side: suspend fiber `tid` and hand control to the scheduler.
    /// Returns the message of the next resume.
    ///
    /// # Safety
    /// Must be called from fiber `tid` itself.
    pub(crate) unsafe fn yield_to_scheduler(&self, tid: usize, msg: usize) -> usize {
        let (save, restore) = {
            let slots = self.slots.borrow();
            (slots[tid].sp.as_ptr(), self.sched_sp.as_ptr())
        };
        unsafe { fiber_switch(save, restore, msg) }
    }

    /// Record a fiber's real panic payload; the first one wins (matching the
    /// old thread model, which preferred the original panic over cascades).
    pub(crate) fn store_panic(&self, p: Box<dyn Any + Send>) {
        let prev = self.panic_payload.take();
        self.panic_payload.set(Some(match prev {
            Some(first) => first,
            None => p,
        }));
    }

    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic_payload.take()
    }
}
