//! # detsim — deterministic discrete-event simulation kernel
//!
//! The foundation of the `stencil-rs` reproduction of *Node-Aware Stencil
//! Communication for Heterogeneous Supercomputers* (Pearson et al., 2020):
//! a small, exactly-reproducible simulator that supplies the pieces the
//! higher layers (simulated CUDA, simulated MPI, the stencil library) are
//! built from.
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) — integer picoseconds.
//! * **Event queue** ([`Kernel`]) — `(time, sequence)`-ordered callbacks.
//! * **Completions** ([`Completion`]) — one-shot signals connecting events,
//!   callbacks, and blocked threads.
//! * **Flow network** — bulk transfers over shared links with bottleneck
//!   fair-share bandwidth division (models NVLink / X-Bus / InfiniBand
//!   contention).
//! * **FIFO resources** — bounded-concurrency service queues (models CUDA
//!   streams, copy engines, kernel engines, MPI progress threads).
//! * **Cooperative scheduler** ([`Sim`], [`SimCtx`]) — simulated processes
//!   run as stackful coroutines on one OS thread, one at a time, handed a
//!   run token in deterministic order; blocking operations advance virtual
//!   time. Spawning a rank is an allocation, not a syscall, so worlds of
//!   tens of thousands of ranks are practical (see `docs/RUNTIME.md`).
//! * **Tracing** ([`trace::Trace`]) — span timelines exportable as Chrome
//!   trace JSON or ASCII art (reproduces the paper's Fig. 9).
//! * **Metrics** ([`Metrics`]) — a deterministic registry of counters,
//!   gauges, and histograms fed by the flow network, the FIFOs, and the
//!   upper layers; disabled by default with near-zero overhead, rendered
//!   as a text table or JSON by [`MetricsReport`] (see
//!   `docs/OBSERVABILITY.md`).
//!
//! ## Example: two ranks ping-ponging over a shared link
//!
//! ```
//! use detsim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new();
//! let link = sim.with_kernel(|k| k.add_link("wire", 1e9, SimDuration::from_micros(1)));
//! sim.run(1, move |ctx| {
//!     let done = ctx.with_kernel(|k| {
//!         let c = k.completion();
//!         let c2 = c.clone();
//!         k.start_flow(&[link], 1_000_000, move |k| k.complete(&c2));
//!         c
//!     });
//!     ctx.wait(&done);
//!     // 1 MB at 1 GB/s = 1 ms, plus 1 us latency
//!     assert_eq!(ctx.now().picos(), 1_001_000_000_000 / 1_000);
//! });
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_doctest_main)]

mod fiber;
mod fifo;
mod flow;
mod kernel;
pub mod metrics;
mod sched;
mod slab;
mod time;
pub mod trace;

pub use fifo::{FifoId, FifoToken};
pub use flow::{FlowId, LinkId, Path, PATH_INLINE};
pub use kernel::{Completion, Kernel};
pub use metrics::{Metrics, MetricsReport, SCHEMA_VERSION};
pub use sched::{Program, Sim, SimCtx};
pub use slab::Slab;
pub use time::{SimDuration, SimTime, PS_PER_SEC};
