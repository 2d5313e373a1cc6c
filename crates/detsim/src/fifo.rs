//! FIFO service resources.
//!
//! A [`FifoId`] names a queue with a bounded number of concurrent service
//! slots. Tasks submitted to it start in submission order as slots free up.
//! A task is an *asynchronous* unit of work: when started it receives a
//! [`FifoToken`] and may kick off flows or schedule events; the slot is held
//! until someone calls [`Kernel::fifo_task_done`] with the token.
//!
//! This one abstraction models all the serialized engines in the simulated
//! machine: CUDA streams (concurrency 1), GPU copy engines, GPU kernel
//! engines, per-rank MPI progress engines, and NIC packet processors.

use std::collections::VecDeque;

use crate::kernel::{Kernel, SmallFn};
use crate::time::SimTime;

/// Identifies a FIFO resource.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FifoId(usize);

/// Proof that a task occupies a slot of a FIFO; hand it back via
/// [`Kernel::fifo_task_done`] to release the slot.
#[derive(Debug)]
#[must_use = "the FIFO slot is held until fifo_task_done is called with this token"]
pub struct FifoToken {
    fifo: FifoId,
}

/// A queued task: closures of up to two words wait inline.
type Task = SmallFn<FifoToken>;

struct Fifo {
    name: String,
    concurrency: usize,
    active: usize,
    /// Waiting tasks with their submission times (for wait-time metrics).
    queue: VecDeque<(SimTime, Task)>,
    completed: u64,
}

pub(crate) struct FifoTable {
    fifos: Vec<Fifo>,
}

impl FifoTable {
    pub(crate) fn new() -> Self {
        FifoTable { fifos: Vec::new() }
    }
}

impl Kernel {
    /// Create a FIFO resource with `concurrency` simultaneous service slots.
    pub fn add_fifo(&mut self, name: impl Into<String>, concurrency: usize) -> FifoId {
        assert!(concurrency > 0, "fifo needs at least one slot");
        self.fifos.fifos.push(Fifo {
            name: name.into(),
            concurrency,
            active: 0,
            queue: VecDeque::new(),
            completed: 0,
        });
        FifoId(self.fifos.fifos.len() - 1)
    }

    /// Submit a task. It starts immediately if a slot is free, otherwise when
    /// earlier tasks release slots, always in submission order.
    pub fn fifo_submit(
        &mut self,
        fifo: FifoId,
        task: impl FnOnce(&mut Kernel, FifoToken) + 'static,
    ) {
        let now = self.now();
        let f = &mut self.fifos.fifos[fifo.0];
        if f.active < f.concurrency && f.queue.is_empty() {
            f.active += 1;
            if self.metrics.is_enabled() {
                let name: &str = &self.fifos.fifos[fifo.0].name;
                self.metrics
                    .observe("fifo", "wait_ps", &[("fifo", name)], 0.0);
            }
            task(self, FifoToken { fifo });
        } else {
            f.queue.push_back((now, SmallFn::new(task)));
            if self.metrics.is_enabled() {
                let name: &str = &self.fifos.fifos[fifo.0].name;
                self.metrics
                    .gauge_add("fifo", "queue_depth", &[("fifo", name)], 1.0);
            }
        }
    }

    /// Convenience: a task that simply occupies a slot for `service` time.
    /// `on_done` runs when the slot is released.
    pub fn fifo_submit_timed(
        &mut self,
        fifo: FifoId,
        service: crate::time::SimDuration,
        on_done: impl FnOnce(&mut Kernel) + 'static,
    ) {
        self.fifo_submit(fifo, move |k, token| {
            k.schedule_in(service, move |k| {
                k.fifo_task_done(token);
                on_done(k);
            });
        });
    }

    /// Release the slot held by `token`; starts the next queued task, if any.
    pub fn fifo_task_done(&mut self, token: FifoToken) {
        let now = self.now();
        let f = &mut self.fifos.fifos[token.fifo.0];
        debug_assert!(f.active > 0, "fifo_task_done without active task");
        f.active -= 1;
        f.completed += 1;
        if f.active < f.concurrency {
            if let Some((submitted, next)) = f.queue.pop_front() {
                f.active += 1;
                if self.metrics.is_enabled() {
                    let name: &str = &self.fifos.fifos[token.fifo.0].name;
                    let wait = now.since(submitted).picos() as f64;
                    self.metrics
                        .observe("fifo", "wait_ps", &[("fifo", name)], wait);
                    self.metrics
                        .gauge_add("fifo", "queue_depth", &[("fifo", name)], -1.0);
                }
                next.call(self, FifoToken { fifo: token.fifo });
            }
        }
    }

    /// Number of tasks that have completed on this FIFO.
    pub fn fifo_completed(&self, fifo: FifoId) -> u64 {
        self.fifos.fifos[fifo.0].completed
    }

    /// Tasks currently being served plus queued.
    pub fn fifo_backlog(&self, fifo: FifoId) -> usize {
        let f = &self.fifos.fifos[fifo.0];
        f.active + f.queue.len()
    }

    /// Human-readable FIFO name.
    pub fn fifo_name(&self, fifo: FifoId) -> &str {
        &self.fifos.fifos[fifo.0].name
    }

    /// Diagnostic: all FIFOs with active or queued tasks.
    pub fn busy_fifos(&self) -> Vec<(String, usize, usize)> {
        self.fifos
            .fifos
            .iter()
            .filter(|f| f.active > 0 || !f.queue.is_empty())
            .map(|f| (f.name.clone(), f.active, f.queue.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn serial_fifo_serializes() {
        let mut k = Kernel::new();
        let f = k.add_fifo("stream", 1);
        let ends: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
        for _ in 0..3 {
            let ends = Rc::clone(&ends);
            k.fifo_submit_timed(f, SimDuration::from_micros(10), move |k| {
                ends.borrow_mut().push(k.now().picos());
            });
        }
        k.run_to_completion();
        let e = ends.borrow_mut();
        assert_eq!(
            *e,
            vec![
                SimDuration::from_micros(10).picos(),
                SimDuration::from_micros(20).picos(),
                SimDuration::from_micros(30).picos()
            ]
        );
        assert_eq!(k.fifo_completed(f), 3);
    }

    #[test]
    fn concurrency_two_overlaps_pairs() {
        let mut k = Kernel::new();
        let f = k.add_fifo("engines", 2);
        let ends: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![]));
        for _ in 0..4 {
            let ends = Rc::clone(&ends);
            k.fifo_submit_timed(f, SimDuration::from_micros(10), move |k| {
                ends.borrow_mut().push(k.now().picos());
            });
        }
        k.run_to_completion();
        let us = |n| SimDuration::from_micros(n).picos();
        assert_eq!(*ends.borrow_mut(), vec![us(10), us(10), us(20), us(20)]);
    }

    #[test]
    fn async_task_holds_slot_until_done() {
        let mut k = Kernel::new();
        let f = k.add_fifo("stream", 1);
        let l = k.add_link("link", 100.0, SimDuration::ZERO);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(vec![]));
        // Task 1: a flow of 100 bytes (1 second), slot held until it lands.
        let o1 = Rc::clone(&order);
        k.fifo_submit(f, move |k, token| {
            k.start_flow(&[l], 100, move |k| {
                o1.borrow_mut().push("flow-done");
                k.fifo_task_done(token);
            });
        });
        // Task 2: instantaneous, but must wait for task 1's flow.
        let o2 = Rc::clone(&order);
        k.fifo_submit(f, move |k, token| {
            o2.borrow_mut().push("task2");
            k.fifo_task_done(token);
        });
        k.run_to_completion();
        assert_eq!(*order.borrow_mut(), vec!["flow-done", "task2"]);
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_secs_f64(1.0));
    }

    #[test]
    fn backlog_tracks_queue() {
        let mut k = Kernel::new();
        let f = k.add_fifo("q", 1);
        for _ in 0..5 {
            k.fifo_submit_timed(f, SimDuration::from_micros(1), |_| {});
        }
        assert_eq!(k.fifo_backlog(f), 5);
        k.run_to_completion();
        assert_eq!(k.fifo_backlog(f), 0);
        assert_eq!(k.fifo_name(f), "q");
    }
}
