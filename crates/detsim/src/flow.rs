//! Fair-share flow network: models bulk data transfers over shared links.
//!
//! A *link* has a capacity (bytes/sec) and a fixed latency. A *flow* moves a
//! byte count over a path of links. Concurrent flows sharing a link divide
//! its capacity: each flow's rate is `min` over its path links of
//! `capacity / active-flow-count` ("bottleneck fair share"). This is a
//! slightly conservative approximation of max-min fairness — a flow
//! bottlenecked elsewhere still counts against a link's divisor — chosen
//! because rate changes then only propagate to flows that *directly share a
//! link* with the flow that started/finished, which keeps large simulations
//! (hundreds of nodes, tens of thousands of concurrent transfers) cheap and
//! exactly deterministic.
//!
//! Whenever the set of flows on any link changes, the affected flows'
//! remaining byte counts are settled at the current instant, their rates
//! recomputed, and their completions re-projected. Each active flow owns
//! exactly one entry in the completion queue ([`FlowQueue`]); a
//! re-projection re-keys that entry in place, so no completion is ever
//! stale.
//!
//! ## Performance notes
//!
//! Reshares dominate large simulations (a 256-node fig12b step performs
//! ~400k of them, settling millions of flows), so the data structures are
//! arranged to make one reshare allocation-free:
//!
//! * Each link caches its fair `share` (`capacity / flow-count`),
//!   recomputed only when membership changes — not per affected flow.
//! * Link membership is an unordered `Vec` of `(flow, hop)` entries with
//!   `swap_remove` deletion; each flow records its position in every hop's
//!   entry list so leaving a link is O(1) with a single position fix-up.
//! * Paths of up to [`PATH_INLINE`] hops are stored inline in the flow
//!   (internode host routes are at most 7 links), so starting a flow does
//!   not clone the path and resharing never touches the heap.
//! * A started flow waits out its path latency parked in a slab slot
//!   (path, bytes, callback); the latency event captures only the slot
//!   index, so it stays inline in the event queue. The flow takes its
//!   [`FlowId`] when that event activates it.
//! * The affected-flow set is a scratch `Vec` reused across reshares,
//!   replacing a `BTreeSet` rebuilt per membership change. It is ordered
//!   and deduplicated through a bitset over flow ids (they are small slab
//!   keys), so only the distinct 64-id words touched need sorting.
//! * Completions are `(time, seq, flow)` entries of an indexed binary heap,
//!   not boxed closures. A re-projection takes a fresh `seq` from the
//!   kernel's event counter — the key a newly pushed event would get — and
//!   sifts the flow's one entry to it. [`Kernel::step`] pops whichever of
//!   this queue and the event heap holds the smaller key.

use std::fmt;
use std::ops::Deref;

use crate::kernel::{Kernel, SmallAction};
use crate::metrics::Metrics;
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// Identifies a link in the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(u32);

impl LinkId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifies an active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(usize);

/// Links a [`Path`] holds inline. The deepest route the preset
/// topologies build (internode host path: intranode hops + inject + eject +
/// intranode hops) is 7 links; longer routes (custom node specs) spill to
/// the heap.
pub const PATH_INLINE: usize = 8;

/// A route of links. Up to [`PATH_INLINE`] links are stored inline, so
/// building, returning or copying a preset route allocates nothing.
/// Dereferences to `[LinkId]`, which is what [`Kernel::start_flow`] takes.
#[derive(Clone)]
pub struct Path(PathRepr);

#[derive(Clone)]
enum PathRepr {
    Inline(u8, [LinkId; PATH_INLINE]),
    /// A route that outgrew the inline array.
    Spilled(Vec<LinkId>),
}

impl Path {
    /// The empty path.
    pub const fn new() -> Path {
        Path(PathRepr::Inline(0, [LinkId(0); PATH_INLINE]))
    }

    /// Append `link`.
    pub fn push(&mut self, link: LinkId) {
        match &mut self.0 {
            PathRepr::Inline(len, links) if (*len as usize) < PATH_INLINE => {
                links[*len as usize] = link;
                *len += 1;
            }
            PathRepr::Inline(_, links) => {
                let mut spilled = links.to_vec();
                spilled.push(link);
                self.0 = PathRepr::Spilled(spilled);
            }
            PathRepr::Spilled(links) => links.push(link),
        }
    }

    /// Append every link of `links`, in order.
    pub fn extend_from_slice(&mut self, links: &[LinkId]) {
        for &l in links {
            self.push(l);
        }
    }
}

impl Default for Path {
    fn default() -> Self {
        Path::new()
    }
}

impl Deref for Path {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        match &self.0 {
            PathRepr::Inline(len, links) => &links[..*len as usize],
            PathRepr::Spilled(links) => links,
        }
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A flow's route plus, per hop, the flow's index into that link's entry
/// list (maintained by join/leave so leaving is O(1)).
enum FlowPath {
    Inline(u8, [(LinkId, u32); PATH_INLINE]),
    Heap(Vec<(LinkId, u32)>),
}

impl FlowPath {
    fn from_links(path: &[LinkId]) -> Self {
        if path.len() <= PATH_INLINE {
            let mut hops = [(LinkId(0), 0u32); PATH_INLINE];
            for (hop, &l) in hops.iter_mut().zip(path) {
                hop.0 = l;
            }
            FlowPath::Inline(path.len() as u8, hops)
        } else {
            FlowPath::Heap(path.iter().map(|&l| (l, 0)).collect())
        }
    }

    fn hops(&self) -> &[(LinkId, u32)] {
        match self {
            FlowPath::Inline(len, hops) => &hops[..*len as usize],
            FlowPath::Heap(hops) => hops,
        }
    }

    fn hops_mut(&mut self) -> &mut [(LinkId, u32)] {
        match self {
            FlowPath::Inline(len, hops) => &mut hops[..*len as usize],
            FlowPath::Heap(hops) => hops,
        }
    }

    fn set_pos(&mut self, hop: usize, pos: u32) {
        self.hops_mut()[hop].1 = pos;
    }
}

pub(crate) struct Link {
    name: String,
    capacity: f64, // bytes per second
    latency: SimDuration,
    /// Flows currently on this link, unordered, as `(flow, hop index in
    /// that flow's path)` so a swap-removed entry's owner can be fixed up.
    entries: Vec<(FlowId, u32)>,
    /// Cached fair share `capacity / entries.len()`; valid whenever the
    /// link has flows, recomputed only on membership change.
    share: f64,
    /// Cumulative bytes that have finished crossing this link (diagnostics).
    delivered: u64,
    /// Sum of current rates of flows on this link (diagnostics).
    load: f64,
    /// Peak of `load / capacity` observed (diagnostics).
    peak_util: f64,
    /// Time-integral of load (bytes "scheduled" through the link).
    busy_bytes: f64,
    /// Last time `load` changed.
    last_change: SimTime,
}

struct Flow {
    path: FlowPath,
    remaining: f64,
    total: u64,
    rate: f64,
    last_update: SimTime,
    on_done: SmallAction,
}

/// A started flow waiting out its path latency.
struct PendingFlow {
    path: FlowPath,
    bytes: u64,
    on_done: SmallAction,
}

/// Position marker for a flow slot with no queued completion.
const NOT_QUEUED: u32 = u32::MAX;

/// Projected flow completions: an indexed binary min-heap keyed by
/// `(time, seq)`, holding at most one entry per flow slot. `pos` maps a
/// slot to its heap index so a re-projection moves the entry in place
/// instead of pushing a second one.
pub(crate) struct FlowQueue {
    heap: Vec<(SimTime, u64, FlowId)>,
    pos: Vec<u32>,
}

impl FlowQueue {
    fn new() -> Self {
        FlowQueue {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Key of the earliest completion.
    pub(crate) fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(|&(at, seq, _)| (at, seq))
    }

    /// Remove and return the earliest completion.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, FlowId)> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let (at, _, fid) = self.heap.pop().expect("non-empty heap");
        self.pos[fid.0] = NOT_QUEUED;
        if last > 0 {
            self.pos[self.heap[0].2 .0] = 0;
            self.sift_down(0);
        }
        Some((at, fid))
    }

    /// Queue `fid`'s completion at `(at, seq)`, replacing its current entry.
    fn set(&mut self, fid: FlowId, at: SimTime, seq: u64) {
        if fid.0 >= self.pos.len() {
            self.pos.resize(fid.0 + 1, NOT_QUEUED);
        }
        let entry = (at, seq, fid);
        match self.pos[fid.0] {
            NOT_QUEUED => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1);
            }
            i => {
                let i = i as usize;
                let old = self.heap[i];
                self.heap[i] = entry;
                if (at, seq) < (old.0, old.1) {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    fn key(&self, i: usize) -> (SimTime, u64) {
        (self.heap[i].0, self.heap[i].1)
    }

    fn place(&mut self, i: usize, entry: (SimTime, u64, FlowId)) {
        self.pos[entry.2 .0] = i as u32;
        self.heap[i] = entry;
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(parent) <= (entry.0, entry.1) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.key(child + 1) < self.key(child) {
                child += 1;
            }
            if (entry.0, entry.1) <= self.key(child) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }
}

/// Container for links and flows; lives inside [`Kernel`].
pub(crate) struct FlowNet {
    links: Vec<Link>,
    /// Active flows, keyed by [`FlowId`].
    flows: Slab<Flow>,
    /// Started flows still paying their path latency.
    pending: Slab<PendingFlow>,
    /// Projected completion of every active flow.
    pub(crate) due: FlowQueue,
    /// Reusable affected-flow buffer for joins/leaves (never held across
    /// user callbacks).
    scratch: Vec<FlowId>,
    /// Bitset over flow ids and the words of it in use, for ordering the
    /// affected set (see [`sort_dedup`]); all zero between reshares.
    marks: Vec<u64>,
    marked_words: Vec<u32>,
}

impl FlowNet {
    pub(crate) fn new() -> Self {
        FlowNet {
            links: Vec::new(),
            flows: Slab::new(),
            pending: Slab::new(),
            due: FlowQueue::new(),
            scratch: Vec::new(),
            marks: Vec::new(),
            marked_words: Vec::new(),
        }
    }

    /// Slots the pending-flow slab has ever handed out (diagnostics).
    #[cfg(test)]
    pub(crate) fn pending_slots(&self) -> usize {
        self.pending.slots()
    }
}

/// Sort `fids` ascending and drop duplicates — what `sort_unstable` then
/// `dedup` would leave — in time linear in its length: set each id's bit
/// in `marks`, sort only the distinct words touched, and read the bits back
/// in order. Leaves `marks` all zero and `words` empty.
fn sort_dedup(fids: &mut Vec<FlowId>, marks: &mut Vec<u64>, words: &mut Vec<u32>) {
    for f in fids.iter() {
        let w = f.0 / 64;
        if w >= marks.len() {
            marks.resize(w + 1, 0);
        }
        if marks[w] == 0 {
            words.push(w as u32);
        }
        marks[w] |= 1 << (f.0 % 64);
    }
    words.sort_unstable();
    fids.clear();
    for &w in words.iter() {
        let mut bits = std::mem::take(&mut marks[w as usize]);
        while bits != 0 {
            fids.push(FlowId(w as usize * 64 + bits.trailing_zeros() as usize));
            bits &= bits - 1;
        }
    }
    words.clear();
}

/// Settle a link's busy-byte integral at `now`, then apply `delta` to its
/// load. When the metrics registry is enabled, also records the link's
/// utilization (time-weighted by the settled interval) and busy time.
fn settle_link(link: &mut Link, metrics: &mut Metrics, now: SimTime, delta: f64) {
    let dt = now.since(link.last_change);
    let secs = dt.as_secs_f64();
    link.busy_bytes += link.load * secs;
    link.last_change = now;
    let old_load = link.load;
    link.load += delta;
    if metrics.is_enabled() && dt > SimDuration::ZERO {
        let util = old_load / link.capacity;
        let name: &str = &link.name;
        metrics.observe_weighted("flow", "link_utilization", &[("link", name)], util, secs);
        if old_load > 0.0 {
            metrics.counter_add("flow", "link_busy_ps", &[("link", name)], dt.picos());
        }
    }
}

impl Kernel {
    /// Add a link with the given capacity (bytes/second) and one-way latency.
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        capacity_bps: f64,
        latency: SimDuration,
    ) -> LinkId {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "link capacity must be positive and finite"
        );
        self.flows.links.push(Link {
            name: name.into(),
            capacity: capacity_bps,
            latency,
            entries: Vec::new(),
            share: capacity_bps,
            delivered: 0,
            load: 0.0,
            peak_util: 0.0,
            busy_bytes: 0.0,
            last_change: SimTime::ZERO,
        });
        LinkId(u32::try_from(self.flows.links.len() - 1).expect("more than u32::MAX links"))
    }

    /// Capacity of a link in bytes/second.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.flows.links[link.idx()].capacity
    }

    /// Change a link's capacity (bytes/second) mid-run — the degradation /
    /// repair hook used by fault injection.
    ///
    /// The link's utilization integral is settled at the *old* capacity
    /// first, then every flow currently crossing the link is re-settled at
    /// its old rate, re-rated against the new fair share, and has its
    /// completion re-projected — the same machinery a membership change
    /// uses, so the conservation invariants (busy-byte integral tracks
    /// delivered bytes, utilization ≤ 1) hold across the change. Flows not
    /// on this link are untouched: a flow's rate is the min of its links'
    /// shares, and only this link's share moved.
    ///
    /// Setting the current capacity is a no-op (no settlement, no events),
    /// so an installed-but-never-firing schedule keeps runs bit-identical.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity_bps: f64) {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "link capacity must be positive and finite"
        );
        if self.flows.links[link.idx()].capacity == capacity_bps {
            return;
        }
        let now = self.now();
        let mut affected = std::mem::take(&mut self.flows.scratch);
        {
            let l = &mut self.flows.links[link.idx()];
            // Flush the utilization integral while `capacity` still holds
            // the value the elapsed interval ran under.
            settle_link(l, &mut self.metrics, now, 0.0);
            l.capacity = capacity_bps;
            l.share = if l.entries.is_empty() {
                capacity_bps
            } else {
                capacity_bps / l.entries.len() as f64
            };
            affected.extend(l.entries.iter().map(|e| e.0));
        }
        self.reshare(&mut affected);
        affected.clear();
        self.flows.scratch = affected;
    }

    /// Change a link's one-way latency. Latency is charged once, up front,
    /// when a flow starts ([`Kernel::start_flow`]), so the new value applies
    /// only to flows started after this call; in-flight flows keep the
    /// latency they already paid.
    pub fn set_link_latency(&mut self, link: LinkId, latency: SimDuration) {
        self.flows.links[link.idx()].latency = latency;
    }

    /// One-way latency of a link.
    pub fn link_latency(&self, link: LinkId) -> SimDuration {
        self.flows.links[link.idx()].latency
    }

    /// Human-readable link name.
    pub fn link_name(&self, link: LinkId) -> &str {
        &self.flows.links[link.idx()].name
    }

    /// Total bytes delivered over a link so far.
    pub fn link_delivered(&self, link: LinkId) -> u64 {
        self.flows.links[link.idx()].delivered
    }

    /// Peak instantaneous utilization (sum of flow rates / capacity) seen on
    /// a link. Values above 1.0 indicate an over-allocation bug.
    pub fn link_peak_utilization(&self, link: LinkId) -> f64 {
        self.flows.links[link.idx()].peak_util
    }

    /// Bytes "scheduled" through the link according to the time-integral of
    /// its load. Should track [`Kernel::link_delivered`] closely; a large
    /// mismatch indicates settlement bugs.
    pub fn link_busy_bytes(&self, link: LinkId) -> f64 {
        self.flows.links[link.idx()].busy_bytes
    }

    /// Number of flows currently in the network (activated, not yet done).
    pub fn active_flows(&self) -> usize {
        self.flows.flows.len()
    }

    /// Sum of one-way latencies along `path`.
    pub fn path_latency(&self, path: &[LinkId]) -> SimDuration {
        path.iter().fold(SimDuration::ZERO, |acc, l| {
            acc + self.flows.links[l.idx()].latency
        })
    }

    /// Minimum capacity along `path` (the zero-contention bandwidth).
    pub fn path_capacity(&self, path: &[LinkId]) -> f64 {
        path.iter()
            .map(|l| self.flows.links[l.idx()].capacity)
            .fold(f64::INFINITY, f64::min)
    }

    /// Start a transfer of `bytes` over `path`, running `on_done` when the
    /// last byte arrives. The path latency is charged up front (pipelined
    /// store-and-forward is not modeled; halo messages are large enough that
    /// latency is a small additive term). Zero-byte transfers still pay the
    /// latency.
    ///
    /// An empty path completes after zero time plus nothing — permitted for
    /// degenerate "local" transfers.
    pub fn start_flow(
        &mut self,
        path: &[LinkId],
        bytes: u64,
        on_done: impl FnOnce(&mut Kernel) + 'static,
    ) {
        if path.is_empty() {
            self.schedule_in(SimDuration::ZERO, on_done);
            return;
        }
        debug_assert!(
            path.iter()
                .all(|l| path.iter().filter(|m| *m == l).count() == 1),
            "flow paths must not repeat a link"
        );
        let latency = self.path_latency(path);
        let slot = self.flows.pending.insert(PendingFlow {
            path: FlowPath::from_links(path),
            bytes,
            on_done: SmallAction::action(on_done),
        });
        // After the latency elapses, the flow joins the links and begins
        // consuming bandwidth.
        self.schedule_in(latency, move |k| k.activate_flow(slot));
    }

    /// Join the flow parked in pending slot `slot` onto its path links and
    /// give the affected set its first reshare. Runs after the path latency
    /// has elapsed.
    fn activate_flow(&mut self, slot: usize) {
        let PendingFlow {
            path,
            bytes,
            on_done,
        } = self.flows.pending.remove(slot);
        let now = self.now();
        let id = FlowId(self.flows.flows.insert(Flow {
            path,
            remaining: bytes as f64,
            total: bytes,
            rate: 0.0,
            last_update: now,
            on_done,
        }));
        let mut affected = std::mem::take(&mut self.flows.scratch);
        {
            let net = &mut self.flows;
            // Split borrow: the flow lives in `net.flows`, membership in
            // `net.links`.
            let (links, flows) = (&mut net.links, &mut net.flows);
            let flow = flows.get_mut(id.0).expect("flow just allocated");
            for (hop, entry) in flow.path.hops_mut().iter_mut().enumerate() {
                let link = &mut links[entry.0.idx()];
                affected.extend(link.entries.iter().map(|e| e.0));
                entry.1 = link.entries.len() as u32;
                link.entries.push((id, hop as u32));
                link.share = link.capacity / link.entries.len() as f64;
            }
        }
        affected.push(id);
        if self.metrics.is_enabled() {
            let flow = self.flows.flows.get(id.0).expect("flow just allocated");
            for &(l, _) in flow.path.hops() {
                let name: &str = &self.flows.links[l.idx()].name;
                self.metrics
                    .gauge_add("flow", "link_active_flows", &[("link", name)], 1.0);
            }
            self.metrics.gauge_add("flow", "active_flows", &[], 1.0);
        }
        self.reshare(&mut affected);
        affected.clear();
        self.flows.scratch = affected;
    }

    /// Settle remaining bytes and recompute rates for `affected` flows
    /// (duplicates welcome; the buffer is sorted and deduped in place), then
    /// re-project their completions.
    ///
    /// Flows are processed in ascending id order — the same order the
    /// original `BTreeSet`-based implementation used — because link
    /// settlement accumulates floating-point state order-sensitively and
    /// virtual times must stay bit-identical.
    fn reshare(&mut self, affected: &mut Vec<FlowId>) {
        let now = self.now();
        let net = &mut self.flows;
        sort_dedup(affected, &mut net.marks, &mut net.marked_words);
        let (links, flows, due) = (&mut net.links, &mut net.flows, &mut net.due);
        let metrics = &mut self.metrics;
        let next_seq = &mut self.next_seq;
        for &fid in affected.iter() {
            let Some(flow) = flows.get_mut(fid.0) else {
                continue; // completed in the meantime
            };
            // New bottleneck-fair rate: min of the cached link shares.
            let mut rate = f64::INFINITY;
            for &(l, _) in flow.path.hops() {
                rate = rate.min(links[l.idx()].share);
            }
            let old_rate = flow.rate;
            for &(l, _) in flow.path.hops() {
                settle_link(&mut links[l.idx()], metrics, now, rate - old_rate);
            }
            // Settle progress at the old rate.
            let dt = now.since(flow.last_update).as_secs_f64();
            flow.remaining = (flow.remaining - flow.rate * dt).max(0.0);
            flow.last_update = now;
            flow.rate = rate;
            let eta = SimDuration::from_secs_f64(flow.remaining / rate);
            due.set(fid, now + eta, *next_seq);
            *next_seq += 1;
        }
        // Record utilization peaks only after the whole batch settles.
        for &fid in affected.iter() {
            if let Some(flow) = flows.get(fid.0) {
                for &(l, _) in flow.path.hops() {
                    let link = &mut links[l.idx()];
                    let u = link.load / link.capacity;
                    if u > link.peak_util {
                        link.peak_util = u;
                    }
                }
            }
        }
    }

    /// Deliver a flow's last byte: detach it from its links, reshare the
    /// survivors, and run its callback. Called by the event loop when the
    /// flow's completion reaches the head of the queue.
    pub(crate) fn finish_flow(&mut self, fid: FlowId) {
        let flow = self.flows.flows.remove(fid.0);
        let now = self.now();
        let mut affected = std::mem::take(&mut self.flows.scratch);
        {
            let net = &mut self.flows;
            let (links, flows) = (&mut net.links, &mut net.flows);
            let metrics = &mut self.metrics;
            for (hop, &(l, pos)) in flow.path.hops().iter().enumerate() {
                let link = &mut links[l.idx()];
                let removed = link.entries.swap_remove(pos as usize);
                debug_assert_eq!(removed, (fid, hop as u32), "link entry out of sync");
                // The swapped-in entry moved; tell its owner.
                if let Some(&(moved, moved_hop)) = link.entries.get(pos as usize) {
                    flows
                        .get_mut(moved.0)
                        .expect("dangling link entry")
                        .path
                        .set_pos(moved_hop as usize, pos);
                }
                link.share = if link.entries.is_empty() {
                    link.capacity
                } else {
                    link.capacity / link.entries.len() as f64
                };
                link.delivered += flow.total;
                settle_link(link, metrics, now, -flow.rate);
                if metrics.is_enabled() {
                    let name: &str = &links[l.idx()].name;
                    metrics.counter_add(
                        "flow",
                        "link_delivered_bytes",
                        &[("link", name)],
                        flow.total,
                    );
                    metrics.gauge_add("flow", "link_active_flows", &[("link", name)], -1.0);
                }
                affected.extend(links[l.idx()].entries.iter().map(|e| e.0));
            }
            if metrics.is_enabled() {
                metrics.gauge_add("flow", "active_flows", &[], -1.0);
            }
        }
        self.reshare(&mut affected);
        affected.clear();
        self.flows.scratch = affected;
        flow.on_done.call(self, ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::time::PS_PER_SEC;
    use std::cell::Cell;
    use std::rc::Rc;

    fn finish_time(k: &mut Kernel, done: &Rc<Cell<u64>>) -> f64 {
        k.run_to_completion();
        assert!(done.get() > 0, "flow never finished");
        k.now().as_secs_f64()
    }

    fn make_done(k: &mut Kernel) -> (Rc<Cell<u64>>, impl FnOnce(&mut Kernel) + 'static) {
        let _ = k;
        let done = Rc::new(Cell::new(0));
        let d2 = Rc::clone(&done);
        (done, move |k: &mut Kernel| d2.set(k.now().picos().max(1)))
    }

    #[test]
    fn flow_queue_pops_in_key_order_after_rekeys() {
        // Re-key entries up and down in place and check the pop order
        // against a sort of the final keys.
        let mut q = FlowQueue::new();
        let mut want = Vec::new();
        let mut x = 12345u64;
        for f in 0..64usize {
            for seq in 0..3u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let at = SimTime::ZERO + SimDuration::from_picos(x >> 54);
                q.set(FlowId(f), at, f as u64 * 3 + seq);
                if seq == 2 {
                    want.push((at, f as u64 * 3 + seq, f));
                }
            }
        }
        assert_eq!(q.len(), 64, "one entry per flow");
        want.sort();
        let mut got = Vec::new();
        while let Some((at, fid)) = q.pop() {
            got.push((at, fid.0));
        }
        let want: Vec<_> = want.into_iter().map(|(at, _, f)| (at, f)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sort_dedup_matches_sort_then_dedup() {
        let (mut marks, mut words) = (Vec::new(), Vec::new());
        let mut x = 7u64;
        for len in [0usize, 1, 2, 5, 64, 300] {
            let mut fids: Vec<FlowId> = (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    FlowId((x >> 33) as usize % (len * 3 + 1))
                })
                .collect();
            let mut want = fids.clone();
            want.sort_unstable();
            want.dedup();
            sort_dedup(&mut fids, &mut marks, &mut words);
            assert_eq!(fids, want);
            assert!(marks.iter().all(|&m| m == 0) && words.is_empty());
        }
    }

    #[test]
    fn solo_flow_runs_at_link_capacity() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 200, cb);
        let t = finish_time(&mut k, &done);
        assert!((t - 2.0).abs() < 1e-9, "expected 2s, got {t}");
    }

    #[test]
    fn latency_is_charged_up_front() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::from_secs_f64(0.5));
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 100, cb);
        let t = finish_time(&mut k, &done);
        assert!((t - 1.5).abs() < 1e-9, "expected 1.5s, got {t}");
    }

    #[test]
    fn two_flows_share_a_link_evenly() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        let (done2, cb2) = make_done(&mut k);
        k.start_flow(&[l], 100, cb);
        k.start_flow(&[l], 100, cb2);
        k.run_to_completion();
        // Each gets 50 B/s -> both finish at t=2.
        let t1 = done.get() as f64 / PS_PER_SEC as f64;
        let t2 = done2.get() as f64 / PS_PER_SEC as f64;
        assert!((t1 - 2.0).abs() < 1e-9, "t1={t1}");
        assert!((t2 - 2.0).abs() < 1e-9, "t2={t2}");
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 100, cb);
        // second flow arrives at t=0.5 (when flow 1 has 50 bytes left)
        let (done2, cb2) = make_done(&mut k);
        k.schedule_in(SimDuration::from_secs_f64(0.5), move |k| {
            k.start_flow(&[l], 100, cb2);
        });
        k.run_to_completion();
        // flow1: 50B at 100B/s then 50B at 50B/s -> done at t=1.5
        let t1 = done.get() as f64 / PS_PER_SEC as f64;
        assert!((t1 - 1.5).abs() < 1e-6, "t1={t1}");
        // flow2: 50B at 50B/s (until t=1.5), then 50B at 100B/s -> t=2.0
        let t2 = done2.get() as f64 / PS_PER_SEC as f64;
        assert!((t2 - 2.0).abs() < 1e-6, "t2={t2}");
    }

    #[test]
    fn multi_link_path_bottlenecked_by_slowest() {
        let mut k = Kernel::new();
        let fast = k.add_link("fast", 1000.0, SimDuration::ZERO);
        let slow = k.add_link("slow", 10.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[fast, slow], 100, cb);
        let t = finish_time(&mut k, &done);
        assert!((t - 10.0).abs() < 1e-9, "expected 10s, got {t}");
    }

    #[test]
    fn empty_path_completes_immediately() {
        let mut k = Kernel::new();
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[], 12345, cb);
        k.run_to_completion();
        assert_eq!(k.now(), SimTime::ZERO);
        assert!(done.get() > 0);
    }

    #[test]
    fn zero_byte_flow_pays_latency_only() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::from_micros(7));
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 0, cb);
        k.run_to_completion();
        assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_micros(7));
        assert!(done.get() > 0);
    }

    #[test]
    fn delivered_bytes_accumulate() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        for _ in 0..3 {
            k.start_flow(&[l], 50, |_| {});
        }
        k.run_to_completion();
        assert_eq!(k.link_delivered(l), 150);
        assert_eq!(k.active_flows(), 0);
    }

    #[test]
    fn disjoint_links_do_not_interfere() {
        let mut k = Kernel::new();
        let a = k.add_link("a", 100.0, SimDuration::ZERO);
        let b = k.add_link("b", 100.0, SimDuration::ZERO);
        let (done_a, cb_a) = make_done(&mut k);
        let (done_b, cb_b) = make_done(&mut k);
        k.start_flow(&[a], 100, cb_a);
        k.start_flow(&[b], 100, cb_b);
        k.run_to_completion();
        let ta = done_a.get() as f64 / PS_PER_SEC as f64;
        let tb = done_b.get() as f64 / PS_PER_SEC as f64;
        assert!((ta - 1.0).abs() < 1e-9);
        assert!((tb - 1.0).abs() < 1e-9);
    }

    #[test]
    fn many_flows_conserve_bytes() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 1e9, SimDuration::from_micros(1));
        let total = Rc::new(Cell::new(0));
        let mut expected = 0u64;
        for i in 1..=64u64 {
            let bytes = i * 1000;
            expected += bytes;
            let total = Rc::clone(&total);
            // stagger starts
            k.schedule_in(SimDuration::from_nanos(i * 100), move |k| {
                k.start_flow(&[l], bytes, move |_| {
                    total.set(total.get() + bytes);
                });
            });
        }
        k.run_to_completion();
        assert_eq!(total.get(), expected);
        assert_eq!(k.link_delivered(l), expected);
        assert_eq!(k.active_flows(), 0);
    }

    #[test]
    fn capacity_cut_mid_flow_slows_completion() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 100, cb);
        // At t=0.5 the flow has 50 B left; cut to 25 B/s -> 2 more seconds.
        k.schedule_in(SimDuration::from_secs_f64(0.5), move |k| {
            k.set_link_capacity(l, 25.0);
        });
        let t = finish_time(&mut k, &done);
        assert!((t - 2.5).abs() < 1e-9, "expected 2.5s, got {t}");
        assert_eq!(k.link_capacity(l), 25.0);
    }

    #[test]
    fn capacity_restore_speeds_completion_back_up() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::ZERO);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&[l], 200, cb);
        // 0..0.5s at 100 B/s (50 B), 0.5..1.5s at 50 B/s (50 B), then back
        // to 100 B/s for the last 100 B -> finish at t=2.5.
        k.schedule_in(SimDuration::from_secs_f64(0.5), move |k| {
            k.set_link_capacity(l, 50.0);
        });
        k.schedule_in(SimDuration::from_secs_f64(1.5), move |k| {
            k.set_link_capacity(l, 100.0);
        });
        let t = finish_time(&mut k, &done);
        assert!((t - 2.5).abs() < 1e-9, "expected 2.5s, got {t}");
    }

    #[test]
    fn capacity_change_affects_only_flows_on_the_link() {
        let mut k = Kernel::new();
        let a = k.add_link("a", 100.0, SimDuration::ZERO);
        let b = k.add_link("b", 100.0, SimDuration::ZERO);
        let (done_a, cb_a) = make_done(&mut k);
        let (done_b, cb_b) = make_done(&mut k);
        k.start_flow(&[a], 100, cb_a);
        k.start_flow(&[b], 100, cb_b);
        k.schedule_in(SimDuration::from_secs_f64(0.5), move |k| {
            k.set_link_capacity(a, 10.0);
        });
        k.run_to_completion();
        let ta = done_a.get() as f64 / PS_PER_SEC as f64;
        let tb = done_b.get() as f64 / PS_PER_SEC as f64;
        // a: 50 B at 100 B/s then 50 B at 10 B/s -> 5.5s; b untouched.
        assert!((ta - 5.5).abs() < 1e-6, "ta={ta}");
        assert!((tb - 1.0).abs() < 1e-9, "tb={tb}");
    }

    #[test]
    fn capacity_change_conserves_bytes_and_utilization() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 1e9, SimDuration::from_micros(1));
        let mut expected = 0u64;
        for i in 1..=32u64 {
            let bytes = i * 10_000;
            expected += bytes;
            k.schedule_in(SimDuration::from_nanos(i * 300), move |k| {
                k.start_flow(&[l], bytes, |_| {});
            });
        }
        // Degrade and restore while the flows are in flight.
        k.schedule_in(SimDuration::from_micros(20), move |k| {
            k.set_link_capacity(l, 2e8);
        });
        k.schedule_in(SimDuration::from_micros(400), move |k| {
            k.set_link_capacity(l, 1e9);
        });
        k.run_to_completion();
        assert_eq!(k.link_delivered(l), expected);
        assert_eq!(k.active_flows(), 0);
        let busy = k.link_busy_bytes(l);
        let delivered = expected as f64;
        assert!(
            (busy - delivered).abs() < delivered * 1e-6,
            "busy-byte integral {busy} diverged from delivered {delivered}"
        );
        let peak = k.link_peak_utilization(l);
        assert!(peak <= 1.0 + 1e-9, "peak utilization {peak} > 1");
    }

    #[test]
    fn setting_same_capacity_is_bit_identical_noop() {
        let run = |touch: bool| {
            let mut k = Kernel::new();
            let l = k.add_link("l", 12.5e9, SimDuration::from_nanos(500));
            let (done, cb) = make_done(&mut k);
            k.start_flow(&[l], 1_000_000, cb);
            k.start_flow(&[l], 777_777, |_| {});
            if touch {
                k.schedule_in(SimDuration::from_micros(10), move |k| {
                    k.set_link_capacity(l, 12.5e9);
                });
            }
            k.run_to_completion();
            done.get()
        };
        assert_eq!(
            run(false),
            run(true),
            "no-op capacity set perturbed completion time"
        );
    }

    #[test]
    fn latency_change_applies_to_new_flows_only() {
        let mut k = Kernel::new();
        let l = k.add_link("l", 100.0, SimDuration::from_secs_f64(0.25));
        let (done, cb) = make_done(&mut k);
        // In-flight flow keeps the latency it paid at start.
        k.start_flow(&[l], 100, cb);
        k.schedule_in(SimDuration::from_secs_f64(0.1), move |k| {
            k.set_link_latency(l, SimDuration::from_secs_f64(1.0));
        });
        let (done2, cb2) = make_done(&mut k);
        k.schedule_in(SimDuration::from_secs_f64(2.0), move |k| {
            assert_eq!(k.link_latency(l), SimDuration::from_secs_f64(1.0));
            k.start_flow(&[l], 100, cb2);
        });
        k.run_to_completion();
        let t1 = done.get() as f64 / PS_PER_SEC as f64;
        let t2 = done2.get() as f64 / PS_PER_SEC as f64;
        assert!((t1 - 1.25).abs() < 1e-9, "t1={t1}");
        assert!((t2 - 4.0).abs() < 1e-9, "t2={t2}");
    }

    #[test]
    fn long_paths_spill_and_keep_their_order() {
        let mut k = Kernel::new();
        let links: Vec<LinkId> = (0..11)
            .map(|i| k.add_link(format!("l{i}"), 100.0, SimDuration::ZERO))
            .collect();
        let mut p = Path::new();
        p.extend_from_slice(&links[..PATH_INLINE]);
        assert_eq!(&p[..], &links[..PATH_INLINE]);
        p.extend_from_slice(&links[PATH_INLINE..]);
        assert_eq!(&p[..], &links[..]);
        let (done, cb) = make_done(&mut k);
        k.start_flow(&p, 100, cb);
        let t = finish_time(&mut k, &done);
        assert!((t - 1.0).abs() < 1e-9, "expected 1s, got {t}");
    }

    #[test]
    fn path_helpers() {
        let mut k = Kernel::new();
        let a = k.add_link("a", 100.0, SimDuration::from_micros(1));
        let b = k.add_link("b", 50.0, SimDuration::from_micros(2));
        assert_eq!(k.path_latency(&[a, b]), SimDuration::from_micros(3));
        assert_eq!(k.path_capacity(&[a, b]), 50.0);
        assert_eq!(k.link_name(a), "a");
        assert_eq!(k.link_capacity(b), 50.0);
    }
}
