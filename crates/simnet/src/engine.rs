//! The discrete-event engine: a virtual clock and an ordered event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A shared event target: [`Simulation::schedule_token_at`] schedules it
/// with a `u32` token instead of a fresh closure, so a component that runs
/// many events of a few kinds (the transport's hops) keeps their state in
/// its own storage and allocates nothing per event.
pub trait Handler {
    /// Runs the event `token` names, at its instant.
    fn fire(self: Rc<Self>, sim: &mut Simulation, token: u32);
}

/// What a pending event runs. The token is a `u32` so that a slot stays
/// at 40 bytes.
enum Action {
    Once(Box<dyn FnOnce(&mut Simulation)>),
    Token(Rc<dyn Handler>, u32),
}

/// An event's place in the total order: `at` (ns) in the high 64 bits, the
/// insertion sequence number in the low 64, so ties break FIFO.
type Key = u128;

fn at_of(key: Key) -> u64 {
    (key >> 64) as u64
}

/// log2 of a wheel bucket's width: 256 ns.
const BUCKET_SHIFT: u32 = 8;
/// The 1 ns instants of one bucket.
const INSTANTS: usize = 1 << BUCKET_SHIFT;
/// Buckets on the wheel, a power of two. The horizon, 1024 × 256 ns or
/// about 262 µs, is past almost every event the workloads schedule.
const WHEEL: usize = 1024;
const NIL: u32 = u32::MAX;

/// One slab slot: a pending event, or a link in the free list.
struct Slot {
    at: u64,
    action: Option<Action>,
    /// The next slot in this slot's list, or in the free list.
    next: u32,
}

/// `N` FIFO lists of slab slots with an occupancy bitmap of `W` words.
struct Lists<const N: usize, const W: usize> {
    heads: [u32; N],
    tails: [u32; N],
    occupied: [u64; W],
}

impl<const N: usize, const W: usize> Lists<N, W> {
    fn new() -> Self {
        const { assert!(N == 64 * W) };
        Lists {
            heads: [NIL; N],
            tails: [NIL; N],
            occupied: [0; W],
        }
    }

    fn append(&mut self, slots: &mut [Slot], list: usize, idx: u32) {
        slots[idx as usize].next = NIL;
        if self.heads[list] == NIL {
            self.heads[list] = idx;
            self.occupied[list / 64] |= 1 << (list % 64);
        } else {
            slots[self.tails[list] as usize].next = idx;
        }
        self.tails[list] = idx;
    }

    fn pop_front(&mut self, slots: &[Slot], list: usize) -> u32 {
        let idx = self.heads[list];
        self.heads[list] = slots[idx as usize].next;
        if self.heads[list] == NIL {
            self.occupied[list / 64] &= !(1 << (list % 64));
        }
        idx
    }

    /// Empties `list`, returning its first slot (the rest stay chained).
    fn take(&mut self, list: usize) -> u32 {
        self.occupied[list / 64] &= !(1 << (list % 64));
        std::mem::replace(&mut self.heads[list], NIL)
    }

    /// The first non-empty list at or after `from`, wrapping around.
    fn first_from(&self, from: usize) -> Option<usize> {
        for step in 0..=W {
            let word = (from / 64 + step) % W;
            let mut bits = self.occupied[word];
            if step == 0 {
                bits &= u64::MAX << (from % 64);
            }
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// The pending events, popped in exact `(at, seq)` order: a calendar queue
/// (R. Brown, *Calendar Queues*, CACM 1988).
///
/// Time is cut into 256 ns buckets. The next `WHEEL - 1` buckets are
/// unsorted FIFO lists on a wheel; events past the wheel's horizon wait in
/// a heap and move onto the wheel as it turns. When a bucket becomes
/// current it is bucket-sorted into one FIFO list per nanosecond, so the
/// head of the first non-empty list is always the next event: events of
/// one instant reach a list in `seq` order, whether scheduled directly or
/// moved there from the wheel or the heap. Scheduling and popping are O(1)
/// outside the heap. Every event lives in one slab whose free slots are
/// reused, so memory follows the number of pending events.
struct Calendar {
    slots: Vec<Slot>,
    free: u32,
    /// Absolute index of the current bucket, never past the clock's.
    cur: u64,
    /// The current bucket, one list per nanosecond.
    instants: Lists<INSTANTS, { INSTANTS / 64 }>,
    /// The clock's instant in the current bucket: no earlier list is
    /// non-empty.
    instant: usize,
    /// Buckets `cur + 1 .. cur + WHEEL`, at `bucket % WHEEL`.
    wheel: Lists<WHEEL, { WHEEL / 64 }>,
    on_wheel: usize,
    /// Events in bucket `cur + WHEEL` or later, with their slots.
    far: BinaryHeap<Reverse<(Key, u32)>>,
    len: usize,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            slots: Vec::new(),
            free: NIL,
            cur: 0,
            instants: Lists::new(),
            instant: 0,
            wheel: Lists::new(),
            on_wheel: 0,
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    fn push(&mut self, key: Key, action: Action) {
        let slot = Slot {
            at: at_of(key),
            action: Some(action),
            next: NIL,
        };
        let idx = if self.free == NIL {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
        } else {
            let idx = self.free;
            self.free = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
            idx
        };
        self.len += 1;
        self.place(key, idx);
    }

    /// Files slot `idx` under the list or heap that owns its bucket.
    fn place(&mut self, key: Key, idx: u32) {
        let at = at_of(key);
        let bucket = at >> BUCKET_SHIFT;
        debug_assert!(
            bucket >= self.cur,
            "the clock never passes the current bucket"
        );
        if bucket == self.cur {
            self.instants
                .append(&mut self.slots, at as usize % INSTANTS, idx);
        } else if bucket - self.cur < WHEEL as u64 {
            self.wheel
                .append(&mut self.slots, bucket as usize % WHEEL, idx);
            self.on_wheel += 1;
        } else {
            self.far.push(Reverse((key, idx)));
        }
    }

    /// The instant of the next event, without turning the wheel.
    fn peek(&self) -> Option<u64> {
        if let Some(instant) = self.instants.first_from(0) {
            return Some(self.cur << BUCKET_SHIFT | instant as u64);
        }
        if self.on_wheel > 0 {
            let (_, mut idx) = self.next_bucket();
            let mut first = u64::MAX;
            while idx != NIL {
                first = first.min(self.slots[idx as usize].at);
                idx = self.slots[idx as usize].next;
            }
            return Some(first);
        }
        self.far.peek().map(|&Reverse((key, _))| at_of(key))
    }

    fn pop(&mut self) -> Option<(SimTime, Action)> {
        let instant = match self.instants.first_from(self.instant) {
            Some(instant) => instant,
            None => {
                self.advance()?;
                self.instants.first_from(0)?
            }
        };
        self.instant = instant;
        let idx = self.instants.pop_front(&self.slots, instant);
        let slot = &mut self.slots[idx as usize];
        let action = slot.action.take().expect("a listed slot holds its action");
        slot.next = self.free;
        self.free = idx;
        self.len -= 1;
        Some((SimTime::from_nanos(slot.at), action))
    }

    /// The next non-empty wheel bucket and the head of its list.
    fn next_bucket(&self) -> (u64, u32) {
        let from = (self.cur as usize + 1) % WHEEL;
        let list = self
            .wheel
            .first_from(from)
            .expect("a non-empty wheel has a non-empty list");
        let bucket = self.cur + 1 + ((list + WHEEL - from) % WHEEL) as u64;
        (bucket, self.wheel.heads[list])
    }

    /// Turns the wheel to the next non-empty bucket, sorts it into
    /// `instants` and pulls the events the new horizon covers off the heap.
    /// Returns `None` when nothing is pending.
    fn advance(&mut self) -> Option<()> {
        if self.on_wheel > 0 {
            let (bucket, _) = self.next_bucket();
            self.cur = bucket;
            let mut idx = self.wheel.take(bucket as usize % WHEEL);
            while idx != NIL {
                let slot = &self.slots[idx as usize];
                let (at, next) = (slot.at, slot.next);
                self.instants
                    .append(&mut self.slots, at as usize % INSTANTS, idx);
                self.on_wheel -= 1;
                idx = next;
            }
        } else {
            let &Reverse((key, _)) = self.far.peek()?;
            self.cur = at_of(key) >> BUCKET_SHIFT;
        }
        while let Some(&Reverse((key, idx))) = self.far.peek() {
            if (at_of(key) >> BUCKET_SHIFT) - self.cur >= WHEEL as u64 {
                break;
            }
            self.far.pop();
            self.place(key, idx);
        }
        Some(())
    }
}

/// A deterministic discrete-event simulation.
///
/// Events are closures, or tokens for a shared [`Handler`], scheduled at
/// virtual instants; [`Simulation::run`] executes them in timestamp order
/// (insertion order on ties) while advancing the clock. Events receive
/// `&mut Simulation` so they can schedule follow-up events; shared world
/// state lives in `Rc<RefCell<...>>` captured by the closures.
///
/// # Example
///
/// ```
/// use eckv_simnet::{SimDuration, Simulation};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Simulation::new();
/// let order = Rc::new(RefCell::new(Vec::new()));
/// for (label, at) in [("b", 20), ("a", 10)] {
///     let order = order.clone();
///     sim.schedule_in(SimDuration::from_micros(at), move |_| {
///         order.borrow_mut().push(label);
///     });
/// }
/// sim.run();
/// assert_eq!(*order.borrow(), vec!["a", "b"]);
/// ```
pub struct Simulation {
    now: SimTime,
    queue: Calendar,
    next_seq: u64,
    executed: u64,
    peak_pending: usize,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len)
            .field("executed", &self.executed)
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: Calendar::new(),
            next_seq: 0,
            executed: 0,
            peak_pending: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len
    }

    /// The most events ever pending at once.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Simulation::now`]).
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        self.push(at, Action::Once(Box::new(action)));
    }

    /// Schedules `handler.fire(sim, token)` at absolute time `at`. It takes
    /// its place in the `(at, seq)` order exactly as
    /// [`Simulation::schedule_at`] would, but allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Simulation::now`]).
    pub fn schedule_token_at(&mut self, at: SimTime, handler: Rc<dyn Handler>, token: u32) {
        self.push(at, Action::Token(handler, token));
    }

    fn push(&mut self, at: SimTime, action: Action) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let key = u128::from(at.as_nanos()) << 64 | u128::from(self.next_seq);
        self.next_seq += 1;
        self.queue.push(key, action);
        self.peak_pending = self.peak_pending.max(self.queue.len);
    }

    /// Schedules `action` to run `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F)
    where
        F: FnOnce(&mut Simulation) + 'static,
    {
        self.schedule_at(self.now + delay, action);
    }

    /// Runs until no events remain. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs until the queue drains or the clock passes `deadline`.
    /// Events scheduled exactly at `deadline` are executed.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self
            .queue
            .peek()
            .is_some_and(|at| at <= deadline.as_nanos())
        {
            self.step();
        }
        // If the queue drained early, the clock simply stays at the last
        // executed event.
        self.now
    }

    /// Executes the next event, if any. Returns whether one ran.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, action)) => {
                debug_assert!(at >= self.now, "clock must be monotonic");
                self.now = at;
                self.executed += 1;
                match action {
                    Action::Once(action) => action(self),
                    Action::Token(handler, token) => handler.fire(self, token),
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_seq, vec_of};
    use crate::SimRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut sim = Simulation::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, at_us) in [("late", 30), ("tie1", 10), ("tie2", 10), ("early", 5)] {
            let order = order.clone();
            sim.schedule_in(SimDuration::from_micros(at_us), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["early", "tie1", "tie2", "late"]);
        assert_eq!(sim.events_executed(), 4);
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        sim.schedule_in(SimDuration::from_micros(1), move |sim| {
            let seen3 = seen2.clone();
            seen2.borrow_mut().push(sim.now().as_nanos());
            sim.schedule_in(SimDuration::from_micros(2), move |sim| {
                seen3.borrow_mut().push(sim.now().as_nanos());
            });
        });
        let end = sim.run();
        assert_eq!(*seen.borrow(), vec![1_000, 3_000]);
        assert_eq!(end, SimTime::from_nanos(3_000));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new();
        let count = Rc::new(RefCell::new(0));
        for us in [1u64, 2, 3, 4, 5] {
            let count = count.clone();
            sim.schedule_in(SimDuration::from_micros(us), move |_| {
                *count.borrow_mut() += 1;
            });
        }
        sim.run_until(SimTime::from_nanos(3_000));
        assert_eq!(*count.borrow(), 3);
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(*count.borrow(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_in(SimDuration::from_micros(10), |sim| {
            sim.schedule_at(SimTime::from_nanos(1), |_| {});
        });
        sim.run();
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<u64> {
            let mut sim = Simulation::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..50u64 {
                let log = log.clone();
                sim.schedule_in(SimDuration::from_nanos((i * 37) % 13), move |sim| {
                    log.borrow_mut().push(sim.now().as_nanos() * 1000 + i);
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn a_burst_at_one_instant_pops_in_seq_order() {
        // A sorted insert into the current bucket would be quadratic here.
        const BURST: usize = 200_000;
        let mut sim = Simulation::new();
        let order = Rc::new(RefCell::new(Vec::with_capacity(BURST)));
        let log = order.clone();
        sim.schedule_in(SimDuration::from_micros(3), move |sim| {
            for i in 0..BURST {
                let log = log.clone();
                sim.schedule_in(SimDuration::ZERO, move |sim| {
                    assert_eq!(sim.now(), SimTime::from_nanos(3_000));
                    log.borrow_mut().push(i);
                });
            }
        });
        sim.run();
        assert!(order.borrow().iter().copied().eq(0..BURST));
        assert_eq!(sim.events_executed(), BURST as u64 + 1);
        assert_eq!(sim.peak_pending(), BURST);
    }

    /// Logs every token it fires with, and the instant.
    struct TokenLog(RefCell<Vec<(u64, u32)>>);

    impl Handler for TokenLog {
        fn fire(self: Rc<Self>, sim: &mut Simulation, token: u32) {
            self.0.borrow_mut().push((sim.now().as_nanos(), token));
        }
    }

    #[test]
    fn a_token_burst_at_one_instant_pops_in_seq_order() {
        const BURST: u32 = 200_000;
        let mut sim = Simulation::new();
        let log = Rc::new(TokenLog(RefCell::new(Vec::new())));
        let handler = log.clone();
        sim.schedule_in(SimDuration::from_micros(3), move |sim| {
            for token in 0..BURST {
                sim.schedule_token_at(sim.now(), handler.clone(), token);
            }
        });
        sim.run();
        let log = log.0.borrow();
        assert!(log.iter().map(|&(_, token)| token).eq(0..BURST));
        assert!(log.iter().all(|&(at, _)| at == 3_000));
        assert_eq!(sim.events_executed(), u64::from(BURST) + 1);
        assert_eq!(sim.peak_pending(), BURST as usize);
    }

    #[test]
    fn a_slot_is_40_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 40);
    }

    /// A generated event: it fires `delay` after it is scheduled and then
    /// schedules each of its `children`. A `token` node is a token event of
    /// the [`Forest`] handler, the others are closures.
    #[derive(Debug, Clone)]
    struct Node {
        delay: u64,
        token: bool,
        children: Vec<usize>,
    }

    #[derive(Debug, Clone)]
    enum Cmd {
        /// Schedule the tree rooted at this node from outside the loop.
        Schedule(usize),
        /// Execute up to this many events, one `step` at a time.
        Step(usize),
        /// `run_until(now + offset)`.
        RunUntil(u64),
        /// `run_until` the next event's instant plus this offset.
        RunPastNext(u64),
    }

    /// A delay from 0 ns to far past the wheel's horizon. On a 256 ns
    /// `grid`, some of them at the horizon's edge, events scheduled at
    /// different times, from near and from beyond the horizon, often land
    /// on one instant.
    fn delay(rng: &mut SimRng, grid: bool) -> u64 {
        let wheel = WHEEL as u64;
        match (grid, rng.index(4)) {
            (_, 0) => 0,
            (false, 1) => rng.range_u64(1, 256),
            (false, 2) => rng.range_u64(256, 1 << 16),
            (false, _) => rng.range_u64(1 << 16, 1 << 22),
            (true, 1) => 256 * rng.range_u64(0, 2 * wheel),
            (true, _) => 256 * rng.range_u64(wheel - 3, wheel + 3),
        }
    }

    /// The reference queue: a plain binary heap on `(at, seq)`.
    #[derive(Default)]
    struct Oracle {
        now: u64,
        seq: u64,
        heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
        peak: usize,
        log: Vec<(u64, usize)>,
    }

    impl Oracle {
        fn schedule(&mut self, nodes: &[Node], node: usize) {
            let at = self.now + nodes[node].delay;
            self.heap.push(Reverse((at, self.seq, node)));
            self.seq += 1;
            self.peak = self.peak.max(self.heap.len());
        }

        fn step(&mut self, nodes: &[Node]) -> bool {
            let Some(Reverse((at, _, node))) = self.heap.pop() else {
                return false;
            };
            self.now = at;
            self.log.push((at, node));
            for &child in &nodes[node].children {
                self.schedule(nodes, child);
            }
            true
        }

        fn run_until(&mut self, nodes: &[Node], deadline: u64) {
            while self.heap.peek().is_some_and(|e| e.0 .0 <= deadline) {
                self.step(nodes);
            }
        }
    }

    /// The generated nodes and the `(instant, node)` log of the events
    /// fired so far; fires the token nodes as their handler.
    struct Forest {
        nodes: Vec<Node>,
        log: RefCell<Vec<(u64, usize)>>,
    }

    impl Forest {
        fn fired(self: &Rc<Self>, sim: &mut Simulation, node: usize) {
            self.log.borrow_mut().push((sim.now().as_nanos(), node));
            for &child in &self.nodes[node].children {
                spawn(sim, self, child);
            }
        }
    }

    impl Handler for Forest {
        fn fire(self: Rc<Self>, sim: &mut Simulation, token: u32) {
            self.fired(sim, token as usize);
        }
    }

    fn spawn(sim: &mut Simulation, forest: &Rc<Forest>, node: usize) {
        let at = sim.now() + SimDuration::from_nanos(forest.nodes[node].delay);
        if forest.nodes[node].token {
            sim.schedule_token_at(at, forest.clone(), node as u32);
        } else {
            let forest = forest.clone();
            sim.schedule_at(at, move |sim| forest.fired(sim, node));
        }
    }

    #[test]
    fn pops_in_the_order_of_a_binary_heap_on_at_and_seq() {
        const NODES: usize = 48;
        check_seq(
            2048,
            |rng| {
                // A forest: each node is a child of at most one earlier node.
                let grid = rng.index(2) == 0;
                // A random share of the events are tokens, mixed with
                // closures at the same instants and past the horizon.
                let tokens = rng.index(3);
                let mut nodes: Vec<Node> = (0..NODES)
                    .map(|_| Node {
                        delay: delay(rng, grid),
                        token: rng.index(2) < tokens,
                        children: Vec::new(),
                    })
                    .collect();
                for i in 1..NODES {
                    if rng.index(4) != 0 {
                        nodes[rng.index(i)].children.push(i);
                    }
                }
                let cmds = vec_of(rng, 1..40, |r| match r.index(4) {
                    0 => Cmd::Schedule(r.index(NODES)),
                    1 => Cmd::Step(r.index(20)),
                    2 => Cmd::RunPastNext(r.range_u64(0, 3)),
                    _ => Cmd::RunUntil(match r.index(3) {
                        0 => r.range_u64(0, 600),
                        1 => 256 * r.range_u64(1, 8) - r.range_u64(0, 2),
                        _ => r.range_u64(0, 1 << 18),
                    }),
                });
                (nodes, cmds)
            },
            |(nodes, cmds)| {
                let forest = Rc::new(Forest {
                    nodes: nodes.clone(),
                    log: RefCell::default(),
                });
                let log = &forest.log;
                let mut sim = Simulation::new();
                let mut oracle = Oracle::default();
                for cmd in cmds {
                    match *cmd {
                        Cmd::Schedule(node) => {
                            spawn(&mut sim, &forest, node);
                            oracle.schedule(nodes, node);
                        }
                        Cmd::Step(n) => {
                            for _ in 0..n {
                                assert_eq!(sim.step(), oracle.step(nodes));
                                assert_eq!(sim.events_pending(), oracle.heap.len());
                            }
                        }
                        Cmd::RunUntil(offset) => {
                            let deadline = oracle.now + offset;
                            sim.run_until(SimTime::from_nanos(deadline));
                            oracle.run_until(nodes, deadline);
                        }
                        Cmd::RunPastNext(offset) => {
                            let next = oracle.heap.peek().map_or(oracle.now, |e| e.0 .0);
                            sim.run_until(SimTime::from_nanos(next + offset));
                            oracle.run_until(nodes, next + offset);
                        }
                    }
                    assert_eq!(sim.now().as_nanos(), oracle.now);
                    assert_eq!(sim.events_pending(), oracle.heap.len());
                    assert_eq!(*log.borrow(), oracle.log);
                }
                while oracle.step(nodes) {
                    assert!(sim.step());
                    assert_eq!(sim.events_pending(), oracle.heap.len());
                }
                assert!(!sim.step());
                assert_eq!(*log.borrow(), oracle.log);
                assert_eq!(sim.events_executed(), oracle.log.len() as u64);
                assert_eq!(sim.peak_pending(), oracle.peak);
            },
        );
    }
}
