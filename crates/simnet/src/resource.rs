//! FIFO service resources: worker pools of one or more servers.
//!
//! Because every service demand is known when work is submitted, FIFO
//! resources reduce to "earliest free time" bookkeeping: a reservation
//! returns the completion instant, and the caller schedules its
//! continuation there. Contention (queueing behind earlier work) emerges
//! from the max(now, free_at) rule. One NIC direction, an SSD device or a
//! Lustre pipe is a pool of one worker; a server's threads are a pool of
//! `k`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// An admission bound on a FIFO resource: work beyond the cap is refused
/// instead of queued.
///
/// Either limit (or both) may be set; an unset limit never refuses. The
/// caller passes a cap to [`WorkerPool::admits_within`] per request, so
/// different traffic classes on the same resource can meet different
/// bounds (e.g. shedding repair traffic at a lower depth than foreground
/// traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCap {
    /// Refuse when this many reservations are already outstanding at
    /// admission time (queued or in service).
    pub depth: Option<u64>,
    /// Refuse when the new reservation would wait longer than this before
    /// entering service.
    pub delay: Option<SimDuration>,
}

impl QueueCap {
    /// A cap on outstanding depth only.
    pub fn depth(depth: u64) -> Self {
        QueueCap {
            depth: Some(depth),
            delay: None,
        }
    }

    /// Whether work finding `depth` reservations outstanding and facing
    /// `wait` before service is admitted under this cap.
    pub fn admits(&self, depth: u64, wait: SimDuration) -> bool {
        if matches!(self.depth, Some(cap) if depth >= cap) {
            return false;
        }
        if matches!(self.delay, Some(cap) if wait > cap) {
            return false;
        }
        true
    }
}

/// A `k`-server FIFO pool — e.g. one direction of a NIC (`k = 1`, where
/// transmissions serialize at link bandwidth) or the worker threads of a
/// Memcached server.
///
/// Work is assigned to the earliest-free worker, modelling a FCFS queue fed
/// by `k` identical servers.
///
/// # Example
///
/// ```
/// use eckv_simnet::{SimDuration, SimTime, WorkerPool};
///
/// let mut cpu = WorkerPool::new(2);
/// let t0 = SimTime::ZERO;
/// let a = cpu.reserve(t0, SimDuration::from_micros(10));
/// let b = cpu.reserve(t0, SimDuration::from_micros(10));
/// let c = cpu.reserve(t0, SimDuration::from_micros(10));
/// assert_eq!(a.as_nanos(), 10_000); // worker 1
/// assert_eq!(b.as_nanos(), 10_000); // worker 2, in parallel
/// assert_eq!(c.as_nanos(), 20_000); // queued behind the earliest
/// ```
#[derive(Debug, Clone)]
pub struct WorkerPool {
    /// When each worker next becomes idle.
    free_at: BinaryHeap<Reverse<SimTime>>,
    busy: SimDuration,
    reservations: u64,
    /// End instants of the reservations not yet pruned, in order. With one
    /// worker a reservation never ends before the one booked ahead of it,
    /// so every insert is a push to the back.
    pending: VecDeque<SimTime>,
    floor: SimTime,
    queue_hwm: u64,
}

impl WorkerPool {
    /// Creates a pool of `workers` identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        WorkerPool {
            free_at: vec![Reverse(SimTime::ZERO); workers].into(),
            busy: SimDuration::ZERO,
            reservations: 0,
            pending: VecDeque::new(),
            floor: SimTime::ZERO,
            queue_hwm: 0,
        }
    }

    /// The instant a job submitted at `now` would enter service.
    fn start_at(&self, now: SimTime) -> SimTime {
        let Reverse(earliest) = *self.free_at.peek().expect("pool is never empty");
        earliest.max(now)
    }

    /// Drops the ended reservations at the front of the ledger.
    fn drop_ended(&mut self) {
        while matches!(self.pending.front(), Some(&t) if t <= self.floor) {
            self.pending.pop_front();
        }
    }

    /// Whether a job arriving at `now` passes `cap`, without reserving.
    pub fn admits_within(&self, now: SimTime, cap: &QueueCap) -> bool {
        cap.admits(self.queue_depth(now), self.start_at(now).since(now))
    }

    /// Advances the backlog watermark to `now` and drops bookkeeping for
    /// reservations that completed by then.
    ///
    /// Call this only with the *current simulation instant* — never with a
    /// reservation timestamp. Reservation `now` arguments may legitimately
    /// lie in the future (fan-out issue times, rendezvous starts book work
    /// at the queue frontier), and pruning against such an instant would
    /// discard bookings that are still outstanding from the perspective of
    /// the next real-clock arrival, silently under-reporting the backlog.
    pub fn prune(&mut self, now: SimTime) {
        self.floor = self.floor.max(now);
        self.drop_ended();
        self.queue_hwm = self.queue_hwm.max(self.pending.len() as u64);
    }

    /// Reserves `service` time on the earliest-free worker; returns the
    /// completion instant.
    ///
    /// `now` may be a future instant (work booked ahead at the queue
    /// frontier); bookkeeping is compacted only against the monotone
    /// [`WorkerPool::prune`] watermark, never against `now` itself.
    pub fn reserve(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        self.reserve_timed(now, service).1
    }

    /// Like [`WorkerPool::reserve`], but also returns the instant the job's
    /// worker actually picked it up: `(start, end)`. The gap `start - now`
    /// is queue wait, `end - start` is pure service — the split the span
    /// layer attributes as separate critical-path phases.
    pub fn reserve_timed(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let mut earliest = self.free_at.peek_mut().expect("pool is never empty");
        let start = earliest.0.max(now);
        let end = start + service;
        *earliest = Reverse(end);
        drop(earliest);
        self.busy += service;
        self.reservations += 1;
        self.drop_ended();
        if matches!(self.pending.back(), Some(&last) if last > end) {
            let at = self.pending.partition_point(|&t| t <= end);
            self.pending.insert(at, end);
        } else {
            self.pending.push_back(end);
        }
        self.queue_hwm = self.queue_hwm.max(self.pending.len() as u64);
        (start, end)
    }

    /// Reservations still outstanding (queued or running) at `now`.
    ///
    /// Counted by time rather than from the lazily-compacted ledger, so an
    /// idle pool reports 0 without waiting for the next
    /// [`WorkerPool::prune`] call to drop drained entries.
    pub fn queue_depth(&self, now: SimTime) -> u64 {
        (self.pending.len() - self.pending.partition_point(|&t| t <= now)) as u64
    }

    /// Highest queue depth ever observed.
    pub fn queue_hwm(&self) -> u64 {
        self.queue_hwm
    }

    /// Accumulated busy time across all workers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of reservations made.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serializes_in_submission_order() {
        let mut r = WorkerPool::new(1);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        let d = |us| SimDuration::from_micros(us);
        assert_eq!(r.reserve(t(0), d(10)), t(10));
        assert_eq!(r.reserve(t(0), d(10)), t(20));
        // Submitted later but after the queue drained: starts at now.
        assert_eq!(r.reserve(t(100), d(5)), t(105));
        assert_eq!(r.busy_time(), d(25));
        assert_eq!(r.reservations(), 3);
    }

    #[test]
    fn fifo_idle_gap_is_not_counted_busy() {
        let mut r = WorkerPool::new(1);
        r.reserve(SimTime::from_nanos(1_000_000), SimDuration::from_micros(1));
        assert_eq!(r.busy_time(), SimDuration::from_micros(1));
    }

    #[test]
    fn pool_runs_k_jobs_in_parallel() {
        let mut p = WorkerPool::new(3);
        let d = SimDuration::from_micros(10);
        let ends: Vec<u64> = (0..6)
            .map(|_| p.reserve(SimTime::ZERO, d).as_nanos())
            .collect();
        assert_eq!(ends, vec![10_000, 10_000, 10_000, 20_000, 20_000, 20_000]);
    }

    #[test]
    fn pool_picks_earliest_free_worker() {
        let mut p = WorkerPool::new(2);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        let d = |us| SimDuration::from_micros(us);
        p.reserve(t(0), d(100)); // worker A busy until 100
        p.reserve(t(0), d(10)); // worker B busy until 10
                                // Next job at t=20 should land on B (free at 10), done at 30.
        assert_eq!(p.reserve(t(20), d(10)), t(30));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_worker_pool_panics() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn reserve_timed_splits_wait_from_service() {
        let d = SimDuration::from_micros(10);
        let mut r = WorkerPool::new(1);
        let (s0, e0) = r.reserve_timed(SimTime::ZERO, d);
        assert_eq!((s0, e0), (SimTime::ZERO, SimTime::from_nanos(10_000)));
        // Second job queues behind the first: starts when it ends.
        let (s1, e1) = r.reserve_timed(SimTime::ZERO, d);
        assert_eq!((s1, e1), (e0, SimTime::from_nanos(20_000)));

        let mut p = WorkerPool::new(2);
        p.reserve(SimTime::ZERO, d);
        // A second worker is free: no queue wait.
        let (s, e) = p.reserve_timed(SimTime::ZERO, d);
        assert_eq!((s, e), (SimTime::ZERO, SimTime::from_nanos(10_000)));
        // Both busy until 10us: the third job waits.
        let (s, e) = p.reserve_timed(SimTime::ZERO, d);
        assert_eq!(
            (s, e),
            (SimTime::from_nanos(10_000), SimTime::from_nanos(20_000))
        );
    }

    #[test]
    fn fifo_queue_depth_tracks_backlog_and_hwm() {
        let d = SimDuration::from_micros(10);
        let mut r = WorkerPool::new(1);
        for _ in 0..3 {
            r.reserve(SimTime::ZERO, d);
        }
        assert_eq!(r.queue_depth(SimTime::ZERO), 3);
        assert_eq!(r.queue_hwm(), 3);
        // By t=25us two reservations have drained; only the third plus the
        // new one remain outstanding.
        r.prune(SimTime::from_nanos(25_000));
        r.reserve(SimTime::from_nanos(25_000), d);
        assert_eq!(r.queue_depth(SimTime::from_nanos(25_000)), 2);
        assert_eq!(r.queue_hwm(), 3, "high-water mark is sticky");
    }

    #[test]
    fn pool_queue_depth_counts_running_and_queued() {
        let d = SimDuration::from_micros(10);
        let mut p = WorkerPool::new(2);
        for _ in 0..4 {
            p.reserve(SimTime::ZERO, d);
        }
        assert_eq!(p.queue_depth(SimTime::ZERO), 4, "two running + two queued");
        // By t=35us all four are done (first wave at 10us, second at 20us),
        // so only the new reservation is outstanding.
        p.prune(SimTime::from_nanos(35_000));
        p.reserve(SimTime::from_nanos(35_000), d);
        assert_eq!(p.queue_depth(SimTime::from_nanos(35_000)), 1);
        assert_eq!(p.queue_hwm(), 4);
    }

    #[test]
    fn future_dated_bookings_do_not_erase_the_backlog() {
        // A decode aggregator books its chunk reads at the queue frontier
        // (a future instant) from within the event that admitted each
        // request. Those future-dated reservations must not discard
        // bookings that are still outstanding from the perspective of the
        // next real-clock arrival — otherwise queue depth under-reports
        // the backlog and depth-based admission never refuses.
        let us = |n: u64| SimTime::from_nanos(n * 1000);
        let d = |n| SimDuration::from_micros(n);
        let mut p = WorkerPool::new(1);
        for i in 0..10 {
            let arrival = us(i); // one request per microsecond, real clock
            p.prune(arrival);
            let ingest_done = p.reserve(arrival, d(2));
            p.reserve(ingest_done, d(2)); // chunk read, booked at the frontier
        }
        // Service ends fall at 2, 4, 6, ... us: by the last arrival (t=9us)
        // only four of the twenty bookings have drained.
        assert_eq!(p.queue_depth(us(9)), 16, "depth must see the real backlog");
        assert!(p.queue_hwm() >= 16);
    }

    /// The sorted ledger against a min-heap ledger and a heap of worker
    /// free times, for one to three workers: the same random
    /// `reserve`/`prune`/`queue_depth` sequence yields the same start and
    /// end instants, depths and high-water mark. With more than one worker
    /// a reservation can end before earlier ones, so this also covers the
    /// sorted insert.
    #[test]
    fn fifo_ledger_matches_the_heap_ledger() {
        struct HeapLedger {
            free_at: BinaryHeap<Reverse<SimTime>>,
            pending: BinaryHeap<Reverse<SimTime>>,
            floor: SimTime,
            hwm: u64,
        }
        impl HeapLedger {
            fn new(workers: usize) -> Self {
                HeapLedger {
                    free_at: (0..workers).map(|_| Reverse(SimTime::ZERO)).collect(),
                    pending: BinaryHeap::new(),
                    floor: SimTime::ZERO,
                    hwm: 0,
                }
            }
            fn drop_ended(&mut self) {
                while matches!(self.pending.peek(), Some(&Reverse(t)) if t <= self.floor) {
                    self.pending.pop();
                }
            }
            fn prune(&mut self, now: SimTime) {
                self.floor = self.floor.max(now);
                self.drop_ended();
                self.hwm = self.hwm.max(self.pending.len() as u64);
            }
            fn reserve(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
                let Reverse(earliest) = self.free_at.pop().expect("a worker");
                let start = earliest.max(now);
                let end = start + service;
                self.free_at.push(Reverse(end));
                self.drop_ended();
                self.pending.push(Reverse(end));
                self.hwm = self.hwm.max(self.pending.len() as u64);
                (start, end)
            }
            fn queue_depth(&self, now: SimTime) -> u64 {
                self.pending.iter().filter(|&&Reverse(t)| t > now).count() as u64
            }
        }

        crate::check::check_seq(
            96,
            |rng| {
                // (op, offset from the clock in ns, service in ns); the
                // clock advances by up to 2 us per step, and reservations
                // may be booked up to 5 us ahead of it.
                let workers = 1 + rng.index(3);
                let ops = crate::check::vec_of(rng, 1..300, |r| {
                    (r.index(3), r.range_u64(0, 5_000), r.range_u64(0, 3_000))
                });
                (workers, ops)
            },
            |(workers, ops)| {
                let mut pool = WorkerPool::new(*workers);
                let mut heap = HeapLedger::new(*workers);
                let mut clock = 0u64;
                for &(op, ahead, service) in ops {
                    clock += ahead % 2_000;
                    let now = SimTime::from_nanos(clock);
                    match op {
                        0 => {
                            let at = SimTime::from_nanos(clock + ahead);
                            let d = SimDuration::from_nanos(service);
                            assert_eq!(pool.reserve_timed(at, d), heap.reserve(at, d));
                        }
                        1 => {
                            pool.prune(now);
                            heap.prune(now);
                        }
                        _ => {
                            let probe = SimTime::from_nanos(clock + ahead);
                            assert_eq!(pool.queue_depth(probe), heap.queue_depth(probe));
                        }
                    }
                    assert_eq!(pool.queue_depth(now), heap.queue_depth(now));
                    assert_eq!(pool.queue_hwm(), heap.hwm);
                    assert_eq!(pool.pending.len(), heap.pending.len());
                    assert!(pool
                        .pending
                        .iter()
                        .zip(pool.pending.iter().skip(1))
                        .all(|(a, b)| a <= b));
                }
            },
        );
    }

    #[test]
    fn queue_depth_drains_to_zero_without_another_reserve() {
        // The accessor must prune by time itself: an idle resource reports
        // 0 even though `pending` is only compacted inside `reserve`.
        let d = SimDuration::from_micros(10);
        let mut r = WorkerPool::new(1);
        r.reserve(SimTime::ZERO, d);
        r.reserve(SimTime::ZERO, d);
        assert_eq!(r.queue_depth(SimTime::from_nanos(5_000)), 2);
        assert_eq!(r.queue_depth(SimTime::from_nanos(15_000)), 1);
        assert_eq!(r.queue_depth(SimTime::from_nanos(20_000)), 0);

        let mut p = WorkerPool::new(2);
        p.reserve(SimTime::ZERO, d);
        p.reserve(SimTime::ZERO, d);
        p.reserve(SimTime::ZERO, d);
        assert_eq!(p.queue_depth(SimTime::from_nanos(15_000)), 1);
        assert_eq!(p.queue_depth(SimTime::from_nanos(20_000)), 0);
        assert_eq!(p.queue_hwm(), 3, "draining never rewinds the HWM");
    }

    #[test]
    fn depth_cap_refuses_at_the_bound_and_readmits_after_drain() {
        let d = SimDuration::from_micros(10);
        let cap = QueueCap::depth(2);
        let mut p = WorkerPool::new(1);
        for _ in 0..2 {
            assert!(p.admits_within(SimTime::ZERO, &cap));
            p.reserve(SimTime::ZERO, d);
        }
        // Two outstanding: at the cap, the third is refused.
        assert!(!p.admits_within(SimTime::ZERO, &cap));
        // Once one reservation drains the pool admits again.
        let t = SimTime::from_nanos(15_000);
        assert!(p.admits_within(t, &cap));
        assert_eq!(p.reserve(t, d), SimTime::from_nanos(30_000));

        // Running jobs count too: two workers, both busy.
        let mut p = WorkerPool::new(2);
        p.reserve(SimTime::ZERO, d);
        assert!(p.admits_within(SimTime::ZERO, &cap));
        p.reserve(SimTime::ZERO, d);
        assert!(!p.admits_within(SimTime::ZERO, &cap));
    }

    #[test]
    fn delay_cap_refuses_on_projected_wait() {
        let d = SimDuration::from_micros(10);
        let cap = QueueCap {
            depth: None,
            delay: Some(SimDuration::from_micros(15)),
        };
        let mut r = WorkerPool::new(1);
        assert!(r.admits_within(SimTime::ZERO, &cap)); // wait 0
        r.reserve(SimTime::ZERO, d);
        assert!(r.admits_within(SimTime::ZERO, &cap)); // wait 10us
        r.reserve(SimTime::ZERO, d);
        assert!(!r.admits_within(SimTime::ZERO, &cap)); // wait 20us > cap
        assert_eq!(r.start_at(SimTime::ZERO), SimTime::from_nanos(20_000));

        // With two workers the wait is for the earliest-free one.
        let mut p = WorkerPool::new(2);
        for _ in 0..4 {
            p.reserve(SimTime::ZERO, d);
        }
        assert!(!p.admits_within(SimTime::ZERO, &cap)); // wait 20us
        assert!(p.admits_within(SimTime::from_nanos(6_000), &cap)); // 14us
    }

    #[test]
    fn admits_within_applies_per_class_bounds() {
        // One pool, two traffic classes: the stricter (repair) bound
        // refuses while the looser (foreground) one still admits.
        let d = SimDuration::from_micros(10);
        let mut p = WorkerPool::new(1);
        p.reserve(SimTime::ZERO, d);
        p.reserve(SimTime::ZERO, d);
        assert!(p.admits_within(SimTime::ZERO, &QueueCap::depth(4)));
        assert!(!p.admits_within(SimTime::ZERO, &QueueCap::depth(2)));
        // An empty cap admits unconditionally.
        assert!(p.admits_within(SimTime::ZERO, &QueueCap::default()));
    }
}
