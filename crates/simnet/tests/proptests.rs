//! Property tests for the simulation substrate.

use eckv_simnet::check::{check, check_seq, vec_of};
use eckv_simnet::{
    ClusterProfile, Histogram, Network, NodeId, SimDuration, SimRng, SimTime, Simulation,
    TransportKind, WorkerPool,
};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn events_always_execute_in_nondecreasing_time_order() {
    check_seq(
        256,
        |rng| ((), vec_of(rng, 1..100, |r| r.range_u64(0, 1_000_000))),
        |(_, delays)| {
            let mut sim = Simulation::new();
            let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for &d in delays {
                let times = times.clone();
                sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                    times.borrow_mut().push(sim.now().as_nanos());
                });
            }
            sim.run();
            let times = times.borrow();
            assert_eq!(times.len(), delays.len());
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        },
    );
}

#[test]
fn fifo_resource_never_overlaps_reservations() {
    check_seq(
        256,
        |rng| {
            let job = |r: &mut SimRng| (r.range_u64(0, 10_000), r.range_u64(1, 5_000));
            ((), vec_of(rng, 1..100, job))
        },
        |(_, jobs)| {
            let mut r = WorkerPool::new(1);
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            // Submissions must arrive in nondecreasing time order (as they
            // do from the event loop).
            let mut jobs = jobs.clone();
            jobs.sort_by_key(|j| j.0);
            for (at, dur) in jobs {
                let end = r.reserve(SimTime::from_nanos(at), SimDuration::from_nanos(dur));
                let start = end.as_nanos() - dur;
                intervals.push((start, end.as_nanos()));
            }
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {w:?}");
            }
        },
    );
}

#[test]
fn worker_pool_busy_time_is_conserved() {
    check_seq(
        256,
        |rng| {
            let workers = 1 + rng.index(7);
            (workers, vec_of(rng, 1..80, |r| r.range_u64(1, 10_000)))
        },
        |(workers, jobs)| {
            let mut p = WorkerPool::new(*workers);
            let mut total = 0u64;
            for &d in jobs {
                p.reserve(SimTime::ZERO, SimDuration::from_nanos(d));
                total += d;
            }
            assert_eq!(p.busy_time().as_nanos(), total);
            assert_eq!(p.reservations(), jobs.len() as u64);
        },
    );
}

#[test]
fn pool_with_more_workers_finishes_no_later() {
    fn makespan(workers: usize, jobs: &[u64]) -> u64 {
        let mut p = WorkerPool::new(workers);
        jobs.iter()
            .map(|&d| {
                p.reserve(SimTime::ZERO, SimDuration::from_nanos(d))
                    .as_nanos()
            })
            .max()
            .unwrap_or(0)
    }
    check_seq(
        256,
        |rng| ((), vec_of(rng, 1..60, |r| r.range_u64(1, 10_000))),
        |(_, jobs)| assert!(makespan(4, jobs) <= makespan(1, jobs)),
    );
}

#[test]
fn histogram_percentiles_bracket_all_samples() {
    check_seq(
        256,
        |rng| ((), vec_of(rng, 1..200, |r| r.range_u64(1, 10_000_000_000))),
        |(_, samples)| {
            let mut h = Histogram::new();
            for &s in samples {
                h.record(SimDuration::from_nanos(s));
            }
            assert_eq!(h.count(), samples.len() as u64);
            assert!(h.percentile(0.0) >= h.min());
            assert!(h.percentile(100.0) <= h.max());
            // Mean must be exact.
            let exact = samples.iter().sum::<u64>() / samples.len() as u64;
            assert_eq!(h.mean().as_nanos(), exact);
        },
    );
}

/// FIFO NICs on both ends: no reordering between one sender/receiver
/// pair, regardless of message sizes and protocols.
fn assert_pair_delivers_in_send_order(sizes: &[usize]) {
    let cfg = ClusterProfile::RiQdr.net_config(TransportKind::Rdma);
    let net = Network::new(2, cfg);
    let mut sim = Simulation::new();
    let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    for (i, &bytes) in sizes.iter().enumerate() {
        let order = order.clone();
        Network::send(
            &net,
            &mut sim,
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            bytes,
            move |_, d| {
                assert!(d.is_delivered());
                order.borrow_mut().push(i);
            },
        );
    }
    sim.run();
    let order = order.borrow();
    assert_eq!(order.len(), sizes.len());
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "reordered: {order:?}"
    );
}

#[test]
fn same_pair_messages_deliver_in_send_order() {
    // A rendezvous-sized message followed by an eager one: the two
    // shapes that once overtook each other.
    assert_pair_delivers_in_send_order(&[16385, 64]);
    assert_pair_delivers_in_send_order(&[1740, 64]);
    check_seq(
        256,
        |rng| {
            (
                (),
                vec_of(rng, 1..30, |r| r.range_u64(64, 100_000) as usize),
            )
        },
        |(_, sizes)| assert_pair_delivers_in_send_order(sizes),
    );
}

#[test]
fn rng_fork_streams_do_not_collide() {
    check(
        256,
        |rng| rng.next_u64(),
        |&seed| {
            let mut parent = SimRng::seed_from_u64(seed);
            let mut a = parent.fork();
            let mut b = parent.fork();
            let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
            let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
            assert_ne!(va, vb);
        },
    );
}
