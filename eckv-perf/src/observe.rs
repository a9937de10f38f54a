//! Read-outs the benchmark takes from outside the engine: host speed,
//! process memory, interpolated latency percentiles, and per-phase deltas
//! of the TraceBus counter registry and span layer.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use eckv_core::World;
use eckv_simnet::{Histogram, OpAttribution, SimTime, SpanOpClass, SpanPhase};

/// A `/proc/self/status` field (`VmRSS`, `VmHWM`) in bytes; 0 where the
/// file does not exist.
pub fn proc_status_bytes(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// What [`reference_loop`] takes, for either kind of work, on the host
/// the bounds were set on.
pub const REFERENCE_S: f64 = 0.05;

/// The kind of host work a workload spends its time on. A shared host's
/// speed drifts by ±20% over seconds to minutes, and not alike for all
/// code: pointer-chasing engine work slows when neighbours contend for the
/// cache, while byte crunching on cache-resident buffers barely does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostWork {
    /// Hashing, heaps and small allocations over a large working set.
    Engine,
    /// Serial hashing over a 64 KiB buffer.
    Bytes,
}

/// Times a fixed std-only loop of `work`'s kind. Timed around every round,
/// it measures the host's drift, so host times can be rescaled to a host on
/// which it takes [`REFERENCE_S`]. It calls nothing of eckv, so no change to
/// eckv moves it.
pub fn reference_loop(work: HostWork) -> Duration {
    let t = Instant::now();
    let mut x = 1u64;
    match work {
        HostWork::Engine => {
            let mut map = HashMap::new();
            let mut heap = BinaryHeap::new();
            for i in 0..300_000u64 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                map.insert(x >> 47, i);
                heap.push(Reverse(x));
                if heap.len() > 4096 {
                    heap.pop();
                }
                black_box(vec![0u8; (x % 200) as usize]);
            }
            black_box((map.len(), heap.len()));
        }
        HostWork::Bytes => {
            let mut buf = vec![0u8; 64 << 10];
            for round in 0..500u64 {
                for &b in &buf {
                    x ^= u64::from(b);
                    x = x.wrapping_mul(0x0000_0100_0000_01B3);
                }
                let at = (x % buf.len() as u64) as usize;
                buf[at] ^= round as u8;
            }
            black_box(x);
        }
    }
    t.elapsed()
}

/// Buckets per decade of [`Histogram`], whose bucket `i` covers
/// `[10^(i/64), 10^((i+1)/64))` ns.
const BUCKETS_PER_DECADE: f64 = 64.0;

/// Percentile `p` of `h` in nanoseconds, interpolated log-linearly inside
/// the bucket that holds it. `Histogram::percentile` returns the bucket
/// midpoint, which moves in ~3.7% steps; a bound of a few percent needs a
/// value that moves smoothly with the samples.
pub fn percentile_ns(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // The same nearest-rank rule as `Histogram::percentile`.
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let at_rank = |r: u64| h.percentile((r as f64 - 0.5) * 100.0 / n as f64);
    let v = at_rank(rank);
    // Ranks `first..=last` fall in v's bucket (values are monotone in rank).
    let first = partition_point(1, rank, |r| at_rank(r) < v);
    let last = partition_point(rank, n + 1, |r| at_rank(r) <= v) - 1;
    let idx = ((v.as_nanos().max(1) as f64).log10() * BUCKETS_PER_DECADE).floor();
    let lo = 10f64
        .powf(idx / BUCKETS_PER_DECADE)
        .max(h.min().as_nanos() as f64);
    let hi = 10f64
        .powf((idx + 1.0) / BUCKETS_PER_DECADE)
        .min(h.max().as_nanos() as f64)
        .max(lo);
    let frac = ((rank - first) as f64 + 0.5) / (last - first + 1) as f64;
    lo * (hi / lo).powf(frac)
}

/// The first `x` in `lo..hi` for which `pred` is false (`hi` if none),
/// given `pred` is true then false over the range.
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The counter registry, keyed by `(node, name)`.
pub type Counters = BTreeMap<(usize, &'static str), u64>;

/// What a traced world's bus holds at one instant.
#[derive(Debug, Clone, Default)]
pub struct BusSnapshot {
    /// The counter registry.
    pub counters: Counters,
    /// Completed span attributions so far.
    pub spans: usize,
}

impl BusSnapshot {
    /// The bus state of `world`, or `None` for an untraced world.
    pub fn take(world: &World) -> Option<BusSnapshot> {
        world.trace.with_bus(|bus| BusSnapshot {
            counters: bus
                .counters()
                .map(|(n, name, v)| ((n.0, name), v))
                .collect(),
            spans: bus.spans().map_or(0, |s| s.attributions().len()),
        })
    }
}

/// Critical-path categories the span phases fold into.
const SPAN_CATEGORIES: [&str; 6] = [
    "net_queue",
    "net_wire",
    "cpu_queue",
    "cpu",
    "codec",
    "other",
];

fn category(phase: SpanPhase) -> usize {
    match phase {
        SpanPhase::TxQueue | SpanPhase::RxQueue => 0,
        SpanPhase::NetProto | SpanPhase::Tx | SpanPhase::Propagate | SpanPhase::Rx => 1,
        SpanPhase::ClientCpuQueue | SpanPhase::SrvCpuQueue => 2,
        SpanPhase::ClientCpu | SpanPhase::SrvCpu => 3,
        SpanPhase::Encode | SpanPhase::Decode => 4,
        SpanPhase::FailDetect
        | SpanPhase::SsdRead
        | SpanPhase::HedgeWait
        | SpanPhase::RetryBackoff
        | SpanPhase::Post => 5,
    }
}

/// Share of critical-path time per [`SPAN_CATEGORIES`] entry over `ops`
/// (unattributed time counts as `other`); zeros when `ops` is empty.
fn category_shares<'a>(ops: impl Iterator<Item = &'a OpAttribution>) -> [f64; 6] {
    let mut ns = [0u64; 6];
    let mut wall = 0u64;
    for op in ops {
        wall += op.latency.as_nanos();
        ns[5] += op.other_ns;
        for &(phase, _, t) in &op.phases {
            ns[category(phase)] += t;
        }
    }
    ns.map(|t| {
        if wall == 0 {
            0.0
        } else {
            t as f64 / wall as f64
        }
    })
}

/// `(metric name, share)` for `span.{get,set}.{all,tail}.*` and
/// `span.repair.all.*` over the attributions of one phase. `tail` is the
/// ops at or above their class's p99 latency.
pub fn span_shares(done: &[OpAttribution]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for class in [SpanOpClass::Get, SpanOpClass::Set, SpanOpClass::Repair] {
        let of_class = || done.iter().filter(move |a| a.class == class);
        let mut latencies: Vec<u64> = of_class().map(|a| a.latency.as_nanos()).collect();
        latencies.sort_unstable();
        let p99 = latencies
            .get(latencies.len() * 99 / 100)
            .copied()
            .unwrap_or(0);
        let mut cohorts = vec![("all", category_shares(of_class()))];
        if class != SpanOpClass::Repair {
            let tail = category_shares(of_class().filter(|a| a.latency.as_nanos() >= p99));
            cohorts.push(("tail", tail));
        }
        for (cohort, shares) in cohorts {
            for (cat, share) in SPAN_CATEGORIES.iter().zip(shares) {
                out.push((format!("span.{}.{cohort}.{cat}", class.label()), share));
            }
        }
    }
    out
}

/// Per-phase network and codec totals from two counter snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterDeltas {
    /// Bytes every NIC sent.
    pub tx_bytes: u64,
    /// Messages every NIC sent.
    pub tx_msgs: u64,
    /// Codec invocations the compute model charged.
    pub codec_calls: u64,
    /// Simulated codec busy time, ns.
    pub codec_busy_ns: u64,
    /// Busiest node's tx NIC busy time over the phase's sim time.
    pub max_tx_util: f64,
    /// Busiest node's rx NIC busy time over the phase's sim time.
    pub max_rx_util: f64,
}

impl CounterDeltas {
    /// The growth from `before` to `after` over a phase `[from, to]`.
    pub fn between(before: &Counters, after: &Counters, from: SimTime, to: SimTime) -> Self {
        let phase_ns = to.since(from).as_nanos().max(1) as f64;
        let mut d = CounterDeltas::default();
        for (key, &v) in after {
            let grew = v.saturating_sub(before.get(key).copied().unwrap_or(0));
            match key.1 {
                "nic_tx_bytes" => d.tx_bytes += grew,
                "nic_tx_msgs" => d.tx_msgs += grew,
                "codec_invocations" => d.codec_calls += grew,
                "codec_busy_ns" => d.codec_busy_ns += grew,
                "nic_tx_busy_ns" => d.max_tx_util = d.max_tx_util.max(grew as f64 / phase_ns),
                "nic_rx_busy_ns" => d.max_rx_util = d.max_rx_util.max(grew as f64 / phase_ns),
                _ => {}
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eckv_simnet::SimDuration;

    #[test]
    fn interpolated_percentile_tracks_exact_rank() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i * 100));
        }
        for (p, exact) in [(50.0, 500_000.0), (99.9, 999_000.0), (10.0, 100_000.0)] {
            let got = percentile_ns(&h, p);
            assert!((got / exact - 1.0).abs() < 0.01, "p{p}: {got} vs {exact}");
        }
        // A one-sample histogram reads back its sample.
        let mut one = Histogram::new();
        one.record(SimDuration::from_micros(7));
        assert_eq!(percentile_ns(&one, 99.9), 7_000.0);
    }
}
