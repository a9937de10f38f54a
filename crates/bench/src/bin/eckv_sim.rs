//! `eckv-sim` — run a custom experiment on the simulated cluster from the
//! command line.
//!
//! ```text
//! eckv-sim [--scheme era-ce-cd|era-se-sd|era-se-cd|era-ce-sd|async-rep|sync-rep|norep|hybrid]
//!          [--k 3] [--m 2] [--replicas 3] [--threshold 16K]
//!          [--profile ri-qdr|sdsc-comet|ri2-edr] [--transport rdma|ipoib]
//!          [--servers 5] [--clients 1] [--client-nodes N]
//!          [--ops 1000] [--size 64K] [--window 16]
//!          [--workload setget|ycsb-a|ycsb-b|ycsb-c|ycsb-d]
//!          [--kill 1,3] [--repair FAILED]
//!          [--repair-online FAILED] [--repair-bandwidth 400M] [--repair-window 4]
//!          [--scale-out 2ms:5,4ms:6] [--drain 8ms:1]
//!          [--straggler 1x8,3x2] [--straggler-jitter 300us]
//!          [--hedge-after p95|50us] [--deadline 2ms]
//!          [--admission-depth 48] [--admission-repair-depth 8]
//!          [--admission-delay 200us]
//!          [--memory SIZE] [--ssd CAPACITY]
//!          [--trace out.jsonl] [--timeline out.csv]
//!          [--stats-interval 10ms] [--report]
//!          [--explain-tail] [--perfetto out.json] [--trace-schema]
//! ```
//!
//! Fault-injection and tail-latency flags:
//!
//! * `--straggler 1x8` — degrade server 1 by 8x (its side of every
//!   transfer and its codec throughput) for the whole run; comma-separated
//!   for several stragglers. The node stays alive, just slow.
//! * `--straggler-jitter 300us` — add a seeded, uniformly drawn extra
//!   latency in `[0, 300us]` to each straggler transfer.
//! * `--hedge-after p95` — hedge k-of-n shard reads when the first wave
//!   is slower than 2x the observed first-chunk p95 (`pNN` selects the
//!   percentile); a duration (`--hedge-after 50us`) uses a fixed trigger.
//!   Applies to every read on the shared fan-out core: client-decode
//!   chunk fetches, the Era-*-SD aggregator's server-side gather, and
//!   online repair's survivor reads.
//! * `--deadline 2ms` — per-operation deadline: retries stop once it has
//!   passed and late completions count as deadline misses.
//!
//! Admission-control flags (per-node bounded queues with load shedding):
//!
//! * `--admission-depth 48` — bound each server's worker queue
//!   (queued + in service) at 48 outstanding requests; arrivals beyond it
//!   get a fast retryable SHED reply that reserves no worker time.
//!   Repair traffic defaults to half the bound, so background rebuilds
//!   shed before any foreground request does.
//! * `--admission-repair-depth 8` — override the stricter repair bound
//!   (requires `--admission-depth`; must not exceed it).
//! * `--admission-delay 200us` — additionally shed requests whose
//!   projected queue wait exceeds the given duration, even below the
//!   depth cap.
//!
//! Shed replies are retried by the client with truncated exponential
//! backoff plus seeded per-client equal-jitter, so synchronized retry
//! storms decorrelate deterministically. Without any `--admission-*`
//! flag the queues are unbounded and the event trace is byte-identical
//! to pre-admission builds.
//!
//! Online repair flags (`setget` workload only):
//!
//! * `--repair-online 2` — kill server 2 after the write phase and rebuild
//!   it with the online repair engine *while the read phase runs*: the
//!   background scan and the foreground reads are co-scheduled in one
//!   simulation, degraded reads promote their keys to the front of the
//!   repair queue, and the repair report prints alongside the read-phase
//!   latencies. Contrast with `--repair`, which rebuilds offline (no
//!   foreground load) before the reads start.
//! * `--repair-bandwidth 400M` — token-bucket throttle on repair traffic,
//!   bytes per sim-second (accepts K/M/G suffixes). Default: unthrottled.
//! * `--repair-window 4` — max keys rebuilt concurrently (default 4).
//!
//! With `--trace`/`--timeline`, the repair engine emits `repair_started`,
//! `repair_throttled`, `repair_key_promoted` and `repair_done` events into
//! the same deterministic streams.
//!
//! Elastic-membership flags (live scale-out/scale-in over the vshard
//! placement layer; data moves through the online repair engine and so
//! inherits `--repair-bandwidth`/`--repair-window`):
//!
//! * `--scale-out 2ms:5,4ms:6` — at each `<time>:<server>` pair (time
//!   relative to the start of the run), a provisioned spare joins the
//!   membership and the vshards it steals migrate onto it in the
//!   background. Joins must be listed in time order with consecutive
//!   server ids starting at `--servers`; the spares are provisioned (and
//!   numbered) automatically.
//! * `--drain 8ms:1` — at each `<time>:<server>` pair the named member
//!   leaves: every chunk it owns is evacuated to its replacement before
//!   the server drops out of placement.
//!
//! Membership changes cannot overlap a `--repair`/`--repair-online`
//! rebuild (the engine rejects reconfiguration mid-rebuild). With neither
//! flag the placement, and therefore the whole event trace, is
//! byte-identical to fixed-topology builds.
//!
//! Memory-tier flags:
//!
//! * `--memory 256K` — cache RAM per server (accepts K/M/G suffixes).
//!   Default: 20 GiB, which no run of practical size fills.
//! * `--ssd 2M` — attach a flash tier of the given capacity behind each
//!   server's RAM. Items the LRU evicts spill to it (`ssd_spill`) and
//!   later misses read them back (`ssd_read`); with the default
//!   `--memory` nothing is ever evicted, so pair it with a small one.
//!
//! Observability flags (all feed the deterministic TraceBus — identical
//! seeds and flags produce byte-identical output files):
//!
//! * `--trace out.jsonl` — full structured event stream as JSON lines.
//! * `--timeline out.csv` — the same stream as CSV (historically this flag
//!   wrote ad-hoc per-op samples; it is now an alias for a TraceBus CSV
//!   sink and carries every event class, not just completions).
//! * `--stats-interval 10ms` — windowed time series (throughput, p50/p99,
//!   wire bytes, codec busy) printed after the run.
//! * `--report` — per-node counter registry (NIC busy/queue high-water,
//!   codec invocations, repair traffic, SSD spills), each server's
//!   worker-queue high-water mark and the engine's DES events and peak
//!   pending events, printed after the run. Wall time and events per
//!   wall-second go to stderr, so two runs' reports still diff clean.
//!   When degraded reads occurred, the GET latency and phase breakdown are
//!   additionally split into healthy and degraded cohorts.
//! * `--explain-tail` — record causal spans for every op, compute each
//!   op's critical path at completion, and print per-phase critical-path
//!   time bucketed by percentile cohort (p50/p95/p99/p99.9).
//! * `--perfetto out.json` — export the span trees of the slowest ops as
//!   Chrome-trace JSON, loadable in Perfetto / `chrome://tracing`.
//! * `--trace-schema` — print the versioned trace event schema and exit.
//!
//! Examples:
//!
//! ```text
//! eckv-sim --scheme era-ce-cd --size 1M --ops 500
//! eckv-sim --scheme async-rep --workload ycsb-a --clients 30 --size 32K
//! eckv-sim --scheme era-ce-cd --kill 1,3 --repair 1
//! eckv-sim --scheme era-se-sd --repair-online 2 --repair-bandwidth 400M --trace repair.jsonl
//! eckv-sim --scheme era-ce-cd --ops 1000 --trace out.jsonl --stats-interval 10ms --report
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use eckv_core::{
    driver, ops::Op, repair, AdmissionConfig, EngineConfig, HedgeConfig, RepairConfig, Scheme,
    World,
};
use eckv_simnet::{
    ClusterProfile, CsvSink, JsonlSink, SimDuration, Simulation, TimeSeries, Trace, TraceBus,
    TransportKind,
};
use eckv_store::ClusterConfig;
use eckv_ycsb::{Workload, YcsbConfig};

#[derive(Debug)]
struct Args {
    scheme: String,
    k: usize,
    m: usize,
    replicas: usize,
    threshold: u64,
    profile: ClusterProfile,
    transport: TransportKind,
    servers: usize,
    clients: usize,
    client_nodes: Option<usize>,
    ops: usize,
    size: u64,
    window: usize,
    workload: String,
    kill: Vec<usize>,
    repair: Option<usize>,
    repair_online: Option<usize>,
    repair_bandwidth: Option<u64>,
    repair_window: Option<usize>,
    scale_out: Vec<(SimDuration, usize)>,
    drain: Vec<(SimDuration, usize)>,
    straggler: Vec<(usize, f64)>,
    straggler_jitter: SimDuration,
    hedge_after: Option<HedgeConfig>,
    deadline: Option<SimDuration>,
    admission_depth: Option<u64>,
    admission_repair_depth: Option<u64>,
    admission_delay: Option<SimDuration>,
    timeline: Option<String>,
    trace: Option<String>,
    stats_interval: Option<SimDuration>,
    report: bool,
    explain_tail: bool,
    perfetto: Option<String>,
    trace_schema: bool,
    memory: Option<u64>,
    ssd: Option<u64>,
}

/// How many of the slowest ops keep their full span trees for the
/// Perfetto export (`--explain-tail` aggregation covers every op).
const KEEP_SLOWEST: usize = 50;

fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix(['K', 'k']) {
        (n, 1u64 << 10)
    } else if let Some(n) = s.strip_suffix(['M', 'm']) {
        (n, 1u64 << 20)
    } else if let Some(n) = s.strip_suffix(['G', 'g']) {
        (n, 1u64 << 30)
    } else {
        (s, 1)
    };
    num.parse::<u64>()
        .map(|v| v * mult)
        .map_err(|e| format!("bad size '{s}': {e}"))
}

fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        return Err(format!("duration '{s}' needs a unit suffix (ns|us|ms|s)"));
    };
    let v: u64 = num
        .trim()
        .parse()
        .map_err(|e| format!("bad duration '{s}': {e}"))?;
    if v == 0 {
        return Err(format!("duration '{s}' must be positive"));
    }
    Ok(SimDuration::from_nanos(v * mult))
}

/// Parses one `--straggler` entry of the form `<server>x<factor>`,
/// e.g. `1x8` or `3x2.5`.
fn parse_straggler(s: &str) -> Result<(usize, f64), String> {
    let (srv, factor) = s
        .trim()
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("straggler '{s}' must look like <server>x<factor>, e.g. 1x8"))?;
    let srv: usize = srv
        .parse()
        .map_err(|e| format!("bad straggler server '{srv}': {e}"))?;
    let factor: f64 = factor
        .parse()
        .map_err(|e| format!("bad straggler factor '{factor}': {e}"))?;
    if !factor.is_finite() || factor < 1.0 {
        return Err(format!("straggler factor {factor} must be >= 1"));
    }
    Ok((srv, factor))
}

/// Parses one `--scale-out`/`--drain` entry of the form
/// `<time>:<server>`, e.g. `2ms:5` — at sim-time 2ms (relative to the
/// start of the run), server 5 joins (or leaves) the membership.
fn parse_membership(s: &str) -> Result<(SimDuration, usize), String> {
    let (at, srv) = s.trim().split_once(':').ok_or_else(|| {
        format!("membership event '{s}' must look like <time>:<server>, e.g. 2ms:5")
    })?;
    let srv: usize = srv
        .parse()
        .map_err(|e| format!("bad membership server '{srv}': {e}"))?;
    Ok((parse_duration(at)?, srv))
}

/// Parses `--hedge-after`: `pNN` arms the adaptive trigger at 2x the
/// observed first-chunk latency percentile NN; a duration (`50us`) sets a
/// fixed trigger. The resulting [`HedgeConfig`] arms every k-of-n read on
/// the fan-out core — client-decode fetches, the SD aggregator's gather
/// fan-in, and online-repair survivor reads.
fn parse_hedge(s: &str) -> Result<HedgeConfig, String> {
    if let Some(p) = s.strip_prefix(['p', 'P']) {
        let p: f64 = p
            .parse()
            .map_err(|e| format!("bad hedge percentile '{s}': {e}"))?;
        if !(0.0..=100.0).contains(&p) || p == 0.0 {
            return Err(format!("hedge percentile {p} must be in (0, 100]"));
        }
        Ok(HedgeConfig::at_percentile(p, 2.0))
    } else {
        Ok(HedgeConfig::after(parse_duration(s)?))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        scheme: "era-ce-cd".into(),
        k: 3,
        m: 2,
        replicas: 3,
        threshold: 16 << 10,
        profile: ClusterProfile::RiQdr,
        transport: TransportKind::Rdma,
        servers: 5,
        clients: 1,
        client_nodes: None,
        ops: 1000,
        size: 64 << 10,
        window: 16,
        workload: "setget".into(),
        kill: Vec::new(),
        repair: None,
        repair_online: None,
        repair_bandwidth: None,
        repair_window: None,
        scale_out: Vec::new(),
        drain: Vec::new(),
        straggler: Vec::new(),
        straggler_jitter: SimDuration::ZERO,
        hedge_after: None,
        deadline: None,
        admission_depth: None,
        admission_repair_depth: None,
        admission_delay: None,
        timeline: None,
        trace: None,
        stats_interval: None,
        report: false,
        explain_tail: false,
        perfetto: None,
        trace_schema: false,
        memory: None,
        ssd: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--scheme" => a.scheme = value(i)?.to_owned(),
            "--k" => a.k = value(i)?.parse().map_err(|e| format!("--k: {e}"))?,
            "--m" => a.m = value(i)?.parse().map_err(|e| format!("--m: {e}"))?,
            "--replicas" => {
                a.replicas = value(i)?.parse().map_err(|e| format!("--replicas: {e}"))?
            }
            "--threshold" => a.threshold = parse_size(value(i)?)?,
            "--profile" => {
                a.profile = match value(i)? {
                    "ri-qdr" => ClusterProfile::RiQdr,
                    "sdsc-comet" => ClusterProfile::SdscComet,
                    "ri2-edr" => ClusterProfile::Ri2Edr,
                    other => return Err(format!("unknown profile '{other}'")),
                }
            }
            "--transport" => {
                a.transport = match value(i)? {
                    "rdma" => TransportKind::Rdma,
                    "ipoib" => TransportKind::Ipoib,
                    other => return Err(format!("unknown transport '{other}'")),
                }
            }
            "--servers" => a.servers = value(i)?.parse().map_err(|e| format!("--servers: {e}"))?,
            "--clients" => a.clients = value(i)?.parse().map_err(|e| format!("--clients: {e}"))?,
            "--client-nodes" => {
                a.client_nodes = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("--client-nodes: {e}"))?,
                )
            }
            "--ops" => a.ops = value(i)?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--size" => a.size = parse_size(value(i)?)?,
            "--window" => a.window = value(i)?.parse().map_err(|e| format!("--window: {e}"))?,
            "--workload" => a.workload = value(i)?.to_owned(),
            "--kill" => {
                a.kill = value(i)?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--kill: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--repair" => a.repair = Some(value(i)?.parse().map_err(|e| format!("--repair: {e}"))?),
            "--repair-online" => {
                a.repair_online = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("--repair-online: {e}"))?,
                )
            }
            "--repair-bandwidth" => a.repair_bandwidth = Some(parse_size(value(i)?)?),
            "--scale-out" => {
                a.scale_out = value(i)?
                    .split(',')
                    .map(parse_membership)
                    .collect::<Result<_, _>>()?
            }
            "--drain" => {
                a.drain = value(i)?
                    .split(',')
                    .map(parse_membership)
                    .collect::<Result<_, _>>()?
            }
            "--repair-window" => {
                a.repair_window = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("--repair-window: {e}"))?,
                )
            }
            "--straggler" => {
                a.straggler = value(i)?
                    .split(',')
                    .map(parse_straggler)
                    .collect::<Result<_, _>>()?
            }
            "--straggler-jitter" => a.straggler_jitter = parse_duration(value(i)?)?,
            "--hedge-after" => a.hedge_after = Some(parse_hedge(value(i)?)?),
            "--deadline" => a.deadline = Some(parse_duration(value(i)?)?),
            "--admission-depth" => {
                a.admission_depth = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("--admission-depth: {e}"))?,
                )
            }
            "--admission-repair-depth" => {
                a.admission_repair_depth = Some(
                    value(i)?
                        .parse()
                        .map_err(|e| format!("--admission-repair-depth: {e}"))?,
                )
            }
            "--admission-delay" => a.admission_delay = Some(parse_duration(value(i)?)?),
            "--timeline" => a.timeline = Some(value(i)?.to_owned()),
            "--trace" => a.trace = Some(value(i)?.to_owned()),
            "--stats-interval" => a.stats_interval = Some(parse_duration(value(i)?)?),
            "--report" => {
                a.report = true;
                i += 1;
                continue;
            }
            "--explain-tail" => {
                a.explain_tail = true;
                i += 1;
                continue;
            }
            "--perfetto" => a.perfetto = Some(value(i)?.to_owned()),
            "--trace-schema" => {
                a.trace_schema = true;
                i += 1;
                continue;
            }
            "--memory" => a.memory = Some(parse_size(value(i)?)?),
            "--ssd" => a.ssd = Some(parse_size(value(i)?)?),
            "--help" | "-h" => {
                println!("see the module docs at the top of eckv_sim.rs for usage");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    Ok(a)
}

fn scheme_of(a: &Args) -> Result<Scheme, String> {
    Ok(match a.scheme.as_str() {
        "era-ce-cd" => Scheme::era_ce_cd(a.k, a.m),
        "era-se-sd" => Scheme::era_se_sd(a.k, a.m),
        "era-se-cd" => Scheme::era_se_cd(a.k, a.m),
        "era-ce-sd" => Scheme::era_ce_sd(a.k, a.m),
        "async-rep" => Scheme::AsyncRep {
            replicas: a.replicas,
        },
        "sync-rep" => Scheme::SyncRep {
            replicas: a.replicas,
        },
        "norep" => Scheme::NoRep,
        "hybrid" => Scheme::hybrid(a.threshold, a.k, a.m),
        other => return Err(format!("unknown scheme '{other}'")),
    })
}

/// The process's peak resident set (`VmHWM`), as `/proc/self/status`
/// spells it, or `n/a` where that file is missing.
fn peak_rss() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| Some(line.strip_prefix("VmHWM:")?.trim().to_owned()))
        })
        .unwrap_or_else(|| "n/a".to_owned())
}

/// `bytes` in the largest binary unit (B, KiB, MiB, GiB) it reaches.
fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 3] = ["KiB", "MiB", "GiB"];
    if bytes < 1 << 10 {
        return format!("{bytes} B");
    }
    let mut value = bytes as f64 / 1024.0;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

fn print_report(world: &Rc<World>) {
    let m = world.metrics.borrow();
    println!("\n== results ==");
    println!("ops completed     : {}", m.ops());
    println!("errors            : {}", m.errors);
    println!("integrity errors  : {}", m.integrity_errors);
    println!("virtual elapsed   : {}", m.elapsed());
    println!(
        "throughput        : {:.0} ops/s",
        m.throughput_ops_per_sec()
    );
    if m.set_count > 0 {
        println!("set latency       : {}", m.set_summary());
        println!("set breakdown/op  : {}", m.avg_set_breakdown());
    }
    if m.get_count > 0 {
        println!("get latency       : {}", m.get_summary());
        println!("get breakdown/op  : {}", m.avg_get_breakdown());
        if m.get_degraded_count > 0 {
            println!(
                "  healthy  ({:>6}): {}",
                m.get_healthy_count(),
                m.get_healthy_summary()
            );
            println!("    breakdown/op  : {}", m.avg_get_healthy_breakdown());
            println!(
                "  degraded ({:>6}): {}",
                m.get_degraded_count,
                m.get_degraded_summary()
            );
            println!("    breakdown/op  : {}", m.avg_get_degraded_breakdown());
        }
    }
    if m.hedges_fired > 0 || m.hedges_won > 0 {
        println!("hedges fired/won  : {} / {}", m.hedges_fired, m.hedges_won);
    }
    if m.deadline_misses > 0 {
        println!("deadline misses   : {}", m.deadline_misses);
    }
    if m.sheds > 0 {
        println!(
            "sheds (fg/repair) : {} / {} ({:.2}% shed rate)",
            m.sheds - m.sheds_repair,
            m.sheds_repair,
            m.shed_rate() * 100.0
        );
    }
    if m.vshards_moved > 0 {
        println!("vshards moved     : {}", m.vshards_moved);
        println!("migrated bytes    : {}", m.migrated_bytes);
    }
    drop(m);
    let mem = world.memory_report();
    println!(
        "cluster memory    : {} used of {} ({:.1}%), {} evictions",
        human_bytes(mem.used_bytes),
        human_bytes(mem.capacity_bytes),
        mem.pct_used(),
        mem.evictions,
    );
    // Per-server lines cover the same phase as the metrics above.
    let span = world.metrics.borrow().elapsed().as_secs_f64();
    let pct = |d: eckv_simnet::SimDuration| {
        if span > 0.0 {
            100.0 * d.as_secs_f64() / span
        } else {
            0.0
        }
    };
    for (i, c) in world.phase_server_counters().into_iter().enumerate() {
        println!(
            "  server {i}: {} items, {} sets, {} hits, {} misses, nic tx {:.0}% rx {:.0}%{}",
            world.cluster.servers[i].borrow().stats().items,
            c.sets,
            c.hits,
            c.misses,
            pct(c.nic_tx),
            pct(c.nic_rx),
            if world.cluster.is_server_alive(i) {
                ""
            } else {
                "  [DEAD]"
            }
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            std::process::exit(2);
        }
    };
    let scheme = match scheme_of(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.trace_schema {
        print!("{}", eckv_simnet::event_schema());
        std::process::exit(0);
    }

    // Elastic membership: joins must name consecutive spare ids in time
    // order (the spare pool is claimed sequentially), drains must name a
    // provisioned server, and neither may overlap a rebuild.
    let mut joins = args.scale_out.clone();
    joins.sort_by_key(|&(at, _)| at);
    for (j, &(_, srv)) in joins.iter().enumerate() {
        if srv != args.servers + j {
            eprintln!(
                "error: --scale-out must join servers {}, {}, ... in time order (got {srv})",
                args.servers,
                args.servers + 1
            );
            std::process::exit(2);
        }
    }
    let provisioned = args.servers + args.scale_out.len();
    for &(_, srv) in &args.drain {
        if srv >= provisioned {
            eprintln!("error: --drain server {srv} is never provisioned");
            std::process::exit(2);
        }
    }
    let elastic = !args.scale_out.is_empty() || !args.drain.is_empty();
    if elastic && (args.repair.is_some() || args.repair_online.is_some()) {
        eprintln!("error: --scale-out/--drain cannot overlap a --repair/--repair-online rebuild");
        std::process::exit(2);
    }

    let mut cluster = ClusterConfig::new(args.profile, args.servers, args.clients)
        .transport(args.transport)
        .client_nodes(args.client_nodes.unwrap_or(args.clients.max(1)));
    if !args.scale_out.is_empty() {
        cluster = cluster.max_servers(provisioned);
    }
    if let Some(bytes) = args.memory {
        cluster = cluster.server_memory(bytes);
    }
    if let Some(capacity) = args.ssd {
        cluster = cluster.ssd(eckv_store::SsdSpec::RI_QDR_PCIE.with_capacity(capacity));
    }
    // Observability: any of --trace/--timeline/--stats-interval/--report
    // turns the TraceBus on; without them the stack keeps its disabled
    // (zero-event, zero-counter) handle.
    let spans = args.explain_tail || args.perfetto.is_some();
    let tracing = args.trace.is_some()
        || args.timeline.is_some()
        || args.stats_interval.is_some()
        || args.report
        || spans;
    let jsonl_sink = Rc::new(RefCell::new(JsonlSink::new()));
    let csv_sink = Rc::new(RefCell::new(CsvSink::new()));
    let series = args
        .stats_interval
        .map(|w| Rc::new(RefCell::new(TimeSeries::new(w))));
    let trace = if tracing {
        let mut bus = TraceBus::new();
        if args.trace.is_some() {
            bus.add_sink(jsonl_sink.clone());
        }
        if args.timeline.is_some() {
            bus.add_sink(csv_sink.clone());
        }
        if let Some(series) = &series {
            bus.add_sink(series.clone());
        }
        if spans {
            bus.enable_spans(KEEP_SLOWEST);
        }
        Trace::from_bus(bus)
    } else {
        Trace::disabled()
    };

    let mut engine = EngineConfig::new(cluster, scheme)
        .window(args.window)
        .validate(args.workload == "setget");
    if let Some(h) = args.hedge_after {
        engine = engine.hedge(h);
    }
    if let Some(d) = args.deadline {
        engine = engine.deadline(d);
    }
    if args.admission_depth.is_none()
        && (args.admission_repair_depth.is_some() || args.admission_delay.is_some())
    {
        eprintln!("error: --admission-repair-depth/--admission-delay require --admission-depth");
        std::process::exit(2);
    }
    if let Some(depth) = args.admission_depth {
        if depth == 0 {
            eprintln!("error: --admission-depth must be at least 1");
            std::process::exit(2);
        }
        let mut adm = AdmissionConfig::depth(depth);
        if let Some(r) = args.admission_repair_depth {
            if r == 0 || r > depth {
                eprintln!("error: --admission-repair-depth must be in 1..=--admission-depth");
                std::process::exit(2);
            }
            adm = adm.repair_depth(r);
        }
        if let Some(d) = args.admission_delay {
            adm = adm.delay(d);
        }
        engine = engine.admission(adm);
    }
    if args.repair_online.is_some() && args.workload != "setget" {
        eprintln!("error: --repair-online only supports the setget workload");
        std::process::exit(2);
    }
    {
        let mut r = RepairConfig::default();
        if let Some(w) = args.repair_window {
            r = r.window(w);
        }
        if let Some(b) = args.repair_bandwidth {
            r = r.bandwidth(b);
        }
        engine = engine.repair(r);
    }
    let world = World::new_traced(engine, trace.clone());
    let mut sim = Simulation::new();
    let started = Instant::now();
    for &(srv, factor) in &args.straggler {
        if srv >= args.servers {
            eprintln!("error: --straggler server {srv} out of range");
            std::process::exit(2);
        }
        world
            .cluster
            .slow_server(sim.now(), srv, factor, args.straggler_jitter);
        println!(
            "straggler: server {srv} degraded {factor}x (jitter up to {})",
            args.straggler_jitter
        );
    }

    for &(at, srv) in &joins {
        driver::schedule_join(&world, &mut sim, at);
        println!("scale-out: server {srv} joins at +{at}");
    }
    for &(at, srv) in &args.drain {
        driver::schedule_drain(&world, &mut sim, at, srv);
        println!("drain: server {srv} leaves at +{at}");
    }

    println!(
        "scheme={} profile={} transport={:?} servers={} clients={} ops={} size={}B window={}",
        scheme.label(),
        args.profile,
        args.transport,
        args.servers,
        args.clients,
        args.ops,
        args.size,
        args.window,
    );

    match args.workload.as_str() {
        "setget" => {
            let writes: Vec<Vec<Op>> = (0..args.clients)
                .map(|c| {
                    (0..args.ops)
                        .map(|i| {
                            Op::set_synthetic(
                                format!("c{c}-k{i}"),
                                args.size,
                                (c * args.ops + i) as u64,
                            )
                        })
                        .collect()
                })
                .collect();
            driver::run_workload(&world, &mut sim, writes);
            println!("\n== write phase ==");
            print_report(&world);

            for &k in &args.kill {
                world.cluster.kill_server(k);
                println!("\nkilled server {k}");
            }
            if let Some(failed) = args.repair {
                let r = repair::repair_server(&world, &mut sim, failed);
                println!(
                    "repaired server {failed}: {} keys, {} lost, {:.1} MB read, {:.1} MB written, {}",
                    r.keys_repaired,
                    r.keys_lost,
                    r.bytes_read as f64 / (1u64 << 20) as f64,
                    r.bytes_written as f64 / (1u64 << 20) as f64,
                    r.elapsed,
                );
            }

            world.reset_metrics();
            let reads: Vec<Vec<Op>> = (0..args.clients)
                .map(|c| {
                    (0..args.ops)
                        .map(|i| Op::get(format!("c{c}-k{i}")))
                        .collect()
                })
                .collect();
            if let Some(failed) = args.repair_online {
                // Kill the server and rebuild it online: the background
                // scan and the foreground reads share one simulation.
                world.cluster.kill_server(failed);
                println!("\nkilled server {failed}; rebuilding online under the read load");
                repair::start_repair(&world, &mut sim, failed);
                driver::enqueue_workload(&world, &mut sim, reads);
                sim.run();
                let r = world.last_repair_report().expect("repair completes");
                let m = world.metrics.borrow();
                println!(
                    "online repair: {} keys, {} lost, {:.1} MB read, {:.1} MB written, {} promotions, {} fg ops during repair, {}",
                    r.keys_repaired,
                    r.keys_lost,
                    r.bytes_read as f64 / (1u64 << 20) as f64,
                    r.bytes_written as f64 / (1u64 << 20) as f64,
                    m.repair_promotions,
                    m.fg_ops_during_repair,
                    r.elapsed,
                );
                drop(m);
                println!("\n== read phase (during online repair) ==");
            } else {
                driver::run_workload(&world, &mut sim, reads);
                println!("\n== read phase ==");
            }
            print_report(&world);
        }
        w @ ("ycsb-a" | "ycsb-b" | "ycsb-c" | "ycsb-d") => {
            let workload = match w {
                "ycsb-a" => Workload::A,
                "ycsb-b" => Workload::B,
                "ycsb-c" => Workload::C,
                _ => Workload::D,
            };
            let cfg = YcsbConfig {
                workload,
                record_count: (args.ops as u64 * args.clients as u64 / 2).max(100),
                ops_per_client: args.ops as u64,
                clients: args.clients,
                value_len: args.size,
                seed: 2017,
            };
            let report = eckv_ycsb::run(&world, &mut sim, &cfg);
            println!("\n== {workload} ==");
            println!("throughput        : {:.0} ops/s", report.throughput);
            println!("read latency      : {}", report.read_latency);
            println!("write latency     : {}", report.write_latency);
            println!("errors            : {}", report.errors);
            print_report(&world);
        }
        other => {
            eprintln!("error: unknown workload '{other}'");
            std::process::exit(2);
        }
    }

    if let Some(path) = &args.trace {
        let sink = jsonl_sink.borrow();
        match std::fs::write(path, sink.contents()) {
            Ok(()) => println!("\nwrote {} trace events to {path}", sink.events()),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if let Some(path) = &args.timeline {
        let sink = csv_sink.borrow();
        match std::fs::write(path, sink.contents()) {
            Ok(()) => println!("\nwrote {} trace rows to {path}", sink.events()),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if let Some(series) = &series {
        println!("\n== time series ==");
        print!("{}", series.borrow().to_csv());
    }
    if args.report {
        println!("\n== trace counters ==");
        trace.with_bus(|bus| {
            println!("events emitted    : {}", bus.events_emitted());
            for (node, name, v) in bus.counters() {
                println!("  node {:>3}  {:<20} {}", node.0, name, v);
            }
        });
        println!("\n== worker queues ==");
        for server in &world.cluster.servers {
            let server = server.borrow();
            println!(
                "  node {:>3}  {:<20} {}",
                server.node().0,
                "cpu_queue_hwm",
                server.queue_hwm()
            );
        }
        println!("\n== engine ==");
        println!("DES events        : {}", sim.events_executed());
        println!("peak pending      : {} events", sim.peak_pending());
        println!(
            "peak in flight    : {} messages",
            world.cluster.net.borrow().peak_in_flight()
        );
        let wall = started.elapsed().as_secs_f64();
        eprintln!("wall time         : {wall:.3} s");
        eprintln!("peak RSS          : {}", peak_rss());
        eprintln!(
            "events per wall-s : {:.0}",
            sim.events_executed() as f64 / wall
        );
    }
    if args.explain_tail {
        if let Some(Some(text)) = trace.with_bus(|bus| bus.spans().map(|s| s.explain_tail())) {
            println!("\n== tail attribution ==");
            print!("{text}");
        }
    }
    if let Some(path) = &args.perfetto {
        if let Some(Some(json)) =
            trace.with_bus(|bus| bus.spans().map(|s| s.perfetto_json(KEEP_SLOWEST)))
        {
            match std::fs::write(path, &json) {
                Ok(()) => println!("\nwrote Perfetto trace of the slowest ops to {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::human_bytes;

    #[test]
    fn bytes_print_in_a_unit_chosen_by_size() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(1 << 20), "1.00 MiB");
        assert_eq!(human_bytes(5 << 20), "5.00 MiB");
        assert_eq!(human_bytes(20 << 30), "20.00 GiB");
    }
}
