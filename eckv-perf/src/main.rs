//! `eckv-perf`: the end-to-end and per-layer benchmark of eckv.
//!
//! ```text
//! cargo run --release --manifest-path eckv-perf/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, one workload runs for `--seconds`, round after round
//! (each round a fresh world, set up and measured), and the command prints
//! `workload metric value unit` lines and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` adds one traced round and the probes and
//! reports the per-layer metrics. Without `--workload`, every workload
//! runs in turn, each in a fresh child process so its peak RSS is its own.
//!
//! The command exits non-zero when any correctness check fails.

mod observe;
mod probes;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use observe::proc_status_bytes;
use probes::Probes;
use workload::{Round, Size, Workload};

/// Rounds a run measures at least, however long they take.
const MIN_ROUNDS: usize = 3;
/// Least time each probe batch runs.
const PROBE_BATCH: Duration = Duration::from_millis(20);

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The median, averaging the middle two of an even count.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(rounds.iter().map(f).collect())
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of the untraced rounds `plain`; `peak_rss` is
/// the process's peak RSS after the first round, in bytes.
fn end_to_end(plain: &[Round], peak_rss: f64) -> Vec<Metric> {
    let m = &plain[0].model;
    let ops = m.ops as f64;
    vec![
        metric(
            "sim_ops_per_wall_s",
            median_of(plain, |r| ops / r.host_s(r.measured())),
            "ops/s",
        ),
        metric("setup_s", median_of(plain, |r| r.host_s(r.setup())), "s"),
        metric("peak_rss_mb", peak_rss / f64::from(1 << 20), "MiB"),
        metric(
            "sim_throughput_ops_s",
            ratio(ops, m.elapsed_ns as f64 / 1e9),
            "ops/sim-s",
        ),
        metric("sim_get_p50_us", m.get_p50_ns / 1e3, "us"),
        metric("sim_get_p999_us", m.get_p999_ns / 1e3, "us"),
        metric("sim_set_p50_us", m.set_p50_ns / 1e3, "us"),
        metric("sim_set_p999_us", m.set_p999_ns / 1e3, "us"),
        metric(
            "stored_bytes_per_user_byte",
            ratio(m.used_bytes as f64, (m.records * m.value_len) as f64),
            "ratio",
        ),
    ]
}

/// The per-layer metrics of `w` from its untraced rounds `plain`, its
/// traced round `traced` and the probes.
fn per_layer(w: Workload, plain: &[Round], traced: &Round, p: &Probes) -> Vec<Metric> {
    let m = &plain[0].model;
    let t = traced.traced.as_ref().expect("a traced round");
    let (ops, run_s) = (m.ops as f64, median_of(plain, |r| r.run.as_secs_f64()));
    let (repair_s, repair_amp, repair_keys) = m.repair.map_or((0.0, 0.0, 0.0), |r| {
        let amp = ratio(r.bytes_read as f64, r.bytes_written as f64);
        (r.elapsed.as_secs_f64(), amp, r.keys_repaired as f64)
    });
    let first = &plain[0];
    let inserted = if w.inserts_in_run() {
        first.rss_run
    } else {
        first.rss_load
    };
    let c = t.counters;
    let mut out = vec![
        metric("ops.gen_s", median_of(plain, |r| r.gen.as_secs_f64()), "s"),
        metric("core.run_s", run_s, "s"),
        metric(
            "core.world_new_s",
            median_of(plain, |r| r.world_new.as_secs_f64()),
            "s",
        ),
        metric(
            "core.load_s",
            median_of(plain, |r| r.load.as_secs_f64()),
            "s",
        ),
        metric(
            "host.reference_s",
            median_of(plain, |r| r.reference.as_secs_f64()),
            "s",
        ),
        metric("simnet.events_per_op", ratio(m.events as f64, ops), "count"),
        metric(
            "simnet.events_per_wall_s",
            median_of(plain, |r| m.events as f64 / r.run.as_secs_f64()),
            "1/s",
        ),
        metric("core.get_count", m.get_count as f64, "count"),
        metric("core.set_count", m.set_count as f64, "count"),
        metric("core.retries_per_op", ratio(m.retries as f64, ops), "ratio"),
        metric(
            "core.degraded_get_ratio",
            ratio(m.degraded_gets as f64, m.get_count as f64),
            "ratio",
        ),
        metric("core.repair_s", repair_s, "sim-s"),
        metric("core.repair.read_amplification", repair_amp, "ratio"),
        metric("core.repair.keys", repair_keys, "count"),
        metric("core.repair.promotions", m.promotions as f64, "count"),
        metric("store.items", m.items as f64, "count"),
        metric(
            "store.hit_ratio",
            ratio(m.hits as f64, (m.hits + m.misses) as f64),
            "ratio",
        ),
        metric(
            "mem.bytes_per_record",
            ratio(inserted, m.records as f64),
            "B",
        ),
        metric("mem.run_bytes_per_op", ratio(first.rss_run, ops), "B"),
        metric(
            "trace.overhead_ratio",
            traced.measured().as_secs_f64() / median_of(plain, |r| r.measured().as_secs_f64()),
            "ratio",
        ),
        metric("simnet.peak_pending_events", t.peak_pending as f64, "count"),
        metric(
            "simnet.net.tx_bytes_per_op",
            ratio(c.tx_bytes as f64, ops),
            "B",
        ),
        metric(
            "simnet.net.msgs_per_op",
            ratio(c.tx_msgs as f64, ops),
            "count",
        ),
        metric("simnet.net.max_tx_util", c.max_tx_util, "ratio"),
        metric("simnet.net.max_rx_util", c.max_rx_util, "ratio"),
        metric(
            "simnet.compute.codec_calls_per_op",
            ratio(c.codec_calls as f64, ops),
            "count",
        ),
        metric(
            "simnet.compute.codec_busy_us_per_op",
            ratio(c.codec_busy_ns as f64 / 1e3, ops),
            "us",
        ),
    ];
    out.extend(
        t.shares
            .iter()
            .map(|(name, v)| metric(name.clone(), *v, "ratio")),
    );
    let run_ns = run_s * 1e9;
    let codec_ns = if w.inline() {
        (p.encode_us * m.set_count as f64 + p.decode_us * m.degraded_gets as f64) * 1e3
    } else {
        0.0
    };
    out.extend([
        metric("simnet.engine.ns_per_event", p.ns_per_event, "ns"),
        metric("store.node.set_ns", p.store_set_ns, "ns"),
        metric("store.node.get_ns", p.store_get_ns, "ns"),
        metric("store.digest_us", p.digest_us, "us"),
        metric("erasure.encode_us", p.encode_us, "us"),
        metric("erasure.decode_us", p.decode_us, "us"),
        metric("gf.mul_slice_xor_gbps", p.gf_gbps, "GB/s"),
        metric(
            "simnet.engine.est_share",
            ratio(p.ns_per_event * m.events as f64, run_ns),
            "ratio",
        ),
        metric(
            "store.node.est_share",
            ratio(
                p.store_set_ns * m.store_sets as f64 + p.store_get_ns * m.store_gets as f64,
                run_ns,
            ),
            "ratio",
        ),
        metric("erasure.est_share", ratio(codec_ns, run_ns), "ratio"),
    ]);
    out
}

/// What one run of one workload measured.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

/// Measures `w` round after round for at least `seconds` and
/// [`MIN_ROUNDS`] rounds; with `trace`, one traced round and the probes
/// follow and the per-layer metrics are reported.
fn bench(w: Workload, size: Size, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let start = Instant::now();
    let mut plain = vec![w.round(size, seed, false)];
    // Later rounds reuse freed memory, so the first round's peak is the
    // one that repeats from run to run.
    let peak_rss = proc_status_bytes("VmHWM");
    while plain.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        plain.push(w.round(size, seed, false));
    }
    let traced = trace.then(|| w.round(size, seed, true));
    let all = || plain.iter().chain(&traced);
    let mut violations: Vec<String> = all().flat_map(Round::violations).collect();
    // Every round replays the same seed, traced or not: the modelled store
    // must come out identical, or the engine is not deterministic or the
    // trace perturbs what it observes.
    if all().any(|r| r.model != plain[0].model) {
        violations.push("model metrics differ between rounds of one seed".into());
    }
    let metrics = if let Some(traced) = &traced {
        let min = if size == Size::Full {
            PROBE_BATCH
        } else {
            Duration::ZERO
        };
        let probes = probes::run(w.value_len() as usize, w.inline(), min);
        println!("{} gf.backend {} name", w.name(), probes.backend);
        per_layer(w, &plain, traced, &probes)
    } else {
        end_to_end(&plain, peak_rss)
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        violations.push(format!("{} is not a number", m.name));
    }
    Outcome {
        attempted: all().map(|r| r.model.ops).sum(),
        failed: all().map(|r| r.model.errors).sum(),
        metrics,
        violations,
    }
}

/// The result line: one JSON object.
fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.violations.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// Command-line options.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: eckv-perf [--workload ycsb-a|ycsb-b-repair|inline-64k|ingest-256b] [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs every workload, each in a child process, and folds their result
/// lines into one object.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let (mut ok, mut results) = (true, Vec::new());
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .expect("the benchmark can re-run itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or("null");
        for line in lines {
            println!("{line}");
        }
        ok &= out.status.success();
        results.push(format!("\"{}\": {result}", w.name()));
    }
    println!(
        "{{\"correct\": {ok}, \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let o = bench(w, Size::Full, args.seed, args.seconds, args.trace);
    for m in &o.metrics {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    for v in &o.violations {
        eprintln!("{}: check failed: {v}", w.name());
    }
    println!("{}", json(&o));
    if o.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s of one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        body[..body.find(']').expect("a section is a list")]
            .split("\"name\"")
            .skip(1)
            .map(|entry| entry.split('"').nth(1).expect("a quoted name").to_owned())
            .collect()
    }

    #[test]
    fn every_listed_metric_is_emitted_and_every_check_passes() {
        let names = |o: &Outcome| o.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(
            listed("workloads"),
            Workload::ALL.map(|w| w.name().to_owned())
        );
        for w in Workload::ALL {
            // The traced run also replays the seed untraced and checks
            // that the trace leaves the model untouched.
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let o = bench(w, Size::Tiny, 7, 0.0, trace);
                assert_eq!(names(&o), listed(section), "{}", w.name());
                assert!(o.violations.is_empty(), "{}: {:?}", w.name(), o.violations);
                assert_eq!(o.failed, 0);
                assert!(o.attempted > 0);
            }
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        assert!(parse(&["--workload", "ycsb-z"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        let a = parse(&["--workload", "inline-64k", "--seed", "9", "--trace", "1"]).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Some(Workload::Inline64k), 9, true)
        );
    }
}
