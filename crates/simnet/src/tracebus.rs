//! TraceBus: a deterministic, zero-cost-when-disabled structured event
//! stream threaded through the whole simulator stack.
//!
//! Every layer (transport, compute, servers, the engine's op paths) emits
//! typed [`TraceEvent`]s through a cheaply-clonable [`Trace`] handle. A
//! disabled handle is `None` inside — every substrate emission site
//! branches on that and pays nothing else (the engine builds its op-level
//! events either way, because its metrics fold them). An enabled handle
//! fans events out to pluggable [`TraceSink`]s (any closure over records,
//! JSONL/CSV text exporters), feeds the windowed
//! [`TimeSeries`](crate::TimeSeries) aggregator, and maintains a per-node
//! counter registry.
//!
//! Determinism is a hard requirement: events carry only virtual timestamps
//! and a monotonically increasing sequence number, sinks buffer into
//! in-memory strings, and the counter registry is a `BTreeMap` — so two
//! runs with identical seeds produce byte-identical exports.
//!
//! # Example
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use eckv_simnet::{JsonlSink, NodeId, SimTime, Trace, TraceBus, TraceEvent};
//!
//! let sink = Rc::new(RefCell::new(JsonlSink::new()));
//! let mut bus = TraceBus::new();
//! bus.add_sink(sink.clone());
//! let trace = Trace::from_bus(bus);
//! trace.emit(
//!     SimTime::from_nanos(10),
//!     TraceEvent::ShardSend { from: NodeId(0), to: NodeId(1), bytes: 4096 },
//! );
//! assert!(sink.borrow().contents().contains("\"event\":\"shard_send\""));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::net::NodeId;
use crate::span::{SpanCollector, SpanOpClass, SpanPhase};
use crate::time::{SimDuration, SimTime};
use crate::timeseries::TimeSeries;
use crate::trace::PhaseBreakdown;

/// Version of the export schema (the JSONL/CSV field layout). Bumped
/// whenever an event or column changes meaning, so downstream tooling
/// can detect drift from the header line each sink emits.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// The self-describing first line of every JSONL trace export.
pub const JSONL_SCHEMA_HEADER: &str = "{\"schema\":\"eckv.trace\",\"version\":1}\n";

/// The self-describing first line of every CSV trace export (a comment
/// row preceding the column header).
pub const CSV_SCHEMA_HEADER: &str = "#schema=eckv.trace,version=1\n";

/// Renders the full event schema — every event name with the flat
/// columns it populates — for `eckv-sim --trace-schema` and any
/// downstream tooling that wants to validate a trace before parsing it.
pub fn event_schema() -> String {
    let mut out = format!(
        "eckv.trace schema version {TRACE_SCHEMA_VERSION}\ncommon fields: at_ns, seq, event\n"
    );
    const EVENTS: &[(&str, &str)] = &[
        ("op_admitted", "node, kind"),
        ("op_completed", "node, kind, bytes, dur_ns, ok"),
        ("shard_send", "node, peer, bytes"),
        ("shard_recv", "node, peer, bytes"),
        ("nic_queue_enter", "node, kind, bytes"),
        ("nic_queue_exit", "node, kind, dur_ns"),
        ("encode_start", "node, bytes"),
        ("encode_end", "node, dur_ns"),
        ("decode_start", "node, bytes"),
        ("decode_end", "node, dur_ns"),
        ("failure_detected", "node, peer"),
        ("retry", "node, kind"),
        ("repair_shard", "node, bytes"),
        ("ssd_spill", "node, bytes"),
        ("ssd_read", "node, bytes"),
        ("hedge_fired", "node, bytes"),
        ("hedge_won", "node, dur_ns"),
        ("deadline_exceeded", "node, kind, dur_ns"),
        ("node_degraded", "node, bytes"),
        ("repair_started", "node, bytes"),
        ("repair_throttled", "node, dur_ns"),
        ("repair_key_promoted", "node, bytes"),
        ("repair_done", "node, bytes, dur_ns"),
        ("queue_capped", "node, kind, bytes"),
        ("op_shed", "node, peer, kind"),
        ("vshard_reassigned", "node, peer, bytes"),
        ("migration_started", "node, bytes"),
        ("migration_done", "node, bytes, dur_ns"),
    ];
    for (name, fields) in EVENTS {
        out.push_str(&format!("{name}: {fields}\n"));
    }
    out
}

/// Which kind of client operation an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A write.
    Set,
    /// A read (bulk-get sub-reads included).
    Get,
}

impl OpClass {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Set => "set",
            OpClass::Get => "get",
        }
    }
}

/// NIC direction of a queue event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicDir {
    /// Transmit side.
    Tx,
    /// Receive side.
    Rx,
}

impl NicDir {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            NicDir::Tx => "tx",
            NicDir::Rx => "rx",
        }
    }
}

/// Which codec kernel a codec span ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecOp {
    /// Erasure encode.
    Encode,
    /// Erasure decode (degraded read or repair reconstruction).
    Decode,
}

/// One structured trace event. Timestamps live on the enclosing
/// [`TraceRecord`]; durations and byte counts ride on the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The driver admitted an operation into a client's window.
    OpAdmitted {
        /// Node the issuing client runs on.
        client: NodeId,
        /// Set or Get.
        op: OpClass,
    },
    /// An operation completed (after any transparent retries).
    OpCompleted {
        /// Node the issuing client runs on.
        client: NodeId,
        /// Set or Get.
        op: OpClass,
        /// Client-observed latency.
        latency: SimDuration,
        /// Whether the operation succeeded.
        ok: bool,
        /// Value size in bytes. The exported `bytes` column carries it
        /// for successful operations only (zero for failures).
        value_len: u64,
        /// Whether a Get was served degraded (reconstructed from parity).
        degraded: bool,
        /// Whether the returned data passed integrity validation.
        integrity_ok: bool,
        /// Request / wait-response / compute phase split (Figure 9).
        breakdown: PhaseBreakdown,
    },
    /// A message (shard, request, or ack) entered the transport.
    ShardSend {
        /// Sender node.
        from: NodeId,
        /// Receiver node.
        to: NodeId,
        /// Payload bytes.
        bytes: u64,
    },
    /// A message was delivered to its receiver.
    ShardRecv {
        /// Sender node.
        from: NodeId,
        /// Receiver node.
        to: NodeId,
        /// Payload bytes.
        bytes: u64,
    },
    /// A transfer joined a NIC's FIFO queue.
    NicQueueEnter {
        /// The NIC's node.
        node: NodeId,
        /// Direction.
        dir: NicDir,
        /// Queue depth including this transfer.
        depth: u64,
    },
    /// A transfer finished serializing through a NIC.
    NicQueueExit {
        /// The NIC's node.
        node: NodeId,
        /// Direction.
        dir: NicDir,
        /// Time spent queued behind earlier transfers.
        waited: SimDuration,
    },
    /// A codec kernel started on a node's CPU.
    CodecStart {
        /// Node running the kernel.
        node: NodeId,
        /// Encode or decode.
        op: CodecOp,
        /// Value bytes processed.
        bytes: u64,
    },
    /// A codec kernel finished.
    CodecEnd {
        /// Node that ran the kernel.
        node: NodeId,
        /// Encode or decode.
        op: CodecOp,
        /// Kernel duration.
        took: SimDuration,
    },
    /// A sender observed a transport error against a dead node.
    FailureDetected {
        /// The dead node.
        node: NodeId,
        /// The node that discovered it.
        by: NodeId,
    },
    /// The driver transparently re-dispatched an operation after a
    /// dead-server discovery.
    Retry {
        /// Node the issuing client runs on.
        client: NodeId,
        /// Set or Get.
        op: OpClass,
    },
    /// Repair reconstructed a lost shard onto a replacement server.
    RepairShard {
        /// The replacement server's node.
        node: NodeId,
        /// Rebuilt shard bytes.
        bytes: u64,
    },
    /// A RAM eviction victim spilled to a server's flash tier.
    SsdSpill {
        /// The server's node.
        node: NodeId,
        /// Spilled bytes.
        bytes: u64,
    },
    /// A read missed RAM and was served from flash.
    SsdRead {
        /// The server's node.
        node: NodeId,
        /// Bytes read from flash.
        bytes: u64,
    },
    /// A hedge timer expired and speculative chunk fetches were issued to
    /// untried holders.
    HedgeFired {
        /// Node the issuing client runs on.
        client: NodeId,
        /// Number of speculative fetches issued.
        extra: u64,
    },
    /// A speculative (hedged) chunk was among the `k` used to complete the
    /// read.
    HedgeWon {
        /// Node the issuing client runs on.
        client: NodeId,
        /// Time from hedge firing to operation completion.
        waited: SimDuration,
    },
    /// An operation's total latency exceeded the configured per-op
    /// deadline (it still ran to its final outcome).
    DeadlineExceeded {
        /// Node the issuing client runs on.
        client: NodeId,
        /// Set or Get.
        op: OpClass,
        /// The operation's final latency.
        latency: SimDuration,
    },
    /// A node was configured as a straggler by the fault-injection layer.
    NodeDegraded {
        /// The degraded node.
        node: NodeId,
        /// Slowdown factor in fixed-point hundredths (800 = 8.00×), kept
        /// integral so the event stays `Eq`/hashable.
        factor_x100: u64,
    },
    /// The online repair engine issued the rebuild of one key. Emitted at
    /// pacer-release time, so summing `bytes` over any trace window bounds
    /// the repair traffic the throttle admitted into it.
    RepairStarted {
        /// Node driving the repair (the repair client).
        node: NodeId,
        /// Estimated repair traffic for this key (survivor reads plus the
        /// replacement write) — the token-bucket debit.
        bytes: u64,
    },
    /// The repair pacer held a key back to honour the bandwidth cap.
    RepairThrottled {
        /// Node driving the repair.
        node: NodeId,
        /// How long the key was delayed.
        waited: SimDuration,
    },
    /// A degraded read promoted its key to the front of the repair queue.
    RepairKeyPromoted {
        /// Node driving the repair.
        node: NodeId,
        /// Zero-based queue position the key jumped from.
        depth: u64,
    },
    /// An overloaded server refused new work at its bounded-queue cap.
    QueueCapped {
        /// The overloaded server node.
        node: NodeId,
        /// Outstanding queue depth at refusal time.
        depth: u64,
        /// Whether the refused request was background repair traffic
        /// (repair is shed at a stricter bound than foreground work).
        repair: bool,
    },
    /// A request was shed by an overloaded server: a fast retryable
    /// refusal observed on the issuing side, not a failure.
    OpShed {
        /// Node the issuing side runs on (client, aggregator, or repair
        /// driver).
        client: NodeId,
        /// The server that shed the request.
        server: NodeId,
        /// Whether the shed request was background repair traffic.
        repair: bool,
    },
    /// The repair queue drained (every lost key repaired or written off).
    RepairDone {
        /// Node that drove the repair.
        node: NodeId,
        /// Keys processed (repaired plus lost).
        keys: u64,
        /// Time from repair start to drain.
        elapsed: SimDuration,
    },
    /// A membership change reassigned one virtual shard to a new holder.
    VshardReassigned {
        /// Server node that now holds the vshard's moved slot.
        node: NodeId,
        /// Server node that held the slot before the change.
        from: NodeId,
        /// The reassigned vshard's index.
        vshard: u64,
    },
    /// A membership change enqueued its data movement on the repair engine.
    MigrationStarted {
        /// Node driving the migration (the repair client).
        node: NodeId,
        /// Keys whose chunks must move to new holders.
        keys: u64,
    },
    /// The migration queue drained (every moved chunk copied or written
    /// off) and the cluster converged on the new placement.
    MigrationDone {
        /// Node that drove the migration.
        node: NodeId,
        /// Keys processed (migrated plus lost).
        keys: u64,
        /// Time from migration start to drain.
        elapsed: SimDuration,
    },
}

impl TraceEvent {
    /// Stable event name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::OpAdmitted { .. } => "op_admitted",
            TraceEvent::OpCompleted { .. } => "op_completed",
            TraceEvent::ShardSend { .. } => "shard_send",
            TraceEvent::ShardRecv { .. } => "shard_recv",
            TraceEvent::NicQueueEnter { .. } => "nic_queue_enter",
            TraceEvent::NicQueueExit { .. } => "nic_queue_exit",
            TraceEvent::CodecStart {
                op: CodecOp::Encode,
                ..
            } => "encode_start",
            TraceEvent::CodecStart {
                op: CodecOp::Decode,
                ..
            } => "decode_start",
            TraceEvent::CodecEnd {
                op: CodecOp::Encode,
                ..
            } => "encode_end",
            TraceEvent::CodecEnd {
                op: CodecOp::Decode,
                ..
            } => "decode_end",
            TraceEvent::FailureDetected { .. } => "failure_detected",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::RepairShard { .. } => "repair_shard",
            TraceEvent::SsdSpill { .. } => "ssd_spill",
            TraceEvent::SsdRead { .. } => "ssd_read",
            TraceEvent::HedgeFired { .. } => "hedge_fired",
            TraceEvent::HedgeWon { .. } => "hedge_won",
            TraceEvent::DeadlineExceeded { .. } => "deadline_exceeded",
            TraceEvent::NodeDegraded { .. } => "node_degraded",
            TraceEvent::RepairStarted { .. } => "repair_started",
            TraceEvent::RepairThrottled { .. } => "repair_throttled",
            TraceEvent::RepairKeyPromoted { .. } => "repair_key_promoted",
            TraceEvent::QueueCapped { .. } => "queue_capped",
            TraceEvent::OpShed { .. } => "op_shed",
            TraceEvent::RepairDone { .. } => "repair_done",
            TraceEvent::VshardReassigned { .. } => "vshard_reassigned",
            TraceEvent::MigrationStarted { .. } => "migration_started",
            TraceEvent::MigrationDone { .. } => "migration_done",
        }
    }
}

/// One emitted event with its virtual timestamp and sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time the event is stamped with. Span-end events
    /// ([`TraceEvent::CodecEnd`], [`TraceEvent::NicQueueExit`]) may be
    /// stamped in the future of the event that scheduled them.
    pub at: SimTime,
    /// Emission order, monotonically increasing per bus.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Appends `s` to `out` as a JSON string literal (quotes included), with
/// hand-rolled escaping — no external serialization crate.
pub fn escape_json_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The shared flat field layout used by the generic exporters: every event
/// maps onto `(node, peer, kind, bytes, dur_ns, ok)`, with unused fields
/// `None`.
struct FlatFields {
    node: Option<NodeId>,
    peer: Option<NodeId>,
    kind: Option<&'static str>,
    bytes: Option<u64>,
    dur_ns: Option<u64>,
    ok: Option<bool>,
}

impl TraceRecord {
    fn flat(&self) -> FlatFields {
        let mut f = FlatFields {
            node: None,
            peer: None,
            kind: None,
            bytes: None,
            dur_ns: None,
            ok: None,
        };
        match self.event {
            TraceEvent::OpAdmitted { client, op } => {
                f.node = Some(client);
                f.kind = Some(op.label());
            }
            TraceEvent::OpCompleted {
                client,
                op,
                latency,
                ok,
                value_len,
                ..
            } => {
                f.node = Some(client);
                f.kind = Some(op.label());
                f.bytes = Some(if ok { value_len } else { 0 });
                f.dur_ns = Some(latency.as_nanos());
                f.ok = Some(ok);
            }
            TraceEvent::ShardSend { from, to, bytes }
            | TraceEvent::ShardRecv { from, to, bytes } => {
                f.node = Some(from);
                f.peer = Some(to);
                f.bytes = Some(bytes);
            }
            TraceEvent::NicQueueEnter { node, dir, depth } => {
                f.node = Some(node);
                f.kind = Some(dir.label());
                f.bytes = Some(depth);
            }
            TraceEvent::NicQueueExit { node, dir, waited } => {
                f.node = Some(node);
                f.kind = Some(dir.label());
                f.dur_ns = Some(waited.as_nanos());
            }
            TraceEvent::CodecStart { node, bytes, .. } => {
                f.node = Some(node);
                f.bytes = Some(bytes);
            }
            TraceEvent::CodecEnd { node, took, .. } => {
                f.node = Some(node);
                f.dur_ns = Some(took.as_nanos());
            }
            TraceEvent::FailureDetected { node, by } => {
                f.node = Some(node);
                f.peer = Some(by);
            }
            TraceEvent::Retry { client, op } => {
                f.node = Some(client);
                f.kind = Some(op.label());
            }
            TraceEvent::RepairShard { node, bytes }
            | TraceEvent::SsdSpill { node, bytes }
            | TraceEvent::SsdRead { node, bytes } => {
                f.node = Some(node);
                f.bytes = Some(bytes);
            }
            TraceEvent::HedgeFired { client, extra } => {
                f.node = Some(client);
                f.bytes = Some(extra);
            }
            TraceEvent::HedgeWon { client, waited } => {
                f.node = Some(client);
                f.dur_ns = Some(waited.as_nanos());
            }
            TraceEvent::DeadlineExceeded {
                client,
                op,
                latency,
            } => {
                f.node = Some(client);
                f.kind = Some(op.label());
                f.dur_ns = Some(latency.as_nanos());
            }
            TraceEvent::NodeDegraded { node, factor_x100 } => {
                f.node = Some(node);
                f.bytes = Some(factor_x100);
            }
            TraceEvent::RepairStarted { node, bytes } => {
                f.node = Some(node);
                f.bytes = Some(bytes);
            }
            TraceEvent::RepairThrottled { node, waited } => {
                f.node = Some(node);
                f.dur_ns = Some(waited.as_nanos());
            }
            TraceEvent::RepairKeyPromoted { node, depth } => {
                f.node = Some(node);
                f.bytes = Some(depth);
            }
            TraceEvent::QueueCapped {
                node,
                depth,
                repair,
            } => {
                f.node = Some(node);
                f.bytes = Some(depth);
                f.kind = Some(if repair { "repair" } else { "fg" });
            }
            TraceEvent::OpShed {
                client,
                server,
                repair,
            } => {
                f.node = Some(client);
                f.peer = Some(server);
                f.kind = Some(if repair { "repair" } else { "fg" });
            }
            TraceEvent::RepairDone {
                node,
                keys,
                elapsed,
            } => {
                f.node = Some(node);
                f.bytes = Some(keys);
                f.dur_ns = Some(elapsed.as_nanos());
            }
            TraceEvent::VshardReassigned { node, from, vshard } => {
                f.node = Some(node);
                f.peer = Some(from);
                f.bytes = Some(vshard);
            }
            TraceEvent::MigrationStarted { node, keys } => {
                f.node = Some(node);
                f.bytes = Some(keys);
            }
            TraceEvent::MigrationDone {
                node,
                keys,
                elapsed,
            } => {
                f.node = Some(node);
                f.bytes = Some(keys);
                f.dur_ns = Some(elapsed.as_nanos());
            }
        }
        f
    }

    /// Appends this record to `out` as one JSONL line (newline included).
    pub fn write_jsonl(&self, out: &mut String) {
        use fmt::Write;
        let f = self.flat();
        let _ = write!(
            out,
            "{{\"at_ns\":{},\"seq\":{},\"event\":",
            self.at.as_nanos(),
            self.seq
        );
        escape_json_into(self.event.name(), out);
        if let Some(n) = f.node {
            let _ = write!(out, ",\"node\":{}", n.0);
        }
        if let Some(p) = f.peer {
            let _ = write!(out, ",\"peer\":{}", p.0);
        }
        if let Some(k) = f.kind {
            out.push_str(",\"kind\":");
            escape_json_into(k, out);
        }
        if let Some(b) = f.bytes {
            let _ = write!(out, ",\"bytes\":{b}");
        }
        if let Some(d) = f.dur_ns {
            let _ = write!(out, ",\"dur_ns\":{d}");
        }
        if let Some(ok) = f.ok {
            let _ = write!(out, ",\"ok\":{ok}");
        }
        out.push_str("}\n");
    }

    /// The header row matching [`TraceRecord::write_csv`].
    pub const CSV_HEADER: &'static str = "at_ns,seq,event,node,peer,kind,bytes,dur_ns,ok\n";

    /// Appends this record to `out` as one CSV row (newline included);
    /// inapplicable columns are left empty.
    pub fn write_csv(&self, out: &mut String) {
        use fmt::Write;
        let f = self.flat();
        let _ = write!(
            out,
            "{},{},{}",
            self.at.as_nanos(),
            self.seq,
            self.event.name()
        );
        match f.node {
            Some(n) => {
                let _ = write!(out, ",{}", n.0);
            }
            None => out.push(','),
        }
        match f.peer {
            Some(p) => {
                let _ = write!(out, ",{}", p.0);
            }
            None => out.push(','),
        }
        match f.kind {
            Some(k) => {
                let _ = write!(out, ",{k}");
            }
            None => out.push(','),
        }
        match f.bytes {
            Some(b) => {
                let _ = write!(out, ",{b}");
            }
            None => out.push(','),
        }
        match f.dur_ns {
            Some(d) => {
                let _ = write!(out, ",{d}");
            }
            None => out.push(','),
        }
        match f.ok {
            Some(ok) => {
                let _ = write!(out, ",{ok}");
            }
            None => out.push(','),
        }
        out.push('\n');
    }
}

/// A consumer of trace records. Sinks are registered on the
/// [`TraceBus`] behind `Rc<RefCell<...>>` so callers keep a handle and can
/// read the buffered output after the run.
pub trait TraceSink {
    /// Called once per emitted record, in emission order.
    fn on_event(&mut self, rec: &TraceRecord);
}

/// Any closure over records is a sink: the in-memory collector a test or
/// an experiment registers to keep just the records it reads.
impl<F: FnMut(&TraceRecord)> TraceSink for F {
    fn on_event(&mut self, rec: &TraceRecord) {
        self(rec)
    }
}

/// Buffers the trace as JSON Lines text (one object per event, preceded
/// by a schema-version header line). The caller writes
/// [`JsonlSink::contents`] to a file after the run — keeping file I/O out
/// of the simulator guarantees byte-identical output across runs.
#[derive(Debug, Clone)]
pub struct JsonlSink {
    out: String,
    events: u64,
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonlSink {
    /// Creates a sink holding just the schema-version header line.
    pub fn new() -> Self {
        JsonlSink {
            out: JSONL_SCHEMA_HEADER.to_string(),
            events: 0,
        }
    }

    /// The buffered JSONL text.
    pub fn contents(&self) -> &str {
        &self.out
    }

    /// Number of events written so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl TraceSink for JsonlSink {
    fn on_event(&mut self, rec: &TraceRecord) {
        rec.write_jsonl(&mut self.out);
        self.events += 1;
    }
}

/// Buffers the trace as CSV text: a schema-version comment line, the
/// fixed column header row, then one row per event.
#[derive(Debug, Clone)]
pub struct CsvSink {
    out: String,
    events: u64,
}

impl Default for CsvSink {
    fn default() -> Self {
        Self::new()
    }
}

impl CsvSink {
    /// Creates a sink holding the schema line and the column header row.
    pub fn new() -> Self {
        CsvSink {
            out: format!("{CSV_SCHEMA_HEADER}{}", TraceRecord::CSV_HEADER),
            events: 0,
        }
    }

    /// The buffered CSV text.
    pub fn contents(&self) -> &str {
        &self.out
    }

    /// Number of events written so far (excluding the header).
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl TraceSink for CsvSink {
    fn on_event(&mut self, rec: &TraceRecord) {
        rec.write_csv(&mut self.out);
        self.events += 1;
    }
}

/// The event hub: sequence numbering, sink fan-out, the windowed
/// time-series aggregator, and the per-node counter registry.
#[derive(Default)]
pub struct TraceBus {
    seq: u64,
    sinks: Vec<Rc<RefCell<dyn TraceSink>>>,
    counters: BTreeMap<(usize, &'static str), u64>,
    series: Option<TimeSeries>,
    spans: Option<SpanCollector>,
}

impl fmt::Debug for TraceBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceBus")
            .field("seq", &self.seq)
            .field("sinks", &self.sinks.len())
            .field("counters", &self.counters.len())
            .field("series", &self.series.is_some())
            .field("spans", &self.spans.is_some())
            .finish()
    }
}

impl TraceBus {
    /// Creates a bus with no sinks, no aggregator, empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a sink; every subsequent event is forwarded to it.
    pub fn add_sink(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.sinks.push(sink);
    }

    /// Enables the windowed time-series aggregator.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn enable_series(&mut self, window: SimDuration) {
        self.series = Some(TimeSeries::new(window));
    }

    /// The aggregator, if enabled.
    pub fn series(&self) -> Option<&TimeSeries> {
        self.series.as_ref()
    }

    /// Enables the causal span layer, retaining raw span trees for the
    /// `keep_slowest` slowest ops (Perfetto export). Span recording
    /// never emits trace events, so the JSONL/CSV event stream stays
    /// byte-identical whether or not spans are on.
    pub fn enable_spans(&mut self, keep_slowest: usize) {
        self.spans = Some(SpanCollector::new(keep_slowest));
    }

    /// The span collector, if enabled.
    pub fn spans(&self) -> Option<&SpanCollector> {
        self.spans.as_ref()
    }

    /// Mutable access to the span collector, if enabled.
    pub fn spans_mut(&mut self) -> Option<&mut SpanCollector> {
        self.spans.as_mut()
    }

    /// Emits one event: aggregates it, stamps it, and fans it out.
    pub fn emit(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(series) = &mut self.series {
            series.observe(at, &event);
        }
        let rec = TraceRecord {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        for sink in &self.sinks {
            sink.borrow_mut().on_event(&rec);
        }
    }

    /// Number of events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.seq
    }

    /// Adds `v` to counter `name` of `node`, saturating at `u64::MAX`.
    pub fn counter_add(&mut self, node: NodeId, name: &'static str, v: u64) {
        let c = self.counters.entry((node.0, name)).or_insert(0);
        *c = c.saturating_add(v);
    }

    /// Raises counter `name` of `node` to at least `v` (high-water mark).
    pub fn counter_max(&mut self, node: NodeId, name: &'static str, v: u64) {
        let c = self.counters.entry((node.0, name)).or_insert(0);
        *c = (*c).max(v);
    }

    /// Reads one counter (zero if never touched).
    pub fn counter(&self, node: NodeId, name: &'static str) -> u64 {
        self.counters.get(&(node.0, name)).copied().unwrap_or(0)
    }

    /// The full registry, deterministically ordered by `(node, name)`.
    pub fn counters(&self) -> impl Iterator<Item = (NodeId, &'static str, u64)> + '_ {
        self.counters
            .iter()
            .map(|(&(n, name), &v)| (NodeId(n), name, v))
    }
}

/// The handle every layer holds: `None` inside when tracing is disabled,
/// making every emission site a single branch. Cloning shares the bus.
#[derive(Debug, Clone, Default)]
pub struct Trace(Option<Rc<RefCell<TraceBus>>>);

impl Trace {
    /// The disabled handle — all operations are no-ops.
    pub fn disabled() -> Self {
        Trace(None)
    }

    /// Wraps a configured bus into an enabled handle.
    pub fn from_bus(bus: TraceBus) -> Self {
        Trace(Some(Rc::new(RefCell::new(bus))))
    }

    /// Whether events will be recorded. Hot paths check this before
    /// constructing event payloads.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits one event (no-op when disabled).
    pub fn emit(&self, at: SimTime, event: TraceEvent) {
        if let Some(bus) = &self.0 {
            bus.borrow_mut().emit(at, event);
        }
    }

    /// Adds to a per-node counter (no-op when disabled; saturating).
    pub fn counter_add(&self, node: NodeId, name: &'static str, v: u64) {
        if let Some(bus) = &self.0 {
            bus.borrow_mut().counter_add(node, name, v);
        }
    }

    /// Raises a per-node high-water mark (no-op when disabled).
    pub fn counter_max(&self, node: NodeId, name: &'static str, v: u64) {
        if let Some(bus) = &self.0 {
            bus.borrow_mut().counter_max(node, name, v);
        }
    }

    /// Runs `f` against the bus; returns `None` when disabled. Used by
    /// reporting code to read counters and the aggregator after a run.
    pub fn with_bus<R>(&self, f: impl FnOnce(&TraceBus) -> R) -> Option<R> {
        self.0.as_ref().map(|bus| f(&bus.borrow()))
    }

    /// Whether the causal span layer is collecting. Hot paths check this
    /// before computing span intervals.
    pub fn spans_enabled(&self) -> bool {
        match &self.0 {
            Some(bus) => bus.borrow().spans.is_some(),
            None => false,
        }
    }

    /// The op id ambient span records currently attach to (`None` when
    /// disabled, spans are off, or no op scope is set).
    pub fn span_scope(&self) -> Option<u64> {
        self.0
            .as_ref()
            .and_then(|bus| bus.borrow().spans.as_ref().and_then(SpanCollector::scope))
    }

    /// Replaces the ambient span scope, returning the previous one.
    /// Callback dispatchers save the caller's scope with this, restore it
    /// around the callback, and put it back after — causal propagation
    /// across scheduled closures.
    pub fn set_span_scope(&self, scope: Option<u64>) -> Option<u64> {
        match &self.0 {
            Some(bus) => bus
                .borrow_mut()
                .spans
                .as_mut()
                .and_then(|s| s.set_scope(scope)),
            None => None,
        }
    }

    /// Opens a span tree for an operation admitted at `at`; returns its
    /// id, or `None` when spans are off.
    pub fn span_begin_op(&self, class: SpanOpClass, at: SimTime) -> Option<u64> {
        self.0.as_ref().and_then(|bus| {
            bus.borrow_mut()
                .spans
                .as_mut()
                .map(|s| s.begin_op(class, at))
        })
    }

    /// Closes an op's span tree at `at` and computes its critical path.
    pub fn span_end_op(&self, op: u64, at: SimTime, ok: bool) {
        if let Some(bus) = &self.0 {
            if let Some(s) = bus.borrow_mut().spans.as_mut() {
                s.end_op(op, at, ok);
            }
        }
    }

    /// Records a span on the ambient scope's tree (no-op without scope).
    pub fn span_record(&self, phase: SpanPhase, node: NodeId, start: SimTime, end: SimTime) {
        if let Some(bus) = &self.0 {
            if let Some(s) = bus.borrow_mut().spans.as_mut() {
                s.record(phase, node, start, end);
            }
        }
    }

    /// Records a span on a specific op's tree — used where the interval
    /// is computed inside a scheduled closure whose ambient scope was
    /// captured earlier (the transport).
    pub fn span_record_for(
        &self,
        op: u64,
        phase: SpanPhase,
        node: NodeId,
        start: SimTime,
        end: SimTime,
    ) {
        if let Some(bus) = &self.0 {
            if let Some(s) = bus.borrow_mut().spans.as_mut() {
                s.record_for(op, phase, node, start, end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, seq: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at_ns),
            seq,
            event: TraceEvent::ShardSend {
                from: NodeId(0),
                to: NodeId(1),
                bytes: 64,
            },
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        t.emit(SimTime::ZERO, rec(0, 0).event);
        t.counter_add(NodeId(0), "x", 1);
        assert!(t.with_bus(|_| ()).is_none());
    }

    #[test]
    fn jsonl_line_shape() {
        let mut out = String::new();
        rec(1500, 3).write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":1500,\"seq\":3,\"event\":\"shard_send\",\"node\":0,\"peer\":1,\"bytes\":64}\n"
        );
    }

    #[test]
    fn csv_line_shape() {
        let mut out = String::new();
        rec(1500, 3).write_csv(&mut out);
        assert_eq!(out, "1500,3,shard_send,0,1,,64,,\n");
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut out = String::new();
        escape_json_into("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut bus = TraceBus::new();
        bus.counter_add(NodeId(2), "bytes", u64::MAX - 1);
        bus.counter_add(NodeId(2), "bytes", 5);
        assert_eq!(bus.counter(NodeId(2), "bytes"), u64::MAX);
        bus.counter_max(NodeId(2), "hwm", 7);
        bus.counter_max(NodeId(2), "hwm", 3);
        assert_eq!(bus.counter(NodeId(2), "hwm"), 7);
        assert_eq!(bus.counter(NodeId(9), "bytes"), 0);
    }

    #[test]
    fn counter_registry_iterates_in_key_order() {
        let mut bus = TraceBus::new();
        bus.counter_add(NodeId(3), "b", 1);
        bus.counter_add(NodeId(0), "z", 1);
        bus.counter_add(NodeId(3), "a", 1);
        let keys: Vec<(usize, &str)> = bus.counters().map(|(n, name, _)| (n.0, name)).collect();
        assert_eq!(keys, vec![(0, "z"), (3, "a"), (3, "b")]);
    }

    #[test]
    fn bus_fans_out_to_all_sinks_with_monotone_seq() {
        let seqs = Rc::new(RefCell::new(Vec::new()));
        let jsonl = Rc::new(RefCell::new(JsonlSink::new()));
        let mut bus = TraceBus::new();
        let collect = seqs.clone();
        bus.add_sink(Rc::new(RefCell::new(move |r: &TraceRecord| {
            collect.borrow_mut().push(r.seq)
        })));
        bus.add_sink(jsonl.clone());
        let trace = Trace::from_bus(bus);
        for i in 0..4u64 {
            trace.emit(
                SimTime::from_nanos(i * 10),
                TraceEvent::SsdSpill {
                    node: NodeId(1),
                    bytes: i,
                },
            );
        }
        assert_eq!(*seqs.borrow(), vec![0, 1, 2, 3]);
        // Four events plus the schema-version header line.
        assert_eq!(jsonl.borrow().contents().lines().count(), 5);
        assert_eq!(trace.with_bus(TraceBus::events_emitted), Some(4));
    }

    #[test]
    fn straggler_and_hedge_events_flatten_into_the_fixed_columns() {
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(500),
            seq: 0,
            event: TraceEvent::NodeDegraded {
                node: NodeId(1),
                factor_x100: 800,
            },
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":500,\"seq\":0,\"event\":\"node_degraded\",\"node\":1,\"bytes\":800}\n"
        );
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(900),
            seq: 1,
            event: TraceEvent::DeadlineExceeded {
                client: NodeId(5),
                op: OpClass::Get,
                latency: SimDuration::from_micros(2),
            },
        }
        .write_csv(&mut out);
        assert_eq!(out, "900,1,deadline_exceeded,5,,get,,2000,\n");
        assert_eq!(
            TraceEvent::HedgeFired {
                client: NodeId(0),
                extra: 2
            }
            .name(),
            "hedge_fired"
        );
        assert_eq!(
            TraceEvent::HedgeWon {
                client: NodeId(0),
                waited: SimDuration::ZERO
            }
            .name(),
            "hedge_won"
        );
    }

    #[test]
    fn repair_events_flatten_into_the_fixed_columns() {
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(100),
            seq: 0,
            event: TraceEvent::RepairStarted {
                node: NodeId(5),
                bytes: 4096,
            },
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":100,\"seq\":0,\"event\":\"repair_started\",\"node\":5,\"bytes\":4096}\n"
        );
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(200),
            seq: 1,
            event: TraceEvent::RepairThrottled {
                node: NodeId(5),
                waited: SimDuration::from_micros(3),
            },
        }
        .write_csv(&mut out);
        assert_eq!(out, "200,1,repair_throttled,5,,,,3000,\n");
        assert_eq!(
            TraceEvent::RepairKeyPromoted {
                node: NodeId(0),
                depth: 7
            }
            .name(),
            "repair_key_promoted"
        );
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(300),
            seq: 2,
            event: TraceEvent::RepairDone {
                node: NodeId(5),
                keys: 30,
                elapsed: SimDuration::from_micros(9),
            },
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":300,\"seq\":2,\"event\":\"repair_done\",\"node\":5,\"bytes\":30,\"dur_ns\":9000}\n"
        );
    }

    #[test]
    fn membership_events_flatten_into_the_fixed_columns() {
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(50),
            seq: 0,
            event: TraceEvent::VshardReassigned {
                node: NodeId(5),
                from: NodeId(2),
                vshard: 311,
            },
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":50,\"seq\":0,\"event\":\"vshard_reassigned\",\"node\":5,\"peer\":2,\"bytes\":311}\n"
        );
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(60),
            seq: 1,
            event: TraceEvent::MigrationStarted {
                node: NodeId(8),
                keys: 40,
            },
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":60,\"seq\":1,\"event\":\"migration_started\",\"node\":8,\"bytes\":40}\n"
        );
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(70),
            seq: 2,
            event: TraceEvent::MigrationDone {
                node: NodeId(8),
                keys: 40,
                elapsed: SimDuration::from_micros(12),
            },
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":70,\"seq\":2,\"event\":\"migration_done\",\"node\":8,\"bytes\":40,\"dur_ns\":12000}\n"
        );
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(80),
            seq: 3,
            event: TraceEvent::VshardReassigned {
                node: NodeId(5),
                from: NodeId(2),
                vshard: 311,
            },
        }
        .write_csv(&mut out);
        assert_eq!(out, "80,3,vshard_reassigned,5,2,,311,,\n");
    }

    #[test]
    fn admission_events_serialize() {
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(10),
            seq: 0,
            event: TraceEvent::QueueCapped {
                node: NodeId(2),
                depth: 64,
                repair: true,
            },
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":10,\"seq\":0,\"event\":\"queue_capped\",\"node\":2,\"kind\":\"repair\",\"bytes\":64}\n"
        );
        let mut out = String::new();
        TraceRecord {
            at: SimTime::from_nanos(20),
            seq: 1,
            event: TraceEvent::OpShed {
                client: NodeId(7),
                server: NodeId(2),
                repair: false,
            },
        }
        .write_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"at_ns\":20,\"seq\":1,\"event\":\"op_shed\",\"node\":7,\"peer\":2,\"kind\":\"fg\"}\n"
        );
    }

    #[test]
    fn event_names_are_stable() {
        let e = TraceEvent::CodecStart {
            node: NodeId(0),
            op: CodecOp::Decode,
            bytes: 1,
        };
        assert_eq!(e.name(), "decode_start");
        let e = TraceEvent::CodecEnd {
            node: NodeId(0),
            op: CodecOp::Encode,
            took: SimDuration::ZERO,
        };
        assert_eq!(e.name(), "encode_end");
    }
}
