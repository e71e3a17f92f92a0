//! The trace half of the telemetry layer: work-unit lifecycle and
//! server-side events, the [`TraceSink`] trait, and the two built-in
//! sinks (in-memory ring buffer, JSONL file).
//!
//! Every event serializes to one flat JSON object per line with a fixed
//! field order, so a trace written on the simulator backend (virtual
//! clock) is *byte-deterministic*: the same `FaultPlan` and seed yield
//! the identical file, diffable across code changes. Events also parse
//! back ([`TraceEvent::from_json_line`]), which is what the report tool
//! and the span-completeness checker run on.

use crate::problem::UnitId;
use crate::sched::ClientId;
use crate::server::ProblemId;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};

use super::metrics::fmt_f64;

/// Escapes `s` as a JSON string literal (with quotes).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// The event schema, declared once: from the table below this generates
// `EventKind`, each event's `ev` name, the JSON writer and the parser.
// A field is `name: Type as kind`, the kind one of `int` (any integer
// type), `float`, `flag` (bool), `text` (String) and `digest` (a u64
// written as 16 hex digits: a JSON number would round it through f64
// and lose low bits). To add an event, add its declaration.
macro_rules! events {
    ($($(#[$vdoc:meta])* $variant:ident = $name:literal {
        $($(#[$fdoc:meta])* $field:ident: $ty:ty as $kind:ident,)+
    },)+) => {
        /// What happened. Field order here is the serialized field order.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $($(#[$vdoc])* $variant { $($(#[$fdoc])* $field: $ty,)+ },)+
        }

        impl EventKind {
            /// Every declared event — its `ev` name, then its fields'
            /// names and kinds in serialized order.
            pub const SCHEMA: &'static [(&'static str, &'static [(&'static str, &'static str)])] =
                &[$(($name, &[$((stringify!($field), stringify!($kind)),)+]),)+];

            /// The `ev` field value.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $name,)+
                }
            }

            fn write_fields(&self, s: &mut String) {
                match self {
                    $(EventKind::$variant { $($field,)+ } => {$(
                        let value = events!(@show $kind $field);
                        let _ = write!(s, ",\"{}\":{value}", stringify!($field));
                    )+})+
                }
            }

            fn parse(ev: &str, fields: &Fields<'_>) -> Result<Self, String> {
                Ok(match ev {
                    $($name => EventKind::$variant {
                        $($field: events!(@read $kind fields, stringify!($field), $ty),)+
                    },)+
                    other => return Err(format!("unknown event kind `{other}`")),
                })
            }
        }
    };
    (@show int $v:ident) => { *$v as u64 };
    (@show float $v:ident) => { fmt_f64(*$v) };
    (@show flag $v:ident) => { *$v };
    (@show text $v:ident) => { json_string($v) };
    (@show digest $v:ident) => { format_args!("\"{:016x}\"", *$v) };
    (@read int $f:ident, $k:expr, $ty:ty) => { $f.num($k)? as u64 as $ty };
    (@read float $f:ident, $k:expr, $ty:ty) => { $f.num($k)? };
    (@read flag $f:ident, $k:expr, $ty:ty) => { $f.flag($k)? };
    (@read text $f:ident, $k:expr, $ty:ty) => { $f.text($k)? };
    (@read digest $f:ident, $k:expr, $ty:ty) => { $f.digest($k)? };
}

events! {
    /// A problem entered the server.
    ProblemSubmitted = "problem_submitted" {
        /// Problem id.
        problem: ProblemId as int,
        /// Human-readable problem name.
        name: String as text,
    },
    /// A problem's final output is assembled.
    ProblemCompleted = "problem_completed" {
        /// Problem id.
        problem: ProblemId as int,
    },
    /// The data manager produced a fresh unit.
    UnitCreated = "unit_created" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// Modelled cost in abstract ops.
        cost_ops: f64 as float,
    },
    /// A unit was leased to a client (`issued(machine)` in the paper's
    /// lifecycle).
    UnitIssued = "unit_issued" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// The client the lease went to.
        client: ClientId as int,
        /// Whether this was an end-game redundant dispatch.
        redundant: bool as flag,
    },
    /// A result was accepted and will be folded.
    UnitCompleted = "unit_completed" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// The client that delivered it.
        client: ClientId as int,
        /// Lease-to-delivery latency in backend seconds (0 when the
        /// deliverer held no live lease — a rescued straggler result).
        latency: f64 as float,
    },
    /// The accepted result was folded into the data manager
    /// (`combined`).
    UnitCombined = "unit_combined" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
    },
    /// A duplicate / late result arrived for an already-complete unit.
    ResultWasted = "result_wasted" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// The client that delivered it.
        client: ClientId as int,
    },
    /// The transport detected a corrupted result. This is the single
    /// canonical corruption event: every route (sim/thread delivery
    /// faults, TCP frame-CRC failure, TCP payload decode failure) funnels
    /// through [`crate::Server::result_corrupted`], which emits it.
    ResultCorrupted = "result_corrupted" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// The client whose result was mangled.
        client: ClientId as int,
    },
    /// A lease passed its deadline without a result.
    LeaseExpired = "lease_expired" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// The client that held the lease.
        client: ClientId as int,
    },
    /// A unit went back on the reissue queue.
    UnitReissued = "unit_reissued" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// Why: `lease_expired`, `corrupted` or `client_lost`.
        reason: String as text,
    },
    /// The server declared a client gone (goodbye or liveness sweep).
    ClientLost = "client_lost" {
        /// The departed client.
        client: ClientId as int,
    },
    /// A donor machine joined the pool.
    MachineJoined = "machine_joined" {
        /// The client id it will use.
        client: ClientId as int,
    },
    /// A donor machine departed permanently.
    MachineDeparted = "machine_departed" {
        /// The departing client.
        client: ClientId as int,
    },
    /// A donor machine crashed (it will rejoin after `down_secs`).
    MachineCrashed = "machine_crashed" {
        /// The crashing client.
        client: ClientId as int,
        /// How long it stays down.
        down_secs: f64 as float,
    },
    /// A backend applied a delivery fault to a finished result
    /// (`drop`, `duplicate` or `corrupt`) before it reached the server.
    FaultInjected = "fault_injected" {
        /// The affected client.
        client: ClientId as int,
        /// The delivery action applied.
        action: String as text,
    },
    /// A TCP donor applied a wire fault of its record to real bytes at
    /// its own socket (`drop`, `duplicate` or `corrupt`).
    WireFault = "wire_fault" {
        /// The affected client.
        client: ClientId as int,
        /// The delivery action applied.
        action: String as text,
    },
    /// The TCP server's liveness sweep reclaimed silent clients.
    LivenessSweep = "liveness_sweep" {
        /// Number of clients declared gone by this sweep.
        stale: usize as int,
    },
    /// A record was appended to the checkpoint log (`issue` or
    /// `result`).
    CheckpointWrite = "checkpoint_write" {
        /// The record type.
        kind: String as text,
    },
    /// Recovery replayed an issue record against a fresh data manager.
    ReplayIssue = "replay_issue" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
    },
    /// Recovery re-folded a logged result.
    ReplayResult = "replay_result" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
    },
    /// Recovery finished rebuilding a server from a checkpoint log.
    RecoveryDone = "recovery_done" {
        /// Issue records replayed.
        replayed_issues: u64 as int,
        /// Result records re-folded.
        replayed_results: u64 as int,
        /// Units restored to the pending queue.
        pending_restored: u64 as int,
        /// Whether a torn tail cut the log short.
        torn_tail: bool as flag,
    },
    /// An application data manager crossed a stage boundary (DPRml's
    /// refine / insert / NNI barriers — the idle gaps in Figure 1).
    StageStarted = "stage_started" {
        /// Problem id.
        problem: ProblemId as int,
        /// Stage name.
        stage: String as text,
    },
    /// Donor-side: the unit's payload (and chunks) finished arriving at
    /// the client — the end of the issue→donor transfer phase. Keyed by
    /// the same `(problem, unit, client)` correlation id as the
    /// server-side lease events, so donor-local activity lands in the
    /// same span.
    UnitDelivered = "unit_delivered" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// The receiving client.
        client: ClientId as int,
    },
    /// Donor-side: the client started executing the unit (after any
    /// time queued behind an earlier unit in its prefetch pipeline).
    ComputeStarted = "compute_started" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// The computing client.
        client: ClientId as int,
    },
    /// Donor-side: the client finished executing the unit. The gap to
    /// `unit_combined` is the result-return + fold ("combine") phase.
    ComputeFinished = "compute_finished" {
        /// Problem id.
        problem: ProblemId as int,
        /// Unit id.
        unit: UnitId as int,
        /// The computing client.
        client: ClientId as int,
    },
    /// Donor-side: a chunk fetch left the cache and hit the network.
    ChunkFetchStarted = "chunk_fetch_started" {
        /// The fetching client.
        client: ClientId as int,
        /// Content digest of the chunk.
        digest: u64 as digest,
    },
    /// Donor-side: the chunk arrived and verified.
    ChunkFetchFinished = "chunk_fetch_finished" {
        /// The fetching client.
        client: ClientId as int,
        /// Content digest of the chunk.
        digest: u64 as digest,
        /// Whether a replica (vs the origin) served it.
        replica: bool as flag,
    },
    /// Donor-side: the local chunk cache served a needed chunk.
    CacheHit = "cache_hit" {
        /// The client whose cache hit.
        client: ClientId as int,
        /// Content digest of the chunk.
        digest: u64 as digest,
    },
    /// Donor-side: a needed chunk was absent from the local cache.
    CacheMiss = "cache_miss" {
        /// The client whose cache missed.
        client: ClientId as int,
        /// Content digest of the chunk.
        digest: u64 as digest,
    },
    /// Donor-side: a routed replica candidate was skipped (dead or
    /// stalled) and the fetch moved down the failover ladder.
    ReplicaFailover = "replica_failover" {
        /// The fetching client.
        client: ClientId as int,
        /// Index of the skipped replica.
        replica: usize as int,
    },
    /// A donor shipped its local metrics registry to the server
    /// (`MetricsReport` frame on the wire, modeled cadence on the sim).
    MetricsReported = "metrics_reported" {
        /// The shipping donor.
        client: ClientId as int,
    },
}

/// One timestamped trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Backend time: virtual seconds on the simulator, scaled wall
    /// seconds on the thread/TCP backends.
    pub t: f64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Serializes to one flat JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{},\"ev\":\"{}\"",
            fmt_f64(self.t),
            self.kind.name()
        );
        self.kind.write_fields(&mut s);
        s.push('}');
        s
    }

    /// Parses a line produced by [`TraceEvent::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let fields = parse_flat_object(line)?;
        let fields = Fields { line, fields };
        let t = fields.num("t")?;
        let kind = EventKind::parse(&fields.text("ev")?, &fields)?;
        Ok(Self { t, kind })
    }
}

// A parsed line's fields, looked up by name and kind.
struct Fields<'a> {
    line: &'a str,
    fields: Vec<(String, JsonVal)>,
}

impl Fields<'_> {
    fn find<T>(
        &self,
        key: &str,
        kind: &str,
        pick: impl Fn(&JsonVal) -> Option<T>,
    ) -> Result<T, String> {
        let found = self.fields.iter().find(|(name, _)| name == key);
        let missing = || format!("missing {kind} field `{key}` in {}", self.line);
        found.and_then(|(_, v)| pick(v)).ok_or_else(missing)
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        self.find(key, "numeric", |v| match v {
            JsonVal::Num(x) => Some(*x),
            _ => None,
        })
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        self.find(key, "boolean", |v| match v {
            JsonVal::Bool(b) => Some(*b),
            _ => None,
        })
    }

    fn text(&self, key: &str) -> Result<String, String> {
        self.find(key, "string", |v| match v {
            JsonVal::Str(t) => Some(t.clone()),
            _ => None,
        })
    }

    fn digest(&self, key: &str) -> Result<u64, String> {
        let hex = self.text(key)?;
        u64::from_str_radix(&hex, 16).map_err(|e| format!("bad digest `{hex}`: {e}"))
    }
}

// ------------------------------------------------ flat JSON parsing

#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Num(f64),
    Str(String),
    Bool(bool),
}

/// Parses one flat (non-nested) JSON object into ordered key/value
/// pairs. Only the subset this module emits is accepted.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let bytes: Vec<char> = line.trim().chars().collect();
    let mut i = 0usize;
    let err = |msg: &str, i: usize| format!("{msg} at char {i}: {line}");
    let skip_ws = |bytes: &[char], i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_whitespace() {
            *i += 1;
        }
    };
    fn parse_string(bytes: &[char], i: &mut usize) -> Result<String, String> {
        if bytes.get(*i) != Some(&'"') {
            return Err("expected string".into());
        }
        *i += 1;
        let mut out = String::new();
        while let Some(&c) = bytes.get(*i) {
            *i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = bytes.get(*i).copied().ok_or("truncated escape")?;
                    *i += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            if *i + 4 > bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex: String = bytes[*i..*i + 4].iter().collect();
                            *i += 4;
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|e| format!("bad \\u: {e}"))?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        }
                        other => return Err(format!("unsupported escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
    skip_ws(&bytes, &mut i);
    if bytes.get(i) != Some(&'{') {
        return Err(err("expected '{'", i));
    }
    i += 1;
    let mut fields = Vec::new();
    loop {
        skip_ws(&bytes, &mut i);
        if bytes.get(i) == Some(&'}') {
            i += 1;
            break;
        }
        let key = parse_string(&bytes, &mut i).map_err(|e| err(&e, i))?;
        skip_ws(&bytes, &mut i);
        if bytes.get(i) != Some(&':') {
            return Err(err("expected ':'", i));
        }
        i += 1;
        skip_ws(&bytes, &mut i);
        let val = match bytes.get(i) {
            Some(&'"') => JsonVal::Str(parse_string(&bytes, &mut i).map_err(|e| err(&e, i))?),
            Some(&'t') if bytes[i..].starts_with(&['t', 'r', 'u', 'e']) => {
                i += 4;
                JsonVal::Bool(true)
            }
            Some(&'f') if bytes[i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
                i += 5;
                JsonVal::Bool(false)
            }
            Some(&'n') if bytes[i..].starts_with(&['n', 'u', 'l', 'l']) => {
                i += 4;
                JsonVal::Num(f64::NAN)
            }
            Some(_) => {
                let start = i;
                while i < bytes.len() && !matches!(bytes[i], ',' | '}') && !bytes[i].is_whitespace()
                {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                JsonVal::Num(
                    text.parse::<f64>()
                        .map_err(|e| err(&format!("bad number `{text}`: {e}"), start))?,
                )
            }
            None => return Err(err("truncated object", i)),
        };
        fields.push((key, val));
        skip_ws(&bytes, &mut i);
        match bytes.get(i) {
            Some(&',') => i += 1,
            Some(&'}') => {}
            _ => return Err(err("expected ',' or '}'", i)),
        }
    }
    skip_ws(&bytes, &mut i);
    if i != bytes.len() {
        return Err(err("trailing garbage", i));
    }
    Ok(fields)
}

// ----------------------------------------------------------- sinks

/// Where trace events go. Implementations must be cheap: the emitting
/// thread holds the telemetry lock for the duration of `record`.
pub trait TraceSink: Send {
    /// Consumes one event.
    fn record(&mut self, ev: &TraceEvent);
    /// Flushes any buffered output (e.g. at end of run).
    fn flush(&mut self) {}
}

/// Read side of a [`RingSink`]: a bounded in-memory buffer of the most
/// recent events.
#[derive(Clone)]
pub struct RingHandle {
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
}

impl RingHandle {
    /// Copies out the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring lock").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Keeps the most recent `capacity` events in memory.
pub struct RingSink {
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
    capacity: usize,
}

impl RingSink {
    /// A ring of the given capacity plus its read handle.
    pub fn new(capacity: usize) -> (Self, RingHandle) {
        assert!(capacity > 0, "ring capacity must be positive");
        let buf = Arc::new(Mutex::new(VecDeque::with_capacity(capacity.min(1024))));
        (
            Self {
                buf: buf.clone(),
                capacity,
            },
            RingHandle { buf },
        )
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut buf = self.buf.lock().expect("ring lock");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

/// Writes one JSON object per line to a file, buffered.
pub struct JsonlSink {
    out: BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        let _ = self.out.write_all(ev.to_json_line().as_bytes());
        let _ = self.out.write_all(b"\n");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

// ------------------------------------------- span-completeness check

/// Verifies the span-completeness invariant over a whole-run trace:
/// every `unit_issued` lease is eventually resolved — by a completion
/// of the unit (any deliverer; completion cancels sibling redundant
/// leases), a `lease_expired` / `result_corrupted` for that exact
/// lease, the loss of the client, or the completion of the whole
/// problem (which clears its in-flight table) — and no unit completes
/// without ever having been issued (or replayed from a checkpoint).
///
/// Donor-side `compute_started` sub-spans are held to the same
/// standard: each must close — naturally via `compute_finished`, or via
/// a fault event (lease expiry / corruption / dispute of that exact
/// lease, loss / crash / departure of the donor, completion of the unit
/// by a sibling, or completion of the whole problem). A
/// `compute_finished` with no open sub-span is legal (the span was
/// already fault-closed and the donor finished anyway).
pub fn verify_spans(events: &[TraceEvent]) -> Result<(), String> {
    let mut open: BTreeSet<(ProblemId, UnitId, ClientId)> = BTreeSet::new();
    let mut computing: BTreeSet<(ProblemId, UnitId, ClientId)> = BTreeSet::new();
    let mut ever_issued: BTreeSet<(ProblemId, UnitId)> = BTreeSet::new();
    for ev in events {
        match &ev.kind {
            EventKind::UnitIssued {
                problem,
                unit,
                client,
                ..
            } => {
                open.insert((*problem, *unit, *client));
                ever_issued.insert((*problem, *unit));
            }
            EventKind::ReplayIssue { problem, unit } => {
                ever_issued.insert((*problem, *unit));
            }
            EventKind::ComputeStarted {
                problem,
                unit,
                client,
            } => {
                computing.insert((*problem, *unit, *client));
            }
            EventKind::ComputeFinished {
                problem,
                unit,
                client,
            } => {
                computing.remove(&(*problem, *unit, *client));
            }
            EventKind::UnitCompleted { problem, unit, .. } => {
                if !ever_issued.contains(&(*problem, *unit)) {
                    return Err(format!(
                        "unit {unit} of problem {problem} completed at t={} without ever being issued",
                        ev.t
                    ));
                }
                open.retain(|&(p, u, _)| !(p == *problem && u == *unit));
                computing.retain(|&(p, u, _)| !(p == *problem && u == *unit));
            }
            EventKind::LeaseExpired {
                problem,
                unit,
                client,
            }
            | EventKind::ResultCorrupted {
                problem,
                unit,
                client,
            } => {
                open.remove(&(*problem, *unit, *client));
                computing.remove(&(*problem, *unit, *client));
            }
            EventKind::ClientLost { client }
            | EventKind::MachineCrashed { client, .. }
            | EventKind::MachineDeparted { client } => {
                open.retain(|&(_, _, c)| c != *client);
                computing.retain(|&(_, _, c)| c != *client);
            }
            EventKind::ProblemCompleted { problem } => {
                open.retain(|&(p, _, _)| p != *problem);
                computing.retain(|&(p, _, _)| p != *problem);
            }
            _ => {}
        }
    }
    if !open.is_empty() {
        return Err(format!("unresolved leases at end of trace: {open:?}"));
    }
    if !computing.is_empty() {
        return Err(format!(
            "unresolved compute sub-spans at end of trace: {computing:?}"
        ));
    }
    Ok(())
}

/// Four-phase breakdown of one completed unit's end-to-end span, from
/// its last `unit_issued` to its `unit_combined`, as seen by the client
/// that won the lease:
///
/// * `transfer` — issue to donor-side `unit_delivered` (payload +
///   chunks on the wire);
/// * `queue_wait` — delivery to `compute_started` (time parked in the
///   donor's prefetch pipeline);
/// * `compute` — `compute_started` to `compute_finished` (kernel time);
/// * `combine` — `compute_finished` to `unit_combined` (result return
///   and server-side fold).
///
/// The four phases telescope: they sum to exactly the span length.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitPhases {
    /// Problem id.
    pub problem: ProblemId,
    /// Unit id.
    pub unit: UnitId,
    /// The client whose result was accepted.
    pub client: ClientId,
    /// Backend time of the winning lease's issue.
    pub issued_at: f64,
    /// Issue → donor delivery.
    pub transfer: f64,
    /// Donor delivery → compute start.
    pub queue_wait: f64,
    /// Compute start → compute finish.
    pub compute: f64,
    /// Compute finish → server-side fold.
    pub combine: f64,
}

impl UnitPhases {
    /// Total span length (sum of the four phases).
    pub fn span(&self) -> f64 {
        self.transfer + self.queue_wait + self.compute + self.combine
    }
}

/// Extracts per-unit phase breakdowns from a whole-run trace. A unit
/// contributes one entry when its winning `(problem, unit, client)`
/// lease carries the full `unit_issued` → `unit_delivered` →
/// `compute_started` → `compute_finished` → `unit_completed` →
/// `unit_combined` chain; completed units missing any donor-side link
/// (e.g. rescued straggler results or checkpoint replays) are tallied
/// in the returned `incomplete` count instead. When the same client is
/// reissued the same unit, the latest attempt's timestamps win.
pub fn phase_breakdowns(events: &[TraceEvent]) -> (Vec<UnitPhases>, u64) {
    use std::collections::BTreeMap;
    type Key = (ProblemId, UnitId, ClientId);
    let mut issued: BTreeMap<Key, f64> = BTreeMap::new();
    let mut delivered: BTreeMap<Key, f64> = BTreeMap::new();
    let mut started: BTreeMap<Key, f64> = BTreeMap::new();
    let mut finished: BTreeMap<Key, f64> = BTreeMap::new();
    // Completed units waiting for their `unit_combined`, carrying the
    // winning client and its (issue, delivery, start, finish) times.
    type PendingChain = (ClientId, f64, f64, f64, f64);
    let mut pending: BTreeMap<(ProblemId, UnitId), PendingChain> = BTreeMap::new();
    let mut out = Vec::new();
    let mut incomplete = 0u64;
    for ev in events {
        match &ev.kind {
            EventKind::UnitIssued {
                problem,
                unit,
                client,
                ..
            } => {
                issued.insert((*problem, *unit, *client), ev.t);
            }
            EventKind::UnitDelivered {
                problem,
                unit,
                client,
            } => {
                delivered.insert((*problem, *unit, *client), ev.t);
            }
            EventKind::ComputeStarted {
                problem,
                unit,
                client,
            } => {
                started.insert((*problem, *unit, *client), ev.t);
            }
            EventKind::ComputeFinished {
                problem,
                unit,
                client,
            } => {
                finished.insert((*problem, *unit, *client), ev.t);
            }
            EventKind::UnitCompleted {
                problem,
                unit,
                client,
                ..
            } => {
                let key = (*problem, *unit, *client);
                match (
                    issued.get(&key),
                    delivered.get(&key),
                    started.get(&key),
                    finished.get(&key),
                ) {
                    (Some(&t_iss), Some(&t_del), Some(&t_start), Some(&t_fin)) => {
                        pending.insert((*problem, *unit), (*client, t_iss, t_del, t_start, t_fin));
                    }
                    _ => incomplete += 1,
                }
            }
            EventKind::UnitCombined { problem, unit } => {
                if let Some((client, t_iss, t_del, t_start, t_fin)) =
                    pending.remove(&(*problem, *unit))
                {
                    out.push(UnitPhases {
                        problem: *problem,
                        unit: *unit,
                        client,
                        issued_at: t_iss,
                        transfer: t_del - t_iss,
                        queue_wait: t_start - t_del,
                        compute: t_fin - t_start,
                        combine: ev.t - t_fin,
                    });
                }
            }
            _ => {}
        }
    }
    // Completed but never combined: the chain is broken, count it.
    incomplete += pending.len() as u64;
    (out, incomplete)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: EventKind) -> TraceEvent {
        TraceEvent { t, kind }
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        let events = vec![
            ev(
                0.0,
                EventKind::ProblemSubmitted {
                    problem: 0,
                    name: "dsearch \"x\"\n".into(),
                },
            ),
            ev(
                1.5,
                EventKind::UnitCreated {
                    problem: 0,
                    unit: 1,
                    cost_ops: 1.5e7,
                },
            ),
            ev(
                1.5,
                EventKind::UnitIssued {
                    problem: 0,
                    unit: 1,
                    client: 2,
                    redundant: false,
                },
            ),
            ev(
                2.0,
                EventKind::UnitCompleted {
                    problem: 0,
                    unit: 1,
                    client: 2,
                    latency: 0.5,
                },
            ),
            ev(
                2.0,
                EventKind::UnitCombined {
                    problem: 0,
                    unit: 1,
                },
            ),
            ev(
                2.5,
                EventKind::ResultWasted {
                    problem: 0,
                    unit: 1,
                    client: 3,
                },
            ),
            ev(
                3.0,
                EventKind::ResultCorrupted {
                    problem: 0,
                    unit: 2,
                    client: 1,
                },
            ),
            ev(
                4.0,
                EventKind::LeaseExpired {
                    problem: 0,
                    unit: 3,
                    client: 0,
                },
            ),
            ev(
                4.0,
                EventKind::UnitReissued {
                    problem: 0,
                    unit: 3,
                    reason: "lease_expired".into(),
                },
            ),
            ev(5.0, EventKind::ClientLost { client: 4 }),
            ev(0.0, EventKind::MachineJoined { client: 0 }),
            ev(9.0, EventKind::MachineDeparted { client: 5 }),
            ev(
                9.5,
                EventKind::MachineCrashed {
                    client: 1,
                    down_secs: 12.5,
                },
            ),
            ev(
                10.0,
                EventKind::FaultInjected {
                    client: 1,
                    action: "drop".into(),
                },
            ),
            ev(
                10.5,
                EventKind::WireFault {
                    client: 2,
                    action: "corrupt".into(),
                },
            ),
            ev(11.0, EventKind::LivenessSweep { stale: 2 }),
            ev(
                11.5,
                EventKind::CheckpointWrite {
                    kind: "result".into(),
                },
            ),
            ev(
                12.0,
                EventKind::ReplayIssue {
                    problem: 0,
                    unit: 7,
                },
            ),
            ev(
                12.5,
                EventKind::ReplayResult {
                    problem: 0,
                    unit: 7,
                },
            ),
            ev(
                13.0,
                EventKind::RecoveryDone {
                    replayed_issues: 3,
                    replayed_results: 2,
                    pending_restored: 1,
                    torn_tail: true,
                },
            ),
            ev(
                14.0,
                EventKind::StageStarted {
                    problem: 0,
                    stage: "insert:taxon 3".into(),
                },
            ),
            ev(
                14.5,
                EventKind::UnitDelivered {
                    problem: 0,
                    unit: 8,
                    client: 2,
                },
            ),
            ev(
                14.6,
                EventKind::ComputeStarted {
                    problem: 0,
                    unit: 8,
                    client: 2,
                },
            ),
            ev(
                15.0,
                EventKind::ComputeFinished {
                    problem: 0,
                    unit: 8,
                    client: 2,
                },
            ),
            ev(
                15.1,
                EventKind::ChunkFetchStarted {
                    client: 2,
                    digest: 0xdead_beef_cafe_f00d,
                },
            ),
            ev(
                15.2,
                EventKind::ChunkFetchFinished {
                    client: 2,
                    digest: 0xdead_beef_cafe_f00d,
                    replica: true,
                },
            ),
            ev(
                15.3,
                EventKind::CacheHit {
                    client: 2,
                    digest: u64::MAX,
                },
            ),
            ev(
                15.4,
                EventKind::CacheMiss {
                    client: 2,
                    digest: 7,
                },
            ),
            ev(
                15.5,
                EventKind::ReplicaFailover {
                    client: 2,
                    replica: 1,
                },
            ),
            ev(18.0, EventKind::MetricsReported { client: 3 }),
            ev(20.0, EventKind::ProblemCompleted { problem: 0 }),
        ];
        for e in events {
            let line = e.to_json_line();
            let back = TraceEvent::from_json_line(&line)
                .unwrap_or_else(|err| panic!("parse failed for {line}: {err}"));
            assert_eq!(back, e, "round trip for {line}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            "{\"t\":1.0}",
            "{\"t\":1.0,\"ev\":\"no_such_event\"}",
            "{\"t\":1.0,\"ev\":\"unit_combined\"}",
            "{\"t\":abc,\"ev\":\"client_lost\",\"client\":0}",
        ] {
            assert!(TraceEvent::from_json_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn ring_sink_keeps_the_most_recent_events() {
        let (mut sink, handle) = RingSink::new(2);
        for i in 0..4 {
            sink.record(&ev(i as f64, EventKind::ClientLost { client: i }));
        }
        let got = handle.events();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].t, 2.0);
        assert_eq!(got[1].t, 3.0);
    }

    #[test]
    fn span_checker_accepts_resolved_and_rejects_dangling() {
        let ok = vec![
            ev(
                0.0,
                EventKind::UnitIssued {
                    problem: 0,
                    unit: 1,
                    client: 0,
                    redundant: false,
                },
            ),
            ev(
                1.0,
                EventKind::UnitIssued {
                    problem: 0,
                    unit: 1,
                    client: 2,
                    redundant: true,
                },
            ),
            ev(
                2.0,
                EventKind::UnitCompleted {
                    problem: 0,
                    unit: 1,
                    client: 2,
                    latency: 1.0,
                },
            ),
        ];
        verify_spans(&ok).expect("completion resolves sibling redundant lease");

        let dangling = vec![ev(
            0.0,
            EventKind::UnitIssued {
                problem: 0,
                unit: 1,
                client: 0,
                redundant: false,
            },
        )];
        assert!(verify_spans(&dangling).is_err(), "open lease must fail");

        let orphan = vec![ev(
            0.0,
            EventKind::UnitCompleted {
                problem: 0,
                unit: 9,
                client: 0,
                latency: 0.0,
            },
        )];
        assert!(
            verify_spans(&orphan).is_err(),
            "completion without issue must fail"
        );
    }

    fn issue(t: f64, unit: UnitId, client: ClientId) -> TraceEvent {
        ev(
            t,
            EventKind::UnitIssued {
                problem: 0,
                unit,
                client,
                redundant: false,
            },
        )
    }

    fn phase_chain(unit: UnitId, client: ClientId, t0: f64) -> Vec<TraceEvent> {
        vec![
            issue(t0, unit, client),
            ev(
                t0 + 1.0,
                EventKind::UnitDelivered {
                    problem: 0,
                    unit,
                    client,
                },
            ),
            ev(
                t0 + 1.5,
                EventKind::ComputeStarted {
                    problem: 0,
                    unit,
                    client,
                },
            ),
            ev(
                t0 + 4.0,
                EventKind::ComputeFinished {
                    problem: 0,
                    unit,
                    client,
                },
            ),
            ev(
                t0 + 4.25,
                EventKind::UnitCompleted {
                    problem: 0,
                    unit,
                    client,
                    latency: 4.25,
                },
            ),
            ev(t0 + 4.5, EventKind::UnitCombined { problem: 0, unit }),
        ]
    }

    #[test]
    fn compute_subspans_must_close() {
        // Natural close.
        verify_spans(&phase_chain(1, 0, 0.0)).expect("finished compute span is clean");

        // A compute span left dangling fails (all leases resolved, so
        // the compute-specific check is what trips).
        let dangling = vec![
            issue(0.0, 1, 0),
            ev(
                1.0,
                EventKind::ComputeStarted {
                    problem: 0,
                    unit: 1,
                    client: 0,
                },
            ),
            ev(
                2.0,
                EventKind::LeaseExpired {
                    problem: 0,
                    unit: 1,
                    client: 0,
                },
            ),
            ev(
                2.5,
                EventKind::ComputeStarted {
                    problem: 0,
                    unit: 2,
                    client: 1,
                },
            ),
        ];
        let err = verify_spans(&dangling).expect_err("dangling compute span must fail");
        assert!(err.contains("compute sub-spans"), "got: {err}");

        // A donor crash mid-compute closes the orphan span.
        let crashed = vec![
            issue(0.0, 1, 0),
            ev(
                1.0,
                EventKind::ComputeStarted {
                    problem: 0,
                    unit: 1,
                    client: 0,
                },
            ),
            ev(
                2.0,
                EventKind::MachineCrashed {
                    client: 0,
                    down_secs: 30.0,
                },
            ),
        ];
        verify_spans(&crashed).expect("crash fault-closes the orphan span and lease");

        // A sibling completing the unit closes the slower donor's span;
        // the slow donor's late compute_finished is then a no-op.
        let sibling = vec![
            issue(0.0, 1, 0),
            issue(0.0, 1, 1),
            ev(
                1.0,
                EventKind::ComputeStarted {
                    problem: 0,
                    unit: 1,
                    client: 0,
                },
            ),
            ev(
                1.0,
                EventKind::ComputeStarted {
                    problem: 0,
                    unit: 1,
                    client: 1,
                },
            ),
            ev(
                2.0,
                EventKind::UnitCompleted {
                    problem: 0,
                    unit: 1,
                    client: 1,
                    latency: 2.0,
                },
            ),
            ev(
                3.0,
                EventKind::ComputeFinished {
                    problem: 0,
                    unit: 1,
                    client: 0,
                },
            ),
        ];
        verify_spans(&sibling).expect("sibling completion closes both compute spans");
    }

    #[test]
    fn phase_breakdowns_telescope_to_span_length() {
        let trace = phase_chain(1, 0, 10.0);
        let (phases, incomplete) = phase_breakdowns(&trace);
        assert_eq!(incomplete, 0);
        assert_eq!(phases.len(), 1);
        let p = &phases[0];
        assert_eq!((p.problem, p.unit, p.client), (0, 1, 0));
        assert_eq!(p.issued_at, 10.0);
        assert_eq!(p.transfer, 1.0);
        assert_eq!(p.queue_wait, 0.5);
        assert_eq!(p.compute, 2.5);
        assert_eq!(p.combine, 0.5);
        assert!((p.span() - 4.5).abs() < 1e-12, "span telescopes");
    }

    #[test]
    fn phase_breakdowns_count_broken_chains() {
        // Completed without any donor-side events: rescued result.
        let rescue = vec![
            issue(0.0, 1, 0),
            ev(
                2.0,
                EventKind::UnitCompleted {
                    problem: 0,
                    unit: 1,
                    client: 0,
                    latency: 2.0,
                },
            ),
            ev(
                2.0,
                EventKind::UnitCombined {
                    problem: 0,
                    unit: 1,
                },
            ),
        ];
        let (phases, incomplete) = phase_breakdowns(&rescue);
        assert!(phases.is_empty());
        assert_eq!(incomplete, 1);

        // Reissue to the same client: latest attempt's timestamps win.
        let mut reissued = phase_chain(1, 0, 0.0);
        reissued.truncate(4); // first attempt dies after compute_finished
        reissued.push(ev(
            5.0,
            EventKind::LeaseExpired {
                problem: 0,
                unit: 1,
                client: 0,
            },
        ));
        reissued.extend(phase_chain(1, 0, 100.0));
        let (phases, incomplete) = phase_breakdowns(&reissued);
        assert_eq!(incomplete, 0);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].issued_at, 100.0);
    }

    #[test]
    fn problem_completion_clears_its_leases() {
        let trace = vec![
            ev(
                0.0,
                EventKind::UnitIssued {
                    problem: 1,
                    unit: 5,
                    client: 0,
                    redundant: false,
                },
            ),
            ev(3.0, EventKind::ProblemCompleted { problem: 1 }),
        ];
        verify_spans(&trace).expect("problem completion resolves leases");
    }
}
