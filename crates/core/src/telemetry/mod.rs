//! Unified telemetry: deterministic run tracing plus a metrics
//! registry, threaded through the scheduler, the server, and all three
//! execution backends.
//!
//! The paper's evaluation is entirely *observational* — donor
//! utilization over the DPRml stages (Figure 1) and effective speedup
//! of dynamically sized DSEARCH chunks (Figure 2) — so this module is
//! the substrate those artifacts are rebuilt from: every work unit gets
//! a lifecycle span (`created → issued(machine) → [reissued |
//! lease_expired | corrupted]* → completed → combined`), and the
//! server, backends and applications record counters, gauges and
//! histograms into one registry.
//!
//! Design rules:
//!
//! * **Disabled is free-ish.** A [`Telemetry`] handle is a clonable
//!   `Option<Arc<Mutex<…>>>`; the default handle is disabled and every
//!   emit/record call is a branch on `None`, taken inline at the call
//!   site — no call, no lock, no allocation, no behaviour change for
//!   code that never enables it.
//! * **Deterministic.** Timestamps come from the backend's own clock
//!   (virtual seconds on the simulator), sinks write events in emission
//!   order, and all registry maps are `BTreeMap`s — so a simulator run
//!   with a fixed `FaultPlan` and seed produces a byte-identical JSONL
//!   trace and metrics JSON.
//! * **One canonical event per fact.** E.g. every corrupted-result
//!   route (sim/thread delivery faults, TCP frame-CRC and decode
//!   failures) funnels through `Server::result_corrupted`, which emits
//!   the single `result_corrupted` event the sim/TCP parity checks
//!   count.

mod metrics;
mod trace;

pub use metrics::{
    Histogram, MergeError, MetricsRegistry, MetricsSnapshot, LATENCY_BOUNDS, OPS_BOUNDS,
    SIZE_BOUNDS,
};
pub use trace::{
    phase_breakdowns, verify_spans, EventKind, JsonlSink, RingHandle, RingSink, TraceEvent,
    TraceSink, UnitPhases,
};

pub(crate) use metrics::fmt_f64;
pub(crate) use trace::json_string;

use std::path::Path;
use std::sync::{Arc, Mutex};

struct Inner {
    sinks: Vec<Box<dyn TraceSink>>,
    metrics: MetricsRegistry,
    /// The emitting component's current backend time, set by the server
    /// at each entry point so clock-less code (data managers) can emit
    /// timestamped events.
    now: f64,
}

/// A clonable handle to one telemetry domain (one run). The default
/// handle is disabled: all operations are no-ops until
/// [`Telemetry::enabled`] creates a live one.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
}

// The enabled half of the hot methods, out of line: a call site is a
// test of one word and, with tracing on, one call. On a disabled handle
// it is the test alone — the method returns before anything is done
// with the event, so building one of plain fields is dead code.
#[inline(never)]
fn record(inner: &Mutex<Inner>, at: Option<f64>, kind: EventKind) {
    let mut inner = inner.lock().expect("telemetry lock");
    let t = at.unwrap_or(inner.now);
    inner.now = t;
    let ev = TraceEvent { t, kind };
    for sink in &mut inner.sinks {
        sink.record(&ev);
    }
}

#[inline(never)]
fn count(inner: &Mutex<Inner>, name: &str, v: u64) {
    let metrics = &mut inner.lock().expect("telemetry lock").metrics;
    metrics.counter_add(name, v);
}

#[inline(never)]
fn observe(inner: &Mutex<Inner>, name: &str, bounds: &[f64], x: f64) {
    let metrics = &mut inner.lock().expect("telemetry lock").metrics;
    metrics.observe(name, bounds, x);
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live handle with no sinks yet (metrics recording already
    /// works; attach sinks for tracing).
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Inner {
                sinks: Vec::new(),
                metrics: MetricsRegistry::default(),
                now: 0.0,
            }))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches any sink. No-op on a disabled handle.
    pub fn attach(&self, sink: Box<dyn TraceSink>) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("telemetry lock").sinks.push(sink);
        }
    }

    /// Attaches a ring buffer of the most recent `capacity` events and
    /// returns its read handle.
    pub fn attach_ring(&self, capacity: usize) -> RingHandle {
        let (sink, handle) = RingSink::new(capacity);
        self.attach(Box::new(sink));
        handle
    }

    /// Attaches a JSONL file sink writing to `path` (truncated).
    pub fn attach_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let sink = JsonlSink::create(path)?;
        self.attach(Box::new(sink));
        Ok(())
    }

    /// Updates the handle's notion of backend time; subsequent
    /// [`Telemetry::emit`] calls are stamped with it.
    pub fn set_now(&self, t: f64) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("telemetry lock").now = t;
        }
    }

    /// Emits an event stamped with the last [`Telemetry::set_now`] time.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if let Some(inner) = &self.inner {
            record(inner, None, kind);
        }
    }

    /// Emits an event stamped with an explicit time (for components
    /// that own a clock, like the backends).
    #[inline]
    pub fn emit_at(&self, t: f64, kind: EventKind) {
        if let Some(inner) = &self.inner {
            record(inner, Some(t), kind);
        }
    }

    /// Emits the event `event` builds, stamped with the time it returns
    /// — on a disabled handle neither is built nor the time read.
    #[inline]
    pub fn emit_with(&self, event: impl FnOnce() -> (f64, EventKind)) {
        if let Some(inner) = &self.inner {
            let (t, kind) = event();
            record(inner, Some(t), kind);
        }
    }

    /// Adds `v` to counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            count(inner, name, v);
        }
    }

    /// Adds to several counters under one lock — a batch's worth of
    /// counts costs one acquisition. Zero additions are skipped.
    pub fn counters_add(&self, adds: &[(&str, u64)]) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.lock().expect("telemetry lock");
            for &(name, v) in adds.iter().filter(|(_, v)| *v > 0) {
                inner.metrics.counter_add(name, v);
            }
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("telemetry lock")
                .metrics
                .gauge_set(name, v);
        }
    }

    /// Records `x` into histogram `name` (created over `bounds` on
    /// first use).
    #[inline]
    pub fn observe(&self, name: &str, bounds: &[f64], x: f64) {
        if let Some(inner) = &self.inner {
            observe(inner, name, bounds, x);
        }
    }

    /// Merges a donor-shipped snapshot into this registry, every name
    /// prefixed (e.g. `donor.c3.`), and bumps the bookkeeping counters:
    /// `telemetry.reports_received` always, `telemetry.merge_errors` by
    /// the number of histograms whose bounds did not line up (those are
    /// skipped, everything else still merges). Returns the error count.
    pub fn merge_snapshot_prefixed(&self, prefix: &str, snap: &MetricsSnapshot) -> u64 {
        match &self.inner {
            Some(inner) => {
                let metrics = &mut inner.lock().expect("telemetry lock").metrics;
                let errors = metrics.merge_prefixed(prefix, snap);
                metrics.counter_add("telemetry.reports_received", 1);
                if errors > 0 {
                    metrics.counter_add("telemetry.merge_errors", errors);
                }
                errors
            }
            None => 0,
        }
    }

    /// A plain-data copy of the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.lock().expect("telemetry lock").metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Flushes every sink (call at end of run before reading files).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in &mut inner.lock().expect("telemetry lock").sinks {
                sink.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every hot method on a disabled handle returns at its first
    /// branch: a sink handed to it is dropped unattached and never sees
    /// an event — not one carrying a heap field either — and nothing
    /// reaches a registry, its own or a live domain's next to it. (That
    /// a plain-data event is then not even *built* is up to the
    /// optimiser, once the branch is inline: a profile can show it — no
    /// `Telemetry::*` frame with tracing off — a test cannot.)
    #[test]
    fn a_disabled_handle_never_builds_or_records() {
        struct Counting(Arc<std::sync::atomic::AtomicUsize>);
        impl TraceSink for Counting {
            fn record(&mut self, _: &TraceEvent) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let live = Telemetry::enabled();
        let ring = live.attach_ring(16);
        let t = Telemetry::disabled();
        t.attach(Box::new(Counting(seen.clone())));
        assert_eq!(Arc::strong_count(&seen), 1, "the sink was not kept");
        t.set_now(5.0);
        t.emit(EventKind::ClientLost { client: 0 });
        t.emit_at(6.0, EventKind::ProblemCompleted { problem: 0 });
        let reason = "lease_expired".to_string();
        t.emit(EventKind::UnitReissued {
            problem: 0,
            unit: 1,
            reason,
        });
        // The donor builds `ComputeStarted` / `ComputeFinished` in here,
        // and `UnitDelivered` (and its clock reading) behind
        // `is_enabled()`, asserted false below.
        t.emit_with(|| unreachable!("built on a disabled handle"));
        t.counter_add("x", 1);
        t.counters_add(&[("y", 2)]);
        t.gauge_set("g", 1.0);
        t.observe("h", LATENCY_BOUNDS, 0.5);
        t.flush();
        assert!(!t.is_enabled());
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 0);
        assert_eq!(t.metrics_snapshot(), MetricsSnapshot::default());
        assert_eq!(live.metrics_snapshot(), MetricsSnapshot::default());
        assert!(ring.events().is_empty());
    }

    #[test]
    fn clones_share_one_domain() {
        let t = Telemetry::enabled();
        let ring = t.attach_ring(16);
        let c = t.clone();
        c.set_now(2.0);
        c.emit(EventKind::ClientLost { client: 3 });
        t.counter_add("n", 2);
        c.counter_add("n", 1);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t, 2.0);
        assert_eq!(t.metrics_snapshot().counter("n"), 3);
    }

    #[test]
    fn emit_at_updates_the_shared_clock() {
        let t = Telemetry::enabled();
        let ring = t.attach_ring(16);
        t.emit_at(7.5, EventKind::ClientLost { client: 0 });
        t.emit(EventKind::ClientLost { client: 1 });
        let events = ring.events();
        assert_eq!(events[0].t, 7.5);
        assert_eq!(events[1].t, 7.5, "emit() inherits the last clock");
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "biodist-telemetry-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let t = Telemetry::enabled();
        t.attach_jsonl(&path).unwrap();
        t.emit_at(1.0, EventKind::MachineJoined { client: 0 });
        t.emit_at(
            2.0,
            EventKind::UnitIssued {
                problem: 0,
                unit: 4,
                client: 0,
                redundant: false,
            },
        );
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::from_json_line(l).unwrap())
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].t, 2.0);
        let _ = std::fs::remove_file(&path);
    }
}
