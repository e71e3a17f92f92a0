//! The bench's own span recorder for the traced run: one span around
//! every call the bench makes into a layer. Spans live in memory and
//! are written out once, at the end. Nothing inside `crates/` records
//! here — spans inside the program are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The spans file holds at most this many spans (the first ones): the
/// microsecond-unit workloads record a million, ~120 bytes each.
pub const MAX_SPANS_WRITTEN: usize = 300_000;

/// `unit` value of a span that belongs to no work unit.
pub const NO_UNIT: u64 = u64::MAX;

pub struct Span {
    /// Index + 1 of the parent span; 0 for a root.
    pub parent: u32,
    pub unit: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    stack: Vec<u32>,
    /// The open lap, if any (see [`Recorder::lap`]).
    lap: Option<u32>,
}

/// Shared handle: the bench loop and the data-manager wrapper (which
/// the `Server` calls back into) record into the same tree. Only one
/// thread records at a time, so the stack is always well nested.
pub type Rec = Arc<Mutex<Recorder>>;

pub fn recorder() -> Rec {
    Arc::new(Mutex::new(Recorder {
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        lap: None,
    }))
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, layer: &'static str, name: &'static str, unit: u64) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(0);
        let id = self.spans.len() as u32 + 1;
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            unit,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id` (must be the innermost open one); returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans must nest");
        self.stack.pop();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Starts the next step of a sequence: ends the previous lap and
    /// opens the new span at the *same* instant, so consecutive laps
    /// tile their parent with no gap — the loop's own bookkeeping (and
    /// one clock read, ~30 ns) lands inside the laps instead of being
    /// lost between them. Spans opened while a lap is open nest under it.
    pub fn lap(&mut self, layer: &'static str, name: &'static str, unit: u64) -> u32 {
        let now = self.now_ns();
        self.finish_lap(now);
        let parent = self.stack.last().copied().unwrap_or(0);
        let id = self.spans.len() as u32 + 1;
        self.stack.push(id);
        self.lap = Some(id);
        self.spans.push(Span {
            parent,
            unit,
            layer,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Ends the open lap without starting another.
    pub fn end_laps(&mut self) {
        let now = self.now_ns();
        self.finish_lap(now);
    }

    fn finish_lap(&mut self, now: u64) {
        if let Some(id) = self.lap.take() {
            debug_assert_eq!(self.stack.last(), Some(&id), "laps must nest");
            self.stack.pop();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Durations (µs) of every span called `layer`/`name`.
    pub fn durations_us(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part its children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The share of span `id`'s duration its children do *not* cover.
    pub fn uncovered_share(&self, id: u32) -> f64 {
        let span = &self.spans[id as usize - 1];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let total = span.end_ns - span.start_ns;
        if total == 0 {
            0.0
        } else {
            total.saturating_sub(covered) as f64 / total as f64
        }
    }

    /// One JSON object per line: `{id, parent, unit, layer, name,
    /// start_ns, end_ns}`; `parent` 0 = root, `unit` null = no unit.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate().take(MAX_SPANS_WRITTEN) {
            let unit = if s.unit == NO_UNIT {
                "null".to_string()
            } else {
                s.unit.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"unit\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                unit,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Runs `f` inside a span and returns its result with the span's
/// duration in seconds. The recorder is not locked while `f` runs, so
/// `f` may record child spans (directly or through the `Server` calling
/// the data-manager wrapper).
pub fn span_secs<T>(
    rec: &Rec,
    layer: &'static str,
    name: &'static str,
    unit: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = rec.lock().expect("recorder lock").open(layer, name, unit);
    let out = f();
    let ns = rec.lock().expect("recorder lock").close(id);
    (out, ns as f64 / 1e9)
}

/// [`span_secs`] for callers that only want the result.
pub fn span<T>(
    rec: &Rec,
    layer: &'static str,
    name: &'static str,
    unit: u64,
    f: impl FnOnce() -> T,
) -> T {
    span_secs(rec, layer, name, unit, f).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = recorder();
        let root = rec.lock().unwrap().open("bench", "pass", NO_UNIT);
        span(&rec, "align", "score", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        {
            let mut r = rec.lock().unwrap();
            let a = r.lap("codec", "encode", 7);
            let b = r.lap("codec", "decode", 7);
            r.end_laps();
            assert_eq!(
                r.spans[a as usize - 1].end_ns,
                r.spans[b as usize - 1].start_ns,
                "laps tile"
            );
            assert_eq!(r.spans[b as usize - 1].parent, root);
            r.close(root);
        }
        let r = rec.lock().unwrap();
        assert_eq!(r.spans[1].parent, root);
        assert!(r.uncovered_share(root) < 0.5);
        let by_layer = r.self_time_by_layer();
        assert!(by_layer["align"] >= 0.005);
        assert!(by_layer["bench"] < by_layer["align"]);
    }
}
