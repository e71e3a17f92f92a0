//! The metrics half of the telemetry layer: counters, gauges and
//! fixed-bucket histograms, snapshotted into plain data and serialized
//! to JSON with no external dependencies.
//!
//! Everything is keyed by `&str` names in `BTreeMap`s, so snapshots and
//! their JSON renderings are deterministic: the same run produces the
//! same bytes. Histograms use *fixed* bucket bounds supplied at first
//! observation — two histograms with identical bounds merge
//! associatively (bucket-wise addition), which is what lets per-shard
//! registries fold into one (and what the satellite test asserts).

use crate::codec::{ByteReader, ByteWriter, WireError};
use std::collections::BTreeMap;

/// Two histograms with different bucket bounds were asked to merge.
/// Merging over different buckets has no meaning; callers folding
/// donor-shipped registries route this to a `telemetry.merge_errors`
/// counter instead of dying.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeError {
    /// The bounds of the receiving histogram.
    pub ours: Vec<f64>,
    /// The bounds of the incoming histogram.
    pub theirs: Vec<f64>,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "histogram merge requires identical bounds (ours: {:?}, theirs: {:?})",
            self.ours, self.theirs
        )
    }
}

impl std::error::Error for MergeError {}

/// Bucket bounds for unit latencies, in (scaled/virtual) seconds.
pub const LATENCY_BOUNDS: &[f64] = &[
    0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
];

/// Bucket bounds for work-unit cost in abstract ops.
pub const OPS_BOUNDS: &[f64] = &[1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10];

/// Bucket bounds for small cardinalities (chunk sizes, queue depths).
pub const SIZE_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Renders an `f64` as a JSON value (non-finite values become `null`,
/// since JSON has no representation for them).
pub(crate) fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A fixed-bucket histogram: `counts[i]` holds observations `x <=
/// bounds[i]` (first matching bucket), `counts[bounds.len()]` the
/// overflow. Merging two histograms with the same bounds is bucket-wise
/// addition, hence associative and commutative.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A fresh histogram over `bounds` (must be sorted, finite, and
    /// non-empty).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, x: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += x;
        self.count += 1;
    }

    /// Folds `other` into `self` (bucket-wise addition). Fails without
    /// touching `self` when the bucket bounds differ — merging over
    /// different buckets has no meaning, and a malformed donor-shipped
    /// registry must not kill the server.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.bounds != other.bounds {
            return Err(MergeError {
                ours: self.bounds.clone(),
                theirs: other.bounds.clone(),
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
        Ok(())
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) estimated by linear interpolation
    /// inside the fixed buckets, the standard streaming-histogram
    /// estimate: the bucket holding the q-th observation is found by
    /// walking the cumulative counts, and the position inside it is
    /// interpolated between its bounds. The underflow bucket
    /// interpolates from 0, the overflow bucket reports the last bound
    /// (the histogram knows nothing beyond it). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile wants q in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = q * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let above = below + c;
            if rank <= above as f64 || i == self.counts.len() - 1 {
                if i == self.bounds.len() {
                    // Overflow bucket: unbounded above, clamp to the
                    // last finite bound.
                    return Some(self.bounds[self.bounds.len() - 1]);
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            below = above;
        }
        // All counts zero is impossible with count > 0.
        unreachable!("non-empty histogram must locate a quantile bucket")
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last = overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reconstructs a histogram from wire parts (shipped snapshots).
    fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        sum: f64,
        count: u64,
    ) -> Result<Self, WireError> {
        if bounds.is_empty()
            || counts.len() != bounds.len() + 1
            || !bounds.windows(2).all(|w| w[0] < w[1])
            || bounds.iter().any(|b| !b.is_finite())
        {
            return Err(WireError::new("malformed histogram in metrics snapshot"));
        }
        if counts.iter().sum::<u64>() != count {
            return Err(WireError::new(
                "histogram bucket counts disagree with count",
            ));
        }
        Ok(Self {
            bounds,
            counts,
            sum,
            count,
        })
    }

    fn to_json(&self) -> String {
        let bounds: Vec<String> = self.bounds.iter().map(|&b| fmt_f64(b)).collect();
        let counts: Vec<String> = self.counts.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"count\":{}}}",
            bounds.join(","),
            counts.join(","),
            fmt_f64(self.sum),
            self.count
        )
    }
}

/// The live registry: owned by the telemetry handle, mutated through
/// it, and read via [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Adds `v` to counter `name` (created at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        // Hot path (per frame, per unit): no key allocation once the
        // counter exists.
        match self.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `x` into histogram `name`, creating it over `bounds` on
    /// first use (later calls must pass the same bounds).
    pub fn observe(&mut self, name: &str, bounds: &[f64], x: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(x),
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(x);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Folds a donor-shipped snapshot into this registry under
    /// `prefix` (typically `donor.c<id>.`): counters add, gauges
    /// last-write-win, histograms merge bucket-wise. Shipped snapshots
    /// are *cumulative*, so counters and histograms **replace** the
    /// prefixed entry rather than adding — re-shipping the same
    /// snapshot twice must be idempotent. Returns the number of
    /// histogram merges rejected for mismatched bounds (routed by the
    /// caller to `telemetry.merge_errors`).
    pub fn merge_prefixed(&mut self, prefix: &str, snap: &MetricsSnapshot) -> u64 {
        for (k, v) in &snap.counters {
            self.counters.insert(format!("{prefix}{k}"), *v);
        }
        for (k, v) in &snap.gauges {
            self.gauges.insert(format!("{prefix}{k}"), *v);
        }
        let mut errors = 0;
        for (k, h) in &snap.histograms {
            let name = format!("{prefix}{k}");
            match self.histograms.get_mut(&name) {
                // Same bounds: replace (cumulative snapshot supersedes
                // the previous report). Different bounds: the donor is
                // confused — keep ours, count the error.
                Some(existing) => {
                    if existing.bounds == h.bounds {
                        *existing = h.clone();
                    } else {
                        errors += 1;
                    }
                }
                None => {
                    self.histograms.insert(name, h.clone());
                }
            }
        }
        errors
    }
}

/// A point-in-time copy of the registry, detached from any locking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Merges every histogram whose name ends in `suffix` into one
    /// cluster-wide histogram via the associative [`Histogram::merge`],
    /// returning it plus the number of merges rejected for mismatched
    /// bounds. This is how per-donor shipped histograms
    /// (`donor.c3.client.unit_secs`, …) fold back into one pool-wide
    /// distribution for streaming quantiles.
    pub fn aggregate_histograms(&self, suffix: &str) -> (Option<Histogram>, u64) {
        let mut total: Option<Histogram> = None;
        let mut errors = 0;
        for (name, h) in &self.histograms {
            if !name.ends_with(suffix) {
                continue;
            }
            match &mut total {
                None => total = Some(h.clone()),
                Some(t) => {
                    if t.merge(h).is_err() {
                        errors += 1;
                    }
                }
            }
        }
        (total, errors)
    }

    /// Compact binary encoding for the `MetricsReport` wire frame.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(self.counters.len() as u32);
        for (k, v) in &self.counters {
            w.str(k);
            w.u64(*v);
        }
        w.u32(self.gauges.len() as u32);
        for (k, v) in &self.gauges {
            w.str(k);
            w.f64(*v);
        }
        w.u32(self.histograms.len() as u32);
        for (k, h) in &self.histograms {
            w.str(k);
            w.u32(h.bounds.len() as u32);
            for &b in &h.bounds {
                w.f64(b);
            }
            for &c in &h.counts {
                w.u64(c);
            }
            w.f64(h.sum);
            w.u64(h.count);
        }
        w.into_bytes()
    }

    /// Decodes a [`MetricsSnapshot::to_wire_bytes`] buffer, validating
    /// histogram structure (bounds sorted, counts consistent).
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let mut counters = BTreeMap::new();
        for _ in 0..r.count(9)? {
            let k = r.str()?;
            counters.insert(k, r.u64()?);
        }
        let mut gauges = BTreeMap::new();
        for _ in 0..r.count(9)? {
            let k = r.str()?;
            gauges.insert(k, r.f64()?);
        }
        let mut histograms = BTreeMap::new();
        for _ in 0..r.count(1)? {
            let k = r.str()?;
            let n_bounds = r.count(8)?;
            let mut bounds = Vec::with_capacity(n_bounds);
            for _ in 0..n_bounds {
                bounds.push(r.f64()?);
            }
            let mut counts = Vec::with_capacity(n_bounds + 1);
            for _ in 0..n_bounds + 1 {
                counts.push(r.u64()?);
            }
            let sum = r.f64()?;
            let count = r.u64()?;
            histograms.insert(k, Histogram::from_parts(bounds, counts, sum, count)?);
        }
        r.finish()?;
        Ok(Self {
            counters,
            gauges,
            histograms,
        })
    }

    /// Deterministic JSON rendering (BTreeMap order = sorted by name).
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}:{v}", super::trace::json_string(k)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{}:{}", super::trace::json_string(k), fmt_f64(*v)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| format!("{}:{}", super::trace::json_string(k), h.to_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 55.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let bounds = [1.0, 2.0, 4.0];
        let mk = |xs: &[f64]| {
            let mut h = Histogram::new(&bounds);
            for &x in xs {
                h.observe(x);
            }
            h
        };
        let (a, b, c) = (mk(&[0.5, 3.0]), mk(&[1.5, 9.0]), mk(&[2.5]));
        let mut ab_c = a.clone();
        ab_c.merge(&b).unwrap();
        ab_c.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut a_bc = a.clone();
        a_bc.merge(&bc).unwrap();
        assert_eq!(ab_c, a_bc, "associativity");
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        assert_eq!(ab, ba, "commutativity");
    }

    #[test]
    fn histogram_merge_rejects_mismatched_bounds_without_mutating() {
        let mut a = Histogram::new(&[1.0]);
        a.observe(0.5);
        let before = a.clone();
        let mut b = Histogram::new(&[2.0]);
        b.observe(1.5);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err.ours, vec![1.0]);
        assert_eq!(err.theirs, vec![2.0]);
        assert!(err.to_string().contains("identical bounds"));
        assert_eq!(a, before, "failed merge must leave the target intact");
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 4 observations in (1, 2], so p50 lands mid-bucket.
        for x in [1.2, 1.4, 1.6, 1.8] {
            h.observe(x);
        }
        assert_eq!(h.quantile(0.0), Some(1.0), "q=0 is the bucket floor");
        assert_eq!(h.quantile(1.0), Some(2.0), "q=1 is the bucket ceiling");
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 1.5).abs() < 1e-12, "p50 {p50}");
        // Uniform spread across buckets: quantiles walk the cumulative.
        let mut u = Histogram::new(&[1.0, 2.0, 4.0]);
        u.observe(0.5); // bucket (0, 1]
        u.observe(1.5); // bucket (1, 2]
        u.observe(3.0); // bucket (2, 4]
        u.observe(9.0); // overflow
        assert_eq!(u.quantile(0.25), Some(1.0));
        assert!((u.quantile(0.5).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(
            u.quantile(0.99),
            Some(4.0),
            "overflow clamps to the last bound"
        );
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None, "empty is None");
    }

    #[test]
    #[should_panic(expected = "q in [0, 1]")]
    fn quantile_rejects_out_of_range_q() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        h.quantile(1.5);
    }

    #[test]
    fn snapshot_wire_round_trip_is_lossless() {
        let mut r = MetricsRegistry::default();
        r.counter_add("cache.hits", 7);
        r.counter_add("net.bytes_out", 123_456_789);
        r.gauge_set("ops_per_sec", 1.5e7);
        r.observe("unit_secs", LATENCY_BOUNDS, 0.3);
        r.observe("unit_secs", LATENCY_BOUNDS, 42.0);
        let snap = r.snapshot();
        let bytes = snap.to_wire_bytes();
        let back = MetricsSnapshot::from_wire_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // Corrupting the tail must not decode into a valid snapshot.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(MetricsSnapshot::from_wire_bytes(&bad).is_err());
        assert!(MetricsSnapshot::from_wire_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn merge_prefixed_is_idempotent_and_counts_bound_errors() {
        let mut donor = MetricsRegistry::default();
        donor.counter_add("cache.hits", 3);
        donor.gauge_set("pipeline_depth", 2.0);
        donor.observe("unit_secs", &[1.0, 2.0], 0.5);
        let snap = donor.snapshot();

        let mut cluster = MetricsRegistry::default();
        assert_eq!(cluster.merge_prefixed("donor.c3.", &snap), 0);
        assert_eq!(cluster.merge_prefixed("donor.c3.", &snap), 0);
        let merged = cluster.snapshot();
        assert_eq!(
            merged.counter("donor.c3.cache.hits"),
            3,
            "re-shipping the same cumulative snapshot must not double-count"
        );
        assert_eq!(merged.gauge("donor.c3.pipeline_depth"), Some(2.0));
        assert_eq!(merged.histogram("donor.c3.unit_secs").unwrap().count(), 1);

        // A donor that re-ships under different bounds is rejected per
        // histogram, counted, and the server-side copy survives.
        let mut confused = MetricsRegistry::default();
        confused.observe("unit_secs", &[9.0], 0.5);
        assert_eq!(cluster.merge_prefixed("donor.c3.", &confused.snapshot()), 1);
        assert_eq!(
            cluster
                .snapshot()
                .histogram("donor.c3.unit_secs")
                .unwrap()
                .bounds(),
            &[1.0, 2.0]
        );
    }

    #[test]
    fn aggregate_histograms_folds_per_donor_entries() {
        let mut r = MetricsRegistry::default();
        r.observe("donor.c0.unit_secs", &[1.0, 2.0], 0.5);
        r.observe("donor.c1.unit_secs", &[1.0, 2.0], 1.5);
        r.observe("donor.c2.other", &[1.0, 2.0], 1.5);
        let (total, errors) = r.snapshot().aggregate_histograms(".unit_secs");
        assert_eq!(errors, 0);
        assert_eq!(total.unwrap().count(), 2);
        // Mismatched bounds on one donor: skipped and counted.
        r.observe("donor.c3.unit_secs", &[5.0], 0.1);
        let (total, errors) = r.snapshot().aggregate_histograms(".unit_secs");
        assert_eq!(errors, 1);
        assert_eq!(total.unwrap().count(), 2);
    }

    #[test]
    fn registry_snapshot_round_trips_to_stable_json() {
        let mut r = MetricsRegistry::default();
        r.counter_add("b.count", 2);
        r.counter_add("a.count", 1);
        r.gauge_set("speed", 1.5);
        r.observe("lat", &[1.0], 0.5);
        let j1 = r.snapshot().to_json();
        let j2 = r.snapshot().to_json();
        assert_eq!(j1, j2, "deterministic rendering");
        // Sorted key order, regardless of insertion order.
        assert!(j1.find("\"a.count\"").unwrap() < j1.find("\"b.count\"").unwrap());
        assert!(j1.contains("\"sum\":0.5"));
    }
}
