//! What one donor holds, said once for both backends: its part of the
//! fault plan, its chunk cache and the metrics registry it ships, with
//! the rules for how a unit's chunks are looked up, kept and lost.
//!
//! The TCP donor (`net::client`) holds one [`Holdings`]; the simulator
//! holds one per machine. Either way a unit's chunks are [planned]
//! before any is fetched — every hit resolved and every miss listed in
//! the unit's needs order — and each fetched chunk is then [kept]. So a
//! unit that lists a digest twice fetches it twice, and a chunk the
//! unit found cached is in hand even if keeping a miss evicts it.
//!
//! [planned]: Holdings::plan
//! [kept]: Holdings::keep

use crate::codec::ChunkNeed;
use crate::fault::{ClientFaults, DeliveryAction};
use crate::net::cache::{ChunkCache, DONOR_CACHE_BYTES};
use crate::net::Clock;
use crate::telemetry::{EventKind, MetricsRegistry, MetricsSnapshot, Telemetry};
use std::sync::Arc;

/// A donor's chunks as its cache has them, in needs order: the bytes
/// of every hit, `None` for every miss.
pub(crate) type Planned = Vec<Option<Arc<Vec<u8>>>>;

/// Everything one donor holds of its own.
pub(crate) struct Holdings {
    /// The donor's client id.
    pub id: usize,
    /// Its part of the fault plan.
    pub faults: ClientFaults,
    /// The chunks it holds, [`DONOR_CACHE_BYTES`] at most.
    pub cache: ChunkCache,
    /// Its own registry, shipped to the server as delta snapshots
    /// ([`Holdings::report`]) and lost with a crash.
    pub metrics: MetricsRegistry,
    /// The shared handle its events and counters go to.
    pub telemetry: Telemetry,
}

impl Holdings {
    /// A donor that holds nothing yet.
    pub fn new(id: usize, faults: ClientFaults, telemetry: Telemetry) -> Self {
        Self {
            id,
            faults,
            cache: ChunkCache::new(DONOR_CACHE_BYTES),
            metrics: MetricsRegistry::default(),
            telemetry,
        }
    }

    /// Adds to a counter in the shared registry and in the shipped one.
    pub fn count(&mut self, name: &str, v: u64) {
        if v > 0 {
            self.telemetry.counter_add(name, v);
            self.metrics.counter_add(name, v);
        }
    }

    /// Looks a unit's `needs` up in the cache at `now`: a `CacheHit`, or
    /// a `CacheMiss` and a `ChunkFetchStarted`, per need in needs order,
    /// then the hits and misses counted. Returns what the cache held and
    /// the indices of the misses, in needs order.
    pub fn plan(&mut self, needs: &[ChunkNeed], now: f64) -> (Planned, Vec<usize>) {
        let mut got = Vec::with_capacity(needs.len());
        let mut misses = Vec::new();
        for (i, need) in needs.iter().enumerate() {
            let (client, digest) = (self.id, need.digest);
            let hit = self.cache.get_verified(digest);
            if hit.is_some() {
                self.telemetry
                    .emit_at(now, EventKind::CacheHit { client, digest });
            } else {
                self.telemetry
                    .emit_at(now, EventKind::CacheMiss { client, digest });
                self.telemetry
                    .emit_at(now, EventKind::ChunkFetchStarted { client, digest });
                misses.push(i);
            }
            got.push(hit);
        }
        self.count("cache.hits", (needs.len() - misses.len()) as u64);
        self.count("cache.misses", misses.len() as u64);
        (got, misses)
    }

    /// Consumes the record's due one-shot of the kind `pick` reads, as a
    /// fault on the TCP donor's wire (one `WireFault` event, one
    /// `net.wire_faults`); with nothing armed, no clock reading.
    pub fn wire_fault(
        &mut self,
        clock: &Clock,
        pick: fn(&mut ClientFaults, f64) -> DeliveryAction,
    ) -> DeliveryAction {
        if self.faults.armed.is_empty() {
            return DeliveryAction::Deliver;
        }
        let now = clock.now();
        let action = pick(&mut self.faults, now);
        if let Some(name) = action.fault() {
            let (client, action) = (self.id, name.to_string());
            let fault = EventKind::WireFault { client, action };
            self.telemetry.emit_at(now, fault);
            self.telemetry.counter_add("net.wire_faults", 1);
        }
        action
    }

    /// Caches a fetched chunk, counting what it evicted.
    pub fn keep(&mut self, digest: u64, bytes: Arc<Vec<u8>>) {
        let before = self.cache.stats().evictions;
        self.cache.insert(digest, bytes);
        let evicted = self.cache.stats().evictions - before;
        if evicted > 0 {
            self.telemetry.counter_add("cache.evictions", evicted);
        }
    }

    /// The donor crashed at `now` for `down_secs`: its memory is gone —
    /// the cache goes cold and the unshipped metrics are lost.
    pub fn crash(&mut self, now: f64, down_secs: f64) {
        self.cache.clear();
        self.metrics = MetricsRegistry::default();
        let client = self.id;
        self.telemetry
            .emit_at(now, EventKind::MachineCrashed { client, down_secs });
    }

    /// Takes the metrics gathered since the last report.
    pub fn report(&mut self) -> MetricsSnapshot {
        std::mem::take(&mut self.metrics).snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::cache::chunk_digest;

    fn need(chunk: u64) -> ChunkNeed {
        ChunkNeed {
            chunk,
            digest: chunk_digest(&chunk.to_le_bytes()),
            bytes: 8,
        }
    }

    fn keep(donor: &mut Holdings, chunk: u64) {
        let bytes = Arc::new(chunk.to_le_bytes().to_vec());
        donor.keep(need(chunk).digest, bytes);
    }

    /// A plan emits one hit, or one miss and one fetch start, per need
    /// in needs order, and counts them in both registries.
    #[test]
    fn plan_emits_and_counts_in_needs_order() {
        let telemetry = Telemetry::enabled();
        let ring = telemetry.attach_ring(64);
        let mut donor = Holdings::new(3, ClientFaults::default(), telemetry.clone());
        keep(&mut donor, 2);
        let needs: Vec<ChunkNeed> = [1, 2, 3].map(need).to_vec();
        let (got, misses) = donor.plan(&needs, 5.0);
        assert_eq!(misses, [0, 2]);
        assert_eq!(
            got.iter().map(Option::is_some).collect::<Vec<_>>(),
            [false, true, false]
        );
        let d = |i: usize| needs[i].digest;
        let client = 3;
        let expected = [
            EventKind::CacheMiss {
                client,
                digest: d(0),
            },
            EventKind::ChunkFetchStarted {
                client,
                digest: d(0),
            },
            EventKind::CacheHit {
                client,
                digest: d(1),
            },
            EventKind::CacheMiss {
                client,
                digest: d(2),
            },
            EventKind::ChunkFetchStarted {
                client,
                digest: d(2),
            },
        ];
        let events = ring.events();
        assert_eq!(
            events.iter().map(|e| e.kind.clone()).collect::<Vec<_>>(),
            expected
        );
        assert!(events.iter().all(|e| e.t == 5.0));
        let shared = telemetry.metrics_snapshot();
        let shipped = donor.report();
        for snap in [&shared, &shipped] {
            assert_eq!(snap.counter("cache.hits"), 1);
            assert_eq!(snap.counter("cache.misses"), 2);
        }
        assert!(
            donor.report().counters.is_empty(),
            "a report takes the delta"
        );
    }

    /// A crash leaves the cache cold and the unshipped delta lost, and
    /// says so.
    #[test]
    fn crash_empties_the_cache_and_the_unshipped_delta() {
        let telemetry = Telemetry::enabled();
        let ring = telemetry.attach_ring(64);
        let mut donor = Holdings::new(4, ClientFaults::default(), telemetry.clone());
        keep(&mut donor, 1);
        donor.count("units_computed", 2);
        donor.crash(7.0, 30.0);
        assert!(donor.cache.is_empty());
        assert!(donor.report().counters.is_empty());
        let crashed = EventKind::MachineCrashed {
            client: 4,
            down_secs: 30.0,
        };
        assert_eq!(ring.events().last().map(|e| e.kind.clone()), Some(crashed));
        // The shared registry keeps what it was told.
        assert_eq!(telemetry.metrics_snapshot().counter("units_computed"), 2);
        let (_, misses) = donor.plan(&[need(1)], 8.0);
        assert_eq!(misses, [0], "what was cached before the crash misses");
    }
}
