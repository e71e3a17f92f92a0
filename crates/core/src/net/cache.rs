//! Donor-side chunk cache: a bounded, byte-capacity LRU keyed by
//! *content digest*.
//!
//! Work units reference their input data as `(chunk id, digest, bytes)`
//! triples; a donor fetches the residues over the wire only when the
//! digest is absent here (see `net::client`), so a database chunk
//! crosses the link once per donor and every later unit touching it —
//! even from a different problem with identical data — is served
//! locally. Keying by content digest rather than `(problem, chunk)` is
//! what makes the cross-problem reuse work: a repeated query over the
//! same database hits the warm cache instead of the network.
//!
//! The cache is deliberately free of I/O and telemetry: it is pure data
//! structure + counters, so the property suite can drive it with a
//! seeded RNG and check its invariants exactly (capacity never
//! exceeded, eviction strictly in access order, hits never re-transfer,
//! digest mismatch forces a refetch). The transport layers translate
//! [`CacheStats`] deltas into the metrics registry.

use std::collections::HashMap;
use std::sync::Arc;

/// FNV-1a digest of a chunk's wire bytes — the cache key and the
/// integrity check a client applies to every `ChunkData` frame before
/// trusting it.
pub fn chunk_digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Monotonic counters describing a cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Verified lookups that returned cached bytes.
    pub hits: u64,
    /// Lookups that found nothing usable (absent or digest mismatch).
    pub misses: u64,
    /// Entries removed to make room (or discarded as corrupt).
    pub evictions: u64,
}

/// Capacity of a donor's chunk cache in bytes — the TCP donor's and
/// the one the simulator models per machine. Data a unit needs crosses
/// the wire only when this cache misses.
pub(crate) const DONOR_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// "No slot": the end of the recency list, or an empty list.
const NIL: usize = usize::MAX;

/// One node of the recency list, linked by slot index.
#[derive(Debug, Clone, Copy)]
struct Link {
    digest: u64,
    /// Towards the least-recently-used end.
    prev: usize,
    /// Towards the most-recently-used end.
    next: usize,
}

/// A bounded LRU of chunk bytes, keyed by content digest. Recency is a
/// doubly linked list threaded through a slot vector, so a hit, an
/// insert and an eviction each cost O(1) however many chunks are held.
#[derive(Debug)]
pub struct ChunkCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// Digest → (bytes, slot in `links`).
    entries: HashMap<u64, (Arc<Vec<u8>>, usize)>,
    links: Vec<Link>,
    /// Slots of `links` released by removals, reused before it grows.
    free: Vec<usize>,
    /// Least-recently-used slot (the next eviction victim).
    lru: usize,
    /// Most-recently-used slot.
    mru: usize,
    stats: CacheStats,
}

impl ChunkCache {
    /// An empty cache holding at most `capacity_bytes` of chunk data.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            links: Vec::new(),
            free: Vec::new(),
            lru: NIL,
            mru: NIL,
            stats: CacheStats::default(),
        }
    }

    /// The configured byte capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently held (always ≤ capacity).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `digest` is present (no access-order side effect).
    pub fn contains(&self, digest: u64) -> bool {
        self.entries.contains_key(&digest)
    }

    /// The lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Digests in eviction order: least-recently-used first.
    pub fn lru_order(&self) -> Vec<u64> {
        let mut order = Vec::with_capacity(self.entries.len());
        let mut slot = self.lru;
        while slot != NIL {
            order.push(self.links[slot].digest);
            slot = self.links[slot].next;
        }
        order
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let Link { prev, next, .. } = self.links[slot];
        match prev {
            NIL => self.lru = next,
            p => self.links[p].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.links[n].prev = prev,
        }
    }

    /// Attaches `slot` at the most-recently-used end.
    fn link_mru(&mut self, slot: usize) {
        self.links[slot].prev = self.mru;
        self.links[slot].next = NIL;
        match self.mru {
            NIL => self.lru = slot,
            m => self.links[m].next = slot,
        }
        self.mru = slot;
    }

    fn remove_entry(&mut self, digest: u64) {
        if let Some((bytes, slot)) = self.entries.remove(&digest) {
            self.used_bytes -= bytes.len() as u64;
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    /// Looks up `digest`, *re-verifying the stored bytes against it*: a
    /// hit refreshes the entry's recency and returns the bytes; an
    /// absent key is a miss; present-but-mismatched bytes (a corrupted
    /// entry) are evicted and reported as a miss, forcing the caller to
    /// refetch from the server.
    pub fn get_verified(&mut self, digest: u64) -> Option<Arc<Vec<u8>>> {
        match self.entries.get(&digest) {
            Some((bytes, slot)) if chunk_digest(bytes) == digest => {
                let (bytes, slot) = (bytes.clone(), *slot);
                self.unlink(slot);
                self.link_mru(slot);
                self.stats.hits += 1;
                Some(bytes)
            }
            Some(_) => {
                self.remove_entry(digest);
                self.stats.evictions += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `bytes` under `digest` as the most-recently-used entry,
    /// evicting least-recently-used entries until it fits. Returns
    /// `false` (and caches nothing) when the chunk alone exceeds the
    /// capacity — the caller still holds the bytes it fetched, so the
    /// unit proceeds; the cache just cannot amortise it.
    ///
    /// The digest is trusted here: callers validate `ChunkData` frames
    /// with [`chunk_digest`] *before* inserting.
    pub fn insert(&mut self, digest: u64, bytes: Arc<Vec<u8>>) -> bool {
        let size = bytes.len() as u64;
        if size > self.capacity_bytes {
            return false;
        }
        self.remove_entry(digest);
        while self.used_bytes + size > self.capacity_bytes {
            let victim = self.links[self.lru].digest;
            self.remove_entry(victim);
            self.stats.evictions += 1;
        }
        self.used_bytes += size;
        let link = Link {
            digest,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.links[slot] = link;
                slot
            }
            None => {
                self.links.push(link);
                self.links.len() - 1
            }
        };
        self.link_mru(slot);
        self.entries.insert(digest, (bytes, slot));
        true
    }

    /// Drops every entry (a crashed donor loses its cache; the stats
    /// survive — they describe the lifetime, not the contents).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.links.clear();
        self.free.clear();
        self.lru = NIL;
        self.mru = NIL;
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(fill: u8, len: usize) -> (u64, Arc<Vec<u8>>) {
        let bytes = Arc::new(vec![fill; len]);
        (chunk_digest(&bytes), bytes)
    }

    #[test]
    fn hit_refreshes_recency_and_miss_counts() {
        let mut c = ChunkCache::new(100);
        let (d1, b1) = chunk(1, 40);
        let (d2, b2) = chunk(2, 40);
        assert!(c.insert(d1, b1));
        assert!(c.insert(d2, b2));
        assert_eq!(c.lru_order(), vec![d1, d2]);
        assert!(c.get_verified(d1).is_some());
        assert_eq!(c.lru_order(), vec![d2, d1], "hit moves d1 to MRU");
        assert!(c.get_verified(0xBAD).is_none());
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn eviction_follows_access_order_and_respects_capacity() {
        let mut c = ChunkCache::new(100);
        let (d1, b1) = chunk(1, 40);
        let (d2, b2) = chunk(2, 40);
        let (d3, b3) = chunk(3, 40);
        c.insert(d1, b1);
        c.insert(d2, b2);
        c.get_verified(d1); // d2 is now LRU
        assert!(c.insert(d3, b3));
        assert!(c.used_bytes() <= c.capacity_bytes());
        assert!(!c.contains(d2), "LRU entry is the victim");
        assert!(c.contains(d1) && c.contains(d3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_chunk_is_refused_without_evicting_anything() {
        let mut c = ChunkCache::new(50);
        let (d1, b1) = chunk(1, 30);
        c.insert(d1, b1);
        let (big, bytes) = chunk(9, 51);
        assert!(!c.insert(big, bytes));
        assert!(c.contains(d1), "resident entries survive the refusal");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn corrupt_entry_is_evicted_and_reported_as_miss() {
        let mut c = ChunkCache::new(100);
        let bytes = Arc::new(vec![7u8; 20]);
        let wrong_digest = chunk_digest(&bytes) ^ 1;
        c.insert(wrong_digest, bytes); // simulate a corrupted entry
        assert!(c.get_verified(wrong_digest).is_none());
        assert!(!c.contains(wrong_digest), "corrupt entry must not linger");
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn churn_reuses_list_slots_and_keeps_order_against_a_naive_model() {
        // Ten-entry cache, 10k operations mixing hits, inserts and
        // re-inserts: the recency list must match a Vec-based model at
        // every step and never hold more slots than entries ever lived
        // at once.
        let mut c = ChunkCache::new(10 * 8);
        let mut model: Vec<u64> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (x >> 33) % 25;
            let bytes = Arc::new(id.to_le_bytes().to_vec());
            let digest = chunk_digest(&bytes);
            if x & 1 == 0 {
                let hit = c.get_verified(digest).is_some();
                assert_eq!(hit, model.contains(&digest));
                if hit {
                    model.retain(|&d| d != digest);
                    model.push(digest);
                }
            } else {
                assert!(c.insert(digest, bytes));
                model.retain(|&d| d != digest);
                if model.len() == 10 {
                    model.remove(0);
                }
                model.push(digest);
            }
            assert_eq!(c.lru_order(), model);
            assert_eq!(c.used_bytes(), 8 * model.len() as u64);
        }
        assert!(c.links.len() <= 10, "{} list slots", c.links.len());
    }

    #[test]
    fn clear_empties_contents_but_keeps_lifetime_stats() {
        let mut c = ChunkCache::new(100);
        let (d1, b1) = chunk(1, 10);
        c.insert(d1, b1);
        c.get_verified(d1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.stats().hits, 1);
    }
}
