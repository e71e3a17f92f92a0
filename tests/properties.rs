//! Randomised property tests over the core invariants that the
//! distributed applications rely on.
//!
//! Each property draws its cases from the workspace's own deterministic
//! [`Xoshiro256StarStar`] generator (no external property-testing
//! dependency — the build must work fully offline), with a fixed seed
//! per property so failures reproduce exactly.

use std::collections::HashSet;
use std::sync::Arc;

use biodist::align::{nw_align, nw_banded_score, nw_score, sw_align, sw_score, Hit, TopK};
use biodist::bioseq::{Alphabet, GapPenalty, ScoringMatrix, ScoringScheme, Sequence};
use biodist::core::leases::{InFlight, Lease, LeaseTable, Released};
use biodist::core::sched::Scheduler;
use biodist::core::{chunk_digest, ChunkCache, Payload, SchedulerConfig};
use biodist::gridsim::event::EventQueue;
use biodist::phylo::evolve::random_yule_tree;
use biodist::phylo::model::{GammaRates, ModelKind, SubstModel};
use biodist::phylo::newick::{from_newick, to_newick};
use biodist::util::rng::{Rng, Xoshiro256StarStar};

const CASES: usize = 64;

fn dna_seq(codes: Vec<u8>) -> Sequence {
    Sequence::from_codes("s", Alphabet::Dna, codes)
}

/// A DNA code vector of length `0..max_len` (inclusive lower bound,
/// exclusive upper — matching the old `dna_codes(max_len)` strategy).
fn dna_codes(rng: &mut dyn Rng, max_len: usize) -> Vec<u8> {
    let n = rng.next_below(max_len as u64) as usize;
    (0..n).map(|_| rng.next_below(4) as u8).collect()
}

fn dna_codes_range(rng: &mut dyn Rng, lo: usize, hi: usize) -> Vec<u8> {
    let n = rng.next_range(lo as u64, hi as u64) as usize;
    (0..n).map(|_| rng.next_below(4) as u8).collect()
}

fn scheme() -> ScoringScheme {
    ScoringScheme {
        matrix: ScoringMatrix::match_mismatch(Alphabet::Dna, 2, -3),
        gap: GapPenalty::affine(5, 1),
    }
}

#[test]
fn nw_score_is_symmetric() {
    let mut rng = Xoshiro256StarStar::new(0x01);
    for _ in 0..CASES {
        let (sa, sb) = (
            dna_seq(dna_codes(&mut rng, 40)),
            dna_seq(dna_codes(&mut rng, 40)),
        );
        assert_eq!(nw_score(&sa, &sb, &scheme()), nw_score(&sb, &sa, &scheme()));
    }
}

#[test]
fn nw_traceback_score_is_verified_and_equals_score_only() {
    let mut rng = Xoshiro256StarStar::new(0x02);
    for _ in 0..CASES {
        let (sa, sb) = (
            dna_seq(dna_codes(&mut rng, 30)),
            dna_seq(dna_codes(&mut rng, 30)),
        );
        let s = scheme();
        let aln = nw_align(&sa, &sb, &s);
        assert!(aln.verify_score(&sa, &sb, &s));
        assert_eq!(aln.score, nw_score(&sa, &sb, &s));
    }
}

#[test]
fn sw_variants_agree_and_are_nonnegative() {
    let mut rng = Xoshiro256StarStar::new(0x03);
    for _ in 0..CASES {
        let (sa, sb) = (
            dna_seq(dna_codes(&mut rng, 30)),
            dna_seq(dna_codes(&mut rng, 30)),
        );
        let s = scheme();
        let full = sw_align(&sa, &sb, &s);
        let rolling = sw_score(&sa, &sb, &s);
        let striped = biodist::align::sw_score_striped(&sa, &sb, &s);
        assert!(rolling >= 0);
        assert_eq!(full.score, rolling);
        assert_eq!(rolling, striped);
        assert!(full.verify_score(&sa, &sb, &s));
    }
}

#[test]
fn sw_at_least_nw() {
    let mut rng = Xoshiro256StarStar::new(0x04);
    for _ in 0..CASES {
        let (sa, sb) = (
            dna_seq(dna_codes(&mut rng, 30)),
            dna_seq(dna_codes(&mut rng, 30)),
        );
        let s = scheme();
        // A local alignment can always do at least as well as global
        // (it may drop costly flanks; empty alignment scores 0).
        assert!(sw_score(&sa, &sb, &s) >= nw_score(&sa, &sb, &s).max(0));
    }
}

#[test]
fn banded_never_exceeds_full_and_matches_when_wide() {
    let mut rng = Xoshiro256StarStar::new(0x05);
    for _ in 0..CASES {
        let (sa, sb) = (
            dna_seq(dna_codes(&mut rng, 25)),
            dna_seq(dna_codes(&mut rng, 25)),
        );
        let band = rng.next_below(30) as usize;
        let s = scheme();
        let full = nw_score(&sa, &sb, &s);
        if let Some(banded) = nw_banded_score(&sa, &sb, &s, band) {
            assert!(banded <= full);
        }
        let wide = nw_banded_score(&sa, &sb, &s, sa.len().max(sb.len()).max(1));
        assert_eq!(wide, Some(full));
    }
}

#[test]
fn sw_finds_planted_exact_substring() {
    let mut rng = Xoshiro256StarStar::new(0x06);
    for _ in 0..CASES {
        let prefix = dna_codes(&mut rng, 15);
        let core = dna_codes_range(&mut rng, 5, 15);
        let suffix = dna_codes(&mut rng, 15);
        // b = core planted inside a; local score must be at least
        // match_score * |core|.
        let mut a = prefix.clone();
        a.extend(&core);
        a.extend(&suffix);
        let (sa, sb) = (dna_seq(a), dna_seq(core.clone()));
        assert!(sw_score(&sa, &sb, &scheme()) >= 2 * core.len() as i32);
    }
}

#[test]
fn topk_merge_is_associative_and_order_free() {
    let mut rng = Xoshiro256StarStar::new(0x07);
    for _ in 0..CASES {
        let n = rng.next_range(1, 60) as usize;
        let scores: Vec<i32> = (0..n).map(|_| rng.next_range(0, 100) as i32 - 50).collect();
        let k = rng.next_range(1, 10) as usize;
        let hits: Vec<Hit> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Hit {
                query_id: "q".into(),
                db_id: format!("d{i:03}"),
                score: s,
            })
            .collect();
        let mut all = TopK::new(k);
        for h in &hits {
            all.offer(h.clone());
        }
        let expected = all.into_sorted();
        // Split three ways, merge in a different order.
        let mut parts: Vec<TopK> = (0..3).map(|_| TopK::new(k)).collect();
        for (i, h) in hits.iter().enumerate() {
            parts[i % 3].offer(h.clone());
        }
        let (c, b, a) = (
            parts.pop().unwrap(),
            parts.pop().unwrap(),
            parts.pop().unwrap(),
        );
        let mut merged = c;
        merged.merge(a);
        merged.merge(b);
        assert_eq!(merged.into_sorted(), expected);
    }
}

#[test]
fn transition_matrices_are_stochastic_for_random_gtr() {
    let mut rng = Xoshiro256StarStar::new(0x08);
    for _ in 0..CASES {
        let rates: [f64; 6] = std::array::from_fn(|_| rng.next_f64_range(0.1, 5.0));
        let raw: [f64; 4] = std::array::from_fn(|_| rng.next_f64_range(0.1, 1.0));
        let t = rng.next_f64_range(0.0, 5.0);
        let total: f64 = raw.iter().sum();
        let freqs = raw.map(|f| f / total);
        let model = SubstModel::homogeneous(ModelKind::Gtr { rates, freqs });
        let p = model.transition_matrix(t, 1.0);
        for i in 0..4 {
            let row_sum: f64 = p[i].iter().sum();
            assert!(
                (row_sum - 1.0).abs() < 1e-8,
                "row {} sums to {}",
                i,
                row_sum
            );
            for j in 0..4 {
                assert!((0.0..=1.0).contains(&p[i][j]));
                // Detailed balance (time reversibility).
                assert!((freqs[i] * p[i][j] - freqs[j] * p[j][i]).abs() < 1e-8);
            }
        }
    }
}

#[test]
fn gamma_rates_mean_one_for_any_shape() {
    let mut rng = Xoshiro256StarStar::new(0x09);
    for _ in 0..CASES {
        let alpha = rng.next_f64_range(0.05, 50.0);
        let ncat = rng.next_range(1, 9) as usize;
        let g = GammaRates::gamma(alpha, ncat);
        assert!((g.mean_rate() - 1.0).abs() < 1e-6);
        assert!(g.rates.iter().all(|&r| r >= 0.0));
    }
}

#[test]
fn newick_round_trip_preserves_topology() {
    let mut rng = Xoshiro256StarStar::new(0x0A);
    for _ in 0..CASES {
        let n = rng.next_range(4, 20) as usize;
        let seed = rng.next_below(500);
        let tree = random_yule_tree(n, 0.1, seed);
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let text = to_newick(&tree, &names);
        let (parsed, parsed_names) = from_newick(&text).unwrap();
        assert_eq!(parsed.leaf_count(), n);
        // Taxon ids are renumbered by first appearance; map back through
        // names before comparing splits.
        let relabel: Vec<usize> = parsed_names
            .iter()
            .map(|nm| names.iter().position(|x| x == nm).unwrap())
            .collect();
        // Compare by re-rendering with the inverse mapping.
        let text2 = to_newick(&parsed, &parsed_names);
        let (parsed2, _) = from_newick(&text2).unwrap();
        assert_eq!(parsed.rf_distance(&parsed2), 0);
        assert_eq!(relabel.len(), n);
        // Branch lengths survive to 1e-6 (the rendering precision).
        let total_in: f64 = tree.total_branch_length();
        let total_out: f64 = parsed.total_branch_length();
        assert!((total_in - total_out).abs() < 1e-3);
    }
}

#[test]
fn event_queue_pops_sorted_with_stable_ties() {
    let mut rng = Xoshiro256StarStar::new(0x0B);
    for _ in 0..CASES {
        let n = rng.next_range(1, 200) as usize;
        let times: Vec<u32> = (0..n).map(|_| rng.next_below(100) as u32).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t as f64, (t, i));
        }
        let mut last: Option<(u32, usize)> = None;
        while let Some((_, (t, i))) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }
}

#[test]
fn semiglobal_finds_planted_query_anywhere() {
    let mut rng = Xoshiro256StarStar::new(0x0C);
    for _ in 0..CASES {
        use biodist::align::sg_score;
        let prefix = dna_codes(&mut rng, 20);
        let query = dna_codes_range(&mut rng, 4, 12);
        let suffix = dna_codes(&mut rng, 20);
        let mut subject = prefix.clone();
        subject.extend(&query);
        subject.extend(&suffix);
        let (q, s) = (dna_seq(query.clone()), dna_seq(subject));
        // Exact embedding: semi-global score equals the full-match score
        // (free subject flanks, nothing better than all matches).
        assert_eq!(sg_score(&q, &s, &scheme()), 2 * query.len() as i32);
    }
}

#[test]
fn reverse_complement_is_involutive_and_composition_swaps() {
    let mut rng = Xoshiro256StarStar::new(0x0D);
    for _ in 0..CASES {
        use biodist::bioseq::reverse_complement;
        let codes = dna_codes(&mut rng, 50);
        let s = dna_seq(codes.clone());
        let rc = reverse_complement(&s);
        assert_eq!(rc.len(), s.len());
        let back = reverse_complement(&rc);
        assert_eq!(back.codes(), s.codes());
        // A-count of s equals T-count of rc, etc.
        let count = |seq: &Sequence, c: u8| seq.codes().iter().filter(|&&x| x == c).count();
        assert_eq!(count(&s, 0), count(&rc, 3));
        assert_eq!(count(&s, 1), count(&rc, 2));
    }
}

#[test]
fn nj_reconstructs_additive_metrics() {
    let mut rng = Xoshiro256StarStar::new(0x0E);
    for _ in 0..CASES {
        use biodist::phylo::nj::{neighbor_joining, patristic_distance_matrix};
        let n = rng.next_range(4, 10) as usize;
        let seed = rng.next_below(200);
        let truth = random_yule_tree(n, 0.3, seed);
        let d = patristic_distance_matrix(&truth);
        let nj = neighbor_joining(&d);
        assert_eq!(nj.rf_distance(&truth), 0);
        // The rebuilt metric matches the input (additivity).
        let rebuilt = patristic_distance_matrix(&nj);
        for i in 0..n {
            for j in 0..n {
                assert!((rebuilt[i][j] - d[i][j]).abs() < 1e-6);
            }
        }
    }
}

/// A `(digest, bytes)` chunk whose key really is its content digest, so
/// [`ChunkCache::get_verified`] treats it as intact.
fn honest_chunk(rng: &mut dyn Rng, max_len: usize) -> (u64, Arc<Vec<u8>>) {
    let n = rng.next_range(1, max_len as u64) as usize;
    let bytes: Vec<u8> = (0..n).map(|_| rng.next_below(256) as u8).collect();
    (chunk_digest(&bytes), Arc::new(bytes))
}

/// Every LRU property derives one RNG per case from a printed seed, so
/// a failure replays (and effectively shrinks) by re-running just that
/// `case_seed` — no dependence on earlier cases' draws.
#[test]
fn chunk_cache_capacity_is_never_exceeded() {
    for case in 0..CASES as u64 {
        let case_seed = 0x11_0000 + case;
        let mut rng = Xoshiro256StarStar::new(case_seed);
        let cap = rng.next_range(1, 200);
        let mut cache = ChunkCache::new(cap);
        for _ in 0..100 {
            // Oversized chunks (up to 2× capacity) must be refused, not
            // squeezed in.
            let (d, bytes) = honest_chunk(&mut rng, (2 * cap) as usize);
            let fits = bytes.len() as u64 <= cap;
            if rng.next_below(4) == 0 {
                cache.get_verified(d);
            } else {
                assert_eq!(
                    cache.insert(d, bytes),
                    fits,
                    "insert refusal wrong (case_seed={case_seed:#x})"
                );
            }
            assert!(
                cache.used_bytes() <= cache.capacity_bytes(),
                "capacity exceeded: {} > {} (case_seed={case_seed:#x})",
                cache.used_bytes(),
                cache.capacity_bytes()
            );
        }
    }
}

#[test]
fn chunk_cache_hit_never_retransfers() {
    for case in 0..CASES as u64 {
        let case_seed = 0x12_0000 + case;
        let mut rng = Xoshiro256StarStar::new(case_seed);
        let n = rng.next_range(1, 8) as usize;
        let chunks: Vec<(u64, Arc<Vec<u8>>)> = (0..n).map(|_| honest_chunk(&mut rng, 64)).collect();
        // The whole working set fits, so after its first transfer a
        // chunk must be served from cache forever.
        let total: u64 = chunks.iter().map(|(_, b)| b.len() as u64).sum();
        let mut cache = ChunkCache::new(total);
        let mut transferred: u64 = 0;
        let accesses = rng.next_range(20, 60);
        for _ in 0..accesses {
            let (d, bytes) = &chunks[rng.next_below(n as u64) as usize];
            match cache.get_verified(*d) {
                Some(got) => assert_eq!(
                    got.as_slice(),
                    bytes.as_slice(),
                    "hit returned wrong bytes (case_seed={case_seed:#x})"
                ),
                None => {
                    // Miss: the client pays the transfer and caches it.
                    transferred += bytes.len() as u64;
                    cache.insert(*d, bytes.clone());
                }
            }
        }
        let distinct: HashSet<u64> = chunks.iter().map(|(d, _)| *d).collect();
        let distinct_bytes: u64 = distinct
            .iter()
            .map(|d| chunks.iter().find(|(cd, _)| cd == d).unwrap().1.len() as u64)
            .sum();
        assert_eq!(
            transferred, distinct_bytes,
            "each chunk must transfer exactly once (case_seed={case_seed:#x})"
        );
        assert_eq!(
            cache.stats().misses,
            distinct.len() as u64,
            "only first accesses may miss (case_seed={case_seed:#x})"
        );
    }
}

#[test]
fn chunk_cache_eviction_order_matches_access_order() {
    for case in 0..CASES as u64 {
        let case_seed = 0x13_0000 + case;
        let mut rng = Xoshiro256StarStar::new(case_seed);
        let cap = rng.next_range(20, 120);
        let mut cache = ChunkCache::new(cap);
        // Reference model: `(digest, size)` from least- to most-recent.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let pool: Vec<(u64, Arc<Vec<u8>>)> = (0..6).map(|_| honest_chunk(&mut rng, 50)).collect();
        for _ in 0..120 {
            let (d, bytes) = &pool[rng.next_below(pool.len() as u64) as usize];
            let size = bytes.len() as u64;
            if rng.next_below(2) == 0 {
                let hit = cache.get_verified(*d).is_some();
                let modeled = model.iter().position(|&(md, _)| md == *d);
                assert_eq!(
                    hit,
                    modeled.is_some(),
                    "hit/miss diverged from model (case_seed={case_seed:#x})"
                );
                if let Some(pos) = modeled {
                    let e = model.remove(pos);
                    model.push(e); // a hit refreshes recency
                }
            } else if size <= cap {
                cache.insert(*d, bytes.clone());
                if let Some(pos) = model.iter().position(|&(md, _)| md == *d) {
                    model.remove(pos);
                }
                let used = |m: &Vec<(u64, u64)>| m.iter().map(|&(_, s)| s).sum::<u64>();
                while used(&model) + size > cap {
                    model.remove(0); // least-recent goes first
                }
                model.push((*d, size));
            }
            assert_eq!(
                cache.lru_order(),
                model.iter().map(|&(md, _)| md).collect::<Vec<_>>(),
                "LRU order diverged from access-order model (case_seed={case_seed:#x})"
            );
        }
    }
}

#[test]
fn chunk_cache_digest_mismatch_forces_refetch() {
    for case in 0..CASES as u64 {
        let case_seed = 0x14_0000 + case;
        let mut rng = Xoshiro256StarStar::new(case_seed);
        let (d, bytes) = honest_chunk(&mut rng, 64);
        let mut corrupted = bytes.as_ref().clone();
        let k = rng.next_below(corrupted.len() as u64) as usize;
        corrupted[k] ^= 0xFF;
        let mut cache = ChunkCache::new(1024);
        // A corrupted entry sneaks in under the honest digest (insert
        // trusts its caller); verification must catch it on read.
        assert!(cache.insert(d, Arc::new(corrupted)));
        let evictions_before = cache.stats().evictions;
        assert!(
            cache.get_verified(d).is_none(),
            "corrupted entry served as a hit (case_seed={case_seed:#x})"
        );
        assert!(
            !cache.contains(d),
            "corrupted entry must be evicted (case_seed={case_seed:#x})"
        );
        assert_eq!(
            cache.stats().evictions,
            evictions_before + 1,
            "eviction not counted (case_seed={case_seed:#x})"
        );
        // The forced refetch then lands intact bytes and hits.
        assert!(cache.insert(d, bytes.clone()));
        assert_eq!(
            cache.get_verified(d).as_deref(),
            Some(bytes.as_ref()),
            "refetched chunk must hit (case_seed={case_seed:#x})"
        );
    }
}

#[test]
fn tree_splits_are_invariant_under_nni_involution() {
    let mut rng = Xoshiro256StarStar::new(0x10);
    for _ in 0..32 {
        let n = rng.next_range(4, 12) as usize;
        let seed = rng.next_below(100);
        let tree = random_yule_tree(n, 0.1, seed);
        for (c, a, b) in tree.nni_moves() {
            let mut t = tree.clone();
            t.nni_swap(c, a, b);
            t.validate().unwrap();
            t.nni_swap(c, b, a);
            assert_eq!(t.rf_distance(&tree), 0);
        }
    }
}

// ------------------------------------------------- per-donor fault records

use biodist::core::{ChaosOptions, ClientFaults, DeliveryAction, FaultEvent, FaultKind, FaultPlan};

/// The one-shot queue a fault kind arms, if any: 0 results, 1 chunk
/// replies, 2 control replies.
fn one_shot(kind: &FaultKind) -> Option<(usize, DeliveryAction)> {
    use DeliveryAction::{Corrupt, Drop, Duplicate};
    Some(match kind {
        FaultKind::DropResult => (0, Drop),
        FaultKind::DuplicateResult => (0, Duplicate),
        FaultKind::CorruptResult => (0, Corrupt),
        FaultKind::DropChunk => (1, Drop),
        FaultKind::CorruptChunk => (1, Corrupt),
        FaultKind::DropReply => (2, Drop),
        FaultKind::DuplicateReply => (2, Duplicate),
        FaultKind::CorruptReply => (2, Corrupt),
        _ => return None,
    })
}

/// A donor's faults read by straight scans of `plan.events`, one query
/// at a time: no sorting, no per-kind structure.
struct NaiveDonor<'a> {
    plan: &'a FaultPlan,
    client: usize,
    /// Plan indices of the one-shots already consumed.
    used: HashSet<usize>,
}

impl NaiveDonor<'_> {
    fn mine(&self) -> impl Iterator<Item = (usize, &FaultEvent)> {
        let client = self.client;
        self.plan
            .events
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.client == Some(client))
    }

    fn compute_scale(&self, now: f64) -> f64 {
        let mut scale = 1.0;
        for (_, e) in self.mine() {
            if let FaultKind::Slowdown {
                factor,
                duration_secs,
            } = e.kind
            {
                if e.at <= now && now < e.at + duration_secs {
                    scale *= factor;
                }
            }
        }
        scale
    }

    /// The overlapping crash that starts first (plan order among ties).
    fn crash_overlapping(&self, from: f64, to: f64) -> Option<(f64, f64)> {
        let mut hit: Option<(f64, f64)> = None;
        for (_, e) in self.mine() {
            if let FaultKind::Crash { down_secs } = e.kind {
                let overlaps = e.at <= to && e.at + down_secs > from;
                if overlaps && hit.is_none_or(|(at, _)| e.at < at) {
                    hit = Some((e.at, down_secs));
                }
            }
        }
        hit
    }

    /// Consumes the earliest unconsumed one-shot of `queue` (plan order
    /// among ties) if it is due.
    fn take(&mut self, queue: usize, now: f64) -> Option<DeliveryAction> {
        let mut first: Option<(usize, f64, DeliveryAction)> = None;
        for (i, e) in self.mine() {
            let Some((q, action)) = one_shot(&e.kind) else {
                continue;
            };
            let earlier = first.is_none_or(|(_, at, _)| e.at < at);
            if q == queue && !self.used.contains(&i) && earlier {
                first = Some((i, e.at, action));
            }
        }
        let (i, at, action) = first?;
        (at <= now).then(|| {
            self.used.insert(i);
            action
        })
    }
}

fn naive_link_scale(plan: &FaultPlan, now: f64) -> f64 {
    let mut scale = 1.0;
    for e in &plan.events {
        if let FaultKind::LinkDegrade {
            factor,
            duration_secs,
        } = e.kind
        {
            if e.at <= now && now < e.at + duration_secs {
                scale *= factor;
            }
        }
    }
    scale
}

/// Adds the kinds the random mix never draws — wire reply faults and
/// replica faults, whose index may equal a donor id — and more of those
/// it does, some at the time of an existing event, so
/// ties are exercised, and slowdown and link windows long enough that
/// three or more overlap (only then can the order of a product of
/// factors change its rounding).
fn with_every_kind(mut plan: FaultPlan, rng: &mut dyn Rng, n: usize, horizon: f64) -> FaultPlan {
    for _ in 0..rng.next_below(3 * n as u64) {
        let at = match plan.events.len() {
            0 => rng.next_f64_range(0.0, horizon),
            len if rng.next_bool(0.3) => plan.events[rng.next_below(len as u64) as usize].at,
            _ => rng.next_f64_range(0.0, horizon),
        };
        let (factor, window) = (
            rng.next_f64_range(1.0, 8.0),
            rng.next_f64_range(0.0, horizon),
        );
        let kind = match rng.next_below(10) {
            0 => FaultKind::DropChunk,
            1 => FaultKind::CorruptChunk,
            2 => FaultKind::DropReply,
            3 => FaultKind::DuplicateReply,
            4 => FaultKind::CorruptReply,
            5 => FaultKind::DropResult,
            6 => FaultKind::ReplicaCrash { down_secs: window },
            7 => FaultKind::ReplicaStall {
                duration_secs: window,
            },
            8 => FaultKind::Slowdown {
                factor,
                duration_secs: window,
            },
            _ => {
                let link = FaultKind::LinkDegrade {
                    factor,
                    duration_secs: window,
                };
                plan.push(at, None, link);
                continue;
            }
        };
        plan.push(at, rng.next_below(n as u64) as usize, kind);
    }
    for client in 0..n {
        for _ in 0..rng.next_below(4) {
            let at = rng.next_f64_range(0.0, horizon / 2.0);
            let slow = FaultKind::Slowdown {
                factor: rng.next_f64_range(1.0, 8.0),
                duration_secs: rng.next_f64_range(horizon / 4.0, horizon),
            };
            plan.push(at, client, slow);
        }
    }
    plan
}

/// Every query of every donor's [`ClientFaults`] record agrees with a
/// straight scan of the plan's events over a grid of times: lifecycle,
/// slowdown product (in plan order, so to the bit), the crash rule at
/// an instant and over an interval, the link product (the plan's, and
/// the copy every donor's record carries), and the sequence
/// of one-shots each of the three queues hands out — each queue polled
/// at its own random subset of the grid, so their consumption
/// interleaves differently plan by plan.
#[test]
fn client_faults_match_a_naive_model() {
    let mut rng = Xoshiro256StarStar::new(0x43_FA17);
    for case in 0..300u64 {
        let n = 2 + rng.next_below(11) as usize;
        let horizon = rng.next_f64_range(1.0, 300.0);
        let opts = ChaosOptions::for_pool(n, horizon);
        let plan = with_every_kind(FaultPlan::random(case, &opts), &mut rng, n, horizon);
        let ctx = format!("case {case}, plan digest {:#x}", plan.digest());
        let steps = 40;
        let dt = 1.1 * horizon / steps as f64;
        for client in 0..n {
            let mut record = plan.client(client);
            let mut naive = NaiveDonor {
                plan: &plan,
                client,
                used: HashSet::new(),
            };
            let lifecycle = |kind: FaultKind| naive.mine().filter(move |(_, e)| e.kind == kind);
            let join = lifecycle(FaultKind::LateJoin)
                .map(|(_, e)| e.at)
                .reduce(f64::max);
            let depart = lifecycle(FaultKind::Depart)
                .map(|(_, e)| e.at)
                .reduce(f64::min);
            assert_eq!(record.join_at, join, "donor {client} join ({ctx})");
            assert_eq!(record.departure, depart, "donor {client} departure ({ctx})");
            let polled: [f64; 3] = std::array::from_fn(|_| rng.next_f64_range(0.2, 1.0));
            for step in 0..=steps {
                let now = step as f64 * dt;
                let at = format!("donor {client} at {now} ({ctx})");
                assert_eq!(record.compute_scale(now), naive.compute_scale(now), "{at}");
                assert_eq!(record.link_scale(now), naive_link_scale(&plan, now), "{at}");
                assert_eq!(
                    record.crash_overlapping(now, now),
                    naive.crash_overlapping(now, now),
                    "{at}"
                );
                assert_eq!(
                    record.crash_overlapping(now, now + dt),
                    naive.crash_overlapping(now, now + dt),
                    "{at}"
                );
                let deliver = |a: Option<DeliveryAction>| a.unwrap_or(DeliveryAction::Deliver);
                for (queue, &p) in polled.iter().enumerate() {
                    if !rng.next_bool(p) {
                        continue;
                    }
                    let expected = naive.take(queue, now);
                    match queue {
                        0 => assert_eq!(record.delivery_action(now), deliver(expected), "{at}"),
                        1 => assert_eq!(record.chunk_reply_action(now), deliver(expected), "{at}"),
                        _ => {
                            assert_eq!(record.control_reply_action(now), deliver(expected), "{at}")
                        }
                    }
                }
            }
        }
        for step in 0..=steps {
            let now = step as f64 * dt;
            assert_eq!(plan.link_scale(now), naive_link_scale(&plan, now), "{ctx}");
        }
    }
    // Replica indices are their own space: a replica crash or stall on
    // index 0 leaves donor 0's record empty.
    let plan = FaultPlan::new(0)
        .with(1.0, 0, FaultKind::ReplicaCrash { down_secs: 5.0 })
        .with(2.0, 0, FaultKind::ReplicaStall { duration_secs: 5.0 });
    assert_eq!(plan.client(0), ClientFaults::default());
    assert_eq!(plan.client(0).crash_overlapping(0.0, 10.0), None);
}

// ------------------------------------------------------ replica routing

/// Replica selection is a pure function of (digest, directory state,
/// seed): repeated queries return the identical candidate list, every
/// candidate is a registered replica, and an endpoint that just failed
/// is never handed out again while its exclusion window (0.5 scaled
/// seconds) is still open — so no donor picks a known-dead replica
/// twice in a row.
#[test]
fn replica_selection_is_deterministic_and_avoids_dead_endpoints() {
    use biodist::core::Directory;
    use std::net::SocketAddr;
    for case in 0..CASES as u64 {
        let case_seed = 0x18_0000 + case;
        let mut rng = Xoshiro256StarStar::new(case_seed);
        let n = 2 + rng.next_below(5) as usize; // 2..=6 replicas
        let endpoints: Vec<SocketAddr> = (0..n)
            .map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap())
            .collect();
        let dir = Directory::new();
        dir.set_replicas(endpoints.clone());
        let digest = rng.next_u64();
        let seed = rng.next_u64();

        let a = dir.candidates_for(digest, seed, 3, 0.0);
        let b = dir.candidates_for(digest, seed, 3, 0.0);
        assert_eq!(
            a, b,
            "selection must be deterministic (case_seed={case_seed:#x})"
        );
        assert_eq!(a.len(), 3.min(n), "(case_seed={case_seed:#x})");
        let uniq: HashSet<_> = a.iter().collect();
        assert_eq!(
            uniq.len(),
            a.len(),
            "no duplicates (case_seed={case_seed:#x})"
        );
        assert!(
            a.iter().all(|ep| endpoints.contains(ep)),
            "(case_seed={case_seed:#x})"
        );

        // Random walk of fetches: whenever the routed endpoint fails,
        // it must not come back inside the exclusion window.
        let mut now = 0.0;
        for _ in 0..16 {
            let picked = dir.candidates_for(digest, seed, 1, now);
            let Some(&first) = picked.first() else { break };
            if rng.next_below(2) == 0 {
                dir.mark_dead(first, now);
                let within = now + 0.45 * rng.next_f64();
                assert!(
                    !dir.candidates_for(digest, seed, n, within).contains(&first),
                    "dead endpoint returned twice in a row (case_seed={case_seed:#x})"
                );
            } else {
                dir.mark_alive(first);
            }
            now += 0.05 + 0.2 * rng.next_f64();
        }

        // Once the window passes, the endpoint gets probed again — a
        // rebooted replica needs no explicit revival protocol.
        let dead: SocketAddr = endpoints[0];
        dir.mark_dead(dead, now);
        assert!(
            dir.candidates_for(digest, seed, n, now + 0.6)
                .contains(&dead),
            "expired verdicts must not exclude forever (case_seed={case_seed:#x})"
        );
    }
}

// ------------------------------------------------- one donor record

use biodist::core::{DonorRow, DonorSnapshot, EventKind, TraceEvent};
use biodist::util::stats::Ewma;
use std::collections::HashMap;

/// What the scheduler knew about donors when it kept them in separate
/// maps: the adaptive state, one map of tuples.
struct SeparateMaps {
    cfg: SchedulerConfig,
    clients: HashMap<usize, (Ewma, u64, f64, f64)>,
}

impl SeparateMaps {
    fn speed(&self, client: usize) -> f64 {
        let measured = self
            .clients
            .get(&client)
            .filter(|_| self.cfg.enable_adaptive);
        measured
            .and_then(|c| c.0.value())
            .unwrap_or(self.cfg.prior_ops_per_sec)
    }

    fn hint(&self, client: usize) -> f64 {
        let c = &self.cfg;
        (self.speed(client) * c.target_unit_secs).clamp(c.min_unit_ops, c.max_unit_ops)
    }

    fn record_completion(&mut self, client: usize, cost: f64, elapsed: f64, queue_factor: f64) {
        let fresh = || (Ewma::new(0.3), 0, 0.0, 1.0);
        let state = self.clients.entry(client).or_insert_with(fresh);
        state.0.update(cost * queue_factor / elapsed.max(1e-9));
        state.1 += 1;
        state.2 += cost;
        state.3 = queue_factor;
    }

    fn forget(&mut self, client: usize) {
        self.clients.remove(&client);
    }

    fn snapshot(&self) -> DonorSnapshot {
        let prior = self.cfg.prior_ops_per_sec;
        let ids: std::collections::BTreeSet<usize> = self.clients.keys().copied().collect();
        let row = |client| DonorRow {
            client,
            adaptive: (self.clients.get(&client)).map(|st| (st.0.value().unwrap_or(prior), st.1)),
        };
        DonorSnapshot {
            donors: ids.into_iter().map(row).collect(),
        }
    }

    fn audit(&self) -> Vec<String> {
        let (lo, hi) = (self.cfg.min_unit_ops, self.cfg.max_unit_ops);
        let mut violations = Vec::new();
        for (&id, state) in &self.clients {
            let speed = state.0.value().expect("a completion was recorded");
            if !speed.is_finite() || speed <= 0.0 {
                violations.push(format!(
                    "client {id}: EWMA speed estimate {speed} is not finite and positive"
                ));
            }
            let hint = self.hint(id);
            if !(hint >= lo && hint <= hi) {
                violations.push(format!(
                    "client {id}: granularity hint {hint} outside [{lo}, {hi}]"
                ));
            }
        }
        violations.sort();
        violations
    }
}

/// Random `record_completion` / `forget_client` / snapshot → `restore`
/// sequences:
/// the scheduler's one record per donor must answer every question the
/// way the separate maps did, after every step.
#[test]
fn donor_records_match_the_separate_maps_model() {
    const CLIENTS: u64 = 6;
    for case in 0..CASES as u64 {
        let mut rng = Xoshiro256StarStar::new(0xD0_0000 + case);
        let cfg = SchedulerConfig {
            target_unit_secs: 1.0,
            lease_min_secs: 0.5,
            enable_adaptive: case % 5 != 4,
            ..Default::default()
        };
        let mut sched = Scheduler::new(cfg.clone());
        let mut model = SeparateMaps {
            cfg: cfg.clone(),
            clients: HashMap::new(),
        };
        // Snapshots taken earlier in the run, to restore later.
        let mut saved = vec![model.snapshot()];
        // Speeds compared bit for bit: a poisoned cost leaves a NaN.
        let bits = |s: &DonorSnapshot| -> Vec<_> {
            let rows = s.donors.iter().map(|r| {
                let adaptive = r.adaptive.map(|(speed, units)| (speed.to_bits(), units));
                (r.client, adaptive)
            });
            rows.collect()
        };
        for step in 0..300 {
            let at = format!("case {case} step {step}");
            let client = rng.next_below(CLIENTS) as usize;
            match rng.next_below(11) {
                0..=7 => {
                    // Mostly on pace, sometimes ten times slower, and
                    // once in a while a poisoned cost.
                    let cost = match rng.next_below(60) {
                        0 => f64::NAN,
                        _ => rng.next_f64_range(1e6, 4e7),
                    };
                    let slow = if rng.next_bool(0.25) { 10.0 } else { 1.0 };
                    let elapsed = cost / 1e7 * slow * rng.next_f64_range(0.8, 1.25);
                    let queue_factor = if rng.next_bool(0.2) { 4.0 } else { 1.0 };
                    sched.record_completions(client, [(cost, elapsed, queue_factor)]);
                    model.record_completion(client, cost, elapsed, queue_factor);
                }
                8 => {
                    sched.forget_client(client);
                    model.forget(client);
                }
                9 => saved.push(model.snapshot()),
                _ => {
                    // An earlier whole snapshot goes back in.
                    let snap = &saved[rng.next_below(saved.len() as u64) as usize];
                    sched.restore(snap);
                    model.clients.clear();
                    for row in &snap.donors {
                        let sound = |&(speed, _): &(f64, u64)| speed.is_finite() && speed > 0.0;
                        if let Some((speed, units)) = row.adaptive.filter(sound) {
                            let mut ewma = Ewma::new(0.3);
                            ewma.update(speed);
                            model.clients.insert(row.client, (ewma, units, 0.0, 1.0));
                        }
                    }
                }
            }
            for c in 0..CLIENTS as usize {
                let donor = sched.donor(c);
                let state = model.clients.get(&c);
                let speed = model.speed(c);
                assert_eq!(
                    donor.speed.to_bits(),
                    speed.to_bits(),
                    "speed of {c} ({at})"
                );
                assert_eq!(donor.hint.to_bits(), model.hint(c).to_bits(), "hint ({at})");
                let completed = state.map_or((0, 0.0), |s| (s.1, s.2));
                assert_eq!(donor.completed.0, completed.0, "units of {c} ({at})");
                assert_eq!(donor.completed.1.to_bits(), completed.1.to_bits(), "{at}");
                // The lease prices the queue factor, which nothing else shows.
                let queue_factor = state.map_or(1.0, |s| s.3);
                let lease = (2e7 / speed * queue_factor * 4.0).max(cfg.lease_min_secs);
                let deadline = sched.lease_deadline_backed_off(&donor, 2e7, 10.0, 0);
                assert_eq!(
                    deadline.to_bits(),
                    (10.0 + lease.min(86_400.0)).to_bits(),
                    "{at}"
                );
            }
            let snapshot = bits(&sched.snapshot());
            assert_eq!(snapshot, bits(&model.snapshot()), "snapshot ({at})");
            let known: HashSet<usize> = sched.known_clients().collect();
            let separately: HashSet<usize> = model.clients.keys().copied().collect();
            assert_eq!(known, separately, "known clients ({at})");
            let mut audit = sched.audit();
            audit.sort();
            assert_eq!(audit, model.audit(), "audit ({at})");
        }
    }
}

// ------------------------------------------------- trace event schema

/// Every event in the schema table, written as a line from nothing but
/// its declaration — names, kinds and order — must parse to an event of
/// that name that serializes back to the same bytes: an event cannot be
/// declared without being parseable, or parse to some other event.
#[test]
fn every_declared_event_round_trips() {
    let texts = ["\"plain\"", "\"a \\\"quoted\\\" name\\n\"", "\"\""];
    let mut rng = Xoshiro256StarStar::new(0x5C4E3A);
    let names: HashSet<&str> = EventKind::SCHEMA.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.len(), EventKind::SCHEMA.len(), "names are unique");
    for &(name, fields) in EventKind::SCHEMA {
        for _ in 0..CASES {
            let t = rng.next_below(1 << 20) as f64 / 8.0;
            let mut line = format!("{{\"t\":{t},\"ev\":\"{name}\"");
            for &(field, kind) in fields {
                let value = match kind {
                    "int" => rng.next_below(1 << 40).to_string(),
                    "float" => (rng.next_below(1 << 30) as f64 / 64.0).to_string(),
                    "flag" => rng.next_bool(0.5).to_string(),
                    "text" => texts[rng.next_below(3) as usize].to_string(),
                    "digest" => format!("\"{:016x}\"", rng.next_u64()),
                    other => panic!("{name}.{field}: no such field kind `{other}`"),
                };
                line.push_str(&format!(",\"{field}\":{value}"));
            }
            line.push('}');
            let event = TraceEvent::from_json_line(&line)
                .unwrap_or_else(|e| panic!("declared, not parseable: {line}: {e}"));
            assert_eq!(event.kind.name(), name, "{line}");
            assert_eq!(event.to_json_line(), line);
            // Without its last field the line is no longer that event.
            let cut = line.rfind(',').expect("every event has a field");
            assert!(TraceEvent::from_json_line(&format!("{}}}", &line[..cut])).is_err());
        }
    }
    let undeclared = "{\"t\":1,\"ev\":\"no_such_event\",\"client\":0}";
    assert!(TraceEvent::from_json_line(undeclared).is_err());
}

// ---------------------------------------------------------------------
// Frame reassembly: the wire state machine behind the event-loop server
// ---------------------------------------------------------------------
//
// The nonblocking server feeds sockets' bytes into a `FrameAssembler`
// in whatever chunks the kernel hands over. The properties that make
// that safe: (1) the decoded frame sequence is invariant under *any*
// split of the byte stream — byte-by-byte, random chunks, or one big
// push all agree with the whole-stream decode; (2) a corrupt frame
// yields the same detected error and resyncs to the same next frame at
// every split; (3) no input, however mangled, panics the assembler.

// ---- lease table (core::leases) -------------------------------------

/// The lease table's bookkeeping, done the naive way: vectors, linear
/// scans and a sort where order matters.
#[derive(Default)]
struct LeaseModel {
    flying: Vec<(u64, Vec<Lease>)>,
    queue: Vec<u64>,
    expiries: Vec<(u64, u32)>,
    earliest: Option<f64>,
}

impl LeaseModel {
    /// Drops the leases `gone` selects; orphans go to the queue's back.
    fn release(&mut self, gone: impl Fn(u64, &Lease) -> bool) -> Released {
        let mut moved = Released::default();
        for (unit, leases) in &mut self.flying {
            let dropped = leases.iter().filter(|l| gone(*unit, l));
            moved.leases.extend(dropped.map(|l| (*unit, l.client)));
            leases.retain(|l| !gone(*unit, l));
            if leases.is_empty() {
                moved.orphans.push(*unit);
            }
        }
        moved.leases.sort_unstable();
        moved.orphans.sort_unstable();
        self.flying.retain(|(_, leases)| !leases.is_empty());
        self.queue.extend(&moved.orphans);
        moved
    }

    fn holders(&self, unit: u64) -> Vec<usize> {
        let leases = self.flying.iter().find(|(u, _)| *u == unit);
        leases.map_or(Vec::new(), |(_, l)| l.iter().map(|l| l.client).collect())
    }
}

/// Random `grant` / `take` / `release` / `release_client` / `expire`
/// sequences: the table must orphan the same units in the same
/// order as the model, agree on every count and on the earliest
/// deadline, and pass its own `audit()` after every step.
#[test]
fn lease_table_matches_naive_model() {
    const CLIENTS: u64 = 5;
    let unit = |id: u64| biodist::core::WorkUnit {
        id,
        payload: Payload::new((), 0),
        cost_ops: 1.0,
    };
    for seed in 0..CASES as u64 {
        let mut rng = Xoshiro256StarStar::new(0x1EA5E ^ seed);
        let (mut table, mut model) = (LeaseTable::default(), LeaseModel::default());
        let (mut now, mut next_id) = (0.0, 0u64);
        for step in 0..200 {
            now += rng.next_f64();
            let client = rng.next_below(CLIENTS) as usize;
            // A unit the model knows (flying or queued), when there is one.
            let known: Vec<u64> = model.flying.iter().map(|(u, _)| *u).collect();
            let known = [known, model.queue.clone()].concat();
            let pick =
                (!known.is_empty()).then(|| known[rng.next_below(known.len() as u64) as usize]);
            match (rng.next_below(8), pick) {
                // Grant: the next queued unit, else an extra copy of a
                // flying one, else a fresh unit.
                (0..=2, _) => {
                    let queued = table.next_queued();
                    assert_eq!(queued.as_ref().map(|u| u.id), model.queue.first().copied());
                    let granted = match (queued, pick) {
                        (Some(u), _) => {
                            model.queue.remove(0);
                            u
                        }
                        // (A grant on a flying unit adds a lease to it.)
                        (None, Some(u)) if !model.holders(u).contains(&client) => Arc::new(unit(u)),
                        _ => {
                            next_id += 1;
                            Arc::new(unit(next_id))
                        }
                    };
                    let lease = Lease {
                        client,
                        assigned_at: now,
                        completed_before: (0, 0.0),
                        deadline: now + 4.0 * rng.next_f64(),
                    };
                    table.grant(&granted, lease.clone());
                    model.earliest = Some(
                        model
                            .earliest
                            .map_or(lease.deadline, |e| e.min(lease.deadline)),
                    );
                    match model.flying.iter_mut().find(|(u, _)| *u == granted.id) {
                        Some((_, leases)) => leases.push(lease),
                        None => model.flying.push((granted.id, vec![lease])),
                    }
                }
                // Take (a result arrives).
                (3, Some(u)) => {
                    let InFlight {
                        unit: taken,
                        leases,
                    } = table.take(u).expect("pending");
                    assert_eq!(taken.id, u);
                    let flying = model.flying.iter().position(|(id, _)| *id == u);
                    let expected = match flying {
                        Some(at) => model.flying.remove(at).1,
                        None => {
                            model.queue.retain(|id| *id != u);
                            Vec::new()
                        }
                    };
                    assert_eq!(leases, expected);
                }
                (4, Some(u)) => {
                    let flying = model.flying.iter().any(|(id, _)| *id == u);
                    let moved = model.release(|id, l| id == u && l.client == client);
                    let expected = flying.then_some(moved.orphans == [u]);
                    assert_eq!(table.release(u, client), expected);
                }
                (5, _) => {
                    let moved = model.release(|_, l| l.client == client);
                    assert_eq!(table.release_client(client), moved);
                }
                (6, _) => {
                    let due = model.earliest.is_some_and(|e| now >= e);
                    let moved = due.then(|| model.release(|_, l| l.deadline <= now));
                    if let Some(moved) = &moved {
                        let live = model.flying.iter().flat_map(|(_, l)| l);
                        model.earliest = live.map(|l| l.deadline).reduce(f64::min);
                        for u in &moved.orphans {
                            match model.expiries.iter_mut().find(|(id, _)| id == u) {
                                Some((_, n)) => *n += 1,
                                None => model.expiries.push((*u, 1)),
                            }
                        }
                    }
                    assert_eq!(table.expire(now), moved);
                }
                // A result for a unit the table does not hold.
                _ => assert!(table.take(u64::MAX).is_none()),
            }
            let at = format!("seed {seed} step {step}");
            assert_eq!(table.audit(), Vec::<String>::new(), "{at}");
            assert_eq!(
                (table.in_flight_len(), table.queued_len()),
                (model.flying.len(), model.queue.len()),
                "{at}"
            );
            assert_eq!(
                table.earliest_deadline(),
                model.earliest.unwrap_or(f64::INFINITY),
                "{at}"
            );
            for id in 1..=next_id {
                let n = model
                    .expiries
                    .iter()
                    .find(|(u, _)| *u == id)
                    .map_or(0, |(_, n)| *n);
                assert_eq!(table.expiries(id), n, "{at}");
            }
            let mut counts = std::collections::BTreeMap::new();
            table.count_leases(&mut counts);
            let held: usize = model.flying.iter().map(|(_, l)| l.len()).sum();
            assert_eq!(counts.values().sum::<u32>() as usize, held, "{at}");
        }
    }
}

/// The same seeded schedule of donor turns — results handed in, some of
/// them mangled, units asked for, donors leaving — applied to two
/// servers: to one through [`Server::turn_wire`], to the other as the
/// singles each turn is made of (`submit_result` / `result_corrupted`
/// per result, one `check_timeouts`, `request_work` per unit wanted).
/// Units are of fixed size and no lease runs out, so the two may differ
/// only in what a turn judges as a whole (its scheduler samples; how
/// many redundant copies it is handed, which is off here): they must
/// end with equal stats and outputs, clean audits, and journals that
/// are record for record the same log and recover to the same state.
#[test]
fn a_schedule_applied_as_turns_or_as_singles_ends_in_the_same_state() {
    use biodist::core::builtin::integration_problem;
    use biodist::core::net::checkpoint::read_log;
    use biodist::core::net::CheckpointWriter;
    use biodist::core::{recover, Assignment, Server, Then, WorkUnit};

    const DONORS: usize = 3;
    let cfg = || SchedulerConfig {
        min_unit_ops: 1e4,
        max_unit_ops: 1e4,
        lease_min_secs: 1e6,
        enable_redundant_dispatch: false,
        ..Default::default()
    };
    // 200 ops a grid point, 50 points a unit, 8 or 5 units a problem.
    let problems = || [400, 250].map(integration_problem);
    let log = |side: &str, case: usize| {
        let name = format!("biodist-prop-{side}-{case}-{}.log", std::process::id());
        std::env::temp_dir().join(name)
    };
    type Held = Vec<Vec<(usize, Arc<WorkUnit>)>>;
    // One donor turn on both servers; `false` once either says finished.
    let both = |turns: &mut Server,
                singles: &mut Server,
                held: &mut Held,
                (c, k, mangled, want): (usize, usize, bool, usize),
                now: f64| {
        let algorithm = |s: &Server, pid| s.algorithm(pid);
        let handed: Vec<_> = held[c].drain(..k).collect();
        let mut results = Vec::new();
        let mut accepted = Vec::new();
        for (i, (pid, unit)) in handed.iter().enumerate() {
            let payload = algorithm(turns, *pid).compute(unit).payload;
            let corrupt = mangled && i == 0;
            let bytes = turns.codec(*pid).unwrap().encode_result(&payload).unwrap();
            results.push((*pid, unit.id, (!corrupt).then_some(bytes)));
            accepted.push(if corrupt {
                singles.result_corrupted(c, *pid, unit.id, now);
                false
            } else {
                let result = algorithm(singles, *pid).compute(unit);
                singles.submit_result(c, *pid, result, now)
            });
        }
        let results = results
            .iter()
            .map(|(pid, unit, bytes)| (*pid, *unit, bytes.as_deref()));
        let out = turns.turn_wire(c, now, results, want);
        assert_eq!(out.accepted, accepted, "the same ruling on every result");
        let mut leased = Vec::new();
        let mut then = Then::More;
        if want > 0 && !singles.all_complete() {
            singles.check_timeouts(now);
        }
        while then == Then::More && leased.len() < want {
            match singles.request_work(c, now) {
                Assignment::Unit { problem, unit, .. } => leased.push((problem, unit.id)),
                Assignment::Wait => then = Then::Wait,
                Assignment::Finished => then = Then::Finished,
            }
        }
        if singles.all_complete() {
            then = Then::Finished;
        }
        let ids = |units: &[(usize, Arc<WorkUnit>)]| -> Vec<(usize, u64)> {
            units.iter().map(|(p, u)| (*p, u.id)).collect()
        };
        assert_eq!((ids(&out.units), out.then), (leased, then));
        held[c].extend(out.units);
        then != Then::Finished
    };

    let mut rng = Xoshiro256StarStar::new(0x7012);
    for case in 0..CASES {
        let paths = [log("turns", case), log("singles", case)];
        let mut servers = paths.iter().map(|path| {
            let mut server = Server::new(cfg());
            for p in problems() {
                server.submit(p);
            }
            server.set_journal(Box::new(CheckpointWriter::create(path).unwrap()));
            server
        });
        let (mut turns, mut singles) = (servers.next().unwrap(), servers.next().unwrap());
        let mut held: Held = vec![Vec::new(); DONORS];
        let mut now = 0.0;
        // The seeded part: turns of up to eight results and requests,
        // a mangled result in one of eight, a departure in one of 24.
        for _ in 0..rng.next_range(4, 40) {
            now += 0.25;
            let c = rng.next_below(DONORS as u64) as usize;
            if rng.next_below(24) == 0 {
                turns.client_gone(c);
                singles.client_gone(c);
                held[c].clear();
                continue;
            }
            let k = rng.next_below(held[c].len().min(8) as u64 + 1) as usize;
            let turn = (c, k, rng.next_below(8) == 0, rng.next_below(9) as usize);
            if !both(&mut turns, &mut singles, &mut held, turn, now) {
                break;
            }
        }
        // Then every donor in turn hands in what it holds and asks for
        // more, until the servers say finished.
        let mut c = 0;
        loop {
            let all = (c, held[c].len(), false, 4);
            if !both(&mut turns, &mut singles, &mut held, all, now) {
                break;
            }
            c = (c + 1) % DONORS;
            now += 0.25;
        }
        assert!(turns.all_complete() && singles.all_complete());
        for pid in 0..2 {
            assert_eq!(turns.stats(pid), singles.stats(pid), "case {case}");
            let outputs = [&mut turns, &mut singles].map(|s| {
                let pi = s.take_output(pid).expect("complete").into_inner::<f64>();
                pi.to_bits()
            });
            assert_eq!(outputs[0], outputs[1], "case {case}");
        }
        assert_eq!((turns.audit(), singles.audit()), (Vec::new(), Vec::new()));
        turns.commit_journal();
        singles.commit_journal();
        let logs = paths.each_ref().map(|p| read_log(p).unwrap());
        assert_eq!(logs[0], logs[1], "case {case}: the same journal");
        let recovered = paths.each_ref().map(|path| {
            let (server, report) = recover(cfg(), problems().into(), path).unwrap();
            let stats = [0, 1].map(|pid| server.stats(pid));
            (report, stats, server.all_complete())
        });
        assert_eq!(recovered[0], recovered[1], "case {case}");
        assert!(recovered[0].2, "a finished run recovers finished");
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---- codecs round-trip byte for byte ---------------------------------

/// What the origin rests on when it journals the bytes a
/// result arrived as instead of encoding the payload it just decoded
/// from them, and what keeps the log the same as an in-process run's:
/// for every unit a data manager issues and every result its algorithm
/// computes, `encode(decode(b)) == b` — for the integration, DSEARCH
/// and DPRml codecs, over seeded inputs and granularity hints, every
/// stage of a staged problem included.
#[test]
fn codecs_reencode_what_they_decoded_to_the_same_bytes() {
    use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
    use biodist::core::builtin::integration_problem;
    use biodist::core::{Problem, WorkUnit};
    use biodist::dprml::{build_problem as dprml_problem, DprmlConfig};
    use biodist::dsearch::{build_problem as dsearch_problem, DsearchConfig};
    use biodist::phylo::evolve::simulate_alignment;
    use biodist::phylo::patterns::PatternAlignment;

    // Drives `problem` to completion in-process, one result at a time;
    // returns how many units and results went through the codec.
    let drive = |mut problem: Problem, rng: &mut Xoshiro256StarStar| -> usize {
        let codec = problem.codec.clone().expect("registers a codec");
        let dm = &mut problem.data_manager;
        let mut held: std::collections::VecDeque<WorkUnit> = Default::default();
        let mut checked = 0;
        while !dm.is_complete() {
            let hint = 10f64.powf(3.0 + 6.0 * rng.next_f64());
            if let Some(unit) = dm.next_unit(hint).filter(|_| held.len() < 5) {
                let bytes = codec.encode_unit(&unit.payload).expect("unit encodes");
                let decoded = codec.decode_unit(&bytes).expect("unit decodes");
                assert_eq!(
                    codec.encode_unit(&decoded).unwrap(),
                    bytes,
                    "{}",
                    problem.name
                );
                held.push_back(unit);
                checked += 1;
                continue;
            }
            let unit = held.pop_front().expect("a barrier implies units out");
            let result = problem.algorithm.compute(&unit);
            let bytes = codec
                .encode_result(&result.payload)
                .expect("result encodes");
            let decoded = codec.decode_result(&bytes).expect("result decodes");
            assert_eq!(
                codec.encode_result(&decoded).unwrap(),
                bytes,
                "{}",
                problem.name
            );
            dm.accept_result(result);
            checked += 1;
        }
        checked
    };

    let mut rng = Xoshiro256StarStar::new(0xC0DEC);
    for case in 0..4u64 {
        assert!(drive(integration_problem(5_000 + 977 * case), &mut rng) >= 2);

        let query = random_sequence(Alphabet::Protein, "q0", 60, 100 + case);
        let db = SyntheticDb::generate(&DbSpec::protein_demo(24, 70), 200 + case);
        let mut cfg = DsearchConfig::protein_default();
        cfg.top_hits = 1 + case as usize * 3;
        assert!(drive(dsearch_problem(db.sequences, vec![query], &cfg), &mut rng) >= 2);

        let config = DprmlConfig::default();
        let truth = random_yule_tree(5, 0.12, 300 + case);
        let seqs = simulate_alignment(&truth, &config.build_model(), 80, None, 400 + case);
        let data = Arc::new(PatternAlignment::from_sequences(&seqs));
        // (Insert, refine and NNI stages: more than one unit each.)
        assert!(drive(dprml_problem(data, &config, None, "dprml"), &mut rng) > 6);
    }
}

mod frame_reassembly {
    use super::{Rng, Xoshiro256StarStar, CASES};
    use biodist::core::net::wire::{encode_frame, DecodeError, Frame, FrameAssembler, Then};

    fn pat(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i.wrapping_mul(31).wrapping_add(7) & 0xFF) as u8)
            .collect()
    }

    /// One of every frame type, with payload sizes from empty to tens
    /// of KB so splits land inside headers, bodies and trailing CRCs.
    fn corpus() -> Vec<Frame> {
        vec![
            Frame::Hello { client: 3 },
            Frame::RequestWork { client: 3 },
            Frame::AssignUnit {
                problem: 1,
                unit: 42,
                cost_ops: 1.5e6,
                payload: pat(257),
            },
            Frame::Wait,
            Frame::SubmitResult {
                client: 3,
                problem: 1,
                unit: 42,
                payload: pat(4096),
            },
            Frame::ResultAck {
                problem: 1,
                unit: 42,
                accepted: true,
            },
            Frame::Heartbeat { client: 9 },
            Frame::HeartbeatAck,
            Frame::ChunkRequest {
                client: 3,
                problem: 0,
                chunk: 7,
            },
            Frame::ChunkData {
                problem: 0,
                chunk: 7,
                digest: 0xDEAD_BEEF,
                payload: pat(20_000),
            },
            Frame::ChunkMissing {
                problem: 0,
                chunk: 8,
            },
            Frame::MetricsReport {
                client: 3,
                snapshot: pat(33),
            },
            Frame::StatusRequest,
            Frame::StatusReport { snapshot: pat(128) },
            Frame::ReplicaAnnounce {
                endpoints: vec!["127.0.0.1:9000".parse().unwrap()],
            },
            Frame::Goodbye { client: 3 },
            Frame::Finished,
            Frame::Turn {
                client: 3,
                seq: 12,
                want: 64,
                results: vec![(1, 42, pat(40)), (0, 43, pat(0)), (1, 44, pat(3000))],
            },
            Frame::TurnReply {
                seq: 12,
                acks: vec![(1, 42, true), (0, 43, false), (1, 44, true)],
                units: vec![(1, 45, 1.5e6, pat(257)), (0, 46, 2.0, pat(0))],
                then: Then::More,
            },
        ]
    }

    fn stream_of(frames: &[Frame]) -> Vec<u8> {
        frames.iter().flat_map(encode_frame).collect()
    }

    /// Drains every decodable frame, tagging outcomes. `false` means a
    /// fatal (non-resyncable) decode error was hit — a real server
    /// drops the connection there, so callers stop feeding bytes.
    fn drain(asm: &mut FrameAssembler, tags: &mut Vec<String>) -> bool {
        loop {
            match asm.next_frame() {
                Ok(Some(f)) => tags.push(format!("{f:?}")),
                Ok(None) => return true,
                Err(DecodeError::BodyCrc { frame_type, .. }) => {
                    tags.push(format!("crc:{frame_type}"))
                }
                Err(e) => {
                    tags.push(format!("fatal:{e:?}"));
                    return false;
                }
            }
        }
    }

    /// Decodes `bytes` delivered in chunks of the given sizes (the last
    /// chunk takes any remainder), returning the outcome tags.
    fn decode_chunked(bytes: &[u8], sizes: impl Iterator<Item = usize>) -> Vec<String> {
        let mut asm = FrameAssembler::new();
        let mut tags = Vec::new();
        let mut pos = 0;
        for size in sizes {
            if pos >= bytes.len() {
                break;
            }
            let end = (pos + size.max(1)).min(bytes.len());
            asm.push(&bytes[pos..end]);
            pos = end;
            if !drain(&mut asm, &mut tags) {
                return tags;
            }
        }
        if pos < bytes.len() {
            asm.push(&bytes[pos..]);
            drain(&mut asm, &mut tags);
        }
        tags
    }

    #[test]
    fn reassembly_is_invariant_under_any_split() {
        let frames = corpus();
        let bytes = stream_of(&frames);
        let whole = decode_chunked(&bytes, std::iter::once(bytes.len()));
        assert_eq!(whole.len(), frames.len(), "whole-stream decode is lossless");
        for (tag, frame) in whole.iter().zip(&frames) {
            assert_eq!(tag, &format!("{frame:?}"));
        }

        let byte_by_byte = decode_chunked(&bytes, std::iter::repeat(1));
        assert_eq!(byte_by_byte, whole, "byte-by-byte must match whole-stream");

        for case in 0..CASES as u64 {
            let mut rng = Xoshiro256StarStar::new(0xF4A6_0000 + case);
            let sizes: Vec<usize> = (0..bytes.len())
                .map(|_| 1 + (rng.next_u64() % 97) as usize)
                .collect();
            let got = decode_chunked(&bytes, sizes.into_iter());
            assert_eq!(got, whole, "random split case {case} diverged");
        }
    }

    #[test]
    fn corrupt_body_resyncs_identically_at_any_split() {
        let frames = corpus();
        for case in 0..CASES as u64 {
            let mut rng = Xoshiro256StarStar::new(0xC0DE_0000 + case);
            // Corrupt one byte of one frame's body region (past the
            // 14-byte header + 4-byte header CRC), then splice the
            // stream back together.
            let victim = (rng.next_u64() as usize) % frames.len();
            let mut encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
            let v = &mut encoded[victim];
            let body_start = 18.min(v.len() - 1);
            let idx = body_start + (rng.next_u64() as usize) % (v.len() - body_start);
            v[idx] ^= 0x01 << (rng.next_u64() % 8);
            let bytes: Vec<u8> = encoded.concat();

            let whole = decode_chunked(&bytes, std::iter::once(bytes.len()));
            let byte_by_byte = decode_chunked(&bytes, std::iter::repeat(1));
            assert_eq!(byte_by_byte, whole, "case {case}: split changed the story");
            let sizes: Vec<usize> = (0..bytes.len())
                .map(|_| 1 + (rng.next_u64() % 61) as usize)
                .collect();
            let random = decode_chunked(&bytes, sizes.into_iter());
            assert_eq!(random, whole, "case {case}: random split diverged");

            // Whatever the corruption hit, every *other* frame must
            // survive: at most one frame of the corpus may be lost
            // (flagged as a CRC failure or a fatal error), never two.
            let intact = whole
                .iter()
                .filter(|t| !t.starts_with("crc:") && !t.starts_with("fatal:"))
                .count();
            assert!(
                intact >= frames.len() - 1,
                "case {case}: corruption of one frame lost {} frames",
                frames.len() - intact
            );
        }
    }

    #[test]
    fn garbage_streams_never_panic_or_desync_the_feed() {
        for case in 0..CASES as u64 {
            let mut rng = Xoshiro256StarStar::new(0x6A4B_0000 + case);
            let n = 512 + (rng.next_u64() % 4096) as usize;
            let garbage: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            let sizes: Vec<usize> = (0..n).map(|_| 1 + (rng.next_u64() % 33) as usize).collect();
            // Must terminate without panicking; tags are unconstrained
            // (garbage may accidentally resemble a header prefix).
            let _ = decode_chunked(&garbage, sizes.into_iter());
        }
    }

    #[test]
    fn interleaved_garbage_between_frames_recovers_real_frames() {
        // After a fatal decode error a real connection dies, so the
        // recovery property is scoped to *body* corruption — but a
        // valid frame arriving after a resynced BodyCrc error must
        // decode cleanly at every split.
        let good = Frame::Heartbeat { client: 1 };
        let mut bytes = encode_frame(&Frame::AssignUnit {
            problem: 0,
            unit: 1,
            cost_ops: 1.0,
            payload: pat(512),
        });
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF; // body corruption, header CRC intact
        bytes.extend(encode_frame(&good));
        for chunk in [1usize, 3, 7, n] {
            let tags = decode_chunked(&bytes, std::iter::repeat(chunk));
            assert_eq!(
                tags.last().map(String::as_str),
                Some(format!("{good:?}").as_str()),
                "chunk size {chunk}: the post-corruption frame was lost"
            );
            assert!(tags.iter().any(|t| t.starts_with("crc:")));
        }
    }
}
