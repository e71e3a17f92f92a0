//! DSEARCH as a framework [`Problem`].
//!
//! The `DataManager` walks the database once, packing sequences into
//! chunks whose estimated DP-cell cost matches the scheduler's dynamic
//! granularity hint (paper §3.1: chunk sizes track donor speed). The
//! `Algorithm` scores its chunk against every query and returns a
//! per-chunk top-K list; the manager merges chunk lists into the global
//! answer. Because [`biodist_align::TopK`] has a deterministic total
//! order and order-independent merge, the distributed output equals
//! [`crate::reference::search_sequential`] exactly.

use crate::config::DsearchConfig;
use biodist_align::{AlignKernel, Hit, PreparedQuery, TopK};
use biodist_bioseq::{Alphabet, Sequence};
use biodist_core::telemetry::{OPS_BOUNDS, SIZE_BOUNDS};
use biodist_core::{
    chunk_digest, Algorithm, ByteReader, ByteWriter, ChunkNeed, DataManager, Payload, Problem,
    TaskResult, Telemetry, UnitId, WireCodec, WireError, WorkUnit,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Final output of a distributed search: per-query hit lists,
/// best-first.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutput {
    /// `query id → hits`, each list sorted best-first.
    pub hits: BTreeMap<String, Vec<Hit>>,
}

impl SearchOutput {
    /// Order-sensitive FNV-1a digest of every query id, hit id and
    /// score. Two outputs digest equal iff they are bit-identical, so
    /// the chaos suite can compare a fault-injected run against the
    /// sequential reference with one `u64`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (query, hits) in &self.hits {
            eat(query.as_bytes());
            eat(&[0xff]);
            for hit in hits {
                eat(hit.query_id.as_bytes());
                eat(&[0xfe]);
                eat(hit.db_id.as_bytes());
                eat(&[0xfd]);
                eat(&hit.score.to_le_bytes());
            }
        }
        h
    }
}

/// The unit payload: a range of database indices plus the chunk
/// references a remote donor needs to compute it. In-process backends
/// leave `data` as `None` and the algorithm scans its local database
/// slice; over TCP the client hydrates `data` from its chunk cache
/// (fetching misses), so only absent residues ever cross the wire.
#[derive(Debug, Clone)]
struct DsearchUnit {
    start: usize,
    end: usize,
    needs: Vec<ChunkNeed>,
    data: Option<Vec<Sequence>>,
}

/// One database sequence as wire bytes (the `ChunkData` payload): id,
/// alphabet tag, length-prefixed residue codes.
fn write_db_chunk(seq: &Sequence, w: &mut ByteWriter) {
    w.str(&seq.id);
    w.u8(match seq.alphabet {
        Alphabet::Dna => 0,
        Alphabet::Protein => 1,
    });
    w.bytes(seq.codes());
}

/// The inverse of [`write_db_chunk`]: the id and the residues are each
/// allocated once and the codes validated once, so a hostile chunk is a
/// `WireError`, never a panic.
fn decode_db_chunk(bytes: &[u8]) -> Result<Sequence, WireError> {
    let mut r = ByteReader::new(bytes);
    let id = r.str()?;
    let alphabet = match r.u8()? {
        0 => Alphabet::Dna,
        1 => Alphabet::Protein,
        t => return Err(WireError::new(format!("unknown alphabet tag {t}"))),
    };
    let codes = r.bytes()?;
    r.finish()?;
    Sequence::try_from_codes(id, alphabet, codes.to_vec())
        .ok_or_else(|| WireError::new("residue code out of range for alphabet"))
}

/// Precomputed per-sequence chunk metadata: `chunk_meta[i]` describes
/// database sequence `i` as shipped by [`WireCodec::encode_chunk`].
fn chunk_table(db: &[Sequence]) -> Vec<ChunkNeed> {
    let mut w = ByteWriter::new();
    db.iter()
        .enumerate()
        .map(|(i, seq)| {
            w.buf().clear();
            write_db_chunk(seq, &mut w);
            let bytes = w.buf();
            ChunkNeed {
                chunk: i as u64,
                digest: chunk_digest(bytes),
                bytes: bytes.len() as u64,
            }
        })
        .collect()
}

struct DsearchDm {
    db: Arc<Vec<Sequence>>,
    queries: Arc<Vec<Sequence>>,
    kernel: AlignKernel,
    chunk_meta: Arc<Vec<ChunkNeed>>,
    top_hits: usize,
    cost_scale: f64,
    cursor: usize,
    /// Units issued but not yet folded back. Replaces the old separate
    /// `issued`/`received` pair — completeness only ever needed the
    /// difference, and the totals now live in the telemetry registry
    /// (`dsearch.units_issued` / `dsearch.units_received`).
    outstanding: u64,
    next_id: UnitId,
    merged: BTreeMap<String, TopK>,
    telemetry: Telemetry,
}

impl DsearchDm {
    fn chunk_cost(&self, range: std::ops::Range<usize>) -> f64 {
        self.db[range]
            .iter()
            .map(|s| {
                self.queries
                    .iter()
                    .map(|q| self.kernel.cost_cells(q, s))
                    .sum::<u64>() as f64
            })
            .sum::<f64>()
            * self.cost_scale
    }
}

impl DataManager for DsearchDm {
    fn next_unit(&mut self, hint_ops: f64) -> Option<WorkUnit> {
        if self.cursor >= self.db.len() {
            return None;
        }
        // Pack sequences until the chunk's cost reaches the hint.
        let start = self.cursor;
        let mut cost = 0.0;
        while self.cursor < self.db.len() && cost < hint_ops {
            let s = &self.db[self.cursor];
            cost += self
                .queries
                .iter()
                .map(|q| self.kernel.cost_cells(q, s))
                .sum::<u64>() as f64
                * self.cost_scale;
            self.cursor += 1;
        }
        let end = self.cursor;
        self.outstanding += 1;
        let id = self.next_id;
        self.next_id += 1;
        let needs = self.chunk_meta[start..end].to_vec();
        // The unit itself is now just references: range + chunk list.
        // Residues cross the wire separately, and only on cache miss
        // (the backends charge those bytes per missing ChunkNeed).
        let wire = 16 + needs.len() as u64 * 24;
        let cost_ops = self.chunk_cost(start..end);
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("dsearch.units_issued", 1);
            self.telemetry
                .observe("dsearch.chunk_seqs", SIZE_BOUNDS, (end - start) as f64);
            self.telemetry
                .observe("dsearch.chunk_ops", OPS_BOUNDS, cost_ops);
        }
        Some(WorkUnit {
            id,
            payload: Payload::new(
                DsearchUnit {
                    start,
                    end,
                    needs,
                    data: None,
                },
                wire,
            ),
            cost_ops,
        })
    }

    fn accept_result(&mut self, result: TaskResult) {
        let hits = result.payload.into_inner::<Vec<Hit>>();
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("dsearch.units_received", 1);
            self.telemetry
                .counter_add("dsearch.hits_offered", hits.len() as u64);
        }
        for hit in hits {
            match self.merged.get_mut(&hit.query_id) {
                Some(top) => top.offer(hit),
                None => {
                    let mut top = TopK::new(self.top_hits);
                    let query = hit.query_id.clone();
                    top.offer(hit);
                    self.merged.insert(query, top);
                }
            }
        }
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    fn is_complete(&self) -> bool {
        self.cursor >= self.db.len() && self.outstanding == 0
    }

    fn final_output(&mut self) -> Payload {
        let mut hits: BTreeMap<String, Vec<Hit>> = std::mem::take(&mut self.merged)
            .into_iter()
            .map(|(q, topk)| (q, topk.into_sorted()))
            .collect();
        // Queries with no hit offered anywhere still get an entry.
        for q in self.queries.iter() {
            hits.entry(q.id.clone()).or_default();
        }
        let wire = hits.values().map(|v| v.len() as u64 * 48).sum();
        if self.telemetry.is_enabled() {
            let kept: usize = hits.values().map(Vec::len).sum();
            self.telemetry.gauge_set("dsearch.hits_kept", kept as f64);
        }
        Payload::new(SearchOutput { hits }, wire)
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry, _problem: biodist_core::ProblemId) {
        self.telemetry = telemetry;
    }
}

struct DsearchAlgo {
    db: Arc<Vec<Sequence>>,
    queries: Arc<Vec<Sequence>>,
    kernel: AlignKernel,
    /// Per-query reusable kernel state (the striped query profile),
    /// built once when the problem is constructed and shared by every
    /// work unit — the chunked batch path the striped kernel is
    /// designed for: one profile, thousands of subjects.
    prepared: Vec<PreparedQuery>,
    /// `slots[i]`: query `i`'s rank among the distinct query ids, so a
    /// unit keeps its top-K lists by index and emits them in query-id
    /// order (a repeated id shares one list, as in the reference).
    slots: Vec<usize>,
    top_hits: usize,
}

impl Algorithm for DsearchAlgo {
    fn compute(&self, unit: &WorkUnit) -> TaskResult {
        let u = unit
            .payload
            .downcast_ref::<DsearchUnit>()
            .expect("dsearch unit");
        // Hydrated units (TCP) carry their residues; in-process units
        // reference the locally shared database slice. Both paths score
        // identical sequences, so results are bit-identical.
        let subjects: &[Sequence] = match &u.data {
            Some(data) => data,
            None => &self.db[u.start..u.end],
        };
        let lists = self.slots.iter().max().map_or(0, |&s| s + 1);
        let mut per_query: Vec<TopK> = (0..lists).map(|_| TopK::new(self.top_hits)).collect();
        for subject in subjects {
            let queries = self.queries.iter().zip(&self.prepared).zip(&self.slots);
            for ((query, prep), &slot) in queries {
                let score = self.kernel.score_prepared(query, prep, subject);
                let top = &mut per_query[slot];
                if top.cutoff().is_some_and(|worst| score < worst) {
                    continue; // the list would turn it away: name no hit
                }
                top.offer(Hit {
                    query_id: query.id.clone(),
                    db_id: subject.id.clone(),
                    score,
                });
            }
        }
        let hits: Vec<Hit> = per_query.into_iter().flat_map(TopK::into_sorted).collect();
        let wire = hits.len() as u64 * 48;
        TaskResult {
            unit_id: unit.id,
            payload: Payload::new(hits, wire),
        }
    }
}

/// Wire codec for DSEARCH. A unit is its database index range plus the
/// chunk references it depends on (paper-style donor-side caching made
/// real: residues ship as separate `ChunkData` frames, once per donor,
/// cache-keyed by content digest); a result is the chunk's flat hit
/// list.
struct DsearchCodec {
    db: Arc<Vec<Sequence>>,
    /// The data manager's [`chunk_table`]: a served chunk's digest is
    /// the one hashed when the table was built.
    chunk_meta: Arc<Vec<ChunkNeed>>,
}

impl WireCodec for DsearchCodec {
    fn write_unit(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        let u = payload
            .downcast_ref::<DsearchUnit>()
            .ok_or_else(|| WireError::new("dsearch unit payload is not a DsearchUnit"))?;
        w.usize(u.start);
        w.usize(u.end);
        w.u32(u.needs.len() as u32);
        for need in &u.needs {
            w.u64(need.chunk);
            w.u64(need.digest);
            w.u64(need.bytes);
        }
        Ok(())
    }

    fn decode_unit(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        let mut r = ByteReader::new(bytes);
        let (start, end) = (r.usize()?, r.usize()?);
        if start > end {
            return Err(WireError::new(format!(
                "inverted chunk range {start}..{end}"
            )));
        }
        let n = r.count(24)?;
        let mut needs = Vec::with_capacity(n);
        for _ in 0..n {
            needs.push(ChunkNeed {
                chunk: r.u64()?,
                digest: r.u64()?,
                bytes: r.u64()?,
            });
        }
        r.finish()?;
        Ok(Payload::new(
            DsearchUnit {
                start,
                end,
                needs,
                data: None,
            },
            bytes.len() as u64,
        ))
    }

    fn write_result(&self, payload: &Payload, w: &mut ByteWriter) -> Result<(), WireError> {
        let hits = payload
            .downcast_ref::<Vec<Hit>>()
            .ok_or_else(|| WireError::new("dsearch result payload is not a hit list"))?;
        w.u32(hits.len() as u32);
        for hit in hits {
            w.str(&hit.query_id);
            w.str(&hit.db_id);
            w.i32(hit.score);
        }
        Ok(())
    }

    fn decode_result(&self, bytes: &[u8]) -> Result<Payload, WireError> {
        let mut r = ByteReader::new(bytes);
        // Each hit is ≥ two length prefixes + a score = 12 bytes.
        let n = r.count(12)?;
        let mut hits = Vec::with_capacity(n);
        for _ in 0..n {
            hits.push(Hit {
                query_id: r.str()?,
                db_id: r.str()?,
                score: r.i32()?,
            });
        }
        r.finish()?;
        Ok(Payload::new(hits, bytes.len() as u64))
    }

    fn unit_chunks(&self, payload: &Payload) -> Vec<ChunkNeed> {
        payload
            .downcast_ref::<DsearchUnit>()
            .map(|u| u.needs.clone())
            .unwrap_or_default()
    }

    fn write_chunk(&self, chunk: u64, w: &mut ByteWriter) -> Result<(), WireError> {
        let seq = usize::try_from(chunk)
            .ok()
            .and_then(|i| self.db.get(i))
            .ok_or_else(|| WireError::new(format!("chunk {chunk} out of database range")))?;
        write_db_chunk(seq, w);
        Ok(())
    }

    fn known_digest(&self, chunk: u64) -> Option<u64> {
        let need = self.chunk_meta.get(usize::try_from(chunk).ok()?)?;
        Some(need.digest)
    }

    fn hydrate_unit(
        &self,
        payload: Payload,
        chunks: &[(u64, Arc<Vec<u8>>)],
    ) -> Result<Payload, WireError> {
        if payload.downcast_ref::<DsearchUnit>().is_none() {
            return Err(WireError::new("dsearch unit payload is not a DsearchUnit"));
        }
        let wire = payload.wire_bytes();
        let mut u = payload.into_inner::<DsearchUnit>();
        if chunks.len() != u.needs.len() {
            return Err(WireError::new(format!(
                "hydration got {} chunks for {} needs",
                chunks.len(),
                u.needs.len()
            )));
        }
        let mut data = Vec::with_capacity(chunks.len());
        for (need, (chunk, bytes)) in u.needs.iter().zip(chunks) {
            if *chunk != need.chunk {
                return Err(WireError::new(format!(
                    "hydration chunk {chunk} out of order (expected {})",
                    need.chunk
                )));
            }
            data.push(decode_db_chunk(bytes)?);
        }
        u.data = Some(data);
        Ok(Payload::new(u, wire))
    }
}

/// Builds the DSEARCH [`Problem`] for a database, query set and
/// configuration.
pub fn build_problem(
    database: Vec<Sequence>,
    queries: Vec<Sequence>,
    config: &DsearchConfig,
) -> Problem {
    assert!(!database.is_empty(), "empty database");
    assert!(!queries.is_empty(), "no queries");
    let db = Arc::new(database);
    let queries = Arc::new(queries);
    let kernel = AlignKernel::new(config.kernel, config.scheme.clone());
    // Clients download the query file and search code up front; the
    // database itself arrives chunk by chunk.
    let setup: u64 = queries.iter().map(|q| q.len() as u64 + 64).sum::<u64>() + 100_000;
    let chunk_meta = Arc::new(chunk_table(&db));
    let dm = DsearchDm {
        db: db.clone(),
        queries: queries.clone(),
        kernel: kernel.clone(),
        chunk_meta: chunk_meta.clone(),
        top_hits: config.top_hits,
        cost_scale: config.cost_scale,
        cursor: 0,
        outstanding: 0,
        next_id: 0,
        merged: BTreeMap::new(),
        telemetry: Telemetry::default(),
    };
    let prepared = queries.iter().map(|q| kernel.prepare(q)).collect();
    let mut ids: Vec<&str> = queries.iter().map(|q| q.id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    let slots = queries
        .iter()
        .map(|q| ids.binary_search(&q.id.as_str()).expect("id listed"))
        .collect();
    let algo = DsearchAlgo {
        db: db.clone(),
        queries,
        kernel,
        prepared,
        slots,
        top_hits: config.top_hits,
    };
    Problem::new("dsearch", Box::new(dm), Arc::new(algo))
        .with_setup_bytes(setup)
        .with_codec(Arc::new(DsearchCodec { db, chunk_meta }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::search_sequential;
    use biodist_bioseq::synth::{random_sequence, DbSpec, FamilySpec, SyntheticDb};
    use biodist_bioseq::Alphabet;
    use biodist_core::{run_tcp, SchedulerConfig, Server, SimRunner};
    use biodist_gridsim::deployments::heterogeneous_lab;

    fn test_inputs() -> (Vec<Sequence>, Vec<Sequence>, DsearchConfig) {
        let query = random_sequence(Alphabet::Protein, "q0", 90, 71);
        let fam = FamilySpec {
            copies: 4,
            substitution_rate: 0.15,
            indel_rate: 0.02,
        };
        let db =
            SyntheticDb::generate_with_family(&DbSpec::protein_demo(60, 100), &query, &fam, 72);
        let mut cfg = DsearchConfig::protein_default();
        cfg.top_hits = 10;
        (db.sequences, vec![query], cfg)
    }

    fn small_unit_sched() -> SchedulerConfig {
        SchedulerConfig {
            target_unit_secs: 0.001,
            prior_ops_per_sec: 1e7,
            min_unit_ops: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn distributed_simulated_equals_sequential() {
        let (db, queries, cfg) = test_inputs();
        let expected = search_sequential(&db, &queries, &cfg);
        let mut server = Server::new(SchedulerConfig {
            target_unit_secs: 5.0,
            ..Default::default()
        });
        let pid = server.submit(build_problem(db, queries, &cfg));
        let machines = heterogeneous_lab(10, 99);
        let (report, mut server) = SimRunner::with_defaults(server, machines).run();
        let out = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>();
        assert_eq!(out.hits, expected);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn striped_kernel_end_to_end_equals_scalar_sw_search() {
        // Selecting `striped` must change throughput only, never output:
        // the distributed striped search reproduces the sequential
        // scalar Smith–Waterman reference bit for bit.
        let (db, queries, mut cfg) = test_inputs();
        let scalar_reference = search_sequential(&db, &queries, &cfg);
        cfg.kernel = biodist_align::KernelKind::parse("striped").unwrap();
        let striped_reference = search_sequential(&db, &queries, &cfg);
        assert_eq!(striped_reference, scalar_reference);

        let mut server = Server::new(small_unit_sched());
        let pid = server.submit(build_problem(db, queries, &cfg));
        let (mut server, _) = run_tcp(server, 4);
        let out = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>();
        assert_eq!(out.hits, scalar_reference);
        assert!(
            server.stats(pid).completed_units > 1,
            "search was actually split"
        );
    }

    #[test]
    fn chunking_respects_granularity_hint() {
        let (db, queries, cfg) = test_inputs();
        let kernel = AlignKernel::new(cfg.kernel, cfg.scheme.clone());
        let chunk_meta = Arc::new(chunk_table(&db));
        let mut dm = DsearchDm {
            db: Arc::new(db),
            queries: Arc::new(queries),
            kernel,
            chunk_meta,
            top_hits: 10,
            cost_scale: 1.0,
            cursor: 0,
            outstanding: 0,
            next_id: 0,
            merged: BTreeMap::new(),
            telemetry: Telemetry::default(),
        };
        let small = dm.next_unit(10_000.0).unwrap();
        let big = dm.next_unit(500_000.0).unwrap();
        assert!(
            big.cost_ops > 3.0 * small.cost_ops,
            "{} vs {}",
            big.cost_ops,
            small.cost_ops
        );
        // Each chunk covers at least one sequence even for tiny hints.
        let tiny = dm.next_unit(1.0).unwrap();
        assert!(tiny.cost_ops > 0.0);
    }

    #[test]
    fn chunks_partition_database_exactly_once() {
        let (db, queries, cfg) = test_inputs();
        let n = db.len();
        let kernel = AlignKernel::new(cfg.kernel, cfg.scheme.clone());
        let chunk_meta = Arc::new(chunk_table(&db));
        let mut dm = DsearchDm {
            db: Arc::new(db),
            queries: Arc::new(queries),
            kernel,
            chunk_meta,
            top_hits: 10,
            cost_scale: 1.0,
            cursor: 0,
            outstanding: 0,
            next_id: 0,
            merged: BTreeMap::new(),
            telemetry: Telemetry::default(),
        };
        let mut covered = vec![false; n];
        while let Some(unit) = dm.next_unit(100_000.0) {
            let u = unit.payload.downcast_ref::<DsearchUnit>().unwrap();
            assert_eq!(
                u.needs.len(),
                u.end - u.start,
                "one chunk reference per sequence"
            );
            for (i, c) in covered.iter_mut().enumerate().take(u.end).skip(u.start) {
                assert!(!*c, "sequence {i} issued twice");
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "whole database must be covered");
    }

    #[test]
    fn wire_codec_round_trips_units_and_results() {
        let (db, _, _) = test_inputs();
        let meta = chunk_table(&db);
        let codec = DsearchCodec {
            db: Arc::new(db.clone()),
            chunk_meta: Arc::new(meta.clone()),
        };
        let unit = Payload::new(
            DsearchUnit {
                start: 3,
                end: 17,
                needs: meta[3..17].to_vec(),
                data: None,
            },
            16,
        );
        let bytes = codec.encode_unit(&unit).unwrap();
        let back = codec.decode_unit(&bytes).unwrap();
        let u = back.downcast_ref::<DsearchUnit>().unwrap();
        assert_eq!((u.start, u.end), (3, 17));
        assert_eq!(u.needs, meta[3..17].to_vec());
        assert!(u.data.is_none(), "decode yields the reference form");
        // An inverted range is rejected, not trusted.
        let mut w = biodist_core::ByteWriter::new();
        w.usize(9);
        w.usize(2);
        w.u32(0);
        assert!(codec.decode_unit(&w.into_bytes()).is_err());

        let hits = vec![
            Hit {
                query_id: "q0".into(),
                db_id: "db-4".into(),
                score: 123,
            },
            Hit {
                query_id: "q0".into(),
                db_id: "db-9".into(),
                score: -7,
            },
        ];
        let payload = Payload::new(hits.clone(), 96);
        let bytes = codec.encode_result(&payload).unwrap();
        let back = codec.decode_result(&bytes).unwrap();
        assert_eq!(back.downcast_ref::<Vec<Hit>>(), Some(&hits));
        assert!(codec.decode_result(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn chunks_serve_verify_and_hydrate_to_identical_sequences() {
        let (db, _, _) = test_inputs();
        let meta = chunk_table(&db);
        let codec = DsearchCodec {
            db: Arc::new(db.clone()),
            chunk_meta: Arc::new(meta.clone()),
        };
        // Every served chunk matches its advertised digest and size.
        for need in &meta {
            let bytes = codec.encode_chunk(need.chunk).unwrap();
            assert_eq!(biodist_core::chunk_digest(&bytes), need.digest);
            assert_eq!(bytes.len() as u64, need.bytes);
            // What the origin serves the chunk under, unhashed.
            assert_eq!(codec.known_digest(need.chunk), Some(need.digest));
        }
        assert!(codec.encode_chunk(db.len() as u64).is_err());
        assert_eq!(codec.known_digest(db.len() as u64), None);

        // Hydrating a decoded unit from served chunks reproduces the
        // exact subject sequences the in-process algorithm would scan.
        let unit = Payload::new(
            DsearchUnit {
                start: 2,
                end: 7,
                needs: meta[2..7].to_vec(),
                data: None,
            },
            16,
        );
        let decoded = codec
            .decode_unit(&codec.encode_unit(&unit).unwrap())
            .unwrap();
        let fetched: Vec<(u64, Arc<Vec<u8>>)> = meta[2..7]
            .iter()
            .map(|n| (n.chunk, Arc::new(codec.encode_chunk(n.chunk).unwrap())))
            .collect();
        let hydrated = codec.hydrate_unit(decoded, &fetched).unwrap();
        let u = hydrated.downcast_ref::<DsearchUnit>().unwrap();
        let data = u.data.as_ref().expect("hydrated data");
        for (got, want) in data.iter().zip(&db[2..7]) {
            assert_eq!(got.id, want.id);
            assert_eq!(got.codes(), want.codes());
        }
        // A short or reordered chunk list is rejected.
        let unit2 = codec.encode_unit(&unit).unwrap();
        let decoded2 = codec.decode_unit(&unit2).unwrap();
        assert!(codec.hydrate_unit(decoded2, &fetched[1..]).is_err());
    }

    #[test]
    fn hostile_chunk_bytes_fail_hydration_with_a_wire_error() {
        let (db, _, _) = test_inputs();
        let meta = chunk_table(&db);
        let codec = DsearchCodec {
            db: Arc::new(db),
            chunk_meta: Arc::new(meta.clone()),
        };
        let unit = Payload::new(
            DsearchUnit {
                start: 0,
                end: 1,
                needs: meta[..1].to_vec(),
                data: None,
            },
            16,
        );
        let unit = codec.encode_unit(&unit).unwrap();
        let chunk = |id: &[u8], tag: u8, codes: &[u8], trailing: &[u8]| {
            let mut w = ByteWriter::new();
            w.bytes(id);
            w.u8(tag);
            w.bytes(codes);
            w.buf().extend_from_slice(trailing);
            Arc::new(w.into_bytes())
        };
        let hydrate = |bytes: Arc<Vec<u8>>| {
            let decoded = codec.decode_unit(&unit).unwrap();
            codec.hydrate_unit(decoded, &[(0, bytes)])
        };
        // The hand-built form is the served one: a well-formed chunk,
        // the ambiguity code included, hydrates.
        assert!(hydrate(chunk(b"s0", 1, &[0, 19, 20], &[])).is_ok());
        for (bytes, says) in [
            (chunk(b"s0", 1, &[0, 21, 3], &[]), "code out of range"),
            (chunk(b"s0", 2, &[0, 1], &[]), "unknown alphabet tag 2"),
            (chunk(&[0xff, 0xfe], 1, &[0, 1], &[]), "invalid UTF-8"),
            (chunk(b"s0", 1, &[0, 1], &[7]), "1 trailing bytes"),
        ] {
            match hydrate(bytes) {
                Err(WireError(msg)) => assert!(msg.contains(says), "{msg:?}: want {says:?}"),
                Ok(_) => panic!("hydrated a chunk with {says:?}"),
            }
        }
    }

    #[test]
    fn distributed_over_tcp_equals_sequential() {
        let (db, queries, cfg) = test_inputs();
        let expected = search_sequential(&db, &queries, &cfg);
        for donors in [4, 6] {
            let mut server = Server::new(small_unit_sched());
            let pid = server.submit(build_problem(db.clone(), queries.clone(), &cfg));
            let (mut server, _) = run_tcp(server, donors);
            let out = server
                .take_output(pid)
                .unwrap()
                .into_inner::<SearchOutput>();
            assert_eq!(out.hits, expected, "{donors} donors");
            assert!(
                server.stats(pid).completed_units > 1,
                "search was actually split"
            );
        }
    }

    #[test]
    fn planted_family_found_by_distributed_search() {
        let query = random_sequence(Alphabet::Protein, "q0", 80, 11);
        let fam = FamilySpec {
            copies: 3,
            substitution_rate: 0.1,
            indel_rate: 0.01,
        };
        let db = SyntheticDb::generate_with_family(&DbSpec::protein_demo(30, 90), &query, &fam, 12);
        let planted = db.planted_ids.clone();
        let cfg = DsearchConfig::protein_default();
        let mut server = Server::new(small_unit_sched());
        let pid = server.submit(build_problem(db.sequences, vec![query], &cfg));
        let (mut server, _) = run_tcp(server, 4);
        let out = server
            .take_output(pid)
            .unwrap()
            .into_inner::<SearchOutput>();
        let top3: Vec<&str> = out.hits["q0"][..3]
            .iter()
            .map(|h| h.db_id.as_str())
            .collect();
        for id in &planted {
            assert!(top3.contains(&id.as_str()), "{id} not in top 3");
        }
    }
}
