//! Source (a) of the per-layer metrics: layer drivers — timed direct
//! calls into one layer's public functions, single thread, on the
//! workload's own inputs. Each returns plain numbers; `trace.rs` names
//! them.

use crate::spans::{span_secs, Rec, NO_UNIT};
use crate::workloads::{Inputs, Spec};
use biodist_align::{AlignKernel, KernelKind};
use biodist_core::net::checkpoint::read_log;
use biodist_core::net::wire::{crc32, decode_frame, encode_frame, Frame, FrameAssembler};
use biodist_core::{recover, CheckpointWriter, ChunkCache, Payload, RunJournal, WorkUnit};
use biodist_gridsim::EventQueue;
use biodist_phylo::{evaluate_insertion, Tree, TreeLikelihood};
use biodist_util::rng::{Rng, SplitMix64};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each kernel-rate driver keeps scoring.
const DRIVER_BUDGET: Duration = Duration::from_millis(150);

pub struct AlignRates {
    pub striped_cells_per_s: f64,
    pub sw_cells_per_s: f64,
    pub prepare_us: f64,
}

/// Real DP cells per second of one kernel over the workload's database
/// (prepared query, as DSEARCH scores), for `DRIVER_BUDGET`.
fn kernel_rate(rec: &Rec, kind: KernelKind, inputs: &Inputs) -> (f64, f64) {
    let Inputs::Dsearch { db, queries, cfg } = inputs else {
        return (0.0, 0.0);
    };
    let kernel = AlignKernel::new(kind, cfg.scheme.clone());
    let query = &queries[0];
    let (prepared, prepare_s) =
        span_secs(rec, "align", "prepare", NO_UNIT, || kernel.prepare(query));
    let name = if kind == KernelKind::Striped {
        "striped_batch"
    } else {
        "sw_batch"
    };
    let (cells, secs) = span_secs(rec, "align", name, NO_UNIT, || {
        let (mut cells, t) = (0u64, Instant::now());
        for subject in db.iter().cycle() {
            black_box(kernel.score_prepared(query, &prepared, black_box(subject)));
            cells += (query.len() * subject.len()) as u64;
            if t.elapsed() >= DRIVER_BUDGET {
                break;
            }
        }
        cells
    });
    (cells as f64 / secs, prepare_s * 1e6)
}

pub fn align_rates(rec: &Rec, inputs: &Inputs) -> AlignRates {
    let (striped_cells_per_s, prepare_us) = kernel_rate(rec, KernelKind::Striped, inputs);
    let (sw_cells_per_s, _) = kernel_rate(rec, KernelKind::SmithWaterman, inputs);
    AlignRates {
        striped_cells_per_s,
        sw_cells_per_s,
        prepare_us,
    }
}

/// `evaluate_insertion` times (µs) for the next taxon of instance 0 on
/// every edge of a half-built tree: the DPRml work unit, mid-run size.
pub fn candidate_eval_us(rec: &Rec, inputs: &Inputs) -> Vec<f64> {
    let Inputs::Dprml { data, cfg, orders } = inputs else {
        return Vec::new();
    };
    let order = &orders[0];
    let model = cfg.build_model();
    let engine = TreeLikelihood::new(&model, data);
    let mut tree = Tree::initial_triple([order[0], order[1], order[2]], cfg.search.initial_blen);
    let half = order.len() / 2;
    for &taxon in &order[3..half] {
        let edge = tree.edges()[taxon % tree.edges().len()];
        tree.insert_leaf(edge, taxon, cfg.search.initial_blen);
    }
    tree.edges()
        .into_iter()
        .map(|edge| {
            let ((), secs) = span_secs(rec, "phylo", "evaluate_insertion", NO_UNIT, || {
                black_box(evaluate_insertion(
                    &tree,
                    order[half],
                    edge,
                    &engine,
                    &cfg.search,
                ));
            });
            secs * 1e6
        })
        .collect()
}

pub struct WireCosts {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub assemble_ns_per_frame: f64,
    pub crc32_mb_per_s: f64,
}

/// Framing costs over `frames`, the mix the probe donor actually
/// exchanged with the server.
pub fn wire_costs(rec: &Rec, frames: &[Frame]) -> WireCosts {
    if frames.is_empty() {
        return WireCosts {
            encode_ns_per_frame: 0.0,
            decode_ns_per_frame: 0.0,
            assemble_ns_per_frame: 0.0,
            crc32_mb_per_s: 0.0,
        };
    }
    // Repeat the sample until each driver has done a few ms of work.
    let reps = (20_000 / frames.len()).max(1);
    let n = (frames.len() * reps) as f64;
    let per_frame = |secs: f64| secs * 1e9 / n;

    let (encoded, encode) = span_secs(rec, "wire", "encode_frames", NO_UNIT, || {
        let mut last: Vec<Vec<u8>> = Vec::new();
        for _ in 0..reps {
            last = frames.iter().map(|f| encode_frame(black_box(f))).collect();
        }
        last
    });

    let ((), decode) = span_secs(rec, "wire", "decode_frames", NO_UNIT, || {
        for _ in 0..reps {
            for bytes in &encoded {
                black_box(decode_frame(black_box(bytes)).expect("own frame decodes"));
            }
        }
    });

    // The event loop reads 16 KiB at a time into the assembler.
    let stream: Vec<u8> = encoded.concat();
    let ((), assemble) = span_secs(rec, "wire", "assemble_frames", NO_UNIT, || {
        for _ in 0..reps {
            let mut asm = FrameAssembler::new();
            for piece in stream.chunks(16 * 1024) {
                asm.push(piece);
                while let Some(frame) = asm.next_frame().expect("own stream reassembles") {
                    black_box(frame);
                }
            }
        }
    });

    let ((), crc) = span_secs(rec, "wire", "crc32", NO_UNIT, || {
        for _ in 0..reps {
            black_box(crc32(black_box(&stream)));
        }
    });
    WireCosts {
        encode_ns_per_frame: per_frame(encode),
        decode_ns_per_frame: per_frame(decode),
        assemble_ns_per_frame: per_frame(assemble),
        crc32_mb_per_s: (stream.len() * reps) as f64 / 1e6 / crc,
    }
}

/// `ChunkCache::insert` and `get_verified` (ns per call) at the
/// workload's chunk sizes, filling the cache with as many chunks as one
/// donor ends a pass holding.
pub fn cache_costs(rec: &Rec, spec: &Spec, inputs: &Inputs) -> (f64, f64) {
    let Inputs::Dsearch { db, .. } = inputs else {
        return (0.0, 0.0);
    };
    let codec = inputs
        .problems()
        .remove(0)
        .codec
        .expect("dsearch has a codec");
    let held = db.len() / spec.donors.max(1);
    let chunks: Vec<(u64, Arc<Vec<u8>>)> = (0..held as u64)
        .map(|c| {
            let bytes = codec.encode_chunk(c).expect("chunk encodes");
            (biodist_core::chunk_digest(&bytes), Arc::new(bytes))
        })
        .collect();
    let mut cache = ChunkCache::new(64 * 1024 * 1024);
    let ((), insert_s) = span_secs(rec, "cache", "insert_all", NO_UNIT, || {
        for (digest, bytes) in &chunks {
            cache.insert(*digest, bytes.clone());
        }
    });
    let probes = chunks.len().min(2_000);
    let ((), get_s) = span_secs(rec, "cache", "get_verified_sample", NO_UNIT, || {
        for (digest, _) in chunks
            .iter()
            .step_by((chunks.len() / probes).max(1))
            .take(probes)
        {
            black_box(cache.get_verified(*digest));
        }
    });
    (
        insert_s * 1e9 / chunks.len() as f64,
        get_s * 1e9 / probes as f64,
    )
}

pub struct CheckpointCosts {
    pub append_us: Vec<f64>,
    pub records_per_unit: f64,
    pub bytes_per_unit: f64,
    pub recover_s: f64,
    pub recover_units_per_s: f64,
}

/// Journal costs: timed `RunJournal` appends on a scratch log, then the
/// record/byte counts of `pass_log` (the log one whole in-process pass
/// wrote) and the time `recover()` takes to replay it.
pub fn checkpoint_costs(
    rec: &Rec,
    spec: &Spec,
    inputs: &Inputs,
    pass_log: &Path,
    scratch_log: &Path,
) -> CheckpointCosts {
    let mut writer =
        CheckpointWriter::create(scratch_log).expect("create scratch journal under out/");
    let unit = WorkUnit {
        id: 0,
        payload: Payload::new((), 0),
        cost_ops: 1e4,
    };
    // A pi-integration result is one f64 on the wire.
    let encoded = [0u8; 8];
    let mut append_us = Vec::with_capacity(4_000);
    for i in 0..2_000u64 {
        let ((), issue_s) = span_secs(rec, "checkpoint", "unit_issued", i, || {
            writer.unit_issued(0, &unit, 1e4)
        });
        let ((), fold_s) = span_secs(rec, "checkpoint", "result_folded", i, || {
            writer.result_folded(0, i, &encoded)
        });
        append_us.extend([issue_s * 1e6, fold_s * 1e6]);
    }
    drop(writer);
    let _ = std::fs::remove_file(scratch_log);

    let (records, _torn) = read_log(pass_log).expect("read the in-process pass's journal");
    let bytes = std::fs::metadata(pass_log).map_or(0, |m| m.len());
    let ((_server, report), recover_s) = span_secs(rec, "checkpoint", "recover", NO_UNIT, || {
        recover(spec.sched(), inputs.problems(), pass_log)
            .expect("replay the in-process pass's journal")
    });
    let units = report.replayed_results.max(1) as f64;
    CheckpointCosts {
        append_us,
        records_per_unit: records.len() as f64 / units,
        bytes_per_unit: bytes as f64 / units,
        recover_s,
        recover_units_per_s: report.replayed_results as f64 / recover_s,
    }
}

/// `EventQueue` pop+schedule pairs per second with `pending` events
/// queued — the simulator's inner loop without the simulator.
pub fn queue_ops_per_s(rec: &Rec, pending: usize) -> f64 {
    const OPS: usize = 1_000_000;
    let mut rng = SplitMix64::new(pending as u64);
    let mut q = EventQueue::new();
    for i in 0..pending {
        q.schedule(rng.next_f64() * 60.0, i);
    }
    let ((), secs) = span_secs(rec, "gridsim", "queue_churn", NO_UNIT, || {
        for _ in 0..OPS {
            let (_, payload) = q.pop().expect("queue stays full");
            q.schedule_in(rng.next_f64() * 60.0, payload);
        }
    });
    black_box(q.len());
    2.0 * OPS as f64 / secs
}

/// Simulator events per second on a third of the machines of the
/// same laboratory, same units per machine (10k for the 30k workload):
/// the near side of the scale collapse — the simulator workload's
/// sequential slice, inside a span.
pub fn sim_events_per_s_small(rec: &Rec, spec: &Spec, inputs: &Inputs) -> f64 {
    span_secs(rec, "sim_backend", "run_small", NO_UNIT, || {
        inputs.sequential(spec, 0)
    })
    .0
}
