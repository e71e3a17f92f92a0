//! The traced run: every per-layer metric, from four sources —
//! (a) layer drivers, (b) the in-process farm loop, (c) the probe
//! donor, (d) one product pass with telemetry on fed to the existing
//! public `phase_breakdowns` — plus the spans file.

use crate::farm::{run_pass, with_deadline, Pass};
use crate::inproc::run_inproc;
use crate::json::Value;
use crate::layers;
use crate::metrics::PER_LAYER;
use crate::probe::run_probe;
use crate::run::{metric_value, Measured, Options};
use crate::spans::{recorder, Recorder};
use crate::stats::{mean, median, percentile};
use crate::workloads::{Inputs, Kind, Reference};
use biodist_core::{phase_breakdowns, Telemetry};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Ring capacity for the traced pass: above any workload's event count
/// (~10 events per unit + 3 per chunk fetch).
const RING_EVENTS: usize = 4 << 20;
/// How long the probe donor drives the live server.
const PROBE_BUDGET: Duration = Duration::from_millis(1500);

pub struct Traced {
    /// Every metric in [`PER_LAYER`], in that order, as the result
    /// object carries it (`{"value", "unit"}`).
    pub metrics: Vec<(String, Value)>,
    /// Self time per layer over every span recorded, seconds.
    pub self_time_s: BTreeMap<&'static str, f64>,
    pub spans_recorded: usize,
    /// First failed check of the traced sources, if any.
    pub failed_check: Option<String>,
    pub traced_pass: Pass,
}

struct Sink(BTreeMap<&'static str, f64>);

impl Sink {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }
}

fn mean_us(rec: &Recorder, layer: &str, name: &str) -> f64 {
    mean(&rec.durations_us(layer, name))
}

#[allow(clippy::too_many_arguments)]
pub fn collect(
    opts: &Options,
    inputs: &Inputs,
    reference: &Reference,
    reference_s: f64,
    measured: &Measured,
    journal: Option<&Path>,
    out_dir: &Path,
    on_timeout: &(dyn Fn() + Sync),
) -> Traced {
    let spec = opts.spec;
    let mut m = Sink(BTreeMap::new());
    let mut failed_check = None;
    let rec = recorder();
    let donors = spec.donors.max(1) as f64;
    let untraced = &measured.passes[..];
    let makespan = median(&measured.values(|p| p.makespan_s));
    let units: Vec<f64> = untraced.iter().map(|p| p.completed_units as f64).collect();

    // (b) the in-process loop, first, so the budget is computed over
    // its spans alone.
    let window = match inputs {
        Inputs::Integration {
            sim: Some((machines, _)),
            ..
        } => *machines,
        _ => spec.donors,
    };
    let inproc_log = journal.map(|p| p.with_extension("inproc.log"));
    let inproc = with_deadline(on_timeout, || {
        run_inproc(spec, inputs, reference, &rec, window, inproc_log.as_deref())
    });
    if let Err(why) = &inproc.check {
        failed_check.get_or_insert(format!("in-process loop: {why}"));
    }
    if inproc.uncovered_share > 0.02 {
        failed_check.get_or_insert(format!(
            "in-process loop does not telescope: {:.2}% of the pass is outside its child spans",
            inproc.uncovered_share * 100.0
        ));
    }
    {
        let r = rec.lock().expect("recorder lock");
        let own = r.self_time_by_layer();
        let layer = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let dm_self = layer("dsearch") + layer("dprml") + layer("builtin");
        m.set("budget.inproc_makespan_s", inproc.makespan_s);
        m.set("budget.server_self_s", layer("server"));
        m.set("budget.dm_self_s", dm_self);
        m.set("budget.codec_self_s", layer("codec"));
        m.set(
            "budget.compute_self_s",
            layer("align") + layer("phylo") + layer("integrate"),
        );
        m.set("budget.uncovered_share", inproc.uncovered_share);
        m.set(
            "server.request_work_us_p50",
            percentile(&r.durations_us("server", "request_work"), 0.5),
        );
        m.set(
            "server.request_work_us_p99",
            percentile(&r.durations_us("server", "request_work"), 0.99),
        );
        m.set(
            "server.submit_result_us_p50",
            percentile(&r.durations_us("server", "submit_result"), 0.5),
        );
        m.set(
            "server.submit_result_us_p99",
            percentile(&r.durations_us("server", "submit_result"), 0.99),
        );
        m.set(
            "server.check_timeouts_us",
            mean_us(&r, "server", "check_timeouts"),
        );
        m.set(
            "server.status_snapshot_us",
            mean_us(&r, "server", "status_snapshot"),
        );
        m.set("codec.encode_unit_us", mean_us(&r, "codec", "encode_unit"));
        m.set("codec.decode_unit_us", mean_us(&r, "codec", "decode_unit"));
        m.set(
            "codec.hydrate_unit_us",
            mean_us(&r, "codec", "hydrate_unit"),
        );
        m.set(
            "codec.encode_result_us",
            mean_us(&r, "codec", "encode_result"),
        );
        m.set(
            "codec.decode_result_us",
            mean_us(&r, "codec", "decode_result"),
        );
        m.set(
            "codec.encode_chunk_us",
            mean_us(&r, "codec", "encode_chunk"),
        );
    }
    m.set(
        "server.inproc_units_per_s",
        inproc.completed_units as f64 / inproc.makespan_s,
    );
    m.set("sched.unit_ops_p50", percentile(&inproc.unit_ops, 0.5));
    m.set("codec.unit_bytes_p50", percentile(&inproc.unit_bytes, 0.5));
    m.set(
        "codec.result_bytes_p50",
        percentile(&inproc.result_bytes, 0.5),
    );
    let dm_total_s = (inproc.dm.next_unit_us.iter().sum::<f64>()
        + inproc.dm.accept_result_us.iter().sum::<f64>())
        / 1e6;
    match spec.kind {
        Kind::Dsearch { .. } => {
            m.set("dsearch.next_unit_us", mean(&inproc.dm.next_unit_us));
            m.set(
                "dsearch.accept_result_us",
                mean(&inproc.dm.accept_result_us),
            );
            m.set("dsearch.units_per_pass", median(&units));
            m.set("dsearch.chunks_per_unit", mean(&inproc.chunks_per_unit));
        }
        Kind::Dprml { .. } => {
            m.set("dprml.next_unit_us", mean(&inproc.dm.next_unit_us));
            m.set("dprml.accept_result_us", mean(&inproc.dm.accept_result_us));
            m.set(
                "dprml.stage_turnover_us_p50",
                percentile(&inproc.dm.turnover_us, 0.5),
            );
            m.set(
                "dprml.stage_turnover_us_p99",
                percentile(&inproc.dm.turnover_us, 0.99),
            );
            m.set("dprml.dm_serial_share", dm_total_s / inproc.makespan_s);
            m.set("dprml.units_per_pass", median(&units));
            m.set("phylo.stepwise_seq_s", reference_s);
            m.set(
                "phylo.insertions_per_s_seq",
                inputs.work().unwrap_or(0.0) / reference_s,
            );
        }
        _ => {}
    }

    // Farm-level numbers from the untraced product passes.
    let sum = |f: fn(&Pass) -> u64| untraced.iter().map(f).sum::<u64>() as f64;
    m.set(
        "sched.assignments_per_unit",
        sum(|p| p.assignments) / sum(|p| p.completed_units).max(1.0),
    );
    m.set(
        "sched.reissued_units",
        sum(|p| p.reissued) / untraced.len() as f64,
    );
    m.set(
        "sched.wasted_results",
        sum(|p| p.wasted) / untraced.len() as f64,
    );
    m.set(
        "farm.units_per_s",
        median(
            &untraced
                .iter()
                .map(|p| p.completed_units as f64 / p.makespan_s)
                .collect::<Vec<_>>(),
        ),
    );
    m.set("farm.makespan_s", makespan);
    m.set(
        "farm.work_per_s",
        median(&measured.values(|p| p.work / p.makespan_s)),
    );
    m.set("farm.cpu_s", median(&measured.values(|p| p.cpu_s)));
    m.set("farm.cpu_overhead", median(&measured.cpu_overhead()));
    m.set("farm.sequential_s", measured.sequential_s());
    if spec.donors > 0 {
        m.set(
            "farm.net_client_share",
            1.0 - inproc.makespan_s / (donors * makespan),
        );
    }

    // (d) one product pass with telemetry on.
    let telemetry = Telemetry::enabled();
    let ring = telemetry.attach_ring(RING_EVENTS);
    let traced_pass = with_deadline(on_timeout, || {
        run_pass(spec, opts.seed, opts.smoke, reference, &telemetry, journal)
    });
    if let Err(why) = &traced_pass.check {
        failed_check.get_or_insert(format!("traced pass: {why}"));
    }
    let events = ring.events();
    m.set(
        "telemetry.overhead_ratio",
        traced_pass.makespan_s / makespan,
    );
    m.set(
        "telemetry.events_per_unit",
        events.len() as f64 / traced_pass.completed_units.max(1) as f64,
    );
    if spec.donors > 0 {
        let (phases, incomplete) = phase_breakdowns(&events);
        let total: f64 = phases.iter().map(|p| p.span()).sum();
        let share = |f: fn(&biodist_core::UnitPhases) -> f64| {
            phases.iter().map(f).sum::<f64>() / total.max(f64::MIN_POSITIVE)
        };
        m.set("phase.transfer_share", share(|p| p.transfer));
        m.set("phase.queue_wait_share", share(|p| p.queue_wait));
        m.set("phase.compute_share", share(|p| p.compute));
        m.set("phase.combine_share", share(|p| p.combine));
        let spans_ms: Vec<f64> = phases.iter().map(|p| p.span() * 1e3).collect();
        m.set("phase.span_ms_p50", percentile(&spans_ms, 0.5));
        m.set("phase.span_ms_p99", percentile(&spans_ms, 0.99));
        m.set("phase.incomplete_units", incomplete as f64);
        m.set(
            "farm.donor_busy_share",
            phases.iter().map(|p| p.compute).sum::<f64>() / (donors * traced_pass.makespan_s),
        );
        let snap = telemetry.metrics_snapshot();
        let (hits, misses) = (
            snap.counter("cache.hits") as f64,
            snap.counter("cache.misses") as f64,
        );
        m.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        if spec.replicas > 0 {
            let fetched = snap.counter("cache.bytes_fetched") as f64;
            m.set(
                "replica.origin_offload_share",
                1.0 - snap.counter("net.chunk_bytes_out") as f64 / fetched.max(1.0),
            );
        }
    }
    if let Some((events, virtual_makespan)) = traced_pass.sim {
        m.set(
            "sim.events_per_unit",
            events as f64 / traced_pass.completed_units.max(1) as f64,
        );
        m.set("sim.virtual_makespan_s", virtual_makespan);
    }

    // (c) the probe donor against a live server.
    if spec.donors > 0 {
        let probe = run_probe(spec, inputs, &rec, PROBE_BUDGET);
        let units = probe.units.max(1) as f64;
        m.set("net.connect_hello_us", probe.connect_hello_us);
        m.set(
            "net.request_rtt_us_p50",
            percentile(&probe.request_rtt_us, 0.5),
        );
        m.set(
            "net.request_rtt_us_p99",
            percentile(&probe.request_rtt_us, 0.99),
        );
        m.set(
            "net.submit_rtt_us_p50",
            percentile(&probe.submit_rtt_us, 0.5),
        );
        m.set(
            "net.submit_rtt_us_p99",
            percentile(&probe.submit_rtt_us, 0.99),
        );
        m.set("net.chunk_rtt_us_p50", percentile(&probe.chunk_rtt_us, 0.5));
        m.set(
            "net.chunk_rtt_us_p99",
            percentile(&probe.chunk_rtt_us, 0.99),
        );
        m.set(
            "net.heartbeat_rtt_us_p50",
            percentile(&probe.heartbeat_rtt_us, 0.5),
        );
        m.set(
            "net.server_cpu_ms_per_kframe",
            probe.server_cpu_ms_per_kframe,
        );
        m.set("net.frames_in", probe.frames_in as f64);
        m.set("net.chunk_bytes_out", probe.chunk_bytes_out as f64);
        m.set(
            "replica.sync_rtt_us_p50",
            percentile(&probe.replica_sync_rtt_us, 0.5),
        );
        m.set(
            "replica.chunk_rtt_us_p50",
            percentile(&probe.replica_chunk_rtt_us, 0.5),
        );
        m.set(
            "replica.chunk_rtt_us_p99",
            percentile(&probe.replica_chunk_rtt_us, 0.99),
        );
        m.set("wire.frames_per_unit", probe.frames as f64 / units);
        m.set("wire.bytes_per_unit", probe.bytes as f64 / units);
        let wire = layers::wire_costs(&rec, &probe.frame_sample);
        m.set("wire.encode_ns_per_frame", wire.encode_ns_per_frame);
        m.set("wire.decode_ns_per_frame", wire.decode_ns_per_frame);
        m.set("wire.assemble_ns_per_frame", wire.assemble_ns_per_frame);
        m.set("wire.crc32_mb_per_s", wire.crc32_mb_per_s);
    }

    // (a) the remaining layer drivers.
    match spec.kind {
        Kind::Dsearch { .. } => {
            let align = layers::align_rates(&rec, inputs);
            m.set("align.striped_cells_per_s", align.striped_cells_per_s);
            m.set("align.sw_cells_per_s", align.sw_cells_per_s);
            m.set("align.prepare_us", align.prepare_us);
            let (insert_ns, get_ns) = layers::cache_costs(&rec, spec, inputs);
            m.set("cache.insert_ns", insert_ns);
            m.set("cache.get_verified_ns", get_ns);
        }
        Kind::Dprml { .. } => {
            m.set(
                "phylo.candidate_eval_us_p50",
                percentile(&layers::candidate_eval_us(&rec, inputs), 0.5),
            );
        }
        Kind::Dispatch { .. } => {
            let log = inproc_log.as_deref().expect("dispatch journals");
            let ckpt = layers::checkpoint_costs(
                &rec,
                spec,
                inputs,
                log,
                &log.with_extension("scratch.log"),
            );
            m.set("checkpoint.append_us_p50", percentile(&ckpt.append_us, 0.5));
            m.set(
                "checkpoint.append_us_p99",
                percentile(&ckpt.append_us, 0.99),
            );
            m.set("checkpoint.records_per_unit", ckpt.records_per_unit);
            m.set("checkpoint.bytes_per_unit", ckpt.bytes_per_unit);
            m.set("checkpoint.recover_s", ckpt.recover_s);
            m.set("checkpoint.recover_units_per_s", ckpt.recover_units_per_s);
        }
        Kind::Sim { .. } => {
            m.set(
                "gridsim.queue_ops_per_s",
                layers::queue_ops_per_s(&rec, window),
            );
            let small = layers::sim_events_per_s_small(&rec, spec, inputs);
            m.set("sim.events_per_s_10k", small);
            let full = median(
                &untraced
                    .iter()
                    .map(|p| p.work / p.makespan_s)
                    .collect::<Vec<_>>(),
            );
            m.set("sim.scale_drop_ratio", small / full);
        }
    }

    let rec = rec.lock().expect("recorder lock");
    let spans_path = out_dir.join(format!("{}.spans.jsonl", spec.name));
    if let Err(e) = rec.write_jsonl(&spans_path) {
        failed_check.get_or_insert(format!("cannot write {}: {e}", spans_path.display()));
    }
    Traced {
        metrics: PER_LAYER
            .iter()
            .map(|d| {
                let value = m.0.get(d.0).copied().unwrap_or(0.0);
                (d.0.to_string(), metric_value(value, d.1))
            })
            .collect(),
        self_time_s: rec.self_time_by_layer(),
        spans_recorded: rec.spans.len(),
        failed_check,
        traced_pass,
    }
}
