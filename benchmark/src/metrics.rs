//! The metric names, units and directions — the same table
//! `BENCHMARK.json` declares (the package's test holds the two equal).

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end: what a user of the farm sees. Every workload reports
/// every one; all are medians over a run's passes, tracing off.
/// `efficiency` is a ratio to the sequential program timed next to
/// each pass (see `run.rs`); the absolute seconds behind it are the
/// per-layer `farm.*` metrics.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("efficiency", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer: the traced run only. A metric a workload does not define
/// (no replicas, no journal, no sockets) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // align (layer drivers)
    ("align.striped_cells_per_s", "1/s", "higher"),
    ("align.sw_cells_per_s", "1/s", "higher"),
    ("align.prepare_us", "us", "lower"),
    // data managers (wrapper inside the in-process loop)
    ("dsearch.next_unit_us", "us", "lower"),
    ("dsearch.accept_result_us", "us", "lower"),
    ("dsearch.units_per_pass", "count", "lower"),
    ("dsearch.chunks_per_unit", "count", "higher"),
    ("dprml.next_unit_us", "us", "lower"),
    ("dprml.accept_result_us", "us", "lower"),
    ("dprml.stage_turnover_us_p50", "us", "lower"),
    ("dprml.stage_turnover_us_p99", "us", "lower"),
    ("dprml.dm_serial_share", "ratio", "lower"),
    ("dprml.units_per_pass", "count", "lower"),
    // phylo (reference + layer driver)
    ("phylo.stepwise_seq_s", "s", "lower"),
    ("phylo.insertions_per_s_seq", "1/s", "higher"),
    ("phylo.candidate_eval_us_p50", "us", "lower"),
    // server + sched (in-process loop; sched counts from product passes)
    ("server.request_work_us_p50", "us", "lower"),
    ("server.request_work_us_p99", "us", "lower"),
    ("server.submit_result_us_p50", "us", "lower"),
    ("server.submit_result_us_p99", "us", "lower"),
    ("server.inproc_units_per_s", "1/s", "higher"),
    ("server.check_timeouts_us", "us", "lower"),
    ("server.status_snapshot_us", "us", "lower"),
    ("sched.assignments_per_unit", "ratio", "lower"),
    ("sched.reissued_units", "count", "lower"),
    ("sched.wasted_results", "count", "lower"),
    ("sched.unit_ops_p50", "ops", "higher"),
    // codec (in-process loop)
    ("codec.encode_unit_us", "us", "lower"),
    ("codec.decode_unit_us", "us", "lower"),
    ("codec.hydrate_unit_us", "us", "lower"),
    ("codec.encode_result_us", "us", "lower"),
    ("codec.decode_result_us", "us", "lower"),
    ("codec.encode_chunk_us", "us", "lower"),
    ("codec.unit_bytes_p50", "B", "lower"),
    ("codec.result_bytes_p50", "B", "lower"),
    // wire (layer driver over the probe's frame mix)
    ("wire.encode_ns_per_frame", "ns", "lower"),
    ("wire.decode_ns_per_frame", "ns", "lower"),
    ("wire.assemble_ns_per_frame", "ns", "lower"),
    ("wire.crc32_mb_per_s", "MB/s", "higher"),
    ("wire.frames_per_unit", "count", "lower"),
    ("wire.bytes_per_unit", "B", "lower"),
    // net (probe donor)
    ("net.connect_hello_us", "us", "lower"),
    ("net.request_rtt_us_p50", "us", "lower"),
    ("net.request_rtt_us_p99", "us", "lower"),
    ("net.submit_rtt_us_p50", "us", "lower"),
    ("net.submit_rtt_us_p99", "us", "lower"),
    ("net.chunk_rtt_us_p50", "us", "lower"),
    ("net.chunk_rtt_us_p99", "us", "lower"),
    ("net.heartbeat_rtt_us_p50", "us", "lower"),
    ("net.server_cpu_ms_per_kframe", "ms", "lower"),
    ("net.frames_in", "count", "lower"),
    ("net.chunk_bytes_out", "B", "lower"),
    // replica tier (probe donor + traced pass counters)
    ("replica.chunk_rtt_us_p50", "us", "lower"),
    ("replica.chunk_rtt_us_p99", "us", "lower"),
    ("replica.sync_rtt_us_p50", "us", "lower"),
    ("replica.origin_offload_share", "ratio", "higher"),
    // donor chunk cache (layer driver + traced pass counters)
    ("cache.insert_ns", "ns", "lower"),
    ("cache.get_verified_ns", "ns", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    // checkpoint (layer driver over the in-process pass's log)
    ("checkpoint.append_us_p50", "us", "lower"),
    ("checkpoint.append_us_p99", "us", "lower"),
    ("checkpoint.records_per_unit", "count", "lower"),
    ("checkpoint.bytes_per_unit", "B", "lower"),
    ("checkpoint.recover_s", "s", "lower"),
    ("checkpoint.recover_units_per_s", "1/s", "higher"),
    // donor client / farm (traced product pass, phase_breakdowns)
    ("phase.transfer_share", "ratio", "lower"),
    ("phase.queue_wait_share", "ratio", "lower"),
    ("phase.compute_share", "ratio", "higher"),
    ("phase.combine_share", "ratio", "lower"),
    ("phase.span_ms_p50", "ms", "lower"),
    ("phase.span_ms_p99", "ms", "lower"),
    ("phase.incomplete_units", "count", "lower"),
    ("farm.donor_busy_share", "ratio", "higher"),
    // the absolute figures of the untraced passes (host-dependent)
    ("farm.makespan_s", "s", "lower"),
    ("farm.work_per_s", "1/s", "higher"),
    ("farm.cpu_s", "s", "lower"),
    ("farm.cpu_overhead", "ratio", "lower"),
    ("farm.units_per_s", "1/s", "higher"),
    ("farm.sequential_s", "s", "lower"),
    ("farm.net_client_share", "ratio", "lower"),
    // the in-process pass's budget: self times that add up to it
    ("budget.inproc_makespan_s", "s", "lower"),
    ("budget.server_self_s", "s", "lower"),
    ("budget.dm_self_s", "s", "lower"),
    ("budget.codec_self_s", "s", "lower"),
    ("budget.compute_self_s", "s", "lower"),
    ("budget.uncovered_share", "ratio", "lower"),
    // telemetry
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("telemetry.events_per_unit", "count", "lower"),
    // simulator
    ("gridsim.queue_ops_per_s", "1/s", "higher"),
    ("sim.events_per_unit", "count", "lower"),
    ("sim.events_per_s_10k", "1/s", "higher"),
    ("sim.scale_drop_ratio", "ratio", "lower"),
    ("sim.virtual_makespan_s", "s", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    /// `BENCHMARK.json` and the tables above declare the same metrics,
    /// in the same order, with the same unit and direction.
    #[test]
    fn benchmark_json_declares_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec =
            parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String, String)> = spec
                .get(key)
                .map(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::SPECS
            .iter()
            .filter(|s| s.gated)
            .map(|s| s.name)
            .collect();
        assert_eq!(workloads, ours, "workloads");
    }
}
