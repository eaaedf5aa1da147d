//! The metric names and units the benchmark prints. `BENCHMARK.json` at
//! the repository root lists the same names; a test keeps them in step.

/// Metrics a user of the system sees, printed by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cells_per_s", "cells/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("cpu_s_per_op", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("recall_pct", "%"),
    // The modelled device clock of mdmp-gpu-sim, never host seconds: it
    // repeats exactly, so it carries a unit of its own.
    ("modelled_s_per_op", "model-s"),
];

/// Metrics of single layers, printed by the traced run. A layer the
/// workload does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("precision.half_add_ns", "ns"),
    ("precision.half_mul_ns", "ns"),
    ("precision.f64_to_half_ns", "ns"),
    ("precalc.self_s", "s"),
    ("tile_exec.self_s", "s"),
    ("tile_exec.ns_per_cell", "ns"),
    ("tile_exec.buffer_reuse_pct", "%"),
    ("kernels.pool_dispatches_per_row", "count"),
    ("kernels.pool_thread_reuse_pct", "%"),
    ("driver.remainder_s", "s"),
    ("driver.worker_busy_imbalance", "ratio"),
    ("gpusim.precalc_s", "model-s"),
    ("gpusim.dist_s", "model-s"),
    ("gpusim.sort_scan_s", "model-s"),
    ("gpusim.update_s", "model-s"),
    ("gpusim.merge_s", "model-s"),
    ("streaming.append_self_s", "s"),
    ("streaming.reused_segments_pct", "%"),
    ("session.server_append_s", "s"),
    ("server.overhead_s", "s"),
    ("wire.bytes_up_per_op", "B"),
    ("wire.bytes_down_per_op", "B"),
    ("wire.bytes_per_cell", "B/cell"),
    ("wire.encode_ns_per_byte", "ns"),
    ("wire.decode_ns_per_byte", "ns"),
    ("cluster.tile_round_trip_s", "s"),
    ("cluster.merge_self_s", "s"),
    ("cluster.remainder_s", "s"),
    ("cluster.precalc_hit_pct", "%"),
    ("cluster.duplicate_pct", "%"),
    ("cluster.steals_per_op", "count"),
    ("cluster.node_busy_imbalance", "ratio"),
    ("host.calib_rate", "Mit/s"),
    ("trace.overhead_pct", "%"),
];

/// The unit of a metric name from either list.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
