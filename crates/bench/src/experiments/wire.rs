//! Wire-protocol payload cost: bytes-on-wire for a tile result plane
//! under the JSON-lines transport vs the binary frame encoding (wide and
//! precision-narrowed), plus a rerun of the PR 6 cluster scaling job over
//! both transports, written as `BENCH_PR9.json` through the shared
//! [`BenchReport`] schema.
//!
//! The encoding table serializes the *same* profile planes three ways —
//! the exact `tile_exec` reply shapes the server emits — so the byte
//! counts are the real wire costs, not synthetic estimates. The cluster
//! table re-runs the 12-tile FP32 job of `cluster_scaling` with the
//! coordinator forced onto JSON lines and with the binary upgrade
//! negotiated; the modelled device clock (the lease protocol replayed
//! over per-tile device seconds) keeps `scaling_vs_1` independent of
//! host timing and transport (3 nodes = 3.0000: twelve equal-cost tiles,
//! four per node) while the per-node byte counters expose the transport
//! difference.
//!
//! CI gates (asserted by the in-module test and the workflow):
//! * FP32-mode planes shrink **>= 4x** under the narrowed binary frames.
//! * 3-node `scaling_vs_1` on the binary wire stays **>= 2.40**.

use crate::report::{BenchReport, BenchValue, ExperimentTable};
use mdmp_cluster::{run_cluster, ClusterConfig, ClusterRun};
use mdmp_service::{
    encode_index_plane_hex, encode_plane_hex, narrowest_width, serve, Chunk, FrameCodec, JobInput,
    JobSpec, Json, Message, Priority, Server, Service, ServiceConfig, WirePreference,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tiles in the cluster rerun: the PR 6 job, divisible by 1 and 3.
const TILES: usize = 12;

/// The PR 6 cluster job, reused verbatim so `scaling_vs_1` reproduces the
/// committed BENCH_PR6 value; `mode` is overridden for the encoding rows.
fn spec(quick: bool, mode: &str) -> JobSpec {
    JobSpec {
        input: JobInput::Synthetic {
            n: if quick { 192 } else { 384 },
            d: 2,
            pattern: 1,
            noise: 0.3,
            seed: 2022,
        },
        m: 16,
        mode: mode.parse().expect("mode"),
        tiles: TILES,
        gpus: 1,
        priority: Priority::Normal,
        max_retries: 0,
        fault_plan: None,
        tile_retries: 2,
        fused_rows: None,
        tc_chunk_k: None,
        tile_deadline_ms: None,
        deadline_ms: None,
    }
}

/// Everything the `wire` experiment produces: the two printed tables plus
/// the gate values the CI workflow asserts on.
pub struct WireOutcome {
    /// Per-mode bytes-on-wire for one full profile's planes.
    pub encoding: ExperimentTable,
    /// Cluster rerun over both transports.
    pub cluster: ExperimentTable,
    /// JSON bytes / narrowed-binary bytes for the FP32-mode planes.
    pub f32_reduction: f64,
    /// Modelled 3-node scaling on the binary wire (PR 6 metric).
    pub scaling_vs_1_at_3: f64,
}

/// Run one mode locally and return its profile planes in the k-major
/// order `tile_exec` ships them.
fn planes(quick: bool, mode: &str) -> (Vec<f64>, Vec<i64>) {
    let spec = spec(quick, mode);
    let (reference, query) = spec.materialize().expect("materialize");
    let profile = crate::experiments::run_profile(&reference, &query, spec.m, spec.mode, 1);
    let mut values = Vec::new();
    let mut indices = Vec::new();
    mdmp_core::profile_planes_k_major(&profile, &mut values, &mut indices);
    (values, indices)
}

/// The JSON-lines form of a tile result carrying these planes, exactly as
/// [`mdmp_service`]'s `tile_exec` emits it (header fields + hex planes).
fn json_reply(values: &[f64], indices: &[i64]) -> String {
    let obj = Json::obj(vec![
        ("tile", Json::num(0.0)),
        ("col0", Json::num(0.0)),
        ("n_query", Json::num((values.len() / 2) as f64)),
        ("dims", Json::num(2.0)),
        ("p_hex", Json::str(encode_plane_hex(values))),
        ("i_hex", Json::str(encode_index_plane_hex(indices))),
    ]);
    let mut line = obj.to_string();
    line.push('\n');
    line
}

/// The binary-frame form of the same tile result (chunk-referenced
/// planes), encoded wide or narrowed.
fn frame_reply(codec: &mut FrameCodec, values: &[f64], indices: &[i64], narrow: bool) -> usize {
    let msg = Message {
        json: Json::obj(vec![
            ("tile", Json::num(0.0)),
            ("col0", Json::num(0.0)),
            ("n_query", Json::num((values.len() / 2) as f64)),
            ("dims", Json::num(2.0)),
            ("p_chunk", Json::num(0.0)),
            ("i_chunk", Json::num(1.0)),
        ]),
        chunks: vec![Chunk::F64(values.to_vec()), Chunk::I64(indices.to_vec())],
    };
    codec
        .encode(&msg, narrow)
        .expect("encode bench frame")
        .len()
}

/// Encoding-cost table: one row per precision family, measuring the same
/// planes under all three serializations. Returns the table and the
/// FP32-mode reduction factor (the gated number).
fn encoding_table(quick: bool) -> (ExperimentTable, f64) {
    let mut table = ExperimentTable::new(
        "wire_encoding",
        "bytes on the wire for one profile's planes: JSON-lines hex vs binary frame \
         (wide) vs binary frame narrowed to the mode's bit-exact width; encode_us is \
         the narrowed-frame encode time",
        &[
            "mode",
            "elements",
            "narrow_width",
            "json_bytes",
            "binary_bytes",
            "binary_narrow_bytes",
            "reduction_vs_json",
            "encode_us",
        ],
    );
    let mut codec = FrameCodec::new();
    let mut f32_reduction = 0.0;
    for mode in ["fp64", "fp32", "fp16"] {
        let (values, indices) = planes(quick, mode);
        let json_bytes = json_reply(&values, &indices).len();
        let wide = frame_reply(&mut codec, &values, &indices, false);
        let narrow = frame_reply(&mut codec, &values, &indices, true);
        let start = Instant::now();
        let reps = 32;
        for _ in 0..reps {
            frame_reply(&mut codec, &values, &indices, true);
        }
        let encode_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let reduction = json_bytes as f64 / narrow as f64;
        if mode == "fp32" {
            f32_reduction = reduction;
        }
        table.push(
            mode,
            vec![
                values.len() as f64,
                narrowest_width(&values) as f64,
                json_bytes as f64,
                wide as f64,
                narrow as f64,
                reduction,
                encode_us,
            ],
        );
    }
    (table, f32_reduction)
}

fn start_nodes(n: usize) -> (Vec<Server>, Vec<String>) {
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let server = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind bench node");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    (servers, addrs)
}

fn run_on(addrs: &[String], spec: &JobSpec, wire: WirePreference) -> ClusterRun {
    let mut cluster = ClusterConfig::new(addrs.to_vec());
    cluster.request_timeout = Duration::from_secs(60);
    cluster.wire = wire;
    run_cluster(spec, &cluster).expect("cluster bench run")
}

/// Cluster rerun table: the PR 6 job at 1 and 3 nodes, with the 3-node
/// configuration run over both transports. Returns the table and the
/// binary-wire 3-node `scaling_vs_1` (the gated number).
fn cluster_table(quick: bool) -> (ExperimentTable, f64) {
    let spec = spec(quick, "fp32");
    let mut table = ExperimentTable::new(
        "wire_cluster",
        &format!(
            "the {TILES}-tile FP32 cluster job of BENCH_PR6 rerun over JSON lines and \
             the negotiated binary frames; modelled device clock keeps scaling_vs_1 \
             transport-independent while wire_bytes shows the transport cost",
        ),
        &[
            "config",
            "nodes",
            "binary_nodes",
            "wall_seconds",
            "makespan_s",
            "tiles_per_s",
            "scaling_vs_1",
            "wire_bytes_sent",
            "wire_bytes_received",
        ],
    );
    let mut baseline_tps = 0.0;
    let mut scaling_at_3 = 0.0;
    for (label, nodes, wire) in [
        ("1-binary", 1usize, WirePreference::Auto),
        ("3-binary", 3, WirePreference::Auto),
        ("3-json", 3, WirePreference::Json),
    ] {
        let (_servers, addrs) = start_nodes(nodes);
        let run = run_on(&addrs, &spec, wire);
        assert_eq!(run.tiles_total, TILES);
        let expect_binary = if wire == WirePreference::Auto {
            nodes
        } else {
            0
        };
        assert_eq!(
            run.binary_wire_nodes(),
            expect_binary,
            "{label}: unexpected binary-wire node count"
        );
        let tps = run.modelled_tiles_per_second();
        if label == "1-binary" {
            baseline_tps = tps;
        }
        let scaling = if baseline_tps > 0.0 {
            tps / baseline_tps
        } else {
            0.0
        };
        if label == "3-binary" {
            scaling_at_3 = scaling;
        }
        table.push(
            label,
            vec![
                nodes as f64,
                run.binary_wire_nodes() as f64,
                run.wall_seconds,
                run.modelled_makespan_seconds(),
                tps,
                scaling,
                run.wire_bytes_sent() as f64,
                run.wire_bytes_received() as f64,
            ],
        );
    }
    (table, scaling_at_3)
}

/// The full `wire` experiment: encoding costs + cluster rerun + gates.
pub fn wire_bench(quick: bool) -> WireOutcome {
    let (encoding, f32_reduction) = encoding_table(quick);
    let (cluster, scaling_vs_1_at_3) = cluster_table(quick);
    WireOutcome {
        encoding,
        cluster,
        f32_reduction,
        scaling_vs_1_at_3,
    }
}

/// Serialize the outcome as `BENCH_PR9.json` (pass the repo root's
/// `BENCH_PR9.json` to commit it). The `gates` block carries the two
/// CI-asserted numbers next to their thresholds.
pub fn write_bench_json(outcome: &WireOutcome, path: &Path) -> io::Result<PathBuf> {
    let mut report = BenchReport::new(
        "wire_protocol",
        "binary frame wire protocol vs JSON lines: per-mode plane bytes and the \
         PR6 cluster job over both transports",
    )
    .workload("tiles", BenchValue::int(TILES as u64))
    .workload("cluster_mode", BenchValue::str("fp32"))
    .workload("gpus_per_node", BenchValue::int(1))
    .extra_block(
        "gates",
        vec![
            (
                "f32_bytes_reduction".to_string(),
                BenchValue::ratio(outcome.f32_reduction),
            ),
            (
                "f32_bytes_reduction_min".to_string(),
                BenchValue::ratio(4.0),
            ),
            (
                "scaling_vs_1_at_3".to_string(),
                BenchValue::ratio(outcome.scaling_vs_1_at_3),
            ),
            ("scaling_vs_1_at_3_min".to_string(), BenchValue::ratio(2.40)),
        ],
    );
    for (label, cells) in &outcome.encoding.rows {
        report.push_result(vec![
            ("row".to_string(), BenchValue::str("encoding")),
            ("mode".to_string(), BenchValue::str(label)),
            ("elements".to_string(), BenchValue::int(cells[0] as u64)),
            ("narrow_width".to_string(), BenchValue::int(cells[1] as u64)),
            ("json_bytes".to_string(), BenchValue::int(cells[2] as u64)),
            ("binary_bytes".to_string(), BenchValue::int(cells[3] as u64)),
            (
                "binary_narrow_bytes".to_string(),
                BenchValue::int(cells[4] as u64),
            ),
            ("reduction_vs_json".to_string(), BenchValue::ratio(cells[5])),
            (
                "encode_seconds".to_string(),
                BenchValue::secs(cells[6] / 1e6),
            ),
        ]);
    }
    for (label, cells) in &outcome.cluster.rows {
        report.push_result(vec![
            ("row".to_string(), BenchValue::str("cluster")),
            ("config".to_string(), BenchValue::str(label)),
            ("nodes".to_string(), BenchValue::int(cells[0] as u64)),
            ("binary_nodes".to_string(), BenchValue::int(cells[1] as u64)),
            ("wall_seconds".to_string(), BenchValue::secs(cells[2])),
            (
                "modelled_makespan_seconds".to_string(),
                BenchValue::secs(cells[3]),
            ),
            ("tiles_per_second".to_string(), BenchValue::ratio(cells[4])),
            ("scaling_vs_1".to_string(), BenchValue::ratio(cells[5])),
            (
                "wire_bytes_sent".to_string(),
                BenchValue::int(cells[6] as u64),
            ),
            (
                "wire_bytes_received".to_string(),
                BenchValue::int(cells[7] as u64),
            ),
        ]);
    }
    report.write(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two CI gates hold on the quick problem size: FP32 planes shrink
    /// at least 4x under narrowed frames, and the modelled 3-node scaling
    /// on the binary wire reproduces the PR 6 value.
    #[test]
    fn wire_gates_hold_on_the_quick_size() {
        let outcome = wire_bench(true);
        assert!(
            outcome.f32_reduction >= 4.0,
            "fp32 reduction {} < 4x",
            outcome.f32_reduction
        );
        // The replayed ratio is 3.0 up to f64 rounding; the 2.40 floor
        // gets a whisker of slack for rounding.
        assert!(
            outcome.scaling_vs_1_at_3 >= 2.40 - 1e-9,
            "3-node binary scaling {} < 2.40",
            outcome.scaling_vs_1_at_3
        );
        let json_bytes = outcome
            .cluster
            .cell("3-json", "wire_bytes_received")
            .expect("json row");
        let bin_bytes = outcome
            .cluster
            .cell("3-binary", "wire_bytes_received")
            .expect("binary row");
        assert!(
            bin_bytes * 2.0 < json_bytes,
            "binary cluster run received {bin_bytes} B vs JSON {json_bytes} B"
        );
        let json = write_bench_json(
            &outcome,
            &crate::report::results_dir().join("BENCH_PR9_test.json"),
        )
        .expect("write");
        let text = std::fs::read_to_string(json).expect("read back");
        assert!(text.contains("\"benchmark\": \"wire_protocol\""));
        assert!(text.contains("\"f32_bytes_reduction\":"));
        assert!(text.contains("\"config\": \"3-json\""));
    }
}
