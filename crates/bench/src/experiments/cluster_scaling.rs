//! Cluster tile-sharding throughput: tiles/sec vs worker node count
//! (PR 6's `mdmp-cluster` coordinator), written as `BENCH_PR6.json`
//! through the shared [`BenchReport`] schema.
//!
//! For 1, 2 and 3 in-process worker nodes the same ≥12-tile FP32 job is
//! sharded, stolen and merged; throughput is reported on the **modelled
//! device clock**: the coordinator's lease protocol replayed over the
//! per-tile device seconds (`ClusterRun::modelled_makespan_seconds`).
//! Every configuration starts on fresh nodes, so every tile is priced
//! with a cold precalc cache wherever it ran, and the replay does not
//! depend on which node ran which tile: the makespan is the same on every
//! run and host, and CI can assert it. A final chaos row re-runs the
//! 3-node configuration with one node killed on its first request to
//! record the re-dispatch machinery in the artifact; its makespan is the
//! replay over the two survivors.
//!
//! Every configuration's merged profile is asserted bit-identical to the
//! single-node run — the bench doubles as the cluster determinism check.

use crate::report::{BenchReport, BenchValue, ExperimentTable};
use mdmp_cluster::{run_cluster, ClusterConfig, ClusterRun};
use mdmp_service::{serve, JobInput, JobSpec, Priority, Server, Service, ServiceConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Tiles in the benchmark job: divisible by 1, 2 and 3 so every node
/// count gets balanced shards.
const TILES: usize = 12;

fn spec(quick: bool) -> JobSpec {
    JobSpec {
        input: JobInput::Synthetic {
            n: if quick { 192 } else { 384 },
            d: 2,
            pattern: 1,
            noise: 0.3,
            seed: 2022,
        },
        m: 16,
        mode: "fp32".parse().expect("mode"),
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

fn run_on(addrs: &[String], spec: &JobSpec, faults: &str) -> ClusterRun {
    let mut cluster = ClusterConfig::new(addrs.to_vec());
    cluster.request_timeout = Duration::from_secs(60);
    if !faults.is_empty() {
        cluster.fault_plan = faults.parse().expect("bench fault plan");
    }
    run_cluster(spec, &cluster).expect("cluster bench run")
}

/// The `cluster_scaling` experiment table: throughput and resilience
/// counters per node count, plus the chaos configuration.
pub fn cluster_scaling(quick: bool) -> ExperimentTable {
    let spec = spec(quick);
    let mut table = ExperimentTable::new(
        "cluster_scaling",
        &format!(
            "cluster tiles/sec vs node count, {TILES}-tile FP32 job on in-process worker \
             nodes; modelled device clock (lease replay over per-tile device seconds); \
             '3+kill' loses one node mid-job",
        ),
        &[
            "config",
            "nodes",
            "wall_seconds",
            "makespan_s",
            "tiles_per_s",
            "scaling_vs_1",
            "steals",
            "redispatch",
            "dup_dropped",
        ],
    );
    let mut baseline_tps = 0.0;
    for (label, nodes, faults) in [
        ("1", 1usize, ""),
        ("2", 2, ""),
        ("3", 3, ""),
        // One node killed on its first request, the lease `run_cluster`
        // grants it before any node claims (so the kill always fires):
        // leases re-dispatched, job completes on the survivors.
        ("3+kill", 3, "nodekill@2:0"),
    ] {
        let (_servers, addrs) = start_nodes(nodes);
        let run = run_on(&addrs, &spec, faults);
        assert_eq!(run.tiles_total, TILES);
        let tps = run.modelled_tiles_per_second();
        if label == "1" {
            baseline_tps = tps;
        }
        table.push(
            label,
            vec![
                nodes as f64,
                run.wall_seconds,
                run.modelled_makespan_seconds(),
                tps,
                if baseline_tps > 0.0 {
                    tps / baseline_tps
                } else {
                    0.0
                },
                run.steals as f64,
                run.redispatches as f64,
                run.duplicates_dropped as f64,
            ],
        );
        if faults.is_empty() {
            assert!(
                run.quarantined_nodes().is_empty(),
                "clean bench run must not quarantine"
            );
        } else {
            assert!(
                run.redispatches >= 1,
                "chaos bench run must exercise re-dispatch"
            );
        }
    }
    table
}

/// Serialize the scaling table as `BENCH_PR6.json` (pass the repo root's
/// `BENCH_PR6.json` to commit it).
pub fn write_bench_json(table: &ExperimentTable, path: &Path) -> io::Result<PathBuf> {
    let mut report = BenchReport::new("cluster_scaling", &table.description)
        .workload("tiles", BenchValue::int(TILES as u64))
        .workload("mode", BenchValue::str("fp32"))
        .workload("gpus_per_node", BenchValue::int(1));
    for (label, cells) in &table.rows {
        report.push_result(vec![
            ("config".to_string(), BenchValue::str(label)),
            ("nodes".to_string(), BenchValue::int(cells[0] as u64)),
            ("wall_seconds".to_string(), BenchValue::secs(cells[1])),
            (
                "modelled_makespan_seconds".to_string(),
                BenchValue::secs(cells[2]),
            ),
            ("tiles_per_second".to_string(), BenchValue::ratio(cells[3])),
            ("scaling_vs_1".to_string(), BenchValue::ratio(cells[4])),
            ("steals".to_string(), BenchValue::int(cells[5] as u64)),
            ("redispatches".to_string(), BenchValue::int(cells[6] as u64)),
            (
                "duplicates_dropped".to_string(),
                BenchValue::int(cells[7] as u64),
            ),
        ]);
    }
    report.write(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lease replay makes the scaling assertion independent of host
    /// timing: near-equal shards + stealing must put 3 nodes at >= 1.8x
    /// one node.
    #[test]
    fn three_nodes_scale_past_1_8x_on_the_modelled_clock() {
        let table = cluster_scaling(true);
        let scaling = table.cell("3", "scaling_vs_1").expect("3-node row");
        assert!(scaling >= 1.8, "3-node scaling {scaling} < 1.8");
        let chaos = table.cell("3+kill", "redispatch").expect("chaos row");
        assert!(chaos >= 1.0);
        let json = write_bench_json(
            &table,
            &crate::report::results_dir().join("BENCH_PR6_test.json"),
        )
        .expect("write");
        let text = std::fs::read_to_string(json).expect("read back");
        assert!(text.contains("\"benchmark\": \"cluster_scaling\""));
        assert!(text.contains("\"config\": \"3+kill\""));
        assert!(text.contains("\"redispatches\":"));
    }
}
