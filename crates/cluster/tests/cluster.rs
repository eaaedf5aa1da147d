//! In-process cluster integration: three real `mdmp-service` worker nodes
//! behind real TCP sockets, driven by the coordinator. The acceptance bar
//! is **bit-identity**: the merged cluster profile must equal a
//! single-node run of the same job down to the last `f64` bit, in every
//! precision mode, with or without nodes dying mid-job.

use mdmp_cluster::{replay_makespan, run_cluster, ClusterConfig, ClusterError};
use mdmp_core::{estimate_tile_seconds, run_with_mode, MatrixProfile, MdmpConfig};
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_precision::PrecisionMode;
use mdmp_service::{
    serve, FrameCodec, JobInput, JobSpec, Json, Priority, Server, Service, ServiceConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Start one in-process worker node on an ephemeral port.
fn start_node() -> (Server, String) {
    let service = Service::start(ServiceConfig {
        workers: 1,
        devices: 1,
        ..ServiceConfig::default()
    });
    let server = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind node");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn start_nodes(n: usize) -> (Vec<Server>, Vec<String>) {
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let (server, addr) = start_node();
        servers.push(server);
        addrs.push(addr);
    }
    (servers, addrs)
}

/// The distributed workload used throughout: synthetic, multi-dim, enough
/// tiles that every node gets a shard and stealing has material to work
/// with.
fn spec(mode: &str) -> JobSpec {
    JobSpec {
        input: JobInput::Synthetic {
            n: 192,
            d: 2,
            pattern: 1,
            noise: 0.3,
            seed: 11,
        },
        m: 16,
        mode: mode.parse().expect("mode"),
        tiles: 8,
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

/// The single-node ground truth for a spec, via the ordinary driver.
fn single_node_profile(spec: &JobSpec) -> MatrixProfile {
    let (reference, query) = spec.materialize().expect("materialize");
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), spec.gpus);
    run_with_mode(&reference, &query, &spec.config(), &mut system)
        .expect("single-node run")
        .profile
}

/// Bit-level equality, strictly stronger than `PartialEq` (which would
/// also pass for numerically equal but differently produced values and
/// fail for identical NaN bits).
fn assert_bit_identical(cluster: &MatrixProfile, local: &MatrixProfile, what: &str) {
    assert_eq!(cluster.n_query(), local.n_query(), "{what}: n_query");
    assert_eq!(cluster.dims(), local.dims(), "{what}: dims");
    for k in 0..local.dims() {
        for j in 0..local.n_query() {
            assert_eq!(
                cluster.value(j, k).to_bits(),
                local.value(j, k).to_bits(),
                "{what}: value bits differ at dim {k} column {j}"
            );
            assert_eq!(
                cluster.index(j, k),
                local.index(j, k),
                "{what}: index differs at dim {k} column {j}"
            );
        }
    }
}

fn cluster_config(addrs: &[String]) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(addrs.to_vec());
    cfg.request_timeout = Duration::from_secs(30);
    cfg
}

/// Tentpole acceptance: a 3-node cluster is bit-identical to a
/// single-node run in all five precision modes of the paper — and in the
/// PR 7 tensor-core GEMM mode, whose tile-restarted recurrence must not
/// depend on which node computes a tile.
#[test]
fn three_node_cluster_is_bit_identical_in_all_modes() {
    let (_servers, addrs) = start_nodes(3);
    for mode in ["fp64", "fp32", "fp16", "mixed", "fp16c", "fp16-tc"] {
        let spec = spec(mode);
        let local = single_node_profile(&spec);
        let run = run_cluster(&spec, &cluster_config(&addrs))
            .unwrap_or_else(|e| panic!("cluster run in {mode}: {e}"));
        assert_eq!(run.tiles_total, 8);
        assert_bit_identical(&run.profile, &local, mode);
        let merged: u64 = run.nodes.iter().map(|n| n.tiles_merged).sum();
        assert_eq!(merged as usize, run.tiles_total);
        assert!(run.quarantined_nodes().is_empty(), "{mode}: no node died");
    }
}

/// Regression guard for one holder per lease: a fault-free 2-node run
/// executes each of its 8 tiles exactly once — no node repeats a tile
/// another node holds — and still matches the single-node run bit for bit.
#[test]
fn fault_free_two_node_run_executes_every_tile_once() {
    let (_servers, addrs) = start_nodes(2);
    let spec = spec("fp32");
    let local = single_node_profile(&spec);
    let run = run_cluster(&spec, &cluster_config(&addrs)).expect("cluster run");
    assert_eq!(run.tiles_total, 8);
    assert_eq!(run.duplicates_dropped, 0);
    let executed: u64 = run.nodes.iter().map(|n| n.tiles_executed).sum();
    let merged: u64 = run.nodes.iter().map(|n| n.tiles_merged).sum();
    assert_eq!(executed as usize, run.tiles_total);
    assert_eq!(merged as usize, run.tiles_total);
    assert_bit_identical(&run.profile, &local, "fp32 on 2 nodes");
}

/// Node loss mid-job: node 1 is killed on its first request, the front of
/// its own shard, which `run_cluster` leases to it before any node claims
/// (so the survivors cannot steal it first and the kill always fires); its leased tile and unclaimed shard are re-dispatched to the
/// survivors, the job completes, and the output is still bit-identical.
#[test]
fn node_kill_mid_job_redispatches_and_stays_bit_identical() {
    let (_servers, addrs) = start_nodes(3);
    for mode in ["fp64", "fp32", "fp16", "mixed", "fp16c", "fp16-tc"] {
        let spec = spec(mode);
        let local = single_node_profile(&spec);
        let mut cluster = cluster_config(&addrs);
        cluster.fault_plan = "nodekill@1:0".parse().expect("fault plan");
        let run = run_cluster(&spec, &cluster)
            .unwrap_or_else(|e| panic!("cluster run with node loss in {mode}: {e}"));
        assert_bit_identical(&run.profile, &local, mode);
        assert_eq!(run.quarantined_nodes(), vec![1], "{mode}");
        assert!(run.nodes[1].quarantined, "{mode}");
        assert!(
            run.redispatches >= 1,
            "{mode}: the killed node's leased tile must be re-dispatched"
        );
        let merged: u64 = run.nodes.iter().map(|n| n.tiles_merged).sum();
        assert_eq!(merged as usize, run.tiles_total, "{mode}");
    }
}

/// The modelled makespan is the lease replay over the run's tile costs,
/// so host-timed steals cannot move it: ten fault-free 3-node runs, each
/// on fresh (cold-cache) nodes, read the same bits, and a run that loses
/// node 2 on its first request reads the replay over the two survivors.
#[test]
fn modelled_makespan_is_the_deterministic_lease_replay() {
    let spec = spec("fp32");
    let local = single_node_profile(&spec);
    let (reference, query) = spec.materialize().expect("materialize");
    let priced = estimate_tile_seconds(
        reference.n_segments(spec.m),
        query.n_segments(spec.m),
        reference.dims(),
        &spec.config(),
        &DeviceSpec::a100(),
    )
    .expect("tile prices");
    let mut first: Option<u64> = None;
    for run_index in 0..10 {
        let (_servers, addrs) = start_nodes(3);
        let run = run_cluster(&spec, &cluster_config(&addrs)).expect("cluster run");
        assert_bit_identical(&run.profile, &local, "fp32 on 3 nodes");
        let bits: Vec<u64> = run.tile_seconds.iter().map(|s| s.to_bits()).collect();
        let expect: Vec<u64> = priced.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, expect, "run {run_index}: tile costs");
        let makespan = run.modelled_makespan_seconds();
        assert_eq!(
            makespan.to_bits(),
            replay_makespan(&run.tile_seconds, 3).to_bits(),
            "run {run_index}"
        );
        let first = *first.get_or_insert(makespan.to_bits());
        assert_eq!(makespan.to_bits(), first, "run {run_index}: makespan moved");
    }
    // Three nodes scale: the replay over the same tile prices on one node
    // takes at least 2.4x as long (8 tiles in ceil(8/3) = 3 slots).
    let makespan = f64::from_bits(first.expect("ten runs"));
    let one_node = replay_makespan(&priced, 1);
    assert!(
        one_node >= 2.4 * makespan,
        "3-node scaling {:.4} < 2.4",
        one_node / makespan
    );

    let (_servers, addrs) = start_nodes(3);
    let mut cluster = cluster_config(&addrs);
    cluster.fault_plan = "nodekill@2:0".parse().expect("fault plan");
    let run = run_cluster(&spec, &cluster).expect("cluster run with node loss");
    assert_bit_identical(&run.profile, &local, "fp32 after losing node 2");
    assert_eq!(run.quarantined_nodes(), vec![2]);
    assert_eq!(
        run.modelled_makespan_seconds().to_bits(),
        replay_makespan(&run.tile_seconds, 2).to_bits()
    );
}

/// A dropped connection is transient: the node fails one request, the
/// tile is re-dispatched, the node reconnects and keeps serving.
#[test]
fn connection_drop_is_transient_not_fatal() {
    let (_servers, addrs) = start_nodes(2);
    let spec = spec("fp32");
    let local = single_node_profile(&spec);
    let mut cluster = cluster_config(&addrs);
    cluster.fault_plan = "nodedrop@0:0".parse().expect("fault plan");
    let run = run_cluster(&spec, &cluster).expect("cluster run");
    assert_bit_identical(&run.profile, &local, "fp32 after drop");
    assert_eq!(run.nodes[0].failures, 1);
    assert!(!run.nodes[0].quarantined, "one drop must not quarantine");
    assert!(run.redispatches >= 1);
}

/// Every node dead before the job finishes is the typed
/// [`ClusterError::AllNodesDown`] — never a hang, never a partial
/// profile pretending to be complete.
#[test]
fn losing_every_node_is_a_typed_error() {
    let (_servers, addrs) = start_nodes(2);
    let spec = spec("fp16");
    let mut cluster = cluster_config(&addrs);
    cluster.fault_plan = "nodekill@0:0,nodekill@1:0".parse().expect("fault plan");
    match run_cluster(&spec, &cluster) {
        Err(ClusterError::AllNodesDown { merged, expected }) => {
            assert_eq!(merged, 0);
            assert_eq!(expected, 8);
        }
        other => panic!("expected AllNodesDown, got {other:?}"),
    }
}

/// An unreachable address is also just a node failure: the cluster
/// quarantines it and the survivors finish the job.
#[test]
fn unreachable_node_is_quarantined_and_survivors_finish() {
    let (_servers, mut addrs) = start_nodes(2);
    // A port nothing listens on (reserved port 1 refuses immediately).
    addrs.push("127.0.0.1:1".to_string());
    let spec = spec("mixed");
    let local = single_node_profile(&spec);
    let run = run_cluster(&spec, &cluster_config(&addrs)).expect("cluster run");
    assert_bit_identical(&run.profile, &local, "mixed with dead node");
    assert!(run.nodes[2].quarantined);
    assert_eq!(run.nodes[2].tiles_merged, 0);
}

/// In-memory jobs cannot be shipped to remote nodes: typed `BadSpec`.
#[test]
fn in_memory_jobs_are_rejected() {
    let spec = spec("fp64");
    let (reference, query) = spec.materialize().expect("materialize");
    let in_memory = JobSpec {
        input: JobInput::InMemory { reference, query },
        ..spec
    };
    match run_cluster(&in_memory, &cluster_config(&["127.0.0.1:1".to_string()])) {
        Err(ClusterError::BadSpec(e)) => assert!(e.contains("in-memory"), "{e}"),
        other => panic!("expected BadSpec, got {other:?}"),
    }
}

/// The `job` of the first request a node receives from `run_cluster`,
/// read by a one-shot listener that answers the wire upgrade, reads one
/// frame and then drops the connection (the run itself fails once its
/// only node is quarantined).
fn shipped_job(spec: &JobSpec) -> Json {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
    let addr = listener.local_addr().expect("addr").to_string();
    let capture = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read upgrade");
        let upgrade = Json::parse(line.trim()).expect("json");
        assert_eq!(
            upgrade.get("op").and_then(Json::as_str),
            Some("wire_upgrade")
        );
        let reply = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("wire", Json::str("binary")),
            ("version", Json::num(1.0)),
        ]);
        writeln!(&stream, "{reply}").expect("answer upgrade");
        let (request, _) = FrameCodec::new()
            .read(&mut reader)
            .expect("read frame")
            .expect("frame");
        request.json
    });
    let mut cfg = cluster_config(&[addr]);
    cfg.quarantine_threshold = 1;
    assert!(matches!(
        run_cluster(spec, &cfg),
        Err(ClusterError::AllNodesDown { .. })
    ));
    let request = capture.join().expect("capture");
    assert_eq!(request.get("op").and_then(Json::as_str), Some("tile_exec"));
    request.get("job").expect("job").clone()
}

/// `run_cluster` pins the tensor-core chunk width in the job it ships, so
/// nodes never resolve `MDMP_TC_CHUNK_K` from their own environments; a
/// width the caller chose ships as given, and vector modes ship none.
#[test]
fn run_cluster_ships_a_pinned_tc_chunk_width() {
    let chunk = |job: &Json| job.get("tc_chunk_k").and_then(Json::as_u64);
    for mode in PrecisionMode::TC_MODES {
        let spec = spec(mode.label());
        let input = mode.tc_input().expect("tc mode");
        let pinned = MdmpConfig::new(spec.m, mode).resolved_tc_chunk_k(input);
        assert_eq!(chunk(&shipped_job(&spec)), Some(pinned as u64), "{mode}");
        let chosen = JobSpec {
            tc_chunk_k: Some(4),
            ..spec
        };
        assert_eq!(chunk(&shipped_job(&chosen)), Some(4), "{mode}");
    }
    for mode in ["fp32", "fp16"] {
        assert_eq!(chunk(&shipped_job(&spec(mode))), None, "{mode}");
    }
}
