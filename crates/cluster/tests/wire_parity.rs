//! Transport parity at cluster scope: a coordinator on the binary frame
//! transport must merge **bit-identical** profiles to a single-node run,
//! with its narrow planes reaching the coordinator narrow — and a node
//! that declines the frame upgrade must be a client error, not a silent
//! fallback.

use mdmp_cluster::{run_cluster, ClusterConfig, NodeClient, NodeError};
use mdmp_core::{compute_tile_list, run_with_mode, MatrixProfile};
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_service::{
    job_spec_json, serve, JobInput, JobSpec, Json, Priority, Server, Service, ServiceConfig,
    WireConn, WireError, WirePreference,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn start_nodes(n: usize) -> (Vec<Server>, Vec<String>) {
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let server = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind node");
        addrs.push(server.local_addr().to_string());
        servers.push(server);
    }
    (servers, addrs)
}

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

fn single_node_profile(spec: &JobSpec) -> MatrixProfile {
    let (reference, query) = spec.materialize().expect("materialize");
    let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), spec.gpus);
    run_with_mode(&reference, &query, &spec.config(), &mut system)
        .expect("single-node run")
        .profile
}

fn assert_bit_identical(a: &MatrixProfile, b: &MatrixProfile, what: &str) {
    assert_eq!(a.n_query(), b.n_query(), "{what}: n_query");
    assert_eq!(a.dims(), b.dims(), "{what}: dims");
    for k in 0..b.dims() {
        for j in 0..b.n_query() {
            assert_eq!(
                a.value(j, k).to_bits(),
                b.value(j, k).to_bits(),
                "{what}: value bits differ at dim {k} column {j}"
            );
            assert_eq!(
                a.index(j, k),
                b.index(j, k),
                "{what}: index differs at dim {k} column {j}"
            );
        }
    }
}

fn config(addrs: &[String]) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(addrs.to_vec());
    cfg.request_timeout = Duration::from_secs(30);
    cfg
}

/// The cells a job's tiles ship: each tile returns its column block in
/// every dimension, so a column covered by several row blocks ships once
/// per block.
fn shipped_cells(spec: &JobSpec) -> u64 {
    let (reference, query) = spec.materialize().expect("materialize");
    compute_tile_list(
        reference.n_segments(spec.m),
        query.n_segments(spec.m),
        spec.tiles,
    )
    .expect("tile list")
    .iter()
    .map(|t| (t.cols * reference.dims()) as u64)
    .sum()
}

/// Binary cluster runs merge profiles bit-identical to the single-node
/// ground truth in the wide, narrow-float and half precision modes. Each
/// run receives less than half the bytes its shipped planes would take
/// as 16-char hex cells (32 B per cell for both planes), and each
/// narrowing step saves at least its value-width cut on every profile
/// cell: 4 B from fp64 to fp32, 2 B from fp32 to fp16.
#[test]
fn binary_cluster_merges_bit_identically_to_single_node() {
    let (_servers, addrs) = start_nodes(2);
    let mut received = Vec::new();
    let mut cells = 0;
    for mode in ["fp64", "fp32", "fp16"] {
        let spec = spec(mode);
        let local = single_node_profile(&spec);
        let run = run_cluster(&spec, &config(&addrs))
            .unwrap_or_else(|e| panic!("binary cluster run in {mode}: {e}"));
        assert_bit_identical(&run.profile, &local, &format!("{mode} binary"));
        let hex_bytes = 32 * shipped_cells(&spec);
        let bytes = run.wire_bytes_received();
        assert!(
            bytes * 2 < hex_bytes,
            "{mode}: binary moved {bytes} B vs {hex_bytes} B of hex planes"
        );
        received.push(bytes);
        cells = (local.n_query() * local.dims()) as u64;
    }
    assert!(
        received[0] >= received[1] + 4 * cells && received[1] >= received[2] + 2 * cells,
        "fp64 - fp32 >= 4 B/cell and fp32 - fp16 >= 2 B/cell over {cells} cells: {received:?}"
    );
}

/// Node loss on the binary transport is contained: tiles re-dispatch, and
/// the merged profile stays bit-identical.
#[test]
fn node_kill_on_binary_wire_stays_bit_identical() {
    let (_servers, addrs) = start_nodes(3);
    let spec = spec("fp32");
    let local = single_node_profile(&spec);
    let mut cluster = config(&addrs);
    // Request 0 is node 1's granted first lease, so the kill always fires.
    cluster.fault_plan = "nodekill@1:0".parse().expect("fault plan");
    let run = run_cluster(&spec, &cluster).expect("cluster run");
    assert_bit_identical(&run.profile, &local, "fp32 binary with node loss");
    assert_eq!(run.quarantined_nodes(), vec![1]);
    assert!(run.redispatches >= 1);
}

/// A peer that answers `wire_upgrade` with `ok:false` fails the connect
/// of both the bare connection and the cluster's node client.
#[test]
fn declined_upgrade_is_a_client_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        for _ in 0..2 {
            let (stream, _) = listener.accept().expect("accept");
            let mut line = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("read upgrade");
            let request = Json::parse(line.trim()).expect("json");
            assert_eq!(
                request.get("op").and_then(Json::as_str),
                Some("wire_upgrade")
            );
            let reply = Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::str("unsupported wire version 1")),
            ]);
            writeln!(&stream, "{reply}").expect("answer");
        }
    });
    match WireConn::connect(&addr, Some(Duration::from_secs(30)), WirePreference::Auto) {
        Err(WireError::Declined(e)) => assert!(e.contains("unsupported"), "{e}"),
        other => panic!("expected a declined upgrade, got {other:?}"),
    }
    let mut client = NodeClient::new(&addr, Duration::from_secs(30));
    let job = job_spec_json(&spec("fp32")).expect("job");
    match client.exec_tile(&job, 0) {
        Err(NodeError::Io(e)) => assert!(e.contains("declined"), "{e}"),
        other => panic!("expected a connect error, got {other:?}"),
    }
    peer.join().expect("peer");
}
