//! Transport parity at cluster scope: a coordinator forced onto JSON
//! lines and one negotiating the binary frame upgrade must merge
//! **bit-identical** profiles from the same nodes — and the binary run
//! must move materially fewer bytes.

use mdmp_cluster::{run_cluster, ClusterConfig};
use mdmp_core::{run_with_mode, MatrixProfile};
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_service::WirePreference;
use mdmp_service::{serve, JobInput, JobSpec, Priority, Server, Service, ServiceConfig};
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

fn config(addrs: &[String], wire: WirePreference) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(addrs.to_vec());
    cfg.request_timeout = Duration::from_secs(30);
    cfg.wire = wire;
    cfg
}

/// JSON and binary transports merge bit-identical profiles, both equal to
/// the single-node ground truth, in the wide, narrow-float and half
/// precision modes — and the binary run moves less than half the bytes.
#[test]
fn binary_and_json_transports_merge_bit_identically() {
    let (_servers, addrs) = start_nodes(2);
    for mode in ["fp64", "fp32", "fp16"] {
        let spec = spec(mode);
        let local = single_node_profile(&spec);
        let json_run = run_cluster(&spec, &config(&addrs, WirePreference::Json))
            .unwrap_or_else(|e| panic!("json cluster run in {mode}: {e}"));
        let bin_run = run_cluster(&spec, &config(&addrs, WirePreference::Auto))
            .unwrap_or_else(|e| panic!("binary cluster run in {mode}: {e}"));
        assert_bit_identical(&json_run.profile, &local, &format!("{mode} json"));
        assert_bit_identical(&bin_run.profile, &local, &format!("{mode} binary"));
        assert!(
            json_run.nodes.iter().all(|n| !n.binary_wire),
            "{mode}: forced-JSON run must not negotiate frames"
        );
        assert_eq!(
            bin_run.binary_wire_nodes(),
            addrs.len(),
            "{mode}: every node must accept the upgrade"
        );
        let json_bytes = json_run.wire_bytes_received();
        let bin_bytes = bin_run.wire_bytes_received();
        assert!(
            bin_bytes * 2 < json_bytes,
            "{mode}: binary moved {bin_bytes} B vs JSON {json_bytes} B"
        );
    }
}

/// Node loss on the binary transport behaves exactly as on JSON: the
/// kill is contained, tiles re-dispatch, and the merged profile stays
/// bit-identical.
#[test]
fn node_kill_on_binary_wire_stays_bit_identical() {
    let (_servers, addrs) = start_nodes(3);
    let spec = spec("fp32");
    let local = single_node_profile(&spec);
    let mut cluster = config(&addrs, WirePreference::Auto);
    // Request 0 is node 1's granted first lease, so the kill always fires.
    cluster.fault_plan = "nodekill@1:0".parse().expect("fault plan");
    let run = run_cluster(&spec, &cluster).expect("cluster run");
    assert_bit_identical(&run.profile, &local, "fp32 binary with node loss");
    assert_eq!(run.quarantined_nodes(), vec![1]);
    assert!(run.redispatches >= 1);
}
