//! `cluster-2node`: two in-process service nodes (`workers=1`,
//! `host_workers=1`) on the binary wire; each op is one FP32 job over
//! fixed series, run with `mdmp_cluster::run_cluster`. Node precalc
//! caches are warm after the setup's first op.
//!
//! The traced op replays the job through the coordinator's public pieces
//! with a static split: one thread per node sends `tile_exec` requests
//! (`NodeClient::request_msg`), decodes them (`decode_tile`), and the
//! caller merges with `ReorderMerge::offer`.

use super::{
    fp64_profile, gpusim_metrics, imbalance, one_gpu, pct, remainder, same_bits, self_time, total,
    OpFacts, Shape, Workload, NOISE, PATTERN,
};
use crate::micro;
use crate::trace::{OpBreakdown, Tracer};
use mdmp_cluster::{
    decode_tile, job_spec_json, run_cluster, tile_exec_request, ClusterConfig, ClusterRun,
    DecodedTile, NodeClient, ReorderMerge,
};
use mdmp_core::{run_with_mode, MatrixProfile};
use mdmp_gpu_sim::CostLedger;
use mdmp_precision::PrecisionMode;
use mdmp_service::{
    serve, Chunk, JobInput, JobSpec, Json, Message, Priority, Server, Service, ServiceConfig,
    WirePreference,
};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Worker nodes in the cluster.
const NODES: usize = 2;

/// Per-request timeout of the coordinator's node clients.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The node configuration.
fn node_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        host_workers: 1,
        ..ServiceConfig::default()
    }
}

/// The cluster workload.
pub struct Cluster {
    shape: Shape,
    spec: JobSpec,
    prepared: Option<Prepared>,
}

struct Prepared {
    job: Json,
    expected: MatrixProfile,
    fp64: MatrixProfile,
    ledger: CostLedger,
    merge_s: f64,
    n_ref: usize,
    n_query: usize,
    dims: usize,
    tiles: usize,
}

/// The running nodes and the coordinator configuration.
pub struct ClusterFixture {
    config: ClusterConfig,
    nodes: Vec<(Arc<Service>, Server)>,
    sample_tile: Option<DecodedTile>,
}

impl Drop for ClusterFixture {
    fn drop(&mut self) {
        for (service, server) in &mut self.nodes {
            server.stop();
            service.shutdown(false);
        }
    }
}

impl Cluster {
    /// The workload for `seed` at `shape`.
    pub fn new(shape: Shape, seed: u64) -> Cluster {
        Cluster {
            shape,
            spec: JobSpec {
                input: JobInput::Synthetic {
                    n: shape.n,
                    d: shape.d,
                    pattern: PATTERN,
                    noise: NOISE,
                    seed,
                },
                m: shape.m,
                mode: PrecisionMode::Fp32,
                tiles: shape.tiles,
                gpus: 1,
                priority: Priority::Normal,
                max_retries: 0,
                fault_plan: None,
                tile_retries: 2,
                fused_rows: None,
                tc_chunk_k: None,
                tile_deadline_ms: None,
                deadline_ms: None,
            },
            prepared: None,
        }
    }

    fn prep(&self) -> Result<&Prepared, String> {
        self.prepared
            .as_ref()
            .ok_or_else(|| "prepare() was not run".to_string())
    }

    fn cells(&self) -> Result<u64, String> {
        let p = self.prep()?;
        Ok((p.n_ref * p.n_query * p.dims) as u64)
    }

    /// One node's share of the traced replay: tiles `node`, `node + 2`, …
    fn replay_node(
        &self,
        addr: &str,
        node: usize,
        tracer: &Tracer,
        op: u64,
        root: u64,
        tx: &mpsc::Sender<Result<DecodedTile, String>>,
    ) {
        let Ok(p) = self.prep() else { return };
        let mut client = NodeClient::with_wire(addr, TIMEOUT, WirePreference::Auto);
        for tile in (node..p.tiles).step_by(NODES) {
            let request = Message::json(tile_exec_request(&p.job, tile));
            let decoded = tracer
                .span(op, Some(root), "cluster.tile_round_trip", |_| {
                    client.request_msg(&request)
                })
                .map_err(|e| format!("tile {tile}: {e}"))
                .and_then(|reply| {
                    tracer.span(op, Some(root), "cluster.decode", |_| decode_reply(reply))
                });
            let failed = decoded.is_err();
            if tx.send(decoded).is_err() || failed {
                return;
            }
        }
    }
}

/// Decode the single tile of a `tile_exec` reply.
fn decode_reply(reply: Message) -> Result<DecodedTile, String> {
    if reply.json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("tile_exec failed: {}", reply.json));
    }
    let mut chunks: Vec<Option<Chunk>> = reply.chunks.into_iter().map(Some).collect();
    let entry = reply
        .json
        .get("tiles")
        .and_then(Json::as_arr)
        .and_then(|tiles| tiles.first())
        .ok_or("tile_exec reply carries no tile")?;
    decode_tile(entry, &mut chunks)
}

impl Workload for Cluster {
    type Fixture = ClusterFixture;
    type Out = ClusterRun;

    const ROOT: &'static str = "cluster.op";

    fn prepare(&mut self) -> Result<(), String> {
        let (reference, query) = self.spec.materialize()?;
        let run = run_with_mode(&reference, &query, &self.spec.config(), &mut one_gpu())
            .map_err(|e| format!("single-node reference run: {e}"))?;
        let n_ref = reference.n_segments(self.spec.m);
        let n_query = query.n_segments(self.spec.m);
        let tiles = mdmp_core::job_tile_count(n_ref, n_query, &self.spec.config())
            .map_err(|e| e.to_string())?;
        self.prepared = Some(Prepared {
            job: job_spec_json(&self.spec)?,
            fp64: fp64_profile(&reference, &query, self.spec.m)?,
            expected: run.profile,
            ledger: run.ledger,
            merge_s: run.merge_seconds,
            n_ref,
            n_query,
            dims: reference.dims(),
            tiles,
        });
        Ok(())
    }

    fn setup(&self) -> Result<ClusterFixture, String> {
        let mut nodes = Vec::with_capacity(NODES);
        for _ in 0..NODES {
            let service = Service::start(node_config());
            let server =
                serve(Arc::clone(&service), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
            nodes.push((service, server));
        }
        let mut config = ClusterConfig::new(
            nodes
                .iter()
                .map(|(_, server)| server.local_addr().to_string())
                .collect(),
        );
        config.request_timeout = TIMEOUT;
        config.wire = WirePreference::Auto;
        let mut fx = ClusterFixture {
            config,
            nodes,
            sample_tile: None,
        };
        let warm = self.op(&mut fx)?;
        self.check(&mut fx, warm)?;
        Ok(fx)
    }

    fn op(&self, fx: &mut ClusterFixture) -> Result<ClusterRun, String> {
        run_cluster(&self.spec, &fx.config).map_err(|e| e.to_string())
    }

    fn check(&self, _fx: &mut ClusterFixture, run: ClusterRun) -> Result<OpFacts, String> {
        let p = self.prep()?;
        if !same_bits(&run.profile, &p.expected) {
            return Err("cluster profile differs from run_with_mode on the same spec".into());
        }
        // A node that found every tile taken before its first request
        // never connects, so only nodes that served tiles are checked.
        if let Some(node) = run
            .nodes
            .iter()
            .find(|n| n.tiles_executed > 0 && !n.binary_wire)
        {
            return Err(format!("node {} served tiles over JSON lines", node.addr));
        }
        let executed: Vec<f64> = run.nodes.iter().map(|n| n.tiles_executed as f64).collect();
        let mut facts = OpFacts::new(self.cells()?, run.modelled_makespan_seconds())
            .with("precalc_hits", run.precalc_hits() as f64)
            .with("precalc_misses", run.precalc_misses() as f64)
            .with("duplicates", run.duplicates_dropped as f64)
            .with("tiles", run.tiles_total as f64)
            .with("steals", run.steals as f64)
            .with("node_busy_imbalance", imbalance(&executed));
        facts.bytes_up = run.wire_bytes_sent();
        facts.bytes_down = run.wire_bytes_received();
        Ok(facts)
    }

    fn traced_op(
        &self,
        fx: &mut ClusterFixture,
        tracer: &Tracer,
        op: u64,
    ) -> Result<OpFacts, String> {
        let p = self.prep()?;
        let addrs = fx.config.nodes.clone();
        let (profile, first) = tracer.span(op, None, Self::ROOT, |root| {
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|scope| {
                for (node, addr) in addrs.iter().enumerate() {
                    let tx = tx.clone();
                    scope.spawn(move || self.replay_node(addr, node, tracer, op, root, &tx));
                }
                drop(tx);
                let mut merge = ReorderMerge::new(p.n_query, p.dims, p.tiles);
                let mut first = None;
                for decoded in rx {
                    let tile = decoded?;
                    if tile.tile == 0 {
                        first = Some(tile.clone());
                    }
                    tracer.span(op, Some(root), "cluster.merge", |_| merge.offer(tile))?;
                }
                Ok::<_, String>((merge.finish()?, first))
            })
        })?;
        if !same_bits(&profile, &p.expected) {
            return Err("traced tile replay differs from run_with_mode".into());
        }
        if fx.sample_tile.is_none() {
            fx.sample_tile = first;
        }
        Ok(OpFacts::new(self.cells()?, 0.0))
    }

    fn recall_pct(&self, _fx: &ClusterFixture) -> Result<f64, String> {
        let p = self.prep()?;
        Ok(super::recall_pct(&p.fp64, &p.expected))
    }

    fn layer_metrics(
        &self,
        fx: &mut ClusterFixture,
        facts: &[OpFacts],
        breakdown: &[OpBreakdown],
        tracer: &Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let p = self.prep()?;
        let round_trips: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "cluster.tile_round_trip")
            .map(|s| s.end - s.start)
            .collect();
        let per_op = |f: fn(&OpFacts) -> f64| -> Vec<f64> { facts.iter().map(f).collect() };
        let sample = fx
            .sample_tile
            .as_ref()
            .ok_or("the traced run decoded no tile 0")?;
        let reply = Message {
            json: Json::obj(vec![
                ("tile", Json::num(sample.tile as f64)),
                ("col0", Json::num(sample.col0 as f64)),
                ("n_query", Json::num(sample.n_query as f64)),
                ("dims", Json::num(sample.dims as f64)),
                ("p_chunk", Json::num(0.0)),
                ("i_chunk", Json::num(1.0)),
            ]),
            chunks: vec![Chunk::F64(sample.p.clone()), Chunk::I64(sample.i.clone())],
        };
        let (encode, decode) = micro::codec_ns_per_byte(&reply)?;
        let hits = total(facts, "precalc_hits");
        let ops = facts.len().max(1) as f64;
        let mut out = vec![
            (
                "cluster.tile_round_trip_s",
                crate::stats::median(&round_trips),
            ),
            (
                "cluster.merge_self_s",
                self_time(breakdown, "cluster.decode") + self_time(breakdown, "cluster.merge"),
            ),
            ("cluster.remainder_s", remainder(breakdown)),
            (
                "cluster.precalc_hit_pct",
                pct(hits, hits + total(facts, "precalc_misses")),
            ),
            (
                "cluster.duplicate_pct",
                pct(total(facts, "duplicates"), total(facts, "tiles")),
            ),
            ("cluster.steals_per_op", total(facts, "steals") / ops),
            (
                "cluster.node_busy_imbalance",
                total(facts, "node_busy_imbalance") / ops,
            ),
            (
                "wire.bytes_up_per_op",
                crate::stats::median(&per_op(|f| f.bytes_up as f64)),
            ),
            (
                "wire.bytes_down_per_op",
                crate::stats::median(&per_op(|f| f.bytes_down as f64)),
            ),
            (
                "wire.bytes_per_cell",
                crate::stats::median(&per_op(|f| {
                    (f.bytes_up + f.bytes_down) as f64 / f.cells as f64
                })),
            ),
            ("wire.encode_ns_per_byte", encode),
            ("wire.decode_ns_per_byte", decode),
        ];
        out.extend(gpusim_metrics(&p.ledger, p.merge_s));
        Ok(out)
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let s = self.shape;
        vec![
            ("mode", self.spec.mode.label().to_string()),
            (
                "shape",
                format!("n={} d={} m={} tiles={}", s.n, s.d, s.m, s.tiles),
            ),
            ("nodes", NODES.to_string()),
            (
                "node_service_config",
                super::describe_service(&node_config()),
            ),
            ("wire", "binary frames".to_string()),
        ]
    }
}
