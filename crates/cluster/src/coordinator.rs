//! The cluster coordinator: shard a job's tiles across worker nodes,
//! steal from stragglers, survive node loss, and merge bit-identically.
//!
//! One thread per node drives the node's persistent connection through
//! the claim loop of [`crate::lease::LeaseTable`], starting from the first
//! lease the table grants it before any node claims; completed tiles flow
//! over a channel into the in-order [`ReorderMerge`] buffer (the PR2
//! reorder buffer, lifted to cluster scope). Node failure — connection
//! drop, read-deadline overrun, repeated tile errors — feeds the
//! cluster-scope health ledger ([`mdmp_gpu_sim::DeviceHealth`], reused
//! verbatim: a dead node *is* a quarantined device at cluster scope); a
//! node that exhausts its failure budget is quarantined, its leased tiles
//! re-dispatched to survivors, and its unclaimed shard drained into the
//! re-dispatch queue.
//!
//! A fault-free run executes every tile exactly once: `run_cluster`
//! joins every in-flight request before it returns, so a second copy of
//! a slow tile could never shorten a run, and none is leased.
//!
//! The run's modelled clock does not come from this host-timed schedule:
//! [`ClusterRun::modelled_makespan_seconds`] replays the lease table over
//! the merged tiles' device seconds ([`replay_makespan`]).
//!
//! **Determinism argument.** Remote tiles are computed by
//! [`mdmp_core::run_tile_subset`] over the job's *global* tiling, so a
//! tile's planes are bit-identical wherever it runs; planes cross the
//! wire as exact bit patterns (binary frames narrow a plane only when
//! every value round-trips), so transport is exact; and the reorder
//! buffer merges tiles strictly in ascending tile index, exactly once
//! (first delivery wins, a late duplicate is dropped), which is the
//! single-node driver's merge order. Schedules, steals and re-dispatches
//! therefore cannot change a single output bit (DESIGN.md §12).

use crate::client::{tile_exec_request, DecodedTile, NodeClient};
use crate::lease::{replay_makespan, Completion, LeaseTable, NextLease};
use crate::sync;
use mdmp_core::{job_tile_count, MatrixProfile};
use mdmp_faults::{ClusterFaultPlan, NodeFaultKind};
use mdmp_gpu_sim::DeviceHealth;
use mdmp_service::{job_spec_json, JobSpec, Json, WirePreference};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Coordinator tunables.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker node addresses (`host:port`, each an `mdmp-service`).
    pub nodes: Vec<String>,
    /// Consecutive failures before a node is quarantined.
    pub quarantine_threshold: u32,
    /// Reply deadline per tile request; an overrun counts as a node
    /// failure.
    pub request_timeout: Duration,
    /// Injected cluster-scope faults (tests and chaos benches).
    pub fault_plan: ClusterFaultPlan,
    /// Wire transport for node connections. Its one value negotiates the
    /// binary frame upgrade (DESIGN.md §15); the field survives only
    /// because the benchmark harness sets it.
    pub wire: WirePreference,
}

impl ClusterConfig {
    /// A coordinator over `nodes` with default resilience settings.
    pub fn new(nodes: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            nodes,
            quarantine_threshold: 3,
            request_timeout: Duration::from_secs(60),
            fault_plan: ClusterFaultPlan::new(),
            wire: WirePreference::Auto,
        }
    }
}

/// Per-node outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The node's address.
    pub addr: String,
    /// Tiles whose result this node delivered first (merged).
    pub tiles_merged: u64,
    /// Tile results this node delivered, including dropped duplicates.
    pub tiles_executed: u64,
    /// Tiles this node stole from other shards.
    pub tiles_stolen: u64,
    /// Modelled device seconds of the tiles this node executed.
    pub device_seconds: f64,
    /// Failed requests (transport, deadline, worker errors).
    pub failures: u64,
    /// Tiles whose precalculation the worker served from cache.
    pub precalc_hits: u64,
    /// Tiles whose precalculation the worker computed.
    pub precalc_misses: u64,
    /// Whether the node was quarantined before the job finished.
    pub quarantined: bool,
    /// Bytes the coordinator wrote to this node, across reconnects.
    pub bytes_sent: u64,
    /// Bytes the coordinator read from this node, across reconnects.
    pub bytes_received: u64,
    /// Always true: every node connection speaks binary frames. Kept for
    /// the benchmark harness, which checks it.
    pub binary_wire: bool,
}

impl NodeReport {
    fn new(addr: &str) -> NodeReport {
        NodeReport {
            addr: addr.to_string(),
            tiles_merged: 0,
            tiles_executed: 0,
            tiles_stolen: 0,
            device_seconds: 0.0,
            failures: 0,
            precalc_hits: 0,
            precalc_misses: 0,
            quarantined: false,
            bytes_sent: 0,
            bytes_received: 0,
            binary_wire: true,
        }
    }

    fn absorb_wire(&mut self, client: &NodeClient) {
        self.bytes_sent = client.bytes_sent();
        self.bytes_received = client.bytes_received();
    }
}

/// The outcome of a cluster run.
#[derive(Debug)]
pub struct ClusterRun {
    /// The merged matrix profile — bit-identical to a single-node run.
    pub profile: MatrixProfile,
    /// Tiles in the job's global tiling.
    pub tiles_total: usize,
    /// Tiles stolen across shards.
    pub steals: u64,
    /// Tiles re-dispatched after a failed lease.
    pub redispatches: u64,
    /// Duplicate results dropped by the first-delivery-wins rule.
    pub duplicates_dropped: u64,
    /// Per-node reports, in node order.
    pub nodes: Vec<NodeReport>,
    /// Modelled device seconds of each merged tile, by tile index.
    pub tile_seconds: Vec<f64>,
    /// Wall-clock seconds of the whole cluster run.
    pub wall_seconds: f64,
}

impl ClusterRun {
    /// Total precalc cache hits across nodes.
    pub fn precalc_hits(&self) -> u64 {
        self.nodes.iter().map(|n| n.precalc_hits).sum()
    }

    /// Total precalc cache misses across nodes.
    pub fn precalc_misses(&self) -> u64 {
        self.nodes.iter().map(|n| n.precalc_misses).sum()
    }

    /// Total bytes the coordinator wrote to nodes.
    pub fn wire_bytes_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total bytes the coordinator read from nodes.
    pub fn wire_bytes_received(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_received).sum()
    }

    /// Indices of nodes that were quarantined.
    pub fn quarantined_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// The cluster's makespan on the modelled device clock: the lease
    /// protocol replayed over [`ClusterRun::tile_seconds`] on the nodes
    /// that were not quarantined ([`replay_makespan`]). Host timing decides
    /// which node ran which tile, but not this number: it is a function of
    /// the tile costs and the survivor count alone. The tile costs come
    /// from the cost model and can still differ between runs, for example
    /// when a worker served a tile's precalculation from its cache.
    pub fn modelled_makespan_seconds(&self) -> f64 {
        let survivors = self.nodes.iter().filter(|n| !n.quarantined).count();
        replay_makespan(&self.tile_seconds, survivors)
    }

    /// Modelled throughput: tiles per modelled makespan second.
    pub fn modelled_tiles_per_second(&self) -> f64 {
        let makespan = self.modelled_makespan_seconds();
        if makespan > 0.0 {
            self.tiles_total as f64 / makespan
        } else {
            0.0
        }
    }

    /// Prometheus-style per-node metrics for the run.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE mdmp_cluster_tiles_total gauge\n");
        out.push_str(&format!("mdmp_cluster_tiles_total {}\n", self.tiles_total));
        for (name, value) in [
            ("mdmp_cluster_steals_total", self.steals),
            ("mdmp_cluster_redispatches_total", self.redispatches),
            (
                "mdmp_cluster_duplicates_dropped_total",
                self.duplicates_dropped,
            ),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        type NodeSeries = fn(&NodeReport) -> String;
        let series: [(&str, NodeSeries); 7] = [
            ("mdmp_cluster_node_tiles_merged_total", |n| {
                n.tiles_merged.to_string()
            }),
            ("mdmp_cluster_node_tiles_stolen_total", |n| {
                n.tiles_stolen.to_string()
            }),
            ("mdmp_cluster_node_failures_total", |n| {
                n.failures.to_string()
            }),
            ("mdmp_cluster_node_device_seconds_total", |n| {
                n.device_seconds.to_string()
            }),
            ("mdmp_cluster_node_quarantined", |n| {
                u8::from(n.quarantined).to_string()
            }),
            ("mdmp_cluster_node_wire_bytes_sent_total", |n| {
                n.bytes_sent.to_string()
            }),
            ("mdmp_cluster_node_wire_bytes_received_total", |n| {
                n.bytes_received.to_string()
            }),
        ];
        for (name, value_of) in series {
            out.push_str(&format!("# TYPE {name} counter\n"));
            for (node, report) in self.nodes.iter().enumerate() {
                out.push_str(&format!(
                    "{name}{{node=\"{node}\",addr=\"{}\"}} {}\n",
                    report.addr,
                    value_of(report)
                ));
            }
        }
        out
    }
}

/// Typed cluster failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The job cannot be distributed (bad config, in-memory input, …).
    BadSpec(String),
    /// Every node died before the job finished; the listed count of tiles
    /// was merged out of the expected total.
    AllNodesDown {
        /// Tiles merged before the cluster died.
        merged: usize,
        /// Tiles the job needed.
        expected: usize,
    },
    /// A worker answered with planes that do not fit the job (protocol
    /// violation — never a transient fault).
    Protocol(String),
    /// The coordinator could not spawn its node threads.
    Spawn(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadSpec(e) => write!(f, "bad cluster job: {e}"),
            ClusterError::AllNodesDown { merged, expected } => {
                write!(f, "all nodes down with {merged}/{expected} tiles merged")
            }
            ClusterError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClusterError::Spawn(e) => write!(f, "spawn: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// The cluster-scope reorder buffer: park out-of-order completions in a
/// `BTreeMap` and merge strictly in ascending tile index, each tile
/// exactly once — the single-node driver's merge order, so the output is
/// bit-identical regardless of completion order, duplicates included.
#[derive(Debug)]
pub struct ReorderMerge {
    profile: MatrixProfile,
    pending: BTreeMap<usize, DecodedTile>,
    cursor: usize,
    total: usize,
    duplicates: u64,
}

impl ReorderMerge {
    /// A buffer for a job with `total` tiles over an `n_query × dims`
    /// profile.
    pub fn new(n_query: usize, dims: usize, total: usize) -> ReorderMerge {
        ReorderMerge {
            profile: MatrixProfile::new_unset(n_query, dims),
            pending: BTreeMap::new(),
            cursor: 0,
            total,
            duplicates: 0,
        }
    }

    /// Offer a completed tile. Returns `Ok(true)` if it was accepted (and
    /// possibly unblocked in-order merging), `Ok(false)` for a duplicate
    /// (dropped), and `Err` for planes that cannot belong to the job.
    pub fn offer(&mut self, tile: DecodedTile) -> Result<bool, String> {
        if tile.tile >= self.total {
            return Err(format!(
                "tile {} out of range for a {}-tile job",
                tile.tile, self.total
            ));
        }
        if tile.dims != self.profile.dims() {
            return Err(format!(
                "tile {} has {} dims, job has {}",
                tile.tile,
                tile.dims,
                self.profile.dims()
            ));
        }
        if tile.col0 + tile.n_query > self.profile.n_query() {
            return Err(format!(
                "tile {} covers columns {}..{}, job has {}",
                tile.tile,
                tile.col0,
                tile.col0 + tile.n_query,
                self.profile.n_query()
            ));
        }
        let expect = tile.n_query * tile.dims;
        if tile.p.len() != expect || tile.i.len() != expect {
            return Err(format!(
                "tile {} planes have {}/{} elements, expected {expect}",
                tile.tile,
                tile.p.len(),
                tile.i.len()
            ));
        }
        if tile.tile < self.cursor || self.pending.contains_key(&tile.tile) {
            self.duplicates += 1;
            return Ok(false);
        }
        self.pending.insert(tile.tile, tile);
        while let Some(next) = self.pending.remove(&self.cursor) {
            let partial = MatrixProfile::from_raw(next.p, next.i, next.n_query, next.dims);
            self.profile.merge_min_columns(&partial, next.col0);
            self.cursor += 1;
        }
        Ok(true)
    }

    /// Tiles merged in order so far.
    pub fn merged(&self) -> usize {
        self.cursor
    }

    /// Duplicates this buffer itself dropped.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Whether every tile has been merged.
    pub fn is_complete(&self) -> bool {
        self.cursor == self.total
    }

    /// The merged profile; fails while tiles are missing.
    pub fn finish(self) -> Result<MatrixProfile, String> {
        if self.cursor == self.total {
            Ok(self.profile)
        } else {
            Err(format!(
                "merge incomplete: {}/{} tiles",
                self.cursor, self.total
            ))
        }
    }
}

struct Shared {
    table: Mutex<LeaseTable>,
    work: Condvar,
    health: DeviceHealth,
    job: Json,
    plan: ClusterFaultPlan,
    threshold: u32,
    timeout: Duration,
}

/// How long a node with nothing claimable waits before re-checking the
/// table (completions and re-dispatches also wake it via the condvar).
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// Run `spec` across the cluster and return the merged profile —
/// bit-identical to a single-node run of the same job — plus the run's
/// scheduling and resilience counters.
pub fn run_cluster(spec: &JobSpec, cluster: &ClusterConfig) -> Result<ClusterRun, ClusterError> {
    if cluster.nodes.is_empty() {
        return Err(ClusterError::BadSpec(
            "cluster needs at least one node".into(),
        ));
    }
    // Pin the tensor-core chunk width here (env override, else the format
    // default: a local run's precedence). The accumulator layout is part
    // of the numerical contract, and nodes resolving `MDMP_TC_CHUNK_K`
    // from their own environments could break cluster-vs-single-node
    // bit-identity.
    let pinned;
    let spec = match (spec.tc_chunk_k, spec.mode.tc_input()) {
        (None, Some(input)) => {
            pinned = JobSpec {
                tc_chunk_k: Some(spec.config().resolved_tc_chunk_k(input)),
                ..spec.clone()
            };
            &pinned
        }
        _ => spec,
    };
    let job = job_spec_json(spec).map_err(ClusterError::BadSpec)?;
    let (reference, query) = spec.materialize().map_err(ClusterError::BadSpec)?;
    let cfg = spec.config();
    let n_r = reference.n_segments(cfg.m);
    let n_q = query.n_segments(cfg.m);
    let total = job_tile_count(n_r, n_q, &cfg).map_err(|e| ClusterError::BadSpec(e.to_string()))?;
    let dims = reference.dims();
    let n_nodes = cluster.nodes.len();
    let started = Instant::now();

    let shared = Arc::new(Shared {
        table: Mutex::new(LeaseTable::new(total, n_nodes)),
        work: Condvar::new(),
        health: DeviceHealth::new(n_nodes, cluster.quarantine_threshold.max(1)),
        job,
        plan: cluster.fault_plan.clone(),
        threshold: cluster.quarantine_threshold.max(1),
        timeout: cluster.request_timeout,
    });

    let (tx, rx) = mpsc::channel::<DecodedTile>();
    let mut handles = Vec::with_capacity(n_nodes);
    {
        // No node can claim while this lock is held, and the first leases
        // are granted only once every thread exists: a failed spawn
        // returns with nothing granted, and the threads already running
        // steal every shard and exit.
        let mut table = sync::lock(&shared.table);
        for (node, addr) in cluster.nodes.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let addr = addr.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mdmp-cluster-node-{node}"))
                .spawn(move || node_loop(&shared, node, &addr, &tx))
                .map_err(|e| ClusterError::Spawn(e.to_string()))?;
            handles.push(handle);
        }
        table.grant_first_leases();
    }
    drop(tx);

    let mut merge = ReorderMerge::new(n_q, dims, total);
    let mut tile_seconds = vec![0.0; total];
    let mut fatal: Option<ClusterError> = None;
    while !merge.is_complete() {
        match rx.recv() {
            Ok(tile) => {
                let (index, seconds) = (tile.tile, tile.device_seconds);
                match merge.offer(tile) {
                    Ok(true) => tile_seconds[index] = seconds,
                    Ok(false) => {}
                    Err(e) => {
                        fatal = Some(ClusterError::Protocol(e));
                        break;
                    }
                }
            }
            // Every node thread exited (channel closed) with tiles
            // missing.
            Err(_) => break,
        }
    }

    let mut nodes = Vec::with_capacity(n_nodes);
    for (node, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(report) => nodes.push(report),
            Err(_) => {
                let mut report = NodeReport::new(&cluster.nodes[node]);
                report.quarantined = true;
                nodes.push(report);
            }
        }
    }
    if let Some(e) = fatal {
        return Err(e);
    }
    if !merge.is_complete() {
        return Err(ClusterError::AllNodesDown {
            merged: merge.merged(),
            expected: total,
        });
    }
    let profile = merge.finish().map_err(ClusterError::Protocol)?;
    let table = sync::lock(&shared.table);
    Ok(ClusterRun {
        profile,
        tiles_total: total,
        steals: table.steals(),
        redispatches: table.redispatches(),
        duplicates_dropped: table.duplicates_dropped(),
        nodes,
        tile_seconds,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

/// One node thread: claim tiles, execute them over the node's connection,
/// and feed merged completions to the coordinator until the job finishes
/// or the node is quarantined.
fn node_loop(
    shared: &Shared,
    node: usize,
    addr: &str,
    tx: &mpsc::Sender<DecodedTile>,
) -> NodeReport {
    let mut report = NodeReport::new(addr);
    let mut client = NodeClient::new(addr, shared.timeout);
    let mut seq = 0u64;
    let mut consecutive = 0u32;
    loop {
        // Claim the next tile (or wait for in-flight work to resolve).
        let tile = {
            let mut claimed = None;
            let mut table = sync::lock(&shared.table);
            loop {
                match table.next_for(node) {
                    NextLease::Finished => break,
                    NextLease::Tile { tile, stolen } => {
                        if stolen {
                            report.tiles_stolen += 1;
                        }
                        claimed = Some(tile);
                        break;
                    }
                    NextLease::Wait => {
                        let (guard, _) = sync::wait_timeout(&shared.work, table, WAIT_SLICE);
                        table = guard;
                    }
                }
            }
            match claimed {
                Some(tile) => tile,
                None => {
                    report.absorb_wire(&client);
                    return report;
                }
            }
        };

        // Execute it, injecting any scheduled cluster fault for this
        // (node, request) coordinate.
        let fault = shared.plan.node_fault(node, seq);
        seq += 1;
        let result = match fault {
            Some(NodeFaultKind::Kill) => {
                client.kill();
                Err(crate::client::NodeError::Io("injected node kill".into()))
            }
            Some(NodeFaultKind::DropConnection) => {
                Err(client.send_and_drop(&tile_exec_request(&shared.job, tile)))
            }
            None => client.exec_tile(&shared.job, tile),
        };

        match result {
            Ok(decoded) => {
                consecutive = 0;
                report.tiles_executed += 1;
                report.device_seconds += decoded.device_seconds;
                if decoded.precalc_hit {
                    report.precalc_hits += 1;
                } else {
                    report.precalc_misses += 1;
                }
                let completion = {
                    let mut table = sync::lock(&shared.table);
                    table.complete(node, tile)
                };
                shared.work.notify_all();
                if completion == Completion::Merged {
                    report.tiles_merged += 1;
                    // A closed channel means the coordinator stopped
                    // consuming (fatal protocol error) — nothing left to
                    // do with the result.
                    let _ = tx.send(decoded);
                }
            }
            Err(_) => {
                report.failures += 1;
                consecutive += 1;
                let _ = shared.health.record_failure(node);
                let dead = client.is_killed()
                    || consecutive >= shared.threshold
                    || shared.health.is_quarantined(node);
                {
                    let mut table = sync::lock(&shared.table);
                    table.fail(node, tile);
                    if dead {
                        table.quarantine(node);
                    }
                }
                shared.work.notify_all();
                if dead {
                    report.quarantined = true;
                    report.absorb_wire(&client);
                    return report;
                }
                // Transient failure: reconnect on the next request.
                client.disconnect();
            }
        }
    }
}
