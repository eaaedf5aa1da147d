//! Multi-node execution — the paper's §VII extension ("could be further
//! extended to multiple nodes, e.g. using MPI or a Cloud-based solution").
//!
//! The distance matrix tiles are distributed Round-robin over every GPU of
//! every node. The communication model follows an MPI implementation:
//!
//! 1. **broadcast** — both input series go to every node (tree broadcast);
//! 2. **compute** — each node runs its tiles exactly like the single-node
//!    driver (overlapping streams, per-node CPU merge of its own tiles);
//! 3. **reduce** — the per-node partial profiles (min/argmin are
//!    associative and commutative) combine to the root with a binary tree
//!    reduction.
//!
//! Functionally the result is **identical** to a single-node run — min
//! merging is order-insensitive up to ties, and ties are resolved by
//! ascending row offset before reduction order matters.

use crate::config::{MdmpConfig, MdmpError};
use crate::driver::{merge_model, overlap_factor, submit_tile_costs};
use crate::profile::MatrixProfile;
use crate::tile_exec::{execute_tile, tile_cost_bundle};
use crate::tiling::{assign_tiles_weighted, compute_tile_list};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::ClusterSystem;
use mdmp_precision::{dispatch_mode, Real};

/// Result of a cluster run.
#[derive(Debug)]
pub struct ClusterRun {
    /// The reduced matrix profile (identical to a single-node result).
    pub profile: MatrixProfile,
    /// Modelled end-to-end seconds: broadcast + slowest node (compute +
    /// node-local merge) + tree reduction.
    pub modeled_seconds: f64,
    /// Modelled broadcast seconds.
    pub broadcast_seconds: f64,
    /// Modelled reduction seconds.
    pub reduce_seconds: f64,
    /// Per-node compute makespans.
    pub node_makespans: Vec<f64>,
}

/// Run the matrix profile across a multi-node cluster.
pub fn run_on_cluster(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    cluster: &mut ClusterSystem,
) -> Result<ClusterRun, MdmpError> {
    macro_rules! run {
        ($p:ty, $m:ty) => {
            run_cluster_generic::<$p, $m>(reference, query, cfg, cluster)
        };
    }
    dispatch_mode!(cfg.mode, run)
}

fn run_cluster_generic<P: Real, M: Real>(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    cluster: &mut ClusterSystem,
) -> Result<ClusterRun, MdmpError> {
    let kahan = cfg.mode.compensated_precalc();
    if reference.dims() != query.dims() {
        return Err(MdmpError::DimensionalityMismatch {
            reference: reference.dims(),
            query: query.dims(),
        });
    }
    if reference.len() < cfg.m || query.len() < cfg.m {
        return Err(MdmpError::BadConfig(
            "series shorter than the segment length".into(),
        ));
    }
    let n_r = reference.n_segments(cfg.m);
    let n_q = query.n_segments(cfg.m);
    cfg.validate(n_r, n_q)?;
    let d = reference.dims();
    let tiles = compute_tile_list(n_r, n_q, cfg.n_tiles)?;
    cluster.reset();

    let total_devices = cluster.total_devices();
    let nodes = cluster.node_count();
    let overlap = overlap_factor(tiles.len(), total_devices);
    let assignment = cluster_weights_assignment(cluster, &tiles, cfg.schedule);
    let mut streams = vec![0usize; total_devices];
    let mut node_tiles: Vec<Vec<crate::tiling::Tile>> = vec![Vec::new(); nodes];
    let mut global = MatrixProfile::new_unset(n_q, d);

    for tile in &tiles {
        let global_dev = assignment[tile.index];
        let (node_idx, local_dev) = cluster.locate(global_dev);
        let out = execute_tile::<P, M>(reference, query, tile, cfg, kahan);
        submit_tile_costs(
            cluster.node_mut(node_idx),
            local_dev,
            streams[global_dev],
            tile.index,
            &out.kernel_costs,
            out.h2d_bytes,
            out.d2h_bytes,
            out.device_bytes,
            overlap,
        )?;
        streams[global_dev] += 1;
        node_tiles[node_idx].push(*tile);
        // Functional merging is associative; merge in tile order for
        // deterministic tie behaviour.
        global.merge_min_columns(&out.profile, tile.col0);
    }

    // Per-node CPU merge of its own tiles; the slowest node gates.
    let node_makespans: Vec<f64> = (0..nodes)
        .map(|i| {
            let (merge_s, _) = merge_model(&node_tiles[i], d, cfg.mode.main_format());
            cluster.node(i).makespan() + merge_s
        })
        .collect();
    let compute = node_makespans.iter().copied().fold(0.0, f64::max);

    // Network: broadcast both input series, reduce the partial profiles.
    let input_bytes =
        ((reference.len() + query.len()) * d * cfg.mode.precalc_format().bytes()) as u64;
    let profile_bytes = (n_q * d) as u64 * (cfg.mode.main_format().bytes() as u64 + 8);
    let broadcast_seconds = cluster.interconnect.broadcast_seconds(input_bytes, nodes);
    let reduce_seconds = cluster.interconnect.reduce_seconds(profile_bytes, nodes);

    Ok(ClusterRun {
        profile: global,
        modeled_seconds: broadcast_seconds + compute + reduce_seconds,
        broadcast_seconds,
        reduce_seconds,
        node_makespans,
    })
}

fn cluster_weights_assignment(
    cluster: &ClusterSystem,
    tiles: &[crate::tiling::Tile],
    schedule: crate::tiling::TileSchedule,
) -> Vec<usize> {
    let weights: Vec<f64> = (0..cluster.total_devices())
        .map(|g| {
            let (node, local) = cluster.locate(g);
            let spec = &cluster.node(node).device(local).spec;
            spec.mem_bandwidth * spec.mem_eff_fp64
        })
        .collect();
    assign_tiles_weighted(tiles, &weights, schedule)
}

/// Cost-only cluster estimate at arbitrary scale (the multi-node analogue
/// of [`crate::estimate_run`]).
pub fn estimate_cluster(
    n_r: usize,
    n_q: usize,
    d: usize,
    cfg: &MdmpConfig,
    cluster: &mut ClusterSystem,
) -> Result<ClusterRun, MdmpError> {
    cfg.validate(n_r, n_q)?;
    let tiles = compute_tile_list(n_r, n_q, cfg.n_tiles)?;
    cluster.reset();
    let total_devices = cluster.total_devices();
    let nodes = cluster.node_count();
    let overlap = overlap_factor(tiles.len(), total_devices);
    let kahan = cfg.mode.compensated_precalc();
    let assignment = cluster_weights_assignment(cluster, &tiles, cfg.schedule);
    let mut streams = vec![0usize; total_devices];
    let mut node_tiles: Vec<Vec<crate::tiling::Tile>> = vec![Vec::new(); nodes];

    for tile in &tiles {
        let global_dev = assignment[tile.index];
        let (node_idx, local_dev) = cluster.locate(global_dev);
        let (costs, h2d, d2h, device_bytes) = tile_cost_bundle(tile, d, cfg, kahan);
        submit_tile_costs(
            cluster.node_mut(node_idx),
            local_dev,
            streams[global_dev],
            tile.index,
            &costs,
            h2d,
            d2h,
            device_bytes,
            overlap,
        )?;
        streams[global_dev] += 1;
        node_tiles[node_idx].push(*tile);
    }
    let node_makespans: Vec<f64> = (0..nodes)
        .map(|i| {
            let (merge_s, _) = merge_model(&node_tiles[i], d, cfg.mode.main_format());
            cluster.node(i).makespan() + merge_s
        })
        .collect();
    let compute = node_makespans.iter().copied().fold(0.0, f64::max);
    let m = cfg.m;
    let input_bytes =
        (((n_r + m - 1) + (n_q + m - 1)) * d * cfg.mode.precalc_format().bytes()) as u64;
    let profile_bytes = (n_q * d) as u64 * (cfg.mode.main_format().bytes() as u64 + 8);
    let broadcast_seconds = cluster.interconnect.broadcast_seconds(input_bytes, nodes);
    let reduce_seconds = cluster.interconnect.reduce_seconds(profile_bytes, nodes);
    Ok(ClusterRun {
        profile: MatrixProfile::new_unset(n_q.max(1), d.max(1)),
        modeled_seconds: broadcast_seconds + compute + reduce_seconds,
        broadcast_seconds,
        reduce_seconds,
        node_makespans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_with_mode;
    use mdmp_data::synthetic::{generate_pair, Pattern, SyntheticConfig};
    use mdmp_gpu_sim::{DeviceSpec, GpuSystem, Interconnect};
    use mdmp_precision::PrecisionMode;

    fn data() -> mdmp_data::SyntheticPair {
        generate_pair(&SyntheticConfig {
            n_subsequences: 512,
            dims: 3,
            m: 16,
            pattern: Pattern::Triangle,
            embeddings: 2,
            noise: 0.3,
            pattern_amplitude: 1.0,
            seed: 21,
        })
    }

    #[test]
    fn cluster_result_matches_single_node() {
        let p = data();
        for mode in [PrecisionMode::Fp64, PrecisionMode::Fp16] {
            let cfg = MdmpConfig::new(16, mode).with_tiles(16);
            let mut single = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
            let expected = run_with_mode(&p.reference, &p.query, &cfg, &mut single).unwrap();
            let mut cluster =
                ClusterSystem::homogeneous(DeviceSpec::a100(), 4, 2, Interconnect::default());
            let got = run_on_cluster(&p.reference, &p.query, &cfg, &mut cluster).unwrap();
            assert_eq!(expected.profile, got.profile, "{mode}");
        }
    }

    #[test]
    fn more_nodes_reduce_compute_time() {
        let cfg = MdmpConfig::new(64, PrecisionMode::Fp64).with_tiles(64);
        let n = 1 << 15;
        let t = |nodes: usize| {
            let mut cluster =
                ClusterSystem::homogeneous(DeviceSpec::a100(), nodes, 4, Interconnect::default());
            estimate_cluster(n, n, 64, &cfg, &mut cluster)
                .unwrap()
                .modeled_seconds
        };
        let t1 = t(1);
        let t2 = t(2);
        let t4 = t(4);
        assert!(t2 < t1 * 0.6, "2 nodes: {t2} vs {t1}");
        assert!(t4 < t2 * 0.6, "4 nodes: {t4} vs {t2}");
        // Strong-scaling efficiency stays reasonable at 4 nodes.
        let eff = t1 / (4.0 * t4);
        assert!(eff > 0.8, "4-node efficiency {eff}");
    }

    #[test]
    fn network_overhead_dominates_tiny_problems() {
        // Communication-bound regime: very small problem, many nodes.
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64).with_tiles(64);
        let mut big = ClusterSystem::homogeneous(
            DeviceSpec::a100(),
            8,
            4,
            Interconnect {
                bandwidth: 1.0e6, // pathological 1 MB/s network
                latency: 1.0e-3,
            },
        );
        let run = estimate_cluster(4096, 4096, 8, &cfg, &mut big).unwrap();
        assert!(
            run.broadcast_seconds + run.reduce_seconds
                > run.node_makespans.iter().copied().fold(0.0, f64::max),
            "slow network must dominate"
        );
    }

    #[test]
    fn broadcast_and_reduce_grow_logarithmically() {
        let cfg = MdmpConfig::new(64, PrecisionMode::Fp64).with_tiles(64);
        let n = 1 << 14;
        let net = |nodes: usize| {
            let mut cluster =
                ClusterSystem::homogeneous(DeviceSpec::a100(), nodes, 1, Interconnect::default());
            let run = estimate_cluster(n, n, 16, &cfg, &mut cluster).unwrap();
            run.broadcast_seconds + run.reduce_seconds
        };
        let n2 = net(2);
        let n8 = net(8);
        assert!(n8 <= n2 * 3.0 + 1e-12, "tree depth 3 vs 1: {n8} vs {n2}");
        assert!(n8 > n2, "more nodes cost more rounds");
    }
}
