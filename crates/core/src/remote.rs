//! Remote-execution hooks: run an arbitrary *subset* of a job's tiles.
//!
//! The cluster coordinator (`mdmp-cluster`) shards one job's tiles across
//! worker nodes; each node executes its leased tiles through
//! [`run_tile_subset`] and ships the per-tile result planes back. The
//! subset runner reuses the exact per-tile pipeline of the local driver —
//! same precalculation, same fault injection, same retry/quarantine
//! machinery, same validation gate — over the *global* tiling
//! ([`crate::compute_tile_list`] of the full job), so a tile computed
//! remotely is bit-identical to the same tile computed locally and the
//! coordinator's in-order merge reproduces the single-node profile
//! exactly (DESIGN.md §12).
//!
//! The worker ships actual result planes; only the per-tile device
//! seconds come from the cost model ([`crate::estimate_tile_seconds`]
//! prices the same one-tile requests without computing them).

use crate::config::{MdmpConfig, MdmpError, TileError};
use crate::driver::{overlap_factor, retry_backoff, submit_tile_costs, PrecalcStore};
use crate::profile::MatrixProfile;
use crate::tile_exec::{
    apply_plane_fault, compute_tile_precalc, execute_tile_from_precalc_pooled, max_profile_value,
    validate_profile_plane, PlaneBuffers,
};
use crate::tiling::{assign_tiles_weighted, compute_tile_list, Tile};
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultKind;
use mdmp_gpu_sim::{DeviceHealth, GpuSystem};
use mdmp_precision::{dispatch_mode, Real};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One remotely executed tile: its place in the global tiling, the result
/// planes, and the modelled device seconds it cost this node.
#[derive(Debug)]
pub struct SubsetTileResult {
    /// The tile's coordinates in the job's global tiling.
    pub tile: Tile,
    /// The tile's matrix profile over its query-column window
    /// (`tile.cols` columns, global reference indices).
    pub profile: MatrixProfile,
    /// Modelled device seconds this tile added to the node (makespan
    /// delta of the device it ran on).
    pub device_seconds: f64,
    /// Whether the precalculation came from the store.
    pub precalc_cached: bool,
}

/// The outcome of executing a tile subset on one node.
#[derive(Debug)]
pub struct TileSubsetRun {
    /// Per-tile results, in the order the indices were requested.
    pub results: Vec<SubsetTileResult>,
    /// Tiles served from the precalc store.
    pub precalc_hits: usize,
    /// Tiles whose precalculation was computed.
    pub precalc_misses: usize,
    /// Failed attempts that were retried.
    pub tile_retries: u64,
    /// Result planes rejected by the validation gate.
    pub plane_validation_failures: u64,
    /// Faults the configured plan injected.
    pub faults_injected: u64,
    /// Devices the health ledger quarantined while executing the subset.
    pub quarantined_devices: Vec<usize>,
}

/// Flatten a profile's value and index planes in k-major order (all of
/// dimension 0's columns, then dimension 1's, …) into the caller's
/// buffers — the layout every wire encoding of tile results uses, and the
/// order [`MatrixProfile::from_raw`] accepts on the way back in.
pub fn profile_planes_k_major(
    profile: &MatrixProfile,
    values: &mut Vec<f64>,
    indices: &mut Vec<i64>,
) {
    let (n_query, dims) = (profile.n_query(), profile.dims());
    values.clear();
    indices.clear();
    values.reserve(dims * n_query);
    indices.reserve(dims * n_query);
    for k in 0..dims {
        for j in 0..n_query {
            values.push(profile.value(j, k));
            indices.push(profile.index(j, k));
        }
    }
}

/// The number of tiles a job's configuration partitions into, after shape
/// validation — what a coordinator shards before any node runs anything.
pub fn job_tile_count(
    n_ref_segments: usize,
    n_query_segments: usize,
    cfg: &MdmpConfig,
) -> Result<usize, MdmpError> {
    cfg.validate(n_ref_segments, n_query_segments)?;
    Ok(compute_tile_list(n_ref_segments, n_query_segments, cfg.n_tiles)?.len())
}

/// Execute the tiles named by `indices` (positions in the job's global
/// tiling) on this node's leased devices, with the same retry, fault
/// injection, validation and quarantine behaviour as the local driver.
///
/// Indices may arrive in any order and need not be contiguous — the
/// coordinator decides sharding and work-stealing; this function treats
/// the list as a work queue. Duplicate indices are executed twice (the
/// coordinator's merge discards duplicates deterministically).
pub fn run_tile_subset(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    system: &mut GpuSystem,
    store: Option<&dyn PrecalcStore>,
    indices: &[usize],
) -> Result<TileSubsetRun, MdmpError> {
    macro_rules! run {
        ($p:ty, $m:ty) => {
            run_subset_generic::<$p, $m>(reference, query, cfg, system, store, indices)
        };
    }
    dispatch_mode!(cfg.mode, run)
}

fn run_subset_generic<P: Real, M: Real>(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    system: &mut GpuSystem,
    store: Option<&dyn PrecalcStore>,
    indices: &[usize],
) -> Result<TileSubsetRun, MdmpError> {
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
    let tiles = compute_tile_list(n_r, n_q, cfg.n_tiles)?;
    if let Some(&bad) = indices.iter().find(|&&i| i >= tiles.len()) {
        return Err(MdmpError::BadConfig(format!(
            "tile index {bad} out of range (job has {} tiles)",
            tiles.len()
        )));
    }

    system.reset();
    let n_gpu = system.device_count();
    // Overlap mirrors the local driver's decision for the *whole* job so
    // a tile's modelled cost does not depend on which node ran it.
    let overlap = overlap_factor(tiles.len(), n_gpu.max(1));
    let weights: Vec<f64> = (0..n_gpu)
        .map(|i| {
            let spec = &system.device(i).spec;
            spec.mem_bandwidth * spec.mem_eff_fp64
        })
        .collect();
    let assignment = assign_tiles_weighted(&tiles, &weights, cfg.schedule);
    let health = DeviceHealth::new(n_gpu, cfg.quarantine_threshold);
    let value_bound = max_profile_value(cfg.m);

    let mut streams = vec![0usize; n_gpu];
    let mut bufs = PlaneBuffers::<M>::new();
    let mut results = Vec::with_capacity(indices.len());
    let mut precalc_hits = 0usize;
    let mut precalc_misses = 0usize;
    let mut tile_retries = 0u64;
    let mut plane_validation_failures = 0u64;
    let mut faults_injected = 0u64;

    for &index in indices {
        let tile = &tiles[index];
        let preferred = assignment[index];
        let mut attempt: u32 = 0;
        let (out, cached, dev) = loop {
            let dev = health.dispatch(preferred, attempt as usize);
            let attempt_result = (|| -> Result<_, TileError> {
                let start = Instant::now();
                let fault = cfg
                    .fault_plan
                    .as_deref()
                    .and_then(|plan| plan.tile_fault(tile.index, attempt));
                if fault.is_some() {
                    faults_injected += 1;
                }
                match fault {
                    Some(FaultKind::Kernel) => return Err(TileError::Kernel { tile: tile.index }),
                    Some(FaultKind::Stall { millis }) => {
                        std::thread::sleep(Duration::from_millis(millis))
                    }
                    _ => {}
                }
                let mut compute = || {
                    Arc::new(compute_tile_precalc::<P>(
                        reference, query, tile, cfg, kahan,
                    ))
                };
                let (pre, cached) = match store {
                    Some(s) => s.fetch_or_compute(tile.index, &mut compute),
                    None => (compute(), false),
                };
                let mut out = execute_tile_from_precalc_pooled::<M>(
                    &pre, tile, cfg, kahan, cached, &mut bufs,
                );
                if let Some(kind) = fault {
                    apply_plane_fault(&mut out.profile, kind);
                }
                if cfg.clamp {
                    if let Err(violation) = validate_profile_plane(&out.profile, value_bound) {
                        plane_validation_failures += 1;
                        return Err(TileError::PoisonedPlane {
                            tile: tile.index,
                            violation,
                        });
                    }
                }
                if let Some(deadline) = cfg.tile_deadline {
                    let elapsed = start.elapsed();
                    if elapsed > deadline {
                        return Err(TileError::Timeout {
                            tile: tile.index,
                            elapsed_ms: elapsed.as_millis() as u64,
                            deadline_ms: deadline.as_millis() as u64,
                        });
                    }
                }
                Ok((out, cached))
            })();
            match attempt_result {
                Ok((out, cached)) => break (out, cached, dev),
                Err(err) => {
                    health.record_failure(dev);
                    if attempt >= cfg.tile_retries {
                        return Err(MdmpError::TileFailed {
                            tile: tile.index,
                            attempts: cfg.tile_retries + 1,
                            source: err,
                        });
                    }
                    tile_retries += 1;
                    std::thread::sleep(retry_backoff(
                        cfg.tile_retry_base,
                        cfg.tile_retry_cap,
                        attempt,
                    ));
                    attempt += 1;
                }
            }
        };
        if cached {
            precalc_hits += 1;
        } else {
            precalc_misses += 1;
        }
        let before = system.device(dev).timeline.makespan();
        submit_tile_costs(
            system,
            dev,
            streams[dev],
            tile.index,
            &out.kernel_costs,
            out.h2d_bytes,
            out.d2h_bytes,
            out.device_bytes,
            overlap,
        )?;
        streams[dev] += 1;
        let device_seconds = system.device(dev).timeline.makespan() - before;
        results.push(SubsetTileResult {
            tile: *tile,
            profile: out.profile,
            device_seconds,
            precalc_cached: cached,
        });
    }

    Ok(TileSubsetRun {
        results,
        precalc_hits,
        precalc_misses,
        tile_retries,
        plane_validation_failures,
        faults_injected,
        quarantined_devices: health.quarantined(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_with_mode;
    use mdmp_data::synthetic::{generate_pair, SyntheticConfig};
    use mdmp_gpu_sim::DeviceSpec;
    use mdmp_precision::PrecisionMode;

    fn small_pair(n: usize, d: usize, m: usize) -> (MultiDimSeries, MultiDimSeries) {
        let cfg = SyntheticConfig {
            n_subsequences: n,
            dims: d,
            m,
            pattern: mdmp_data::Pattern::Sine,
            embeddings: 2,
            noise: 0.3,
            pattern_amplitude: 1.0,
            seed: 77,
        };
        let pair = generate_pair(&cfg);
        (pair.reference, pair.query)
    }

    #[test]
    fn subset_union_reproduces_the_full_profile_bit_identically() {
        let (r, q) = small_pair(160, 2, 12);
        for mode in PrecisionMode::ALL {
            let cfg = MdmpConfig::new(12, mode).with_tiles(4);
            let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
            let local = run_with_mode(&r, &q, &cfg, &mut sys).unwrap();
            // Two disjoint shards, deliberately out of order.
            let mut sys_a = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
            let a = run_tile_subset(&r, &q, &cfg, &mut sys_a, None, &[3, 0]).unwrap();
            let mut sys_b = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
            let b = run_tile_subset(&r, &q, &cfg, &mut sys_b, None, &[1, 2]).unwrap();
            let mut merged = MatrixProfile::new_unset(local.profile.n_query(), r.dims());
            let mut all: Vec<&SubsetTileResult> =
                a.results.iter().chain(b.results.iter()).collect();
            all.sort_by_key(|t| t.tile.index);
            for t in all {
                merged.merge_min_columns(&t.profile, t.tile.col0);
            }
            assert_eq!(merged, local.profile, "{mode}: remote union differs");
        }
    }

    #[test]
    fn subset_respects_fault_plan_and_retries() {
        use mdmp_faults::FaultPlan;
        let (r, q) = small_pair(160, 2, 12);
        let plan = FaultPlan::new().with_fault(2, FaultKind::Kernel);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp32)
            .with_tiles(4)
            .with_fault_plan(Some(Arc::new(plan)));
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 2);
        let run = run_tile_subset(&r, &q, &cfg, &mut sys, None, &[2, 3]).unwrap();
        assert_eq!(run.faults_injected, 1);
        assert_eq!(run.tile_retries, 1);
        assert_eq!(run.results.len(), 2);
    }

    #[test]
    fn exhausted_retries_surface_typed_tile_failure() {
        use mdmp_faults::FaultPlan;
        let (r, q) = small_pair(160, 2, 12);
        let plan = FaultPlan::new().with_fault(1, FaultKind::Kernel).always();
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64)
            .with_tiles(4)
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_retries(1);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let err = run_tile_subset(&r, &q, &cfg, &mut sys, None, &[0, 1]).unwrap_err();
        assert!(matches!(err, MdmpError::TileFailed { tile: 1, .. }));
    }

    #[test]
    fn out_of_range_index_is_a_config_error() {
        let (r, q) = small_pair(128, 2, 8);
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64).with_tiles(4);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let err = run_tile_subset(&r, &q, &cfg, &mut sys, None, &[4]).unwrap_err();
        assert!(matches!(err, MdmpError::BadConfig(_)));
    }

    #[test]
    fn device_seconds_are_positive_and_deterministic() {
        let (r, q) = small_pair(160, 2, 12);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp16).with_tiles(4);
        let mut sys1 = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let run1 = run_tile_subset(&r, &q, &cfg, &mut sys1, None, &[0, 1, 2, 3]).unwrap();
        let mut sys2 = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let run2 = run_tile_subset(&r, &q, &cfg, &mut sys2, None, &[0, 1, 2, 3]).unwrap();
        for (a, b) in run1.results.iter().zip(run2.results.iter()) {
            assert!(a.device_seconds > 0.0);
            assert_eq!(a.device_seconds, b.device_seconds);
        }
    }

    #[test]
    fn job_tile_count_matches_tiling() {
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64).with_tiles(6);
        assert_eq!(job_tile_count(100, 80, &cfg).unwrap(), 6);
        let bad = MdmpConfig::new(1, PrecisionMode::Fp64);
        assert!(job_tile_count(100, 80, &bad).is_err());
    }
}
