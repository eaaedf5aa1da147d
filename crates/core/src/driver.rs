//! The multi-tile, multi-GPU driver (Pseudocode 2).
//!
//! Tiles are assigned Round-robin to the system's devices, issued on
//! per-device streams (transfers overlap compute, full-device kernels
//! serialize), executed functionally on the host, and merged on the CPU
//! with min/argmin. The modelled time is the slowest device's makespan plus
//! the CPU merge.

use crate::config::{MdmpConfig, MdmpError, TileError};
use crate::profile::MatrixProfile;
use crate::tile_exec::{
    apply_plane_fault, compute_tile_precalc, execute_tile_from_precalc_pooled, max_profile_value,
    validate_profile_plane, PlaneBuffers, TileOutput, TilePrecalc,
};
use crate::tiling::{assign_tiles_weighted, compute_tile_list, Tile};
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultKind;
use mdmp_gpu_sim::{
    CostLedger, DeviceHealth, DeviceSpec, GpuSystem, KernelClass, KernelCost, TimingModel,
};
use mdmp_precision::{dispatch_mode, Format, Real};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Host-side fixed cost per tile (stream setup, allocation, result
/// handling) — the overhead that makes very high tile counts slightly
/// slower in Fig. 7 ("the final merging of tiles … is executed by the CPU,
/// which results in an overhead increasing with the number of tiles").
pub const HOST_PER_TILE_OVERHEAD: f64 = 2.0e-3;

/// Concurrent streams hide launch/barrier gaps behind other tiles' compute:
/// with two or more resident tiles the host issues launches ahead and the
/// device work queue never drains, leaving ~1/16 of the nominal per-launch
/// cost visible. A single tile has nothing to overlap with. This is the
/// source of the initial speed-up when going from 1 tile to many in Fig. 7.
pub const OVERHEAD_OVERLAP_CAP: u64 = 16;

/// The result of a full matrix-profile run.
#[derive(Debug)]
pub struct MdmpRun {
    /// The merged matrix profile (global reference indices).
    pub profile: MatrixProfile,
    /// Aggregated per-kernel-class accounting (all devices + merge).
    pub ledger: CostLedger,
    /// Modelled end-to-end seconds: slowest device makespan + CPU merge.
    pub modeled_seconds: f64,
    /// Modelled CPU merge seconds (including per-tile host overhead).
    pub merge_seconds: f64,
    /// Modelled makespan per device.
    pub device_makespans: Vec<f64>,
    /// Wall-clock seconds of the functional (host) execution.
    pub wall_seconds: f64,
    /// Tiles whose precalculation was served from a [`PrecalcStore`].
    pub precalc_hits: usize,
    /// Tiles whose precalculation had to be computed.
    pub precalc_misses: usize,
    /// Host worker threads the run actually used (see
    /// [`MdmpConfig::resolved_host_workers`]).
    pub host_workers: usize,
    /// Per-worker wall seconds spent executing tiles (claim → result),
    /// one entry per worker; the spread shows load imbalance.
    pub worker_busy_seconds: Vec<f64>,
    /// Tiles executed on already-allocated [`PlaneBuffers`] (every tile
    /// after a worker's first).
    pub buffer_pool_reuses: u64,
    /// Workers that allocated a fresh set of plane buffers (at most one
    /// allocation per worker).
    pub buffer_pool_allocs: u64,
    /// Tile attempts that failed and were retried (fault injection or
    /// genuine kernel failures).
    pub tile_retries: u64,
    /// Result planes rejected by the NaN/Inf/bound validation gate.
    pub plane_validation_failures: u64,
    /// Faults the configured [`mdmp_faults::FaultPlan`] actually injected.
    pub faults_injected: u64,
    /// Simulated devices the health ledger quarantined during the run.
    pub quarantined_devices: Vec<usize>,
    /// Whether tiles ran the fused per-row pass (one dispatch per row)
    /// instead of the three-kernel pipeline (see
    /// [`MdmpConfig::resolved_fused_rows`]).
    pub fused_rows: bool,
    /// Host dispatches the fused pass eliminated relative to the unfused
    /// pipeline, summed over all tiles (two per reference row; zero when
    /// `fused_rows` is off).
    pub eliminated_dispatches: u64,
    /// MMA accumulator chunk width (= panel height) the run used, when the
    /// mode drives the simulated tensor cores (see
    /// [`MdmpConfig::resolved_tc_chunk_k`]); `None` for vector modes.
    pub tc_chunk_k: Option<usize>,
    /// Multi-worker dispatches this run handed to the persistent worker
    /// pool (delta of [`rayon::pool_stats`] across the run).
    pub pool_dispatches: u64,
    /// Of those, dispatches served entirely by already-running pool
    /// threads — the launches that a scoped spawn-per-dispatch stub would
    /// have paid thread creation for.
    pub pool_thread_reuses: u64,
}

/// External storage for per-tile precalculation results, consulted by
/// [`run_with_mode_cached`]. The store sees tiles by their deterministic
/// index within the run's tiling; distinguishing runs (series, `m`,
/// precision mode, tile count) is the caller's job — a cached-result
/// service keys an inner store like this one by exactly that tuple.
///
/// Stores are shared by the concurrent tile pipeline's worker threads, so
/// methods take `&self` (implementors use interior mutability) and the
/// trait requires `Send + Sync`.
pub trait PrecalcStore: Send + Sync {
    /// A previously stored precalculation for tile `tile_index`, if any.
    fn lookup(&self, tile_index: usize) -> Option<Arc<TilePrecalc>>;
    /// Offer a freshly computed precalculation for future reuse.
    fn store(&self, tile_index: usize, pre: &Arc<TilePrecalc>);
    /// Fetch tile `tile_index`, computing (and storing) it on a miss.
    /// Returns the precalculation and whether it was served from the store.
    ///
    /// The default is lookup-compute-store without cross-thread
    /// coordination — sufficient inside one run, where every tile is
    /// claimed by exactly one worker. Stores shared *across* concurrent
    /// runs (e.g. a service-wide cache) should override this with a
    /// single-flight implementation so simultaneous misses on the same
    /// tile compute once and record exactly one miss.
    fn fetch_or_compute(
        &self,
        tile_index: usize,
        compute: &mut dyn FnMut() -> Arc<TilePrecalc>,
    ) -> (Arc<TilePrecalc>, bool) {
        if let Some(pre) = self.lookup(tile_index) {
            return (pre, true);
        }
        let pre = compute();
        self.store(tile_index, &pre);
        (pre, false)
    }
}

impl MdmpRun {
    /// Parallel efficiency with respect to a single-device makespan
    /// (`t₁ / (p · t_p)`), the metric of Fig. 5.
    pub fn parallel_efficiency(&self, single_device_seconds: f64) -> f64 {
        let p = self.device_makespans.len() as f64;
        single_device_seconds / (p * self.modeled_seconds)
    }
}

/// Run the multi-dimensional matrix profile in the configured precision
/// mode on the given (simulated) GPU system.
pub fn run_with_mode(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    system: &mut GpuSystem,
) -> Result<MdmpRun, MdmpError> {
    run_with_mode_cached(reference, query, cfg, system, None)
}

/// [`run_with_mode`] with an optional precalculation store: tiles whose
/// precalc the store already holds skip the `Precalc` kernel entirely (no
/// device cost, smaller H2D transfer), and fresh precalcs are offered back
/// to the store. Hit/miss counts land in the returned [`MdmpRun`].
pub fn run_with_mode_cached(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    system: &mut GpuSystem,
    store: Option<&dyn PrecalcStore>,
) -> Result<MdmpRun, MdmpError> {
    macro_rules! run {
        ($p:ty, $m:ty) => {
            run_generic::<$p, $m>(reference, query, cfg, system, store)
        };
    }
    dispatch_mode!(cfg.mode, run)
}

fn run_generic<P: Real, M: Real>(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    cfg: &MdmpConfig,
    system: &mut GpuSystem,
    store: Option<&dyn PrecalcStore>,
) -> Result<MdmpRun, MdmpError> {
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

    system.reset();
    let n_gpu = system.device_count();
    let overlap = overlap_factor(tiles.len(), n_gpu);
    let weights: Vec<f64> = (0..n_gpu)
        .map(|i| {
            let spec = &system.device(i).spec;
            spec.mem_bandwidth * spec.mem_eff_fp64
        })
        .collect();
    let assignment = assign_tiles_weighted(&tiles, &weights, cfg.schedule);
    let mut streams = vec![0usize; n_gpu];
    let mut global = MatrixProfile::new_unset(n_q, d);
    let host_workers = cfg.resolved_host_workers(n_gpu).min(tiles.len()).max(1);
    // TC modes run the blocked-GEMM pipeline, which supersedes row fusion.
    let tc_chunk_k = cfg.mode.tc_input().map(|f| cfg.resolved_tc_chunk_k(f));
    let fused_rows = tc_chunk_k.is_none() && cfg.resolved_fused_rows();
    let pool_before = rayon::pool_stats();
    let wall_start = Instant::now();

    // Resilience state shared by the workers and the coordinator: the
    // device health ledger plus run-level fault accounting.
    let health = DeviceHealth::new(n_gpu, cfg.quarantine_threshold);
    let retry_ctr = AtomicU64::new(0);
    let validation_ctr = AtomicU64::new(0);
    let fault_ctr = AtomicU64::new(0);
    let value_bound = max_profile_value(cfg.m);

    // One attempt at a tile: inject the planned fault (if any), execute,
    // poison the result plane if asked, then run the validation gate and
    // the per-kernel deadline check.
    let attempt_tile = |tile: &Tile,
                        bufs: &mut PlaneBuffers<M>,
                        attempt: u32|
     -> Result<(TileOutput, bool), TileError> {
        let start = Instant::now();
        let fault = cfg
            .fault_plan
            .as_deref()
            .and_then(|plan| plan.tile_fault(tile.index, attempt));
        if fault.is_some() {
            // relaxed-ok: reporting tally, read once after every worker
            // has joined (the scope join is the synchronization point).
            fault_ctr.fetch_add(1, Ordering::Relaxed);
        }
        match fault {
            Some(FaultKind::Kernel) => return Err(TileError::Kernel { tile: tile.index }),
            Some(FaultKind::Stall { millis }) => std::thread::sleep(Duration::from_millis(millis)),
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
        let mut out = execute_tile_from_precalc_pooled::<M>(&pre, tile, cfg, kahan, cached, bufs);
        if let Some(kind) = fault {
            apply_plane_fault(&mut out.profile, kind);
        }
        // The gate guards every result, faulted or not — but only when
        // clamping is on; the unclamped ablation produces legitimate NaNs.
        if cfg.clamp {
            if let Err(violation) = validate_profile_plane(&out.profile, value_bound) {
                // relaxed-ok: reporting tally, read after scope join.
                validation_ctr.fetch_add(1, Ordering::Relaxed);
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
    };

    // Per-tile production with retries, shared verbatim by the inline
    // single-worker path and the scoped-thread pool so both run the exact
    // same code. A failing attempt is retried with capped exponential
    // backoff and re-dispatched away from quarantined devices; the device
    // index a tile finally ran on rides along to the cost model.
    let produce =
        |tile: &Tile, bufs: &mut PlaneBuffers<M>| -> Result<(TileOutput, bool, usize), TileError> {
            let preferred = assignment[tile.index];
            let mut attempt: u32 = 0;
            loop {
                let dev = health.dispatch(preferred, attempt as usize);
                match attempt_tile(tile, bufs, attempt) {
                    Ok((out, cached)) => return Ok((out, cached, dev)),
                    Err(err) => {
                        health.record_failure(dev);
                        if attempt >= cfg.tile_retries {
                            return Err(err);
                        }
                        // relaxed-ok: reporting tally, read after scope join.
                        retry_ctr.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(retry_backoff(
                            cfg.tile_retry_base,
                            cfg.tile_retry_cap,
                            attempt,
                        ));
                        attempt += 1;
                    }
                }
            }
        };

    // In-order consumption on the coordinating thread: cost submission
    // bumps the per-device stream counters and the profile merge resolves
    // ties exactly as the sequential loop did, so results and modelled
    // times are bit-identical regardless of worker count.
    let mut precalc_hits = 0usize;
    let mut precalc_misses = 0usize;
    let mut eliminated_dispatches = 0u64;
    let mut consume = |tile_index: usize,
                       out: TileOutput,
                       cached: bool,
                       dev_idx: usize|
     -> Result<(), MdmpError> {
        if cached {
            precalc_hits += 1;
        } else {
            precalc_misses += 1;
        }
        eliminated_dispatches += out.eliminated_dispatches;
        submit_tile_costs(
            system,
            dev_idx,
            streams[dev_idx],
            tile_index,
            &out.kernel_costs,
            out.h2d_bytes,
            out.d2h_bytes,
            out.device_bytes,
            overlap,
        )?;
        streams[dev_idx] += 1;
        global.merge_min_columns(&out.profile, tiles[tile_index].col0);
        Ok(())
    };

    let mut worker_busy_seconds = vec![0.0f64; host_workers];
    let mut buffer_pool_reuses = 0u64;
    let mut buffer_pool_allocs = 0u64;
    let mut outcome: Result<(), MdmpError> = Ok(());
    let wrap_tile_error = |source: TileError| {
        let tile = match source {
            TileError::Kernel { tile }
            | TileError::Timeout { tile, .. }
            | TileError::PoisonedPlane { tile, .. } => tile,
        };
        MdmpError::TileFailed {
            tile,
            attempts: cfg.tile_retries + 1,
            source,
        }
    };

    if host_workers == 1 {
        let mut bufs = PlaneBuffers::<M>::new();
        let busy_start = Instant::now();
        for tile in &tiles {
            match produce(tile, &mut bufs) {
                Ok((out, cached, dev)) => {
                    if let Err(e) = consume(tile.index, out, cached, dev) {
                        outcome = Err(e);
                        break;
                    }
                }
                Err(source) => {
                    outcome = Err(wrap_tile_error(source));
                    break;
                }
            }
        }
        worker_busy_seconds[0] = busy_start.elapsed().as_secs_f64();
        buffer_pool_reuses = bufs.reuses();
        buffer_pool_allocs = u64::from(bufs.tiles_executed() > 0);
    } else {
        // Workers claim tiles from a shared counter and stream results to
        // the coordinator, which reorders them through a BTreeMap and
        // consumes strictly in ascending tile index.
        let next_tile = AtomicUsize::new(0);
        let cancel = AtomicBool::new(false);
        type TileResult = Result<(TileOutput, bool, usize), TileError>;
        let (tx, rx) = mpsc::channel::<(usize, TileResult)>();
        let mut worker_panics = 0usize;
        let mut tiles_merged = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..host_workers)
                .map(|_| {
                    let tx = tx.clone();
                    let next_tile = &next_tile;
                    let cancel = &cancel;
                    let tiles = &tiles;
                    let produce = &produce;
                    scope.spawn(move || {
                        let mut bufs = PlaneBuffers::<M>::new();
                        let mut busy = 0.0f64;
                        loop {
                            // relaxed-ok: cancellation is advisory — a
                            // worker that misses the flag merely finishes
                            // one extra tile; the coordinator discards it.
                            if cancel.load(Ordering::Relaxed) {
                                break;
                            }
                            // relaxed-ok: the claim counter only needs
                            // atomicity for unique indices; tile results
                            // travel through the mpsc channel, which
                            // orders their payloads.
                            let idx = next_tile.fetch_add(1, Ordering::Relaxed);
                            if idx >= tiles.len() {
                                break;
                            }
                            let t0 = Instant::now();
                            let result = produce(&tiles[idx], &mut bufs);
                            busy += t0.elapsed().as_secs_f64();
                            if tx.send((tiles[idx].index, result)).is_err() {
                                break;
                            }
                        }
                        (busy, bufs.reuses(), bufs.tiles_executed())
                    })
                })
                .collect();
            drop(tx);

            let mut pending: BTreeMap<usize, (TileOutput, bool, usize)> = BTreeMap::new();
            'recv: while let Ok((tile_index, result)) = rx.recv() {
                match result {
                    Ok(payload) => {
                        pending.insert(tile_index, payload);
                    }
                    Err(source) => {
                        outcome = Err(wrap_tile_error(source));
                        // relaxed-ok: advisory cancellation (see the
                        // worker-side load).
                        cancel.store(true, Ordering::Relaxed);
                        break 'recv;
                    }
                }
                while let Some((out, cached, dev)) = pending.remove(&tiles_merged) {
                    if let Err(e) = consume(tiles_merged, out, cached, dev) {
                        outcome = Err(e);
                        // relaxed-ok: advisory cancellation (see above).
                        cancel.store(true, Ordering::Relaxed);
                        break 'recv;
                    }
                    tiles_merged += 1;
                }
            }
            drop(rx);
            // A panicked worker must not take the coordinator down with a
            // secondary panic: its claimed tile never arrives, which the
            // missing-tile check below converts into a typed error.
            for (slot, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok((busy, reuses, executed)) => {
                        worker_busy_seconds[slot] = busy;
                        buffer_pool_reuses += reuses;
                        buffer_pool_allocs += u64::from(executed > 0);
                    }
                    Err(_) => worker_panics += 1,
                }
            }
        });
        // The channel drained without every tile reaching the merge: a
        // worker died (panic) or went silent. Surfacing a typed error here
        // is what keeps a dead worker from yielding a *partial* profile.
        if outcome.is_ok() && (tiles_merged < tiles.len() || worker_panics > 0) {
            outcome = Err(MdmpError::TilesMissing {
                merged: tiles_merged,
                expected: tiles.len(),
            });
        }
    }
    outcome?;
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let pool_after = rayon::pool_stats();
    let pool_dispatches = pool_after.dispatches - pool_before.dispatches;
    let pool_thread_reuses = pool_after
        .thread_reuses()
        .saturating_sub(pool_before.thread_reuses());

    let (merge_seconds, merge_cost) = merge_model(&tiles, d, cfg.mode.main_format());
    let mut ledger = system.total_ledger();
    ledger.record(&merge_cost, merge_seconds);
    let device_makespans: Vec<f64> = (0..n_gpu)
        .map(|i| system.device(i).timeline.makespan())
        .collect();
    let makespan = device_makespans.iter().copied().fold(0.0, f64::max);

    Ok(MdmpRun {
        profile: global,
        ledger,
        modeled_seconds: makespan + merge_seconds,
        merge_seconds,
        device_makespans,
        wall_seconds,
        precalc_hits,
        precalc_misses,
        host_workers,
        worker_busy_seconds,
        buffer_pool_reuses,
        buffer_pool_allocs,
        // relaxed-ok: all workers have joined (scope exit) before these
        // reads, so the tallies are complete and stable.
        tile_retries: retry_ctr.load(Ordering::Relaxed),
        plane_validation_failures: validation_ctr.load(Ordering::Relaxed), // relaxed-ok: same
        faults_injected: fault_ctr.load(Ordering::Relaxed),                // relaxed-ok: same
        quarantined_devices: health.quarantined(),
        fused_rows,
        eliminated_dispatches,
        tc_chunk_k,
        pool_dispatches,
        pool_thread_reuses,
    })
}

/// Capped exponential backoff: `base · 2^attempt`, never above `cap`.
pub(crate) fn retry_backoff(base: Duration, cap: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16)).min(cap)
}

/// Overhead-overlap factor for a run (see [`OVERHEAD_OVERLAP_CAP`]): full
/// stream pipelining once a device holds at least two tiles.
pub(crate) fn overlap_factor(n_tiles: usize, n_gpu: usize) -> u64 {
    let per_device = n_tiles.div_ceil(n_gpu) as u64;
    if per_device >= 2 {
        OVERHEAD_OVERLAP_CAP
    } else {
        1
    }
}

/// Submit one tile's transfers and kernels to a device timeline, checking
/// device memory. Shared by the functional driver and the cost estimator.
#[allow(clippy::too_many_arguments)]
pub(crate) fn submit_tile_costs(
    system: &mut GpuSystem,
    dev_idx: usize,
    stream: usize,
    tile_index: usize,
    kernel_costs: &[KernelCost],
    h2d: u64,
    d2h: u64,
    device_bytes: u64,
    overlap: u64,
) -> Result<(), MdmpError> {
    let dev = system.device_mut(dev_idx);
    let alloc = dev
        .memory
        .alloc(device_bytes)
        .map_err(|cause| MdmpError::OutOfDeviceMemory {
            tile: tile_index,
            cause,
        })?;
    dev.submit_transfer(stream, h2d, true);
    for cost in kernel_costs {
        let mut c = *cost;
        c.launches /= overlap;
        c.barriers /= overlap;
        dev.submit_kernel(stream, c);
    }
    dev.submit_transfer(stream, d2h, false);
    // One-tile-at-a-time residency model: the working set is released once
    // the tile's results are on the host (DESIGN.md §2).
    dev.memory.free(alloc);
    Ok(())
}

/// CPU merge model: stream every tile's result through the host merge
/// (min/argmin) plus the fixed per-tile host overhead.
pub(crate) fn merge_model(tiles: &[Tile], d: usize, format: Format) -> (f64, KernelCost) {
    let result_elems: u64 = tiles.iter().map(|t| (t.cols * d) as u64).sum();
    let value_bytes = format.bytes() as u64 + 8; // value + index
    let mut cost = KernelCost::new(KernelClass::Merge, Format::Fp64);
    cost.bytes_read = 2 * result_elems * value_bytes; // tile result + accumulator
    cost.bytes_written = result_elems * value_bytes / 2;
    cost.flops = result_elems;
    let cpu = TimingModel::new(DeviceSpec::skylake_16c());
    let seconds = cpu.kernel_seconds(&cost) + tiles.len() as f64 * HOST_PER_TILE_OVERHEAD;
    (seconds, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn single_tile_equals_multi_tile_in_fp64() {
        let (r, q) = small_pair(200, 3, 16);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let cfg1 = MdmpConfig::new(16, PrecisionMode::Fp64);
        let run1 = run_with_mode(&r, &q, &cfg1, &mut sys).unwrap();
        let cfg9 = MdmpConfig::new(16, PrecisionMode::Fp64).with_tiles(9);
        let run9 = run_with_mode(&r, &q, &cfg9, &mut sys).unwrap();
        for k in 0..3 {
            for j in 0..run1.profile.n_query() {
                assert!(
                    (run1.profile.value(j, k) - run9.profile.value(j, k)).abs() < 1e-9,
                    "P[{j}][{k}] differs across tilings"
                );
                assert_eq!(
                    run1.profile.index(j, k),
                    run9.profile.index(j, k),
                    "I[{j}][{k}] differs across tilings"
                );
            }
        }
    }

    #[test]
    fn multi_gpu_gives_same_result_and_smaller_makespan() {
        let (r, q) = small_pair(240, 2, 16);
        let cfg = MdmpConfig::new(16, PrecisionMode::Fp64).with_tiles(16);
        let mut sys1 = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let run1 = run_with_mode(&r, &q, &cfg, &mut sys1).unwrap();
        let mut sys4 = GpuSystem::homogeneous(DeviceSpec::a100(), 4);
        let run4 = run_with_mode(&r, &q, &cfg, &mut sys4).unwrap();
        assert_eq!(
            run1.profile, run4.profile,
            "results independent of GPU count"
        );
        let m1 = run1.device_makespans[0];
        let m4 = run4.device_makespans.iter().copied().fold(0.0, f64::max);
        assert!(m4 < m1 * 0.35, "4 GPUs should be ~4x faster: {m1} vs {m4}");
    }

    #[test]
    fn reduced_precision_modes_all_run() {
        let (r, q) = small_pair(128, 2, 8);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        for mode in PrecisionMode::ALL {
            let cfg = MdmpConfig::new(8, mode).with_tiles(4);
            let run = run_with_mode(&r, &q, &cfg, &mut sys)
                .unwrap_or_else(|e| panic!("{mode} failed: {e}"));
            assert_eq!(run.profile.n_query(), 128);
            assert!(
                run.profile.unset_fraction() < 0.01,
                "{mode}: too many unset entries"
            );
        }
    }

    #[test]
    fn modeled_time_reduced_precision_is_faster() {
        let (r, q) = small_pair(256, 4, 16);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let t64 = run_with_mode(&r, &q, &MdmpConfig::new(16, PrecisionMode::Fp64), &mut sys)
            .unwrap()
            .modeled_seconds;
        let t16 = run_with_mode(&r, &q, &MdmpConfig::new(16, PrecisionMode::Fp16), &mut sys)
            .unwrap()
            .modeled_seconds;
        assert!(t16 < t64, "FP16 modeled time {t16} not below FP64 {t64}");
    }

    #[test]
    fn tensor_core_run_reports_chunk_and_beats_fp64_model() {
        let (r, q) = small_pair(192, 3, 12);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let t64 = run_with_mode(
            &r,
            &q,
            &MdmpConfig::new(12, PrecisionMode::Fp64).with_tiles(4),
            &mut sys,
        )
        .unwrap()
        .modeled_seconds;
        // Fusion requests are superseded by the GEMM pipeline, and the run
        // surfaces the resolved chunk width.
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp16Tc)
            .with_tiles(4)
            .with_fused_rows(Some(true))
            // pinned so a CI-wide MDMP_TC_CHUNK_K cannot shift it
            .with_tc_chunk_k(Some(8));
        let run = run_with_mode(&r, &q, &cfg, &mut sys).unwrap();
        assert_eq!(run.tc_chunk_k, Some(8));
        assert!(!run.fused_rows, "GEMM path supersedes row fusion");
        assert_eq!(run.eliminated_dispatches, 0);
        assert!(
            run.modeled_seconds < t64,
            "Fp16Tc model {} not below FP64 {}",
            run.modeled_seconds,
            t64
        );
        // Bit-reproducible across tile and GPU counts (reorder-buffer merge
        // over panel-sequential tiles).
        let mut sys3 = GpuSystem::homogeneous(DeviceSpec::a100(), 3);
        let cfg9 = MdmpConfig::new(12, PrecisionMode::Fp16Tc).with_tiles(9);
        let run9 = run_with_mode(&r, &q, &cfg9, &mut sys3).unwrap();
        // Tilings restart panels at tile boundaries, so values may differ in
        // the last ulps between tilings — but the same tiling on a different
        // system must be identical.
        let run9b = run_with_mode(&r, &q, &cfg9, &mut sys).unwrap();
        assert_eq!(run9.profile, run9b.profile, "TC profile depends on system");
        // Vector modes report no chunk width.
        let plain =
            run_with_mode(&r, &q, &MdmpConfig::new(12, PrecisionMode::Fp32), &mut sys).unwrap();
        assert_eq!(plain.tc_chunk_k, None);
    }

    #[test]
    fn ledger_contains_all_kernel_classes() {
        let (r, q) = small_pair(128, 2, 8);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let run =
            run_with_mode(&r, &q, &MdmpConfig::new(8, PrecisionMode::Fp64), &mut sys).unwrap();
        for class in [
            KernelClass::Precalc,
            KernelClass::DistCalc,
            KernelClass::SortScan,
            KernelClass::UpdateProfile,
            KernelClass::Merge,
        ] {
            assert!(
                run.ledger.seconds(class) > 0.0,
                "{class:?} missing from ledger"
            );
        }
    }

    #[test]
    fn fused_run_matches_unfused_with_identical_cost_model() {
        let (r, q) = small_pair(160, 3, 12);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 2);
        for mode in [
            PrecisionMode::Fp64,
            PrecisionMode::Fp32,
            PrecisionMode::Fp16,
            PrecisionMode::Mixed,
            PrecisionMode::Fp16c,
        ] {
            let base = MdmpConfig::new(12, mode).with_tiles(4);
            let fused =
                run_with_mode(&r, &q, &base.clone().with_fused_rows(Some(true)), &mut sys).unwrap();
            let unfused =
                run_with_mode(&r, &q, &base.with_fused_rows(Some(false)), &mut sys).unwrap();
            assert_eq!(fused.profile, unfused.profile, "{mode}: fused != unfused");
            // The ledger charges the same three per-class kernel costs either
            // way — fusion removes host dispatches, not modelled device work.
            assert_eq!(fused.modeled_seconds, unfused.modeled_seconds, "{mode}");
            assert!(fused.fused_rows && !unfused.fused_rows);
            assert_eq!(unfused.eliminated_dispatches, 0);
            let total_rows: u64 = compute_tile_list(160, 160, 4)
                .unwrap()
                .iter()
                .map(|t| t.rows as u64)
                .sum();
            assert_eq!(fused.eliminated_dispatches, 2 * total_rows, "{mode}");
        }
    }

    #[test]
    fn fused_matches_unfused_across_randomized_configs() {
        // Seeded xorshift64* so the "random" configurations are stable
        // across runs; one configuration per precision mode, spanning odd
        // sizes, self- and AB-joins, and lane-remainder widths.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |lo: usize, hi: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo + (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % (hi - lo + 1) as u64) as usize
        };
        for (trial, mode) in PrecisionMode::ALL.into_iter().enumerate() {
            let n = next(90, 220);
            let d = next(1, 4);
            let m = next(8, 20);
            let tiles = next(1, 9);
            let self_join = trial % 2 == 0;
            let (r, q_gen) = small_pair(n, d, m);
            let q = if self_join { r.clone() } else { q_gen };
            let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), next(1, 3));
            let base = MdmpConfig::new(m, mode).with_tiles(tiles);
            let fused =
                run_with_mode(&r, &q, &base.clone().with_fused_rows(Some(true)), &mut sys).unwrap();
            let unfused =
                run_with_mode(&r, &q, &base.with_fused_rows(Some(false)), &mut sys).unwrap();
            let what = format!("{mode} n={n} d={d} m={m} tiles={tiles} self_join={self_join}");
            assert_eq!(fused.profile, unfused.profile, "{what}: profiles differ");
            assert_eq!(fused.modeled_seconds, unfused.modeled_seconds, "{what}");
        }
    }

    #[test]
    fn fused_run_with_recoverable_faults_matches_fault_free() {
        use mdmp_faults::{FaultKind, FaultPlan};
        let (r, q) = small_pair(160, 2, 12);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 2);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp32)
            .with_tiles(4)
            .with_fused_rows(Some(true));
        let clean = run_with_mode(&r, &q, &cfg, &mut sys).unwrap();
        let plan = FaultPlan::new()
            .with_fault(0, FaultKind::Kernel)
            .with_fault(1, FaultKind::Stall { millis: 600 })
            .with_fault(3, FaultKind::PoisonNan);
        let faulted_cfg = cfg
            .clone()
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_deadline(Some(std::time::Duration::from_millis(250)));
        let faulted = run_with_mode(&r, &q, &faulted_cfg, &mut sys).unwrap();
        assert_eq!(
            clean.profile, faulted.profile,
            "fused path: retried faults must be invisible in the result"
        );
        assert_eq!(faulted.faults_injected, 3);
        assert_eq!(faulted.tile_retries, 3);
        assert!(faulted.fused_rows);
        assert_eq!(clean.eliminated_dispatches, faulted.eliminated_dispatches);
    }

    #[test]
    fn dimensionality_mismatch_rejected() {
        let (r, _) = small_pair(64, 2, 8);
        let (_, q) = small_pair(64, 3, 8);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let err = run_with_mode(&r, &q, &MdmpConfig::new(8, PrecisionMode::Fp64), &mut sys);
        assert!(matches!(err, Err(MdmpError::DimensionalityMismatch { .. })));
    }

    #[test]
    fn overlap_factor_behaviour() {
        assert_eq!(overlap_factor(1, 1), 1);
        assert_eq!(overlap_factor(2, 1), 16);
        assert_eq!(overlap_factor(16, 1), 16);
        assert_eq!(overlap_factor(16, 4), 16);
        assert_eq!(overlap_factor(4, 4), 1);
    }

    #[test]
    fn cached_rerun_is_identical_and_skips_precalc() {
        use std::collections::HashMap;
        use std::sync::Mutex;

        #[derive(Default)]
        struct MapStore(Mutex<HashMap<usize, Arc<crate::tile_exec::TilePrecalc>>>);
        impl PrecalcStore for MapStore {
            fn lookup(&self, tile_index: usize) -> Option<Arc<crate::tile_exec::TilePrecalc>> {
                self.0.lock().unwrap().get(&tile_index).cloned()
            }
            fn store(&self, tile_index: usize, pre: &Arc<crate::tile_exec::TilePrecalc>) {
                self.0.lock().unwrap().insert(tile_index, Arc::clone(pre));
            }
        }

        let (r, q) = small_pair(160, 2, 12);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp16).with_tiles(4);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let plain = run_with_mode(&r, &q, &cfg, &mut sys).unwrap();
        assert_eq!(plain.precalc_hits, 0);

        let store = MapStore::default();
        let cold = run_with_mode_cached(&r, &q, &cfg, &mut sys, Some(&store)).unwrap();
        assert_eq!((cold.precalc_hits, cold.precalc_misses), (0, 4));
        let warm = run_with_mode_cached(&r, &q, &cfg, &mut sys, Some(&store)).unwrap();
        assert_eq!((warm.precalc_hits, warm.precalc_misses), (4, 0));

        // Bit-identical results across plain / cold / warm paths.
        assert_eq!(plain.profile, cold.profile);
        assert_eq!(plain.profile, warm.profile);
        // The warm run charges no Precalc kernel time at all. (Whether the
        // makespan drops is a device-model question — the cached arrays
        // cost PCIe bytes roughly where the memory-bound precalc kernel
        // cost HBM bytes — but the kernel class must vanish.)
        assert_eq!(warm.ledger.seconds(KernelClass::Precalc), 0.0);
        assert!(cold.ledger.seconds(KernelClass::Precalc) > 0.0);
    }

    #[test]
    fn injected_faults_with_retries_are_invisible() {
        use mdmp_faults::{FaultKind, FaultPlan};
        let (r, q) = small_pair(160, 2, 12);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 2);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp16).with_tiles(4);
        let clean = run_with_mode(&r, &q, &cfg, &mut sys).unwrap();
        assert_eq!(clean.tile_retries, 0);
        assert_eq!(clean.faults_injected, 0);

        let plan = FaultPlan::new()
            .with_fault(0, FaultKind::Kernel)
            .with_fault(1, FaultKind::Stall { millis: 600 })
            .with_fault(2, FaultKind::PoisonNan);
        // The deadline must sit well above the genuine (debug-build) tile
        // compute time and well below the injected stall.
        let faulted_cfg = cfg
            .clone()
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_deadline(Some(std::time::Duration::from_millis(250)));
        let faulted = run_with_mode(&r, &q, &faulted_cfg, &mut sys).unwrap();
        assert_eq!(
            clean.profile, faulted.profile,
            "retried faults must be invisible in the result"
        );
        assert_eq!(faulted.faults_injected, 3);
        assert_eq!(faulted.tile_retries, 3, "one retry per faulted tile");
        assert_eq!(faulted.plane_validation_failures, 1, "the NaN poison");
    }

    #[test]
    fn exhausted_retries_yield_typed_error_not_partial_profile() {
        use mdmp_faults::{FaultKind, FaultPlan};
        let (r, q) = small_pair(160, 2, 12);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let plan = FaultPlan::new().with_fault(2, FaultKind::Kernel).always();
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64)
            .with_tiles(4)
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_retries(1);
        let err = run_with_mode(&r, &q, &cfg, &mut sys).unwrap_err();
        match err {
            MdmpError::TileFailed {
                tile,
                attempts,
                source,
            } => {
                assert_eq!(tile, 2);
                assert_eq!(attempts, 2);
                assert_eq!(source, crate::config::TileError::Kernel { tile: 2 });
            }
            other => panic!("expected TileFailed, got {other:?}"),
        }
    }

    #[test]
    fn stalled_kernel_times_out_and_retry_succeeds() {
        use mdmp_faults::{FaultKind, FaultPlan};
        let (r, q) = small_pair(128, 2, 8);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let plan = FaultPlan::new().with_fault(0, FaultKind::Stall { millis: 600 });
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp32)
            .with_tiles(2)
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_deadline(Some(std::time::Duration::from_millis(250)));
        let run = run_with_mode(&r, &q, &cfg, &mut sys).unwrap();
        assert_eq!(run.tile_retries, 1);
        // And with the deadline disabled the stall is merely slow, not fatal.
        let plan = FaultPlan::new().with_fault(0, FaultKind::Stall { millis: 5 });
        let lax = MdmpConfig::new(8, PrecisionMode::Fp32)
            .with_tiles(2)
            .with_fault_plan(Some(Arc::new(plan)));
        let slow = run_with_mode(&r, &q, &lax, &mut sys).unwrap();
        assert_eq!(slow.tile_retries, 0);
        assert_eq!(run.profile, slow.profile);
    }

    #[test]
    fn repeated_failures_quarantine_device_but_run_degrades_gracefully() {
        use mdmp_faults::{FaultKind, FaultPlan};
        let (r, q) = small_pair(240, 2, 16);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 2);
        let cfg = MdmpConfig::new(16, PrecisionMode::Fp64).with_tiles(8);
        let clean = run_with_mode(&r, &q, &cfg, &mut sys).unwrap();
        // Round-robin puts even tiles on device 0; fail three of them.
        let plan = FaultPlan::new()
            .with_fault(0, FaultKind::Kernel)
            .with_fault(2, FaultKind::Kernel)
            .with_fault(4, FaultKind::Kernel);
        let chaotic_cfg = cfg
            .clone()
            .with_fault_plan(Some(Arc::new(plan)))
            .with_quarantine_threshold(3);
        let run = run_with_mode(&r, &q, &chaotic_cfg, &mut sys).unwrap();
        assert_eq!(run.quarantined_devices, vec![0]);
        assert_eq!(
            clean.profile, run.profile,
            "degraded run still produces the full, correct profile"
        );
    }

    #[test]
    fn dead_worker_surfaces_tiles_missing_instead_of_partial_result() {
        struct PanickyStore;
        impl PrecalcStore for PanickyStore {
            fn lookup(&self, tile_index: usize) -> Option<Arc<crate::tile_exec::TilePrecalc>> {
                assert!(tile_index != 1, "injected worker death on tile 1");
                None
            }
            fn store(&self, _: usize, _: &Arc<crate::tile_exec::TilePrecalc>) {}
        }
        let (r, q) = small_pair(160, 2, 12);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64)
            .with_tiles(4)
            .with_host_workers(2);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 2);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the injected panic quiet
        let err = run_with_mode_cached(&r, &q, &cfg, &mut sys, Some(&PanickyStore)).unwrap_err();
        std::panic::set_hook(prev_hook);
        match err {
            MdmpError::TilesMissing { merged, expected } => {
                assert!(merged < expected, "{merged} vs {expected}");
                assert_eq!(expected, 4);
            }
            other => panic!("expected TilesMissing, got {other:?}"),
        }
    }

    #[test]
    fn retry_backoff_is_capped_exponential() {
        use std::time::Duration;
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(50);
        assert_eq!(retry_backoff(base, cap, 0), Duration::from_millis(1));
        assert_eq!(retry_backoff(base, cap, 1), Duration::from_millis(2));
        assert_eq!(retry_backoff(base, cap, 5), Duration::from_millis(32));
        assert_eq!(retry_backoff(base, cap, 6), cap);
        assert_eq!(retry_backoff(base, cap, 63), cap);
    }

    #[test]
    fn merge_model_scales_with_tiles() {
        let tiles_few = compute_tile_list(1000, 1000, 4).unwrap();
        let tiles_many = compute_tile_list(1000, 1000, 400).unwrap();
        let (t_few, _) = merge_model(&tiles_few, 16, Format::Fp64);
        let (t_many, _) = merge_model(&tiles_many, 16, Format::Fp64);
        assert!(t_many > t_few);
    }
}
