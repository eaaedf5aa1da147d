//! Paper-scale performance estimation.
//!
//! Functional execution of reduced-precision arithmetic in software costs
//! ~20 native operations per simulated operation, so the paper's largest
//! problem sizes (n = 2¹⁶…2¹⁸) are not tractable to run functionally.
//! This module schedules **exactly the same kernel costs** as the
//! functional driver — same tiling, same Round-robin assignment, same
//! stream overlap, same merge model — without computing any distances,
//! producing the modelled timings used for Fig. 4, 5, 6, 7 and the
//! headline speedups at the paper's full scale. [`estimate_tile_seconds`]
//! prices each tile on its own, as a cluster worker does, for the
//! multi-node extension.

use crate::config::{MdmpConfig, MdmpError};
use crate::driver::{merge_model, overlap_factor, submit_tile_costs};
use crate::tile_exec::tile_cost_bundle;
use crate::tiling::{assign_tiles_weighted, compute_tile_list};
use mdmp_gpu_sim::{CostLedger, DeviceSpec, GpuSystem};

/// Modelled timing of a run at arbitrary scale.
#[derive(Debug, Clone)]
pub struct RunEstimate {
    /// Modelled end-to-end seconds (slowest device + merge).
    pub modeled_seconds: f64,
    /// Modelled CPU merge seconds.
    pub merge_seconds: f64,
    /// Per-device makespans.
    pub device_makespans: Vec<f64>,
    /// Per-kernel-class accounting.
    pub ledger: CostLedger,
}

impl RunEstimate {
    /// Parallel efficiency against a reference single-device time.
    pub fn parallel_efficiency(&self, single_device_seconds: f64) -> f64 {
        let p = self.device_makespans.len() as f64;
        single_device_seconds / (p * self.modeled_seconds)
    }
}

/// Estimate the modelled runtime of a matrix-profile computation with
/// `n_r` reference segments, `n_q` query segments and `d` dimensions on the
/// given system, without functional execution.
pub fn estimate_run(
    n_r: usize,
    n_q: usize,
    d: usize,
    cfg: &MdmpConfig,
    system: &mut GpuSystem,
) -> Result<RunEstimate, MdmpError> {
    cfg.validate(n_r, n_q)?;
    let tiles = compute_tile_list(n_r, n_q, cfg.n_tiles)?;
    system.reset();
    let n_gpu = system.device_count();
    let overlap = overlap_factor(tiles.len(), n_gpu);
    let kahan = cfg.mode.compensated_precalc();
    let weights: Vec<f64> = (0..n_gpu)
        .map(|i| {
            let spec = &system.device(i).spec;
            spec.mem_bandwidth * spec.mem_eff_fp64
        })
        .collect();
    let assignment = assign_tiles_weighted(&tiles, &weights, cfg.schedule);
    let mut streams = vec![0usize; n_gpu];
    for tile in &tiles {
        let (costs, h2d, d2h, device_bytes) = tile_cost_bundle(tile, d, cfg, kahan);
        let dev_idx = assignment[tile.index];
        submit_tile_costs(
            system,
            dev_idx,
            streams[dev_idx],
            tile.index,
            &costs,
            h2d,
            d2h,
            device_bytes,
            overlap,
        )?;
        streams[dev_idx] += 1;
    }
    let (merge_seconds, merge_cost) = merge_model(&tiles, d, cfg.mode.main_format());
    let mut ledger = system.total_ledger();
    ledger.record(&merge_cost, merge_seconds);
    let device_makespans: Vec<f64> = (0..n_gpu)
        .map(|i| system.device(i).timeline.makespan())
        .collect();
    let makespan = device_makespans.iter().copied().fold(0.0, f64::max);
    Ok(RunEstimate {
        modeled_seconds: makespan + merge_seconds,
        merge_seconds,
        device_makespans,
        ledger,
    })
}

/// The modelled device seconds of every tile of an `n_r × n_q`, `d`-dim
/// job, by tile index, each charged as a cluster worker charges a one-tile
/// request ([`crate::run_tile_subset`]): one `spec` device, launch overlap
/// decided for the whole job, precalculation not cached.
pub fn estimate_tile_seconds(
    n_r: usize,
    n_q: usize,
    d: usize,
    cfg: &MdmpConfig,
    spec: &DeviceSpec,
) -> Result<Vec<f64>, MdmpError> {
    cfg.validate(n_r, n_q)?;
    let tiles = compute_tile_list(n_r, n_q, cfg.n_tiles)?;
    let overlap = overlap_factor(tiles.len(), 1);
    let kahan = cfg.mode.compensated_precalc();
    let mut system = GpuSystem::homogeneous(spec.clone(), 1);
    tiles
        .iter()
        .map(|tile| {
            system.reset();
            let (costs, h2d, d2h, device_bytes) = tile_cost_bundle(tile, d, cfg, kahan);
            submit_tile_costs(
                &mut system,
                0,
                0,
                tile.index,
                &costs,
                h2d,
                d2h,
                device_bytes,
                overlap,
            )?;
            Ok(system.device(0).timeline.makespan())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdmp_gpu_sim::{DeviceSpec, KernelClass};
    use mdmp_precision::PrecisionMode;

    fn paper_cfg(mode: PrecisionMode, tiles: usize) -> MdmpConfig {
        MdmpConfig::new(64, mode).with_tiles(tiles)
    }

    /// The paper's headline: ~54× A100 vs 16-core CPU in FP64 at
    /// (n = 2¹⁶, d = 2⁶, m = 2⁶).
    #[test]
    fn headline_a100_vs_cpu_speedup() {
        let n = 1 << 16;
        let d = 64;
        let cfg = paper_cfg(PrecisionMode::Fp64, 1);
        let mut a100 = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let t_gpu = estimate_run(n, n, d, &cfg, &mut a100)
            .unwrap()
            .modeled_seconds;
        let mut cpu = GpuSystem::homogeneous(DeviceSpec::skylake_16c(), 1);
        let t_cpu = estimate_run(n, n, d, &cfg, &mut cpu)
            .unwrap()
            .modeled_seconds;
        let speedup = t_cpu / t_gpu;
        assert!(
            (40.0..=70.0).contains(&speedup),
            "A100 vs CPU speedup {speedup:.1} outside the paper's ~54x band"
        );
    }

    /// ~41.6× V100 vs CPU.
    #[test]
    fn headline_v100_vs_cpu_speedup() {
        let n = 1 << 16;
        let d = 64;
        let cfg = paper_cfg(PrecisionMode::Fp64, 1);
        let mut v100 = GpuSystem::homogeneous(DeviceSpec::v100(), 1);
        let t_gpu = estimate_run(n, n, d, &cfg, &mut v100)
            .unwrap()
            .modeled_seconds;
        let mut cpu = GpuSystem::homogeneous(DeviceSpec::skylake_16c(), 1);
        let t_cpu = estimate_run(n, n, d, &cfg, &mut cpu)
            .unwrap()
            .modeled_seconds;
        let speedup = t_cpu / t_gpu;
        assert!(
            (30.0..=55.0).contains(&speedup),
            "V100 vs CPU speedup {speedup:.1} outside the paper's ~42x band"
        );
    }

    /// ~1.4× FP16 vs FP64 on one A100 "for common problem settings".
    #[test]
    fn headline_reduced_precision_gain() {
        let n = 1 << 16;
        let d = 64;
        let mut a100 = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let t64 = estimate_run(n, n, d, &paper_cfg(PrecisionMode::Fp64, 1), &mut a100)
            .unwrap()
            .modeled_seconds;
        let t16 = estimate_run(n, n, d, &paper_cfg(PrecisionMode::Fp16, 1), &mut a100)
            .unwrap()
            .modeled_seconds;
        let gain = t64 / t16;
        assert!(
            (1.2..=1.9).contains(&gain),
            "FP16 gain {gain:.2} outside the paper's ~1.4x band"
        );
    }

    /// ~3.8× on 4 A100s (≥95% parallel efficiency) with 16 tiles.
    #[test]
    fn headline_four_gpu_scaling() {
        let n = 1 << 16;
        let d = 64;
        let cfg = paper_cfg(PrecisionMode::Fp64, 16);
        let mut one = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let t1 = estimate_run(n, n, d, &cfg, &mut one)
            .unwrap()
            .modeled_seconds;
        let mut four = GpuSystem::homogeneous(DeviceSpec::a100(), 4);
        let t4 = estimate_run(n, n, d, &cfg, &mut four)
            .unwrap()
            .modeled_seconds;
        let speedup = t1 / t4;
        assert!(
            speedup > 3.6 && speedup <= 4.05,
            "4-GPU speedup {speedup:.2} outside the paper's ~3.8x band"
        );
    }

    /// Odd GPU counts are less efficient with 16 tiles (Fig. 5).
    #[test]
    fn odd_gpu_counts_lose_efficiency() {
        let n = 1 << 15;
        let d = 64;
        let cfg = paper_cfg(PrecisionMode::Fp64, 16);
        let mut t = [0.0; 9];
        for (g, slot) in t.iter_mut().enumerate().skip(1) {
            let mut sys = GpuSystem::homogeneous(DeviceSpec::v100(), g);
            *slot = estimate_run(n, n, d, &cfg, &mut sys)
                .unwrap()
                .modeled_seconds;
        }
        let eff = |g: usize| t[1] / (g as f64 * t[g]);
        assert!(eff(2) > 0.9);
        assert!(eff(4) > 0.9);
        assert!(eff(8) > 0.85);
        assert!(
            eff(3) < eff(2),
            "3 GPUs less efficient than 2 (6 vs 5.33 tiles)"
        );
        assert!(eff(5) < eff(4));
        assert!(eff(7) < eff(8));
    }

    /// Execution time is independent of the segment length m (Fig. 6 right).
    #[test]
    fn runtime_independent_of_m() {
        let n = 1 << 14;
        let d = 16;
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let t8 = estimate_run(n, n, d, &MdmpConfig::new(8, PrecisionMode::Fp64), &mut sys)
            .unwrap()
            .modeled_seconds;
        let t64 = estimate_run(n, n, d, &MdmpConfig::new(64, PrecisionMode::Fp64), &mut sys)
            .unwrap()
            .modeled_seconds;
        assert!(
            (t8 - t64).abs() / t8 < 0.02,
            "m should barely affect runtime: {t8} vs {t64}"
        );
    }

    /// Quadratic scaling in n, linear in d at paper scale (Fig. 6 left &
    /// middle; at small n the per-launch overheads flatten the curve, as
    /// the paper's log-log plots also show).
    #[test]
    fn complexity_scaling() {
        let d = 64;
        let cfg = MdmpConfig::new(64, PrecisionMode::Fp64);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let t1 = estimate_run(1 << 15, 1 << 15, d, &cfg, &mut sys)
            .unwrap()
            .modeled_seconds;
        let t2 = estimate_run(1 << 16, 1 << 16, d, &cfg, &mut sys)
            .unwrap()
            .modeled_seconds;
        let ratio_n = t2 / t1;
        assert!(
            (3.2..=4.3).contains(&ratio_n),
            "doubling n should ~4x the time, got {ratio_n:.2}"
        );
        let ta = estimate_run(1 << 15, 1 << 15, 32, &cfg, &mut sys)
            .unwrap()
            .modeled_seconds;
        let tb = estimate_run(1 << 15, 1 << 15, 64, &cfg, &mut sys)
            .unwrap()
            .modeled_seconds;
        let ratio_d = tb / ta;
        assert!(
            (1.5..=2.4).contains(&ratio_d),
            "doubling d should ~2x the time, got {ratio_d:.2}"
        );
    }

    /// Kernel dominance shifts from dist_calc to sort_&_incl_scan as d
    /// grows (Fig. 4).
    #[test]
    fn kernel_dominance_crossover_with_d() {
        let n = 1 << 16;
        let cfg = MdmpConfig::new(64, PrecisionMode::Fp64);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let small_d = estimate_run(n, n, 8, &cfg, &mut sys).unwrap().ledger;
        assert!(
            small_d.seconds(KernelClass::DistCalc) > small_d.seconds(KernelClass::SortScan),
            "dist_calc dominates at small d"
        );
        let big_d = estimate_run(n, n, 64, &cfg, &mut sys).unwrap().ledger;
        assert!(
            big_d.seconds(KernelClass::SortScan) > big_d.seconds(KernelClass::DistCalc),
            "sort dominates at large d"
        );
    }

    /// The modelled absolute time at the paper's Fig. 4 operating point
    /// lands in the right ballpark (~10-20 s on A100, FP64).
    #[test]
    fn fig4_operating_point_magnitude() {
        let cfg = MdmpConfig::new(64, PrecisionMode::Fp64);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let t = estimate_run(1 << 16, 1 << 16, 64, &cfg, &mut sys)
            .unwrap()
            .modeled_seconds;
        assert!(
            (8.0..=25.0).contains(&t),
            "A100 FP64 n=2^16 d=2^6: {t:.1} s"
        );
    }

    /// More tiles first help (overhead overlap), then hurt (merge overhead)
    /// — the Fig. 7 time profile.
    #[test]
    fn tile_count_time_profile() {
        let n = 1 << 16;
        let d = 64;
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let mut t = |tiles: usize| {
            estimate_run(n, n, d, &paper_cfg(PrecisionMode::Fp16, tiles), &mut sys)
                .unwrap()
                .modeled_seconds
        };
        let t1 = t(1);
        let t16 = t(16);
        let t1024 = t(1024);
        assert!(t16 < t1, "a few tiles should beat one tile: {t16} vs {t1}");
        assert!(
            t1024 > t16,
            "1024 tiles pay merge overhead: {t1024} vs {t16}"
        );
    }

    /// The per-tile estimate is what a worker reports for a one-tile
    /// request, bit for bit, in every mode.
    #[test]
    fn tile_seconds_match_one_tile_subset_requests() {
        use mdmp_data::synthetic::{generate_pair, Pattern, SyntheticConfig};
        let pair = generate_pair(&SyntheticConfig {
            n_subsequences: 96,
            dims: 2,
            m: 8,
            pattern: Pattern::Sine,
            embeddings: 1,
            noise: 0.3,
            pattern_amplitude: 1.0,
            seed: 5,
        });
        let n_r = pair.reference.n_segments(8);
        let n_q = pair.query.n_segments(8);
        for mode in PrecisionMode::ALL {
            let cfg = MdmpConfig::new(8, mode).with_tiles(4);
            let estimated = estimate_tile_seconds(n_r, n_q, 2, &cfg, &DeviceSpec::a100()).unwrap();
            assert_eq!(estimated.len(), 4, "{mode}");
            let mut node = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
            for (index, seconds) in estimated.iter().enumerate() {
                let run = crate::run_tile_subset(
                    &pair.reference,
                    &pair.query,
                    &cfg,
                    &mut node,
                    None,
                    &[index],
                )
                .unwrap();
                assert_eq!(
                    run.results[0].device_seconds.to_bits(),
                    seconds.to_bits(),
                    "{mode} tile {index}"
                );
            }
        }
    }
}
