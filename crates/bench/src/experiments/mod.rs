//! One module per group of paper results.
//!
//! | module | regenerates |
//! |---|---|
//! | [`accuracy`] | Fig. 2 (numerical accuracy sweeps), Fig. 3 (per-pattern recall) |
//! | [`performance`] | Fig. 4 (kernel breakdown), Fig. 5 (multi-GPU scaling), Fig. 6 (machine comparison), headline speedups, §V-C utilization |
//! | [`tradeoff`] | Fig. 7 (accuracy–performance vs tile count) |
//! | [`case_studies`] | Fig. 9 (HPC-ODA), Fig. 10 (genome), Fig. 12 + Table I (turbines) |
//! | [`extensions`] | beyond-paper studies: multi-node, scheduling & clamp ablations, all-modes table, Fig. 8 timeline, Fig. 11 shapes |
//! | [`tc`] | simulated tensor-core GEMM modes vs the FP64 pipeline (BENCH_PR7.json) |

pub mod accuracy;
pub mod case_studies;
pub mod extensions;
pub mod performance;
pub mod tc;
pub mod tradeoff;

use mdmp_core::{run_with_mode, MatrixProfile, MdmpConfig};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_precision::PrecisionMode;

/// A single simulated A100 (the workhorse of the functional experiments).
pub fn a100() -> GpuSystem {
    GpuSystem::homogeneous(DeviceSpec::a100(), 1)
}

/// Run one mode functionally on a fresh single-A100 system and return the
/// profile (panics on configuration errors — experiment parameters are
/// static).
pub fn run_profile(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    m: usize,
    mode: PrecisionMode,
    n_tiles: usize,
) -> MatrixProfile {
    let cfg = MdmpConfig::new(m, mode).with_tiles(n_tiles);
    let mut system = a100();
    run_with_mode(reference, query, &cfg, &mut system)
        .unwrap_or_else(|e| panic!("run failed ({mode}, {n_tiles} tiles): {e}"))
        .profile
}
