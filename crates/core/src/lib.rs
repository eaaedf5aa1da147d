//! # mdmp-core
//!
//! The primary contribution of *Exploiting Reduced Precision for GPU-based
//! Time Series Mining* (Ju, Raoofy, Yang, Laure, Schulz — IPDPS 2022),
//! reproduced in Rust on the software GPU model of `mdmp-gpu-sim`:
//!
//! * the **single-tile algorithm** (Pseudocode 1): `precalculation` →
//!   n iterations of `dist_calc` → `sort_&_incl_scan` → `update_mat_prof`;
//! * the **multi-tile algorithm** (Pseudocode 2): 2-D tiling of the distance
//!   matrix, Round-robin assignment to GPUs, per-tile streams, CPU merge —
//!   which both parallelizes across devices and bounds rounding-error
//!   propagation by restarting the Eq. 1 recurrence at tile boundaries;
//! * the **five precision modes** (FP64, FP32, FP16, Mixed, FP16C) plus the
//!   BF16/TF32 extensions, selected by [`mdmp_precision::PrecisionMode`];
//! * **baselines**: a brute-force checker and an mSTAMP/(MP)^N-style CPU
//!   implementation (the paper's comparison target).
//!
//! ## Quick start
//!
//! ```
//! use mdmp_core::{MdmpConfig, run_with_mode};
//! use mdmp_data::synthetic::{generate_pair, SyntheticConfig};
//! use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
//! use mdmp_precision::PrecisionMode;
//!
//! let mut cfg_data = SyntheticConfig::paper_default();
//! cfg_data.n_subsequences = 256; // scaled for the doctest
//! cfg_data.dims = 4;
//! cfg_data.m = 16;
//! let pair = generate_pair(&cfg_data);
//!
//! let cfg = MdmpConfig::new(16, PrecisionMode::Fp32);
//! let mut system = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
//! let run = run_with_mode(&pair.reference, &pair.query, &cfg, &mut system).unwrap();
//! assert_eq!(run.profile.n_query(), 256);
//! assert_eq!(run.profile.dims(), 4);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod anytime;
pub mod baseline;
pub mod config;
pub mod driver;
pub mod estimate;
pub mod kernels;
pub mod precalc;
pub mod profile;
pub mod remote;
pub mod streaming;
pub mod tile_exec;
pub mod tiling;

pub use analysis::{motif_subspace, top_discords, top_motifs, Discord, Motif};
pub use anytime::{scrimp_anytime, AnytimeProgress};
pub use config::{MdmpConfig, MdmpError, TileError};
pub use driver::{run_with_mode, run_with_mode_cached, MdmpRun, PrecalcStore};
pub use estimate::{estimate_run, estimate_tile_seconds, RunEstimate};
pub use precalc::{
    compute_stats, compute_stats_checkpointed, convert_qt, extend_stats, initial_qt,
    initial_qt_pooled, SeriesDevice, Stats, StatsCheckpoint,
};
pub use profile::MatrixProfile;
pub use remote::{
    job_tile_count, profile_planes_k_major, run_tile_subset, SubsetTileResult, TileSubsetRun,
};
pub use streaming::{StreamingProfile, StreamingStats};
pub use tile_exec::{
    apply_plane_fault, compute_tile_precalc, execute_tile, execute_tile_from_precalc,
    execute_tile_from_precalc_pooled, max_profile_value, validate_profile_plane, PlaneBuffers,
    PlaneViolation, TilePrecalc,
};
pub use tiling::{assign_tiles, assign_tiles_weighted, compute_tile_list, Tile, TileSchedule};
