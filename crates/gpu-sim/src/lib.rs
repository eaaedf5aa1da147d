//! # mdmp-gpu-sim
//!
//! A software execution model of the multi-GPU systems the paper runs on
//! (DGX-1 with 8×V100, Raven nodes with 4×A100), built because this
//! reproduction has no GPU hardware available.
//!
//! The model has two faces:
//!
//! 1. **Functional execution** — kernels are data-parallel Rust closures run
//!    over a simulated grid ([`grid`]). The arithmetic is performed exactly
//!    as the paper's CUDA kernels perform it (same operation order, same
//!    per-operation rounding via `mdmp-precision`), so accuracy results are
//!    faithful.
//! 2. **Performance modelling** — every kernel reports a [`cost::KernelCost`]
//!    (bytes moved, FLOPs, shared-memory ops, launches, group barriers) and
//!    the [`timing::TimingModel`] converts it to seconds with a roofline
//!    model calibrated against the utilization numbers the paper reports
//!    from NVIDIA Nsight Compute (§V-C). Streams, copy engines and
//!    multi-device scheduling are simulated by [`stream::DeviceTimeline`]
//!    and [`executor::GpuSystem`], reproducing the overlap behaviour that
//!    drives Fig. 5 and Fig. 7.
//!
//! The calibration constants live in [`timing`] and are documented in the
//! repository's EXPERIMENTS.md.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cost;
pub mod device;
pub mod executor;
pub mod grid;
pub mod health;
pub mod memory;
pub mod mma;
pub mod profiler;
pub mod simt;
pub mod stream;
pub mod timing;

pub use cost::{CostLedger, KernelClass, KernelCost};
pub use device::{DeviceKind, DeviceSpec, LaunchConfig, TcThroughput};
pub use executor::{GpuSystem, SimDevice};
pub use health::DeviceHealth;
pub use memory::{AllocError, MemoryTracker};
pub use mma::{default_chunk_k, mma_dot, round_operand, MmaConfig, MMA_CHUNK_SIZES};
pub use profiler::UtilizationReport;
pub use simt::{run_block, run_grid, BitonicScanKernel, BlockKernel, FiberState, ThreadOrder};
pub use stream::{DeviceTimeline, Op, OpRecord};
pub use timing::TimingModel;
