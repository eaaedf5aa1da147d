//! The three per-iteration GPU kernels of Pseudocode 1 and their cost
//! models.
//!
//! Each kernel comes in two parts: a **functional** implementation (exact
//! arithmetic semantics of the paper's CUDA kernel, executed data-parallel
//! on the host) and a **cost function** producing the
//! [`mdmp_gpu_sim::KernelCost`] charged to the simulated device. The
//! effective-traffic coefficients encode which operands hit DRAM versus
//! stay resident in L2/shared memory; they are part of the performance-model
//! calibration documented in EXPERIMENTS.md.

pub mod dist;
pub mod fused;
pub mod gemm;
pub mod sort_scan;
pub mod update;

pub use dist::{dist_cost, dist_row, DistParams};
pub use fused::fused_row;
pub use gemm::{gemm_accumulate, gemm_cost, gemm_row};
pub use sort_scan::{
    bitonic_sort, comparator_schedule, inclusive_scan_avg, scan_divisors, sort_scan_cost,
    sort_scan_row, Comparator,
};
pub use update::{update_cost, update_profile_row};

use mdmp_gpu_sim::{KernelClass, KernelCost};
use mdmp_precision::Format;

/// Cost of the `precalculation` kernel for a tile with `n_r` reference
/// segments, `n_q` query segments, segment length `m` and `d` dimensions.
///
/// Work: windowed running sums and derived vectors O((n_r+n_q)·d), plus the
/// naive initial dot products — `n_q + n_r` mean-centered dot products of
/// length `m` per dimension. Kahan compensation (FP16C) quadruples the
/// additions of the summation part; the paper observes (and the model
/// reproduces) that this "does not result in any significant overhead".
pub fn precalc_cost(
    n_r: usize,
    n_q: usize,
    m: usize,
    d: usize,
    format: Format,
    kahan: bool,
) -> KernelCost {
    let b = format.bytes() as u64;
    let nd = ((n_r + n_q) * d) as u64;
    let input = ((n_r + n_q + 2 * m) * d) as u64;
    let sum_flops = 10 * nd * if kahan { 4 } else { 1 };
    let dot_flops = (2 * (n_r + n_q) * m * d) as u64 * if kahan { 4 } else { 1 };
    KernelCost {
        bytes_read: input * b,
        bytes_written: 4 * nd * b, // mu, inv, df, dg
        flops: sum_flops + dot_flops,
        launches: 2,
        ..KernelCost::new(KernelClass::Precalc, format)
    }
}

/// Host→device input bytes for a tile (both series windows).
pub fn h2d_bytes(n_r: usize, n_q: usize, m: usize, d: usize, format: Format) -> u64 {
    (((n_r + m - 1) + (n_q + m - 1)) * d * format.bytes()) as u64
}

/// Host→device bytes when a tile's precalculation is served from a cache:
/// instead of the raw input windows, the host ships the precomputed arrays —
/// four rolling-statistics vectors per series plus the initial QT row and
/// column.
pub fn h2d_bytes_cached(n_r: usize, n_q: usize, d: usize, format: Format) -> u64 {
    (5 * (n_r + n_q) * d * format.bytes()) as u64
}

/// Device→host result bytes for a tile (profile in the working format plus
/// 64-bit indices).
pub fn d2h_bytes(n_q: usize, d: usize, format: Format) -> u64 {
    (n_q * d * (format.bytes() + 8)) as u64
}

/// Device-memory working set of one tile: input windows, precalculation
/// outputs for both series, the QT double buffer, the distance row-plane,
/// the sorted/scanned plane (padded to a power of two), and the running
/// profile + index planes.
pub fn tile_device_bytes(n_r: usize, n_q: usize, m: usize, d: usize, format: Format) -> u64 {
    let b = format.bytes() as u64;
    let d_pad = d.next_power_of_two() as u64;
    let inputs = h2d_bytes(n_r, n_q, m, d, format);
    let stats = 4 * ((n_r + n_q) * d) as u64 * b;
    let qt_init = ((n_r + n_q) * d) as u64 * b;
    let qt_buffers = 2 * (n_q * d) as u64 * b;
    let dist_plane = (n_q * d) as u64 * b;
    let sorted_plane = n_q as u64 * d_pad * b;
    let profile = (n_q * d) as u64 * (b + 8);
    inputs + stats + qt_init + qt_buffers + dist_plane + sorted_plane + profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precalc_cost_scales_linearly_and_kahan_is_cheap() {
        let a = precalc_cost(1000, 1000, 64, 8, Format::Fp64, false);
        let b = precalc_cost(2000, 2000, 64, 8, Format::Fp64, false);
        assert_eq!(b.bytes_written, 2 * a.bytes_written);
        let k = precalc_cost(1000, 1000, 64, 8, Format::Fp16, true);
        let p = precalc_cost(1000, 1000, 64, 8, Format::Fp16, false);
        assert_eq!(k.flops, 4 * p.flops);
        assert_eq!(k.bytes(), p.bytes(), "kahan adds no traffic");
    }

    #[test]
    fn transfer_sizes() {
        // 2 windows of (n+m-1)·d elements.
        assert_eq!(
            h2d_bytes(100, 100, 8, 2, Format::Fp64),
            (107 * 2 * 2 * 8) as u64
        );
        assert_eq!(d2h_bytes(100, 2, Format::Fp16), (100 * 2 * 10) as u64);
    }

    #[test]
    fn tile_bytes_scale_with_format() {
        let fp64 = tile_device_bytes(1 << 12, 1 << 12, 64, 64, Format::Fp64);
        let fp16 = tile_device_bytes(1 << 12, 1 << 12, 64, 64, Format::Fp16);
        assert!(fp16 < fp64);
        // Index plane (8 B) is format-independent, so not a clean 4×.
        assert!(fp64 / fp16 >= 3);
        // Paper-scale single tile fits an A100 (40 GB).
        let paper = tile_device_bytes(1 << 16, 1 << 16, 64, 64, Format::Fp64);
        assert!(paper < 40 * (1 << 30));
    }
}
