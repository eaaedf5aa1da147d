//! Functional execution of one tile — the single-tile algorithm of
//! Pseudocode 1, generic over the precalculation precision `P` and the
//! main-loop precision `M`.
//!
//! The mode table (§III-C / Fig. 1):
//!
//! | mode  | `P`   | `M`   | kahan |
//! |-------|-------|-------|-------|
//! | FP64  | `f64` | `f64` | no    |
//! | FP32  | `f32` | `f32` | no    |
//! | FP16  | `Half`| `Half`| no    |
//! | Mixed | `f32` | `Half`| no    |
//! | FP16C | `Half`| `Half`| yes   |

use crate::config::MdmpConfig;
use crate::kernels::{
    self, comparator_schedule, dist_cost, fused_row, gemm_cost, gemm_row, scan_divisors,
    sort_scan_cost, sort_scan_row, update_cost, update_profile_row, DistParams,
};
use crate::precalc::{compute_stats, convert_qt, initial_qt, SeriesDevice, Stats};
use crate::profile::MatrixProfile;
use crate::tiling::Tile;
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultKind;
use mdmp_gpu_sim::{KernelCost, MmaConfig};
use mdmp_precision::Real;
use std::fmt;

/// The functional result of one tile plus the costs to charge the device.
#[derive(Debug)]
pub struct TileOutput {
    /// Profile over this tile's query columns, with **global** reference
    /// indices in the index plane.
    pub profile: MatrixProfile,
    /// Aggregated kernel costs in submission order
    /// (precalc, dist·rows, sort·rows, update·rows).
    pub kernel_costs: Vec<KernelCost>,
    /// H2D bytes for this tile's input windows.
    pub h2d_bytes: u64,
    /// D2H bytes for this tile's results.
    pub d2h_bytes: u64,
    /// Device-memory working set of the tile.
    pub device_bytes: u64,
}

/// The outputs of one tile's `precalculation` kernel, widened **exactly** to
/// f64 (every supported format embeds in f64 without rounding).
///
/// Because [`Stats::convert`] and [`convert_qt`] both round through f64, a
/// tile executed from a stored `TilePrecalc` is bit-identical to one whose
/// precalculation ran inline — which is what makes this the cacheable unit
/// for a result server: the cache key only needs to pin down the inputs of
/// the precalculation (series, window `m`, precalc format, kahan flag).
#[derive(Debug, Clone)]
pub struct TilePrecalc {
    /// Reference-side rolling statistics.
    pub rstats: Stats<f64>,
    /// Query-side rolling statistics.
    pub qstats: Stats<f64>,
    /// Initial correlation row `QT_r` (dimension-major, `d × n_q`).
    pub qt_row0: Vec<f64>,
    /// Initial correlation column `QT_q` (dimension-major, `d × n_r`).
    pub qt_col0: Vec<f64>,
}

impl TilePrecalc {
    /// Approximate heap footprint in bytes (for cache budgeting).
    pub fn approx_bytes(&self) -> u64 {
        let elems = self.rstats.mu.len() * 4
            + self.qstats.mu.len() * 4
            + self.qt_row0.len()
            + self.qt_col0.len();
        (elems * std::mem::size_of::<f64>()) as u64
    }
}

/// Run one tile's `precalculation` kernel in precision `P` and capture the
/// result exactly in f64.
pub fn compute_tile_precalc<P: Real>(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    tile: &Tile,
    cfg: &MdmpConfig,
    kahan: bool,
) -> TilePrecalc {
    let m = cfg.m;
    // H2D copy: the tile's input windows, converted to the precalc format.
    let refd = SeriesDevice::<P>::load(reference, tile.row0, tile.rows + m - 1);
    let qd = SeriesDevice::<P>::load(query, tile.col0, tile.cols + m - 1);
    let rstats_p = compute_stats(&refd, m, kahan);
    let qstats_p = compute_stats(&qd, m, kahan);
    let (qt_row0_p, qt_col0_p) = initial_qt(&refd, &rstats_p, &qd, &qstats_p, m, kahan);
    TilePrecalc {
        rstats: rstats_p.convert(),
        qstats: qstats_p.convert(),
        qt_row0: convert_qt(&qt_row0_p),
        qt_col0: convert_qt(&qt_col0_p),
    }
}

/// Execute one tile functionally and collect its modelled costs.
pub fn execute_tile<P: Real, M: Real>(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    tile: &Tile,
    cfg: &MdmpConfig,
    kahan: bool,
) -> TileOutput {
    let pre = compute_tile_precalc::<P>(reference, query, tile, cfg, kahan);
    execute_tile_from_precalc::<M>(&pre, tile, cfg, kahan, false)
}

/// Reusable per-worker scratch planes for the tile main loop — the working
/// buffers of [`execute_tile_from_precalc`], allocated once per worker
/// thread and recycled across tiles instead of re-`vec!`-ed per tile. Reuse
/// only trades allocation for a fill: every buffer is reset to exactly the
/// initial contents a fresh allocation would have (zeros, `+∞`, `-1`), so
/// pooled execution is bit-identical to unpooled.
///
/// The blocked-GEMM main loop (tensor-core modes) uses six planes
/// (`qt_prev`, `qt_next`, `dist`, `scanned`, `p`, `i`); the fused row pass
/// of the vector modes uses four — its per-column fibers live in a small
/// per-worker scratch block inside [`fused_row`], so `dist` and `scanned`
/// stay empty. The accounting in [`PlaneBuffers::plane_elems`] reflects
/// whichever shape the last tile used.
#[derive(Debug, Default)]
pub struct PlaneBuffers<M: Real> {
    qt_prev: Vec<M>,
    qt_next: Vec<M>,
    dist_plane: Vec<M>,
    scanned: Vec<M>,
    p_plane: Vec<M>,
    i_plane: Vec<i64>,
    tiles_executed: u64,
    reuses: u64,
}

impl<M: Real> PlaneBuffers<M> {
    /// An empty pool entry; the first tile sizes it.
    pub fn new() -> PlaneBuffers<M> {
        PlaneBuffers {
            qt_prev: Vec::new(),
            qt_next: Vec::new(),
            dist_plane: Vec::new(),
            scanned: Vec::new(),
            p_plane: Vec::new(),
            i_plane: Vec::new(),
            tiles_executed: 0,
            reuses: 0,
        }
    }

    /// Reset every plane to its initial contents for an `n_q × d` tile
    /// (`d_pad` = `d` rounded up to a power of two).
    ///
    /// Only the GEMM path materializes `dist` (`n_q × d`) and `scanned`
    /// (`n_q × d_pad`); the fused pass releases both.
    fn prepare(&mut self, n_q: usize, d: usize, d_pad: usize, gemm: bool) {
        let plane = n_q * d;
        if self.tiles_executed > 0 {
            self.reuses += 1;
        }
        self.tiles_executed += 1;
        reset(&mut self.qt_prev, plane, M::zero());
        reset(&mut self.qt_next, plane, M::zero());
        if gemm {
            reset(&mut self.dist_plane, plane, M::zero());
            reset(&mut self.scanned, n_q * d_pad, M::zero());
        } else {
            reset(&mut self.dist_plane, 0, M::zero());
            reset(&mut self.scanned, 0, M::zero());
        }
        reset(&mut self.p_plane, plane, M::infinity());
        reset(&mut self.i_plane, plane, -1i64);
    }

    /// Tiles executed through this pool entry.
    pub fn tiles_executed(&self) -> u64 {
        self.tiles_executed
    }

    /// Tiles that reused an already-allocated set of planes (everything
    /// after the worker's first tile).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Elements currently held across all planes of this pool entry (the
    /// fused shape holds neither the `n_q × d` dist plane nor the
    /// `n_q × d_pad` scanned plane of the GEMM shape).
    pub fn plane_elems(&self) -> usize {
        self.qt_prev.len()
            + self.qt_next.len()
            + self.dist_plane.len()
            + self.scanned.len()
            + self.p_plane.len()
            + self.i_plane.len()
    }
}

fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Execute one tile's main loop from a (possibly cached) precalculation.
///
/// With `precalc_cached = true` the modelled costs omit the `Precalc`
/// kernel and charge the (smaller) cached-array H2D transfer instead of the
/// raw input windows — the device never sees the precalculation.
pub fn execute_tile_from_precalc<M: Real>(
    pre: &TilePrecalc,
    tile: &Tile,
    cfg: &MdmpConfig,
    kahan: bool,
    precalc_cached: bool,
) -> TileOutput {
    let mut bufs = PlaneBuffers::<M>::new();
    execute_tile_from_precalc_pooled(pre, tile, cfg, kahan, precalc_cached, &mut bufs)
}

/// [`execute_tile_from_precalc`] with caller-owned scratch planes — the
/// hot path of the concurrent tile pipeline, where each host worker owns
/// one [`PlaneBuffers`] and runs many tiles through it.
pub fn execute_tile_from_precalc_pooled<M: Real>(
    pre: &TilePrecalc,
    tile: &Tile,
    cfg: &MdmpConfig,
    kahan: bool,
    precalc_cached: bool,
    bufs: &mut PlaneBuffers<M>,
) -> TileOutput {
    let d = pre.rstats.d;
    let d_pad = d.next_power_of_two();
    let n_r = tile.rows;
    let n_q = tile.cols;
    assert_eq!(pre.rstats.n, n_r, "precalc does not match tile rows");
    assert_eq!(pre.qstats.n, n_q, "precalc does not match tile cols");

    // Narrow to the main-loop precision (one rounding, same as the inline
    // Stats::convert / convert_qt path).
    let rstats: Stats<M> = pre.rstats.convert();
    let qstats: Stats<M> = pre.qstats.convert();
    let qt_row0: Vec<M> = convert_qt(&pre.qt_row0);
    let qt_col0: Vec<M> = convert_qt(&pre.qt_col0);

    // Tensor-core modes take the blocked-GEMM dist_calc path, which needs
    // the materialized dist/scanned planes; every vector mode runs the
    // fused row pass.
    let tc = cfg.mode.tc_input();

    // Working planes in the main-loop precision, from the worker's pool.
    bufs.prepare(n_q, d, d_pad, tc.is_some());
    let PlaneBuffers {
        qt_prev,
        qt_next,
        dist_plane,
        scanned,
        p_plane,
        i_plane,
        ..
    } = bufs;

    let params = DistParams::<M>::new(cfg.m, cfg.clamp, tile.row0, tile.col0, cfg.exclusion_zone);

    if let Some(input) = tc {
        // Blocked-GEMM main loop (DESIGN.md §13): `qt_prev` doubles as the
        // panel base plane. Each row is a rank-2t update of the base row
        // through the simulated MMA unit; every `chunk_k` rows (and after
        // row 0, whose QT comes straight from the precalculation) the fresh
        // row is promoted to the new base — the tile-restarted recurrence.
        let mma = MmaConfig::new(input).with_chunk_k(cfg.resolved_tc_chunk_k(input));
        let mut base_idx = 0usize;
        for i in 0..n_r {
            gemm_row(
                i, base_idx, &qt_row0, &qt_col0, qt_prev, qt_next, dist_plane, &rstats, &qstats,
                &params, &mma,
            );
            sort_scan_row(dist_plane, scanned, n_q, d);
            update_profile_row(scanned, p_plane, i_plane, n_q, d, (tile.row0 + i) as i64);
            if i - base_idx == mma.chunk_k || i == 0 {
                qt_prev.copy_from_slice(qt_next);
                base_idx = i;
            }
        }
    } else {
        // Fused main loop (DESIGN.md §10): Pseudocode 1's three kernels as
        // one dispatch per row over k-major planes; neither the `dist` nor
        // the `scanned` plane exists — fibers live in per-worker scratch
        // inside `fused_row`.
        let schedule = comparator_schedule(d_pad);
        let divisors = scan_divisors::<M>(d);
        for i in 0..n_r {
            fused_row(
                i,
                &qt_row0,
                &qt_col0,
                qt_prev,
                qt_next,
                p_plane,
                i_plane,
                &rstats,
                &qstats,
                &params,
                &schedule,
                &divisors,
                (tile.row0 + i) as i64,
            );
            std::mem::swap(qt_prev, qt_next);
        }
    }
    // D2H: widen the profile exactly to f64 (the planes stay in the pool).
    let p_f64: Vec<f64> = p_plane.iter().map(|&v| v.to_f64()).collect();
    let profile = MatrixProfile::from_raw(p_f64, i_plane.clone(), n_q, d);

    let (kernel_costs, h2d_bytes, d2h_bytes, device_bytes) =
        tile_cost_bundle_reused(tile, d, cfg, kahan, precalc_cached);

    TileOutput {
        profile,
        kernel_costs,
        h2d_bytes,
        d2h_bytes,
        device_bytes,
    }
}

/// The three-kernel main loop of Pseudocode 1 (lines 3-7) — `dist_calc`,
/// `sort_&_incl_scan`, `update_mat_prof` as separate passes over
/// materialized `dist` and `scanned` planes. Production runs the fused row
/// pass instead; this is the reference the fused tile, driver and
/// streaming results are proved bit-identical against. Vector modes only
/// (the tensor-core modes run the blocked GEMM).
#[cfg(test)]
pub(crate) fn execute_tile_three_kernel_oracle<M: Real>(
    pre: &TilePrecalc,
    tile: &Tile,
    cfg: &MdmpConfig,
    kahan: bool,
    precalc_cached: bool,
) -> TileOutput {
    use crate::kernels::dist_row;
    assert!(cfg.mode.tc_input().is_none(), "the oracle is vector-only");
    let d = pre.rstats.d;
    let (n_r, n_q) = (tile.rows, tile.cols);
    let rstats: Stats<M> = pre.rstats.convert();
    let qstats: Stats<M> = pre.qstats.convert();
    let qt_row0: Vec<M> = convert_qt(&pre.qt_row0);
    let qt_col0: Vec<M> = convert_qt(&pre.qt_col0);
    let mut qt_prev = vec![M::zero(); n_q * d];
    let mut qt_next = vec![M::zero(); n_q * d];
    let mut dist_plane = vec![M::zero(); n_q * d];
    let mut scanned = vec![M::zero(); n_q * d.next_power_of_two()];
    let mut p_plane = vec![M::infinity(); n_q * d];
    let mut i_plane = vec![-1i64; n_q * d];
    let params = DistParams::<M>::new(cfg.m, cfg.clamp, tile.row0, tile.col0, cfg.exclusion_zone);
    for i in 0..n_r {
        dist_row(
            i,
            &qt_row0,
            &qt_col0,
            &qt_prev,
            &mut qt_next,
            &mut dist_plane,
            &rstats,
            &qstats,
            &params,
        );
        sort_scan_row(&dist_plane, &mut scanned, n_q, d);
        update_profile_row(
            &scanned,
            &mut p_plane,
            &mut i_plane,
            n_q,
            d,
            (tile.row0 + i) as i64,
        );
        std::mem::swap(&mut qt_prev, &mut qt_next);
    }
    let p_f64: Vec<f64> = p_plane.iter().map(|&v| v.to_f64()).collect();
    let (kernel_costs, h2d_bytes, d2h_bytes, device_bytes) =
        tile_cost_bundle_reused(tile, d, cfg, kahan, precalc_cached);
    TileOutput {
        profile: MatrixProfile::from_raw(p_f64, i_plane, n_q, d),
        kernel_costs,
        h2d_bytes,
        d2h_bytes,
        device_bytes,
    }
}

/// What the plane validation gate found wrong with a tile's result
/// ([`validate_profile_plane`]). Counts cover the whole plane; the first
/// offending `(column, dimension)` pair is kept for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneViolation {
    /// NaN profile values.
    pub nan: usize,
    /// Non-finite values paired with a real match index (a genuine unset
    /// entry is `+∞` with index `-1`, which is legal).
    pub inf: usize,
    /// Negative values (a z-normalized distance cannot be).
    pub negative: usize,
    /// Finite values above the analytic distance bound — the check that
    /// catches saturated reduced-precision values, which are finite and
    /// positive and would slip past a pure NaN/Inf scan.
    pub out_of_bound: usize,
    /// First offending `(column, dimension)`.
    pub first: (usize, usize),
}

impl PlaneViolation {
    fn any(&self) -> bool {
        self.nan + self.inf + self.negative + self.out_of_bound > 0
    }
}

impl fmt::Display for PlaneViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} NaN, {} Inf, {} negative, {} out-of-bound; first at column {} dim {}",
            self.nan, self.inf, self.negative, self.out_of_bound, self.first.0, self.first.1
        )
    }
}

/// The largest value a correct profile entry can take for segment length
/// `m`: the z-normalized distance bound `2√m`, widened by 25% of slack for
/// reduced-precision rounding plus one absolute unit for the very short
/// windows where the relative slack is thin.
pub fn max_profile_value(m: usize) -> f64 {
    2.5 * (m as f64).sqrt() + 1.0
}

/// Validate a tile's result plane: no NaN, no Inf outside genuine unset
/// entries (`+∞` paired with index `-1`), no negative distances, nothing
/// above `max_value` (see [`max_profile_value`]). The bound check is what
/// catches *saturated* reduced-precision results — e.g. an FP16 plane
/// pinned at `65504`, which is finite and would mask an overflow that FP32
/// would have reported as Inf.
pub fn validate_profile_plane(
    profile: &MatrixProfile,
    max_value: f64,
) -> Result<(), PlaneViolation> {
    let mut v = PlaneViolation::default();
    let mut first: Option<(usize, usize)> = None;
    for k in 0..profile.dims() {
        let values = profile.profile_dim(k);
        let indices = profile.index_dim(k);
        for (j, (&p, &i)) in values.iter().zip(indices).enumerate() {
            let bad = if p.is_nan() {
                v.nan += 1;
                true
            } else if p.is_infinite() || i == -1 {
                // Only the exact unset pair (+∞, -1) is legal.
                // float-eq-ok: exact sentinel-value test; +∞ is a single
                // bit pattern, no rounding is involved.
                let unset = p == f64::INFINITY && i == -1;
                if !unset {
                    v.inf += 1;
                }
                !unset
            } else if p < 0.0 {
                v.negative += 1;
                true
            } else if p > max_value {
                v.out_of_bound += 1;
                true
            } else {
                false
            };
            if bad && first.is_none() {
                first = Some((j, k));
            }
        }
    }
    if v.any() {
        v.first = first.unwrap_or((0, 0));
        return Err(v);
    }
    Ok(())
}

/// Corrupt one entry of a tile's result plane according to a poison
/// [`FaultKind`] — the functional stand-in for a device writing garbage.
/// The first *set* entry is targeted so an injected `+∞` is distinguishable
/// from a legitimate unset entry. Non-poison kinds are no-ops.
pub fn apply_plane_fault(profile: &mut MatrixProfile, kind: FaultKind) {
    let (p, idx) = profile.planes_mut();
    let o = idx.iter().position(|&i| i != -1).unwrap_or(0);
    match kind {
        FaultKind::PoisonNan => p[o] = f64::NAN,
        FaultKind::PoisonInf => p[o] = f64::INFINITY,
        FaultKind::BitFlip { bit } => p[o] = f64::from_bits(p[o].to_bits() ^ (1u64 << bit)),
        FaultKind::Kernel | FaultKind::Stall { .. } => {}
    }
}

/// The modelled costs of one tile, independent of functional execution —
/// shared by [`execute_tile`] and the paper-scale estimator
/// (`crate::estimate`).
///
/// Returns `(kernel costs in submission order, H2D bytes, D2H bytes,
/// device working-set bytes)`.
pub fn tile_cost_bundle(
    tile: &Tile,
    d: usize,
    cfg: &MdmpConfig,
    kahan: bool,
) -> (Vec<KernelCost>, u64, u64, u64) {
    tile_cost_bundle_reused(tile, d, cfg, kahan, false)
}

/// [`tile_cost_bundle`] with precalc reuse: when `precalc_cached` is set,
/// the `Precalc` kernel disappears from the submission list and the H2D
/// transfer ships the precomputed arrays instead of the raw input windows.
pub fn tile_cost_bundle_reused(
    tile: &Tile,
    d: usize,
    cfg: &MdmpConfig,
    kahan: bool,
    precalc_cached: bool,
) -> (Vec<KernelCost>, u64, u64, u64) {
    let m = cfg.m;
    let n_r = tile.rows;
    let n_q = tile.cols;
    let main_fmt = cfg.mode.main_format();
    let pre_fmt = cfg.mode.precalc_format();
    let rows = n_r as u64;
    let mut kernel_costs = Vec::with_capacity(4);
    if !precalc_cached {
        kernel_costs.push(kernels::precalc_cost(n_r, n_q, m, d, pre_fmt, kahan));
    }
    match cfg.mode.tc_input() {
        // TC modes: one blocked-GEMM dist_calc covers the whole tile, with
        // panel-amortized QT traffic instead of `rows` streaming launches.
        Some(input) => {
            let panel = cfg.resolved_tc_chunk_k(input);
            kernel_costs.push(gemm_cost(n_r, n_q, d, panel, input));
        }
        None => kernel_costs.push(dist_cost(n_q, d, main_fmt).repeated(rows)),
    }
    kernel_costs.push(sort_scan_cost(n_q, d, main_fmt).repeated(rows));
    kernel_costs.push(update_cost(n_q, d, main_fmt).repeated(rows));
    let h2d = if precalc_cached {
        kernels::h2d_bytes_cached(n_r, n_q, d, pre_fmt)
    } else {
        kernels::h2d_bytes(n_r, n_q, m, d, pre_fmt)
    };
    (
        kernel_costs,
        h2d,
        kernels::d2h_bytes(n_q, d, main_fmt),
        kernels::tile_device_bytes(n_r, n_q, m, d, main_fmt),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::compute_tile_list;
    use mdmp_data::stats::znorm_distance;
    use mdmp_precision::{Half, PrecisionMode};

    fn series(seed: u64, d: usize, len: usize) -> MultiDimSeries {
        let dims: Vec<Vec<f64>> = (0..d)
            .map(|k| {
                (0..len)
                    .map(|t| {
                        let x = t as f64 * (0.13 + 0.02 * k as f64) + seed as f64;
                        x.sin() + 0.4 * (2.3 * x).cos()
                    })
                    .collect()
            })
            .collect();
        MultiDimSeries::from_dims(dims)
    }

    /// Brute-force multi-dim matrix profile in f64 for validation.
    fn brute(reference: &MultiDimSeries, query: &MultiDimSeries, m: usize) -> MatrixProfile {
        let d = reference.dims();
        let n_r = reference.n_segments(m);
        let n_q = query.n_segments(m);
        let mut profile = MatrixProfile::new_unset(n_q, d);
        let (p, idx) = profile.planes_mut();
        for j in 0..n_q {
            for i in 0..n_r {
                let mut ds: Vec<f64> = (0..d)
                    .map(|k| znorm_distance(&reference.dim(k)[i..i + m], &query.dim(k)[j..j + m]))
                    .collect();
                ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let mut run = 0.0;
                for k in 0..d {
                    run += ds[k];
                    let avg = run / (k + 1) as f64;
                    if avg < p[k * n_q + j] {
                        p[k * n_q + j] = avg;
                        idx[k * n_q + j] = i as i64;
                    }
                }
            }
        }
        profile
    }

    #[test]
    fn fp64_tile_matches_brute_force() {
        let m = 10;
        let r = series(1, 3, 80);
        let q = series(5, 3, 70);
        let tile = compute_tile_list(r.n_segments(m), q.n_segments(m), 1).unwrap()[0];
        let cfg = MdmpConfig::new(m, PrecisionMode::Fp64);
        let out = execute_tile::<f64, f64>(&r, &q, &tile, &cfg, false);
        let expected = brute(&r, &q, m);
        for k in 0..3 {
            for j in 0..q.n_segments(m) {
                assert!(
                    (out.profile.value(j, k) - expected.value(j, k)).abs() < 1e-7,
                    "P[{j}][{k}]: {} vs {}",
                    out.profile.value(j, k),
                    expected.value(j, k)
                );
                assert_eq!(out.profile.index(j, k), expected.index(j, k), "I[{j}][{k}]");
            }
        }
    }

    #[test]
    fn tile_with_offsets_matches_brute_force_submatrix() {
        let m = 8;
        let r = series(2, 2, 100);
        let q = series(9, 2, 100);
        let tile = Tile {
            index: 0,
            row0: 20,
            rows: 30,
            col0: 40,
            cols: 25,
        };
        let cfg = MdmpConfig::new(m, PrecisionMode::Fp64);
        let out = execute_tile::<f64, f64>(&r, &q, &tile, &cfg, false);
        assert_eq!(out.profile.n_query(), 25);
        // Compare against brute force restricted to the tile's rows.
        let n_q = q.n_segments(m);
        let full = brute(&r, &q, m);
        let _ = (n_q, full);
        for k in 0..2 {
            for jj in 0..25 {
                let j = 40 + jj;
                // Recompute restricted min over rows 20..50.
                let mut best = f64::INFINITY;
                let mut best_i = -1i64;
                for i in 20..50 {
                    let mut ds: Vec<f64> = (0..2)
                        .map(|kk| znorm_distance(&r.dim(kk)[i..i + m], &q.dim(kk)[j..j + m]))
                        .collect();
                    ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let avg: f64 = ds[..=k].iter().sum::<f64>() / (k + 1) as f64;
                    if avg < best {
                        best = avg;
                        best_i = i as i64;
                    }
                }
                assert!(
                    (out.profile.value(jj, k) - best).abs() < 1e-7,
                    "tile P[{jj}][{k}]"
                );
                assert_eq!(
                    out.profile.index(jj, k),
                    best_i,
                    "tile I[{jj}][{k}] (global)"
                );
            }
        }
    }

    #[test]
    fn reduced_precision_stays_close_on_small_tiles() {
        let m = 12;
        let r = series(3, 2, 120);
        let q = series(7, 2, 120);
        let tile = compute_tile_list(r.n_segments(m), q.n_segments(m), 1).unwrap()[0];
        let cfg64 = MdmpConfig::new(m, PrecisionMode::Fp64);
        let cfg16 = MdmpConfig::new(m, PrecisionMode::Fp16);
        let cfg32 = MdmpConfig::new(m, PrecisionMode::Fp32);
        let ref_out = execute_tile::<f64, f64>(&r, &q, &tile, &cfg64, false);
        let out16 = execute_tile::<Half, Half>(&r, &q, &tile, &cfg16, false);
        let out32 = execute_tile::<f32, f32>(&r, &q, &tile, &cfg32, false);
        let n_q = q.n_segments(m);
        let avg_err = |out: &TileOutput| {
            let mut total = 0.0;
            for k in 0..2 {
                for j in 0..n_q {
                    let a = ref_out.profile.value(j, k);
                    let b = out.profile.value(j, k);
                    if a > 1e-6 {
                        total += (a - b).abs() / a;
                    }
                }
            }
            total / (2 * n_q) as f64
        };
        // FP16 degrades visibly (the near-zero distances of this periodic
        // series amplify the 2^-10 roundoff through the sqrt), FP32 stays
        // essentially exact, and the ordering FP32 < FP16 must hold — the
        // precision hierarchy of Fig. 2.
        let e16 = avg_err(&out16);
        let e32 = avg_err(&out32);
        assert!(e32 < 1e-3, "FP32 should be near-exact: {e32}");
        assert!(e16 > e32, "FP16 must be worse than FP32");
        assert!(
            e16 < 1.5,
            "FP16 on a 100-row tile must stay in the right ballpark: {e16}"
        );
    }

    #[test]
    fn mixed_mode_types_compose() {
        let m = 8;
        let r = series(4, 2, 60);
        let q = series(8, 2, 60);
        let tile = compute_tile_list(r.n_segments(m), q.n_segments(m), 1).unwrap()[0];
        let mut cfg = MdmpConfig::new(m, PrecisionMode::Mixed);
        cfg.mode = PrecisionMode::Mixed;
        // P = f32, M = Half.
        let out = execute_tile::<f32, Half>(&r, &q, &tile, &cfg, false);
        assert_eq!(out.profile.n_query(), q.n_segments(m));
        assert!(out.profile.unset_fraction() < 1e-9);
        // Costs: precalc in FP32 bytes, main kernels in FP16 bytes.
        assert_eq!(out.kernel_costs[0].format, mdmp_precision::Format::Fp32);
        assert_eq!(out.kernel_costs[1].format, mdmp_precision::Format::Fp16);
    }

    /// Execute one small tile in `mode` and return its (validated-clean)
    /// profile for the gate tests to corrupt.
    fn tile_profile(mode: PrecisionMode) -> (MatrixProfile, f64) {
        let m = 10;
        let r = series(1, 2, 80);
        let q = series(5, 2, 70);
        let tile = compute_tile_list(r.n_segments(m), q.n_segments(m), 1).unwrap()[0];
        let cfg = MdmpConfig::new(m, mode);
        macro_rules! run {
            ($p:ty, $m:ty) => {
                execute_tile::<$p, $m>(&r, &q, &tile, &cfg, mode.compensated_precalc())
            };
        }
        let out = mdmp_precision::dispatch_mode!(mode, run);
        (out.profile, max_profile_value(m))
    }

    const PAPER_MODES: [PrecisionMode; 5] = [
        PrecisionMode::Fp64,
        PrecisionMode::Fp32,
        PrecisionMode::Fp16,
        PrecisionMode::Mixed,
        PrecisionMode::Fp16c,
    ];

    #[test]
    fn gate_passes_clean_planes_in_every_mode() {
        for mode in PAPER_MODES.into_iter().chain(PrecisionMode::TC_MODES) {
            let (profile, bound) = tile_profile(mode);
            assert!(
                validate_profile_plane(&profile, bound).is_ok(),
                "{mode}: clean plane rejected"
            );
        }
    }

    #[test]
    fn gate_catches_nan_and_inf_in_every_mode() {
        for mode in PAPER_MODES.into_iter().chain(PrecisionMode::TC_MODES) {
            let (clean, bound) = tile_profile(mode);
            let mut poisoned = clean.clone();
            apply_plane_fault(&mut poisoned, FaultKind::PoisonNan);
            let v = validate_profile_plane(&poisoned, bound).unwrap_err();
            assert_eq!(v.nan, 1, "{mode}: NaN not counted");

            let mut poisoned = clean.clone();
            apply_plane_fault(&mut poisoned, FaultKind::PoisonInf);
            let v = validate_profile_plane(&poisoned, bound).unwrap_err();
            assert_eq!(v.inf, 1, "{mode}: Inf not counted");
        }
    }

    #[test]
    fn gate_catches_sign_flip_but_not_low_mantissa_flip() {
        for mode in PAPER_MODES {
            let (clean, bound) = tile_profile(mode);
            // Sign-flip an entry with a clearly nonzero value (flipping an
            // exact 0.0 yields -0.0, which is indistinguishable on purpose).
            let mut flipped = clean.clone();
            {
                let (p, _) = flipped.planes_mut();
                let o = p
                    .iter()
                    .position(|&v| v > 0.1)
                    .expect("some distance is nonzero");
                p[o] = f64::from_bits(p[o].to_bits() ^ (1u64 << 63));
            }
            let v = validate_profile_plane(&flipped, bound).unwrap_err();
            assert_eq!(v.negative, 1, "{mode}: sign flip not caught");

            // A low-mantissa flip perturbs the value by parts-per-trillion:
            // finite, positive, in-bound — the documented blind spot of the
            // gate (DESIGN.md §9).
            let mut flipped = clean.clone();
            apply_plane_fault(&mut flipped, FaultKind::BitFlip { bit: 2 });
            assert!(
                validate_profile_plane(&flipped, bound).is_ok(),
                "{mode}: low-mantissa flips are undetectable by design"
            );
        }
    }

    #[test]
    fn gate_bound_check_catches_fp16c_saturation_that_masks_inf() {
        // In FP16/FP16C an overflowing distance can saturate at
        // Half::MAX = 65504 instead of reaching Inf (saturating arithmetic
        // masks the overflow), so `is_infinite()` alone would pass the
        // plane. The analytic bound 2.5√m + 1 is what catches it.
        let (clean, bound) = tile_profile(PrecisionMode::Fp16c);
        let saturated = Half::MAX.to_f64();
        assert!(saturated.is_finite() && saturated > bound);
        let mut poisoned = clean.clone();
        {
            let (p, idx) = poisoned.planes_mut();
            let o = idx.iter().position(|&i| i != -1).unwrap();
            p[o] = saturated;
        }
        let v = validate_profile_plane(&poisoned, bound).unwrap_err();
        assert_eq!(v.out_of_bound, 1);
        assert_eq!(v.nan + v.inf, 0, "saturation is invisible to NaN/Inf scans");
    }

    #[test]
    fn gate_accepts_genuine_unset_entries_but_not_partial_ones() {
        // Self-join exclusion zones leave legal (+Inf, -1) pairs.
        let unset = MatrixProfile::new_unset(4, 2);
        assert!(validate_profile_plane(&unset, 10.0).is_ok());

        // A set value paired with index -1 is corruption, not unset.
        let mut partial = MatrixProfile::new_unset(4, 2);
        {
            let (p, _) = partial.planes_mut();
            p[0] = 1.0;
        }
        let v = validate_profile_plane(&partial, 10.0).unwrap_err();
        assert_eq!(v.inf, 1);
        assert_eq!(v.first, (0, 0));
    }

    #[test]
    fn tensor_core_tile_tracks_fp32_and_charges_gemm_cost() {
        let m = 10;
        let r = series(1, 3, 80);
        let q = series(5, 3, 70);
        let tile = compute_tile_list(r.n_segments(m), q.n_segments(m), 1).unwrap()[0];
        let cfg32 = MdmpConfig::new(m, PrecisionMode::Fp32);
        // Pin the chunk so a CI-wide `MDMP_TC_CHUNK_K` cannot shift the
        // panel count or collapse the k=4 comparison below.
        let cfg_tc = MdmpConfig::new(m, PrecisionMode::Fp16Tc).with_tc_chunk_k(Some(8));
        let out32 = execute_tile::<f32, f32>(&r, &q, &tile, &cfg32, false);
        let out_tc = execute_tile::<f32, f32>(&r, &q, &tile, &cfg_tc, false);
        let n_q = q.n_segments(m);
        // Same storage precision, operands narrowed per-MMA: the profile
        // tracks FP32 within the FP16 input-rounding envelope. Near-zero
        // distances amplify the 2⁻¹⁰ roundoff through the sqrt (as in the
        // plain-FP16 mode), so the check is on the error mass, not a tight
        // pointwise relative bound.
        let mut total = 0.0;
        for k in 0..3 {
            for j in 0..n_q {
                let a = out32.profile.value(j, k);
                let b = out_tc.profile.value(j, k);
                let err = (a - b).abs();
                assert!(err < 1.0, "P[{j}][{k}]: {a} vs {b}");
                total += err;
            }
        }
        assert!(total / ((3 * n_q) as f64) < 0.05, "mean TC drift too large");
        // Cost descriptor: one blocked GEMM (panel-count launches, tc
        // tagged, fragment traffic) instead of `rows` streaming dispatches.
        let gemm = &out_tc.kernel_costs[1];
        assert_eq!(gemm.tc, Some(mdmp_precision::Format::Fp16));
        assert_eq!(gemm.launches, (tile.rows as u64).div_ceil(8));
        assert!(gemm.frag_bytes > 0);
        // Deterministic: a rerun is bit-identical.
        let rerun = execute_tile::<f32, f32>(&r, &q, &tile, &cfg_tc, false);
        for k in 0..3 {
            for j in 0..n_q {
                assert_eq!(
                    out_tc.profile.value(j, k).to_bits(),
                    rerun.profile.value(j, k).to_bits()
                );
                assert_eq!(out_tc.profile.index(j, k), rerun.profile.index(j, k));
            }
        }
        // The chunk width is part of the numerical contract: k=4 differs.
        let cfg_k4 = MdmpConfig::new(m, PrecisionMode::Fp16Tc).with_tc_chunk_k(Some(4));
        let out_k4 = execute_tile::<f32, f32>(&r, &q, &tile, &cfg_k4, false);
        let differs = (0..3).any(|k| {
            (0..n_q).any(|j| {
                out_tc.profile.value(j, k).to_bits() != out_k4.profile.value(j, k).to_bits()
            })
        });
        assert!(differs, "chunk width must change result bits");
    }

    #[test]
    fn kernel_costs_aggregate_rows() {
        let m = 8;
        let r = series(4, 2, 60);
        let q = series(8, 2, 60);
        let n_r = r.n_segments(m);
        let tile = compute_tile_list(n_r, q.n_segments(m), 1).unwrap()[0];
        let cfg = MdmpConfig::new(m, PrecisionMode::Fp64);
        let out = execute_tile::<f64, f64>(&r, &q, &tile, &cfg, false);
        assert_eq!(out.kernel_costs.len(), 4);
        assert_eq!(out.kernel_costs[1].launches, n_r as u64);
        assert_eq!(out.kernel_costs[2].launches, n_r as u64);
        assert!(out.h2d_bytes > 0 && out.d2h_bytes > 0 && out.device_bytes > 0);
    }

    #[test]
    fn fused_tile_matches_three_kernel_oracle_in_every_vector_mode() {
        let m = 9;
        let r = series(6, 3, 90);
        let q = series(6, 3, 90);
        // An off-diagonal tile of a self-join, so the global offsets and
        // the exclusion zone both reach the row kernels.
        let tile = Tile {
            index: 0,
            row0: 11,
            rows: 37,
            col0: 5,
            cols: 41,
        };
        for mode in PrecisionMode::ALL
            .into_iter()
            .filter(|m| !m.uses_tensor_cores())
        {
            let mut cfg = MdmpConfig::new(m, mode);
            cfg.exclusion_zone = Some(m / 2);
            let kahan = mode.compensated_precalc();
            macro_rules! run {
                ($p:ty, $m:ty) => {{
                    let pre = compute_tile_precalc::<$p>(&r, &q, &tile, &cfg, kahan);
                    let mut bufs = PlaneBuffers::<$m>::new();
                    let fused =
                        execute_tile_from_precalc_pooled(&pre, &tile, &cfg, kahan, true, &mut bufs);
                    assert_eq!(bufs.plane_elems(), 4 * tile.cols * 3, "{mode}: fused shape");
                    let oracle =
                        execute_tile_three_kernel_oracle::<$m>(&pre, &tile, &cfg, kahan, true);
                    (fused, oracle)
                }};
            }
            let (fused, oracle) = mdmp_precision::dispatch_mode!(mode, run);
            assert_eq!(fused.profile, oracle.profile, "{mode}: profile");
            assert_eq!(fused.kernel_costs, oracle.kernel_costs, "{mode}: costs");
        }
    }
}
