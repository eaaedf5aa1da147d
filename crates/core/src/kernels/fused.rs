//! The fused per-row pass: `dist_calc → sort_&_incl_scan →
//! update_mat_prof` as **one** dispatch per reference row.
//!
//! Pseudocode 1 launches three kernels per row and materializes an
//! intermediate `scanned` plane between the second and third; that
//! three-kernel form survives only as the test oracle the fused pass is
//! proved against. The fused pass walks the row once, column chunk by column chunk:
//! for every query column `j` it evaluates the streaming QT/dist update
//! (Eq. 1) into a `d_pad` fiber, runs the *identical* Bitonic comparator
//! network and Hillis–Steele scan order on that fiber in place (Eq. 2), and
//! folds the strictly-less min/argmin straight into the profile planes
//! (Eq. 3) — two of three dispatches and the `scanned` plane are gone.
//!
//! ## Bit-identity to the unfused path
//!
//! Every floating-point expression is shared with the unfused kernels:
//! [`qt_step`]/[`dist_value`] with `dist_calc`, the cached comparator
//! schedule and divisor table with `sort_&_incl_scan`
//! ([`comparator_schedule`], [`scan_divisors`]), and the strictly-less
//! update with `update_mat_prof`. Elements of a row are mutually
//! independent (the QT recurrence couples *successive rows*), so changing
//! the traversal from three plane sweeps to one column sweep reorders only
//! independent operations — the value computed for every `(j, k)` is the
//! same expression over the same inputs, hence the same bits, and the
//! strictly-less fold over rows `i = 0, 1, …` preserves argmin ties
//! (earliest row wins) exactly.
//!
//! ## Plane layout and lane batching
//!
//! The fused path keeps its planes **`k`-major** (`d × n_q`), the same
//! layout as the unfused kernels: the recurrence reads the previous row's
//! QT at `j − 1` — one element to the left in the same plane row — and all
//! query-side statistics are contiguous in `j`. Columns are processed
//! [`LANES`] at a time through a small structure-of-arrays scratch block
//! (`d_pad × LANES`, lane-minor): the comparator network, the
//! Hillis–Steele scan and the min fold run the *same* per-fiber operation
//! sequence on `LANES` independent fibers in lock-step — straight-line
//! loops over a contiguous lane axis the compiler turns into SIMD, the
//! host analogue of the GPU kernel's thread-per-column mapping. Lanes
//! never interact, so each fiber sees exactly the scalar sequence and the
//! results stay bit-identical; the remainder columns (and the `j = 0`
//! initial-QT column) take the scalar path, which shares every
//! expression.
//!
//! For multi-worker dispatch each `k`-plane is pre-split into one
//! contiguous sub-slice per column chunk (safe disjoint `&mut` views — no
//! locks, no unsafe), so chunk boundaries cannot affect results.

use super::dist::{dist_value, dist_value_lanes, qt_step, DistParams};
use super::sort_scan::{bitonic_sort_fiber, inclusive_scan_avg_with, Comparator};
use crate::precalc::Stats;
use mdmp_precision::Real;
use rayon::prelude::*;

/// Fibers processed per structure-of-arrays group: 8 × f32 fills one
/// 256-bit vector; wider types simply split into two.
pub const LANES: usize = 8;

/// One lane-parallel compare-exchange of the Bitonic network: the same
/// key-compare/select as the scalar network, applied to corresponding
/// elements of `LANES` independent fibers. `ii`/`ll` are the flat offsets
/// of the two compared fiber positions (`ii < ll`).
///
/// Phrased as three elementary lane loops — compare, key select, value
/// select — with [`core::hint::select_unpredictable`] so each loop
/// vectorizes; a single loop with `if` selects fully unrolls into scalar
/// `cmov` chains instead. The per-lane semantics are exactly the scalar
/// network's: swap iff strictly out of order.
#[inline(always)]
fn lane_compare_exchange<T: Real, const ASC: bool>(
    keys: &mut [T::SortKey],
    vals: &mut [T],
    ii: usize,
    ll: usize,
) {
    use core::hint::select_unpredictable as sel;
    let (khead, ktail) = keys.split_at_mut(ll);
    let ka = &mut khead[ii..ii + LANES];
    let kb = &mut ktail[..LANES];
    let (vhead, vtail) = vals.split_at_mut(ll);
    let va = &mut vhead[ii..ii + LANES];
    let vb = &mut vtail[..LANES];
    let mut ooo = [false; LANES];
    for lane in 0..LANES {
        let (kx, ky) = (ka[lane], kb[lane]);
        ooo[lane] = if ASC { kx > ky } else { kx < ky };
    }
    for lane in 0..LANES {
        let (kx, ky) = (ka[lane], kb[lane]);
        ka[lane] = sel(ooo[lane], ky, kx);
        kb[lane] = sel(ooo[lane], kx, ky);
    }
    for lane in 0..LANES {
        let (x, y) = (va[lane], vb[lane]);
        va[lane] = sel(ooo[lane], y, x);
        vb[lane] = sel(ooo[lane], x, y);
    }
}

/// One column chunk's disjoint mutable views of the QT-next, profile, and
/// index planes (`views[k]` is plane `k`'s `j`-range for the chunk).
type ChunkViews<'a, T> = (Vec<&'a mut [T]>, Vec<&'a mut [T]>, Vec<&'a mut [i64]>);

/// Split each of the `d` `k`-major plane rows into one contiguous sub-slice
/// per column chunk: `result[chunk][k]` is that chunk's `j`-range of plane
/// `k`. Disjoint `&mut` views — chunked workers write without locks.
fn split_plane_chunks<V>(plane: &mut [V], n_q: usize, cols_per: usize) -> Vec<Vec<&mut [V]>> {
    let n_chunks = n_q.div_ceil(cols_per);
    let mut parts: Vec<Vec<&mut [V]>> = (0..n_chunks).map(|_| Vec::new()).collect();
    for row in plane.chunks_mut(n_q) {
        let mut rest = row;
        for chunk in parts.iter_mut() {
            let take = cols_per.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            chunk.push(head);
            rest = tail;
        }
    }
    parts
}

/// The column-chunk width [`fused_row`] splits an `n_q`-column row into:
/// one contiguous chunk per worker of the current pool width.
pub fn column_chunk_width(n_q: usize) -> usize {
    n_q.div_ceil(rayon::current_num_threads().max(1))
}

/// Execute one fused row pass.
///
/// * `qt_row0` / `qt_col0` — precalculated initial QT (dimension-major,
///   as produced by the precalculation);
/// * `qt_prev` / `qt_next` — the QT double buffer, **`k`-major**
///   (`d × n_q`, same layout as the unfused pipeline);
/// * `p_plane` / `i_plane` — running profile and index planes, `k`-major;
/// * `schedule` / `divisors` — per-`d_pad` comparator schedule and
///   per-`d` divisor table (hoisted out by the caller, once per tile);
/// * `global_row` — the global reference-segment index of row `i`;
/// * `cols_per` — the column-chunk width, one pool batch per chunk
///   ([`column_chunk_width`], read by the caller once per tile so the row
///   loop never queries the pool width).
///
/// The per-column fibers live in a small per-worker scratch block, not a
/// plane: fusion eliminates both the unfused `dist` and `scanned` planes.
#[allow(clippy::too_many_arguments)]
pub fn fused_row<T: Real>(
    i: usize,
    qt_row0: &[T],
    qt_col0: &[T],
    qt_prev: &[T],
    qt_next: &mut [T],
    p_plane: &mut [T],
    i_plane: &mut [i64],
    rstats: &Stats<T>,
    qstats: &Stats<T>,
    params: &DistParams<T>,
    schedule: &[Comparator],
    divisors: &[T],
    global_row: i64,
    cols_per: usize,
) {
    let n_r = rstats.n;
    let n_q = qstats.n;
    let d = rstats.d;
    let d_pad = d.next_power_of_two();
    debug_assert!(i < n_r);
    debug_assert_eq!(qt_next.len(), n_q * d);
    debug_assert_eq!(p_plane.len(), n_q * d);
    debug_assert_eq!(i_plane.len(), n_q * d);
    debug_assert_eq!(divisors.len(), d);
    let global_i = params.row_offset + i;

    // This row's reference-side operands, gathered once for all columns.
    let rdf: Vec<T> = (0..d).map(|k| rstats.df[k * n_r + i]).collect();
    let rdg: Vec<T> = (0..d).map(|k| rstats.dg[k * n_r + i]).collect();
    let rinv: Vec<T> = (0..d).map(|k| rstats.inv[k * n_r + i]).collect();
    let (rdf, rdg, rinv) = (&rdf[..], &rdg[..], &rinv[..]);

    // One contiguous column chunk per worker — the whole row is a single
    // dispatch regardless of worker count, and chunk boundaries cannot
    // affect results (columns are independent).
    let qn_parts = split_plane_chunks(qt_next, n_q, cols_per);
    let pc_parts = split_plane_chunks(p_plane, n_q, cols_per);
    let ic_parts = split_plane_chunks(i_plane, n_q, cols_per);
    let tasks: Vec<(usize, ChunkViews<'_, T>)> = qn_parts
        .into_iter()
        .zip(pc_parts)
        .zip(ic_parts)
        .map(|((qn, pc), ic)| (qn, pc, ic))
        .enumerate()
        .collect();

    tasks.into_par_iter().for_each(|(ci, (qn, pc, ic))| {
        let j0 = ci * cols_per;
        let chunk_cols = qn[0].len();
        let mut qn = qn;
        let mut pc = pc;
        let mut ic = ic;

        // Per-worker SoA scratch: LANES fibers side by side (`k`-major,
        // lane-minor) plus their integer sort keys.
        let mut fib = vec![T::zero(); d_pad * LANES];
        let mut keys = vec![T::zero().sort_key(); d_pad * LANES];

        // Scalar path for one column (j = 0 peel and lane remainder):
        // identical expressions, same comparator/scan sequence.
        let scalar_column = |jj: usize,
                             qn: &mut [&mut [T]],
                             pc: &mut [&mut [T]],
                             ic: &mut [&mut [i64]],
                             fiber: &mut [T]| {
            let j = j0 + jj;
            let excluded = match params.exclusion {
                Some(excl) => global_i.abs_diff(params.col_offset + j) < excl,
                None => false,
            };
            for k in 0..d {
                let qt = if i == 0 {
                    qt_row0[k * n_q + j]
                } else if j == 0 {
                    qt_col0[k * n_r + i]
                } else {
                    qt_step(
                        qt_prev[k * n_q + j - 1],
                        rdf[k],
                        qstats.dg[k * n_q + j],
                        qstats.df[k * n_q + j],
                        rdg[k],
                    )
                };
                qn[k][jj] = qt;
                fiber[k] = dist_value(
                    qt,
                    rinv[k],
                    qstats.inv[k * n_q + j],
                    params.two_m,
                    params.clamp,
                    excluded,
                );
            }
            for pad in fiber[d..].iter_mut() {
                *pad = T::infinity();
            }
            bitonic_sort_fiber(fiber, schedule);
            inclusive_scan_avg_with(fiber, d, divisors);
            for k in 0..d {
                let v = fiber[k];
                if v < pc[k][jj] {
                    pc[k][jj] = v;
                    ic[k][jj] = global_row;
                }
            }
        };

        let mut jj = 0;
        // Peel the initial-QT column so the lane path only ever runs the
        // streaming recurrence (j ≥ 1).
        if i > 0 && j0 == 0 && chunk_cols > 0 {
            let (fiber, _) = fib.split_at_mut(d_pad);
            scalar_column(0, &mut qn, &mut pc, &mut ic, fiber);
            jj = 1;
        }
        while jj + LANES <= chunk_cols {
            let jbase = j0 + jj;
            let mut excluded = [false; LANES];
            if let Some(excl) = params.exclusion {
                for (lane, e) in excluded.iter_mut().enumerate() {
                    *e = global_i.abs_diff(params.col_offset + jbase + lane) < excl;
                }
            }
            // Dist phase: LANES QT updates + distances per dimension. With
            // k-major planes every read and write is contiguous in j.
            for k in 0..d {
                let mut qt = [T::zero(); LANES];
                if i == 0 {
                    qt.copy_from_slice(&qt_row0[k * n_q + jbase..][..LANES]);
                } else {
                    let prev = &qt_prev[k * n_q + jbase - 1..][..LANES];
                    let qdg = &qstats.dg[k * n_q + jbase..][..LANES];
                    let qdf = &qstats.df[k * n_q + jbase..][..LANES];
                    for lane in 0..LANES {
                        qt[lane] = qt_step(prev[lane], rdf[k], qdg[lane], qdf[lane], rdg[k]);
                    }
                }
                qn[k][jj..jj + LANES].copy_from_slice(&qt);
                let qinv = &qstats.inv[k * n_q + jbase..][..LANES];
                let frow = &mut fib[k * LANES..(k + 1) * LANES];
                dist_value_lanes::<T, LANES>(
                    &qt,
                    rinv[k],
                    qinv,
                    params.two_m,
                    params.clamp,
                    &excluded,
                    frow,
                );
            }
            for pad in fib[d * LANES..].iter_mut() {
                *pad = T::infinity();
            }
            // Sort: the schedule's comparator sequence, each applied to all
            // LANES fibers in lock-step.
            for (idx, key) in keys.iter_mut().enumerate() {
                *key = fib[idx].sort_key();
            }
            for &(ci_, li, ascending) in schedule {
                let (ii, ll) = (ci_ as usize * LANES, li as usize * LANES);
                if ascending {
                    lane_compare_exchange::<T, true>(&mut keys, &mut fib, ii, ll);
                } else {
                    lane_compare_exchange::<T, false>(&mut keys, &mut fib, ii, ll);
                }
            }
            // Hillis–Steele inclusive scan + divide, lane-parallel with the
            // scalar association order per fiber.
            let mut s = 1;
            while s < d {
                let mut k = d - 1;
                while k >= s {
                    let (lo, hi) = fib.split_at_mut(k * LANES);
                    let src = &lo[(k - s) * LANES..(k - s + 1) * LANES];
                    let dst = &mut hi[..LANES];
                    for lane in 0..LANES {
                        dst[lane] += src[lane];
                    }
                    k -= 1;
                }
                s <<= 1;
            }
            for k in 0..d {
                let div = divisors[k];
                let frow = &mut fib[k * LANES..(k + 1) * LANES];
                for f in frow.iter_mut() {
                    *f = *f / div;
                }
            }
            // Strictly-less min fold into the k-major profile planes —
            // select form of `if v < p { p = v; i = row }`, contiguous per
            // dimension.
            for k in 0..d {
                let frow = &fib[k * LANES..(k + 1) * LANES];
                let pk = &mut pc[k][jj..jj + LANES];
                let ik = &mut ic[k][jj..jj + LANES];
                let mut better = [false; LANES];
                for lane in 0..LANES {
                    better[lane] = frow[lane] < pk[lane];
                }
                for lane in 0..LANES {
                    pk[lane] = core::hint::select_unpredictable(better[lane], frow[lane], pk[lane]);
                }
                for lane in 0..LANES {
                    ik[lane] = core::hint::select_unpredictable(better[lane], global_row, ik[lane]);
                }
            }
            jj += LANES;
        }
        while jj < chunk_cols {
            let (fiber, _) = fib.split_at_mut(d_pad);
            scalar_column(jj, &mut qn, &mut pc, &mut ic, fiber);
            jj += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::super::{
        comparator_schedule, dist_row, scan_divisors, sort_scan_row, update_profile_row,
    };
    use super::*;
    use crate::precalc::{compute_stats, initial_qt, SeriesDevice};
    use mdmp_data::MultiDimSeries;
    use mdmp_precision::{Bf16, Half, Tf32};

    fn series(seed: u64, d: usize, len: usize) -> MultiDimSeries {
        let dims: Vec<Vec<f64>> = (0..d)
            .map(|k| {
                (0..len)
                    .map(|t| {
                        let x = (t as f64 + seed as f64 * 7.0) * (0.09 + 0.04 * k as f64);
                        x.sin() + 0.25 * (1.7 * x).cos()
                    })
                    .collect()
            })
            .collect();
        MultiDimSeries::from_dims(dims)
    }

    /// Drive both pipelines over a full tile and compare every plane
    /// bitwise, row by row.
    fn assert_fused_matches_unfused<T: Real>(d: usize, m: usize, exclusion: Option<usize>) {
        let r = series(1, d, 70 + m);
        let q = series(2, d, 60 + m);
        let rd = SeriesDevice::<T>::load(&r, 0, 70 + m);
        let qd = SeriesDevice::<T>::load(&q, 0, 60 + m);
        let rstats = compute_stats(&rd, m, false);
        let qstats = compute_stats(&qd, m, false);
        let (qt_row0, qt_col0) = initial_qt(&rd, &rstats, &qd, &qstats, m, false);
        let (n_r, n_q) = (rstats.n, qstats.n);
        let d_pad = d.next_power_of_two();
        let params = DistParams::<T>::new(m, true, 0, 0, exclusion);
        let schedule = comparator_schedule(d_pad);
        let divisors = scan_divisors::<T>(d);

        // Unfused reference (k-major planes).
        let mut u_qt_prev = vec![T::zero(); n_q * d];
        let mut u_qt_next = vec![T::zero(); n_q * d];
        let mut u_dist = vec![T::zero(); n_q * d];
        let mut u_scanned = vec![T::zero(); n_q * d_pad];
        let mut u_p = vec![T::infinity(); n_q * d];
        let mut u_i = vec![-1i64; n_q * d];

        // Fused (k-major planes, same layout as unfused).
        let mut f_qt_prev = vec![T::zero(); n_q * d];
        let mut f_qt_next = vec![T::zero(); n_q * d];
        let mut f_p = vec![T::infinity(); n_q * d];
        let mut f_i = vec![-1i64; n_q * d];

        for i in 0..n_r {
            dist_row(
                i,
                &qt_row0,
                &qt_col0,
                &u_qt_prev,
                &mut u_qt_next,
                &mut u_dist,
                &rstats,
                &qstats,
                &params,
            );
            sort_scan_row(&u_dist, &mut u_scanned, n_q, d);
            update_profile_row(&u_scanned, &mut u_p, &mut u_i, n_q, d, i as i64);
            std::mem::swap(&mut u_qt_prev, &mut u_qt_next);

            fused_row(
                i,
                &qt_row0,
                &qt_col0,
                &f_qt_prev,
                &mut f_qt_next,
                &mut f_p,
                &mut f_i,
                &rstats,
                &qstats,
                &params,
                &schedule,
                &divisors,
                i as i64,
                column_chunk_width(n_q),
            );
            std::mem::swap(&mut f_qt_prev, &mut f_qt_next);

            for k in 0..d {
                for j in 0..n_q {
                    assert_eq!(
                        u_qt_prev[k * n_q + j].to_f64().to_bits(),
                        f_qt_prev[k * n_q + j].to_f64().to_bits(),
                        "QT diverged at row {i}, (j={j}, k={k})"
                    );
                }
            }
        }
        for k in 0..d {
            for j in 0..n_q {
                assert_eq!(
                    u_p[k * n_q + j].to_f64().to_bits(),
                    f_p[k * n_q + j].to_f64().to_bits(),
                    "profile diverged at (j={j}, k={k})"
                );
                assert_eq!(
                    u_i[k * n_q + j],
                    f_i[k * n_q + j],
                    "argmin diverged at (j={j}, k={k})"
                );
            }
        }
    }

    #[test]
    fn fused_matches_unfused_f64() {
        assert_fused_matches_unfused::<f64>(3, 10, None);
    }

    #[test]
    fn fused_matches_unfused_f32_with_exclusion() {
        assert_fused_matches_unfused::<f32>(2, 8, Some(4));
    }

    #[test]
    fn fused_matches_unfused_half() {
        assert_fused_matches_unfused::<Half>(4, 12, None);
    }

    #[test]
    fn fused_matches_unfused_bf16() {
        assert_fused_matches_unfused::<Bf16>(3, 9, None);
    }

    #[test]
    fn fused_matches_unfused_tf32_with_exclusion() {
        assert_fused_matches_unfused::<Tf32>(5, 11, Some(3));
    }
}
