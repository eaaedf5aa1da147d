//! Online (streaming) matrix profile maintenance — incremental updates as
//! new samples arrive, in the spirit of STAMPI (Yeh et al. [22] §VII),
//! built on the tile machinery:
//!
//! * appending **query** samples adds new profile columns: one delta tile
//!   covering all reference rows × the new columns;
//! * appending **reference** samples can improve *every* column: one delta
//!   tile covering the new rows × all columns, min-merged into the running
//!   profile.
//!
//! Because a delta tile is a standalone tile (own precalculation), the
//! streamed result in FP64 is exactly the batch result; in reduced
//! precision it corresponds to a batch run whose tile boundaries follow the
//! arrival pattern — the error-bounding property of §III-B for free.
//!
//! # Incremental appends
//!
//! A delta tile shares one side with everything computed before: a query
//! append's rows are the *full reference side*, a reference append's
//! columns are the *full query side*. The session therefore caches each
//! side's rolling statistics (the cacheable [`TilePrecalc`] unit of
//! `tile_exec`) together with the running-sum accumulator checkpoint, and
//! an append:
//!
//! 1. **reuses** the cached full-side statistics for the shared side —
//!    zero recompute for O(n) segments;
//! 2. **extends** the grown side's cache forward over only the appended
//!    suffix plus the `m − 1` boundary band ([`extend_stats`]) — O(new);
//! 3. computes **fresh** statistics for the delta window of the grown side
//!    (O(new)) and the initial QT row/column of the delta tile. The QT
//!    column is O(n·m·d) and cannot be extended incrementally (it is a dot
//!    product against the *new* window's first segment), so large delta
//!    tiles route it through a host worker pool
//!    ([`initial_qt_pooled`]), which is bit-identical by construction.
//!
//! Both reuse and extension are bit-identical to the recompute-from-scratch
//! delta append: the rolling statistics are a pure left-to-right fold, so
//! resuming the fold from a checkpoint emits exactly the bits a recompute's
//! suffix would (see `extend_stats`), and `Stats<f64>` round-trips every
//! supported precision exactly. The property suite in
//! `tests/streaming_equivalence.rs` enforces this in every precision mode.
//!
//! Note: appends *extend* the series; samples within `m − 1` of the old end
//! create segments spanning old and new data, which the delta tiles cover
//! by re-reading the last `m − 1` old samples.

use crate::config::{MdmpConfig, MdmpError, TileError};
use crate::driver::retry_backoff;
use crate::precalc::{
    compute_stats, compute_stats_checkpointed, convert_qt, extend_stats, initial_qt_pooled,
    SeriesDevice, Stats, StatsCheckpoint,
};
use crate::profile::MatrixProfile;
use crate::tile_exec::{
    apply_plane_fault, compute_tile_precalc, execute_tile_from_precalc, max_profile_value,
    validate_profile_plane, TilePrecalc,
};
use crate::tiling::Tile;
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultKind;
use mdmp_precision::{dispatch_mode, Real};
use std::time::{Duration, Instant};

/// Route a delta tile's initial-QT computation through the host worker pool
/// once it costs at least this many dot-product operations
/// (`d · (rows + cols) · m`); below that, thread spawn overhead dominates.
const STREAM_POOL_MIN_DOT_OPS: usize = 1 << 14;

/// One side's cached precalculation state: full-side rolling statistics
/// (exact f64 image of the precalc precision) plus the accumulator
/// checkpoint that lets [`extend_stats`] continue the fold in O(new).
#[derive(Debug, Clone)]
struct SideCache {
    stats: Stats<f64>,
    ckpt: StatsCheckpoint,
    len: usize,
}

/// Counters a [`StreamingProfile`] keeps about its own append work — the
/// source of the service's streaming metrics and the bench's reuse ratios.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamingStats {
    /// Appends applied (each is one delta tile).
    pub appends: u64,
    /// Appends that reused a cached full-side statistics unit.
    pub incremental_appends: u64,
    /// Statistics segments served from a side cache instead of recomputed.
    pub segments_reused: u64,
    /// Segments added to side caches by the O(new) checkpoint extension.
    pub segments_extended: u64,
    /// Segments computed from scratch (delta windows, or everything in
    /// scratch mode).
    pub segments_fresh: u64,
    /// Tiles whose initial-QT computation ran on the host worker pool.
    pub pooled_qt_tiles: u64,
    /// Tile attempts that failed and were retried (fault injection or
    /// validation-gate rejections).
    pub tile_retries: u64,
    /// Wall seconds of the most recent append.
    pub last_append_seconds: f64,
    /// Wall seconds of all appends, for amortized-cost reporting.
    pub total_append_seconds: f64,
}

/// An incrementally maintained matrix profile over growing series.
///
/// ```
/// use mdmp_core::{MdmpConfig, StreamingProfile};
/// use mdmp_data::MultiDimSeries;
/// use mdmp_precision::PrecisionMode;
///
/// let wave = |off: usize, n: usize| -> Vec<f64> {
///     (0..n).map(|t| ((t + off) as f64 * 0.3).sin() + 0.01 * t as f64).collect()
/// };
/// let reference = MultiDimSeries::univariate(wave(0, 128));
/// let query = MultiDimSeries::univariate(wave(40, 64));
/// let cfg = MdmpConfig::new(8, PrecisionMode::Fp64);
/// let mut sp = StreamingProfile::new(reference, query, cfg).unwrap();
/// let before = sp.n_query();
/// sp.append_query(&[wave(104, 16)]).unwrap();
/// assert_eq!(sp.n_query(), before + 16);
/// assert!(sp.profile().value(0, 0).is_finite());
/// assert!(sp.stats().segments_reused > 0);
/// ```
#[derive(Debug)]
pub struct StreamingProfile {
    cfg: MdmpConfig,
    reference: MultiDimSeries,
    query: MultiDimSeries,
    profile: MatrixProfile,
    incremental: bool,
    ref_cache: Option<SideCache>,
    query_cache: Option<SideCache>,
    tiles: Vec<Tile>,
    stats: StreamingStats,
}

impl StreamingProfile {
    /// Start from initial series (computed as one batch tile) with
    /// incremental appends enabled.
    ///
    /// The configuration's `n_tiles` is ignored — streaming defines its own
    /// tiling by arrival order.
    pub fn new(
        reference: MultiDimSeries,
        query: MultiDimSeries,
        cfg: MdmpConfig,
    ) -> Result<StreamingProfile, MdmpError> {
        StreamingProfile::build(reference, query, cfg, true)
    }

    /// [`StreamingProfile::new`] with incremental side caches disabled:
    /// every append recomputes its delta tile's precalculation from
    /// scratch. This is the pre-incremental behaviour, kept as the
    /// bit-identity baseline for the equivalence suite.
    pub fn new_scratch(
        reference: MultiDimSeries,
        query: MultiDimSeries,
        cfg: MdmpConfig,
    ) -> Result<StreamingProfile, MdmpError> {
        StreamingProfile::build(reference, query, cfg, false)
    }

    fn build(
        reference: MultiDimSeries,
        query: MultiDimSeries,
        cfg: MdmpConfig,
        incremental: bool,
    ) -> Result<StreamingProfile, MdmpError> {
        if reference.dims() != query.dims() {
            return Err(MdmpError::DimensionalityMismatch {
                reference: reference.dims(),
                query: query.dims(),
            });
        }
        if cfg.m < 2 {
            return Err(MdmpError::BadConfig(
                "segment length must be at least 2".into(),
            ));
        }
        if reference.len() < cfg.m || query.len() < cfg.m {
            return Err(MdmpError::BadConfig(
                "series shorter than the segment length".into(),
            ));
        }
        let n_r = reference.len() - cfg.m + 1;
        let n_q = query.len() - cfg.m + 1;
        let dims = reference.dims();
        let mut sp = StreamingProfile {
            profile: MatrixProfile::new_unset(n_q, dims),
            cfg,
            reference,
            query,
            incremental,
            ref_cache: None,
            query_cache: None,
            tiles: Vec::new(),
            stats: StreamingStats::default(),
        };
        let tile = Tile {
            index: 0,
            row0: 0,
            rows: n_r,
            col0: 0,
            cols: n_q,
        };
        let mode = sp.cfg.mode;
        macro_rules! run {
            ($p:ty, $m:ty) => {
                sp.initial_generic::<$p, $m>(&tile)
            };
        }
        let out = dispatch_mode!(mode, run)?;
        sp.profile.merge_min_columns(&out, 0);
        sp.tiles.push(tile);
        sp.stats.segments_fresh += (n_r + n_q) as u64;
        Ok(sp)
    }

    /// The current profile.
    pub fn profile(&self) -> &MatrixProfile {
        &self.profile
    }

    /// Current number of query segments.
    pub fn n_query(&self) -> usize {
        self.query.n_segments(self.cfg.m)
    }

    /// Current number of reference segments.
    pub fn n_reference(&self) -> usize {
        self.reference.n_segments(self.cfg.m)
    }

    /// Whether appends reuse cached side statistics.
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    /// The session's append accounting.
    pub fn stats(&self) -> StreamingStats {
        self.stats
    }

    /// The arrival-pattern tile log: the initial batch tile followed by one
    /// delta tile per applied append, in execution order. Replaying these
    /// tiles over the final series (see [`StreamingProfile::replay_tile`])
    /// and min-merging in order reproduces the streamed profile
    /// bit-for-bit.
    pub fn arrival_tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Execute one arrival tile as a batch run would — inline scratch
    /// precalculation, no caches, no fault plan — and return its partial
    /// profile. This is the reference the equivalence suite replays the
    /// tile log against.
    pub fn replay_tile(
        reference: &MultiDimSeries,
        query: &MultiDimSeries,
        tile: &Tile,
        cfg: &MdmpConfig,
    ) -> MatrixProfile {
        let kahan = cfg.mode.compensated_precalc();
        macro_rules! run {
            ($p:ty, $m:ty) => {{
                let pre = compute_tile_precalc::<$p>(reference, query, tile, cfg, kahan);
                execute_tile_from_precalc::<$m>(&pre, tile, cfg, kahan, false).profile
            }};
        }
        dispatch_mode!(cfg.mode, run)
    }

    /// Append samples to the query (one slice per dimension) and extend the
    /// profile with the new columns.
    ///
    /// Returns a typed error when the samples do not match the session
    /// shape (wrong number of dimension slices, unequal slice lengths, or
    /// an empty append) or when the delta tile keeps failing under an
    /// injected fault plan; the profile and series are left unchanged on
    /// error.
    pub fn append_query(&mut self, new_samples: &[Vec<f64>]) -> Result<(), MdmpError> {
        let started = Instant::now();
        let old_n_q = self.n_query();
        let old_len = self.query.len();
        self.query = append_series(&self.query, new_samples)?;
        let n_q = self.n_query();
        let tile = Tile {
            index: self.tiles.len(),
            row0: 0,
            rows: self.n_reference(),
            col0: old_n_q,
            cols: n_q - old_n_q,
        };
        let mode = self.cfg.mode;
        macro_rules! run {
            ($p:ty, $m:ty) => {
                self.append_query_generic::<$p, $m>(&tile, old_len)
            };
        }
        match dispatch_mode!(mode, run) {
            Ok(out) => {
                let mut grown = MatrixProfile::new_unset(n_q, self.query.dims());
                grown.merge_min_columns(&self.profile, 0);
                grown.merge_min_columns(&out, old_n_q);
                self.profile = grown;
                self.tiles.push(tile);
                self.finish_append(started);
                Ok(())
            }
            Err(e) => {
                self.query = self.query.window(0, old_len);
                Err(e)
            }
        }
    }

    /// Append samples to the reference and fold the new rows into every
    /// column of the profile. Error behaviour matches
    /// [`StreamingProfile::append_query`].
    pub fn append_reference(&mut self, new_samples: &[Vec<f64>]) -> Result<(), MdmpError> {
        let started = Instant::now();
        let old_n_r = self.n_reference();
        let old_len = self.reference.len();
        self.reference = append_series(&self.reference, new_samples)?;
        let tile = Tile {
            index: self.tiles.len(),
            row0: old_n_r,
            rows: self.n_reference() - old_n_r,
            col0: 0,
            cols: self.n_query(),
        };
        let mode = self.cfg.mode;
        macro_rules! run {
            ($p:ty, $m:ty) => {
                self.append_reference_generic::<$p, $m>(&tile, old_len)
            };
        }
        match dispatch_mode!(mode, run) {
            Ok(out) => {
                self.profile.merge_min_columns(&out, 0);
                self.tiles.push(tile);
                self.finish_append(started);
                Ok(())
            }
            Err(e) => {
                self.reference = self.reference.window(0, old_len);
                Err(e)
            }
        }
    }

    fn finish_append(&mut self, started: Instant) {
        let seconds = started.elapsed().as_secs_f64();
        self.stats.appends += 1;
        self.stats.last_append_seconds = seconds;
        self.stats.total_append_seconds += seconds;
    }

    /// Worker count for a delta tile's initial-QT computation: the
    /// configured host pool width when the tile is large enough to amortize
    /// thread spawns, 1 (sequential) otherwise.
    fn qt_workers(&mut self, rows: usize, cols: usize) -> usize {
        let workers = self.cfg.resolved_host_workers(1);
        let dot_ops = self
            .reference
            .dims()
            .saturating_mul(rows + cols)
            .saturating_mul(self.cfg.m);
        if workers > 1 && dot_ops >= STREAM_POOL_MIN_DOT_OPS {
            self.stats.pooled_qt_tiles += 1;
            workers
        } else {
            1
        }
    }

    /// Initial batch tile: in incremental mode compute both side caches and
    /// assemble the precalc from them; in scratch mode run the canonical
    /// inline path.
    fn initial_generic<P: Real, M: Real>(
        &mut self,
        tile: &Tile,
    ) -> Result<MatrixProfile, MdmpError> {
        let m = self.cfg.m;
        let kahan = self.cfg.mode.compensated_precalc();
        let pre = if self.incremental {
            let refd = SeriesDevice::<P>::load(&self.reference, 0, self.reference.len());
            let qd = SeriesDevice::<P>::load(&self.query, 0, self.query.len());
            let (rstats_p, r_ckpt) = compute_stats_checkpointed(&refd, m, kahan);
            let (qstats_p, q_ckpt) = compute_stats_checkpointed(&qd, m, kahan);
            let workers = self.qt_workers(tile.rows, tile.cols);
            let (row0, col0) =
                initial_qt_pooled(&refd, &rstats_p, &qd, &qstats_p, m, kahan, workers);
            let pre = TilePrecalc {
                rstats: rstats_p.convert(),
                qstats: qstats_p.convert(),
                qt_row0: convert_qt(&row0),
                qt_col0: convert_qt(&col0),
            };
            self.ref_cache = Some(SideCache {
                stats: pre.rstats.clone(),
                ckpt: r_ckpt,
                len: self.reference.len(),
            });
            self.query_cache = Some(SideCache {
                stats: pre.qstats.clone(),
                ckpt: q_ckpt,
                len: self.query.len(),
            });
            pre
        } else {
            compute_tile_precalc::<P>(&self.reference, &self.query, tile, &self.cfg, kahan)
        };
        self.run_precalc_tile::<M>(&pre, tile)
    }

    /// Delta tile for a query append: rows are the full reference side
    /// (statistics reused from the cache), columns are the appended delta
    /// window (fresh O(new) statistics); the query cache is extended by the
    /// checkpoint fold.
    fn append_query_generic<P: Real, M: Real>(
        &mut self,
        tile: &Tile,
        old_query_len: usize,
    ) -> Result<MatrixProfile, MdmpError> {
        let m = self.cfg.m;
        let kahan = self.cfg.mode.compensated_precalc();
        let pre = match (self.incremental, self.ref_cache.as_ref()) {
            (true, Some(cache)) => {
                let refd = SeriesDevice::<P>::load(&self.reference, 0, tile.rows + m - 1);
                let qd = SeriesDevice::<P>::load(&self.query, tile.col0, tile.cols + m - 1);
                let qstats_p = compute_stats(&qd, m, kahan);
                // Exact f64 → P round-trip: the cached f64 values are
                // images of P values, so this reconstructs the inline
                // statistics bit-for-bit.
                let rstats_p: Stats<P> = cache.stats.convert();
                let rstats = cache.stats.clone();
                let workers = self.qt_workers(tile.rows, tile.cols);
                let (row0, col0) =
                    initial_qt_pooled(&refd, &rstats_p, &qd, &qstats_p, m, kahan, workers);
                self.stats.incremental_appends += 1;
                self.stats.segments_reused += tile.rows as u64;
                self.stats.segments_fresh += tile.cols as u64;
                TilePrecalc {
                    rstats,
                    qstats: qstats_p.convert(),
                    qt_row0: convert_qt(&row0),
                    qt_col0: convert_qt(&col0),
                }
            }
            _ => {
                self.stats.segments_fresh += (tile.rows + tile.cols) as u64;
                compute_tile_precalc::<P>(&self.reference, &self.query, tile, &self.cfg, kahan)
            }
        };
        let out = self.run_precalc_tile::<M>(&pre, tile)?;
        self.extend_cache::<P>(Side::Query, old_query_len);
        Ok(out)
    }

    /// Delta tile for a reference append: columns are the full query side
    /// (statistics reused), rows are the appended delta window (fresh);
    /// the reference cache is extended by the checkpoint fold.
    fn append_reference_generic<P: Real, M: Real>(
        &mut self,
        tile: &Tile,
        old_reference_len: usize,
    ) -> Result<MatrixProfile, MdmpError> {
        let m = self.cfg.m;
        let kahan = self.cfg.mode.compensated_precalc();
        let pre = match (self.incremental, self.query_cache.as_ref()) {
            (true, Some(cache)) => {
                let refd = SeriesDevice::<P>::load(&self.reference, tile.row0, tile.rows + m - 1);
                let qd = SeriesDevice::<P>::load(&self.query, 0, tile.cols + m - 1);
                let rstats_p = compute_stats(&refd, m, kahan);
                let qstats_p: Stats<P> = cache.stats.convert();
                let qstats = cache.stats.clone();
                let workers = self.qt_workers(tile.rows, tile.cols);
                let (row0, col0) =
                    initial_qt_pooled(&refd, &rstats_p, &qd, &qstats_p, m, kahan, workers);
                self.stats.incremental_appends += 1;
                self.stats.segments_reused += tile.cols as u64;
                self.stats.segments_fresh += tile.rows as u64;
                TilePrecalc {
                    rstats: rstats_p.convert(),
                    qstats,
                    qt_row0: convert_qt(&row0),
                    qt_col0: convert_qt(&col0),
                }
            }
            _ => {
                self.stats.segments_fresh += (tile.rows + tile.cols) as u64;
                compute_tile_precalc::<P>(&self.reference, &self.query, tile, &self.cfg, kahan)
            }
        };
        let out = self.run_precalc_tile::<M>(&pre, tile)?;
        self.extend_cache::<P>(Side::Reference, old_reference_len);
        Ok(out)
    }

    /// Extend one side's cache over the appended suffix — the O(new)
    /// checkpoint fold. Only runs after the delta tile succeeded, so a
    /// failed append leaves the caches describing the rolled-back series.
    fn extend_cache<P: Real>(&mut self, side: Side, old_len: usize) {
        let (series, cache) = match side {
            Side::Query => (&self.query, self.query_cache.as_mut()),
            Side::Reference => (&self.reference, self.ref_cache.as_mut()),
        };
        if let Some(cache) = cache {
            if series.len() > cache.len && cache.len == old_len {
                let (stats, ckpt) =
                    extend_stats::<P>(series, cache.len, self.cfg.m, &cache.stats, &cache.ckpt);
                self.stats.segments_extended += (stats.n - cache.stats.n) as u64;
                cache.stats = stats;
                cache.ckpt = ckpt;
                cache.len = series.len();
            }
        }
    }

    /// Execute a tile from its precalculation with the driver's resilience
    /// semantics: inject the fault plan's planned fault for this arrival
    /// index, validate the result plane (when clamping is on), and retry
    /// with capped exponential backoff up to `cfg.tile_retries`.
    fn run_precalc_tile<M: Real>(
        &mut self,
        pre: &TilePrecalc,
        tile: &Tile,
    ) -> Result<MatrixProfile, MdmpError> {
        let kahan = self.cfg.mode.compensated_precalc();
        let value_bound = max_profile_value(self.cfg.m);
        let mut attempt: u32 = 0;
        loop {
            let started = Instant::now();
            let fault = self
                .cfg
                .fault_plan
                .as_deref()
                .and_then(|plan| plan.tile_fault(tile.index, attempt));
            let result: Result<MatrixProfile, TileError> = (|| {
                match fault {
                    Some(FaultKind::Kernel) => return Err(TileError::Kernel { tile: tile.index }),
                    Some(FaultKind::Stall { millis }) => {
                        std::thread::sleep(Duration::from_millis(millis))
                    }
                    _ => {}
                }
                let mut out = execute_tile_from_precalc::<M>(pre, tile, &self.cfg, kahan, false);
                if let Some(kind) = fault {
                    apply_plane_fault(&mut out.profile, kind);
                }
                if self.cfg.clamp {
                    if let Err(violation) = validate_profile_plane(&out.profile, value_bound) {
                        return Err(TileError::PoisonedPlane {
                            tile: tile.index,
                            violation,
                        });
                    }
                }
                if let Some(deadline) = self.cfg.tile_deadline {
                    let elapsed = started.elapsed();
                    if elapsed > deadline {
                        return Err(TileError::Timeout {
                            tile: tile.index,
                            elapsed_ms: elapsed.as_millis() as u64,
                            deadline_ms: deadline.as_millis() as u64,
                        });
                    }
                }
                Ok(out.profile)
            })();
            match result {
                Ok(profile) => return Ok(profile),
                Err(source) => {
                    if attempt >= self.cfg.tile_retries {
                        return Err(MdmpError::TileFailed {
                            tile: tile.index,
                            attempts: attempt + 1,
                            source,
                        });
                    }
                    self.stats.tile_retries += 1;
                    std::thread::sleep(retry_backoff(
                        self.cfg.tile_retry_base,
                        self.cfg.tile_retry_cap,
                        attempt,
                    ));
                    attempt += 1;
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Side {
    Query,
    Reference,
}

/// Validate and apply an append: one equally-long, non-empty slice per
/// dimension.
fn append_series(
    series: &MultiDimSeries,
    new_samples: &[Vec<f64>],
) -> Result<MultiDimSeries, MdmpError> {
    if new_samples.len() != series.dims() {
        return Err(MdmpError::BadConfig(format!(
            "append carries {} dimension slices, series has {} dimensions",
            new_samples.len(),
            series.dims()
        )));
    }
    let add = new_samples[0].len();
    if new_samples.iter().any(|s| s.len() != add) {
        return Err(MdmpError::BadConfig(
            "appended slices must have equal lengths".into(),
        ));
    }
    if add == 0 {
        return Err(MdmpError::BadConfig("append carries no samples".into()));
    }
    let mut dims = Vec::with_capacity(series.dims());
    for (k, extra) in new_samples.iter().enumerate() {
        let mut v = series.dim(k).to_vec();
        v.extend_from_slice(extra);
        dims.push(v);
    }
    Ok(MultiDimSeries::from_dims(dims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_with_mode;
    use mdmp_data::synthetic::{generate_pair, Pattern, SyntheticConfig};
    use mdmp_faults::FaultPlan;
    use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
    use mdmp_precision::PrecisionMode;
    use std::sync::Arc;

    fn series_pair(n: usize) -> (MultiDimSeries, MultiDimSeries) {
        let pair = generate_pair(&SyntheticConfig {
            n_subsequences: n,
            dims: 2,
            m: 12,
            pattern: Pattern::Sine,
            embeddings: 2,
            noise: 0.3,
            pattern_amplitude: 1.0,
            seed: 31,
        });
        (pair.reference, pair.query)
    }

    fn split_tail(series: &MultiDimSeries, tail: usize) -> (MultiDimSeries, Vec<Vec<f64>>) {
        let keep = series.len() - tail;
        let head = series.window(0, keep);
        let tail_slices: Vec<Vec<f64>> = (0..series.dims())
            .map(|k| series.dim(k)[keep..].to_vec())
            .collect();
        (head, tail_slices)
    }

    fn batch_fp64(r: &MultiDimSeries, q: &MultiDimSeries, m: usize) -> MatrixProfile {
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        run_with_mode(r, q, &MdmpConfig::new(m, PrecisionMode::Fp64), &mut sys)
            .unwrap()
            .profile
    }

    #[test]
    fn streamed_query_appends_match_batch_fp64() {
        let (r, q) = series_pair(200);
        let (q_head, q_tail) = split_tail(&q, 60);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64);
        let mut sp = StreamingProfile::new(r.clone(), q_head, cfg).unwrap();
        // Stream the tail in three chunks.
        for chunk in q_tail_chunks(&q_tail, 3) {
            sp.append_query(&chunk).unwrap();
        }
        let expected = batch_fp64(&r, &q, 12);
        assert_profiles_close(sp.profile(), &expected);
        assert_eq!(sp.arrival_tiles().len(), 4);
        assert_eq!(sp.stats().appends, 3);
        assert_eq!(sp.stats().incremental_appends, 3);
    }

    #[test]
    fn streamed_reference_appends_match_batch_fp64() {
        let (r, q) = series_pair(180);
        let (r_head, r_tail) = split_tail(&r, 50);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64);
        let mut sp = StreamingProfile::new(r_head, q.clone(), cfg).unwrap();
        for chunk in q_tail_chunks(&r_tail, 2) {
            sp.append_reference(&chunk).unwrap();
        }
        let expected = batch_fp64(&r, &q, 12);
        assert_profiles_close(sp.profile(), &expected);
    }

    #[test]
    fn interleaved_appends_match_batch() {
        let (r, q) = series_pair(160);
        let (r_head, r_tail) = split_tail(&r, 40);
        let (q_head, q_tail) = split_tail(&q, 40);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64);
        let mut sp = StreamingProfile::new(r_head, q_head, cfg).unwrap();
        sp.append_query(&q_tail_chunks(&q_tail, 2)[0]).unwrap();
        sp.append_reference(&q_tail_chunks(&r_tail, 2)[0]).unwrap();
        sp.append_query(&q_tail_chunks(&q_tail, 2)[1]).unwrap();
        sp.append_reference(&q_tail_chunks(&r_tail, 2)[1]).unwrap();
        let expected = batch_fp64(&r, &q, 12);
        assert_profiles_close(sp.profile(), &expected);
    }

    #[test]
    fn tiny_append_below_segment_length_still_extends() {
        let (r, q) = series_pair(100);
        let (q_head, q_tail) = split_tail(&q, 5);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64);
        let mut sp = StreamingProfile::new(r.clone(), q_head, cfg).unwrap();
        let before = sp.n_query();
        sp.append_query(&q_tail).unwrap();
        assert_eq!(sp.n_query(), before + 5);
        let expected = batch_fp64(&r, &q, 12);
        assert_profiles_close(sp.profile(), &expected);
    }

    #[test]
    fn reduced_precision_streaming_runs() {
        let (r, q) = series_pair(150);
        let (q_head, q_tail) = split_tail(&q, 30);
        let cfg = MdmpConfig::new(12, PrecisionMode::Mixed);
        let mut sp = StreamingProfile::new(r, q_head, cfg).unwrap();
        sp.append_query(&q_tail).unwrap();
        assert!(sp.profile().unset_fraction() < 0.01);
    }

    #[test]
    fn incremental_appends_match_scratch_bit_for_bit() {
        for mode in [
            PrecisionMode::Fp64,
            PrecisionMode::Fp16,
            PrecisionMode::Fp16c,
            PrecisionMode::Mixed,
            PrecisionMode::Fp16Tc,
        ] {
            let (r, q) = series_pair(140);
            let (r_head, r_tail) = split_tail(&r, 30);
            let (q_head, q_tail) = split_tail(&q, 30);
            let cfg = MdmpConfig::new(12, mode);
            let mut inc =
                StreamingProfile::new(r_head.clone(), q_head.clone(), cfg.clone()).unwrap();
            let mut scr = StreamingProfile::new_scratch(r_head, q_head, cfg).unwrap();
            for sp in [&mut inc, &mut scr] {
                sp.append_query(&q_tail_chunks(&q_tail, 2)[0]).unwrap();
                sp.append_reference(&q_tail_chunks(&r_tail, 3)[0]).unwrap();
                sp.append_query(&q_tail_chunks(&q_tail, 2)[1]).unwrap();
                sp.append_reference(&q_tail_chunks(&r_tail, 3)[1]).unwrap();
                sp.append_reference(&q_tail_chunks(&r_tail, 3)[2]).unwrap();
            }
            assert_profiles_bit_equal(inc.profile(), scr.profile(), &format!("{mode:?}"));
            assert!(inc.stats().segments_reused > 0, "{mode:?}: no reuse");
            assert_eq!(scr.stats().segments_reused, 0);
        }
    }

    #[test]
    fn arrival_tile_replay_reproduces_streamed_profile() {
        let (r, q) = series_pair(150);
        let (r_head, r_tail) = split_tail(&r, 30);
        let (q_head, q_tail) = split_tail(&q, 20);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp16);
        let mut sp = StreamingProfile::new(r_head, q_head, cfg.clone()).unwrap();
        sp.append_query(&q_tail).unwrap();
        sp.append_reference(&r_tail).unwrap();
        let mut replayed = MatrixProfile::new_unset(sp.n_query(), r.dims());
        for tile in sp.arrival_tiles() {
            let part = StreamingProfile::replay_tile(&r, &q, tile, &cfg);
            replayed.merge_min_columns(&part, tile.col0);
        }
        assert_profiles_bit_equal(sp.profile(), &replayed, "replay");
    }

    #[test]
    fn malformed_appends_get_typed_errors_and_leave_state_intact() {
        let (r, q) = series_pair(100);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64);
        let mut sp = StreamingProfile::new(r, q, cfg).unwrap();
        let before_n = sp.n_query();
        let before_tiles = sp.arrival_tiles().len();
        // Wrong number of dimension slices.
        let err = sp.append_query(&[vec![1.0; 8]]).unwrap_err();
        assert!(matches!(err, MdmpError::BadConfig(_)), "{err}");
        assert!(err.to_string().contains("dimension"), "{err}");
        // Unequal slice lengths.
        let err = sp.append_query(&[vec![1.0; 8], vec![1.0; 7]]).unwrap_err();
        assert!(err.to_string().contains("equal lengths"), "{err}");
        // Empty append.
        let err = sp.append_query(&[vec![], vec![]]).unwrap_err();
        assert!(err.to_string().contains("no samples"), "{err}");
        assert_eq!(sp.n_query(), before_n);
        assert_eq!(sp.arrival_tiles().len(), before_tiles);
    }

    #[test]
    fn recoverable_faulted_append_is_bit_identical_to_fault_free() {
        let (r, q) = series_pair(120);
        let (q_head, q_tail) = split_tail(&q, 25);
        let clean_cfg = MdmpConfig::new(12, PrecisionMode::Fp32);
        // Tile 1 is the first append's delta tile; fault its first attempt
        // only, so one retry recovers.
        let plan = FaultPlan::new()
            .with_fault(1, FaultKind::Kernel)
            .with_fault(2, FaultKind::PoisonNan)
            .with_faulty_attempts(1);
        let faulty_cfg = clean_cfg
            .clone()
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_retries(2)
            .with_tile_backoff(Duration::from_millis(1), Duration::from_millis(2));
        let mut clean = StreamingProfile::new(r.clone(), q_head.clone(), clean_cfg).unwrap();
        let mut faulty = StreamingProfile::new(r, q_head, faulty_cfg).unwrap();
        for sp in [&mut clean, &mut faulty] {
            for chunk in q_tail_chunks(&q_tail, 2) {
                sp.append_query(&chunk).unwrap();
            }
        }
        assert!(faulty.stats().tile_retries >= 2, "faults must have fired");
        assert_eq!(clean.stats().tile_retries, 0);
        assert_profiles_bit_equal(clean.profile(), faulty.profile(), "fault recovery");
    }

    #[test]
    fn unrecoverable_fault_fails_typed_and_rolls_back() {
        let (r, q) = series_pair(100);
        let (q_head, q_tail) = split_tail(&q, 10);
        let plan = FaultPlan::new().with_fault(1, FaultKind::Kernel).always();
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp64)
            .with_fault_plan(Some(Arc::new(plan)))
            .with_tile_retries(1)
            .with_tile_backoff(Duration::from_millis(1), Duration::from_millis(1));
        let mut sp = StreamingProfile::new(r, q_head, cfg).unwrap();
        let before_n = sp.n_query();
        let err = sp.append_query(&q_tail).unwrap_err();
        match err {
            MdmpError::TileFailed { tile, attempts, .. } => {
                assert_eq!(tile, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected TileFailed, got {other:?}"),
        }
        // The failed append must leave the session usable at its old shape.
        assert_eq!(sp.n_query(), before_n);
        assert_eq!(sp.arrival_tiles().len(), 1);
    }

    #[test]
    fn large_delta_tiles_route_qt_through_the_pool() {
        let (r, q) = series_pair(700);
        let (q_head, q_tail) = split_tail(&q, 40);
        let cfg = MdmpConfig::new(12, PrecisionMode::Fp32).with_host_workers(4);
        let mut pooled = StreamingProfile::new(r.clone(), q_head.clone(), cfg).unwrap();
        pooled.append_query(&q_tail).unwrap();
        assert!(
            pooled.stats().pooled_qt_tiles > 0,
            "a {}-row delta tile must route through the pool",
            pooled.n_reference()
        );
        let seq_cfg = MdmpConfig::new(12, PrecisionMode::Fp32).with_host_workers(1);
        let mut seq = StreamingProfile::new(r, q_head, seq_cfg).unwrap();
        seq.append_query(&q_tail).unwrap();
        assert_eq!(seq.stats().pooled_qt_tiles, 0);
        assert_profiles_bit_equal(pooled.profile(), seq.profile(), "pooled qt");
    }

    fn q_tail_chunks(tail: &[Vec<f64>], parts: usize) -> Vec<Vec<Vec<f64>>> {
        let len = tail[0].len();
        let base = len / parts;
        let mut out = Vec::new();
        let mut start = 0;
        for p in 0..parts {
            let end = if p == parts - 1 { len } else { start + base };
            out.push(tail.iter().map(|d| d[start..end].to_vec()).collect());
            start = end;
        }
        out
    }

    fn assert_profiles_close(got: &MatrixProfile, expected: &MatrixProfile) {
        assert_eq!(got.n_query(), expected.n_query());
        for k in 0..expected.dims() {
            for j in 0..expected.n_query() {
                assert!(
                    (got.value(j, k) - expected.value(j, k)).abs() < 1e-7,
                    "P[{j}][{k}]: {} vs {}",
                    got.value(j, k),
                    expected.value(j, k)
                );
                assert_eq!(got.index(j, k), expected.index(j, k), "I[{j}][{k}]");
            }
        }
    }

    fn assert_profiles_bit_equal(a: &MatrixProfile, b: &MatrixProfile, what: &str) {
        assert_eq!(a.n_query(), b.n_query(), "{what}: shape");
        assert_eq!(a.dims(), b.dims(), "{what}: dims");
        for k in 0..a.dims() {
            for j in 0..a.n_query() {
                assert_eq!(
                    a.value(j, k).to_bits(),
                    b.value(j, k).to_bits(),
                    "{what}: P[{j}][{k}] {} vs {}",
                    a.value(j, k),
                    b.value(j, k)
                );
                assert_eq!(a.index(j, k), b.index(j, k), "{what}: I[{j}][{k}]");
            }
        }
    }
}
