//! `batch-fp32`: `mdmp_core::run_with_mode` called directly on a
//! synthetic pair in FP32, one host worker, the default kernel pool.
//!
//! The traced op replays the driver's single-worker path through the
//! public tile functions (`compute_tile_precalc`,
//! `execute_tile_from_precalc_pooled`, then the in-order column merge) so
//! each call gets a span; its profile must equal the driver's bit for bit.

use super::{
    fp64_profile, gpusim_metrics, imbalance, one_gpu, pct, remainder, same_bits, self_time,
    synthetic_pair, total, OpFacts, Shape, Workload,
};
use crate::trace::{OpBreakdown, Tracer};
use mdmp_core::{
    compute_tile_list, compute_tile_precalc, execute_tile_from_precalc_pooled, run_with_mode,
    MatrixProfile, MdmpConfig, MdmpRun, PlaneBuffers, Tile,
};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::GpuSystem;
use mdmp_precision::PrecisionMode;

/// The FP32 batch workload.
pub struct Batch {
    shape: Shape,
    seed: u64,
    fp64: Option<MatrixProfile>,
}

/// Inputs, configuration and the warm-up op's profile.
pub struct BatchFixture {
    reference: MultiDimSeries,
    query: MultiDimSeries,
    cfg: MdmpConfig,
    system: GpuSystem,
    tiles: Vec<Tile>,
    expected: MatrixProfile,
}

impl Batch {
    /// The workload for `seed` at `shape`.
    pub fn new(shape: Shape, seed: u64) -> Batch {
        Batch {
            shape,
            seed,
            fp64: None,
        }
    }

    fn cells(&self, fx: &BatchFixture) -> u64 {
        let m = self.shape.m;
        (fx.reference.n_segments(m) * fx.query.n_segments(m) * fx.reference.dims()) as u64
    }
}

/// The driver's single-worker tile loop with a span around each call.
fn replay(fx: &BatchFixture, tracer: &Tracer, op: u64) -> MatrixProfile {
    let kahan = fx.cfg.mode.compensated_precalc();
    let n_q = fx.query.n_segments(fx.cfg.m);
    tracer.span(op, None, Batch::ROOT, |root| {
        let mut bufs = PlaneBuffers::<f32>::new();
        let mut global = MatrixProfile::new_unset(n_q, fx.reference.dims());
        for tile in &fx.tiles {
            let pre = tracer.span(op, Some(root), "precalc", |_| {
                compute_tile_precalc::<f32>(&fx.reference, &fx.query, tile, &fx.cfg, kahan)
            });
            let out = tracer.span(op, Some(root), "tile_exec", |_| {
                execute_tile_from_precalc_pooled::<f32>(
                    &pre, tile, &fx.cfg, kahan, false, &mut bufs,
                )
            });
            global.merge_min_columns(&out.profile, tile.col0);
        }
        global
    })
}

impl Workload for Batch {
    type Fixture = BatchFixture;
    type Out = MdmpRun;

    const ROOT: &'static str = "batch.op";

    fn prepare(&mut self) -> Result<(), String> {
        let (reference, query) = synthetic_pair(&self.shape, self.seed);
        self.fp64 = Some(fp64_profile(&reference, &query, self.shape.m)?);
        Ok(())
    }

    fn setup(&self) -> Result<BatchFixture, String> {
        let (reference, query) = synthetic_pair(&self.shape, self.seed);
        let m = self.shape.m;
        let cfg = MdmpConfig::new(m, PrecisionMode::Fp32)
            .with_tiles(self.shape.tiles)
            .with_host_workers(1);
        let tiles = compute_tile_list(reference.n_segments(m), query.n_segments(m), cfg.n_tiles)
            .map_err(|e| e.to_string())?;
        let mut system = one_gpu();
        let warm = run_with_mode(&reference, &query, &cfg, &mut system)
            .map_err(|e| format!("warm-up op: {e}"))?;
        Ok(BatchFixture {
            reference,
            query,
            cfg,
            system,
            tiles,
            expected: warm.profile,
        })
    }

    fn op(&self, fx: &mut BatchFixture) -> Result<MdmpRun, String> {
        run_with_mode(&fx.reference, &fx.query, &fx.cfg, &mut fx.system).map_err(|e| e.to_string())
    }

    fn check(&self, fx: &mut BatchFixture, run: MdmpRun) -> Result<OpFacts, String> {
        if !same_bits(&run.profile, &fx.expected) {
            return Err("repeated batch op is not bit-identical to the warm-up op".into());
        }
        let rows: usize = fx.tiles.iter().map(|t| t.rows).sum();
        let mut facts = OpFacts::new(self.cells(fx), run.modeled_seconds)
            .with("buffer_reuses", run.buffer_pool_reuses as f64)
            .with("buffer_allocs", run.buffer_pool_allocs as f64)
            .with("pool_dispatches", run.pool_dispatches as f64)
            .with("pool_thread_reuses", run.pool_thread_reuses as f64)
            .with("rows", rows as f64)
            .with("worker_busy_imbalance", imbalance(&run.worker_busy_seconds));
        for (name, seconds) in gpusim_metrics(&run.ledger, run.merge_seconds) {
            facts = facts.with(name, seconds);
        }
        Ok(facts)
    }

    fn traced_op(
        &self,
        fx: &mut BatchFixture,
        tracer: &Tracer,
        op: u64,
    ) -> Result<OpFacts, String> {
        let profile = replay(fx, tracer, op);
        if !same_bits(&profile, &fx.expected) {
            return Err("traced tile replay differs from run_with_mode".into());
        }
        Ok(OpFacts::new(self.cells(fx), 0.0))
    }

    fn recall_pct(&self, fx: &BatchFixture) -> Result<f64, String> {
        let fp64 = self.fp64.as_ref().ok_or("prepare() was not run")?;
        Ok(super::recall_pct(fp64, &fx.expected))
    }

    fn layer_metrics(
        &self,
        fx: &mut BatchFixture,
        facts: &[OpFacts],
        breakdown: &[OpBreakdown],
        _tracer: &Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let tile_exec = self_time(breakdown, "tile_exec");
        let dispatches = total(facts, "pool_dispatches");
        let median_of = |name: &str| {
            let per_op: Vec<f64> = facts
                .iter()
                .filter_map(|f| f.counters.get(name).copied())
                .collect();
            crate::stats::median(&per_op)
        };
        let mut out = vec![
            ("precalc.self_s", self_time(breakdown, "precalc")),
            ("tile_exec.self_s", tile_exec),
            (
                "tile_exec.ns_per_cell",
                1e9 * tile_exec / self.cells(fx) as f64,
            ),
            (
                "tile_exec.buffer_reuse_pct",
                pct(
                    total(facts, "buffer_reuses"),
                    total(facts, "buffer_reuses") + total(facts, "buffer_allocs"),
                ),
            ),
            (
                "kernels.pool_dispatches_per_row",
                dispatches / total(facts, "rows").max(1.0),
            ),
            (
                "kernels.pool_thread_reuse_pct",
                pct(total(facts, "pool_thread_reuses"), dispatches),
            ),
            ("driver.remainder_s", remainder(breakdown)),
            (
                "driver.worker_busy_imbalance",
                median_of("worker_busy_imbalance"),
            ),
        ];
        for name in [
            "gpusim.precalc_s",
            "gpusim.dist_s",
            "gpusim.sort_scan_s",
            "gpusim.update_s",
            "gpusim.merge_s",
        ] {
            out.push((name, median_of(name)));
        }
        Ok(out)
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("mode", PrecisionMode::Fp32.label().to_string()),
            (
                "shape",
                format!(
                    "n={} d={} m={} tiles={}",
                    self.shape.n, self.shape.d, self.shape.m, self.shape.tiles
                ),
            ),
            ("host_workers", "1".to_string()),
            ("devices", "1 x a100 (modelled)".to_string()),
        ]
    }
}
