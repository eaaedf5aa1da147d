//! The three workloads and what they share: input generation, the FP64
//! recall reference, bitwise profile comparison and the per-op facts the
//! harness aggregates.

pub mod batch;
pub mod cluster;
pub mod stream;

use crate::trace::{OpBreakdown, Tracer};
use mdmp_core::{run_with_mode, MatrixProfile, MdmpConfig};
use mdmp_data::synthetic::{generate_pair, Pattern, SyntheticConfig};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::{CostLedger, DeviceSpec, GpuSystem, KernelClass};
use mdmp_precision::PrecisionMode;
use std::collections::BTreeMap;

/// Problem size of a workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Segments per series (series length `n + m − 1`).
    pub n: usize,
    /// Dimensions.
    pub d: usize,
    /// Segment length.
    pub m: usize,
    /// Tiles per batch or cluster op.
    pub tiles: usize,
    /// Samples per streamed append.
    pub chunk: usize,
}

impl Shape {
    /// The shape every workload runs at.
    pub const DEFAULT: Shape = Shape {
        n: 512,
        d: 8,
        m: 64,
        tiles: 8,
        chunk: 64,
    };
}

/// Index into [`Pattern::ALL`] of the embedded motif.
pub const PATTERN: usize = 1;

/// Background noise amplitude of the synthetic series.
pub const NOISE: f64 = 0.3;

/// The reference/query pair for `seed`: the generator `mdmp-service`
/// runs for a synthetic job input, so a node materializes exactly these
/// series from the same job spec.
pub fn synthetic_pair(shape: &Shape, seed: u64) -> (MultiDimSeries, MultiDimSeries) {
    let pair = generate_pair(&SyntheticConfig {
        n_subsequences: shape.n,
        dims: shape.d,
        m: shape.m,
        pattern: Pattern::ALL[PATTERN],
        embeddings: 2,
        noise: NOISE,
        pattern_amplitude: 1.0,
        seed,
    });
    (pair.reference, pair.query)
}

/// One simulated A100, the device every workload models.
pub fn one_gpu() -> GpuSystem {
    GpuSystem::homogeneous(DeviceSpec::a100(), 1)
}

/// The FP64 profile recall is measured against.
pub fn fp64_profile(
    reference: &MultiDimSeries,
    query: &MultiDimSeries,
    m: usize,
) -> Result<MatrixProfile, String> {
    let cfg = MdmpConfig::new(m, PrecisionMode::Fp64);
    run_with_mode(reference, query, &cfg, &mut one_gpu())
        .map(|run| run.profile)
        .map_err(|e| format!("fp64 reference: {e}"))
}

/// Recall of `test` against the FP64 reference, in percent.
pub fn recall_pct(reference: &MatrixProfile, test: &MatrixProfile) -> f64 {
    100.0 * mdmp_metrics::recall_rate(reference, test)
}

/// Whether two profiles agree bit for bit, values and indices.
pub fn same_bits(a: &MatrixProfile, b: &MatrixProfile) -> bool {
    a.n_query() == b.n_query()
        && a.dims() == b.dims()
        && (0..a.dims()).all(|k| {
            a.index_dim(k) == b.index_dim(k)
                && a.profile_dim(k)
                    .iter()
                    .zip(b.profile_dim(k))
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Modelled seconds per kernel class, as the `gpusim.*` metrics.
pub fn gpusim_metrics(ledger: &CostLedger, merge_seconds: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("gpusim.precalc_s", ledger.seconds(KernelClass::Precalc)),
        ("gpusim.dist_s", ledger.seconds(KernelClass::DistCalc)),
        ("gpusim.sort_scan_s", ledger.seconds(KernelClass::SortScan)),
        (
            "gpusim.update_s",
            ledger.seconds(KernelClass::UpdateProfile),
        ),
        ("gpusim.merge_s", merge_seconds),
    ]
}

/// A node's `ServiceConfig` for the run record.
pub fn describe_service(c: &mdmp_service::ServiceConfig) -> String {
    format!(
        "workers={} devices={} queue_capacity={} host_workers={} cache_bytes={}",
        c.workers, c.devices, c.queue_capacity, c.host_workers, c.cache_bytes
    )
}

/// What one checked op did, from the program's own return values.
#[derive(Debug, Clone, Default)]
pub struct OpFacts {
    /// Distance-matrix cells the op completed.
    pub cells: u64,
    /// Modelled device seconds of the op.
    pub modelled_s: f64,
    /// Bytes the op sent on the wire.
    pub bytes_up: u64,
    /// Bytes the op received on the wire.
    pub bytes_down: u64,
    /// Layer counters by name, summed over the op.
    pub counters: BTreeMap<&'static str, f64>,
}

impl OpFacts {
    /// Facts with a cell count and modelled time and no counters.
    pub fn new(cells: u64, modelled_s: f64) -> OpFacts {
        OpFacts {
            cells,
            modelled_s,
            ..OpFacts::default()
        }
    }

    /// Builder-style counter.
    pub fn with(mut self, name: &'static str, value: f64) -> OpFacts {
        self.counters.insert(name, value);
        self
    }
}

/// Sum of one counter over a set of ops.
pub fn total(facts: &[OpFacts], name: &str) -> f64 {
    facts
        .iter()
        .filter_map(|f| f.counters.get(name))
        .sum::<f64>()
}

/// `part / whole` in percent, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Largest value over mean value, 1 when all are zero.
pub fn imbalance(values: &[f64]) -> f64 {
    let mean = crate::stats::mean(values);
    if mean > 0.0 {
        crate::stats::max(values) / mean
    } else {
        1.0
    }
}

/// Median over ops of one layer's self time.
pub fn self_time(breakdown: &[OpBreakdown], name: &str) -> f64 {
    let per_op: Vec<f64> = breakdown
        .iter()
        .map(|b| b.self_times.get(name).copied().unwrap_or(0.0))
        .collect();
    crate::stats::median(&per_op)
}

/// Median over ops of the unexplained remainder.
pub fn remainder(breakdown: &[OpBreakdown]) -> f64 {
    let per_op: Vec<f64> = breakdown.iter().map(|b| b.remainder).collect();
    crate::stats::median(&per_op)
}

/// A benchmark workload: a closed loop of ops with one caller.
///
/// The harness calls [`Workload::prepare`] once (untimed), times
/// [`Workload::setup`] several times, then times [`Workload::op`] in a
/// loop and hands each result to [`Workload::check`] outside the timed
/// region.
pub trait Workload {
    /// Live state between ops: inputs, nodes, connections, sessions.
    type Fixture;
    /// What one op returns for checking.
    type Out;

    /// Root span name of a traced op.
    const ROOT: &'static str;

    /// Untimed preparation: the FP64 reference and any expected outputs.
    fn prepare(&mut self) -> Result<(), String>;
    /// Everything a user pays before the first op, warm-up included.
    fn setup(&self) -> Result<Self::Fixture, String>;
    /// One op, timed by the caller.
    fn op(&self, fx: &mut Self::Fixture) -> Result<Self::Out, String>;
    /// Check one op's output and extract its facts (untimed).
    fn check(&self, fx: &mut Self::Fixture, out: Self::Out) -> Result<OpFacts, String>;
    /// One op through the traced path, recorded under `op` and checked.
    fn traced_op(
        &self,
        fx: &mut Self::Fixture,
        tracer: &Tracer,
        op: u64,
    ) -> Result<OpFacts, String>;
    /// Recall of the workload's outputs against FP64, in percent.
    fn recall_pct(&self, fx: &Self::Fixture) -> Result<f64, String>;
    /// Checks that need the whole run (e.g. a completed session).
    fn finish(&self, _fx: &mut Self::Fixture) -> Result<(), String> {
        Ok(())
    }
    /// Per-layer metrics from untraced facts and the traced breakdown.
    fn layer_metrics(
        &self,
        fx: &mut Self::Fixture,
        facts: &[OpFacts],
        breakdown: &[OpBreakdown],
        tracer: &Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String>;
    /// Configuration lines for the run record.
    fn describe(&self) -> Vec<(&'static str, String)>;
}
