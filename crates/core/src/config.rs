//! Run configuration and error types.

use crate::tiling::TileSchedule;
use mdmp_faults::FaultPlan;
use mdmp_gpu_sim::AllocError;
use mdmp_precision::{Format, PrecisionMode};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a matrix-profile computation (the tunables of
/// Pseudocode 1 + 2 plus the precision mode of §III-C).
#[derive(Debug, Clone)]
pub struct MdmpConfig {
    /// Segment (subsequence) length `m`.
    pub m: usize,
    /// Precision mode.
    pub mode: PrecisionMode,
    /// Number of tiles `n_tiles` (1 = single-tile algorithm). Tiles are laid
    /// out on a near-square 2-D grid over the distance matrix.
    pub n_tiles: usize,
    /// Clamp `1 − corr` at zero before the square root in Eq. 1 — guards
    /// against NaN distances when reduced-precision rounding pushes the
    /// correlation above 1 (the same guard SCAMP applies). On by default;
    /// the ablation benches toggle it.
    pub clamp: bool,
    /// For self-joins: trivial-match exclusion zone half-width. `None` for
    /// AB-joins (query ≠ reference), which is the paper's setting.
    pub exclusion_zone: Option<usize>,
    /// Tile→device scheduling policy (the paper uses static Round-robin).
    pub schedule: TileSchedule,
    /// Host worker threads executing independent tiles concurrently —
    /// the host-side mirror of the paper's one-stream-per-tile model.
    /// `0` means *auto*: the `MDMP_HOST_WORKERS` environment variable if
    /// set, otherwise one worker per simulated device.
    pub host_workers: usize,
    /// Fault injection plan for chaos testing (DESIGN.md §9). `None` — the
    /// default — injects nothing and adds no per-tile overhead.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Per-tile retry budget: a failing tile kernel is re-attempted up to
    /// this many extra times (with capped exponential backoff and
    /// re-dispatch away from quarantined devices) before the run fails
    /// with [`MdmpError::TileFailed`].
    pub tile_retries: u32,
    /// First retry backoff; doubles per attempt up to
    /// [`MdmpConfig::tile_retry_cap`].
    pub tile_retry_base: Duration,
    /// Upper bound on the per-tile retry backoff.
    pub tile_retry_cap: Duration,
    /// Per-kernel deadline: a tile attempt whose wall time exceeds this is
    /// treated as a failed (stalled) kernel and retried. `None` disables
    /// the deadline.
    pub tile_deadline: Option<Duration>,
    /// Kernel failures on one simulated device before the health ledger
    /// quarantines it and re-dispatches its work to the survivors.
    pub quarantine_threshold: u32,
    /// Tensor-core accumulator chunk width for the TC precision modes
    /// (products summed per FP32 chunk *and* the GEMM row-panel height;
    /// must be 4, 8 or 16). `None` means *auto*: the `MDMP_TC_CHUNK_K`
    /// environment variable if set, otherwise the input format's hardware
    /// default (8 for FP16/BF16, 4 for TF32). Ignored by non-TC modes.
    pub tc_chunk_k: Option<usize>,
}

impl MdmpConfig {
    /// An AB-join configuration with a single tile.
    pub fn new(m: usize, mode: PrecisionMode) -> MdmpConfig {
        MdmpConfig {
            m,
            mode,
            n_tiles: 1,
            clamp: true,
            exclusion_zone: None,
            schedule: TileSchedule::RoundRobin,
            host_workers: 0,
            fault_plan: None,
            tile_retries: 2,
            tile_retry_base: Duration::from_millis(1),
            tile_retry_cap: Duration::from_millis(50),
            tile_deadline: None,
            quarantine_threshold: 3,
            tc_chunk_k: None,
        }
    }

    /// Set the tile count (builder style).
    pub fn with_tiles(mut self, n_tiles: usize) -> MdmpConfig {
        self.n_tiles = n_tiles;
        self
    }

    /// Select the tile scheduling policy (builder style).
    pub fn with_schedule(mut self, schedule: TileSchedule) -> MdmpConfig {
        self.schedule = schedule;
        self
    }

    /// Set the host worker-thread count (builder style); `0` restores the
    /// auto default (env `MDMP_HOST_WORKERS`, else the device count).
    pub fn with_host_workers(mut self, host_workers: usize) -> MdmpConfig {
        self.host_workers = host_workers;
        self
    }

    /// The effective worker count for a run on `n_devices` simulated
    /// devices: an explicit `host_workers` wins, then a positive
    /// `MDMP_HOST_WORKERS` environment override, then one worker per
    /// device (the paper's stream-per-tile concurrency, mirrored on the
    /// host).
    pub fn resolved_host_workers(&self, n_devices: usize) -> usize {
        if self.host_workers > 0 {
            return self.host_workers;
        }
        if let Ok(raw) = std::env::var("MDMP_HOST_WORKERS") {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        n_devices.max(1)
    }

    /// Set the tensor-core accumulator chunk width (builder style); `None`
    /// restores the auto default (env `MDMP_TC_CHUNK_K`, else the format's
    /// hardware chunk).
    pub fn with_tc_chunk_k(mut self, chunk_k: Option<usize>) -> MdmpConfig {
        self.tc_chunk_k = chunk_k;
        self
    }

    /// The effective MMA chunk width for a TC-mode run with the given input
    /// format: an explicit `tc_chunk_k` wins, then a valid `MDMP_TC_CHUNK_K`
    /// environment override, then the format's hardware default — mirroring
    /// [`MdmpConfig::resolved_host_workers`]. Values outside {4, 8, 16} are
    /// rejected by [`MdmpConfig::validate`] (explicit) or ignored (env).
    pub fn resolved_tc_chunk_k(&self, input: Format) -> usize {
        if let Some(k) = self.tc_chunk_k {
            return k;
        }
        if let Ok(raw) = std::env::var("MDMP_TC_CHUNK_K") {
            if let Ok(k) = raw.trim().parse::<usize>() {
                if mdmp_gpu_sim::MMA_CHUNK_SIZES.contains(&k) {
                    return k;
                }
            }
        }
        mdmp_gpu_sim::default_chunk_k(input)
    }

    /// Install a fault injection plan (builder style). `None` disables
    /// injection.
    pub fn with_fault_plan(mut self, plan: Option<Arc<FaultPlan>>) -> MdmpConfig {
        self.fault_plan = plan;
        self
    }

    /// Set the per-tile retry budget (builder style); `0` disables retries
    /// so the first tile failure fails the run.
    pub fn with_tile_retries(mut self, retries: u32) -> MdmpConfig {
        self.tile_retries = retries;
        self
    }

    /// Set the per-kernel deadline (builder style); `None` disables it.
    pub fn with_tile_deadline(mut self, deadline: Option<Duration>) -> MdmpConfig {
        self.tile_deadline = deadline;
        self
    }

    /// Set the retry backoff range (builder style): first backoff `base`,
    /// doubling per attempt, never above `cap`.
    pub fn with_tile_backoff(mut self, base: Duration, cap: Duration) -> MdmpConfig {
        self.tile_retry_base = base;
        self.tile_retry_cap = cap;
        self
    }

    /// Set the device quarantine threshold (builder style).
    pub fn with_quarantine_threshold(mut self, threshold: u32) -> MdmpConfig {
        self.quarantine_threshold = threshold;
        self
    }

    /// Configure a self-join with the standard `⌈m/4⌉` exclusion zone.
    pub fn self_join(mut self) -> MdmpConfig {
        self.exclusion_zone = Some(self.m.div_ceil(4).max(1));
        self
    }

    /// Validate against the input sizes.
    pub fn validate(&self, n_ref: usize, n_query: usize) -> Result<(), MdmpError> {
        if self.m < 2 {
            return Err(MdmpError::BadConfig(format!(
                "segment length m must be at least 2, got {}",
                self.m
            )));
        }
        if n_ref == 0 || n_query == 0 {
            return Err(MdmpError::BadConfig(
                "series shorter than the segment length".into(),
            ));
        }
        if self.n_tiles == 0 {
            return Err(MdmpError::BadConfig("n_tiles must be at least 1".into()));
        }
        if self.n_tiles > n_ref * n_query {
            return Err(MdmpError::BadConfig(format!(
                "n_tiles {} exceeds the number of distance-matrix cells",
                self.n_tiles
            )));
        }
        if let Some(k) = self.tc_chunk_k {
            if !mdmp_gpu_sim::MMA_CHUNK_SIZES.contains(&k) {
                return Err(MdmpError::BadConfig(format!(
                    "tc_chunk_k must be one of {:?}, got {k}",
                    mdmp_gpu_sim::MMA_CHUNK_SIZES
                )));
            }
        }
        Ok(())
    }
}

/// One failed attempt at executing a tile kernel — the typed failures the
/// fault-injection harness provokes and the retry loop absorbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileError {
    /// The tile kernel aborted without producing a result plane.
    Kernel {
        /// Index of the failed tile.
        tile: usize,
    },
    /// The tile attempt exceeded its per-kernel deadline.
    Timeout {
        /// Index of the stalled tile.
        tile: usize,
        /// Wall milliseconds the attempt took.
        elapsed_ms: u64,
        /// The configured deadline in milliseconds.
        deadline_ms: u64,
    },
    /// The tile's result plane failed the NaN/Inf/bound validation gate.
    PoisonedPlane {
        /// Index of the poisoned tile.
        tile: usize,
        /// What the gate found.
        violation: crate::tile_exec::PlaneViolation,
    },
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileError::Kernel { tile } => write!(f, "tile {tile}: kernel failed"),
            TileError::Timeout {
                tile,
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "tile {tile}: kernel stalled ({elapsed_ms} ms > {deadline_ms} ms deadline)"
            ),
            TileError::PoisonedPlane { tile, violation } => {
                write!(
                    f,
                    "tile {tile}: result plane failed validation ({violation})"
                )
            }
        }
    }
}

impl std::error::Error for TileError {}

/// Errors of the matrix-profile driver.
#[derive(Debug, Clone)]
pub enum MdmpError {
    /// Invalid configuration or input shape.
    BadConfig(String),
    /// A tile's working set exceeds device memory (tiling too coarse).
    OutOfDeviceMemory {
        /// Index of the offending tile.
        tile: usize,
        /// The underlying allocation failure.
        cause: AllocError,
    },
    /// Reference and query dimensionality differ.
    DimensionalityMismatch {
        /// Reference dimensionality.
        reference: usize,
        /// Query dimensionality.
        query: usize,
    },
    /// A tile kept failing after every allowed retry; the run was aborted
    /// rather than returning a partial profile.
    TileFailed {
        /// Index of the failed tile.
        tile: usize,
        /// Attempts made (1 + configured retries).
        attempts: u32,
        /// The final attempt's failure.
        source: TileError,
    },
    /// Tiles never reached the merge (a worker died without reporting) —
    /// the reorder buffer surfaces this instead of waiting forever or
    /// silently returning a partial profile.
    TilesMissing {
        /// Tiles merged before the pipeline drained.
        merged: usize,
        /// Tiles the run expected.
        expected: usize,
    },
}

impl fmt::Display for MdmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdmpError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MdmpError::OutOfDeviceMemory { tile, cause } => {
                write!(f, "tile {tile} does not fit in device memory: {cause}")
            }
            MdmpError::DimensionalityMismatch { reference, query } => write!(
                f,
                "reference has {reference} dimensions but query has {query}"
            ),
            MdmpError::TileFailed {
                tile,
                attempts,
                source,
            } => write!(f, "tile {tile} failed after {attempts} attempts: {source}"),
            MdmpError::TilesMissing { merged, expected } => write!(
                f,
                "only {merged} of {expected} tiles reached the merge (worker died without reporting)"
            ),
        }
    }
}

impl std::error::Error for MdmpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let cfg = MdmpConfig::new(64, PrecisionMode::Fp16);
        assert_eq!(cfg.m, 64);
        assert_eq!(cfg.n_tiles, 1);
        assert!(cfg.clamp);
        assert!(cfg.exclusion_zone.is_none());
        let tiled = cfg.clone().with_tiles(16);
        assert_eq!(tiled.n_tiles, 16);
        let sj = cfg.self_join();
        assert_eq!(sj.exclusion_zone, Some(16));
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let cfg = MdmpConfig::new(1, PrecisionMode::Fp64);
        assert!(matches!(cfg.validate(10, 10), Err(MdmpError::BadConfig(_))));
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64).with_tiles(0);
        assert!(cfg.validate(10, 10).is_err());
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64).with_tiles(1000);
        assert!(cfg.validate(4, 4).is_err());
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64);
        assert!(cfg.validate(10, 10).is_ok());
    }

    #[test]
    fn host_workers_resolution_order() {
        // Explicit setting wins regardless of the environment.
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp64).with_host_workers(3);
        assert_eq!(cfg.resolved_host_workers(8), 3);
        // Auto without env: one worker per device.
        let auto = MdmpConfig::new(8, PrecisionMode::Fp64);
        assert_eq!(auto.host_workers, 0);
        if std::env::var("MDMP_HOST_WORKERS").is_err() {
            assert_eq!(auto.resolved_host_workers(4), 4);
            assert_eq!(auto.resolved_host_workers(0), 1);
        } else {
            // Under the CI matrix the env override must win over the
            // device count.
            let n: usize = std::env::var("MDMP_HOST_WORKERS")
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert_eq!(auto.resolved_host_workers(4), n);
        }
    }

    #[test]
    fn tc_chunk_resolution_order() {
        // Explicit setting wins regardless of the environment.
        let cfg = MdmpConfig::new(8, PrecisionMode::Fp16Tc).with_tc_chunk_k(Some(16));
        assert_eq!(cfg.resolved_tc_chunk_k(Format::Fp16), 16);
        // Invalid explicit widths are caught by validate.
        let bad = MdmpConfig::new(8, PrecisionMode::Fp16Tc).with_tc_chunk_k(Some(5));
        assert!(matches!(bad.validate(10, 10), Err(MdmpError::BadConfig(_))));
        // Auto: env override if valid, else the format's hardware chunk.
        let auto = MdmpConfig::new(8, PrecisionMode::Fp16Tc);
        match std::env::var("MDMP_TC_CHUNK_K") {
            Err(_) => {
                assert_eq!(auto.resolved_tc_chunk_k(Format::Fp16), 8);
                assert_eq!(auto.resolved_tc_chunk_k(Format::Bf16), 8);
                assert_eq!(auto.resolved_tc_chunk_k(Format::Tf32), 4);
            }
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(k) if mdmp_gpu_sim::MMA_CHUNK_SIZES.contains(&k) => {
                    assert_eq!(auto.resolved_tc_chunk_k(Format::Fp16), k);
                }
                _ => assert_eq!(auto.resolved_tc_chunk_k(Format::Fp16), 8),
            },
        }
    }

    #[test]
    fn error_messages_render() {
        let e = MdmpError::DimensionalityMismatch {
            reference: 4,
            query: 8,
        };
        assert!(e.to_string().contains("4 dimensions"));
    }
}
