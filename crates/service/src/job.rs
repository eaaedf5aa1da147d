//! Job model: what a client submits, the lifecycle a job moves through,
//! and the status snapshots the service reports back.

use mdmp_core::{MatrixProfile, MdmpConfig};
use mdmp_data::synthetic::{Pattern, SyntheticConfig};
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultPlan;
use mdmp_precision::PrecisionMode;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Job identifier (monotone, assigned at submission).
pub type JobId = u64;

/// Scheduling priority: higher classes drain first, FIFO within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when nothing else waits.
    Low,
}

impl Priority {
    /// All classes in drain order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

impl FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Priority, String> {
        match s.to_ascii_lowercase().as_str() {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority '{other}' (high, normal, low)")),
        }
    }
}

/// Where a job's input series come from.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Generate a synthetic reference/query pair on the server.
    Synthetic {
        /// Number of segments.
        n: usize,
        /// Dimensionality.
        d: usize,
        /// Embedded pattern index into [`Pattern::ALL`].
        pattern: usize,
        /// Background noise amplitude.
        noise: f64,
        /// Generator seed — part of the cache identity.
        seed: u64,
    },
    /// Read CSV series from the server's filesystem.
    Csv {
        /// Reference series path.
        reference: PathBuf,
        /// Query series path; `None` means self-join.
        query: Option<PathBuf>,
    },
    /// Series already in memory (in-process submissions only).
    InMemory {
        /// Reference series.
        reference: Arc<MultiDimSeries>,
        /// Query series.
        query: Arc<MultiDimSeries>,
    },
}

/// A full job description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Input series source.
    pub input: JobInput,
    /// Segment length `m`.
    pub m: usize,
    /// Precision mode.
    pub mode: PrecisionMode,
    /// Tile count.
    pub tiles: usize,
    /// Devices to lease for this job.
    pub gpus: usize,
    /// Scheduling priority.
    pub priority: Priority,
    /// Additional attempts after a failed run.
    pub max_retries: u32,
    /// Fault injection plan for this job (chaos testing); `None` injects
    /// nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Per-tile retry budget inside a run (see
    /// [`MdmpConfig::with_tile_retries`]).
    pub tile_retries: u32,
    /// Ignored; delete with the next benchmark revision. The row pipeline
    /// follows the precision mode, and nothing reads this field — it stays
    /// only because the frozen benchmark builds `JobSpec` literals.
    pub fused_rows: Option<bool>,
    /// MMA accumulator chunk width for the tensor-core modes (4, 8 or 16);
    /// `None` uses the auto default (env `MDMP_TC_CHUNK_K`, else the input
    /// format's hardware shape). Ignored by the vector modes.
    pub tc_chunk_k: Option<usize>,
    /// Per-kernel deadline in milliseconds; `None` disables it.
    pub tile_deadline_ms: Option<u64>,
    /// Whole-job deadline in milliseconds: once exceeded, the scheduler
    /// stops retrying and fails the job. `None` disables it.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A job over in-memory series with defaults (1 tile, 1 GPU, normal
    /// priority, no retries).
    pub fn in_memory(
        reference: Arc<MultiDimSeries>,
        query: Arc<MultiDimSeries>,
        m: usize,
        mode: PrecisionMode,
    ) -> JobSpec {
        JobSpec {
            input: JobInput::InMemory { reference, query },
            m,
            mode,
            tiles: 1,
            gpus: 1,
            priority: Priority::Normal,
            max_retries: 0,
            fault_plan: None,
            tile_retries: 2,
            fused_rows: None,
            tc_chunk_k: None,
            tile_deadline_ms: None,
            deadline_ms: None,
        }
    }

    /// The core configuration this spec maps to.
    pub fn config(&self) -> MdmpConfig {
        MdmpConfig::new(self.m, self.mode)
            .with_tiles(self.tiles)
            .with_fault_plan(self.fault_plan.clone())
            .with_tile_retries(self.tile_retries)
            .with_tc_chunk_k(self.tc_chunk_k)
            .with_tile_deadline(self.tile_deadline_ms.map(Duration::from_millis))
    }

    /// Materialize the input series (generation or file I/O happens here,
    /// on the worker, not at submission).
    pub fn materialize(&self) -> Result<(Arc<MultiDimSeries>, Arc<MultiDimSeries>), String> {
        match &self.input {
            JobInput::InMemory { reference, query } => {
                Ok((Arc::clone(reference), Arc::clone(query)))
            }
            JobInput::Synthetic {
                n,
                d,
                pattern,
                noise,
                seed,
            } => {
                if *pattern >= Pattern::ALL.len() {
                    return Err(format!("pattern index {pattern} out of range"));
                }
                let pair = mdmp_data::synthetic::generate_pair(&SyntheticConfig {
                    n_subsequences: *n,
                    dims: *d,
                    m: self.m,
                    pattern: Pattern::ALL[*pattern],
                    embeddings: 2,
                    noise: *noise,
                    pattern_amplitude: 1.0,
                    seed: *seed,
                });
                Ok((Arc::new(pair.reference), Arc::new(pair.query)))
            }
            JobInput::Csv { reference, query } => {
                let r = mdmp_data::io::read_csv(reference).map_err(|e| e.to_string())?;
                let q = match query {
                    Some(p) => mdmp_data::io::read_csv(p).map_err(|e| e.to_string())?,
                    None => r.clone(),
                };
                Ok((Arc::new(r), Arc::new(q)))
            }
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished successfully.
    Done,
    /// Exhausted its retries.
    Failed,
    /// Cancelled before it ran.
    Cancelled,
}

impl JobState {
    /// Terminal states never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of a successfully finished job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The computed matrix profile.
    pub profile: Arc<MatrixProfile>,
    /// Modelled GPU seconds (makespan + merge).
    pub modeled_seconds: f64,
    /// Host wall seconds of the functional execution.
    pub wall_seconds: f64,
    /// Tiles whose precalculation came from the cache.
    pub precalc_hits: usize,
    /// Tiles whose precalculation was computed.
    pub precalc_misses: usize,
}

/// A status snapshot of one job, safe to ship over the wire.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// Lifecycle state at snapshot time.
    pub state: JobState,
    /// Scheduling priority.
    pub priority: Priority,
    /// Execution attempts so far (1 = first run).
    pub attempts: u32,
    /// Seconds spent queued (until start, or until now if still queued).
    pub queue_seconds: f64,
    /// Seconds spent running, if started.
    pub run_seconds: Option<f64>,
    /// Failure message, if failed.
    pub error: Option<String>,
    /// Successful outcome, if done.
    pub outcome: Option<JobOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_parses_and_orders() {
        assert_eq!("high".parse::<Priority>().unwrap(), Priority::High);
        assert!("urgent".parse::<Priority>().is_err());
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
    }

    #[test]
    fn synthetic_materialization_is_deterministic() {
        let spec = JobSpec {
            input: JobInput::Synthetic {
                n: 64,
                d: 2,
                pattern: 0,
                noise: 0.2,
                seed: 9,
            },
            m: 8,
            mode: PrecisionMode::Fp32,
            tiles: 1,
            gpus: 1,
            priority: Priority::Normal,
            max_retries: 0,
            fault_plan: None,
            tile_retries: 2,
            fused_rows: None,
            tc_chunk_k: None,
            tile_deadline_ms: None,
            deadline_ms: None,
        };
        let (r1, q1) = spec.materialize().unwrap();
        let (r2, q2) = spec.materialize().unwrap();
        assert_eq!(r1.dim(0), r2.dim(0));
        assert_eq!(q1.dim(1), q2.dim(1));
    }

    #[test]
    fn terminal_states() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }
}
