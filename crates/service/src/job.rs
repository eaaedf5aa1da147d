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
                let cfg = synthetic_config(*n, *d, *pattern, *noise, *seed, self.m)?;
                let pair = mdmp_data::synthetic::generate_pair(&cfg);
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

    /// Refuse a synthetic input the generator cannot produce (`n = 0`,
    /// `d = 0`, `m < 2`, too little room for its embeddings, an unknown
    /// pattern) with the error [`JobSpec::materialize`] would return.
    /// Other inputs pass: their series are only known once read.
    pub fn check_input(&self) -> Result<(), String> {
        match &self.input {
            JobInput::Synthetic {
                n,
                d,
                pattern,
                noise,
                seed,
            } => synthetic_config(*n, *d, *pattern, *noise, *seed, self.m).map(drop),
            JobInput::Csv { .. } | JobInput::InMemory { .. } => Ok(()),
        }
    }

    /// The job's segment counts and dimensionality. A synthetic input is
    /// sized from its spec, `(n, n, d)`, without generating it, and
    /// refused exactly where [`JobSpec::materialize`] refuses it; other
    /// inputs are materialized (a CSV input reads its files). A series
    /// shorter than `m` has 0 segments.
    pub fn shape(&self) -> Result<JobShape, String> {
        if let JobInput::Synthetic { n, d, .. } = &self.input {
            self.check_input()?;
            return Ok(JobShape {
                n_reference: *n,
                n_query: *n,
                dims: *d,
            });
        }
        let (reference, query) = self.materialize()?;
        let segments = |s: &MultiDimSeries| (s.len() + 1).saturating_sub(self.m);
        Ok(JobShape {
            n_reference: segments(&reference),
            n_query: segments(&query),
            dims: reference.dims(),
        })
    }
}

/// The generator configuration of a synthetic input at segment length `m`,
/// checked so that generation cannot panic.
fn synthetic_config(
    n: usize,
    d: usize,
    pattern: usize,
    noise: f64,
    seed: u64,
    m: usize,
) -> Result<SyntheticConfig, String> {
    let Some(&pattern) = Pattern::ALL.get(pattern) else {
        return Err(format!("pattern index {pattern} out of range"));
    };
    let cfg = SyntheticConfig {
        n_subsequences: n,
        dims: d,
        m,
        pattern,
        embeddings: 2,
        noise,
        pattern_amplitude: 1.0,
        seed,
    };
    cfg.check()?;
    Ok(cfg)
}

/// A job's size: segment counts of both series and their dimensionality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobShape {
    /// Reference segments `n_r`.
    pub n_reference: usize,
    /// Query segments `n_q`.
    pub n_query: usize,
    /// Dimensionality `d`.
    pub dims: usize,
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

    /// A synthetic spec at the given size; every other field fixed.
    fn synthetic(n: usize, d: usize, m: usize, pattern: usize) -> JobSpec {
        JobSpec {
            input: JobInput::Synthetic {
                n,
                d,
                pattern,
                noise: 0.3,
                seed: 5,
            },
            m,
            ..JobSpec::in_memory(
                Arc::new(MultiDimSeries::univariate(vec![0.0; 4])),
                Arc::new(MultiDimSeries::univariate(vec![0.0; 4])),
                m,
                PrecisionMode::Fp32,
            )
        }
    }

    /// The shape of materialized inputs, as the coordinator used to read it.
    fn materialized_shape(spec: &JobSpec) -> Result<JobShape, String> {
        let (reference, query) = spec.materialize()?;
        Ok(JobShape {
            n_reference: reference.n_segments(spec.m),
            n_query: query.n_segments(spec.m),
            dims: reference.dims(),
        })
    }

    #[test]
    fn shape_matches_materialization_and_refuses_the_same_specs() {
        let mut refused = 0;
        for pattern in 0..=Pattern::ALL.len() {
            for n in [0, 1, 7, 8, 15, 16, 31, 32, 33, 100] {
                for d in [0, 1, 3] {
                    for m in [0, 1, 2, 4, 8, 9] {
                        let spec = synthetic(n, d, m, pattern);
                        let what = format!("n={n} d={d} m={m} pattern={pattern}");
                        let shape = spec.shape();
                        assert_eq!(shape, materialized_shape(&spec), "{what}");
                        assert_eq!(spec.check_input(), shape.clone().map(drop), "{what}");
                        if let Ok(shape) = shape {
                            assert_eq!((shape.n_reference, shape.dims), (n, d), "{what}");
                        } else {
                            refused += 1;
                        }
                    }
                }
            }
        }
        // Each degenerate axis is refused on its own: n = 0, d = 0,
        // m < 2, n < 4m and an unknown pattern.
        for spec in [
            synthetic(0, 2, 8, 0),
            synthetic(64, 0, 8, 0),
            synthetic(64, 2, 1, 0),
            synthetic(31, 2, 8, 0),
            synthetic(64, 2, 8, Pattern::ALL.len()),
        ] {
            assert!(spec.check_input().is_err(), "{:?}", spec.input);
        }
        assert!(refused > 0);
    }

    #[test]
    fn shape_of_a_csv_input_reads_its_files() {
        let dir = std::env::temp_dir().join(format!("mdmp-job-shape-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = dir.join("r.csv");
        let query = dir.join("q.csv");
        let rows = |len: usize| {
            (0..len)
                .map(|t| format!("{},{}\n", (t as f64 * 0.3).sin(), t % 5))
                .collect::<String>()
        };
        std::fs::write(&reference, rows(40)).unwrap();
        std::fs::write(&query, rows(25)).unwrap();
        let csv = |query: Option<std::path::PathBuf>, m: usize| JobSpec {
            input: JobInput::Csv {
                reference: reference.clone(),
                query,
            },
            ..synthetic(64, 2, m, 0)
        };
        for (query, m, expect) in [
            (Some(query.clone()), 8, (33, 18)),
            (None, 8, (33, 33)),
            (Some(query.clone()), 25, (16, 1)),
        ] {
            let spec = csv(query, m);
            let shape = spec.shape().unwrap();
            assert_eq!(Ok(shape), materialized_shape(&spec));
            assert_eq!(
                (shape.n_reference, shape.n_query, shape.dims),
                (expect.0, expect.1, 2)
            );
        }
        // A query shorter than m has no segments; the driver refuses it.
        let short = csv(Some(query.clone()), 26).shape().unwrap();
        assert_eq!((short.n_reference, short.n_query), (15, 0));
        // A missing file is refused with materialize's error.
        let missing = csv(Some(dir.join("absent.csv")), 8);
        assert!(missing.shape().is_err());
        assert_eq!(missing.shape().err(), missing.materialize().err());
        std::fs::remove_dir_all(&dir).unwrap();
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
