//! `mdmp-service`: a concurrent matrix-profile job service on top of
//! `mdmp-core` and `mdmp-gpu-sim`.
//!
//! The service turns the one-shot driver into a long-running system:
//!
//! - **Scheduler** ([`Service`]): a bounded submission queue with
//!   admission control — a full queue *rejects* with
//!   [`SubmitError::QueueFull`] rather than buffering unboundedly —
//!   priority classes with FIFO order inside each, the
//!   `queued → running → done | failed | cancelled` lifecycle, and capped
//!   exponential-backoff retries.
//! - **Worker pool**: threads that lease simulated GPUs from a shared
//!   [`DevicePool`] per job and return them after.
//! - **Precalc cache** ([`PrecalcCache`]): per-tile precalculation blocks
//!   keyed by (series fingerprints, window `m`, precalc precision, tile
//!   count). A repeated query skips the `precalculation` kernel entirely;
//!   results are bit-identical because every reduced format embeds exactly
//!   in f64.
//! - **Streaming sessions** ([`SessionManager`]): long-lived incremental
//!   profiles over `mdmp_core::streaming`.
//! - **Metrics** ([`MetricsRegistry`]): counters, gauges and latency
//!   histograms, exposed as a structured [`ServiceStats`] snapshot and a
//!   Prometheus-style text page.
//! - **TCP front end** ([`serve`]): JSON lines over `std::net` for the
//!   handshake and control ops, one request/response object per line;
//!   bulk planes (`tile_exec`, `stream_open`, `stream_append`) only on the
//!   checksummed binary frames in [`wire`], after a per-connection
//!   upgrade.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod job;
pub mod metrics;
pub mod pool;
pub mod proto;
pub mod queue;
pub mod scheduler;
pub mod server;
pub mod session;
pub(crate) mod sync;
pub mod wire;

pub use cache::{series_fingerprint, CacheKey, CacheStats, PrecalcCache};
pub use job::{JobId, JobInput, JobOutcome, JobSpec, JobState, JobStatus, Priority};
pub use metrics::{MetricsRegistry, ServiceStats};
pub use pool::DevicePool;
pub use proto::Json;
pub use queue::{JobQueue, SubmitError};
pub use scheduler::{Service, ServiceConfig};
pub use server::{job_spec_json, parse_job_spec, request, serve, Server};
pub use session::{AppendReport, AppendSide, SessionId, SessionManager, SessionSummary};
pub use wire::{narrowest_width, Chunk, FrameCodec, Message, WireConn, WireError, WirePreference};
