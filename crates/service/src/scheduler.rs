//! The job scheduler: a worker pool draining the bounded submission queue,
//! leasing devices from the shared pool, consulting the precalc cache, and
//! recording every lifecycle transition in the metrics registry.
//!
//! Lifecycle: `queued → running → done | failed | cancelled`, with
//! per-job retries (capped exponential backoff) between `running`
//! attempts. Shutdown comes in two flavours: *drain* finishes everything
//! already admitted; *abort* cancels queued jobs and finishes only the
//! in-flight ones.

use crate::cache::{CacheKey, PrecalcCache};
use crate::job::{JobId, JobOutcome, JobSpec, JobState, JobStatus};
use crate::metrics::MetricsRegistry;
use crate::pool::DevicePool;
use crate::queue::{JobQueue, SubmitError};
use crate::session::SessionManager;
use crate::sync;
use mdmp_core::{run_tile_subset, run_with_mode_cached, TileSubsetRun};
use mdmp_gpu_sim::DeviceSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables of a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity (admission control).
    pub queue_capacity: usize,
    /// Device spec of the simulated pool.
    pub device: DeviceSpec,
    /// Devices in the pool.
    pub devices: usize,
    /// Precalc cache budget in bytes.
    pub cache_bytes: u64,
    /// Host worker threads per run for the concurrent tile pipeline;
    /// `0` = auto (env `MDMP_HOST_WORKERS`, else one per leased device).
    pub host_workers: usize,
    /// First retry backoff; doubles per attempt.
    pub retry_base: Duration,
    /// Backoff cap.
    pub retry_cap: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            device: DeviceSpec::a100(),
            devices: 2,
            cache_bytes: 256 << 20,
            host_workers: 0,
            retry_base: Duration::from_millis(10),
            retry_cap: Duration::from_secs(1),
        }
    }
}

#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    attempts: u32,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    error: Option<String>,
    outcome: Option<JobOutcome>,
}

/// The concurrent matrix-profile job service.
#[derive(Debug)]
pub struct Service {
    cfg: ServiceConfig,
    queue: JobQueue,
    registry: Mutex<BTreeMap<JobId, JobRecord>>,
    state_changed: Condvar,
    next_id: AtomicU64,
    /// The shared precalculation cache.
    pub cache: PrecalcCache,
    pool: DevicePool,
    /// Counters, gauges and histograms.
    pub metrics: MetricsRegistry,
    /// Streaming sessions.
    pub sessions: SessionManager,
    shutting_down: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Jobs whose fault plan asks the server to drop the client connection
    /// once mid-job (consumed by the first `wait` on the job).
    connection_faults: Mutex<BTreeSet<JobId>>,
}

impl Service {
    /// Start a service: spawns the worker pool and returns a shared handle.
    pub fn start(cfg: ServiceConfig) -> Arc<Service> {
        assert!(cfg.workers > 0, "need at least one worker");
        let service = Arc::new(Service {
            queue: JobQueue::new(cfg.queue_capacity),
            registry: Mutex::new(BTreeMap::new()),
            state_changed: Condvar::new(),
            next_id: AtomicU64::new(0),
            cache: PrecalcCache::new(cfg.cache_bytes),
            pool: DevicePool::new(cfg.device.clone(), cfg.devices),
            metrics: MetricsRegistry::default(),
            sessions: SessionManager::new(),
            shutting_down: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            connection_faults: Mutex::new(BTreeSet::new()),
            cfg,
        });
        let mut handles = sync::lock(&service.workers);
        for i in 0..service.cfg.workers {
            let svc = Arc::clone(&service);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mdmp-worker-{i}"))
                    .spawn(move || svc.worker_loop())
                    // panic-ok: startup path, before any request is
                    // admitted — failing to spawn the pool is fatal.
                    .expect("spawn worker"),
            );
        }
        drop(handles);
        service
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Submit a job. Non-blocking: a full queue rejects with
    /// [`SubmitError::QueueFull`] — that is the backpressure signal.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        if spec.m < 2 {
            return Err(SubmitError::BadSpec("m must be at least 2".into()));
        }
        if spec.tiles == 0 {
            return Err(SubmitError::BadSpec("tiles must be at least 1".into()));
        }
        if spec.gpus == 0 || spec.gpus > self.pool.total() {
            return Err(SubmitError::BadSpec(format!(
                "gpus must be in 1..={}",
                self.pool.total()
            )));
        }
        // relaxed-ok: id allocation only needs uniqueness; the registry
        // insert below is ordered by its mutex.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let priority = spec.priority;
        if spec
            .fault_plan
            .as_deref()
            .is_some_and(|plan| plan.drops_connection())
        {
            sync::lock(&self.connection_faults).insert(id);
        }
        {
            let mut registry = sync::lock(&self.registry);
            registry.insert(
                id,
                JobRecord {
                    spec,
                    state: JobState::Queued,
                    attempts: 0,
                    submitted: Instant::now(),
                    started: None,
                    finished: None,
                    error: None,
                    outcome: None,
                },
            );
        }
        match self.queue.push(id, priority) {
            Ok(()) => {
                self.metrics.jobs_submitted.inc();
                self.metrics.queue_depth.inc();
                Ok(id)
            }
            Err(e) => {
                sync::lock(&self.registry).remove(&id);
                self.metrics.jobs_rejected.inc();
                Err(e)
            }
        }
    }

    /// A status snapshot, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let registry = sync::lock(&self.registry);
        registry.get(&id).map(|r| Self::snapshot(id, r))
    }

    fn snapshot(id: JobId, r: &JobRecord) -> JobStatus {
        let queue_seconds = match r.started {
            Some(t) => t.duration_since(r.submitted).as_secs_f64(),
            None => r.submitted.elapsed().as_secs_f64(),
        };
        let run_seconds = r.started.map(|s| match r.finished {
            Some(f) => f.duration_since(s).as_secs_f64(),
            None => s.elapsed().as_secs_f64(),
        });
        JobStatus {
            id,
            state: r.state,
            priority: r.spec.priority,
            attempts: r.attempts,
            queue_seconds,
            run_seconds,
            error: r.error.clone(),
            outcome: r.outcome.clone(),
        }
    }

    /// Cancel a queued job. Running or finished jobs are not touched;
    /// returns whether the job was cancelled.
    pub fn cancel(&self, id: JobId) -> bool {
        if !self.queue.remove(id) {
            return false;
        }
        let mut registry = sync::lock(&self.registry);
        let Some(record) = registry.get_mut(&id) else {
            return false;
        };
        record.state = JobState::Cancelled;
        record.finished = Some(Instant::now());
        drop(registry);
        self.metrics.queue_depth.dec();
        self.metrics.jobs_cancelled.inc();
        self.state_changed.notify_all();
        true
    }

    /// Block until the job reaches a terminal state (or the deadline
    /// passes), returning the final status.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut registry = sync::lock(&self.registry);
        loop {
            let status = registry.get(&id).map(|r| Self::snapshot(id, r))?;
            if status.state.is_terminal() {
                return Some(status);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(status);
            }
            let (guard, _) = sync::wait_timeout(&self.state_changed, registry, deadline - now);
            registry = guard;
        }
    }

    /// Consume a pending injected connection drop for `id`: `true` exactly
    /// once for a job whose fault plan carries `drop`, after which the
    /// connection behaves normally again.
    pub fn take_connection_fault(&self, id: JobId) -> bool {
        let fired = sync::lock(&self.connection_faults).remove(&id);
        if fired {
            self.metrics.connection_drops_injected.inc();
        }
        fired
    }

    /// Open a streaming session and account for it in the streaming
    /// metrics.
    pub fn stream_open(
        &self,
        reference: mdmp_data::MultiDimSeries,
        query: mdmp_data::MultiDimSeries,
        cfg: mdmp_core::MdmpConfig,
    ) -> Result<crate::session::SessionSummary, String> {
        let summary = self.sessions.open(reference, query, cfg)?;
        self.metrics.stream_opens.inc();
        self.metrics
            .stream_sessions_open
            .set(self.sessions.len() as i64);
        Ok(summary)
    }

    /// Append to a streaming session, folding the append's reuse accounting
    /// into the streaming metrics.
    pub fn stream_append(
        &self,
        id: crate::session::SessionId,
        side: crate::session::AppendSide,
        samples: &[Vec<f64>],
    ) -> Result<crate::session::AppendReport, String> {
        match self.sessions.append(id, side, samples) {
            Ok(report) => {
                self.metrics.stream_appends.inc();
                self.metrics.stream_append_seconds.observe(report.seconds);
                if report.reused_precalc {
                    self.metrics.stream_precalc_reuses.inc();
                }
                self.metrics
                    .stream_segments_reused
                    .add(report.reused_segments);
                self.metrics
                    .stream_segments_fresh
                    .add(report.fresh_segments);
                Ok(report)
            }
            Err(e) => {
                self.metrics.stream_append_failures.inc();
                Err(e)
            }
        }
    }

    /// Close a streaming session, keeping the open-sessions gauge in step.
    pub fn stream_close(&self, id: crate::session::SessionId) -> bool {
        let existed = self.sessions.close(id);
        self.metrics
            .stream_sessions_open
            .set(self.sessions.len() as i64);
        existed
    }

    /// A metrics snapshot.
    pub fn stats(&self) -> crate::metrics::ServiceStats {
        self.sync_cache_metrics();
        self.metrics.stats()
    }

    /// The Prometheus-style metrics page.
    pub fn metrics_text(&self) -> String {
        self.sync_cache_metrics();
        self.metrics.render_text()
    }

    fn sync_cache_metrics(&self) {
        let c = self.cache.stats();
        self.metrics.cache_bytes.set(c.bytes as i64);
        let seen = self.metrics.single_flight_waits.get();
        self.metrics
            .single_flight_waits
            .add(c.single_flight_waits.saturating_sub(seen));
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        // relaxed-ok: advisory flag; the authoritative shutdown signal is
        // the queue closing (mutex-ordered in JobQueue).
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Stop the service. With `drain = true` every admitted job still runs
    /// to completion; with `drain = false` queued jobs are cancelled and
    /// only in-flight ones finish. Blocks until all workers exit.
    pub fn shutdown(&self, drain: bool) {
        // relaxed-ok: advisory flag (see is_shutting_down).
        self.shutting_down.store(true, Ordering::Relaxed);
        if drain {
            self.queue.close();
        } else {
            let dropped = self.queue.close_and_drain();
            let mut registry = sync::lock(&self.registry);
            for id in dropped {
                if let Some(record) = registry.get_mut(&id) {
                    record.state = JobState::Cancelled;
                    record.finished = Some(Instant::now());
                    self.metrics.queue_depth.dec();
                    self.metrics.jobs_cancelled.inc();
                }
            }
            drop(registry);
            self.state_changed.notify_all();
        }
        let handles: Vec<_> = sync::lock(&self.workers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn worker_loop(&self) {
        while let Some(id) = self.queue.pop() {
            self.metrics.queue_depth.dec();
            // Claim: queued → running (skip if cancelled in between).
            let spec = {
                let mut registry = sync::lock(&self.registry);
                let Some(record) = registry.get_mut(&id) else {
                    continue;
                };
                if record.state != JobState::Queued {
                    continue;
                }
                record.state = JobState::Running;
                record.started = Some(Instant::now());
                record.spec.clone()
            };
            self.metrics.jobs_running.inc();
            self.state_changed.notify_all();
            let started = Instant::now();
            let queue_wait = {
                let registry = sync::lock(&self.registry);
                registry
                    .get(&id)
                    .map(|r| started.duration_since(r.submitted).as_secs_f64())
                    .unwrap_or(0.0)
            };
            self.metrics.queue_wait.observe(queue_wait);

            let result = self.run_with_retries(id, &spec);

            let finished = Instant::now();
            self.metrics
                .run_seconds
                .observe(finished.duration_since(started).as_secs_f64());
            self.metrics.jobs_running.dec();
            let mut registry = sync::lock(&self.registry);
            if let Some(record) = registry.get_mut(&id) {
                record.finished = Some(finished);
                match result {
                    Ok(outcome) => {
                        record.state = JobState::Done;
                        record.outcome = Some(outcome);
                        self.metrics.jobs_completed.inc();
                    }
                    Err(message) => {
                        record.state = JobState::Failed;
                        record.error = Some(message);
                        self.metrics.jobs_failed.inc();
                    }
                }
            }
            drop(registry);
            self.state_changed.notify_all();
        }
    }

    /// Execute a subset of a job's tiles synchronously on this node, on
    /// behalf of a cluster coordinator (the worker half of the tile-lease
    /// protocol, DESIGN.md §12). Bypasses the job queue — the coordinator
    /// owns scheduling — but leases devices from the same pool and shares
    /// the fingerprint-keyed precalc cache, so repeated shards of the same
    /// job reuse bit-identical precalc.
    pub fn execute_tile_subset(
        &self,
        spec: &JobSpec,
        tiles: &[usize],
    ) -> Result<TileSubsetRun, String> {
        self.metrics.tile_exec_requests.inc();
        let run = self.execute_tile_subset_inner(spec, tiles);
        match &run {
            Ok(run) => self.metrics.tiles_served.add(run.results.len() as u64),
            Err(_) => self.metrics.tile_exec_failures.inc(),
        }
        run
    }

    fn execute_tile_subset_inner(
        &self,
        spec: &JobSpec,
        tiles: &[usize],
    ) -> Result<TileSubsetRun, String> {
        if spec.gpus == 0 || spec.gpus > self.pool.total() {
            return Err(format!("gpus must be in 1..={}", self.pool.total()));
        }
        let (reference, query) = spec.materialize()?;
        let cfg = spec.config().with_host_workers(self.cfg.host_workers);
        let key = CacheKey::for_job(&reference, &query, spec.m, spec.mode, spec.tiles);
        let mut system = self.pool.lease(spec.gpus);
        self.metrics.devices_leased.add(spec.gpus as i64);
        let store = self.cache.store_for(key);
        let run = run_tile_subset(&reference, &query, &cfg, &mut system, Some(&store), tiles);
        self.metrics.devices_leased.add(-(spec.gpus as i64));
        self.pool.release(system);
        let run = run.map_err(|e| e.to_string())?;
        self.metrics.cache_hits.add(run.precalc_hits as u64);
        self.metrics.cache_misses.add(run.precalc_misses as u64);
        self.metrics.tile_retries.add(run.tile_retries);
        self.metrics
            .plane_validation_failures
            .add(run.plane_validation_failures);
        self.metrics
            .devices_quarantined
            .add(run.quarantined_devices.len() as u64);
        Ok(run)
    }

    fn run_with_retries(&self, id: JobId, spec: &JobSpec) -> Result<JobOutcome, String> {
        // Materialization failures (bad path, bad shape) are permanent —
        // no retry.
        let (reference, query) = spec.materialize()?;
        // Service-level host-worker setting applies to every job; `0`
        // leaves the core driver's auto resolution in charge.
        let cfg = spec.config().with_host_workers(self.cfg.host_workers);
        let key = CacheKey::for_job(&reference, &query, spec.m, spec.mode, spec.tiles);
        let job_deadline = spec.deadline_ms.map(Duration::from_millis);
        let job_start = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            {
                let mut registry = sync::lock(&self.registry);
                if let Some(record) = registry.get_mut(&id) {
                    record.attempts = attempt;
                }
            }
            let system = self.pool.lease(spec.gpus);
            self.metrics.devices_leased.add(spec.gpus as i64);
            let mut system = system;
            let store = self.cache.store_for(key.clone());
            let run = run_with_mode_cached(&reference, &query, &cfg, &mut system, Some(&store));
            self.metrics.devices_leased.add(-(spec.gpus as i64));
            self.pool.release(system);
            match run {
                Ok(run) => {
                    self.metrics.cache_hits.add(run.precalc_hits as u64);
                    self.metrics.cache_misses.add(run.precalc_misses as u64);
                    self.metrics.tile_retries.add(run.tile_retries);
                    self.metrics
                        .plane_validation_failures
                        .add(run.plane_validation_failures);
                    self.metrics
                        .devices_quarantined
                        .add(run.quarantined_devices.len() as u64);
                    self.metrics.host_workers.set(run.host_workers as i64);
                    self.metrics
                        .tc_chunk_k
                        .set(run.tc_chunk_k.unwrap_or(0) as i64);
                    self.metrics.pool_thread_reuses.add(run.pool_thread_reuses);
                    self.metrics.buffer_pool_reuses.add(run.buffer_pool_reuses);
                    self.metrics.buffer_pool_allocs.add(run.buffer_pool_allocs);
                    self.metrics.absorb_worker_busy(&run.worker_busy_seconds);
                    let cache = self.cache.stats();
                    self.metrics.cache_evictions.add(
                        cache.evictions - self.metrics.cache_evictions.get().min(cache.evictions),
                    );
                    self.metrics.absorb_ledger(&run.ledger);
                    return Ok(JobOutcome {
                        profile: Arc::new(run.profile),
                        modeled_seconds: run.modeled_seconds,
                        wall_seconds: run.wall_seconds,
                        precalc_hits: run.precalc_hits,
                        precalc_misses: run.precalc_misses,
                    });
                }
                Err(e) => {
                    if attempt > spec.max_retries {
                        return Err(e.to_string());
                    }
                    if let Some(deadline) = job_deadline {
                        let elapsed = job_start.elapsed();
                        if elapsed >= deadline {
                            return Err(format!(
                                "job deadline exceeded after {} ms ({} attempts); last error: {e}",
                                elapsed.as_millis(),
                                attempt
                            ));
                        }
                    }
                    self.metrics.jobs_retried.inc();
                    let backoff = self
                        .cfg
                        .retry_base
                        .saturating_mul(1 << (attempt - 1).min(16))
                        .min(self.cfg.retry_cap);
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobInput, Priority};
    use mdmp_data::MultiDimSeries;
    use mdmp_precision::PrecisionMode;

    fn pair(n: usize) -> (Arc<MultiDimSeries>, Arc<MultiDimSeries>) {
        let wave = |off: usize| {
            (0..n)
                .map(|t| ((t + off) as f64 * 0.17).sin() + 0.02 * (t % 11) as f64)
                .collect::<Vec<f64>>()
        };
        (
            Arc::new(MultiDimSeries::univariate(wave(0))),
            Arc::new(MultiDimSeries::univariate(wave(31))),
        )
    }

    fn quick_service(workers: usize, queue: usize) -> Arc<Service> {
        Service::start(ServiceConfig {
            workers,
            queue_capacity: queue,
            devices: workers.max(1),
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn submit_wait_done_round_trip() {
        let svc = quick_service(2, 8);
        let (r, q) = pair(96);
        let id = svc
            .submit(JobSpec::in_memory(r, q, 8, PrecisionMode::Fp64))
            .unwrap();
        let status = svc.wait(id, Duration::from_secs(30)).unwrap();
        assert_eq!(status.state, JobState::Done, "error: {:?}", status.error);
        let outcome = status.outcome.unwrap();
        assert_eq!(outcome.profile.n_query(), 89);
        assert_eq!(outcome.precalc_misses, 1);
        svc.shutdown(true);
    }

    #[test]
    fn invalid_specs_rejected_at_submission() {
        let svc = quick_service(1, 4);
        let (r, q) = pair(64);
        let mut spec = JobSpec::in_memory(r, q, 8, PrecisionMode::Fp64);
        spec.gpus = 99;
        assert!(matches!(
            svc.submit(spec.clone()),
            Err(SubmitError::BadSpec(_))
        ));
        spec.gpus = 1;
        spec.m = 1;
        assert!(matches!(svc.submit(spec), Err(SubmitError::BadSpec(_))));
        svc.shutdown(true);
    }

    #[test]
    fn materialization_failure_fails_the_job() {
        let svc = quick_service(1, 4);
        let id = svc
            .submit(JobSpec {
                input: JobInput::Csv {
                    reference: "/nonexistent/series.csv".into(),
                    query: None,
                },
                m: 8,
                mode: PrecisionMode::Fp64,
                tiles: 1,
                gpus: 1,
                priority: Priority::Normal,
                max_retries: 3,
                fault_plan: None,
                tile_retries: 2,
                fused_rows: None,
                tc_chunk_k: None,
                tile_deadline_ms: None,
                deadline_ms: None,
            })
            .unwrap();
        let status = svc.wait(id, Duration::from_secs(30)).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert!(status.error.is_some());
        // Materialization failures must not burn retries.
        assert_eq!(svc.stats().jobs_retried, 0);
        svc.shutdown(true);
    }

    #[test]
    fn unknown_job_status_is_none() {
        let svc = quick_service(1, 4);
        assert!(svc.status(12345).is_none());
        assert!(svc.wait(12345, Duration::from_millis(10)).is_none());
        svc.shutdown(true);
    }
}
