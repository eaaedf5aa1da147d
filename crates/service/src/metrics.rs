//! The service's observability surface: lock-free counters and gauges,
//! log-bucketed latency histograms, per-kernel-class device seconds folded
//! in from each job's [`mdmp_gpu_sim::CostLedger`], and two export forms —
//! a structured [`ServiceStats`] snapshot and a Prometheus-style text page.

use mdmp_gpu_sim::CostLedger;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        // relaxed-ok: a counter is an independent tally; readers only
        // need eventual totals, never cross-metric ordering.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // relaxed-ok: see inc
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // relaxed-ok: see inc
    }
}

/// An up/down gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Increment by one.
    pub fn inc(&self) {
        // relaxed-ok: a gauge is an independent reading; readers only
        // need eventual values, never cross-metric ordering.
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed); // relaxed-ok: see inc
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed); // relaxed-ok: see inc
    }

    /// Set to an absolute value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed); // relaxed-ok: see inc
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed) // relaxed-ok: see inc
    }
}

/// An atomically accumulated f64 (bit-packed in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct FloatSum(AtomicU64);

impl FloatSum {
    /// Add a value.
    pub fn add(&self, v: f64) {
        // relaxed-ok: the CAS loop already makes each accumulation
        // atomic; the sum is a reporting value with no ordering ties.
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self
                .0
                // relaxed-ok: see the load above.
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed)) // relaxed-ok: see add
    }
}

/// A byte tally labeled by (encoding, op) — the wire layer's traffic
/// accounting. A `BTreeMap` keeps the rendered label order deterministic.
#[derive(Debug, Default)]
pub struct LabeledBytes {
    map: Mutex<BTreeMap<(&'static str, &'static str), u64>>,
}

impl LabeledBytes {
    /// Add `bytes` under the (encoding, op) label pair.
    pub fn add(&self, encoding: &'static str, op: &'static str, bytes: u64) {
        let mut map = self.map.lock().unwrap();
        *map.entry((encoding, op)).or_insert(0) += bytes;
    }

    /// Total bytes across all labels.
    pub fn total(&self) -> u64 {
        self.map.lock().unwrap().values().sum()
    }

    /// All (encoding, op, bytes) rows in deterministic label order.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, u64)> {
        self.map
            .lock()
            .unwrap()
            .iter()
            .map(|(&(enc, op), &bytes)| (enc, op, bytes))
            .collect()
    }

    fn render(&self, out: &mut String, name: &str) {
        out.push_str(&format!("# TYPE {name} counter\n"));
        for (enc, op, bytes) in self.rows() {
            out.push_str(&format!(
                "{name}{{encoding=\"{enc}\",op=\"{op}\"}} {bytes}\n"
            ));
        }
    }
}

/// Histogram bucket upper bounds in seconds: 1-3 steps per decade from 1 µs
/// to 100 s, plus +Inf.
pub const LATENCY_BOUNDS: [f64; 17] = [
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
    100.0,
];

/// A fixed-bucket latency histogram (cumulative, Prometheus-style).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: FloatSum,
    count: Counter,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..LATENCY_BOUNDS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum: FloatSum::default(),
            count: Counter::default(),
        }
    }
}

impl Histogram {
    /// Record one observation in seconds.
    pub fn observe(&self, seconds: f64) {
        for (i, bound) in LATENCY_BOUNDS.iter().enumerate() {
            if seconds <= *bound {
                // relaxed-ok: bucket tallies are reporting-only; the page
                // renderer tolerates a mid-observation snapshot.
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        self.sum.add(seconds);
        self.count.inc();
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of observations in seconds.
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Mean observation, or 0 with no data.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    fn render(&self, out: &mut String, name: &str) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BOUNDS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed); // relaxed-ok: see observe
            out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
            self.count(),
            self.sum(),
            self.count()
        ));
    }
}

/// All metrics of a running service.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Jobs accepted into the queue.
    pub jobs_submitted: Counter,
    /// Jobs rejected by admission control (queue full).
    pub jobs_rejected: Counter,
    /// Jobs that finished successfully.
    pub jobs_completed: Counter,
    /// Jobs that exhausted their retries.
    pub jobs_failed: Counter,
    /// Jobs cancelled before execution.
    pub jobs_cancelled: Counter,
    /// Retry attempts across all jobs.
    pub jobs_retried: Counter,
    /// Jobs waiting in the queue right now.
    pub queue_depth: Gauge,
    /// Jobs executing right now.
    pub jobs_running: Gauge,
    /// Devices currently leased from the pool.
    pub devices_leased: Gauge,
    /// Precalc cache lookups that hit.
    pub cache_hits: Counter,
    /// Precalc cache lookups that missed.
    pub cache_misses: Counter,
    /// Precalc cache entries evicted by the byte budget.
    pub cache_evictions: Counter,
    /// Bytes currently held by the precalc cache.
    pub cache_bytes: Gauge,
    /// Concurrent precalc misses coalesced by the cache's single-flight
    /// path (followers that waited instead of recomputing).
    pub single_flight_waits: Counter,
    /// Host worker threads used by the most recent run.
    pub host_workers: Gauge,
    /// Tiles executed on reused (already-allocated) plane buffers.
    pub buffer_pool_reuses: Counter,
    /// Fresh plane-buffer allocations (at most one per host worker per
    /// run).
    pub buffer_pool_allocs: Counter,
    /// Tile attempts that failed and were retried inside runs (fault
    /// injection or genuine kernel failures).
    pub tile_retries: Counter,
    /// MMA accumulator chunk width of the most recent run (0 when the run
    /// used a vector mode instead of the simulated tensor cores).
    pub tc_chunk_k: Gauge,
    /// Pool dispatches served entirely by already-running persistent-pool
    /// threads, accumulated over all runs.
    pub pool_thread_reuses: Counter,
    /// Result planes rejected by the NaN/Inf/bound validation gate.
    pub plane_validation_failures: Counter,
    /// Simulated devices quarantined by the health ledger across all runs.
    pub devices_quarantined: Counter,
    /// Client connections dropped mid-job by an injected fault plan.
    pub connection_drops_injected: Counter,
    /// `tile_exec` requests served for a cluster coordinator.
    pub tile_exec_requests: Counter,
    /// Tiles executed on behalf of a cluster coordinator.
    pub tiles_served: Counter,
    /// `tile_exec` requests that failed (bad spec or exhausted retries).
    pub tile_exec_failures: Counter,
    /// Streaming sessions opened.
    pub stream_opens: Counter,
    /// Streaming appends applied.
    pub stream_appends: Counter,
    /// Streaming appends rejected (bad shape, unknown session, or tile
    /// failure).
    pub stream_append_failures: Counter,
    /// Appends that reused a cached per-session precalculation unit.
    pub stream_precalc_reuses: Counter,
    /// Statistics segments served from session side caches instead of
    /// recomputed.
    pub stream_segments_reused: Counter,
    /// Statistics segments computed fresh for append delta windows.
    pub stream_segments_fresh: Counter,
    /// Streaming sessions open right now.
    pub stream_sessions_open: Gauge,
    /// Wall time per streaming append — its mean is the amortized append
    /// cost.
    pub stream_append_seconds: Histogram,
    /// Bytes written to client sockets, labeled by encoding and op.
    pub wire_bytes_sent: LabeledBytes,
    /// Bytes read from client sockets, labeled by encoding and op.
    pub wire_bytes_received: LabeledBytes,
    /// Connections currently upgraded to the binary frame protocol.
    pub wire_binary_sessions: Gauge,
    /// Binary frames rejected for checksum/decode/framing failures.
    pub wire_frame_errors: Counter,
    /// Queue wait (submit → start) per job.
    pub queue_wait: Histogram,
    /// Execution time (start → finish) per job.
    pub run_seconds: Histogram,
    /// Modelled device seconds per kernel class, accumulated over all jobs.
    kernel_seconds: Mutex<BTreeMap<&'static str, f64>>,
    /// Busy seconds per host-worker slot, accumulated over all runs.
    worker_busy_seconds: Mutex<Vec<f64>>,
}

impl MetricsRegistry {
    /// Fold a finished job's per-kernel-class device seconds into the
    /// running totals.
    pub fn absorb_ledger(&self, ledger: &CostLedger) {
        let mut map = self.kernel_seconds.lock().unwrap();
        for (class, entry) in ledger.rows() {
            *map.entry(class.label()).or_insert(0.0) += entry.seconds;
        }
    }

    /// Per-kernel-class device seconds accumulated so far.
    pub fn kernel_seconds(&self) -> BTreeMap<&'static str, f64> {
        self.kernel_seconds.lock().unwrap().clone()
    }

    /// Fold one run's per-worker busy seconds into the per-slot totals
    /// (the vector grows to the largest worker count seen).
    pub fn absorb_worker_busy(&self, busy: &[f64]) {
        let mut slots = self.worker_busy_seconds.lock().unwrap();
        if slots.len() < busy.len() {
            slots.resize(busy.len(), 0.0);
        }
        for (slot, b) in busy.iter().enumerate() {
            slots[slot] += b;
        }
    }

    /// Busy seconds accumulated per host-worker slot.
    pub fn worker_busy_seconds(&self) -> Vec<f64> {
        self.worker_busy_seconds.lock().unwrap().clone()
    }

    /// Cache hit rate in [0, 1] (0 with no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.get();
        let total = hits + self.cache_misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Render the Prometheus-style text exposition page.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let counters: [(&str, &Counter); 27] = [
            ("mdmp_jobs_submitted_total", &self.jobs_submitted),
            ("mdmp_jobs_rejected_total", &self.jobs_rejected),
            ("mdmp_jobs_completed_total", &self.jobs_completed),
            ("mdmp_jobs_failed_total", &self.jobs_failed),
            ("mdmp_jobs_cancelled_total", &self.jobs_cancelled),
            ("mdmp_jobs_retried_total", &self.jobs_retried),
            ("mdmp_precalc_cache_hits_total", &self.cache_hits),
            ("mdmp_precalc_cache_misses_total", &self.cache_misses),
            ("mdmp_precalc_cache_evictions_total", &self.cache_evictions),
            (
                "mdmp_precalc_single_flight_waits_total",
                &self.single_flight_waits,
            ),
            ("mdmp_buffer_pool_reuses_total", &self.buffer_pool_reuses),
            ("mdmp_buffer_pool_allocs_total", &self.buffer_pool_allocs),
            ("mdmp_tile_retries_total", &self.tile_retries),
            ("mdmp_pool_thread_reuses_total", &self.pool_thread_reuses),
            (
                "mdmp_plane_validation_failures_total",
                &self.plane_validation_failures,
            ),
            ("mdmp_device_quarantined", &self.devices_quarantined),
            (
                "mdmp_connection_drops_injected_total",
                &self.connection_drops_injected,
            ),
            ("mdmp_tile_exec_requests_total", &self.tile_exec_requests),
            ("mdmp_tiles_served_total", &self.tiles_served),
            ("mdmp_tile_exec_failures_total", &self.tile_exec_failures),
            ("mdmp_stream_opens_total", &self.stream_opens),
            ("mdmp_stream_appends_total", &self.stream_appends),
            (
                "mdmp_stream_append_failures_total",
                &self.stream_append_failures,
            ),
            (
                "mdmp_stream_precalc_reuses_total",
                &self.stream_precalc_reuses,
            ),
            (
                "mdmp_stream_segments_reused_total",
                &self.stream_segments_reused,
            ),
            (
                "mdmp_stream_segments_fresh_total",
                &self.stream_segments_fresh,
            ),
            ("mdmp_wire_frame_errors_total", &self.wire_frame_errors),
        ];
        for (name, c) in counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
        }
        let gauges: [(&str, &Gauge); 8] = [
            ("mdmp_queue_depth", &self.queue_depth),
            ("mdmp_jobs_running", &self.jobs_running),
            ("mdmp_devices_leased", &self.devices_leased),
            ("mdmp_precalc_cache_bytes", &self.cache_bytes),
            ("mdmp_host_workers", &self.host_workers),
            ("mdmp_tc_chunk_k", &self.tc_chunk_k),
            ("mdmp_stream_sessions_open", &self.stream_sessions_open),
            ("mdmp_wire_binary_sessions", &self.wire_binary_sessions),
        ];
        for (name, g) in gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
        }
        self.wire_bytes_sent
            .render(&mut out, "mdmp_wire_bytes_sent_total");
        self.wire_bytes_received
            .render(&mut out, "mdmp_wire_bytes_received_total");
        out.push_str("# TYPE mdmp_host_worker_busy_seconds_total counter\n");
        for (slot, busy) in self.worker_busy_seconds().into_iter().enumerate() {
            out.push_str(&format!(
                "mdmp_host_worker_busy_seconds_total{{worker=\"{slot}\"}} {busy}\n"
            ));
        }
        self.queue_wait
            .render(&mut out, "mdmp_job_queue_wait_seconds");
        self.run_seconds.render(&mut out, "mdmp_job_run_seconds");
        self.stream_append_seconds
            .render(&mut out, "mdmp_stream_append_seconds");
        out.push_str("# TYPE mdmp_kernel_seconds_total counter\n");
        for (label, seconds) in self.kernel_seconds() {
            out.push_str(&format!(
                "mdmp_kernel_seconds_total{{class=\"{label}\"}} {seconds}\n"
            ));
        }
        out
    }

    /// A structured snapshot of the registry.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            jobs_submitted: self.jobs_submitted.get(),
            jobs_rejected: self.jobs_rejected.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_failed: self.jobs_failed.get(),
            jobs_cancelled: self.jobs_cancelled.get(),
            jobs_retried: self.jobs_retried.get(),
            queue_depth: self.queue_depth.get().max(0) as u64,
            jobs_running: self.jobs_running.get().max(0) as u64,
            devices_leased: self.devices_leased.get().max(0) as u64,
            precalc_cache_hits: self.cache_hits.get(),
            precalc_cache_misses: self.cache_misses.get(),
            precalc_cache_evictions: self.cache_evictions.get(),
            precalc_cache_bytes: self.cache_bytes.get().max(0) as u64,
            precalc_cache_hit_rate: self.cache_hit_rate(),
            precalc_single_flight_waits: self.single_flight_waits.get(),
            host_workers: self.host_workers.get().max(0) as u64,
            buffer_pool_reuses: self.buffer_pool_reuses.get(),
            buffer_pool_allocs: self.buffer_pool_allocs.get(),
            tile_retries: self.tile_retries.get(),
            tc_chunk_k: self.tc_chunk_k.get().max(0) as u64,
            pool_thread_reuses: self.pool_thread_reuses.get(),
            plane_validation_failures: self.plane_validation_failures.get(),
            devices_quarantined: self.devices_quarantined.get(),
            connection_drops_injected: self.connection_drops_injected.get(),
            tile_exec_requests: self.tile_exec_requests.get(),
            tiles_served: self.tiles_served.get(),
            tile_exec_failures: self.tile_exec_failures.get(),
            stream_opens: self.stream_opens.get(),
            stream_appends: self.stream_appends.get(),
            stream_append_failures: self.stream_append_failures.get(),
            stream_precalc_reuses: self.stream_precalc_reuses.get(),
            stream_segments_reused: self.stream_segments_reused.get(),
            stream_segments_fresh: self.stream_segments_fresh.get(),
            stream_sessions_open: self.stream_sessions_open.get().max(0) as u64,
            wire_bytes_sent: self.wire_bytes_sent.total(),
            wire_bytes_received: self.wire_bytes_received.total(),
            wire_binary_sessions: self.wire_binary_sessions.get().max(0) as u64,
            wire_frame_errors: self.wire_frame_errors.get(),
            mean_stream_append_seconds: self.stream_append_seconds.mean(),
            worker_busy_seconds: self.worker_busy_seconds(),
            mean_queue_wait_seconds: self.queue_wait.mean(),
            mean_run_seconds: self.run_seconds.mean(),
            kernel_seconds: self
                .kernel_seconds()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// A point-in-time snapshot of the service's metrics, exposed both
/// in-process and over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs rejected by admission control.
    pub jobs_rejected: u64,
    /// Jobs completed successfully.
    pub jobs_completed: u64,
    /// Jobs failed after retries.
    pub jobs_failed: u64,
    /// Jobs cancelled.
    pub jobs_cancelled: u64,
    /// Retry attempts.
    pub jobs_retried: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Currently running jobs.
    pub jobs_running: u64,
    /// Currently leased devices.
    pub devices_leased: u64,
    /// Precalc cache hits.
    pub precalc_cache_hits: u64,
    /// Precalc cache misses.
    pub precalc_cache_misses: u64,
    /// Precalc cache evictions.
    pub precalc_cache_evictions: u64,
    /// Precalc cache size in bytes.
    pub precalc_cache_bytes: u64,
    /// Hit rate in [0, 1].
    pub precalc_cache_hit_rate: f64,
    /// Concurrent misses coalesced by the cache's single-flight path.
    pub precalc_single_flight_waits: u64,
    /// Host worker threads used by the most recent run.
    pub host_workers: u64,
    /// Tiles executed on reused plane buffers.
    pub buffer_pool_reuses: u64,
    /// Fresh plane-buffer allocations.
    pub buffer_pool_allocs: u64,
    /// Tile attempts retried inside runs.
    pub tile_retries: u64,
    /// MMA accumulator chunk width of the most recent run (0 = vector
    /// mode).
    pub tc_chunk_k: u64,
    /// Pool dispatches served by already-running persistent-pool threads.
    pub pool_thread_reuses: u64,
    /// Result planes rejected by the validation gate.
    pub plane_validation_failures: u64,
    /// Devices quarantined by the health ledger.
    pub devices_quarantined: u64,
    /// Connections dropped mid-job by injected fault plans.
    pub connection_drops_injected: u64,
    /// `tile_exec` requests served for a cluster coordinator.
    pub tile_exec_requests: u64,
    /// Tiles executed on behalf of a cluster coordinator.
    pub tiles_served: u64,
    /// `tile_exec` requests that failed.
    pub tile_exec_failures: u64,
    /// Streaming sessions opened.
    pub stream_opens: u64,
    /// Streaming appends applied.
    pub stream_appends: u64,
    /// Streaming appends rejected.
    pub stream_append_failures: u64,
    /// Appends that reused a cached per-session precalculation unit.
    pub stream_precalc_reuses: u64,
    /// Statistics segments served from session side caches.
    pub stream_segments_reused: u64,
    /// Statistics segments computed fresh for append delta windows.
    pub stream_segments_fresh: u64,
    /// Streaming sessions open right now.
    pub stream_sessions_open: u64,
    /// Bytes written to client sockets across both wire encodings.
    pub wire_bytes_sent: u64,
    /// Bytes read from client sockets across both wire encodings.
    pub wire_bytes_received: u64,
    /// Connections currently upgraded to the binary frame protocol.
    pub wire_binary_sessions: u64,
    /// Binary frames rejected for checksum/decode/framing failures.
    pub wire_frame_errors: u64,
    /// Mean streaming append wall time — the amortized append cost.
    pub mean_stream_append_seconds: f64,
    /// Busy seconds accumulated per host-worker slot.
    pub worker_busy_seconds: Vec<f64>,
    /// Mean queue wait in seconds.
    pub mean_queue_wait_seconds: f64,
    /// Mean job execution time in seconds.
    pub mean_run_seconds: f64,
    /// Modelled device seconds per kernel class.
    pub kernel_seconds: Vec<(String, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_accumulate() {
        let h = Histogram::default();
        h.observe(2e-6);
        h.observe(5e-4);
        h.observe(50.0);
        h.observe(1e9); // beyond the last bound: counted, no bucket
        assert_eq!(h.count(), 4);
        assert!(h.sum() > 50.0);
        let mut text = String::new();
        h.render(&mut text, "t");
        assert!(text.contains("t_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("t_count 4"));
    }

    #[test]
    fn float_sum_accumulates_under_contention() {
        let s = FloatSum::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.add(0.5);
                    }
                });
            }
        });
        assert_eq!(s.get(), 2000.0);
    }

    #[test]
    fn stats_snapshot_and_text_agree() {
        let m = MetricsRegistry::default();
        m.jobs_submitted.add(3);
        m.jobs_rejected.inc();
        m.cache_hits.add(2);
        m.cache_misses.add(2);
        m.queue_depth.set(1);
        m.stream_opens.inc();
        m.stream_appends.add(4);
        m.stream_sessions_open.set(2);
        m.stream_append_seconds.observe(0.02);
        let stats = m.stats();
        assert_eq!(stats.jobs_submitted, 3);
        assert_eq!(stats.precalc_cache_hit_rate, 0.5);
        assert_eq!(stats.stream_appends, 4);
        assert_eq!(stats.stream_sessions_open, 2);
        assert!(stats.mean_stream_append_seconds > 0.0);
        let text = m.render_text();
        assert!(text.contains("mdmp_jobs_submitted_total 3"));
        assert!(text.contains("mdmp_jobs_rejected_total 1"));
        assert!(text.contains("mdmp_queue_depth 1"));
        assert!(text.contains("mdmp_stream_appends_total 4"));
        assert!(text.contains("mdmp_stream_sessions_open 2"));
        assert!(text.contains("mdmp_stream_append_seconds_count 1"));
    }
}
