//! # perfbench
//!
//! The repository benchmark: three closed-loop workloads driven through
//! the public functions of `mdmp-core`, `mdmp-service` and
//! `mdmp-cluster`, each op's output checked. The untraced run prints the
//! end-to-end metrics; the traced run (`--trace 1`) prints per-layer
//! metrics from spans the benchmark records around its calls into each
//! layer. See `perfbench/README.md`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod host;
pub mod metrics;
pub mod micro;
pub mod stats;
pub mod trace;
pub mod workloads;

use crate::trace::Tracer;
use crate::workloads::batch::Batch;
use crate::workloads::cluster::Cluster;
use crate::workloads::stream::Stream;
use crate::workloads::{OpFacts, Shape, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["batch-fp32", "stream-append", "cluster-2node"];

/// Timed set-ups per untraced run; the median is `setup_s`.
pub const SETUPS: usize = 9;

/// Fewest ops a timed loop runs, so the tail percentile exists and lies
/// above the median.
pub const MIN_OPS: u64 = 2 * stats::TAIL_SAMPLES_BEYOND as u64;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds the closed loop runs.
    pub seconds: f64,
    /// Run the traced mode and print per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--trace-dir <dir>]`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let trace_dir = trace_dir.unwrap_or_else(|| {
        let target =
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        PathBuf::from(target).join("perfbench-traces")
    });
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_dir,
    })
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every op and every whole-run check passed.
    pub correct: bool,
    /// Ops attempted, set-up warm-ups excluded.
    pub attempted: u64,
    /// Ops that failed or failed their check.
    pub failed: u64,
    /// Metric name and value, in print order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The run record: host, configuration, seed, calibration.
    pub info: Vec<(String, String)>,
    /// Why the run is not correct.
    pub errors: Vec<String>,
}

impl Report {
    fn fail(&mut self, error: impl Into<String>) {
        self.correct = false;
        self.errors.push(error.into());
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    metrics::unit(name).unwrap_or("")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run the benchmark described by `args` at `shape`.
pub fn run(args: &Args, shape: Shape) -> Report {
    match args.workload.as_str() {
        "batch-fp32" => drive(Batch::new(shape, args.seed), args),
        "stream-append" => drive(Stream::new(shape, args.seed), args),
        _ => drive(Cluster::new(shape, args.seed), args),
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
struct LoopOut {
    latencies: Vec<f64>,
    facts: Vec<OpFacts>,
    attempted: u64,
    failed: u64,
    cpu_s: f64,
    error: Option<String>,
}

/// Run untraced ops back to back for `seconds` (and at least
/// [`MIN_OPS`]), timing each op at the caller and checking it outside
/// the timed region. Stops at the first failure.
fn closed_loop<W: Workload>(w: &W, fx: &mut W::Fixture, seconds: f64) -> LoopOut {
    let mut out = LoopOut::default();
    let start = Instant::now();
    while out.attempted < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let result = w.op(fx);
        let latency = t0.elapsed().as_secs_f64();
        out.cpu_s += host::cpu_seconds() - cpu0;
        match result.and_then(|o| w.check(fx, o)) {
            Ok(facts) => {
                out.latencies.push(latency);
                out.facts.push(facts);
            }
            Err(e) => {
                out.failed += 1;
                out.error = Some(format!("op {}: {e}", out.attempted));
                break;
            }
        }
    }
    out
}

fn drive<W: Workload>(mut w: W, args: &Args) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note("host_cores", host::cores());
    report.note("kernel_pool_width", rayon::current_num_threads());
    for (key, value) in w.describe() {
        report.note(key, value);
    }
    if let Err(e) = w.prepare() {
        report.fail(format!("prepare: {e}"));
        return report;
    }
    if args.trace {
        traced(&w, args, &mut report);
    } else {
        untraced(&w, args, &mut report);
    }
    let infinite: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, value)| !value.is_finite())
        .map(|(name, _)| format!("metric {name} is not finite"))
        .collect();
    for msg in infinite {
        report.fail(msg);
    }
    report
}

fn untraced<W: Workload>(w: &W, args: &Args, report: &mut Report) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        // Tear the previous fixture down before timing the next set-up.
        drop(fixture.take());
        let t0 = Instant::now();
        match w.setup() {
            Ok(fx) => fixture = Some(fx),
            Err(e) => return report.fail(format!("setup: {e}")),
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Some(mut fx) = fixture else {
        return report.fail("no set-up ran");
    };
    let calib_before = host::calib_rate();
    let run = closed_loop(w, &mut fx, args.seconds);
    let calib_after = host::calib_rate();
    report.attempted = run.attempted;
    report.failed = run.failed;
    if let Some(e) = run.error {
        report.fail(e);
    }
    if let Err(e) = w.finish(&mut fx) {
        report.fail(format!("finish: {e}"));
    }
    let recall = w.recall_pct(&fx).unwrap_or_else(|e| {
        report.fail(format!("recall: {e}"));
        0.0
    });
    drop(fx);
    report.note("calib_rate_before", calib_before);
    report.note("calib_rate_after", calib_after);
    report.note("setup_samples", format!("{setups:?}"));
    report.note("ops", run.latencies.len());
    report.note(
        "error_pct",
        workloads::pct(run.failed as f64, run.attempted as f64),
    );
    let tail = stats::tail(&run.latencies);
    match tail {
        Some(t) => report.note(
            "latency_tail",
            format!("p{:.2} over {} samples", t.percentile, t.samples),
        ),
        None => report.fail("too few successful ops for a tail percentile"),
    }
    let ops = run.latencies.len().max(1) as f64;
    let cells: u64 = run.facts.iter().map(|f| f.cells).sum();
    let busy: f64 = run.latencies.iter().sum();
    let modelled: Vec<f64> = run.facts.iter().map(|f| f.modelled_s).collect();
    report.metrics = vec![
        ("cells_per_s", cells as f64 / busy.max(f64::MIN_POSITIVE)),
        ("latency_p50_s", stats::median(&run.latencies)),
        ("latency_tail_s", tail.map_or(0.0, |t| t.value)),
        ("cpu_s_per_op", run.cpu_s / ops),
        ("setup_s", stats::median(&setups)),
        ("peak_rss_mb", host::peak_rss_mib()),
        ("recall_pct", recall),
        ("modelled_s_per_op", stats::median(&modelled)),
    ];
}

fn traced<W: Workload>(w: &W, args: &Args, report: &mut Report) {
    let mut fx = match w.setup() {
        Ok(fx) => fx,
        Err(e) => return report.fail(format!("setup: {e}")),
    };
    let calib_before = host::calib_rate();
    let plain = closed_loop(w, &mut fx, args.seconds / 2.0);
    report.attempted = plain.attempted;
    report.failed = plain.failed;
    if let Some(e) = plain.error {
        return report.fail(e);
    }
    let tracer = Tracer::new();
    let start = Instant::now();
    let mut op = 0u64;
    while op < MIN_OPS || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        op += 1;
        report.attempted += 1;
        if let Err(e) = w.traced_op(&mut fx, &tracer, op) {
            report.failed += 1;
            return report.fail(format!("traced op {op}: {e}"));
        }
    }
    let breakdown = match tracer.breakdown(W::ROOT) {
        Ok(b) => b,
        Err(e) => return report.fail(format!("trace reconciliation: {e}")),
    };
    if breakdown.len() as u64 != op {
        return report.fail(format!(
            "{} of {op} traced ops have a root span",
            breakdown.len()
        ));
    }
    let layers = match w.layer_metrics(&mut fx, &plain.facts, &breakdown, &tracer) {
        Ok(layers) => layers,
        Err(e) => return report.fail(format!("layer metrics: {e}")),
    };
    if let Err(e) = w.finish(&mut fx) {
        report.fail(format!("finish: {e}"));
    }
    drop(fx);
    let (half_add, half_mul, to_half) = micro::precision_ns();
    let calib_after = host::calib_rate();
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note("trace_file", path.display()),
        Err(e) => report.fail(format!("write {}: {e}", path.display())),
    }
    report.note("calib_rate_before", calib_before);
    report.note("calib_rate_after", calib_after);
    report.note("untraced_ops", plain.latencies.len());
    report.note("traced_ops", op);
    let plain_p50 = stats::median(&plain.latencies);
    let traced_p50 = stats::median(&breakdown.iter().map(|b| b.latency).collect::<Vec<_>>());
    let mut values: Vec<(&'static str, f64)> = vec![
        ("precision.half_add_ns", half_add),
        ("precision.half_mul_ns", half_mul),
        ("precision.f64_to_half_ns", to_half),
        ("host.calib_rate", (calib_before + calib_after) / 2.0),
        (
            "trace.overhead_pct",
            100.0 * (traced_p50 - plain_p50) / plain_p50.max(f64::MIN_POSITIVE),
        ),
    ];
    values.extend(layers);
    if let Some((name, _)) = values.iter().find(|(n, _)| metrics::unit(n).is_none()) {
        return report.fail(format!("layer metric {name} is not listed"));
    }
    report.metrics = metrics::PER_LAYER
        .iter()
        .map(|(name, _)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (*name, value)
        })
        .collect();
}
