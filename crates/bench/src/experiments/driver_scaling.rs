//! Host pipeline scaling: the tile pipeline across worker counts.
//!
//! For each worker count in {1, 2, 4, N} the ≥16-tile functional workload
//! runs through the one row pipeline (fused rows for this FP32 workload)
//! and reports real wall-clock, the speedup over one worker, and the pool
//! accounting. The bench asserts that the profile is bit-identical and the
//! modelled device time unchanged across worker counts: the worker pool
//! changes host wall-clock only, never the simulated schedule.
//!
//! These are *measured* numbers: the attainable speedup depends on the
//! machine running the benchmark (`host_cores` in the emitted JSON). On a
//! single-core container the parallel runs cannot beat the sequential one
//! and the table records that honestly.

use crate::report::{BenchReport, BenchValue, ExperimentTable};
use mdmp_core::{run_with_mode, MdmpConfig, MdmpRun};
use mdmp_data::synthetic::{generate_pair, SyntheticConfig};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_precision::PrecisionMode;
use std::io;
use std::path::{Path, PathBuf};

/// Worker counts to sweep (the final entry is the host's parallelism).
pub fn worker_sweep() -> Vec<usize> {
    let n = host_cores();
    let mut sweep = vec![1, 2, 4];
    if !sweep.contains(&n) {
        sweep.push(n);
    }
    sweep
}

/// Logical cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn workload(quick: bool) -> (MultiDimSeries, MultiDimSeries) {
    let m = 32;
    let cfg = SyntheticConfig {
        n_subsequences: if quick { 256 } else { 1024 },
        dims: if quick { 4 } else { 8 },
        m,
        pattern: mdmp_data::Pattern::Sine,
        embeddings: if quick { 2 } else { 4 },
        noise: 0.3,
        pattern_amplitude: 1.0,
        seed: 2022,
    };
    let pair = generate_pair(&cfg);
    (pair.reference, pair.query)
}

/// One measured configuration: best-of-`repeats` wall clock for a worker
/// count on the 16-tile FP32 acceptance workload.
fn timed_run(r: &MultiDimSeries, q: &MultiDimSeries, workers: usize, repeats: usize) -> MdmpRun {
    // 16 tiles (the acceptance workload) on 4 simulated devices.
    let cfg = MdmpConfig::new(32, PrecisionMode::Fp32)
        .with_tiles(16)
        .with_host_workers(workers);
    let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 4);
    let mut best: Option<MdmpRun> = None;
    for _ in 0..repeats {
        let run = run_with_mode(r, q, &cfg, &mut sys).expect("scaling run failed");
        if best
            .as_ref()
            .map(|b| run.wall_seconds < b.wall_seconds)
            .unwrap_or(true)
        {
            best = Some(run);
        }
    }
    best.expect("at least one repeat")
}

/// The `driver_scaling` experiment: wall-clock per worker count. Panics if
/// any worker count changes the profile or the modelled schedule — the
/// bench doubles as an end-to-end determinism check.
pub fn driver_scaling(quick: bool) -> ExperimentTable {
    // Let the pool actually grow past the container's core count: on a
    // narrow (1-core) host the vendored pool otherwise caps every run at
    // one inline worker, so `pool_thread_reuses` would read 0 and the
    // sweep would not exercise reuse at all (the PR 4 artifact bug).
    rayon::set_global_threads(host_cores().max(2));
    let (r, q) = workload(quick);
    let repeats = if quick { 1 } else { 3 };
    let mut table = ExperimentTable::new(
        "driver_scaling",
        &format!(
            "host wall-clock per worker count, 16-tile FP32 workload on {} host cores \
             (best of {repeats}); profile and modelled device time are invariant",
            host_cores()
        ),
        &[
            "workers",
            "wall_seconds",
            "speedup_vs_1",
            "modeled_s",
            "pool_reuses",
            "busy_max_s",
        ],
    );
    // The sweep starts at one worker: that run is the reference.
    let runs: Vec<(usize, MdmpRun)> = worker_sweep()
        .into_iter()
        .map(|workers| (workers, timed_run(&r, &q, workers, repeats)))
        .collect();
    let base = &runs[0].1;
    for (workers, run) in &runs {
        assert_eq!(
            run.profile, base.profile,
            "{workers} workers: profile must be bit-identical to 1 worker"
        );
        assert_eq!(
            run.modeled_seconds.to_bits(),
            base.modeled_seconds.to_bits(),
            "{workers} workers: the pool must not change the modelled schedule"
        );
        // A multi-worker run over ≥16 tiles dispatches many times per
        // worker; if no thread was ever reused the pool is broken (or
        // silently capped) and the wall-clock column is meaningless.
        if *workers >= 2 {
            assert!(
                run.pool_thread_reuses > 0,
                "{workers} workers: pool recorded zero thread reuses"
            );
        }
        let busy_max = run.worker_busy_seconds.iter().copied().fold(0.0, f64::max);
        table.push(
            workers.to_string(),
            vec![
                run.wall_seconds,
                base.wall_seconds / run.wall_seconds,
                run.modeled_seconds,
                run.pool_thread_reuses as f64,
                busy_max,
            ],
        );
    }
    rayon::set_global_threads(0);
    table
}

/// Serialize the scaling table as `BENCH_PR4.json` (pass the repo root's
/// `BENCH_PR4.json` to commit it), through the shared [`BenchReport`]
/// schema. The JSON records the host core count so the numbers are
/// interpretable off-machine.
pub fn write_bench_json(table: &ExperimentTable, path: &Path) -> io::Result<PathBuf> {
    let mut report = BenchReport::new("driver_scaling", &table.description)
        .workload("tiles", BenchValue::int(16))
        .workload("mode", BenchValue::str("fp32"))
        .workload("devices", BenchValue::int(4));
    report.host_cores = host_cores();
    // Cross-reference the committed PR 2 baseline (spawn-per-dispatch,
    // unfused) when it sits next to the output file, so the headline
    // "fused+pooled vs PR 2" ratio is recorded in the artifact itself.
    let baseline = path
        .parent()
        .map(|dir| dir.join("BENCH_PR2.json"))
        .filter(|p| p.exists())
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|text| pr2_single_worker_wall(&text));
    if let (Some(pr2_wall), Some((_, cells))) =
        (baseline, table.rows.iter().find(|(l, _)| l == "1"))
    {
        report = report.extra_block(
            "pr2_unfused_baseline",
            vec![
                ("wall_seconds".to_string(), BenchValue::secs(pr2_wall)),
                (
                    "fused_speedup_vs_pr2".to_string(),
                    BenchValue::ratio(pr2_wall / cells[0]),
                ),
            ],
        );
    }
    for (workers, cells) in &table.rows {
        report.push_result(vec![
            (
                "workers".to_string(),
                BenchValue::int(workers.parse().unwrap_or(1)),
            ),
            ("wall_seconds".to_string(), BenchValue::secs(cells[0])),
            ("speedup_vs_1".to_string(), BenchValue::ratio(cells[1])),
            ("modeled_seconds".to_string(), BenchValue::secs(cells[2])),
            (
                "pool_thread_reuses".to_string(),
                BenchValue::int(cells[3] as u64),
            ),
        ]);
    }
    report.write(path)
}

/// The 1-worker `wall_seconds` from the PR 2 benchmark JSON (first result
/// row with `"workers": 1`). Minimal extraction, not a JSON parser.
fn pr2_single_worker_wall(text: &str) -> Option<f64> {
    text.split("{\"workers\": 1,")
        .nth(1)?
        .split("\"wall_seconds\": ")
        .nth(1)?
        .split(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}
