//! Simulated tensor-core GEMM benchmark (`BENCH_PR7.json`).
//!
//! The 16-tile acceptance workload runs once per tensor-core mode
//! (FP16-TC / BF16-TC / TF32-TC) and once in FP64 with the classic
//! unfused three-kernel pipeline. For each mode the table reports the
//! modelled `dist_calc` ledger seconds, the speedup over the FP64
//! pipeline, functional recall against the mSTAMP CPU reference, and the
//! MMA accumulator chunk width the run used.
//!
//! The headline number is **gated against the device spec**: the measured
//! FP16-TC/FP64 dist_calc ratio must reach at least 95% of the ratio the
//! A100 [`TimingModel`] predicts for the very same cost descriptors
//! ([`gemm_cost`] vs the per-row [`dist_cost`]). If the GEMM path ever
//! stops being charged to the tensor cores — a regression in the cost
//! plumbing rather than in the kernels — the bench panics instead of
//! silently reporting vector-mode numbers.

use crate::report::{BenchReport, BenchValue, ExperimentTable};
use mdmp_core::baseline::mstamp;
use mdmp_core::kernels::{dist_cost, gemm_cost};
use mdmp_core::{compute_tile_list, run_with_mode, MdmpConfig, MdmpRun};
use mdmp_data::synthetic::{generate_pair, SyntheticConfig};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::{DeviceSpec, GpuSystem, KernelClass, TimingModel};
use mdmp_metrics::recall_rate;
use mdmp_precision::{Format, PrecisionMode};
use std::io;
use std::path::{Path, PathBuf};

/// The acceptance workload's tile count.
const TILES: usize = 16;

/// Fraction of the spec-derived FP16-TC/FP64 ratio the measured ledger
/// ratio must reach (slack for tile-remainder rounding).
const GATE_FRACTION: f64 = 0.95;

fn segment_len(quick: bool) -> usize {
    let _ = quick;
    32
}

fn workload(quick: bool) -> (MultiDimSeries, MultiDimSeries) {
    let cfg = SyntheticConfig {
        n_subsequences: if quick { 256 } else { 1024 },
        dims: if quick { 4 } else { 8 },
        m: segment_len(quick),
        pattern: mdmp_data::Pattern::Sine,
        embeddings: if quick { 2 } else { 4 },
        noise: 0.3,
        pattern_amplitude: 1.0,
        seed: 2022,
    };
    let pair = generate_pair(&cfg);
    (pair.reference, pair.query)
}

fn run_mode(r: &MultiDimSeries, q: &MultiDimSeries, quick: bool, mode: PrecisionMode) -> MdmpRun {
    let cfg = MdmpConfig::new(segment_len(quick), mode).with_tiles(TILES);
    let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
    run_with_mode(r, q, &cfg, &mut sys).expect("tc bench run failed")
}

/// The FP16-TC/FP64 `dist_calc` ratio the A100 spec predicts for this
/// workload: both cost descriptors pushed through the [`TimingModel`] with
/// the driver's launch-overlap discount applied, summed over the actual
/// tile list. This is the model-side twin of the measured ledger ratio.
pub fn spec_ratio(n_r: usize, n_q: usize, d: usize, chunk_k: usize) -> f64 {
    let model = TimingModel::new(DeviceSpec::a100());
    let tiles = compute_tile_list(n_r, n_q, TILES).expect("acceptance tiling");
    // All 16 tiles sit on one device: full stream pipelining, so the
    // driver divides per-launch overhead by the overlap cap. Mirror it.
    let overlap = mdmp_core::driver::OVERHEAD_OVERLAP_CAP;
    let (mut t64, mut ttc) = (0.0, 0.0);
    for t in &tiles {
        let mut c64 = dist_cost(t.cols, d, Format::Fp64).repeated(t.rows as u64);
        c64.launches /= overlap;
        t64 += model.kernel_seconds(&c64);
        let mut ctc = gemm_cost(t.rows, t.cols, d, chunk_k, Format::Fp16);
        ctc.launches /= overlap;
        ttc += model.kernel_seconds(&ctc);
    }
    t64 / ttc
}

/// The `tc` experiment: modelled dist_calc time, FP64 speedup, recall and
/// chunk width per tensor-core mode, gated against the spec-derived ratio.
pub fn tc_sweep(quick: bool) -> ExperimentTable {
    let (r, q) = workload(quick);
    let m = segment_len(quick);
    let d = r.dims();
    let reference = mstamp(&r, &q, m, None, None);

    let mut table = ExperimentTable::new(
        "tc_modes",
        &format!(
            "simulated tensor-core GEMM vs FP64 pipeline: modelled dist_calc seconds, \
             speedup, recall vs mSTAMP and MMA chunk width ({TILES}-tile workload, 1x A100)"
        ),
        &["mode", "dist_s", "speedup_vs_fp64", "recall", "chunk_k"],
    );

    let base = run_mode(&r, &q, quick, PrecisionMode::Fp64);
    let dist64 = base.ledger.seconds(KernelClass::DistCalc);
    assert!(dist64 > 0.0, "FP64 baseline booked no dist_calc time");
    table.push(
        PrecisionMode::Fp64.to_string(),
        vec![
            dist64,
            1.0,
            recall_rate(&reference, &base.profile) * 100.0,
            0.0,
        ],
    );

    for mode in PrecisionMode::TC_MODES {
        let run = run_mode(&r, &q, quick, mode);
        let dist_s = run.ledger.seconds(KernelClass::DistCalc);
        let chunk_k = run
            .tc_chunk_k
            .unwrap_or_else(|| panic!("{mode} run reported no chunk width"));
        let speedup = dist64 / dist_s;
        if mode == PrecisionMode::Fp16Tc {
            let spec = spec_ratio(r.n_segments(m), q.n_segments(m), d, chunk_k);
            assert!(
                speedup >= GATE_FRACTION * spec,
                "FP16-TC dist_calc speedup {speedup:.2}x fell below {GATE_FRACTION} of \
                 the spec-derived {spec:.2}x — GEMM is no longer charged to the tensor cores"
            );
        }
        table.push(
            mode.to_string(),
            vec![
                dist_s,
                speedup,
                recall_rate(&reference, &run.profile) * 100.0,
                chunk_k as f64,
            ],
        );
    }
    table
}

/// Serialize the TC table as `BENCH_PR7.json` through the shared
/// [`BenchReport`] schema, embedding the A100 tensor-core spec constants
/// and the spec-derived ratio the gate compared against.
pub fn write_bench_json(table: &ExperimentTable, quick: bool, path: &Path) -> io::Result<PathBuf> {
    let spec = DeviceSpec::a100();
    let tc = spec.tc.as_ref().expect("A100 models tensor cores");
    let (n, d) = if quick { (256, 4) } else { (1024, 8) };
    let chunk_k = table
        .cell("FP16-TC", "chunk_k")
        .expect("FP16-TC row present") as usize;
    let report = BenchReport::new("tc_modes", &table.description)
        .extra_block(
            "device_spec",
            vec![
                ("device".to_string(), BenchValue::str(spec.name)),
                (
                    "tc_fp16_flops".to_string(),
                    BenchValue::Num {
                        value: tc.fp16_flops,
                        decimals: 0,
                    },
                ),
                (
                    "tc_tf32_flops".to_string(),
                    BenchValue::Num {
                        value: tc.tf32_flops.unwrap_or(0.0),
                        decimals: 0,
                    },
                ),
                (
                    "frag_bandwidth".to_string(),
                    BenchValue::Num {
                        value: tc.frag_bandwidth,
                        decimals: 0,
                    },
                ),
                (
                    "spec_ratio_fp16tc_vs_fp64".to_string(),
                    BenchValue::ratio(spec_ratio(n, n, d, chunk_k)),
                ),
                (
                    "gate_fraction".to_string(),
                    BenchValue::ratio(GATE_FRACTION),
                ),
            ],
        )
        .workload("tiles", BenchValue::int(TILES as u64))
        .workload("n_subsequences", BenchValue::int(n as u64))
        .workload("dims", BenchValue::int(d as u64))
        .workload("m", BenchValue::int(segment_len(quick) as u64))
        .workload("devices", BenchValue::int(1));
    let mut report = report;
    for (label, cells) in &table.rows {
        report.push_result(vec![
            ("mode".to_string(), BenchValue::str(label)),
            ("dist_seconds".to_string(), BenchValue::secs(cells[0])),
            ("speedup_vs_fp64".to_string(), BenchValue::ratio(cells[1])),
            ("recall_pct".to_string(), BenchValue::ratio(cells[2])),
            ("chunk_k".to_string(), BenchValue::int(cells[3] as u64)),
        ]);
    }
    report.write(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `repro tc --quick` as a test: the sweep's spec gate holds (the
    /// sweep panics otherwise) and every tensor-core run reports the chunk
    /// width its input format resolves to: FP16-TC 8, BF16-TC 8 and
    /// TF32-TC 4 unless `MDMP_TC_CHUNK_K` overrides them.
    #[test]
    fn quick_sweep_passes_its_spec_gate_at_the_hardware_chunk_widths() {
        let table = tc_sweep(true);
        let chunk = |mode: PrecisionMode| table.cell(&mode.to_string(), "chunk_k");
        for mode in PrecisionMode::TC_MODES {
            let input = mode.tc_input().expect("tensor-core mode");
            let resolved = MdmpConfig::new(segment_len(true), mode).resolved_tc_chunk_k(input);
            assert_eq!(chunk(mode), Some(resolved as f64), "{mode}");
        }
        if std::env::var_os("MDMP_TC_CHUNK_K").is_none() {
            assert_eq!(chunk(PrecisionMode::Fp16Tc), Some(8.0));
            assert_eq!(chunk(PrecisionMode::Bf16Tc), Some(8.0));
            assert_eq!(chunk(PrecisionMode::Tf32Tc), Some(4.0));
        }
    }
}
