//! Extension studies beyond the paper's evaluation:
//!
//! * [`multinode`] — the §VII "extend to multiple nodes" outlook: the
//!   cluster coordinator's lease protocol replayed on modelled tile costs;
//! * [`schedule_ablation`] — static Round-robin (the paper) vs greedy
//!   balanced tile scheduling at the odd GPU counts where Fig. 5 dips;
//! * [`extended_modes`] — accuracy and modeled time of **all** precision
//!   modes including BF16, TF32 (named as future work in §VII) and the
//!   FP8 variants;
//! * [`clamp_ablation`] — the `1 − corr ≥ 0` clamp before the square root:
//!   what reduced precision does without it;
//! * [`fig8`] — the classifier timeline of Fig. 8 as a letter-coded strip;
//! * [`fig11`] — the turbine startup shapes (and the P0–P7 primitives of
//!   Fig. 3) exported as CSV.

use super::run_profile;
use crate::report::ExperimentTable;
use mdmp_cluster::replay_makespan;
use mdmp_core::baseline::mstamp;
use mdmp_core::{estimate_run, estimate_tile_seconds, run_with_mode, MdmpConfig, TileSchedule};
use mdmp_data::hpcoda::{self, AppClass, HpcOdaConfig};
use mdmp_data::synthetic::{generate_pair, Pattern, SyntheticConfig};
use mdmp_data::turbine::Startup;
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_metrics::{nn_classify, recall_rate, relative_accuracy};
use mdmp_precision::PrecisionMode;

/// Multi-node strong scaling (modelled): n = 2¹⁷, d = 2⁶, 256 tiles, FP64
/// on 1–8 A100 nodes. Each tile costs what a worker charges for a one-tile
/// request ([`estimate_tile_seconds`]); the makespan replays the cluster
/// coordinator's lease protocol over those costs ([`replay_makespan`]),
/// one tile in flight per node as `run_cluster` leases them. Only device
/// seconds are charged: no interconnect term.
pub fn multinode() -> ExperimentTable {
    let n = 1 << 17;
    let d = 64;
    let cfg = MdmpConfig::new(64, PrecisionMode::Fp64).with_tiles(256);
    let tile_seconds = estimate_tile_seconds(n, n, d, &cfg, &DeviceSpec::a100()).unwrap();
    let mut table = ExperimentTable::new(
        "ext_multinode_scaling",
        "Extension (paper VII): modelled multi-node scaling, the cluster lease protocol replayed on per-tile A100 device seconds, one tile in flight per node, n=2^17, d=2^6, 256 tiles, FP64",
        &["nodes", "total_s", "speedup", "efficiency"],
    );
    let t1 = replay_makespan(&tile_seconds, 1);
    for nodes in 1..=8usize {
        let total = replay_makespan(&tile_seconds, nodes);
        table.push(
            format!("{nodes}"),
            vec![total, t1 / total, t1 / (nodes as f64 * total)],
        );
    }
    table
}

/// Round-robin (the paper's static scheme, speed-oblivious) vs the
/// speed-weighted balanced scheduler on **heterogeneous** systems mixing
/// V100 and A100 GPUs — where static assignment leaves the faster devices
/// idle. On homogeneous systems with the paper's equal-size tiles the two
/// policies coincide (the right mitigation there is more tiles, as the
/// paper notes); the table includes one homogeneous row to show that.
pub fn schedule_ablation() -> ExperimentTable {
    let n = 1 << 16;
    let d = 64;
    let mut table = ExperimentTable::new(
        "ext_schedule_ablation",
        "Ablation: static Round-robin vs speed-weighted Balanced tile scheduling on mixed V100/A100 systems (n=2^16, d=2^6, FP64, 64 tiles)",
        &["system", "t_roundrobin_s", "t_balanced_s", "balanced_gain"],
    );
    let time = |specs: Vec<DeviceSpec>, schedule: TileSchedule| {
        let mut sys = GpuSystem::new(specs);
        let cfg = MdmpConfig::new(64, PrecisionMode::Fp64)
            .with_tiles(64)
            .with_schedule(schedule);
        estimate_run(n, n, d, &cfg, &mut sys)
            .unwrap()
            .modeled_seconds
    };
    let systems: Vec<(&str, Vec<DeviceSpec>)> = vec![
        ("4xA100", vec![DeviceSpec::a100(); 4]),
        (
            "2xA100+2xV100",
            vec![
                DeviceSpec::a100(),
                DeviceSpec::a100(),
                DeviceSpec::v100(),
                DeviceSpec::v100(),
            ],
        ),
        (
            "1xA100+3xV100",
            vec![
                DeviceSpec::a100(),
                DeviceSpec::v100(),
                DeviceSpec::v100(),
                DeviceSpec::v100(),
            ],
        ),
        (
            "3xA100+1xV100",
            vec![
                DeviceSpec::a100(),
                DeviceSpec::a100(),
                DeviceSpec::a100(),
                DeviceSpec::v100(),
            ],
        ),
    ];
    for (label, specs) in systems {
        let rr = time(specs.clone(), TileSchedule::RoundRobin);
        let bal = time(specs, TileSchedule::Balanced);
        table.push(label, vec![rr, bal, rr / bal]);
    }
    table
}

/// Accuracy (vs the FP64 CPU reference) and modeled A100 time of every
/// supported precision mode, including the BF16/TF32/FP8 extensions.
pub fn extended_modes(quick: bool) -> ExperimentTable {
    let (n, d, m) = if quick { (512, 4, 16) } else { (1024, 8, 32) };
    let pair = generate_pair(&SyntheticConfig {
        n_subsequences: n,
        dims: d,
        m,
        pattern: Pattern::Sine,
        embeddings: 4,
        noise: 0.3,
        pattern_amplitude: 1.0,
        seed: 0xE87,
    });
    let reference = mstamp(&pair.reference, &pair.query, m, None, None);
    let mut table = ExperimentTable::new(
        "ext_all_modes",
        &format!("Extension: all precision modes incl. BF16/TF32 (paper VII) and FP8 (n={n}, d={d}, m={m}; modeled time at n=2^16, d=2^6)"),
        &["mode", "A_pct", "R_pct", "modeled_paper_scale_s"],
    );
    for mode in PrecisionMode::ALL {
        let profile = run_profile(&pair.reference, &pair.query, m, mode, 16);
        let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
        let est = estimate_run(
            1 << 16,
            1 << 16,
            64,
            &MdmpConfig::new(64, mode).with_tiles(16),
            &mut sys,
        )
        .unwrap();
        table.push(
            mode.label(),
            vec![
                relative_accuracy(&reference, &profile) * 100.0,
                recall_rate(&reference, &profile) * 100.0,
                est.modeled_seconds,
            ],
        );
    }
    table
}

/// Ablation of the `max(1 − corr, 0)` clamp: on data with **exact repeats**
/// (here: genome sequences with unmutated gene copies, where the true best
/// correlation is exactly 1), reduced-precision rounding pushes `corr`
/// above 1; without the clamp the square root yields NaN, the true best
/// match can never win the min-update, and the recall of precisely those
/// best matches collapses.
pub fn clamp_ablation(quick: bool) -> ExperimentTable {
    use mdmp_data::genome::{self, GenomeConfig};
    let len = 1024 + 127;
    let gcfg = GenomeConfig {
        len,
        channels: if quick { 4 } else { 8 },
        gene_len: 128,
        genes: 4,
        mutation_rate: 0.0, // exact copies: corr = 1 exactly
        seed: 0xC1A,
    };
    let ds = genome::generate(&gcfg);
    let m = gcfg.gene_len;
    let reference = mstamp(&ds.series, &ds.series, m, None, None);
    let mut table = ExperimentTable::new(
        "ext_clamp_ablation",
        &format!("Ablation: correlation-overshoot clamp on/off per mode, exact-repeat genome data (n={}, d={}, m={m})", ds.series.n_segments(m), ds.series.dims()),
        &["mode_clamp", "A_pct", "R_pct", "unset_pct"],
    );
    for mode in [
        PrecisionMode::Fp32,
        PrecisionMode::Fp16,
        PrecisionMode::Mixed,
    ] {
        for clamp in [true, false] {
            let mut cfg = MdmpConfig::new(m, mode);
            cfg.clamp = clamp;
            let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
            let run = run_with_mode(&ds.series, &ds.series, &cfg, &mut sys).unwrap();
            table.push(
                format!("{}_{}", mode.label(), if clamp { "on" } else { "off" }),
                vec![
                    relative_accuracy(&reference, &run.profile) * 100.0,
                    recall_rate(&reference, &run.profile) * 100.0,
                    run.profile.unset_fraction() * 100.0,
                ],
            );
        }
    }
    table
}

/// Fig. 8: a letter-coded timeline of the NN classifier's predictions over
/// the query half, against the ground truth — printed, plus a per-segment
/// CSV of (truth, prediction) class ids.
pub fn fig8(quick: bool) -> ExperimentTable {
    let cfg = if quick {
        HpcOdaConfig {
            sensors: 16,
            phase_len: 64,
            phases: 16,
            noise: 0.08,
            seed: 0x0DA,
        }
    } else {
        HpcOdaConfig {
            sensors: 16,
            phase_len: 128,
            phases: 16,
            noise: 0.08,
            seed: 0x0DA,
        }
    };
    let m = if quick { 16 } else { 32 };
    let ds = hpcoda::generate(&cfg);
    let (reference, query) = ds.split_half();
    let d = reference.series.dims();
    let run_cfg = MdmpConfig::new(m, PrecisionMode::Mixed);
    let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
    let run = run_with_mode(&reference.series, &query.series, &run_cfg, &mut sys).unwrap();
    let predicted = nn_classify(&run.profile, d - 1, &reference.labels);

    let letter = |c: AppClass| match c {
        AppClass::None => '.',
        AppClass::Kripke => 'K',
        AppClass::Lammps => 'L',
        AppClass::Linpack => 'H',
        AppClass::Amg => 'A',
        AppClass::Pennant => 'P',
        AppClass::Quicksilver => 'Q',
    };
    let n_q = query.series.n_segments(m);
    let stride = (n_q / 120).max(1);
    let truth_strip: String = (0..n_q)
        .step_by(stride)
        .map(|j| letter(query.labels[j]))
        .collect();
    let pred_strip: String = (0..n_q)
        .step_by(stride)
        .map(|j| predicted[j].map_or('?', letter))
        .collect();
    println!("\nFig. 8 timeline (Mixed mode; . = idle, letters = applications):");
    println!("  truth: {truth_strip}");
    println!("  pred : {pred_strip}");

    let mut table = ExperimentTable::new(
        "fig8_timeline",
        "Fig. 8: per-query-segment ground truth vs Mixed-mode NN prediction (class ids: 0=None 1=Kripke 2=LAMMPS 3=linpack 4=AMG 5=PENNANT 6=Quicksilver; -1 = no match)",
        &["segment", "truth", "predicted"],
    );
    let class_id = |c: AppClass| AppClass::ALL.iter().position(|&a| a == c).unwrap() as f64;
    for j in (0..n_q).step_by(stride) {
        table.push(
            format!("{j}"),
            vec![
                class_id(query.labels[j]),
                predicted[j].map_or(-1.0, class_id),
            ],
        );
    }
    table
}

/// SCRIMP-style anytime convergence (related work [25]/[14]): agreement
/// with the exact profile after evaluating a random fraction of the
/// distance-matrix diagonals.
pub fn anytime_convergence(quick: bool) -> ExperimentTable {
    use mdmp_core::scrimp_anytime;
    let (n, d, m) = if quick { (512, 3, 16) } else { (1024, 4, 32) };
    let pair = generate_pair(&SyntheticConfig {
        n_subsequences: n,
        dims: d,
        m,
        pattern: Pattern::DampedOsc,
        embeddings: 4,
        noise: 0.3,
        pattern_amplitude: 1.2,
        seed: 0xA27,
    });
    let exact = mstamp(&pair.reference, &pair.query, m, None, None);
    let mut table = ExperimentTable::new(
        "ext_anytime_convergence",
        &format!("Extension: SCRIMP-style anytime convergence (n={n}, d={d}, m={m}, FP64) — index agreement vs fraction of diagonals evaluated"),
        &["fraction", "index_agreement_pct", "value_accuracy_pct", "cells_covered_pct"],
    );
    for fraction in [0.05, 0.1, 0.25, 0.5, 1.0] {
        let (profile, progress) =
            scrimp_anytime(&pair.reference, &pair.query, m, fraction, None, 11);
        let total_cells = (pair.reference.n_segments(m) as u64) * (pair.query.n_segments(m) as u64);
        table.push(
            format!("{fraction}"),
            vec![
                recall_rate(&exact, &profile) * 100.0,
                relative_accuracy(&exact, &profile) * 100.0,
                100.0 * progress.cells_done as f64 / total_cells as f64,
            ],
        );
    }
    table
}

/// Fig. 11 (and the Fig. 3 inset): export the turbine startup shapes and
/// the eight primitive patterns as CSV series.
pub fn fig11() -> Vec<ExperimentTable> {
    let mut startups = ExperimentTable::new(
        "fig11_startup_shapes",
        "Fig. 11: the two turbine startup patterns over a 2048-sample window (speed in % of rated)",
        &["t", "P1", "P2"],
    );
    let p1 = Startup::P1.render(2048);
    let p2 = Startup::P2.render(2048);
    for t in (0..2048).step_by(8) {
        startups.push(format!("{t}"), vec![p1[t], p2[t]]);
    }

    let mut primitives = ExperimentTable::new(
        "fig3_pattern_shapes",
        "Fig. 3 inset: the eight primitive injected patterns P0-P7 over one window (normalized to [-1, 1])",
        &["t", "P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7"],
    );
    let rendered: Vec<Vec<f64>> = Pattern::ALL.iter().map(|p| p.render(256)).collect();
    for t in 0..256 {
        primitives.push(format!("{t}"), rendered.iter().map(|r| r[t]).collect());
    }
    vec![startups, primitives]
}
