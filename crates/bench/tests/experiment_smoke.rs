//! Smoke tests of the reproduction harness: every experiment runs in quick
//! mode and its table carries the paper's qualitative structure.

use mdmp_bench::experiments::{accuracy, case_studies, extensions, performance, tradeoff};

#[test]
fn headline_table_reproduces_paper_bands() {
    let t = performance::headline();
    let a100 = t.cell("A100_vs_CPU_FP64", "modeled").unwrap();
    assert!((40.0..=70.0).contains(&a100), "A100/CPU {a100}");
    let v100 = t.cell("V100_vs_CPU_FP64", "modeled").unwrap();
    assert!((30.0..=55.0).contains(&v100), "V100/CPU {v100}");
    let fp16 = t.cell("FP16_vs_FP64_A100", "modeled").unwrap();
    assert!((1.2..=1.9).contains(&fp16), "FP16 gain {fp16}");
    let four = t.cell("4xA100_speedup", "modeled").unwrap();
    assert!((3.5..=4.05).contains(&four), "4-GPU {four}");
}

#[test]
fn fig4_breakdown_has_crossover() {
    let tables = performance::fig4();
    let by_d = &tables[1];
    // Small d: dist_calc dominates; large d: sort dominates (Fig. 4).
    let dist_small = by_d.cell("d=2^3", "dist_calc_s").unwrap();
    let sort_small = by_d.cell("d=2^3", "sort_scan_s").unwrap();
    assert!(dist_small > sort_small);
    let dist_big = by_d.cell("d=2^6", "dist_calc_s").unwrap();
    let sort_big = by_d.cell("d=2^6", "sort_scan_s").unwrap();
    assert!(sort_big > dist_big);
}

#[test]
fn fig5_efficiency_dips_at_odd_counts() {
    let tables = performance::fig5();
    let scaling = &tables[0];
    let eff = |g: &str| scaling.cell(g, "efficiency_FP64").unwrap();
    assert!(eff("2") > 0.95);
    assert!(eff("4") > 0.95);
    assert!(eff("3") < eff("2"));
    assert!(eff("5") < eff("4"));
    // Reduced precision is faster at every GPU count.
    for g in ["1", "4", "8"] {
        let t64 = scaling.cell(g, "t_FP64_s").unwrap();
        let t16 = scaling.cell(g, "t_FP16_s").unwrap();
        assert!(t16 < t64, "{g} GPUs: FP16 {t16} not below FP64 {t64}");
    }
}

#[test]
fn fig6_machine_ordering_and_m_independence() {
    let tables = performance::fig6();
    for t in &tables {
        for (label, _) in &t.rows {
            let cpu = t.cell(label, "CPU_s").unwrap();
            let v100 = t.cell(label, "V100_s").unwrap();
            let a100 = t.cell(label, "A100_s").unwrap();
            assert!(cpu > v100 && v100 > a100, "{label}: {cpu} {v100} {a100}");
        }
    }
    // m sweep is flat.
    let by_m = &tables[2];
    let t_small = by_m.cell("m=2^3", "A100_s").unwrap();
    let t_large = by_m.cell("m=2^6", "A100_s").unwrap();
    assert!((t_small - t_large).abs() / t_small < 0.05);
}

#[test]
fn fig7_time_dips_then_rises() {
    let t = tradeoff::fig7_time();
    let t1 = t.cell("1", "t_FP16_s").unwrap();
    let t16 = t.cell("16", "t_FP16_s").unwrap();
    let t1024 = t.cell("1024", "t_FP16_s").unwrap();
    assert!(t16 < t1, "some tiles beat one tile");
    assert!(t1024 > t16, "1024 tiles pay merge overhead");
}

#[test]
fn fig2_quick_has_precision_hierarchy() {
    let tables = accuracy::fig2(true);
    let n_sweep = &tables[0];
    for (label, _) in &n_sweep.rows {
        let a64 = n_sweep.cell(label, "A_FP64").unwrap();
        let a16 = n_sweep.cell(label, "A_FP16").unwrap();
        let a_mixed = n_sweep.cell(label, "A_Mixed").unwrap();
        assert!(a64 > 99.999, "{label}: FP64 accuracy {a64}");
        assert!(a_mixed >= a16 - 0.2, "{label}: Mixed below FP16");
        assert!(a16 > 90.0, "{label}: FP16 accuracy collapsed: {a16}");
    }
}

#[test]
fn table1_matches_paper_counts() {
    let t = case_studies::table1();
    assert_eq!(t.cell("P1-P1", "GT1"), Some(4160.0));
    assert_eq!(t.cell("both-P2", "GT1-GT2"), Some(650.0));
}

#[test]
fn multinode_scales_and_schedule_helps_heterogeneous() {
    let mn = extensions::multinode();
    let e2 = mn.cell("2", "efficiency").unwrap();
    let e8 = mn.cell("8", "efficiency").unwrap();
    assert!(e2 > 0.9, "2-node efficiency {e2}");
    assert!(e8 > 0.75, "8-node efficiency {e8}");

    let sched = extensions::schedule_ablation();
    let gain_homog = sched.cell("4xA100", "balanced_gain").unwrap();
    assert!((gain_homog - 1.0).abs() < 0.01, "homogeneous: no gain");
    let gain_mixed = sched.cell("2xA100+2xV100", "balanced_gain").unwrap();
    assert!(gain_mixed > 1.1, "heterogeneous gain {gain_mixed}");
}

#[test]
fn clamp_ablation_shows_overshoot_damage() {
    let t = extensions::clamp_ablation(true);
    let on = t.cell("FP16_on", "R_pct").unwrap();
    let off = t.cell("FP16_off", "R_pct").unwrap();
    assert!(
        on > off + 20.0,
        "clamp must rescue exact-repeat recall: on {on} vs off {off}"
    );
}

#[test]
fn extended_modes_rank_by_mantissa_width() {
    let t = extensions::extended_modes(true);
    let a = |mode: &str| t.cell(mode, "A_pct").unwrap();
    assert!(a("FP64") >= a("FP16") - 1e-9);
    assert!(
        a("FP16") > a("BF16"),
        "FP16 {} vs BF16 {}",
        a("FP16"),
        a("BF16")
    );
    assert!(a("BF16") > a("FP8-E4M3"));
    assert!(a("FP8-E4M3") > a("FP8-E5M2"));
    // TF32 matches FP16 accuracy (same 11-bit significand) but not worse.
    assert!((a("TF32") - a("FP16")).abs() < 5.0);
}

#[test]
fn driver_scaling_sweeps_workers_with_invariant_model_time() {
    use mdmp_bench::experiments::driver_scaling;
    let t = driver_scaling::driver_scaling(true);
    // One row per worker count, at least {1, 2, 4}; the bench itself
    // asserts bit-identical profiles across the sweep.
    assert!(t.rows.len() >= 3, "sweep covers {{1, 2, 4}} workers");
    assert_eq!(t.rows[0].0, "1", "the sweep starts at one worker");
    let modeled_1 = t.cell("1", "modeled_s").unwrap();
    for (label, _) in &t.rows {
        let wall = t.cell(label, "wall_seconds").unwrap();
        assert!(wall > 0.0, "{label}: wall {wall}");
        let modeled = t.cell(label, "modeled_s").unwrap();
        assert_eq!(
            modeled.to_bits(),
            modeled_1.to_bits(),
            "{label} workers: modelled time must not depend on the pool"
        );
    }
    assert_eq!(t.cell("1", "speedup_vs_1"), Some(1.0));
}
