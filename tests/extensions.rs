//! Cross-crate integration tests of the beyond-paper extensions: multi-GPU
//! execution, streaming updates, anytime computation, motif analysis, and
//! the FP8 modes — exercised together through the public API. (Cluster ≡
//! single-node is proven over real TCP nodes in `crates/cluster/tests`.)

use mdmp_core::{
    run_with_mode, scrimp_anytime, top_discords, top_motifs, MdmpConfig, StreamingProfile,
    TileSchedule,
};
use mdmp_data::synthetic::{generate_pair, Pattern, SyntheticConfig};
use mdmp_gpu_sim::{DeviceSpec, GpuSystem};
use mdmp_metrics::{recall_rate, relative_accuracy};
use mdmp_precision::PrecisionMode;

fn pair(n: usize, seed: u64) -> mdmp_data::SyntheticPair {
    generate_pair(&SyntheticConfig {
        n_subsequences: n,
        dims: 3,
        m: 16,
        pattern: Pattern::Chirp,
        embeddings: 3,
        noise: 0.3,
        pattern_amplitude: 1.2,
        seed,
    })
}

#[test]
fn four_ways_to_compute_the_same_profile_agree() {
    // Single GPU, four GPUs, streaming appends and the anytime algorithm
    // at full fraction must all agree in FP64.
    let p = pair(300, 1);
    let m = 16;
    let cfg = MdmpConfig::new(m, PrecisionMode::Fp64).with_tiles(4);

    let mut single = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
    let base = run_with_mode(&p.reference, &p.query, &cfg, &mut single)
        .unwrap()
        .profile;

    let mut four = GpuSystem::homogeneous(DeviceSpec::v100(), 4);
    let multi_gpu = run_with_mode(&p.reference, &p.query, &cfg, &mut four)
        .unwrap()
        .profile;
    assert_eq!(base, multi_gpu, "multi-GPU result differs");

    let keep = p.query.len() - 50;
    let head = p.query.window(0, keep);
    let tail: Vec<Vec<f64>> = (0..3).map(|k| p.query.dim(k)[keep..].to_vec()).collect();
    let mut streamed = StreamingProfile::new(
        p.reference.clone(),
        head,
        MdmpConfig::new(m, PrecisionMode::Fp64),
    )
    .unwrap();
    streamed.append_query(&tail).expect("append failed");
    assert!(
        recall_rate(&base, streamed.profile()) > 0.999,
        "streaming differs"
    );
    assert!(relative_accuracy(&base, streamed.profile()) > 0.999999);

    let (anytime, _) = scrimp_anytime(&p.reference, &p.query, m, 1.0, None, 7);
    assert!(recall_rate(&base, &anytime) > 0.999, "anytime differs");
}

#[test]
fn balanced_schedule_gives_identical_results_on_heterogeneous_systems() {
    let p = pair(256, 2);
    let mut mixed = GpuSystem::new(vec![
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::v100(),
    ]);
    let rr = run_with_mode(
        &p.reference,
        &p.query,
        &MdmpConfig::new(16, PrecisionMode::Fp32).with_tiles(16),
        &mut mixed,
    )
    .unwrap();
    let bal = run_with_mode(
        &p.reference,
        &p.query,
        &MdmpConfig::new(16, PrecisionMode::Fp32)
            .with_tiles(16)
            .with_schedule(TileSchedule::Balanced),
        &mut mixed,
    )
    .unwrap();
    assert_eq!(
        rr.profile, bal.profile,
        "scheduling must not change results"
    );
    // Greedy balancing uses tile area as its work proxy; at tiny problem
    // sizes per-tile fixed overheads can cost it a sliver, so only require
    // near-parity here (the >1.2x gain at realistic scale is asserted in
    // crates/bench/tests/experiment_smoke.rs).
    assert!(
        bal.modeled_seconds <= rr.modeled_seconds * 1.05,
        "balanced far slower than round-robin: {} vs {}",
        bal.modeled_seconds,
        rr.modeled_seconds
    );
}

#[test]
fn fp8_modes_produce_usable_motifs_despite_heavy_quantization() {
    let p = pair(512, 3);
    let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
    for mode in [PrecisionMode::Fp8E4M3, PrecisionMode::Fp8E5M2] {
        let run = run_with_mode(
            &p.reference,
            &p.query,
            &MdmpConfig::new(16, mode).with_tiles(16),
            &mut sys,
        )
        .unwrap();
        assert!(
            run.profile.unset_fraction() < 0.05,
            "{mode}: {} unset",
            run.profile.unset_fraction()
        );
        // Even in FP8, the strongest embedded motif should rank among the
        // top few (quantized distances preserve gross ordering).
        let motifs = top_motifs(&run.profile, 2, 16, 5);
        assert!(!motifs.is_empty(), "{mode}: no motifs");
        let found = motifs
            .iter()
            .any(|mo| p.query_locs.iter().any(|&l| mo.query_pos.abs_diff(l) < 16));
        assert!(found, "{mode}: embedded motif not in top-5");
    }
}

#[test]
fn discords_and_motifs_are_disjoint_extremes() {
    let p = pair(400, 4);
    let mut sys = GpuSystem::homogeneous(DeviceSpec::a100(), 1);
    let run = run_with_mode(
        &p.reference,
        &p.query,
        &MdmpConfig::new(16, PrecisionMode::Fp64),
        &mut sys,
    )
    .unwrap();
    let motifs = top_motifs(&run.profile, 2, 16, 3);
    let discords = top_discords(&run.profile, 2, 16, 3);
    assert!(!motifs.is_empty() && !discords.is_empty());
    // The best motif distance is below the worst discord distance.
    assert!(motifs[0].distance < discords[0].distance);
    // No position is both a top motif and a top discord.
    for mo in &motifs {
        for di in &discords {
            assert!(mo.query_pos.abs_diff(di.query_pos) >= 16);
        }
    }
}
