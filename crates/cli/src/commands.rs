//! Subcommand implementations. Each takes parsed arguments and returns a
//! user-facing error string on failure; printing goes to stdout.

use crate::args::ParsedArgs;
use crate::profile_io;
use mdmp_core::{estimate_run, run_with_mode, top_discords, top_motifs, MdmpConfig, TileSchedule};
use mdmp_data::io as data_io;
use mdmp_data::synthetic::{generate_pair, Pattern, SyntheticConfig};
use mdmp_faults::FaultPlan;
use mdmp_gpu_sim::{DeviceSpec, GpuSystem, UtilizationReport};
use mdmp_precision::PrecisionMode;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

type CmdResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

pub fn device_spec(name: &str) -> Result<DeviceSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "a100" => Ok(DeviceSpec::a100()),
        "v100" => Ok(DeviceSpec::v100()),
        "cpu" | "skylake" => Ok(DeviceSpec::skylake_16c()),
        other => Err(format!("unknown device '{other}' (a100, v100, cpu)")),
    }
}

fn schedule(name: &str) -> Result<TileSchedule, String> {
    match name.to_ascii_lowercase().as_str() {
        "rr" | "round-robin" | "roundrobin" => Ok(TileSchedule::RoundRobin),
        "balanced" => Ok(TileSchedule::Balanced),
        other => Err(format!("unknown schedule '{other}' (rr, balanced)")),
    }
}

/// `--tc-chunk-k 4|8|16`: MMA accumulator chunk width for the tensor-core
/// modes. Omitted = auto (env `MDMP_TC_CHUNK_K`, else the input format's
/// hardware shape). Validated here so a bad value fails at the flag, not
/// mid-run.
pub fn tc_chunk_k_arg(args: &ParsedArgs) -> Result<Option<usize>, String> {
    let k: Option<usize> = args.get("tc-chunk-k").map_err(err)?;
    if let Some(k) = k {
        if !mdmp_gpu_sim::MMA_CHUNK_SIZES.contains(&k) {
            return Err(format!(
                "--tc-chunk-k must be one of {:?}, got {k}",
                mdmp_gpu_sim::MMA_CHUNK_SIZES
            ));
        }
    }
    Ok(k)
}

fn build_config(args: &ParsedArgs, m: usize) -> Result<MdmpConfig, String> {
    let mode: PrecisionMode = args
        .get_or::<String>("mode", "fp64".into())
        .map_err(err)?
        .parse()
        .map_err(err)?;
    let tiles: usize = args.get_or("tiles", 1).map_err(err)?;
    // 0 = auto: env MDMP_HOST_WORKERS if set, else one worker per GPU.
    let host_workers: usize = args.get_or("host-workers", 0).map_err(err)?;
    let sched = schedule(
        &args
            .get_or::<String>("schedule", "rr".into())
            .map_err(err)?,
    )?;
    let fault_plan: Option<String> = args.get("fault-plan").map_err(err)?;
    let tile_retries: u32 = args.get_or("tile-retries", 2).map_err(err)?;
    let tile_timeout_ms: Option<u64> = args.get("tile-timeout-ms").map_err(err)?;
    let tc_chunk_k = tc_chunk_k_arg(args)?;
    let mut cfg = MdmpConfig::new(m, mode)
        .with_tiles(tiles)
        .with_schedule(sched)
        .with_host_workers(host_workers)
        .with_tile_retries(tile_retries)
        .with_tc_chunk_k(tc_chunk_k)
        .with_tile_deadline(tile_timeout_ms.map(Duration::from_millis));
    if let Some(spec) = fault_plan {
        let plan: FaultPlan = spec.parse().map_err(err)?;
        cfg = cfg.with_fault_plan(Some(Arc::new(plan)));
    }
    if args.flag("self-join") {
        cfg = cfg.self_join();
    }
    if args.flag("no-clamp") {
        cfg.clamp = false;
    }
    Ok(cfg)
}

/// `mdmp compute` — compute a matrix profile from CSV series.
pub fn compute(args: &ParsedArgs) -> CmdResult {
    let reference_path: PathBuf = args.require("reference").map_err(err)?;
    let query_path: Option<PathBuf> = args.get("query").map_err(err)?;
    let m: usize = args.require("m").map_err(err)?;
    let output: PathBuf = args.require("output").map_err(err)?;
    let gpus: usize = args.get_or("gpus", 1).map_err(err)?;
    let device = device_spec(
        &args
            .get_or::<String>("device", "a100".into())
            .map_err(err)?,
    )?;
    let report = args.flag("report");
    let anytime: Option<f64> = args.get("anytime").map_err(err)?;
    let seed: u64 = args.get_or("seed", 42).map_err(err)?;
    let repair = args.flag("repair-dropouts");
    let mut cfg = build_config(args, m)?;
    args.reject_unknown().map_err(err)?;

    let mut reference = data_io::read_csv(&reference_path).map_err(err)?;
    let mut query = match &query_path {
        Some(p) => data_io::read_csv(p).map_err(err)?,
        None => {
            // Self-join by default when no query is given.
            if cfg.exclusion_zone.is_none() {
                cfg = cfg.self_join();
            }
            reference.clone()
        }
    };
    if repair {
        let fixed = reference.interpolate_non_finite() + query.interpolate_non_finite();
        if fixed > 0 {
            println!("repaired {fixed} non-finite samples by interpolation");
        }
    }
    if let Some(fraction) = anytime {
        if !(0.0..=1.0).contains(&fraction) {
            return Err("--anytime must be in [0, 1]".into());
        }
        println!(
            "anytime (SCRIMP-style, FP64): {} vs {} (m={m}, fraction {fraction})",
            reference, query
        );
        let (profile, progress) =
            mdmp_core::scrimp_anytime(&reference, &query, m, fraction, cfg.exclusion_zone, seed);
        profile_io::write_profile(&output, &profile).map_err(err)?;
        println!(
            "wrote {} after {}/{} diagonals ({} cells)",
            output.display(),
            progress.diagonals_done,
            progress.diagonals_total,
            progress.cells_done
        );
        return Ok(());
    }
    println!(
        "computing: {} vs {} (m={m}, mode={}, {} tiles, {gpus}x {})",
        reference, query, cfg.mode, cfg.n_tiles, device.name
    );
    let mut system = GpuSystem::homogeneous(device.clone(), gpus);
    let run = run_with_mode(&reference, &query, &cfg, &mut system).map_err(err)?;
    profile_io::write_profile(&output, &run.profile).map_err(err)?;
    println!(
        "wrote {} ({} query segments x {} dims)",
        output.display(),
        run.profile.n_query(),
        run.profile.dims()
    );
    println!(
        "modeled GPU time {:.4} s (merge {:.4} s); host wall {:.2} s \
         ({} host workers, {} buffer reuses)",
        run.modeled_seconds,
        run.merge_seconds,
        run.wall_seconds,
        run.host_workers,
        run.buffer_pool_reuses
    );
    if run.faults_injected > 0 || run.tile_retries > 0 || !run.quarantined_devices.is_empty() {
        println!(
            "resilience: {} faults injected, {} tile retries, {} validation failures, \
             quarantined devices {:?}",
            run.faults_injected,
            run.tile_retries,
            run.plane_validation_failures,
            run.quarantined_devices
        );
    }
    if report {
        let util = UtilizationReport::from_ledger(&device, &run.ledger);
        print!("{util}");
    }
    Ok(())
}

/// `mdmp motifs` / `mdmp discords` — mine a stored profile.
pub fn mine(args: &ParsedArgs, discords: bool) -> CmdResult {
    let profile_path: PathBuf = args.require("profile").map_err(err)?;
    let m: usize = args.require("m").map_err(err)?;
    let top: usize = args.get_or("top", 5).map_err(err)?;
    let profile = profile_io::read_profile(&profile_path).map_err(err)?;
    let k: usize = args
        .get_or("k", profile.dims())
        .map_err(err)?
        .clamp(1, profile.dims())
        - 1;
    args.reject_unknown().map_err(err)?;

    if discords {
        println!("top {top} discords of the {}-dimensional profile:", k + 1);
        for d in top_discords(&profile, k, m, top) {
            println!(
                "  query segment {:>6}  nn-distance {:.4}",
                d.query_pos, d.distance
            );
        }
    } else {
        println!("top {top} motifs of the {}-dimensional profile:", k + 1);
        for mo in top_motifs(&profile, k, m, top) {
            println!(
                "  query {:>6} <-> reference {:>6}  distance {:.4}",
                mo.query_pos, mo.match_pos, mo.distance
            );
        }
    }
    Ok(())
}

/// `mdmp generate` — write a synthetic dataset as CSV.
pub fn generate(args: &ParsedArgs) -> CmdResult {
    let kind: String = args.get_or("kind", "synthetic".into()).map_err(err)?;
    let output: PathBuf = args.require("output").map_err(err)?;
    let seed: u64 = args.get_or("seed", 42).map_err(err)?;
    match kind.as_str() {
        "synthetic" => {
            let n: usize = args.get_or("n", 4096).map_err(err)?;
            let d: usize = args.get_or("d", 8).map_err(err)?;
            let m: usize = args.get_or("m", 64).map_err(err)?;
            let pattern_idx: usize = args.get_or("pattern", 0).map_err(err)?;
            args.reject_unknown().map_err(err)?;
            if pattern_idx >= Pattern::ALL.len() {
                return Err(format!("--pattern must be 0..{}", Pattern::ALL.len() - 1));
            }
            let pair = generate_pair(&SyntheticConfig {
                n_subsequences: n,
                dims: d,
                m,
                pattern: Pattern::ALL[pattern_idx],
                embeddings: 4,
                noise: 0.3,
                pattern_amplitude: 1.0,
                seed,
            });
            data_io::write_csv(&output, &pair.reference).map_err(err)?;
            let query_path = sibling(&output, "_query");
            data_io::write_csv(&query_path, &pair.query).map_err(err)?;
            println!(
                "wrote {} and {} (pattern {} embedded at ref {:?} / query {:?})",
                output.display(),
                query_path.display(),
                Pattern::ALL[pattern_idx].label(),
                pair.reference_locs,
                pair.query_locs
            );
        }
        "genome" => {
            let len: usize = args.get_or("len", 4096).map_err(err)?;
            args.reject_unknown().map_err(err)?;
            let ds = mdmp_data::genome::generate(&mdmp_data::genome::GenomeConfig {
                seed,
                ..mdmp_data::genome::GenomeConfig::default_case_study(len)
            });
            data_io::write_csv(&output, &ds.series).map_err(err)?;
            println!("wrote {} ({} channels)", output.display(), ds.series.dims());
        }
        "turbine" => {
            let n: usize = args.get_or("n", 4096).map_err(err)?;
            let m: usize = args.get_or("m", 256).map_err(err)?;
            args.reject_unknown().map_err(err)?;
            let ts = mdmp_data::turbine::generate_series(
                mdmp_data::turbine::SeriesKind::Both,
                &mdmp_data::turbine::TurbineConfig::default_case_study(n, m, 1, seed),
            );
            data_io::write_csv(&output, &ts.series).map_err(err)?;
            println!("wrote {} (startups at {:?})", output.display(), ts.events);
        }
        other => {
            return Err(format!(
                "unknown kind '{other}' (synthetic, genome, turbine)"
            ))
        }
    }
    Ok(())
}

fn sibling(path: &std::path::Path, suffix: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("csv");
    path.with_file_name(format!("{stem}{suffix}.{ext}"))
}

/// `mdmp estimate` — modeled runtime at arbitrary scale, no computation.
pub fn estimate(args: &ParsedArgs) -> CmdResult {
    let n: usize = args.require("n").map_err(err)?;
    let d: usize = args.get_or("d", 64).map_err(err)?;
    let m: usize = args.get_or("m", 64).map_err(err)?;
    let gpus: usize = args.get_or("gpus", 1).map_err(err)?;
    let device = device_spec(
        &args
            .get_or::<String>("device", "a100".into())
            .map_err(err)?,
    )?;
    let cfg = build_config(args, m)?;
    args.reject_unknown().map_err(err)?;

    let mut system = GpuSystem::homogeneous(device.clone(), gpus);
    let est = estimate_run(n, n, d, &cfg, &mut system).map_err(err)?;
    println!(
        "modeled: n={n}, d={d}, m={m}, mode={}, {} tiles on {gpus}x {}",
        cfg.mode, cfg.n_tiles, device.name
    );
    println!("  total          {:>10.3} s", est.modeled_seconds);
    println!("  merge (CPU)    {:>10.3} s", est.merge_seconds);
    for (class, entry) in est.ledger.rows() {
        println!("  {:<14} {:>10.3} s", class.label(), entry.seconds);
    }
    Ok(())
}

/// `mdmp info` — supported devices and precision modes.
pub fn info(args: &ParsedArgs) -> CmdResult {
    args.reject_unknown().map_err(err)?;
    println!("devices:");
    for spec in [
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::skylake_16c(),
    ] {
        println!(
            "  {:<18} {:>3} SMs, {:>5.1} GB, {:>7.0} GB/s, {:>4.1} TFLOP/s FP64",
            spec.name,
            spec.sms,
            spec.mem_bytes as f64 / 1e9,
            spec.mem_bandwidth / 1e9,
            spec.fp64_flops / 1e12,
        );
    }
    println!("\nprecision modes:");
    for mode in PrecisionMode::ALL {
        println!(
            "  {:<9} precalc {:<9} main loop {:<9} {}",
            mode.label(),
            mode.precalc_format().to_string(),
            mode.main_format().to_string(),
            if mode.compensated_precalc() {
                "(Kahan-compensated precalculation)"
            } else {
                ""
            }
        );
    }
    Ok(())
}

/// Usage text.
pub fn usage() -> String {
    let modes = PrecisionMode::ALL
        .map(|mode| mode.label().to_ascii_lowercase())
        .join("|");
    format!(
        "mdmp — multi-dimensional matrix profile with reduced precision (IPDPS'22 reproduction)

USAGE: mdmp <command> [options]

Options take a value as `--key value` or `--key=value`; flags take none.

COMMANDS:
  compute   --reference <csv> [--query <csv>] --m <len> --output <csv>
            [--mode MODE] [--tiles N] [--gpus N] [--device a100|v100|cpu]
            [--schedule rr|balanced] [--self-join] [--no-clamp] [--report]
            [--anytime FRACTION] [--seed S] [--repair-dropouts]
            [--host-workers N]  (0 = auto: $MDMP_HOST_WORKERS, else #gpus)
            [--tc-chunk-k 4|8|16]  (TC modes; auto: $MDMP_TC_CHUNK_K)
            [--fault-plan SPEC] [--tile-retries N] [--tile-timeout-ms MS]
            fault-plan SPEC: comma-separated, e.g. \"seed=7,kernel@0,stall@3:40,
            nan@5,flip@2:52,pkernel=0.01,attempts=1,budget=4,drop\"
  motifs    --profile <csv> --m <len> [--top N] [--k DIMS]
  discords  --profile <csv> --m <len> [--top N] [--k DIMS]
  generate  --kind synthetic|genome|turbine --output <csv>
            [--n N] [--d D] [--m M] [--pattern 0..7] [--seed S] [--len L]
  estimate  --n <segments> [--d D] [--m M] [--mode MODE] [--tiles N]
            [--gpus N] [--device a100|v100|cpu] [--schedule rr|balanced]
  serve     [--addr HOST:PORT] [--workers N] [--devices N] [--queue N]
            [--device a100|v100|cpu] [--cache-mb MB] [--host-workers N]
            — also a cluster worker node
  submit    [--addr HOST:PORT] [--wait] [--timeout S] JOB
  status    [--addr HOST:PORT] [--id JOB] [--metrics] [--shutdown | --abort]
  stream    [--addr HOST:PORT] --reference <csv> [--query <csv>] --m <len>
            [--mode MODE] [--initial N] [--chunk N] — open a streaming
            session on the query head, append the tail chunk by chunk
            (incremental delta tiles server-side), then close
  cluster submit
            --nodes HOST:PORT,HOST:PORT,… JOB [--metrics]
            [--quarantine-threshold N (3)] [--timeout-s S (60)]
            [--cluster-faults SPEC]  (nodedrop@N:S,nodekill@N:S,…)
            — shard the job's tiles across `mdmp serve` nodes and merge
            bit-identically
  info      list devices and precision modes

JOB (submit and cluster submit):
            --m <len> [--mode MODE (fp64)] [--tc-chunk-k 4|8|16]
            [--tiles N (submit 1, cluster 4 per node)] [--gpus N (1)]
            [--priority high|normal|low] [--retries N (0)]
            [--fault-plan SPEC] [--tile-retries N (2)] [--tile-timeout-ms MS]
            [--deadline-ms MS]
            with --reference <csv> [--query <csv>] (server-side paths), or
            synthetic: [--n N (4096)] [--d D (1)] [--pattern 0..7 (0)]
            [--noise X (0.3)] [--seed S (42)]

MODE: {modes}
"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ParsedArgs;

    fn parsed(parts: &[&str]) -> ParsedArgs {
        let raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&raw).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mdmp_cmd_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn generate_then_compute_then_mine_pipeline() {
        let data = tmp("pipeline.csv");
        let gen = parsed(&[
            "generate",
            "--kind",
            "synthetic",
            "--n",
            "256",
            "--d",
            "2",
            "--m",
            "16",
            "--output",
            data.to_str().unwrap(),
        ]);
        generate(&gen).unwrap();
        let query = tmp("pipeline_query.csv");
        assert!(query.exists());

        let profile_path = tmp("pipeline_profile.csv");
        let comp = parsed(&[
            "compute",
            "--reference",
            data.to_str().unwrap(),
            "--query",
            query.to_str().unwrap(),
            "--m",
            "16",
            "--mode",
            "fp32",
            "--tiles",
            "4",
            "--output",
            profile_path.to_str().unwrap(),
        ]);
        compute(&comp).unwrap();
        let profile = profile_io::read_profile(&profile_path).unwrap();
        assert_eq!(profile.n_query(), 256);
        assert_eq!(profile.dims(), 2);

        let motif_args = parsed(&[
            "motifs",
            "--profile",
            profile_path.to_str().unwrap(),
            "--m",
            "16",
            "--top",
            "3",
        ]);
        mine(&motif_args, false).unwrap();
        let discord_args = parsed(&[
            "discords",
            "--profile",
            profile_path.to_str().unwrap(),
            "--m",
            "16",
        ]);
        mine(&discord_args, true).unwrap();

        for p in [&data, &query, &profile_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn compute_without_query_is_a_self_join() {
        let data = tmp("selfjoin.csv");
        let gen = parsed(&[
            "generate",
            "--kind",
            "synthetic",
            "--n",
            "128",
            "--d",
            "1",
            "--m",
            "8",
            "--output",
            data.to_str().unwrap(),
        ]);
        generate(&gen).unwrap();
        let out = tmp("selfjoin_profile.csv");
        let comp = parsed(&[
            "compute",
            "--reference",
            data.to_str().unwrap(),
            "--m",
            "8",
            "--output",
            out.to_str().unwrap(),
        ]);
        compute(&comp).unwrap();
        let profile = profile_io::read_profile(&out).unwrap();
        // Self-join with exclusion: no index equals its own position.
        for j in 0..profile.n_query() {
            assert_ne!(profile.index(j, 0), j as i64);
        }
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(tmp("selfjoin_query.csv")).ok();
    }

    #[test]
    fn anytime_compute_writes_a_partial_profile() {
        let data = tmp("anytime.csv");
        let gen = parsed(&[
            "generate",
            "--kind",
            "synthetic",
            "--n",
            "200",
            "--d",
            "2",
            "--m",
            "16",
            "--output",
            data.to_str().unwrap(),
        ]);
        generate(&gen).unwrap();
        let out = tmp("anytime_profile.csv");
        let comp = parsed(&[
            "compute",
            "--reference",
            data.to_str().unwrap(),
            "--m",
            "16",
            "--anytime",
            "0.5",
            "--output",
            out.to_str().unwrap(),
        ]);
        compute(&comp).unwrap();
        let profile = profile_io::read_profile(&out).unwrap();
        assert_eq!(profile.n_query(), 200);
        // Partial coverage: some entries may be unset, many are set.
        assert!(profile.unset_fraction() < 0.9);
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(tmp("anytime_query.csv")).ok();
    }

    #[test]
    fn anytime_seed_controls_the_diagonal_order() {
        let data = tmp("seeded.csv");
        let gen = parsed(&[
            "generate",
            "--kind",
            "synthetic",
            "--n",
            "200",
            "--d",
            "1",
            "--m",
            "16",
            "--output",
            data.to_str().unwrap(),
        ]);
        generate(&gen).unwrap();
        let run = |seed: &str, tag: &str| {
            let out = tmp(&format!("seeded_profile_{tag}.csv"));
            let comp = parsed(&[
                "compute",
                "--reference",
                data.to_str().unwrap(),
                "--m",
                "16",
                "--anytime",
                "0.3",
                "--seed",
                seed,
                "--output",
                out.to_str().unwrap(),
            ]);
            compute(&comp).unwrap();
            let text = std::fs::read_to_string(&out).unwrap();
            std::fs::remove_file(&out).ok();
            text
        };
        let a1 = run("7", "a1");
        let a2 = run("7", "a2");
        let b = run("8", "b");
        assert_eq!(a1, a2, "same seed must repeat the same partial profile");
        assert_ne!(a1, b, "different seeds must sample different diagonals");
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(tmp("seeded_query.csv")).ok();
    }

    #[test]
    fn repair_dropouts_flag_fixes_nans() {
        let data = tmp("dropouts.csv");
        std::fs::write(
            &data,
            (0..64)
                .map(|t| {
                    if t == 20 {
                        "NaN".to_string()
                    } else {
                        format!("{}", (t as f64 * 0.7).sin())
                    }
                })
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        let out = tmp("dropouts_profile.csv");
        let comp = parsed(&[
            "compute",
            "--reference",
            data.to_str().unwrap(),
            "--m",
            "8",
            "--repair-dropouts",
            "--output",
            out.to_str().unwrap(),
        ]);
        compute(&comp).unwrap();
        let profile = profile_io::read_profile(&out).unwrap();
        assert!(
            profile.unset_fraction() < 0.05,
            "repair should fix the NaN window"
        );
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn fault_plan_flag_retries_to_success_or_fails_typed() {
        let data = tmp("faulty.csv");
        let gen = parsed(&[
            "generate",
            "--kind",
            "synthetic",
            "--n",
            "128",
            "--d",
            "1",
            "--m",
            "8",
            "--output",
            data.to_str().unwrap(),
        ]);
        generate(&gen).unwrap();
        let out = tmp("faulty_profile.csv");
        // A kernel fault on tile 0 with the default retry budget: the run
        // must recover and write a profile.
        let comp = parsed(&[
            "compute",
            "--reference",
            data.to_str().unwrap(),
            "--m",
            "8",
            "--tiles",
            "2",
            "--fault-plan",
            "seed=7,kernel@0",
            "--output",
            out.to_str().unwrap(),
        ]);
        compute(&comp).unwrap();
        assert!(profile_io::read_profile(&out).is_ok());
        // The same fault on every attempt with retries disabled must fail.
        let comp = parsed(&[
            "compute",
            "--reference",
            data.to_str().unwrap(),
            "--m",
            "8",
            "--tiles",
            "2",
            "--fault-plan",
            "seed=7,kernel@0,attempts=all",
            "--tile-retries",
            "0",
            "--output",
            out.to_str().unwrap(),
        ]);
        let msg = compute(&comp).unwrap_err();
        assert!(msg.contains("tile 0"), "typed tile error, got: {msg}");
        // A malformed plan is rejected at parse time.
        let comp = parsed(&[
            "compute",
            "--reference",
            data.to_str().unwrap(),
            "--m",
            "8",
            "--fault-plan",
            "explode@0",
            "--output",
            out.to_str().unwrap(),
        ]);
        assert!(compute(&comp).is_err());
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(tmp("faulty_query.csv")).ok();
    }

    #[test]
    fn estimate_and_info_run() {
        let est = parsed(&["estimate", "--n", "4096", "--d", "16", "--mode", "fp16"]);
        estimate(&est).unwrap();
        info(&parsed(&["info"])).unwrap();
        let err = info(&parsed(&["info", "--verbose"])).unwrap_err();
        assert_eq!(err, "unknown option --verbose");
    }

    #[test]
    fn bad_inputs_produce_errors_not_panics() {
        assert!(device_spec("tpu").is_err());
        assert!(schedule("magic").is_err());
        let comp = parsed(&[
            "compute",
            "--reference",
            "/nonexistent.csv",
            "--m",
            "8",
            "--output",
            "/tmp/x.csv",
        ]);
        assert!(compute(&comp).is_err());
        let gen = parsed(&["generate", "--kind", "nope", "--output", "/tmp/x.csv"]);
        assert!(generate(&gen).is_err());
        let gen2 = parsed(&[
            "generate",
            "--kind",
            "synthetic",
            "--pattern",
            "99",
            "--output",
            "/tmp/x.csv",
        ]);
        assert!(generate(&gen2).is_err());
    }

    #[test]
    fn tc_chunk_flag_parses_and_rejects() {
        for value in ["4", "8", "16"] {
            let est = parsed(&[
                "estimate",
                "--n",
                "512",
                "--mode",
                "fp16-tc",
                "--tc-chunk-k",
                value,
            ]);
            estimate(&est).unwrap();
        }
        let bad = parsed(&["estimate", "--n", "512", "--tc-chunk-k", "5"]);
        assert!(estimate(&bad).unwrap_err().contains("--tc-chunk-k"));
    }

    #[test]
    fn unknown_option_is_rejected() {
        let est = parsed(&["estimate", "--n", "1024", "--bogus", "3"]);
        assert!(estimate(&est).is_err());
    }
}
