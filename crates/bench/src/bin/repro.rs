//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <command> [--quick]
//!
//! commands:
//!   fig2        numerical accuracy sweeps (A, R vs n, d, m)      [functional]
//!   fig3        per-pattern embedded-motif recall P0-P7          [functional]
//!   fig4        kernel time breakdown vs n and d                 [modelled]
//!   fig5        DGX-1 (1-8 V100) scaling + efficiency            [modelled]
//!   fig6        CPU vs V100 vs A100 across n, d, m               [modelled]
//!   fig7        accuracy-performance tradeoff vs tile count      [both]
//!   fig9        HPC-ODA classification F-score + runtime         [functional]
//!   fig10       genome recall/time vs tile count                 [both]
//!   fig12       turbine relaxed recall per pair class            [functional]
//!   table1      turbine pair-category counts
//!   headline    the 54x / 41.6x / 1.4x / 3.8x headline numbers   [modelled]
//!   utilization Nsight-style per-kernel utilization              [modelled]
//!   fig8        classifier timeline strip (Fig. 8)               [functional]
//!   fig11       startup + primitive pattern shapes as CSV
//!   multinode   multi-node scaling, lease protocol replay        [modelled]
//!   schedule    round-robin vs balanced tile scheduling ablation [modelled]
//!   modes-ext   all modes incl. BF16 / TF32 / FP8                [functional]
//!   clamp       correlation-overshoot clamp ablation             [functional]
//!   anytime     SCRIMP-style anytime convergence extension       [functional]
//!   tc          tensor-core GEMM modes vs the FP64 pipeline,
//!               also writes BENCH_PR7.json                       [both]
//!   all         everything above
//!
//! --quick shrinks the functional problem sizes (CI-friendly).
//! Tables are printed and saved to results/*.csv.
//! ```

use mdmp_bench::experiments::{accuracy, case_studies, extensions, performance, tc, tradeoff};
use mdmp_bench::report::{self, ExperimentTable};
use std::time::Instant;

fn emit_all(tables: Vec<ExperimentTable>) {
    tables.iter().for_each(report::emit);
}

fn run(command: &str, quick: bool) -> bool {
    let start = Instant::now();
    match command {
        "fig2" => emit_all(accuracy::fig2(quick)),
        "fig3" => emit_all(vec![accuracy::fig3(quick)]),
        "fig4" => emit_all(performance::fig4()),
        "fig5" => emit_all(performance::fig5()),
        "fig6" => emit_all(performance::fig6()),
        "fig7" => emit_all(vec![tradeoff::fig7_time(), tradeoff::fig7_accuracy(quick)]),
        "fig9" => emit_all(vec![case_studies::fig9(quick)]),
        "fig10" => emit_all(case_studies::fig10(quick)),
        "fig12" => emit_all(case_studies::fig12(quick)),
        "table1" => emit_all(vec![case_studies::table1()]),
        "headline" => emit_all(vec![performance::headline()]),
        "utilization" => emit_all(vec![performance::utilization()]),
        "fig8" => emit_all(vec![extensions::fig8(quick)]),
        "fig11" => emit_all(extensions::fig11()),
        "multinode" => emit_all(vec![extensions::multinode()]),
        "schedule" => emit_all(vec![extensions::schedule_ablation()]),
        "modes-ext" => emit_all(vec![extensions::extended_modes(quick)]),
        "clamp" => emit_all(vec![extensions::clamp_ablation(quick)]),
        "anytime" => emit_all(vec![extensions::anytime_convergence(quick)]),
        "tc" => {
            let table = tc::tc_sweep(quick);
            match tc::write_bench_json(&table, quick, std::path::Path::new("BENCH_PR7.json")) {
                Ok(path) => println!("   -> wrote {}", path.display()),
                Err(e) => eprintln!("   !! could not write BENCH_PR7.json: {e}"),
            }
            emit_all(vec![table]);
        }
        "all" => {
            for cmd in [
                "table1",
                "headline",
                "utilization",
                "fig4",
                "fig5",
                "fig6",
                "fig11",
                "multinode",
                "schedule",
                "fig2",
                "fig3",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig12",
                "modes-ext",
                "clamp",
                "anytime",
                "tc",
            ] {
                println!("\n########## repro {cmd} ##########");
                run(cmd, quick);
            }
        }
        other => {
            eprintln!("unknown command '{other}'");
            return false;
        }
    }
    println!(
        "\n[{command}] finished in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let commands: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if commands.is_empty() {
        eprintln!(
            "usage: repro <fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|table1|headline|utilization|multinode|schedule|modes-ext|clamp|anytime|tc|all> [--quick]"
        );
        std::process::exit(2);
    }
    let mut ok = true;
    for cmd in commands {
        ok &= run(cmd, quick);
    }
    if !ok {
        std::process::exit(2);
    }
}
