//! `mdmp cluster submit`: shard one job's tiles across `mdmp serve` worker
//! nodes through [`mdmp_cluster::run_cluster`] and merge them
//! bit-identically. The job comes from the same builder as `mdmp submit`
//! ([`crate::serve::job_spec`]).

use crate::args::ParsedArgs;
use crate::serve::job_spec;
use mdmp_cluster::{run_cluster, ClusterConfig, ClusterRun};
use mdmp_faults::ClusterFaultPlan;
use mdmp_service::JobSpec;
use std::time::Duration;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The job and coordinator settings of a `cluster submit` command line,
/// plus whether `--metrics` was given.
fn plan(args: &ParsedArgs) -> Result<(JobSpec, ClusterConfig, bool), String> {
    let nodes: Vec<String> = args
        .require::<String>("nodes")
        .map_err(err)?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if nodes.is_empty() {
        return Err("--nodes needs at least one host:port".into());
    }
    // A few tiles per node so sharding and stealing have something to
    // work with.
    let spec = job_spec(args, nodes.len() * 4)?;
    let mut cluster = ClusterConfig::new(nodes);
    cluster.quarantine_threshold = args
        .get_or("quarantine-threshold", cluster.quarantine_threshold)
        .map_err(err)?;
    if let Some(seconds) = args.get::<f64>("timeout-s").map_err(err)? {
        cluster.request_timeout =
            Duration::try_from_secs_f64(seconds).map_err(|e| format!("--timeout-s: {e}"))?;
    }
    if let Some(faults) = args
        .get::<ClusterFaultPlan>("cluster-faults")
        .map_err(err)?
    {
        cluster.fault_plan = faults;
    }
    let metrics = args.flag("metrics");
    args.reject_unknown().map_err(err)?;
    Ok((spec, cluster, metrics))
}

/// Parse a `cluster submit` command line and run its job; returns the run
/// and whether `--metrics` was given.
fn run(args: &ParsedArgs) -> Result<(ClusterRun, bool), String> {
    let (spec, cluster, metrics) = plan(args)?;
    let run = run_cluster(&spec, &cluster).map_err(err)?;
    Ok((run, metrics))
}

/// `mdmp cluster submit` — run one job across the cluster.
pub fn submit(args: &ParsedArgs) -> Result<(), String> {
    let (run, metrics) = run(args)?;
    println!(
        "merged {} tiles into a {} x {} profile in {:.3}s wall",
        run.tiles_total,
        run.profile.n_query(),
        run.profile.dims(),
        run.wall_seconds
    );
    println!(
        "steals {} redispatches {} duplicates dropped {} precalc {}h/{}m",
        run.steals,
        run.redispatches,
        run.duplicates_dropped,
        run.precalc_hits(),
        run.precalc_misses()
    );
    println!(
        "modelled makespan {:.6}s -> {:.1} tiles/s",
        run.modelled_makespan_seconds(),
        run.modelled_tiles_per_second()
    );
    println!(
        "wire: {} sent / {} received",
        run.wire_bytes_sent(),
        run.wire_bytes_received()
    );
    for (i, node) in run.nodes.iter().enumerate() {
        println!(
            "node {i} {}: merged {} stolen {} failures {} device {:.6}s wire {}/{}B{}",
            node.addr,
            node.tiles_merged,
            node.tiles_stolen,
            node.failures,
            node.device_seconds,
            node.bytes_sent,
            node.bytes_received,
            if node.quarantined { " QUARANTINED" } else { "" }
        );
    }
    if metrics {
        print!("{}", run.metrics_text());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdmp_service::{job_spec_json, parse_job_spec, serve, JobInput, Service, ServiceConfig};
    use std::sync::Arc;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// Parse and run a full `mdmp` command line.
    fn mdmp(line: &str) -> Result<(), String> {
        crate::dispatch(&ParsedArgs::parse(&words(line)).map_err(err)?)
    }

    fn parsed(line: &str) -> ParsedArgs {
        ParsedArgs::parse(&words(line)).unwrap()
    }

    #[test]
    fn unknown_subcommand_and_options_are_rejected() {
        assert!(mdmp("cluster frobnicate").is_err());
        let serve = mdmp("cluster serve --addr 127.0.0.1:0").unwrap_err();
        assert!(serve.contains("`mdmp serve`"), "{serve}");
        let err = mdmp("cluster submit --nodes 127.0.0.1:1 --m 8 --bogus 1").unwrap_err();
        assert_eq!(err, "unknown option --bogus");
        assert!(mdmp("cluster submit positional").is_err());
        let err = mdmp("cluster submit --nodes 127.0.0.1:1 --wire json --m 8").unwrap_err();
        assert_eq!(err, "unknown option --wire");
    }

    #[test]
    fn no_speculate_is_an_unknown_option() {
        for line in [
            "cluster submit --nodes 127.0.0.1:1 --m 8 --no-speculate",
            "cluster submit --no-speculate --nodes 127.0.0.1:1 --m 8",
        ] {
            let err = mdmp(line).unwrap_err();
            assert_eq!(err, "unknown option --no-speculate", "{line}");
        }
        let err = mdmp("cluster submit --nodes 127.0.0.1:1 --m").unwrap_err();
        assert_eq!(err, "--m needs a value");
    }

    #[test]
    fn job_spec_defaults_scale_tiles_with_nodes() {
        let (spec, cluster, metrics) =
            plan(&parsed("cluster submit --nodes a:1,b:2,c:3 --m 8")).unwrap();
        assert_eq!(spec.tiles, 12);
        assert_eq!(spec.m, 8);
        assert!(matches!(spec.input, JobInput::Synthetic { .. }));
        assert_eq!(cluster.nodes, ["a:1", "b:2", "c:3"]);
        assert!(!metrics);
    }

    #[test]
    fn submit_requires_nodes() {
        let err = mdmp("cluster submit --m 8").unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
        let err = mdmp("cluster submit --nodes , --m 8").unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
    }

    #[test]
    fn cluster_fault_spec_is_parsed() {
        let err = mdmp("cluster submit --nodes x:1 --m 8 --cluster-faults bogus").unwrap_err();
        assert!(err.contains("--cluster-faults"), "{err}");
        let line = "cluster submit --nodes x:1,y:2 --m 8 --cluster-faults nodekill@1:0 \
                    --quarantine-threshold 2 --timeout-s 1.5 --metrics";
        let (_, cluster, metrics) = plan(&parsed(line)).unwrap();
        assert!(cluster.fault_plan.kills_node(1));
        assert_eq!(cluster.quarantine_threshold, 2);
        assert_eq!(cluster.request_timeout, Duration::from_millis(1500));
        assert!(metrics);
        let err = mdmp("cluster submit --nodes x:1 --m 8 --timeout-s -1").unwrap_err();
        assert!(err.contains("--timeout-s"), "{err}");
    }

    /// Every job option of the old `submit` and `cluster submit` usage
    /// texts gives the same `JobSpec` through both commands (bar the
    /// `tiles` default), and the server decodes the encoded job back to
    /// that spec.
    #[test]
    fn submit_and_cluster_submit_build_the_same_job() {
        let lines = [
            "--m 8",
            "--m 16 --mode fp16 --tiles 6 --gpus 2 --priority high",
            "--m 16 --mode=fp16-tc --tc-chunk-k 8",
            "--m 16 --mode bf16-tc",
            "--m 32 --n 1000 --d 3 --pattern 2 --noise 0.125 --seed 9",
            "--m 8 --reference /data/r.csv",
            "--m 8 --reference /data/r.csv --query /data/q.csv --mode e4m3",
            "--m 8 --tile-retries 5 --tile-timeout-ms 1000 --fault-plan seed=7,kernel@0,stall@3:40",
            "--m 8 --retries 3 --deadline-ms 500 --priority low",
        ];
        for line in lines {
            let submit = parsed(&format!("submit --addr 127.0.0.1:1 --wait {line}"));
            let mut single = job_spec(&submit, 1).unwrap();
            let _ = submit.get::<String>("addr");
            let _ = submit.flag("wait");
            submit.reject_unknown().unwrap();

            let cluster = parsed(&format!("cluster submit --nodes a:1,b:2 --metrics {line}"));
            let (mut sharded, _, _) = plan(&cluster).unwrap();

            let given = line.contains("--tiles");
            assert_eq!(single.tiles, if given { 6 } else { 1 }, "{line}");
            assert_eq!(sharded.tiles, if given { 6 } else { 8 }, "{line}");
            single.tiles = 0;
            sharded.tiles = 0;
            assert_eq!(format!("{single:?}"), format!("{sharded:?}"), "{line}");

            let sent = job_spec_json(&single).unwrap();
            let decoded = parse_job_spec(&sent).unwrap();
            assert_eq!(format!("{decoded:?}"), format!("{single:?}"), "{line}");
            assert_eq!(job_spec_json(&decoded).unwrap(), sent, "{line}");
        }
    }

    #[test]
    fn usage_lists_every_cluster_submit_option() {
        let usage = crate::commands::usage();
        for option in [
            "nodes",
            "metrics",
            "quarantine-threshold",
            "timeout-s",
            "cluster-faults",
            "m",
            "mode",
            "tc-chunk-k",
            "tiles",
            "gpus",
            "priority",
            "retries",
            "fault-plan",
            "tile-retries",
            "tile-timeout-ms",
            "deadline-ms",
            "reference",
            "query",
            "n",
            "d",
            "pattern",
            "noise",
            "seed",
        ] {
            let listed = usage
                .match_indices(&format!("--{option}"))
                .any(|(at, found)| {
                    !usage[at + found.len()..]
                        .starts_with(|c: char| c.is_ascii_lowercase() || c == '-')
                });
            assert!(listed, "--{option}");
        }
        assert!(!usage.contains("--wire"));
    }

    /// `cluster submit` end to end: the real parser against two
    /// in-process `serve` nodes, clean and then with node 1 killed on its
    /// first request.
    #[test]
    fn cluster_submit_runs_against_two_serve_nodes() {
        let nodes: Vec<_> = (0..2)
            .map(|_| {
                let service = Service::start(ServiceConfig {
                    workers: 1,
                    devices: 1,
                    ..ServiceConfig::default()
                });
                let server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
                (service, server)
            })
            .collect();
        let addrs: Vec<String> = nodes
            .iter()
            .map(|(_, server)| server.local_addr().to_string())
            .collect();
        let line = format!(
            "cluster submit --nodes {} --n 64 --m 8 --mode fp32 --seed 5",
            addrs.join(",")
        );
        mdmp(&line).unwrap();
        let (clean, _) = run(&parsed(&line)).unwrap();
        assert_eq!(clean.tiles_total, 8);
        assert!(clean.nodes.iter().all(|node| !node.quarantined));

        let (killed, _) = run(&parsed(&format!("{line} --cluster-faults nodekill@1:0"))).unwrap();
        assert_eq!(killed.tiles_total, 8);
        assert!(!killed.nodes[0].quarantined);
        assert!(killed.nodes[1].quarantined);
        assert_eq!(killed.nodes[1].tiles_merged, 0);
        assert!(killed.redispatches >= 1);
        let bits = |run: &ClusterRun| -> Vec<(u64, i64)> {
            let p = &run.profile;
            (0..p.dims())
                .flat_map(|k| {
                    (0..p.n_query()).map(move |j| (p.value(j, k).to_bits(), p.index(j, k)))
                })
                .collect()
        };
        assert_eq!(
            bits(&killed),
            bits(&clean),
            "a killed node must not change the profile"
        );

        for (service, mut server) in nodes {
            server.stop();
            service.shutdown(false);
        }
    }
}
