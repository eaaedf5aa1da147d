//! The `mdmp-cluster` command line: `serve` runs one worker node (a plain
//! `mdmp-service` endpoint), `submit` shards a job across a set of nodes
//! through [`crate::run_cluster`]. The `mdmp` umbrella binary forwards
//! `mdmp cluster …` here, so both entry points share one implementation.

use crate::coordinator::{run_cluster, ClusterConfig};
use mdmp_core::MdmpConfig;
use mdmp_faults::{ClusterFaultPlan, FaultPlan};
use mdmp_gpu_sim::DeviceSpec;
use mdmp_precision::PrecisionMode;
use mdmp_service::{serve as serve_tcp, JobInput, JobSpec, Priority, Service, ServiceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Boolean flags (no value token follows them).
const FLAGS: [&str; 2] = ["metrics", "help"];

/// Minimal `--key value` / `--flag` parser for the cluster subcommands.
struct Args {
    values: BTreeMap<String, String>,
    flags: BTreeSet<String>,
    seen: std::cell::RefCell<BTreeSet<String>>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut flags = BTreeSet::new();
        let mut it = raw.iter().peekable();
        while let Some(token) = it.next() {
            let name = token
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{token}' (expected --key)"))?;
            if FLAGS.contains(&name) {
                flags.insert(name.to_string());
                continue;
            }
            // No value follows: a value option missing its value, or a
            // flag this parser does not know.
            let value = it.next_if(|v| !v.starts_with("--")).ok_or_else(|| {
                if usage().contains(&format!("--{name} ")) {
                    format!("--{name} needs a value")
                } else {
                    format!("unknown option --{name}")
                }
            })?;
            values.insert(name.to_string(), value.clone());
        }
        Ok(Args {
            values,
            flags,
            seen: std::cell::RefCell::new(BTreeSet::new()),
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.seen.borrow_mut().insert(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(raw) => raw
                .parse::<T>()
                .map_err(|e| format!("--{key} '{raw}': {e}")),
            None => Ok(default),
        }
    }

    fn get_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("--{key} '{raw}': {e}")),
            None => Ok(None),
        }
    }

    fn require<T: FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            Some(raw) => raw
                .parse::<T>()
                .map_err(|e| format!("--{key} '{raw}': {e}")),
            None => Err(format!("missing required --{key}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    fn reject_unknown(&self) -> Result<(), String> {
        let seen = self.seen.borrow();
        for key in self.values.keys() {
            if !seen.contains(key) {
                return Err(format!("unknown option --{key}"));
            }
        }
        Ok(())
    }
}

/// Usage text for both the standalone binary and `mdmp cluster`.
pub fn usage() -> &'static str {
    "mdmp-cluster — distributed tile-sharding coordinator

  serve   run one worker node (an mdmp-service TCP endpoint)
          --addr A (127.0.0.1:7661) --workers N (2) --devices N (2)
          --queue N (64) --cache-mb N (256) --host-workers N (0=auto)
          --device a100|v100|cpu (a100)

  submit  shard a job across worker nodes and merge bit-identically
          --nodes host:port,host:port,…   (required)
          --m N (required)
          --mode fp64|fp32|fp16|mixed|fp16c|fp16-tc|bf16-tc|tf32-tc (fp64)
          --tc-chunk-k 4|8|16 (TC modes: env MDMP_TC_CHUNK_K, else format default)
          --tiles N (4 per node) --gpus N (1) --priority P (normal)
          --n N (4096) --d N (1) --pattern N (0) --noise X (0.3) --seed N (42)
          --reference FILE [--query FILE]   (CSV instead of synthetic)
          --tile-retries N (2) --tile-timeout-ms MS --fault-plan SPEC
          --quarantine-threshold N (3) --timeout-s S (60)
          --cluster-faults SPEC (nodedrop@N:S,nodekill@N:S,…) --metrics
          --wire auto|json (auto; env MDMP_WIRE=json forces JSON lines)"
}

/// Run one cluster subcommand from raw arguments (`raw[0]` is the
/// subcommand).
pub fn run(raw: &[String]) -> Result<(), String> {
    match raw.first().map(String::as_str) {
        Some("serve") => serve(&Args::parse(&raw[1..])?),
        Some("submit") => submit(&Args::parse(&raw[1..])?),
        Some("--help") | Some("help") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown cluster subcommand '{other}' (serve, submit)"
        )),
    }
}

fn device_spec(name: &str) -> Result<DeviceSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "a100" => Ok(DeviceSpec::a100()),
        "v100" => Ok(DeviceSpec::v100()),
        "cpu" | "skylake" => Ok(DeviceSpec::skylake_16c()),
        other => Err(format!("unknown device '{other}' (a100, v100, cpu)")),
    }
}

/// `mdmp-cluster serve` — run one worker node until a `shutdown` request
/// has been fully served.
fn serve(args: &Args) -> Result<(), String> {
    let addr = args.get_or("addr", "127.0.0.1:7661".to_string())?;
    let workers: usize = args.get_or("workers", 2)?;
    let queue: usize = args.get_or("queue", 64)?;
    let devices: usize = args.get_or("devices", 2)?;
    let cache_mb: u64 = args.get_or("cache-mb", 256)?;
    let host_workers: usize = args.get_or("host-workers", 0)?;
    let device = device_spec(&args.get_or("device", "a100".to_string())?)?;
    args.reject_unknown()?;
    if workers == 0 || devices == 0 || queue == 0 {
        return Err("--workers, --devices and --queue must be positive".into());
    }

    let service = Service::start(ServiceConfig {
        workers,
        queue_capacity: queue,
        device: device.clone(),
        devices,
        cache_bytes: cache_mb << 20,
        host_workers,
        ..ServiceConfig::default()
    });
    let mut server = serve_tcp(Arc::clone(&service), &addr).map_err(|e| e.to_string())?;
    println!(
        "mdmp-cluster node listening on {} ({workers} workers, {devices}x {})",
        server.local_addr(),
        device.name
    );
    println!(
        "stop with: mdmp status --addr {} --shutdown",
        server.local_addr()
    );
    while !server.shutdown_served() {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.stop();
    println!("mdmp-cluster node stopped");
    Ok(())
}

/// Build the distributable job spec from `submit` arguments.
fn job_spec(args: &Args, n_nodes: usize) -> Result<JobSpec, String> {
    let input = match args.get_opt::<String>("reference")? {
        Some(reference) => JobInput::Csv {
            reference: reference.into(),
            query: args.get_opt::<String>("query")?.map(Into::into),
        },
        None => JobInput::Synthetic {
            n: args.get_or("n", 4096)?,
            d: args.get_or("d", 1)?,
            pattern: args.get_or("pattern", 0)?,
            noise: args.get_or("noise", 0.3)?,
            seed: args.get_or("seed", 42)?,
        },
    };
    let fault_plan = match args.get_opt::<String>("fault-plan")? {
        Some(spec) => Some(Arc::new(
            spec.parse::<FaultPlan>()
                .map_err(|e| format!("--fault-plan: {e}"))?,
        )),
        None => None,
    };
    let m: usize = args.require("m")?;
    let mode = args
        .get_or("mode", "fp64".to_string())?
        .parse::<PrecisionMode>()?;
    let tc_chunk_k = match args.get_opt::<usize>("tc-chunk-k")? {
        Some(k) => {
            if !mdmp_gpu_sim::MMA_CHUNK_SIZES.contains(&k) {
                return Err(format!(
                    "--tc-chunk-k must be one of {:?}, got {k}",
                    mdmp_gpu_sim::MMA_CHUNK_SIZES
                ));
            }
            Some(k)
        }
        // For TC modes, pin the chunk at the coordinator (env override or
        // format default, same precedence as a local run): the accumulator
        // layout is part of the numerical contract, and letting each node
        // resolve its own MDMP_TC_CHUNK_K would let differing node
        // environments break cluster-vs-single-node bit-identity.
        None => mode
            .tc_input()
            .map(|input| MdmpConfig::new(m, mode).resolved_tc_chunk_k(input)),
    };
    Ok(JobSpec {
        input,
        m,
        mode,
        // Default to a few tiles per node so sharding and stealing have
        // something to work with.
        tiles: args.get_or("tiles", (n_nodes * 4).max(1))?,
        gpus: args.get_or("gpus", 1)?,
        priority: args
            .get_or("priority", "normal".to_string())?
            .parse::<Priority>()?,
        max_retries: 0,
        fault_plan,
        tile_retries: args.get_or("tile-retries", 2)?,
        fused_rows: None,
        tc_chunk_k,
        tile_deadline_ms: args.get_opt("tile-timeout-ms")?,
        deadline_ms: None,
    })
}

/// `mdmp-cluster submit` — run one job across the cluster.
fn submit(args: &Args) -> Result<(), String> {
    let nodes: Vec<String> = args
        .require::<String>("nodes")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if nodes.is_empty() {
        return Err("--nodes needs at least one host:port".into());
    }
    let spec = job_spec(args, nodes.len())?;
    let mut cluster = ClusterConfig::new(nodes);
    cluster.quarantine_threshold = args.get_or("quarantine-threshold", 3)?;
    cluster.request_timeout = Duration::from_secs_f64(args.get_or("timeout-s", 60.0)?);
    if let Some(plan) = args.get_opt::<String>("cluster-faults")? {
        cluster.fault_plan = plan
            .parse::<ClusterFaultPlan>()
            .map_err(|e| format!("--cluster-faults: {e}"))?;
    }
    if let Some(wire) = args.get_opt::<String>("wire")? {
        cluster.wire = match wire.to_ascii_lowercase().as_str() {
            "auto" | "binary" => mdmp_service::WirePreference::Auto,
            "json" => mdmp_service::WirePreference::Json,
            other => return Err(format!("--wire must be auto or json, got '{other}'")),
        };
    }
    let metrics = args.flag("metrics");
    args.reject_unknown()?;

    let run = run_cluster(&spec, &cluster).map_err(|e| e.to_string())?;
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
        "wire: {} sent / {} received over {}/{} binary-frame nodes",
        run.wire_bytes_sent(),
        run.wire_bytes_received(),
        run.binary_wire_nodes(),
        run.nodes.len()
    );
    for (i, node) in run.nodes.iter().enumerate() {
        println!(
            "node {i} {}: merged {} stolen {} failures {} device {:.6}s wire {}/{}B {}{}",
            node.addr,
            node.tiles_merged,
            node.tiles_stolen,
            node.failures,
            node.device_seconds,
            node.bytes_sent,
            node.bytes_received,
            if node.binary_wire { "binary" } else { "json" },
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

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_subcommand_and_options_are_rejected() {
        assert!(run(&raw(&["frobnicate"])).is_err());
        let args = Args::parse(&raw(&["--bogus", "1"])).unwrap();
        assert!(args.reject_unknown().is_err());
        assert!(Args::parse(&raw(&["positional"])).is_err());
        assert!(Args::parse(&raw(&["--m"])).is_err());
    }

    #[test]
    fn no_speculate_is_an_unknown_option() {
        for line in [
            "submit --nodes 127.0.0.1:1 --m 8 --no-speculate",
            "submit --no-speculate --nodes 127.0.0.1:1 --m 8",
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            let err = run(&raw(&args)).unwrap_err();
            assert_eq!(err, "unknown option --no-speculate", "{line}");
        }
        let err = run(&raw(&["submit", "--nodes", "127.0.0.1:1", "--m"])).unwrap_err();
        assert_eq!(err, "--m needs a value");
    }

    #[test]
    fn job_spec_defaults_scale_tiles_with_nodes() {
        let args = Args::parse(&raw(&["--m", "8"])).unwrap();
        let spec = job_spec(&args, 3).unwrap();
        assert_eq!(spec.tiles, 12);
        assert_eq!(spec.m, 8);
        assert!(matches!(spec.input, JobInput::Synthetic { .. }));
    }

    #[test]
    fn submit_requires_nodes() {
        let err = submit(&Args::parse(&raw(&["--m", "8"])).unwrap()).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
    }

    #[test]
    fn cluster_fault_spec_is_parsed() {
        let args = Args::parse(&raw(&["--cluster-faults", "bogus"])).unwrap();
        let mut cluster = ClusterConfig::new(vec!["x".into()]);
        let result = args
            .get_opt::<String>("cluster-faults")
            .unwrap()
            .unwrap()
            .parse::<ClusterFaultPlan>();
        assert!(result.is_err());
        cluster.fault_plan = "nodekill@1:0".parse().unwrap();
        assert!(cluster.fault_plan.kills_node(1));
    }
}
