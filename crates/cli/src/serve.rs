//! The `serve`, `submit`, `status` and `stream` subcommands: run the job
//! service behind its TCP endpoint and talk to it as a client.

use crate::args::ParsedArgs;
use crate::commands::device_spec;
use mdmp_data::io as data_io;
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultPlan;
use mdmp_precision::PrecisionMode;
use mdmp_service::{
    job_spec_json, request, serve as serve_tcp, Chunk, JobInput, JobSpec, Json, Message, Priority,
    Service, ServiceConfig, WireConn, WirePreference,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

type CmdResult = Result<(), String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// `mdmp serve` — run the job service until a `shutdown` request arrives.
pub fn serve(args: &ParsedArgs) -> CmdResult {
    let addr: String = args.get_or("addr", "127.0.0.1:7661".into()).map_err(err)?;
    let workers: usize = args.get_or("workers", 2).map_err(err)?;
    let queue: usize = args.get_or("queue", 64).map_err(err)?;
    let devices: usize = args.get_or("devices", 2).map_err(err)?;
    let cache_mb: u64 = args.get_or("cache-mb", 256).map_err(err)?;
    // Host worker threads per run; 0 = auto (env, else leased GPU count).
    let host_workers: usize = args.get_or("host-workers", 0).map_err(err)?;
    let device = device_spec(
        &args
            .get_or::<String>("device", "a100".into())
            .map_err(err)?,
    )?;
    args.reject_unknown().map_err(err)?;
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
    let mut server = serve_tcp(Arc::clone(&service), &addr).map_err(err)?;
    println!(
        "mdmp-service listening on {} ({workers} workers, {devices}x {}, queue {queue}, cache {cache_mb} MiB)",
        server.local_addr(),
        device.name
    );
    println!(
        "stop with: mdmp status --addr {} --shutdown",
        server.local_addr()
    );
    // Wait until a shutdown request has been fully served — the service
    // drained (or aborted) AND the response line reached the client.
    // Exiting on `is_shutting_down()` alone would kill the process
    // mid-drain, severing the client connection before its reply.
    while !server.shutdown_served() {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.stop();
    println!("mdmp-service stopped");
    Ok(())
}

/// The job a `submit` or `cluster submit` command line describes: one
/// builder, so both commands share every default except `tiles`, which
/// defaults to `default_tiles`.
pub fn job_spec(args: &ParsedArgs, default_tiles: usize) -> Result<JobSpec, String> {
    let input = match args.get::<PathBuf>("reference").map_err(err)? {
        Some(reference) => JobInput::Csv {
            reference,
            query: args.get("query").map_err(err)?,
        },
        None => JobInput::Synthetic {
            n: args.get_or("n", 4096).map_err(err)?,
            d: args.get_or("d", 1).map_err(err)?,
            pattern: args.get_or("pattern", 0).map_err(err)?,
            noise: args.get_or("noise", 0.3).map_err(err)?,
            seed: args.get_or("seed", 42).map_err(err)?,
        },
    };
    Ok(JobSpec {
        input,
        m: args.require("m").map_err(err)?,
        mode: args.get_or("mode", PrecisionMode::Fp64).map_err(err)?,
        tiles: args.get_or("tiles", default_tiles).map_err(err)?,
        gpus: args.get_or("gpus", 1).map_err(err)?,
        priority: args.get_or("priority", Priority::Normal).map_err(err)?,
        max_retries: args.get_or("retries", 0).map_err(err)?,
        fault_plan: args
            .get::<FaultPlan>("fault-plan")
            .map_err(err)?
            .map(Arc::new),
        tile_retries: args.get_or("tile-retries", 2).map_err(err)?,
        fused_rows: None,
        tc_chunk_k: crate::commands::tc_chunk_k_arg(args)?,
        tile_deadline_ms: args.get("tile-timeout-ms").map_err(err)?,
        deadline_ms: args.get("deadline-ms").map_err(err)?,
    })
}

fn check_ok(response: &Json) -> Result<(), String> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("request failed")
            .to_string())
    }
}

/// `mdmp submit` — send a job to a running service.
pub fn submit(args: &ParsedArgs) -> CmdResult {
    let addr: String = args.get_or("addr", "127.0.0.1:7661".into()).map_err(err)?;
    let wait = args.flag("wait");
    let timeout: f64 = args.get_or("timeout", 300.0).map_err(err)?;
    let job = job_spec_json(&job_spec(args, 1)?)?;
    args.reject_unknown().map_err(err)?;

    let response = request(
        &addr,
        &Json::obj(vec![("op", Json::str("submit")), ("job", job)]),
    )
    .map_err(err)?;
    check_ok(&response)?;
    let id = response
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("malformed response: no id")?;
    println!("submitted job {id}");
    if !wait {
        return Ok(());
    }
    let response = request(
        &addr,
        &Json::obj(vec![
            ("op", Json::str("wait")),
            ("id", Json::num(id as f64)),
            ("timeout_seconds", Json::num(timeout)),
        ]),
    )
    .map_err(err)?;
    check_ok(&response)?;
    let job = response.get("job").ok_or("malformed response: no job")?;
    print_job(job);
    match job.get("state").and_then(Json::as_str) {
        Some("done") => Ok(()),
        Some(state) => Err(format!("job {id} ended as {state}")),
        None => Err("malformed response: no state".into()),
    }
}

fn print_job(job: &Json) {
    let field = |k: &str| job.get(k).map(|v| v.to_string()).unwrap_or_default();
    println!(
        "job {} [{}] priority {} attempts {} queued {}s",
        field("id"),
        job.get("state").and_then(Json::as_str).unwrap_or("?"),
        job.get("priority").and_then(Json::as_str).unwrap_or("?"),
        field("attempts"),
        field("queue_seconds"),
    );
    if let Some(error) = job.get("error").and_then(Json::as_str) {
        println!("  error: {error}");
    }
    if let Some(outcome) = job.get("outcome") {
        let of = |k: &str| outcome.get(k).map(|v| v.to_string()).unwrap_or_default();
        println!(
            "  profile {} segments x {} dims; modeled {} s, wall {} s",
            of("n_query"),
            of("dims"),
            of("modeled_seconds"),
            of("wall_seconds"),
        );
        println!(
            "  precalc cache: {} hits, {} misses",
            of("precalc_hits"),
            of("precalc_misses")
        );
        if let Some(motifs) = outcome.get("motifs").and_then(Json::as_arr) {
            for motif in motifs {
                let mf = |k: &str| motif.get(k).map(|v| v.to_string()).unwrap_or_default();
                println!(
                    "  motif dim {}: query {} <-> reference {} distance {}",
                    mf("dim"),
                    mf("query"),
                    mf("reference"),
                    mf("distance")
                );
            }
        }
    }
}

/// A window of a series as binary chunks: one float chunk per dimension,
/// appended to `out`.
fn samples_chunks(series: &MultiDimSeries, start: usize, len: usize, out: &mut Vec<Chunk>) {
    for k in 0..series.dims() {
        out.push(Chunk::F64(series.dim(k)[start..start + len].to_vec()));
    }
}

/// One request/response on the streaming session's persistent connection,
/// checked for `ok`.
fn stream_request(conn: &mut WireConn, msg: &Message) -> Result<Json, String> {
    let reply = conn.request(msg).map_err(err)?;
    check_ok(&reply.json)?;
    Ok(reply.json)
}

/// `mdmp stream` — drive a live streaming session against a running
/// service: open it on the head of the query series, append the rest in
/// chunks (each an incremental delta-tile append on the server), then
/// close. Prints the per-append reuse accounting the server reports.
pub fn stream(args: &ParsedArgs) -> CmdResult {
    let addr: String = args.get_or("addr", "127.0.0.1:7661".into()).map_err(err)?;
    let m: usize = args.require("m").map_err(err)?;
    let mode: String = args.get_or("mode", "fp64".into()).map_err(err)?;
    let reference_path: String = args.require("reference").map_err(err)?;
    let query_path: Option<String> = args.get("query").map_err(err)?;
    // Samples the session opens with; the rest arrive as appends.
    let initial: usize = args.get_or("initial", 4 * m).map_err(err)?;
    let chunk: usize = args.get_or("chunk", m).map_err(err)?;
    args.reject_unknown().map_err(err)?;
    if chunk == 0 {
        return Err("--chunk must be positive".into());
    }

    let reference = data_io::read_csv(Path::new(&reference_path)).map_err(err)?;
    let query = match &query_path {
        Some(p) => data_io::read_csv(Path::new(p)).map_err(err)?,
        None => reference.clone(),
    };
    let initial = initial.clamp(m, query.len());

    // One persistent binary-frame connection for the whole session.
    let mut conn = WireConn::connect(&addr, None, WirePreference::Auto).map_err(err)?;
    let mut chunks = Vec::with_capacity(reference.dims() + query.dims());
    samples_chunks(&reference, 0, reference.len(), &mut chunks);
    samples_chunks(&query, 0, initial, &mut chunks);
    let open = Message {
        json: Json::obj(vec![
            ("op", Json::str("stream_open")),
            ("m", Json::num(m as f64)),
            ("mode", Json::str(mode)),
            ("reference_chunks", Json::num(reference.dims() as f64)),
            ("query_chunks", Json::num(query.dims() as f64)),
        ]),
        chunks,
    };
    let response = stream_request(&mut conn, &open)?;
    let session = response
        .get("session")
        .and_then(|s| s.get("session"))
        .and_then(Json::as_u64)
        .ok_or("malformed response: no session id")?;
    println!(
        "session {session} open: {} reference segments, {} of {} query samples",
        reference.len() + 1 - m,
        initial,
        query.len()
    );

    let mut at = initial;
    while at < query.len() {
        let len = chunk.min(query.len() - at);
        let mut chunks = Vec::with_capacity(query.dims());
        samples_chunks(&query, at, len, &mut chunks);
        let append = Message {
            json: Json::obj(vec![
                ("op", Json::str("stream_append")),
                ("session", Json::num(session as f64)),
                ("side", Json::str("query")),
                ("samples_chunks", Json::num(query.dims() as f64)),
            ]),
            chunks,
        };
        let response = stream_request(&mut conn, &append)?;
        at += len;
        let field = |k: &str| response.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  +{len} samples -> {} profile columns ({} segments reused, {} fresh{})",
            response
                .get("session")
                .and_then(|s| s.get("n_query"))
                .map(|v| v.to_string())
                .unwrap_or_default(),
            field("reused_segments"),
            field("fresh_segments"),
            if response.get("reused_precalc").and_then(Json::as_bool) == Some(true) {
                ", cached precalc"
            } else {
                ""
            }
        );
    }

    stream_request(
        &mut conn,
        &Message::json(Json::obj(vec![
            ("op", Json::str("stream_close")),
            ("session", Json::num(session as f64)),
        ])),
    )?;
    println!(
        "session {session} closed ({}B sent, {}B received)",
        conn.bytes_sent(),
        conn.bytes_received()
    );
    Ok(())
}

/// `mdmp status` — query a job, the service stats, the metrics page, or
/// request shutdown.
pub fn status(args: &ParsedArgs) -> CmdResult {
    let addr: String = args.get_or("addr", "127.0.0.1:7661".into()).map_err(err)?;
    let id: Option<u64> = args.get("id").map_err(err)?;
    let metrics = args.flag("metrics");
    let shutdown = args.flag("shutdown");
    let abort = args.flag("abort");
    args.reject_unknown().map_err(err)?;

    if shutdown || abort {
        let response = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("shutdown")),
                ("drain", Json::Bool(!abort)),
            ]),
        )
        .map_err(err)?;
        check_ok(&response)?;
        println!(
            "service stopped ({})",
            if abort { "aborted" } else { "drained" }
        );
        return Ok(());
    }
    if metrics {
        let response =
            request(&addr, &Json::obj(vec![("op", Json::str("metrics"))])).map_err(err)?;
        check_ok(&response)?;
        print!(
            "{}",
            response.get("text").and_then(Json::as_str).unwrap_or("")
        );
        return Ok(());
    }
    if let Some(id) = id {
        let response = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("status")),
                ("id", Json::num(id as f64)),
            ]),
        )
        .map_err(err)?;
        check_ok(&response)?;
        print_job(response.get("job").ok_or("malformed response: no job")?);
        return Ok(());
    }
    let response = request(&addr, &Json::obj(vec![("op", Json::str("stats"))])).map_err(err)?;
    check_ok(&response)?;
    let stats = response
        .get("stats")
        .ok_or("malformed response: no stats")?;
    if let Json::Obj(pairs) = stats {
        println!("service stats at {addr}:");
        for (key, value) in pairs {
            if key == "kernel_seconds" {
                if let Json::Obj(kernels) = value {
                    println!("  kernel seconds:");
                    for (class, seconds) in kernels {
                        println!("    {class:<16} {seconds}");
                    }
                }
            } else {
                println!("  {key:<26} {value}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(parts: &[&str]) -> ParsedArgs {
        let raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&raw).unwrap()
    }

    /// End-to-end over a real socket: serve in-process, submit with
    /// --wait, read stats, shut down.
    #[test]
    fn submit_status_shutdown_round_trip() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let server = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let sub = parsed(&[
            "submit",
            "--addr",
            &addr,
            "--n",
            "64",
            "--m",
            "8",
            "--mode",
            "fp16",
            "--seed",
            "5",
            "--wait",
            "--timeout",
            "60",
        ]);
        submit(&sub).unwrap();

        // Same spec again: every tile precalc now comes from the cache.
        let sub2 = parsed(&[
            "submit",
            "--addr",
            &addr,
            "--n",
            "64",
            "--m",
            "8",
            "--mode",
            "fp16",
            "--seed",
            "5",
            "--wait",
            "--timeout",
            "60",
        ]);
        submit(&sub2).unwrap();
        let stats = service.stats();
        assert!(
            stats.precalc_cache_hits > 0,
            "repeat job must hit the cache"
        );

        status(&parsed(&["status", "--addr", &addr])).unwrap();
        status(&parsed(&["status", "--addr", &addr, "--id", "1"])).unwrap();
        status(&parsed(&["status", "--addr", &addr, "--metrics"])).unwrap();
        status(&parsed(&["status", "--addr", &addr, "--shutdown"])).unwrap();
        assert!(service.is_shutting_down());
        assert!(server.shutdown_served());
        drop(server);
    }

    /// `mdmp stream` end to end: serve in-process, stream a CSV in
    /// chunks, and confirm the session metrics landed.
    #[test]
    fn stream_round_trip() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let server = serve_tcp(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let pair = mdmp_data::synthetic::generate_pair(&mdmp_data::synthetic::SyntheticConfig {
            n_subsequences: 57,
            dims: 2,
            m: 8,
            pattern: mdmp_data::synthetic::Pattern::Sine,
            embeddings: 1,
            noise: 0.3,
            pattern_amplitude: 1.0,
            seed: 11,
        });
        let mut csv = std::env::temp_dir();
        csv.push(format!("mdmp_cli_stream_{}.csv", std::process::id()));
        data_io::write_csv(&csv, &pair.query).unwrap();

        stream(&parsed(&[
            "stream",
            "--addr",
            &addr,
            "--reference",
            csv.to_str().unwrap(),
            "--m",
            "8",
            "--mode",
            "fp16",
            "--initial",
            "40",
            "--chunk",
            "6",
        ]))
        .unwrap();
        std::fs::remove_file(&csv).ok();

        let stats = service.stats();
        assert_eq!(stats.stream_opens, 1);
        // 64 samples: 40 initial + 6+6+6+6 appends.
        assert_eq!(stats.stream_appends, 4);
        assert_eq!(stats.stream_append_failures, 0);
        assert_eq!(stats.stream_precalc_reuses, 4);
        assert_eq!(stats.stream_sessions_open, 0, "session was closed");

        status(&parsed(&["status", "--addr", &addr, "--shutdown"])).unwrap();
    }

    #[test]
    fn submit_to_dead_address_errors() {
        let sub = parsed(&["submit", "--addr", "127.0.0.1:1", "--n", "64", "--m", "8"]);
        assert!(submit(&sub).is_err());
    }

    #[test]
    fn job_json_csv_and_synthetic_forms() {
        let args = parsed(&["submit", "--n", "128", "--m", "8", "--seed", "3"]);
        let synth = job_spec_json(&job_spec(&args, 1).unwrap()).unwrap();
        args.reject_unknown().unwrap();
        assert_eq!(
            synth.to_string(),
            r#"{"input":{"kind":"synthetic","n":128,"d":1,"pattern":0,"noise":0.3,"seed":3},"m":8,"mode":"FP64","tiles":1,"gpus":1,"priority":"normal","tile_retries":2}"#
        );
        let args = parsed(&[
            "submit",
            "--reference",
            "/tmp/r.csv",
            "--query",
            "/tmp/q.csv",
            "--m",
            "8",
        ]);
        let csv = job_spec_json(&job_spec(&args, 1).unwrap()).unwrap();
        args.reject_unknown().unwrap();
        assert_eq!(
            csv.get("input").unwrap().to_string(),
            r#"{"kind":"csv","reference":"/tmp/r.csv","query":"/tmp/q.csv"}"#
        );
        // Synthetic options do not apply to a CSV input.
        let args = parsed(&[
            "submit",
            "--reference",
            "/tmp/r.csv",
            "--n",
            "9",
            "--m",
            "8",
        ]);
        job_spec(&args, 1).unwrap();
        assert_eq!(args.reject_unknown().unwrap_err().0, "unknown option --n");
    }
}
