//! The TCP front end: JSON lines for the handshake and the control ops,
//! binary frames for bulk planes, connections served by one thread each.
//!
//! A connection starts on JSON lines: one request object per line in
//! (at most [`MAX_LINE_BYTES`]), one response object per line out. Every
//! request carries an `"op"`; every response carries `"ok"` (bool) plus
//! either the op's payload or an `"error"` string. Ops:
//!
//! | op              | request fields                                         |
//! |-----------------|--------------------------------------------------------|
//! | `ping`          | —                                                      |
//! | `submit`        | `job` object (see [`parse_job_spec`])                  |
//! | `status`        | `id`                                                   |
//! | `wait`          | `id`, optional `timeout_seconds`                       |
//! | `cancel`        | `id`                                                   |
//! | `stats`         | —                                                      |
//! | `metrics`       | — (returns the Prometheus text page as a string)       |
//! | `stream_status` | `session`                                              |
//! | `stream_close`  | `session`                                              |
//! | `wire_upgrade`  | `version` — switch the connection to binary frames     |
//! | `shutdown`      | optional `drain` (default true)                        |
//! | `stream_open`   | frames: `m`, `mode`, `reference_chunks`[, `query_chunks`] |
//! | `stream_append` | frames: `session`, `side`, `samples_chunks`            |
//! | `tile_exec`     | frames: `job` object, `tiles` (array of tile indices)  |
//!
//! After a `wire_upgrade` (DESIGN.md §15, [`crate::wire`]) every op is
//! served on frames. The three bulk ops are served on frames only: sent
//! as a JSON line they get a typed error, and the connection keeps
//! serving control ops. Streaming series ride as one float chunk per
//! dimension, counted by `reference_chunks`/`query_chunks`/
//! `samples_chunks`.
//!
//! `tile_exec` is the worker half of the cluster tile-lease protocol
//! (DESIGN.md §12): it executes the listed tiles of the job synchronously
//! and returns one entry per tile whose k-major value and index planes
//! ride as the chunks its `p_chunk`/`i_chunk` fields name, bit-exactly.
//! A connection keeps the inputs of the job its last `tile_exec` named
//! (both series and their precalc cache key), so a coordinator that sends
//! every tile of a run down one connection has the node generate and
//! fingerprint the job once; the coordinator itself only sizes the job
//! from its spec ([`JobSpec::shape`]).

use crate::job::{JobInput, JobOutcome, JobSpec, JobStatus, Priority};
use crate::proto::Json;
use crate::scheduler::{JobInputs, Service};
use crate::session::{AppendSide, SessionSummary};
use crate::wire::{Chunk, FrameCodec, Message, WireError, WIRE_VERSION};
use mdmp_core::MdmpConfig;
use mdmp_data::MultiDimSeries;
use mdmp_faults::FaultPlan;
use mdmp_precision::PrecisionMode;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cap on one JSON request line, newline included. Only the handshake and
/// control ops travel as lines, and the largest of them, a `submit` job
/// spec, is well under 1 KB; bulk payloads ride on frames, which have
/// their own cap ([`crate::wire::MAX_FRAME_BYTES`]).
pub const MAX_LINE_BYTES: usize = 64 << 10;

/// A running TCP front end.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served_shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Server {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True once a `shutdown` request has been fully served: the service
    /// finished shutting down (drained or aborted) AND the response line
    /// was flushed back to the client. A host process that exits as soon
    /// as shutdown *starts* would sever the connection mid-drain; wait on
    /// this instead.
    pub fn shutdown_served(&self) -> bool {
        self.served_shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting connections and join the accept loop. Does not shut
    /// the service itself down.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve the protocol on it
/// until [`Server::stop`] or service shutdown.
pub fn serve(service: Arc<Service>, addr: &str) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let served_shutdown = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let served2 = Arc::clone(&served_shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("mdmp-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let svc = Arc::clone(&service);
                let stop3 = Arc::clone(&stop2);
                let served3 = Arc::clone(&served2);
                let _ = std::thread::Builder::new()
                    .name("mdmp-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(&svc, stream, &stop3, &served3);
                    });
            }
        })?;
    Ok(Server {
        local_addr,
        stop,
        served_shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// The metric label for a request's op — a fixed vocabulary so the
/// labeled byte counters can use `&'static str` keys without leaking
/// attacker-chosen label values into the metrics page.
fn op_label(json: Option<&Json>) -> &'static str {
    match json.and_then(|j| j.get("op")).and_then(Json::as_str) {
        Some("ping") => "ping",
        Some("submit") => "submit",
        Some("status") => "status",
        Some("wait") => "wait",
        Some("cancel") => "cancel",
        Some("stats") => "stats",
        Some("metrics") => "metrics",
        Some("stream_open") => "stream_open",
        Some("stream_append") => "stream_append",
        Some("stream_status") => "stream_status",
        Some("stream_close") => "stream_close",
        Some("tile_exec") => "tile_exec",
        Some("wire_upgrade") => "wire_upgrade",
        Some("shutdown") => "shutdown",
        Some(_) => "other",
        None => "invalid",
    }
}

fn handle_connection(
    service: &Service,
    stream: TcpStream,
    stop: &AtomicBool,
    served_shutdown: &AtomicBool,
) -> io::Result<()> {
    // Request/response traffic: Nagle delays hurt and help nothing.
    let _ = stream.set_nodelay(true);
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_request_line(&mut reader, &mut buf, MAX_LINE_BYTES)? {
            RequestLine::Eof => return Ok(()),
            RequestLine::TooLong => {
                // The rest of the line is still in flight; there is no
                // request boundary left to resynchronize on.
                let response = error_response(&format!(
                    "request line exceeds the {MAX_LINE_BYTES}-byte cap"
                ));
                return write_json_line(service, &mut writer, &response, "invalid");
            }
            RequestLine::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let parsed = Json::parse(line.trim());
        let label = op_label(parsed.as_ref().ok());
        service
            .metrics
            .wire_bytes_received
            .add("json", label, line.len() as u64);
        if label == "wire_upgrade" {
            let version = parsed
                .as_ref()
                .ok()
                .and_then(|r| r.get("version"))
                .and_then(Json::as_u64)
                .unwrap_or(u64::from(WIRE_VERSION));
            if version != u64::from(WIRE_VERSION) {
                let response = error_response(&format!("unsupported wire version {version}"));
                write_json_line(service, &mut writer, &response, label)?;
                continue;
            }
            let response = ok_response(vec![
                ("wire", Json::str("binary")),
                ("version", Json::num(f64::from(WIRE_VERSION))),
            ]);
            write_json_line(service, &mut writer, &response, label)?;
            // From here on the connection speaks frames until it closes.
            service.metrics.wire_binary_sessions.inc();
            let result = serve_binary(service, &mut reader, &mut writer, stop, served_shutdown);
            service.metrics.wire_binary_sessions.dec();
            return result;
        }
        let mut shutdown_done = false;
        let response = match &parsed {
            Ok(request) => match dispatch(service, request, stop) {
                // An injected connection fault: sever the stream without a
                // response line, as a crashed server would.
                Reply::Drop => return Ok(()),
                Reply::Json(response) => {
                    shutdown_done = label == "shutdown"
                        && response.get("ok").and_then(Json::as_bool) == Some(true);
                    response
                }
            },
            Err(e) => error_response(&format!("bad request: {e}")),
        };
        let written = write_json_line(service, &mut writer, &response, label);
        if shutdown_done {
            // Mark the shutdown as served only after the response reached
            // the socket (or the write definitively failed), so a host
            // waiting on `Server::shutdown_served` never exits while the
            // reply is still in flight.
            served_shutdown.store(true, Ordering::SeqCst);
            return written;
        }
        written?;
    }
}

/// One JSON request line, as read by [`read_request_line`].
#[derive(Debug, PartialEq)]
enum RequestLine<'a> {
    /// The client closed the connection.
    Eof,
    /// A complete line (newline included, if the stream had one).
    Line(&'a str),
    /// More than `cap` bytes arrived before a newline.
    TooLong,
}

/// Read one request line of at most `cap` bytes, newline included, into
/// `buf`. The read goes through `take(cap + 1)`, so a newline-free stream
/// buffers at most `cap + 1` bytes before it is rejected — the JSON-lines
/// counterpart of the binary frame cap.
fn read_request_line(
    reader: impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<RequestLine<'_>> {
    buf.clear();
    let n = reader.take(cap as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(RequestLine::Eof);
    }
    if n > cap {
        return Ok(RequestLine::TooLong);
    }
    std::str::from_utf8(buf)
        .map(RequestLine::Line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Read one reply line of at most [`MAX_LINE_BYTES`] on the client side
/// of a connection: the server's own cap, so a peer that never sends a
/// newline cannot make a client buffer without limit. End of stream and
/// an over-long line are I/O errors.
pub(crate) fn read_reply_line(reader: impl BufRead, buf: &mut Vec<u8>) -> io::Result<&str> {
    match read_request_line(reader, buf, MAX_LINE_BYTES)? {
        RequestLine::Line(line) => Ok(line),
        RequestLine::Eof => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed by peer",
        )),
        RequestLine::TooLong => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reply line exceeds the {MAX_LINE_BYTES}-byte cap"),
        )),
    }
}

fn write_json_line(
    service: &Service,
    writer: &mut BufWriter<TcpStream>,
    response: &Json,
    label: &'static str,
) -> io::Result<()> {
    let text = response.to_string();
    // Account before the write so a client that has read the reply always
    // sees the counter bumped (a failed write overcounts by one frame,
    // which is the lesser evil).
    service
        .metrics
        .wire_bytes_sent
        .add("json", label, text.len() as u64 + 1);
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    Ok(())
}

/// The binary half of a connection after a successful `wire_upgrade`:
/// read frames, dispatch, answer with frames. Error containment follows
/// the [`WireError`] taxonomy — a corrupt frame gets a typed error reply
/// and the connection continues; lost framing gets one error reply and
/// the connection closes; either way the server stays up.
fn serve_binary(
    service: &Service,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    stop: &AtomicBool,
    served_shutdown: &AtomicBool,
) -> io::Result<()> {
    let mut codec = FrameCodec::new();
    let mut tile_job = None;
    loop {
        match codec.read(reader) {
            Ok(None) => return Ok(()),
            Err(WireError::Io(e)) => {
                // EOF mid-frame or a dead socket: nothing to answer on.
                return Err(e);
            }
            Err(WireError::Corrupt(e)) => {
                service.metrics.wire_frame_errors.inc();
                let reply = Message::json(error_response(&format!("corrupt frame: {e}")));
                write_frame(service, &mut codec, writer, &reply, "invalid")?;
            }
            Err(lost) => {
                // `Desync`: the reply reads "framing lost: …".
                service.metrics.wire_frame_errors.inc();
                let reply = Message::json(error_response(&lost.to_string()));
                let _ = write_frame(service, &mut codec, writer, &reply, "invalid");
                return Ok(());
            }
            Ok(Some((msg, frame_bytes))) => {
                let label = op_label(Some(&msg.json));
                service
                    .metrics
                    .wire_bytes_received
                    .add("binary", label, frame_bytes);
                let reply = match dispatch_binary(service, msg, &mut tile_job, stop) {
                    BinaryReply::Drop => return Ok(()),
                    BinaryReply::Message(reply) => reply,
                };
                let shutdown_done = label == "shutdown"
                    && reply.json.get("ok").and_then(Json::as_bool) == Some(true);
                let written = write_frame(service, &mut codec, writer, &reply, label);
                if shutdown_done {
                    served_shutdown.store(true, Ordering::SeqCst);
                    return written;
                }
                written?;
            }
        }
    }
}

fn write_frame(
    service: &Service,
    codec: &mut FrameCodec,
    writer: &mut BufWriter<TcpStream>,
    reply: &Message,
    label: &'static str,
) -> io::Result<()> {
    let frame = codec
        .encode(reply, true)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    // Account before the write: see `write_json_line`.
    service
        .metrics
        .wire_bytes_sent
        .add("binary", label, frame.len() as u64);
    writer.write_all(frame)?;
    writer.flush()?;
    Ok(())
}

/// What a dispatched request produces: a response line, or an instruction
/// to drop the connection without replying (injected connection fault).
enum Reply {
    Json(Json),
    Drop,
}

fn error_response(message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
    ])
}

fn ok_response(mut payload: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.append(&mut payload);
    Json::obj(pairs)
}

fn dispatch(service: &Service, request: &Json, stop: &AtomicBool) -> Reply {
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return Reply::Json(error_response("missing 'op'"));
    };
    Reply::Json(match op {
        "ping" => ok_response(vec![("pong", Json::Bool(true))]),
        "submit" => {
            let Some(job) = request.get("job") else {
                return Reply::Json(error_response("missing 'job'"));
            };
            match parse_job_spec(job) {
                Err(e) => error_response(&e),
                Ok(spec) => match service.submit(spec) {
                    Ok(id) => ok_response(vec![("id", Json::num(id as f64))]),
                    Err(e) => error_response(&e.to_string()),
                },
            }
        }
        "status" => match request.get("id").and_then(Json::as_u64) {
            None => error_response("missing numeric 'id'"),
            Some(id) => match service.status(id) {
                None => error_response(&format!("unknown job {id}")),
                Some(status) => ok_response(vec![("job", status_json(&status))]),
            },
        },
        "wait" => match request.get("id").and_then(Json::as_u64) {
            None => error_response("missing numeric 'id'"),
            Some(id) => {
                let timeout = request
                    .get("timeout_seconds")
                    .and_then(Json::as_f64)
                    .unwrap_or(60.0)
                    .clamp(0.0, 3600.0);
                let status = service.wait(id, Duration::from_secs_f64(timeout));
                // The job's fault plan may ask for the connection carrying
                // its completion to be severed — once, after the wait, so
                // the client observes a drop exactly where it hurts most.
                if service.take_connection_fault(id) {
                    return Reply::Drop;
                }
                match status {
                    None => error_response(&format!("unknown job {id}")),
                    Some(status) => ok_response(vec![("job", status_json(&status))]),
                }
            }
        },
        "cancel" => match request.get("id").and_then(Json::as_u64) {
            None => error_response("missing numeric 'id'"),
            Some(id) => ok_response(vec![("cancelled", Json::Bool(service.cancel(id)))]),
        },
        "stats" => ok_response(vec![("stats", stats_json(service))]),
        "metrics" => ok_response(vec![("text", Json::str(service.metrics_text()))]),
        "stream_open" | "stream_append" | "tile_exec" => error_response(&format!(
            "{op} needs binary frames (send wire_upgrade first)"
        )),
        "stream_status" => match request.get("session").and_then(Json::as_u64) {
            None => error_response("missing numeric 'session'"),
            Some(id) => match service.sessions.summary(id) {
                None => error_response(&format!("unknown session {id}")),
                Some(summary) => ok_response(vec![("session", summary_json(&summary))]),
            },
        },
        "stream_close" => match request.get("session").and_then(Json::as_u64) {
            None => error_response("missing numeric 'session'"),
            Some(id) => ok_response(vec![("closed", Json::Bool(service.stream_close(id)))]),
        },
        "shutdown" => {
            let drain = request.get("drain").and_then(Json::as_bool).unwrap_or(true);
            stop.store(true, Ordering::SeqCst);
            service.shutdown(drain);
            ok_response(vec![("stopped", Json::Bool(true))])
        }
        other => error_response(&format!("unknown op '{other}'")),
    })
}

/// What a binary-mode dispatch produces: a response frame, or an
/// instruction to drop the connection (injected connection fault).
enum BinaryReply {
    Message(Message),
    Drop,
}

/// The job a binary connection's `tile_exec`s last named: its wire form
/// and its inputs, materialized once for as long as later requests name
/// an equal job object.
type TileJob = (Json, JobInputs);

/// Dispatch one decoded frame. The bulk ops (`tile_exec`, `stream_open`,
/// `stream_append`) are served here; the control ops reuse [`dispatch`]
/// wrapped in a chunkless frame. Takes the message by value so chunk
/// planes move instead of copying.
fn dispatch_binary(
    service: &Service,
    msg: Message,
    tile_job: &mut Option<TileJob>,
    stop: &AtomicBool,
) -> BinaryReply {
    match msg.json.get("op").and_then(Json::as_str) {
        Some("tile_exec") => BinaryReply::Message(tile_exec(service, &msg.json, tile_job)),
        Some("stream_open") => BinaryReply::Message(Message::json(stream_open(service, msg))),
        Some("stream_append") => BinaryReply::Message(Message::json(stream_append(service, msg))),
        _ => match dispatch(service, &msg.json, stop) {
            Reply::Drop => BinaryReply::Drop,
            Reply::Json(response) => BinaryReply::Message(Message::json(response)),
        },
    }
}

/// The wire form of a job spec, as [`parse_job_spec`] reads it back:
/// `parse_job_spec(&job_spec_json(spec)?)` is `spec`. `max_retries` and
/// `deadline_ms` are written only when they differ from their defaults.
/// In-memory inputs cannot be shipped.
pub fn job_spec_json(spec: &JobSpec) -> Result<Json, String> {
    let input = match &spec.input {
        JobInput::Synthetic {
            n,
            d,
            pattern,
            noise,
            seed,
        } => Json::obj(vec![
            ("kind", Json::str("synthetic")),
            ("n", Json::num(*n as f64)),
            ("d", Json::num(*d as f64)),
            ("pattern", Json::num(*pattern as f64)),
            ("noise", Json::num(*noise)),
            ("seed", Json::num(*seed as f64)),
        ]),
        JobInput::Csv { reference, query } => {
            let mut pairs = vec![
                ("kind", Json::str("csv")),
                ("reference", Json::str(reference.to_string_lossy())),
            ];
            if let Some(query) = query {
                pairs.push(("query", Json::str(query.to_string_lossy())));
            }
            Json::obj(pairs)
        }
        JobInput::InMemory { .. } => {
            return Err("in-memory jobs cannot be distributed across nodes".into())
        }
    };
    let mut pairs = vec![
        ("input", input),
        ("m", Json::num(spec.m as f64)),
        ("mode", Json::str(spec.mode.label())),
        ("tiles", Json::num(spec.tiles as f64)),
        ("gpus", Json::num(spec.gpus as f64)),
        ("priority", Json::str(spec.priority.label())),
        ("tile_retries", Json::num(spec.tile_retries as f64)),
    ];
    if let Some(plan) = &spec.fault_plan {
        pairs.push(("fault_plan", Json::str(plan.to_string())));
    }
    if let Some(k) = spec.tc_chunk_k {
        pairs.push(("tc_chunk_k", Json::num(k as f64)));
    }
    if let Some(ms) = spec.tile_deadline_ms {
        pairs.push(("tile_deadline_ms", Json::num(ms as f64)));
    }
    if spec.max_retries != 0 {
        pairs.push(("max_retries", Json::num(spec.max_retries as f64)));
    }
    if let Some(ms) = spec.deadline_ms {
        pairs.push(("deadline_ms", Json::num(ms as f64)));
    }
    Ok(Json::obj(pairs))
}

/// Parse the wire form of a job spec.
///
/// ```json
/// {"input": {"kind": "synthetic", "n": 512, "d": 2, "pattern": 0,
///            "noise": 0.3, "seed": 7},
///  "m": 64, "mode": "fp16", "tiles": 4, "gpus": 1,
///  "priority": "normal", "max_retries": 1}
/// ```
///
/// A CSV input instead reads `{"kind": "csv", "reference": "...",
/// "query": "..."}` (omit `query` for a self-join).
///
/// Resilience fields (all optional): `fault_plan` is a fault-plan spec
/// string (e.g. `"seed=7,kernel@0,stall@3:40"`), `tile_retries` the
/// per-tile retry budget (default 2), `tile_deadline_ms` the per-kernel
/// deadline, `deadline_ms` the whole-job deadline.
///
/// A synthetic input the generator cannot produce (`n = 0`, `d = 0`,
/// `m < 2`, `n < 4m`, an unknown pattern) is refused here
/// ([`JobSpec::check_input`]), so neither `submit` nor `tile_exec` hands
/// it to a thread that would panic generating it.
pub fn parse_job_spec(job: &Json) -> Result<JobSpec, String> {
    let input = job.get("input").ok_or("missing 'input'")?;
    let kind = input
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing input 'kind'")?;
    let input = match kind {
        "synthetic" => JobInput::Synthetic {
            n: input
                .get("n")
                .and_then(Json::as_u64)
                .ok_or("synthetic input needs 'n'")? as usize,
            d: input.get("d").and_then(Json::as_u64).unwrap_or(1) as usize,
            pattern: input.get("pattern").and_then(Json::as_u64).unwrap_or(0) as usize,
            // `+ 0.0` folds `-0` into `0`: JSON numbers compare by value, and
            // a connection that keeps a job's inputs (`tile_exec`) takes two
            // equal job objects for the same series.
            noise: input.get("noise").and_then(Json::as_f64).unwrap_or(0.3) + 0.0,
            seed: input.get("seed").and_then(Json::as_u64).unwrap_or(42),
        },
        "csv" => JobInput::Csv {
            reference: input
                .get("reference")
                .and_then(Json::as_str)
                .ok_or("csv input needs 'reference'")?
                .into(),
            query: input
                .get("query")
                .and_then(Json::as_str)
                .map(std::path::PathBuf::from),
        },
        other => return Err(format!("unknown input kind '{other}'")),
    };
    let mode = match job.get("mode").and_then(Json::as_str) {
        Some(s) => s.parse::<PrecisionMode>()?,
        None => PrecisionMode::Fp64,
    };
    let priority = match job.get("priority").and_then(Json::as_str) {
        Some(s) => s.parse::<Priority>()?,
        None => Priority::Normal,
    };
    let fault_plan = match job.get("fault_plan").and_then(Json::as_str) {
        Some(spec) => Some(Arc::new(
            spec.parse::<FaultPlan>()
                .map_err(|e| format!("fault_plan: {e}"))?,
        )),
        None => None,
    };
    let spec = JobSpec {
        input,
        m: job.get("m").and_then(Json::as_u64).ok_or("missing 'm'")? as usize,
        mode,
        tiles: job.get("tiles").and_then(Json::as_u64).unwrap_or(1) as usize,
        gpus: job.get("gpus").and_then(Json::as_u64).unwrap_or(1) as usize,
        priority,
        max_retries: job.get("max_retries").and_then(Json::as_u64).unwrap_or(0) as u32,
        fault_plan,
        tile_retries: job.get("tile_retries").and_then(Json::as_u64).unwrap_or(2) as u32,
        fused_rows: None,
        tc_chunk_k: job
            .get("tc_chunk_k")
            .and_then(Json::as_u64)
            .map(|k| k as usize),
        tile_deadline_ms: job.get("tile_deadline_ms").and_then(Json::as_u64),
        deadline_ms: job.get("deadline_ms").and_then(Json::as_u64),
    };
    spec.check_input()?;
    Ok(spec)
}

fn status_json(status: &JobStatus) -> Json {
    let mut pairs = vec![
        ("id", Json::num(status.id as f64)),
        ("state", Json::str(status.state.label())),
        ("priority", Json::str(status.priority.label())),
        ("attempts", Json::num(status.attempts as f64)),
        ("queue_seconds", Json::num(status.queue_seconds)),
    ];
    if let Some(run) = status.run_seconds {
        pairs.push(("run_seconds", Json::num(run)));
    }
    if let Some(error) = &status.error {
        pairs.push(("error", Json::str(error.clone())));
    }
    if let Some(outcome) = &status.outcome {
        pairs.push(("outcome", outcome_json(outcome)));
    }
    Json::obj(pairs)
}

/// The wire summary of a finished job: profile shape plus the per-dimension
/// best match (motif). The full profile stays on the server.
fn outcome_json(outcome: &JobOutcome) -> Json {
    let profile = &outcome.profile;
    let mut motifs = Vec::new();
    for k in 0..profile.dims() {
        let mut best = (f64::INFINITY, -1i64, 0usize);
        for j in 0..profile.n_query() {
            let v = profile.value(j, k);
            if v < best.0 {
                best = (v, profile.index(j, k), j);
            }
        }
        motifs.push(Json::obj(vec![
            ("dim", Json::num(k as f64)),
            ("query", Json::num(best.2 as f64)),
            ("reference", Json::num(best.1 as f64)),
            ("distance", Json::num(best.0)),
        ]));
    }
    Json::obj(vec![
        ("n_query", Json::num(profile.n_query() as f64)),
        ("dims", Json::num(profile.dims() as f64)),
        ("unset_fraction", Json::num(profile.unset_fraction())),
        ("modeled_seconds", Json::num(outcome.modeled_seconds)),
        ("wall_seconds", Json::num(outcome.wall_seconds)),
        ("precalc_hits", Json::num(outcome.precalc_hits as f64)),
        ("precalc_misses", Json::num(outcome.precalc_misses as f64)),
        ("motifs", Json::Arr(motifs)),
    ])
}

fn stats_json(service: &Service) -> Json {
    let s = service.stats();
    Json::obj(vec![
        ("jobs_submitted", Json::num(s.jobs_submitted as f64)),
        ("jobs_rejected", Json::num(s.jobs_rejected as f64)),
        ("jobs_completed", Json::num(s.jobs_completed as f64)),
        ("jobs_failed", Json::num(s.jobs_failed as f64)),
        ("jobs_cancelled", Json::num(s.jobs_cancelled as f64)),
        ("jobs_retried", Json::num(s.jobs_retried as f64)),
        ("queue_depth", Json::num(s.queue_depth as f64)),
        ("jobs_running", Json::num(s.jobs_running as f64)),
        ("devices_leased", Json::num(s.devices_leased as f64)),
        ("precalc_cache_hits", Json::num(s.precalc_cache_hits as f64)),
        (
            "precalc_cache_misses",
            Json::num(s.precalc_cache_misses as f64),
        ),
        (
            "precalc_cache_evictions",
            Json::num(s.precalc_cache_evictions as f64),
        ),
        (
            "precalc_cache_bytes",
            Json::num(s.precalc_cache_bytes as f64),
        ),
        (
            "precalc_cache_hit_rate",
            Json::num(s.precalc_cache_hit_rate),
        ),
        (
            "precalc_single_flight_waits",
            Json::num(s.precalc_single_flight_waits as f64),
        ),
        ("host_workers", Json::num(s.host_workers as f64)),
        ("tc_chunk_k", Json::num(s.tc_chunk_k as f64)),
        ("pool_thread_reuses", Json::num(s.pool_thread_reuses as f64)),
        ("buffer_pool_reuses", Json::num(s.buffer_pool_reuses as f64)),
        ("buffer_pool_allocs", Json::num(s.buffer_pool_allocs as f64)),
        ("tile_retries", Json::num(s.tile_retries as f64)),
        (
            "plane_validation_failures",
            Json::num(s.plane_validation_failures as f64),
        ),
        (
            "devices_quarantined",
            Json::num(s.devices_quarantined as f64),
        ),
        (
            "connection_drops_injected",
            Json::num(s.connection_drops_injected as f64),
        ),
        ("stream_opens", Json::num(s.stream_opens as f64)),
        ("stream_appends", Json::num(s.stream_appends as f64)),
        (
            "stream_append_failures",
            Json::num(s.stream_append_failures as f64),
        ),
        (
            "stream_precalc_reuses",
            Json::num(s.stream_precalc_reuses as f64),
        ),
        (
            "stream_segments_reused",
            Json::num(s.stream_segments_reused as f64),
        ),
        (
            "stream_segments_fresh",
            Json::num(s.stream_segments_fresh as f64),
        ),
        (
            "stream_sessions_open",
            Json::num(s.stream_sessions_open as f64),
        ),
        ("wire_bytes_sent", Json::num(s.wire_bytes_sent as f64)),
        (
            "wire_bytes_received",
            Json::num(s.wire_bytes_received as f64),
        ),
        (
            "wire_binary_sessions",
            Json::num(s.wire_binary_sessions as f64),
        ),
        ("wire_frame_errors", Json::num(s.wire_frame_errors as f64)),
        (
            "mean_stream_append_seconds",
            Json::num(s.mean_stream_append_seconds),
        ),
        (
            "worker_busy_seconds",
            Json::Arr(
                s.worker_busy_seconds
                    .iter()
                    .map(|&b| Json::num(b))
                    .collect(),
            ),
        ),
        (
            "mean_queue_wait_seconds",
            Json::num(s.mean_queue_wait_seconds),
        ),
        ("mean_run_seconds", Json::num(s.mean_run_seconds)),
        (
            "kernel_seconds",
            Json::Obj(
                s.kernel_seconds
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Parse a `tile_exec` request's job object, its spec and the tile list.
fn parse_tile_exec(request: &Json) -> Result<(&Json, JobSpec, Vec<usize>), String> {
    let job = request.get("job").ok_or("missing 'job'")?;
    let spec = parse_job_spec(job)?;
    let tiles = request
        .get("tiles")
        .and_then(Json::as_arr)
        .ok_or("missing 'tiles' array")?;
    if tiles.is_empty() {
        return Err("'tiles' must name at least one tile".into());
    }
    let mut indices = Vec::with_capacity(tiles.len());
    for t in tiles {
        match t.as_u64() {
            Some(i) => indices.push(i as usize),
            None => return Err("tile indices must be non-negative integers".into()),
        }
    }
    Ok((job, spec, indices))
}

/// Serve a `tile_exec` request: parse the job spec and tile list, execute
/// the subset synchronously, and return one entry per tile — identity
/// (`tile`, `col0`), shape (`n_query`, `dims`), the modelled device
/// seconds it cost — whose k-major planes (the
/// [`mdmp_core::MatrixProfile::from_raw`] order) ride as the frame chunks
/// its `p_chunk`/`i_chunk` indices name.
///
/// The job's inputs come from `tile_job` when its job object equals the
/// request's; otherwise they are materialized and replace it, so a
/// connection holds one job's series and generates or reads them once.
fn tile_exec(service: &Service, request: &Json, tile_job: &mut Option<TileJob>) -> Message {
    let (job, spec, indices) = match parse_tile_exec(request) {
        Ok(parsed) => parsed,
        Err(e) => return Message::json(error_response(&e)),
    };
    // A different job's series are dropped (by `filter`) before this
    // job's are materialized, so a connection never holds two jobs' inputs.
    let (job, inputs) = match tile_job.take().filter(|(cached, _)| cached == job) {
        Some(kept) => kept,
        None => match service.materialize_tile_job(&spec) {
            Ok(inputs) => (job.clone(), inputs),
            Err(e) => return Message::json(error_response(&e)),
        },
    };
    let run = service.execute_tiles(&spec, &inputs, &indices);
    *tile_job = Some((job, inputs));
    match run {
        Err(e) => Message::json(error_response(&e)),
        Ok(run) => {
            let mut chunks = Vec::with_capacity(run.results.len() * 2);
            let mut tiles = Vec::with_capacity(run.results.len());
            let mut values = Vec::new();
            let mut indices = Vec::new();
            for result in &run.results {
                let profile = &result.profile;
                mdmp_core::profile_planes_k_major(profile, &mut values, &mut indices);
                let p_chunk = chunks.len();
                chunks.push(Chunk::F64(std::mem::take(&mut values)));
                let i_chunk = chunks.len();
                chunks.push(Chunk::I64(std::mem::take(&mut indices)));
                tiles.push(Json::obj(vec![
                    ("tile", Json::num(result.tile.index as f64)),
                    ("col0", Json::num(result.tile.col0 as f64)),
                    ("n_query", Json::num(profile.n_query() as f64)),
                    ("dims", Json::num(profile.dims() as f64)),
                    ("p_chunk", Json::num(p_chunk as f64)),
                    ("i_chunk", Json::num(i_chunk as f64)),
                    ("device_seconds", Json::num(result.device_seconds)),
                    ("precalc_hit", Json::Bool(result.precalc_cached)),
                ]));
            }
            let quarantined = run
                .quarantined_devices
                .iter()
                .map(|&d| Json::num(d as f64))
                .collect();
            Message {
                json: ok_response(vec![
                    ("tiles", Json::Arr(tiles)),
                    ("precalc_hits", Json::num(run.precalc_hits as f64)),
                    ("precalc_misses", Json::num(run.precalc_misses as f64)),
                    ("tile_retries", Json::num(run.tile_retries as f64)),
                    (
                        "plane_validation_failures",
                        Json::num(run.plane_validation_failures as f64),
                    ),
                    ("quarantined_devices", Json::Arr(quarantined)),
                ]),
                chunks,
            }
        }
    }
}

fn summary_json(summary: &SessionSummary) -> Json {
    Json::obj(vec![
        ("session", Json::num(summary.id as f64)),
        ("n_query", Json::num(summary.n_query as f64)),
        ("n_reference", Json::num(summary.n_reference as f64)),
        ("dims", Json::num(summary.dims as f64)),
    ])
}

/// Parse the `m` and `mode` fields of a `stream_open` request.
fn parse_stream_config(request: &Json) -> Result<(usize, PrecisionMode), String> {
    let m = match request.get("m").and_then(Json::as_u64) {
        Some(m) if m >= 2 => m as usize,
        _ => return Err("missing 'm' (>= 2)".into()),
    };
    let mode = match request.get("mode").and_then(Json::as_str) {
        Some(s) => s.parse::<PrecisionMode>()?,
        None => PrecisionMode::Fp64,
    };
    Ok((m, mode))
}

fn append_report_json(report: &crate::session::AppendReport) -> Json {
    ok_response(vec![
        ("session", summary_json(&report.summary)),
        ("reused_precalc", Json::Bool(report.reused_precalc)),
        ("reused_segments", Json::num(report.reused_segments as f64)),
        ("fresh_segments", Json::num(report.fresh_segments as f64)),
    ])
}

/// Pull `count` float chunks off the frame as per-dimension sample
/// slices.
fn chunk_series(
    chunks: &mut std::vec::IntoIter<Chunk>,
    count: usize,
    what: &str,
) -> Result<Vec<Vec<f64>>, String> {
    if count == 0 {
        return Err(format!("{what} needs at least one dimension"));
    }
    // The declared count is client-controlled (any u64 the JSON header
    // carries); cap it by what the frame actually holds before sizing
    // the allocation.
    if count > chunks.len() {
        return Err(format!("{what}: frame carries fewer chunks than declared"));
    }
    let mut dims = Vec::with_capacity(count);
    for _ in 0..count {
        match chunks.next() {
            Some(Chunk::F64(samples)) => dims.push(samples),
            Some(Chunk::I64(_)) => return Err(format!("{what}: expected float chunks")),
            None => return Err(format!("{what}: frame carries fewer chunks than declared")),
        }
    }
    Ok(dims)
}

/// Build a series from per-dimension slices, reporting raggedness as a
/// typed error (`from_dims` asserts equal lengths).
fn series_from_dims(dims: Vec<Vec<f64>>) -> Result<MultiDimSeries, String> {
    let len = dims.first().map_or(0, Vec::len);
    if dims.iter().any(|d| d.len() != len) {
        return Err("all dimensions must have the same length".into());
    }
    Ok(MultiDimSeries::from_dims(dims))
}

/// Serve a `stream_open`: its series arrive as binary chunks — one float
/// chunk per dimension, `reference_chunks` of them, then `query_chunks`
/// (omit for a self-join).
fn stream_open(service: &Service, msg: Message) -> Json {
    let request = &msg.json;
    let (m, mode) = match parse_stream_config(request) {
        Ok(config) => config,
        Err(e) => return error_response(&e),
    };
    let Some(ref_count) = request.get("reference_chunks").and_then(Json::as_u64) else {
        return error_response("missing numeric 'reference_chunks'");
    };
    let query_count = request.get("query_chunks").and_then(Json::as_u64);
    let mut chunks = msg.chunks.into_iter();
    let reference = match chunk_series(&mut chunks, ref_count as usize, "reference")
        .and_then(series_from_dims)
    {
        Ok(series) => series,
        Err(e) => return error_response(&format!("reference: {e}")),
    };
    let query = match query_count {
        Some(count) => {
            match chunk_series(&mut chunks, count as usize, "query").and_then(series_from_dims) {
                Ok(series) => series,
                Err(e) => return error_response(&format!("query: {e}")),
            }
        }
        None => reference.clone(),
    };
    if chunks.next().is_some() {
        return error_response("frame carries more chunks than declared");
    }
    match service.stream_open(reference, query, MdmpConfig::new(m, mode)) {
        Ok(summary) => ok_response(vec![("session", summary_json(&summary))]),
        Err(e) => error_response(&e),
    }
}

/// Serve a `stream_append`: its samples arrive as binary chunks — one
/// float chunk per dimension, `samples_chunks` of them.
fn stream_append(service: &Service, msg: Message) -> Json {
    let request = &msg.json;
    let Some(id) = request.get("session").and_then(Json::as_u64) else {
        return error_response("missing numeric 'session'");
    };
    let side = match request.get("side").and_then(Json::as_str) {
        Some(s) => match s.parse::<AppendSide>() {
            Ok(side) => side,
            Err(e) => return error_response(&e),
        },
        None => AppendSide::Query,
    };
    let Some(count) = request.get("samples_chunks").and_then(Json::as_u64) else {
        return error_response("missing numeric 'samples_chunks'");
    };
    let mut chunks = msg.chunks.into_iter();
    let samples = match chunk_series(&mut chunks, count as usize, "samples") {
        Ok(samples) => samples,
        Err(e) => return error_response(&format!("samples: {e}")),
    };
    if chunks.next().is_some() {
        return error_response("frame carries more chunks than declared");
    }
    match service.stream_append(id, side, &samples) {
        Ok(report) => append_report_json(&report),
        Err(e) => error_response(&e),
    }
}

/// One-shot client helper: connect, send `request` as one line, read one
/// response line of at most [`MAX_LINE_BYTES`].
pub fn request(addr: &str, request: &Json) -> io::Result<Json> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    writeln!(stream, "{request}")?;
    stream.flush()?;
    let mut buf = Vec::new();
    let line = read_reply_line(BufReader::new(stream), &mut buf)?;
    Json::parse(line.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServiceConfig;
    use crate::wire::{WireConn, WirePreference};

    /// A binary-frame connection to `addr`.
    fn frames(addr: &str) -> WireConn {
        WireConn::connect(addr, None, WirePreference::Auto).unwrap()
    }

    /// One request frame built from `pairs` and `chunks`; the reply's JSON.
    fn call(conn: &mut WireConn, pairs: Vec<(&str, Json)>, chunks: Vec<Chunk>) -> Json {
        let request = Message {
            json: Json::obj(pairs),
            chunks,
        };
        conn.request(&request).unwrap().json
    }

    #[test]
    fn request_lines_are_bounded() {
        let cap = 16;
        let mut buf = Vec::new();
        // Exactly `cap` bytes, newline included: accepted, and the next
        // line is read from where it ended.
        let exact = format!("{}\n{{}}\n", "x".repeat(cap - 1));
        let mut reader = exact.as_bytes();
        let first = read_request_line(&mut reader, &mut buf, cap).unwrap();
        assert_eq!(first, RequestLine::Line(&exact[..cap]));
        let second = read_request_line(&mut reader, &mut buf, cap).unwrap();
        assert_eq!(second, RequestLine::Line("{}\n"));
        let end = read_request_line(&mut reader, &mut buf, cap).unwrap();
        assert_eq!(end, RequestLine::Eof);
        // One byte over the cap: rejected.
        let over = format!("{}\n", "x".repeat(cap));
        let mut reader = over.as_bytes();
        let got = read_request_line(&mut reader, &mut buf, cap).unwrap();
        assert_eq!(got, RequestLine::TooLong);
        // A newline-free stream is rejected after buffering `cap + 1`
        // bytes, not read to the end.
        let endless = vec![b'x'; 64 * cap];
        let mut reader = endless.as_slice();
        let got = read_request_line(&mut reader, &mut buf, cap).unwrap();
        assert_eq!(got, RequestLine::TooLong);
        assert_eq!(buf.len(), cap + 1);
        assert_eq!(reader.len(), 64 * cap - cap - 1);
    }

    fn wave(offset: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| ((t + offset) as f64 * 0.23).sin() + 0.01 * (t % 7) as f64)
            .collect()
    }

    #[test]
    fn ping_submit_wait_over_tcp() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let pong = request(&addr, &Json::obj(vec![("op", Json::str("ping"))])).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));

        let job = Json::obj(vec![
            (
                "input",
                Json::obj(vec![
                    ("kind", Json::str("synthetic")),
                    ("n", Json::num(48.0)),
                    ("d", Json::num(1.0)),
                    ("seed", Json::num(7.0)),
                ]),
            ),
            ("m", Json::num(8.0)),
            ("mode", Json::str("fp32")),
        ]);
        let submitted = request(
            &addr,
            &Json::obj(vec![("op", Json::str("submit")), ("job", job)]),
        )
        .unwrap();
        assert_eq!(submitted.get("ok"), Some(&Json::Bool(true)), "{submitted}");
        let id = submitted.get("id").unwrap().as_u64().unwrap();

        let done = request(
            &addr,
            &Json::obj(vec![
                ("op", Json::str("wait")),
                ("id", Json::num(id as f64)),
                ("timeout_seconds", Json::num(30.0)),
            ]),
        )
        .unwrap();
        let job = done.get("job").unwrap();
        assert_eq!(job.get("state").unwrap().as_str(), Some("done"), "{done}");
        let outcome = job.get("outcome").unwrap();
        assert!(outcome.get("n_query").unwrap().as_u64().unwrap() > 0);

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn streaming_session_over_tcp() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut conn = frames(&addr);

        let opened = call(
            &mut conn,
            vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(8.0)),
                ("reference_chunks", Json::num(1.0)),
                ("query_chunks", Json::num(1.0)),
            ],
            vec![Chunk::F64(wave(0, 80)), Chunk::F64(wave(29, 48))],
        );
        assert_eq!(opened.get("ok"), Some(&Json::Bool(true)), "{opened}");
        let session = opened
            .get("session")
            .unwrap()
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();

        let appended = call(
            &mut conn,
            vec![
                ("op", Json::str("stream_append")),
                ("session", Json::num(session as f64)),
                ("side", Json::str("query")),
                ("samples_chunks", Json::num(1.0)),
            ],
            vec![Chunk::F64(wave(77, 16))],
        );
        assert_eq!(appended.get("ok"), Some(&Json::Bool(true)), "{appended}");
        let n_query = appended
            .get("session")
            .unwrap()
            .get("n_query")
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(n_query, (48 - 8 + 1) + 16);
        assert_eq!(
            appended.get("reused_precalc"),
            Some(&Json::Bool(true)),
            "{appended}"
        );

        let closed = call(
            &mut conn,
            vec![
                ("op", Json::str("stream_close")),
                ("session", Json::num(session as f64)),
            ],
            Vec::new(),
        );
        assert_eq!(closed.get("closed"), Some(&Json::Bool(true)));

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn tile_exec_round_trips_partial_profiles() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut conn = frames(&addr);

        let job = Json::obj(vec![
            (
                "input",
                Json::obj(vec![
                    ("kind", Json::str("synthetic")),
                    ("n", Json::num(96.0)),
                    ("d", Json::num(2.0)),
                    ("seed", Json::num(7.0)),
                ]),
            ),
            ("m", Json::num(8.0)),
            ("mode", Json::str("fp32")),
            ("tiles", Json::num(4.0)),
        ]);
        let reply = conn
            .request(&Message::json(Json::obj(vec![
                ("op", Json::str("tile_exec")),
                ("job", job),
                ("tiles", Json::Arr(vec![Json::num(1.0), Json::num(3.0)])),
            ])))
            .unwrap();
        assert_eq!(
            reply.json.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            reply.json
        );
        let tiles = reply.json.get("tiles").unwrap().as_arr().unwrap();
        assert_eq!(tiles.len(), 2);
        assert_eq!(reply.chunks.len(), 4);
        for (expect, tile) in [1.0, 3.0].iter().zip(tiles) {
            assert_eq!(tile.get("tile").unwrap().as_f64(), Some(*expect));
            let n_query = tile.get("n_query").unwrap().as_u64().unwrap() as usize;
            let dims = tile.get("dims").unwrap().as_u64().unwrap() as usize;
            let chunk = |field: &str| {
                let at = tile.get(field).unwrap().as_u64().unwrap() as usize;
                reply.chunks[at].clone()
            };
            let plane = chunk("p_chunk").into_f64().unwrap();
            assert_eq!(plane.len(), n_query * dims);
            assert!(plane.iter().all(|v| v.is_finite() || *v == f64::INFINITY));
            let index_plane = chunk("i_chunk").into_i64().unwrap();
            assert_eq!(index_plane.len(), n_query * dims);
            assert!(index_plane.iter().all(|&i| i >= -1));
            assert!(tile.get("device_seconds").unwrap().as_f64().unwrap() > 0.0);
        }
        assert_eq!(service.stats().tile_exec_requests, 1);
        assert_eq!(service.stats().tiles_served, 2);

        // Bad requests: missing tiles, empty tiles, out-of-range index.
        let job = || {
            Json::obj(vec![
                (
                    "input",
                    Json::obj(vec![
                        ("kind", Json::str("synthetic")),
                        ("n", Json::num(96.0)),
                    ]),
                ),
                ("m", Json::num(8.0)),
                ("tiles", Json::num(4.0)),
            ])
        };
        let r = call(
            &mut conn,
            vec![("op", Json::str("tile_exec")), ("job", job())],
            Vec::new(),
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = call(
            &mut conn,
            vec![
                ("op", Json::str("tile_exec")),
                ("job", job()),
                ("tiles", Json::Arr(vec![])),
            ],
            Vec::new(),
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = call(
            &mut conn,
            vec![
                ("op", Json::str("tile_exec")),
                ("job", job()),
                ("tiles", Json::Arr(vec![Json::num(99.0)])),
            ],
            Vec::new(),
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(service.stats().tile_exec_failures, 1);

        server.stop();
        service.shutdown(true);
    }

    /// A synthetic `tile_exec` job object of four tiles.
    fn scope_job(n: usize, d: usize, m: usize, seed: u64) -> Json {
        Json::obj(vec![
            (
                "input",
                Json::obj(vec![
                    ("kind", Json::str("synthetic")),
                    ("n", Json::num(n as f64)),
                    ("d", Json::num(d as f64)),
                    ("seed", Json::num(seed as f64)),
                ]),
            ),
            ("m", Json::num(m as f64)),
            ("mode", Json::str("fp32")),
            ("tiles", Json::num(4.0)),
        ])
    }

    /// One `tile_exec` of `tile` of `job` on `conn`.
    fn exec_one(conn: &mut WireConn, job: &Json, tile: usize) -> Message {
        conn.request(&Message::json(Json::obj(vec![
            ("op", Json::str("tile_exec")),
            ("job", job.clone()),
            ("tiles", Json::Arr(vec![Json::num(tile as f64)])),
        ])))
        .unwrap()
    }

    /// A reply's value planes as bits, and its index planes.
    fn reply_planes(reply: &Message) -> (Vec<u64>, Vec<i64>) {
        assert_eq!(
            reply.json.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            reply.json
        );
        let values = reply.chunks[0].clone().into_f64().unwrap();
        let indices = reply.chunks[1].clone().into_i64().unwrap();
        (values.iter().map(|v| v.to_bits()).collect(), indices)
    }

    /// The same tile executed in process on `local`.
    fn local_planes(local: &Service, job: &Json, tile: usize) -> (Vec<u64>, Vec<i64>) {
        let spec = parse_job_spec(job).unwrap();
        let run = local.execute_tile_subset(&spec, &[tile]).unwrap();
        let (mut values, mut indices) = (Vec::new(), Vec::new());
        mdmp_core::profile_planes_k_major(&run.results[0].profile, &mut values, &mut indices);
        (values.iter().map(|v| v.to_bits()).collect(), indices)
    }

    #[test]
    fn a_connection_materializes_each_job_once() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let local = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let materialized = || service.stats().tile_exec_materializations;
        let (a, b) = (scope_job(96, 2, 8, 7), scope_job(96, 2, 8, 8));

        // Four tiles of one job on one connection: one materialization.
        let mut first = frames(&addr);
        for tile in 0..4 {
            let reply = exec_one(&mut first, &a, tile);
            assert_eq!(
                reply_planes(&reply),
                local_planes(&local, &a, tile),
                "tile {tile}"
            );
        }
        assert_eq!(materialized(), 1);

        // A second connection for the same job materializes it again.
        let mut second = frames(&addr);
        reply_planes(&exec_one(&mut second, &a, 2));
        assert_eq!(materialized(), 2);

        // Jobs A, B, A on one connection: each switch materializes, and
        // each reply is its own job's tile.
        let mut third = frames(&addr);
        for (job, tile) in [(&a, 1), (&b, 1), (&a, 3)] {
            let reply = exec_one(&mut third, job, tile);
            assert_eq!(reply_planes(&reply), local_planes(&local, job, tile));
        }
        assert_eq!(materialized(), 5);
        assert_ne!(local_planes(&local, &a, 1), local_planes(&local, &b, 1));
        assert_eq!(service.stats().tile_exec_requests, 8);
        let text = service.metrics_text();
        assert!(
            text.contains("mdmp_tile_exec_materializations_total 5"),
            "{text}"
        );

        server.stop();
        service.shutdown(true);
        local.shutdown(true);
    }

    #[test]
    fn degenerate_synthetic_specs_are_refused_not_panicked_on() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        // n = 0, d = 0 and m = 1 on one connection: each a typed error,
        // and the connection keeps serving.
        let mut conn = frames(&addr);
        for (n, d, m) in [(0, 2, 8), (96, 0, 8), (96, 2, 1)] {
            let reply = exec_one(&mut conn, &scope_job(n, d, m, 7), 0);
            assert_eq!(
                reply.json.get("ok"),
                Some(&Json::Bool(false)),
                "{}",
                reply.json
            );
            let error = reply.json.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains("synthetic input needs"), "{error}");
            let pong = call(&mut conn, vec![("op", Json::str("ping"))], Vec::new());
            assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        }
        reply_planes(&exec_one(&mut conn, &scope_job(96, 2, 8, 7), 0));
        assert_eq!(service.stats().tile_exec_materializations, 1);

        // A submit of n = 0 is refused, over TCP and in process, and the
        // single worker still runs the next valid job.
        let submit = |job: Json| {
            request(
                &addr,
                &Json::obj(vec![("op", Json::str("submit")), ("job", job)]),
            )
            .unwrap()
        };
        let refused = submit(scope_job(0, 2, 8, 7));
        assert_eq!(refused.get("ok"), Some(&Json::Bool(false)), "{refused}");
        let mut spec = parse_job_spec(&scope_job(96, 2, 8, 7)).unwrap();
        spec.input = JobInput::Synthetic {
            n: 0,
            d: 2,
            pattern: 0,
            noise: 0.3,
            seed: 7,
        };
        assert!(matches!(
            service.submit(spec),
            Err(crate::queue::SubmitError::BadSpec(_))
        ));
        let accepted = submit(scope_job(96, 2, 8, 7));
        let id = accepted.get("id").and_then(Json::as_u64).unwrap();
        let status = service.wait(id, Duration::from_secs(30)).unwrap();
        assert_eq!(
            status.state,
            crate::job::JobState::Done,
            "{:?}",
            status.error
        );

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn reply_lines_over_the_cap_are_client_errors() {
        // A one-shot peer that reads the request line, then answers with a
        // well-formed JSON object of `MAX_LINE_BYTES + 1` bytes and no
        // newline, and closes.
        let oversized_peer = || {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let peer = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                reader.read_line(&mut String::new()).unwrap();
                let head = r#"{"ok":true,"wire":"binary","pong":true,"pad":""#;
                let pad = "x".repeat(MAX_LINE_BYTES + 1 - head.len() - 2);
                let _ = (&stream).write_all(format!("{head}{pad}\"}}").as_bytes());
            });
            (addr, peer)
        };

        let (addr, peer) = oversized_peer();
        let err = WireConn::connect(&addr, None, WirePreference::Auto).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        peer.join().unwrap();

        let (addr, peer) = oversized_peer();
        let err = request(&addr, &Json::obj(vec![("op", Json::str("ping"))])).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn stream_append_malformed_payloads_get_typed_errors() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut conn = frames(&addr);

        let dim = |off: usize, n: usize| Chunk::F64(wave(off, n));
        let open = |conn: &mut WireConn, dims: Vec<Chunk>| {
            call(
                conn,
                vec![
                    ("op", Json::str("stream_open")),
                    ("m", Json::num(8.0)),
                    ("reference_chunks", Json::num(dims.len() as f64)),
                ],
                dims,
            )
        };

        // Ragged open payload: typed error, connection stays alive.
        let r = open(&mut conn, vec![dim(0, 64), dim(3, 63)]);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error").unwrap().as_str().unwrap().contains("length"),
            "{r}"
        );

        // A healthy two-dimensional session to append against.
        let opened = open(&mut conn, vec![dim(0, 64), dim(7, 64)]);
        assert_eq!(opened.get("ok"), Some(&Json::Bool(true)), "{opened}");
        let session = opened
            .get("session")
            .unwrap()
            .get("session")
            .unwrap()
            .as_u64()
            .unwrap();
        let mut append = |samples: Vec<Chunk>, id: u64| {
            call(
                &mut conn,
                vec![
                    ("op", Json::str("stream_append")),
                    ("session", Json::num(id as f64)),
                    ("samples_chunks", Json::num(samples.len() as f64)),
                ],
                samples,
            )
        };

        // Mismatched dimension count.
        let r = append(vec![dim(0, 8)], session);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("dimension"),
            "{r}"
        );
        // Unequal slice lengths.
        let r = append(vec![dim(0, 8), dim(1, 7)], session);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error").unwrap().as_str().unwrap().contains("equal"),
            "{r}"
        );
        // Empty append.
        let r = append(vec![Chunk::F64(vec![]), Chunk::F64(vec![])], session);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("no samples"),
            "{r}"
        );
        // Unknown session.
        let r = append(vec![dim(0, 8), dim(1, 8)], 4040);
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r}");
        assert!(
            r.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("unknown session"),
            "{r}"
        );

        // The server is still up and a well-formed append succeeds and
        // shows on the metrics surfaces.
        let r = append(vec![dim(64, 8), dim(71, 8)], session);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        let stats = service.stats();
        assert_eq!(stats.stream_opens, 1);
        assert_eq!(stats.stream_appends, 1);
        assert_eq!(stats.stream_append_failures, 4);
        assert_eq!(stats.stream_precalc_reuses, 1);
        assert_eq!(stats.stream_sessions_open, 1);
        assert!(stats.stream_segments_reused > 0);
        assert!(stats.mean_stream_append_seconds > 0.0);
        let text = request(&addr, &Json::obj(vec![("op", Json::str("metrics"))]))
            .unwrap()
            .get("text")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(text.contains("mdmp_stream_appends_total 1"), "{text}");
        assert!(text.contains("mdmp_stream_append_failures_total 4"));
        assert!(text.contains("mdmp_stream_sessions_open 1"));

        server.stop();
        service.shutdown(true);
    }

    /// A JSON-lines connection: requests written and replies read one
    /// line each.
    struct Lines {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Lines {
        fn connect(addr: &str) -> Lines {
            let writer = TcpStream::connect(addr).unwrap();
            Lines {
                reader: BufReader::new(writer.try_clone().unwrap()),
                writer,
            }
        }

        fn send_raw(&mut self, line: &str) -> String {
            self.writer.write_all(line.as_bytes()).unwrap();
            let mut reply = String::new();
            self.reader.read_line(&mut reply).unwrap();
            reply
        }

        fn call(&mut self, request: &Json) -> Json {
            Json::parse(self.send_raw(&format!("{request}\n")).trim()).unwrap()
        }
    }

    #[test]
    fn bulk_ops_on_json_lines_get_typed_errors() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut conn = Lines::connect(&addr);
        let series = Json::Arr(vec![Json::Arr(
            wave(0, 32).into_iter().map(Json::num).collect(),
        )]);
        let job = Json::obj(vec![
            (
                "input",
                Json::obj(vec![
                    ("kind", Json::str("synthetic")),
                    ("n", Json::num(96.0)),
                ]),
            ),
            ("m", Json::num(8.0)),
        ]);
        let requests = [
            vec![
                ("op", Json::str("tile_exec")),
                ("job", job),
                ("tiles", Json::Arr(vec![Json::num(0.0)])),
            ],
            vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(8.0)),
                ("reference", series.clone()),
            ],
            vec![
                ("op", Json::str("stream_append")),
                ("session", Json::num(1.0)),
                ("samples", series),
            ],
        ];
        for pairs in requests {
            let op = pairs[0].1.as_str().unwrap().to_string();
            let r = conn.call(&Json::obj(pairs));
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{op}: {r}");
            assert_eq!(
                r.get("error").and_then(Json::as_str),
                Some(format!("{op} needs binary frames (send wire_upgrade first)").as_str()),
                "{op}"
            );
            // The same connection keeps serving control ops.
            let pong = conn.call(&Json::obj(vec![("op", Json::str("ping"))]));
            assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "after {op}");
        }
        let stats = service.stats();
        assert_eq!(stats.tile_exec_requests, 0);
        assert_eq!(stats.stream_opens, 0);
        assert_eq!(stats.stream_append_failures, 0);

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn request_lines_over_the_cap_are_refused_over_tcp() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        // A ping padded to `len` bytes, newline included.
        let ping = |len: usize| {
            let head = r#"{"op":"ping","pad":""#;
            let tail = "\"}\n";
            format!("{head}{}{tail}", "x".repeat(len - head.len() - tail.len()))
        };

        // Exactly the cap: served, and the connection stays open.
        let mut conn = Lines::connect(&addr);
        let reply = Json::parse(conn.send_raw(&ping(MAX_LINE_BYTES)).trim()).unwrap();
        assert_eq!(reply.get("pong"), Some(&Json::Bool(true)), "{reply}");
        // One byte over: the "exceeds" reply, then the server closes.
        let reply = Json::parse(conn.send_raw(&ping(MAX_LINE_BYTES + 1)).trim()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("exceeds"), "{error}");
        let mut rest = String::new();
        assert_eq!(conn.reader.read_line(&mut rest).unwrap(), 0, "{rest}");

        // The server keeps serving new connections.
        let pong = request(&addr, &Json::obj(vec![("op", Json::str("ping"))])).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));

        server.stop();
        service.shutdown(true);
    }

    #[test]
    fn bad_requests_get_errors() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            devices: 1,
            ..ServiceConfig::default()
        });
        let mut server = serve(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let r = request(&addr, &Json::obj(vec![("op", Json::str("nope"))])).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = request(&addr, &Json::obj(vec![("x", Json::num(1.0))])).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        let r = request(
            &addr,
            &Json::obj(vec![("op", Json::str("status")), ("id", Json::num(404.0))]),
        )
        .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));

        server.stop();
        service.shutdown(true);
    }

    /// A synthetic or CSV spec with every optional field set or unset.
    fn wire_spec(input: JobInput, mode: PrecisionMode, optional: bool) -> JobSpec {
        JobSpec {
            input,
            m: 16,
            mode,
            tiles: 3,
            gpus: 2,
            priority: Priority::Low,
            max_retries: if optional { 3 } else { 0 },
            fault_plan: optional.then(|| Arc::new("seed=7,kernel@0,stall@3:40".parse().unwrap())),
            tile_retries: 4,
            fused_rows: None,
            tc_chunk_k: optional.then_some(8),
            tile_deadline_ms: optional.then_some(250),
            deadline_ms: optional.then_some(500),
        }
    }

    #[test]
    fn job_wire_form_round_trips_in_every_mode() {
        let inputs = || {
            [
                JobInput::Synthetic {
                    n: 300,
                    d: 2,
                    pattern: 1,
                    noise: 0.125,
                    seed: 9,
                },
                JobInput::Csv {
                    reference: "/data/r.csv".into(),
                    query: None,
                },
                JobInput::Csv {
                    reference: "/data/r.csv".into(),
                    query: Some("/data/q.csv".into()),
                },
            ]
        };
        for mode in PrecisionMode::ALL {
            for optional in [false, true] {
                for input in inputs() {
                    let spec = wire_spec(input, mode, optional);
                    let json = job_spec_json(&spec).unwrap();
                    let decoded = parse_job_spec(&json).unwrap();
                    assert_eq!(job_spec_json(&decoded).unwrap(), json);
                    assert_eq!(format!("{decoded:?}"), format!("{spec:?}"));
                }
            }
        }
        let spec = wire_spec(inputs()[0].clone(), PrecisionMode::Fp16, true);
        let decoded = parse_job_spec(&job_spec_json(&spec).unwrap()).unwrap();
        assert_eq!(decoded.max_retries, 3);
        assert_eq!(decoded.deadline_ms, Some(500));
        // Defaults are not written, so they cost no bytes.
        let plain = job_spec_json(&wire_spec(inputs()[0].clone(), PrecisionMode::Fp16, false))
            .unwrap()
            .to_string();
        assert!(!plain.contains("max_retries") && !plain.contains("deadline_ms"));
        let in_memory = JobSpec::in_memory(
            Arc::new(MultiDimSeries::from_dims(vec![vec![0.0; 32]])),
            Arc::new(MultiDimSeries::from_dims(vec![vec![0.0; 32]])),
            8,
            PrecisionMode::Fp64,
        );
        assert!(job_spec_json(&in_memory).is_err());
    }

    #[test]
    fn signed_zero_noise_names_one_series() {
        // The two job objects compare equal, so a connection that keeps
        // one's inputs serves them to the other: they must be one series.
        let job = |noise: f64| {
            Json::obj(vec![
                (
                    "input",
                    Json::obj(vec![
                        ("kind", Json::str("synthetic")),
                        ("n", Json::num(64.0)),
                        ("noise", Json::num(noise)),
                    ]),
                ),
                ("m", Json::num(8.0)),
            ])
        };
        assert_eq!(job(-0.0), job(0.0));
        let inputs = |noise| JobInputs::materialize(&parse_job_spec(&job(noise)).unwrap()).unwrap();
        assert_eq!(inputs(-0.0).key, inputs(0.0).key);
    }

    /// The exact bytes of the FP32 synthetic job the cluster benchmark
    /// ships with every `tile_exec` request.
    #[test]
    fn job_wire_form_is_pinned_for_the_benchmark_spec() {
        let spec = JobSpec {
            input: JobInput::Synthetic {
                n: 512,
                d: 8,
                pattern: 1,
                noise: 0.3,
                seed: 1,
            },
            m: 64,
            mode: PrecisionMode::Fp32,
            tiles: 8,
            gpus: 1,
            priority: Priority::Normal,
            max_retries: 0,
            fault_plan: None,
            tile_retries: 2,
            fused_rows: None,
            tc_chunk_k: None,
            tile_deadline_ms: None,
            deadline_ms: None,
        };
        assert_eq!(
            job_spec_json(&spec).unwrap().to_string(),
            r#"{"input":{"kind":"synthetic","n":512,"d":8,"pattern":1,"noise":0.3,"seed":1},"m":64,"mode":"FP32","tiles":8,"gpus":1,"priority":"normal","tile_retries":2}"#
        );
    }
}
