//! Wire-protocol acceptance over real TCP sockets: the binary frame
//! transport must be **bit-identical** to the same work run in process in
//! every precision mode, ship each plane at its narrowest bit-exact width,
//! refuse bulk ops on JSON lines, survive injected corruption with typed
//! errors (server stays up, counters bump), and round-trip arbitrary
//! planes — NaN payloads, infinities, `-0.0`, subnormals — exactly.

use mdmp_core::MdmpConfig;
use mdmp_data::MultiDimSeries;
use mdmp_precision::PrecisionMode;
use mdmp_service::{
    narrowest_width, parse_job_spec, serve, AppendSide, Chunk, FrameCodec, Json, Message, Server,
    Service, ServiceConfig, WireConn, WirePreference,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        devices: 1,
        ..ServiceConfig::default()
    }
}

fn start_node() -> (Arc<Service>, Server, String) {
    let service = Service::start(config());
    let server = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    (service, server, addr)
}

/// A `tile_exec` request for two tiles of a small synthetic job.
fn tile_exec_request(mode: &str) -> Json {
    Json::obj(vec![
        ("op", Json::str("tile_exec")),
        (
            "job",
            Json::obj(vec![
                (
                    "input",
                    Json::obj(vec![
                        ("kind", Json::str("synthetic")),
                        ("n", Json::num(192.0)),
                        ("d", Json::num(2.0)),
                        ("pattern", Json::num(1.0)),
                        ("noise", Json::num(0.3)),
                        ("seed", Json::num(7.0)),
                    ]),
                ),
                ("m", Json::num(16.0)),
                ("mode", Json::str(mode)),
                ("tiles", Json::num(2.0)),
                ("gpus", Json::num(1.0)),
                ("tile_retries", Json::num(2.0)),
            ]),
        ),
        ("tiles", Json::Arr(vec![Json::num(0.0), Json::num(1.0)])),
    ])
}

/// One decoded tile: (tile, col0, value bits, indices).
type TilePlanes = (usize, usize, Vec<u64>, Vec<i64>);

fn tile_planes(tile: usize, col0: usize, values: &[f64], indices: Vec<i64>) -> TilePlanes {
    (
        tile,
        col0,
        values.iter().map(|v| v.to_bits()).collect(),
        indices,
    )
}

/// One `tile_exec` reply as it crossed the socket.
struct TileReply {
    /// The decoded tiles, in tile order.
    tiles: Vec<TilePlanes>,
    /// Each tile's (value, index) chunk width tags, as sent.
    widths: Vec<(u8, u8)>,
    /// Each tile's value plane, decoded.
    planes: Vec<Vec<f64>>,
    /// Bytes received: the upgrade reply plus the reply frame.
    bytes_in: u64,
}

/// The width tag of every chunk in a frame payload, in order.
fn chunk_widths(payload: &[u8]) -> Vec<u8> {
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 4 + u32_at(0);
    let count = u16::from_le_bytes([payload[at], payload[at + 1]]) as usize;
    at += 2;
    let mut widths = Vec::with_capacity(count);
    for _ in 0..count {
        widths.push(payload[at]);
        at += 1 + 4 + 4 + u32_at(at + 5);
    }
    widths
}

/// Run one `tile_exec` on a fresh upgraded connection, reading the reply
/// frame off the socket byte for byte.
fn exec_tiles(addr: &str, mode: &str) -> TileReply {
    let (mut reader, mut writer, upgrade_bytes) = upgrade_raw(addr);
    let mut codec = FrameCodec::new();
    let request = codec
        .encode(&Message::json(tile_exec_request(mode)), true)
        .expect("encode");
    writer.write_all(request).expect("write");
    let mut frame = vec![0u8; 8];
    reader.read_exact(&mut frame).expect("header");
    let len = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
    frame.resize(8 + len + 4, 0);
    reader.read_exact(&mut frame[8..]).expect("payload");
    let (reply, n) = codec.read(&mut &frame[..]).expect("decode").expect("frame");
    assert_eq!(n as usize, frame.len());
    assert_eq!(
        reply.json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{:?}",
        reply.json.get("error")
    );
    let tags = chunk_widths(&frame[8..8 + len]);
    let mut out = TileReply {
        tiles: Vec::new(),
        widths: Vec::new(),
        planes: Vec::new(),
        bytes_in: upgrade_bytes + frame.len() as u64,
    };
    let entries = reply
        .json
        .get("tiles")
        .and_then(Json::as_arr)
        .expect("tiles");
    for entry in entries {
        let field = |k: &str| entry.get(k).and_then(Json::as_u64).expect(k) as usize;
        let (p_at, i_at) = (field("p_chunk"), field("i_chunk"));
        let p = reply.chunks[p_at].clone().into_f64().expect("float chunk");
        let i = reply.chunks[i_at].clone().into_i64().expect("index chunk");
        assert_eq!(p.len(), field("n_query") * field("dims"));
        out.tiles
            .push(tile_planes(field("tile"), field("col0"), &p, i));
        out.widths.push((tags[p_at], tags[i_at]));
        out.planes.push(p);
    }
    assert!(out.tiles.windows(2).all(|w| w[0].0 < w[1].0), "tile order");
    out
}

/// The same two tiles executed in process, with no wire in between.
fn in_process_tiles(service: &Service, mode: &str) -> Vec<TilePlanes> {
    let request = tile_exec_request(mode);
    let spec = parse_job_spec(request.get("job").expect("job")).expect("spec");
    let run = service
        .execute_tile_subset(&spec, &[0, 1])
        .expect("in-process tiles");
    let mut tiles: Vec<TilePlanes> = run
        .results
        .iter()
        .map(|r| {
            let (mut values, mut indices) = (Vec::new(), Vec::new());
            mdmp_core::profile_planes_k_major(&r.profile, &mut values, &mut indices);
            tile_planes(r.tile.index, r.tile.col0, &values, indices)
        })
        .collect();
    tiles.sort_by_key(|t| t.0);
    tiles
}

/// For every one of the 12 precision modes, the planes that cross the
/// binary transport are bit-identical to the same tiles executed in
/// process, and every value plane ships at its narrowest bit-exact width:
/// 8 B in FP64, 4 B in FP32 and the tensor-core modes (FP32 accumulators),
/// 2 B in the modes whose values are all half-exact.
#[test]
fn binary_tile_exec_is_bit_identical_to_in_process_in_all_modes() {
    let (_service, _server, addr) = start_node();
    let local = Service::start(config());
    for mode in PrecisionMode::ALL {
        let label = mode.label();
        let wire = exec_tiles(&addr, label);
        assert_eq!(wire.tiles.len(), 2, "{label}");
        assert_eq!(
            wire.tiles,
            in_process_tiles(&local, label),
            "{label}: binary planes must be bit-identical to the in-process tiles"
        );
        for ((p_width, i_width), plane) in wire.widths.iter().zip(&wire.planes) {
            assert_eq!(*p_width, narrowest_width(plane), "{label}: value width");
            assert_eq!(*i_width, 0, "{label}: index planes ride as varints");
            let expect = match mode {
                PrecisionMode::Fp64 => 8,
                PrecisionMode::Fp32
                | PrecisionMode::Fp16Tc
                | PrecisionMode::Bf16Tc
                | PrecisionMode::Tf32Tc => 4,
                _ => 2,
            };
            assert_eq!(*p_width, expect, "{label}: value width");
        }
    }
}

/// The narrowing pays: an FP32-mode reply (4-byte elements) is at least
/// 4x smaller than both of its planes as 16-char hex cells would be.
#[test]
fn fp32_planes_shrink_at_least_four_fold() {
    let (_service, _server, addr) = start_node();
    let wire = exec_tiles(&addr, "fp32");
    let cells: usize = wire.planes.iter().map(Vec::len).sum();
    let hex_bytes = 32 * cells as u64;
    assert!(
        wire.bytes_in * 4 <= hex_bytes,
        "fp32 binary reply {} B vs {hex_bytes} B of hex planes: expected >= 4x reduction",
        wire.bytes_in
    );
}

fn stream_frame(pairs: Vec<(&str, Json)>, chunks: Vec<Chunk>) -> Message {
    Message {
        json: Json::obj(pairs),
        chunks,
    }
}

fn ok_json(reply: Message) -> Json {
    assert_eq!(
        reply.json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{:?}",
        reply.json.get("error")
    );
    reply.json
}

/// Streaming over the binary transport reports exactly the per-append
/// reuse accounting of the same appends run in process, with the exact
/// counts an append must produce, and ends on a bit-identical profile.
#[test]
fn binary_streaming_matches_in_process_streaming() {
    let (service, _server, addr) = start_node();
    let local = Service::start(config());
    let m = 8usize;
    let dims: Vec<Vec<f64>> = (0..2)
        .map(|k| {
            (0..48)
                .map(|t| ((t + k * 3) as f64 * 0.31).sin() + 0.02 * ((t * 5 + k) % 11) as f64)
                .collect()
        })
        .collect();
    let n_reference = dims[0].len() - m + 1;
    let initial = 32usize;
    let window = |start: usize, len: usize| -> Vec<Vec<f64>> {
        dims.iter()
            .map(|d| d[start..start + len].to_vec())
            .collect()
    };
    let chunks = |start: usize, len: usize| -> Vec<Chunk> {
        window(start, len).into_iter().map(Chunk::F64).collect()
    };

    let cfg = MdmpConfig::new(m, PrecisionMode::Fp16);
    let local_session = local
        .stream_open(
            MultiDimSeries::from_dims(window(0, dims[0].len())),
            MultiDimSeries::from_dims(window(0, initial)),
            cfg,
        )
        .expect("in-process open")
        .id;
    let mut conn = WireConn::connect(&addr, None, WirePreference::Auto).expect("connect");
    let mut open_chunks = chunks(0, dims[0].len());
    open_chunks.append(&mut chunks(0, initial));
    let opened = ok_json(
        conn.request(&stream_frame(
            vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(m as f64)),
                ("mode", Json::str("fp16")),
                ("reference_chunks", Json::num(dims.len() as f64)),
                ("query_chunks", Json::num(dims.len() as f64)),
            ],
            open_chunks,
        ))
        .expect("binary open"),
    );
    let session = opened
        .get("session")
        .and_then(|s| s.get("session"))
        .and_then(Json::as_u64)
        .expect("session id");

    let mut at = initial;
    while at < dims[0].len() {
        let len = 8.min(dims[0].len() - at);
        let expect = local
            .stream_append(local_session, AppendSide::Query, &window(at, len))
            .expect("in-process append");
        let reply = ok_json(
            conn.request(&stream_frame(
                vec![
                    ("op", Json::str("stream_append")),
                    ("session", Json::num(session as f64)),
                    ("side", Json::str("query")),
                    ("samples_chunks", Json::num(dims.len() as f64)),
                ],
                chunks(at, len),
            ))
            .expect("binary append"),
        );
        at += len;
        let count = |key: &str| reply.get(key).and_then(Json::as_u64).expect(key);
        assert_eq!(count("reused_segments"), expect.reused_segments, "at {at}");
        assert_eq!(count("fresh_segments"), expect.fresh_segments, "at {at}");
        assert_eq!(
            reply.get("reused_precalc").and_then(Json::as_bool),
            Some(expect.reused_precalc),
            "at {at}"
        );
        // A query append reuses every reference segment and computes
        // only the new query segments.
        assert_eq!(count("reused_segments"), n_reference as u64, "at {at}");
        assert_eq!(count("fresh_segments"), len as u64, "at {at}");
        assert!(expect.reused_precalc, "at {at}");
        let n_query = reply
            .get("session")
            .and_then(|s| s.get("n_query"))
            .and_then(Json::as_u64)
            .expect("n_query");
        assert_eq!(n_query, expect.summary.n_query as u64, "at {at}");
        assert_eq!(n_query as usize, at - m + 1, "at {at}");
    }
    let served = service.sessions.profile(session).expect("served profile");
    let expect = local
        .sessions
        .profile(local_session)
        .expect("local profile");
    assert_eq!(served.n_query(), expect.n_query());
    for k in 0..expect.dims() {
        for j in 0..expect.n_query() {
            assert_eq!(
                served.value(j, k).to_bits(),
                expect.value(j, k).to_bits(),
                "value bits at dim {k} column {j}"
            );
            assert_eq!(
                served.index(j, k),
                expect.index(j, k),
                "index at dim {k} column {j}"
            );
        }
    }
}

/// A frame declaring an absurd chunk count (far beyond what it carries)
/// gets a typed error — not a count-sized allocation that aborts the
/// server — and declared counts must also match the frame exactly:
/// extra undeclared chunks are rejected, not silently dropped.
#[test]
fn binary_chunk_counts_must_match_the_frame() {
    let (_service, _server, addr) = start_node();
    let mut conn = WireConn::connect(&addr, None, WirePreference::Auto).expect("connect");
    assert!(conn.is_binary());

    // Declared count is client-controlled: 1e15 chunks "declared", one
    // carried. Must be a typed error, and the connection keeps serving.
    let reply = conn
        .request(&Message {
            json: Json::obj(vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(8.0)),
                ("reference_chunks", Json::num(1e15)),
            ]),
            chunks: vec![Chunk::F64(vec![0.0; 16])],
        })
        .expect("request survives");
    assert_eq!(reply.json.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.json.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("fewer chunks"), "{error}");

    // Extra chunks beyond the declared counts are an error, mirroring
    // parse_payload's trailing-bytes rejection.
    let samples: Vec<f64> = (0..32).map(|t| (t as f64 * 0.3).sin()).collect();
    let reply = conn
        .request(&Message {
            json: Json::obj(vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(8.0)),
                ("reference_chunks", Json::num(1.0)),
            ]),
            chunks: vec![Chunk::F64(samples.clone()), Chunk::F64(samples.clone())],
        })
        .expect("request survives");
    assert_eq!(reply.json.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.json.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("more chunks"), "{error}");

    // The same connection still opens a well-formed session afterwards.
    let reply = conn
        .request(&Message {
            json: Json::obj(vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(8.0)),
                ("reference_chunks", Json::num(1.0)),
            ]),
            chunks: vec![Chunk::F64(samples.clone())],
        })
        .expect("request survives");
    assert_eq!(
        reply.json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{:?}",
        reply.json.get("error")
    );
    let session = reply
        .json
        .get("session")
        .and_then(|s| s.get("session"))
        .and_then(Json::as_u64)
        .expect("session id");

    // stream_append enforces the same two rules.
    for (declared, carried, needle) in
        [(1e15, 1usize, "fewer chunks"), (1.0, 2usize, "more chunks")]
    {
        let reply = conn
            .request(&Message {
                json: Json::obj(vec![
                    ("op", Json::str("stream_append")),
                    ("session", Json::num(session as f64)),
                    ("samples_chunks", Json::num(declared)),
                ]),
                chunks: vec![Chunk::F64(samples.clone()); carried],
            })
            .expect("request survives");
        assert_eq!(reply.json.get("ok").and_then(Json::as_bool), Some(false));
        let error = reply.json.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.contains(needle), "{error}");
    }
}

/// Upgrade, then read/write raw frames on the socket — the corruption
/// harness needs byte-level control the `WireConn` client hides. Also
/// returns the size of the upgrade reply line.
fn upgrade_raw(addr: &str) -> (BufReader<TcpStream>, TcpStream, u64) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream.try_clone().expect("clone");
    writeln!(
        writer,
        "{}",
        Json::obj(vec![
            ("op", Json::str("wire_upgrade")),
            ("version", Json::num(1.0)),
        ])
    )
    .expect("upgrade write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("upgrade reply");
    let reply = Json::parse(line.trim()).expect("upgrade json");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    (reader, stream, line.len() as u64)
}

fn ping_frame() -> Vec<u8> {
    FrameCodec::new()
        .encode(
            &Message::json(Json::obj(vec![("op", Json::str("ping"))])),
            true,
        )
        .expect("encode")
        .to_vec()
}

/// A flipped checksum gets a typed error reply and the connection keeps
/// serving; an oversized length prefix gets a typed error and a close;
/// the server survives both and counts each frame error.
#[test]
fn corrupted_frames_get_typed_errors_and_the_server_survives() {
    let (service, _server, addr) = start_node();
    let (mut reader, mut writer, _) = upgrade_raw(&addr);
    let mut codec = FrameCodec::new();

    // Baseline: a valid ping round-trips.
    writer.write_all(&ping_frame()).expect("write");
    let (reply, _) = codec.read(&mut reader).expect("read").expect("frame");
    assert_eq!(reply.json.get("ok").and_then(Json::as_bool), Some(true));

    // Corrupt payload: flip the checksum's last byte. Typed error, then
    // the very same connection still serves.
    let mut corrupt = ping_frame();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    writer.write_all(&corrupt).expect("write");
    let (reply, _) = codec.read(&mut reader).expect("read").expect("frame");
    assert_eq!(reply.json.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.json.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("corrupt"), "{error}");
    writer.write_all(&ping_frame()).expect("write");
    let (reply, _) = codec.read(&mut reader).expect("read").expect("frame");
    assert_eq!(
        reply.json.get("ok").and_then(Json::as_bool),
        Some(true),
        "connection must keep serving after a corrupt frame"
    );

    // Lost framing: an oversized length prefix. Typed error, then close.
    let mut oversized = ping_frame();
    oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    writer.write_all(&oversized).expect("write");
    let (reply, _) = codec.read(&mut reader).expect("read").expect("frame");
    assert_eq!(reply.json.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.json.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("framing lost"), "{error}");
    assert!(
        matches!(codec.read(&mut reader), Ok(None)),
        "server must close after lost framing"
    );

    assert!(
        service.stats().wire_frame_errors >= 2,
        "both injections must be counted"
    );

    // The server itself is unharmed: a fresh connection works.
    assert_eq!(exec_tiles(&addr, "fp16").tiles.len(), 2);
}

/// A frame truncated mid-payload (client dies) severs only that
/// connection; the server keeps accepting.
#[test]
fn truncated_frame_kills_only_its_connection() {
    let (_service, _server, addr) = start_node();
    {
        let (mut reader, mut writer, _) = upgrade_raw(&addr);
        let frame = ping_frame();
        writer.write_all(&frame[..frame.len() / 2]).expect("write");
        writer
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let mut rest = Vec::new();
        // The server reads EOF mid-frame and closes without a reply.
        std::io::Read::read_to_end(&mut reader, &mut rest).expect("drain");
        assert!(rest.is_empty(), "no reply to an unfinished frame");
    }
    assert_eq!(exec_tiles(&addr, "fp32").tiles.len(), 2);
}

/// A version the server does not speak is declined — and the connection
/// stays on JSON lines, still serving.
#[test]
fn unsupported_upgrade_version_falls_back_to_json() {
    let (_service, _server, addr) = start_node();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(
        writer,
        "{}",
        Json::obj(vec![
            ("op", Json::str("wire_upgrade")),
            ("version", Json::num(99.0)),
        ])
    )
    .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    let reply = Json::parse(line.trim()).expect("json");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    writeln!(writer, "{}", Json::obj(vec![("op", Json::str("ping"))])).expect("write");
    line.clear();
    reader.read_line(&mut line).expect("reply");
    let reply = Json::parse(line.trim()).expect("json");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "connection must keep speaking JSON after a declined upgrade"
    );
}

/// The labeled byte counters reach the metrics page with encoding and op
/// labels, and the stats op totals them.
#[test]
fn wire_bytes_are_surfaced_in_metrics_and_stats() {
    let (service, _server, addr) = start_node();
    let _ = exec_tiles(&addr, "fp32");
    let text = service.metrics_text();
    assert!(
        text.contains("mdmp_wire_bytes_sent_total{encoding=\"binary\",op=\"tile_exec\"}"),
        "missing labeled sent counter:\n{text}"
    );
    assert!(
        text.contains("mdmp_wire_bytes_received_total{encoding=\"binary\",op=\"tile_exec\"}"),
        "missing labeled received counter:\n{text}"
    );
    assert!(text.contains("mdmp_wire_binary_sessions"));
    let stats = service.stats();
    assert!(stats.wire_bytes_sent > 0);
    assert!(stats.wire_bytes_received > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode ∘ decode is the identity on arbitrary bit patterns — NaN
    /// payloads, infinities, `-0.0`, subnormals — at both widths, with
    /// and without narrowing.
    #[test]
    fn frame_round_trip_is_identity(
        bits in proptest::collection::vec(any::<u64>(), 0..96),
        idx in proptest::collection::vec(any::<i64>(), 0..96),
        narrow in any::<bool>(),
    ) {
        let plane: Vec<f64> = bits.iter().copied().map(f64::from_bits).collect();
        let msg = Message {
            json: Json::obj(vec![("op", Json::str("tile_exec"))]),
            chunks: vec![Chunk::F64(plane), Chunk::I64(idx.clone())],
        };
        let mut codec = FrameCodec::new();
        let frame = codec.encode(&msg, narrow).expect("encode").to_vec();
        let mut reader = BufReader::new(&frame[..]);
        let (back, n) = codec.read(&mut reader).expect("read").expect("frame");
        prop_assert_eq!(n as usize, frame.len());
        prop_assert_eq!(&back.json, &msg.json);
        let back_plane = back.chunks[0].clone().into_f64().expect("float chunk");
        let back_bits: Vec<u64> = back_plane.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
        prop_assert_eq!(back.chunks[1].clone().into_i64().expect("index chunk"), idx);
    }

    /// Special values survive narrowing bit-exactly alongside ordinary
    /// samples.
    #[test]
    fn special_values_round_trip_narrowed(
        extra in proptest::collection::vec(-1e4f64..1e4, 0..32),
    ) {
        let mut plane = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            f64::from_bits(0x7FF0_0000_0000_0001),
        ];
        plane.extend(extra);
        let msg = Message {
            json: Json::obj(vec![("op", Json::str("stream_append"))]),
            chunks: vec![Chunk::F64(plane.clone())],
        };
        let mut codec = FrameCodec::new();
        let frame = codec.encode(&msg, true).expect("encode").to_vec();
        let mut reader = BufReader::new(&frame[..]);
        let (back, _) = codec.read(&mut reader).expect("read").expect("frame");
        let back_plane = back.chunks[0].clone().into_f64().expect("float chunk");
        prop_assert_eq!(back_plane.len(), plane.len());
        for (a, b) in plane.iter().zip(&back_plane) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        }
    }
}
