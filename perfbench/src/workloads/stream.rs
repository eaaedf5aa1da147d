//! `stream-append`: one in-process `serve` node, one binary-wire
//! connection, one session opened on the reference and a head of the
//! query. Each op appends the next fixed-size query chunk with one
//! `stream_append`; when the query is complete the session's profile is
//! checked and the session is closed and reopened.
//!
//! Every session streams the same chunks, so its final profile is known
//! before the run: an in-process `StreamingProfile` fed the same chunks,
//! itself checked bit for bit against the arrival-tiled batch replay.

use super::{
    fp64_profile, gpusim_metrics, one_gpu, pct, remainder, same_bits, self_time, synthetic_pair,
    total, OpFacts, Shape, Workload,
};
use crate::micro;
use crate::trace::{OpBreakdown, Tracer};
use mdmp_core::{estimate_run, MatrixProfile, MdmpConfig, StreamingProfile};
use mdmp_data::MultiDimSeries;
use mdmp_gpu_sim::CostLedger;
use mdmp_precision::PrecisionMode;
use mdmp_service::{
    serve, Chunk, Json, Message, Server, Service, ServiceConfig, WireConn, WirePreference,
};
use std::sync::Arc;
use std::time::Duration;

/// Mode of the streamed session.
const MODE: PrecisionMode = PrecisionMode::Fp32;

/// Read timeout of the client connection.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The streaming workload.
pub struct Stream {
    shape: Shape,
    seed: u64,
    prepared: Option<Prepared>,
}

/// Inputs and the outputs every session must reproduce.
struct Prepared {
    reference: MultiDimSeries,
    head: MultiDimSeries,
    chunks: Vec<Vec<Vec<f64>>>,
    expected: MatrixProfile,
    fp64: MatrixProfile,
    modelled_s: f64,
    ledger: CostLedger,
    merge_s: f64,
}

/// The node, the connection and the open session.
pub struct StreamFixture {
    conn: WireConn,
    server: Server,
    service: Arc<Service>,
    session: u64,
    next: usize,
    marks: (u64, u64),
    sessions_done: usize,
    first_session: (u64, u64),
    twin: Option<StreamingProfile>,
}

impl Drop for StreamFixture {
    fn drop(&mut self) {
        self.server.stop();
        self.service.shutdown(false);
    }
}

fn cfg(m: usize) -> MdmpConfig {
    MdmpConfig::new(m, MODE)
}

fn ok(reply: &Json) -> Result<(), String> {
    if reply.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("reply without 'ok'")
            .to_string())
    }
}

fn float_chunks(series: &MultiDimSeries) -> Vec<Chunk> {
    (0..series.dims())
        .map(|k| Chunk::F64(series.dim(k).to_vec()))
        .collect()
}

impl Stream {
    /// The workload for `seed` at `shape`.
    pub fn new(shape: Shape, seed: u64) -> Stream {
        Stream {
            shape,
            seed,
            prepared: None,
        }
    }

    fn prep(&self) -> Result<&Prepared, String> {
        self.prepared
            .as_ref()
            .ok_or_else(|| "prepare() was not run".to_string())
    }

    fn cells_per_append(&self) -> u64 {
        (self.shape.n * self.shape.chunk * self.shape.d) as u64
    }

    fn open_session(&self, conn: &mut WireConn) -> Result<u64, String> {
        let p = self.prep()?;
        let d = p.reference.dims();
        let mut chunks = float_chunks(&p.reference);
        chunks.extend(float_chunks(&p.head));
        let msg = Message {
            json: Json::obj(vec![
                ("op", Json::str("stream_open")),
                ("m", Json::num(self.shape.m as f64)),
                ("mode", Json::str(MODE.label())),
                ("reference_chunks", Json::num(d as f64)),
                ("query_chunks", Json::num(d as f64)),
            ]),
            chunks,
        };
        let reply = conn
            .request(&msg)
            .map_err(|e| format!("stream_open: {e}"))?;
        ok(&reply.json).map_err(|e| format!("stream_open: {e}"))?;
        reply
            .json
            .get("session")
            .and_then(|s| s.get("session"))
            .and_then(Json::as_u64)
            .ok_or_else(|| "stream_open reply without a session id".to_string())
    }

    fn twin(&self, appended: usize) -> Result<StreamingProfile, String> {
        let p = self.prep()?;
        let mut sp = StreamingProfile::new(p.reference.clone(), p.head.clone(), cfg(self.shape.m))
            .map_err(|e| e.to_string())?;
        for chunk in &p.chunks[..appended] {
            sp.append_query(chunk).map_err(|e| e.to_string())?;
        }
        Ok(sp)
    }

    /// Check the completed session against the expected profile, close
    /// it and open the next one.
    fn roll_session(&self, fx: &mut StreamFixture) -> Result<(), String> {
        let p = self.prep()?;
        let served = fx
            .service
            .sessions
            .profile(fx.session)
            .ok_or("completed session vanished")?;
        if !same_bits(&served, &p.expected) {
            return Err("streamed profile at session end differs from batch".into());
        }
        if let Some(twin) = &fx.twin {
            if !same_bits(twin.profile(), &p.expected) {
                return Err("in-process streamed profile differs from batch".into());
            }
            fx.twin = Some(self.twin(0)?);
        }
        let close = Json::obj(vec![
            ("op", Json::str("stream_close")),
            ("session", Json::num(fx.session as f64)),
        ]);
        let reply = fx
            .conn
            .request(&Message::json(close))
            .map_err(|e| format!("stream_close: {e}"))?;
        ok(&reply.json).map_err(|e| format!("stream_close: {e}"))?;
        fx.session = self.open_session(&mut fx.conn)?;
        fx.next = 0;
        fx.sessions_done += 1;
        Ok(())
    }

    fn append_msg(&self, fx: &StreamFixture) -> Result<Message, String> {
        let p = self.prep()?;
        let chunk = &p.chunks[fx.next];
        Ok(Message {
            json: Json::obj(vec![
                ("op", Json::str("stream_append")),
                ("session", Json::num(fx.session as f64)),
                ("side", Json::str("query")),
                ("samples_chunks", Json::num(chunk.len() as f64)),
            ]),
            chunks: chunk.iter().map(|dim| Chunk::F64(dim.clone())).collect(),
        })
    }
}

impl Workload for Stream {
    type Fixture = StreamFixture;
    type Out = Message;

    const ROOT: &'static str = "stream.op";

    fn prepare(&mut self) -> Result<(), String> {
        let s = self.shape;
        let (reference, query) = synthetic_pair(&s, self.seed);
        let appends = (query.len() - s.m) / s.chunk;
        let head_len = query.len() - appends * s.chunk;
        let chunks: Vec<Vec<Vec<f64>>> = (0..appends)
            .map(|i| {
                let start = head_len + i * s.chunk;
                (0..s.d)
                    .map(|k| query.dim(k)[start..start + s.chunk].to_vec())
                    .collect()
            })
            .collect();
        let head = query.window(0, head_len);
        let cfg = cfg(s.m);
        let mut sp = StreamingProfile::new(reference.clone(), head.clone(), cfg.clone())
            .map_err(|e| e.to_string())?;
        for chunk in &chunks {
            sp.append_query(chunk).map_err(|e| e.to_string())?;
        }
        let mut replayed = MatrixProfile::new_unset(query.n_segments(s.m), s.d);
        for tile in sp.arrival_tiles() {
            let part = StreamingProfile::replay_tile(&reference, &query, tile, &cfg);
            replayed.merge_min_columns(&part, tile.col0);
        }
        if !same_bits(sp.profile(), &replayed) {
            return Err("in-process streamed profile differs from the arrival-tiled batch".into());
        }
        let estimate = estimate_run(s.n, s.chunk, s.d, &cfg, &mut one_gpu())
            .map_err(|e| format!("delta-tile estimate: {e}"))?;
        self.prepared = Some(Prepared {
            fp64: fp64_profile(&reference, &query, s.m)?,
            expected: replayed,
            reference,
            head,
            chunks,
            modelled_s: estimate.modeled_seconds,
            ledger: estimate.ledger,
            merge_s: estimate.merge_seconds,
        });
        Ok(())
    }

    fn setup(&self) -> Result<StreamFixture, String> {
        let service = Service::start(ServiceConfig::default());
        let server =
            serve(Arc::clone(&service), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let addr = server.local_addr().to_string();
        let mut conn = WireConn::connect(&addr, Some(TIMEOUT), WirePreference::Auto)
            .map_err(|e| format!("connect: {e}"))?;
        if !conn.is_binary() {
            return Err("node did not accept the binary wire upgrade".into());
        }
        let session = self.open_session(&mut conn)?;
        let mut fx = StreamFixture {
            conn,
            server,
            service,
            session,
            next: 0,
            marks: (0, 0),
            sessions_done: 0,
            first_session: (0, 0),
            twin: None,
        };
        let warm = self.op(&mut fx)?;
        self.check(&mut fx, warm)?;
        Ok(fx)
    }

    fn op(&self, fx: &mut StreamFixture) -> Result<Message, String> {
        let msg = self.append_msg(fx)?;
        fx.marks = (fx.conn.bytes_sent(), fx.conn.bytes_received());
        fx.conn
            .request(&msg)
            .map_err(|e| format!("stream_append: {e}"))
    }

    fn check(&self, fx: &mut StreamFixture, reply: Message) -> Result<OpFacts, String> {
        ok(&reply.json).map_err(|e| format!("stream_append: {e}"))?;
        let s = self.shape;
        let p = self.prep()?;
        let appended_len = p.head.len() + (fx.next + 1) * s.chunk;
        let want = appended_len - s.m + 1;
        let got = reply
            .json
            .get("session")
            .and_then(|j| j.get("n_query"))
            .and_then(Json::as_u64);
        if got != Some(want as u64) {
            return Err(format!("append reported n_query {got:?}, expected {want}"));
        }
        let field = |name: &str| reply.json.get(name).and_then(Json::as_f64).unwrap_or(0.0);
        let mut facts = OpFacts::new(self.cells_per_append(), p.modelled_s)
            .with("reused_segments", field("reused_segments"))
            .with("fresh_segments", field("fresh_segments"));
        facts.bytes_up = fx.conn.bytes_sent() - fx.marks.0;
        facts.bytes_down = fx.conn.bytes_received() - fx.marks.1;
        if fx.sessions_done == 0 {
            fx.first_session.0 += facts.bytes_up + facts.bytes_down;
            fx.first_session.1 += facts.cells;
        }
        fx.next += 1;
        if fx.next == p.chunks.len() {
            self.roll_session(fx)?;
        }
        Ok(facts)
    }

    fn traced_op(
        &self,
        fx: &mut StreamFixture,
        tracer: &Tracer,
        op: u64,
    ) -> Result<OpFacts, String> {
        if fx.twin.is_none() {
            fx.twin = Some(self.twin(fx.next)?);
        }
        let msg = self.append_msg(fx)?;
        let before = fx.service.metrics.stream_append_seconds.sum();
        fx.marks = (fx.conn.bytes_sent(), fx.conn.bytes_received());
        let reply = tracer
            .span(op, None, Self::ROOT, |_| fx.conn.request(&msg))
            .map_err(|e| format!("stream_append: {e}"))?;
        let server_s = fx.service.metrics.stream_append_seconds.sum() - before;
        tracer.attribute(op, "session.server_append", server_s);
        let chunk = &self.prep()?.chunks[fx.next];
        if let Some(twin) = fx.twin.as_mut() {
            tracer
                .span(op, None, "streaming.append_query", |_| {
                    twin.append_query(chunk)
                })
                .map_err(|e| format!("in-process append: {e}"))?;
        }
        self.check(fx, reply)
    }

    fn recall_pct(&self, _fx: &StreamFixture) -> Result<f64, String> {
        let p = self.prep()?;
        Ok(super::recall_pct(&p.fp64, &p.expected))
    }

    fn finish(&self, fx: &mut StreamFixture) -> Result<(), String> {
        if fx.sessions_done == 0 {
            return Err("no session completed, so no streamed profile was checked".into());
        }
        Ok(())
    }

    fn layer_metrics(
        &self,
        fx: &mut StreamFixture,
        facts: &[OpFacts],
        breakdown: &[OpBreakdown],
        tracer: &Tracer,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let p = self.prep()?;
        if fx.sessions_done == 0 {
            return Err("the first session did not complete".into());
        }
        let twin_s: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "streaming.append_query")
            .map(|s| s.end - s.start)
            .collect();
        let up: Vec<f64> = facts.iter().map(|f| f.bytes_up as f64).collect();
        let down: Vec<f64> = facts.iter().map(|f| f.bytes_down as f64).collect();
        let reused = total(facts, "reused_segments");
        let fresh = total(facts, "fresh_segments");
        let (encode, decode) = micro::codec_ns_per_byte(&self.append_msg(fx)?)?;
        let mut out = vec![
            ("streaming.append_self_s", crate::stats::median(&twin_s)),
            ("streaming.reused_segments_pct", pct(reused, reused + fresh)),
            (
                "session.server_append_s",
                self_time(breakdown, "session.server_append"),
            ),
            ("server.overhead_s", remainder(breakdown)),
            ("wire.bytes_up_per_op", crate::stats::median(&up)),
            ("wire.bytes_down_per_op", crate::stats::median(&down)),
            (
                "wire.bytes_per_cell",
                fx.first_session.0 as f64 / fx.first_session.1 as f64,
            ),
            ("wire.encode_ns_per_byte", encode),
            ("wire.decode_ns_per_byte", decode),
        ];
        out.extend(gpusim_metrics(&p.ledger, p.merge_s));
        Ok(out)
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("mode", MODE.label().to_string()),
            (
                "shape",
                format!(
                    "n={} d={} m={} chunk={} samples",
                    self.shape.n, self.shape.d, self.shape.m, self.shape.chunk
                ),
            ),
            (
                "node_service_config",
                super::describe_service(&ServiceConfig::default()),
            ),
            ("wire", "binary frames, 1 connection, 1 session".to_string()),
        ]
    }
}
