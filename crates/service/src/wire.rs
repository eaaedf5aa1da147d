//! The binary wire protocol (DESIGN.md §15): length-prefixed, CRC-checked
//! frames negotiated per-connection on top of the JSON-lines handshake.
//!
//! A client sends a `wire_upgrade` request as an ordinary JSON line, and
//! after the server's `ok` reply both sides switch to frames for the rest
//! of the connection. Bulk planes travel only on frames; JSON lines carry
//! the handshake and the control ops. Each frame is:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"MW"
//! 2       1     version (1)
//! 3       1     kind (1 = message envelope)
//! 4       4     payload length, u32 LE (checksum excluded)
//! 8       n     payload
//! 8+n     4     CRC32 (IEEE) of the payload, u32 LE
//! ```
//!
//! The payload is an **envelope**: a JSON object (the op and its scalar
//! fields, exactly the JSON-lines vocabulary) followed by zero or more
//! **chunks** carrying the bulk planes:
//!
//! ```text
//! json_len u32 LE | json utf-8 | chunk_count u16 LE | chunks…
//! chunk: width u8 | count u32 LE | byte_len u32 LE | data
//! ```
//!
//! Width tags 8/4/2 are float planes as raw little-endian `f64`/`f32`/
//! [`Half`] bit patterns; tag 0 is an index plane as delta + zigzag
//! LEB128 varints. Float planes are narrowed only when every element
//! **bit-exactly** survives the round trip (`to_bits` compared after
//! widening back to `f64`), scanned per chunk — so FP64 planes ship at
//! 8 B, FP32 and tensor-core planes at 4 B, and the planes of FP16,
//! Mixed, FP16C and the other modes whose values are half-exact at 2 B
//! per element, with no mode-specific trust involved; a plane holding a
//! non-canonical NaN simply stays at 8 B.
//!
//! Error containment: a checksum or envelope-decode failure is
//! [`WireError::Corrupt`] — the length prefix kept the stream aligned, so
//! the server answers with a typed error frame and the connection
//! continues. A broken header (bad magic/version/kind or an oversized
//! length prefix) is [`WireError::Desync`]: framing is lost, the server
//! answers once and closes, staying up for other connections.

use crate::proto::Json;
use mdmp_precision::Half;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

/// First two bytes of every frame.
pub const WIRE_MAGIC: [u8; 2] = *b"MW";
/// Protocol version carried in the frame header and the `wire_upgrade`
/// negotiation.
pub const WIRE_VERSION: u8 = 1;
/// The only frame kind of version 1: a message envelope.
pub const FRAME_KIND_MESSAGE: u8 = 1;
/// Ceiling on a frame's payload length; a larger length prefix can only
/// be garbage (or hostile) and is treated as lost framing.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Chunk width tag for delta+varint index planes.
const TAG_INDEX: u8 = 0;

const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One bulk payload riding in a frame alongside the envelope JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Chunk {
    /// A float plane (bit-exact `f64` values, however narrow the wire
    /// form was).
    F64(Vec<f64>),
    /// An index plane.
    I64(Vec<i64>),
}

impl Chunk {
    /// Elements in the chunk.
    pub fn len(&self) -> usize {
        match self {
            Chunk::F64(v) => v.len(),
            Chunk::I64(v) => v.len(),
        }
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The float plane, if this is one.
    pub fn into_f64(self) -> Option<Vec<f64>> {
        match self {
            Chunk::F64(v) => Some(v),
            Chunk::I64(_) => None,
        }
    }

    /// The index plane, if this is one.
    pub fn into_i64(self) -> Option<Vec<i64>> {
        match self {
            Chunk::I64(v) => Some(v),
            Chunk::F64(_) => None,
        }
    }
}

/// A decoded frame: the envelope JSON plus its chunks (none for a control
/// op).
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// The op and its scalar fields.
    pub json: Json,
    /// Bulk planes, referenced from the JSON by chunk index.
    pub chunks: Vec<Chunk>,
}

impl Message {
    /// A chunkless message (any request/response that fits in JSON).
    pub fn json(json: Json) -> Message {
        Message {
            json,
            chunks: Vec::new(),
        }
    }
}

/// Why a wire operation failed.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (connect, read, write, timeout, EOF mid-frame).
    /// The connection is unusable.
    Io(std::io::Error),
    /// Framing is lost: bad magic/version/kind or an oversized length
    /// prefix. The peer cannot resynchronize; close after a typed error.
    Desync(String),
    /// The frame boundary was intact but its content failed the checksum
    /// or envelope decode. The connection can continue.
    Corrupt(String),
    /// The server answered `wire_upgrade` with something other than an
    /// `ok` binary reply: it does not speak this protocol version.
    Declined(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Desync(e) => write!(f, "framing lost: {e}"),
            WireError::Corrupt(e) => write!(f, "corrupt frame: {e}"),
            WireError::Declined(e) => write!(f, "binary wire upgrade declined: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// The client-side transport choice. Its one variant negotiates binary
/// frames; the type survives only because the benchmark harness names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePreference {
    /// Run the `wire_upgrade` negotiation.
    Auto,
}

fn zigzag(d: i64) -> u64 {
    ((d as u64) << 1) ^ ((d >> 63) as u64)
}

fn unzigzag(zz: u64) -> i64 {
    ((zz >> 1) as i64) ^ -((zz & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn take_varint(bytes: &[u8], at: &mut usize) -> Result<u64, String> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*at) else {
            return Err("varint runs past the chunk".into());
        };
        *at += 1;
        if shift >= 64 {
            return Err("varint longer than 64 bits".into());
        }
        // At shift 63 only the low bit of the payload fits; higher bits
        // would be silently shifted out, decoding a wrong value.
        if shift == 63 && byte & 0x7E != 0 {
            return Err("varint longer than 64 bits".into());
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// The narrowest element width (2, 4 or 8 bytes) at which every value of
/// `plane` survives the wire round trip **bit-exactly**.
///
/// The check is per element and unconditional: a value is eligible for
/// width 2 iff `Half::from_f64(v).to_f64()` reproduces its exact bit
/// pattern, and for width 4 iff `(v as f32) as f64` does. Half ⊂ f32 ⊂
/// f64 exactly, so the scan only ever escalates. This is why narrow
/// planes are safe by construction: FP64 planes fail both tests and ship
/// at 8 B; FP32-valued planes (FP32 and the TC modes, plus the `+Inf`
/// unset sentinel) pass the f32 test; FP16-valued planes (FP16, Mixed,
/// FP16C) pass the Half test; and any value the round trips don't
/// reproduce exactly — a NaN whose `as`-cast payload comes back
/// different, a subnormal — silently stays at 8 B rather than trusting
/// the precision mode's label. The codec decodes with the same `Half`/`f32` conversions the
/// scan probes with, so a passed probe is a guaranteed round trip.
pub fn narrowest_width(plane: &[f64]) -> u8 {
    let mut width = 2u8;
    for &v in plane {
        let bits = v.to_bits();
        if width == 2 && Half::from_f64(v).to_f64().to_bits() != bits {
            width = 4;
        }
        if width == 4 && ((v as f32) as f64).to_bits() != bits {
            return 8;
        }
    }
    width
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_u8(bytes: &[u8], at: &mut usize) -> Result<u8, String> {
    let Some(&b) = bytes.get(*at) else {
        return Err("payload truncated (u8)".into());
    };
    *at += 1;
    Ok(b)
}

fn take_u16(bytes: &[u8], at: &mut usize) -> Result<u16, String> {
    let end = at.checked_add(2).ok_or("payload offset overflow")?;
    let Some(slice) = bytes.get(*at..end) else {
        return Err("payload truncated (u16)".into());
    };
    *at = end;
    let mut b = [0u8; 2];
    b.copy_from_slice(slice);
    Ok(u16::from_le_bytes(b))
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
    let end = at.checked_add(4).ok_or("payload offset overflow")?;
    let Some(slice) = bytes.get(*at..end) else {
        return Err("payload truncated (u32)".into());
    };
    *at = end;
    let mut b = [0u8; 4];
    b.copy_from_slice(slice);
    Ok(u32::from_le_bytes(b))
}

fn take_slice<'a>(bytes: &'a [u8], at: &mut usize, len: usize) -> Result<&'a [u8], String> {
    let end = at.checked_add(len).ok_or("payload offset overflow")?;
    let Some(slice) = bytes.get(*at..end) else {
        return Err(format!("payload truncated ({len}-byte slice)"));
    };
    *at = end;
    Ok(slice)
}

fn encode_chunk(out: &mut Vec<u8>, chunk: &Chunk, narrow: bool) -> Result<(), String> {
    let count =
        u32::try_from(chunk.len()).map_err(|_| "chunk longer than u32 elements".to_string())?;
    match chunk {
        Chunk::F64(plane) => {
            let width = if narrow { narrowest_width(plane) } else { 8 };
            let byte_len = u64::from(count)
                .checked_mul(u64::from(width))
                .and_then(|b| u32::try_from(b).ok())
                .ok_or_else(|| "chunk longer than u32 bytes".to_string())?;
            out.push(width);
            push_u32(out, count);
            push_u32(out, byte_len);
            match width {
                2 => {
                    for &v in plane {
                        out.extend_from_slice(&Half::from_f64(v).to_bits().to_le_bytes());
                    }
                }
                4 => {
                    for &v in plane {
                        out.extend_from_slice(&(v as f32).to_bits().to_le_bytes());
                    }
                }
                _ => {
                    for &v in plane {
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        Chunk::I64(plane) => {
            out.push(TAG_INDEX);
            push_u32(out, count);
            let len_at = out.len();
            push_u32(out, 0);
            let mut prev = 0i64;
            for &x in plane {
                push_varint(out, zigzag(x.wrapping_sub(prev)));
                prev = x;
            }
            let byte_len = u32::try_from(out.len() - len_at - 4)
                .map_err(|_| "index chunk longer than u32 bytes".to_string())?;
            let bytes = byte_len.to_le_bytes();
            for (i, b) in bytes.iter().enumerate() {
                if let Some(slot) = out.get_mut(len_at + i) {
                    *slot = *b;
                }
            }
        }
    }
    Ok(())
}

fn decode_chunk(tag: u8, count: usize, data: &[u8]) -> Result<Chunk, String> {
    match tag {
        TAG_INDEX => {
            let mut plane = Vec::with_capacity(count);
            let mut at = 0usize;
            let mut prev = 0i64;
            for _ in 0..count {
                let d = unzigzag(take_varint(data, &mut at)?);
                prev = prev.wrapping_add(d);
                plane.push(prev);
            }
            if at != data.len() {
                return Err("index chunk has trailing bytes".into());
            }
            Ok(Chunk::I64(plane))
        }
        2 | 4 | 8 => {
            let width = tag as usize;
            let expect = count
                .checked_mul(width)
                .ok_or("chunk byte length overflows")?;
            if data.len() != expect {
                return Err(format!(
                    "width-{tag} chunk carries {} bytes for {count} elements",
                    data.len()
                ));
            }
            let mut plane = Vec::with_capacity(count);
            match tag {
                2 => {
                    for pair in data.chunks_exact(2) {
                        let mut b = [0u8; 2];
                        b.copy_from_slice(pair);
                        plane.push(Half::from_bits(u16::from_le_bytes(b)).to_f64());
                    }
                }
                4 => {
                    for quad in data.chunks_exact(4) {
                        let mut b = [0u8; 4];
                        b.copy_from_slice(quad);
                        plane.push(f64::from(f32::from_bits(u32::from_le_bytes(b))));
                    }
                }
                _ => {
                    for oct in data.chunks_exact(8) {
                        let mut b = [0u8; 8];
                        b.copy_from_slice(oct);
                        plane.push(f64::from_bits(u64::from_le_bytes(b)));
                    }
                }
            }
            Ok(Chunk::F64(plane))
        }
        other => Err(format!("unknown chunk width tag {other}")),
    }
}

fn parse_payload(bytes: &[u8]) -> Result<Message, String> {
    let mut at = 0usize;
    let json_len = take_u32(bytes, &mut at)? as usize;
    let json_bytes = take_slice(bytes, &mut at, json_len)?;
    let text =
        std::str::from_utf8(json_bytes).map_err(|_| "envelope JSON is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("envelope JSON: {e}"))?;
    let chunk_count = take_u16(bytes, &mut at)? as usize;
    let mut chunks = Vec::with_capacity(chunk_count.min(1024));
    for _ in 0..chunk_count {
        let tag = take_u8(bytes, &mut at)?;
        let count = take_u32(bytes, &mut at)? as usize;
        let byte_len = take_u32(bytes, &mut at)? as usize;
        let data = take_slice(bytes, &mut at, byte_len)?;
        chunks.push(decode_chunk(tag, count, data)?);
    }
    if at != bytes.len() {
        return Err("envelope has trailing bytes".into());
    }
    Ok(Message { json, chunks })
}

/// A pooled frame encoder/decoder: one per connection, reusing its
/// payload and frame buffers across requests so the steady state does no
/// per-request allocation for the envelope itself.
#[derive(Debug, Default)]
pub struct FrameCodec {
    frame: Vec<u8>,
    payload: Vec<u8>,
}

impl FrameCodec {
    /// A codec with empty (lazily grown) buffers.
    pub fn new() -> FrameCodec {
        FrameCodec::default()
    }

    /// Encode `msg` into one contiguous frame, narrowing float chunks to
    /// their lossless width when `narrow` is set. The returned slice
    /// borrows the codec's pooled buffer — write it with a single
    /// `write_all` before the next encode.
    pub fn encode(&mut self, msg: &Message, narrow: bool) -> Result<&[u8], String> {
        self.payload.clear();
        let text = msg.json.to_string();
        let json_len =
            u32::try_from(text.len()).map_err(|_| "envelope JSON longer than u32".to_string())?;
        push_u32(&mut self.payload, json_len);
        self.payload.extend_from_slice(text.as_bytes());
        let chunk_count =
            u16::try_from(msg.chunks.len()).map_err(|_| "more than u16::MAX chunks".to_string())?;
        self.payload.extend_from_slice(&chunk_count.to_le_bytes());
        for chunk in &msg.chunks {
            encode_chunk(&mut self.payload, chunk, narrow)?;
        }
        if self.payload.len() > MAX_FRAME_BYTES {
            return Err(format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                self.payload.len()
            ));
        }
        self.frame.clear();
        self.frame.extend_from_slice(&WIRE_MAGIC);
        self.frame.push(WIRE_VERSION);
        self.frame.push(FRAME_KIND_MESSAGE);
        push_u32(&mut self.frame, self.payload.len() as u32);
        self.frame.extend_from_slice(&self.payload);
        push_u32(&mut self.frame, crc32(&self.payload));
        Ok(&self.frame)
    }

    /// Read one frame. `Ok(None)` is a clean end of stream (EOF before
    /// any header byte); `Ok(Some((msg, bytes)))` carries the decoded
    /// message and the frame's total size on the wire.
    pub fn read(&mut self, reader: &mut impl BufRead) -> Result<Option<(Message, u64)>, WireError> {
        if reader.fill_buf()?.is_empty() {
            return Ok(None);
        }
        let mut header = [0u8; 8];
        reader.read_exact(&mut header)?;
        if header[0..2] != WIRE_MAGIC {
            return Err(WireError::Desync(format!(
                "bad magic {:02x}{:02x}",
                header[0], header[1]
            )));
        }
        if header[2] != WIRE_VERSION {
            return Err(WireError::Desync(format!(
                "unsupported wire version {}",
                header[2]
            )));
        }
        if header[3] != FRAME_KIND_MESSAGE {
            return Err(WireError::Desync(format!(
                "unknown frame kind {}",
                header[3]
            )));
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&header[4..8]);
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Desync(format!(
                "length prefix {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
            )));
        }
        self.payload.clear();
        self.payload.resize(len, 0);
        reader.read_exact(&mut self.payload)?;
        let mut crc_bytes = [0u8; 4];
        reader.read_exact(&mut crc_bytes)?;
        let expect = u32::from_le_bytes(crc_bytes);
        let got = crc32(&self.payload);
        if got != expect {
            return Err(WireError::Corrupt(format!(
                "checksum mismatch: frame says {expect:08x}, payload hashes to {got:08x}"
            )));
        }
        let msg = parse_payload(&self.payload).map_err(WireError::Corrupt)?;
        Ok(Some((msg, (8 + len + 4) as u64)))
    }
}

/// A client connection on binary frames, with `TCP_NODELAY`, buffered
/// writes and byte accounting.
pub struct WireConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    codec: FrameCodec,
    bytes_sent: u64,
    bytes_received: u64,
}

impl std::fmt::Debug for WireConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireConn")
            .field("bytes_sent", &self.bytes_sent)
            .field("bytes_received", &self.bytes_received)
            .finish()
    }
}

impl WireConn {
    /// Connect to `addr`, set `TCP_NODELAY` (and `read_timeout`, when
    /// given), and run the `wire_upgrade` negotiation. A server that
    /// declines the upgrade is [`WireError::Declined`].
    pub fn connect(
        addr: &str,
        read_timeout: Option<Duration>,
        _prefer: WirePreference,
    ) -> Result<WireConn, WireError> {
        let stream = TcpStream::connect(addr)?;
        // Request/response protocol: Nagle only adds latency here.
        let _ = stream.set_nodelay(true);
        if read_timeout.is_some() {
            stream.set_read_timeout(read_timeout)?;
        }
        let writer = BufWriter::new(stream.try_clone()?);
        let mut conn = WireConn {
            reader: BufReader::new(stream),
            writer,
            codec: FrameCodec::new(),
            bytes_sent: 0,
            bytes_received: 0,
        };
        conn.upgrade()?;
        Ok(conn)
    }

    /// The one JSON-lines exchange of a connection: `wire_upgrade` out,
    /// the server's verdict back.
    fn upgrade(&mut self) -> Result<(), WireError> {
        let request = Json::obj(vec![
            ("op", Json::str("wire_upgrade")),
            ("version", Json::num(f64::from(WIRE_VERSION))),
        ])
        .to_string();
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.bytes_sent += request.len() as u64 + 1;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed by peer",
            )));
        }
        self.bytes_received += n as u64;
        let reply = Json::parse(line.trim()).map_err(WireError::Corrupt)?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true)
            && reply.get("wire").and_then(Json::as_str) == Some("binary")
        {
            return Ok(());
        }
        Err(WireError::Declined(
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("no binary reply")
                .to_string(),
        ))
    }

    /// Always true: a connected `WireConn` speaks binary frames. Kept for
    /// the benchmark harness, which checks it.
    pub fn is_binary(&self) -> bool {
        true
    }

    /// Bytes written to the socket so far (handshake and framing
    /// included).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes read from the socket so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Send one message as a frame.
    pub fn send(&mut self, msg: &Message) -> Result<(), WireError> {
        let frame = self.codec.encode(msg, true).map_err(WireError::Corrupt)?;
        self.writer.write_all(frame)?;
        self.writer.flush()?;
        self.bytes_sent += frame.len() as u64;
        Ok(())
    }

    /// Receive one frame.
    pub fn recv(&mut self) -> Result<Message, WireError> {
        match self.codec.read(&mut self.reader)? {
            Some((msg, n)) => {
                self.bytes_received += n;
                Ok(msg)
            }
            None => Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed by peer",
            ))),
        }
    }

    /// One round trip: send `msg`, read the reply.
    pub fn request(&mut self, msg: &Message) -> Result<Message, WireError> {
        self.send(msg)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message, narrow: bool) -> (Message, usize) {
        let mut codec = FrameCodec::new();
        let frame = codec.encode(msg, narrow).expect("encode").to_vec();
        let len = frame.len();
        let mut decode = FrameCodec::new();
        let mut reader = std::io::BufReader::new(&frame[..]);
        let (back, n) = decode.read(&mut reader).expect("read").expect("some");
        assert_eq!(n as usize, len);
        (back, len)
    }

    #[test]
    fn zigzag_varint_round_trip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, zigzag(v));
            let mut at = 0;
            assert_eq!(unzigzag(take_varint(&buf, &mut at).unwrap()), v);
            assert_eq!(at, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflowing_tenth_byte() {
        // Canonical u64::MAX: nine continuation bytes, then 0x01.
        let mut buf = Vec::new();
        push_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        let mut at = 0;
        assert_eq!(take_varint(&buf, &mut at).unwrap(), u64::MAX);
        // A 10th byte with payload bits beyond the one that fits at
        // shift 63 must error, not silently drop the high bits.
        let bad = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let mut at = 0;
        assert!(take_varint(&bad, &mut at).is_err());
    }

    #[test]
    fn encode_rejects_byte_len_overflow() {
        // A plane whose element count * width overflows u32 bytes must
        // be a typed error, not a wrapped length. 2^29 elements at
        // width 8 is the smallest overflow; the all-zero plane is an
        // untouched lazy-zero allocation and the encoder errors before
        // reading any element.
        let plane = vec![0.0f64; 1usize << 29];
        let mut out = Vec::new();
        let err = encode_chunk(&mut out, &Chunk::F64(plane), false).unwrap_err();
        assert!(err.contains("u32"), "{err}");
    }

    #[test]
    fn narrowest_width_scans_bit_exactly() {
        assert_eq!(narrowest_width(&[0.0, 1.0, -2.5, f64::INFINITY]), 2);
        // 1e-20 rounds in f32 but `1e-20f32 as f64` is f32-exact, and it
        // underflows Half to zero, so the pair settles at width 4.
        assert_eq!(narrowest_width(&[1.5f32 as f64, 1e-20f32 as f64]), 4);
        assert_eq!(narrowest_width(&[0.1]), 8);
        assert_eq!(narrowest_width(&[1e300]), 8);
        // `Half::from_f64`/`to_f64` reproduce the canonical quiet NaN
        // bit-exactly (the codec uses the same pair, so this is sound by
        // construction); a payload NaN can never narrow.
        assert_eq!(narrowest_width(&[f64::NAN]), 2);
        assert_eq!(narrowest_width(&[f64::from_bits(0x7FF0_0000_0000_0001)]), 8);
        // The sign of a NaN survives Half, so the negative quiet NaN
        // narrows too. A payload NaN that `as f32` keeps but Half
        // canonicalises settles at width 4, either sign.
        assert_eq!(narrowest_width(&[-f64::NAN]), 2);
        assert_eq!(narrowest_width(&[f64::from_bits(0x7FFC_0000_0000_0000)]), 4);
        assert_eq!(narrowest_width(&[f64::from_bits(0xFFFC_0000_0000_0000)]), 4);
        assert_eq!(narrowest_width(&[f64::from_bits(0x7FF8_0000_0000_0001)]), 8);
        // -0.0 keeps its sign bit at every width.
        assert_eq!(narrowest_width(&[-0.0]), 2);
        assert_eq!(narrowest_width(&[]), 2);
    }

    #[test]
    fn frame_round_trips_planes_bit_exactly() {
        let json = Json::obj(vec![("op", Json::str("tile_exec")), ("x", Json::num(3.0))]);
        let plane = vec![f64::INFINITY, -0.0, 1.5, f64::NAN, 1e-300, -7.25];
        let idx = vec![-1i64, 0, 5, 4, 1 << 33, -9];
        let msg = Message {
            json: json.clone(),
            chunks: vec![Chunk::F64(plane.clone()), Chunk::I64(idx.clone())],
        };
        for narrow in [false, true] {
            let (back, _) = round_trip(&msg, narrow);
            assert_eq!(back.json, json);
            assert_eq!(back.chunks.len(), 2);
            match &back.chunks[0] {
                Chunk::F64(p) => {
                    assert_eq!(p.len(), plane.len());
                    for (a, b) in plane.iter().zip(p) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
                    }
                }
                other => panic!("expected F64, got {other:?}"),
            }
            assert_eq!(back.chunks[1], Chunk::I64(idx.clone()));
        }
    }

    #[test]
    fn narrow_fp32_plane_is_under_half_the_wide_frame() {
        let plane: Vec<f64> = (0..4096).map(|i| f64::from(i as f32 * 0.25)).collect();
        let msg = Message {
            json: Json::obj(vec![("op", Json::str("tile_exec"))]),
            chunks: vec![Chunk::F64(plane)],
        };
        let (_, wide) = round_trip(&msg, false);
        let (_, narrow) = round_trip(&msg, true);
        assert!(narrow * 2 < wide + 64, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    fn corrupt_checksum_is_recoverable_desync_is_not() {
        let msg = Message::json(Json::obj(vec![("op", Json::str("ping"))]));
        let mut codec = FrameCodec::new();
        let mut frame = codec.encode(&msg, true).expect("encode").to_vec();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let mut reader = std::io::BufReader::new(&frame[..]);
        match codec.read(&mut reader) {
            Err(WireError::Corrupt(_)) => {}
            other => panic!("flipped checksum must be Corrupt, got {other:?}"),
        }

        let mut bad_magic = codec.encode(&msg, true).expect("encode").to_vec();
        bad_magic[0] = b'X';
        let mut reader = std::io::BufReader::new(&bad_magic[..]);
        match codec.read(&mut reader) {
            Err(WireError::Desync(_)) => {}
            other => panic!("bad magic must be Desync, got {other:?}"),
        }

        let mut oversized = codec.encode(&msg, true).expect("encode").to_vec();
        oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = std::io::BufReader::new(&oversized[..]);
        match codec.read(&mut reader) {
            Err(WireError::Desync(e)) => assert!(e.contains("length prefix"), "{e}"),
            other => panic!("oversized length must be Desync, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_io_clean_eof_is_none() {
        let msg = Message::json(Json::obj(vec![("op", Json::str("ping"))]));
        let mut codec = FrameCodec::new();
        let frame = codec.encode(&msg, true).expect("encode").to_vec();
        let mut reader = std::io::BufReader::new(&frame[..frame.len() / 2]);
        match codec.read(&mut reader) {
            Err(WireError::Io(_)) => {}
            other => panic!("truncated frame must be Io, got {other:?}"),
        }
        let empty: &[u8] = &[];
        let mut reader = std::io::BufReader::new(empty);
        assert!(matches!(codec.read(&mut reader), Ok(None)));
    }

    #[test]
    fn split_reads_reassemble_frames() {
        // A reader that yields one byte per read: the codec must be
        // agnostic to how the transport fragments the stream.
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.split_first() {
                    Some((b, rest)) if !buf.is_empty() => {
                        buf[0] = *b;
                        self.0 = rest;
                        Ok(1)
                    }
                    _ => Ok(0),
                }
            }
        }
        let msg = Message {
            json: Json::obj(vec![("op", Json::str("stream_append"))]),
            chunks: vec![Chunk::F64(vec![1.25, -3.5]), Chunk::I64(vec![7, -2])],
        };
        let mut codec = FrameCodec::new();
        let frame = codec.encode(&msg, true).expect("encode").to_vec();
        let mut reader = std::io::BufReader::with_capacity(1, OneByte(&frame));
        let (back, n) = codec.read(&mut reader).expect("read").expect("some");
        assert_eq!(n as usize, frame.len());
        assert_eq!(back, msg);
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoder() {
        // Deterministic pseudo-random garbage, plus mutations of a valid
        // frame: every outcome must be a typed error or a decode, never a
        // panic or a runaway allocation.
        let msg = Message {
            json: Json::obj(vec![("op", Json::str("ping"))]),
            chunks: vec![Chunk::I64(vec![1, 2, 3])],
        };
        let mut codec = FrameCodec::new();
        let valid = codec.encode(&msg, true).expect("encode").to_vec();
        let mut state = 0x12345678u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for trial in 0..200 {
            let mut bytes = valid.clone();
            let flips = 1 + trial % 4;
            for _ in 0..flips {
                let at = rand() as usize % bytes.len();
                bytes[at] ^= rand() | 1;
            }
            let mut reader = std::io::BufReader::new(&bytes[..]);
            let _ = codec.read(&mut reader);
        }
        for len in [0usize, 1, 7, 8, 20] {
            let garbage: Vec<u8> = (0..len).map(|_| rand()).collect();
            let mut reader = std::io::BufReader::new(&garbage[..]);
            let _ = codec.read(&mut reader);
        }
    }
}
