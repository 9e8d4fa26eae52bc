//! `BIN1` — the serve protocol's one wire format.
//!
//! Every [`crate::protocol`] message travels as fixed little-endian
//! fields and raw f32 payload bytes: no float↔string round trip, so
//! logits (NaN and ±inf included) and partial sums arrive bit for bit,
//! and no recursive parser sits on the network path.
//!
//! # Handshake
//!
//! A client opens its connection with a 5-byte hello:
//!
//! ```text
//! 'B' 'I' 'N' '1'  version(3)
//! ```
//!
//! The server echoes the same 5 bytes to accept, or answers `BIN1` +
//! `0x00` and closes for any other opening — a version other than
//! [`VERSION`], or bytes that are not the magic at all. A server at its
//! connection cap reads nothing: it writes one `Busy` frame and closes,
//! and [`client_handshake`] reports that as `ConnectionRefused`.
//!
//! # Frames
//!
//! After the handshake, every message in either direction is:
//!
//! ```text
//! ┌─────────────┬──────────┬────────────────────────────────┐
//! │ len: u32 LE │ kind: u8 │ body (little-endian fields)    │
//! └─────────────┴──────────┴────────────────────────────────┘
//!                └──────── len bytes ──────────┘
//! ```
//!
//! `Infer` (kind `0x01`): `id: u64`, `n: u32`, then `n` raw
//! little-endian f32s — no float↔string round trip, bit-exact by
//! construction. `Output` (kind `0x81`): `id: u64`, `class: u32`,
//! `bank: u32`, `batch: u32`, `queue_us: u64`, `service_us: u64`,
//! `n: u32`, `n` f32 logits. Strings (shed/error reasons) are
//! `u32` length + UTF-8. Unit variants are a bare kind byte.
//!
//! Trace fields close three kinds: `Infer` and `Partial` bodies end
//! with `trace_id: u64, parent_span: u64`, and `Output` with
//! `trace_id: u64`. A zero `trace_id` means untraced. They follow the
//! payload, so every other field has one offset whether or not the
//! frame is traced.
//!
//! Decoders are strict and positional: each kind has one layout, a
//! frame must consume its body exactly, unknown kinds and malformed
//! bodies (a `parent_span` without a `trace_id` among them) are typed
//! [`WireError`]s, and the [`MAX_FRAME_BYTES`] cap applies before any
//! allocation. So every body a decoder accepts re-encodes to the same
//! bytes.
//!
//! # Allocation discipline
//!
//! [`encode_request`] / [`encode_response`] serialize into a
//! caller-owned scratch `Vec<u8>` (cleared, capacity kept), and
//! [`read_frame_into`] reads into a caller-owned arena the same way —
//! a connection reuses one read arena and one write scratch for its
//! whole life, so steady-state framing does zero allocations per
//! request. Decoders return fresh payload vectors (`Infer.input`,
//! `Output.logits`), one allocation each.

use std::io::{self, Read, Write};

use imc_obs::TraceContext;

use crate::protocol::{
    BusyReply, DescribeReply, FailedReply, InferReply, InferRequest, PartialRequest,
    PartialSumReply, Request, Response, ShedReply, SwapDoneReply, SwapRequest, MAX_FRAME_BYTES,
};

/// The 4-byte connection magic a binary client leads with.
pub const MAGIC: [u8; 4] = *b"BIN1";

/// The protocol version, sent (and echoed) after [`MAGIC`]. Version 3
/// gave `Infer`, `Partial` and `Output` their fixed trailing trace
/// fields; it is the only version peers accept.
pub const VERSION: u8 = 3;

/// Which wire encoding a connection speaks. `BIN1` is the only one;
/// the enum stays so code that names `ClientConfig { proto, .. }` keeps
/// compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// The `BIN1` binary framing.
    #[default]
    Bin,
}

/// Typed decode/validation failures of the binary framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The connection hello did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer requested a protocol version this build does not speak.
    UnsupportedVersion(u8),
    /// A length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// A frame body ended before its declared fields did.
    Truncated,
    /// An unknown frame kind byte.
    UnknownKind(u8),
    /// A structurally invalid body (bad UTF-8, trailing bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad connection magic {m:02x?}"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported BIN1 version {v}"),
            Self::Oversized(len) => write!(
                f,
                "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            ),
            Self::Truncated => f.write_str("frame body truncated"),
            Self::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            Self::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        let kind = match e {
            WireError::Truncated => io::ErrorKind::UnexpectedEof,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    }
}

// Request kinds. 0x02 and 0x83 stay unassigned: a peer built before
// their removal must get `UnknownKind` for them, not another message.
const K_INFER: u8 = 0x01;
const K_PING: u8 = 0x03;
const K_SHUTDOWN: u8 = 0x04;
const K_PARTIAL: u8 = 0x05;
const K_DESCRIBE: u8 = 0x06;
const K_SWAP: u8 = 0x07;
// Response kinds (high bit set).
const K_OUTPUT: u8 = 0x81;
const K_SHED: u8 = 0x82;
const K_PONG: u8 = 0x84;
const K_SHUTTING_DOWN: u8 = 0x85;
const K_ERROR: u8 = 0x86;
const K_BUSY: u8 = 0x87;
const K_FAILED: u8 = 0x88;
const K_PARTIAL_SUM: u8 = 0x89;
const K_DESCRIBE_REPLY: u8 = 0x8A;
const K_SWAP_DONE: u8 = 0x8B;

// --- encoding ------------------------------------------------------------

#[inline]
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    put_u32(buf, u32::try_from(vs.len()).expect("payload fits u32"));
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_i64s(buf: &mut Vec<u8>, vs: &[i64]) {
    put_u32(buf, u32::try_from(vs.len()).expect("payload fits u32"));
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).expect("string fits u32"));
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a request's trace fields, zeros when untraced.
fn put_ctx(buf: &mut Vec<u8>, ctx: Option<&TraceContext>) {
    let (trace_id, parent_span) = ctx.map_or((0, 0), |t| (t.trace_id, t.parent_span));
    put_u64(buf, trace_id);
    put_u64(buf, parent_span);
}

/// Finalizes a frame in `buf`: patches the length prefix reserved by
/// [`begin_frame`] and enforces [`MAX_FRAME_BYTES`].
fn end_frame(buf: &mut [u8]) {
    let body = buf.len() - 4;
    let len = u32::try_from(body).expect("frame fits u32");
    assert!(len <= MAX_FRAME_BYTES, "frame exceeds MAX_FRAME_BYTES");
    buf[..4].copy_from_slice(&len.to_le_bytes());
}

fn begin_frame(buf: &mut Vec<u8>, kind: u8) {
    buf.clear();
    buf.extend_from_slice(&[0, 0, 0, 0]);
    buf.push(kind);
}

/// Encodes one [`Request`] as a complete frame (length prefix
/// included) into `buf`, reusing its capacity.
pub fn encode_request(req: &Request, buf: &mut Vec<u8>) {
    match req {
        Request::Infer(r) => {
            begin_frame(buf, K_INFER);
            put_u64(buf, r.id);
            put_f32s(buf, &r.input);
            put_ctx(buf, r.trace.as_ref());
        }
        Request::Ping => begin_frame(buf, K_PING),
        Request::Shutdown => begin_frame(buf, K_SHUTDOWN),
        Request::Partial(r) => {
            begin_frame(buf, K_PARTIAL);
            put_u64(buf, r.id);
            put_usize(buf, r.layer);
            put_usize(buf, r.chunk_lo);
            put_usize(buf, r.chunk_hi);
            put_f32s(buf, &r.codes);
            put_ctx(buf, r.trace.as_ref());
        }
        Request::Describe => begin_frame(buf, K_DESCRIBE),
        Request::SwapImage(r) => {
            begin_frame(buf, K_SWAP);
            put_str(buf, &r.path);
        }
    }
    end_frame(buf);
}

/// Encodes one [`Response`] as a complete frame (length prefix
/// included) into `buf`, reusing its capacity.
pub fn encode_response(resp: &Response, buf: &mut Vec<u8>) {
    match resp {
        Response::Output(r) => {
            begin_frame(buf, K_OUTPUT);
            put_u64(buf, r.id);
            put_u32(buf, u32::try_from(r.class).expect("class fits u32"));
            put_u32(buf, u32::try_from(r.bank).expect("bank fits u32"));
            put_u32(buf, u32::try_from(r.batch).expect("batch fits u32"));
            put_u64(buf, r.queue_us);
            put_u64(buf, r.service_us);
            put_f32s(buf, &r.logits);
            put_u64(buf, r.trace_id);
        }
        Response::Shed(r) => {
            begin_frame(buf, K_SHED);
            put_u64(buf, r.id);
            put_str(buf, &r.reason);
        }
        Response::Pong => begin_frame(buf, K_PONG),
        Response::ShuttingDown => begin_frame(buf, K_SHUTTING_DOWN),
        Response::Error(msg) => {
            begin_frame(buf, K_ERROR);
            put_str(buf, msg);
        }
        Response::Busy(b) => {
            begin_frame(buf, K_BUSY);
            put_usize(buf, b.active);
            put_usize(buf, b.limit);
        }
        Response::Failed(r) => {
            begin_frame(buf, K_FAILED);
            put_u64(buf, r.id);
            put_str(buf, &r.reason);
        }
        Response::PartialSum(r) => {
            begin_frame(buf, K_PARTIAL_SUM);
            put_u64(buf, r.id);
            put_usize(buf, r.layer);
            put_i64s(buf, &r.sums);
        }
        Response::Describe(d) => {
            begin_frame(buf, K_DESCRIBE_REPLY);
            put_u64(buf, d.digest);
            put_usize(buf, d.shard_index);
            put_usize(buf, d.shard_count);
            put_usize(buf, d.features);
            put_usize(buf, d.classes);
        }
        Response::SwapDone(r) => {
            begin_frame(buf, K_SWAP_DONE);
            put_u64(buf, r.version);
            put_u64(buf, r.digest);
            put_u64(buf, r.pause_us);
        }
    }
    end_frame(buf);
}

// --- decoding ------------------------------------------------------------

/// Strict little-endian field reader over one frame body.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.b.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("usize overflow"))
    }

    /// Reads a `u32`-counted f32 array.
    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Truncated)?)?;
        let mut out = Vec::with_capacity(n);
        for c in bytes.chunks_exact(4) {
            out.push(f32::from_le_bytes(c.try_into().unwrap()));
        }
        Ok(out)
    }

    /// Reads a `u32`-counted i64 array.
    fn i64s(&mut self) -> Result<Vec<i64>, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        let mut out = Vec::with_capacity(n);
        for c in bytes.chunks_exact(8) {
            out.push(i64::from_le_bytes(c.try_into().unwrap()));
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }

    /// Reads a request's trace fields: `None` for a zero `trace_id`.
    fn ctx(&mut self) -> Result<Option<TraceContext>, WireError> {
        let (trace_id, parent_span) = (self.u64()?, self.u64()?);
        match (trace_id, parent_span) {
            (0, 0) => Ok(None),
            (0, _) => Err(WireError::Malformed("parent span without a trace id")),
            _ => Ok(Some(TraceContext {
                trace_id,
                parent_span,
            })),
        }
    }

    /// The body must be fully consumed — trailing bytes mean a framing
    /// bug or corruption, not padding.
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after frame body"))
        }
    }
}

/// Decodes one request frame body (the bytes after the length prefix).
///
/// # Errors
///
/// Typed [`WireError`] on unknown kind, truncation, or trailing bytes.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(body);
    let req = match c.u8()? {
        K_INFER => Request::Infer(InferRequest {
            id: c.u64()?,
            input: c.f32s()?,
            trace: c.ctx()?,
        }),
        K_PING => Request::Ping,
        K_SHUTDOWN => Request::Shutdown,
        K_PARTIAL => Request::Partial(PartialRequest {
            id: c.u64()?,
            layer: c.usize()?,
            chunk_lo: c.usize()?,
            chunk_hi: c.usize()?,
            codes: c.f32s()?,
            trace: c.ctx()?,
        }),
        K_DESCRIBE => Request::Describe,
        K_SWAP => Request::SwapImage(SwapRequest { path: c.string()? }),
        k => return Err(WireError::UnknownKind(k)),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes one response frame body (the bytes after the length prefix).
///
/// # Errors
///
/// Typed [`WireError`] on unknown kind, truncation, or trailing bytes.
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(body);
    let resp = match c.u8()? {
        K_OUTPUT => Response::Output(InferReply {
            id: c.u64()?,
            class: c.u32()? as usize,
            bank: c.u32()? as usize,
            batch: c.u32()? as usize,
            queue_us: c.u64()?,
            service_us: c.u64()?,
            logits: c.f32s()?,
            trace_id: c.u64()?,
        }),
        K_SHED => Response::Shed(ShedReply {
            id: c.u64()?,
            reason: c.string()?,
        }),
        K_PONG => Response::Pong,
        K_SHUTTING_DOWN => Response::ShuttingDown,
        K_ERROR => Response::Error(c.string()?),
        K_BUSY => Response::Busy(BusyReply {
            active: c.usize()?,
            limit: c.usize()?,
        }),
        K_FAILED => Response::Failed(FailedReply {
            id: c.u64()?,
            reason: c.string()?,
        }),
        K_PARTIAL_SUM => Response::PartialSum(PartialSumReply {
            id: c.u64()?,
            layer: c.usize()?,
            sums: c.i64s()?,
        }),
        K_DESCRIBE_REPLY => Response::Describe(DescribeReply {
            digest: c.u64()?,
            shard_index: c.usize()?,
            shard_count: c.usize()?,
            features: c.usize()?,
            classes: c.usize()?,
        }),
        K_SWAP_DONE => Response::SwapDone(SwapDoneReply {
            version: c.u64()?,
            digest: c.u64()?,
            pause_us: c.u64()?,
        }),
        k => return Err(WireError::UnknownKind(k)),
    };
    c.finish()?;
    Ok(resp)
}

// --- framed I/O ----------------------------------------------------------

/// Fills `buf` exactly, tolerating `Interrupted`; `Ok(false)` on a
/// clean EOF before the first byte when `allow_idle`.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8], allow_idle: bool) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && allow_idle => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a BIN1 frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one `BIN1` frame body into `arena` (cleared, capacity
/// reused). Returns `Ok(false)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates I/O errors; typed failures on an oversized prefix or a
/// truncated body.
pub fn read_frame_into<R: Read>(r: &mut R, arena: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf, true)? {
        return Ok(false);
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len).into());
    }
    arena.clear();
    arena.resize(len as usize, 0);
    read_exact_or_eof(r, arena, false)?;
    Ok(true)
}

/// Encodes and writes one request frame, using `scratch` as the encode
/// arena.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_request<W: Write>(w: &mut W, req: &Request, scratch: &mut Vec<u8>) -> io::Result<()> {
    encode_request(req, scratch);
    w.write_all(scratch)?;
    w.flush()
}

/// Encodes and writes one response frame, using `scratch` as the
/// encode arena.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_response<W: Write>(
    w: &mut W,
    resp: &Response,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    encode_response(resp, scratch);
    w.write_all(scratch)?;
    w.flush()
}

/// Reads and decodes one response frame into `arena`; `Ok(None)` on
/// clean EOF.
///
/// # Errors
///
/// Propagates I/O and typed decode errors.
pub fn read_response<R: Read>(r: &mut R, arena: &mut Vec<u8>) -> io::Result<Option<Response>> {
    if !read_frame_into(r, arena)? {
        return Ok(None);
    }
    Ok(Some(decode_response(arena)?))
}

/// Performs the client half of the `BIN1` handshake on a fresh
/// connection: sends `MAGIC ‖ VERSION` and validates the server's
/// 5-byte echo. Returns the negotiated version.
///
/// A server at its connection cap answers with a `Busy` frame instead
/// of the echo; that opening surfaces as `ConnectionRefused` so callers
/// can tell backpressure from protocol failure.
///
/// # Errors
///
/// I/O errors, version rejection, or an unrecognized server opening.
pub fn client_handshake<S: Read + Write>(stream: &mut S) -> io::Result<u8> {
    let mut hello = [0u8; 5];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = VERSION;
    stream.write_all(&hello)?;
    stream.flush()?;
    let mut ack = [0u8; 5];
    read_exact_or_eof(stream, &mut ack, false)?;
    let head: [u8; 4] = ack[..4].try_into().unwrap();
    if head == MAGIC {
        return match ack[4] {
            VERSION => Ok(VERSION),
            v => Err(WireError::UnsupportedVersion(v).into()),
        };
    }
    // Not an ack: a full server's `Busy` frame, whose length prefix and
    // kind byte we already hold.
    let len = u32::from_le_bytes(head);
    if ack[4] != K_BUSY || len == 0 || len > MAX_FRAME_BYTES {
        return Err(WireError::BadMagic(head).into());
    }
    let mut body = vec![0u8; len as usize];
    body[0] = K_BUSY;
    read_exact_or_eof(stream, &mut body[1..], false)?;
    if let Response::Busy(b) = decode_response(&body)? {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("server busy ({}/{} connections)", b.active, b.limit),
        ));
    }
    Err(WireError::BadMagic(head).into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Infer(InferRequest {
                id: u64::MAX,
                input: vec![0.0, -0.0, 1.5e-7, f32::MIN_POSITIVE, 0.1234567, 1.0],
                trace: None,
            }),
            Request::Infer(InferRequest {
                id: 0,
                input: Vec::new(),
                trace: None,
            }),
            Request::Infer(InferRequest {
                id: 17,
                input: vec![0.5, 0.25],
                trace: Some(TraceContext {
                    trace_id: 0xDEAD_BEEF_1234,
                    parent_span: 42,
                }),
            }),
            Request::Ping,
            Request::Shutdown,
            Request::Partial(PartialRequest {
                id: 31,
                layer: 1,
                chunk_lo: 12,
                chunk_hi: 25,
                codes: vec![0.0, 15.0, 7.0, 3.0, 1.0],
                trace: None,
            }),
            Request::Partial(PartialRequest {
                id: 32,
                layer: 0,
                chunk_lo: 0,
                chunk_hi: 4,
                codes: vec![1.0, 2.0],
                trace: Some(TraceContext {
                    trace_id: 7,
                    parent_span: 0,
                }),
            }),
            Request::Describe,
            Request::SwapImage(SwapRequest {
                path: "/models/mnist.v2.chip.json".into(),
            }),
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Output(InferReply {
                id: 42,
                logits: vec![1.5e-7, -3.25, f32::NAN, f32::INFINITY, -0.0],
                class: 3,
                bank: 15,
                batch: 64,
                queue_us: 1500,
                service_us: 800,
                trace_id: 0x5EED,
            }),
            Response::Shed(ShedReply {
                id: 7,
                reason: "queue full".into(),
            }),
            Response::Pong,
            Response::ShuttingDown,
            Response::Error("input has 3 features, model expects 784".into()),
            Response::Busy(BusyReply {
                active: 128,
                limit: 128,
            }),
            Response::Failed(FailedReply {
                id: 99,
                reason: "worker panic".into(),
            }),
            Response::PartialSum(PartialSumReply {
                id: 31,
                layer: 1,
                sums: vec![i64::MIN, -7, 0, 123_456_789_000, i64::MAX],
            }),
            Response::Describe(DescribeReply {
                digest: 0xFEED_FACE_CAFE_BEEF,
                shard_index: 3,
                shard_count: 4,
                features: 784,
                classes: 10,
            }),
            Response::SwapDone(SwapDoneReply {
                version: 2,
                digest: 0x0123_4567_89AB_CDEF,
                pause_us: 91,
            }),
        ]
    }

    /// NaN-tolerant equality: BIN1 carries non-finite logits, and
    /// `PartialEq` alone cannot compare an Output holding a NaN.
    fn logits_bits(resp: &Response) -> Option<Vec<u32>> {
        match resp {
            Response::Output(r) => Some(r.logits.iter().map(|v| v.to_bits()).collect()),
            _ => None,
        }
    }

    #[test]
    fn requests_round_trip_bit_exactly() {
        let mut buf = Vec::new();
        for req in &sample_requests() {
            encode_request(req, &mut buf);
            let body = &buf[4..];
            let back = decode_request(body).unwrap();
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let mut buf = Vec::new();
        for resp in &sample_responses() {
            encode_response(resp, &mut buf);
            let back = decode_response(&buf[4..]).unwrap();
            match (logits_bits(&back), logits_bits(resp)) {
                (Some(a), Some(b)) => assert_eq!(a, b),
                _ => assert_eq!(&back, resp),
            }
        }
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        fn every_cut_fails<T: std::fmt::Debug>(
            body: &[u8],
            decode: fn(&[u8]) -> Result<T, WireError>,
        ) {
            for cut in 0..body.len() {
                match decode(&body[..cut]) {
                    Err(WireError::Truncated | WireError::Malformed(_)) => {}
                    other => panic!("cut {cut} of {body:02x?}: {other:?}"),
                }
            }
        }
        let mut buf = Vec::new();
        for req in &sample_requests() {
            encode_request(req, &mut buf);
            every_cut_fails(&buf[4..], decode_request);
        }
        for resp in &sample_responses() {
            encode_response(resp, &mut buf);
            every_cut_fails(&buf[4..], decode_response);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_request(&Request::Ping, &mut buf);
        let mut body = buf[4..].to_vec();
        body.push(0);
        assert_eq!(
            decode_request(&body),
            Err(WireError::Malformed("trailing bytes after frame body"))
        );
    }

    #[test]
    fn unknown_kinds_are_rejected() {
        assert_eq!(decode_request(&[0x7f]), Err(WireError::UnknownKind(0x7f)));
        assert_eq!(decode_response(&[0x01]), Err(WireError::UnknownKind(0x01)));
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut arena = Vec::new();
        let err = read_frame_into(&mut &bytes[..], &mut arena).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(arena.is_empty(), "nothing allocated for a bad prefix");
    }

    #[test]
    fn frame_reader_reuses_the_arena() {
        let mut stream = Vec::new();
        let mut scratch = Vec::new();
        write_request(&mut stream, &Request::Ping, &mut scratch).unwrap();
        write_request(&mut stream, &Request::Describe, &mut scratch).unwrap();
        let mut r = &stream[..];
        let mut arena = Vec::with_capacity(64);
        assert!(read_frame_into(&mut r, &mut arena).unwrap());
        assert_eq!(decode_request(&arena), Ok(Request::Ping));
        let cap = arena.capacity();
        assert!(read_frame_into(&mut r, &mut arena).unwrap());
        assert_eq!(decode_request(&arena), Ok(Request::Describe));
        assert_eq!(arena.capacity(), cap, "steady state must not reallocate");
        assert!(!read_frame_into(&mut r, &mut arena).unwrap(), "clean EOF");
    }

    /// An in-memory peer that answers a canned byte sequence.
    struct FakePeer {
        reply: Vec<u8>,
        pos: usize,
    }
    impl Read for FakePeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (self.reply.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.reply[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }
    impl Write for FakePeer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn corrupt_magic_handshake_is_rejected() {
        // Server answers garbage that is neither a BIN1 ack nor a Busy
        // frame: 5 bytes that parse as an enormous length prefix.
        let mut peer = FakePeer {
            reply: vec![0xff, 0xff, 0xff, 0xff, 0x00],
            pos: 0,
        };
        let err = client_handshake(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A version the client does not speak is a typed rejection.
        let mut peer = FakePeer {
            reply: vec![b'B', b'I', b'N', b'1', 0x00],
            pos: 0,
        };
        let err = client_handshake(&mut peer).unwrap_err();
        assert!(err.to_string().contains("unsupported BIN1 version"));
    }

    #[test]
    fn busy_opening_is_connection_refused() {
        // A server at its connection cap writes a Busy frame instead of
        // the hello echo; the handshake reads the whole frame and
        // reports backpressure, not a protocol error.
        let mut reply = Vec::new();
        encode_response(
            &Response::Busy(BusyReply {
                active: 3,
                limit: 2,
            }),
            &mut reply,
        );
        let mut peer = FakePeer { reply, pos: 0 };
        let err = client_handshake(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(err.to_string().contains("3/2"), "got: {err}");
        assert_eq!(peer.pos, peer.reply.len(), "the Busy frame is consumed");

        // Any other frame kind in place of the echo is a bad opening.
        let mut reply = Vec::new();
        encode_response(&Response::Pong, &mut reply);
        let mut peer = FakePeer { reply, pos: 0 };
        let err = client_handshake(&mut peer).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A reader that interleaves `ErrorKind::Interrupted` failures and
    /// single-byte reads — the worst-case syscall schedule a signal-heavy
    /// host can produce.
    struct InterruptedReader<'a> {
        data: &'a [u8],
        pos: usize,
        calls: usize,
    }

    impl Read for InterruptedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn interrupted_single_byte_reads_still_assemble_the_frame() {
        let mut framed = Vec::new();
        encode_request(&Request::Describe, &mut framed);
        let mut r = InterruptedReader {
            data: &framed,
            pos: 0,
            calls: 0,
        };
        let mut arena = Vec::new();
        assert!(read_frame_into(&mut r, &mut arena).unwrap());
        assert_eq!(decode_request(&arena), Ok(Request::Describe));
        // A second read hits the interrupted-then-EOF path cleanly.
        assert!(!read_frame_into(&mut r, &mut arena).unwrap());
    }

    #[test]
    fn partial_length_prefix_then_eof_is_an_error() {
        let mut framed = Vec::new();
        encode_request(&Request::Ping, &mut framed);
        for cut in 1..4usize {
            let mut r = &framed[..cut];
            let err =
                read_frame_into(&mut r, &mut Vec::new()).expect_err("truncated prefix must error");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn client_handshake_reports_negotiated_version() {
        let mut peer = FakePeer {
            reply: vec![b'B', b'I', b'N', b'1', VERSION],
            pos: 0,
        };
        assert_eq!(client_handshake(&mut peer).unwrap(), VERSION);
    }
}
