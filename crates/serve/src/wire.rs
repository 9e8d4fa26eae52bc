//! `BIN1` — the negotiated binary wire format.
//!
//! JSON framing ([`crate::protocol`]) spends most of a request's wire
//! budget printing and parsing floats; at packed-kernel service times
//! (~250 µs/inference) that is the difference between the protocol
//! disappearing into the noise and dominating it. `BIN1` replaces the
//! JSON *body* with fixed little-endian fields and raw f32 payload
//! bytes while keeping the same request/response model.
//!
//! # Negotiation
//!
//! A `BIN1` client opens its connection with a 5-byte hello:
//!
//! ```text
//! 'B' 'I' 'N' '1'  version(2)
//! ```
//!
//! The server echoes the same 5 bytes to accept, or `BIN1` + `0x00`
//! (then closes) for any version other than [`VERSION`]. A JSON
//! client's first bytes are
//! instead a big-endian frame length ≤ [`MAX_FRAME_BYTES`] (16 MiB);
//! `b"BIN1"` read as a big-endian u32 is ≈ 1.1 GiB, so the two
//! openings can never be confused and JSON clients keep working
//! untouched.
//!
//! # Trace context (version 2)
//!
//! Version 2 adds an *optional* trailing trace-context block to
//! `Infer`/`Partial` requests and `Output` responses:
//!
//! ```text
//! 0xC7  trace_id: u64 LE  parent_span: u64 LE  flags: u8
//! ```
//!
//! Exactly [`CTX_BLOCK_LEN`] bytes, appended after the body when the
//! message carries a trace (`flags` bit 0 = head-sampled). Decoders of
//! *every* kind tolerate the block — if exactly 18 bytes remain after
//! the positional fields and the first is `0xC7` they are consumed —
//! so a context-bearing frame is never a [`WireError`] to a decoder
//! that does not use it.
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
//! Decoders are strict: a frame must consume its body exactly, unknown
//! kinds and malformed bodies are typed [`WireError`]s, and the
//! [`MAX_FRAME_BYTES`] cap applies before any allocation.
//!
//! # Allocation discipline
//!
//! [`encode_request`] / [`encode_response`] serialize into a
//! caller-owned scratch `Vec<u8>` (cleared, capacity kept), and
//! [`read_frame_into`] reads into a caller-owned arena the same way —
//! a connection reuses one read arena and one write scratch for its
//! whole life, so steady-state framing does zero allocations per
//! request. Decoded payload vectors (`Infer.input`) can come from a
//! caller-supplied spare via [`decode_request_reusing`], which the
//! server recycles through its input pool.

use std::io::{self, Read, Write};

use imc_obs::TraceContext;

use crate::protocol::{
    BankStats, BusyReply, DescribeReply, FailedReply, InferReply, InferRequest, LatencySummary,
    PartialRequest, PartialSumReply, Request, Response, ShedReply, StatsReply, SwapDoneReply,
    SwapRequest, MAX_FRAME_BYTES,
};

/// The 4-byte connection magic a binary client leads with.
pub const MAGIC: [u8; 4] = *b"BIN1";

/// The protocol version, sent (and echoed) after [`MAGIC`]. Version 2
/// added the optional trailing trace-context block; it is the only
/// version peers accept.
pub const VERSION: u8 = 2;

/// Marker byte opening the optional trace-context block.
pub const CTX_MARKER: u8 = 0xC7;

/// Exact size of the trace-context block: marker + trace_id +
/// parent_span + flags.
pub const CTX_BLOCK_LEN: usize = 1 + 8 + 8 + 1;

/// Which wire encoding a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// Length-prefixed JSON frames — the compat default.
    #[default]
    Json,
    /// The negotiated `BIN1` binary framing.
    Bin,
}

impl std::str::FromStr for Proto {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(Self::Json),
            "bin" => Ok(Self::Bin),
            other => Err(format!("unknown protocol {other:?} (expected json|bin)")),
        }
    }
}

impl std::fmt::Display for Proto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Json => "json",
            Self::Bin => "bin",
        })
    }
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

// Request kinds.
const K_INFER: u8 = 0x01;
const K_STATS: u8 = 0x02;
const K_PING: u8 = 0x03;
const K_SHUTDOWN: u8 = 0x04;
const K_PARTIAL: u8 = 0x05;
const K_DESCRIBE: u8 = 0x06;
const K_SWAP: u8 = 0x07;
// Response kinds (high bit set).
const K_OUTPUT: u8 = 0x81;
const K_SHED: u8 = 0x82;
const K_STATS_REPLY: u8 = 0x83;
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

#[inline]
fn put_f64(buf: &mut Vec<u8>, v: f64) {
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

/// Appends the optional trace-context block (see module docs).
fn put_ctx(buf: &mut Vec<u8>, trace_id: u64, parent_span: u64, sampled: bool) {
    buf.push(CTX_MARKER);
    put_u64(buf, trace_id);
    put_u64(buf, parent_span);
    buf.push(u8::from(sampled));
}

fn put_latency(buf: &mut Vec<u8>, l: &LatencySummary) {
    put_u64(buf, l.count);
    put_f64(buf, l.mean_us);
    put_u64(buf, l.p50_us);
    put_u64(buf, l.p95_us);
    put_u64(buf, l.p99_us);
    put_u64(buf, l.max_us);
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
            if let Some(t) = &r.trace {
                put_ctx(buf, t.trace_id, t.parent_span, t.sampled);
            }
        }
        Request::Stats => begin_frame(buf, K_STATS),
        Request::Ping => begin_frame(buf, K_PING),
        Request::Shutdown => begin_frame(buf, K_SHUTDOWN),
        Request::Partial(r) => {
            begin_frame(buf, K_PARTIAL);
            put_u64(buf, r.id);
            put_usize(buf, r.layer);
            put_usize(buf, r.chunk_lo);
            put_usize(buf, r.chunk_hi);
            put_f32s(buf, &r.codes);
            if let Some(t) = &r.trace {
                put_ctx(buf, t.trace_id, t.parent_span, t.sampled);
            }
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
            if r.trace_id != 0 {
                put_ctx(buf, r.trace_id, 0, false);
            }
        }
        Response::Shed(r) => {
            begin_frame(buf, K_SHED);
            put_u64(buf, r.id);
            put_str(buf, &r.reason);
        }
        Response::Stats(s) => {
            begin_frame(buf, K_STATS_REPLY);
            put_u64(buf, s.admitted);
            put_u64(buf, s.completed);
            put_u64(buf, s.shed);
            put_u64(buf, s.protocol_errors);
            put_u64(buf, s.batches);
            put_usize(buf, s.queue_depth);
            put_f64(buf, s.throughput_rps);
            put_u64(buf, s.uptime_ms);
            put_latency(buf, &s.request_latency);
            put_latency(buf, &s.batch_latency);
            put_u32(buf, u32::try_from(s.banks.len()).expect("banks fit u32"));
            for b in &s.banks {
                put_usize(buf, b.bank);
                put_u64(buf, b.batches);
                put_u64(buf, b.requests);
            }
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

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("usize overflow"))
    }

    /// Reads a `u32`-counted f32 array into `out` (cleared first).
    fn f32s_into(&mut self, out: &mut Vec<f32>) -> Result<(), WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Truncated)?)?;
        out.clear();
        out.reserve(n);
        for c in bytes.chunks_exact(4) {
            out.push(f32::from_le_bytes(c.try_into().unwrap()));
        }
        Ok(())
    }

    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let mut v = Vec::new();
        self.f32s_into(&mut v)?;
        Ok(v)
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

    fn latency(&mut self) -> Result<LatencySummary, WireError> {
        Ok(LatencySummary {
            count: self.u64()?,
            mean_us: self.f64()?,
            p50_us: self.u64()?,
            p95_us: self.u64()?,
            p99_us: self.u64()?,
            max_us: self.u64()?,
        })
    }

    /// Consumes the optional trailing trace-context block if — and
    /// only if — exactly [`CTX_BLOCK_LEN`] bytes remain and they open
    /// with [`CTX_MARKER`]. Anything else leaves the cursor untouched,
    /// so [`finish`](Cursor::finish) still rejects genuine trailing
    /// garbage. Returns `None` when no block is present.
    fn maybe_ctx(&mut self) -> Option<TraceContext> {
        let rest = &self.b[self.pos..];
        if rest.len() != CTX_BLOCK_LEN || rest[0] != CTX_MARKER {
            return None;
        }
        let trace_id = u64::from_le_bytes(rest[1..9].try_into().unwrap());
        let parent_span = u64::from_le_bytes(rest[9..17].try_into().unwrap());
        let sampled = rest[17] & 1 != 0;
        self.pos = self.b.len();
        Some(TraceContext {
            trace_id,
            parent_span,
            sampled,
        })
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
    let mut spare = Vec::new();
    decode_request_reusing(body, &mut spare)
}

/// [`decode_request`], filling an `Infer` payload into `spare` (taken
/// and cleared) instead of a fresh allocation — the server's steady
/// state feeds pooled buffers through here.
///
/// # Errors
///
/// Typed [`WireError`] on unknown kind, truncation, or trailing bytes.
pub fn decode_request_reusing(body: &[u8], spare: &mut Vec<f32>) -> Result<Request, WireError> {
    let mut c = Cursor::new(body);
    let req = match c.u8()? {
        K_INFER => {
            let id = c.u64()?;
            let mut input = std::mem::take(spare);
            c.f32s_into(&mut input)?;
            let trace = c.maybe_ctx();
            Request::Infer(InferRequest { id, input, trace })
        }
        K_STATS => Request::Stats,
        K_PING => Request::Ping,
        K_SHUTDOWN => Request::Shutdown,
        K_PARTIAL => Request::Partial(PartialRequest {
            id: c.u64()?,
            layer: c.usize()?,
            chunk_lo: c.usize()?,
            chunk_hi: c.usize()?,
            codes: c.f32s()?,
            trace: c.maybe_ctx(),
        }),
        K_DESCRIBE => Request::Describe,
        K_SWAP => Request::SwapImage(SwapRequest { path: c.string()? }),
        k => return Err(WireError::UnknownKind(k)),
    };
    // Tolerate (and discard) a trace-context block on kinds that do not
    // carry one in their struct — a newer peer's frame must decode, not
    // error, here.
    let _ = c.maybe_ctx();
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
        K_OUTPUT => {
            let mut r = InferReply {
                id: c.u64()?,
                class: c.u32()? as usize,
                bank: c.u32()? as usize,
                batch: c.u32()? as usize,
                queue_us: c.u64()?,
                service_us: c.u64()?,
                logits: c.f32s()?,
                trace_id: 0,
            };
            if let Some(t) = c.maybe_ctx() {
                r.trace_id = t.trace_id;
            }
            Response::Output(r)
        }
        K_SHED => Response::Shed(ShedReply {
            id: c.u64()?,
            reason: c.string()?,
        }),
        K_STATS_REPLY => {
            let mut s = StatsReply {
                admitted: c.u64()?,
                completed: c.u64()?,
                shed: c.u64()?,
                protocol_errors: c.u64()?,
                batches: c.u64()?,
                queue_depth: c.usize()?,
                throughput_rps: c.f64()?,
                uptime_ms: c.u64()?,
                request_latency: c.latency()?,
                batch_latency: c.latency()?,
                banks: Vec::new(),
            };
            let n = c.u32()? as usize;
            // Cap preallocation by the bytes actually present.
            s.banks.reserve(n.min(body.len() / 24 + 1));
            for _ in 0..n {
                s.banks.push(BankStats {
                    bank: c.usize()?,
                    batches: c.u64()?,
                    requests: c.u64()?,
                });
            }
            Response::Stats(s)
        }
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
    // As for requests: a context block on any kind is tolerated.
    let _ = c.maybe_ctx();
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
/// If the server is at its connection cap it answers with a *JSON*
/// `Busy` frame before reading anything; that opening is detected here
/// and surfaced as `ConnectionRefused` so callers can tell
/// backpressure from protocol failure.
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
    if ack[..4] == MAGIC {
        return match ack[4] {
            VERSION => Ok(VERSION),
            v => Err(WireError::UnsupportedVersion(v).into()),
        };
    }
    // Not a BIN1 ack: the server spoke JSON first, which only happens
    // for the pre-handshake Busy rejection. Reassemble that frame (we
    // hold its 4-byte big-endian length and 1 payload byte).
    let len = u32::from_be_bytes(ack[..4].try_into().unwrap());
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(WireError::BadMagic(ack[..4].try_into().unwrap()).into());
    }
    let mut payload = vec![0u8; len as usize];
    payload[0] = ack[4];
    read_exact_or_eof(stream, &mut payload[1..], false)?;
    let text = String::from_utf8(payload)
        .map_err(|_| io::Error::from(WireError::Malformed("non-UTF-8 server opening")))?;
    match serde_json::from_str::<Response>(&text) {
        Ok(Response::Busy(b)) => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("server busy ({}/{} connections)", b.active, b.limit),
        )),
        Ok(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected JSON opening to a BIN1 handshake: {other:?}"),
        )),
        Err(_) => Err(WireError::BadMagic(ack[..4].try_into().unwrap()).into()),
    }
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
                    sampled: true,
                }),
            }),
            Request::Stats,
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
                    sampled: false,
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
            Response::Stats(StatsReply {
                admitted: 10,
                completed: 9,
                shed: 1,
                protocol_errors: 2,
                batches: 3,
                queue_depth: 4,
                throughput_rps: 123.456,
                uptime_ms: 789,
                request_latency: LatencySummary {
                    count: 9,
                    mean_us: 250.5,
                    p50_us: 240,
                    p95_us: 400,
                    p99_us: 450,
                    max_us: 500,
                },
                batch_latency: LatencySummary {
                    count: 3,
                    mean_us: 200.0,
                    p50_us: 190,
                    p95_us: 210,
                    p99_us: 220,
                    max_us: 230,
                },
                banks: vec![
                    BankStats {
                        bank: 0,
                        batches: 2,
                        requests: 6,
                    },
                    BankStats {
                        bank: 1,
                        batches: 1,
                        requests: 3,
                    },
                ],
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

    /// NaN-tolerant equality: the JSON path cannot carry non-finite
    /// floats, but BIN1 must, so `PartialEq` alone cannot compare an
    /// Output round trip.
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
        let mut buf = Vec::new();
        for resp in &sample_responses() {
            encode_response(resp, &mut buf);
            let body = &buf[4..];
            let traced = matches!(resp, Response::Output(r) if r.trace_id != 0);
            for cut in 0..body.len() {
                match decode_response(&body[..cut]) {
                    Err(WireError::Truncated) | Err(WireError::Malformed(_)) => {}
                    // Cutting exactly the optional trace block yields
                    // the valid *untraced* form of the same frame —
                    // that is the compatibility contract, not a bug.
                    Ok(Response::Output(v)) if traced && cut + CTX_BLOCK_LEN == body.len() => {
                        assert_eq!(v.trace_id, 0);
                    }
                    Ok(v) => panic!("cut {cut} of {resp:?} decoded as {v:?}"),
                    Err(e) => panic!("cut {cut} of {resp:?}: unexpected {e:?}"),
                }
            }
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
        write_request(&mut stream, &Request::Stats, &mut scratch).unwrap();
        let mut r = &stream[..];
        let mut arena = Vec::with_capacity(64);
        assert!(read_frame_into(&mut r, &mut arena).unwrap());
        assert_eq!(decode_request(&arena), Ok(Request::Ping));
        let cap = arena.capacity();
        assert!(read_frame_into(&mut r, &mut arena).unwrap());
        assert_eq!(decode_request(&arena), Ok(Request::Stats));
        assert_eq!(arena.capacity(), cap, "steady state must not reallocate");
        assert!(!read_frame_into(&mut r, &mut arena).unwrap(), "clean EOF");
    }

    #[test]
    fn decode_reusing_takes_the_spare_buffer() {
        let mut buf = Vec::new();
        encode_request(
            &Request::Infer(InferRequest {
                id: 5,
                input: vec![0.25; 16],
                trace: None,
            }),
            &mut buf,
        );
        let mut spare = Vec::with_capacity(784);
        spare.extend_from_slice(&[9.0; 4]); // stale content must vanish
        let cap = spare.capacity();
        match decode_request_reusing(&buf[4..], &mut spare).unwrap() {
            Request::Infer(r) => {
                assert_eq!(r.input, vec![0.25; 16]);
                assert_eq!(r.input.capacity(), cap, "reused the spare's storage");
            }
            other => panic!("wrong variant {other:?}"),
        }
        assert!(spare.is_empty(), "spare was consumed");
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
        // Server answers garbage that is neither a BIN1 ack nor a JSON
        // frame: 5 bytes that parse as an enormous BE length.
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
    fn client_handshake_reports_negotiated_version() {
        let mut peer = FakePeer {
            reply: vec![b'B', b'I', b'N', b'1', VERSION],
            pos: 0,
        };
        assert_eq!(client_handshake(&mut peer).unwrap(), VERSION);
    }

    #[test]
    fn trace_context_block_round_trips_and_is_tolerated() {
        // Traced Infer/Partial/Output round trips are covered by the
        // samples; here: a context block appended to kinds that do not
        // carry one must decode cleanly (never a WireError).
        let mut ctx_block = vec![CTX_MARKER];
        ctx_block.extend_from_slice(&99u64.to_le_bytes());
        ctx_block.extend_from_slice(&0u64.to_le_bytes());
        ctx_block.push(1);
        assert_eq!(ctx_block.len(), CTX_BLOCK_LEN);

        let mut buf = Vec::new();
        encode_request(&Request::Ping, &mut buf);
        let mut body = buf[4..].to_vec();
        body.extend_from_slice(&ctx_block);
        assert_eq!(decode_request(&body), Ok(Request::Ping));

        encode_response(&Response::Pong, &mut buf);
        let mut body = buf[4..].to_vec();
        body.extend_from_slice(&ctx_block);
        assert_eq!(decode_response(&body), Ok(Response::Pong));

        // A *partial* block is still trailing garbage, typed as such.
        let mut body = buf[4..].to_vec();
        body.extend_from_slice(&[CTX_MARKER, 1, 2, 3]);
        assert!(matches!(
            decode_response(&body),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn proto_parses_from_flag_strings() {
        assert_eq!("json".parse::<Proto>(), Ok(Proto::Json));
        assert_eq!("bin".parse::<Proto>(), Ok(Proto::Bin));
        assert!("msgpack".parse::<Proto>().is_err());
    }

    #[test]
    fn json_and_bin_decode_to_identical_structs() {
        // The satellite's contract: the same Request/Response values
        // decode identically through either encoding.
        let mut buf = Vec::new();
        for req in &sample_requests() {
            encode_request(req, &mut buf);
            let via_bin = decode_request(&buf[4..]).unwrap();
            let json = serde_json::to_string(req).unwrap();
            let via_json: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(via_bin, via_json);
        }
        for resp in &sample_responses() {
            if logits_bits(resp).is_some() {
                continue; // JSON cannot carry the NaN/Inf logits case
            }
            encode_response(resp, &mut buf);
            let via_bin = decode_response(&buf[4..]).unwrap();
            let json = serde_json::to_string(resp).unwrap();
            let via_json: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(via_bin, via_json);
        }
    }
}
