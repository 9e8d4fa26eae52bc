//! The serve protocol's messages: the [`Request`] and [`Response`]
//! enums and their payload structs. [`crate::wire`] frames them as
//! `BIN1`, the only encoding the server, the fleet router and the
//! client speak.

use imc_obs::TraceContext;

/// Upper bound on a frame body (16 MiB) — far above any legal request
/// (a 784-feature MNIST-shaped input is about 3 KiB) but small enough
/// that a garbage length prefix fails fast.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// One inference request: an `id` chosen by the client (echoed back in
/// the matching [`InferReply`] / [`ShedReply`]) and the flat input
/// vector, row-major, matching the served model's `input_features`.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Client-chosen correlation id.
    pub id: u64,
    /// Flat input features in `[0, 1]`.
    pub input: Vec<f32>,
    /// Optional distributed-tracing context. `None` (the default for
    /// untraced clients) travels as zero trace fields.
    pub trace: Option<TraceContext>,
}

/// One partial-MAC request from a fleet router: run MAC layer `layer`
/// on the already-quantized activation codes, but only over the global
/// accumulation chunks `[chunk_lo, chunk_hi)`, and reply with raw
/// integer partial sums ([`PartialSumReply`]). Summing the partials of
/// a chunk tiling and applying the digital glue reproduces
/// `QNetwork::forward` bit-exactly — see
/// `neural::imc_exec::QNetwork::linear_partial`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRequest {
    /// Client-chosen correlation id.
    pub id: u64,
    /// MAC-layer index (0 = first Linear).
    pub layer: usize,
    /// First global chunk (inclusive).
    pub chunk_lo: usize,
    /// Last global chunk (exclusive).
    pub chunk_hi: usize,
    /// Quantized activation codes for the layer's full fan-in (each an
    /// integer-valued f32 straight out of `quantize_activations`).
    pub codes: Vec<f32>,
    /// Optional distributed-tracing context (zero trace fields when
    /// `None`).
    pub trace: Option<TraceContext>,
}

/// Ask the server to hot-swap its serving model to the chip image at a
/// **server-side** filesystem path. Loading and prepacking happen off
/// the hot path; in-flight batches finish on the old model; the flip
/// itself is a pointer swap. Answered with [`Response::SwapDone`] on
/// success or [`Response::Error`] when the image is missing, corrupt,
/// or shape-incompatible (wrong feature/class count or shard cut) —
/// a rejected swap leaves the old model serving untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapRequest {
    /// Path of the new `ChipImage` JSON, resolved on the server's
    /// filesystem (the image is never shipped over this protocol).
    pub path: String,
}

/// Acknowledgement of a completed [`Request::SwapImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapDoneReply {
    /// Image version now serving: 1 at startup, +1 per successful swap.
    pub version: u64,
    /// Content digest of the newly active image.
    pub digest: u64,
    /// How long new batches were actually blocked from starting (µs):
    /// the write-lock hold of the pointer flip, not the load/prepack
    /// time, which happens before the flip on the control connection.
    pub pause_us: u64,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one inference (may be shed under backpressure).
    Infer(InferRequest),
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Begin graceful shutdown: drain in-flight batches, then exit.
    Shutdown,
    /// Run a chunk range of one MAC layer ([`PartialRequest`]).
    Partial(PartialRequest),
    /// Identify the served model ([`DescribeReply`]): image digest,
    /// shard assignment, input/output shape.
    Describe,
    /// Hot-swap the serving model to a new chip image ([`SwapRequest`]).
    SwapImage(SwapRequest),
}

/// Successful inference result.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    /// Echo of the request id.
    pub id: u64,
    /// Raw logits, bit-identical to `QNetwork::forward` on this input.
    pub logits: Vec<f32>,
    /// Argmax class of the logits.
    pub class: usize,
    /// Bank label of the batch containing this request. `imc-serve`
    /// runs every batch on one executor, so it always answers 0.
    pub bank: usize,
    /// Size of the batch this request was coalesced into.
    pub batch: usize,
    /// Time spent in the admission queue + batcher (µs).
    pub queue_us: u64,
    /// Time spent executing the batch (µs, shared by its members).
    pub service_us: u64,
    /// Trace id of the request this reply answers (0 = untraced).
    /// Clients use it to look the request up in a flight recorder.
    pub trace_id: u64,
}

/// Backpressure response: the request was not executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedReply {
    /// Echo of the request id.
    pub id: u64,
    /// Why the request was shed (`queue full`, `shutting down`).
    pub reason: String,
}

/// Connection-level backpressure: the server is at its concurrent
/// connection cap and refused this connection before reading any
/// request. Sent once, then the connection is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyReply {
    /// Connections currently being served.
    pub active: usize,
    /// The configured `max_conns` cap.
    pub limit: usize,
}

/// Execution failure for one admitted request (e.g. its batch panicked;
/// the executor keeps serving). Unlike [`Response::Error`], it carries the
/// request id so pipelined clients can correlate — and because infer
/// ids are client-chosen and idempotent, the request is safe to retry.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedReply {
    /// Echo of the request id.
    pub id: u64,
    /// What went wrong (`worker panic`, ...).
    pub reason: String,
}

/// Raw integer partial sums for one [`PartialRequest`]. `sums[o]` is
/// the shift-added i64 accumulation for output column `o` over the
/// requested chunk range, before dequantization. Partials from a chunk
/// tiling add in i64 with no rounding, so the router-side combine is
/// bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialSumReply {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the MAC-layer index.
    pub layer: usize,
    /// One integer partial sum per output column.
    pub sums: Vec<i64>,
}

/// Answer to [`Request::Describe`]: what exactly this replica serves.
/// Routers use the digest to refuse mixing replicas that load different
/// images (stale weights, different executor settings, or a different
/// shard slice all change the digest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescribeReply {
    /// Content digest of the loaded image (0 for synthetic models).
    pub digest: u64,
    /// This replica's shard index (0 when unsharded).
    pub shard_index: usize,
    /// Total shards in the fleet cut (0 = whole-model replica).
    pub shard_count: usize,
    /// Input features the model accepts.
    pub features: usize,
    /// Output classes the model produces.
    pub classes: usize,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful inference.
    Output(InferReply),
    /// Backpressure: request not executed.
    Shed(ShedReply),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Acknowledgement of [`Request::Shutdown`]; the server drains and
    /// exits after sending this.
    ShuttingDown,
    /// The request could not be parsed or was otherwise invalid.
    Error(String),
    /// The server is at its connection cap; sent before closing.
    Busy(BusyReply),
    /// An admitted request failed during execution (safe to retry).
    Failed(FailedReply),
    /// Integer partial sums for a [`Request::Partial`].
    PartialSum(PartialSumReply),
    /// Model identity for a [`Request::Describe`].
    Describe(DescribeReply),
    /// A [`Request::SwapImage`] completed; the new image is serving.
    SwapDone(SwapDoneReply),
}
