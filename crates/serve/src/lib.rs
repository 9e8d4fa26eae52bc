//! `imc-serve` — a batched inference service over the FeFET analog
//! in-memory-computing statistical models.
//!
//! The crate turns the repo's offline evaluation stack
//! (`neural::imc_exec::QNetwork` running on the CurFe / ChgFe macro
//! models) into a long-running TCP service:
//!
//! ```text
//!  clients ──frames──▶ connection threads ──▶ AdmissionQueue (bounded)
//!                                                   │ flush on size/deadline
//!                                                   ▼
//!                                   batcher thread = the one executor
//!                                                   │ dispatch: in place, panic-isolated
//!                                                   ▼
//!                                       QNetwork::forward_each on par-exec
//!                                                   │
//!                                                   ▼
//!                                       replies + latency histograms
//! ```
//!
//! Layer by layer:
//!
//! * [`protocol`] — the request/response types.
//! * [`wire`] — `BIN1`, the one wire format (magic + version hello,
//!   little-endian frames, raw f32 payloads) that the client, server,
//!   fleet router and loadgen speak.
//! * [`batcher`] — the bounded admission queue with deadline-based
//!   dynamic batching; overflow is shed immediately (backpressure).
//! * [`scheduler`] — runs a batch on the calling thread under
//!   `catch_unwind`, labelled with its least-loaded bank; a bank is
//!   accounting, not a thread.
//! * [`model`] — the served [`model::ServeModel`]: synthetic
//!   deterministic weights or a `neural::checkpoint` restore.
//! * [`metrics`] — service counters and latency histograms, backed by
//!   the shared `imc-obs` registry (scrapeable via `--obs-addr`) and
//!   readable in-process through [`ServerHandle::metrics`].
//! * [`server`] — ties it together: [`server::serve`] returns a
//!   [`server::ServerHandle`] for graceful shutdown.
//! * [`client`] — a small blocking client (used by `loadgen` and the
//!   integration tests).
//! * [`shutdown`] — the cooperative shutdown latch and Unix signal
//!   hookup.
//!
//! Batching never changes answers: the batch entry point
//! (`QNetwork::forward_each`) gives every sample its own noise stream,
//! so each response is bit-identical to running that input alone.
//!
//! **Failure model** (DESIGN.md §12): one misbehaving client or request
//! must never take the service down. Frames that stall mid-read are
//! dropped at a configurable deadline, writers that stop draining time
//! out and are marked dead, connections beyond `max_conns` get a typed
//! `Busy`, a panicking batch fails only its own requests (typed
//! `Failed` replies, `serve.worker_panics` counter) while the executor
//! keeps serving, and poisoned internal locks are recovered instead of
//! cascading.
//! Clients opt into connect/request timeouts and idempotent
//! bounded-backoff retry via [`ClientConfig`] / [`RetryPolicy`].

#![deny(missing_docs)]

pub mod batcher;
pub mod client;
pub mod metrics;
pub mod model;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod shutdown;
pub mod wire;

pub use client::{Client, ClientConfig, RetryPolicy};
pub use model::{parse_design, synthetic_digest, ServeModel};
pub use protocol::{DescribeReply, PartialRequest, PartialSumReply, SwapDoneReply, SwapRequest};
pub use server::{argmax_total, serve, ServeConfig, ServerHandle};
pub use shutdown::{install_signal_handlers, ShutdownFlag};
pub use wire::Proto;
