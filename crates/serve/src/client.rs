//! A minimal blocking client for the serve protocol — used by the load
//! generator, the integration tests, and anyone scripting against a
//! running `imc-serve`.
//!
//! Two tiers of robustness:
//!
//! * [`Client::connect`] — the original bare client: no timeouts, fails
//!   on the first I/O error. Right for tests and trusted local loops.
//! * [`Client::connect_with`] + [`Client::infer_retry`] — production
//!   posture: connect and per-request timeouts, and bounded
//!   exponential-backoff retry with deterministic jitter. Retrying an
//!   inference is always safe because infer ids are client-chosen and
//!   the request is idempotent — a duplicate execution returns the same
//!   bit-exact logits, and the id tells the caller which answer is
//!   whose.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use imc_obs::TraceContext;

use crate::protocol::{
    DescribeReply, InferRequest, PartialRequest, PartialSumReply, Request, Response, SwapDoneReply,
    SwapRequest,
};
use crate::wire::{self, Proto};

/// Socket-level timeouts and wire protocol for a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// TCP connect timeout (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Read/write timeout on the connected stream (`None` = blocking
    /// forever). Reads that exceed it surface `WouldBlock`/`TimedOut`
    /// errors, which [`Client::infer_retry`] treats as retryable.
    pub request_timeout: Option<Duration>,
    /// Wire protocol; `BIN1` is the only one. The connect path performs
    /// the magic+version handshake, and a `Busy` from a full server
    /// surfaces as `ConnectionRefused`.
    pub proto: Proto,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            request_timeout: Some(Duration::from_secs(30)),
            proto: Proto::Bin,
        }
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Attempt `k` (1-based) sleeps `base_delay * 2^(k-1)`, capped at
/// `max_delay`, then jittered down by up to half of itself with a
/// [splitmix-style] hash of `(jitter_seed, salt, k)` — fully
/// deterministic for reproducible tests, while still decorrelating the
/// retry storms of clients that pass distinct seeds (e.g. their request
/// id as `salt`).
///
/// [splitmix-style]: https://prng.di.unimi.it/splitmix64.c
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed decorrelating this client's jitter from other clients'.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry attempt `attempt` (1-based) of the
    /// request identified by `salt`. Deterministic in all arguments.
    #[must_use]
    pub fn backoff_delay(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay);
        // Jitter into [raw/2, raw]: full jitter would allow zero sleeps
        // (hammering a recovering server), none would synchronize
        // retrying clients into lockstep.
        let mut h = self
            .jitter_seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(attempt));
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let frac = (h % 1000) as f64 / 1000.0;
        raw.div_f64(2.0) + raw.div_f64(2.0).mul_f64(frac)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    /// Resolved peer addresses + config, kept so [`reconnect`] and the
    /// retry helpers can re-dial. Empty for bare [`connect`] clients.
    ///
    /// [`reconnect`]: Self::reconnect
    /// [`connect`]: Self::connect
    addrs: Vec<SocketAddr>,
    cfg: ClientConfig,
    /// Encode scratch and read arena, reused across requests so
    /// steady-state round trips allocate nothing on the wire path.
    scratch: Vec<u8>,
    arena: Vec<u8>,
}

impl Client {
    /// Connects to a running server with no timeouts (the original
    /// behavior — reads block indefinitely). Prefer
    /// [`connect_with`](Self::connect_with) for anything unattended.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let cfg = ClientConfig {
            connect_timeout: None,
            request_timeout: None,
            proto: Proto::Bin,
        };
        let stream = Self::open(&addrs, &cfg)?;
        Ok(Self {
            stream,
            addrs,
            cfg,
            scratch: Vec::new(),
            arena: Vec::new(),
        })
    }

    /// Connects with explicit connect/request timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connection errors (after trying every resolved
    /// address).
    pub fn connect_with<A: ToSocketAddrs>(addr: A, cfg: ClientConfig) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Self::open(&addrs, &cfg)?;
        Ok(Self {
            stream,
            addrs,
            cfg,
            scratch: Vec::new(),
            arena: Vec::new(),
        })
    }

    /// Dials and handshakes one stream, trying each resolved address in
    /// turn.
    fn open(addrs: &[SocketAddr], cfg: &ClientConfig) -> io::Result<TcpStream> {
        let mut last_err = None;
        for a in addrs {
            match Self::dial(a, cfg) {
                Ok(stream) => return Ok(stream),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no addresses resolved")
        }))
    }

    fn dial(a: &SocketAddr, cfg: &ClientConfig) -> io::Result<TcpStream> {
        let attempt = match cfg.connect_timeout {
            Some(t) => TcpStream::connect_timeout(a, t),
            None => TcpStream::connect(a),
        };
        let mut stream = attempt?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(cfg.request_timeout).ok();
        stream.set_write_timeout(cfg.request_timeout).ok();
        wire::client_handshake(&mut stream)?;
        Ok(stream)
    }

    /// Drops the current connection and dials the same address again
    /// with the same timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Self::open(&self.addrs, &self.cfg)?;
        Ok(())
    }

    /// Sends a request frame without waiting for the response (pipelined
    /// use: pair with [`recv`](Self::recv)).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        wire::write_request(&mut self.stream, req, &mut self.scratch)
    }

    /// Receives the next response frame (`None` on clean server close).
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        wire::read_response(&mut self.stream, &mut self.arena)
    }

    /// Round-trips one inference request.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails if the connection closes early.
    pub fn infer(&mut self, id: u64, input: Vec<f32>) -> io::Result<Response> {
        self.infer_traced(id, input, None)
    }

    /// [`infer`](Self::infer) carrying a distributed-tracing context —
    /// the server records its spans under `trace.trace_id` and echoes
    /// the id on the reply.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails if the connection closes early.
    pub fn infer_traced(
        &mut self,
        id: u64,
        input: Vec<f32>,
        trace: Option<TraceContext>,
    ) -> io::Result<Response> {
        self.send(&Request::Infer(InferRequest { id, input, trace }))?;
        self.recv()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Round-trips one inference with bounded-backoff retry.
    ///
    /// Retries (after reconnecting) on I/O errors, on server-side
    /// [`Response::Failed`] (a recovered worker panic — the request
    /// never executed to completion), and on [`Response::Busy`]
    /// (connection cap). All are safe to retry because infer ids are
    /// client-chosen and idempotent. `Output`, `Shed`, and `Error`
    /// responses return immediately — they are definitive answers.
    ///
    /// # Errors
    ///
    /// Returns the last I/O error once `policy.max_attempts` attempts
    /// are exhausted; a still-failing request surfaces the final
    /// `Failed`/`Busy` response rather than an error.
    pub fn infer_retry(
        &mut self,
        id: u64,
        input: &[f32],
        policy: &RetryPolicy,
    ) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let outcome = self.infer(id, input.to_vec());
            let retryable = match &outcome {
                Ok(Response::Failed(_) | Response::Busy(_)) => true,
                Ok(_) => return outcome,
                Err(_) => true,
            };
            if retryable && attempt >= policy.max_attempts {
                return outcome;
            }
            std::thread::sleep(policy.backoff_delay(attempt, id));
            // A failed re-dial is not fatal here: the next attempt's
            // send will surface it, and the server may be back by then.
            self.reconnect().ok();
        }
    }

    /// Sends the graceful-shutdown control request and waits for the ack.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unexpected response variant.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Some(Response::ShuttingDown) => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected ShuttingDown, got {other:?}"),
            )),
        }
    }

    /// Asks the server what it serves (digest, shard, shape).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unexpected response variant.
    pub fn describe(&mut self) -> io::Result<DescribeReply> {
        self.send(&Request::Describe)?;
        match self.recv()? {
            Some(Response::Describe(d)) => Ok(d),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Describe, got {other:?}"),
            )),
        }
    }

    /// Round-trips one partial-MAC request: layer `layer`, global chunks
    /// `[chunk_lo, chunk_hi)`, quantized activation codes. A server-side
    /// `Error` response surfaces as `InvalidData` with the server's
    /// reason (e.g. an out-of-shard chunk range).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an early close, a server-side rejection, or
    /// an unexpected response variant.
    pub fn partial(
        &mut self,
        id: u64,
        layer: usize,
        chunk_lo: usize,
        chunk_hi: usize,
        codes: Vec<f32>,
    ) -> io::Result<PartialSumReply> {
        self.partial_traced(id, layer, chunk_lo, chunk_hi, codes, None)
    }

    /// [`partial`](Self::partial) carrying a distributed-tracing
    /// context, so the replica's `serve.partial` span lands under the
    /// caller's trace.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an early close, a server-side rejection, or
    /// an unexpected response variant.
    pub fn partial_traced(
        &mut self,
        id: u64,
        layer: usize,
        chunk_lo: usize,
        chunk_hi: usize,
        codes: Vec<f32>,
        trace: Option<TraceContext>,
    ) -> io::Result<PartialSumReply> {
        self.send(&Request::Partial(PartialRequest {
            id,
            layer,
            chunk_lo,
            chunk_hi,
            codes,
            trace,
        }))?;
        match self.recv()? {
            Some(Response::PartialSum(p)) => Ok(p),
            Some(Response::Error(why)) => Err(io::Error::new(io::ErrorKind::InvalidData, why)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected PartialSum, got {other:?}"),
            )),
        }
    }

    /// Asks the server to hot-swap its serving model to the chip image
    /// at `path` (a **server-side** filesystem path) and waits for the
    /// completed flip. The server loads and prepacks off the hot path,
    /// so this call blocks for the full load time; a rejection (missing
    /// or shape-incompatible image) surfaces as `InvalidData` carrying
    /// the server's reason, with the old model left serving.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a server-side rejection, or an unexpected
    /// response variant.
    pub fn swap_image(&mut self, path: &str) -> io::Result<SwapDoneReply> {
        self.send(&Request::SwapImage(SwapRequest {
            path: path.to_owned(),
        }))?;
        match self.recv()? {
            Some(Response::SwapDone(d)) => Ok(d),
            Some(Response::Error(why)) => Err(io::Error::new(io::ErrorKind::InvalidData, why)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected SwapDone, got {other:?}"),
            )),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unexpected response variant.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&Request::Ping)?;
        match self.recv()? {
            Some(Response::Pong) => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Pong, got {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_never_zero() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            jitter_seed: 7,
        };
        for attempt in 1..=8u32 {
            for salt in [0u64, 1, 42, u64::MAX] {
                let a = p.backoff_delay(attempt, salt);
                let b = p.backoff_delay(attempt, salt);
                assert_eq!(a, b, "deterministic");
                assert!(a <= p.max_delay, "capped: {a:?}");
                assert!(a >= p.base_delay / 2, "never collapses to zero: {a:?}");
            }
        }
        // Exponential growth until the cap: attempt 2 backs off longer
        // than attempt 1 can, in the jitter-free lower bound sense.
        assert!(p.backoff_delay(5, 3) >= Duration::from_millis(80));
        // Distinct salts decorrelate.
        assert_ne!(p.backoff_delay(1, 1), p.backoff_delay(1, 2));
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::from_secs(1),
            max_delay: Duration::from_secs(3),
            jitter_seed: 0,
        };
        assert!(p.backoff_delay(u32::MAX, u64::MAX) <= Duration::from_secs(3));
    }
}
