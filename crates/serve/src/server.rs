//! The TCP server: connection handling, admission, batching, dispatch,
//! and graceful shutdown.
//!
//! Thread topology (for a `banks = B` config):
//!
//! ```text
//! accept loop ─┬─ conn thread ──┐ try_enqueue      ┌─ bank worker 0
//!              ├─ conn thread ──┼──► admission ──► batcher ─► least-loaded
//!              └─ ...           ┘    queue (bounded)  thread   dispatch ─► bank worker B-1
//! ```
//!
//! * Connection threads parse frames and either answer control requests
//!   inline or admit inference requests to the bounded queue. A full
//!   queue produces an immediate `Shed` response on the same connection.
//! * The batcher thread drains the queue with flush-on-size-or-deadline
//!   semantics and hands batches to the bank scheduler.
//! * Bank workers execute batches on the shared `par_exec` pool (one
//!   noise-isolated stream per sample) and write responses back through
//!   each request's connection handle.
//!
//! Shutdown (control request or SIGINT/SIGTERM): the accept loop stops,
//! the admission queue closes (new requests shed as `shutting down`),
//! the batcher drains what was admitted, the banks finish every
//! dispatched batch, and only then does [`ServerHandle::join`] return —
//! accepted work is never dropped.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use neural::tensor::Tensor;

use crate::batcher::{AdmissionQueue, Pending};
use crate::metrics::Metrics;
use crate::model::ServeModel;
use crate::protocol::{
    write_response, BusyReply, FailedReply, InferReply, PartialSumReply, Request, Response,
    ShedReply, SwapDoneReply, MAX_FRAME_BYTES,
};
use crate::scheduler::{BankScheduler, LoadProbe};
use crate::shutdown::ShutdownFlag;
use crate::wire::{self, Proto};

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated banks executing batches concurrently — the paper chip
    /// has 16 (`system_perf::mapping::MacroTile::paper`: 16 banks × 8
    /// bit-columns).
    pub banks: usize,
    /// Dynamic batcher: flush when this many requests have coalesced.
    pub max_batch: usize,
    /// Dynamic batcher: flush when the oldest queued request has waited
    /// this long.
    pub max_wait: Duration,
    /// Admission queue capacity; requests beyond it are shed.
    pub queue_depth: usize,
    /// Once the first byte of a frame has arrived, the whole frame must
    /// complete within this window or the connection is dropped (and
    /// counted in `serve.conn_deadline_drops`). Without it, a client
    /// that sends one byte of a length prefix parks an `imc-conn`
    /// thread forever.
    pub frame_deadline: Duration,
    /// Write timeout on each connection's shared writer, so a client
    /// that stops draining its socket cannot head-of-line block a bank
    /// worker (and with it a whole batch) behind the connection mutex.
    /// The first timed-out write marks the connection dead; later
    /// responses to it are skipped instead of blocking again.
    pub write_timeout: Duration,
    /// Cap on concurrently served connections. Connections beyond it
    /// receive a typed [`Response::Busy`] and are closed immediately
    /// (counted in `serve.busy_rejects`).
    pub max_conns: usize,
    /// Artificial per-batch service delay. Zero in production; tests use
    /// it to force queue buildup deterministically.
    pub service_delay: Duration,
    /// Chaos fail-point: when set, any admitted request whose first
    /// input feature equals this sentinel makes the executing bank
    /// worker panic. Used by the chaos harness to prove panic isolation
    /// and recovery end to end; `None` (the default) in production.
    pub fail_input_sentinel: Option<f32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            banks: 16,
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            queue_depth: 1024,
            frame_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            max_conns: 1024,
            service_delay: Duration::ZERO,
            fail_input_sentinel: None,
        }
    }
}

/// A connection's write half plus its liveness state and negotiated
/// framing. Once a write fails or times out mid-frame the stream's
/// framing is unrecoverable, so the writer is marked dead and every
/// later response to this connection is dropped without touching the
/// socket — one stalled client costs each bank worker at most one
/// write timeout. The `scratch` arena is reused for every `BIN1`
/// response this connection ever writes, so steady-state encoding
/// allocates nothing.
#[derive(Debug)]
pub(crate) struct ConnWriter {
    stream: TcpStream,
    dead: bool,
    proto: Proto,
    scratch: Vec<u8>,
}

/// A live connection's write half, shared by its reader thread and every
/// bank worker holding one of its pending requests.
type Conn = Arc<Mutex<ConnWriter>>;

/// Writes a response on a connection in its negotiated framing; I/O
/// errors are counted, not fatal (the client may have gone away — the
/// server must keep running). A poisoned writer mutex is recovered, not
/// propagated: the guarded stream is only ever written through the
/// response encoders, which never panic, so the framing invariant
/// cannot have been broken by whoever poisoned it.
fn send(conn: &Conn, resp: &Response, metrics: &Metrics) {
    let mut w = conn
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if w.dead {
        return;
    }
    let ConnWriter {
        stream,
        proto,
        scratch,
        ..
    } = &mut *w;
    let wrote = match proto {
        Proto::Json => write_response(stream, resp),
        Proto::Bin => wire::write_response(stream, resp, scratch),
    };
    if wrote.is_err() {
        metrics.protocol_errors.inc();
        w.dead = true;
        // Wake the connection's reader thread too (it sees EOF).
        w.stream.shutdown(std::net::Shutdown::Both).ok();
    }
}

/// Cap on pooled input buffers (a few KiB each at MNIST shapes).
const INPUT_POOL_CAP: usize = 256;

/// Process-wide recycle pool for inference input vectors: connection
/// readers take, `execute_batch` (and the rejection paths) put back —
/// at steady state no request allocates its input buffer.
fn input_pool() -> &'static Mutex<Vec<Vec<f32>>> {
    static POOL: OnceLock<Mutex<Vec<Vec<f32>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

fn pool_take() -> Vec<f32> {
    input_pool()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .pop()
        .unwrap_or_default()
}

fn pool_put(mut v: Vec<f32>) {
    v.clear();
    let mut pool = input_pool()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if pool.len() < INPUT_POOL_CAP {
        pool.push(v);
    }
}

/// The swappable serving model: an `Arc` behind an `RwLock`, plus a
/// monotone version number (1 at startup).
///
/// Readers — the bank executor, admission validation, `Describe`,
/// `Partial` — take the lock only long enough to clone the `Arc`, so a
/// batch is internally consistent by construction: it executes entirely
/// on whichever model it snapshotted, even if a swap lands mid-batch.
/// The swap path holds the write lock only for the pointer flip; the
/// expensive load/prepack happens before, on the requesting thread.
pub(crate) struct ModelSlot {
    model: RwLock<Arc<ServeModel>>,
    version: AtomicU64,
}

impl ModelSlot {
    fn new(model: Arc<ServeModel>) -> Self {
        Self {
            model: RwLock::new(model),
            version: AtomicU64::new(1),
        }
    }

    /// Snapshot the currently serving model (a cheap `Arc` clone under
    /// a read lock). Lock poisoning is recovered: the guarded value is
    /// a plain pointer with no intermediate invalid states.
    fn current(&self) -> Arc<ServeModel> {
        Arc::clone(&self.model.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// State every connection thread and the bank executor share: the
/// swappable model slot and a probe over the scheduler's outstanding
/// counters (for the swap path's best-effort drain wait).
pub(crate) struct Shared {
    slot: Arc<ModelSlot>,
    probe: LoadProbe,
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    queue: Arc<AdmissionQueue<Conn>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown latch (share it with a signal installer or trip it
    /// directly).
    #[must_use]
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// The live metrics (snapshot with `metrics().snapshot(depth)`).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// An owned handle to the metrics — outlives [`join`](Self::join),
    /// so callers can snapshot final counts after the drain completes.
    #[must_use]
    pub fn metrics_handle(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Current admission-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Version of the image currently serving (1 at startup, +1 per
    /// successful [`swap_model`](Self::swap_model)).
    #[must_use]
    pub fn image_version(&self) -> u64 {
        self.shared.slot.version()
    }

    /// Hot-swaps the serving model to the chip image at `path` without
    /// stopping the server: load and prepack happen on this thread, the
    /// in-flight batches get a best-effort drain wait, and the flip
    /// itself is a write-locked pointer swap (its hold time is the
    /// returned `pause_us`). The same operation is reachable over the
    /// wire via [`Request::SwapImage`].
    ///
    /// # Errors
    ///
    /// Fails — leaving the old model serving untouched — when the image
    /// cannot be loaded or its input/output shape (or shard cut) differs
    /// from the currently served model's.
    pub fn swap_model(&self, path: &str) -> Result<SwapDoneReply, String> {
        do_swap(&self.shared, &self.metrics, path)
    }

    /// Requests the server stop and blocks until every accepted request
    /// has been answered and all service threads have exited. Service
    /// threads that died of a panic are reported, not re-panicked — the
    /// caller still gets its drain and final metrics.
    pub fn join(mut self) {
        self.shutdown.trigger();
        if let Some(t) = self.accept_thread.take() {
            if t.join().is_err() {
                eprintln!("imc-serve: accept thread panicked");
                // The batcher only exits once the queue closes; do it on
                // the accept thread's behalf so join still terminates.
                self.queue.close();
            }
        }
        if let Some(t) = self.batcher_thread.take() {
            if t.join().is_err() {
                eprintln!("imc-serve: batcher thread panicked");
            }
        }
    }
}

/// Starts the service on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
/// port) and returns once the listener is bound and all worker threads
/// are running.
///
/// # Errors
///
/// Fails if the address cannot be bound.
///
/// # Panics
///
/// Panics if worker threads cannot be spawned.
pub fn serve<A: ToSocketAddrs>(
    addr: A,
    model: Arc<ServeModel>,
    cfg: &ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    // Spawn the pool before the first request so its cost is not billed
    // to the first batch's latency.
    par_exec::warmup();

    let shutdown = ShutdownFlag::new();
    let metrics = Arc::new(Metrics::new(cfg.banks));
    metrics
        .energy_per_inference_pj
        .set(model.energy_per_inference_pj() as f64);
    metrics.image_version.set(1.0);
    let slot = Arc::new(ModelSlot::new(model));
    let queue: Arc<AdmissionQueue<Conn>> = Arc::new(AdmissionQueue::new(cfg.queue_depth));

    // --- bank executor ---------------------------------------------------
    let scheduler = {
        let slot = Arc::clone(&slot);
        let metrics = Arc::clone(&metrics);
        let panic_metrics = Arc::clone(&metrics);
        let delay = cfg.service_delay;
        let sentinel = cfg.fail_input_sentinel;
        BankScheduler::new(
            cfg.banks,
            move |bank, batch: Vec<Pending<Conn>>| {
                // One model snapshot per batch: every request in the
                // batch executes on the same image, and a concurrent
                // swap affects only *later* batches.
                let model = slot.current();
                execute_batch(bank, batch, &model, &metrics, delay, sentinel);
            },
            move |_bank, routes: Vec<(u64, Conn)>| {
                // A worker panicked away its whole batch: count it and
                // answer every affected request with a typed, retryable
                // failure instead of leaving the clients hanging.
                panic_metrics.worker_panics.inc();
                for (id, conn) in routes {
                    let resp = Response::Failed(FailedReply {
                        id,
                        reason: "worker panic".to_owned(),
                    });
                    send(&conn, &resp, &panic_metrics);
                }
            },
        )
    };
    let shared = Arc::new(Shared {
        slot,
        probe: scheduler.probe(),
    });

    // --- batcher thread ---------------------------------------------------
    let batcher_thread = {
        let queue = Arc::clone(&queue);
        let max_batch = cfg.max_batch;
        let max_wait = cfg.max_wait;
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name("imc-batcher".into())
            .spawn(move || {
                while let Some(batch) = queue.next_batch(max_batch, max_wait) {
                    if batch.is_empty() {
                        continue;
                    }
                    metrics.batches.inc();
                    metrics.queue_depth.set(queue.depth() as f64);
                    scheduler.dispatch(batch);
                }
                // Queue closed and drained: wind the banks down, letting
                // them finish everything already dispatched.
                scheduler.shutdown();
            })
            .expect("spawn batcher thread")
    };

    // --- accept loop ------------------------------------------------------
    let accept_thread = {
        let shutdown = shutdown.clone();
        let queue = Arc::clone(&queue);
        let metrics = Arc::clone(&metrics);
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        std::thread::Builder::new()
            .name("imc-accept".into())
            .spawn(move || {
                accept_loop(&listener, &shutdown, &queue, &metrics, &shared, &cfg);
                // Stop admitting; the batcher drains and exits.
                queue.close();
            })
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr: local,
        shutdown,
        accept_thread: Some(accept_thread),
        batcher_thread: Some(batcher_thread),
        metrics,
        queue,
        shared,
    })
}

/// Poll interval of the non-blocking accept loop — bounds shutdown
/// latency without a self-pipe.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Decrements the live-connection count when a connection thread exits,
/// however it exits (including by panic — this is a `Drop` guard).
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(
    listener: &TcpListener,
    shutdown: &ShutdownFlag,
    queue: &Arc<AdmissionQueue<Conn>>,
    metrics: &Arc<Metrics>,
    shared: &Arc<Shared>,
    cfg: &ServeConfig,
) {
    let active = Arc::new(AtomicUsize::new(0));
    while !shutdown.is_set() {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                stream.set_nodelay(true).ok();
                // Connection-level backpressure: at the cap, answer with
                // a typed Busy and close, instead of accepting a reader
                // thread we cannot afford. The write gets a short
                // timeout so a malicious connector cannot stall the
                // accept loop itself.
                let now_active = active.load(Ordering::Acquire);
                if now_active >= cfg.max_conns {
                    metrics.busy_rejects.inc();
                    stream
                        .set_write_timeout(Some(Duration::from_millis(250)))
                        .ok();
                    let busy = Response::Busy(BusyReply {
                        active: now_active,
                        limit: cfg.max_conns,
                    });
                    let _ = write_response(&mut stream, &busy);
                    continue;
                }
                active.fetch_add(1, Ordering::AcqRel);
                let slot = ConnSlot(Arc::clone(&active));
                let queue = Arc::clone(queue);
                let metrics = Arc::clone(metrics);
                let shared = Arc::clone(shared);
                let shutdown = shutdown.clone();
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name("imc-conn".into())
                    .spawn(move || {
                        let _slot = slot;
                        connection_loop(stream, &queue, &metrics, &shared, &shutdown, &cfg);
                    })
                    .expect("spawn connection thread");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Reads `buf` fully from a timeout-bearing stream. Timeouts are benign
/// *between* frames (`allow_idle` and nothing read yet → `Ok(false)`);
/// once any byte of the current frame has arrived, the shared
/// `frame_deadline` clock starts (set here on the 0→1 byte transition)
/// and a stream timeout only means "keep waiting" until that deadline —
/// resuming from scratch would desync the framing, so a frame that
/// cannot complete in time fails with `ErrorKind::TimedOut` and the
/// connection is dropped. Returns `Ok(true)` when filled, `Ok(false)`
/// on clean idle EOF/shutdown before the first byte.
fn read_full(
    reader: &mut TcpStream,
    buf: &mut [u8],
    allow_idle: bool,
    shutdown: &ShutdownFlag,
    frame_deadline: &mut Option<Instant>,
    deadline_after: Duration,
) -> std::io::Result<bool> {
    use std::io::Read;
    let mut filled = 0usize;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && allow_idle => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame",
                ))
            }
            Ok(n) => {
                if frame_deadline.is_none() {
                    // First byte of this frame: the whole frame now has
                    // `deadline_after` to finish. Saturate huge values
                    // to "no deadline" instead of panicking.
                    *frame_deadline = Instant::now().checked_add(deadline_after);
                }
                filled += n;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.is_set() && filled == 0 && allow_idle {
                    return Ok(false);
                }
                if shutdown.is_set() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "shutdown during a partial frame",
                    ));
                }
                if frame_deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "frame incomplete past the read deadline",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads and validates a JSON frame payload whose big-endian length
/// prefix has already been consumed (the shared `frame_deadline` clock
/// keeps running across the two halves).
fn read_json_payload(
    reader: &mut TcpStream,
    len: u32,
    shutdown: &ShutdownFlag,
    frame_deadline: &mut Option<Instant>,
    deadline_after: Duration,
) -> std::io::Result<String> {
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(
        reader,
        &mut payload,
        false,
        shutdown,
        frame_deadline,
        deadline_after,
    )?;
    String::from_utf8(payload).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame payload is not UTF-8",
        )
    })
}

/// Classifies a reader-loop error: a mid-frame deadline drop is counted
/// separately from protocol damage. Returns `true` always (callers
/// return right after); split out so the JSON and BIN1 loops cannot
/// drift apart on accounting.
fn count_read_error(e: &std::io::Error, metrics: &Metrics) {
    if e.kind() == std::io::ErrorKind::TimedOut {
        // Half a frame held past the deadline: drop the connection so
        // its thread is reclaimed.
        metrics.conn_deadline_drops.inc();
    } else {
        metrics.protocol_errors.inc();
    }
}

/// Handles one parsed request on behalf of either framing loop.
/// Rejected or shed inference inputs are recycled into the input pool;
/// admitted ones travel to `execute_batch`, which recycles them after
/// tensor assembly.
fn handle_request(
    request: Request,
    writer: &Conn,
    queue: &AdmissionQueue<Conn>,
    metrics: &Metrics,
    shared: &Shared,
    shutdown: &ShutdownFlag,
) {
    // One model snapshot per request: validation, Describe, and Partial
    // all see a single consistent image even if a swap lands mid-call.
    // (Batch execution takes its own snapshot per batch; swaps keep the
    // input/output shape invariant, so a request validated against the
    // old image is still well-formed for the new one.)
    let model = shared.slot.current();
    match request {
        Request::Ping => send(writer, &Response::Pong, metrics),
        Request::Stats => {
            let snap = metrics.snapshot(queue.depth());
            send(writer, &Response::Stats(snap), metrics);
        }
        Request::Shutdown => {
            send(writer, &Response::ShuttingDown, metrics);
            shutdown.trigger();
        }
        Request::Describe => {
            send(writer, &Response::Describe(model.describe()), metrics);
        }
        Request::SwapImage(req) => {
            // Runs on this control connection's thread: the expensive
            // load/prepack never touches the bank workers, and a failed
            // swap leaves the old model serving.
            let resp = match do_swap(shared, metrics, &req.path) {
                Ok(done) => Response::SwapDone(done),
                Err(why) => {
                    metrics.protocol_errors.inc();
                    Response::Error(why)
                }
            };
            send(writer, &resp, metrics);
        }
        Request::Partial(req) => {
            // Deterministic (chunk-addressed noise) and small, so it runs
            // right here on the connection thread instead of competing
            // with whole-model batches for the banks.
            let t0 = Instant::now();
            let result = model.partial(req.layer, req.chunk_lo, req.chunk_hi, &req.codes);
            if let Some(ctx) = req.trace {
                record_partial_trace(&ctx, &req, t0.elapsed(), result.is_err());
            }
            let resp = match result {
                Ok(sums) => Response::PartialSum(PartialSumReply {
                    id: req.id,
                    layer: req.layer,
                    sums,
                }),
                Err(why) => {
                    metrics.protocol_errors.inc();
                    Response::Error(format!("partial id {}: {why}", req.id))
                }
            };
            send(writer, &resp, metrics);
        }
        Request::Infer(req) => {
            if let Some(s) = model.shard() {
                metrics.protocol_errors.inc();
                send(
                    writer,
                    &Response::Error(format!(
                        "replica serves shard {}/{} — route whole-model Infer through \
                         the fleet router",
                        s.index, s.count
                    )),
                    metrics,
                );
                pool_put(req.input);
                return;
            }
            if req.input.len() != model.input_features() {
                metrics.protocol_errors.inc();
                send(
                    writer,
                    &Response::Error(format!(
                        "input has {} features, model expects {}",
                        req.input.len(),
                        model.input_features()
                    )),
                    metrics,
                );
                pool_put(req.input);
                return;
            }
            // The executor's activation quantizer asserts inputs are
            // non-negative; a NaN or negative feature would panic a
            // bank worker. Reject exactly those at admission —
            // catch_unwind downstream stays as defense in depth,
            // not the first line.
            if req.input.iter().any(|v| v.is_nan() || *v < 0.0) {
                metrics.protocol_errors.inc();
                send(
                    writer,
                    &Response::Error(format!(
                        "input for id {} has NaN or negative features \
                         (expected values in [0, 1])",
                        req.id
                    )),
                    metrics,
                );
                pool_put(req.input);
                return;
            }
            let pending = Pending {
                id: req.id,
                input: req.input,
                enqueued: Instant::now(),
                reply: Arc::clone(writer),
                trace: req.trace,
            };
            match queue.try_enqueue(pending) {
                Ok(()) => {
                    metrics.admitted.inc();
                }
                Err((rejected, why)) => {
                    metrics.shed.inc();
                    if let Some(ctx) = rejected.trace {
                        offer_trace(
                            &ctx,
                            "serve.request",
                            0,
                            imc_obs::SpanStatus::Shed,
                            0,
                            why.reason().to_owned(),
                        );
                    }
                    send(
                        writer,
                        &Response::Shed(ShedReply {
                            id: rejected.id,
                            reason: why.reason().to_owned(),
                        }),
                        metrics,
                    );
                    pool_put(rejected.input);
                }
            }
        }
    }
}

/// Longest the swap path waits for in-flight batches to drain before
/// flipping anyway. The wait is a residency bound, not a correctness
/// gate — every batch snapshots its model once, so batches that outlive
/// the wait simply finish on the old image.
const SWAP_DRAIN_WAIT: Duration = Duration::from_secs(5);

/// Poll interval of the swap drain wait.
const SWAP_DRAIN_POLL: Duration = Duration::from_millis(1);

/// The hot-swap sequence, shared by [`Request::SwapImage`] and
/// [`ServerHandle::swap_model`]:
///
/// 1. **Load + prepack off the hot path** — `ServeModel::from_image` on
///    the calling thread; serving continues on the old model throughout.
/// 2. **Validate** — the new image must keep the input/output shape and
///    shard cut (clients validated against the old shape must stay
///    well-formed); any failure returns `Err` with nothing changed.
/// 3. **Drain, best-effort** — wait up to [`SWAP_DRAIN_WAIT`] for the
///    banks to go idle, bounding how long the old image lingers.
/// 4. **Flip** — swap the `Arc` under the write lock; the hold time is
///    the reported `pause_us`. Prepacked per-bank state rides inside the
///    `ServeModel`, so stale plane caches are impossible by construction.
/// 5. **Announce** — bump `serve.swaps_total` / `serve.image_version`,
///    retarget the energy gauge, and offer a `serve.swap` span to the
///    flight recorder (force-sampled: swaps are always notable).
fn do_swap(shared: &Shared, metrics: &Metrics, path: &str) -> Result<SwapDoneReply, String> {
    let t_all = Instant::now();
    let old = shared.slot.current();
    let new_model = ServeModel::from_image(path, None).map_err(|e| format!("swap {path}: {e}"))?;
    if new_model.input_features() != old.input_features() || new_model.classes() != old.classes() {
        return Err(format!(
            "swap {path}: shape mismatch — serving {}→{}, image is {}→{}",
            old.input_features(),
            old.classes(),
            new_model.input_features(),
            new_model.classes()
        ));
    }
    let old_cut = old.shard().map(|s| (s.index, s.count));
    let new_cut = new_model.shard().map(|s| (s.index, s.count));
    if old_cut != new_cut {
        return Err(format!(
            "swap {path}: shard cut mismatch — serving {old_cut:?}, image is {new_cut:?}"
        ));
    }

    let drain_deadline = Instant::now() + SWAP_DRAIN_WAIT;
    while shared.probe.in_flight() > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(SWAP_DRAIN_POLL);
    }

    let new_model = Arc::new(new_model);
    let digest = new_model.digest();
    let energy_pj = new_model.energy_per_inference_pj();
    let t_flip = Instant::now();
    let pause_us = {
        let mut w = shared
            .slot
            .model
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *w = new_model;
        t_flip.elapsed().as_micros() as u64
    };
    let version = shared.slot.version.fetch_add(1, Ordering::AcqRel) + 1;
    metrics.swaps_total.inc();
    metrics.image_version.set(version as f64);
    metrics.energy_per_inference_pj.set(energy_pj as f64);

    let total_us = t_all.elapsed().as_micros() as u64;
    imc_obs::recorder().offer(imc_obs::TraceRec {
        trace_id: imc_obs::next_span_id(),
        sampled: true, // a swap is always worth keeping
        spans: vec![imc_obs::SpanRec {
            span_id: imc_obs::next_span_id(),
            parent_span: 0,
            name: "serve.swap",
            service: "serve",
            start_unix_us: imc_obs::unix_us().saturating_sub(total_us),
            dur_us: total_us,
            status: imc_obs::SpanStatus::Ok,
            energy_pj: 0,
            detail: format!("version={version} digest={digest:#018x} pause_us={pause_us}"),
        }],
    });

    Ok(SwapDoneReply {
        version,
        digest,
        pause_us,
    })
}

/// Reads frames off one connection until EOF, error, shutdown, or a
/// frame-deadline drop. The first four bytes decide the framing: the
/// `BIN1` magic selects the binary protocol (version byte, then an
/// echoed 5-byte ack), anything else is the opening big-endian length
/// prefix of a JSON frame — so legacy clients negotiate nothing.
fn connection_loop(
    stream: TcpStream,
    queue: &AdmissionQueue<Conn>,
    metrics: &Metrics,
    shared: &Shared,
    shutdown: &ShutdownFlag,
    cfg: &ServeConfig,
) {
    let write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // Bounded writes: a non-draining client errors out instead of
    // holding the connection mutex (and a bank worker) indefinitely.
    write_half
        .set_write_timeout(duration_opt(cfg.write_timeout))
        .ok();
    let writer: Conn = Arc::new(Mutex::new(ConnWriter {
        stream: write_half,
        dead: false,
        proto: Proto::Json,
        scratch: Vec::new(),
    }));
    // A read timeout lets the reader notice shutdown even on an idle
    // connection (the client keeping it open is not a liveness hazard)
    // and bounds how stale a frame-deadline check can be.
    let mut reader = stream;
    reader
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();

    // --- negotiation ---------------------------------------------------
    let mut frame_deadline: Option<Instant> = None;
    let mut prefix = [0u8; 4];
    match read_full(
        &mut reader,
        &mut prefix,
        true,
        shutdown,
        &mut frame_deadline,
        cfg.frame_deadline,
    ) {
        Ok(true) => {}
        Ok(false) => return, // clean EOF or idle shutdown
        Err(e) => {
            count_read_error(&e, metrics);
            return;
        }
    }
    if prefix == wire::MAGIC {
        let mut ver = [0u8; 1];
        match read_full(
            &mut reader,
            &mut ver,
            false,
            shutdown,
            &mut frame_deadline,
            cfg.frame_deadline,
        ) {
            Ok(_) => {}
            Err(e) => {
                count_read_error(&e, metrics);
                return;
            }
        }
        {
            let mut w = writer
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if ver[0] != wire::VERSION {
                // Reject: echo the magic with version 0, then close.
                metrics.protocol_errors.inc();
                let mut nack = [0u8; 5];
                nack[..4].copy_from_slice(&wire::MAGIC);
                let _ = std::io::Write::write_all(&mut w.stream, &nack);
                return;
            }
            // Accept by echoing the hello.
            let mut ack = [0u8; 5];
            ack[..4].copy_from_slice(&wire::MAGIC);
            ack[4] = wire::VERSION;
            if std::io::Write::write_all(&mut w.stream, &ack).is_err() {
                return;
            }
            w.proto = Proto::Bin;
        }
        imc_obs::counter!(
            "imc_serve_bin_connections_total",
            "Connections negotiated onto the BIN1 binary protocol"
        )
        .inc();
        bin_loop(&mut reader, &writer, queue, metrics, shared, shutdown, cfg);
    } else {
        imc_obs::counter!(
            "imc_serve_json_connections_total",
            "Connections speaking the legacy JSON protocol"
        )
        .inc();
        json_loop(
            &mut reader,
            &writer,
            u32::from_be_bytes(prefix),
            frame_deadline,
            queue,
            metrics,
            shared,
            shutdown,
            cfg,
        );
    }
}

/// The legacy JSON frame loop. `first_len` / `first_deadline` carry the
/// already-consumed opening length prefix out of negotiation.
#[allow(clippy::too_many_arguments)]
fn json_loop(
    reader: &mut TcpStream,
    writer: &Conn,
    first_len: u32,
    first_deadline: Option<Instant>,
    queue: &AdmissionQueue<Conn>,
    metrics: &Metrics,
    shared: &Shared,
    shutdown: &ShutdownFlag,
    cfg: &ServeConfig,
) {
    let mut pending = Some((first_len, first_deadline));
    loop {
        let frame = if let Some((len, mut deadline)) = pending.take() {
            match read_json_payload(reader, len, shutdown, &mut deadline, cfg.frame_deadline) {
                Ok(json) => json,
                Err(e) => {
                    count_read_error(&e, metrics);
                    return;
                }
            }
        } else {
            let mut frame_deadline: Option<Instant> = None;
            let mut len_buf = [0u8; 4];
            match read_full(
                reader,
                &mut len_buf,
                true,
                shutdown,
                &mut frame_deadline,
                cfg.frame_deadline,
            ) {
                Ok(true) => {}
                Ok(false) => return, // clean EOF or idle shutdown
                Err(e) => {
                    count_read_error(&e, metrics);
                    return;
                }
            }
            match read_json_payload(
                reader,
                u32::from_be_bytes(len_buf),
                shutdown,
                &mut frame_deadline,
                cfg.frame_deadline,
            ) {
                Ok(json) => json,
                Err(e) => {
                    count_read_error(&e, metrics);
                    return;
                }
            }
        };
        let request: Request = match serde_json::from_str(&frame) {
            Ok(r) => r,
            Err(e) => {
                metrics.protocol_errors.inc();
                send(writer, &Response::Error(e.to_string()), metrics);
                continue;
            }
        };
        handle_request(request, writer, queue, metrics, shared, shutdown);
    }
}

/// The `BIN1` frame loop: one reused read arena and one pooled input
/// spare for the connection's whole life — at steady state a request
/// costs no allocations on the read path.
fn bin_loop(
    reader: &mut TcpStream,
    writer: &Conn,
    queue: &AdmissionQueue<Conn>,
    metrics: &Metrics,
    shared: &Shared,
    shutdown: &ShutdownFlag,
    cfg: &ServeConfig,
) {
    let mut arena: Vec<u8> = Vec::new();
    let mut spare: Vec<f32> = pool_take();
    loop {
        let mut frame_deadline: Option<Instant> = None;
        let mut len_buf = [0u8; 4];
        match read_full(
            reader,
            &mut len_buf,
            true,
            shutdown,
            &mut frame_deadline,
            cfg.frame_deadline,
        ) {
            Ok(true) => {}
            Ok(false) => {
                pool_put(spare);
                return; // clean EOF or idle shutdown
            }
            Err(e) => {
                count_read_error(&e, metrics);
                pool_put(spare);
                return;
            }
        }
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME_BYTES {
            metrics.protocol_errors.inc();
            send(
                writer,
                &Response::Error(wire::WireError::Oversized(len).to_string()),
                metrics,
            );
            pool_put(spare);
            return; // framing is unrecoverable
        }
        arena.clear();
        arena.resize(len as usize, 0);
        match read_full(
            reader,
            &mut arena,
            false,
            shutdown,
            &mut frame_deadline,
            cfg.frame_deadline,
        ) {
            Ok(_) => {}
            Err(e) => {
                count_read_error(&e, metrics);
                pool_put(spare);
                return;
            }
        }
        let request = match wire::decode_request_reusing(&arena, &mut spare) {
            Ok(r) => r,
            Err(e) => {
                // Typed reject; framing itself is still aligned (the
                // length prefix was honored), so the connection lives.
                metrics.protocol_errors.inc();
                send(writer, &Response::Error(e.to_string()), metrics);
                continue;
            }
        };
        let took_spare = matches!(request, Request::Infer(_));
        handle_request(request, writer, queue, metrics, shared, shutdown);
        if took_spare {
            spare = pool_take();
        }
    }
}

/// Zero means "no timeout" to the socket API via `None` (passing a zero
/// `Duration` to `set_write_timeout` is an error, not "disabled").
fn duration_opt(d: Duration) -> Option<Duration> {
    (!d.is_zero()).then_some(d)
}

/// Argmax under a total order that ranks every NaN below every non-NaN
/// (and all NaNs equal), so non-finite logits — which the analog model
/// can emit for extreme inputs — pick a deterministic class instead of
/// panicking the bank worker (`partial_cmp(..).expect("finite logits")`
/// was a remote kill). `f32::total_cmp` orders NaNs by sign bit, which
/// would rank -NaN below -inf but +NaN above +inf; this explicit
/// NaN-is-lowest rule keeps "any real logit beats a NaN". Ties keep the
/// **last** maximal index, matching the `Iterator::max_by` call this
/// replaces, so classes on finite rows are bit-for-bit unchanged.
///
/// The implementation lives in `neural::imc_exec` so the compile predict
/// pass scores with the exact same rule the server classifies with.
#[must_use]
pub fn argmax_total(row: &[f32]) -> usize {
    neural::imc_exec::argmax_total(row)
}

/// Offers a one-span [`imc_obs::TraceRec`] under `ctx` — the shape every
/// inline-answered path (shed, partial) records: root span parented on
/// the upstream hop, wall time `dur_us`, status and energy as given.
fn offer_trace(
    ctx: &imc_obs::TraceContext,
    name: &'static str,
    dur_us: u64,
    status: imc_obs::SpanStatus,
    energy_pj: u64,
    detail: String,
) {
    imc_obs::recorder().offer(imc_obs::TraceRec {
        trace_id: ctx.trace_id,
        sampled: ctx.sampled,
        spans: vec![imc_obs::SpanRec {
            span_id: imc_obs::next_span_id(),
            parent_span: ctx.parent_span,
            name,
            service: "serve",
            start_unix_us: imc_obs::unix_us().saturating_sub(dur_us),
            dur_us,
            status,
            energy_pj,
            detail,
        }],
    });
}

/// Records the trace of an inline partial-MAC execution (sharded-replica
/// hop). Energy is stamped upstream by the fleet router's plan — the
/// replica's span carries 0 so a stitched trace never double-counts.
fn record_partial_trace(
    ctx: &imc_obs::TraceContext,
    req: &crate::protocol::PartialRequest,
    dur: Duration,
    failed: bool,
) {
    offer_trace(
        ctx,
        "serve.partial",
        dur.as_micros() as u64,
        if failed {
            imc_obs::SpanStatus::Failed
        } else {
            imc_obs::SpanStatus::Ok
        },
        0,
        format!(
            "layer={} chunks={}..{} codes={}",
            req.layer,
            req.chunk_lo,
            req.chunk_hi,
            req.codes.len()
        ),
    );
}

/// Runs one batch on a bank: assemble the input tensor, execute with
/// per-sample noise isolation, write each response, record latencies.
fn execute_batch(
    bank: usize,
    mut batch: Vec<Pending<Conn>>,
    model: &ServeModel,
    metrics: &Metrics,
    service_delay: Duration,
    fail_input_sentinel: Option<f32>,
) {
    let span = imc_obs::span!("serve.batch");
    let n = batch.len();
    let features = model.input_features();
    let classes = model.classes();
    let mut data = Vec::with_capacity(n * features);
    for req in &batch {
        data.extend_from_slice(&req.input);
    }
    if let Some(sentinel) = fail_input_sentinel {
        // Chaos fail-point: prove panic isolation with a real unwind
        // through the real executor path.
        assert!(
            !batch
                .iter()
                .any(|req| req.input.first().map(|v| v.to_bits()) == Some(sentinel.to_bits())),
            "injected chaos fault (fail_input_sentinel hit on bank {bank})"
        );
    }
    // The inputs have been copied into the batch tensor; recycle their
    // buffers so BIN1 connections keep allocation-free at steady state.
    for req in &mut batch {
        pool_put(std::mem::take(&mut req.input));
    }
    let x = Tensor::from_vec(&[n, features], data);

    let t0 = Instant::now();
    if !service_delay.is_zero() {
        std::thread::sleep(service_delay);
    }
    let tk = Instant::now();
    let logits = model.infer_batch(&x);
    let kernel_us = tk.elapsed().as_micros() as u64;
    let service_us = t0.elapsed().as_micros() as u64;
    metrics.batch_latency.record(service_us);
    metrics.banks[bank].batches.inc();
    metrics.banks[bank].requests.add(n as u64);
    metrics
        .energy_pj
        .add(model.energy_per_inference_pj() * n as u64);

    for (i, req) in batch.iter().enumerate() {
        let row = &logits.data()[i * classes..(i + 1) * classes];
        let class = argmax_total(row);
        let queue_us = t0.duration_since(req.enqueued).as_micros() as u64;
        let resp = Response::Output(InferReply {
            id: req.id,
            logits: row.to_vec(),
            class,
            bank,
            batch: n,
            queue_us,
            service_us,
            trace_id: req.trace.map_or(0, |t| t.trace_id),
        });
        let total_us = req.enqueued.elapsed().as_micros() as u64;
        if let Some(ctx) = req.trace {
            // One record per traced request: the root `serve.request`
            // span carries the analytical energy stamp (the one pricing
            // point per logical inference), with queue wait and the
            // tight kernel window as children.
            let root = imc_obs::next_span_id();
            let start = imc_obs::unix_us().saturating_sub(total_us);
            imc_obs::recorder().offer(imc_obs::TraceRec {
                trace_id: ctx.trace_id,
                sampled: ctx.sampled,
                spans: vec![
                    imc_obs::SpanRec {
                        span_id: root,
                        parent_span: ctx.parent_span,
                        name: "serve.request",
                        service: "serve",
                        start_unix_us: start,
                        dur_us: total_us,
                        status: imc_obs::SpanStatus::Ok,
                        energy_pj: model.energy_per_inference_pj(),
                        detail: format!("bank={bank} batch={n}"),
                    },
                    imc_obs::SpanRec {
                        span_id: imc_obs::next_span_id(),
                        parent_span: root,
                        name: "serve.queue",
                        service: "serve",
                        start_unix_us: start,
                        dur_us: queue_us,
                        status: imc_obs::SpanStatus::Ok,
                        energy_pj: 0,
                        detail: String::new(),
                    },
                    imc_obs::SpanRec {
                        span_id: imc_obs::next_span_id(),
                        parent_span: root,
                        name: "serve.kernel",
                        service: "serve",
                        start_unix_us: start + queue_us + (service_us - kernel_us),
                        dur_us: kernel_us,
                        status: imc_obs::SpanStatus::Ok,
                        energy_pj: 0,
                        detail: String::new(),
                    },
                ],
            });
        }
        // Count completion before the reply goes out: a client that
        // pipelines `Stats` right behind its answered `Infer` must see
        // the request already counted.
        metrics
            .request_latency
            .record_with_exemplar(total_us, req.trace.map_or(0, |t| t.trace_id));
        metrics.completed.inc();
        send(&req.reply, &resp, metrics);
    }
    drop(span);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_total_matches_partial_cmp_on_finite_rows() {
        let rows: [&[f32]; 4] = [
            &[0.0, 1.0, -2.0],
            &[-5.0, -4.5, -9.0, -4.5],
            &[3.25],
            &[f32::MIN, f32::MAX, 0.0],
        ];
        for row in rows {
            let reference = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map_or(0, |(j, _)| j);
            assert_eq!(argmax_total(row), reference, "row {row:?}");
        }
    }

    #[test]
    fn argmax_total_treats_nan_as_lowest() {
        assert_eq!(argmax_total(&[f32::NAN, 0.5, 0.1]), 1);
        assert_eq!(argmax_total(&[0.1, f32::NAN, 0.5]), 2);
        // Any real value beats NaN, even -inf and the most negative finite.
        assert_eq!(argmax_total(&[f32::NAN, f32::NEG_INFINITY]), 1);
        assert_eq!(argmax_total(&[-f32::NAN, f32::MIN]), 1);
        // All-NaN rows pick a deterministic class (the first).
        assert_eq!(argmax_total(&[f32::NAN, f32::NAN, f32::NAN]), 0);
        // +inf wins over everything; ties keep the **last** index,
        // matching `max_by` semantics on finite rows.
        assert_eq!(argmax_total(&[f32::INFINITY, f32::NAN, f32::INFINITY]), 2);
        assert!(std::panic::catch_unwind(|| {
            argmax_total(&[f32::NAN, 1.0, f32::NAN, f32::INFINITY])
        })
        .is_ok());
    }

    #[test]
    fn zero_write_timeout_means_unbounded_not_error() {
        assert_eq!(duration_opt(Duration::ZERO), None);
        assert_eq!(
            duration_opt(Duration::from_secs(5)),
            Some(Duration::from_secs(5))
        );
    }
}
