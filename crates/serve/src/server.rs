//! The inference server: admission, batching, execution and graceful
//! shutdown behind the shared BIN1 front door ([`crate::door`]).
//!
//! Thread topology:
//!
//! ```text
//! door accept ─┬─ conn thread ──┐ try_enqueue
//!              ├─ conn thread ──┼──► admission ──► batcher thread: dispatch
//!              └─ ...           ┘    queue (bounded)  runs each batch in place
//! ```
//!
//! * The door accepts, enforces the connection limits of DESIGN §12 and
//!   decodes frames; this module supplies only the frame handler.
//!   Control requests are answered inline; inference requests are
//!   admitted to the bounded queue, and a full queue produces an
//!   immediate `Shed` response on the same connection.
//! * The batcher thread is the server's one executor. It drains the queue
//!   with flush-on-size-or-deadline semantics and runs each batch itself
//!   through [`BankScheduler::dispatch`], fanning the rows out over the
//!   shared `par_exec` pool (one noise-isolated stream per sample), and
//!   writes responses back through each request's connection handle.
//! * A hot swap loads the new image on the requesting thread and flips
//!   the model slot at once; a batch already running finishes on the
//!   image it snapshotted, and that image is freed with the batch.
//!
//! Shutdown (control request, [`ServerHandle::join`], or SIGINT/SIGTERM
//! noticed by [`ShutdownFlag::park`]): the trigger wakes the door's blocked
//! accept, the admission queue closes (new requests shed as
//! `shutting down`), the batcher runs every admitted request to its
//! reply, and only then does [`ServerHandle::join`] return — accepted
//! work is never dropped.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use neural::tensor::Tensor;

use crate::batcher::{AdmissionQueue, Pending};
use crate::door::{ConnLimits, Door, FrameHandler, Reply};
use crate::metrics::Metrics;
use crate::model::ServeModel;
use crate::protocol::{
    FailedReply, InferReply, PartialSumReply, Request, Response, ShedReply, SwapDoneReply,
};
use crate::scheduler::BankScheduler;
use crate::shutdown::ShutdownFlag;

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dynamic batcher: flush when this many requests have coalesced.
    pub max_batch: usize,
    /// Dynamic batcher: flush when the oldest queued request has waited
    /// this long.
    pub max_wait: Duration,
    /// Admission queue capacity; requests beyond it are shed.
    pub queue_depth: usize,
    /// The door's connection limits: frame deadline, write timeout and
    /// connection cap (DESIGN §12).
    pub limits: ConnLimits,
    /// Chaos fail-point: when set, any admitted request whose first
    /// input feature equals this sentinel makes its batch panic. Used by
    /// the chaos harness to prove panic isolation and recovery end to
    /// end; `None` (the default) in production.
    pub fail_input_sentinel: Option<f32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            queue_depth: 1024,
            limits: ConnLimits::default(),
            fail_input_sentinel: None,
        }
    }
}

/// The swappable serving model: an `Arc` behind an `RwLock`, plus a
/// monotone version number (1 at startup).
///
/// Readers — the batch executor, admission validation, `Describe`,
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

/// State every connection thread, the batch executor and the handle
/// share; the door's frame handler.
pub(crate) struct Shared {
    slot: Arc<ModelSlot>,
    queue: Arc<AdmissionQueue<Reply>>,
    metrics: Arc<Metrics>,
    /// Trips the drain; triggering it also wakes the door's accept.
    shutdown: ShutdownFlag,
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    batcher_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown latch (share it with a signal installer or trip it
    /// directly; a trigger also wakes the server's blocked accept).
    #[must_use]
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shared.shutdown.clone()
    }

    /// The live metrics: the counters and histograms `/metrics` exports.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// An owned handle to the metrics — outlives [`join`](Self::join),
    /// so callers can read final counts after the drain completes.
    #[must_use]
    pub fn metrics_handle(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Version of the image currently serving (1 at startup, +1 per
    /// successful [`Request::SwapImage`]).
    #[must_use]
    pub fn image_version(&self) -> u64 {
        self.shared.slot.version()
    }

    /// Requests the server stop and blocks until every accepted request
    /// has been answered and all service threads have exited. Service
    /// threads that died of a panic are reported, not re-panicked — the
    /// caller still gets its drain and final metrics.
    pub fn join(mut self) {
        self.shared.shutdown.trigger();
        if let Some(t) = self.accept_thread.take() {
            if t.join().is_err() {
                eprintln!("imc-serve: accept thread panicked");
                // The batcher only exits once the queue closes; do it on
                // the accept thread's behalf so join still terminates.
                self.shared.queue.close();
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
/// port) and returns once the door is bound and the accept and batcher
/// threads are running.
///
/// # Errors
///
/// Fails if the address cannot be bound.
///
/// # Panics
///
/// Panics if the accept or batcher thread cannot be spawned.
pub fn serve<A: ToSocketAddrs>(
    addr: A,
    model: Arc<ServeModel>,
    cfg: &ServeConfig,
) -> std::io::Result<ServerHandle> {
    let metrics = Arc::new(Metrics::new());
    let door = Door::bind(addr, "imc", cfg.limits, metrics.door.clone())?;
    let local = door.local_addr();

    // Spawn the pool before the first request so its cost is not billed
    // to the first batch's latency.
    par_exec::warmup();

    metrics
        .energy_per_inference_pj
        .set(model.energy_per_inference_pj() as f64);
    metrics.image_version.set(1.0);
    let slot = Arc::new(ModelSlot::new(model));
    let queue: Arc<AdmissionQueue<Reply>> = Arc::new(AdmissionQueue::new(cfg.queue_depth));

    // --- batch executor --------------------------------------------------
    // One bank: the batcher thread is the one executor, so every reply
    // carries `bank` 0.
    let scheduler = {
        let slot = Arc::clone(&slot);
        let metrics = Arc::clone(&metrics);
        let panic_metrics = Arc::clone(&metrics);
        let sentinel = cfg.fail_input_sentinel;
        BankScheduler::new(
            1,
            move |bank, batch: Vec<Pending<Reply>>| {
                // One model snapshot per batch: every request in the
                // batch executes on the same image, and a concurrent
                // swap affects only *later* batches.
                let model = slot.current();
                execute_batch(bank, batch, &model, &metrics, sentinel);
            },
            move |_bank, routes: Vec<(u64, Reply)>| {
                // The batch panicked: count it and answer every affected
                // request with a typed, retryable failure instead of
                // leaving the clients hanging.
                panic_metrics.worker_panics.inc();
                for (id, reply) in routes {
                    reply.send(&Response::Failed(FailedReply {
                        id,
                        reason: "worker panic".to_owned(),
                    }));
                }
            },
        )
    };
    let shared = Arc::new(Shared {
        slot,
        queue: Arc::clone(&queue),
        metrics: Arc::clone(&metrics),
        shutdown: ShutdownFlag::new(door.waker()),
    });

    // --- batcher thread ---------------------------------------------------
    let batcher_thread = {
        let max_batch = cfg.max_batch;
        let max_wait = cfg.max_wait;
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
            })
            .expect("spawn batcher thread")
    };

    // --- the door's accept loop -------------------------------------------
    let accept_thread = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("imc-accept".into())
            .spawn(move || {
                door.run(&shared);
                // Stop admitting; the batcher drains and exits.
                shared.queue.close();
            })
            .expect("spawn accept thread")
    };

    Ok(ServerHandle {
        addr: local,
        accept_thread: Some(accept_thread),
        batcher_thread: Some(batcher_thread),
        shared,
    })
}

/// Answers control requests inline and admits inference requests;
/// admitted ones travel to `execute_batch`.
impl FrameHandler for Shared {
    type Session = ();

    fn handle(&self, (): &mut (), request: Request, writer: &Reply) -> bool {
        // One model snapshot per request: validation, Describe, and Partial
        // all see a single consistent image even if a swap lands mid-call.
        // (Batch execution takes its own snapshot per batch; swaps keep the
        // input/output shape invariant, so a request validated against the
        // old image is still well-formed for the new one.)
        let model = self.slot.current();
        match request {
            Request::Ping => writer.send(&Response::Pong),
            Request::Shutdown => {
                writer.send(&Response::ShuttingDown);
                self.shutdown.trigger();
            }
            Request::Describe => writer.send(&Response::Describe(model.describe())),
            Request::SwapImage(req) => {
                // Runs on this control connection's thread: the expensive
                // load/prepack never touches the executor, and a failed swap
                // leaves the old model serving.
                let resp = match do_swap(self, &req.path) {
                    Ok(done) => Response::SwapDone(done),
                    Err(why) => {
                        self.metrics.door.protocol_errors.inc();
                        Response::Error(why)
                    }
                };
                writer.send(&resp);
            }
            Request::Partial(req) => {
                // Deterministic (chunk-addressed noise) and small, so it runs
                // right here on the connection thread instead of queueing
                // behind whole-model batches.
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
                        self.metrics.door.protocol_errors.inc();
                        Response::Error(format!("partial id {}: {why}", req.id))
                    }
                };
                writer.send(&resp);
            }
            Request::Infer(req) => {
                // The executor's activation quantizer asserts inputs are
                // non-negative; a NaN or negative feature would panic its
                // batch. Reject exactly those at admission — catch_unwind
                // downstream stays as defense in depth, not the first line.
                let invalid = if let Some(s) = model.shard() {
                    Some(format!(
                        "replica serves shard {}/{} — route whole-model Infer through \
                         the fleet router",
                        s.index, s.count
                    ))
                } else if req.input.len() != model.input_features() {
                    Some(format!(
                        "input has {} features, model expects {}",
                        req.input.len(),
                        model.input_features()
                    ))
                } else if req.input.iter().any(|v| v.is_nan() || *v < 0.0) {
                    Some(format!(
                        "input for id {} has NaN or negative features \
                         (expected values in [0, 1])",
                        req.id
                    ))
                } else {
                    None
                };
                if let Some(why) = invalid {
                    self.metrics.door.protocol_errors.inc();
                    writer.send(&Response::Error(why));
                    return true;
                }
                let pending = Pending {
                    id: req.id,
                    input: req.input,
                    enqueued: Instant::now(),
                    reply: writer.clone(),
                    trace: req.trace,
                };
                match self.queue.try_enqueue(pending) {
                    Ok(()) => self.metrics.admitted.inc(),
                    Err((rejected, why)) => {
                        self.metrics.shed.inc();
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
                        writer.send(&Response::Shed(ShedReply {
                            id: rejected.id,
                            reason: why.reason().to_owned(),
                        }));
                    }
                }
            }
        }
        true
    }
}

/// The hot-swap sequence behind [`Request::SwapImage`]:
///
/// 1. **Load + prepack off the hot path** — `ServeModel::from_image` on
///    the calling thread; serving continues on the old model throughout.
/// 2. **Validate** — the new image must keep the input/output shape
///    (clients validated against the old shape must stay well-formed),
///    and neither image may be a shard: a running router never asks a
///    replica for its digest again, so a swapped shard's partial sums
///    would be added to the other shards' sums of the old image. Any
///    failure returns `Err` with nothing changed.
/// 3. **Switch** — swap the `Arc` under the write lock; the hold time is
///    the reported `pause_us`. Prepacked weight planes ride inside the
///    `ServeModel`, so stale plane caches are impossible by construction.
///    A batch already running holds its own `Arc` of the old image,
///    which is freed when that batch drops it.
/// 4. **Announce** — bump `serve.swaps_total` / `serve.image_version`,
///    retarget the energy gauge, and offer a `serve.swap` span to the
///    flight recorder.
fn do_swap(shared: &Shared, path: &str) -> Result<SwapDoneReply, String> {
    let metrics = &shared.metrics;
    let t_all = Instant::now();
    let old = shared.slot.current();
    let new_model = ServeModel::from_image(path).map_err(|e| format!("swap {path}: {e}"))?;
    if new_model.input_features() != old.input_features() || new_model.classes() != old.classes() {
        return Err(format!(
            "swap {path}: shape mismatch — serving {}→{}, image is {}→{}",
            old.input_features(),
            old.classes(),
            new_model.input_features(),
            new_model.classes()
        ));
    }
    if old.shard().is_some() || new_model.shard().is_some() {
        return Err(format!(
            "swap {path}: shards do not hot-swap — restart the shard replicas \
             and the router on the new images"
        ));
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

/// Argmax under a total order that ranks every NaN below every non-NaN
/// (and all NaNs equal), so non-finite logits — which the analog model
/// can emit for extreme inputs — pick a deterministic class instead of
/// panicking the batch (`partial_cmp(..).expect("finite logits")`
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

/// Runs one batch: assemble the input tensor, execute with per-sample
/// noise isolation, write each response, record latencies.
fn execute_batch(
    bank: usize,
    batch: Vec<Pending<Reply>>,
    model: &ServeModel,
    metrics: &Metrics,
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
    let x = Tensor::from_vec(&[n, features], data);

    let t0 = Instant::now();
    let logits = model.infer_batch(&x);
    let service_us = t0.elapsed().as_micros() as u64;
    metrics.batch_latency.record(service_us);
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
                        start_unix_us: start + queue_us,
                        dur_us: service_us,
                        status: imc_obs::SpanStatus::Ok,
                        energy_pj: 0,
                        detail: String::new(),
                    },
                ],
            });
        }
        // Count completion before the reply goes out: a caller that
        // reads the metrics right after its answered `Infer` must see
        // the request already counted.
        metrics
            .request_latency
            .record_with_exemplar(total_us, req.trace.map_or(0, |t| t.trace_id));
        metrics.completed.inc();
        req.reply.send(&resp);
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
}
