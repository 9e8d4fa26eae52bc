//! The fleet front door: a TCP server speaking the `imc-serve`
//! protocol (`BIN1`) that routes whole-model `Infer` requests over a
//! fleet of chip replicas.
//!
//! Two routing modes, chosen by the plan's shard count:
//!
//! * **Replicated** (1 shard): every replica holds the whole model; the
//!   router round-robins `Infer` requests across healthy replicas and
//!   fails over on I/O errors. Responses pass through unchanged, so
//!   answers are bit-identical to talking to any single replica.
//! * **Sharded** (N > 1 shards): each replica holds one shard's chunk
//!   ranges. Per MAC layer the router quantizes the activations once,
//!   scatters the codes to one replica per shard (`Partial`), sums the
//!   returned i64 partials, and applies the digital glue
//!   (`total * w_scale * act_scale + bias`). Because the operating
//!   point satisfies the exact shift-add condition (checked at plan
//!   construction), the integer sum and f32 glue reproduce single-node
//!   `QNetwork::forward` bit-for-bit — see DESIGN §14.
//!
//! Failover: an I/O error marks the replica `Suspect`, bumps
//! `fleet.failovers`, sleeps the client `RetryPolicy` backoff, and
//! retries on the next replica of the same shard. Only correctness
//! checks (stale digest, wrong shard width) quarantine — those replicas
//! never serve again.
//!
//! Connections come in through `imc-serve`'s BIN1 door
//! ([`imc_serve::door`]), with the same hardening as a single server at
//! its default [`ConnLimits`] (DESIGN §12): blocking accept, connection
//! cap, hello and nack, frame deadline, write timeout. The router
//! supplies only the frame handler and counts the door's faults as
//! `fleet.protocol_errors_total`, `fleet.conn_deadline_drops_total` and
//! `fleet.busy_rejects_total`.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use imc_obs::{counter, counter_vec, gauge_vec, SpanRec, SpanStatus, TraceContext, TraceRec};
use imc_serve::door::{ConnLimits, Door, DoorCounters, FrameHandler, Reply};
use imc_serve::protocol::{DescribeReply, FailedReply, InferReply, Request, Response};
use imc_serve::{argmax_total, Client, ClientConfig, RetryPolicy, ShutdownFlag};
use neural::quant::quantize_activations;
use neural::tensor::Tensor;

use crate::health::{FleetError, HealthBoard, Replica};
use crate::topology::FleetPlan;

/// Router tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Upstream (router → replica) client settings.
    pub client: ClientConfig,
    /// Failover pacing: attempt `k` against a shard sleeps
    /// `retry.backoff_delay(k, request_id)` before trying the next
    /// replica. Admission dials each replica up to `retry.max_attempts`
    /// times on the same schedule.
    pub retry: RetryPolicy,
}

struct RouterState {
    plan: FleetPlan,
    board: Mutex<HealthBoard>,
    cfg: RouterConfig,
    /// Triggering it wakes the door's blocked accept.
    shutdown: ShutdownFlag,
}

/// Handle to a running fleet router.
pub struct FleetHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    counters: DoorCounters,
    accept: Option<thread::JoinHandle<()>>,
}

impl FleetHandle {
    /// The router's bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's shutdown latch; a trigger also wakes its accept.
    #[must_use]
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.state.shutdown.clone()
    }

    /// The front door's fault counters (`fleet.protocol_errors_total`,
    /// `fleet.conn_deadline_drops_total`, `fleet.busy_rejects_total`).
    #[must_use]
    pub fn door_counters(&self) -> &DoorCounters {
        &self.counters
    }

    /// Snapshot of the replica scoreboard.
    ///
    /// # Panics
    ///
    /// Never — a poisoned board lock is recovered.
    #[must_use]
    pub fn replicas(&self) -> Vec<Replica> {
        self.state
            .board
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .replicas()
            .to_vec()
    }

    /// Trips shutdown, which wakes the accept, and joins the accept
    /// thread. Connection threads finish their current request and exit
    /// on client EOF, or within a read tick once idle.
    pub fn shutdown(mut self) {
        self.state.shutdown.trigger();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Blocks until shutdown is triggered elsewhere (a `Shutdown`
    /// request or a delivered signal), then shuts down.
    pub fn wait(self) {
        self.state.shutdown.park();
        self.shutdown();
    }
}

/// Starts the fleet router: admits `replica_addrs` against the plan,
/// binds `addr`, and serves until shutdown.
///
/// Admission runs once, here: the running router never sends
/// `Describe` again, so serving new digests takes a new router with a
/// new plan (DESIGN §17).
///
/// Returns the handle plus the admission errors (quarantines and
/// unreachable replicas) so callers can surface them; the router still
/// starts as long as the listener binds — a fleet with holes serves
/// what it can and fails requests for starved shards with typed
/// errors.
///
/// # Errors
///
/// Binding the listener, or spawning its accept thread.
pub fn serve_fleet<A: ToSocketAddrs>(
    addr: A,
    plan: FleetPlan,
    replica_addrs: &[String],
    cfg: RouterConfig,
) -> io::Result<(FleetHandle, Vec<FleetError>)> {
    let counters = DoorCounters::registered("fleet.");
    let door = Door::bind(addr, "fleet", ConnLimits::default(), counters.clone())?;
    let local = door.local_addr();

    let state = Arc::new(RouterState {
        board: Mutex::new(HealthBoard::new(plan.shard_count())),
        plan,
        cfg,
        shutdown: ShutdownFlag::new(door.waker()),
    });
    let mut admission = Vec::new();
    for addr in replica_addrs {
        if let Err(e) = admit_replica(&state, addr) {
            admission.push(e);
        }
    }

    let accept_state = Arc::clone(&state);
    let accept = thread::Builder::new()
        .name("fleet-accept".into())
        .spawn(move || door.run(&accept_state))?;

    Ok((
        FleetHandle {
            addr: local,
            state,
            counters,
            accept: Some(accept),
        },
        admission,
    ))
}

/// Connects to one replica, verifies its `Describe` against the plan,
/// and registers it on the board.
fn admit_replica(state: &RouterState, addr: &str) -> Result<(), FleetError> {
    let attempts = state.cfg.retry.max_attempts.max(1);
    let mut last = String::new();
    for attempt in 1..=attempts {
        match Client::connect_with(addr, state.cfg.client).and_then(|mut c| c.describe()) {
            Ok(d) => {
                let verdict = state
                    .board
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .admit(&state.plan, addr, &d);
                return match verdict {
                    Ok(shard) => {
                        gauge_vec!(
                            "fleet.replica_healthy",
                            ["replica"],
                            "1 = healthy, 0 = suspect/unreachable, -1 = quarantined",
                            &[addr]
                        )
                        .set(1.0);
                        log(&format!(
                            "admitted {addr} as shard {shard} (digest {:#x})",
                            d.digest
                        ));
                        Ok(())
                    }
                    Err(e) => {
                        counter!(
                            "fleet.quarantined_total",
                            "Replicas quarantined at admission (stale image, wrong shard/shape)"
                        )
                        .inc();
                        gauge_vec!(
                            "fleet.replica_healthy",
                            ["replica"],
                            "1 = healthy, 0 = suspect/unreachable, -1 = quarantined",
                            &[addr]
                        )
                        .set(-1.0);
                        log(&format!("quarantined {addr}: {e}"));
                        Err(e)
                    }
                };
            }
            Err(e) => {
                last = e.to_string();
                if attempt < attempts {
                    thread::sleep(state.cfg.retry.backoff_delay(attempt, fnv(addr)));
                }
            }
        }
    }
    state
        .board
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .note_unreachable(addr);
    gauge_vec!(
        "fleet.replica_healthy",
        ["replica"],
        "1 = healthy, 0 = suspect/unreachable, -1 = quarantined",
        &[addr]
    )
    .set(0.0);
    log(&format!("replica {addr} unreachable at admission: {last}"));
    Err(FleetError::Unreachable {
        addr: addr.to_owned(),
        error: last,
    })
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn log(msg: &str) {
    eprintln!("imc-fleet: {msg}");
}

/// Routes each request of one connection. The connection's thread owns
/// its upstream clients, so replica sockets are never shared across
/// request streams.
impl FrameHandler for RouterState {
    type Session = HashMap<usize, Client>;

    fn handle(&self, upstreams: &mut Self::Session, request: Request, reply: &Reply) -> bool {
        let resp = match request {
            Request::Ping => Response::Pong,
            // The fleet presents itself as one whole-model server.
            Request::Describe => Response::Describe(DescribeReply {
                digest: self.plan.base_digest,
                shard_index: 0,
                shard_count: 0,
                features: self.plan.features,
                classes: self.plan.classes,
            }),
            Request::Shutdown => {
                reply.send(&Response::ShuttingDown);
                self.shutdown.trigger();
                return false;
            }
            Request::Partial(p) => Response::Error(format!(
                "partial id {}: the fleet router is a whole-model front door; send Infer",
                p.id
            )),
            Request::SwapImage(r) => Response::Error(format!(
                "swap {}: swap every replica directly, then start a new router \
                 with a plan for the new digests",
                r.path
            )),
            Request::Infer(r) => {
                counter!("fleet.infer_total", "Infer requests routed by the fleet").inc();
                // Adopt the caller's trace, or start one: the router is the
                // fleet's front door, so every routed request is traceable.
                let ctx = r.trace.unwrap_or_else(TraceContext::new_root);
                if self.plan.whole_model() {
                    route_whole(self, upstreams, r.id, r.input, ctx)
                } else {
                    route_sharded(self, upstreams, r.id, r.input, ctx)
                }
            }
        };
        reply.send(&resp);
        true
    }
}

/// Maps a routed response onto the span status its trace records.
fn resp_status(resp: &Response) -> SpanStatus {
    match resp {
        Response::Output(_) => SpanStatus::Ok,
        Response::Shed(_) => SpanStatus::Shed,
        _ => SpanStatus::Failed,
    }
}

/// Records the router's view of one routed request: a `fleet.request`
/// root span (parented on the caller's hop) plus whatever child spans
/// the routing mode collected. `energy_pj` follows the one-stamp rule:
/// sharded routing stamps the plan's whole-inference energy here (the
/// replicas' partial spans carry 0); replicated routing stamps 0 — the
/// replica that answered prices its own `serve.request` span.
fn offer_fleet_trace(
    ctx: &TraceContext,
    root: u64,
    started: Instant,
    resp: &Response,
    energy_pj: u64,
    detail: String,
    mut children: Vec<SpanRec>,
) {
    let dur_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut spans = vec![SpanRec {
        span_id: root,
        parent_span: ctx.parent_span,
        name: "fleet.request",
        service: "fleet",
        start_unix_us: imc_obs::unix_us().saturating_sub(dur_us),
        dur_us,
        status: resp_status(resp),
        energy_pj,
        detail,
    }];
    spans.append(&mut children);
    imc_obs::recorder().offer(TraceRec {
        trace_id: ctx.trace_id,
        spans,
    });
}

/// Replicated mode: forward the whole `Infer` to one replica, failing
/// over across replicas on I/O errors. The replica's response passes
/// through unchanged (except that the reply's `trace_id` is pinned to
/// the routed trace).
fn route_whole(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    id: u64,
    input: Vec<f32>,
    ctx: TraceContext,
) -> Response {
    let started = Instant::now();
    let root = imc_obs::next_span_id();
    let mut resp = route_whole_inner(state, upstreams, id, input, ctx.child(root));
    if let Response::Output(r) = &mut resp {
        r.trace_id = ctx.trace_id;
    }
    offer_fleet_trace(
        &ctx,
        root,
        started,
        &resp,
        0,
        "mode=replicated".to_owned(),
        Vec::new(),
    );
    resp
}

fn route_whole_inner(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    id: u64,
    input: Vec<f32>,
    child: TraceContext,
) -> Response {
    let mut tried = Vec::new();
    let mut last = String::from("no admissible replica");
    let mut last_resp: Option<Response> = None;
    for attempt in 1..=state.cfg.retry.max_attempts {
        let Some((idx, addr)) = pick(state, 0, &tried) else {
            break;
        };
        match exchange(state, upstreams, idx, &addr, |c| {
            c.infer_traced(id, input.clone(), Some(child))
        }) {
            // Shed (backpressure / draining) and Failed are this
            // replica declining, not the fleet's answer: try another
            // replica, and only surface the decline once every replica
            // has declined.
            Ok(resp @ (Response::Shed(_) | Response::Failed(_))) => {
                last = match &resp {
                    Response::Shed(s) => format!("{addr} shed: {}", s.reason),
                    Response::Failed(f) => format!("{addr} failed: {}", f.reason),
                    _ => unreachable!(),
                };
                last_resp = Some(resp);
                tried.push(idx);
                failover(state, 0, &addr, attempt, id);
            }
            Ok(resp) => {
                if matches!(resp, Response::Output(_)) {
                    charge_energy(&state.plan);
                }
                return resp;
            }
            Err(e) => {
                last = e;
                tried.push(idx);
                failover(state, 0, &addr, attempt, id);
            }
        }
    }
    last_resp.unwrap_or_else(|| {
        Response::Failed(FailedReply {
            id,
            reason: FleetError::Exhausted {
                shard: 0,
                attempts: state.cfg.retry.max_attempts,
                last,
            }
            .to_string(),
        })
    })
}

/// Sharded mode: per MAC layer, quantize once, scatter the codes to one
/// replica per shard, sum the i64 partials, and apply the digital glue.
/// Bit-exact vs single-node `forward` by the exact shift-add argument
/// (DESIGN §14).
fn route_sharded(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    id: u64,
    input: Vec<f32>,
    ctx: TraceContext,
) -> Response {
    let started = Instant::now();
    let root = imc_obs::next_span_id();
    let mut children = Vec::new();
    let resp = route_sharded_inner(
        state,
        upstreams,
        id,
        input,
        ctx.child(root),
        root,
        &mut children,
    );
    // The sharded fleet jointly executes one whole-model inference;
    // this root span is the one pricing point of the whole trace.
    let energy_pj = if matches!(resp, Response::Output(_)) {
        to_pj(state.plan.energy_per_inference_j)
    } else {
        0
    };
    let detail = format!("mode=sharded shards={}", state.plan.shard_count());
    offer_fleet_trace(&ctx, root, started, &resp, energy_pj, detail, children);
    resp
}

fn route_sharded_inner(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    id: u64,
    input: Vec<f32>,
    child: TraceContext,
    root: u64,
    children: &mut Vec<SpanRec>,
) -> Response {
    let plan = &state.plan;
    if input.len() != plan.features {
        return Response::Error(format!(
            "infer id {id}: expected {} features, got {}",
            plan.features,
            input.len()
        ));
    }
    if input.iter().any(|v| !v.is_finite() || *v < 0.0) {
        // The quantizer (like the single-node server) requires
        // non-negative finite activations; reject instead of panicking.
        return Response::Error(format!(
            "infer id {id}: inputs must be finite and non-negative"
        ));
    }
    let started = Instant::now();
    let mut cur = input;
    for (li, layer) in plan.layers.iter().enumerate() {
        if li > 0 {
            for v in &mut cur {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        let qa = quantize_activations(
            &Tensor::from_vec(&[1, layer.fan], cur.clone()),
            plan.input_bits,
        );
        #[allow(clippy::cast_precision_loss)] // codes are < 2^8
        let codes: Vec<f32> = qa.q.iter().map(|&v| v as f32).collect();
        let mut total = vec![0i64; layer.out_features];
        for slot in &plan.shards {
            let [lo, hi] = slot.layer_chunks[li];
            if lo == hi {
                continue; // fewer chunks than shards: this one owns none
            }
            let pspan = imc_obs::next_span_id();
            let pt0 = Instant::now();
            let outcome = shard_partial(
                state,
                upstreams,
                id,
                slot.index,
                li,
                lo,
                hi,
                &codes,
                child.child(pspan),
            );
            let pdur_us = u64::try_from(pt0.elapsed().as_micros()).unwrap_or(u64::MAX);
            children.push(SpanRec {
                span_id: pspan,
                parent_span: root,
                name: "fleet.partial",
                service: "fleet",
                start_unix_us: imc_obs::unix_us().saturating_sub(pdur_us),
                dur_us: pdur_us,
                status: if outcome.is_ok() {
                    SpanStatus::Ok
                } else {
                    SpanStatus::Failed
                },
                energy_pj: 0,
                detail: format!("shard={} layer={li} chunks={lo}..{hi}", slot.index),
            });
            let sums = match outcome {
                Ok(s) => s,
                Err(e) => {
                    return Response::Failed(FailedReply {
                        id,
                        reason: e.to_string(),
                    })
                }
            };
            if sums.len() != layer.out_features {
                return Response::Failed(FailedReply {
                    id,
                    reason: format!(
                        "shard {} layer {li}: {} partial sums for {} outputs",
                        slot.index,
                        sums.len(),
                        layer.out_features
                    ),
                });
            }
            for (acc, v) in total.iter_mut().zip(sums) {
                *acc += v;
            }
        }
        #[allow(clippy::cast_precision_loss)] // exactness proven by shift_add_is_exact
        let out: Vec<f32> = total
            .iter()
            .enumerate()
            .map(|(o, &t)| (t as f32) * layer.w_scale * qa.scale + layer.bias[o])
            .collect();
        cur = out;
    }
    let class = argmax_total(&cur);
    let service_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    charge_energy(plan);
    Response::Output(InferReply {
        id,
        logits: cur,
        class,
        bank: 0,
        batch: 1,
        queue_us: 0,
        service_us,
        trace_id: child.trace_id,
    })
}

/// One shard's partial sums for one layer, with failover across the
/// shard's replicas.
#[allow(clippy::too_many_arguments)]
fn shard_partial(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    id: u64,
    shard: usize,
    layer: usize,
    lo: usize,
    hi: usize,
    codes: &[f32],
    trace: TraceContext,
) -> Result<Vec<i64>, FleetError> {
    let mut tried = Vec::new();
    let mut last = String::new();
    for attempt in 1..=state.cfg.retry.max_attempts {
        let Some((idx, addr)) = pick(state, shard, &tried) else {
            return Err(if tried.is_empty() {
                FleetError::NoReplica { shard }
            } else {
                FleetError::Exhausted {
                    shard,
                    attempts: attempt - 1,
                    last,
                }
            });
        };
        match exchange(state, upstreams, idx, &addr, |c| {
            c.partial_traced(id, layer, lo, hi, codes.to_vec(), Some(trace))
        }) {
            Ok(reply) => {
                if reply.layer != layer {
                    return Err(FleetError::Exhausted {
                        shard,
                        attempts: attempt,
                        last: format!("replica {addr} answered layer {}", reply.layer),
                    });
                }
                return Ok(reply.sums);
            }
            Err(e) => {
                last = e;
                tried.push(idx);
                failover(state, shard, &addr, attempt, id);
            }
        }
    }
    Err(FleetError::Exhausted {
        shard,
        attempts: state.cfg.retry.max_attempts,
        last,
    })
}

/// Counts one answered inference at the plan's whole-model energy.
fn charge_energy(plan: &FleetPlan) {
    counter!(
        "cost.fleet_energy_pj_total",
        "Cumulative analytical inference energy routed by the fleet (pJ)"
    )
    .add(to_pj(plan.energy_per_inference_j));
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // pJ totals are far below 2^63
fn to_pj(joules: f64) -> u64 {
    (joules * 1.0e12).round().max(0.0) as u64
}

/// Picks a replica for `shard` and counts the routing decision.
fn pick(state: &RouterState, shard: usize, tried: &[usize]) -> Option<(usize, String)> {
    let mut board = state
        .board
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let idx = board.pick(shard, tried)?;
    let addr = board.replicas()[idx].addr.clone();
    counter_vec!(
        "fleet.shard_requests",
        ["shard", "replica"],
        "Requests routed, by shard and replica",
        &[&shard.to_string(), &addr]
    )
    .inc();
    Some((idx, addr))
}

/// Runs one exchange against replica `idx`, reusing (or opening) this
/// connection thread's upstream client. I/O failure drops the cached
/// connection and marks the replica suspect.
fn exchange<T>(
    state: &RouterState,
    upstreams: &mut HashMap<usize, Client>,
    idx: usize,
    addr: &str,
    op: impl FnOnce(&mut Client) -> io::Result<T>,
) -> Result<T, String> {
    let client = match upstreams.entry(idx) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => {
            match Client::connect_with(addr, state.cfg.client) {
                Ok(c) => v.insert(c),
                Err(e) => {
                    mark_suspect(state, idx, addr);
                    return Err(format!("connect {addr}: {e}"));
                }
            }
        }
    };
    match op(client) {
        Ok(t) => {
            state
                .board
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .mark_ok(idx);
            Ok(t)
        }
        Err(e) => {
            upstreams.remove(&idx);
            mark_suspect(state, idx, addr);
            Err(format!("{addr}: {e}"))
        }
    }
}

fn mark_suspect(state: &RouterState, idx: usize, addr: &str) {
    state
        .board
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .mark_suspect(idx);
    gauge_vec!(
        "fleet.replica_healthy",
        ["replica"],
        "1 = healthy, 0 = suspect/unreachable, -1 = quarantined",
        &[addr]
    )
    .set(0.0);
}

/// Counts a failover and sleeps the backoff before the next attempt.
fn failover(state: &RouterState, shard: usize, addr: &str, attempt: u32, salt: u64) {
    counter_vec!(
        "fleet.failovers",
        ["shard", "replica"],
        "Failovers after replica I/O errors, by shard and failing replica",
        &[&shard.to_string(), addr]
    )
    .inc();
    if attempt < state.cfg.retry.max_attempts {
        thread::sleep(state.cfg.retry.backoff_delay(attempt, salt));
    }
}
