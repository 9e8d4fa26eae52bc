//! `loadgen` — open-loop load generator for `imc-serve`.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--design curfe|chgfe] [--seed N]
//!         [--image PATH] [--qps N] [--duration-s N] [--conns N]
//!         [--out PATH] [--smoke] [--stop-server] [--obs-addr HOST:PORT]
//! ```
//!
//! Replays MNIST-shaped traffic at a target QPS. Without `--addr` it
//! spawns an in-process server on an ephemeral port (same binary, no
//! setup). Pacing is **open-loop**: requests are sent on a fixed
//! schedule regardless of response latency, so an overloaded server
//! exhibits real queueing and shed behaviour instead of the client
//! backing off. Connections speak `BIN1`, the serve protocol's wire
//! format.
//!
//! Every sent request is accounted for in the report: answered
//! (`completed`/`shed`/`errors`/`failed`/`incorrect`), still unanswered
//! when the post-send drain window closed (`in_flight_at_stop`), or
//! orphaned by a dead connection (`dropped`). `qps_achieved` divides
//! completed responses by the completed-only wall time (first send to
//! last answer), so drain-window idle time doesn't dilute it.
//!
//! Every response is verified **bit-for-bit**: the client rebuilds the
//! identical synthetic model from `(design, seed)` — or, with `--image`,
//! reconstructs the compiled chip image's effective network — and
//! precomputes the expected logits for its input pool, so any divergence
//! — batching, scheduling, serialization, or a server not actually
//! serving the image — is an `incorrect` count and a non-zero exit.
//! Results land in `--out` (default `loadgen.json`: p50/p95/p99
//! latency, achieved QPS, shed rate).
//!
//! `--smoke` is the CI mode: short run, low rate, non-zero exit unless
//! at least one response completed and all were correct.
//!
//! `--obs-addr` serves the process-wide `imc-obs` registry over HTTP for
//! the duration of the run (Prometheus text at `/metrics`, JSON at
//! `/metrics.json`). So that a scrape during a short smoke run sees
//! every instrumented layer — not just the serve path — the flag also
//! runs a small warm-up first: one tiny `imc-compile` pipeline (compile
//! pass spans), one DC operating-point solve (Newton counters), and a
//! small Monte-Carlo batch (trial counters). After the run the shed /
//! failure counters from the registry are printed alongside the report.
//!
//! Every request carries a fresh trace context, so server hops tag
//! their spans with the client's `trace_id` and the flight recorder
//! keeps the notable ones. `--trace-slowest N` prints the N slowest
//! stitched traces after the run as per-hop waterfalls — local recorder
//! records (in-process servers and fleets share it) merged with a
//! `GET /traces` scrape of every `--trace-addr` obs endpoint.
//!
//! `--chaos` turns the run into a resilience exercise: the in-process
//! server gets a short frame deadline and a deliberate fail-point
//! (`fail_input_sentinel`), a fault-injecting proxy
//! ([`imc_bench::chaos`]) sits between the load connections and the
//! server, and a probe client forces a worker panic through the
//! sentinel and retries it with [`imc_serve::RetryPolicy`]. Exit
//! criteria shift from "no connection ever failed" (faults *should*
//! fail some connections) to "the server survived": at least one
//! response completed, every completed response stayed bit-exact, the
//! forced panic came back as a typed `Failed`, and a direct ping after
//! the storm still answers. A request the proxy bit-flipped can still
//! be a valid frame; its answer must then bit-match the oracle run on
//! the flipped input, which loadgen rebuilds from the proxy's flip log
//! and the stream offset of every frame it sent. Requires the
//! in-process server (no `--addr`), so the sentinel and fault plan are
//! actually in place.
//!
//! `--swap-image PATH` exercises the live lifecycle: a control client
//! hot-swaps the server to the chip image at PATH mid-run
//! (`--swap-after-ms`, default half the run) while the load connections
//! keep hammering. Verification then accepts a response if it is
//! bit-exact against *either* the pre-swap oracle or the post-swap one
//! — anything else (a blend, a torn read) is still `incorrect` and a
//! non-zero exit. The report carries the swap's version, flip pause,
//! and how many responses matched the swapped image.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imc_bench::chaos::{ChaosProxy, Fault, Flip};
use imc_fleet::{serve_fleet, FleetPlan, RouterConfig};
use imc_serve::model::{parse_design, ServeModel, DEFAULT_SEED};
use imc_serve::protocol::{InferRequest, Request, Response};
use imc_serve::wire;
use imc_serve::{serve, Client, ClientConfig, RetryPolicy, ServeConfig, ServerHandle};
use neural::imc_exec::ImcDesign;
use serde::Serialize;

/// Distinct inputs cycled through by the generator (shared pool keeps
/// the expected-logits precompute cheap while still exercising varied
/// activations).
const INPUT_POOL: usize = 64;

struct Args {
    /// External target addresses (repeat `--addr`). Empty = spawn an
    /// in-process server (or fleet). Load connections round-robin over
    /// the addresses; `--stop-server` shuts down every one of them.
    addrs: Vec<String>,
    obs_addr: Option<String>,
    design: ImcDesign,
    image: Option<String>,
    seed: u64,
    qps: u64,
    duration_s: f64,
    conns: usize,
    out: String,
    smoke: bool,
    stop_server: bool,
    chaos: bool,
    chaos_seed: u64,
    /// In-process fleet: number of replica servers behind an `imc-fleet`
    /// router (0 = no fleet).
    fleet: usize,
    /// Shard count for `--fleet` (1 = whole-model replication).
    shards: usize,
    /// With `--fleet`: hard-stop one replica this many ms into the run
    /// (0 = never), proving failover keeps answers bit-exact mid-load.
    kill_replica_ms: u64,
    /// After the run, print the N slowest stitched traces as per-hop
    /// waterfalls (0 = off). Sources: this process's flight recorder
    /// (which in-process servers and fleets share) plus every
    /// `--trace-addr` obs endpoint.
    trace_slowest: usize,
    /// Extra obs endpoints to scrape `GET /traces` from for
    /// `--trace-slowest` — the `--obs-addr` of each external server.
    trace_addrs: Vec<String>,
    /// Hot-swap the server to this chip image mid-run (server-side
    /// path; `None` = no swap).
    swap_image: Option<String>,
    /// Delay before the swap request (0 = half the run duration).
    swap_after_ms: u64,
}

/// The chaos fail-point: no generated input starts with this value (the
/// pool is clamped to [0, 1]), it passes admission validation (finite,
/// ≥ 0), and the server panics the batch that carries it —
/// exercising panic isolation, typed `Failed` replies, and client retry.
const CHAOS_SENTINEL: f32 = 2.0;

/// What the sender remembers about each in-flight request: send time
/// for latency, the trace identity so the answered request's
/// client-side root span lands in the flight recorder under the same
/// `trace_id` the server hops used, and where its frame starts in the
/// connection's byte stream.
#[derive(Clone, Copy)]
struct SentReq {
    at: Instant,
    ctx: imc_obs::TraceContext,
    root_span: u64,
    /// Stream offset of the frame's first byte, counting the `BIN1`
    /// hello: the coordinate the chaos proxy logs its flips in.
    offset: usize,
}

/// The request frame the sender writes for `id`: the pool input it maps
/// to, and the trace context `sent` carried on the wire.
fn infer_request(id: u64, sent: &SentReq, inputs: &[Vec<f32>]) -> Request {
    Request::Infer(InferRequest {
        id,
        input: inputs[(id as usize) % INPUT_POOL].clone(),
        trace: Some(sent.ctx.child(sent.root_span)),
    })
}

/// The infer request the server reads after the chaos proxy applied
/// `flip` to one of this connection's frames, or `None` if the flip
/// landed outside every in-flight frame or left bytes that do not decode
/// as an infer request (those never get an `Output` answer).
///
/// Frames sit back to back in the stream, so the frame that holds the
/// flipped byte is the in-flight one that starts last at or before it.
/// That frame is re-encoded, flipped, and decoded the way the server
/// does.
fn flipped_request(
    flip: &Flip,
    in_flight: &HashMap<u64, SentReq>,
    inputs: &[Vec<f32>],
) -> Option<InferRequest> {
    let (&id, sent) = in_flight
        .iter()
        .filter(|(_, s)| s.offset <= flip.offset)
        .max_by_key(|(_, s)| s.offset)?;
    let mut frame = Vec::new();
    wire::encode_request(&infer_request(id, sent, inputs), &mut frame);
    let frame = flip.apply(sent.offset, &frame)?;
    let mut body = Vec::new();
    if !wire::read_frame_into(&mut frame.as_slice(), &mut body).ok()? {
        return None;
    }
    match wire::decode_request(&body).ok()? {
        Request::Infer(r) => Some(r),
        _ => None,
    }
}

/// `--chaos` verification state for one connection: the proxy whose flip
/// log names the frames it corrupted, the model to re-run on a flipped
/// input, and the answers owed to flipped requests, keyed by the id the
/// server decoded.
struct FlipCheck<'a> {
    proxy: &'a ChaosProxy,
    model: &'a ServeModel,
    /// This connection's address as the proxy saw it.
    client: std::net::SocketAddr,
    /// Flips on this connection already turned into `owed` entries.
    seen: usize,
    owed: HashMap<u64, Vec<f32>>,
}

impl FlipCheck<'_> {
    /// The answer owed to the request the server answered as `id` if the
    /// proxy flipped it, after turning the flips logged for this
    /// connection since the last call into owed answers. Call it before
    /// removing `id` from `in_flight`: the proxy logs a flip before
    /// forwarding the byte, so by the time any answer to the flipped
    /// frame arrives the flip is logged and the frame is still in flight.
    fn owed(
        &mut self,
        id: u64,
        in_flight: &HashMap<u64, SentReq>,
        inputs: &[Vec<f32>],
    ) -> Option<Vec<f32>> {
        let flips: Vec<Flip> = self
            .proxy
            .flips()
            .into_iter()
            .filter(|f| f.client == self.client)
            .collect();
        for flip in &flips[self.seen..] {
            if let Some(r) = flipped_request(flip, in_flight, inputs) {
                eprintln!(
                    "loadgen: the proxy flipped stream byte {} of {}; request {} must match \
                     the oracle of the flipped input",
                    flip.offset, self.client, r.id
                );
                self.owed.insert(r.id, self.model.infer_one(&r.input));
            }
        }
        self.seen = flips.len();
        self.owed.remove(&id)
    }
}

/// Records the client's view of one answered request as a one-span
/// trace record rooted at the span id that rode the wire — the hop
/// `imc-trace` nests the server-side spans under.
fn offer_client_trace(sent: &SentReq, status: imc_obs::SpanStatus, conn_idx: usize) {
    let dur_us = sent.at.elapsed().as_micros() as u64;
    imc_obs::recorder().offer(imc_obs::TraceRec {
        trace_id: sent.ctx.trace_id,
        sampled: sent.ctx.sampled,
        spans: vec![imc_obs::SpanRec {
            span_id: sent.root_span,
            parent_span: 0,
            name: "loadgen.request",
            service: "loadgen",
            start_unix_us: imc_obs::unix_us().saturating_sub(dur_us),
            dur_us,
            status,
            energy_pj: 0,
            detail: format!("conn={conn_idx}"),
        }],
    });
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: loadgen [--addr HOST:PORT ...] [--design curfe|chgfe] [--seed N]\n\
                 \x20              [--image PATH] [--qps N] [--duration-s N] [--conns N]\n\
                 \x20              [--out PATH] [--smoke] [--stop-server] [--obs-addr HOST:PORT]\n\
                 \x20              [--chaos] [--chaos-seed N]\n\
                 \x20              [--fleet N] [--shards N] [--kill-replica-ms N]\n\
                 \x20              [--trace-slowest N] [--trace-addr HOST:PORT ...]\n\
                 \x20              [--swap-image PATH] [--swap-after-ms N]";
    let mut args = Args {
        addrs: Vec::new(),
        obs_addr: None,
        design: ImcDesign::ChgFe,
        image: None,
        seed: DEFAULT_SEED,
        qps: 2000,
        duration_s: 5.0,
        conns: 4,
        out: "loadgen.json".to_owned(),
        smoke: false,
        stop_server: false,
        chaos: false,
        chaos_seed: 0xC4A0,
        fleet: 0,
        shards: 1,
        kill_replica_ms: 0,
        trace_slowest: 0,
        trace_addrs: Vec::new(),
        swap_image: None,
        swap_after_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{usage}"))
        };
        match flag.as_str() {
            "--addr" => args.addrs.push(value("--addr")?),
            "--obs-addr" => args.obs_addr = Some(value("--obs-addr")?),
            "--design" => args.design = parse_design(&value("--design")?)?,
            "--image" => args.image = Some(value("--image")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--qps" => args.qps = value("--qps")?.parse().map_err(|e| format!("--qps: {e}"))?,
            "--duration-s" => {
                args.duration_s = value("--duration-s")?
                    .parse()
                    .map_err(|e| format!("--duration-s: {e}"))?;
            }
            "--conns" => {
                args.conns = value("--conns")?
                    .parse()
                    .map_err(|e| format!("--conns: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--smoke" => {
                args.smoke = true;
                args.qps = 200;
                args.duration_s = 2.0;
            }
            "--stop-server" => args.stop_server = true,
            "--chaos" => args.chaos = true,
            "--chaos-seed" => {
                args.chaos_seed = value("--chaos-seed")?
                    .parse()
                    .map_err(|e| format!("--chaos-seed: {e}"))?;
            }
            "--fleet" => {
                args.fleet = value("--fleet")?
                    .parse()
                    .map_err(|e| format!("--fleet: {e}"))?;
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--kill-replica-ms" => {
                args.kill_replica_ms = value("--kill-replica-ms")?
                    .parse()
                    .map_err(|e| format!("--kill-replica-ms: {e}"))?;
            }
            "--trace-slowest" => {
                args.trace_slowest = value("--trace-slowest")?
                    .parse()
                    .map_err(|e| format!("--trace-slowest: {e}"))?;
            }
            "--trace-addr" => args.trace_addrs.push(value("--trace-addr")?),
            "--swap-image" => args.swap_image = Some(value("--swap-image")?),
            "--swap-after-ms" => {
                args.swap_after_ms = value("--swap-after-ms")?
                    .parse()
                    .map_err(|e| format!("--swap-after-ms: {e}"))?;
            }
            "--help" | "-h" => return Err(usage.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{usage}")),
        }
    }
    if args.qps == 0 || args.conns == 0 || args.duration_s <= 0.0 {
        return Err("--qps, --conns, and --duration-s must be positive".to_owned());
    }
    if args.chaos && !args.addrs.is_empty() {
        return Err(
            "--chaos requires the in-process server (the fault proxy and the panic \
             fail-point wrap it); drop --addr"
                .to_owned(),
        );
    }
    if args.fleet > 0 {
        if !args.addrs.is_empty() || args.image.is_some() || args.chaos {
            return Err("--fleet spawns its own replicas; drop --addr/--image/--chaos".to_owned());
        }
        if args.shards == 0 || !args.fleet.is_multiple_of(args.shards) {
            return Err("--fleet must be a positive multiple of --shards".to_owned());
        }
        if args.kill_replica_ms > 0 && args.fleet / args.shards < 2 {
            return Err(
                "--kill-replica-ms needs at least 2 replicas per shard to fail over to".to_owned(),
            );
        }
    } else if args.shards != 1 || args.kill_replica_ms > 0 {
        return Err("--shards/--kill-replica-ms require --fleet".to_owned());
    }
    if !args.trace_addrs.is_empty() && args.trace_slowest == 0 {
        return Err("--trace-addr only matters with --trace-slowest".to_owned());
    }
    if args.swap_image.is_some() {
        if args.fleet > 0 || args.chaos {
            return Err(
                "--swap-image drives a single server's control path; drop --fleet/--chaos"
                    .to_owned(),
            );
        }
    } else if args.swap_after_ms > 0 {
        return Err("--swap-after-ms requires --swap-image".to_owned());
    }
    Ok(args)
}

/// The report schema written to `--out`.
#[derive(Serialize)]
struct Report {
    design: String,
    qps_target: u64,
    /// Completed responses over the completed-only wall time (first send
    /// to last response), so idle drain time doesn't dilute throughput.
    qps_achieved: f64,
    duration_s: f64,
    /// First send to last received inference answer, the denominator of
    /// `qps_achieved`.
    completed_wall_s: f64,
    conns: usize,
    sent: u64,
    completed: u64,
    shed: u64,
    errors: u64,
    incorrect: u64,
    /// Requests answered with a typed `Failed` (worker panic recovered).
    failed: u64,
    /// Connections refused with a typed `Busy` (connection cap).
    busy: u64,
    /// Sent requests still unanswered when the drain window closed.
    in_flight_at_stop: u64,
    /// Sent requests orphaned by a dead connection (never answerable).
    dropped: u64,
    shed_rate: f64,
    /// In-process fleet replicas spawned for this run (0 = no fleet).
    fleet_replicas: usize,
    /// Shards the fleet model was split into (0 = no fleet).
    fleet_shards: usize,
    /// Image version after a `--swap-image` run (0 = no swap).
    swap_version: u64,
    /// Microseconds the swap held the model write lock (the only window
    /// where new batches wait).
    swap_pause_us: u64,
    /// Completed responses that matched the *swapped* oracle (ties with
    /// the pre-swap oracle count as pre-swap).
    swap_matched: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
}

/// Per-connection outcome counters plus the raw latency samples.
#[derive(Default)]
struct ConnResult {
    sent: u64,
    completed: u64,
    shed: u64,
    errors: u64,
    incorrect: u64,
    failed: u64,
    busy: u64,
    /// Completed responses that bit-matched the post-swap oracle
    /// (subset of `completed`; only populated under `--swap-image`).
    swap_matched: u64,
    /// Sent requests still awaiting an answer when the post-send drain
    /// window expired — the server may yet have answered them after we
    /// stopped listening.
    in_flight_at_stop: u64,
    /// Sent requests that will never be answered: the connection closed
    /// (or errored) with these outstanding.
    dropped: u64,
    /// When the last inference answer arrived, for completed-only
    /// throughput (excludes idle drain time from `qps_achieved`).
    last_response: Option<Instant>,
    latencies_us: Vec<u64>,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Touches every instrumented layer once so an `--obs-addr` scrape taken
/// during a short run sees all the metric families, not just the serve
/// path: a tiny compile (pass spans + programming counters), one DC
/// operating point (Newton / LU counters), and a small MC batch (trial
/// counters). Sized to finish well under a second.
fn warm_metric_families() {
    let arch = imc_compile::image::MlpArch {
        features: 32,
        hidden: 8,
        classes: 4,
    };
    let mut opts = imc_compile::pipeline::CompileOptions::new(arch, ImcDesign::ChgFe);
    opts.program.stride = 8;
    opts.probe_count = 4;
    let mut ledger = imc_compile::wear::WearLedger::fresh(opts.geometry.banks);
    imc_compile::pipeline::compile(&opts, &mut ledger).expect("warm-up compile succeeds");

    let cfg = imc_core::config::CurFeConfig::paper();
    let mut s = fefet_device::variation::VariationSampler::new(
        fefet_device::variation::VariationParams::none(),
        0,
    );
    let circ = imc_core::circuit::curfe_row_circuit(&cfg, -1, &mut s);
    analog_sim::dc::op(
        &circ.netlist,
        false,
        &analog_sim::dc::NewtonOptions::default(),
    )
    .expect("warm-up op converges");

    analog_sim::montecarlo::run_trials(32, 1, |seed| Ok(seed as f64 * 1e-9));
}

/// Deterministic input pool: `INPUT_POOL` flat vectors in [0, 1), varied
/// enough to touch different activation patterns.
fn build_inputs(features: usize) -> Vec<Vec<f32>> {
    (0..INPUT_POOL)
        .map(|k| {
            (0..features)
                .map(|i| {
                    let phase = (k * 31 + 7) as f32;
                    ((i as f32 * 0.37 + phase).sin() * 0.5 + 0.5).clamp(0.0, 1.0)
                })
                .collect()
        })
        .collect()
}

/// Parses the next complete response frame out of `acc[*parse_from..]`,
/// advancing `parse_from` past it (consumed bytes are compacted away
/// once they pile up). `Ok(None)` means the buffer holds at most a
/// partial frame — read more bytes and try again.
fn next_buffered_response(
    acc: &mut Vec<u8>,
    parse_from: &mut usize,
) -> std::io::Result<Option<Response>> {
    let avail = &acc[*parse_from..];
    if avail.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
    if len > imc_serve::protocol::MAX_FRAME_BYTES {
        return Err(wire::WireError::Oversized(len).into());
    }
    let len = len as usize;
    if avail.len() < 4 + len {
        return Ok(None);
    }
    let resp = wire::decode_response(&avail[4..4 + len])?;
    *parse_from += 4 + len;
    if *parse_from > 1 << 16 {
        acc.drain(..*parse_from);
        *parse_from = 0;
    }
    Ok(Some(resp))
}

/// One connection's open-loop run: a sender thread paces requests on a
/// fixed schedule while this thread receives and verifies responses.
/// `chaos` is the `--chaos` proxy and the model to re-run a flipped
/// request on.
#[allow(clippy::too_many_arguments)]
fn run_connection(
    addr: &str,
    conn_idx: usize,
    total_conns: usize,
    qps: u64,
    duration: Duration,
    inputs: &Arc<Vec<Vec<f32>>>,
    expected: &Arc<Vec<Vec<f32>>>,
    swap_expected: &Arc<Option<Vec<Vec<f32>>>>,
    global_sent: &AtomicU64,
    chaos: Option<(&ChaosProxy, &ServeModel)>,
) -> Result<ConnResult, String> {
    let mut writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    writer.set_nodelay(true).ok();
    wire::client_handshake(&mut writer).map_err(|e| format!("handshake {addr}: {e}"))?;
    // Stream bytes written before the first frame: the BIN1 hello.
    let hello_len = wire::MAGIC.len() + 1;
    let client = writer
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let mut flip_check = chaos.map(|(proxy, model)| FlipCheck {
        proxy,
        model,
        client,
        seen: 0,
        owed: HashMap::new(),
    });
    let mut reader = writer
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    // Short read timeout = the receive loop's polling tick: it must
    // re-check "has the sender finished and is everything answered?"
    // regularly, or a reader that goes idle right as the sender ends
    // blocks a full drain window for nothing. The actual post-send
    // drain budget is DRAIN_WINDOW below.
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    const DRAIN_WINDOW: Duration = Duration::from_secs(10);

    // id → send time + trace identity, shared with the sender. ids are
    // globally unique: conn_idx + k * total_conns.
    let in_flight: Arc<Mutex<HashMap<u64, SentReq>>> = Arc::new(Mutex::new(HashMap::new()));

    let mut sender = Some({
        let mut writer = writer;
        let in_flight = Arc::clone(&in_flight);
        let inputs = Arc::clone(inputs);
        let sent_counter = Arc::new(AtomicU64::new(0));
        let sent_out = Arc::clone(&sent_counter);
        let per_conn_qps = (qps as f64 / total_conns as f64).max(1.0);
        let interval = Duration::from_secs_f64(1.0 / per_conn_qps);
        let handle = std::thread::spawn(move || -> u64 {
            let start = Instant::now();
            let mut k = 0u64;
            let mut scratch: Vec<u8> = Vec::new();
            let mut offset = hello_len;
            loop {
                let due = start + interval.mul_f64(k as f64);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                if start.elapsed() >= duration {
                    break;
                }
                let id = conn_idx as u64 + k * total_conns as u64;
                // Every request starts a trace; the head lottery
                // inside `new_root` plus the recorder's tail rules
                // (slow / failed / shed / energy outlier) decide what
                // is actually kept.
                let sent = SentReq {
                    at: Instant::now(),
                    ctx: imc_obs::TraceContext::new_root(),
                    root_span: imc_obs::next_span_id(),
                    offset,
                };
                wire::encode_request(&infer_request(id, &sent, &inputs), &mut scratch);
                in_flight.lock().unwrap().insert(id, sent);
                if writer.write_all(&scratch).is_err() {
                    in_flight.lock().unwrap().remove(&id);
                    break;
                }
                offset += scratch.len();
                sent_out.fetch_add(1, Ordering::Relaxed);
                k += 1;
            }
            sent_counter.load(Ordering::Relaxed)
        });
        handle
    });

    let mut res = ConnResult::default();
    // Receive until every sent request is answered (or the drain timeout
    // fires). The sender's final count isn't known until it joins, so
    // first drain optimistically, then join and finish.
    let mut answered = 0u64;
    let mut sender_done: Option<u64> = None;
    let mut drain_deadline: Option<Instant> = None;
    // Byte accumulator between the socket and the frame parser: the
    // polling read timeout may fire mid-frame, and bytes a partial
    // `read_response` already consumed would be lost — so raw reads land
    // here and only complete frames are parsed out.
    let mut acc: Vec<u8> = Vec::new();
    let mut parse_from = 0usize;
    let mut chunk = [0u8; 16384];
    let mut drain_expired = false;
    loop {
        if let Some(total) = sender_done {
            if answered >= total {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_WINDOW);
            if Instant::now() >= deadline {
                drain_expired = true;
                break; // drain window expired with requests unanswered
            }
        } else if sender
            .as_ref()
            .is_some_and(std::thread::JoinHandle::is_finished)
        {
            let total = sender
                .take()
                .expect("sender present")
                .join()
                .map_err(|_| "sender panicked".to_owned())?;
            res.sent = total;
            global_sent.fetch_add(total, Ordering::Relaxed);
            sender_done = Some(total);
            continue;
        }
        // Pull the next complete frame out of the accumulator, reading
        // more bytes only when it can't supply one.
        let next = match next_buffered_response(&mut acc, &mut parse_from) {
            Err(e) => Err(e),
            Ok(Some(r)) => Ok(Some(r)),
            Ok(None) => match reader.read(&mut chunk) {
                Ok(0) => Ok(None), // server closed
                Ok(n) => {
                    acc.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Err(e) => Err(e),
            },
        };
        match next {
            Ok(Some(Response::Output(r))) => {
                answered += 1;
                res.last_response = Some(Instant::now());
                let owed = flip_check
                    .as_mut()
                    .and_then(|f| f.owed(r.id, &in_flight.lock().unwrap(), inputs));
                let sent_at = in_flight.lock().unwrap().remove(&r.id);
                if let Some(sent) = sent_at {
                    res.latencies_us.push(sent.at.elapsed().as_micros() as u64);
                    offer_client_trace(&sent, imc_obs::SpanStatus::Ok, conn_idx);
                }
                let bits_equal = |exp: &[f32]| {
                    r.logits.len() == exp.len()
                        && r.logits
                            .iter()
                            .zip(exp.iter())
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                };
                let pool_idx = (r.id as usize) % INPUT_POOL;
                // A request the proxy bit-flipped is owed the answer to
                // the flipped input (--chaos runs never swap images).
                if bits_equal(owed.as_deref().unwrap_or(&expected[pool_idx])) {
                    res.completed += 1;
                } else if (**swap_expected)
                    .as_ref()
                    .is_some_and(|v| bits_equal(&v[pool_idx]))
                {
                    // Mid-swap runs are two-oracle: a response priced by
                    // the swapped image is just as correct — but never a
                    // blend of the two.
                    res.completed += 1;
                    res.swap_matched += 1;
                } else {
                    res.incorrect += 1;
                }
            }
            Ok(Some(Response::Shed(r))) => {
                answered += 1;
                if let Some(sent) = in_flight.lock().unwrap().remove(&r.id) {
                    offer_client_trace(&sent, imc_obs::SpanStatus::Shed, conn_idx);
                }
                res.shed += 1;
            }
            Ok(Some(Response::Error(_))) => {
                answered += 1;
                res.errors += 1;
            }
            Ok(Some(Response::Failed(r))) => {
                // A recovered worker panic failed this request with a
                // typed response — expected under --chaos, never silent.
                answered += 1;
                if let Some(sent) = in_flight.lock().unwrap().remove(&r.id) {
                    offer_client_trace(&sent, imc_obs::SpanStatus::Failed, conn_idx);
                }
                res.failed += 1;
            }
            Ok(Some(Response::Busy(_))) => {
                // The connection cap refused us before any request ran;
                // nothing on this connection will be answered.
                res.busy += 1;
                break;
            }
            Ok(Some(_)) => {}  // Pong/ShuttingDown/...: not expected here
            Ok(None) => break, // server closed
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Polling tick: loop back to the sender/drain checks.
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    if let Some(h) = sender.take() {
        let total = h.join().map_err(|_| "sender panicked".to_owned())?;
        res.sent = total;
        global_sent.fetch_add(total, Ordering::Relaxed);
    }
    // Classify every sent-but-unanswered request: still waiting when the
    // drain window closed (the server may have been about to answer), or
    // orphaned by a connection that died (never answerable).
    let leftovers = in_flight.lock().unwrap().len() as u64;
    if drain_expired {
        res.in_flight_at_stop = leftovers;
    } else {
        res.dropped = leftovers;
    }
    Ok(res)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    imc_obs::set_service_name("loadgen");
    if let Some(every) = imc_obs::init_span_sampling_from_env() {
        eprintln!("loadgen: span sampling 1-in-{every} (FEFET_IMC_SPAN_SAMPLE)");
    }

    // Observability endpoint for scrapers, alive for the whole run. The
    // warm-up populates the non-serve metric families before the first
    // scrape can land.
    let _obs = match &args.obs_addr {
        Some(addr) => match imc_obs::serve_http(addr) {
            Ok(h) => {
                eprintln!("loadgen: obs endpoint on http://{}/metrics", h.addr());
                warm_metric_families();
                Some(h)
            }
            Err(e) => {
                eprintln!("loadgen: cannot bind obs endpoint {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // The verification oracle: the exact model the server runs (same
    // design, same seed ⇒ identical weights and noise streams; with
    // --image, the same compiled effective network).
    let build_model = || -> Result<ServeModel, String> {
        match &args.image {
            Some(path) => ServeModel::from_image(path, None),
            None => Ok(ServeModel::synthetic(args.design, args.seed)),
        }
    };
    match &args.image {
        Some(path) => eprintln!("loadgen: building oracle from image {path}..."),
        None => eprintln!(
            "loadgen: building {:?} oracle (seed {:#x})...",
            args.design, args.seed
        ),
    }
    let oracle = match build_model() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let inputs = Arc::new(build_inputs(oracle.input_features()));
    let expected: Arc<Vec<Vec<f32>>> =
        Arc::new(inputs.iter().map(|x| oracle.infer_one(x)).collect());

    // With --swap-image, a second oracle: the image the server will be
    // flipped to mid-run. Responses must bit-match one of the two.
    let swap_expected: Arc<Option<Vec<Vec<f32>>>> = Arc::new(match &args.swap_image {
        Some(path) => {
            eprintln!("loadgen: building post-swap oracle from image {path}...");
            let m = match ServeModel::from_image(path, None) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("loadgen: swap oracle: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if m.input_features() != oracle.input_features() || m.classes() != oracle.classes() {
                eprintln!("loadgen: swap image shape differs from the serving model");
                return ExitCode::FAILURE;
            }
            Some(inputs.iter().map(|x| m.infer_one(x)).collect())
        }
        None => None,
    });

    // Target(s): external servers (round-robin over every --addr), an
    // in-process fleet (replicas behind a router), or a single
    // in-process server on an ephemeral port (same oracle weights).
    let mut local = None;
    let mut replica_handles: Vec<ServerHandle> = Vec::new();
    let mut fleet_router = None;
    let targets: Vec<String> = if args.fleet > 0 {
        // In-process fleet: spawn the replicas (sharded when --shards >
        // 1, whole-model otherwise), then a router in front. Load
        // connections dial only the router.
        let per_shard = args.fleet / args.shards;
        for r in 0..args.fleet {
            let model = if args.shards > 1 {
                match ServeModel::synthetic_shard(
                    args.design,
                    args.seed,
                    r / per_shard,
                    args.shards,
                ) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("loadgen: shard replica {r}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                ServeModel::synthetic(args.design, args.seed)
            };
            let h = serve("127.0.0.1:0", Arc::new(model), &ServeConfig::default())
                .expect("bind fleet replica");
            replica_handles.push(h);
        }
        let replica_addrs: Vec<String> = replica_handles
            .iter()
            .map(|h| h.addr().to_string())
            .collect();
        let plan = match FleetPlan::synthetic(args.design, args.seed, args.shards) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("loadgen: fleet plan: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (router, admission) =
            serve_fleet("127.0.0.1:0", plan, &replica_addrs, RouterConfig::default())
                .expect("bind fleet router");
        if !admission.is_empty() {
            eprintln!("loadgen: fleet admission failed: {admission:?}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "loadgen: in-process fleet on {} ({} replica(s), {} shard(s))",
            router.addr(),
            args.fleet,
            args.shards
        );
        let t = vec![router.addr().to_string()];
        fleet_router = Some(router);
        t
    } else if !args.addrs.is_empty() {
        args.addrs.clone()
    } else {
        let server_model = match build_model() {
            Ok(m) => m,
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut cfg = ServeConfig::default();
        if args.chaos {
            // A deadline short enough that stalled half-frames are
            // reclaimed within the run, and the deliberate panic
            // fail-point the probe will trip.
            cfg.limits.frame_deadline = Duration::from_secs(2);
            cfg.fail_input_sentinel = Some(CHAOS_SENTINEL);
        }
        let handle =
            serve("127.0.0.1:0", Arc::new(server_model), &cfg).expect("bind in-process server");
        let a = handle.addr().to_string();
        eprintln!("loadgen: in-process server on {a}");
        local = Some(handle);
        vec![a]
    };

    // Under --chaos the load connections dial a fault-injecting proxy;
    // control traffic (probe, ping, shutdown) keeps the direct address.
    // Chaos is restricted to the single in-process server at parse time.
    let server_addr = targets[0].clone();
    let mut proxy = None;
    let targets: Vec<String> = if args.chaos {
        let upstream: std::net::SocketAddr = targets[0].parse().expect("server address parses");
        let seed = args.chaos_seed;
        let p = ChaosProxy::start(upstream, move |conn| Fault::seeded_mix(seed, conn))
            .expect("start chaos proxy");
        let a = p.addr().to_string();
        eprintln!("loadgen: chaos proxy on {a} (seed {seed:#x})");
        proxy = Some(p);
        vec![a]
    } else {
        targets
    };

    // Mid-load replica kill: hard-stop the first fleet replica after the
    // requested delay. The router must fail over — retries are fine,
    // wrong answers are not (replicas-per-shard >= 2 checked at parse).
    // Mid-load hot swap: a control client flips the server to the new
    // image while the load connections keep sending. The control path
    // dials the direct server address (never a chaos proxy — excluded
    // at parse time).
    let swap_thread = args.swap_image.clone().map(|path| {
        let addr = server_addr.clone();
        let delay = if args.swap_after_ms > 0 {
            Duration::from_millis(args.swap_after_ms)
        } else {
            Duration::from_secs_f64(args.duration_s / 2.0)
        };
        std::thread::spawn(move || -> Result<imc_serve::SwapDoneReply, String> {
            std::thread::sleep(delay);
            let mut c = Client::connect_with(&addr, ClientConfig::default())
                .map_err(|e| format!("swap connect: {e}"))?;
            let d = c.swap_image(&path).map_err(|e| format!("swap: {e}"))?;
            eprintln!(
                "loadgen: hot-swapped to {path} (version {}, digest {:#018x}, pause {}us)",
                d.version, d.digest, d.pause_us
            );
            Ok(d)
        })
    });

    let kill_thread = if args.kill_replica_ms > 0 {
        let victim = replica_handles.remove(0);
        let delay = Duration::from_millis(args.kill_replica_ms);
        Some(std::thread::spawn(move || {
            std::thread::sleep(delay);
            eprintln!("loadgen: stopping replica {} mid-load", victim.addr());
            victim.shutdown_flag().trigger();
            victim.join();
        }))
    } else {
        None
    };

    let duration = Duration::from_secs_f64(args.duration_s);
    eprintln!(
        "loadgen: {} qps for {:.1}s over {} connection(s) against {}",
        args.qps,
        args.duration_s,
        args.conns,
        targets.join(", "),
    );
    let t0 = Instant::now();
    let global_sent = Arc::new(AtomicU64::new(0));
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.conns)
            .map(|c| {
                // Multiple --addr targets round-robin over connections.
                let addr = targets[c % targets.len()].as_str();
                let inputs = &inputs;
                let expected = &expected;
                let swap_expected = &swap_expected;
                let global_sent = &global_sent;
                let chaos = proxy.as_ref().map(|p| (p, &oracle));
                s.spawn(move || {
                    run_connection(
                        addr,
                        c,
                        args.conns,
                        args.qps,
                        duration,
                        inputs,
                        expected,
                        swap_expected,
                        global_sent,
                        chaos,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    let mut sent = 0u64;
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut incorrect = 0u64;
    let mut failed = 0u64;
    let mut busy = 0u64;
    let mut swap_matched = 0u64;
    let mut in_flight_at_stop = 0u64;
    let mut dropped = 0u64;
    let mut last_done: Option<Instant> = None;
    let mut lat: Vec<u64> = Vec::new();
    let mut conn_failures = 0usize;
    for r in results {
        match r {
            Ok(c) => {
                sent += c.sent;
                completed += c.completed;
                shed += c.shed;
                errors += c.errors;
                incorrect += c.incorrect;
                failed += c.failed;
                busy += c.busy;
                swap_matched += c.swap_matched;
                in_flight_at_stop += c.in_flight_at_stop;
                dropped += c.dropped;
                last_done = last_done.max(c.last_response);
                lat.extend(c.latencies_us);
            }
            Err(e) => {
                eprintln!("loadgen: connection failed: {e}");
                conn_failures += 1;
            }
        }
    }
    lat.sort_unstable();
    // Throughput over the time responses were actually arriving: idle
    // drain-window seconds after the last answer are accounting noise,
    // not serving capacity.
    let completed_wall = last_done
        .map(|t| t.duration_since(t0).as_secs_f64())
        .unwrap_or(wall)
        .max(f64::EPSILON);

    // After the fault storm, prove the server is still healthy: force a
    // worker panic through the sentinel fail-point (expect a typed
    // `Failed` even through retries — the fail-point is deterministic),
    // then ping, then check the panic counter advanced.
    let chaos_ok = if args.chaos {
        match chaos_probe(&server_addr, oracle.input_features()) {
            Ok(()) => {
                eprintln!("loadgen: chaos probe OK (typed Failed + post-panic ping)");
                true
            }
            Err(e) => {
                eprintln!("loadgen: chaos probe FAILED: {e}");
                false
            }
        }
    } else {
        true
    };
    if let Some(p) = proxy.take() {
        p.stop();
    }

    if let Some(k) = kill_thread {
        let _ = k.join();
    }

    // The swap thread must have flipped the image cleanly: a rejected
    // or failed swap fails the run even if every response verified
    // (the lifecycle is the thing under test).
    let mut swap_ok = true;
    let mut swap_version = 0u64;
    let mut swap_pause_us = 0u64;
    if let Some(t) = swap_thread {
        match t.join().expect("swap thread panicked") {
            Ok(d) => {
                swap_version = d.version;
                swap_pause_us = d.pause_us;
            }
            Err(e) => {
                eprintln!("loadgen: swap FAILED: {e}");
                swap_ok = false;
            }
        }
    }

    // Slowest-trace waterfalls, while every external obs endpoint is
    // still up: the local flight recorder (in-process servers and
    // fleets share it, so their hops are already here) stitched with a
    // scrape of each --trace-addr.
    if args.trace_slowest > 0 {
        let mut docs = Vec::new();
        match imc_bench::trace_view::parse_doc(&imc_obs::traces_json(
            &imc_obs::recorder().snapshot(),
        )) {
            Ok(t) => docs.push(t),
            Err(e) => eprintln!("loadgen: local recorder export: {e}"),
        }
        for addr in &args.trace_addrs {
            let scraped = imc_bench::trace_view::fetch_traces(addr)
                .map_err(|e| e.to_string())
                .and_then(|doc| imc_bench::trace_view::parse_doc(&doc));
            match scraped {
                Ok(t) => {
                    eprintln!("loadgen: scraped {} trace record(s) from {addr}", t.len());
                    docs.push(t);
                }
                Err(e) => eprintln!("loadgen: trace scrape {addr}: {e}"),
            }
        }
        let mut traces = imc_bench::trace_view::stitch(docs);
        traces.sort_by_key(|t| std::cmp::Reverse(t.dur_us()));
        traces.truncate(args.trace_slowest);
        if traces.is_empty() {
            println!("\nloadgen: no traces kept by the flight recorder");
        } else {
            println!("\nloadgen: {} slowest trace(s):", traces.len());
            for t in &traces {
                print!("{}", imc_bench::trace_view::render_waterfall(t));
            }
        }
    }

    // --stop-server drains *every* target, not just the first: each
    // --addr gets its own Shutdown (under --chaos the direct server
    // address is used, never the fault proxy).
    if args.stop_server && conn_failures < args.conns {
        let stop_addrs: &[String] = if args.chaos {
            std::slice::from_ref(&server_addr)
        } else {
            &targets
        };
        for a in stop_addrs {
            match Client::connect(a.as_str()).and_then(|mut c| c.shutdown()) {
                Ok(()) => eprintln!("loadgen: {a} acknowledged shutdown"),
                Err(e) => eprintln!("loadgen: shutdown request to {a} failed: {e}"),
            }
        }
    }
    let local_server_ran = local.is_some() || fleet_router.is_some();
    if let Some(handle) = local {
        handle.shutdown_flag().trigger();
        handle.join();
    }
    if let Some(router) = fleet_router {
        router.shutdown();
    }
    for handle in replica_handles {
        handle.shutdown_flag().trigger();
        handle.join();
    }

    let report = Report {
        design: format!("{:?}", oracle.design()),
        qps_target: args.qps,
        qps_achieved: completed as f64 / completed_wall,
        duration_s: wall,
        completed_wall_s: completed_wall,
        conns: args.conns,
        sent,
        completed,
        shed,
        errors,
        incorrect,
        failed,
        busy,
        in_flight_at_stop,
        dropped,
        shed_rate: if sent > 0 {
            shed as f64 / sent as f64
        } else {
            0.0
        },
        fleet_replicas: args.fleet,
        fleet_shards: if args.fleet > 0 { args.shards } else { 0 },
        swap_version,
        swap_pause_us,
        swap_matched,
        p50_us: quantile(&lat, 0.50),
        p95_us: quantile(&lat, 0.95),
        p99_us: quantile(&lat, 0.99),
        max_us: lat.last().copied().unwrap_or(0),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&args.out, format!("{json}\n")).expect("write report");
    println!("{json}");
    println!("\nwrote {}", args.out);

    // Server-side view of the same run, from the obs registry. Only
    // meaningful when the server ran in this process; against an
    // external --addr these counters stay at zero (scrape the server's
    // own --obs-addr endpoint instead).
    if local_server_ran {
        let snap = imc_obs::registry().snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        println!(
            "obs: server admitted={} completed={} shed={} protocol_errors={} batches={}",
            c("imc_serve_admitted_total"),
            c("imc_serve_completed_total"),
            c("imc_serve_shed_total"),
            c("imc_serve_protocol_errors_total"),
            c("imc_serve_batches_total"),
        );
        println!(
            "obs: resilience worker_panics={} conn_deadline_drops={} busy_rejects={}",
            c("imc_serve_worker_panics_total"),
            c("imc_serve_conn_deadline_drops_total"),
            c("imc_serve_busy_rejects_total"),
        );
        if args.fleet > 0 {
            // Unlabeled serve counters are "latest registration wins",
            // so with N in-process replicas the lines above show only
            // the last replica's share; the labeled fleet.* families
            // carry the per-replica truth.
            println!(
                "obs: fleet infers={} (serve counters above are one replica's share)",
                c("fleet.infer_total"),
            );
        }
        let mc_failures = c("sim_mc_trial_failures_total");
        if c("sim_mc_trials_total") > 0 {
            println!(
                "obs: mc trials={} failures={}",
                c("sim_mc_trials_total"),
                mc_failures
            );
        }
    }

    imc_obs::print_summary_if_env();

    // Under chaos, failed connections and typed failures are the point
    // of the exercise; the pass criteria are survival-shaped instead:
    // traffic still completed, every completed answer stayed bit-exact,
    // and the probe confirmed recovery after a forced panic.
    let verified_ok = if args.chaos {
        incorrect == 0 && completed > 0 && chaos_ok
    } else {
        incorrect == 0 && errors == 0 && conn_failures == 0 && swap_ok
    };
    if args.smoke {
        if verified_ok && completed > 0 {
            if args.chaos {
                println!(
                    "smoke: OK under chaos ({completed} bit-exact responses; failed={failed} busy={busy} conn_failures={conn_failures})"
                );
            } else {
                println!("smoke: OK ({completed} responses, all bit-exact)");
            }
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "smoke: FAILED (completed={completed} incorrect={incorrect} errors={errors} conn_failures={conn_failures} chaos_ok={chaos_ok})"
            );
            ExitCode::FAILURE
        }
    } else if verified_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "loadgen: FAILED (incorrect={incorrect} errors={errors} conn_failures={conn_failures} chaos_ok={chaos_ok})"
        );
        ExitCode::FAILURE
    }
}

/// The post-storm health check behind `--chaos`: trip the sentinel
/// fail-point (a deterministic worker panic), expect it back as a typed
/// [`Response::Failed`] even through a retrying client, and confirm the
/// server still answers a plain ping and counted the panics.
fn chaos_probe(server_addr: &str, features: usize) -> Result<(), String> {
    let mut c = Client::connect_with(server_addr, ClientConfig::default())
        .map_err(|e| format!("probe connect: {e}"))?;
    let mut input = vec![0.0f32; features];
    input[0] = CHAOS_SENTINEL;
    let policy = RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(20),
        jitter_seed: 1,
    };
    match c.infer_retry(0xC4A0_5EED, &input, &policy) {
        Ok(Response::Failed(_)) => {}
        Ok(other) => return Err(format!("expected Failed, got {other:?}")),
        Err(e) => return Err(format!("probe infer: {e}")),
    }
    c.ping().map_err(|e| format!("post-panic ping: {e}"))?;
    let panics = imc_obs::registry()
        .snapshot()
        .counter("imc_serve_worker_panics_total")
        .unwrap_or(0);
    if panics < 2 {
        return Err(format!(
            "worker_panics should count both probe attempts, got {panics}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three in-flight requests with the frames the sender wrote for
    /// them, back to back from stream byte 5 (after a `BIN1` hello).
    fn sent_frames(inputs: &[Vec<f32>]) -> (HashMap<u64, SentReq>, Vec<Vec<u8>>) {
        let mut offset = 5;
        let mut in_flight = HashMap::new();
        let mut frames = Vec::new();
        for id in [3u64, 7, 11] {
            let sent = SentReq {
                at: Instant::now(),
                ctx: imc_obs::TraceContext::new_root(),
                root_span: imc_obs::next_span_id(),
                offset,
            };
            let mut frame = Vec::new();
            wire::encode_request(&infer_request(id, &sent, inputs), &mut frame);
            offset += frame.len();
            in_flight.insert(id, sent);
            frames.push(frame);
        }
        (in_flight, frames)
    }

    fn flip_at(offset: usize) -> Flip {
        Flip {
            client: "127.0.0.1:1".parse().unwrap(),
            offset,
            mask: 0x40,
        }
    }

    #[test]
    fn a_flip_maps_to_the_frame_that_holds_its_byte() {
        let inputs = build_inputs(8);
        let (in_flight, frames) = sent_frames(&inputs);
        let ids = [3u64, 7, 11];
        let first = in_flight[&3].offset;
        let end = in_flight[&11].offset + frames[2].len();
        for offset in (0..first).chain(end..end + 16) {
            assert!(
                flipped_request(&flip_at(offset), &in_flight, &inputs).is_none(),
                "byte {offset} lies in no frame"
            );
        }
        let mut decoded = 0;
        for offset in first..end {
            let Some(r) = flipped_request(&flip_at(offset), &in_flight, &inputs) else {
                continue;
            };
            decoded += 1;
            let k = (0..3)
                .rev()
                .find(|&k| in_flight[&ids[k]].offset <= offset)
                .unwrap();
            // The decoded request re-encodes as the frame that holds the
            // byte, with that byte flipped. The last byte, the trace
            // context's sampled flag, decodes any non-zero value as set
            // and re-encodes it as 1.
            let mut want = frames[k].clone();
            want[offset - in_flight[&ids[k]].offset] ^= 0x40;
            let mut got = Vec::new();
            wire::encode_request(&Request::Infer(r), &mut got);
            let flag = want.len() - 1;
            assert_eq!(got[..flag], want[..flag], "byte {offset}");
        }
        assert!(decoded > 0, "some flips leave a valid frame");
    }

    #[test]
    fn a_flipped_feature_exponent_reaches_the_oracle_input() {
        // The chaos smoke's case: the flip lands on the top byte of one
        // f32 feature, and the frame stays valid.
        let inputs = build_inputs(8);
        let (in_flight, _) = sent_frames(&inputs);
        let feature = 2;
        // length prefix, kind, id, feature count, then f32 LE features
        let offset = in_flight[&7].offset + 4 + 1 + 8 + 4 + 4 * feature + 3;
        let r = flipped_request(&flip_at(offset), &in_flight, &inputs)
            .expect("a flipped exponent byte still decodes");
        assert_eq!(r.id, 7);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut want = bits(&inputs[7]);
        want[feature] ^= 0x40 << 24;
        assert_eq!(bits(&r.input), want);
    }
}
