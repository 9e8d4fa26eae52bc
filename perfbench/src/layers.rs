//! Per-layer metrics of the traced run, each measured from outside the
//! program: spans around calls into public functions, fields those
//! functions return, and registry values.
//!
//! Metrics of a layer the workload's window passes through come from
//! the window. The rest come from isolated calls and short probes made
//! after the window, on the workload's own inputs, and are labelled as
//! such in the output.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use imc_obs::MetricValue;
use imc_serve::batcher::Pending;
use imc_serve::model::{DEFAULT_CLASSES, DEFAULT_HIDDEN, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::{
    InferReply, InferRequest, PartialRequest, PartialSumReply, Request, Response,
};
use imc_serve::scheduler::BankScheduler;
use imc_serve::{wire, Client, ClientConfig, Proto, ServeModel};
use neural::imc_exec::packed::pack_planes;
use neural::layers::Linear;
use neural::models::mlp;
use neural::quant::{quantize_activations, quantize_weights, QuantizedWeights};
use neural::tensor::Tensor;

use crate::compile_wl;
use crate::gen::{closed_conn, Tally, Window};
use crate::inputs::{RequestPool, DESIGN};
use crate::serving::{sleep_until, Fleet};
use crate::trace::SpanLog;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("neural.forward_us", "us"),
    ("neural.forward_each_row_us", "us"),
    ("neural.linear_partial_us", "us"),
    ("neural.quantize_us", "us"),
    ("neural.gmac_per_s", "GMAC/s"),
    ("neural.plane_bytes", "bytes"),
    ("neural.pack_us", "us"),
    ("neural.macs_per_inference", "count"),
    ("exec.fanout_us", "us"),
    ("exec.pool_utilization", "frac"),
    ("wire.infer_encode_ns", "ns"),
    ("wire.infer_decode_ns", "ns"),
    ("wire.output_encode_ns", "ns"),
    ("wire.output_decode_ns", "ns"),
    ("wire.partial_encode_ns", "ns"),
    ("wire.partialsum_decode_ns", "ns"),
    ("batcher.queue_wait_us", "us"),
    ("batcher.batch_size", "count"),
    ("batcher.shed", "count"),
    ("scheduler.service_us", "us"),
    ("scheduler.handoff_us", "us"),
    ("server.accept_wait_us", "us"),
    ("server.residual_us", "us"),
    ("router.partial_rtt_us", "us"),
    ("router.overhead_us", "us"),
    ("router.failovers", "count"),
    ("compile.placement_ms", "ms"),
    ("compile.remap_ms", "ms"),
    ("compile.programming_ms", "ms"),
    ("compile.wear_ms", "ms"),
    ("compile.predict_ms", "ms"),
    ("compile.cells_per_s", "1/s"),
    ("compile.pulses_per_cell", "count"),
    ("compile.unconverged_cells", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("host.steal_frac", "frac"),
    ("process.cpu_us_per_op", "us"),
    ("gen.late_us", "us"),
    ("gen.late_max_us", "us"),
    ("sim.energy_pj_per_inference", "pJ"),
    ("sim.bank_cycles_per_inference", "count"),
    ("sim.write_energy_nj", "nJ"),
];

/// Per-layer values with where each came from.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Layers {
    /// Sets `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64, source: &str) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, (value, source.to_owned()));
    }

    /// Value and source of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&(f64, String)> {
        self.values.get(name)
    }
}

/// Median of `xs` (0 for none).
#[must_use]
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Times `reps` batches of `inner` calls of `f`, each batch a span named
/// `name`; returns the median nanoseconds per call.
fn per_call_ns(
    log: &mut SpanLog,
    name: &'static str,
    reps: usize,
    inner: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let samples = (0..reps)
        .map(|r| {
            let t0 = Instant::now();
            for i in 0..inner {
                f(r * inner + i);
            }
            let t1 = Instant::now();
            log.record(name, t0, t1, 0, 0);
            (t1 - t0).as_nanos() as f64 / inner as f64
        })
        .collect();
    median(samples)
}

/// Sums every series of the registry counter `name`.
#[must_use]
pub fn counter_sum(name: &str) -> u64 {
    imc_obs::registry()
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.value {
            MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// The registry gauge `name`, or 0.
#[must_use]
pub fn gauge(name: &str) -> f64 {
    imc_obs::registry().snapshot().gauge(name).unwrap_or(0.0)
}

/// Sets the batcher, scheduler-service and server-residual metrics from
/// the stage records of traced requests, and the shed count.
pub fn from_stages(layers: &mut Layers, t: &Tally, source: &str) {
    let stages = &t.stages;
    let us = |f: &dyn Fn(&crate::trace::StageRec) -> f64| median(stages.iter().map(f).collect());
    layers.set(
        "batcher.queue_wait_us",
        us(&|r| r.queue_ns as f64 / 1e3),
        source,
    );
    let batch = stages.iter().map(|r| f64::from(r.batch)).sum::<f64>() / stages.len().max(1) as f64;
    layers.set("batcher.batch_size", batch, source);
    layers.set("batcher.shed", t.shed as f64, source);
    layers.set(
        "scheduler.service_us",
        us(&|r| r.service_ns as f64 / 1e3),
        source,
    );
    layers.set(
        "server.residual_us",
        us(&|r| r.residual_ns() as f64 / 1e3),
        source,
    );
}

/// A short traced closed loop (one connection, one request in flight)
/// against `addr`, so layers the workload's own window bypasses still
/// get measured.
///
/// # Errors
///
/// Connection failures.
pub fn probe(addr: SocketAddr, pool: &RequestPool, epoch: Instant) -> std::io::Result<Tally> {
    let w = Window::new(
        Duration::from_millis(200),
        Duration::from_millis(1600),
        true,
    );
    let t = closed_conn(addr, 7, 1, pool, &w, epoch)?;
    sleep_until(w.end);
    Ok(t)
}

/// Direct `Client::partial` round trips to each shard replica with the
/// router's codes, from `streams` concurrent threads (matching the
/// connections of the latency they are subtracted from), over `n`
/// pooled inputs each: the median per-inference total of partial round
/// trips (ns), the median per-inference quantize time (ns), and whether
/// every recombined answer matched the oracle.
///
/// # Errors
///
/// Connection or partial-request failures.
pub fn partial_round_trips(
    fleet: &Fleet,
    pool: &RequestPool,
    streams: usize,
    n: usize,
    log: &mut SpanLog,
) -> Result<(f64, f64, bool), String> {
    let epoch = log.epoch();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..streams)
            .map(|i| {
                s.spawn(move || {
                    partial_stream(
                        fleet,
                        pool,
                        i,
                        n,
                        SpanLog::new(epoch, 8 * n, 100 + i as u64),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partial stream panicked"))
            .collect()
    });
    let (mut rtts, mut quants, mut exact) = (Vec::new(), Vec::new(), true);
    for r in results {
        let (r, q, e, spans) = r?;
        rtts.extend(r);
        quants.extend(q);
        exact &= e;
        log.absorb(spans);
    }
    Ok((median(rtts), median(quants), exact))
}

type PartialSamples = (Vec<f64>, Vec<f64>, bool, SpanLog);

fn partial_stream(
    fleet: &Fleet,
    pool: &RequestPool,
    stream: usize,
    n: usize,
    mut log: SpanLog,
) -> Result<PartialSamples, String> {
    let cfg = ClientConfig {
        proto: Proto::Bin,
        ..ClientConfig::default()
    };
    let mut clients = fleet
        .replicas
        .iter()
        .map(|h| Client::connect_with(h.addr(), cfg).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let plan = &fleet.plan;
    let (mut rtts, mut quants, mut exact) = (Vec::with_capacity(n), Vec::with_capacity(n), true);
    for k in 0..n {
        let input = pool.pick(stream as u64, k as u64);
        let id = (stream * n + k) as u64;
        let root = log.reserve_id();
        let t_start = Instant::now();
        let mut cur = pool.inputs[input].clone();
        let (mut rtt, mut quant) = (0u64, 0u64);
        for (li, layer) in plan.layers.iter().enumerate() {
            if li > 0 {
                for v in &mut cur {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            let tq = Instant::now();
            let qa = quantize_activations(
                &Tensor::from_vec(&[1, layer.fan], cur.clone()),
                plan.input_bits,
            );
            let codes: Vec<f32> = qa.q.iter().map(|&v| v as f32).collect();
            let tq1 = Instant::now();
            quant += (tq1 - tq).as_nanos() as u64;
            log.record("neural.quantize_activations", tq, tq1, root, id);
            let mut total = vec![0i64; layer.out_features];
            for slot in &plan.shards {
                let [lo, hi] = slot.layer_chunks[li];
                if lo == hi {
                    continue;
                }
                let t0 = Instant::now();
                let reply = clients[slot.index]
                    .partial(id, li, lo, hi, codes.clone())
                    .map_err(|e| e.to_string())?;
                let t1 = Instant::now();
                rtt += (t1 - t0).as_nanos() as u64;
                log.record("client.partial", t0, t1, root, id);
                for (acc, v) in total.iter_mut().zip(reply.sums) {
                    *acc += v;
                }
            }
            cur = total
                .iter()
                .enumerate()
                .map(|(o, &t)| (t as f32) * layer.w_scale * qa.scale + layer.bias[o])
                .collect();
        }
        log.record_as(
            root,
            "router.emulated_inference",
            t_start,
            Instant::now(),
            0,
            id,
        );
        exact &= pool.matches(input, &cur);
        rtts.push(rtt as f64);
        quants.push(quant as f64);
    }
    Ok((rtts, quants, exact, log))
}

/// The served model's quantized MAC-layer weights, built the way
/// `QNetwork::from_sequential` builds them.
fn served_weights(bits: u32) -> Vec<QuantizedWeights> {
    let mut seq = mlp(
        MNIST_FEATURES,
        DEFAULT_HIDDEN,
        DEFAULT_CLASSES,
        DEFAULT_SEED,
    );
    seq.layers_mut()
        .iter_mut()
        .filter_map(|l| l.as_any_mut().downcast_mut::<Linear>())
        .map(|lin| quantize_weights(&lin.weight.value, bits))
        .collect()
}

/// Median microseconds for a fresh connection to be accepted and to
/// finish the BIN1 handshake.
fn accept_wait_us(addr: SocketAddr, n: usize, log: &mut SpanLog) -> f64 {
    let samples = (0..n)
        .filter_map(|_| {
            let t0 = Instant::now();
            let mut s = TcpStream::connect(addr).ok()?;
            wire::client_handshake(&mut s).ok()?;
            let t1 = Instant::now();
            log.record("server.accept", t0, t1, 0, 0);
            Some((t1 - t0).as_secs_f64() * 1e6)
        })
        .collect();
    median(samples)
}

/// Median microseconds from `BankScheduler::dispatch` until the
/// executor starts, on a 16-bank scheduler built here.
fn handoff_us(n: usize, log: &mut SpanLog) -> f64 {
    let (tx, rx) = mpsc::channel::<Instant>();
    let tx = Mutex::new(tx);
    let sched: BankScheduler<()> = BankScheduler::new(
        16,
        move |_bank, _batch| {
            let _ = tx.lock().expect("handoff sender lock").send(Instant::now());
        },
        |_bank, _routes| {},
    );
    let samples = (0..n as u64)
        .filter_map(|id| {
            let t0 = Instant::now();
            sched.dispatch(vec![Pending {
                id,
                input: Vec::new(),
                enqueued: t0,
                reply: (),
                trace: None,
            }]);
            let started = rx.recv().ok()?;
            log.record("scheduler.dispatch", t0, started, 0, 0);
            Some((started - t0).as_secs_f64() * 1e6)
        })
        .collect();
    sched.shutdown();
    median(samples)
}

/// Isolated timings of the kernel, pool, codec, scheduler and server
/// accept path on the workload's inputs, plus the compile passes.
/// Returns the cross-checks that failed: a compiled image that fails
/// verification, or composed compile passes that program differently
/// from the pipeline.
///
/// # Errors
///
/// A model or compile that cannot be built.
pub fn isolated(
    layers: &mut Layers,
    pool: &RequestPool,
    seed: u64,
    server: SocketAddr,
    log: &mut SpanLog,
) -> Result<Vec<String>, String> {
    let src = "isolated call";
    let mut mismatches = Vec::new();
    let model = ServeModel::synthetic(DESIGN, DEFAULT_SEED);
    let net = model.network();
    let one: Vec<Tensor> = pool
        .inputs
        .iter()
        .take(16)
        .map(|x| Tensor::from_vec(&[1, MNIST_FEATURES], x.clone()))
        .collect();

    let forward_ns = per_call_ns(log, "neural.forward", 60, 4, |i| {
        black_box(net.forward(&one[i % one.len()]));
    });
    layers.set("neural.forward_us", forward_ns / 1e3, src);
    let rows: Vec<f32> = pool
        .inputs
        .iter()
        .cycle()
        .take(64)
        .flatten()
        .copied()
        .collect();
    let batch = Tensor::from_vec(&[64, MNIST_FEATURES], rows);
    let each_ns = per_call_ns(log, "serve_model.infer_batch", 9, 1, |_| {
        black_box(model.infer_batch(&batch));
    });
    layers.set("neural.forward_each_row_us", each_ns / 64.0 / 1e3, src);

    let shard0 = ServeModel::synthetic_shard(DESIGN, DEFAULT_SEED, 0, 2)?;
    let [lo, hi] = shard0.shard().expect("shard model").layer_chunks[0];
    let input_bits = net.config().input_bits;
    let qa = quantize_activations(&one[0], input_bits);
    let codes: Vec<f32> = qa.q.iter().map(|&v| v as f32).collect();
    let partial_ns = per_call_ns(log, "serve_model.partial", 60, 4, |_| {
        black_box(shard0.partial(0, lo, hi, &codes).expect("owned chunks"));
    });
    layers.set("neural.linear_partial_us", partial_ns / 1e3, src);
    let quant_ns = per_call_ns(log, "neural.quantize_activations", 40, 50, |i| {
        black_box(quantize_activations(&one[i % one.len()], input_bits));
    });
    layers.set("neural.quantize_us", quant_ns / 1e3, src);
    let macs: usize = net
        .mac_layer_meta()
        .iter()
        .map(|m| m.fan * m.out_features)
        .sum();
    layers.set(
        "neural.macs_per_inference",
        macs as f64,
        "computed: Σ fan × out",
    );
    layers.set(
        "neural.gmac_per_s",
        macs as f64 / forward_ns,
        "computed: MACs ÷ forward time",
    );
    layers.set(
        "neural.plane_bytes",
        model.prepack().bytes as f64,
        "ServeModel::prepack",
    );
    let weights = served_weights(net.config().weight_bits);
    let rows = net.config().rows;
    let pack_ns = per_call_ns(log, "neural.pack_planes", 30, 1, |_| {
        for qw in &weights {
            black_box(pack_planes(qw, rows));
        }
    });
    layers.set(
        "neural.pack_us",
        pack_ns / 1e3,
        "isolated call: uncached pack_planes, every MAC layer",
    );

    let fan_ns = per_call_ns(log, "par_exec.par_map_indexed", 100, 4, |_| {
        black_box(par_exec::par_map_indexed(64, |i| black_box(i as u64)));
    });
    layers.set("exec.fanout_us", fan_ns / 1e3, src);

    // The workload's own frames: a pooled Infer and its Output, a
    // layer-0 Partial with the router's codes and its PartialSum.
    let infer = Request::Infer(InferRequest {
        id: 1,
        input: pool.inputs[0].clone(),
        trace: None,
    });
    let output = Response::Output(InferReply {
        id: 1,
        logits: pool.expected[0].clone(),
        class: imc_serve::argmax_total(&pool.expected[0]),
        bank: 0,
        batch: 1,
        queue_us: 0,
        service_us: 0,
        trace_id: 0,
    });
    let partial = Request::Partial(PartialRequest {
        id: 1,
        layer: 0,
        chunk_lo: lo,
        chunk_hi: hi,
        codes: codes.clone(),
        trace: None,
    });
    let partial_sum = Response::PartialSum(PartialSumReply {
        id: 1,
        layer: 0,
        sums: shard0.partial(0, lo, hi, &codes)?,
    });
    let body = |frame: &dyn Fn(&mut Vec<u8>)| {
        let mut b = Vec::new();
        frame(&mut b);
        b.split_off(4)
    };
    let infer_body = body(&|b| wire::encode_request(&infer, b));
    let output_body = body(&|b| wire::encode_response(&output, b));
    let partial_sum_body = body(&|b| wire::encode_response(&partial_sum, b));
    let mut buf = Vec::with_capacity(8192);
    let (reps, inner) = (40, 100);
    let ns = per_call_ns(log, "wire.encode_request", reps, inner, |_| {
        wire::encode_request(black_box(&infer), &mut buf)
    });
    layers.set("wire.infer_encode_ns", ns, src);
    let ns = per_call_ns(log, "wire.decode_request", reps, inner, |_| {
        black_box(wire::decode_request(black_box(&infer_body)).expect("own frame"));
    });
    layers.set("wire.infer_decode_ns", ns, src);
    let ns = per_call_ns(log, "wire.encode_response", reps, inner, |_| {
        wire::encode_response(black_box(&output), &mut buf)
    });
    layers.set("wire.output_encode_ns", ns, src);
    let ns = per_call_ns(log, "wire.decode_response", reps, inner, |_| {
        black_box(wire::decode_response(black_box(&output_body)).expect("own frame"));
    });
    layers.set("wire.output_decode_ns", ns, src);
    let ns = per_call_ns(log, "wire.encode_request", reps, inner, |_| {
        wire::encode_request(black_box(&partial), &mut buf)
    });
    layers.set("wire.partial_encode_ns", ns, src);
    let ns = per_call_ns(log, "wire.decode_response", reps, inner, |_| {
        black_box(wire::decode_response(black_box(&partial_sum_body)).expect("own frame"));
    });
    layers.set("wire.partialsum_decode_ns", ns, src);

    layers.set(
        "scheduler.handoff_us",
        handoff_us(200, log),
        "isolated call: own 16-bank scheduler",
    );
    layers.set(
        "server.accept_wait_us",
        accept_wait_us(server, 8, log),
        "isolated call: fresh connect + handshake",
    );
    layers.set(
        "router.failovers",
        counter_sum("fleet.failovers") as f64,
        "registry: fleet.failovers",
    );

    // Compile passes from outside, and the predict pass from the
    // pipeline's own timings (it has no public entry point).
    let opts = compile_wl::options(seed);
    let passes: Vec<_> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let p = compile_wl::composed_passes(&opts);
            log.record("compile.composed_passes", t0, Instant::now(), 0, 0);
            p
        })
        .collect::<Result<_, _>>()?;
    let pass_ms = |f: &dyn Fn(&compile_wl::PassTimes) -> f64| {
        median(passes.iter().map(|p| f(p) * 1e3).collect())
    };
    let csrc = "isolated call: public pass";
    layers.set("compile.placement_ms", pass_ms(&|p| p.placement_s), csrc);
    layers.set("compile.remap_ms", pass_ms(&|p| p.remap_s), csrc);
    let programming_ms = pass_ms(&|p| p.programming_s);
    layers.set("compile.programming_ms", programming_ms, csrc);
    layers.set("compile.wear_ms", pass_ms(&|p| p.wear_s), csrc);
    let outs: Vec<_> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let out = compile_wl::compile_fresh(&opts);
            log.record("compile.pipeline", t0, Instant::now(), 0, 0);
            out
        })
        .collect::<Result<_, _>>()?;
    for out in outs.iter().filter(|o| !compile_wl::verify(&opts, o)) {
        mismatches.push(format!(
            "a compiled image (digest {:#x}) failed verification",
            out.image.digest()
        ));
    }
    layers.set(
        "compile.predict_ms",
        median(outs.iter().map(|o| o.timings.predict_s * 1e3).collect()),
        "CompileOutput::timings",
    );
    let totals = outs[0].totals;
    let tsrc = "CompileOutput::totals";
    layers.set(
        "compile.cells_per_s",
        totals.cells as f64 / (programming_ms / 1e3),
        "totals ÷ programming pass",
    );
    layers.set(
        "compile.pulses_per_cell",
        totals.pulses as f64 / totals.cells.max(1) as f64,
        tsrc,
    );
    layers.set("compile.unconverged_cells", totals.unconverged as f64, tsrc);
    layers.set(
        "sim.write_energy_nj",
        totals.energy_j * 1e9,
        "ProgramTotals::energy_j",
    );
    // The pipeline is deterministic: passes composed as it composes
    // them must program exactly what it programmed, or the pass timings
    // above do not describe its compile.
    if passes[0].totals != totals {
        mismatches.push(format!(
            "composed passes programmed {:?}, the pipeline {:?}",
            passes[0].totals, totals
        ));
    }
    Ok(mismatches)
}
