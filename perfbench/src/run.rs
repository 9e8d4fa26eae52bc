//! One benchmark run: set up the workload, measure its window, verify
//! every answer, and in a traced run measure every layer.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use imc_compile::pipeline::{CompileOptions, CompileOutput};
use imc_cost::{DesignPoint, LayerShape, Variant, WeightBits};
use imc_serve::model::DEFAULT_SEED;
use imc_serve::ServeModel;

use crate::compile_wl;
use crate::gen::{Tally, Window};
use crate::hist::LogHist;
use crate::host::{self, Noise};
use crate::inputs::{RequestPool, DESIGN, POOL_SIZE};
use crate::layers::{self, counter_sum, gauge, Layers};
use crate::serving::{self, drive, Fleet, Load, WindowNoise, WARMUP};
use crate::setup::{fresh_setups, Setup, SETUPS};
use crate::trace::{median_budget, write_spans, Budget, SpanLog};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 2 connections × 32 in flight, one node.
    Saturate,
    /// Open loop at 400 req/s on one connection, one node.
    Trickle,
    /// Closed loop, 2 connections × 1 in flight, 2-shard fleet.
    Sharded,
    /// Back-to-back compiles.
    Compile,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Saturate,
        Workload::Trickle,
        Workload::Sharded,
        Workload::Compile,
    ];

    /// The CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Saturate => "saturate",
            Workload::Trickle => "trickle",
            Workload::Sharded => "sharded",
            Workload::Compile => "compile",
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// An unknown name.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                format!("unknown workload `{s}` (expected saturate|trickle|sharded|compile)")
            })
    }

    /// The offered load of a serving workload.
    #[must_use]
    pub fn load(self) -> Option<Load> {
        match self {
            Workload::Saturate => Some(Load::Closed {
                conns: 2,
                depth: 32,
            }),
            Workload::Trickle => Some(Load::Open { rate: 400.0 }),
            Workload::Sharded => Some(Load::Closed { conns: 2, depth: 1 }),
            Workload::Compile => None,
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured window.
    pub window: Duration,
    /// Traced run.
    pub trace: bool,
    /// The benchmark binary, re-run once per timed set-up so that each
    /// set-up starts in a fresh process.
    pub exe: PathBuf,
}

/// A run's results.
#[derive(Default)]
pub struct Outcome {
    /// Verified completions per second (see the README for which part
    /// of the window each workload reads it over).
    pub throughput_per_s: f64,
    /// Median request (or compile) latency over the quiet part of the
    /// window, microseconds.
    pub latency_p50_us: f64,
    /// Every request (or compile) latency in the window, ns.
    pub latency: LogHist,
    /// Every set-up, each timed in a fresh process.
    pub setups: Vec<Setup>,
    /// Operations attempted (warm-up included).
    pub ops: u64,
    /// Operations failed.
    pub failed: u64,
    /// Wrong answers and failed cross-checks.
    pub wrong: u64,
    /// Host noise over the window.
    pub noise: WindowNoise,
    /// Simulated (deterministic) statistics, labelled apart from host
    /// time.
    pub sim: Vec<(&'static str, f64, &'static str)>,
    /// Remarks for the report.
    pub notes: Vec<String>,
    /// Traced run: per-layer values.
    pub layers: Option<Layers>,
    /// Traced run: the median request's budget.
    pub budget: Option<Budget>,
}

impl Outcome {
    /// Records a wrong answer or a failed cross-check.
    fn mismatch(&mut self, what: String) {
        self.wrong += 1;
        self.notes.push(format!("MISMATCH: {what}"));
    }

    /// Counts a probe's requests with the run's.
    fn count_probe(&mut self, t: &Tally) {
        self.ops += t.sent;
        self.failed += t.failed();
        self.wrong += t.wrong;
    }

    /// Whether every answer was verified correct and every cross-check
    /// held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.latency.count() > 0
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up or connection failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::Compile => run_compile(args),
        w => run_serving(w, args),
    }
}

/// The simulated per-inference statistics of the served model, with the
/// energy cross-checked between the serving model and `imc-cost`.
fn sim_inference(out: &mut Outcome, model: &ServeModel) {
    let cfg = model.network().config();
    let point = DesignPoint {
        variant: Variant::ChgFe,
        banks: 16,
        rows: cfg.rows,
        block_pairs_per_bank: 4,
        adc_bits: cfg.adc_bits,
        input_bits: cfg.input_bits,
        weight_bits: WeightBits::W8,
    };
    let shapes: Vec<LayerShape> = model
        .network()
        .mac_layer_meta()
        .iter()
        .map(|m| LayerShape {
            fan: m.fan,
            out: m.out_features,
        })
        .collect();
    let cost = imc_cost::inference_cost(&point, &shapes);
    let pj = model.energy_per_inference_pj();
    out.sim.push((
        "sim.energy_pj_per_inference",
        pj as f64,
        "ServeModel::energy_per_inference_pj",
    ));
    out.sim.push((
        "sim.bank_cycles_per_inference",
        cost.bank_cycles as f64,
        "imc_cost::inference_cost",
    ));
    out.sim.push((
        "sim.latency_ns_per_inference",
        cost.latency_s * 1e9,
        "imc_cost::inference_cost",
    ));
    out.sim.push((
        "neural.macs_per_inference",
        cost.macs as f64,
        "imc_cost::inference_cost",
    ));
    if cost.energy_pj() != pj {
        out.mismatch(format!(
            "imc_cost prices {} pJ per inference, the serving model {pj} pJ",
            cost.energy_pj()
        ));
    }
}

enum Target {
    Single(imc_serve::ServerHandle),
    Fleet(Fleet),
}

impl Target {
    fn addr(&self) -> SocketAddr {
        match self {
            Target::Single(h) => h.addr(),
            Target::Fleet(f) => f.router.addr(),
        }
    }

    fn stop(self) {
        match self {
            Target::Single(h) => serving::stop_single(h),
            Target::Fleet(f) => serving::stop_fleet(f),
        }
    }
}

/// The registry counter the served energy accumulates in.
fn energy_counter(sharded: bool) -> u64 {
    counter_sum(if sharded {
        "cost.fleet_energy_pj_total"
    } else {
        "cost.energy_pj_total"
    })
}

fn run_serving(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let (setups, _) = fresh_setups(&args.exe, workload, args.seed, SETUPS)?;
    let epoch = Instant::now();
    let load = workload.load().expect("serving workload");
    let pool = RequestPool::new(args.seed, POOL_SIZE);
    let model = ServeModel::synthetic(DESIGN, DEFAULT_SEED);
    let mut out = Outcome {
        setups,
        ..Outcome::default()
    };
    sim_inference(&mut out, &model);

    let sharded = workload == Workload::Sharded;
    let target = if sharded {
        Target::Fleet(serving::start_fleet()?)
    } else {
        Target::Single(serving::start_single().map_err(|e| e.to_string())?)
    };

    // The live server registered its counters last, so the registry's
    // energy counter is this server's (or the routers' shared one).
    let energy0 = energy_counter(sharded);
    let w = Window::new(WARMUP, args.window, args.trace);
    let driven = drive(target.addr(), load, &pool, &w, epoch).map_err(|e| e.to_string())?;
    let tally = driven.tally;
    let energy = energy_counter(sharded) - energy0;
    let outputs = tally.ok + tally.wrong;
    let registry_pj = energy as f64 / outputs.max(1) as f64;
    out.sim.push((
        "sim.energy_pj_per_inference (registry)",
        registry_pj,
        "registry energy ÷ answered requests",
    ));
    if registry_pj != model.energy_per_inference_pj() as f64 {
        out.mismatch(format!(
            "registry prices {registry_pj} pJ per inference, the serving model {}",
            model.energy_per_inference_pj()
        ));
    }

    // Throughput and p50 are read over the quiet part of the window.
    // An open loop's rate is the offered one unless a backlog forms, so
    // there it is read over the whole window, where a backlog shows.
    let quiet = crate::gen::quiet(&driven.bucket_steal);
    let (quiet_rate, quiet_latency) = tally.over_buckets(&quiet);
    out.throughput_per_s = match load {
        Load::Closed { .. } => quiet_rate,
        Load::Open { .. } => tally.span_rate(),
    };
    out.latency_p50_us = quiet_latency.quantile(0.5) / 1e3;
    let steal_cut = quiet
        .iter()
        .map(|&b| driven.bucket_steal[b])
        .fold(0.0, f64::max);
    out.notes.push(format!(
        "quiet part: {} of {} buckets, host steal <= {steal_cut:.2} each; whole window: {:.1}/s, p50 {:.1} us",
        quiet.len(),
        tally.buckets.len(),
        tally.span_rate(),
        tally.latency.quantile(0.5) / 1e3
    ));
    out.ops = tally.sent;
    out.failed = tally.failed();
    out.wrong += tally.wrong;
    out.noise = driven.noise;
    if tally.shed > 0 {
        out.notes.push(format!("{} requests shed", tally.shed));
    }

    // A traced run measures what it can from the window while the
    // workload's servers still run, and the rest after they stop.
    let traced = if args.trace {
        let mut layers = Layers::default();
        let mut log = SpanLog::new(epoch, 16_384, 0);
        gen_layers(&mut layers, &tally, matches!(load, Load::Open { .. }));
        out.budget = Some(median_budget(&tally.stages));
        let covered = match &target {
            Target::Single(_) => {
                layers::from_stages(&mut layers, &tally, "window");
                Covered {
                    batcher: true,
                    router: false,
                }
            }
            Target::Fleet(f) => {
                let (_, conns) = load.threads_and_conns();
                router_layers(
                    &mut layers,
                    &mut out,
                    f,
                    &pool,
                    &mut log,
                    &tally.latency,
                    conns,
                    "window",
                )?;
                Covered {
                    batcher: false,
                    router: true,
                }
            }
        };
        Some((layers, log, covered))
    } else {
        None
    };
    target.stop();
    if let Some((layers, mut log, covered)) = traced {
        log.absorb(tally.spans);
        finish_traced(args, &mut out, layers, log, &pool, covered)?;
    }
    out.latency = tally.latency;
    Ok(out)
}

/// The layers a workload's own window already measured.
struct Covered {
    /// Batcher, scheduler service and server residual.
    batcher: bool,
    /// Partial round trips and router overhead.
    router: bool,
}

/// Ends a traced run: probes the layers the window bypassed, times the
/// isolated calls, records host noise and the simulated per-inference
/// values, and writes the spans.
///
/// # Errors
///
/// A probe, model or compile that cannot be set up.
fn finish_traced(
    args: &Args,
    out: &mut Outcome,
    mut layers: Layers,
    mut log: SpanLog,
    pool: &RequestPool,
    covered: Covered,
) -> Result<(), String> {
    let epoch = log.epoch();
    host_layers(&mut layers, &out.noise);
    let h = serving::start_single().map_err(|e| e.to_string())?;
    if !covered.batcher {
        let probe = layers::probe(h.addr(), pool, epoch).map_err(|e| e.to_string())?;
        out.count_probe(&probe);
        layers::from_stages(&mut layers, &probe, "probe: single node, 1 in flight");
    }
    if !covered.router {
        probe_fleet(&mut layers, out, pool, &mut log)?;
    }
    let mismatches = layers::isolated(&mut layers, pool, args.seed, h.addr(), &mut log)?;
    serving::stop_single(h);
    for m in mismatches {
        out.mismatch(m);
    }
    for (name, v, src) in &out.sim {
        if matches!(
            *name,
            "sim.energy_pj_per_inference" | "sim.bank_cycles_per_inference"
        ) {
            layers.set(name, *v, src);
        }
    }
    write_trace(args, &log, out);
    out.layers = Some(layers);
    Ok(())
}

/// Per-layer values of the host and the pool over the window.
fn host_layers(layers: &mut Layers, noise: &WindowNoise) {
    layers.set(
        "exec.pool_utilization",
        gauge("par_exec_pool_utilization"),
        "registry gauge",
    );
    layers.set(
        "host.steal_frac",
        noise.steal_frac,
        "/proc/stat over the window",
    );
    layers.set(
        "process.cpu_us_per_op",
        noise.cpu_us_per_op,
        "/proc/self/stat over the window",
    );
}

/// Generator lateness and tracing overhead of a traced serving window.
fn gen_layers(layers: &mut Layers, t: &Tally, open_loop: bool) {
    let late_src = if open_loop {
        "send time − due time"
    } else {
        "reply read → next send"
    };
    layers.set(
        "gen.late_us",
        t.late.quantile(0.99) / 1e3,
        &format!("p99, {late_src}"),
    );
    layers.set(
        "gen.late_max_us",
        t.late.max() as f64 / 1e3,
        &format!("max, {late_src}"),
    );
    let [untraced, traced] = &t.segments;
    let (frac, src) = if open_loop {
        (
            traced.latency.quantile(0.5) / untraced.latency.quantile(0.5) - 1.0,
            "traced ÷ untraced quarters, p50 latency",
        )
    } else {
        (
            1.0 - traced.done as f64 / untraced.done.max(1) as f64,
            "1 − traced ÷ untraced quarters, completions",
        )
    };
    layers.set("obs.trace_overhead_frac", frac, src);
}

/// Router metrics from a short probe of a fresh 2-shard fleet, for
/// workloads whose window bypasses the router.
fn probe_fleet(
    layers: &mut Layers,
    out: &mut Outcome,
    pool: &RequestPool,
    log: &mut SpanLog,
) -> Result<(), String> {
    let fleet = serving::start_fleet()?;
    let probe = layers::probe(fleet.router.addr(), pool, log.epoch()).map_err(|e| e.to_string())?;
    out.count_probe(&probe);
    let measured = router_layers(
        layers,
        out,
        &fleet,
        pool,
        log,
        &probe.latency,
        1,
        "probe: 2-shard fleet, 1 in flight",
    );
    serving::stop_fleet(fleet);
    measured
}

/// Router metrics: direct partial round trips against `fleet`'s
/// replicas and the router overhead left in `latency`'s median.
#[allow(clippy::too_many_arguments)]
fn router_layers(
    layers: &mut Layers,
    out: &mut Outcome,
    fleet: &Fleet,
    pool: &RequestPool,
    log: &mut SpanLog,
    latency: &LogHist,
    conns: usize,
    source: &str,
) -> Result<(), String> {
    let (rtt_ns, quant_ns, exact) = layers::partial_round_trips(fleet, pool, conns, 128, log)?;
    if !exact {
        out.mismatch("partial sums recombined from the shards differ from the oracle".to_owned());
    }
    let src = format!("isolated call: direct Client::partial, 4 per inference, {conns} stream(s)");
    layers.set("router.partial_rtt_us", rtt_ns / 1e3, &src);
    let overhead = (latency.quantile(0.5) - rtt_ns - quant_ns) / 1e3;
    layers.set(
        "router.overhead_us",
        overhead,
        &format!("{source}: p50 − partial round trips − quantize"),
    );
    Ok(())
}

fn write_trace(args: &Args, log: &SpanLog, out: &mut Outcome) {
    let path = PathBuf::from(".bench_out").join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    match write_spans(&path, log) {
        Ok(()) => out.notes.push(format!(
            "spans: {} written to {} ({} dropped)",
            log.spans().len(),
            path.display(),
            log.dropped
        )),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

/// Untimed compiles before the window; the set-ups ran in other
/// processes, so this one's first compiles are cold.
const WARMUP_COMPILES: usize = 2;

/// Verifies one compile's image, returning whether it held. A failed
/// compile or a wrong image counts as failed.
fn check_compile(
    out: &mut Outcome,
    opts: &CompileOptions,
    result: &Result<CompileOutput, String>,
) -> bool {
    match result {
        Ok(o) if compile_wl::verify(opts, o) => return true,
        Ok(_) => {
            out.mismatch("a compiled image failed validation or its predicted logits".to_owned())
        }
        Err(e) => out.notes.push(format!("compile failed: {e}")),
    }
    out.failed += 1;
    false
}

fn run_compile(args: &Args) -> Result<Outcome, String> {
    let (setups, unverified) = fresh_setups(&args.exe, Workload::Compile, args.seed, SETUPS)?;
    let epoch = Instant::now();
    let mut out = Outcome {
        // Each set-up process compiled once and checked its image.
        ops: setups.len() as u64,
        setups,
        ..Outcome::default()
    };
    for _ in 0..unverified {
        out.failed += 1;
        out.mismatch("a set-up's cold compile failed verification".to_owned());
    }
    sim_inference(&mut out, &ServeModel::synthetic(DESIGN, DEFAULT_SEED));
    let opts = compile_wl::options(args.seed);
    let mut write_energy_j = None;
    for _ in 0..WARMUP_COMPILES {
        let result = compile_wl::compile_fresh(&opts);
        out.ops += 1;
        check_compile(&mut out, &opts, &result);
        if let Ok(o) = result {
            write_energy_j = Some(o.totals.energy_j);
        }
    }
    let Some(write_energy_j) = write_energy_j else {
        return Err(format!("every compile failed: {:?}", out.notes));
    };
    out.sim.push((
        "sim.write_energy_nj",
        write_energy_j * 1e9,
        "ProgramTotals::energy_j",
    ));

    let w = Window::new(Duration::ZERO, args.window, args.trace);
    let mut log = SpanLog::new(epoch, if args.trace { 16_384 } else { 0 }, 0);
    let (mut late, mut segments) = (LogHist::new(), [LogHist::new(), LogHist::new()]);
    // Each verified compile's duration and the host steal during it.
    let mut runs: Vec<(u64, f64)> = Vec::with_capacity(args.window.as_secs() as usize * 100 + 16);
    let noise = Noise::start();
    let mut freed = Instant::now();
    while Instant::now() < w.end {
        let ticks = host::cpu_ticks();
        let t0 = Instant::now();
        late.record((t0 - freed).as_nanos() as u64);
        let result = compile_wl::compile_fresh(&opts);
        let t1 = Instant::now();
        let steal = host::steal_between(ticks, host::cpu_ticks());
        out.ops += 1;
        let ok = check_compile(&mut out, &opts, &result);
        let t2 = Instant::now();
        if ok {
            let ns = (t1 - t0).as_nanos() as u64;
            out.latency.record(ns);
            if runs.len() < runs.capacity() {
                runs.push((ns, steal));
            }
            let traced = w.traced_at(t0);
            segments[usize::from(traced)].record(ns);
            if traced {
                let root = log.record("compile.pipeline", t0, t1, 0, runs.len() as u64);
                log.record("compile.verify", t1, t2, root, runs.len() as u64);
            }
        }
        freed = t2;
    }
    // Like the serving windows, read over the quiet compiles: those
    // during which the host stole least.
    let quiet = crate::gen::quiet(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
    let mut quiet_latency = LogHist::new();
    let mut quiet_ns = 0u64;
    for &i in &quiet {
        quiet_latency.record(runs[i].0);
        quiet_ns += runs[i].0;
    }
    out.throughput_per_s = quiet.len() as f64 / (quiet_ns as f64 / 1e9).max(1e-9);
    out.latency_p50_us = quiet_latency.quantile(0.5) / 1e3;
    let all_ns: u64 = runs.iter().map(|r| r.0).sum();
    out.notes.push(format!(
        "quiet part: {} of {} compiles; all compiles: {:.2}/s, p50 {:.1} us",
        quiet.len(),
        runs.len(),
        runs.len() as f64 / (all_ns as f64 / 1e9).max(1e-9),
        out.latency.quantile(0.5) / 1e3
    ));
    out.noise = WindowNoise {
        steal_frac: noise.steal_frac(),
        cpu_us_per_op: noise.cpu_us_per_op(runs.len() as u64),
    };

    if args.trace {
        let mut layers = Layers::default();
        layers.set(
            "gen.late_us",
            late.quantile(0.99) / 1e3,
            "p99, compile return → next compile",
        );
        layers.set(
            "gen.late_max_us",
            late.max() as f64 / 1e3,
            "max, compile return → next compile",
        );
        layers.set(
            "obs.trace_overhead_frac",
            segments[1].quantile(0.5) / segments[0].quantile(0.5) - 1.0,
            "traced ÷ untraced quarters, median compile",
        );
        let pool = RequestPool::new(args.seed, POOL_SIZE);
        let covered = Covered {
            batcher: false,
            router: false,
        };
        finish_traced(args, &mut out, layers, log, &pool, covered)?;
    }
    Ok(out)
}

/// Provenance recorded with every result.
#[must_use]
pub fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let (threads, conns) = args
        .workload
        .load()
        .map_or((1, 0), |l| l.threads_and_conns());
    vec![
        ("git_rev", host::git_rev()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("par_exec_threads", par_exec::threads().to_string()),
        ("cpu", host::cpu_model()),
        ("gen_threads", threads.to_string()),
        ("gen_conns", conns.to_string()),
        ("seed", args.seed.to_string()),
        ("window_s", args.window.as_secs_f64().to_string()),
    ]
}
