//! End-to-end test of the `imc-obs` observability layer: run real work
//! through every instrumented subsystem (serve traffic, a compile
//! pipeline, a DC Newton solve, a Monte-Carlo batch), then scrape the
//! HTTP endpoint with a raw `TcpStream` — no client library — and
//! assert the exposition contains the metric families the acceptance
//! criteria name: serve latency quantiles, pool utilization, compile
//! pass spans, and sim Newton counters. The JSON route must also parse.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::{serve, Client, ServeConfig};
use neural::imc_exec::ImcDesign;

/// One plain HTTP/1.1 GET over a raw socket, returning (status line,
/// body). Deliberately not a client library: this asserts the tiny
/// exporter speaks plain-enough HTTP for curl and Prometheus.
fn raw_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect obs endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().expect("status line").to_owned();
    (status, body.to_owned())
}

/// Drives every instrumented layer once so the registry holds all the
/// metric families a production scrape would see.
fn generate_work() {
    // Fleet traffic first: a 2-shard fleet in front of two shard
    // replicas, so the labeled per-shard/per-replica families
    // (`fleet.shard_requests{shard,replica}`) hold real samples. Runs
    // before the plain server below because unlabeled serve counters
    // are latest-registration-wins and the assertions target the plain
    // server's traffic.
    let input: Vec<f32> = (0..MNIST_FEATURES)
        .map(|i| (i % 11) as f32 / 11.0)
        .collect();
    let shard = |i: usize| {
        let m =
            ServeModel::synthetic_shard(ImcDesign::ChgFe, DEFAULT_SEED, i, 2).expect("shard model");
        serve("127.0.0.1:0", Arc::new(m), &ServeConfig::default()).expect("bind shard replica")
    };
    let replicas = [shard(0), shard(1)];
    let addrs: Vec<String> = replicas.iter().map(|r| r.addr().to_string()).collect();
    let plan =
        imc_fleet::FleetPlan::synthetic(ImcDesign::ChgFe, DEFAULT_SEED, 2).expect("fleet plan");
    let (router, admission) = imc_fleet::serve_fleet(
        "127.0.0.1:0",
        plan,
        &addrs,
        imc_fleet::RouterConfig::default(),
    )
    .expect("bind fleet router");
    assert!(admission.is_empty(), "clean admission: {admission:?}");
    let mut client = Client::connect(router.addr()).expect("connect fleet");
    for id in 0..4u64 {
        client.infer(id, input.clone()).expect("fleet infer");
    }
    router.shutdown();
    for r in replicas {
        r.shutdown_flag().trigger();
        r.join();
    }

    // Serve traffic: an in-process server and a handful of requests.
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_depth: 64,
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", model, &cfg).expect("bind serve");
    let mut client = Client::connect(handle.addr()).expect("connect serve");
    let input: Vec<f32> = (0..MNIST_FEATURES)
        .map(|i| (i % 11) as f32 / 11.0)
        .collect();
    for id in 0..8u64 {
        client.infer(id, input.clone()).expect("infer");
    }
    handle.shutdown_flag().trigger();
    handle.join();

    // Compile pipeline: pass spans and programming counters.
    let arch = imc_compile::image::MlpArch {
        features: 32,
        hidden: 8,
        classes: 4,
    };
    let mut opts = imc_compile::pipeline::CompileOptions::new(arch, ImcDesign::ChgFe);
    opts.program.stride = 8;
    opts.probe_count = 4;
    let mut ledger = imc_compile::wear::WearLedger::fresh(opts.geometry.banks);
    imc_compile::pipeline::compile(&opts, &mut ledger).expect("compile");

    // One DC operating point: Newton iteration / LU counters.
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
    .expect("op converges");

    // A pooled MC batch: trial counters and pool gauges.
    let res = analog_sim::montecarlo::run_trials_par(64, 9, |seed| Ok(seed as f64 * 1e-9));
    assert_eq!(res.values.len(), 64);
}

#[test]
fn scrape_during_live_work_exposes_every_layer() {
    let obs = imc_obs::serve_http("127.0.0.1:0").expect("bind obs endpoint");
    let addr = obs.addr().to_string();

    generate_work();

    let (status, text) = raw_get(&addr, "/metrics");
    assert!(status.contains("200"), "bad /metrics status: {status}");
    for family in [
        // Serve latency quantiles (acceptance criterion).
        "imc_serve_request_latency_us{quantile=\"0.5\"}",
        "imc_serve_request_latency_us{quantile=\"0.95\"}",
        "imc_serve_request_latency_us{quantile=\"0.99\"}",
        "imc_serve_request_latency_us_count",
        // Pool utilization (acceptance criterion).
        "par_exec_pool_utilization",
        "par_exec_jobs_total",
        // Compile pass timings as spans (acceptance criterion).
        "span_us{span=\"pass.placement\"",
        "span_us{span=\"pass.programming\"",
        "span_us{span=\"pass.predict\"",
        // The packed MAC kernel's hot-path span.
        "span_us{span=\"kernel.packed_mac\"",
        "imc_compile_programmed_cells_total",
        // Sim Newton-iteration counters (acceptance criterion).
        "sim_newton_iterations_total",
        "sim_newton_solves_total",
        "sim_lu_factor_ns",
        // MC throughput counters.
        "sim_mc_trials_total",
        "sim_mc_trial_failures_total",
        // Fleet per-shard/per-replica labeled families (labels render
        // sorted by key, so `replica` precedes `shard`).
        "fleet.infer_total",
        "fleet.shard_requests{replica=\"",
        ",shard=\"0\"}",
        ",shard=\"1\"}",
        "fleet.replica_healthy{replica=\"",
    ] {
        assert!(
            text.contains(family),
            "scrape is missing `{family}`; got:\n{text}"
        );
    }
    // Counters that must be non-zero after the generated work.
    let counter_value = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for `{name}`"))
    };
    assert!(counter_value("sim_newton_iterations_total") >= 1.0);
    assert!(counter_value("imc_serve_completed_total") >= 8.0);
    assert!(counter_value("sim_mc_trials_total") >= 64.0);
    assert!(counter_value("fleet.infer_total") >= 4.0);

    // The JSON route serves the same registry and must parse.
    let (status, json) = raw_get(&addr, "/metrics.json");
    assert!(status.contains("200"), "bad /metrics.json status: {status}");
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("snapshot JSON parses");
    let metrics = parsed
        .field("metrics")
        .and_then(serde_json::Value::items)
        .expect("metrics array");
    let has_metric = |name: &str| {
        metrics
            .iter()
            .any(|m| m.field("name").and_then(serde_json::Value::as_str) == Ok(name))
    };
    assert!(
        has_metric("imc_serve_request_latency_us"),
        "JSON snapshot lacks serve latency histogram"
    );
    assert!(
        has_metric("sim_newton_iterations_total"),
        "JSON snapshot lacks Newton counter"
    );

    obs.stop();
}
