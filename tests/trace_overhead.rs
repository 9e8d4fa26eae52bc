//! Tracing-overhead gate: closed-loop `BIN1` single-node serving with
//! every request carrying a trace context (each answer's record offered
//! to the flight recorder) must stay within 5% of the same serving
//! untraced, on one server in one process. Traced answers must also
//! bit-match the oracle and echo their request's trace id.
//!
//! Timing in a debug build measures the debug build, so the gate only
//! runs in release:
//!
//! ```text
//! cargo test --release --test trace_overhead -- --nocapture
//! ```
//!
//! perfbench reports the same overhead on its workloads as
//! `obs.trace_overhead_frac`; this test is the pass/fail bound.

use std::sync::Arc;
use std::time::{Duration, Instant};

use imc_serve::model::{ServeModel, DEFAULT_SEED};
use imc_serve::protocol::Response;
use imc_serve::{serve, Client, ClientConfig, ServeConfig};
use neural::imc_exec::ImcDesign;

/// Timed requests per mode.
const REQUESTS: usize = 1600;

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort_unstable();
    v[v.len() / 2]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: cargo test --release --test trace_overhead"
)]
fn traced_bin1_serving_stays_within_five_percent_of_untraced() {
    let design = ImcDesign::ChgFe;
    let oracle = ServeModel::synthetic(design, DEFAULT_SEED);
    let input: Vec<f32> = (0..oracle.input_features())
        .map(|i| (i % 17) as f32 / 17.0)
        .collect();
    let expect = oracle.infer_one(&input);
    let scfg = ServeConfig {
        max_wait: Duration::ZERO,
        ..ServeConfig::default()
    };
    let single = serve(
        "127.0.0.1:0",
        Arc::new(ServeModel::synthetic(design, DEFAULT_SEED)),
        &scfg,
    )
    .expect("bind single server");
    let mut client = Client::connect_with(single.addr(), ClientConfig::default()).expect("connect");
    for id in 0..32u64 {
        client.infer(id, input.clone()).expect("warmup infer");
    }

    // One closed loop that alternates the modes request by request. On
    // shared cores the host's speed drifts by tens of percent within a
    // second, so two separately timed loops can differ by more than the
    // bound with tracing off in both; alternating gives both modes the
    // same conditions, and the median ignores preemption spikes. With
    // one request in flight, throughput is 1 / latency.
    let mut bit_exact = true;
    let (mut untraced, mut traced) = (Vec::with_capacity(REQUESTS), Vec::with_capacity(REQUESTS));
    for k in 0..2 * REQUESTS {
        let trace = k % 2 == 1;
        let t0 = Instant::now();
        let ctx = trace.then(|| imc_obs::TraceContext::new_root().child(imc_obs::next_span_id()));
        let want_trace = ctx.map_or(0, |c| c.trace_id);
        match client
            .infer_traced(1000 + k as u64, input.clone(), ctx)
            .expect("infer")
        {
            Response::Output(r) => {
                if r.trace_id != want_trace
                    || r.logits.len() != expect.len()
                    || !expect
                        .iter()
                        .zip(&r.logits)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    bit_exact = false;
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
        let took = t0.elapsed();
        if trace {
            traced.push(took);
        } else {
            untraced.push(took);
        }
    }
    drop(client);
    single.shutdown_flag().trigger();
    single.join();

    let (untraced, traced) = (median(untraced), median(traced));
    let overhead = 1.0 - untraced.as_secs_f64() / traced.as_secs_f64();
    println!(
        "trace overhead {:+.2}%: median {traced:?} traced vs {untraced:?} untraced \
         ({REQUESTS} requests per mode, {} trace records in the ring)",
        overhead * 100.0,
        imc_obs::recorder().snapshot().len(),
    );
    assert!(bit_exact, "traced answers diverged from the oracle");
    assert!(
        overhead < 0.05,
        "tracing overhead {:.1}% exceeds the 5% bound (median {traced:?} traced vs {untraced:?} untraced)",
        overhead * 100.0,
    );
}
