//! End-to-end tests of the `imc-serve` inference service: a real server
//! on an ephemeral port, a real TCP client, and the two properties the
//! service guarantees — responses bit-identical to direct `QNetwork`
//! execution regardless of batching, and explicit shed (never a hang)
//! when the admission queue overflows.

use std::sync::Arc;
use std::time::Duration;

use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::{InferRequest, Request, Response};
use imc_serve::{serve, wire, Client, ClientConfig, Proto, ServeConfig};
use neural::imc_exec::ImcDesign;

fn test_input(k: usize) -> Vec<f32> {
    (0..MNIST_FEATURES)
        .map(|i| ((i * (k + 3)) % 23) as f32 / 23.0)
        .collect()
}

/// Joins the handle on a helper thread so a drain bug fails the test
/// instead of hanging the harness forever.
fn join_with_deadline(handle: imc_serve::ServerHandle) {
    let j = std::thread::spawn(move || handle.join());
    let t0 = std::time::Instant::now();
    while !j.is_finished() {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "server join did not complete within 30s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    j.join().expect("join thread panicked");
}

#[test]
fn batched_responses_are_bit_identical_to_direct_execution() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        banks: 4,
        max_batch: 8,
        max_wait: Duration::from_millis(5),
        queue_depth: 64,
        service_delay: Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.ping().expect("ping");

    // Pipeline a burst so the dynamic batcher actually coalesces
    // requests; bit-identity must hold regardless of batch composition.
    const N: usize = 12;
    for id in 0..N as u64 {
        client
            .send(&Request::Infer(InferRequest {
                id,
                input: test_input(id as usize),
                trace: None,
            }))
            .expect("send");
    }
    let mut got = 0usize;
    let mut saw_multi_request_batch = false;
    for _ in 0..N {
        match client.recv().expect("recv").expect("open stream") {
            Response::Output(r) => {
                let direct = model.infer_one(&test_input(r.id as usize));
                assert_eq!(r.logits.len(), direct.len());
                for (a, b) in r.logits.iter().zip(&direct) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "request {} diverged from direct execution",
                        r.id
                    );
                }
                let expected_class = direct
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap();
                assert_eq!(r.class, expected_class);
                assert!(r.bank < cfg.banks);
                saw_multi_request_batch |= r.batch > 1;
                got += 1;
            }
            other => panic!("expected Output, got {other:?}"),
        }
    }
    assert_eq!(got, N);
    assert!(
        saw_multi_request_batch,
        "a pipelined burst of {N} should coalesce at least once"
    );

    // Stats reflect the completed work.
    let stats = client.stats().expect("stats");
    assert!(stats.admitted >= N as u64);
    assert!(stats.completed >= N as u64);
    assert_eq!(stats.request_latency.count, stats.completed);
    assert!(stats.banks.iter().map(|b| b.requests).sum::<u64>() >= N as u64);

    // Graceful shutdown by control request; join must drain and return.
    client.shutdown().expect("shutdown ack");
    join_with_deadline(handle);
}

#[test]
fn bin1_and_json_clients_interoperate_bit_exactly_on_one_server() {
    // The negotiated BIN1 path and the JSON fallback share a server,
    // banks, and batcher; both protocols must deliver the same
    // bit-exact logits as direct `QNetwork` execution — encoding is
    // transport, never arithmetic.
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        banks: 2,
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind");

    let mut bin = Client::connect_with(
        handle.addr(),
        ClientConfig {
            proto: Proto::Bin,
            ..ClientConfig::default()
        },
    )
    .expect("bin connect + handshake");
    let mut json = Client::connect(handle.addr()).expect("json connect");

    bin.ping().expect("bin ping");
    json.ping().expect("json ping");

    // Pipeline a burst over BIN1 so the batcher coalesces; every reply
    // must be bit-identical to direct execution.
    const N: usize = 10;
    for id in 0..N as u64 {
        bin.send(&Request::Infer(InferRequest {
            id,
            input: test_input(id as usize),
            trace: None,
        }))
        .expect("bin send");
    }
    for _ in 0..N {
        match bin.recv().expect("bin recv").expect("open stream") {
            Response::Output(r) => {
                let direct = model.infer_one(&test_input(r.id as usize));
                for (a, b) in r.logits.iter().zip(&direct) {
                    assert_eq!(a.to_bits(), b.to_bits(), "BIN1 request {} diverged", r.id);
                }
            }
            other => panic!("expected Output, got {other:?}"),
        }
    }

    // The same request over both protocols yields identical logits.
    let probe = test_input(7);
    let via_bin = match bin.infer(100, probe.clone()).expect("bin infer") {
        Response::Output(r) => r.logits,
        other => panic!("expected Output, got {other:?}"),
    };
    let via_json = match json.infer(101, probe).expect("json infer") {
        Response::Output(r) => r.logits,
        other => panic!("expected Output, got {other:?}"),
    };
    assert_eq!(via_bin.len(), via_json.len());
    for (a, b) in via_bin.iter().zip(&via_json) {
        assert_eq!(a.to_bits(), b.to_bits(), "protocols diverged on one input");
    }

    // Control-plane requests work over BIN1 too.
    let stats = bin.stats().expect("bin stats");
    assert!(stats.completed >= (N + 2) as u64);

    // Typed errors cross the binary wire: a mis-sized input.
    bin.send(&Request::Infer(InferRequest {
        id: 200,
        input: vec![0.25; 5],
        trace: None,
    }))
    .expect("bin send bad");
    match bin.recv().expect("recv").expect("open") {
        Response::Error(msg) => assert!(msg.contains("features"), "got: {msg}"),
        other => panic!("expected Error, got {other:?}"),
    }

    bin.shutdown().expect("shutdown over BIN1");
    join_with_deadline(handle);
}

#[test]
fn bin1_version_mismatch_is_nacked_and_the_listener_survives() {
    use std::io::{Read as _, Write as _};

    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let handle = serve("127.0.0.1:0", model, &ServeConfig::default()).expect("bind");

    // Speak the magic with an unsupported version, older or newer: the
    // server answers MAGIC + 0x00 (explicit nack) and closes — no hang,
    // no JSON misinterpretation of the magic bytes.
    for version in [wire::VERSION - 1, wire::VERSION + 1] {
        let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut hello = wire::MAGIC.to_vec();
        hello.push(version);
        s.write_all(&hello).expect("hello");
        let mut ack = [0u8; 5];
        s.read_exact(&mut ack).expect("nack bytes");
        assert_eq!(&ack[..4], &wire::MAGIC);
        assert_eq!(ack[4], 0, "expected a nack of version {version}");
        let mut rest = [0u8; 8];
        match s.read(&mut rest) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("connection should close after nack, got {n} more bytes"),
        }
    }

    // A correct client (and the JSON fallback) still work afterwards.
    let mut bin = Client::connect_with(
        handle.addr(),
        ClientConfig {
            proto: Proto::Bin,
            ..ClientConfig::default()
        },
    )
    .expect("bin connect");
    bin.ping().expect("bin ping after nack");
    let mut json = Client::connect(handle.addr()).expect("json connect");
    json.ping().expect("json ping after nack");

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn queue_overflow_sheds_explicitly_and_answers_every_request() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::CurFe, DEFAULT_SEED));
    // A tiny admission queue and a long flush deadline: the batcher holds
    // admitted requests in the queue, so a pipelined burst overflows it
    // deterministically.
    let cfg = ServeConfig {
        banks: 1,
        max_batch: 64,
        max_wait: Duration::from_millis(500),
        queue_depth: 4,
        service_delay: Duration::ZERO,
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    const N: usize = 12;
    for id in 0..N as u64 {
        client
            .send(&Request::Infer(InferRequest {
                id,
                input: test_input(0),
                trace: None,
            }))
            .expect("send");
    }
    let mut outputs = 0usize;
    let mut sheds = 0usize;
    for _ in 0..N {
        match client.recv().expect("recv").expect("open stream") {
            Response::Output(r) => {
                // Shed or not, served answers stay bit-exact.
                let direct = model.infer_one(&test_input(0));
                for (a, b) in r.logits.iter().zip(&direct) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                outputs += 1;
            }
            Response::Shed(s) => {
                assert_eq!(s.reason, "queue full");
                sheds += 1;
            }
            other => panic!("expected Output or Shed, got {other:?}"),
        }
    }
    assert_eq!(outputs + sheds, N, "every request gets exactly one answer");
    assert!(sheds > 0, "a burst past queue_depth must shed");
    assert!(
        outputs >= cfg.queue_depth,
        "requests admitted before overflow still complete"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.shed, sheds as u64);
    assert_eq!(stats.completed, outputs as u64);

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn non_finite_logits_classify_instead_of_killing_the_worker() {
    // Huge-but-finite positive features pass admission validation (they
    // are valid `f32`s ≥ 0) yet overflow the analog dequantization into
    // inf/NaN logits. The old response path ranked classes with
    // `partial_cmp(..).expect("finite logits")`, so one such request
    // panicked a bank worker; now `argmax_total` ranks NaN below every
    // real logit and the request gets an ordinary bit-exact answer.
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig::default();
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let hot = vec![3.0e38f32; MNIST_FEATURES];
    let direct = model.infer_one(&hot);
    assert!(
        direct.iter().any(|v| !v.is_finite()),
        "test input must actually drive the logits non-finite, got {direct:?}"
    );

    match client.infer(99, hot.clone()).expect("infer") {
        Response::Output(r) => {
            // JSON has no inf/NaN literal: non-finite logits cross the
            // wire as null and arrive as NaN. Finite ones stay bit-exact.
            for (a, b) in r.logits.iter().zip(&direct) {
                if b.is_finite() {
                    assert_eq!(a.to_bits(), b.to_bits(), "finite logits stay bit-exact");
                } else {
                    assert!(a.is_nan(), "non-finite logit should arrive as NaN");
                }
            }
            // The class is ranked server-side from the true logits.
            assert_eq!(r.class, imc_serve::server::argmax_total(&direct));
        }
        other => panic!("expected Output, got {other:?}"),
    }

    // The worker survived: a normal request still round-trips.
    match client.infer(100, test_input(1)).expect("infer") {
        Response::Output(r) => assert_eq!(r.id, 100),
        other => panic!("expected Output, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.completed, 2);

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn nan_and_negative_features_are_rejected_at_admission() {
    // NaN features would trip `quantize_activations`' non-negativity
    // assertion inside a bank worker; the server rejects them (and
    // negatives) with a typed Error before they reach the model.
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let handle = serve("127.0.0.1:0", model, &ServeConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for bad in [f32::NAN, -1.0] {
        let mut input = test_input(0);
        input[7] = bad;
        match client.infer(1, input).expect("infer") {
            Response::Error(msg) => {
                assert!(msg.contains("NaN or negative"), "got: {msg}");
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }
    client
        .ping()
        .expect("connection survives rejected requests");

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn malformed_and_mis_sized_requests_get_error_responses() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let handle = serve("127.0.0.1:0", model, &ServeConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Wrong feature count → explicit protocol error, connection stays up.
    client
        .send(&Request::Infer(InferRequest {
            id: 1,
            input: vec![0.5; 3],
            trace: None,
        }))
        .expect("send");
    match client.recv().expect("recv").expect("open") {
        Response::Error(msg) => assert!(msg.contains("features"), "got: {msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    client.ping().expect("connection survives a bad request");

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}
