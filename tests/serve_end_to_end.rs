//! End-to-end tests of the `imc-serve` inference service: a real server
//! on an ephemeral port, a real TCP client, and the two properties the
//! service guarantees — responses bit-identical to direct `QNetwork`
//! execution regardless of batching, and explicit shed (never a hang)
//! when the admission queue overflows.

use std::sync::Arc;
use std::time::Duration;

use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::{InferRequest, PartialRequest, Request, Response};
use imc_serve::{serve, wire, Client, ServeConfig};
use neural::imc_exec::ImcDesign;

fn test_input(k: usize) -> Vec<f32> {
    (0..MNIST_FEATURES)
        .map(|i| ((i * (k + 3)) % 23) as f32 / 23.0)
        .collect()
}

/// Joins the handle on a helper thread so a drain bug fails the test
/// instead of hanging the harness forever.
fn join_with_deadline(handle: imc_serve::ServerHandle) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        done_tx.send(())
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server join did not return within 30s");
}

#[test]
fn batched_responses_are_bit_identical_to_direct_execution() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_millis(5),
        queue_depth: 64,
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
                assert_eq!(r.bank, 0, "one executor labels every batch bank 0");
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

    // The metrics reflect the completed work: every request answered,
    // in fewer batches than requests since one batch coalesced.
    let metrics = handle.metrics();
    assert_eq!(metrics.admitted.get(), N as u64);
    assert_eq!(metrics.completed.get(), N as u64);
    assert_eq!(
        metrics.request_latency.summary().count,
        metrics.completed.get()
    );
    assert!((1..N as u64).contains(&metrics.batches.get()));

    // Graceful shutdown by control request; join must drain and return.
    client.shutdown().expect("shutdown ack");
    join_with_deadline(handle);
}

#[test]
fn bin1_version_mismatch_is_nacked_and_the_listener_survives() {
    use std::io::{Read as _, Write as _};

    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let handle = serve("127.0.0.1:0", model, &ServeConfig::default()).expect("bind");

    // Openings other than the hello — the magic with an older or newer
    // version, or a big-endian length prefix and 10,000 nested `[` —
    // get MAGIC + 0x00 (explicit nack) and a close: no hang, and no
    // parser ever sees the bytes.
    let mut nested = 10_000u32.to_be_bytes().to_vec();
    nested.resize(4 + 10_000, b'[');
    let mut openings: Vec<(String, Vec<u8>)> = [wire::VERSION - 1, wire::VERSION + 1]
        .into_iter()
        .map(|v| (format!("version {v}"), [&wire::MAGIC[..], &[v]].concat()))
        .collect();
    openings.push(("10,000 nested `[`".to_owned(), nested));
    for (what, opening) in openings {
        let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        // The server may close before reading all of a long opening.
        let _ = s.write_all(&opening);
        let mut ack = [0u8; 5];
        s.read_exact(&mut ack).expect("nack bytes");
        assert_eq!(&ack[..4], &wire::MAGIC, "{what}");
        assert_eq!(ack[4], 0, "expected a nack of {what}");
        let mut rest = [0u8; 8];
        match s.read(&mut rest) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("connection should close after nack, got {n} more bytes"),
        }
    }
    assert!(handle.metrics().protocol_errors.get() >= 3);

    // A correct client still works afterwards.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping after nacks");

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
        max_batch: 64,
        max_wait: Duration::from_millis(500),
        queue_depth: 4,
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

    assert_eq!(handle.metrics().shed.get(), sheds as u64);
    assert_eq!(handle.metrics().completed.get(), outputs as u64);

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn non_finite_logits_classify_instead_of_killing_the_worker() {
    // Huge-but-finite positive features pass admission validation (they
    // are valid `f32`s ≥ 0) yet overflow the analog dequantization into
    // inf/NaN logits. The old response path ranked classes with
    // `partial_cmp(..).expect("finite logits")`, so one such request
    // panicked its batch; now `argmax_total` ranks NaN below every
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
            // Every logit crosses the wire bit for bit, inf and NaN too.
            assert_eq!(r.logits.len(), direct.len());
            for (a, b) in r.logits.iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits(), "logit {b} changed on the wire");
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
    assert_eq!(handle.metrics().completed.get(), 2);

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn nan_and_negative_features_are_rejected_at_admission() {
    // NaN features would trip `quantize_activations`' non-negativity
    // assertion inside the executor; the server rejects them (and
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

    // A `Partial` whose codes are not 4-bit activation codes.
    let mut codes = vec![1.0; MNIST_FEATURES];
    codes[5] = 300.0;
    client
        .send(&Request::Partial(PartialRequest {
            id: 2,
            layer: 0,
            chunk_lo: 0,
            chunk_hi: 1,
            codes,
            trace: None,
        }))
        .expect("send");
    match client.recv().expect("recv").expect("open") {
        Response::Error(msg) => assert!(msg.contains("activation code 5"), "got: {msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    client.ping().expect("connection survives a bad partial");

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}
