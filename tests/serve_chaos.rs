//! Chaos tests for `imc-serve`: every fault class the hardening layer
//! claims to survive, exercised against a real server — misbehaving
//! bytes through the [`imc_bench::chaos`] proxy, raw-socket protocol
//! abuse, forced worker panics through the config fail-point, and the
//! connection cap. The invariant throughout: the server keeps serving,
//! and requests not touched by a fault keep their bit-exact answers.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imc_bench::chaos::{ChaosProxy, Fault};
use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::{Request, Response};
use imc_serve::{serve, wire, Client, ClientConfig, ServeConfig, ServerHandle};
use neural::imc_exec::ImcDesign;

fn test_input(k: usize) -> Vec<f32> {
    (0..MNIST_FEATURES)
        .map(|i| ((i * (k + 3)) % 23) as f32 / 23.0)
        .collect()
}

/// Joins the handle on a helper thread so a drain bug fails the test
/// instead of hanging the harness forever.
fn join_with_deadline(handle: ServerHandle) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        done_tx.send(())
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server join did not return within 30s");
}

/// Polls `cond` until it holds or `within` elapses.
fn eventually(within: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < within, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A raw socket past the `BIN1` handshake: what follows is up to the
/// test, not the client's well-formed framing.
fn handshaken(handle: &ServerHandle) -> TcpStream {
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    wire::client_handshake(&mut s).expect("handshake");
    s
}

fn assert_bit_exact(model: &ServeModel, r: &imc_serve::protocol::InferReply, k: usize) {
    let direct = model.infer_one(&test_input(k));
    assert_eq!(r.logits.len(), direct.len());
    for (a, b) in r.logits.iter().zip(&direct) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "request {} diverged from direct execution",
            r.id
        );
    }
}

#[test]
fn bin1_through_the_chaos_proxy_stays_bit_exact_and_errors_are_typed() {
    // Byte-level abuse through the proxy. Stream layout on a BIN1
    // connection: 5 hello bytes, then
    // a 4-byte LE length prefix, kind (1), id (8), count (4), payload.
    // Corrupting stream byte 19 flips a bit inside the Infer frame's
    // f32 *count* field — the length prefix stays intact, so the server
    // sees a well-framed body whose declared count disagrees with its
    // size: a typed decode error, never a desynced stream.
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &ServeConfig::default()).expect("bind");
    let proxy = ChaosProxy::start(handle.addr(), |conn| {
        if conn == 0 {
            Fault::None
        } else {
            Fault::CorruptAfter(19)
        }
    })
    .expect("start proxy");
    let proxy_addr = proxy.addr().to_string();

    let mut clean =
        Client::connect_with(proxy_addr.as_str(), ClientConfig::default()).expect("clean connect");
    clean.ping().expect("clean ping"); // pin connection index 0
    let mut corrupt = Client::connect_with(proxy_addr.as_str(), ClientConfig::default())
        .expect("corrupt connect");

    // The corrupted frame comes back as a typed Error over BIN1.
    match corrupt.infer(500, test_input(0)).expect("corrupt infer") {
        Response::Error(_) => {}
        other => panic!("expected Error for the corrupted frame, got {other:?}"),
    }

    // Clean BIN1 traffic through the same proxy stays bit-exact.
    for k in 0..6usize {
        match clean.infer(k as u64, test_input(k)).expect("clean infer") {
            Response::Output(r) => assert_bit_exact(&model, &r, k),
            other => panic!("expected Output, got {other:?}"),
        }
    }

    // The fault fires once; afterwards the same connection serves
    // bit-exact answers — framing survived the corrupt body.
    match corrupt.infer(501, test_input(1)).expect("later infer") {
        Response::Output(r) => assert_bit_exact(&model, &r, 1),
        other => panic!("expected Output, got {other:?}"),
    }
    assert!(handle.metrics().protocol_errors.get() >= 1);

    drop(proxy);
    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn bin1_seeded_chaos_mix_preserves_bit_exactness_for_untouched_requests() {
    // The loadgen chaos blend: faulted connections may die at any point
    // (including during the handshake), but every Output that does
    // arrive must match direct execution bit-for-bit.
    let model = Arc::new(ServeModel::synthetic(ImcDesign::CurFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        frame_deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind");
    let proxy =
        ChaosProxy::start(handle.addr(), |conn| Fault::seeded_mix(0xB1F1, conn)).expect("proxy");
    let proxy_addr = proxy.addr().to_string();

    let mut outputs = 0usize;
    for conn in 0..6usize {
        let Ok(mut client) = Client::connect_with(proxy_addr.as_str(), ClientConfig::default())
        else {
            continue; // handshake through a faulted connection may fail
        };
        for k in 0..4usize {
            let id = (conn * 10 + k) as u64;
            let mut sock_dead = false;
            match client.infer(id, test_input(k)) {
                Ok(Response::Output(r)) => {
                    assert_bit_exact(&model, &r, k);
                    outputs += 1;
                }
                Ok(Response::Error(_) | Response::Shed(_) | Response::Failed(_)) => {}
                Ok(other) => panic!("unexpected response {other:?}"),
                Err(_) => sock_dead = true,
            }
            if sock_dead {
                break;
            }
        }
    }
    assert!(
        outputs >= 4,
        "the seeded mix keeps clean connections; got only {outputs} outputs"
    );

    // After the storm: direct traffic is untouched.
    let mut direct = Client::connect_with(handle.addr(), ClientConfig::default()).expect("connect");
    match direct.infer(999, test_input(5)).expect("infer") {
        Response::Output(r) => assert_bit_exact(&model, &r, 5),
        other => panic!("expected Output, got {other:?}"),
    }

    drop(proxy);
    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn client_vanishing_mid_frame_is_cleaned_up() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &ServeConfig::default()).expect("bind");
    let metrics = handle.metrics_handle();

    // Claim a 100-byte frame, deliver 10 bytes, vanish.
    {
        let mut s = handshaken(&handle);
        s.write_all(&100u32.to_le_bytes()).expect("prefix");
        s.write_all(&[0x7B; 10]).expect("partial body");
    } // dropped: the server reads EOF inside the frame
    eventually(Duration::from_secs(5), "mid-frame EOF counted", || {
        metrics.protocol_errors.get() >= 1
    });

    // Nobody else noticed.
    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.infer(1, test_input(2)).expect("infer") {
        Response::Output(r) => assert_bit_exact(&model, &r, 2),
        other => panic!("expected Output, got {other:?}"),
    }

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn forced_worker_panic_returns_typed_failed_and_recovers() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let sentinel = 7.5f32;
    // The server has one executor, so recovery must happen in place.
    let cfg = ServeConfig {
        fail_input_sentinel: Some(sentinel),
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut poisoned = test_input(0);
    poisoned[0] = sentinel;

    // The panicking batch comes back as a typed Failed, not a hang.
    match client.infer(66, poisoned.clone()).expect("infer") {
        Response::Failed(f) => {
            assert_eq!(f.id, 66);
            assert!(f.reason.contains("panic"), "reason: {}", f.reason);
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(handle.metrics().worker_panics.get(), 1);

    // The one executor survived and still answers bit-exactly.
    match client.infer(67, test_input(3)).expect("infer") {
        Response::Output(r) => assert_bit_exact(&model, &r, 3),
        other => panic!("expected Output, got {other:?}"),
    }

    // A retrying client sees the deterministic failure on every attempt
    // and surfaces the final typed Failed (each attempt = one panic).
    let policy = imc_serve::RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(10),
        jitter_seed: 9,
    };
    match client.infer_retry(68, &poisoned, &policy).expect("retry") {
        Response::Failed(f) => assert_eq!(f.id, 68),
        other => panic!("expected Failed after retries, got {other:?}"),
    }
    assert_eq!(handle.metrics().worker_panics.get(), 3);

    // Still healthy after three recoveries.
    client.ping().expect("ping after panics");

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn stalled_half_frame_is_dropped_at_the_deadline_without_collateral() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        frame_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind");
    let metrics = handle.metrics_handle();

    // Two bytes of a length prefix, then silence with the socket open —
    // the attack that used to park an imc-conn thread forever.
    let mut stalled = handshaken(&handle);
    stalled.write_all(&[0x00, 0x00]).expect("half a prefix");

    // Healthy traffic flows while the stalled connection ages out.
    let mut client = Client::connect(handle.addr()).expect("connect");
    for k in 0..4usize {
        match client.infer(k as u64, test_input(k)).expect("infer") {
            Response::Output(r) => assert_bit_exact(&model, &r, k),
            other => panic!("expected Output, got {other:?}"),
        }
    }

    eventually(Duration::from_secs(5), "deadline drop counted", || {
        metrics.conn_deadline_drops.get() >= 1
    });
    // The server actually closed the stalled socket, reclaiming its
    // thread: the next read sees EOF (or a reset), never more data.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let mut buf = [0u8; 16];
    match stalled.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("stalled connection unexpectedly received {n} bytes"),
    }

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn slow_writer_finishing_under_the_deadline_is_served() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        frame_deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind");

    // A Ping frame trickled out a byte at a time: slow, but always
    // inside the deadline — the server must wait, not drop.
    let mut frame = Vec::new();
    wire::encode_request(&Request::Ping, &mut frame);
    let mut s = handshaken(&handle);
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    for byte in &frame {
        s.write_all(std::slice::from_ref(byte)).expect("trickle");
        std::thread::sleep(Duration::from_millis(40));
    }
    match wire::read_response(&mut s, &mut Vec::new()).expect("read") {
        Some(Response::Pong) => {}
        other => panic!("expected Pong, got {other:?}"),
    }

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn oversized_length_prefix_is_rejected_promptly() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    // Default 10s frame deadline: the rejection must NOT wait for it —
    // an oversized claim is detectable the moment the prefix lands.
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &ServeConfig::default()).expect("bind");
    let metrics = handle.metrics_handle();

    let mut s = handshaken(&handle);
    s.write_all(&u32::MAX.to_le_bytes()).expect("huge prefix");
    let t0 = Instant::now();
    s.set_read_timeout(Some(Duration::from_secs(8))).ok();
    // A typed Error frame names the cap, then the server closes.
    let mut arena = Vec::new();
    match wire::read_response(&mut s, &mut arena).expect("error frame") {
        Some(Response::Error(msg)) => assert!(msg.contains("exceeds"), "got: {msg}"),
        other => panic!("expected a typed Error, got {other:?}"),
    }
    let mut buf = [0u8; 16];
    match s.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected the connection closed, got {n} bytes"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "oversized prefix should be rejected immediately, waited {:?}",
        t0.elapsed()
    );
    eventually(Duration::from_secs(5), "oversize counted", || {
        metrics.protocol_errors.get() >= 1
    });

    // The listener is unaffected.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn connection_cap_answers_busy_and_frees_slots() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        max_conns: 1,
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind");
    let metrics = handle.metrics_handle();

    let mut first = Client::connect(handle.addr()).expect("first connect");
    first.ping().expect("first ping"); // the slot is definitely taken

    // The second connection gets a typed Busy frame, unprompted, and a
    // close.
    let mut second = TcpStream::connect(handle.addr()).expect("second connect");
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    match wire::read_response(&mut second, &mut Vec::new()).expect("recv busy") {
        Some(Response::Busy(b)) => {
            assert_eq!(b.limit, 1);
            assert!(b.active >= 1);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(metrics.busy_rejects.get() >= 1);
    // A client's handshake reads that Busy as backpressure.
    match Client::connect(handle.addr()) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused, "{e}"),
        Ok(_) => panic!("a full server must refuse the handshake"),
    }

    // Dropping the first connection frees the slot (eventually — the
    // conn thread must notice EOF), after which new clients are served.
    drop(first);
    eventually(
        Duration::from_secs(5),
        "slot freed for a new client",
        || Client::connect(handle.addr()).is_ok_and(|mut c| c.ping().is_ok()),
    );

    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn resilience_counters_are_exported_over_http() {
    // Starting a server registers the counter families; the obs HTTP
    // endpoint must then expose all three resilience families to a
    // Prometheus-style scrape.
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let handle = serve("127.0.0.1:0", model, &ServeConfig::default()).expect("bind");
    let obs = imc_obs::serve_http("127.0.0.1:0").expect("bind obs");

    let mut stream = TcpStream::connect(obs.addr()).expect("connect obs");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {}\r\n\r\n",
        obs.addr()
    )
    .expect("write request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read scrape");

    for family in [
        "imc_serve_worker_panics_total",
        "imc_serve_conn_deadline_drops_total",
        "imc_serve_busy_rejects_total",
    ] {
        assert!(body.contains(family), "scrape is missing {family}");
    }

    obs.stop();
    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}
