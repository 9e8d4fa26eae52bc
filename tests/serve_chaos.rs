//! Chaos tests for the BIN1 front door and the server behind it: every
//! fault class the hardening layer claims to survive, exercised against
//! a real server — misbehaving bytes through the [`imc_bench::chaos`]
//! proxy, raw-socket protocol abuse, forced worker panics through the
//! config fail-point, and the connection cap. The door's own tests run
//! on both doors, `imc-serve` and a one-replica `imc-fleet` router, since
//! both accept through `imc_serve::door`; the router has only the
//! default limits, so cases that need a short deadline or a small cap
//! run on `imc-serve`, which shares the code. The invariant throughout:
//! the server keeps serving, and requests not touched by a fault keep
//! their bit-exact answers.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use imc_bench::chaos::{ChaosProxy, Fault};
use imc_fleet::{serve_fleet, FleetHandle, FleetPlan, RouterConfig};
use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::{Request, Response};
use imc_serve::{
    serve, wire, Client, ClientConfig, ConnLimits, DoorCounters, ServeConfig, ServerHandle,
};
use neural::imc_exec::ImcDesign;

fn test_input(k: usize) -> Vec<f32> {
    (0..MNIST_FEATURES)
        .map(|i| ((i * (k + 3)) % 23) as f32 / 23.0)
        .collect()
}

/// Joins the handle on a helper thread so a drain bug fails the test
/// instead of hanging the harness forever.
fn join_with_deadline(handle: ServerHandle) {
    let (done_tx, done_rx) = mpsc::channel();
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
fn handshaken(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    wire::client_handshake(&mut s).expect("handshake");
    s
}

/// A client whose every request times out instead of hanging.
fn client(addr: SocketAddr) -> std::io::Result<Client> {
    Client::connect_with(addr, ClientConfig::default())
}

/// Asserts the peer closed `s`: the next read sees EOF or a reset,
/// never more data and never a timeout (longer than the default 10 s
/// frame deadline, which is the router's).
fn assert_closed(mut s: TcpStream, what: &str) {
    s.set_read_timeout(Some(Duration::from_secs(15))).ok();
    match s.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("{what}: expected the connection closed, got {other:?}"),
    }
}

/// The serving model every door test runs, for bit-exact checks.
fn oracle() -> &'static ServeModel {
    static MODEL: OnceLock<ServeModel> = OnceLock::new();
    MODEL.get_or_init(|| ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED))
}

/// A BIN1 front door under test: `imc-serve` itself, or a one-replica
/// `imc-fleet` router in front of a default `imc-serve`.
enum Door {
    Serve(ServerHandle),
    Fleet(FleetHandle, ServerHandle),
}

fn model() -> Arc<ServeModel> {
    Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED))
}

impl Door {
    /// `imc-serve` enforcing `limits`.
    fn serve(limits: ConnLimits) -> Self {
        let cfg = ServeConfig {
            limits,
            ..ServeConfig::default()
        };
        Self::Serve(serve("127.0.0.1:0", model(), &cfg).expect("bind"))
    }

    /// A one-replica router, at the default limits.
    fn fleet() -> Self {
        let replica = serve("127.0.0.1:0", model(), &ServeConfig::default()).expect("bind");
        let plan = FleetPlan::synthetic(ImcDesign::ChgFe, DEFAULT_SEED, 1).expect("plan");
        let replicas = [replica.addr().to_string()];
        let (router, admission) =
            serve_fleet("127.0.0.1:0", plan, &replicas, RouterConfig::default())
                .expect("bind router");
        assert!(admission.is_empty(), "clean admission: {admission:?}");
        Self::Fleet(router, replica)
    }

    /// Both doors at the default limits.
    fn both() -> [Self; 2] {
        [Self::serve(ConnLimits::default()), Self::fleet()]
    }

    fn name(&self) -> &'static str {
        match self {
            Self::Serve(_) => "imc-serve",
            Self::Fleet(..) => "imc-fleet",
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Self::Serve(h) => h.addr(),
            Self::Fleet(router, _) => router.addr(),
        }
    }

    fn counters(&self) -> DoorCounters {
        match self {
            Self::Serve(h) => h.metrics().door.clone(),
            Self::Fleet(router, _) => router.door_counters().clone(),
        }
    }

    /// Runs `scenario` against this door on a helper thread, under a
    /// `recv_timeout`: a door that never answers fails the test instead
    /// of hanging it. Then stops the door.
    fn check(self, scenario: impl FnOnce(SocketAddr, DoorCounters) + Send + 'static) {
        let (name, addr, counters) = (self.name(), self.addr(), self.counters());
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            scenario(addr, counters);
            done_tx.send(())
        });
        match done_rx.recv_timeout(Duration::from_secs(20)) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) => panic!("{name}: hung for 20 s"),
            Err(RecvTimeoutError::Disconnected) => panic!("{name}: failed (panic above)"),
        }
        match self {
            Self::Serve(h) => join_with_deadline(h),
            Self::Fleet(router, replica) => {
                router.shutdown();
                join_with_deadline(replica);
            }
        }
    }
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
    assert!(handle.metrics().door.protocol_errors.get() >= 1);

    drop(proxy);
    handle.shutdown_flag().trigger();
    join_with_deadline(handle);
}

#[test]
fn bin1_seeded_chaos_mix_preserves_bit_exactness_for_untouched_requests() {
    // The seeded fault blend: faulted connections may die at any point
    // (including during the handshake), but every Output that does
    // arrive must match direct execution bit-for-bit.
    let model = Arc::new(ServeModel::synthetic(ImcDesign::CurFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        limits: ConnLimits {
            frame_deadline: Duration::from_millis(500),
            ..ConnLimits::default()
        },
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
        let mut s = handshaken(handle.addr());
        s.write_all(&100u32.to_le_bytes()).expect("prefix");
        s.write_all(&[0x7B; 10]).expect("partial body");
    } // dropped: the server reads EOF inside the frame
    eventually(Duration::from_secs(5), "mid-frame EOF counted", || {
        metrics.door.protocol_errors.get() >= 1
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
    let door = Door::serve(ConnLimits {
        frame_deadline: Duration::from_millis(300),
        ..ConnLimits::default()
    });
    door.check(|addr, counters| {
        // Two bytes of a length prefix, then silence with the socket
        // open — the attack that used to park a connection thread
        // forever.
        let mut stalled = handshaken(addr);
        stalled.write_all(&[0x00, 0x00]).expect("half a prefix");

        // Healthy traffic flows while the stalled connection ages out.
        let mut client = client(addr).expect("connect");
        for k in 0..4usize {
            match client.infer(k as u64, test_input(k)).expect("infer") {
                Response::Output(r) => assert_bit_exact(oracle(), &r, k),
                other => panic!("expected Output, got {other:?}"),
            }
        }

        eventually(Duration::from_secs(5), "deadline drop counted", || {
            counters.conn_deadline_drops.get() >= 1
        });
        // The door actually closed the stalled socket, reclaiming its
        // thread.
        assert_closed(stalled, "stalled half-frame");
    });
}

#[test]
fn half_hello_is_closed_at_the_frame_deadline() {
    // `imc-serve` with a short deadline, the router at its default 10 s.
    let short = ConnLimits {
        frame_deadline: Duration::from_millis(300),
        ..ConnLimits::default()
    };
    let doors = [
        (Door::serve(short), short.frame_deadline),
        (Door::fleet(), ConnLimits::default().frame_deadline),
    ];
    for (door, deadline) in doors {
        door.check(move |addr, counters| {
            // Four of the five hello bytes, then silence.
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&wire::MAGIC).expect("half a hello");
            let t0 = Instant::now();
            assert_closed(s, "half hello");
            assert!(
                t0.elapsed() < deadline + Duration::from_secs(2),
                "closed {:?} after a {deadline:?} deadline",
                t0.elapsed()
            );
            eventually(Duration::from_secs(5), "deadline drop counted", || {
                counters.conn_deadline_drops.get() >= 1
            });
        });
    }
}

#[test]
fn slow_writer_finishing_under_the_deadline_is_served() {
    let model = Arc::new(ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED));
    let cfg = ServeConfig {
        limits: ConnLimits {
            frame_deadline: Duration::from_secs(5),
            ..ConnLimits::default()
        },
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", Arc::clone(&model), &cfg).expect("bind");

    // A Ping frame trickled out a byte at a time: slow, but always
    // inside the deadline — the server must wait, not drop.
    let mut frame = Vec::new();
    wire::encode_request(&Request::Ping, &mut frame);
    let mut s = handshaken(handle.addr());
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
    // Default 10s frame deadline: the rejection must NOT wait for it —
    // an oversized claim is detectable the moment the prefix lands.
    for door in Door::both() {
        door.check(|addr, counters| {
            let mut s = handshaken(addr);
            s.write_all(&u32::MAX.to_le_bytes()).expect("huge prefix");
            let t0 = Instant::now();
            s.set_read_timeout(Some(Duration::from_secs(8))).ok();
            // A typed Error frame names the cap, then the door closes.
            match wire::read_response(&mut s, &mut Vec::new()).expect("error frame") {
                Some(Response::Error(msg)) => assert!(msg.contains("exceeds"), "got: {msg}"),
                other => panic!("expected a typed Error, got {other:?}"),
            }
            assert_closed(s, "oversized prefix");
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "oversized prefix should be rejected immediately, waited {:?}",
                t0.elapsed()
            );
            eventually(Duration::from_secs(5), "oversize counted", || {
                counters.protocol_errors.get() >= 1
            });

            // The listener is unaffected.
            client(addr).expect("connect").ping().expect("ping");
        });
    }
}

#[test]
fn connection_cap_answers_busy_and_frees_slots() {
    let door = Door::serve(ConnLimits {
        max_conns: 1,
        ..ConnLimits::default()
    });
    door.check(|addr, counters| {
        let mut first = client(addr).expect("first connect");
        first.ping().expect("first ping"); // the slot is definitely taken

        // The second connection gets a typed Busy frame, unprompted, and
        // a close.
        let mut second = TcpStream::connect(addr).expect("second connect");
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
        assert!(counters.busy_rejects.get() >= 1);
        // A client's handshake reads that Busy as backpressure.
        match client(addr) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused, "{e}"),
            Ok(_) => panic!("a full door must refuse the handshake"),
        }

        // Dropping the first connection frees the slot (eventually — its
        // thread must notice EOF), after which new clients are served.
        drop(first);
        eventually(
            Duration::from_secs(5),
            "slot freed for a new client",
            || client(addr).is_ok_and(|mut c| c.ping().is_ok()),
        );
    });
}

#[test]
fn malformed_body_is_a_typed_error_and_the_connection_lives() {
    for door in Door::both() {
        door.check(|addr, counters| {
            let mut s = handshaken(addr);
            s.set_read_timeout(Some(Duration::from_secs(5))).ok();
            // A well-framed body of an unassigned request kind.
            s.write_all(&[1, 0, 0, 0, 0x02]).expect("bad frame");
            match wire::read_response(&mut s, &mut Vec::new()).expect("error frame") {
                Some(Response::Error(msg)) => assert!(msg.contains("kind"), "got: {msg}"),
                other => panic!("expected a typed Error, got {other:?}"),
            }
            assert!(counters.protocol_errors.get() >= 1);

            // The length prefix was honoured, so the framing holds and
            // the same connection still serves.
            let mut ping = Vec::new();
            wire::encode_request(&Request::Ping, &mut ping);
            s.write_all(&ping).expect("ping");
            match wire::read_response(&mut s, &mut Vec::new()).expect("pong") {
                Some(Response::Pong) => {}
                other => panic!("expected Pong on the same connection, got {other:?}"),
            }
        });
    }
}

#[test]
fn bin1_version_mismatch_is_nacked_and_the_listener_survives() {
    for door in Door::both() {
        door.check(|addr, counters| {
            // Openings other than the hello — the magic with an older or
            // newer version, or a big-endian length prefix and 10,000
            // nested `[` — get MAGIC + 0x00 (explicit nack) and a close:
            // no hang, and no parser ever sees the bytes.
            let mut nested = 10_000u32.to_be_bytes().to_vec();
            nested.resize(4 + 10_000, b'[');
            let mut openings: Vec<(String, Vec<u8>)> = [wire::VERSION - 1, wire::VERSION + 1]
                .into_iter()
                .map(|v| (format!("version {v}"), [&wire::MAGIC[..], &[v]].concat()))
                .collect();
            openings.push(("10,000 nested `[`".to_owned(), nested));
            for (what, opening) in openings {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_read_timeout(Some(Duration::from_secs(5))).ok();
                // The door may close before reading all of a long opening.
                let _ = s.write_all(&opening);
                let mut ack = [0u8; 5];
                s.read_exact(&mut ack).expect("nack bytes");
                assert_eq!(&ack[..4], &wire::MAGIC, "{what}");
                assert_eq!(ack[4], 0, "expected a nack of {what}");
                assert_closed(s, &what);
            }
            assert!(counters.protocol_errors.get() >= 3);

            // A correct client still works afterwards.
            client(addr)
                .expect("connect")
                .ping()
                .expect("ping after nacks");
        });
    }
}

#[test]
fn wire_shutdown_to_the_router_makes_fleet_wait_return_within_a_second() {
    let Door::Fleet(router, replica) = Door::fleet() else {
        unreachable!("fleet() is a router")
    };
    let addr = router.addr();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        router.wait();
        done_tx.send(())
    });
    client(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("FleetHandle::wait did not return within 1 s of a wire Shutdown");
    join_with_deadline(replica);
}

/// Runs `stop` on a helper thread and fails unless it returns within
/// a second.
fn stops_within_a_second(what: &str, stop: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        stop();
        done_tx.send(())
    });
    if done_rx.recv_timeout(Duration::from_secs(1)).is_err() {
        panic!("{what} did not return within 1 s");
    }
}

#[test]
fn every_stop_path_wakes_its_blocked_accept_within_a_second() {
    // A wire Shutdown wakes either door's accept from its handler: the
    // listener closes, so a fresh connect is refused, with no join yet.
    for door in Door::both() {
        let (name, addr) = (door.name(), door.addr());
        client(addr)
            .expect("connect")
            .shutdown()
            .expect("shutdown ack");
        eventually(Duration::from_secs(1), name, || {
            TcpStream::connect(addr).is_err()
        });
        match door {
            Door::Serve(h) => stops_within_a_second("ServerHandle::join", || h.join()),
            Door::Fleet(router, replica) => {
                stops_within_a_second("FleetHandle::shutdown", || router.shutdown());
                stops_within_a_second("ServerHandle::join", || replica.join());
            }
        }
    }
    // Every handle's own stop path wakes an accept blocked with no
    // client in sight.
    for door in Door::both() {
        match door {
            Door::Serve(h) => stops_within_a_second("ServerHandle::join", || h.join()),
            Door::Fleet(router, replica) => {
                stops_within_a_second("FleetHandle::shutdown", || router.shutdown());
                stops_within_a_second("ServerHandle::join", || replica.join());
            }
        }
    }
    let upstream: SocketAddr = "127.0.0.1:9".parse().expect("addr");
    let proxy = ChaosProxy::start(upstream, |_| Fault::None).expect("proxy");
    stops_within_a_second("ChaosProxy::stop", || proxy.stop());
    let proxy = ChaosProxy::start(upstream, |_| Fault::None).expect("proxy");
    stops_within_a_second("ChaosProxy drop", || drop(proxy));
    let obs = imc_obs::serve_http("127.0.0.1:0").expect("bind obs");
    stops_within_a_second("HttpHandle::stop", || obs.stop());
    let obs = imc_obs::serve_http("127.0.0.1:0").expect("bind obs");
    stops_within_a_second("HttpHandle drop", || drop(obs));
}

#[test]
fn resilience_counters_are_exported_over_http() {
    // Starting a server and a router registers the counter families;
    // the obs HTTP endpoint must then expose the server's three
    // resilience families and the router door's counterparts to a
    // Prometheus-style scrape.
    let doors = Door::both();
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
        "fleet.protocol_errors_total",
        "fleet.conn_deadline_drops_total",
        "fleet.busy_rejects_total",
    ] {
        assert!(body.contains(family), "scrape is missing {family}");
    }

    obs.stop();
    for door in doors {
        door.check(|_, _| {});
    }
}
