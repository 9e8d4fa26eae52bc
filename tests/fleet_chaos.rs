//! Multi-node kill tests: real `imc-serve` replica processes fronted by
//! an in-process fleet router, with a replica SIGKILLed mid-load. The
//! fleet's contract under chaos is absolute: a killed replica may cost
//! retries, but every answer that is delivered is bit-identical to
//! single-node execution — zero wrong answers.
//!
//! The same binaries also pin the signal stop path: SIGTERM must end
//! `imc-serve` and `imc-fleet` within a second, their blocked accepts
//! woken from `ShutdownFlag::park`, even a router out of descriptors.
//!
//! The tests drive the binaries next to the test executable (else in
//! the other profile's directory) and skip (with a note) when they have
//! not been built. `cargo test --workspace` rebuilds both: each of
//! their crates has integration tests, and Cargo builds a package's
//! binaries before those run. A plain `cargo test` of this package
//! does not, so run `cargo build --workspace --bins` first.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use imc_fleet::{serve_fleet, FleetPlan, RouterConfig};
use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::Response;
use imc_serve::{wire, Client, ClientConfig, RetryPolicy};
use neural::imc_exec::ImcDesign;

fn test_input(k: usize) -> Vec<f32> {
    (0..MNIST_FEATURES)
        .map(|i| ((i * (k + 3)) % 23) as f32 / 23.0)
        .collect()
}

/// Finds the built binary `name` next to the test executable
/// (`target/<profile>/name`), or in the sibling profile dir.
fn find_bin(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let profile_dir = exe.parent()?.parent()?; // target/<profile>/deps -> target/<profile>
    let target_dir = profile_dir.parent()?;
    [
        profile_dir.join(name),
        target_dir.join("release").join(name),
        target_dir.join("debug").join(name),
    ]
    .into_iter()
    .find(|cand| cand.is_file())
}

fn serve_bin() -> Option<PathBuf> {
    find_bin("imc-serve")
}

/// Spawns one replica process on an ephemeral port and parses the bound
/// address from its startup banner.
fn spawn_replica(bin: &PathBuf, extra: &[String]) -> (Child, String) {
    let mut args = vec!["--addr".to_owned(), "127.0.0.1:0".to_owned()];
    args.extend_from_slice(extra);
    spawn_with_banner(bin, &args, "imc-serve listening on ")
}

/// Spawns `bin` and parses its bound address from the first output
/// line that starts with `banner` (on stdout, or on stderr for
/// `imc-fleet`), then keeps draining that pipe so the child never
/// blocks on it.
fn spawn_with_banner(bin: &PathBuf, args: &[String], banner: &str) -> (Child, String) {
    let on_stderr = banner.starts_with("imc-fleet");
    let (out, err) = if on_stderr {
        (Stdio::null(), Stdio::piped())
    } else {
        (Stdio::piped(), Stdio::null())
    };
    let mut child = Command::new(bin)
        .args(args)
        .stdout(out)
        .stderr(err)
        .spawn()
        .expect("spawn binary");
    let pipe: Box<dyn Read + Send> = match (child.stdout.take(), child.stderr.take()) {
        (Some(o), _) => Box::new(o),
        (_, Some(e)) => Box::new(e),
        _ => unreachable!("one pipe is piped"),
    };
    let mut reader = BufReader::new(pipe);
    let mut addr = None;
    let mut line = String::new();
    for _ in 0..100 {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(rest) = line.strip_prefix(banner) {
            addr = rest.split_whitespace().next().map(str::to_owned);
            break;
        }
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    let addr = addr.unwrap_or_else(|| {
        let _ = child.kill();
        panic!("{} did not print its listen address", bin.display());
    });
    (child, addr)
}

fn fast_retry() -> RouterConfig {
    RouterConfig {
        retry: RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
            max_attempts: 6,
            ..RetryPolicy::default()
        },
        client: ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            request_timeout: Some(Duration::from_secs(5)),
            ..ClientConfig::default()
        },
    }
}

/// Runs `n` requests through the router, asserting bit-exactness of
/// every delivered answer; returns how many needed a visible retry
/// (`Failed`, which the protocol marks safe to re-send).
fn drive(client: &mut Client, oracle: &ServeModel, ids: std::ops::Range<u64>) -> usize {
    let mut retried = 0;
    for id in ids {
        let input = test_input(id as usize);
        let expect = oracle.infer_one(&input);
        let mut attempts = 0;
        loop {
            attempts += 1;
            match client.infer(id, input.clone()) {
                Ok(Response::Output(r)) => {
                    assert_eq!(r.id, id);
                    for (i, (a, b)) in expect.iter().zip(&r.logits).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "request {id}: logit {i} diverged ({a} vs {b})"
                        );
                    }
                    break;
                }
                Ok(Response::Failed(_)) | Ok(Response::Shed(_)) if attempts < 10 => {
                    retried += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(other) => panic!("request {id}: unexpected {other:?}"),
                Err(e) => panic!("request {id}: transport error {e}"),
            }
        }
    }
    retried
}

#[test]
fn sigkill_replica_mid_load_keeps_answers_bit_exact() {
    let Some(bin) = serve_bin() else {
        eprintln!("skipping: imc-serve binary not built (cargo build -p imc-serve)");
        return;
    };
    // Whole-model fleet: two replica processes, one gets SIGKILLed.
    let (mut doomed, addr_a) = spawn_replica(&bin, &[]);
    let (mut survivor, addr_b) = spawn_replica(&bin, &[]);
    let plan = FleetPlan::synthetic(ImcDesign::ChgFe, DEFAULT_SEED, 1).expect("plan");
    let (router, admission) =
        serve_fleet("127.0.0.1:0", plan, &[addr_a, addr_b], fast_retry()).expect("bind router");
    assert!(admission.is_empty(), "clean admission: {admission:?}");

    let oracle = ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED);
    let mut client = Client::connect(router.addr()).expect("connect");
    drive(&mut client, &oracle, 0..4);
    // SIGKILL — no drain, no goodbye; sockets die mid-conversation.
    doomed.kill().expect("SIGKILL replica");
    let _ = doomed.wait();
    let retried = drive(&mut client, &oracle, 4..16);
    eprintln!("post-kill: 12 requests, {retried} visible retries, 0 wrong answers");

    router.shutdown();
    let _ = survivor.kill();
    let _ = survivor.wait();
}

#[test]
fn sigkill_shard_replica_mid_load_keeps_partial_sums_bit_exact() {
    let Some(bin) = serve_bin() else {
        eprintln!("skipping: imc-serve binary not built (cargo build -p imc-serve)");
        return;
    };
    // 2-shard fleet with 2 replicas of shard 0: killing one must fail
    // over *within the shard* while partial-sum combining stays exact.
    let shard_flags = |i: usize| {
        vec![
            "--shard-index".to_owned(),
            i.to_string(),
            "--shard-count".to_owned(),
            "2".to_owned(),
        ]
    };
    let (mut doomed, addr_s0a) = spawn_replica(&bin, &shard_flags(0));
    let (mut s0b, addr_s0b) = spawn_replica(&bin, &shard_flags(0));
    let (mut s1, addr_s1) = spawn_replica(&bin, &shard_flags(1));
    let plan = FleetPlan::synthetic(ImcDesign::ChgFe, DEFAULT_SEED, 2).expect("plan");
    let (router, admission) = serve_fleet(
        "127.0.0.1:0",
        plan,
        &[addr_s0a, addr_s0b, addr_s1],
        fast_retry(),
    )
    .expect("bind router");
    assert!(admission.is_empty(), "clean admission: {admission:?}");

    let oracle = ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED);
    let mut client = Client::connect(router.addr()).expect("connect");
    drive(&mut client, &oracle, 0..4);
    doomed.kill().expect("SIGKILL shard-0 replica");
    let _ = doomed.wait();
    let retried = drive(&mut client, &oracle, 4..12);
    eprintln!("post-kill: 8 sharded requests, {retried} visible retries, 0 wrong answers");

    router.shutdown();
    for child in [&mut s0b, &mut s1] {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Waits up to `limit` for `child` to exit; SIGKILLs it and returns
/// `None` if it is still running then.
#[cfg(unix)]
fn exit_within(mut child: Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let pid = child.id().to_string();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(child.wait()));
    match done_rx.recv_timeout(limit) {
        Ok(status) => Some(status.expect("wait")),
        Err(_) => {
            let _ = Command::new("kill").args(["-KILL", &pid]).status();
            None
        }
    }
}

/// Sends SIGTERM and fails unless the process exits cleanly within a
/// second (SIGKILLed if it does not).
#[cfg(unix)]
fn sigterm_ends_within_a_second(child: Child, what: &str) {
    let pid = child.id().to_string();
    let term = Command::new("kill").args(["-TERM", &pid]).status();
    assert!(term.expect("run kill").success(), "kill -TERM {what}");
    let status = exit_within(child, Duration::from_secs(1))
        .unwrap_or_else(|| panic!("{what} still running 1 s after SIGTERM"));
    assert!(status.success(), "{what} exited with {status}");
}

#[cfg(unix)]
#[test]
fn sigterm_stops_imc_serve_and_imc_fleet_within_a_second() {
    let (Some(serve), Some(fleet)) = (serve_bin(), find_bin("imc-fleet")) else {
        eprintln!("skipping: imc-serve/imc-fleet binaries not built (cargo build --bins)");
        return;
    };
    let (replica, addr) = spawn_replica(&serve, &[]);
    let router_args = ["--listen", "127.0.0.1:0", "--replica", &addr].map(str::to_owned);
    let (router, _) = spawn_with_banner(&fleet, &router_args, "imc-fleet: listening on ");
    // Each process's signal handler only stores to an atomic; its
    // `ShutdownFlag::park` must notice and wake the accept blocked in
    // `accept(2)`.
    sigterm_ends_within_a_second(router, "imc-fleet");
    sigterm_ends_within_a_second(replica, "imc-serve");
}

#[cfg(unix)]
#[test]
fn sigterm_stops_imc_fleet_at_its_descriptor_limit() {
    let (Some(serve), Some(fleet)) = (serve_bin(), find_bin("imc-fleet")) else {
        eprintln!("skipping: imc-serve/imc-fleet binaries not built (cargo build --bins)");
        return;
    };
    let (replica, addr) = spawn_replica(&serve, &[]);
    // `sh` lowers the router's own descriptor limit, then execs it.
    let script = r#"ulimit -n 40 && exec "$0" "$@""#;
    let fleet = fleet.to_string_lossy();
    let args = [
        "-c",
        script,
        &fleet,
        "--listen",
        "127.0.0.1:0",
        "--replica",
        &addr,
    ];
    let args = args.map(str::to_owned);
    let sh = PathBuf::from("sh");
    let (router, router_addr) = spawn_with_banner(&sh, &args, "imc-fleet: listening on ");

    // Hello after hello until one goes unanswered: it stays queued while
    // every accept fails for want of a descriptor.
    let mut held = Vec::new();
    let mut queued = loop {
        assert!(held.len() < 200, "the router never ran out of descriptors");
        let mut conn = TcpStream::connect(&router_addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(500))).ok();
        if wire::client_handshake(&mut conn).is_err() {
            break conn;
        }
        held.push(conn);
    };
    // Closing two served connections frees two descriptors. The accept
    // takes the queued connection with one and blocks in `accept(2)`
    // holding the other (Linux reserves the new descriptor before it
    // waits), so no socket can be opened: the stop's wake cannot dial
    // until the stop has closed idle connections.
    held.truncate(held.len() - 2);
    queued.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let mut ack = [0u8; 5];
    queued
        .read_exact(&mut ack)
        .expect("the queued hello answered");
    assert_eq!(&ack[..4], &wire::MAGIC);
    held.push(queued);

    sigterm_ends_within_a_second(router, "imc-fleet out of descriptors");
    sigterm_ends_within_a_second(replica, "imc-serve");
}
