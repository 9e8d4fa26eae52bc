//! Multi-node kill tests: real `imc-serve` replica processes fronted by
//! an in-process fleet router, with a replica SIGKILLed mid-load. The
//! fleet's contract under chaos is absolute: a killed replica may cost
//! retries, but every answer that is delivered is bit-identical to
//! single-node execution — zero wrong answers.
//!
//! The tests skip (with a note) when the `imc-serve` binary has not
//! been built; CI builds it explicitly before running them.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use imc_fleet::{serve_fleet, FleetPlan, RouterConfig};
use imc_serve::model::{ServeModel, DEFAULT_SEED, MNIST_FEATURES};
use imc_serve::protocol::Response;
use imc_serve::{Client, ClientConfig, RetryPolicy};
use neural::imc_exec::ImcDesign;

fn test_input(k: usize) -> Vec<f32> {
    (0..MNIST_FEATURES)
        .map(|i| ((i * (k + 3)) % 23) as f32 / 23.0)
        .collect()
}

/// Finds the built `imc-serve` binary next to the test executable
/// (`target/<profile>/imc-serve`), or in the sibling profile dir.
fn serve_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let profile_dir = exe.parent()?.parent()?; // target/<profile>/deps -> target/<profile>
    let target_dir = profile_dir.parent()?;
    for dir in [
        profile_dir,
        &target_dir.join("release"),
        &target_dir.join("debug"),
    ] {
        let cand = dir.join("imc-serve");
        if cand.is_file() {
            return Some(cand);
        }
    }
    None
}

/// Spawns one replica process on an ephemeral port and parses the bound
/// address from its startup banner.
fn spawn_replica(bin: &PathBuf, extra: &[String]) -> (Child, String) {
    let mut child = Command::new(bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn imc-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut addr = None;
    let mut line = String::new();
    for _ in 0..100 {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(rest) = line.strip_prefix("imc-serve listening on ") {
            addr = rest.split_whitespace().next().map(str::to_owned);
            break;
        }
    }
    // Keep draining so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    let addr = addr.unwrap_or_else(|| {
        let _ = child.kill();
        panic!("replica did not print its listen address");
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
        admit_attempts: 8,
        ..RouterConfig::default()
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
