//! Tests of the `imc-fleet` binary itself. Cargo builds a package's
//! binaries before its integration tests run, so these always drive the
//! router built from the current source.

/// An `--obs-addr` that cannot bind ends `imc-fleet` with a failure, as
/// it ends `imc-serve` and `loadgen`, instead of leaving a router that
/// serves without its metrics endpoint.
#[cfg(unix)]
#[test]
fn imc_fleet_exits_non_zero_when_its_obs_addr_cannot_bind() {
    use std::process::{Command, Stdio};
    use std::time::Duration;

    let held = std::net::TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let obs = held.local_addr().expect("held port").to_string();
    let args = ["--listen", "127.0.0.1:0", "--replica", "127.0.0.1:1"];
    let mut router = Command::new(env!("CARGO_BIN_EXE_imc-fleet"))
        .args(args)
        .args(["--obs-addr", &obs])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn imc-fleet");
    let pid = router.id().to_string();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(router.wait()));
    let Ok(status) = done_rx.recv_timeout(Duration::from_secs(5)) else {
        let _ = Command::new("kill").args(["-KILL", &pid]).status();
        panic!("imc-fleet still running 5 s after its obs bind failed");
    };
    let status = status.expect("wait");
    assert!(!status.success(), "imc-fleet exited with {status}");
}
