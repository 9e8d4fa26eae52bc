//! Fault-injecting TCP proxy for chaos-testing `imc-serve`.
//!
//! The proxy sits between clients and a real server and misbehaves on
//! the **client → server** direction only: requests get dropped,
//! delayed, stalled, truncated, or bit-flipped, while responses always
//! pass through untouched — so whatever answers do come back are the
//! server's real bytes and can still be verified bit-for-bit against an
//! oracle. That asymmetry is the point of the harness: the server must
//! survive arbitrary client-side garbage, and the unaffected requests
//! must keep their bit-exact answers.
//!
//! Fault selection is fully deterministic. Each accepted connection is
//! numbered `0, 1, 2, …` and mapped to a [`Fault`] by the caller's
//! `pick` closure — a test pins exact faults per connection, the load
//! generator uses [`Fault::seeded_mix`] for a reproducible blend. All
//! faults are byte-counted, not timer-based, so runs replay identically.
//!
//! A bit flip can leave a frame valid, and then the server answers the
//! flipped request correctly. The proxy logs every flip it applies
//! ([`ChaosProxy::flips`]) so a client can tell which of its requests
//! the server actually received and check that answer against the
//! flipped input instead of the one it sent.
//!
//! ```no_run
//! use imc_bench::chaos::{ChaosProxy, Fault};
//! let proxy = ChaosProxy::start(
//!     "127.0.0.1:9090".parse().unwrap(),
//!     |conn| if conn % 2 == 0 { Fault::None } else { Fault::CorruptAfter(6) },
//! ).unwrap();
//! // connect clients to proxy.addr() …
//! proxy.stop();
//! ```

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What the proxy does to one connection's client → server byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Pass everything through untouched (the control group).
    None,
    /// Sleep this long before forwarding each chunk of request bytes —
    /// a slow writer that still completes its frames.
    Delay(Duration),
    /// Forward exactly `n` request bytes, then abruptly close both
    /// directions (client vanished mid-frame).
    DropAfter(usize),
    /// Forward exactly `n` request bytes, then keep the connection open
    /// but never forward another byte — the half-frame park that only a
    /// server-side read deadline can clean up.
    StallAfter(usize),
    /// Forward `n` request bytes, then close only the upstream write
    /// half: the server sees EOF mid-frame.
    TruncateAfter(usize),
    /// Flip one bit in request byte `n` and keep forwarding — a corrupt
    /// length prefix or frame body the server must reject without
    /// dying.
    CorruptAfter(usize),
}

impl Fault {
    /// A deterministic fault mix for load generation: connection `conn`
    /// under `seed` gets a fault chosen by a splitmix-style hash.
    /// Roughly half the connections stay clean so the run always has
    /// verifiable traffic; the rest cycle through every fault class.
    ///
    /// Byte offsets are chosen to land mid-frame for MNIST-sized infer
    /// requests (several KiB each): the first frame always goes through
    /// intact, the fault lands inside a later one.
    #[must_use]
    pub fn seeded_mix(seed: u64, conn: usize) -> Self {
        let mut h = seed
            .wrapping_add((conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(1);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let offset = 4096 + (h >> 8) as usize % 8192;
        match h % 8 {
            0 => Self::Delay(Duration::from_millis(1 + h as u8 as u64 % 5)),
            1 => Self::DropAfter(offset),
            2 => Self::StallAfter(offset),
            3 => Self::CorruptAfter(offset),
            _ => Self::None,
        }
    }
}

/// The XOR mask [`Fault::CorruptAfter`] applies to its target byte.
const FLIP_MASK: u8 = 0x40;

/// One bit flip the proxy applied to a client's request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    /// The client end of the proxied connection: the address the client
    /// sees as its own `local_addr`.
    pub client: SocketAddr,
    /// Offset of the flipped byte in that client's request stream,
    /// counted from the first byte the client wrote.
    pub offset: usize,
    /// The XOR mask applied to the byte.
    pub mask: u8,
}

impl Flip {
    /// Applies this flip to `frame`, the bytes the client wrote starting
    /// at stream offset `start`. `None` when the flipped byte lies
    /// outside the frame.
    #[must_use]
    pub fn apply(&self, start: usize, frame: &[u8]) -> Option<Vec<u8>> {
        let at = self
            .offset
            .checked_sub(start)
            .filter(|&at| at < frame.len())?;
        let mut flipped = frame.to_vec();
        flipped[at] ^= self.mask;
        Some(flipped)
    }
}

/// A running fault-injecting proxy. Dropping it (or calling
/// [`stop`](Self::stop)) shuts the listener down; forwarding threads for
/// live connections die with their sockets.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Connections accepted so far (fault plan indices consumed).
    accepted: Arc<AtomicUsize>,
    /// Every bit flip applied so far, in the order applied.
    flips: Arc<Mutex<Vec<Flip>>>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and proxies every accepted
    /// connection to `upstream`, applying `pick(connection_index)` to
    /// the client → server direction.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn start<F>(upstream: SocketAddr, pick: F) -> std::io::Result<Self>
    where
        F: Fn(usize) -> Fault + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicUsize::new(0));
        let flips = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            let flips = Arc::clone(&flips);
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((client, _)) => {
                                let conn = accepted.fetch_add(1, Ordering::AcqRel);
                                let fault = pick(conn);
                                let flips = Arc::clone(&flips);
                                if let Err(e) =
                                    spawn_forwarders(client, upstream, fault, conn, flips)
                                {
                                    eprintln!("chaos: conn {conn}: upstream connect failed: {e}");
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(e) => {
                                eprintln!("chaos: accept failed: {e}");
                                break;
                            }
                        }
                    }
                })
                .expect("spawn chaos accept thread")
        };
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            accepted,
            flips,
        })
    }

    /// The proxy's listen address — point clients here.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.accepted.load(Ordering::Acquire)
    }

    /// Every bit flip applied so far, in the order applied. A flip is
    /// logged before the flipped byte is forwarded, so it is here before
    /// the server can answer the request it landed in.
    #[must_use]
    pub fn flips(&self) -> Vec<Flip> {
        self.flips.lock().expect("flip log lock").clone()
    }

    /// Stops accepting. Existing forwarding threads exit when their
    /// sockets close (the server or client side tearing down is enough).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wires up the two forwarding threads for one proxied connection.
fn spawn_forwarders(
    client: TcpStream,
    upstream: SocketAddr,
    fault: Fault,
    conn: usize,
    flips: Arc<Mutex<Vec<Flip>>>,
) -> std::io::Result<()> {
    let peer = client.peer_addr()?;
    let server = TcpStream::connect_timeout(&upstream, Duration::from_secs(5))?;
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    let client_r = client.try_clone()?;
    let server_r = server.try_clone()?;

    // client → server: the faulted direction.
    std::thread::Builder::new()
        .name(format!("chaos-c2s-{conn}"))
        .spawn(move || forward_with_fault(client_r, server, fault, peer, &flips))
        .expect("spawn c2s forwarder");
    // server → client: always clean, so returned answers are authentic.
    std::thread::Builder::new()
        .name(format!("chaos-s2c-{conn}"))
        .spawn(move || forward_clean(server_r, client))
        .expect("spawn s2c forwarder");
    Ok(())
}

fn forward_clean(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    to.shutdown(Shutdown::Both).ok();
    from.shutdown(Shutdown::Both).ok();
}

/// Forwards `from` → `to`, applying `fault` byte-by-byte-deterministically.
/// Flips are logged in `flips` against `client`, the `from` peer.
fn forward_with_fault(
    mut from: TcpStream,
    mut to: TcpStream,
    fault: Fault,
    client: SocketAddr,
    flips: &Mutex<Vec<Flip>>,
) {
    let mut buf = [0u8; 4096];
    let mut forwarded = 0usize; // request bytes already passed through
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let chunk = &mut buf[..n];
        match fault {
            Fault::None => {}
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::DropAfter(limit) => {
                if forwarded + n > limit {
                    let keep = limit.saturating_sub(forwarded);
                    to.write_all(&chunk[..keep]).ok();
                    // Abrupt teardown of both directions: the client
                    // vanished as far as the server can tell.
                    to.shutdown(Shutdown::Both).ok();
                    from.shutdown(Shutdown::Both).ok();
                    return;
                }
            }
            Fault::StallAfter(limit) => {
                if forwarded + n > limit {
                    let keep = limit.saturating_sub(forwarded);
                    to.write_all(&chunk[..keep]).ok();
                    // Park forever (well: until a socket dies). The
                    // connection stays open holding a half-frame — only
                    // the server's read deadline can reclaim it.
                    let mut sink = [0u8; 4096];
                    while let Ok(n) = from.read(&mut sink) {
                        if n == 0 {
                            break;
                        }
                    }
                    to.shutdown(Shutdown::Both).ok();
                    return;
                }
            }
            Fault::TruncateAfter(limit) => {
                if forwarded + n > limit {
                    let keep = limit.saturating_sub(forwarded);
                    to.write_all(&chunk[..keep]).ok();
                    // Close only the upstream write half: the server
                    // reads EOF mid-frame; the response direction stays
                    // open so any earlier answers still drain.
                    to.shutdown(Shutdown::Write).ok();
                    return;
                }
            }
            Fault::CorruptAfter(target) => {
                if forwarded <= target && target < forwarded + n {
                    chunk[target - forwarded] ^= FLIP_MASK;
                    flips.lock().expect("flip log lock").push(Flip {
                        client,
                        offset: target,
                        mask: FLIP_MASK,
                    });
                }
            }
        }
        if to.write_all(chunk).is_err() {
            break;
        }
        forwarded += n;
    }
    to.shutdown(Shutdown::Write).ok();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_mix_is_deterministic_and_contains_clean_connections() {
        let mut clean = 0usize;
        for conn in 0..64 {
            let a = Fault::seeded_mix(42, conn);
            let b = Fault::seeded_mix(42, conn);
            assert_eq!(a, b, "conn {conn} must be reproducible");
            if a == Fault::None {
                clean += 1;
            }
        }
        assert!(clean >= 16, "the mix must keep verifiable traffic: {clean}");
        assert!(clean < 64, "the mix must actually inject faults: {clean}");
    }

    #[test]
    fn clean_fault_proxies_bytes_both_ways() {
        // Echo upstream: whatever arrives goes straight back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut s, _)) = upstream.accept() {
                let mut buf = [0u8; 64];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        let proxy = ChaosProxy::start(upstream_addr, |_| Fault::None).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"ping-through-proxy").unwrap();
        let mut got = [0u8; 18];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping-through-proxy");
        assert_eq!(proxy.accepted(), 1);
        proxy.stop();
    }

    #[test]
    fn corrupt_fault_flips_exactly_one_bit() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let received = std::thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap();
            buf
        });
        let proxy = ChaosProxy::start(upstream_addr, |_| Fault::CorruptAfter(2)).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&[0u8, 1, 2, 3, 4]).unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let got = received.join().unwrap();
        assert_eq!(got, vec![0u8, 1, 2 ^ 0x40, 3, 4]);
        assert_eq!(
            proxy.flips(),
            vec![Flip {
                client: c.local_addr().unwrap(),
                offset: 2,
                mask: 0x40,
            }],
            "the flip is logged against the client's own address"
        );
        proxy.stop();
    }
}
