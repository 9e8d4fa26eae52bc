//! A TCP listener whose accept blocks until a connection arrives or a
//! stop wakes it, so no accept loop polls.
//!
//! Every listener in the workspace accepts through it: the BIN1 door of
//! `imc-serve` and `imc-fleet`, the scrape endpoint and the chaos proxy.
//! [`Waker::wake`] sets the stop flag, then connects to the listener
//! itself; the accept returns, sees the flag and drops what it accepted,
//! so the wake connection is never counted, forwarded or served. An
//! unspecified bind address (`0.0.0.0`, `[::]`) is dialled on loopback.
//! A process out of descriptors cannot dial; the wake then retries
//! while the flag closes idle connections, which frees some.
//!
//! A failed accept is counted in `net.accept_errors_total{listener}` and
//! retried after [`ACCEPT_BACKOFF`], the one sleep an accept loop keeps:
//! running out of descriptors passes once connections close, and Linux
//! `accept(2)` reports network errors pending on the new socket, which
//! its man page says to retry.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pause before a failed accept, or a failed wake, is retried.
pub const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// How long [`Waker::wake`] keeps retrying its self-connect.
const WAKE_PATIENCE: Duration = Duration::from_secs(5);

/// A bound listener with a blocking accept that a [`Waker`] ends.
#[derive(Debug)]
pub struct Listener {
    inner: TcpListener,
    local: SocketAddr,
    name: &'static str,
    waker: Waker,
}

/// Stops a [`Listener`] from any thread. Clones share one flag.
#[derive(Debug, Clone)]
pub struct Waker {
    addr: SocketAddr,
    woken: Arc<AtomicBool>,
}

impl Waker {
    /// Sets the stop flag and, on the first call, wakes the blocked
    /// accept with a self-connect.
    ///
    /// The connect is retried every [`ACCEPT_BACKOFF`] for up to a few
    /// seconds: out of descriptors it cannot open a socket, while the
    /// accept may be blocked with nothing queued (Linux reserves the
    /// accepted descriptor before it waits). A door's idle connections
    /// close within a read tick of the flag, which frees descriptors. A
    /// refusal ends it: the listener is closed.
    pub fn wake(&self) {
        if self.woken.swap(true, Ordering::AcqRel) {
            return;
        }
        let t0 = Instant::now();
        while let Err(e) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)) {
            if e.kind() == io::ErrorKind::ConnectionRefused || t0.elapsed() >= WAKE_PATIENCE {
                return;
            }
            std::thread::sleep(ACCEPT_BACKOFF);
        }
    }

    /// Whether [`wake`](Self::wake) has been called.
    #[must_use]
    pub fn is_woken(&self) -> bool {
        self.woken.load(Ordering::Acquire)
    }
}

impl Listener {
    /// Binds `addr`; `name` labels its accept errors.
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn bind<A: ToSocketAddrs>(addr: A, name: &'static str) -> io::Result<Self> {
        let inner = TcpListener::bind(addr)?;
        let local = inner.local_addr()?;
        let mut addr = local;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let woken = Arc::new(AtomicBool::new(false));
        let waker = Waker { addr, woken };
        Ok(Self {
            inner,
            local,
            name,
            waker,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle that stops this listener.
    #[must_use]
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Blocks until the next connection; `None` once woken.
    pub fn accept(&self) -> Option<TcpStream> {
        while !self.waker.is_woken() {
            match self.inner.accept() {
                Ok((stream, _)) => return (!self.waker.is_woken()).then_some(stream),
                Err(_) => {
                    crate::counter_vec!(
                        "net.accept_errors_total",
                        ["listener"],
                        "Failed accepts, each retried after a short back-off",
                        &[self.name]
                    )
                    .inc();
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_ends_a_blocked_accept_on_an_unspecified_address() {
        let listener = Listener::bind("0.0.0.0:0", "test").expect("bind");
        let (waker, port) = (listener.waker(), listener.local_addr().port());
        let (first_tx, first_rx) = std::sync::mpsc::channel();
        let accepting = std::thread::spawn(move || {
            first_tx.send(listener.accept().is_some()).expect("send");
            listener.accept().is_none()
        });
        let _client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        assert!(first_rx.recv().expect("first accept"), "a client is served");
        let t0 = std::time::Instant::now();
        waker.wake();
        waker.wake(); // idempotent: no second self-connect
        assert!(accepting.join().expect("accept thread"), "the wake ends it");
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }

    #[test]
    fn wake_after_the_listener_closed_returns_at_once() {
        let listener = Listener::bind("127.0.0.1:0", "test").expect("bind");
        let waker = listener.waker();
        drop(listener);
        let t0 = std::time::Instant::now();
        waker.wake(); // refused: nothing left to wake, so no retries
        assert!(waker.is_woken());
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
    }
}
