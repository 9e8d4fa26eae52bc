//! The BIN1 front door that `imc-serve` and the `imc-fleet` router share
//! (DESIGN §12).
//!
//! A [`Door`] owns everything between a TCP client and a decoded
//! [`Request`]:
//!
//! * the bind, and a blocking accept ([`imc_obs::Listener`]) that a
//!   stop wakes with a self-connect;
//! * the [`ConnLimits::max_conns`] cap, answered with a typed `Busy`;
//! * the `BIN1` hello, echoed, and its nack for any other opening;
//! * the frame deadline, which covers the hello too, and the oversize
//!   check on every length prefix;
//! * the read tick and the write timeout on one shared [`Reply`] writer
//!   per connection.
//!
//! Its owner supplies only a [`FrameHandler`], which answers each
//! decoded request of a connection. Faults are counted into the
//! [`DoorCounters`] the owner passes in, so each owner exports them
//! under its own names.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use imc_obs::{registry, Counter, Listener, Waker};

use crate::protocol::{BusyReply, Request, Response, MAX_FRAME_BYTES};
use crate::wire;

/// The connection limits of a BIN1 door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnLimits {
    /// Once the first byte of a frame (the hello included) has arrived,
    /// the whole frame must complete within this window or the
    /// connection is dropped and counted in `conn_deadline_drops`.
    /// Without it, a client that sends one byte of a length prefix
    /// parks a connection thread forever. Zero disables it.
    pub frame_deadline: Duration,
    /// Write timeout on each connection's shared writer. `imc-serve`'s
    /// one executor writes every reply, so there a client that stops
    /// draining its socket holds every batch for up to one timeout per
    /// blocked write; a timed-out write marks the connection dead and
    /// later responses to it are skipped. Zero disables the timeout:
    /// then one client that stops reading halts every batch and
    /// graceful shutdown.
    pub write_timeout: Duration,
    /// Cap on concurrently served connections. Connections beyond it
    /// receive a typed [`Response::Busy`] and are closed at once
    /// (counted in `busy_rejects`).
    pub max_conns: usize,
}

impl Default for ConnLimits {
    fn default() -> Self {
        Self {
            frame_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            max_conns: 1024,
        }
    }
}

/// The counters a door counts its faults into.
#[derive(Debug, Clone, Default)]
pub struct DoorCounters {
    /// Openings other than the hello, malformed, oversized or
    /// half-read frames, and failed writes. Handlers add their own
    /// invalid requests.
    pub protocol_errors: Counter,
    /// Connections dropped because a frame stayed incomplete past
    /// [`ConnLimits::frame_deadline`].
    pub conn_deadline_drops: Counter,
    /// Connections refused with `Busy` at [`ConnLimits::max_conns`].
    pub busy_rejects: Counter,
}

impl DoorCounters {
    /// Fresh counters, published to the global registry as
    /// `{prefix}protocol_errors_total`, `{prefix}conn_deadline_drops_total`
    /// and `{prefix}busy_rejects_total`, replacing an earlier door's.
    #[must_use]
    pub fn registered(prefix: &str) -> Self {
        let c = Self::default();
        for (name, help, counter) in [
            (
                "protocol_errors_total",
                "Openings other than the BIN1 hello, bad or cut frames, invalid requests, failed writes",
                &c.protocol_errors,
            ),
            (
                "conn_deadline_drops_total",
                "Connections dropped for holding a frame incomplete past the read deadline",
                &c.conn_deadline_drops,
            ),
            (
                "busy_rejects_total",
                "Connections refused with Busy at the concurrent-connection cap",
                &c.busy_rejects,
            ),
        ] {
            registry().insert_counter(&format!("{prefix}{name}"), &[], help, counter);
        }
        c
    }
}

/// What a door's owner does with each decoded request.
pub trait FrameHandler: Send + Sync + 'static {
    /// State kept for one connection's life (the router keeps its
    /// upstream clients here, so replica sockets are never shared).
    type Session: Default;

    /// Answers `request` through `reply`, now or later. Returns `false`
    /// to close the connection.
    fn handle(&self, session: &mut Self::Session, request: Request, reply: &Reply) -> bool;
}

/// How often a blocked read wakes to check the stop flag and the frame
/// deadline.
const READ_TICK: Duration = Duration::from_millis(200);

/// Write timeout of the one `Busy` frame, which the accept thread
/// itself writes.
const BUSY_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// A connection's write half plus its liveness state. Once a write
/// fails or times out mid-frame the stream's framing is unrecoverable,
/// so the writer is marked dead and every later response to this
/// connection is dropped without touching the socket. The `scratch`
/// arena is reused for every response this connection ever writes, so
/// steady-state encoding allocates nothing.
#[derive(Debug)]
struct ConnWriter {
    stream: Arc<TcpStream>,
    dead: bool,
    scratch: Vec<u8>,
    errors: Counter,
}

/// A live connection's shared writer: its reader thread and whatever
/// answers its requests later (`imc-serve`'s executor) write through
/// clones of it.
#[derive(Debug, Clone)]
pub struct Reply(Arc<Mutex<ConnWriter>>);

impl Reply {
    /// Writes `resp`. A failed write is counted, not fatal (the client
    /// may have gone away): it marks the writer dead and shuts the
    /// socket so the connection's reader sees EOF. A poisoned lock is
    /// recovered: only the encoder, which never panics, writes under it.
    pub fn send(&self, resp: &Response) {
        let w = &mut *self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if !w.dead && wire::write_response(&mut &*w.stream, resp, &mut w.scratch).is_err() {
            w.errors.inc();
            w.dead = true;
            w.stream.shutdown(std::net::Shutdown::Both).ok();
        }
    }
}

/// A bound BIN1 door whose accept loop has not started yet.
pub struct Door {
    listener: Listener,
    conn_thread: String,
    limits: ConnLimits,
    counters: DoorCounters,
}

impl Door {
    /// Binds `addr`. `name` labels the accept errors and names the
    /// connection threads (`{name}-conn`).
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        name: &'static str,
        limits: ConnLimits,
        counters: DoorCounters,
    ) -> std::io::Result<Self> {
        Ok(Self {
            listener: Listener::bind(addr, name)?,
            conn_thread: format!("{name}-conn"),
            limits,
            counters,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The handle that stops [`run`](Self::run): it wakes the accept,
    /// and idle connections close within one read tick.
    #[must_use]
    pub fn waker(&self) -> Waker {
        self.listener.waker()
    }

    /// Accepts until woken, serving each connection under the cap on a
    /// thread of its own. A failed accept is retried after a short
    /// back-off, and a failed spawn drops only that connection.
    pub fn run<H: FrameHandler>(self, handler: &Arc<H>) {
        let active = Arc::new(AtomicUsize::new(0));
        while let Some(mut stream) = self.listener.accept() {
            stream.set_nodelay(true).ok();
            let now_active = active.load(Ordering::Acquire);
            if now_active >= self.limits.max_conns {
                // A typed Busy without reading the hello, then a close.
                // The short write timeout keeps a connector that does
                // not read from stalling this loop.
                self.counters.busy_rejects.inc();
                stream.set_write_timeout(Some(BUSY_WRITE_TIMEOUT)).ok();
                let busy = Response::Busy(BusyReply {
                    active: now_active,
                    limit: self.limits.max_conns,
                });
                let _ = wire::write_response(&mut stream, &busy, &mut Vec::new());
                continue;
            }
            active.fetch_add(1, Ordering::AcqRel);
            let slot = ConnSlot(Arc::clone(&active));
            let handler = Arc::clone(handler);
            let counters = self.counters.clone();
            let (limits, stop) = (self.limits, self.listener.waker());
            let _ = std::thread::Builder::new()
                .name(self.conn_thread.clone())
                .spawn(move || {
                    let _slot = slot;
                    serve_conn(stream, &*handler, limits, &counters, &stop);
                });
        }
    }
}

/// Decrements the live-connection count when a connection ends,
/// however it ends (including by panic, or a failed spawn).
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One connection: the hello, then frames until EOF, error, a handler
/// close, or a stop. One read arena serves its whole life.
fn serve_conn<H: FrameHandler>(
    stream: TcpStream,
    handler: &H,
    limits: ConnLimits,
    counters: &DoorCounters,
    stop: &Waker,
) {
    // The reader and the shared writer use this one socket, so both see
    // both timeouts.
    stream.set_read_timeout(Some(READ_TICK)).ok();
    stream.set_write_timeout(nonzero(limits.write_timeout)).ok();
    let stream = Arc::new(stream);
    let reply = Reply(Arc::new(Mutex::new(ConnWriter {
        stream: Arc::clone(&stream),
        dead: false,
        scratch: Vec::new(),
        errors: counters.protocol_errors.clone(),
    })));
    let mut reader = FrameReader {
        stream: &stream,
        deadline: nonzero(limits.frame_deadline),
        started: None,
        counters,
        stop,
    };

    let mut hello = [0u8; 5];
    if !reader.fill(&mut hello) {
        return;
    }
    reader.started = None;
    // The echo of the hello, or for any other opening the nack (the
    // magic with version 0) and a close.
    let accepted = hello[..4] == wire::MAGIC && hello[4] == wire::VERSION;
    let ack = [
        &wire::MAGIC[..],
        &[if accepted { wire::VERSION } else { 0 }],
    ]
    .concat();
    if !accepted {
        counters.protocol_errors.inc();
    }
    if (&*stream).write_all(&ack).is_err() || !accepted {
        return;
    }

    let mut session = H::Session::default();
    let mut arena: Vec<u8> = Vec::new();
    loop {
        let mut len = [0u8; 4];
        if !reader.fill(&mut len) {
            break;
        }
        let len = u32::from_le_bytes(len);
        if len > MAX_FRAME_BYTES {
            counters.protocol_errors.inc();
            reply.send(&Response::Error(
                wire::WireError::Oversized(len).to_string(),
            ));
            break; // framing is unrecoverable
        }
        arena.clear();
        arena.resize(len as usize, 0);
        if !reader.fill(&mut arena) {
            break;
        }
        reader.started = None;
        match wire::decode_request(&arena) {
            Ok(request) => {
                if !handler.handle(&mut session, request, &reply) {
                    break;
                }
            }
            Err(e) => {
                // Typed reject; the length prefix was honoured, so the
                // framing is still aligned and the connection lives.
                counters.protocol_errors.inc();
                reply.send(&Response::Error(e.to_string()));
            }
        }
    }
}

/// A connection's read half and the clock of the frame being read.
struct FrameReader<'a> {
    stream: &'a TcpStream,
    deadline: Option<Duration>,
    /// When the first byte of the current frame arrived; `None`
    /// between frames, where idling is fine indefinitely.
    started: Option<Instant>,
    counters: &'a DoorCounters,
    stop: &'a Waker,
}

impl FrameReader<'_> {
    /// Fills `buf` with the next bytes of the current frame. Returns
    /// `false` on a clean end (EOF or a stop between frames) and on a
    /// failure, which it counts: a frame past its deadline as a
    /// deadline drop, anything else (EOF or a stop inside a frame, an
    /// I/O error) as a protocol error.
    fn fill(&mut self, buf: &mut [u8]) -> bool {
        let mut filled = 0;
        while filled < buf.len() {
            let failure = match self.stream.read(&mut buf[filled..]) {
                Ok(0) if self.started.is_none() => return false,
                Ok(n) if n > 0 => {
                    self.started.get_or_insert_with(Instant::now);
                    filled += n;
                    continue;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    match self.started {
                        None if self.stop.is_woken() => return false,
                        Some(t0) if self.deadline.is_some_and(|d| t0.elapsed() >= d) => {
                            &self.counters.conn_deadline_drops
                        }
                        Some(_) if self.stop.is_woken() => &self.counters.protocol_errors,
                        _ => continue,
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Ok(_) | Err(_) => &self.counters.protocol_errors,
            };
            failure.inc();
            return false;
        }
        true
    }
}

/// Zero means "no timeout": `None` to the socket API, which rejects a
/// zero `Duration`.
fn nonzero(d: Duration) -> Option<Duration> {
    (!d.is_zero()).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_limits_mean_unbounded_not_error() {
        assert_eq!(nonzero(Duration::ZERO), None);
        assert_eq!(nonzero(Duration::MAX), Some(Duration::MAX));
    }
}
