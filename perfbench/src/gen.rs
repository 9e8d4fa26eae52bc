//! Load generators speaking BIN1 to a running server: a closed loop
//! that keeps a fixed number of requests in flight per connection, and
//! an open loop that sends on a fixed schedule.
//!
//! Every reply is checked bit for bit against the oracle. Latencies go
//! into fixed-size histograms and in-flight requests into preallocated
//! tables, so the generator's memory does not grow with throughput.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use imc_obs::TraceContext;
use imc_serve::model::MNIST_FEATURES;
use imc_serve::protocol::{InferRequest, Request, Response};
use imc_serve::wire;

use crate::hist::LogHist;
use crate::inputs::RequestPool;
use crate::trace::{SpanLog, StageRec};

/// Width of the buckets completions are counted in, and host steal is
/// sampled over.
pub const BUCKET: Duration = Duration::from_millis(100);

/// The quiet part of a window: the buckets (or operations) during which
/// the host stole the least CPU. That is every one whose steal share is
/// at most that of the least-stolen tenth's worst, so when more than a
/// tenth saw no steal at all, exactly the steal-free ones. It always
/// holds at least [`MIN_QUIET`] (or all, when there are fewer), so a
/// median over a short series does not rest on one or two samples.
/// Steal on a shared host comes in bursts, and metrics read over the
/// quiet part repeat far better than over the whole window: on a 2-core
/// VM with 6–24% steal, six `saturate` runs spread 6% instead of 18%.
#[must_use]
pub fn quiet(steal: &[f64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return Vec::new();
    };
    let threshold = sorted[(last / 10).max(MIN_QUIET - 1).min(last)];
    (0..steal.len())
        .filter(|&i| steal[i] <= threshold)
        .collect()
}

/// The fewest samples [`quiet`] keeps.
pub const MIN_QUIET: usize = 5;

/// How long the generator waits for outstanding replies once the window
/// has closed; a request still unanswered then counts as failed.
pub const DRAIN: Duration = Duration::from_secs(10);

/// Socket read timeout: how often a blocked reader checks the drain
/// deadline.
const READ_POLL: Duration = Duration::from_millis(250);

/// Open-loop in-flight table size. A request still unanswered when its
/// slot is reused (a 20 s backlog at 400 req/s) is lost to scoring: its
/// late reply counts as a wrong answer.
const RING: usize = 8192;

/// The timeline of one load phase.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Requests due before this are warm-up.
    pub start: Instant,
    /// No request is sent at or after this.
    pub end: Instant,
    /// A traced run alternates untraced and traced quarters of the
    /// window, so tracing overhead is measured on the same stretch of
    /// host time.
    pub traced: bool,
}

impl Window {
    /// A window opening `warmup` from now and lasting `length`.
    #[must_use]
    pub fn new(warmup: Duration, length: Duration, traced: bool) -> Self {
        let start = Instant::now() + warmup;
        Self {
            start,
            end: start + length,
            traced,
        }
    }

    /// Window length in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }

    /// 0 for an untraced quarter, 1 for a traced one (always 0 in an
    /// untraced run).
    fn segment(&self, t: Instant) -> usize {
        if !self.traced || !self.contains(t) {
            return 0;
        }
        let q = (t - self.start).as_nanos() * 4 / (self.end - self.start).as_nanos();
        (q % 2) as usize
    }

    /// Whether a request due at `t` carries a trace.
    #[must_use]
    pub fn traced_at(&self, t: Instant) -> bool {
        self.contains(t) && self.segment(t) == 1
    }
}

/// Completions and latencies of one untraced or traced segment.
#[derive(Default)]
pub struct Segment {
    /// Verified completions inside the segment.
    pub done: u64,
    /// Latencies of requests due inside the segment.
    pub latency: LogHist,
}

/// What one generator stream observed.
pub struct Tally {
    /// Requests sent, warm-up included.
    pub sent: u64,
    /// Reply frames received.
    pub replies: u64,
    /// Replies that were the oracle's answer.
    pub ok: u64,
    /// Outputs that differ from the oracle or answer an unknown id.
    pub wrong: u64,
    /// `Shed` replies.
    pub shed: u64,
    /// Latency (ns) of answered requests due inside the window.
    pub latency: LogHist,
    /// How late (ns) the generator sent window requests.
    pub late: LogHist,
    /// Verified completions per [`BUCKET`] of the window.
    pub buckets: Vec<u64>,
    /// Latency (ns) of window requests, by the bucket they completed in.
    pub bucket_latency: Vec<LogHist>,
    /// First and last verified completion inside the window.
    pub span: Option<(Instant, Instant)>,
    /// `[untraced, traced]` quarters of a traced window.
    pub segments: [Segment; 2],
    /// Stage records of traced requests (bounded).
    pub stages: Vec<StageRec>,
    /// Benchmark-side spans of traced requests.
    pub spans: SpanLog,
}

impl Tally {
    fn new(w: &Window, epoch: Instant, stream: u64) -> Self {
        let buckets = (w.end - w.start).as_nanos().div_ceil(BUCKET.as_nanos()) as usize;
        // A traced run keeps every traced request's stages and five
        // spans; the caps bound memory at several times the fastest
        // rate seen so far.
        let cap = if w.traced {
            (w.seconds() * 4000.0) as usize + 1024
        } else {
            0
        };
        Self {
            sent: 0,
            replies: 0,
            ok: 0,
            wrong: 0,
            shed: 0,
            latency: LogHist::new(),
            late: LogHist::new(),
            buckets: vec![0; buckets],
            bucket_latency: vec![LogHist::new(); buckets],
            span: None,
            segments: Default::default(),
            stages: Vec::with_capacity(cap),
            spans: SpanLog::new(epoch, cap * 5, stream + 1),
        }
    }

    /// Verified completions per second over the window, from the
    /// first to the last completion inside it. Unlike a count over the
    /// nominal window it is not quantised, so a steady open loop still
    /// reads as measured.
    #[must_use]
    pub fn span_rate(&self) -> f64 {
        let done: u64 = self.buckets.iter().sum();
        match self.span {
            Some((first, last)) if done > 1 && last > first => {
                (done - 1) as f64 / (last - first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Completions per second, and the latencies of requests that
    /// completed, over the given buckets of the window.
    #[must_use]
    pub fn over_buckets(&self, picked: &[usize]) -> (f64, LogHist) {
        let mut latency = LogHist::new();
        let mut done = 0u64;
        for &b in picked {
            done += self.buckets[b];
            latency.merge(&self.bucket_latency[b]);
        }
        (
            done as f64 / (picked.len().max(1) as f64 * BUCKET.as_secs_f64()),
            latency,
        )
    }

    /// Requests that failed: every reply other than the oracle's answer,
    /// plus every request still unanswered at drain.
    #[must_use]
    pub fn failed(&self) -> u64 {
        (self.replies - self.ok) + self.sent.saturating_sub(self.replies)
    }

    /// Folds another stream's observations into this one.
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.replies += other.replies;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.shed += other.shed;
        self.latency.merge(&other.latency);
        self.late.merge(&other.late);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        for (a, b) in self.bucket_latency.iter_mut().zip(&other.bucket_latency) {
            a.merge(b);
        }
        self.span = match (self.span, other.span) {
            (Some((a0, a1)), Some((b0, b1))) => Some((a0.min(b0), a1.max(b1))),
            (a, b) => a.or(b),
        };
        for (a, b) in self.segments.iter_mut().zip(other.segments.iter()) {
            a.done += b.done;
            a.latency.merge(&b.latency);
        }
        self.stages.extend(other.stages);
        self.spans.absorb(other.spans);
    }

    /// Scores one reply to `f`, read off the socket at `read_at` and
    /// decoded by `decoded_at`.
    fn finish(
        &mut self,
        w: &Window,
        pool: &RequestPool,
        f: &InFlight,
        resp: &Response,
        read_at: Instant,
        decoded_at: Instant,
    ) {
        let reply = match resp {
            Response::Output(r) if r.id == f.id && pool.matches(f.input, &r.logits) => r,
            Response::Output(_) => {
                self.wrong += 1;
                return;
            }
            Response::Shed(_) => {
                self.shed += 1;
                return;
            }
            _ => return,
        };
        self.ok += 1;
        let bucket = w
            .contains(decoded_at)
            .then(|| ((decoded_at - w.start).as_nanos() / BUCKET.as_nanos()) as usize);
        if let Some(b) = bucket {
            self.buckets[b] += 1;
            self.segments[w.segment(decoded_at)].done += 1;
            self.span = Some(
                self.span
                    .map_or((decoded_at, decoded_at), |(first, _)| (first, decoded_at)),
            );
        }
        if !w.contains(f.origin) {
            return;
        }
        let latency_ns = (decoded_at - f.origin).as_nanos() as u64;
        self.latency.record(latency_ns);
        self.segments[w.segment(f.origin)]
            .latency
            .record(latency_ns);
        if let Some(b) = bucket {
            self.bucket_latency[b].record(latency_ns);
        }
        if !f.traced {
            return;
        }
        if self.stages.len() < self.stages.capacity() {
            self.stages.push(StageRec {
                latency_ns,
                encode_ns: (f.encoded - f.encode_start).as_nanos() as u64,
                decode_ns: (decoded_at - read_at).as_nanos() as u64,
                queue_ns: reply.queue_us * 1000,
                service_ns: reply.service_us * 1000,
                batch: reply.batch as u32,
            });
        }
        let root = self.spans.reserve_id();
        self.spans
            .record("wire.encode_request", f.encode_start, f.encoded, root, f.id);
        self.spans
            .record("server.round_trip", f.encoded, read_at, root, f.id);
        self.spans
            .record("wire.decode_response", read_at, decoded_at, root, f.id);
        self.spans
            .record_as(root, "gen.request", f.origin, decoded_at, 0, f.id);
    }
}

/// One request in flight.
#[derive(Clone, Copy)]
struct InFlight {
    id: u64,
    input: usize,
    /// Where its latency is timed from: the send in a closed loop, the
    /// due time in an open loop.
    origin: Instant,
    encode_start: Instant,
    encoded: Instant,
    traced: bool,
    live: bool,
}

impl InFlight {
    fn empty(now: Instant) -> Self {
        Self {
            id: 0,
            input: 0,
            origin: now,
            encode_start: now,
            encoded: now,
            traced: false,
            live: false,
        }
    }
}

fn reply_id(resp: &Response) -> Option<u64> {
    match resp {
        Response::Output(r) => Some(r.id),
        Response::Shed(r) => Some(r.id),
        Response::Failed(r) => Some(r.id),
        _ => None,
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Opens a BIN1 connection the way a client does.
fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    wire::client_handshake(&mut stream)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    Ok(stream)
}

/// Encodes request `f` (input `f.input`) into `scratch`, stamping the
/// encode times.
fn encode(request: &mut Request, f: &mut InFlight, pool: &RequestPool, scratch: &mut Vec<u8>) {
    f.encode_start = Instant::now();
    if let Request::Infer(r) = request {
        r.id = f.id;
        r.input.copy_from_slice(&pool.inputs[f.input]);
        r.trace = f.traced.then(TraceContext::new_root);
    }
    wire::encode_request(request, scratch);
    f.encoded = Instant::now();
}

fn blank_request() -> Request {
    Request::Infer(InferRequest {
        id: 0,
        input: vec![0.0; MNIST_FEATURES],
        trace: None,
    })
}

/// Drives one connection in a closed loop with `depth` requests in
/// flight until the window closes, then drains. Request ids carry the
/// in-flight slot in their low byte.
///
/// # Errors
///
/// Connection failures; a torn stream after the loop has started ends
/// the stream and counts its outstanding requests as failed instead.
pub fn closed_conn(
    addr: SocketAddr,
    stream_no: u64,
    depth: usize,
    pool: &RequestPool,
    w: &Window,
    epoch: Instant,
) -> io::Result<Tally> {
    assert!(
        (1..=256).contains(&depth),
        "slot index must fit the id's low byte"
    );
    let mut stream = dial(addr)?;
    let mut t = Tally::new(w, epoch, stream_no);
    let now = Instant::now();
    let mut slots = vec![InFlight::empty(now); depth];
    let mut request = blank_request();
    let mut scratch = Vec::with_capacity(4096);
    let mut arena = Vec::with_capacity(4096);
    let mut seq = 0u64;
    let mut outstanding = 0usize;

    let mut send = |slot: usize,
                    freed: Instant,
                    t: &mut Tally,
                    stream: &mut TcpStream,
                    slots: &mut [InFlight]|
     -> io::Result<()> {
        seq += 1;
        let origin = Instant::now();
        let f = &mut slots[slot];
        f.id = seq << 8 | slot as u64;
        f.input = pool.pick(stream_no, seq);
        f.origin = origin;
        f.traced = w.traced_at(origin);
        f.live = true;
        if w.contains(origin) {
            t.late.record((origin - freed).as_nanos() as u64);
        }
        encode(&mut request, f, pool, &mut scratch);
        t.sent += 1;
        stream.write_all(&scratch)
    };

    for slot in 0..depth {
        send(slot, Instant::now(), &mut t, &mut stream, &mut slots)?;
        outstanding += 1;
    }
    let deadline = w.end + DRAIN;
    while outstanding > 0 && Instant::now() < deadline {
        match wire::read_frame_into(&mut stream, &mut arena) {
            Ok(true) => {}
            Err(e) if is_timeout(&e) => continue,
            Ok(false) | Err(_) => break,
        }
        let read_at = Instant::now();
        let Ok(resp) = wire::decode_response(&arena) else {
            break;
        };
        let decoded_at = Instant::now();
        t.replies += 1;
        outstanding -= 1;
        let slot = reply_id(&resp)
            .map(|id| (id & 0xFF) as usize)
            .filter(|&s| s < depth && slots[s].live && Some(slots[s].id) == reply_id(&resp));
        let Some(slot) = slot else {
            if matches!(resp, Response::Output(_)) {
                t.wrong += 1;
            }
            continue;
        };
        let f = slots[slot];
        slots[slot].live = false;
        t.finish(w, pool, &f, &resp, read_at, decoded_at);
        if Instant::now() < w.end {
            if send(slot, decoded_at, &mut t, &mut stream, &mut slots).is_err() {
                break;
            }
            outstanding += 1;
        }
    }
    Ok(t)
}

/// Test hook: pause the open-loop sender before request `at` for
/// `pause`, as a stalled generator would.
#[derive(Clone, Copy, Debug)]
pub struct Stall {
    /// Index of the request the sender stalls before.
    pub at: u64,
    /// How long it stalls.
    pub pause: Duration,
}

/// Drives one connection in an open loop at `rate` requests per second
/// from two threads: a sender that sends each request at its due time
/// and a receiver that scores replies. Latency is timed from the due
/// time, so a stalled sender shows as latency of the requests it
/// delayed.
///
/// # Errors
///
/// Connection failures.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    pool: &RequestPool,
    w: &Window,
    epoch: Instant,
    stall: Option<Stall>,
) -> io::Result<Tally> {
    let mut stream = dial(addr)?;
    let reader = stream.try_clone()?;
    let launch = Instant::now();
    let period_ns = (1e9 / rate) as u64;
    let table = Mutex::new(vec![InFlight::empty(launch); RING]);
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(reader, &table, &sent, &done, pool, w, epoch));
        let mut late = LogHist::new();
        let mut request = blank_request();
        let mut scratch = Vec::with_capacity(4096);
        let mut n = 0u64;
        loop {
            let due = launch + Duration::from_nanos(period_ns * n);
            if due >= w.end {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if let Some(st) = stall.filter(|st| st.at == n) {
                std::thread::sleep(st.pause);
            }
            let mut f = InFlight {
                id: n + 1,
                input: pool.pick(0, n),
                origin: due,
                traced: w.traced_at(due),
                live: true,
                ..InFlight::empty(due)
            };
            encode(&mut request, &mut f, pool, &mut scratch);
            if w.contains(due) {
                late.record((f.encode_start - due).as_nanos() as u64);
            }
            {
                let mut tab = table.lock().expect("in-flight table lock");
                tab[(f.id % RING as u64) as usize] = f;
            }
            if stream.write_all(&scratch).is_err() {
                break;
            }
            n += 1;
            sent.store(n, Ordering::Release);
        }
        done.store(true, Ordering::Release);
        let mut t = receiver.join().expect("open-loop receiver panicked");
        t.sent = n;
        t.late = late;
        Ok(t)
    })
}

fn receive(
    mut reader: TcpStream,
    table: &Mutex<Vec<InFlight>>,
    sent: &AtomicU64,
    done: &AtomicBool,
    pool: &RequestPool,
    w: &Window,
    epoch: Instant,
) -> Tally {
    let mut t = Tally::new(w, epoch, 0);
    let mut arena = Vec::with_capacity(4096);
    let deadline = w.end + DRAIN;
    loop {
        if done.load(Ordering::Acquire) && t.replies >= sent.load(Ordering::Acquire) {
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
        match wire::read_frame_into(&mut reader, &mut arena) {
            Ok(true) => {}
            Err(e) if is_timeout(&e) => continue,
            Ok(false) | Err(_) => break,
        }
        let read_at = Instant::now();
        let Ok(resp) = wire::decode_response(&arena) else {
            break;
        };
        let decoded_at = Instant::now();
        t.replies += 1;
        let f = reply_id(&resp).and_then(|id| {
            let mut tab = table.lock().expect("in-flight table lock");
            let slot = &mut tab[(id % RING as u64) as usize];
            (slot.live && slot.id == id).then(|| {
                slot.live = false;
                *slot
            })
        });
        match f {
            Some(f) => t.finish(w, pool, &f, &resp, read_at, decoded_at),
            None if matches!(resp, Response::Output(_)) => t.wrong += 1,
            None => {}
        }
    }
    t
}
