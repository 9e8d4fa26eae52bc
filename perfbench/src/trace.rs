//! The traced run's instruments: spans recorded by the benchmark around
//! its calls into the program, and the median request's latency budget.
//!
//! Spans live in preallocated per-thread logs and are written out once
//! the run ends, so tracing adds no I/O to the measured window.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One span: a call the benchmark made into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `wire.encode_request`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// This span's id (unique within the run).
    pub id: u64,
    /// The enclosing span's id, 0 at a root.
    pub parent: u64,
    /// Request id the span belongs to, 0 outside a request.
    pub request: u64,
}

/// A bounded in-memory span log owned by one thread.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    /// Spans not kept because the log was full.
    pub dropped: u64,
}

impl SpanLog {
    /// A log holding at most `cap` spans. `stream` keeps span ids of
    /// different threads apart.
    #[must_use]
    pub fn new(epoch: Instant, cap: usize, stream: u64) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(cap),
            next_id: stream << 40,
            dropped: 0,
        }
    }

    /// The instant span times are measured from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A fresh span id, for a parent whose span is recorded after its
    /// children.
    pub fn reserve_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span under a reserved `id`.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            id,
            parent,
            request,
        };
        self.spans.push(span);
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        let id = self.reserve_id();
        self.record_as(id, name, start, end, parent, request);
        id
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this log (no capacity limit).
    pub fn absorb(&mut self, other: SpanLog) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }
}

/// Writes spans as tab-separated lines:
/// `name start_ns end_ns id parent request`.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(path: &Path, log: &SpanLog) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tid\tparent\trequest")?;
    for s in log.spans() {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request
        )?;
    }
    out.flush()
}

/// Where one answered request's time went, in nanoseconds. The first
/// two and the last come from the benchmark's clock; queue and service
/// come from the server's reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageRec {
    /// Request latency as the client saw it.
    pub latency_ns: u64,
    /// Client-side request encode.
    pub encode_ns: u64,
    /// Client-side reply decode.
    pub decode_ns: u64,
    /// `InferReply::queue_us`, in ns.
    pub queue_ns: u64,
    /// `InferReply::service_us`, in ns.
    pub service_ns: u64,
    /// `InferReply::batch`.
    pub batch: u32,
}

impl StageRec {
    /// Latency the other stages do not account for: the network, the
    /// connection threads, the reply write and any wait in the client.
    #[must_use]
    pub fn residual_ns(&self) -> i64 {
        self.latency_ns as i64
            - self.encode_ns as i64
            - self.decode_ns as i64
            - self.queue_ns as i64
            - self.service_ns as i64
    }
}

/// Stage totals over the requests around the median latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Requests in the band.
    pub requests: u64,
    /// Sum of their latencies.
    pub latency_ns: i64,
    /// Sum of their encode times.
    pub encode_ns: i64,
    /// Sum of their residuals.
    pub residual_ns: i64,
    /// Sum of their queue waits.
    pub queue_ns: i64,
    /// Sum of their service times.
    pub service_ns: i64,
    /// Sum of their decode times.
    pub decode_ns: i64,
}

impl Budget {
    /// The stages in print order with their mean microseconds.
    #[must_use]
    pub fn stages_us(&self) -> [(&'static str, f64); 5] {
        let n = self.requests.max(1) as f64 * 1e3;
        [
            ("encode", self.encode_ns as f64 / n),
            ("residual", self.residual_ns as f64 / n),
            ("queue", self.queue_ns as f64 / n),
            ("service", self.service_ns as f64 / n),
            ("decode", self.decode_ns as f64 / n),
        ]
    }

    /// Mean latency of the band, microseconds.
    #[must_use]
    pub fn latency_us(&self) -> f64 {
        self.latency_ns as f64 / (self.requests.max(1) as f64 * 1e3)
    }
}

/// The budget of the median request: stage sums over the middle tenth
/// of requests by latency (at least one). Because the residual is
/// latency minus the measured stages, the five stage sums add up to the
/// latency sum exactly.
#[must_use]
pub fn median_budget(recs: &[StageRec]) -> Budget {
    if recs.is_empty() {
        return Budget::default();
    }
    let mut sorted: Vec<&StageRec> = recs.iter().collect();
    sorted.sort_by_key(|r| r.latency_ns);
    let n = sorted.len();
    let width = (n / 10).max(1);
    let lo = (n - width) / 2;
    let mut b = Budget::default();
    for r in &sorted[lo..lo + width] {
        b.requests += 1;
        b.latency_ns += r.latency_ns as i64;
        b.encode_ns += r.encode_ns as i64;
        b.decode_ns += r.decode_ns as i64;
        b.queue_ns += r.queue_ns as i64;
        b.service_ns += r.service_ns as i64;
        b.residual_ns += r.residual_ns();
    }
    b
}
