//! Request-scoped distributed tracing and the per-process flight
//! recorder.
//!
//! A [`TraceContext`] names one logical request: a process-unique
//! `trace_id` and the span it is nested under on the *sending* side
//! (`parent_span`). The context rides the wire (fixed trailing fields
//! of `BIN1` `Infer`/`Partial` frames — see `imc-serve::wire`) so every
//! process a request passes through tags its spans with the same
//! `trace_id`.
//!
//! Each process records its view of a finished request as a
//! [`TraceRec`] — a flat list of [`SpanRec`]s — and offers it to the
//! global [`FlightRecorder`], the crash-safe "what just happened"
//! buffer: a ring of the newest [`FlightRecorder::CAPACITY`] records.
//! Every offer is kept; once the ring is full it evicts the oldest, so
//! what a scrape or the exit dump reads is always the newest records,
//! however long since the last read.
//!
//! Records are exported as JSON over the obs HTTP endpoint
//! (`GET /traces`) and dumped on exit by
//! [`print_summary_if_env`](crate::print_summary_if_env). Stitching
//! records from several processes back into one distributed trace is
//! the `imc-trace` bin's job: records share a `trace_id`, and each
//! span's `parent_span` points at the span id of the hop that caused
//! it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Root-context counter driving trace-id uniqueness.
static ROOT_SEQ: AtomicU64 = AtomicU64::new(0);
/// Span-id counter (process-unique, never 0).
static SPAN_SEQ: AtomicU64 = AtomicU64::new(0);

/// splitmix64 — the id mixer (same finalizer the serve retry jitter
/// uses; period-free, never maps distinct inputs to equal outputs).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Microseconds since the Unix epoch (0 if the clock is before 1970).
#[must_use]
pub fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A fresh process-unique span id (never 0; 0 means "no span").
#[must_use]
pub fn next_span_id() -> u64 {
    let seq = SPAN_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut id = splitmix64(seq ^ process_salt());
    if id == 0 {
        id = 1;
    }
    id
}

/// Per-process salt so two processes started in the same microsecond
/// still draw disjoint id streams.
fn process_salt() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    *SALT.get_or_init(|| splitmix64(unix_us() ^ (u64::from(std::process::id()) << 32)))
}

/// The request-scoped context that propagates across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identity of the whole distributed request (never 0).
    pub trace_id: u64,
    /// Span id of the hop this context was sent from (0 at the root).
    pub parent_span: u64,
}

impl TraceContext {
    /// Starts a new trace at this process: fresh `trace_id`, no parent.
    #[must_use]
    pub fn new_root() -> Self {
        let seq = ROOT_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut trace_id = splitmix64(seq ^ process_salt().rotate_left(17));
        if trace_id == 0 {
            trace_id = 1;
        }
        Self {
            trace_id,
            parent_span: 0,
        }
    }

    /// The context to send downstream from a span of this trace: same
    /// identity, parented under `span_id`.
    #[must_use]
    pub fn child(&self, span_id: u64) -> Self {
        Self {
            trace_id: self.trace_id,
            parent_span: span_id,
        }
    }
}

/// Terminal status of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// Failed (worker panic, exhausted failover, I/O error).
    Failed,
    /// Shed by backpressure or a draining server.
    Shed,
}

impl SpanStatus {
    /// Stable lowercase name (`ok` / `failed` / `shed`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Failed => "failed",
            Self::Shed => "shed",
        }
    }
}

/// One finished span of a trace, as recorded by one process.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Process-unique span id (never 0).
    pub span_id: u64,
    /// Span this nests under: another span of the same record, or — for
    /// the record's root — the upstream hop's span id from the wire
    /// context (0 when this process started the trace).
    pub parent_span: u64,
    /// Region name, e.g. `serve.request`, `fleet.partial`.
    pub name: &'static str,
    /// Role of the recording process, e.g. `serve`, `fleet`, `loadgen`.
    pub service: &'static str,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_unix_us: u64,
    /// Wall time of the span in microseconds.
    pub dur_us: u64,
    /// How the span ended.
    pub status: SpanStatus,
    /// Analytical energy attributed to this span in picojoules — 0
    /// everywhere except the one span per logical inference that the
    /// pricing layer stamps (`imc-cost` closed forms).
    pub energy_pj: u64,
    /// Freeform detail (`bank=3 batch=8`, `shard=1 layer=0`, ...).
    pub detail: String,
}

/// One process's view of one finished trace.
#[derive(Debug, Clone)]
pub struct TraceRec {
    /// Shared identity across processes.
    pub trace_id: u64,
    /// Finished spans, in recording order.
    pub spans: Vec<SpanRec>,
}

impl TraceRec {
    /// Total wall time: the widest span of the record.
    #[must_use]
    pub fn dur_us(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_us).max().unwrap_or(0)
    }

    /// Summed energy stamp of the record (pJ).
    #[must_use]
    pub fn energy_pj(&self) -> u64 {
        self.spans.iter().map(|s| s.energy_pj).sum()
    }
}

/// The bounded per-process trace buffer (see module docs).
pub struct FlightRecorder {
    /// The newest records, newest last.
    ring: Mutex<VecDeque<TraceRec>>,
}

impl FlightRecorder {
    /// Records retained (oldest evicted beyond this).
    pub const CAPACITY: usize = 256;

    const fn new() -> Self {
        Self {
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Pushes a finished record under the ring lock, evicting the
    /// oldest at [`CAPACITY`](Self::CAPACITY); the evicted record is
    /// freed after the lock is released.
    pub fn offer(&self, rec: TraceRec) {
        let mut ring = self.lock_ring();
        let evicted = if ring.len() >= Self::CAPACITY {
            ring.pop_front()
        } else {
            None
        };
        ring.push_back(rec);
        drop(ring);
        drop(evicted);
    }

    fn lock_ring(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceRec>> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Every record in the ring, oldest first.
    ///
    /// # Panics
    ///
    /// Never — a poisoned ring lock is recovered.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRec> {
        self.lock_ring().iter().cloned().collect()
    }
}

/// The process-wide flight recorder every instrumented layer offers
/// finished traces to.
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: FlightRecorder = FlightRecorder::new();
    &GLOBAL
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders trace records as the `/traces` JSON document (hand-rolled —
/// this crate stays dependency-free).
#[must_use]
pub fn traces_json(recs: &[TraceRec]) -> String {
    let mut out = String::with_capacity(256 + recs.len() * 256);
    out.push_str("{\n  \"service\": \"");
    push_json_escaped(&mut out, service_name());
    out.push_str("\",\n  \"traces\": [");
    for (i, rec) in recs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"trace_id\": {}, \"spans\": [",
            rec.trace_id
        ));
        for (j, s) in rec.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"span_id\": {}, \"parent_span\": {}, \"name\": \"{}\", \
                 \"service\": \"{}\", \"start_unix_us\": {}, \"dur_us\": {}, \
                 \"status\": \"{}\", \"energy_pj\": {}, \"detail\": \"",
                s.span_id,
                s.parent_span,
                s.name,
                s.service,
                s.start_unix_us,
                s.dur_us,
                s.status.as_str(),
                s.energy_pj
            ));
            push_json_escaped(&mut out, &s.detail);
            out.push_str("\"}");
        }
        out.push_str("\n    ]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Role name stamped on this process's exports (`/traces` and span
/// records usually agree); defaults to `proc` until set.
pub fn set_service_name(name: &'static str) {
    let _ = SERVICE.set(name);
}

fn service_name() -> &'static str {
    SERVICE.get().copied().unwrap_or("proc")
}

static SERVICE: OnceLock<&'static str> = OnceLock::new();

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u64, status: SpanStatus, pj: u64) -> TraceRec {
        TraceRec {
            trace_id,
            spans: vec![SpanRec {
                span_id: next_span_id(),
                parent_span: 0,
                name: "test.span",
                service: "test",
                start_unix_us: unix_us(),
                dur_us: 10,
                status,
                energy_pj: pj,
                detail: String::new(),
            }],
        }
    }

    #[test]
    fn root_contexts_are_unique_and_children_inherit() {
        let a = TraceContext::new_root();
        let b = TraceContext::new_root();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.parent_span, 0);
        let c = a.child(42);
        assert_eq!(c.trace_id, a.trace_id);
        assert_eq!(c.parent_span, 42);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        // No reads in between: however many offers pile up, whatever
        // their status, the ring holds exactly the newest CAPACITY.
        let r = FlightRecorder::new();
        let n = 2000;
        let statuses = [SpanStatus::Ok, SpanStatus::Failed, SpanStatus::Shed];
        for i in 0..n {
            r.offer(rec(i + 1, statuses[(i % 3) as usize], 0));
        }
        let ids: Vec<u64> = r.snapshot().iter().map(|t| t.trace_id).collect();
        let oldest = n - FlightRecorder::CAPACITY as u64 + 1;
        assert_eq!(ids, (oldest..=n).collect::<Vec<_>>());
    }

    #[test]
    fn offers_race_safely_across_threads() {
        let r = std::sync::Arc::new(FlightRecorder::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        r.offer(rec(t * 1000 + i + 1, SpanStatus::Ok, 0));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("offer thread");
        }
        // The ring keeps the last CAPACITY, each thread's in its order.
        let ids: Vec<u64> = r.snapshot().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids.len(), FlightRecorder::CAPACITY);
        for t in 0..4 {
            let mine: Vec<u64> = ids.iter().copied().filter(|id| id / 1000 == t).collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "thread {t}: {mine:?}");
        }
    }

    #[test]
    fn json_escapes_detail_and_lists_all_spans() {
        let mut t = rec(7, SpanStatus::Ok, 34);
        t.spans[0].detail = "say \"hi\"\n".into();
        let json = traces_json(&[t]);
        assert!(json.contains("\"trace_id\": 7, \"spans\": ["));
        assert!(json.contains("say \\\"hi\\\"\\n"));
        assert!(json.contains("\"energy_pj\": 34"));
        assert!(json.contains("\"status\": \"ok\""));
    }
}
