//! Request-scoped distributed tracing and the per-process flight
//! recorder.
//!
//! A [`TraceContext`] names one logical request: a process-unique
//! `trace_id`, the span it is nested under on the *sending* side
//! (`parent_span`), and a head-sampling flag. The context rides the
//! wire (an optional JSON field; an optional trailing block in `BIN1`
//! frames — see `imc-serve::wire`) so every process a request passes
//! through tags its spans with the same `trace_id`.
//!
//! Each process records its view of a finished request as a
//! [`TraceRec`] — a flat list of [`SpanRec`]s — and offers it to the
//! global [`FlightRecorder`]. The recorder is the crash-safe "what just
//! happened" buffer:
//!
//! * **Tail sampling is always on.** Failed, shed, slow
//!   (≥ [`set_trace_slow_us`]) and energy-outlier records are always
//!   kept regardless of head sampling. Everything else is kept only
//!   when its context won the 1-in-N head lottery
//!   ([`set_trace_head_sampling`], default 1 = keep all — the ring
//!   bounds memory either way).
//! * **Bounded memory.** The ring holds the most recent
//!   [`FlightRecorder::CAPACITY`] kept records; each kept offer pushes
//!   under the ring's mutex and evicts the oldest once the ring is full,
//!   so what a scrape or the exit dump reads is always the newest
//!   records, however long since the last read.
//!
//! Records are exported as JSON over the obs HTTP endpoint
//! (`GET /traces`) and dumped on exit by
//! [`print_summary_if_env`](crate::print_summary_if_env). Stitching
//! records from several processes back into one distributed trace is
//! the `imc-trace` bin's job: records share a `trace_id`, and each
//! span's `parent_span` points at the span id of the hop that caused
//! it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Head-sampling knob: 1-in-N new root contexts are marked `sampled`.
static HEAD_EVERY: AtomicU32 = AtomicU32::new(1);
/// Root-context counter driving the head lottery and id uniqueness.
static ROOT_SEQ: AtomicU64 = AtomicU64::new(0);
/// Span-id counter (process-unique, never 0).
static SPAN_SEQ: AtomicU64 = AtomicU64::new(0);
/// Tail-sampling slowness threshold in microseconds.
static SLOW_US: AtomicU64 = AtomicU64::new(50_000);

/// Marks 1-in-`every` fresh root contexts as head-sampled (`every = 1`,
/// the default, samples every request; `0` is treated as 1). Tail
/// sampling (failed / shed / slow / energy-outlier records) is
/// unaffected — those are always kept.
pub fn set_trace_head_sampling(every: u32) {
    HEAD_EVERY.store(every.max(1), Ordering::Relaxed);
}

/// Current head-sampling setting.
#[must_use]
pub fn trace_head_sampling() -> u32 {
    HEAD_EVERY.load(Ordering::Relaxed)
}

/// Records at least this slow (total span wall time) are always kept by
/// the recorder, regardless of head sampling. Default 50 ms.
pub fn set_trace_slow_us(us: u64) {
    SLOW_US.store(us, Ordering::Relaxed);
}

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
    /// Head-sampling flag: kept by every recorder on the path even when
    /// nothing notable happened.
    pub sampled: bool,
}

impl TraceContext {
    /// Starts a new trace at this process: fresh `trace_id`, no parent,
    /// `sampled` decided by the 1-in-N head lottery.
    #[must_use]
    pub fn new_root() -> Self {
        let seq = ROOT_SEQ.fetch_add(1, Ordering::Relaxed);
        let every = u64::from(HEAD_EVERY.load(Ordering::Relaxed).max(1));
        let mut trace_id = splitmix64(seq ^ process_salt().rotate_left(17));
        if trace_id == 0 {
            trace_id = 1;
        }
        Self {
            trace_id,
            parent_span: 0,
            sampled: seq.is_multiple_of(every),
        }
    }

    /// The context to send downstream from a span of this trace: same
    /// identity and sampling, parented under `span_id`.
    #[must_use]
    pub fn child(&self, span_id: u64) -> Self {
        Self {
            trace_id: self.trace_id,
            parent_span: span_id,
            sampled: self.sampled,
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
    /// Shed by backpressure or a budget.
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
    /// Head-sampling flag carried by the context.
    pub sampled: bool,
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

    /// True when any span ended non-`Ok`.
    #[must_use]
    pub fn notable_status(&self) -> bool {
        self.spans.iter().any(|s| s.status != SpanStatus::Ok)
    }
}

/// The bounded per-process trace buffer (see module docs).
pub struct FlightRecorder {
    /// Kept records, newest last.
    ring: Mutex<VecDeque<TraceRec>>,
    /// Kept / dropped tallies (`dropped` = failed the keep rules).
    kept: AtomicU64,
    dropped: AtomicU64,
    /// Running energy stats for the outlier rule.
    energy_sum_pj: AtomicU64,
    energy_count: AtomicU64,
}

impl FlightRecorder {
    /// Kept records retained (oldest evicted beyond this).
    pub const CAPACITY: usize = 256;

    const fn new() -> Self {
        Self {
            ring: Mutex::new(VecDeque::new()),
            kept: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            energy_sum_pj: AtomicU64::new(0),
            energy_count: AtomicU64::new(0),
        }
    }

    /// Offers a finished record. Keeps it when tail rules fire (any
    /// non-ok span, total wall ≥ the slow threshold, energy ≥ 4× the
    /// running mean) or the context was head-sampled; otherwise counts
    /// a drop. A kept record is pushed under the ring lock, evicting the
    /// oldest at [`CAPACITY`](Self::CAPACITY); the evicted record is
    /// freed after the lock is released.
    pub fn offer(&self, rec: TraceRec) {
        let energy = rec.energy_pj();
        if energy > 0 {
            self.energy_sum_pj.fetch_add(energy, Ordering::Relaxed);
            self.energy_count.fetch_add(1, Ordering::Relaxed);
        }
        if !self.keeps(&rec, energy) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = self.lock_ring();
        let evicted = if ring.len() >= Self::CAPACITY {
            ring.pop_front()
        } else {
            None
        };
        ring.push_back(rec);
        drop(ring);
        drop(evicted);
        self.kept.fetch_add(1, Ordering::Relaxed);
    }

    fn lock_ring(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceRec>> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn keeps(&self, rec: &TraceRec, energy_pj: u64) -> bool {
        if rec.sampled || rec.notable_status() {
            return true;
        }
        if rec.dur_us() >= SLOW_US.load(Ordering::Relaxed) {
            return true;
        }
        // Energy outlier: ≥ 4× the running mean, once enough records
        // have been priced for the mean to be meaningful.
        let n = self.energy_count.load(Ordering::Relaxed);
        if energy_pj > 0 && n >= 16 {
            let mean = self.energy_sum_pj.load(Ordering::Relaxed) / n;
            if energy_pj >= mean.saturating_mul(4) {
                return true;
            }
        }
        false
    }

    /// Every kept record, oldest first.
    ///
    /// # Panics
    ///
    /// Never — a poisoned ring lock is recovered.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceRec> {
        self.lock_ring().iter().cloned().collect()
    }

    /// Records kept so far (monotonic).
    #[must_use]
    pub fn kept_total(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Records dropped by the keep rules (monotonic).
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Empties the recorder (tests).
    pub fn clear(&self) {
        self.lock_ring().clear();
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
            "\n    {{\"trace_id\": {}, \"sampled\": {}, \"spans\": [",
            rec.trace_id, rec.sampled
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

    fn rec(trace_id: u64, sampled: bool, status: SpanStatus, dur_us: u64, pj: u64) -> TraceRec {
        TraceRec {
            trace_id,
            sampled,
            spans: vec![SpanRec {
                span_id: next_span_id(),
                parent_span: 0,
                name: "test.span",
                service: "test",
                start_unix_us: unix_us(),
                dur_us,
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
        assert_eq!(c.sampled, a.sampled);
    }

    #[test]
    fn tail_rules_keep_notable_records_and_drop_boring_ones() {
        let r = FlightRecorder::new();
        // Unsampled + fast + ok → dropped.
        r.offer(rec(1, false, SpanStatus::Ok, 10, 0));
        // Failed → kept even unsampled.
        r.offer(rec(2, false, SpanStatus::Failed, 10, 0));
        // Shed → kept.
        r.offer(rec(3, false, SpanStatus::Shed, 10, 0));
        // Slow → kept.
        r.offer(rec(4, false, SpanStatus::Ok, 10_000_000, 0));
        // Sampled → kept.
        r.offer(rec(5, true, SpanStatus::Ok, 10, 0));
        let snap = r.snapshot();
        let ids: Vec<u64> = snap.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![2, 3, 4, 5]);
        assert_eq!(r.kept_total(), 4);
        assert_eq!(r.dropped_total(), 1);
    }

    #[test]
    fn energy_outliers_are_kept_once_the_mean_settles() {
        let r = FlightRecorder::new();
        for i in 0..20 {
            r.offer(rec(100 + i, false, SpanStatus::Ok, 10, 1000));
        }
        // 10× the mean: kept by the outlier rule despite being fast,
        // ok, and unsampled.
        r.offer(rec(999, false, SpanStatus::Ok, 10, 10_000));
        assert!(r.snapshot().iter().any(|t| t.trace_id == 999));
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        // No reads in between: however many offers pile up, the ring
        // holds exactly the newest CAPACITY and nothing kept is dropped.
        let r = FlightRecorder::new();
        let n = 2000;
        for i in 0..n {
            r.offer(rec(i + 1, true, SpanStatus::Ok, 10, 0));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), FlightRecorder::CAPACITY);
        assert_eq!(snap.last().expect("nonempty").trace_id, n);
        let oldest = n - FlightRecorder::CAPACITY as u64 + 1;
        assert_eq!(snap.first().expect("nonempty").trace_id, oldest);
        assert_eq!(r.kept_total(), n);
        assert_eq!(r.dropped_total(), 0);
    }

    #[test]
    fn offers_race_safely_across_threads() {
        let r = std::sync::Arc::new(FlightRecorder::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        r.offer(rec(t * 1000 + i + 1, true, SpanStatus::Ok, 10, 0));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("offer thread");
        }
        assert_eq!(r.kept_total(), 800);
        // Every offer was head-sampled: nothing dropped, ring keeps the
        // last CAPACITY.
        assert_eq!(r.dropped_total(), 0);
        assert_eq!(r.snapshot().len(), FlightRecorder::CAPACITY);
    }

    #[test]
    fn json_escapes_detail_and_lists_all_spans() {
        let mut t = rec(7, true, SpanStatus::Ok, 12, 34);
        t.spans[0].detail = "say \"hi\"\n".into();
        let json = traces_json(&[t]);
        assert!(json.contains("\"trace_id\": 7"));
        assert!(json.contains("say \\\"hi\\\"\\n"));
        assert!(json.contains("\"energy_pj\": 34"));
        assert!(json.contains("\"status\": \"ok\""));
    }

    #[test]
    fn head_sampling_marks_one_in_n() {
        set_trace_head_sampling(1);
        let c = TraceContext::new_root();
        assert!(c.sampled, "1-in-1 samples everything");
        set_trace_head_sampling(1_000_000);
        let sampled = (0..64).filter(|_| TraceContext::new_root().sampled).count();
        set_trace_head_sampling(1);
        assert!(sampled <= 1, "1-in-1M should mark at most one of 64");
    }
}
