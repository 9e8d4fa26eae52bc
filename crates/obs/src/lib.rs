//! # imc-obs — unified observability for the FeFET-IMC stack
//!
//! One substrate for metrics, spans, and exporters, shared by every
//! workspace crate (`par-exec`, `imc-sim`, `imc-serve`, `imc-compile`,
//! the bench bins). The paper argues its case through per-component
//! energy/latency breakdowns; this crate is how the reproduction keeps
//! the same visibility at serving scale.
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies.** Everything else instruments itself through
//!    this crate, so it must sit at the bottom of the dependency graph
//!    — not even the offline compat stubs. JSON export is hand-rolled.
//! 2. **Hot-path cost is one relaxed atomic op.** The [`counter!`],
//!    [`gauge!`], and [`histogram!`] macros cache their handle in a
//!    call-site `OnceLock`; recording never takes a lock and never
//!    allocates. Histograms are the log-linear design generalized from
//!    `imc-serve` (three relaxed adds, ≤ 6.25 % quantile error).
//! 3. **Scraping is read-only and optional.** [`serve_http`] exposes
//!    `GET /metrics` (Prometheus text) and `GET /metrics.json` on a
//!    background thread; batch bins instead dump [`text_summary`] at
//!    exit via [`print_summary_if_env`].
//!
//! ## Quick tour
//!
//! ```
//! use imc_obs::{counter, histogram, span};
//!
//! counter!("demo_jobs_total", "Jobs processed").inc();
//! histogram!("demo_job_us", "Job latency in microseconds").record(42);
//! let g = span!("demo.phase");
//! // ... timed region; records span_us{span="demo.phase"} ...
//! drop(g);
//! let snap = imc_obs::registry().snapshot();
//! assert_eq!(snap.counter("demo_jobs_total"), Some(1));
//! println!("{}", imc_obs::prometheus_text(&snap));
//! ```

#![deny(missing_docs)]

pub mod export;
pub mod hist;
pub mod http;
pub mod listen;
pub mod registry;
pub mod span;
pub mod trace;

pub use export::{json_snapshot, print_summary_if_env, prometheus_text, text_summary};
pub use hist::{bucket_index, bucket_value, HistogramCore, Summary, OCTAVES, SUB_BUCKETS};
pub use http::{serve_http, HttpHandle};
pub use listen::{Listener, Waker};
pub use registry::{
    registry, Counter, CounterVec, Gauge, GaugeVec, Histogram, Labels, MetricEntry, MetricHandle,
    MetricSnapshot, MetricValue, Registry, Snapshot,
};
pub use span::{
    enter, init_span_sampling_from_env, set_span_sampling, span_sampling, SpanGuard,
    SPAN_SAMPLE_ENV,
};
pub use trace::{
    next_span_id, recorder, set_service_name, set_trace_head_sampling, set_trace_slow_us,
    trace_head_sampling, traces_json, unix_us, FlightRecorder, SpanRec, SpanStatus, TraceContext,
    TraceRec,
};
