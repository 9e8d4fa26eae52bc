//! Service metrics, backed by the shared `imc-obs` registry.
//!
//! Recording sits on the response path, so everything is lock-free —
//! every handle is an `imc-obs` counter/gauge/histogram whose hot path
//! is a single relaxed atomic op. The metrics are read in one of two
//! ways: a scrape of the registry (`/metrics`), or the handles
//! themselves through [`ServerHandle::metrics`](crate::ServerHandle::metrics).
//!
//! Each [`Metrics`] instance owns fresh handles (tests run several
//! servers per process and must not share counters) and *also*
//! registers them into the global registry with replace semantics, so a
//! scrape endpoint (`--obs-addr`) always reports the most recently
//! started server.

use imc_obs::{registry, Counter, Gauge, Histogram};

/// All service counters and histograms, shared across threads.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Requests admitted into the queue.
    pub admitted: Counter,
    /// Requests with a response written.
    pub completed: Counter,
    /// Requests shed by backpressure or shutdown.
    pub shed: Counter,
    /// Unparseable frames / invalid requests.
    pub protocol_errors: Counter,
    /// Batches lost to a panic (each one failed its whole batch with
    /// typed `Failed` responses; the executor keeps serving).
    pub worker_panics: Counter,
    /// Connections dropped because a frame stayed incomplete past the
    /// configured read deadline.
    pub conn_deadline_drops: Counter,
    /// Connections refused with a `Busy` response at the concurrent
    /// connection cap.
    pub busy_rejects: Counter,
    /// Batches dispatched.
    pub batches: Counter,
    /// Cumulative analytical inference energy (pJ) across answered
    /// requests — `cost.energy_pj_total` on the scrape endpoint.
    pub energy_pj: Counter,
    /// The model's per-inference energy estimate (pJ) —
    /// `cost.energy_per_inference_pj`; set once at server start.
    pub energy_per_inference_pj: Gauge,
    /// End-to-end request latency (admission → response ready).
    pub request_latency: Histogram,
    /// Execution latency per batch.
    pub batch_latency: Histogram,
    /// Admission-queue depth, sampled by the batcher.
    pub queue_depth: Gauge,
    /// Completed hot swaps of the serving image —
    /// `serve.swaps_total` on the scrape endpoint.
    pub swaps_total: Counter,
    /// Version of the image currently serving (1 at startup, +1 per
    /// swap) — `serve.image_version`.
    pub image_version: Gauge,
}

impl Metrics {
    /// Creates zeroed metrics and publishes the handles to the global
    /// obs registry (replacing any previous server's — latest wins the
    /// scrape).
    #[must_use]
    pub(crate) fn new() -> Self {
        let m = Self {
            admitted: Counter::new(),
            completed: Counter::new(),
            shed: Counter::new(),
            protocol_errors: Counter::new(),
            worker_panics: Counter::new(),
            conn_deadline_drops: Counter::new(),
            busy_rejects: Counter::new(),
            batches: Counter::new(),
            energy_pj: Counter::new(),
            energy_per_inference_pj: Gauge::new(),
            request_latency: Histogram::new(),
            batch_latency: Histogram::new(),
            queue_depth: Gauge::new(),
            swaps_total: Counter::new(),
            image_version: Gauge::new(),
        };
        let r = registry();
        r.insert_counter(
            "imc_serve_admitted_total",
            &[],
            "Requests admitted into the queue",
            &m.admitted,
        );
        r.insert_counter(
            "imc_serve_completed_total",
            &[],
            "Requests with a response written",
            &m.completed,
        );
        r.insert_counter(
            "imc_serve_shed_total",
            &[],
            "Requests shed by backpressure or shutdown",
            &m.shed,
        );
        r.insert_counter(
            "imc_serve_protocol_errors_total",
            &[],
            "Unparseable frames / invalid requests",
            &m.protocol_errors,
        );
        r.insert_counter(
            "imc_serve_worker_panics_total",
            &[],
            "Batches lost to a panic, failed as typed responses while the executor keeps serving",
            &m.worker_panics,
        );
        r.insert_counter(
            "imc_serve_conn_deadline_drops_total",
            &[],
            "Connections dropped for holding a frame incomplete past the read deadline",
            &m.conn_deadline_drops,
        );
        r.insert_counter(
            "imc_serve_busy_rejects_total",
            &[],
            "Connections refused with Busy at the concurrent-connection cap",
            &m.busy_rejects,
        );
        r.insert_counter(
            "imc_serve_batches_total",
            &[],
            "Batches executed",
            &m.batches,
        );
        r.insert_counter(
            "cost.energy_pj_total",
            &[],
            "Cumulative analytical inference energy in picojoules (imc-cost closed forms)",
            &m.energy_pj,
        );
        r.insert_gauge(
            "cost.energy_per_inference_pj",
            &[],
            "Analytical energy per whole-model inference in picojoules",
            &m.energy_per_inference_pj,
        );
        r.insert_histogram(
            "imc_serve_request_latency_us",
            &[],
            "End-to-end request latency in microseconds (admission to response)",
            &m.request_latency,
        );
        r.insert_histogram(
            "imc_serve_batch_latency_us",
            &[],
            "Batch execution latency in microseconds",
            &m.batch_latency,
        );
        r.insert_gauge(
            "imc_serve_queue_depth",
            &[],
            "Admission-queue depth sampled at each batch",
            &m.queue_depth,
        );
        r.insert_counter(
            "serve.swaps_total",
            &[],
            "Completed hot swaps of the serving image",
            &m.swaps_total,
        );
        r.insert_gauge(
            "serve.image_version",
            &[],
            "Version of the image currently serving (1 at startup, +1 per swap)",
            &m.image_version,
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test body: instances replace each other's slots in the global
    // registry, so parallel tests would race on what "latest" means.
    #[test]
    fn instances_are_isolated_and_the_latest_wins_the_scrape() {
        // Fresh instances do not share counters.
        let a = Metrics::new();
        a.admitted.add(4);
        let b = Metrics::new();
        assert_eq!(b.admitted.get(), 0, "second server starts from zero");
        assert_eq!(a.admitted.get(), 4, "first server's handle still live");
        let snap = imc_obs::registry().snapshot();
        assert_eq!(snap.counter("imc_serve_admitted_total"), Some(0));

        // The latest instance is what the global registry scrapes.
        let latest = Metrics::new();
        latest.request_latency.record(120);
        latest.batches.inc();
        latest.energy_pj.add(4321);
        latest.energy_per_inference_pj.set(4321.0);
        latest.swaps_total.inc();
        latest.image_version.set(2.0);
        let snap = imc_obs::registry().snapshot();
        assert_eq!(snap.counter("cost.energy_pj_total"), Some(4321));
        assert_eq!(snap.gauge("cost.energy_per_inference_pj"), Some(4321.0));
        assert_eq!(snap.counter("serve.swaps_total"), Some(1));
        assert_eq!(snap.gauge("serve.image_version"), Some(2.0));
        let lat = snap
            .histogram("imc_serve_request_latency_us")
            .expect("histogram registered");
        assert_eq!(lat.count, 1);
        assert_eq!(snap.counter("imc_serve_batches_total"), Some(1));
    }
}
