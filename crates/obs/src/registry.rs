//! The global metrics registry and its typed handles.
//!
//! Registration (the only operation that takes a lock) happens once per
//! call site; after that a handle is a cheap `Arc` clone and the hot
//! path is a single relaxed atomic op. The [`counter!`](crate::counter),
//! [`gauge!`](crate::gauge), [`histogram!`](crate::histogram) and
//! [`span!`](macro@crate::span) macros cache the handle in a `OnceLock`
//! static at the call site, so instrumented inner loops never touch the
//! registry mutex.
//!
//! Two registration flavours exist:
//!
//! * **get-or-create** ([`Registry::counter`] & friends): every call
//!   with the same `(name, labels)` returns a handle to the *same*
//!   underlying metric — the right semantics for process-wide
//!   instrumentation (pool counters, solver counters).
//! * **insert** ([`Registry::insert_counter`] & friends): registers an
//!   *existing* handle under a key, replacing whatever was there — used
//!   by components that own per-instance metrics (e.g. each
//!   `imc-serve` server instance) so tests get isolated counters while
//!   the scrape endpoint always sees the latest instance.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::hist::{Exemplar, HistogramCore, Summary};

/// A monotonically increasing counter. Clones share the same value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`. Clones share the value.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (compare-and-swap loop; gauges are not hot-path).
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A shared log-linear histogram handle. Clones share the buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A fresh, unregistered histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation (three relaxed atomic adds).
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Records one observation and stamps the exemplar cell with its
    /// trace id (0 = untraced, exemplar untouched).
    pub fn record_with_exemplar(&self, v: u64, trace_id: u64) {
        self.0.record_with_exemplar(v, trace_id);
    }

    /// The most recent traced observation, if any.
    #[must_use]
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.0.exemplar()
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Sum of recorded observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.0.sum()
    }

    /// Folds the buckets into a quantile summary.
    #[must_use]
    pub fn summary(&self) -> Summary {
        self.0.summary()
    }
}

/// Label set of a metric: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

/// The value side of a registered metric.
#[derive(Debug, Clone)]
pub enum MetricHandle {
    /// A counter.
    Counter(Counter),
    /// A gauge.
    Gauge(Gauge),
    /// A histogram.
    Histogram(Histogram),
}

/// One registered metric (name + labels + help + live handle).
#[derive(Debug, Clone)]
pub struct MetricEntry {
    /// Metric family name (`snake_case`, Prometheus conventions:
    /// `_total` counters, unit-suffixed histograms).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Labels,
    /// One-line help text.
    pub help: String,
    /// The live handle.
    pub handle: MetricHandle,
}

struct Inner {
    entries: Vec<MetricEntry>,
    index: HashMap<(String, Labels), usize>,
}

/// A collection of named metrics.
///
/// The process-wide instance is [`registry()`]; fresh instances exist
/// for tests.
pub struct Registry {
    inner: Mutex<Inner>,
    started: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn normalize(labels: &[(&str, &str)]) -> Labels {
    let mut l: Labels = labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect();
    l.sort();
    l
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                index: HashMap::new(),
            }),
            started: Instant::now(),
        }
    }

    /// Seconds since the registry was created (≈ process start for the
    /// global registry).
    #[must_use]
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn get_or_create(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        let labels = normalize(labels);
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        let key = (name.to_owned(), labels.clone());
        if let Some(&i) = inner.index.get(&key) {
            return inner.entries[i].handle.clone();
        }
        let handle = make();
        let i = inner.entries.len();
        inner.entries.push(MetricEntry {
            name: name.to_owned(),
            labels,
            help: help.to_owned(),
            handle: handle.clone(),
        });
        inner.index.insert(key, i);
        handle
    }

    fn insert(&self, name: &str, labels: &[(&str, &str)], help: &str, handle: MetricHandle) {
        let labels = normalize(labels);
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        let key = (name.to_owned(), labels.clone());
        if let Some(&i) = inner.index.get(&key) {
            inner.entries[i].handle = handle;
            inner.entries[i].help = help.to_owned();
            return;
        }
        let i = inner.entries.len();
        inner.entries.push(MetricEntry {
            name: name.to_owned(),
            labels,
            help: help.to_owned(),
            handle,
        });
        inner.index.insert(key, i);
    }

    /// Gets or creates the counter `name` (no labels).
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Gets or creates the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered as a different kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.get_or_create(name, labels, help, || MetricHandle::Counter(Counter::new())) {
            MetricHandle::Counter(c) => c,
            other => panic!("metric `{name}` already registered as {}", kind(&other)),
        }
    }

    /// Gets or creates the gauge `name` (no labels).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Gets or creates the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered as a different kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.get_or_create(name, labels, help, || MetricHandle::Gauge(Gauge::new())) {
            MetricHandle::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as {}", kind(&other)),
        }
    }

    /// Gets or creates the histogram `name` (no labels).
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, &[], help)
    }

    /// Gets or creates the histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already registered as a different kind.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        match self.get_or_create(name, labels, help, || {
            MetricHandle::Histogram(Histogram::new())
        }) {
            MetricHandle::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as {}", kind(&other)),
        }
    }

    /// Registers an existing counter handle, replacing any previous
    /// metric under the same `(name, labels)`.
    pub fn insert_counter(&self, name: &str, labels: &[(&str, &str)], help: &str, c: &Counter) {
        self.insert(name, labels, help, MetricHandle::Counter(c.clone()));
    }

    /// Registers an existing gauge handle, replacing any previous metric
    /// under the same `(name, labels)`.
    pub fn insert_gauge(&self, name: &str, labels: &[(&str, &str)], help: &str, g: &Gauge) {
        self.insert(name, labels, help, MetricHandle::Gauge(g.clone()));
    }

    /// Registers an existing histogram handle, replacing any previous
    /// metric under the same `(name, labels)`.
    pub fn insert_histogram(&self, name: &str, labels: &[(&str, &str)], help: &str, h: &Histogram) {
        self.insert(name, labels, help, MetricHandle::Histogram(h.clone()));
    }

    /// A point-in-time copy of every registered metric, in registration
    /// order.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("obs registry poisoned");
        Snapshot {
            uptime_s: self.started.elapsed().as_secs_f64(),
            entries: inner
                .entries
                .iter()
                .map(|e| MetricSnapshot {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    help: e.help.clone(),
                    value: match &e.handle {
                        MetricHandle::Counter(c) => MetricValue::Counter(c.get()),
                        MetricHandle::Gauge(g) => MetricValue::Gauge(g.get()),
                        MetricHandle::Histogram(h) => MetricValue::Histogram(h.summary()),
                    },
                    exemplar: match &e.handle {
                        MetricHandle::Histogram(h) => h.exemplar(),
                        _ => None,
                    },
                })
                .collect(),
        }
    }
}

fn kind(h: &MetricHandle) -> &'static str {
    match h {
        MetricHandle::Counter(_) => "a counter",
        MetricHandle::Gauge(_) => "a gauge",
        MetricHandle::Histogram(_) => "a histogram",
    }
}

/// The process-wide registry every instrumented crate reports into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A cached family of metrics sharing one name and label *keys*, keyed
/// by label *values* — e.g. `fleet_shard_requests_total{shard,replica}`.
///
/// [`Registry::counter_with`] already supports labels, but pays the
/// registry mutex plus label normalization on every call; a family keeps
/// a private value→handle map so steady-state use costs one small map
/// lookup and one relaxed atomic. Built for per-shard/per-replica
/// traffic families, where the label values are discovered at runtime
/// and hit on every routed request.
pub struct MetricVec<M> {
    name: &'static str,
    help: &'static str,
    keys: &'static [&'static str],
    register: Register<M>,
    cache: Mutex<HashMap<Vec<String>, M>>,
}

/// How a family registers a member: [`Registry::counter_with`] or
/// [`Registry::gauge_with`].
type Register<M> = fn(&Registry, &str, &[(&str, &str)], &str) -> M;

/// A cached family of counters.
pub type CounterVec = MetricVec<Counter>;

/// A cached family of gauges.
pub type GaugeVec = MetricVec<Gauge>;

impl CounterVec {
    /// A family registering into the global registry on first use of
    /// each label-value combination.
    #[must_use]
    pub fn new(name: &'static str, keys: &'static [&'static str], help: &'static str) -> Self {
        Self::family(name, keys, help, Registry::counter_with)
    }
}

impl GaugeVec {
    /// A family registering into the global registry on first use of
    /// each label-value combination.
    #[must_use]
    pub fn new(name: &'static str, keys: &'static [&'static str], help: &'static str) -> Self {
        Self::family(name, keys, help, Registry::gauge_with)
    }
}

impl<M: Clone> MetricVec<M> {
    fn family(
        name: &'static str,
        keys: &'static [&'static str],
        help: &'static str,
        register: Register<M>,
    ) -> Self {
        Self {
            name,
            help,
            keys,
            register,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The metric for one combination of label values (positionally
    /// matching the family's keys), creating and registering it on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the family's key count, or
    /// if the name was registered as a different metric kind.
    #[must_use]
    pub fn with(&self, values: &[&str]) -> M {
        assert_eq!(
            values.len(),
            self.keys.len(),
            "family `{}` takes {} label(s)",
            self.name,
            self.keys.len()
        );
        let key: Vec<String> = values.iter().map(|v| (*v).to_owned()).collect();
        let mut cache = self.cache.lock().expect("metric family poisoned");
        if let Some(m) = cache.get(&key) {
            return m.clone();
        }
        let labels: Vec<(&str, &str)> = self
            .keys
            .iter()
            .copied()
            .zip(values.iter().copied())
            .collect();
        let m = (self.register)(registry(), self.name, &labels, self.help);
        cache.insert(key, m.clone());
        m
    }
}

/// A frozen value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary.
    Histogram(Summary),
}

/// A frozen metric: name, labels, help, value.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric family name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Labels,
    /// Help text.
    pub help: String,
    /// Frozen value.
    pub value: MetricValue,
    /// Histogram exemplar (a recent traced observation), if any.
    pub exemplar: Option<Exemplar>,
}

/// A point-in-time copy of a whole registry.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Seconds since the registry was created.
    pub uptime_s: f64,
    /// Every metric, in registration order.
    pub entries: Vec<MetricSnapshot>,
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        let labels = normalize(labels);
        self.entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
    }

    /// Value of the label-free counter `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_with(name, &[])
    }

    /// Value of the counter `name{labels}`, if registered.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Value of the label-free gauge `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.find(name, &[])?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Summary of the label-free histogram `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Summary> {
        self.histogram_with(name, &[])
    }

    /// Summary of the histogram `name{labels}`, if registered.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<Summary> {
        match self.find(name, labels)?.value {
            MetricValue::Histogram(s) => Some(s),
            _ => None,
        }
    }
}

/// Gets (and caches in a call-site static) the label-free counter
/// `$name` from the global registry: after the first call, using the
/// handle is a single relaxed atomic op with zero lookups.
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name, $help))
    }};
}

/// Gets (and caches in a call-site static) the label-free gauge `$name`
/// from the global registry.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::Gauge> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().gauge($name, $help))
    }};
}

/// Gets (and caches in a call-site static) the label-free histogram
/// `$name` from the global registry.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::Histogram> = std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name, $help))
    }};
}

/// Gets (and caches in a call-site static) a labeled counter *family*
/// `$name{keys...}`, then resolves the handle for the given label
/// values: `counter_vec!("fleet_shard_requests_total", ["shard",
/// "replica"], "help", &[shard_str, replica_str]).inc()`.
#[macro_export]
macro_rules! counter_vec {
    ($name:expr, [$($key:expr),+ $(,)?], $help:expr, $values:expr) => {{
        static FAMILY: std::sync::OnceLock<$crate::CounterVec> = std::sync::OnceLock::new();
        FAMILY
            .get_or_init(|| $crate::CounterVec::new($name, &[$($key),+], $help))
            .with($values)
    }};
}

/// Gets (and caches in a call-site static) a labeled gauge family —
/// [`counter_vec!`](crate::counter_vec) for gauges.
#[macro_export]
macro_rules! gauge_vec {
    ($name:expr, [$($key:expr),+ $(,)?], $help:expr, $values:expr) => {{
        static FAMILY: std::sync::OnceLock<$crate::GaugeVec> = std::sync::OnceLock::new();
        FAMILY
            .get_or_init(|| $crate::GaugeVec::new($name, &[$($key),+], $help))
            .with($values)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_metric() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("x_total"), Some(3));
    }

    #[test]
    fn labels_distinguish_metrics() {
        let r = Registry::new();
        let a = r.counter_with("bank_total", &[("bank", "0")], "per bank");
        let b = r.counter_with("bank_total", &[("bank", "1")], "per bank");
        a.inc();
        b.add(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter_with("bank_total", &[("bank", "0")]), Some(1));
        assert_eq!(snap.counter_with("bank_total", &[("bank", "1")]), Some(5));
    }

    #[test]
    fn insert_replaces_the_slot_but_old_handles_stay_alive() {
        let r = Registry::new();
        let first = Counter::new();
        r.insert_counter("served_total", &[], "requests", &first);
        first.add(7);
        let second = Counter::new();
        r.insert_counter("served_total", &[], "requests", &second);
        second.add(2);
        // The old handle still counts privately; the registry sees the
        // replacement.
        first.inc();
        assert_eq!(first.get(), 8);
        assert_eq!(r.snapshot().counter("served_total"), Some(2));
        // No duplicate entry was created.
        assert_eq!(r.snapshot().entries.len(), 1);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_histogram_summary() {
        let r = Registry::new();
        let h = r.histogram("lat_us", "latency");
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let s = r.snapshot().histogram("lat_us").expect("registered");
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 60);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("dual_use", "as counter");
        r.gauge("dual_use", "as gauge");
    }

    #[test]
    fn counter_family_caches_per_label_values() {
        let fam = CounterVec::new(
            "obs_test_family_total",
            &["shard", "replica"],
            "per shard/replica test family",
        );
        fam.with(&["0", "a"]).inc();
        fam.with(&["0", "a"]).add(2);
        fam.with(&["1", "b"]).inc();
        let snap = registry().snapshot();
        assert_eq!(
            snap.counter_with("obs_test_family_total", &[("shard", "0"), ("replica", "a")]),
            Some(3)
        );
        assert_eq!(
            snap.counter_with("obs_test_family_total", &[("shard", "1"), ("replica", "b")]),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "takes 2 label(s)")]
    fn counter_family_rejects_wrong_arity() {
        let fam = CounterVec::new("obs_test_arity_total", &["a", "b"], "arity check");
        let _ = fam.with(&["only-one"]);
    }

    #[test]
    fn gauge_family_shares_handles() {
        let fam = GaugeVec::new("obs_test_gauge_family", &["shard"], "gauge family");
        fam.with(&["2"]).set(4.5);
        assert!((fam.with(&["2"]).get() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn family_macros_compile_and_count() {
        crate::counter_vec!(
            "obs_test_macro_family_total",
            ["shard", "replica"],
            "macro-cached family",
            &["3", "c"]
        )
        .inc();
        crate::gauge_vec!("obs_test_macro_gauge", ["shard"], "macro gauge", &["3"]).set(1.0);
        let snap = registry().snapshot();
        assert_eq!(
            snap.counter_with(
                "obs_test_macro_family_total",
                &[("shard", "3"), ("replica", "c")]
            ),
            Some(1)
        );
    }
}
