//! Scoped timers.
//!
//! [`span!`](macro@crate::span)`("name")` times the region its guard
//! is alive for and records the wall time, in µs, into the histogram
//! `span_us{span="name"}` when the guard drops or
//! [`finish`](SpanGuard::finish)es. The macro resolves that histogram
//! once per call site into a `static OnceLock`, as
//! [`histogram!`](crate::histogram) does, so a span costs two `Instant`
//! reads and one histogram record: no lock, no allocation and no
//! thread-local state, on any thread.

use std::time::{Duration, Instant};

use crate::registry::Histogram;

/// A running span; records its wall time when dropped or via
/// [`finish`](SpanGuard::finish). Made by the [`span!`](macro@crate::span)
/// macro.
#[must_use = "a span measures the region it is alive for"]
pub struct SpanGuard {
    hist: &'static Histogram,
    started: Instant,
}

impl SpanGuard {
    /// Starts timing a region into `hist`. Prefer the
    /// [`span!`](macro@crate::span) macro, which caches `hist` per call
    /// site.
    pub fn start(hist: &'static Histogram) -> Self {
        Self {
            hist,
            started: Instant::now(),
        }
    }

    fn record(&self) -> Duration {
        let wall = self.started.elapsed();
        self.hist
            .record(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));
        wall
    }

    /// Ends the span now, records it, and returns its wall time.
    pub fn finish(self) -> Duration {
        let wall = self.record();
        std::mem::forget(self);
        wall
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record();
    }
}

/// Opens a span named by a string literal; the returned [`SpanGuard`]
/// records `span_us{span="<name>"}` on drop or [`SpanGuard::finish`].
///
/// ```
/// let _g = imc_obs::span!("pass.remap");
/// // ... region being timed ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static HANDLE: std::sync::OnceLock<$crate::Histogram> = std::sync::OnceLock::new();
        $crate::SpanGuard::start(HANDLE.get_or_init(|| {
            $crate::registry().histogram_with(
                "span_us",
                &[("span", $name)],
                "Span wall time in microseconds",
            )
        }))
    }};
}
