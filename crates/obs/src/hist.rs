//! The log-linear histogram, generalized out of `imc-serve`'s latency
//! metrics so every crate can share one implementation.
//!
//! Recording is lock-free: three relaxed atomic adds per observation,
//! no allocation. The bucket layout is HDR-style log-linear — each
//! power-of-two octave of the (unit-agnostic) `u64` value domain is
//! split into [`SUB_BUCKETS`] linear sub-buckets, bounding the relative
//! quantile error at `1/SUB_BUCKETS` (6.25 %) across nine decades
//! without per-observation allocation. The bucket math is **identical**
//! to the original `crates/serve/src/metrics.rs` implementation, so
//! serve's latency quantiles did not move in the migration (asserted
//! against a frozen copy by `crates/serve/tests/metrics_compat.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 16;
/// Number of octaves: values up to 2^36 bucket exactly, larger ones
/// clamp into the final bucket. In microseconds that is ~19 hours.
pub const OCTAVES: usize = 37;

/// Bucket index for a value: octave = position of the highest set bit,
/// sub-bucket = the next `log2(SUB_BUCKETS)` bits below it.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        // First octaves collapse: values below SUB_BUCKETS are exact.
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let shift = msb - SUB_BUCKETS.trailing_zeros() as usize;
    let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
    let octave = (msb + 1 - SUB_BUCKETS.trailing_zeros() as usize).min(OCTAVES - 1);
    octave * SUB_BUCKETS + sub
}

/// Upper-bound value represented by a bucket (what quantiles report).
#[must_use]
pub fn bucket_value(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = index / SUB_BUCKETS;
    let sub = (index % SUB_BUCKETS) as u64;
    let shift = octave - 1;
    ((SUB_BUCKETS as u64 + sub + 1) << shift) - 1
}

/// A fixed-size log-linear histogram of `u64` observations (the unit —
/// µs, ns, items — is the caller's naming convention).
#[derive(Debug)]
pub struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Exemplar cell: the value and trace id of a recent traced
    /// observation (best-effort, last-writer-wins; 0 = none yet). Lets
    /// a p99 bucket link to a concrete flight-recorder trace.
    exemplar_value: AtomicU64,
    exemplar_trace: AtomicU64,
}

/// A recent traced observation attached to a histogram: links an
/// aggregate (say, a p99 latency) to one concrete trace id that can be
/// looked up in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded value (same unit as the histogram).
    pub value: u64,
    /// The trace it came from (never 0).
    pub trace_id: u64,
}

/// Quantile summary folded out of a histogram.
///
/// Quantiles report a bucket upper bound, so they over-estimate by at
/// most `1/SUB_BUCKETS` relative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observation (bucket-rounded).
    pub max: u64,
}

impl HistogramCore {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: (0..OCTAVES * SUB_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            exemplar_value: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    /// Records one observation. Three relaxed atomic adds.
    pub fn record(&self, v: u64) {
        let idx = bucket_index(v).min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records one observation and stamps the exemplar cell with its
    /// trace id (ignored when `trace_id` is 0 — untraced requests keep
    /// the last traced exemplar). Two extra relaxed stores; the pair is
    /// not written atomically, so a racing reader may see the value of
    /// one observation with the trace id of another — both are still
    /// real recent observations, which is all an exemplar promises.
    pub fn record_with_exemplar(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id != 0 {
            self.exemplar_value.store(v, Ordering::Relaxed);
            self.exemplar_trace.store(trace_id, Ordering::Relaxed);
        }
    }

    /// The most recent traced observation, if any was recorded.
    #[must_use]
    pub fn exemplar(&self) -> Option<Exemplar> {
        let trace_id = self.exemplar_trace.load(Ordering::Relaxed);
        if trace_id == 0 {
            return None;
        }
        Some(Exemplar {
            value: self.exemplar_value.load(Ordering::Relaxed),
            trace_id,
        })
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds the histogram into a quantile summary.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Summary::default();
        }
        let quantile = |q: f64| -> u64 {
            // Rank of the q-th quantile, 1-based, clamped into range.
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_value(i);
                }
            }
            bucket_value(counts.len() - 1)
        };
        let max = counts.iter().rposition(|&c| c > 0).map_or(0, bucket_value);
        Summary {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            mean: self.sum.load(Ordering::Relaxed) as f64 / total as f64,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            max,
        }
    }
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_bucket_exactly() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_tight() {
        let mut last = 0;
        for v in [20u64, 100, 999, 10_000, 123_456, 9_999_999, 1 << 39] {
            let idx = bucket_index(v);
            let upper = bucket_value(idx);
            assert!(upper >= v, "upper {upper} < value {v}");
            assert!(
                (upper - v) as f64 <= v as f64 / SUB_BUCKETS as f64 + 1.0,
                "bucket for {v} too coarse ({upper})"
            );
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn quantiles_land_within_bucket_error() {
        let h = HistogramCore::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        let close = |got: u64, want: f64| {
            let rel = (got as f64 - want).abs() / want;
            assert!(rel < 0.08, "quantile {got} vs expected {want}");
        };
        close(s.p50, 500.0);
        close(s.p95, 950.0);
        close(s.p99, 990.0);
        close(s.max, 1000.0);
        assert!((s.mean - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = HistogramCore::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn exemplar_keeps_the_last_traced_observation() {
        let h = HistogramCore::new();
        assert_eq!(h.exemplar(), None);
        h.record(5); // untraced: no exemplar yet
        assert_eq!(h.exemplar(), None);
        h.record_with_exemplar(120, 0xABCD);
        h.record_with_exemplar(77, 0); // trace id 0 = untraced
        assert_eq!(
            h.exemplar(),
            Some(Exemplar {
                value: 120,
                trace_id: 0xABCD
            })
        );
        assert_eq!(h.count(), 3);
        h.record_with_exemplar(9, 0x1111);
        assert_eq!(h.exemplar().expect("stamped").trace_id, 0x1111);
    }
}
