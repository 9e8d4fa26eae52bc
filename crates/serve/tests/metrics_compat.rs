//! Compatibility test for the `imc-obs` migration of serve's metrics.
//!
//! Serve's latency histogram moved into the shared registry, and the
//! move must not shift a single quantile: the obs histogram has to
//! bucket *exactly* like the original serve-local implementation. The
//! original log-linear histogram is embedded below as a frozen reference
//! copy (non-atomic — tests are single-threaded) so the equivalence is
//! checked against the real pre-migration algorithm, not a re-derivation
//! of it.

use proptest::prelude::*;

/// The summary fields both histograms are compared on (microseconds).
struct LatencySummary {
    count: u64,
    mean_us: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
}

/// Linear sub-buckets per power-of-two octave (reference copy).
const SUB_BUCKETS: usize = 16;
/// Number of octaves (reference copy).
const OCTAVES: usize = 37;

/// The pre-migration serve histogram, verbatim except atomics are plain
/// integers.
struct ReferenceHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
}

fn ref_bucket_index(us: u64) -> usize {
    if us < SUB_BUCKETS as u64 {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros() as usize;
    let shift = msb - SUB_BUCKETS.trailing_zeros() as usize;
    let sub = ((us >> shift) as usize) & (SUB_BUCKETS - 1);
    let octave = (msb + 1 - SUB_BUCKETS.trailing_zeros() as usize).min(OCTAVES - 1);
    octave * SUB_BUCKETS + sub
}

fn ref_bucket_value(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = index / SUB_BUCKETS;
    let sub = (index % SUB_BUCKETS) as u64;
    let shift = octave - 1;
    ((SUB_BUCKETS as u64 + sub + 1) << shift) - 1
}

impl ReferenceHistogram {
    fn new() -> Self {
        Self {
            buckets: vec![0; OCTAVES * SUB_BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }

    fn record(&mut self, us: u64) {
        let idx = ref_bucket_index(us).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        // The original used `AtomicU64::fetch_add`, which wraps; plain
        // `+=` would panic in debug builds on the strategy's u64::MAX
        // values.
        self.sum_us = self.sum_us.wrapping_add(us);
    }

    fn summary(&self) -> LatencySummary {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return LatencySummary {
                count: 0,
                mean_us: 0.0,
                p50_us: 0,
                p95_us: 0,
                p99_us: 0,
                max_us: 0,
            };
        }
        let quantile = |q: f64| -> u64 {
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return ref_bucket_value(i);
                }
            }
            ref_bucket_value(self.buckets.len() - 1)
        };
        let max_us = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, ref_bucket_value);
        LatencySummary {
            count: total,
            mean_us: self.sum_us as f64 / total as f64,
            p50_us: quantile(0.50),
            p95_us: quantile(0.95),
            p99_us: quantile(0.99),
            max_us,
        }
    }
}

/// Copies an obs summary into the comparison struct.
fn obs_summary(s: &imc_obs::Summary) -> LatencySummary {
    LatencySummary {
        count: s.count,
        mean_us: s.mean,
        p50_us: s.p50,
        p95_us: s.p95,
        p99_us: s.p99,
        max_us: s.max,
    }
}

/// Latency values spanning the histogram's full dynamic range: exact
/// small values, octave boundaries (± 1), and values past the clamp.
fn latency_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..16,
        16u64..4096,
        4096u64..10_000_000,
        (0u32..63).prop_map(|b| 1u64 << b),
        (1u32..63).prop_map(|b| (1u64 << b) - 1),
        (1u32..63).prop_map(|b| (1u64 << b) + 1),
        Just(u64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The obs histogram and the frozen pre-migration histogram agree on
    /// every summary field for arbitrary observation streams.
    #[test]
    fn obs_histogram_matches_reference(
        values in proptest::collection::vec(latency_strategy(), 1..200),
    ) {
        let obs = imc_obs::Histogram::new();
        let mut reference = ReferenceHistogram::new();
        for &v in &values {
            obs.record(v);
            reference.record(v);
        }
        let got = obs_summary(&obs.summary());
        let want = reference.summary();
        prop_assert_eq!(got.count, want.count);
        prop_assert_eq!(got.p50_us, want.p50_us);
        prop_assert_eq!(got.p95_us, want.p95_us);
        prop_assert_eq!(got.p99_us, want.p99_us);
        prop_assert_eq!(got.max_us, want.max_us);
        // Both sums wrap on overflow (the atomics' fetch_add semantics),
        // so the means are bit-identical even at u64::MAX observations.
        prop_assert_eq!(got.mean_us.to_bits(), want.mean_us.to_bits());
    }
}
