//! Fixed-size log-linear histogram for latencies in nanoseconds.
//!
//! Values below 64 get one bucket each; above that every power-of-two
//! octave up to 2^40 ns (18 minutes) is split into 64 equal sub-buckets,
//! so a bucket is never wider than 1/64 of its lower edge. Larger values
//! land in the top bucket. The table never grows: a run that completes
//! twice the requests uses the same memory, which keeps `peak_rss_mb`
//! independent of throughput. At 9 KiB a table is small enough to keep
//! one per 100 ms of the window.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const TOP_BIT: u32 = 40;
const BUCKETS: usize = ((TOP_BIT - SUB_BITS + 1) as usize) * SUB as usize;

/// Largest relative error of a quantile read from the histogram.
pub const REL_ERROR: f64 = 1.0 / SUB as f64;

/// A log-linear histogram of `u64` samples.
#[derive(Clone)]
pub struct LogHist {
    counts: Box<[u32]>,
    total: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    if v >> TOP_BIT != 0 {
        return BUCKETS - 1;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// `[low, high)` edges of bucket `i`.
fn edges(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let shift = i / SUB - 1;
    let low = (SUB + i % SUB) << shift;
    (low, low.saturating_add(1 << shift))
}

impl LogHist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        let c = &mut self.counts[index(v)];
        *c = c.saturating_add(1);
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample (exact).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (nearest rank, `0 < q <= 1`), interpolated
    /// linearly inside its bucket so that it is not pinned to a bucket
    /// edge. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = u64::from(c);
            if seen + c >= rank {
                let (low, high) = edges(i);
                let high = high.min(self.max + 1);
                let within = (rank - seen) as f64 - 0.5;
                return low as f64 + (high - low) as f64 * within / c as f64;
            }
            seen += c;
        }
        self.max as f64
    }

    /// Number of samples strictly above `v`'s bucket — how many samples a
    /// percentile read at `v` rests on.
    #[must_use]
    pub fn count_above(&self, v: f64) -> u64 {
        let i = index(v as u64);
        self.counts[i + 1..].iter().map(|&c| u64::from(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_contain_their_values() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            123_456,
            (1 << TOP_BIT) - 1,
        ] {
            let (lo, hi) = edges(index(v));
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
        }
    }
}
