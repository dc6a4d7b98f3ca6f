//! Log-bucketed latency histograms over lock-free atomic buckets.
//!
//! ### Bucket scheme
//!
//! HDR-style base-2 buckets with `SUB_BITS = 4` significant bits: values
//! below 16 get one exact bucket each; every power-of-two octave above
//! that is split into 16 sub-buckets, so any recorded value lands in a
//! bucket whose width is at most 1/16 of its magnitude (≤ 6.25% relative
//! quantile error). The whole range of `u64` nanoseconds (584 years) fits
//! in [`NUM_BUCKETS`] = 976 buckets ≈ 8 KiB of `AtomicU64`s per
//! histogram.
//!
//! ### Concurrency
//!
//! [`Histogram::record`] is wait-free apart from the [`atomic_max`] CAS
//! loop: `fetch_add`s into a `started` cell, the bucket, the sum and
//! finally the count. A snapshot reads `count`, `sum` and `started` and
//! retries until `started == count`: then no sample was in flight between
//! the reads, so `count` and `sum` cover exactly the same samples (a
//! consistent cut). The buckets are read after the cut and may be skewed
//! by at most one in-flight sample per recording thread.
//!
//! ### Reset
//!
//! [`Histogram::reset`] does **not** zero the live cells (six independent
//! `store(0)`s can interleave with a concurrent `record`, permanently
//! desynchronizing count/sum pairs — the `ViewMetrics::reset` bug this
//! crate replaces). Instead it snapshots the monotone counters as a
//! *baseline* and [`Histogram::snapshot`] subtracts it. The baseline's
//! `count` and `sum` are a consistent cut, so once recording stops a
//! snapshot's `sum` is exactly the sum of the samples it counts, however
//! resets and recordings raced. The `max` cell is the one exception: it is a
//! single self-contained word, so reset stores 0 and a racing recording's
//! maximum may be attributed to the pre-reset phase.

use crate::atomic_max;
use crate::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sub-bucket resolution: 2^4 = 16 sub-buckets per octave.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count for the full `u64` range.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Bucket index for a value (monotone in `v`).
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let shift = top - SUB_BITS;
    let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
    (top - SUB_BITS + 1) as usize * SUB + sub
}

/// Largest value mapping to bucket `i` (inverse of [`bucket_index`]).
fn bucket_high(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let octave = (i / SUB - 1) as u32;
    let sub = (i % SUB) as u64;
    let high = ((SUB as u64 + sub + 1) as u128) << octave;
    u64::try_from(high - 1).unwrap_or(u64::MAX)
}

/// A concurrent log-bucketed histogram of `u64` samples (nanoseconds, by
/// convention). All recording is lock-free; see the module docs for the
/// bucket scheme and reset semantics.
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    /// Samples begun; `count` is samples finished.
    started: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    /// Subtracted from the monotone cells by `snapshot` (reset baseline).
    baseline: Mutex<Option<HistogramSnapshot>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            started: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            baseline: Mutex::new(None),
        }
    }

    /// Record one sample. Lock-free; safe from any thread.
    pub fn record(&self, value: u64) {
        self.started.fetch_add(1, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // Release: whoever sees this sum sees `started` count the sample,
        // and whoever sees the count sees the sum include it.
        self.sum.fetch_add(value, Ordering::Release);
        self.count.fetch_add(1, Ordering::Release);
        atomic_max(&self.max, value);
    }

    fn raw_snapshot(&self) -> HistogramSnapshot {
        // `count` ⊆ samples in `sum` ⊆ `started`: equal ends mean equal sets.
        let (count, sum) = loop {
            let count = self.count.load(Ordering::Acquire);
            let sum = self.sum.load(Ordering::Acquire);
            if self.started.load(Ordering::Relaxed) == count {
                break (count, sum);
            }
            std::thread::yield_now();
        };
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum,
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Copy the current distribution (since the last [`Histogram::reset`]).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let raw = self.raw_snapshot();
        match self
            .baseline
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
        {
            Some(base) => raw.saturating_sub(base),
            None => raw,
        }
    }

    /// Start a new measurement phase: subsequent snapshots only cover
    /// samples recorded from here on (snapshot-and-subtract — the live
    /// cells stay monotone, so a concurrent `record` is never torn).
    pub fn reset(&self) {
        let raw = self.raw_snapshot();
        *self.baseline.lock().unwrap_or_else(|p| p.into_inner()) = Some(raw);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the ⌈q·count⌉-th smallest sample (≤ 6.25% above the true
    /// quantile; exact for values below 16). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // clamp to the observed maximum (the top bucket's upper
                // bound can overshoot the largest sample in it)
                return if self.max > 0 {
                    bucket_high(i).min(self.max)
                } else {
                    bucket_high(i)
                };
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Per-bucket difference (`self - base`), saturating at zero — the
    /// distribution recorded since `base` was taken.
    pub fn saturating_sub(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&base.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            // max is phase-local (the live cell is zeroed on reset);
            // subtracting maxima is meaningless, keep ours.
            max: self.max,
        }
    }

    /// Accumulate another snapshot into this one (bucket-wise add).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Summary as a JSON object:
    /// `{"count","sum_ns","mean_ns","p50_ns","p95_ns","p99_ns","max_ns"}`.
    pub fn to_json(&self) -> String {
        json::object([
            ("count", json::num_u(self.count)),
            ("sum_ns", json::num_u(self.sum)),
            ("mean_ns", json::num_f(self.mean())),
            ("p50_ns", json::num_u(self.p50())),
            ("p95_ns", json::num_u(self.p95())),
            ("p99_ns", json::num_u(self.p99())),
            ("max_ns", json::num_u(self.max)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_invertible() {
        let mut last = 0usize;
        for shift in 0..64u32 {
            for off in [0u64, 1, 7] {
                let v = (1u64 << shift).saturating_add(off << shift.saturating_sub(4));
                let i = bucket_index(v);
                assert!(i >= last || v < 16, "monotone at {v}");
                last = last.max(i);
                assert!(bucket_high(i) >= v || bucket_high(i) == u64::MAX);
                assert!(i < NUM_BUCKETS);
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        // exact small values
        for v in 0..16u64 {
            assert_eq!(bucket_high(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [100u64, 1_000, 50_000, 1_000_000, u64::MAX / 2] {
            let high = bucket_high(bucket_index(v));
            assert!(high >= v);
            assert!((high - v) as f64 <= v as f64 / 16.0 + 1.0, "{v} → {high}");
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100_000);
        let p50 = s.p50();
        assert!((46_000..=56_000).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((95_000..=106_000).contains(&p99), "p99 = {p99}");
        assert!(s.p95() <= p99 && p99 <= s.max + s.max / 16);
        assert!((s.mean() - 50_500.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn reset_starts_a_new_phase() {
        let h = Histogram::new();
        h.record(1_000);
        h.record(2_000);
        h.reset();
        assert!(h.snapshot().is_empty());
        h.record(5_000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 5_000);
        assert_eq!(s.max, 5_000);
        assert!(s.p50() >= 5_000);
    }

    #[test]
    fn concurrent_records_and_reset_never_desynchronize() {
        // The torn-reset regression: with store(0)-style resets a
        // concurrent record could leave count and sum permanently
        // inconsistent (count=1, sum=0). With snapshot-subtract the skew
        // is bounded by one in-flight sample per thread and disappears
        // once recording stops.
        const THREADS: u64 = 4;
        const PER: u64 = 5_000;
        const V: u64 = 1_000;
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER {
                        h.record(V);
                    }
                });
            }
            for _ in 0..50 {
                h.reset();
                let snap = h.snapshot();
                // mid-flight skew ≤ one sample per recording thread
                assert!(
                    snap.sum.abs_diff(snap.count * V) <= THREADS * V,
                    "count={}, sum={}",
                    snap.count,
                    snap.sum
                );
                std::thread::yield_now();
            }
        });
        // quiescent: phase totals are exactly consistent
        let snap = h.snapshot();
        assert_eq!(snap.sum, snap.count * V);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.sum, 1_000_010);
    }

    #[test]
    fn json_summary_shape() {
        let h = Histogram::new();
        h.record(42);
        let j = h.snapshot().to_json();
        for key in [
            "count", "sum_ns", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "{j}");
        }
    }
}
