//! Sample statistics and the visibility stamper.
//!
//! Everything here is exact arithmetic over the samples the harness took
//! itself — no bucketed histograms, so a value never reads the same on
//! two runs by construction of the estimator.

/// Percentile ladder a tail metric may fall back along, in per-mille so
/// the samples-beyond count is integer arithmetic.
const LADDER: [usize; 4] = [999, 990, 950, 900];

/// Samples that must lie beyond a reported percentile.
const BEYOND: usize = 10;

/// Median of `samples` (NaN when empty). Sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    sort(samples);
    percentile(samples, 0.5)
}

/// Sort ascending; the harness never produces NaN samples.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
}

/// Linear-interpolated percentile `p ∈ [0, 1]` of an ascending slice
/// (NaN when empty). Interpolation keeps every digit of the two
/// neighbouring samples instead of snapping to one of them.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile on the ladder that is no higher than `wanted`
/// and still has at least ten samples beyond it; the median when even
/// p90 is unsupported. A metric named `*_p99_*` therefore reports p99
/// only from 1 000 samples up, and says which percentile it used.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    for &pm in &LADDER {
        let p = pm as f64 / 1000.0;
        if p <= wanted && n * (1000 - pm) / 1000 >= BEYOND {
            return p;
        }
    }
    0.5
}

/// A reported timing: value, the percentile actually used, sample count.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    pub used: f64,
    pub n: usize,
}

/// `wanted` percentile of `samples` under the ten-samples-beyond rule.
pub fn quantile(samples: &mut [f64], wanted: f64) -> Quantile {
    sort(samples);
    let used = supported_percentile(samples.len(), wanted);
    Quantile {
        value: percentile(samples, used),
        used,
        n: samples.len(),
    }
}

/// Stamps change→visible from outside the engine.
///
/// Before each maintenance step the caller reads how many changes are
/// committed (`n`); after it, which views completed a refresh during the
/// step. A refresh covers everything committed before it began, so view
/// `v` then exposes changes `1..=n`. A change is *visible* once every
/// view exposes it; the stamper records `(frontier, time)` each time that
/// minimum advances, and [`Stamper::latencies`] joins the record against
/// the changes' start times afterwards — producer and maintainer threads
/// share nothing while the run is on.
pub struct Stamper {
    per_view: Vec<u64>,
    frontier: u64,
    advances: Vec<(u64, u64)>,
}

impl Stamper {
    pub fn new(views: usize) -> Self {
        Stamper {
            per_view: vec![0; views],
            frontier: 0,
            advances: Vec::new(),
        }
    }

    /// One maintenance step: `committed_before` changes were committed
    /// when it began, `refreshed[v]` says whether view `v` refreshed in
    /// it, `end_ns` is when it returned.
    pub fn step(&mut self, committed_before: u64, refreshed: &[bool], end_ns: u64) {
        for (f, &r) in self.per_view.iter_mut().zip(refreshed) {
            if r {
                *f = (*f).max(committed_before);
            }
        }
        let min = self.per_view.iter().copied().min().unwrap_or(0);
        if min > self.frontier {
            self.frontier = min;
            self.advances.push((min, end_ns));
        }
    }

    /// Changes `1..=frontier()` are visible in every view.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// `(frontier, time)` at each advance, both ascending.
    #[cfg(test)]
    pub fn advances(&self) -> &[(u64, u64)] {
        &self.advances
    }

    /// Visible time of each change: `starts_ns[i]` is when change `i + 1`
    /// began (its due time in an open loop). Returns
    /// `(start_ns, Some(latency_ns))`, or `None` for a change that never
    /// became visible.
    pub fn latencies(&self, starts_ns: &[u64]) -> Vec<(u64, Option<u64>)> {
        let mut out = Vec::with_capacity(starts_ns.len());
        let mut a = 0;
        for (i, &start) in starts_ns.iter().enumerate() {
            let id = i as u64 + 1;
            while a < self.advances.len() && self.advances[a].0 < id {
                a += 1;
            }
            out.push((
                start,
                self.advances.get(a).map(|&(_, t)| t.saturating_sub(start)),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_neighbours() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule_picks_the_percentile() {
        // p99 needs 1 000 samples: 999 leave only 9 beyond.
        assert_eq!(supported_percentile(1_000, 0.99), 0.99);
        assert_eq!(supported_percentile(999, 0.99), 0.95);
        assert_eq!(supported_percentile(200, 0.99), 0.95);
        assert_eq!(supported_percentile(199, 0.99), 0.90);
        assert_eq!(supported_percentile(100, 0.99), 0.90);
        assert_eq!(supported_percentile(99, 0.99), 0.5);
        // never above what the metric is named for
        assert_eq!(supported_percentile(1_000_000, 0.95), 0.95);
        assert_eq!(supported_percentile(1_000_000, 0.999), 0.999);
        let mut few: Vec<f64> = (0..150).map(f64::from).collect();
        let q = quantile(&mut few, 0.99);
        assert_eq!((q.used, q.n), (0.90, 150));
    }

    #[test]
    fn stamper_follows_a_scripted_tick_and_ingest_sequence() {
        // Two views. Starts at 0, 10, 20, 30, 40 ns.
        let mut s = Stamper::new(2);
        s.step(2, &[false, false], 100); // nothing refreshed
        assert_eq!(s.frontier(), 0);
        s.step(3, &[true, false], 200); // only view 0: still invisible
        assert_eq!(s.frontier(), 0);
        s.step(4, &[false, true], 300); // view 1 catches up to 4, view 0 at 3
        assert_eq!(s.frontier(), 3);
        s.step(5, &[true, true], 400);
        assert_eq!(s.frontier(), 5);
        s.step(5, &[true, true], 500); // no new changes: no new advance
        assert_eq!(s.advances(), &[(3, 300), (5, 400)]);

        let lat = s.latencies(&[0, 10, 20, 30, 40, 50]);
        assert_eq!(lat[0], (0, Some(300)));
        assert_eq!(lat[2], (20, Some(280)));
        assert_eq!(lat[3], (30, Some(370)));
        assert_eq!(lat[4], (40, Some(360)));
        assert_eq!(lat[5], (50, None), "change 6 never became visible");
    }
}
