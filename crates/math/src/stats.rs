//! Streaming statistics: [`OnlineStats`] provides the running
//! mean/variance/min/max used for quantities like ⟨Ni⟩ and ⟨Nj⟩ and
//! for load-imbalance factors (max/mean).

/// Welford-style online mean/variance plus min/max.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add every value of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, it: I) {
        for x in it {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Load-imbalance measure used for domain-decomposition diagnostics:
    /// `max / mean` (1.0 = perfectly balanced; ≥ 1 always).
    pub fn imbalance(&self) -> f64 {
        if self.n == 0 || self.mean() == 0.0 {
            1.0
        } else {
            self.max() / self.mean()
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, o: &OnlineStats) {
        if o.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *o;
            return;
        }
        let n = self.n + o.n;
        let d = o.mean - self.mean;
        let mean = self.mean + d * o.n as f64 / n as f64;
        let m2 = self.m2 + o.m2 + d * d * self.n as f64 * o.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mean_variance() {
        let mut s = OnlineStats::new();
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-15);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut whole = OnlineStats::new();
        whole.extend(xs.iter().copied());
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        a.extend(xs[..37].iter().copied());
        b.extend(xs[37..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn imbalance_of_uniform_is_one() {
        let mut s = OnlineStats::new();
        s.extend([5.0; 8]);
        assert!((s.imbalance() - 1.0).abs() < 1e-15);
        let mut t = OnlineStats::new();
        t.extend([1.0, 1.0, 2.0]); // mean 4/3, max 2 -> 1.5
        assert!((t.imbalance() - 1.5).abs() < 1e-12);
    }
}
