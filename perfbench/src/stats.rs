//! Medians and quartiles, as Python's `statistics.quantiles(values, n=4)`
//! (the default, exclusive method) gives them.

/// Sample count, quartiles and median of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// The `q`-quantile of ascending `sorted` by the exclusive method: position
/// `q·(n+1)`, linearly interpolated, clamped to the data.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
}

/// The `q`-quantile of `values` in any order; 0 when there are none, which is
/// how a metric reads on a workload that never takes the measured path.
pub fn quantile_or_zero(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    quantile(&values, q)
}

impl Summary {
    /// `None` when there are no samples.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            samples: v.len(),
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]; clamped to
        // the data here, which only matters below four samples.
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn one_sample_is_its_own_quartiles() {
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.samples, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
        assert_eq!(Summary::of(&[]), None);
    }
}
