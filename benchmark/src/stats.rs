//! The arithmetic every reported number goes through: nearest-rank
//! percentiles, median/min/max summaries, and the quartile spread the
//! noise study uses.

/// Median, quartiles, extremes and sample count of one metric across
/// repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile, kept inside `min..=max`.
    pub q1: f64,
    /// Third quartile, kept inside `min..=max`.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A summary of one exact value.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    fn share_of_median(&self, width: f64) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            width / self.median.abs()
        }
    }

    /// `(max − min) ÷ median`.
    pub fn range_share(&self) -> f64 {
        self.share_of_median(self.max - self.min)
    }

    /// `(q3 − q1) ÷ median`: the run's own spread, which one stalled
    /// repetition among many does not move.
    pub fn iqr_share(&self) -> f64 {
        self.share_of_median(self.q3 - self.q1)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median/quartiles/min/max/count of `values`; `None` for an empty slice.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let (min, max) = (*v.first()?, *v.last()?);
    // Two or three samples put the exclusive-method quartiles outside the
    // data; one sample has none.
    let (q1, _, q3) = quartiles(&v).unwrap_or((min, min, max));
    Some(Summary {
        median: median(&v),
        q1: q1.clamp(min, max),
        q3: q3.clamp(min, max),
        min,
        max,
        n: v.len(),
    })
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Exclusive-method quartiles `(q1, q2, q3)`, matching Python's
/// `statistics.quantiles(values, n=4)`; needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median — the spread the
/// acceptance rule compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        let s = summarize(&[5.0, 1.0, 9.0, 3.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 1.0, 9.0, 4));
        assert_eq!((s.q1, s.q3), (1.5, 8.0));
        let three = summarize(&[7.0, 2.0, 4.0]).unwrap();
        assert_eq!((three.median, three.q1, three.q3), (4.0, 2.0, 7.0));
        assert!(summarize(&[]).is_none());
        assert_eq!((s.range_share(), s.iqr_share()), (2.0, 1.625));
        assert_eq!(Summary::exact(3.5).range_share(), 0.0);
        // One stalled repetition among many moves the range, not the quartiles.
        let mut many = vec![10.0; 20];
        many[7] = 30.0;
        let m = summarize(&many).unwrap();
        assert_eq!((m.range_share(), m.iqr_share()), (2.0, 0.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 10.0);
        assert_eq!(percentile(&w, 50.0), 5.0);
        // 1,000 samples leave exactly ten beyond p99.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 99.0), 990.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(iqr_share(&v), Some(1.0));
        assert!(quartiles(&[1.0]).is_none());
    }
}
