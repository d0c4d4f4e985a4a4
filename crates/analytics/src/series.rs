//! Time series containers used by every figure.

use fork_primitives::SimTime;

/// A named series of `(time, value)` points, time-ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Legend label ("ETH", "ETC top 5", …).
    pub label: String,
    /// Points as `(unix_seconds, value)`.
    pub points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new(label: impl Into<String>) -> Self {
        TimeSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point (must be time-ascending; debug-asserted).
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.points
                .last()
                .map(|(lt, _)| *lt <= t.as_unix())
                .unwrap_or(true),
            "series must be time-ascending"
        );
        self.points.push((t.as_unix(), value));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Minimum and maximum values; `None` when empty or all-NaN.
    pub fn value_range(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (_, v) in &self.points {
            if v.is_finite() {
                lo = lo.min(*v);
                hi = hi.max(*v);
            }
        }
        if lo.is_finite() {
            Some((lo, hi))
        } else {
            None
        }
    }

    /// Mean value over the series (ignoring non-finite points).
    pub fn mean(&self) -> f64 {
        let vals: Vec<f64> = self
            .points
            .iter()
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite())
            .collect();
        if vals.is_empty() {
            return f64::NAN;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// The value at the point nearest to `t`.
    pub fn nearest(&self, t: SimTime) -> Option<f64> {
        self.points
            .iter()
            .min_by_key(|(pt, _)| pt.abs_diff(t.as_unix()))
            .map(|(_, v)| *v)
    }

    /// This series as a JSON value: `{"label": ..., "points": [[t, v], ...]}`.
    pub fn to_json_value(&self) -> fork_telemetry::json::Value {
        use fork_telemetry::json::Value;
        let point = |&(t, v): &(u64, f64)| Value::Arr(vec![(t as f64).into(), v.into()]);
        Value::obj([
            ("label", Value::from(self.label.as_str())),
            (
                "points",
                Value::Arr(self.points.iter().map(point).collect()),
            ),
        ])
    }

    /// Restricts to points within `[from, to]`.
    pub fn window(&self, from: SimTime, to: SimTime) -> TimeSeries {
        TimeSeries {
            label: self.label.clone(),
            points: self
                .points
                .iter()
                .filter(|(t, _)| *t >= from.as_unix() && *t <= to.as_unix())
                .copied()
                .collect(),
        }
    }
}

/// Pearson correlation between two series sampled on matching timestamps
/// (inner join on time). `None` if fewer than 3 common points or zero
/// variance. Figure 3's "strong correlation" claim is checked with this.
pub fn correlation(a: &TimeSeries, b: &TimeSeries) -> Option<f64> {
    let mut pairs = Vec::new();
    let mut j = 0;
    for (t, va) in &a.points {
        while j < b.points.len() && b.points[j].0 < *t {
            j += 1;
        }
        if j < b.points.len() && b.points[j].0 == *t && va.is_finite() && b.points[j].1.is_finite()
        {
            pairs.push((*va, b.points[j].1));
        }
    }
    if pairs.len() < 3 {
        return None;
    }
    let n = pairs.len() as f64;
    let (ma, mb) = (
        pairs.iter().map(|(x, _)| x).sum::<f64>() / n,
        pairs.iter().map(|(_, y)| y).sum::<f64>() / n,
    );
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in &pairs {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va == 0.0 || vb == 0.0 {
        return None;
    }
    Some(cov / (va.sqrt() * vb.sqrt()))
}

/// Pointwise ratio `a / b` on matching timestamps (skipping zero/absent
/// denominators) — used for the ETH:ETC transaction ratio observation.
pub fn ratio(a: &TimeSeries, b: &TimeSeries, label: impl Into<String>) -> TimeSeries {
    let mut out = TimeSeries::new(label);
    let mut j = 0;
    for (t, va) in &a.points {
        while j < b.points.len() && b.points[j].0 < *t {
            j += 1;
        }
        if j < b.points.len() && b.points[j].0 == *t && b.points[j].1 != 0.0 {
            out.points.push((*t, va / b.points[j].1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(label: &str, vals: &[(u64, f64)]) -> TimeSeries {
        TimeSeries {
            label: label.into(),
            points: vals.to_vec(),
        }
    }

    #[test]
    fn push_and_range() {
        let mut ts = TimeSeries::new("x");
        ts.push(SimTime::from_unix(10), 5.0);
        ts.push(SimTime::from_unix(20), 1.0);
        ts.push(SimTime::from_unix(30), 9.0);
        assert_eq!(ts.value_range(), Some((1.0, 9.0)));
        assert_eq!(ts.len(), 3);
        assert!((ts.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_correlation() {
        let a = s("a", &[(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]);
        let b = s("b", &[(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)]);
        let r = correlation(&a, &b).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_correlation() {
        let a = s("a", &[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let b = s("b", &[(1, 3.0), (2, 2.0), (3, 1.0)]);
        assert!((correlation(&a, &b).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_requires_overlap_and_variance() {
        let a = s("a", &[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let disjoint = s("b", &[(10, 1.0), (20, 2.0), (30, 3.0)]);
        assert_eq!(correlation(&a, &disjoint), None);
        let flat = s("b", &[(1, 5.0), (2, 5.0), (3, 5.0)]);
        assert_eq!(correlation(&a, &flat), None);
    }

    #[test]
    fn ratio_skips_zero_denominators() {
        let a = s("a", &[(1, 10.0), (2, 10.0), (3, 10.0)]);
        let b = s("b", &[(1, 4.0), (2, 0.0), (3, 2.0)]);
        let r = ratio(&a, &b, "a:b");
        assert_eq!(r.points, vec![(1, 2.5), (3, 5.0)]);
    }

    #[test]
    fn window_and_nearest() {
        let a = s("a", &[(10, 1.0), (20, 2.0), (30, 3.0)]);
        let w = a.window(SimTime::from_unix(15), SimTime::from_unix(30));
        assert_eq!(w.points, vec![(20, 2.0), (30, 3.0)]);
        assert_eq!(a.nearest(SimTime::from_unix(21)), Some(2.0));
        assert_eq!(a.nearest(SimTime::from_unix(26)), Some(3.0));
    }

    #[test]
    fn empty_series_edge_cases() {
        let e = TimeSeries::new("e");
        assert!(e.is_empty());
        assert_eq!(e.value_range(), None);
        assert!(e.mean().is_nan());
        assert_eq!(e.nearest(SimTime::from_unix(0)), None);
    }
}
