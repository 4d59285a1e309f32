//! Order statistics of a handful of repetitions.

/// Median and quartiles of a sample, with its size.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), so the spread printed here is the one the
/// benchmark contract is checked with. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return Summary {
            n: 1,
            median: v[0],
            q1: v[0],
            q3: v[0],
        };
    }
    let quantile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n: m,
        median: quantile(2),
        q1: quantile(1),
        q3: quantile(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn single_value_and_spread() {
        let s = summarize(&[7.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
        assert_eq!(s.spread(), 0.0);
        let s = summarize(&[90.0, 100.0, 110.0]);
        assert!((s.spread() - 0.2).abs() < 1e-12);
    }
}
