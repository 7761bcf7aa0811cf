//! Order statistics over the timed repeats of one metric.
//!
//! The host drifts by more than most changes are worth (README.md, "Noise"), so a
//! wall-clock metric is never one number: it is the median of the timed repeats, and
//! the count, the inter-quartile range and the fastest-quartile value go beside it.

/// Median, quartiles and extremes of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`. Returns `None` for an empty set or one holding a NaN.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| v.is_nan()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
        Some(Self {
            n: sorted.len(),
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        })
    }

    /// Inter-quartile range, `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Inter-quartile range as a share of the median (0 when the median is 0).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            self.iqr() / self.median.abs()
        }
    }

    /// The quartile on the fast side: `q1` for a metric where lower is better, `q3`
    /// where higher is better. It estimates what the code does on a quiet host.
    pub fn fast_quartile(&self, higher_is_better: bool) -> f64 {
        if higher_is_better {
            self.q3
        } else {
            self.q1
        }
    }
}

/// Linear-interpolation quantile of an ascending slice (`p` in `[0, 1]`), the
/// "inclusive" method: position `p * (n - 1)`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// By how much `b` is worse than `a`, as a share of `a`: positive means worse.
/// `higher_is_better` flips the sign convention. 0 when `a` is 0.
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_interpolate_between_samples() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (5, 1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.iqr(), 2.0);
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(s.q1, 17.5);
        assert_eq!(s.q3, 32.5);
        assert!((s.rel_iqr() - 15.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn fast_quartile_follows_the_direction() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.fast_quartile(false), 2.0);
        assert_eq!(s.fast_quartile(true), 4.0);
    }

    #[test]
    fn nan_and_empty_are_refused() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn worse_by_is_signed_by_direction() {
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, false), 0.0);
    }
}
