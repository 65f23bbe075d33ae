//! Order statistics used by the reports: nearest-rank percentiles, the
//! "at least ten samples beyond" tail rule, and quartiles computed the way
//! Python's `statistics.quantiles(values, n=4)` computes them (so spreads
//! printed here match the ones the acceptance driver takes).

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q ∈ (0, 1]`: the smallest sample with at least
/// `q·n` samples at or below it. `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank median (the lower of the two middle samples for even `n`,
/// which keeps one slow outlier from moving it).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A tail latency and the percentile it actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile reported, in `[0.5, 0.95]`.
    pub q: f64,
    pub samples: usize,
}

/// The `_p95` rule: the highest percentile not above 95 that still has
/// [`TAIL_MIN_BEYOND`] samples strictly beyond it, and never below the
/// median (with fewer than 20 samples the tail *is* the median — stated in
/// the output through `q` and `samples`).
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            q: 0.5,
            samples: 0,
        };
    }
    let v = sorted(values);
    let p95_rank = (0.95 * n as f64).ceil() as usize;
    let median_rank = (0.5 * n as f64).ceil() as usize;
    let rank = p95_rank
        .min(n.saturating_sub(TAIL_MIN_BEYOND))
        .max(median_rank)
        .max(1);
    Tail {
        value: v[rank - 1],
        q: rank as f64 / n as f64,
        samples: n,
    }
}

/// `(q1, q2, q3)` as `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) returns them. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound. `None` below two samples or for a zero
/// median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 240 requests: p95 is rank 228, twelve samples beyond — kept.
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.samples), (228.0, 240));
        assert!((t.q - 0.95).abs() < 1e-12);
        // 120 requests: p95 would leave only six beyond; rank 110 leaves ten.
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 110.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_MIN_BEYOND);
        assert!(t.q < 0.95);
    }

    #[test]
    fn tail_falls_back_to_median_for_small_samples() {
        for n in [1usize, 4, 10, 19, 20] {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let t = tail(&v);
            assert_eq!(t.value, median(&v), "n = {n}");
        }
        // 21 samples: rank 11 has exactly ten beyond and is the median too.
        let v: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&v).value, 12.0);
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10.0, 12.0, 11.0, 15.0, 13.0], n=4)
        //   == [10.5, 12.0, 14.0]
        assert_eq!(
            quartiles(&[10.0, 12.0, 11.0, 15.0, 13.0]),
            Some((10.5, 12.0, 14.0))
        );
        // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = iqr_share(&v).expect("spread");
        assert!((s - 1.0).abs() < 1e-12);
    }
}
