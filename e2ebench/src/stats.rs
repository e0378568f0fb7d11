//! Order statistics over run samples.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so a spread computed here agrees
//! with one computed from the printed values by that function.

/// Median of `values`; the mean of the two middle values for an even
/// count. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile of `values`, as Python's
/// `statistics.quantiles(values, n=4)` computes them: cut points
/// `i·(n+1)/4` clamped to the data, linearly interpolated. A single
/// value is its own quartiles; `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len() as i64;
    match ld {
        0 => return None,
        1 => return Some((v[0], v[0])),
        _ => {}
    }
    let n = 4i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        (v[j as usize - 1] * (n as f64 - delta) + v[j as usize] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are stated in. `None` when the median is zero.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&ten).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }
}
