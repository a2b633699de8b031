//! Order statistics and the growth-order fit.

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// order statistics. `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Least-squares slope of `ln y` against `ln x` over the points with
/// both coordinates positive: the fitted growth order `k` of
/// `y ~ x^k`. `None` with fewer than two usable points or no spread
/// in `x`.
pub fn growth_order(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn growth_order_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|x| (x as f64, 3.0 * (x as f64).powf(1.5)))
            .collect();
        assert!((growth_order(&pts).expect("fits") - 1.5).abs() < 1e-9);
        assert_eq!(growth_order(&[(2.0, 1.0)]), None);
    }
}
