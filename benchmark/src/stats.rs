//! Order statistics over pass values and latency samples.

use crate::json::Value;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of the faster half of a run's samples, for rates (larger is
/// faster); the middle one of an odd count is in. The headline
/// statistic of `efficiency` (on both sides of the ratio) and, through
/// [`faster_half_mean_time`], of `setup_s`: what the shared host does to
/// a pass, a slice or a set-up only ever slows it, in bursts of
/// seconds, so the faster half of a run's samples is the half the host
/// touched least, and averaging it uses half the samples where a low
/// quantile would use one. 0 when there are none.
pub fn faster_half_mean(rates: &[f64]) -> f64 {
    let v = sorted(rates);
    mean(&v[v.len() / 2..])
}

/// [`faster_half_mean`] for times (smaller is faster).
pub fn faster_half_mean_time(times: &[f64]) -> f64 {
    let v = sorted(times);
    mean(&v[..v.len().div_ceil(2)])
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the driver's rule), so a
/// spread reported here is the spread the driver sees.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The headline `value` (what the run reports for the metric) + median
/// + quartiles + every pass value, as reports carry a metric.
pub fn summary(unit: &str, value: f64, values: &[f64]) -> Value {
    let (q1, q3) = quartiles(values);
    Value::obj(vec![
        ("unit", Value::str(unit)),
        ("value", Value::Num(value)),
        ("median", Value::Num(median(values))),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("n", Value::Num(values.len() as f64)),
        ("values", Value::nums(values)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(faster_half_mean(&ten), 8.0);
        assert_eq!(faster_half_mean(&[5.0, 1.0, 3.0]), 4.0);
        assert_eq!(faster_half_mean(&[]), 0.0);
        assert_eq!(faster_half_mean_time(&ten), 3.0);
        assert_eq!(faster_half_mean_time(&[5.0, 1.0, 3.0]), 2.0);
        assert_eq!(faster_half_mean_time(&[]), 0.0);
    }
}
