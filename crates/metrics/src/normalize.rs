//! Normalization helpers.
//!
//! Used in two places that must agree on conventions:
//!
//! 1. The **aged workload throughput metric** combines a rate (`Ut`,
//!    objects/ms) with an age (`A`, ms). The paper's Eq. 2 adds them raw; we
//!    min–max normalize both over the candidate set at each scheduling
//!    decision so that `α` interpolates meaningfully: raw, a rate below
//!    10 objects/ms is added to ages in the thousands of ms, so any α > 0
//!    hands the decision to the age term alone.
//! 2. **Figure 4** plots throughput and response time normalized to their
//!    maxima over all α values.

/// Min–max normalizes `values` into `[0, 1]` in place.
///
/// A constant slice maps to all-zeros (there is nothing to discriminate).
pub fn min_max_normalize(values: &mut [f64]) {
    let Some((lo, hi)) = bounds(values) else {
        return;
    };
    let span = hi - lo;
    if span <= 0.0 {
        values.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    for v in values.iter_mut() {
        *v = (*v - lo) / span;
    }
}

/// Divides `values` by their maximum in place (Figure 4's convention).
///
/// Non-positive maxima leave the slice untouched.
pub fn max_normalize(values: &mut [f64]) {
    let Some((_, hi)) = bounds(values) else {
        return;
    };
    if hi <= 0.0 {
        return;
    }
    for v in values.iter_mut() {
        *v /= hi;
    }
}

/// Returns `(min, max)` of a slice, or `None` if empty.
///
/// # Panics
/// Panics on NaN input: a NaN metric is an upstream accounting bug.
pub fn bounds(values: &[f64]) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in values {
        assert!(!v.is_nan(), "normalize input contains NaN");
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_basic() {
        let mut v = vec![2.0, 4.0, 6.0];
        min_max_normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_constant_slice() {
        let mut v = vec![3.0, 3.0, 3.0];
        min_max_normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn min_max_empty_is_noop() {
        let mut v: Vec<f64> = vec![];
        min_max_normalize(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn min_max_handles_negatives() {
        let mut v = vec![-2.0, 0.0, 2.0];
        min_max_normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn max_normalize_basic() {
        let mut v = vec![1.0, 2.0, 4.0];
        max_normalize(&mut v);
        assert_eq!(v, vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn max_normalize_zero_max_is_noop() {
        let mut v = vec![0.0, 0.0];
        max_normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn bounds_reports_extremes() {
        assert_eq!(bounds(&[3.0, -1.0, 2.0]), Some((-1.0, 3.0)));
        assert_eq!(bounds(&[]), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn bounds_rejects_nan() {
        bounds(&[1.0, f64::NAN]);
    }
}
