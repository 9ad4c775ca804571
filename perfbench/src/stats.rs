//! Order statistics that carry their sample counts.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it; a percentile the
//! sample count cannot support is refused rather than extrapolated.

/// Samples that must lie beyond a quoted tail percentile.
pub const MIN_BEYOND: u64 = 10;

/// Tail percentiles a report may quote, in basis points, lowest first.
const LADDER_BP: [u64; 4] = [9_000, 9_900, 9_990, 9_999];

/// Why a percentile could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples would lie beyond the percentile.
    TooFewSamples {
        /// The requested percentile, in basis points.
        bp: u64,
        /// Samples available.
        n: usize,
        /// Samples needed.
        need: usize,
    },
}

impl std::fmt::Display for StatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatError::Empty => write!(f, "no samples"),
            StatError::TooFewSamples { bp, n, need } => {
                write!(f, "p{} needs {need} samples, have {n}", fmt_bp(*bp))
            }
        }
    }
}

/// `9900` → `"99"`, `9990` → `"99.9"`.
pub fn fmt_bp(bp: u64) -> String {
    let whole = bp / 100;
    let frac = bp % 100;
    if frac == 0 {
        whole.to_string()
    } else if frac.is_multiple_of(10) {
        format!("{whole}.{}", frac / 10)
    } else {
        format!("{whole}.{frac:02}")
    }
}

/// How many samples lie strictly beyond percentile `bp` out of `n`.
fn beyond(n: usize, bp: u64) -> u64 {
    (n as u64) * (10_000 - bp) / 10_000
}

/// Fewest samples that put [`MIN_BEYOND`] beyond percentile `bp`.
pub fn samples_needed(bp: u64) -> usize {
    let per = 10_000 - bp;
    (MIN_BEYOND * 10_000).div_ceil(per) as usize
}

/// Nearest-rank percentile of an ascending slice.
fn rank(sorted: &[f64], bp: u64) -> f64 {
    let n = sorted.len() as u64;
    let idx = (n * bp).div_ceil(10_000).max(1) - 1;
    sorted[idx as usize]
}

/// Sort a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Result<f64, StatError> {
    if values.is_empty() {
        return Err(StatError::Empty);
    }
    Ok(rank(&sorted(values), 5_000))
}

/// Percentile `bp` (basis points, above the median) of `values`,
/// refused when fewer than [`MIN_BEYOND`] samples lie beyond it — so
/// p99 needs at least 1000 samples.
pub fn percentile(values: &[f64], bp: u64) -> Result<f64, StatError> {
    if values.is_empty() {
        return Err(StatError::Empty);
    }
    if bp > 5_000 && beyond(values.len(), bp) < MIN_BEYOND {
        return Err(StatError::TooFewSamples { bp, n: values.len(), need: samples_needed(bp) });
    }
    Ok(rank(&sorted(values), bp))
}

/// The highest tail percentile `values` supports, as `(bp, value)`.
pub fn tail(values: &[f64]) -> Result<(u64, f64), StatError> {
    let bp =
        LADDER_BP.iter().rev().copied().find(|&bp| beyond(values.len(), bp) >= MIN_BEYOND).ok_or(
            StatError::TooFewSamples {
                bp: LADDER_BP[0],
                n: values.len(),
                need: samples_needed(LADDER_BP[0]),
            },
        )?;
    Ok((bp, rank(&sorted(values), bp)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(9_900), 1_000);
        assert_eq!(
            percentile(&ramp(999), 9_900),
            Err(StatError::TooFewSamples { bp: 9_900, n: 999, need: 1_000 })
        );
        assert_eq!(percentile(&ramp(1_000), 9_900), Ok(990.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(999)), Ok((9_000, 900.0)));
        assert_eq!(tail(&ramp(1_000)), Ok((9_900, 990.0)));
        assert_eq!(tail(&ramp(9_999)).map(|t| t.0), Ok(9_900));
        assert_eq!(tail(&ramp(10_000)), Ok((9_990, 9_990.0)));
        assert!(tail(&ramp(99)).is_err(), "p90 of 99 samples has only 9 beyond it");
        assert_eq!(tail(&ramp(100)), Ok((9_000, 90.0)));
    }

    #[test]
    fn median_of_unsorted_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Ok(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[]), Err(StatError::Empty));
    }

    #[test]
    fn basis_points_render_like_percentiles() {
        assert_eq!(fmt_bp(9_900), "99");
        assert_eq!(fmt_bp(9_990), "99.9");
        assert_eq!(fmt_bp(9_999), "99.99");
    }
}
