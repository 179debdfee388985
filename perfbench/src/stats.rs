//! Summary statistics shared by every workload.

/// Samples a tail percentile needs beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The middle of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Nearest-rank percentile `p` (0–100): the smallest sample with at least
/// `p` % of the samples at or below it; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// A tail percentile and the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile (0–100): share of samples at or below `value`.
    pub percentile: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it: with `n` sorted samples, the one at rank `n - 10`, which is
/// the `100 * (n - 10) / n` th percentile. `None` below 11 samples, where
/// no percentile has ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let at = n - TAIL_MIN_BEYOND;
    Some(Tail { value: s[at - 1], percentile: 100.0 * at as f64 / n as f64, samples: n })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a 64 over `bytes`, continuing from `state` (start from
/// [`FNV_OFFSET`]). Used to digest program outputs for the correctness
/// gates.
pub fn fnv64(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0, "ten samples (91..=100) lie beyond it");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_MIN_BEYOND);

        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples have a tail");
        assert_eq!((t.value, t.percentile), (989.0, 99.0));

        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).map(|t| t.value), Some(0.0));
        assert_eq!(tail(&eleven[..10]), None, "ten samples leave no percentile ten beyond");
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(fnv64(FNV_OFFSET, b"fo"), b"o"), fnv64(FNV_OFFSET, b"foo"));
    }
}
