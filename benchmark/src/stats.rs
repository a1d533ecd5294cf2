//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample, or `pct` outside `(0, 100]`.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(
        pct > 0.0 && pct <= 100.0,
        "percentile {pct} outside (0, 100]"
    );
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    // The tolerance keeps 99.9 % of 10 000 at rank 9 990: the product is
    // a hair above the whole number in floating point.
    let rank = ((pct / 100.0 * v.len() as f64 - 1e-9).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p99.9, p99, p95 and p90 that still has at least ten of
/// `samples` samples beyond it, or `None` when even p90 has fewer — a
/// tail percentile resting on fewer samples is noise, not a tail.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // In whole per-mille, so that 99.9 % of 10 000 is exactly 9 990.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|permille| samples.saturating_sub((permille * samples).div_ceil(1000)) >= 10)
        .map(|permille| permille as f64 / 10.0)
}

/// Percentile of repeated timings that stands for "what this takes on a
/// quiet machine". Interference from the rest of the host only ever adds
/// time, in bursts of a few hundred milliseconds, so the lower quartile of
/// a piece's repetitions is a burst-free sample as long as bursts hit
/// that piece in fewer than three repetitions out of four, where the
/// median already moves once they hit half of them.
pub const QUIET_PCT: f64 = 25.0;

/// Per-piece quiet times: `rows[r][j]` is the time piece `j` took in
/// repetition `r`; the result holds, for every piece, the [`QUIET_PCT`]th
/// percentile over the repetitions. Summed, it is the time of one
/// repetition with the bursts taken out — which no single repetition need
/// have achieved.
///
/// # Panics
///
/// Panics when there is no repetition or the rows differ in length.
pub fn quiet_pieces(rows: &[&[f64]]) -> Vec<f64> {
    let pieces = rows.first().expect("at least one repetition").len();
    assert!(
        rows.iter().all(|r| r.len() == pieces),
        "every repetition runs the same pieces"
    );
    (0..pieces)
        .map(|j| {
            let column: Vec<f64> = rows.iter().map(|r| r[j]).collect();
            percentile(&column, QUIET_PCT)
        })
        .collect()
}

/// Distance between the first and third quartile as a share of the
/// median (0 for fewer than two samples): the run-to-run spread that a
/// regression bound is compared against.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    (percentile(xs, 75.0) - percentile(xs, 25.0)) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.5), 1.0);
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.9), 9_990.0);
        // Five samples: p50 is the third, p90 the fifth.
        let ys = [10.0, 50.0, 20.0, 40.0, 30.0];
        assert_eq!(percentile(&ys, 50.0), 30.0);
        assert_eq!(percentile(&ys, 90.0), 50.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quiet_pieces_take_each_piece_from_its_quiet_repetitions() {
        // Four repetitions of three pieces; a burst hits a different piece
        // in each of the first three.
        let rows: [&[f64]; 4] = [
            &[90.0, 20.0, 30.0],
            &[10.0, 80.0, 31.0],
            &[11.0, 21.0, 70.0],
            &[12.0, 22.0, 32.0],
        ];
        // Nearest rank: the lower quartile of four samples is the smallest.
        assert_eq!(quiet_pieces(&rows), vec![10.0, 20.0, 30.0]);
        // No repetition was burst-free, yet the sum is.
        assert!(rows.iter().all(|r| r.iter().sum::<f64>() > 60.0));
        assert_eq!(quiet_pieces(&rows[..1]), rows[0]);
    }

    #[test]
    #[should_panic(expected = "same pieces")]
    fn quiet_pieces_need_equal_rows() {
        quiet_pieces(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn iqr_share_of_a_flat_and_a_spread_series() {
        assert_eq!(iqr_share(&[5.0; 8]), 0.0);
        assert_eq!(iqr_share(&[5.0]), 0.0);
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        // Nearest rank: q1 = 2, q3 = 6, median = 4.5.
        assert!((iqr_share(&xs) - 4.0 / 4.5).abs() < 1e-12);
    }
}
