//! Percentiles under the benchmark's sample-count rule, medians, and the
//! reservoir sampling that picks the operations a traced run replays.

use std::ops::Range;

use tdfs_graph::rng::Rng;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples ranked above the percentile.
    pub beyond: usize,
}

/// The `pct`-th nearest-rank percentile: the smallest sample with at least
/// `pct`% of all samples at or below it. Refused when fewer than
/// [`MIN_BEYOND`] samples rank beyond it.
pub fn percentile(samples: &[f64], pct: usize) -> Result<Percentile, String> {
    let n = samples.len();
    let rank = (pct * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it, fewer than {MIN_BEYOND}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The median, over the `slices` of `samples`, of each slice's `pct`-th
/// percentile. Every slice must pass the sample-count rule; `samples`
/// reports the slices' total and `beyond` the smallest slice's count.
pub fn segmented_percentile(
    samples: &[f64],
    slices: &[Range<usize>],
    pct: usize,
) -> Result<Percentile, String> {
    let mut values = Vec::with_capacity(slices.len());
    let (mut total, mut beyond) = (0, usize::MAX);
    for slice in slices {
        let p = percentile(&samples[slice.clone()], pct)?;
        beyond = beyond.min(p.beyond);
        total += p.samples;
        values.push(p.value);
    }
    if values.is_empty() {
        return Err(format!("p{pct} of no segments"));
    }
    Ok(Percentile {
        value: median(&values),
        samples: total,
        beyond,
    })
}

/// Steal (clock ticks) that counts as none: 50 ms at the usual 100 ticks
/// per second, under 1% of a loop segment's CPU time.
pub const STEAL_SLACK: u64 = 5;

/// The parts of a run (loop segments, set-up windows) its figures come
/// from: those with at most `slack` more CPU steal than the median part.
/// That is at least half of them, and all of them when the steal is even
/// or not reported, so the host's other guests taking the CPUs for less
/// than half of a run do not move the figures.
pub fn least_stolen(steal: &[u64], slack: u64) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let Some(&median) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    (0..steal.len())
        .filter(|&i| steal[i] <= median + slack)
        .collect()
}

/// The median (the mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Reservoir sampling of `quota` items from a stream of unknown length:
/// where the item that follows `seen` earlier ones goes in the sample (the
/// sample's length to append, or an index to replace), or `None` to skip
/// it. At any point every item seen so far is in the sample with the same
/// probability.
pub fn reservoir_slot(seen: usize, quota: usize, rng: &mut Rng) -> Option<usize> {
    if seen < quota {
        return Some(seen);
    }
    let j = rng.gen_range(0..seen + 1);
    (j < quota).then_some(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The items a reservoir of `quota` keeps from a stream of `len`.
    fn reservoir(len: usize, quota: usize, seed: u64) -> Vec<usize> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut sample = Vec::new();
        for item in 0..len {
            match reservoir_slot(item, quota, &mut rng) {
                Some(slot) if slot == sample.len() => sample.push(item),
                Some(slot) => sample[slot] = item,
                None => {}
            }
        }
        sample
    }

    #[test]
    fn reservoir_keeps_quota_items_from_the_whole_stream() {
        assert_eq!(reservoir(3, 5, 1), vec![0, 1, 2], "a short stream is kept");
        let kept = reservoir(10_000, 40, 1);
        assert_eq!(kept.len(), 40);
        assert_eq!(kept, reservoir(10_000, 40, 1), "seeded");
        // A uniform sample of 40 from 10 000 leaves each half of the
        // stream with about 20; fewer than 8 happens with p < 1e-4.
        let late = kept.iter().filter(|&&i| i >= 5_000).count();
        assert!(
            (8..=32).contains(&late),
            "{late} of 40 from the second half"
        );
        assert_eq!(reservoir(100, 0, 1), Vec::<usize>::new());
    }

    #[test]
    fn percentile_is_nearest_rank_and_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 50).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&v, 90).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert!(percentile(&v[..99], 90).is_err(), "9 samples beyond p90");
        assert!(percentile(&v[..20], 50).is_ok());
        assert!(percentile(&v[..19], 50).is_err(), "9 samples beyond p50");
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50).unwrap().value, 20.0);
    }

    #[test]
    fn segmented_percentile_is_the_median_of_the_slices() {
        let mut v = vec![1.0; 230];
        v.extend(vec![5.0; 100]);
        let p = segmented_percentile(&v, &[0..130, 130..230, 230..330], 90).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (1.0, 330, 10));
        let p = segmented_percentile(&v, &[130..230, 230..330], 90).unwrap();
        assert_eq!((p.value, p.samples), (3.0, 200), "mean of the middle two");
        assert!(
            segmented_percentile(&v, &[0..131, 131..230], 90).is_err(),
            "99 samples in the second slice leave 9 beyond p90"
        );
        assert!(segmented_percentile(&v, &[], 90).is_err());
    }

    #[test]
    fn least_stolen_keeps_the_quieter_half_and_ties() {
        assert_eq!(least_stolen(&[0, 0, 0, 0, 0], 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(least_stolen(&[90, 3, 40, 0, 7], 0), vec![1, 3, 4]);
        assert_eq!(least_stolen(&[5, 1, 5, 9, 5], 0), vec![0, 1, 2, 4]);
        assert_eq!(
            least_stolen(&[8, 2, 4, 6], 0),
            vec![1, 2],
            "half of an even count"
        );
        assert_eq!(least_stolen(&[], 0), Vec::<usize>::new());
        // Steal within the slack of the median counts as even.
        assert_eq!(least_stolen(&[2, 0, 3, 1, 0], 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(least_stolen(&[240, 0, 3, 1, 0], 2), vec![1, 2, 3, 4]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
