//! Property test of the latency histogram behind `rp serve`'s and the soak
//! bench's percentiles: over random sample sets, every
//! [`LatencyHistogram::quantile_ns`] lies between the true nearest-rank
//! quantile and 12.5% above it, and never above the recorded max.

use proptest::prelude::*;
use rp_core::serve::LatencyHistogram;

/// A sample drawn from one octave: `2^e` plus a random offset below it, so
/// the set spans exact small values, mid-range and the top of `u64`.
fn sample((e, raw): (u32, u64)) -> u64 {
    match e {
        0 => raw % 8,
        64 => u64::MAX - raw % 1024,
        e => (1u64 << (e - 1)) + raw % (1u64 << (e - 1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantiles_bound_the_nearest_rank_sample(
        octaves in prop::collection::vec((0u32..65, any::<u64>()), 1..200),
        narrow in prop::option::of(0u32..65),
        qs in prop::collection::vec(1u32..=10_000, 1..12),
    ) {
        // With `narrow`, every sample comes from one octave, so many land
        // in the same few buckets.
        let mut samples: Vec<u64> =
            octaves.iter().map(|&(e, raw)| sample((narrow.unwrap_or(e), raw))).collect();
        let mut h = LatencyHistogram::new();
        samples.iter().for_each(|&ns| h.record_ns(ns));
        samples.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.max_ns(), *samples.last().unwrap());
        for q in qs.iter().map(|&q| q as f64 / 10_000.0).chain([0.5, 0.99, 1.0]) {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let got = h.quantile_ns(q);
            prop_assert!(got >= truth, "q={}: {} under the true sample {}", q, got, truth);
            prop_assert!(got - truth <= truth / 8, "q={}: {} over 12.5% above {}", q, got, truth);
            prop_assert!(got <= h.max_ns());
        }
    }
}
