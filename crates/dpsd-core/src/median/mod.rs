//! Private median selection (paper Section 6.1).
//!
//! Data-dependent decompositions split nodes at medians of coordinate
//! values; releasing an exact median would break differential privacy, so
//! the paper surveys four private surrogates, all implemented here:
//!
//! * [`exponential_median`] — the exponential mechanism (Definition 5),
//!   the paper's recommended default;
//! * [`smooth_sensitivity_median`] — Laplace noise scaled by the smooth
//!   sensitivity of the median (Definition 4; `(eps, delta)`-DP);
//! * [`noisy_mean_split`] — the noisy-mean heuristic of Inan et al. \[12\];
//! * [`CellGridNd`] — the fixed-grid heuristic of Xiao et al. \[26\]
//!   (noisy cell counts computed once, medians read off the grid) over
//!   boxes in any dimension, `D = 1` included. It is also the
//!   workspace's one noisy-grid release: the flat-grid baseline in
//!   `dpsd-baselines` is this grid read without clamping negative
//!   cells.
//!
//! [`exact_median`] is the non-private baseline (used by `kd-pure` /
//! `kd-true` in Section 8.2), and [`MedianConfig`] is the configuration
//! handle the tree builders dispatch on, including the optional Bernoulli
//! sampling speed-up of Theorem 7.

mod cell;
mod exponential;
mod noisy_mean;
mod smooth;

pub use cell::CellGridNd;
pub(crate) use cell::MAX_GRID_CELLS;
pub use exponential::exponential_median;
pub use noisy_mean::noisy_mean_split;
pub use smooth::{smooth_sensitivity_median, smooth_sensitivity_sigma, smoothing_xi};

use crate::mech::sampling::{bernoulli_sample, SamplingPlan};
use rand::Rng;
use std::borrow::Cow;

/// The exact (non-private) lower median of a sorted slice.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn exact_median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of empty slice");
    sorted[(sorted.len() - 1) / 2]
}

/// Which private-median mechanism a tree builder should use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MedianConfig {
    /// Exact median — **not private**; for the `kd-pure`/`kd-true`
    /// baselines that quantify "the cost of privacy".
    Exact,
    /// Exponential mechanism (Definition 5). The paper's default.
    Exponential,
    /// Smooth-sensitivity noise (Definition 4) with the given `delta`
    /// (the paper uses `1e-4`). Only `(eps, delta)`-DP.
    SmoothSensitivity {
        /// Failure probability `delta` of the smooth-sensitivity analysis.
        delta: f64,
    },
    /// Noisy mean as a median surrogate (Inan et al. \[12\]).
    NoisyMean,
}

/// A median selector: a mechanism plus an optional sampling plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MedianSelector {
    /// The underlying mechanism.
    pub config: MedianConfig,
    /// Optional Bernoulli-sampling amplification (Theorem 7). When set,
    /// the mechanism runs on a `rate`-sample with budget
    /// `eps / (2 * rate)` (see [`crate::mech::sampling`]).
    pub sampling: Option<SamplingPlan>,
}

impl MedianSelector {
    /// Selector with no sampling.
    pub fn plain(config: MedianConfig) -> Self {
        MedianSelector {
            config,
            sampling: None,
        }
    }

    /// Selector running on a Bernoulli sample (methods `EMs`, `SSs`).
    pub fn sampled(config: MedianConfig, plan: SamplingPlan) -> Self {
        MedianSelector {
            config,
            sampling: Some(plan),
        }
    }

    /// Selects a private split value for `values` lying in the domain
    /// `[lo, hi]`, spending privacy budget `eps`.
    ///
    /// `values` need not be sorted, but input already in
    /// [`f64::total_cmp`] order is borrowed as it is: the tree builders
    /// keep every node's values sorted, so a split stage costs no copy
    /// and no sort here. Unsorted input is copied and sorted; since a
    /// `total_cmp` sort is fixed by the multiset of values, both give
    /// the mechanism the same sequence. A Bernoulli sample is drawn in
    /// input order.
    ///
    /// Returns the domain midpoint for an empty input: with no data every
    /// split is equally useless, and the midpoint keeps the tree balanced
    /// by area. The result is always inside `[lo, hi]`.
    pub fn select<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        values: &[f64],
        lo: f64,
        hi: f64,
        eps: f64,
    ) -> f64 {
        assert!(lo <= hi, "invalid domain [{lo}, {hi}]");
        if values.is_empty() || lo == hi {
            return lo + (hi - lo) / 2.0;
        }
        // Sampling (Theorem 7): run on a sample with boosted budget.
        let (run, run_eps): (Cow<'_, [f64]>, f64) = match self.sampling {
            Some(plan)
                if matches!(
                    self.config,
                    MedianConfig::Exponential | MedianConfig::SmoothSensitivity { .. }
                ) =>
            {
                let sample = bernoulli_sample(rng, values, plan.rate);
                (Cow::Owned(sample), plan.mechanism_epsilon(eps))
            }
            _ => (Cow::Borrowed(values), eps),
        };
        if run.is_empty() {
            return lo + (hi - lo) / 2.0;
        }
        let sorted = if run.is_sorted_by(|a, b| a.total_cmp(b).is_le()) {
            run
        } else {
            let mut owned = run.into_owned();
            owned.sort_unstable_by(f64::total_cmp);
            Cow::Owned(owned)
        };
        let out = match self.config {
            MedianConfig::Exact => exact_median(&sorted),
            MedianConfig::Exponential => exponential_median(rng, &sorted, lo, hi, run_eps),
            MedianConfig::SmoothSensitivity { delta } => {
                smooth_sensitivity_median(rng, &sorted, lo, hi, run_eps, delta)
            }
            MedianConfig::NoisyMean => noisy_mean_split(rng, &sorted, lo, hi, run_eps),
        };
        out.clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn exact_median_conventions() {
        assert_eq!(exact_median(&[3.0]), 3.0);
        assert_eq!(exact_median(&[1.0, 2.0]), 1.0, "lower median for even n");
        assert_eq!(exact_median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(exact_median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn exact_median_rejects_empty() {
        let _ = exact_median(&[]);
    }

    #[test]
    fn selector_handles_empty_and_degenerate_inputs() {
        let mut rng = seeded(1);
        let sel = MedianSelector::plain(MedianConfig::Exponential);
        assert_eq!(sel.select(&mut rng, &[], 0.0, 10.0, 0.5), 5.0);
        assert_eq!(sel.select(&mut rng, &[3.0, 4.0], 2.0, 2.0, 0.5), 2.0);
    }

    #[test]
    fn selector_output_always_in_domain() {
        let mut rng = seeded(2);
        let values: Vec<f64> = (0..500).map(|i| (i as f64) * 0.01).collect();
        for config in [
            MedianConfig::Exact,
            MedianConfig::Exponential,
            MedianConfig::SmoothSensitivity { delta: 1e-4 },
            MedianConfig::NoisyMean,
        ] {
            let sel = MedianSelector::plain(config);
            for _ in 0..50 {
                let v = sel.select(&mut rng, &values, 0.0, 5.0, 0.1);
                assert!((0.0..=5.0).contains(&v), "{config:?} escaped domain: {v}");
            }
        }
    }

    #[test]
    fn exact_selector_finds_true_median_of_unsorted_input() {
        let mut rng = seeded(3);
        let sel = MedianSelector::plain(MedianConfig::Exact);
        let values = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(sel.select(&mut rng, &values, 0.0, 10.0, 1.0), 5.0);
    }

    #[test]
    fn sampled_selector_still_lands_near_median() {
        let mut rng = seeded(4);
        let values: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
        let sel = MedianSelector::sampled(MedianConfig::Exponential, SamplingPlan::new(0.05));
        let v = sel.select(&mut rng, &values, 0.0, 20_000.0, 0.5);
        // True median 10_000; sampled EM should be in the central half.
        assert!((5_000.0..=15_000.0).contains(&v), "sampled median {v}");
    }

    #[test]
    fn sampling_ignored_for_noisy_mean_and_exact() {
        // Section 7: sampling is only useful for EM and SS.
        let mut rng = seeded(5);
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let sel = MedianSelector::sampled(MedianConfig::Exact, SamplingPlan::paper_default());
        assert_eq!(sel.select(&mut rng, &values, 0.0, 1000.0, 1.0), 499.0);
    }
}
