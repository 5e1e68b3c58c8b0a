//! Private record matching via PSD blocking (paper Section 8.3, after
//! Inan, Kantarcioglu, Ghinita, and Bertino \[12\]).
//!
//! Two parties hold spatial record sets `A` and `B` and want to find
//! pairs within a matching distance `d` without revealing their data.
//! The expensive step is a secure multiparty computation (SMC) over
//! candidate pairs; the paper's application uses a differentially
//! private decomposition of `A` to *block* — eliminate regions of the
//! space that cannot contain matches — before SMC runs.
//!
//! The protocol simulated here:
//!
//! 1. Party `A` publishes a PSD of its records with **all count budget
//!    on the leaves** (the paper notes post-processing does not apply in
//!    this variant).
//! 2. A leaf is *retained* when its noisy count exceeds a pruning
//!    threshold `theta`; otherwise both parties treat it as empty.
//! 3. For every retained leaf, party `B` counts its records within
//!    distance `d` of the leaf's rectangle; each such `B` record must be
//!    compared (inside SMC) against the leaf's **published** record
//!    count. `A` cannot reveal how many records a leaf really holds —
//!    that is the private quantity — so the SMC is sized by the noisy
//!    count (padding with dummy records where the noise over-counts),
//!    the standard construction in \[12\].
//!
//! The metric is the **reduction ratio**: the fraction of the naive
//! `|A| x |B|` comparisons avoided — "bigger is better". Good private
//! splits (kd-standard) concentrate `A`'s mass in few, tight leaves, so
//! more of the space can be discarded; poor splits (noisy mean) and
//! data-oblivious cells (quad-baseline) retain more dead area, and
//! smaller budgets inflate the padded counts. This is the behaviour
//! Figure 7(b) plots across the privacy budget.

#![forbid(unsafe_code)]

pub mod parties;

use dpsd_baselines::ExactIndex;
use dpsd_core::budget::CountBudget;
use dpsd_core::exec::{par_map_tasks, Parallelism};
use dpsd_core::geometry::Point;
use dpsd_core::tree::{CountSource, PsdConfig, PsdTree};

/// Configuration of one blocking run.
#[derive(Debug, Clone)]
pub struct BlockingConfig {
    /// Matching distance `d` (domain units).
    pub matching_distance: f64,
    /// Noisy-count threshold below which a leaf is discarded. The noise
    /// scale at the leaves is `1/eps_leaf`; a threshold of a few noise
    /// scales discards empty leaves with high probability while keeping
    /// populated ones.
    pub retain_threshold: f64,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        BlockingConfig {
            matching_distance: 0.05,
            retain_threshold: 8.0,
        }
    }
}

/// Outcome of a blocking run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingOutcome {
    /// SMC pair comparisons remaining after blocking.
    pub smc_pairs: f64,
    /// The naive comparison count `|A| * |B|`.
    pub naive_pairs: f64,
    /// Fraction of true matching pairs whose leaf was retained
    /// (completeness of the blocking; 1.0 = no matches lost).
    pub match_recall: f64,
    /// Number of leaves retained.
    pub retained_leaves: usize,
}

impl BlockingOutcome {
    /// The reduction ratio `1 - smc_pairs / naive_pairs` (paper: "how
    /// much SMC work is saved relative to the baseline of no
    /// elimination, so bigger is better").
    pub fn reduction_ratio(&self) -> f64 {
        if self.naive_pairs <= 0.0 {
            return 0.0;
        }
        (1.0 - self.smc_pairs / self.naive_pairs).clamp(0.0, 1.0)
    }
}

/// Builds the leaf-only PSD for party `A` as the protocol prescribes.
///
/// Takes any [`PsdConfig`] and overrides the pieces the application
/// fixes: count budget on leaves only, no post-processing, no pruning.
pub fn build_blocking_tree(
    mut config: PsdConfig,
    a_points: &[Point],
) -> Result<PsdTree, dpsd_core::DpsdError> {
    config.count_budget = CountBudget::LeafOnly;
    config.postprocess = false;
    config.prune_threshold = None;
    config.build(a_points)
}

/// Builds one blocking tree per party, concurrently.
///
/// Each `(config, records)` task is independent — a party's noise is
/// drawn from the RNG stream its config's seed pins — so the output is
/// **bit-identical for every thread count**, including sequential; the
/// pool only changes wall-clock time. Results come back in task order.
/// The first failing build reports its error (remaining builds still
/// run to completion on their workers).
pub fn build_blocking_trees(
    tasks: &[(PsdConfig, &[Point])],
    par: Parallelism,
) -> Result<Vec<PsdTree>, dpsd_core::DpsdError> {
    par_map_tasks(par, tasks.len(), |i| {
        let (config, points) = &tasks[i];
        build_blocking_tree(config.clone(), points)
    })
    .into_iter()
    .collect()
}

/// Runs the blocking protocol: party `B`'s records are matched against
/// the retained leaves of `A`'s published tree.
///
/// `b_index` must index party `B`'s records (over any domain covering
/// them).
pub fn run_blocking(
    tree: &PsdTree,
    b_index: &ExactIndex,
    a_points: &[Point],
    b_points: &[Point],
    config: &BlockingConfig,
) -> BlockingOutcome {
    let d = config.matching_distance;
    let naive_pairs = a_points.len() as f64 * b_points.len() as f64;
    let mut smc_pairs = 0.0;
    let mut retained_leaves = 0usize;
    let mut retained = vec![false; tree.node_count()];
    // Walk the effective leaves of the published tree.
    let mut stack = vec![tree.root()];
    while let Some(v) = stack.pop() {
        if !tree.is_effective_leaf(v) {
            stack.extend(tree.children(v));
            continue;
        }
        let noisy = tree.count(v, CountSource::Noisy).unwrap_or(0.0);
        if noisy <= config.retain_threshold {
            continue;
        }
        retained_leaves += 1;
        retained[v] = true;
        let rect = tree.rect(v);
        // B records that could match something in this leaf.
        let b_near = b_index.count(&rect.expanded(d)) as f64;
        // SMC is sized by the *published* leaf count: A pads (or trims)
        // its contribution to the noisy count so the protocol reveals
        // nothing beyond the release.
        smc_pairs += noisy.max(0.0) * b_near;
    }
    // Whether the effective leaf holding `p` was retained: descend the
    // space-partitioning tree in O(h).
    let leaf_retained = |p: &Point| -> bool {
        let mut v = tree.root();
        loop {
            if tree.is_effective_leaf(v) {
                return retained[v];
            }
            match tree.children(v).find(|&c| tree.rect(c).contains(*p)) {
                Some(c) => v = c,
                None => return false,
            }
        }
    };
    // Recall: fraction of true matches whose A-side survived blocking.
    // The pair scan is quadratic (evaluation-only); the per-match leaf
    // lookup is logarithmic.
    let a_kept: Vec<bool> = a_points.iter().map(&leaf_retained).collect();
    let mut matches = 0usize;
    let mut kept = 0usize;
    for (a, &a_ok) in a_points.iter().zip(&a_kept) {
        for b in b_points {
            let dx = a.x() - b.x();
            let dy = a.y() - b.y();
            if dx * dx + dy * dy <= d * d {
                matches += 1;
                kept += usize::from(a_ok);
            }
        }
    }
    let match_recall = if matches == 0 {
        1.0
    } else {
        kept as f64 / matches as f64
    };
    BlockingOutcome {
        smc_pairs: smc_pairs.min(naive_pairs),
        naive_pairs,
        match_recall,
        retained_leaves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parties::two_party_datasets;
    use dpsd_core::geometry::Rect;
    use dpsd_core::tree::PsdConfig;

    fn setup() -> (Rect, Vec<Point>, Vec<Point>) {
        let domain = Rect::new(0.0, 0.0, 100.0, 100.0).unwrap();
        let (a, b) = two_party_datasets(&domain, 4000, 4000, 0.3, 77);
        (domain, a, b)
    }

    #[test]
    fn blocking_saves_work_and_keeps_most_matches() {
        let (domain, a, b) = setup();
        let tree =
            build_blocking_tree(PsdConfig::kd_standard(domain, 5, 0.5).with_seed(1), &a).unwrap();
        let b_index = ExactIndex::build(&b, domain, 128).unwrap();
        let outcome = run_blocking(
            &tree,
            &b_index,
            &a,
            &b,
            &BlockingConfig {
                matching_distance: 0.5,
                retain_threshold: 8.0,
            },
        );
        let rr = outcome.reduction_ratio();
        assert!(rr > 0.3, "reduction ratio {rr} too low");
        assert!(
            outcome.match_recall > 0.5,
            "recall {} too low",
            outcome.match_recall
        );
        assert!(outcome.retained_leaves > 0);
    }

    #[test]
    fn larger_epsilon_improves_reduction() {
        let (domain, a, b) = setup();
        let b_index = ExactIndex::build(&b, domain, 128).unwrap();
        let cfg = BlockingConfig {
            matching_distance: 0.5,
            retain_threshold: 8.0,
        };
        let ratio_at = |eps: f64| {
            let mut acc = 0.0;
            for seed in 0..5 {
                let tree =
                    build_blocking_tree(PsdConfig::kd_standard(domain, 5, eps).with_seed(seed), &a)
                        .unwrap();
                acc += run_blocking(&tree, &b_index, &a, &b, &cfg).reduction_ratio();
            }
            acc / 5.0
        };
        let low = ratio_at(0.05);
        let high = ratio_at(0.5);
        assert!(
            high >= low - 0.02,
            "reduction should not degrade with budget: {low} -> {high}"
        );
    }

    #[test]
    fn parallel_party_builds_are_thread_count_invariant() {
        let (domain, a, b) = setup();
        let tasks: Vec<(PsdConfig, &[Point])> = vec![
            (PsdConfig::kd_standard(domain, 5, 0.5).with_seed(1), &a[..]),
            (PsdConfig::quadtree(domain, 4, 0.3).with_seed(2), &b[..]),
            (PsdConfig::kd_noisymean(domain, 4, 0.4).with_seed(3), &a[..]),
        ];
        let reference: Vec<String> = build_blocking_trees(&tasks, Parallelism::Sequential)
            .unwrap()
            .iter()
            .map(|t| t.release().to_json())
            .collect();
        for par in [
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::fixed(8),
        ] {
            let trees = build_blocking_trees(&tasks, par).unwrap();
            assert_eq!(trees.len(), tasks.len());
            for (i, tree) in trees.iter().enumerate() {
                assert_eq!(
                    tree.release().to_json(),
                    reference[i],
                    "party {i} release changed under {par:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_build_surfaces_errors() {
        let (domain, a, _) = setup();
        let tasks: Vec<(PsdConfig, &[Point])> = vec![
            (PsdConfig::kd_standard(domain, 4, 0.5).with_seed(1), &a[..]),
            // Invalid: zero height quadtree is fine, but epsilon <= 0 is
            // rejected by the builder.
            (PsdConfig::quadtree(domain, 4, -1.0).with_seed(2), &a[..]),
        ];
        assert!(build_blocking_trees(&tasks, Parallelism::fixed(2)).is_err());
    }

    #[test]
    fn leaf_only_tree_is_used() {
        let (domain, a, _) = setup();
        let tree =
            build_blocking_tree(PsdConfig::quadtree(domain, 4, 0.5).with_seed(3), &a).unwrap();
        assert!(!tree.is_postprocessed());
        assert_eq!(
            tree.noisy_count(tree.root()),
            None,
            "internal counts withheld"
        );
    }

    #[test]
    fn empty_b_side_gives_full_reduction() {
        let (domain, a, _) = setup();
        let tree =
            build_blocking_tree(PsdConfig::quadtree(domain, 4, 0.5).with_seed(4), &a).unwrap();
        let b: Vec<Point> = vec![];
        let b_index = ExactIndex::build(&b, domain, 32).unwrap();
        let outcome = run_blocking(&tree, &b_index, &a, &b, &BlockingConfig::default());
        assert_eq!(outcome.smc_pairs, 0.0);
        assert_eq!(
            outcome.reduction_ratio(),
            0.0,
            "naive is 0 too: ratio defined as 0"
        );
        assert_eq!(outcome.match_recall, 1.0);
    }

    #[test]
    fn absurd_threshold_blocks_everything() {
        let (domain, a, b) = setup();
        let tree =
            build_blocking_tree(PsdConfig::quadtree(domain, 4, 0.5).with_seed(5), &a).unwrap();
        let b_index = ExactIndex::build(&b, domain, 64).unwrap();
        let outcome = run_blocking(
            &tree,
            &b_index,
            &a,
            &b,
            &BlockingConfig {
                matching_distance: 0.5,
                retain_threshold: 1e9,
            },
        );
        assert_eq!(outcome.retained_leaves, 0);
        assert_eq!(outcome.reduction_ratio(), 1.0);
        assert!(
            outcome.match_recall < 0.1,
            "everything was (wrongly) discarded"
        );
    }
}
