//! Canonical range-query processing (paper Section 4.1).
//!
//! > Starting from the root, visit all nodes `u` whose rectangle
//! > intersects `Q`. If `u` is fully contained in `Q`, add the noisy
//! > count `Y_u` to the answer; otherwise recurse on the children, until
//! > the leaves are reached. If a leaf intersects `Q` but is not
//! > contained in it, use a uniformity assumption to estimate what
//! > fraction of its count should be added.
//!
//! This minimizes the number of noisy counts combined, and therefore the
//! query variance (each included node contributes its own independent
//! noise). [`range_query_profiled`] additionally reports how many nodes
//! contributed per level, which the tests compare against the Lemma 2
//! bounds.
//!
//! These functions pick the count column a [`CountSource`] names —
//! including the owner-only exact counts — and run the one query kernel
//! in [`crate::flat`] over the tree's columns; published synopses run
//! the same kernel on the `Auto` column.

use crate::error::DpsdError;
use crate::geometry::Rect;
use crate::tree::{CountSource, PsdTree};

/// Per-query accounting: which nodes contributed to the estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// Number of fully-contained nodes whose counts were added, per level
    /// (index 0 = leaves) — the `n_i` of Lemma 2.
    pub contained_per_level: Vec<usize>,
    /// Number of partially-intersected (effective) leaves estimated via
    /// the uniformity assumption.
    pub partial_leaves: usize,
}

impl QueryProfile {
    /// Total number of contributing noisy counts, `n(Q)`.
    pub fn total_contained(&self) -> usize {
        self.contained_per_level.iter().sum()
    }

    /// The noise variance of this query under the *raw* (non-post-
    /// processed) counts: `Err(Q) = sum_i 2 n_i / eps_i^2` (paper
    /// eq. 1), instantiated with the actual per-level contribution
    /// counts rather than the worst-case bounds. Partial leaves
    /// contribute their (fraction-scaled) leaf variance.
    ///
    /// Post-processed counts have lower variance (Definition 3), so the
    /// value is a valid upper bound for the `Auto`/`Posted` sources too.
    pub fn noise_variance(&self, eps_levels: &[f64]) -> f64 {
        assert_eq!(
            eps_levels.len(),
            self.contained_per_level.len(),
            "one epsilon per level"
        );
        let mut var = 0.0;
        for (&n_i, &eps) in self.contained_per_level.iter().zip(eps_levels) {
            if eps > 0.0 {
                var += 2.0 * n_i as f64 / (eps * eps);
            }
        }
        // Each partial leaf adds (fraction^2 <= 1) * leaf variance.
        if eps_levels[0] > 0.0 {
            var += 2.0 * self.partial_leaves as f64 / (eps_levels[0] * eps_levels[0]);
        }
        var
    }
}

/// Answers a range query using post-processed counts when available
/// (the `Auto` source).
pub fn range_query<const D: usize>(tree: &PsdTree<D>, query: &Rect<D>) -> f64 {
    range_query_with(tree, query, CountSource::Auto)
}

/// Answers a range query reading the chosen count column.
///
/// # Panics
///
/// Panics if `source` is [`CountSource::Posted`] but the tree was never
/// post-processed.
pub fn range_query_with<const D: usize>(
    tree: &PsdTree<D>,
    query: &Rect<D>,
    source: CountSource,
) -> f64 {
    let counts = tree.column(source);
    assert!(
        counts.is_some(),
        "Posted counts requested but OLS post-processing was never run"
    );
    counts.map_or(0.0, |c| tree.answer(query, c))
}

/// Non-panicking variant of [`range_query_with`]: requesting
/// [`CountSource::Posted`] from a tree that was never post-processed is
/// reported as [`DpsdError::PostedUnavailable`] instead of a panic.
pub fn try_range_query_with<const D: usize>(
    tree: &PsdTree<D>,
    query: &Rect<D>,
    source: CountSource,
) -> Result<f64, DpsdError> {
    match tree.column(source) {
        Some(c) => Ok(tree.answer(query, c)),
        None => Err(DpsdError::PostedUnavailable),
    }
}

/// Answers every query of a workload from the `Auto` source. See
/// [`range_query_batch_with`].
pub fn range_query_batch<const D: usize>(tree: &PsdTree<D>, queries: &[Rect<D>]) -> Vec<f64> {
    range_query_batch_with(tree, queries, CountSource::Auto)
}

/// Answers every query of a workload, reading the chosen count column.
///
/// This is `queries.iter().map(|q| range_query_with(tree, q,
/// source)).collect()` with the column resolved once: one descent per
/// query, so every answer is bit-identical to the single query.
///
/// # Panics
///
/// Panics if `source` is [`CountSource::Posted`] but the tree was never
/// post-processed (as [`range_query_with`] does).
pub fn range_query_batch_with<const D: usize>(
    tree: &PsdTree<D>,
    queries: &[Rect<D>],
    source: CountSource,
) -> Vec<f64> {
    let counts = tree.column(source);
    assert!(
        counts.is_some(),
        "Posted counts requested but OLS post-processing was never run"
    );
    counts.map_or_else(Vec::new, |c| {
        queries.iter().map(|q| tree.answer(q, c)).collect()
    })
}

/// Answers a range query and reports the contribution profile.
/// [`CountSource::Posted`] on a tree that was never post-processed has
/// no column to read: the answer is 0 and no node contributes.
pub fn range_query_profiled<const D: usize>(
    tree: &PsdTree<D>,
    query: &Rect<D>,
    source: CountSource,
) -> (f64, QueryProfile) {
    match tree.column(source) {
        Some(c) => tree.answer_profiled(query, c),
        None => (
            0.0,
            QueryProfile {
                contained_per_level: vec![0; tree.height() + 1],
                partial_leaves: 0,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::quadtree_level_nodes_bound;
    use crate::budget::CountBudget;
    use crate::geometry::Point;
    use crate::tree::PsdConfig;

    fn unit_domain() -> Rect {
        Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()
    }

    fn grid_points(n_side: usize, domain: &Rect) -> Vec<Point> {
        let mut pts = Vec::with_capacity(n_side * n_side);
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point::new(
                    domain.min_x() + (i as f64 + 0.5) / n_side as f64 * domain.width(),
                    domain.min_y() + (j as f64 + 0.5) / n_side as f64 * domain.height(),
                ));
            }
        }
        pts
    }

    #[test]
    fn exact_query_on_aligned_rectangles() {
        let domain = unit_domain();
        let pts = grid_points(32, &domain); // 1024 points
        let tree = PsdConfig::quadtree(domain, 3, 1.0)
            .with_seed(2)
            .build(&pts)
            .unwrap();
        // Whole domain.
        assert_eq!(range_query_with(&tree, &domain, CountSource::True), 1024.0);
        // Quadrant aligned to depth-1 cells.
        let q = Rect::new(0.0, 0.0, 32.0, 32.0).unwrap();
        assert_eq!(range_query_with(&tree, &q, CountSource::True), 256.0);
        // Cell aligned to leaf boundaries (depth 3: 8x8 cells).
        let q = Rect::new(8.0, 16.0, 16.0, 24.0).unwrap();
        assert_eq!(range_query_with(&tree, &q, CountSource::True), 16.0);
    }

    #[test]
    fn disjoint_query_returns_zero() {
        let domain = unit_domain();
        let pts = grid_points(8, &domain);
        let tree = PsdConfig::quadtree(domain, 2, 1.0).build(&pts).unwrap();
        let q = Rect::new(100.0, 100.0, 120.0, 110.0).unwrap();
        assert_eq!(range_query(&tree, &q), 0.0);
        assert_eq!(range_query_with(&tree, &q, CountSource::True), 0.0);
    }

    #[test]
    fn uniformity_assumption_on_partial_leaves() {
        let domain = unit_domain();
        let pts = grid_points(32, &domain);
        let tree = PsdConfig::quadtree(domain, 2, 1.0).build(&pts).unwrap();
        // Query covering exactly half of each intersected leaf: with the
        // True source the uniformity estimate halves each leaf count.
        // Leaf cells are 16x16; query the left half of the domain shifted
        // by half a cell.
        let q = Rect::new(0.0, 0.0, 8.0, 64.0).unwrap();
        let est = range_query_with(&tree, &q, CountSource::True);
        // True answer: points with x < 8 => 4 columns of 32 = 128.
        // Uniform estimate: leaves of width 16 contribute half their 128
        // points per row-block... both come out at 128 for uniform data.
        assert!((est - 128.0).abs() < 1e-9, "est {est}");
    }

    #[test]
    fn noisy_estimates_concentrate() {
        let domain = unit_domain();
        let pts = grid_points(48, &domain); // 2304 points
        let q = Rect::new(0.0, 0.0, 32.0, 32.0).unwrap();
        let truth = 576.0;
        let mut errs = Vec::new();
        for seed in 0..30 {
            let tree = PsdConfig::quadtree(domain, 4, 1.0)
                .with_seed(seed)
                .build(&pts)
                .unwrap();
            errs.push((range_query(&tree, &q) - truth).abs());
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 60.0, "mean abs error {mean_err} too large");
    }

    #[test]
    fn postprocessed_beats_raw_noisy_on_average() {
        let domain = unit_domain();
        let pts = grid_points(48, &domain);
        let q = Rect::new(0.0, 0.0, 48.0, 48.0).unwrap();
        let truth = pts.iter().filter(|p| q.contains(**p)).count() as f64;
        let (mut raw_sq, mut post_sq) = (0.0, 0.0);
        for seed in 0..40 {
            let tree = PsdConfig::quadtree(domain, 4, 0.5)
                .with_seed(1000 + seed)
                .build(&pts)
                .unwrap();
            let raw = range_query_with(&tree, &q, CountSource::Noisy);
            let post = range_query_with(&tree, &q, CountSource::Posted);
            raw_sq += (raw - truth).powi(2);
            post_sq += (post - truth).powi(2);
        }
        assert!(
            post_sq < raw_sq,
            "post mse {post_sq} should beat raw mse {raw_sq}"
        );
    }

    #[test]
    fn profile_respects_lemma2_bounds() {
        let domain = unit_domain();
        let pts = grid_points(32, &domain);
        let tree = PsdConfig::quadtree(domain, 4, 1.0)
            .with_seed(3)
            .build(&pts)
            .unwrap();
        // A batch of random-ish queries; every profile must respect
        // n_i <= min(8 * 2^{h-i}, 4^{h-i}).
        let queries = [
            Rect::new(1.0, 2.0, 61.0, 63.0).unwrap(),
            Rect::new(5.5, 7.5, 40.0, 22.0).unwrap(),
            Rect::new(0.0, 0.0, 64.0, 64.0).unwrap(),
            Rect::new(30.0, 30.0, 34.0, 34.0).unwrap(),
            Rect::new(0.25, 60.0, 63.75, 64.0).unwrap(),
        ];
        for q in &queries {
            let (_, profile) = range_query_profiled(&tree, q, CountSource::True);
            for (level, &n_i) in profile.contained_per_level.iter().enumerate() {
                let bound = quadtree_level_nodes_bound(tree.height(), level);
                assert!(
                    (n_i as f64) <= bound,
                    "query {q:?}: level {level} used {n_i} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn full_domain_query_uses_root_only() {
        let domain = unit_domain();
        let pts = grid_points(16, &domain);
        let tree = PsdConfig::quadtree(domain, 3, 1.0)
            .with_seed(4)
            .build(&pts)
            .unwrap();
        let (est, profile) = range_query_profiled(&tree, &domain, CountSource::Posted);
        assert_eq!(profile.total_contained(), 1, "only the root contributes");
        assert_eq!(profile.contained_per_level[3], 1);
        assert_eq!(profile.partial_leaves, 0);
        assert!((est - tree.posted_count(0).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn leaf_only_budget_answers_from_leaves() {
        let domain = unit_domain();
        let pts = grid_points(16, &domain);
        let tree = PsdConfig::quadtree(domain, 2, 1.0)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        // Root count is withheld; the query must recurse to leaves.
        let (est, profile) = range_query_profiled(&tree, &domain, CountSource::Noisy);
        assert_eq!(profile.contained_per_level[2], 0);
        assert_eq!(profile.contained_per_level[1], 0);
        assert_eq!(profile.contained_per_level[0], 16);
        let leaf_sum: f64 = (5..21).map(|v| tree.noisy_count(v).unwrap()).sum();
        assert!((est - leaf_sum).abs() < 1e-9);
    }

    #[test]
    fn noise_variance_tracks_empirical_error() {
        // Monte-Carlo check of eq. 1: the predicted variance of a raw
        // noisy answer should match the empirical mean squared error.
        let domain = unit_domain();
        let pts = grid_points(32, &domain);
        let q = Rect::new(0.0, 0.0, 48.0, 32.0).unwrap();
        let truth = pts.iter().filter(|p| q.contains(**p)).count() as f64;
        let mut sq = 0.0;
        let mut predicted = 0.0;
        let trials = 300;
        for seed in 0..trials {
            let tree = PsdConfig::quadtree(domain, 3, 0.4)
                .with_postprocess(false)
                .with_seed(seed)
                .build(&pts)
                .unwrap();
            let (est, profile) = range_query_profiled(&tree, &q, CountSource::Noisy);
            sq += (est - truth).powi(2);
            predicted = profile.noise_variance(tree.eps_count_levels());
        }
        let empirical = sq / trials as f64;
        // The query is leaf-aligned (48 and 32 are multiples of the 8-unit
        // leaves), so the uniformity error is zero and the prediction
        // should be tight.
        assert!(
            (empirical - predicted).abs() / predicted < 0.35,
            "empirical {empirical} vs predicted {predicted}"
        );
    }

    #[test]
    fn batch_matches_singles_bit_for_bit() {
        let domain = unit_domain();
        let pts = grid_points(32, &domain);
        // Pruned, data-dependent tree: exercises cut leaves and partial
        // overlap on every source.
        let mut tree = PsdConfig::kd_standard(domain, 4, 0.6)
            .with_seed(11)
            .build(&pts)
            .unwrap();
        tree.mark_cut(2);
        let queries: Vec<Rect> = (0..300)
            .map(|i| {
                let x = (i % 19) as f64 * 3.0;
                let y = ((i * 7) % 17) as f64 * 3.5;
                let w = 1.0 + (i % 13) as f64 * 4.0;
                let h = 0.5 + (i % 9) as f64 * 6.0;
                Rect::new(x, y, (x + w).min(64.0), (y + h).min(64.0)).unwrap()
            })
            .collect();
        for source in [
            CountSource::Auto,
            CountSource::Noisy,
            CountSource::Posted,
            CountSource::True,
        ] {
            let batch = range_query_batch_with(&tree, &queries, source);
            for (q, &b) in queries.iter().zip(&batch) {
                let single = range_query_with(&tree, q, source);
                assert_eq!(
                    single.to_bits(),
                    b.to_bits(),
                    "{source:?} diverged on {q:?}"
                );
            }
        }
    }

    #[test]
    fn batch_handles_withheld_levels_and_empty_input() {
        let domain = unit_domain();
        let pts = grid_points(16, &domain);
        let tree = PsdConfig::quadtree(domain, 2, 1.0)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert!(range_query_batch(&tree, &[]).is_empty());
        let queries = [domain, Rect::new(100.0, 100.0, 101.0, 101.0).unwrap()];
        let answers = range_query_batch_with(&tree, &queries, CountSource::Noisy);
        let leaf_sum: f64 = (5..21).map(|v| tree.noisy_count(v).unwrap()).sum();
        assert!(
            (answers[0] - leaf_sum).abs() < 1e-9,
            "withheld root answered from leaves"
        );
        assert_eq!(answers[1], 0.0, "disjoint query");
    }

    #[test]
    fn try_variant_reports_posted_unavailable() {
        let domain = unit_domain();
        let pts = grid_points(8, &domain);
        let tree = PsdConfig::quadtree(domain, 2, 1.0)
            .with_postprocess(false)
            .build(&pts)
            .unwrap();
        assert!(matches!(
            try_range_query_with(&tree, &domain, CountSource::Posted),
            Err(DpsdError::PostedUnavailable)
        ));
        let ok = try_range_query_with(&tree, &domain, CountSource::Noisy).unwrap();
        assert_eq!(ok, range_query_with(&tree, &domain, CountSource::Noisy));
    }

    #[test]
    #[should_panic(expected = "post-processing was never run")]
    fn posted_source_requires_postprocessing() {
        let domain = unit_domain();
        let pts = grid_points(8, &domain);
        let tree = PsdConfig::quadtree(domain, 2, 1.0)
            .with_postprocess(false)
            .build(&pts)
            .unwrap();
        let _ = range_query_with(&tree, &domain, CountSource::Posted);
    }

    #[test]
    fn pruned_nodes_answer_as_leaves() {
        let domain = unit_domain();
        let pts = grid_points(16, &domain);
        let mut tree = PsdConfig::quadtree(domain, 2, 1.0)
            .with_seed(6)
            .build(&pts)
            .unwrap();
        tree.mark_cut(1); // first depth-1 child becomes a leaf
        let q = Rect::new(0.0, 0.0, 16.0, 16.0).unwrap(); // half of node 1's cell
        let (_, profile) = range_query_profiled(&tree, &q, CountSource::Posted);
        assert_eq!(
            profile.partial_leaves, 1,
            "cut node estimated by uniformity"
        );
    }
}
