//! Shared experiment infrastructure: scales, dataset construction, and
//! workload evaluation.

use dpsd_core::geometry::Point;
use dpsd_core::metrics::{median_of, relative_error_pct};
use dpsd_core::query::range_query_batch_with;
use dpsd_core::synopsis::SpatialSynopsis;
use dpsd_core::tree::{CountSource, PsdTree};
use dpsd_data::synthetic::tiger_substitute;
use dpsd_data::workload::Workload;

/// Experiment scale knobs. `paper()` follows Section 8's parameters
/// (with the dataset-size substitution of DESIGN.md); `quick()` is a
/// minutes-not-hours variant for CI and Criterion.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Points in the road-network (TIGER substitute) dataset.
    pub n_points: usize,
    /// Queries per shape (paper: 600).
    pub queries_per_shape: usize,
    /// Quadtree height for Figure 3 (paper: 10).
    pub quad_height: usize,
    /// kd-tree height for Figure 5 (paper: 8).
    pub kd_height: usize,
    /// Height sweep for Figure 6 (paper: 6..=11).
    pub height_sweep: std::ops::RangeInclusive<usize>,
    /// 1-D data size for Figure 4 (paper: 2^20).
    pub median_n: usize,
    /// Depth sweep for Figure 4 (paper: 0..=9).
    pub median_max_depth: usize,
    /// Cell-grid resolution per axis for kd-cell trees.
    pub kdcell_grid: usize,
    /// Party sizes for Figure 7(b).
    pub match_party_size: usize,
}

impl Scale {
    /// Paper-faithful parameters (documented substitutions aside): the
    /// full 1.63 M-point dataset size of Section 8.1.
    pub fn paper() -> Self {
        Scale {
            n_points: 1_630_000,
            queries_per_shape: 600,
            quad_height: 10,
            kd_height: 8,
            height_sweep: 6..=11,
            median_n: 1 << 20,
            median_max_depth: 9,
            // ~0.01 degree cells over the TIGER box, the paper's kd-cell
            // resolution (Section 8.2).
            kdcell_grid: 2048,
            match_party_size: 10_000,
        }
    }

    /// A fast configuration for CI, tests, and benches.
    pub fn quick() -> Self {
        Scale {
            n_points: 20_000,
            queries_per_shape: 60,
            quad_height: 7,
            kd_height: 6,
            height_sweep: 5..=8,
            median_n: 1 << 15,
            median_max_depth: 6,
            kdcell_grid: 128,
            match_party_size: 2_000,
        }
    }

    /// The road-network dataset at this scale.
    pub fn dataset(&self, seed: u64) -> Vec<Point> {
        tiger_substitute(self.n_points, seed)
    }
}

/// Evaluates a tree over a workload: the paper's summary statistic, the
/// **median relative error (%)** across the workload's queries. The
/// whole workload is answered by [`range_query_batch_with`].
pub fn evaluate_tree(tree: &PsdTree, workload: &Workload, source: CountSource) -> f64 {
    let answers = range_query_batch_with(tree, &workload.queries, source);
    median_error_pct(&answers, &workload.exact)
}

/// Evaluates **any** backend behind [`SpatialSynopsis`] over a workload
/// (its best released counts), using the backend's batched path.
pub fn evaluate_synopsis<S: SpatialSynopsis + ?Sized>(synopsis: &S, workload: &Workload) -> f64 {
    let answers = synopsis.query_batch(&workload.queries);
    median_error_pct(&answers, &workload.exact)
}

fn median_error_pct(answers: &[f64], exact: &[f64]) -> f64 {
    let errs: Vec<f64> = answers
        .iter()
        .zip(exact)
        .map(|(&est, &actual)| relative_error_pct(est, actual))
        .collect();
    // dpsd-allow(no-panic-in-lib): workload generators reject empty query sets, so errs is non-empty here
    median_of(&errs).expect("workload is non-empty")
}

/// Milliseconds elapsed while running `f`, together with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // dpsd-allow(no-wallclock-in-core): this IS the sanctioned bench-timing helper — figures 4/7a report wall time as a measured quantity, never as an input to a build
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsd_baselines::ExactIndex;
    use dpsd_core::geometry::Rect;
    use dpsd_core::tree::PsdConfig;
    use dpsd_data::workload::{generate_workload, QueryShape};

    #[test]
    fn evaluate_tree_zero_for_exact_source_on_aligned_grid() {
        // Uniform grid data, aligned domain: the True source has only
        // uniformity error, which vanishes for quadtree cells on uniform
        // data.
        let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
        let pts: Vec<Point> = (0..64)
            .flat_map(|i| (0..64).map(move |j| Point::new(i as f64 + 0.5, j as f64 + 0.5)))
            .collect();
        let tree = PsdConfig::quadtree(domain, 3, 1.0)
            .with_seed(1)
            .build(&pts)
            .unwrap();
        let index = ExactIndex::build(&pts, domain, 64).unwrap();
        let wl = generate_workload(&index, QueryShape::new(16.0, 16.0), 20, 3);
        let err = evaluate_tree(&tree, &wl, CountSource::True);
        assert!(err < 12.0, "true-source error {err}% unexpectedly large");
    }

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.n_points < p.n_points);
        assert!(q.queries_per_shape < p.queries_per_shape);
        assert_eq!(p.quad_height, 10);
        assert_eq!(p.kd_height, 8);
        assert_eq!(p.median_n, 1 << 20);
    }

    #[test]
    fn timed_measures_something() {
        let (v, ms) = timed(|| (0..100_000).sum::<u64>());
        assert_eq!(v, 4999950000);
        assert!(ms >= 0.0);
    }
}
