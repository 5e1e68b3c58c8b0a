//! The flat noisy-grid baseline from the paper's introduction.
//!
//! "The most straightforward method is to lay down a fine grid over the
//! data, and add noise from a suitable distribution to the count of
//! individuals within each cell." Every cell spends the full budget
//! (cells partition the data, so releases compose in parallel), queries
//! sum prorated noisy cells — and the error grows with the number of
//! touched cells, which is exactly why Section 1 dismisses this approach
//! for large queries. The effect is even starker in higher dimensions
//! (the cell count is exponential in `D`), which is what the
//! `fig8_dim_sweep` experiment demonstrates against the tree families.
//!
//! The release is kd-cell's noisy grid, [`CellGridNd`], drawn from
//! `seeded(seed)`. The baseline reads it without clamping: a query sums
//! every overlapped cell's raw noisy count, negative noise included,
//! times its overlap fraction, so the estimate stays unbiased.

use dpsd_core::error::DpsdError;
use dpsd_core::geometry::{Point, Rect};
use dpsd_core::median::CellGridNd;
use dpsd_core::query::QueryProfile;
use dpsd_core::rng::seeded;
use dpsd_core::synopsis::SpatialSynopsis;

/// A flat differentially private grid release over a `D`-dimensional
/// domain (`D = 2` when elided).
#[derive(Debug, Clone)]
pub struct FlatGrid<const D: usize = 2> {
    grid: CellGridNd<D>,
    epsilon: f64,
}

impl<const D: usize> FlatGrid<D> {
    /// Builds the release: the exact cell histogram over
    /// `res[0] x … x res[D-1]` cells plus `Lap(1/eps)` per cell. Points
    /// outside `domain` are not counted.
    pub fn build(
        points: &[Point<D>],
        domain: Rect<D>,
        res: [usize; D],
        eps: f64,
        seed: u64,
    ) -> Result<Self, DpsdError> {
        if D == 0 || res.contains(&0) {
            return Err(DpsdError::invalid_parameter(
                "resolution",
                format!("grid needs at least one cell per axis, got {res:?}"),
            ));
        }
        if domain.area() <= 0.0 {
            return Err(DpsdError::invalid_parameter(
                "domain",
                "must have positive volume",
            ));
        }
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(DpsdError::invalid_parameter(
                "epsilon",
                format!("must be positive and finite, got {eps}"),
            ));
        }
        if res
            .iter()
            .try_fold(1usize, |acc, &r| acc.checked_mul(r))
            .is_none()
        {
            return Err(DpsdError::invalid_parameter(
                "resolution",
                format!("cell count overflows: {res:?}"),
            ));
        }
        Ok(FlatGrid {
            grid: CellGridNd::build(&mut seeded(seed), points, domain, res, eps),
            epsilon: eps,
        })
    }

    /// Sums the overlapped cells' raw noisy counts, each weighted by
    /// its overlap fraction `1 · f_0 · f_1 · …`, and tallies the
    /// profile when one is supplied.
    fn query_inner(&self, query: &Rect<D>, mut profile: Option<&mut QueryProfile>) -> f64 {
        let mut total = 0.0;
        self.grid.for_overlapping(query, |_, count, fracs| {
            let fraction = fracs.iter().fold(1.0, |f, &fk| f * fk);
            if fraction > 0.0 {
                if let Some(p) = profile.as_deref_mut() {
                    if fraction >= 1.0 {
                        p.contained_per_level[0] += 1;
                    } else {
                        p.partial_leaves += 1;
                    }
                }
                total += count * fraction;
            }
        });
        total
    }
}

impl<const D: usize> SpatialSynopsis<D> for FlatGrid<D> {
    /// Estimated count inside `query`: noisy cells prorated by overlap
    /// volume (uniformity within cells).
    fn query(&self, query: &Rect<D>) -> f64 {
        self.query_inner(query, None)
    }

    /// The grid is one flat level: fully-covered cells are "contained"
    /// releases, boundary cells are uniformity-estimated partials.
    fn query_profiled(&self, query: &Rect<D>) -> (f64, QueryProfile) {
        let mut profile = QueryProfile {
            contained_per_level: vec![0],
            partial_leaves: 0,
        };
        let total = self.query_inner(query, Some(&mut profile));
        (total, profile)
    }

    fn domain(&self) -> Rect<D> {
        *self.grid.rect()
    }

    /// The privacy budget the release spent.
    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of released cells.
    fn node_count(&self) -> usize {
        self.grid.resolution().iter().product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_points(n_side: usize, domain: &Rect) -> Vec<Point> {
        (0..n_side)
            .flat_map(|i| {
                let domain = *domain;
                (0..n_side).map(move |j| {
                    Point::new(
                        domain.min_x() + (i as f64 + 0.5) / n_side as f64 * domain.width(),
                        domain.min_y() + (j as f64 + 0.5) / n_side as f64 * domain.height(),
                    )
                })
            })
            .collect()
    }

    #[test]
    fn small_queries_are_accurate_at_high_eps() {
        let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
        let pts = uniform_points(64, &domain);
        let grid = FlatGrid::build(&pts, domain, [32, 32], 10.0, 1).unwrap();
        let q = Rect::new(0.0, 0.0, 16.0, 16.0).unwrap();
        let truth = pts.iter().filter(|p| q.contains(**p)).count() as f64;
        let est = grid.query(&q);
        assert!((est - truth).abs() / truth < 0.1, "est {est} vs {truth}");
    }

    #[test]
    fn error_grows_with_touched_cells() {
        // The introduction's argument, empirically: with the same eps, a
        // large query (many cells) has much larger absolute error than a
        // small one on *empty* data, where all signal is noise.
        let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
        let (mut small_err, mut large_err) = (0.0, 0.0);
        for seed in 0..40 {
            let grid = FlatGrid::build(&[], domain, [64, 64], 0.5, seed).unwrap();
            let small = Rect::new(0.0, 0.0, 4.0, 4.0).unwrap(); // 16 cells
            let large = Rect::new(0.0, 0.0, 56.0, 56.0).unwrap(); // 3136 cells
            small_err += grid.query(&small).abs();
            large_err += grid.query(&large).abs();
        }
        assert!(
            large_err > small_err * 3.0,
            "large {large_err} should dwarf small {small_err}"
        );
    }

    #[test]
    fn disjoint_query_is_zero() {
        let domain = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        let grid = FlatGrid::build(&[], domain, [4, 4], 1.0, 3).unwrap();
        assert_eq!(grid.query(&Rect::new(5.0, 5.0, 6.0, 6.0).unwrap()), 0.0);
        let (est, profile) = grid.query_profiled(&Rect::new(5.0, 5.0, 6.0, 6.0).unwrap());
        assert_eq!(est, 0.0);
        assert_eq!(profile.total_contained(), 0);
    }

    #[test]
    fn reproducible_by_seed() {
        let domain = Rect::new(0.0, 0.0, 8.0, 8.0).unwrap();
        let a = FlatGrid::build(&[], domain, [8, 8], 1.0, 7).unwrap();
        let b = FlatGrid::build(&[], domain, [8, 8], 1.0, 7).unwrap();
        assert_eq!(a.query(&domain), b.query(&domain));
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        let domain = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        let line = Rect::new(0.0, 0.0, 1.0, 0.0).unwrap();
        for bad in [
            FlatGrid::build(&[], domain, [0, 4], 1.0, 0),
            FlatGrid::build(&[], line, [4, 4], 1.0, 0),
            FlatGrid::build(&[], domain, [4, 4], 0.0, 0),
            FlatGrid::build(&[], domain, [4, 4], f64::INFINITY, 0),
        ] {
            assert!(matches!(bad, Err(DpsdError::InvalidParameter { .. })));
        }
        let cube = Rect::from_corners([0.0; 3], [1.0; 3]).unwrap();
        assert!(matches!(
            FlatGrid::build(&[], cube, [4, 0, 4], 1.0, 0),
            Err(DpsdError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn synopsis_accessors_and_profile() {
        let domain = Rect::new(0.0, 0.0, 8.0, 8.0).unwrap();
        let grid = FlatGrid::build(&[], domain, [4, 4], 1.0, 9).unwrap();
        assert_eq!(SpatialSynopsis::domain(&grid), domain);
        assert_eq!(SpatialSynopsis::epsilon(&grid), 1.0);
        assert_eq!(SpatialSynopsis::node_count(&grid), 16);
        // Half the domain: 8 cells fully inside, none partial (cell
        // boundary at x = 4 is aligned).
        let (_, profile) = grid.query_profiled(&Rect::new(0.0, 0.0, 4.0, 8.0).unwrap());
        assert_eq!(profile.contained_per_level[0], 8);
        assert_eq!(profile.partial_leaves, 0);
        // Shifted by half a cell: a column of partials appears.
        let (_, profile) = grid.query_profiled(&Rect::new(0.0, 0.0, 3.0, 8.0).unwrap());
        assert_eq!(profile.contained_per_level[0], 4);
        assert_eq!(profile.partial_leaves, 4);
        // Batch default agrees with singles.
        let qs = [domain, Rect::new(1.0, 1.0, 3.0, 3.0).unwrap()];
        assert_eq!(
            grid.query_batch(&qs),
            vec![grid.query(&qs[0]), grid.query(&qs[1])]
        );
    }

    #[test]
    fn an_overlap_with_underflowing_volume_still_counts() {
        // The query's overlap with the domain has zero `f64` volume
        // (1e-360 underflows), but its one cell has a non-zero share,
        // so the grid reads it as a partial cell.
        let domain = Rect::from_corners([0.0; 4], [1e-70; 4]).unwrap();
        let q = Rect::from_corners([-1.0; 4], [1e-90; 4]).unwrap();
        let grid = FlatGrid::<4>::build(&[], domain, [1; 4], 1.0, 3).unwrap();
        let (est, profile) = grid.query_profiled(&q);
        assert_ne!(est, 0.0);
        assert_eq!(profile.partial_leaves, 1);
    }

    #[test]
    fn three_d_grid_counts_accurately_at_high_eps() {
        let cube = Rect::from_corners([0.0; 3], [8.0; 3]).unwrap();
        let pts: Vec<Point<3>> = (0..8 * 8 * 8)
            .map(|i| {
                Point::from_coords([
                    (i % 8) as f64 + 0.5,
                    (i / 8 % 8) as f64 + 0.5,
                    (i / 64) as f64 + 0.5,
                ])
            })
            .collect();
        let grid = FlatGrid::build(&pts, cube, [8, 8, 8], 50.0, 2).unwrap();
        assert_eq!(grid.node_count(), 512);
        // Half-cube, cell-aligned: 256 points.
        let q = Rect::from_corners([0.0; 3], [4.0, 8.0, 8.0]).unwrap();
        let est = grid.query(&q);
        assert!((est - 256.0).abs() < 15.0, "est {est}");
        // Profile: 4*8*8 = 256 contained cells, none partial.
        let (_, profile) = grid.query_profiled(&q);
        assert_eq!(profile.contained_per_level[0], 256);
        assert_eq!(profile.partial_leaves, 0);
        // Unaligned cut: partials appear and the uniform estimate tracks
        // the covered volume.
        let q = Rect::from_corners([0.0; 3], [3.5, 8.0, 8.0]).unwrap();
        let est = grid.query(&q);
        assert!((est - 224.0).abs() < 15.0, "est {est}");
    }
}
