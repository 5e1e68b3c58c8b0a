//! Cell-based (fixed-grid) median heuristic of Xiao et al. \[26\]
//! (paper Section 6.1), and the workspace's one noisy-grid release.
//!
//! A fixed-resolution grid is laid over the data once; each cell count is
//! released with Laplace noise (sensitivity 1). Medians for any subregion
//! are then read off the noisy grid: accumulate the (non-negative-clamped)
//! cell masses restricted to the region and find where the cumulative
//! reaches half, interpolating inside the crossing cell.
//!
//! The accuracy depends on how coarse the grid is relative to the data
//! distribution — the trade-off Figure 4(a) ("cell") illustrates. The
//! introduction's flat-grid strawman (`FlatGrid` in `dpsd-baselines`) is
//! this same release, read through [`CellGridNd::for_overlapping`]
//! without the clamp.

use crate::geometry::{Point, Rect};
use crate::mech::laplace::laplace_mechanism;
use rand::Rng;

/// A `D`-dimensional noisy grid over a box: the `kd-cell` tree reads it
/// to choose splits and to test node uniformity, Figure 4 reads 1-D
/// medians off it, and the flat-grid baseline answers range counts
/// from it.
///
/// Cell counts are stored in a flat vector with axis 0 fastest
/// (`idx = i_0 + n_0 · (i_1 + n_1 · (i_2 + …))`) and perturbed once
/// with `Lap(1/eps)` each, in that linear order. The region reads
/// below prorate boundary cells by per-axis overlap fractions and clamp
/// negative noisy cells to zero mass.
#[derive(Debug, Clone)]
pub struct CellGridNd<const D: usize> {
    rect: Rect<D>,
    res: [usize; D],
    counts: Vec<f64>,
}

impl<const D: usize> CellGridNd<D> {
    /// Builds the grid: the exact histogram of the points inside `rect`
    /// (closed edges; a point on the upper edge falls in the last cell)
    /// plus `Lap(1/eps)` noise per cell.
    ///
    /// # Panics
    ///
    /// Panics if any axis has zero cells, the box has zero volume,
    /// `eps <= 0`, or the total cell count overflows `usize`.
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        points: &[Point<D>],
        rect: Rect<D>,
        res: [usize; D],
        eps: f64,
    ) -> Self {
        assert!(
            res.iter().all(|&n| n > 0),
            "grid needs at least one cell per axis"
        );
        assert!(rect.area() > 0.0, "grid box must have positive volume");
        assert!(eps > 0.0, "eps must be positive, got {eps}");
        let cells = res
            .iter()
            .try_fold(1usize, |acc, &n| acc.checked_mul(n))
            // dpsd-allow(no-panic-in-lib): deliberate assert-with-message on a caller contract (grid resolution), kept as checked_mul so the failure is loud, not wrapped
            .expect("grid cell count overflows usize");
        let mut counts = vec![0.0f64; cells];
        for p in points {
            if !rect.contains(*p) {
                continue;
            }
            let mut idx = 0usize;
            let mut stride = 1usize;
            for (k, &n) in res.iter().enumerate() {
                let w = rect.side(k) / n as f64;
                let i = (((p.coords[k] - rect.min[k]) / w) as usize).min(n - 1);
                idx += i * stride;
                stride *= n;
            }
            counts[idx] += 1.0;
        }
        for c in counts.iter_mut() {
            *c = laplace_mechanism(rng, *c, 1.0, eps);
        }
        CellGridNd { rect, res, counts }
    }

    /// Grid resolution per axis.
    pub fn resolution(&self) -> [usize; D] {
        self.res
    }

    /// The gridded box.
    pub fn rect(&self) -> &Rect<D> {
        &self.rect
    }

    /// Noisy count of a region (cells prorated by overlap volume;
    /// negative cells clamped to zero).
    pub fn noisy_count_in(&self, region: &Rect<D>) -> f64 {
        let mut total = 0.0;
        self.for_masses(region, |_, mass| total += mass);
        total
    }

    /// Estimated median coordinate along `axis` of the data inside
    /// `region`, from the noisy marginal. Falls back to the region's
    /// midline when no mass remains.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= D`.
    pub fn median_along(&self, axis: usize, region: &Rect<D>) -> f64 {
        assert!(axis < D, "grid has axes 0..{D}, got {axis}");
        let (lo, hi) = region.extent(axis);
        // The marginal over only the region's span of cells along
        // `axis`, starting at the first cell visited: a read then costs
        // the region's cells rather than the whole axis (fig4's grid has
        // 2^16), and cells outside the span would add only zeros.
        let mut first = None;
        let mut marginal = Vec::new();
        self.for_masses(region, |idx, mass| {
            let i = idx[axis] - *first.get_or_insert(idx[axis]);
            if i >= marginal.len() {
                marginal.resize(i + 1, 0.0);
            }
            marginal[i] += mass;
        });
        let total: f64 = marginal.iter().sum();
        if total <= 0.0 {
            return lo + (hi - lo) / 2.0;
        }
        let first = first.unwrap_or_default();
        let axis_lo = self.rect.min[axis];
        let cell_w = self.rect.side(axis) / self.res[axis] as f64;
        let half = total / 2.0;
        let mut cum = 0.0;
        for (j, &m) in marginal.iter().enumerate() {
            if m > 0.0 && cum + m >= half {
                let i = first + j;
                let c_lo = (axis_lo + i as f64 * cell_w).max(lo);
                let c_hi = (axis_lo + (i + 1) as f64 * cell_w).min(hi);
                let frac = ((half - cum) / m).clamp(0.0, 1.0);
                return (c_lo + frac * (c_hi - c_lo)).clamp(lo, hi);
            }
            cum += m;
        }
        lo + (hi - lo) / 2.0
    }

    /// A uniformity score for `region` in `[0, inf)`: the mean absolute
    /// deviation of per-cell noisy masses from their mean, normalized by
    /// the mean. Xiao et al. \[26\] stop splitting nodes deemed uniform;
    /// the `kd-cell` builder treats scores below a threshold as uniform.
    /// Regions with no positive mass score 0 (nothing left to split).
    pub fn uniformity_score(&self, region: &Rect<D>) -> f64 {
        let mut masses = Vec::new();
        self.for_masses(region, |_, mass| masses.push(mass));
        if masses.is_empty() {
            return 0.0;
        }
        let mean = masses.iter().sum::<f64>() / masses.len() as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        let mad = masses.iter().map(|m| (m - mean).abs()).sum::<f64>() / masses.len() as f64;
        mad / mean
    }

    /// Visits every cell overlapping `region` with its prorated mass,
    /// the count clamped at zero and then multiplied by each overlap
    /// fraction in axis order, `(c · f_0) · f_1 · …`: the pinned
    /// `kd-cell` release bytes depend on this rounding order. A region
    /// of positive volume whose overlap with the box has zero `f64`
    /// volume visits nothing.
    fn for_masses(&self, region: &Rect<D>, mut f: impl FnMut(&[usize; D], f64)) {
        let overlap = self.rect.intersection(region);
        if region.area() > 0.0 && !overlap.is_some_and(|c| c.area() > 0.0) {
            return;
        }
        self.for_overlapping(region, |idx, count, fracs| {
            f(idx, fracs.iter().fold(count.max(0.0), |m, &fk| m * fk));
        });
    }

    /// Visits every cell `region` touches in odometer order (axis 0
    /// fastest) with its index, its raw noisy count (negative noise
    /// included) and, per axis, the share of the cell's extent that
    /// lies inside `region`. A region disjoint from the grid box visits
    /// nothing; where the overlap is flat on an axis, every visited
    /// cell's share on that axis is zero.
    pub fn for_overlapping<F: FnMut(&[usize; D], f64, &[f64; D])>(
        &self,
        region: &Rect<D>,
        mut f: F,
    ) {
        let Some(clip) = self.rect.intersection(region) else {
            return;
        };
        let width: [f64; D] = std::array::from_fn(|k| self.rect.side(k) / self.res[k] as f64);
        let cell_of =
            |k: usize, x: f64| (((x - self.rect.min[k]) / width[k]) as usize).min(self.res[k] - 1);
        // The share of cell `i`'s extent along axis `k` inside the clip.
        let overlap = |k: usize, i: usize| {
            let c_lo = self.rect.min[k] + i as f64 * width[k];
            ((clip.max[k].min(c_lo + width[k]) - clip.min[k].max(c_lo)) / width[k]).max(0.0)
        };
        let i0: [usize; D] = std::array::from_fn(|k| cell_of(k, clip.min[k]));
        let i1: [usize; D] = std::array::from_fn(|k| cell_of(k, clip.max[k]));
        let mut strides = [1usize; D];
        for k in 1..D {
            strides[k] = strides[k - 1] * self.res[k - 1];
        }
        // Odometer over the overlapped sub-box; an axis' fraction is
        // recomputed only when that axis' index moves.
        let mut idx = i0;
        let mut fracs: [f64; D] = std::array::from_fn(|k| overlap(k, i0[k]));
        loop {
            let linear: usize = (0..D).map(|k| idx[k] * strides[k]).sum();
            f(&idx, self.counts[linear], &fracs);
            let mut k = 0;
            loop {
                if k == D {
                    return;
                }
                idx[k] += 1;
                if idx[k] <= i1[k] {
                    fracs[k] = overlap(k, idx[k]);
                    break;
                }
                idx[k] = i0[k];
                fracs[k] = overlap(k, i0[k]);
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn grid2d_median_and_count() {
        let mut rng = seeded(44);
        let rect = Rect::new(0.0, 0.0, 100.0, 100.0).unwrap();
        let points: Vec<Point> = (0..40_000)
            .map(|i| Point::new((i % 200) as f64 / 2.0, ((i / 200) % 200) as f64 / 2.0))
            .collect();
        let grid = CellGridNd::<2>::build(&mut rng, &points, rect, [64, 64], 1.0);
        let mx = grid.median_along(0, &rect);
        let my = grid.median_along(1, &rect);
        assert!((mx - 50.0).abs() < 5.0, "x median {mx}");
        assert!((my - 50.0).abs() < 5.0, "y median {my}");
        let count = grid.noisy_count_in(&rect);
        assert!((count - 40_000.0).abs() < 2_000.0, "count {count}");
        // Quarter region holds about a quarter of the data.
        let q = Rect::new(0.0, 0.0, 50.0, 50.0).unwrap();
        let qc = grid.noisy_count_in(&q);
        assert!((qc - 10_000.0).abs() < 1_500.0, "quarter count {qc}");
    }

    #[test]
    fn grid2d_uniformity_score_separates_distributions() {
        let mut rng = seeded(45);
        let rect = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
        let uniform: Vec<Point> = (0..16_384)
            .map(|i| Point::new((i % 128) as f64 / 2.0, ((i / 128) % 128) as f64 / 2.0))
            .collect();
        let clustered: Vec<Point> = (0..16_384)
            .map(|i| Point::new(1.0 + (i % 7) as f64 * 0.1, 1.0 + (i % 5) as f64 * 0.1))
            .collect();
        let g_u = CellGridNd::<2>::build(&mut rng, &uniform, rect, [16, 16], 5.0);
        let g_c = CellGridNd::<2>::build(&mut rng, &clustered, rect, [16, 16], 5.0);
        let s_u = g_u.uniformity_score(&rect);
        let s_c = g_c.uniformity_score(&rect);
        assert!(
            s_u < s_c,
            "uniform {s_u} should score below clustered {s_c}"
        );
        assert!(s_u < 0.5, "uniform data scores low, got {s_u}");
        assert!(s_c > 1.0, "point mass scores high, got {s_c}");
    }

    #[test]
    fn grid2d_median_respects_subregion() {
        let mut rng = seeded(46);
        let rect = Rect::new(0.0, 0.0, 100.0, 100.0).unwrap();
        let points: Vec<Point> = (0..10_000)
            .map(|i| Point::new((i % 100) as f64, 50.0))
            .collect();
        let grid = CellGridNd::<2>::build(&mut rng, &points, rect, [50, 50], 2.0);
        let sub = Rect::new(0.0, 0.0, 40.0, 100.0).unwrap();
        let med = grid.median_along(0, &sub);
        assert!((0.0..=40.0).contains(&med), "median {med} inside subregion");
    }

    #[test]
    fn grid2d_disjoint_region_is_empty() {
        let mut rng = seeded(47);
        let rect = Rect::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let grid = CellGridNd::<2>::build(&mut rng, &[], rect, [4, 4], 1.0);
        let far = Rect::new(100.0, 100.0, 200.0, 200.0).unwrap();
        assert_eq!(grid.noisy_count_in(&far), 0.0);
        assert_eq!(grid.uniformity_score(&far), 0.0);
    }

    #[test]
    fn gridnd_matches_grid2d_semantics_in_the_plane() {
        // The planar read, written out: rows outer, columns inner, each
        // clamped count prorated as `(c · fx) · fy`. Counts, medians and
        // uniformity scores must agree with it to the bit.
        let rect = Rect::new(0.0, 0.0, 100.0, 100.0).unwrap();
        let points: Vec<Point> = (0..40_000)
            .map(|i| Point::new((i % 200) as f64 / 2.0, ((i / 200) % 200) as f64 / 2.0))
            .collect();
        let mut rng = seeded(48);
        let grid = CellGridNd::<2>::build(&mut rng, &points, rect, [32, 24], 0.5);
        assert_eq!(grid.resolution(), [32, 24]);
        assert_eq!(grid.rect(), &rect);
        let sub = Rect::new(10.3, 20.7, 70.1, 90.9).unwrap();
        let (wx, wy) = (100.0 / 32.0, 100.0 / 24.0);
        let frac =
            |lo: f64, hi: f64, c_lo: f64, w: f64| ((hi.min(c_lo + w) - lo.max(c_lo)) / w).max(0.0);
        let mut cells = Vec::new(); // (ix, mass) in visiting order
        for iy in (20.7 / wy) as usize..=(90.9 / wy) as usize {
            let fy = frac(20.7, 90.9, iy as f64 * wy, wy);
            for ix in (10.3 / wx) as usize..=(70.1 / wx) as usize {
                let fx = frac(10.3, 70.1, ix as f64 * wx, wx);
                cells.push((ix, grid.counts[iy * 32 + ix].max(0.0) * fx * fy));
            }
        }
        let masses: Vec<f64> = cells.iter().map(|&(_, m)| m).collect();
        let mut marginal_x = [0.0f64; 32];
        for &(ix, m) in &cells {
            marginal_x[ix] += m;
        }
        let total: f64 = masses.iter().sum();
        assert_eq!(grid.noisy_count_in(&sub).to_bits(), total.to_bits());
        let mean = total / masses.len() as f64;
        let mad = masses.iter().map(|m| (m - mean).abs()).sum::<f64>() / masses.len() as f64;
        assert_eq!(
            grid.uniformity_score(&sub).to_bits(),
            (mad / mean).to_bits()
        );
        let marginal_total: f64 = marginal_x.iter().sum();
        let (mut cum, half) = (0.0, marginal_total / 2.0);
        let mut expected = f64::NAN;
        for (i, &m) in marginal_x.iter().enumerate() {
            if m > 0.0 && cum + m >= half {
                let c_lo = (i as f64 * wx).max(10.3);
                let c_hi = ((i + 1) as f64 * wx).min(70.1);
                let f = ((half - cum) / m).clamp(0.0, 1.0);
                expected = (c_lo + f * (c_hi - c_lo)).clamp(10.3, 70.1);
                break;
            }
            cum += m;
        }
        assert_eq!(grid.median_along(0, &sub).to_bits(), expected.to_bits());
    }

    #[test]
    fn gridnd_median_and_count_in_three_dimensions() {
        let mut rng = seeded(50);
        let rect = Rect::from_corners([0.0; 3], [64.0; 3]).unwrap();
        let points: Vec<Point<3>> = (0..32_768)
            .map(|i| {
                Point::from_coords([
                    (i % 32) as f64 * 2.0 + 1.0,
                    (i / 32 % 32) as f64 * 2.0 + 1.0,
                    (i / 1024) as f64 * 2.0 + 1.0,
                ])
            })
            .collect();
        let grid = CellGridNd::<3>::build(&mut rng, &points, rect, [16, 16, 16], 2.0);
        let count = grid.noisy_count_in(&rect);
        assert!((count - 32_768.0).abs() < 3_000.0, "count {count}");
        for axis in 0..3 {
            let med = grid.median_along(axis, &rect);
            assert!((med - 32.0).abs() < 6.0, "axis {axis} median {med}");
        }
        // An octant holds about an eighth of the data.
        let oct = Rect::from_corners([0.0; 3], [32.0; 3]).unwrap();
        let oc = grid.noisy_count_in(&oct);
        assert!((oc - 4_096.0).abs() < 1_500.0, "octant count {oc}");
    }

    #[test]
    fn gridnd_uniformity_separates_distributions_in_3d() {
        let mut rng = seeded(51);
        let rect = Rect::from_corners([0.0; 3], [32.0; 3]).unwrap();
        let uniform: Vec<Point<3>> = (0..8_000)
            .map(|i| {
                Point::from_coords([
                    (i % 20) as f64 * 1.6 + 0.5,
                    (i / 20 % 20) as f64 * 1.6 + 0.5,
                    (i / 400) as f64 * 1.6 + 0.5,
                ])
            })
            .collect();
        let clustered: Vec<Point<3>> = (0..8_000)
            .map(|i| Point::from_coords([1.0 + (i % 5) as f64 * 0.1, 1.5, 2.0]))
            .collect();
        let g_u = CellGridNd::<3>::build(&mut rng, &uniform, rect, [8, 8, 8], 5.0);
        let g_c = CellGridNd::<3>::build(&mut rng, &clustered, rect, [8, 8, 8], 5.0);
        let s_u = g_u.uniformity_score(&rect);
        let s_c = g_c.uniformity_score(&rect);
        assert!(
            s_u < s_c,
            "uniform {s_u} should score below clustered {s_c}"
        );
        assert!(s_c > 1.0, "point mass scores high, got {s_c}");
    }

    #[test]
    fn gridnd_empty_and_disjoint_regions() {
        let mut rng = seeded(52);
        let rect = Rect::from_corners([0.0; 3], [10.0; 3]).unwrap();
        let grid = CellGridNd::<3>::build(&mut rng, &[], rect, [4, 4, 4], 1.0);
        let far = Rect::from_corners([100.0; 3], [200.0; 3]).unwrap();
        assert_eq!(grid.noisy_count_in(&far), 0.0);
        assert_eq!(grid.uniformity_score(&far), 0.0);
        assert_eq!(grid.median_along(0, &far), 150.0, "midline fallback");
    }

    #[test]
    fn gridnd_works_in_one_dimension() {
        let mut rng = seeded(53);
        let rect = Rect::from_corners([0.0], [1000.0]).unwrap();
        let points: Vec<Point<1>> = (0..100_000)
            .map(|i| Point::from_coords([(i as f64) / 100.0]))
            .collect();
        let grid = CellGridNd::<1>::build(&mut rng, &points, rect, [256], 1.0);
        let med = grid.median_along(0, &rect);
        assert!((med - 500.0).abs() < 20.0, "median {med}");
        // A subrange starting past the first cell reads its own median.
        let right = Rect::from_corners([500.0], [1000.0]).unwrap();
        let med = grid.median_along(0, &right);
        assert!((med - 750.0).abs() < 20.0, "right median {med}");
        // A zero-width range returns its own coordinate.
        let point = Rect::from_corners([40.0], [40.0]).unwrap();
        assert_eq!(grid.median_along(0, &point), 40.0);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn gridnd_zero_resolution_rejected() {
        let mut rng = seeded(0);
        let rect = Rect::from_corners([0.0; 3], [1.0; 3]).unwrap();
        let _ = CellGridNd::<3>::build(&mut rng, &[], rect, [4, 0, 4], 1.0);
    }
}
