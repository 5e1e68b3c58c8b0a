//! The cell-based kd-tree of Xiao, Xiong, and Yuan \[26\]
//! (paper Sections 2, 6.1, 8.2 — `kd-cell`).
//!
//! A fixed-resolution grid is materialized over the domain and its cell
//! counts released with Laplace noise, consuming the structure share of
//! the budget in one shot (cell counts have sensitivity 1, and the grid
//! is released once, so the spend composes once per path). The tree is
//! then derived *entirely from the noisy grid*: each node splits at the
//! median of the grid marginal within its rectangle — unless the grid
//! deems the region uniform, in which case the split degenerates to the
//! midpoint (splitting uniform regions more cleverly has nothing to
//! gain, mirroring \[26\]'s "split nodes which are not considered
//! uniform"). Exact node counts are tallied from the data afterwards and
//! perturbed by the count stage like every other family.

use super::build::{partition_in_place, BuildError, PsdConfig, TreeKind};
use crate::geometry::{Point, Rect};
use crate::median::CellGridNd;
use rand::rngs::StdRng;

/// Uniformity-score threshold below which a region is considered uniform
/// and split at its midpoint (see [`CellGridNd::uniformity_score`]).
const UNIFORMITY_THRESHOLD: f64 = 0.4;

/// Builds boxes and exact counts for a `kd-cell` tree in any dimension.
///
/// The split grid is a [`CellGridNd`] at the resolution given by
/// [`PsdConfig::grid_resolution_nd`]; each flattened node performs one
/// split per axis in sequence, reading the axis marginal's median off
/// the noisy grid — unless the region scores uniform, in which case the
/// split degenerates to the midpoint.
pub(crate) fn build_structure_nd<const D: usize>(
    config: &PsdConfig<D>,
    eps_grid: f64,
    points: &[Point<D>],
    rects: &mut [Rect<D>],
    true_counts: &mut [f64],
    rng: &mut StdRng,
) -> Result<(), BuildError> {
    debug_assert_eq!(config.kind, TreeKind::KdCell);
    if !eps_grid.is_finite() || eps_grid <= 0.0 {
        return Err(BuildError::InvalidEpsilon(eps_grid));
    }
    let grid = CellGridNd::build(
        rng,
        points,
        config.domain,
        config.grid_resolution_nd(),
        eps_grid,
    );

    let mut buf: Vec<Point<D>> = points.to_vec();

    #[allow(clippy::too_many_arguments)]
    fn recurse<const D: usize>(
        config: &PsdConfig<D>,
        grid: &CellGridNd<D>,
        v: usize,
        depth: usize,
        rect: Rect<D>,
        pts: &mut [Point<D>],
        rects: &mut [Rect<D>],
        true_counts: &mut [f64],
    ) {
        rects[v] = rect;
        true_counts[v] = pts.len() as f64;
        if depth == config.height {
            return;
        }
        // One uniformity verdict per node governs the axis-0 split;
        // deeper stages re-test each piece.
        let uniform = grid.uniformity_score(&rect) < UNIFORMITY_THRESHOLD;
        let mut pieces: Vec<(Rect<D>, usize, usize)> = vec![(rect, 0, pts.len())];
        for axis in 0..D {
            let mut next = Vec::with_capacity(pieces.len() * 2);
            for &(r, start, len) in pieces.iter() {
                let split = if axis == 0 {
                    if uniform {
                        r.midpoint(0)
                    } else {
                        grid.median_along(0, &r)
                    }
                } else if uniform || grid.uniformity_score(&r) < UNIFORMITY_THRESHOLD {
                    r.midpoint(axis)
                } else {
                    grid.median_along(axis, &r)
                };
                let (r_lo, r_hi) = r.split_at(axis, split);
                let boundary = r_lo.max[axis];
                let slice = &mut pts[start..start + len];
                let mid = partition_in_place(slice, |p| p.coords[axis] < boundary);
                next.push((r_lo, start, mid));
                next.push((r_hi, start + mid, len - mid));
            }
            pieces = next;
        }
        let first_child = (1usize << D) * v + 1;
        for (j, &(child_rect, start, len)) in pieces.iter().enumerate() {
            recurse(
                config,
                grid,
                first_child + j,
                depth + 1,
                child_rect,
                &mut pts[start..start + len],
                rects,
                true_counts,
            );
        }
    }

    recurse(
        config,
        &grid,
        0,
        0,
        config.domain,
        &mut buf,
        rects,
        true_counts,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetSplit;
    use crate::tree::PsdConfig;

    fn domain() -> Rect {
        Rect::new(0.0, 0.0, 128.0, 128.0).unwrap()
    }

    fn skewed_points() -> Vec<Point> {
        // Dense cluster bottom-left, sparse elsewhere.
        let mut pts = Vec::new();
        for i in 0..4000 {
            pts.push(Point::new((i % 64) as f64 * 0.25, (i / 64) as f64 * 0.25));
        }
        for i in 0..400 {
            pts.push(Point::new(
                64.0 + (i % 20) as f64 * 3.0,
                64.0 + (i / 20) as f64 * 3.0,
            ));
        }
        pts
    }

    #[test]
    fn structure_invariants() {
        let pts = skewed_points();
        let tree = PsdConfig::kd_cell(domain(), 4, 1.0, (64, 64))
            .with_seed(21)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.true_count(0), pts.len() as f64);
        for v in tree.node_ids() {
            let children: Vec<usize> = tree.children(v).collect();
            if children.is_empty() {
                continue;
            }
            let sum: f64 = children.iter().map(|&c| tree.true_count(c)).sum();
            assert_eq!(sum, tree.true_count(v));
            for &c in &children {
                assert!(tree.rect(c).inside(&tree.rect(v)));
            }
        }
    }

    #[test]
    fn splits_adapt_to_skew() {
        // With a strong bottom-left cluster and a decent grid budget, the
        // root x-split should land well left of the midpoint.
        let pts = skewed_points();
        let tree = PsdConfig::kd_cell(domain(), 2, 4.0, (64, 64))
            .with_seed(22)
            .build(&pts)
            .unwrap();
        let left_child = tree.rect(1);
        assert!(
            left_child.max_x() < 64.0,
            "root split at {} did not adapt to the cluster",
            left_child.max_x()
        );
    }

    #[test]
    fn grid_budget_must_be_positive() {
        let pts = skewed_points();
        let err = PsdConfig::kd_cell(domain(), 2, 1.0, (32, 32))
            .with_split(BudgetSplit::all_counts())
            .build(&pts)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::DpsdError::Build(BuildError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn three_d_structure_invariants() {
        let domain = Rect::from_corners([0.0; 3], [64.0; 3]).unwrap();
        let mut pts = Vec::new();
        for i in 0..6000 {
            pts.push(Point::from_coords([
                (i % 40) as f64 * 0.3,
                (i / 40 % 40) as f64 * 0.3,
                (i / 1600) as f64 * 2.0,
            ]));
        }
        let tree = PsdConfig::<3>::kd_cell(domain, 2, 1.0, (16, 16))
            .with_seed(31)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.fanout(), 8);
        assert_eq!(tree.true_count(0), pts.len() as f64);
        for v in tree.node_ids() {
            let children: Vec<usize> = tree.children(v).collect();
            if children.is_empty() {
                continue;
            }
            let sum: f64 = children.iter().map(|&c| tree.true_count(c)).sum();
            assert_eq!(sum, tree.true_count(v), "node {v}");
            for &c in &children {
                assert!(tree.rect(c).inside(&tree.rect(v)));
            }
        }
    }

    #[test]
    fn three_d_splits_adapt_to_skew() {
        // All mass in the low-x half: a grid-informed split lands left
        // of the midpoint along axis 0.
        let domain = Rect::from_corners([0.0; 3], [64.0; 3]).unwrap();
        let mut pts = Vec::new();
        for i in 0..8000 {
            pts.push(Point::from_coords([
                (i % 16) as f64 * 0.5,
                (i / 16 % 40) as f64 * 1.5,
                (i / 640) as f64 * 4.0,
            ]));
        }
        let tree = PsdConfig::<3>::kd_cell(domain, 1, 8.0, (16, 16))
            .with_seed(32)
            .build(&pts)
            .unwrap();
        let low_child = tree.rect(1);
        assert!(
            low_child.max[0] < 24.0,
            "axis-0 split at {} did not adapt to the cluster",
            low_child.max[0]
        );
    }

    #[test]
    fn one_d_grid_tree_builds() {
        let domain = Rect::from_corners([0.0], [128.0]).unwrap();
        let pts: Vec<Point<1>> = (0..2000)
            .map(|i| Point::from_coords([(i % 256) as f64 * 0.25]))
            .collect();
        let tree = PsdConfig::<1>::kd_cell(domain, 3, 1.0, (64, 1))
            .with_seed(33)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.fanout(), 2);
        assert_eq!(tree.true_count(0), pts.len() as f64);
    }

    #[test]
    fn uniform_data_degenerates_to_quadtree_splits() {
        // Perfectly uniform data should trip the uniformity threshold at
        // the root and split at the midpoint.
        let mut pts = Vec::new();
        for i in 0..128 {
            for j in 0..128 {
                pts.push(Point::new(i as f64 + 0.5, j as f64 + 0.5));
            }
        }
        let tree = PsdConfig::kd_cell(domain(), 1, 8.0, (16, 16))
            .with_seed(23)
            .build(&pts)
            .unwrap();
        let left = tree.rect(1);
        assert!(
            (left.max_x() - 64.0).abs() < 8.0,
            "uniform split at {} far from midpoint",
            left.max_x()
        );
    }
}
