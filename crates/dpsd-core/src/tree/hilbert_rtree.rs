//! Private Hilbert R-tree structure (paper Sections 3.2-3.3).
//!
//! Points are mapped to their indices on a space-filling curve over the
//! domain (order 18 by default, Section 8.2); a one-dimensional private
//! decomposition — a binary kd-tree over index values, flattened to
//! fanout `2^D` like every other family — is built with the configured
//! median mechanism; and each node's rectangle is the bounding box of
//! its *index range*, computed by [`dpsd_hilbert::NdCurve::range_bbox`].
//! Because the bounding box is a function of the (privately chosen) range
//! endpoints only, releasing the rectangles costs no extra budget.
//!
//! Unlike the axis-splitting families, sibling rectangles may overlap
//! and need not tile the parent (R-tree semantics); the canonical query
//! method still applies because each node's *points* are exactly those
//! with indices in its range, and they all lie inside its rectangle.

use super::build::{BuildError, PsdConfig, TreeKind};
use crate::geometry::{Point, Rect};
use crate::median::MedianSelector;
use dpsd_hilbert::NdCurve;
use rand::rngs::StdRng;

/// Selects a private split index inside `[lo, hi)` from the sorted
/// curve indices of one node (index values stay exact in `f64` because
/// build validation caps `order * D` at 52 bits).
fn split_index(
    selector: &MedianSelector,
    rng: &mut StdRng,
    sorted: &[f64],
    lo: u64,
    hi: u64,
    eps: f64,
) -> u64 {
    if hi <= lo + 1 {
        return hi; // nothing to split: low child takes the whole range
    }
    let picked = selector.select(
        rng,
        sorted,
        lo as f64,
        (hi - 1) as f64,
        eps.max(f64::MIN_POSITIVE),
    );
    (picked.round() as u64).clamp(lo + 1, hi - 1)
}

/// Builds boxes and exact counts for a Hilbert R-tree (or its Z-order
/// variant) in any dimension: points map to indices on an [`NdCurve`]
/// of the configured [`PsdConfig::curve`] kind, a fanout-`2^D`
/// decomposition is built over index values by `D` rounds of private
/// binary range splits (the level's median budget divided evenly over
/// the rounds, mirroring the axis-sequential pipeline), and each node's
/// box is the exact bounding box of its index range.
///
/// Only bottom-level nodes and empty ranges call
/// [`NdCurve::range_bbox`]; every other node takes the union of its
/// non-empty children's boxes. That union is exact: the children's
/// ranges partition the node's range, and the cell-to-coordinate map
/// is monotone, so it yields the very bits `range_bbox` would.
pub(crate) fn build_structure_nd<const D: usize>(
    config: &PsdConfig<D>,
    eps_median: &[f64],
    points: &[Point<D>],
    rects: &mut [Rect<D>],
    true_counts: &mut [f64],
    rng: &mut StdRng,
) -> Result<(), BuildError> {
    debug_assert_eq!(config.kind, TreeKind::HilbertR);
    let curve = NdCurve::<D>::new(config.curve, config.hilbert_order)
        .map_err(|_| BuildError::InvalidHilbertOrder(config.hilbert_order))?;
    let domain = config.domain;
    let side = curve.side() as f64;
    let mut w = [0.0f64; D];
    for (k, wk) in w.iter_mut().enumerate() {
        *wk = domain.side(k) / side;
    }

    // Curve indices as exact f64s, sorted once: every node's index
    // range is then one sorted slice, split without moving anything.
    let mut indices: Vec<f64> = points
        .iter()
        .map(|p| {
            let mut cell = [0u64; D];
            for k in 0..D {
                cell[k] = (((p.coords[k] - domain.min[k]) / w[k]) as u64).min(curve.side() - 1);
            }
            curve.encode(cell) as f64
        })
        .collect();
    indices.sort_unstable_by(f64::total_cmp);

    let range_rect = |lo: u64, hi: u64| -> Rect<D> {
        if hi > lo {
            let bbox = curve.range_bbox(lo, hi - 1);
            let mut min = [0.0f64; D];
            let mut max = [0.0f64; D];
            for k in 0..D {
                min[k] = domain.min[k] + bbox.min[k] as f64 * w[k];
                max[k] = domain.min[k] + (bbox.max[k] as f64 + 1.0) * w[k];
            }
            Rect { min, max }
        } else {
            // Empty index range: a zero-volume box at the range position
            // keeps geometry well-defined; such nodes hold no points and
            // contribute only their (near-zero) noise.
            let cell = curve.decode(lo.min(curve.max_index()));
            let mut min = [0.0f64; D];
            for k in 0..D {
                min[k] = domain.min[k] + cell[k] as f64 * w[k];
            }
            Rect { min, max: min }
        }
    };

    #[allow(clippy::too_many_arguments)]
    fn recurse<const D: usize>(
        config: &PsdConfig<D>,
        eps_median: &[f64],
        rng: &mut StdRng,
        v: usize,
        depth: usize,
        lo: u64,
        hi: u64,
        idx: &[f64],
        rects: &mut [Rect<D>],
        true_counts: &mut [f64],
        range_rect: &dyn Fn(u64, u64) -> Rect<D>,
    ) {
        true_counts[v] = idx.len() as f64;
        if depth == config.height {
            rects[v] = range_rect(lo, hi);
            return;
        }
        let level = config.height - depth;
        let eps_stage = eps_median[level] / D as f64;
        // D rounds of binary range splits yield the node's 2^D children
        // ((range, slice-offset, slice-length) pieces; the indices below
        // a split are a prefix of the sorted slice).
        let mut pieces: Vec<(u64, u64, usize, usize)> = vec![(lo, hi, 0, idx.len())];
        for _stage in 0..D {
            let mut next = Vec::with_capacity(pieces.len() * 2);
            for &(r_lo, r_hi, start, len) in pieces.iter() {
                let slice = &idx[start..start + len];
                let s = split_index(&config.median, rng, slice, r_lo, r_hi, eps_stage);
                let mid = slice.partition_point(|&i| i < s as f64);
                next.push((r_lo, s, start, mid));
                next.push((s, r_hi, start + mid, len - mid));
            }
            pieces = next;
        }
        let first_child = (1usize << D) * v + 1;
        for (j, &(r_lo, r_hi, start, len)) in pieces.iter().enumerate() {
            recurse(
                config,
                eps_median,
                rng,
                first_child + j,
                depth + 1,
                r_lo,
                r_hi,
                &idx[start..start + len],
                rects,
                true_counts,
                range_rect,
            );
        }
        rects[v] = pieces
            .iter()
            .enumerate()
            .filter(|&(_, &(r_lo, r_hi, _, _))| r_hi > r_lo)
            .map(|(j, _)| rects[first_child + j])
            .reduce(|mut b, c| {
                for k in 0..D {
                    b.min[k] = b.min[k].min(c.min[k]);
                    b.max[k] = b.max[k].max(c.max[k]);
                }
                b
            })
            .unwrap_or_else(|| range_rect(lo, hi));
    }

    recurse(
        config,
        eps_median,
        rng,
        0,
        0,
        0,
        curve.cell_count(),
        &indices,
        rects,
        true_counts,
        &range_rect,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PsdConfig;

    fn domain() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 50.0).unwrap()
    }

    fn clustered_points() -> Vec<Point> {
        // Two clusters plus a sparse diagonal.
        let mut pts = Vec::new();
        for i in 0..400 {
            pts.push(Point::new(
                10.0 + (i % 20) as f64 * 0.2,
                10.0 + (i / 20) as f64 * 0.2,
            ));
            pts.push(Point::new(
                80.0 + (i % 20) as f64 * 0.2,
                40.0 + (i / 20) as f64 * 0.2,
            ));
        }
        for i in 0..100 {
            pts.push(Point::new(i as f64, i as f64 / 2.0));
        }
        pts
    }

    #[test]
    fn root_covers_domain_and_counts_everything() {
        let pts = clustered_points();
        let tree = PsdConfig::hilbert_r(domain(), 3, 1.0)
            .with_hilbert_order(10)
            .with_seed(9)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.true_count(0), pts.len() as f64);
        // Root bbox covers the whole grid = whole domain.
        assert_eq!(tree.rect(0), domain());
    }

    #[test]
    fn children_counts_partition_parent() {
        let pts = clustered_points();
        let tree = PsdConfig::hilbert_r(domain(), 3, 1.0)
            .with_hilbert_order(12)
            .with_seed(10)
            .build(&pts)
            .unwrap();
        for v in tree.node_ids() {
            let children: Vec<usize> = tree.children(v).collect();
            if children.is_empty() {
                continue;
            }
            let sum: f64 = children.iter().map(|&c| tree.true_count(c)).sum();
            assert_eq!(sum, tree.true_count(v), "node {v}");
        }
    }

    #[test]
    fn child_rects_stay_inside_parent_bbox() {
        // Subrange bounding boxes are contained in the range's bbox.
        let pts = clustered_points();
        let tree = PsdConfig::hilbert_r(domain(), 2, 1.0)
            .with_hilbert_order(8)
            .with_seed(11)
            .build(&pts)
            .unwrap();
        for v in tree.node_ids() {
            for c in tree.children(v) {
                if tree.rect(c).area() == 0.0 {
                    continue; // empty-range sentinel rect
                }
                assert!(
                    tree.rect(c).inside(&tree.rect(v)),
                    "child {c} {:?} escapes parent {v} {:?}",
                    tree.rect(c),
                    tree.rect(v)
                );
            }
        }
    }

    #[test]
    fn degenerate_tiny_order_still_builds() {
        let pts = clustered_points();
        // Order 1: a 2x2 grid, 4 curve cells, deep tree forces empty
        // ranges and exercises the clamping paths.
        let tree = PsdConfig::hilbert_r(domain(), 3, 1.0)
            .with_hilbert_order(1)
            .with_seed(12)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.true_count(0), pts.len() as f64);
    }

    fn clustered_points_3d() -> Vec<Point<3>> {
        let mut pts = Vec::new();
        for i in 0..500 {
            pts.push(Point::from_coords([
                10.0 + (i % 10) as f64 * 0.2,
                10.0 + (i / 10 % 10) as f64 * 0.2,
                5.0 + (i / 100) as f64 * 0.2,
            ]));
            pts.push(Point::from_coords([
                80.0 + (i % 10) as f64 * 0.2,
                40.0 + (i / 10 % 10) as f64 * 0.2,
                20.0 + (i / 100) as f64 * 0.2,
            ]));
        }
        pts
    }

    #[test]
    fn three_d_root_covers_domain_and_counts_partition() {
        let domain = Rect::from_corners([0.0; 3], [100.0, 50.0, 25.0]).unwrap();
        let pts = clustered_points_3d();
        let tree = PsdConfig::<3>::hilbert_r(domain, 2, 1.0)
            .with_hilbert_order(6)
            .with_seed(14)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.fanout(), 8);
        assert_eq!(tree.true_count(0), pts.len() as f64);
        assert_eq!(tree.rect(0), domain, "root bbox covers the whole grid");
        for v in tree.node_ids() {
            let children: Vec<usize> = tree.children(v).collect();
            if children.is_empty() {
                continue;
            }
            let sum: f64 = children.iter().map(|&c| tree.true_count(c)).sum();
            assert_eq!(sum, tree.true_count(v), "node {v}");
        }
    }

    #[test]
    fn z_order_variant_builds_in_two_and_four_dimensions() {
        let pts = clustered_points();
        let tree = PsdConfig::hilbert_r(domain(), 3, 1.0)
            .with_curve(dpsd_hilbert::CurveKind::ZOrder)
            .with_hilbert_order(10)
            .with_seed(15)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.true_count(0), pts.len() as f64);
        assert_eq!(tree.rect(0), domain());

        let domain4 = Rect::from_corners([0.0; 4], [16.0; 4]).unwrap();
        let pts4: Vec<Point<4>> = (0..800)
            .map(|i| {
                Point::from_coords([
                    (i % 8) as f64,
                    (i / 8 % 8) as f64,
                    (i / 64 % 8) as f64,
                    (i / 512) as f64,
                ])
            })
            .collect();
        for curve in [
            dpsd_hilbert::CurveKind::Hilbert,
            dpsd_hilbert::CurveKind::ZOrder,
        ] {
            let tree = PsdConfig::<4>::hilbert_r(domain4, 2, 1.0)
                .with_curve(curve)
                .with_hilbert_order(4)
                .with_seed(16)
                .build(&pts4)
                .unwrap();
            assert_eq!(tree.fanout(), 16);
            assert_eq!(tree.true_count(0), pts4.len() as f64);
            assert_eq!(tree.rect(0), domain4);
        }
    }

    #[test]
    fn one_dimensional_hilbert_tree_is_an_interval_tree() {
        let domain = Rect::from_corners([0.0], [256.0]).unwrap();
        let pts: Vec<Point<1>> = (0..1000)
            .map(|i| Point::from_coords([(i % 250) as f64]))
            .collect();
        let tree = PsdConfig::<1>::hilbert_r(domain, 4, 1.0)
            .with_hilbert_order(8)
            .with_seed(17)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.fanout(), 2);
        assert_eq!(tree.true_count(0), pts.len() as f64);
        // In 1-D the curve is the identity, so children are intervals
        // nested inside the parent.
        for v in tree.node_ids() {
            for c in tree.children(v) {
                if tree.rect(c).area() == 0.0 {
                    continue;
                }
                assert!(tree.rect(c).inside(&tree.rect(v)), "child {c} escapes {v}");
            }
        }
    }

    #[test]
    fn compact_clusters_get_compact_boxes() {
        // With strongly clustered data and exact medians, deep nodes
        // should have small bounding boxes (Hilbert locality).
        let mut pts = Vec::new();
        for i in 0..1000 {
            pts.push(Point::new(
                20.0 + (i % 10) as f64 * 0.01,
                20.0 + (i / 10) as f64 * 0.01,
            ));
        }
        let tree = PsdConfig::hilbert_r(Rect::new(0.0, 0.0, 100.0, 100.0).unwrap(), 3, 1.0)
            .with_hilbert_order(12)
            .with_median(crate::median::MedianSelector::plain(
                crate::median::MedianConfig::Exact,
            ))
            .with_seed(13)
            .build(&pts)
            .unwrap();
        // Find the leaf holding the cluster centre and check its box is
        // far smaller than the domain.
        let mut v = 0usize;
        while !tree.is_effective_leaf(v) {
            v = tree
                .children(v)
                .max_by(|&a, &b| tree.true_count(a).total_cmp(&tree.true_count(b)))
                .unwrap();
        }
        assert!(tree.true_count(v) > 0.0);
        assert!(
            tree.rect(v).area() < 100.0,
            "leaf bbox area {} not compact",
            tree.rect(v).area()
        );
    }
}
