//! Property-based tests for the d-dimensional curve module: the
//! encode/decode bijection, index bounds, and — for the Hilbert kind —
//! the locality property (consecutive indices are Manhattan-distance-1
//! neighbors), across curve orders in `D ∈ {2, 3}`.

use dpsd_hilbert::{max_order_for_dims, CurveKind, HilbertCurve, NdBBox, NdCurve};
use proptest::prelude::*;

fn coords_mod<const D: usize>(curve: &NdCurve<D>, raw: [u64; D]) -> [u64; D] {
    let mut c = raw;
    for v in c.iter_mut() {
        *v %= curve.side();
    }
    c
}

proptest! {
    /// decode ∘ encode is the identity on cells and indices stay in
    /// `[0, 2^{orderD})`, for both curve kinds, in 2 and 3 dimensions.
    #[test]
    fn encode_decode_bijection_2d(
        order in 1u32..=31,
        zorder in 0u32..2,
        raw in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let kind = if zorder == 1 { CurveKind::ZOrder } else { CurveKind::Hilbert };
        let curve = NdCurve::<2>::new(kind, order).unwrap();
        let c = coords_mod(&curve, [raw.0, raw.1]);
        let h = curve.encode(c);
        prop_assert!(h <= curve.max_index(), "index out of bounds");
        prop_assert_eq!(curve.decode(h), c);
    }

    #[test]
    fn encode_decode_bijection_3d(
        order in 1u32..=20,
        zorder in 0u32..2,
        raw in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let kind = if zorder == 1 { CurveKind::ZOrder } else { CurveKind::Hilbert };
        let curve = NdCurve::<3>::new(kind, order).unwrap();
        let c = coords_mod(&curve, [raw.0, raw.1, raw.2]);
        let h = curve.encode(c);
        prop_assert!(h <= curve.max_index(), "index out of bounds");
        prop_assert_eq!(curve.decode(h), c);
    }

    /// encode ∘ decode is the identity on indices.
    #[test]
    fn decode_encode_bijection_3d(order in 1u32..=20, raw in 0u64..u64::MAX) {
        let curve = NdCurve::<3>::hilbert(order).unwrap();
        let h = raw % curve.cell_count();
        let c = curve.decode(h);
        for &v in c.iter() {
            prop_assert!(v < curve.side(), "coordinate out of grid");
        }
        prop_assert_eq!(curve.encode(c), h);
    }

    /// Hilbert locality: consecutive indices decode to cells at
    /// Manhattan distance exactly 1, at every order, in 2-D and 3-D.
    #[test]
    fn consecutive_hilbert_indices_adjacent_2d(order in 1u32..=31, raw in 0u64..u64::MAX) {
        let curve = NdCurve::<2>::hilbert(order).unwrap();
        let h = raw % curve.max_index();
        let a = curve.decode(h);
        let b = curve.decode(h + 1);
        let dist: u64 = (0..2).map(|k| a[k].abs_diff(b[k])).sum();
        prop_assert_eq!(dist, 1, "step {} at order {}", h, order);
    }

    #[test]
    fn consecutive_hilbert_indices_adjacent_3d(order in 1u32..=20, raw in 0u64..u64::MAX) {
        let curve = NdCurve::<3>::hilbert(order).unwrap();
        let h = raw % curve.max_index();
        let a = curve.decode(h);
        let b = curve.decode(h + 1);
        let dist: u64 = (0..3).map(|k| a[k].abs_diff(b[k])).sum();
        prop_assert_eq!(dist, 1, "step {} at order {}", h, order);
    }

    /// The 2-D `NdCurve` instantiation is the planar `HilbertCurve`:
    /// every cell gets the same index, and every index range the same
    /// bounding box. The Hilbert R-tree builds on `NdCurve` alone and
    /// relies on this for its planar output.
    #[test]
    fn nd_curve_shares_index_space_with_planar(
        order in 1u32..=16,
        raw in (0u64..u64::MAX, 0u64..u64::MAX),
        range in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let planar = HilbertCurve::new(order).unwrap();
        let nd = NdCurve::<2>::hilbert(order).unwrap();
        prop_assert_eq!(planar.cell_count(), nd.cell_count());
        let c = coords_mod(&nd, [raw.0, raw.1]);
        prop_assert_eq!(nd.encode(c), planar.encode(c[0] as u32, c[1] as u32));
        let a = range.0 % nd.cell_count();
        let b = range.1 % nd.cell_count();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let bp = planar.range_bbox(lo, hi);
        let bn = nd.range_bbox(lo, hi);
        prop_assert_eq!(
            (bn.min, bn.max),
            ([bp.min_x as u64, bp.min_y as u64], [bp.max_x as u64, bp.max_y as u64])
        );
    }

    /// `range_bbox` contains every sampled cell of the range and is
    /// monotone under range widening, for both kinds in 3-D.
    #[test]
    fn range_bbox_contains_and_monotone_3d(
        order in 1u32..=16,
        zorder in 0u32..2,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        let kind = if zorder == 1 { CurveKind::ZOrder } else { CurveKind::Hilbert };
        let curve = NdCurve::<3>::new(kind, order).unwrap();
        let a = a % curve.cell_count();
        let b = b % curve.cell_count();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let bbox = curve.range_bbox(lo, hi);
        for h in [lo, hi, lo + (hi - lo) / 2] {
            let c = curve.decode(h);
            prop_assert!(bbox.contains_cell(&c), "index {} outside {:?}", h, bbox);
        }
        let outer = curve.range_bbox(lo.saturating_sub(1), (hi + 1).min(curve.max_index()));
        for k in 0..3 {
            prop_assert!(outer.min[k] <= bbox.min[k] && outer.max[k] >= bbox.max[k]);
        }
    }

    /// Small-order 3-D bbox matches the brute-force union of all cells.
    #[test]
    fn range_bbox_matches_brute_force_3d(
        order in 1u32..=3,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
    ) {
        let curve = NdCurve::<3>::hilbert(order).unwrap();
        let a = a % curve.cell_count();
        let b = b % curve.cell_count();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut brute = NdBBox::cell(curve.decode(lo));
        for h in lo..=hi {
            brute.union_with(&NdBBox::cell(curve.decode(h)));
        }
        prop_assert_eq!(curve.range_bbox(lo, hi), brute);
    }

    /// Order capacity is exact in every dimension: the boundary order
    /// builds, one past it is the typed overflow error.
    #[test]
    fn order_capacity_boundary(dims in 1usize..=8) {
        let max = max_order_for_dims(dims);
        fn probe<const D: usize>(order: u32) -> bool {
            NdCurve::<D>::hilbert(order).is_ok()
        }
        let at = match dims {
            1 => probe::<1>(max), 2 => probe::<2>(max), 3 => probe::<3>(max),
            4 => probe::<4>(max), 5 => probe::<5>(max), 6 => probe::<6>(max),
            7 => probe::<7>(max), _ => probe::<8>(max),
        };
        let past = match dims {
            1 => probe::<1>(max + 1), 2 => probe::<2>(max + 1), 3 => probe::<3>(max + 1),
            4 => probe::<4>(max + 1), 5 => probe::<5>(max + 1), 6 => probe::<6>(max + 1),
            7 => probe::<7>(max + 1), _ => probe::<8>(max + 1),
        };
        prop_assert!(at, "order {} should build at D={}", max, dims);
        prop_assert!(!past, "order {} should overflow at D={}", max + 1, dims);
        prop_assert!(max as u64 * dims as u64 <= 62);
        prop_assert!((max as u64 + 1) * dims as u64 > 62);
    }
}
