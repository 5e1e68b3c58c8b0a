//! Space-filling curves in any dimension.
//!
//! [`NdCurve`] generalizes the planar [`crate::HilbertCurve`] to `D`
//! dimensions. Two curve families are provided, selected by
//! [`CurveKind`]:
//!
//! * **Hilbert** — compact Hilbert indices computed with the
//!   Gray-code/rotation scheme (Hamilton, *Compact Hilbert Indices*;
//!   the bit-transpose formulation of Skilling). Consecutive indices
//!   are always Manhattan-distance-1 neighbors, the locality property
//!   the Hilbert R-tree relies on.
//! * **Z-order** — plain Morton bit interleaving. No adjacency
//!   guarantee, but the same hierarchical self-similarity, so range
//!   bounding boxes decompose identically. Useful as a cheaper
//!   fallback and as a locality ablation.
//!
//! Both curves of order `m` fill a `2^m`-per-axis grid with
//! `2^{mD}` cells, and both are *hierarchical*: every aligned index
//! block `[a · 2^{kD}, (a+1) · 2^{kD})` covers exactly one axis-aligned
//! cube of side `2^k`, which is what lets [`NdCurve::range_bbox`]
//! decompose an index range into `O(m)` cubes instead of enumerating
//! cells.
//!
//! # Index capacity
//!
//! Indices are `u64`, so a curve is only constructible when
//! `order * D <= `[`MAX_INDEX_BITS`]` = 62`; anything larger is rejected
//! with [`HilbertError::InvalidOrderForDims`] instead of silently
//! overflowing. (At `D = 2` this is exactly the planar
//! [`crate::MAX_ORDER`]` = 31`.)

use crate::curve::HilbertError;

/// Maximum number of index bits (`order * D`) a curve may use: indices
/// must fit a `u64` with headroom for exclusive range ends.
pub const MAX_INDEX_BITS: u32 = 62;

/// The largest constructible order for a given dimension
/// (`MAX_INDEX_BITS / dims`; 0 for `dims = 0`, which no curve accepts).
pub fn max_order_for_dims(dims: usize) -> u32 {
    // try_from instead of `dims as u32`: a dimension count above
    // u32::MAX used to truncate (2^32 collapsed to 0 and divided by
    // zero); any such count now correctly reports order 0.
    match u32::try_from(dims) {
        Ok(0) | Err(_) => 0,
        Ok(d) => MAX_INDEX_BITS / d,
    }
}

/// Which space-filling curve an [`NdCurve`] (and therefore a Hilbert
/// R-tree build) linearizes the grid with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CurveKind {
    /// The Hilbert curve: consecutive indices are adjacent cells
    /// (Manhattan distance 1). The default, and the paper's choice.
    #[default]
    Hilbert,
    /// Z-order (Morton) interleaving: cheaper to compute, same
    /// hierarchical block structure, but no adjacency guarantee.
    ZOrder,
}

impl std::fmt::Display for CurveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CurveKind::Hilbert => "hilbert",
            CurveKind::ZOrder => "z-order",
        })
    }
}

/// An inclusive axis-aligned box of grid cells in `D` dimensions (the
/// generalization of [`crate::CellBBox`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdBBox<const D: usize> {
    /// Smallest covered cell per axis.
    pub min: [u64; D],
    /// Largest covered cell per axis (inclusive).
    pub max: [u64; D],
}

impl<const D: usize> NdBBox<D> {
    /// A box covering the single cell at `coords`.
    pub fn cell(coords: [u64; D]) -> Self {
        NdBBox {
            min: coords,
            max: coords,
        }
    }

    /// Expands `self` to also cover `other`.
    pub fn union_with(&mut self, other: &NdBBox<D>) {
        for k in 0..D {
            self.min[k] = self.min[k].min(other.min[k]);
            self.max[k] = self.max[k].max(other.max[k]);
        }
    }

    /// Number of cells along `axis`.
    pub fn extent(&self, axis: usize) -> u64 {
        self.max[axis] - self.min[axis] + 1
    }

    /// Whether the cell at `coords` lies inside the box.
    pub fn contains_cell(&self, coords: &[u64; D]) -> bool {
        (0..D).all(|k| coords[k] >= self.min[k] && coords[k] <= self.max[k])
    }
}

/// A `D`-dimensional space-filling curve of a fixed order and
/// [`CurveKind`].
///
/// Order `m` fills a grid of `2^m` cells per axis with a single curve
/// of `2^{mD}` steps. Encoding and decoding run in `O(m · D)` time and
/// allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdCurve<const D: usize> {
    kind: CurveKind,
    order: u32,
}

impl<const D: usize> NdCurve<D> {
    /// Creates a curve of the given kind and order.
    ///
    /// Fails with [`HilbertError::InvalidOrderForDims`] when `D = 0`,
    /// `order = 0`, or `order * D > `[`MAX_INDEX_BITS`] (the index
    /// would overflow a `u64`).
    pub fn new(kind: CurveKind, order: u32) -> Result<Self, HilbertError> {
        if D == 0 || order == 0 || order > max_order_for_dims(D) {
            return Err(HilbertError::InvalidOrderForDims {
                order,
                // Saturate rather than truncate: this is an error
                // report, and every D > 62 is equally invalid.
                dims: u32::try_from(D).unwrap_or(u32::MAX),
            });
        }
        Ok(NdCurve { kind, order })
    }

    /// A Hilbert curve of the given order (see [`NdCurve::new`]).
    pub fn hilbert(order: u32) -> Result<Self, HilbertError> {
        Self::new(CurveKind::Hilbert, order)
    }

    /// A Z-order curve of the given order (see [`NdCurve::new`]).
    pub fn z_order(order: u32) -> Result<Self, HilbertError> {
        Self::new(CurveKind::ZOrder, order)
    }

    /// The curve family.
    #[inline]
    pub fn kind(&self) -> CurveKind {
        self.kind
    }

    /// The order of this curve.
    #[inline]
    pub fn order(&self) -> u32 {
        self.order
    }

    /// The side length of the grid: `2^order` cells per axis.
    #[inline]
    pub fn side(&self) -> u64 {
        1u64 << self.order
    }

    /// Total number of cells (= number of curve steps): `2^{order · D}`.
    #[inline]
    pub fn cell_count(&self) -> u64 {
        // dpsd-allow(no-silent-as-truncation): order <= MAX_INDEX_BITS = 62 (enforced by new()), a widening cast on every target
        1u64 << (self.order as usize * D)
    }

    /// The largest valid index, `2^{order · D} - 1`.
    #[inline]
    pub fn max_index(&self) -> u64 {
        self.cell_count() - 1
    }

    /// Maps a grid cell to its curve index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a coordinate is outside the grid; in
    /// release builds out-of-range high bits are ignored. Use
    /// [`NdCurve::try_encode`] for checked conversion.
    pub fn encode(&self, coords: [u64; D]) -> u64 {
        debug_assert!(coords.iter().all(|&c| c < self.side()));
        let mut x = coords;
        if self.kind == CurveKind::Hilbert {
            axes_to_transpose(&mut x, self.order);
        }
        // Interleave: bit i of axis j lands at index bit i·D + (D-1-j),
        // so axis 0 holds the most significant bit of each D-bit group
        // (the transposed-index convention; for Z-order this is plain
        // Morton order consistent with `Rect::orthant_of`, which also
        // puts axis 0 in the most significant bit).
        let mut h = 0u64;
        for i in (0..self.order).rev() {
            for c in x.iter() {
                h = (h << 1) | ((c >> i) & 1);
            }
        }
        h
    }

    /// Checked version of [`NdCurve::encode`].
    pub fn try_encode(&self, coords: [u64; D]) -> Result<u64, HilbertError> {
        for &c in coords.iter() {
            if c >= self.side() {
                return Err(HilbertError::CoordinateOutOfRange {
                    coord: c,
                    side: self.side(),
                });
            }
        }
        Ok(self.encode(coords))
    }

    /// Maps a curve index back to its grid cell.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the index is outside the curve. Use
    /// [`NdCurve::try_decode`] for checked conversion.
    pub fn decode(&self, index: u64) -> [u64; D] {
        debug_assert!(index < self.cell_count());
        let mut x = [0u64; D];
        // dpsd-allow(no-silent-as-truncation): order <= 62, widening cast as in cell_count
        for p in 0..(self.order as usize * D) {
            let i = p / D;
            let j = D - 1 - (p % D);
            x[j] |= ((index >> p) & 1) << i;
        }
        if self.kind == CurveKind::Hilbert {
            transpose_to_axes(&mut x, self.order);
        }
        x
    }

    /// Checked version of [`NdCurve::decode`].
    pub fn try_decode(&self, index: u64) -> Result<[u64; D], HilbertError> {
        if index >= self.cell_count() {
            return Err(HilbertError::IndexOutOfRange {
                index,
                cells: self.cell_count(),
            });
        }
        Ok(self.decode(index))
    }

    /// Exact bounding box of all cells with index in `[lo, hi]`
    /// (inclusive), computed by decomposing the range into maximal
    /// aligned blocks — every aligned block `[a · 2^{kD}, (a+1) · 2^{kD})`
    /// covers exactly one axis-aligned cube of side `2^k` (hierarchical
    /// self-similarity, true for both curve kinds), so the result costs
    /// `O(order)` decodes. Like its planar counterpart
    /// [`crate::HilbertCurve::range_bbox`], the box is a function of the
    /// range endpoints only, so it can be published next to privately
    /// chosen split indices without extra privacy budget.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` exceeds [`NdCurve::max_index`].
    pub fn range_bbox(&self, lo: u64, hi: u64) -> NdBBox<D> {
        assert!(lo <= hi, "range_bbox: lo {lo} > hi {hi}");
        assert!(
            hi <= self.max_index(),
            "range_bbox: hi {hi} exceeds max index {}",
            self.max_index()
        );
        // dpsd-allow(no-silent-as-truncation): constructible curves have D <= MAX_INDEX_BITS = 62 (new() rejects anything larger)
        let d = D as u32;
        let mut bbox: Option<NdBBox<D>> = None;
        let mut cur = lo;
        let end = hi + 1;
        while cur < end {
            // Largest k with [cur, cur + 2^{kD}) aligned and inside the
            // range.
            let align_k = if cur == 0 {
                self.order
            } else {
                (cur.trailing_zeros() / d).min(self.order)
            };
            let mut k = align_k;
            while k > 0 && cur + (1u64 << (d * k)) > end {
                k -= 1;
            }
            if cur + (1u64 << (d * k)) > end {
                k = 0;
            }
            let block_side = 1u64 << k;
            let corner = self.decode(cur);
            // Snap the decoded corner cell down to the block grid.
            let mut min = [0u64; D];
            let mut max = [0u64; D];
            for j in 0..D {
                min[j] = corner[j] & !(block_side - 1);
                max[j] = min[j] + (block_side - 1);
            }
            let cube = NdBBox { min, max };
            match bbox.as_mut() {
                Some(b) => b.union_with(&cube),
                None => bbox = Some(cube),
            }
            cur += 1u64 << (d * k);
        }
        // dpsd-allow(no-panic-in-lib): lo <= hi is asserted above, so the loop body ran at least once and bbox is Some
        bbox.expect("range is non-empty")
    }
}

/// In-place axes → transposed-Hilbert conversion (Skilling's
/// formulation of the Gray-code/rotation scheme): after the call,
/// interleaving the bits of `x` MSB-first yields the Hilbert index.
fn axes_to_transpose<const D: usize>(x: &mut [u64; D], order: u32) {
    if D < 2 {
        return; // 1-D Hilbert is the identity
    }
    let m = 1u64 << (order - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..D {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of axis 0
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t; // exchange low bits with axis 0
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..D {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u64;
    let mut q = m;
    while q > 1 {
        if x[D - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// In-place transposed-Hilbert → axes conversion (inverse of
/// [`axes_to_transpose`]).
fn transpose_to_axes<const D: usize>(x: &mut [u64; D], order: u32) {
    if D < 2 {
        return;
    }
    let n = 2u64 << (order - 1);
    // Gray decode.
    let t = x[D - 1] >> 1;
    for i in (1..D).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u64;
    while q != n {
        let p = q - 1;
        for i in (0..D).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_bounds_account_for_dimension() {
        // order * D must fit 62 bits: the boundary is constructible,
        // one past it is a typed error (the silent-overflow regression).
        assert_eq!(max_order_for_dims(1), 62);
        assert_eq!(max_order_for_dims(2), 31);
        assert_eq!(max_order_for_dims(3), 20);
        assert_eq!(max_order_for_dims(4), 15);
        assert!(NdCurve::<1>::hilbert(62).is_ok());
        assert!(NdCurve::<2>::hilbert(31).is_ok());
        assert!(NdCurve::<3>::hilbert(20).is_ok());
        assert!(NdCurve::<4>::hilbert(15).is_ok());
        fn assert_overflow<const D: usize>(got: Result<NdCurve<D>, HilbertError>, want: u32) {
            match got {
                Err(HilbertError::InvalidOrderForDims { order, dims }) => {
                    assert_eq!((order, dims), (want, D as u32));
                }
                other => panic!("expected InvalidOrderForDims, got {other:?}"),
            }
        }
        assert_overflow(NdCurve::<1>::hilbert(63), 63);
        assert_overflow(NdCurve::<2>::hilbert(32), 32);
        assert_overflow(NdCurve::<3>::hilbert(21), 21);
        assert_overflow(NdCurve::<4>::hilbert(16), 16);
        assert_overflow(NdCurve::<4>::z_order(16), 16);
        assert!(NdCurve::<3>::hilbert(0).is_err());
        assert!(NdCurve::<0>::hilbert(1).is_err());
    }

    #[test]
    fn boundary_orders_roundtrip_without_overflow() {
        // Spot-check the largest order per dimension: indices occupy the
        // full 60-62 bits and must survive the round trip.
        fn spot<const D: usize>(order: u32) {
            for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
                let c = NdCurve::<D>::new(kind, order).unwrap();
                let side = c.side();
                for coords in [[0u64; D], [side - 1; D], [side / 2; D], [side / 3; D]] {
                    let h = c.encode(coords);
                    assert!(h <= c.max_index());
                    assert_eq!(c.decode(h), coords, "{kind} D={D} order={order}");
                }
                assert_eq!(c.decode(c.max_index()).len(), D);
            }
        }
        spot::<1>(62);
        spot::<2>(31);
        spot::<3>(20);
        spot::<4>(15);
    }

    #[test]
    fn one_dimensional_curves_are_the_identity() {
        for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
            let c = NdCurve::<1>::new(kind, 6).unwrap();
            for v in 0..c.cell_count() {
                assert_eq!(c.encode([v]), v);
                assert_eq!(c.decode(v), [v]);
            }
        }
    }

    #[test]
    fn nd_order_one_matches_canonical_planar_layout() {
        // The 2-D instantiation of the generic algorithm is a genuine
        // Hilbert curve: order-1 visits (0,0) -> (0,1) -> (1,1) -> (1,0).
        let c = NdCurve::<2>::hilbert(1).unwrap();
        assert_eq!(c.encode([0, 0]), 0);
        assert_eq!(c.encode([0, 1]), 1);
        assert_eq!(c.encode([1, 1]), 2);
        assert_eq!(c.encode([1, 0]), 3);
    }

    fn assert_bijective_and_adjacent<const D: usize>(kind: CurveKind, order: u32) {
        let c = NdCurve::<D>::new(kind, order).unwrap();
        let side = c.side();
        let cells = c.cell_count();
        let mut seen = vec![false; cells as usize];
        // Odometer over every cell: encode must be a bijection.
        let mut coords = [0u64; D];
        loop {
            let h = c.encode(coords);
            assert!(h < cells);
            assert!(!seen[h as usize], "{kind}: index {h} hit twice");
            seen[h as usize] = true;
            assert_eq!(c.decode(h), coords, "{kind}: roundtrip");
            let mut k = 0;
            loop {
                if k == D {
                    assert!(seen.iter().all(|&s| s), "{kind}: curve covers grid");
                    if kind == CurveKind::Hilbert {
                        check_adjacency(&c);
                    }
                    return;
                }
                coords[k] += 1;
                if coords[k] < side {
                    break;
                }
                coords[k] = 0;
                k += 1;
            }
        }
    }

    fn check_adjacency<const D: usize>(c: &NdCurve<D>) {
        let mut prev = c.decode(0);
        for h in 1..c.cell_count() {
            let cur = c.decode(h);
            let dist: u64 = (0..D).map(|k| cur[k].abs_diff(prev[k])).sum();
            assert_eq!(dist, 1, "step {h} not adjacent (D={D})");
            prev = cur;
        }
    }

    #[test]
    fn exhaustive_small_orders_2d_and_3d() {
        for order in 1..=4 {
            assert_bijective_and_adjacent::<2>(CurveKind::Hilbert, order);
            assert_bijective_and_adjacent::<2>(CurveKind::ZOrder, order);
        }
        for order in 1..=3 {
            assert_bijective_and_adjacent::<3>(CurveKind::Hilbert, order);
            assert_bijective_and_adjacent::<3>(CurveKind::ZOrder, order);
        }
        assert_bijective_and_adjacent::<4>(CurveKind::Hilbert, 2);
    }

    #[test]
    fn z_order_is_plain_morton() {
        let c = NdCurve::<3>::z_order(2).unwrap();
        // (x, y, z) = (1, 0, 1): bit 0 groups give x0 y0 z0 = 101 with x
        // as the most significant bit of the group.
        assert_eq!(c.encode([1, 0, 1]), 0b101);
        assert_eq!(c.encode([3, 0, 0]), 0b100100);
        assert_eq!(c.decode(0b100100), [3, 0, 0]);
    }

    #[test]
    fn range_bbox_matches_brute_force_exhaustively() {
        fn brute<const D: usize>(c: &NdCurve<D>, lo: u64, hi: u64) -> NdBBox<D> {
            let mut b = NdBBox::cell(c.decode(lo));
            for h in lo + 1..=hi {
                b.union_with(&NdBBox::cell(c.decode(h)));
            }
            b
        }
        for kind in [CurveKind::Hilbert, CurveKind::ZOrder] {
            let c = NdCurve::<3>::new(kind, 2).unwrap();
            let n = c.cell_count();
            for lo in 0..n {
                for hi in lo..n {
                    assert_eq!(
                        c.range_bbox(lo, hi),
                        brute(&c, lo, hi),
                        "{kind}: range [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn range_bbox_full_range_covers_grid() {
        let c = NdCurve::<4>::hilbert(3).unwrap();
        let b = c.range_bbox(0, c.max_index());
        assert_eq!(b.min, [0; 4]);
        assert_eq!(b.max, [c.side() - 1; 4]);
        for k in 0..4 {
            assert_eq!(b.extent(k), c.side());
        }
    }

    #[test]
    fn range_bbox_large_order_does_not_overflow() {
        let c = NdCurve::<3>::hilbert(20).unwrap();
        let b = c.range_bbox(0, c.max_index());
        assert_eq!(b.extent(0), c.side());
        let b = c.range_bbox(c.cell_count() / 2, c.max_index());
        assert!(b.extent(0) <= c.side());
        let one = NdCurve::<1>::z_order(62).unwrap();
        let b = one.range_bbox(one.cell_count() / 2, one.max_index());
        assert_eq!(b.min[0], one.cell_count() / 2);
        assert_eq!(b.max[0], one.max_index());
    }

    #[test]
    fn try_variants_check_bounds() {
        let c = NdCurve::<3>::hilbert(3).unwrap();
        assert!(c.try_encode([7, 7, 7]).is_ok());
        assert!(matches!(
            c.try_encode([8, 0, 0]),
            Err(HilbertError::CoordinateOutOfRange { .. })
        ));
        assert!(c.try_decode(c.max_index()).is_ok());
        assert!(matches!(
            c.try_decode(c.cell_count()),
            Err(HilbertError::IndexOutOfRange { .. })
        ));
        // Grids wider than u32 report truthful (u64) values.
        let wide = NdCurve::<1>::hilbert(40).unwrap();
        assert_eq!(
            wide.try_encode([1u64 << 41]),
            Err(HilbertError::CoordinateOutOfRange {
                coord: 1u64 << 41,
                side: 1u64 << 40,
            })
        );
    }

    #[test]
    fn curve_kind_display() {
        assert_eq!(CurveKind::Hilbert.to_string(), "hilbert");
        assert_eq!(CurveKind::ZOrder.to_string(), "z-order");
        assert_eq!(CurveKind::default(), CurveKind::Hilbert);
    }
}
