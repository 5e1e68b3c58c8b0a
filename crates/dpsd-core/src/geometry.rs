//! Dimension-generic points and axis-aligned boxes.
//!
//! The paper develops its decompositions in the plane but generalizes
//! explicitly ("octree, etc.", Section 3.2), so the geometry layer is
//! const-generic over the dimension: [`Point<D>`] and [`Rect<D>`] carry
//! `D` coordinates per corner, and every tree family, query routine, and
//! release artifact in this workspace is built on them. The dimension
//! defaults to 2, and the [`Point2`] / [`Rect2`] aliases plus the planar
//! conveniences (`Point::new(x, y)`, `Rect::new(min_x, min_y, max_x,
//! max_y)`, `min_x()`/`width()`/… accessors) keep the 2D API of earlier
//! releases source-compatible.
//!
//! **Migration notes** (from the planar-only geometry):
//!
//! * field access `p.x` / `r.min_x` becomes `p.x()` / `r.min_x()` (or
//!   `p.coords[0]` / `r.min[0]`);
//! * the `Axis` enum is replaced by a plain `usize` axis index
//!   (`0` = x, `1` = y); axis cycling is `(axis + 1) % D`;
//! * `Rect::new(min_x, min_y, max_x, max_y)` remains for `Rect2`; any-`D`
//!   construction uses [`Rect::from_corners`] / [`Point::from_coords`].
//!
//! Rectangles are *half-open on neither side*: containment uses closed
//! edges for queries, but tree construction partitions points with
//! half-open cells (`[min, max)`, with the domain's upper boundary
//! closed) so every point lands in exactly one leaf.

use std::fmt;

/// A point in `D`-dimensional space (`D = 2` when elided).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const D: usize = 2> {
    /// Coordinates, one per dimension.
    pub coords: [f64; D],
}

/// The planar point (alias of [`Point<2>`]).
pub type Point2 = Point<2>;

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinate array.
    #[inline]
    pub fn from_coords(coords: [f64; D]) -> Self {
        Point { coords }
    }
}

impl Point<2> {
    /// Creates a planar point.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { coords: [x, y] }
    }

    /// Horizontal coordinate (e.g. longitude).
    #[inline]
    pub fn x(&self) -> f64 {
        self.coords[0]
    }

    /// Vertical coordinate (e.g. latitude).
    #[inline]
    pub fn y(&self) -> f64 {
        self.coords[1]
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Point { coords: [0.0; D] }
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Point { coords }
    }
}

impl<const D: usize> std::ops::Index<usize> for Point<D> {
    type Output = f64;

    fn index(&self, axis: usize) -> &f64 {
        &self.coords[axis]
    }
}

/// Errors from rectangle constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum GeometryError {
    /// min > max on some axis, or a coordinate was not finite.
    InvalidRect {
        /// Lower corner as supplied.
        min: Vec<f64>,
        /// Upper corner as supplied.
        max: Vec<f64>,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::InvalidRect { min, max } => {
                write!(f, "invalid box {min:?} x {max:?}")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// An axis-aligned box `[min_0, max_0] x … x [min_{D-1}, max_{D-1}]`
/// (`D = 2` when elided).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const D: usize = 2> {
    /// Lower corner.
    pub min: [f64; D],
    /// Upper corner.
    pub max: [f64; D],
}

/// The planar rectangle (alias of [`Rect<2>`]).
pub type Rect2 = Rect<2>;

impl Rect<2> {
    /// Creates a planar rectangle, validating that coordinates are finite
    /// and `min <= max` on both axes (zero width or height is allowed).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Result<Self, GeometryError> {
        Rect::from_corners([min_x, min_y], [max_x, max_y])
    }

    /// Left edge.
    #[inline]
    pub fn min_x(&self) -> f64 {
        self.min[0]
    }

    /// Bottom edge.
    #[inline]
    pub fn min_y(&self) -> f64 {
        self.min[1]
    }

    /// Right edge.
    #[inline]
    pub fn max_x(&self) -> f64 {
        self.max[0]
    }

    /// Top edge.
    #[inline]
    pub fn max_y(&self) -> f64 {
        self.max[1]
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.side(0)
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.side(1)
    }
}

impl<const D: usize> Rect<D> {
    /// Creates a box from its corners, validating finiteness and
    /// `min <= max` per axis (degenerate — zero-extent — axes allowed).
    pub fn from_corners(min: [f64; D], max: [f64; D]) -> Result<Self, GeometryError> {
        for k in 0..D {
            if !(min[k].is_finite() && max[k].is_finite() && min[k] <= max[k]) {
                return Err(GeometryError::InvalidRect {
                    min: min.to_vec(),
                    max: max.to_vec(),
                });
            }
        }
        Ok(Rect { min, max })
    }

    /// Side length along `axis`.
    #[inline]
    pub fn side(&self, axis: usize) -> f64 {
        self.max[axis] - self.min[axis]
    }

    /// Product of all side lengths — the area for `D = 2`, hyper-volume
    /// in general (may be zero).
    #[inline]
    pub fn area(&self) -> f64 {
        let mut v = 1.0;
        for k in 0..D {
            v *= self.side(k);
        }
        v
    }

    /// The extent `[lo, hi]` along `axis`.
    #[inline]
    pub fn extent(&self, axis: usize) -> (f64, f64) {
        (self.min[axis], self.max[axis])
    }

    /// Midpoint along `axis`.
    #[inline]
    pub fn midpoint(&self, axis: usize) -> f64 {
        self.min[axis] + self.side(axis) / 2.0
    }

    /// Closed containment: boundary points are inside.
    #[inline]
    pub fn contains(&self, p: Point<D>) -> bool {
        (0..D).all(|k| p.coords[k] >= self.min[k] && p.coords[k] <= self.max[k])
    }

    /// Whether `self` is entirely inside `other` (closed edges).
    #[inline]
    pub fn inside(&self, other: &Rect<D>) -> bool {
        (0..D).all(|k| self.min[k] >= other.min[k] && self.max[k] <= other.max[k])
    }

    /// Whether the two boxes share any volume or boundary.
    #[inline]
    pub fn intersects(&self, other: &Rect<D>) -> bool {
        (0..D).all(|k| self.min[k] <= other.max[k] && other.min[k] <= self.max[k])
    }

    /// The intersection box, or `None` if disjoint.
    pub fn intersection(&self, other: &Rect<D>) -> Option<Rect<D>> {
        if !self.intersects(other) {
            return None;
        }
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for k in 0..D {
            min[k] = self.min[k].max(other.min[k]);
            max[k] = self.max[k].min(other.max[k]);
        }
        Some(Rect { min, max })
    }

    /// Fraction of `self`'s volume covered by `query` (the uniformity
    /// assumption of Section 4.1). Zero-volume cells contribute their
    /// full count when they intersect the query at all: a degenerate cell
    /// still holds points and the uniform model puts them all at the same
    /// spot.
    pub fn overlap_fraction(&self, query: &Rect<D>) -> f64 {
        match self.intersection(query) {
            None => 0.0,
            Some(cap) => {
                let a = self.area();
                if a <= 0.0 {
                    1.0
                } else {
                    (cap.area() / a).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Splits into two halves at `value` along `axis`. `value` is clamped
    /// into the box's extent so callers may pass noisy medians.
    pub fn split_at(&self, axis: usize, value: f64) -> (Rect<D>, Rect<D>) {
        let v = value.clamp(self.min[axis], self.max[axis]);
        let mut lo = *self;
        let mut hi = *self;
        lo.max[axis] = v;
        hi.min[axis] = v;
        (lo, hi)
    }

    /// Index of the midpoint orthant a point belongs to under half-open
    /// partitioning (`coord >= midpoint` goes to the upper half). Child
    /// `j` takes the upper half of axis `k` exactly when bit `D - 1 - k`
    /// of `j` is set: axis 0 is the most significant bit, the child
    /// order of the tree builders, so in a midpoint tree `orthant_of`
    /// names the child whose box holds `p`.
    pub fn orthant_of(&self, p: &Point<D>) -> usize {
        let mut j = 0usize;
        for k in 0..D {
            let mid = self.min[k] + self.side(k) / 2.0;
            if p.coords[k] >= mid {
                j |= 1 << (D - 1 - k);
            }
        }
        j
    }

    /// Grows the box by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect<D> {
        let mut min = self.min;
        let mut max = self.max;
        for k in 0..D {
            min[k] -= margin;
            max[k] += margin;
        }
        Rect { min, max }
    }

    /// Smallest box covering a non-empty point set, or `None` for an
    /// empty slice.
    pub fn bounding(points: &[Point<D>]) -> Option<Rect<D>> {
        let first = points.first()?;
        let mut r = Rect {
            min: first.coords,
            max: first.coords,
        };
        for p in &points[1..] {
            for k in 0..D {
                r.min[k] = r.min[k].min(p.coords[k]);
                r.max[k] = r.max[k].max(p.coords[k]);
            }
        }
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    #[test]
    fn rect_validation() {
        assert!(Rect::new(0.0, 0.0, 1.0, 1.0).is_ok());
        assert!(Rect::new(0.0, 0.0, 0.0, 0.0).is_ok(), "degenerate allowed");
        assert!(Rect::new(1.0, 0.0, 0.0, 1.0).is_err(), "min_x > max_x");
        assert!(Rect::new(0.0, f64::NAN, 1.0, 1.0).is_err(), "NaN rejected");
        assert!(
            Rect::new(0.0, 0.0, f64::INFINITY, 1.0).is_err(),
            "inf rejected"
        );
        assert!(Rect::from_corners([1.0], [0.0]).is_err());
        assert!(Rect::from_corners([f64::NAN, 0.0], [1.0, 1.0]).is_err());
    }

    #[test]
    fn containment_and_area() {
        let rect = r(0.0, 0.0, 2.0, 4.0);
        assert_eq!(rect.area(), 8.0);
        assert!(
            rect.contains(Point::new(0.0, 0.0)),
            "corner inside (closed)"
        );
        assert!(rect.contains(Point::new(2.0, 4.0)));
        assert!(!rect.contains(Point::new(2.1, 0.0)));
    }

    #[test]
    fn partition_containment_is_half_open() {
        // Closed boxes share their cut edge; partitioning sends a point
        // on the cut to the upper side.
        let domain = r(0.0, 0.0, 4.0, 4.0);
        let (left, right) = domain.split_at(0, 2.0);
        let p = Point::new(2.0, 1.0);
        assert!(left.contains(p) && right.contains(p));
        assert_eq!(domain.orthant_of(&p), 0b10, "boundary goes right");
        assert_eq!(domain.orthant_of(&Point::new(1.0, 2.0)), 0b01);
        assert_eq!(domain.orthant_of(&Point::new(2.0, 2.0)), 0b11);
        // The domain's upper corner is kept, in the all-high orthant.
        assert_eq!(domain.orthant_of(&Point::new(4.0, 4.0)), 0b11);
        assert_eq!(domain.orthant_of(&Point::new(0.0, 0.0)), 0b00);
    }

    #[test]
    fn intersection_cases() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        let c = a.intersection(&b).unwrap();
        assert_eq!(c, r(1.0, 1.0, 2.0, 2.0));
        let d = r(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersection(&d).is_none());
        // Touching edges intersect with zero area.
        let e = r(2.0, 0.0, 3.0, 2.0);
        let cap = a.intersection(&e).unwrap();
        assert_eq!(cap.area(), 0.0);
    }

    #[test]
    fn overlap_fraction_uniformity() {
        let cell = r(0.0, 0.0, 2.0, 2.0);
        let q = r(0.0, 0.0, 1.0, 2.0);
        assert!((cell.overlap_fraction(&q) - 0.5).abs() < 1e-12);
        assert_eq!(cell.overlap_fraction(&r(5.0, 5.0, 6.0, 6.0)), 0.0);
        let full = cell.overlap_fraction(&r(-1.0, -1.0, 3.0, 3.0));
        assert_eq!(full, 1.0);
        // Degenerate cell intersecting the query contributes fully.
        let line = r(0.0, 0.0, 0.0, 2.0);
        assert_eq!(line.overlap_fraction(&r(-1.0, -1.0, 1.0, 1.0)), 1.0);
    }

    #[test]
    fn split_clamps_noisy_medians() {
        let rect = r(0.0, 0.0, 2.0, 2.0);
        let (l, rr) = rect.split_at(0, 99.0);
        assert_eq!(l.max_x(), 2.0);
        assert_eq!(rr.min_x(), 2.0);
        let (l, rr) = rect.split_at(1, -5.0);
        assert_eq!(l.max_y(), 0.0);
        assert_eq!(rr.min_y(), 0.0);
    }

    #[test]
    fn bounding_box() {
        assert!(Rect::<2>::bounding(&[]).is_none());
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(0.0, 7.0),
        ];
        let b = Rect::bounding(&pts).unwrap();
        assert_eq!(b, r(-2.0, 3.0, 1.0, 7.0));
    }

    #[test]
    fn coordinate_access() {
        let p = Point::new(3.0, 4.0);
        assert_eq!(p[0], 3.0);
        assert_eq!((p.x(), p.y()), (3.0, 4.0));
        let q: Point<3> = [1.0, 2.0, 3.0].into();
        assert_eq!(q[2], 3.0);
        assert_eq!(Point::<3>::default().coords, [0.0; 3]);
    }

    #[test]
    fn expanded_grows_all_sides() {
        let rect = r(0.0, 0.0, 1.0, 1.0).expanded(0.5);
        assert_eq!(rect, r(-0.5, -0.5, 1.5, 1.5));
    }

    #[test]
    fn three_d_boxes() {
        let a = Rect::from_corners([0.0; 3], [4.0; 3]).unwrap();
        let b = Rect::from_corners([2.0; 3], [6.0; 3]).unwrap();
        assert_eq!(a.area(), 64.0);
        assert!(a.intersects(&b));
        let cap = a.intersection(&b).unwrap();
        assert_eq!(cap.min, [2.0; 3]);
        assert_eq!(cap.max, [4.0; 3]);
        assert!(cap.inside(&a) && cap.inside(&b));
        assert!(a.contains(Point::from_coords([4.0, 0.0, 2.0])));
        assert!(!a.contains(Point::from_coords([4.1, 0.0, 2.0])));
        let (lo, hi) = a.split_at(2, 1.0);
        assert_eq!(lo.max[2], 1.0);
        assert_eq!(hi.min[2], 1.0);
        assert_eq!(lo.extent(0), (0.0, 4.0));
    }

    #[test]
    fn orthant_of_puts_axis_zero_in_the_high_bit() {
        let r = Rect::from_corners([0.0, -2.0, 1.0], [4.0, 2.0, 5.0]).unwrap();
        assert_eq!(r.orthant_of(&Point::from_coords([3.9, -1.9, 1.1])), 0b100);
        assert_eq!(r.orthant_of(&Point::from_coords([0.1, 1.9, 1.1])), 0b010);
        assert_eq!(r.orthant_of(&Point::from_coords([0.1, -1.9, 4.9])), 0b001);
    }

    #[test]
    fn overlap_fraction_4d() {
        let cell = Rect::from_corners([0.0; 4], [2.0; 4]).unwrap();
        let q = Rect::from_corners([0.0; 4], [1.0, 2.0, 2.0, 2.0]).unwrap();
        assert!((cell.overlap_fraction(&q) - 0.5).abs() < 1e-12);
        let degenerate = Rect::from_corners([1.0; 4], [1.0; 4]).unwrap();
        assert_eq!(degenerate.overlap_fraction(&cell), 1.0);
    }
}
