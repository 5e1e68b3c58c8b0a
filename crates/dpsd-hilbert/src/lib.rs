//! Hilbert and Z-order space-filling curves, in any dimension.
//!
//! This crate is the space-filling-curve substrate of the `dpsd`
//! workspace (Cormode et al., *Differentially Private Spatial
//! Decompositions*, ICDE 2012, Section 3.2). Private Hilbert R-trees
//! map every data point to its index on a curve of a chosen order,
//! build a private one-dimensional decomposition over those indices,
//! and then map index *ranges* back to boxes in the data space.
//!
//! Two curve types are provided:
//!
//! * [`HilbertCurve`] — the classical planar (2-D) curve with `u32`
//!   cell coordinates, the reference implementation that tests compare
//!   `NdCurve::<2>` against (the two index every cell identically);
//! * [`NdCurve`] — the `D`-dimensional generalization (const-generic),
//!   computing compact Hilbert indices with the Gray-code/rotation
//!   scheme, or plain Z-order/Morton interleaving when constructed
//!   with [`CurveKind::ZOrder`].
//!
//! Both offer `encode` / `decode` and `range_bbox` — the exact bounding
//! box of a contiguous index range, computed by decomposing the range
//! into maximal aligned blocks (never by enumerating cells). The last
//! operation is what lets a private Hilbert R-tree publish node
//! rectangles without touching the data again: a node's rectangle is a
//! function of its (already privatized) index range only.
//!
//! Indices are `u64`, so curve construction enforces
//! `order * D <= `[`MAX_INDEX_BITS`] and fails with a typed
//! [`HilbertError`] instead of silently overflowing.
//!
//! # Example
//!
//! ```
//! use dpsd_hilbert::HilbertCurve;
//!
//! let curve = HilbertCurve::new(4).unwrap(); // a 16 x 16 grid
//! let d = curve.encode(5, 10);
//! assert_eq!(curve.decode(d), (5, 10));
//!
//! // Bounding box of the first quarter of the curve: exactly one quadrant.
//! let bbox = curve.range_bbox(0, curve.max_index() / 4);
//! assert_eq!((bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y), (0, 0, 7, 7));
//! ```

#![forbid(unsafe_code)]

mod curve;
mod nd;
mod range;

pub use curve::{HilbertCurve, HilbertError, MAX_ORDER};
pub use nd::{max_order_for_dims, CurveKind, NdBBox, NdCurve, MAX_INDEX_BITS};
pub use range::CellBBox;
