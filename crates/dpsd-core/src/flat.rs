//! The `dpsd-bin/v1` binary synopsis format and the one query kernel.
//!
//! A [`ReleasedSynopsis`] *is* the serving arena: the complete tree as
//! structure-of-arrays columns, laid out exactly as this format carries
//! them. Publishing writes the columns out as one little-endian,
//! checksummed blob; loading validates every byte and **moves** the
//! columns into place — no transpose, no intermediate tree, zero
//! per-node allocation. [`FlatSynopsis`] names the release type in its
//! serving role.
//!
//! The kernel is one depth-first descent over those columns per query,
//! which can also report the Lemma 2 contribution profile. Every query
//! path in the workspace (trees and releases, every
//! [`CountSource`](crate::tree::CountSource), single, batch, profiled)
//! runs on it, and a batch is a loop of single descents, so a batched
//! answer is the single answer bit for bit. The caller resolves which
//! count column the descent reads once per call.
//!
//! # Wire layout (`dpsd-bin/v1`, all fields little-endian)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 8 | magic `b"DPSDBIN1"` |
//! | 8 | 8 | FNV-1a 64 checksum of every byte from offset 16 to the end |
//! | 16 | 4 | format version (`u32`, currently 1) |
//! | 20 | 4 | dimension `D` (`u32`) |
//! | 24 | 4 | tree-kind code (`u32`, see the `kind_code` mapping below) |
//! | 28 | 4 | flags (`u32`; bit 0 = post-processed) |
//! | 32 | 8 | fanout (`u64`, must equal `2^D`) |
//! | 40 | 8 | height (`u64`) |
//! | 48 | 8 | node count `n` (`u64`, must match the complete tree) |
//! | 56 | 8 | total epsilon (`f64`) |
//! | 64 | 16·D | domain (`D` minima then `D` maxima, `f64`) |
//! | … | 8·(h+1) | per-level count budgets, leaves first (`f64`) |
//! | … | 8·(h+1) | per-level median budgets (`f64`) |
//! | … | 8·(h+2) | level offset table: first node index per depth, then `n` (`u64`) |
//! | … | 8·D·n | node minima, axis-major: `mins[k·n + v]` (`f64`) |
//! | … | 8·D·n | node maxima, axis-major (`f64`) |
//! | … | 8·n | released noisy counts, `0.0` where withheld (`f64`) |
//! | … | ⌈n/8⌉ | released bitmap (bit `v%8` of byte `v/8`) |
//! | … | ⌈n/8⌉ | pruning-cut bitmap |
//!
//! Trailing bytes, nonzero bitmap padding, a level table that disagrees
//! with the complete-tree shape, or any non-finite/inconsistent header
//! field are all typed [`DpsdError::Format`] rejections — the decoder
//! never panics on untrusted input.
//!
//! Like JSON, post-processed counts are **not** on the wire: bit 0 of
//! the flags only records that OLS was applied, and the loader
//! recomputes it bit-for-bit from the released count column.
//!
//! # Bit-exactness across formats
//!
//! The binary format is the **canonical bit-exact carrier** of a
//! release: every `f64` travels as its 8 raw bytes, with no text
//! round-trip involved. JSON stays bit-exact too, but only because the
//! vendored `serde_json` prints floats in shortest-round-trip form
//! (whole floats as `1.0` — see `vendor/README.md`); archival and
//! cross-implementation exchange should prefer `dpsd-bin/v1`, which has
//! no such formatting dependency.
//!
//! ```
//! use dpsd_core::flat::FlatSynopsis;
//! use dpsd_core::geometry::{Point, Rect};
//! use dpsd_core::synopsis::SpatialSynopsis;
//! use dpsd_core::tree::PsdConfig;
//!
//! let pts: Vec<Point> = (0..400)
//!     .map(|i| Point::new((i % 20) as f64, (i / 20) as f64))
//!     .collect();
//! let domain = Rect::new(0.0, 0.0, 20.0, 20.0).unwrap();
//! let tree = PsdConfig::quadtree(domain, 3, 0.5).with_seed(9).build(&pts).unwrap();
//!
//! // Owner side: one blob, checksummed and self-describing.
//! let blob = tree.release().to_flat_bytes();
//!
//! // Server side: load the columns, then answer identically to the tree.
//! let flat = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
//! let q = Rect::new(2.0, 3.0, 11.0, 9.0).unwrap();
//! assert_eq!(flat.query(&q).to_bits(), tree.query(&q).to_bits());
//! ```

use crate::error::DpsdError;
use crate::geometry::Rect;
use crate::query::QueryProfile;
use crate::tree::released::MAX_NODES;
use crate::tree::{complete_tree_nodes_checked, first_index_at_depth, ReleasedSynopsis, TreeKind};

/// The serving arena: the release type itself, under the name serving
/// code and benchmarks use for it.
pub type FlatSynopsis<const D: usize = 2> = ReleasedSynopsis<D>;

/// Magic bytes opening every `dpsd-bin` artifact.
pub const MAGIC: [u8; 8] = *b"DPSDBIN1";
/// Current binary format version.
pub const VERSION: u32 = 1;
/// Header flag bit 0: the source tree was OLS-post-processed (the
/// loader recomputes the posted counts; they are never on the wire).
const FLAG_POSTPROCESSED: u32 = 1;

/// Stable on-wire code for each tree family (same order as the JSON
/// `kind` tags).
fn kind_code(kind: TreeKind) -> u32 {
    match kind {
        TreeKind::Quadtree => 0,
        TreeKind::KdStandard => 1,
        TreeKind::KdHybrid => 2,
        TreeKind::KdCell => 3,
        TreeKind::KdNoisyMean => 4,
        TreeKind::KdPure => 5,
        TreeKind::KdTrue => 6,
        TreeKind::HilbertR => 7,
    }
}

fn kind_from_code(code: u32) -> Option<TreeKind> {
    Some(match code {
        0 => TreeKind::Quadtree,
        1 => TreeKind::KdStandard,
        2 => TreeKind::KdHybrid,
        3 => TreeKind::KdCell,
        4 => TreeKind::KdNoisyMean,
        5 => TreeKind::KdPure,
        6 => TreeKind::KdTrue,
        7 => TreeKind::HilbertR,
        _ => return None,
    })
}

/// FNV-1a 64-bit — the same hash the bit-identity fingerprints use, so
/// the checksum layer introduces no new primitive.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Whether `bytes` starts with the `dpsd-bin` magic (format sniffing;
/// a `true` here does not imply the artifact is valid).
pub fn is_flat_artifact(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Reads the dimension field of a `dpsd-bin` header without validating
/// the artifact — `None` when the blob is too short or not `dpsd-bin`.
/// Registries use this to dispatch on `D` before the typed decode.
pub fn peek_dims(bytes: &[u8]) -> Option<usize> {
    if !is_flat_artifact(bytes) {
        return None;
    }
    let dims = bytes.get(20..24)?;
    let dims = u32::from_le_bytes([dims[0], dims[1], dims[2], dims[3]]);
    usize::try_from(dims).ok()
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_bitmap(buf: &mut Vec<u8>, bits: &[bool]) {
    for chunk in bits.chunks(8) {
        let mut byte = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            byte |= u8::from(bit) << i;
        }
        buf.push(byte);
    }
}

/// A bounds-checked little-endian byte reader; every failure is a typed
/// [`DpsdError::Format`], never a panic or a silent wrap.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], DpsdError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| DpsdError::format("dpsd-bin: length arithmetic overflows"))?;
        if end > self.bytes.len() {
            return Err(DpsdError::format(format!(
                "dpsd-bin: truncated artifact (need {end} bytes, have {})",
                self.bytes.len()
            )));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, DpsdError> {
        let b = self.take(4)?;
        let b: [u8; 4] = b
            .try_into()
            .map_err(|_| DpsdError::format("dpsd-bin: short u32"))?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, DpsdError> {
        let b = self.take(8)?;
        let b: [u8; 8] = b
            .try_into()
            .map_err(|_| DpsdError::format("dpsd-bin: short u64"))?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, DpsdError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f64s(&mut self, count: usize, what: &str) -> Result<Vec<f64>, DpsdError> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f64().map_err(|_| {
                DpsdError::format(format!("dpsd-bin: truncated inside the {what} column"))
            })?);
        }
        Ok(out)
    }

    fn bitmap(&mut self, n: usize, what: &str) -> Result<Vec<bool>, DpsdError> {
        let bytes = self.take(n.div_ceil(8)).map_err(|_| {
            DpsdError::format(format!("dpsd-bin: truncated inside the {what} bitmap"))
        })?;
        let mut out = vec![false; n];
        for (v, out_bit) in out.iter_mut().enumerate() {
            *out_bit = bytes[v / 8] >> (v % 8) & 1 == 1;
        }
        if !n.is_multiple_of(8) {
            let last = bytes[bytes.len() - 1];
            if last >> (n % 8) != 0 {
                return Err(DpsdError::format(format!(
                    "dpsd-bin: {what} bitmap has nonzero padding bits"
                )));
            }
        }
        Ok(out)
    }
}

fn usize_field(value: u64, what: &str) -> Result<usize, DpsdError> {
    usize::try_from(value)
        .map_err(|_| DpsdError::format(format!("dpsd-bin: {what} {value} does not fit in memory")))
}

impl<const D: usize> ReleasedSynopsis<D> {
    /// Serializes to the `dpsd-bin/v1` flat binary format — the
    /// compact, checksummed, bit-exact carrier for serving at scale
    /// (layout in the module docs). The node columns are written out
    /// as they sit in memory.
    pub fn to_flat_bytes(&self) -> Vec<u8> {
        let n = self.node_count();
        let h = self.height;
        let mut buf =
            Vec::with_capacity(64 + 16 * D + 8 * (3 * h + 4) + 8 * n * (2 * D + 1) + 2 * n);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[0u8; 8]); // checksum, patched below
        put_u32(&mut buf, VERSION);
        // dpsd-allow(no-panic-in-lib): D is a compile-time dimension; every workspace instantiation is 1..=4
        put_u32(&mut buf, u32::try_from(D).expect("dimension fits in u32"));
        put_u32(&mut buf, kind_code(self.kind));
        let flags = if self.is_postprocessed() {
            FLAG_POSTPROCESSED
        } else {
            0
        };
        put_u32(&mut buf, flags);
        put_u64(&mut buf, self.fanout as u64);
        put_u64(&mut buf, h as u64);
        put_u64(&mut buf, n as u64);
        buf.extend_from_slice(&self.epsilon.to_le_bytes());
        put_f64s(&mut buf, &self.domain.min);
        put_f64s(&mut buf, &self.domain.max);
        put_f64s(&mut buf, &self.eps_count);
        put_f64s(&mut buf, &self.eps_median);
        for depth in 0..=h {
            put_u64(&mut buf, first_index_at_depth(self.fanout, depth) as u64);
        }
        put_u64(&mut buf, n as u64);
        put_f64s(&mut buf, &self.mins);
        put_f64s(&mut buf, &self.maxs);
        put_f64s(&mut buf, &self.noisy);
        put_bitmap(&mut buf, &self.released);
        put_bitmap(&mut buf, &self.cut);
        let checksum = fnv1a(&buf[16..]);
        buf[8..16].copy_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Parses and fully validates a `dpsd-bin/v1` artifact (the
    /// [`to_flat_bytes`](ReleasedSynopsis::to_flat_bytes) output) into a
    /// query-ready synopsis: same checks as the JSON loader (shape,
    /// finiteness, node cap, budget guard), plus checksum and
    /// exact-length framing.
    ///
    /// The wire columns are already in arena order, so after validation
    /// they move into place. Post-processed counts are never on the
    /// wire; for a post-processed artifact OLS is recomputed over the
    /// loaded count column, so answers match the source tree
    /// bit-for-bit.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DpsdError> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.take(8)? != MAGIC {
            return Err(DpsdError::format(
                "not a dpsd-bin artifact (bad magic bytes)",
            ));
        }
        let checksum = cur.u64()?;
        if fnv1a(&bytes[16..]) != checksum {
            return Err(DpsdError::format(
                "dpsd-bin: checksum mismatch (corrupt artifact)",
            ));
        }
        let version = cur.u32()?;
        if version != VERSION {
            return Err(DpsdError::format(format!(
                "dpsd-bin: unsupported version {version}"
            )));
        }
        let dims = cur.u32()?;
        if usize::try_from(dims) != Ok(D) {
            return Err(DpsdError::format(format!(
                "dpsd-bin: artifact is {dims}-dimensional, expected {D}"
            )));
        }
        let kind_raw = cur.u32()?;
        let kind = kind_from_code(kind_raw).ok_or_else(|| {
            DpsdError::format(format!("dpsd-bin: unknown tree kind code {kind_raw}"))
        })?;
        let flags = cur.u32()?;
        if flags & !FLAG_POSTPROCESSED != 0 {
            return Err(DpsdError::format(format!(
                "dpsd-bin: unknown flag bits {flags:#x}"
            )));
        }
        let postprocessed = flags & FLAG_POSTPROCESSED != 0;
        let fanout = usize_field(cur.u64()?, "fanout")?;
        if fanout != 1usize << D {
            return Err(DpsdError::format(format!(
                "dpsd-bin: fanout {fanout} must be 2^dims"
            )));
        }
        let height = usize_field(cur.u64()?, "height")?;
        let Some(m) = complete_tree_nodes_checked(fanout, height).filter(|&m| m <= MAX_NODES)
        else {
            return Err(DpsdError::format(format!(
                "dpsd-bin: fanout {fanout} height {height} exceeds the node cap"
            )));
        };
        let node_count = usize_field(cur.u64()?, "node count")?;
        if node_count != m {
            return Err(DpsdError::format(format!(
                "dpsd-bin: node count {node_count} does not match the complete tree ({m} nodes)"
            )));
        }
        let epsilon = cur.f64()?;
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(DpsdError::format("dpsd-bin: epsilon must be non-negative"));
        }
        let domain_min = cur.f64s(D, "domain")?;
        let domain_max = cur.f64s(D, "domain")?;
        let mut dmin = [0.0; D];
        let mut dmax = [0.0; D];
        dmin.copy_from_slice(&domain_min);
        dmax.copy_from_slice(&domain_max);
        let domain = Rect::from_corners(dmin, dmax)
            .map_err(|e| DpsdError::format(format!("dpsd-bin: domain: {e}")))?;
        let eps_count = cur.f64s(height + 1, "eps_count")?;
        let eps_median = cur.f64s(height + 1, "eps_median")?;
        for (name, levels) in [("eps_count", &eps_count), ("eps_median", &eps_median)] {
            if levels.iter().any(|e| !e.is_finite() || *e < 0.0) {
                return Err(DpsdError::format(format!(
                    "dpsd-bin: {name} entries must be non-negative"
                )));
            }
        }
        for depth in 0..=height {
            let offset = cur.u64()?;
            let expected = first_index_at_depth(fanout, depth) as u64;
            if offset != expected {
                return Err(DpsdError::format(format!(
                    "dpsd-bin: level table entry {offset} at depth {depth}, expected {expected}"
                )));
            }
        }
        if cur.u64()? != m as u64 {
            return Err(DpsdError::format(
                "dpsd-bin: level table must end at the node count",
            ));
        }
        let mins = cur.f64s(D * m, "node minima")?;
        let maxs = cur.f64s(D * m, "node maxima")?;
        for v in 0..m {
            let mut min = [0.0; D];
            let mut max = [0.0; D];
            for k in 0..D {
                min[k] = mins[k * m + v];
                max[k] = maxs[k * m + v];
            }
            Rect::from_corners(min, max)
                .map_err(|e| DpsdError::format(format!("dpsd-bin: node {v}: {e}")))?;
        }
        let mut noisy = cur.f64s(m, "noisy count")?;
        if noisy.iter().any(|c| !c.is_finite()) {
            return Err(DpsdError::format("dpsd-bin: node counts must be finite"));
        }
        let released = cur.bitmap(m, "released")?;
        let cut = cur.bitmap(m, "cut")?;
        if cur.pos != bytes.len() {
            return Err(DpsdError::format(format!(
                "dpsd-bin: {} trailing bytes after the cut bitmap",
                bytes.len() - cur.pos
            )));
        }
        // Same guard as the JSON loader: OLS recomputation requires a
        // released leaf level, and a crafted artifact must be a typed error.
        if postprocessed && eps_count[0] <= 0.0 {
            return Err(DpsdError::format(
                "dpsd-bin: postprocessed synopsis must carry leaf-level count budget",
            ));
        }
        // Withheld counts read as zero, whatever bytes a crafted artifact
        // put there: that is what OLS weighs and what a re-encode writes.
        for (c, &r) in noisy.iter_mut().zip(&released) {
            if !r {
                *c = 0.0;
            }
        }
        let synopsis = ReleasedSynopsis {
            kind,
            fanout,
            height,
            domain,
            epsilon,
            eps_count,
            eps_median,
            mins,
            maxs,
            noisy,
            released,
            posted: None,
            cut,
        };
        Ok(if postprocessed {
            synopsis.with_ols()
        } else {
            synopsis
        })
    }
}

/// The count column one query call reads, plus the release mask that
/// guards it — resolved once per call, never per node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counts<'a> {
    values: &'a [f64],
    /// `None` when every node carries a count (posted and exact
    /// columns).
    released: Option<&'a [bool]>,
}

impl<'a> Counts<'a> {
    /// A column with a count on every node.
    pub(crate) fn dense(values: &'a [f64]) -> Self {
        Counts {
            values,
            released: None,
        }
    }

    /// The count of node `v`, or `None` where it was withheld.
    #[inline]
    pub(crate) fn get(&self, v: usize) -> Option<f64> {
        match self.released {
            Some(mask) if !mask[v] => None,
            _ => Some(self.values[v]),
        }
    }
}

impl<const D: usize> ReleasedSynopsis<D> {
    /// The released noisy counts, masked where withheld.
    pub(crate) fn noisy_counts(&self) -> Counts<'_> {
        Counts {
            values: &self.noisy,
            released: Some(&self.released),
        }
    }

    /// The `Auto` source: post-processed counts when available,
    /// otherwise the masked noisy counts.
    pub(crate) fn auto_counts(&self) -> Counts<'_> {
        match &self.posted {
            Some(posted) => Counts::dense(posted),
            None => self.noisy_counts(),
        }
    }

    /// Answers one query from `counts`.
    pub(crate) fn answer(&self, query: &Rect<D>, counts: Counts<'_>) -> f64 {
        let mut acc = 0.0;
        Descent::new(self, counts).descend(0, query, &mut acc, &mut None);
        acc
    }

    /// Answers one query from `counts` and reports which nodes
    /// contributed.
    pub(crate) fn answer_profiled(
        &self,
        query: &Rect<D>,
        counts: Counts<'_>,
    ) -> (f64, QueryProfile) {
        let mut acc = 0.0;
        let mut profile = QueryProfile {
            contained_per_level: vec![0; self.height + 1],
            partial_leaves: 0,
        };
        Descent::new(self, counts).descend(0, query, &mut acc, &mut Some(&mut profile));
        (acc, profile)
    }
}

/// One resolved kernel call: the arena, the count column it reads, and
/// where the bottom level starts.
struct Descent<'a, const D: usize> {
    arena: &'a ReleasedSynopsis<D>,
    counts: Counts<'a>,
    leaf_first: usize,
}

impl<'a, const D: usize> Descent<'a, D> {
    fn new(arena: &'a ReleasedSynopsis<D>, counts: Counts<'a>) -> Self {
        Descent {
            arena,
            counts,
            leaf_first: arena.leaf_first(),
        }
    }

    /// Whether queries treat `v` as a leaf: bottom level or pruning cut.
    #[inline]
    fn leafish(&self, v: usize) -> bool {
        v >= self.leaf_first || self.arena.cut[v]
    }

    /// Single-query descent (paper Section 4.1): add the count of every
    /// maximally contained node that has one, fall through withheld
    /// internal nodes to their children, and estimate partially covered
    /// effective leaves by the uniformity assumption. Contributions are
    /// added in depth-first preorder, which fixes every answer bit.
    fn descend(
        &self,
        v: usize,
        query: &Rect<D>,
        acc: &mut f64,
        profile: &mut Option<&mut QueryProfile>,
    ) {
        let node = self.arena.rect(v);
        if !node.intersects(query) {
            return;
        }
        let leafish = self.leafish(v);
        let count = self.counts.get(v);
        if node.inside(query) {
            if let Some(c) = count {
                if let Some(p) = profile.as_deref_mut() {
                    p.contained_per_level[self.arena.level_of(v)] += 1;
                }
                *acc += c;
                return;
            }
            if leafish {
                // A withheld effective leaf can contribute nothing.
                return;
            }
        } else if leafish {
            // Leaves that merely touch the query boundary (zero
            // overlap) contribute nothing and are not profiled.
            if let Some(c) = count {
                let fraction = node.overlap_fraction(query);
                if fraction > 0.0 {
                    if let Some(p) = profile.as_deref_mut() {
                        p.partial_leaves += 1;
                    }
                    *acc += c * fraction;
                }
            }
            return;
        }
        // Not an effective leaf, so `v` has a full block of children.
        let first = self.arena.fanout * v + 1;
        for child in first..first + self.arena.fanout {
            self.descend(child, query, acc, profile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CountBudget;
    use crate::geometry::Point;
    use crate::synopsis::{ParallelQuery, SpatialSynopsis};
    use crate::tree::PsdConfig;
    use crate::Parallelism;

    fn sample_points() -> (Rect<2>, Vec<Point>) {
        let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
        let pts = (0..2000)
            .map(|i| {
                Point::new(
                    (i % 53) as f64 * 64.0 / 53.0,
                    ((i * 7) % 61) as f64 * 64.0 / 61.0,
                )
            })
            .collect();
        (domain, pts)
    }

    fn workload(domain: &Rect, n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let fx = (i % 17) as f64 / 17.0;
                let fy = ((i * 5) % 13) as f64 / 13.0;
                let w = 4.0 + (i % 7) as f64 * 6.0;
                let h = 3.0 + (i % 11) as f64 * 4.0;
                Rect::new(
                    domain.min_x() + fx * (domain.width() - w),
                    domain.min_y() + fy * (domain.height() - h),
                    domain.min_x() + fx * (domain.width() - w) + w,
                    domain.min_y() + fy * (domain.height() - h) + h,
                )
                .unwrap()
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: query {i}: {x} vs {y}");
        }
    }

    #[test]
    fn flat_kernel_matches_tree_bit_for_bit_across_families() {
        // The arena loaded from bytes (OLS recomputed where flagged)
        // answers like the built tree: batched, single and sharded.
        let (domain, pts) = sample_points();
        let configs = [
            PsdConfig::quadtree(domain, 4, 0.5),
            PsdConfig::kd_standard(domain, 3, 0.5),
            PsdConfig::kd_hybrid(domain, 3, 0.5, 2),
            PsdConfig::kd_noisymean(domain, 3, 0.5),
            PsdConfig::hilbert_r(domain, 3, 0.5).with_hilbert_order(10),
        ];
        let queries = workload(&domain, 300);
        for config in configs {
            let tree = config.with_seed(21).build(&pts).unwrap();
            let flat = FlatSynopsis::<2>::from_bytes(&tree.release().to_flat_bytes()).unwrap();
            let expect = tree.query_batch(&queries);
            let kind = tree.kind();
            assert_bits_eq(
                &flat.query_batch(&queries),
                &expect,
                &format!("{kind} batch"),
            );
            let singles: Vec<f64> = queries.iter().map(|q| flat.query(q)).collect();
            assert_bits_eq(&singles, &expect, &format!("{kind} singles"));
            let parallel = flat.query_batch_parallel(&queries, Parallelism::fixed(3));
            assert_bits_eq(&parallel, &expect, &format!("{kind} parallel"));
        }
    }

    #[test]
    fn binary_roundtrip_is_bit_identical() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::kd_standard(domain, 4, 0.4)
            .with_prune_threshold(20.0)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert!(tree.node_ids().any(|v| tree.is_cut(v)), "no pruning");
        let released = tree.release();
        let blob = released.to_flat_bytes();
        let reloaded = ReleasedSynopsis::<2>::from_bytes(&blob).unwrap();
        let queries = workload(&domain, 200);
        assert_bits_eq(
            &reloaded.query_batch(&queries),
            &released.query_batch(&queries),
            "reloaded synopsis",
        );
        // Encoding is deterministic, so the blob round-trips exactly.
        assert_eq!(reloaded.to_flat_bytes(), blob, "re-encode drifted");
        for v in tree.node_ids() {
            assert_eq!(reloaded.is_cut(v), tree.is_cut(v), "cut {v}");
            assert_eq!(reloaded.noisy_count(v), tree.noisy_count(v), "count {v}");
            assert_eq!(reloaded.posted_count(v), tree.posted_count(v), "posted {v}");
        }
    }

    #[test]
    fn direct_arena_load_matches_flatten_for_unpostprocessed_trees() {
        // A non-post-processed artifact loads with no OLS column; it
        // must agree with the release it came from on answers, leaf
        // resolution (pruning cuts!), and layout.
        let (domain, pts) = sample_points();
        let tree = PsdConfig::kd_standard(domain, 4, 0.4)
            .with_postprocess(false)
            .with_prune_threshold(20.0)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert!(tree.node_ids().any(|v| tree.is_cut(v)), "no pruning");
        let released = tree.release();
        let direct = FlatSynopsis::<2>::from_bytes(&released.to_flat_bytes()).unwrap();
        let queries = workload(&domain, 200);
        assert_bits_eq(
            &direct.query_batch(&queries),
            &released.query_batch(&queries),
            "direct arena load",
        );
        assert_eq!(direct.resident_bytes(), released.resident_bytes());
        assert!(!direct.is_postprocessed());
    }

    #[test]
    fn profiled_queries_match_the_tree_path() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 3, 0.8)
            .with_seed(11)
            .build(&pts)
            .unwrap();
        let flat = FlatSynopsis::<2>::from_bytes(&tree.release().to_flat_bytes()).unwrap();
        for q in workload(&domain, 60) {
            let (a, pa) = tree.query_profiled(&q);
            let (b, pb) = flat.query_profiled(&q);
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(b.to_bits(), flat.query(&q).to_bits());
            assert_eq!(pa, pb, "profile diverged for {q:?}");
        }
    }

    #[test]
    fn withheld_counts_and_leaf_only_budgets_roundtrip() {
        let (domain, pts) = sample_points();
        let leafy = PsdConfig::quadtree(domain, 2, 0.5)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(2)
            .build(&pts)
            .unwrap();
        let blob = leafy.release().to_flat_bytes();
        let loaded = ReleasedSynopsis::<2>::from_bytes(&blob).unwrap();
        assert_eq!(loaded.noisy_count(0), None, "root stays withheld");
        assert!(!loaded.is_postprocessed());
        let queries = workload(&domain, 100);
        assert_bits_eq(
            &loaded.query_batch(&queries),
            &leafy.query_batch(&queries),
            "leaf-only",
        );
    }

    #[test]
    fn corrupt_artifacts_are_typed_errors_not_panics() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 2, 0.5)
            .with_seed(4)
            .build(&pts)
            .unwrap();
        let good = tree.release().to_flat_bytes();
        assert!(ReleasedSynopsis::<2>::from_bytes(&good).is_ok());

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ReleasedSynopsis::<2>::from_bytes(&bad),
            Err(DpsdError::Format { .. })
        ));
        // Flipped payload byte fails the checksum.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            ReleasedSynopsis::<2>::from_bytes(&bad),
            Err(DpsdError::Format { reason }) if reason.contains("checksum")
        ));
        // Wrong dimension rejects under a typed error.
        assert!(matches!(
            ReleasedSynopsis::<3>::from_bytes(&good),
            Err(DpsdError::Format { reason }) if reason.contains("dimensional")
        ));
        // Every truncation is an error, never a panic.
        for len in 0..good.len() {
            assert!(
                matches!(
                    ReleasedSynopsis::<2>::from_bytes(&good[..len]),
                    Err(DpsdError::Format { .. })
                ),
                "prefix of {len} bytes must be rejected"
            );
        }
        // Trailing garbage is rejected (checksum covers it, so corrupt
        // the length while keeping the checksum honest: re-hash).
        let mut padded = good.clone();
        padded.push(0);
        let sum = super::fnv1a(&padded[16..]);
        padded[8..16].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            ReleasedSynopsis::<2>::from_bytes(&padded),
            Err(DpsdError::Format { reason }) if reason.contains("trailing")
        ));
    }

    #[test]
    fn sniffing_helpers_read_the_header() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 2, 0.5)
            .with_seed(8)
            .build(&pts)
            .unwrap();
        let blob = tree.release().to_flat_bytes();
        assert!(is_flat_artifact(&blob));
        assert_eq!(peek_dims(&blob), Some(2));
        assert!(!is_flat_artifact(b"{\"format\":\"dpsd-synopsis\"}"));
        assert_eq!(peek_dims(b"DPSDBIN1"), None, "short header");
        assert_eq!(peek_dims(b"not binary"), None);
    }

    #[test]
    fn height_zero_tree_roundtrips() {
        let domain = Rect::new(0.0, 0.0, 8.0, 8.0).unwrap();
        let pts: Vec<Point> = (0..32).map(|i| Point::new(i as f64 / 4.0, 1.0)).collect();
        let tree = PsdConfig::quadtree(domain, 0, 1.0)
            .with_seed(1)
            .build(&pts)
            .unwrap();
        let blob = tree.release().to_flat_bytes();
        let flat = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
        assert_eq!(flat.node_count(), 1);
        let q = Rect::new(1.0, 0.0, 5.0, 4.0).unwrap();
        assert_eq!(flat.query(&q).to_bits(), tree.query(&q).to_bits());
    }
}
