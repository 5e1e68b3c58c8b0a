//! Private spatial decompositions (paper Sections 3.3, 6, 7).
//!
//! All PSDs share one representation: a **complete tree of fanout
//! `2^D`** over a `D`-dimensional domain (Section 6.2 flattens kd-trees
//! to fanout 4 in the plane so every family is comparable; the same
//! flattening performs one binary split per axis in any dimension)
//! stored in breadth-first ("heap") order — node 0 is the root and the
//! children of node `v` are `fv+1 ..= fv+f`. Per-node data lives in
//! parallel columns — axis-major box minima and maxima, noisy counts,
//! post-processed counts, release and cut flags — held by the
//! publishable [`ReleasedSynopsis`], which is also the `dpsd-bin`
//! layout and the arena the query kernel descends. A [`PsdTree`] is that
//! synopsis plus the owner-only exact counts; it dereferences to it, so
//! every structure accessor is defined once. The dimension defaults to
//! 2, so `PsdTree` written bare is the planar tree of the paper.
//!
//! Levels follow the paper's convention: leaves are level 0, the root is
//! level `h`.
//!
//! The five families are built by [`PsdConfig::build`]:
//!
//! | [`TreeKind`] | splits | medians | paper name |
//! |---|---|---|---|
//! | `Quadtree` | midpoint quadrants | — | quad-baseline/geo/post/opt |
//! | `KdStandard` | private medians everywhere | configurable (EM default) | kd-standard |
//! | `KdHybrid` | medians for `switch_levels`, then quadrants | EM default | kd-hybrid |
//! | `KdCell` | medians read off a noisy grid | grid | kd-cell \[26\] |
//! | `KdNoisyMean` | noisy means everywhere | noisy mean | kd-noisymean \[12\] |
//! | `KdPure` | exact medians, exact counts | — (not private) | kd-pure |
//! | `KdTrue` | exact medians, noisy counts | — (structure not private) | kd-true |
//! | `HilbertR` | private medians over Hilbert indices | EM default | Hilbert R-tree |

mod build;
mod hilbert_rtree;
mod kdcell;
pub mod prune;
pub mod released;

pub(crate) use build::{noisable, split_tree, LevelBudgets};
pub use build::{BuildError, PsdConfig, TreeKind};
pub use dpsd_hilbert::CurveKind;
pub use released::ReleasedSynopsis;

use crate::flat::Counts;
use crate::geometry::Rect;

/// Which per-node count column a query should read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountSource {
    /// Post-processed counts when available, otherwise noisy counts.
    #[default]
    Auto,
    /// The raw noisy counts `Y_v`.
    Noisy,
    /// The OLS-post-processed counts `beta_v` (panics if absent).
    Posted,
    /// The exact counts — **not private**; for evaluation only.
    True,
}

/// A built private spatial decomposition over a `D`-dimensional domain
/// (`D = 2` when elided).
///
/// The *private release* — kind, height, node boxes, the noisy counts of
/// released levels and (derived from those) the post-processed counts —
/// is the [`ReleasedSynopsis`] this tree dereferences to. The exact
/// counts are retained next to it so experiments can measure error, but
/// they are not part of the release.
#[derive(Debug, Clone)]
pub struct PsdTree<const D: usize = 2> {
    synopsis: ReleasedSynopsis<D>,
    true_counts: Vec<f64>,
}

impl<const D: usize> std::ops::Deref for PsdTree<D> {
    type Target = ReleasedSynopsis<D>;

    fn deref(&self) -> &ReleasedSynopsis<D> {
        &self.synopsis
    }
}

/// Most nodes one tree may hold, built or loaded (a height-12 fanout-4
/// tree is ~22M nodes; this guards against runaway configs and
/// artifacts).
pub(crate) const MAX_NODES: usize = 120_000_000;

/// Number of nodes in a complete tree of the given fanout and height.
///
/// # Panics
///
/// Panics on arithmetic overflow; callers handling untrusted heights
/// (release loaders, synopsis parsers) use
/// [`complete_tree_nodes_checked`] instead.
pub fn complete_tree_nodes(fanout: usize, height: usize) -> usize {
    // dpsd-allow(no-panic-in-lib): documented-panic convenience wrapper; untrusted inputs go through the _checked variant
    complete_tree_nodes_checked(fanout, height).expect("complete tree size overflows usize")
}

/// Overflow-aware variant of [`complete_tree_nodes`]: `None` when
/// `(f^{h+1} - 1) / (f - 1)` does not fit in `usize`.
pub fn complete_tree_nodes_checked(fanout: usize, height: usize) -> Option<usize> {
    let mut total = 0usize;
    let mut level = 1usize;
    for depth in 0..=height {
        total = total.checked_add(level)?;
        if depth < height {
            level = level.checked_mul(fanout)?;
        }
    }
    Some(total)
}

/// Index of the first node at `depth` (root depth 0) in heap order.
pub fn first_index_at_depth(fanout: usize, depth: usize) -> usize {
    if depth == 0 {
        0
    } else {
        complete_tree_nodes(fanout, depth - 1)
    }
}

impl<const D: usize> PsdTree<D> {
    /// Creates a tree from the builders' per-node columns, transposing
    /// the boxes once into the axis-major arena layout. Not part of the
    /// public construction API.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_columns(
        kind: TreeKind,
        fanout: usize,
        height: usize,
        domain: Rect<D>,
        rects: &[Rect<D>],
        true_counts: Vec<f64>,
        noisy: Vec<f64>,
        released: Vec<bool>,
        eps_count: Vec<f64>,
        eps_median: Vec<f64>,
        epsilon: f64,
    ) -> Self {
        let m = complete_tree_nodes(fanout, height);
        debug_assert_eq!(rects.len(), m);
        debug_assert_eq!(true_counts.len(), m);
        debug_assert_eq!(noisy.len(), m);
        debug_assert_eq!(released.len(), m);
        debug_assert!(
            noisy.iter().zip(&released).all(|(c, &r)| r || *c == 0.0),
            "withheld counts must read as zero"
        );
        let mut mins = vec![0.0; D * m];
        let mut maxs = vec![0.0; D * m];
        for (v, r) in rects.iter().enumerate() {
            for k in 0..D {
                mins[k * m + v] = r.min[k];
                maxs[k * m + v] = r.max[k];
            }
        }
        PsdTree {
            synopsis: ReleasedSynopsis {
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
                cut: vec![false; m],
            },
            true_counts,
        }
    }

    /// Exact number of points in node `v` — **not part of the private
    /// release**; retained for evaluation.
    pub fn true_count(&self, v: usize) -> f64 {
        self.true_counts[v]
    }

    /// The count column `source` reads, with the release mask guarding
    /// it; `None` only for [`CountSource::Posted`] before
    /// post-processing.
    pub(crate) fn column(&self, source: CountSource) -> Option<Counts<'_>> {
        match source {
            CountSource::Auto => Some(self.synopsis.auto_counts()),
            CountSource::Noisy => Some(self.synopsis.noisy_counts()),
            CountSource::Posted => self.synopsis.posted.as_deref().map(Counts::dense),
            CountSource::True => Some(Counts::dense(&self.true_counts)),
        }
    }

    /// Reads the count of `v` from the chosen source. Returns `None` only
    /// for `Noisy` reads of withheld levels and `Posted` reads before
    /// post-processing.
    pub fn count(&self, v: usize, source: CountSource) -> Option<f64> {
        self.column(source)?.get(v)
    }

    /// Installs post-processed counts (used by [`crate::postprocess`]).
    pub fn set_posted(&mut self, beta: Vec<f64>) {
        assert_eq!(
            beta.len(),
            self.node_count(),
            "posted column length mismatch"
        );
        self.synopsis.posted = Some(beta);
    }

    /// Marks node `v` as a cut point: its descendants are disabled and
    /// queries treat it as a leaf (Section 7 pruning).
    pub fn mark_cut(&mut self, v: usize) {
        assert!(v < self.node_count(), "node {v} out of range");
        self.synopsis.cut[v] = true;
    }

    /// Total number of data points (exact root count).
    pub fn total_points(&self) -> f64 {
        self.true_counts[0]
    }

    /// Exports the publishable part of this tree: a copy of its
    /// [`ReleasedSynopsis`], without the exact counts.
    pub fn release(&self) -> ReleasedSynopsis<D> {
        self.synopsis.clone()
    }

    /// Consumes the tree, keeping only the publishable part (no copy).
    pub(crate) fn into_release(self) -> ReleasedSynopsis<D> {
        self.synopsis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_tree_sizes() {
        assert_eq!(complete_tree_nodes(4, 0), 1);
        assert_eq!(complete_tree_nodes(4, 1), 5);
        assert_eq!(complete_tree_nodes(4, 2), 21);
        assert_eq!(complete_tree_nodes(4, 3), 85);
        assert_eq!(complete_tree_nodes(2, 3), 15);
        assert_eq!(complete_tree_nodes(4, 10), (4usize.pow(11) - 1) / 3);
    }

    fn shell(height: usize) -> PsdTree {
        let domain = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        let m = complete_tree_nodes(4, height);
        PsdTree::from_columns(
            TreeKind::Quadtree,
            4,
            height,
            domain,
            &vec![domain; m],
            vec![0.0; m],
            vec![0.0; m],
            vec![true; m],
            vec![0.1; height + 1],
            vec![0.0; height + 1],
            0.1 * (height as f64 + 1.0),
        )
    }

    #[test]
    fn heap_indexing() {
        let t = shell(2);
        assert_eq!(t.node_count(), 21);
        assert_eq!(t.children(0), 1..5);
        assert_eq!(t.children(1), 5..9);
        assert_eq!(t.children(4), 17..21);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(8), Some(1));
        assert_eq!(t.parent(20), Some(4));
        // Children of leaves are empty.
        assert_eq!(t.children(5), 0..0);
    }

    #[test]
    fn depth_and_level() {
        let t = shell(2);
        assert_eq!(t.depth_of(0), 0);
        assert_eq!(t.depth_of(1), 1);
        assert_eq!(t.depth_of(4), 1);
        assert_eq!(t.depth_of(5), 2);
        assert_eq!(t.depth_of(20), 2);
        assert_eq!(t.level_of(0), 2);
        assert_eq!(t.level_of(5), 0);
        // Leaves are at the bottom.
        assert!(!t.is_effective_leaf(0));
        assert!(!t.is_effective_leaf(4));
        assert!(t.is_effective_leaf(5));
        assert!(t.is_effective_leaf(20));
    }

    #[test]
    fn height_zero_tree_is_one_leaf() {
        let t = shell(0);
        assert_eq!(t.node_count(), 1);
        assert!(t.is_effective_leaf(0));
        assert_eq!(t.children(0), 0..0);
    }

    #[test]
    fn parent_child_roundtrip() {
        let t = shell(3);
        for v in t.node_ids() {
            for c in t.children(v) {
                assert_eq!(t.parent(c), Some(v));
                assert_eq!(t.depth_of(c), t.depth_of(v) + 1);
            }
        }
    }

    #[test]
    fn cut_marks_effective_leaves() {
        let mut t = shell(2);
        assert!(!t.is_effective_leaf(1));
        t.mark_cut(1);
        assert!(t.is_effective_leaf(1));
        assert!(t.is_cut(1));
    }

    #[test]
    fn count_sources() {
        let mut t = shell(1);
        assert_eq!(t.count(0, CountSource::True), Some(0.0));
        assert_eq!(t.count(0, CountSource::Noisy), Some(0.0));
        assert_eq!(t.count(0, CountSource::Posted), None);
        assert_eq!(t.count(0, CountSource::Auto), Some(0.0));
        t.set_posted(vec![5.0; t.node_count()]);
        assert_eq!(t.count(0, CountSource::Posted), Some(5.0));
        assert_eq!(t.count(0, CountSource::Auto), Some(5.0));
        assert!(t.is_postprocessed());
    }
}
