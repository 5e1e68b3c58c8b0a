//! The publishable synopsis — and the one node store every query runs
//! on.
//!
//! [`ReleasedSynopsis`] is the privacy boundary of the workspace as a
//! *type*: the raw-data-free part of a built [`PsdTree`] — node boxes,
//! released noisy counts, per-level budgets, pruning cuts — that
//! serializes to JSON or `dpsd-bin/v1`, round-trips exactly, and
//! answers queries **identically** to the tree it came from. A data
//! owner builds a tree once, publishes it, and any number of query
//! servers load it with [`ReleasedSynopsis::from_json`] or
//! [`ReleasedSynopsis::from_bytes`] and serve range counts through
//! [`SpatialSynopsis`](crate::synopsis::SpatialSynopsis) without ever
//! seeing a raw coordinate.
//!
//! It is also the serving arena. The complete tree is stored in heap
//! order as structure-of-arrays columns laid out exactly like the
//! `dpsd-bin/v1` wire format ([`crate::flat`]): axis-major node minima
//! and maxima (`mins[k * n + v]`), the noisy counts, the release and
//! pruning-cut bitmaps, and the OLS column when post-processed. A
//! [`PsdTree`] owns one of these plus the exact counts, so publishing
//! is a copy and a binary load moves the wire columns into place.
//!
//! Two deliberate exclusions keep the artifact safe and minimal:
//!
//! * **Exact counts never leave the owner.** The type has no
//!   exact-count column at all.
//! * **Post-processed counts are never serialized.** OLS is a
//!   deterministic function of the released noisy counts (paper
//!   Section 5), so the loaders recompute it bit-for-bit; a malformed
//!   file cannot smuggle in inconsistent "post-processed" values.
//!
//! Both loaders end in one checked constructor. Each decodes only its
//! own wire format — the JSON fields, or the `dpsd-bin` framing — into
//! columns, and the constructor then owns every rule about the release
//! itself: fanout `2^D` within the node cap, a finite non-negative
//! epsilon, `h + 1` finite non-negative entries in both level vectors,
//! a valid domain, complete-tree column lengths, a valid box per node,
//! finite counts, withheld counts read as `0.0`, level vectors that
//! spend no more along a path than the declared epsilon, and, for a
//! post-processed release, a released leaf level and count budgets
//! whose squares (the OLS weights) are normal `f64`s and whose OLS
//! sums cannot overflow, before OLS is recomputed. A corrupt artifact
//! therefore fails with the same [`DpsdError::Format`] reason in
//! either format.
//!
//! ```
//! use dpsd_core::geometry::{Point, Rect};
//! use dpsd_core::synopsis::SpatialSynopsis;
//! use dpsd_core::tree::{PsdConfig, ReleasedSynopsis};
//!
//! let pts: Vec<Point> = (0..300)
//!     .map(|i| Point::new((i % 20) as f64, (i / 20) as f64))
//!     .collect();
//! let domain = Rect::new(0.0, 0.0, 20.0, 15.0).unwrap();
//! let tree = PsdConfig::quadtree(domain, 3, 0.5).with_seed(3).build(&pts).unwrap();
//!
//! // Owner side: export.
//! let published = tree.release().to_json();
//!
//! // Server side: load and answer, identically to the source tree.
//! let synopsis = ReleasedSynopsis::from_json(&published).unwrap();
//! let q = Rect::new(2.0, 3.0, 11.0, 9.0).unwrap();
//! assert_eq!(synopsis.query(&q), tree.query(&q));
//! // Exact counts stayed home: the synopsis has no column for them.
//! assert_eq!(tree.true_count(0), 300.0);
//! ```
//!
//! [`PsdTree`]: crate::tree::PsdTree

use crate::budget::audit_path_epsilon;
use crate::error::DpsdError;
use crate::geometry::Rect;
use crate::postprocess::{ols_fits, ols_over_columns};
use crate::tree::build::noisable;
use crate::tree::{complete_tree_nodes_checked, first_index_at_depth, TreeKind, MAX_NODES};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Format tag written into every serialized synopsis.
pub const FORMAT: &str = "dpsd-synopsis";
/// Current wire version.
pub const VERSION: u64 = 1;

/// A published, raw-data-free spatial synopsis: the complete tree as
/// `dpsd-bin` columns (see the module docs).
///
/// Every constructor establishes the column invariants (complete-tree
/// length, valid boxes, finite counts, `0.0` where withheld), so queries
/// are infallible: the builders by construction, and both loaders by
/// ending in one checked constructor (see the module docs).
#[derive(Debug, Clone)]
pub struct ReleasedSynopsis<const D: usize = 2> {
    pub(crate) kind: TreeKind,
    pub(crate) fanout: usize,
    pub(crate) height: usize,
    pub(crate) domain: Rect<D>,
    pub(crate) epsilon: f64,
    pub(crate) eps_count: Vec<f64>,
    pub(crate) eps_median: Vec<f64>,
    /// Axis-major node minima: `mins[k * n + v]` is node `v`'s lower
    /// bound on axis `k`. This is the `dpsd-bin/v1` column layout, so
    /// the binary loader moves the decoded column into place.
    pub(crate) mins: Vec<f64>,
    /// Axis-major node maxima, laid out like `mins`.
    pub(crate) maxs: Vec<f64>,
    /// Released noisy counts, `0.0` where the level was withheld.
    pub(crate) noisy: Vec<f64>,
    /// Whether each node's noisy count was released.
    pub(crate) released: Vec<bool>,
    /// OLS-post-processed counts, when the source was post-processed.
    pub(crate) posted: Option<Vec<f64>>,
    /// Pruning cut points (Section 7): effective leaves.
    pub(crate) cut: Vec<bool>,
}

impl<const D: usize> ReleasedSynopsis<D> {
    /// A copy of `synopsis`, under the constructor name serving code
    /// uses through [`FlatSynopsis`](crate::flat::FlatSynopsis).
    pub fn from_released(synopsis: &ReleasedSynopsis<D>) -> Self {
        synopsis.clone()
    }

    /// The node count of a complete tree with `fanout` and `height`,
    /// if a release of dimension `D` may have it: `fanout` must be
    /// `2^D` and the tree must fit the node cap. Loaders call this
    /// before they allocate anything sized by the header.
    pub(crate) fn checked_node_count(fanout: usize, height: usize) -> Result<usize, DpsdError> {
        if fanout != 1 << D {
            return Err(DpsdError::format(format!(
                "fanout {fanout} must be 2^dims = {}",
                1usize << D
            )));
        }
        complete_tree_nodes_checked(fanout, height)
            .filter(|&m| m <= MAX_NODES)
            .ok_or_else(|| {
                DpsdError::format(format!(
                    "fanout {fanout} height {height} exceeds the node cap"
                ))
            })
    }

    /// The one checked constructor of a decoded release: checks every
    /// invariant a loader cannot trust its input to keep, reads withheld
    /// counts as `0.0`, and recomputes OLS when the source was
    /// `postprocessed`. Both wire formats end here, so each rule is
    /// written and run once per load.
    pub(crate) fn validated(mut self, postprocessed: bool) -> Result<Self, DpsdError> {
        let m = Self::checked_node_count(self.fanout, self.height)?;
        if !(self.epsilon.is_finite() && self.epsilon >= 0.0) {
            return Err(DpsdError::format(format!(
                "epsilon {} is not a finite, non-negative f64",
                self.epsilon
            )));
        }
        for (name, levels) in [
            ("eps_count", &self.eps_count),
            ("eps_median", &self.eps_median),
        ] {
            if levels.len() != self.height + 1 {
                return Err(DpsdError::format(format!(
                    "`{name}` must have height+1 = {} entries, got {}",
                    self.height + 1,
                    levels.len()
                )));
            }
            if let Some(e) = levels.iter().find(|e| !(e.is_finite() && **e >= 0.0)) {
                return Err(DpsdError::format(format!(
                    "`{name}` entry {e} is not a finite, non-negative f64"
                )));
            }
        }
        Rect::from_corners(self.domain.min, self.domain.max)
            .map_err(|e| DpsdError::format(format!("domain: {e}")))?;
        let node_columns = [self.noisy.len(), self.released.len(), self.cut.len()];
        if self.mins.len() != D * m
            || self.maxs.len() != D * m
            || node_columns.iter().any(|&len| len != m)
        {
            return Err(DpsdError::format(format!(
                "node columns must cover the complete tree ({m} nodes)"
            )));
        }
        for v in 0..m {
            let Rect { min, max } = self.rect(v);
            Rect::from_corners(min, max)
                .map_err(|e| DpsdError::format(format!("node {v}: {e}")))?;
        }
        if let Some(v) = self.noisy.iter().position(|c| !c.is_finite()) {
            return Err(DpsdError::format(format!(
                "node {v} count {} is not a finite f64",
                self.noisy[v]
            )));
        }
        // Withheld counts read as zero, whatever a crafted artifact put
        // there: that is what OLS weighs and what a re-encode writes.
        for (c, &r) in self.noisy.iter_mut().zip(&self.released) {
            if !r {
                *c = 0.0;
            }
        }
        // OLS weighs the leaf level, so it needs released leaf counts,
        // and it weighs each level by `ε²`, which must be a normal f64
        // and small enough for its sums, as in every build.
        if postprocessed {
            if self.eps_count[0] <= 0.0 {
                return Err(DpsdError::format(
                    "postprocessed synopsis must carry leaf-level count budget",
                ));
            }
            if let Some(e) = self.eps_count.iter().find(|&&e| e != 0.0 && !noisable(e)) {
                return Err(DpsdError::format(format!(
                    "`eps_count` entry {e} cannot weigh OLS: its square is not a normal f64"
                )));
            }
            if !ols_fits(self.fanout, &self.eps_count) {
                return Err(DpsdError::format(
                    "`eps_count` levels are too large for OLS: its sums could overflow",
                ));
            }
        }
        // A release may not spend more along a path than it declares.
        let audit = audit_path_epsilon(&self.eps_count, &self.eps_median)?;
        if !audit.within(self.epsilon) {
            return Err(DpsdError::format(format!(
                "level budgets spend {} along a path, more than the declared epsilon {}",
                audit.total(),
                self.epsilon
            )));
        }
        Ok(if postprocessed { self.with_ols() } else { self })
    }

    /// Installs the OLS column recomputed from the released counts.
    fn with_ols(mut self) -> Self {
        self.posted = Some(ols_over_columns(
            self.fanout,
            self.height,
            &self.eps_count,
            &self.noisy,
        ));
        self
    }

    /// The family this synopsis belongs to.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// Fanout `f = 2^D` (4 for every planar family).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Height `h` (leaves at level 0, root at level `h`).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The data domain the decomposition covers.
    pub fn domain(&self) -> Rect<D> {
        self.domain
    }

    /// Total privacy budget the release was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Per-level count budgets (index 0 = leaves).
    pub fn eps_count_levels(&self) -> &[f64] {
        &self.eps_count
    }

    /// Per-level median budgets (index 0 = leaves, always 0 there).
    pub fn eps_median_levels(&self) -> &[f64] {
        &self.eps_median
    }

    /// Number of nodes in the (complete) tree.
    pub fn node_count(&self) -> usize {
        self.noisy.len()
    }

    /// The root node id.
    pub fn root(&self) -> usize {
        0
    }

    /// Child node ids of `v` (empty iterator for leaves).
    pub fn children(&self, v: usize) -> std::ops::Range<usize> {
        if v >= self.leaf_first() {
            0..0
        } else {
            let first = self.fanout * v + 1;
            first..first + self.fanout
        }
    }

    /// Parent of `v`, or `None` for the root.
    pub fn parent(&self, v: usize) -> Option<usize> {
        if v == 0 {
            None
        } else {
            Some((v - 1) / self.fanout)
        }
    }

    /// Depth of node `v` (root = 0).
    pub fn depth_of(&self, v: usize) -> usize {
        let mut depth = 0;
        let mut first = 0usize; // first index at this depth
        let mut width = 1usize;
        while v >= first + width {
            first += width;
            width *= self.fanout;
            depth += 1;
        }
        depth
    }

    /// Level of node `v` in the paper's convention (leaves 0, root `h`).
    pub fn level_of(&self, v: usize) -> usize {
        self.height - self.depth_of(v)
    }

    /// First node of the bottom level: every node from here on is a
    /// leaf of the complete tree (the root alone at height 0).
    pub(crate) fn leaf_first(&self) -> usize {
        first_index_at_depth(self.fanout, self.height)
    }

    /// Whether queries should treat `v` as a leaf: either it is at the
    /// bottom level or pruning cut the tree here.
    pub fn is_effective_leaf(&self, v: usize) -> bool {
        v >= self.leaf_first() || self.cut[v]
    }

    /// The spatial cell of node `v`, read off the columns.
    #[inline]
    pub fn rect(&self, v: usize) -> Rect<D> {
        let n = self.node_count();
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for k in 0..D {
            min[k] = self.mins[k * n + v];
            max[k] = self.maxs[k * n + v];
        }
        Rect { min, max }
    }

    /// The released noisy count of `v`, or `None` if the level's budget
    /// was zero (count withheld).
    pub fn noisy_count(&self, v: usize) -> Option<f64> {
        self.released[v].then(|| self.noisy[v])
    }

    /// The post-processed count of `v`, if OLS has been run.
    pub fn posted_count(&self, v: usize) -> Option<f64> {
        self.posted.as_ref().map(|p| p[v])
    }

    /// Whether OLS post-processing has been applied.
    pub fn is_postprocessed(&self) -> bool {
        self.posted.is_some()
    }

    /// Whether `v` is a pruning cut point.
    pub fn is_cut(&self, v: usize) -> bool {
        self.cut[v]
    }

    /// Iterator over all node ids in breadth-first order.
    pub fn node_ids(&self) -> std::ops::Range<usize> {
        0..self.node_count()
    }

    /// Resident size of the node columns in bytes — what the load-time
    /// benches report as `resident_bytes`.
    pub fn resident_bytes(&self) -> usize {
        let n = self.node_count();
        let posted = self.posted.as_ref().map_or(0, Vec::len);
        8 * (self.mins.len() + self.maxs.len() + n + posted) + self.released.len() + self.cut.len()
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        // dpsd-allow(no-panic-in-lib): every count is finite (builds refuse any level epsilon without a normal square, so each Laplace draw is finite; loaders reject non-finite counts), and finite f64s always serialize
        serde_json::to_string(self).expect("synopsis values are always finite")
    }

    /// Parses and fully validates a published synopsis (see the module
    /// docs). Post-processing is recomputed from the released counts
    /// whenever the artifact says its source was post-processed, so
    /// query answers match the source tree exactly.
    pub fn from_json(text: &str) -> Result<Self, DpsdError> {
        serde_json::from_str(text).map_err(DpsdError::from)
    }

    /// Serializes to compact JSON. Explicitly-named alias of
    /// [`ReleasedSynopsis::to_json`] so call sites read as
    /// string-in/string-out without consulting the signature.
    pub fn to_json_string(&self) -> String {
        self.to_json()
    }

    /// Parses a published synopsis from JSON text. Explicitly-named
    /// alias of [`ReleasedSynopsis::from_json`].
    pub fn from_json_str(text: &str) -> Result<Self, DpsdError> {
        Self::from_json(text)
    }
}

/// Flattens a box into the wire layout: all minima, then all maxima.
/// For `D = 2` this is `[min_x, min_y, max_x, max_y]` — byte-identical
/// to the pre-generic wire format.
fn box_to_wire<const D: usize>(r: &Rect<D>) -> Vec<f64> {
    r.min.iter().chain(r.max.iter()).copied().collect()
}

impl<const D: usize> Serialize for ReleasedSynopsis<D> {
    fn serialize(&self) -> Value {
        let nodes: Vec<Value> = self
            .node_ids()
            .map(|v| {
                let mut node = vec![("rect".to_string(), box_to_wire(&self.rect(v)).serialize())];
                node.push(("count".to_string(), self.noisy_count(v).serialize()));
                if self.is_cut(v) {
                    node.push(("cut".to_string(), true.serialize()));
                }
                Value::Object(node)
            })
            .collect();
        Value::Object(vec![
            ("format".to_string(), FORMAT.serialize()),
            ("version".to_string(), VERSION.serialize()),
            ("kind".to_string(), self.kind.tag().serialize()),
            ("fanout".to_string(), self.fanout.serialize()),
            ("dims".to_string(), D.serialize()),
            ("height".to_string(), self.height.serialize()),
            ("domain".to_string(), box_to_wire(&self.domain).serialize()),
            ("epsilon".to_string(), self.epsilon.serialize()),
            ("eps_count".to_string(), self.eps_count.serialize()),
            ("eps_median".to_string(), self.eps_median.serialize()),
            (
                "postprocessed".to_string(),
                self.is_postprocessed().serialize(),
            ),
            ("nodes".to_string(), Value::Array(nodes)),
        ])
    }
}

fn field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, SerdeError> {
    value
        .get(name)
        .ok_or_else(|| SerdeError::msg(format!("missing field `{name}`")))
}

/// Reads a box as its wire corners (all minima, then all maxima),
/// leaving their validity to `ReleasedSynopsis::validated`.
fn corners<const D: usize>(value: &Value, what: &str) -> Result<Rect<D>, SerdeError> {
    let coords = Vec::<f64>::deserialize(value)
        .map_err(|_| SerdeError::msg(format!("{what} must be an array of numbers")))?;
    if coords.len() != 2 * D {
        return Err(SerdeError::msg(format!(
            "{what} must have {} numbers (minima then maxima), got {}",
            2 * D,
            coords.len()
        )));
    }
    let mut r = Rect {
        min: [0.0; D],
        max: [0.0; D],
    };
    r.min.copy_from_slice(&coords[..D]);
    r.max.copy_from_slice(&coords[D..]);
    Ok(r)
}

fn numbers(value: &Value, name: &str) -> Result<Vec<f64>, SerdeError> {
    Vec::<f64>::deserialize(value)
        .map_err(|_| SerdeError::msg(format!("`{name}` must be an array of numbers")))
}

fn to_serde(e: DpsdError) -> SerdeError {
    match e {
        DpsdError::Format { reason } => SerdeError::msg(reason),
        other => SerdeError::msg(other.to_string()),
    }
}

impl<const D: usize> Deserialize for ReleasedSynopsis<D> {
    /// Parses the JSON fields into columns and ends in the checked
    /// constructor, which owns every validity rule (see the module
    /// docs).
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let format = String::deserialize(field(value, "format")?)?;
        if format != FORMAT {
            return Err(SerdeError::msg(format!(
                "not a {FORMAT} artifact: `{format}`"
            )));
        }
        let version = u64::deserialize(field(value, "version")?)?;
        if version != VERSION {
            return Err(SerdeError::msg(format!("unsupported version {version}")));
        }
        let kind_s = String::deserialize(field(value, "kind")?)?;
        let kind = TreeKind::from_tag(&kind_s)
            .ok_or_else(|| SerdeError::msg(format!("unknown tree kind `{kind_s}`")))?;
        let fanout = usize::deserialize(field(value, "fanout")?)?;
        // `dims` is optional for backward compatibility: artifacts
        // serialized before the dimension-generic format are planar.
        let dims = match value.get("dims") {
            Some(d) => usize::deserialize(d)?,
            None => 2,
        };
        if dims != D {
            return Err(SerdeError::msg(format!(
                "artifact is {dims}-dimensional, expected {D}"
            )));
        }
        let height = usize::deserialize(field(value, "height")?)?;
        let m = Self::checked_node_count(fanout, height).map_err(to_serde)?;
        let domain = corners(field(value, "domain")?, "domain")?;
        let epsilon = f64::deserialize(field(value, "epsilon")?)?;
        let eps_count = numbers(field(value, "eps_count")?, "eps_count")?;
        let eps_median = numbers(field(value, "eps_median")?, "eps_median")?;
        let postprocessed = bool::deserialize(field(value, "postprocessed")?)?;
        let node_values = field(value, "nodes")?
            .as_array()
            .ok_or_else(|| SerdeError::msg("`nodes` must be an array"))?;
        if node_values.len() != m {
            return Err(SerdeError::msg(format!(
                "node count {} does not match the complete tree ({m} nodes)",
                node_values.len()
            )));
        }
        let mut mins = vec![0.0f64; D * m];
        let mut maxs = vec![0.0f64; D * m];
        let mut noisy = vec![0.0f64; m];
        let mut released = vec![false; m];
        let mut cut = vec![false; m];
        for (v, node) in node_values.iter().enumerate() {
            let r = corners::<D>(field(node, "rect")?, "node rect")?;
            for k in 0..D {
                mins[k * m + v] = r.min[k];
                maxs[k * m + v] = r.max[k];
            }
            if let Some(c) = Option::<f64>::deserialize(field(node, "count")?)? {
                noisy[v] = c;
                released[v] = true;
            }
            if let Some(flag) = node.get("cut") {
                cut[v] = bool::deserialize(flag)?;
            }
        }
        ReleasedSynopsis {
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
        }
        .validated(postprocessed)
        .map_err(to_serde)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CountBudget;
    use crate::geometry::Point;
    use crate::query::{range_query, range_query_batch};
    use crate::synopsis::SpatialSynopsis;
    use crate::tree::PsdConfig;

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

    #[test]
    fn json_roundtrip_answers_identically_for_every_family() {
        let (domain, pts) = sample_points();
        let configs = [
            PsdConfig::quadtree(domain, 4, 0.5),
            PsdConfig::kd_standard(domain, 3, 0.5),
            PsdConfig::kd_hybrid(domain, 3, 0.5, 2),
            PsdConfig::kd_noisymean(domain, 3, 0.5),
            PsdConfig::hilbert_r(domain, 3, 0.5).with_hilbert_order(10),
        ];
        let queries = workload(&domain, 200);
        for config in configs {
            let tree = config.with_seed(21).build(&pts).unwrap();
            let json = tree.release().to_json();
            let loaded: ReleasedSynopsis = ReleasedSynopsis::from_json(&json).unwrap();
            assert_eq!(loaded.kind(), tree.kind());
            for q in &queries {
                assert_eq!(
                    loaded.query(q),
                    range_query(&tree, q),
                    "{}: divergent answer for {q:?}",
                    tree.kind()
                );
            }
            // The batched path agrees too.
            let batch = loaded.query_batch(&queries);
            assert_eq!(batch, range_query_batch(&tree, &queries), "{}", tree.kind());
        }
    }

    #[test]
    fn export_strips_exact_counts() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 3, 1.0)
            .with_seed(1)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.true_count(0), pts.len() as f64);
        // The release carries no exact-count column, and the wire text
        // never carries the exact total.
        let json = tree.release().to_json();
        assert!(
            !json.contains(&format!("{}.0", pts.len())),
            "exact count leaked"
        );
    }

    #[test]
    fn pruned_and_withheld_structure_roundtrips() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::kd_standard(domain, 4, 0.4)
            .with_prune_threshold(20.0)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert!(
            tree.node_ids().any(|v| tree.is_cut(v)),
            "pruning had no effect"
        );
        let loaded: ReleasedSynopsis =
            ReleasedSynopsis::from_json(&tree.release().to_json()).unwrap();
        for v in tree.node_ids() {
            assert_eq!(loaded.is_cut(v), tree.is_cut(v), "cut {v}");
            assert_eq!(loaded.noisy_count(v), tree.noisy_count(v), "count {v}");
        }

        let leafy = PsdConfig::quadtree(domain, 2, 0.5)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(2)
            .build(&pts)
            .unwrap();
        let loaded: ReleasedSynopsis =
            ReleasedSynopsis::from_json(&leafy.release().to_json()).unwrap();
        assert_eq!(loaded.noisy_count(0), None, "withheld root stays withheld");
        assert!(!loaded.is_postprocessed());
    }

    #[test]
    fn malformed_synopses_are_rejected() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 2, 0.5)
            .with_seed(4)
            .build(&pts)
            .unwrap();
        let good = tree.release().to_json();

        let cases = [
            ("not json at all", "{"),
            (
                "wrong format tag",
                r#"{"format":"something-else","version":1}"#,
            ),
            (
                "missing fields",
                r#"{"format":"dpsd-synopsis","version":1}"#,
            ),
            (
                "future version",
                &good.replace("\"version\":1", "\"version\":99"),
            ),
            ("unknown kind", &good.replace("quadtree", "sorcery")),
            (
                "node count mismatch",
                &good.replace("\"height\":2", "\"height\":3"),
            ),
            (
                "absurd height",
                &good.replace("\"height\":2", "\"height\":4000000"),
            ),
            (
                "bad epsilon",
                &good.replace("\"epsilon\":0.5", "\"epsilon\":-1"),
            ),
        ];
        for (what, text) in cases {
            assert!(
                matches!(
                    ReleasedSynopsis::<2>::from_json(text),
                    Err(DpsdError::Format { .. })
                ),
                "{what} should be rejected"
            );
        }
        // The unmodified artifact still parses.
        assert!(ReleasedSynopsis::<2>::from_json(&good).is_ok());
    }

    #[test]
    fn postprocessed_flag_with_zero_leaf_budget_is_rejected_not_a_panic() {
        // A crafted artifact can claim `postprocessed: true` while
        // carrying no leaf-level count budget; OLS recomputation would
        // assert. The loader must reject it as a typed error.
        let (domain, pts) = sample_points();
        let leafy = PsdConfig::quadtree(domain, 2, 0.5)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(7)
            .build(&pts)
            .unwrap();
        let json = leafy.release().to_json();
        assert!(
            json.contains("\"eps_count\":[0.5,0.0,0.0]"),
            "fixture drifted: {json:.120}"
        );
        let crafted = json
            .replace("\"postprocessed\":false", "\"postprocessed\":true")
            .replace(
                "\"eps_count\":[0.5,0.0,0.0]",
                "\"eps_count\":[0.0,0.25,0.25]",
            );
        match ReleasedSynopsis::<2>::from_json(&crafted) {
            Err(DpsdError::Format { reason }) => {
                assert!(reason.contains("leaf-level"), "unexpected reason: {reason}")
            }
            other => panic!("crafted artifact must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn named_constructors_delegate_to_both_formats() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::kd_standard(domain, 3, 0.5)
            .with_seed(17)
            .build(&pts)
            .unwrap();
        let synopsis = tree.release();
        let queries = workload(&domain, 60);

        // JSON aliases are byte-for-byte the canonical serialization.
        assert_eq!(synopsis.to_json_string(), synopsis.to_json());
        let via_alias = ReleasedSynopsis::<2>::from_json_str(&synopsis.to_json_string()).unwrap();
        assert_eq!(via_alias.query_batch(&queries), tree.query_batch(&queries));

        // The binary format round-trips through the same type.
        let via_bin = ReleasedSynopsis::<2>::from_bytes(&synopsis.to_flat_bytes()).unwrap();
        assert_eq!(via_bin.kind(), tree.kind());
        for (a, b) in via_bin
            .query_batch(&queries)
            .iter()
            .zip(tree.query_batch(&queries))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn postprocessing_is_recomputed_not_trusted() {
        let (domain, pts) = sample_points();
        let tree = PsdConfig::quadtree(domain, 3, 0.5)
            .with_seed(6)
            .build(&pts)
            .unwrap();
        assert!(tree.is_postprocessed());
        let json = tree.release().to_json();
        // Posted counts are not on the wire at all.
        assert!(!json.contains("posted"));
        let loaded: ReleasedSynopsis = ReleasedSynopsis::from_json(&json).unwrap();
        for v in tree.node_ids() {
            let (a, b) = (
                loaded.posted_count(v).unwrap(),
                tree.posted_count(v).unwrap(),
            );
            assert_eq!(a.to_bits(), b.to_bits(), "posted {v}: {a} vs {b}");
        }
    }
}
