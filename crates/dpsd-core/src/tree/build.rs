//! PSD construction (paper Sections 3.3 and 6), in any dimension.
//!
//! [`PsdConfig`] gathers every knob the paper's experiments vary — tree
//! family, height, privacy budget, count-budget strategy, median
//! mechanism, hybrid switch level, cell-grid resolution, Hilbert order,
//! post-processing and pruning — and [`PsdConfig::build`] produces a
//! [`PsdTree`]. The config is const-generic over the dimension `D`
//! (default 2): the same builder produces the paper's planar trees, the
//! `2^d`-ary midpoint trees of Section 3.2 ("octree, etc."), and
//! data-dependent kd/hybrid trees over any number of attributes.
//!
//! Construction proceeds in three stages:
//!
//! 1. **Structure**: the domain box is recursively split down to height
//!    `h`. Data-independent kinds split at midpoints; data-dependent
//!    kinds spend the median budget of each level on private splits.
//!    Every flattened (fanout `2^D`) node performs one binary split per
//!    axis in sequence; the level's median budget is divided evenly over
//!    the `D` stages, and the splits of each stage operate on *disjoint*
//!    pieces, so parallel composition keeps the per-level spend at
//!    `eps_median[i]` (Section 6.2).
//!
//!    Every family runs one structure recursion ([`split_tree`]): it
//!    visits a node, cuts the node's piece along each axis in turn with
//!    the family's cut, and descends into the `2^D` children in index
//!    order, so every split value is what a cut returns. A piece is a
//!    bound (a box, or Hilbert-R's curve-index range) and a range in one
//!    of three stores, which the cuts partition:
//!
//!    - a point buffer ([`split_points`]), which is never sorted: the
//!      quadtree and a hybrid that switches at the root cut it at
//!      midpoints, and kd-cell at its grid rule;
//!    - the [`SortedColumns`] of a build with median levels: each axis
//!      sorted once per build into one `f64` value column and one `u32`
//!      point-index column (12 bytes per point per axis, plus a side bit
//!      and a 12-byte spill slot for half the points: 30.1 bytes per
//!      point at `D = 2`, 32 at peak while the columns are sorted).
//!      Every node owns the same range of every column, so a split stage
//!      hands the median mechanism a sorted slice without copying or
//!      sorting it, and splitting stably partitions the other columns.
//!      A hybrid's midpoint levels cut the same columns;
//!    - Hilbert-R's curve indices, sorted once the same way.
//!
//!    The stream cuts its boxes by running the recursion over no points.
//! 2. **Counts**: each node's exact count is perturbed with
//!    `Lap(1 / eps_count[level])`; levels with zero budget withhold
//!    their counts entirely (Section 4.2's "conserve the budget"). A
//!    level budget whose square is not a normal `f64` is refused up
//!    front (see [`BuildError::InvalidEpsilon`]).
//! 3. **Post-processing / pruning** (optional): Section 5's OLS and
//!    Section 7's pruning.
//!
//! Stages 2 and 3 are the build's tail, which a stream epoch also runs
//! over its counters (see [`crate::stream`]).
//!
//! Every family builds in every dimension. `KdCell` reads its splits
//! off a `D`-dimensional noisy grid
//! ([`crate::median::CellGridNd`]), and `HilbertR` linearizes the
//! domain with a `D`-dimensional space-filling curve
//! ([`dpsd_hilbert::NdCurve`]) — Hilbert by default, Z-order/Morton
//! when selected via [`PsdConfig::with_curve`].

use crate::budget::{audit_path_epsilon, median_levels, BudgetSplit, CountBudget};
use crate::error::DpsdError;
use crate::geometry::{Point, Rect};
use crate::mech::laplace::laplace_mechanism;
use crate::mech::sampling::SamplingPlan;
use crate::median::{CellGridNd, MedianConfig, MedianSelector, MAX_GRID_CELLS};
use crate::postprocess::ols_fits;
use crate::rng::seeded;
use crate::tree::{complete_tree_nodes_checked, PsdTree, MAX_NODES};
use dpsd_hilbert::CurveKind;
use rand::rngs::StdRng;
use std::fmt;

/// Largest `order * D` for Hilbert R-tree builds: curve indices feed
/// the median mechanisms as `f64`, which is exact up to 52 bits.
const MAX_HILBERT_INDEX_BITS: usize = 52;

/// The default Hilbert order for a `D`-dimensional build: the paper's
/// order 18 (Section 8.2) wherever it fits the
/// [`MAX_HILBERT_INDEX_BITS`] budget, the largest exact order
/// otherwise (17 at `D = 3`, 13 at `D = 4`).
fn default_hilbert_order(dims: usize) -> u32 {
    match MAX_HILBERT_INDEX_BITS.checked_div(dims) {
        Some(max_exact) => 18.min(max_exact as u32).max(1),
        None => 18, // D = 0 is rejected by validation anyway
    }
}

/// The PSD families of the paper's experimental study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Data-independent midpoint tree: quadtree in the plane, octree in
    /// 3D, `2^d`-ary in general (Sections 3.2-3.3).
    Quadtree,
    /// kd-tree with private medians at every level (Section 6).
    KdStandard,
    /// Hybrid: private medians for the top `switch_levels`, midpoint
    /// splits below (Sections 3.2, 6.2).
    KdHybrid,
    /// kd-tree with splits read from a fixed-resolution noisy grid
    /// (Xiao et al. \[26\]).
    KdCell,
    /// kd-tree splitting at noisy means (Inan et al. \[12\]).
    KdNoisyMean,
    /// Exact medians and exact counts — **not private**, the `kd-pure`
    /// baseline quantifying the cost of privacy.
    KdPure,
    /// Exact medians with noisy counts — structure **not private**, the
    /// `kd-true` diagnostic baseline.
    KdTrue,
    /// Hilbert R-tree: a 1-D decomposition over space-filling-curve
    /// indices whose node rectangles are index-range bounding boxes
    /// (Section 3.3).
    HilbertR,
}

impl TreeKind {
    /// Whether the family spends budget on structure (medians / grid).
    pub fn is_data_dependent(&self) -> bool {
        matches!(
            self,
            TreeKind::KdStandard
                | TreeKind::KdHybrid
                | TreeKind::KdCell
                | TreeKind::KdNoisyMean
                | TreeKind::HilbertR
        )
    }

    /// Every family, in `dpsd-bin` code order.
    const ALL: [TreeKind; 8] = [
        TreeKind::Quadtree,
        TreeKind::KdStandard,
        TreeKind::KdHybrid,
        TreeKind::KdCell,
        TreeKind::KdNoisyMean,
        TreeKind::KdPure,
        TreeKind::KdTrue,
        TreeKind::HilbertR,
    ];

    /// The kind table: each family's `dpsd-bin` code, its JSON `kind`
    /// tag and the name the paper's figures use. Codes and tags are
    /// wire formats, so a row is never renumbered or renamed.
    fn row(self) -> (u32, &'static str, &'static str) {
        match self {
            TreeKind::Quadtree => (0, "quadtree", "quadtree"),
            TreeKind::KdStandard => (1, "kd-standard", "kd-standard"),
            TreeKind::KdHybrid => (2, "kd-hybrid", "kd-hybrid"),
            TreeKind::KdCell => (3, "kd-cell", "kd-cell"),
            TreeKind::KdNoisyMean => (4, "kd-noisymean", "kd-noisymean"),
            TreeKind::KdPure => (5, "kd-pure", "kd-pure"),
            TreeKind::KdTrue => (6, "kd-true", "kd-true"),
            TreeKind::HilbertR => (7, "hilbert-r", "Hilbert-R"),
        }
    }

    /// Display name matching the paper's figures.
    pub fn paper_name(&self) -> &'static str {
        self.row().2
    }

    /// The family's `dpsd-bin` kind code.
    pub(crate) fn code(self) -> u32 {
        self.row().0
    }

    /// The family's JSON `kind` tag.
    pub(crate) fn tag(self) -> &'static str {
        self.row().1
    }

    /// The family with `dpsd-bin` kind code `code`.
    pub(crate) fn from_code(code: u32) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.code() == code)
    }

    /// The family with JSON `kind` tag `tag`.
    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

impl fmt::Display for TreeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Errors from [`PsdConfig::build`], and from [`CellGridNd::build`],
/// which names a bad grid, box or epsilon with the same kinds. Geometry
/// payloads are dimension-erased (`Vec<f64>` corners/coordinates) so the
/// one error type serves every `D`.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The domain box has zero volume.
    DegenerateDomain {
        /// Lower corner of the rejected domain.
        min: Vec<f64>,
        /// Upper corner of the rejected domain.
        max: Vec<f64>,
    },
    /// A private family's epsilon, or a level budget drawn from it,
    /// cannot be noised and weighed in `f64`: it is not positive, or
    /// its square (the level's OLS weight; `1 / ε` is its Laplace
    /// scale) is not a normal `f64`, or the count levels are so large
    /// that OLS sums over counts up to `2^64` could overflow. Carries
    /// the offending level, or the total when the levels overflow
    /// together.
    InvalidEpsilon(f64),
    /// The height would allocate more than the node cap.
    TooManyNodes { height: usize, nodes: usize },
    /// A point (coordinates carried) lies outside the declared domain.
    PointOutsideDomain(Vec<f64>),
    /// Hybrid switch level exceeds the height.
    InvalidSwitchLevel { switch_levels: usize, height: usize },
    /// Cell grid resolution invalid: an axis with zero cells, or a
    /// total cell count past the allocation cap (also refused by
    /// [`CellGridNd::build`]).
    InvalidGridResolution,
    /// Hilbert order invalid for the dimension: the order must be at
    /// least 1 and `order * D` at most 52, so curve indices stay exact
    /// in `f64` for the median mechanisms (at `D = 2` this is the
    /// classical `1..=26`).
    InvalidHilbertOrder(u32),
    /// The requested dimension is unsupported (`D = 0` is rejected for
    /// every kind).
    UnsupportedDimension { kind: TreeKind, dims: usize },
    /// More points (carried) than a private-median build's `u32` point
    /// indices can address.
    TooManyPoints(usize),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DegenerateDomain { min, max } => {
                write!(f, "domain has zero volume: {min:?} x {max:?}")
            }
            BuildError::InvalidEpsilon(e) => write!(
                f,
                "epsilon must be positive with a normal f64 square, got {e}"
            ),
            BuildError::TooManyNodes { height, nodes } => {
                write!(f, "height {height} needs {nodes} nodes (cap {MAX_NODES})")
            }
            BuildError::PointOutsideDomain(p) => {
                write!(f, "point {p:?} outside the declared domain")
            }
            BuildError::InvalidSwitchLevel {
                switch_levels,
                height,
            } => {
                write!(f, "switch level {switch_levels} exceeds height {height}")
            }
            BuildError::InvalidGridResolution => write!(
                f,
                "cell grid needs at least one cell per axis (and at most \
                 {MAX_GRID_CELLS} cells total)"
            ),
            BuildError::InvalidHilbertOrder(o) => {
                write!(
                    f,
                    "hilbert order {o} invalid: need order >= 1 and \
                     order * dims <= 52 (indices must stay exact in f64)"
                )
            }
            BuildError::UnsupportedDimension { kind, dims } => {
                write!(f, "{kind} does not support dimension {dims}")
            }
            BuildError::TooManyPoints(n) => write!(
                f,
                "{n} points exceed the {} a private-median build can index",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Configuration for building a PSD over a `D`-dimensional domain
/// (`D = 2` when elided). Construct with one of the family-specific
/// constructors, then chain `with_*` modifiers.
#[derive(Debug, Clone)]
pub struct PsdConfig<const D: usize = 2> {
    /// Tree family.
    pub kind: TreeKind,
    /// Data domain (all points must lie inside).
    pub domain: Rect<D>,
    /// Tree height `h` (leaves at level 0). Fanout is `2^D`.
    pub height: usize,
    /// Total privacy budget `eps`.
    pub epsilon: f64,
    /// Count-budget strategy across levels.
    pub count_budget: CountBudget,
    /// Count/median split (ignored by data-independent kinds).
    pub split: BudgetSplit,
    /// Median mechanism for data-dependent splits.
    pub median: MedianSelector,
    /// Number of data-dependent levels from the root (hybrid trees;
    /// `KdStandard` uses `height`).
    pub switch_levels: usize,
    /// Cell-grid resolution for `KdCell`: cells along axis 0 and along
    /// every further axis (`(nx, ny)` in the plane; see
    /// [`PsdConfig::grid_resolution_nd`]).
    pub grid_resolution: (usize, usize),
    /// Space-filling-curve order for `HilbertR`: `2^order` cells per
    /// axis. Defaults to the paper's 18 clamped so `order * D <= 52`
    /// (indices must stay exact in `f64`).
    pub hilbert_order: u32,
    /// Which space-filling curve `HilbertR` linearizes the domain with
    /// (Hilbert by default; Z-order/Morton as the cheaper,
    /// lower-locality alternative).
    pub curve: CurveKind,
    /// Run OLS post-processing after building (Section 5).
    pub postprocess: bool,
    /// Prune subtrees whose post-processed count falls below this
    /// threshold (Section 7; the paper uses 32 in Figure 5).
    pub prune_threshold: Option<f64>,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl<const D: usize> PsdConfig<D> {
    fn base(kind: TreeKind, domain: Rect<D>, height: usize, epsilon: f64) -> Self {
        PsdConfig {
            kind,
            domain,
            height,
            epsilon,
            count_budget: CountBudget::Geometric,
            split: if kind.is_data_dependent() {
                BudgetSplit::paper_default()
            } else {
                BudgetSplit::all_counts()
            },
            median: MedianSelector::plain(MedianConfig::Exponential),
            switch_levels: height,
            grid_resolution: (256, 256),
            hilbert_order: default_hilbert_order(D),
            curve: CurveKind::Hilbert,
            postprocess: true,
            prune_threshold: None,
            seed: 0,
        }
    }

    /// A private midpoint tree (quadtree / octree / `2^D`-ary; all
    /// budget to counts).
    pub fn quadtree(domain: Rect<D>, height: usize, epsilon: f64) -> Self {
        Self::base(TreeKind::Quadtree, domain, height, epsilon)
    }

    /// A kd-tree with exponential-mechanism medians at every level.
    pub fn kd_standard(domain: Rect<D>, height: usize, epsilon: f64) -> Self {
        Self::base(TreeKind::KdStandard, domain, height, epsilon)
    }

    /// A hybrid tree: medians for `switch_levels` levels, midpoint splits
    /// below. The paper found switching about half-way down best
    /// (Section 8.2).
    pub fn kd_hybrid(domain: Rect<D>, height: usize, epsilon: f64, switch_levels: usize) -> Self {
        let mut c = Self::base(TreeKind::KdHybrid, domain, height, epsilon);
        c.switch_levels = switch_levels;
        c
    }

    /// The cell-based kd-tree of Xiao et al. \[26\]. `grid` gives the
    /// cell resolution along axis 0 and along every further axis —
    /// `(nx, ny)` in the plane, `(n_0, n_rest)` in general (see
    /// [`PsdConfig::grid_resolution_nd`]); keep per-axis resolutions
    /// modest in higher dimensions, since total cells multiply.
    pub fn kd_cell(domain: Rect<D>, height: usize, epsilon: f64, grid: (usize, usize)) -> Self {
        let mut c = Self::base(TreeKind::KdCell, domain, height, epsilon);
        c.grid_resolution = grid;
        c
    }

    /// The noisy-mean kd-tree of Inan et al. \[12\].
    pub fn kd_noisymean(domain: Rect<D>, height: usize, epsilon: f64) -> Self {
        let mut c = Self::base(TreeKind::KdNoisyMean, domain, height, epsilon);
        c.median = MedianSelector::plain(MedianConfig::NoisyMean);
        c
    }

    /// The non-private `kd-pure` baseline (exact medians, exact counts).
    pub fn kd_pure(domain: Rect<D>, height: usize) -> Self {
        let mut c = Self::base(TreeKind::KdPure, domain, height, 1.0);
        c.median = MedianSelector::plain(MedianConfig::Exact);
        c.split = BudgetSplit::all_counts();
        c.postprocess = false;
        c
    }

    /// The `kd-true` diagnostic (exact medians, noisy counts).
    pub fn kd_true(domain: Rect<D>, height: usize, epsilon: f64) -> Self {
        let mut c = Self::base(TreeKind::KdTrue, domain, height, epsilon);
        c.median = MedianSelector::plain(MedianConfig::Exact);
        c.split = BudgetSplit::all_counts();
        c
    }

    /// A private Hilbert R-tree over a `D`-dimensional space-filling
    /// curve (Hilbert by default; see [`PsdConfig::with_curve`] for the
    /// Z-order alternative).
    pub fn hilbert_r(domain: Rect<D>, height: usize, epsilon: f64) -> Self {
        Self::base(TreeKind::HilbertR, domain, height, epsilon)
    }

    /// Sets the count-budget strategy.
    pub fn with_count_budget(mut self, budget: CountBudget) -> Self {
        self.count_budget = budget;
        self
    }

    /// Sets the count/median budget split.
    pub fn with_split(mut self, split: BudgetSplit) -> Self {
        self.split = split;
        self
    }

    /// Sets the median mechanism.
    pub fn with_median(mut self, median: MedianSelector) -> Self {
        self.median = median;
        self
    }

    /// Enables Bernoulli-sampling amplification for the median mechanism.
    pub fn with_median_sampling(mut self, plan: SamplingPlan) -> Self {
        self.median.sampling = Some(plan);
        self
    }

    /// Enables or disables OLS post-processing.
    pub fn with_postprocess(mut self, on: bool) -> Self {
        self.postprocess = on;
        self
    }

    /// Enables pruning with the given threshold (paper: 32).
    pub fn with_prune_threshold(mut self, m: f64) -> Self {
        self.prune_threshold = Some(m);
        self
    }

    /// Sets the space-filling-curve order.
    pub fn with_hilbert_order(mut self, order: u32) -> Self {
        self.hilbert_order = order;
        self
    }

    /// Selects the space-filling curve for `HilbertR` builds. The
    /// default Hilbert curve has the locality guarantee (consecutive
    /// indices are adjacent cells); [`CurveKind::ZOrder`] trades that
    /// for cheaper encoding.
    pub fn with_curve(mut self, curve: CurveKind) -> Self {
        self.curve = curve;
        self
    }

    /// The per-axis `KdCell` grid resolution: axis 0 takes
    /// `grid_resolution.0` cells, every further axis takes
    /// `grid_resolution.1` (so the planar `(nx, ny)` meaning is
    /// unchanged).
    pub fn grid_resolution_nd(&self) -> [usize; D] {
        let mut res = [self.grid_resolution.1; D];
        if D > 0 {
            res[0] = self.grid_resolution.0;
        }
        res
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the decomposition over `points`.
    ///
    /// Stage order: budgets → structure (+ exact counts) → the tail
    /// (noisy counts → optional OLS → optional pruning). See the module
    /// docs. Failures are [`DpsdError::Build`] wrapping the detailed
    /// [`BuildError`].
    pub fn build(&self, points: &[Point<D>]) -> Result<PsdTree<D>, DpsdError> {
        self.validate(points)?;
        let budgets = self.budgets()?;
        let mut rng = seeded(self.seed);
        // dpsd-allow(no-panic-in-lib): validate() already rejected any height whose node count overflows
        let m = complete_tree_nodes_checked(1 << D, self.height).expect("validated node count");
        let mut rects = vec![self.domain; m];
        let mut true_counts = vec![0.0f64; m];
        match self.kind {
            TreeKind::HilbertR => super::hilbert_rtree::build_structure_nd(
                self,
                &budgets.median,
                points,
                &mut rects,
                &mut true_counts,
                &mut rng,
            )?,
            TreeKind::KdCell => super::kdcell::build_structure_nd(
                self,
                budgets.median_total,
                points,
                &mut rects,
                &mut true_counts,
                &mut rng,
            )?,
            _ => build_axis_split_structure(
                self,
                &budgets.median,
                points,
                &mut rects,
                &mut true_counts,
                &mut rng,
            )?,
        }
        Ok(self.release_counts(budgets, &rects, true_counts, &mut rng))
    }

    /// The per-level count and median budgets, audited against the
    /// total epsilon.
    ///
    /// The split and the count strategy are checked first, as typed
    /// [`DpsdError::InvalidParameter`] errors: both are public settings
    /// a caller can fill in by hand. Then any budget that is not
    /// [`noisable`] is refused as [`BuildError::InvalidEpsilon`]: the
    /// total first, so no level can underflow to a silent zero, then
    /// every non-zero level; so is a count vector whose OLS sums could
    /// overflow (see [`ols_fits`]), carrying the total. Last, the path
    /// audit must find the levels within the total.
    pub(crate) fn budgets(&self) -> Result<LevelBudgets, DpsdError> {
        self.split.check()?;
        self.count_budget.check(self.height)?;
        if self.is_private() && !noisable(self.epsilon) {
            return Err(BuildError::InvalidEpsilon(self.epsilon).into());
        }
        let h = self.height;
        let (eps_count_total, eps_median_total) = match self.kind {
            TreeKind::KdPure => (0.0, 0.0),
            TreeKind::Quadtree | TreeKind::KdTrue => (self.epsilon, 0.0),
            _ => self.split.apply(self.epsilon),
        };
        let count: Vec<f64> = if eps_count_total > 0.0 {
            self.count_budget.levels_for_dims(h, eps_count_total, D)
        } else {
            vec![0.0; h + 1]
        };
        let dd_levels = match self.kind {
            TreeKind::KdStandard | TreeKind::KdNoisyMean | TreeKind::HilbertR => h,
            TreeKind::KdHybrid => self.switch_levels.min(h),
            // kd-cell spends its median share on the grid as a lump; the
            // per-level vector stays zero and the grid epsilon is
            // reported through `eps_median_levels` at the root level.
            _ => 0,
        };
        let median: Vec<f64> = if self.kind == TreeKind::KdCell && eps_median_total > 0.0 {
            let mut v = vec![0.0; h + 1];
            v[h] = eps_median_total; // one grid release, composed once per path
            v
        } else if dd_levels > 0 && eps_median_total > 0.0 {
            median_levels(h, dd_levels, eps_median_total)
        } else {
            vec![0.0; h + 1]
        };
        if let Some(&e) = count
            .iter()
            .chain(&median)
            .find(|&&e| e != 0.0 && !noisable(e))
        {
            return Err(BuildError::InvalidEpsilon(e).into());
        }
        if !ols_fits(1 << D, &count) {
            return Err(BuildError::InvalidEpsilon(self.epsilon).into());
        }
        if self.is_private() {
            let audit = audit_path_epsilon(&count, &median)?;
            if !audit.within(self.epsilon) {
                return Err(DpsdError::invalid_parameter(
                    "epsilon",
                    format!(
                        "level budgets spend {} along a path, more than the total {}",
                        audit.total(),
                        self.epsilon
                    ),
                ));
            }
        }
        Ok(LevelBudgets {
            count,
            median,
            median_total: eps_median_total,
        })
    }

    /// Whether the family adds noise at all (everything but `kd-pure`).
    fn is_private(&self) -> bool {
        self.kind != TreeKind::KdPure
    }

    /// The build's tail over a finished structure: noisy counts, the
    /// tree columns, then optional OLS and pruning. A stream epoch runs
    /// exactly this over its counters (see [`crate::stream`]).
    pub(crate) fn release_counts(
        &self,
        budgets: LevelBudgets,
        rects: &[Rect<D>],
        true_counts: Vec<f64>,
        rng: &mut StdRng,
    ) -> PsdTree<D> {
        let m = true_counts.len();
        let mut noisy = vec![0.0f64; m];
        let mut released = vec![false; m];
        if self.is_private() {
            apply_count_noise(
                1 << D,
                self.height,
                &true_counts,
                &budgets.count,
                &mut noisy,
                &mut released,
                rng,
            );
        } else {
            noisy.copy_from_slice(&true_counts);
            released.fill(true);
        }
        let mut tree = PsdTree::from_columns(
            self.kind,
            1 << D,
            self.height,
            self.domain,
            rects,
            true_counts,
            noisy,
            released,
            budgets.count,
            budgets.median,
            if self.is_private() { self.epsilon } else { 0.0 },
        );
        if self.postprocess && self.is_private() {
            let beta = crate::postprocess::ols_postprocess(&tree);
            tree.set_posted(beta);
        }
        if let Some(threshold) = self.prune_threshold {
            super::prune::prune_below(&mut tree, threshold);
        }
        tree
    }

    /// The structural checks, each a [`BuildError`] in this order:
    /// dimension, domain, node count, switch level, grid, curve order,
    /// then the first point outside the domain.
    pub(crate) fn validate(&self, points: &[Point<D>]) -> Result<(), BuildError> {
        if D == 0 {
            return Err(BuildError::UnsupportedDimension {
                kind: self.kind,
                dims: D,
            });
        }
        if self.domain.area() <= 0.0 {
            return Err(BuildError::DegenerateDomain {
                min: self.domain.min.to_vec(),
                max: self.domain.max.to_vec(),
            });
        }
        match complete_tree_nodes_checked(1 << D, self.height) {
            Some(nodes) if nodes <= MAX_NODES => {}
            got => {
                return Err(BuildError::TooManyNodes {
                    height: self.height,
                    nodes: got.unwrap_or(usize::MAX),
                })
            }
        }
        if self.kind == TreeKind::KdHybrid && self.switch_levels > self.height {
            return Err(BuildError::InvalidSwitchLevel {
                switch_levels: self.switch_levels,
                height: self.height,
            });
        }
        if self.kind == TreeKind::KdCell {
            CellGridNd::<D>::cell_count(self.grid_resolution_nd())?;
        }
        if self.kind == TreeKind::HilbertR
            && (self.hilbert_order == 0 || self.hilbert_order as usize * D > MAX_HILBERT_INDEX_BITS)
        {
            return Err(BuildError::InvalidHilbertOrder(self.hilbert_order));
        }
        if let Some(p) = points.iter().find(|p| !self.domain.contains(**p)) {
            return Err(BuildError::PointOutsideDomain(p.coords.to_vec()));
        }
        Ok(())
    }
}

/// Whether `f64` can noise and weigh a privacy budget `eps`: its
/// Laplace scale `1 / eps` must be finite and its OLS weight `eps²`
/// finite and non-zero, and a normal `eps²` bounds both.
pub(crate) fn noisable(eps: f64) -> bool {
    eps > 0.0 && (eps * eps).is_normal()
}

/// A build's per-level budgets (index 0 = leaves).
pub(crate) struct LevelBudgets {
    /// Count budget of each level.
    count: Vec<f64>,
    /// Median budget of each level.
    median: Vec<f64>,
    /// The whole median share, which kd-cell spends on its grid.
    median_total: f64,
}

/// A piece of a node: its bound (a box, or Hilbert-R's curve-index
/// range) and its `(start, len)` range in the store the cuts partition.
pub(crate) type Piece<B> = (B, usize, usize);

/// Builds the structure of axis-splitting trees (midpoint and kd
/// variants).
///
/// A flattened node splits its box along every axis in sequence — axis 0
/// first, then axis 1 on each half, and so on — producing `2^D` children
/// whose index uses axis 0 as the most significant bit (the order
/// [`Rect::orthant_of`] names, which the stream's descent relies on). At
/// `D = 2` this reproduces the planar pipeline exactly: one x-split, two
/// y-splits, children ordered `ll, lh, rl, rh`, the level's median budget
/// halved between the two stages, and the identical RNG consumption
/// order.
///
/// A build with median levels runs over [`SortedColumns`], which sort
/// each axis once for the whole build, so a split stage hands the
/// selector its piece's values as an already-sorted slice. The selector
/// sees the same sequence a per-node sort would give, because a
/// `total_cmp` sort is fixed by the multiset of values, and it is called
/// in the same depth-first order. Below a hybrid's `switch_levels` the
/// same cut takes the midpoint and partitions the same columns, which
/// draws no randomness. A build without median levels (the quadtree,
/// and a hybrid that switches at the root) never sorts: it runs
/// [`split_points`] with the midpoint rule over one copy of the points.
fn build_axis_split_structure<const D: usize>(
    config: &PsdConfig<D>,
    eps_median: &[f64],
    points: &[Point<D>],
    rects: &mut [Rect<D>],
    true_counts: &mut [f64],
    rng: &mut StdRng,
) -> Result<(), BuildError> {
    let median_depths = match config.kind {
        TreeKind::KdStandard | TreeKind::KdNoisyMean | TreeKind::KdPure | TreeKind::KdTrue => {
            config.height
        }
        TreeKind::KdHybrid => config.switch_levels.min(config.height),
        _ => 0,
    };
    if median_depths == 0 {
        split_points(
            config.height,
            config.domain,
            &mut points.to_vec(),
            rects,
            true_counts,
            |axis, r| r.midpoint(axis),
        );
        return Ok(());
    }
    let mut cols = SortedColumns::new(points)?;
    // kd-pure / kd-true use exact medians: any positive epsilon is
    // accepted by the selector but unused. Private kinds divide the
    // level's budget evenly over the D split stages.
    let exact = matches!(config.kind, TreeKind::KdPure | TreeKind::KdTrue);
    split_tree::<D, _>(
        config.height,
        0,
        0,
        (config.domain, 0, points.len()),
        &mut Vec::new(),
        &mut |v, _, (r, _, len)| {
            rects[v] = r;
            true_counts[v] = len as f64;
        },
        &mut |depth, axis, (r, start, len)| {
            let split = if depth < median_depths {
                let eps_stage = if exact {
                    1.0
                } else {
                    eps_median[config.height - depth] / D as f64
                };
                config.median.select(
                    rng,
                    &cols.vals[axis][start..start + len],
                    r.min[axis],
                    r.max[axis],
                    eps_stage.max(f64::MIN_POSITIVE),
                )
            } else {
                r.midpoint(axis)
            };
            let (r_lo, r_hi) = r.split_at(axis, split);
            (r_lo, r_hi, cols.partition(axis, start, len, r_lo.max[axis]))
        },
    );
    Ok(())
}

/// The one structure recursion, from node `v` at `depth` down: every
/// family cuts its nodes here. It calls `visit(v, depth, piece)`, then
/// cuts the node's piece along every axis in turn, each piece with
/// `cut(depth, axis, piece)`, which returns the two child bounds and the
/// length of the low side (moved to the front of the piece's range by
/// whatever store it partitions), and recurses into the `2^D` children
/// in index order. So this function alone fixes how a node becomes its
/// children and the order in which every family draws randomness.
/// Piece vectors are recycled through `pool`, so a build allocates
/// `O(depth)` of them rather than two per node. Depth <= 12, so stack
/// use is trivial.
pub(crate) fn split_tree<const D: usize, B: Copy>(
    height: usize,
    v: usize,
    depth: usize,
    piece: Piece<B>,
    pool: &mut Vec<Vec<Piece<B>>>,
    visit: &mut impl FnMut(usize, usize, Piece<B>),
    cut: &mut impl FnMut(usize, usize, Piece<B>) -> (B, B, usize),
) {
    visit(v, depth, piece);
    if depth == height {
        return;
    }
    let mut pieces = pool.pop().unwrap_or_default();
    pieces.push(piece);
    for axis in 0..D {
        let mut next = pool.pop().unwrap_or_default();
        for &piece in pieces.iter() {
            let (_, start, len) = piece;
            let (lo, hi, mid) = cut(depth, axis, piece);
            next.push((lo, start, mid));
            next.push((hi, start + mid, len - mid));
        }
        pieces.clear();
        pool.push(std::mem::replace(&mut pieces, next));
    }
    let first_child = (1usize << D) * v + 1;
    for (j, &child) in pieces.iter().enumerate() {
        split_tree::<D, B>(height, first_child + j, depth + 1, child, pool, visit, cut);
    }
    pieces.clear();
    pool.push(pieces);
}

/// [`split_tree`] over a point buffer, from the root: each piece is cut
/// at `split(axis, box)`, and each cut partitions the piece's points in
/// place (`coord < cut` goes low, so a point on a cut lands on its high
/// side). The quadtree and a hybrid that switches at the root pass the
/// midpoint, and kd-cell its grid rule.
pub(crate) fn split_points<const D: usize>(
    height: usize,
    domain: Rect<D>,
    pts: &mut [Point<D>],
    rects: &mut [Rect<D>],
    true_counts: &mut [f64],
    mut split: impl FnMut(usize, &Rect<D>) -> f64,
) {
    split_tree::<D, _>(
        height,
        0,
        0,
        (domain, 0, pts.len()),
        &mut Vec::new(),
        &mut |v, _, (r, _, len)| {
            rects[v] = r;
            true_counts[v] = len as f64;
        },
        &mut |_, axis, (r, start, len)| {
            let (r_lo, r_hi) = r.split_at(axis, split(axis, &r));
            let boundary = r_lo.max[axis];
            let mid =
                partition_in_place(&mut pts[start..start + len], |p| p.coords[axis] < boundary);
            (r_lo, r_hi, mid)
        },
    );
}

/// Every point's coordinates, sorted once per axis for a whole build.
///
/// Column `axis` is `vals[axis]`, the coordinates in [`f64::total_cmp`]
/// order, beside `ids[axis]`, the index of the point each came from. A
/// node owns the same `[start, start + len)` range in every column, so
/// its values along any axis are always one sorted slice. Splitting a
/// range at a boundary along `axis` leaves that axis's column as it is
/// (the low side is a prefix) and stably partitions the other `D - 1`
/// columns by a per-point side bit, which keeps each of them sorted.
/// The median cuts and a hybrid's midpoint cuts split it alike, so a
/// hybrid's points stay in these columns from the root to the leaves.
///
/// Scratch per point: 12 bytes per axis (an `f64` and a `u32`), one
/// side bit, and a 12-byte spill slot for at most half the points, so
/// 30.1 bytes at `D = 2`. Building a column sorts `(f64, u32)` pairs,
/// 16 bytes padded; the last column gathers its values from the points
/// after its pairs are freed, which caps that phase at `12 · D + 8`
/// bytes (32 at `D = 2`).
struct SortedColumns<const D: usize> {
    vals: [Vec<f64>; D],
    ids: [Vec<u32>; D],
    /// Side of each point in the split under way: bit set = low side.
    low: Vec<u64>,
    /// The smaller side of a stable partition, parked while the larger
    /// side is packed in place (`n / 2 + 1` slots).
    spill_vals: Vec<f64>,
    spill_ids: Vec<u32>,
}

impl<const D: usize> SortedColumns<D> {
    fn new(points: &[Point<D>]) -> Result<Self, BuildError> {
        let n = u32::try_from(points.len()).map_err(|_| BuildError::TooManyPoints(points.len()))?;
        let mut vals: [Vec<f64>; D] = std::array::from_fn(|_| Vec::new());
        let mut ids: [Vec<u32>; D] = std::array::from_fn(|_| Vec::new());
        for axis in 0..D {
            let mut keyed: Vec<(f64, u32)> = points
                .iter()
                .zip(0..n)
                .map(|(p, id)| (p.coords[axis], id))
                .collect();
            keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            ids[axis] = keyed.iter().map(|&(_, id)| id).collect();
            if axis + 1 < D {
                vals[axis] = keyed.iter().map(|&(v, _)| v).collect();
            } else {
                drop(keyed);
                vals[axis] = ids[axis]
                    .iter()
                    .map(|&id| points[id as usize].coords[axis])
                    .collect();
            }
        }
        let slots = points.len() / 2 + 1;
        Ok(SortedColumns {
            vals,
            ids,
            low: vec![0; points.len().div_ceil(64)],
            spill_vals: vec![0.0; slots],
            spill_ids: vec![0; slots],
        })
    }

    /// Splits the range `[start, start + len)` at `boundary` along
    /// `axis` and returns the length of its low side, the values
    /// `< boundary`: the same set `partition_in_place` would move to the
    /// front.
    fn partition(&mut self, axis: usize, start: usize, len: usize, boundary: f64) -> usize {
        let range = start..start + len;
        let mid = self.vals[axis][range.clone()].partition_point(|&x| x < boundary);
        if D == 1 || mid == 0 || mid == len {
            return mid;
        }
        let SortedColumns {
            vals,
            ids,
            low,
            spill_vals,
            spill_ids,
        } = self;
        let (low_ids, high_ids) = ids[axis][range.clone()].split_at(mid);
        for &id in low_ids {
            low[id as usize / 64] |= 1 << (id % 64);
        }
        for &id in high_ids {
            low[id as usize / 64] &= !(1 << (id % 64));
        }
        // Park the smaller side, so the spill never holds more than half
        // the points, and pack the larger one in place.
        let keep_low = mid > len - mid;
        let kept = if keep_low { mid } else { len - mid };
        for other in (0..D).filter(|&k| k != axis) {
            let vals = &mut vals[other][range.clone()];
            let ids = &mut ids[other][range.clone()];
            // One branch-free forward pass: every entry is written to
            // both the packed front and the spill, and only its own
            // side's cursor advances (`w <= r`, so nothing unread is
            // overwritten).
            let (mut w, mut s) = (0, 0);
            for r in 0..len {
                let (v, id) = (vals[r], ids[r]);
                let keep = (low[id as usize / 64] >> (id % 64) & 1 == 1) == keep_low;
                vals[w] = v;
                ids[w] = id;
                spill_vals[s] = v;
                spill_ids[s] = id;
                w += usize::from(keep);
                s += usize::from(!keep);
            }
            if !keep_low {
                vals.copy_within(..kept, mid);
                ids.copy_within(..kept, mid);
            }
            let parked = if keep_low { mid..len } else { 0..mid };
            vals[parked.clone()].copy_from_slice(&spill_vals[..len - kept]);
            ids[parked].copy_from_slice(&spill_ids[..len - kept]);
        }
        mid
    }
}

/// Hoare-style in-place partition: elements satisfying `pred` move to the
/// front; returns the boundary index.
fn partition_in_place<T, F: Fn(&T) -> bool>(slice: &mut [T], pred: F) -> usize {
    let mut lo = 0usize;
    let mut hi = slice.len();
    while lo < hi {
        if pred(&slice[lo]) {
            lo += 1;
        } else {
            hi -= 1;
            slice.swap(lo, hi);
        }
    }
    lo
}

/// Adds Laplace noise to every node of a released level; withholds counts
/// of zero-budget levels.
fn apply_count_noise(
    fanout: usize,
    height: usize,
    true_counts: &[f64],
    eps_count: &[f64],
    noisy: &mut [f64],
    released: &mut [bool],
    rng: &mut StdRng,
) {
    let mut first = 0usize;
    let mut width = 1usize;
    for depth in 0..=height {
        let level = height - depth;
        let eps = eps_count[level];
        if eps > 0.0 {
            for v in first..first + width {
                noisy[v] = laplace_mechanism(rng, true_counts[v], 1.0, eps);
                released[v] = true;
            }
        }
        first += width;
        width *= fanout;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synopsis::SpatialSynopsis;
    use crate::tree::CountSource;

    fn grid_points(n_side: usize, domain: &Rect) -> Vec<Point> {
        let mut pts = Vec::with_capacity(n_side * n_side);
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point::new(
                    domain.min_x() + (i as f64 + 0.5) / n_side as f64 * domain.width(),
                    domain.min_y() + (j as f64 + 0.5) / n_side as f64 * domain.height(),
                ));
            }
        }
        pts
    }

    fn unit_domain() -> Rect {
        Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()
    }

    #[test]
    fn partition_in_place_works() {
        let mut v = vec![5, 1, 4, 2, 3];
        let mid = partition_in_place(&mut v, |&x| x < 3);
        assert_eq!(mid, 2);
        assert!(v[..mid].iter().all(|&x| x < 3));
        assert!(v[mid..].iter().all(|&x| x >= 3));
        // Degenerate cases.
        assert_eq!(partition_in_place::<i32, _>(&mut [], |_| true), 0);
        let mut one = [1];
        assert_eq!(partition_in_place(&mut one, |&x| x < 0), 0);
        assert_eq!(partition_in_place(&mut one, |&x| x > 0), 1);
    }

    /// Structural invariants every built tree must satisfy.
    fn check_invariants<const D: usize>(tree: &PsdTree<D>, n_points: usize) {
        // Root covers the domain and counts all points.
        assert_eq!(tree.rect(0), tree.domain());
        assert_eq!(tree.true_count(0), n_points as f64);
        for v in tree.node_ids() {
            let children: Vec<usize> = tree.children(v).collect();
            if children.is_empty() {
                continue;
            }
            // Exact counts are consistent.
            let child_sum: f64 = children.iter().map(|&c| tree.true_count(c)).sum();
            assert_eq!(
                child_sum,
                tree.true_count(v),
                "node {v} count {} != child sum {child_sum}",
                tree.true_count(v)
            );
            // Children nest inside the parent (axis-splitting families).
            if tree.kind() != TreeKind::HilbertR {
                for &c in &children {
                    assert!(
                        tree.rect(c).inside(&tree.rect(v)),
                        "child {c} rect escapes parent {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn quadtree_build_invariants() {
        let domain = unit_domain();
        let pts = grid_points(32, &domain);
        let tree = PsdConfig::quadtree(domain, 3, 1.0)
            .with_seed(1)
            .build(&pts)
            .unwrap();
        check_invariants(&tree, pts.len());
        // Quadtree cells at depth d have width 64 / 2^d.
        for v in tree.node_ids() {
            let d = tree.depth_of(v) as f64;
            let expect = 64.0 / 2f64.powf(d);
            assert!((tree.rect(v).width() - expect).abs() < 1e-9);
            assert!((tree.rect(v).height() - expect).abs() < 1e-9);
        }
        assert!(tree.is_postprocessed());
    }

    #[test]
    fn kd_variants_build_invariants() {
        let domain = unit_domain();
        let pts = grid_points(40, &domain);
        for config in [
            PsdConfig::kd_standard(domain, 3, 1.0),
            PsdConfig::kd_hybrid(domain, 3, 1.0, 2),
            PsdConfig::kd_noisymean(domain, 3, 1.0),
            PsdConfig::kd_true(domain, 3, 1.0),
            PsdConfig::kd_cell(domain, 3, 1.0, (32, 32)),
            PsdConfig::hilbert_r(domain, 3, 1.0).with_hilbert_order(10),
        ] {
            let tree = config.with_seed(7).build(&pts).unwrap();
            check_invariants(&tree, pts.len());
        }
    }

    fn cube_points_3d(n_side: usize, side: f64) -> Vec<Point<3>> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    pts.push(Point::from_coords([
                        (i as f64 + 0.5) / n_side as f64 * side,
                        (j as f64 + 0.5) / n_side as f64 * side,
                        (k as f64 + 0.5) / n_side as f64 * side,
                    ]));
                }
            }
        }
        pts
    }

    #[test]
    fn octree_and_kd_build_in_three_dimensions() {
        let domain = Rect::from_corners([0.0; 3], [8.0; 3]).unwrap();
        let pts = cube_points_3d(12, 8.0);
        for config in [
            PsdConfig::quadtree(domain, 2, 1.0),
            PsdConfig::kd_standard(domain, 2, 1.0),
            PsdConfig::kd_hybrid(domain, 2, 1.0, 1),
            PsdConfig::kd_noisymean(domain, 2, 1.0),
            PsdConfig::kd_pure(domain, 2),
        ] {
            let tree = config.with_seed(5).build(&pts).unwrap();
            assert_eq!(tree.fanout(), 8);
            assert_eq!(tree.node_count(), 1 + 8 + 64);
            check_invariants(&tree, pts.len());
        }
    }

    #[test]
    fn midpoint_children_match_rect_orthants() {
        // The builders' child ordering (axis 0 = most significant bit)
        // is the one `Rect::orthant_of` names: child `j` is the midpoint
        // orthant whose points `orthant_of` sends to `j`.
        let domain = Rect::from_corners([0.0; 3], [8.0; 3]).unwrap();
        let tree = PsdConfig::quadtree(domain, 2, 1.0)
            .with_seed(2)
            .build(&cube_points_3d(8, 8.0))
            .unwrap();
        for v in tree.node_ids() {
            let parent = tree.rect(v);
            for (j, c) in tree.children(v).enumerate() {
                let child = tree.rect(c);
                for k in 0..3 {
                    let mid = parent.min[k] + parent.side(k) / 2.0;
                    let want = if j >> (2 - k) & 1 == 1 {
                        (mid, parent.max[k])
                    } else {
                        (parent.min[k], mid)
                    };
                    assert_eq!(child.extent(k), want, "axis {k} of child {j} of node {v}");
                }
                let corner = Point::from_coords(child.min);
                assert_eq!(parent.orthant_of(&corner), j, "child {j} of node {v}");
            }
        }
    }

    #[test]
    fn one_dimensional_trees_are_binary() {
        let domain = Rect::from_corners([0.0], [128.0]).unwrap();
        let pts: Vec<Point<1>> = (0..500)
            .map(|i| Point::from_coords([i as f64 * 0.25]))
            .collect();
        let tree = PsdConfig::kd_standard(domain, 4, 1.0)
            .with_seed(3)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.fanout(), 2);
        check_invariants(&tree, pts.len());
    }

    #[test]
    fn formerly_planar_families_build_in_three_dimensions() {
        let domain = Rect::from_corners([0.0; 3], [8.0; 3]).unwrap();
        let pts = cube_points_3d(10, 8.0);
        for config in [
            PsdConfig::kd_cell(domain, 2, 1.0, (8, 8)),
            PsdConfig::hilbert_r(domain, 2, 1.0).with_hilbert_order(6),
            PsdConfig::hilbert_r(domain, 2, 1.0)
                .with_curve(CurveKind::ZOrder)
                .with_hilbert_order(6),
        ] {
            let tree = config.with_seed(19).build(&pts).unwrap();
            assert_eq!(tree.fanout(), 8);
            assert_eq!(tree.true_count(0), pts.len() as f64);
            let audit =
                audit_path_epsilon(tree.eps_count_levels(), tree.eps_median_levels()).unwrap();
            assert!(audit.within(1.0), "{}: {audit:?}", tree.kind());
        }
    }

    #[test]
    fn default_hilbert_order_respects_f64_exactness() {
        assert_eq!(
            PsdConfig::<1>::hilbert_r(Rect::from_corners([0.0], [1.0]).unwrap(), 2, 1.0)
                .hilbert_order,
            18
        );
        let d2 = unit_domain();
        assert_eq!(PsdConfig::hilbert_r(d2, 2, 1.0).hilbert_order, 18);
        let d3 = Rect::from_corners([0.0; 3], [1.0; 3]).unwrap();
        assert_eq!(PsdConfig::hilbert_r(d3, 2, 1.0).hilbert_order, 17);
        let d4 = Rect::from_corners([0.0; 4], [1.0; 4]).unwrap();
        assert_eq!(PsdConfig::hilbert_r(d4, 2, 1.0).hilbert_order, 13);
        // Boundary: the default always validates, one past it never.
        for dims in 1..=4usize {
            let order = default_hilbert_order(dims) as usize;
            assert!(
                order * dims <= MAX_HILBERT_INDEX_BITS,
                "default fits at {dims}"
            );
            assert!(
                order == 18 || (order + 1) * dims > MAX_HILBERT_INDEX_BITS,
                "default at {dims} is the largest exact order"
            );
        }
        assert!(matches!(
            PsdConfig::hilbert_r(d3, 2, 1.0)
                .with_hilbert_order(18)
                .build(&[]),
            Err(DpsdError::Build(BuildError::InvalidHilbertOrder(18)))
        ));
    }

    #[test]
    fn oversized_grids_are_rejected_not_allocated() {
        // The planar default of 256 cells per axis would be 4 billion
        // cells at D = 4: a typed error, not an allocation.
        let d4 = Rect::from_corners([0.0; 4], [1.0; 4]).unwrap();
        assert!(matches!(
            PsdConfig::kd_cell(d4, 2, 1.0, (256, 256)).build(&[]),
            Err(DpsdError::Build(BuildError::InvalidGridResolution))
        ));
        assert!(PsdConfig::kd_cell(d4, 1, 1.0, (16, 16)).build(&[]).is_ok());
    }

    #[test]
    fn kd_pure_is_exact() {
        let domain = unit_domain();
        let pts = grid_points(32, &domain);
        let tree = PsdConfig::kd_pure(domain, 3).build(&pts).unwrap();
        check_invariants(&tree, pts.len());
        for v in tree.node_ids() {
            assert_eq!(tree.count(v, CountSource::Noisy), Some(tree.true_count(v)));
        }
        assert_eq!(tree.epsilon(), 0.0, "kd-pure spends no budget");
        // Exact medians split the grid evenly: each depth-1 child holds a
        // quarter of the points (up to boundary ties).
        let quarter = pts.len() as f64 / 4.0;
        for c in tree.children(0) {
            assert!(
                (tree.true_count(c) - quarter).abs() <= quarter * 0.2,
                "child count {} far from quarter {quarter}",
                tree.true_count(c)
            );
        }
    }

    #[test]
    fn noisy_counts_are_near_truth_at_high_epsilon() {
        let domain = unit_domain();
        let pts = grid_points(32, &domain);
        let tree = PsdConfig::quadtree(domain, 2, 100.0)
            .with_seed(3)
            .build(&pts)
            .unwrap();
        for v in tree.node_ids() {
            let y = tree.noisy_count(v).expect("all levels released");
            assert!(
                (y - tree.true_count(v)).abs() < 5.0,
                "node {v}: noisy {y} vs true {}",
                tree.true_count(v)
            );
        }
    }

    #[test]
    fn leaf_only_budget_withholds_internal_counts() {
        let domain = unit_domain();
        let pts = grid_points(16, &domain);
        let tree = PsdConfig::quadtree(domain, 2, 1.0)
            .with_count_budget(CountBudget::LeafOnly)
            .with_postprocess(false)
            .with_seed(5)
            .build(&pts)
            .unwrap();
        assert_eq!(tree.noisy_count(0), None, "root withheld");
        assert_eq!(tree.noisy_count(1), None, "internal withheld");
        for v in 5..21 {
            assert!(tree.noisy_count(v).is_some(), "leaf {v} released");
        }
    }

    #[test]
    fn budget_audit_holds_for_every_kind() {
        let domain = unit_domain();
        let pts = grid_points(16, &domain);
        let eps = 0.5;
        for config in [
            PsdConfig::quadtree(domain, 3, eps),
            PsdConfig::kd_standard(domain, 3, eps),
            PsdConfig::kd_hybrid(domain, 3, eps, 1),
            PsdConfig::kd_noisymean(domain, 3, eps),
            PsdConfig::kd_cell(domain, 3, eps, (16, 16)),
            PsdConfig::kd_true(domain, 3, eps),
            PsdConfig::hilbert_r(domain, 3, eps).with_hilbert_order(8),
        ] {
            let tree = config.with_seed(11).build(&pts).unwrap();
            let audit =
                audit_path_epsilon(tree.eps_count_levels(), tree.eps_median_levels()).unwrap();
            assert!(
                audit.within(eps),
                "{}: path spends {} > {eps}",
                tree.kind(),
                audit.total()
            );
        }
    }

    #[test]
    fn budget_audit_holds_in_three_dimensions() {
        let domain = Rect::from_corners([0.0; 3], [16.0; 3]).unwrap();
        let pts = cube_points_3d(8, 16.0);
        let eps = 0.5;
        for config in [
            PsdConfig::quadtree(domain, 3, eps),
            PsdConfig::kd_standard(domain, 3, eps),
            PsdConfig::kd_hybrid(domain, 3, eps, 2),
        ] {
            let tree = config.with_seed(17).build(&pts).unwrap();
            let audit =
                audit_path_epsilon(tree.eps_count_levels(), tree.eps_median_levels()).unwrap();
            assert!(
                audit.within(eps),
                "{} (3D): path spends {} > {eps}",
                tree.kind(),
                audit.total()
            );
        }
    }

    #[test]
    fn validation_errors() {
        let domain = unit_domain();
        let line = Rect::new(0.0, 0.0, 1.0, 0.0).unwrap();
        assert!(matches!(
            PsdConfig::quadtree(line, 2, 1.0).build(&[]),
            Err(DpsdError::Build(BuildError::DegenerateDomain { .. }))
        ));
        assert!(matches!(
            PsdConfig::quadtree(domain, 2, 0.0).build(&[]),
            Err(DpsdError::Build(BuildError::InvalidEpsilon(_)))
        ));
        assert!(matches!(
            PsdConfig::quadtree(domain, 2, 1.0).build(&[Point::new(-5.0, 0.0)]),
            Err(DpsdError::Build(BuildError::PointOutsideDomain(_)))
        ));
        assert!(matches!(
            PsdConfig::kd_hybrid(domain, 2, 1.0, 5).build(&[]),
            Err(DpsdError::Build(BuildError::InvalidSwitchLevel { .. }))
        ));
        assert!(matches!(
            PsdConfig::kd_cell(domain, 2, 1.0, (0, 4)).build(&[]),
            Err(DpsdError::Build(BuildError::InvalidGridResolution))
        ));
        assert!(matches!(
            PsdConfig::hilbert_r(domain, 2, 1.0)
                .with_hilbert_order(30)
                .build(&[]),
            Err(DpsdError::Build(BuildError::InvalidHilbertOrder(30)))
        ));
        assert!(matches!(
            PsdConfig::quadtree(domain, 15, 1.0).build(&[]),
            Err(DpsdError::Build(BuildError::TooManyNodes { .. }))
        ));
        // Dimension-dependent node cap: height 15 overflows the cap much
        // earlier at fanout 16.
        let domain4 = Rect::from_corners([0.0; 4], [1.0; 4]).unwrap();
        assert!(matches!(
            PsdConfig::<4>::quadtree(domain4, 8, 1.0).build(&[]),
            Err(DpsdError::Build(BuildError::TooManyNodes { .. }))
        ));
    }

    #[test]
    fn epsilons_that_cannot_be_noised_are_refused() {
        // Without this check a quadtree at 1e-300 answered NaN, one at
        // 1e-307 wrote bytes its own loader rejects, and one at 1e-310
        // panicked in the Laplace sampler; at 1e155 the square is inf,
        // and at 1e153 and 1e154 OLS answered inf and NaN.
        let domain = unit_domain();
        let pts = grid_points(22, &domain);
        let refused = |config: PsdConfig| match config.build(&pts) {
            Err(DpsdError::Build(BuildError::InvalidEpsilon(e))) => e,
            other => panic!("{}: {:?}", config.kind, other.map(|t| t.query(&domain))),
        };
        for eps in [1e-300, 1e-307, 1e-310, 1e153, 1e154, 1e155] {
            for config in [
                PsdConfig::quadtree(domain, 3, eps),
                PsdConfig::kd_standard(domain, 3, eps),
                PsdConfig::kd_cell(domain, 3, eps, (16, 16)),
            ] {
                assert_eq!(refused(config).to_bits(), eps.to_bits());
            }
        }
        // A total whose square is normal can still split into level
        // budgets whose squares are not; the first such level is named.
        let eps = 2e-154f64;
        assert!((eps * eps).is_normal());
        assert!(refused(PsdConfig::quadtree(domain, 3, eps)) < eps);
        // Every count of a build that passes is finite.
        let tree = PsdConfig::quadtree(domain, 3, 1e-100).build(&pts).unwrap();
        assert!(tree.query(&domain).is_finite());
        let bytes = tree.release().to_flat_bytes();
        assert!(crate::tree::ReleasedSynopsis::<2>::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn malformed_budget_settings_are_typed_errors() {
        // Before these checks the custom vectors and the negative
        // fraction panicked, and a fraction of 2 built a tree whose
        // count levels spent twice the epsilon it reported.
        let domain = unit_domain();
        let pts = grid_points(10, &domain);
        let custom = |h, weights: Vec<f64>| {
            PsdConfig::quadtree(domain, h, 1.0).with_count_budget(CountBudget::Custom(weights))
        };
        let split = |fraction| {
            PsdConfig::kd_standard(domain, 3, 1.0).with_split(BudgetSplit {
                count_fraction: fraction,
            })
        };
        for (config, param) in [
            (custom(3, vec![1.0, 1.0]), "count_budget"),
            (custom(2, vec![0.0, 1.0, 1.0]), "count_budget"),
            (custom(2, vec![1.0, f64::NAN, 1.0]), "count_budget"),
            (custom(2, vec![1.0, -1.0, 1.0]), "count_budget"),
            (custom(2, vec![1e308, 1e308, 1.0]), "count_budget"),
            (split(2.0), "split.count_fraction"),
            (split(-0.5), "split.count_fraction"),
            (split(0.0), "split.count_fraction"),
            (split(f64::NAN), "split.count_fraction"),
        ] {
            match config.build(&pts) {
                Err(DpsdError::InvalidParameter { param: p, .. }) => assert_eq!(p, param),
                other => panic!("{param}: {:?}", other.map(|t| t.epsilon())),
            }
        }
        // A well-formed custom vector and split still build.
        custom(2, vec![2.0, 0.0, 1.0]).build(&pts).unwrap();
        split(1.0).build(&pts).unwrap();
    }

    #[test]
    fn empty_dataset_builds() {
        let domain = unit_domain();
        for config in [
            PsdConfig::quadtree(domain, 2, 1.0),
            PsdConfig::kd_standard(domain, 2, 1.0),
            PsdConfig::hilbert_r(domain, 2, 1.0).with_hilbert_order(6),
        ] {
            let tree = config.build(&[]).unwrap();
            assert_eq!(tree.true_count(0), 0.0);
        }
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let domain = unit_domain();
        let pts = grid_points(20, &domain);
        let build = || {
            PsdConfig::kd_standard(domain, 3, 0.5)
                .with_seed(42)
                .build(&pts)
                .unwrap()
        };
        let a = build();
        let b = build();
        for v in a.node_ids() {
            assert_eq!(a.rect(v), b.rect(v));
            assert_eq!(a.noisy_count(v), b.noisy_count(v));
            assert_eq!(a.posted_count(v), b.posted_count(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let domain = unit_domain();
        let pts = grid_points(20, &domain);
        let a = PsdConfig::quadtree(domain, 2, 1.0)
            .with_seed(1)
            .build(&pts)
            .unwrap();
        let b = PsdConfig::quadtree(domain, 2, 1.0)
            .with_seed(2)
            .build(&pts)
            .unwrap();
        let same = a
            .node_ids()
            .filter(|&v| a.noisy_count(v) == b.noisy_count(v))
            .count();
        assert!(same < a.node_count() / 2, "only {same} counts differ");
    }

    #[test]
    fn tree_kind_names() {
        assert_eq!(TreeKind::Quadtree.paper_name(), "quadtree");
        assert_eq!(TreeKind::KdHybrid.to_string(), "kd-hybrid");
        assert_eq!(TreeKind::HilbertR.to_string(), "Hilbert-R");
        // The kind table lists codes 0.. in order, and every code and
        // tag maps back to its own family.
        for (code, kind) in (0u32..).zip(TreeKind::ALL) {
            assert_eq!(kind.code(), code, "{kind}");
            assert_eq!(TreeKind::from_code(code), Some(kind));
            assert_eq!(TreeKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(TreeKind::from_code(8), None);
        assert_eq!(
            TreeKind::from_tag("Hilbert-R"),
            None,
            "tags are not paper names"
        );
        assert!(TreeKind::KdStandard.is_data_dependent());
        assert!(!TreeKind::Quadtree.is_data_dependent());
        assert!(!TreeKind::KdPure.is_data_dependent());
    }
}
