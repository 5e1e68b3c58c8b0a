//! Privacy-budget strategies (paper Sections 4.2 and 6.2).
//!
//! A PSD of height `h` spends its budget `eps` along every root-to-leaf
//! path: each level `i` (leaves at `i = 0`, root at `i = h`) gets a count
//! budget `eps_count[i]`, and each data-dependent level additionally gets
//! a median budget. Sequential composition (Lemma 1) requires the sums
//! along every path to stay within `eps`.
//!
//! * [`CountBudget::Uniform`] — `eps_i = eps / (h+1)`, the strategy of
//!   prior work;
//! * [`CountBudget::Geometric`] — the paper's Lemma 3 optimum. In `d`
//!   dimensions the number of nodes contributing to a query grows by
//!   `2^{d-1}` per level, so the Cauchy-Schwarz optimum is
//!   `eps_i ∝ (2^{d-1})^{(h-i)/3}` — `2^{(h-i)/3}` in the plane;
//! * [`CountBudget::LeafOnly`] — everything on the leaves (the strategy
//!   of Inan et al. \[12\] and of the record-matching application);
//! * [`CountBudget::Custom`] — arbitrary non-negative per-level weights.
//!
//! [`geometric_levels_nd`] is the **single allocator** behind the
//! geometric strategy in every dimension: the planar
//! `CountBudget::Geometric.levels(...)` and every `PsdConfig<D>` build
//! delegate to it, so there is exactly one place where Lemma 3 lives.
//!
//! [`BudgetSplit`] divides the total between counts and medians
//! (the paper settles on 70% / 30% in Section 8.2), and
//! [`median_levels`] distributes the median share over the
//! data-dependent levels.

pub mod accountant;

pub use accountant::{audit_path_epsilon, BudgetAudit, EpsilonLedger};

use crate::error::DpsdError;

/// Per-level count budgets for a `2^d`-ary tree of the given height,
/// summing to `eps`: `eps_i ∝ g^{(h-i)/3}` with growth `g = 2^{d-1}` —
/// the Cauchy-Schwarz optimum of Lemma 3 with `n_i ∝ g^{h-i}`. Index 0
/// is the leaf level.
///
/// For `d = 2` this coincides with [`CountBudget::Geometric`] (which
/// delegates here); for `d = 1` the growth is `2^0 = 1` and the optimum
/// degenerates to the uniform allocation.
///
/// Reachable from untrusted configuration paths, so invalid parameters
/// are typed [`DpsdError::InvalidParameter`] results, never panics.
pub fn geometric_levels_nd(height: usize, eps: f64, dims: usize) -> Result<Vec<f64>, DpsdError> {
    if dims < 1 {
        return Err(DpsdError::invalid_parameter(
            "dims",
            "dimension must be at least 1",
        ));
    }
    if !(eps > 0.0 && eps.is_finite()) {
        return Err(DpsdError::invalid_parameter(
            "epsilon",
            format!("must be positive and finite, got {eps}"),
        ));
    }
    if dims == 1 {
        // Growth 2^0 = 1: every level contributes equally, so the
        // optimum degenerates to the uniform allocation.
        return Ok(vec![eps / (height as f64 + 1.0); height + 1]);
    }
    let r = 2f64.powf((dims as f64 - 1.0) / 3.0);
    let norm: f64 = (0..=height).map(|i| r.powi((height - i) as i32)).sum();
    Ok((0..=height)
        .map(|i| eps * r.powi((height - i) as i32) / norm)
        .collect())
}

/// How the count budget is distributed across tree levels.
#[derive(Debug, Clone, PartialEq)]
pub enum CountBudget {
    /// Equal share per level: `eps_i = eps / (h + 1)`.
    Uniform,
    /// Geometric allocation of Lemma 3: `eps_i ∝ 2^{(h-i)/3}`, which
    /// minimizes the worst-case query variance for fanout-4 trees.
    Geometric,
    /// All budget on the leaf level (level 0); internal counts are not
    /// released and queries recurse to leaves.
    LeafOnly,
    /// Explicit non-negative weights per level, `weights[0]` = leaves.
    /// Normalized to sum to the count budget; must contain `h + 1`
    /// entries when used and at least one positive weight, and the leaf
    /// weight must be positive (post-processing needs released leaves).
    Custom(Vec<f64>),
}

impl CountBudget {
    /// Computes the per-level count budgets for a **planar** (fanout-4)
    /// tree of the given height, summing to `eps_count`. Index 0 is the
    /// leaf level. Shorthand for [`CountBudget::levels_for_dims`] at
    /// `dims = 2`.
    ///
    /// # Panics
    ///
    /// Panics if `eps_count <= 0`, or a custom weight vector has the
    /// wrong length, a negative or non-finite entry, a non-finite sum,
    /// or a zero leaf weight.
    pub fn levels(&self, height: usize, eps_count: f64) -> Vec<f64> {
        self.levels_for_dims(height, eps_count, 2)
    }

    /// Computes the per-level count budgets for a `2^dims`-ary tree of
    /// the given height, summing to `eps_count`. Index 0 is the leaf
    /// level. The geometric strategy delegates to the dimension-aware
    /// [`geometric_levels_nd`]; the other strategies are
    /// dimension-independent.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CountBudget::levels`], plus
    /// `dims == 0`. Builders validate first; untrusted callers should use
    /// [`geometric_levels_nd`] directly for typed errors.
    pub fn levels_for_dims(&self, height: usize, eps_count: f64, dims: usize) -> Vec<f64> {
        assert!(
            eps_count > 0.0,
            "count budget must be positive, got {eps_count}"
        );
        let h = height;
        match self {
            CountBudget::Uniform => vec![eps_count / (h as f64 + 1.0); h + 1],
            CountBudget::Geometric => geometric_levels_nd(h, eps_count, dims)
                // dpsd-allow(no-panic-in-lib): eps and dims were validated by the assert above; geometric_levels_nd only fails on the inputs it rejects
                .expect("geometric allocation: eps and dims pre-validated"),
            CountBudget::LeafOnly => {
                let mut v = vec![0.0; h + 1];
                v[0] = eps_count;
                v
            }
            CountBudget::Custom(weights) => {
                let checked = self.check(h);
                assert!(checked.is_ok(), "{checked:?}");
                let sum: f64 = weights.iter().sum();
                weights.iter().map(|w| eps_count * w / sum).collect()
            }
        }
    }

    /// Checks the strategy against a tree of the given height: a custom
    /// vector needs `h + 1` finite, non-negative weights with a finite
    /// sum and a positive leaf weight. Builders run this before
    /// [`CountBudget::levels_for_dims`], so a bad vector is a typed
    /// [`DpsdError::InvalidParameter`], never that method's panic.
    pub(crate) fn check(&self, height: usize) -> Result<(), DpsdError> {
        let CountBudget::Custom(weights) = self else {
            return Ok(());
        };
        let problem = if weights.len() != height + 1 {
            format!(
                "custom budget needs h+1 = {} weights, got {}",
                height + 1,
                weights.len()
            )
        } else if !weights.iter().all(|w| w.is_finite() && *w >= 0.0)
            || !weights.iter().sum::<f64>().is_finite()
        {
            "custom budget weights must be finite and non-negative, with a finite sum".into()
        } else if weights[0] <= 0.0 {
            "leaf level must receive budget".into()
        } else {
            return Ok(());
        };
        Err(DpsdError::invalid_parameter("count_budget", problem))
    }
}

/// Split of the total budget between node counts and median selection
/// (Section 6.2: "in most cases the best results were seen when budget
/// was biased towards the node counts, allocated roughly as
/// `eps_count = 0.7 eps` and `eps_median = 0.3 eps`").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSplit {
    /// Fraction of the total budget given to counts, in `(0, 1]`.
    pub count_fraction: f64,
}

impl BudgetSplit {
    /// Creates a split, validating the fraction.
    ///
    /// # Panics
    ///
    /// Panics unless the fraction lies in `(0, 1]`.
    pub fn new(count_fraction: f64) -> Self {
        let split = BudgetSplit { count_fraction };
        let checked = split.check();
        assert!(checked.is_ok(), "{checked:?}");
        split
    }

    /// Checks that the count fraction lies in `(0, 1]`. The field is
    /// public, so builders run this instead of trusting a split.
    pub(crate) fn check(&self) -> Result<(), DpsdError> {
        if self.count_fraction > 0.0 && self.count_fraction <= 1.0 {
            return Ok(());
        }
        Err(DpsdError::invalid_parameter(
            "split.count_fraction",
            format!("must be in (0, 1], got {}", self.count_fraction),
        ))
    }

    /// The paper's 70/30 default.
    pub fn paper_default() -> Self {
        BudgetSplit {
            count_fraction: 0.7,
        }
    }

    /// Everything to counts (data-independent trees).
    pub fn all_counts() -> Self {
        BudgetSplit {
            count_fraction: 1.0,
        }
    }

    /// `(eps_count, eps_median)` for a total budget.
    pub fn apply(&self, eps: f64) -> (f64, f64) {
        assert!(eps > 0.0, "epsilon must be positive, got {eps}");
        (eps * self.count_fraction, eps * (1.0 - self.count_fraction))
    }
}

/// Distributes the median budget uniformly over the data-dependent
/// levels: levels `h, h-1, ..., h - dd_levels + 1` each get
/// `eps_median / dd_levels`; the rest get zero. Index 0 is the leaf
/// level (which never performs a split).
///
/// A hybrid tree passes `dd_levels < h` ("switching" to data-independent
/// splits below); a standard kd-tree passes `dd_levels = h`.
///
/// # Panics
///
/// Panics if `dd_levels > height`, or if `eps_median > 0` but
/// `dd_levels == 0`.
pub fn median_levels(height: usize, dd_levels: usize, eps_median: f64) -> Vec<f64> {
    assert!(
        dd_levels <= height,
        "dd_levels {dd_levels} exceeds height {height}"
    );
    let mut v = vec![0.0; height + 1];
    if eps_median == 0.0 {
        return v;
    }
    assert!(eps_median > 0.0, "median budget must be non-negative");
    assert!(dd_levels > 0, "median budget with no data-dependent levels");
    let share = eps_median / dd_levels as f64;
    for entry in &mut v[(height - dd_levels + 1)..=height] {
        *entry = share;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn uniform_levels_sum_and_shape() {
        let levels = CountBudget::Uniform.levels(10, 1.0);
        assert_eq!(levels.len(), 11);
        assert!((total(&levels) - 1.0).abs() < 1e-12);
        assert!(levels.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-15));
    }

    #[test]
    fn geometric_levels_match_lemma3_closed_form() {
        let h = 10;
        let eps = 0.5;
        let levels = CountBudget::Geometric.levels(h, eps);
        assert!((total(&levels) - eps).abs() < 1e-12);
        // Closed form of Lemma 3.
        let r = 2f64.powf(1.0 / 3.0);
        for (i, &e_i) in levels.iter().enumerate() {
            let expected = 2f64.powf((h - i) as f64 / 3.0) * eps * (r - 1.0)
                / (2f64.powf((h + 1) as f64 / 3.0) - 1.0);
            assert!(
                (e_i - expected).abs() < 1e-12,
                "level {i}: {e_i} vs {expected}"
            );
        }
        // Increasing from root (index h) to leaves (index 0).
        assert!(levels.windows(2).all(|w| w[0] > w[1]));
        // Ratio between consecutive levels is 2^{1/3}.
        let ratio = levels[0] / levels[1];
        assert!((ratio - r).abs() < 1e-12);
    }

    #[test]
    fn leaf_only_levels() {
        let levels = CountBudget::LeafOnly.levels(4, 0.8);
        assert_eq!(levels, vec![0.8, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn custom_levels_normalize() {
        let levels = CountBudget::Custom(vec![2.0, 1.0, 1.0]).levels(2, 1.0);
        assert!((levels[0] - 0.5).abs() < 1e-12);
        assert!((levels[1] - 0.25).abs() < 1e-12);
        assert!((total(&levels) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "h+1")]
    fn custom_levels_length_checked() {
        let _ = CountBudget::Custom(vec![1.0, 1.0]).levels(4, 1.0);
    }

    #[test]
    #[should_panic(expected = "leaf level")]
    fn custom_levels_leaf_budget_required() {
        let _ = CountBudget::Custom(vec![0.0, 1.0, 1.0]).levels(2, 1.0);
    }

    #[test]
    fn split_defaults() {
        let (c, m) = BudgetSplit::paper_default().apply(1.0);
        assert!((c - 0.7).abs() < 1e-12);
        assert!((m - 0.3).abs() < 1e-12);
        let (c, m) = BudgetSplit::all_counts().apply(0.4);
        assert!((c - 0.4).abs() < 1e-12);
        assert_eq!(m, 0.0);
    }

    #[test]
    fn median_levels_standard_and_hybrid() {
        // Standard kd-tree: every level above the leaves splits.
        let v = median_levels(4, 4, 0.3);
        assert_eq!(v[0], 0.0);
        for &share in &v[1..=4] {
            assert!((share - 0.075).abs() < 1e-12);
        }
        // Hybrid with 2 data-dependent levels: only levels 4 and 3 split.
        let v = median_levels(4, 2, 0.3);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 0.0);
        assert!((v[3] - 0.15).abs() < 1e-12);
        assert!((v[4] - 0.15).abs() < 1e-12);
        // No median budget at all (quadtree).
        assert_eq!(median_levels(4, 0, 0.0), vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "no data-dependent")]
    fn median_budget_without_levels_rejected() {
        let _ = median_levels(4, 0, 0.3);
    }

    #[test]
    fn nd_levels_sum_to_eps() {
        for dims in 1..=4 {
            let levels = geometric_levels_nd(6, 0.8, dims).unwrap();
            let sum: f64 = levels.iter().sum();
            assert!((sum - 0.8).abs() < 1e-12, "dims {dims}: sum {sum}");
        }
    }

    #[test]
    fn two_d_geometric_is_the_nd_allocator() {
        let nd = geometric_levels_nd(8, 1.0, 2).unwrap();
        let planar = CountBudget::Geometric.levels(8, 1.0);
        for (a, b) in nd.iter().zip(&planar) {
            assert_eq!(a.to_bits(), b.to_bits(), "planar must delegate exactly");
        }
    }

    #[test]
    fn one_d_is_uniform() {
        let levels = geometric_levels_nd(4, 1.0, 1).unwrap();
        assert!(levels.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-15));
    }

    #[test]
    fn higher_dims_tilt_harder_toward_leaves() {
        let d2 = geometric_levels_nd(6, 1.0, 2).unwrap();
        let d3 = geometric_levels_nd(6, 1.0, 3).unwrap();
        // Leaf share grows with dimension (faster node-count growth).
        assert!(d3[0] > d2[0], "3D leaf share {} vs 2D {}", d3[0], d2[0]);
        // Root share shrinks.
        assert!(d3[6] < d2[6]);
    }

    #[test]
    fn nd_allocator_rejects_bad_parameters_without_panicking() {
        for (bad, param) in [
            (geometric_levels_nd(4, 1.0, 0), "dims"),
            (geometric_levels_nd(4, 0.0, 2), "epsilon"),
            (geometric_levels_nd(4, -1.0, 3), "epsilon"),
            (geometric_levels_nd(4, f64::INFINITY, 2), "epsilon"),
            (geometric_levels_nd(4, f64::NAN, 2), "epsilon"),
        ] {
            match bad {
                Err(DpsdError::InvalidParameter { param: p, .. }) => assert_eq!(p, param),
                other => panic!("expected InvalidParameter({param}), got {other:?}"),
            }
        }
    }
}
