//! OLS post-processing of noisy counts (paper Section 5).
//!
//! Given the released noisy counts `Y_v` with per-level Laplace
//! parameters `eps_i`, the ordinary least-squares estimator `beta` is the
//! unique *consistent* table of counts (`beta_v = sum of children`)
//! minimizing `sum_v eps_v^2 (Y_v - beta_v)^2`. Among all unbiased linear
//! estimators it has minimum variance for every range query
//! (Definition 3), so it strictly improves accuracy at no privacy cost —
//! post-processing touches only released values.
//!
//! [`ols_postprocess`] implements the paper's three-phase linear-time
//! algorithm (Lemma 4 / Theorem 5):
//!
//! 1. **Phase I (top-down)** `alpha_u = alpha_{par(u)} + eps_{h(u)}^2 Y_u`;
//!    at each leaf `v`, `Z_v = alpha_v`.
//! 2. **Phase II (bottom-up)** `Z_v = sum of Z over children` for
//!    internal nodes.
//! 3. **Phase III (top-down)** with `E_l = sum_{j<=l} f^j eps_j^2`:
//!    `beta_root = Z_root / E_h`, and for `v != root`
//!    `F_v = F_{par(v)} + beta_{par(v)} eps_{h(v)+1}^2`,
//!    `beta_v = (Z_v - f^{h(v)} F_v) / E_{h(v)}`.
//!
//! Withheld levels (budget 0) participate with weight `eps^2 = 0`, which
//! drops out of every sum — so the same pass handles uniform, geometric,
//! leaf-only, and arbitrary custom budgets. [`mod@reference`] holds a dense
//! normal-equation solver used to verify this algorithm on small trees.

pub mod reference;

use crate::tree::{first_index_at_depth, PsdTree};

/// Runs the three-phase OLS algorithm over a tree's noisy counts and
/// returns the post-processed column `beta` (indexed like the node
/// arena).
///
/// Runs in `O(m)` time and `O(m)` extra space for a tree of `m` nodes.
///
/// # Panics
///
/// Panics if the leaf level was not released (`eps_count[0] == 0`): the
/// estimator is undetermined without leaf observations. Every built-in
/// budget strategy releases leaves.
pub fn ols_postprocess<const D: usize>(tree: &PsdTree<D>) -> Vec<f64> {
    ols_over_columns(
        tree.fanout(),
        tree.height(),
        tree.eps_count_levels(),
        &tree.noisy,
    )
}

/// The largest node count [`ols_fits`] provisions for, `2^64`.
const MAX_OLS_COUNT: f64 = 18_446_744_073_709_551_616.0;

/// Whether OLS over the level budgets `eps_levels` stays finite for
/// every tree of counts up to `2^64`, whatever the data: it needs
/// `f^h · E_h · 2^64` finite, with `E_h = Σ_j f^j·ε_j²` as in Phase III.
/// That product bounds every α, `Z`, `f^l·F` and β the three phases
/// form. The rule reads only the budgets, so builds, streams and
/// loaders can all refuse budgets that could overflow before any count
/// is seen.
pub(crate) fn ols_fits(fanout: usize, eps_levels: &[f64]) -> bool {
    let f = fanout as f64;
    let (mut e_h, mut f_pow) = (0.0, 1.0);
    for eps in eps_levels {
        e_h += f_pow * eps * eps;
        f_pow *= f;
    }
    // `f_pow` is now `f^(h+1)`; fanouts are powers of two, so the
    // division is exact.
    (f_pow / f * e_h * MAX_OLS_COUNT).is_finite()
}

/// The algorithm itself, operating on plain columns so trees, the
/// synopsis loaders, and tests can all call it.
///
/// `y[v]` must be 0 for withheld nodes (their `eps` is 0, so the value is
/// ignored either way). `eps_levels[0]` (leaves) must be positive.
pub fn ols_over_columns(fanout: usize, height: usize, eps_levels: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(eps_levels.len(), height + 1, "one epsilon per level");
    assert!(
        eps_levels[0] > 0.0,
        "OLS requires released leaf counts (eps_count[0] > 0)"
    );
    let m = y.len();
    let f = fanout as f64;

    // Precompute per-level constants. `eps2[i]` is eps_i^2;
    // E[l] = sum_{j=0}^{l} f^j eps_j^2.
    let eps2: Vec<f64> = eps_levels.iter().map(|e| e * e).collect();
    let mut e_arr = vec![0.0f64; height + 1];
    let mut acc = 0.0;
    let mut f_pow = 1.0;
    for j in 0..=height {
        acc += f_pow * eps2[j];
        e_arr[j] = acc;
        f_pow *= f;
    }
    // f^{level} lookup.
    let mut f_pows = vec![1.0f64; height + 1];
    for j in 1..=height {
        f_pows[j] = f_pows[j - 1] * f;
    }

    // Phase I: top-down alpha (heap order is already top-down).
    let mut z = vec![0.0f64; m];
    {
        let mut alpha = vec![0.0f64; m];
        let mut first = 0usize;
        let mut width = 1usize;
        for depth in 0..=height {
            let level = height - depth;
            let w = eps2[level];
            for v in first..first + width {
                let parent_alpha = if v == 0 { 0.0 } else { alpha[(v - 1) / fanout] };
                alpha[v] = parent_alpha + w * y[v];
            }
            first += width;
            width *= fanout;
        }
        // Leaves: Z_v = alpha_v.
        let leaf_start = first_index_at_depth(fanout, height);
        z[leaf_start..m].copy_from_slice(&alpha[leaf_start..m]);
    }

    // Phase II: bottom-up Z for internal nodes.
    {
        let mut first = first_index_at_depth(fanout, height);
        let mut width = m - first;
        for _depth in (0..height).rev() {
            let parent_width = width / fanout;
            let parent_first = first - parent_width;
            for v in parent_first..first {
                let c0 = fanout * v + 1;
                z[v] = z[c0..c0 + fanout].iter().sum();
            }
            first = parent_first;
            width = parent_width;
        }
    }

    // Phase III: top-down beta and F.
    let mut beta = vec![0.0f64; m];
    let mut f_acc = vec![0.0f64; m];
    {
        let mut first = 0usize;
        let mut width = 1usize;
        for depth in 0..=height {
            let level = height - depth;
            for v in first..first + width {
                if v == 0 {
                    f_acc[0] = 0.0;
                    beta[0] = z[0] / e_arr[height];
                } else {
                    let p = (v - 1) / fanout;
                    // eps of the parent's level = level + 1.
                    f_acc[v] = f_acc[p] + beta[p] * eps2[level + 1];
                    beta[v] = (z[v] - f_pows[level] * f_acc[v]) / e_arr[level];
                }
            }
            first += width;
            width *= fanout;
        }
    }
    beta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CountBudget;
    use crate::rng::seeded;
    use crate::tree::complete_tree_nodes;
    use rand::Rng;

    /// Consistency: every internal beta equals the sum of its children.
    fn assert_consistent(fanout: usize, height: usize, beta: &[f64]) {
        let internal_end = first_index_at_depth(fanout, height);
        for v in 0..internal_end {
            let c0 = fanout * v + 1;
            let sum: f64 = (c0..c0 + fanout).map(|c| beta[c]).sum();
            assert!(
                (beta[v] - sum).abs() < 1e-6 * (1.0 + beta[v].abs()),
                "node {v}: beta {} != child sum {sum}",
                beta[v]
            );
        }
    }

    fn random_y(fanout: usize, height: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        (0..complete_tree_nodes(fanout, height))
            .map(|_| rng.gen::<f64>() * 100.0)
            .collect()
    }

    #[test]
    fn paper_example_root_and_four_children() {
        // Section 5's worked example: uniform eps/2 per level. With
        // Y_a = root and four leaves, beta_a = 4/5 Y_a + 1/5 (sum leaves).
        let eps = [0.5, 0.5]; // leaves, root
        let y = [10.0, 1.0, 2.0, 3.0, 4.0];
        let beta = ols_over_columns(4, 1, &eps, &y);
        let expected_root = 0.8 * 10.0 + 0.2 * 10.0; // sum of leaves = 10
        assert!((beta[0] - expected_root).abs() < 1e-9);
        assert_consistent(4, 1, &beta);
        // The general non-uniform formula from the same example:
        // beta_a = 4 e1^2/(4 e1^2 + e0^2) Ya + e0^2/(4 e1^2+e0^2) sum.
        let eps = [0.3, 0.7];
        let beta = ols_over_columns(4, 1, &eps, &y);
        let (e0, e1) = (0.3f64 * 0.3, 0.7f64 * 0.7);
        let expected_root = (4.0 * e1 * 10.0 + e0 * 10.0) / (4.0 * e1 + e0);
        assert!(
            (beta[0] - expected_root).abs() < 1e-9,
            "{} vs {expected_root}",
            beta[0]
        );
        assert_consistent(4, 1, &beta);
    }

    #[test]
    fn consistent_input_is_a_fixed_point() {
        // If Y is already consistent, OLS must return it unchanged.
        for fanout in [2usize, 3, 4] {
            let height = 3;
            let m = complete_tree_nodes(fanout, height);
            let mut y = vec![0.0f64; m];
            let leaf_start = first_index_at_depth(fanout, height);
            let mut rng = seeded(99);
            for leaf in y.iter_mut().take(m).skip(leaf_start) {
                *leaf = rng.gen::<f64>() * 10.0;
            }
            for v in (0..leaf_start).rev() {
                let c0 = fanout * v + 1;
                y[v] = (c0..c0 + fanout).map(|c| y[c]).sum();
            }
            let eps: Vec<f64> = (0..=height).map(|i| 0.1 + 0.05 * i as f64).collect();
            let beta = ols_over_columns(fanout, height, &eps, &y);
            for v in 0..m {
                assert!(
                    (beta[v] - y[v]).abs() < 1e-6 * (1.0 + y[v].abs()),
                    "fanout {fanout}, node {v}: {} vs {}",
                    beta[v],
                    y[v]
                );
            }
        }
    }

    #[test]
    fn output_is_always_consistent() {
        for fanout in [2usize, 4] {
            for height in [1usize, 2, 3] {
                let y = random_y(fanout, height, 7 + height as u64);
                for budget in [CountBudget::Uniform, CountBudget::Geometric] {
                    let eps = budget.levels(height, 1.0);
                    let beta = ols_over_columns(fanout, height, &eps, &y);
                    assert_consistent(fanout, height, &beta);
                }
            }
        }
    }

    #[test]
    fn matches_dense_reference_solver() {
        for fanout in [2usize, 3, 4] {
            for height in [1usize, 2] {
                let y = random_y(fanout, height, 31 * fanout as u64 + height as u64);
                for eps in [
                    CountBudget::Uniform.levels(height, 1.0),
                    CountBudget::Geometric.levels(height, 0.7),
                ] {
                    let fast = ols_over_columns(fanout, height, &eps, &y);
                    let slow = reference::ols_reference(fanout, height, &eps, &y);
                    for v in 0..y.len() {
                        assert!(
                            (fast[v] - slow[v]).abs() < 1e-6 * (1.0 + slow[v].abs()),
                            "fanout {fanout} h {height} node {v}: fast {} vs ref {}",
                            fast[v],
                            slow[v]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn leaf_only_budget_propagates_leaf_sums() {
        // With only leaves released, beta of an internal node must equal
        // the plain sum of its leaf descendants.
        let height = 2;
        let fanout = 4;
        let eps = CountBudget::LeafOnly.levels(height, 1.0);
        let y = random_y(fanout, height, 5);
        let beta = ols_over_columns(fanout, height, &eps, &y);
        let leaf_start = first_index_at_depth(fanout, height);
        let leaf_sum: f64 = y[leaf_start..].iter().sum();
        assert!(
            (beta[0] - leaf_sum).abs() < 1e-9,
            "{} vs {leaf_sum}",
            beta[0]
        );
        // Leaves pass through unchanged.
        for v in leaf_start..y.len() {
            assert!((beta[v] - y[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn variance_reduction_monte_carlo() {
        // Repeatedly add noise to fixed true counts; OLS root estimates
        // must have visibly lower variance than the raw root count.
        use crate::mech::laplace::sample_laplace;
        let fanout = 4;
        let height = 2;
        let m = complete_tree_nodes(fanout, height);
        let leaf_start = first_index_at_depth(fanout, height);
        // True counts: 16 leaves of 10 points each.
        let mut truth = vec![0.0; m];
        truth[leaf_start..m].fill(10.0);
        for v in (0..leaf_start).rev() {
            let c0 = fanout * v + 1;
            truth[v] = (c0..c0 + fanout).map(|c| truth[c]).sum();
        }
        let eps = CountBudget::Uniform.levels(height, 0.9);
        let mut rng = seeded(123);
        let trials = 3000;
        let mut raw_sq = 0.0;
        let mut ols_sq = 0.0;
        for _ in 0..trials {
            let y: Vec<f64> = truth
                .iter()
                .enumerate()
                .map(|(v, &t)| {
                    let level = if v == 0 {
                        height
                    } else if v < leaf_start {
                        1
                    } else {
                        0
                    };
                    t + sample_laplace(&mut rng, 1.0 / eps[level])
                })
                .collect();
            let beta = ols_over_columns(fanout, height, &eps, &y);
            raw_sq += (y[0] - truth[0]).powi(2);
            ols_sq += (beta[0] - truth[0]).powi(2);
        }
        let raw_mse = raw_sq / trials as f64;
        let ols_mse = ols_sq / trials as f64;
        assert!(
            ols_mse < raw_mse * 0.8,
            "OLS mse {ols_mse} not clearly below raw mse {raw_mse}"
        );
    }

    #[test]
    fn unbiasedness_monte_carlo() {
        use crate::mech::laplace::sample_laplace;
        let fanout = 4;
        let height = 1;
        let truth = [20.0, 5.0, 5.0, 5.0, 5.0];
        let eps = [0.5, 0.5];
        let mut rng = seeded(321);
        let trials = 20_000;
        let mut sums = vec![0.0; truth.len()];
        for _ in 0..trials {
            let y: Vec<f64> = truth
                .iter()
                .enumerate()
                .map(|(v, &t)| {
                    let level = usize::from(v == 0);
                    t + sample_laplace(&mut rng, 1.0 / eps[level])
                })
                .collect();
            let beta = ols_over_columns(fanout, height, &eps, &y);
            for (s, b) in sums.iter_mut().zip(&beta) {
                *s += b;
            }
        }
        for (v, (&t, s)) in truth.iter().zip(&sums).enumerate() {
            let mean = s / trials as f64;
            assert!(
                (mean - t).abs() < 0.15,
                "node {v}: mean {mean} vs truth {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "released leaf")]
    fn missing_leaf_budget_rejected() {
        let _ = ols_over_columns(4, 1, &[0.0, 1.0], &[1.0; 5]);
    }

    #[test]
    fn single_node_tree_is_identity() {
        let beta = ols_over_columns(4, 0, &[0.7], &[13.0]);
        assert_eq!(beta, vec![13.0]);
    }
}
