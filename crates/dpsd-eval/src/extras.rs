//! Extra experiments beyond the paper's numbered figures.
//!
//! * [`intro_strawman`] — the introduction's motivating comparison: a
//!   flat noisy grid vs the optimized quadtree. The flat grid is fine
//!   for tiny queries but its error grows with the number of touched
//!   cells, while the hierarchical release answers large queries from a
//!   few high-level counts.
//! * [`budget_ablation`] — every budget strategy (uniform, geometric,
//!   leaf-only, level-skip) head to head on the same tree and workload,
//!   quantifying Section 4.2's discussion.

use crate::common::{evaluate_synopsis, evaluate_tree, Scale};
use crate::report::Table;
use dpsd_baselines::{ExactIndex, FlatGrid};
use dpsd_core::budget::CountBudget;
use dpsd_core::tree::{CountSource, PsdConfig};
use dpsd_data::synthetic::TIGER_DOMAIN;
use dpsd_data::workload::{generate_workload, QueryShape};

/// Flat-grid vs quadtree across query sizes (Section 1's argument).
pub fn intro_strawman(scale: &Scale, seed: u64) -> Vec<Table> {
    let points = scale.dataset(seed);
    // dpsd-allow(no-panic-in-lib): experiment drivers run fixed, pre-validated configurations; crashing loudly beats reporting a half-built figure
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 512).unwrap();
    let eps = 0.5;
    // A fine flat grid, as the introduction prescribes: four grid cells
    // per deepest quadtree cell (paper scale: 4096 x 4096, ~0.005
    // degrees). The finer the grid, the more cells a query sums and the
    // worse the noise accumulation - the introduction's argument.
    let g = 1usize << (scale.quad_height + 2);
    // dpsd-allow(no-panic-in-lib): fixed experiment parameters, as above
    let grid = FlatGrid::build(&points, TIGER_DOMAIN, [g, g], eps, seed).expect("flat grid build");
    let tree = PsdConfig::quadtree(TIGER_DOMAIN, scale.quad_height, eps)
        .with_seed(seed)
        .build(&points)
        // dpsd-allow(no-panic-in-lib): fixed experiment parameters, as above
        .expect("quadtree build");
    let shapes = [
        QueryShape::new(0.5, 0.5),
        QueryShape::new(2.0, 2.0),
        QueryShape::new(8.0, 8.0),
        QueryShape::new(16.0, 16.0),
    ];
    let mut table = Table::new(
        format!("Extra: flat noisy grid vs quad-opt, eps={eps} (median rel. err %)"),
        "method",
        shapes.iter().map(|s| s.label()).collect(),
    );
    let mut grid_row = Vec::new();
    let mut tree_row = Vec::new();
    for (i, &shape) in shapes.iter().enumerate() {
        let wl = generate_workload(
            &index,
            shape,
            scale.queries_per_shape.min(200),
            seed + i as u64,
        );
        // Both backends run through the same trait-level evaluator.
        grid_row.push(evaluate_synopsis(&grid, &wl));
        tree_row.push(evaluate_tree(&tree, &wl, CountSource::Auto));
    }
    table.push_row("flat-grid", grid_row);
    table.push_row("quad-opt", tree_row);
    vec![table]
}

/// Budget strategies head to head on the same quadtree (Section 4.2).
pub fn budget_ablation(scale: &Scale, seed: u64) -> Vec<Table> {
    let points = scale.dataset(seed);
    // dpsd-allow(no-panic-in-lib): fixed experiment parameters over the validated TIGER domain
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 512).unwrap();
    let eps = 0.5;
    let h = scale.quad_height;
    // Level-skip: withhold every other internal level ("conceptually
    // equivalent to increasing the fanout").
    let skip_weights: Vec<f64> = (0..=h)
        .map(|i| if i == 0 || i % 2 == 0 { 1.0 } else { 0.0 })
        .collect();
    let strategies: Vec<(&str, CountBudget)> = vec![
        ("uniform", CountBudget::Uniform),
        ("geometric", CountBudget::Geometric),
        ("leaf-only", CountBudget::LeafOnly),
        ("level-skip", CountBudget::Custom(skip_weights)),
    ];
    let shapes = [QueryShape::new(1.0, 1.0), QueryShape::new(10.0, 10.0)];
    let workloads: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            generate_workload(
                &index,
                s,
                scale.queries_per_shape.min(200),
                seed + 31 + i as u64,
            )
        })
        .collect();
    let mut table = Table::new(
        format!("Extra: budget-strategy ablation on quad trees, eps={eps}, h={h}"),
        "strategy",
        workloads.iter().map(|w| w.shape.label()).collect(),
    );
    for (name, budget) in strategies {
        let tree = PsdConfig::quadtree(TIGER_DOMAIN, h, eps)
            .with_count_budget(budget)
            .with_seed(seed ^ name.len() as u64)
            .build(&points)
            // dpsd-allow(no-panic-in-lib): fixed experiment parameters, as above
            .expect("quadtree build");
        let row: Vec<f64> = workloads
            .iter()
            .map(|wl| evaluate_tree(&tree, wl, CountSource::Auto))
            .collect();
        table.push_row(name, row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strawman_loses_on_large_queries() {
        let tables = intro_strawman(&Scale::quick(), 21);
        let t = &tables[0];
        let big = t.columns.last().unwrap().clone();
        let grid_big = t.cell("flat-grid", &big).unwrap();
        let tree_big = t.cell("quad-opt", &big).unwrap();
        assert!(
            tree_big < grid_big,
            "quad-opt ({tree_big}%) should beat the flat grid ({grid_big}%) on large queries"
        );
    }

    #[test]
    fn budget_ablation_produces_all_rows() {
        let tables = budget_ablation(&Scale::quick(), 22);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4);
        for (label, values) in &t.rows {
            for v in values {
                assert!(v.is_finite(), "{label}: {v}");
            }
        }
        // Geometric should not lose to uniform overall.
        let sum = |m: &str| -> f64 { t.columns.iter().map(|c| t.cell(m, c).unwrap()).sum() };
        assert!(sum("geometric") < sum("uniform") * 1.3);
    }
}
