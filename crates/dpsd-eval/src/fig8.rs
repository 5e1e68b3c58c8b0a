//! Figure 8 (extension): the dimension sweep.
//!
//! The paper's concluding remarks name higher-dimensional data as
//! ongoing work; the dimension-generic core makes it a one-table
//! experiment. For `D in {1, 2, 3, 4}` we draw a Gaussian-cluster
//! dataset over `[0, 100]^D`, build the midpoint tree, `kd-standard`,
//! `kd-hybrid`, `kd-cell`, and the Hilbert R-tree (all through the one
//! `PsdConfig<D>` pipeline, with the Lemma 3 budget re-derived per
//! dimension by `geometric_levels_nd`), publish-and-reload each tree
//! through the JSON synopsis, and compare against the introduction's
//! flat-grid strawman — a grid fine enough to resolve the clusters,
//! whose cell count therefore grows exponentially with `D` while the
//! tree releases stay at ~4k nodes. Including `kd-cell` and `Hilbert-R`
//! reproduces the paper's data-dependent-vs-independent comparison per
//! dimension now that both families build in any `D`.
//!
//! Every backend answers the workload through `query_batch`; the run
//! asserts the batched answers equal the one-at-a-time answers
//! bit-for-bit in every dimension (the PR 1 parity guarantee, now for
//! all `D`).
//!
//! Expected qualitative picture (the acceptance criterion of this
//! extension): the data-dependent kd/hybrid families beat the flat grid
//! at `D = 3` — with clustered mass, a fine grid spreads its budget
//! over exponentially many empty cells while the trees adapt.

use crate::common::Scale;
use crate::report::Table;
use dpsd_baselines::{ExactIndex, FlatGrid};
use dpsd_core::exec::{par_map_tasks, Parallelism};
use dpsd_core::geometry::{Point, Rect};
use dpsd_core::metrics::{median_of, relative_error_pct};
use dpsd_core::rng::seeded;
use dpsd_core::synopsis::SpatialSynopsis;
use dpsd_core::tree::{PsdConfig, ReleasedSynopsis};
use dpsd_data::synthetic::gaussian_mixture_nd;
use rand::Rng;

/// Privacy budget of the sweep.
pub const EPSILON: f64 = 0.1;

/// Side of the hyper-cube domain.
const DOMAIN_SIDE: f64 = 100.0;

/// Query volume as a fraction of the domain volume, held constant
/// across dimensions (the per-axis side is `VOLUME^{1/D}`): the paper's
/// flat-grid argument is about queries covering *many cells*, so the
/// sweep must not let the covered volume collapse as `0.3^D` would.
const QUERY_VOLUME_FRACTION: f64 = 0.25;

/// Tree heights per dimension, chosen so every release carries a
/// comparable number of aggregates (fanout is `2^D`): ~4k nodes each,
/// independent of the dimension.
fn height_for(dims: usize) -> usize {
    match dims {
        1 => 11, // 2^12 - 1      = 4095
        2 => 6,  // (4^7-1)/3     = 5461
        3 => 4,  // (8^5-1)/7     = 4681
        _ => 3,  // (16^4-1)/15   = 4369
    }
}

/// Flat-grid cells per axis: the introduction's strawman is a *fine*
/// grid, so the resolution tracks the data scale (the Gaussian clusters
/// have radius ~2-3 domain units — cells much coarser than that smear
/// the mass and stop resolving the data at all). Keeping the per-axis
/// resolution anywhere near that scale costs exponentially many cells
/// as `D` grows (4k → 32k → 65k), which is precisely the curse the
/// hierarchical decompositions escape: their releases stay at ~4k nodes
/// in every dimension (see [`height_for`]).
fn grid_res_for(dims: usize) -> usize {
    match dims {
        1 => 4096,
        2 => 64,
        3 => 32,
        _ => 16,
    }
}

/// The per-dimension column of results, methods in the order of
/// [`METHODS`]: the data-dependent kd families, the two
/// data-independent-structure families of the paper (`kd-cell`'s noisy
/// split grid and the Hilbert R-tree, both dimension-generic since
/// they gained `D`-dimensional grids/curves), and the flat-grid
/// strawman.
pub const METHODS: [&str; 6] = [
    "quadtree",
    "kd-standard",
    "kd-hybrid",
    "kd-cell",
    "Hilbert-R",
    "flat-grid",
];

/// How much of the dimension sweep to run.
///
/// The full sweep (3 release repetitions, `D` up to 4) takes tens of
/// seconds in debug builds, which is too slow for a unit test; the
/// smoke profile keeps one repetition and stops at `D = 3` — still
/// covering the figure's acceptance criterion (kd families beat the
/// flat grid at `D = 3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProfile {
    /// Independent release repetitions averaged per cell (fresh noise
    /// and medians each time; the paper reports medians over many
    /// queries — at `eps = 0.1` a single release's luck still moves the
    /// summary, so the full sweep averages a few).
    pub reps: u64,
    /// Largest dimension swept (columns are `D = 1..=max_dim`).
    pub max_dim: usize,
}

impl SweepProfile {
    /// The figure as published: 3 repetitions, `D` up to 4.
    pub fn full() -> Self {
        SweepProfile {
            reps: 3,
            max_dim: 4,
        }
    }

    /// The fast test profile: 1 repetition, `D` up to 3.
    pub fn smoke() -> Self {
        SweepProfile {
            reps: 1,
            max_dim: 3,
        }
    }

    /// [`SweepProfile::full`] when `DPSD_FULL_EVAL=1` is set,
    /// [`SweepProfile::smoke`] otherwise — the knob the fig8 unit test
    /// honors so CI stays fast while the full sweep remains one
    /// environment variable away.
    pub fn from_env() -> Self {
        match std::env::var("DPSD_FULL_EVAL") {
            Ok(v) if v.trim() == "1" => SweepProfile::full(),
            _ => SweepProfile::smoke(),
        }
    }
}

/// Median relative error (%) per method at one dimension, plus the
/// batch-equals-singles parity assertion for every backend.
fn sweep_dim<const D: usize>(scale: &Scale, seed: u64, profile: &SweepProfile) -> Vec<f64> {
    // dpsd-allow(no-panic-in-lib): constant corners form a valid box; fixed experiment parameters throughout this driver
    let domain = Rect::from_corners([0.0; D], [DOMAIN_SIDE; D]).unwrap();
    let points: Vec<Point<D>> =
        gaussian_mixture_nd(scale.n_points.min(60_000), 6, 0.02, &domain, seed);
    // dpsd-allow(no-panic-in-lib): fixed experiment parameters over the domain constructed above
    let index = ExactIndex::build(&points, domain, grid_res_for(D).min(64)).unwrap();

    // Workload: fixed-shape boxes placed uniformly, non-zero answers
    // only (the Section 8.1 protocol, generalized to D).
    let mut rng = seeded(seed ^ 0xF168);
    let side = DOMAIN_SIDE * QUERY_VOLUME_FRACTION.powf(1.0 / D as f64);
    let mut queries = Vec::new();
    let mut exact = Vec::new();
    let mut attempts = 0usize;
    while queries.len() < scale.queries_per_shape {
        attempts += 1;
        assert!(
            attempts < scale.queries_per_shape * 10_000,
            "data too sparse"
        );
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        for k in 0..D {
            min[k] = rng.gen::<f64>() * (DOMAIN_SIDE - side);
            max[k] = min[k] + side;
        }
        // dpsd-allow(no-panic-in-lib): min[k] <= max[k] = min[k] + side with finite coordinates by construction
        let q = Rect::from_corners(min, max).unwrap();
        let answer = index.count(&q);
        if answer > 0 {
            queries.push(q);
            exact.push(answer as f64);
        }
    }

    let h = height_for(D);
    let reps = profile.reps.max(1);
    // Every (rep, method) cell is an independent build-and-evaluate
    // task: each build's noise comes from its own rep-seeded stream, so
    // fanning the grid across the worker pool returns the same numbers
    // as the sequential nested loop for any thread count.
    let cells = par_map_tasks(
        Parallelism::from_env(),
        reps as usize * METHODS.len(),
        |task| {
            let rep = (task / METHODS.len()) as u64;
            let m = task % METHODS.len();
            let rep_seed = seed.wrapping_add(rep.wrapping_mul(0x9E37));
            let name = METHODS[m];
            let backend: Box<dyn SpatialSynopsis<D>> = match m {
                0 => build_released(PsdConfig::quadtree(domain, h, EPSILON), &points, rep_seed),
                1 => build_released(
                    PsdConfig::kd_standard(domain, h, EPSILON),
                    &points,
                    rep_seed,
                ),
                2 => build_released(
                    PsdConfig::kd_hybrid(domain, h, EPSILON, h / 2),
                    &points,
                    rep_seed,
                ),
                3 => build_released(
                    PsdConfig::kd_cell(domain, h, EPSILON, (grid_res_for(D), grid_res_for(D))),
                    &points,
                    rep_seed,
                ),
                4 => build_released(
                    // Order 10 keeps the curve grid (2^10 per axis)
                    // comfortably finer than the cluster radius in
                    // every dimension while the build stays fast.
                    PsdConfig::hilbert_r(domain, h, EPSILON).with_hilbert_order(10),
                    &points,
                    rep_seed,
                ),
                _ => Box::new(
                    FlatGrid::build(&points, domain, [grid_res_for(D); D], EPSILON, rep_seed)
                        // dpsd-allow(no-panic-in-lib): fixed experiment parameters, as above
                        .unwrap(),
                ),
            };
            let batch = backend.query_batch(&queries);
            // Parity: the batched path must equal singles bit-for-bit,
            // in every dimension.
            for (q, &b) in queries.iter().zip(&batch) {
                let single = backend.query(q);
                assert_eq!(
                    single.to_bits(),
                    b.to_bits(),
                    "{name} (D={D}): batch diverged from single query"
                );
            }
            let errs: Vec<f64> = batch
                .iter()
                .zip(&exact)
                .map(|(&est, &actual)| relative_error_pct(est, actual))
                .collect();
            // dpsd-allow(no-panic-in-lib): the sampling loop above guarantees queries_per_shape non-zero answers
            median_of(&errs).expect("non-empty workload")
        },
    );
    let mut row = vec![0.0f64; METHODS.len()];
    for rep in 0..reps as usize {
        for m in 0..METHODS.len() {
            row[m] += cells[rep * METHODS.len() + m] / reps as f64;
        }
    }
    row
}

/// Builds, publishes, and reloads a tree — the released synopsis is the
/// backend under test, so the sweep also exercises the JSON round-trip
/// in every dimension.
fn build_released<const D: usize>(
    config: PsdConfig<D>,
    points: &[Point<D>],
    seed: u64,
) -> Box<dyn SpatialSynopsis<D>> {
    // dpsd-allow(no-panic-in-lib): fixed experiment parameters, as above
    let tree = config.with_seed(seed).build(points).expect("fig8 build");
    let json = tree.release().to_json();
    // dpsd-allow(no-panic-in-lib): parsing back the JSON this process just emitted
    let loaded = ReleasedSynopsis::<D>::from_json(&json).expect("fig8 round-trip");
    Box::new(loaded)
}

/// Regenerates the published dimension sweep ([`SweepProfile::full`]):
/// rows are methods, columns are dimensions, cells are median relative
/// error (%).
pub fn run(scale: &Scale, seed: u64) -> Vec<Table> {
    run_with(scale, seed, &SweepProfile::full())
}

/// Regenerates the dimension sweep at a chosen [`SweepProfile`] (see
/// [`run`] for the published full sweep).
pub fn run_with(scale: &Scale, seed: u64, profile: &SweepProfile) -> Vec<Table> {
    let max_dim = profile.max_dim.clamp(1, 4);
    let columns: Vec<String> = (1..=max_dim).map(|d| format!("D={d}")).collect();
    let mut table = Table::new(
        format!(
            "Figure 8: dimension sweep, eps={EPSILON}, clustered data, \
             trees ~4k nodes vs data-resolving flat grid (published synopses)"
        ),
        "method",
        columns,
    );
    let mut by_dim: Vec<Vec<f64>> = Vec::with_capacity(max_dim);
    for d in 1..=max_dim {
        by_dim.push(match d {
            1 => sweep_dim::<1>(scale, seed, profile),
            2 => sweep_dim::<2>(scale, seed, profile),
            3 => sweep_dim::<3>(scale, seed, profile),
            _ => sweep_dim::<4>(scale, seed, profile),
        });
    }
    for (m, name) in METHODS.iter().enumerate() {
        let row: Vec<f64> = by_dim.iter().map(|col| col[m]).collect();
        table.push_row(*name, row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_sweep_runs_and_kd_families_beat_flat_grid_at_3d() {
        // Smoke profile (1 rep, D <= 3) by default so the test stays
        // fast in debug CI; DPSD_FULL_EVAL=1 runs the published sweep.
        let profile = SweepProfile::from_env();
        let tables = run_with(&Scale::quick(), 8, &profile);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        for (label, values) in &t.rows {
            assert_eq!(values.len(), profile.max_dim.clamp(1, 4));
            for v in values {
                assert!(v.is_finite(), "{label}: non-finite error {v}");
            }
        }
        // The acceptance criterion: data-dependent families
        // qualitatively beat the flat grid at D = 3. A single smoke rep
        // is one noisy release, so it asserts the best kd family; the
        // averaged full sweep asserts both.
        let grid = t.cell("flat-grid", "D=3").unwrap();
        let kd = t.cell("kd-standard", "D=3").unwrap();
        let hybrid = t.cell("kd-hybrid", "D=3").unwrap();
        assert!(
            kd.min(hybrid) < grid,
            "at D=3 kd {kd}% / hybrid {hybrid}% should beat flat grid {grid}%"
        );
        if profile.reps >= 2 {
            assert!(
                kd < grid && hybrid < grid,
                "averaged sweep: kd {kd}% and hybrid {hybrid}% should both beat grid {grid}%"
            );
        }
    }
}
