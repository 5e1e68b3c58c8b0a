//! Figure 4: quality and cost of private medians by tree depth.
//!
//! A binary tree is built over one-dimensional uniform data
//! (paper: `2^20` points in `[0, 2^26]`), each level splitting every
//! node at the private median found by one of six methods — EM, SS,
//! their 1%-sampled variants EMs and SSs, noisy mean (NM), and the
//! cell-based grid — with budget `eps = 0.01` per level and
//! `delta = 1e-4` for SS. Panel (a) reports the average normalized rank
//! error per depth; panel (b) the time per depth.

use crate::common::{timed, Scale};
use crate::report::Table;
use dpsd_core::geometry::{Point, Rect};
use dpsd_core::mech::sampling::SamplingPlan;
use dpsd_core::median::{CellGridNd, MedianConfig, MedianSelector};
use dpsd_core::metrics::rank_error_pct;
use dpsd_core::rng::seeded;
use dpsd_data::synthetic::uniform_1d;
use rand::rngs::StdRng;

/// Per-level privacy budget used by the paper for this experiment.
pub const EPS_PER_LEVEL: f64 = 0.01;
/// Smooth-sensitivity failure probability.
pub const DELTA: f64 = 1e-4;
/// 1-D domain upper bound (`2^26`).
pub const DOMAIN_HI: f64 = (1u64 << 26) as f64;
/// Cell length of the grid method (`2^10`, so `2^16` cells).
pub const CELL_LENGTH: f64 = 1024.0;

/// One median method under test.
enum Method {
    Selector(MedianSelector),
    Cell,
}

fn methods() -> Vec<(&'static str, Method)> {
    vec![
        (
            "EM",
            Method::Selector(MedianSelector::plain(MedianConfig::Exponential)),
        ),
        (
            "SS",
            Method::Selector(MedianSelector::plain(MedianConfig::SmoothSensitivity {
                delta: DELTA,
            })),
        ),
        (
            "EMs",
            Method::Selector(MedianSelector::sampled(
                MedianConfig::Exponential,
                SamplingPlan::paper_default(),
            )),
        ),
        (
            "SSs",
            Method::Selector(MedianSelector::sampled(
                MedianConfig::SmoothSensitivity { delta: DELTA },
                SamplingPlan::paper_default(),
            )),
        ),
        (
            "NM",
            Method::Selector(MedianSelector::plain(MedianConfig::NoisyMean)),
        ),
        ("cell", Method::Cell),
    ]
}

/// The 1-D box `[lo, hi]` (callers keep `lo <= hi`).
fn range(lo: f64, hi: f64) -> Rect<1> {
    Rect {
        min: [lo],
        max: [hi],
    }
}

/// Recursively splits `values` (sorted) down to `max_depth`, recording
/// per-depth rank errors. Returns (per-depth mean rank error %, per-depth
/// total milliseconds).
fn run_method(
    method: &Method,
    grid: Option<&CellGridNd<1>>,
    sorted: &mut [f64],
    lo: f64,
    hi: f64,
    max_depth: usize,
    rng: &mut StdRng,
) -> (Vec<f64>, Vec<f64>) {
    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); max_depth + 1];
    let mut time_ms = vec![0.0f64; max_depth + 1];

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        method: &Method,
        grid: Option<&CellGridNd<1>>,
        values: &mut [f64],
        lo: f64,
        hi: f64,
        depth: usize,
        max_depth: usize,
        rng: &mut StdRng,
        errs: &mut [Vec<f64>],
        time_ms: &mut [f64],
    ) {
        if depth > max_depth || values.is_empty() || hi <= lo {
            return;
        }
        let (split, ms) = timed(|| match method {
            Method::Selector(sel) => sel.select(rng, values, lo, hi, EPS_PER_LEVEL),
            // dpsd-allow(no-panic-in-lib): the Cell arm is only entered when the driver constructed the grid a few lines up
            Method::Cell => grid.expect("grid built").median_along(0, &range(lo, hi)),
        });
        time_ms[depth] += ms;
        errs[depth].push(rank_error_pct(values, split));
        // Values stay sorted: binary-search the split point.
        let mid = values.partition_point(|&x| x < split);
        let (left, right) = values.split_at_mut(mid);
        recurse(
            method,
            grid,
            left,
            lo,
            split,
            depth + 1,
            max_depth,
            rng,
            errs,
            time_ms,
        );
        recurse(
            method,
            grid,
            right,
            split,
            hi,
            depth + 1,
            max_depth,
            rng,
            errs,
            time_ms,
        );
    }
    recurse(
        method,
        grid,
        sorted,
        lo,
        hi,
        0,
        max_depth,
        rng,
        &mut errs,
        &mut time_ms,
    );
    let mean_err: Vec<f64> = errs
        .iter()
        .map(|level| {
            if level.is_empty() {
                f64::NAN
            } else {
                level.iter().sum::<f64>() / level.len() as f64
            }
        })
        .collect();
    (mean_err, time_ms)
}

/// Regenerates Figure 4: panel (a) rank error per depth, panel (b) time
/// per depth, for all six methods.
pub fn run(scale: &Scale, seed: u64) -> Vec<Table> {
    let max_depth = scale.median_max_depth;
    let columns: Vec<String> = (0..=max_depth).map(|d| format!("d={d}")).collect();
    let mut err_table = Table::new(
        format!(
            "Figure 4(a): private median rank error (%), n=2^{}, eps={EPS_PER_LEVEL}/level",
            scale.median_n.ilog2()
        ),
        "method",
        columns.clone(),
    );
    let mut time_table = Table::new(
        "Figure 4(b): median-finding time per depth (ms, total across nodes)",
        "method",
        columns,
    );
    for (name, method) in methods() {
        let mut rng = seeded(seed ^ 0xF164);
        let mut values = uniform_1d(scale.median_n, 0.0, DOMAIN_HI, seed);
        values.sort_unstable_by(f64::total_cmp);
        // The grid is built once over the full data (fixed resolution).
        let grid = match method {
            Method::Cell => {
                let cells = (DOMAIN_HI / CELL_LENGTH) as usize;
                let points: Vec<Point<1>> =
                    values.iter().map(|&v| Point::from_coords([v])).collect();
                CellGridNd::build(
                    &mut rng,
                    &points,
                    range(0.0, DOMAIN_HI),
                    [cells],
                    EPS_PER_LEVEL,
                )
                .ok()
            }
            _ => None,
        };
        let (err, time) = run_method(
            &method,
            grid.as_ref(),
            &mut values,
            0.0,
            DOMAIN_HI,
            max_depth,
            &mut rng,
        );
        err_table.push_row(name, err);
        time_table.push_row(name, time);
    }
    vec![err_table, time_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn em_is_accurate_at_the_root_and_nm_is_not_at_depth() {
        let tables = run(&Scale::quick(), 7);
        let err = &tables[0];
        // EM near-exact on 2^15 points at the root (paper: "almost true
        // medians for large data sizes").
        let em_root = err.cell("EM", "d=0").unwrap();
        assert!(em_root < 5.0, "EM root rank error {em_root}%");
        // NM should be clearly worse than EM deep in the tree.
        let last = format!("d={}", Scale::quick().median_max_depth);
        let nm_deep = err.cell("NM", &last).unwrap();
        let em_deep = err.cell("EM", &last).unwrap();
        assert!(
            nm_deep > em_deep,
            "NM deep error {nm_deep}% should exceed EM {em_deep}%"
        );
    }

    #[test]
    fn sampled_variants_produce_finite_errors() {
        let tables = run(&Scale::quick(), 8);
        let err = &tables[0];
        for method in ["EMs", "SSs", "cell", "SS"] {
            let v = err.cell(method, "d=0").unwrap();
            assert!(v.is_finite() && (0.0..=100.0).contains(&v), "{method}: {v}");
        }
    }
}
