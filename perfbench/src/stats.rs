//! Order statistics for the reported metrics.

use std::time::{Duration, Instant};

/// The benchmark's one clock read: every timing goes through here.
pub fn now() -> Instant {
    // dpsd-allow(no-wallclock-in-core): benchmark timing is wall-clock by definition and feeds no answer
    Instant::now()
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted values; `NaN`
/// when empty. With `n >= 1000` samples, `q = 0.99` leaves at least ten
/// samples above the reported one.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples per block in [`block_percentile`], and the fewest samples
/// [`quiet_pool`] keeps: enough that a p99 has ten samples above it.
pub const BLOCK: usize = 1_000;

/// The median, over consecutive blocks of at least [`BLOCK`] samples in
/// time order, of each block's `q` percentile (one block when there
/// are fewer than two blocks' worth). A burst of host contention then
/// moves one block's percentile, not the run's.
pub fn block_percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let blocks = (samples.len() / BLOCK).max(1);
    let size = samples.len().div_ceil(blocks);
    let per_block: Vec<f64> = samples.chunks(size).map(|b| percentile(b, q)).collect();
    median(&per_block)
}

/// Samples per block in [`quiet_pool`].
pub const QUIET_BLOCK: usize = 20;

/// The samples of the run's quietest tenth, as indices in time order.
///
/// The samples are cut into consecutive blocks of [`QUIET_BLOCK`] in
/// time order, and the tenth of the blocks with the lowest median, but
/// at least [`BLOCK`] samples' worth, are pooled. On a shared host the
/// same request runs up to half again slower while a neighbour loads
/// the machine, in spells of a few seconds; the pool keeps the stretches
/// where it did not, so what it measures is the program's own time.
pub fn quiet_pool(samples: &[f64]) -> Vec<usize> {
    let blocks = samples.len() / QUIET_BLOCK;
    if blocks == 0 {
        return (0..samples.len()).collect();
    }
    let mut order: Vec<(f64, usize)> = (0..blocks)
        .map(|b| (median(&samples[b * QUIET_BLOCK..(b + 1) * QUIET_BLOCK]), b))
        .collect();
    order.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let keep = (blocks / 10).max(BLOCK.div_ceil(QUIET_BLOCK)).min(blocks);
    let mut picked: Vec<usize> = order[..keep].iter().map(|&(_, b)| b).collect();
    picked.sort_unstable();
    picked
        .into_iter()
        .flat_map(|b| b * QUIET_BLOCK..(b + 1) * QUIET_BLOCK)
        .collect()
}

/// The median (mean of the middle two for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    dpsd_core::metrics::median_of(values).unwrap_or(f64::NAN)
}

/// Microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
