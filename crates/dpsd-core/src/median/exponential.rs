//! Exponential-mechanism median (paper Definition 5).
//!
//! The mechanism returns `x` in `[lo, hi]` with probability proportional
//! to `exp(-(eps/2) |rank(x) - rank(median)|)`. All points of the open
//! interval between two consecutive data values share a rank, so the
//! mechanism samples an inter-point interval `I_k = [x_k, x_{k+1})` with
//! probability proportional to `|I_k| * exp(-(eps/2) |k - m|)` and then a
//! uniform value within it — exactly the efficient implementation the
//! paper describes (and which is implicit in McSherry's PINQ).
//!
//! The sensitivity of the median's rank is 1 (adding or removing one
//! tuple shifts every rank by at most one), hence the `eps/2` exponent.

use rand::Rng;

/// Value of the `k`-th interval endpoint with sentinels:
/// `x_0 = lo`, `x_{n+1} = hi`, else the sorted data value.
#[inline]
fn endpoint(sorted: &[f64], k: usize, lo: f64, hi: f64) -> f64 {
    if k == 0 {
        lo
    } else if k > sorted.len() {
        hi
    } else {
        sorted[k - 1].clamp(lo, hi)
    }
}

/// Draws a private median of `sorted` (ascending, inside `[lo, hi]`) with
/// privacy budget `eps`.
///
/// Runs in `O(n)` time: `exp(-(eps/2) d)` is computed once per rank
/// distance `d` into one weight vector (at most `⌈n/2⌉ + 1` entries), then
/// one pass accumulates the total mass and a second locates the sampled
/// interval. Log-weights are at most 0 (the median interval), so no
/// overflow normalization is needed.
///
/// Both passes visit only the window of ranks whose weight is non-zero:
/// `exp` is monotone, so once one distance underflows to 0 every
/// farther one does too. The result is bit-identical to scanning all
/// `n + 1` intervals: each skipped mass is `+0.0`, which leaves a
/// non-negative running total unchanged and is passed over by the
/// sampling pass. The one exception is a domain whose span overflows
/// `f64`, where an infinite interval times a zero weight is NaN; such a
/// span scans every interval.
///
/// # Panics
///
/// Panics if `sorted` is empty, `eps <= 0`, or `lo > hi`.
pub fn exponential_median<R: Rng + ?Sized>(
    rng: &mut R,
    sorted: &[f64],
    lo: f64,
    hi: f64,
    eps: f64,
) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "exponential_median: empty input");
    assert!(
        eps > 0.0,
        "exponential_median: eps must be positive, got {eps}"
    );
    assert!(lo <= hi, "exponential_median: invalid domain [{lo}, {hi}]");
    if lo == hi {
        return lo;
    }
    // 1-based median rank m: intervals are I_k = [x_k, x_{k+1}), k = 0..=n.
    let m = n.div_ceil(2);
    let half_eps = eps / 2.0;
    let farthest = m.max(n - m);
    let weights: Vec<f64> = (0..=farthest)
        .map(|d| (-half_eps * d as f64).exp())
        .take_while(|&w| w > 0.0)
        .collect();
    let reach = if (hi - lo).is_finite() {
        // Empty only for eps = inf, whose weights are all NaN or 0.
        weights.len().saturating_sub(1)
    } else {
        farthest
    };
    let window = m - reach.min(m)..=(m + reach).min(n);
    // `(x_k, x_{k+1}, mass)` of each interval of the window, in rank
    // order, reading every endpoint once.
    let weights = &weights;
    let intervals = || {
        let mut a = endpoint(sorted, *window.start(), lo, hi);
        window.clone().map(move |k| {
            let b = endpoint(sorted, k + 1, lo, hi);
            let len = (b - a).max(0.0);
            let mass = if len == 0.0 {
                0.0
            } else {
                len * weights.get(k.abs_diff(m)).copied().unwrap_or(0.0)
            };
            let interval = (a, b, mass);
            a = b;
            interval
        })
    };
    let total = intervals().fold(0.0, |total, (_, _, w)| total + w);
    if !total.is_finite() || total <= 0.0 {
        // All intervals degenerate (all data equal to lo == hi corner
        // cases): return the common value.
        return sorted[(n - 1) / 2].clamp(lo, hi);
    }
    let mut target = rng.gen::<f64>() * total;
    for (a, b, w) in intervals() {
        if w <= 0.0 {
            continue;
        }
        if target < w {
            let frac = (target / w).clamp(0.0, 1.0);
            return a + frac * (b - a);
        }
        target -= w;
    }
    // Floating-point slack: fall back to the true median.
    sorted[(n - 1) / 2].clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rank_error_pct;
    use crate::rng::seeded;

    #[test]
    fn concentrates_near_true_median() {
        let mut rng = seeded(10);
        let sorted: Vec<f64> = (0..10_001).map(|i| i as f64).collect();
        let mut errs = Vec::new();
        for _ in 0..200 {
            let v = exponential_median(&mut rng, &sorted, 0.0, 10_000.0, 1.0);
            errs.push(rank_error_pct(&sorted, v));
        }
        let avg = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            avg < 1.0,
            "avg rank error {avg}% too large for eps=1 on n=10k"
        );
    }

    #[test]
    fn lower_eps_means_more_spread() {
        let mut rng = seeded(20);
        let sorted: Vec<f64> = (0..2_001).map(|i| i as f64).collect();
        let spread = |eps: f64, rng: &mut rand::rngs::StdRng| {
            let errs: Vec<f64> = (0..300)
                .map(|_| {
                    rank_error_pct(&sorted, exponential_median(rng, &sorted, 0.0, 2_000.0, eps))
                })
                .collect();
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let tight = spread(2.0, &mut rng);
        let loose = spread(0.005, &mut rng);
        assert!(
            tight < loose,
            "eps=2 err {tight}% should beat eps=0.005 err {loose}%"
        );
    }

    #[test]
    fn respects_domain() {
        let mut rng = seeded(30);
        let sorted = [5.0, 6.0, 7.0];
        for _ in 0..1000 {
            let v = exponential_median(&mut rng, &sorted, 0.0, 100.0, 0.01);
            assert!((0.0..=100.0).contains(&v));
        }
    }

    #[test]
    fn duplicate_values_are_handled() {
        let mut rng = seeded(40);
        let sorted = [3.0; 100];
        for _ in 0..50 {
            let v = exponential_median(&mut rng, &sorted, 0.0, 10.0, 0.5);
            assert!((0.0..=10.0).contains(&v));
        }
    }

    #[test]
    fn degenerate_domain_returns_endpoint() {
        let mut rng = seeded(50);
        assert_eq!(exponential_median(&mut rng, &[2.0], 2.0, 2.0, 1.0), 2.0);
    }

    #[test]
    fn single_value_biases_toward_it() {
        // With one data point at 50 in [0, 100], the rank-0 interval
        // [0, 50) and rank-1 interval [50, 100) tie: the draw is roughly
        // uniform. Check it never escapes and is finite.
        let mut rng = seeded(60);
        for _ in 0..100 {
            let v = exponential_median(&mut rng, &[50.0], 0.0, 100.0, 1.0);
            assert!((0.0..=100.0).contains(&v));
        }
    }

    #[test]
    fn satisfies_lemma6_style_success_probability() {
        // Lemma 6(ii): for 80/20 data, P[EM in central 60% ranks] >= 1/6.
        // Uniform data easily satisfies the hypothesis; empirically the
        // success rate should be far above 1/6 even at tiny eps.
        let mut rng = seeded(70);
        let n = 5000usize;
        let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let trials = 500;
        let ok = (0..trials)
            .filter(|_| {
                let v = exponential_median(&mut rng, &sorted, 0.0, n as f64, 0.01);
                let lo_q = sorted[n / 5];
                let hi_q = sorted[4 * n / 5];
                v >= lo_q && v <= hi_q
            })
            .count();
        assert!(
            ok as f64 / trials as f64 > 1.0 / 6.0,
            "success rate {} below Lemma 6 bound",
            ok as f64 / trials as f64
        );
    }

    /// The mechanism as a scan of every interval `0..=n`, calling `exp`
    /// for each interval in both passes: the oracle the windowed scan
    /// must reproduce bit for bit.
    fn full_scan<R: Rng + ?Sized>(rng: &mut R, sorted: &[f64], lo: f64, hi: f64, eps: f64) -> f64 {
        let n = sorted.len();
        let m = n.div_ceil(2);
        let half_eps = eps / 2.0;
        let mass = |k: usize| -> f64 {
            let a = endpoint(sorted, k, lo, hi);
            let b = endpoint(sorted, k + 1, lo, hi);
            let len = (b - a).max(0.0);
            if len == 0.0 {
                return 0.0;
            }
            let dist = k.abs_diff(m) as f64;
            len * (-half_eps * dist).exp()
        };
        let mut total = 0.0;
        for k in 0..=n {
            total += mass(k);
        }
        if !total.is_finite() || total <= 0.0 {
            return sorted[(n - 1) / 2].clamp(lo, hi);
        }
        let mut target = rng.gen::<f64>() * total;
        for k in 0..=n {
            let w = mass(k);
            if w <= 0.0 {
                continue;
            }
            if target < w {
                let a = endpoint(sorted, k, lo, hi);
                let b = endpoint(sorted, k + 1, lo, hi);
                let frac = (target / w).clamp(0.0, 1.0);
                return a + frac * (b - a);
            }
            target -= w;
        }
        sorted[(n - 1) / 2].clamp(lo, hi)
    }

    /// Data whose only non-degenerate interval is `I_gap = [lo, hi)`:
    /// `gap` copies of `lo`, then copies of `hi` up to `n` values.
    fn one_gap(n: usize, gap: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut sorted = vec![lo; gap];
        sorted.resize(n, hi);
        sorted
    }

    /// The largest rank distance whose weight `exp(-(eps/2) d)` is
    /// still non-zero.
    fn farthest_nonzero(eps: f64) -> usize {
        (0usize..)
            .take_while(|&d| (-(eps / 2.0) * d as f64).exp() > 0.0)
            .last()
            .unwrap()
    }

    /// Every `(n, gap)` placing the lone gap `distance(eps)` ranks above
    /// and below the median, at odd and even `n`, for several `eps`
    /// whose weights underflow within a few hundred ranks.
    fn gap_cases(distance: impl Fn(f64) -> usize) -> Vec<(f64, usize, usize)> {
        let mut cases = Vec::new();
        for eps in [3.0, 5.0, 8.0] {
            let d = distance(eps);
            for n in [2 * d + 40, 2 * d + 41] {
                let m = n.div_ceil(2);
                cases.push((eps, n, m + d));
                cases.push((eps, n, m - d));
            }
        }
        cases
    }

    #[test]
    fn a_gap_at_the_farthest_nonzero_weight_is_still_drawn() {
        let (lo, hi) = (-1e300, 1e300);
        for (eps, n, gap) in gap_cases(farthest_nonzero) {
            assert!(
                farthest_nonzero(eps) < 500,
                "weights underflow within 500 ranks"
            );
            let sorted = one_gap(n, gap, lo, hi);
            for seed in 0..40 {
                let got = exponential_median(&mut seeded(seed), &sorted, lo, hi, eps);
                let want = full_scan(&mut seeded(seed), &sorted, lo, hi, eps);
                assert_eq!(got.to_bits(), want.to_bits(), "eps {eps} n {n} gap {gap}");
                assert!(
                    lo < got && got < hi,
                    "eps {eps} n {n} gap {gap}: {got} not in the gap"
                );
            }
        }
    }

    #[test]
    fn a_gap_one_rank_past_the_last_nonzero_weight_falls_back_to_the_median() {
        let (lo, hi) = (-1e300, 1e300);
        for (eps, n, gap) in gap_cases(|eps| farthest_nonzero(eps) + 1) {
            let sorted = one_gap(n, gap, lo, hi);
            let median = sorted[(n - 1) / 2];
            for seed in 0..40 {
                let got = exponential_median(&mut seeded(seed), &sorted, lo, hi, eps);
                let want = full_scan(&mut seeded(seed), &sorted, lo, hi, eps);
                assert_eq!(got.to_bits(), want.to_bits(), "eps {eps} n {n} gap {gap}");
                assert_eq!(got.to_bits(), median.to_bits(), "eps {eps} n {n} gap {gap}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        let mut rng = seeded(0);
        let _ = exponential_median(&mut rng, &[], 0.0, 1.0, 1.0);
    }
}
