//! Bit-identity regression tests: the dimension-generic core must build
//! trees that are **bit-for-bit identical** to the pre-refactor 2D
//! pipeline under the same RNG seed.
//!
//! The `GOLDEN` fingerprints below were captured from the planar
//! (pre-`Point<D>`) implementation: each is an FNV-1a fold over every
//! node's rectangle coordinates, released noisy count, post-processed
//! count, and cut flag, in arena order. Any change to split arithmetic,
//! RNG consumption order, budget allocation, noise application order, or
//! OLS post-processing shows up here as a changed hash.

use dpsd::core::mech::sampling::SamplingPlan;
use dpsd::prelude::*;

/// FNV-style multiply-xor fold over little-endian u64 words. (The
/// multiplier is *not* the canonical 64-bit FNV prime; the goldens below
/// were captured with exactly this function, so treat it as a custom
/// hash and never swap the constant without re-capturing them.)
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// Deterministic skewed dataset: dense corner cluster plus a sparse
/// diagonal (no RNG involved, so it is refactor-proof).
fn dataset() -> Vec<Point> {
    let mut pts = Vec::new();
    for i in 0..3000 {
        pts.push(Point::new((i % 55) as f64 * 0.3, (i / 55) as f64 * 0.3));
    }
    for i in 0..500 {
        pts.push(Point::new(i as f64 * 0.128, i as f64 * 0.128));
    }
    pts
}

fn domain() -> Rect {
    Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()
}

fn fingerprint<const D: usize>(tree: &PsdTree<D>) -> u64 {
    let mut h = Fnv::new();
    h.word(tree.height() as u64);
    h.word(tree.fanout() as u64);
    for e in tree.eps_count_levels() {
        h.f64(*e);
    }
    for e in tree.eps_median_levels() {
        h.f64(*e);
    }
    for v in tree.node_ids() {
        let r = tree.rect(v);
        // All minima then all maxima: at D = 2 this is exactly the
        // min_x, min_y, max_x, max_y order the goldens were captured
        // with.
        for k in 0..D {
            h.f64(r.min[k]);
        }
        for k in 0..D {
            h.f64(r.max[k]);
        }
        match tree.noisy_count(v) {
            Some(c) => {
                h.word(1);
                h.f64(c);
            }
            None => h.word(0),
        }
        match tree.posted_count(v) {
            Some(c) => {
                h.word(1);
                h.f64(c);
            }
            None => h.word(0),
        }
        h.word(u64::from(tree.is_cut(v)));
    }
    h.0
}

fn configs() -> Vec<(&'static str, PsdConfig)> {
    let d = domain();
    vec![
        ("quadtree", PsdConfig::quadtree(d, 4, 0.5).with_seed(42)),
        (
            "kd-standard",
            PsdConfig::kd_standard(d, 3, 0.8).with_seed(7),
        ),
        ("kd-hybrid", PsdConfig::kd_hybrid(d, 4, 0.6, 2).with_seed(9)),
        (
            "kd-noisymean",
            PsdConfig::kd_noisymean(d, 3, 0.5).with_seed(3),
        ),
        (
            "kd-cell",
            PsdConfig::kd_cell(d, 3, 1.0, (32, 32)).with_seed(21),
        ),
        (
            "hilbert-r",
            PsdConfig::hilbert_r(d, 3, 0.5)
                .with_hilbert_order(10)
                .with_seed(11),
        ),
        ("kd-true", PsdConfig::kd_true(d, 3, 0.7).with_seed(5)),
        ("kd-pure", PsdConfig::kd_pure(d, 3)),
        (
            "quadtree-leafonly",
            PsdConfig::quadtree(d, 3, 0.5)
                .with_count_budget(CountBudget::LeafOnly)
                .with_postprocess(false)
                .with_seed(2),
        ),
        (
            "kd-standard-pruned",
            PsdConfig::kd_standard(d, 4, 0.4)
                .with_prune_threshold(20.0)
                .with_seed(13),
        ),
    ]
}

/// Captured from the pre-refactor planar implementation. Regenerate by
/// running with `PRINT_FINGERPRINTS=1` and `--nocapture` — but a change
/// here means the build pipeline is no longer bit-compatible and must be
/// justified.
const GOLDEN: &[(&str, u64)] = &[
    ("quadtree", 0x0a030709860dc29c),
    ("kd-standard", 0x0f34ca68b9773be8),
    ("kd-hybrid", 0x1e2ade64ab8d9b65),
    ("kd-noisymean", 0xf962e28b45cd1e9e),
    ("kd-cell", 0xee48484315bd409c),
    ("hilbert-r", 0xe2171a82de349e2c),
    ("kd-true", 0xf0ce24a7b0fd690e),
    ("kd-pure", 0x8954417b338847a8),
    ("quadtree-leafonly", 0x5cd98e89c0987890),
    ("kd-standard-pruned", 0x745d30ad3549aec4),
];

/// Deterministic clustered 3-D dataset for the dimension-generic
/// `kd-cell`/`Hilbert-R` fingerprints (no RNG, refactor-proof).
fn dataset_3d() -> Vec<Point<3>> {
    let mut pts = Vec::new();
    for i in 0..3000 {
        pts.push(Point::from_coords([
            (i % 25) as f64 * 0.6,
            (i / 25 % 25) as f64 * 0.6,
            (i / 625) as f64 * 3.1,
        ]));
    }
    for i in 0..500 {
        pts.push(Point::from_coords([
            i as f64 * 0.128,
            i as f64 * 0.128,
            (i % 64) as f64,
        ]));
    }
    pts
}

/// Configs exercising the grid and curve families beyond the planar
/// goldens: `kd-cell` and `Hilbert-R` at `D = 3`, and the Z-order curve
/// (at `D = 3` here and at `D = 2` in the tests).
fn configs_nd() -> Vec<(&'static str, PsdConfig<3>)> {
    let d = Rect::from_corners([0.0; 3], [64.0; 3]).unwrap();
    vec![
        (
            "kd-cell-3d",
            PsdConfig::kd_cell(d, 2, 1.0, (16, 16)).with_seed(21),
        ),
        (
            "hilbert-r-3d",
            PsdConfig::hilbert_r(d, 2, 0.5)
                .with_hilbert_order(8)
                .with_seed(11),
        ),
        (
            "zorder-r-3d",
            PsdConfig::hilbert_r(d, 2, 0.5)
                .with_curve(CurveKind::ZOrder)
                .with_hilbert_order(8)
                .with_seed(11),
        ),
    ]
}

/// Captured from this implementation when the families first became
/// dimension-generic: any change here means the `D != 2` build pipeline
/// (grid reads, curve encoding, RNG order) drifted and must be
/// justified. Regenerate with `PRINT_FINGERPRINTS=1`.
const GOLDEN_ND: &[(&str, u64)] = &[
    ("kd-cell-3d", 0x79f5ec77f4959744),
    ("hilbert-r-3d", 0xf5105717e3293c9e),
    ("zorder-r-3d", 0x5e488c8a66e047da),
    ("zorder-r-2d", 0xa676cc6cc7b4171e),
];

#[test]
fn dimension_generic_families_match_their_goldens() {
    let pts3 = dataset_3d();
    let zorder2 = (
        "zorder-r-2d",
        PsdConfig::hilbert_r(domain(), 3, 0.5)
            .with_curve(CurveKind::ZOrder)
            .with_hilbert_order(10)
            .with_seed(11),
    );
    let mut prints: Vec<(&'static str, u64)> = configs_nd()
        .into_iter()
        .map(|(name, config)| (name, fingerprint(&config.build(&pts3).unwrap())))
        .collect();
    prints.push((
        zorder2.0,
        fingerprint(&zorder2.1.build(&dataset()).unwrap()),
    ));
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, fp) in &prints {
            println!("(\"{name}\", {fp:#018x}),");
        }
        return;
    }
    for (name, fp) in prints {
        let expected = GOLDEN_ND
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        assert_eq!(fp, expected, "{name}: Nd build no longer reproducible");
    }
}

#[test]
fn two_d_pipeline_is_bit_identical_to_pre_refactor_golden() {
    let pts = dataset();
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, config) in configs() {
            let tree = config.build(&pts).unwrap();
            println!("(\"{name}\", {:#018x}),", fingerprint(&tree));
        }
        return;
    }
    for (name, config) in configs() {
        let tree = config.build(&pts).unwrap();
        let expected = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        assert_eq!(
            fingerprint(&tree),
            expected,
            "{name}: tree no longer bit-identical to the pre-refactor build"
        );
    }
}

/// The binary format is held to the same standard as the parallel
/// path: for every fingerprinted family config, publishing the release
/// as `dpsd-bin/v1` and loading it back must return bit-for-bit what
/// the release returns, query for query, and re-encode to the same
/// bytes.
#[test]
fn flat_arena_is_bit_identical_on_all_golden_configs() {
    let pts = dataset();
    let queries = workload::<2>();
    for (name, config) in configs() {
        let released = config.build(&pts).unwrap().release();
        let blob = released.to_flat_bytes();
        let reloaded = ReleasedSynopsis::<2>::from_bytes(&blob).unwrap();
        assert_eq!(
            reloaded.to_flat_bytes(),
            blob,
            "{name}: binary re-encode drifted"
        );
        let expect = released.query_batch(&queries);
        for (i, (&t, &r)) in expect
            .iter()
            .zip(&reloaded.query_batch(&queries))
            .enumerate()
        {
            assert_eq!(
                t.to_bits(),
                r.to_bits(),
                "{name}: binary round-trip diverged from the tree at query {i}"
            );
        }
    }
}

/// The parallel query path is held to the same standard as the build
/// pipeline: for every fingerprinted family config,
/// `query_batch_parallel` must return bit-for-bit what the sequential
/// batch (and therefore a loop of single queries) returns, at every
/// thread count.
#[test]
fn parallel_queries_are_bit_identical_on_all_golden_configs() {
    let pts = dataset();
    let queries = workload::<2>();
    for (name, config) in configs() {
        let tree = config.build(&pts).unwrap();
        let sequential = tree.query_batch(&queries);
        for threads in [1usize, 2, 3, 8] {
            let parallel = tree.query_batch_parallel(&queries, Parallelism::fixed(threads));
            assert_eq!(
                parallel.len(),
                sequential.len(),
                "{name}: t={threads} dropped answers"
            );
            for (i, (&s, &p)) in sequential.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "{name}: parallel (t={threads}) diverged from sequential at query {i}"
                );
            }
        }
    }
}

/// A deterministic 300-rect workload, some rects overflowing the
/// domain; deeper axes (`D > 2`) get their own stride.
fn workload<const D: usize>() -> Vec<Rect<D>> {
    (0..300)
        .map(|i| {
            let mut min = [0.0; D];
            let mut max = [0.0; D];
            for k in 0..D {
                let (lo, extent) = match k {
                    0 => ((i % 21) as f64 * 2.9 - 3.0, 0.7 + (i % 15) as f64 * 3.1),
                    1 => (((i * 11) % 17) as f64 * 3.7, 1.3 + (i % 7) as f64 * 5.9),
                    _ => (
                        ((i * (2 * k + 3)) % 13) as f64 * 4.9 - 2.0,
                        2.1 + (i % 9) as f64 * 6.3,
                    ),
                };
                min[k] = lo;
                max[k] = lo + extent;
            }
            Rect::from_corners(min, max).unwrap()
        })
        .collect()
}

/// Folds every answer bit a tree gives the workload — per count
/// source, batched and profiled — plus each profile's per-level
/// contribution counts and partial-leaf count.
fn answer_fingerprint<const D: usize>(tree: &PsdTree<D>, queries: &[Rect<D>]) -> u64 {
    let mut h = Fnv::new();
    for source in [
        CountSource::Auto,
        CountSource::Noisy,
        CountSource::Posted,
        CountSource::True,
    ] {
        if source == CountSource::Posted && !tree.is_postprocessed() {
            continue;
        }
        let batch = range_query_batch_with(tree, queries, source);
        for (q, &b) in queries.iter().zip(&batch) {
            h.f64(b);
            let (single, profile) = dpsd::core::query::range_query_profiled(tree, q, source);
            assert_eq!(single.to_bits(), b.to_bits(), "{source:?}: single vs batch");
            for &n in &profile.contained_per_level {
                h.word(n as u64);
            }
            h.word(profile.partial_leaves as u64);
        }
    }
    h.0
}

/// Pins the query answers themselves, not just the node columns: every
/// golden family answers the 300-rect workload from every count source
/// with exactly these bits. Captured before the tree and the serving
/// arena shared one query kernel; regenerate with `PRINT_FINGERPRINTS=1`
/// only for a deliberate change of query semantics.
const GOLDEN_ANSWERS: &[(&str, u64)] = &[
    ("quadtree", 0x7cb5270a4376e3ef),
    ("kd-standard", 0x71cc8d83bd391070),
    ("kd-hybrid", 0x7d0afee6e15dd493),
    ("kd-noisymean", 0xeb0c1dbfd5cef23a),
    ("kd-cell", 0x0ba56894fc835362),
    ("hilbert-r", 0x23acfca1d0325679),
    ("kd-true", 0x0423ae7705dd18c7),
    ("kd-pure", 0xc6fe7258bb0903cb),
    ("quadtree-leafonly", 0x5cb763164549efa0),
    ("kd-standard-pruned", 0x750279923d0454c3),
    ("kd-cell-3d", 0x1465bb9fba9365f2),
    ("hilbert-r-3d", 0xc99e3421afe17ec7),
    ("zorder-r-3d", 0x4b9a5be11de506df),
    ("zorder-r-2d", 0xff2259d354534d6f),
];

#[test]
fn query_answers_match_their_goldens() {
    let pts = dataset();
    let pts3 = dataset_3d();
    let mut prints: Vec<(&'static str, u64)> = configs()
        .into_iter()
        .map(|(name, config)| {
            let tree = config.build(&pts).unwrap();
            (name, answer_fingerprint(&tree, &workload::<2>()))
        })
        .collect();
    for (name, config) in configs_nd() {
        let tree = config.build(&pts3).unwrap();
        prints.push((name, answer_fingerprint(&tree, &workload::<3>())));
    }
    let zorder2 = PsdConfig::hilbert_r(domain(), 3, 0.5)
        .with_curve(CurveKind::ZOrder)
        .with_hilbert_order(10)
        .with_seed(11)
        .build(&pts)
        .unwrap();
    prints.push((
        "zorder-r-2d",
        answer_fingerprint(&zorder2, &workload::<2>()),
    ));
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, fp) in &prints {
            println!("(\"{name}\", {fp:#018x}),");
        }
        return;
    }
    for (name, fp) in prints {
        let expected = GOLDEN_ANSWERS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        assert_eq!(fp, expected, "{name}: query answers drifted");
    }
}

/// Two deterministic probe datasets in `[0, 64)^D` (no RNG): set 0 is
/// a dense corner cluster plus a sparse diagonal, set 1 a coarse
/// lattice with a hot spot near the far corner.
fn probe_points<const D: usize>(set: usize) -> Vec<Point<D>> {
    (0..1200)
        .map(|i| {
            let mut coords = [0.0; D];
            for (k, c) in coords.iter_mut().enumerate() {
                *c = match (set, i % 4) {
                    (0, 0) => (i % 61) as f64 + 0.5,
                    (0, _) => 2.0 + ((i * (2 * k + 3)) % 53) as f64 * 0.15,
                    (_, 0) => 50.0 + ((i + k) % 9) as f64 * 0.7,
                    _ => ((i / 5usize.pow(k as u32)) % 5) as f64 * 12.5 + 3.1,
                };
            }
            Point::from_coords(coords)
        })
        .collect()
}

/// Builds every probe config of one dimension over both probe datasets
/// and folds each release's full `dpsd-bin` bytes: kd-cell at each
/// `(height, grid)` of `cells`, and Hilbert-R and Z-order-R at each
/// `(height, order)` of `curves`, each with pruning off and on. Seeds
/// derive from the probe name, so adding probes moves no other pin.
fn probe_prints<const D: usize>(
    cells: &[(usize, (usize, usize))],
    curves: &[(usize, u32)],
) -> Vec<(String, u64)> {
    let domain = Rect::from_corners([0.0; D], [64.0; D]).unwrap();
    let mut configs: Vec<(String, PsdConfig<D>)> = Vec::new();
    for &(h, grid) in cells {
        configs.push((
            format!("kd-cell/d{D}/h{h}/g{}x{}", grid.0, grid.1),
            PsdConfig::kd_cell(domain, h, 1.0, grid),
        ));
    }
    for &(h, order) in curves {
        for (tag, curve) in [
            ("hilbert-r", CurveKind::Hilbert),
            ("zorder-r", CurveKind::ZOrder),
        ] {
            configs.push((
                format!("{tag}/d{D}/h{h}/o{order}"),
                PsdConfig::hilbert_r(domain, h, 0.5)
                    .with_curve(curve)
                    .with_hilbert_order(order),
            ));
        }
    }
    let mut prints = Vec::new();
    for set in 0..2 {
        let pts = probe_points::<D>(set);
        for (base, config) in &configs {
            for (suffix, threshold) in [("", None), ("/prune", Some(8.0))] {
                let name = format!("{base}{suffix}/set{set}");
                let mut seed = Fnv::new();
                seed.bytes(name.as_bytes());
                let mut config = config.clone().with_seed(seed.0);
                if let Some(m) = threshold {
                    config = config.with_prune_threshold(m);
                }
                let bytes = config.build(&pts).unwrap().release().to_flat_bytes();
                let mut h = Fnv::new();
                h.bytes(&bytes);
                prints.push((name, h.0));
            }
        }
    }
    prints
}

/// Pins the full `dpsd-bin` bytes of the grid and curve families
/// across dimensions, heights, grids, orders, pruning and datasets, so
/// any drift in grid reads, curve encoding, box computation or RNG
/// order shows up as a changed hash. Regenerate with
/// `PRINT_FINGERPRINTS=1` only for a deliberate change.
#[test]
fn grid_and_curve_families_match_their_byte_pins() {
    let mut prints = probe_prints::<1>(&[(3, (16, 1)), (6, (64, 1))], &[(4, 6), (7, 20)]);
    prints.extend(probe_prints::<2>(
        &[(2, (16, 16)), (3, (32, 8)), (4, (64, 32))],
        &[(3, 18), (4, 3)],
    ));
    prints.extend(probe_prints::<3>(
        &[(2, (16, 8)), (3, (8, 8))],
        &[(2, 4), (3, 8)],
    ));
    prints.extend(probe_prints::<4>(
        &[(1, (8, 4)), (2, (6, 6))],
        &[(1, 2), (2, 6)],
    ));
    // Order 1 with more leaves than curve cells: most ranges are empty,
    // so the empty-range boxes and the clamped splits carry the bytes.
    prints.extend(probe_prints::<2>(&[], &[(3, 1)]));
    prints.extend(probe_prints::<3>(&[], &[(2, 1)]));
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, fp) in &prints {
            println!("(\"{name}\", {fp:#018x}),");
        }
        return;
    }
    for (name, fp) in prints {
        let expected = GOLDEN_BIN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        assert_eq!(fp, expected, "{name}: release bytes drifted");
    }
}

/// A tie-heavy dataset over `[-32, 32]^D`, a domain that straddles 0:
/// every coordinate value repeats many times, a third of them sit
/// exactly on a midpoint split boundary of the domain (0, ±8, ±16,
/// ±24), and both `-0.0` and `+0.0` occur on every axis (no RNG).
fn tie_points<const D: usize>() -> Vec<Point<D>> {
    const ON_MIDPOINTS: [f64; 6] = [-16.0, 16.0, -8.0, 8.0, 24.0, -24.0];
    (0..900)
        .map(|i: usize| {
            let mut coords = [0.0; D];
            for (k, c) in coords.iter_mut().enumerate() {
                *c = match (i + k) % 6 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => ON_MIDPOINTS[(i / 6 + k) % 6],
                    3 => -32.0 + ((i * (k + 2)) % 9) as f64 * 8.0,
                    4 => 3.5,
                    _ => -((i / 7 % 13) as f64) * 1.25,
                };
            }
            Point::from_coords(coords)
        })
        .collect()
}

/// Folds one release's full `dpsd-bin` bytes, seeding the build from
/// the probe name so that adding probes moves no other pin.
fn release_print<const D: usize>(
    name: String,
    config: &PsdConfig<D>,
    pts: &[Point<D>],
) -> (String, u64) {
    let mut seed = Fnv::new();
    seed.bytes(name.as_bytes());
    let bytes = config
        .clone()
        .with_seed(seed.0)
        .build(pts)
        .unwrap()
        .release()
        .to_flat_bytes();
    let mut h = Fnv::new();
    h.bytes(&bytes);
    (name, h.0)
}

/// Builds each axis-splitting median family (kd-standard, kd-hybrid,
/// kd-noisymean, kd-true, kd-pure) at every height of `heights` over
/// both probe datasets and the tie-heavy one, and folds each release's
/// `dpsd-bin` bytes.
fn kd_probe_prints<const D: usize>(heights: &[usize]) -> Vec<(String, u64)> {
    let probe = Rect::from_corners([0.0; D], [64.0; D]).unwrap();
    let ties = Rect::from_corners([-32.0; D], [32.0; D]).unwrap();
    let mut prints = Vec::new();
    for (set, domain, pts) in [
        ("set0", probe, probe_points::<D>(0)),
        ("set1", probe, probe_points::<D>(1)),
        ("ties", ties, tie_points::<D>()),
    ] {
        for &h in heights {
            for (tag, config) in [
                ("kd-standard", PsdConfig::kd_standard(domain, h, 0.8)),
                ("kd-hybrid", PsdConfig::kd_hybrid(domain, h, 0.6, h / 2)),
                ("kd-noisymean", PsdConfig::kd_noisymean(domain, h, 0.5)),
                ("kd-true", PsdConfig::kd_true(domain, h, 0.7)),
                ("kd-pure", PsdConfig::kd_pure(domain, h)),
            ] {
                prints.push(release_print(
                    format!("{tag}/d{D}/h{h}/{set}"),
                    &config,
                    &pts,
                ));
            }
        }
    }
    prints
}

/// Builds kd-hybrid at switch levels 0, 1, `h - 1` and `h` over both
/// probe datasets and folds each release's `dpsd-bin` bytes: the edges
/// where a build hands its nodes from median cuts to midpoint cuts.
fn hybrid_switch_prints<const D: usize>(h: usize) -> Vec<(String, u64)> {
    let domain = Rect::from_corners([0.0; D], [64.0; D]).unwrap();
    let mut prints = Vec::new();
    for set in 0..2 {
        let pts = probe_points::<D>(set);
        for switch in [0, 1, h - 1, h] {
            prints.push(release_print(
                format!("kd-hybrid/switch{switch}/d{D}/h{h}/set{set}"),
                &PsdConfig::kd_hybrid(domain, h, 0.6, switch),
                &pts,
            ));
        }
    }
    prints
}

/// Pins the full `dpsd-bin` bytes of the private-median families where
/// the planar `GOLDEN` table cannot see them: every axis-splitting
/// median family at `D` in {1, 3, 4} and, at `D = 2`, on the tie-heavy
/// dataset, the sampled exponential and the smooth-sensitivity
/// selectors at `D = 2`, and kd-hybrid at the edges of its switch level
/// at `D` in {2, 3}. Captured before the builder sorted each axis once
/// per build, so they pin that presorting reproduces the per-node sorts
/// bit for bit. Regenerate with `PRINT_FINGERPRINTS=1` only for a
/// deliberate change.
#[test]
fn median_families_match_their_byte_pins() {
    let mut prints = kd_probe_prints::<1>(&[4, 7]);
    prints.extend(kd_probe_prints::<3>(&[2, 3]));
    prints.extend(kd_probe_prints::<4>(&[1, 2]));
    prints.extend(hybrid_switch_prints::<2>(5));
    prints.extend(hybrid_switch_prints::<3>(3));
    let ties = Rect::from_corners([-32.0; 2], [32.0; 2]).unwrap();
    for config in [
        PsdConfig::kd_standard(ties, 4, 0.8),
        PsdConfig::kd_hybrid(ties, 5, 0.6, 2),
        PsdConfig::kd_noisymean(ties, 3, 0.5),
        PsdConfig::kd_true(ties, 3, 0.7),
        PsdConfig::kd_pure(ties, 4),
    ] {
        let name = format!("{}/d2/h{}/ties", config.kind, config.height);
        prints.push(release_print(name, &config, &tie_points::<2>()));
    }
    // A 1% sample of the 1,200 probe points is too thin to reach the
    // mechanism below the root, so the selector probes also run over
    // 20,000 scattered points.
    let domain = Rect::from_corners([0.0; 2], [64.0; 2]).unwrap();
    let scattered: Vec<Point> = (0..20_000u64)
        .map(|i| {
            Point::new(
                (i * 7919 % 20_011) as f64 / 20_011.0 * 64.0,
                (i * 104_729 % 19_997) as f64 / 19_997.0 * (16.0 + (i % 3) as f64 * 24.0),
            )
        })
        .collect();
    for (set, pts) in [
        ("set0", probe_points::<2>(0)),
        ("set1", probe_points::<2>(1)),
        ("scattered", scattered),
    ] {
        for base in [
            PsdConfig::kd_standard(domain, 4, 0.8),
            PsdConfig::kd_hybrid(domain, 5, 0.6, 3),
        ] {
            let (kind, h) = (base.kind, base.height);
            let sampled = base
                .clone()
                .with_median_sampling(SamplingPlan::paper_default());
            let smooth = base.with_median(MedianSelector::plain(MedianConfig::SmoothSensitivity {
                delta: 1e-4,
            }));
            for (tag, config) in [("sampled-em", sampled), ("smooth", smooth)] {
                let name = format!("{kind}/{tag}/d2/h{h}/{set}");
                prints.push(release_print(name, &config, &pts));
            }
        }
    }
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, fp) in &prints {
            println!("(\"{name}\", {fp:#018x}),");
        }
        return;
    }
    for (name, fp) in prints {
        let expected = GOLDEN_MEDIAN_BIN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        assert_eq!(fp, expected, "{name}: release bytes drifted");
    }
}

/// Points for the flat-grid pins over `[-2, 6]^D`: an irregular
/// interior lattice, points on every half-unit edge (the cell edges of
/// the power-of-two resolutions), both domain corners, and points
/// outside the domain, which a grid skips. No RNG.
fn flat_grid_points<const D: usize>() -> Vec<Point<D>> {
    let mut pts: Vec<Point<D>> = (0..400usize)
        .map(|i| {
            Point::from_coords(std::array::from_fn(|k| {
                -2.0 + ((i * (2 * k + 3) + k) % 97) as f64 * 0.0825
            }))
        })
        .collect();
    for i in 0..17 {
        pts.push(Point::from_coords(std::array::from_fn(|k| {
            -2.0 + ((i + k) % 17) as f64 * 0.5
        })));
    }
    pts.push(Point::from_coords([6.0; D]));
    pts.push(Point::from_coords([6.0; D]));
    pts.push(Point::from_coords([-2.0; D]));
    pts.push(Point::from_coords(std::array::from_fn(|k| {
        if k == 0 {
            6.5
        } else {
            1.0
        }
    })));
    pts.push(Point::from_coords([-2.25; D]));
    pts.push(Point::from_coords([100.0; D]));
    pts
}

/// Queries for the flat-grid pins: the domain, a box larger than it,
/// cell-aligned and unaligned boxes, a disjoint one, boxes that only
/// touch the domain's upper corner or its lower face, zero-volume
/// boxes, an overhanging one, and a sweep of unaligned boxes (some of
/// them flat on an axis).
fn flat_grid_queries<const D: usize>() -> Vec<Rect<D>> {
    let rect = |lo: [f64; D], hi: [f64; D]| Rect::from_corners(lo, hi).unwrap();
    let mut qs = vec![
        rect([-2.0; D], [6.0; D]),
        rect([-10.0; D], [20.0; D]),
        rect([0.0; D], [4.0; D]),
        rect([-1.3; D], [4.7; D]),
        rect([10.0; D], [12.0; D]),
        rect([6.0; D], [9.0; D]),
        rect(
            [-5.0; D],
            std::array::from_fn(|k| if k == 0 { -2.0 } else { 3.0 }),
        ),
        rect([2.5; D], [2.5; D]),
        rect(
            std::array::from_fn(|k| if k == 0 { 1.0 } else { -1.0 }),
            std::array::from_fn(|k| if k == 0 { 1.0 } else { 5.0 }),
        ),
        rect([3.0; D], [9.0; D]),
        rect([-2.0; D], [-2.0 + 1e-9; D]),
    ];
    for i in 0..40usize {
        let lo: [f64; D] = std::array::from_fn(|k| -3.0 + ((i * 7 + k * 3) % 23) as f64 * 0.37);
        let hi = std::array::from_fn(|k| lo[k] + ((i * 5 + k) % 11) as f64 * 0.61);
        qs.push(rect(lo, hi));
    }
    qs
}

/// Builds a flat grid at each resolution of `resolutions` and each of
/// three epsilons, over three seeds, and folds every answer bit and
/// every profile count the grid gives the query set.
fn flat_grid_prints<const D: usize>(resolutions: &[[usize; D]]) -> Vec<(String, u64)> {
    let domain = Rect::from_corners([-2.0; D], [6.0; D]).unwrap();
    let (pts, queries) = (flat_grid_points::<D>(), flat_grid_queries::<D>());
    let mut prints = Vec::new();
    for res in resolutions {
        for eps in [0.05, 0.7, 4.0] {
            let mut h = Fnv::new();
            for seed in [0, 7, 2012] {
                let grid = FlatGrid::build(&pts, domain, *res, eps, seed).unwrap();
                h.word(grid.node_count() as u64);
                for q in &queries {
                    let (est, profile) = grid.query_profiled(q);
                    h.f64(grid.query(q));
                    h.f64(est);
                    h.word(profile.contained_per_level.len() as u64);
                    for &c in &profile.contained_per_level {
                        h.word(c as u64);
                    }
                    h.word(profile.partial_leaves as u64);
                }
            }
            let res: Vec<String> = res.iter().map(usize::to_string).collect();
            prints.push((format!("flat-grid/d{D}/r{}/eps{eps}", res.join("x")), h.0));
        }
    }
    prints
}

/// Pins the flat-grid baseline's answers and query profiles at `D` in
/// 1..=4, captured while it still drew its own grid. Regenerate with
/// `PRINT_FINGERPRINTS=1` only for a deliberate change.
#[test]
fn flat_grid_answers_match_their_pins() {
    let mut prints = flat_grid_prints::<1>(&[[1], [3], [8], [16]]);
    prints.extend(flat_grid_prints::<2>(&[[4, 4], [3, 5], [8, 1], [16, 16]]));
    prints.extend(flat_grid_prints::<3>(&[[2, 3, 4], [4, 4, 4], [8, 8, 8]]));
    prints.extend(flat_grid_prints::<4>(&[
        [2, 2, 2, 2],
        [3, 1, 2, 4],
        [4, 4, 4, 4],
    ]));
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, fp) in &prints {
            println!("(\"{name}\", {fp:#018x}),");
        }
        return;
    }
    assert_eq!(prints.len(), GOLDEN_FLAT_GRID.len());
    for (name, fp) in prints {
        let expected = GOLDEN_FLAT_GRID
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"))
            .1;
        assert_eq!(fp, expected, "{name}: flat-grid answers drifted");
    }
}

/// The medians Figure 4's "cell" method reads: the grid it builds
/// (`2^26 / 1024` cells over `[0, 2^26)`, `ε = 0.01` per cell, noise
/// seeded with `seed ^ 0xF164`), read at every range of its binary
/// recursion down to `max_depth`, each range split at its median.
fn fig4_cell_medians(n: usize, max_depth: usize, seed: u64) -> Vec<f64> {
    use dpsd::core::median::CellGridNd;
    use dpsd::eval::fig4::{CELL_LENGTH, DOMAIN_HI, EPS_PER_LEVEL};

    fn recurse(
        grid: &CellGridNd<1>,
        values: &[f64],
        (lo, hi): (f64, f64),
        depth: usize,
        max_depth: usize,
        medians: &mut Vec<f64>,
    ) {
        if depth > max_depth || values.is_empty() || hi <= lo {
            return;
        }
        let split = grid.median_along(0, &Rect::from_corners([lo], [hi]).unwrap());
        medians.push(split);
        let mid = values.partition_point(|&x| x < split);
        recurse(
            grid,
            &values[..mid],
            (lo, split),
            depth + 1,
            max_depth,
            medians,
        );
        recurse(
            grid,
            &values[mid..],
            (split, hi),
            depth + 1,
            max_depth,
            medians,
        );
    }

    let mut values = dpsd::data::synthetic::uniform_1d(n, 0.0, DOMAIN_HI, seed);
    values.sort_unstable_by(f64::total_cmp);
    let points: Vec<Point<1>> = values.iter().map(|&v| Point::from_coords([v])).collect();
    let grid = CellGridNd::build(
        &mut dpsd::core::rng::seeded(seed ^ 0xF164),
        &points,
        Rect::from_corners([0.0], [DOMAIN_HI]).unwrap(),
        [(DOMAIN_HI / CELL_LENGTH) as usize],
        EPS_PER_LEVEL,
    )
    .unwrap();
    let mut medians = Vec::new();
    recurse(&grid, &values, (0.0, DOMAIN_HI), 0, max_depth, &mut medians);
    medians
}

/// Pins the 1-D cell medians Figure 4 reads, at its quick size
/// recursed past its depth and at its paper size, captured while they
/// were read off a one-dimensional grid of their own. Regenerate with
/// `PRINT_FINGERPRINTS=1` only for a deliberate change.
#[test]
fn fig4_cell_medians_match_their_pins() {
    let mut prints = Vec::new();
    for (n, depth, seeds) in [(1 << 15, 12, &[7, 8, 2012][..]), (1 << 20, 9, &[2012][..])] {
        for &seed in seeds {
            let medians = fig4_cell_medians(n, depth, seed);
            let mut h = Fnv::new();
            for m in &medians {
                h.f64(*m);
            }
            let name = format!("fig4-cell/n{n}/d{depth}/seed{seed}");
            prints.push((name, medians.len(), h.0));
        }
    }
    if std::env::var("PRINT_FINGERPRINTS").is_ok() {
        for (name, len, fp) in &prints {
            println!("(\"{name}\", {len}, {fp:#018x}),");
        }
        return;
    }
    assert_eq!(prints.len(), GOLDEN_FIG4_CELL.len());
    for (name, len, fp) in prints {
        let &(_, expected_len, expected) = GOLDEN_FIG4_CELL
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden entry for {name}"));
        assert_eq!(len, expected_len, "{name}: fig4 visits other ranges");
        assert_eq!(fp, expected, "{name}: fig4 cell medians drifted");
    }
}

/// FNV folds of the probe releases' `dpsd-bin` bytes. Every curve entry
/// and the kd-cell entries at `D <= 2` were captured while `D = 2` still
/// ran separate planar builders, so they pin that the one generic
/// builder per family reproduces them; the kd-cell entries at `D >= 3`
/// were captured once the grid multiplied overlap fractions in axis
/// order, `(c · f_0) · f_1 · …`; the order-1 curve entries were
/// captured while Hilbert-R still cut its ranges in a recursion of its
/// own.
const GOLDEN_BIN: &[(&str, u64)] = &[
    ("kd-cell/d1/h3/g16x1/set0", 0x9ff964f344a03e7a),
    ("kd-cell/d1/h3/g16x1/prune/set0", 0x79cff81abb4624ac),
    ("kd-cell/d1/h6/g64x1/set0", 0x9484aa74d1e2dade),
    ("kd-cell/d1/h6/g64x1/prune/set0", 0x6f160c2124128a15),
    ("hilbert-r/d1/h4/o6/set0", 0x1b9c4f92c8099c87),
    ("hilbert-r/d1/h4/o6/prune/set0", 0xcdc365ca80eb9416),
    ("zorder-r/d1/h4/o6/set0", 0xf4b5a1f7588195a4),
    ("zorder-r/d1/h4/o6/prune/set0", 0xbd5ebae322e5034b),
    ("hilbert-r/d1/h7/o20/set0", 0xcc7df4d2380c3b05),
    ("hilbert-r/d1/h7/o20/prune/set0", 0x77350c2b9c1a5bcf),
    ("zorder-r/d1/h7/o20/set0", 0x28b83552a882edc3),
    ("zorder-r/d1/h7/o20/prune/set0", 0x3d36363d40a4c8e3),
    ("kd-cell/d1/h3/g16x1/set1", 0xd63e8c190b148887),
    ("kd-cell/d1/h3/g16x1/prune/set1", 0x51954d8ef557d0bf),
    ("kd-cell/d1/h6/g64x1/set1", 0xc66ae02e7e324623),
    ("kd-cell/d1/h6/g64x1/prune/set1", 0x8a988eca96056bb0),
    ("hilbert-r/d1/h4/o6/set1", 0x836df02552349517),
    ("hilbert-r/d1/h4/o6/prune/set1", 0x340fab7c44be4043),
    ("zorder-r/d1/h4/o6/set1", 0xf4c172f3e09e5562),
    ("zorder-r/d1/h4/o6/prune/set1", 0x329f0c51749c397b),
    ("hilbert-r/d1/h7/o20/set1", 0x9eb802f98a3c562f),
    ("hilbert-r/d1/h7/o20/prune/set1", 0x2dc0807c922d3c9b),
    ("zorder-r/d1/h7/o20/set1", 0x8a7f879655917313),
    ("zorder-r/d1/h7/o20/prune/set1", 0xba7d8dc44c5327a0),
    ("kd-cell/d2/h2/g16x16/set0", 0xc0533c94c8106e54),
    ("kd-cell/d2/h2/g16x16/prune/set0", 0x9a2128edb5143202),
    ("kd-cell/d2/h3/g32x8/set0", 0x3d001e96047aa8c4),
    ("kd-cell/d2/h3/g32x8/prune/set0", 0x0d20a0554fda5531),
    ("kd-cell/d2/h4/g64x32/set0", 0xff612022522a2077),
    ("kd-cell/d2/h4/g64x32/prune/set0", 0x2eb7073ad7620293),
    ("hilbert-r/d2/h3/o18/set0", 0x72075031ce763a31),
    ("hilbert-r/d2/h3/o18/prune/set0", 0xf299a473ba25f2bd),
    ("zorder-r/d2/h3/o18/set0", 0x5ef0bb896ec9aeaf),
    ("zorder-r/d2/h3/o18/prune/set0", 0x92302c5963fead24),
    ("hilbert-r/d2/h4/o3/set0", 0xdb2234cc3efecea5),
    ("hilbert-r/d2/h4/o3/prune/set0", 0xcbc6f41750f68541),
    ("zorder-r/d2/h4/o3/set0", 0xf1da1dad8b6835b2),
    ("zorder-r/d2/h4/o3/prune/set0", 0xf83dabfdae9c779c),
    ("kd-cell/d2/h2/g16x16/set1", 0x9941450331306926),
    ("kd-cell/d2/h2/g16x16/prune/set1", 0x9e764414f1d6a87e),
    ("kd-cell/d2/h3/g32x8/set1", 0xf45f3996fe72fe76),
    ("kd-cell/d2/h3/g32x8/prune/set1", 0x589b1447c1f4d537),
    ("kd-cell/d2/h4/g64x32/set1", 0x755807afb61e89db),
    ("kd-cell/d2/h4/g64x32/prune/set1", 0x5be5764d965629c5),
    ("hilbert-r/d2/h3/o18/set1", 0x2383021f3b4fc036),
    ("hilbert-r/d2/h3/o18/prune/set1", 0x72dfddf34c030bad),
    ("zorder-r/d2/h3/o18/set1", 0xca5c971175cdc9cf),
    ("zorder-r/d2/h3/o18/prune/set1", 0x4918c3c290df1373),
    ("hilbert-r/d2/h4/o3/set1", 0x83a99fcc0ac01483),
    ("hilbert-r/d2/h4/o3/prune/set1", 0x6e506530f745509c),
    ("zorder-r/d2/h4/o3/set1", 0xfe858646f9bc40b7),
    ("zorder-r/d2/h4/o3/prune/set1", 0x314121992a8d68da),
    ("kd-cell/d3/h2/g16x8/set0", 0xf1b125834e1b82f9),
    ("kd-cell/d3/h2/g16x8/prune/set0", 0x5b0dbdab3e35f310),
    ("kd-cell/d3/h3/g8x8/set0", 0x20e781cd6b35bb9c),
    ("kd-cell/d3/h3/g8x8/prune/set0", 0xceeb5e5831a96d9c),
    ("hilbert-r/d3/h2/o4/set0", 0x277d3b0b841df152),
    ("hilbert-r/d3/h2/o4/prune/set0", 0x09640738f11a755f),
    ("zorder-r/d3/h2/o4/set0", 0x0e84ba8eb6dda796),
    ("zorder-r/d3/h2/o4/prune/set0", 0x381f233bec39139c),
    ("hilbert-r/d3/h3/o8/set0", 0xa781b00abf8097f3),
    ("hilbert-r/d3/h3/o8/prune/set0", 0xdbded44a8bc93227),
    ("zorder-r/d3/h3/o8/set0", 0x79fb212d294780a6),
    ("zorder-r/d3/h3/o8/prune/set0", 0xa5d34f3484ce1ef8),
    ("kd-cell/d3/h2/g16x8/set1", 0xf95a7d58e4f8b218),
    ("kd-cell/d3/h2/g16x8/prune/set1", 0x426998d73ca6ede8),
    ("kd-cell/d3/h3/g8x8/set1", 0xc6e0020d2f6dbba0),
    ("kd-cell/d3/h3/g8x8/prune/set1", 0xffb16d548f12928d),
    ("hilbert-r/d3/h2/o4/set1", 0x25a17718a7e555ee),
    ("hilbert-r/d3/h2/o4/prune/set1", 0xeb34d4dd6eaf5b16),
    ("zorder-r/d3/h2/o4/set1", 0xd55be05ddfa5fde7),
    ("zorder-r/d3/h2/o4/prune/set1", 0xcd61ce029da07642),
    ("hilbert-r/d3/h3/o8/set1", 0x617b8e4122061987),
    ("hilbert-r/d3/h3/o8/prune/set1", 0xae47437f963e69cf),
    ("zorder-r/d3/h3/o8/set1", 0x66f789107969a74d),
    ("zorder-r/d3/h3/o8/prune/set1", 0xea1d06e1e9959dfc),
    ("kd-cell/d4/h1/g8x4/set0", 0xf9935191dff4b71a),
    ("kd-cell/d4/h1/g8x4/prune/set0", 0xf643e2d7711fed17),
    ("kd-cell/d4/h2/g6x6/set0", 0x6eb0747e6ceb7ea1),
    ("kd-cell/d4/h2/g6x6/prune/set0", 0x929b0531eccd8f91),
    ("hilbert-r/d4/h1/o2/set0", 0x69b30ba66bba9b79),
    ("hilbert-r/d4/h1/o2/prune/set0", 0xc7088ca2ba71eaae),
    ("zorder-r/d4/h1/o2/set0", 0x40b9c0e9722676b5),
    ("zorder-r/d4/h1/o2/prune/set0", 0x8df644485131322f),
    ("hilbert-r/d4/h2/o6/set0", 0x9679857666e9f9f6),
    ("hilbert-r/d4/h2/o6/prune/set0", 0xc2422be3764ee229),
    ("zorder-r/d4/h2/o6/set0", 0x83fa58f9d8635ee2),
    ("zorder-r/d4/h2/o6/prune/set0", 0xab53e1e4b1fc39e6),
    ("kd-cell/d4/h1/g8x4/set1", 0x55f8d29584197a59),
    ("kd-cell/d4/h1/g8x4/prune/set1", 0xf63fd8891af2a19a),
    ("kd-cell/d4/h2/g6x6/set1", 0x30a636340b6909cb),
    ("kd-cell/d4/h2/g6x6/prune/set1", 0x4904bd8370853385),
    ("hilbert-r/d4/h1/o2/set1", 0x9b134ddf254bbc8d),
    ("hilbert-r/d4/h1/o2/prune/set1", 0x700604222174c493),
    ("zorder-r/d4/h1/o2/set1", 0x59d9de7deb7bd601),
    ("zorder-r/d4/h1/o2/prune/set1", 0x987b7987df0f0f87),
    ("hilbert-r/d4/h2/o6/set1", 0xcc146ebad356a8fd),
    ("hilbert-r/d4/h2/o6/prune/set1", 0x96d86f975c42f700),
    ("zorder-r/d4/h2/o6/set1", 0x1e5105eb863f573c),
    ("zorder-r/d4/h2/o6/prune/set1", 0x7cfd8a6a0df3db70),
    ("hilbert-r/d2/h3/o1/set0", 0x78b7ea52286cf1cd),
    ("hilbert-r/d2/h3/o1/prune/set0", 0x4d3cf8027379a50e),
    ("zorder-r/d2/h3/o1/set0", 0x6e12b6909a4fafac),
    ("zorder-r/d2/h3/o1/prune/set0", 0x09e9a967c43883b3),
    ("hilbert-r/d2/h3/o1/set1", 0x2c27abbcba8481c6),
    ("hilbert-r/d2/h3/o1/prune/set1", 0x4a2637c5675c264b),
    ("zorder-r/d2/h3/o1/set1", 0xa725df4e22226128),
    ("zorder-r/d2/h3/o1/prune/set1", 0x1974df33ba4895f7),
    ("hilbert-r/d3/h2/o1/set0", 0x4234f17ef1dbd97b),
    ("hilbert-r/d3/h2/o1/prune/set0", 0x10799bc2974917a9),
    ("zorder-r/d3/h2/o1/set0", 0xe22a162e5af405a6),
    ("zorder-r/d3/h2/o1/prune/set0", 0x8ba139505c7cab9b),
    ("hilbert-r/d3/h2/o1/set1", 0xc0b5fb7c0a2aa722),
    ("hilbert-r/d3/h2/o1/prune/set1", 0x4800ea614953cd83),
    ("zorder-r/d3/h2/o1/set1", 0x99804be1c2223a1e),
    ("zorder-r/d3/h2/o1/prune/set1", 0x299072bd9e91dac9),
];

/// FNV folds of the median-family probe releases' `dpsd-bin` bytes,
/// captured while every split stage still collected and sorted its
/// node's values; the `switch` entries were captured while a hybrid
/// still gathered each switch-level subtree's points into a buffer of
/// its own.
const GOLDEN_MEDIAN_BIN: &[(&str, u64)] = &[
    ("kd-standard/d1/h4/set0", 0xd33ddd4288a51bd6),
    ("kd-hybrid/d1/h4/set0", 0x742241e3f17b0852),
    ("kd-noisymean/d1/h4/set0", 0xb2e6ad28bce0e6c1),
    ("kd-true/d1/h4/set0", 0x8873f484ee1117d8),
    ("kd-pure/d1/h4/set0", 0x90fd440016a1c056),
    ("kd-standard/d1/h7/set0", 0xa9b3ffe90e3b080f),
    ("kd-hybrid/d1/h7/set0", 0xc73d192a7f83e2a8),
    ("kd-noisymean/d1/h7/set0", 0xf226f3835d886871),
    ("kd-true/d1/h7/set0", 0xa516e63eabd8673d),
    ("kd-pure/d1/h7/set0", 0x16ffb5a56994be3f),
    ("kd-standard/d1/h4/set1", 0xb233ce36ef244ce3),
    ("kd-hybrid/d1/h4/set1", 0x1199e1b209d4d0cf),
    ("kd-noisymean/d1/h4/set1", 0x557a127112116918),
    ("kd-true/d1/h4/set1", 0x696cd4ce7c3f2cd6),
    ("kd-pure/d1/h4/set1", 0x4b51aa10843d048e),
    ("kd-standard/d1/h7/set1", 0x4b1352cf794fd8d3),
    ("kd-hybrid/d1/h7/set1", 0x54c4e5f1a058fb42),
    ("kd-noisymean/d1/h7/set1", 0xa2cb5b0a2e449660),
    ("kd-true/d1/h7/set1", 0x06410e882a881f50),
    ("kd-pure/d1/h7/set1", 0x42459d8f67e3ffe5),
    ("kd-standard/d1/h4/ties", 0xd020871020c9e6a9),
    ("kd-hybrid/d1/h4/ties", 0x9fed690ff9c5eac8),
    ("kd-noisymean/d1/h4/ties", 0xf81f1e2a0fc46a3f),
    ("kd-true/d1/h4/ties", 0x152a50a66c98f4cb),
    ("kd-pure/d1/h4/ties", 0x21725dbddf923f37),
    ("kd-standard/d1/h7/ties", 0x1f3239704393f257),
    ("kd-hybrid/d1/h7/ties", 0x35b70ee7bd2c1365),
    ("kd-noisymean/d1/h7/ties", 0xe551f76e88839d25),
    ("kd-true/d1/h7/ties", 0x9ba0a42798420095),
    ("kd-pure/d1/h7/ties", 0x1f4933db616043e5),
    ("kd-standard/d3/h2/set0", 0x62fa833586567ee6),
    ("kd-hybrid/d3/h2/set0", 0x72eb25832aedfac3),
    ("kd-noisymean/d3/h2/set0", 0xc5c2cda59c1bb1b8),
    ("kd-true/d3/h2/set0", 0x0bf5c2c0280518fb),
    ("kd-pure/d3/h2/set0", 0x698a3cc1ec33944a),
    ("kd-standard/d3/h3/set0", 0x0e33e6a77ca97ac2),
    ("kd-hybrid/d3/h3/set0", 0x59a6c5521b070e4b),
    ("kd-noisymean/d3/h3/set0", 0xdf8aadbd83e2d1e6),
    ("kd-true/d3/h3/set0", 0x678a69143f10a6d0),
    ("kd-pure/d3/h3/set0", 0x8f8c4cc5a80d851d),
    ("kd-standard/d3/h2/set1", 0x14eb8de3ab4a2ae0),
    ("kd-hybrid/d3/h2/set1", 0x464f3fee307c554f),
    ("kd-noisymean/d3/h2/set1", 0x59c47035f2f97630),
    ("kd-true/d3/h2/set1", 0xe6b53c07f376c120),
    ("kd-pure/d3/h2/set1", 0x9bd759b337e3c6e3),
    ("kd-standard/d3/h3/set1", 0xb9ac00523283885e),
    ("kd-hybrid/d3/h3/set1", 0x30b7ec4949366453),
    ("kd-noisymean/d3/h3/set1", 0x4defd41fb6e70456),
    ("kd-true/d3/h3/set1", 0xd8f78c4f5081d384),
    ("kd-pure/d3/h3/set1", 0xd5bd9bb251c355f5),
    ("kd-standard/d3/h2/ties", 0x195ae285b8d8b091),
    ("kd-hybrid/d3/h2/ties", 0x127824ec475dc60c),
    ("kd-noisymean/d3/h2/ties", 0x7cd3653685ed73c9),
    ("kd-true/d3/h2/ties", 0xf6889a0a3fb73cd1),
    ("kd-pure/d3/h2/ties", 0x259c19523d8a4951),
    ("kd-standard/d3/h3/ties", 0x329511f524b6d96d),
    ("kd-hybrid/d3/h3/ties", 0x87637c338cf28895),
    ("kd-noisymean/d3/h3/ties", 0xca816ea747d4d73a),
    ("kd-true/d3/h3/ties", 0x34b359e5336ef9c5),
    ("kd-pure/d3/h3/ties", 0xba637d686b46289e),
    ("kd-standard/d4/h1/set0", 0xaaeb493b91a7b655),
    ("kd-hybrid/d4/h1/set0", 0x799d213426795c6e),
    ("kd-noisymean/d4/h1/set0", 0x13c47530364a68dc),
    ("kd-true/d4/h1/set0", 0x9b6182b731e7792a),
    ("kd-pure/d4/h1/set0", 0x18029ad8ce671c33),
    ("kd-standard/d4/h2/set0", 0x402dca07c628dcf6),
    ("kd-hybrid/d4/h2/set0", 0x28538262edcd2831),
    ("kd-noisymean/d4/h2/set0", 0xeed0a5e7e47debe7),
    ("kd-true/d4/h2/set0", 0x7145e1b891608f62),
    ("kd-pure/d4/h2/set0", 0xe6b2749e23120fe5),
    ("kd-standard/d4/h1/set1", 0x54eeb581a30d1fef),
    ("kd-hybrid/d4/h1/set1", 0xa30e09ba20a64439),
    ("kd-noisymean/d4/h1/set1", 0x7f0c6a19695bbae6),
    ("kd-true/d4/h1/set1", 0x08056ffc6f3e34c2),
    ("kd-pure/d4/h1/set1", 0x234b40b0ee000ce7),
    ("kd-standard/d4/h2/set1", 0xcfd48b0d67892484),
    ("kd-hybrid/d4/h2/set1", 0x34230ede769589c4),
    ("kd-noisymean/d4/h2/set1", 0x93fdff91cb6a823e),
    ("kd-true/d4/h2/set1", 0xdb27776b23f02a98),
    ("kd-pure/d4/h2/set1", 0x9432fe9aefb734b0),
    ("kd-standard/d4/h1/ties", 0x13e7fb35f75432ca),
    ("kd-hybrid/d4/h1/ties", 0xe5229a7dfd1340ef),
    ("kd-noisymean/d4/h1/ties", 0x4faa748380d2f5b2),
    ("kd-true/d4/h1/ties", 0xe2d10f80b39f639a),
    ("kd-pure/d4/h1/ties", 0x2252d7b28a578474),
    ("kd-standard/d4/h2/ties", 0x971be50c3ff29db8),
    ("kd-hybrid/d4/h2/ties", 0xc30cb65779ca0969),
    ("kd-noisymean/d4/h2/ties", 0x288963064bea014b),
    ("kd-true/d4/h2/ties", 0x65ed4e3357055e60),
    ("kd-pure/d4/h2/ties", 0xcc892745904f5a68),
    ("kd-standard/d2/h4/ties", 0x5ad065d9526b218c),
    ("kd-hybrid/d2/h5/ties", 0x1afeb526eb7dfc65),
    ("kd-noisymean/d2/h3/ties", 0x7d80e50c419484ae),
    ("kd-true/d2/h3/ties", 0xf565fdfce04ec75a),
    ("kd-pure/d2/h4/ties", 0xfebfbfadd6e72b2e),
    ("kd-standard/sampled-em/d2/h4/set0", 0x20c447cd25c09d04),
    ("kd-standard/smooth/d2/h4/set0", 0x920a300229d3a29c),
    ("kd-hybrid/sampled-em/d2/h5/set0", 0xae58187789d7c1c0),
    ("kd-hybrid/smooth/d2/h5/set0", 0xbc8eb3eb995f12af),
    ("kd-standard/sampled-em/d2/h4/set1", 0xc12d284d4b2a7781),
    ("kd-standard/smooth/d2/h4/set1", 0x9c602be11aa92529),
    ("kd-hybrid/sampled-em/d2/h5/set1", 0x87f8756cc4476b74),
    ("kd-hybrid/smooth/d2/h5/set1", 0xf7d453a2d7c7a277),
    ("kd-standard/sampled-em/d2/h4/scattered", 0x8fea6b251788e1ca),
    ("kd-standard/smooth/d2/h4/scattered", 0x39fd55a540d108d2),
    ("kd-hybrid/sampled-em/d2/h5/scattered", 0x8f2c1657660c3580),
    ("kd-hybrid/smooth/d2/h5/scattered", 0x768b6340ea256fa0),
    ("kd-hybrid/switch0/d2/h5/set0", 0xd1c5c9db282e7f60),
    ("kd-hybrid/switch1/d2/h5/set0", 0xcf21418891e5fc5c),
    ("kd-hybrid/switch4/d2/h5/set0", 0xac1cfa3fd1079f3e),
    ("kd-hybrid/switch5/d2/h5/set0", 0x7c89d61d888b3922),
    ("kd-hybrid/switch0/d2/h5/set1", 0x081ab14576c46d2b),
    ("kd-hybrid/switch1/d2/h5/set1", 0xe1664fc5512a1e80),
    ("kd-hybrid/switch4/d2/h5/set1", 0x6193a9e94c0877c7),
    ("kd-hybrid/switch5/d2/h5/set1", 0xde7b7da6ccb08a9d),
    ("kd-hybrid/switch0/d3/h3/set0", 0xaf80667ebd7f9dad),
    ("kd-hybrid/switch1/d3/h3/set0", 0xb7d1421239a7303d),
    ("kd-hybrid/switch2/d3/h3/set0", 0x8149467ee34dcbb4),
    ("kd-hybrid/switch3/d3/h3/set0", 0x909e46902725fba0),
    ("kd-hybrid/switch0/d3/h3/set1", 0xa060fd4ec5a7c5d3),
    ("kd-hybrid/switch1/d3/h3/set1", 0xa29342c6bf83c1d3),
    ("kd-hybrid/switch2/d3/h3/set1", 0x01fcddf71f3aee6f),
    ("kd-hybrid/switch3/d3/h3/set1", 0x2e29ba5ce9b8d5b7),
];

/// FNV folds of the flat-grid answers and query profiles, captured
/// while `FlatGrid` drew and read its own grid.
const GOLDEN_FLAT_GRID: &[(&str, u64)] = &[
    ("flat-grid/d1/r1/eps0.05", 0x308748da32e9b8c1),
    ("flat-grid/d1/r1/eps0.7", 0xc0145a2459911e19),
    ("flat-grid/d1/r1/eps4", 0xa65324b8b116c791),
    ("flat-grid/d1/r3/eps0.05", 0x1d3bc4094d16b1f0),
    ("flat-grid/d1/r3/eps0.7", 0x56672182e5093d68),
    ("flat-grid/d1/r3/eps4", 0x34c11b31077e584c),
    ("flat-grid/d1/r8/eps0.05", 0xe93e7c8b922450f6),
    ("flat-grid/d1/r8/eps0.7", 0x578fdfafe4ae2f7a),
    ("flat-grid/d1/r8/eps4", 0x18daabfa83756c12),
    ("flat-grid/d1/r16/eps0.05", 0x340be9fd8f09d65e),
    ("flat-grid/d1/r16/eps0.7", 0x131f896c4ef3b116),
    ("flat-grid/d1/r16/eps4", 0x97eb383b75375b9e),
    ("flat-grid/d2/r4x4/eps0.05", 0x4ab4c8e9697c3558),
    ("flat-grid/d2/r4x4/eps0.7", 0x7a930bae264ac03c),
    ("flat-grid/d2/r4x4/eps4", 0x7ee06f86350c9ef4),
    ("flat-grid/d2/r3x5/eps0.05", 0x3bef739f17123673),
    ("flat-grid/d2/r3x5/eps0.7", 0xf5421f9f7348f867),
    ("flat-grid/d2/r3x5/eps4", 0xfccf77d527962197),
    ("flat-grid/d2/r8x1/eps0.05", 0xd6a00f33954f8c28),
    ("flat-grid/d2/r8x1/eps0.7", 0x895ad795f9d3ae0c),
    ("flat-grid/d2/r8x1/eps4", 0x025e50029d4337f4),
    ("flat-grid/d2/r16x16/eps0.05", 0x7c319f7351d9c251),
    ("flat-grid/d2/r16x16/eps0.7", 0xe2ade23dd8c49f79),
    ("flat-grid/d2/r16x16/eps4", 0x8ee5e91c5d4af52d),
    ("flat-grid/d3/r2x3x4/eps0.05", 0x8c163a2cd6fe40e3),
    ("flat-grid/d3/r2x3x4/eps0.7", 0x025e91673066abff),
    ("flat-grid/d3/r2x3x4/eps4", 0xdec3660628130d3f),
    ("flat-grid/d3/r4x4x4/eps0.05", 0xab244eb8436dbc20),
    ("flat-grid/d3/r4x4x4/eps0.7", 0x07e706408ef161ac),
    ("flat-grid/d3/r4x4x4/eps4", 0x0b6cb5de6a96401c),
    ("flat-grid/d3/r8x8x8/eps0.05", 0xb138d2e7c4a8d3bc),
    ("flat-grid/d3/r8x8x8/eps0.7", 0x6de9316379664ef4),
    ("flat-grid/d3/r8x8x8/eps4", 0x17909d41f42b4ce0),
    ("flat-grid/d4/r2x2x2x2/eps0.05", 0x6d01a050d294cddd),
    ("flat-grid/d4/r2x2x2x2/eps0.7", 0x7155e88335c7ffa9),
    ("flat-grid/d4/r2x2x2x2/eps4", 0x6eed6663d8ecada9),
    ("flat-grid/d4/r3x1x2x4/eps0.05", 0x8c79dbf7bbbb21ff),
    ("flat-grid/d4/r3x1x2x4/eps0.7", 0xaf0958b759023163),
    ("flat-grid/d4/r3x1x2x4/eps4", 0x45d8b99b569a429f),
    ("flat-grid/d4/r4x4x4x4/eps0.05", 0x1825b65e9cc23180),
    ("flat-grid/d4/r4x4x4x4/eps0.7", 0x8e6d3b3d3ede2dbc),
    ("flat-grid/d4/r4x4x4x4/eps4", 0x0982e4c2558eee2c),
];

/// Range counts and FNV folds of Figure 4's 1-D cell medians, captured
/// while they were read through `CellGrid1D::median_in`.
const GOLDEN_FIG4_CELL: &[(&str, usize, u64)] = &[
    ("fig4-cell/n32768/d12/seed7", 8144, 0xeab10bd8ca33756d),
    ("fig4-cell/n32768/d12/seed8", 8150, 0x46b79ca7f87a334d),
    ("fig4-cell/n32768/d12/seed2012", 8149, 0x5f9dc0351edafc8e),
    ("fig4-cell/n1048576/d9/seed2012", 1023, 0xdde26fc6fdeca5ad),
];
