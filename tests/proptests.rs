//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary data, budgets, and query rectangles.

use dpsd::prelude::*;
use proptest::prelude::*;

/// Strategy: a small clustered point set inside the unit-ish domain.
fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..300)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

fn domain() -> Rect {
    Rect::new(0.0, 0.0, 100.0, 100.0).unwrap()
}

/// Strategy: a mixed workload of small and large query rectangles, some
/// overflowing the domain boundary.
fn queries_strategy() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(
        (-10.0f64..95.0, -10.0f64..95.0, 0.5f64..60.0, 0.5f64..60.0),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h).unwrap())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// OLS consistency: every internal posted count equals the sum of
    /// its children, for every tree family that post-processes.
    #[test]
    fn posted_counts_are_consistent(
        pts in points_strategy(),
        seed in 0u64..1000,
        eps in 0.05f64..2.0,
    ) {
        let tree = PsdConfig::quadtree(domain(), 3, eps)
            .with_seed(seed)
            .build(&pts)
            .unwrap();
        for v in tree.node_ids() {
            let children: Vec<usize> = tree.children(v).collect();
            if children.is_empty() { continue; }
            let sum: f64 = children.iter().map(|&c| tree.posted_count(c).unwrap()).sum();
            let own = tree.posted_count(v).unwrap();
            prop_assert!((own - sum).abs() < 1e-6 * (1.0 + own.abs()),
                "node {}: {} != {}", v, own, sum);
        }
    }

    /// Exact counts always partition: parent = sum of children, root =
    /// |points|, for every family.
    #[test]
    fn exact_counts_partition(
        pts in points_strategy(),
        seed in 0u64..1000,
        kind in 0usize..5,
    ) {
        let config = match kind {
            0 => PsdConfig::quadtree(domain(), 3, 0.5),
            1 => PsdConfig::kd_standard(domain(), 3, 0.5),
            2 => PsdConfig::kd_hybrid(domain(), 3, 0.5, 1),
            3 => PsdConfig::kd_noisymean(domain(), 3, 0.5),
            _ => PsdConfig::hilbert_r(domain(), 3, 0.5).with_hilbert_order(8),
        };
        let tree = config.with_seed(seed).build(&pts).unwrap();
        prop_assert_eq!(tree.true_count(tree.root()), pts.len() as f64);
        for v in tree.node_ids() {
            let children: Vec<usize> = tree.children(v).collect();
            if children.is_empty() { continue; }
            let sum: f64 = children.iter().map(|&c| tree.true_count(c)).sum();
            prop_assert_eq!(sum, tree.true_count(v));
        }
    }

    /// Query answers from the True source never exceed the total point
    /// count and are never negative; disjoint queries return 0.
    #[test]
    fn true_queries_are_bounded(
        pts in points_strategy(),
        seed in 0u64..1000,
        qx in 0.0f64..90.0,
        qy in 0.0f64..90.0,
        qw in 0.1f64..50.0,
        qh in 0.1f64..50.0,
    ) {
        let tree = PsdConfig::kd_standard(domain(), 3, 1.0)
            .with_seed(seed)
            .build(&pts)
            .unwrap();
        let q = Rect::new(qx, qy, (qx + qw).min(100.0), (qy + qh).min(100.0)).unwrap();
        let est = range_query_with(&tree, &q, CountSource::True);
        prop_assert!(est >= -1e-9, "negative exact estimate {}", est);
        prop_assert!(est <= pts.len() as f64 + 1e-9, "estimate {} exceeds n", est);
        let far = Rect::new(1000.0, 1000.0, 1001.0, 1001.0).unwrap();
        prop_assert_eq!(range_query_with(&tree, &far, CountSource::True), 0.0);
    }

    /// Full-domain queries on the True source count exactly n for
    /// space-partitioning families.
    #[test]
    fn full_domain_query_counts_everything(
        pts in points_strategy(),
        seed in 0u64..1000,
    ) {
        for config in [
            PsdConfig::quadtree(domain(), 2, 1.0),
            PsdConfig::kd_standard(domain(), 2, 1.0),
        ] {
            let tree = config.with_seed(seed).build(&pts).unwrap();
            let est = range_query_with(&tree, &domain(), CountSource::True);
            prop_assert!((est - pts.len() as f64).abs() < 1e-9);
        }
    }

    /// Monotonicity: growing the query rectangle never decreases the
    /// exact-source answer.
    #[test]
    fn query_monotonicity_true_source(
        pts in points_strategy(),
        seed in 0u64..1000,
        qx in 10.0f64..50.0,
        qy in 10.0f64..50.0,
    ) {
        let tree = PsdConfig::quadtree(domain(), 3, 1.0)
            .with_seed(seed)
            .build(&pts)
            .unwrap();
        let inner = Rect::new(qx, qy, qx + 20.0, qy + 20.0).unwrap();
        let outer = Rect::new(qx - 5.0, qy - 5.0, qx + 25.0, qy + 25.0).unwrap();
        let e_in = range_query_with(&tree, &inner, CountSource::True);
        let e_out = range_query_with(&tree, &outer, CountSource::True);
        prop_assert!(e_out >= e_in - 1e-9, "outer {} < inner {}", e_out, e_in);
    }

    /// Private medians stay within their domain for all mechanisms and
    /// budgets.
    #[test]
    fn median_selectors_respect_domain(
        mut values in prop::collection::vec(0.0f64..1000.0, 1..200),
        seed in 0u64..1000,
        eps in 0.001f64..2.0,
        which in 0usize..4,
    ) {
        use dpsd::core::median::{MedianConfig, MedianSelector};
        use dpsd::core::rng::seeded;
        values.sort_unstable_by(f64::total_cmp);
        let config = match which {
            0 => MedianConfig::Exact,
            1 => MedianConfig::Exponential,
            2 => MedianConfig::SmoothSensitivity { delta: 1e-4 },
            _ => MedianConfig::NoisyMean,
        };
        let sel = MedianSelector::plain(config);
        let mut rng = seeded(seed);
        let v = sel.select(&mut rng, &values, 0.0, 1000.0, eps);
        prop_assert!((0.0..=1000.0).contains(&v), "{:?} escaped: {}", config, v);
    }

    /// Workload generation only produces in-domain, non-zero-answer
    /// queries of the requested shape.
    #[test]
    fn workloads_are_well_formed(
        pts in points_strategy(),
        seed in 0u64..1000,
        w in 1.0f64..40.0,
        h in 1.0f64..40.0,
    ) {
        use dpsd::baselines::ExactIndex;
        use dpsd::data::workload::generate_workload;
        let index = ExactIndex::build(&pts, domain(), 64).unwrap();
        let wl = generate_workload(&index, QueryShape::new(w, h), 5, seed);
        for (q, &a) in wl.queries.iter().zip(&wl.exact) {
            prop_assert!(a > 0.0);
            prop_assert!(q.inside(&domain()));
            let exact = pts.iter().filter(|p| q.contains(**p)).count() as f64;
            prop_assert_eq!(exact, a, "index disagrees with brute force");
        }
    }

    /// Trait invariant, every backend: `query_batch` returns exactly
    /// what mapping `query` over the workload returns — bit for bit.
    #[test]
    fn query_batch_equals_mapped_query_for_all_backends(
        pts in points_strategy(),
        seed in 0u64..1000,
        qs in queries_strategy(),
    ) {
        let tree = PsdConfig::kd_hybrid(domain(), 3, 0.5, 1).with_seed(seed).build(&pts).unwrap();
        let backends: Vec<Box<dyn SpatialSynopsis>> = vec![
            Box::new(tree.release()),
            Box::new(tree),
            Box::new(PsdConfig::quadtree(domain(), 3, 0.5).with_seed(seed).build(&pts).unwrap()),
            Box::new(PsdConfig::hilbert_r(domain(), 3, 0.5).with_hilbert_order(8).with_seed(seed).build(&pts).unwrap()),
            Box::new(FlatGrid::build(&pts, domain(), [16, 16], 0.5, seed).unwrap()),
            Box::new(ExactIndex::build(&pts, domain(), 32).unwrap()),
        ];
        for backend in &backends {
            let batch = backend.query_batch(&qs);
            prop_assert_eq!(batch.len(), qs.len());
            for (q, &b) in qs.iter().zip(&batch) {
                let single = backend.query(q);
                prop_assert_eq!(
                    single.to_bits(), b.to_bits(),
                    "batch diverged from single on {:?}: {} vs {}", q, single, b
                );
            }
        }
    }

    /// `ExactIndex` agrees with brute-force counting on arbitrary
    /// queries, including ones crossing the domain boundary.
    #[test]
    fn exact_index_matches_brute_force(
        pts in points_strategy(),
        qx in -10.0f64..100.0,
        qy in -10.0f64..100.0,
        qw in 0.1f64..120.0,
        qh in 0.1f64..120.0,
        resolution in 1usize..80,
    ) {
        let q = Rect::new(qx, qy, qx + qw, qy + qh).unwrap();
        let index = ExactIndex::build(&pts, domain(), resolution).unwrap();
        let brute = pts.iter().filter(|p| q.contains(**p)).count() as f64;
        prop_assert_eq!(index.query(&q), brute, "resolution {}", resolution);
        let (profiled, _) = index.query_profiled(&q);
        prop_assert_eq!(profiled, brute);
    }

    /// A synopsis published to JSON and loaded back answers every query
    /// exactly like its source tree, for data-independent and
    /// data-dependent families alike.
    #[test]
    fn released_synopsis_answers_match_source_exactly(
        pts in points_strategy(),
        seed in 0u64..1000,
        kind in 0usize..4,
        qs in queries_strategy(),
    ) {
        let config = match kind {
            0 => PsdConfig::quadtree(domain(), 3, 0.5),
            1 => PsdConfig::kd_standard(domain(), 3, 0.5),
            2 => PsdConfig::kd_noisymean(domain(), 3, 0.5).with_prune_threshold(16.0),
            _ => PsdConfig::hilbert_r(domain(), 3, 0.5).with_hilbert_order(8),
        };
        let tree = config.with_seed(seed).build(&pts).unwrap();
        let loaded = ReleasedSynopsis::from_json(&tree.release().to_json()).unwrap();
        prop_assert_eq!(loaded.epsilon(), SpatialSynopsis::epsilon(&tree));
        prop_assert_eq!(loaded.node_count(), SpatialSynopsis::node_count(&tree));
        for q in &qs {
            prop_assert_eq!(
                loaded.query(q).to_bits(), tree.query(q).to_bits(),
                "loaded synopsis diverged on {:?}", q
            );
        }
    }
}

/// Drives the cross-format round-trip for one dimensionality: build a
/// private tree over the first `D` coordinates of each row, publish it
/// as JSON, parse that back, re-encode as `dpsd-bin/v1`, and load the
/// blob again. Both loads must answer every query with bit-identical
/// `f64`s, the binary re-encode must be byte-stable, and batch answers
/// must equal singles. Plain `assert!`s: proptest catches the panic and
/// shrinks.
fn flat_roundtrip_case<const D: usize>(
    rows: &[Vec<f64>],
    qlos: &[Vec<f64>],
    qws: &[Vec<f64>],
    seed: u64,
    eps: f64,
    family: usize,
    postprocess: bool,
) {
    let nd_domain = Rect::from_corners([0.0; D], [100.0; D]).unwrap();
    let points: Vec<Point<D>> = rows
        .iter()
        .map(|r| {
            let mut c = [0.0; D];
            for (k, slot) in c.iter_mut().enumerate() {
                *slot = r[k];
            }
            Point::from_coords(c)
        })
        .collect();
    let config = match family {
        0 => PsdConfig::quadtree(nd_domain, 2, eps),
        1 => PsdConfig::kd_standard(nd_domain, 3, eps),
        _ => PsdConfig::hilbert_r(nd_domain, 2, eps).with_hilbert_order(6),
    };
    let tree = config
        .with_postprocess(postprocess)
        .with_seed(seed)
        .build(&points)
        .unwrap();
    let queries: Vec<Rect<D>> = qlos
        .iter()
        .zip(qws)
        .map(|(lo, w)| {
            let mut qlo = [0.0; D];
            let mut qhi = [0.0; D];
            for k in 0..D {
                qlo[k] = lo[k];
                qhi[k] = lo[k] + w[k];
            }
            Rect::from_corners(qlo, qhi).unwrap()
        })
        .collect();

    let via_json = ReleasedSynopsis::<D>::from_json_str(&tree.release().to_json_string()).unwrap();
    let blob = via_json.to_flat_bytes();
    let via_bin = ReleasedSynopsis::<D>::from_bytes(&blob).unwrap();
    assert_eq!(
        via_bin.to_flat_bytes(),
        blob,
        "binary re-encode drifted (D={D})"
    );
    assert_eq!(via_bin.node_count(), via_json.node_count());
    assert_eq!(via_bin.epsilon().to_bits(), via_json.epsilon().to_bits());

    let json_batch = via_json.query_batch(&queries);
    let bin_batch = via_bin.query_batch(&queries);
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            json_batch[i].to_bits(),
            bin_batch[i].to_bits(),
            "JSON and binary releases diverged on {q:?} (D={D})"
        );
        assert_eq!(
            via_bin.query(q).to_bits(),
            bin_batch[i].to_bits(),
            "batch diverged from singles on {q:?} (D={D})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `dpsd-bin/v1` round-trip: for random releases in 1..=4
    /// dimensions across three tree families, JSON -> binary -> load is
    /// bit-identical query-for-query, the binary re-encode is
    /// byte-stable, and the batch path returns exactly its singles.
    #[test]
    fn flat_binary_roundtrip_is_bit_identical_in_all_dims(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..100.0, 4..5), 1..120),
        qlos in prop::collection::vec(prop::collection::vec(-10.0f64..90.0, 4..5), 1..16),
        qws in prop::collection::vec(prop::collection::vec(0.5f64..50.0, 4..5), 1..16),
        seed in 0u64..1000,
        eps in 0.1f64..2.0,
        family in 0usize..3,
        pp in 0usize..2,
    ) {
        let n_q = qlos.len().min(qws.len());
        let (qlos, qws) = (&qlos[..n_q], &qws[..n_q]);
        flat_roundtrip_case::<1>(&rows, qlos, qws, seed, eps, family, pp == 1);
        flat_roundtrip_case::<2>(&rows, qlos, qws, seed, eps, family, pp == 1);
        flat_roundtrip_case::<3>(&rows, qlos, qws, seed, eps, family, pp == 1);
        flat_roundtrip_case::<4>(&rows, qlos, qws, seed, eps, family, pp == 1);
    }
}
