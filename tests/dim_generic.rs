//! Property tests for the dimension-generic core: data-dependent
//! families build, query, batch, and publish identically in every
//! `D ∈ {1, 2, 3, 4}`, and the published artifacts round-trip
//! **bit-for-bit**.

use dpsd::prelude::*;
use proptest::prelude::*;

/// A deterministic clustered dataset in `[0, 100]^D`: a dense corner
/// cluster plus a sparse diagonal (the shape data-dependent splits
/// exploit).
fn clustered<const D: usize>(n: usize) -> Vec<Point<D>> {
    let mut pts = Vec::with_capacity(n);
    for i in 0..n {
        let mut coords = [0.0; D];
        if i % 3 == 0 {
            // Diagonal filler.
            for c in coords.iter_mut() {
                *c = (i % 97) as f64;
            }
        } else {
            // Corner cluster with slight per-axis spread.
            for (k, c) in coords.iter_mut().enumerate() {
                *c = 5.0 + ((i * (k + 3)) % 40) as f64 * 0.2;
            }
        }
        pts.push(Point::from_coords(coords));
    }
    pts
}

fn cube<const D: usize>() -> Rect<D> {
    Rect::from_corners([0.0; D], [100.0; D]).unwrap()
}

/// A deterministic mixed workload of boxes (some overflowing the
/// domain).
fn workload<const D: usize>(n: usize) -> Vec<Rect<D>> {
    (0..n)
        .map(|i| {
            let mut min = [0.0; D];
            let mut max = [0.0; D];
            for k in 0..D {
                let lo = ((i * (7 + k)) % 90) as f64 - 5.0;
                min[k] = lo;
                max[k] = lo + 4.0 + ((i * (3 + k)) % 50) as f64;
            }
            Rect::from_corners(min, max).unwrap()
        })
        .collect()
}

/// Every column of two releases, compared bit-for-bit.
fn assert_releases_bit_identical<const D: usize>(
    a: &ReleasedSynopsis<D>,
    b: &ReleasedSynopsis<D>,
    what: &str,
) {
    assert_eq!(a.height(), b.height(), "{what}: height");
    assert_eq!(a.node_count(), b.node_count(), "{what}: node count");
    for v in a.node_ids() {
        assert_eq!(a.rect(v), b.rect(v), "{what}: rect {v}");
        match (a.noisy_count(v), b.noisy_count(v)) {
            (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "{what}: noisy {v}"),
            (x, y) => assert_eq!(x, y, "{what}: release flag {v}"),
        }
        match (a.posted_count(v), b.posted_count(v)) {
            (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "{what}: posted {v}"),
            (x, y) => assert_eq!(x, y, "{what}: posted flag {v}"),
        }
        assert_eq!(a.is_cut(v), b.is_cut(v), "{what}: cut {v}");
    }
}

/// Builds a kd-hybrid, publishes it as JSON, reloads it, and checks
/// bit-for-bit equality of everything the release carries (posted
/// counts are *recomputed* by the loader and must still match exactly).
fn roundtrip_case<const D: usize>(seed: u64) {
    let pts = clustered::<D>(900);
    let tree = PsdConfig::kd_hybrid(cube::<D>(), 3, 0.6, 2)
        .with_prune_threshold(15.0)
        .with_seed(seed)
        .build(&pts)
        .unwrap();

    let json = tree.release().to_json();
    let loaded = ReleasedSynopsis::<D>::from_json(&json).unwrap();
    assert_releases_bit_identical(&loaded, &tree.release(), "json");
    // The loaded synopsis answers exactly like the source tree.
    for q in workload::<D>(40) {
        assert_eq!(
            loaded.query(&q).to_bits(),
            tree.query(&q).to_bits(),
            "D={D}: loaded synopsis diverged on {q:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ReleasedSynopsis round-trips bit-for-bit in every dimension.
    #[test]
    fn released_synopsis_roundtrips_bit_for_bit_in_every_dimension(seed in 0u64..500) {
        roundtrip_case::<1>(seed);
        roundtrip_case::<2>(seed);
        roundtrip_case::<3>(seed);
        roundtrip_case::<4>(seed);
    }

    /// The batch path equals one-at-a-time queries
    /// bit-for-bit for data-dependent trees in every dimension.
    #[test]
    fn batch_equals_singles_in_every_dimension(seed in 0u64..500) {
        fn check<const D: usize>(seed: u64) {
            let pts = clustered::<D>(600);
            let tree = PsdConfig::kd_standard(cube::<D>(), 3, 0.5)
                .with_seed(seed)
                .build(&pts)
                .unwrap();
            let qs = workload::<D>(60);
            let batch = tree.query_batch(&qs);
            for (q, &b) in qs.iter().zip(&batch) {
                assert_eq!(tree.query(q).to_bits(), b.to_bits(), "D={D}: {q:?}");
            }
        }
        check::<1>(seed);
        check::<2>(seed);
        check::<3>(seed);
        check::<4>(seed);
    }
}

/// The formerly planar families in every dimension: build, query
/// (batch == singles bit-for-bit, and parallel == sequential at several
/// thread counts), and JSON release round-trip.
fn data_independent_family_case<const D: usize>(seed: u64) {
    let pts = clustered::<D>(700);
    let configs = [
        PsdConfig::kd_cell(cube::<D>(), 2, 0.8, (8, 8)).with_seed(seed),
        PsdConfig::hilbert_r(cube::<D>(), 2, 0.8)
            .with_hilbert_order(6)
            .with_seed(seed),
        PsdConfig::hilbert_r(cube::<D>(), 2, 0.8)
            .with_curve(CurveKind::ZOrder)
            .with_hilbert_order(6)
            .with_seed(seed),
    ];
    for config in configs {
        let tree = config.build(&pts).unwrap();
        let kind = tree.kind();
        assert_eq!(tree.fanout(), 1 << D, "D={D} {kind}");
        assert_eq!(tree.true_count(0), pts.len() as f64, "D={D} {kind}");

        // Batch equals singles, and the parallel path equals the batch,
        // bit-for-bit at every thread count.
        let qs = workload::<D>(40);
        let batch = tree.query_batch(&qs);
        for (q, &b) in qs.iter().zip(&batch) {
            assert_eq!(tree.query(q).to_bits(), b.to_bits(), "D={D} {kind}: {q:?}");
        }
        for threads in [1usize, 2, 8] {
            let par = tree.query_batch_parallel(&qs, Parallelism::fixed(threads));
            for (i, (&s, &p)) in batch.iter().zip(&par).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "D={D} {kind}: parallel t={threads} diverged at query {i}"
                );
            }
        }

        // JSON round-trip, bit-for-bit.
        let loaded = ReleasedSynopsis::<D>::from_json(&tree.release().to_json()).unwrap();
        assert_releases_bit_identical(&loaded, &tree.release(), &format!("D={D} {kind} json"));
        for q in &qs {
            assert_eq!(
                loaded.query(q).to_bits(),
                tree.query(q).to_bits(),
                "D={D} {kind}: loaded synopsis diverged"
            );
        }
    }
}

#[test]
fn data_independent_families_work_in_every_dimension() {
    for seed in [3u64, 41] {
        data_independent_family_case::<1>(seed);
        data_independent_family_case::<2>(seed);
        data_independent_family_case::<3>(seed);
        data_independent_family_case::<4>(seed);
    }
}

#[test]
fn kd_and_hybrid_trees_work_end_to_end_at_three_dimensions() {
    let domain = cube::<3>();
    let pts = clustered::<3>(4000);
    for config in [
        PsdConfig::kd_standard(domain, 4, 1.0),
        PsdConfig::kd_hybrid(domain, 4, 1.0, 2),
        PsdConfig::kd_noisymean(domain, 4, 1.0),
    ] {
        let tree = config.with_seed(33).build(&pts).unwrap();
        assert_eq!(tree.fanout(), 8);
        // Structure partitions the data.
        for v in tree.node_ids() {
            let children: Vec<usize> = tree.children(v).collect();
            if children.is_empty() {
                continue;
            }
            let sum: f64 = children.iter().map(|&c| tree.true_count(c)).sum();
            assert_eq!(sum, tree.true_count(v), "node {v}");
        }
        // Exact queries through the tree match brute force on
        // boundary-safe boxes.
        let q = Rect::from_corners([2.0; 3], [60.0, 80.0, 47.5]).unwrap();
        let brute = pts.iter().filter(|p| q.contains(**p)).count() as f64;
        let via_tree = dpsd::core::query::range_query_with(&tree, &q, CountSource::True);
        // The uniformity assumption makes unaligned exact reads
        // approximate; the full domain is exact.
        assert!(via_tree.is_finite());
        assert_eq!(
            dpsd::core::query::range_query_with(&tree, &domain, CountSource::True),
            pts.len() as f64
        );
        // Private estimate is in a sane band at eps = 1.
        let est = tree.query(&q);
        assert!(
            (est - brute).abs() < brute.max(200.0),
            "{}: estimate {est} far from {brute}",
            tree.kind()
        );
        // Publish, reload, and answer identically.
        let loaded = ReleasedSynopsis::<3>::from_json(&tree.release().to_json()).unwrap();
        assert_eq!(loaded.query(&q).to_bits(), est.to_bits());
        assert_eq!(loaded.epsilon(), 1.0);
    }
}

#[test]
fn dimension_mismatch_is_a_typed_load_error() {
    let pts = clustered::<3>(300);
    let tree = PsdConfig::quadtree(cube::<3>(), 2, 0.5)
        .with_seed(1)
        .build(&pts)
        .unwrap();
    let json = tree.release().to_json();
    // Loading a 3-D artifact as 2-D must be rejected, not mis-parsed.
    match ReleasedSynopsis::<2>::from_json(&json) {
        Err(DpsdError::Format { reason }) => {
            assert!(reason.contains("3-dimensional"), "reason: {reason}")
        }
        other => panic!("expected a dimension-mismatch error, got {other:?}"),
    }
}

#[test]
fn pre_generic_planar_artifacts_still_load() {
    // A v1 artifact written before the `dims` field existed: the JSON
    // loader must default to two dimensions.
    let pts: Vec<Point> = (0..100)
        .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
        .collect();
    let tree = PsdConfig::quadtree(Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(), 1, 1.0)
        .with_seed(5)
        .build(&pts)
        .unwrap();
    let json = tree.release().to_json();
    let legacy = json.replace("\"dims\":2.0,", "");
    assert_ne!(legacy, json, "fixture drifted: no dims field found");
    let loaded = ReleasedSynopsis::<2>::from_json(&legacy).unwrap();
    assert_eq!(
        loaded.query(&tree.domain()).to_bits(),
        tree.query(&tree.domain()).to_bits()
    );
}

#[test]
fn pre_generic_planar_artifacts_still_load_for_grid_and_hilbert_families() {
    // The same legacy (no `dims`) guarantee for the two families that
    // only now became dimension-generic: their planar artifacts predate
    // the field and must keep loading as D = 2.
    let pts: Vec<Point> = (0..400)
        .map(|i| Point::new((i % 20) as f64, (i / 20) as f64))
        .collect();
    let domain = Rect::new(0.0, 0.0, 20.0, 20.0).unwrap();
    for config in [
        PsdConfig::kd_cell(domain, 2, 1.0, (8, 8)).with_seed(6),
        PsdConfig::hilbert_r(domain, 2, 1.0)
            .with_hilbert_order(6)
            .with_seed(7),
    ] {
        let tree = config.build(&pts).unwrap();
        let json = tree.release().to_json();
        let legacy = json.replace("\"dims\":2.0,", "");
        assert_ne!(legacy, json, "fixture drifted: no dims field found");
        let loaded = ReleasedSynopsis::<2>::from_json(&legacy).unwrap();
        assert_eq!(
            loaded.query(&tree.domain()).to_bits(),
            tree.query(&tree.domain()).to_bits(),
            "{}",
            tree.kind()
        );
    }
}
