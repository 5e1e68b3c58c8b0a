//! Determinism tests for the parallel execution layer: sharded batched
//! queries must be **bit-identical** to the sequential batch (and hence
//! to singles) for every backend, dimension, and thread count, and
//! multi-party builds must be invariant to the worker count.

use dpsd::core::exec::{par_map_tasks, Parallelism};
use dpsd::matching::build_blocking_trees;
use dpsd::prelude::*;
use proptest::prelude::*;

/// The thread counts every parity test sweeps: sequential, even split,
/// odd split (shards never divide evenly), and oversubscribed.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn domain() -> Rect {
    Rect::new(0.0, 0.0, 100.0, 100.0).unwrap()
}

/// Deterministic clustered points in any dimension.
fn points_nd<const D: usize>(n: usize) -> Vec<Point<D>> {
    (0..n)
        .map(|i| {
            let mut coords = [0.0f64; D];
            for (k, c) in coords.iter_mut().enumerate() {
                *c = ((i * (k + 3) * 7 + k) % 97) as f64 + (i % 13) as f64 * 0.21;
            }
            Point::from_coords(coords)
        })
        .collect()
}

/// A mixed workload of boxes in any dimension, some spilling past the
/// domain boundary — enough queries that every thread count actually
/// shards (the pool only splits batches above its minimum shard size).
fn queries_nd<const D: usize>(n: usize) -> Vec<Rect<D>> {
    (0..n)
        .map(|i| {
            let mut min = [0.0f64; D];
            let mut max = [0.0f64; D];
            for k in 0..D {
                min[k] = ((i * (k + 2) * 5) % 90) as f64 - 5.0;
                max[k] = min[k] + 3.0 + ((i + k) % 40) as f64;
            }
            Rect::from_corners(min, max).unwrap()
        })
        .collect()
}

/// Asserts `query_batch_parallel == query_batch == mapped singles`,
/// bit for bit, across [`THREAD_COUNTS`].
fn assert_parallel_parity<const D: usize>(
    name: &str,
    backend: &(dyn SpatialSynopsis<D> + Sync),
    queries: &[Rect<D>],
) {
    let singles: Vec<f64> = queries.iter().map(|q| backend.query(q)).collect();
    let batch = backend.query_batch(queries);
    for (i, (&s, &b)) in singles.iter().zip(&batch).enumerate() {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "{name} D={D}: batch != single at {i}"
        );
    }
    for threads in THREAD_COUNTS {
        let parallel = backend.query_batch_parallel(queries, Parallelism::fixed(threads));
        assert_eq!(parallel.len(), queries.len());
        for (i, (&s, &p)) in batch.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "{name} D={D} t={threads}: parallel diverged at query {i}"
            );
        }
    }
}

/// Every backend family in one dimension: tree (data-dependent family
/// with pruning), its published synopsis, flat grid, and exact index.
fn check_all_backends_at_dim<const D: usize>(seed: u64) {
    let domain = Rect::from_corners([0.0; D], [100.0; D]).unwrap();
    let points = points_nd::<D>(4000);
    let queries = queries_nd::<D>(700);
    let tree = PsdConfig::<D>::kd_hybrid(domain, 3, 0.5, 1)
        .with_seed(seed)
        .build(&points)
        .unwrap();
    assert_parallel_parity("kd-hybrid", &tree, &queries);
    let released = ReleasedSynopsis::<D>::from_json(&tree.release().to_json()).unwrap();
    assert_parallel_parity("released", &released, &queries);
    let quad = PsdConfig::<D>::quadtree(domain, 3, 0.5)
        .with_seed(seed ^ 1)
        .build(&points)
        .unwrap();
    assert_parallel_parity("quadtree", &quad, &queries);
    let grid = FlatGrid::<D>::build(&points, domain, [8; D], 0.5, seed).unwrap();
    assert_parallel_parity("flat-grid", &grid, &queries);
    let index = ExactIndex::<D>::build(&points, domain, 16).unwrap();
    assert_parallel_parity("exact-index", &index, &queries);
}

#[test]
fn parallel_parity_holds_in_dimensions_1_through_3() {
    check_all_backends_at_dim::<1>(11);
    check_all_backends_at_dim::<2>(12);
    check_all_backends_at_dim::<3>(13);
}

#[test]
fn parallel_parity_through_sync_trait_objects() {
    let points = points_nd::<2>(3000);
    let queries = queries_nd::<2>(400);
    let backends: Vec<Box<dyn SpatialSynopsis + Sync>> = vec![
        Box::new(
            PsdConfig::hilbert_r(domain(), 3, 0.5)
                .with_hilbert_order(8)
                .with_seed(3)
                .build(&points)
                .unwrap(),
        ),
        Box::new(
            PsdConfig::kd_standard(domain(), 4, 0.4)
                .with_prune_threshold(20.0)
                .with_seed(5)
                .build(&points)
                .unwrap(),
        ),
        Box::new(FlatGrid::build(&points, domain(), [16, 16], 0.5, 9).unwrap()),
    ];
    for backend in &backends {
        assert_parallel_parity("dyn", backend.as_ref(), &queries);
    }
}

#[test]
fn parallel_party_builds_are_thread_count_invariant() {
    let points_a = points_nd::<2>(3000);
    let points_b = points_nd::<2>(2500);
    // Five parties across families; each config pins its own seed, so
    // the released artifacts must not depend on scheduling.
    let tasks: Vec<(PsdConfig, &[Point])> = vec![
        (
            PsdConfig::kd_standard(domain(), 5, 0.5).with_seed(1),
            &points_a[..],
        ),
        (
            PsdConfig::quadtree(domain(), 4, 0.3).with_seed(2),
            &points_b[..],
        ),
        (
            PsdConfig::kd_noisymean(domain(), 4, 0.4).with_seed(3),
            &points_a[..],
        ),
        (
            PsdConfig::kd_hybrid(domain(), 4, 0.6, 2).with_seed(4),
            &points_b[..],
        ),
        (
            PsdConfig::quadtree(domain(), 5, 0.2).with_seed(5),
            &points_a[..],
        ),
    ];
    let reference: Vec<String> = build_blocking_trees(&tasks, Parallelism::Sequential)
        .unwrap()
        .iter()
        .map(|t| t.release().to_json())
        .collect();
    for threads in THREAD_COUNTS {
        let releases: Vec<String> = build_blocking_trees(&tasks, Parallelism::fixed(threads))
            .unwrap()
            .iter()
            .map(|t| t.release().to_json())
            .collect();
        assert_eq!(releases, reference, "party builds changed at t={threads}");
    }
}

#[test]
fn par_map_tasks_with_derived_rngs_is_schedule_invariant() {
    use dpsd::core::rng::derived;
    use rand::Rng;
    // The pattern the eval fan-outs rely on: each task derives its RNG
    // from its index, so draws cannot migrate between tasks.
    let draw = |par: Parallelism| -> Vec<u64> {
        par_map_tasks(par, 64, |i| {
            let mut rng = derived(99, i as u64);
            (0..50).map(|_| rng.gen::<u64>()).fold(0, u64::wrapping_add)
        })
    };
    let reference = draw(Parallelism::Sequential);
    for threads in THREAD_COUNTS {
        assert_eq!(draw(Parallelism::fixed(threads)), reference, "t={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized 2-D parity: arbitrary clustered data and workloads,
    /// every thread count, tree + released + grid backends.
    #[test]
    fn parallel_batch_matches_sequential_for_arbitrary_workloads(
        seed in 0u64..1000,
        n_queries in 1usize..500,
        shift in 0.0f64..30.0,
    ) {
        let points = points_nd::<2>(2000);
        let queries: Vec<Rect> = (0..n_queries)
            .map(|i| {
                let x = (i % 17) as f64 * 5.0 + shift - 10.0;
                let y = ((i * 3) % 23) as f64 * 4.0 - 5.0;
                Rect::new(x, y, x + 12.0, y + 9.0).unwrap()
            })
            .collect();
        let tree = PsdConfig::kd_standard(domain(), 4, 0.5)
            .with_seed(seed)
            .build(&points)
            .unwrap();
        let batch = tree.query_batch(&queries);
        for threads in THREAD_COUNTS {
            let parallel = tree.query_batch_parallel(&queries, Parallelism::fixed(threads));
            for (i, (&s, &p)) in batch.iter().zip(&parallel).enumerate() {
                prop_assert_eq!(
                    s.to_bits(), p.to_bits(),
                    "t={} diverged at query {}", threads, i
                );
            }
        }
    }
}
