//! Batched-query bench: `SpatialSynopsis::query_batch` versus a loop of
//! single `query` calls versus the sharded `query_batch_parallel` path
//! on a 1 000-query workload. `query_batch` is itself a loop of single
//! descents, so its id tracks `single_query_loop` and shows any
//! overhead the batch path adds; the parallel ids are the acceptance
//! check for the deterministic parallel runtime.
//! Before any timing begins, the batch answers are asserted
//! bit-identical to the singles and the parallel answers bit-identical
//! to the batch at every benchmarked thread count, so a CI bench run
//! doubles as the divergence gate.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dpsd_baselines::ExactIndex;
use dpsd_core::exec::Parallelism;
use dpsd_core::synopsis::{ParallelQuery, SpatialSynopsis};
use dpsd_core::tree::PsdConfig;
use dpsd_data::synthetic::{tiger_substitute, TIGER_DOMAIN};
use dpsd_data::workload::{generate_workload, QueryShape};

/// Thread counts benchmarked for the parallel path (4 is the
/// acceptance-criterion point: >= 2x over sequential on >= 4 cores).
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn bench(c: &mut Criterion) {
    let points = tiger_substitute(100_000, 1);
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 512).unwrap();
    let mut queries = Vec::new();
    for (i, shape) in [
        QueryShape::new(1.0, 1.0),
        QueryShape::new(5.0, 5.0),
        QueryShape::new(10.0, 10.0),
        QueryShape::new(15.0, 0.2),
    ]
    .into_iter()
    .enumerate()
    {
        queries.extend(generate_workload(&index, shape, 250, 7 + i as u64).queries);
    }
    assert_eq!(queries.len(), 1000);
    dpsd_bench::jsonctx::set_num("n_points", points.len() as f64);
    dpsd_bench::jsonctx::set_num("n_queries", queries.len() as f64);
    dpsd_bench::jsonctx::set_num(
        "host_threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );

    for (name, height) in [("h7", 7), ("h9", 9)] {
        let tree = PsdConfig::quadtree(TIGER_DOMAIN, height, 0.5)
            .with_seed(2)
            .build(&points)
            .unwrap();
        dpsd_bench::jsonctx::set_num(&format!("node_count_{name}"), tree.node_count() as f64);
        // Correctness first: single == batch == parallel at every
        // benchmarked thread count, bit for bit; only then compare
        // timings. A divergence aborts the bench (and fails CI's
        // bench-smoke job).
        let batch = tree.query_batch(&queries);
        for (q, &b) in queries.iter().zip(&batch) {
            assert_eq!(tree.query(q).to_bits(), b.to_bits());
        }
        for threads in THREAD_COUNTS {
            let parallel = tree.query_batch_parallel(&queries, Parallelism::fixed(threads));
            assert_eq!(parallel.len(), batch.len(), "t={threads} dropped answers");
            for (i, (&s, &p)) in batch.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    p.to_bits(),
                    "parallel (t={threads}) diverged from sequential at query {i}"
                );
            }
        }

        let mut group = c.benchmark_group(format!("batch_query_1000/{name}"));
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_function("single_query_loop", |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| tree.query(black_box(q)))
                    .sum::<f64>()
            })
        });
        group.bench_function("query_batch", |b| {
            b.iter(|| tree.query_batch(black_box(&queries)).iter().sum::<f64>())
        });
        for threads in THREAD_COUNTS {
            group.bench_function(format!("query_batch_par_t{threads}"), |b| {
                b.iter(|| {
                    tree.query_batch_parallel(black_box(&queries), Parallelism::fixed(threads))
                        .iter()
                        .sum::<f64>()
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
