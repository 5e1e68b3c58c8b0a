//! Flat-arena bench: the `dpsd-bin/v1` load path and the query kernel
//! over the loaded columns, on the same 1 000-query workload as
//! `batch_query`.
//!
//! 1. **Query**: `flat_query_batch` times a batch of single-query
//!    descents over a synopsis loaded from bytes, at heights 7 and 9.
//! 2. **Load**: on the height-7 release the query group builds,
//!    `bin_load` (binary validate-then-move) must not be slower than
//!    `json_parse` (text parse into the same columns) — CI-gated by
//!    `compare_bench --assert-order`.
//! 3. **Size-doubling probe**: `flat_load/h6/json_parse_x8` parses the
//!    height-6 text 8 times per iteration. The h7 release has 4× the
//!    nodes, so a linear parser reads it in about 4× the h6 time; CI
//!    gates `flat_load/h7/json_parse` below the probe (under 8×), which
//!    fails for a quadratic parser (about 16× per height).
//!
//! Before any timing, the loaded answers are asserted bit-identical to
//! the built tree's and the binary round-trip is asserted byte-stable,
//! so a bench run doubles as a divergence gate. The report context
//! carries artifact sizes, arena resident bytes, and **analytic** heap
//! allocation counts for each load path (the workspace forbids unsafe
//! code, so a counting `GlobalAlloc` is not an option): the binary
//! loader performs a fixed number of column-vector allocations, while
//! the JSON parser allocates per token — `alloc_count_bin_load` vs
//! `alloc_count_json_parse_floor` below.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dpsd_baselines::ExactIndex;
use dpsd_core::synopsis::SpatialSynopsis;
use dpsd_core::tree::{PsdConfig, ReleasedSynopsis};
use dpsd_core::FlatSynopsis;
use dpsd_data::synthetic::{tiger_substitute, TIGER_DOMAIN};
use dpsd_data::workload::{generate_workload, QueryShape};

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

    let build = |height| {
        PsdConfig::quadtree(TIGER_DOMAIN, height, 0.5)
            .with_seed(2)
            .build(&points)
            .unwrap()
    };
    let mut h7 = None;
    for (name, height) in [("h7", 7), ("h9", 9)] {
        let tree = build(height);
        let blob = tree.release().to_flat_bytes();
        let n = tree.node_count();

        // Correctness before timing: the loaded arena must answer
        // bit-for-bit like the tree on every workload query, and the
        // binary encoding must be byte-stable.
        let flat = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
        let expect = tree.query_batch(&queries);
        let got = flat.query_batch(&queries);
        for (i, (want, have)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(
                want.to_bits(),
                have.to_bits(),
                "flat diverged from the tree at query {i} ({name})"
            );
        }
        assert_eq!(flat.to_flat_bytes(), blob, "binary re-encode drifted");

        dpsd_bench::jsonctx::set_num(&format!("node_count_{name}"), n as f64);
        dpsd_bench::jsonctx::set_num(&format!("bin_bytes_{name}"), blob.len() as f64);
        dpsd_bench::jsonctx::set_num(
            &format!("flat_resident_bytes_{name}"),
            flat.resident_bytes() as f64,
        );

        let mut group = c.benchmark_group(format!("flat_query_1000/{name}"));
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_function("flat_query_batch", |b| {
            b.iter(|| flat.query_batch(black_box(&queries)).iter().sum::<f64>())
        });
        group.finish();
        if height == 7 {
            h7 = Some(tree);
        }
    }

    // Load-path comparison on the h7 release: JSON text parse versus
    // the binary validate-then-move load of the same release.
    let released = h7.expect("the query group builds h7").release();
    let json = released.to_json_string();
    let blob = released.to_flat_bytes();
    let n = released.node_count();
    let via_json = ReleasedSynopsis::<2>::from_json_str(&json).unwrap();
    let via_bin = FlatSynopsis::<2>::from_bytes(&blob).unwrap();
    let expect = via_json.query_batch(&queries);
    let got = via_bin.query_batch(&queries);
    for (i, (want, have)) in expect.iter().zip(&got).enumerate() {
        assert_eq!(
            want.to_bits(),
            have.to_bits(),
            "binary load diverged from JSON load at query {i}"
        );
    }

    // Context: sizes and analytic allocation counts. The binary loader
    // allocates one Vec per column (mins, maxs, counts, eps_count,
    // eps_median, released, cut, the OLS column and its scratch when
    // post-processed, plus decoder scratch) — a constant ~12 regardless
    // of n. The JSON parser's
    // floor is one allocation per parsed number token and one per
    // array: > (2D + 1) * n for the rect corners and counts alone. The
    // workspace forbids unsafe code, so a counting `GlobalAlloc` is not
    // an option; the gap (constant vs linear) is asserted analytically.
    dpsd_bench::jsonctx::set_num("load_node_count", n as f64);
    dpsd_bench::jsonctx::set_num("load_json_bytes", json.len() as f64);
    dpsd_bench::jsonctx::set_num("load_bin_bytes", blob.len() as f64);
    dpsd_bench::jsonctx::set_num("load_flat_resident_bytes", via_bin.resident_bytes() as f64);
    let alloc_bin = 12.0;
    let alloc_json_floor = ((2 * 2 + 1) * n) as f64;
    dpsd_bench::jsonctx::set_num("alloc_count_bin_load", alloc_bin);
    dpsd_bench::jsonctx::set_num("alloc_count_json_parse_floor", alloc_json_floor);
    assert!(
        alloc_bin < alloc_json_floor,
        "binary load must allocate less than the JSON parse floor"
    );

    let mut group = c.benchmark_group("flat_load/h7");
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("json_parse", |b| {
        b.iter(|| ReleasedSynopsis::<2>::from_json_str(black_box(&json)).unwrap())
    });
    group.bench_function("bin_load", |b| {
        b.iter(|| FlatSynopsis::<2>::from_bytes(black_box(&blob)).unwrap())
    });
    group.finish();

    // Size-doubling probe: 8 parses of the h6 text, a quarter of the
    // h7 nodes each.
    let json_h6 = build(6).release().to_json_string();
    dpsd_bench::jsonctx::set_num("probe_json_bytes_h6", json_h6.len() as f64);
    let mut group = c.benchmark_group("flat_load/h6");
    group.throughput(Throughput::Bytes(8 * json_h6.len() as u64));
    group.bench_function("json_parse_x8", |b| {
        b.iter(|| {
            for _ in 0..8 {
                black_box(ReleasedSynopsis::<2>::from_json_str(black_box(&json_h6)).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
