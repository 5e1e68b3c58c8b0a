//! Figure 7(a) bench: the construction-time comparison *is* a benchmark
//! — Criterion measures each family's build end to end, and the
//! all-families build is additionally measured sequentially versus
//! fanned out on the deterministic worker pool (one worker per family
//! config, the `dpsd-match`/eval multi-synopsis build pattern). The
//! parallel build is asserted bit-identical to the sequential one —
//! same released JSON per family — before timing begins.
//!
//! kd-standard, which draws a private median at every level, is timed
//! beside the cost probe `build_quadtree_h{h}_x5` (five quadtree builds
//! per iteration). A private-median build that sorts each axis once
//! costs fewer than five quadtree builds; one that re-sorts every
//! node's values at every split stage costs more, which bench-smoke
//! turns into a gate with `compare_bench --assert-order`.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use dpsd_core::exec::{par_map_tasks, Parallelism};
use dpsd_core::tree::PsdConfig;
use dpsd_data::synthetic::{tiger_substitute, TIGER_DOMAIN};
use dpsd_eval::common::Scale;

fn bench(c: &mut Criterion) {
    let scale = Scale::quick();
    for table in dpsd_eval::fig7a::run(&scale, 2012) {
        println!("{}", table.render());
    }
    let points = tiger_substitute(scale.n_points, 1);
    let h = scale.kd_height;
    dpsd_bench::jsonctx::set_num("fig7a_n_points", points.len() as f64);
    dpsd_bench::jsonctx::set_num("fig7a_height", h as f64);
    let mut group = c.benchmark_group("fig7a");
    group.sample_size(10);
    let configs = [
        ("quadtree", PsdConfig::quadtree(TIGER_DOMAIN, h, 0.5)),
        (
            "kd_hybrid",
            PsdConfig::kd_hybrid(TIGER_DOMAIN, h, 0.5, h / 2),
        ),
        (
            "kd_cell",
            PsdConfig::kd_cell(TIGER_DOMAIN, h, 0.5, (128, 128)),
        ),
        ("hilbert_r", PsdConfig::hilbert_r(TIGER_DOMAIN, h, 0.5)),
    ];
    let kd_standard = ("kd_standard", PsdConfig::kd_standard(TIGER_DOMAIN, h, 0.5));
    for (name, config) in configs.iter().chain([&kd_standard]) {
        group.bench_function(format!("build_{name}_h{h}"), |b| {
            b.iter_batched(
                || (points.clone(), config.clone()),
                |(pts, cfg)| cfg.build(&pts).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }
    let quadtree = &configs[0].1;
    group.bench_function(format!("build_quadtree_h{h}_x5"), |b| {
        b.iter_batched(
            || (points.clone(), quadtree.clone()),
            |(pts, cfg)| {
                for _ in 0..5 {
                    black_box(cfg.build(&pts).unwrap());
                }
            },
            BatchSize::LargeInput,
        )
    });

    // Multi-synopsis build: all four families at once, sequential vs
    // one worker per family. Every family's noise stream is pinned by
    // its seeded config, so the fan-out must be bit-identical to the
    // loop — asserted on the released JSON before timing.
    let build_all = |par: Parallelism| -> Vec<String> {
        par_map_tasks(par, configs.len(), |i| {
            configs[i]
                .1
                .clone()
                .with_seed(7 + i as u64)
                .build(&points)
                .unwrap()
                .release()
                .to_json()
        })
    };
    let sequential = build_all(Parallelism::Sequential);
    for threads in [2, 4] {
        assert_eq!(
            build_all(Parallelism::fixed(threads)),
            sequential,
            "parallel family build (t={threads}) diverged from sequential"
        );
    }
    group.bench_function(format!("build_all_families_h{h}/sequential"), |b| {
        b.iter(|| build_all(Parallelism::Sequential))
    });
    for threads in [2, 4] {
        group.bench_function(format!("build_all_families_h{h}/par_t{threads}"), |b| {
            b.iter(|| build_all(Parallelism::fixed(threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
