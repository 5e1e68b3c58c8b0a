//! End-to-end integration tests: every tree family through the full
//! pipeline (build → noise → post-process → prune → query) over
//! realistic synthetic data.

use dpsd::baselines::ExactIndex;
use dpsd::core::budget::audit_path_epsilon;
use dpsd::core::metrics::{median_of, relative_error_pct};
use dpsd::data::synthetic::tiger_substitute;
use dpsd::data::workload::generate_workload;
use dpsd::prelude::*;

fn all_private_configs(eps: f64, h: usize) -> Vec<PsdConfig> {
    vec![
        PsdConfig::quadtree(TIGER_DOMAIN, h, eps),
        PsdConfig::kd_standard(TIGER_DOMAIN, h, eps),
        PsdConfig::kd_hybrid(TIGER_DOMAIN, h, eps, h / 2),
        PsdConfig::kd_cell(TIGER_DOMAIN, h, eps, (128, 128)),
        PsdConfig::kd_noisymean(TIGER_DOMAIN, h, eps),
        PsdConfig::kd_true(TIGER_DOMAIN, h, eps),
        PsdConfig::hilbert_r(TIGER_DOMAIN, h, eps),
    ]
}

#[test]
fn every_family_builds_and_answers_queries() {
    let points = tiger_substitute(30_000, 1);
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 256).unwrap();
    let wl = generate_workload(&index, QueryShape::new(10.0, 10.0), 40, 2);
    for config in all_private_configs(1.0, 5) {
        let kind = config.kind;
        let tree = config.with_seed(3).build(&points).unwrap();
        let errs: Vec<f64> = wl
            .queries
            .iter()
            .zip(&wl.exact)
            .map(|(q, &a)| relative_error_pct(range_query(&tree, q), a))
            .collect();
        let med = median_of(&errs).unwrap();
        assert!(
            med < 40.0,
            "{kind}: median relative error {med}% is implausibly high at eps=1"
        );
    }
}

#[test]
fn budgets_compose_within_epsilon_for_every_family() {
    let points = tiger_substitute(5_000, 4);
    for eps in [0.1, 0.5, 1.0] {
        for config in all_private_configs(eps, 4) {
            let tree = config.with_seed(5).build(&points).unwrap();
            let audit =
                audit_path_epsilon(tree.eps_count_levels(), tree.eps_median_levels()).unwrap();
            assert!(
                audit.within(eps),
                "{}: per-path spend {} exceeds {eps}",
                tree.kind(),
                audit.total()
            );
        }
    }
}

#[test]
fn postprocessing_never_hurts_much_and_usually_helps() {
    // Across seeds, OLS answers should have lower total squared error
    // than raw noisy answers on a mixed workload.
    let points = tiger_substitute(30_000, 6);
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 256).unwrap();
    let wl = generate_workload(&index, QueryShape::new(5.0, 5.0), 30, 7);
    let (mut raw_sq, mut post_sq) = (0.0f64, 0.0f64);
    for seed in 0..10 {
        let tree = PsdConfig::quadtree(TIGER_DOMAIN, 6, 0.3)
            .with_seed(seed)
            .build(&points)
            .unwrap();
        for (q, &a) in wl.queries.iter().zip(&wl.exact) {
            raw_sq += (range_query_with(&tree, q, CountSource::Noisy) - a).powi(2);
            post_sq += (range_query_with(&tree, q, CountSource::Posted) - a).powi(2);
        }
    }
    assert!(
        post_sq < raw_sq,
        "post-processing should reduce total squared error: {post_sq} vs {raw_sq}"
    );
}

#[test]
fn pruning_is_applied_and_preserves_query_sanity() {
    let points = tiger_substitute(30_000, 8);
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 256).unwrap();
    let wl = generate_workload(&index, QueryShape::new(10.0, 10.0), 25, 9);
    let pruned = PsdConfig::kd_standard(TIGER_DOMAIN, 6, 0.5)
        .with_prune_threshold(32.0)
        .with_seed(10)
        .build(&points)
        .unwrap();
    assert!(
        pruned.node_ids().any(|v| pruned.is_cut(v)),
        "pruning had no effect"
    );
    let errs: Vec<f64> = wl
        .queries
        .iter()
        .zip(&wl.exact)
        .map(|(q, &a)| relative_error_pct(range_query(&pruned, q), a))
        .collect();
    assert!(
        median_of(&errs).unwrap() < 40.0,
        "pruned tree answers are broken"
    );
}

#[test]
fn epsilon_monotonicity_quadtree() {
    // More budget => better median accuracy (checked with generous
    // margins across an order of magnitude).
    let points = tiger_substitute(30_000, 11);
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 256).unwrap();
    let wl = generate_workload(&index, QueryShape::new(5.0, 5.0), 60, 12);
    let med_err = |eps: f64| {
        let mut all = Vec::new();
        for seed in 0..5 {
            let tree = PsdConfig::quadtree(TIGER_DOMAIN, 6, eps)
                .with_seed(100 + seed)
                .build(&points)
                .unwrap();
            for (q, &a) in wl.queries.iter().zip(&wl.exact) {
                all.push(relative_error_pct(range_query(&tree, q), a));
            }
        }
        median_of(&all).unwrap()
    };
    let coarse = med_err(0.05);
    let fine = med_err(1.0);
    assert!(
        fine < coarse,
        "eps=1.0 error {fine}% should beat eps=0.05 error {coarse}%"
    );
}

#[test]
fn true_source_is_noise_free_and_most_accurate() {
    let points = tiger_substitute(20_000, 13);
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 256).unwrap();
    let wl = generate_workload(&index, QueryShape::new(10.0, 10.0), 30, 14);
    let tree = PsdConfig::quadtree(TIGER_DOMAIN, 6, 0.2)
        .with_seed(15)
        .build(&points)
        .unwrap();
    let err_of = |src: CountSource| {
        let errs: Vec<f64> = wl
            .queries
            .iter()
            .zip(&wl.exact)
            .map(|(q, &a)| relative_error_pct(range_query_with(&tree, q, src), a))
            .collect();
        median_of(&errs).unwrap()
    };
    let true_err = err_of(CountSource::True);
    let noisy_err = err_of(CountSource::Noisy);
    assert!(
        true_err <= noisy_err,
        "true {true_err}% vs noisy {noisy_err}%"
    );
    // Uniformity error only: small but possibly non-zero.
    assert!(
        true_err < 5.0,
        "uniformity-only error {true_err}% too large"
    );
}

#[test]
fn facade_prelude_compiles_and_works() {
    // The doc-example flow through the facade crate.
    let points = dpsd::data::synthetic::tiger_substitute(5_000, 42);
    let tree = PsdConfig::quadtree(TIGER_DOMAIN, 5, 0.5)
        .with_seed(7)
        .build(&points)
        .unwrap();
    let q = Rect::new(-122.5, 47.0, -121.5, 48.0).unwrap();
    assert!(range_query(&tree, &q).is_finite());
}

#[test]
fn published_synopsis_serves_thousand_query_workload_identically() {
    // The full publish-and-serve loop on realistic data: build, prune,
    // export to JSON, load on the "server" side, and answer a
    // 1000-query workload with results identical to the in-memory tree.
    let points = tiger_substitute(30_000, 17);
    let tree = PsdConfig::kd_hybrid(TIGER_DOMAIN, 6, 0.5, 3)
        .with_prune_threshold(32.0)
        .with_seed(18)
        .build(&points)
        .unwrap();
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 256).unwrap();
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
        queries.extend(generate_workload(&index, shape, 250, 19 + i as u64).queries);
    }
    assert_eq!(queries.len(), 1000);

    let published = tree.release().to_json();
    let server = ReleasedSynopsis::from_json(&published).expect("published synopsis loads");

    // Raw data did not travel: the synopsis type has no exact-count
    // column to carry it.
    assert_eq!(server.epsilon(), SpatialSynopsis::epsilon(&tree));

    // Batched on the server, singles on the owner: all identical.
    let served = server.query_batch(&queries);
    for (q, &answer) in queries.iter().zip(&served) {
        let owner = tree.query(q);
        assert_eq!(
            owner.to_bits(),
            answer.to_bits(),
            "server diverged on {q:?}"
        );
    }
}

#[test]
fn every_backend_answers_through_the_trait() {
    // One polymorphic loop over trees, baselines, and a loaded synopsis:
    // the interface the evaluation harness and future servers rely on.
    let points = tiger_substitute(10_000, 23);
    let tree = PsdConfig::kd_standard(TIGER_DOMAIN, 5, 1.0)
        .with_seed(24)
        .build(&points)
        .unwrap();
    let backends: Vec<(&str, Box<dyn SpatialSynopsis>)> = vec![
        ("released", Box::new(tree.release())),
        ("kd-standard", Box::new(tree)),
        (
            "flat-grid",
            Box::new(FlatGrid::build(&points, TIGER_DOMAIN, [64, 64], 1.0, 25).unwrap()),
        ),
        (
            "exact-index",
            Box::new(ExactIndex::build(&points, TIGER_DOMAIN, 128).unwrap()),
        ),
    ];
    let q = Rect::new(-120.0, 40.0, -110.0, 45.0).unwrap();
    let exact = points.iter().filter(|p| q.contains(**p)).count() as f64;
    for (name, backend) in &backends {
        assert_eq!(backend.domain(), TIGER_DOMAIN, "{name}");
        assert!(backend.node_count() > 0, "{name}");
        let est = backend.query(&q);
        assert!(est.is_finite(), "{name}");
        assert!(
            (est - exact).abs() < exact.max(100.0),
            "{name}: estimate {est} implausibly far from {exact}"
        );
        let (profiled, profile) = backend.query_profiled(&q);
        assert!(profiled.is_finite(), "{name}");
        assert!(
            profile.total_contained() + profile.partial_leaves > 0,
            "{name}: non-empty query touched no released aggregates"
        );
    }
}
