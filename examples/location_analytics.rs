//! Location analytics: release GPS-like location data privately and
//! compare the PSD families on realistic range-query workloads — the
//! transportation-planning scenario from the paper's introduction.
//!
//! Run with: `cargo run --release --example location_analytics`

use dpsd::core::metrics::{median_of, relative_error_pct};
use dpsd::data::synthetic::tiger_substitute;
use dpsd::prelude::*;

fn main() {
    // 100k "device locations" over the WA+NM bounding box.
    let n = 100_000;
    let points = tiger_substitute(n, 7);
    let index = ExactIndex::build(&points, TIGER_DOMAIN, 512).unwrap();
    println!("dataset: {n} locations over {:?}", TIGER_DOMAIN);

    let epsilon = 0.5;
    let height = 8;
    let trees: Vec<(&str, PsdTree)> = vec![
        (
            "quad-opt",
            PsdConfig::quadtree(TIGER_DOMAIN, height, epsilon)
                .with_seed(1)
                .build(&points)
                .unwrap(),
        ),
        (
            "kd-hybrid",
            PsdConfig::kd_hybrid(TIGER_DOMAIN, height, epsilon, height / 2)
                .with_seed(2)
                .build(&points)
                .unwrap(),
        ),
        (
            "kd-standard",
            PsdConfig::kd_standard(TIGER_DOMAIN, height, epsilon)
                .with_seed(3)
                .build(&points)
                .unwrap(),
        ),
        (
            "Hilbert-R",
            PsdConfig::hilbert_r(TIGER_DOMAIN, height, epsilon)
                .with_seed(4)
                .build(&points)
                .unwrap(),
        ),
    ];

    println!("\nmedian relative error (%) by query shape, eps = {epsilon}, h = {height}:\n");
    print!("{:<12}", "method");
    for shape in PAPER_SHAPES {
        print!("  {:>9}", shape.label());
    }
    println!();
    for (name, tree) in &trees {
        print!("{name:<12}");
        for (i, shape) in PAPER_SHAPES.into_iter().enumerate() {
            let wl = generate_workload(&index, shape, 200, 100 + i as u64);
            // One call answers the whole workload.
            let answers = tree.query_batch(&wl.queries);
            let errs: Vec<f64> = answers
                .iter()
                .zip(&wl.exact)
                .map(|(&est, &a)| relative_error_pct(est, a))
                .collect();
            print!("  {:>8.2}%", median_of(&errs).unwrap());
        }
        println!();
    }

    // A concrete planning question: how many people are within the
    // Seattle metro box?
    let seattle = Rect::new(-122.8, 47.0, -121.8, 48.0).unwrap();
    // `ExactIndex` is a SpatialSynopsis too (an exact, non-private one).
    let exact = index.query(&seattle);
    println!("\nSeattle metro box, exact {exact} vs private estimates:");
    for (name, tree) in &trees {
        let est = tree.query(&seattle);
        println!(
            "  {name:<12} {est:>12.1}  ({:+.2}% error)",
            (est - exact) / exact * 100.0
        );
    }
    println!("\nAll of the above were computed from eps = {epsilon} private releases;");
    println!("no query touched the raw coordinates.");
}
