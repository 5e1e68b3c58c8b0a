//! Publish-and-share: the data owner builds a private release, publishes
//! it as a **raw-data-free JSON synopsis**, and an analyst (a query
//! server, a notebook, another team) loads it and answers whole
//! workloads with no access to the raw data — the workflow the
//! `SpatialSynopsis` / `ReleasedSynopsis` API exists for. Also
//! demonstrates the dimension-generic core: the same families, queries,
//! and publish pipeline over 3-D data (`PsdConfig::<3>`).
//!
//! Run with: `cargo run --release --example publish_and_share`

use dpsd::prelude::*;

fn main() {
    // ---- Data owner side -------------------------------------------
    let points = dpsd::data::synthetic::tiger_substitute(50_000, 3);
    let tree = PsdConfig::kd_hybrid(TIGER_DOMAIN, 7, 0.5, 3)
        .with_prune_threshold(32.0)
        .with_seed(11)
        .build(&points)
        .unwrap();
    let json = tree.release().to_json_string();
    let path = std::env::temp_dir().join("locations.dpsd.json");
    std::fs::write(&path, &json).unwrap();
    println!(
        "owner: published {} ({} bytes, eps = {})",
        path.display(),
        json.len(),
        tree.epsilon()
    );

    // ---- Analyst side (no access to `points`) ----------------------
    let published = std::fs::read_to_string(&path).unwrap();
    let synopsis = ReleasedSynopsis::from_json_str(&published).expect("valid synopsis");
    println!(
        "analyst: loaded a {} of height {} covering {:?}",
        synopsis.kind(),
        synopsis.height(),
        synopsis.domain(),
    );
    // The synopsis carries no raw data at all: its type has no
    // exact-count column.

    // One region...
    let region = Rect::new(-118.0, 33.5, -114.0, 37.5).unwrap();
    let estimate = synopsis.query(&region);
    let exact = points.iter().filter(|p| region.contains(**p)).count() as f64;
    println!("analyst: region estimate {estimate:.0} (owner knows exact = {exact})");
    // ...and the loaded synopsis answers exactly like the owner's tree:
    assert_eq!(estimate, tree.query(&region));

    // Whole workloads go through the batch path.
    let workload: Vec<Rect> = (0..1000)
        .map(|i| {
            let x = TIGER_DOMAIN.min_x() + (i % 40) as f64 / 40.0 * (TIGER_DOMAIN.width() - 2.0);
            let y = TIGER_DOMAIN.min_y() + (i / 40) as f64 / 25.0 * (TIGER_DOMAIN.height() - 2.0);
            Rect::new(x, y, x + 2.0, y + 2.0).unwrap()
        })
        .collect();
    let answers = synopsis.query_batch(&workload);
    let positive = answers.iter().filter(|&&a| a > 0.0).count();
    println!(
        "analyst: answered {} queries in one batch ({positive} non-empty)",
        answers.len()
    );

    // ---- Higher dimensions: the same pipeline at D = 3 --------------
    // Location + time-of-day as a third attribute: the data-dependent
    // kd-hybrid, the batch query path, and the publishable synopsis all
    // work unchanged at any dimension.
    let cube = Rect::from_corners([0.0, 0.0, 0.0], [100.0, 100.0, 24.0]).unwrap();
    let events: Vec<Point<3>> = (0..20_000)
        .map(|i| {
            Point::from_coords([
                (i % 100) as f64,
                (i / 100 % 100) as f64,
                8.0 + (i % 12) as f64, // daytime events
            ])
        })
        .collect();
    let tree3 = PsdConfig::kd_hybrid(cube, 4, 0.5, 2)
        .with_seed(4)
        .build(&events)
        .unwrap();
    let json3 = tree3.release().to_json_string();
    let synopsis3 = ReleasedSynopsis::<3>::from_json_str(&json3).unwrap();
    let evening = Rect::from_corners([0.0, 0.0, 17.0], [100.0, 100.0, 20.0]).unwrap();
    let est = synopsis3.query(&evening);
    let truth = events.iter().filter(|p| evening.contains(**p)).count() as f64;
    println!(
        "\n3-D kd-hybrid (fanout {}): evening events ~ {est:.0} (exact {truth}, synopsis {} bytes)",
        tree3.fanout(),
        json3.len()
    );
    assert_eq!(est, tree3.query(&evening));
    std::fs::remove_file(&path).ok();
}
