//! Serving published synopses: spin up the multi-tenant `dpsd-serve`
//! server in-process, publish a 2-D and a 3-D synopsis over the wire,
//! query them (single and batch), hot-swap one, and read the stats
//! endpoint — the full lifecycle a deployment goes through, over a
//! real TCP socket.
//!
//! Run with: `cargo run --release --example serve_synopses`

use dpsd::prelude::*;
use dpsd::serve::client::Client;
use dpsd::serve::server::{ServeConfig, Server};

fn main() {
    // ---- Operator side: one server, ephemeral port -----------------
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
    let handle = server.spawn().unwrap();
    println!("server: listening on http://{}", handle.addr());

    // ---- Data owner side: build and publish over the wire ----------
    let points = dpsd::data::synthetic::tiger_substitute(30_000, 3);
    let tree = PsdConfig::kd_hybrid(TIGER_DOMAIN, 6, 0.5, 3)
        .with_seed(11)
        .build(&points)
        .unwrap();
    let mut owner = Client::connect(handle.addr()).unwrap();
    let response = owner
        .post("/synopses/locations", &tree.release().to_json_string())
        .unwrap();
    println!("owner: published `locations` -> {}", response.body);

    // ---- Analyst side: range queries over HTTP ---------------------
    let mut analyst = Client::connect(handle.addr()).unwrap();
    let response = analyst
        .post(
            "/synopses/locations/query",
            r#"{"rect": [-118.0, 33.5, -114.0, 37.5]}"#,
        )
        .unwrap();
    println!("analyst: region estimate -> {}", response.body);
    // The wire answer is bit-identical to querying the release directly.
    let direct = tree
        .release()
        .query(&Rect::new(-118.0, 33.5, -114.0, 37.5).unwrap());
    let wire = response
        .json()
        .unwrap()
        .get("estimate")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert_eq!(wire.to_bits(), direct.to_bits());

    // A whole workload in one request.
    let rects: Vec<String> = (0..200)
        .map(|i| {
            let x = TIGER_DOMAIN.min_x() + (i % 20) as f64 / 20.0 * (TIGER_DOMAIN.width() - 2.0);
            let y = TIGER_DOMAIN.min_y() + (i / 20) as f64 / 10.0 * (TIGER_DOMAIN.height() - 2.0);
            format!("[{x},{y},{},{}]", x + 2.0, y + 2.0)
        })
        .collect();
    let response = analyst
        .post(
            "/synopses/locations/query/batch",
            &format!("{{\"rects\":[{}]}}", rects.join(",")),
        )
        .unwrap();
    let answers = response.json().unwrap();
    println!(
        "analyst: batch of 200 answered, {} from cache",
        answers.get("cache_hits").and_then(|v| v.as_u64()).unwrap()
    );

    // ---- Multi-tenant: a 3-D synopsis beside the 2-D one -----------
    let cube = Rect::from_corners([0.0, 0.0, 0.0], [100.0, 100.0, 24.0]).unwrap();
    let events: Vec<Point<3>> = (0..10_000)
        .map(|i| Point::from_coords([(i % 100) as f64, (i / 100 % 100) as f64, (i % 24) as f64]))
        .collect();
    let tree3 = PsdConfig::kd_hybrid(cube, 4, 0.5, 2)
        .with_seed(4)
        .build(&events)
        .unwrap();
    owner
        .post("/synopses/events-3d", &tree3.release().to_json_string())
        .unwrap();
    let response = analyst
        .post(
            "/synopses/events-3d/query",
            r#"{"rect": [0.0, 0.0, 17.0, 100.0, 100.0, 20.0]}"#,
        )
        .unwrap();
    println!("analyst: 3-D evening estimate -> {}", response.body);

    // ---- Hot swap: re-publish bumps the version atomically ---------
    let retrained = PsdConfig::kd_hybrid(TIGER_DOMAIN, 6, 0.5, 3)
        .with_seed(12) // fresh noise draw
        .build(&points)
        .unwrap();
    let response = owner
        .post("/synopses/locations", &retrained.release().to_json_string())
        .unwrap();
    println!("owner: hot-swapped -> {}", response.body);

    // ---- Operations: the stats endpoint ----------------------------
    let stats = analyst.get("/stats").unwrap().json().unwrap();
    let cache = stats.get("cache").unwrap();
    println!(
        "ops: cache {} hits / {} misses over {} entries; {} synopses hosted",
        cache.get("hits").and_then(|v| v.as_u64()).unwrap(),
        cache.get("misses").and_then(|v| v.as_u64()).unwrap(),
        cache.get("entries").and_then(|v| v.as_u64()).unwrap(),
        stats
            .get("registry")
            .and_then(|v| v.as_array())
            .unwrap()
            .len(),
    );
    handle.shutdown();
}
