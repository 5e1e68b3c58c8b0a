//! Socket-level integration tests for the serving layer: a real
//! `TcpListener` on an ephemeral port, real HTTP requests, and the hard
//! invariant that every estimate crossing the wire is **bit-identical**
//! to querying the loaded [`ReleasedSynopsis`] directly — through the
//! cache, the batch path, hot-swaps, and both published formats.

use dpsd::prelude::*;
use dpsd::serve::client::Client;
use dpsd::serve::server::{ServeConfig, Server, ServerHandle};
use dpsd::serve::workload::{generate, WorkloadKind, WorkloadSpec};

fn start_server(config: ServeConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

fn synopsis_2d(seed: u64) -> ReleasedSynopsis<2> {
    let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
    let pts: Vec<Point> = (0..2500)
        .map(|i| {
            Point::new(
                ((i * 13) % 640) as f64 * 0.1,
                ((i * 29 + 7) % 640) as f64 * 0.1,
            )
        })
        .collect();
    PsdConfig::kd_hybrid(domain, 5, 0.5, 2)
        .with_seed(seed)
        .build(&pts)
        .unwrap()
        .release()
}

fn synopsis_3d(seed: u64) -> ReleasedSynopsis<3> {
    let domain = Rect::<3>::from_corners([0.0; 3], [32.0; 3]).unwrap();
    let pts: Vec<Point<3>> = (0..2000)
        .map(|i| {
            Point::from_coords([
                ((i * 7) % 320) as f64 * 0.1,
                ((i * 11 + 3) % 320) as f64 * 0.1,
                ((i * 17 + 5) % 320) as f64 * 0.1,
            ])
        })
        .collect();
    PsdConfig::<3>::quadtree(domain, 3, 0.8)
        .with_seed(seed)
        .build(&pts)
        .unwrap()
        .release()
}

fn wire_rect<const D: usize>(r: &Rect<D>) -> Vec<f64> {
    r.min.iter().chain(r.max.iter()).copied().collect()
}

fn rect_json(coords: &[f64]) -> String {
    let inner: Vec<String> = coords.iter().map(|c| format!("{c:?}")).collect();
    format!("[{}]", inner.join(","))
}

fn query_body(coords: &[f64]) -> String {
    format!("{{\"rect\":{}}}", rect_json(coords))
}

fn batch_body(rects: &[Vec<f64>]) -> String {
    let inner: Vec<String> = rects.iter().map(|r| rect_json(r)).collect();
    format!("{{\"rects\":[{}]}}", inner.join(","))
}

fn typed_rects<const D: usize>(wire: &[Vec<f64>]) -> Vec<Rect<D>> {
    wire.iter()
        .map(|w| {
            let mut min = [0.0; D];
            let mut max = [0.0; D];
            min.copy_from_slice(&w[..D]);
            max.copy_from_slice(&w[D..]);
            Rect::from_corners(min, max).unwrap()
        })
        .collect()
}

/// Publishes over the wire, asserting success, and returns the version.
fn publish(client: &mut Client, name: &str, artifact: &str) -> u64 {
    let response = client
        .post(&format!("/synopses/{name}"), artifact)
        .expect("publish round-trip");
    assert_eq!(response.status, 200, "publish failed: {}", response.body);
    response
        .json()
        .unwrap()
        .get("version")
        .and_then(|v| v.as_u64())
        .expect("publish response carries the version")
}

fn single_estimate(client: &mut Client, name: &str, coords: &[f64]) -> f64 {
    let response = client
        .post(&format!("/synopses/{name}/query"), &query_body(coords))
        .expect("query round-trip");
    assert_eq!(response.status, 200, "query failed: {}", response.body);
    response
        .json()
        .unwrap()
        .get("estimate")
        .and_then(|v| v.as_f64())
        .expect("query response carries the estimate")
}

fn batch_answers(client: &mut Client, name: &str, rects: &[Vec<f64>]) -> Vec<f64> {
    let response = client
        .post(&format!("/synopses/{name}/query/batch"), &batch_body(rects))
        .expect("batch round-trip");
    assert_eq!(response.status, 200, "batch failed: {}", response.body);
    response
        .json()
        .unwrap()
        .get("answers")
        .and_then(|v| {
            v.as_array()
                .map(|a| a.iter().map(|x| x.as_f64().unwrap()).collect())
        })
        .expect("batch response carries answers")
}

#[test]
fn publish_and_query_2d_bit_identical_over_the_wire() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let direct = synopsis_2d(11);
    let version = publish(&mut client, "tiger", &direct.to_json_string());
    assert_eq!(version, 1);

    let spec = WorkloadSpec::new(WorkloadKind::Uniform, 120, 5);
    let wire = generate(&wire_rect(&direct.domain()), &spec);
    // Singles: each wire estimate equals the direct query bit-for-bit
    // (first pass fills the cache, second pass reads it — both must
    // match exactly).
    for pass in 0..2 {
        for w in wire.iter().take(40) {
            let got = single_estimate(&mut client, "tiger", w);
            let want = direct.query(&typed_rects::<2>(std::slice::from_ref(w))[0]);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "pass {pass}: wire {got} != direct {want}"
            );
        }
    }
    // Batch: the full workload in one request equals query_batch.
    let got = batch_answers(&mut client, "tiger", &wire);
    let want = direct.query_batch(&typed_rects::<2>(&wire));
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "batch answer {i} diverged");
    }
}

#[test]
fn publish_and_query_3d_bit_identical_over_the_wire() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let direct = synopsis_3d(23);
    publish(&mut client, "cube", &direct.to_json_string());

    let info = client.get("/synopses/cube").unwrap();
    assert_eq!(info.status, 200);
    let parsed = info.json().unwrap();
    assert_eq!(parsed.get("dims").and_then(|v| v.as_u64()), Some(3));

    let spec = WorkloadSpec::new(WorkloadKind::Hotspot, 90, 8);
    let wire = generate(&wire_rect(&direct.domain()), &spec);
    let got = batch_answers(&mut client, "cube", &wire);
    let want = direct.query_batch(&typed_rects::<3>(&wire));
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "3d batch answer {i} diverged");
    }
    // A 2D rect against a 3D synopsis is a client error, not a panic.
    let response = client
        .post("/synopses/cube/query", &query_body(&[0.0, 0.0, 1.0, 1.0]))
        .unwrap();
    assert_eq!(response.status, 400);
    assert!(response.error_message().unwrap().contains("6 numbers"));
}

#[test]
fn binary_release_format_publishes_too() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let direct = synopsis_2d(47);
    let blob = direct.to_flat_bytes();

    // The registry sniffs the dpsd-bin/v1 magic from the raw body and
    // serves the tenant from the flat arena.
    let response = client.post_bytes("/synopses/arena", &blob).unwrap();
    assert_eq!(
        response.status, 200,
        "binary publish failed: {}",
        response.body
    );

    let typed = Rect::new(2.0, 4.0, 37.0, 31.0).unwrap();
    let got = single_estimate(&mut client, "arena", &wire_rect(&typed));
    assert_eq!(
        got.to_bits(),
        direct.query(&typed).to_bits(),
        "arena-served answer not bit-identical to the direct release"
    );
    let rects: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            let x = i as f64 * 3.0;
            wire_rect(&Rect::new(x, 1.0, x + 9.0, 28.0).unwrap())
        })
        .collect();
    let wire = batch_answers(&mut client, "arena", &rects);
    for (w, r) in wire.iter().zip(typed_rects::<2>(&rects)) {
        assert_eq!(w.to_bits(), direct.query(&r).to_bits());
    }

    // A corrupted blob (payload flip without re-hashing -> checksum
    // mismatch) is a typed 400, and the connection stays usable.
    let mut bad = blob.clone();
    bad[64] ^= 0xff;
    let r = client.post_bytes("/synopses/arena-bad", &bad).unwrap();
    assert_eq!(r.status, 400, "corrupted binary must be rejected");
    assert!(r.error_message().unwrap().contains("checksum"));
    let r = client
        .post_bytes("/synopses/arena-bad", &blob[..40])
        .unwrap();
    assert_eq!(r.status, 400, "truncated binary must be rejected");
    let still = single_estimate(&mut client, "arena", &wire_rect(&typed));
    assert_eq!(still.to_bits(), direct.query(&typed).to_bits());
}

#[test]
fn hot_swap_serves_the_new_version_immediately() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let v1 = synopsis_2d(100);
    let v2 = synopsis_2d(200); // different seed, different noise
    let q = wire_rect(&Rect::new(1.0, 1.0, 30.0, 22.0).unwrap());
    let typed = Rect::new(1.0, 1.0, 30.0, 22.0).unwrap();
    assert_ne!(
        v1.query(&typed).to_bits(),
        v2.query(&typed).to_bits(),
        "fixture: versions must answer differently"
    );

    assert_eq!(publish(&mut client, "swap", &v1.to_json_string()), 1);
    // Warm the cache on version 1.
    assert_eq!(
        single_estimate(&mut client, "swap", &q).to_bits(),
        v1.query(&typed).to_bits()
    );
    // Hot-swap; the same rect must now answer from version 2, never
    // from the stale cache entry.
    assert_eq!(publish(&mut client, "swap", &v2.to_json_string()), 2);
    assert_eq!(
        single_estimate(&mut client, "swap", &q).to_bits(),
        v2.query(&typed).to_bits()
    );
}

#[test]
fn error_paths_are_typed_json_not_hangs() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    publish(&mut client, "ok", &synopsis_2d(1).to_json_string());

    // Unknown synopsis.
    let r = client
        .post("/synopses/ghost/query", &query_body(&[0.0, 0.0, 1.0, 1.0]))
        .unwrap();
    assert_eq!(r.status, 404);
    assert!(r.error_message().unwrap().contains("ghost"));
    // The name resolves before the body parses: an unknown synopsis is
    // a 404 whatever the body holds.
    for path in ["/synopses/ghost/query", "/synopses/ghost/query/batch"] {
        let r = client.post(path, "not json").unwrap();
        assert_eq!(r.status, 404, "{path}: {}", r.body);
    }

    // Malformed artifact.
    let r = client
        .post("/synopses/bad", "{\"format\":\"nope\"}")
        .unwrap();
    assert_eq!(r.status, 400);

    // Malformed query bodies.
    for body in [
        "not json",
        "{}",
        "{\"rect\": \"zero\"}",
        "{\"rect\": [0,0,1]}",
    ] {
        let r = client.post("/synopses/ok/query", body).unwrap();
        assert_eq!(r.status, 400, "body {body:?} must be a 400");
        assert!(r.error_message().is_some());
    }
    // Inverted rectangle.
    let r = client
        .post("/synopses/ok/query", &query_body(&[5.0, 0.0, 1.0, 1.0]))
        .unwrap();
    assert_eq!(r.status, 400);

    // Wrong method and unknown route.
    let r = client.get("/synopses/ok/query").unwrap();
    assert_eq!(r.status, 405);
    let r = client.get("/nothing/here").unwrap();
    assert_eq!(r.status, 404);

    // Invalid registry names never publish.
    let r = client
        .post("/synopses/bad%2Fname", &synopsis_2d(2).to_json_string())
        .unwrap();
    assert_eq!(r.status, 400);

    // The connection survived every error above (keep-alive), and the
    // server still answers happily.
    let r = client.get("/stats").unwrap();
    assert_eq!(r.status, 200);
}

#[test]
fn stats_reports_cache_registry_and_latency() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let direct = synopsis_2d(7);
    publish(&mut client, "metrics", &direct.to_json_string());
    let q = wire_rect(&Rect::new(0.0, 0.0, 10.0, 10.0).unwrap());
    single_estimate(&mut client, "metrics", &q); // miss
    single_estimate(&mut client, "metrics", &q); // hit

    let stats = client.get("/stats").unwrap().json().unwrap();
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("enabled").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(cache.get("hits").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(cache.get("misses").and_then(|v| v.as_u64()), Some(1));
    let registry = stats.get("registry").and_then(|v| v.as_array()).unwrap();
    assert_eq!(registry.len(), 1);
    assert_eq!(
        registry[0].get("name").and_then(|v| v.as_str()),
        Some("metrics")
    );
    let endpoints = stats.get("endpoints").expect("endpoints section");
    let query = endpoints.get("query").expect("query endpoint");
    assert_eq!(query.get("requests").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(query.get("errors").and_then(|v| v.as_u64()), Some(0));
    let latency = query.get("latency").expect("latency histogram");
    assert_eq!(latency.get("count").and_then(|v| v.as_u64()), Some(2));
    assert!(latency.get("p50_le_us").and_then(|v| v.as_f64()).is_some());

    // The registry list endpoint agrees.
    let list = client.get("/synopses").unwrap().json().unwrap();
    assert_eq!(
        list.get("synopses")
            .and_then(|v| v.as_array())
            .map(<[_]>::len),
        Some(1)
    );
}

/// A batch probes every rect before it inserts any miss, so a rect
/// repeated within one batch misses on every occurrence and lands in
/// the cache once.
#[test]
fn a_batch_repeating_a_rect_probes_every_rect_before_inserting() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let direct = synopsis_2d(31);
    publish(&mut client, "twice", &direct.to_json_string());
    let typed = Rect::new(3.0, 5.0, 41.0, 29.0).unwrap();
    let rects = vec![wire_rect(&typed); 2];
    let cache_counters = |client: &mut Client| {
        let stats = client.get("/stats").unwrap().json().unwrap();
        let cache = stats.get("cache").unwrap();
        let field = |name: &str| cache.get(name).and_then(|v| v.as_u64()).unwrap();
        (field("misses"), field("entries"))
    };
    let batch = |client: &mut Client| {
        let response = client
            .post("/synopses/twice/query/batch", &batch_body(&rects))
            .unwrap();
        assert_eq!(response.status, 200, "batch failed: {}", response.body);
        let reply = response.json().unwrap();
        let answers: Vec<u64> = reply
            .get("answers")
            .and_then(|v| v.as_array())
            .map(|a| a.iter().map(|x| x.as_f64().unwrap().to_bits()).collect())
            .unwrap();
        assert_eq!(answers, [direct.query(&typed).to_bits(); 2]);
        reply.get("cache_hits").and_then(|v| v.as_u64()).unwrap()
    };

    let (misses, entries) = cache_counters(&mut client);
    assert_eq!(batch(&mut client), 0, "both copies miss");
    assert_eq!(cache_counters(&mut client), (misses + 2, entries + 1));
    assert_eq!(batch(&mut client), 2, "both copies hit");
}

#[test]
fn cache_disabled_still_answers_identically() {
    let config = ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let handle = start_server(config);
    let mut client = Client::connect(handle.addr()).unwrap();
    let direct = synopsis_2d(55);
    publish(&mut client, "nocache", &direct.to_json_string());
    let spec = WorkloadSpec::new(WorkloadKind::Hotspot, 60, 2);
    let wire = generate(&wire_rect(&direct.domain()), &spec);
    let got = batch_answers(&mut client, "nocache", &wire);
    let want = direct.query_batch(&typed_rects::<2>(&wire));
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), w.to_bits());
    }
    let stats = client.get("/stats").unwrap().json().unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("enabled").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(cache.get("hits").and_then(|v| v.as_u64()), Some(0));
}

// ---------------------------------------------------------------------
// Streaming over the socket: continual release, sliding windows, and
// user-capped admission, all through real HTTP requests.
// ---------------------------------------------------------------------

fn points_json(points: &[Vec<f64>]) -> String {
    let inner: Vec<String> = points.iter().map(|p| rect_json(p)).collect();
    format!("[{}]", inner.join(","))
}

fn ingest_points_body(points: &[Vec<f64>]) -> String {
    format!("{{\"points\":{}}}", points_json(points))
}

/// Deterministic wire points matching `stream_points` below.
fn stream_wire_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            vec![
                ((i * 13 + 5) % 640) as f64 * 0.1,
                ((i * 29 + 11) % 640) as f64 * 0.1,
            ]
        })
        .collect()
}

/// The same points as typed [`Point`]s, for local reference builds.
fn stream_points(n: usize) -> Vec<Point> {
    stream_wire_points(n)
        .iter()
        .map(|c| Point::new(c[0], c[1]))
        .collect()
}

/// The stream resolves before the ingest body parses: an unknown stream
/// is a 404 whatever the body holds, while a known stream still answers
/// a malformed body with a 400 and absorbs nothing.
#[test]
fn ingest_resolves_the_stream_before_parsing_the_body() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let points = ingest_points_body(&stream_wire_points(3));
    for body in ["not json", "{}", points.as_str()] {
        let r = client.post("/synopses/ghost/ingest", body).unwrap();
        assert_eq!(r.status, 404, "{body:?}: {}", r.body);
        assert!(r.error_message().unwrap().contains("ghost"));
    }
    let r = client
        .post(
            "/synopses/live/stream",
            r#"{"dims":2,"domain":[0,0,64,64],"height":3,"seed":9,"epoch_points":5,
                "schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":100}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200, "stream create failed: {}", r.body);
    let r = client.post("/synopses/live/ingest", "not json").unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    let r = client.post("/synopses/live/ingest", &points).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let report = r.json().unwrap();
    assert_eq!(report.get("total_points").and_then(|v| v.as_u64()), Some(3));
}

/// Regression for the multi-boundary edge: a single `POST .../ingest`
/// whose batch crosses *three* epoch boundaries must report every
/// intermediate release (epochs 0, 1, 2 as versions 1, 2, 3) — not
/// just the last one — and leave the epoch-2 prefix build published.
#[test]
fn one_ingest_spanning_three_epoch_boundaries_reports_every_release() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let r = client
        .post(
            "/synopses/feed/stream",
            r#"{"dims":2,"domain":[0,0,64,64],"height":3,"seed":9,"epoch_points":5,
                "schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":100}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200, "stream create failed: {}", r.body);

    // 17 points cross the boundaries at 5, 10, and 15 in one request.
    let r = client
        .post(
            "/synopses/feed/ingest",
            &ingest_points_body(&stream_wire_points(17)),
        )
        .unwrap();
    assert_eq!(r.status, 200, "ingest failed: {}", r.body);
    let report = r.json().unwrap();
    assert_eq!(report.get("absorbed").and_then(|v| v.as_u64()), Some(17));
    assert_eq!(report.get("dropped").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(
        report.get("epochs_released").and_then(|v| v.as_u64()),
        Some(3)
    );
    let releases = report
        .get("releases")
        .and_then(|v| v.as_array())
        .expect("ingest report carries a releases array");
    assert_eq!(releases.len(), 3, "every crossed boundary must be listed");
    for (i, release) in releases.iter().enumerate() {
        assert_eq!(
            release.get("epoch").and_then(|v| v.as_u64()),
            Some(i as u64),
            "release {i} epoch"
        );
        assert_eq!(
            release.get("version").and_then(|v| v.as_u64()),
            Some(i as u64 + 1),
            "release {i} version"
        );
    }

    // The published tenant is the epoch-2 prefix build, bit-identical
    // over the wire.
    let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
    let config =
        StreamConfig::<2>::new(domain, 3, EpsilonSchedule::Fixed { epsilon: 0.5 }, 100.0, 9);
    let direct = batch_config_for(&config, 2)
        .build(&stream_points(15))
        .unwrap()
        .release();
    for q in [
        domain,
        Rect::new(0.0, 0.0, 32.0, 32.0).unwrap(),
        Rect::new(8.0, 16.0, 56.0, 40.0).unwrap(),
    ] {
        let got = single_estimate(&mut client, "feed", &wire_rect(&q));
        assert_eq!(
            got.to_bits(),
            direct.query(&q).to_bits(),
            "wire answer diverged from the epoch-2 prefix build"
        );
    }
}

/// A windowed stream over the socket: unaligned ingest batches, window
/// occupancy in the status endpoint, and the released tenant answering
/// bit-identically to the batch build over exactly the in-window
/// suffix.
#[test]
fn windowed_stream_serves_suffix_identical_answers_over_the_wire() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let r = client
        .post(
            "/synopses/rolling/stream",
            r#"{"dims":2,"domain":[0,0,64,64],"height":2,"seed":4711,"epoch_points":6,
                "schedule":{"kind":"fixed","epsilon":0.7},"budget_cap":100,"window":2}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200, "windowed create failed: {}", r.body);

    // 30 points in unaligned chunks of 7: five epoch boundaries, three
    // of them mid-request.
    let wire = stream_wire_points(30);
    let mut versions = Vec::new();
    for chunk in wire.chunks(7) {
        let r = client
            .post("/synopses/rolling/ingest", &ingest_points_body(chunk))
            .unwrap();
        assert_eq!(r.status, 200, "windowed ingest failed: {}", r.body);
        let report = r.json().unwrap();
        for release in report.get("releases").and_then(|v| v.as_array()).unwrap() {
            versions.push(release.get("version").and_then(|v| v.as_u64()).unwrap());
        }
    }
    assert_eq!(versions, vec![1, 2, 3, 4, 5]);

    // Status reflects the post-advance window: epochs 0..=3 aged out.
    let info = client.get("/synopses/rolling/stream").unwrap();
    assert_eq!(info.status, 200);
    let info = info.json().unwrap();
    let keys: Vec<&str> = match &info {
        serde::Value::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("stream status is not an object: {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "name",
            "dims",
            "height",
            "epoch_points",
            "total_points",
            "pending_points",
            "epochs_released",
            "epsilon_spent",
            "budget_cap",
            "next_epoch_epsilon",
            "latest_version",
            "window",
            "window_start",
            "window_points",
            "buckets_evicted",
            "user_cap",
            "tracked_users",
            "capped_users",
            "admission_drops",
            "next_release_debit",
            "hot_cell",
        ],
        "stream status keys and their order are part of the wire contract"
    );
    assert_eq!(info.get("window").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        info.get("epochs_released").and_then(|v| v.as_u64()),
        Some(5)
    );
    assert_eq!(info.get("window_start").and_then(|v| v.as_u64()), Some(24));
    assert_eq!(info.get("window_points").and_then(|v| v.as_u64()), Some(6));
    assert_eq!(
        info.get("buckets_evicted").and_then(|v| v.as_u64()),
        Some(4)
    );
    assert_eq!(info.get("latest_version").and_then(|v| v.as_u64()), Some(5));

    // The served tenant is the epoch-4 release: byte-equivalent to the
    // from-scratch build over points 18..30 (epochs 3 and 4 only).
    let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
    let config = StreamConfig::<2>::new(
        domain,
        2,
        EpsilonSchedule::Fixed { epsilon: 0.7 },
        100.0,
        4711,
    )
    .with_window(2);
    let direct = batch_config_for(&config, 4)
        .build(&stream_points(30)[18..30])
        .unwrap()
        .release();
    for q in [
        domain,
        Rect::new(0.0, 0.0, 32.0, 32.0).unwrap(),
        Rect::new(4.0, 8.0, 60.0, 48.0).unwrap(),
    ] {
        let got = single_estimate(&mut client, "rolling", &wire_rect(&q));
        assert_eq!(
            got.to_bits(),
            direct.query(&q).to_bits(),
            "windowed wire answer diverged from the in-window suffix build"
        );
    }
}

/// User-capped streams over the socket: drops are reported (not
/// errors), the status endpoint accounts for them, and malformed or
/// mismatched `users` arrays are typed 400s that never absorb a point.
#[test]
fn user_capped_stream_reports_drops_and_rejects_bad_users_arrays() {
    let handle = start_server(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let r = client
        .post(
            "/synopses/capped/stream",
            r#"{"dims":2,"domain":[0,0,64,64],"height":2,"seed":3,"epoch_points":4,
                "schedule":{"kind":"fixed","epsilon":0.3},"budget_cap":100,"user_cap":2}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200, "capped create failed: {}", r.body);

    // Two flooding users: of eight offered points only two per user
    // are admitted, which lands exactly on the 4-point epoch boundary.
    let wire = stream_wire_points(8);
    let body = format!(
        "{{\"points\":{},\"users\":[7,7,7,9,9,9,9,7]}}",
        points_json(&wire)
    );
    let r = client.post("/synopses/capped/ingest", &body).unwrap();
    assert_eq!(r.status, 200, "capped ingest failed: {}", r.body);
    let report = r.json().unwrap();
    assert_eq!(report.get("absorbed").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(report.get("dropped").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(
        report.get("epochs_released").and_then(|v| v.as_u64()),
        Some(1)
    );

    let info = client
        .get("/synopses/capped/stream")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(info.get("user_cap").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(info.get("tracked_users").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(info.get("capped_users").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        info.get("admission_drops").and_then(|v| v.as_u64()),
        Some(4)
    );
    // Group-privacy composition: the next release debits cap x epsilon.
    assert_eq!(
        info.get("next_release_debit")
            .and_then(|v| v.as_f64())
            .map(f64::to_bits),
        Some((0.3f64 * 2.0).to_bits())
    );

    // Capped stream without a users array: 400.
    let r = client
        .post(
            "/synopses/capped/ingest",
            &ingest_points_body(&stream_wire_points(2)),
        )
        .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.error_message().unwrap().contains("users"));
    // Length mismatch: 400.
    let body = format!(
        "{{\"points\":{},\"users\":[1]}}",
        points_json(&stream_wire_points(2))
    );
    let r = client.post("/synopses/capped/ingest", &body).unwrap();
    assert_eq!(r.status, 400);
    // Non-integer ids: 400.
    let body = format!(
        "{{\"points\":{},\"users\":[1.5,2]}}",
        points_json(&stream_wire_points(2))
    );
    let r = client.post("/synopses/capped/ingest", &body).unwrap();
    assert_eq!(r.status, 400);
    // None of the rejected requests absorbed anything.
    let info = client
        .get("/synopses/capped/stream")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(info.get("total_points").and_then(|v| v.as_u64()), Some(4));

    // An *uncapped* stream rejects a users array outright.
    let r = client
        .post(
            "/synopses/plain/stream",
            r#"{"dims":2,"domain":[0,0,64,64],"height":2,"seed":3,"epoch_points":4,
                "schedule":{"kind":"fixed","epsilon":0.3},"budget_cap":100}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200);
    let body = format!(
        "{{\"points\":{},\"users\":[1,2]}}",
        points_json(&stream_wire_points(2))
    );
    let r = client.post("/synopses/plain/ingest", &body).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.error_message().unwrap().contains("no user cap"));

    // The connection survived every error above and still serves.
    let r = client.get("/stats").unwrap();
    assert_eq!(r.status, 200);
}
