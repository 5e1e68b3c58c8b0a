//! Per-tenant privacy budget suite, at the socket: a real server on an
//! ephemeral port, and the hard invariant that every budget number
//! crossing the wire is **bit-identical** to the sequential-fold ledger
//! arithmetic (`spent` accumulates by plain `+=` in debit order; the
//! admission check is the exact comparison `spent + eps > cap`).
//!
//! Covered here:
//! * exhaustion ordering — a capped tenant admits exactly the publishes
//!   that fit, each reporting the exact running spend, then refuses
//!   with the ledger's own arithmetic in a pinned 409 body;
//! * publish-vs-debit atomicity — concurrent publishes over separate
//!   connections never overdraw the cap, never reuse a version, and
//!   leave the highest minted version serving;
//! * stream/manual composition — epoch releases and manual publishes
//!   debit the **same** tenant ledger, while the stream's own
//!   `epsilon_spent` keeps counting only its releases;
//! * refused-publish invariance — a budget-exhausted publish changes
//!   nothing observable: version, budget, cached answers, and the cache
//!   occupancy are exactly as before, and a refused first publish with
//!   `?budget_cap=` leaves no cap behind.

use dpsd::prelude::*;
use dpsd::serve::client::Client;
use dpsd::serve::server::{ServeConfig, Server, ServerHandle};

fn start_server() -> ServerHandle {
    Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

/// A tiny seeded quadtree artifact whose composed epsilon is exactly
/// `eps` (the builder splits a dyadic epsilon across levels and the
/// audit re-sums it to the same bits).
fn artifact(eps: f64, seed: u64) -> String {
    let domain = Rect::new(0.0, 0.0, 64.0, 64.0).unwrap();
    let pts: Vec<Point> = (0..200)
        .map(|i| {
            Point::new(
                ((i * 13) % 640) as f64 * 0.1,
                ((i * 29 + 7) % 640) as f64 * 0.1,
            )
        })
        .collect();
    PsdConfig::quadtree(domain, 1, eps)
        .with_seed(seed)
        .build(&pts)
        .unwrap()
        .release()
        .to_json_string()
}

/// Reads `(cap, spent, remaining)` out of a response's `budget` object.
fn budget_of(value: &serde::Value) -> (Option<f64>, f64, Option<f64>) {
    let budget = value.get("budget").expect("response carries a budget");
    let opt = |k: &str| {
        let v = budget.get(k).unwrap_or_else(|| panic!("budget has `{k}`"));
        if v.is_null() {
            None
        } else {
            Some(v.as_f64().unwrap_or_else(|| panic!("numeric `{k}`")))
        }
    };
    let spent = opt("spent").expect("spent is always a number");
    (opt("cap"), spent, opt("remaining"))
}

fn version_of(value: &serde::Value) -> u64 {
    value
        .get("version")
        .and_then(serde::Value::as_u64)
        .expect("response carries a version")
}

#[test]
fn exhaustion_is_ordered_and_bit_exact() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = artifact(0.5, 7);

    // Cap 2.0 admits exactly four 0.5-epsilon publishes; the running
    // spend after each is a dyadic sum, so the wire numbers must equal
    // the fold not approximately but to the bit.
    let mut spent = 0.0f64;
    for version in 1..=4u64 {
        let path = if version == 1 {
            "/synopses/tenant?budget_cap=2.0"
        } else {
            "/synopses/tenant"
        };
        let response = client.post(path, &body).unwrap();
        assert_eq!(response.status, 200, "publish {version}: {}", response.body);
        spent += 0.5;
        let parsed = response.json().unwrap();
        assert_eq!(version_of(&parsed), version);
        let (cap, got_spent, remaining) = budget_of(&parsed);
        assert_eq!(cap.unwrap().to_bits(), 2.0f64.to_bits());
        assert_eq!(got_spent.to_bits(), spent.to_bits());
        assert_eq!(remaining.unwrap().to_bits(), (2.0 - spent).to_bits());
    }

    // The fifth publish must bounce with the ledger's arithmetic
    // rendered exactly (f64 Display: 0.5 and 0), as a 409.
    let refused = client.post("/synopses/tenant", &body).unwrap();
    assert_eq!(refused.status, 409);
    assert_eq!(
        refused.body,
        "{\"error\":\"privacy budget exhausted: release needs epsilon 0.5 \
         but only 0 remains under the cap\"}"
    );
    // And the fourth version keeps serving.
    let info = client.get("/synopses/tenant").unwrap().json().unwrap();
    assert_eq!(version_of(&info), 4);
}

#[test]
fn caps_are_immutable_over_the_wire() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = artifact(0.5, 11);

    let first = client
        .post("/synopses/immut?budget_cap=2.0", &body)
        .unwrap();
    assert_eq!(first.status, 200, "{}", first.body);

    // A different cap is a conflict; restating the same bits is not.
    let changed = client
        .post("/synopses/immut?budget_cap=3.0", &body)
        .unwrap();
    assert_eq!(changed.status, 409, "{}", changed.body);
    assert!(
        changed.body.contains("immutable"),
        "conflict body names the policy: {}",
        changed.body
    );
    let restated = client
        .post("/synopses/immut?budget_cap=2.0", &body)
        .unwrap();
    assert_eq!(restated.status, 200, "{}", restated.body);
    let parsed = restated.json().unwrap();
    assert_eq!(version_of(&parsed), 2);
    assert_eq!(budget_of(&parsed).1.to_bits(), 1.0f64.to_bits());

    // The rejected cap change also minted nothing.
    let info = client.get("/synopses/immut").unwrap().json().unwrap();
    assert_eq!(version_of(&info), 2);
}

#[test]
fn a_refused_capped_publish_installs_no_cap() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = artifact(2.0, 5);

    // A cap below the artifact's epsilon refuses the publish, and the
    // refusal must not keep the cap: nothing was published or spent.
    let refused = client.post("/synopses/t?budget_cap=1.0", &body).unwrap();
    assert_eq!(refused.status, 409, "{}", refused.body);
    assert_eq!(
        refused.body,
        "{\"error\":\"privacy budget exhausted: release needs epsilon 2 \
         but only 1 remains under the cap\"}"
    );
    assert_eq!(client.get("/synopses/t").unwrap().status, 404);

    // So a corrected first request is still the first: its cap holds.
    let accepted = client.post("/synopses/t?budget_cap=3.0", &body).unwrap();
    assert_eq!(accepted.status, 200, "{}", accepted.body);
    assert!(
        accepted
            .body
            .contains("\"budget\":{\"cap\":3.0,\"spent\":2.0,\"remaining\":1.0}"),
        "{}",
        accepted.body
    );
    assert_eq!(version_of(&accepted.json().unwrap()), 1);
}

#[test]
fn concurrent_publishes_never_overdraw_or_reuse_versions() {
    let handle = start_server();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let body = artifact(0.5, 23);

    // Seed the tenant: cap 2.0, 0.5 spent — room for exactly 3 more.
    let first = client.post("/synopses/race?budget_cap=2.0", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);

    let outcomes: Vec<(u16, Option<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let body = &body;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let response = c.post("/synopses/race", body).unwrap();
                    let version =
                        (response.status == 200).then(|| version_of(&response.json().unwrap()));
                    (response.status, version)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly three winners (2.0 − 0.5 admits three 0.5 debits), every
    // loser a 409, and the winners' versions are distinct consecutive
    // mints 2..=4 in some order.
    let mut versions: Vec<u64> = outcomes.iter().filter_map(|(_, v)| *v).collect();
    versions.sort_unstable();
    assert_eq!(versions, vec![2, 3, 4], "outcomes: {outcomes:?}");
    assert!(
        outcomes.iter().all(|(s, _)| *s == 200 || *s == 409),
        "only 200/409 are possible: {outcomes:?}"
    );

    // The final state: highest mint serving, cap spent to the bit.
    let info = client.get("/synopses/race").unwrap().json().unwrap();
    assert_eq!(version_of(&info), 4);
    let (cap, spent, remaining) = budget_of(&info);
    assert_eq!(cap.unwrap().to_bits(), 2.0f64.to_bits());
    assert_eq!(spent.to_bits(), 2.0f64.to_bits());
    assert_eq!(remaining.unwrap().to_bits(), 0.0f64.to_bits());
}

#[test]
fn stream_and_manual_publishes_share_one_ledger() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // A capped stream: 10-point epochs at ε 0.5 under a 2.0 lifetime
    // cap. Creating it also caps the *tenant*, so manual publishes
    // compose with epoch releases under the same account.
    let spec = "{\"dims\":2,\"domain\":[0.0,0.0,64.0,64.0],\"height\":2,\"seed\":9,\
                \"epoch_points\":10,\"schedule\":{\"kind\":\"fixed\",\"epsilon\":0.5},\
                \"budget_cap\":2.0}";
    let created = client.post("/synopses/mix/stream", spec).unwrap();
    assert_eq!(created.status, 200, "{}", created.body);

    let ingest = |client: &mut Client| {
        let pts: Vec<String> = (0..10)
            .map(|i| format!("[{}.5,{}.25]", (i * 5) % 60, (i * 7) % 60))
            .collect();
        let body = format!("{{\"points\":[{}]}}", pts.join(","));
        client.post("/synopses/mix/ingest", &body).unwrap()
    };
    let body = artifact(0.5, 31);

    // Alternate epoch releases and manual publishes to exhaustion:
    // stream 0.5, manual 0.5, stream 0.5, manual 0.5 = the whole cap.
    let r1 = ingest(&mut client);
    assert_eq!(r1.status, 200, "{}", r1.body);
    let p1 = client.post("/synopses/mix", &body).unwrap();
    assert_eq!(p1.status, 200, "{}", p1.body);
    assert_eq!(version_of(&p1.json().unwrap()), 2);
    let r2 = ingest(&mut client);
    assert_eq!(r2.status, 200, "{}", r2.body);
    let p2 = client.post("/synopses/mix", &body).unwrap();
    assert_eq!(p2.status, 200, "{}", p2.body);
    let parsed = p2.json().unwrap();
    assert_eq!(version_of(&parsed), 4);
    assert_eq!(budget_of(&parsed).1.to_bits(), 2.0f64.to_bits());

    // The next epoch boundary passes the stream's own precheck (it has
    // spent only 1.0 of its 2.0) but the shared tenant ledger is dry,
    // so the ingest bounces 409 — composition works across paths.
    let r3 = ingest(&mut client);
    assert_eq!(r3.status, 409, "{}", r3.body);
    assert_eq!(
        r3.body,
        "{\"error\":\"privacy budget exhausted: release needs epsilon 0.5 \
         but only 0 remains under the cap\"}"
    );
    // So does a manual publish.
    let refused = client.post("/synopses/mix", &body).unwrap();
    assert_eq!(refused.status, 409, "{}", refused.body);

    // Per-release vs cumulative accounting stays distinct: the stream
    // has spent exactly its two epochs, the tenant the whole cap.
    let status = client.get("/synopses/mix/stream").unwrap().json().unwrap();
    let stream_spent = status
        .get("epsilon_spent")
        .and_then(serde::Value::as_f64)
        .unwrap();
    assert_eq!(stream_spent.to_bits(), 1.0f64.to_bits());
    let info = client.get("/synopses/mix").unwrap().json().unwrap();
    assert_eq!(version_of(&info), 4);
    assert_eq!(budget_of(&info).1.to_bits(), 2.0f64.to_bits());
}

#[test]
fn refused_publish_leaves_every_observable_unchanged() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let body = artifact(1.0, 43);

    // One publish exhausts the cap exactly.
    let first = client
        .post("/synopses/frozen?budget_cap=1.0", &body)
        .unwrap();
    assert_eq!(first.status, 200, "{}", first.body);

    // Warm the cache so a purge (which must NOT happen) would show.
    let query = "{\"rect\":[0.0,0.0,32.0,32.0]}";
    let miss = client
        .post("/synopses/frozen/query", query)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(miss.get("cached").unwrap().as_bool(), Some(false));
    let hit = client
        .post("/synopses/frozen/query", query)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(hit.get("cached").unwrap().as_bool(), Some(true));
    let answer_before = hit.get("estimate").unwrap().as_f64().unwrap();

    let stats_before = client.get("/stats").unwrap().json().unwrap();
    let cache_entries = |stats: &serde::Value| {
        stats
            .get("cache")
            .and_then(|c| c.get("entries"))
            .and_then(serde::Value::as_u64)
            .unwrap()
    };
    let entries_before = cache_entries(&stats_before);
    let info_before = client.get("/synopses/frozen").unwrap().body.clone();

    // The refusal: pinned body, no version mint, no purge, no swap.
    let refused = client.post("/synopses/frozen", &body).unwrap();
    assert_eq!(refused.status, 409);
    assert_eq!(
        refused.body,
        "{\"error\":\"privacy budget exhausted: release needs epsilon 1 \
         but only 0 remains under the cap\"}"
    );

    let info_after = client.get("/synopses/frozen").unwrap();
    assert_eq!(
        info_after.body, info_before,
        "info (version + budget) must be byte-identical after a refusal"
    );
    let again = client
        .post("/synopses/frozen/query", query)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        again.get("cached").unwrap().as_bool(),
        Some(true),
        "the warmed cache entry must survive a refused publish"
    );
    assert_eq!(
        again.get("estimate").unwrap().as_f64().unwrap().to_bits(),
        answer_before.to_bits()
    );
    let stats_after = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(cache_entries(&stats_after), entries_before);
}
