//! The `loadgen` binary: replay seeded workloads against a running
//! `dpsd-serve` instance (or one it spawns in-process), verify every
//! wire answer bit-for-bit against a directly loaded
//! [`ReleasedSynopsis`], and emit a `BENCH_serve.json` in the
//! workspace's criterion-JSON format (`dpsd-bench-json/v1`, the same
//! schema the vendored criterion shim writes and `compare_bench`
//! diffs).
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--queries N] [--batch B] [--clients C]
//!         [--seed S] [--cache-capacity N] [--no-cache] [--dims 2|3]
//!         [--format json|bin] [--json PATH]
//!         [--stream] [--ingest-total N] [--epoch-points N]
//!         [--ingest-batch N] [--epsilon E] [--window W] [--user-cap C]
//!         [--tenant-cap EPS]
//! ```
//!
//! Without `--addr` an in-process server is spawned on an ephemeral
//! port (the CI smoke path). `--format` picks the publish wire format —
//! the JSON synopsis or the `dpsd-bin/v1` binary blob — and the direct
//! verification synopsis is reloaded through the **same** codec, so the
//! bit-identity gate covers both formats end to end. Three workloads run in sequence — uniform, Zipf hotspot,
//! adversarial cache-bust — and the run **fails** if any answer
//! diverges from the direct synopsis or if the hotspot workload does
//! not clear a 50% cache hit rate while the cache is enabled.
//!
//! `--stream` switches to the continual-release soak: the run creates a
//! stream (`POST /synopses/{name}/stream`), ingests a seeded point
//! stream in `--ingest-batch`-sized requests (deliberately unaligned
//! with `--epoch-points`, so epoch boundaries fall mid-request), and
//! interleaves verified query batches between ingests. After every
//! hot-swapped epoch release the baseline is rebuilt **directly** from
//! [`batch_config_for`] over the same stream prefix, so each wire
//! answer is checked bit-for-bit against a from-scratch batch build.
//! The run fails on any divergence, on a non-sequential registry
//! version, or if the final `/stats` stream accounting (point totals,
//! epochs, exact epsilon spend, latest version) is off by anything.
//!
//! `--window W` makes the soak a *sliding-window* run: each release is
//! verified against a from-scratch build over exactly the in-window
//! point suffix (the last `W` epochs), and the stats audit additionally
//! pins window occupancy and the evicted-bucket count. `--user-cap C`
//! turns on per-user contribution bounding — loadgen assigns every
//! point a unique user id, so nothing is dropped and the release debit
//! (`C × ε`, audited to the bit) is the only observable difference.

use dpsd_core::budget::EpsilonLedger;
use dpsd_core::exec::Parallelism;
use dpsd_core::geometry::{Point, Rect};
use dpsd_core::stream::{batch_config_for, EpsilonSchedule, StreamConfig};
use dpsd_core::synopsis::SpatialSynopsis;
use dpsd_core::tree::{PsdConfig, ReleasedSynopsis};
use dpsd_serve::client::Client;
use dpsd_serve::server::{ServeConfig, Server, ServerHandle};
use dpsd_serve::workload::{generate, SplitMix64, WorkloadKind, WorkloadSpec};
use serde::Value;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Instant;

/// The wire format an artifact is published (and re-verified) in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ArtifactFormat {
    Json,
    Bin,
}

impl ArtifactFormat {
    fn parse(s: &str) -> Option<ArtifactFormat> {
        match s {
            "json" => Some(ArtifactFormat::Json),
            "bin" => Some(ArtifactFormat::Bin),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            ArtifactFormat::Json => "json",
            ArtifactFormat::Bin => "bin",
        }
    }
}

struct Options {
    addr: Option<String>,
    queries: usize,
    batch: usize,
    clients: usize,
    seed: u64,
    cache_capacity: usize,
    dims: usize,
    format: ArtifactFormat,
    json: Option<String>,
    stream: bool,
    ingest_total: usize,
    epoch_points: u64,
    ingest_batch: usize,
    epsilon: f64,
    window: Option<u64>,
    user_cap: Option<u64>,
    tenant_cap: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: None,
            queries: 1000,
            batch: 100,
            clients: 2,
            seed: 42,
            cache_capacity: 65_536,
            dims: 2,
            format: ArtifactFormat::Json,
            json: std::env::var("CRITERION_JSON")
                .ok()
                .filter(|p| !p.is_empty()),
            stream: false,
            ingest_total: 2500,
            epoch_points: 500,
            // Unaligned with epoch_points on purpose: boundaries land
            // mid-request, exercising the absorb→release→absorb split.
            ingest_batch: 300,
            epsilon: 0.5,
            window: None,
            user_cap: None,
            tenant_cap: None,
        }
    }
}

fn usage() -> &'static str {
    "usage: loadgen [--addr HOST:PORT] [--queries N] [--batch B] [--clients C] \
     [--seed S] [--cache-capacity N] [--no-cache] [--dims 2|3] \
     [--format json|bin] [--json PATH] \
     [--stream] [--ingest-total N] [--epoch-points N] [--ingest-batch N] [--epsilon E] \
     [--window W] [--user-cap C] [--tenant-cap EPS]"
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => opts.addr = Some(value_for("--addr")?),
            "--queries" => {
                opts.queries = value_for("--queries")?
                    .parse()
                    .map_err(|_| "bad --queries")?
            }
            "--batch" => opts.batch = value_for("--batch")?.parse().map_err(|_| "bad --batch")?,
            "--clients" => {
                opts.clients = value_for("--clients")?
                    .parse()
                    .map_err(|_| "bad --clients")?
            }
            "--seed" => opts.seed = value_for("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--cache-capacity" => {
                opts.cache_capacity = value_for("--cache-capacity")?
                    .parse()
                    .map_err(|_| "bad --cache-capacity")?
            }
            "--no-cache" => opts.cache_capacity = 0,
            "--dims" => opts.dims = value_for("--dims")?.parse().map_err(|_| "bad --dims")?,
            "--format" => {
                let v = value_for("--format")?;
                opts.format = ArtifactFormat::parse(&v)
                    .ok_or_else(|| format!("bad --format `{v}` (expected json or bin)"))?
            }
            "--json" => opts.json = Some(value_for("--json")?),
            "--stream" => opts.stream = true,
            "--ingest-total" => {
                opts.ingest_total = value_for("--ingest-total")?
                    .parse()
                    .map_err(|_| "bad --ingest-total")?
            }
            "--epoch-points" => {
                opts.epoch_points = value_for("--epoch-points")?
                    .parse()
                    .map_err(|_| "bad --epoch-points")?
            }
            "--ingest-batch" => {
                opts.ingest_batch = value_for("--ingest-batch")?
                    .parse()
                    .map_err(|_| "bad --ingest-batch")?
            }
            "--epsilon" => {
                opts.epsilon = value_for("--epsilon")?
                    .parse()
                    .map_err(|_| "bad --epsilon")?
            }
            "--window" => {
                opts.window = Some(value_for("--window")?.parse().map_err(|_| "bad --window")?)
            }
            "--user-cap" => {
                opts.user_cap = Some(
                    value_for("--user-cap")?
                        .parse()
                        .map_err(|_| "bad --user-cap")?,
                )
            }
            "--tenant-cap" => {
                opts.tenant_cap = Some(
                    value_for("--tenant-cap")?
                        .parse()
                        .map_err(|_| "bad --tenant-cap")?,
                )
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if opts.queries == 0 || opts.batch == 0 || opts.clients == 0 {
        return Err("--queries, --batch, and --clients must be positive".into());
    }
    if !(2..=3).contains(&opts.dims) {
        return Err("--dims must be 2 or 3".into());
    }
    if opts.stream {
        if opts.epoch_points == 0 || opts.ingest_batch == 0 {
            return Err("--epoch-points and --ingest-batch must be positive".into());
        }
        if (opts.ingest_total as u64) < opts.epoch_points {
            return Err("--ingest-total must cover at least one epoch".into());
        }
        if !(opts.epsilon > 0.0 && opts.epsilon.is_finite()) {
            return Err("--epsilon must be a positive finite number".into());
        }
        if opts.window == Some(0) {
            return Err("--window must be at least 1 epoch".into());
        }
        if opts.user_cap == Some(0) {
            return Err("--user-cap must be at least 1 contribution".into());
        }
    } else if opts.window.is_some() || opts.user_cap.is_some() {
        return Err("--window and --user-cap require --stream".into());
    }
    if let Some(cap) = opts.tenant_cap {
        if opts.stream {
            return Err(
                "--tenant-cap drives the publish soak; it cannot combine with --stream".into(),
            );
        }
        if !(cap > 0.0 && cap.is_finite()) {
            return Err("--tenant-cap must be a positive finite epsilon".into());
        }
    }
    Ok(opts)
}

/// Deterministic clustered points: a lattice plus a dense diagonal, the
/// same refactor-proof shape the fingerprint suite uses.
fn dataset<const D: usize>(n: usize) -> (Rect<D>, Vec<Point<D>>) {
    let domain = Rect::from_corners([0.0; D], [64.0; D]).expect("static domain");
    let mut pts = Vec::with_capacity(n);
    for i in 0..n {
        let mut c = [0.0; D];
        for (k, v) in c.iter_mut().enumerate() {
            *v = ((i * (k + 3) * 7 + k * 11) % 640) as f64 * 0.1 + 0.01;
        }
        pts.push(Point::from_coords(c));
    }
    for i in 0..n / 4 {
        let x = (i % 640) as f64 * 0.1;
        pts.push(Point::from_coords([x; D]));
    }
    (domain, pts)
}

fn build_release<const D: usize>(seed: u64) -> ReleasedSynopsis<D> {
    let (domain, pts) = dataset::<D>(20_000);
    PsdConfig::<D>::kd_hybrid(domain, 6, 0.5, 2)
        .with_seed(seed)
        .build(&pts)
        .expect("seeded build succeeds")
        .release()
}

/// Serializes a release into the requested publish format.
fn encode_artifact<const D: usize>(
    release: &ReleasedSynopsis<D>,
    format: ArtifactFormat,
) -> Vec<u8> {
    match format {
        ArtifactFormat::Json => release.to_json_string().into_bytes(),
        ArtifactFormat::Bin => release.to_flat_bytes(),
    }
}

/// Reloads the artifact through the same codec the server will use, so
/// the verification baseline went through an identical decode path.
fn decode_artifact<const D: usize>(
    artifact: &[u8],
    format: ArtifactFormat,
) -> Result<ReleasedSynopsis<D>, String> {
    match format {
        ArtifactFormat::Json => {
            let text = std::str::from_utf8(artifact).map_err(|_| "json artifact is not UTF-8")?;
            ReleasedSynopsis::from_json_str(text)
        }
        ArtifactFormat::Bin => ReleasedSynopsis::from_bytes(artifact),
    }
    .map_err(|e| format!("artifact must load: {e}"))
}

/// Cache counters scraped from `GET /stats`.
fn cache_counters(client: &mut Client) -> Result<(f64, f64), String> {
    let response = client.get("/stats").map_err(|e| e.to_string())?;
    let stats = response.json().map_err(|e| e.to_string())?;
    let cache = stats.get("cache").ok_or("stats missing `cache`")?;
    let read = |k: &str| {
        cache
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("stats cache missing `{k}`"))
    };
    Ok((read("hits")?, read("misses")?))
}

struct WorkloadResult {
    kind: WorkloadKind,
    latencies_ns: Vec<f64>,
    hit_rate: f64,
    verified: usize,
}

/// Replays one workload: `clients` threads over contiguous shards, each
/// posting `batch`-sized requests on its own keep-alive connection, and
/// verifies the reassembled answers bit-for-bit against the direct
/// synopsis.
/// One client thread's results: `(workload offset, elapsed ns, answers)`
/// per batch request.
type ClientBatches = Vec<(usize, f64, Vec<f64>)>;

fn run_workload<const D: usize>(
    addr: SocketAddr,
    name: &str,
    direct: &ReleasedSynopsis<D>,
    rects: &[Vec<f64>],
    opts: &Options,
) -> Result<WorkloadResult, String> {
    let kind_label_err = |e| format!("workload client failed: {e}");
    let mut stats_client = Client::connect(addr).map_err(kind_label_err)?;
    let (hits_before, misses_before) = cache_counters(&mut stats_client)?;

    // Shard contiguously per client, batches within a shard in order.
    let per_client = rects.len().div_ceil(opts.clients);
    let shards: Vec<(usize, &[Vec<f64>])> = rects
        .chunks(per_client)
        .enumerate()
        .map(|(c, chunk)| (c * per_client, chunk))
        .collect();
    let mut answers = vec![0.0f64; rects.len()];
    let mut latencies_ns: Vec<f64> = Vec::new();
    let results: Vec<Result<ClientBatches, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|&(offset, chunk)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    for (b, rects) in chunk.chunks(opts.batch).enumerate() {
                        let body = batch_body(rects);
                        // dpsd-allow(no-wallclock-in-core): loadgen's whole job is measuring request latency; timing is the output, not an input
                        let started = Instant::now();
                        let response = client
                            .post(&format!("/synopses/{name}/query/batch"), &body)
                            .map_err(|e| e.to_string())?;
                        let elapsed = started.elapsed().as_nanos() as f64;
                        if response.status != 200 {
                            return Err(format!(
                                "batch request failed with {}: {}",
                                response.status, response.body
                            ));
                        }
                        let parsed = response.json().map_err(|e| e.to_string())?;
                        let got = parse_answers(&parsed)?;
                        out.push((offset + b * opts.batch, elapsed, got));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    for result in results {
        for (offset, elapsed_ns, got) in result? {
            latencies_ns.push(elapsed_ns);
            answers[offset..offset + got.len()].copy_from_slice(&got);
        }
    }

    // Bit-identity against the direct synopsis, over the whole workload.
    let expected = direct.query_batch(&typed_rects::<D>(rects)?);
    for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "answer {i} diverged from the direct synopsis: wire {got} vs direct {want}"
            ));
        }
    }

    let (hits_after, misses_after) = cache_counters(&mut stats_client)?;
    let lookups = (hits_after - hits_before) + (misses_after - misses_before);
    let hit_rate = if lookups > 0.0 {
        (hits_after - hits_before) / lookups
    } else {
        0.0
    };
    latencies_ns.sort_unstable_by(f64::total_cmp);
    Ok(WorkloadResult {
        kind: WorkloadKind::Uniform, // overwritten by the caller
        latencies_ns,
        hit_rate,
        verified: rects.len(),
    })
}

/// Converts wire rectangles (`[min..., max...]`) into typed [`Rect`]s.
fn typed_rects<const D: usize>(rects: &[Vec<f64>]) -> Result<Vec<Rect<D>>, String> {
    let mut typed = Vec::with_capacity(rects.len());
    for wire in rects {
        let mut min = [0.0; D];
        let mut max = [0.0; D];
        min.copy_from_slice(&wire[..D]);
        max.copy_from_slice(&wire[D..]);
        typed.push(Rect::from_corners(min, max).map_err(|e| format!("bad generated rect: {e}"))?);
    }
    Ok(typed)
}

/// Pulls the `answers` array out of a batch-query response body.
fn parse_answers(parsed: &Value) -> Result<Vec<f64>, String> {
    parsed
        .get("answers")
        .and_then(Value::as_array)
        .ok_or("batch response missing `answers`")?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| "non-numeric answer".to_string()))
        .collect()
}

fn batch_body(rects: &[Vec<f64>]) -> String {
    let value = Value::Object(vec![(
        "rects".to_string(),
        Value::Array(
            rects
                .iter()
                .map(|r| Value::Array(r.iter().copied().map(Value::Number).collect()))
                .collect(),
        ),
    )]);
    serde_json::to_string(&value).expect("batch body serializes")
}

fn render_report(opts: &Options, results: &[WorkloadResult], nodes: usize) -> String {
    let context = Value::Object(vec![
        ("queries".to_string(), Value::Number(opts.queries as f64)),
        ("batch".to_string(), Value::Number(opts.batch as f64)),
        ("clients".to_string(), Value::Number(opts.clients as f64)),
        (
            "cache_capacity".to_string(),
            Value::Number(opts.cache_capacity as f64),
        ),
        ("dims".to_string(), Value::Number(opts.dims as f64)),
        (
            "format".to_string(),
            Value::String(opts.format.label().to_string()),
        ),
        ("nodes".to_string(), Value::Number(nodes as f64)),
        ("seed".to_string(), Value::Number(opts.seed as f64)),
    ]);
    let mut benches = Vec::new();
    let mut context_entries = match context {
        Value::Object(entries) => entries,
        _ => unreachable!(),
    };
    for r in results {
        let n = r.latencies_ns.len();
        let median = r.latencies_ns[n / 2];
        let min = r.latencies_ns[0];
        let mean = r.latencies_ns.iter().sum::<f64>() / n as f64;
        context_entries.push((
            format!("{}_hit_rate", r.kind.label()),
            Value::Number(r.hit_rate),
        ));
        benches.push(Value::Object(vec![
            (
                "id".to_string(),
                Value::String(format!("serve/{}/batch{}", r.kind.label(), opts.batch)),
            ),
            ("median_ns".to_string(), Value::Number(median)),
            ("min_ns".to_string(), Value::Number(min)),
            ("mean_ns".to_string(), Value::Number(mean)),
            ("samples".to_string(), Value::Number(n as f64)),
            ("elements".to_string(), Value::Number(opts.batch as f64)),
            (
                "elems_per_sec".to_string(),
                Value::Number(opts.batch as f64 * 1e9 / median),
            ),
        ]));
    }
    let report = Value::Object(vec![
        (
            "schema".to_string(),
            Value::String("dpsd-bench-json/v1".to_string()),
        ),
        ("bench".to_string(), Value::String("serve".to_string())),
        ("context".to_string(), Value::Object(context_entries)),
        ("benches".to_string(), Value::Array(benches)),
    ]);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// Seeded point stream for the soak: uniform over the static domain,
/// reproducible from the seed alone so any prefix can be rebuilt
/// directly.
fn stream_points<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = (rng.next_u64() % 6400) as f64 * 0.01;
            }
            Point::from_coords(c)
        })
        .collect()
}

/// `POST /synopses/{name}/stream` body for the soak configuration.
fn stream_spec_body<const D: usize>(config: &StreamConfig<D>, epoch_points: u64) -> String {
    let epsilon = match config.schedule {
        EpsilonSchedule::Fixed { epsilon } => epsilon,
        EpsilonSchedule::Geometric { first, .. } => first,
    };
    let domain_wire: Vec<Value> = config
        .domain
        .min
        .iter()
        .chain(config.domain.max.iter())
        .map(|&v| Value::Number(v))
        .collect();
    let mut entries = vec![
        ("dims".to_string(), Value::Number(D as f64)),
        ("domain".to_string(), Value::Array(domain_wire)),
        ("height".to_string(), Value::Number(config.height as f64)),
        ("seed".to_string(), Value::Number(config.seed as f64)),
        (
            "epoch_points".to_string(),
            Value::Number(epoch_points as f64),
        ),
        (
            "schedule".to_string(),
            Value::Object(vec![
                ("kind".to_string(), Value::String("fixed".to_string())),
                ("epsilon".to_string(), Value::Number(epsilon)),
            ]),
        ),
        ("budget_cap".to_string(), Value::Number(config.budget_cap)),
    ];
    if let Some(w) = config.window {
        entries.push(("window".to_string(), Value::Number(w as f64)));
    }
    if let Some(c) = config.user_cap {
        entries.push(("user_cap".to_string(), Value::Number(c as f64)));
    }
    serde_json::to_string(&Value::Object(entries)).expect("stream spec serializes")
}

/// `POST /synopses/{name}/ingest` body for one batch of points. When
/// `users_from` is set (user-capped soaks), each point carries a unique
/// user id — its global stream index — so admission never drops.
fn points_body<const D: usize>(points: &[Point<D>], users_from: Option<u64>) -> String {
    let mut entries = vec![(
        "points".to_string(),
        Value::Array(
            points
                .iter()
                .map(|p| Value::Array(p.coords.iter().copied().map(Value::Number).collect()))
                .collect(),
        ),
    )];
    if let Some(from) = users_from {
        entries.push((
            "users".to_string(),
            Value::Array(
                (from..from + points.len() as u64)
                    .map(|u| Value::Number(u as f64))
                    .collect(),
            ),
        ));
    }
    serde_json::to_string(&Value::Object(entries)).expect("ingest body serializes")
}

/// The server to drive: `--addr` when given, else an in-process server
/// spawned on an ephemeral port, whose handle keeps it running until it
/// is dropped.
fn server_addr(opts: &Options) -> Result<(SocketAddr, Option<ServerHandle>), String> {
    if let Some(a) = &opts.addr {
        let addr = a
            .parse()
            .map_err(|_| format!("bad --addr `{a}` (need HOST:PORT)"))?;
        return Ok((addr, None));
    }
    let config = ServeConfig {
        cache_capacity: opts.cache_capacity,
        parallelism: Parallelism::from_env(),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("cannot bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("cannot spawn: {e}"))?;
    let addr = handle.addr();
    eprintln!("loadgen: spawned in-process server on {addr}");
    Ok((addr, Some(handle)))
}

/// Latency samples collected by the soak, split by request role.
struct SoakLatencies {
    /// Ingest requests that crossed no epoch boundary.
    ingest_ns: Vec<f64>,
    /// Ingest requests that materialized at least one release.
    epoch_ns: Vec<f64>,
    /// Verified interleaved query batches.
    query_ns: Vec<f64>,
}

/// The continual-release soak: create a stream, ingest the seeded point
/// stream in unaligned batches, rebuild the baseline from
/// [`batch_config_for`] at every release, verify every interleaved wire
/// answer bit-for-bit, then audit the `/stats` accounting exactly.
fn run_stream<const D: usize>(opts: &Options) -> Result<(), String> {
    let (addr, spawned) = server_addr(opts)?;

    let name = "soak";
    let epochs_expected = opts.ingest_total as u64 / opts.epoch_points;
    let domain = Rect::from_corners([0.0; D], [64.0; D]).expect("static domain");
    // Each release debits `user_cap × ε` under per-user composition, so
    // the cap must scale with it to cover the same number of epochs.
    let cap_mult = opts.user_cap.unwrap_or(1);
    let mut config = StreamConfig::<D>::new(
        domain,
        5,
        EpsilonSchedule::Fixed {
            epsilon: opts.epsilon,
        },
        opts.epsilon * (cap_mult * (epochs_expected + 1)) as f64,
        opts.seed,
    );
    config.window = opts.window;
    config.user_cap = opts.user_cap;
    let points = stream_points::<D>(opts.ingest_total, opts.seed ^ 0xA5A5_5A5A);
    let domain_wire: Vec<f64> = domain
        .min
        .iter()
        .chain(domain.max.iter())
        .copied()
        .collect();

    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let created = client
        .post(
            &format!("/synopses/{name}/stream"),
            &stream_spec_body(&config, opts.epoch_points),
        )
        .map_err(|e| format!("stream create failed: {e}"))?;
    if created.status != 200 {
        return Err(format!(
            "stream create rejected with {}: {}",
            created.status, created.body
        ));
    }
    eprintln!(
        "loadgen: streaming {} points (dims {}, {} per epoch, {} per request, ε {} per release{}{})",
        opts.ingest_total,
        D,
        opts.epoch_points,
        opts.ingest_batch,
        opts.epsilon,
        opts.window
            .map_or(String::new(), |w| format!(", window {w} epochs")),
        opts.user_cap
            .map_or(String::new(), |c| format!(", user cap {c}")),
    );

    let mut latencies = SoakLatencies {
        ingest_ns: Vec::new(),
        epoch_ns: Vec::new(),
        query_ns: Vec::new(),
    };
    // Baseline for interleaved queries: the latest release, rebuilt
    // from scratch over the same prefix and pushed through the same
    // dpsd-bin codec the server publishes with.
    let mut direct: Option<ReleasedSynopsis<D>> = None;
    let mut released: Vec<(u64, u64)> = Vec::new();
    let mut verified = 0usize;
    let mut step = 0u64;
    for (c, chunk) in points.chunks(opts.ingest_batch).enumerate() {
        let users_from = opts.user_cap.map(|_| (c * opts.ingest_batch) as u64);
        let body = points_body(chunk, users_from);
        // dpsd-allow(no-wallclock-in-core): loadgen's whole job is measuring request latency; timing is the output, not an input
        let started = Instant::now();
        let response = client
            .post(&format!("/synopses/{name}/ingest"), &body)
            .map_err(|e| format!("ingest failed: {e}"))?;
        let elapsed = started.elapsed().as_nanos() as f64;
        if response.status != 200 {
            return Err(format!(
                "ingest rejected with {}: {}",
                response.status, response.body
            ));
        }
        let report = response.json().map_err(|e| e.to_string())?;
        let releases = report
            .get("releases")
            .and_then(Value::as_array)
            .ok_or("ingest report missing `releases`")?;
        if releases.is_empty() {
            latencies.ingest_ns.push(elapsed);
        } else {
            latencies.epoch_ns.push(elapsed);
        }
        for release in releases {
            let epoch = release
                .get("epoch")
                .and_then(Value::as_u64)
                .ok_or("release missing `epoch`")?;
            let version = release
                .get("version")
                .and_then(Value::as_u64)
                .ok_or("release missing `version`")?;
            if epoch != released.len() as u64 || version != released.len() as u64 + 1 {
                return Err(format!(
                    "release out of sequence: epoch {epoch} version {version} after {} releases",
                    released.len()
                ));
            }
            released.push((epoch, version));
            // The continual-release contract: the server's hot-swapped
            // artifact must match a from-scratch batch build over the
            // exact same stream prefix — or, under a window, over
            // exactly the in-window suffix (the last `W` epochs) — bit
            // for bit.
            let prefix = ((epoch + 1) * opts.epoch_points) as usize;
            let start = opts.window.map_or(0, |w| {
                ((epoch + 1).saturating_sub(w) * opts.epoch_points) as usize
            });
            let rebuilt = batch_config_for(&config, epoch)
                .build(&points[start..prefix])
                .map_err(|e| format!("direct window build failed: {e}"))?
                .release();
            direct = Some(decode_artifact::<D>(
                &rebuilt.to_flat_bytes(),
                ArtifactFormat::Bin,
            )?);
            eprintln!(
                "loadgen: epoch {epoch} released as version {version} (points {start}..{prefix})"
            );
        }
        // Interleave a verified query batch once a release is live.
        if let Some(baseline) = &direct {
            step += 1;
            let qseed = SplitMix64::new(opts.seed ^ (0x5EED << 8) ^ step).next_u64();
            let spec = WorkloadSpec::new(WorkloadKind::Uniform, opts.batch, qseed);
            let rects = generate(&domain_wire, &spec);
            let body = batch_body(&rects);
            // dpsd-allow(no-wallclock-in-core): loadgen's whole job is measuring request latency; timing is the output, not an input
            let started = Instant::now();
            let response = client
                .post(&format!("/synopses/{name}/query/batch"), &body)
                .map_err(|e| format!("query batch failed: {e}"))?;
            latencies.query_ns.push(started.elapsed().as_nanos() as f64);
            if response.status != 200 {
                return Err(format!(
                    "query batch rejected with {}: {}",
                    response.status, response.body
                ));
            }
            let answers = parse_answers(&response.json().map_err(|e| e.to_string())?)?;
            let expected = baseline.query_batch(&typed_rects::<D>(&rects)?);
            for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
                if got.to_bits() != want.to_bits() {
                    return Err(format!(
                        "post-swap answer {i} diverged from the direct prefix build: \
                         wire {got} vs direct {want}"
                    ));
                }
            }
            verified += rects.len();
        }
    }
    if released.len() as u64 != epochs_expected {
        return Err(format!(
            "expected {epochs_expected} epoch releases, saw {}",
            released.len()
        ));
    }

    // Exact accounting audit: the stream's /stats entry must reproduce
    // the point totals and the sequential-debit epsilon spend to the
    // bit.
    let stats = client
        .get("/stats")
        .map_err(|e| e.to_string())?
        .json()
        .map_err(|e| e.to_string())?;
    let streams = stats
        .get("streams")
        .and_then(Value::as_array)
        .ok_or("stats missing `streams`")?;
    let entry = streams
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
        .ok_or("stats missing the soak stream")?;
    let field_u64 = |k: &str| {
        entry
            .get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("stats stream entry missing `{k}`"))
    };
    let mut checks: Vec<(&str, u64)> = vec![
        ("total_points", opts.ingest_total as u64),
        ("epochs_released", epochs_expected),
        (
            "pending_points",
            opts.ingest_total as u64 - epochs_expected * opts.epoch_points,
        ),
        ("latest_version", epochs_expected),
    ];
    // With unique user ids nothing is ever dropped, so every admission
    // counter is exact; under a window the evicted-bucket count and
    // occupancy follow in closed form from the release count.
    let window_start = opts.window.map_or(0, |w| {
        epochs_expected.saturating_sub(w - 1) * opts.epoch_points
    });
    let in_window = opts.ingest_total as u64 - window_start;
    if let Some(cap) = opts.user_cap {
        checks.push(("admission_drops", 0));
        checks.push(("tracked_users", in_window));
        // Every unique user contributes exactly once, so each tracked
        // user sits at the cap iff the cap is one.
        checks.push(("capped_users", if cap == 1 { in_window } else { 0 }));
    }
    if let Some(w) = opts.window {
        checks.push(("window", w));
        checks.push(("buckets_evicted", epochs_expected.saturating_sub(w - 1)));
        checks.push(("window_start", window_start));
        checks.push(("window_points", in_window));
    }
    for (key, want) in checks {
        let got = field_u64(key)?;
        if got != want {
            return Err(format!("stats `{key}` is {got}, expected exactly {want}"));
        }
    }
    // The ledger debits sequentially, so the expected spend is the same
    // left-to-right fold — equal to the bit, not approximately. Under a
    // user cap each debit is the group-privacy bound `cap × ε`.
    let expected_spent = (0..epochs_expected).fold(0.0f64, |acc, e| acc + config.release_debit(e));
    let spent = entry
        .get("epsilon_spent")
        .and_then(Value::as_f64)
        .ok_or("stats stream entry missing `epsilon_spent`")?;
    if spent.to_bits() != expected_spent.to_bits() {
        return Err(format!(
            "stats epsilon_spent {spent} is not bit-identical to the sequential debit sum {expected_spent}"
        ));
    }
    eprintln!(
        "loadgen: soak complete — {} epochs hot-swapped, {} interleaved answers verified \
         bit-identical, ε spent {spent} (exact)",
        released.len(),
        verified,
    );

    let report = render_stream_report(opts, &latencies, released.len(), verified);
    if let Some(path) = &opts.json {
        std::fs::write(path, &report).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("loadgen: wrote {path}");
    } else {
        println!("{report}");
    }
    drop(spawned);
    Ok(())
}

fn render_stream_report(
    opts: &Options,
    latencies: &SoakLatencies,
    epochs: usize,
    verified: usize,
) -> String {
    let context = vec![
        (
            "ingest_total".to_string(),
            Value::Number(opts.ingest_total as f64),
        ),
        (
            "epoch_points".to_string(),
            Value::Number(opts.epoch_points as f64),
        ),
        (
            "ingest_batch".to_string(),
            Value::Number(opts.ingest_batch as f64),
        ),
        ("epsilon".to_string(), Value::Number(opts.epsilon)),
        ("dims".to_string(), Value::Number(opts.dims as f64)),
        ("epochs".to_string(), Value::Number(epochs as f64)),
        ("verified".to_string(), Value::Number(verified as f64)),
        ("seed".to_string(), Value::Number(opts.seed as f64)),
        (
            "window".to_string(),
            opts.window.map_or(Value::Null, |w| Value::Number(w as f64)),
        ),
        (
            "user_cap".to_string(),
            opts.user_cap
                .map_or(Value::Null, |c| Value::Number(c as f64)),
        ),
    ];
    let mut benches = Vec::new();
    let mut push_bench = |id: String, samples: &[f64], elements: usize| {
        if samples.is_empty() {
            return;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        benches.push(Value::Object(vec![
            ("id".to_string(), Value::String(id)),
            ("median_ns".to_string(), Value::Number(median)),
            ("min_ns".to_string(), Value::Number(sorted[0])),
            (
                "mean_ns".to_string(),
                Value::Number(sorted.iter().sum::<f64>() / sorted.len() as f64),
            ),
            ("samples".to_string(), Value::Number(sorted.len() as f64)),
            ("elements".to_string(), Value::Number(elements as f64)),
            (
                "elems_per_sec".to_string(),
                Value::Number(elements as f64 * 1e9 / median),
            ),
        ]));
    };
    push_bench(
        format!("stream/ingest/batch{}", opts.ingest_batch),
        &latencies.ingest_ns,
        opts.ingest_batch,
    );
    push_bench(
        "stream/epoch_release".to_string(),
        &latencies.epoch_ns,
        opts.ingest_batch,
    );
    push_bench(
        format!("stream/query/batch{}", opts.batch),
        &latencies.query_ns,
        opts.batch,
    );
    let report = Value::Object(vec![
        (
            "schema".to_string(),
            Value::String("dpsd-bench-json/v1".to_string()),
        ),
        (
            "bench".to_string(),
            Value::String("stream_soak".to_string()),
        ),
        ("context".to_string(), Value::Object(context)),
        ("benches".to_string(), Value::Array(benches)),
    ]);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

fn run<const D: usize>(opts: &Options) -> Result<(), String> {
    let (addr, spawned) = server_addr(opts)?;

    let artifact = encode_artifact(&build_release::<D>(opts.seed), opts.format);
    let direct = decode_artifact::<D>(&artifact, opts.format)?;
    let name = "loadgen";
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let publish = client
        .post_bytes(&format!("/synopses/{name}"), &artifact)
        .map_err(|e| format!("publish failed: {e}"))?;
    if publish.status != 200 {
        return Err(format!(
            "publish rejected with {}: {}",
            publish.status, publish.body
        ));
    }
    eprintln!(
        "loadgen: published {} nodes (dims {}, format {}, {} artifact bytes) to {addr}",
        direct.node_count(),
        D,
        opts.format.label(),
        artifact.len(),
    );

    let domain_wire: Vec<f64> = {
        let d = direct.domain();
        d.min.iter().chain(d.max.iter()).copied().collect()
    };
    let mut results = Vec::new();
    for (i, kind) in [
        WorkloadKind::Uniform,
        WorkloadKind::Hotspot,
        WorkloadKind::CacheBust,
    ]
    .into_iter()
    .enumerate()
    {
        // Distinct derived seed per workload so pools don't overlap.
        let seed = SplitMix64::new(opts.seed ^ (i as u64 + 1)).next_u64();
        let spec = WorkloadSpec::new(kind, opts.queries, seed);
        let rects = generate(&domain_wire, &spec);
        let mut result = run_workload(addr, name, &direct, &rects, opts)
            .map_err(|e| format!("{} workload: {e}", kind.label()))?;
        result.kind = kind;
        let n = result.latencies_ns.len();
        eprintln!(
            "loadgen: {:<9} {} queries in {} batches  median {:>9.1} µs/batch  hit rate {:.1}%  verified bit-identical",
            kind.label(),
            result.verified,
            n,
            result.latencies_ns[n / 2] / 1000.0,
            result.hit_rate * 100.0,
        );
        results.push(result);
    }

    let report = render_report(opts, &results, direct.node_count());
    if let Some(path) = &opts.json {
        std::fs::write(path, &report).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("loadgen: wrote {path}");
    } else {
        println!("{report}");
    }

    // The acceptance gate: with a cache, the hotspot workload must be
    // served mostly from memory.
    if opts.cache_capacity > 0 {
        let hotspot = results
            .iter()
            .find(|r| r.kind == WorkloadKind::Hotspot)
            .expect("hotspot ran");
        if hotspot.hit_rate <= 0.5 {
            return Err(format!(
                "hotspot cache hit rate {:.1}% did not clear the 50% gate",
                hotspot.hit_rate * 100.0
            ));
        }
    }
    drop(spawned);
    Ok(())
}

/// The per-tenant budget exhaustion soak: publish the same artifact
/// under a capped name until the ledger refuses, mirroring the server's
/// accounting with a local [`EpsilonLedger`] fed the identical debit
/// sequence. Every wire-reported `budget` snapshot must match the
/// mirror **to the bit** (same sequential `+=` fold, same comparison),
/// the refusal must arrive exactly when the mirror's `check` first
/// fails, its 409 body must carry the bit-exact arithmetic, and the
/// exhausted publish must leave the registry observably untouched.
fn run_tenant_cap<const D: usize>(opts: &Options, cap: f64) -> Result<(), String> {
    let (addr, spawned) = server_addr(opts)?;

    let artifact = encode_artifact(&build_release::<D>(opts.seed), opts.format);
    let direct = decode_artifact::<D>(&artifact, opts.format)?;
    // The per-release debit is the artifact's composed epsilon, read
    // through the same decode path the server uses.
    let eps = direct.epsilon();
    let name = "capped-soak";
    let mut ledger =
        EpsilonLedger::new(cap).map_err(|e| format!("--tenant-cap rejected by ledger: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    eprintln!(
        "loadgen: exhausting tenant `{name}` (cap ε {cap}, ε {eps} per publish, dims {D}, \
         format {})",
        opts.format.label(),
    );

    // Bit-compare one wire budget snapshot against the local mirror.
    let audit_budget = |value: &Value, ledger: &EpsilonLedger, at: &str| -> Result<(), String> {
        let budget = value
            .get("budget")
            .ok_or_else(|| format!("{at}: response missing `budget`"))?;
        let field = |k: &str| {
            budget
                .get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{at}: budget missing numeric `{k}`"))
        };
        for (key, want) in [
            ("cap", ledger.cap()),
            ("spent", ledger.spent()),
            ("remaining", ledger.remaining()),
        ] {
            let got = field(key)?;
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "{at}: budget `{key}` is {got}, not bit-identical to the mirror's {want}"
                ));
            }
        }
        Ok(())
    };

    // Publish until the mirror says the next debit cannot fit. The
    // bound is belt-and-braces: the mirror's cap arithmetic terminates
    // the loop on its own, and `+ 2` headroom means the guard only
    // trips if server and mirror disagree.
    let max_publishes = (cap / eps).ceil() as u64 + 2;
    let mut versions = 0u64;
    while ledger.check(eps).is_ok() {
        if versions >= max_publishes {
            return Err(format!(
                "mirror still admits publish {} past the {max_publishes} bound — \
                 server and mirror have diverged",
                versions + 1
            ));
        }
        let path = if versions == 0 {
            format!("/synopses/{name}?budget_cap={cap}")
        } else {
            format!("/synopses/{name}")
        };
        let response = client
            .post_bytes(&path, &artifact)
            .map_err(|e| format!("publish failed: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "publish {} rejected with {}: {} (mirror says ε {} of {cap} spent, fits)",
                versions + 1,
                response.status,
                response.body,
                ledger.spent(),
            ));
        }
        ledger
            .debit(eps)
            .map_err(|e| format!("mirror debit failed after a 200: {e}"))?;
        versions += 1;
        let parsed = response.json().map_err(|e| e.to_string())?;
        let version = parsed
            .get("version")
            .and_then(Value::as_u64)
            .ok_or("publish response missing `version`")?;
        if version != versions {
            return Err(format!(
                "publish {versions} minted version {version}, expected exactly {versions}"
            ));
        }
        audit_budget(&parsed, &ledger, &format!("publish {versions}"))?;
        eprintln!(
            "loadgen: version {versions} live — ε spent {} of {cap} (remaining {})",
            ledger.spent(),
            ledger.remaining(),
        );
    }
    if versions == 0 {
        return Err(format!(
            "--tenant-cap {cap} admits no publish of an ε {eps} artifact; raise the cap"
        ));
    }

    // One more publish must bounce with the ledger's own arithmetic on
    // the wire, leaving version and spend exactly where they were.
    let refused = client
        .post_bytes(&format!("/synopses/{name}"), &artifact)
        .map_err(|e| format!("exhausted publish failed: {e}"))?;
    if refused.status != 409 {
        return Err(format!(
            "exhausted publish returned {} ({}), expected 409",
            refused.status, refused.body
        ));
    }
    let want_body = format!(
        "{{\"error\":\"privacy budget exhausted: release needs epsilon {eps} but only {} \
         remains under the cap\"}}",
        ledger.remaining(),
    );
    if refused.body != want_body {
        return Err(format!(
            "409 body drifted from the ledger arithmetic:\n  got  {}\n  want {want_body}",
            refused.body
        ));
    }
    let info = client
        .get(&format!("/synopses/{name}"))
        .map_err(|e| e.to_string())?
        .json()
        .map_err(|e| e.to_string())?;
    if info.get("version").and_then(Value::as_u64) != Some(versions) {
        return Err("the refused publish moved the served version".into());
    }
    audit_budget(&info, &ledger, "post-refusal info")?;

    // The /stats registry entry must keep the per-release epsilon and
    // the cumulative ledger spend as distinct, exact numbers.
    let stats = client
        .get("/stats")
        .map_err(|e| e.to_string())?
        .json()
        .map_err(|e| e.to_string())?;
    let entry = stats
        .get("registry")
        .and_then(Value::as_array)
        .ok_or("stats missing `registry`")?
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some(name))
        .ok_or("stats missing the capped tenant")?
        .clone();
    let per_release = entry
        .get("epsilon")
        .and_then(Value::as_f64)
        .ok_or("stats entry missing per-release `epsilon`")?;
    if per_release.to_bits() != eps.to_bits() {
        return Err(format!(
            "stats per-release epsilon {per_release} is not the artifact's ε {eps}"
        ));
    }
    audit_budget(&entry, &ledger, "stats registry entry")?;
    eprintln!(
        "loadgen: tenant soak complete — {versions} publishes admitted, refusal at ε {} of \
         {cap} (exact), 409 arithmetic verified",
        ledger.spent(),
    );
    drop(spawned);
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (opts.stream, opts.tenant_cap, opts.dims) {
        (false, Some(cap), 2) => run_tenant_cap::<2>(&opts, cap),
        (false, Some(cap), 3) => run_tenant_cap::<3>(&opts, cap),
        (false, None, 2) => run::<2>(&opts),
        (false, None, 3) => run::<3>(&opts),
        (true, _, 2) => run_stream::<2>(&opts),
        (true, _, 3) => run_stream::<3>(&opts),
        _ => unreachable!("validated in parse_options"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
