//! The concurrent synopsis server: routing, handlers, and the
//! connection loop over `std::net::TcpListener`.
//!
//! # Protocol
//!
//! Everything is HTTP/1.1 + JSON:
//!
//! | Method & path                        | Meaning                                   |
//! |--------------------------------------|-------------------------------------------|
//! | `POST /synopses/{name}`              | Publish (or hot-swap) an artifact — body is a `dpsd-bin/v1` blob or a JSON synopsis |
//! | `GET /synopses`                      | List published synopses                   |
//! | `GET /synopses/{name}`               | One synopsis' metadata                    |
//! | `POST /synopses/{name}/query`        | `{"rect": [min..., max...]}` → one estimate |
//! | `POST /synopses/{name}/query/batch`  | `{"rects": [[...], ...]}` → all estimates |
//! | `POST /synopses/{name}/stream`       | Create a continual-release stream (dims, domain, height, seed, epoch size, epsilon schedule, budget cap; optional `window` epochs and per-user `user_cap`) |
//! | `GET /synopses/{name}/stream`        | One stream's status (points, epochs, spend, window occupancy, admission drops) |
//! | `POST /synopses/{name}/ingest`       | `{"points": [[...], ...]}` (plus a parallel `users` id array on user-capped streams) → absorb; every epoch boundary crossed hot-swaps a fresh version |
//! | `GET /stats`                         | Cache counters, per-endpoint latency histograms, registry contents, stream accounting |
//!
//! # Answer fidelity
//!
//! The serving layer adds **zero numeric drift**: every estimate a
//! client receives is bit-identical to calling
//! [`query`](dpsd_core::synopsis::SpatialSynopsis::query)/[`query_batch`](dpsd_core::synopsis::SpatialSynopsis::query_batch)
//! on the published release directly: whichever format an artifact
//! arrived in, the tenant *is* the loaded [`ReleasedSynopsis`], queried
//! by the same kernel as the owner's tree. That holds through all three
//! serving features — the read-through cache (keys pin exact rect bit
//! patterns and the synopsis version), batch dispatch through
//! [`ParallelQuery::query_batch_parallel`] (bit-identical to sequential
//! by the exec layer's contract), and hot-swap (version-carrying cache
//! keys make stale answers unreachable). JSON transport preserves the
//! bits because the vendored `serde_json` prints shortest-round-trip
//! floats (the `dpsd-bin` binary format carries raw `f64` bytes and
//! has no such formatting dependency — see the canonical float note in
//! `vendor/README.md` and the [`dpsd_core::flat`] module docs). The
//! socket-level suites (`tests/serve_http.rs`, `tests/serve_stress.rs`)
//! enforce this end to end.

use crate::cache::{CacheKey, ShardedCache};
use crate::error::ServeError;
use crate::http::{read_request, write_response, HttpError, Request};
use crate::metrics::{Endpoint, Metrics};
use crate::registry::{
    with_synopsis, AnySynopsis, PublishedSynopsis, SynopsisRegistry, TenantBudget,
};
use crate::stream::{IngestReport, StreamManager, StreamSpec};
use dpsd_core::exec::Parallelism;
use dpsd_core::geometry::Rect;
use dpsd_core::synopsis::ParallelQuery;
use dpsd_core::tree::ReleasedSynopsis;
use serde::Value;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total query-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Worker policy for batch queries (dispatched through
    /// [`ParallelQuery::query_batch_parallel`], which is bit-identical
    /// to the sequential path at every setting).
    pub parallelism: Parallelism,
    /// Largest accepted request body (published artifacts and batch
    /// workloads both ride in bodies).
    pub max_body_bytes: usize,
    /// Largest accepted batch (rectangles per request).
    pub max_batch: usize,
    /// Idle keep-alive timeout before a connection is dropped.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 65_536,
            parallelism: Parallelism::Auto,
            max_body_bytes: 256 * 1024 * 1024,
            max_batch: 1 << 20,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Shared state behind every connection thread.
struct ServerState {
    registry: SynopsisRegistry,
    cache: ShardedCache,
    metrics: Metrics,
    streams: StreamManager,
    config: ServeConfig,
}

/// A bound, not-yet-serving synopsis server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState {
            registry: SynopsisRegistry::new(),
            cache: ShardedCache::new(config.cache_capacity),
            metrics: Metrics::new(),
            streams: StreamManager::new(),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (reports the actual ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Publishes an artifact (any wire format, including `dpsd-bin`
    /// blobs) directly, without a round-trip — used by the binary to
    /// preload synopses from files before serving. Preloads debit the
    /// tenant ledger like any publish, so a `--tenant-cap` installed
    /// first is enforced from the very first artifact.
    pub fn preload(&self, name: &str, artifact: &[u8]) -> Result<(String, u64), ServeError> {
        let (published, _) = self.state.registry.publish(name, artifact)?;
        Ok((published.name.clone(), published.version))
    }

    /// Installs a per-tenant budget cap before serving — the binary's
    /// `--tenant-cap name=eps` flag. Subject to the registry's
    /// immutability rule: set once, re-statable bit-identically.
    pub fn set_tenant_cap(&self, name: &str, cap: f64) -> Result<(), ServeError> {
        self.state.registry.set_cap(name, cap).map(|_| ())
    }

    /// Serves forever on the calling thread (the binary's main loop).
    pub fn run(self) -> std::io::Result<()> {
        let shutdown = Arc::new(AtomicBool::new(false));
        self.accept_loop(&shutdown);
        Ok(())
    }

    /// Starts serving on a background thread and returns a handle that
    /// shuts the server down when asked (or dropped).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        // dpsd-allow(no-raw-spawn): the accept loop is the server's one long-lived thread, owned by ServerHandle
        let thread = std::thread::spawn(move || self.accept_loop(&flag));
        Ok(ServerHandle {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    fn accept_loop(&self, shutdown: &AtomicBool) {
        for stream in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => {
                    // Persistent accept failures (fd exhaustion under
                    // load) would otherwise busy-spin this loop; a
                    // short sleep lets connection threads finish and
                    // release descriptors.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            let state = Arc::clone(&self.state);
            // dpsd-allow(no-raw-spawn): thread-per-connection is this server's documented concurrency model; connection threads own no shared mutable state beyond Arc<ServerState>
            std::thread::spawn(move || handle_connection(stream, &state));
        }
    }
}

/// Controls a spawned [`Server`]; shuts it down on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is reachable on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread.
    /// In-flight connections finish on their own threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn handle_connection(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.config.idle_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match read_request(&mut reader, state.config.max_body_bytes) {
            Ok(None) => break,
            Ok(Some(request)) => {
                let keep_alive = !request.wants_close();
                // dpsd-allow(no-wallclock-in-core): latency metrics are observability, not query results; timing never feeds an answer
                let started = Instant::now();
                let (endpoint, outcome) = route(state, &request);
                let (status, body) = match outcome {
                    Ok(body) => (200, body),
                    Err(e) => (e.status(), error_body(&e.to_string())),
                };
                state
                    .metrics
                    .record(endpoint, started.elapsed(), status < 400);
                if write_response(&mut writer, status, &body, keep_alive).is_err() || !keep_alive {
                    break;
                }
            }
            Err(HttpError::Io(_)) => break, // disconnect or idle timeout
            Err(e) => {
                let status = match e {
                    HttpError::TooLarge(_) => 413,
                    _ => 400,
                };
                state
                    .metrics
                    .record(Endpoint::Unrouted, Duration::ZERO, false);
                let _ = write_response(&mut writer, status, &error_body(&e.to_string()), false);
                break;
            }
        }
    }
}

fn error_body(message: &str) -> String {
    let v = Value::Object(vec![(
        "error".to_string(),
        Value::String(message.to_string()),
    )]);
    // A flat object holding one string cannot fail to serialize, but a
    // connection thread must never panic over an error *body*: fall
    // back to a static JSON message instead.
    serde_json::to_string(&v).unwrap_or_else(|_| r#"{"error":"internal error"}"#.to_string())
}

fn route(state: &ServerState, request: &Request) -> (Endpoint, Result<String, ServeError>) {
    let path = request.target.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match (method, segments.as_slice()) {
        ("GET", ["stats"]) => (Endpoint::Stats, handle_stats(state)),
        ("GET", ["synopses"]) => (Endpoint::Registry, handle_list(state)),
        ("POST", ["synopses", name]) => (Endpoint::Publish, handle_publish(state, name, request)),
        ("GET", ["synopses", name]) => (Endpoint::Registry, handle_info(state, name)),
        ("POST", ["synopses", name, "query"]) => {
            (Endpoint::Query, handle_query(state, name, request))
        }
        ("POST", ["synopses", name, "query", "batch"]) => {
            (Endpoint::Batch, handle_batch(state, name, request))
        }
        ("POST", ["synopses", name, "stream"]) => {
            (Endpoint::Stream, handle_stream_create(state, name, request))
        }
        ("GET", ["synopses", name, "stream"]) => (
            Endpoint::Stream,
            state.streams.info(name).and_then(|v| to_body(&v)),
        ),
        ("POST", ["synopses", name, "ingest"]) => {
            (Endpoint::Ingest, handle_ingest(state, name, request))
        }
        (_, ["stats"]) | (_, ["synopses"]) => (
            Endpoint::Unrouted,
            Err(ServeError::MethodNotAllowed {
                path: path.to_string(),
                allowed: "GET",
            }),
        ),
        (_, ["synopses", _]) => (
            Endpoint::Unrouted,
            Err(ServeError::MethodNotAllowed {
                path: path.to_string(),
                allowed: "GET, POST",
            }),
        ),
        (_, ["synopses", _, "query"])
        | (_, ["synopses", _, "query", "batch"])
        | (_, ["synopses", _, "ingest"]) => (
            Endpoint::Unrouted,
            Err(ServeError::MethodNotAllowed {
                path: path.to_string(),
                allowed: "POST",
            }),
        ),
        (_, ["synopses", _, "stream"]) => (
            Endpoint::Unrouted,
            Err(ServeError::MethodNotAllowed {
                path: path.to_string(),
                allowed: "GET, POST",
            }),
        ),
        _ => (
            Endpoint::Unrouted,
            Err(ServeError::NoSuchRoute(path.to_string())),
        ),
    }
}

/// The tenant-budget object reported alongside a synopsis: `cap` and
/// `remaining` are `null` for uncapped tenants (infinity has no JSON
/// rendering), `spent` is the bit-exact sequential debit fold.
fn budget_value(b: &TenantBudget) -> Value {
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Number);
    Value::Object(vec![
        ("cap".to_string(), opt(b.cap)),
        ("spent".to_string(), Value::Number(b.spent)),
        ("remaining".to_string(), opt(b.remaining)),
    ])
}

/// The metadata object reported for one published synopsis. `epsilon`
/// is the hosted artifact's per-release budget; `budget.spent` is the
/// tenant's *cumulative* ledger spend across every publish and stream
/// release under this name — the two deliberately differ for any
/// re-published or stream-backed tenant.
fn published_info(p: &PublishedSynopsis, budget: &TenantBudget) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::String(p.name.clone())),
        ("version".to_string(), Value::Number(p.version as f64)),
        ("dims".to_string(), Value::Number(p.synopsis.dims() as f64)),
        (
            "kind".to_string(),
            Value::String(p.synopsis.kind().to_string()),
        ),
        (
            "nodes".to_string(),
            Value::Number(p.synopsis.node_count() as f64),
        ),
        ("epsilon".to_string(), Value::Number(p.synopsis.epsilon())),
        (
            "domain".to_string(),
            Value::Array(
                p.synopsis
                    .domain_wire()
                    .into_iter()
                    .map(Value::Number)
                    .collect(),
            ),
        ),
        ("budget".to_string(), budget_value(budget)),
    ])
}

/// First value of a query parameter in a request target, e.g.
/// `budget_cap` in `/synopses/t?budget_cap=2.5`.
fn query_param<'t>(target: &'t str, key: &str) -> Option<&'t str> {
    target.split_once('?')?.1.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn to_body(value: &Value) -> Result<String, ServeError> {
    serde_json::to_string(value)
        .map_err(|e| ServeError::BadRequest(format!("response serialization failed: {e}")))
}

fn handle_publish(
    state: &ServerState,
    name: &str,
    request: &Request,
) -> Result<String, ServeError> {
    // `?budget_cap=eps` on the first publish caps the tenant; the cap
    // is installed under the same lock as the debit and version mint.
    let cap = match query_param(&request.target, "budget_cap") {
        None => None,
        Some(raw) => Some(raw.parse::<f64>().map_err(|_| {
            ServeError::BadRequest(format!("budget_cap must be a number, got `{raw}`"))
        })?),
    };
    // The body goes to the registry as raw bytes: binary artifacts are
    // sniffed by magic, and UTF-8 validation (for JSON/text) happens in
    // the registry's loader. A failed debit returns before this point
    // with the cache — like the registry — untouched.
    let (published, budget) = state.registry.publish_capped(name, &request.body, cap)?;
    // Hot swap: answers minted against older versions are unreachable
    // (the version is part of every cache key); purging just frees the
    // space immediately.
    state.cache.purge_stale(name, published.version);
    to_body(&published_info(&published, &budget))
}

fn handle_list(state: &ServerState) -> Result<String, ServeError> {
    let infos: Vec<Value> = state
        .registry
        .list_with_budgets()
        .iter()
        .map(|(p, b)| published_info(p, b))
        .collect();
    to_body(&Value::Object(vec![(
        "synopses".to_string(),
        Value::Array(infos),
    )]))
}

fn handle_info(state: &ServerState, name: &str) -> Result<String, ServeError> {
    let (published, budget) = state
        .registry
        .get_with_budget(name)
        .ok_or_else(|| ServeError::UnknownSynopsis(name.to_string()))?;
    to_body(&published_info(&published, &budget))
}

fn parse_json_body(request: &Request) -> Result<Value, ServeError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| ServeError::BadRequest(format!("body is not JSON: {e}")))
}

fn coords_array(value: &Value, what: &str) -> Result<Vec<f64>, ServeError> {
    let items = value
        .as_array()
        .ok_or_else(|| ServeError::BadRequest(format!("{what} must be an array of numbers")))?;
    items
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| ServeError::BadRequest(format!("{what} must contain only numbers")))
        })
        .collect()
}

/// Parses a wire rectangle (all minima, then all maxima) against the
/// synopsis' compile-time dimension.
fn parse_rect<const D: usize>(coords: &[f64]) -> Result<Rect<D>, ServeError> {
    if coords.len() != 2 * D {
        return Err(ServeError::BadRequest(format!(
            "rect must have {} numbers for a {D}-dimensional synopsis (minima then maxima), got {}",
            2 * D,
            coords.len()
        )));
    }
    if coords.iter().any(|c| !c.is_finite()) {
        return Err(ServeError::BadRequest(
            "rect coordinates must be finite".into(),
        ));
    }
    let mut min = [0.0; D];
    let mut max = [0.0; D];
    min.copy_from_slice(&coords[..D]);
    max.copy_from_slice(&coords[D..]);
    Rect::from_corners(min, max).map_err(|e| ServeError::BadRequest(format!("invalid rect: {e}")))
}

/// The one cache read-through, for a single query and a batch alike:
/// probe every rect, answer the misses with one sharded
/// `query_batch_parallel` call (a loop of single descents per shard;
/// one miss runs the plain `query`), then insert the misses in order. A
/// rect repeated within one batch misses on every occurrence and its
/// later insert refreshes the earlier one. Because `query_batch` is
/// bit-identical to single queries, the spliced vector equals
/// `synopsis.query_batch(rects)` bit for bit, whether an answer came
/// from the cache or not.
fn answer_many<const D: usize>(
    synopsis: &ReleasedSynopsis<D>,
    published: &PublishedSynopsis,
    cache: &ShardedCache,
    rects: &[Rect<D>],
    par: Parallelism,
) -> (Vec<f64>, u64) {
    let mut answers = vec![0.0f64; rects.len()];
    let mut miss_indices = Vec::new();
    let mut misses = Vec::new();
    let mut hits = 0u64;
    for (i, rect) in rects.iter().enumerate() {
        let key = CacheKey::new(&published.name, published.version, rect);
        match cache.get(&key) {
            Some(hit) => {
                answers[i] = hit;
                hits += 1;
            }
            None => {
                miss_indices.push(i);
                misses.push(*rect);
            }
        }
    }
    let computed = synopsis.query_batch_parallel(&misses, par);
    for (&i, answer) in miss_indices.iter().zip(computed) {
        answers[i] = answer;
        cache.insert(
            CacheKey::new(&published.name, published.version, &rects[i]),
            answer,
        );
    }
    (answers, hits)
}

fn lookup(state: &ServerState, name: &str) -> Result<Arc<PublishedSynopsis>, ServeError> {
    state
        .registry
        .get(name)
        .ok_or_else(|| ServeError::UnknownSynopsis(name.to_string()))
}

// The query handlers resolve the name before they parse the body, so a
// request to an unknown synopsis costs no body parse.
fn handle_query(state: &ServerState, name: &str, request: &Request) -> Result<String, ServeError> {
    let published = lookup(state, name)?;
    let body = parse_json_body(request)?;
    let rect_value = body
        .get("rect")
        .ok_or_else(|| ServeError::BadRequest("body must have a `rect` field".into()))?;
    let coords = coords_array(rect_value, "rect")?;
    let (estimate, cached) = with_synopsis!(&published.synopsis, s => {
        let rect = parse_rect(&coords)?;
        let par = state.config.parallelism;
        let (answers, hits) = answer_many(s, &published, &state.cache, &[rect], par);
        (answers[0], hits == 1)
    });
    to_body(&Value::Object(vec![
        ("name".to_string(), Value::String(published.name.clone())),
        (
            "version".to_string(),
            Value::Number(published.version as f64),
        ),
        ("estimate".to_string(), Value::Number(estimate)),
        ("cached".to_string(), Value::Bool(cached)),
    ]))
}

fn handle_batch(state: &ServerState, name: &str, request: &Request) -> Result<String, ServeError> {
    let published = lookup(state, name)?;
    let body = parse_json_body(request)?;
    let rects_value = body
        .get("rects")
        .ok_or_else(|| ServeError::BadRequest("body must have a `rects` field".into()))?;
    let wire_rects = rects_value
        .as_array()
        .ok_or_else(|| ServeError::BadRequest("`rects` must be an array of rects".into()))?;
    if wire_rects.len() > state.config.max_batch {
        return Err(ServeError::TooLarge(format!(
            "batch of {} rects exceeds the {}-rect limit",
            wire_rects.len(),
            state.config.max_batch
        )));
    }
    let (answers, cache_hits) = with_synopsis!(&published.synopsis, s => {
        let mut rects = Vec::with_capacity(wire_rects.len());
        for w in wire_rects {
            rects.push(parse_rect(&coords_array(w, "rects[i]")?)?);
        }
        answer_many(s, &published, &state.cache, &rects, state.config.parallelism)
    });
    to_body(&Value::Object(vec![
        ("name".to_string(), Value::String(published.name.clone())),
        (
            "version".to_string(),
            Value::Number(published.version as f64),
        ),
        (
            "answers".to_string(),
            Value::Array(answers.into_iter().map(Value::Number).collect()),
        ),
        ("cache_hits".to_string(), Value::Number(cache_hits as f64)),
    ]))
}

fn handle_stream_create(
    state: &ServerState,
    name: &str,
    request: &Request,
) -> Result<String, ServeError> {
    let body = parse_json_body(request)?;
    let spec = StreamSpec::from_value(&body)?;
    state.streams.create(name, &spec, &state.registry)?;
    state.streams.info(name).and_then(|v| to_body(&v))
}

/// The response body for one ingest request.
fn ingest_report_value(name: &str, report: &IngestReport) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::String(name.to_string())),
        (
            "absorbed".to_string(),
            Value::Number(report.absorbed as f64),
        ),
        (
            "total_points".to_string(),
            Value::Number(report.total_points as f64),
        ),
        (
            "epochs_released".to_string(),
            Value::Number(report.epochs_released as f64),
        ),
        ("dropped".to_string(), Value::Number(report.dropped as f64)),
        (
            "epsilon_spent".to_string(),
            Value::Number(report.epsilon_spent),
        ),
        (
            "releases".to_string(),
            Value::Array(
                report
                    .releases
                    .iter()
                    .map(|r| {
                        Value::Object(vec![
                            ("epoch".to_string(), Value::Number(r.epoch as f64)),
                            ("version".to_string(), Value::Number(r.version as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn handle_ingest(state: &ServerState, name: &str, request: &Request) -> Result<String, ServeError> {
    state.streams.ensure_exists(name)?;
    let body = parse_json_body(request)?;
    let points_value = body
        .get("points")
        .ok_or_else(|| ServeError::BadRequest("body must have a `points` field".into()))?;
    let wire_points = points_value
        .as_array()
        .ok_or_else(|| ServeError::BadRequest("`points` must be an array of points".into()))?;
    let mut points = Vec::with_capacity(wire_points.len());
    for p in wire_points {
        points.push(coords_array(p, "points[i]")?);
    }
    // Optional parallel per-point user ids, required by user-capped
    // streams (the manager enforces presence and length).
    let users = match body.get("users") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let items = v.as_array().ok_or_else(|| {
                ServeError::BadRequest("`users` must be an array of non-negative integers".into())
            })?;
            let ids = items
                .iter()
                .map(|u| {
                    u.as_u64().ok_or_else(|| {
                        ServeError::BadRequest(
                            "`users` must contain only non-negative integers".into(),
                        )
                    })
                })
                .collect::<Result<Vec<u64>, _>>()?;
            Some(ids)
        }
    };
    let report = state.streams.ingest(
        name,
        &points,
        users.as_deref(),
        &state.registry,
        &state.cache,
    )?;
    to_body(&ingest_report_value(name, &report))
}

fn handle_stats(state: &ServerState) -> Result<String, ServeError> {
    let cache = state.cache.stats();
    let registry: Vec<Value> = state
        .registry
        .list_with_budgets()
        .iter()
        .map(|(p, b)| published_info(p, b))
        .collect();
    to_body(&Value::Object(vec![
        ("registry".to_string(), Value::Array(registry)),
        ("streams".to_string(), state.streams.stats_value()),
        (
            "cache".to_string(),
            Value::Object(vec![
                ("enabled".to_string(), Value::Bool(state.cache.enabled())),
                ("capacity".to_string(), Value::Number(cache.capacity as f64)),
                ("entries".to_string(), Value::Number(cache.entries as f64)),
                ("hits".to_string(), Value::Number(cache.hits as f64)),
                ("misses".to_string(), Value::Number(cache.misses as f64)),
                ("hit_rate".to_string(), Value::Number(cache.hit_rate())),
            ]),
        ),
        ("endpoints".to_string(), state.metrics.to_value()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.cache_capacity > 0);
        assert!(c.max_body_bytes >= 1 << 20);
        assert!(c.max_batch >= 1000);
    }

    #[test]
    fn query_params_parse_from_the_target() {
        assert_eq!(
            query_param("/synopses/t?budget_cap=2.5", "budget_cap"),
            Some("2.5")
        );
        assert_eq!(
            query_param("/synopses/t?a=1&budget_cap=0.75&b=2", "budget_cap"),
            Some("0.75")
        );
        assert_eq!(query_param("/synopses/t", "budget_cap"), None);
        assert_eq!(query_param("/synopses/t?other=1", "budget_cap"), None);
        assert_eq!(query_param("/synopses/t?budget_cap", "budget_cap"), None);
    }

    #[test]
    fn budget_values_render_null_for_uncapped() {
        let uncapped = TenantBudget {
            cap: None,
            spent: 1.5,
            remaining: None,
        };
        assert_eq!(
            serde_json::to_string(&budget_value(&uncapped)).unwrap(),
            r#"{"cap":null,"spent":1.5,"remaining":null}"#
        );
        let capped = TenantBudget {
            cap: Some(2.0),
            spent: 1.5,
            remaining: Some(0.5),
        };
        assert_eq!(
            serde_json::to_string(&budget_value(&capped)).unwrap(),
            r#"{"cap":2.0,"spent":1.5,"remaining":0.5}"#
        );
    }

    #[test]
    fn parse_rect_validates_dimension_and_geometry() {
        assert!(parse_rect::<2>(&[0.0, 0.0, 1.0, 1.0]).is_ok());
        assert!(parse_rect::<2>(&[0.0, 0.0, 1.0]).is_err());
        assert!(parse_rect::<2>(&[0.0, 0.0, f64::NAN, 1.0]).is_err());
        assert!(parse_rect::<2>(&[2.0, 0.0, 1.0, 1.0]).is_err(), "inverted");
        assert!(parse_rect::<3>(&[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]).is_ok());
    }
}
