//! The workloads, their set-up, the correctness gates and the metrics.

use crate::inputs::{derive, Body, Inputs, Scale};
use crate::speed::{Follows, Monitor, Span, Speed};
use crate::stats::{block_percentile, median, now, percentile, quiet_pool, us};
use crate::trace::{per_op, Layer, Op, Replay};
use crate::Workload;
use dpsd_core::exec::Parallelism;
use dpsd_core::flat::FlatSynopsis;
use dpsd_core::stream::{batch_config_for, EpsilonSchedule, StreamConfig};
use dpsd_core::synopsis::SpatialSynopsis;
use dpsd_core::tree::{PsdConfig, ReleasedSynopsis};
use dpsd_data::TIGER_DOMAIN;
use dpsd_serve::cache::{CacheKey, ShardedCache};
use dpsd_serve::client::{Client, Response};
use dpsd_serve::registry::AnySynopsis;
use dpsd_serve::server::{ServeConfig, Server, ServerHandle};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Privacy budget of the served and JSON-published synopses.
const EPSILON: f64 = 0.5;
/// Height of the served kd-hybrid synopsis: 87,381 nodes.
const HEIGHT: usize = 8;
/// Height of the artifact published as JSON. Today's JSON parser is
/// quadratic: an h=7 publish takes seconds, an h=6 one under one.
const JSON_HEIGHT: usize = 6;
/// The windowed stream: quadtree height, window in epochs, points per
/// epoch, per-epoch epsilon and lifetime cap. An epoch is 1.5 ingest
/// requests, so boundaries fall mid-request.
const STREAM_HEIGHT: usize = 6;
const STREAM_WINDOW: u64 = 3;
const EPOCH_POINTS: u64 = 6_000;
const STREAM_EPSILON: f64 = 0.1;
const STREAM_BUDGET: f64 = 1_000.0;
/// Per write_mix round: hotspot batches after the hot swap. The first
/// few batches after a swap miss on the rects they are first to draw;
/// at 1,000 batches per round they stay under 1% of each 1,000-batch
/// block, so `query_p99_us` is the tail of cache hits, not of how many
/// of them a block happens to hold.
const HOT_BATCHES_PER_ROUND: usize = 1_000;
/// Per owner round: ingest requests, and JSON publishes of one
/// artifact.
const INGESTS_PER_ROUND: usize = 6;
const JSON_PER_ROUND: usize = 1;

/// Fixed operation counts per second of `--seconds`, measured on a
/// 2-vCPU Xeon VM with the process pinned to one CPU, so that a run
/// measures about `--seconds`. The counts, not the clock, end a run:
/// the same seed and seconds always do the same work.
const COLD_QUERIES_PER_S: u64 = 350;
const WRITE_ROUNDS_PER_MIN: u64 = 40;

/// Queries queued before the traced run replays them.
const REPLAY_BLOCK: usize = 64;

/// The synopsis the analysts query.
const LIVE: &str = "live";
/// Where the owner republishes in query_cold, so its queries keep
/// hitting one version of `live`.
const STAGED: &str = "staged";
const OVERVIEW: &str = "overview";
const FLOW: &str = "flow";

/// What to run.
#[derive(Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Sets the operation counts (see above).
    pub seconds: u64,
    /// Replay every operation through the layers and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// A fault planted in one received reply, to show the gates trip.
    pub fault: Option<Fault>,
    /// Where the traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// A fault planted in the tenth timed reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip the lowest bit of its first answer.
    CorruptAnswer,
    /// Record it as answered by the version before the live one.
    StaleVersion,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// The result of a run.
pub struct Outcome {
    /// Every gate passed, no operation failed, every metric has a value.
    pub correct: bool,
    /// Wire operations attempted.
    pub attempted: u64,
    /// Wire operations failed: non-200, wrong version, wrong answer.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Report lines printed above the metrics.
    pub notes: Vec<String>,
    /// The first gate failures.
    pub errors: Vec<String>,
}

/// The served synopsis' build configuration for a build seed.
fn served_config(seed: u64) -> PsdConfig<2> {
    PsdConfig::kd_hybrid(TIGER_DOMAIN, HEIGHT, EPSILON, HEIGHT / 2).with_seed(seed)
}

/// The windowed stream's configuration (the server builds the same
/// from the creation body).
fn stream_config(seed: u64) -> StreamConfig<2> {
    StreamConfig::new(
        TIGER_DOMAIN,
        STREAM_HEIGHT,
        EpsilonSchedule::Fixed {
            epsilon: STREAM_EPSILON,
        },
        STREAM_BUDGET,
        // JSON carries integers exactly only below 2^53.
        derive(seed, 300) >> 11,
    )
    .with_window(STREAM_WINDOW)
}

fn stream_body(config: &StreamConfig<2>) -> Result<String, String> {
    let d = &config.domain;
    let num = Value::Number;
    let spec = Value::Object(vec![
        ("dims".into(), num(2.0)),
        (
            "domain".into(),
            Value::Array(vec![
                num(d.min[0]),
                num(d.min[1]),
                num(d.max[0]),
                num(d.max[1]),
            ]),
        ),
        ("height".into(), num(config.height as f64)),
        ("seed".into(), num(config.seed as f64)),
        ("epoch_points".into(), num(EPOCH_POINTS as f64)),
        (
            "schedule".into(),
            Value::Object(vec![
                ("kind".into(), Value::String("fixed".into())),
                ("epsilon".into(), num(STREAM_EPSILON)),
            ]),
        ),
        ("budget_cap".into(), num(STREAM_BUDGET)),
        ("window".into(), num(STREAM_WINDOW as f64)),
    ]);
    serde_json::to_string(&spec).map_err(|e| format!("stream spec: {e}"))
}

/// The bytes `Client::request_bytes` writes for a POST.
fn request_bytes(path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nhost: dpsd-serve\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// FNV-1a over the answers' bit patterns.
fn digest(answers: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in answers {
        for byte in a.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn answers_of(reply: &Value) -> Option<Vec<f64>> {
    reply
        .get("answers")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn ok_json(response: &Response) -> Option<Value> {
    (response.status == 200)
        .then(|| response.json().ok())
        .flatten()
}

fn version_of(reply: &Option<Value>) -> u64 {
    reply
        .as_ref()
        .and_then(|v| v.get("version"))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[derive(Clone, Copy)]
enum BodyRef {
    Window(usize),
    Warmup(usize),
}

/// What the server's cache saw, in order: the input of the cache gate.
enum Event {
    Query {
        body: BodyRef,
        version: u64,
        digest: Option<u64>,
    },
    Purge(&'static str, u64),
}

/// One server lifetime: set-up, the timed operations and the gates.
struct Pass<'a> {
    opts: &'a Options,
    inputs: &'a Inputs,
    // Dropped before the server handle, so the connection closes first.
    client: Client,
    _server: ServerHandle,
    replay: Option<Replay>,
    pending: Vec<(Op, Vec<u8>, String)>,
    measuring: bool,
    /// Latest version and bytes of each name published as dpsd-bin.
    hosted: BTreeMap<&'static str, (u64, Vec<u8>)>,
    /// The name the owner's rounds republish.
    owner: &'static str,
    overview_version: u64,
    last_json: Option<String>,
    releases: Vec<(u64, u64)>,
    ingested: Vec<usize>,
    expected: BTreeMap<u64, Vec<f64>>,
    queried: BTreeSet<u64>,
    events: Vec<Event>,
    body_cursor: usize,
    ingest_cursor: usize,
    latencies_us: Vec<f64>,
    /// Rects and interval of each timed batch, beside `latencies_us`.
    batch_rects: Vec<usize>,
    batch_spans: Vec<Span>,
    builds: Vec<Span>,
    publishes_bin: Vec<Span>,
    publishes_json: Vec<Span>,
    ingest_points: u64,
    ingests: Vec<Span>,
    /// Median relative error of each release of the served
    /// configuration published in the timed work.
    rel_errs: Vec<f64>,
    window_entries: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl<'a> Pass<'a> {
    /// Set-up: generate points, build, encode, spawn the server,
    /// publish as dpsd-bin, create the stream, warm up.
    fn setup(
        opts: &'a Options,
        inputs: &'a Inputs,
        trace: bool,
    ) -> Result<(Pass<'a>, Span), String> {
        let started = now();
        let points = dpsd_data::tiger_substitute(opts.scale.points, opts.seed);
        let build_start = now();
        let release = served_config(derive(opts.seed, 100))
            .build(&points)
            .map_err(|e| format!("build: {e}"))?
            .release();
        let build = (build_start, now());
        drop(points);
        let config = ServeConfig {
            parallelism: Parallelism::Sequential,
            ..ServeConfig::default()
        };
        let replay = if trace {
            Some(Replay::new(
                config.cache_capacity,
                config.max_body_bytes,
                stream_config(opts.seed),
                EPOCH_POINTS,
            )?)
        } else {
            None
        };
        let server = Server::bind("127.0.0.1:0", config)
            .and_then(Server::spawn)
            .map_err(io("spawn"))?;
        let client = Client::connect(server.addr()).map_err(io("connect"))?;
        let mut pass = Pass {
            opts,
            inputs,
            client,
            _server: server,
            replay,
            pending: Vec::new(),
            measuring: false,
            hosted: BTreeMap::new(),
            owner: if opts.workload == Workload::WriteMix {
                LIVE
            } else {
                STAGED
            },
            overview_version: 0,
            last_json: None,
            releases: Vec::new(),
            ingested: Vec::new(),
            expected: BTreeMap::new(),
            queried: BTreeSet::new(),
            events: Vec::new(),
            body_cursor: 0,
            ingest_cursor: 0,
            latencies_us: Vec::new(),
            batch_rects: Vec::new(),
            batch_spans: Vec::new(),
            // The set-up build is the same operation as a round's.
            builds: vec![build],
            publishes_bin: Vec::new(),
            publishes_json: Vec::new(),
            ingest_points: 0,
            ingests: Vec::new(),
            rel_errs: Vec::new(),
            window_entries: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        pass.publish_bin(LIVE, &release, None)?;
        let created = pass
            .client
            .post(
                "/synopses/flow/stream",
                &stream_body(&stream_config(opts.seed))?,
            )
            .map_err(io("stream"))?;
        pass.attempted += 1;
        if created.status != 200 {
            pass.fail(format!("stream create: status {}", created.status));
        }
        for i in 0..inputs.warmup.len() {
            pass.query(BodyRef::Warmup(i))?;
        }
        pass.flush_replay();
        Ok((pass, (started, now())))
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    fn body(&self, r: BodyRef) -> &'a Body {
        match r {
            BodyRef::Window(i) => &self.inputs.bodies[i],
            BodyRef::Warmup(i) => &self.inputs.warmup[i],
        }
    }

    fn next_body(&mut self) -> BodyRef {
        let i = self.body_cursor % self.inputs.bodies.len();
        self.body_cursor += 1;
        BodyRef::Window(i)
    }

    /// One batch query, timed from send until the reply is parsed.
    fn query(&mut self, r: BodyRef) -> Result<(), String> {
        const PATH: &str = "/synopses/live/query/batch";
        let body = self.body(r);
        let start = now();
        let response = self
            .client
            .post_bytes(PATH, &body.bytes)
            .map_err(io("query"))?;
        let reply = ok_json(&response);
        let end = now();
        self.attempted += 1;
        let mut version = version_of(&reply);
        let mut answers = reply.as_ref().and_then(answers_of);
        if self.measuring {
            self.latencies_us.push(us(end - start));
            self.batch_rects.push(body.rects.len());
            self.batch_spans.push((start, end));
            if self.latencies_us.len() == 10 {
                match self.opts.fault {
                    Some(Fault::CorruptAnswer) => {
                        if let Some(a) = answers.as_mut().and_then(|a| a.first_mut()) {
                            *a = f64::from_bits(a.to_bits() ^ 1);
                        }
                    }
                    Some(Fault::StaleVersion) => version = version.saturating_sub(1),
                    None => {}
                }
            }
        }
        let digest = answers
            .filter(|a| a.len() == body.rects.len())
            .map(|a| digest(&a));
        if digest.is_none() {
            self.fail(format!("query: status {}", response.status));
        }
        // Publishes finish before their 200 and the client waits for
        // each reply, so every answer must come from the latest version.
        let live = self.hosted(LIVE).0;
        if digest.is_some() && version != live {
            self.fail(format!(
                "query: answered by version {version} where {live} is live"
            ));
        }
        self.queried.insert(version);
        self.events.push(Event::Query {
            body: r,
            version,
            digest,
        });
        if let Some(replay) = self.replay.as_mut() {
            replay.tracer.warmup = !self.measuring;
            let op = replay.tracer.root(Layer::OpQuery, start, end);
            if response.status == 200 {
                self.pending
                    .push((op, request_bytes(PATH, &body.bytes), response.body));
            }
            if self.pending.len() >= REPLAY_BLOCK {
                self.flush_replay();
            }
        }
        Ok(())
    }

    /// Replays the queued queries in order. Queries are replayed in
    /// blocks, not one by one, so that socket calls run back to back as
    /// in the untraced run and the replay runs warm, as a server does.
    fn flush_replay(&mut self) {
        let Some(replay) = self.replay.as_mut() else {
            return;
        };
        let mut failures = Vec::new();
        for (op, raw, response) in self.pending.drain(..) {
            if let Err(e) = replay.query(op, LIVE, &raw, &response) {
                failures.push(e);
            }
        }
        for e in failures {
            self.fail(e);
        }
    }

    /// Checks a publish reply mints version `expected`; returns it.
    fn check_version(&mut self, what: &str, response: &Response, expected: u64) -> u64 {
        let version = version_of(&ok_json(response));
        if version != expected {
            self.fail(format!(
                "{what}: status {}, version {version} where {expected} was due",
                response.status
            ));
        }
        expected
    }

    /// The latest version and bytes published under `name`.
    fn hosted(&self, name: &str) -> (u64, &[u8]) {
        self.hosted.get(name).map_or((0, &[]), |(v, b)| (*v, b))
    }

    /// `to_flat_bytes` plus the publish POST, then the hot swap.
    fn publish_bin(
        &mut self,
        name: &'static str,
        release: &ReleasedSynopsis<2>,
        replayed: Option<ReleasedSynopsis<2>>,
    ) -> Result<(), String> {
        let start = now();
        let bytes = release.to_flat_bytes();
        let response = self
            .client
            .post_bytes(&format!("/synopses/{name}"), &bytes)
            .map_err(io("publish"))?;
        let end = now();
        self.attempted += 1;
        let version = self.check_version("publish dpsd-bin", &response, self.hosted(name).0 + 1);
        if self.measuring {
            self.publishes_bin.push((start, end));
        }
        self.events.push(Event::Purge(name, version));
        if let Some(replay) = self.replay.as_mut() {
            replay.tracer.warmup = !self.measuring;
            let replayed_version = match replayed {
                Some(own) => {
                    let op = replay.tracer.root(Layer::OpPublishBin, start, end);
                    replay.publish_bin(op, name, &bytes, &own)
                }
                None => replay.install(name, &bytes),
            };
            match replayed_version {
                Ok(v) if v == version => {}
                Ok(v) => self.fail(format!("replay minted version {v}, server {version}")),
                Err(e) => self.fail(e),
            }
        }
        self.hosted.insert(name, (version, bytes));
        Ok(())
    }

    /// Expected answers of the pool under the live version, from a
    /// `FlatSynopsis` loaded directly from the published bytes. Runs
    /// between operations, never inside a timed one.
    fn settle_expected(&mut self) -> Result<(), String> {
        let (v, bytes) = self.hosted(LIVE);
        if self.queried.contains(&v) && !self.expected.contains_key(&v) {
            let flat = FlatSynopsis::<2>::from_bytes(bytes).map_err(|e| format!("decode: {e}"))?;
            let answers = flat.query_batch(&self.inputs.pool);
            self.expected.insert(v, answers);
        }
        Ok(())
    }

    /// One round of the data owner and the stream producer: rebuild,
    /// publish (a hot swap of `live` in write_mix), `queries` hotspot
    /// batches, ingest, and `json` JSON publishes.
    fn owner_round(&mut self, round: u64, queries: usize, json: usize) -> Result<(), String> {
        self.flush_replay();
        self.settle_expected()?;
        let config = served_config(derive(self.opts.seed, 100 + round));
        let points = &self.inputs.points;
        let start = now();
        let release = config
            .build(points)
            .map_err(|e| format!("build: {e}"))?
            .release();
        let end = now();
        self.builds.push((start, end));
        let replayed = match self.replay.as_mut() {
            Some(replay) => {
                replay.tracer.warmup = false;
                let op = replay.tracer.root(Layer::OpBuild, start, end);
                Some(replay.build(op, &config, points)?)
            }
            None => None,
        };
        self.publish_bin(self.owner, &release, replayed)?;
        drop(release);
        if queries > 0 {
            for _ in 0..queries {
                let r = self.next_body();
                self.query(r)?;
            }
            self.flush_replay();
        }
        for _ in 0..INGESTS_PER_ROUND {
            self.ingest()?;
        }
        if json > 0 {
            self.publish_json(round, json)?;
        }
        self.accuracy(self.owner)
    }

    /// One ingest POST; epoch boundaries it crosses release and publish.
    fn ingest(&mut self) -> Result<(), String> {
        let j = self.ingest_cursor % self.inputs.ingest.len();
        self.ingest_cursor += 1;
        let body = &self.inputs.ingest[j];
        let start = now();
        let response = self
            .client
            .post_bytes("/synopses/flow/ingest", &body.bytes)
            .map_err(io("ingest"))?;
        let end = now();
        self.attempted += 1;
        self.ingested.push(j);
        self.ingests.push((start, end));
        self.ingest_points += body.points.len() as u64;
        let reply = ok_json(&response);
        let released: Vec<(u64, u64)> = reply
            .as_ref()
            .and_then(|v| v.get("releases"))
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|r| {
                let field = |k| r.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
                (field("epoch"), field("version"))
            })
            .collect();
        if reply.is_none() {
            self.fail(format!("ingest: status {}", response.status));
        }
        for &(epoch, version) in &released {
            let n = self.releases.len() as u64;
            if (epoch, version) != (n, n + 1) {
                self.fail(format!(
                    "stream release {epoch} as version {version}: due {n} as {}",
                    n + 1
                ));
            }
            self.releases.push((epoch, version));
            self.events.push(Event::Purge(FLOW, version));
        }
        if let Some(replay) = self.replay.as_mut() {
            let op = replay.tracer.root(Layer::OpIngest, start, end);
            match replay.ingest(op, FLOW, &body.bytes) {
                Ok(replayed) if replayed == released => {}
                Ok(_) => self.fail("replayed stream releases differ from the server's".into()),
                Err(e) => self.fail(e),
            }
        }
        Ok(())
    }

    /// `to_json_string` plus the publish POST of an h=6 artifact,
    /// `times` times; each publish mints a version.
    fn publish_json(&mut self, round: u64, times: usize) -> Result<(), String> {
        let overview = PsdConfig::quadtree(TIGER_DOMAIN, JSON_HEIGHT, EPSILON)
            .with_seed(derive(self.opts.seed, 200 + round))
            .build(&self.inputs.points)
            .map_err(|e| format!("build: {e}"))?
            .release();
        for _ in 0..times {
            let start = now();
            let text = overview.to_json_string();
            let response = self
                .client
                .post("/synopses/overview", &text)
                .map_err(io("publish"))?;
            let end = now();
            self.attempted += 1;
            self.overview_version =
                self.check_version("publish JSON", &response, self.overview_version + 1);
            self.publishes_json.push((start, end));
            self.events
                .push(Event::Purge(OVERVIEW, self.overview_version));
            if let Some(replay) = self.replay.as_mut() {
                let op = replay.tracer.root(Layer::OpPublishJson, start, end);
                if let Err(e) = replay.publish_json(op, &overview, &text) {
                    self.fail(e);
                }
            }
            self.last_json = Some(text);
        }
        Ok(())
    }

    /// Entries in the replay cache (traced runs only).
    fn cache_entries(&self) -> usize {
        self.replay.as_ref().map_or(0, |r| r.cache.stats().entries)
    }

    /// Median relative error over the accuracy rects of the synopsis
    /// last published under `name`, loaded directly from its bytes (the
    /// gates hold wire answers bit-identical to it). Runs between
    /// operations, never inside a timed one.
    fn accuracy(&mut self, name: &str) -> Result<(), String> {
        let flat = FlatSynopsis::<2>::from_bytes(self.hosted(name).1)
            .map_err(|e| format!("decode: {e}"))?;
        let errors: Vec<f64> = flat
            .query_batch(&self.inputs.accuracy)
            .iter()
            .zip(&self.inputs.exact)
            .map(|(&est, &exact)| dpsd_core::metrics::relative_error_pct(est, exact))
            .collect();
        self.rel_errs.push(median(&errors));
        Ok(())
    }

    /// The timed operations of the workload.
    fn window(&mut self) -> Result<(), String> {
        self.measuring = true;
        let seconds = self.opts.seconds;
        match self.opts.workload {
            Workload::QueryCold => {
                // The owner's rounds (on another name) run between
                // slices of the query loop, never during one, so the
                // query timings stay free of them while every metric
                // is sampled across the whole run.
                let rounds = self.opts.scale.owner_rounds as u64;
                let slice = seconds * COLD_QUERIES_PER_S / rounds;
                for round in 1..=rounds {
                    for _ in 0..slice {
                        let r = self.next_body();
                        self.query(r)?;
                    }
                    self.owner_round(round, 0, JSON_PER_ROUND)?;
                }
            }
            Workload::WriteMix => {
                for round in 1..=(seconds * WRITE_ROUNDS_PER_MIN / 60).max(1) {
                    self.owner_round(round, HOT_BATCHES_PER_ROUND, JSON_PER_ROUND)?;
                }
            }
        }
        self.flush_replay();
        self.window_entries = self.cache_entries();
        if self.owner != LIVE {
            self.accuracy(LIVE)?;
        }
        self.measuring = false;
        Ok(())
    }

    /// Cache counters a fresh cache reaches on the recorded sequence
    /// of lookups, inserts and purges.
    fn cache_model(&self) -> (u64, u64) {
        let cache = ShardedCache::new(ServeConfig::default().cache_capacity);
        for event in &self.events {
            match *event {
                Event::Query { body, version, .. } => {
                    let rects = &self.body(body).rects;
                    let misses: Vec<CacheKey> = rects
                        .iter()
                        .map(|&i| CacheKey::new(LIVE, version, &self.inputs.pool[i as usize]))
                        .filter(|key| cache.get(key).is_none())
                        .collect();
                    for key in misses {
                        cache.insert(key, 0.0);
                    }
                }
                Event::Purge(name, version) => cache.purge_stale(name, version),
            }
        }
        let stats = cache.stats();
        (stats.hits, stats.misses)
    }

    /// Probe answers of `name` on the wire.
    fn probe(&mut self, name: &str) -> Result<Option<(u64, Vec<f64>)>, String> {
        let response = self
            .client
            .post_bytes(
                &format!("/synopses/{name}/query/batch"),
                &self.inputs.probe.bytes,
            )
            .map_err(io("probe"))?;
        self.attempted += 1;
        let reply = ok_json(&response);
        let version = version_of(&reply);
        match reply.as_ref().and_then(answers_of) {
            Some(a) => Ok(Some((version, a))),
            None => {
                self.fail(format!("probe {name}: status {}", response.status));
                Ok(None)
            }
        }
    }

    fn check_probe(&mut self, name: &str, version: u64, direct: &[f64]) -> Result<(), String> {
        if let Some((v, wire)) = self.probe(name)? {
            if v != version || !same_bits(&wire, direct) {
                self.fail(format!(
                    "probe {name}: wire answers differ from the direct synopsis"
                ));
            }
        }
        Ok(())
    }

    /// The correctness gates, after every timed operation.
    fn gates(&mut self) -> Result<(), String> {
        self.settle_expected()?;
        // Every wire answer equals the direct synopsis of its version.
        let mut mismatched = 0;
        for event in &self.events {
            if let Event::Query {
                body,
                version,
                digest: got,
            } = *event
            {
                let want = self.expected.get(&version).map(|answers| {
                    let mine: Vec<f64> = self
                        .body(body)
                        .rects
                        .iter()
                        .map(|&i| answers[i as usize])
                        .collect();
                    digest(&mine)
                });
                if got.is_some() && got != want {
                    mismatched += 1;
                }
            }
        }
        for _ in 0..mismatched {
            self.fail(
                "a wire answer differs from the direct synopsis loaded from the same bytes".into(),
            );
        }
        // The server's cache counters equal the replayed cache's.
        let stats = self.client.get("/stats").map_err(io("stats"))?;
        self.attempted += 1;
        let reply = ok_json(&stats);
        let counter = |k: &str| {
            reply
                .as_ref()
                .and_then(|v| v.get("cache"))
                .and_then(|c| c.get(k))
                .and_then(Value::as_u64)
        };
        let served = (counter("hits"), counter("misses"));
        let replayed = match &self.replay {
            Some(replay) => {
                let s = replay.cache.stats();
                (s.hits, s.misses)
            }
            None => self.cache_model(),
        };
        if served != (Some(replayed.0), Some(replayed.1)) {
            self.fail(format!(
                "/stats cache hits, misses {served:?} but the replay counts {replayed:?}"
            ));
        }
        // Probes of every hosted synopsis against direct loads.
        let probe = &self.inputs.hot;
        for (name, (version, bytes)) in self.hosted.clone() {
            let direct =
                FlatSynopsis::<2>::from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
            self.check_probe(name, version, &direct.query_batch(probe))?;
        }
        if let Some(text) = self.last_json.take() {
            let loaded = ReleasedSynopsis::<2>::from_json_str(&text)
                .map_err(|e| format!("JSON load: {e}"))?;
            let direct = FlatSynopsis::from_released(&loaded).query_batch(probe);
            self.check_probe(OVERVIEW, self.overview_version, &direct)?;
        }
        if let Some(&(epoch, version)) = self.releases.last() {
            // The last release covers the in-window suffix of the
            // ingested points; a batch build over it must match.
            let stream: Vec<_> = self
                .ingested
                .iter()
                .flat_map(|&j| self.inputs.ingest[j].points.iter().copied())
                .collect();
            let end = ((epoch + 1) * EPOCH_POINTS) as usize;
            let start = ((epoch + 1).saturating_sub(STREAM_WINDOW) * EPOCH_POINTS) as usize;
            let reference = batch_config_for(&stream_config(self.opts.seed), epoch)
                .build(&stream[start..end])
                .map_err(|e| format!("stream reference: {e}"))?
                .release();
            let direct = FlatSynopsis::from_released(&reference).query_batch(probe);
            self.check_probe(FLOW, version, &direct)?;
        }
        Ok(())
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn cpu_note() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or("unknown", str::trim);
    let usable = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("cpus_allowed={allowed} usable_cpus={usable}")
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Median latency (µs) of the quiet pool of `latencies_us`, and its
/// sample count.
fn quiet_p50(latencies_us: &[f64]) -> (f64, usize) {
    let pool: Vec<f64> = quiet_pool(latencies_us)
        .into_iter()
        .map(|i| latencies_us[i])
        .collect();
    (percentile(&pool, 0.5), pool.len())
}

/// `pick` (a median or a minimum) of the spans' own times, scaled as
/// `follows` says, and of their times as measured, in units of `scale`
/// per second.
fn summarise(
    speed: &Speed,
    spans: &[Span],
    scale: f64,
    follows: Follows,
    pick: fn(&[f64]) -> f64,
) -> (f64, f64) {
    let scaled: Vec<f64> = spans
        .iter()
        .map(|&s| speed.scaled(s, follows) * scale)
        .collect();
    let raw: Vec<f64> = spans
        .iter()
        .map(|&(a, b)| (b - a).as_secs_f64() * scale)
        .collect();
    (pick(&scaled), pick(&raw))
}

fn minimum(values: &[f64]) -> f64 {
    percentile(values, 0.0)
}

/// The end-to-end metrics, each timing scaled for the host's speed as
/// its operation follows the reference (see `speed`), and report lines
/// with the host's speed and the same timings as measured.
fn end_to_end(pass: &Pass, setups: &[Span], speed: &Speed, notes: &mut Vec<String>) -> Vec<Metric> {
    // Batches a reference timing interrupted are left out.
    let (mut scaled, mut raw, mut rects) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &span) in pass.batch_spans.iter().enumerate() {
        if !speed.interrupted(span) {
            scaled.push(speed.scaled(span, Follows::SlowSpells) * 1e6);
            raw.push(pass.latencies_us[i]);
            rects.push(pass.batch_rects[i]);
        }
    }
    // The p50 and rects/s of the quiet pool of `latencies`, and its size.
    let quiet = |latencies: &[f64]| {
        let pool = quiet_pool(latencies);
        let picked: Vec<f64> = pool.iter().map(|&i| latencies[i]).collect();
        let answered: usize = pool.iter().map(|&i| rects[i]).sum();
        let busy_s = picked.iter().sum::<f64>() / 1e6;
        (
            percentile(&picked, 0.5),
            answered as f64 / busy_s,
            pool.len(),
        )
    };
    let (p50, rects_per_s, pooled) = quiet(&scaled);
    let (raw_p50, raw_rects_per_s, _) = quiet(&raw);
    // How each operation follows the reference, and which summary
    // of its timings varies least from run to run, were measured over
    // runs in every state of the host seen (README.md, Host speed).
    let (setup, setup_raw) = summarise(speed, setups, 1.0, Follows::SlowSpells, median);
    let (build, build_raw) = summarise(speed, &pass.builds, 1e3, Follows::SlowSpells, minimum);
    let (bin, bin_raw) = summarise(speed, &pass.publishes_bin, 1e3, Follows::No, median);
    let (json, json_raw) = summarise(speed, &pass.publishes_json, 1e3, Follows::Fully, median);
    let ingest_s: f64 = pass
        .ingests
        .iter()
        .map(|&s| speed.scaled(s, Follows::SlowSpells))
        .sum();
    let ingest_raw_s: f64 = pass
        .ingests
        .iter()
        .map(|&(a, b)| (b - a).as_secs_f64())
        .sum();
    let (median_us, min_us, max_us, n) = speed.summary();
    notes.push(format!(
        "host speed: reference {median_us:.1} us median over {n} timings (min {min_us:.1}, max {max_us:.1}); timings scale by {} us / the reference around them",
        crate::speed::REFERENCE_US
    ));
    notes.push(format!(
        "as measured: setup_s {setup_raw:.4} query_p50_us {:.1} query_p99_us {:.1} query_rects_per_s {:.0} build_ms {build_raw:.1} publish_bin_ms {bin_raw:.2} publish_json_ms {json_raw:.1} ingest_points_per_s {:.0}",
        raw_p50,
        block_percentile(&raw, 0.99),
        raw_rects_per_s,
        pass.ingest_points as f64 / ingest_raw_s,
    ));
    vec![
        metric("setup_s", setup, "s", setups.len()),
        metric("query_p50_us", p50, "us", pooled),
        metric(
            "query_p99_us",
            block_percentile(&scaled, 0.99),
            "us",
            scaled.len(),
        ),
        metric("query_rects_per_s", rects_per_s, "rects/s", pooled),
        metric(
            "rel_err_pct",
            median(&pass.rel_errs),
            "%",
            pass.rel_errs.len(),
        ),
        metric("build_ms", build, "ms", pass.builds.len()),
        metric("publish_bin_ms", bin, "ms", pass.publishes_bin.len()),
        metric("publish_json_ms", json, "ms", pass.publishes_json.len()),
        metric(
            "ingest_points_per_s",
            pass.ingest_points as f64 / ingest_s,
            "points/s",
            pass.ingests.len(),
        ),
        metric("peak_rss_mb", peak_rss_mib(), "MiB", 1),
    ]
}

/// Layers on the path of one batch query, in handler order.
const QUERY_PATH: [(Layer, &str); 9] = [
    (Layer::HttpRead, "http.read_request_us"),
    (Layer::JsonDecodeRequest, "json.decode_request_us"),
    (Layer::RegistryGet, "registry.get_us"),
    (Layer::CacheProbe, "cache.probe_us"),
    (Layer::FlatQueryBatch, "flat.query_batch_us"),
    (Layer::CacheInsert, "cache.insert_us"),
    (Layer::JsonEncodeResponse, "json.encode_response_us"),
    (Layer::HttpWriteResponse, "http.write_response_us"),
    (Layer::ClientDecode, "client.decode_response_us"),
];

fn per_layer(
    pass: &Pass,
    replay: &Replay,
    untraced_p50_us: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let ops = per_op(&replay.tracer);
    let values = |layer: Layer| -> Vec<f64> {
        ops.get(&layer)
            .map(|v| v.iter().map(|&(_, ns)| ns as f64).collect())
            .unwrap_or_default()
    };
    let p50 = |layer: Layer, scale: f64| -> (f64, usize) {
        let v = values(layer);
        (percentile(&v, 0.5) / scale, v.len())
    };
    let mut out = Vec::new();
    let mut path_sum = 0.0;
    // The query-path layers are summarised over one set of requests,
    // the quiet pool of their per-request totals, as the untraced
    // pass's p50 is over its socket timings (both as measured): their
    // sum and the residual then compare like with like.
    let path: Vec<BTreeMap<usize, u64>> = QUERY_PATH
        .iter()
        .map(|(layer, _)| ops.get(layer).into_iter().flatten().copied().collect())
        .collect();
    let requests: Vec<usize> = path[0]
        .keys()
        .copied()
        .filter(|r| path.iter().all(|m| m.contains_key(r)))
        .collect();
    let totals: Vec<f64> = requests
        .iter()
        .map(|r| path.iter().map(|m| m[r] as f64).sum())
        .collect();
    let pool = quiet_pool(&totals);
    for ((_, name), m) in QUERY_PATH.iter().zip(&path) {
        let picked: Vec<f64> = pool.iter().map(|&i| m[&requests[i]] as f64).collect();
        let v = percentile(&picked, 0.5) / 1e3;
        path_sum += v;
        out.push(metric(name, v, "us", picked.len()));
    }
    let cache = replay.cache.stats();
    out.push(metric(
        "cache.hit_ratio",
        cache.hit_rate(),
        "ratio",
        (cache.hits + cache.misses) as usize,
    ));
    let (kernel_ns, kernel_rects) = replay.kernel;
    out.push(metric(
        "flat.ns_per_rect",
        kernel_ns as f64 / kernel_rects as f64,
        "ns",
        kernel_rects as usize,
    ));
    out.push(metric(
        "flat.counts_per_rect",
        replay.counts_per_rect(),
        "count",
        replay.profiled_rects(),
    ));
    let measured = replay.wire_bytes.len();
    let bytes = |pick: fn(&(usize, usize)) -> usize| -> f64 {
        let v: Vec<f64> = replay.wire_bytes.iter().map(|b| pick(b) as f64).collect();
        percentile(&v, 0.5)
    };
    out.push(metric(
        "wire.request_bytes",
        bytes(|b| b.0),
        "bytes",
        measured,
    ));
    out.push(metric(
        "wire.response_bytes",
        bytes(|b| b.1),
        "bytes",
        measured,
    ));
    let residual = untraced_p50_us - path_sum;
    out.push(metric("socket.residual_us", residual, "us", 1));
    let roots = values(Layer::OpQuery);
    let (traced_p50, traced_n) = quiet_p50(&roots);
    let traced_p50 = traced_p50 / 1e3;
    out.push(metric(
        "trace.overhead_us",
        traced_p50 - untraced_p50_us,
        "us",
        traced_n,
    ));
    for (layer, name, unit, scale) in [
        (Layer::TreeBuild, "tree.build_ms", "ms", 1e6),
        (Layer::OlsPostprocess, "postprocess.ols_ms", "ms", 1e6),
        (Layer::FlatEncode, "flat.encode_ms", "ms", 1e6),
        (Layer::FlatDecode, "flat.decode_ms", "ms", 1e6),
    ] {
        let (v, n) = p50(layer, scale);
        out.push(metric(name, v, unit, n));
    }
    // The registry publish decodes inside; its self time subtracts the
    // decode of the same bytes timed just before.
    let decode: BTreeMap<usize, u64> = ops
        .get(&Layer::FlatDecode)
        .into_iter()
        .flatten()
        .copied()
        .collect();
    let publish_self: Vec<f64> = ops
        .get(&Layer::RegistryPublish)
        .into_iter()
        .flatten()
        .filter_map(|&(op, ns)| decode.get(&op).map(|&d| (ns as f64 - d as f64) / 1e6))
        .collect();
    out.push(metric(
        "registry.publish_ms",
        percentile(&publish_self, 0.5),
        "ms",
        publish_self.len(),
    ));
    for (layer, name, unit, scale) in [
        (Layer::CachePurge, "cache.purge_us", "us", 1e3),
        (
            Layer::JsonEncodeArtifact,
            "json.encode_artifact_ms",
            "ms",
            1e6,
        ),
        (
            Layer::JsonDecodeArtifact,
            "json.decode_artifact_ms",
            "ms",
            1e6,
        ),
        (Layer::JsonDecodeIngest, "json.decode_ingest_us", "us", 1e3),
    ] {
        let (v, n) = p50(layer, scale);
        out.push(metric(name, v, unit, n));
    }
    let absorb_ns: f64 = values(Layer::StreamAbsorb).iter().sum();
    out.push(metric(
        "stream.absorb_ns_per_point",
        absorb_ns / replay.absorbed as f64,
        "ns",
        replay.absorbed as usize,
    ));
    let (v, n) = p50(Layer::StreamRelease, 1e6);
    out.push(metric("stream.release_ms", v, "ms", n));
    let resident = match replay.registry.get(LIVE).as_deref().map(|p| &p.synopsis) {
        Some(AnySynopsis::D2(flat)) => flat.resident_bytes() as f64,
        _ => f64::NAN,
    };
    out.push(metric("flat.resident_bytes", resident, "bytes", 1));
    out.push(metric(
        "cache.entries",
        pass.window_entries as f64,
        "count",
        1,
    ));
    notes.push(format!(
        "query path, as measured: untraced quiet-pool p50 {untraced_p50_us:.1} us = layer p50 sum {path_sum:.1} + socket.residual_us {residual:.1}; traced root p50 {traced_p50:.1}, tracing overhead {:.1} us",
        traced_p50 - untraced_p50_us
    ));
    out
}

/// Runs one workload and returns its outcome; `Err` aborts the run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let inputs = Inputs::generate(opts.workload, opts.seed, &opts.scale)?;
    let mut notes = vec![cpu_note()];
    // The traced run does half the operations of an untraced one, in
    // each of its two passes, so that replaying every call keeps it
    // well inside three minutes.
    let half = Options {
        seconds: (opts.seconds / 2).max(1),
        scale: Scale {
            owner_rounds: opts.scale.owner_rounds.div_ceil(2),
            ..opts.scale
        },
        ..opts.clone()
    };
    let (pass, metrics) = if opts.trace {
        let (mut plain, _) = Pass::setup(&half, &inputs, false)?;
        plain.window()?;
        plain.gates()?;
        let (untraced_p50, _) = quiet_p50(&plain.latencies_us);
        let (attempted, failed, errors) = (
            plain.attempted,
            plain.failed,
            std::mem::take(&mut plain.errors),
        );
        drop(plain);
        let (mut traced, _) = Pass::setup(&half, &inputs, true)?;
        traced.window()?;
        traced.gates()?;
        traced.attempted += attempted;
        traced.failed += failed;
        traced.errors.splice(0..0, errors);
        let replay = traced
            .replay
            .as_ref()
            .ok_or("the traced pass has no replay")?;
        let metrics = per_layer(&traced, replay, untraced_p50, &mut notes);
        if let Some(path) = &opts.spans {
            replay.tracer.write_tsv(path).map_err(io("spans"))?;
            notes.push(format!(
                "spans: {} written to {}",
                replay.tracer.spans().len(),
                path.display()
            ));
        }
        (traced, metrics)
    } else {
        let monitor = Monitor::start();
        let mut setups = Vec::new();
        let mut builds = Vec::new();
        let mut last: Option<Pass> = None;
        let timed = (|| {
            for _ in 0..opts.scale.setups.max(1) {
                if let Some(previous) = last.take() {
                    builds.extend_from_slice(&previous.builds);
                }
                let (pass, took) = Pass::setup(opts, &inputs, false)?;
                setups.push(took);
                last = Some(pass);
            }
            let mut pass = last.ok_or("no set-up ran")?;
            pass.builds.extend(builds);
            pass.window()?;
            Ok::<_, String>(pass)
        })();
        // Stopped on every path, before the gates.
        let speed = monitor.finish()?;
        let mut pass = timed?;
        pass.gates()?;
        let metrics = end_to_end(&pass, &setups, &speed, &mut notes);
        (pass, metrics)
    };
    let live_version = pass.hosted(LIVE).0;
    let staged_version = pass.hosted(STAGED).0;
    notes.push(format!(
        "accuracy: rel_err_pct={} over {} releases of {} rects",
        median(&pass.rel_errs),
        pass.rel_errs.len(),
        inputs.accuracy.len()
    ));
    notes.push(format!(
        "versions: live={} staged={} overview={} stream_releases={} stream_epoch={}",
        live_version,
        staged_version,
        pass.overview_version,
        pass.releases.len(),
        pass.releases.last().map_or(-1, |&(e, _)| e as i64)
    ));
    let mut errors = pass.errors.clone();
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        errors.push(format!("{} has no value", m.name));
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
        notes,
        errors,
    })
}
