//! Spans and the in-process replay behind `--trace 1`.
//!
//! Every socket operation gets a root span. The replay then feeds the
//! same bytes through each layer's public calls, in the order the
//! server's handler makes them, against its own registry, cache and
//! stream ingestor; every call gets a child span of that root. Spans
//! stay in memory until the run ends.

use crate::stats::now;
use dpsd_core::flat::FlatSynopsis;
use dpsd_core::geometry::{Point, Rect};
use dpsd_core::postprocess::ols_postprocess;
use dpsd_core::stream::{StreamConfig, StreamIngestor};
use dpsd_core::synopsis::SpatialSynopsis;
use dpsd_core::tree::{PsdConfig, ReleasedSynopsis};
use dpsd_serve::cache::{CacheKey, ShardedCache};
use dpsd_serve::http;
use dpsd_serve::registry::{AnySynopsis, SynopsisRegistry};
use serde::Value;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// What a span timed: a socket operation (roots) or one public call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Root: one batch query, from send until the reply is parsed.
    OpQuery,
    /// Root: one rebuild of the release.
    OpBuild,
    /// Root: `to_flat_bytes` plus the publish POST.
    OpPublishBin,
    /// Root: `to_json_string` plus the publish POST.
    OpPublishJson,
    /// Root: one ingest POST.
    OpIngest,
    /// `http::read_request` on the request bytes.
    HttpRead,
    /// `serde_json::from_str` of the body plus `Rect::from_corners`.
    JsonDecodeRequest,
    /// `SynopsisRegistry::get`.
    RegistryGet,
    /// `ShardedCache::get`, once per rect.
    CacheProbe,
    /// `FlatSynopsis::query_batch` on the misses.
    FlatQueryBatch,
    /// `ShardedCache::insert`, once per miss.
    CacheInsert,
    /// `serde_json::to_string` of the answer object.
    JsonEncodeResponse,
    /// `http::write_response` into a buffer.
    HttpWriteResponse,
    /// `serde_json::from_str` of the reply, as the client parses it.
    ClientDecode,
    /// `PsdConfig::build` without post-processing.
    TreeBuild,
    /// `postprocess::ols_postprocess`.
    OlsPostprocess,
    /// `ReleasedSynopsis::to_flat_bytes`.
    FlatEncode,
    /// `FlatSynopsis::from_bytes`.
    FlatDecode,
    /// `SynopsisRegistry::publish` (decodes again inside).
    RegistryPublish,
    /// `ShardedCache::purge_stale`.
    CachePurge,
    /// `ReleasedSynopsis::to_json_string`.
    JsonEncodeArtifact,
    /// `serde_json::from_str` of a JSON artifact.
    JsonDecodeArtifact,
    /// `serde_json::from_str` of an ingest body.
    JsonDecodeIngest,
    /// `StreamIngestor::absorb_all`.
    StreamAbsorb,
    /// `StreamIngestor::release_epoch`.
    StreamRelease,
}

impl Layer {
    /// The span name written out.
    pub fn name(self) -> &'static str {
        match self {
            Layer::OpQuery => "op.query",
            Layer::OpBuild => "op.build",
            Layer::OpPublishBin => "op.publish_bin",
            Layer::OpPublishJson => "op.publish_json",
            Layer::OpIngest => "op.ingest",
            Layer::HttpRead => "http.read_request",
            Layer::JsonDecodeRequest => "json.decode_request",
            Layer::RegistryGet => "registry.get",
            Layer::CacheProbe => "cache.probe",
            Layer::FlatQueryBatch => "flat.query_batch",
            Layer::CacheInsert => "cache.insert",
            Layer::JsonEncodeResponse => "json.encode_response",
            Layer::HttpWriteResponse => "http.write_response",
            Layer::ClientDecode => "client.decode_response",
            Layer::TreeBuild => "tree.build",
            Layer::OlsPostprocess => "postprocess.ols",
            Layer::FlatEncode => "flat.encode",
            Layer::FlatDecode => "flat.decode",
            Layer::RegistryPublish => "registry.publish",
            Layer::CachePurge => "cache.purge",
            Layer::JsonEncodeArtifact => "json.encode_artifact",
            Layer::JsonDecodeArtifact => "json.decode_artifact",
            Layer::JsonDecodeIngest => "json.decode_ingest",
            Layer::StreamAbsorb => "stream.absorb",
            Layer::StreamRelease => "stream.release",
        }
    }
}

/// One timed interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based span id.
    pub id: usize,
    /// The root span's id; 0 for roots.
    pub parent: usize,
    /// The operation (request) id shared by a root and its children.
    pub request: usize,
    /// What was timed.
    pub layer: Layer,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Recorded during set-up or warm-up, so left out of the metrics.
    pub warmup: bool,
}

/// The root span of one operation, which its replayed calls hang off.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    request: usize,
    span: usize,
    warmup: bool,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    requests: usize,
    /// Whether new spans are set-up or warm-up spans.
    pub warmup: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: now(),
            spans: Vec::new(),
            requests: 0,
            warmup: true,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, parent: usize, op: Op, layer: Layer, start: Instant, end: Instant) -> usize {
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent,
            request: op.request,
            layer,
            start: self.ns(start),
            end: self.ns(end),
            warmup: op.warmup,
        });
        id
    }

    /// Records the root span of a new operation; it and its children
    /// are warm-up spans if the tracer's `warmup` flag is set now.
    pub fn root(&mut self, layer: Layer, start: Instant, end: Instant) -> Op {
        self.requests += 1;
        let mut op = Op {
            request: self.requests,
            span: 0,
            warmup: self.warmup,
        };
        op.span = self.push(0, op, layer, start, end);
        op
    }

    /// Runs `f` as a child span of `op`.
    pub fn time<T>(&mut self, op: Op, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = now();
        let out = f();
        let end = now();
        self.push(op.span, op, layer, start, end);
        out
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated text.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\twarmup")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.request,
                s.layer.name(),
                s.start,
                s.end,
                u8::from(s.warmup)
            )?;
        }
        out.flush()
    }
}

/// Rects whose `query_profiled` counts feed `flat.counts_per_rect`.
const PROFILED_RECTS: usize = 2_000;

/// The replay's own server-side state, fed the same inputs as the
/// server, so its cache hits, misses and evictions match exactly.
pub struct Replay {
    /// The span recorder.
    pub tracer: Tracer,
    /// The replay's registry.
    pub registry: SynopsisRegistry,
    /// The replay's cache, as large as the server's.
    pub cache: ShardedCache,
    stream: StreamIngestor<2>,
    epoch_points: u64,
    max_body: usize,
    /// Bytes of each replayed query request and response, in order.
    pub wire_bytes: Vec<(usize, usize)>,
    /// Kernel time (ns) and rects over the measured calls that had
    /// misses.
    pub kernel: (u64, u64),
    /// `query_profiled` counts (`total_contained + partial_leaves`)
    /// summed over the first rects the kernel answered, and their number.
    profiled: (u64, u64),
    /// Points passed to `absorb_all`.
    pub absorbed: u64,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("replay {what}: {e}")
}

/// Mirrors the server's batch body parse: JSON, then one validated
/// rect per entry.
fn decode_rects(body: &[u8]) -> Result<Vec<Rect>, String> {
    let text = std::str::from_utf8(body).map_err(|e| err("body", e))?;
    let value: Value = serde_json::from_str(text).map_err(|e| err("body", e))?;
    let wire = value
        .get("rects")
        .and_then(Value::as_array)
        .ok_or("replay body: no `rects` array")?;
    wire.iter()
        .map(|w| {
            let coords: Vec<f64> = w
                .as_array()
                .ok_or("replay body: rect is not an array")?
                .iter()
                .map(|c| c.as_f64().ok_or("replay body: coordinate is not a number"))
                .collect::<Result<_, _>>()?;
            if coords.len() != 4 || coords.iter().any(|c| !c.is_finite()) {
                return Err("replay body: bad rect".to_string());
            }
            Rect::from_corners([coords[0], coords[1]], [coords[2], coords[3]])
                .map_err(|e| err("rect", e))
        })
        .collect()
}

fn decode_points(body: &[u8]) -> Result<Vec<Point>, String> {
    let text = std::str::from_utf8(body).map_err(|e| err("ingest", e))?;
    let value: Value = serde_json::from_str(text).map_err(|e| err("ingest", e))?;
    let wire = value
        .get("points")
        .and_then(Value::as_array)
        .ok_or("replay ingest: no `points` array")?;
    wire.iter()
        .map(|p| match p.as_array() {
            Some([x, y]) => match (x.as_f64(), y.as_f64()) {
                (Some(x), Some(y)) => Ok(Point::new(x, y)),
                _ => Err("replay ingest: coordinate is not a number".to_string()),
            },
            _ => Err("replay ingest: point is not a pair".to_string()),
        })
        .collect()
}

impl Replay {
    /// A replay whose cache holds `cache_capacity` entries and whose
    /// stream is configured like the server's.
    pub fn new(
        cache_capacity: usize,
        max_body: usize,
        stream: StreamConfig<2>,
        epoch_points: u64,
    ) -> Result<Replay, String> {
        Ok(Replay {
            tracer: Tracer::new(),
            registry: SynopsisRegistry::new(),
            cache: ShardedCache::new(cache_capacity),
            stream: StreamIngestor::new(stream).map_err(|e| err("stream", e))?,
            epoch_points,
            max_body,
            wire_bytes: Vec::new(),
            kernel: (0, 0),
            profiled: (0, 0),
            absorbed: 0,
        })
    }

    /// Mean `query_profiled` count per rect over the first rects the
    /// kernel answered.
    pub fn counts_per_rect(&self) -> f64 {
        self.profiled.0 as f64 / self.profiled.1 as f64
    }

    /// Rects behind [`Replay::counts_per_rect`].
    pub fn profiled_rects(&self) -> usize {
        self.profiled.1 as usize
    }

    /// Publishes the set-up artifact without spans.
    pub fn install(&mut self, name: &str, bytes: &[u8]) -> Result<u64, String> {
        let (published, _) = self
            .registry
            .publish(name, bytes)
            .map_err(|e| err("publish", e))?;
        self.cache.purge_stale(name, published.version);
        Ok(published.version)
    }

    /// Replays one batch query as the server's handler runs it, and
    /// checks that the replayed response equals the one on the wire.
    pub fn query(
        &mut self,
        op: Op,
        name: &str,
        request: &[u8],
        response: &str,
    ) -> Result<(), String> {
        let max_body = self.max_body;
        let Replay {
            tracer,
            registry,
            cache,
            ..
        } = self;
        let parsed = tracer
            .time(op, Layer::HttpRead, || {
                http::read_request(&mut &request[..], max_body)
            })
            .map_err(|e| err("request", e))?
            .ok_or("replay request: empty")?;
        let rects = tracer.time(op, Layer::JsonDecodeRequest, || decode_rects(&parsed.body))?;
        let published = tracer
            .time(op, Layer::RegistryGet, || registry.get(name))
            .ok_or("replay: synopsis not published")?;
        let AnySynopsis::D2(flat) = &published.synopsis else {
            return Err("replay: synopsis is not planar".into());
        };
        let version = published.version;
        let (mut answers, miss_indices, misses, hits) = tracer.time(op, Layer::CacheProbe, || {
            let mut answers = vec![0.0f64; rects.len()];
            let mut miss_indices = Vec::new();
            let mut misses = Vec::new();
            let mut hits = 0u64;
            for (i, rect) in rects.iter().enumerate() {
                match cache.get(&CacheKey::new(name, version, rect)) {
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
            (answers, miss_indices, misses, hits)
        });
        let computed = tracer.time(op, Layer::FlatQueryBatch, || flat.query_batch(&misses));
        if !misses.is_empty() && !op.warmup {
            let s = tracer.spans[tracer.spans.len() - 1];
            self.kernel.0 += s.end - s.start;
            self.kernel.1 += misses.len() as u64;
        }
        tracer.time(op, Layer::CacheInsert, || {
            for (&i, &answer) in miss_indices.iter().zip(&computed) {
                answers[i] = answer;
                cache.insert(CacheKey::new(name, version, &rects[i]), answer);
            }
        });
        for rect in &misses {
            if self.profiled.1 as usize >= PROFILED_RECTS {
                break;
            }
            let (_, profile) = flat.query_profiled(rect);
            self.profiled.0 += (profile.total_contained() + profile.partial_leaves) as u64;
            self.profiled.1 += 1;
        }
        let tracer = &mut self.tracer;
        let body = tracer
            .time(op, Layer::JsonEncodeResponse, || {
                serde_json::to_string(&Value::Object(vec![
                    ("name".to_string(), Value::String(published.name.clone())),
                    ("version".to_string(), Value::Number(version as f64)),
                    (
                        "answers".to_string(),
                        Value::Array(answers.into_iter().map(Value::Number).collect()),
                    ),
                    ("cache_hits".to_string(), Value::Number(hits as f64)),
                ]))
            })
            .map_err(|e| err("response", e))?;
        let mut written = Vec::new();
        tracer
            .time(op, Layer::HttpWriteResponse, || {
                http::write_response(&mut written, 200, &body, true)
            })
            .map_err(|e| err("response", e))?;
        let _reply: Value = tracer
            .time(op, Layer::ClientDecode, || serde_json::from_str(response))
            .map_err(|e| err("reply", e))?;
        if body != response {
            return Err("replayed response differs from the wire response".into());
        }
        if !op.warmup {
            self.wire_bytes.push((request.len(), written.len()));
        }
        Ok(())
    }

    /// Replays a rebuild as `PsdConfig::build` without post-processing
    /// followed by OLS, and returns the release.
    pub fn build(
        &mut self,
        op: Op,
        config: &PsdConfig<2>,
        points: &[Point],
    ) -> Result<ReleasedSynopsis<2>, String> {
        let unposted = config.clone().with_postprocess(false);
        let mut tree = self
            .tracer
            .time(op, Layer::TreeBuild, || unposted.build(points))
            .map_err(|e| err("build", e))?;
        let beta = self
            .tracer
            .time(op, Layer::OlsPostprocess, || ols_postprocess(&tree));
        tree.set_posted(beta);
        Ok(tree.release())
    }

    /// Replays a `dpsd-bin` publish of the replay's own `release`, which
    /// must encode to the bytes the owner sent. Returns the version.
    pub fn publish_bin(
        &mut self,
        op: Op,
        name: &str,
        sent: &[u8],
        release: &ReleasedSynopsis<2>,
    ) -> Result<u64, String> {
        let t = &mut self.tracer;
        let bytes = t.time(op, Layer::FlatEncode, || release.to_flat_bytes());
        if bytes != sent {
            return Err(
                "replayed build encodes to different bytes than the published artifact".into(),
            );
        }
        // The registry decodes inside `publish`, so its self time is
        // the publish minus this decode of the same bytes. An untimed
        // decode first puts both timed calls in the same cache state.
        for timed in [false, true] {
            let decode = || FlatSynopsis::<2>::from_bytes(&bytes);
            let decoded = if timed {
                t.time(op, Layer::FlatDecode, decode)
            } else {
                decode()
            };
            drop(decoded.map_err(|e| err("decode", e))?);
        }
        let registry = &self.registry;
        let (published, _) = t
            .time(op, Layer::RegistryPublish, || {
                registry.publish(name, &bytes)
            })
            .map_err(|e| err("publish", e))?;
        let cache = &self.cache;
        t.time(op, Layer::CachePurge, || {
            cache.purge_stale(name, published.version)
        });
        Ok(published.version)
    }

    /// Replays a JSON publish's encode and parse; the artifact must
    /// encode to the text the owner sent.
    pub fn publish_json(
        &mut self,
        op: Op,
        release: &ReleasedSynopsis<2>,
        sent: &str,
    ) -> Result<(), String> {
        let t = &mut self.tracer;
        let text = t.time(op, Layer::JsonEncodeArtifact, || release.to_json_string());
        if text != sent {
            return Err("replayed JSON artifact differs from the published one".into());
        }
        let parsed: Value = t
            .time(op, Layer::JsonDecodeArtifact, || {
                serde_json::from_str(&text)
            })
            .map_err(|e| err("artifact", e))?;
        drop(parsed);
        Ok(())
    }

    /// Replays one ingest: absorb up to each epoch boundary, release
    /// and publish there, exactly where the server does. Returns the
    /// `(epoch, version)` of every release it triggered.
    pub fn ingest(&mut self, op: Op, name: &str, body: &[u8]) -> Result<Vec<(u64, u64)>, String> {
        let epoch_points = self.epoch_points;
        let Replay {
            tracer,
            registry,
            cache,
            stream,
            absorbed,
            ..
        } = self;
        let points = tracer.time(op, Layer::JsonDecodeIngest, || decode_points(body))?;
        let mut rest = &points[..];
        let mut releases = Vec::new();
        loop {
            let boundary = (stream.epoch() + 1) * epoch_points;
            if stream.total_points() == boundary {
                let release = tracer
                    .time(op, Layer::StreamRelease, || stream.release_epoch())
                    .map_err(|e| err("release", e))?;
                let (published, _) = registry
                    .publish_predebited(name, &release.synopsis.to_flat_bytes())
                    .map_err(|e| err("stream publish", e))?;
                tracer.time(op, Layer::CachePurge, || {
                    cache.purge_stale(name, published.version)
                });
                releases.push((release.epoch, published.version));
            }
            if rest.is_empty() {
                *absorbed += points.len() as u64;
                return Ok(releases);
            }
            let room = usize::try_from(boundary - stream.total_points()).unwrap_or(usize::MAX);
            let (segment, tail) = rest.split_at(room.min(rest.len()));
            tracer
                .time(op, Layer::StreamAbsorb, || stream.absorb_all(segment))
                .map_err(|e| err("absorb", e))?;
            rest = tail;
        }
    }
}

/// Per-layer call durations of the measured (non-warm-up) spans, summed
/// per operation: `layer -> [(request, ns)]` in request order.
pub fn per_op(tracer: &Tracer) -> HashMap<Layer, Vec<(usize, u64)>> {
    let mut out: HashMap<Layer, Vec<(usize, u64)>> = HashMap::new();
    for s in tracer.spans().iter().filter(|s| !s.warmup) {
        let own = s.end - s.start;
        let list = out.entry(s.layer).or_default();
        match list.last_mut() {
            Some((request, sum)) if *request == s.request => *sum += own,
            _ => list.push((s.request, own)),
        }
    }
    out
}
