//! Server-side streaming ingest: named continual-release streams that
//! absorb posted points and hot-swap a fresh synopsis version into the
//! registry at every epoch boundary.
//!
//! A stream is created with `POST /synopses/{name}/stream` (dimension,
//! domain, height, seed, epoch size, epsilon schedule, budget cap) and
//! fed with `POST /synopses/{name}/ingest`. Epoch ticking is driven
//! purely by the absorbed-point count — when the stream total crosses
//! `epoch_points * (epochs_released + 1)` the ingest request that
//! crossed it materializes the release, hosts it as built through the
//! registry's swap path (so hot-swap and cache-purge semantics are
//! identical to a manual publish), and reports the new
//! version in its response. No wall clock is consulted anywhere:
//! replaying the same point stream against a fresh server yields the
//! same synopsis bytes at every version, which is what the loadgen soak
//! and the `stream_identity` suite assert.
//!
//! Streams created with a `window` cover only the last `window`
//! epochs per release (`dpsd_core::stream`'s sliding-window model),
//! and streams created with a `user_cap` require a parallel `users`
//! array on every ingest: each point is admitted on behalf of its
//! user, at most `user_cap` per user per window, and capped points are
//! counted as `admission_drops` in the report and `/stats` rather than
//! failing the request. Both knobs keep the replay contract: windowed
//! releases are byte-identical to a batch build over the in-window
//! suffix of *admitted* points.
//!
//! Concurrency: the manager holds a map of named streams behind the
//! workspace lock helpers; each stream serializes its ingests behind
//! its own mutex (absorb order defines the release artifacts, so
//! concurrent ingests to one stream are ordered by lock acquisition —
//! each request's points stay contiguous). Distinct streams ingest in
//! parallel.

use crate::cache::ShardedCache;
use crate::error::ServeError;
use crate::registry::{validate_name, AnySynopsis, SynopsisRegistry};
use crate::sync::{lock_or_recover, read_or_recover, write_or_recover};
use dpsd_core::geometry::{Point, Rect};
use dpsd_core::stream::{Admission, EpsilonSchedule, StreamConfig, StreamIngestor};
use dpsd_core::tree::ReleasedSynopsis;
use serde::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// Streams maintain modest trees: the server keeps rects + counters
/// resident per stream, and epoch releases are synchronous with the
/// ingest request that triggers them.
const MAX_STREAM_HEIGHT: usize = 12;

/// Hard cap on points per ingest request (the body-size limit usually
/// binds first).
const MAX_INGEST_POINTS: usize = 1 << 22;

/// The parsed `POST /synopses/{name}/stream` body.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Dimension of the stream's points (1..=4, like the registry).
    pub dims: usize,
    /// Domain as a wire rect: all minima, then all maxima.
    pub domain: Vec<f64>,
    /// Tree height of every released synopsis.
    pub height: usize,
    /// Base RNG seed (epoch `e` derives its own seed from it).
    pub seed: u64,
    /// Points per epoch: a release fires each time the stream total
    /// crosses a multiple of this.
    pub epoch_points: u64,
    /// Per-epoch epsilon schedule.
    pub schedule: EpsilonSchedule,
    /// Lifetime privacy cap across all releases.
    pub budget_cap: f64,
    /// Optional sliding window in epochs (absent = growing prefix).
    pub window: Option<u64>,
    /// Optional per-user admission cap per window.
    pub user_cap: Option<u64>,
}

fn field_f64(body: &Value, name: &str) -> Result<f64, ServeError> {
    body.get(name)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| ServeError::BadRequest(format!("body must have a numeric `{name}` field")))
}

fn field_u64(body: &Value, name: &str) -> Result<u64, ServeError> {
    body.get(name).and_then(|v| v.as_u64()).ok_or_else(|| {
        ServeError::BadRequest(format!(
            "body must have a non-negative integer `{name}` field"
        ))
    })
}

impl StreamSpec {
    /// Parses and validates a stream-creation body.
    pub fn from_value(body: &Value) -> Result<StreamSpec, ServeError> {
        let dims = field_u64(body, "dims")? as usize;
        if !(1..=4).contains(&dims) {
            return Err(ServeError::BadRequest(format!(
                "dims must be between 1 and 4, got {dims}"
            )));
        }
        let domain = body
            .get("domain")
            .and_then(|v| v.as_array())
            .ok_or_else(|| ServeError::BadRequest("body must have a `domain` array".into()))?
            .iter()
            .map(|v| {
                v.as_f64().ok_or_else(|| {
                    ServeError::BadRequest("domain must contain only numbers".into())
                })
            })
            .collect::<Result<Vec<f64>, _>>()?;
        if domain.len() != 2 * dims {
            return Err(ServeError::BadRequest(format!(
                "domain must have {} numbers (minima then maxima) for dims {dims}, got {}",
                2 * dims,
                domain.len()
            )));
        }
        let height = field_u64(body, "height")? as usize;
        if height == 0 || height > MAX_STREAM_HEIGHT {
            return Err(ServeError::BadRequest(format!(
                "height must be between 1 and {MAX_STREAM_HEIGHT}, got {height}"
            )));
        }
        let epoch_points = field_u64(body, "epoch_points")?;
        if epoch_points == 0 {
            return Err(ServeError::BadRequest(
                "epoch_points must be at least 1".into(),
            ));
        }
        let schedule_value = body
            .get("schedule")
            .ok_or_else(|| ServeError::BadRequest("body must have a `schedule` object".into()))?;
        let kind = schedule_value
            .get("kind")
            .and_then(|v| v.as_str())
            .ok_or_else(|| {
                ServeError::BadRequest(
                    "schedule must have a `kind` of `fixed` or `geometric`".into(),
                )
            })?;
        let schedule = match kind {
            "fixed" => EpsilonSchedule::Fixed {
                epsilon: field_f64(schedule_value, "epsilon")?,
            },
            "geometric" => EpsilonSchedule::Geometric {
                first: field_f64(schedule_value, "first")?,
                ratio: field_f64(schedule_value, "ratio")?,
            },
            other => {
                return Err(ServeError::BadRequest(format!(
                    "unknown schedule kind `{other}` (expected `fixed` or `geometric`)"
                )))
            }
        };
        Ok(StreamSpec {
            dims,
            domain,
            height,
            seed: field_u64(body, "seed")?,
            epoch_points,
            schedule,
            budget_cap: field_f64(body, "budget_cap")?,
            window: optional_u64(body, "window")?,
            user_cap: optional_u64(body, "user_cap")?,
        })
    }
}

/// An optional non-negative integer field: absent or `null` means
/// `None`; present with any other non-integer shape is a 400. Range
/// validation is the core config's job.
fn optional_u64(body: &Value, name: &str) -> Result<Option<u64>, ServeError> {
    match body.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            ServeError::BadRequest(format!("`{name}` must be a non-negative integer"))
        }),
    }
}

/// A dimension-erased [`StreamIngestor`], mirroring the registry's
/// `AnySynopsis`.
pub enum AnyIngestor {
    /// One-dimensional stream.
    D1(StreamIngestor<1>),
    /// Planar stream.
    D2(StreamIngestor<2>),
    /// Three-dimensional stream.
    D3(StreamIngestor<3>),
    /// Four-dimensional stream.
    D4(StreamIngestor<4>),
}

macro_rules! with_ingestor {
    ($any:expr, $s:ident => $body:expr) => {
        match $any {
            AnyIngestor::D1($s) => $body,
            AnyIngestor::D2($s) => $body,
            AnyIngestor::D3($s) => $body,
            AnyIngestor::D4($s) => $body,
        }
    };
}

fn ingestor_for<const D: usize>(spec: &StreamSpec) -> Result<StreamIngestor<D>, ServeError> {
    let mut min = [0.0; D];
    let mut max = [0.0; D];
    min.copy_from_slice(&spec.domain[..D]);
    max.copy_from_slice(&spec.domain[D..]);
    let domain = Rect::from_corners(min, max)
        .map_err(|e| ServeError::BadRequest(format!("invalid domain: {e}")))?;
    let mut config = StreamConfig::new(
        domain,
        spec.height,
        spec.schedule,
        spec.budget_cap,
        spec.seed,
    );
    config.window = spec.window;
    config.user_cap = spec.user_cap;
    StreamIngestor::new(config).map_err(ServeError::from)
}

impl AnyIngestor {
    fn build(spec: &StreamSpec) -> Result<AnyIngestor, ServeError> {
        Ok(match spec.dims {
            1 => AnyIngestor::D1(ingestor_for::<1>(spec)?),
            2 => AnyIngestor::D2(ingestor_for::<2>(spec)?),
            3 => AnyIngestor::D3(ingestor_for::<3>(spec)?),
            4 => AnyIngestor::D4(ingestor_for::<4>(spec)?),
            d => return Err(ServeError::BadRequest(format!("unsupported dims {d}"))),
        })
    }
}

/// Absorbs one wire point (validated here: `D` finite coordinates) on
/// behalf of `user`.
fn absorb_wire<const D: usize>(
    ingestor: &mut StreamIngestor<D>,
    coords: &[f64],
    user: Option<u64>,
) -> Result<Admission, ServeError> {
    if coords.len() != D {
        return Err(ServeError::BadRequest(format!(
            "point must have {D} coordinates, got {}",
            coords.len()
        )));
    }
    if coords.iter().any(|c| !c.is_finite()) {
        return Err(ServeError::BadRequest(
            "point coordinates must be finite".into(),
        ));
    }
    let mut c = [0.0; D];
    c.copy_from_slice(coords);
    ingestor
        .absorb_from(Point::from_coords(c), user)
        .map_err(ServeError::from)
}

/// One named stream: the accumulator plus its release bookkeeping.
pub struct StreamState {
    ingestor: AnyIngestor,
    epoch_points: u64,
    /// Registry version of the latest released epoch.
    latest_version: Option<u64>,
}

/// Epoch releases triggered by one ingest request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleasedEpoch {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Registry version the release was published as.
    pub version: u64,
}

/// The outcome of one ingest request.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Points absorbed by this request.
    pub absorbed: u64,
    /// Points this request dropped at the user cap (never an error —
    /// capping is expected behavior, not a malformed request).
    pub dropped: u64,
    /// Stream total after this request.
    pub total_points: u64,
    /// Epochs released so far (stream lifetime).
    pub epochs_released: u64,
    /// Ledger spend so far (stream lifetime).
    pub epsilon_spent: f64,
    /// Releases this request triggered, in epoch order.
    pub releases: Vec<ReleasedEpoch>,
}

/// The named-stream table.
#[derive(Default)]
pub struct StreamManager {
    streams: RwLock<HashMap<String, Arc<Mutex<StreamState>>>>,
}

impl StreamManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a stream under `name`. Fails with a conflict if one
    /// already exists (streams are never silently reconfigured — that
    /// would break the determinism contract mid-flight).
    ///
    /// The stream's `budget_cap` is installed as the **tenant** cap on
    /// the registry ledger (subject to the set-once rule): every epoch
    /// release debits the same account as a manual publish under this
    /// name, so streamed and manual releases compose under one cap. If
    /// the tenant is already capped differently, creation fails with a
    /// conflict before any stream state exists.
    pub fn create(
        &self,
        name: &str,
        spec: &StreamSpec,
        registry: &SynopsisRegistry,
    ) -> Result<(), ServeError> {
        validate_name(name)?;
        let ingestor = AnyIngestor::build(spec)?;
        let mut streams = write_or_recover(&self.streams);
        if streams.contains_key(name) {
            return Err(ServeError::Conflict(format!(
                "stream `{name}` already exists"
            )));
        }
        // An infinite cap (possible only for in-process callers — JSON
        // numbers are finite) means "uncapped" and installs nothing.
        if spec.budget_cap.is_finite() {
            registry.set_cap(name, spec.budget_cap)?;
        }
        streams.insert(
            name.to_string(),
            Arc::new(Mutex::new(StreamState {
                ingestor,
                epoch_points: spec.epoch_points,
                latest_version: None,
            })),
        );
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Arc<Mutex<StreamState>>, ServeError> {
        read_or_recover(&self.streams)
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownSynopsis(format!("stream `{name}`")))
    }

    /// Fails with the 404 [`ServeError::UnknownSynopsis`] unless the
    /// named stream exists, so the server can answer an unknown name
    /// before it parses a request body.
    pub fn ensure_exists(&self, name: &str) -> Result<(), ServeError> {
        self.get(name).map(|_| ())
    }

    /// Absorbs `points` (wire coordinates) into the named stream in
    /// order, materializing and publishing a release every time the
    /// stream total crosses an epoch boundary. One request may cross
    /// several boundaries; every intermediate release is published and
    /// reported, in epoch order.
    ///
    /// `users` is the parallel per-point user-id array: required
    /// (same length as `points`) when the stream has a user cap,
    /// rejected when it does not. Admission is checked point by point
    /// *after* any release the preceding point triggered, so window
    /// aging and admission decisions are invariant to how the caller
    /// batches the same point sequence.
    ///
    /// Absorption stops at the first rejected point or failed release;
    /// points absorbed before the failure stay absorbed (the stream
    /// prefix is still well-defined, so determinism is unaffected).
    pub fn ingest(
        &self,
        name: &str,
        points: &[Vec<f64>],
        users: Option<&[u64]>,
        registry: &SynopsisRegistry,
        cache: &ShardedCache,
    ) -> Result<IngestReport, ServeError> {
        if points.len() > MAX_INGEST_POINTS {
            return Err(ServeError::TooLarge(format!(
                "ingest of {} points exceeds the {MAX_INGEST_POINTS}-point limit",
                points.len()
            )));
        }
        let stream = self.get(name)?;
        let mut state = lock_or_recover(&stream);
        let StreamState {
            ingestor,
            epoch_points,
            latest_version,
        } = &mut *state;
        let mut run = IngestRun {
            name,
            epoch_points: *epoch_points,
            latest_version,
            registry,
            cache,
            releases: Vec::new(),
        };
        with_ingestor!(ingestor, s => run.ingest(s, points, users))
    }

    /// The status object for one stream (also one entry of the
    /// `/stats` `streams` array).
    pub fn info(&self, name: &str) -> Result<Value, ServeError> {
        let stream = self.get(name)?;
        let state = lock_or_recover(&stream);
        Ok(stream_info(name, &state))
    }

    /// Status objects for every stream, sorted by name.
    pub fn stats_value(&self) -> Value {
        let streams: Vec<(String, Arc<Mutex<StreamState>>)> = {
            let map = read_or_recover(&self.streams);
            let mut all: Vec<_> = map
                .iter()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect();
            all.sort_by(|a, b| a.0.cmp(&b.0));
            all
        };
        Value::Array(
            streams
                .iter()
                .map(|(name, stream)| {
                    let state = lock_or_recover(stream);
                    stream_info(name, &state)
                })
                .collect(),
        )
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        read_or_recover(&self.streams).len()
    }

    /// Whether no streams exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One ingest request against one locked stream: the release
/// bookkeeping its epoch boundaries touch.
struct IngestRun<'a> {
    name: &'a str,
    epoch_points: u64,
    latest_version: &'a mut Option<u64>,
    registry: &'a SynopsisRegistry,
    cache: &'a ShardedCache,
    releases: Vec<ReleasedEpoch>,
}

impl IngestRun<'_> {
    fn ingest<const D: usize>(
        &mut self,
        ingestor: &mut StreamIngestor<D>,
        points: &[Vec<f64>],
        users: Option<&[u64]>,
    ) -> Result<IngestReport, ServeError>
    where
        AnySynopsis: From<ReleasedSynopsis<D>>,
    {
        match (ingestor.user_cap(), users) {
            (Some(_), None) => {
                return Err(ServeError::BadRequest(
                    "stream has a user cap: body must have a `users` array parallel to `points`"
                        .into(),
                ))
            }
            (None, Some(_)) => {
                return Err(ServeError::BadRequest(
                    "stream has no user cap: `users` is not accepted".into(),
                ))
            }
            _ => {}
        }
        if let Some(u) = users {
            if u.len() != points.len() {
                return Err(ServeError::BadRequest(format!(
                    "`users` must have one id per point: {} ids for {} points",
                    u.len(),
                    points.len()
                )));
            }
        }
        let start_total = ingestor.total_points();
        let start_drops = ingestor.admission_drops();
        for (i, p) in points.iter().enumerate() {
            // Release (and, under a window, age out the expired
            // bucket) *before* deciding this point's admission, so the
            // outcome does not depend on request batching.
            self.release_if_at_boundary(ingestor)?;
            absorb_wire(ingestor, p, users.map(|u| u[i]))?;
        }
        // A request ending exactly on a boundary still owes a release.
        self.release_if_at_boundary(ingestor)?;
        Ok(IngestReport {
            absorbed: ingestor.total_points() - start_total,
            dropped: ingestor.admission_drops() - start_drops,
            total_points: ingestor.total_points(),
            epochs_released: ingestor.epoch(),
            epsilon_spent: ingestor.ledger().spent(),
            releases: std::mem::take(&mut self.releases),
        })
    }

    /// Releases and publishes the pending epoch when the stream total
    /// sits exactly on the next epoch boundary.
    fn release_if_at_boundary<const D: usize>(
        &mut self,
        ingestor: &mut StreamIngestor<D>,
    ) -> Result<(), ServeError>
    where
        AnySynopsis: From<ReleasedSynopsis<D>>,
    {
        let boundary = (ingestor.epoch() + 1).saturating_mul(self.epoch_points);
        if ingestor.total_points() != boundary {
            return Ok(());
        }
        // Budget ordering: (1) the stream's own ledger must afford the
        // release (checked without mutating, same comparison as the
        // debit); (2) the release epsilon is reserved on the *tenant*
        // ledger, atomically against concurrent manual publishes under
        // this name; (3) only then is noise drawn and the internal
        // debit taken — guaranteed to succeed after (1), since the
        // stream mutex is held throughout. Either failure leaves both
        // ledgers and the stream untouched (absorbed points stay).
        ingestor.check_next_release()?;
        self.registry
            .debit(self.name, ingestor.next_release_debit())?;
        let release = ingestor.release_epoch()?;
        // Host the release as built through the registry's swap path:
        // identical hot-swap and cache-purge semantics to a manual
        // POST, without double-charging the epsilon reserved in step
        // (2). Every release the builder makes already holds the
        // invariants a loader checks, so nothing is encoded or decoded.
        let (published, _budget) =
            self.registry
                .install(self.name, release.synopsis.into(), None, None)?;
        self.cache.purge_stale(self.name, published.version);
        *self.latest_version = Some(published.version);
        self.releases.push(ReleasedEpoch {
            epoch: release.epoch,
            version: published.version,
        });
        Ok(())
    }
}

fn stream_info(name: &str, state: &StreamState) -> Value {
    with_ingestor!(&state.ingestor, s => ingestor_info(name, state, s))
}

fn ingestor_info<const D: usize>(
    name: &str,
    state: &StreamState,
    ingestor: &StreamIngestor<D>,
) -> Value {
    let covered = ingestor.epoch().saturating_mul(state.epoch_points);
    let hot = match ingestor.hot_cell() {
        Some((key, estimate)) => Value::Object(vec![
            ("key".to_string(), Value::Number(key as f64)),
            ("estimate".to_string(), Value::Number(estimate as f64)),
        ]),
        None => Value::Null,
    };
    Value::Object(vec![
        ("name".to_string(), Value::String(name.to_string())),
        ("dims".to_string(), Value::Number(D as f64)),
        (
            "height".to_string(),
            Value::Number(ingestor.config().height as f64),
        ),
        (
            "epoch_points".to_string(),
            Value::Number(state.epoch_points as f64),
        ),
        (
            "total_points".to_string(),
            Value::Number(ingestor.total_points() as f64),
        ),
        (
            "pending_points".to_string(),
            Value::Number(ingestor.total_points().saturating_sub(covered) as f64),
        ),
        (
            "epochs_released".to_string(),
            Value::Number(ingestor.epoch() as f64),
        ),
        (
            "epsilon_spent".to_string(),
            Value::Number(ingestor.ledger().spent()),
        ),
        (
            "budget_cap".to_string(),
            Value::Number(ingestor.ledger().cap()),
        ),
        (
            "next_epoch_epsilon".to_string(),
            Value::Number(ingestor.next_epoch_epsilon()),
        ),
        (
            "latest_version".to_string(),
            state
                .latest_version
                .map_or(Value::Null, |v| Value::Number(v as f64)),
        ),
        (
            "window".to_string(),
            ingestor
                .window()
                .map_or(Value::Null, |w| Value::Number(w as f64)),
        ),
        (
            "window_start".to_string(),
            Value::Number(ingestor.window_start() as f64),
        ),
        (
            "window_points".to_string(),
            Value::Number(ingestor.window_points() as f64),
        ),
        (
            "buckets_evicted".to_string(),
            Value::Number(ingestor.buckets_evicted() as f64),
        ),
        (
            "user_cap".to_string(),
            ingestor
                .user_cap()
                .map_or(Value::Null, |c| Value::Number(c as f64)),
        ),
        (
            "tracked_users".to_string(),
            Value::Number(ingestor.tracked_users() as f64),
        ),
        (
            "capped_users".to_string(),
            Value::Number(ingestor.capped_users() as f64),
        ),
        (
            "admission_drops".to_string(),
            Value::Number(ingestor.admission_drops() as f64),
        ),
        (
            "next_release_debit".to_string(),
            Value::Number(ingestor.next_release_debit()),
        ),
        ("hot_cell".to_string(), hot),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsd_core::stream::batch_config_for;

    fn spec_2d(epoch_points: u64) -> StreamSpec {
        StreamSpec {
            dims: 2,
            domain: vec![0.0, 0.0, 64.0, 64.0],
            height: 4,
            seed: 42,
            epoch_points,
            schedule: EpsilonSchedule::Fixed { epsilon: 0.5 },
            budget_cap: 10.0,
            window: None,
            user_cap: None,
        }
    }

    fn wire_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                vec![
                    ((i * 13 + 5) % 640) as f64 * 0.1,
                    ((i * 29 + 11) % 640) as f64 * 0.1,
                ]
            })
            .collect()
    }

    #[test]
    fn spec_parses_and_validates() {
        let body: Value = serde_json::from_str(
            r#"{"dims":2,"domain":[0,0,64,64],"height":4,"seed":42,"epoch_points":100,
                "schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":10}"#,
        )
        .unwrap();
        let spec = StreamSpec::from_value(&body).unwrap();
        assert_eq!(spec.dims, 2);
        assert_eq!(spec.epoch_points, 100);
        assert_eq!(spec.schedule, EpsilonSchedule::Fixed { epsilon: 0.5 });
        assert_eq!(spec.window, None);
        assert_eq!(spec.user_cap, None);

        let body: Value = serde_json::from_str(
            r#"{"dims":2,"domain":[0,0,64,64],"height":4,"seed":42,"epoch_points":100,
                "schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":10,
                "window":4,"user_cap":2}"#,
        )
        .unwrap();
        let spec = StreamSpec::from_value(&body).unwrap();
        assert_eq!(spec.window, Some(4));
        assert_eq!(spec.user_cap, Some(2));

        for bad in [
            r#"{"dims":5,"domain":[0,0,1,1],"height":4,"seed":1,"epoch_points":10,"schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":1}"#,
            r#"{"dims":2,"domain":[0,0,1],"height":4,"seed":1,"epoch_points":10,"schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":1}"#,
            r#"{"dims":2,"domain":[0,0,1,1],"height":0,"seed":1,"epoch_points":10,"schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":1}"#,
            r#"{"dims":2,"domain":[0,0,1,1],"height":4,"seed":1,"epoch_points":0,"schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":1}"#,
            r#"{"dims":2,"domain":[0,0,1,1],"height":4,"seed":1,"epoch_points":10,"schedule":{"kind":"linear","epsilon":0.5},"budget_cap":1}"#,
            r#"{"dims":2,"domain":[0,0,1,1],"height":4,"seed":1,"epoch_points":10,"schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":1,"window":-3}"#,
            r#"{"dims":2,"domain":[0,0,1,1],"height":4,"seed":1,"epoch_points":10,"schedule":{"kind":"fixed","epsilon":0.5},"budget_cap":1,"user_cap":"lots"}"#,
        ] {
            let body: Value = serde_json::from_str(bad).unwrap();
            assert!(StreamSpec::from_value(&body).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn ingest_releases_at_boundaries_and_publishes() {
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        manager.create("taxi", &spec_2d(100), &registry).unwrap();
        assert!(matches!(
            manager.create("taxi", &spec_2d(100), &registry),
            Err(ServeError::Conflict(_))
        ));

        // 250 points in one request: epochs 0 and 1 release, 50 pending.
        let report = manager
            .ingest("taxi", &wire_points(250), None, &registry, &cache)
            .unwrap();
        assert_eq!(report.absorbed, 250);
        assert_eq!(report.total_points, 250);
        assert_eq!(report.epochs_released, 2);
        assert_eq!(
            report.releases,
            vec![
                ReleasedEpoch {
                    epoch: 0,
                    version: 1
                },
                ReleasedEpoch {
                    epoch: 1,
                    version: 2
                },
            ]
        );
        assert_eq!(report.epsilon_spent, 0.5 + 0.5);
        let published = registry.get("taxi").unwrap();
        assert_eq!(published.version, 2);

        // 50 more exactly reach the epoch-3 boundary.
        let report = manager
            .ingest("taxi", &wire_points(50), None, &registry, &cache)
            .unwrap();
        assert_eq!(report.releases.len(), 1);
        assert_eq!(registry.get("taxi").unwrap().version, 3);
    }

    #[test]
    fn published_bytes_match_direct_batch_build() {
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        manager.create("s", &spec_2d(120), &registry).unwrap();
        let wire = wire_points(240);
        manager.ingest("s", &wire, None, &registry, &cache).unwrap();

        // Rebuild epoch 1 (the full 240-point prefix) directly.
        let config = StreamConfig::new(
            Rect::new(0.0, 0.0, 64.0, 64.0).unwrap(),
            4,
            EpsilonSchedule::Fixed { epsilon: 0.5 },
            10.0,
            42,
        );
        let prefix: Vec<Point> = wire.iter().map(|w| Point::new(w[0], w[1])).collect();
        let direct = batch_config_for(&config, 1)
            .build(&prefix)
            .unwrap()
            .release();
        let served = registry.get("s").unwrap();
        assert_eq!(served.version, 2);
        // The hosted synopsis is the direct build, byte for byte, and
        // answers exactly like it (OLS included).
        use dpsd_core::synopsis::SpatialSynopsis;
        let q = Rect::new(3.0, 5.0, 40.0, 33.0).unwrap();
        match &served.synopsis {
            AnySynopsis::D2(flat) => {
                assert_eq!(flat.to_flat_bytes(), direct.to_flat_bytes());
                assert_eq!(flat.query(&q).to_bits(), direct.query(&q).to_bits());
            }
            _ => panic!("expected a 2-d synopsis"),
        }
    }

    #[test]
    fn unnoisable_epsilons_are_refused_before_any_debit() {
        // A fixed epsilon of 1e-310 cannot be noised at all, and a
        // geometric schedule reaches such epochs after about 500
        // releases. Either way every boundary answers 400 before either
        // ledger is debited, and the stream and the registry stay in
        // step.
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        let mut fixed = spec_2d(1);
        fixed.schedule = EpsilonSchedule::Fixed { epsilon: 1e-310 };
        let mut geometric = spec_2d(1);
        geometric.height = 1;
        geometric.schedule = EpsilonSchedule::Geometric {
            first: 1.0,
            ratio: 0.5,
        };
        for (name, spec) in [("fixed", fixed), ("geometric", geometric)] {
            manager.create(name, &spec, &registry).unwrap();
            let observed = || {
                let info = manager.info(name).unwrap();
                let field = |k: &str| info.get(k).and_then(Value::as_f64).unwrap();
                (
                    registry.budget(name).unwrap().spent.to_bits(),
                    field("epsilon_spent").to_bits(),
                    field("epochs_released") as u64,
                    registry.get(name).map(|p| p.version),
                )
            };
            let mut refusals = 0;
            for p in wire_points(600) {
                let before = observed();
                match manager.ingest(name, &[p], None, &registry, &cache) {
                    Ok(_) => assert_eq!(refusals, 0, "`{name}` released after a refusal"),
                    Err(e) => {
                        assert_eq!(e.status(), 400, "`{name}`: {e}");
                        refusals += 1;
                        let (spent, stream_spent, epochs, version) = before;
                        // The refused point itself may be absorbed; the
                        // ledgers, the epoch and the version do not move.
                        assert_eq!(observed(), (spent, stream_spent, epochs, version));
                    }
                }
                let (spent, stream_spent, epochs, version) = observed();
                assert_eq!(spent, stream_spent, "`{name}`: one debit per release");
                assert_eq!(
                    version.unwrap_or(0),
                    epochs,
                    "`{name}`: versions track epochs"
                );
            }
            assert!(refusals > 0, "`{name}` was never refused");
        }
        assert_eq!(registry.get("fixed").map(|p| p.version), None);
        assert!(registry.get("geometric").unwrap().version > 500);
    }

    #[test]
    fn bad_points_and_unknown_streams_are_rejected() {
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        assert!(matches!(
            manager.ingest("ghost", &wire_points(1), None, &registry, &cache),
            Err(ServeError::UnknownSynopsis(_))
        ));
        manager.create("s", &spec_2d(100), &registry).unwrap();
        // Wrong arity.
        assert!(manager
            .ingest("s", &[vec![1.0]], None, &registry, &cache)
            .is_err());
        // Out of domain: rejected, nothing released.
        assert!(manager
            .ingest("s", &[vec![-5.0, 2.0]], None, &registry, &cache)
            .is_err());
        // Non-finite coordinates.
        assert!(manager
            .ingest("s", &[vec![f64::NAN, 2.0]], None, &registry, &cache)
            .is_err());
        assert!(registry.get("s").is_none());
    }

    #[test]
    fn budget_exhaustion_stops_releases_not_ingest() {
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        let mut spec = spec_2d(10);
        spec.budget_cap = 0.6; // one 0.5-epsilon epoch fits, two do not
        manager.create("s", &spec, &registry).unwrap();
        manager
            .ingest("s", &wire_points(10), None, &registry, &cache)
            .unwrap();
        let err = manager
            .ingest("s", &wire_points(10), None, &registry, &cache)
            .unwrap_err();
        assert!(matches!(err, ServeError::BudgetExhausted(_)));
        assert_eq!(err.status(), 409);
        // Epoch 0's version is still served; the points absorbed.
        assert_eq!(registry.get("s").unwrap().version, 1);
        let info = manager.info("s").unwrap();
        assert_eq!(info.get("total_points").unwrap().as_u64(), Some(20));
        assert_eq!(info.get("epochs_released").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn stats_report_exact_accounting() {
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        manager.create("a", &spec_2d(100), &registry).unwrap();
        manager
            .ingest("a", &wire_points(130), None, &registry, &cache)
            .unwrap();
        let stats = manager.stats_value();
        let entries = stats.as_array().unwrap();
        assert_eq!(entries.len(), 1);
        let entry = &entries[0];
        assert_eq!(entry.get("name").unwrap().as_str(), Some("a"));
        assert_eq!(entry.get("total_points").unwrap().as_u64(), Some(130));
        assert_eq!(entry.get("pending_points").unwrap().as_u64(), Some(30));
        assert_eq!(entry.get("epochs_released").unwrap().as_u64(), Some(1));
        // Exact spend: one fixed 0.5 epoch.
        assert_eq!(entry.get("epsilon_spent").unwrap().as_f64(), Some(0.5));
        assert_eq!(entry.get("latest_version").unwrap().as_u64(), Some(1));
        assert!(entry.get("hot_cell").unwrap().get("estimate").is_some());
        // Growing-prefix streams report the window fields as inert.
        assert!(matches!(entry.get("window"), Some(Value::Null)));
        assert_eq!(entry.get("window_start").unwrap().as_u64(), Some(0));
        assert_eq!(entry.get("window_points").unwrap().as_u64(), Some(130));
        assert_eq!(entry.get("buckets_evicted").unwrap().as_u64(), Some(0));
        assert!(matches!(entry.get("user_cap"), Some(Value::Null)));
        assert_eq!(entry.get("admission_drops").unwrap().as_u64(), Some(0));
        assert_eq!(entry.get("next_release_debit").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn windowed_stream_publishes_suffix_identical_bytes() {
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        let mut spec = spec_2d(80);
        spec.window = Some(2);
        manager.create("w", &spec, &registry).unwrap();
        let wire = wire_points(400);
        // Unaligned batches crossing several boundaries at once.
        for chunk in wire.chunks(130) {
            manager.ingest("w", chunk, None, &registry, &cache).unwrap();
        }
        // Epoch 4 (the fifth release) covers admitted points 240..400.
        let config = StreamConfig::new(
            Rect::new(0.0, 0.0, 64.0, 64.0).unwrap(),
            4,
            EpsilonSchedule::Fixed { epsilon: 0.5 },
            10.0,
            42,
        )
        .with_window(2);
        let suffix: Vec<Point> = wire[240..400]
            .iter()
            .map(|w| Point::new(w[0], w[1]))
            .collect();
        let direct = batch_config_for(&config, 4)
            .build(&suffix)
            .unwrap()
            .release();
        let served = registry.get("w").unwrap();
        assert_eq!(served.version, 5);
        use dpsd_core::synopsis::SpatialSynopsis;
        let q = Rect::new(3.0, 5.0, 40.0, 33.0).unwrap();
        match &served.synopsis {
            AnySynopsis::D2(flat) => {
                assert_eq!(flat.to_flat_bytes(), direct.to_flat_bytes());
                assert_eq!(flat.query(&q).to_bits(), direct.query(&q).to_bits());
            }
            _ => panic!("expected a 2-d synopsis"),
        }
        let info = manager.info("w").unwrap();
        assert_eq!(info.get("window").unwrap().as_u64(), Some(2));
        assert_eq!(info.get("window_start").unwrap().as_u64(), Some(320));
        assert_eq!(info.get("window_points").unwrap().as_u64(), Some(80));
        assert_eq!(info.get("buckets_evicted").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn user_cap_requires_matching_users_array() {
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        let mut spec = spec_2d(100);
        spec.user_cap = Some(2);
        manager.create("u", &spec, &registry).unwrap();
        // Capped stream without users: 400.
        assert!(matches!(
            manager.ingest("u", &wire_points(3), None, &registry, &cache),
            Err(ServeError::BadRequest(_))
        ));
        // Length mismatch: 400.
        assert!(matches!(
            manager.ingest("u", &wire_points(3), Some(&[1, 2]), &registry, &cache),
            Err(ServeError::BadRequest(_))
        ));
        // Uncapped stream with users: 400.
        manager.create("plain", &spec_2d(100), &registry).unwrap();
        assert!(matches!(
            manager.ingest("plain", &wire_points(2), Some(&[1, 2]), &registry, &cache),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn user_cap_drops_are_reported_not_errors() {
        let manager = StreamManager::new();
        let registry = SynopsisRegistry::new();
        let cache = ShardedCache::new(64);
        let mut spec = spec_2d(4);
        spec.user_cap = Some(2);
        manager.create("u", &spec, &registry).unwrap();
        // User 7 floods: only its first two points are admitted, so the
        // epoch-0 boundary (4 admitted points) needs user 8's pair too.
        let users = [7u64, 7, 7, 7, 8, 8];
        let report = manager
            .ingest("u", &wire_points(6), Some(&users), &registry, &cache)
            .unwrap();
        assert_eq!(report.absorbed, 4);
        assert_eq!(report.dropped, 2);
        assert_eq!(report.total_points, 4);
        assert_eq!(report.releases.len(), 1);
        let info = manager.info("u").unwrap();
        assert_eq!(info.get("user_cap").unwrap().as_u64(), Some(2));
        assert_eq!(info.get("admission_drops").unwrap().as_u64(), Some(2));
        assert_eq!(info.get("tracked_users").unwrap().as_u64(), Some(2));
        assert_eq!(info.get("capped_users").unwrap().as_u64(), Some(2));
        // Debit = user_cap × epsilon, exactly.
        assert_eq!(report.epsilon_spent.to_bits(), (0.5f64 * 2.0).to_bits());
    }

    #[test]
    fn admission_is_invariant_to_request_batching() {
        // The same (point, user) sequence must absorb identically no
        // matter how it is split into ingest requests, including splits
        // that land releases mid-request.
        let wire = wire_points(60);
        let users: Vec<u64> = (0..60u64).map(|i| i % 5).collect();
        let run = |chunk: usize| {
            let manager = StreamManager::new();
            let registry = SynopsisRegistry::new();
            let cache = ShardedCache::new(64);
            let mut spec = spec_2d(10);
            spec.window = Some(1);
            spec.user_cap = Some(3);
            manager.create("u", &spec, &registry).unwrap();
            let mut lo = 0usize;
            while lo < wire.len() {
                let hi = (lo + chunk).min(wire.len());
                manager
                    .ingest("u", &wire[lo..hi], Some(&users[lo..hi]), &registry, &cache)
                    .unwrap();
                lo = hi;
            }
            use dpsd_core::synopsis::SpatialSynopsis;
            let q = Rect::new(3.0, 5.0, 40.0, 33.0).unwrap();
            let answer = registry.get("u").map(|p| match &p.synopsis {
                crate::registry::AnySynopsis::D2(flat) => flat.query(&q).to_bits(),
                _ => panic!("expected a 2-d synopsis"),
            });
            let info = manager.info("u").unwrap();
            (
                info.get("total_points").unwrap().as_u64(),
                info.get("admission_drops").unwrap().as_u64(),
                info.get("epochs_released").unwrap().as_u64(),
                answer,
            )
        };
        let whole = run(60);
        for chunk in [1usize, 7, 10, 23] {
            assert_eq!(run(chunk), whole, "chunk {chunk} diverged");
        }
    }
}
