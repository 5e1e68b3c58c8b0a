//! The multi-tenant, versioned synopsis registry.
//!
//! A server hosts many published synopses at once, each under a name
//! chosen by the data owner. Re-publishing a name **hot-swaps** the
//! artifact atomically: the registry stores `Arc<PublishedSynopsis>`
//! values, so in-flight requests keep answering against the version
//! they resolved while new requests see the replacement — no request
//! ever observes a half-loaded synopsis. Every swap bumps a
//! monotonically increasing version, which flows into cache keys (see
//! [`crate::cache`]) so a swapped synopsis can never serve a stale
//! cached answer.
//!
//! Dimension is a runtime property on the wire but a compile-time
//! property of the typed synopses, so [`AnySynopsis`] erases it over
//! the supported range `D ∈ 1..=4` (the same range the evaluation
//! sweeps cover). Artifacts in both published formats load: the
//! `dpsd-bin/v1` binary blob (sniffed by its magic bytes) and the JSON
//! synopsis. Either way the tenant is hosted as the loaded
//! [`ReleasedSynopsis`] itself — the structure-of-arrays arena the one
//! query kernel descends — so answers stay bit-identical to the source
//! tree in every format.

use crate::error::ServeError;
use crate::sync::{read_or_recover, write_or_recover};
use dpsd_core::budget::EpsilonLedger;
use dpsd_core::tree::{ReleasedSynopsis, TreeKind};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Highest dimension the serving layer accepts (matches the evaluated
/// range of the dimension-generic core).
pub const MAX_DIMS: usize = 4;

/// A published synopsis of any supported dimension.
pub enum AnySynopsis {
    /// A 1-dimensional synopsis.
    D1(ReleasedSynopsis<1>),
    /// A planar synopsis.
    D2(ReleasedSynopsis<2>),
    /// A 3-dimensional synopsis.
    D3(ReleasedSynopsis<3>),
    /// A 4-dimensional synopsis.
    D4(ReleasedSynopsis<4>),
}

/// Hosts a typed release as it is, without a wire round trip (the
/// stream's epoch releases).
macro_rules! any_from_typed {
    ($($d:literal => $variant:ident),*) => {$(
        impl From<ReleasedSynopsis<$d>> for AnySynopsis {
            fn from(s: ReleasedSynopsis<$d>) -> Self {
                AnySynopsis::$variant(s)
            }
        }
    )*};
}
any_from_typed!(1 => D1, 2 => D2, 3 => D3, 4 => D4);

/// Runs `$body` with `$s` bound to the typed `&ReleasedSynopsis<D>` of
/// whichever dimension `$any` holds. Generic functions called inside
/// the body infer `D` from `$s`.
macro_rules! with_synopsis {
    ($any:expr, $s:ident => $body:expr) => {
        match $any {
            AnySynopsis::D1($s) => $body,
            AnySynopsis::D2($s) => $body,
            AnySynopsis::D3($s) => $body,
            AnySynopsis::D4($s) => $body,
        }
    };
}
pub(crate) use with_synopsis;

/// Deserializes a parsed JSON value as a `D`-dimensional synopsis,
/// mapping validation failures to the client's fault.
fn synopsis_from_value<const D: usize>(
    value: &serde::Value,
) -> Result<ReleasedSynopsis<D>, ServeError> {
    serde::Deserialize::deserialize(value)
        .map_err(|e| ServeError::from(dpsd_core::DpsdError::from(e)))
}

/// The unsupported-dimension rejection, shared by both formats.
fn bad_dims(d: impl std::fmt::Display) -> ServeError {
    ServeError::BadRequest(format!(
        "artifact is {d}-dimensional; this server accepts 1..={MAX_DIMS}"
    ))
}

impl AnySynopsis {
    /// Loads a published artifact in either wire format, dispatching on
    /// the dimension it declares. `dpsd-bin` blobs are recognized by
    /// their magic bytes; everything else must be a JSON synopsis.
    pub fn load(artifact: &[u8]) -> Result<Self, ServeError> {
        if dpsd_core::flat::is_flat_artifact(artifact) {
            return match dpsd_core::flat::peek_dims(artifact) {
                Some(1) => Ok(AnySynopsis::D1(ReleasedSynopsis::from_bytes(artifact)?)),
                Some(2) => Ok(AnySynopsis::D2(ReleasedSynopsis::from_bytes(artifact)?)),
                Some(3) => Ok(AnySynopsis::D3(ReleasedSynopsis::from_bytes(artifact)?)),
                Some(4) => Ok(AnySynopsis::D4(ReleasedSynopsis::from_bytes(artifact)?)),
                Some(d) => Err(bad_dims(d)),
                None => Err(ServeError::BadRequest(
                    "dpsd-bin artifact is truncated before the dims field".into(),
                )),
            };
        }
        let text = std::str::from_utf8(artifact).map_err(|_| {
            ServeError::BadRequest("artifact is neither dpsd-bin nor UTF-8 text".into())
        })?;
        // Parse once; the `dims` field picks the typed loader and the
        // same value tree feeds it (no second pass over what can be a
        // multi-hundred-megabyte artifact). A missing `dims` means a
        // pre-generic planar artifact.
        let value: serde::Value = serde_json::from_str(text)
            .map_err(|e| ServeError::BadRequest(format!("artifact is not valid JSON: {e}")))?;
        let dims = value
            .get("dims")
            .and_then(serde::Value::as_u64)
            .unwrap_or(2);
        match dims {
            1 => Ok(AnySynopsis::D1(synopsis_from_value(&value)?)),
            2 => Ok(AnySynopsis::D2(synopsis_from_value(&value)?)),
            3 => Ok(AnySynopsis::D3(synopsis_from_value(&value)?)),
            4 => Ok(AnySynopsis::D4(synopsis_from_value(&value)?)),
            d => Err(bad_dims(d)),
        }
    }

    /// The dimension of the hosted synopsis.
    pub fn dims(&self) -> usize {
        match self {
            AnySynopsis::D1(_) => 1,
            AnySynopsis::D2(_) => 2,
            AnySynopsis::D3(_) => 3,
            AnySynopsis::D4(_) => 4,
        }
    }

    /// The tree family of the hosted synopsis.
    pub fn kind(&self) -> TreeKind {
        with_synopsis!(self, s => s.kind())
    }

    /// Number of released nodes.
    pub fn node_count(&self) -> usize {
        with_synopsis!(self, s => s.node_count())
    }

    /// Privacy budget the synopsis was built with.
    pub fn epsilon(&self) -> f64 {
        with_synopsis!(self, s => s.epsilon())
    }

    /// The covered domain in wire layout (all minima, then all maxima).
    pub fn domain_wire(&self) -> Vec<f64> {
        with_synopsis!(self, s => {
            let d = s.domain();
            d.min.iter().chain(d.max.iter()).copied().collect()
        })
    }
}

/// One atomically published artifact: name, monotonically increasing
/// version, and the loaded synopsis.
pub struct PublishedSynopsis {
    /// Registry name the artifact was published under.
    pub name: String,
    /// 1-based version, bumped on every re-publish of the same name.
    pub version: u64,
    /// The loaded, query-ready synopsis.
    pub synopsis: AnySynopsis,
}

/// A point-in-time view of one tenant's privacy budget, taken under
/// the same lock as the operation it describes, so `spent` is exact
/// (sequential-fold `to_bits` semantics) at that operation.
///
/// `cap`/`remaining` are `None` for uncapped tenants: the underlying
/// ledger cap is `f64::INFINITY`, which has no JSON representation, so
/// the snapshot carries the wire shape (`null`) directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantBudget {
    /// Lifetime epsilon cap, `None` when the tenant is uncapped.
    pub cap: Option<f64>,
    /// Total epsilon debited so far (manual publishes + stream
    /// releases), accumulated by plain sequential `+=` in debit order.
    pub spent: f64,
    /// Budget still available, `None` when uncapped.
    pub remaining: Option<f64>,
}

/// One registry name: its budget ledger, its persistent version
/// counter, and the currently hosted artifact (if any — a tenant can
/// exist capped-but-unpublished, e.g. via `--tenant-cap` at startup).
///
/// The version counter lives here, **outside** the published artifact,
/// so a failed debit can reject a publish without minting a version,
/// and two concurrent publishes can never read the same prior version:
/// mint and swap happen under one write lock against state that
/// survives the publish. Every change is staged on a copy (see
/// [`TenantEntry::staged`]) and written back only once all its steps
/// passed, so a refusal leaves no trace.
#[derive(Clone)]
struct TenantEntry {
    published: Option<Arc<PublishedSynopsis>>,
    next_version: u64,
    ledger: EpsilonLedger,
}

impl Default for TenantEntry {
    fn default() -> Self {
        TenantEntry {
            published: None,
            next_version: 1,
            ledger: EpsilonLedger::unbounded(),
        }
    }
}

impl TenantEntry {
    /// A copy of `name`'s entry, or a fresh one for a new tenant.
    fn staged(entries: &HashMap<String, TenantEntry>, name: &str) -> TenantEntry {
        entries.get(name).cloned().unwrap_or_default()
    }

    fn budget(&self) -> TenantBudget {
        let capped = self.ledger.is_capped();
        TenantBudget {
            cap: capped.then(|| self.ledger.cap()),
            spent: self.ledger.spent(),
            remaining: capped.then(|| self.ledger.remaining()),
        }
    }

    /// Installs `cap` under the registry's immutability policy: a cap
    /// can be set once (while the tenant is uncapped) and re-stated
    /// bit-identically, but never changed — budget promises to a tenant
    /// are not renegotiable mid-stream.
    fn set_cap(&mut self, name: &str, cap: f64) -> Result<(), ServeError> {
        if !cap.is_finite() || cap <= 0.0 {
            return Err(ServeError::BadRequest(format!(
                "budget_cap must be positive and finite, got {cap}"
            )));
        }
        if self.ledger.is_capped() {
            if self.ledger.cap().to_bits() == cap.to_bits() {
                return Ok(());
            }
            return Err(ServeError::Conflict(format!(
                "tenant `{name}` is already capped at {}; budget caps are immutable once set",
                self.ledger.cap()
            )));
        }
        self.ledger.set_cap(cap).map_err(|e| {
            // The only reachable failure here: cap below what an
            // uncapped tenant already spent.
            ServeError::Conflict(format!("cannot cap tenant `{name}`: {e}"))
        })
    }
}

/// Named, versioned, `Arc`-shared synopses with atomic hot-swap and a
/// per-tenant [`EpsilonLedger`].
///
/// Every name owns one ledger shared by **all** release paths: manual
/// `POST /synopses/{name}` publishes debit the artifact's composed
/// epsilon, and stream epoch releases debit their release epsilon into
/// the same account (see `StreamManager`), so streamed and manual
/// publishes compose sequentially under one cap. Debit and version
/// bump are atomic under the registry's write lock: a failed debit
/// mints no version and swaps nothing.
#[derive(Default)]
pub struct SynopsisRegistry {
    entries: RwLock<HashMap<String, TenantEntry>>,
}

/// Registry names must be unambiguous in a URL path with no escaping.
pub(crate) fn validate_name(name: &str) -> Result<(), ServeError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(ServeError::BadRequest(format!(
            "invalid synopsis name `{name}`: use 1-64 characters from [A-Za-z0-9._-]"
        )))
    }
}

impl SynopsisRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and validates an artifact (any wire format), then
    /// publishes it under `name`, atomically replacing any prior
    /// version. Parsing happens **outside** the write lock, so a slow
    /// or hostile upload never stalls readers.
    ///
    /// The artifact's composed epsilon is debited from the tenant's
    /// ledger under the same write lock that mints the version: on an
    /// exhausted budget the publish fails with
    /// [`ServeError::BudgetExhausted`], no version is minted, and the
    /// prior artifact keeps serving. Non-private artifacts (epsilon 0,
    /// e.g. the `kd-pure`/`kd-true` baselines) debit nothing.
    pub fn publish(
        &self,
        name: &str,
        artifact: &[u8],
    ) -> Result<(Arc<PublishedSynopsis>, TenantBudget), ServeError> {
        self.publish_capped(name, artifact, None)
    }

    /// [`SynopsisRegistry::publish`], optionally installing a budget
    /// cap first. The cap is applied under the same write lock as the
    /// debit, so "cap on first publish" admits no uncapped window; a
    /// rejected cap (see [`SynopsisRegistry::set_cap`] rules) fails the
    /// whole publish before any debit.
    pub fn publish_capped(
        &self,
        name: &str,
        artifact: &[u8],
        cap: Option<f64>,
    ) -> Result<(Arc<PublishedSynopsis>, TenantBudget), ServeError> {
        validate_name(name)?;
        let synopsis = AnySynopsis::load(artifact)?;
        let debit = synopsis.epsilon();
        self.install(name, synopsis, cap, (debit > 0.0).then_some(debit))
    }

    /// Publishes an artifact whose epsilon was already debited from the
    /// tenant ledger via [`SynopsisRegistry::debit`]: the stream's
    /// release path (which must debit *before* drawing noise) for a
    /// caller that holds the release as bytes. The stream manager
    /// itself hosts each release as built.
    pub fn publish_predebited(
        &self,
        name: &str,
        artifact: &[u8],
    ) -> Result<(Arc<PublishedSynopsis>, TenantBudget), ServeError> {
        validate_name(name)?;
        let synopsis = AnySynopsis::load(artifact)?;
        self.install(name, synopsis, None, None)
    }

    /// The shared swap path: cap install, debit, version mint, and
    /// hot-swap under one write lock, in that order, staged on a copy
    /// of the entry. Any failure leaves the tenant untouched — cap,
    /// spend, published artifact and version counter — and a tenant
    /// refused on its first request is not created. The stream hosts
    /// each epoch release here as built, already debited.
    pub(crate) fn install(
        &self,
        name: &str,
        synopsis: AnySynopsis,
        cap: Option<f64>,
        debit: Option<f64>,
    ) -> Result<(Arc<PublishedSynopsis>, TenantBudget), ServeError> {
        let mut entries = write_or_recover(&self.entries);
        let mut entry = TenantEntry::staged(&entries, name);
        if let Some(cap) = cap {
            entry.set_cap(name, cap)?;
        }
        if let Some(eps) = debit {
            entry.ledger.debit(eps)?;
        }
        let published = Arc::new(PublishedSynopsis {
            name: name.to_string(),
            version: entry.next_version,
            synopsis,
        });
        entry.next_version += 1;
        entry.published = Some(Arc::clone(&published));
        let budget = entry.budget();
        entries.insert(name.to_string(), entry);
        Ok((published, budget))
    }

    /// Debits `eps` from `name`'s ledger without publishing — the
    /// stream manager reserves each epoch's release epsilon here before
    /// noise is drawn, then hosts the release without a second debit.
    /// Atomic with respect to
    /// concurrent manual publishes: both paths contend on the same
    /// write lock and ledger.
    pub fn debit(&self, name: &str, eps: f64) -> Result<TenantBudget, ServeError> {
        validate_name(name)?;
        let mut entries = write_or_recover(&self.entries);
        let mut entry = TenantEntry::staged(&entries, name);
        entry.ledger.debit(eps)?;
        let budget = entry.budget();
        entries.insert(name.to_string(), entry);
        Ok(budget)
    }

    /// Installs a budget cap for `name` (creating the tenant if it has
    /// never published). A tenant's cap can be set while uncapped and
    /// re-stated bit-identically; any other change is a
    /// [`ServeError::Conflict`].
    pub fn set_cap(&self, name: &str, cap: f64) -> Result<TenantBudget, ServeError> {
        validate_name(name)?;
        let mut entries = write_or_recover(&self.entries);
        let mut entry = TenantEntry::staged(&entries, name);
        entry.set_cap(name, cap)?;
        let budget = entry.budget();
        entries.insert(name.to_string(), entry);
        Ok(budget)
    }

    /// The tenant's budget, if the name has ever been published,
    /// debited, or capped.
    pub fn budget(&self, name: &str) -> Option<TenantBudget> {
        read_or_recover(&self.entries).get(name).map(|e| e.budget())
    }

    /// The current version of `name`, if published.
    pub fn get(&self, name: &str) -> Option<Arc<PublishedSynopsis>> {
        read_or_recover(&self.entries)
            .get(name)
            .and_then(|e| e.published.clone())
    }

    /// The current version of `name` together with the tenant budget,
    /// read under one lock so the pair is consistent.
    pub fn get_with_budget(&self, name: &str) -> Option<(Arc<PublishedSynopsis>, TenantBudget)> {
        let entries = read_or_recover(&self.entries);
        let entry = entries.get(name)?;
        Some((entry.published.clone()?, entry.budget()))
    }

    /// Every published synopsis, sorted by name.
    pub fn list(&self) -> Vec<Arc<PublishedSynopsis>> {
        self.list_with_budgets()
            .into_iter()
            .map(|(p, _)| p)
            .collect()
    }

    /// Every published synopsis with its tenant budget, sorted by
    /// name, snapshotted under one read lock.
    pub fn list_with_budgets(&self) -> Vec<(Arc<PublishedSynopsis>, TenantBudget)> {
        let entries = read_or_recover(&self.entries);
        let mut all: Vec<_> = entries
            .values()
            .filter_map(|e| Some((e.published.clone()?, e.budget())))
            .collect();
        drop(entries);
        all.sort_by(|a, b| a.0.name.cmp(&b.0.name));
        all
    }

    /// Number of published synopses (capped-but-unpublished tenants
    /// don't count).
    pub fn len(&self) -> usize {
        read_or_recover(&self.entries)
            .values()
            .filter(|e| e.published.is_some())
            .count()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsd_core::geometry::{Point, Rect};
    use dpsd_core::synopsis::SpatialSynopsis;
    use dpsd_core::tree::PsdConfig;

    fn sample_release<const D: usize>() -> ReleasedSynopsis<D> {
        let domain = Rect::<D>::from_corners([0.0; D], [16.0; D]).unwrap();
        let pts: Vec<Point<D>> = (0..300)
            .map(|i| {
                let mut c = [0.0; D];
                for (k, v) in c.iter_mut().enumerate() {
                    *v = ((i * (k + 2) * 3) % 16) as f64 + 0.25;
                }
                Point::from_coords(c)
            })
            .collect();
        PsdConfig::<D>::quadtree(domain, 2, 1.0)
            .with_seed(7)
            .build(&pts)
            .unwrap()
            .release()
    }

    fn sample_json<const D: usize>() -> String {
        sample_release::<D>().to_json_string()
    }

    #[test]
    fn loads_all_formats_and_dispatches_dimension() {
        let s2 = AnySynopsis::load(sample_json::<2>().as_bytes()).unwrap();
        assert_eq!(s2.dims(), 2);
        let s3 = AnySynopsis::load(sample_json::<3>().as_bytes()).unwrap();
        assert_eq!(s3.dims(), 3);
        assert!(s3.node_count() > 0 && s3.epsilon() > 0.0);
        assert_eq!(s3.domain_wire().len(), 6);

        // Binary format: same answers, loaded straight into the arena.
        let loaded = sample_release::<2>();
        let q = Rect::new(1.0, 2.0, 9.0, 11.0).unwrap();
        let via_bin = AnySynopsis::load(&loaded.to_flat_bytes()).unwrap();
        assert_eq!((via_bin.dims(), via_bin.kind()), (2, loaded.kind()));
        match (&via_bin, &loaded) {
            (AnySynopsis::D2(a), b) => {
                assert_eq!(a.query(&q).to_bits(), b.query(&q).to_bits());
            }
            _ => panic!("expected a planar synopsis"),
        }
        let bin3 = sample_release::<3>().to_flat_bytes();
        assert_eq!(AnySynopsis::load(&bin3).unwrap().dims(), 3);
    }

    #[test]
    fn rejects_garbage_and_unsupported_dimensions() {
        assert!(matches!(
            AnySynopsis::load(b"{ not json"),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            AnySynopsis::load(b"dpsd-release v1\nnonsense"),
            Err(ServeError::BadRequest(_))
        ));
        let five_d = sample_json::<2>().replace("\"dims\":2", "\"dims\":5");
        assert!(matches!(
            AnySynopsis::load(five_d.as_bytes()),
            Err(ServeError::BadRequest(_))
        ));
        // Binary artifacts: corruption and truncation are client errors.
        let mut blob = sample_release::<2>().to_flat_bytes();
        blob[9] ^= 0xff; // break the checksum
        assert!(matches!(
            AnySynopsis::load(&blob),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            AnySynopsis::load(b"DPSDBIN1\x00\x00"),
            Err(ServeError::BadRequest(_))
        ));
        // Non-UTF-8 garbage that is not dpsd-bin is rejected up front.
        assert!(matches!(
            AnySynopsis::load(&[0xff, 0xfe, 0x00, 0x80]),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn publish_bumps_versions_and_hot_swaps() {
        let registry = SynopsisRegistry::new();
        let json = sample_json::<2>();
        let (v1, _) = registry.publish("tenants", json.as_bytes()).unwrap();
        assert_eq!((v1.name.as_str(), v1.version), ("tenants", 1));
        let held = registry.get("tenants").unwrap();
        let (v2, _) = registry.publish("tenants", json.as_bytes()).unwrap();
        assert_eq!(v2.version, 2);
        // In-flight holders keep their resolved version; new lookups
        // see the swap.
        assert_eq!(held.version, 1);
        assert_eq!(registry.get("tenants").unwrap().version, 2);
        assert_eq!(registry.list().len(), 1);
    }

    #[test]
    fn publish_debits_the_tenant_ledger_atomically() {
        let registry = SynopsisRegistry::new();
        let json = sample_json::<2>();
        let eps = AnySynopsis::load(json.as_bytes()).unwrap().epsilon();
        assert_eq!(eps, 1.0);

        // First publish installs a cap that fits exactly two releases.
        let (v1, budget) = registry
            .publish_capped("acct", json.as_bytes(), Some(2.0))
            .unwrap();
        assert_eq!(v1.version, 1);
        assert_eq!(budget.cap, Some(2.0));
        assert_eq!(budget.spent.to_bits(), 1.0f64.to_bits());
        assert_eq!(budget.remaining, Some(1.0));

        let (v2, budget) = registry.publish("acct", json.as_bytes()).unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(budget.remaining, Some(0.0));

        // Overdraw: 409, no version mint, no swap, ledger untouched.
        let err = match registry.publish("acct", json.as_bytes()) {
            Err(e) => e,
            Ok(_) => panic!("exhausted publish must fail"),
        };
        assert!(matches!(err, ServeError::BudgetExhausted(_)));
        assert_eq!(registry.get("acct").unwrap().version, 2);
        let budget = registry.budget("acct").unwrap();
        assert_eq!(budget.spent.to_bits(), 2.0f64.to_bits());
        // The next successful publish (after no cap change) still gets
        // a fresh version — the counter never reuses a minted value.
        // (Nothing more can be published here; this is pinned by the
        // concurrent stress test instead.)
    }

    #[test]
    fn caps_are_immutable_once_set() {
        let registry = SynopsisRegistry::new();
        let budget = registry.set_cap("t", 1.5).unwrap();
        assert_eq!(budget.cap, Some(1.5));
        assert_eq!(budget.spent, 0.0);
        // Re-stating the identical cap is idempotent.
        assert!(registry.set_cap("t", 1.5).is_ok());
        // Changing it is a conflict, in either direction.
        assert!(matches!(
            registry.set_cap("t", 2.0),
            Err(ServeError::Conflict(_))
        ));
        assert!(matches!(
            registry.set_cap("t", 1.0),
            Err(ServeError::Conflict(_))
        ));
        // Malformed caps are the client's fault.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                registry.set_cap("u", bad),
                Err(ServeError::BadRequest(_))
            ));
        }
        // A capped-but-unpublished tenant is invisible to lookups but
        // keeps its budget.
        assert!(registry.get("t").is_none());
        assert!(registry.is_empty());
        assert_eq!(registry.budget("t").unwrap().cap, Some(1.5));
    }

    #[test]
    fn refusals_leave_no_tenant_behind() {
        let registry = SynopsisRegistry::new();
        let json = sample_json::<2>(); // epsilon 1.0
        assert!(matches!(
            registry.publish_capped("t", json.as_bytes(), Some(0.5)),
            Err(ServeError::BudgetExhausted(_))
        ));
        assert!(matches!(
            registry.set_cap("u", -1.0),
            Err(ServeError::BadRequest(_))
        ));
        assert!(registry.debit("v", f64::NAN).is_err());
        for name in ["t", "u", "v"] {
            assert!(registry.budget(name).is_none(), "`{name}` left behind");
        }
        // So the refused cap was never installed: a larger one holds.
        let (published, budget) = registry
            .publish_capped("t", json.as_bytes(), Some(3.0))
            .unwrap();
        assert_eq!(published.version, 1);
        assert_eq!(budget.cap, Some(3.0));
        assert_eq!(budget.spent.to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn cap_below_uncapped_spend_is_rejected() {
        let registry = SynopsisRegistry::new();
        let json = sample_json::<2>();
        registry.publish("t", json.as_bytes()).unwrap(); // spends 1.0 uncapped
        assert!(matches!(
            registry.set_cap("t", 0.5),
            Err(ServeError::Conflict(_))
        ));
        // A cap at or above the spend is accepted.
        let budget = registry.set_cap("t", 1.0).unwrap();
        assert_eq!(budget.remaining, Some(0.0));
    }

    #[test]
    fn stream_style_debit_and_predebited_publish_share_the_ledger() {
        let registry = SynopsisRegistry::new();
        let json = sample_json::<2>();
        registry.set_cap("mix", 2.5).unwrap();
        // Stream path: reserve, then ship predebited bytes.
        let budget = registry.debit("mix", 0.5).unwrap();
        assert_eq!(budget.spent.to_bits(), 0.5f64.to_bits());
        let (v1, budget) = registry.publish_predebited("mix", json.as_bytes()).unwrap();
        assert_eq!(v1.version, 1);
        assert_eq!(budget.spent.to_bits(), 0.5f64.to_bits()); // no double debit
                                                              // Manual path composes on the same account: 0.5 + 1.0.
        let (v2, budget) = registry.publish("mix", json.as_bytes()).unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(budget.spent.to_bits(), (0.5f64 + 1.0).to_bits());
        // A further stream reservation that would overdraw fails.
        let err = registry.debit("mix", 1.5).unwrap_err();
        assert!(matches!(err, ServeError::BudgetExhausted(_)));
        assert_eq!(
            registry.budget("mix").unwrap().spent.to_bits(),
            1.5f64.to_bits()
        );
    }

    #[test]
    fn names_are_validated() {
        let registry = SynopsisRegistry::new();
        let json = sample_json::<2>();
        for bad in ["", "a/b", "a b", "ü", &"x".repeat(65)] {
            assert!(
                matches!(
                    registry.publish(bad, json.as_bytes()),
                    Err(ServeError::BadRequest(_))
                ),
                "name {bad:?} must be rejected"
            );
        }
        assert!(registry.publish("ok-name_1.2", json.as_bytes()).is_ok());
    }
}
