//! Streaming ingest with continual release.
//!
//! Every other entry point in this crate is a one-shot batch build:
//! all points are present up front, [`crate::tree::PsdConfig::build`]
//! runs once, and the resulting synopsis is published once. This module
//! adds the streaming counterpart for the **data-independent midpoint
//! family** ([`TreeKind::Quadtree`] — quadtree / octree / `2^D`-ary):
//! points arrive one at a time, are absorbed into per-node counters
//! (plus a succinct [`CountMinSketch`] for monitoring), and an epoch
//! scheduler periodically materializes a fresh [`ReleasedSynopsis`]
//! under a managed epsilon schedule debited through the
//! [`crate::budget`] accountant's [`EpsilonLedger`].
//!
//! # Why the midpoint family
//!
//! Midpoint trees are *data-independent*: the cell geometry is fixed by
//! the domain and height alone, so absorbing a point is an `O(h * D)`
//! descent that increments one counter per level — no re-partitioning,
//! no median selection, no budget spent on structure. That makes the
//! streaming accumulator both cheap (each epoch release costs noise +
//! OLS over the `m` nodes plus the *delta* of points since the last
//! epoch, instead of a full rebuild over the whole prefix) and exact:
//! the counters after `n` absorbs equal the counters a batch build
//! computes over the same `n`-point prefix.
//!
//! # Determinism contract
//!
//! The load-bearing property is **bit-identity with batch builds**. For
//! a stream with base seed `s`, the release at epoch `e` over a prefix
//! of points is byte-for-byte identical to
//!
//! ```text
//! PsdConfig::quadtree(domain, height, schedule.epoch_epsilon(e))
//!     .with_seed(epoch_seed(s, e))
//!     .build(&prefix)?
//!     .release()
//! ```
//!
//! ([`StreamIngestor::batch_config`] constructs exactly that config.)
//! This holds by construction: a release takes that config's budgets
//! and runs the batch build's own tail — noise pass, tree columns, OLS
//! — over the counters, which stand in for the structure stage. The
//! node boxes are the batch boxes because [`StreamIngestor::new`] cuts
//! them with the batch builder's own point-partition recursion, run over
//! no points. The counters equal the batch exact counts because the
//! descent predicate here ([`Rect::orthant_of`]: `>= midpoint` goes to
//! the upper child, axis 0 most significant) is the same comparison the
//! batch partitioner uses, and the tail starts from the batch generator
//! state because the quadtree structure draws no randomness. Epoch
//! ticking is driven purely by absorbed-point counts supplied by the
//! caller: nothing in this module reads a clock, so replays are exact
//! (and `dpsd-analyze`'s `no-wallclock-in-core` rule keeps it that
//! way).
//!
//! # Privacy accounting
//!
//! Re-releasing the same (growing) point set composes sequentially:
//! every epoch spends fresh epsilon. The [`EpsilonSchedule`] decides
//! how much each epoch costs — a fixed per-epoch amount, or a geometric
//! decay whose total converges — and the [`EpsilonLedger`] debits each
//! release against a lifetime cap *before* any noise is drawn. A
//! release that would overdraw fails with
//! [`DpsdError::BudgetExhausted`] and changes nothing.
//!
//! # Sliding windows
//!
//! By default every release covers the entire absorbed prefix (the
//! growing-prefix model above). [`StreamConfig::with_window`]`(W)`
//! switches the stream to the sliding-window model: each release
//! covers only the points absorbed during the last `W` epochs. The
//! ingestor keeps a ring of `W` per-epoch bucket counter arrays over
//! the same data-independent midpoint structure; absorption increments
//! the running in-window totals *and* the current epoch's bucket
//! (still `O(h)` nodes touched per point), and when an epoch slides
//! out of the window its bucket ages out by **subtraction** from the
//! running totals — never by re-scanning points or re-summing the
//! ring. The running totals therefore always equal the fold of the
//! in-window buckets in bucket (ascending-epoch) order, and every
//! windowed release is byte-identical to a from-scratch
//! [`batch_config_for`] build over exactly the in-window point suffix
//! (`admitted_points[release.window_start..]`), which keeps the
//! external verification handle of the prefix model intact.
//!
//! # Per-user contribution bounding
//!
//! [`StreamConfig::with_user_cap`]`(C)` turns on user-level admission
//! control: every point must arrive with a user id
//! ([`StreamIngestor::absorb_from`]), and at most `C` contributions
//! per user are absorbed per window (per stream lifetime when no
//! window is configured). Admission is decided deterministically in
//! absorb order — a user's first `C` in-window contributions are
//! admitted, later ones return [`Admission::Capped`] and change no
//! counter — and the per-user table ages exactly like the count ring:
//! an expiring bucket's admissions are subtracted and entries that
//! reach zero are evicted, all driven by the epoch counter alone (no
//! clock, no hash-order dependence). Because one user then contributes
//! at most `C` points to any released window, group privacy bounds the
//! per-user cost of a release at `C ·` the epoch's epsilon, and that
//! product — [`StreamConfig::release_debit`] — is exactly what
//! [`release_epoch`](StreamIngestor::release_epoch) debits from the
//! ledger, so the ledger cap is a *user-level* budget.

use crate::budget::EpsilonLedger;
use crate::error::DpsdError;
use crate::geometry::{Point, Rect};
use crate::rng::seeded;
use crate::tree::{
    complete_tree_nodes_checked, split_points, BuildError, LevelBudgets, PsdConfig,
    ReleasedSynopsis, TreeKind,
};
use std::collections::HashMap;

pub mod sketch;

pub use sketch::CountMinSketch;

/// Node cap for streaming trees. Tighter than the batch builder's cap
/// because the ingestor keeps node rectangles *and* counters resident
/// for the lifetime of the stream.
const MAX_STREAM_NODES: usize = 1 << 24;

/// Largest admissible sliding window, in epochs. A windowed stream
/// keeps one bucket counter array per in-window epoch on top of the
/// running totals, so together with the streaming node cap this bounds
/// resident memory.
pub const MAX_WINDOW_EPOCHS: u64 = 64;

/// Monitoring-sketch geometry: cells per axis of the fine grid that
/// keys the Count-Min sketch, and the sketch dimensions.
const SKETCH_GRID: u64 = 256;
const SKETCH_WIDTH: usize = 1024;
const SKETCH_DEPTH: usize = 4;

/// Derives the RNG seed for epoch `epoch` of a stream with base seed
/// `base_seed`.
///
/// The same SplitMix64 finalizer as [`crate::rng::derived`], with the
/// epoch offset by one so that epoch 0 does not collapse to mixing with
/// zero. Exposed so external verifiers (tests, the loadgen soak) can
/// reconstruct the exact batch-build seed for any epoch.
pub fn epoch_seed(base_seed: u64, epoch: u64) -> u64 {
    let mut z = base_seed ^ (epoch.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How much epsilon each epoch's release spends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpsilonSchedule {
    /// Every epoch spends the same amount. The lifetime cap bounds the
    /// number of releases: `floor(cap / epsilon)` epochs ever succeed.
    Fixed {
        /// Per-epoch epsilon.
        epsilon: f64,
    },
    /// Epoch `e` spends `first * ratio^e`. With `ratio < 1` the total
    /// converges to `first / (1 - ratio)`, so a cap at or above that
    /// admits unboundedly many (increasingly noisy) releases.
    Geometric {
        /// Epsilon of epoch 0.
        first: f64,
        /// Per-epoch decay factor, in `(0, 1]`.
        ratio: f64,
    },
}

impl EpsilonSchedule {
    /// The epsilon epoch `epoch` spends under this schedule.
    pub fn epoch_epsilon(&self, epoch: u64) -> f64 {
        match *self {
            EpsilonSchedule::Fixed { epsilon } => epsilon,
            EpsilonSchedule::Geometric { first, ratio } => {
                first * ratio.powi(epoch.min(i32::MAX as u64) as i32)
            }
        }
    }

    /// Validates the schedule parameters.
    pub fn validate(&self) -> Result<(), DpsdError> {
        match *self {
            EpsilonSchedule::Fixed { epsilon } => {
                if !(epsilon > 0.0 && epsilon.is_finite()) {
                    return Err(DpsdError::invalid_parameter(
                        "schedule.epsilon",
                        format!("must be positive and finite, got {epsilon}"),
                    ));
                }
            }
            EpsilonSchedule::Geometric { first, ratio } => {
                if !(first > 0.0 && first.is_finite()) {
                    return Err(DpsdError::invalid_parameter(
                        "schedule.first",
                        format!("must be positive and finite, got {first}"),
                    ));
                }
                if !(ratio > 0.0 && ratio <= 1.0) {
                    return Err(DpsdError::invalid_parameter(
                        "schedule.ratio",
                        format!("must be in (0, 1], got {ratio}"),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Configuration of a streaming ingestor.
#[derive(Debug, Clone)]
pub struct StreamConfig<const D: usize = 2> {
    /// Data domain; absorbed points must lie inside.
    pub domain: Rect<D>,
    /// Tree height `h` (fanout is `2^D`), fixed for the stream's life.
    pub height: usize,
    /// Per-epoch epsilon schedule.
    pub schedule: EpsilonSchedule,
    /// Lifetime privacy cap the ledger enforces across all releases.
    pub budget_cap: f64,
    /// Base RNG seed; epoch `e` noise uses [`epoch_seed`]`(seed, e)`.
    pub seed: u64,
    /// Sliding window in epochs: `Some(W)` makes every release cover
    /// only the last `W` epochs' points; `None` keeps the
    /// growing-prefix model. See the module docs.
    pub window: Option<u64>,
    /// Per-user contribution cap: `Some(C)` admits at most `C` points
    /// per user per window (per stream lifetime without a window) and
    /// debits `C ·` epsilon per release. `None` leaves admission
    /// unbounded with per-point accounting.
    pub user_cap: Option<u64>,
}

impl<const D: usize> StreamConfig<D> {
    /// A streaming config without a window or a user cap. Every
    /// release is post-processed with OLS, like the batch default.
    pub fn new(
        domain: Rect<D>,
        height: usize,
        schedule: EpsilonSchedule,
        budget_cap: f64,
        seed: u64,
    ) -> Self {
        StreamConfig {
            domain,
            height,
            schedule,
            budget_cap,
            seed,
            window: None,
            user_cap: None,
        }
    }

    /// Returns the config with a sliding window of `window` epochs
    /// (must be in `1..=`[`MAX_WINDOW_EPOCHS`]).
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = Some(window);
        self
    }

    /// Returns the config with a per-user admission cap of `cap`
    /// contributions per window (must be at least one).
    pub fn with_user_cap(mut self, cap: u64) -> Self {
        self.user_cap = Some(cap);
        self
    }

    /// The ledger debit of epoch `epoch`'s release: the schedule's
    /// epsilon, multiplied by the user cap when one is configured —
    /// group privacy over the at most `C` in-window points any one
    /// user contributes. Exposed so external accounting checks can
    /// recompute ledger spend bit-for-bit.
    pub fn release_debit(&self, epoch: u64) -> f64 {
        let eps = self.schedule.epoch_epsilon(epoch);
        match self.user_cap {
            Some(cap) => eps * cap as f64,
            None => eps,
        }
    }
}

/// Outcome of one admission-checked absorb
/// ([`StreamIngestor::absorb_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The point was absorbed into the counters.
    Admitted,
    /// The point's user already has the full cap of in-window
    /// contributions; the point was dropped and nothing changed.
    Capped,
}

/// One epoch's contribution to a sliding window: the per-node counts
/// absorbed during that epoch and, under a user cap, how many points
/// each user contributed. Aging subtracts these from the running
/// totals; the slot is then recycled for a future epoch.
#[derive(Debug, Clone, Default)]
struct EpochBucket {
    counts: Vec<u64>,
    users: HashMap<u64, u64>,
}

/// One materialized epoch release.
#[derive(Debug, Clone)]
pub struct EpochRelease<const D: usize> {
    /// Zero-based epoch index of this release.
    pub epoch: u64,
    /// Epsilon this release debited from the ledger.
    pub epsilon: f64,
    /// The derived seed its noise was drawn with.
    pub seed: u64,
    /// Admitted points at release time. The release covers admitted
    /// points `window_start..points`.
    pub points: u64,
    /// Index of the first admitted point the release covers: zero in
    /// the growing-prefix model, the start of the in-window suffix
    /// under a sliding window.
    pub window_start: u64,
    /// Epsilon actually debited from the ledger —
    /// [`StreamConfig::release_debit`]: `epsilon` itself, or
    /// `user_cap · epsilon` under user bounding.
    pub debited: f64,
    /// The publishable artifact.
    pub synopsis: ReleasedSynopsis<D>,
}

/// A streaming accumulator over the midpoint (`2^D`-ary) family.
///
/// Absorb points with [`absorb`](Self::absorb), materialize an epoch
/// with [`release_epoch`](Self::release_epoch). See the module docs for
/// the determinism and accounting contracts.
#[derive(Debug, Clone)]
pub struct StreamIngestor<const D: usize> {
    config: StreamConfig<D>,
    /// Node rectangles in heap order, fixed at construction (the
    /// midpoint family is data-independent).
    rects: Vec<Rect<D>>,
    /// Exact per-node counts in heap order. With a sliding window
    /// these are the *in-window* totals (expired buckets subtracted
    /// out); without one, lifetime totals.
    counts: Vec<u64>,
    /// Per-epoch bucket ring of `window` slots (epoch `e` lives at
    /// slot `e % window`); empty without a window.
    buckets: Vec<EpochBucket>,
    /// In-window admitted contributions per user; lifetime totals when
    /// no window is configured. Empty without a user cap.
    user_window: HashMap<u64, u64>,
    /// Index of the first admitted point still inside the window.
    window_start: u64,
    /// Buckets aged out of the window (by subtraction) so far.
    buckets_evicted: u64,
    /// Points rejected by the user cap so far.
    admission_drops: u64,
    total_points: u64,
    epoch: u64,
    ledger: EpsilonLedger,
    sketch: CountMinSketch,
    /// Running `(fine-grid key, Count-Min estimate)` maximum.
    hot: Option<(u64, u64)>,
}

impl<const D: usize> StreamIngestor<D> {
    /// Creates an ingestor; validates the geometry, height, schedule,
    /// and budget cap with the same error kinds as the batch builder,
    /// and refuses a schedule whose first epoch the batch builder's
    /// budgets would refuse (an epsilon that cannot be noised or
    /// weighed), so such a stream is never created.
    pub fn new(config: StreamConfig<D>) -> Result<Self, DpsdError> {
        if D == 0 {
            return Err(BuildError::UnsupportedDimension {
                kind: TreeKind::Quadtree,
                dims: D,
            }
            .into());
        }
        if config.domain.area() <= 0.0 {
            return Err(BuildError::DegenerateDomain {
                min: config.domain.min.to_vec(),
                max: config.domain.max.to_vec(),
            }
            .into());
        }
        let fanout = 1usize << D;
        let m = match complete_tree_nodes_checked(fanout, config.height) {
            Some(m) if m <= MAX_STREAM_NODES => m,
            got => {
                return Err(BuildError::TooManyNodes {
                    height: config.height,
                    nodes: got.unwrap_or(usize::MAX),
                }
                .into())
            }
        };
        config.schedule.validate()?;
        batch_config_for(&config, 0).budgets()?;
        if let Some(w) = config.window {
            if !(1..=MAX_WINDOW_EPOCHS).contains(&w) {
                return Err(DpsdError::invalid_parameter(
                    "window",
                    format!("must be in 1..={MAX_WINDOW_EPOCHS} epochs, got {w}"),
                ));
            }
            // The ring keeps one counter array per in-window epoch on
            // top of the running totals; the node cap covers them all.
            match m.checked_mul(w as usize + 1) {
                Some(total) if total <= MAX_STREAM_NODES => {}
                _ => {
                    return Err(BuildError::TooManyNodes {
                        height: config.height,
                        nodes: m.saturating_mul(w as usize + 1),
                    }
                    .into())
                }
            }
        }
        if let Some(c) = config.user_cap {
            if c == 0 {
                return Err(DpsdError::invalid_parameter(
                    "user_cap",
                    "must be at least 1 contribution per user per window",
                ));
            }
        }
        let ledger = EpsilonLedger::new(config.budget_cap)?;
        // Midpoint geometry is fixed up front: the batch builder's own
        // recursion, run over no points, cuts the same boxes.
        let mut rects = vec![config.domain; m];
        split_points(
            config.height,
            0,
            0,
            config.domain,
            &mut [],
            &mut rects,
            &mut vec![0.0; m],
            &mut Vec::new(),
            &mut |axis, r| r.midpoint(axis),
        );
        let sketch = CountMinSketch::new(SKETCH_WIDTH, SKETCH_DEPTH, config.seed);
        let buckets = match config.window {
            Some(w) => vec![
                EpochBucket {
                    counts: vec![0; m],
                    users: HashMap::new(),
                };
                w as usize
            ],
            None => Vec::new(),
        };
        Ok(StreamIngestor {
            config,
            rects,
            counts: vec![0; m],
            buckets,
            user_window: HashMap::new(),
            window_start: 0,
            buckets_evicted: 0,
            admission_drops: 0,
            total_points: 0,
            epoch: 0,
            ledger,
            sketch,
            hot: None,
        })
    }

    /// Absorbs one point: an `O(h * D)` root-to-leaf descent that
    /// increments the exact counter of every node on the path, plus a
    /// Count-Min update for monitoring. Points outside the domain are
    /// rejected with the batch builder's error and change nothing.
    /// Fails with [`DpsdError::InvalidParameter`] when a user cap is
    /// configured — capped streams must identify the contributor via
    /// [`absorb_from`](Self::absorb_from).
    pub fn absorb(&mut self, p: Point<D>) -> Result<(), DpsdError> {
        self.absorb_from(p, None).map(|_| ())
    }

    /// Absorbs one point on behalf of `user`, enforcing the per-user
    /// admission cap when one is configured.
    ///
    /// Admission is decided deterministically in absorb order: a user
    /// at the cap gets [`Admission::Capped`] back and *nothing*
    /// changes — no counter, no sketch, no total. With a sliding
    /// window the point is also charged to the current epoch's bucket
    /// so the user's allowance returns when that epoch expires. A
    /// `None` user is an [`DpsdError::InvalidParameter`] error when a
    /// cap is configured and is ignored otherwise.
    pub fn absorb_from(&mut self, p: Point<D>, user: Option<u64>) -> Result<Admission, DpsdError> {
        if !self.config.domain.contains(p) {
            return Err(BuildError::PointOutsideDomain(p.coords.to_vec()).into());
        }
        let admitted_user = match (self.config.user_cap, user) {
            (Some(cap), Some(id)) => {
                if self.user_window.get(&id).copied().unwrap_or(0) >= cap {
                    self.admission_drops += 1;
                    return Ok(Admission::Capped);
                }
                Some(id)
            }
            (Some(_), None) => {
                return Err(DpsdError::invalid_parameter(
                    "user_id",
                    "required for every point when a user cap is configured",
                ))
            }
            (None, _) => None,
        };
        let fanout = 1usize << D;
        let slot = self.config.window.map(|w| (self.epoch % w) as usize);
        let mut v = 0usize;
        self.counts[0] += 1;
        if let Some(s) = slot {
            self.buckets[s].counts[0] += 1;
        }
        for _ in 0..self.config.height {
            // `orthant_of` sends `coord >= midpoint` to the upper
            // child — the same boundary rule as the batch partitioner,
            // so prefix counts match batch counts exactly.
            let j = self.rects[v].orthant_of(&p);
            v = fanout * v + 1 + j;
            self.counts[v] += 1;
            if let Some(s) = slot {
                self.buckets[s].counts[v] += 1;
            }
        }
        if let Some(id) = admitted_user {
            *self.user_window.entry(id).or_insert(0) += 1;
            if let Some(s) = slot {
                *self.buckets[s].users.entry(id).or_insert(0) += 1;
            }
        }
        self.total_points += 1;
        let key = grid_key(&self.config.domain, &p);
        self.sketch.absorb(key);
        let est = self.sketch.estimate(key);
        if self.hot.is_none_or(|(_, e)| est > e) {
            self.hot = Some((key, est));
        }
        Ok(Admission::Admitted)
    }

    /// Absorbs a slice of points in order. Stops at the first rejected
    /// point; points before it stay absorbed.
    pub fn absorb_all(&mut self, points: &[Point<D>]) -> Result<(), DpsdError> {
        for &p in points {
            self.absorb(p)?;
        }
        Ok(())
    }

    /// Materializes the current epoch's release and advances the epoch
    /// counter (which, under a sliding window, also ages out the
    /// bucket that just left the window — by subtraction, never by
    /// re-scan).
    ///
    /// Computes the release's budgets, then debits
    /// [`StreamConfig::release_debit`] from the ledger before any noise
    /// is drawn: if either step fails (an overdraw is
    /// [`DpsdError::BudgetExhausted`]), nothing changes (the epoch does
    /// not advance and further absorbs still work). The artifact
    /// is byte-identical to building [`Self::batch_config`] over the
    /// covered points — the whole admitted prefix, or the in-window
    /// suffix `admitted[window_start..]` — and releasing it.
    pub fn release_epoch(&mut self) -> Result<EpochRelease<D>, DpsdError> {
        let (batch, budgets) = self.next_budgets()?;
        // Under a user cap the release costs `cap ×` the epoch epsilon
        // (group privacy over a user's in-window points), making the
        // ledger cap a per-user budget.
        let debit = self.config.release_debit(self.epoch);
        self.ledger.debit(debit)?;
        // The batch build's tail, with the counters standing in for its
        // structure stage (see the module docs).
        let true_counts = self.counts.iter().map(|&c| c as f64).collect();
        let tree = batch.release_counts(budgets, &self.rects, true_counts, &mut seeded(batch.seed));
        let release = EpochRelease {
            epoch: self.epoch,
            epsilon: batch.epsilon,
            seed: batch.seed,
            points: self.total_points,
            window_start: self.window_start,
            debited: debit,
            synopsis: tree.into_release(),
        };
        self.epoch += 1;
        self.advance_window();
        Ok(release)
    }

    /// Checks, without mutating anything, that the next
    /// [`Self::release_epoch`] would pass its schedule validation and
    /// ledger debit. Error order and comparisons are exactly those of
    /// `release_epoch` itself, so a caller that reserves budget in an
    /// *external* ledger (the serve layer's per-tenant account) can
    /// check here first and know the internal debit cannot fail after
    /// the external one succeeded.
    pub fn check_next_release(&self) -> Result<(), DpsdError> {
        self.next_budgets()?;
        self.ledger.check(self.config.release_debit(self.epoch))
    }

    /// The next release's batch config and budgets, refused with the
    /// batch builder's [`BuildError::InvalidEpsilon`] when its epsilon
    /// cannot be noised.
    fn next_budgets(&self) -> Result<(PsdConfig<D>, LevelBudgets), DpsdError> {
        // Deep geometric epochs shrink toward zero; the batch builder's
        // own check refuses them before either ledger is touched.
        let batch = self.batch_config(self.epoch);
        let budgets = batch.budgets()?;
        Ok((batch, budgets))
    }

    /// Ages the bucket that just left the window (if any) out of the
    /// running totals by subtraction and recycles its slot for the
    /// epoch that now begins. Driven purely by the epoch counter —
    /// never by a clock, never by re-scanning points.
    fn advance_window(&mut self) {
        let Some(w) = self.config.window else {
            return;
        };
        let slot = (self.epoch % w) as usize;
        if self.epoch < w {
            // The slot has never held an epoch yet: nothing leaves the
            // window until `window` epochs have been released.
            return;
        }
        let mut bucket = std::mem::take(&mut self.buckets[slot]);
        self.window_start += bucket.counts[0];
        for (run, b) in self.counts.iter_mut().zip(&bucket.counts) {
            *run -= b;
        }
        for (&id, &n) in &bucket.users {
            if let Some(total) = self.user_window.get_mut(&id) {
                *total = total.saturating_sub(n);
                if *total == 0 {
                    self.user_window.remove(&id);
                }
            }
        }
        self.buckets_evicted += 1;
        // Recycle the allocations for the epoch that now begins.
        bucket.counts.fill(0);
        bucket.users.clear();
        self.buckets[slot] = bucket;
    }

    /// The batch configuration whose build over this stream's point
    /// prefix reproduces epoch `epoch`'s release byte-for-byte.
    pub fn batch_config(&self, epoch: u64) -> PsdConfig<D> {
        batch_config_for(&self.config, epoch)
    }

    /// Points absorbed so far.
    pub fn total_points(&self) -> u64 {
        self.total_points
    }

    /// The next epoch to be released (equals the number of releases so
    /// far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epsilon the next [`release_epoch`](Self::release_epoch) will ask
    /// the ledger for.
    pub fn next_epoch_epsilon(&self) -> f64 {
        self.config.schedule.epoch_epsilon(self.epoch)
    }

    /// The ledger tracking lifetime spend.
    pub fn ledger(&self) -> &EpsilonLedger {
        &self.ledger
    }

    /// The stream configuration.
    pub fn config(&self) -> &StreamConfig<D> {
        &self.config
    }

    /// Number of tree nodes the stream maintains.
    pub fn node_count(&self) -> usize {
        self.counts.len()
    }

    /// The monitoring sketch.
    pub fn sketch(&self) -> &CountMinSketch {
        &self.sketch
    }

    /// The hottest fine-grid cell seen so far, as
    /// `(packed cell key, Count-Min estimate)` — `None` before the
    /// first absorb. The estimate may overcount (Count-Min), never
    /// undercounts.
    pub fn hot_cell(&self) -> Option<(u64, u64)> {
        self.hot
    }

    /// Sliding-window length in epochs, if configured.
    pub fn window(&self) -> Option<u64> {
        self.config.window
    }

    /// Per-user admission cap, if configured.
    pub fn user_cap(&self) -> Option<u64> {
        self.config.user_cap
    }

    /// Index of the first admitted point inside the current window
    /// (always zero in the growing-prefix model). The next release
    /// covers admitted points `window_start()..total_points()`.
    pub fn window_start(&self) -> u64 {
        self.window_start
    }

    /// Admitted points currently inside the window (all of them in the
    /// growing-prefix model).
    pub fn window_points(&self) -> u64 {
        self.total_points - self.window_start
    }

    /// Buckets aged out of the window (by subtraction) so far.
    pub fn buckets_evicted(&self) -> u64 {
        self.buckets_evicted
    }

    /// Points dropped by the user cap so far.
    pub fn admission_drops(&self) -> u64 {
        self.admission_drops
    }

    /// Users with at least one in-window admitted contribution.
    pub fn tracked_users(&self) -> usize {
        self.user_window.len()
    }

    /// Users currently at the admission cap (zero without a cap).
    pub fn capped_users(&self) -> usize {
        match self.config.user_cap {
            Some(cap) => self.user_window.values().filter(|&&n| n >= cap).count(),
            None => 0,
        }
    }

    /// In-window contributions admitted for `user`.
    pub fn user_window_count(&self, user: u64) -> u64 {
        self.user_window.get(&user).copied().unwrap_or(0)
    }

    /// Epsilon the next [`release_epoch`](Self::release_epoch) will
    /// debit from the ledger ([`StreamConfig::release_debit`] —
    /// differs from [`next_epoch_epsilon`](Self::next_epoch_epsilon)
    /// exactly when a user cap is configured).
    pub fn next_release_debit(&self) -> f64 {
        self.config.release_debit(self.epoch)
    }
}

/// See [`StreamIngestor::batch_config`]; free-standing so verifiers can
/// build the reference config without an ingestor.
pub fn batch_config_for<const D: usize>(config: &StreamConfig<D>, epoch: u64) -> PsdConfig<D> {
    PsdConfig::quadtree(
        config.domain,
        config.height,
        config.schedule.epoch_epsilon(epoch),
    )
    .with_seed(epoch_seed(config.seed, epoch))
}

/// Quantizes a point to the fine monitoring grid: `SKETCH_GRID` cells
/// per axis, one byte per axis packed most-significant-first (capped at
/// eight axes, far above the supported dimensions).
fn grid_key<const D: usize>(domain: &Rect<D>, p: &Point<D>) -> u64 {
    let mut key = 0u64;
    for k in 0..D.min(8) {
        let side = domain.max[k] - domain.min[k];
        let frac = ((p.coords[k] - domain.min[k]) / side).clamp(0.0, 1.0);
        let cell = ((frac * SKETCH_GRID as f64) as u64).min(SKETCH_GRID - 1);
        key = key << 8 | cell;
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PsdTree;

    fn unit_domain() -> Rect {
        Rect::new(0.0, 0.0, 64.0, 64.0).unwrap()
    }

    /// A deterministic, clustered point stream.
    fn stream_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    ((i * 13 + 5) % 640) as f64 * 0.1,
                    ((i * 29 + 11) % 640) as f64 * 0.1,
                )
            })
            .collect()
    }

    fn fixed(epsilon: f64) -> EpsilonSchedule {
        EpsilonSchedule::Fixed { epsilon }
    }

    #[test]
    fn stream_release_matches_batch_build_bytes() {
        let pts = stream_points(900);
        let config = StreamConfig::new(unit_domain(), 4, fixed(0.5), 10.0, 42);
        let mut ingestor = StreamIngestor::new(config.clone()).unwrap();
        for (prefix_len, epoch) in [(300usize, 0u64), (600, 1), (900, 2)] {
            ingestor
                .absorb_all(&pts[if epoch == 0 { 0 } else { prefix_len - 300 }..prefix_len])
                .unwrap();
            let release = ingestor.release_epoch().unwrap();
            assert_eq!(release.epoch, epoch);
            assert_eq!(release.points, prefix_len as u64);
            let batch = batch_config_for(&config, epoch)
                .build(&pts[..prefix_len])
                .unwrap()
                .release();
            assert_eq!(
                release.synopsis.to_flat_bytes(),
                batch.to_flat_bytes(),
                "epoch {epoch} artifact diverged from batch build"
            );
        }
    }

    #[test]
    fn stream_matches_batch_in_three_dimensions() {
        let domain = Rect::<3>::from_corners([0.0; 3], [32.0; 3]).unwrap();
        let pts: Vec<Point<3>> = (0..500)
            .map(|i| {
                Point::from_coords([
                    ((i * 7) % 320) as f64 * 0.1,
                    ((i * 11 + 3) % 320) as f64 * 0.1,
                    ((i * 17 + 5) % 320) as f64 * 0.1,
                ])
            })
            .collect();
        let config = StreamConfig::new(domain, 3, fixed(0.8), 5.0, 7);
        let mut ingestor = StreamIngestor::new(config.clone()).unwrap();
        ingestor.absorb_all(&pts).unwrap();
        let release = ingestor.release_epoch().unwrap();
        let batch = batch_config_for(&config, 0).build(&pts).unwrap().release();
        assert_eq!(release.synopsis.to_flat_bytes(), batch.to_flat_bytes());
    }

    #[test]
    fn ledger_exhaustion_blocks_release_not_ingest() {
        let config = StreamConfig::new(unit_domain(), 2, fixed(0.6), 1.0, 1);
        let mut ingestor = StreamIngestor::new(config).unwrap();
        ingestor.absorb_all(&stream_points(50)).unwrap();
        ingestor.release_epoch().unwrap();
        // Second release would spend 1.2 > 1.0.
        let err = ingestor.release_epoch().unwrap_err();
        assert!(matches!(err, DpsdError::BudgetExhausted { .. }));
        assert_eq!(ingestor.epoch(), 1, "failed release must not advance");
        assert_eq!(ingestor.ledger().spent(), 0.6);
        // The stream keeps absorbing fine.
        ingestor.absorb(Point::new(1.0, 1.0)).unwrap();
        assert_eq!(ingestor.total_points(), 51);
    }

    #[test]
    fn unnoisable_epoch_is_refused_before_the_debit() {
        // A first epoch that cannot be noised refuses the stream itself.
        for eps in [1e-310, 1e153] {
            let config = StreamConfig::new(unit_domain(), 3, fixed(eps), 1.0, 1);
            assert!(matches!(
                StreamIngestor::new(config),
                Err(DpsdError::Build(BuildError::InvalidEpsilon(e))) if e == eps
            ));
        }
        // A later one is refused at its boundary, before the debit.
        let schedule = EpsilonSchedule::Geometric {
            first: 0.5,
            ratio: 1e-200,
        };
        let config = StreamConfig::new(unit_domain(), 3, schedule, 1.0, 1);
        let mut ingestor = StreamIngestor::new(config).unwrap();
        ingestor.absorb_all(&stream_points(20)).unwrap();
        ingestor.release_epoch().unwrap();
        for _ in 0..3 {
            assert!(matches!(
                ingestor.check_next_release(),
                Err(DpsdError::Build(BuildError::InvalidEpsilon(_)))
            ));
            assert!(matches!(
                ingestor.release_epoch(),
                Err(DpsdError::Build(BuildError::InvalidEpsilon(_)))
            ));
        }
        assert_eq!(ingestor.ledger().spent(), 0.5);
        assert_eq!(ingestor.epoch(), 1);
    }

    #[test]
    fn geometric_schedule_decays_and_converges() {
        let schedule = EpsilonSchedule::Geometric {
            first: 0.4,
            ratio: 0.5,
        };
        assert_eq!(schedule.epoch_epsilon(0), 0.4);
        assert_eq!(schedule.epoch_epsilon(1), 0.2);
        assert_eq!(schedule.epoch_epsilon(2), 0.1);
        // Total converges to first / (1 - ratio) = 0.8: a cap at 0.8
        // admits many epochs.
        let config = StreamConfig::new(unit_domain(), 2, schedule, 0.8, 3);
        let mut ingestor = StreamIngestor::new(config).unwrap();
        ingestor.absorb_all(&stream_points(20)).unwrap();
        for _ in 0..20 {
            ingestor.release_epoch().unwrap();
        }
        assert!(ingestor.ledger().spent() < 0.8);
    }

    #[test]
    fn out_of_domain_point_rejected_like_batch() {
        let mut ingestor =
            StreamIngestor::new(StreamConfig::new(unit_domain(), 2, fixed(0.5), 1.0, 1)).unwrap();
        let err = ingestor.absorb(Point::new(-1.0, 5.0)).unwrap_err();
        assert!(matches!(
            err,
            DpsdError::Build(BuildError::PointOutsideDomain(_))
        ));
        assert_eq!(ingestor.total_points(), 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let line = Rect::new(0.0, 0.0, 1.0, 0.0).unwrap();
        assert!(matches!(
            StreamIngestor::new(StreamConfig::new(line, 2, fixed(0.5), 1.0, 1)),
            Err(DpsdError::Build(BuildError::DegenerateDomain { .. }))
        ));
        assert!(matches!(
            StreamIngestor::new(StreamConfig::new(unit_domain(), 30, fixed(0.5), 1.0, 1)),
            Err(DpsdError::Build(BuildError::TooManyNodes { .. }))
        ));
        assert!(
            StreamIngestor::new(StreamConfig::new(unit_domain(), 2, fixed(0.0), 1.0, 1)).is_err()
        );
        assert!(StreamIngestor::new(StreamConfig::new(
            unit_domain(),
            2,
            EpsilonSchedule::Geometric {
                first: 0.5,
                ratio: 1.5
            },
            1.0,
            1
        ))
        .is_err());
        assert!(
            StreamIngestor::new(StreamConfig::new(unit_domain(), 2, fixed(0.5), 0.0, 1)).is_err()
        );
    }

    #[test]
    fn epoch_seeds_are_stable_and_distinct() {
        assert_eq!(epoch_seed(42, 0), epoch_seed(42, 0));
        let seeds: Vec<u64> = (0..16).map(|e| epoch_seed(42, e)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "epoch seeds collided");
        assert_ne!(epoch_seed(1, 0), epoch_seed(2, 0));
    }

    #[test]
    fn counters_match_batch_true_counts() {
        let pts = stream_points(400);
        let config = StreamConfig::new(unit_domain(), 3, fixed(0.5), 10.0, 9);
        let mut ingestor = StreamIngestor::new(config.clone()).unwrap();
        ingestor.absorb_all(&pts).unwrap();
        let tree = batch_config_for(&config, 0).build(&pts).unwrap();
        for v in 0..ingestor.node_count() {
            assert_eq!(
                ingestor.counts[v] as f64,
                tree.true_count(v),
                "node {v} counter diverged"
            );
        }
    }

    /// A lattice over `[0, 8]^D` with a point on every cut of a
    /// `height`-high midpoint tree, one between each pair of cuts, and
    /// one on the domain's upper corner.
    fn cut_lattice<const D: usize>(height: usize) -> Vec<Point<D>> {
        let side = (2usize << height) + 1;
        let step = 8.0 / (side - 1) as f64;
        (0..side.pow(D as u32))
            .map(|i| {
                Point::from_coords(std::array::from_fn(|k| {
                    (i / side.pow(k as u32) % side) as f64 * step
                }))
            })
            .collect()
    }

    /// Checks that every child of `tree` counts exactly its parent's
    /// points on its side of each of its cuts, a point on a cut going to
    /// the high side, and that the root counts every point. Returns how
    /// many times a point sat on a cut.
    fn ties_go_high<const D: usize>(tree: &PsdTree<D>, pts: &[Point<D>]) -> usize {
        assert_eq!(tree.true_count(0), pts.len() as f64, "root");
        let mut members = vec![Vec::new(); tree.node_count()];
        members[0] = pts.to_vec();
        let mut ties = 0;
        for v in tree.node_ids() {
            for (j, c) in tree.children(v).enumerate() {
                let r = tree.rect(c);
                let side: Vec<Point<D>> = members[v]
                    .iter()
                    .copied()
                    .filter(|p| {
                        (0..D).all(|k| {
                            if j >> (D - 1 - k) & 1 == 1 {
                                ties += usize::from(p.coords[k] == r.min[k]);
                                p.coords[k] >= r.min[k]
                            } else {
                                p.coords[k] < r.max[k]
                            }
                        })
                    })
                    .collect();
                assert_eq!(tree.true_count(c), side.len() as f64, "node {c}");
                members[c] = side;
            }
        }
        ties
    }

    #[test]
    fn cut_points_go_high_in_batch_and_stream() {
        fn check<const D: usize>(height: usize) {
            let domain = Rect::from_corners([0.0; D], [8.0; D]).unwrap();
            let pts = cut_lattice::<D>(height);
            let res = 1 << height;
            let kd_cell = PsdConfig::kd_cell(domain, height, 50.0, (res, res))
                .with_seed(3)
                .build(&pts)
                .unwrap();
            assert!(ties_go_high(&kd_cell, &pts) > 0, "kd-cell D = {D}");
            let config = StreamConfig::new(domain, height, fixed(1.0), 10.0, 5);
            let quadtree = batch_config_for(&config, 0).build(&pts).unwrap();
            assert!(ties_go_high(&quadtree, &pts) > 0, "quadtree D = {D}");
            // The stream's boxes are the batch boxes, and `orthant_of`
            // sends every tie the same way the batch partition does.
            let mut ingestor = StreamIngestor::new(config).unwrap();
            ingestor.absorb_all(&pts).unwrap();
            for v in quadtree.node_ids() {
                assert_eq!(ingestor.rects[v], quadtree.rect(v), "box {v}");
                assert_eq!(
                    ingestor.counts[v] as f64,
                    quadtree.true_count(v),
                    "node {v}"
                );
            }
        }
        check::<1>(4);
        check::<2>(3);
        check::<3>(2);
    }

    #[test]
    fn hot_cell_tracks_the_heavy_cluster() {
        let mut ingestor =
            StreamIngestor::new(StreamConfig::new(unit_domain(), 2, fixed(0.5), 1.0, 5)).unwrap();
        assert_eq!(ingestor.hot_cell(), None);
        // 50 scattered points, then 300 into one tight cluster.
        for i in 0..50 {
            ingestor
                .absorb(Point::new((i % 60) as f64, ((i * 7) % 60) as f64))
                .unwrap();
        }
        for _ in 0..300 {
            ingestor.absorb(Point::new(10.05, 20.05)).unwrap();
        }
        let (_, estimate) = ingestor.hot_cell().unwrap();
        assert!(estimate >= 300, "cluster estimate {estimate} undercounts");
    }

    #[test]
    fn windowed_release_matches_suffix_build() {
        let pts = stream_points(1000);
        let per_epoch = 200usize;
        let window = 2u64;
        let config = StreamConfig::new(unit_domain(), 4, fixed(0.5), 100.0, 42).with_window(window);
        let mut ingestor = StreamIngestor::new(config.clone()).unwrap();
        for epoch in 0..5u64 {
            let hi = (epoch as usize + 1) * per_epoch;
            ingestor.absorb_all(&pts[hi - per_epoch..hi]).unwrap();
            let release = ingestor.release_epoch().unwrap();
            assert_eq!(release.epoch, epoch);
            assert_eq!(release.points as usize, hi);
            let expect_start = (epoch + 1).saturating_sub(window) * per_epoch as u64;
            assert_eq!(release.window_start, expect_start);
            let suffix = &pts[expect_start as usize..hi];
            let batch = batch_config_for(&config, epoch)
                .build(suffix)
                .unwrap()
                .release();
            assert_eq!(
                release.synopsis.to_flat_bytes(),
                batch.to_flat_bytes(),
                "epoch {epoch} windowed artifact diverged from the suffix build"
            );
        }
        // After 5 releases the stream sits at epoch 5; with a window
        // of 2 the post-release advances have aged out epochs 0..=3.
        assert_eq!(ingestor.buckets_evicted(), 4);
        assert_eq!(ingestor.window_start(), 800);
        assert_eq!(ingestor.window_points(), 200);
    }

    #[test]
    fn window_of_one_covers_only_the_current_epoch() {
        let pts = stream_points(90);
        let config = StreamConfig::new(unit_domain(), 3, fixed(0.7), 100.0, 9).with_window(1);
        let mut ingestor = StreamIngestor::new(config.clone()).unwrap();
        for epoch in 0..3u64 {
            let lo = epoch as usize * 30;
            ingestor.absorb_all(&pts[lo..lo + 30]).unwrap();
            let release = ingestor.release_epoch().unwrap();
            assert_eq!(release.window_start, lo as u64);
            let batch = batch_config_for(&config, epoch)
                .build(&pts[lo..lo + 30])
                .unwrap()
                .release();
            assert_eq!(release.synopsis.to_flat_bytes(), batch.to_flat_bytes());
        }
    }

    #[test]
    fn user_cap_bounds_admissions_per_window() {
        let config = StreamConfig::new(unit_domain(), 2, fixed(0.5), 100.0, 7)
            .with_window(2)
            .with_user_cap(3);
        let mut ingestor = StreamIngestor::new(config).unwrap();
        // One user floods epoch 0; only the cap's worth is absorbed.
        for i in 0..10 {
            let p = Point::new((i % 7) as f64 + 0.5, 1.0);
            let adm = ingestor.absorb_from(p, Some(99)).unwrap();
            assert_eq!(
                adm,
                if i < 3 {
                    Admission::Admitted
                } else {
                    Admission::Capped
                },
                "absorb {i}"
            );
        }
        assert_eq!(ingestor.total_points(), 3);
        assert_eq!(ingestor.admission_drops(), 7);
        assert_eq!(ingestor.user_window_count(99), 3);
        assert_eq!(ingestor.tracked_users(), 1);
        assert_eq!(ingestor.capped_users(), 1);
        // Another user is unaffected by 99's cap.
        assert_eq!(
            ingestor.absorb_from(Point::new(2.0, 2.0), Some(7)).unwrap(),
            Admission::Admitted
        );
        ingestor.release_epoch().unwrap();
        // Epoch 1: still inside the window of 2, so user 99 stays
        // capped...
        assert_eq!(
            ingestor
                .absorb_from(Point::new(3.0, 3.0), Some(99))
                .unwrap(),
            Admission::Capped
        );
        ingestor.release_epoch().unwrap();
        // ...but after epoch 0's bucket ages out the allowance returns.
        assert_eq!(ingestor.user_window_count(99), 0);
        assert_eq!(
            ingestor
                .absorb_from(Point::new(3.0, 3.0), Some(99))
                .unwrap(),
            Admission::Admitted
        );
        assert_eq!(ingestor.user_window_count(99), 1);
    }

    #[test]
    fn lifetime_user_cap_never_resets_without_a_window() {
        let config = StreamConfig::new(unit_domain(), 2, fixed(0.1), 100.0, 3).with_user_cap(1);
        let mut ingestor = StreamIngestor::new(config).unwrap();
        assert_eq!(
            ingestor.absorb_from(Point::new(1.0, 1.0), Some(5)).unwrap(),
            Admission::Admitted
        );
        for _ in 0..4 {
            ingestor.release_epoch().unwrap();
            assert_eq!(
                ingestor.absorb_from(Point::new(1.0, 1.0), Some(5)).unwrap(),
                Admission::Capped
            );
        }
        assert_eq!(ingestor.total_points(), 1);
    }

    #[test]
    fn user_cap_debits_group_privacy_bound() {
        let eps = 0.3;
        let cap = 4u64;
        let config = StreamConfig::new(unit_domain(), 2, fixed(eps), 100.0, 11)
            .with_window(1)
            .with_user_cap(cap);
        assert_eq!(config.release_debit(0).to_bits(), (eps * 4.0).to_bits());
        let mut ingestor = StreamIngestor::new(config.clone()).unwrap();
        ingestor.absorb_from(Point::new(1.0, 1.0), Some(1)).unwrap();
        let release = ingestor.release_epoch().unwrap();
        // The noise epsilon is the schedule's; the *debit* is the
        // group-privacy bound, bit-for-bit.
        assert_eq!(release.epsilon.to_bits(), eps.to_bits());
        assert_eq!(release.debited.to_bits(), (eps * cap as f64).to_bits());
        assert_eq!(
            ingestor.ledger().spent().to_bits(),
            config.release_debit(0).to_bits()
        );
    }

    #[test]
    fn user_cap_requires_user_ids() {
        let config = StreamConfig::new(unit_domain(), 2, fixed(0.5), 1.0, 1).with_user_cap(2);
        let mut ingestor = StreamIngestor::new(config).unwrap();
        assert!(matches!(
            ingestor.absorb(Point::new(1.0, 1.0)),
            Err(DpsdError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ingestor.absorb_from(Point::new(1.0, 1.0), None),
            Err(DpsdError::InvalidParameter { .. })
        ));
        // Without a cap, user ids are accepted and ignored.
        let mut plain =
            StreamIngestor::new(StreamConfig::new(unit_domain(), 2, fixed(0.5), 1.0, 1)).unwrap();
        assert_eq!(
            plain.absorb_from(Point::new(1.0, 1.0), Some(9)).unwrap(),
            Admission::Admitted
        );
        assert_eq!(plain.tracked_users(), 0);
    }

    #[test]
    fn capped_absorb_changes_nothing() {
        let config = StreamConfig::new(unit_domain(), 3, fixed(0.5), 100.0, 13)
            .with_window(2)
            .with_user_cap(1);
        let mut ingestor = StreamIngestor::new(config).unwrap();
        ingestor.absorb_from(Point::new(5.0, 5.0), Some(1)).unwrap();
        let counts = ingestor.counts.clone();
        let total = ingestor.total_points();
        let hot = ingestor.hot_cell();
        assert_eq!(
            ingestor
                .absorb_from(Point::new(60.0, 60.0), Some(1))
                .unwrap(),
            Admission::Capped
        );
        assert_eq!(ingestor.counts, counts);
        assert_eq!(ingestor.total_points(), total);
        assert_eq!(ingestor.hot_cell(), hot);
        assert_eq!(ingestor.admission_drops(), 1);
    }

    #[test]
    fn invalid_window_and_cap_configs_rejected() {
        let base = || StreamConfig::new(unit_domain(), 2, fixed(0.5), 1.0, 1);
        assert!(matches!(
            StreamIngestor::new(base().with_window(0)),
            Err(DpsdError::InvalidParameter { .. })
        ));
        assert!(matches!(
            StreamIngestor::new(base().with_window(MAX_WINDOW_EPOCHS + 1)),
            Err(DpsdError::InvalidParameter { .. })
        ));
        assert!(matches!(
            StreamIngestor::new(base().with_user_cap(0)),
            Err(DpsdError::InvalidParameter { .. })
        ));
        // A height that fits unwindowed can exceed the node cap once
        // the ring multiplies it.
        let tall = StreamConfig::new(unit_domain(), 11, fixed(0.5), 1.0, 1).with_window(64);
        assert!(matches!(
            StreamIngestor::new(tall),
            Err(DpsdError::Build(BuildError::TooManyNodes { .. }))
        ));
    }

    #[test]
    fn unwindowed_stream_reports_prefix_coverage() {
        let config = StreamConfig::new(unit_domain(), 2, fixed(0.5), 10.0, 21);
        let mut ingestor = StreamIngestor::new(config).unwrap();
        ingestor.absorb_all(&stream_points(40)).unwrap();
        let release = ingestor.release_epoch().unwrap();
        assert_eq!(release.window_start, 0);
        assert_eq!(release.debited.to_bits(), release.epsilon.to_bits());
        assert_eq!(ingestor.window(), None);
        assert_eq!(ingestor.buckets_evicted(), 0);
        assert_eq!(ingestor.window_points(), 40);
    }
}
