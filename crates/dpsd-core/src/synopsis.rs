//! The backend-agnostic synopsis interface.
//!
//! The paper's central claim is that many private spatial decompositions
//! — quadtrees, kd-tree variants, Hilbert R-trees, flat grids — answer
//! the *same* question: "approximately how many individuals fall in this
//! rectangle?". [`SpatialSynopsis`] is that question as a trait, so
//! evaluation harnesses, servers, and applications can hold any backend
//! behind one interface and swap decompositions freely:
//!
//! * [`crate::tree::PsdTree`] — every family of the paper (quadtree,
//!   kd-standard/hybrid/cell/noisy-mean/pure/true, Hilbert R-tree), in
//!   any dimension;
//! * [`crate::tree::ReleasedSynopsis`] — a published, raw-data-free
//!   synopsis, loaded from JSON or `dpsd-bin` (and the serving arena);
//! * `FlatGrid` and `ExactIndex` in `dpsd-baselines`.
//!
//! [`SpatialSynopsis::query_batch`] answers a whole workload, in order,
//! as a loop of single queries, so each batched answer is bit-identical
//! to the single query. A batch is the natural unit for parallel
//! sharding: [`ParallelQuery`] (implemented for every `Sync` synopsis)
//! shards a workload across the [`crate::exec`] worker pool with answers
//! guaranteed bit-identical to the sequential path.

use crate::exec::{self, Parallelism};
use crate::geometry::Rect;
use crate::query::QueryProfile;

/// A queryable spatial synopsis: anything that can estimate range
/// counts over a fixed `D`-dimensional domain (`D = 2` when elided, so
/// `dyn SpatialSynopsis` and `S: SpatialSynopsis` bounds keep meaning
/// the planar trait of earlier releases).
///
/// Estimates from private backends are noisy (and may be negative);
/// exact backends return ground truth. `epsilon` reports the privacy
/// price of the synopsis: the total differential-privacy budget spent
/// building it, `0.0` for artifacts that consumed no budget, and
/// [`f64::INFINITY`] for non-private backends that expose exact data.
pub trait SpatialSynopsis<const D: usize = 2> {
    /// Estimated number of points inside `query`, using the backend's
    /// best released counts (post-processed when available).
    fn query(&self, query: &Rect<D>) -> f64;

    /// Answers every query of a workload, in order: maps
    /// [`query`](SpatialSynopsis::query) over `queries`. An override
    /// must return the same values bit for bit, which
    /// [`ParallelQuery`] relies on.
    fn query_batch(&self, queries: &[Rect<D>]) -> Vec<f64> {
        queries.iter().map(|q| self.query(q)).collect()
    }

    /// Answers one query and reports which released counts contributed
    /// (the `n_i` accounting of the paper's Lemma 2).
    fn query_profiled(&self, query: &Rect<D>) -> (f64, QueryProfile);

    /// The domain the synopsis covers.
    fn domain(&self) -> Rect<D>;

    /// Total privacy budget spent building the synopsis (see the trait
    /// docs for the `0.0` / `INFINITY` conventions).
    fn epsilon(&self) -> f64;

    /// Number of released aggregates (tree nodes or grid cells) backing
    /// the synopsis.
    fn node_count(&self) -> usize;
}

/// Parallel batched querying, available on **every** `Sync` synopsis
/// (including `dyn SpatialSynopsis + Sync` trait objects) through a
/// blanket implementation.
///
/// Queries are read-only, so a workload shards freely: the batch is cut
/// into contiguous chunks, each chunk runs the backend's own
/// [`SpatialSynopsis::query_batch`] on a worker thread, and the chunk
/// outputs are concatenated in submission order. Because `query_batch`
/// is guaranteed to answer each query exactly as a single
/// [`SpatialSynopsis::query`] would — bit-for-bit, not merely up to
/// float reassociation — the sharded result is **bit-identical to the
/// sequential path for every backend and every thread count**. The
/// `tests/bit_identity.rs` fingerprint suite and the cross-backend
/// proptests enforce this.
///
/// ```
/// use dpsd_core::exec::Parallelism;
/// use dpsd_core::geometry::{Point, Rect};
/// use dpsd_core::synopsis::{ParallelQuery, SpatialSynopsis};
/// use dpsd_core::tree::PsdConfig;
///
/// let domain = Rect::new(0.0, 0.0, 32.0, 32.0).unwrap();
/// let pts: Vec<Point> = (0..512)
///     .map(|i| Point::new((i % 32) as f64 + 0.5, (i / 32) as f64 + 0.5))
///     .collect();
/// let tree = PsdConfig::quadtree(domain, 3, 1.0).with_seed(1).build(&pts).unwrap();
/// let queries: Vec<Rect> = (0..200)
///     .map(|i| Rect::new(0.0, 0.0, 1.0 + (i % 31) as f64, 32.0).unwrap())
///     .collect();
/// let sequential = tree.query_batch(&queries);
/// let parallel = tree.query_batch_parallel(&queries, Parallelism::Auto);
/// assert_eq!(sequential, parallel); // bit-identical, any thread count
/// ```
pub trait ParallelQuery<const D: usize = 2>: SpatialSynopsis<D> + Sync {
    /// Answers every query of a workload, in order, sharding the batch
    /// across up to `par.threads()` workers. Returns exactly what
    /// [`SpatialSynopsis::query_batch`] returns.
    fn query_batch_parallel(&self, queries: &[Rect<D>], par: Parallelism) -> Vec<f64> {
        exec::par_map_shards(par, queries, exec::MIN_SHARD, |shard| {
            self.query_batch(shard)
        })
    }
}

impl<const D: usize, S: SpatialSynopsis<D> + Sync + ?Sized> ParallelQuery<D> for S {}

impl<const D: usize> SpatialSynopsis<D> for crate::tree::ReleasedSynopsis<D> {
    fn query(&self, query: &Rect<D>) -> f64 {
        self.answer(query, self.auto_counts())
    }

    fn query_profiled(&self, query: &Rect<D>) -> (f64, QueryProfile) {
        self.answer_profiled(query, self.auto_counts())
    }

    fn domain(&self) -> Rect<D> {
        self.domain
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn node_count(&self) -> usize {
        crate::tree::ReleasedSynopsis::node_count(self)
    }
}

/// A tree answers through its release: the `Auto` column is the same
/// on both.
impl<const D: usize> SpatialSynopsis<D> for crate::tree::PsdTree<D> {
    fn query(&self, query: &Rect<D>) -> f64 {
        (**self).query(query)
    }

    fn query_profiled(&self, query: &Rect<D>) -> (f64, QueryProfile) {
        (**self).query_profiled(query)
    }

    fn domain(&self) -> Rect<D> {
        self.domain
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn node_count(&self) -> usize {
        crate::tree::ReleasedSynopsis::node_count(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::tree::PsdConfig;

    fn backend() -> impl SpatialSynopsis {
        let domain = Rect::new(0.0, 0.0, 32.0, 32.0).unwrap();
        let pts: Vec<Point> = (0..256)
            .map(|i| Point::new((i % 16) as f64 * 2.0 + 0.5, (i / 16) as f64 * 2.0 + 0.5))
            .collect();
        PsdConfig::quadtree(domain, 3, 1.0)
            .with_seed(9)
            .build(&pts)
            .unwrap()
    }

    #[test]
    fn default_batch_matches_single_queries() {
        let s = backend();
        let queries: Vec<Rect> = (0..10)
            .map(|i| Rect::new(i as f64, 0.0, i as f64 + 8.0, 20.0).unwrap())
            .collect();
        // Exercise the trait's *default* body against single queries.
        fn default_batch<S: SpatialSynopsis>(s: &S, qs: &[Rect]) -> Vec<f64> {
            qs.iter().map(|q| s.query(q)).collect()
        }
        let batch = s.query_batch(&queries);
        assert_eq!(batch, default_batch(&s, &queries));
    }

    #[test]
    fn parallel_batch_is_bit_identical_for_every_thread_count() {
        let s = backend();
        let queries: Vec<Rect> = (0..300)
            .map(|i| {
                let x = (i % 13) as f64 * 2.0;
                let y = ((i * 5) % 11) as f64 * 2.5;
                Rect::new(x, y, x + 7.0, y + 5.0).unwrap()
            })
            .collect();
        let sequential = s.query_batch(&queries);
        for par in [
            Parallelism::Sequential,
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::fixed(8),
            Parallelism::Auto,
        ] {
            let parallel = s.query_batch_parallel(&queries, par);
            for (i, (&a, &b)) in sequential.iter().zip(&parallel).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{par:?} diverged at query {i}");
            }
        }
        // Works through a Sync trait object too.
        let dyn_ref: &(dyn SpatialSynopsis + Sync) = &s;
        assert_eq!(
            dyn_ref.query_batch_parallel(&queries, Parallelism::fixed(4)),
            sequential
        );
    }

    #[test]
    fn trait_object_is_usable() {
        let s = backend();
        let dyn_ref: &dyn SpatialSynopsis = &s;
        let d = dyn_ref.domain();
        assert!(dyn_ref.query(&d).is_finite());
        assert!(dyn_ref.epsilon() > 0.0);
        assert!(dyn_ref.node_count() > 0);
        let (est, profile) = dyn_ref.query_profiled(&d);
        assert!(est.is_finite());
        assert_eq!(profile.total_contained(), 1, "full domain hits the root");
    }
}
