//! # dpsd — Differentially Private Spatial Decompositions
//!
//! A from-scratch Rust implementation of Cormode, Procopiuc, Srivastava,
//! Shen, and Yu, *Differentially Private Spatial Decompositions*
//! (ICDE 2012): private quadtrees, kd-trees (standard, hybrid,
//! cell-based, noisy-mean), and Hilbert R-trees, with the paper's
//! geometric budget allocation, linear-time OLS post-processing, private
//! median mechanisms, sampling amplification, and pruning — plus the
//! experiment harness that regenerates every figure of the paper's
//! evaluation.
//!
//! The public API is organized around one idea: **every backend is a
//! [`SpatialSynopsis`]**. Trees of any family, the flat-grid and exact
//! baselines, the d-dimensional extension, and published
//! [`ReleasedSynopsis`] artifacts all answer the same range-count
//! questions — `query`, `query_batch` (a whole workload, bit-identical
//! to a loop of `query`), `query_profiled` — and report `domain`,
//! `epsilon`, and `node_count` uniformly. Anything fallible returns the
//! unified [`DpsdError`].
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`core`] ([`dpsd_core`]) — mechanisms, medians, budgets, trees,
//!   post-processing, queries, the synopsis trait, and streaming
//!   ingestion with continual epoch releases;
//! * [`hilbert`] ([`dpsd_hilbert`]) — the Hilbert curve substrate;
//! * [`data`] ([`dpsd_data`]) — synthetic datasets and query workloads;
//! * [`baselines`] ([`dpsd_baselines`]) — flat grids and exact counting;
//! * [`matching`] ([`dpsd_match`]) — private record matching (blocking);
//! * [`eval`] ([`dpsd_eval`]) — the per-figure experiment runners;
//! * [`serve`] ([`dpsd_serve`]) — the concurrent multi-tenant synopsis
//!   server (HTTP/1.1 + JSON, versioned registry with hot-swap, sharded
//!   LRU query cache) and its load generator.
//!
//! # Example: build, query, publish, serve
//!
//! ```
//! use dpsd::prelude::*;
//!
//! // Synthetic road-network data over the paper's TIGER bounding box.
//! let points = dpsd::data::synthetic::tiger_substitute(10_000, 42);
//!
//! // An optimized private quadtree: geometric budget + OLS, eps = 0.5.
//! let tree = PsdConfig::quadtree(TIGER_DOMAIN, 7, 0.5)
//!     .with_seed(7)
//!     .build(&points)
//!     .unwrap();
//!
//! // Ask how many individuals are in a 1x1 degree region — then ask a
//! // whole workload at once through the batch path.
//! let q = Rect::new(-122.5, 47.0, -121.5, 48.0).unwrap();
//! let estimate = tree.query(&q);
//! assert!(estimate.is_finite());
//! let answers = tree.query_batch(&[q, TIGER_DOMAIN]);
//! assert_eq!(answers[0], estimate);
//!
//! // Publish a raw-data-free JSON synopsis; a query server loads it and
//! // answers identically, never seeing a coordinate.
//! let published: String = tree.release().to_json();
//! let server = ReleasedSynopsis::from_json(&published).unwrap();
//! assert_eq!(server.query(&q), estimate);
//! ```

#![forbid(unsafe_code)]

pub use dpsd_baselines as baselines;
pub use dpsd_core as core;
pub use dpsd_data as data;
pub use dpsd_eval as eval;
pub use dpsd_hilbert as hilbert;
pub use dpsd_match as matching;
pub use dpsd_serve as serve;

pub use dpsd_core::{DpsdError, FlatSynopsis, ReleasedSynopsis, SpatialSynopsis};

/// The most commonly used items, for glob import.
///
/// Centered on the [`SpatialSynopsis`] trait: importing the prelude
/// brings the trait into scope, so `query`/`query_batch` work on every
/// backend, alongside the builders ([`PsdConfig`](dpsd_core::PsdConfig),
/// [`FlatGrid`](dpsd_baselines::FlatGrid),
/// [`ExactIndex`](dpsd_baselines::ExactIndex)), the publishable
/// [`ReleasedSynopsis`], the unified [`DpsdError`], the dimension-generic
/// geometry ([`Point`](dpsd_core::Point) / [`Rect`](dpsd_core::Rect) with
/// their `Point2`/`Rect2` planar aliases), and the workload helpers.
pub mod prelude {
    pub use dpsd_baselines::{ExactIndex, FlatGrid};
    pub use dpsd_core::budget::EpsilonLedger;
    pub use dpsd_core::budget::{BudgetSplit, CountBudget};
    pub use dpsd_core::error::DpsdError;
    pub use dpsd_core::exec::Parallelism;
    pub use dpsd_core::flat::FlatSynopsis;
    pub use dpsd_core::geometry::{Point, Point2, Rect, Rect2};
    pub use dpsd_core::median::{MedianConfig, MedianSelector};
    pub use dpsd_core::query::{
        range_query, range_query_batch, range_query_batch_with, range_query_with,
        try_range_query_with, QueryProfile,
    };
    pub use dpsd_core::stream::{
        batch_config_for, epoch_seed, Admission, EpsilonSchedule, StreamConfig, StreamIngestor,
        MAX_WINDOW_EPOCHS,
    };
    pub use dpsd_core::synopsis::{ParallelQuery, SpatialSynopsis};
    pub use dpsd_core::tree::{
        CountSource, CurveKind, PsdConfig, PsdTree, ReleasedSynopsis, TreeKind,
    };
    pub use dpsd_data::synthetic::TIGER_DOMAIN;
    pub use dpsd_data::workload::{generate_workload, QueryShape, Workload, PAPER_SHAPES};
}
