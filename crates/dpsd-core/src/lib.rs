//! Core library for **differentially private spatial decompositions** (PSDs).
//!
//! This crate implements the full framework of Cormode, Procopiuc,
//! Srivastava, Shen, and Yu, *Differentially Private Spatial
//! Decompositions*, ICDE 2012: private quadtrees, kd-trees (standard,
//! hybrid, cell-based, noisy-mean), and Hilbert R-trees, together with the
//! two accuracy techniques the paper introduces — **geometric budget
//! allocation** (Section 4) and **linear-time OLS post-processing**
//! (Section 5) — plus private median selection (Section 6), sampling
//! amplification and pruning (Section 7), and canonical range-query
//! processing with the uniformity assumption (Section 4.1).
//!
//! # Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`synopsis`] | — | the backend-agnostic [`SpatialSynopsis`] trait and its [`ParallelQuery`] extension |
//! | [`error`] | — | the workspace-wide [`DpsdError`] type |
//! | [`exec`] | — | deterministic parallel runtime ([`Parallelism`], scoped worker pool) |
//! | [`mech`] | 3.1, 7 | Laplace and geometric mechanisms, sampling amplification |
//! | [`median`] | 6.1 | private medians: exponential, smooth sensitivity, noisy mean, cell-based |
//! | [`budget`] | 4.2, 6.2 | per-level budget strategies and path-composition auditing |
//! | [`tree`] | 3.3, 6, 7 | PSD construction, pruning, and the publishable [`ReleasedSynopsis`] |
//! | [`stream`] | — | streaming ingest and continual epoch release ([`StreamIngestor`], [`budget::EpsilonLedger`]) |
//! | [`flat`] | — | the `dpsd-bin/v1` binary codec and the one query kernel, over the [`ReleasedSynopsis`] columns |
//! | [`postprocess`] | 5 | three-phase OLS estimator and a dense reference solver |
//! | [`query`] | 4.1 | canonical range queries from any count source, single and batched |
//! | [`analysis`] | 4.2 | closed-form worst-case error bounds (Figure 2, Lemmas 2-3) |
//! | [`geometry`] | — | const-generic points and axis-aligned boxes (`Point<D>` / `Rect<D>`) |
//! | [`metrics`] | 8.1 | relative-error and rank-error measures |
//!
//! # Quick start: build, query, publish
//!
//! Every backend — trees built here, the flat-grid and exact baselines
//! in `dpsd-baselines`, and loaded [`ReleasedSynopsis`] artifacts —
//! answers range-count queries through one trait, [`SpatialSynopsis`]:
//!
//! ```
//! use dpsd_core::geometry::{Point, Rect};
//! use dpsd_core::synopsis::SpatialSynopsis;
//! use dpsd_core::tree::{PsdConfig, ReleasedSynopsis};
//!
//! // A small, clustered dataset.
//! let pts: Vec<Point> = (0..1000)
//!     .map(|i| Point::new((i % 40) as f64, (i % 25) as f64))
//!     .collect();
//! let domain = Rect::new(0.0, 0.0, 40.0, 25.0).unwrap();
//!
//! // Optimized private quadtree (geometric budget + OLS are defaults).
//! let tree = PsdConfig::quadtree(domain, 5, 0.5).with_seed(7).build(&pts).unwrap();
//!
//! // Single and batched queries through the trait.
//! let q = Rect::new(0.0, 0.0, 20.0, 12.5).unwrap();
//! let estimate = tree.query(&q);
//! let exact = pts.iter().filter(|p| q.contains(**p)).count() as f64;
//! assert!((estimate - exact).abs() < exact); // noisy but in the ballpark
//! let answers = tree.query_batch(&[q, domain]);
//! assert_eq!(answers[0], estimate);
//!
//! // Publish: a raw-data-free JSON artifact that answers identically.
//! let json = tree.release().to_json();
//! let server_side = ReleasedSynopsis::from_json(&json).unwrap();
//! assert_eq!(server_side.query(&q), estimate);
//! ```
//!
//! Fallible operations across the workspace report the unified
//! [`DpsdError`]; detailed kinds such as [`tree::BuildError`] ride
//! inside it.
//!
//! # Any dimension
//!
//! The whole stack is const-generic over the dimension `D` (default 2):
//! `PsdConfig::<3>::kd_hybrid(domain, h, eps, switch)` builds a private
//! kd-hybrid over 3-attribute records, queries run through the same
//! [`SpatialSynopsis`] trait, and `release()` publishes a synopsis that
//! round-trips through JSON or `dpsd-bin` in any `D`. The [`geometry::Point2`] /
//! [`geometry::Rect2`] aliases and the planar constructors keep
//! 2D call sites source-compatible; see the [`geometry`] module docs for
//! migration notes.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod budget;
pub mod error;
pub mod exec;
pub mod flat;
pub mod geometry;
pub mod linalg;
pub mod mech;
pub mod median;
pub mod metrics;
pub mod postprocess;
pub mod query;
pub mod rng;
pub mod stream;
pub mod synopsis;
pub mod tree;

pub use error::DpsdError;
pub use exec::Parallelism;
pub use flat::FlatSynopsis;
pub use geometry::{Point, Point2, Rect, Rect2};
pub use stream::{EpsilonSchedule, StreamConfig, StreamIngestor};
pub use synopsis::{ParallelQuery, SpatialSynopsis};
pub use tree::{CurveKind, PsdConfig, PsdTree, ReleasedSynopsis, TreeKind};
