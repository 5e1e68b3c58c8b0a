//! Non-hierarchical baselines and evaluation ground truth.
//!
//! * [`exact`] — an exact (non-private) range-counting index used to
//!   compute ground-truth answers for workloads and experiments.
//! * [`flat_grid`] — the flat noisy-grid release sketched in the paper's
//!   introduction (lay a fine grid over the data, add Laplace noise to
//!   every cell): the strawman whose poor accuracy on large queries
//!   motivates hierarchical PSDs. The release is kd-cell's noisy grid,
//!   [`dpsd_core::median::CellGridNd`], read without clamping negative
//!   cells.
//!
//! Both baselines answer queries through
//! [`dpsd_core::synopsis::SpatialSynopsis`], the same interface as every
//! tree backend, so experiments can swap them in directly; builders
//! report invalid parameters as [`dpsd_core::DpsdError`].

#![forbid(unsafe_code)]

pub mod exact;
pub mod flat_grid;

pub use exact::ExactIndex;
pub use flat_grid::FlatGrid;
