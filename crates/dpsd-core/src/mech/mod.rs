//! Differential-privacy mechanisms (paper Sections 3.1 and 7).
//!
//! * [`laplace`] — the Laplace mechanism (Definition 2) and a raw
//!   Laplace-noise sampler.
//! * [`geometric`] — the two-sided geometric mechanism of Ghosh et al.,
//!   an integer-valued alternative for count release.
//! * [`sampling`] — privacy amplification by Bernoulli sampling
//!   (Theorem 7).
//!
//! The exponential mechanism of the private median (Definition 5) lives
//! with the other median mechanisms, in
//! [`crate::median::exponential_median`].

pub mod geometric;
pub mod laplace;
pub mod sampling;

pub use geometric::{geometric_mechanism, sample_two_sided_geometric};
pub use laplace::{laplace_mechanism, laplace_variance, sample_laplace};
pub use sampling::{
    amplified_epsilon, bernoulli_sample, mechanism_epsilon_for_target, SamplingPlan,
};
