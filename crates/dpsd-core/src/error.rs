//! The workspace-wide error type.
//!
//! Every fallible operation in the `dpsd` workspace reports through
//! [`DpsdError`]: building any backend (in any dimension), loading a
//! published synopsis, and checked query paths. Fine-grained error
//! enums ([`BuildError`], [`GeometryError`]) remain the carriers of
//! detail and convert into `DpsdError` via `From`, so `?` composes
//! across crates. Builds in every dimension run through the same
//! [`PsdConfig`](crate::tree::PsdConfig) pipeline and report the same
//! `BuildError` kinds.

use crate::geometry::GeometryError;
use crate::tree::BuildError;
use std::fmt;

/// Unified error for every backend and artifact in the workspace.
#[derive(Debug)]
pub enum DpsdError {
    /// Building a PSD failed.
    Build(BuildError),
    /// A rectangle or point was invalid.
    Geometry(GeometryError),
    /// A serialized synopsis could not be parsed or failed validation.
    Format {
        /// What the parser or validator rejected.
        reason: String,
    },
    /// A builder parameter was out of range.
    InvalidParameter {
        /// Which parameter.
        param: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// Post-processed counts were requested from a tree that was never
    /// post-processed.
    PostedUnavailable,
    /// A continual-release debit would overdraw the stream's lifetime
    /// privacy budget (see [`crate::budget::EpsilonLedger`]).
    BudgetExhausted {
        /// Epsilon the release asked for.
        requested: f64,
        /// Budget still available under the cap.
        remaining: f64,
    },
}

impl fmt::Display for DpsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpsdError::Build(e) => write!(f, "build failed: {e}"),
            DpsdError::Geometry(e) => write!(f, "bad geometry: {e}"),
            DpsdError::Format { reason } => write!(f, "bad synopsis: {reason}"),
            DpsdError::InvalidParameter { param, reason } => {
                write!(f, "invalid `{param}`: {reason}")
            }
            DpsdError::PostedUnavailable => {
                f.write_str("post-processed counts requested but OLS was never run")
            }
            DpsdError::BudgetExhausted {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "privacy budget exhausted: release needs epsilon {requested} \
                     but only {remaining} remains under the cap"
                )
            }
        }
    }
}

impl std::error::Error for DpsdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DpsdError::Build(e) => Some(e),
            DpsdError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl DpsdError {
    /// Builds a [`DpsdError::Format`] from any message.
    pub fn format(reason: impl Into<String>) -> Self {
        DpsdError::Format {
            reason: reason.into(),
        }
    }

    /// Builds a [`DpsdError::InvalidParameter`].
    pub fn invalid_parameter(param: &'static str, reason: impl Into<String>) -> Self {
        DpsdError::InvalidParameter {
            param,
            reason: reason.into(),
        }
    }
}

impl From<BuildError> for DpsdError {
    fn from(e: BuildError) -> Self {
        DpsdError::Build(e)
    }
}

impl From<GeometryError> for DpsdError {
    fn from(e: GeometryError) -> Self {
        DpsdError::Geometry(e)
    }
}

impl From<serde::Error> for DpsdError {
    /// JSON parse and validation failures both surface as
    /// [`DpsdError::Format`]: callers handling a bad synopsis match one
    /// variant regardless of which layer rejected it.
    fn from(e: serde::Error) -> Self {
        DpsdError::Format { reason: e.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    #[test]
    fn displays_wrap_detail() {
        let e = DpsdError::from(BuildError::InvalidEpsilon(-1.0));
        assert!(e.to_string().contains("epsilon"));
        let e = DpsdError::format("missing nodes");
        assert!(e.to_string().contains("missing nodes"));
        let e = DpsdError::invalid_parameter("resolution", "must be positive");
        assert!(e.to_string().contains("resolution"));
        assert!(DpsdError::PostedUnavailable.to_string().contains("OLS"));
        let e = DpsdError::BudgetExhausted {
            requested: 0.5,
            remaining: 0.25,
        };
        assert!(e.to_string().contains("0.5") && e.to_string().contains("0.25"));
    }

    #[test]
    fn question_mark_composes_across_kinds() {
        fn build_and_validate() -> Result<Rect, DpsdError> {
            let r = Rect::new(0.0, 0.0, 1.0, 1.0)?; // GeometryError
            Ok(r)
        }
        assert!(build_and_validate().is_ok());
        fn invalid() -> Result<Rect, DpsdError> {
            Ok(Rect::new(2.0, 0.0, 1.0, 1.0)?)
        }
        assert!(matches!(invalid().unwrap_err(), DpsdError::Geometry(_)));
    }

    #[test]
    fn source_chains() {
        use std::error::Error as _;
        let e = DpsdError::from(BuildError::InvalidEpsilon(0.0));
        assert!(e.source().is_some());
        assert!(DpsdError::PostedUnavailable.source().is_none());
    }
}
