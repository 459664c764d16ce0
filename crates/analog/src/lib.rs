//! Analog circuit simulation, sensitivity analysis and analog test selection.
//!
//! This crate is the analog substrate of the mixed-signal ATPG reproduction:
//!
//! * [`netlist`] / [`mna`] — a linear circuit simulator (modified nodal
//!   analysis with complex arithmetic) supporting R, C, L, independent
//!   sources, VCVS and ideal / finite-gain op-amps;
//! * [`response`] / [`params`] — frequency-response extraction and the
//!   measurable "performances" of the paper (DC gain, AC gain, center and
//!   cut-off frequencies);
//! * [`sensitivity`] / [`coverage`] — worst-case element-deviation analysis
//!   and bipartite parameter/element test-set selection (§2.1 of the paper);
//! * [`fault`] / [`signal`] — parametric and catastrophic analog faults and
//!   sinusoidal test stimuli;
//! * [`filters`] — the paper's circuits (Figures 2, 7 and 8).
//!
//! # Example: Example 1 of the paper
//!
//! ```
//! use msatpg_analog::filters;
//! use msatpg_analog::sensitivity::WorstCaseAnalysis;
//! use msatpg_analog::coverage::CoverageGraph;
//!
//! let filter = filters::second_order_band_pass();
//! let report = WorstCaseAnalysis::new(filter.circuit(), filter.parameters())
//!     .with_parameter_tolerance(0.05)
//!     .run()?;
//! let graph = CoverageGraph::from_report(&report);
//! let selection = graph.select_test_set();
//! // A small set of gain parameters covers every element of the band-pass.
//! assert!(!selection.parameters.is_empty());
//! # Ok::<(), msatpg_analog::AnalogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod coverage;
pub mod fault;
pub mod filters;
pub mod matrix;
pub mod mna;
pub mod netlist;
pub mod params;
pub mod response;
pub mod sensitivity;
pub mod signal;
pub mod tolerance;

pub use complex::Complex;
pub use fault::{AnalogFault, AnalogFaultKind};
pub use filters::FilterCircuit;
pub use netlist::{Circuit, ElementId, ElementKind, NodeId, OpAmpModel};
pub use params::{measure, ParameterKind, ParameterSpec};
pub use sensitivity::{DeviationReport, WorstCaseAnalysis};
pub use signal::SineStimulus;
pub use tolerance::Tolerance;

use std::fmt;

/// Errors produced by the analog simulation and analysis layers.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AnalogError {
    /// The MNA matrix is singular (typically a floating node or an
    /// ill-formed feedback structure).
    SingularMatrix {
        /// Pivot column at which elimination failed.
        pivot: usize,
    },
    /// The circuit failed structural validation.
    InvalidCircuit {
        /// Explanation of the problem.
        reason: String,
    },
    /// A named element does not exist in the circuit.
    UnknownElement {
        /// The missing element name.
        name: String,
    },
    /// A named node does not exist in the circuit.
    UnknownNode {
        /// The missing node name.
        name: String,
    },
    /// A requested response feature (peak, cut-off, …) does not exist in the
    /// swept frequency range.
    ParameterNotFound {
        /// Description of the feature that was searched for.
        what: String,
    },
}

impl fmt::Display for AnalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalogError::SingularMatrix { pivot } => {
                write!(f, "singular MNA matrix (zero pivot at column {pivot})")
            }
            AnalogError::InvalidCircuit { reason } => write!(f, "invalid circuit: {reason}"),
            AnalogError::UnknownElement { name } => write!(f, "unknown element '{name}'"),
            AnalogError::UnknownNode { name } => write!(f, "unknown node '{name}'"),
            AnalogError::ParameterNotFound { what } => {
                write!(f, "response feature not found in sweep range: {what}")
            }
        }
    }
}

impl std::error::Error for AnalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_variants() {
        let variants: Vec<AnalogError> = vec![
            AnalogError::SingularMatrix { pivot: 3 },
            AnalogError::InvalidCircuit {
                reason: "no source".into(),
            },
            AnalogError::UnknownElement { name: "R42".into() },
            AnalogError::UnknownNode { name: "vx".into() },
            AnalogError::ParameterNotFound {
                what: "low cutoff".into(),
            },
        ];
        for v in variants {
            assert!(!format!("{v}").is_empty());
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalogError>();
    }
}
