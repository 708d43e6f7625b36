//! Error type for GA configuration and execution.

use std::fmt;

/// Errors raised when configuring or running the genetic algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum GaError {
    /// `num_parts` is zero or larger than the node count.
    BadPartCount {
        /// Requested parts.
        num_parts: u32,
        /// Available nodes.
        num_nodes: usize,
    },
    /// A rate parameter is outside `[0, 1]`.
    BadRate {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Population size too small for the configured elitism, or too
    /// large to allocate.
    BadPopulation {
        /// Human-readable description.
        message: String,
    },
    /// A seed partition does not match the graph or part count.
    BadSeed {
        /// Human-readable description.
        message: String,
    },
    /// DPGA topology/population mismatch.
    BadTopology {
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for GaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GaError::BadPartCount {
                num_parts,
                num_nodes,
            } => {
                write!(
                    f,
                    "cannot partition {num_nodes} nodes into {num_parts} parts"
                )
            }
            GaError::BadRate { name, value } => {
                write!(f, "{name} = {value} is not in [0, 1]")
            }
            GaError::BadPopulation { message } => write!(f, "bad population: {message}"),
            GaError::BadSeed { message } => write!(f, "bad seed partition: {message}"),
            GaError::BadTopology { message } => write!(f, "bad topology: {message}"),
        }
    }
}

impl std::error::Error for GaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = GaError::BadPartCount {
            num_parts: 9,
            num_nodes: 4,
        };
        assert!(e.to_string().contains("9 parts"));
        let e = GaError::BadRate {
            name: "boundary_mutation_rate",
            value: 1.5,
        };
        assert!(e.to_string().contains("boundary_mutation_rate"));
        let e = GaError::BadSeed {
            message: "wrong length".into(),
        };
        assert!(e.to_string().contains("wrong length"));
    }
}
