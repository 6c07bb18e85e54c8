//! Error type for ADS construction.

use std::fmt;

/// Errors produced by ADS builders.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The DP builder only supports unweighted graphs, those for which
    /// `Graph::is_weighted` is false (paper, Section 3: DP "applies to
    /// unweighted graphs"; LocalUpdates is its weighted extension).
    RequiresUnweighted,
    /// A rank array did not match the graph's node count.
    RankCountMismatch {
        /// Number of ranks supplied.
        ranks: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A rank value was not finite and non-negative.
    InvalidRank {
        /// The offending value.
        rank: f64,
    },
    /// The approximation parameter ε was negative or not finite.
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// The sketch parameter k was zero (every builder), or above 65535
    /// (DP and the local-update builders only: the range their per-entry
    /// counters cover).
    InvalidK {
        /// The offending value.
        k: usize,
    },
    /// An edge endpoint fell outside the node range of a dynamic sketch
    /// set.
    NodeOutOfRange {
        /// The offending endpoint.
        node: u32,
        /// Number of nodes the sketch set was created with.
        nodes: usize,
    },
    /// An edge weight was negative or not finite.
    InvalidWeight {
        /// The offending value.
        weight: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::RequiresUnweighted => {
                write!(f, "the DP builder requires an unweighted graph; use LocalUpdates or PrunedDijkstra for weighted graphs")
            }
            CoreError::RankCountMismatch { ranks, nodes } => {
                write!(
                    f,
                    "rank array has {ranks} entries but the graph has {nodes} nodes"
                )
            }
            CoreError::InvalidRank { rank } => {
                write!(f, "rank {rank} must be finite and non-negative")
            }
            CoreError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon {epsilon} must be finite and non-negative")
            }
            CoreError::InvalidK { k } => {
                write!(
                    f,
                    "sketch parameter k = {k} must be at least 1 (and at most 65535 for the DP and local-update builders)"
                )
            }
            CoreError::NodeOutOfRange { node, nodes } => {
                write!(f, "edge endpoint {node} is outside the {nodes}-node range")
            }
            CoreError::InvalidWeight { weight } => {
                write!(f, "edge weight {weight} must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CoreError::RequiresUnweighted
            .to_string()
            .contains("unweighted"));
        let e = CoreError::RankCountMismatch { ranks: 3, nodes: 5 };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
        assert!(CoreError::InvalidRank { rank: f64::NAN }
            .to_string()
            .contains("finite"));
        assert!(CoreError::InvalidEpsilon { epsilon: -1.0 }
            .to_string()
            .contains("-1"));
    }
}
