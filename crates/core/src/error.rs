//! Error type shared by the broadcast algorithms.

use std::fmt;

/// Errors raised by the broadcast scheduling algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The algorithm only supports instances without guarded nodes (`m = 0`).
    GuardedNodesNotSupported {
        /// Name of the algorithm that was invoked.
        algorithm: &'static str,
    },
    /// The requested throughput exceeds the optimum reachable by the algorithm.
    InfeasibleThroughput {
        /// Throughput that was requested.
        requested: f64,
        /// Largest feasible throughput (for the relevant solution class).
        optimum: f64,
    },
    /// A node ordering was malformed (wrong length, duplicates, or the source not first).
    InvalidOrder(String),
    /// A coding word was malformed with respect to the instance (wrong number of open or
    /// guarded symbols).
    InvalidWord(String),
    /// A registered solver cannot handle the given instance for a reason other than
    /// guarded nodes (e.g. the exhaustive oracle refusing an instance too large to
    /// enumerate).
    Unsupported {
        /// Name of the solver that was invoked.
        algorithm: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A scheme's max-flow verification ([`crate::solver::EvalCtx::verify`]) fell short
    /// of the throughput claimed for it — an internal invariant violation surfaced
    /// instead of silently returning an infeasible solution.
    VerificationFailed {
        /// Throughput claimed for the scheme.
        claimed: f64,
        /// Throughput the scheme actually achieves by max-flow.
        achieved: f64,
    },
    /// A deliberately injected fault from a fault-injection plan (resilience testing):
    /// the nth interception of the named site was scheduled to fail.
    InjectedFault {
        /// The interception site (`"solve"`, `"verify"`, `"probe"`).
        site: &'static str,
        /// Which occurrence of the site fired (0-based).
        occurrence: u64,
    },
    /// An operation exceeded its deadline (real or injected by a fault plan).
    Timeout {
        /// Human-readable description of what timed out.
        operation: String,
    },
    /// An error bubbled up from the LP cross-check oracle.
    Lp(bmp_lp::LpError),
    /// An error bubbled up from the platform layer.
    Platform(bmp_platform::PlatformError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::GuardedNodesNotSupported { algorithm } => {
                write!(
                    f,
                    "{algorithm} only supports instances without guarded nodes"
                )
            }
            CoreError::InfeasibleThroughput { requested, optimum } => write!(
                f,
                "requested throughput {requested} exceeds the optimum {optimum}"
            ),
            CoreError::InvalidOrder(reason) => write!(f, "invalid node ordering: {reason}"),
            CoreError::InvalidWord(reason) => write!(f, "invalid coding word: {reason}"),
            CoreError::Unsupported { algorithm, reason } => {
                write!(f, "{algorithm} does not support this instance: {reason}")
            }
            CoreError::VerificationFailed { claimed, achieved } => write!(
                f,
                "claimed throughput {claimed} but the scheme only achieves {achieved}"
            ),
            CoreError::InjectedFault { site, occurrence } => {
                write!(f, "injected fault at {site} (occurrence {occurrence})")
            }
            CoreError::Timeout { operation } => write!(f, "{operation} timed out"),
            CoreError::Lp(e) => write!(f, "LP oracle error: {e}"),
            CoreError::Platform(e) => write!(f, "platform error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<bmp_lp::LpError> for CoreError {
    fn from(e: bmp_lp::LpError) -> Self {
        CoreError::Lp(e)
    }
}

impl From<bmp_platform::PlatformError> for CoreError {
    fn from(e: bmp_platform::PlatformError) -> Self {
        CoreError::Platform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CoreError::GuardedNodesNotSupported {
            algorithm: "Algorithm 1",
        };
        assert!(e.to_string().contains("Algorithm 1"));
        let e = CoreError::InfeasibleThroughput {
            requested: 5.0,
            optimum: 4.0,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('4'));
        assert!(CoreError::InvalidOrder("dup".into())
            .to_string()
            .contains("dup"));
        assert!(CoreError::InvalidWord("bad".into())
            .to_string()
            .contains("bad"));
        let e = CoreError::Unsupported {
            algorithm: "exhaustive",
            reason: "too large".into(),
        };
        assert!(e.to_string().contains("exhaustive"));
        assert!(e.to_string().contains("too large"));
        let e = CoreError::VerificationFailed {
            claimed: 4.0,
            achieved: 3.5,
        };
        assert!(e.to_string().contains("3.5"));
        let e = CoreError::InjectedFault {
            site: "solve",
            occurrence: 2,
        };
        assert!(e.to_string().contains("solve"));
        assert!(e.to_string().contains('2'));
        let e = CoreError::Timeout {
            operation: "degradation probe of node 3".into(),
        };
        assert!(e.to_string().contains("timed out"));
        assert!(e.to_string().contains("node 3"));
    }

    #[test]
    fn conversions() {
        let e: CoreError = bmp_lp::LpError::Infeasible.into();
        assert!(matches!(e, CoreError::Lp(_)));
        let e: CoreError = bmp_platform::PlatformError::EmptyInstance.into();
        assert!(matches!(e, CoreError::Platform(_)));
    }
}
