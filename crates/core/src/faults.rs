//! Deterministic fault-injection hooks for the solver and probe layer.
//!
//! An [`InjectedFaults`] script names, per interception site, which *occurrences* of
//! that site should fail: "the 0th and 2nd solve verifications", "the 1st degradation
//! probe". The script is installed on an [`EvalCtx`](crate::solver::EvalCtx) (an
//! `Option` field that is `None` in production, so the disabled path costs a single
//! branch) and consulted by [`SolveRecorder::finish`](crate::solver::SolveRecorder),
//! [`EvalCtx::verify`](crate::solver::EvalCtx::verify) and
//! [`churn::degradation_tolerance`](crate::churn::degradation_tolerance).
//! Because occurrences are counted — not timed — the same script replays identically
//! run after run, which is what lets the repair-hardening tests assert exact retry
//! and fallback sequences.

/// An interception site of the fault plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// [`SolveRecorder::finish`](crate::solver::SolveRecorder::finish): the solve
    /// itself errors with [`CoreError::InjectedFault`](crate::CoreError::InjectedFault)
    /// before verification.
    Solve,
    /// [`EvalCtx::verify`](crate::solver::EvalCtx::verify), the claim check behind
    /// every solve: the max-flow verification is forced to report failure
    /// ([`CoreError::VerificationFailed`](crate::CoreError::VerificationFailed)).
    Verify,
    /// [`churn::degradation_tolerance`](crate::churn::degradation_tolerance): the probe
    /// times out ([`CoreError::Timeout`](crate::CoreError::Timeout)).
    Probe,
}

impl FaultSite {
    /// Stable lowercase label, used in error payloads and fault-plan parsing.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Solve => "solve",
            FaultSite::Verify => "verify",
            FaultSite::Probe => "probe",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Solve => 0,
            FaultSite::Verify => 1,
            FaultSite::Probe => 2,
        }
    }
}

/// A deterministic fault script: per site, the sorted occurrence indices that fail.
///
/// Counting starts at the moment the script is installed; occurrence `k` means the
/// `k`-th time that site is reached afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Occurrence indices that fail, per site (indexed by [`FaultSite::index`]).
    scheduled: [Vec<u64>; 3],
    /// How many times each site has been reached since installation.
    reached: [u64; 3],
    /// How many scheduled faults have actually fired.
    fired: u64,
}

impl InjectedFaults {
    /// A script with explicit occurrence lists per site (indices need not be sorted).
    #[must_use]
    pub fn new(solve: Vec<u64>, verify: Vec<u64>, probe: Vec<u64>) -> Self {
        InjectedFaults {
            scheduled: [solve, verify, probe],
            reached: [0; 3],
            fired: 0,
        }
    }

    /// Schedules occurrence `occurrence` of `site` to fail (builder style).
    #[must_use]
    pub fn and_fail(mut self, site: FaultSite, occurrence: u64) -> Self {
        self.scheduled[site.index()].push(occurrence);
        self
    }

    /// Whether the script schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scheduled.iter().all(Vec::is_empty)
    }

    /// Total number of scheduled faults that have fired so far.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Number of scheduled faults that have not fired yet (occurrences already passed
    /// without firing are still counted here; the script does not rewind).
    #[must_use]
    pub fn pending(&self) -> u64 {
        let scheduled: u64 = self.scheduled.iter().map(|s| s.len() as u64).sum();
        scheduled - self.fired
    }

    /// The script's cursor: how many times each site has been reached (in
    /// [`FaultSite`] declaration order — solve, verify, probe) and how many scheduled
    /// faults have fired. Together with the schedule this is the script's complete
    /// mutable state, so a supervisor can capture it at a checkpoint and
    /// [`InjectedFaults::restore_progress`] it into a freshly built script when a
    /// session is restarted — replayed occurrences then fire exactly as they did the
    /// first time.
    #[must_use]
    pub fn progress(&self) -> ([u64; 3], u64) {
        (self.reached, self.fired)
    }

    /// Restores a cursor captured by [`InjectedFaults::progress`] onto this script.
    /// The schedule itself is not touched — the caller rebuilds it from the same plan
    /// — so a restored script replays the remaining occurrences identically.
    ///
    /// # Panics
    ///
    /// Panics if `fired` exceeds the total number of scheduled occurrences (the cursor
    /// cannot have fired faults the schedule does not contain).
    pub fn restore_progress(&mut self, reached: [u64; 3], fired: u64) {
        let scheduled: u64 = self.scheduled.iter().map(|s| s.len() as u64).sum();
        assert!(
            fired <= scheduled,
            "fault-script cursor fired {fired} faults but only {scheduled} are scheduled"
        );
        self.reached = reached;
        self.fired = fired;
    }

    /// Records that `site` was reached; returns `Some(occurrence)` when this occurrence
    /// is scheduled to fail.
    pub fn intercept(&mut self, site: FaultSite) -> Option<u64> {
        let i = site.index();
        let occurrence = self.reached[i];
        self.reached[i] += 1;
        if self.scheduled[i].contains(&occurrence) {
            self.fired += 1;
            Some(occurrence)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_only_scheduled_occurrences() {
        let mut faults = InjectedFaults::new(vec![1, 3], vec![], vec![0]);
        assert!(!faults.is_empty());
        assert_eq!(faults.intercept(FaultSite::Solve), None);
        assert_eq!(faults.intercept(FaultSite::Solve), Some(1));
        assert_eq!(faults.intercept(FaultSite::Solve), None);
        assert_eq!(faults.intercept(FaultSite::Solve), Some(3));
        assert_eq!(faults.intercept(FaultSite::Probe), Some(0));
        assert_eq!(faults.intercept(FaultSite::Probe), None);
        assert_eq!(faults.intercept(FaultSite::Verify), None);
        assert_eq!(faults.fired(), 3);
        assert_eq!(faults.pending(), 0);
    }

    #[test]
    fn sites_count_independently() {
        let mut faults = InjectedFaults::default()
            .and_fail(FaultSite::Solve, 0)
            .and_fail(FaultSite::Verify, 0);
        assert_eq!(faults.intercept(FaultSite::Solve), Some(0));
        assert_eq!(faults.intercept(FaultSite::Verify), Some(0));
        assert_eq!(faults.pending(), 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultSite::Solve.label(), "solve");
        assert_eq!(FaultSite::Verify.label(), "verify");
        assert_eq!(FaultSite::Probe.label(), "probe");
    }
}
