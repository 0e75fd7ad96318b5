//! The shared churn event feed: one fleet-level configuration, one deterministic
//! [`ChurnSchedule`] per session.
//!
//! Every session's schedule is derived from the fleet seed and the session id alone
//! ([`crate::mix_seed`]), then generated by the same seeded storm generator the fault
//! harness uses ([`bmp_sim::churn_storm`]): each wave departs a seed-chosen
//! receiver and rejoins it two spacings later. Shard layout never enters the
//! derivation, so the feed hands out identical schedules no matter which shard asks.

use crate::mix_seed;
use bmp_sim::{churn_storm, ChurnSchedule};
use serde::{Deserialize, Serialize};

/// Most departure waves one session's churn schedule may hold
/// ([`crate::FleetConfig::validate`] refuses more): each wave is two scheduled events,
/// materialized up front for every session.
pub const MAX_CHURN_WAVES: usize = 1_000;

/// Per-fleet churn parameters, expanded per session by [`ChurnFeed`]. Serializable so
/// a fleet checkpoint can embed the feed configuration it was running under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Simulated time of the first departure.
    pub start: f64,
    /// Time between consecutive departure waves (each departed receiver rejoins two
    /// spacings after it left).
    pub spacing: f64,
    /// Number of departure waves per session. `0` disables churn.
    pub waves: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            start: 4.0,
            spacing: 3.0,
            waves: 2,
        }
    }
}

/// Deterministic per-session churn schedules from one fleet-level feed.
#[derive(Debug, Clone, Copy)]
pub struct ChurnFeed {
    seed: u64,
    config: ChurnConfig,
}

impl ChurnFeed {
    /// Creates the feed for a fleet seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64, config: ChurnConfig) -> Self {
        ChurnFeed { seed, config }
    }

    /// The churn schedule of session `session` over a platform of `num_nodes` nodes.
    /// Pure in `(feed, session, num_nodes)` — every call returns the same schedule.
    #[must_use]
    pub fn schedule(&self, session: usize, num_nodes: usize) -> ChurnSchedule {
        if self.config.waves == 0 || num_nodes < 2 {
            return ChurnSchedule::new(Vec::new());
        }
        churn_storm(
            mix_seed(self.seed, session as u64),
            num_nodes,
            self.config.start,
            self.config.spacing,
            self.config.waves,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_per_session_and_repeatable() {
        let feed = ChurnFeed::new(7, ChurnConfig::default());
        let a = feed.schedule(0, 6);
        let b = feed.schedule(1, 6);
        assert_eq!(a.events(), feed.schedule(0, 6).events());
        assert_eq!(a.events().len(), 4); // two waves: depart + rejoin each
        assert_eq!(b.events().len(), 4);
        // Different sessions draw from different streams: over sixteen sessions of a
        // 100-node platform, not every session loses the same victims.
        let victims = |session: usize| -> Vec<usize> {
            let schedule = feed.schedule(session, 100);
            schedule.events().iter().map(|event| event.node).collect()
        };
        let first = victims(0);
        assert!(
            (1..16).any(|session| victims(session) != first),
            "every session drew the victims {first:?}"
        );
    }

    #[test]
    fn zero_waves_disable_churn() {
        let feed = ChurnFeed::new(
            7,
            ChurnConfig {
                waves: 0,
                ..ChurnConfig::default()
            },
        );
        assert!(feed.schedule(3, 8).events().is_empty());
    }
}
