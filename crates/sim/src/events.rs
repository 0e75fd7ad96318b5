//! Churn injection: scheduled node departures and rejoins during a simulation run.
//!
//! The paper's conclusion states that the computed overlays are "probably not resilient to
//! churn". This module provides the failure-injection side of that claim: a [`ChurnSchedule`]
//! lists at which simulated time which node departs (its incident overlay edges stop carrying
//! data) or rejoins (the edges resume; the node keeps the chunks it already held). Together
//! with `bmp_core::churn` (static residual-throughput analysis and overlay repair) this lets
//! the experiments quantify how much of the nominal rate survives a departure and how cheap a
//! recomputation is.

use bmp_platform::NodeId;
use serde::{DeError, Deserialize, Serialize, Value};

/// What happens to a node at a scheduled time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnAction {
    /// The node leaves: it stops sending and receiving.
    Depart,
    /// The node comes back with the chunks it held when it left.
    Rejoin,
}

/// One scheduled churn event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Simulated time at which the event takes effect (applied at the first round whose start
    /// time is `≥ time`).
    pub time: f64,
    /// The affected node. The source (node 0) is not allowed to depart.
    pub node: NodeId,
    /// Departure or rejoin.
    pub action: ChurnAction,
}

/// A time-ordered list of churn events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// An empty schedule (no churn).
    #[must_use]
    pub fn empty() -> Self {
        ChurnSchedule { events: Vec::new() }
    }

    /// Builds a schedule from events, sorting them by time.
    ///
    /// # Panics
    ///
    /// Panics if an event breaks a rule of [`ChurnSchedule::try_new`].
    #[must_use]
    pub fn new(events: Vec<ChurnEvent>) -> Self {
        ChurnSchedule::try_new(events).unwrap_or_else(|message| panic!("{message}"))
    }

    /// Fallible [`ChurnSchedule::new`], the one check of a schedule's rules for every
    /// input (command-line specs, checkpoint documents, constructors).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first event that targets the source (node 0) or has
    /// a negative or non-finite time.
    pub fn try_new(mut events: Vec<ChurnEvent>) -> Result<Self, String> {
        for event in &events {
            if event.node == 0 {
                return Err(format!(
                    "the source cannot churn (the event at time {} targets node 0)",
                    event.time
                ));
            }
            if !(event.time.is_finite() && event.time >= 0.0) {
                return Err(format!(
                    "churn event time {} must be non-negative and finite",
                    event.time
                ));
            }
        }
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        Ok(ChurnSchedule { events })
    }

    /// Checks that every event targets a node of an `num_nodes`-node overlay.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first event outside the overlay.
    pub fn check_nodes(&self, num_nodes: usize) -> Result<(), String> {
        match self.events.iter().find(|event| event.node >= num_nodes) {
            Some(event) => Err(format!(
                "churn event targets node {} but the overlay has {num_nodes} nodes",
                event.node
            )),
            None => Ok(()),
        }
    }

    /// Convenience constructor: the listed nodes all depart at `time` and never come back.
    #[must_use]
    pub fn departures_at(time: f64, nodes: &[NodeId]) -> Self {
        ChurnSchedule::new(
            nodes
                .iter()
                .map(|&node| ChurnEvent {
                    time,
                    node,
                    action: ChurnAction::Depart,
                })
                .collect(),
        )
    }

    /// Whether the schedule contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Which nodes are departed (not alive) at simulated time `time`, for a platform of
    /// `num_nodes` nodes. Events at exactly `time` are considered applied.
    #[must_use]
    pub fn departed_at(&self, time: f64, num_nodes: usize) -> Vec<bool> {
        let mut departed = vec![false; num_nodes];
        for event in self.events.iter().filter(|e| e.time <= time) {
            if event.node < num_nodes {
                departed[event.node] = match event.action {
                    ChurnAction::Depart => true,
                    ChurnAction::Rejoin => false,
                };
            }
        }
        departed
    }

    /// Which nodes are departed once every event has been applied.
    #[must_use]
    pub fn final_departed(&self, num_nodes: usize) -> Vec<bool> {
        self.departed_at(f64::INFINITY, num_nodes)
    }

    /// The surviving receivers (alive at the end of the schedule), i.e. the nodes whose
    /// delivery still matters when judging a run under churn.
    #[must_use]
    pub fn surviving_receivers(&self, num_nodes: usize) -> Vec<NodeId> {
        let departed = self.final_departed(num_nodes);
        (1..num_nodes).filter(|&v| !departed[v]).collect()
    }
}

impl Serialize for ChurnSchedule {
    fn to_value(&self) -> Value {
        Value::Object(vec![("events".to_string(), self.events.to_value())])
    }
}

/// Validated deserialization: [`ChurnSchedule::try_new`]'s rules surface as errors, so a
/// corrupted or hand-edited checkpoint is rejected instead of aborting the process.
impl Deserialize for ChurnSchedule {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", "ChurnSchedule"))?;
        let events =
            Vec::<ChurnEvent>::from_value(serde::field(fields, "events", "ChurnSchedule")?)?;
        ChurnSchedule::try_new(events).map_err(DeError::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule() {
        let schedule = ChurnSchedule::empty();
        assert!(schedule.is_empty());
        assert_eq!(schedule.departed_at(10.0, 4), vec![false; 4]);
        assert_eq!(schedule.surviving_receivers(4), vec![1, 2, 3]);
    }

    #[test]
    fn events_are_sorted_by_time() {
        let schedule = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 5.0,
                node: 2,
                action: ChurnAction::Depart,
            },
            ChurnEvent {
                time: 1.0,
                node: 1,
                action: ChurnAction::Depart,
            },
        ]);
        assert_eq!(schedule.events()[0].node, 1);
        assert_eq!(schedule.events()[1].node, 2);
    }

    #[test]
    fn departures_and_rejoins_compose_over_time() {
        let schedule = ChurnSchedule::new(vec![
            ChurnEvent {
                time: 1.0,
                node: 1,
                action: ChurnAction::Depart,
            },
            ChurnEvent {
                time: 3.0,
                node: 1,
                action: ChurnAction::Rejoin,
            },
            ChurnEvent {
                time: 2.0,
                node: 2,
                action: ChurnAction::Depart,
            },
        ]);
        assert_eq!(
            schedule.departed_at(0.5, 4),
            vec![false, false, false, false]
        );
        assert_eq!(
            schedule.departed_at(1.5, 4),
            vec![false, true, false, false]
        );
        assert_eq!(schedule.departed_at(2.5, 4), vec![false, true, true, false]);
        assert_eq!(
            schedule.departed_at(3.5, 4),
            vec![false, false, true, false]
        );
        assert_eq!(schedule.final_departed(4), vec![false, false, true, false]);
        assert_eq!(schedule.surviving_receivers(4), vec![1, 3]);
    }

    #[test]
    fn departures_at_helper() {
        let schedule = ChurnSchedule::departures_at(2.0, &[3, 1]);
        assert_eq!(schedule.events().len(), 2);
        assert_eq!(
            schedule.final_departed(5),
            vec![false, true, false, true, false]
        );
        assert_eq!(schedule.surviving_receivers(5), vec![2, 4]);
    }

    #[test]
    fn out_of_range_nodes_are_ignored_in_queries() {
        let schedule = ChurnSchedule::departures_at(1.0, &[7]);
        assert_eq!(schedule.final_departed(3), vec![false; 3]);
    }

    #[test]
    #[should_panic(expected = "source cannot churn")]
    fn source_cannot_churn() {
        let _ = ChurnSchedule::departures_at(1.0, &[0]);
    }

    #[test]
    fn try_new_and_check_nodes_name_the_first_broken_event() {
        let event = |time, node| ChurnEvent {
            time,
            node,
            action: ChurnAction::Depart,
        };
        assert_eq!(
            ChurnSchedule::try_new(vec![event(1.0, 2), event(2.0, 0)]).unwrap_err(),
            "the source cannot churn (the event at time 2 targets node 0)"
        );
        assert_eq!(
            ChurnSchedule::try_new(vec![event(f64::NAN, 2)]).unwrap_err(),
            "churn event time NaN must be non-negative and finite"
        );
        let schedule = ChurnSchedule::try_new(vec![event(2.0, 5), event(1.0, 2)]).unwrap();
        assert_eq!(schedule.check_nodes(6), Ok(()));
        assert_eq!(
            schedule.check_nodes(4),
            Err("churn event targets node 5 but the overlay has 4 nodes".into())
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_times_rejected() {
        let _ = ChurnSchedule::new(vec![ChurnEvent {
            time: -1.0,
            node: 1,
            action: ChurnAction::Depart,
        }]);
    }
}
