//! Supervision acceptance tests: crash isolation, quarantine determinism across
//! shard counts, watchdog escalation, bounded retry, and fleet checkpoint/resume
//! byte-identity — including under a seeded fault storm.

use bmp_serve::{
    run_fleet, run_fleet_with, Disposition, FleetCheckpoint, FleetConfig, FleetOptions, FleetRun,
    QuarantineReason, SessionFaults, SessionPanic, SessionWedge,
};
use bmp_sim::FaultPlan;

fn base_config() -> FleetConfig {
    FleetConfig {
        sessions: 6,
        shards: 1,
        receivers: 4,
        chunks: 24,
        seed: 0x0DDB41,
        ..FleetConfig::default()
    }
}

fn with_shards(config: &FleetConfig, shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        ..config.clone()
    }
}

#[test]
fn a_persistent_panic_exhausts_its_retries_identically_on_every_shard_count() {
    let mut config = base_config();
    config.session_faults.panics.push(SessionPanic {
        session: 2,
        round: 5,
        transient: false,
    });
    let reference = run_fleet(&config);
    // Default retry budget is 2: attempts 0 and 1 are re-admitted, attempt 2 is
    // permanent. Every record carries the deterministic panic-site tag.
    assert_eq!(reference.quarantined.len(), 3);
    for (attempt, record) in reference.quarantined.iter().enumerate() {
        assert_eq!(record.session, 2);
        assert_eq!(record.attempt, attempt as u32);
        assert_eq!(record.round, 5, "the panic site is deterministic");
        match &record.reason {
            QuarantineReason::Panic { tag } => {
                assert_eq!(tag, "injected session panic (session 2, round 5)");
            }
            other => panic!("expected a panic quarantine, got {other:?}"),
        }
    }
    assert!(matches!(
        reference.quarantined[0].disposition,
        Disposition::Retried { .. }
    ));
    assert!(matches!(
        reference.quarantined[1].disposition,
        Disposition::Retried { .. }
    ));
    assert_eq!(reference.quarantined[2].disposition, Disposition::Permanent);
    // Retry waves are strictly increasing re-admissions.
    let waves: Vec<usize> = reference.quarantined.iter().map(|r| r.wave).collect();
    assert!(waves.windows(2).all(|pair| pair[0] < pair[1]));
    assert_eq!(reference.metrics.sessions_quarantined, 1);
    assert_eq!(reference.metrics.session_retries, 2);
    assert_eq!(reference.metrics.sessions_run, 5);
    assert!(reference.sessions.iter().all(|row| row.session != 2));
    // Quarantine bookkeeping — records, retry waves, metric exclusion — must not
    // depend on which shard hosted the panicking session.
    let json = reference.to_json();
    for shards in [2usize, 4] {
        assert_eq!(
            json,
            run_fleet(&with_shards(&config, shards)).to_json(),
            "shard count {shards} changed the quarantine outcome"
        );
    }
}

#[test]
fn a_transient_panic_is_retried_and_its_rerun_matches_the_fault_free_row() {
    let mut config = base_config();
    config.session_faults.panics.push(SessionPanic {
        session: 2,
        round: 5,
        transient: true,
    });
    let report = run_fleet(&config);
    // One quarantine record (the attempt-0 panic, retried); the retry completes.
    assert_eq!(report.quarantined.len(), 1);
    assert!(matches!(
        report.quarantined[0].disposition,
        Disposition::Retried { .. }
    ));
    assert_eq!(report.metrics.sessions_quarantined, 0);
    assert_eq!(report.metrics.session_retries, 1);
    assert_eq!(report.metrics.sessions_run, config.sessions);
    // The retried session resumed from its checkpoint and replayed bit-identically:
    // its row equals the row of a fleet that never injected the panic.
    let mut clean = config.clone();
    clean.session_faults = SessionFaults::default();
    let clean_report = run_fleet(&clean);
    assert_eq!(report.sessions, clean_report.sessions);
}

/// A shard visit steps one session up to its next checkpoint, so the cadence decides
/// how sessions interleave on a shard, where the co-resident survivors of a panic
/// restart and where the retry resumes. None of it may show in the report.
#[test]
fn a_transient_panic_report_is_identical_at_every_checkpoint_cadence_and_shard_count() {
    let mut config = FleetConfig {
        chunks: 96,
        ..base_config()
    };
    config.session_faults.panics.push(SessionPanic {
        session: 2,
        round: 21,
        transient: true,
    });
    let mut reference: Option<String> = None;
    for checkpoint_rounds in [1usize, 16, 1000] {
        for shards in [1usize, 2] {
            let mut run = with_shards(&config, shards);
            run.supervision.checkpoint_rounds = checkpoint_rounds;
            let report = run_fleet(&run);
            assert_eq!(report.quarantined.len(), 1, "the panic fired once");
            assert_eq!(report.quarantined[0].round, 21);
            assert_eq!(report.metrics.sessions_run, config.sessions);
            let json = report.to_json();
            match &reference {
                None => reference = Some(json),
                Some(expected) => assert_eq!(
                    &json, expected,
                    "checkpoint_rounds {checkpoint_rounds}, {shards} shards changed the report"
                ),
            }
        }
    }
}

#[test]
fn a_wedged_session_gets_one_forced_repair_then_a_stuck_quarantine() {
    let mut config = base_config();
    // No churn: the controller is never consulted on its own, so nothing can heal
    // the wedge behind the watchdog's back.
    config.churn.waves = 0;
    config.supervision.no_progress_rounds = Some(24);
    config.session_faults.wedges.push(SessionWedge {
        session: 1,
        round: 8,
    });
    let report = run_fleet(&config);
    assert_eq!(report.quarantined.len(), 1);
    let record = &report.quarantined[0];
    assert_eq!(record.session, 1);
    // The forced repair cannot rescue a wedge the controller never observed, so a
    // second full deadline passes and the session is permanently quarantined.
    assert_eq!(
        record.reason,
        QuarantineReason::Stuck {
            rounds_without_progress: 24
        }
    );
    assert_eq!(record.disposition, Disposition::Permanent);
    assert_eq!(report.metrics.sessions_quarantined, 1);
    assert_eq!(report.metrics.session_retries, 0);
    // Every other session is untouched: bit-equal to the fault-free fleet
    // restricted to the same session ids.
    let mut clean = config.clone();
    clean.session_faults = SessionFaults::default();
    let clean_report = run_fleet(&clean);
    for row in &report.sessions {
        let counterpart = clean_report
            .sessions
            .iter()
            .find(|clean_row| clean_row.session == row.session)
            .expect("fault-free fleet ran every session");
        assert_eq!(row, counterpart);
    }
    let json = report.to_json();
    for shards in [2usize, 4] {
        assert_eq!(json, run_fleet(&with_shards(&config, shards)).to_json());
    }
}

#[test]
fn the_round_budget_quarantines_runaway_sessions() {
    let mut config = base_config();
    config.sessions = 3;
    config.supervision.max_rounds = Some(5);
    let report = run_fleet(&config);
    // 24 chunks cannot finish in 5 rounds: every session trips the budget, at the
    // same deterministic round, with a permanent disposition.
    assert_eq!(report.quarantined.len(), 3);
    for record in &report.quarantined {
        assert_eq!(record.reason, QuarantineReason::Budget { rounds: 5 });
        assert_eq!(record.disposition, Disposition::Permanent);
    }
    assert_eq!(report.metrics.sessions_run, 0);
    assert_eq!(report.metrics.sessions_quarantined, 3);
    let json = report.to_json();
    assert_eq!(json, run_fleet(&with_shards(&config, 2)).to_json());
}

#[test]
fn the_acceptance_fleet_panic_wedge_and_storm_is_shard_agnostic() {
    // The ISSUE acceptance shape: a seeded fleet under a fault storm with one
    // injected panic and one injected wedge completes with exactly those two
    // sessions quarantined, everyone else bit-equal to a fault-free fleet, on
    // shard counts 1, 2 and 4.
    let mut config = base_config();
    config.sessions = 8;
    config.fault_plan = Some(FaultPlan::storm(41));
    // One early churn wave (rounds are 0.25 time units: depart at round 2, rejoin
    // at round 6): repair and the storm's solver faults get exercised, but no
    // churn-triggered swap lands after round 8 to heal the wedge behind the
    // watchdog's back.
    config.churn = bmp_serve::ChurnConfig {
        start: 0.5,
        spacing: 0.5,
        waves: 1,
    };
    config.supervision.no_progress_rounds = Some(24);
    config.supervision.max_retries = 1;
    config.session_faults = SessionFaults {
        panics: vec![SessionPanic {
            session: 3,
            round: 5,
            transient: false,
        }],
        wedges: vec![SessionWedge {
            session: 5,
            round: 8,
        }],
    };
    let reference = run_fleet(&config);
    let quarantined_sessions: Vec<usize> = reference
        .quarantined
        .iter()
        .filter(|record| record.disposition == Disposition::Permanent)
        .map(|record| record.session)
        .collect();
    assert_eq!(quarantined_sessions, vec![3, 5]);
    assert_eq!(reference.metrics.sessions_run, 6);
    // All surviving sessions' goodput is bit-equal to the fault-free fleet
    // restricted to the same ids.
    let mut clean = config.clone();
    clean.session_faults = SessionFaults::default();
    let clean_report = run_fleet(&clean);
    for row in &reference.sessions {
        let counterpart = clean_report
            .sessions
            .iter()
            .find(|clean_row| clean_row.session == row.session)
            .expect("fault-free fleet ran every session");
        assert_eq!(
            row.goodput.to_bits(),
            counterpart.goodput.to_bits(),
            "session {} was perturbed by a fault it never experienced",
            row.session
        );
    }
    let json = reference.to_json();
    for shards in [2usize, 4] {
        assert_eq!(
            json,
            run_fleet(&with_shards(&config, shards)).to_json(),
            "shard count {shards} changed the acceptance fleet"
        );
    }
}

#[test]
fn halted_fleets_resume_byte_identically_across_shard_counts() {
    let mut config = base_config();
    config.fault_plan = Some(FaultPlan::storm(41));
    let reference = run_fleet(&config).to_json();
    for (halt_shards, resume_shards) in [(1usize, 1usize), (2, 2), (4, 4), (1, 4), (4, 1)] {
        let halted = run_fleet_with(
            &with_shards(&config, halt_shards),
            FleetOptions {
                halt_after: Some(6),
                ..FleetOptions::default()
            },
        );
        let FleetRun::Halted(checkpoint) = halted else {
            panic!("halt-after 6 must park the fleet");
        };
        assert!(!checkpoint.pending.is_empty());
        // The checkpoint document round-trips through its JSON encoding.
        let roundtripped = FleetCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(roundtripped, checkpoint);
        let resumed = run_fleet_with(
            &with_shards(&config, resume_shards),
            FleetOptions {
                resume: Some(roundtripped),
                ..FleetOptions::default()
            },
        );
        assert_eq!(
            resumed.into_report().to_json(),
            reference,
            "halt on {halt_shards} shard(s), resume on {resume_shards} diverged"
        );
    }
}

#[test]
fn every_cadence_checkpoint_resumes_to_the_same_report() {
    // Three admission waves (cap 2, queue mode) with a cadence checkpoint after
    // every wave; resuming from each intermediate checkpoint reproduces the
    // uninterrupted report byte for byte.
    let mut config = base_config();
    config.admission.max_sessions = Some(2);
    config.admission.queue = true;
    let reference = run_fleet(&config).to_json();
    let mut checkpoints: Vec<FleetCheckpoint> = Vec::new();
    let mut sink = |checkpoint: &FleetCheckpoint| checkpoints.push(checkpoint.clone());
    let completed = run_fleet_with(
        &config,
        FleetOptions {
            checkpoint_every: 1,
            on_checkpoint: Some(&mut sink),
            ..FleetOptions::default()
        },
    );
    assert_eq!(completed.into_report().to_json(), reference);
    assert_eq!(
        checkpoints.len(),
        2,
        "two of the three waves leave work pending"
    );
    for checkpoint in checkpoints {
        let resumed = run_fleet_with(
            &config,
            FleetOptions {
                resume: Some(checkpoint),
                ..FleetOptions::default()
            },
        );
        assert_eq!(resumed.into_report().to_json(), reference);
    }
}
