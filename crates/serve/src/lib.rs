//! `bmp-serve`: a sharded multi-session broadcast server.
//!
//! The paper's model is one source streaming to one heterogeneous platform; the fleet
//! layer runs *many* such broadcasts concurrently in a single process. Sessions are
//! admitted (or rejected/queued) by a capacity policy, hashed across a fixed set of
//! shard worker threads, stepped round-robin within each shard, and self-healed by a
//! per-session [`bmp_sim::RepairController`] driven off a per-session churn schedule
//! derived from one shared feed. Solver and repair flow work runs on the shard thread
//! that steps the session; with `flow_threads > 1` each evaluation also spawns up to
//! `min(flow_threads - 1, 8)` scoped helpers through [`bmp_flow::FlowPool::global`] and
//! joins them before returning. The bound is per evaluation, so `K` shards may run up
//! to `K × min(flow_threads - 1, 8)` helpers at once, and none at the default of `1`.
//!
//! # Architecture
//!
//! ```text
//!                       ┌────────────────────────────────────┐
//!  FleetConfig ───────▶ │ coordinator                        │
//!                       │  · per-session seeds (splitmix64)  │
//!                       │  · platform generation             │
//!                       │  · admission decisions (ordered)   │
//!                       └──────┬─────────────────────────────┘
//!                              │ admitted sessions, wave by wave
//!               ┌──────────────┼──────────────┐    session i → shard i mod K
//!               ▼              ▼              ▼
//!         ┌──────────┐   ┌──────────┐   ┌──────────┐
//!         │ shard 0  │   │ shard 1  │   │ shard K-1│   round-robin stepping:
//!         │ sessions │   │ sessions │   │ sessions │   AdaptiveRun + RepairController
//!         └────┬─────┘   └────┬─────┘   └────┬─────┘   per session, one round at a
//!              │              │              │         time across the shard's list
//!              └──────────────┼──────────────┘
//!                             ▼
//!                  FlowPool::global()  (per evaluation: ≤ 8 scoped helpers,
//!                                       the shard thread drains its own share)
//!                             │
//!                             ▼
//!               ┌─────────────────────────────┐
//!               │ ordered metric merge        │  session-id order, shard-agnostic:
//!               │ SessionStats → FleetReport  │  same seed ⇒ byte-identical report
//!               └─────────────────────────────┘
//! ```
//!
//! # Determinism contract
//!
//! A fleet run is a pure function of its [`FleetConfig`] — the shard count changes
//! only *where* sessions are stepped, never *what* they compute:
//!
//! * every session owns an RNG stream keyed by `splitmix64(fleet_seed, session_id)`,
//!   used for its platform, its simulator, and its churn schedule;
//! * admission is decided on the coordinator in session-id order, before any shard
//!   thread exists;
//! * sessions never interact: each has its own instance, overlay, controller and
//!   evaluation context, so stepping order across sessions is irrelevant;
//! * the flow fan-out is bit-for-bit equal to sequential evaluation (and a
//!   contained helper panic falls back to the sequential path), so helper scheduling
//!   races cannot perturb results;
//! * [`FleetReport`] is assembled in session-id order and records no shard ids, so
//!   the serialized report for seed S is byte-identical across 1, 2 or 4 shards.
//!
//! The determinism tests in `tests/fleet.rs` assert exactly that.
//!
//! # Supervision
//!
//! Fleets are long-lived and sessions can fail: a solver defect (or an injected
//! fault reaching an unhardened path) panics, or a session wedges and stops making
//! progress. Supervision contains both without giving up determinism. Every admitted
//! session moves through this state machine:
//!
//! ```text
//!                        ┌───────────────────────────────────────────────┐
//!                        │                 re-admitted (attempt + 1,     │
//!                        │                 seeded later wave)            │
//!                        ▼                                               │
//!  submitted ──▶ admitted(wave) ──▶ running ──▶ completed                │
//!      │                              │                                  │
//!      │ rejected                     │ panic ──▶ quarantined(Panic) ────┤ attempt < R
//!      ▼                              │                    │             │
//!   rejected                          │                    │ attempt = R │
//!   (logged,                          │                    ▼             │
//!    never run)                       │               permanent ◀────────┘
//!                                     │                    ▲
//!                                     │ no progress for    │ still no progress
//!                                     │ a full deadline ──▶│ after one forced
//!                                     │                    │ repair attempt
//!                                     │                    │   (Stuck)
//!                                     └─ round budget ────▶┘   (Budget)
//! ```
//!
//! * **Crash isolation.** Each shard builds and steps every session inside
//!   `catch_unwind`. A panicking session is quarantined with a deterministic
//!   panic-site tag (the panic message); the shard's co-resident sessions restart
//!   from their last per-session checkpoints — bit-exact, so co-residency never
//!   leaks into results — instead of the shard thread dying.
//! * **Watchdog.** [`SupervisionConfig`] derives a per-session round budget from the
//!   chunk count (overridable) and a no-progress deadline from
//!   `RoundStats::all_active_progressed`. At the first deadline the supervisor
//!   forces a repair attempt; if a second full deadline passes without progress the
//!   session is quarantined as `Stuck`. Exceeding the round budget quarantines it as
//!   `Budget`.
//! * **Bounded retry.** Panic quarantines are treated as transient for up to
//!   `max_retries` re-admissions: the session resumes from its last checkpoint in a
//!   seeded later wave (deterministic backoff of 1–3 waves). Stuck/Budget
//!   quarantines are deterministic verdicts and always permanent.
//!
//! # Fleet checkpoint / resume
//!
//! [`run_fleet_with`] can park every running session at a round boundary
//! (`halt_after`) and serialize a [`FleetCheckpoint`]: the config, the admission
//! log, completed rows, the quarantine log, and one [`bmp_sim::RunCheckpoint`] per
//! in-flight session (plus its fault-script cursor and watchdog counters). Resuming
//! revalidates the config (only the shard count may change) and the recomputed
//! admission log, then continues the wave loop. Because per-session resume is
//! bit-exact, the final [`FleetReport`] of a halted-and-resumed fleet is
//! byte-identical to the uninterrupted run, at any shard count — checkpoint
//! *documents* themselves may differ across layouts; only the final report is
//! canonical. Cadence checkpoints (`checkpoint_every` waves) stream to a caller
//! sink for crash-safe persistence.

pub mod admission;
pub mod feed;
pub mod fleet;
pub mod metrics;
pub mod supervise;

pub use admission::{AdmissionDecision, AdmissionPolicy, AdmissionVerdict, RejectReason};
pub use feed::{ChurnConfig, ChurnFeed, MAX_CHURN_WAVES};
pub use fleet::{run_fleet, run_fleet_with, FleetConfig, FleetOptions, FleetRun};
pub use metrics::{FleetMetrics, FleetReport, SessionStats};
pub use supervise::{
    Disposition, FleetCheckpoint, QuarantineReason, QuarantineRecord, SessionFaults, SessionPanic,
    SessionWedge, SupervisionConfig,
};

/// The splitmix64 finalizer, used to derive independent per-session RNG streams from
/// the fleet seed. Consecutive session ids land in statistically unrelated streams,
/// and the derivation depends only on `(seed, stream)` — never on shard layout.
#[must_use]
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix_seed;

    #[test]
    fn mixed_seeds_are_distinct_and_deterministic() {
        let a = mix_seed(0x5EED, 0);
        let b = mix_seed(0x5EED, 1);
        let c = mix_seed(0x5EED + 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix_seed(0x5EED, 0));
    }
}
