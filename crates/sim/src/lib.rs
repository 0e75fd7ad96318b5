//! Randomized chunk-based streaming simulator — and closed-loop session engine — for
//! broadcast overlays.
//!
//! The paper computes *static* overlay networks (which node sends to which node, at which
//! rate) and delegates the actual data transfer to the decentralized randomized broadcast of
//! Massoulié et al. \[4\]: the message is split into chunks and every sender repeatedly pushes
//! a *random useful* chunk to each of its overlay neighbours, at the rate assigned to that
//! edge. This crate provides a discrete-time simulator of that data plane, in two layers:
//!
//! # The one-shot simulator
//!
//! [`engine::Simulator`] validates an overlay end to end: a scheme of nominal throughput
//! `T` should deliver the whole message to every node at a rate close to `T`. It supports
//! chunk-policy ablation, bandwidth jitter, live-stream sources, scheduled churn and
//! progress tracing — but the overlay it simulates is frozen for the whole run. It is a
//! frozen-overlay front end over the session engine below: it drives an
//! [`adapt::AdaptiveRun`] under [`adapt::StaticPolicy`], so the crate has one churn loop.
//!
//! # The session engine (closed-loop adaptive simulation)
//!
//! The paper's conclusion makes a *dynamic* claim — the overlays tolerate "small
//! variations in communication performance" but are "probably not resilient to churn",
//! and the algorithms are cheap enough to re-run on every membership change. The session
//! layer tests exactly that, live:
//!
//! * [`session::Session`] — the stepped data plane: chunk possession as word-packed
//!   bitsets ([`bitset::ChunkBitset`], O(chunks/64) useful-chunk scans), per-edge credit,
//!   per-node completion, one RNG seeded once from [`SimConfig::seed`] and never
//!   re-seeded. [`session::Session::hot_swap`] replaces the overlay mid-broadcast without
//!   losing delivered chunks (credit on surviving `(from, to)` pairs carries over);
//! * [`adapt`] — the control loop ([`adapt::run_adaptive`], control-flow diagram in the
//!   module docs) and the [`adapt::AdaptationPolicy`] contract: on every membership
//!   change the policy sees the full departed set and may return a replacement overlay.
//!   [`adapt::RepairController`] is the reference implementation: it probes the victim's
//!   degradation tolerance (one working copy whose rates move in place, re-evaluated on
//!   one reused arena), measures the frozen overlay's residual throughput, and re-solves the
//!   surviving platform only when the residual misses its floor;
//! * metrics for the closed loop: [`metrics::SimReport::delivered_goodput`] (defined
//!   even when starved receivers never complete) and the per-swap recovery instants of
//!   [`adapt::SessionOutcome`], so static-vs-repaired runs compare on *delivered*
//!   throughput under the same seed and churn trace.
//!
//! The robustness plane rounds this out: [`faults::FaultPlan`] scripts deterministic
//! fault storms (injected solver failures, forced verification failures, probe
//! timeouts, flow-worker panics, seeded churn storms) into a controller's evaluation
//! context, and [`adapt::AdaptiveRun`] makes the closed loop crash-safe — its
//! [`adapt::RunCheckpoint`] captures session, schedule and controller state so a
//! resumed run replays bit-identically. A corrupted checkpoint is refused with a
//! [`session::CheckpointError`] naming the violated invariant, never a panic.
//!
//! Module map: [`overlay`] (static weighted digraphs extracted from a
//! [`bmp_core::scheme::BroadcastScheme`]), [`bitset`] (packed possession sets),
//! [`session`] (stepped data plane), [`engine`] (one-shot frozen-overlay front end),
//! [`adapt`] (control loop, checkpoint/resume), [`faults`] (deterministic fault
//! injection), [`policy`] (chunk selection), [`events`] (churn schedules), [`trace`]
//! (progress time series), [`metrics`] (delivery reports).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod bitset;
pub mod engine;
pub mod events;
pub mod faults;
pub mod metrics;
pub mod overlay;
pub mod policy;
pub mod session;
pub mod trace;

pub use adapt::{
    run_adaptive, AdaptDecision, AdaptationPolicy, AdaptiveRun, ControllerDecision,
    ControllerSnapshot, RepairController, RunCheckpoint, SessionOutcome, StaticPolicy, SwapEvent,
};
pub use bitset::ChunkBitset;
pub use engine::{SimConfig, Simulator, SourceMode};
pub use events::{ChurnAction, ChurnEvent, ChurnSchedule};
pub use faults::{merge_schedules, FaultPlan, DEFAULT_STORM_SEED};
pub use metrics::SimReport;
pub use overlay::Overlay;
pub use policy::ChunkPolicy;
pub use session::{CheckpointError, RoundStats, Session, SessionSnapshot};
pub use trace::{ProgressTrace, TraceSample};
