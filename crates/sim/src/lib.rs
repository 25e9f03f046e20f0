//! Simulation substrate for the `bpr` workspace: the fault-injection
//! harness behind the paper's experiments (§5) and a small
//! discrete-event engine used for request-level model validation.
//!
//! * [`World`] — ground-truth simulator of a recovery model: holds the
//!   true (hidden) fault state and samples transitions and monitor
//!   observations from the model's `p` and `q`.
//! * [`degraded`] — the robustness extension: [`DegradedWorld`] wraps a
//!   [`World`] and perturbs its contract with the controller (silent
//!   action failures, monitor dropout, observation corruption,
//!   mid-episode secondary faults) under a seeded
//!   [`PerturbationPlan`].
//! * [`harness`] — drives any [`bpr_core::RecoveryController`] against
//!   a [`World`] (or [`DegradedWorld`]) via the [`EpisodeRunner`]
//!   builder, measuring the paper's per-fault metrics: cost, recovery
//!   time, residual time, algorithm time, recovery actions, and
//!   monitor calls (Table 1).
//! * [`campaign`] — the deterministic parallel campaign engine:
//!   [`Campaign`] fans independent episodes across a
//!   [`bpr_par::WorkPool`] with per-episode RNG streams, bit-identical
//!   for every thread count.
//! * [`metrics`] — campaign aggregation (per-fault averages).
//! * [`des`] — a generic discrete-event queue, used by the
//!   request-level simulation that validates the model's analytic drop
//!   fractions against individually routed requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod degraded;
pub mod des;
pub mod harness;
pub mod metrics;
mod world;

pub use campaign::{Campaign, CampaignReport, QuarantinedEpisode};
pub use degraded::{DegradedWorld, PerturbationCounts, PerturbationPlan, SimWorld, StepResult};
pub use harness::{
    detection_belief, run_campaign, EpisodeOutcome, EpisodeRunner, HarnessConfig, TraceEvent,
};
pub use metrics::CampaignSummary;
pub use world::World;
