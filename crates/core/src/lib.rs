//! Bounded-POMDP automatic recovery — the core contribution of
//! *Automatic Recovery Using Bounded Partially Observable Markov
//! Decision Processes* (Joshi, Hiltunen, Sanders, Schlichting; DSN
//! 2006), reimplemented as a reusable library.
//!
//! The pipeline this crate implements:
//!
//! 1. Describe the system as a *recovery model*: a POMDP whose states
//!    are faults (plus null-fault states `S_φ`), whose actions are
//!    recovery/monitoring steps, and whose observations are monitor
//!    outputs — see [`RecoveryModel`].
//! 2. Validate the paper's **Condition 1** (recovery is always
//!    possible) and **Condition 2** (rewards are costs) —
//!    [`conditions`], built on the [`lint`] static analyzer, which can
//!    also produce a complete structured diagnostic report
//!    ([`RecoveryModel::lint`] / [`TerminatedModel::lint`]).
//! 3. Apply a structural transform guaranteeing the RA-Bound exists:
//!    [`RecoveryModel::with_notification`] for systems that can detect
//!    recovery, or [`RecoveryModel::without_notification`] which adds
//!    the terminate action `a_T` with operator-response-time-derived
//!    termination rewards (§3.1).
//! 4. Compute the RA-Bound and optionally tighten it with bootstrapped
//!    incremental backups — [`bootstrap`].
//! 5. Run the online [`BoundedController`], which expands the belief
//!    tree to a small depth with the bound at the leaves and provably
//!    terminates (§4.2). Baselines from the paper's evaluation
//!    ([`baselines`]) share the same [`RecoveryController`] interface.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` in the repository root for an
//! end-to-end run on the paper's two-server model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anytime;
pub mod baselines;
pub mod blueprint;
pub mod bootstrap;
mod bounded;
pub mod conditions;
mod controller;
mod error;
mod lumped;
mod model;
mod notified;
pub mod preview;
mod resilient;
pub mod scenario;
pub mod snapshot;

pub use anytime::{
    anytime_expand_with_workspace, AnytimeConfig, AnytimeController, AnytimeDecision, AnytimeStats,
};
pub use bounded::{BoundedConfig, BoundedController};
pub use controller::{RecoveryController, ResilienceStats, Step};
pub use error::Error;
pub use lumped::LumpedController;
pub use model::{Notification, RecoveryModel, TerminatedModel};
pub use notified::{NotifiedBoundedController, NotifiedConfig};
pub use resilient::{EscalationLevel, ResilienceConfig, ResilientController};

pub use bpr_mdp::{ActionId, StateId};
pub use bpr_pomdp::{Belief, ObservationId};

/// The `bpr-lint` static model analyzer, re-exported: structured
/// diagnostics (lint code, severity, offending ids with labels, fix-it
/// hints) over any recovery-model POMDP. [`conditions`] is built on it.
pub use bpr_lint as lint;
