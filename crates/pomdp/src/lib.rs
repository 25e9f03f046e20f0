//! Partially observable Markov decision processes for the `bpr`
//! workspace.
//!
//! A POMDP here is the tuple `(S, A, O, p(·|s,a), q(·|s,a), r(s,a))` of
//! the paper's Section 2: an [`bpr_mdp::Mdp`] plus an observation model
//! `q(o | s', a)` — the probability of observing `o` when the system
//! *enters* state `s'` as a result of action `a`.
//!
//! The crate provides:
//!
//! * [`Pomdp`] / [`PomdpBuilder`] — validated models.
//! * [`Belief`] — probability distributions over states with the Bayes
//!   update of Eq. 3–4 and sampling helpers for simulation.
//! * [`bounds`] — value-function bounds: the paper's **RA-Bound**
//!   (§3.1), the BI-POMDP lower bound, Hauskrecht's blind-policy bound,
//!   and QMDP/FIB *upper* bounds (the paper's "future work" extension),
//!   all represented as sets of bounding hyperplanes
//!   ([`bounds::VectorSetBound`], Eq. 6).
//! * [`backup`] — Hauskrecht's incremental linear-function backup
//!   (Eq. 7) used for iterative bound improvement.
//! * [`tree`] — the finite-depth Max-Avg expansion of the dynamic
//!   programming recursion (Fig. 1(b)) with bounds at the leaves, the
//!   decision procedure of the online recovery controller. Expansion
//!   runs on fused posterior operators precomputed per
//!   `(action, observation)` at model build time, with all scratch in a
//!   reusable [`PlanWorkspace`] — steady-state decisions allocate
//!   nothing.
//!
//! # Examples
//!
//! ```
//! use bpr_mdp::MdpBuilder;
//! use bpr_pomdp::{Belief, PomdpBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One-state world with a single no-op action and one observation.
//! let mut mb = MdpBuilder::new(1, 1);
//! mb.transition(0, 0, 0, 1.0);
//! let mut pb = PomdpBuilder::new(mb.build()?, 1);
//! pb.observation(0, 0, 0, 1.0);
//! let pomdp = pb.build()?;
//!
//! let belief = Belief::uniform(1);
//! let (next, gamma) = belief.update(&pomdp, 0.into(), 0.into())?;
//! assert_eq!(gamma, 1.0);
//! assert_eq!(next.probs(), &[1.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
mod belief;
pub mod bounds;
pub mod diagnosis;
mod error;
pub mod lump;
mod model;
mod plan;
pub mod tree;

pub use belief::{Belief, RobustUpdate};
pub use bpr_mdp::{ActionId, StateId};
pub use error::Error;
pub use lump::{lump, lump_certificate, LumpCertificate, LumpStats, Lumping};
pub use model::{ObservationId, Pomdp, PomdpBuilder};
pub use plan::{CacheEpoch, PlanStats, PlanWorkspace};
