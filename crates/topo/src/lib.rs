//! `bpr-topo`: declarative datacenter topologies compiled into
//! bounded-POMDP recovery models.
//!
//! The paper validates bounded-POMDP recovery on a 14-state testbed;
//! this crate is the scenario factory that turns every perf and
//! robustness claim in the workspace into a model-*family* claim. A
//! [`TopologySpec`] describes a tiered deployment (tiers × services ×
//! replicas placed across hosts and racks), its monitor fleet (with
//! per-monitor false-positive/false-negative rates), and its hazard
//! families (component crashes and zombies, host crashes, network
//! partitions, rolling-deploy faults, cascading restart failures);
//! [`compile()`] turns it into a validated
//! [`bpr_core::RecoveryModel`] through the shared
//! [`bpr_core::blueprint`] pipeline.
//!
//! The generation contract: **every valid spec compiles to a model
//! that passes `bpr-lint` clean at error severity** — Conditions 1
//! and 2 of the paper hold by construction, and the proptests in this
//! crate's test suite enforce it over random specs.
//!
//! Scale is kept tractable by design: recovery actions are coarse
//! (group restarts, rack reboots) so `|A|` stays in the tens, and
//! observations use a first-alarm encoding so `|O|` grows linearly in
//! the monitor count instead of exponentially. The [`corpus`](mod@corpus) module
//! ships named scenarios from 10² to 10⁴ states behind the
//! [`bpr_core::scenario::Scenario`] registry API.
//!
//! # Examples
//!
//! ```
//! use bpr_topo::TopologySpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = TopologySpec::builder()
//!     .tier("web", 3, 2, 60.0)
//!     .tier("db", 2, 2, 240.0)
//!     .hosts(4)
//!     .racks(2)
//!     .build()?;
//! let model = bpr_topo::compile(&spec)?;
//! assert!(model.lint().count(bpr_topo::Severity::Error) == 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod corpus;
pub mod layout;
pub mod spec;

pub use compile::compile;
pub use corpus::{
    cellfleet_mid, cellfleet_shared_rack, corpus, region_large, register_corpus, web3tier_small,
    TopoScenario,
};
pub use layout::{Layout, TopoAction, TopoState};
pub use spec::{
    DurationSpec, HazardSpec, MonitorSpec, TierSpec, TopoError, TopologySpec, TopologySpecBuilder,
};

// Re-exported so the doc example (and downstream lint assertions) have
// the severity enum one import away.
pub use bpr_core::lint::Severity;
