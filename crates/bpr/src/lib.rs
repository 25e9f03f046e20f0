//! Facade over the `bpr` workspace: one dependency, one prelude.
//!
//! Downstream code (the `examples/`, scripts, external users) should
//! depend on this crate alone instead of importing six workspace
//! crates by hand:
//!
//! ```ignore
//! use bpr::prelude::*;
//!
//! let model = bpr::emn::two_server::default_model()?;
//! let mut controller = BoundedController::new(
//!     model.without_notification(50.0)?,
//!     BoundedConfig::default(),
//! )?;
//! ```
//!
//! Two layers:
//!
//! * **Module aliases** — every workspace crate re-exported under a
//!   short name (`bpr::core`, `bpr::pomdp`, `bpr::sim`, ...), so
//!   anything not in the prelude is still one path away
//!   (`bpr::pomdp::diagnosis::confusion_matrix`,
//!   `bpr::core::preview::preview`).
//! * **[`prelude`]** — the curated working set: controllers, the
//!   episode/campaign harness, model building blocks, bounds, and the
//!   RNG plumbing that nearly every program needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bpr_core as core;
pub use bpr_emn as emn;
pub use bpr_linalg as linalg;
pub use bpr_lint as lint;
pub use bpr_mdp as mdp;
pub use bpr_par as par;
pub use bpr_pomdp as pomdp;
pub use bpr_serve as serve;
pub use bpr_sim as sim;
pub use bpr_topo as topo;
pub use bpr_verify as verify;
pub use rand;

/// The scenario registry: every named model the workspace ships — the
/// paper's EMN and two-server models plus the generated `bpr-topo`
/// corpus — behind one `--scenario <name>`-style lookup surface.
pub mod scenario {
    pub use bpr_core::scenario::{
        lint_model_stages, lint_scenario, unexpected_warnings, ModelStage, Scenario,
        ScenarioRegistry,
    };

    /// The built-in registry: `emn`, `two-server`, then the generated
    /// corpus (`web3tier-small`, `cellfleet-shared-rack`,
    /// `cellfleet-mid`, `region-large`).
    ///
    /// # Panics
    ///
    /// Never — the built-in names are statically distinct (covered by
    /// tests).
    pub fn builtin() -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry
            .register(Box::new(bpr_emn::EmnScenario::default()))
            .expect("fresh registry accepts emn");
        registry
            .register(Box::new(bpr_emn::TwoServerScenario::default()))
            .expect("fresh registry accepts two-server");
        bpr_topo::register_corpus(&mut registry).expect("built-in corpus names are distinct");
        registry
    }
}

/// The curated working set: `use bpr::prelude::*;` covers what a
/// typical recovery program touches.
pub mod prelude {
    pub use bpr_core::baselines::{
        DiagnoseThenFixController, HeuristicController, MostLikelyController, OracleController,
    };
    pub use bpr_core::blueprint::{assemble, ModelBlueprint};
    pub use bpr_core::bootstrap::{
        bootstrap, bootstrap_par, bootstrap_updates, BootstrapConfig, BootstrapReport,
        BootstrapVariant, DurableBootstrapReport,
    };
    pub use bpr_core::scenario::{ModelStage, Scenario, ScenarioRegistry};
    pub use bpr_core::snapshot::{CheckpointPolicy, SnapshotError};
    pub use bpr_core::{
        ActionId, AnytimeConfig, AnytimeController, BoundedConfig, BoundedController, Error,
        NotifiedBoundedController, NotifiedConfig, RecoveryController, RecoveryModel,
        ResilienceConfig, ResilientController, StateId, Step, TerminatedModel,
    };
    pub use bpr_emn::{two_server, EmnConfig, EmnScenario, PathRouting, TwoServerScenario};
    pub use bpr_lint::{lint_pomdp, Diagnostic, LintCode, LintContext, LintReport, Severity};
    pub use bpr_mdp::chain::SolveOpts;
    pub use bpr_mdp::MdpBuilder;
    pub use bpr_par::{split_seed, Quarantined, WorkPool};
    pub use bpr_pomdp::bounds::{qmdp_bound, ra_bound, ValueBound, VectorSetBound};
    pub use bpr_pomdp::{Belief, PomdpBuilder};
    pub use bpr_serve::{
        Daemon, Frame, FrameDecoder, FrameError, IncidentStatus, Schedule, ServeConfig,
        ServeReport, SocketConfig, SocketSource, SyntheticEvents, TransportCounts,
    };
    pub use bpr_sim::{
        Campaign, CampaignReport, CampaignSummary, DegradedWorld, EpisodeOutcome, EpisodeRunner,
        HarnessConfig, PerturbationPlan, QuarantinedEpisode, World,
    };
    pub use bpr_topo::{TopoError, TopoScenario, TopologySpec, TopologySpecBuilder};
    pub use bpr_verify::{
        certified_lower_bound, mdp_ceiling, verify_controller, verify_lumped, verify_scenario,
        Oracle, OracleOpts, PolicyGraph, VerifyConfig, VerifyOutcome,
    };
    pub use rand::rngs::StdRng;
    pub use rand::{Rng, SeedableRng};
}

#[cfg(test)]
mod tests {
    // The facade's only job is to re-export coherently; a compile-time
    // smoke that the prelude names resolve and don't collide.
    #[allow(unused_imports)]
    use super::prelude::*;

    #[test]
    fn prelude_names_resolve() {
        let model = two_server::default_model().unwrap();
        let mut controller = OracleController::new(model.clone());
        let mut rng = StdRng::seed_from_stream(1, 0);
        let out = EpisodeRunner::new(&model)
            .run_with_rng(&mut controller, StateId::new(two_server::FAULT_A), &mut rng)
            .unwrap();
        assert!(out.recovered && out.terminated);
        assert_eq!(crate::emn::two_server::FAULT_A, two_server::FAULT_A);
        assert!(WorkPool::new(2).unwrap().threads() == 2);
        let report: &LintReport = model.gate_report();
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn builtin_registry_serves_paper_models_and_the_corpus() {
        let registry = crate::scenario::builtin();
        assert_eq!(
            registry.names(),
            vec![
                "emn",
                "two-server",
                "web3tier-small",
                "cellfleet-shared-rack",
                "cellfleet-mid",
                "region-large"
            ]
        );
        let scenario = registry.require("web3tier-small").unwrap();
        let model = scenario.build().unwrap();
        assert!(model.base().n_states() >= 100);
        assert!(!scenario.fault_population(&model).is_empty());
        // A spec built through the prelude surface feeds the same API.
        let spec = TopologySpec::builder()
            .tier("web", 2, 2, 60.0)
            .hosts(2)
            .racks(1)
            .build()
            .unwrap();
        let small = crate::topo::compile(&spec).unwrap();
        assert!(small.base().n_states() > 1);
    }

    #[test]
    fn serve_names_resolve() {
        let model = two_server::default_model().unwrap();
        let mut daemon = Daemon::new(&model, ServeConfig::default()).unwrap();
        let mut source = SyntheticEvents::new(
            1,
            Schedule::Steady { per_tick: 1 },
            vec![StateId::new(two_server::FAULT_A)],
            3,
        )
        .unwrap();
        let report: ServeReport = daemon.run(&mut source).unwrap();
        assert_eq!(report.lost_incidents(), 0);
        assert_eq!(report.count(IncidentStatus::Recovered), report.admitted);
    }
}
