//! The unified Scenario API: one registry, one lookup surface, the
//! paper's models and the generated `bpr-topo` corpus behind the same
//! trait. These tests pin the registry contract the bench binaries
//! rely on (`--scenario <name>` resolves through `require`), the
//! metadata every registered scenario must carry, and that a full
//! simulation campaign runs end-to-end on a generated scenario.

use bpr::prelude::*;

/// The builtin catalog, in registration order: the paper's models
/// first, then the generated corpus small → large.
const BUILTIN: [&str; 6] = [
    "emn",
    "two-server",
    "web3tier-small",
    "cellfleet-shared-rack",
    "cellfleet-mid",
    "region-large",
];

#[test]
fn builtin_registry_lists_the_catalog_in_order() {
    let registry = bpr::scenario::builtin();
    assert_eq!(registry.names(), BUILTIN.to_vec());
    assert_eq!(registry.len(), BUILTIN.len());
    assert!(!registry.is_empty());
    for name in BUILTIN {
        let scenario = registry.get(name).expect("builtin scenario resolves");
        assert_eq!(scenario.name(), name, "registry key matches self-report");
    }
    assert!(registry.get("no-such-scenario").is_none());
}

#[test]
fn require_names_the_catalog_on_unknown_scenarios() {
    let registry = bpr::scenario::builtin();
    let message = match registry.require("no-such-scenario") {
        Ok(_) => panic!("unknown scenario resolved"),
        Err(e) => e.to_string(),
    };
    assert!(message.contains("no-such-scenario"), "{message}");
    // The error doubles as discovery: it lists what *is* available.
    assert!(message.contains("emn"), "{message}");
    assert!(message.contains("cellfleet-mid"), "{message}");
}

#[test]
fn registration_rejects_duplicate_names() {
    let mut registry = ScenarioRegistry::new();
    registry
        .register(Box::new(EmnScenario::default()))
        .expect("first registration succeeds");
    let err = registry
        .register(Box::new(EmnScenario::default()))
        .unwrap_err();
    assert!(err.to_string().contains("emn"), "{err}");
    assert_eq!(registry.len(), 1);
}

/// Every registered scenario — paper and generated alike — must build,
/// declare a positive operator response time, and draw its fault
/// population from real non-null states. Generated corpus scenarios
/// additionally expect no lint warnings (the generation contract
/// promises warning-free models); the paper scenarios allowlist
/// exactly the two info findings their raw models carry by design
/// (BPR013 fault-injected orphans, BPR019 pre-transform divergence),
/// which serving harnesses suppress via `expected_warnings`.
#[test]
fn registered_scenarios_carry_sane_metadata() {
    let registry = bpr::scenario::builtin();
    for scenario in registry.iter() {
        let name = scenario.name();
        assert!(!scenario.description().is_empty(), "{name}: description");
        assert!(
            scenario.operator_response_time() > 0.0,
            "{name}: t_op must be positive"
        );
        if matches!(name, "emn" | "two-server") {
            assert_eq!(
                scenario.expected_warnings(),
                vec![LintCode::OrphanState, LintCode::DivergentRandomChain],
                "{name}: paper scenarios allowlist exactly their designed findings"
            );
        } else {
            assert!(
                scenario.expected_warnings().is_empty(),
                "{name}: generated scenarios ship warning-free"
            );
        }
        let model = scenario.build().expect("builtin scenario builds");
        let population = scenario.fault_population(&model);
        assert!(!population.is_empty(), "{name}: empty fault population");
        let faults = model.fault_states();
        for state in &population {
            assert!(
                faults.contains(state),
                "{name}: population state {state} is not a fault state"
            );
        }
    }
}

/// The EMN scenario is a registry veneer, not a fork: it builds the
/// exact model the paper-reproduction constructor builds.
#[test]
fn emn_scenario_matches_the_paper_constructor() {
    let via_registry = EmnScenario::default().build().unwrap();
    let via_constructor = bpr::emn::build_model(&EmnConfig::default()).unwrap();
    assert!(
        via_registry == via_constructor,
        "EmnScenario diverged from build_model(&EmnConfig::default())"
    );
}

/// End-to-end on a generated scenario: resolve by name, build, plan
/// with the bounded controller, and run a multi-episode campaign over
/// the scenario's declared fault population.
#[test]
fn a_campaign_runs_on_a_generated_scenario() {
    let registry = bpr::scenario::builtin();
    let scenario = registry.require("web3tier-small").unwrap();
    let model = scenario.build().unwrap();
    let population = scenario.fault_population(&model);
    let transformed = model
        .without_notification(scenario.operator_response_time())
        .unwrap();
    let prototype = BoundedController::new(transformed, BoundedConfig::default()).unwrap();
    let report = Campaign::new(&model)
        .population(&population)
        .episodes(6)
        .seed(7)
        .threads(2)
        .run(|_| Ok(prototype.clone()))
        .expect("campaign runs on the generated model");
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(report.aborted, 0);
    assert_eq!(report.summary.unrecovered, 0, "{:?}", report.summary);
    for outcome in &report.outcomes {
        assert!(outcome.recovered && outcome.terminated);
    }
}

/// The lint gate runs once per model: `gate_report` memoizes exactly
/// the report a fresh analyzer run produces, clones made before first
/// use share it, worlds read their warnings from it, and the memo is
/// not part of model equality (clones share the memo, so the unlinted
/// side is a second build of the same scenario).
#[test]
fn the_gate_report_is_memoized_per_model() {
    let registry = bpr::scenario::builtin();
    for scenario in registry.iter() {
        let name = scenario.name();
        let model = scenario.build().expect("builtin scenario builds");
        let early = model.clone();
        let fresh = lint_pomdp(model.base(), &model.lint_context());
        let report = model.gate_report();
        assert_eq!(*report, fresh, "{name}: memo differs from a fresh lint");
        assert_eq!(*early.gate_report(), fresh, "{name}: clone before use");
        assert!(
            std::ptr::eq(report, early.gate_report()),
            "{name}: clones share one memo"
        );
        let fault = scenario.fault_population(&model)[0];
        let world = World::new(&model, fault).expect("lint-clean model");
        assert_eq!(world.lint_warnings(), fresh.diagnostics(), "{name}");
        let unlinted = scenario.build().expect("builtin scenario builds");
        assert!(model == unlinted, "{name}: linted == unlinted");
        assert!(unlinted == model, "{name}: unlinted == linted");
    }
}
