//! Determinism contract of the parallel engines (the tentpole property
//! of the campaign/bootstrap redesign):
//!
//! * A [`Campaign`] — plain or degraded — produces bit-identical
//!   canonical outcomes at `threads = 1` and `threads = 4`, for random
//!   master seeds (property test).
//! * Episode order in `CampaignReport::outcomes` is stable: entry `i`
//!   always carries fault `population[i % population.len()]` and equals
//!   the episode a serial [`EpisodeRunner`] produces from the same
//!   per-episode streams (regression test).
//! * `bootstrap_par` reports and bounds are identical across pool
//!   widths, for random master seeds.
//! * `bootstrap` (both variants, under eviction) and `bootstrap_par`
//!   reproduce pinned hashes of their reports and final bounds, so a
//!   change that moved every width the same way is still caught; the
//!   Random bootstrap does too on two generated corpus scenarios, with
//!   and without eviction.
//! * Every belief-tracking controller (and the two wrappers around the
//!   bounded one) reproduces pinned campaign digests on EMN, in the
//!   idealised world and in one with monitor dropout and corruption;
//!   the serve daemon reproduces a pinned canonical report with all
//!   three rungs deciding; and the rules preview reproduces its pinned
//!   rows.

use bpr_core::baselines::{DiagnoseThenFixController, HeuristicController, MostLikelyController};
use bpr_core::bootstrap::{bootstrap, bootstrap_par, BootstrapConfig, BootstrapVariant};
use bpr_core::preview::{preview, PreviewOpts};
use bpr_core::snapshot::fnv1a64;
use bpr_core::{
    ActionId, AnytimeConfig, AnytimeController, Belief, BoundedConfig, BoundedController, Error,
    LumpedController, NotifiedBoundedController, NotifiedConfig, RecoveryController, RecoveryModel,
    ResilienceConfig, ResilientController, StateId, TerminatedModel,
};
use bpr_emn::actions::EmnAction;
use bpr_emn::faults::EmnState;
use bpr_emn::two_server;
use bpr_emn::EmnConfig;
use bpr_par::{split_seed, WorkPool};
use bpr_pomdp::bounds::{ra_bound, VectorSetBound};
use bpr_serve::{Daemon, Schedule, ServeConfig, SyntheticEvents};
use bpr_sim::{Campaign, EpisodeRunner, PerturbationPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// threads=1 and threads=4 campaigns are bit-identical for any
    /// master seed, with and without a degraded world.
    #[test]
    fn campaign_is_thread_count_invariant(
        master_seed in 0u64..u64::MAX,
        degraded_pick in 0u8..2,
    ) {
        let degraded = degraded_pick == 1;
        let model = two_server::default_model().expect("model builds");
        let population = [
            StateId::new(two_server::FAULT_A),
            StateId::new(two_server::FAULT_B),
        ];
        let session = |threads: usize| {
            let mut campaign = Campaign::new(&model)
                .population(&population)
                .episodes(10)
                .max_steps(60)
                .seed(master_seed)
                .threads(threads)
                .abort_tolerant(true);
            if degraded {
                campaign = campaign.degraded(&PerturbationPlan {
                    seed: master_seed ^ 0x5EED,
                    action_failure_prob: 0.25,
                    monitor_dropout_prob: 0.15,
                    ..PerturbationPlan::none()
                });
            }
            campaign
                .run(|_| MostLikelyController::new(model.clone(), 0.95))
                .expect("campaign runs")
        };
        let serial = session(1);
        let wide = session(4);
        prop_assert_eq!(serial.canonical_outcomes(), wide.canonical_outcomes());
        prop_assert_eq!(serial.aborted, wide.aborted);
        prop_assert_eq!(&serial.summary.controller, &wide.summary.controller);
        prop_assert_eq!(serial.summary.mean_cost, wide.summary.mean_cost);
        prop_assert_eq!(serial.summary.unrecovered, wide.summary.unrecovered);
    }

    /// Parallel bootstrap reports and bound sets are identical across
    /// pool widths for any master seed.
    #[test]
    fn bootstrap_par_is_thread_count_invariant(master_seed in 0u64..u64::MAX) {
        let model = two_server::default_model()
            .expect("model builds")
            .without_notification(50.0)
            .expect("transform");
        let config = BootstrapConfig {
            variant: BootstrapVariant::Random,
            iterations: 8,
            depth: 1,
            max_steps: 12,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        let run = |threads: usize| {
            let mut bound = ra_bound(model.pomdp(), &Default::default()).expect("RA-Bound");
            let pool = WorkPool::new(threads).expect("nonzero width");
            let report = bootstrap_par(&model, &mut bound, &config, 3, master_seed, &pool, None)
                .expect("bootstrap runs");
            (report, bound.to_tsv())
        };
        prop_assert_eq!(run(1), run(4));
    }
}

/// Regression: per-episode metrics order is stable. Episode `i` of a
/// parallel campaign carries fault `population[i % len]` and matches a
/// hand-rolled serial loop over [`EpisodeRunner`] that derives the same
/// `(master_seed, i)` streams — so reordering worker output or changing
/// the chunking can never silently permute (or re-seed) the rows.
#[test]
fn campaign_outcome_order_matches_serial_runner_episodes() {
    let model = bpr_emn::build_model(&bpr_emn::EmnConfig::default()).expect("EMN model builds");
    let zombies: Vec<_> = EmnState::zombies().iter().map(|s| s.state_id()).collect();
    let master_seed = 42u64;
    let episodes = 9;

    let report = Campaign::new(&model)
        .population(&zombies)
        .episodes(episodes)
        .max_steps(200)
        .seed(master_seed)
        .threads(3)
        .run(|_| MostLikelyController::new(model.clone(), 0.9999))
        .expect("campaign runs");
    assert_eq!(report.outcomes.len(), episodes);

    for (i, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(
            outcome.fault,
            zombies[i % zombies.len()],
            "episode {i} carries the wrong fault"
        );
        // Re-derive episode i by hand: same controller build, same
        // stream derivation the engine documents.
        let mut controller =
            MostLikelyController::new(model.clone(), 0.9999).expect("controller builds");
        let mut rng = StdRng::seed_from_u64(split_seed(master_seed, i as u64));
        let serial = EpisodeRunner::new(&model)
            .max_steps(200)
            .run_with_rng(&mut controller, zombies[i % zombies.len()], &mut rng)
            .expect("serial episode runs");
        assert_eq!(
            serial.canonical(),
            outcome.canonical(),
            "episode {i} diverged from its serial re-derivation"
        );
    }
}

/// The EMN model with notification transformed away, as every
/// bootstrap caller uses it, plus its RA-Bound seed.
fn emn_bootstrap_setup() -> (TerminatedModel, VectorSetBound) {
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config)
        .expect("EMN model builds")
        .without_notification(config.operator_response_time)
        .expect("transform");
    let bound = ra_bound(model.pomdp(), &Default::default()).expect("RA-Bound");
    (model, bound)
}

/// FNV-1a over a run's report, final hyperplanes and usage counters:
/// everything a bootstrap run leaves behind.
fn bootstrap_digest(report: &impl std::fmt::Debug, bound: &VectorSetBound) -> u64 {
    let canon = format!("{report:?}\n{}\n{:?}", bound.to_tsv(), bound.usage_counts());
    fnv1a64(canon.as_bytes())
}

fn emn_pin_config(variant: BootstrapVariant) -> BootstrapConfig {
    BootstrapConfig {
        variant,
        iterations: 10,
        depth: 1,
        vector_cap: Some(8),
        conditioning_action: EmnAction::Observe.action_id(),
        ..BootstrapConfig::default()
    }
}

/// Pinned output of the sequential bootstrap on EMN, both variants,
/// with a vector cap small enough that eviction runs. The hash covers
/// the per-iteration records, the backup count, the hyperplanes and
/// their usage counters.
#[test]
fn bootstrap_on_emn_matches_pinned_digests() {
    for (variant, pinned) in [
        (BootstrapVariant::Random, 12410462509408708921u64),
        (BootstrapVariant::Average, 4270547029238356423u64),
    ] {
        let (model, mut bound) = emn_bootstrap_setup();
        let mut rng = StdRng::seed_from_u64(2006);
        let report = bootstrap(&model, &mut bound, &emn_pin_config(variant), &mut rng)
            .expect("bootstrap runs");
        assert_eq!(
            bootstrap_digest(&report, &bound),
            pinned,
            "{variant:?} bootstrap drifted from its pinned digest"
        );
    }
}

/// The transformed corpus scenario `name`, its RA-Bound seed and the
/// Random-bootstrap config a pin runs it with: the first observe action
/// conditions the initial belief, depth-1 trees, short episodes.
fn corpus_bootstrap_setup(
    name: &str,
    iterations: usize,
    vector_cap: Option<usize>,
) -> (TerminatedModel, VectorSetBound, BootstrapConfig) {
    let registry = bpr::scenario::builtin();
    let scenario = registry.require(name).expect("builtin scenario");
    let model = scenario.build().expect("scenario builds");
    let transformed = model
        .without_notification(scenario.operator_response_time())
        .expect("transform");
    let bound = ra_bound(transformed.pomdp(), &Default::default()).expect("RA-Bound");
    let config = BootstrapConfig {
        variant: BootstrapVariant::Random,
        iterations,
        depth: 1,
        max_steps: 20,
        vector_cap,
        conditioning_action: *model.observe_actions().first().expect("observe action"),
        ..BootstrapConfig::default()
    };
    (transformed, bound, config)
}

/// Pinned output of the Random bootstrap on two generated corpus
/// scenarios, with and without a vector cap. The capped runs evict, and
/// eviction reads the usage marks every backup records, so the pins
/// cover the winning action's observation support as well as the
/// hyperplanes.
#[test]
fn bootstrap_on_corpus_scenarios_matches_pinned_digests() {
    let runs = [
        ("web3tier-small", 8, None),
        ("web3tier-small", 8, Some(6)),
        ("cellfleet-mid", 8, None),
        ("cellfleet-mid", 8, Some(3)),
    ];
    let digests = runs.map(|(name, iterations, vector_cap)| {
        let (model, mut bound, config) = corpus_bootstrap_setup(name, iterations, vector_cap);
        let mut rng = StdRng::seed_from_u64(2006);
        let report = bootstrap(&model, &mut bound, &config, &mut rng).expect("bootstrap runs");
        if let Some(cap) = vector_cap {
            assert!(bound.len() <= cap, "{name}: the cap holds");
        }
        bootstrap_digest(&report, &bound)
    });
    assert_eq!(
        digests,
        [
            18384502284129303956u64,
            7720202975108723489u64,
            3285983371324707993u64,
            14389682346431380259u64,
        ],
        "a corpus bootstrap drifted from its pinned digest ({runs:?})"
    );
}

/// Pinned output of the batch-synchronous bootstrap on EMN at batch 3,
/// identical at pool widths 1 and 2.
#[test]
fn bootstrap_par_on_emn_matches_pinned_digest() {
    for threads in [1, 2] {
        let (model, mut bound) = emn_bootstrap_setup();
        let pool = WorkPool::new(threads).expect("nonzero width");
        let report = bootstrap_par(
            &model,
            &mut bound,
            &emn_pin_config(BootstrapVariant::Random),
            3,
            2006,
            &pool,
            None,
        )
        .expect("bootstrap runs")
        .report;
        assert_eq!(
            bootstrap_digest(&report, &bound),
            9073550220993507524u64,
            "bootstrap_par at width {threads} drifted from its pinned digest"
        );
    }
}

/// The two worlds every controller pin runs in: the idealised one, and
/// one whose monitors drop and corrupt observations (which drives
/// `on_unobserved` and the resilient controller's robust update).
fn pin_plans() -> [PerturbationPlan; 2] {
    [
        PerturbationPlan::none(),
        PerturbationPlan {
            seed: 0xD15C,
            monitor_dropout_prob: 0.2,
            obs_corruption_prob: 0.1,
            ..PerturbationPlan::none()
        },
    ]
}

/// FNV-1a over a campaign's canonical outcomes and abort count.
fn campaign_digest<C, F>(model: &RecoveryModel, plan: &PerturbationPlan, factory: F) -> u64
where
    C: RecoveryController,
    F: Fn(usize) -> Result<C, Error> + Sync,
{
    let report = Campaign::new(model)
        .population(&model.fault_states())
        .episodes(8)
        .max_steps(80)
        .seed(2006)
        .abort_tolerant(true)
        .degraded(plan)
        .run(factory)
        .expect("campaign runs");
    let canon = format!(
        "{:?}\naborted={} quarantined={}",
        report.canonical_outcomes(),
        report.aborted,
        report.quarantined.len()
    );
    fnv1a64(canon.as_bytes())
}

/// Checks one controller's pinned campaign digests, `[none, degraded]`.
fn assert_campaign_pins<C, F>(name: &str, model: &RecoveryModel, pinned: [u64; 2], factory: F)
where
    C: RecoveryController,
    F: Fn(usize) -> Result<C, Error> + Sync,
{
    let digests = pin_plans().map(|plan| campaign_digest(model, &plan, &factory));
    assert_eq!(
        digests, pinned,
        "{name} campaigns drifted from their pinned digests"
    );
}

fn emn_model() -> (RecoveryModel, TerminatedModel) {
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config).expect("EMN model builds");
    let transformed = model
        .without_notification(config.operator_response_time)
        .expect("transform");
    (model, transformed)
}

/// Pinned campaigns of the three bounded-family controllers.
#[test]
fn bounded_family_campaigns_match_pinned_digests() {
    let (model, transformed) = emn_model();
    let bounded = BoundedController::new(transformed.clone(), BoundedConfig::default())
        .expect("bounded builds");
    assert_campaign_pins(
        "bounded",
        &model,
        [7523015506728333396, 175155547550026401],
        |_| Ok(bounded.clone()),
    );
    let anytime = AnytimeController::new(
        transformed,
        AnytimeConfig {
            node_budget: 300,
            max_depth: 2,
            backup_online: true,
            vector_cap: Some(12),
            ..AnytimeConfig::default()
        },
    )
    .expect("anytime builds");
    assert_campaign_pins(
        "anytime",
        &model,
        [8153743305328812460, 8348128169808035864],
        |_| Ok(anytime.clone()),
    );
    let notified =
        NotifiedBoundedController::new(&model, NotifiedConfig::default()).expect("notified builds");
    assert_campaign_pins(
        "bounded-notified",
        &model,
        [2593731390369065305, 6765209625821522417],
        |_| Ok(notified.clone()),
    );
}

/// Pinned campaigns of the three termination-probability baselines.
#[test]
fn baseline_campaigns_match_pinned_digests() {
    let (model, _) = emn_model();
    assert_campaign_pins(
        "most-likely",
        &model,
        [15408186536377121676, 13260142606161555605],
        |_| MostLikelyController::new(model.clone(), 0.9999),
    );
    assert_campaign_pins(
        "heuristic",
        &model,
        [4564989116314916101, 3395747491074741556],
        |_| HeuristicController::new(model.clone(), 1, 0.9999),
    );
    assert_campaign_pins(
        "diagnose-fix",
        &model,
        [2035859530870468077, 433394678100597262],
        |_| DiagnoseThenFixController::new(model.clone(), 0.8, 0.9999),
    );
}

/// Pinned campaigns of the two wrappers around the bounded controller.
#[test]
fn wrapped_bounded_campaigns_match_pinned_digests() {
    let (model, transformed) = emn_model();
    let bounded = BoundedController::new(transformed.clone(), BoundedConfig::default())
        .expect("bounded builds");
    let resilient = ResilientController::new(model.clone(), bounded, ResilienceConfig::default())
        .expect("resilient builds");
    assert_campaign_pins(
        "resilient-bounded",
        &model,
        [11374480065852760072, 4349778089375842642],
        |_| Ok(resilient.clone()),
    );
    let (quotient, certificate) = transformed.lump().expect("lumps");
    let lumped = LumpedController::new(
        BoundedController::new(quotient, BoundedConfig::default()).expect("bounded builds"),
        certificate,
    );
    assert_campaign_pins(
        "bounded+lump",
        &model,
        [7523015506728333396, 175155547550026401],
        |_| Ok(lumped.clone()),
    );
}

/// Pinned canonical serve report on EMN with escalation thresholds low
/// enough that the bounded, resilient and anytime rungs all decide.
#[test]
fn serve_on_emn_matches_pinned_canonical_digest() {
    let (model, _) = emn_model();
    let config = ServeConfig {
        max_live: 4,
        queue_capacity: 16,
        degrade_queue_depth: 8,
        max_steps: 40,
        escalate_resilient_after: 2,
        escalate_anytime_after: 4,
        operator_response_time: EmnConfig::default().operator_response_time,
        master_seed: 2006,
        plan: pin_plans()[1].clone(),
        record_actions: true,
        ..ServeConfig::default()
    };
    let mut daemon = Daemon::new(&model, config).expect("daemon builds");
    let mut source = SyntheticEvents::new(
        2006,
        Schedule::Bursty {
            background: 1,
            burst: 4,
            period: 3,
        },
        model.fault_states(),
        8,
    )
    .expect("source builds");
    let canonical = daemon.run(&mut source).expect("run completes").canonical();
    assert!(
        canonical.escalated_resilient > 0,
        "resilient rung never decided"
    );
    assert!(
        canonical.escalated_anytime > 0,
        "anytime rung never decided"
    );
    assert_eq!(
        fnv1a64(format!("{canonical:?}").as_bytes()),
        17639641289969471312u64,
        "serve canonical report drifted from its pinned digest"
    );
}

/// Pinned rows of the `rules_preview` example's setup: EMN, Average
/// bootstrap at depth 2, horizon-3 preview from the uniform fault
/// belief.
#[test]
fn rules_preview_rows_match_pinned_digest() {
    let (model, transformed) = emn_model();
    let mut bound = ra_bound(transformed.pomdp(), &Default::default()).expect("RA-Bound");
    let mut rng = StdRng::seed_from_u64(7);
    bootstrap(
        &transformed,
        &mut bound,
        &BootstrapConfig {
            variant: BootstrapVariant::Average,
            iterations: 10,
            depth: 2,
            max_steps: 40,
            conditioning_action: EmnAction::Observe.action_id(),
            ..BootstrapConfig::default()
        },
        &mut rng,
    )
    .expect("bootstrap runs");
    let initial = Belief::uniform_over(model.base().n_states(), &model.fault_states());
    let rows = preview(
        &transformed,
        &bound,
        &initial,
        &PreviewOpts {
            horizon: 3,
            max_rows: 40,
            ..PreviewOpts::default()
        },
    )
    .expect("preview runs");
    assert_eq!(
        fnv1a64(format!("{rows:?}").as_bytes()),
        2841862839112615693u64,
        "preview rows drifted from their pinned digest"
    );
}

/// Pinned content fingerprints of the notified (`with_notification`)
/// and transformed (`without_notification`) models of the paper's two
/// models and two corpus scenarios, and of the quotient of a topology
/// whose lump merges states. The fingerprint hashes every transition,
/// reward, duration and observation entry per action, so a change to
/// how the model stores its matrices that altered any of them, or the
/// order they are hashed in, moves a pin.
#[test]
fn model_fingerprints_match_pinned_values() {
    let registry = bpr::scenario::builtin();
    let mut seen = Vec::new();
    for name in ["emn", "two-server", "web3tier-small", "cellfleet-mid"] {
        let scenario = registry.require(name).expect("builtin scenario");
        let model = scenario.build().expect("scenario builds");
        let notified = model.with_notification().expect("notified transform");
        let transformed = model
            .without_notification(scenario.operator_response_time())
            .expect("terminate transform");
        seen.push((format!("{name} notified"), notified.fingerprint()));
        seen.push((
            format!("{name} transformed"),
            transformed.pomdp().fingerprint(),
        ));
    }
    let spec = bpr_topo::TopologySpec::builder()
        .tier("web", 2, 3, 60.0)
        .hosts(3)
        .racks(1)
        .restart_group_size(1)
        .seed(0)
        .build()
        .expect("spec is statically valid");
    let (quotient, certificate) = bpr_topo::compile(&spec)
        .expect("spec compiles")
        .without_notification(spec.operator_response_time)
        .expect("transform")
        .lump()
        .expect("lumping succeeds");
    assert!(!certificate.is_identity(), "the fixture merges states");
    seen.push((
        "single-rack quotient".into(),
        quotient.pomdp().fingerprint(),
    ));
    let pinned: [(&str, u64); 9] = [
        ("emn notified", 7018070567932201698u64),
        ("emn transformed", 10125784819033359921u64),
        ("two-server notified", 13478123036257016699u64),
        ("two-server transformed", 11636608336597711369u64),
        ("web3tier-small notified", 16518304579946197104u64),
        ("web3tier-small transformed", 6802011085000387014u64),
        ("cellfleet-mid notified", 4495120917521969004u64),
        ("cellfleet-mid transformed", 6540966982560497676u64),
        ("single-rack quotient", 18014241102517942525u64),
    ];
    let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, f)| (n.into(), f)).collect();
    assert_eq!(seen, pinned, "a model fingerprint drifted from its pin");
}
