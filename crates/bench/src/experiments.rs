//! The experiments of the paper's Section 5, as reusable functions.

use bpr_core::baselines::{HeuristicController, MostLikelyController, OracleController};
use bpr_core::bootstrap::{
    bootstrap, bootstrap_updates, BootstrapConfig, BootstrapVariant, IterationRecord,
};
use bpr_core::scenario::Scenario;
use bpr_core::{
    BoundedConfig, BoundedController, Error, LumpedController, RecoveryModel, ResilienceConfig,
    ResilientController, TerminatedModel,
};
use bpr_emn::actions::EmnAction;
use bpr_emn::faults::EmnState;
use bpr_emn::EmnConfig;
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::value_iteration::Discount;
use bpr_pomdp::bounds::{bi_pomdp_bound, blind_bound, fib_bound, qmdp_bound, ra_bound, ValueBound};
use bpr_pomdp::Belief;
use bpr_sim::{Campaign, CampaignSummary, PerturbationCounts, PerturbationPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the paper's EMN model with default parameters.
///
/// # Errors
///
/// Never fails for the default configuration; the `Result` propagates
/// the generator's validation.
pub fn emn_model() -> Result<RecoveryModel, Error> {
    bpr_emn::build_model(&EmnConfig::default())
}

/// One bootstrap-variant series of Figure 5 (both panels share it:
/// 5(a) plots `-bound_at_uniform`, 5(b) plots `n_vectors`).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Series {
    /// Which bootstrapping variant produced the series.
    pub variant: BootstrapVariant,
    /// Per-iteration bound value and vector count.
    pub records: Vec<IterationRecord>,
}

/// Runs the Figure 5 experiment: iterative lower-bound improvement on
/// the EMN model under the Random and Average bootstrap variants, with
/// tree depth 1 (paper §5, first experiment set).
///
/// Uses the paper's per-update counting (one incremental backup per
/// iteration, so Fig. 5(b)'s at-most-linear vector growth holds by
/// construction).
///
/// # Errors
///
/// Propagates model construction and bootstrap failures.
pub fn fig5(iterations: usize, seed: u64) -> Result<Vec<Fig5Series>, Error> {
    let model = emn_model()?;
    let config = EmnConfig::default();
    let mut out = Vec::new();
    for variant in [BootstrapVariant::Random, BootstrapVariant::Average] {
        let transformed = model.without_notification(config.operator_response_time)?;
        let mut bound =
            ra_bound(transformed.pomdp(), &SolveOpts::default()).map_err(Error::Pomdp)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let report = bootstrap_updates(
            &transformed,
            &mut bound,
            &BootstrapConfig {
                variant,
                iterations,
                depth: 1,
                max_steps: 40,
                conditioning_action: EmnAction::Observe.action_id(),
                ..BootstrapConfig::default()
            },
            &mut rng,
        )?;
        out.push(Fig5Series {
            variant,
            records: report.records,
        });
    }
    Ok(out)
}

/// Renders Figure 5 series as CSV (the committed `fig5.csv`): one row
/// per iteration, two columns per series in order — the cost bound
/// (`-bound_at_uniform`) and the vector count. A series shorter than
/// the longest renders `NaN` and `0` past its end.
pub fn fig5_csv(series: &[Fig5Series]) -> String {
    let mut csv = String::from("iteration");
    for s in series {
        let name = format!("{:?}", s.variant).to_lowercase();
        csv.push_str(&format!(",{name}_cost_bound,{name}_vectors"));
    }
    csv.push('\n');
    let rows = series.iter().map(|s| s.records.len()).max().unwrap_or(0);
    for i in 0..rows {
        csv.push_str(&(i + 1).to_string());
        for s in series {
            let r = s.records.get(i);
            csv.push_str(&format!(
                ",{},{}",
                r.map_or(f64::NAN, |x| -x.bound_at_uniform),
                r.map_or(0, |x| x.n_vectors)
            ));
        }
        csv.push('\n');
    }
    csv
}

/// Configuration of the Table 1 fault-injection comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Config {
    /// Fault injections per controller (paper: 10 000).
    pub episodes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Termination probability for the most-likely and heuristic
    /// controllers (paper: 0.9999).
    pub p_term: f64,
    /// Tree depths for the heuristic controllers (paper: 1, 2, 3).
    pub heuristic_depths: Vec<usize>,
    /// Bootstrap episodes for the bounded controller (paper: 10).
    pub bootstrap_runs: usize,
    /// Bootstrap tree depth (paper: 2).
    pub bootstrap_depth: usize,
    /// Observation-branch pruning cutoff for the tree-based
    /// controllers.
    pub gamma_cutoff: f64,
    /// Step cap per episode.
    pub max_steps: usize,
    /// Worker threads for the campaigns (results are thread-count
    /// independent; this only changes wall-clock time).
    pub threads: usize,
}

impl Default for Table1Config {
    fn default() -> Table1Config {
        Table1Config {
            episodes: 300,
            seed: 7,
            p_term: 0.9999,
            heuristic_depths: vec![1, 2, 3],
            bootstrap_runs: 10,
            bootstrap_depth: 2,
            gamma_cutoff: 1e-3,
            max_steps: 400,
            threads: 1,
        }
    }
}

/// Runs the Table 1 experiment: zombie-only fault injection on the EMN
/// model, comparing most-likely, heuristic (at the configured depths),
/// bounded (depth 1, bootstrapped), and Oracle controllers.
///
/// Returns the rows in the paper's order.
///
/// # Errors
///
/// Propagates model, bootstrap, and campaign failures.
pub fn table1(config: &Table1Config) -> Result<Vec<CampaignSummary>, Error> {
    let model = emn_model()?;
    let zombies: Vec<_> = EmnState::zombies().iter().map(|s| s.state_id()).collect();
    // One campaign session shared by every row: identical fault
    // sequence and per-episode seed streams, so the rows differ only by
    // controller. Expensive prototypes (the bootstrapped bounded
    // controller) are built once and cloned per episode.
    let campaign = Campaign::new(&model)
        .population(&zombies)
        .episodes(config.episodes)
        .max_steps(config.max_steps)
        .seed(config.seed)
        .threads(config.threads);
    let mut rows = Vec::new();

    // Most-likely.
    {
        let mut summary = campaign
            .clone()
            .run(|_| MostLikelyController::new(model.clone(), config.p_term))?
            .summary;
        summary.controller = "most-likely".into();
        rows.push(summary);
    }
    // Heuristic at each depth.
    for &depth in &config.heuristic_depths {
        let proto = HeuristicController::new(model.clone(), depth, config.p_term)?
            .with_gamma_cutoff(config.gamma_cutoff);
        let mut summary = campaign.clone().run(|_| Ok(proto.clone()))?.summary;
        summary.controller = format!("heuristic-d{depth}");
        rows.push(summary);
    }
    // Bounded, depth 1, bootstrapped.
    {
        let proto = table1_bounded_prototype(&model, config)?;
        let mut summary = campaign.clone().run(|_| Ok(proto.clone()))?.summary;
        summary.controller = "bounded-d1".into();
        rows.push(summary);
    }
    // Oracle.
    {
        let mut summary = campaign
            .clone()
            .run(|_| Ok(OracleController::new(model.clone())))?
            .summary;
        summary.controller = "oracle".into();
        rows.push(summary);
    }
    Ok(rows)
}

/// The Table 1 bounded controller: RA-Bound tightened by the paper's
/// bootstrap schedule, expanded at depth 1, with capped vector storage.
fn table1_bounded_prototype(
    model: &RecoveryModel,
    config: &Table1Config,
) -> Result<BoundedController, Error> {
    let emn_config = EmnConfig::default();
    let transformed = model.without_notification(emn_config.operator_response_time)?;
    let mut bound = ra_bound(transformed.pomdp(), &SolveOpts::default()).map_err(Error::Pomdp)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    bootstrap(
        &transformed,
        &mut bound,
        &BootstrapConfig {
            variant: BootstrapVariant::Average,
            iterations: config.bootstrap_runs,
            depth: config.bootstrap_depth,
            max_steps: 40,
            conditioning_action: EmnAction::Observe.action_id(),
            ..BootstrapConfig::default()
        },
        &mut rng,
    )?;
    BoundedController::with_bound(
        transformed,
        bound,
        BoundedConfig {
            depth: 1,
            gamma_cutoff: config.gamma_cutoff,
            // Paper §4.3: finite storage for the bound vectors keeps
            // per-decision cost flat across a long campaign.
            vector_cap: Some(64),
            ..BoundedConfig::default()
        },
    )
}

/// Existence and value of each bound on a model, at the uniform belief.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundReport {
    /// Bound name.
    pub name: &'static str,
    /// `Some(value at the uniform belief)` if the bound exists, `None`
    /// if it diverges on this model.
    pub value_at_uniform: Option<f64>,
    /// Number of hyperplanes (0 for divergent bounds).
    pub n_vectors: usize,
}

/// Compares the RA-Bound with the prior-art bounds of §3.1 (BI-POMDP,
/// blind policy) and the upper bounds (QMDP, FIB) on the transformed
/// EMN model, demonstrating which exist under the undiscounted
/// criterion.
///
/// `notified` selects the transform: `true` makes `S_φ` absorbing
/// (systems with recovery notification), `false` adds the terminate
/// action.
///
/// # Errors
///
/// Propagates model-construction failures (bound divergence is data,
/// not an error, here).
pub fn bounds_comparison(notified: bool) -> Result<Vec<BoundReport>, Error> {
    let model = emn_model()?;
    let config = EmnConfig::default();
    let pomdp = if notified {
        model.with_notification()?
    } else {
        model
            .without_notification(config.operator_response_time)?
            .pomdp()
            .clone()
    };
    let uniform = Belief::uniform(pomdp.n_states());
    let opts = SolveOpts::default();
    let mut reports = Vec::new();

    let mut push =
        |name: &'static str,
         result: Result<bpr_pomdp::bounds::VectorSetBound, bpr_pomdp::Error>| {
            match result {
                Ok(set) => reports.push(BoundReport {
                    name,
                    value_at_uniform: Some(set.value(&uniform)),
                    n_vectors: set.len(),
                }),
                Err(_) => reports.push(BoundReport {
                    name,
                    value_at_uniform: None,
                    n_vectors: 0,
                }),
            }
        };
    push("RA-Bound (lower)", ra_bound(&pomdp, &opts));
    push(
        "BI-POMDP (lower)",
        bi_pomdp_bound(&pomdp, Discount::Undiscounted),
    );
    push(
        "blind policy (lower)",
        blind_bound(&pomdp, Discount::Undiscounted, &opts),
    );
    push("QMDP (upper)", qmdp_bound(&pomdp, Discount::Undiscounted));
    push(
        "FIB (upper)",
        fib_bound(&pomdp, Discount::Undiscounted, &Default::default()),
    );
    Ok(reports)
}

/// Configuration of the robustness sweep (degraded-world extension):
/// action-failure probability × monitor-dropout rate grid on the EMN
/// model, zombie faults only.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessConfig {
    /// Fault injections per controller per grid cell.
    pub episodes: usize,
    /// RNG seed (drives both the episode stream and, mixed with the
    /// grid coordinates, the perturbation-plan streams).
    pub seed: u64,
    /// Termination probability for the most-likely / heuristic
    /// baselines.
    pub p_term: f64,
    /// Observation-branch pruning cutoff for the tree-based
    /// controllers.
    pub gamma_cutoff: f64,
    /// Step cap per episode.
    pub max_steps: usize,
    /// Action-failure probabilities to sweep.
    pub failure_probs: Vec<f64>,
    /// Monitor-dropout probabilities to sweep.
    pub dropout_probs: Vec<f64>,
    /// Observation-corruption probability applied in every cell.
    pub obs_corruption_prob: f64,
    /// Per-step secondary-fault probability applied in every cell.
    pub secondary_fault_prob: f64,
    /// Cap on secondary faults per episode.
    pub max_secondary_faults: usize,
    /// Bootstrap episodes for the bounded controller (the paper's
    /// Table 1 schedule: 10).
    pub bootstrap_iters: usize,
    /// Bootstrap tree depth (paper: 2 — the right setting for the
    /// 14-state EMN model; drop to 1 for the 10³+-state generated
    /// scenarios, where depth-2 backups are prohibitively wide).
    pub bootstrap_depth: usize,
    /// Worker threads for the campaigns (results are thread-count
    /// independent; this only changes wall-clock time).
    pub threads: usize,
    /// Plan the bounded rows on the lumped quotient (see
    /// [`bootstrapped_bounded_lumped`]); rows are renamed with a
    /// `+lump` suffix so results never silently mix regimes.
    pub lump: bool,
}

impl Default for RobustnessConfig {
    fn default() -> RobustnessConfig {
        RobustnessConfig {
            episodes: 60,
            seed: 7,
            p_term: 0.9999,
            gamma_cutoff: 1e-3,
            max_steps: 400,
            failure_probs: vec![0.0, 0.2],
            dropout_probs: vec![0.0, 0.1],
            obs_corruption_prob: 0.0,
            secondary_fault_prob: 0.0,
            max_secondary_faults: 0,
            bootstrap_iters: 10,
            bootstrap_depth: 2,
            threads: 1,
            lump: false,
        }
    }
}

/// One controller's results at one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// The campaign averages (aborted episodes enter as
    /// unrecovered/unterminated with zeroed metrics).
    pub summary: CampaignSummary,
    /// Episodes the controller *aborted* (returned an error, e.g. a
    /// belief update refusing an impossible observation) instead of
    /// terminating.
    pub aborted: usize,
    /// Episodes whose controller panicked and was quarantined by the
    /// isolation layer (a subset of `aborted`).
    pub quarantined: usize,
    /// Perturbations the degraded world actually inflicted, summed
    /// over the campaign and broken down by fault mode — the sweep's
    /// analogue of the serve daemon's typed shed counters.
    pub perturbations: PerturbationCounts,
}

/// All controllers' results at one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessCell {
    /// Probability that a non-observe action silently failed.
    pub action_failure_prob: f64,
    /// Probability that a monitor observation was dropped.
    pub monitor_dropout_prob: f64,
    /// One row per controller, in sweep order.
    pub rows: Vec<RobustnessRow>,
}

/// The bootstrapped depth-1 bounded controller of the Table 1
/// experiment, reconstructed for robustness sweeps and the scaling
/// benchmark — for any recovery model. The bootstrap conditions on
/// the model's first observe action; `operator_response_time` feeds
/// the §3.1 no-notification transform (registry scenarios carry it as
/// [`Scenario::operator_response_time`]).
///
/// # Errors
///
/// Propagates transform, bound, and bootstrap failures; rejects
/// models without an observe action.
pub fn bootstrapped_bounded_d1_for(
    model: &RecoveryModel,
    operator_response_time: f64,
    seed: u64,
    gamma_cutoff: f64,
) -> Result<BoundedController, Error> {
    bootstrapped_bounded(model, operator_response_time, seed, gamma_cutoff, 10, 2)
}

/// [`bootstrapped_bounded_d1_for`] with an explicit bootstrap schedule
/// — `iterations` episodes at tree depth `depth`. The paper's Table 1
/// schedule (10 × depth 2) fits the 14-state EMN model; depth-2
/// backups grow with `|A| · |O|` per level, so the 10³+-state
/// generated scenarios want depth 1.
///
/// # Errors
///
/// Propagates transform, bound, and bootstrap failures; rejects
/// models without an observe action.
pub fn bootstrapped_bounded(
    model: &RecoveryModel,
    operator_response_time: f64,
    seed: u64,
    gamma_cutoff: f64,
    iterations: usize,
    depth: usize,
) -> Result<BoundedController, Error> {
    let (controller, ()) = bootstrapped_bounded_on(
        model,
        operator_response_time,
        seed,
        gamma_cutoff,
        iterations,
        depth,
        |transformed| Ok((transformed, ())),
    )?;
    Ok(controller)
}

/// Largest transformed state count that still gets the default startup
/// vertex sweeps in [`bootstrapped_bounded`]. Covers every paper-scale
/// model (EMN is well under 100 states after the §3.1 transform) while
/// skipping the quadratic sweep cost on the generated corpus.
const STARTUP_SWEEP_STATE_CAP: usize = 256;

/// [`bootstrapped_bounded`] planning on the lumped quotient: the
/// transformed model is aggregated through
/// [`bpr_core::TerminatedModel::lump`], the RA-Bound and bootstrap run
/// on the (smaller) quotient, and the result is wrapped in a
/// [`LumpedController`] so it speaks the full model's belief
/// vocabulary in campaigns. When the model has no aliased monitors the
/// lump is the identity and this is behaviourally
/// [`bootstrapped_bounded`] under another name.
///
/// The startup-sweep cap is checked on the *quotient* state count —
/// aggregation can pull a corpus-scale model back under it.
///
/// # Errors
///
/// Propagates transform, lump, bound, and bootstrap failures; rejects
/// models without an observe action.
pub fn bootstrapped_bounded_lumped(
    model: &RecoveryModel,
    operator_response_time: f64,
    seed: u64,
    gamma_cutoff: f64,
    iterations: usize,
    depth: usize,
) -> Result<LumpedController<BoundedController>, Error> {
    let (inner, certificate) = bootstrapped_bounded_on(
        model,
        operator_response_time,
        seed,
        gamma_cutoff,
        iterations,
        depth,
        |transformed| transformed.lump(),
    )?;
    Ok(LumpedController::new(inner, certificate))
}

/// The body of [`bootstrapped_bounded`] and
/// [`bootstrapped_bounded_lumped`]: apply the no-notification
/// transform, let `planning_model` pick the model to plan on (the
/// transform itself, or its lumped quotient plus certificate), then
/// RA-Bound, `iterations` Average bootstrap episodes at tree depth
/// `depth` conditioned on the first observe action, and a depth-1
/// controller with a 64-vector cap.
fn bootstrapped_bounded_on<C>(
    model: &RecoveryModel,
    operator_response_time: f64,
    seed: u64,
    gamma_cutoff: f64,
    iterations: usize,
    depth: usize,
    planning_model: impl FnOnce(TerminatedModel) -> Result<(TerminatedModel, C), Error>,
) -> Result<(BoundedController, C), Error> {
    let conditioning =
        model
            .observe_actions()
            .first()
            .copied()
            .ok_or_else(|| Error::InvalidInput {
                detail: "bootstrapped bounded controller needs an observe action to condition on"
                    .to_string(),
            })?;
    let (planned, extra) = planning_model(model.without_notification(operator_response_time)?)?;
    let mut bound = ra_bound(planned.pomdp(), &SolveOpts::default()).map_err(Error::Pomdp)?;
    let mut rng = StdRng::seed_from_u64(seed);
    bootstrap(
        &planned,
        &mut bound,
        &BootstrapConfig {
            variant: BootstrapVariant::Average,
            iterations,
            depth,
            max_steps: 40,
            conditioning_action: conditioning,
            ..BootstrapConfig::default()
        },
        &mut rng,
    )?;
    // The default startup vertex sweeps repair the raw RA-Bound for an
    // *un-bootstrapped* controller; here the bound is already
    // bootstrap-refined, and at 10³+ states two full sweeps of
    // point-belief backups dominate construction (minutes of
    // single-threaded work for the cellfleet/region scenarios). Keep
    // them only where they are cheap: paper-scale models.
    let startup_vertex_sweeps = if planned.pomdp().n_states() > STARTUP_SWEEP_STATE_CAP {
        0
    } else {
        BoundedConfig::default().startup_vertex_sweeps
    };
    let controller = BoundedController::with_bound(
        planned,
        bound,
        BoundedConfig {
            depth: 1,
            gamma_cutoff,
            vector_cap: Some(64),
            startup_vertex_sweeps,
            ..BoundedConfig::default()
        },
    )?;
    Ok((controller, extra))
}

/// Sweeps action-failure probability × monitor-dropout rate on a
/// registry scenario's model (its declared fault population),
/// comparing the most-likely, heuristic (depth 1), and bounded (depth
/// 1, bootstrapped) controllers against the hardened
/// `resilient-bounded` decorator. Reports recovery rate, cost, and
/// escalation counters per cell.
///
/// Each cell is an abort-tolerant [`Campaign`]: an episode whose
/// controller errors out (instead of terminating) enters the summary
/// as unrecovered/unterminated with zeroed metrics and is counted in
/// [`RobustnessRow::aborted`] — controllers built for the idealised
/// model *do* abort in degraded worlds, and that failure mode is data.
///
/// # Errors
///
/// Propagates model and controller *construction* failures; in-episode
/// controller aborts are recorded in the rows instead.
pub fn robustness_sweep_for(
    scenario: &dyn Scenario,
    config: &RobustnessConfig,
) -> Result<Vec<RobustnessCell>, Error> {
    let model = scenario.build()?;
    let population = scenario.fault_population(&model);
    let base = Campaign::new(&model)
        .population(&population)
        .episodes(config.episodes)
        .max_steps(config.max_steps)
        .seed(config.seed)
        .threads(config.threads)
        .abort_tolerant(true);
    let mut cells = Vec::new();
    for (fi, &failure) in config.failure_probs.iter().enumerate() {
        for (di, &dropout) in config.dropout_probs.iter().enumerate() {
            let plan = PerturbationPlan {
                // Distinct stream per cell, reproducible from the seed.
                seed: config
                    .seed
                    .wrapping_add(((fi * 1000 + di) as u64).wrapping_mul(0xA24B_AED4_963E_E407)),
                action_failure_prob: failure,
                monitor_dropout_prob: dropout,
                obs_corruption_prob: config.obs_corruption_prob,
                secondary_fault_prob: config.secondary_fault_prob,
                max_secondary_faults: config.max_secondary_faults,
                secondary_faults: Vec::new(),
            };
            // Reject bad grid points up front with a clear error instead
            // of one tangled in the per-controller campaign results.
            plan.validate(&model)?;
            let campaign = base.clone().degraded(&plan);
            let mut rows = Vec::new();
            let mut push = |report: bpr_sim::CampaignReport, name: &str| {
                let mut summary = report.summary;
                summary.controller = name.to_string();
                let mut perturbations = PerturbationCounts::default();
                for outcome in &report.outcomes {
                    perturbations.failed_actions += outcome.perturbations.failed_actions;
                    perturbations.dropped_observations +=
                        outcome.perturbations.dropped_observations;
                    perturbations.corrupted_observations +=
                        outcome.perturbations.corrupted_observations;
                    perturbations.injected_faults += outcome.perturbations.injected_faults;
                }
                rows.push(RobustnessRow {
                    summary,
                    aborted: report.aborted,
                    quarantined: report.quarantined.len(),
                    perturbations,
                });
            };

            push(
                campaign
                    .clone()
                    .run(|_| MostLikelyController::new(model.clone(), config.p_term))?,
                "most-likely",
            );
            let h1 = HeuristicController::new(model.clone(), 1, config.p_term)?
                .with_gamma_cutoff(config.gamma_cutoff);
            push(campaign.clone().run(|_| Ok(h1.clone()))?, "heuristic-d1");
            if config.lump {
                let bounded = bootstrapped_bounded_lumped(
                    &model,
                    scenario.operator_response_time(),
                    config.seed,
                    config.gamma_cutoff,
                    config.bootstrap_iters,
                    config.bootstrap_depth,
                )?;
                push(
                    campaign.clone().run(|_| Ok(bounded.clone()))?,
                    "bounded-d1+lump",
                );
                let hardened = ResilientController::new(
                    model.clone(),
                    bounded.clone(),
                    ResilienceConfig {
                        max_steps: config.max_steps,
                        ..ResilienceConfig::default()
                    },
                )?;
                push(
                    campaign.clone().run(|_| Ok(hardened.clone()))?,
                    "resilient-bounded-d1+lump",
                );
            } else {
                let bounded = bootstrapped_bounded(
                    &model,
                    scenario.operator_response_time(),
                    config.seed,
                    config.gamma_cutoff,
                    config.bootstrap_iters,
                    config.bootstrap_depth,
                )?;
                push(campaign.clone().run(|_| Ok(bounded.clone()))?, "bounded-d1");
                let hardened = ResilientController::new(
                    model.clone(),
                    bounded.clone(),
                    ResilienceConfig {
                        max_steps: config.max_steps,
                        ..ResilienceConfig::default()
                    },
                )?;
                push(
                    campaign.clone().run(|_| Ok(hardened.clone()))?,
                    "resilient-bounded-d1",
                );
            }

            cells.push(RobustnessCell {
                action_failure_prob: failure,
                monitor_dropout_prob: dropout,
                rows,
            });
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_produces_monotone_series() {
        let series = fig5(5, 3).unwrap();
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.records.len(), 5);
            let mut prev = f64::NEG_INFINITY;
            for r in &s.records {
                assert!(r.bound_at_uniform + 1e-9 >= prev, "{:?}", s.variant);
                prev = r.bound_at_uniform;
                assert!(r.n_vectors >= 1);
            }
        }
    }

    #[test]
    fn bounds_comparison_matches_the_papers_claims() {
        // With recovery notification: RA exists, BI and blind diverge.
        let with = bounds_comparison(true).unwrap();
        let get = |reports: &[BoundReport], name: &str| {
            reports
                .iter()
                .find(|r| r.name.starts_with(name))
                .cloned()
                .unwrap()
        };
        assert!(get(&with, "RA-Bound").value_at_uniform.is_some());
        assert!(get(&with, "BI-POMDP").value_at_uniform.is_none());
        assert!(get(&with, "blind policy").value_at_uniform.is_none());
        assert!(get(&with, "QMDP").value_at_uniform.is_some());

        // Without recovery notification: the terminate action makes the
        // blind bound finite too; BI still diverges.
        let without = bounds_comparison(false).unwrap();
        assert!(get(&without, "RA-Bound").value_at_uniform.is_some());
        assert!(get(&without, "BI-POMDP").value_at_uniform.is_none());
        assert!(get(&without, "blind policy").value_at_uniform.is_some());

        // Sandwich: RA <= FIB <= QMDP at the uniform belief.
        let ra = get(&without, "RA-Bound").value_at_uniform.unwrap();
        let qmdp = get(&without, "QMDP").value_at_uniform.unwrap();
        let fib = get(&without, "FIB").value_at_uniform.unwrap();
        assert!(ra <= fib + 1e-6);
        assert!(fib <= qmdp + 1e-6);
    }

    #[test]
    fn table1_small_run_has_expected_shape() {
        let config = Table1Config {
            episodes: 12,
            heuristic_depths: vec![1],
            ..Table1Config::default()
        };
        let rows = table1(&config).unwrap();
        assert_eq!(rows.len(), 4); // most-likely, heuristic-d1, bounded, oracle
        for row in &rows {
            assert_eq!(row.episodes, 12);
            assert_eq!(
                row.unterminated, 0,
                "{} failed to terminate",
                row.controller
            );
            assert_eq!(
                row.unrecovered, 0,
                "{} quit before recovery",
                row.controller
            );
        }
        let oracle = rows.iter().find(|r| r.controller == "oracle").unwrap();
        for row in &rows {
            assert!(
                row.mean_cost + 1e-9 >= oracle.mean_cost,
                "{} beat the oracle",
                row.controller
            );
        }
    }
}
