//! The fault-injection harness behind the paper's Table 1.
//!
//! An *episode* injects one fault, lets a controller drive recovery
//! against the simulated [`World`], and measures the paper's per-fault
//! metrics. Episodes are configured and launched through the
//! [`EpisodeRunner`] builder (`.degraded(..)`, `.seed(..)`,
//! `.max_steps(..)`, then [`EpisodeRunner::run`] or
//! [`EpisodeRunner::run_traced`]); the former free-function quartet
//! (`run_episode*`) has been removed after its deprecation release.
//! A *campaign* repeats episodes over a fault population and
//! averages — serially here ([`run_campaign`]), or deterministically in
//! parallel through [`crate::campaign::Campaign`].

use crate::degraded::{DegradedWorld, PerturbationCounts, PerturbationPlan, SimWorld};
use crate::metrics::CampaignSummary;
use crate::World;
use bpr_core::{Error, RecoveryController, RecoveryModel, Step};
use bpr_mdp::StateId;
use bpr_pomdp::Belief;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Knobs of the harness itself (controller policy knobs live on the
/// controllers). Every harness entry point checks the configuration
/// with [`HarnessConfig::validate`] before running.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessConfig {
    /// Per-episode step cap; a controller that has not terminated after
    /// this many decisions is cut off (and the episode marked
    /// unterminated).
    pub max_steps: usize,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig { max_steps: 500 }
    }
}

impl HarnessConfig {
    /// Checks the configuration for values that would make every
    /// episode degenerate.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] if `max_steps` is zero (no controller
    /// could ever terminate: every episode would be cut off before its
    /// first decision).
    pub fn validate(&self) -> Result<(), Error> {
        if self.max_steps == 0 {
            return Err(Error::InvalidInput {
                detail: "harness max_steps must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Builder-style episode launcher — the single front door to the
/// episode protocol.
///
/// ```ignore
/// let outcome = EpisodeRunner::new(&model)
///     .max_steps(400)
///     .degraded(&plan)   // optional: perturbed world
///     .seed(42)          // episode RNG, derived internally
///     .run(&mut controller, fault)?;
/// ```
///
/// `run`/`run_traced` seed a fresh [`StdRng`] from `.seed(..)` (default
/// 0), making the episode a pure function of its inputs; the
/// `*_with_rng` variants accept a caller-threaded generator for legacy
/// call sites and for campaigns that interleave episodes on one stream.
#[derive(Debug, Clone)]
pub struct EpisodeRunner<'m> {
    model: &'m RecoveryModel,
    config: HarnessConfig,
    plan: Option<PerturbationPlan>,
    seed: u64,
}

impl<'m> EpisodeRunner<'m> {
    /// Creates a runner with the default [`HarnessConfig`], an
    /// undegraded world, and seed 0.
    pub fn new(model: &'m RecoveryModel) -> EpisodeRunner<'m> {
        EpisodeRunner {
            model,
            config: HarnessConfig::default(),
            plan: None,
            seed: 0,
        }
    }

    /// Replaces the whole harness configuration.
    pub fn config(mut self, config: &HarnessConfig) -> EpisodeRunner<'m> {
        self.config = config.clone();
        self
    }

    /// Sets the per-episode step cap.
    pub fn max_steps(mut self, max_steps: usize) -> EpisodeRunner<'m> {
        self.config.max_steps = max_steps;
        self
    }

    /// Runs the episode against a [`DegradedWorld`] governed by `plan`
    /// instead of a plain [`World`]. With [`PerturbationPlan::none`]
    /// the episode is byte-identical to the undegraded protocol under
    /// the same RNG: the plan's randomness lives on its own stream.
    pub fn degraded(mut self, plan: &PerturbationPlan) -> EpisodeRunner<'m> {
        self.plan = Some(plan.clone());
        self
    }

    /// Seeds the episode RNG used by [`EpisodeRunner::run`] /
    /// [`EpisodeRunner::run_traced`].
    pub fn seed(mut self, seed: u64) -> EpisodeRunner<'m> {
        self.seed = seed;
        self
    }

    /// Runs one fault-injection episode.
    ///
    /// The protocol mirrors paper §4/§5: the fault is injected,
    /// monitors detect *something*, the controller starts from the
    /// belief "all faults equally likely" conditioned on the detection
    /// observation (Eq. 4), then alternates decisions, action
    /// execution, and monitor updates until it terminates.
    ///
    /// # Errors
    ///
    /// Propagates controller failures (model mismatch, belief-update
    /// errors) and rejects invalid configs, out-of-bounds faults, and
    /// (for degraded runs) invalid plans.
    pub fn run(
        &self,
        controller: &mut dyn RecoveryController,
        fault: StateId,
    ) -> Result<EpisodeOutcome, Error> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.run_with_rng(controller, fault, &mut rng)
    }

    /// [`EpisodeRunner::run`] with a full per-step trace, for debugging
    /// models and controllers (and for rendering recovery timelines).
    ///
    /// # Errors
    ///
    /// Same as [`EpisodeRunner::run`].
    pub fn run_traced(
        &self,
        controller: &mut dyn RecoveryController,
        fault: StateId,
    ) -> Result<(EpisodeOutcome, Vec<TraceEvent>), Error> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.run_traced_with_rng(controller, fault, &mut rng)
    }

    /// [`EpisodeRunner::run`] drawing randomness from a caller-supplied
    /// generator instead of the built-in `.seed(..)` stream.
    ///
    /// # Errors
    ///
    /// Same as [`EpisodeRunner::run`].
    pub fn run_with_rng<R: Rng + ?Sized>(
        &self,
        controller: &mut dyn RecoveryController,
        fault: StateId,
        rng: &mut R,
    ) -> Result<EpisodeOutcome, Error> {
        self.dispatch(controller, fault, rng, None)
    }

    /// [`EpisodeRunner::run_traced`] drawing randomness from a
    /// caller-supplied generator.
    ///
    /// # Errors
    ///
    /// Same as [`EpisodeRunner::run`].
    pub fn run_traced_with_rng<R: Rng + ?Sized>(
        &self,
        controller: &mut dyn RecoveryController,
        fault: StateId,
        rng: &mut R,
    ) -> Result<(EpisodeOutcome, Vec<TraceEvent>), Error> {
        let mut trace = Vec::new();
        let outcome = self.dispatch(controller, fault, rng, Some(&mut trace))?;
        Ok((outcome, trace))
    }

    fn dispatch<R: Rng + ?Sized>(
        &self,
        controller: &mut dyn RecoveryController,
        fault: StateId,
        rng: &mut R,
        trace: Option<&mut Vec<TraceEvent>>,
    ) -> Result<EpisodeOutcome, Error> {
        self.config.validate()?;
        match &self.plan {
            Some(plan) => {
                let world = DegradedWorld::new(self.model, fault, plan.clone())?;
                run_episode_impl(self.model, controller, world, &self.config, rng, trace)
            }
            None => {
                let world = World::new(self.model, fault)?;
                run_episode_impl(self.model, controller, world, &self.config, rng, trace)
            }
        }
    }
}

/// The per-fault metrics of one recovery episode (paper Table 1, plus
/// the robustness counters of the degraded harness).
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeOutcome {
    /// The injected fault.
    pub fault: StateId,
    /// Accumulated cost (requests dropped): the negated model rewards
    /// of all executed actions.
    pub cost: f64,
    /// Wall-clock seconds from detection until the controller
    /// terminated recovery.
    pub recovery_time: f64,
    /// Wall-clock seconds the fault was actually present.
    pub residual_time: f64,
    /// Wall-clock seconds the controller spent inside `decide()`.
    pub algorithm_time: f64,
    /// Number of recovery (non-observe) actions executed.
    pub actions: usize,
    /// Number of monitor invocations (observations delivered).
    pub monitor_calls: usize,
    /// Whether the world was in a null-fault state at termination.
    pub recovered: bool,
    /// Whether the controller terminated within the step cap.
    pub terminated: bool,
    /// Perturbations the world inflicted (all zero for undegraded
    /// episodes).
    pub perturbations: PerturbationCounts,
    /// Retries the controller's hardening layer granted (0 for plain
    /// controllers).
    pub retries: usize,
    /// Escalation-ladder steps the controller took (0 for plain
    /// controllers).
    pub escalations: usize,
    /// Belief re-initialisations the controller performed (0 for plain
    /// controllers).
    pub belief_resets: usize,
}

impl EpisodeOutcome {
    /// The outcome with its wall-clock-derived field
    /// (`algorithm_time`) zeroed — everything that remains is a pure
    /// function of `(model, controller, seeds)`. This is the view that
    /// determinism checks compare: a parallel campaign must reproduce
    /// the serial campaign's canonical outcomes bit-for-bit.
    pub fn canonical(&self) -> EpisodeOutcome {
        EpisodeOutcome {
            algorithm_time: 0.0,
            ..self.clone()
        }
    }
}

/// One step of an episode trace (see [`EpisodeRunner::run_traced`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// 1-based step number.
    pub step: usize,
    /// Wall-clock seconds at the *end* of the step.
    pub wall: f64,
    /// The executed action, or `None` for the terminate decision.
    pub action: Option<bpr_mdp::ActionId>,
    /// The world's true state after the action.
    pub world_after: StateId,
    /// The observation delivered to the controller, if any.
    pub observation: Option<bpr_pomdp::ObservationId>,
    /// Cost incurred by this step.
    pub cost: f64,
    /// Belief mass the controller places on the null-fault states
    /// after the step (NaN for belief-less controllers).
    pub null_mass: f64,
    /// Whether the action silently failed (degraded worlds only).
    pub action_failed: bool,
    /// Whether the delivered observation was corrupted (degraded worlds
    /// only).
    pub observation_corrupted: bool,
    /// The secondary fault injected at the end of this step, if any.
    pub injected_fault: Option<StateId>,
}

/// The belief a controller starts recovery from: "all faults equally
/// likely" (paper Eq. 4) conditioned on the detection observation that
/// triggered recovery.
///
/// Shared by the episode harness and the `bpr-serve` incident
/// lifecycle so both enter recovery through the identical protocol.
/// Models without a tagged observe action have no monitoring kernel to
/// sample, and controllers that ignore monitors get no conditioning;
/// both start from the unconditioned prior. A dropped detection
/// observation (degraded worlds) also falls back to the prior, as does
/// a conditioning failure (zero-likelihood observation).
///
/// # Errors
///
/// Propagates detection sampling failures from the world.
pub fn detection_belief<W: SimWorld, R: Rng + ?Sized>(
    model: &RecoveryModel,
    uses_monitors: bool,
    world: &mut W,
    rng: &mut R,
) -> Result<Belief, Error> {
    let faults = model.fault_states();
    let prior = Belief::uniform_over(model.base().n_states(), &faults);
    Ok(match model.observe_actions().first().copied() {
        Some(observe) if uses_monitors => match world.detect(rng)? {
            Some(o) => match prior.update(model.base(), observe, o) {
                Ok((b, _)) => b,
                Err(_) => prior,
            },
            // Detection observation lost to monitor dropout.
            None => prior,
        },
        _ => prior,
    })
}

fn run_episode_impl<W: SimWorld, R: Rng + ?Sized>(
    model: &RecoveryModel,
    controller: &mut dyn RecoveryController,
    mut world: W,
    config: &HarnessConfig,
    rng: &mut R,
    mut trace: Option<&mut Vec<TraceEvent>>,
) -> Result<EpisodeOutcome, Error> {
    let fault = world.true_state();
    // Condition the prior on the detection observation (not charged to
    // the monitor-call metric: it is the detection that *triggered*
    // recovery).
    let initial = detection_belief(model, controller.uses_monitors(), &mut world, rng)?;
    controller.begin(initial, Some(fault))?;

    let mut outcome = EpisodeOutcome {
        fault,
        cost: 0.0,
        recovery_time: 0.0,
        residual_time: 0.0,
        algorithm_time: 0.0,
        actions: 0,
        monitor_calls: 0,
        recovered: false,
        terminated: false,
        perturbations: PerturbationCounts::default(),
        retries: 0,
        escalations: 0,
        belief_resets: 0,
    };
    let mut wall = 0.0f64;
    let mut fault_fixed_at: Option<f64> = None;
    if world.recovered() {
        fault_fixed_at = Some(0.0);
    }

    for step_no in 1..=config.max_steps {
        let t0 = Instant::now();
        let step = controller.decide()?;
        outcome.algorithm_time += t0.elapsed().as_secs_f64();
        match step {
            Step::Terminate => {
                outcome.terminated = true;
                if let Some(trace) = trace.as_deref_mut() {
                    trace.push(TraceEvent {
                        step: step_no,
                        wall,
                        action: None,
                        world_after: world.true_state(),
                        observation: None,
                        cost: 0.0,
                        null_mass: controller
                            .belief()
                            .map_or(f64::NAN, |b| b.prob_in(model.null_states())),
                        action_failed: false,
                        observation_corrupted: false,
                        injected_fault: None,
                    });
                }
                break;
            }
            Step::Execute(a) => {
                let pre_state = world.true_state();
                let step_cost = -model.base().mdp().reward(pre_state, a);
                outcome.cost += step_cost;
                wall += model.base().mdp().duration(a);
                let result = world.step_world(rng, a);
                if model.is_null(result.state) {
                    if fault_fixed_at.is_none() {
                        fault_fixed_at = Some(wall);
                    }
                } else if result.injected_fault.is_some() {
                    // A secondary fault re-broke the system: the fault
                    // is "present" again, so stop crediting the earlier
                    // fix with the residual-time clock.
                    fault_fixed_at = None;
                }
                if !model.is_observe(a) {
                    outcome.actions += 1;
                }
                let mut delivered = None;
                if controller.uses_monitors() {
                    match result.observation {
                        Some(obs) => {
                            controller.observe(a, obs)?;
                            outcome.monitor_calls += 1;
                            delivered = Some(obs);
                        }
                        // Monitor dropout: the action ran, nothing came
                        // back. Not a monitor call — nothing answered.
                        None => controller.on_unobserved(a)?,
                    }
                }
                if let Some(trace) = trace.as_deref_mut() {
                    trace.push(TraceEvent {
                        step: step_no,
                        wall,
                        action: Some(a),
                        world_after: result.state,
                        observation: delivered,
                        cost: step_cost,
                        null_mass: controller
                            .belief()
                            .map_or(f64::NAN, |b| b.prob_in(model.null_states())),
                        action_failed: result.action_failed,
                        observation_corrupted: result.observation_corrupted,
                        injected_fault: result.injected_fault,
                    });
                }
            }
        }
    }
    outcome.recovery_time = wall;
    outcome.recovered = world.recovered();
    outcome.residual_time = fault_fixed_at.unwrap_or(wall);
    outcome.perturbations = world.perturbations();
    if let Some(stats) = controller.resilience_stats() {
        outcome.retries = stats.retries;
        outcome.escalations = stats.escalations;
        outcome.belief_resets = stats.belief_resets;
    }
    Ok(outcome)
}

/// Runs a *serial, stateful* campaign: `episodes` fault injections
/// cycling round-robin through `fault_population` (so different
/// controllers driven with the same population and episode count face
/// the identical, balanced fault sequence), all driven through the
/// same controller (which is re-`begin`-ed for each episode) on one
/// shared RNG stream. Controller state (e.g. online bound refinement)
/// carries across episodes.
///
/// For the deterministic parallel engine — independent episodes with
/// per-episode seed derivation — use [`crate::campaign::Campaign`].
///
/// # Errors
///
/// * [`Error::InvalidInput`] if `fault_population` is empty.
/// * Propagates episode failures.
pub fn run_campaign<R: Rng + ?Sized>(
    model: &RecoveryModel,
    controller: &mut dyn RecoveryController,
    fault_population: &[StateId],
    episodes: usize,
    config: &HarnessConfig,
    rng: &mut R,
) -> Result<CampaignSummary, Error> {
    if fault_population.is_empty() {
        return Err(Error::InvalidInput {
            detail: "fault population must be non-empty".into(),
        });
    }
    let runner = EpisodeRunner::new(model).config(config);
    let mut outcomes = Vec::with_capacity(episodes);
    for i in 0..episodes {
        let fault = fault_population[i % fault_population.len()];
        outcomes.push(runner.run_with_rng(controller, fault, rng)?);
    }
    Ok(CampaignSummary::from_outcomes(controller.name(), &outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpr_core::baselines::{HeuristicController, MostLikelyController, OracleController};
    use bpr_core::{BoundedConfig, BoundedController};
    use bpr_emn::two_server;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> RecoveryModel {
        two_server::default_model().unwrap()
    }

    #[test]
    fn oracle_episode_is_one_action_no_monitors() {
        let m = model();
        let mut c = OracleController::new(m.clone());
        let out = EpisodeRunner::new(&m)
            .seed(1)
            .run(&mut c, StateId::new(two_server::FAULT_A))
            .unwrap();
        assert!(out.terminated);
        assert!(out.recovered);
        assert_eq!(out.actions, 1);
        assert_eq!(out.monitor_calls, 0);
        assert_eq!(out.cost, 0.5);
        assert_eq!(out.recovery_time, 1.0);
        assert_eq!(out.residual_time, 1.0);
        assert_eq!(out.perturbations.total(), 0);
        assert_eq!(out.retries + out.escalations + out.belief_resets, 0);
    }

    #[test]
    fn most_likely_recovers_the_system() {
        let m = model();
        let mut c = MostLikelyController::new(m.clone(), 0.95).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let runner = EpisodeRunner::new(&m);
        let mut recovered = 0;
        for i in 0..20 {
            let fault = StateId::new(if i % 2 == 0 {
                two_server::FAULT_A
            } else {
                two_server::FAULT_B
            });
            let out = runner.run_with_rng(&mut c, fault, &mut rng).unwrap();
            assert!(out.terminated, "episode {i} did not terminate");
            if out.recovered {
                recovered += 1;
            }
        }
        assert!(recovered >= 18, "only {recovered}/20 recovered");
    }

    #[test]
    fn bounded_controller_full_campaign() {
        let m = model();
        let t = m.without_notification(50.0).unwrap();
        let mut c = BoundedController::new(t, BoundedConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let summary = run_campaign(
            &m,
            &mut c,
            &[
                StateId::new(two_server::FAULT_A),
                StateId::new(two_server::FAULT_B),
            ],
            30,
            &HarnessConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(summary.episodes, 30);
        assert_eq!(summary.unterminated, 0);
        assert_eq!(summary.unrecovered, 0, "controller quit before recovery");
        assert!(summary.mean_cost > 0.0);
        assert!(summary.mean_recovery_time >= summary.mean_residual_time);
    }

    #[test]
    fn heuristic_campaign_terminates() {
        let m = model();
        let mut c = HeuristicController::new(m.clone(), 1, 0.99).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let summary = run_campaign(
            &m,
            &mut c,
            &[StateId::new(two_server::FAULT_A)],
            10,
            &HarnessConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(summary.episodes, 10);
        assert_eq!(summary.unterminated, 0);
        assert!(summary.mean_monitor_calls >= summary.mean_actions);
    }

    #[test]
    fn empty_population_is_rejected() {
        let m = model();
        let mut c = OracleController::new(m.clone());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(run_campaign(&m, &mut c, &[], 5, &HarnessConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn out_of_bounds_fault_is_rejected() {
        let m = model();
        let mut c = OracleController::new(m.clone());
        assert!(EpisodeRunner::new(&m)
            .seed(5)
            .run(&mut c, StateId::new(99))
            .is_err());
    }

    #[test]
    fn zero_max_steps_is_rejected() {
        let m = model();
        let mut c = OracleController::new(m.clone());
        assert!(EpisodeRunner::new(&m)
            .max_steps(0)
            .run(&mut c, StateId::new(two_server::FAULT_A))
            .is_err());
        assert!(HarnessConfig { max_steps: 0 }.validate().is_err());
        assert!(HarnessConfig { max_steps: 7 }.validate().is_ok());
        assert!(HarnessConfig::default().validate().is_ok());
    }

    #[test]
    fn traced_episode_records_every_step() {
        let m = model();
        let t = m.without_notification(50.0).unwrap();
        let mut c = BoundedController::new(t, BoundedConfig::default()).unwrap();
        let (out, trace) = EpisodeRunner::new(&m)
            .seed(12)
            .run_traced(&mut c, StateId::new(two_server::FAULT_A))
            .unwrap();
        assert!(out.terminated);
        // One trace event per decision, terminate included; for a
        // monitor-using controller every execute step delivers one
        // observation.
        assert_eq!(trace.len(), out.monitor_calls + 1);
        let last = trace.last().unwrap();
        assert_eq!(last.action, None, "final event must be the termination");
        assert!(last.null_mass > 0.5, "terminated while unsure");
        // Wall clock is non-decreasing and costs are non-negative.
        let mut prev_wall = 0.0;
        for e in &trace {
            assert!(e.wall >= prev_wall);
            assert!(e.cost >= 0.0);
            assert!(!e.action_failed && !e.observation_corrupted);
            assert_eq!(e.injected_fault, None);
            prev_wall = e.wall;
        }
        let total: f64 = trace.iter().map(|e| e.cost).sum();
        assert!((total - out.cost).abs() < 1e-9);
    }

    #[test]
    fn injecting_null_fault_is_benign() {
        // Degenerate episode: "fault" is the null state; the controller
        // should terminate quickly and report recovered.
        let m = model();
        let t = m.without_notification(50.0).unwrap();
        let mut c = BoundedController::new(t, BoundedConfig::default()).unwrap();
        let out = EpisodeRunner::new(&m)
            .seed(6)
            .run(&mut c, StateId::new(two_server::NULL))
            .unwrap();
        assert!(out.terminated);
        assert!(out.recovered);
        assert_eq!(out.residual_time, 0.0);
    }

    #[test]
    fn zero_plan_episode_matches_undegraded_episode() {
        let m = model();
        let t = m.without_notification(50.0).unwrap();
        let mut c1 = BoundedController::new(t.clone(), BoundedConfig::default()).unwrap();
        let mut c2 = BoundedController::new(t, BoundedConfig::default()).unwrap();
        let fault = StateId::new(two_server::FAULT_B);
        let (o1, t1) = EpisodeRunner::new(&m)
            .seed(21)
            .run_traced(&mut c1, fault)
            .unwrap();
        let (o2, t2) = EpisodeRunner::new(&m)
            .seed(21)
            .degraded(&PerturbationPlan::none())
            .run_traced(&mut c2, fault)
            .unwrap();
        assert_eq!(o1.canonical(), o2.canonical());
        assert_eq!(t1, t2);
    }

    #[test]
    fn full_dropout_forces_blind_recovery() {
        let m = model();
        let mut c = MostLikelyController::new(m.clone(), 0.95).unwrap();
        let plan = PerturbationPlan {
            seed: 5,
            monitor_dropout_prob: 1.0,
            ..PerturbationPlan::none()
        };
        let out = EpisodeRunner::new(&m)
            .seed(31)
            .degraded(&plan)
            .max_steps(40)
            .run(&mut c, StateId::new(two_server::FAULT_A))
            .unwrap();
        // Every observation (detection included) was dropped.
        assert_eq!(out.monitor_calls, 0);
        assert!(out.perturbations.dropped_observations > 0);
    }
}
