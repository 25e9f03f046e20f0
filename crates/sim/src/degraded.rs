//! Degraded-world simulation: fault injection *into the fault
//! injector* (robustness extension, beyond the paper).
//!
//! The paper's evaluation drives controllers against a [`World`] that
//! honours the model exactly: every recovery action lands, every
//! monitor answers, every observation comes from the model's kernel.
//! [`DegradedWorld`] wraps a [`World`] and perturbs that contract under
//! a seeded [`PerturbationPlan`]:
//!
//! * **Action failures** — a recovery action is executed but the system
//!   silently stays where it was (a restart that did not clear the
//!   fault).
//! * **Monitor dropout** — the action runs but no observation reaches
//!   the controller.
//! * **Observation corruption** — the monitor answers, but with a
//!   different observation than the kernel produced.
//! * **Secondary faults** — after the system reaches a null-fault
//!   state, a fresh fault may be injected mid-episode.
//!
//! Perturbation randomness comes from the plan's own seeded stream, so
//! a zero plan leaves the primary RNG stream byte-identical to a plain
//! [`World`] run: episodes under `PerturbationPlan::none()` reproduce
//! undegraded episodes exactly (property-tested in
//! `tests/robustness_properties.rs`).

use crate::World;
use bpr_core::{Error, RecoveryModel};
use bpr_mdp::{ActionId, StateId};
use bpr_pomdp::ObservationId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded description of how the world deviates from the model.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbationPlan {
    /// Seed of the plan's private RNG stream (independent of the
    /// episode RNG, so turning perturbations on or off never shifts the
    /// nominal sampling sequence).
    pub seed: u64,
    /// Probability that a non-observe action silently does nothing.
    pub action_failure_prob: f64,
    /// Probability that an executed action's observation is dropped.
    pub monitor_dropout_prob: f64,
    /// Probability that a delivered observation is corrupted.
    pub obs_corruption_prob: f64,
    /// Per-step probability of injecting a secondary fault once the
    /// system sits in a null-fault state.
    pub secondary_fault_prob: f64,
    /// Cap on secondary faults per episode.
    pub max_secondary_faults: usize,
    /// Faults eligible for secondary injection; empty means all of the
    /// model's fault states.
    pub secondary_faults: Vec<StateId>,
}

impl PerturbationPlan {
    /// The identity plan: no perturbations at all.
    pub fn none() -> PerturbationPlan {
        PerturbationPlan {
            seed: 0,
            action_failure_prob: 0.0,
            monitor_dropout_prob: 0.0,
            obs_corruption_prob: 0.0,
            secondary_fault_prob: 0.0,
            max_secondary_faults: 0,
            secondary_faults: Vec::new(),
        }
    }

    /// True when the plan perturbs nothing.
    pub fn is_zero(&self) -> bool {
        self.action_failure_prob == 0.0
            && self.monitor_dropout_prob == 0.0
            && self.obs_corruption_prob == 0.0
            && self.secondary_fault_prob == 0.0
    }

    /// Validates the plan against a model.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for probabilities outside `[0, 1]` or
    /// secondary faults that are out of bounds / not fault states.
    pub fn validate(&self, model: &RecoveryModel) -> Result<(), Error> {
        let prob_ok = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        if !prob_ok(self.action_failure_prob)
            || !prob_ok(self.monitor_dropout_prob)
            || !prob_ok(self.obs_corruption_prob)
            || !prob_ok(self.secondary_fault_prob)
        {
            return Err(Error::InvalidInput {
                detail: "perturbation probabilities must be in [0, 1]".into(),
            });
        }
        let faults = model.fault_states();
        for &s in &self.secondary_faults {
            if !faults.contains(&s) {
                return Err(Error::InvalidInput {
                    detail: format!("secondary fault {} is not a fault state", s.index()),
                });
            }
        }
        if self.secondary_fault_prob > 0.0
            && self.max_secondary_faults > 0
            && self.secondary_faults.is_empty()
            && faults.is_empty()
        {
            return Err(Error::InvalidInput {
                detail: "secondary injection enabled but no fault states exist".into(),
            });
        }
        Ok(())
    }
}

impl Default for PerturbationPlan {
    fn default() -> PerturbationPlan {
        PerturbationPlan::none()
    }
}

/// Perturbations that actually occurred during an episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerturbationCounts {
    /// Actions that silently failed.
    pub failed_actions: usize,
    /// Observations dropped before reaching the controller.
    pub dropped_observations: usize,
    /// Observations delivered corrupted.
    pub corrupted_observations: usize,
    /// Secondary faults injected mid-episode.
    pub injected_faults: usize,
}

impl PerturbationCounts {
    /// Total number of perturbation events.
    pub fn total(&self) -> usize {
        self.failed_actions
            + self.dropped_observations
            + self.corrupted_observations
            + self.injected_faults
    }
}

/// What one (possibly degraded) world step produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepResult {
    /// The true state after the step.
    pub state: StateId,
    /// The observation delivered to the controller; `None` on monitor
    /// dropout.
    pub observation: Option<ObservationId>,
    /// Whether the action silently failed.
    pub action_failed: bool,
    /// Whether the delivered observation was corrupted.
    pub observation_corrupted: bool,
    /// The secondary fault injected at the end of this step, if any.
    pub injected_fault: Option<StateId>,
}

/// The world interface the episode harness drives — implemented by the
/// faithful [`World`] and by [`DegradedWorld`].
pub trait SimWorld {
    /// The (hidden) true state.
    fn true_state(&self) -> StateId;

    /// True if the world currently sits in a null-fault state.
    fn recovered(&self) -> bool;

    /// Executes `action` and reports what the controller gets to see.
    fn step_world<R: Rng + ?Sized>(&mut self, rng: &mut R, action: ActionId) -> StepResult;

    /// Samples the detection observation that triggers recovery, if the
    /// monitors deliver one.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] if the model tags no observe action.
    fn detect<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Option<ObservationId>, Error>;

    /// Perturbations seen so far this episode.
    fn perturbations(&self) -> PerturbationCounts;
}

impl SimWorld for World<'_> {
    fn true_state(&self) -> StateId {
        self.state()
    }

    fn recovered(&self) -> bool {
        self.is_recovered()
    }

    fn step_world<R: Rng + ?Sized>(&mut self, rng: &mut R, action: ActionId) -> StepResult {
        let (state, obs) = self.step(rng, action);
        StepResult {
            state,
            observation: Some(obs),
            action_failed: false,
            observation_corrupted: false,
            injected_fault: None,
        }
    }

    fn detect<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Option<ObservationId>, Error> {
        self.observe_in_place(rng).map(Some)
    }

    fn perturbations(&self) -> PerturbationCounts {
        PerturbationCounts::default()
    }
}

/// A [`World`] whose contract with the controller degrades according
/// to a [`PerturbationPlan`]; see the module docs.
#[derive(Debug, Clone)]
pub struct DegradedWorld<'a> {
    world: World<'a>,
    plan: PerturbationPlan,
    /// The plan's private randomness; never shared with the episode RNG.
    prng: StdRng,
    counts: PerturbationCounts,
}

impl<'a> DegradedWorld<'a> {
    /// Creates a degraded world with the given true state.
    ///
    /// The model passes through the inner [`World::new`] lint gate: a
    /// model with an error-severity lint finding is rejected before
    /// any degraded episode can run on it. Because a
    /// [`PerturbationPlan`] degrades the *world contract* (dropped
    /// observations, failed actions, injected faults) and never edits
    /// the model's matrices, a model accepted here stays lint-clean at
    /// error level for the entire episode, whatever the plan does —
    /// property-tested in `tests/robustness_properties.rs`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidInput`] for an out-of-bounds state or an
    ///   invalid plan (see [`PerturbationPlan::validate`]).
    /// * [`Error::Lint`] if the model has an error-severity lint
    ///   finding.
    pub fn new(
        model: &'a RecoveryModel,
        state: StateId,
        plan: PerturbationPlan,
    ) -> Result<DegradedWorld<'a>, Error> {
        plan.validate(model)?;
        let world = World::new(model, state)?;
        let prng = StdRng::seed_from_u64(plan.seed);
        Ok(DegradedWorld {
            world,
            plan,
            prng,
            counts: PerturbationCounts::default(),
        })
    }

    /// The plan driving the degradation.
    pub fn plan(&self) -> &PerturbationPlan {
        &self.plan
    }

    /// The non-fatal lint findings of the underlying model, read from
    /// its gate report by the inner [`World`].
    pub fn lint_warnings(&self) -> &[bpr_core::lint::Diagnostic] {
        self.world.lint_warnings()
    }

    /// Replaces `obs` with a different observation id, drawn from the
    /// plan's stream. With a power-of-two observation space (monitor
    /// bitmasks) a single random bit is flipped — one monitor lied;
    /// otherwise a different id is drawn uniformly.
    fn corrupt(&mut self, obs: ObservationId) -> ObservationId {
        let n = self.world.model().base().n_observations();
        if n <= 1 {
            return obs;
        }
        if n.is_power_of_two() {
            let bit = self.prng.gen_range(0..n.trailing_zeros() as usize);
            ObservationId::new(obs.index() ^ (1 << bit))
        } else {
            let raw = self.prng.gen_range(0..n - 1);
            ObservationId::new(if raw >= obs.index() { raw + 1 } else { raw })
        }
    }

    /// Dropout/corruption pipeline shared by steps and detection.
    fn deliver(&mut self, obs: ObservationId) -> (Option<ObservationId>, bool) {
        if self.plan.monitor_dropout_prob > 0.0
            && self.prng.gen_bool(self.plan.monitor_dropout_prob)
        {
            self.counts.dropped_observations += 1;
            return (None, false);
        }
        if self.plan.obs_corruption_prob > 0.0 && self.prng.gen_bool(self.plan.obs_corruption_prob)
        {
            let corrupted = self.corrupt(obs);
            if corrupted != obs {
                self.counts.corrupted_observations += 1;
                return (Some(corrupted), true);
            }
        }
        (Some(obs), false)
    }

    /// Rolls the secondary-fault dice; only fires from a null state.
    fn maybe_inject(&mut self) -> Option<StateId> {
        if !self.world.is_recovered()
            || self.counts.injected_faults >= self.plan.max_secondary_faults
            || self.plan.secondary_fault_prob == 0.0
            || !self.prng.gen_bool(self.plan.secondary_fault_prob)
        {
            return None;
        }
        let model = self.world.model();
        let pool = if self.plan.secondary_faults.is_empty() {
            model.fault_states()
        } else {
            self.plan.secondary_faults.clone()
        };
        if pool.is_empty() {
            return None;
        }
        let fault = pool[self.prng.gen_range(0..pool.len())];
        // Plan validation makes an out-of-range fault unreachable;
        // treat one as "no injection" rather than poisoning the episode.
        if self.world.force_state(fault).is_err() {
            return None;
        }
        self.counts.injected_faults += 1;
        Some(fault)
    }
}

impl SimWorld for DegradedWorld<'_> {
    fn true_state(&self) -> StateId {
        self.world.state()
    }

    fn recovered(&self) -> bool {
        self.world.is_recovered()
    }

    fn step_world<R: Rng + ?Sized>(&mut self, rng: &mut R, action: ActionId) -> StepResult {
        let model = self.world.model();
        // Observe actions cannot "fail" — monitor dropout models their
        // failure mode. The probability gates keep the plan stream
        // untouched under a zero plan.
        let action_failed = !model.is_observe(action)
            && self.plan.action_failure_prob > 0.0
            && self.prng.gen_bool(self.plan.action_failure_prob);
        let raw_obs = if action_failed {
            self.counts.failed_actions += 1;
            // The system stays put; the monitors still report on the
            // (unchanged) current state.
            model
                .base()
                .sample_observation(rng, self.world.state(), action)
        } else {
            self.world.step(rng, action).1
        };
        let (observation, observation_corrupted) = self.deliver(raw_obs);
        let injected_fault = self.maybe_inject();
        StepResult {
            state: self.world.state(),
            observation,
            action_failed,
            observation_corrupted,
            injected_fault,
        }
    }

    fn detect<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Option<ObservationId>, Error> {
        let obs = self.world.observe_in_place(rng)?;
        let (delivered, _) = self.deliver(obs);
        Ok(delivered)
    }

    fn perturbations(&self) -> PerturbationCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpr_emn::two_server;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> RecoveryModel {
        two_server::default_model().unwrap()
    }

    fn plan(seed: u64) -> PerturbationPlan {
        PerturbationPlan {
            seed,
            ..PerturbationPlan::none()
        }
    }

    #[test]
    fn zero_plan_reproduces_the_plain_world_stream() {
        let m = model();
        let fault = StateId::new(two_server::FAULT_A);
        let mut plain = World::new_unchecked(&m, fault);
        let mut degraded = DegradedWorld::new(&m, fault, plan(99)).unwrap();
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        for step in 0..50 {
            let action = ActionId::new(step % 3);
            let a = SimWorld::step_world(&mut plain, &mut rng_a, action);
            let b = degraded.step_world(&mut rng_b, action);
            assert_eq!(a, b, "divergence at step {step}");
        }
        assert_eq!(degraded.perturbations().total(), 0);
    }

    #[test]
    fn plan_validation_rejects_bad_inputs() {
        let m = model();
        let fault = StateId::new(two_server::FAULT_A);
        let bad_prob = PerturbationPlan {
            action_failure_prob: 1.5,
            ..plan(1)
        };
        assert!(DegradedWorld::new(&m, fault, bad_prob).is_err());
        let bad_fault = PerturbationPlan {
            secondary_faults: vec![StateId::new(two_server::NULL)],
            ..plan(1)
        };
        assert!(DegradedWorld::new(&m, fault, bad_fault).is_err());
    }

    #[test]
    fn certain_action_failure_freezes_the_state() {
        let m = model();
        let p = PerturbationPlan {
            action_failure_prob: 1.0,
            ..plan(3)
        };
        let mut w = DegradedWorld::new(&m, StateId::new(two_server::FAULT_A), p).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let r = w.step_world(&mut rng, ActionId::new(two_server::RESTART_A));
            assert!(r.action_failed);
            assert_eq!(r.state.index(), two_server::FAULT_A);
        }
        assert_eq!(w.perturbations().failed_actions, 20);
        assert!(!w.recovered());
    }

    #[test]
    fn observe_actions_do_not_fail() {
        let m = model();
        let p = PerturbationPlan {
            action_failure_prob: 1.0,
            ..plan(3)
        };
        let mut w = DegradedWorld::new(&m, StateId::new(two_server::FAULT_A), p).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let r = w.step_world(&mut rng, ActionId::new(two_server::OBSERVE));
        assert!(!r.action_failed);
        assert_eq!(w.perturbations().failed_actions, 0);
    }

    #[test]
    fn certain_dropout_hides_every_observation() {
        let m = model();
        let p = PerturbationPlan {
            monitor_dropout_prob: 1.0,
            ..plan(5)
        };
        let mut w = DegradedWorld::new(&m, StateId::new(two_server::FAULT_B), p).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        assert_eq!(w.detect(&mut rng).unwrap(), None);
        for _ in 0..10 {
            let r = w.step_world(&mut rng, ActionId::new(two_server::OBSERVE));
            assert_eq!(r.observation, None);
        }
        assert_eq!(w.perturbations().dropped_observations, 11);
    }

    #[test]
    fn corruption_changes_the_observation_and_counts() {
        let m = model();
        let p = PerturbationPlan {
            obs_corruption_prob: 1.0,
            ..plan(17)
        };
        let mut w = DegradedWorld::new(&m, StateId::new(two_server::FAULT_A), p).unwrap();
        // Replay the same step on a plain world with the same episode
        // RNG to learn what the uncorrupted observation would have been.
        let mut w_ref = World::new_unchecked(&m, StateId::new(two_server::FAULT_A));
        let mut corrupted = 0usize;
        for round in 0..30 {
            let mut rng_a = StdRng::seed_from_u64(round);
            let mut rng_b = StdRng::seed_from_u64(round);
            let r = w.step_world(&mut rng_a, ActionId::new(two_server::OBSERVE));
            let (_, raw) = w_ref.step(&mut rng_b, ActionId::new(two_server::OBSERVE));
            let delivered = r.observation.expect("no dropout in this plan");
            if delivered != raw {
                assert!(r.observation_corrupted);
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, w.perturbations().corrupted_observations);
        assert!(corrupted >= 25, "only {corrupted}/30 corrupted");
    }

    #[test]
    fn secondary_faults_reignite_recovered_systems() {
        let m = model();
        let p = PerturbationPlan {
            secondary_fault_prob: 1.0,
            max_secondary_faults: 2,
            secondary_faults: vec![StateId::new(two_server::FAULT_B)],
            ..plan(23)
        };
        let mut w = DegradedWorld::new(&m, StateId::new(two_server::FAULT_A), p).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        // Fix fault A; the step ends in Null, so injection fires.
        let r = w.step_world(&mut rng, ActionId::new(two_server::RESTART_A));
        assert_eq!(r.injected_fault, Some(StateId::new(two_server::FAULT_B)));
        assert!(!w.recovered());
        // Fix fault B; the cap allows one more injection.
        let r = w.step_world(&mut rng, ActionId::new(two_server::RESTART_B));
        assert_eq!(r.injected_fault, Some(StateId::new(two_server::FAULT_B)));
        // Cap reached: recovery sticks now.
        let r = w.step_world(&mut rng, ActionId::new(two_server::RESTART_B));
        assert_eq!(r.injected_fault, None);
        assert!(w.recovered());
        assert_eq!(w.perturbations().injected_faults, 2);
    }
}
