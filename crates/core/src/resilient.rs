//! A hardening decorator for recovery controllers (robustness
//! extension, beyond the paper).
//!
//! The paper's §5 evaluation assumes recovery actions succeed
//! deterministically and monitors always answer. A production recovery
//! runtime gets neither. [`ResilientController`] wraps any
//! [`RecoveryController`] and keeps recovery live when the executed
//! world deviates from the model:
//!
//! * **Robust belief tracking** — maintains its own belief with
//!   [`Belief::update_robust`], so zero-likelihood monitor outputs
//!   degrade to an epsilon-mixture update instead of aborting the
//!   episode, and monitor dropouts degrade to a predict-only update.
//! * **Retry with budget** — a run of identical actions whose belief
//!   makes no ratcheting progress (null mass, diagnosis confidence) is
//!   granted a bounded number of retries, then escalated.
//! * **Divergence watchdog** — each observation's likelihood under the
//!   current belief is compared against its likelihood under the
//!   uniform belief; a streak of wildly surprising observations means
//!   the belief has diverged from reality (e.g. a restart the model
//!   says always works silently failed), so the belief is re-seeded
//!   and the inner controller re-begun. Resets are budgeted too.
//! * **Escalation ladder** — inner controller → budgeted anytime
//!   planner (when configured via `with_anytime`) → model-driven
//!   heuristic (cheapest recovery action per likely fault, attempts
//!   capped) → reboot-everything → terminate, under a hard per-episode step and
//!   modeled wall-clock budget, so recovery always terminates even
//!   when the model is wrong (preserving Property 1's spirit).
//! * **Guarded termination** — an inner `Terminate` is only accepted
//!   after confirmation observations agree the system looks healthy;
//!   otherwise it is treated as a diagnosis failure and escalated.

use crate::controller::{Lifecycle, ResilienceStats};
use crate::{AnytimeController, Error, RecoveryController, RecoveryModel, Step};
use bpr_mdp::{ActionId, StateId};
use bpr_pomdp::{Belief, ObservationId, RobustUpdate};

/// Knobs of the hardening layer. Defaults are tuned for the EMN-scale
/// models of the paper; see EXPERIMENTS.md §"Robustness harness".
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Identical consecutive actions without ratcheting belief progress
    /// tolerated before escalating.
    pub max_action_repeats: usize,
    /// Minimum improvement of null mass or diagnosis confidence that
    /// counts as progress for the stall detector.
    pub progress_epsilon: f64,
    /// An observation is *surprising* when its likelihood under the
    /// current belief falls below this fraction of its likelihood under
    /// the uniform belief.
    pub surprise_ratio: f64,
    /// Consecutive surprising observations before the divergence
    /// watchdog re-seeds the belief.
    pub divergence_window: usize,
    /// Belief re-initialisations granted per episode before the
    /// watchdog escalates instead.
    pub max_belief_resets: usize,
    /// Belief mass on `S_φ` required before a termination is
    /// considered.
    pub null_mass_to_terminate: f64,
    /// Consecutive unsurprising confirmation observations required
    /// before accepting a termination.
    pub termination_confirmations: usize,
    /// Hard per-episode decision budget; the controller terminates
    /// unconditionally once exhausted.
    pub max_steps: usize,
    /// Hard per-episode modeled wall-clock budget in seconds (sum of
    /// executed action durations); infinite by default.
    pub max_wall_clock: f64,
    /// Mixture weight for [`Belief::update_robust`].
    pub epsilon: f64,
    /// Recovery attempts per fault at the heuristic escalation level.
    pub heuristic_attempts_per_fault: usize,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_action_repeats: 10,
            progress_epsilon: 0.01,
            surprise_ratio: 0.1,
            divergence_window: 3,
            max_belief_resets: 4,
            null_mass_to_terminate: 0.5,
            termination_confirmations: 3,
            max_steps: 300,
            max_wall_clock: f64::INFINITY,
            epsilon: 0.05,
            heuristic_attempts_per_fault: 2,
        }
    }
}

impl ResilienceConfig {
    fn validate(&self) -> Result<(), Error> {
        let prob_ok = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        let surprise_ok = self.surprise_ratio.is_finite() && self.surprise_ratio > 0.0;
        let epsilon_ok = self.epsilon > 0.0 && self.epsilon <= 1.0;
        if !prob_ok(self.null_mass_to_terminate)
            || !prob_ok(self.progress_epsilon)
            || !surprise_ok
            || !epsilon_ok
        {
            return Err(Error::InvalidInput {
                detail: "resilience thresholds out of range".into(),
            });
        }
        if self.max_steps == 0 || self.divergence_window == 0 {
            return Err(Error::InvalidInput {
                detail: "resilience budgets must be positive".into(),
            });
        }
        // NaN budgets must be rejected too, hence no `<=` shortcut.
        if self.max_wall_clock.is_nan() || self.max_wall_clock <= 0.0 {
            return Err(Error::InvalidInput {
                detail: "wall-clock budget must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Where on the escalation ladder the controller currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscalationLevel {
    /// Delegating to the wrapped controller.
    Inner,
    /// Deadline-bounded planning on the [`AnytimeController`] rung
    /// (skipped when none is configured).
    Anytime,
    /// Model-driven heuristic: cheapest recovery action for the most
    /// likely faults, attempts capped.
    Heuristic,
    /// Execute every broad recovery action once (reboot everything).
    RebootAll,
    /// Give up: hand the system to the operator.
    Terminate,
}

/// The hardening decorator; see the module docs. Wrap any
/// [`RecoveryController`] (typically a [`crate::BoundedController`])
/// together with the base [`RecoveryModel`] the episode runs on:
///
/// ```text
/// let inner = BoundedController::new(model.without_notification(t_op)?, cfg)?;
/// let hardened = ResilientController::new(model, inner, ResilienceConfig::default())?;
/// ```
#[derive(Debug, Clone)]
pub struct ResilientController<C> {
    inner: C,
    model: RecoveryModel,
    config: ResilienceConfig,
    name: String,
    /// Broad-coverage recovery actions for the reboot-all level, widest
    /// coverage first; computed once at construction.
    reboot_ladder: Vec<ActionId>,
    /// Optional deadline-bounded planner: an extra ladder rung between
    /// the inner controller and the heuristic.
    anytime: Option<AnytimeController>,
    /// Whether the anytime rung has a live episode (begun and tracking
    /// observations); false forces a re-begin from the robust belief.
    anytime_live: bool,

    /// The robust belief (its own update, not the Bayes one) and the
    /// termination flag.
    life: Lifecycle,
    level: EscalationLevel,
    stats: ResilienceStats,
    steps: usize,
    wall: f64,

    last_action: Option<ActionId>,
    action_run: usize,
    run_best_null: f64,
    run_best_confidence: f64,

    surprise_streak: usize,
    calm_streak: usize,
    resets_used: usize,
    inner_poisoned: bool,
    confirming: bool,
    heuristic_attempts: Vec<usize>,
    reboot_cursor: usize,
}

impl<C: RecoveryController> ResilientController<C> {
    /// Wraps `inner`, hardening it against the failure modes listed in
    /// the module docs. `model` must be the *base* recovery model the
    /// episodes run on.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for out-of-range configuration values.
    pub fn new(
        model: RecoveryModel,
        inner: C,
        config: ResilienceConfig,
    ) -> Result<ResilientController<C>, Error> {
        config.validate()?;
        let name = format!("resilient-{}", inner.name());
        // Coverage = number of faults an action deterministically
        // recovers; the reboot-all ladder walks them widest-first so a
        // handful of actions sweeps the whole fault space.
        let faults = model.fault_states();
        let mut coverage: Vec<(ActionId, usize)> = (0..model.base().n_actions())
            .map(ActionId::new)
            .map(|a| {
                let c = faults
                    .iter()
                    .filter(|&&f| model.recovery_actions_for(f).contains(&a))
                    .count();
                (a, c)
            })
            .filter(|&(_, c)| c > 0)
            .collect();
        coverage.sort_by_key(|&(a, c)| (std::cmp::Reverse(c), a.index()));
        let reboot_ladder = coverage.into_iter().map(|(a, _)| a).collect();
        let n_states = model.base().n_states();
        Ok(ResilientController {
            inner,
            model,
            config,
            name,
            reboot_ladder,
            anytime: None,
            anytime_live: false,
            life: Lifecycle::default(),
            level: EscalationLevel::Inner,
            stats: ResilienceStats::default(),
            steps: 0,
            wall: 0.0,
            last_action: None,
            action_run: 0,
            run_best_null: 0.0,
            run_best_confidence: 0.0,
            surprise_streak: 0,
            calm_streak: 0,
            resets_used: 0,
            inner_poisoned: false,
            confirming: false,
            heuristic_attempts: vec![0; n_states],
            reboot_cursor: 0,
        })
    }

    /// Adds a deadline-bounded [`AnytimeController`] as an extra
    /// escalation rung between the inner controller and the heuristic:
    /// when the inner controller wedges or stalls, decisions keep
    /// coming from budgeted planning before the ladder falls back to
    /// model heuristics. The rung's budgeted passes run on the fused
    /// planning kernel against the controller's own reusable
    /// [`bpr_pomdp::PlanWorkspace`], so escalated decisions stay cheap
    /// even under tight deadlines.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] when the anytime controller's
    /// transformed model does not extend this controller's base model
    /// (base states + the terminate state).
    pub fn with_anytime(
        mut self,
        controller: AnytimeController,
    ) -> Result<ResilientController<C>, Error> {
        if controller.model().pomdp().n_states() != self.model.base().n_states() + 1 {
            return Err(Error::InvalidInput {
                detail: format!(
                    "anytime controller covers {} states, expected {} (base + terminate)",
                    controller.model().pomdp().n_states(),
                    self.model.base().n_states() + 1
                ),
            });
        }
        self.anytime = Some(controller);
        Ok(self)
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The recovery model the heuristic levels and belief tracking read.
    pub fn model(&self) -> &RecoveryModel {
        &self.model
    }

    /// The anytime rung, when configured.
    pub fn anytime(&self) -> Option<&AnytimeController> {
        self.anytime.as_ref()
    }

    /// The ladder level reached when the inner controller fails: the
    /// anytime rung when one is configured, else the heuristic.
    fn post_inner_level(&self) -> EscalationLevel {
        if self.anytime.is_some() {
            EscalationLevel::Anytime
        } else {
            EscalationLevel::Heuristic
        }
    }

    /// The next rung below the current level (skipping the anytime rung
    /// when none is configured).
    fn next_level(&self) -> EscalationLevel {
        match self.level {
            EscalationLevel::Inner => self.post_inner_level(),
            EscalationLevel::Anytime => EscalationLevel::Heuristic,
            EscalationLevel::Heuristic => EscalationLevel::RebootAll,
            _ => EscalationLevel::Terminate,
        }
    }

    /// The current escalation level.
    pub fn level(&self) -> EscalationLevel {
        self.level
    }

    fn escalate(&mut self, to: EscalationLevel) {
        if to > self.level {
            self.level = to;
            self.stats.escalations += 1;
            self.confirming = false;
        }
    }

    fn null_mass(&self) -> f64 {
        self.life
            .belief()
            .map_or(0.0, |b| b.prob_in(self.model.null_states()))
    }

    /// Re-seeds the robust belief with "anything is possible" and, at
    /// the inner level, re-begins the wrapped controller from it.
    fn reset_belief(&mut self) {
        let fresh = Belief::uniform(self.model.base().n_states());
        self.stats.belief_resets += 1;
        self.resets_used += 1;
        self.surprise_streak = 0;
        self.calm_streak = 0;
        self.confirming = false;
        self.reset_run_tracking();
        // A fresh belief invalidates any live anytime episode too; the
        // rung re-begins from the new belief at its next decision.
        self.anytime_live = false;
        if self.level == EscalationLevel::Inner
            && !self.inner_poisoned
            && self.inner.begin(fresh.clone(), None).is_err()
        {
            self.inner_poisoned = true;
            self.escalate(self.post_inner_level());
        }
        self.life.set(fresh);
    }

    fn reset_run_tracking(&mut self) {
        self.last_action = None;
        self.action_run = 0;
        self.run_best_null = 0.0;
        self.run_best_confidence = 0.0;
    }

    /// Stall bookkeeping: returns true when the action-repeat budget is
    /// exhausted without ratcheting belief progress.
    fn note_action(&mut self, action: ActionId) -> bool {
        let null = self.null_mass();
        let confidence = self.life.belief().map_or(0.0, |b| b.most_likely().1);
        if self.last_action == Some(action) {
            let progressed = null > self.run_best_null + self.config.progress_epsilon
                || confidence > self.run_best_confidence + self.config.progress_epsilon;
            if progressed {
                self.action_run = 0;
            } else {
                self.action_run += 1;
                self.stats.retries += 1;
            }
        } else {
            self.last_action = Some(action);
            self.action_run = 0;
            self.run_best_null = 0.0;
            self.run_best_confidence = 0.0;
        }
        self.run_best_null = self.run_best_null.max(null);
        self.run_best_confidence = self.run_best_confidence.max(confidence);
        self.action_run >= self.config.max_action_repeats
    }

    /// True when the belief both claims health and the recent
    /// observation stream does not contradict it.
    fn termination_looks_safe(&self) -> bool {
        self.null_mass() >= self.config.null_mass_to_terminate && self.surprise_streak == 0
    }

    /// The observe action used for confirmation sweeps, if the model
    /// tags one.
    fn observe_action(&self) -> Option<ActionId> {
        self.model.observe_actions().first().copied()
    }

    fn terminate_now(&mut self) -> Result<Step, Error> {
        Ok(self.life.terminate())
    }

    /// Gate in front of every termination: demand
    /// `termination_confirmations` calm confirmation observations
    /// before giving the system back. Returns the step to take.
    fn guarded_terminate(&mut self) -> Result<Step, Error> {
        if !self.termination_looks_safe() {
            self.confirming = false;
            self.escalate(EscalationLevel::Heuristic);
            return self.decide_on_ladder();
        }
        let Some(observe) = self.observe_action() else {
            // No monitors to confirm with; take the claim at face value.
            return self.terminate_now();
        };
        if !self.confirming {
            self.confirming = true;
            self.calm_streak = 0;
        }
        if self.calm_streak >= self.config.termination_confirmations {
            return self.terminate_now();
        }
        Ok(Step::Execute(observe))
    }

    fn decide_heuristic(&mut self) -> Result<Step, Error> {
        let belief = self.life.belief().cloned().ok_or(Error::NotStarted)?;
        // Most likely faults first; each gets a bounded number of shots
        // at its cheapest recovery action.
        let mut faults: Vec<StateId> = self
            .model
            .fault_states()
            .into_iter()
            .filter(|f| self.model.cheapest_recovery_action(*f).is_some())
            .collect();
        faults.sort_by(|a, b| {
            belief
                .prob(*b)
                .total_cmp(&belief.prob(*a))
                .then(a.index().cmp(&b.index()))
        });
        for f in faults {
            if self.heuristic_attempts[f.index()] < self.config.heuristic_attempts_per_fault {
                if let Some(action) = self.model.cheapest_recovery_action(f) {
                    self.heuristic_attempts[f.index()] += 1;
                    return Ok(Step::Execute(action));
                }
            }
        }
        self.escalate(EscalationLevel::RebootAll);
        self.decide_on_ladder()
    }

    fn decide_reboot_all(&mut self) -> Result<Step, Error> {
        if self.reboot_cursor < self.reboot_ladder.len() {
            let action = self.reboot_ladder[self.reboot_cursor];
            self.reboot_cursor += 1;
            return Ok(Step::Execute(action));
        }
        self.escalate(EscalationLevel::Terminate);
        self.decide_on_ladder()
    }

    /// Dispatches a decision at the current (post-inner) ladder level.
    fn decide_on_ladder(&mut self) -> Result<Step, Error> {
        // A healthy-looking belief short-circuits the ladder into the
        // guarded termination path.
        if self.level != EscalationLevel::Terminate && self.termination_looks_safe() {
            return self.guarded_terminate();
        }
        self.confirming = false;
        match self.level {
            EscalationLevel::Inner => unreachable!("inner decisions handled by decide()"),
            EscalationLevel::Anytime => self.decide_anytime(),
            EscalationLevel::Heuristic => self.decide_heuristic(),
            EscalationLevel::RebootAll => self.decide_reboot_all(),
            EscalationLevel::Terminate => self.terminate_now(),
        }
    }

    /// One decision from the anytime rung. A dead episode (fresh
    /// escalation, belief reset, refused observation) is re-begun from
    /// the current robust belief; any failure sends the ladder on to
    /// the heuristic.
    fn decide_anytime(&mut self) -> Result<Step, Error> {
        let belief = self.life.belief().cloned().ok_or(Error::NotStarted)?;
        let needs_begin = !self.anytime_live;
        let result = match self.anytime.as_mut() {
            Some(anytime) => {
                if needs_begin {
                    anytime.begin(belief, None).and_then(|()| anytime.decide())
                } else {
                    anytime.decide()
                }
            }
            // Ladder invariant: the Anytime level is only reachable via
            // post_inner_level()/next_level(), which require the rung.
            // Degrade instead of panicking if it is somehow absent.
            None => Err(Error::NotStarted),
        };
        match result {
            Ok(Step::Terminate) => {
                self.anytime_live = false;
                self.guarded_terminate()
            }
            Ok(Step::Execute(action)) => {
                self.anytime_live = true;
                self.stats.anytime_decisions += 1;
                Ok(Step::Execute(action))
            }
            Err(_) => {
                self.anytime_live = false;
                self.escalate(EscalationLevel::Heuristic);
                self.decide_on_ladder()
            }
        }
    }
}

impl<C: RecoveryController> RecoveryController for ResilientController<C> {
    fn name(&self) -> &str {
        &self.name
    }

    fn begin(&mut self, initial: Belief, true_fault: Option<StateId>) -> Result<(), Error> {
        // Check the dimension before the inner controller sees the
        // belief, and change nothing unless both accept it.
        let mut life = Lifecycle::default();
        life.start(initial.clone(), self.model.base().n_states())?;
        self.inner.begin(initial, true_fault)?;
        self.life = life;
        self.level = EscalationLevel::Inner;
        self.stats = ResilienceStats::default();
        self.steps = 0;
        self.wall = 0.0;
        self.surprise_streak = 0;
        self.calm_streak = 0;
        self.resets_used = 0;
        self.inner_poisoned = false;
        self.anytime_live = false;
        self.confirming = false;
        self.heuristic_attempts.fill(0);
        self.reboot_cursor = 0;
        self.reset_run_tracking();
        Ok(())
    }

    fn decide(&mut self) -> Result<Step, Error> {
        self.life.guard()?;
        self.steps += 1;
        // Hard budgets trump everything: recovery must end.
        if self.steps > self.config.max_steps || self.wall > self.config.max_wall_clock {
            if self.level < EscalationLevel::Terminate {
                self.escalate(EscalationLevel::Terminate);
            }
            return self.terminate_now();
        }

        let step = if self.level == EscalationLevel::Inner && !self.inner_poisoned {
            match self.inner.decide() {
                Ok(Step::Terminate) => {
                    // Do not let the inner controller end the episode
                    // unchallenged: it has already decided recovery is
                    // over, so from here the guarded path owns the
                    // endgame (the inner controller cannot continue
                    // after a e.g. rejected termination anyway).
                    self.inner_poisoned = true;
                    self.guarded_terminate()
                }
                Ok(Step::Execute(action)) => Ok(Step::Execute(action)),
                Err(_) => {
                    // Inner controller wedged (belief update refused,
                    // internal invariant broken): fall down the ladder.
                    self.inner_poisoned = true;
                    self.escalate(self.post_inner_level());
                    self.decide_on_ladder()
                }
            }
        } else if self.level == EscalationLevel::Inner {
            // Inner poisoned but not yet escalated (e.g. failed
            // re-begin during reset).
            self.escalate(self.post_inner_level());
            self.decide_on_ladder()
        } else {
            self.decide_on_ladder()
        };

        match step {
            Ok(Step::Execute(action)) => {
                if self.note_action(action) {
                    // Retry budget exhausted: the same action keeps
                    // coming back without the belief going anywhere.
                    self.reset_run_tracking();
                    self.escalate(self.next_level());
                    self.decide_on_ladder()
                } else {
                    Ok(Step::Execute(action))
                }
            }
            other => other,
        }
    }

    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
        let belief = self.life.belief().cloned().ok_or(Error::NotStarted)?;
        self.wall += self.model.base().mdp().duration(action);

        // Surprise assessment: likelihood of the observation under the
        // current belief vs under total ignorance. A healthy belief
        // explains observations at least as well as the uniform one.
        let gamma_uniform = Belief::uniform(self.model.base().n_states())
            .observation_probs(self.model.base(), action)[o.index()];
        let (next, gamma, path) =
            belief.update_robust(self.model.base(), action, o, self.config.epsilon)?;
        if path == RobustUpdate::EpsilonMixed {
            self.stats.impossible_observations += 1;
        }
        let surprising = path == RobustUpdate::EpsilonMixed
            || gamma < self.config.surprise_ratio * gamma_uniform;
        if surprising {
            self.surprise_streak += 1;
            self.calm_streak = 0;
        } else {
            self.surprise_streak = 0;
            if self.confirming && self.model.is_observe(action) {
                self.calm_streak += 1;
            }
        }
        self.life.set(next);

        if self.surprise_streak >= self.config.divergence_window {
            if self.resets_used < self.config.max_belief_resets {
                self.reset_belief();
            } else {
                self.escalate(self.next_level());
                self.surprise_streak = 0;
            }
            return Ok(());
        }

        if self.level == EscalationLevel::Anytime && self.anytime_live {
            if let Some(anytime) = self.anytime.as_mut() {
                if anytime.observe(action, o).is_err() {
                    // The anytime belief refused the observation; the
                    // next decision re-begins from the robust belief.
                    self.anytime_live = false;
                }
            }
        }

        if self.level == EscalationLevel::Inner
            && !self.inner_poisoned
            && self.inner.observe(action, o).is_err()
        {
            // The inner belief refused the observation (impossible
            // under its model). Re-seed it from scratch if the budget
            // allows; otherwise walk down the ladder without it.
            self.stats.impossible_observations += 1;
            if self.resets_used < self.config.max_belief_resets {
                self.reset_belief();
            } else {
                self.inner_poisoned = true;
                self.escalate(EscalationLevel::Heuristic);
            }
        }
        Ok(())
    }

    fn on_unobserved(&mut self, action: ActionId) -> Result<(), Error> {
        let belief = self.life.belief().cloned().ok_or(Error::NotStarted)?;
        self.wall += self.model.base().mdp().duration(action);
        // Predict-only update: the action happened, the monitors said
        // nothing. The inner controller has no such notion — its belief
        // simply goes stale, which the divergence watchdog will catch.
        let probs = belief.predict(self.model.base(), action);
        self.life.set(Belief::from_probs(probs)?);
        Ok(())
    }

    fn belief(&self) -> Option<Belief> {
        self.life.belief().cloned()
    }

    fn resilience_stats(&self) -> Option<ResilienceStats> {
        Some(self.stats)
    }

    fn uses_monitors(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::MostLikelyController;
    use crate::model::tests::two_server_model;
    use crate::{BoundedConfig, BoundedController};

    fn hardened_bounded(config: ResilienceConfig) -> ResilientController<BoundedController> {
        let model = two_server_model();
        let inner = BoundedController::new(
            model.without_notification(50.0).unwrap(),
            BoundedConfig::default(),
        )
        .unwrap();
        ResilientController::new(model, inner, config).unwrap()
    }

    #[test]
    fn name_tags_the_inner_controller() {
        let c = hardened_bounded(ResilienceConfig::default());
        assert_eq!(c.name(), "resilient-bounded");
        let model = two_server_model();
        let ml = MostLikelyController::new(model.clone(), 0.95).unwrap();
        let c2 = ResilientController::new(model, ml, ResilienceConfig::default()).unwrap();
        assert_eq!(c2.name(), "resilient-most-likely");
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let model = two_server_model();
        let inner = MostLikelyController::new(model.clone(), 0.95).unwrap();
        for bad in [
            ResilienceConfig {
                max_steps: 0,
                ..ResilienceConfig::default()
            },
            ResilienceConfig {
                epsilon: 0.0,
                ..ResilienceConfig::default()
            },
            ResilienceConfig {
                null_mass_to_terminate: 1.5,
                ..ResilienceConfig::default()
            },
            ResilienceConfig {
                max_wall_clock: -1.0,
                ..ResilienceConfig::default()
            },
        ] {
            assert!(ResilientController::new(model.clone(), inner.clone(), bad).is_err());
        }
    }

    #[test]
    fn lifecycle_errors_match_the_contract() {
        let mut c = hardened_bounded(ResilienceConfig::default());
        assert!(matches!(c.decide(), Err(Error::NotStarted)));
        assert!(c.begin(Belief::uniform(7), None).is_err());
        c.begin(Belief::uniform(3), None).unwrap();
        assert!(c.belief().is_some());
        assert!(c.resilience_stats().is_some());
    }

    #[test]
    fn step_budget_forces_termination() {
        let mut c = hardened_bounded(ResilienceConfig {
            max_steps: 1,
            ..ResilienceConfig::default()
        });
        c.begin(Belief::uniform(3), None).unwrap();
        let _ = c.decide().unwrap();
        assert_eq!(c.decide().unwrap(), Step::Terminate);
        assert!(matches!(c.decide(), Err(Error::AlreadyTerminated)));
        assert!(c.resilience_stats().unwrap().escalations >= 1);
    }

    #[test]
    fn reboot_ladder_is_widest_coverage_first() {
        let c = hardened_bounded(ResilienceConfig::default());
        // Two-server model: both restarts recover exactly one fault
        // each; the ladder holds both, in index order.
        assert_eq!(c.reboot_ladder.len(), 2);
        assert_eq!(c.reboot_ladder[0].index(), 0);
        assert_eq!(c.reboot_ladder[1].index(), 1);
    }

    /// The scenario the decorator exists for: the true fault's restart
    /// silently fails, the inner belief collapses onto "recovered", and
    /// the hardened layer must notice via the observation stream,
    /// re-diagnose, and retry until the world really is fixed.
    #[test]
    fn silent_action_failure_is_survived() {
        let mut c = hardened_bounded(ResilienceConfig {
            termination_confirmations: 2,
            ..ResilienceConfig::default()
        });
        let _model = two_server_model();
        c.begin(
            Belief::uniform_over(3, &[StateId::new(0), StateId::new(1)]),
            None,
        )
        .unwrap();
        // World: fault is state 0; the FIRST matching restart fails
        // silently, later ones work.
        let mut world = 0usize;
        let mut restarts_tried = 0usize;
        for _ in 0..60 {
            match c.decide().unwrap() {
                Step::Terminate => break,
                Step::Execute(a) => {
                    if a.index() == 0 && world == 0 {
                        restarts_tried += 1;
                        if restarts_tried > 1 {
                            world = 2; // second attempt really fixes it
                        }
                    }
                    if a.index() == 1 && world == 1 {
                        world = 2;
                    }
                    // Mostly-faithful monitor of the true state.
                    let o = ObservationId::new(match world {
                        0 => 0,
                        1 => 1,
                        _ => 2,
                    });
                    c.observe(a, o).unwrap();
                }
            }
        }
        assert_eq!(world, 2, "hardened controller never fixed the fault");
        assert!(
            matches!(c.decide(), Err(Error::AlreadyTerminated)),
            "episode did not terminate"
        );
        let stats = c.resilience_stats().unwrap();
        assert!(
            stats.belief_resets + stats.escalations + stats.retries > 0,
            "recovery succeeded without the hardening layer doing anything: {stats:?}"
        );
    }

    /// An inner controller that accepts episodes but wedges on every
    /// decision — the failure the anytime rung exists to absorb.
    #[derive(Debug, Clone)]
    struct WedgedController;

    impl RecoveryController for WedgedController {
        fn name(&self) -> &str {
            "wedged"
        }
        fn begin(&mut self, _initial: Belief, _true_fault: Option<StateId>) -> Result<(), Error> {
            Ok(())
        }
        fn decide(&mut self) -> Result<Step, Error> {
            Err(Error::NotStarted)
        }
        fn observe(&mut self, _action: ActionId, _o: ObservationId) -> Result<(), Error> {
            Ok(())
        }
        fn belief(&self) -> Option<Belief> {
            None
        }
    }

    fn anytime_rung() -> crate::AnytimeController {
        let model = two_server_model().without_notification(50.0).unwrap();
        crate::AnytimeController::new(model, crate::AnytimeConfig::default()).unwrap()
    }

    #[test]
    fn wedged_inner_falls_to_the_anytime_rung_and_recovers() {
        let model = two_server_model();
        let mut c = ResilientController::new(model, WedgedController, ResilienceConfig::default())
            .unwrap()
            .with_anytime(anytime_rung())
            .unwrap();
        c.begin(Belief::point(3, StateId::new(0)), None).unwrap();
        let mut world = 0usize;
        for _ in 0..60 {
            match c.decide().unwrap() {
                Step::Terminate => break,
                Step::Execute(a) => {
                    if a.index() == 0 && world == 0 {
                        world = 2;
                    }
                    if a.index() == 1 && world == 1 {
                        world = 2;
                    }
                    let o = ObservationId::new(match world {
                        0 => 0,
                        1 => 1,
                        _ => 2,
                    });
                    c.observe(a, o).unwrap();
                }
            }
        }
        assert_eq!(world, 2, "anytime rung failed to recover the fault");
        assert!(
            matches!(c.decide(), Err(Error::AlreadyTerminated)),
            "episode did not terminate"
        );
        let stats = c.resilience_stats().unwrap();
        assert!(
            stats.anytime_decisions >= 1,
            "recovery bypassed the anytime rung: {stats:?}"
        );
        // The ladder never needed to fall past the anytime rung.
        assert!(c.level() <= EscalationLevel::Anytime, "{:?}", c.level());
    }

    #[test]
    fn without_the_rung_a_wedged_inner_goes_straight_to_the_heuristic() {
        let model = two_server_model();
        let mut c =
            ResilientController::new(model, WedgedController, ResilienceConfig::default()).unwrap();
        c.begin(Belief::point(3, StateId::new(0)), None).unwrap();
        let _ = c.decide().unwrap();
        assert_eq!(c.level(), EscalationLevel::Heuristic);
        assert_eq!(c.resilience_stats().unwrap().anytime_decisions, 0);
    }

    #[test]
    fn dropout_degrades_to_predict_only_update() {
        let mut c = hardened_bounded(ResilienceConfig::default());
        c.begin(
            Belief::uniform_over(3, &[StateId::new(0), StateId::new(1)]),
            None,
        )
        .unwrap();
        let before = c.belief().unwrap();
        match c.decide().unwrap() {
            Step::Execute(a) => c.on_unobserved(a).unwrap(),
            Step::Terminate => panic!("terminated from an all-fault belief"),
        }
        let after = c.belief().unwrap();
        // Deterministic two-server transitions: the belief must have
        // moved (the attempted restart shifts mass toward Null) even
        // though no observation arrived.
        assert_ne!(before, after);
    }
}
