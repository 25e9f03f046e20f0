//! The common interface all recovery controllers implement.

use crate::{Error, TerminatedModel};
use bpr_mdp::{ActionId, StateId};
use bpr_pomdp::{Belief, ObservationId, Pomdp};

/// What a controller wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Execute a recovery/monitoring action of the *base* model.
    Execute(ActionId),
    /// Stop the recovery process (the terminate action `a_T` was chosen,
    /// recovery notification arrived, or a baseline's termination
    /// probability threshold was met).
    Terminate,
}

/// Counters a hardened controller accumulates while compensating for
/// model/world mismatch (see `ResilientController`). Plain controllers
/// report `None` from [`RecoveryController::resilience_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceStats {
    /// Repeated-action retries granted before escalating.
    pub retries: usize,
    /// Escalation-ladder steps taken (inner → heuristic → reboot-all →
    /// terminate).
    pub escalations: usize,
    /// Belief re-initialisations triggered by the divergence watchdog
    /// or by inner-controller update failures.
    pub belief_resets: usize,
    /// Observations the model assigned zero likelihood (recovered via
    /// the epsilon-mixture update instead of aborting).
    pub impossible_observations: usize,
    /// Decisions served by the budgeted anytime rung of the escalation
    /// ladder (zero unless an anytime controller is configured).
    pub anytime_decisions: usize,
}

/// An online recovery controller, driven by a simulation harness or a
/// live system in the loop:
///
/// ```text
/// begin(π₀) → [ decide() → Execute(a) → observe(a, o) ]* → decide() → Terminate
/// ```
///
/// Controllers speak the *base* model's action and observation
/// vocabularies; internal model transforms (like the terminate action)
/// never leak through this interface.
pub trait RecoveryController {
    /// Human-readable controller name (used in experiment reports).
    fn name(&self) -> &str;

    /// Starts a recovery episode from an initial belief.
    ///
    /// `true_fault` carries ground truth for oracle-style controllers;
    /// honest controllers must ignore it.
    ///
    /// # Errors
    ///
    /// Implementations reject beliefs of the wrong dimension.
    fn begin(&mut self, initial: Belief, true_fault: Option<StateId>) -> Result<(), Error>;

    /// Chooses the next step given the current belief.
    ///
    /// # Errors
    ///
    /// * [`Error::NotStarted`] if called before [`RecoveryController::begin`].
    /// * [`Error::AlreadyTerminated`] if called after a
    ///   [`Step::Terminate`] was returned.
    fn decide(&mut self) -> Result<Step, Error>;

    /// Incorporates the observation produced by executing `action`.
    ///
    /// # Errors
    ///
    /// * [`Error::NotStarted`] if called before [`RecoveryController::begin`].
    /// * Propagates belief-update failures for impossible observations.
    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error>;

    /// The controller's current belief over the *base* state space, if
    /// it maintains one (the oracle does not).
    fn belief(&self) -> Option<Belief>;

    /// Notifies the controller that `action` was executed but **no
    /// observation arrived** (monitor dropout in a degraded world).
    ///
    /// The default keeps the belief untouched, mirroring what a
    /// controller built for the idealised model would do; hardened
    /// controllers override this with a predict-only belief update.
    ///
    /// # Errors
    ///
    /// Implementations may propagate the same failures as
    /// [`RecoveryController::observe`].
    fn on_unobserved(&mut self, action: ActionId) -> Result<(), Error> {
        let _ = action;
        Ok(())
    }

    /// Counters describing how much the controller had to compensate
    /// for a misbehaving world; `None` for controllers without a
    /// hardening layer. Harnesses fold these into episode outcomes.
    fn resilience_stats(&self) -> Option<ResilienceStats> {
        None
    }

    /// Whether the controller consumes monitor output. Harnesses skip
    /// monitor invocation (and its metric) when this is `false`.
    fn uses_monitors(&self) -> bool {
        true
    }
}

/// The checks every planning config (bounded, anytime, bootstrap)
/// makes of the parameters they share; `label` names the config in the
/// error detail.
///
/// # Errors
///
/// [`Error::InvalidInput`] for a `beta` outside `(0, 1]` or
/// non-finite, a negative or non-finite `gamma_cutoff`, or a zero
/// `vector_cap`.
pub(crate) fn check_planning_params(
    label: &str,
    beta: f64,
    gamma_cutoff: f64,
    vector_cap: Option<usize>,
) -> Result<(), Error> {
    if !(beta.is_finite() && beta > 0.0 && beta <= 1.0) {
        return Err(Error::InvalidInput {
            detail: format!("{label} beta must be in (0, 1], got {beta}"),
        });
    }
    if !gamma_cutoff.is_finite() || gamma_cutoff < 0.0 {
        return Err(Error::InvalidInput {
            detail: format!(
                "{label} gamma cutoff must be finite and non-negative, got {gamma_cutoff}"
            ),
        });
    }
    if vector_cap == Some(0) {
        return Err(Error::InvalidInput {
            detail: format!("{label} vector cap of 0 would evict every hyperplane"),
        });
    }
    Ok(())
}

/// The belief lifecycle every belief-tracking controller shares (the
/// loop of paper §4, Fig. 1): start from an initial belief, refuse to
/// decide before the start or after termination, fold each observation
/// in with the Bayes update (Eq. 4), and stop. Controllers differ only
/// in how they decide; the bookkeeping lives here once.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lifecycle {
    belief: Option<Belief>,
    terminated: bool,
}

impl Lifecycle {
    /// Starts an episode from `initial`, which must cover `n_states`
    /// states.
    pub(crate) fn start(&mut self, initial: Belief, n_states: usize) -> Result<(), Error> {
        if initial.n_states() != n_states {
            return Err(Error::InvalidInput {
                detail: format!(
                    "initial belief covers {} states, expected {n_states}",
                    initial.n_states()
                ),
            });
        }
        self.belief = Some(initial);
        self.terminated = false;
        Ok(())
    }

    /// Starts an episode on a terminate-transformed model from a base-
    /// or transformed-space belief (see [`TerminatedModel::lift`]).
    pub(crate) fn start_transformed(
        &mut self,
        model: &TerminatedModel,
        initial: Belief,
    ) -> Result<(), Error> {
        self.start(model.lift(initial)?, model.pomdp().n_states())
    }

    /// The belief to decide at.
    ///
    /// # Errors
    ///
    /// [`Error::AlreadyTerminated`] after [`Lifecycle::terminate`],
    /// else [`Error::NotStarted`] before [`Lifecycle::start`].
    pub(crate) fn guard(&self) -> Result<&Belief, Error> {
        if self.terminated {
            return Err(Error::AlreadyTerminated);
        }
        self.belief.as_ref().ok_or(Error::NotStarted)
    }

    /// Folds in the observation `o` that followed `action`, with the
    /// Bayes update on `pomdp`.
    pub(crate) fn observe(
        &mut self,
        pomdp: &Pomdp,
        action: ActionId,
        o: ObservationId,
    ) -> Result<(), Error> {
        let belief = self.belief.as_ref().ok_or(Error::NotStarted)?;
        let (next, _gamma) = belief.update(pomdp, action, o).map_err(Error::Pomdp)?;
        self.belief = Some(next);
        Ok(())
    }

    /// [`Lifecycle::observe`] on a terminate-transformed model, where
    /// `a_T` ends the episode and so has nothing to observe.
    pub(crate) fn observe_transformed(
        &mut self,
        model: &TerminatedModel,
        action: ActionId,
        o: ObservationId,
    ) -> Result<(), Error> {
        if self.belief.is_some() && !model.is_base_action(action) {
            return Err(Error::InvalidInput {
                detail: "cannot observe after the terminate action".into(),
            });
        }
        self.observe(model.pomdp(), action, o)
    }

    /// Replaces the belief, for a controller with its own update rule;
    /// the termination flag is left as it is.
    pub(crate) fn set(&mut self, belief: Belief) {
        self.belief = Some(belief);
    }

    /// Ends the episode; later decisions fail with
    /// [`Error::AlreadyTerminated`].
    pub(crate) fn terminate(&mut self) -> Step {
        self.terminated = true;
        Step::Terminate
    }

    /// The current belief, once started.
    pub(crate) fn belief(&self) -> Option<&Belief> {
        self.belief.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{DiagnoseThenFixController, HeuristicController, MostLikelyController};
    use crate::model::tests::two_server_model;
    use crate::{
        AnytimeConfig, AnytimeController, BoundedConfig, BoundedController, LumpedController,
        NotifiedBoundedController, NotifiedConfig, ResilienceConfig, ResilientController,
    };

    /// Every belief-tracking controller in the crate, on the
    /// two-server model, with the number of actions it executes from
    /// the healthy belief before terminating (the resilient wrapper
    /// confirms with observations first).
    fn contract_table() -> Vec<(Box<dyn RecoveryController>, &'static str, usize)> {
        let model = two_server_model();
        let transformed = model.without_notification(10.0).unwrap();
        let bounded =
            BoundedController::new(transformed.clone(), BoundedConfig::default()).unwrap();
        let (quotient, certificate) = transformed.lump().unwrap();
        vec![
            (Box::new(bounded.clone()), "bounded", 0),
            (
                Box::new(AnytimeController::new(transformed, AnytimeConfig::default()).unwrap()),
                "anytime",
                0,
            ),
            (
                Box::new(
                    NotifiedBoundedController::new(&model, NotifiedConfig::default()).unwrap(),
                ),
                "bounded-notified",
                0,
            ),
            (
                Box::new(MostLikelyController::new(model.clone(), 0.9).unwrap()),
                "most-likely",
                0,
            ),
            (
                Box::new(HeuristicController::new(model.clone(), 1, 0.9).unwrap()),
                "heuristic",
                0,
            ),
            (
                Box::new(DiagnoseThenFixController::new(model.clone(), 0.8, 0.9).unwrap()),
                "diagnose-fix",
                0,
            ),
            (
                Box::new(
                    ResilientController::new(model, bounded, ResilienceConfig::default()).unwrap(),
                ),
                "resilient-bounded",
                4,
            ),
            (
                Box::new(LumpedController::new(
                    BoundedController::new(quotient, BoundedConfig::default()).unwrap(),
                    certificate,
                )),
                "bounded+lump",
                0,
            ),
        ]
    }

    #[test]
    fn every_controller_keeps_the_lifecycle_contract() {
        let null = StateId::new(2);
        let all_clear = ObservationId::new(2);
        for (mut c, name, confirmations) in contract_table() {
            assert_eq!(c.name(), name);
            assert!(matches!(c.decide(), Err(Error::NotStarted)), "{name}");
            assert!(
                matches!(
                    c.observe(ActionId::new(0), ObservationId::new(0)),
                    Err(Error::NotStarted)
                ),
                "{name}"
            );
            assert!(c.belief().is_none(), "{name}");
            assert!(
                matches!(
                    c.begin(Belief::uniform(7), None),
                    Err(Error::InvalidInput { .. })
                ),
                "{name}"
            );
            assert!(matches!(c.decide(), Err(Error::NotStarted)), "{name}");

            c.begin(Belief::point(3, null), None).unwrap();
            assert_eq!(c.belief().unwrap().n_states(), 3, "{name}");
            let mut executed = 0;
            while let Step::Execute(a) = c.decide().unwrap() {
                executed += 1;
                assert!(executed <= confirmations, "{name} did not terminate");
                c.observe(a, all_clear).unwrap();
            }
            assert_eq!(executed, confirmations, "{name}");
            assert!(
                matches!(c.decide(), Err(Error::AlreadyTerminated)),
                "{name}"
            );
            assert_eq!(c.belief().unwrap().n_states(), 3, "{name}");

            // A new episode clears the termination.
            c.begin(Belief::uniform(3), None).unwrap();
            assert!(c.decide().is_ok(), "{name}");
        }
    }

    #[test]
    fn step_is_copy_and_comparable() {
        let a = Step::Execute(ActionId::new(1));
        let b = a;
        assert_eq!(a, b);
        assert_ne!(a, Step::Terminate);
    }
}
