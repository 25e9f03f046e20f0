//! The baseline controllers of the paper's evaluation (§5): the
//! *most-likely* diagnoser, the *heuristic* finite-depth controller from
//! the authors' earlier SRDS'05 work, and the unattainable *Oracle*.
//!
//! Unlike the [`crate::BoundedController`], the most-likely and
//! heuristic controllers cannot reason about the cost of stopping; they
//! terminate when the belief mass on the null-fault states exceeds an
//! externally supplied *termination probability* (0.9999 in the paper's
//! experiments).

use crate::controller::Lifecycle;
use crate::{Error, RecoveryController, RecoveryModel, Step};
use bpr_mdp::{ActionId, StateId};
use bpr_pomdp::bounds::ValueBound;
use bpr_pomdp::{tree, Belief, ObservationId};

fn validated_p_term(p_term: f64) -> Result<f64, Error> {
    if !(0.0..=1.0).contains(&p_term) || !p_term.is_finite() {
        return Err(Error::InvalidInput {
            detail: format!("termination probability must be in [0, 1], got {p_term}"),
        });
    }
    Ok(p_term)
}

/// The "most likely" baseline: Bayes diagnosis plus the cheapest
/// recovery action for the most likely fault.
#[derive(Debug, Clone)]
pub struct MostLikelyController {
    model: RecoveryModel,
    p_term: f64,
    life: Lifecycle,
}

impl MostLikelyController {
    /// Creates the controller with the given termination probability.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for a termination probability outside
    /// `[0, 1]`.
    pub fn new(model: RecoveryModel, p_term: f64) -> Result<MostLikelyController, Error> {
        Ok(MostLikelyController {
            model,
            p_term: validated_p_term(p_term)?,
            life: Lifecycle::default(),
        })
    }

    /// The most likely *fault* state under the current belief, or
    /// `None` for a (degenerate) model without fault states.
    fn most_likely_fault(&self, belief: &Belief) -> Option<StateId> {
        let mut best: Option<(StateId, f64)> = None;
        for s in self.model.fault_states() {
            let p = belief.prob(s);
            match best {
                Some((_, bp)) if bp >= p => {}
                _ => best = Some((s, p)),
            }
        }
        best.map(|(s, _)| s)
    }
}

impl RecoveryController for MostLikelyController {
    fn name(&self) -> &str {
        "most-likely"
    }

    fn begin(&mut self, initial: Belief, _true_fault: Option<StateId>) -> Result<(), Error> {
        self.life.start(initial, self.model.base().n_states())
    }

    fn decide(&mut self) -> Result<Step, Error> {
        let belief = self.life.guard()?;
        if belief.prob_in(self.model.null_states()) >= self.p_term {
            return Ok(self.life.terminate());
        }
        let fault = self.most_likely_fault(belief).ok_or(Error::InvalidInput {
            detail: "recovery model has no fault states".into(),
        })?;
        let action = self
            .model
            .cheapest_recovery_action(fault)
            .or_else(|| self.model.observe_actions().first().copied())
            .unwrap_or(ActionId::new(0));
        Ok(Step::Execute(action))
    }

    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
        self.life.observe(self.model.base(), action, o)
    }

    fn belief(&self) -> Option<Belief> {
        self.life.belief().cloned()
    }
}

/// The heuristic leaf value of the authors' earlier SRDS'05 controller (restated in §5): the probability the
/// system has not recovered times the most expensive single-step cost.
#[derive(Debug, Clone)]
pub struct HeuristicLeaf {
    null_states: Vec<StateId>,
    worst_reward: f64,
}

impl HeuristicLeaf {
    /// Builds the leaf heuristic for a recovery model.
    pub fn new(model: &RecoveryModel) -> HeuristicLeaf {
        HeuristicLeaf {
            null_states: model.null_states().to_vec(),
            worst_reward: model.base().mdp().worst_reward(),
        }
    }
}

impl ValueBound for HeuristicLeaf {
    fn value(&self, belief: &Belief) -> f64 {
        (1.0 - belief.prob_in(&self.null_states)) * self.worst_reward
    }
}

/// The heuristic baseline of the SRDS'05 predecessor paper: finite-depth Max-Avg expansion with
/// [`HeuristicLeaf`] at the leaves and a termination probability instead
/// of a terminate action.
#[derive(Debug, Clone)]
pub struct HeuristicController {
    model: RecoveryModel,
    leaf: HeuristicLeaf,
    depth: usize,
    p_term: f64,
    gamma_cutoff: f64,
    life: Lifecycle,
    nodes_expanded: usize,
}

impl HeuristicController {
    /// Creates the controller with the given tree depth and termination
    /// probability.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for a zero depth or a termination
    /// probability outside `[0, 1]`.
    pub fn new(
        model: RecoveryModel,
        depth: usize,
        p_term: f64,
    ) -> Result<HeuristicController, Error> {
        if depth == 0 {
            return Err(Error::InvalidInput {
                detail: "tree depth must be at least 1".into(),
            });
        }
        let leaf = HeuristicLeaf::new(&model);
        Ok(HeuristicController {
            model,
            leaf,
            depth,
            p_term: validated_p_term(p_term)?,
            gamma_cutoff: 1e-6,
            life: Lifecycle::default(),
            nodes_expanded: 0,
        })
    }

    /// Sets the observation-probability cutoff for tree expansion
    /// (branches at or below it are pruned). Returns `self` for
    /// chaining.
    pub fn with_gamma_cutoff(mut self, gamma_cutoff: f64) -> HeuristicController {
        self.gamma_cutoff = gamma_cutoff;
        self
    }

    /// Total belief nodes expanded so far.
    pub fn nodes_expanded(&self) -> usize {
        self.nodes_expanded
    }

    /// The controller's tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl RecoveryController for HeuristicController {
    fn name(&self) -> &str {
        "heuristic"
    }

    fn begin(&mut self, initial: Belief, _true_fault: Option<StateId>) -> Result<(), Error> {
        self.life.start(initial, self.model.base().n_states())
    }

    fn decide(&mut self) -> Result<Step, Error> {
        let belief = self.life.guard()?;
        if belief.prob_in(self.model.null_states()) >= self.p_term {
            return Ok(self.life.terminate());
        }
        let decision = tree::expand_with_cutoff(
            self.model.base(),
            belief,
            self.depth,
            &self.leaf,
            1.0,
            self.gamma_cutoff,
        )
        .map_err(Error::Pomdp)?;
        self.nodes_expanded += decision.nodes_expanded;
        Ok(Step::Execute(decision.action))
    }

    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
        self.life.observe(self.model.base(), action, o)
    }

    fn belief(&self) -> Option<Belief> {
        self.life.belief().cloned()
    }
}

/// A diagnose-then-fix baseline (an extension beyond the paper's
/// Table 1): passively observes until the most likely fault is
/// credible enough, then applies its cheapest recovery action; repeats
/// until the belief mass on `S_φ` crosses the termination probability.
///
/// Sits between [`MostLikelyController`] (which never observes
/// passively) and the tree-based controllers (which weigh observing
/// against acting decision-theoretically).
#[derive(Debug, Clone)]
pub struct DiagnoseThenFixController {
    model: RecoveryModel,
    p_term: f64,
    diagnosis_threshold: f64,
    life: Lifecycle,
}

impl DiagnoseThenFixController {
    /// Creates the controller.
    ///
    /// `diagnosis_threshold` is the posterior probability the leading
    /// fault hypothesis must reach before the controller stops
    /// observing and acts.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for probabilities outside `[0, 1]`.
    pub fn new(
        model: RecoveryModel,
        diagnosis_threshold: f64,
        p_term: f64,
    ) -> Result<DiagnoseThenFixController, Error> {
        if !(0.0..=1.0).contains(&diagnosis_threshold) || !diagnosis_threshold.is_finite() {
            return Err(Error::InvalidInput {
                detail: format!("diagnosis threshold must be in [0, 1], got {diagnosis_threshold}"),
            });
        }
        Ok(DiagnoseThenFixController {
            model,
            p_term: validated_p_term(p_term)?,
            diagnosis_threshold,
            life: Lifecycle::default(),
        })
    }
}

impl RecoveryController for DiagnoseThenFixController {
    fn name(&self) -> &str {
        "diagnose-fix"
    }

    fn begin(&mut self, initial: Belief, _true_fault: Option<StateId>) -> Result<(), Error> {
        self.life.start(initial, self.model.base().n_states())
    }

    fn decide(&mut self) -> Result<Step, Error> {
        let belief = self.life.guard()?;
        if belief.prob_in(self.model.null_states()) >= self.p_term {
            return Ok(self.life.terminate());
        }
        // Leading fault hypothesis, renormalised over the fault states.
        let fault_mass: f64 = self
            .model
            .fault_states()
            .iter()
            .map(|s| belief.prob(*s))
            .sum();
        let (leader, leader_p) = self
            .model
            .fault_states()
            .into_iter()
            .map(|s| (s, belief.prob(s)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or(Error::InvalidInput {
                detail: "recovery model has no fault states".into(),
            })?;
        let confident = fault_mass > 0.0 && leader_p / fault_mass >= self.diagnosis_threshold;
        if !confident {
            if let Some(observe) = self.model.observe_actions().first() {
                return Ok(Step::Execute(*observe));
            }
        }
        let action = self
            .model
            .cheapest_recovery_action(leader)
            .or_else(|| self.model.observe_actions().first().copied())
            .unwrap_or(ActionId::new(0));
        Ok(Step::Execute(action))
    }

    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
        self.life.observe(self.model.base(), action, o)
    }

    fn belief(&self) -> Option<Belief> {
        self.life.belief().cloned()
    }
}

/// The hypothetical Oracle (§5): knows the injected fault and recovers
/// with the single matching action. Represents the unattainable ideal;
/// never consults monitors.
#[derive(Debug, Clone)]
pub struct OracleController {
    model: RecoveryModel,
    fault: Option<StateId>,
    acted: bool,
    terminated: bool,
}

impl OracleController {
    /// Creates the oracle for a recovery model.
    pub fn new(model: RecoveryModel) -> OracleController {
        OracleController {
            model,
            fault: None,
            acted: false,
            terminated: false,
        }
    }
}

impl RecoveryController for OracleController {
    fn name(&self) -> &str {
        "oracle"
    }

    fn begin(&mut self, _initial: Belief, true_fault: Option<StateId>) -> Result<(), Error> {
        let fault = true_fault.ok_or_else(|| Error::InvalidInput {
            detail: "oracle controller requires the true fault".into(),
        })?;
        if fault.index() >= self.model.base().n_states() {
            return Err(Error::InvalidInput {
                detail: format!("true fault {fault} is out of bounds"),
            });
        }
        self.fault = Some(fault);
        self.acted = false;
        self.terminated = false;
        Ok(())
    }

    fn decide(&mut self) -> Result<Step, Error> {
        if self.terminated {
            return Err(Error::AlreadyTerminated);
        }
        let fault = self.fault.ok_or(Error::NotStarted)?;
        if self.acted || self.model.is_null(fault) {
            self.terminated = true;
            return Ok(Step::Terminate);
        }
        self.acted = true;
        let action =
            self.model
                .cheapest_recovery_action(fault)
                .ok_or_else(|| Error::InvalidInput {
                    detail: format!("no recovery action exists for fault {fault}"),
                })?;
        Ok(Step::Execute(action))
    }

    fn observe(&mut self, _action: ActionId, _o: ObservationId) -> Result<(), Error> {
        Ok(()) // The oracle does not listen.
    }

    fn belief(&self) -> Option<Belief> {
        None
    }

    fn uses_monitors(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::two_server_model;

    #[test]
    fn most_likely_picks_matching_restart() {
        let mut c = MostLikelyController::new(two_server_model(), 0.99).unwrap();
        c.begin(Belief::from_probs(vec![0.7, 0.25, 0.05]).unwrap(), None)
            .unwrap();
        assert_eq!(c.decide().unwrap(), Step::Execute(ActionId::new(0)));
        // After observing "b appears failed" strongly, diagnosis flips.
        c.observe(ActionId::new(0), ObservationId::new(1)).unwrap();
        c.observe(ActionId::new(0), ObservationId::new(1)).unwrap();
        assert_eq!(c.decide().unwrap(), Step::Execute(ActionId::new(1)));
    }

    #[test]
    fn most_likely_terminates_at_threshold() {
        let mut c = MostLikelyController::new(two_server_model(), 0.9).unwrap();
        c.begin(Belief::from_probs(vec![0.02, 0.03, 0.95]).unwrap(), None)
            .unwrap();
        assert_eq!(c.decide().unwrap(), Step::Terminate);
        assert!(matches!(c.decide(), Err(Error::AlreadyTerminated)));
    }

    #[test]
    fn invalid_p_term_is_rejected() {
        assert!(MostLikelyController::new(two_server_model(), 1.5).is_err());
        assert!(MostLikelyController::new(two_server_model(), -0.1).is_err());
        assert!(HeuristicController::new(two_server_model(), 1, f64::NAN).is_err());
    }

    #[test]
    fn heuristic_leaf_scales_with_unrecovered_mass() {
        let model = two_server_model();
        let leaf = HeuristicLeaf::new(&model);
        // worst reward is -1.
        assert_eq!(leaf.value(&Belief::point(3, StateId::new(2))), 0.0);
        assert_eq!(leaf.value(&Belief::point(3, StateId::new(0))), -1.0);
        let half = Belief::from_probs(vec![0.25, 0.25, 0.5]).unwrap();
        assert_eq!(leaf.value(&half), -0.5);
    }

    #[test]
    fn heuristic_controller_recovers_certain_fault() {
        let mut c = HeuristicController::new(two_server_model(), 1, 0.9999).unwrap();
        c.begin(Belief::point(3, StateId::new(1)), None).unwrap();
        assert_eq!(c.decide().unwrap(), Step::Execute(ActionId::new(1)));
        assert!(c.nodes_expanded() > 0);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn heuristic_zero_depth_is_rejected() {
        assert!(HeuristicController::new(two_server_model(), 0, 0.99).is_err());
    }

    #[test]
    fn diagnose_then_fix_observes_when_unsure_then_acts() {
        let mut c = DiagnoseThenFixController::new(two_server_model(), 0.8, 0.9999).unwrap();
        // 50/50 between the two faults: must observe first.
        c.begin(Belief::from_probs(vec![0.45, 0.45, 0.1]).unwrap(), None)
            .unwrap();
        assert_eq!(c.decide().unwrap(), Step::Execute(ActionId::new(2)));
        // Strong evidence for Fault(b): now it acts.
        c.observe(ActionId::new(2), ObservationId::new(1)).unwrap();
        c.observe(ActionId::new(2), ObservationId::new(1)).unwrap();
        assert_eq!(c.decide().unwrap(), Step::Execute(ActionId::new(1)));
    }

    #[test]
    fn diagnose_then_fix_terminates_and_validates() {
        assert!(DiagnoseThenFixController::new(two_server_model(), 1.2, 0.9).is_err());
        assert!(DiagnoseThenFixController::new(two_server_model(), 0.8, 1.2).is_err());
        let mut c = DiagnoseThenFixController::new(two_server_model(), 0.8, 0.9).unwrap();
        c.begin(Belief::from_probs(vec![0.01, 0.01, 0.98]).unwrap(), None)
            .unwrap();
        assert_eq!(c.decide().unwrap(), Step::Terminate);
        assert_eq!(c.name(), "diagnose-fix");
    }

    #[test]
    fn oracle_fixes_and_stops() {
        let mut c = OracleController::new(two_server_model());
        c.begin(Belief::uniform(3), Some(StateId::new(1))).unwrap();
        assert_eq!(c.decide().unwrap(), Step::Execute(ActionId::new(1)));
        assert_eq!(c.decide().unwrap(), Step::Terminate);
        assert!(!c.uses_monitors());
        assert!(c.belief().is_none());
    }

    #[test]
    fn oracle_requires_ground_truth() {
        let mut c = OracleController::new(two_server_model());
        assert!(c.begin(Belief::uniform(3), None).is_err());
        assert!(matches!(c.decide(), Err(Error::NotStarted)));
    }

    #[test]
    fn oracle_with_null_fault_terminates_immediately() {
        let mut c = OracleController::new(two_server_model());
        c.begin(Belief::uniform(3), Some(StateId::new(2))).unwrap();
        assert_eq!(c.decide().unwrap(), Step::Terminate);
    }

    #[test]
    fn controllers_report_names() {
        assert_eq!(
            MostLikelyController::new(two_server_model(), 0.5)
                .unwrap()
                .name(),
            "most-likely"
        );
        assert_eq!(
            HeuristicController::new(two_server_model(), 2, 0.5)
                .unwrap()
                .name(),
            "heuristic"
        );
        assert_eq!(OracleController::new(two_server_model()).name(), "oracle");
    }
}
