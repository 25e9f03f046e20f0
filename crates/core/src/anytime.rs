//! Deadline-aware (anytime) Max-Avg planning.
//!
//! Point-based POMDP methods are explicitly anytime algorithms: cutting
//! refinement short still leaves a sound lower bound, so a decision
//! built on the partial result is safe, just less informed. This module
//! applies that property to the online controller: the Max-Avg tree is
//! expanded by **iterative deepening under a per-decision node budget**,
//! and whatever depth completed last is the decision. When even depth 1
//! is unaffordable the planner degrades to the depth-0 *bound-greedy*
//! choice — `argmax_a [ r(π, a) + β · V_B(pred(π, a)) ]` — which costs
//! one bound evaluation per action and is always affordable.
//!
//! [`AnytimeController`] packages the budgeted planner behind the
//! [`RecoveryController`] interface so [`crate::ResilientController`]
//! can use it as a dedicated escalation rung: when full-depth planning
//! fails or stalls, decisions keep flowing at bounded cost instead of
//! jumping straight to the belief-argmax heuristic.

use crate::controller::Lifecycle;
use crate::{Error, RecoveryController, Step, TerminatedModel};
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::{ActionId, StateId};
use bpr_pomdp::bounds::{ra_bound, ValueBound, VectorSetBound};
use bpr_pomdp::{tree, Belief, ObservationId, PlanWorkspace, Pomdp};

/// Configuration of an [`AnytimeController`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeConfig {
    /// Per-decision cap on belief nodes evaluated across all deepening
    /// passes. The depth-0 greedy fallback is not counted (it touches
    /// no tree nodes) so a decision is always produced.
    pub node_budget: usize,
    /// Deepest expansion attempted when the budget allows.
    pub max_depth: usize,
    /// Discount factor (the recovery criterion is undiscounted: 1.0).
    pub beta: f64,
    /// Observation branches with probability at or below this are
    /// pruned during tree expansion.
    pub gamma_cutoff: f64,
    /// Prefer terminating when `a_T` ties with the best action.
    pub prefer_terminate_on_tie: bool,
    /// Refine the bound with an incremental backup at each belief the
    /// controller visits.
    pub backup_online: bool,
    /// Optional cap on the number of bound hyperplanes.
    pub vector_cap: Option<usize>,
}

impl Default for AnytimeConfig {
    fn default() -> AnytimeConfig {
        AnytimeConfig {
            node_budget: 2000,
            max_depth: 3,
            beta: 1.0,
            gamma_cutoff: 1e-6,
            prefer_terminate_on_tie: true,
            backup_online: false,
            vector_cap: None,
        }
    }
}

impl AnytimeConfig {
    /// Checks the numeric invariants.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for a zero budget or depth, a `beta`
    /// outside `(0, 1]`, a negative or non-finite `gamma_cutoff`, or a
    /// zero `vector_cap`.
    pub fn validate(&self) -> Result<(), Error> {
        if self.node_budget == 0 {
            return Err(Error::InvalidInput {
                detail: "anytime node budget must be at least 1".into(),
            });
        }
        if self.max_depth == 0 {
            return Err(Error::InvalidInput {
                detail: "anytime max depth must be at least 1".into(),
            });
        }
        if !(self.beta.is_finite() && self.beta > 0.0 && self.beta <= 1.0) {
            return Err(Error::InvalidInput {
                detail: format!("anytime beta must be in (0, 1], got {}", self.beta),
            });
        }
        if !self.gamma_cutoff.is_finite() || self.gamma_cutoff < 0.0 {
            return Err(Error::InvalidInput {
                detail: format!(
                    "anytime gamma cutoff must be finite and non-negative, got {}",
                    self.gamma_cutoff
                ),
            });
        }
        if self.vector_cap == Some(0) {
            return Err(Error::InvalidInput {
                detail: "anytime vector cap of 0 would evict every hyperplane".into(),
            });
        }
        Ok(())
    }
}

/// The decision produced by a budgeted expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeDecision {
    /// The maximising action at the deepest completed pass.
    pub action: ActionId,
    /// Root value of that pass.
    pub value: f64,
    /// Per-action root values of that pass.
    pub q_values: Vec<f64>,
    /// The deepest fully completed expansion depth; `0` means only the
    /// bound-greedy fallback fit in the budget.
    pub completed_depth: usize,
    /// Belief nodes evaluated across all passes, including the aborted
    /// one (whose probe node can push this to `node_budget + 1`).
    pub nodes_expanded: usize,
    /// Whether a deepening pass was cut short by the budget.
    pub budget_exhausted: bool,
}

/// Last-maximiser argmax of the depth-0 greedy fallback. Ties go to
/// the last maximal index (`-0.0` and `0.0` tie), the same rule the
/// tree's root argmax applies to a completed pass, so both rungs of the
/// planner break ties alike.
fn argmax_last(q_values: &[f64]) -> (ActionId, f64) {
    let mut best = 0usize;
    for (i, q) in q_values.iter().enumerate().skip(1) {
        if *q >= q_values[best] {
            best = i;
        }
    }
    (ActionId::new(best), q_values[best])
}

/// Iterative-deepening Max-Avg expansion under a node budget, against
/// a reusable [`PlanWorkspace`].
///
/// Depths `1..=max_depth` are attempted in order, each against the
/// budget *remaining* after the previous passes; the decision of the
/// deepest pass that ran to completion is returned, and a pass cut
/// short mid-expansion is discarded (its partial q-values would mix
/// depths). When no pass completes, the decision is the depth-0
/// bound-greedy choice. With a budget large enough for `max_depth` the
/// result — action, value, q-values, and per-pass node count — is
/// bit-identical to [`bpr_pomdp::tree::expand_with_cutoff`] at
/// `max_depth`.
///
/// The deepening passes run on the fused planning kernel
/// ([`bpr_pomdp::tree::expand_budgeted`]) with all tree scratch drawn
/// from the workspace, so a controller holding its workspace across
/// decisions pays no per-node allocations. The transposition cache is
/// not used (budgeted passes must abort at literal expansion order),
/// and the returned decision is identical to the pre-fusion
/// implementation: same values, same abort points, same node counts.
///
/// # Errors
///
/// * [`Error::InvalidInput`] if `max_depth == 0`.
/// * Propagates belief-arithmetic failures from the greedy fallback.
#[allow(clippy::too_many_arguments)]
pub fn anytime_expand_with_workspace(
    pomdp: &Pomdp,
    belief: &Belief,
    leaf: &dyn ValueBound,
    max_depth: usize,
    node_budget: usize,
    beta: f64,
    gamma_cutoff: f64,
    ws: &mut PlanWorkspace,
) -> Result<AnytimeDecision, Error> {
    if max_depth == 0 {
        return Err(Error::InvalidInput {
            detail: "anytime expansion depth must be at least 1".into(),
        });
    }
    // Depth-0 bound-greedy fallback: reward plus the bound at the
    // *predicted* (pre-observation) belief. One bound evaluation per
    // action, no tree nodes — the floor the planner can always afford.
    // Inlines `Belief::from_probs(belief.predict(..))` against workspace
    // scratch: same validation, same renormalisation, no temporaries.
    let mut greedy = Vec::with_capacity(pomdp.n_actions());
    let mut pred = ws.checkout(pomdp.n_states());
    let mut invalid: Option<&'static str> = None;
    for a in 0..pomdp.n_actions() {
        let action = ActionId::new(a);
        pomdp
            .mdp()
            .transition_matrix(action)
            .matvec_transpose_into(belief.probs(), &mut pred)
            .expect("belief length matches model");
        if pred.iter().any(|p| !p.is_finite() || *p < 0.0) {
            invalid = Some("entries must be finite and non-negative");
            break;
        }
        let sum: f64 = pred.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            invalid = Some("entries must sum to 1");
            break;
        }
        if sum != 0.0 && sum.is_finite() {
            for v in pred.iter_mut() {
                *v /= sum;
            }
        }
        greedy.push(belief.expected_reward(pomdp, action) + beta * leaf.value_weights(&pred));
    }
    ws.release(pred);
    if let Some(reason) = invalid {
        return Err(Error::Pomdp(bpr_pomdp::Error::InvalidBelief { reason }));
    }
    let (action, value) = argmax_last(&greedy);
    let mut decision = AnytimeDecision {
        action,
        value,
        q_values: greedy,
        completed_depth: 0,
        nodes_expanded: 0,
        budget_exhausted: false,
    };

    for depth in 1..=max_depth {
        let remaining = node_budget.saturating_sub(decision.nodes_expanded);
        if remaining == 0 {
            decision.budget_exhausted = true;
            break;
        }
        let pass = tree::expand_budgeted(
            pomdp,
            belief,
            depth,
            leaf,
            beta,
            gamma_cutoff,
            remaining,
            ws,
        )
        .map_err(Error::Pomdp)?;
        decision.nodes_expanded += pass.nodes_spent;
        if pass.completed {
            let pass_decision = ws.decision();
            decision.action = pass_decision.action;
            decision.value = pass_decision.value;
            decision.q_values.clear();
            decision.q_values.extend_from_slice(&pass_decision.q_values);
            decision.completed_depth = depth;
        } else {
            decision.budget_exhausted = true;
            break;
        }
    }
    Ok(decision)
}

/// Cumulative statistics of an [`AnytimeController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnytimeStats {
    /// Number of `decide()` calls served.
    pub decisions: usize,
    /// Belief nodes evaluated across all decisions.
    pub nodes_expanded: usize,
    /// Decisions in which a deepening pass was cut short by the budget.
    pub budget_exhaustions: usize,
    /// Deepest expansion any decision completed.
    pub deepest_completed: usize,
    /// Incremental backups performed (online refinement).
    pub backups: usize,
}

/// A deadline-aware recovery controller:
/// [`anytime_expand_with_workspace`] behind the [`RecoveryController`]
/// interface.
///
/// Semantically a [`crate::BoundedController`] whose per-decision cost
/// is hard-capped: same model transform, same termination rule, same
/// lower-bound leaves — but planning depth adapts to the budget instead
/// of being fixed, and the depth-0 bound-greedy choice is the worst
/// case rather than an error.
#[derive(Debug, Clone)]
pub struct AnytimeController {
    model: TerminatedModel,
    bound: VectorSetBound,
    config: AnytimeConfig,
    life: Lifecycle,
    stats: AnytimeStats,
    workspace: PlanWorkspace,
}

impl AnytimeController {
    /// Creates a controller, computing the RA-Bound of the transformed
    /// model as the initial leaf bound.
    ///
    /// # Errors
    ///
    /// Propagates RA-Bound failures, plus everything
    /// [`AnytimeController::with_bound`] rejects.
    pub fn new(model: TerminatedModel, config: AnytimeConfig) -> Result<AnytimeController, Error> {
        let bound = ra_bound(model.pomdp(), &SolveOpts::default()).map_err(Error::Pomdp)?;
        AnytimeController::with_bound(model, bound, config)
    }

    /// Creates a controller around an existing (e.g. bootstrapped)
    /// bound set.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] if the bound dimension mismatches the
    /// model or the config is invalid.
    pub fn with_bound(
        model: TerminatedModel,
        bound: VectorSetBound,
        config: AnytimeConfig,
    ) -> Result<AnytimeController, Error> {
        config.validate()?;
        // No startup vertex sweeps, unlike the bounded controller: this
        // controller's contract is bounded per-call cost from the start.
        Ok(AnytimeController {
            bound: model.seed_termination_plane(bound)?,
            model,
            config,
            life: Lifecycle::default(),
            stats: AnytimeStats::default(),
            workspace: PlanWorkspace::new(),
        })
    }

    /// The transformed model the controller runs on.
    pub fn model(&self) -> &TerminatedModel {
        &self.model
    }

    /// The current bound set.
    pub fn bound(&self) -> &VectorSetBound {
        &self.bound
    }

    /// Mutable access to the bound set (for external bootstrapping).
    pub fn bound_mut(&mut self) -> &mut VectorSetBound {
        &mut self.bound
    }

    /// Controller statistics accumulated so far.
    pub fn stats(&self) -> AnytimeStats {
        self.stats
    }

    /// The belief over the *transformed* state space (including `s_T`).
    pub fn transformed_belief(&self) -> Option<&Belief> {
        self.life.belief()
    }
}

impl RecoveryController for AnytimeController {
    fn name(&self) -> &str {
        "anytime"
    }

    fn begin(&mut self, initial: Belief, _true_fault: Option<StateId>) -> Result<(), Error> {
        self.life.start_transformed(&self.model, initial)
    }

    fn decide(&mut self) -> Result<Step, Error> {
        let belief = self.life.guard()?;
        if self.config.backup_online {
            self.model.back_up(
                &mut self.bound,
                belief,
                self.config.beta,
                self.config.vector_cap,
            )?;
            self.stats.backups += 1;
        }
        let d = anytime_expand_with_workspace(
            self.model.pomdp(),
            belief,
            &self.bound,
            self.config.max_depth,
            self.config.node_budget,
            self.config.beta,
            self.config.gamma_cutoff,
            &mut self.workspace,
        )?;
        self.stats.decisions += 1;
        self.stats.nodes_expanded += d.nodes_expanded;
        self.stats.budget_exhaustions += usize::from(d.budget_exhausted);
        self.stats.deepest_completed = self.stats.deepest_completed.max(d.completed_depth);
        let tie = self.config.prefer_terminate_on_tie;
        if self.model.terminates(d.action, d.value, &d.q_values, tie) {
            return Ok(self.life.terminate());
        }
        Ok(Step::Execute(d.action))
    }

    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
        self.life.observe_transformed(&self.model, action, o)
    }

    fn belief(&self) -> Option<Belief> {
        self.model.project(self.life.belief()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::two_server_model;
    use bpr_pomdp::tree;

    fn anytime_expand(
        pomdp: &Pomdp,
        belief: &Belief,
        leaf: &dyn ValueBound,
        max_depth: usize,
        node_budget: usize,
    ) -> Result<AnytimeDecision, Error> {
        let mut ws = PlanWorkspace::new();
        anytime_expand_with_workspace(
            pomdp,
            belief,
            leaf,
            max_depth,
            node_budget,
            1.0,
            0.0,
            &mut ws,
        )
    }

    fn setup() -> (TerminatedModel, VectorSetBound) {
        let model = two_server_model().without_notification(10.0).unwrap();
        let bound = ra_bound(model.pomdp(), &SolveOpts::default()).unwrap();
        (model, bound)
    }

    #[test]
    fn generous_budget_reproduces_the_unbudgeted_expansion() {
        let (model, bound) = setup();
        let pomdp = model.pomdp();
        for probs in [
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.5, 0.5, 0.0, 0.0],
            vec![0.3, 0.3, 0.4, 0.0],
            vec![0.05, 0.9, 0.05, 0.0],
        ] {
            let b = Belief::from_probs(probs).unwrap();
            for depth in 1..=3 {
                let plain = tree::expand_with_cutoff(pomdp, &b, depth, &bound, 1.0, 0.0).unwrap();
                let any = anytime_expand(pomdp, &b, &bound, depth, usize::MAX).unwrap();
                assert_eq!(any.action, plain.action, "depth {depth}");
                assert_eq!(any.value, plain.value, "depth {depth}");
                assert_eq!(any.q_values, plain.q_values, "depth {depth}");
                assert_eq!(any.completed_depth, depth);
                assert!(!any.budget_exhausted);
                // The final pass must cost exactly what the unbudgeted
                // expansion reports; earlier passes add their own nodes.
                assert!(any.nodes_expanded >= plain.nodes_expanded, "depth {depth}");
                let shallower: usize = (1..depth)
                    .map(|d| {
                        tree::expand_with_cutoff(pomdp, &b, d, &bound, 1.0, 0.0)
                            .unwrap()
                            .nodes_expanded
                    })
                    .sum();
                assert_eq!(any.nodes_expanded, plain.nodes_expanded + shallower);
            }
        }
    }

    #[test]
    fn zero_remaining_budget_degrades_to_the_greedy_choice() {
        let (model, bound) = setup();
        let pomdp = model.pomdp();
        let b = Belief::uniform(4);
        let d = anytime_expand(pomdp, &b, &bound, 3, 1).unwrap();
        assert_eq!(d.completed_depth, 0);
        assert!(d.budget_exhausted);
        assert_eq!(d.q_values.len(), pomdp.n_actions());
        assert!(d.q_values.iter().all(|q| q.is_finite()));
        // The greedy choice is the argmax of its own q-values.
        let max = d.q_values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(d.value, max);
    }

    #[test]
    fn partial_passes_keep_the_best_completed_depth() {
        let (model, bound) = setup();
        let pomdp = model.pomdp();
        let b = Belief::uniform(4);
        let d1 = tree::expand_with_cutoff(pomdp, &b, 1, &bound, 1.0, 0.0).unwrap();
        // Enough for depth 1 but (with the depth-1 spend subtracted)
        // not for depth 2.
        let budget = d1.nodes_expanded + 1;
        let d = anytime_expand(pomdp, &b, &bound, 3, budget).unwrap();
        assert_eq!(d.completed_depth, 1);
        assert!(d.budget_exhausted);
        assert_eq!(d.action, d1.action);
        assert_eq!(d.value, d1.value);
        assert_eq!(d.q_values, d1.q_values);
        // The aborted pass's probe node may overshoot by exactly one.
        assert!(d.nodes_expanded <= budget + 1);
    }

    #[test]
    fn greedy_and_tree_argmax_share_the_last_maximal_tie_rule() {
        // The depth-0 fallback's rule.
        assert_eq!(argmax_last(&[1.0, 3.0, 3.0]).0, ActionId::new(2));
        let (a, v) = argmax_last(&[-0.0, 0.0]);
        assert_eq!(a, ActionId::new(1));
        assert_eq!(v.to_bits(), 0.0f64.to_bits());
        // A completed pass applies the same rule at the tree root: in
        // the absorbing terminate state every action is free.
        let (model, bound) = setup();
        let done = Belief::point(4, model.terminate_state());
        for max_depth in 1..=2 {
            let d = anytime_expand(model.pomdp(), &done, &bound, max_depth, usize::MAX).unwrap();
            assert_eq!(d.completed_depth, max_depth);
            let maximal: Vec<usize> = (0..d.q_values.len())
                .filter(|&i| d.q_values[i] == d.value)
                .collect();
            assert!(maximal.len() > 1, "no tie to break: {:?}", d.q_values);
            assert_eq!(d.action.index(), *maximal.last().unwrap());
            assert_eq!(argmax_last(&d.q_values), (d.action, d.value));
        }
    }

    #[test]
    fn zero_depth_is_rejected() {
        let (model, bound) = setup();
        assert!(anytime_expand(model.pomdp(), &Belief::uniform(4), &bound, 0, 100).is_err());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = AnytimeConfig::default();
        assert!(ok.validate().is_ok());
        for bad in [
            AnytimeConfig {
                node_budget: 0,
                ..ok.clone()
            },
            AnytimeConfig {
                max_depth: 0,
                ..ok.clone()
            },
            AnytimeConfig {
                beta: 0.0,
                ..ok.clone()
            },
            AnytimeConfig {
                beta: f64::NAN,
                ..ok.clone()
            },
            AnytimeConfig {
                gamma_cutoff: -1.0,
                ..ok.clone()
            },
            AnytimeConfig {
                vector_cap: Some(0),
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn controller_lifecycle_matches_the_bounded_contract() {
        let (model, _) = setup();
        let mut c = AnytimeController::new(model, AnytimeConfig::default()).unwrap();
        assert_eq!(c.name(), "anytime");
        assert!(matches!(c.decide(), Err(Error::NotStarted)));
        c.begin(Belief::point(3, StateId::new(2)), None).unwrap();
        // Null belief: terminating is free.
        assert_eq!(c.decide().unwrap(), Step::Terminate);
        assert!(matches!(c.decide(), Err(Error::AlreadyTerminated)));
        assert_eq!(c.stats().decisions, 1);
    }

    #[test]
    fn controller_recovers_a_certain_fault() {
        let (model, _) = setup();
        let mut c = AnytimeController::new(model, AnytimeConfig::default()).unwrap();
        c.begin(Belief::point(3, StateId::new(1)), None).unwrap();
        let mut world = 1usize;
        for _ in 0..50 {
            match c.decide().unwrap() {
                Step::Terminate => break,
                Step::Execute(a) => {
                    if a.index() == 1 && world == 1 {
                        world = 2;
                    }
                    if a.index() == 0 && world == 0 {
                        world = 2;
                    }
                    let o = match world {
                        0 => 0,
                        1 => 1,
                        _ => 2,
                    };
                    c.observe(a, ObservationId::new(o)).unwrap();
                }
            }
        }
        assert_eq!(world, 2, "anytime controller quit before recovering");
        assert!(c.stats().deepest_completed >= 1);
        assert_eq!(c.stats().budget_exhaustions, 0);
    }

    #[test]
    fn starved_controller_still_recovers_via_the_greedy_floor() {
        let (model, _) = setup();
        let mut c = AnytimeController::new(
            model,
            AnytimeConfig {
                node_budget: 1,
                ..AnytimeConfig::default()
            },
        )
        .unwrap();
        c.begin(Belief::point(3, StateId::new(0)), None).unwrap();
        let mut world = 0usize;
        for _ in 0..50 {
            match c.decide().unwrap() {
                Step::Terminate => break,
                Step::Execute(a) => {
                    if a.index() == 0 && world == 0 {
                        world = 2;
                    }
                    if a.index() == 1 && world == 1 {
                        world = 2;
                    }
                    let o = match world {
                        0 => 0,
                        1 => 1,
                        _ => 2,
                    };
                    c.observe(a, ObservationId::new(o)).unwrap();
                }
            }
        }
        assert_eq!(world, 2, "greedy floor failed to recover a certain fault");
        let stats = c.stats();
        assert!(stats.budget_exhaustions >= 1);
        assert_eq!(stats.deepest_completed, 0);
    }

    #[test]
    fn projected_belief_hides_terminate_state() {
        let (model, _) = setup();
        let mut c = AnytimeController::new(model, AnytimeConfig::default()).unwrap();
        c.begin(Belief::uniform(3), None).unwrap();
        let b = c.belief().unwrap();
        assert_eq!(b.n_states(), 3);
        assert!((b.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(c.transformed_belief().unwrap().n_states(), 4);
    }

    #[test]
    fn mismatched_bound_dimension_is_rejected() {
        let (model, _) = setup();
        let bound = VectorSetBound::from_vector(vec![0.0, 0.0]).unwrap();
        assert!(AnytimeController::with_bound(model, bound, AnytimeConfig::default()).is_err());
    }
}
