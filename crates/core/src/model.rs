//! Recovery models and the structural transforms of paper §3.1.

use crate::{conditions, Error};
use bpr_mdp::{ActionId, MdpBuilder, StateId};
use bpr_pomdp::{Belief, ObservationId, Pomdp, PomdpBuilder};

/// Whether the monitored system can notify the controller that recovery
/// has completed (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notification {
    /// Monitors definitively detect entry into `S_φ` (e.g. permanent
    /// faults with full-coverage crash monitors).
    Available,
    /// Recovery completion cannot be observed with certainty (transient
    /// faults, false positives, zombies) — the terminate action `a_T`
    /// must be added to the model.
    Unavailable,
}

/// A validated recovery model: a POMDP over fault states plus the
/// metadata the paper's machinery needs.
///
/// Invariants established at construction:
///
/// * Condition 1 — the null-fault states `S_φ` are non-empty and
///   reachable from every state.
/// * Condition 2 — all rewards are non-positive.
/// * The idle cost `rates` are non-positive, zero on `S_φ`, and match
///   the state count.
///
/// # Examples
///
/// Building the paper's Figure 1(a) model is shown in the crate docs of
/// `bpr-emn` (`two_server()`), which returns a ready `RecoveryModel`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryModel {
    base: Pomdp,
    null_states: Vec<StateId>,
    rates: Vec<f64>,
    observe_actions: Vec<ActionId>,
}

impl RecoveryModel {
    /// Validates and wraps a recovery model.
    ///
    /// `rates[s]` is the cost *rate* (≤ 0 per unit time) the system
    /// accrues while sitting in state `s` — used to derive termination
    /// rewards `r(s, a_T) = rates[s] · t_op`. `observe_actions` tags
    /// the purely observational actions (monitor sweeps) so that
    /// simulation harnesses can separate "recovery actions" from
    /// "monitor calls" in their metrics.
    ///
    /// # Errors
    ///
    /// * [`Error::Condition1Violated`] / [`Error::Condition2Violated`]
    ///   when the paper's conditions fail.
    /// * [`Error::InvalidInput`] when `rates` has the wrong length,
    ///   contains positive or non-finite entries, is non-zero on a null
    ///   state, or an observe action is out of bounds.
    pub fn new(
        base: Pomdp,
        null_states: Vec<StateId>,
        rates: Vec<f64>,
        observe_actions: Vec<ActionId>,
    ) -> Result<RecoveryModel, Error> {
        conditions::check_condition1(&base, &null_states)?;
        conditions::check_condition2(&base)?;
        if rates.len() != base.n_states() {
            return Err(Error::InvalidInput {
                detail: format!(
                    "rates length {} does not match state count {}",
                    rates.len(),
                    base.n_states()
                ),
            });
        }
        for (s, &r) in rates.iter().enumerate() {
            if !r.is_finite() || r > 0.0 {
                return Err(Error::InvalidInput {
                    detail: format!("rate for state {s} must be a finite cost (<= 0), got {r}"),
                });
            }
        }
        for s in &null_states {
            if rates[s.index()] != 0.0 {
                return Err(Error::InvalidInput {
                    detail: format!("null-fault state {s} must have zero idle cost rate"),
                });
            }
        }
        for a in &observe_actions {
            if a.index() >= base.n_actions() {
                return Err(Error::InvalidInput {
                    detail: format!("observe action {a} is out of bounds"),
                });
            }
        }
        Ok(RecoveryModel {
            base,
            null_states,
            rates,
            observe_actions,
        })
    }

    /// The underlying (untransformed) POMDP.
    pub fn base(&self) -> &Pomdp {
        &self.base
    }

    /// The null-fault states `S_φ`.
    pub fn null_states(&self) -> &[StateId] {
        &self.null_states
    }

    /// The idle cost rates per state.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Actions tagged as purely observational (monitor sweeps).
    pub fn observe_actions(&self) -> &[ActionId] {
        &self.observe_actions
    }

    /// True if `s ∈ S_φ`.
    pub fn is_null(&self, s: StateId) -> bool {
        self.null_states.contains(&s)
    }

    /// True if `a` is a tagged observe action.
    pub fn is_observe(&self, a: ActionId) -> bool {
        self.observe_actions.contains(&a)
    }

    /// The fault states (complement of `S_φ`), in ascending order.
    pub fn fault_states(&self) -> Vec<StateId> {
        (0..self.base.n_states())
            .map(StateId::new)
            .filter(|s| !self.is_null(*s))
            .collect()
    }

    /// Actions that deterministically recover from `fault` — i.e. move
    /// it into `S_φ` with probability 1.
    pub fn recovery_actions_for(&self, fault: StateId) -> Vec<ActionId> {
        (0..self.base.n_actions())
            .map(ActionId::new)
            .filter(|&a| {
                let mass: f64 = self
                    .base
                    .mdp()
                    .successors(fault, a)
                    .filter(|(s2, _)| self.is_null(*s2))
                    .map(|(_, p)| p)
                    .sum();
                mass >= 1.0 - 1e-9
            })
            .collect()
    }

    /// Among [`RecoveryModel::recovery_actions_for`], the one with the
    /// highest (least negative) reward in `fault` — the "cheapest
    /// recovery action" of the most-likely baseline controller.
    pub fn cheapest_recovery_action(&self, fault: StateId) -> Option<ActionId> {
        self.recovery_actions_for(fault)
            .into_iter()
            .max_by(|&a, &b| {
                let ra = self.base.mdp().reward(fault, a);
                let rb = self.base.mdp().reward(fault, b);
                ra.total_cmp(&rb)
            })
    }

    /// The lint context describing this raw model to the
    /// [`bpr_lint`](crate::lint) analyzer: `S_φ` as the null set,
    /// raw stage, no termination machinery.
    pub fn lint_context(&self) -> bpr_lint::LintContext {
        bpr_lint::LintContext::raw(self.null_states.clone()).named("recovery-model (raw)")
    }

    /// Runs the full static analyzer over the base POMDP.
    ///
    /// Construction already guarantees the error-severity structural
    /// lints are clean (Conditions 1 and 2 are enforced by
    /// [`RecoveryModel::new`]); the report surfaces the warnings and
    /// informational findings those fast checks skip — free actions,
    /// monitor aliasing classes, orphan fault states, random-chain
    /// divergence (expected on a raw model).
    pub fn lint(&self) -> bpr_lint::LintReport {
        bpr_lint::lint_pomdp(&self.base, &self.lint_context().full())
    }

    /// The transform for systems *with* recovery notification
    /// (Fig. 2(a)): every action out of a null-fault state is replaced
    /// by a zero-reward self-loop, making `S_φ` absorbing and free —
    /// which guarantees the RA-Bound converges.
    ///
    /// Observation dynamics are preserved.
    ///
    /// # Errors
    ///
    /// Propagates (unexpected) model re-validation failures.
    pub fn with_notification(&self) -> Result<Pomdp, Error> {
        let m = self.base.mdp();
        let n = m.n_states();
        let na = m.n_actions();
        let mut mb = MdpBuilder::new(n, na);
        for s in 0..n {
            mb.state_label(s, m.state_label(s));
        }
        for a in 0..na {
            mb.action_label(a, m.action_label(a));
            mb.duration(a, m.duration(a));
        }
        for a in 0..na {
            for s in 0..n {
                if self.is_null(StateId::new(s)) {
                    mb.transition(s, a, s, 1.0).reward(s, a, 0.0);
                } else {
                    for (s2, p) in m.successors(s, a) {
                        mb.transition(s, a, s2, p);
                    }
                    mb.reward(s, a, m.reward(s, a));
                }
            }
        }
        let mut pb = PomdpBuilder::new(mb.build().map_err(Error::Mdp)?, self.base.n_observations());
        for o in 0..self.base.n_observations() {
            pb.observation_label(o, self.base.observation_label(o));
        }
        for a in 0..na {
            for s in 0..n {
                for (o, q) in self.base.observations_on_entering(s, a) {
                    pb.observation(s, a, o, q);
                }
            }
        }
        pb.build().map_err(Error::Pomdp)
    }

    /// The transform for systems *without* recovery notification
    /// (Fig. 2(b)): adds the absorbing terminate state `s_T`, the
    /// terminate action `a_T` with termination rewards
    /// `r(s, a_T) = rates[s] · t_op`, and a dedicated "terminated"
    /// observation. The result guarantees a finite RA-Bound.
    ///
    /// `operator_response_time` is the paper's `t_op`: the (designer
    /// friendly) time a human operator needs to respond to a fault the
    /// controller abandoned.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidInput`] if `operator_response_time` is not
    ///   positive and finite.
    /// * Propagates model-construction failures.
    pub fn without_notification(
        &self,
        operator_response_time: f64,
    ) -> Result<TerminatedModel, Error> {
        if !(operator_response_time.is_finite() && operator_response_time > 0.0) {
            return Err(Error::InvalidInput {
                detail: format!(
                    "operator response time must be positive and finite, got {operator_response_time}"
                ),
            });
        }
        let m = self.base.mdp();
        let n = m.n_states();
        let na = m.n_actions();
        let s_t = n; // terminate state index
        let a_t = na; // terminate action index
        let o_t = self.base.n_observations(); // "terminated" observation

        let mut mb = MdpBuilder::new(n + 1, na + 1);
        for s in 0..n {
            mb.state_label(s, m.state_label(s));
        }
        mb.state_label(s_t, "Terminated");
        for a in 0..na {
            mb.action_label(a, m.action_label(a));
            mb.duration(a, m.duration(a));
        }
        mb.action_label(a_t, "Terminate");
        // Base dynamics unchanged; s_T absorbs under every action.
        for a in 0..na {
            for s in 0..n {
                for (s2, p) in m.successors(s, a) {
                    mb.transition(s, a, s2, p);
                }
                mb.reward(s, a, m.reward(s, a));
            }
            mb.transition(s_t, a, s_t, 1.0);
        }
        // a_T routes everything to s_T at the termination cost.
        for s in 0..n {
            let r = if self.is_null(StateId::new(s)) {
                0.0
            } else {
                self.rates[s] * operator_response_time
            };
            mb.transition(s, a_t, s_t, 1.0).reward(s, a_t, r);
        }
        mb.transition(s_t, a_t, s_t, 1.0);

        let mut pb = PomdpBuilder::new(mb.build().map_err(Error::Mdp)?, o_t + 1);
        for o in 0..self.base.n_observations() {
            pb.observation_label(o, self.base.observation_label(o));
        }
        pb.observation_label(o_t, "terminated");
        for a in 0..na {
            for s in 0..n {
                for (o, q) in self.base.observations_on_entering(s, a) {
                    pb.observation(s, a, o, q);
                }
            }
            pb.observation(s_t, a, o_t, 1.0);
        }
        for s in 0..=n {
            pb.observation(s, a_t, o_t, 1.0);
        }
        Ok(TerminatedModel {
            pomdp: pb.build().map_err(Error::Pomdp)?,
            terminate_state: StateId::new(s_t),
            terminate_action: ActionId::new(a_t),
            terminated_observation: ObservationId::new(o_t),
            null_states: self.null_states.clone(),
            operator_response_time,
        })
    }
}

/// A recovery model transformed for systems without recovery
/// notification: the base POMDP extended with `s_T`, `a_T`, and the
/// "terminated" observation (paper Fig. 2(b)).
#[derive(Debug, Clone, PartialEq)]
pub struct TerminatedModel {
    pomdp: Pomdp,
    terminate_state: StateId,
    terminate_action: ActionId,
    terminated_observation: ObservationId,
    null_states: Vec<StateId>,
    operator_response_time: f64,
}

impl TerminatedModel {
    /// The transformed POMDP (one extra state, action, observation).
    pub fn pomdp(&self) -> &Pomdp {
        &self.pomdp
    }

    /// The absorbing terminate state `s_T`.
    pub fn terminate_state(&self) -> StateId {
        self.terminate_state
    }

    /// The terminate action `a_T`.
    pub fn terminate_action(&self) -> ActionId {
        self.terminate_action
    }

    /// The dedicated observation emitted from `s_T`.
    pub fn terminated_observation(&self) -> ObservationId {
        self.terminated_observation
    }

    /// The null-fault states (unchanged indices from the base model).
    pub fn null_states(&self) -> &[StateId] {
        &self.null_states
    }

    /// The operator response time `t_op` the transform was built with.
    pub fn operator_response_time(&self) -> f64 {
        self.operator_response_time
    }

    /// The lint context describing this transformed model to the
    /// [`bpr_lint`](crate::lint) analyzer: transformed stage, with the
    /// `s_T`/`a_T`/`t_op` termination machinery declared so the
    /// analyzer can check its structure (and exempt it where the
    /// transform's conventions demand).
    pub fn lint_context(&self) -> bpr_lint::LintContext {
        bpr_lint::LintContext::transformed(
            self.null_states.clone(),
            Some(bpr_lint::Termination {
                state: self.terminate_state,
                action: self.terminate_action,
                operator_response_time: self.operator_response_time,
            }),
        )
        .named("recovery-model (no-notification transform)")
    }

    /// Runs the full static analyzer over the transformed POMDP.
    ///
    /// A [`TerminatedModel`] produced by
    /// [`RecoveryModel::without_notification`] must be clean at error
    /// severity: the transform exists precisely to repair the
    /// structural hazards (divergent random chain, missing
    /// termination) the analyzer hunts for.
    pub fn lint(&self) -> bpr_lint::LintReport {
        bpr_lint::lint_pomdp(&self.pomdp, &self.lint_context().full())
    }

    /// Lifts a belief over the base state space into the transformed
    /// space (zero mass on `s_T`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] if the belief dimension is not
    /// the base dimension.
    pub fn extend_belief(&self, belief: &Belief) -> Result<Belief, Error> {
        if belief.n_states() != self.pomdp.n_states() - 1 {
            return Err(Error::InvalidInput {
                detail: format!(
                    "belief covers {} states, base model has {}",
                    belief.n_states(),
                    self.pomdp.n_states() - 1
                ),
            });
        }
        let mut probs = belief.probs().to_vec();
        probs.push(0.0);
        Belief::from_probs(probs).map_err(Error::Pomdp)
    }

    /// True if `a` is an action of the base model (not `a_T`).
    pub fn is_base_action(&self, a: ActionId) -> bool {
        a != self.terminate_action
    }

    /// The fault states: base states outside `S_φ` (excluding `s_T`).
    pub fn fault_states(&self) -> Vec<StateId> {
        (0..self.pomdp.n_states() - 1)
            .map(StateId::new)
            .filter(|s| !self.null_states.contains(s))
            .collect()
    }

    /// Lumps the transformed model by its monitor-aliasing partition:
    /// the lint analyzer's exact-bit equivalence classes
    /// ([`bpr_lint::checks::monitor_partition`]) seed
    /// [`bpr_pomdp::lump()`], which refines them to a sound
    /// state-aggregation quotient (see its module docs). The quotient
    /// is returned as a [`TerminatedModel`] whose `s_T`, `a_T`, and
    /// null-state bookkeeping are mapped through the certificate, so
    /// controllers built on it are drop-in.
    ///
    /// Seed classes are pre-split so no quotient state ever mixes null
    /// with fault states or with `s_T` — the merge semantics of the
    /// recovery bookkeeping (`null_states`, termination) stay exact
    /// even where the raw dynamics alone would allow a coarser merge.
    /// When nothing is mergeable the result is the identity quotient
    /// and planning on it is bit-identical to the original.
    ///
    /// # Errors
    ///
    /// Propagates quotient-construction failures from
    /// [`bpr_pomdp::lump()`] (they indicate a malformed model).
    pub fn lump(&self) -> Result<(TerminatedModel, bpr_pomdp::LumpCertificate), Error> {
        let mut seed: Vec<Vec<StateId>> = Vec::new();
        for class in bpr_lint::checks::monitor_partition(&self.pomdp) {
            let mut nulls = Vec::new();
            let mut faults = Vec::new();
            for s in class {
                if s == self.terminate_state {
                    seed.push(vec![s]);
                } else if self.null_states.contains(&s) {
                    nulls.push(s);
                } else {
                    faults.push(s);
                }
            }
            if !nulls.is_empty() {
                seed.push(nulls);
            }
            if !faults.is_empty() {
                seed.push(faults);
            }
        }
        let lumping = bpr_pomdp::lump(&self.pomdp, &seed).map_err(Error::Pomdp)?;
        let cert = lumping.certificate;
        let null_states: Vec<StateId> = (0..cert.n_quotient())
            .map(StateId::new)
            .filter(|&c| {
                let rep = cert.representative(c);
                self.null_states.contains(&StateId::new(rep.index()))
            })
            .collect();
        let quotient = TerminatedModel {
            pomdp: lumping.pomdp,
            terminate_state: cert.class_of(self.terminate_state),
            terminate_action: self.terminate_action,
            terminated_observation: self.terminated_observation,
            null_states,
            operator_response_time: self.operator_response_time,
        };
        Ok((quotient, cert))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bpr_pomdp::bounds::ra_values;

    /// The paper's two-server model (Fig. 1a), *without* making Null
    /// absorbing — the raw recovery model both transforms start from.
    /// Unit "time" per action; Observe is free in Null.
    pub(crate) fn two_server_model() -> RecoveryModel {
        let mut mb = MdpBuilder::new(3, 3);
        mb.state_label(0, "Fault(a)")
            .state_label(1, "Fault(b)")
            .state_label(2, "Null");
        mb.action_label(0, "Restart(a)")
            .action_label(1, "Restart(b)")
            .action_label(2, "Observe");
        mb.transition(0, 0, 2, 1.0).reward(0, 0, -0.5);
        mb.transition(1, 0, 1, 1.0).reward(1, 0, -1.0);
        mb.transition(2, 0, 2, 1.0).reward(2, 0, -0.5);
        mb.transition(0, 1, 0, 1.0).reward(0, 1, -1.0);
        mb.transition(1, 1, 2, 1.0).reward(1, 1, -0.5);
        mb.transition(2, 1, 2, 1.0).reward(2, 1, -0.5);
        mb.transition(0, 2, 0, 1.0).reward(0, 2, -1.0);
        mb.transition(1, 2, 1, 1.0).reward(1, 2, -1.0);
        mb.transition(2, 2, 2, 1.0).reward(2, 2, 0.0);
        // Observations o0 = "a appears failed", o1 = "b appears failed",
        // o2 = "all clear" with mild noise.
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), 3);
        for a in 0..3 {
            pb.observation(0, a, 0, 0.85)
                .observation(0, a, 1, 0.05)
                .observation(0, a, 2, 0.10);
            pb.observation(1, a, 0, 0.05)
                .observation(1, a, 1, 0.85)
                .observation(1, a, 2, 0.10);
            pb.observation(2, a, 0, 0.02)
                .observation(2, a, 1, 0.02)
                .observation(2, a, 2, 0.96);
        }
        RecoveryModel::new(
            pb.build().unwrap(),
            vec![StateId::new(2)],
            vec![-1.0, -1.0, 0.0],
            vec![ActionId::new(2)],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_conditions() {
        let model = two_server_model();
        assert_eq!(model.null_states(), &[StateId::new(2)]);
        assert_eq!(model.fault_states(), vec![StateId::new(0), StateId::new(1)]);
        assert!(model.is_null(StateId::new(2)));
        assert!(!model.is_null(StateId::new(0)));
        assert!(model.is_observe(ActionId::new(2)));
        assert!(!model.is_observe(ActionId::new(0)));
    }

    #[test]
    fn rates_are_validated() {
        let base = two_server_model().base().clone();
        // Wrong length.
        assert!(matches!(
            RecoveryModel::new(base.clone(), vec![StateId::new(2)], vec![0.0], vec![]),
            Err(Error::InvalidInput { .. })
        ));
        // Positive rate.
        assert!(matches!(
            RecoveryModel::new(
                base.clone(),
                vec![StateId::new(2)],
                vec![1.0, -1.0, 0.0],
                vec![]
            ),
            Err(Error::InvalidInput { .. })
        ));
        // Non-zero rate on a null state.
        assert!(matches!(
            RecoveryModel::new(base, vec![StateId::new(2)], vec![-1.0, -1.0, -0.5], vec![]),
            Err(Error::InvalidInput { .. })
        ));
    }

    #[test]
    fn recovery_actions_are_identified() {
        let model = two_server_model();
        assert_eq!(
            model.recovery_actions_for(StateId::new(0)),
            vec![ActionId::new(0)]
        );
        assert_eq!(
            model.cheapest_recovery_action(StateId::new(1)),
            Some(ActionId::new(1))
        );
        // The null state "recovers" under restarts and observe alike.
        assert_eq!(model.recovery_actions_for(StateId::new(2)).len(), 3);
    }

    #[test]
    fn with_notification_makes_null_absorbing_and_free() {
        let model = two_server_model();
        let p = model.with_notification().unwrap();
        assert_eq!(p.n_states(), 3);
        assert_eq!(p.n_actions(), 3);
        for a in 0..3 {
            assert_eq!(p.mdp().transition_prob(2, a, 2), 1.0);
            assert_eq!(p.mdp().reward(2, a), 0.0);
        }
        // Fault dynamics untouched.
        assert_eq!(p.mdp().transition_prob(0, 0, 2), 1.0);
        assert_eq!(p.mdp().reward(0, 0), -0.5);
        // RA-Bound now exists.
        let v = ra_values(&p, &Default::default()).unwrap();
        assert!(v[0] < 0.0 && v[2] == 0.0);
    }

    #[test]
    fn without_notification_adds_terminate_machinery() {
        let model = two_server_model();
        let t = model.without_notification(4.0).unwrap();
        let p = t.pomdp();
        assert_eq!(p.n_states(), 4);
        assert_eq!(p.n_actions(), 4);
        assert_eq!(p.n_observations(), 4);
        assert_eq!(t.terminate_state(), StateId::new(3));
        assert_eq!(t.terminate_action(), ActionId::new(3));
        assert_eq!(p.mdp().state_label(3), "Terminated");
        assert_eq!(p.mdp().action_label(3), "Terminate");
        // Termination rewards r(s, a_T) = rate * top; 0 in Null.
        assert_eq!(p.mdp().reward(0, 3), -4.0);
        assert_eq!(p.mdp().reward(1, 3), -4.0);
        assert_eq!(p.mdp().reward(2, 3), 0.0);
        assert_eq!(p.mdp().reward(3, 3), 0.0);
        // s_T absorbs under every action.
        for a in 0..4 {
            assert_eq!(p.mdp().transition_prob(3, a, 3), 1.0);
            assert_eq!(p.mdp().reward(3, a), 0.0);
        }
        // a_T sends everything to s_T.
        for s in 0..4 {
            assert_eq!(p.mdp().transition_prob(s, 3, 3), 1.0);
        }
        // RA-Bound exists on the transformed model.
        let v = ra_values(p, &Default::default()).unwrap();
        assert!(v.iter().all(|x| x.is_finite()));
        assert_eq!(v[3], 0.0);
        // Null is NOT absorbing here: restarts in Null still cost.
        assert!(v[2] < 0.0);
    }

    #[test]
    fn invalid_operator_response_time_is_rejected() {
        let model = two_server_model();
        for top in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(model.without_notification(top).is_err(), "top = {top}");
        }
    }

    #[test]
    fn extend_belief_appends_zero_mass() {
        let model = two_server_model();
        let t = model.without_notification(4.0).unwrap();
        let b = Belief::uniform(3);
        let eb = t.extend_belief(&b).unwrap();
        assert_eq!(eb.n_states(), 4);
        assert_eq!(eb.prob(StateId::new(3)), 0.0);
        assert!(t.extend_belief(&Belief::uniform(4)).is_err());
        assert!(t.is_base_action(ActionId::new(0)));
        assert!(!t.is_base_action(ActionId::new(3)));
    }

    #[test]
    fn ra_bound_diverges_on_untransformed_model() {
        // The raw model has costly restarts looping in Null forever
        // under random actions: no finite RA-Bound (motivates the
        // transforms).
        let model = two_server_model();
        assert!(ra_values(model.base(), &Default::default()).is_err());
    }

    #[test]
    fn lint_reports_are_clean_at_error_severity() {
        use bpr_lint::{LintCode, Severity};
        let model = two_server_model();
        let raw = model.lint();
        assert!(!raw.has_errors(), "{}", raw.render());
        // The raw model's uniform-random chain diverges (that is why
        // the transforms exist) — reported as info, not error.
        assert!(raw
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::DivergentRandomChain && d.severity == Severity::Info));

        let t = model.without_notification(4.0).unwrap();
        let transformed = t.lint();
        assert!(!transformed.has_errors(), "{}", transformed.render());
        // The transform repaired the divergence entirely.
        assert!(!transformed
            .diagnostics()
            .iter()
            .any(|d| d.code == LintCode::DivergentRandomChain));
        assert_eq!(t.lint_context().model_name, transformed.model());
    }

    #[test]
    fn terminated_model_reports_top() {
        let model = two_server_model();
        let t = model.without_notification(7.5).unwrap();
        assert_eq!(t.operator_response_time(), 7.5);
        assert_eq!(t.null_states(), &[StateId::new(2)]);
        assert_eq!(t.terminated_observation().index(), 3);
    }
}
