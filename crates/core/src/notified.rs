//! The bounded controller for systems *with* recovery notification
//! (paper §3.1, Fig. 2(a)).
//!
//! When monitors can definitively report that the system has reached a
//! null-fault state, no terminate action is needed: the model transform
//! makes `S_φ` absorbing and free, the RA-Bound converges, and the
//! controller simply stops once the belief collapses onto `S_φ`.

use crate::controller::Lifecycle;
use crate::{Error, RecoveryController, RecoveryModel, Step};
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::{ActionId, StateId};
use bpr_pomdp::backup::incremental_backup;
use bpr_pomdp::bounds::{ra_bound, VectorSetBound};
use bpr_pomdp::{tree, Belief, ObservationId, Pomdp};

/// Configuration of a [`NotifiedBoundedController`].
#[derive(Debug, Clone, PartialEq)]
pub struct NotifiedConfig {
    /// Depth of the Max-Avg expansion.
    pub depth: usize,
    /// Refine the bound at visited beliefs.
    pub backup_online: bool,
    /// Belief mass on `S_φ` at which recovery is considered notified.
    /// With genuinely definitive monitors the belief reaches 1 exactly;
    /// the default leaves room for floating-point dust.
    pub notification_threshold: f64,
    /// Observation-branch pruning cutoff.
    pub gamma_cutoff: f64,
}

impl Default for NotifiedConfig {
    fn default() -> NotifiedConfig {
        NotifiedConfig {
            depth: 1,
            backup_online: true,
            notification_threshold: 1.0 - 1e-9,
            gamma_cutoff: 1e-6,
        }
    }
}

/// Bounded recovery controller for systems with recovery notification:
/// runs on the [`RecoveryModel::with_notification`] transform and
/// terminates exactly when the (certain) recovery notification arrives.
#[derive(Debug, Clone)]
pub struct NotifiedBoundedController {
    transformed: Pomdp,
    null_states: Vec<StateId>,
    bound: VectorSetBound,
    config: NotifiedConfig,
    life: Lifecycle,
}

impl NotifiedBoundedController {
    /// Creates the controller: applies the transform and computes the
    /// RA-Bound (which provably converges on the transformed model).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidInput`] for a zero depth or a threshold
    ///   outside `(0, 1]`.
    /// * Propagates transform and bound-solve failures.
    pub fn new(
        model: &RecoveryModel,
        config: NotifiedConfig,
    ) -> Result<NotifiedBoundedController, Error> {
        if config.depth == 0 {
            return Err(Error::InvalidInput {
                detail: "tree depth must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&config.notification_threshold)
            || config.notification_threshold == 0.0
        {
            return Err(Error::InvalidInput {
                detail: "notification threshold must be in (0, 1]".into(),
            });
        }
        let transformed = model.with_notification()?;
        let bound = ra_bound(&transformed, &SolveOpts::default()).map_err(Error::Pomdp)?;
        Ok(NotifiedBoundedController {
            transformed,
            null_states: model.null_states().to_vec(),
            bound,
            config,
            life: Lifecycle::default(),
        })
    }

    /// The current bound set.
    pub fn bound(&self) -> &VectorSetBound {
        &self.bound
    }

    /// The transformed (null-absorbing) POMDP the controller reasons on.
    pub fn transformed(&self) -> &Pomdp {
        &self.transformed
    }
}

impl RecoveryController for NotifiedBoundedController {
    fn name(&self) -> &str {
        "bounded-notified"
    }

    fn begin(&mut self, initial: Belief, _true_fault: Option<StateId>) -> Result<(), Error> {
        self.life.start(initial, self.transformed.n_states())
    }

    fn decide(&mut self) -> Result<Step, Error> {
        let belief = self.life.guard()?;
        if belief.prob_in(&self.null_states) >= self.config.notification_threshold {
            return Ok(self.life.terminate());
        }
        if self.config.backup_online {
            incremental_backup(&self.transformed, &mut self.bound, belief, 1.0)
                .map_err(Error::Pomdp)?;
        }
        let decision = tree::expand_with_cutoff(
            &self.transformed,
            belief,
            self.config.depth,
            &self.bound,
            1.0,
            self.config.gamma_cutoff,
        )
        .map_err(Error::Pomdp)?;
        Ok(Step::Execute(decision.action))
    }

    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
        self.life.observe(&self.transformed, action, o)
    }

    fn belief(&self) -> Option<Belief> {
        self.life.belief().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpr_mdp::MdpBuilder;
    use bpr_pomdp::PomdpBuilder;

    /// A two-fault model with *definitive* recovery notification: the
    /// "all clear" observation is emitted iff the system is in Null.
    fn notified_model() -> RecoveryModel {
        let mut mb = MdpBuilder::new(3, 3);
        mb.state_label(0, "Fault(a)")
            .state_label(1, "Fault(b)")
            .state_label(2, "Null");
        mb.transition(0, 0, 2, 1.0).reward(0, 0, -0.5);
        mb.transition(1, 0, 1, 1.0).reward(1, 0, -1.0);
        mb.transition(2, 0, 2, 1.0).reward(2, 0, -0.5);
        mb.transition(0, 1, 0, 1.0).reward(0, 1, -1.0);
        mb.transition(1, 1, 2, 1.0).reward(1, 1, -0.5);
        mb.transition(2, 1, 2, 1.0).reward(2, 1, -0.5);
        mb.transition(0, 2, 0, 1.0).reward(0, 2, -0.25);
        mb.transition(1, 2, 1, 1.0).reward(1, 2, -0.25);
        mb.transition(2, 2, 2, 1.0).reward(2, 2, 0.0);
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), 3);
        for a in 0..3 {
            // Faults are confusable with each other but never with Null.
            pb.observation(0, a, 0, 0.7).observation(0, a, 1, 0.3);
            pb.observation(1, a, 0, 0.3).observation(1, a, 1, 0.7);
            pb.observation(2, a, 2, 1.0);
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
    fn invalid_configs_are_rejected() {
        let model = notified_model();
        assert!(NotifiedBoundedController::new(
            &model,
            NotifiedConfig {
                depth: 0,
                ..NotifiedConfig::default()
            }
        )
        .is_err());
        assert!(NotifiedBoundedController::new(
            &model,
            NotifiedConfig {
                notification_threshold: 0.0,
                ..NotifiedConfig::default()
            }
        )
        .is_err());
        assert!(NotifiedBoundedController::new(
            &model,
            NotifiedConfig {
                notification_threshold: 1.5,
                ..NotifiedConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn terminates_immediately_on_notification() {
        let model = notified_model();
        let mut c = NotifiedBoundedController::new(&model, NotifiedConfig::default()).unwrap();
        c.begin(Belief::point(3, StateId::new(2)), None).unwrap();
        assert_eq!(c.decide().unwrap(), Step::Terminate);
        assert!(matches!(c.decide(), Err(Error::AlreadyTerminated)));
    }

    #[test]
    fn recovers_and_stops_exactly_at_notification() {
        let model = notified_model();
        let mut c = NotifiedBoundedController::new(&model, NotifiedConfig::default()).unwrap();
        c.begin(
            Belief::uniform_over(3, &[StateId::new(0), StateId::new(1)]),
            None,
        )
        .unwrap();
        // World: Fault(a). Observation "a appears failed" each step until
        // fixed, then the definitive all-clear.
        let mut world = 0usize;
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 30, "did not terminate");
            match c.decide().unwrap() {
                Step::Terminate => break,
                Step::Execute(a) => {
                    if a.index() == 0 && world == 0 {
                        world = 2;
                    }
                    if a.index() == 1 && world == 1 {
                        world = 2;
                    }
                    let obs = if world == 2 { 2 } else { 0 };
                    c.observe(a, ObservationId::new(obs)).unwrap();
                }
            }
        }
        assert_eq!(world, 2, "terminated before recovery");
        // With definitive notification, termination happens on the very
        // next decision after the all-clear: belief is a point on Null.
        let b = c.belief().unwrap();
        assert!((b.prob(StateId::new(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accessors_and_traits() {
        let model = notified_model();
        let c = NotifiedBoundedController::new(&model, NotifiedConfig::default()).unwrap();
        assert_eq!(c.name(), "bounded-notified");
        assert!(c.uses_monitors());
        assert!(!c.bound().is_empty());
        assert_eq!(c.transformed().n_states(), 3);
    }
}
