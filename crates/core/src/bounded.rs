//! The paper's bounded recovery controller (§4).

use crate::controller::{check_planning_params, Lifecycle};
use crate::{Error, RecoveryController, Step, TerminatedModel};
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::{ActionId, StateId};
use bpr_pomdp::backup::incremental_backup;
use bpr_pomdp::bounds::{ra_bound, VectorSetBound};
use bpr_pomdp::{tree, Belief, ObservationId, PlanStats, PlanWorkspace};

/// Configuration of a [`BoundedController`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedConfig {
    /// Depth of the Max-Avg expansion (the paper's controller uses 1).
    pub depth: usize,
    /// Refine the bound with an incremental backup at each belief the
    /// controller visits during recovery (paper §4.1: beliefs "naturally
    /// generated during the course of system recovery").
    pub backup_online: bool,
    /// Optional cap on the number of bound hyperplanes; least-used
    /// vectors are evicted past the cap (paper §4.3's finite-storage
    /// suggestion). `None` disables eviction.
    pub vector_cap: Option<usize>,
    /// Discount factor (the recovery criterion is undiscounted: 1.0).
    pub beta: f64,
    /// Prefer terminating when `a_T` ties with the best action. Breaking
    /// ties toward `a_T` removes a pathological non-termination case
    /// when free actions exist inside `S_φ`.
    pub prefer_terminate_on_tie: bool,
    /// Observation branches with probability at or below this are
    /// pruned during tree expansion. Essential for models with large
    /// observation spaces (the EMN model has 2⁷ monitor masks).
    pub gamma_cutoff: f64,
    /// Must be `false`: `true` is rejected with
    /// [`Error::InvalidInput`]. Branch-and-bound expansion is gone (it
    /// lost to plain expansion on every measured model); the field
    /// stays only because perfbench's traced replay reads it, and
    /// ROADMAP item 4's benchmark-changing PR removes it.
    pub branch_and_bound: bool,
    /// Incremental-backup sweeps over the state-vertex beliefs run at
    /// construction. The raw RA-Bound is loose near `S_φ` (it prices in
    /// random restarts even when the system is healthy), which can make
    /// an un-bootstrapped controller terminate too eagerly; a couple of
    /// vertex sweeps repair exactly that region. Set to 0 to disable.
    pub startup_vertex_sweeps: usize,
    /// Must be 1: decisions are planned sequentially in the
    /// controller's reusable workspace, and any other value is rejected
    /// with [`Error::InvalidInput`]. Root-parallel expansion is gone; the
    /// field stays only because perfbench's traced replay reads it, and
    /// ROADMAP item 4's benchmark-changing PR removes it.
    pub root_threads: usize,
}

impl Default for BoundedConfig {
    fn default() -> BoundedConfig {
        BoundedConfig {
            depth: 1,
            backup_online: true,
            vector_cap: None,
            beta: 1.0,
            prefer_terminate_on_tie: true,
            gamma_cutoff: 1e-6,
            branch_and_bound: false,
            startup_vertex_sweeps: 2,
            root_threads: 1,
        }
    }
}

/// Cumulative statistics of a [`BoundedController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoundedStats {
    /// Number of `decide()` calls served.
    pub decisions: usize,
    /// Incremental backups performed (online refinement).
    pub backups: usize,
    /// Total belief nodes expanded across all decisions.
    pub nodes_expanded: usize,
    /// Bound vectors evicted by the cap.
    pub vectors_evicted: usize,
}

/// The recovery controller of paper §4: finite-depth Max-Avg tree
/// expansion with a provable lower bound at the leaves, on a model
/// transformed for systems without recovery notification.
///
/// Termination is *endogenous*: recovery stops exactly when the
/// expansion prefers the terminate action `a_T`, whose value encodes the
/// operator-response-time risk — no external termination-probability
/// threshold is needed (contrast with [`crate::baselines`]).
///
/// # Examples
///
/// Construction requires a [`TerminatedModel`]; see
/// `examples/quickstart.rs` for the full loop.
#[derive(Debug, Clone)]
pub struct BoundedController {
    model: TerminatedModel,
    bound: VectorSetBound,
    config: BoundedConfig,
    life: Lifecycle,
    stats: BoundedStats,
    workspace: PlanWorkspace,
}

impl BoundedController {
    /// Creates a controller, computing the RA-Bound of the transformed
    /// model as the initial (single-hyperplane) leaf bound.
    ///
    /// # Errors
    ///
    /// * Propagates RA-Bound divergence (impossible for models built by
    ///   [`crate::RecoveryModel::without_notification`]) and solver
    ///   failures.
    /// * [`Error::InvalidInput`] for a config
    ///   [`BoundedController::with_bound`] rejects.
    pub fn new(model: TerminatedModel, config: BoundedConfig) -> Result<BoundedController, Error> {
        let bound = ra_bound(model.pomdp(), &SolveOpts::default()).map_err(Error::Pomdp)?;
        BoundedController::with_bound(model, bound, config)
    }

    /// Creates a controller around an existing (e.g. bootstrapped)
    /// bound set.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] if the bound dimension mismatches the
    /// model, the configured depth is zero, `root_threads` is not 1,
    /// `branch_and_bound` is set, `beta` lies outside `(0, 1]` or is
    /// non-finite, `gamma_cutoff` is negative or non-finite, or
    /// `vector_cap` is `Some(0)`.
    pub fn with_bound(
        model: TerminatedModel,
        bound: VectorSetBound,
        config: BoundedConfig,
    ) -> Result<BoundedController, Error> {
        if config.depth == 0 {
            return Err(Error::InvalidInput {
                detail: "tree depth must be at least 1".into(),
            });
        }
        if config.root_threads != 1 {
            return Err(Error::InvalidInput {
                detail: "root_threads must be 1: root-parallel expansion was removed".into(),
            });
        }
        if config.branch_and_bound {
            return Err(Error::InvalidInput {
                detail: "branch_and_bound must be false: branch-and-bound expansion was removed"
                    .into(),
            });
        }
        check_planning_params(
            "bounded",
            config.beta,
            config.gamma_cutoff,
            config.vector_cap,
        )?;
        let mut bound = model.seed_termination_plane(bound)?;
        for _ in 0..config.startup_vertex_sweeps {
            for s in 0..model.pomdp().n_states() {
                let vertex = Belief::point(model.pomdp().n_states(), StateId::new(s));
                incremental_backup(model.pomdp(), &mut bound, &vertex, config.beta)
                    .map_err(Error::Pomdp)?;
            }
        }
        Ok(BoundedController {
            model,
            bound,
            config,
            life: Lifecycle::default(),
            stats: BoundedStats::default(),
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

    /// The configuration the controller was built with (so analyzers
    /// can reconstruct an equivalent controller, e.g. with online
    /// backups frozen, for side-effect-free policy extraction).
    pub fn config(&self) -> &BoundedConfig {
        &self.config
    }

    /// Mutable access to the bound set (for external bootstrapping).
    pub fn bound_mut(&mut self) -> &mut VectorSetBound {
        &mut self.bound
    }

    /// Controller statistics accumulated so far.
    pub fn stats(&self) -> BoundedStats {
        self.stats
    }

    /// Planning-kernel statistics of the controller's workspace
    /// (transposition-cache and afterstate hits, scratch buffers
    /// built).
    pub fn plan_stats(&self) -> &PlanStats {
        self.workspace.stats()
    }

    /// The belief over the *transformed* state space (including `s_T`).
    pub fn transformed_belief(&self) -> Option<&Belief> {
        self.life.belief()
    }
}

impl RecoveryController for BoundedController {
    fn name(&self) -> &str {
        "bounded"
    }

    fn begin(&mut self, initial: Belief, _true_fault: Option<StateId>) -> Result<(), Error> {
        self.life.start_transformed(&self.model, initial)
    }

    fn decide(&mut self) -> Result<Step, Error> {
        let belief = self.life.guard()?;
        if self.config.backup_online {
            self.stats.vectors_evicted += self.model.back_up(
                &mut self.bound,
                belief,
                self.config.beta,
                self.config.vector_cap,
            )?;
            self.stats.backups += 1;
        }
        tree::expand_with_workspace(
            self.model.pomdp(),
            belief,
            self.config.depth,
            &self.bound,
            self.config.beta,
            self.config.gamma_cutoff,
            &mut self.workspace,
        )
        .map_err(Error::Pomdp)?;
        let d = self.workspace.decision();
        self.stats.decisions += 1;
        self.stats.nodes_expanded += d.nodes_expanded;
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

    fn controller(top: f64, depth: usize) -> BoundedController {
        let model = two_server_model().without_notification(top).unwrap();
        BoundedController::new(
            model,
            BoundedConfig {
                depth,
                ..BoundedConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn zero_depth_is_rejected() {
        let model = two_server_model().without_notification(10.0).unwrap();
        assert!(BoundedController::new(
            model,
            BoundedConfig {
                depth: 0,
                ..BoundedConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn certain_fault_triggers_matching_restart() {
        let mut c = controller(10.0, 1);
        c.begin(Belief::point(3, StateId::new(0)), None).unwrap();
        match c.decide().unwrap() {
            Step::Execute(a) => assert_eq!(a.index(), 0),
            Step::Terminate => panic!("terminated with a certain fault"),
        }
    }

    #[test]
    fn full_episode_recovers_and_terminates() {
        let mut c = controller(10.0, 2);
        // Start unsure between the two faults.
        c.begin(
            Belief::uniform_over(3, &[StateId::new(0), StateId::new(1)]),
            None,
        )
        .unwrap();
        // Simulate the world: true fault is Fault(b) (state 1); the
        // matching restart fixes it.
        let mut world = 1usize;
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 50, "controller failed to terminate");
            match c.decide().unwrap() {
                Step::Terminate => break,
                Step::Execute(a) => {
                    // Deterministic dynamics of the two-server model.
                    if a.index() == 1 && world == 1 {
                        world = 2;
                    }
                    if a.index() == 0 && world == 0 {
                        world = 2;
                    }
                    // Deterministic-ish observation: the most likely one.
                    let o = match world {
                        0 => 0,
                        1 => 1,
                        _ => 2,
                    };
                    c.observe(a, ObservationId::new(o)).unwrap();
                }
            }
        }
        // The world must actually be recovered when we terminate.
        assert_eq!(world, 2, "terminated before recovery completed");
        let stats = c.stats();
        assert!(stats.decisions >= 2);
        assert!(stats.nodes_expanded > 0);
        assert!(stats.backups >= 1);
    }

    #[test]
    fn projected_belief_hides_terminate_state() {
        let mut c = controller(10.0, 1);
        c.begin(Belief::uniform(3), None).unwrap();
        let b = c.belief().unwrap();
        assert_eq!(b.n_states(), 3);
        assert!((b.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let tb = c.transformed_belief().unwrap();
        assert_eq!(tb.n_states(), 4);
        assert_eq!(tb.prob(StateId::new(3)), 0.0);
    }

    #[test]
    fn vector_cap_limits_bound_growth() {
        let model = two_server_model().without_notification(10.0).unwrap();
        let mut c = BoundedController::new(
            model,
            BoundedConfig {
                depth: 1,
                vector_cap: Some(3),
                ..BoundedConfig::default()
            },
        )
        .unwrap();
        for i in 0..20 {
            let w = (i as f64) / 20.0;
            let b = Belief::from_probs(vec![w * 0.9, (1.0 - w) * 0.9, 0.1]).unwrap();
            c.begin(b, None).unwrap();
            let _ = c.decide().unwrap();
        }
        assert!(c.bound().len() <= 3);
    }

    #[test]
    fn startup_seeds_the_termination_hyperplane() {
        use bpr_pomdp::bounds::ValueBound;
        let model = two_server_model().without_notification(100.0).unwrap();
        let c = BoundedController::new(model.clone(), BoundedConfig::default()).unwrap();
        // At the null vertex the seeded/refined bound must be far above
        // the raw RA value (which prices in random restarts forever) —
        // terminating there is free.
        let null_vertex = Belief::point(4, StateId::new(2));
        assert!(
            c.bound().value(&null_vertex) > -1e-9,
            "bound at Null should be ~0, got {}",
            c.bound().value(&null_vertex)
        );
        // And at fault vertices the termination plane keeps it >= the
        // blind-terminate value r(s, a_T) = -100.
        for s in [0usize, 1] {
            let v = c.bound().value(&Belief::point(4, StateId::new(s)));
            assert!(v >= -100.0 - 1e-9, "state {s}: {v}");
        }
        // Disabling the sweeps still seeds the plane.
        let c2 = BoundedController::new(
            model,
            BoundedConfig {
                startup_vertex_sweeps: 0,
                ..BoundedConfig::default()
            },
        )
        .unwrap();
        assert!(c2.bound().len() >= 2);
    }

    #[test]
    fn unbootstrapped_controller_still_recovers_before_quitting() {
        let model = two_server_model().without_notification(100.0).unwrap();
        let mut c = BoundedController::new(model, BoundedConfig::default()).unwrap();
        // Belief leaning toward "probably fine" but the fault is real.
        c.begin(Belief::from_probs(vec![0.25, 0.15, 0.6]).unwrap(), None)
            .unwrap();
        let mut world = 0usize; // Fault(a)
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
        assert_eq!(world, 2, "quit before recovering the fault");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let model = two_server_model().without_notification(10.0).unwrap();
        type Tweak = fn(&mut BoundedConfig);
        let build = |f: Tweak| {
            let mut config = BoundedConfig::default();
            f(&mut config);
            BoundedController::new(model.clone(), config)
        };
        let invalid: [(&str, Tweak); 11] = [
            ("root_threads 0", |c| c.root_threads = 0),
            ("root_threads 2", |c| c.root_threads = 2),
            ("branch_and_bound", |c| c.branch_and_bound = true),
            ("beta NaN", |c| c.beta = f64::NAN),
            ("beta inf", |c| c.beta = f64::INFINITY),
            ("beta 0", |c| c.beta = 0.0),
            ("beta -1", |c| c.beta = -1.0),
            ("beta 2", |c| c.beta = 2.0),
            ("gamma_cutoff NaN", |c| c.gamma_cutoff = f64::NAN),
            ("gamma_cutoff -1", |c| c.gamma_cutoff = -1.0),
            ("vector_cap 0", |c| c.vector_cap = Some(0)),
        ];
        for (case, f) in invalid {
            let err = build(f).expect_err(case);
            assert!(matches!(err, Error::InvalidInput { .. }), "{case}: {err:?}");
        }
        assert!(build(|_| {}).is_ok(), "the default config builds");
    }

    #[test]
    fn parallel_root_threads_are_rejected() {
        let model = two_server_model().without_notification(10.0).unwrap();
        let err = BoundedController::new(
            model,
            BoundedConfig {
                root_threads: 2,
                ..BoundedConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidInput { .. }), "{err:?}");
    }

    #[test]
    fn workspace_reuse_reports_cache_activity() {
        let mut c = controller(10.0, 3);
        c.begin(Belief::uniform(3), None).unwrap();
        let _ = c.decide().unwrap();
        let stats = c.plan_stats();
        assert!(stats.cache_hits + stats.cache_misses > 0);
    }

    #[test]
    fn low_operator_response_time_terminates_eagerly() {
        // With a tiny t_op, giving up is almost free, so from a very
        // uncertain belief the controller should terminate immediately.
        let mut c = controller(0.25, 1);
        c.begin(Belief::uniform(3), None).unwrap();
        assert_eq!(c.decide().unwrap(), Step::Terminate);
    }

    #[test]
    fn high_operator_response_time_keeps_recovering() {
        let mut c = controller(1000.0, 1);
        c.begin(Belief::uniform(3), None).unwrap();
        assert!(matches!(c.decide().unwrap(), Step::Execute(_)));
    }
}
