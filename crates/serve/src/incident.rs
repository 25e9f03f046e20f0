//! One live incident: a belief + controller + simulated world, stepped
//! by the daemon until it reaches a typed terminal status.
//!
//! Every incident climbs a deterministic **escalation ladder**:
//!
//! 1. [`RungKind::Bounded`] — the fused-kernel bounded controller, the
//!    paper's planner at full quality;
//! 2. [`RungKind::Resilient`] — the hardened decorator, entered after
//!    `escalate_resilient_after` decisions without termination;
//! 3. [`RungKind::Anytime`] — the budgeted anytime planner, entered
//!    after `escalate_anytime_after` decisions (or immediately at
//!    admission when the daemon is overloaded).
//!
//! Escalation is a pure function of the incident's decision count —
//! never of wall-clock time — so a serve run is bit-identical at any
//! shard width and across kill/resume. Wall-clock deadlines are
//! *observed* (measured and reported), not *acted on*.

use crate::daemon::ServeConfig;
use bpr_core::snapshot::SnapshotError;
use bpr_core::{
    AnytimeController, BoundedController, LumpedController, RecoveryController, RecoveryModel,
    ResilientController, Step,
};
use bpr_mdp::StateId;
use bpr_pomdp::Belief;
use bpr_sim::{detection_belief, DegradedWorld, PerturbationPlan, SimWorld};
use rand::rngs::StdRng;
use rand::{split_seed, SeedableRng};
use std::time::Instant;

/// Which rung of the escalation ladder a controller sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RungKind {
    /// Full-quality bounded planner.
    Bounded,
    /// Hardened [`ResilientController`] around the bounded planner.
    Resilient,
    /// Budgeted anytime planner (degraded service under overload).
    Anytime,
}

impl RungKind {
    /// Stable tag used in checkpoints and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RungKind::Bounded => "bounded",
            RungKind::Resilient => "resilient",
            RungKind::Anytime => "anytime",
        }
    }

    /// Parses [`RungKind::as_str`] output.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for an unknown tag.
    pub fn parse(s: &str) -> Result<RungKind, SnapshotError> {
        match s {
            "bounded" => Ok(RungKind::Bounded),
            "resilient" => Ok(RungKind::Resilient),
            "anytime" => Ok(RungKind::Anytime),
            other => Err(SnapshotError::Malformed {
                detail: format!("unknown rung {other:?}"),
            }),
        }
    }
}

/// How an incident ended. Every admitted incident reaches exactly one
/// of these — the "no silent loss" contract the soak harness gates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentStatus {
    /// The controller terminated with the world in a null-fault state.
    Recovered,
    /// The controller terminated while the fault was still present.
    TerminatedFaulty,
    /// The per-incident step cap cut the incident off.
    StepLimit,
    /// The controller returned a typed error mid-incident.
    ControllerError,
    /// The incident's worker panicked and was quarantined by the
    /// pool's isolation layer.
    Quarantined,
}

impl IncidentStatus {
    /// Stable tag used in checkpoints and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            IncidentStatus::Recovered => "recovered",
            IncidentStatus::TerminatedFaulty => "terminated-faulty",
            IncidentStatus::StepLimit => "step-limit",
            IncidentStatus::ControllerError => "controller-error",
            IncidentStatus::Quarantined => "quarantined",
        }
    }

    /// Parses [`IncidentStatus::as_str`] output.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for an unknown tag.
    pub fn parse(s: &str) -> Result<IncidentStatus, SnapshotError> {
        match s {
            "recovered" => Ok(IncidentStatus::Recovered),
            "terminated-faulty" => Ok(IncidentStatus::TerminatedFaulty),
            "step-limit" => Ok(IncidentStatus::StepLimit),
            "controller-error" => Ok(IncidentStatus::ControllerError),
            "quarantined" => Ok(IncidentStatus::Quarantined),
            other => Err(SnapshotError::Malformed {
                detail: format!("unknown incident status {other:?}"),
            }),
        }
    }
}

/// The closed-out record of one incident — the canonical unit the
/// determinism and zero-loss gates compare.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentRecord {
    /// Admission-order incident id (also its RNG stream index).
    pub id: u64,
    /// The injected fault behind the incident.
    pub fault: StateId,
    /// Terminal status.
    pub status: IncidentStatus,
    /// Decisions the controller made (terminate included).
    pub steps: usize,
    /// Accumulated cost (negated model rewards of executed actions).
    pub cost: f64,
    /// FNV-1a hash over the decision sequence — the compact witness
    /// that two runs made identical decisions.
    pub decision_hash: u64,
    /// Rung the incident was admitted on.
    pub admitted_rung: RungKind,
    /// Rung the incident ended on.
    pub final_rung: RungKind,
    /// Ladder escalations taken.
    pub escalations: usize,
    /// Error / panic payload for the failure statuses; empty otherwise.
    pub detail: String,
    /// Full decision sequence (`-1` = terminate), recorded only when
    /// [`ServeConfig::record_actions`] is set.
    pub actions: Option<Vec<i64>>,
}

/// The escalation-ladder prototypes, built once and cloned at
/// admission — incident startup must not pay planner construction
/// (bound bootstrap sweeps) per event.
///
/// Admission and escalation clone a prototype, and the clone shares
/// the prototype's POMDP (the models hold it behind an `Arc`), so the
/// per-admission cost is a detection-belief update plus a copy of the
/// rung's leaf bound and planning workspace — never O(model), and
/// never a lint: the degraded world reads the model's memoized
/// [`RecoveryModel::gate_report`], which cannot go stale because a
/// [`RecoveryModel`] is immutable.
///
/// Construction is the dominant daemon-startup cost on large models
/// (minutes at 10³ states), so a harness that runs *several* daemons
/// over the same model — reference run, shard sweep, kill/resume
/// legs — should call `Prototypes::build` once and hand each daemon
/// a clone via `Daemon::with_prototypes`.
#[derive(Debug, Clone)]
pub struct Prototypes {
    pub(crate) bounded: LumpedBounded,
    pub(crate) resilient: ResilientController<LumpedBounded>,
    pub(crate) anytime: AnytimeController,
}

/// The bounded rung as the daemon builds it: a bounded controller
/// planning on the (possibly identity-)lumped quotient, speaking the
/// full model's belief vocabulary through the certificate adapter.
pub(crate) type LumpedBounded = LumpedController<BoundedController>;

/// A live controller on some rung of the ladder. The resilient
/// decorator wraps a full bounded controller plus its anytime
/// fallback, so it is boxed to keep the variant sizes comparable.
#[derive(Debug, Clone)]
enum Rung {
    Bounded(LumpedBounded),
    Resilient(Box<ResilientController<LumpedBounded>>),
    Anytime(AnytimeController),
}

impl Rung {
    fn kind(&self) -> RungKind {
        match self {
            Rung::Bounded(_) => RungKind::Bounded,
            Rung::Resilient(_) => RungKind::Resilient,
            Rung::Anytime(_) => RungKind::Anytime,
        }
    }

    fn ctrl(&mut self) -> &mut dyn RecoveryController {
        match self {
            Rung::Bounded(c) => c,
            Rung::Resilient(c) => c.as_mut(),
            Rung::Anytime(c) => c,
        }
    }

    fn belief(&self) -> Option<Belief> {
        match self {
            Rung::Bounded(c) => c.belief(),
            Rung::Resilient(c) => c.belief(),
            Rung::Anytime(c) => c.belief(),
        }
    }

    fn from_proto(protos: &Prototypes, kind: RungKind) -> Rung {
        match kind {
            RungKind::Bounded => Rung::Bounded(protos.bounded.clone()),
            RungKind::Resilient => Rung::Resilient(Box::new(protos.resilient.clone())),
            RungKind::Anytime => Rung::Anytime(protos.anytime.clone()),
        }
    }
}

/// What one [`Incident::step`] produced, for the daemon's accounting.
#[derive(Debug)]
pub(crate) struct StepOutcome {
    /// Terminal status + detail, or `None` while the incident lives.
    pub done: Option<(IncidentStatus, String)>,
    /// Wall-clock nanoseconds the decision took (observed, never fed
    /// back into control).
    pub latency_ns: u64,
    /// Ladder rung entered by this step, if any.
    pub escalated_to: Option<RungKind>,
}

/// One live incident (see the module docs).
#[derive(Debug)]
pub(crate) struct Incident<'m> {
    pub id: u64,
    pub fault: StateId,
    pub admitted_rung: RungKind,
    pub escalations: usize,
    pub steps: usize,
    pub cost: f64,
    pub decision_hash: u64,
    pub actions: Option<Vec<i64>>,
    model: &'m RecoveryModel,
    rung: Rung,
    world: DegradedWorld<'m>,
    rng: StdRng,
}

/// FNV-1a continuation: folds `value` into a running decision hash.
fn fold_hash(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seed of the FNV-1a decision hash (the standard offset basis).
pub(crate) const DECISION_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

impl<'m> Incident<'m> {
    /// Admits a new incident: builds its degraded world on a private
    /// RNG stream, conditions the initial belief on the detection
    /// observation (same protocol as the episode harness), and begins
    /// a controller cloned from the `rung` prototype.
    ///
    /// # Errors
    ///
    /// Propagates world construction and controller `begin` failures.
    pub fn admit(
        model: &'m RecoveryModel,
        id: u64,
        fault: StateId,
        rung_kind: RungKind,
        protos: &Prototypes,
        config: &ServeConfig,
    ) -> Result<Incident<'m>, bpr_core::Error> {
        let plan = PerturbationPlan {
            seed: split_seed(config.plan.seed, id),
            ..config.plan.clone()
        };
        let mut world = DegradedWorld::new(model, fault, plan)?;
        let mut rng = StdRng::seed_from_stream(config.master_seed, id);
        let mut rung = Rung::from_proto(protos, rung_kind);
        let initial = detection_belief(model, rung.ctrl().uses_monitors(), &mut world, &mut rng)?;
        rung.ctrl().begin(initial, Some(fault))?;
        Ok(Incident {
            id,
            fault,
            admitted_rung: rung_kind,
            escalations: 0,
            steps: 0,
            cost: 0.0,
            decision_hash: DECISION_HASH_SEED,
            actions: config.record_actions.then(Vec::new),
            model,
            rung,
            world,
            rng,
        })
    }

    /// Current ladder rung.
    pub fn rung_kind(&self) -> RungKind {
        self.rung.kind()
    }

    /// Moves the controller up the ladder, handing the current belief
    /// to the next rung (falling back to the uniform fault prior when
    /// the rung exposes none).
    fn escalate(&mut self, protos: &Prototypes, to: RungKind) -> Result<(), bpr_core::Error> {
        let model = self.model;
        let belief = self.rung.belief().unwrap_or_else(|| {
            Belief::uniform_over(model.base().n_states(), &model.fault_states())
        });
        let mut next = Rung::from_proto(protos, to);
        next.ctrl().begin(belief, Some(self.fault))?;
        self.rung = next;
        self.escalations += 1;
        Ok(())
    }

    /// Runs one decision: escalates if the ladder says so, asks the
    /// controller, executes the action against the world, and delivers
    /// the observation.
    ///
    /// # Panics
    ///
    /// Panics deliberately when the daemon's chaos drill names this
    /// incident — the panic is caught by the pool's isolation layer
    /// and surfaces as a quarantine, which is exactly what the drill
    /// verifies.
    pub fn step(&mut self, protos: &Prototypes, config: &ServeConfig) -> StepOutcome {
        if config.chaos_panic_incidents.contains(&self.id) {
            // Chaos drill: a poisoned incident must not kill the
            // daemon; map_indices_isolated turns this into a typed
            // quarantine record.
            panic!("chaos drill: incident {} poisoned by config", self.id);
        }
        let mut escalated_to = None;
        let target = if self.steps >= config.escalate_anytime_after {
            RungKind::Anytime
        } else if self.steps >= config.escalate_resilient_after {
            RungKind::Resilient
        } else {
            RungKind::Bounded
        };
        if target > self.rung.kind() {
            if let Err(e) = self.escalate(protos, target) {
                return StepOutcome {
                    done: Some((IncidentStatus::ControllerError, e.to_string())),
                    latency_ns: 0,
                    escalated_to: None,
                };
            }
            escalated_to = Some(target);
        }

        let t0 = Instant::now();
        let decision = self.rung.ctrl().decide();
        let latency_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let done = match decision {
            Err(e) => Some((IncidentStatus::ControllerError, e.to_string())),
            Ok(Step::Terminate) => {
                self.steps += 1;
                self.decision_hash = fold_hash(self.decision_hash, u64::MAX);
                if let Some(actions) = &mut self.actions {
                    actions.push(-1);
                }
                if self.world.recovered() {
                    Some((IncidentStatus::Recovered, String::new()))
                } else {
                    Some((IncidentStatus::TerminatedFaulty, String::new()))
                }
            }
            Ok(Step::Execute(a)) => {
                self.steps += 1;
                self.decision_hash = fold_hash(self.decision_hash, a.index() as u64);
                if let Some(actions) = &mut self.actions {
                    actions.push(i64::try_from(a.index()).unwrap_or(i64::MAX));
                }
                self.cost += -self.model.base().mdp().reward(self.world.true_state(), a);
                let result = self.world.step_world(&mut self.rng, a);
                let delivered = if self.rung.ctrl().uses_monitors() {
                    match result.observation {
                        Some(obs) => self.rung.ctrl().observe(a, obs),
                        None => self.rung.ctrl().on_unobserved(a),
                    }
                } else {
                    Ok(())
                };
                match delivered {
                    Err(e) => Some((IncidentStatus::ControllerError, e.to_string())),
                    Ok(()) if self.steps >= config.max_steps => {
                        Some((IncidentStatus::StepLimit, String::new()))
                    }
                    Ok(()) => None,
                }
            }
        };
        StepOutcome {
            done,
            latency_ns,
            escalated_to,
        }
    }

    /// Closes the incident into its permanent record.
    pub fn into_record(self, status: IncidentStatus, detail: String) -> IncidentRecord {
        IncidentRecord {
            id: self.id,
            fault: self.fault,
            status,
            steps: self.steps,
            cost: self.cost,
            decision_hash: self.decision_hash,
            admitted_rung: self.admitted_rung,
            final_rung: self.rung.kind(),
            escalations: self.escalations,
            detail,
            actions: self.actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_and_status_tags_roundtrip() {
        for k in [RungKind::Bounded, RungKind::Resilient, RungKind::Anytime] {
            assert_eq!(RungKind::parse(k.as_str()).unwrap(), k);
        }
        for s in [
            IncidentStatus::Recovered,
            IncidentStatus::TerminatedFaulty,
            IncidentStatus::StepLimit,
            IncidentStatus::ControllerError,
            IncidentStatus::Quarantined,
        ] {
            assert_eq!(IncidentStatus::parse(s.as_str()).unwrap(), s);
        }
        assert!(RungKind::parse("x").is_err());
        assert!(IncidentStatus::parse("x").is_err());
    }

    #[test]
    fn rungs_share_the_prototype_pomdp() {
        use bpr_pomdp::Pomdp;
        use std::ptr::eq;
        let model = bpr_emn::two_server::default_model().unwrap();
        let protos = Prototypes::build(&model, &ServeConfig::default()).unwrap();
        let bounded = |c: &LumpedBounded| -> *const Pomdp { c.inner().model().pomdp() };
        let anytime = |c: &AnytimeController| -> *const Pomdp { c.model().pomdp() };
        match Rung::from_proto(&protos, RungKind::Bounded) {
            Rung::Bounded(c) => assert!(eq(bounded(&c), bounded(&protos.bounded))),
            _ => unreachable!(),
        }
        match Rung::from_proto(&protos, RungKind::Anytime) {
            Rung::Anytime(c) => assert!(eq(anytime(&c), anytime(&protos.anytime))),
            _ => unreachable!(),
        }
        match Rung::from_proto(&protos, RungKind::Resilient) {
            Rung::Resilient(c) => {
                let p = &protos.resilient;
                assert!(eq(c.model().base(), p.model().base()));
                assert!(eq(c.model().base(), model.base()));
                assert!(eq(bounded(c.inner()), bounded(p.inner())));
                assert!(eq(
                    anytime(c.anytime().unwrap()),
                    anytime(p.anytime().unwrap())
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn ladder_orders_rungs() {
        assert!(RungKind::Bounded < RungKind::Resilient);
        assert!(RungKind::Resilient < RungKind::Anytime);
    }

    #[test]
    fn decision_hash_is_order_sensitive() {
        let a = fold_hash(fold_hash(DECISION_HASH_SEED, 1), 2);
        let b = fold_hash(fold_hash(DECISION_HASH_SEED, 2), 1);
        assert_ne!(a, b);
    }
}
