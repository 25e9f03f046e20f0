//! The recovery daemon: a round-based event loop with admission
//! control, bounded-queue backpressure, sharded incident stepping,
//! deterministic escalation, and durable checkpoints.
//!
//! # Determinism by construction
//!
//! The daemon runs in **logical rounds**. Per round it polls the
//! event source once (one tick), sheds or enqueues arrivals, admits
//! incidents up to `max_live`, then steps every live incident
//! `steps_per_round` decisions across the [`bpr_par::WorkPool`].
//! Every control decision — shedding, admission rung, escalation,
//! step caps, checkpoint cadence (count trigger) — is a pure function
//! of logical state (queue depth, decision counts, tick numbers),
//! never of wall-clock time. Wall-clock latency is *measured* against
//! the configured deadline and reported (p50/p99, miss counts), but it
//! never feeds back into control, so a run is bit-identical at any
//! shard width and across kill/resume. The optional wall-clock
//! checkpoint trigger only adds snapshots; snapshot content is itself
//! a pure function of logical state.

use crate::checkpoint::{LiveIncident, PartitionCache, PartitionOutcome, ServeCheckpoint};
use crate::event::EventSource;
use crate::incident::{Incident, IncidentRecord, IncidentStatus, Prototypes, RungKind};
use crate::report::{LatencyHistogram, ServeReport, ShedCounts};
use bpr_core::lint::{Diagnostic, LintCode};
use bpr_core::snapshot::{
    fnv1a64, retry_with_backoff, CheckpointPolicy, RetryPolicy, Sanitized, SnapshotError,
};
use bpr_core::{
    AnytimeConfig, AnytimeController, BoundedConfig, BoundedController, Error, LumpedController,
    RecoveryModel, ResilienceConfig, ResilientController,
};
use bpr_mdp::StateId;
use bpr_par::WorkPool;
use bpr_pomdp::LumpCertificate;
use bpr_sim::PerturbationPlan;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon configuration. All control-relevant fields are folded into
/// the checkpoint fingerprint; purely observed fields (`deadline`,
/// `shards`, `checkpoint`, `checkpoint_partitions`,
/// `expected_warnings`, `kill_after_rounds`, `verbose`) are not — a
/// snapshot may be resumed at a different shard width or partition
/// count.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently live incidents (admission cap).
    pub max_live: usize,
    /// Bounded admission queue; arrivals beyond this are shed with a
    /// typed, counted rejection. Never unbounded.
    pub queue_capacity: usize,
    /// Worker threads incidents are sharded over.
    pub shards: usize,
    /// Decisions per live incident per round.
    pub steps_per_round: usize,
    /// Per-incident decision cap; hitting it closes the incident as
    /// [`IncidentStatus::StepLimit`].
    pub max_steps: usize,
    /// Queue depth at admission time from which new incidents start
    /// directly on the anytime rung (degraded service under overload).
    pub degrade_queue_depth: usize,
    /// Decisions after which a bounded incident escalates to the
    /// resilient rung.
    pub escalate_resilient_after: usize,
    /// Decisions after which any incident escalates to the anytime
    /// rung.
    pub escalate_anytime_after: usize,
    /// Per-decision deadline — *observed*: decisions overrunning it
    /// are counted as misses, never interrupted.
    pub deadline: Duration,
    /// Operator response time `t_op` of the terminate action (paper
    /// §3.3).
    pub operator_response_time: f64,
    /// Expansion depth of the bounded rung.
    pub depth: usize,
    /// Probability-mass cutoff shared by all rungs.
    pub gamma_cutoff: f64,
    /// Node budget of the anytime rung.
    pub anytime_node_budget: usize,
    /// Plan the bounded rung on the lumped (state-aggregated) quotient
    /// of the transformed model instead of the full model. Sound by
    /// the `bpr_pomdp::lump` certificate — decisions match the full
    /// model — but control-relevant (it changes the planning model),
    /// so it is folded into the checkpoint fingerprint.
    pub lump: bool,
    /// World degradation applied to every incident (per-incident seeds
    /// are derived from `plan.seed` and the incident id).
    pub plan: PerturbationPlan,
    /// Master seed; incident `i` draws world randomness from stream
    /// `(master_seed, i)`.
    pub master_seed: u64,
    /// Durability: where and how often to checkpoint, `None` to run
    /// without snapshots.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Incident partitions the checkpoint is sharded over (`id %
    /// partitions`). More partitions mean smaller steady-state
    /// rewrites; resume reads whatever count the manifest records, so
    /// the value may change between runs.
    pub checkpoint_partitions: usize,
    /// Backoff schedule for transient checkpoint IO errors.
    pub retry: RetryPolicy,
    /// Lint codes this deployment has reviewed and accepted: matching
    /// warn/info findings are suppressed from the report's
    /// `lint_warnings` (and startup logs) and surface only as a
    /// suppressed count. Error findings still reject the model.
    pub expected_warnings: Vec<LintCode>,
    /// Record full per-incident decision sequences in the records
    /// (memory-proportional to decisions; meant for tests and drills).
    pub record_actions: bool,
    /// Chaos drill: incident ids whose first step deliberately panics,
    /// proving quarantine isolation end to end.
    pub chaos_panic_incidents: Vec<u64>,
    /// Kill drill: stop abruptly after this many rounds of the current
    /// process (a final snapshot is flushed), leaving live incidents
    /// for a resume.
    pub kill_after_rounds: Option<u64>,
    /// Log startup diagnostics (lint warnings, resume notices) to
    /// stderr.
    pub verbose: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_live: 8,
            queue_capacity: 64,
            shards: 1,
            steps_per_round: 1,
            max_steps: 60,
            degrade_queue_depth: 32,
            escalate_resilient_after: 12,
            escalate_anytime_after: 24,
            deadline: Duration::from_millis(50),
            operator_response_time: 50.0,
            depth: 1,
            gamma_cutoff: 1e-6,
            anytime_node_budget: 400,
            lump: true,
            plan: PerturbationPlan::none(),
            master_seed: 0,
            checkpoint: None,
            checkpoint_partitions: 4,
            retry: RetryPolicy::default(),
            expected_warnings: Vec::new(),
            record_actions: false,
            chaos_panic_incidents: Vec::new(),
            kill_after_rounds: None,
            verbose: false,
        }
    }
}

impl ServeConfig {
    /// Rejects configurations that cannot serve.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for zero capacities, caps, or shard
    /// counts, an escalation ladder out of order, or an invalid
    /// checkpoint/retry policy.
    pub fn validate(&self) -> Result<(), Error> {
        let positive = [
            ("max_live", self.max_live),
            ("queue_capacity", self.queue_capacity),
            ("shards", self.shards),
            ("steps_per_round", self.steps_per_round),
            ("max_steps", self.max_steps),
            ("checkpoint_partitions", self.checkpoint_partitions),
        ];
        for (name, value) in positive {
            if value == 0 {
                return Err(Error::InvalidInput {
                    detail: format!("serve config {name} must be at least 1"),
                });
            }
        }
        if self.escalate_resilient_after > self.escalate_anytime_after {
            return Err(Error::InvalidInput {
                detail: format!(
                    "escalation ladder out of order: resilient after {} > anytime after {}",
                    self.escalate_resilient_after, self.escalate_anytime_after
                ),
            });
        }
        if let Some(policy) = &self.checkpoint {
            policy.validate()?;
        }
        self.retry.validate()?;
        Ok(())
    }

    /// The fields that determine the run's canonical behaviour,
    /// hashed into the checkpoint fingerprint.
    fn fingerprint_text(&self) -> String {
        format!(
            "seed={} max_live={} queue={} steps_per_round={} max_steps={} degrade={} \
             esc_res={} esc_any={} t_op={:?} depth={} gamma={:?} budget={} lump={} plan={:?} \
             record={} chaos={:?}",
            self.master_seed,
            self.max_live,
            self.queue_capacity,
            self.steps_per_round,
            self.max_steps,
            self.degrade_queue_depth,
            self.escalate_resilient_after,
            self.escalate_anytime_after,
            self.operator_response_time,
            self.depth,
            self.gamma_cutoff,
            self.anytime_node_budget,
            self.lump,
            self.plan,
            self.record_actions,
            self.chaos_panic_incidents,
        )
    }
}

/// Pre-round snapshot of an incident's counters, used to synthesise a
/// typed quarantine record when its worker panics (the incident value
/// itself is lost to the unwind).
#[derive(Debug, Clone)]
struct QuarantineMeta {
    id: u64,
    fault: StateId,
    admitted_rung: RungKind,
    rung: RungKind,
    escalations: usize,
    steps: usize,
    cost: f64,
    decision_hash: u64,
    actions: Option<Vec<i64>>,
}

/// What one incident produced during one round.
struct RoundResult<'m> {
    live: Option<Incident<'m>>,
    record: Option<IncidentRecord>,
    latencies: Vec<u64>,
    escalated_resilient: u64,
    escalated_anytime: u64,
    decisions: u64,
}

/// The long-running recovery daemon (see the module docs).
pub struct Daemon<'m> {
    model: &'m RecoveryModel,
    config: ServeConfig,
    protos: Prototypes,
    pool: WorkPool,
    lint_warnings: Vec<Diagnostic>,
    suppressed_lint_warnings: u64,

    queue: VecDeque<StateId>,
    live: Vec<Incident<'m>>,
    records: Vec<IncidentRecord>,

    tick: u64,
    rounds: u64,
    next_id: u64,
    events_seen: u64,
    shed: ShedCounts,
    admitted: u64,
    degraded_admissions: u64,
    escalated_resilient: u64,
    escalated_anytime: u64,
    decisions: u64,

    latency: LatencyHistogram,
    deadline_misses: u64,

    resumed_from: Option<u64>,
    events_seen_at_start: u64,
    checkpoints_written: u64,
    snapshot_retries: u64,
    snapshot_error: Option<SnapshotError>,
    generation: u64,
    part_cache: PartitionCache,
    partition_errors: Vec<PartitionOutcome>,
    records_dropped: u64,
}

/// Transformed-state count above which `Prototypes::build` skips the
/// bounded controller's startup vertex sweeps (see the comment at the
/// use site). Matches the robustness bootstrap's cap.
const STARTUP_SWEEP_STATE_CAP: usize = 256;

impl Prototypes {
    /// Builds the three ladder controllers for `model` under
    /// `config`'s planning parameters (`operator_response_time`,
    /// `depth`, `gamma_cutoff`, `anytime_node_budget`). This is the
    /// expensive part of daemon startup — build once per model and
    /// share across daemons via [`Daemon::with_prototypes`].
    ///
    /// # Errors
    ///
    /// Transform or controller construction failures.
    pub fn build(model: &RecoveryModel, config: &ServeConfig) -> Result<Prototypes, Error> {
        let terminated = model.without_notification(config.operator_response_time)?;
        // The bounded rung plans on the lumped quotient when the
        // config asks for it (sound by the certificate; the
        // LumpedController adapter keeps the full-model belief
        // vocabulary at the daemon boundary). `lump: false` keeps the
        // same controller type behind an identity certificate.
        let (planning_model, certificate) = if config.lump {
            terminated.lump()?
        } else {
            let n = terminated.pomdp().n_states();
            (terminated.clone(), LumpCertificate::identity(n))
        };
        // The default startup vertex sweeps repair the raw RA-Bound on
        // paper-scale models, but above a few hundred transformed
        // states two full sweeps of point-belief backups dominate
        // construction (tens of single-threaded CPU-minutes for the
        // 10³-state corpus scenarios). Same policy as the robustness
        // bootstrap: keep the sweeps only where they are cheap. The
        // cap is checked on the *quotient* — lumping can pull a large
        // model back under it, which is part of the point.
        let startup_vertex_sweeps = if planning_model.pomdp().n_states() > STARTUP_SWEEP_STATE_CAP {
            0
        } else {
            BoundedConfig::default().startup_vertex_sweeps
        };
        let bounded_cfg = BoundedConfig {
            depth: config.depth,
            gamma_cutoff: config.gamma_cutoff,
            startup_vertex_sweeps,
            ..BoundedConfig::default()
        };
        let anytime_cfg = AnytimeConfig {
            node_budget: config.anytime_node_budget,
            gamma_cutoff: config.gamma_cutoff,
            ..AnytimeConfig::default()
        };
        let bounded = LumpedController::new(
            BoundedController::new(planning_model, bounded_cfg)?,
            certificate,
        );
        let anytime = AnytimeController::new(terminated, anytime_cfg)?;
        let resilient =
            ResilientController::new(model.clone(), bounded.clone(), ResilienceConfig::default())?
                .with_anytime(anytime.clone())?;
        Ok(Prototypes {
            bounded,
            resilient,
            anytime,
        })
    }
}

impl<'m> Daemon<'m> {
    /// Builds a daemon for `model`: validates the configuration and
    /// the perturbation plan, runs the lint gate (error findings
    /// reject the model; warnings are surfaced in startup logs and the
    /// report), and constructs the three ladder prototypes.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidInput`] for invalid configuration.
    /// * [`Error::Lint`] if the model has an error-severity finding.
    /// * Controller construction failures.
    pub fn new(model: &'m RecoveryModel, config: ServeConfig) -> Result<Daemon<'m>, Error> {
        let protos = Prototypes::build(model, &config)?;
        Daemon::with_prototypes(model, config, protos)
    }

    /// Like [`Daemon::new`], but reuses pre-built ladder prototypes
    /// (see [`Prototypes::build`]) instead of constructing them —
    /// controller construction dominates startup on large models, so
    /// a harness spinning up several daemons over the same model
    /// (reference runs, shard sweeps, kill/resume legs) should build
    /// once and clone.
    ///
    /// The prototypes must have been built for this `model` with the
    /// same planning parameters (`operator_response_time`, `depth`,
    /// `gamma_cutoff`, `anytime_node_budget`); other config fields
    /// (sharding, checkpointing, kill drills) are free to differ.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidInput`] for invalid configuration.
    /// * [`Error::Lint`] if the model has an error-severity finding.
    pub fn with_prototypes(
        model: &'m RecoveryModel,
        config: ServeConfig,
        protos: Prototypes,
    ) -> Result<Daemon<'m>, Error> {
        config.validate()?;
        config.plan.validate(model)?;
        let report = model.gate_report();
        if report.has_errors() {
            return Err(Error::Lint {
                report: report.clone(),
            });
        }
        let (expected, lint_warnings): (Vec<Diagnostic>, Vec<Diagnostic>) = report
            .diagnostics()
            .iter()
            .cloned()
            .partition(|d| config.expected_warnings.contains(&d.code));
        let suppressed_lint_warnings = expected.len() as u64;
        if config.verbose {
            for d in &lint_warnings {
                eprintln!("[bpr-serve] model lint: {d}");
            }
        }
        let pool = WorkPool::new(config.shards).map_err(|e| Error::InvalidInput {
            detail: format!("serve worker pool: {e}"),
        })?;
        Ok(Daemon {
            model,
            config,
            protos,
            pool,
            lint_warnings,
            suppressed_lint_warnings,
            queue: VecDeque::new(),
            live: Vec::new(),
            records: Vec::new(),
            tick: 0,
            rounds: 0,
            next_id: 0,
            events_seen: 0,
            shed: ShedCounts::default(),
            admitted: 0,
            degraded_admissions: 0,
            escalated_resilient: 0,
            escalated_anytime: 0,
            decisions: 0,
            latency: LatencyHistogram::default(),
            deadline_misses: 0,
            resumed_from: None,
            events_seen_at_start: 0,
            checkpoints_written: 0,
            snapshot_retries: 0,
            snapshot_error: None,
            generation: 0,
            part_cache: PartitionCache::default(),
            partition_errors: Vec::new(),
            records_dropped: 0,
        })
    }

    /// The model's warn/info lint findings (startup-surfaced).
    pub fn lint_warnings(&self) -> &[Diagnostic] {
        &self.lint_warnings
    }

    /// Session fingerprint: config, model shape, and event stream.
    fn fingerprint(&self, source: &dyn EventSource) -> u64 {
        let text = format!(
            "{} model={}x{}x{} source={:016x}",
            self.config.fingerprint_text(),
            self.model.base().n_states(),
            self.model.base().n_actions(),
            self.model.base().n_observations(),
            source.fingerprint(),
        );
        fnv1a64(text.as_bytes())
    }

    /// Runs the daemon until the source is exhausted and every queued
    /// and live incident has drained (or until the kill drill fires),
    /// then returns the report. A final snapshot is flushed on every
    /// exit path when a checkpoint policy is configured.
    ///
    /// # Errors
    ///
    /// Configuration/model errors from incident admission. Snapshot
    /// failures never abort the run — they are retried with backoff,
    /// then absorbed into the report (`snapshot_error`): durability
    /// degrades, service continues.
    pub fn run(&mut self, source: &mut dyn EventSource) -> Result<ServeReport, Error> {
        let start = Instant::now();
        self.try_resume(source)?;

        let mut exhausted = false;
        let mut killed = false;
        let mut rounds_this_run: u64 = 0;
        let mut rounds_since_cp: usize = 0;
        let mut last_cp = Instant::now();

        loop {
            if let Some(k) = self.config.kill_after_rounds {
                if rounds_this_run >= k
                    && !(exhausted && self.queue.is_empty() && self.live.is_empty())
                {
                    killed = true;
                    break;
                }
            }
            if !exhausted {
                match source.poll() {
                    Some(events) => {
                        self.tick += 1;
                        for e in events {
                            self.events_seen += 1;
                            if self.queue.len() >= self.config.queue_capacity {
                                self.shed.queue_full += 1;
                            } else {
                                self.queue.push_back(e.fault);
                            }
                        }
                    }
                    None => exhausted = true,
                }
            }
            self.admit()?;
            if !self.live.is_empty() {
                self.step_round();
            }
            self.rounds += 1;
            rounds_this_run += 1;
            rounds_since_cp += 1;

            if let Some(policy) = self.config.checkpoint.clone() {
                if policy.due(rounds_since_cp, last_cp.elapsed()) {
                    self.write_checkpoint(source);
                    rounds_since_cp = 0;
                    last_cp = Instant::now();
                }
            }
            if exhausted && self.queue.is_empty() && self.live.is_empty() {
                break;
            }
        }

        // Graceful drain and kill both flush a final snapshot.
        if self.config.checkpoint.is_some() {
            self.write_checkpoint(source);
        }

        let mut records = self.records.clone();
        records.sort_by_key(|r| r.id);
        Ok(ServeReport {
            events_seen: self.events_seen,
            shed: self.shed,
            admitted: self.admitted,
            degraded_admissions: self.degraded_admissions,
            escalated_resilient: self.escalated_resilient,
            escalated_anytime: self.escalated_anytime,
            decisions: self.decisions,
            records,
            live_at_exit: self.live.len() as u64,
            queued_at_exit: self.queue.len() as u64,
            ticks: self.tick,
            rounds: self.rounds,
            killed,
            resumed_from: self.resumed_from,
            events_seen_at_start: self.events_seen_at_start,
            checkpoints_written: self.checkpoints_written,
            snapshot_retries: self.snapshot_retries,
            snapshot_error: self.snapshot_error.clone(),
            partition_errors: self.partition_errors.clone(),
            records_dropped: self.records_dropped,
            lint_warnings: self.lint_warnings.clone(),
            suppressed_lint_warnings: self.suppressed_lint_warnings,
            transport: source.transport_counts(),
            latency: self.latency.clone(),
            deadline_misses: self.deadline_misses,
            deadline: self.config.deadline,
            wall_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Admits queued incidents while capacity allows. Under backlog at
    /// or beyond `degrade_queue_depth` the new incident starts
    /// directly on the anytime rung — a budgeted decision now beats a
    /// perfect decision after the deadline.
    fn admit(&mut self) -> Result<(), Error> {
        while self.live.len() < self.config.max_live {
            let backlog = self.queue.len();
            let Some(fault) = self.queue.pop_front() else {
                break;
            };
            let rung = if backlog >= self.config.degrade_queue_depth {
                RungKind::Anytime
            } else {
                RungKind::Bounded
            };
            let id = self.next_id;
            self.next_id += 1;
            self.admitted += 1;
            if rung == RungKind::Anytime {
                self.degraded_admissions += 1;
            }
            match Incident::admit(self.model, id, fault, rung, &self.protos, &self.config) {
                Ok(incident) => self.live.push(incident),
                // Typed failure record: admission itself failed, but
                // the incident is still accounted for (zero loss).
                Err(e) => self.records.push(IncidentRecord {
                    id,
                    fault,
                    status: IncidentStatus::ControllerError,
                    steps: 0,
                    cost: 0.0,
                    decision_hash: crate::incident::DECISION_HASH_SEED,
                    admitted_rung: rung,
                    final_rung: rung,
                    escalations: 0,
                    detail: e.to_string(),
                    actions: self.config.record_actions.then(Vec::new),
                }),
            }
        }
        Ok(())
    }

    /// Steps every live incident `steps_per_round` decisions, sharded
    /// over the pool with panic isolation. Results are consumed in
    /// index order, which keeps the live list deterministic at any
    /// shard width.
    fn step_round(&mut self) {
        let n = self.live.len();
        let meta: Vec<QuarantineMeta> = self
            .live
            .iter()
            .map(|i| QuarantineMeta {
                id: i.id,
                fault: i.fault,
                admitted_rung: i.admitted_rung,
                rung: i.rung_kind(),
                escalations: i.escalations,
                steps: i.steps,
                cost: i.cost,
                decision_hash: i.decision_hash,
                actions: i.actions.clone(),
            })
            .collect();
        let slots: Vec<Mutex<Option<Incident<'m>>>> =
            self.live.drain(..).map(|i| Mutex::new(Some(i))).collect();
        let protos = &self.protos;
        let config = &self.config;
        let steps = self.config.steps_per_round;

        let results = self.pool.map_indices_isolated(n, |i| {
            let mut incident = slots[i]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("incident slot must be occupied before its round");
            let mut out = RoundResult {
                live: None,
                record: None,
                latencies: Vec::with_capacity(steps),
                escalated_resilient: 0,
                escalated_anytime: 0,
                decisions: 0,
            };
            for _ in 0..steps {
                let step = incident.step(protos, config);
                out.decisions += 1;
                out.latencies.push(step.latency_ns);
                match step.escalated_to {
                    Some(RungKind::Resilient) => out.escalated_resilient += 1,
                    Some(RungKind::Anytime) => out.escalated_anytime += 1,
                    _ => {}
                }
                if let Some((status, detail)) = step.done {
                    out.record = Some(incident.into_record(status, detail));
                    return out;
                }
            }
            out.live = Some(incident);
            out
        });

        let deadline_ns = u64::try_from(self.config.deadline.as_nanos()).unwrap_or(u64::MAX);
        for result in results {
            match result {
                Ok(r) => {
                    self.decisions += r.decisions;
                    self.escalated_resilient += r.escalated_resilient;
                    self.escalated_anytime += r.escalated_anytime;
                    for ns in r.latencies {
                        self.latency.record(ns);
                        if ns > deadline_ns {
                            self.deadline_misses += 1;
                        }
                    }
                    if let Some(record) = r.record {
                        self.records.push(record);
                    } else if let Some(incident) = r.live {
                        self.live.push(incident);
                    }
                }
                Err(q) => {
                    let m = &meta[q.index];
                    self.records.push(IncidentRecord {
                        id: m.id,
                        fault: m.fault,
                        status: IncidentStatus::Quarantined,
                        steps: m.steps,
                        cost: m.cost,
                        decision_hash: m.decision_hash,
                        admitted_rung: m.admitted_rung,
                        final_rung: m.rung,
                        escalations: m.escalations,
                        detail: Sanitized(&q.payload).to_string(),
                        actions: m.actions.clone(),
                    });
                }
            }
        }
    }

    /// Attempts to resume from the configured checkpoint. A missing
    /// file is a fresh start; an unreadable or incompatible one is
    /// recorded in the report and degrades to a fresh start — a bad
    /// checkpoint never takes the service down.
    fn try_resume(&mut self, source: &mut dyn EventSource) -> Result<(), Error> {
        let Some(policy) = self.config.checkpoint.clone() else {
            return Ok(());
        };
        let (cp, generation, outcomes) = match ServeCheckpoint::load_partitioned(&policy.path) {
            Ok(None) => return Ok(()),
            Ok(Some(loaded)) => loaded,
            Err(e) => {
                self.snapshot_error = Some(e);
                return Ok(());
            }
        };
        let expected = self.fingerprint(source);
        if cp.fingerprint != expected {
            self.snapshot_error = Some(SnapshotError::Incompatible {
                detail: format!(
                    "checkpoint fingerprint {:016x} does not match session {expected:016x}",
                    cp.fingerprint
                ),
            });
            return Ok(());
        }
        // A well-formed checkpoint can still name a fault the model does
        // not have; admitting it would fail the run instead of the resume.
        let n_states = self.model.base().n_states();
        let faults = cp
            .live
            .iter()
            .map(|l| l.fault)
            .chain(cp.queue.iter().copied());
        if let Some(bad) = faults.into_iter().find(|f| f.index() >= n_states) {
            self.snapshot_error = Some(SnapshotError::malformed(format!(
                "checkpoint names fault {bad}, not a state of the {n_states}-state model"
            )));
            return Ok(());
        }
        if self.config.verbose {
            eprintln!(
                "[bpr-serve] resuming from tick {} ({} closed, {} live, {} degraded partitions)",
                cp.tick,
                cp.records.len(),
                cp.live.len(),
                outcomes.len(),
            );
        }
        self.generation = generation;
        self.events_seen_at_start = cp.events_seen;
        self.records_dropped = outcomes.iter().map(|o| o.records_dropped).sum();
        self.partition_errors = outcomes;
        self.tick = cp.tick;
        self.rounds = cp.rounds;
        self.next_id = cp.next_id;
        self.events_seen = cp.events_seen;
        self.shed.queue_full = cp.shed_queue_full;
        self.admitted = cp.admitted;
        self.degraded_admissions = cp.degraded_admissions;
        self.escalated_resilient = cp.escalated_resilient;
        self.escalated_anytime = cp.escalated_anytime;
        self.decisions = cp.decisions;
        self.queue = cp.queue.into_iter().collect();
        self.records = cp.records;
        self.resumed_from = Some(cp.tick);
        source.skip_ticks(cp.tick);

        // Replay every surviving incident from step 0 to its recorded
        // position: the controller, belief, world, and RNG states are
        // pure functions of (master_seed, id, admission rung), so this
        // reconstructs exactly what the killed run held. Counters were
        // restored from the checkpoint above, so replayed decisions
        // are not re-counted.
        for d in cp.live {
            let mut incident = Incident::admit(
                self.model,
                d.id,
                d.fault,
                d.admitted_rung,
                &self.protos,
                &self.config,
            )?;
            let mut done = None;
            while incident.steps < d.steps {
                let step = incident.step(&self.protos, &self.config);
                if let Some(terminal) = step.done {
                    // Unreachable for a faithful checkpoint (the
                    // incident was live at this step count); close it
                    // out defensively rather than diverge silently.
                    done = Some(terminal);
                    break;
                }
            }
            match done {
                Some((status, detail)) => self.records.push(incident.into_record(status, detail)),
                None => self.live.push(incident),
            }
        }
        Ok(())
    }

    /// Writes the current state as a partitioned checkpoint (dirty
    /// partitions first, manifest last) with capped
    /// exponential-backoff retry. Failures are absorbed (see
    /// [`Daemon::run`]).
    fn write_checkpoint(&mut self, source: &dyn EventSource) {
        let Some(policy) = self.config.checkpoint.clone() else {
            return;
        };
        self.generation += 1;
        let generation = self.generation;
        let partitions = u32::try_from(self.config.checkpoint_partitions).unwrap_or(u32::MAX);
        let cp = ServeCheckpoint {
            fingerprint: self.fingerprint(source),
            tick: self.tick,
            rounds: self.rounds,
            next_id: self.next_id,
            events_seen: self.events_seen,
            shed_queue_full: self.shed.queue_full,
            admitted: self.admitted,
            degraded_admissions: self.degraded_admissions,
            escalated_resilient: self.escalated_resilient,
            escalated_anytime: self.escalated_anytime,
            decisions: self.decisions,
            queue: self.queue.iter().copied().collect(),
            live: self
                .live
                .iter()
                .map(|i| LiveIncident {
                    id: i.id,
                    fault: i.fault,
                    admitted_rung: i.admitted_rung,
                    steps: i.steps,
                })
                .collect(),
            records: self.records.clone(),
        };
        let retry = self.config.retry.clone();
        let cache = &mut self.part_cache;
        let mut retries: u64 = 0;
        let written = retry_with_backoff(
            &retry,
            |_| cp.save_partitioned(&policy.path, partitions, generation, cache),
            |backoff| {
                retries += 1;
                std::thread::sleep(backoff);
            },
        );
        self.snapshot_retries += retries;
        match written {
            Ok(()) => self.checkpoints_written += 1,
            Err(e) => self.snapshot_error = Some(e),
        }
    }
}
