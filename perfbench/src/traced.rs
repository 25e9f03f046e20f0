//! Wrappers the traced run puts around each layer's public interface:
//! an [`EventSource`] that times ingest and the daemon rounds between
//! polls, a [`RecoveryController`] that times `decide` and `observe`,
//! a [`ValueBound`] that counts and times leaf evaluations, and a
//! bounded-rung controller built from the public planning calls so the
//! tree expansion and online backups can be timed from outside.

use crate::report::{metric, Metric};
use crate::trace::{self, Span};
use bpr_core::{
    BoundedConfig, BoundedController, Error, RecoveryController, Step, TerminatedModel,
};
use bpr_mdp::{ActionId, StateId};
use bpr_pomdp::backup::incremental_backup;
use bpr_pomdp::bounds::{ValueBound, VectorSetBound};
use bpr_pomdp::{tree, Belief, CacheEpoch, ObservationId, PlanStats, PlanWorkspace};
use bpr_serve::{EventSource, IncidentEvent, TransportCounts};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Counts gathered by the wrappers on this thread (spans carry the
/// times; these carry the work done inside them).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// Leaf-bound evaluations.
    pub leaf_evals: u64,
    /// Summed wall time of those evaluations, ns.
    pub leaf_eval_ns: u64,
    /// Bounded-rung decisions planned by [`TracedBounded`].
    pub bounded_plans: u64,
    /// Tree nodes those decisions expanded.
    pub nodes: u64,
    /// Hyperplanes in the leaf bound, summed over those decisions.
    pub hyperplanes: u64,
    /// Incremental backups performed.
    pub backups: u64,
    /// Hyperplanes those backups added.
    pub vectors_added: u64,
    /// Transposition-cache hits of retired planning workspaces.
    pub cache_hits: u64,
    /// Transposition-cache misses of retired planning workspaces.
    pub cache_misses: u64,
    /// Cache hits whose entry came from an earlier decision.
    pub cross_decision_hits: u64,
}

thread_local! {
    static COUNTS: Cell<LayerCounts> = Cell::new(LayerCounts::default());
}

fn bump(f: impl FnOnce(&mut LayerCounts)) {
    COUNTS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// Returns the counts gathered so far and resets them.
pub fn take_counts() -> LayerCounts {
    COUNTS.with(|c| c.replace(LayerCounts::default()))
}

/// Records the counts of a planning workspace that is being retired.
fn retire_plan_stats(stats: &PlanStats) {
    bump(|c| {
        c.cache_hits += stats.cache_hits;
        c.cache_misses += stats.cache_misses;
        c.cross_decision_hits += stats.cross_decision_hits;
    });
}

/// Records one incremental backup that added `added` hyperplanes.
pub fn count_backup(added: u64) {
    bump(|c| {
        c.backups += 1;
        c.vectors_added += added;
    });
}

/// Records one planned decision: tree nodes expanded and hyperplanes in
/// the leaf bound it read.
pub fn count_plan(nodes: u64, hyperplanes: u64) {
    bump(|c| {
        c.bounded_plans += 1;
        c.nodes += nodes;
        c.hyperplanes += hyperplanes;
    });
}

/// Counts and times leaf evaluations of the wrapped bound while
/// tracing is on, and only forwards them while it is off. Forwards
/// `value_weights`, so evaluation stays allocation-free and returns
/// the wrapped bound's exact bits.
pub struct CountingBound<'a>(pub &'a VectorSetBound);

impl CountingBound<'_> {
    fn timed(&self, eval: impl FnOnce() -> f64) -> f64 {
        if !trace::enabled() {
            return eval();
        }
        let t = Instant::now();
        let v = eval();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        bump(|c| {
            c.leaf_evals += 1;
            c.leaf_eval_ns += ns;
        });
        v
    }
}

impl ValueBound for CountingBound<'_> {
    fn value(&self, belief: &Belief) -> f64 {
        self.timed(|| self.0.value(belief))
    }

    fn value_weights(&self, weights: &[f64]) -> f64 {
        self.timed(|| self.0.value_weights(weights))
    }
}

/// The bounded rung rebuilt from public calls: same model, bound and
/// configuration as a [`BoundedController`] on the sequential
/// (non-branch-and-bound, one root thread) path, with the online
/// backup, tree expansion and belief update each under its own span
/// and the leaf bound behind [`CountingBound`]. Decisions are
/// bit-identical to the library controller's; the traced run checks
/// that against the daemon's records.
#[derive(Debug, Clone)]
pub struct TracedBounded {
    model: TerminatedModel,
    bound: VectorSetBound,
    config: BoundedConfig,
    belief: Option<Belief>,
    terminated: bool,
    workspace: PlanWorkspace,
}

impl TracedBounded {
    /// Takes over a constructed controller's model, bound and config.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for configurations this path does not
    /// reproduce (branch-and-bound or root-parallel expansion).
    pub fn from_controller(c: &BoundedController) -> Result<TracedBounded, Error> {
        if c.config().branch_and_bound || c.config().root_threads != 1 {
            return Err(Error::InvalidInput {
                detail: "traced bounded rung reproduces the sequential path only".into(),
            });
        }
        Ok(TracedBounded {
            model: c.model().clone(),
            bound: c.bound().clone(),
            config: c.config().clone(),
            belief: None,
            terminated: false,
            workspace: PlanWorkspace::new(),
        })
    }
}

impl Drop for TracedBounded {
    fn drop(&mut self) {
        retire_plan_stats(self.workspace.stats());
    }
}

impl RecoveryController for TracedBounded {
    fn name(&self) -> &str {
        "bounded"
    }

    fn begin(&mut self, initial: Belief, _true_fault: Option<StateId>) -> Result<(), Error> {
        let n = self.model.pomdp().n_states();
        let lifted = if initial.n_states() + 1 == n {
            self.model.extend_belief(&initial)?
        } else if initial.n_states() == n {
            initial
        } else {
            return Err(Error::InvalidInput {
                detail: format!("initial belief covers {} states", initial.n_states()),
            });
        };
        self.belief = Some(lifted);
        self.terminated = false;
        Ok(())
    }

    fn decide(&mut self) -> Result<Step, Error> {
        if self.terminated {
            return Err(Error::AlreadyTerminated);
        }
        let belief = self.belief.clone().ok_or(Error::NotStarted)?;
        if self.config.backup_online {
            let _span = trace::span("backup", 0);
            let before = self.bound.len();
            incremental_backup(
                self.model.pomdp(),
                &mut self.bound,
                &belief,
                self.config.beta,
            )
            .map_err(Error::Pomdp)?;
            count_backup((self.bound.len() - before) as u64);
            if let Some(cap) = self.config.vector_cap {
                self.bound.evict_to(cap);
            }
        }
        let epoch = CacheEpoch {
            model_fingerprint: self.model.pomdp().fingerprint(),
            bound_generation: self.bound.generation(),
            beta_bits: self.config.beta.to_bits(),
            cutoff_bits: self.config.gamma_cutoff.to_bits(),
        };
        {
            let _span = trace::span("tree.expand", 0);
            tree::expand_with_workspace_epoch(
                self.model.pomdp(),
                &belief,
                self.config.depth,
                &CountingBound(&self.bound),
                self.config.beta,
                self.config.gamma_cutoff,
                epoch,
                &mut self.workspace,
            )
            .map_err(Error::Pomdp)?;
        }
        let a_t = self.model.terminate_action();
        let d = self.workspace.decision();
        let (action, value, q_at_terminate) = (d.action, d.value, d.q_values[a_t.index()]);
        count_plan(d.nodes_expanded as u64, self.bound.len() as u64);
        let terminate = action == a_t
            || (self.config.prefer_terminate_on_tie && q_at_terminate >= value - 1e-12);
        if terminate {
            self.terminated = true;
            return Ok(Step::Terminate);
        }
        Ok(Step::Execute(action))
    }

    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
        let belief = self.belief.as_ref().ok_or(Error::NotStarted)?;
        if !self.model.is_base_action(action) {
            return Err(Error::InvalidInput {
                detail: "cannot observe after the terminate action".into(),
            });
        }
        let _span = trace::span("belief.update", 0);
        let (next, _) = belief
            .update(self.model.pomdp(), action, o)
            .map_err(Error::Pomdp)?;
        self.belief = Some(next);
        Ok(())
    }

    fn belief(&self) -> Option<Belief> {
        self.belief.as_ref().and_then(|b| {
            let base: Vec<f64> = b.probs()[..b.n_states() - 1].to_vec();
            let sum: f64 = base.iter().sum();
            let probs = if sum > 0.0 {
                base.iter().map(|p| p / sum).collect()
            } else {
                base
            };
            Belief::from_probs(probs).ok()
        })
    }
}

/// Times `decide` (under `decide_span`) and `observe` of any
/// controller.
#[derive(Debug, Clone)]
pub struct Timed<C> {
    /// The wrapped controller.
    pub inner: C,
    decide_span: &'static str,
}

impl<C> Timed<C> {
    /// Wraps `inner`, naming its decide spans `decide_span`.
    pub fn new(inner: C, decide_span: &'static str) -> Timed<C> {
        Timed { inner, decide_span }
    }
}

impl<C: RecoveryController> RecoveryController for Timed<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, initial: Belief, true_fault: Option<StateId>) -> Result<(), Error> {
        let _span = trace::span("controller.begin", 0);
        self.inner.begin(initial, true_fault)
    }

    fn decide(&mut self) -> Result<Step, Error> {
        let _span = trace::span(self.decide_span, 0);
        self.inner.decide()
    }

    fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
        let _span = trace::span("observe", 0);
        self.inner.observe(action, o)
    }

    fn belief(&self) -> Option<Belief> {
        self.inner.belief()
    }

    fn on_unobserved(&mut self, action: ActionId) -> Result<(), Error> {
        let _span = trace::span("observe", 0);
        self.inner.on_unobserved(action)
    }

    fn resilience_stats(&self) -> Option<bpr_core::ResilienceStats> {
        self.inner.resilience_stats()
    }

    fn uses_monitors(&self) -> bool {
        self.inner.uses_monitors()
    }
}

/// Times each `poll` (ingest and frame decode) as `transport.poll` and
/// each stretch between polls — one daemon round: admission, stepping,
/// checkpointing — as `daemon.round`. Call [`TracedSource::finish`]
/// after the run to close the last round.
pub struct TracedSource<'a> {
    inner: &'a mut dyn EventSource,
    round: Option<usize>,
    tick: u64,
}

impl<'a> TracedSource<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn EventSource) -> TracedSource<'a> {
        TracedSource {
            inner,
            round: None,
            tick: 0,
        }
    }

    /// Closes the open round span.
    pub fn finish(mut self) {
        trace::close(self.round.take());
    }
}

impl EventSource for TracedSource<'_> {
    fn poll(&mut self) -> Option<Vec<IncidentEvent>> {
        trace::close(self.round.take());
        let events = {
            let _span = trace::span("transport.poll", self.tick);
            self.inner.poll()
        };
        self.tick += 1;
        self.round = trace::open("daemon.round", self.tick);
        events
    }

    fn skip_ticks(&mut self, n: u64) {
        self.inner.skip_ticks(n);
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn transport_counts(&self) -> Option<TransportCounts> {
        self.inner.transport_counts()
    }
}

/// Per-layer metric names and units, in output order (the `per_layer`
/// list of `BENCHMARK.json`).
pub const PER_LAYER: [(&str, &str); 32] = [
    ("tree.nodes_per_decision", "count"),
    ("tree.expand_self_ms", "ms"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.cross_decision_hits", "count"),
    ("bounds.leaf_evals_per_decision", "count"),
    ("bounds.leaf_eval_ns", "ns"),
    ("bounds.hyperplanes", "count"),
    ("backup.count", "count"),
    ("backup.self_ms", "ms"),
    ("backup.vectors_added", "count"),
    ("belief.update_us", "us"),
    ("world.step_us", "us"),
    ("daemon.admit_ms_per_incident", "ms"),
    ("daemon.round_self_ms", "ms"),
    ("daemon.rounds", "count"),
    ("daemon.degraded_admissions", "count"),
    ("ladder.decisions_bounded", "count"),
    ("ladder.decisions_resilient", "count"),
    ("ladder.decisions_anytime", "count"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes_per_write", "bytes"),
    ("checkpoint.write_ms", "ms"),
    ("transport.frames_decoded", "count"),
    ("transport.decode_ns_per_frame", "ns"),
    ("transport.frames_rejected", "count"),
    ("setup.lump_s", "s"),
    ("setup.ra_bound_s", "s"),
    ("setup.prototypes_s", "s"),
    ("setup.ceiling_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.decisions", "count"),
];

/// Share of a traced run's wall time its top-level spans may leave
/// uncovered before the run fails.
pub const COVERAGE_SLACK: f64 = 0.05;

/// Share of `wall_ns` the top-level spans cover (`top_ns`); fails when
/// it falls short of `1 - COVERAGE_SLACK`.
///
/// # Errors
///
/// Coverage below the slack.
pub fn coverage(workload: &str, top_ns: u64, wall_ns: u64) -> Result<f64, String> {
    let share = per(top_ns as f64, wall_ns);
    if share < 1.0 - COVERAGE_SLACK {
        return Err(format!(
            "{workload}: top-level spans cover {share:.3} of the traced wall time"
        ));
    }
    Ok(share)
}

/// `num / den`, or 0 for an empty base.
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Every [`PER_LAYER`] metric: those the shared wrappers measure, from
/// `spans` and `c`, plus the workload's own in `extra`. A layer the
/// workload does not exercise reads 0.
pub fn layer_metrics(spans: &[Span], c: LayerCounts, extra: &[(&str, f64)]) -> Vec<Metric> {
    let t = trace::totals_by_name(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mean_us = |name: &str| per(get(name).total_ns as f64 / 1e3, get(name).count);
    let secs = |name: &str| get(name).total_ns as f64 / 1e9;
    let mut values: BTreeMap<&str, f64> = [
        (
            "tree.nodes_per_decision",
            per(c.nodes as f64, c.bounded_plans),
        ),
        ("tree.expand_self_ms", ms(get("tree.expand").self_ns)),
        (
            "plan.cache_hit_ratio",
            per(c.cache_hits as f64, c.cache_hits + c.cache_misses),
        ),
        ("plan.cross_decision_hits", c.cross_decision_hits as f64),
        (
            "bounds.leaf_evals_per_decision",
            per(c.leaf_evals as f64, c.bounded_plans),
        ),
        (
            "bounds.leaf_eval_ns",
            per(c.leaf_eval_ns as f64, c.leaf_evals),
        ),
        (
            "bounds.hyperplanes",
            per(c.hyperplanes as f64, c.bounded_plans),
        ),
        ("backup.count", c.backups as f64),
        ("backup.self_ms", ms(get("backup").self_ns)),
        ("backup.vectors_added", c.vectors_added as f64),
        ("belief.update_us", mean_us("observe")),
        ("world.step_us", mean_us("world.step")),
        ("setup.lump_s", secs("setup.lump")),
        ("setup.ra_bound_s", secs("setup.ra_bound")),
        ("setup.prototypes_s", secs("setup.prototypes")),
        ("setup.ceiling_s", secs("setup.ceiling")),
    ]
    .into_iter()
    .collect();
    values.extend(extra.iter().copied());
    debug_assert!(values.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}
