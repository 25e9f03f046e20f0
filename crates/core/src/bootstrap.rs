//! The bootstrapping phase of the recovery controller (paper §4.1):
//! off-line iterative improvement of the lower bound by simulating
//! monitor outputs and backing up at the visited belief states.
//!
//! One engine serves every entry point. `episode_start` draws an
//! episode's ground-truth fault and initial belief, and `walk_episode`
//! runs the plan → terminate? → sample → Bayes-update loop around a
//! caller-supplied step. [`bootstrap`] steps by backing up into the
//! live bound and planning on it; [`bootstrap_par`]'s rounds step by
//! recording the belief and planning on a frozen copy, then merge the
//! recorded backups in episode order; [`bootstrap_updates`] takes one
//! backup at each episode start.

use crate::snapshot::{
    fnv1a64, read_snapshot, write_snapshot, CheckpointPolicy, Joined, PayloadReader, PayloadWriter,
    SnapshotError,
};
use crate::{Error, TerminatedModel};
use bpr_mdp::{ActionId, StateId};
use bpr_par::WorkPool;
use bpr_pomdp::bounds::{ValueBound, VectorSetBound};
use bpr_pomdp::{tree, Belief, Pomdp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// How bootstrap episodes choose their initial belief (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootstrapVariant {
    /// "Random": a fault is drawn uniformly, an observation is sampled
    /// from the monitors, and the episode starts from the belief
    /// conditioned on that observation.
    Random,
    /// "Average": the episode starts from the belief in which all
    /// faults are equally likely.
    Average,
}

/// Configuration of the bootstrap procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapConfig {
    /// Initial-belief scheme.
    pub variant: BootstrapVariant,
    /// Number of simulated recovery episodes.
    pub iterations: usize,
    /// Tree depth used for action selection inside the episodes.
    pub depth: usize,
    /// Safety cap on steps per episode.
    pub max_steps: usize,
    /// Discount factor (1.0 for the recovery criterion).
    pub beta: f64,
    /// Optional cap on stored bound vectors (least-used eviction).
    pub vector_cap: Option<usize>,
    /// The action used to condition the initial belief in the
    /// [`BootstrapVariant::Random`] scheme — typically the monitor
    /// (observe) action of the model.
    pub conditioning_action: ActionId,
    /// Observation branches with probability at or below this are
    /// pruned during the in-episode tree expansions.
    pub gamma_cutoff: f64,
}

impl Default for BootstrapConfig {
    fn default() -> BootstrapConfig {
        BootstrapConfig {
            variant: BootstrapVariant::Average,
            iterations: 10,
            depth: 2,
            max_steps: 50,
            beta: 1.0,
            vector_cap: None,
            conditioning_action: ActionId::new(0),
            gamma_cutoff: 1e-4,
        }
    }
}

impl BootstrapConfig {
    /// Checks the numeric invariants every bootstrap entry point needs.
    ///
    /// Zero `iterations` (a no-op run) and zero `max_steps` are legal.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInput`] for a zero tree depth, a `beta` outside
    /// `(0, 1]` or non-finite, a negative or non-finite `gamma_cutoff`,
    /// or a zero `vector_cap`.
    pub fn validate(&self) -> Result<(), Error> {
        if self.depth == 0 {
            return Err(Error::InvalidInput {
                detail: "bootstrap tree depth must be at least 1".into(),
            });
        }
        if !(self.beta.is_finite() && self.beta > 0.0 && self.beta <= 1.0) {
            return Err(Error::InvalidInput {
                detail: format!("bootstrap beta must be in (0, 1], got {}", self.beta),
            });
        }
        if !self.gamma_cutoff.is_finite() || self.gamma_cutoff < 0.0 {
            return Err(Error::InvalidInput {
                detail: format!(
                    "bootstrap gamma cutoff must be finite and non-negative, got {}",
                    self.gamma_cutoff
                ),
            });
        }
        if self.vector_cap == Some(0) {
            return Err(Error::InvalidInput {
                detail: "bootstrap vector cap of 0 would evict every hyperplane".into(),
            });
        }
        Ok(())
    }
}

/// Per-iteration progress of the bound (the series plotted in the
/// paper's Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Lower-bound value at the uniform belief `{1/|S|}` (negative; its
    /// negation is the paper's "upper bound on cost").
    pub bound_at_uniform: f64,
    /// Number of hyperplanes in the bound set after the iteration.
    pub n_vectors: usize,
}

/// The result of a bootstrap run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BootstrapReport {
    /// One record per iteration, in order.
    pub records: Vec<IterationRecord>,
    /// Total incremental backups performed across the whole run — the
    /// work unit behind the scaling benchmark's backups/sec metric.
    pub total_backups: usize,
}

impl BootstrapReport {
    /// The bound value at the uniform belief after the final iteration.
    pub fn final_bound_at_uniform(&self) -> Option<f64> {
        self.records.last().map(|r| r.bound_at_uniform)
    }

    /// Records where `bound` stands after `iteration`.
    fn record(&mut self, iteration: usize, bound: &VectorSetBound, uniform_eval: &Belief) {
        self.records.push(IterationRecord {
            iteration,
            bound_at_uniform: bound.value(uniform_eval),
            n_vectors: bound.len(),
        });
    }
}

/// Runs the bootstrap procedure, improving `bound` in place.
///
/// Each iteration simulates one recovery episode against ground truth
/// sampled from the model itself: a fault is drawn uniformly from the
/// fault states, the controller logic (tree expansion over the current
/// bound) picks actions, monitors are simulated through `q`, and an
/// incremental backup is performed at every belief the episode visits.
///
/// # Errors
///
/// * [`Error::InvalidInput`] for a zero depth, zero iterations being
///   fine (no-op) but an out-of-range conditioning action failing.
/// * Propagates backup/expansion failures.
pub fn bootstrap<R: Rng + ?Sized>(
    model: &TerminatedModel,
    bound: &mut VectorSetBound,
    config: &BootstrapConfig,
    rng: &mut R,
) -> Result<BootstrapReport, Error> {
    check_against_model(config, model)?;
    let faults = model.fault_states();
    let uniform_eval = uniform_eval_belief(model)?;

    let mut report = BootstrapReport::default();
    for iteration in 1..=config.iterations {
        // Every backup immediately sharpens the bound this same episode
        // keeps planning with.
        walk_episode(model, &faults, config, rng, |belief| {
            model.back_up(bound, belief, config.beta, config.vector_cap)?;
            report.total_backups += 1;
            plan(model, config, bound, belief)
        })?;
        report.record(iteration, bound, &uniform_eval);
    }
    Ok(report)
}

/// Runs the bootstrap procedure with the paper's per-update counting:
/// each iteration performs exactly **one** incremental backup, at a
/// fresh episode's initial belief, so the bound set grows by at most
/// one vector per iteration (the invariant behind Figure 5(b)).
///
/// Average therefore backs up at the fixed all-faults-equally-likely
/// belief every time (repeated backups compound there); Random
/// conditions the fault prior on a freshly sampled monitor output
/// (Eq. 4), staying in the high-uncertainty region where the
/// controller will actually start. [`bootstrap`] (one full episode per
/// iteration) is the heavier variant used to pre-train controllers;
/// this one reproduces the paper's Figure 5 semantics.
///
/// # Errors
///
/// Same conditions as [`bootstrap`].
pub fn bootstrap_updates<R: Rng + ?Sized>(
    model: &TerminatedModel,
    bound: &mut VectorSetBound,
    config: &BootstrapConfig,
    rng: &mut R,
) -> Result<BootstrapReport, Error> {
    check_against_model(config, model)?;
    let faults = model.fault_states();
    let uniform_eval = uniform_eval_belief(model)?;

    let mut report = BootstrapReport::default();
    for iteration in 1..=config.iterations {
        let (_, belief) = episode_start(model.pomdp(), &faults, config, rng);
        model.back_up(bound, &belief, config.beta, config.vector_cap)?;
        report.total_backups += 1;
        report.record(iteration, bound, &uniform_eval);
    }
    Ok(report)
}

/// The result of a [`bootstrap_par`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableBootstrapReport {
    /// The underlying bootstrap report — bit-identical to what an
    /// uninterrupted, unchecked run would have produced.
    pub report: BootstrapReport,
    /// `Some(episode)` when the run resumed from a snapshot covering
    /// episodes `0..episode`.
    pub resumed_from: Option<usize>,
    /// The typed reason the snapshot was ignored, when it was (the run
    /// then started fresh from the caller's seed bound).
    pub snapshot_error: Option<SnapshotError>,
    /// Snapshots written during this run.
    pub checkpoints_written: usize,
}

/// Deterministic parallel bootstrap: the batch-synchronous (PBVI-style)
/// variant behind the scaling benchmark, optionally checkpointed.
///
/// `config.iterations` episodes run in rounds of `batch`. Within a
/// round every episode simulates its belief trajectory **against a
/// frozen snapshot** of the bound, in parallel on `pool`, with its RNG
/// derived from `(master_seed, episode_index)` — so trajectories are a
/// pure function of the episode index. The backups those trajectories
/// request are then merged into the live bound *sequentially, in
/// episode order*. Results are therefore bit-identical for every pool
/// width, including 1; the round structure (not the thread count) is
/// the algorithmic knob.
///
/// This is a different — batch-synchronous — algorithm from
/// [`bootstrap`], whose every backup immediately sharpens the bound the
/// *same* episode keeps planning with. Expect `bootstrap_par` with
/// `batch == 1` and one thread to behave like [`bootstrap`] in spirit
/// but not bit-for-bit: here planning always uses the round's snapshot.
/// Without a `vector_cap` the bound never gets worse at any belief
/// (backups only add hyperplanes). With a cap it can: least-used
/// eviction may drop a hyperplane that dominates at some belief, so
/// the bound there can fall between rounds.
///
/// **Checkpointing.** With `checkpoint: None` the run never touches
/// the filesystem. With a [`CheckpointPolicy`], the bound (usage
/// counters included), records and progress cursor are snapshotted to
/// `policy.path` every `policy.every` rounds and at completion, and a
/// run finding a compatible snapshot resumes from its round boundary.
/// Because episodes are a pure function of `(master_seed, index)` and
/// backups merge in episode order, a resumed run is **bit-identical**
/// to an uninterrupted one. A missing snapshot is the normal first-run
/// state. A snapshot that is truncated, bit-flipped,
/// version-mismatched, or written by a different session
/// (seed/batch/config/model mismatch; `iterations` may grow) is
/// *ignored*: the run starts fresh from the caller's seed bound and
/// reports the typed [`SnapshotError`] in
/// [`DurableBootstrapReport::snapshot_error`]. Corruption never panics
/// and never poisons the bound.
///
/// # Errors
///
/// * [`Error::InvalidInput`] for a zero `batch` or an invalid policy,
///   plus everything [`bootstrap`] rejects.
/// * Propagates backup/expansion failures (lowest episode index first,
///   whatever the pool width).
/// * [`Error::Snapshot`] when a checkpoint cannot be **written**
///   (durability was requested and cannot be provided).
pub fn bootstrap_par(
    model: &TerminatedModel,
    bound: &mut VectorSetBound,
    config: &BootstrapConfig,
    batch: usize,
    master_seed: u64,
    pool: &WorkPool,
    checkpoint: Option<&CheckpointPolicy>,
) -> Result<DurableBootstrapReport, Error> {
    check_against_model(config, model)?;
    if batch == 0 {
        return Err(Error::InvalidInput {
            detail: "bootstrap batch size must be at least 1".into(),
        });
    }
    if let Some(policy) = checkpoint {
        policy.validate()?;
    }
    let sink = checkpoint.map(|policy| {
        (
            policy,
            session_fingerprint(model, config, batch, master_seed),
        )
    });
    let faults = model.fault_states();
    let uniform_eval = uniform_eval_belief(model)?;

    let mut out = DurableBootstrapReport {
        report: BootstrapReport::default(),
        resumed_from: None,
        snapshot_error: None,
        checkpoints_written: 0,
    };
    let mut next_episode = 0usize;
    if let Some((policy, fingerprint)) = sink {
        match BootstrapCheckpoint::load_compatible(&policy.path, fingerprint, config.iterations) {
            Ok(None) => {}
            Ok(Some((restored, cp))) => {
                *bound = restored;
                next_episode = cp.next_episode;
                out.report.records = cp.records;
                out.report.total_backups = cp.total_backups;
                out.resumed_from = Some(next_episode);
            }
            Err(e) => out.snapshot_error = Some(e),
        }
    }

    let mut rounds_since_checkpoint = 0usize;
    while next_episode < config.iterations {
        let round = batch.min(config.iterations - next_episode);
        // Freeze the bound for the round: planning inside the round's
        // episodes must not observe each other's backups.
        let frozen = bound.clone();
        let trajectories: Vec<Result<Vec<Belief>, Error>> = pool.map_indices(round, |offset| {
            let episode = next_episode + offset;
            let mut rng = StdRng::seed_from_stream(master_seed, episode as u64);
            let mut visited = Vec::new();
            walk_episode(model, &faults, config, &mut rng, |belief| {
                visited.push(belief.clone());
                plan(model, config, &frozen, belief)
            })?;
            Ok(visited)
        });
        // Sequential merge, episode order: this is what makes the run
        // independent of how the trajectories were scheduled.
        for (offset, trajectory) in trajectories.into_iter().enumerate() {
            for belief in &trajectory? {
                model.back_up(bound, belief, config.beta, config.vector_cap)?;
                out.report.total_backups += 1;
            }
            out.report
                .record(next_episode + offset + 1, bound, &uniform_eval);
        }
        next_episode += round;

        if let Some((policy, fingerprint)) = sink {
            rounds_since_checkpoint += 1;
            if rounds_since_checkpoint >= policy.every || next_episode >= config.iterations {
                BootstrapCheckpoint::capture(fingerprint, next_episode, &out.report, bound)
                    .save(&policy.path)
                    .map_err(Error::Snapshot)?;
                out.checkpoints_written += 1;
                rounds_since_checkpoint = 0;
            }
        }
    }
    Ok(out)
}

/// Draws an episode's ground-truth fault uniformly from `faults`, then
/// its initial belief: the uniform fault prior (Average), or that prior
/// conditioned on one monitor output sampled from the fault (Random).
fn episode_start<R: Rng + ?Sized>(
    pomdp: &Pomdp,
    faults: &[StateId],
    config: &BootstrapConfig,
    rng: &mut R,
) -> (StateId, Belief) {
    let world = faults[rng.gen_range(0..faults.len())];
    let prior = Belief::uniform_over(pomdp.n_states(), faults);
    let belief = match config.variant {
        BootstrapVariant::Average => prior,
        BootstrapVariant::Random => {
            let a = config.conditioning_action;
            // Monitors observe the (unchanged) faulty state. An
            // observation inconsistent with the prior support cannot
            // happen here, but fall back to the prior defensively.
            let o = pomdp.sample_observation(rng, world, a);
            prior.update(pomdp, a, o).map_or(prior, |(b, _)| b)
        }
    };
    (world, belief)
}

/// Runs one episode from [`episode_start`]. At each belief `step`
/// returns the controller's action; the episode ends on the terminate
/// action or after `config.max_steps` steps. Otherwise the ground truth
/// moves, the monitors report on the state entered, and the belief is
/// updated (Eq. 4).
fn walk_episode<R: Rng + ?Sized>(
    model: &TerminatedModel,
    faults: &[StateId],
    config: &BootstrapConfig,
    rng: &mut R,
    mut step: impl FnMut(&Belief) -> Result<ActionId, Error>,
) -> Result<(), Error> {
    let pomdp = model.pomdp();
    let (mut world, mut belief) = episode_start(pomdp, faults, config, rng);
    for _step in 0..config.max_steps {
        let action = step(&belief)?;
        if action == model.terminate_action() {
            break;
        }
        let next = pomdp.sample_transition(rng, world, action);
        let o = pomdp.sample_observation(rng, next, action);
        world = next;
        belief = match belief.update(pomdp, action, o) {
            Ok((b, _)) => b,
            // Zero-probability observation under the belief: restart
            // from the uninformed fault prior rather than crash.
            Err(_) => Belief::uniform_over(pomdp.n_states(), faults),
        };
    }
    Ok(())
}

/// The controller's action at `belief`: a depth-`config.depth` tree
/// expansion with `bound` at the leaves.
fn plan(
    model: &TerminatedModel,
    config: &BootstrapConfig,
    bound: &VectorSetBound,
    belief: &Belief,
) -> Result<ActionId, Error> {
    tree::expand_with_cutoff(
        model.pomdp(),
        belief,
        config.depth,
        bound,
        config.beta,
        config.gamma_cutoff,
    )
    .map(|decision| decision.action)
    .map_err(Error::Pomdp)
}

/// Shared entry validation: config invariants plus the model-dependent
/// checks every bootstrap flavour needs.
fn check_against_model(config: &BootstrapConfig, model: &TerminatedModel) -> Result<(), Error> {
    config.validate()?;
    if config.conditioning_action.index() >= model.pomdp().n_actions() {
        return Err(Error::InvalidInput {
            detail: "conditioning action out of bounds".into(),
        });
    }
    if model.fault_states().is_empty() {
        return Err(Error::InvalidInput {
            detail: "model has no fault states to bootstrap on".into(),
        });
    }
    Ok(())
}

/// The evaluation belief of Fig. 5: uniform over the base states.
fn uniform_eval_belief(model: &TerminatedModel) -> Result<Belief, Error> {
    model.lift(Belief::uniform(model.pomdp().n_states() - 1))
}

/// The parameters that must match between the run that wrote a
/// checkpoint and the run resuming from it. `iterations` is
/// deliberately excluded: a run killed partway toward a larger target
/// is exactly what resume is for.
fn session_fingerprint(
    model: &TerminatedModel,
    config: &BootstrapConfig,
    batch: usize,
    master_seed: u64,
) -> u64 {
    let canon = format!(
        "seed={master_seed} batch={batch} variant={:?} depth={} max_steps={} beta={:?} \
         vector_cap={:?} conditioning={} gamma_cutoff={:?} n_states={}",
        config.variant,
        config.depth,
        config.max_steps,
        config.beta,
        config.vector_cap,
        config.conditioning_action.index(),
        config.gamma_cutoff,
        model.pomdp().n_states()
    );
    fnv1a64(canon.as_bytes())
}

/// Container kind tag of bootstrap checkpoints.
const BOOTSTRAP_KIND: &str = "bootstrap";

/// The persisted state of a checkpointed [`bootstrap_par`] run:
/// everything needed to continue the round loop bit-identically.
///
/// The bound's hyperplanes **and their usage counters** are both
/// persisted — eviction under a vector cap depends on usage, so
/// dropping the counters would make a resumed run diverge from the
/// uninterrupted one. Floats are written with `{:?}`, which
/// round-trips every finite `f64` bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
struct BootstrapCheckpoint {
    /// [`session_fingerprint`] of the run that wrote it.
    fingerprint: u64,
    /// First episode index the resumed run must execute.
    next_episode: usize,
    /// Backups performed so far.
    total_backups: usize,
    /// Per-iteration records accumulated so far.
    records: Vec<IterationRecord>,
    /// State-space dimension of the bound.
    n_states: usize,
    /// The bound hyperplanes, in insertion order
    /// ([`VectorSetBound::to_tsv`] format).
    bound_tsv: String,
    /// Per-hyperplane usage counters, parallel to the TSV rows.
    usage: Vec<u64>,
}

impl BootstrapCheckpoint {
    /// Captures the live bootstrap state.
    fn capture(
        fingerprint: u64,
        next_episode: usize,
        report: &BootstrapReport,
        bound: &VectorSetBound,
    ) -> BootstrapCheckpoint {
        BootstrapCheckpoint {
            fingerprint,
            next_episode,
            total_backups: report.total_backups,
            records: report.records.clone(),
            n_states: bound.n_states(),
            bound_tsv: bound.to_tsv(),
            usage: bound.usage_counts().to_vec(),
        }
    }

    /// Rebuilds the bound this checkpoint captured, usage counters
    /// included.
    fn restore_bound(&self) -> Result<VectorSetBound, SnapshotError> {
        let mut bound = VectorSetBound::from_tsv(self.n_states, &self.bound_tsv)
            .map_err(|e| SnapshotError::malformed(format!("bound vectors: {e}")))?;
        // A saved set holds no dominated row, so re-adding drops none.
        if bound.len() != self.bound_tsv.lines().count() {
            return Err(SnapshotError::malformed("dominated or repeated bound rows"));
        }
        bound
            .set_usage_counts(&self.usage)
            .map_err(|e| SnapshotError::malformed(format!("usage counters: {e}")))?;
        Ok(bound)
    }

    /// Serialises the checkpoint payload (container header excluded).
    fn encode(&self) -> String {
        let mut w = PayloadWriter::default();
        writeln!(w, "fingerprint {:016x}", self.fingerprint);
        writeln!(w, "next {}", self.next_episode);
        writeln!(w, "backups {}", self.total_backups);
        writeln!(w, "n_states {}", self.n_states);
        for r in &self.records {
            writeln!(
                w,
                "record {}\t{:?}\t{}",
                r.iteration, r.bound_at_uniform, r.n_vectors
            );
        }
        writeln!(w, "usage {}", Joined(&self.usage, ' '));
        writeln!(w, "bound");
        write!(w, "{}", self.bound_tsv);
        w.finish()
    }

    /// Parses a payload produced by [`BootstrapCheckpoint::encode`];
    /// [`SnapshotError::Malformed`] for any structural deviation,
    /// including records out of iteration order.
    fn decode(payload: &str) -> Result<BootstrapCheckpoint, SnapshotError> {
        let mut r = PayloadReader::new(payload)?;
        let fingerprint = r.line("fingerprint", ' ', 1)?.hex()?;
        let next_episode = r.int("next")?;
        let total_backups = r.int("backups")?;
        let n_states = r.int("n_states")?;
        let mut records: Vec<IterationRecord> = Vec::new();
        while let Some(mut f) = r.next_if("record", '\t', 3)? {
            records.push(IterationRecord {
                iteration: f.int()?,
                bound_at_uniform: f.f64()?,
                n_vectors: f.int()?,
            });
        }
        if records.windows(2).any(|w| w[0].iteration >= w[1].iteration) {
            return Err(SnapshotError::malformed("records out of iteration order"));
        }
        let usage = r.list("usage", ' ')?;
        let bound_tsv = r.remainder().strip_prefix("bound\n");
        Ok(BootstrapCheckpoint {
            fingerprint,
            next_episode,
            total_backups,
            records,
            n_states,
            bound_tsv: bound_tsv
                .ok_or(SnapshotError::malformed("missing the `bound` section"))?
                .to_string(),
            usage,
        })
    }

    /// Atomically writes the checkpoint to `path`.
    fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        write_snapshot(path, BOOTSTRAP_KIND, &self.encode())
    }

    /// Loads the checkpoint at `path` a run with this `fingerprint` and
    /// `iterations` target may resume from, with its restored bound.
    /// `Ok(None)` when no snapshot exists yet; a snapshot of another
    /// session, or one ahead of the target, is
    /// [`SnapshotError::Incompatible`].
    fn load_compatible(
        path: &Path,
        fingerprint: u64,
        iterations: usize,
    ) -> Result<Option<(VectorSetBound, BootstrapCheckpoint)>, SnapshotError> {
        let Some(payload) = read_snapshot(path, BOOTSTRAP_KIND)? else {
            return Ok(None);
        };
        let cp = BootstrapCheckpoint::decode(&payload)?;
        if cp.fingerprint != fingerprint {
            return Err(SnapshotError::Incompatible {
                detail: "checkpoint was written by a different session \
                         (seed, batch, config, or model mismatch)"
                    .into(),
            });
        }
        if cp.next_episode > iterations {
            return Err(SnapshotError::Incompatible {
                detail: format!(
                    "checkpoint is ahead of the requested run: episode {} > {iterations}",
                    cp.next_episode
                ),
            });
        }
        Ok(Some((cp.restore_bound()?, cp)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::two_server_model;
    use bpr_mdp::chain::SolveOpts;
    use bpr_pomdp::bounds::ra_bound;

    fn setup() -> (TerminatedModel, VectorSetBound) {
        let model = two_server_model().without_notification(10.0).unwrap();
        let bound = ra_bound(model.pomdp(), &SolveOpts::default()).unwrap();
        (model, bound)
    }

    #[test]
    fn bootstrap_improves_bound_monotonically() {
        let (model, mut bound) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        let config = BootstrapConfig {
            iterations: 15,
            depth: 1,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        let report = bootstrap(&model, &mut bound, &config, &mut rng).unwrap();
        assert_eq!(report.records.len(), 15);
        let mut prev = f64::NEG_INFINITY;
        for rec in &report.records {
            assert!(
                rec.bound_at_uniform + 1e-9 >= prev,
                "bound regressed at iteration {}: {} -> {}",
                rec.iteration,
                prev,
                rec.bound_at_uniform
            );
            prev = rec.bound_at_uniform;
        }
        // The bound must have moved at all.
        let first = report.records.first().unwrap().bound_at_uniform;
        let last = report.final_bound_at_uniform().unwrap();
        assert!(last >= first);
        assert!(last <= 1e-9, "bound crossed the trivial upper bound 0");
    }

    #[test]
    fn both_variants_run_and_grow_vectors() {
        for variant in [BootstrapVariant::Random, BootstrapVariant::Average] {
            let (model, mut bound) = setup();
            let mut rng = StdRng::seed_from_u64(5);
            let config = BootstrapConfig {
                variant,
                iterations: 5,
                depth: 1,
                conditioning_action: ActionId::new(2),
                ..BootstrapConfig::default()
            };
            let report = bootstrap(&model, &mut bound, &config, &mut rng).unwrap();
            let last = report.records.last().unwrap();
            assert!(last.n_vectors >= 1, "variant {variant:?}");
            assert!(bound.len() == last.n_vectors);
        }
    }

    #[test]
    fn vector_cap_is_respected() {
        let (model, mut bound) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let config = BootstrapConfig {
            iterations: 10,
            depth: 1,
            vector_cap: Some(2),
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        bootstrap(&model, &mut bound, &config, &mut rng).unwrap();
        assert!(bound.len() <= 3); // cap + at most one post-eviction add
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (model, mut bound) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let bad_depth = BootstrapConfig {
            depth: 0,
            ..BootstrapConfig::default()
        };
        assert!(bootstrap(&model, &mut bound, &bad_depth, &mut rng).is_err());
        let bad_action = BootstrapConfig {
            conditioning_action: ActionId::new(99),
            ..BootstrapConfig::default()
        };
        assert!(bootstrap(&model, &mut bound, &bad_action, &mut rng).is_err());
    }

    #[test]
    fn zero_iterations_is_a_noop() {
        let (model, mut bound) = setup();
        let before = bound.len();
        let mut rng = StdRng::seed_from_u64(1);
        let config = BootstrapConfig {
            iterations: 0,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        let report = bootstrap(&model, &mut bound, &config, &mut rng).unwrap();
        assert!(report.records.is_empty());
        assert!(report.final_bound_at_uniform().is_none());
        assert_eq!(bound.len(), before);
    }

    #[test]
    fn stepwise_bootstrap_grows_at_most_one_vector_per_iteration() {
        let (model, mut bound) = setup();
        let mut rng = StdRng::seed_from_u64(21);
        let config = BootstrapConfig {
            iterations: 25,
            depth: 1,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        let start = bound.len();
        let report = bootstrap_updates(&model, &mut bound, &config, &mut rng).unwrap();
        let mut prev_vectors = start;
        let mut prev_bound = f64::NEG_INFINITY;
        for rec in &report.records {
            assert!(
                rec.n_vectors <= prev_vectors + 1,
                "iteration {} grew by more than one vector",
                rec.iteration
            );
            assert!(rec.bound_at_uniform + 1e-9 >= prev_bound);
            prev_vectors = rec.n_vectors;
            prev_bound = rec.bound_at_uniform;
        }
        // Improvement must actually happen on this model.
        assert!(
            report.records.last().unwrap().bound_at_uniform
                > report.records.first().unwrap().bound_at_uniform - 1e-9
        );
    }

    #[test]
    fn stepwise_average_variant_improves_at_uniform() {
        let (model, mut bound) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let before = {
            use bpr_pomdp::bounds::ValueBound;
            let n = model.pomdp().n_states();
            let mut p = vec![1.0 / (n - 1) as f64; n - 1];
            p.push(0.0);
            bound.value(&Belief::from_probs(p).unwrap())
        };
        let config = BootstrapConfig {
            variant: BootstrapVariant::Average,
            iterations: 30,
            depth: 1,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        let report = bootstrap_updates(&model, &mut bound, &config, &mut rng).unwrap();
        assert!(report.final_bound_at_uniform().unwrap() > before + 0.1);
    }

    #[test]
    fn validate_rejects_nonsense_configs() {
        let bad = |f: fn(&mut BootstrapConfig)| {
            let mut config = BootstrapConfig::default();
            f(&mut config);
            config.validate().is_err()
        };
        assert!(bad(|c| c.depth = 0));
        assert!(bad(|c| c.beta = f64::NAN));
        assert!(bad(|c| c.beta = 0.0));
        assert!(bad(|c| c.beta = 1.5));
        assert!(bad(|c| c.gamma_cutoff = -1.0));
        assert!(bad(|c| c.gamma_cutoff = f64::INFINITY));
        assert!(bad(|c| c.vector_cap = Some(0)));
        // No-op runs stay legal.
        assert!(!bad(|c| c.iterations = 0));
        assert!(!bad(|c| c.max_steps = 0));
        assert!(BootstrapConfig::default().validate().is_ok());
    }

    #[test]
    fn parallel_bootstrap_is_thread_count_invariant() {
        let config = BootstrapConfig {
            variant: BootstrapVariant::Random,
            iterations: 12,
            depth: 1,
            max_steps: 15,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        let run = |threads: usize| {
            let (model, mut bound) = setup();
            let pool = WorkPool::new(threads).unwrap();
            let report = bootstrap_par(&model, &mut bound, &config, 4, 77, &pool, None).unwrap();
            (report.report, bound.to_tsv())
        };
        let (serial_report, serial_bound) = run(1);
        let (wide_report, wide_bound) = run(4);
        assert_eq!(serial_report, wide_report);
        assert_eq!(serial_bound, wide_bound);
        assert_eq!(serial_report.records.len(), 12);
        assert!(serial_report.total_backups >= 12);
    }

    #[test]
    fn parallel_bootstrap_improves_monotonically() {
        let (model, mut bound) = setup();
        let config = BootstrapConfig {
            iterations: 10,
            depth: 1,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        let report = bootstrap_par(&model, &mut bound, &config, 3, 5, &WorkPool::serial(), None)
            .unwrap()
            .report;
        let mut prev = f64::NEG_INFINITY;
        for rec in &report.records {
            assert!(
                rec.bound_at_uniform + 1e-9 >= prev,
                "regressed at {}",
                rec.iteration
            );
            prev = rec.bound_at_uniform;
        }
        assert!(report.final_bound_at_uniform().unwrap() <= 1e-9);
        // Zero batch is rejected.
        assert!(
            bootstrap_par(&model, &mut bound, &config, 0, 5, &WorkPool::serial(), None).is_err()
        );
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bpr_bootstrap_{}_{name}", std::process::id()))
    }

    fn durable_config() -> BootstrapConfig {
        BootstrapConfig {
            variant: BootstrapVariant::Random,
            iterations: 12,
            depth: 1,
            max_steps: 15,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        }
    }

    #[test]
    fn durable_bootstrap_matches_plain_parallel_run() {
        let config = durable_config();
        let path = scratch("fresh");
        let _ = std::fs::remove_file(&path);
        let (model, mut plain_bound) = setup();
        let plain = bootstrap_par(
            &model,
            &mut plain_bound,
            &config,
            4,
            77,
            &WorkPool::serial(),
            None,
        )
        .unwrap()
        .report;
        let (model, mut durable_bound) = setup();
        let durable = bootstrap_par(
            &model,
            &mut durable_bound,
            &config,
            4,
            77,
            &WorkPool::serial(),
            Some(&CheckpointPolicy::new(&path, 1)),
        )
        .unwrap();
        assert_eq!(durable.report, plain);
        assert_eq!(durable.resumed_from, None);
        assert_eq!(durable.snapshot_error, None);
        assert_eq!(durable.checkpoints_written, 3); // 12 episodes / batch 4
        assert_eq!(durable_bound.to_tsv(), plain_bound.to_tsv());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_bootstrap_resumes_bit_identically() {
        let config = durable_config();
        let path = scratch("resume");
        let _ = std::fs::remove_file(&path);
        let (model, mut reference_bound) = setup();
        let reference = bootstrap_par(
            &model,
            &mut reference_bound,
            &config,
            4,
            77,
            &WorkPool::serial(),
            None,
        )
        .unwrap()
        .report;
        // "Kill" after 8 of the 12 episodes by running a shorter target.
        let killed_at = BootstrapConfig {
            iterations: 8,
            ..config.clone()
        };
        let (model, mut bound) = setup();
        let policy = CheckpointPolicy::new(&path, 1);
        bootstrap_par(
            &model,
            &mut bound,
            &killed_at,
            4,
            77,
            &WorkPool::serial(),
            Some(&policy),
        )
        .unwrap();
        // Resume toward the full target from a *fresh* seed bound.
        let (model, mut bound) = setup();
        let resumed = bootstrap_par(
            &model,
            &mut bound,
            &config,
            4,
            77,
            &WorkPool::serial(),
            Some(&policy),
        )
        .unwrap();
        assert_eq!(resumed.resumed_from, Some(8));
        assert_eq!(resumed.snapshot_error, None);
        assert_eq!(resumed.report, reference);
        assert_eq!(bound.to_tsv(), reference_bound.to_tsv());
        assert_eq!(bound.usage_counts(), reference_bound.usage_counts());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_snapshot_falls_back_to_seed_bound() {
        let config = durable_config();
        let path = scratch("corrupt");
        let _ = std::fs::remove_file(&path);
        let policy = CheckpointPolicy::new(&path, 1);
        let (model, mut bound) = setup();
        bootstrap_par(
            &model,
            &mut bound,
            &config,
            4,
            77,
            &WorkPool::serial(),
            Some(&policy),
        )
        .unwrap();
        // Flip one payload bit.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (model, mut bound) = setup();
        let recovered = bootstrap_par(
            &model,
            &mut bound,
            &config,
            4,
            77,
            &WorkPool::serial(),
            Some(&policy),
        )
        .unwrap();
        assert!(matches!(
            recovered.snapshot_error,
            Some(SnapshotError::ChecksumMismatch { .. })
        ));
        assert_eq!(recovered.resumed_from, None);
        // The fallback run is a full fresh run from the seed bound.
        let (model, mut plain_bound) = setup();
        let plain = bootstrap_par(
            &model,
            &mut plain_bound,
            &config,
            4,
            77,
            &WorkPool::serial(),
            None,
        )
        .unwrap()
        .report;
        assert_eq!(recovered.report, plain);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_session_snapshot_is_rejected_as_incompatible() {
        let config = durable_config();
        let path = scratch("foreign");
        let _ = std::fs::remove_file(&path);
        let policy = CheckpointPolicy::new(&path, 1);
        let (model, mut bound) = setup();
        bootstrap_par(
            &model,
            &mut bound,
            &config,
            4,
            99, // different master seed
            &WorkPool::serial(),
            Some(&policy),
        )
        .unwrap();
        let (model, mut bound) = setup();
        let recovered = bootstrap_par(
            &model,
            &mut bound,
            &config,
            4,
            77,
            &WorkPool::serial(),
            Some(&policy),
        )
        .unwrap();
        assert!(matches!(
            recovered.snapshot_error,
            Some(SnapshotError::Incompatible { .. })
        ));
        assert_eq!(recovered.resumed_from, None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bootstrap_is_reproducible_with_seed() {
        let config = BootstrapConfig {
            iterations: 8,
            depth: 1,
            conditioning_action: ActionId::new(2),
            ..BootstrapConfig::default()
        };
        let run = |seed: u64| {
            let (model, mut bound) = setup();
            let mut rng = StdRng::seed_from_u64(seed);
            bootstrap(&model, &mut bound, &config, &mut rng).unwrap()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn bootstrap_checkpoint_roundtrips_exactly() {
        let mut bound = VectorSetBound::new(3);
        bound.add_vector(vec![-1.5, -2.25, 0.0]).unwrap();
        bound.add_vector(vec![-3.0, -0.125, -1e-300]).unwrap();
        bound.set_usage_counts(&[7, 0]).unwrap();
        let report = BootstrapReport {
            records: vec![IterationRecord {
                iteration: 1,
                bound_at_uniform: -0.1234567890123456,
                n_vectors: 2,
            }],
            total_backups: 17,
        };
        let cp = BootstrapCheckpoint::capture(0xDEAD_BEEF, 4, &report, &bound);
        // The payload bytes and kind tag are the on-disk format: pinned.
        assert_eq!(
            cp.encode(),
            "fingerprint 00000000deadbeef\nnext 4\nbackups 17\nn_states 3\n\
             record 1\t-0.1234567890123456\t2\nusage 7 0\nbound\n\
             -1.5\t-2.25\t0.0\n-3.0\t-0.125\t-1e-300\n"
        );
        assert_eq!(BOOTSTRAP_KIND, "bootstrap");
        let parsed = BootstrapCheckpoint::decode(&cp.encode()).unwrap();
        assert_eq!(parsed, cp);
        let restored = parsed.restore_bound().unwrap();
        assert_eq!(restored, bound);
        assert_eq!(restored.usage_counts(), bound.usage_counts());
    }

    /// Floats a checkpoint must carry bit for bit.
    const AWKWARD_FLOATS: [f64; 8] = [
        -0.0,
        0.0,
        5e-324,
        -2.2e-308,
        f64::MAX,
        -f64::MAX,
        0.1,
        -1.0 / 3.0,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `decode(encode(x)) == x`, bit for bit, for random
        /// checkpoints: empty and non-empty record lists, `-0.0`,
        /// subnormals and `f64::MAX` in records and bound rows, zero
        /// usage counters.
        #[test]
        fn bootstrap_checkpoint_roundtrips(seed in 0u64..u64::MAX) {
            let mut rng = proptest::TestRng::for_case(seed);
            let mut pick = || AWKWARD_FLOATS[rng.below(8) as usize];
            let n_states = 1 + (seed % 4) as usize;
            let mut bound = VectorSetBound::new(n_states);
            for _ in 0..1 + seed % 5 {
                let row: Vec<f64> = (0..n_states).map(|_| pick()).collect();
                bound.add_vector(row).unwrap();
            }
            let usage: Vec<u64> = (0..bound.len() as u64).map(|i| (seed >> i) % 3).collect();
            bound.set_usage_counts(&usage).unwrap();
            let records = (1..=(seed >> 8) % 4)
                .map(|i| IterationRecord {
                    iteration: i as usize,
                    bound_at_uniform: pick(),
                    n_vectors: (seed >> 16) as usize % 9,
                })
                .collect();
            let report = BootstrapReport { records, total_backups: (seed >> 3) as usize };
            let cp = BootstrapCheckpoint::capture(seed, (seed >> 5) as usize % 7, &report, &bound);
            let payload = cp.encode();
            let parsed = BootstrapCheckpoint::decode(&payload).unwrap();
            proptest::prop_assert_eq!(&parsed, &cp);
            proptest::prop_assert_eq!(parsed.encode(), payload);
            let restored = parsed.restore_bound().unwrap();
            proptest::prop_assert_eq!(restored.to_tsv(), bound.to_tsv());
            proptest::prop_assert_eq!(restored.usage_counts(), bound.usage_counts());
        }
    }

    /// The encoded payload of a fixed checkpoint (several records,
    /// usage counters, a multi-row bound with `-0.0`, a subnormal and
    /// `f64::MAX`) reproduces a pinned digest, so no codec change can
    /// move the on-disk bytes unnoticed.
    #[test]
    fn bootstrap_payload_matches_pinned_digest() {
        let mut bound = VectorSetBound::new(4);
        bound.add_vector(vec![-1.5, -0.0, -2.25, -7.0]).unwrap();
        bound.add_vector(vec![-3.0, -5e-324, -0.5, -1.0]).unwrap();
        bound.add_vector(vec![-f64::MAX, -4.0, 0.0, -2.0]).unwrap();
        bound.set_usage_counts(&[3, 0, 11]).unwrap();
        let records = (1..=5)
            .map(|i| IterationRecord {
                iteration: i,
                bound_at_uniform: -1.0 / i as f64,
                n_vectors: i.min(3),
            })
            .collect();
        let report = BootstrapReport {
            records,
            total_backups: 123,
        };
        let payload =
            BootstrapCheckpoint::capture(0x0123_4567_89AB_CDEF, 5, &report, &bound).encode();
        assert_eq!(
            fnv1a64(payload.as_bytes()),
            17427272788228136470,
            "{payload}"
        );
    }
}
