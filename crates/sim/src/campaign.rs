//! The deterministic parallel campaign engine.
//!
//! [`Campaign`] is the session API behind every expensive
//! fault-injection loop in the workspace (paper Table 1 runs 10 000
//! injections per controller). Episodes of a campaign are
//! *independent given their seeds*: episode `i` draws its world
//! randomness from the stream `(master_seed, i)` (via
//! [`rand::split_seed`]), gets a controller freshly built by the
//! session's factory, and — for degraded campaigns — a perturbation
//! plan on stream `(plan.seed, i)`. Because nothing is threaded
//! through the loop, episodes schedule freely across a
//! [`bpr_par::WorkPool`], and the canonical results (see
//! [`EpisodeOutcome::canonical`]) are **bit-identical for every thread
//! count**, including 1.
//!
//! Contrast with [`crate::harness::run_campaign`], the serial stateful
//! protocol in which one controller carries its state (e.g. online
//! bound refinement) across episodes on a single shared RNG stream.

use crate::harness::{EpisodeOutcome, EpisodeRunner, HarnessConfig};
use crate::metrics::CampaignSummary;
use crate::PerturbationPlan;
use bpr_core::snapshot::{
    fnv1a64, read_snapshot, write_snapshot, CheckpointPolicy, PayloadReader, PayloadWriter,
    Sanitized, SnapshotError,
};
use bpr_core::{Error, RecoveryController, RecoveryModel};
use bpr_mdp::StateId;
use bpr_par::WorkPool;
use rand::rngs::StdRng;
use rand::{split_seed, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// A configured campaign session. Build with [`Campaign::new`] plus the
/// chained setters, then execute with [`Campaign::run`].
///
/// ```ignore
/// let report = Campaign::new(&model)
///     .population(&zombies)
///     .episodes(10_000)
///     .seed(7)
///     .threads(8)
///     .run(|_episode| MostLikelyController::new(model.clone(), 0.9999))?;
/// println!("{}", report.summary.table_row());
/// ```
#[derive(Debug, Clone)]
pub struct Campaign<'m> {
    model: &'m RecoveryModel,
    population: Vec<StateId>,
    episodes: usize,
    config: HarnessConfig,
    plan: Option<PerturbationPlan>,
    master_seed: u64,
    threads: usize,
    abort_tolerant: bool,
    checkpoint: Option<CheckpointPolicy>,
}

/// An episode whose controller panicked and was quarantined by the
/// pool's isolation layer instead of tearing down the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedEpisode {
    /// Index of the poisoned episode.
    pub episode: usize,
    /// The fault it was injecting.
    pub fault: StateId,
    /// The episode's derived RNG seed (`split_seed(master, episode)`) —
    /// enough to replay the panic in isolation.
    pub seed: u64,
    /// The captured panic payload (control characters replaced by
    /// spaces so the report stays line-safe).
    pub payload: String,
}

impl std::fmt::Display for QuarantinedEpisode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "episode {} (fault {}, seed {:#018x}) panicked: {}",
            self.episode,
            self.fault.index(),
            self.seed,
            self.payload
        )
    }
}

/// What a campaign run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-fault averages (the Table 1 row).
    pub summary: CampaignSummary,
    /// One outcome per episode, in episode order — stable whatever the
    /// thread count. Aborted episodes (abort-tolerant sessions only)
    /// appear as zeroed unrecovered/unterminated outcomes.
    pub outcomes: Vec<EpisodeOutcome>,
    /// Episodes whose controller errored out or panicked instead of
    /// terminating (always 0 unless the session is
    /// [`Campaign::abort_tolerant`]). Panicked episodes are aborted
    /// episodes that additionally appear in
    /// [`CampaignReport::quarantined`].
    pub aborted: usize,
    /// Episodes whose controller panicked; the isolation layer
    /// quarantined them (with fault, seed, and panic payload) instead
    /// of tearing down the campaign.
    pub quarantined: Vec<QuarantinedEpisode>,
    /// Worker threads the campaign ran on.
    pub threads: usize,
    /// Wall-clock seconds the campaign took.
    pub wall_seconds: f64,
    /// Episode index the run resumed from, when a compatible checkpoint
    /// was loaded (`None` for a fresh run).
    pub resumed_from: Option<usize>,
    /// Why a present-but-unusable checkpoint was discarded, if that
    /// happened; the campaign then ran fresh from episode 0.
    pub snapshot_error: Option<SnapshotError>,
    /// Checkpoints written during this run.
    pub checkpoints_written: usize,
}

impl CampaignReport {
    /// Episodes per wall-clock second — the scaling metric of
    /// `BENCH_scaling.json`.
    pub fn episodes_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.outcomes.len() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// The outcomes with wall-clock fields zeroed; two runs of the same
    /// session are equal under this view regardless of thread count.
    pub fn canonical_outcomes(&self) -> Vec<EpisodeOutcome> {
        self.outcomes
            .iter()
            .map(EpisodeOutcome::canonical)
            .collect()
    }
}

impl<'m> Campaign<'m> {
    /// Creates a session with default harness config, no degradation,
    /// seed 0, and a single worker.
    pub fn new(model: &'m RecoveryModel) -> Campaign<'m> {
        Campaign {
            model,
            population: Vec::new(),
            episodes: 0,
            config: HarnessConfig::default(),
            plan: None,
            master_seed: 0,
            threads: 1,
            abort_tolerant: false,
            checkpoint: None,
        }
    }

    /// Sets the fault population episodes cycle through round-robin.
    pub fn population(mut self, population: &[StateId]) -> Campaign<'m> {
        self.population = population.to_vec();
        self
    }

    /// Sets the number of fault injections.
    pub fn episodes(mut self, episodes: usize) -> Campaign<'m> {
        self.episodes = episodes;
        self
    }

    /// Replaces the harness configuration.
    pub fn config(mut self, config: &HarnessConfig) -> Campaign<'m> {
        self.config = config.clone();
        self
    }

    /// Sets the per-episode step cap.
    pub fn max_steps(mut self, max_steps: usize) -> Campaign<'m> {
        self.config.max_steps = max_steps;
        self
    }

    /// Runs every episode against a degraded world. Episode `i` gets an
    /// independent perturbation stream: `plan.seed` is re-derived as
    /// `split_seed(plan.seed, i)`.
    pub fn degraded(mut self, plan: &PerturbationPlan) -> Campaign<'m> {
        self.plan = Some(plan.clone());
        self
    }

    /// Sets the master seed all per-episode streams derive from.
    pub fn seed(mut self, master_seed: u64) -> Campaign<'m> {
        self.master_seed = master_seed;
        self
    }

    /// Sets the worker count (the result does not depend on it).
    pub fn threads(mut self, threads: usize) -> Campaign<'m> {
        self.threads = threads;
        self
    }

    /// Tolerate controller aborts: an episode whose controller errors
    /// out (instead of terminating) is recorded as unrecovered and
    /// unterminated with zeroed metrics and counted in
    /// [`CampaignReport::aborted`], rather than failing the campaign.
    /// Controllers built for the idealised model *do* abort in degraded
    /// worlds — robustness sweeps treat that failure mode as data.
    ///
    /// Panicking episodes are handled the same way (and additionally
    /// reported in [`CampaignReport::quarantined`]); without tolerance
    /// a panic fails the campaign with [`Error::Panicked`].
    pub fn abort_tolerant(mut self, tolerate: bool) -> Campaign<'m> {
        self.abort_tolerant = tolerate;
        self
    }

    /// Checkpoints campaign progress to `path` every `every` episodes
    /// (and at completion), and resumes from a compatible checkpoint at
    /// `path` if one exists when [`Campaign::run`] starts.
    ///
    /// Because episodes are pure functions of `(master_seed, index)`,
    /// a killed-and-resumed campaign reproduces the uninterrupted run's
    /// [`CampaignReport::canonical_outcomes`] bit-for-bit, at any
    /// thread count. A checkpoint written by a *different* session
    /// (other seed, population, config, or plan) is rejected as
    /// incompatible; a corrupted one is discarded with a typed
    /// [`SnapshotError`] — either way the campaign runs fresh from
    /// episode 0 and reports why in [`CampaignReport::snapshot_error`].
    pub fn checkpoint(mut self, path: impl Into<std::path::PathBuf>, every: usize) -> Campaign<'m> {
        self.checkpoint = Some(CheckpointPolicy::new(path, every));
        self
    }

    /// Runs the campaign. `factory` builds the controller for each
    /// episode from its index; it must be deterministic per index
    /// (cloning a pre-built prototype is the usual, cheap pattern).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidInput`] for an empty population, a zero thread
    ///   count, an invalid harness config, or an invalid plan.
    /// * Factory failures, and — unless the session is
    ///   [`Campaign::abort_tolerant`] — episode failures (the
    ///   lowest-index one, whatever the thread count).
    pub fn run<C, F>(&self, factory: F) -> Result<CampaignReport, Error>
    where
        C: RecoveryController,
        F: Fn(usize) -> Result<C, Error> + Sync,
    {
        if self.population.is_empty() {
            return Err(Error::InvalidInput {
                detail: "fault population must be non-empty".into(),
            });
        }
        self.config.validate()?;
        if let Some(plan) = &self.plan {
            plan.validate(self.model)?;
        }
        let pool = WorkPool::new(self.threads).map_err(|e| Error::InvalidInput {
            detail: e.to_string(),
        })?;
        if let Some(policy) = &self.checkpoint {
            policy.validate()?;
        }
        // The report is labelled with the controller's name; build one
        // up front so an empty campaign is labelled too, and factory
        // errors surface before any threads spawn.
        let name = factory(0)?.name().to_string();

        let start = Instant::now();
        let mut outcomes: Vec<EpisodeOutcome> = Vec::with_capacity(self.episodes);
        let mut aborted_flags: Vec<bool> = Vec::with_capacity(self.episodes);
        let mut quarantined: Vec<QuarantinedEpisode> = Vec::new();
        let mut resumed_from = None;
        let mut snapshot_error = None;
        let mut checkpoints_written = 0usize;

        if let Some(policy) = &self.checkpoint {
            match CampaignCheckpoint::load(&policy.path) {
                Ok(None) => {}
                Ok(Some(cp)) => {
                    if cp.fingerprint != self.fingerprint() {
                        snapshot_error = Some(SnapshotError::Incompatible {
                            detail: "checkpoint was written by a different campaign session".into(),
                        });
                    } else {
                        // A checkpoint ahead of a shorter target is
                        // fine: its prefix IS the shorter run.
                        let take = cp.outcomes.len().min(self.episodes);
                        outcomes = cp.outcomes[..take].to_vec();
                        aborted_flags = cp.aborted_flags[..take].to_vec();
                        quarantined = cp
                            .quarantined
                            .into_iter()
                            .filter(|q| q.episode < take)
                            .collect();
                        resumed_from = Some(take);
                    }
                }
                // A present-but-untrustworthy checkpoint must never
                // kill the campaign: record why and run fresh.
                Err(e) => snapshot_error = Some(e),
            }
        }

        while outcomes.len() < self.episodes {
            let next = outcomes.len();
            let round = match &self.checkpoint {
                Some(policy) => policy.every.min(self.episodes - next),
                None => self.episodes - next,
            };
            let results =
                pool.map_indices_isolated(round, |offset| self.run_one(next + offset, &factory));
            for (offset, result) in results.into_iter().enumerate() {
                let i = next + offset;
                match result {
                    Ok(Ok(outcome)) => {
                        outcomes.push(outcome);
                        aborted_flags.push(false);
                    }
                    Ok(Err(e)) if !self.abort_tolerant => return Err(e),
                    Ok(Err(_)) => {
                        outcomes.push(self.aborted_outcome(i));
                        aborted_flags.push(true);
                    }
                    Err(q) => {
                        let entry = QuarantinedEpisode {
                            episode: i,
                            fault: self.population[i % self.population.len()],
                            seed: split_seed(self.master_seed, i as u64),
                            payload: Sanitized(&q.payload).to_string(),
                        };
                        if !self.abort_tolerant {
                            return Err(Error::Panicked {
                                detail: entry.to_string(),
                            });
                        }
                        quarantined.push(entry);
                        outcomes.push(self.aborted_outcome(i));
                        aborted_flags.push(true);
                    }
                }
            }
            if let Some(policy) = &self.checkpoint {
                CampaignCheckpoint {
                    fingerprint: self.fingerprint(),
                    outcomes: outcomes.iter().map(EpisodeOutcome::canonical).collect(),
                    aborted_flags: aborted_flags.clone(),
                    quarantined: quarantined.clone(),
                }
                .save(&policy.path)?;
                checkpoints_written += 1;
            }
        }
        let wall_seconds = start.elapsed().as_secs_f64();

        Ok(CampaignReport {
            summary: CampaignSummary::from_outcomes(&name, &outcomes),
            aborted: aborted_flags.iter().filter(|&&f| f).count(),
            outcomes,
            quarantined,
            threads: pool.threads(),
            wall_seconds,
            resumed_from,
            snapshot_error,
            checkpoints_written,
        })
    }

    /// The zeroed outcome recorded for an aborted or quarantined
    /// episode under [`Campaign::abort_tolerant`].
    fn aborted_outcome(&self, i: usize) -> EpisodeOutcome {
        EpisodeOutcome {
            fault: self.population[i % self.population.len()],
            cost: 0.0,
            recovery_time: 0.0,
            residual_time: 0.0,
            algorithm_time: 0.0,
            actions: 0,
            monitor_calls: 0,
            recovered: false,
            terminated: false,
            perturbations: Default::default(),
            retries: 0,
            escalations: 0,
            belief_resets: 0,
        }
    }

    /// Hash of everything that determines per-episode results *except*
    /// the episode target and thread count — so a run killed short of a
    /// longer target, or resumed on different hardware, still matches.
    /// The controller factory cannot be hashed; resuming with a
    /// different factory is the caller's bug.
    fn fingerprint(&self) -> u64 {
        fnv1a64(
            format!(
                "seed={} population={:?} max_steps={} plan={:?} tolerant={} n_states={}",
                self.master_seed,
                self.population,
                self.config.max_steps,
                self.plan,
                self.abort_tolerant,
                self.model.base().n_states(),
            )
            .as_bytes(),
        )
    }

    /// Episode `i`, a pure function of `(self, i)` — the determinism
    /// contract of [`WorkPool::map_indices_isolated`].
    fn run_one<C, F>(&self, i: usize, factory: &F) -> Result<EpisodeOutcome, Error>
    where
        C: RecoveryController,
        F: Fn(usize) -> Result<C, Error> + Sync,
    {
        let fault = self.population[i % self.population.len()];
        let mut controller = factory(i)?;
        let mut rng = StdRng::seed_from_stream(self.master_seed, i as u64);
        let mut runner = EpisodeRunner::new(self.model).config(&self.config);
        if let Some(plan) = &self.plan {
            let episode_plan = PerturbationPlan {
                seed: split_seed(plan.seed, i as u64),
                ..plan.clone()
            };
            runner = runner.degraded(&episode_plan);
        }
        runner.run_with_rng(&mut controller, fault, &mut rng)
    }
}

/// Snapshot kind tag for campaign checkpoints.
const CAMPAIGN_KIND: &str = "campaign";

/// Everything needed to resume a campaign: the session fingerprint and
/// the canonical per-episode results so far. Stored through the
/// checksummed [`bpr_core::snapshot`] container.
#[derive(Debug, Clone, PartialEq)]
struct CampaignCheckpoint {
    fingerprint: u64,
    outcomes: Vec<EpisodeOutcome>,
    aborted_flags: Vec<bool>,
    quarantined: Vec<QuarantinedEpisode>,
}

impl CampaignCheckpoint {
    fn encode(&self) -> String {
        let mut w = PayloadWriter::default();
        writeln!(w, "fingerprint {:016x}", self.fingerprint);
        writeln!(w, "next {}", self.outcomes.len());
        for q in &self.quarantined {
            writeln!(
                w,
                "quarantined {}\t{}\t{:016x}\t{}",
                q.episode,
                q.fault.index(),
                q.seed,
                Sanitized(&q.payload),
            );
        }
        for (outcome, &aborted) in self.outcomes.iter().zip(&self.aborted_flags) {
            let p = &outcome.perturbations;
            writeln!(
                w,
                "outcome {}\t{:?}\t{:?}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                outcome.fault.index(),
                outcome.cost,
                outcome.recovery_time,
                outcome.residual_time,
                outcome.actions,
                outcome.monitor_calls,
                u8::from(outcome.recovered),
                u8::from(outcome.terminated),
                u8::from(aborted),
                p.failed_actions,
                p.dropped_observations,
                p.corrupted_observations,
                p.injected_faults,
                outcome.retries,
                outcome.escalations,
                outcome.belief_resets,
            );
        }
        w.finish()
    }

    /// Parses a payload produced by [`CampaignCheckpoint::encode`];
    /// [`SnapshotError::Malformed`] for any structural deviation,
    /// including an outcome count other than the declared one and
    /// quarantine entries out of episode order.
    fn decode(payload: &str) -> Result<CampaignCheckpoint, SnapshotError> {
        let mut r = PayloadReader::new(payload)?;
        let fingerprint = r.line("fingerprint", ' ', 1)?.hex()?;
        let declared: usize = r.int("next")?;
        let mut quarantined: Vec<QuarantinedEpisode> = Vec::new();
        while let Some(mut f) = r.next_if("quarantined", '\t', 4)? {
            quarantined.push(QuarantinedEpisode {
                episode: f.int()?,
                fault: StateId::new(f.int()?),
                seed: f.hex()?,
                payload: f.text()?.to_string(),
            });
        }
        let mut outcomes = Vec::new();
        let mut aborted_flags = Vec::new();
        while let Some(mut f) = r.next_if("outcome", '\t', 16)? {
            let (fault, cost, recovery_time, residual_time) =
                (StateId::new(f.int()?), f.f64()?, f.f64()?, f.f64()?);
            let (actions, monitor_calls, recovered, terminated) =
                (f.int()?, f.int()?, f.flag()?, f.flag()?);
            aborted_flags.push(f.flag()?);
            outcomes.push(EpisodeOutcome {
                fault,
                cost,
                recovery_time,
                residual_time,
                algorithm_time: 0.0,
                actions,
                monitor_calls,
                recovered,
                terminated,
                perturbations: crate::PerturbationCounts {
                    failed_actions: f.int()?,
                    dropped_observations: f.int()?,
                    corrupted_observations: f.int()?,
                    injected_faults: f.int()?,
                },
                retries: f.int()?,
                escalations: f.int()?,
                belief_resets: f.int()?,
            });
        }
        r.finish()?;
        if outcomes.len() != declared {
            return Err(SnapshotError::malformed(format!(
                "campaign checkpoint declares {declared} outcomes but carries {}",
                outcomes.len()
            )));
        }
        if quarantined.windows(2).any(|w| w[0].episode >= w[1].episode) {
            return Err(SnapshotError::malformed(
                "quarantine entries out of episode order",
            ));
        }
        Ok(CampaignCheckpoint {
            fingerprint,
            outcomes,
            aborted_flags,
            quarantined,
        })
    }

    fn save(&self, path: &Path) -> Result<(), Error> {
        write_snapshot(path, CAMPAIGN_KIND, &self.encode()).map_err(Error::from)
    }

    fn load(path: &Path) -> Result<Option<CampaignCheckpoint>, SnapshotError> {
        match read_snapshot(path, CAMPAIGN_KIND)? {
            Some(payload) => Ok(Some(CampaignCheckpoint::decode(&payload)?)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpr_core::baselines::{MostLikelyController, OracleController};
    use bpr_core::Step;
    use bpr_emn::two_server;
    use bpr_mdp::ActionId;
    use bpr_pomdp::{Belief, ObservationId};

    fn model() -> RecoveryModel {
        two_server::default_model().unwrap()
    }

    /// A fixed checkpoint: three outcomes (one aborted by a quarantined
    /// panic whose payload holds tabs and newlines, float fields with
    /// `-0.0`, a subnormal and `f64::MAX`).
    fn pinned_checkpoint() -> CampaignCheckpoint {
        let outcome = |fault: usize, cost: f64, recovered: bool| EpisodeOutcome {
            fault: StateId::new(fault),
            cost,
            recovery_time: cost / 3.0,
            residual_time: 5e-324,
            algorithm_time: 0.0,
            actions: 4,
            monitor_calls: 2,
            recovered,
            terminated: recovered,
            perturbations: crate::PerturbationCounts {
                failed_actions: 1,
                dropped_observations: 2,
                corrupted_observations: 3,
                injected_faults: 4,
            },
            retries: 5,
            escalations: 6,
            belief_resets: 7,
        };
        CampaignCheckpoint {
            fingerprint: 0xFEED_FACE_CAFE_BEEF,
            outcomes: vec![
                outcome(1, 12.5, true),
                outcome(2, -0.0, false),
                outcome(1, f64::MAX, true),
            ],
            aborted_flags: vec![false, true, false],
            quarantined: vec![QuarantinedEpisode {
                episode: 1,
                fault: StateId::new(2),
                seed: 0x0000_0000_0000_002A,
                payload: "boom\tat line\n42\r\u{7}".into(),
            }],
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `decode(encode(x)) == x`, bit for bit, for random checkpoints:
        /// empty campaigns, awkward floats (`-0.0`, subnormals,
        /// `f64::MAX`), and quarantine payloads whose tabs, newlines and
        /// other control characters come back as spaces.
        #[test]
        fn campaign_checkpoint_roundtrips(seed in 0u64..u64::MAX) {
            const FLOATS: [f64; 6] = [-0.0, 5e-324, -2.2e-308, f64::MAX, 0.1, 12.5];
            const CHARS: [char; 8] = ['a', ' ', '\t', '\n', '\r', 'é', '\u{7}', ':'];
            let mut rng = proptest::TestRng::for_case(seed);
            let episodes = rng.below(7) as usize;
            let mut cp = CampaignCheckpoint {
                fingerprint: rng.next_u64(),
                outcomes: Vec::new(),
                aborted_flags: Vec::new(),
                quarantined: Vec::new(),
            };
            for episode in 0..episodes {
                let mut outcome = pinned_checkpoint().outcomes[episode % 3].clone();
                outcome.cost = FLOATS[rng.below(6) as usize];
                outcome.recovery_time = FLOATS[rng.below(6) as usize];
                outcome.residual_time = FLOATS[rng.below(6) as usize];
                outcome.actions = rng.below(100) as usize;
                let aborted = rng.below(2) == 1;
                if aborted && rng.below(2) == 1 {
                    cp.quarantined.push(QuarantinedEpisode {
                        episode,
                        fault: outcome.fault,
                        seed: rng.next_u64(),
                        payload: (0..rng.below(9))
                            .map(|_| CHARS[rng.below(8) as usize])
                            .collect(),
                    });
                }
                cp.outcomes.push(outcome);
                cp.aborted_flags.push(aborted);
            }
            let payload = cp.encode();
            let parsed = CampaignCheckpoint::decode(&payload).unwrap();
            let mut expected = cp.clone();
            for q in &mut expected.quarantined {
                q.payload = Sanitized(&q.payload).to_string();
            }
            proptest::prop_assert_eq!(&parsed, &expected);
            proptest::prop_assert_eq!(parsed.encode(), payload);
        }
    }

    /// The encoded payload of [`pinned_checkpoint`] reproduces a pinned
    /// digest, so no codec change can move the on-disk bytes unnoticed.
    #[test]
    fn campaign_payload_matches_pinned_digest() {
        let payload = pinned_checkpoint().encode();
        assert!(payload.contains("boom at line 42  \n"), "{payload}");
        assert_eq!(
            fnv1a64(payload.as_bytes()),
            1524345542220899993,
            "{payload}"
        );
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bpr_campaign_{}_{name}", std::process::id()))
    }

    /// An oracle that panics inside `decide()` when poisoned — the
    /// fixture for the quarantine tests.
    struct PanickyController {
        inner: OracleController,
        poisoned: bool,
    }

    impl RecoveryController for PanickyController {
        fn name(&self) -> &str {
            "panicky"
        }
        fn begin(&mut self, initial: Belief, true_fault: Option<StateId>) -> Result<(), Error> {
            self.inner.begin(initial, true_fault)
        }
        fn decide(&mut self) -> Result<Step, Error> {
            assert!(!self.poisoned, "poisoned episode");
            self.inner.decide()
        }
        fn observe(&mut self, action: ActionId, o: ObservationId) -> Result<(), Error> {
            self.inner.observe(action, o)
        }
        fn belief(&self) -> Option<Belief> {
            self.inner.belief()
        }
        fn uses_monitors(&self) -> bool {
            self.inner.uses_monitors()
        }
    }

    fn population() -> Vec<StateId> {
        vec![
            StateId::new(two_server::FAULT_A),
            StateId::new(two_server::FAULT_B),
        ]
    }

    #[test]
    fn empty_population_is_rejected() {
        let m = model();
        let err = Campaign::new(&m)
            .episodes(3)
            .run(|_| Ok(OracleController::new(m.clone())));
        assert!(err.is_err());
    }

    #[test]
    fn zero_threads_is_rejected() {
        let m = model();
        let err = Campaign::new(&m)
            .population(&population())
            .episodes(3)
            .threads(0)
            .run(|_| Ok(OracleController::new(m.clone())));
        assert!(err.is_err());
    }

    #[test]
    fn episode_order_is_stable_and_faults_cycle() {
        let m = model();
        let pop = population();
        let report = Campaign::new(&m)
            .population(&pop)
            .episodes(9)
            .seed(3)
            .threads(4)
            .run(|_| Ok(OracleController::new(m.clone())))
            .unwrap();
        assert_eq!(report.outcomes.len(), 9);
        assert_eq!(report.summary.episodes, 9);
        assert_eq!(report.aborted, 0);
        for (i, out) in report.outcomes.iter().enumerate() {
            assert_eq!(out.fault, pop[i % pop.len()], "episode {i}");
        }
    }

    #[test]
    fn parallel_campaign_matches_serial_bit_for_bit() {
        let m = model();
        let pop = population();
        let session = |threads: usize| {
            Campaign::new(&m)
                .population(&pop)
                .episodes(12)
                .seed(11)
                .threads(threads)
                .run(|_| MostLikelyController::new(m.clone(), 0.95))
                .unwrap()
        };
        let serial = session(1);
        let wide = session(4);
        assert_eq!(serial.canonical_outcomes(), wide.canonical_outcomes());
        assert_eq!(serial.summary.mean_cost, wide.summary.mean_cost);
    }

    #[test]
    fn degraded_campaign_is_thread_count_invariant_and_aborts_count() {
        let m = model();
        let pop = population();
        let plan = PerturbationPlan {
            seed: 9,
            monitor_dropout_prob: 0.4,
            action_failure_prob: 0.3,
            ..PerturbationPlan::none()
        };
        let session = |threads: usize| {
            Campaign::new(&m)
                .population(&pop)
                .episodes(10)
                .max_steps(60)
                .degraded(&plan)
                .seed(5)
                .threads(threads)
                .abort_tolerant(true)
                .run(|_| MostLikelyController::new(m.clone(), 0.95))
                .unwrap()
        };
        let serial = session(1);
        let wide = session(3);
        assert_eq!(serial.canonical_outcomes(), wide.canonical_outcomes());
        assert_eq!(serial.aborted, wide.aborted);
        // The perturbations actually fired on some episode.
        assert!(serial
            .outcomes
            .iter()
            .any(|o| o.perturbations.total() > 0 || !o.terminated));
    }

    #[test]
    fn killed_campaign_resumes_bit_identically_across_thread_counts() {
        let m = model();
        let pop = population();
        let path = scratch("kill_resume");
        let _ = std::fs::remove_file(&path);
        let session = |episodes: usize, threads: usize, checkpointed: bool| {
            let mut c = Campaign::new(&m)
                .population(&pop)
                .episodes(episodes)
                .seed(23)
                .threads(threads);
            if checkpointed {
                c = c.checkpoint(&path, 2);
            }
            c.run(|_| MostLikelyController::new(m.clone(), 0.95))
                .unwrap()
        };
        let reference = session(12, 1, false);

        // "Kill" at episode 5 by running a shorter target, then resume
        // to the full target on a different thread count.
        let killed = session(5, 2, true);
        assert_eq!(killed.checkpoints_written, 3);
        assert_eq!(killed.resumed_from, None);
        let resumed = session(12, 4, true);
        assert_eq!(resumed.resumed_from, Some(5));
        assert_eq!(resumed.snapshot_error, None);
        assert_eq!(resumed.canonical_outcomes(), reference.canonical_outcomes());
        // Summaries agree on everything but the wall-clock mean.
        assert_eq!(resumed.summary.mean_cost, reference.summary.mean_cost);
        assert_eq!(resumed.summary.unrecovered, reference.summary.unrecovered);

        // A third run finds the finished checkpoint and replays it
        // without re-running a single episode.
        let replayed = session(12, 1, true);
        assert_eq!(replayed.resumed_from, Some(12));
        assert_eq!(replayed.checkpoints_written, 0);
        assert_eq!(
            replayed.canonical_outcomes(),
            reference.canonical_outcomes()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_campaign_checkpoint_is_discarded_with_a_typed_error() {
        let m = model();
        let pop = population();
        let path = scratch("corrupt");
        let _ = std::fs::remove_file(&path);
        let session = |checkpointed: bool| {
            let mut c = Campaign::new(&m)
                .population(&pop)
                .episodes(6)
                .seed(31)
                .threads(2);
            if checkpointed {
                c = c.checkpoint(&path, 3);
            }
            c.run(|_| MostLikelyController::new(m.clone(), 0.95))
                .unwrap()
        };
        session(true);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let report = session(true);
        assert!(matches!(
            report.snapshot_error,
            Some(SnapshotError::ChecksumMismatch { .. })
        ));
        assert_eq!(report.resumed_from, None);
        assert_eq!(
            report.canonical_outcomes(),
            session(false).canonical_outcomes()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_campaign_checkpoint_is_rejected_as_incompatible() {
        let m = model();
        let pop = population();
        let path = scratch("foreign");
        let _ = std::fs::remove_file(&path);
        let session = |seed: u64| {
            Campaign::new(&m)
                .population(&pop)
                .episodes(4)
                .seed(seed)
                .checkpoint(&path, 2)
                .run(|_| Ok(OracleController::new(m.clone())))
                .unwrap()
        };
        session(1);
        let report = session(2);
        assert!(matches!(
            report.snapshot_error,
            Some(SnapshotError::Incompatible { .. })
        ));
        assert_eq!(report.resumed_from, None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicking_episode_is_quarantined_when_tolerant() {
        let m = model();
        let pop = population();
        let path = scratch("quarantine");
        let _ = std::fs::remove_file(&path);
        let session = |threads: usize| {
            Campaign::new(&m)
                .population(&pop)
                .episodes(8)
                .seed(7)
                .threads(threads)
                .abort_tolerant(true)
                .checkpoint(&path, 4)
                .run(|i| {
                    Ok(PanickyController {
                        inner: OracleController::new(m.clone()),
                        poisoned: i == 3,
                    })
                })
                .unwrap()
        };
        for threads in [1usize, 3] {
            let _ = std::fs::remove_file(&path);
            let report = session(threads);
            assert_eq!(report.aborted, 1, "threads {threads}");
            assert_eq!(report.quarantined.len(), 1);
            let q = &report.quarantined[0];
            assert_eq!(q.episode, 3);
            assert_eq!(q.fault, pop[3 % pop.len()]);
            assert_eq!(q.seed, split_seed(7, 3));
            assert!(
                q.payload.contains("poisoned episode"),
                "payload: {}",
                q.payload
            );
            assert!(!report.outcomes[3].terminated);
            assert!(report.outcomes[2].terminated, "healthy episodes survive");
        }

        // The quarantine survives a checkpoint round-trip.
        let replayed = session(1);
        assert_eq!(replayed.resumed_from, Some(8));
        assert_eq!(replayed.quarantined.len(), 1);
        assert_eq!(replayed.quarantined[0].episode, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicking_episode_fails_an_intolerant_campaign_with_a_typed_error() {
        let m = model();
        let pop = population();
        let err = Campaign::new(&m)
            .population(&pop)
            .episodes(6)
            .seed(7)
            .threads(2)
            .run(|i| {
                Ok(PanickyController {
                    inner: OracleController::new(m.clone()),
                    poisoned: i == 2,
                })
            })
            .unwrap_err();
        match err {
            Error::Panicked { detail } => {
                assert!(detail.contains("episode 2"), "detail: {detail}");
                assert!(detail.contains("poisoned episode"), "detail: {detail}");
            }
            other => panic!("expected Error::Panicked, got {other:?}"),
        }
    }

    #[test]
    fn empty_campaign_yields_a_named_zero_summary() {
        let m = model();
        let report = Campaign::new(&m)
            .population(&population())
            .run(|_| Ok(OracleController::new(m.clone())))
            .unwrap();
        assert_eq!(report.summary.episodes, 0);
        assert_eq!(report.summary.controller, "oracle");
        assert_eq!(report.episodes_per_sec(), 0.0);
    }
}
