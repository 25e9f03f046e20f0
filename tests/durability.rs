//! Durability contract of the checkpoint/restore runtime:
//!
//! * A campaign checkpointed every `k` episodes, killed at an arbitrary
//!   checkpoint boundary, and resumed — possibly at a different thread
//!   count — reproduces the uninterrupted run's canonical outcomes
//!   bit-for-bit, for random master seeds and intervals (property
//!   test).
//! * Every corruption mode (truncation, single bit-flip, wrong-version
//!   header) yields a typed `SnapshotError` and a clean fallback to a
//!   fresh run — never a panic, never silently-wrong results.
//! * The durable bootstrap falls back to the seed RA-Bound on a
//!   corrupted snapshot and resumes bit-identically from a good one, to
//!   a pinned digest.
//! * A panicking episode is quarantined (fault, seed, payload) without
//!   tearing down an abort-tolerant campaign.

use bpr_core::baselines::{MostLikelyController, OracleController};
use bpr_core::bootstrap::{bootstrap_par, BootstrapConfig, BootstrapVariant};
use bpr_core::snapshot::{fnv1a64, CheckpointPolicy, SnapshotError};
use bpr_core::{ActionId, Error, RecoveryController, StateId, Step};
use bpr_emn::two_server;
use bpr_mdp::chain::SolveOpts;
use bpr_par::WorkPool;
use bpr_pomdp::bounds::ra_bound;
use bpr_pomdp::{Belief, ObservationId};
use bpr_sim::Campaign;
use proptest::prelude::*;

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bpr_durability_{}_{name}", std::process::id()))
}

fn population() -> Vec<StateId> {
    vec![
        StateId::new(two_server::FAULT_A),
        StateId::new(two_server::FAULT_B),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint-every-k, kill at a boundary, resume — bit-identical
    /// to the straight-through run for random seeds, intervals, and
    /// kill points.
    #[test]
    fn killed_campaign_resume_is_bit_identical(
        master_seed in 0u64..u64::MAX,
        every in 1usize..5,
        kill_round in 1usize..4,
        resume_threads in 1usize..5,
    ) {
        let episodes = 16usize;
        let model = two_server::default_model().expect("model builds");
        let pop = population();
        let path = scratch(&format!("prop_{master_seed:x}"));
        let _ = std::fs::remove_file(&path);
        let session = |episodes: usize, threads: usize, checkpointed: bool| {
            let mut c = Campaign::new(&model)
                .population(&pop)
                .episodes(episodes)
                .max_steps(80)
                .seed(master_seed)
                .threads(threads);
            if checkpointed {
                c = c.checkpoint(&path, every);
            }
            c.run(|_| MostLikelyController::new(model.clone(), 0.95))
                .expect("campaign runs")
        };
        let reference = session(episodes, 1, false);
        let kill_point = (kill_round * every).min(episodes);
        session(kill_point, 2, true);
        let resumed = session(episodes, resume_threads, true);
        prop_assert_eq!(resumed.resumed_from, Some(kill_point));
        prop_assert!(resumed.snapshot_error.is_none());
        prop_assert_eq!(resumed.canonical_outcomes(), reference.canonical_outcomes());
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn every_corruption_mode_degrades_cleanly() {
    let model = two_server::default_model().expect("model builds");
    let pop = population();
    let path = scratch("corruption_matrix");
    let _ = std::fs::remove_file(&path);
    let session = || {
        Campaign::new(&model)
            .population(&pop)
            .episodes(6)
            .seed(19)
            .checkpoint(&path, 2)
            .run(|_| MostLikelyController::new(model.clone(), 0.95))
            .expect("campaign runs")
    };
    let reference = session();
    let pristine = std::fs::read(&path).expect("snapshot written");

    // Truncation: drop the tail of the payload.
    std::fs::write(&path, &pristine[..pristine.len() - 7]).unwrap();
    let report = session();
    assert!(
        matches!(report.snapshot_error, Some(SnapshotError::Truncated { .. })),
        "truncation: {:?}",
        report.snapshot_error
    );
    assert_eq!(report.resumed_from, None);
    assert_eq!(report.canonical_outcomes(), reference.canonical_outcomes());

    // Single bit-flip in the payload.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    let report = session();
    assert!(
        matches!(
            report.snapshot_error,
            Some(SnapshotError::ChecksumMismatch { .. }) | Some(SnapshotError::Malformed { .. })
        ),
        "bit-flip: {:?}",
        report.snapshot_error
    );
    assert_eq!(report.resumed_from, None);
    assert_eq!(report.canonical_outcomes(), reference.canonical_outcomes());

    // Wrong-version header.
    let text = String::from_utf8(pristine.clone()).expect("snapshot is text");
    let bumped = text.replacen("bpr-snapshot 1 ", "bpr-snapshot 999 ", 1);
    std::fs::write(&path, bumped).unwrap();
    let report = session();
    assert!(
        matches!(
            report.snapshot_error,
            Some(SnapshotError::VersionMismatch { .. })
        ),
        "version: {:?}",
        report.snapshot_error
    );
    assert_eq!(report.resumed_from, None);
    assert_eq!(report.canonical_outcomes(), reference.canonical_outcomes());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_bootstrap_snapshot_falls_back_to_the_seed_bound() {
    let model = two_server::default_model().expect("model builds");
    let transformed = model.without_notification(50.0).expect("transform");
    let config = BootstrapConfig {
        variant: BootstrapVariant::Random,
        iterations: 10,
        depth: 1,
        max_steps: 15,
        conditioning_action: ActionId::new(2),
        ..BootstrapConfig::default()
    };
    let pool = WorkPool::new(2).expect("pool");
    let path = scratch("bootstrap_fallback");
    let _ = std::fs::remove_file(&path);
    let policy = CheckpointPolicy::new(&path, 1);

    let mut reference = ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    let reference_report = bootstrap_par(&transformed, &mut reference, &config, 5, 41, &pool, None)
        .expect("bootstrap")
        .report;

    let mut durable = ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    bootstrap_par(
        &transformed,
        &mut durable,
        &config,
        5,
        41,
        &pool,
        Some(&policy),
    )
    .expect("durable bootstrap");

    let mut bytes = std::fs::read(&path).expect("snapshot written");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();

    let mut fallback = ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    let report = bootstrap_par(
        &transformed,
        &mut fallback,
        &config,
        5,
        41,
        &pool,
        Some(&policy),
    )
    .expect("fallback never panics");
    assert!(
        matches!(
            report.snapshot_error,
            Some(SnapshotError::ChecksumMismatch { .. })
        ),
        "got {:?}",
        report.snapshot_error
    );
    assert_eq!(report.resumed_from, None);
    assert_eq!(report.report, reference_report);
    assert_eq!(fallback.to_tsv(), reference.to_tsv());
    let _ = std::fs::remove_file(&path);
}

/// A bootstrap killed after 6 of 10 episodes and resumed from its
/// snapshot reproduces a pinned hash of the resumed report (records,
/// backup count, resume cursor, checkpoints written), the final
/// hyperplanes and their usage counters.
#[test]
fn killed_and_resumed_bootstrap_matches_pinned_digest() {
    let model = two_server::default_model().expect("model builds");
    let transformed = model.without_notification(50.0).expect("transform");
    let config = BootstrapConfig {
        variant: BootstrapVariant::Random,
        iterations: 10,
        depth: 1,
        max_steps: 15,
        vector_cap: Some(6),
        conditioning_action: ActionId::new(2),
        ..BootstrapConfig::default()
    };
    let pool = WorkPool::new(2).expect("pool");
    let path = scratch("bootstrap_pinned_resume");
    let _ = std::fs::remove_file(&path);
    let policy = CheckpointPolicy::new(&path, 1);

    let killed_at = BootstrapConfig {
        iterations: 6,
        ..config.clone()
    };
    let mut killed = ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    bootstrap_par(
        &transformed,
        &mut killed,
        &killed_at,
        3,
        41,
        &pool,
        Some(&policy),
    )
    .expect("killed bootstrap runs");
    let mut bound = ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    let report = bootstrap_par(
        &transformed,
        &mut bound,
        &config,
        3,
        41,
        &pool,
        Some(&policy),
    )
    .expect("resumed bootstrap runs");
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.resumed_from, Some(6));
    let canon = format!("{report:?}\n{}\n{:?}", bound.to_tsv(), bound.usage_counts());
    assert_eq!(
        fnv1a64(canon.as_bytes()),
        10193203752475547609u64,
        "resumed bootstrap drifted from its pinned digest"
    );
}

/// An oracle that panics inside `decide()` when poisoned.
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
        assert!(!self.poisoned, "durability drill panic");
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

#[test]
fn quarantine_reports_the_poisoned_episode_and_spares_the_rest() {
    let model = two_server::default_model().expect("model builds");
    let pop = population();
    let report = Campaign::new(&model)
        .population(&pop)
        .episodes(10)
        .seed(13)
        .threads(3)
        .abort_tolerant(true)
        .run(|i| {
            Ok(PanickyController {
                inner: OracleController::new(model.clone()),
                poisoned: i == 6,
            })
        })
        .expect("tolerant campaign survives the panic");
    assert_eq!(report.aborted, 1);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.episode, 6);
    assert_eq!(q.fault, pop[6 % pop.len()]);
    assert!(q.payload.contains("durability drill panic"));
    for (i, out) in report.outcomes.iter().enumerate() {
        assert_eq!(out.terminated, i != 6, "episode {i}");
    }
}
