//! The checkpoint payload codec against well-checksummed but
//! structurally hostile payloads, and the serve checkpoint round trip.
//!
//! The corruption tests in `durability.rs` and the crates flip container
//! bytes, so the checksum stops them before any payload decoder runs.
//! Here every hostile payload goes through `write_snapshot` /
//! `write_partition` with a valid checksum (a partition's manifest entry
//! is re-pointed at its new digest), so the decoders themselves see it:
//!
//! * a line dropped, duplicated, or cut short (the payload ends halfway
//!   through the line or one character before its end, as a torn write
//!   whose checksum was recomputed would);
//! * a field added or removed; text where a number belongs;
//! * an unknown key; every line of one key omitted.
//!
//! Each must end in a typed `SnapshotError::{Malformed, Incompatible}`,
//! never a panic, and resuming from it must fall back the way each
//! runner documents: `bootstrap_par` and `Campaign` to a fresh run from
//! the seed state, the daemon to a fresh run for a bad manifest and to
//! fresh admission of one partition's incidents for a bad partition.
//!
//! The only variants a decoder cannot reject are edits of lists whose
//! length no other line records — a bootstrap `record` or campaign
//! `quarantined` line dropped, a queued fault added to or removed from
//! the serve `queue` line. Those are genuine checkpoints of another
//! history; they must resume without error, and the test names them.

use bpr_core::baselines::OracleController;
use bpr_core::bootstrap::{bootstrap_par, BootstrapConfig, BootstrapVariant};
use bpr_core::snapshot::{
    fnv1a64, partition_path, read_partition, read_snapshot, write_partition, write_snapshot,
    CheckpointPolicy, SnapshotError,
};
use bpr_core::{ActionId, Error, RecoveryController, StateId, Step};
use bpr_emn::two_server;
use bpr_mdp::chain::SolveOpts;
use bpr_par::WorkPool;
use bpr_pomdp::bounds::ra_bound;
use bpr_pomdp::{Belief, ObservationId};
use bpr_serve::checkpoint::PartitionCache;
use bpr_serve::{
    Daemon, IncidentRecord, IncidentStatus, LiveIncident, RungKind, Schedule, ServeCheckpoint,
    ServeConfig, SyntheticEvents,
};
use bpr_sim::Campaign;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bpr_payloads_{}_{name}", std::process::id()))
}

fn remove_checkpoint(base: &Path) {
    let _ = std::fs::remove_file(base);
    for k in 0..8 {
        let _ = std::fs::remove_file(partition_path(base, &format!("p{k}")));
    }
}

fn is_typed(e: &SnapshotError) -> bool {
    matches!(
        e,
        SnapshotError::Malformed { .. } | SnapshotError::Incompatible { .. }
    )
}

/// The key of a payload line: the word before its first space, or the
/// whole line when it is a bare marker. Tab-separated number rows (the
/// bootstrap bound section) have none.
fn key_of(line: &str) -> Option<&str> {
    let key = line.split(' ').next().unwrap_or_default();
    (!key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_lowercase() || c == '_' || c == '-'))
    .then_some(key)
}

/// The separator between a line's fields and the fields themselves
/// (the key excluded).
fn fields_of(line: &str) -> (char, Vec<&str>) {
    let body = match key_of(line) {
        Some(key) => line.get(key.len() + 1..).unwrap_or_default(),
        None => line,
    };
    let sep = if body.contains('\t') { '\t' } else { ' ' };
    let fields = if body.is_empty() {
        Vec::new()
    } else {
        body.split(sep).collect()
    };
    (sep, fields)
}

fn looks_numeric(field: &str) -> bool {
    field.parse::<f64>().is_ok()
        || (field.len() == 16 && field.chars().all(|c| c.is_ascii_hexdigit()))
}

/// Every hostile variant of `payload`, each with a description that
/// starts with what was done and names the line's key.
fn hostile_variants(payload: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = payload.split_terminator('\n').collect();
    let join = |lines: &[String]| -> String { lines.iter().map(|l| format!("{l}\n")).collect() };
    let owned: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let key = key_of(line).unwrap_or("row");
        let replaced = |new: Vec<String>| {
            let mut all = owned.clone();
            all.splice(i..=i, new);
            join(&all)
        };
        out.push((format!("drop `{key}` line {i}"), replaced(vec![])));
        out.push((
            format!("duplicate `{key}` line {i}"),
            replaced(vec![line.to_string(), line.to_string()]),
        ));
        let chars: Vec<char> = line.chars().collect();
        for keep in [chars.len() / 2, chars.len().saturating_sub(1)] {
            if keep > 0 {
                let cut: String = chars[..keep].iter().collect();
                out.push((
                    format!("cut inside `{key}` line {i} after {keep} characters"),
                    join(&owned[..i]) + &cut,
                ));
            }
        }
        let (sep, fields) = fields_of(line);
        out.push((
            format!("add a field to `{key}` line {i}"),
            replaced(vec![format!("{line}{sep}0")]),
        ));
        if let Some(at) = line.rfind(sep) {
            out.push((
                format!("remove a field of `{key}` line {i}"),
                replaced(vec![line[..at].to_string()]),
            ));
        }
        for (j, field) in fields.iter().enumerate() {
            if looks_numeric(field) {
                let mut edited = fields.clone();
                edited[j] = "x";
                let body = edited.join(&sep.to_string());
                let new = match key_of(line) {
                    Some(key) => format!("{key} {body}"),
                    None => body,
                };
                out.push((
                    format!("text for the number in field {j} of `{key}` line {i}"),
                    replaced(vec![new]),
                ));
            }
        }
        if let Some(key) = key_of(line) {
            let rest = &line[key.len()..];
            out.push((
                format!("unknown key for `{key}` line {i}"),
                replaced(vec![format!("bogus{rest}")]),
            ));
        }
    }
    let mut keys: Vec<&str> = lines.iter().filter_map(|l| key_of(l)).collect();
    keys.dedup();
    for key in keys {
        let kept: Vec<String> = owned
            .iter()
            .filter(|l| key_of(l) != Some(key))
            .cloned()
            .collect();
        out.push((format!("omit every `{key}` line"), join(&kept)));
    }
    out.retain(|(_, variant)| variant != payload);
    out
}

/// Whether `what` is one of the list edits no decoder can reject.
fn is_genuine_edit(what: &str, genuine: &[&str]) -> bool {
    genuine.iter().any(|g| what.starts_with(g))
}

fn bootstrap_setup() -> (bpr_core::TerminatedModel, bpr_pomdp::bounds::VectorSetBound) {
    let model = two_server::default_model().expect("model builds");
    let model = model.without_notification(50.0).expect("transform");
    let bound = ra_bound(model.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    (model, bound)
}

#[test]
fn hostile_bootstrap_payloads_fall_back_to_the_seed_bound() {
    let config = BootstrapConfig {
        variant: BootstrapVariant::Random,
        iterations: 12,
        depth: 1,
        max_steps: 15,
        conditioning_action: ActionId::new(2),
        ..BootstrapConfig::default()
    };
    let run = |config: &BootstrapConfig, policy: Option<&CheckpointPolicy>| {
        let (model, mut bound) = bootstrap_setup();
        let report = bootstrap_par(
            &model,
            &mut bound,
            config,
            4,
            77,
            &WorkPool::serial(),
            policy,
        )
        .expect("bootstrap runs");
        (report, bound.to_tsv())
    };
    let (fresh, fresh_bound) = run(&config, None);
    let path = scratch("bootstrap");
    let policy = CheckpointPolicy::new(&path, 1);
    let killed = BootstrapConfig {
        iterations: 8,
        ..config.clone()
    };
    let _ = std::fs::remove_file(&path);
    run(&killed, Some(&policy));
    let payload = read_snapshot(&path, "bootstrap").unwrap().unwrap();
    let variants = hostile_variants(&payload);
    assert!(variants.len() > 60, "{} variants", variants.len());
    for (what, variant) in variants {
        write_snapshot(&path, "bootstrap", &variant).unwrap();
        let (resumed, bound) = run(&config, Some(&policy));
        match &resumed.snapshot_error {
            Some(e) => {
                assert!(is_typed(e), "{what}: {e:?}");
                assert_eq!(resumed.resumed_from, None, "{what}");
                assert_eq!(resumed.report, fresh.report, "{what}");
                assert_eq!(bound, fresh_bound, "{what}");
            }
            None => {
                assert!(
                    is_genuine_edit(&what, &["drop `record`", "omit every `record`"]),
                    "{what} was accepted"
                );
                assert_eq!(resumed.resumed_from, Some(8), "{what}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// An oracle controller that panics with a multi-line, tabbed payload
/// on poisoned episodes.
struct PoisonedController {
    inner: OracleController,
    poisoned: bool,
}

impl RecoveryController for PoisonedController {
    fn name(&self) -> &str {
        "poisoned"
    }
    fn begin(&mut self, initial: Belief, true_fault: Option<StateId>) -> Result<(), Error> {
        self.inner.begin(initial, true_fault)
    }
    fn decide(&mut self) -> Result<Step, Error> {
        assert!(!self.poisoned, "poisoned\tepisode\nline two");
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
fn hostile_campaign_payloads_fall_back_to_a_fresh_run() {
    let model = two_server::default_model().expect("model builds");
    let population = [
        StateId::new(two_server::FAULT_A),
        StateId::new(two_server::FAULT_B),
    ];
    let path = scratch("campaign");
    let campaign = |episodes: usize, checkpoint: bool| {
        let session = Campaign::new(&model)
            .population(&population)
            .episodes(episodes)
            .seed(5)
            .abort_tolerant(true);
        let session = if checkpoint {
            session.checkpoint(&path, 3)
        } else {
            session
        };
        session
            .run(|i| {
                Ok(PoisonedController {
                    inner: OracleController::new(model.clone()),
                    poisoned: i % 3 == 1,
                })
            })
            .expect("tolerant campaign runs")
    };
    let fresh = campaign(9, false);
    let _ = std::fs::remove_file(&path);
    campaign(6, true);
    let payload = read_snapshot(&path, "campaign").unwrap().unwrap();
    assert!(payload.contains("quarantined "), "{payload}");
    for (what, variant) in hostile_variants(&payload) {
        write_snapshot(&path, "campaign", &variant).unwrap();
        let resumed = campaign(9, true);
        match &resumed.snapshot_error {
            Some(e) => {
                assert!(is_typed(e), "{what}: {e:?}");
                assert_eq!(resumed.resumed_from, None, "{what}");
                assert_eq!(
                    resumed.canonical_outcomes(),
                    fresh.canonical_outcomes(),
                    "{what}"
                );
                assert_eq!(resumed.quarantined, fresh.quarantined, "{what}");
            }
            None => {
                assert!(
                    is_genuine_edit(&what, &["drop `quarantined`", "omit every `quarantined`"]),
                    "{what} was accepted"
                );
                assert_eq!(resumed.resumed_from, Some(6), "{what}");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

fn serve_config(checkpoint: &Path, kill_after: Option<u64>) -> ServeConfig {
    ServeConfig {
        max_live: 3,
        queue_capacity: 8,
        degrade_queue_depth: 5,
        max_steps: 30,
        escalate_resilient_after: 5,
        escalate_anytime_after: 9,
        master_seed: 11,
        record_actions: true,
        chaos_panic_incidents: vec![1],
        checkpoint: Some(CheckpointPolicy::new(checkpoint, 1)),
        checkpoint_partitions: 3,
        kill_after_rounds: kill_after,
        ..ServeConfig::default()
    }
}

fn serve_run(config: ServeConfig) -> bpr_serve::ServeReport {
    let model = two_server::default_model().expect("model builds");
    let faults = vec![
        StateId::new(two_server::FAULT_A),
        StateId::new(two_server::FAULT_B),
    ];
    let schedule = Schedule::Bursty {
        background: 1,
        burst: 5,
        period: 3,
    };
    let mut source = SyntheticEvents::new(11, schedule, faults, 8).expect("source builds");
    Daemon::new(&model, config)
        .expect("daemon builds")
        .run(&mut source)
        .expect("run completes")
}

/// The `part` line of partition `k` in a manifest payload, split into
/// fields (`part k generation fnv live records`).
fn part_line(manifest: &str, k: usize) -> Vec<String> {
    manifest
        .lines()
        .find(|l| l.starts_with(&format!("part {k} ")))
        .expect("partition entry")
        .split(' ')
        .map(str::to_string)
        .collect()
}

#[test]
fn hostile_serve_payloads_degrade_as_the_daemon_documents() {
    let reference = scratch("serve_reference");
    remove_checkpoint(&reference);
    let fresh = serve_run(serve_config(&reference, None)).canonical();
    remove_checkpoint(&reference);

    let base = scratch("serve");
    remove_checkpoint(&base);
    let killed = serve_run(serve_config(&base, Some(5)));
    assert!(killed.killed && killed.live_at_exit > 0 && killed.queued_at_exit > 0);
    let files: Vec<(PathBuf, Vec<u8>)> = std::iter::once(base.clone())
        .chain((0..3).map(|k| partition_path(&base, &format!("p{k}"))))
        .filter_map(|p| std::fs::read(&p).ok().map(|bytes| (p, bytes)))
        .collect();
    let restore = || {
        remove_checkpoint(&base);
        for (path, bytes) in &files {
            std::fs::write(path, bytes).unwrap();
        }
    };
    let manifest = read_snapshot(&base, "serve-manifest").unwrap().unwrap();
    let (original, _, outcomes) = ServeCheckpoint::load_partitioned(&base).unwrap().unwrap();
    assert!(outcomes.is_empty());

    // A hostile manifest: the daemon runs fresh.
    for (what, variant) in hostile_variants(&manifest) {
        restore();
        write_snapshot(&base, "serve-manifest", &variant).unwrap();
        let resumed = serve_run(serve_config(&base, None));
        match &resumed.snapshot_error {
            Some(e) => {
                assert!(is_typed(e), "{what}: {e:?}");
                assert_eq!(resumed.resumed_from, None, "{what}");
                assert_eq!(resumed.canonical(), fresh, "{what}");
            }
            None => {
                assert!(
                    is_genuine_edit(
                        &what,
                        &["add a field to `queue`", "remove a field of `queue`"]
                    ),
                    "{what} was accepted"
                );
                assert!(resumed.resumed_from.is_some(), "{what}");
            }
        }
    }

    // A hostile partition whose manifest entry carries its checksum:
    // only that partition degrades.
    let mut checked = 0;
    for k in 0..3 {
        restore();
        let part = part_line(&manifest, k);
        let generation: u64 = part[2].parse().unwrap();
        let label = format!("p{k}");
        let Ok(Some(payload)) = read_partition(
            &base,
            &label,
            "serve-part",
            original.fingerprint,
            generation,
        ) else {
            continue;
        };
        for (what, variant) in hostile_variants(&payload) {
            restore();
            write_partition(
                &base,
                &label,
                "serve-part",
                original.fingerprint,
                generation,
                &variant,
            )
            .unwrap();
            let mut entry = part.clone();
            entry[3] = format!("{:016x}", fnv1a64(variant.as_bytes()));
            let repointed = manifest.replace(&part.join(" "), &entry.join(" "));
            write_snapshot(&base, "serve-manifest", &repointed).unwrap();
            let (loaded, _, outcomes) = ServeCheckpoint::load_partitioned(&base)
                .unwrap_or_else(|e| panic!("p{k} {what}: manifest rejected: {e:?}"))
                .unwrap();
            assert_eq!(outcomes.len(), 1, "p{k} {what} was accepted");
            assert_eq!(outcomes[0].partition, k as u32, "p{k} {what}");
            assert!(is_typed(&outcomes[0].error), "p{k} {what}: {outcomes:?}");
            for l in &loaded.live {
                let expected = original.live.iter().find(|o| o.id == l.id).unwrap();
                let steps = if l.id % 3 == k as u64 {
                    0
                } else {
                    expected.steps
                };
                assert_eq!(l.steps, steps, "p{k} {what}");
            }
            checked += 1;
        }
    }
    assert!(checked > 20, "{checked} partition variants");
    remove_checkpoint(&base);
}

/// Floats the round trips must carry bit for bit.
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

/// Free text with the characters a sanitizer must neutralise.
const TEXT_CHARS: [char; 10] = ['a', 'Z', ' ', '\t', '\n', '\r', 'é', '\u{7}', ':', ','];

fn text(rng: &mut proptest::TestRng) -> String {
    (0..rng.below(8))
        .map(|_| TEXT_CHARS[rng.below(TEXT_CHARS.len() as u64) as usize])
        .collect()
}

fn sanitized(text: &str) -> String {
    text.chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect()
}

fn random_serve_checkpoint(seed: u64) -> ServeCheckpoint {
    let mut rng = proptest::TestRng::for_case(seed);
    let rungs = [RungKind::Bounded, RungKind::Resilient, RungKind::Anytime];
    let statuses = [
        IncidentStatus::Recovered,
        IncidentStatus::TerminatedFaulty,
        IncidentStatus::StepLimit,
        IncidentStatus::ControllerError,
        IncidentStatus::Quarantined,
    ];
    let mut ids: Vec<u64> = (0..rng.below(10)).map(|i| i * 3 + rng.below(3)).collect();
    ids.dedup();
    let split = rng.below(ids.len() as u64 + 1) as usize;
    let live = ids[..split]
        .iter()
        .map(|&id| LiveIncident {
            id,
            fault: StateId::new(rng.below(5) as usize),
            admitted_rung: rungs[rng.below(3) as usize],
            steps: rng.below(40) as usize,
        })
        .collect();
    let records = ids[split..]
        .iter()
        .map(|&id| IncidentRecord {
            id,
            fault: StateId::new(rng.below(5) as usize),
            status: statuses[rng.below(5) as usize],
            steps: rng.below(40) as usize,
            cost: AWKWARD_FLOATS[rng.below(8) as usize],
            decision_hash: rng.next_u64(),
            admitted_rung: rungs[rng.below(3) as usize],
            final_rung: rungs[rng.below(3) as usize],
            escalations: rng.below(3) as usize,
            detail: text(&mut rng),
            actions: match rng.below(3) {
                0 => None,
                1 => Some(Vec::new()),
                _ => Some((0..rng.below(5)).map(|_| rng.below(9) as i64 - 4).collect()),
            },
        })
        .collect();
    ServeCheckpoint {
        fingerprint: rng.next_u64(),
        tick: rng.next_u64(),
        rounds: rng.below(1000),
        next_id: rng.below(1000),
        events_seen: rng.next_u64(),
        shed_queue_full: rng.below(50),
        admitted: rng.below(50),
        degraded_admissions: rng.below(50),
        escalated_resilient: rng.below(50),
        escalated_anytime: rng.below(50),
        decisions: u64::MAX - rng.below(3),
        queue: (0..rng.below(4))
            .map(|_| StateId::new(rng.below(5) as usize))
            .collect(),
        live,
        records,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `load(save(x)) == x` for random serve checkpoints over 1–6
    /// partitions: empty queues, empty and absent action lists,
    /// zero-record partitions, awkward floats, and details that come
    /// back sanitized.
    #[test]
    fn serve_checkpoint_roundtrips(seed in 0u64..u64::MAX, partitions in 1u32..7) {
        let cp = random_serve_checkpoint(seed);
        let base = scratch(&format!("roundtrip_{seed:x}"));
        remove_checkpoint(&base);
        cp.save_partitioned(&base, partitions, 3, &mut PartitionCache::default())
            .unwrap();
        let (loaded, generation, outcomes) =
            ServeCheckpoint::load_partitioned(&base).unwrap().unwrap();
        remove_checkpoint(&base);
        let mut expected = cp.clone();
        for r in &mut expected.records {
            r.detail = sanitized(&r.detail);
        }
        prop_assert_eq!(generation, 3);
        prop_assert!(outcomes.is_empty(), "{:?}", outcomes);
        prop_assert_eq!(&loaded, &expected);
        let bits = |c: &ServeCheckpoint| -> Vec<u64> {
            c.records.iter().map(|r| r.cost.to_bits()).collect()
        };
        prop_assert_eq!(bits(&loaded), bits(&expected));
    }
}

/// A well-formed manifest whose live incident or queued event names a
/// fault the model does not have: the daemon runs fresh instead of
/// failing to start.
#[test]
fn faults_outside_the_model_fall_back_to_a_fresh_run() {
    let reference = scratch("fault_range_reference");
    remove_checkpoint(&reference);
    let fresh = serve_run(serve_config(&reference, None)).canonical();
    remove_checkpoint(&reference);
    let base = scratch("fault_range");
    for edit in ["live", "queue"] {
        remove_checkpoint(&base);
        serve_run(serve_config(&base, Some(5)));
        let manifest = read_snapshot(&base, "serve-manifest").unwrap().unwrap();
        let (line, _) = manifest
            .split_terminator('\n')
            .enumerate()
            .find(|(_, l)| l.starts_with(&format!("{edit} ")))
            .unwrap();
        let edited: String = manifest
            .split_terminator('\n')
            .enumerate()
            .map(|(i, l)| match (i == line, edit) {
                (true, "live") => {
                    let f: Vec<&str> = l.split('\t').collect();
                    format!("{}\t999\t{}\n", f[0], f[2])
                }
                (true, _) => format!("queue 999{}\n", &l[5..]),
                _ => format!("{l}\n"),
            })
            .collect();
        write_snapshot(&base, "serve-manifest", &edited).unwrap();
        let resumed = serve_run(serve_config(&base, None));
        let error = resumed.snapshot_error.as_ref().expect("fault 999 rejected");
        assert!(is_typed(error), "{edit}: {error:?}");
        assert_eq!(resumed.resumed_from, None, "{edit}");
        assert_eq!(resumed.canonical(), fresh, "{edit}");
    }
    remove_checkpoint(&base);
}
