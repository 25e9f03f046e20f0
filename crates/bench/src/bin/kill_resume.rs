//! Kill-and-resume drill for the durable runtime: runs a campaign on
//! a registry scenario (`--scenario`, default `emn`) once
//! uninterrupted, then "kills" a checkpointed run at a seeded random
//! checkpoint boundary and resumes it — asserting the resumed run
//! reproduces the uninterrupted run's canonical outcomes bit-for-bit
//! at every requested thread count. Also drills snapshot corruption
//! (must degrade cleanly, not panic), the durable bootstrap, and
//! measures checkpoint overhead. Exits nonzero on any mismatch and
//! leaves the snapshot behind for post-mortem; on success the snapshot
//! files are cleaned up.
//!
//! Usage:
//! `cargo run -p bpr-bench --bin kill_resume --release -- \
//!     [--scenario emn] [--episodes 60] [--every 5] [--seed 7] \
//!     [--threads 1,2,4] [--max-steps 400] [--bootstrap-iters 24] \
//!     [--batch 8] [--snapshot kill_resume.snapshot] \
//!     [--out BENCH_kill_resume.json]`

use bpr_bench::experiments::bootstrapped_bounded_d1_for;
use bpr_bench::{flag, list_flag, scenario_flag, string_flag};
use bpr_core::bootstrap::{bootstrap_par, BootstrapConfig, BootstrapVariant};
use bpr_core::snapshot::CheckpointPolicy;
use bpr_core::ActionId;
use bpr_mdp::chain::SolveOpts;
use bpr_par::WorkPool;
use bpr_pomdp::bounds::ra_bound;
use bpr_sim::Campaign;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let episodes = flag(&args, "--episodes", 60usize);
    let every = flag(&args, "--every", 5usize).max(1);
    let seed = flag(&args, "--seed", 7u64);
    let max_steps = flag(&args, "--max-steps", 400usize);
    let bootstrap_iters = flag(&args, "--bootstrap-iters", 24usize);
    let batch = flag(&args, "--batch", 8usize);
    let snapshot_path = string_flag(&args, "--snapshot", "kill_resume.snapshot");
    let out_path = string_flag(&args, "--out", "BENCH_kill_resume.json");
    // Unlike the scaling bench, widths here are a *correctness* check
    // (resume must be thread-count invariant), so oversubscribing the
    // hardware is fine and nothing is skipped.
    let widths: Vec<usize> = list_flag(&args, "--threads", &[1, 2, 4])
        .into_iter()
        .filter(|&t| t >= 1)
        .collect();
    let widths = if widths.is_empty() { vec![1] } else { widths };

    let registry = bpr::scenario::builtin();
    let scenario = scenario_flag(&registry, &args, "emn");
    let scenario_name = scenario.name().to_string();

    // The kill point: a seeded-random checkpoint boundary strictly
    // inside the run, so resume always has work left to do.
    let rounds = episodes.div_ceil(every);
    let kill_round = if rounds > 1 {
        StdRng::seed_from_u64(seed ^ 0x6b69_6c6c).gen_range(1..rounds)
    } else {
        1
    };
    let kill_point = (kill_round * every).min(episodes);
    eprintln!(
        "kill_resume[{scenario_name}]: {episodes} episodes, checkpoint every {every}, \
         kill at episode {kill_point}, widths {widths:?}"
    );

    let model = scenario.build().expect("scenario model builds");
    let zombies = scenario.fault_population(&model);
    assert!(!zombies.is_empty(), "scenario has no fault population");
    let operator_response_time = scenario.operator_response_time();
    let prototype = bootstrapped_bounded_d1_for(&model, operator_response_time, seed, 1e-3)
        .expect("bounded-d1 prototype builds");
    let session = |episodes: usize, threads: usize, checkpoint: bool| {
        let mut c = Campaign::new(&model)
            .population(&zombies)
            .episodes(episodes)
            .max_steps(max_steps)
            .seed(seed)
            .threads(threads);
        if checkpoint {
            c = c.checkpoint(&snapshot_path, every);
        }
        c.run(|_| Ok(prototype.clone())).expect("campaign runs")
    };
    let mut failed = false;

    // --- Reference: uninterrupted, no checkpointing.
    let start = Instant::now();
    let reference = session(episodes, 1, false);
    let plain_wall = start.elapsed().as_secs_f64();

    // --- Checkpoint overhead: the same run, checkpointing every round.
    let _ = std::fs::remove_file(&snapshot_path);
    let start = Instant::now();
    let checkpointed = session(episodes, 1, true);
    let durable_wall = start.elapsed().as_secs_f64();
    let overhead = if plain_wall > 0.0 {
        durable_wall / plain_wall - 1.0
    } else {
        0.0
    };
    if checkpointed.canonical_outcomes() != reference.canonical_outcomes() {
        eprintln!("MISMATCH: checkpointing changed campaign results");
        failed = true;
    }
    eprintln!(
        "  overhead: plain {plain_wall:.3}s, checkpointed {durable_wall:.3}s \
         ({} checkpoints, {:+.1}%)",
        checkpointed.checkpoints_written,
        overhead * 100.0
    );

    // --- Kill at the boundary, then resume at every width.
    let _ = std::fs::remove_file(&snapshot_path);
    let killed = session(kill_point, 1, true);
    assert_eq!(killed.resumed_from, None, "killed run must start fresh");
    let frozen = std::fs::read(&snapshot_path).expect("snapshot exists after the killed run");
    let mut resumes = Vec::new();
    for &threads in &widths {
        std::fs::write(&snapshot_path, &frozen).expect("restore snapshot");
        let resumed = session(episodes, threads, true);
        let ok = resumed.resumed_from == Some(kill_point)
            && resumed.snapshot_error.is_none()
            && resumed.canonical_outcomes() == reference.canonical_outcomes();
        if !ok {
            eprintln!(
                "MISMATCH: resume at {threads} threads diverged \
                 (resumed_from {:?}, snapshot_error {:?})",
                resumed.resumed_from, resumed.snapshot_error
            );
            failed = true;
        }
        eprintln!(
            "  resume threads={threads}: from episode {:?}, bit-identical: {ok}",
            resumed.resumed_from
        );
        resumes.push((threads, ok));
    }

    // --- Corruption drill: a bit-flipped snapshot must degrade to a
    // fresh run with a typed error, never a panic or wrong results.
    let mut corrupt = frozen.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    std::fs::write(&snapshot_path, &corrupt).expect("write corrupted snapshot");
    let recovered = session(episodes, 1, true);
    let corruption_ok = recovered.resumed_from.is_none()
        && recovered.snapshot_error.is_some()
        && recovered.canonical_outcomes() == reference.canonical_outcomes();
    if !corruption_ok {
        eprintln!(
            "MISMATCH: corrupted snapshot was not handled cleanly \
             (resumed_from {:?}, snapshot_error {:?})",
            recovered.resumed_from, recovered.snapshot_error
        );
        failed = true;
    }
    eprintln!(
        "  corruption: fell back cleanly ({})",
        recovered
            .snapshot_error
            .as_ref()
            .map_or_else(|| "no error?".to_string(), |e| e.to_string())
    );

    // --- Durable bootstrap: kill at a shorter target, resume, compare
    // against the straight-through parallel bootstrap.
    let boot_snapshot = format!("{snapshot_path}.bootstrap");
    let _ = std::fs::remove_file(&boot_snapshot);
    let transformed = model
        .without_notification(operator_response_time)
        .expect("transform");
    // Condition the bootstrap on the scenario's first observe action
    // (every registry model tags at least one monitor sweep; action 0
    // is the documented fallback).
    let conditioning_action = model
        .observe_actions()
        .first()
        .copied()
        .unwrap_or_else(|| ActionId::new(0));
    let config = BootstrapConfig {
        variant: BootstrapVariant::Random,
        iterations: bootstrap_iters,
        depth: 1,
        max_steps: 40,
        conditioning_action,
        ..BootstrapConfig::default()
    };
    let pool = WorkPool::new(widths[widths.len() - 1]).expect("nonzero width");
    let mut straight = ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    let straight_report = bootstrap_par(
        &transformed,
        &mut straight,
        &config,
        batch,
        seed,
        &pool,
        None,
    )
    .expect("bootstrap runs")
    .report;
    let kill_iters = (bootstrap_iters / 2).max(1);
    let policy = CheckpointPolicy::new(&boot_snapshot, 1);
    let mut durable = ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    let short_config = BootstrapConfig {
        iterations: kill_iters,
        ..config.clone()
    };
    bootstrap_par(
        &transformed,
        &mut durable,
        &short_config,
        batch,
        seed,
        &pool,
        Some(&policy),
    )
    .expect("killed bootstrap runs");
    let mut resumed_bound = ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound");
    let durable_report = bootstrap_par(
        &transformed,
        &mut resumed_bound,
        &config,
        batch,
        seed,
        &pool,
        Some(&policy),
    )
    .expect("resumed bootstrap runs");
    let bootstrap_ok = durable_report.resumed_from.is_some()
        && durable_report.report == straight_report
        && resumed_bound.to_tsv() == straight.to_tsv();
    if !bootstrap_ok {
        eprintln!(
            "MISMATCH: durable bootstrap diverged (resumed_from {:?})",
            durable_report.resumed_from
        );
        failed = true;
    }
    eprintln!(
        "  bootstrap: killed at {kill_iters}/{bootstrap_iters} episodes, \
         resumed bit-identical: {bootstrap_ok}"
    );

    let mut resume_json = String::from("[");
    for (i, (threads, ok)) in resumes.iter().enumerate() {
        if i > 0 {
            resume_json.push_str(", ");
        }
        let _ = write!(
            resume_json,
            "{{\"threads\": {threads}, \"bit_identical\": {ok}}}"
        );
    }
    resume_json.push(']');
    let json = format!(
        "{{\n  \"bench\": \"kill_resume\",\n  \"scenario\": \"{scenario_name}\",\n  \
         \"seed\": {seed},\n  \"episodes\": {episodes},\n  \
         \"checkpoint_every\": {every},\n  \"kill_point\": {kill_point},\n  \
         \"plain_wall_seconds\": {plain_wall:.6},\n  \
         \"checkpointed_wall_seconds\": {durable_wall:.6},\n  \
         \"checkpoint_overhead\": {overhead:.4},\n  \
         \"checkpoints_written\": {},\n  \
         \"resumes\": {resume_json},\n  \"corruption_fallback\": {corruption_ok},\n  \
         \"bootstrap_resume\": {bootstrap_ok},\n  \"passed\": {}\n}}\n",
        checkpointed.checkpoints_written, !failed,
    );
    std::fs::write(&out_path, &json).expect("write benchmark file");
    eprintln!("wrote {out_path}");

    if failed {
        eprintln!("kill_resume FAILED: snapshots kept at {snapshot_path}[.bootstrap]");
        std::process::exit(1);
    }
    let _ = std::fs::remove_file(&snapshot_path);
    let _ = std::fs::remove_file(&boot_snapshot);
}
