//! Scaling benchmark for the deterministic parallel engines: runs a
//! registry scenario's fault-injection campaign (bootstrapped
//! bounded-d1 controller, default: the paper's EMN model) and the
//! batch bootstrap at several thread counts, records episodes/sec and
//! backups/sec into `BENCH_scaling.json`, and — the part that gates
//! CI — verifies that every width produces bit-identical results.
//! Exits nonzero on any determinism mismatch.
//!
//! Usage:
//! `cargo run -p bpr-bench --bin scaling --release -- \
//!     [--scenario emn] [--episodes 120] [--bootstrap-iters 24] \
//!     [--batch 8] [--seed 7] [--threads 1,2,4,8] [--max-steps 400] \
//!     [--out BENCH_scaling.json]`

use bpr_bench::experiments::bootstrapped_bounded_d1_for;
use bpr_bench::{flag, list_flag, scenario_flag};
use bpr_core::bootstrap::{bootstrap_par, BootstrapConfig, BootstrapVariant};
use bpr_mdp::chain::SolveOpts;
use bpr_par::WorkPool;
use bpr_pomdp::bounds::ra_bound;
use bpr_sim::Campaign;
use std::fmt::Write as _;
use std::time::Instant;

struct WidthResult {
    threads: usize,
    wall_seconds: f64,
    rate: f64,
    skipped: bool,
}

fn json_results(rows: &[WidthResult], rate_key: &str) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if r.skipped {
            let _ = write!(out, "{{\"threads\": {}, \"skipped\": true}}", r.threads);
        } else {
            let _ = write!(
                out,
                "{{\"threads\": {}, \"wall_seconds\": {:.6}, \"{}\": {:.3}}}",
                r.threads, r.wall_seconds, rate_key, r.rate
            );
        }
    }
    out.push(']');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let episodes = flag(&args, "--episodes", 120usize);
    let bootstrap_iters = flag(&args, "--bootstrap-iters", 24usize);
    let batch = flag(&args, "--batch", 8usize);
    let seed = flag(&args, "--seed", 7u64);
    let max_steps = flag(&args, "--max-steps", 400usize);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());
    let widths = list_flag(&args, "--threads", &[1, 2, 4, 8]);
    let hardware = WorkPool::default().threads();
    let registry = bpr::scenario::builtin();
    let scenario = scenario_flag(&registry, &args, "emn");
    eprintln!(
        "scaling [{}]: {episodes} campaign episodes + {bootstrap_iters} bootstrap episodes \
         at widths {widths:?} ({hardware} hardware threads)",
        scenario.name()
    );

    let model = scenario.build().expect("scenario model builds");
    let population = scenario.fault_population(&model);
    let prototype =
        bootstrapped_bounded_d1_for(&model, scenario.operator_response_time(), seed, 1e-3)
            .expect("bounded-d1 prototype builds");

    // --- Campaign scaling: episodes/sec, identical outcomes required.
    let mut campaign_rows = Vec::new();
    let mut reference: Option<Vec<bpr_sim::EpisodeOutcome>> = None;
    let mut deterministic = true;
    for &threads in &widths {
        // Oversubscribed widths measure scheduler noise, not scaling;
        // skip them (determinism across widths is covered by the tests).
        if threads > hardware {
            eprintln!("  campaign  threads={threads}: skipped (> {hardware} hardware threads)");
            campaign_rows.push(WidthResult {
                threads,
                wall_seconds: 0.0,
                rate: 0.0,
                skipped: true,
            });
            continue;
        }
        let report = Campaign::new(&model)
            .population(&population)
            .episodes(episodes)
            .max_steps(max_steps)
            .seed(seed)
            .threads(threads)
            .run(|_| Ok(prototype.clone()))
            .expect("campaign runs");
        let canonical = report.canonical_outcomes();
        match &reference {
            None => reference = Some(canonical),
            Some(expected) => {
                if *expected != canonical {
                    eprintln!("DETERMINISM VIOLATION: campaign at {threads} threads diverged");
                    deterministic = false;
                }
            }
        }
        eprintln!(
            "  campaign  threads={threads}: {:.2} episodes/sec ({:.3}s)",
            report.episodes_per_sec(),
            report.wall_seconds
        );
        campaign_rows.push(WidthResult {
            threads,
            wall_seconds: report.wall_seconds,
            rate: report.episodes_per_sec(),
            skipped: false,
        });
    }

    // --- Bootstrap scaling: backups/sec, identical reports and bound.
    let transformed = model
        .without_notification(scenario.operator_response_time())
        .expect("transform");
    let conditioning = model
        .observe_actions()
        .first()
        .copied()
        .expect("scenario model has an observe action");
    let config = BootstrapConfig {
        variant: BootstrapVariant::Random,
        iterations: bootstrap_iters,
        depth: 1,
        max_steps: 40,
        conditioning_action: conditioning,
        ..BootstrapConfig::default()
    };
    let mut bootstrap_rows = Vec::new();
    let mut boot_reference: Option<(usize, String)> = None;
    for &threads in &widths {
        if threads > hardware {
            eprintln!("  bootstrap threads={threads}: skipped (> {hardware} hardware threads)");
            bootstrap_rows.push(WidthResult {
                threads,
                wall_seconds: 0.0,
                rate: 0.0,
                skipped: true,
            });
            continue;
        }
        let pool = WorkPool::new(threads).expect("nonzero width");
        let mut bound =
            ra_bound(transformed.pomdp(), &SolveOpts::default()).expect("RA-Bound exists");
        let start = Instant::now();
        let report = bootstrap_par(&transformed, &mut bound, &config, batch, seed, &pool, None)
            .expect("bootstrap runs")
            .report;
        let wall = start.elapsed().as_secs_f64();
        let fingerprint = (report.total_backups, bound.to_tsv());
        match &boot_reference {
            None => boot_reference = Some(fingerprint),
            Some(expected) => {
                if *expected != fingerprint {
                    eprintln!("DETERMINISM VIOLATION: bootstrap at {threads} threads diverged");
                    deterministic = false;
                }
            }
        }
        let rate = if wall > 0.0 {
            report.total_backups as f64 / wall
        } else {
            0.0
        };
        eprintln!(
            "  bootstrap threads={threads}: {:.2} backups/sec ({} backups, {:.3}s)",
            rate, report.total_backups, wall
        );
        bootstrap_rows.push(WidthResult {
            threads,
            wall_seconds: wall,
            rate,
            skipped: false,
        });
    }

    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \"scenario\": \"{}\",\n  \"seed\": {seed},\n  \
         \"hardware_threads\": {hardware},\n  \
         \"deterministic\": {deterministic},\n  \
         \"campaign\": {{\"controller\": \"bounded-d1\", \"episodes\": {episodes}, \
         \"max_steps\": {max_steps}, \"results\": {}}},\n  \
         \"bootstrap\": {{\"iterations\": {bootstrap_iters}, \"batch\": {batch}, \
         \"results\": {}}}\n}}\n",
        scenario.name(),
        json_results(&campaign_rows, "episodes_per_sec"),
        json_results(&bootstrap_rows, "backups_per_sec"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark file");
    eprintln!("wrote {out_path}");

    if !deterministic {
        eprintln!("scaling benchmark FAILED: results depend on thread count");
        std::process::exit(1);
    }
}
