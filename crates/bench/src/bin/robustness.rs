//! Degraded-world robustness sweep: action-failure probability ×
//! monitor-dropout rate on a registry scenario's model and fault
//! population (default: the paper's EMN model, zombie faults),
//! comparing the paper's controllers against the hardened resilient
//! decorator.
//!
//! Usage:
//! `cargo run -p bpr-bench --bin robustness --release -- \
//!     [--scenario emn] [--episodes 60] [--seed 7] [--failures 0.0,0.2] \
//!     [--dropouts 0.0,0.1] [--corruption 0.0] [--secondary 0.0] \
//!     [--max-secondary 0] [--bootstrap-iters 10] [--bootstrap-depth 2] \
//!     [--threads N] [--lump] [--out BENCH_robustness.json]`
//!
//! `--lump` plans the bounded rows on the lumped (state-aggregated)
//! quotient — sound by the lumping certificate; the rows are renamed
//! with a `+lump` suffix.
//!
//! On the 10³+-state generated scenarios pass `--bootstrap-depth 1`:
//! the paper's depth-2 bootstrap schedule is sized for the 14-state
//! EMN model.
//!
//! Campaigns fan across `--threads` workers (default: all hardware
//! threads); results are bit-identical whatever the width.
//!
//! Besides the stdout table, the sweep lands in `--out` as JSON with
//! quarantine counts and the per-fault-mode perturbation statistics
//! (failed actions, dropped/corrupted observations, injected
//! secondary faults) in the same shape `bench --bin serve` uses for
//! its shed counters, so the two robustness surfaces are directly
//! comparable.

use bpr_bench::experiments::{robustness_sweep_for, RobustnessCell, RobustnessConfig};
use bpr_bench::{flag, list_flag, scenario_flag, string_flag};
use bpr_par::WorkPool;
use std::fmt::Write as _;

/// Renders the sweep as hand-formatted JSON (same idiom as the other
/// BENCH emitters — no serde in the workspace).
fn sweep_json(scenario: &str, config: &RobustnessConfig, cells: &[RobustnessCell]) -> String {
    let mut cell_blocks = Vec::new();
    for cell in cells {
        let mut rows = Vec::new();
        for row in &cell.rows {
            let s = &row.summary;
            let p = &row.perturbations;
            let mut out = String::new();
            let _ = write!(
                out,
                concat!(
                    "        {{\n",
                    "          \"controller\": \"{ctrl}\",\n",
                    "          \"episodes\": {episodes},\n",
                    "          \"recovery_rate\": {recovery:.4},\n",
                    "          \"mean_cost\": {cost:.4},\n",
                    "          \"mean_retries\": {retries:.4},\n",
                    "          \"mean_escalations\": {escalations:.4},\n",
                    "          \"mean_belief_resets\": {resets:.4},\n",
                    "          \"unrecovered\": {unrecovered},\n",
                    "          \"unterminated\": {unterminated},\n",
                    "          \"aborted\": {aborted},\n",
                    "          \"quarantined\": {quarantined},\n",
                    "          \"perturbations\": {{\n",
                    "            \"failed_actions\": {failed},\n",
                    "            \"dropped_observations\": {dropped},\n",
                    "            \"corrupted_observations\": {corrupted},\n",
                    "            \"injected_faults\": {injected}\n",
                    "          }}\n",
                    "        }}"
                ),
                ctrl = s.controller,
                episodes = s.episodes,
                recovery = s.recovery_rate(),
                cost = s.mean_cost,
                retries = s.mean_retries,
                escalations = s.mean_escalations,
                resets = s.mean_belief_resets,
                unrecovered = s.unrecovered,
                unterminated = s.unterminated,
                aborted = row.aborted,
                quarantined = row.quarantined,
                failed = p.failed_actions,
                dropped = p.dropped_observations,
                corrupted = p.corrupted_observations,
                injected = p.injected_faults,
            );
            rows.push(out);
        }
        let mut block = String::new();
        let _ = write!(
            block,
            concat!(
                "    {{\n",
                "      \"action_failure_prob\": {failure},\n",
                "      \"monitor_dropout_prob\": {dropout},\n",
                "      \"rows\": [\n{rows}\n      ]\n",
                "    }}"
            ),
            failure = cell.action_failure_prob,
            dropout = cell.monitor_dropout_prob,
            rows = rows.join(",\n"),
        );
        cell_blocks.push(block);
    }
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"robustness\",\n",
            "  \"scenario\": \"{scenario}\",\n",
            "  \"config\": {{\n",
            "    \"episodes\": {episodes},\n",
            "    \"seed\": {seed},\n",
            "    \"obs_corruption_prob\": {corruption},\n",
            "    \"secondary_fault_prob\": {secondary},\n",
            "    \"max_secondary_faults\": {max_secondary},\n",
            "    \"lump\": {lump}\n",
            "  }},\n",
            "  \"cells\": [\n{cells}\n  ]\n",
            "}}\n"
        ),
        scenario = scenario,
        episodes = config.episodes,
        seed = config.seed,
        corruption = config.obs_corruption_prob,
        secondary = config.secondary_fault_prob,
        max_secondary = config.max_secondary_faults,
        lump = config.lump,
        cells = cell_blocks.join(",\n"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = string_flag(&args, "--out", "BENCH_robustness.json");
    let config = RobustnessConfig {
        episodes: flag(&args, "--episodes", 60usize),
        seed: flag(&args, "--seed", 7u64),
        failure_probs: list_flag(&args, "--failures", &[0.0, 0.2]),
        dropout_probs: list_flag(&args, "--dropouts", &[0.0, 0.1]),
        obs_corruption_prob: flag(&args, "--corruption", 0.0f64),
        secondary_fault_prob: flag(&args, "--secondary", 0.0f64),
        max_secondary_faults: flag(&args, "--max-secondary", 0usize),
        bootstrap_iters: flag(&args, "--bootstrap-iters", 10usize),
        bootstrap_depth: flag(&args, "--bootstrap-depth", 2usize),
        threads: flag(&args, "--threads", WorkPool::default().threads()),
        lump: args.iter().any(|a| a == "--lump"),
        ..RobustnessConfig::default()
    };
    let registry = bpr::scenario::builtin();
    let scenario = scenario_flag(&registry, &args, "emn");
    eprintln!(
        "robustness sweep [{}]: {} episodes per controller per cell, {} cells...",
        scenario.name(),
        config.episodes,
        config.failure_probs.len() * config.dropout_probs.len()
    );
    let cells = match robustness_sweep_for(scenario, &config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("robustness sweep failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# Robustness sweep ({}): recovery under a degraded world",
        scenario.name()
    );
    for cell in &cells {
        println!(
            "\n## action-failure {:.2}, monitor-dropout {:.2}",
            cell.action_failure_prob, cell.monitor_dropout_prob
        );
        println!(
            "{:<22} {:>9} {:>10} {:>8} {:>9} {:>8} {:>7} {:>8} {:>7} {:>8}",
            "Algorithm",
            "Recovery",
            "Cost",
            "Retries",
            "Escalate",
            "Resets",
            "Abort",
            "Unterm",
            "Quar",
            "Perturb"
        );
        for row in &cell.rows {
            let s = &row.summary;
            println!(
                "{:<22} {:>8.1}% {:>10.2} {:>8.2} {:>9.2} {:>8.2} {:>7} {:>8} {:>7} {:>8}",
                s.controller,
                100.0 * s.recovery_rate(),
                s.mean_cost,
                s.mean_retries,
                s.mean_escalations,
                s.mean_belief_resets,
                row.aborted,
                s.unterminated,
                row.quarantined,
                row.perturbations.total(),
            );
        }
    }
    println!("\n# note: aborted episodes (controller errors) count as unrecovered");
    let json = sweep_json(scenario.name(), &config, &cells);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("robustness: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("robustness: wrote {out_path}");
}
