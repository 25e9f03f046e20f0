//! `bpr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a descriptor line (schema, machine, workload, work digest,
//! mean reference-sample time, unpaced timings) and, as the last line,
//! the JSON result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when a run or a correctness check fails, 2 on bad usage.

use bpr_perfbench::report::{json_num, json_str, machine_json, metrics_json, SCHEMA};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("bpr-perfbench: {msg}");
    eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = flag("--workload") else {
        return usage("missing --workload");
    };
    if !bpr_perfbench::WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!(
            "unknown workload {workload:?}; expected one of {:?}",
            bpr_perfbench::WORKLOADS
        ));
    }
    let Some(seed) = flag("--seed").and_then(|v| v.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = flag("--seconds")
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0)
    else {
        return usage("missing or invalid --seconds");
    };
    let traced = match flag("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return usage(&format!("--trace must be 0 or 1, got {other}")),
    };
    let result = bpr_perfbench::run(&workload, seed, seconds, traced).and_then(|outcome| {
        bpr_perfbench::check_same_work(&workload, seed, seconds, traced, outcome.digest)?;
        Ok(outcome)
    });
    match result {
        Ok(outcome) => {
            println!(
                "{{\"schema\": {}, \"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"reps\": {}, \"work_digest\": \"{:016x}\", \"machine\": {}, \"reference_ns\": {}, \"unpaced\": {}}}",
                json_str(SCHEMA),
                json_str(&workload),
                u8::from(traced),
                outcome.reps,
                outcome.digest,
                machine_json(),
                json_num(outcome.reference_ns),
                metrics_json(&outcome.unpaced)
            );
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
                outcome.reps,
                metrics_json(&outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bpr-perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
