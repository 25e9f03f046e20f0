//! Shared experiment plumbing for the `bpr` reproduction binaries.
//!
//! Each public function regenerates one artifact of the paper's
//! evaluation (Section 5); the `src/bin/*` binaries are thin wrappers
//! that print the results. See `EXPERIMENTS.md` at the repository root
//! for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod experiments;
pub mod modelcheck;

/// Minimal command-line flag parsing for the experiment binaries:
/// `--name value` pairs, with defaults.
pub fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Comma-separated `--name a,b,c` list flag with a default. A list
/// with any unparseable entry falls back to the whole default.
pub fn list_flag<T: std::str::FromStr + Clone>(
    args: &[String],
    name: &str,
    default: &[T],
) -> Vec<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| {
            v.split(',')
                .map(|p| p.trim().parse::<T>())
                .collect::<Result<Vec<_>, _>>()
                .ok()
        })
        .unwrap_or_else(|| default.to_vec())
}

/// String-valued `--name value` flag with a default (used for
/// `--scenario` and `--out` across the bench binaries).
pub fn string_flag(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Resolves `--scenario <name>` (defaulting to `default`) against the
/// built-in registry, exiting with status 2 and the available names on
/// an unknown scenario — the shared lookup path of the bench binaries.
pub fn scenario_flag<'r>(
    registry: &'r bpr_core::scenario::ScenarioRegistry,
    args: &[String],
    default: &str,
) -> &'r dyn bpr_core::scenario::Scenario {
    let name = string_flag(args, "--scenario", default);
    match registry.require(&name) {
        Ok(scenario) => scenario,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parses_and_defaults() {
        let args: Vec<String> = ["--faults", "250", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag(&args, "--faults", 10usize), 250);
        assert_eq!(flag(&args, "--seed", 1u64), 9);
        assert_eq!(flag(&args, "--missing", 42i32), 42);
        // Unparseable values fall back to the default.
        let bad: Vec<String> = ["--faults", "abc"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag(&bad, "--faults", 7usize), 7);
    }

    #[test]
    fn list_flag_parses_and_defaults() {
        let args: Vec<String> = ["--threads", "1, 2,4", "--failures", "0.1,x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(list_flag(&args, "--threads", &[8usize]), vec![1, 2, 4]);
        assert_eq!(list_flag(&args, "--missing", &[8usize]), vec![8]);
        // One bad entry falls back to the whole default list.
        assert_eq!(list_flag(&args, "--failures", &[0.0, 0.2]), vec![0.0, 0.2]);
        // A flag with no value also takes the default.
        let bare = vec!["--shards".to_string()];
        assert_eq!(list_flag(&bare, "--shards", &[1usize, 4]), vec![1, 4]);
    }
}
