//! Fixed-work end-to-end benchmark of the bpr recovery stack.
//!
//! Three workloads, each made of units of fixed, seed-determined work;
//! the requested run length sets how many distinct units a run does:
//!
//! * `emn-serve` and `fleet-burst` replay fixed logical-tick event
//!   streams through the recovery daemon ([`serve`]);
//! * `emn-improve` bootstraps the EMN bound from the RA-Bound to a
//!   fixed certified gap ([`improve`]).
//!
//! Every run must do bit-identical work to the first run with the same
//! seed (checked through the daemon's canonical reports or the
//! bootstrap's bound bits, [`check_same_work`]), so timing only
//! measures speed. Every timing is paced against a reference kernel
//! ([`pace`]), so the host's speed phases cancel. A separate traced
//! run ([`trace`], [`traced`]) breaks the work down by layer from the
//! benchmark's own wrappers.

pub mod improve;
pub mod pace;
pub mod report;
pub mod serve;
pub mod trace;
pub mod traced;

use pace::Pacer;
use report::Metric;

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Metrics by name, in output order.
    pub metrics: Vec<Metric>,
    /// The timing metrics again, as unpaced wall time (printed with
    /// the descriptor, not judged); empty for the traced run.
    pub unpaced: Vec<Metric>,
    /// Mean reference-sample time of the run, ns (0 when unpaced).
    pub reference_ns: f64,
    /// Fixed-work repetitions measured.
    pub reps: u64,
    /// Digest of the work done (see [`digest`]), printed with the
    /// result.
    pub digest: u64,
}

/// FNV-1a over a value's debug rendering: the compact witness of a
/// run's work (canonical reports, bootstrap witnesses).
pub fn digest<T: std::fmt::Debug + ?Sized>(work: &T) -> u64 {
    bpr_core::snapshot::fnv1a64(format!("{work:?}").as_bytes())
}

/// Set-up times of a run: paced (see [`pace`]) and unpaced.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Paced set-up times, s.
    pub paced: Vec<f64>,
    /// Wall set-up times, s.
    pub wall: Vec<f64>,
}

/// One round of `n` timed set-ups, each paced by the reference samples
/// just before and after it: their times go to `times`, the last
/// set-up is returned. A run does a round before its first unit and
/// one after every unit, and reports the median of all the paced times
/// as `setup_s`, so that figure samples the machine over the whole run,
/// as the measured work does, rather than in one moment.
///
/// # Errors
///
/// The first set-up error.
pub fn setup_round<S>(
    n: usize,
    pacer: &mut Pacer,
    times: &mut SetupTimes,
    mut setup: impl FnMut() -> Result<(S, f64), String>,
) -> Result<S, String> {
    let mut last = None;
    for _ in 0..n.max(1) {
        let ((s, t), factor) = pacer.pace(1, &mut setup)?;
        times.paced.push(t * factor);
        times.wall.push(t);
        last = Some(s);
    }
    Ok(last.expect("n >= 1"))
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["emn-serve", "fleet-burst", "emn-improve"];

/// Distinct units a run of `seconds` processes (at least one).
pub fn units_for(seconds: f64, unit_seconds: f64) -> u64 {
    ((seconds / unit_seconds).ceil() as u64).max(1)
}

/// Runs workload `name` (one of [`WORKLOADS`]): measured
/// (`traced == false`) or traced.
///
/// # Errors
///
/// An unknown workload, or any failed run or correctness check.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    match (name, traced) {
        ("emn-serve", false) => serve::measure(&serve::emn_serve(), seed, seconds),
        ("fleet-burst", false) => serve::measure(&serve::fleet_burst(), seed, seconds),
        ("emn-improve", false) => improve::measure(&improve::emn_improve(), seed, seconds),
        ("emn-serve", true) => serve::traced(&serve::emn_serve(), seed),
        ("fleet-burst", true) => serve::traced(&serve::fleet_burst(), seed),
        ("emn-improve", true) => improve::traced(&improve::emn_improve(), seed),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Cross-run exact-work check. The first run of a workload, seed and
/// run length with this program records its work digest under
/// `.perfbench-tmp/work/` in the working directory; every later such
/// run there must reproduce it, or it fails. Keyed by a hash of the
/// executable's bytes, so a rebuild of the same code keeps comparing
/// against the first run, and changed code starts a fresh record.
///
/// # Errors
///
/// A digest different from the recorded one, an unreadable executable
/// or an unwritable record.
pub fn check_same_work(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    digest: u64,
) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("reading the benchmark executable: {e}"))?;
    let key = format!(
        "{workload}-{seed}-{:016x}-{}-{:016x}",
        seconds.to_bits(),
        u8::from(traced),
        bpr_core::snapshot::fnv1a64(&exe)
    );
    let dir = std::path::Path::new(".perfbench-tmp").join("work");
    let path = dir.join(key);
    let mine = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(first) if first.trim() == mine => Ok(()),
        Ok(first) => Err(format!(
            "{workload}: work digest {mine} differs from the first run's {} with this seed",
            first.trim()
        )),
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, &mine))
            .map_err(|e| format!("recording work digest in {}: {e}", path.display())),
    }
}
