//! Offline stand-in for the subset of the `criterion` 0.5 API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal timing harness exposing the surface the benches
//! rely on: [`Criterion`] with `bench_function` / `benchmark_group`,
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`] and
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Differences from real criterion: no statistical analysis, warm-up
//! scheduling, or HTML reports — each benchmark first doubles the
//! number of iterations per sample until one sample lasts at least
//! [`MIN_SAMPLE_TIME`], then runs `sample_size` timed samples of that
//! many iterations and prints the median per-iteration time. Because
//! the benches keep `test = true` (cargo's default), `cargo test` also
//! executes each bench entry point; in that mode the harness detects
//! the absence of the `--bench` flag and smoke-runs every benchmark
//! once, a single sample of a single iteration, so benches stay
//! compile- and run-checked by the tier-1 suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The least time one timed sample lasts under `cargo bench`: a routine
/// much shorter than the timer's resolution and the host's jitter is
/// timed over as many iterations as fill it.
pub const MIN_SAMPLE_TIME: Duration = Duration::from_millis(1);

/// The most iterations one sample runs, whatever the routine costs.
const MAX_ITERATIONS: u32 = 1 << 20;

/// How `iter_batched` amortises setup cost. This stand-in builds every
/// input of a sample before timing it, so the variants only document
/// intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs; cheap to regenerate.
    SmallInput,
    /// Large per-iteration inputs; regenerated once per sample.
    LargeInput,
}

/// Identifies one benchmark within a group, e.g.
/// `BenchmarkId::new("variant", "Average")`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// A benchmark id from a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// The timing handle handed to benchmark closures.
pub struct Bencher {
    samples: u32,
    /// Whether to calibrate the iterations per sample (under
    /// `cargo bench`) or run one (the `cargo test` smoke).
    calibrate: bool,
    /// Median per-iteration time and the iterations per sample, filled
    /// in by the `iter*` methods.
    elapsed: Option<(Duration, u32)>,
}

impl Bencher {
    fn new(samples: u32) -> Bencher {
        Bencher {
            samples,
            calibrate: running_as_bench(),
            elapsed: None,
        }
    }

    /// Times `routine`; see [`Bencher::iter_batched`].
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Times `routine` on fresh input from `setup`, excluding the
    /// setup cost and the dropping of outputs from the measurement.
    /// Under `cargo bench` each sample runs as many iterations as last
    /// [`MIN_SAMPLE_TIME`] and reports the time per iteration.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let iterations = if self.calibrate {
            calibrate(&mut setup, &mut routine)
        } else {
            1
        };
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| time_batch(iterations, &mut setup, &mut routine) / iterations)
            .collect();
        self.elapsed = Some((median(&mut times), iterations));
    }
}

/// The iterations per sample: doubled from 1 until one batch lasts
/// [`MIN_SAMPLE_TIME`] (the batches double as warm-up).
fn calibrate<I, O>(setup: &mut impl FnMut() -> I, routine: &mut impl FnMut(I) -> O) -> u32 {
    let mut iterations = 1;
    while iterations < MAX_ITERATIONS && time_batch(iterations, setup, routine) < MIN_SAMPLE_TIME {
        iterations *= 2;
    }
    iterations
}

/// Times `iterations` runs of `routine`, each on a fresh input from
/// `setup`; building the inputs and dropping the outputs is not timed.
fn time_batch<I, O>(
    iterations: u32,
    setup: &mut impl FnMut() -> I,
    routine: &mut impl FnMut(I) -> O,
) -> Duration {
    let inputs: Vec<I> = (0..iterations).map(|_| setup()).collect();
    let mut outputs = Vec::with_capacity(inputs.len());
    let start = Instant::now();
    for input in inputs {
        outputs.push(black_box(routine(input)));
    }
    let elapsed = start.elapsed();
    drop(outputs);
    elapsed
}

fn median(times: &mut [Duration]) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

fn report(name: &str, elapsed: Option<(Duration, u32)>) {
    match elapsed {
        Some((t, n)) => println!("bench: {name:<50} median {t:>12.3?} ({n} iterations/sample)"),
        None => println!("bench: {name:<50} (no measurement)"),
    }
}

/// A named set of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in the group.
    pub fn bench_function<R>(&mut self, id: impl fmt::Display, routine: R) -> &mut Self
    where
        R: FnOnce(&mut Bencher),
    {
        let mut b = Bencher::new(self.criterion.sample_size);
        routine(&mut b);
        report(&format!("{}/{}", self.name, id), b.elapsed);
        self
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I, R>(&mut self, id: BenchmarkId, input: &I, routine: R) -> &mut Self
    where
        R: FnOnce(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.criterion.sample_size);
        routine(&mut b, input);
        report(&format!("{}/{id}", self.name), b.elapsed);
        self
    }

    /// Ends the group (a no-op here; kept for API parity).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
pub struct Criterion {
    sample_size: u32,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n as u32;
        self
    }

    /// Runs one standalone benchmark.
    pub fn bench_function<R>(&mut self, name: &str, routine: R) -> &mut Self
    where
        R: FnOnce(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size);
        routine(&mut b);
        report(name, b.elapsed);
        self
    }

    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// True when invoked by `cargo bench` (which passes `--bench`); false
/// under `cargo test`, where [`criterion_main!`] smoke-runs each
/// benchmark with a single sample instead of the configured count.
pub fn running_as_bench() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Bundles benchmark functions with a shared [`Criterion`] config,
/// mirroring criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            if !$crate::running_as_bench() {
                criterion = $crate::Criterion::default().sample_size(1);
            }
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emits `main` running the given [`criterion_group!`] groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_to(n: u64) -> u64 {
        (0..n).sum()
    }

    #[test]
    fn bench_function_runs_and_measures() {
        let mut c = Criterion::default().sample_size(3);
        c.bench_function("sum", |b| b.iter(|| sum_to(1000)));
    }

    #[test]
    fn groups_and_batched_iteration_work() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("g");
        group.bench_with_input(BenchmarkId::new("sum", 500u64), &500u64, |b, &n| {
            b.iter_batched(|| n, sum_to, BatchSize::SmallInput)
        });
        group.bench_function("plain", |b| b.iter(|| sum_to(10)));
        group.finish();
    }

    #[test]
    fn calibration_fills_a_sample_and_the_smoke_runs_once() {
        let mut calls = 0u32;
        let iterations = calibrate(&mut || (), &mut |()| {
            calls += 1;
            std::thread::sleep(Duration::from_micros(300));
        });
        // A sleep lasts at least its request, so 4 iterations fill 1 ms.
        assert!(iterations <= 4, "{iterations}");
        assert_eq!(calls, 2 * iterations - 1, "every batch ran in full");
        // Under `cargo test` a bencher runs one sample of one iteration.
        let mut b = Bencher::new(1);
        assert!(!b.calibrate);
        let mut runs = 0;
        b.iter(|| runs += 1);
        assert_eq!(runs, 1);
        assert_eq!(b.elapsed.map(|(_, n)| n), Some(1));
    }

    #[test]
    fn benchmark_id_formats_as_function_slash_parameter() {
        assert_eq!(
            BenchmarkId::new("variant", "Average").to_string(),
            "variant/Average"
        );
    }
}
