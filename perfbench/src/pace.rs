//! Pacing: timings reported at a reference machine speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! swings by half for tens of seconds at a time (another tenant taking
//! the sibling hyperthread or the shared caches). Over a run of half a
//! minute those phases move every wall-clock figure by more than any
//! bound a regression check could use, in both directions.
//!
//! So every timed segment is paced: a fixed reference kernel, which
//! belongs to this package and calls nothing of the program, is timed
//! right before and right after the segment, and the segment's wall
//! time is scaled by `nominal / reference time`. A phase that slows
//! the machine slows the reference alike and cancels; a change to the
//! program moves only the segment. The reported seconds are therefore
//! seconds at the speed where one reference sample takes its nominal
//! time; the unpaced wall times are printed beside them.
//!
//! A phase does not slow all code alike: it slows code that keeps its
//! data in the core's own caches by up to half, and code that streams
//! megabytes from the shared cache far less. So a workload is paced by
//! the reference of its own kind ([`Reference`]): the EMN workloads by
//! a small compute kernel, `fleet-burst`, whose 10³-state vectors
//! stream from the shared cache, by a streaming one.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// The kind of reference kernel a workload is paced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Small-footprint compute: [`compute_sample`].
    Compute,
    /// Streaming over 4 MiB: [`stream_sample`].
    Stream,
}

impl Reference {
    /// Time (ns) of one sample at the nominal speed: about its time on
    /// a 2-core Xeon VM in the host's fast phase.
    pub fn nominal_ns(self) -> f64 {
        match self {
            Reference::Compute => 430_000.0,
            Reference::Stream => NOMINAL_STREAM_NS,
        }
    }
}

const NOMINAL_STREAM_NS: f64 = 600_000.0;

/// Compute-kernel rounds per sample (about 0.43 ms at the nominal
/// speed).
const ROUNDS: usize = 240;

/// Dimension and count of the streaming kernel's hyperplanes (4 MiB).
const STREAM_DIM: usize = 1024;
const STREAM_PLANES: usize = 512;

/// Samples whose median gives the current speed: one late or
/// preempted sample does not move it.
const WINDOW: usize = 3;

/// One compute sample: a fixed mix of the work the recovery stack does
/// on a small model — dot products and a max over a small hyperplane
/// set, a normalised matrix-vector product, an ordered map and a sort —
/// on a footprint of a few KiB, so it takes the machine's speed without
/// evicting the program's data. Returns its wall time, ns.
fn compute_sample() -> f64 {
    const DIM: usize = 16;
    let planes: Vec<[f64; DIM]> = (0..64)
        .map(|i| std::array::from_fn(|j| ((i * 31 + j * 7) % 97) as f64 / 97.0))
        .collect();
    let matrix: Vec<[f64; DIM]> = (0..DIM)
        .map(|i| std::array::from_fn(|j| 1.0 + ((i * 13 + j * 5) % 11) as f64))
        .collect();
    let t = Instant::now();
    let mut belief = [1.0 / DIM as f64; DIM];
    let mut acc = 0.0;
    for r in 0..ROUNDS {
        let best = planes
            .iter()
            .map(|p| p.iter().zip(&belief).map(|(x, b)| x * b).sum::<f64>())
            .fold(f64::MIN, f64::max);
        let mut next = [0.0; DIM];
        for (n, row) in next.iter_mut().zip(&matrix) {
            *n = row.iter().zip(&belief).map(|(m, b)| m * b).sum();
        }
        let total: f64 = next.iter().sum();
        for (b, n) in belief.iter_mut().zip(&next) {
            *b = n / total;
        }
        let mut map = BTreeMap::new();
        for k in 0..32u64 {
            *map.entry((k * 2_654_435_761 + r as u64) % 257)
                .or_insert(0u64) += k;
        }
        let mut keys: Vec<u64> = (0..64u64)
            .map(|k| (k * 40_503 + r as u64 * 7) % 1_009)
            .collect();
        keys.sort_unstable();
        acc += best + map.len() as f64 + keys[32] as f64;
    }
    black_box((acc, belief));
    t.elapsed().as_nanos() as f64
}

/// One streaming sample: the best of [`STREAM_PLANES`] dot products of
/// a [`STREAM_DIM`]-state belief, as a leaf evaluation over a large
/// model's hyperplane set does, reading all 4 MiB of `planes` once.
/// Returns its wall time, ns.
fn stream_sample(planes: &[f64], belief: &[f64]) -> f64 {
    let t = Instant::now();
    let best = planes
        .chunks_exact(STREAM_DIM)
        .map(|p| p.iter().zip(belief).map(|(x, b)| x * b).sum::<f64>())
        .fold(f64::MIN, f64::max);
    black_box(best);
    t.elapsed().as_nanos() as f64
}

/// Tracks the machine's current speed from recent reference samples.
#[derive(Debug, Clone)]
pub struct Pacer {
    kind: Reference,
    /// The streaming kernel's hyperplanes and belief (empty for
    /// [`Reference::Compute`]).
    planes: Vec<f64>,
    belief: Vec<f64>,
    recent: VecDeque<f64>,
    samples: u64,
    sampled_ns: f64,
}

impl Pacer {
    /// A pacer on reference `kind`, primed with a full window of
    /// samples.
    pub fn new(kind: Reference) -> Pacer {
        let (planes, belief) = match kind {
            Reference::Compute => (Vec::new(), Vec::new()),
            Reference::Stream => (
                (0..STREAM_DIM * STREAM_PLANES)
                    .map(|i| ((i * 31) % 97) as f64 / 97.0)
                    .collect(),
                (0..STREAM_DIM).map(|j| (j + 1) as f64 / 1e6).collect(),
            ),
        };
        let mut p = Pacer {
            kind,
            planes,
            belief,
            recent: VecDeque::with_capacity(WINDOW),
            samples: 0,
            sampled_ns: 0.0,
        };
        p.sample(WINDOW);
        p
    }

    /// Takes `n` reference samples and returns the new speed factor.
    pub fn sample(&mut self, n: usize) -> f64 {
        for _ in 0..n {
            let ns = match self.kind {
                Reference::Compute => compute_sample(),
                Reference::Stream => stream_sample(&self.planes, &self.belief),
            };
            if self.recent.len() == WINDOW {
                self.recent.pop_front();
            }
            self.recent.push_back(ns);
            self.samples += 1;
            self.sampled_ns += ns;
        }
        self.factor()
    }

    /// The nominal sample time over the median of the recent samples:
    /// the factor that turns wall time now into time at the nominal
    /// speed.
    pub fn factor(&self) -> f64 {
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        self.kind.nominal_ns() / v[v.len() / 2]
    }

    /// Runs `work`, then samples the reference `n` times, and returns
    /// its result with the factor to pace it by: the mean of the
    /// factors just before and just after it.
    ///
    /// # Errors
    ///
    /// `work`'s error.
    pub fn pace<T, E>(
        &mut self,
        n: usize,
        work: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, f64), E> {
        let before = self.factor();
        let out = work()?;
        Ok((out, (before + self.sample(n)) / 2.0))
    }

    /// Mean reference-sample time so far, ns (printed with the result,
    /// so a reader can tell the machine's speed during the run).
    pub fn mean_sample_ns(&self) -> f64 {
        self.sampled_ns / self.samples.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_the_median_sample() {
        let mut p = Pacer::new(Reference::Compute);
        let n = Reference::Compute.nominal_ns();
        p.recent = VecDeque::from(vec![n * 0.8, n * 4.0, n]);
        assert_eq!(p.factor(), 1.0);
        p.recent = VecDeque::from(vec![n * 2.0, n * 2.0, n / 2.0]);
        assert_eq!(p.factor(), 0.5);
    }

    #[test]
    fn samples_keep_a_window() {
        for kind in [Reference::Compute, Reference::Stream] {
            let mut p = Pacer::new(kind);
            assert_eq!(p.recent.len(), WINDOW);
            let f = p.sample(5);
            assert_eq!(p.recent.len(), WINDOW);
            assert_eq!(p.samples, 8);
            assert!(f.is_finite() && f > 0.0);
            assert!(p.mean_sample_ns() > 0.0);
        }
    }
}
