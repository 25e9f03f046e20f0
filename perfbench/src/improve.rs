//! `emn-improve`: offline bound improvement on EMN. Each bootstrap run
//! starts from the RA-Bound and runs the paper's Random bootstrap, one
//! full episode per iteration (`bpr_core::bootstrap::bootstrap`), until
//! the certified gap at the uniform fault belief — the bound's cost
//! minus the `bpr_verify::mdp_ceiling` cost — falls below a fixed
//! share of the RA-Bound's own gap.

use crate::pace::{Pacer, Reference};
use crate::report::{median, metric, peak_rss_mb, Metric};
use crate::trace;
use crate::traced::{self, CountingBound};
use crate::{digest, setup_round, Outcome, SetupTimes};
use bpr_core::bootstrap::{bootstrap, BootstrapConfig, BootstrapVariant};
use bpr_core::scenario::Scenario;
use bpr_core::TerminatedModel;
use bpr_pomdp::backup::incremental_backup;
use bpr_pomdp::bounds::{ra_bound, ValueBound, VectorSetBound};
use bpr_pomdp::{tree, Belief};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Stop a bootstrap run once the gap at the uniform fault belief is at
/// most this share of the RA-Bound's gap there.
pub const TARGET_SHARE: f64 = 0.4;
/// Iteration cap per bootstrap run; a run that hits it missed the
/// target.
pub const MAX_ITERATIONS: usize = 400;
/// Tree depth inside the bootstrap episodes.
const DEPTH: usize = 1;
/// Step cap per bootstrap episode.
const MAX_STEPS: usize = 10;
/// Bootstrap runs the traced run replays (the first ones of unit 0).
const TRACED_RUNS: usize = 16;
/// Traced replays the tracing overhead is the median over.
const OVERHEAD_ROUNDS: usize = 5;
/// Nominal seconds one unit takes; a run of `--seconds s` processes
/// `ceil(s / UNIT_SECONDS)` distinct units.
const UNIT_SECONDS: f64 = 7.0;

/// The improvement workload.
#[derive(Debug, Clone)]
pub struct ImproveSpec {
    /// Workload name.
    pub name: &'static str,
    /// Independent bootstrap runs per fixed-work unit.
    pub runs: usize,
    /// Timed set-ups per round (about 4 ms each); a run does a round
    /// before its first unit and after each unit (see [`setup_round`]).
    pub setups_per_round: usize,
}

/// The headline configuration.
pub fn emn_improve() -> ImproveSpec {
    ImproveSpec {
        name: "emn-improve",
        runs: 160,
        setups_per_round: 40,
    }
}

/// Model, transform, RA-Bound, ceiling and probes.
pub struct Setup {
    transformed: TerminatedModel,
    ra: VectorSetBound,
    ceiling: Vec<f64>,
    uniform: Belief,
    probes: Vec<Belief>,
    config: BootstrapConfig,
}

fn dot(belief: &Belief, values: &[f64]) -> f64 {
    belief.probs().iter().zip(values).map(|(p, v)| p * v).sum()
}

impl Setup {
    /// Certified gap at `belief`: ceiling value minus bound value (both
    /// rewards, so this is the bound's cost minus the ceiling's cost).
    fn gap(&self, bound: &VectorSetBound, belief: &Belief) -> f64 {
        dot(belief, &self.ceiling) - bound.value(belief)
    }

    fn target(&self) -> f64 {
        self.gap(&self.ra, &self.uniform)
    }
}

/// One timed set-up: model, no-notification transform, RA-Bound and
/// MDP ceiling.
pub fn setup() -> Result<(Setup, f64), String> {
    let sc = bpr_emn::EmnScenario::default();
    let t = Instant::now();
    let model = {
        let _s = trace::span("setup.model", 0);
        sc.build().map_err(|e| format!("model: {e}"))?
    };
    let transformed = model
        .without_notification(sc.operator_response_time())
        .map_err(|e| e.to_string())?;
    let ra = {
        let _s = trace::span("setup.ra_bound", 0);
        ra_bound(transformed.pomdp(), &Default::default()).map_err(|e| e.to_string())?
    };
    let ceiling = {
        let _s = trace::span("setup.ceiling", 0);
        bpr_verify::mdp_ceiling(&transformed, 100_000, 1e-12)
    };
    let secs = t.elapsed().as_secs_f64();
    let n = transformed.pomdp().n_states();
    let uniform = Belief::uniform_over(n, &transformed.fault_states());
    let probes = sc
        .probe_beliefs(&model)
        .iter()
        .map(|b| transformed.extend_belief(b).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let conditioning = *model
        .observe_actions()
        .first()
        .ok_or("EMN has no observe action")?;
    let config = BootstrapConfig {
        variant: BootstrapVariant::Random,
        iterations: 1,
        depth: DEPTH,
        max_steps: MAX_STEPS,
        conditioning_action: conditioning,
        ..BootstrapConfig::default()
    };
    Ok((
        Setup {
            transformed,
            ra,
            ceiling,
            uniform,
            probes,
            config,
        },
        secs,
    ))
}

/// What one bootstrap run did: the exact-work witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunWork {
    /// Iterations until the target (or the cap).
    pub iterations: usize,
    /// Incremental backups performed.
    pub backups: usize,
    /// Hyperplanes in the final bound.
    pub hyperplanes: usize,
    /// FNV-1a over the final bound's bits.
    pub bound_bits: u64,
    /// Whether the target was reached within the cap.
    pub reached: bool,
}

fn bound_digest(bound: &VectorSetBound) -> u64 {
    let bytes: Vec<u8> = bound
        .iter()
        .flat_map(|v| v.iter().flat_map(|x| x.to_bits().to_le_bytes()))
        .collect();
    bpr_core::snapshot::fnv1a64(&bytes)
}

/// One run on RNG stream `(seed, stream)`, timed: the bound, the
/// per-iteration times (ns), the wall time to the target and the work
/// witness.
pub fn run(
    s: &Setup,
    seed: u64,
    stream: u64,
) -> Result<(VectorSetBound, Vec<f64>, f64, RunWork), String> {
    let target = TARGET_SHARE * s.target();
    let mut bound = s.ra.clone();
    let mut rng = StdRng::seed_from_stream(seed, stream);
    let mut iter_ns = Vec::with_capacity(MAX_ITERATIONS);
    let mut backups = 0;
    let mut reached = false;
    let start = Instant::now();
    while iter_ns.len() < MAX_ITERATIONS {
        let t = Instant::now();
        let report = bootstrap(&s.transformed, &mut bound, &s.config, &mut rng)
            .map_err(|e| e.to_string())?;
        let done = s.gap(&bound, &s.uniform) <= target;
        iter_ns.push(t.elapsed().as_nanos() as f64);
        backups += report.total_backups;
        if done {
            reached = true;
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let work = RunWork {
        iterations: iter_ns.len(),
        backups,
        hyperplanes: bound.len(),
        bound_bits: bound_digest(&bound),
        reached,
    };
    Ok((bound, iter_ns, wall, work))
}

/// Bound soundness: the improved bound never exceeds the certified
/// ceiling at any probe belief (nor at the uniform fault belief).
fn check_sound(s: &Setup, bound: &VectorSetBound) -> Result<(), String> {
    for b in s.probes.iter().chain(std::iter::once(&s.uniform)) {
        let (v, c) = (bound.value(b), dot(b, &s.ceiling));
        if v > c + 1e-9 * c.abs().max(1.0) {
            return Err(format!("emn-improve: bound {v} above the MDP ceiling {c}"));
        }
    }
    Ok(())
}

/// Mean certified recovery cost (negated bound value) over the probe
/// beliefs.
fn probe_cost(s: &Setup, bound: &VectorSetBound) -> f64 {
    s.probes.iter().map(|b| -bound.value(b)).sum::<f64>() / s.probes.len() as f64
}

/// One fixed-work unit: `spec.runs` bootstrap runs.
#[derive(Default)]
struct Unit {
    /// Time to gap summed over the runs: paced, and wall.
    paced_s: f64,
    wall_s: f64,
    /// Iteration latencies, ns: paced, and wall.
    paced_ns: Vec<f64>,
    wall_ns: Vec<f64>,
    work: Vec<RunWork>,
    cost: f64,
}

/// Runs the unit's bootstrap runs, pacing each (and its iterations)
/// with the reference samples taken just before and just after it.
fn unit(
    s: &Setup,
    spec: &ImproveSpec,
    seed: u64,
    k: u64,
    pacer: &mut Pacer,
) -> Result<Unit, String> {
    let mut out = Unit::default();
    for j in 0..spec.runs as u64 {
        let ((bound, iter_ns, wall, work), factor) =
            pacer.pace(1, || run(s, seed, k * spec.runs as u64 + j))?;
        check_sound(s, &bound)?;
        out.paced_s += wall * factor;
        out.wall_s += wall;
        out.paced_ns.extend(iter_ns.iter().map(|ns| ns * factor));
        out.wall_ns.extend(iter_ns);
        out.cost += probe_cost(s, &bound) / spec.runs as f64;
        out.work.push(work);
    }
    Ok(out)
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `setup_s`, `work_s`, `step_mean_ms` and `step_p95_ms` from set-up
/// times, times to gap (s) and iteration latencies (ns).
fn timings(setups: &[f64], walls: &[f64], iter_ns: &mut [f64]) -> Vec<Metric> {
    iter_ns.sort_by(f64::total_cmp);
    vec![
        metric("setup_s", median(setups), "s"),
        metric("work_s", walls.iter().sum(), "s"),
        metric(
            "step_mean_ms",
            iter_ns.iter().sum::<f64>() / iter_ns.len() as f64 / 1e6,
            "ms",
        ),
        metric("step_p95_ms", quantile(iter_ns, 0.95) / 1e6, "ms"),
    ]
}

/// Runs the run's distinct units once each, adding units until there
/// are 1000 iteration latencies (fifty beyond p95), with a round of
/// timed set-ups before the first unit and after each. Timings are
/// paced (see [`crate::pace`]).
pub fn measure(spec: &ImproveSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut pacer = Pacer::new(Reference::Compute);
    let mut setups = SetupTimes::default();
    let s = setup_round(spec.setups_per_round, &mut pacer, &mut setups, setup)?;
    let mut all = Unit::default();
    let mut walls = (Vec::new(), Vec::new());
    let mut units = 0;
    while units < crate::units_for(seconds, UNIT_SECONDS) || all.paced_ns.len() < 1000 {
        let u = unit(&s, spec, seed, units, &mut pacer)?;
        units += 1;
        walls.0.push(u.paced_s);
        walls.1.push(u.wall_s);
        all.paced_ns.extend(u.paced_ns);
        all.wall_ns.extend(u.wall_ns);
        all.cost += u.cost;
        all.work.extend(u.work);
        setup_round(spec.setups_per_round, &mut pacer, &mut setups, setup)?;
    }
    // A run that misses the target within its cap is an outcome, not
    // an error: it lowers `completed_ratio`.
    let reached = all.work.iter().filter(|w| w.reached).count();
    let mut metrics = timings(&setups.paced, &walls.0, &mut all.paced_ns);
    metrics.extend([
        metric("cost_per_incident", all.cost / units as f64, "cost"),
        metric(
            "completed_ratio",
            reached as f64 / all.work.len() as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]);
    Ok(Outcome {
        metrics,
        unpaced: timings(&setups.wall, &walls.1, &mut all.wall_ns),
        reference_ns: pacer.mean_sample_ns(),
        reps: units,
        digest: digest(&all.work),
    })
}

/// The library's Random bootstrap iteration rebuilt from public calls
/// (`incremental_backup`, `tree::expand_with_cutoff` over
/// [`CountingBound`], belief updates, model sampling) under spans.
fn traced_iteration(
    s: &Setup,
    bound: &mut VectorSetBound,
    rng: &mut StdRng,
    id: u64,
) -> Result<(), String> {
    let _span = trace::span("bootstrap.iteration", id);
    let c = &s.config;
    let pomdp = s.transformed.pomdp();
    let faults = s.transformed.fault_states();
    let prior = Belief::uniform_over(pomdp.n_states(), &faults);
    let mut world = faults[rng.gen_range(0..faults.len())];
    let o = pomdp.sample_observation(rng, world, c.conditioning_action);
    let mut belief = match prior.update(pomdp, c.conditioning_action, o) {
        Ok((b, _)) => b,
        Err(_) => prior.clone(),
    };
    for _ in 0..c.max_steps {
        {
            let _s = trace::span("backup", id);
            let before = bound.len();
            incremental_backup(pomdp, bound, &belief, c.beta).map_err(|e| e.to_string())?;
            traced::count_backup((bound.len() - before) as u64);
        }
        let decision = {
            let _s = trace::span("tree.expand", id);
            tree::expand_with_cutoff(
                pomdp,
                &belief,
                c.depth,
                &CountingBound(bound),
                c.beta,
                c.gamma_cutoff,
            )
            .map_err(|e| e.to_string())?
        };
        traced::count_plan(decision.nodes_expanded as u64, bound.len() as u64);
        if decision.action == s.transformed.terminate_action() {
            break;
        }
        let next = {
            let _s = trace::span("world.step", id);
            let next = pomdp.sample_transition(rng, world, decision.action);
            (next, pomdp.sample_observation(rng, next, decision.action))
        };
        world = next.0;
        let _s = trace::span("observe", id);
        belief = match belief.update(pomdp, decision.action, next.1) {
            Ok((b, _)) => b,
            Err(_) => prior.clone(),
        };
    }
    Ok(())
}

/// Replays bootstrap runs `0..works.len()` through [`traced_iteration`]
/// (spans are recorded only while tracing is on); each must end with
/// its library run's iteration count and bound bits. Returns the wall
/// time, s.
fn replay_runs(s: &Setup, spec: &ImproveSpec, seed: u64, works: &[RunWork]) -> Result<f64, String> {
    let start = Instant::now();
    let target = TARGET_SHARE * s.target();
    for (j, work) in works.iter().enumerate() {
        let _run = trace::span("bootstrap.run", j as u64);
        let mut bound = s.ra.clone();
        let mut rng = StdRng::seed_from_stream(seed, j as u64);
        let mut iterations = 0;
        while iterations < MAX_ITERATIONS {
            iterations += 1;
            traced_iteration(s, &mut bound, &mut rng, iterations as u64)?;
            let _g = trace::span("gap.check", iterations as u64);
            if s.gap(&bound, &s.uniform) <= target {
                break;
            }
        }
        if iterations != work.iterations || bound_digest(&bound) != work.bound_bits {
            return Err(format!(
                "{}: traced bootstrap run {j} diverged from the library run \
                 ({iterations} vs {} iterations)",
                spec.name, work.iterations
            ));
        }
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The traced run: traced set-up, the first [`TRACED_RUNS`] bootstrap
/// runs through the library (the work witnesses), then the same runs
/// rebuilt from public calls, alternately with tracing off and under
/// spans ([`OVERHEAD_ROUNDS`] traced passes, each between two untraced
/// ones, whose mean is its overhead baseline). Each replay must end in
/// the library run's bit-identical bound.
pub fn traced(spec: &ImproveSpec, seed: u64) -> Result<Outcome, String> {
    trace::install();
    traced::take_counts();
    let (s, _) = {
        let _s = trace::span("setup", 0);
        setup()?
    };
    let setup_spans = trace::take();
    let runs = TRACED_RUNS.min(spec.runs) as u64;
    let mut works = Vec::new();
    for j in 0..runs {
        let (reference, _, _, work) = run(&s, seed, j)?;
        check_sound(&s, &reference)?;
        works.push(work);
    }
    // Untraced and traced passes alternate, each paced (see
    // `crate::pace`); the overhead is the median over the traced passes
    // of each one against the mean of the untraced passes around it.
    // The first traced pass gives the spans and counts.
    let mut pacer = Pacer::new(Reference::Compute);
    let pass = |pacer: &mut Pacer| -> Result<(f64, f64), String> {
        let (wall, factor) = pacer.pace(1, || replay_runs(&s, spec, seed, &works))?;
        Ok((wall, wall * factor))
    };
    let mut untraced = pass(&mut pacer)?.1;
    traced::take_counts();
    let mut overheads = Vec::new();
    let mut first = None;
    for _ in 0..OVERHEAD_ROUNDS {
        trace::install();
        let (wall, paced) = pass(&mut pacer)?;
        let recorded = (wall, trace::take(), traced::take_counts());
        first.get_or_insert(recorded);
        let after = pass(&mut pacer)?.1;
        traced::take_counts();
        overheads.push(paced / ((untraced + after) / 2.0) - 1.0);
        untraced = after;
    }
    let (traced_wall, mut spans, counts) = first.expect("OVERHEAD_ROUNDS >= 1");
    let top_ns = spans
        .iter()
        .filter(|sp| sp.parent.is_none())
        .map(trace::Span::duration_ns)
        .sum::<u64>();
    trace::append(&mut spans, setup_spans);
    let coverage = traced::coverage(spec.name, top_ns, (traced_wall * 1e9) as u64)?;
    // `trace.decisions` counts the episodes' tree expansions here; no
    // serve ladder runs, so `ladder.*` read 0.
    let metrics = traced::layer_metrics(
        &spans,
        counts,
        &[
            ("trace.coverage", coverage),
            ("trace.overhead", median(&overheads)),
            ("trace.decisions", counts.bounded_plans as f64),
        ],
    );
    Ok(Outcome {
        metrics,
        unpaced: Vec::new(),
        reference_ns: 0.0,
        reps: 1,
        digest: digest(&works),
    })
}
