//! The two serve workloads: fixed logical-tick event streams, one per
//! unit, replayed through `bpr_serve::Daemon` from one process,
//! `shards = 1`, as fast as the daemon can process them.

use crate::pace::{Pacer, Reference};
use crate::report::{
    histogram_mean_ns, interpolated_quantile_ns, median, metric, peak_rss_mb, scaled_histogram,
    Metric,
};
use crate::trace;
use crate::traced::{self, Timed, TracedBounded, TracedSource};
use crate::{digest, setup_round, Outcome, SetupTimes};
use bpr_core::scenario::Scenario;
use bpr_core::snapshot::{partition_path, CheckpointPolicy};
use bpr_core::{
    AnytimeConfig, AnytimeController, BoundedConfig, BoundedController, LumpedController,
    RecoveryController, RecoveryModel, ResilienceConfig, ResilientController, Step,
};
use bpr_mdp::StateId;
use bpr_pomdp::bounds::ra_bound;
use bpr_pomdp::Belief;
use bpr_serve::{
    Daemon, EventSource, Frame, FrameDecoder, FrameError, IncidentEvent, IncidentRecord,
    IncidentStatus, LatencyHistogram, Prototypes, RungKind, Schedule, ServeCheckpoint, ServeConfig,
    ServeReport, TransportCounts,
};
use bpr_sim::{detection_belief, DegradedWorld, PerturbationPlan, SimWorld};
use rand::rngs::StdRng;
use rand::{split_seed, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Everything that defines a serve workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Registry scenario the model comes from.
    pub scenario: &'static str,
    /// Bounded-rung tree depth.
    pub depth: usize,
    /// Observation-branch probability cutoff of every rung.
    pub gamma_cutoff: f64,
    /// Arrival schedule per logical tick.
    pub schedule: Schedule,
    /// Ticks in the stream.
    pub ticks: u64,
    /// Admission cap.
    pub max_live: usize,
    /// Bounded admission queue.
    pub queue_capacity: usize,
    /// Backlog from which admissions start on the anytime rung.
    pub degrade_queue_depth: usize,
    /// Action failure, monitor dropout and corruption probabilities.
    pub degradation: (f64, f64, f64),
    /// Count-only checkpoint trigger (rounds), `None` for no checkpoints.
    pub checkpoint_every: Option<usize>,
    /// Feed the stream as BPRF frames through `FrameDecoder`.
    pub frames: bool,
    /// Whether the stream is meant to overload the daemon (sheds and
    /// degraded admissions expected) or to stay under the cap (none).
    pub overload: bool,
    /// Nominal seconds one unit takes; a run of `--seconds s` processes
    /// `ceil(s / unit_seconds)` distinct units.
    pub unit_seconds: f64,
    /// Timed set-ups per round; a run does a round before its first
    /// unit and after each unit (see [`setup_round`]).
    pub setups_per_round: usize,
    /// The reference kernel the workload's timings are paced by.
    pub reference: Reference,
}

/// `emn-serve`: the paper's EMN model, bounded rung at depth 2, a
/// steady stream under the admission cap in a degraded world.
pub fn emn_serve() -> ServeSpec {
    ServeSpec {
        name: "emn-serve",
        scenario: "emn",
        depth: 2,
        gamma_cutoff: 1e-4,
        schedule: Schedule::Steady { per_tick: 1 },
        ticks: 40,
        max_live: 64,
        queue_capacity: 64,
        degrade_queue_depth: 32,
        degradation: (0.1, 0.1, 0.05),
        checkpoint_every: None,
        frames: false,
        overload: false,
        unit_seconds: 3.5,
        setups_per_round: SETUPS_PER_ROUND_EMN,
        reference: Reference::Compute,
    }
}

/// `fleet-burst`: `cellfleet-mid` at depth 1 under bursty arrivals
/// above the cap, fed as wire frames, with count-only checkpoints.
pub fn fleet_burst() -> ServeSpec {
    ServeSpec {
        name: "fleet-burst",
        scenario: "cellfleet-mid",
        depth: 1,
        gamma_cutoff: 1e-6,
        schedule: Schedule::Bursty {
            background: 1,
            burst: 24,
            period: 20,
        },
        ticks: 70,
        max_live: 8,
        queue_capacity: 24,
        degrade_queue_depth: 2,
        degradation: (0.1, 0.1, 0.0),
        checkpoint_every: Some(25),
        frames: true,
        overload: true,
        unit_seconds: 6.0,
        setups_per_round: SETUPS_PER_ROUND_FLEET,
        reference: Reference::Stream,
    }
}

/// Set-ups per round on `emn-serve` (about 15 ms each).
const SETUPS_PER_ROUND_EMN: usize = 12;
/// Set-ups per round on `fleet-burst` (about 0.23 s each).
const SETUPS_PER_ROUND_FLEET: usize = 3;

/// Incident partitions of the `fleet-burst` checkpoints.
const PARTITIONS: u32 = 4;

fn scenario(name: &str) -> Result<Box<dyn Scenario>, String> {
    match name {
        "emn" => Ok(Box::new(bpr_emn::EmnScenario::default())),
        "cellfleet-mid" => Ok(Box::new(bpr_topo::corpus::cellfleet_mid())),
        other => Err(format!("unknown scenario {other}")),
    }
}

/// Built model, daemon configuration and ladder prototypes.
pub struct Setup {
    spec: ServeSpec,
    model: RecoveryModel,
    config: ServeConfig,
    protos: Prototypes,
    faults: Vec<StateId>,
    seed: u64,
}

fn serve_config(spec: &ServeSpec, sc: &dyn Scenario) -> ServeConfig {
    let (fail, drop, corrupt) = spec.degradation;
    ServeConfig {
        max_live: spec.max_live,
        queue_capacity: spec.queue_capacity,
        shards: 1,
        degrade_queue_depth: spec.degrade_queue_depth,
        depth: spec.depth,
        gamma_cutoff: spec.gamma_cutoff,
        operator_response_time: sc.operator_response_time(),
        expected_warnings: sc.expected_warnings(),
        plan: PerturbationPlan {
            action_failure_prob: fail,
            monitor_dropout_prob: drop,
            obs_corruption_prob: corrupt,
            ..PerturbationPlan::none()
        },
        checkpoint_partitions: PARTITIONS as usize,
        ..ServeConfig::default()
    }
}

/// One timed set-up: model build, ladder prototypes (lump, RA-Bound,
/// vertex sweeps) and daemon construction. Returns the set-up and its
/// wall time.
pub fn setup(spec: &ServeSpec, seed: u64) -> Result<(Setup, f64), String> {
    let sc = scenario(spec.scenario)?;
    let t = Instant::now();
    let model = sc.build().map_err(|e| format!("model: {e}"))?;
    let config = serve_config(spec, sc.as_ref());
    let protos = Prototypes::build(&model, &config).map_err(|e| format!("prototypes: {e}"))?;
    let daemon = Daemon::with_prototypes(&model, config.clone(), protos.clone())
        .map_err(|e| format!("daemon: {e}"))?;
    drop(daemon);
    let secs = t.elapsed().as_secs_f64();
    let faults = sc.fault_population(&model);
    Ok((
        Setup {
            spec: spec.clone(),
            model,
            config,
            protos,
            faults,
            seed,
        },
        secs,
    ))
}

/// One unit of fixed work: the daemon's seeds and the event stream.
pub struct Unit {
    index: u64,
    config: ServeConfig,
    stream: Vec<Vec<IncidentEvent>>,
}

impl Unit {
    fn events(&self) -> u64 {
        self.stream.iter().map(|t| t.len() as u64).sum()
    }
}

/// Unit `k` of a run: per-tick arrival counts from the schedule, and a
/// fault mix balanced over the population — the faults are drawn in
/// seeded permutations, each a full pass over the population — so the
/// mix, and with it the work, varies little between seeds.
pub fn unit(s: &Setup, k: u64) -> Unit {
    let seed = split_seed(s.seed, k);
    let mut rng = StdRng::seed_from_stream(seed, 0);
    let mut deck: Vec<StateId> = Vec::new();
    let mut draw = move |rng: &mut StdRng| {
        if deck.is_empty() {
            deck = s.faults.clone();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.gen_range(0..=i));
            }
        }
        deck.pop().expect("fault population is non-empty")
    };
    let stream = (0..s.spec.ticks)
        .map(|t| {
            let n = match s.spec.schedule {
                Schedule::Steady { per_tick } => per_tick,
                Schedule::Bursty {
                    background,
                    burst,
                    period,
                } => background + if t % period == 0 { burst } else { 0 },
                Schedule::Adversarial { .. } => unreachable!("no workload uses it"),
            };
            (0..n)
                .map(|_| IncidentEvent {
                    fault: draw(&mut rng),
                })
                .collect()
        })
        .collect();
    let config = ServeConfig {
        plan: PerturbationPlan {
            seed: split_seed(seed, 1),
            ..s.config.plan.clone()
        },
        master_seed: split_seed(seed, 2),
        ..s.config.clone()
    };
    Unit {
        index: k,
        config,
        stream,
    }
}

/// In-process source replaying a fixed stream tick by tick.
struct StreamSource {
    stream: Vec<Vec<IncidentEvent>>,
    next: usize,
    fingerprint: u64,
}

impl EventSource for StreamSource {
    fn poll(&mut self) -> Option<Vec<IncidentEvent>> {
        let events = self.stream.get(self.next)?.clone();
        self.next += 1;
        Some(events)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The stream as BPRF wire bytes, decoded tick by tick through
/// `FrameDecoder` inside `poll`.
struct FrameSource {
    ticks: Vec<Vec<u8>>,
    end: Vec<u8>,
    next: usize,
    decoder: FrameDecoder,
    counts: TransportCounts,
    fingerprint: u64,
}

impl FrameSource {
    fn encode(stream: &[Vec<IncidentEvent>], fingerprint: u64) -> FrameSource {
        let ticks = stream
            .iter()
            .enumerate()
            .map(|(tick, events)| {
                events
                    .iter()
                    .enumerate()
                    .flat_map(|(seq, e)| {
                        Frame::Event {
                            tick: tick as u64,
                            seq: seq as u32,
                            fault: e.fault,
                        }
                        .encode()
                    })
                    .collect()
            })
            .collect();
        FrameSource {
            ticks,
            end: Frame::End {
                ticks: stream.len() as u64,
            }
            .encode(),
            next: 0,
            decoder: FrameDecoder::new(),
            counts: TransportCounts::default(),
            fingerprint,
        }
    }

    /// Decodes every complete frame buffered so far. Counts follow
    /// `TransportCounts`: `frames_seen` is events plus rejections, end
    /// markers are tallied apart.
    fn drain(&mut self) -> Vec<IncidentEvent> {
        let mut events = Vec::new();
        while let Some(item) = self.decoder.next() {
            let c = &mut self.counts;
            match item {
                Ok(Frame::Event { fault, .. }) => {
                    c.frames_seen += 1;
                    c.events_delivered += 1;
                    events.push(IncidentEvent { fault });
                }
                Ok(Frame::End { .. }) => c.end_frames += 1,
                Err(e) => {
                    c.frames_seen += 1;
                    match e {
                        FrameError::Garbage { .. } => c.rejected_garbage += 1,
                        FrameError::Version { .. } => c.rejected_version += 1,
                        FrameError::Kind { .. } => c.rejected_kind += 1,
                        FrameError::Oversized { .. } => c.rejected_oversized += 1,
                        FrameError::Length { .. } => c.rejected_length += 1,
                        FrameError::Checksum { .. } => c.rejected_checksum += 1,
                    }
                }
            }
        }
        events
    }
}

impl EventSource for FrameSource {
    fn poll(&mut self) -> Option<Vec<IncidentEvent>> {
        if let Some(bytes) = self.ticks.get(self.next) {
            self.counts.bytes_read += bytes.len() as u64;
            self.decoder.feed(bytes);
            self.next += 1;
            return Some(self.drain());
        }
        if self.counts.end_frames == 0 {
            self.counts.bytes_read += self.end.len() as u64;
            self.decoder.feed(&self.end);
            let stray = self.drain();
            debug_assert!(stray.is_empty(), "no events follow the end marker");
        }
        None
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn transport_counts(&self) -> Option<TransportCounts> {
        Some(self.counts)
    }
}

fn source(s: &Setup, u: &Unit) -> Box<dyn EventSource> {
    let fingerprint = split_seed(s.seed, u.index);
    if s.spec.frames {
        Box::new(FrameSource::encode(&u.stream, fingerprint))
    } else {
        Box::new(StreamSource {
            stream: u.stream.clone(),
            next: 0,
            fingerprint,
        })
    }
}

/// A fresh, empty checkpoint directory per daemon run, inside the
/// working directory (the benchmark writes nowhere else).
fn fresh_dir(name: &str, rep: usize) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench-tmp").join(format!("{name}-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
    Ok(dir)
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Leave no empty parent behind either.
    let _ = std::fs::remove_dir(".perfbench-tmp");
}

/// One daemon run over a unit's stream.
pub struct Rep {
    /// The daemon's report.
    pub report: ServeReport,
    /// Wall time of `Daemon::run`, s.
    pub wall_s: f64,
}

fn run_daemon(
    s: &Setup,
    u: &Unit,
    tag: usize,
    traced: bool,
) -> Result<(Rep, Option<PathBuf>), String> {
    let dir = match s.spec.checkpoint_every {
        Some(_) => Some(fresh_dir(s.spec.name, tag)?),
        None => None,
    };
    let config = ServeConfig {
        checkpoint: match (&dir, s.spec.checkpoint_every) {
            (Some(d), Some(every)) => Some(CheckpointPolicy::new(d.join("serve.ckpt"), every)),
            _ => None,
        },
        ..u.config.clone()
    };
    let mut daemon = Daemon::with_prototypes(&s.model, config, s.protos.clone())
        .map_err(|e| format!("daemon: {e}"))?;
    let mut src = source(s, u);
    let (report, wall_s) = if traced {
        let mut src = TracedSource::new(src.as_mut());
        let run = trace::open("daemon.run", u.index);
        let t = Instant::now();
        let report = daemon.run(&mut src);
        let wall = t.elapsed().as_secs_f64();
        src.finish();
        trace::close(run);
        (report, wall)
    } else {
        let t = Instant::now();
        let report = daemon.run(src.as_mut());
        (report, t.elapsed().as_secs_f64())
    };
    let report = report.map_err(|e| format!("daemon run: {e}"))?;
    Ok((Rep { report, wall_s }, dir))
}

/// Runs a unit's stream once and checks the run's invariants; `tag`
/// names the run's fresh checkpoint directory.
pub fn run_rep(s: &Setup, u: &Unit, tag: usize) -> Result<Rep, String> {
    let (r, dir) = run_daemon(s, u, tag, false)?;
    if let Some(d) = dir {
        remove_dir(&d);
    }
    check(s, u, &r.report)?;
    Ok(r)
}

/// Requests that were not served: shed, controller errors,
/// quarantined, lost.
fn failed_events(r: &ServeReport) -> u64 {
    r.shed.total()
        + r.count(IncidentStatus::ControllerError)
        + r.count(IncidentStatus::Quarantined)
        + r.lost_incidents()
}

/// The run's correctness checks: zero loss, a fresh start, frame
/// accounting, and the load regime the workload claims.
pub fn check(s: &Setup, u: &Unit, r: &ServeReport) -> Result<(), String> {
    let name = s.spec.name;
    let events = u.events();
    let fail = |what: String| Err(format!("{name}: {what}"));
    if r.resumed_from.is_some() {
        return fail("resumed from an earlier checkpoint; runs must start fresh".into());
    }
    if r.killed || !u.config.chaos_panic_incidents.is_empty() {
        return fail("kill or chaos drill active".into());
    }
    if r.events_seen != events {
        return fail(format!("saw {} of {events} events", r.events_seen));
    }
    if r.admitted + r.shed.total() != r.events_seen {
        return fail(format!(
            "admitted {} + shed {} != events {}",
            r.admitted,
            r.shed.total(),
            r.events_seen
        ));
    }
    if r.lost_incidents() != 0 || r.live_at_exit != 0 || r.queued_at_exit != 0 {
        return fail(format!(
            "lost {} live {} queued {} at exit",
            r.lost_incidents(),
            r.live_at_exit,
            r.queued_at_exit
        ));
    }
    if r.records.len() as u64 != r.admitted {
        return fail(format!(
            "{} records for {} admissions",
            r.records.len(),
            r.admitted
        ));
    }
    if r.snapshot_error.is_some() || !r.partition_errors.is_empty() {
        return fail(format!("checkpoint error {:?}", r.snapshot_error));
    }
    if s.spec.checkpoint_every.is_some() && r.checkpoints_written == 0 {
        return fail("no checkpoint written".into());
    }
    if s.spec.frames {
        let Some(t) = r.transport else {
            return fail("no transport counts".into());
        };
        if t.events_delivered != events || t.end_frames != 1 || t.rejected_frames() != 0 {
            return fail(format!(
                "frames: {} events + {} end decoded for {events} events, {} rejected",
                t.events_delivered,
                t.end_frames,
                t.rejected_frames()
            ));
        }
    }
    let overloaded = r.shed.total() > 0 && r.degraded_admissions > 0;
    let underloaded = r.shed.total() == 0 && r.degraded_admissions == 0;
    if s.spec.overload && !overloaded {
        return fail("stream meant to overload the daemon shed nothing".into());
    }
    if !s.spec.overload && !underloaded {
        return fail(format!(
            "stream meant to stay under the cap shed {} and degraded {}",
            r.shed.total(),
            r.degraded_admissions
        ));
    }
    Ok(())
}

/// Reference samples taken after each unit; with the ones after the
/// previous unit they pace it.
const SAMPLES_PER_UNIT: usize = 3;

/// Timings of a run's units: `work_s` and the merged decision
/// latencies, each unit's scaled by one factor (1 for wall time).
#[derive(Default)]
struct Timings {
    work_s: f64,
    latency: LatencyHistogram,
    latency_sum_ns: f64,
}

impl Timings {
    fn add(&mut self, rep: &Rep, factor: f64) {
        let latency = &rep.report.latency;
        self.work_s += rep.wall_s * factor;
        self.latency_sum_ns += histogram_mean_ns(latency) * latency.total() as f64 * factor;
        self.latency.merge(&scaled_histogram(latency, factor));
    }

    fn metrics(&self, setups: &[f64]) -> Vec<Metric> {
        vec![
            metric("setup_s", median(setups), "s"),
            metric("work_s", self.work_s, "s"),
            metric(
                "step_mean_ms",
                self.latency_sum_ns / self.latency.total() as f64 / 1e6,
                "ms",
            ),
            metric(
                "step_p95_ms",
                interpolated_quantile_ns(&self.latency, 0.95) / 1e6,
                "ms",
            ),
        ]
    }
}

/// Runs the run's distinct units once each, adding units until the
/// merged latency histogram holds 1000 decisions (fifty beyond p95),
/// with a round of timed set-ups before the first unit and after each.
/// Each unit's timings are paced (see [`crate::pace`]) by the reference
/// samples just before and just after it.
pub fn measure(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut pacer = Pacer::new(spec.reference);
    let mut setups = SetupTimes::default();
    let s = setup_round(spec.setups_per_round, &mut pacer, &mut setups, || {
        setup(spec, seed)
    })?;
    let (mut paced, mut wall) = (Timings::default(), Timings::default());
    let mut canonicals = Vec::new();
    let (mut incidents, mut cost, mut failed, mut events) = (0u64, 0.0f64, 0u64, 0u64);
    // Both conditions are pure functions of seed and length, so the
    // work stays fixed.
    let mut k = 0;
    while k < crate::units_for(seconds, spec.unit_seconds) || wall.latency.total() < 1000 {
        let u = unit(&s, k);
        k += 1;
        let (rep, factor) = pacer.pace(SAMPLES_PER_UNIT, || run_rep(&s, &u, u.index as usize))?;
        paced.add(&rep, factor);
        wall.add(&rep, 1.0);
        incidents += rep.report.records.len() as u64;
        cost += rep.report.records.iter().map(|r| r.cost).sum::<f64>();
        failed += failed_events(&rep.report);
        events += rep.report.events_seen;
        canonicals.push(rep.report.canonical());
        setup_round(spec.setups_per_round, &mut pacer, &mut setups, || {
            setup(spec, seed)
        })?;
    }
    let mut metrics = paced.metrics(&setups.paced);
    metrics.extend([
        metric("cost_per_incident", cost / incidents as f64, "cost"),
        metric(
            "completed_ratio",
            1.0 - failed as f64 / events as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]);
    Ok(Outcome {
        metrics,
        unpaced: wall.metrics(&setups.wall),
        reference_ns: pacer.mean_sample_ns(),
        reps: k,
        digest: digest(&canonicals),
    })
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// The ladder rebuilt from public calls with the bench's wrappers, in
/// the same configuration `Prototypes::build` uses.
struct ReplayProtos {
    bounded: LumpedController<TracedBounded>,
    resilient: ResilientController<LumpedController<TracedBounded>>,
    anytime: AnytimeController,
}

/// Traced set-up: the same work as [`setup`], split at the layer
/// boundaries (lump, RA-Bound), plus the replay ladder.
fn traced_setup(spec: &ServeSpec, seed: u64) -> Result<(Setup, ReplayProtos), String> {
    let _span = trace::span("setup", 0);
    let sc = scenario(spec.scenario)?;
    let model = {
        let _s = trace::span("setup.model", 0);
        sc.build().map_err(|e| format!("model: {e}"))?
    };
    let config = serve_config(spec, sc.as_ref());
    let terminated = model
        .without_notification(config.operator_response_time)
        .map_err(|e| e.to_string())?;
    let (planning, certificate) = {
        let _s = trace::span("setup.lump", 0);
        terminated.lump().map_err(|e| e.to_string())?
    };
    {
        let _s = trace::span("setup.ra_bound", 0);
        ra_bound(planning.pomdp(), &Default::default()).map_err(|e| e.to_string())?;
    }
    let protos = {
        let _s = trace::span("setup.prototypes", 0);
        Prototypes::build(&model, &config).map_err(|e| format!("prototypes: {e}"))?
    };
    let replay = {
        let _s = trace::span("setup.replay_ladder", 0);
        // Mirrors `Prototypes::build`: sweeps only on small quotients.
        let sweeps = if planning.pomdp().n_states() > 256 {
            0
        } else {
            BoundedConfig::default().startup_vertex_sweeps
        };
        let bounded_cfg = BoundedConfig {
            depth: config.depth,
            gamma_cutoff: config.gamma_cutoff,
            startup_vertex_sweeps: sweeps,
            ..BoundedConfig::default()
        };
        let inner = BoundedController::new(planning, bounded_cfg).map_err(|e| e.to_string())?;
        let bounded = LumpedController::new(
            TracedBounded::from_controller(&inner).map_err(|e| e.to_string())?,
            certificate,
        );
        let anytime = AnytimeController::new(
            terminated,
            AnytimeConfig {
                node_budget: config.anytime_node_budget,
                gamma_cutoff: config.gamma_cutoff,
                ..AnytimeConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let resilient =
            ResilientController::new(model.clone(), bounded.clone(), ResilienceConfig::default())
                .and_then(|r| r.with_anytime(anytime.clone()))
                .map_err(|e| e.to_string())?;
        ReplayProtos {
            bounded,
            resilient,
            anytime,
        }
    };
    {
        let _s = trace::span("setup.daemon", 0);
        Daemon::with_prototypes(&model, config.clone(), protos.clone())
            .map_err(|e| format!("daemon: {e}"))?;
    }
    let faults = sc.fault_population(&model);
    Ok((
        Setup {
            spec: spec.clone(),
            model,
            config,
            protos,
            faults,
            seed,
        },
        replay,
    ))
}

fn rung(p: &ReplayProtos, kind: RungKind) -> Box<dyn RecoveryController> {
    match kind {
        RungKind::Bounded => Box::new(Timed::new(p.bounded.clone(), "decide.bounded")),
        RungKind::Resilient => Box::new(Timed::new(p.resilient.clone(), "decide.resilient")),
        RungKind::Anytime => Box::new(Timed::new(p.anytime.clone(), "decide.anytime")),
    }
}

fn fold_hash(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Re-runs one daemon incident through public `sim` and `core` calls
/// with the daemon's seeds and ladder rules, under spans, and checks it
/// reproduces the daemon's record.
fn replay_incident(
    s: &Setup,
    u: &Unit,
    p: &ReplayProtos,
    rec: &IncidentRecord,
) -> Result<(), String> {
    let _span = trace::span("incident", rec.id);
    let config = &u.config;
    let model = &s.model;
    let (mut world, mut rng, mut ctrl) = {
        let _s = trace::span("admit", rec.id);
        let plan = PerturbationPlan {
            seed: split_seed(config.plan.seed, rec.id),
            ..config.plan.clone()
        };
        let mut world = DegradedWorld::new(model, rec.fault, plan).map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_stream(config.master_seed, rec.id);
        let mut ctrl = rung(p, rec.admitted_rung);
        let initial = detection_belief(model, ctrl.uses_monitors(), &mut world, &mut rng)
            .map_err(|e| e.to_string())?;
        ctrl.begin(initial, Some(rec.fault))
            .map_err(|e| e.to_string())?;
        (world, rng, ctrl)
    };
    let mut kind = rec.admitted_rung;
    let (mut steps, mut cost, mut hash) = (0usize, 0.0f64, 0xcbf2_9ce4_8422_2325u64);
    // Same ladder and accounting as the daemon's incident step; typed
    // controller failures close the incident as in the daemon.
    let status = loop {
        let target = if steps >= config.escalate_anytime_after {
            RungKind::Anytime
        } else if steps >= config.escalate_resilient_after {
            RungKind::Resilient
        } else {
            RungKind::Bounded
        };
        if target > kind {
            let _s = trace::span("escalate", rec.id);
            let belief = ctrl.belief().unwrap_or_else(|| {
                Belief::uniform_over(model.base().n_states(), &model.fault_states())
            });
            let mut next = rung(p, target);
            if next.begin(belief, Some(rec.fault)).is_err() {
                break IncidentStatus::ControllerError;
            }
            ctrl = next;
            kind = target;
        }
        match ctrl.decide() {
            Err(_) => break IncidentStatus::ControllerError,
            Ok(Step::Terminate) => {
                steps += 1;
                hash = fold_hash(hash, u64::MAX);
                break if world.recovered() {
                    IncidentStatus::Recovered
                } else {
                    IncidentStatus::TerminatedFaulty
                };
            }
            Ok(Step::Execute(a)) => {
                steps += 1;
                hash = fold_hash(hash, a.index() as u64);
                cost += -model.base().mdp().reward(world.true_state(), a);
                let result = {
                    let _s = trace::span("world.step", rec.id);
                    world.step_world(&mut rng, a)
                };
                let delivered = if ctrl.uses_monitors() {
                    match result.observation {
                        Some(o) => ctrl.observe(a, o),
                        None => ctrl.on_unobserved(a),
                    }
                } else {
                    Ok(())
                };
                if delivered.is_err() {
                    break IncidentStatus::ControllerError;
                }
                if steps >= config.max_steps {
                    break IncidentStatus::StepLimit;
                }
            }
        }
    };
    if status != rec.status
        || steps != rec.steps
        || cost.to_bits() != rec.cost.to_bits()
        || hash != rec.decision_hash
    {
        return Err(format!(
            "{}: traced replay of incident {} diverged from the daemon ({status:?}/{steps} vs {:?}/{})",
            s.spec.name, rec.id, rec.status, rec.steps
        ));
    }
    Ok(())
}

/// Re-saves the final checkpoint of a traced run through
/// `ServeCheckpoint::save_partitioned` into a fresh path; returns the
/// bytes written.
fn resave_checkpoint(dir: &Path) -> Result<u64, String> {
    let src = dir.join("serve.ckpt");
    let (cp, generation, outcomes) = ServeCheckpoint::load_partitioned(&src)
        .map_err(|e| format!("reload checkpoint: {e}"))?
        .ok_or("no checkpoint to reload")?;
    if !outcomes.is_empty() {
        return Err("reloaded checkpoint has degraded partitions".into());
    }
    let dst = dir.join("resave.ckpt");
    {
        let _s = trace::span("checkpoint.save", 0);
        cp.save_partitioned(&dst, PARTITIONS, generation + 1, &mut Default::default())
            .map_err(|e| format!("re-save checkpoint: {e}"))?;
    }
    let mut bytes = std::fs::metadata(&dst).map(|m| m.len()).unwrap_or(0);
    for k in 0..PARTITIONS {
        bytes += std::fs::metadata(partition_path(&dst, &format!("p{k}")))
            .map(|m| m.len())
            .unwrap_or(0);
    }
    Ok(bytes)
}

/// Replays every incident of `records` (see [`replay_incident`]);
/// returns the wall time, s.
fn replay_all(
    s: &Setup,
    u: &Unit,
    p: &ReplayProtos,
    records: &[IncidentRecord],
) -> Result<f64, String> {
    let start = Instant::now();
    let _s = trace::span("replay", 0);
    for rec in records {
        replay_incident(s, u, p, rec)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Traced passes the serve tracing overhead is the median over (each
/// pass is a daemon run plus its replay, seconds long).
const OVERHEAD_ROUNDS: usize = 3;

/// The traced run on unit 0: traced set-up, then the unit's daemon run
/// and incident replay alternately with tracing off and with tracing on
/// plus the checkpoint re-save ([`OVERHEAD_ROUNDS`] traced passes, each
/// between two untraced ones, whose mean is its overhead baseline). The
/// first traced pass gives the spans and counts.
pub fn traced(spec: &ServeSpec, seed: u64) -> Result<Outcome, String> {
    trace::install();
    traced::take_counts();
    let (s, p) = traced_setup(spec, seed)?;
    // The untraced baseline runs with the recorder off.
    let pause = trace::take();
    let u = unit(&s, 0);
    // Every pass is paced (see `crate::pace`), so the overhead compares
    // like with like across a phase of the host.
    let untraced = |pacer: &mut Pacer, tag| -> Result<(Rep, f64), String> {
        let ((rep, replay_s), factor) = pacer.pace(1, || {
            let rep = run_rep(&s, &u, tag)?;
            let replay_s = replay_all(&s, &u, &p, &rep.report.records)?;
            Ok::<_, String>((rep, replay_s))
        })?;
        traced::take_counts();
        let paced = (rep.wall_s + replay_s) * factor;
        Ok((rep, paced))
    };
    let mut pacer = Pacer::new(spec.reference);
    let (base, mut before_s) = untraced(&mut pacer, 0)?;
    let mut overheads = Vec::new();
    let mut first = None;
    for _ in 0..OVERHEAD_ROUNDS {
        trace::install();
        let resumed = Instant::now();
        let start_factor = pacer.factor();
        let (r, dir) = run_daemon(&s, &u, 1, true)?;
        let ckpt_bytes = match &dir {
            Some(d) => {
                let _s = trace::span("checkpoint.resave", 0);
                let bytes = resave_checkpoint(d);
                remove_dir(d);
                bytes?
            }
            None => 0,
        };
        check(&s, &u, &r.report)?;
        if r.report.canonical() != base.report.canonical() {
            return Err(format!("{}: traced run did different work", spec.name));
        }
        let replay_s = replay_all(&s, &u, &p, &r.report.records)?;
        let traced_wall_ns = resumed.elapsed().as_nanos() as u64;
        let spans = trace::take();
        let counts = traced::take_counts();
        let factor = (start_factor + pacer.sample(1)) / 2.0;
        // The same code with tracing on and off: the daemon run under
        // the traced source, and the replay under every wrapper's spans.
        let (_, after_s) = untraced(&mut pacer, 2)?;
        overheads.push((r.wall_s + replay_s) * factor / ((before_s + after_s) / 2.0) - 1.0);
        before_s = after_s;
        first.get_or_insert((r, traced_wall_ns, spans, counts, ckpt_bytes));
    }
    let (r, traced_wall_ns, mut spans, counts, ckpt_bytes) = first.expect("OVERHEAD_ROUNDS >= 1");
    trace::append(&mut spans, pause);
    layer_outcome(
        spec.name,
        &spans,
        counts,
        &r.report,
        median(&overheads),
        traced_wall_ns,
        ckpt_bytes,
    )
}

fn layer_outcome(
    workload: &str,
    spans: &[trace::Span],
    c: traced::LayerCounts,
    r: &ServeReport,
    overhead: f64,
    traced_wall_ns: u64,
    ckpt_bytes: u64,
) -> Result<Outcome, String> {
    let t = trace::totals_by_name(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    // Top-level spans after the baseline pause (daemon.run,
    // checkpoint.resave, replay) must cover the traced wall time.
    let top: u64 = spans
        .iter()
        .filter(|sp| sp.parent.is_none() && sp.name != "setup")
        .map(trace::Span::duration_ns)
        .sum();
    let coverage = traced::coverage(workload, top, traced_wall_ns)?;
    let rungs = ["decide.bounded", "decide.resilient", "decide.anytime"].map(|n| get(n).count);
    let transport = r.transport.unwrap_or_default();
    let frames = transport.events_delivered + transport.end_frames;
    let metrics = traced::layer_metrics(
        spans,
        c,
        &[
            (
                "daemon.admit_ms_per_incident",
                traced::per(get("admit").total_ns as f64 / 1e6, get("admit").count),
            ),
            (
                "daemon.round_self_ms",
                get("daemon.round").self_ns as f64 / 1e6,
            ),
            ("daemon.rounds", r.rounds as f64),
            ("daemon.degraded_admissions", r.degraded_admissions as f64),
            ("ladder.decisions_bounded", rungs[0] as f64),
            ("ladder.decisions_resilient", rungs[1] as f64),
            ("ladder.decisions_anytime", rungs[2] as f64),
            ("checkpoint.writes", r.checkpoints_written as f64),
            ("checkpoint.bytes_per_write", ckpt_bytes as f64),
            (
                "checkpoint.write_ms",
                get("checkpoint.save").total_ns as f64 / 1e6,
            ),
            ("transport.frames_decoded", frames as f64),
            (
                "transport.decode_ns_per_frame",
                traced::per(get("transport.poll").total_ns as f64, frames),
            ),
            (
                "transport.frames_rejected",
                transport.rejected_frames() as f64,
            ),
            ("trace.coverage", coverage),
            ("trace.overhead", overhead),
            ("trace.decisions", rungs.iter().sum::<u64>() as f64),
        ],
    );
    Ok(Outcome {
        metrics,
        unpaced: Vec::new(),
        reference_ns: 0.0,
        reps: 1,
        digest: digest(&[r.canonical()]),
    })
}
