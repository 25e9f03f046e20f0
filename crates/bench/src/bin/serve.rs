//! Chaos soak harness for the `bpr-serve` recovery daemon, driven by
//! the shared [`Scenario`] registry: any registered model — the
//! paper's EMN and two-server worlds or the generated `bpr-topo`
//! corpus — can be soaked by name.
//!
//! Two soak families, each gated hard on the daemon's contracts:
//!
//! **In-process soaks** (`--scenarios`, default `emn,two-server`)
//! drive bursty synthetic monitor-event load with `DegradedWorld`
//! fault injection, a poisoned-incident chaos drill, and a mid-soak
//! kill-and-resume:
//!
//! 1. **Zero incident loss** — every admitted incident ends in a typed
//!    terminal status; shed events carry typed, counted rejections.
//! 2. **Shard-width determinism** — canonical results are bit-identical
//!    at every requested shard width.
//! 3. **Kill/resume determinism** — a run killed mid-soak and resumed
//!    from its partitioned checkpoint reproduces the uninterrupted
//!    run's per-incident decision sequences exactly.
//! 4. **Throughput** — the EMN soak sustains at least
//!    `--min-events-per-sec` ingested events per second (default 10⁴).
//!
//! **Network chaos soaks** (`--net-scenarios`, default
//! `emn,web3tier-small,cellfleet-mid`) serve the same logical event
//! stream over a loopback TCP socket while a hostile client injects
//! mid-soak disconnects and reconnect replays, garbage bursts,
//! malformed-frame bursts (foreign version, unknown kind, oversized
//! declaration, checksum failure), partial writes, and a slow-loris
//! companion connection — then gate that:
//!
//! 5. **Transport independence** — the socket leg's canonical report
//!    equals the in-process reference bit-for-bit.
//! 6. **Frame accounting** — `frames_seen == events_delivered +
//!    rejected_frames` and no event is lost or invented under the
//!    full fault plan (no panic either; a panic fails the bench).
//! 7. **Resume over the wire** — a killed socket run resumes from its
//!    partitioned checkpoint against a client replaying from tick 0:
//!    the consumed prefix is rejected as typed stale frames and the
//!    combined run matches the reference.
//!
//! Model lint findings allowlisted by the scenario
//! (`expected_warnings`) are suppressed and counted; only unexpected
//! findings surface in the report.
//!
//! Emits `BENCH_serve.json` with per-scenario soak blocks (scenario
//! name embedded), transport counters, p50/p99 decision latency, and
//! gate outcomes.
//!
//! Usage:
//! `cargo run -p bpr-bench --bin serve --release -- \
//!     [--scenario NAME | --scenarios emn,two-server \
//!      --net-scenarios emn,web3tier-small,cellfleet-mid] \
//!     [--ticks 240] [--net-ticks 64] [--schedule bursty] [--rate 250] \
//!     [--burst 750] [--period 10] [--seed 7] [--shards 1,4] \
//!     [--max-live 8] [--queue 256] [--steps-per-round 2] \
//!     [--max-steps 60] [--deadline-ms 50] [--failures 0.05] \
//!     [--dropouts 0.05] [--corruption 0.02] [--kill-round 40] \
//!     [--chaos-incident 2] [--partitions 4] \
//!     [--min-events-per-sec 10000] [--snapshot serve.snapshot] \
//!     [--out BENCH_serve.json]`

use bpr_bench::{flag, list_flag, string_flag};
use bpr_core::scenario::{Scenario, ScenarioRegistry};
use bpr_core::snapshot::{partition_path, CheckpointPolicy};
use bpr_core::RecoveryModel;
use bpr_mdp::StateId;
use bpr_serve::{
    Daemon, EventSource, Frame, IncidentStatus, Prototypes, Schedule, ServeConfig, ServeReport,
    SocketConfig, SocketSource, SyntheticEvents, TransportCounts,
};
use bpr_sim::PerturbationPlan;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Comma-separated scenario-name list flag; `--scenario NAME`
/// overrides every list to just `NAME` (one knob for CI smokes).
fn scenario_list(args: &[String], name: &str, default: &[&str]) -> Vec<String> {
    if let Some(one) = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
    {
        return vec![one.clone()];
    }
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect()
        })
        .unwrap_or_else(|| default.iter().map(|s| (*s).to_string()).collect())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// A registry scenario resolved into everything a soak needs: the
/// built model, its fault population, the scenario-specific config
/// overlay (operator response time, lint allowlist), and the ladder
/// prototypes — built ONCE here and cloned into every leg's daemon,
/// because controller construction dominates startup on the larger
/// corpus models (minutes at 10³ states).
struct World<'r> {
    scenario: &'r dyn Scenario,
    model: RecoveryModel,
    faults: Vec<StateId>,
    protos: Prototypes,
}

impl World<'_> {
    fn resolve<'r>(
        registry: &'r ScenarioRegistry,
        name: &str,
        base: &ServeConfig,
    ) -> Result<World<'r>, String> {
        let scenario = registry.require(name).map_err(|e| e.to_string())?;
        let model = scenario
            .build()
            .map_err(|e| format!("{name}: model build: {e}"))?;
        let faults = scenario.fault_population(&model);
        if faults.is_empty() {
            return Err(format!("{name}: empty fault population"));
        }
        let planning_config = ServeConfig {
            operator_response_time: scenario.operator_response_time(),
            ..base.clone()
        };
        let built = Instant::now();
        let protos = Prototypes::build(&model, &planning_config)
            .map_err(|e| format!("{name}: ladder prototypes: {e}"))?;
        eprintln!(
            "[serve] {name}: ladder prototypes built in {:.1}s (shared across all legs)",
            built.elapsed().as_secs_f64()
        );
        Ok(World {
            scenario,
            model,
            faults,
            protos,
        })
    }

    fn daemon(&self, config: ServeConfig) -> Result<Daemon<'_>, String> {
        Daemon::with_prototypes(&self.model, config, self.protos.clone())
            .map_err(|e| format!("{}: {e}", self.name()))
    }

    fn name(&self) -> &str {
        self.scenario.name()
    }

    fn config(&self, base: &ServeConfig) -> ServeConfig {
        ServeConfig {
            operator_response_time: self.scenario.operator_response_time(),
            expected_warnings: self.scenario.expected_warnings(),
            ..base.clone()
        }
    }
}

fn remove_checkpoint(base: &str, partitions: usize) {
    let _ = std::fs::remove_file(base);
    for k in 0..partitions {
        let _ = std::fs::remove_file(partition_path(std::path::Path::new(base), &format!("p{k}")));
    }
}

// ---------------------------------------------------------------------------
// In-process soak (shard sweep + kill/resume drill)
// ---------------------------------------------------------------------------

struct SoakOutcome {
    report: ServeReport,
    shard_widths: Vec<usize>,
    shard_identical: bool,
    resume_identical: bool,
    resumed_from: Option<u64>,
    killed_rounds: u64,
    checkpoints_written: u64,
    snapshot_retries: u64,
}

/// Everything one world's soak shares across its five runs.
struct SoakParams {
    seed: u64,
    schedule: Schedule,
    ticks: u64,
    shards: Vec<usize>,
    kill_round: u64,
    snapshot: String,
}

#[allow(clippy::too_many_lines)]
fn soak_world(world: &World, base: &ServeConfig, p: &SoakParams) -> Result<SoakOutcome, String> {
    let name = world.name();
    let source = || {
        SyntheticEvents::new(p.seed, p.schedule.clone(), world.faults.clone(), p.ticks)
            .map_err(|e| format!("{name}: event source: {e}"))
    };
    let base = &world.config(base);

    // Reference run: first shard width, no checkpointing.
    let reference_config = ServeConfig {
        shards: p.shards[0],
        ..base.clone()
    };
    let mut daemon = world.daemon(reference_config)?;
    let reference = daemon
        .run(&mut source()?)
        .map_err(|e| format!("{name}: reference run: {e}"))?;
    let reference_canonical = reference.canonical();

    // Shard-width determinism: every width must reproduce the
    // reference bit-for-bit. The widest run is the measured one.
    let mut measured = reference.clone();
    let mut shard_identical = true;
    for &width in &p.shards[1..] {
        let config = ServeConfig {
            shards: width,
            ..base.clone()
        };
        let mut daemon = world.daemon(config)?;
        let report = daemon
            .run(&mut source()?)
            .map_err(|e| format!("{name}: width-{width} run: {e}"))?;
        if report.canonical() != reference_canonical {
            eprintln!(
                "[serve] GATE FAILURE {name}: width {width} diverged from width {}",
                p.shards[0]
            );
            shard_identical = false;
        }
        measured = report;
    }

    // Kill/resume drill: checkpoint every few rounds (count trigger)
    // plus a wall-clock trigger, kill mid-soak, resume, compare.
    let snapshot_path = format!("{}.{name}", p.snapshot);
    remove_checkpoint(&snapshot_path, base.checkpoint_partitions);
    let killed_config = ServeConfig {
        shards: *p.shards.last().expect("non-empty shards"),
        checkpoint: Some(
            CheckpointPolicy::new(&snapshot_path, 5)
                .with_every_duration(Duration::from_millis(250)),
        ),
        kill_after_rounds: Some(p.kill_round),
        ..base.clone()
    };
    let mut daemon = world.daemon(killed_config)?;
    let killed = daemon
        .run(&mut source()?)
        .map_err(|e| format!("{name}: killed run: {e}"))?;
    let resumed_config = ServeConfig {
        shards: p.shards[0],
        checkpoint: Some(CheckpointPolicy::new(&snapshot_path, 5)),
        ..base.clone()
    };
    let mut daemon = world.daemon(resumed_config)?;
    let resumed = daemon
        .run(&mut source()?)
        .map_err(|e| format!("{name}: resumed run: {e}"))?;
    let resume_identical = resumed.canonical() == reference_canonical;
    if resume_identical {
        remove_checkpoint(&snapshot_path, base.checkpoint_partitions);
    } else {
        // Leave the snapshot behind for post-mortem.
        eprintln!("[serve] GATE FAILURE {name}: kill/resume diverged from the uninterrupted run");
    }

    for (label, report) in [
        ("reference", &reference),
        ("measured", &measured),
        ("killed", &killed),
        ("resumed", &resumed),
    ] {
        if report.lost_incidents() != 0 {
            return Err(format!(
                "{name}: {label} run lost {} incidents",
                report.lost_incidents()
            ));
        }
        // Killed runs may leave events in the (persisted) queue; every
        // other event must be admitted or carry a typed shed count.
        if report.admitted + report.shed.total() + report.queued_at_exit != report.events_seen {
            return Err(format!(
                "{name}: {label} run dropped events without a typed shed reason"
            ));
        }
    }

    Ok(SoakOutcome {
        shard_widths: p.shards.clone(),
        shard_identical,
        resume_identical,
        resumed_from: resumed.resumed_from,
        killed_rounds: killed.rounds,
        checkpoints_written: killed.checkpoints_written + resumed.checkpoints_written,
        snapshot_retries: killed.snapshot_retries + resumed.snapshot_retries,
        report: measured,
    })
}

// ---------------------------------------------------------------------------
// Network chaos soak (loopback socket + hostile client + kill/resume)
// ---------------------------------------------------------------------------

/// Streams the plan's frames cleanly, in tick/seq order, with the end
/// marker. Write errors mean the daemon went away (kill drill) — the
/// client just stops.
fn stream_plan(addr: SocketAddr, plan: &SyntheticEvents) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    for tick in 0..plan.ticks() {
        for (seq, e) in plan.events_at(tick).iter().enumerate() {
            let frame = Frame::Event {
                tick,
                seq: seq as u32,
                fault: e.fault,
            };
            if stream.write_all(&frame.encode()).is_err() {
                return;
            }
        }
    }
    let _ = stream.write_all(
        &Frame::End {
            ticks: plan.ticks(),
        }
        .encode(),
    );
}

/// Streams the plan under the full network-fault plan: a mid-soak
/// disconnect with a reconnect that replays the previous tick
/// (duplicate/stale path), garbage bursts, malformed-frame bursts
/// rotating through every typed corruption, and partial writes. The
/// *logical* event sequence is exactly `stream_plan`'s — that is the
/// point: the daemon's canonical report must not notice the chaos.
fn stream_chaos(addr: SocketAddr, plan: &SyntheticEvents) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let ticks = plan.ticks();
    let reconnect_at = (ticks / 3).max(1);
    for tick in 0..ticks {
        if tick == reconnect_at {
            // Mid-soak disconnect; the replacement connection replays
            // the previous tick, which the source must reject as
            // duplicates (or stale frames), never re-deliver.
            drop(stream);
            std::thread::sleep(Duration::from_millis(5));
            let Ok(s) = TcpStream::connect(addr) else {
                return;
            };
            stream = s;
            for (seq, e) in plan.events_at(tick - 1).iter().enumerate() {
                let frame = Frame::Event {
                    tick: tick - 1,
                    seq: seq as u32,
                    fault: e.fault,
                };
                if stream.write_all(&frame.encode()).is_err() {
                    return;
                }
            }
        }
        if tick % 7 == 3 {
            // Garbage burst between frames (no magic anywhere).
            let _ = stream.write_all(b"~~ chaos noise: not a frame ~~");
        }
        if tick % 11 == 5 {
            // Malformed frame, rotating through the typed rejections.
            let mut bad = Frame::Event {
                tick,
                seq: u32::MAX,
                fault: StateId::new(0),
            }
            .encode();
            match (tick / 11) % 4 {
                0 => bad[4] = 0x63,                                      // foreign version
                1 => bad[5] = 0x07,                                      // unknown kind
                2 => bad[6..8].copy_from_slice(&u16::MAX.to_le_bytes()), // oversized
                _ => *bad.last_mut().expect("nonempty frame") ^= 0x01,   // checksum
            }
            let _ = stream.write_all(&bad);
        }
        for (seq, e) in plan.events_at(tick).iter().enumerate() {
            let bytes = Frame::Event {
                tick,
                seq: seq as u32,
                fault: e.fault,
            }
            .encode();
            if tick % 13 == 2 && seq == 0 {
                // Partial write: half a header now, the rest after a
                // beat (must reassemble, must not trip the deadline).
                if stream.write_all(&bytes[..10]).is_err() {
                    return;
                }
                let _ = stream.flush();
                std::thread::sleep(Duration::from_millis(2));
                if stream.write_all(&bytes[10..]).is_err() {
                    return;
                }
            } else if stream.write_all(&bytes).is_err() {
                return;
            }
        }
    }
    // Hold the stream open past the source's read deadline before
    // ending it, so the slow-loris companion is provably shed while
    // the daemon is still polling (short smoke runs would otherwise
    // finish before the deadline can fire).
    std::thread::sleep(LORIS_HOLD);
    let _ = stream.write_all(&Frame::End { ticks }.encode());
}

/// How long the loris stalls mid-frame — and how long the chaos
/// client keeps the stream open so the stall is observed. Must exceed
/// [`socket_config`]'s `read_deadline` with slack.
const LORIS_HOLD: Duration = Duration::from_millis(400);

/// A slow-loris companion: sends half a frame, then stalls holding
/// the connection until past the read deadline. The source must shed
/// it (counted) without losing anything from the healthy client.
fn slow_loris(addr: SocketAddr, hold: Duration) {
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let half = Frame::Event {
            tick: 0,
            seq: u32::MAX,
            fault: StateId::new(0),
        }
        .encode();
        let _ = stream.write_all(&half[..10]);
        std::thread::sleep(hold);
    }
}

struct NetParams {
    seed: u64,
    schedule: Schedule,
    ticks: u64,
    kill_round: u64,
    snapshot: String,
    /// Loopback throughput floor, gated only where set (EMN).
    min_events_per_sec: Option<f64>,
}

struct NetOutcome {
    /// The chaos socket leg (the measured one).
    report: ServeReport,
    transport: TransportCounts,
    resumed_transport: TransportCounts,
    canonical_identical: bool,
    resume_identical: bool,
    killed_rounds: u64,
    failures: Vec<String>,
}

fn socket_config() -> SocketConfig {
    SocketConfig {
        // Tight enough that the loris (which stalls for 400 ms) is
        // shed, loose enough that deliberate 2 ms partial-write gaps
        // never are.
        read_deadline: Duration::from_millis(150),
        idle_timeout: Duration::from_secs(3),
        ..SocketConfig::default()
    }
}

fn bound_source(plan: &SyntheticEvents) -> Result<(SocketSource, SocketAddr), String> {
    let source = SocketSource::bind("127.0.0.1:0", socket_config())
        .map_err(|e| format!("socket bind: {e}"))?
        .with_stream_fingerprint(plan.fingerprint());
    let addr = source
        .local_addr()
        .map_err(|e| format!("socket addr: {e}"))?;
    Ok((source, addr))
}

#[allow(clippy::too_many_lines)]
fn net_soak(world: &World, base: &ServeConfig, p: &NetParams) -> Result<NetOutcome, String> {
    let name = world.name();
    let base = world.config(base);
    let plan = SyntheticEvents::new(p.seed, p.schedule.clone(), world.faults.clone(), p.ticks)
        .map_err(|e| format!("{name}: event plan: {e}"))?;
    let mut failures = Vec::new();

    // In-process reference: the same logical stream, no wire.
    let mut daemon = world.daemon(base.clone())?;
    let reference = daemon
        .run(&mut plan.clone())
        .map_err(|e| format!("{name}: net reference run: {e}"))?;
    let reference_canonical = reference.canonical();

    // Leg 1: the full network-fault plan over loopback.
    let (mut source, addr) = bound_source(&plan).map_err(|e| format!("{name}: {e}"))?;
    let client = {
        let plan = plan.clone();
        std::thread::spawn(move || stream_chaos(addr, &plan))
    };
    let loris = std::thread::spawn(move || slow_loris(addr, LORIS_HOLD));
    let mut daemon = world.daemon(base.clone())?;
    let chaos = daemon
        .run(&mut source)
        .map_err(|e| format!("{name}: chaos socket run: {e}"))?;
    client
        .join()
        .map_err(|_| format!("{name}: chaos client panicked"))?;
    loris
        .join()
        .map_err(|_| format!("{name}: loris client panicked"))?;
    let t = chaos
        .transport
        .ok_or_else(|| format!("{name}: socket leg reported no transport counters"))?;

    if chaos.canonical() != reference_canonical {
        failures.push(format!(
            "{name}: network chaos changed the canonical report"
        ));
    }
    if chaos.lost_incidents() != 0 {
        failures.push(format!(
            "{name}: chaos leg lost {} incidents",
            chaos.lost_incidents()
        ));
    }
    if chaos.admitted + chaos.shed.total() + chaos.queued_at_exit != chaos.events_seen {
        failures.push(format!(
            "{name}: chaos leg dropped events without a typed shed reason"
        ));
    }
    if t.frames_seen != t.events_delivered + t.rejected_frames() {
        failures.push(format!(
            "{name}: frame accounting broke: {} seen != {} delivered + {} rejected",
            t.frames_seen,
            t.events_delivered,
            t.rejected_frames()
        ));
    }
    if t.events_delivered != chaos.events_seen {
        failures.push(format!(
            "{name}: daemon saw {} events but the wire delivered {}",
            chaos.events_seen, t.events_delivered
        ));
    }
    if t.rejected_frames() == 0 {
        failures.push(format!(
            "{name}: the fault plan produced no typed rejections (chaos not exercised)"
        ));
    }
    // The shed gate only applies where the daemon keeps up with the
    // wire (the scenario carrying the throughput floor): a throttled
    // daemon stops *reading*, so a stalled client's bytes never reach
    // reassembly state and there is legitimately nothing to shed —
    // backpressure is already holding the line at the TCP socket.
    if p.min_events_per_sec.is_some() && t.slow_client_drops == 0 {
        failures.push(format!("{name}: the slow-loris client was never shed"));
    }
    if t.disconnects == 0 {
        failures.push(format!("{name}: the mid-soak disconnect never registered"));
    }
    if let Some(min) = p.min_events_per_sec {
        let eps = chaos.events_per_sec();
        if eps < min {
            failures.push(format!(
                "{name}: sustained {eps:.0} events/s over loopback < required {min:.0}"
            ));
        }
    }

    // Leg 2: kill mid-soak over the wire (partitioned checkpoint).
    let snapshot_path = format!("{}.net.{name}", p.snapshot);
    remove_checkpoint(&snapshot_path, base.checkpoint_partitions);
    let killed_config = ServeConfig {
        checkpoint: Some(CheckpointPolicy::new(&snapshot_path, 5)),
        kill_after_rounds: Some(p.kill_round),
        ..base.clone()
    };
    let (mut source, addr) = bound_source(&plan).map_err(|e| format!("{name}: {e}"))?;
    let client = {
        let plan = plan.clone();
        std::thread::spawn(move || stream_plan(addr, &plan))
    };
    let mut daemon = world.daemon(killed_config)?;
    let killed = daemon
        .run(&mut source)
        .map_err(|e| format!("{name}: killed socket run: {e}"))?;
    drop(source); // close the listener so the client unblocks
    client
        .join()
        .map_err(|_| format!("{name}: kill-leg client panicked"))?;
    if !killed.killed {
        failures.push(format!(
            "{name}: the kill drill never fired (kill round {} of {} rounds)",
            p.kill_round, killed.rounds
        ));
    }
    if killed.admitted + killed.shed.total() + killed.queued_at_exit != killed.events_seen {
        failures.push(format!(
            "{name}: killed leg dropped events without a typed shed reason"
        ));
    }

    // Leg 3: resume against a client replaying from tick 0 — the
    // consumed prefix must come back as typed stale rejections.
    let resumed_config = ServeConfig {
        checkpoint: Some(CheckpointPolicy::new(&snapshot_path, 5)),
        ..base.clone()
    };
    let (mut source, addr) = bound_source(&plan).map_err(|e| format!("{name}: {e}"))?;
    let client = {
        let plan = plan.clone();
        std::thread::spawn(move || stream_plan(addr, &plan))
    };
    let mut daemon = world.daemon(resumed_config)?;
    let resumed = daemon
        .run(&mut source)
        .map_err(|e| format!("{name}: resumed socket run: {e}"))?;
    client
        .join()
        .map_err(|_| format!("{name}: resume-leg client panicked"))?;
    let rt = resumed
        .transport
        .ok_or_else(|| format!("{name}: resumed leg reported no transport counters"))?;

    let resume_identical = resumed.canonical() == reference_canonical;
    if killed.killed && resumed.resumed_from.is_none() {
        failures.push(format!("{name}: resume over the wire never engaged"));
    }
    if !resume_identical {
        failures.push(format!(
            "{name}: wire kill/resume diverged from the uninterrupted reference"
        ));
    }
    if !resumed.partition_errors.is_empty() {
        failures.push(format!(
            "{name}: resume degraded {} checkpoint partitions on healthy files",
            resumed.partition_errors.len()
        ));
    }
    if resumed.resumed_from.is_some() && rt.rejected_stale == 0 {
        failures.push(format!(
            "{name}: the tick-0 replay produced no stale rejections"
        ));
    }
    if rt.frames_seen != rt.events_delivered + rt.rejected_frames() {
        failures.push(format!(
            "{name}: resume frame accounting broke: {} seen != {} delivered + {} rejected",
            rt.frames_seen,
            rt.events_delivered,
            rt.rejected_frames()
        ));
    }
    if resumed.events_seen != resumed.events_seen_at_start + rt.events_delivered {
        failures.push(format!(
            "{name}: resumed event accounting broke: {} != {} at start + {} delivered",
            resumed.events_seen, resumed.events_seen_at_start, rt.events_delivered
        ));
    }
    if failures.is_empty() {
        remove_checkpoint(&snapshot_path, base.checkpoint_partitions);
    }

    Ok(NetOutcome {
        canonical_identical: chaos.canonical() == reference_canonical,
        resume_identical,
        killed_rounds: killed.rounds,
        report: chaos,
        transport: t,
        resumed_transport: rt,
        failures,
    })
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

fn lint_json(report: &ServeReport) -> String {
    let lint: Vec<String> = report
        .lint_warnings
        .iter()
        .map(|d| format!("\"{}\"", json_escape(&d.to_string())))
        .collect();
    lint.join(", ")
}

fn soak_json(name: &str, outcome: &SoakOutcome) -> String {
    let r = &outcome.report;
    let widths: Vec<String> = outcome.shard_widths.iter().map(usize::to_string).collect();
    let mut out = String::new();
    let _ = write!(
        out,
        concat!(
            "    \"{name}\": {{\n",
            "      \"scenario\": \"{name}\",\n",
            "      \"events_seen\": {events},\n",
            "      \"events_per_sec\": {eps:.1},\n",
            "      \"incidents_per_sec\": {ips:.1},\n",
            "      \"wall_seconds\": {wall:.3},\n",
            "      \"ticks\": {ticks},\n",
            "      \"rounds\": {rounds},\n",
            "      \"admitted\": {admitted},\n",
            "      \"shed\": {{ \"queue_full\": {shed_queue} }},\n",
            "      \"degraded_admissions\": {degraded},\n",
            "      \"recovered\": {recovered},\n",
            "      \"terminated_faulty\": {term_faulty},\n",
            "      \"step_limit\": {step_limit},\n",
            "      \"controller_error\": {ctrl_err},\n",
            "      \"quarantined\": {quarantined},\n",
            "      \"escalated_resilient\": {esc_res},\n",
            "      \"escalated_anytime\": {esc_any},\n",
            "      \"decisions\": {decisions},\n",
            "      \"decision_latency_p50_ms\": {p50:.4},\n",
            "      \"decision_latency_p99_ms\": {p99:.4},\n",
            "      \"deadline_ms\": {deadline:.1},\n",
            "      \"deadline_misses\": {misses},\n",
            "      \"checkpoints_written\": {cps},\n",
            "      \"snapshot_retries\": {retries},\n",
            "      \"killed_after_rounds\": {killed_rounds},\n",
            "      \"resumed_from_tick\": {resumed_from},\n",
            "      \"shard_widths\": [{widths}],\n",
            "      \"shard_identical\": {shard_ok},\n",
            "      \"resume_identical\": {resume_ok},\n",
            "      \"lost_incidents\": {lost},\n",
            "      \"suppressed_lint_warnings\": {suppressed},\n",
            "      \"lint_warnings\": [{lint}]\n",
            "    }}"
        ),
        name = name,
        events = r.events_seen,
        eps = r.events_per_sec(),
        ips = r.incidents_per_sec(),
        wall = r.wall_seconds,
        ticks = r.ticks,
        rounds = r.rounds,
        admitted = r.admitted,
        shed_queue = r.shed.queue_full,
        degraded = r.degraded_admissions,
        recovered = r.count(IncidentStatus::Recovered),
        term_faulty = r.count(IncidentStatus::TerminatedFaulty),
        step_limit = r.count(IncidentStatus::StepLimit),
        ctrl_err = r.count(IncidentStatus::ControllerError),
        quarantined = r.count(IncidentStatus::Quarantined),
        esc_res = r.escalated_resilient,
        esc_any = r.escalated_anytime,
        decisions = r.decisions,
        p50 = r.latency.p50() as f64 / 1e6,
        p99 = r.latency.p99() as f64 / 1e6,
        deadline = r.deadline.as_secs_f64() * 1e3,
        misses = r.deadline_misses,
        cps = outcome.checkpoints_written,
        retries = outcome.snapshot_retries,
        killed_rounds = outcome.killed_rounds,
        resumed_from = outcome
            .resumed_from
            .map_or("null".to_string(), |t| t.to_string()),
        widths = widths.join(", "),
        shard_ok = outcome.shard_identical,
        resume_ok = outcome.resume_identical,
        lost = r.lost_incidents(),
        suppressed = r.suppressed_lint_warnings,
        lint = lint_json(r),
    );
    out
}

fn transport_json(t: &TransportCounts, indent: &str) -> String {
    format!(
        concat!(
            "{{\n",
            "{i}  \"frames_seen\": {frames},\n",
            "{i}  \"events_delivered\": {delivered},\n",
            "{i}  \"end_frames\": {ends},\n",
            "{i}  \"rejected_frames\": {rejected},\n",
            "{i}  \"rejected_garbage\": {garbage},\n",
            "{i}  \"rejected_version\": {version},\n",
            "{i}  \"rejected_kind\": {kind},\n",
            "{i}  \"rejected_oversized\": {oversized},\n",
            "{i}  \"rejected_length\": {length},\n",
            "{i}  \"rejected_checksum\": {checksum},\n",
            "{i}  \"rejected_stale\": {stale},\n",
            "{i}  \"rejected_duplicate\": {duplicate},\n",
            "{i}  \"connections\": {conns},\n",
            "{i}  \"disconnects\": {disc},\n",
            "{i}  \"slow_client_drops\": {slow},\n",
            "{i}  \"bytes_read\": {bytes}\n",
            "{i}}}"
        ),
        i = indent,
        frames = t.frames_seen,
        delivered = t.events_delivered,
        ends = t.end_frames,
        rejected = t.rejected_frames(),
        garbage = t.rejected_garbage,
        version = t.rejected_version,
        kind = t.rejected_kind,
        oversized = t.rejected_oversized,
        length = t.rejected_length,
        checksum = t.rejected_checksum,
        stale = t.rejected_stale,
        duplicate = t.rejected_duplicate,
        conns = t.connections,
        disc = t.disconnects,
        slow = t.slow_client_drops,
        bytes = t.bytes_read,
    )
}

fn net_json(name: &str, outcome: &NetOutcome) -> String {
    let r = &outcome.report;
    let gates: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| format!("\"{}\"", json_escape(f)))
        .collect();
    format!(
        concat!(
            "    \"{name}\": {{\n",
            "      \"scenario\": \"{name}\",\n",
            "      \"ticks\": {ticks},\n",
            "      \"events_seen\": {events},\n",
            "      \"events_per_sec\": {eps:.1},\n",
            "      \"wall_seconds\": {wall:.3},\n",
            "      \"admitted\": {admitted},\n",
            "      \"shed\": {{ \"queue_full\": {shed_queue} }},\n",
            "      \"recovered\": {recovered},\n",
            "      \"quarantined\": {quarantined},\n",
            "      \"lost_incidents\": {lost},\n",
            "      \"canonical_identical\": {canon},\n",
            "      \"resume_identical\": {resume},\n",
            "      \"killed_after_rounds\": {killed_rounds},\n",
            "      \"suppressed_lint_warnings\": {suppressed},\n",
            "      \"lint_warnings\": [{lint}],\n",
            "      \"transport\": {transport},\n",
            "      \"resume_transport\": {resume_transport},\n",
            "      \"gate_failures\": [{gates}]\n",
            "    }}"
        ),
        name = name,
        ticks = r.ticks,
        events = r.events_seen,
        eps = r.events_per_sec(),
        wall = r.wall_seconds,
        admitted = r.admitted,
        shed_queue = r.shed.queue_full,
        recovered = r.count(IncidentStatus::Recovered),
        quarantined = r.count(IncidentStatus::Quarantined),
        lost = r.lost_incidents(),
        canon = outcome.canonical_identical,
        resume = outcome.resume_identical,
        killed_rounds = outcome.killed_rounds,
        suppressed = r.suppressed_lint_warnings,
        lint = lint_json(r),
        transport = transport_json(&outcome.transport, "      "),
        resume_transport = transport_json(&outcome.resumed_transport, "      "),
        gates = gates.join(", "),
    )
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ticks = flag(&args, "--ticks", 240u64);
    let net_ticks = flag(&args, "--net-ticks", 64u64);
    let schedule_name = string_flag(&args, "--schedule", "bursty");
    let rate = flag(&args, "--rate", 250usize);
    let burst = flag(&args, "--burst", 750usize);
    let period = flag(&args, "--period", 10u64);
    let seed = flag(&args, "--seed", 7u64);
    let shards = list_flag(&args, "--shards", &[1, 4]);
    let max_live = flag(&args, "--max-live", 8usize);
    let queue = flag(&args, "--queue", 256usize);
    let steps_per_round = flag(&args, "--steps-per-round", 2usize);
    let max_steps = flag(&args, "--max-steps", 60usize);
    let deadline_ms = flag(&args, "--deadline-ms", 50u64);
    let failures = flag(&args, "--failures", 0.05f64);
    let dropouts = flag(&args, "--dropouts", 0.05f64);
    let corruption = flag(&args, "--corruption", 0.02f64);
    let kill_round = flag(&args, "--kill-round", 40u64);
    let chaos_incident = flag(&args, "--chaos-incident", 2u64);
    let partitions = flag(&args, "--partitions", 4usize);
    let min_events_per_sec = flag(&args, "--min-events-per-sec", 10_000.0f64);
    let snapshot = string_flag(&args, "--snapshot", "serve.snapshot");
    let out_path = string_flag(&args, "--out", "BENCH_serve.json");
    let soak_names = scenario_list(&args, "--scenarios", &["emn", "two-server"]);
    let net_names = scenario_list(
        &args,
        "--net-scenarios",
        &["emn", "web3tier-small", "cellfleet-mid"],
    );

    let schedule = match Schedule::parse(&schedule_name, rate, burst, period) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[serve] {e}");
            std::process::exit(1);
        }
    };
    if shards.is_empty() || shards.contains(&0) {
        eprintln!("[serve] --shards needs a comma list of positive widths");
        std::process::exit(1);
    }

    let plan = PerturbationPlan {
        seed: seed ^ 0x5EED_FA17,
        action_failure_prob: failures,
        monitor_dropout_prob: dropouts,
        obs_corruption_prob: corruption,
        ..PerturbationPlan::none()
    };
    let base = ServeConfig {
        max_live,
        queue_capacity: queue,
        steps_per_round,
        max_steps,
        deadline: Duration::from_millis(deadline_ms),
        plan,
        master_seed: seed,
        checkpoint_partitions: partitions.max(1),
        // The chaos drill poisons one early incident in *every* run
        // (reference, width sweep, kill/resume, socket legs), so
        // quarantine isolation is part of the determinism comparison.
        chaos_panic_incidents: vec![chaos_incident],
        verbose: true,
        ..ServeConfig::default()
    };

    let registry = bpr::scenario::builtin();
    let mut failures_seen: Vec<String> = Vec::new();
    let mut worlds: Vec<World> = Vec::new();
    for name in soak_names.iter().chain(&net_names) {
        if worlds.iter().any(|w| w.name() == name) {
            continue;
        }
        match World::resolve(&registry, name, &base) {
            Ok(w) => worlds.push(w),
            Err(e) => {
                eprintln!("[serve] {e} (available: {})", registry.names().join(", "));
                std::process::exit(2);
            }
        }
    }
    let world = |name: &str| {
        worlds
            .iter()
            .find(|w| w.name() == name)
            .expect("resolved above")
    };

    // --- In-process soaks.
    let mut soak_blocks = Vec::new();
    let mut emn_eps = 0.0f64;
    for name in &soak_names {
        let w = world(name);
        eprintln!(
            "[serve] soaking {name} ({ticks} ticks, {} schedule, shards {shards:?}, \
             kill at round {kill_round})",
            schedule.name(),
        );
        let params = SoakParams {
            seed,
            schedule: schedule.clone(),
            ticks,
            shards: shards.clone(),
            kill_round,
            snapshot: snapshot.clone(),
        };
        match soak_world(w, &base, &params) {
            Ok(outcome) => {
                let r = &outcome.report;
                eprintln!(
                    "[serve] {name}: {} events ({:.0}/s), {} admitted, {} shed, {} quarantined, \
                     p50 {:.3} ms, p99 {:.3} ms, {} deadline misses, {} lint suppressed",
                    r.events_seen,
                    r.events_per_sec(),
                    r.admitted,
                    r.shed.total(),
                    r.count(IncidentStatus::Quarantined),
                    r.latency.p50() as f64 / 1e6,
                    r.latency.p99() as f64 / 1e6,
                    r.deadline_misses,
                    r.suppressed_lint_warnings,
                );
                if !outcome.shard_identical {
                    failures_seen.push(format!("{name}: shard-width divergence"));
                }
                if !outcome.resume_identical {
                    failures_seen.push(format!("{name}: kill/resume divergence"));
                }
                if outcome.resumed_from.is_none() {
                    failures_seen.push(format!("{name}: resume never engaged"));
                }
                if r.count(IncidentStatus::Quarantined) == 0 {
                    failures_seen
                        .push(format!("{name}: chaos drill produced no quarantine record"));
                }
                if name == "emn" {
                    emn_eps = r.events_per_sec();
                    if emn_eps < min_events_per_sec {
                        failures_seen.push(format!(
                            "emn: sustained {emn_eps:.0} events/s < required {min_events_per_sec:.0}"
                        ));
                    }
                }
                soak_blocks.push(soak_json(name, &outcome));
            }
            Err(e) => {
                eprintln!("[serve] GATE FAILURE: {e}");
                failures_seen.push(e);
            }
        }
    }

    // --- Network chaos soaks.
    let mut net_blocks = Vec::new();
    for name in &net_names {
        let w = world(name);
        // EMN carries the loopback throughput floor and runs at full
        // scale; the generated corpus runs a shorter stream (its
        // models are larger, the transport contract is the same).
        let (leg_ticks, floor) = if name == "emn" {
            (ticks, Some(min_events_per_sec))
        } else {
            (net_ticks, None)
        };
        let params = NetParams {
            seed,
            schedule: schedule.clone(),
            ticks: leg_ticks,
            kill_round: kill_round.clamp(1, (leg_ticks / 2).max(1)),
            snapshot: snapshot.clone(),
            min_events_per_sec: floor,
        };
        eprintln!(
            "[serve] network chaos soak on {name} ({leg_ticks} ticks over loopback, \
             kill at round {})",
            params.kill_round
        );
        match net_soak(w, &base, &params) {
            Ok(outcome) => {
                let t = &outcome.transport;
                eprintln!(
                    "[serve] {name}: wire {} frames ({} delivered, {} rejected: \
                     {} garbage/{} version/{} kind/{} oversized/{} checksum/{} stale/{} dup), \
                     {} conns, {} disconnects, {} slow drops, {:.0} events/s",
                    t.frames_seen,
                    t.events_delivered,
                    t.rejected_frames(),
                    t.rejected_garbage,
                    t.rejected_version,
                    t.rejected_kind,
                    t.rejected_oversized,
                    t.rejected_checksum,
                    outcome.resumed_transport.rejected_stale,
                    t.rejected_duplicate,
                    t.connections,
                    t.disconnects,
                    t.slow_client_drops,
                    outcome.report.events_per_sec(),
                );
                for f in &outcome.failures {
                    eprintln!("[serve] GATE FAILURE: {f}");
                }
                failures_seen.extend(outcome.failures.iter().cloned());
                net_blocks.push(net_json(name, &outcome));
            }
            Err(e) => {
                eprintln!("[serve] GATE FAILURE: {e}");
                failures_seen.push(e);
            }
        }
    }

    let passed = failures_seen.is_empty();
    let gate_list: Vec<String> = failures_seen
        .iter()
        .map(|f| format!("\"{}\"", json_escape(f)))
        .collect();
    let scenario_list_json: Vec<String> = soak_names
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    let net_list_json: Vec<String> = net_names
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve\",\n",
            "  \"config\": {{\n",
            "    \"scenarios\": [{scenarios}],\n",
            "    \"net_scenarios\": [{net_scenarios}],\n",
            "    \"ticks\": {ticks},\n",
            "    \"net_ticks\": {net_ticks},\n",
            "    \"schedule\": \"{schedule}\",\n",
            "    \"rate\": {rate},\n",
            "    \"burst\": {burst},\n",
            "    \"period\": {period},\n",
            "    \"seed\": {seed},\n",
            "    \"max_live\": {max_live},\n",
            "    \"queue_capacity\": {queue},\n",
            "    \"steps_per_round\": {spr},\n",
            "    \"max_steps\": {max_steps},\n",
            "    \"kill_round\": {kill_round},\n",
            "    \"chaos_incident\": {chaos},\n",
            "    \"checkpoint_partitions\": {partitions},\n",
            "    \"min_events_per_sec\": {min_eps:.0}\n",
            "  }},\n",
            "  \"soaks\": {{\n{soaks}\n  }},\n",
            "  \"net_soaks\": {{\n{nets}\n  }},\n",
            "  \"emn_events_per_sec\": {emn_eps:.1},\n",
            "  \"gate_failures\": [{gates}],\n",
            "  \"passed\": {passed}\n",
            "}}\n"
        ),
        scenarios = scenario_list_json.join(", "),
        net_scenarios = net_list_json.join(", "),
        ticks = ticks,
        net_ticks = net_ticks,
        schedule = schedule.name(),
        rate = rate,
        burst = burst,
        period = period,
        seed = seed,
        max_live = max_live,
        queue = queue,
        spr = steps_per_round,
        max_steps = max_steps,
        kill_round = kill_round,
        chaos = chaos_incident,
        partitions = partitions.max(1),
        min_eps = min_events_per_sec,
        soaks = soak_blocks.join(",\n"),
        nets = net_blocks.join(",\n"),
        emn_eps = emn_eps,
        gates = gate_list.join(", "),
        passed = passed,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("[serve] could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[serve] wrote {out_path}");
    if !passed {
        eprintln!("[serve] FAILED: {}", failures_seen.join("; "));
        std::process::exit(1);
    }
    eprintln!("[serve] all gates passed");
}
