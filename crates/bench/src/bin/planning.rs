//! Planning-throughput benchmark for the lumped + fused tree-expansion
//! kernel: measures decisions/sec and nodes/sec on any registry
//! scenario (default: the paper's EMN model) for the retained legacy
//! path and the fused workspace path on the lumped quotient (cold:
//! every decision opens with an empty cache and runs the kernel), both
//! in the same run, so the reported speedup compares like with like.
//!
//! Three properties gate the run (exit nonzero on violation):
//!
//! 1. the fused decision on the lumped quotient is **value-identical**
//!    to the legacy decision on the full model — bit-identical when the
//!    lumping is the identity, within 1e-9 otherwise (same action, same
//!    node count, matching root and per-action values);
//! 2. steady-state fused decisions perform **zero heap allocations**
//!    (counted by a tallying global allocator in this binary only);
//! 3. the cold speedup over legacy is at least `--min-speedup`. The
//!    legacy and cold paths are timed in interleaved passes (five, or
//!    one per decision if there are fewer), and each side's rate is its
//!    best pass, so host drift between the two sides cannot move the
//!    ratio much.
//!
//! Gate 1 runs at the uniform belief and again at the null point
//! belief, where many actions leave the belief where `observe` does,
//! so the root shares afterstates; the run fails if the root does not
//! share there. Timings and the JSON's `cache`
//! block are measured at the uniform belief only.
//!
//! Results land in `BENCH_planning_<scenario>.json`; its `cache` block
//! counts the cold decisions' transposition-cache hits and misses and
//! their afterstate hits (actions that replayed an earlier action's
//! branches at the same node), each also by remaining depth, and their
//! frontier skips (actions of nodes one layer above the leaves that
//! the leaf bound's envelope showed cannot win, so were not expanded).
//!
//! Usage:
//! `cargo run -p bpr-bench --bin planning --release -- \
//!     [--scenario emn] [--decisions 40] [--depth 2] [--cutoff 1e-3] \
//!     [--min-speedup 0.0] [--out PATH.json]`

// The one sanctioned `unsafe` user in the workspace: implementing
// `GlobalAlloc` is inherently unsafe, and the zero-allocation gate
// needs a counting allocator. Everything else inherits
// `unsafe_code = "deny"` from the workspace lint table.
#![allow(unsafe_code)]

use bpr_bench::{flag, scenario_flag};
use bpr_mdp::chain::SolveOpts;
use bpr_pomdp::bounds::ra_bound;
use bpr_pomdp::tree::Decision;
use bpr_pomdp::{tree, Belief, PlanWorkspace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A pass-through allocator that counts allocation events. Lives in
/// this binary only — the libraries stay `forbid(unsafe_code)`; the
/// planner's zero-allocation claim is verified here from the outside.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct PathResult {
    wall_seconds: f64,
    decisions_per_sec: f64,
    nodes_per_sec: f64,
    nodes_per_decision: f64,
}

/// How many interleaved passes the legacy and cold paths are timed in
/// (fewer if there are fewer decisions).
const TIMING_PASSES: usize = 5;

fn rates(decisions: usize, nodes: usize, wall: f64) -> PathResult {
    PathResult {
        wall_seconds: wall,
        decisions_per_sec: decisions as f64 / wall,
        nodes_per_sec: nodes as f64 / wall,
        nodes_per_decision: nodes as f64 / decisions as f64,
    }
}

/// Keeps the faster of `best` and `pass`.
fn keep_best(best: &mut Option<PathResult>, pass: PathResult) {
    if best
        .as_ref()
        .is_none_or(|b| pass.decisions_per_sec > b.decisions_per_sec)
    {
        *best = Some(pass);
    }
}

fn write_path(out: &mut String, name: &str, r: &PathResult) {
    let _ = write!(
        out,
        "\"{}\": {{\"wall_seconds\": {:.6}, \"decisions_per_sec\": {:.3}, \
         \"nodes_per_sec\": {:.1}, \"nodes_per_decision\": {:.1}}}",
        name, r.wall_seconds, r.decisions_per_sec, r.nodes_per_sec, r.nodes_per_decision
    );
}

fn write_u64s(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// The value-identity gate between the legacy decision on the full
/// model and the fused decision on the lumped quotient: bit-identical
/// when the lump is the identity, 1e-9-close otherwise (actions and
/// node counts must always match exactly — lumping preserves both).
fn check_value_identity(legacy: &Decision, fused: &Decision, identity: bool) {
    if identity {
        if fused != legacy {
            eprintln!(
                "DIVERGENCE: fused decision differs from legacy under identity lump\n  \
                 legacy: {legacy:?}\n  fused:  {fused:?}"
            );
            std::process::exit(1);
        }
        return;
    }
    let tol = 1e-9;
    let values_match = (fused.value - legacy.value).abs() <= tol
        && fused.q_values.len() == legacy.q_values.len()
        && fused
            .q_values
            .iter()
            .zip(&legacy.q_values)
            .all(|(a, b)| (a - b).abs() <= tol);
    if fused.action != legacy.action
        || fused.nodes_expanded != legacy.nodes_expanded
        || !values_match
    {
        eprintln!(
            "DIVERGENCE: lumped fused decision is not value-identical to legacy\n  \
             legacy: {legacy:?}\n  fused:  {fused:?}"
        );
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let decisions = flag(&args, "--decisions", 40usize).max(1);
    let depth = flag(&args, "--depth", 2usize).max(1);
    let cutoff = flag(&args, "--cutoff", 1e-3f64);
    let min_speedup = flag(&args, "--min-speedup", 0.0f64);

    let registry = bpr::scenario::builtin();
    let scenario = scenario_flag(&registry, &args, "emn");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("BENCH_planning_{}.json", scenario.name()));
    let model = scenario
        .build()
        .expect("scenario model builds")
        .without_notification(scenario.operator_response_time())
        .expect("transform succeeds");
    let pomdp = model.pomdp();
    let bound = ra_bound(pomdp, &SolveOpts::default()).expect("RA-Bound exists");
    let belief = Belief::uniform(pomdp.n_states());
    println!(
        "planning benchmark: {} ({} states, {} actions, {} observations), \
         depth {depth}, cutoff {cutoff:e}, {decisions} decisions per path",
        scenario.name(),
        pomdp.n_states(),
        pomdp.n_actions(),
        pomdp.n_observations()
    );

    // --- Lump the transformed model; the fused paths plan on the
    // quotient and the certificate projects the benchmark belief.
    let lump_start = Instant::now();
    let (qmodel, certificate) = model.lump().expect("lumping succeeds");
    let lump_seconds = lump_start.elapsed().as_secs_f64();
    let qpomdp = qmodel.pomdp();
    let qbound = ra_bound(qpomdp, &SolveOpts::default()).expect("quotient RA-Bound exists");
    let qbelief = certificate.project(&belief);
    let identity = certificate.is_identity();
    println!(
        "  lump:   {} -> {} states ({} merged classes) in {:.3}ms{}",
        certificate.n_full(),
        certificate.n_quotient(),
        certificate.n_full() - certificate.n_quotient(),
        lump_seconds * 1e3,
        if identity { " [identity]" } else { "" }
    );

    // --- Legacy path (per-node successor rebuild, fresh allocations)
    // on the full model, the before side of every speedup, against the
    // fused workspace path on the quotient (cold: each decision opens
    // with an empty cache), which isolates the lump + SIMD kernel
    // speedup.
    // The two sides run in interleaved passes and each reports its best
    // pass, so host drift between them does not move the ratio.
    let legacy_ref = tree::legacy::expand_with_cutoff(pomdp, &belief, depth, &bound, 1.0, cutoff)
        .expect("legacy expansion succeeds");
    let mut ws = PlanWorkspace::new();
    for _ in 0..2 {
        // Warm-up: populate the scratch arena, frames, and cache tables.
        tree::expand_with_workspace(qpomdp, &qbelief, depth, &qbound, 1.0, cutoff, &mut ws)
            .expect("fused expansion succeeds");
    }
    check_value_identity(&legacy_ref, ws.decision(), identity);
    ws.reset_stats();
    let passes = TIMING_PASSES.min(decisions);
    let mut legacy: Option<PathResult> = None;
    let mut fused_cold: Option<PathResult> = None;
    let mut cold_allocs = 0u64;
    for pass in 0..passes {
        let count = decisions * (pass + 1) / passes - decisions * pass / passes;
        let start = Instant::now();
        let mut nodes = 0usize;
        for _ in 0..count {
            let d = tree::legacy::expand_with_cutoff(pomdp, &belief, depth, &bound, 1.0, cutoff)
                .expect("legacy expansion succeeds");
            nodes += d.nodes_expanded;
        }
        keep_best(
            &mut legacy,
            rates(count, nodes, start.elapsed().as_secs_f64()),
        );
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        let mut nodes = 0usize;
        for _ in 0..count {
            tree::expand_with_workspace(qpomdp, &qbelief, depth, &qbound, 1.0, cutoff, &mut ws)
                .expect("fused expansion succeeds");
            nodes += ws.decision().nodes_expanded;
        }
        let wall = start.elapsed().as_secs_f64();
        cold_allocs += ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        keep_best(&mut fused_cold, rates(count, nodes, wall));
    }
    let legacy = legacy.expect("at least one pass");
    let fused_cold = fused_cold.expect("at least one pass");
    println!(
        "  legacy: {:.1} decisions/sec, {:.0} nodes/sec (best of {passes} passes)",
        legacy.decisions_per_sec, legacy.nodes_per_sec
    );
    println!(
        "  fused (cold):  {:.1} decisions/sec, {:.0} nodes/sec (best of {passes} passes), \
         {} allocations over {} decisions",
        fused_cold.decisions_per_sec, fused_cold.nodes_per_sec, cold_allocs, decisions
    );

    let stats = ws.stats().clone();
    println!(
        "  cold cache: {}/{} hits/misses, {} afterstate hits, {} frontier actions skipped",
        stats.cache_hits, stats.cache_misses, stats.afterstate_hits, stats.frontier_skipped
    );

    // --- Gate 1 at the null point, where the root shares.
    let shared = Belief::point(pomdp.n_states(), model.null_states()[0]);
    let qshared = certificate.project(&shared);
    let legacy_shared =
        tree::legacy::expand_with_cutoff(pomdp, &shared, depth, &bound, 1.0, cutoff)
            .expect("legacy expansion succeeds");
    ws.reset_stats();
    tree::expand_with_workspace(qpomdp, &qshared, depth, &qbound, 1.0, cutoff, &mut ws)
        .expect("fused expansion succeeds");
    check_value_identity(&legacy_shared, ws.decision(), identity);
    let root_sharers = ws.stats().afterstate_hits_by_depth.get(depth).copied();
    let Some(root_sharers @ 1..) = root_sharers else {
        eprintln!("SHARING GATE: the root shares no afterstate at the null point");
        std::process::exit(1);
    };
    println!("  null point: {root_sharers} root afterstate hits, identical to legacy");

    if cold_allocs != 0 {
        eprintln!(
            "ALLOCATION GATE: {cold_allocs} heap allocations in {decisions} steady-state \
             fused decisions (expected 0)"
        );
        std::process::exit(1);
    }

    let cold_speedup = fused_cold.decisions_per_sec / legacy.decisions_per_sec;
    println!("  speedup over legacy: {cold_speedup:.2}x cold (the kernel)");
    if cold_speedup < min_speedup {
        eprintln!("SPEEDUP GATE: cold {cold_speedup:.2}x < required {min_speedup:.2}x");
        std::process::exit(1);
    }

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"model\": \"{}\", \"depth\": {depth}, \"gamma_cutoff\": {cutoff:e}, \
         \"decisions\": {decisions}, \"timing_passes\": {passes},\n  \
         \"lump\": {{\"full_states\": {}, \"quotient_states\": {}, \"merged_classes\": {}, \
         \"identity\": {identity}, \"lump_seconds\": {lump_seconds:.6}}},\n  ",
        scenario.name(),
        certificate.n_full(),
        certificate.n_quotient(),
        certificate.n_full() - certificate.n_quotient(),
    );
    write_path(&mut json, "legacy", &legacy);
    json.push_str(",\n  ");
    write_path(&mut json, "fused_cold", &fused_cold);
    let _ = write!(
        json,
        ",\n  \"allocations_per_decision\": {:.3},\n  \
         \"cache\": {{\"hits\": {}, \"misses\": {},\n    \
         \"hits_by_depth\": ",
        cold_allocs as f64 / decisions as f64,
        stats.cache_hits,
        stats.cache_misses,
    );
    write_u64s(&mut json, &stats.cache_hits_by_depth);
    json.push_str(", \"misses_by_depth\": ");
    write_u64s(&mut json, &stats.cache_misses_by_depth);
    let _ = write!(
        json,
        ",\n    \"afterstate_hits\": {}, \"afterstate_hits_by_depth\": ",
        stats.afterstate_hits
    );
    write_u64s(&mut json, &stats.afterstate_hits_by_depth);
    let _ = write!(
        json,
        ",\n    \"frontier_skipped\": {}}},\n  \
         \"speedup_cold_over_legacy\": {cold_speedup:.3}\n}}\n",
        stats.frontier_skipped
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
