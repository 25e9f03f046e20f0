//! Criterion benchmarks of the computational kernels: RA-Bound solve
//! (paper §4.3's off-line cost), belief updates, incremental backups
//! (on the RA-Bound, on a grown EMN bound and on the 10³-state
//! `cellfleet-mid`), the QMDP/FIB upper bounds, and whole-decision tree
//! expansion (legacy vs fused kernel) at depths 2–3, plus the fused
//! kernel at depth 2 on a grown, multi-plane EMN leaf set.

use bpr_bench::experiments::emn_model;
use bpr_core::scenario::Scenario;
use bpr_core::TerminatedModel;
use bpr_emn::actions::EmnAction;
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::value_iteration::Discount;
use bpr_pomdp::backup::incremental_backup;
use bpr_pomdp::bounds::{qmdp_bound, ra_bound, VectorSetBound};
use bpr_pomdp::{tree, Belief, PlanWorkspace};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn transformed() -> TerminatedModel {
    emn_model()
        .expect("model builds")
        .without_notification(21_600.0)
        .expect("transform succeeds")
}

fn bench_ra_bound(c: &mut Criterion) {
    let t = transformed();
    c.bench_function("ra_bound_solve_emn", |b| {
        b.iter(|| ra_bound(black_box(t.pomdp()), &SolveOpts::default()).expect("bound exists"))
    });
    c.bench_function("ra_bound_solve_emn_sor_1_5", |b| {
        let opts = SolveOpts {
            omega: 1.5,
            ..SolveOpts::default()
        };
        b.iter(|| ra_bound(black_box(t.pomdp()), &opts).expect("bound exists"))
    });
}

fn bench_belief_ops(c: &mut Criterion) {
    let t = transformed();
    let pomdp = t.pomdp();
    let belief = Belief::uniform(pomdp.n_states());
    let action = EmnAction::Observe.action_id();
    c.bench_function("belief_successors_emn", |b| {
        b.iter(|| black_box(&belief).successors(pomdp, action, 1e-6))
    });
    c.bench_function("belief_update_emn", |b| {
        b.iter(|| {
            black_box(&belief)
                .update(pomdp, action, 0.into())
                .expect("all-clear is possible")
        })
    });
}

/// The RA-Bound of `t` grown by backups at the uniform fault belief,
/// the fault vertices and even mixtures of neighbouring faults, in
/// turn, until it holds `target` hyperplanes.
fn grown_bound(t: &TerminatedModel, target: usize) -> VectorSetBound {
    let pomdp = t.pomdp();
    let n = pomdp.n_states();
    let faults = t.fault_states();
    let points: Vec<Belief> = std::iter::once(Belief::uniform_over(n, &faults))
        .chain(faults.iter().map(|&f| Belief::point(n, f)))
        .chain(faults.windows(2).map(|pair| Belief::uniform_over(n, pair)))
        .collect();
    let mut bound = ra_bound(pomdp, &SolveOpts::default()).expect("bound exists");
    for point in points.iter().cycle().take(20 * target) {
        if bound.len() >= target {
            break;
        }
        incremental_backup(pomdp, &mut bound, point, 1.0).expect("backup succeeds");
    }
    assert!(
        bound.len() >= target,
        "bound stopped growing at {}",
        bound.len()
    );
    bound
}

/// Times one backup of a fresh clone of `bound` at the uniform fault
/// belief.
fn bench_backup_of(c: &mut Criterion, name: &str, t: &TerminatedModel, bound: &VectorSetBound) {
    let belief = Belief::uniform_over(t.pomdp().n_states(), &t.fault_states());
    c.bench_function(name, |b| {
        b.iter_batched(
            || bound.clone(),
            |mut bound| {
                incremental_backup(t.pomdp(), &mut bound, &belief, 1.0).expect("backup succeeds")
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_backup(c: &mut Criterion) {
    let t = transformed();
    let belief = Belief::uniform(t.pomdp().n_states());
    c.bench_function("incremental_backup_emn", |b| {
        b.iter_batched(
            || ra_bound(t.pomdp(), &SolveOpts::default()).expect("bound exists"),
            |mut bound| {
                incremental_backup(t.pomdp(), &mut bound, &belief, 1.0).expect("backup succeeds")
            },
            criterion::BatchSize::SmallInput,
        )
    });
    // The emn-improve regime: a bootstrapped bound of ~25 hyperplanes,
    // dense observation rows (about 1 600 non-zeros per action).
    bench_backup_of(c, "incremental_backup_emn_v25", &t, &grown_bound(&t, 25));
    // The 10³-state fleet: sparse first-alarm observation rows.
    let sc = bpr_topo::corpus::cellfleet_mid();
    let fleet = sc
        .build()
        .expect("cellfleet-mid builds")
        .without_notification(sc.operator_response_time())
        .expect("transform succeeds");
    bench_backup_of(
        c,
        "incremental_backup_cellfleet_mid_v8",
        &fleet,
        &grown_bound(&fleet, 8),
    );
}

fn bench_upper_bounds(c: &mut Criterion) {
    let t = transformed();
    c.bench_function("qmdp_bound_emn", |b| {
        b.iter(|| qmdp_bound(black_box(t.pomdp()), Discount::Undiscounted).expect("qmdp exists"))
    });
}

fn bench_tree_expansion(c: &mut Criterion) {
    // Whole-decision cost at the depths the paper's controllers use.
    // Depth 3 runs at a coarser cutoff to keep the benchmark short; the
    // legacy/fused comparison stays apples-to-apples at each depth.
    let t = transformed();
    let pomdp = t.pomdp();
    let bound = ra_bound(pomdp, &SolveOpts::default()).expect("bound exists");
    let belief = Belief::uniform(pomdp.n_states());
    for (depth, cutoff) in [(2usize, 1e-3f64), (3, 1e-2)] {
        c.bench_function(&format!("tree_expand_legacy_emn_d{depth}"), |b| {
            b.iter(|| {
                tree::legacy::expand_with_cutoff(
                    pomdp,
                    black_box(&belief),
                    depth,
                    &bound,
                    1.0,
                    cutoff,
                )
                .expect("legacy expansion succeeds")
            })
        });
        c.bench_function(&format!("tree_expand_fused_emn_d{depth}"), |b| {
            let mut ws = PlanWorkspace::new();
            b.iter(|| {
                tree::expand_with_workspace(
                    pomdp,
                    black_box(&belief),
                    depth,
                    &bound,
                    1.0,
                    cutoff,
                    &mut ws,
                )
                .expect("fused expansion succeeds")
            })
        });
    }
    // The single-plane RA-Bound above is its own envelope, so frontier
    // nodes bound their actions exactly there; the daemon's leaf set
    // has many planes. The same decision on the RA-Bound grown to 25.
    let grown = grown_bound(&t, 25);
    c.bench_function("tree_expand_fused_emn_d2_grown", |b| {
        let mut ws = PlanWorkspace::new();
        b.iter(|| {
            tree::expand_with_workspace(pomdp, black_box(&belief), 2, &grown, 1.0, 1e-3, &mut ws)
                .expect("fused expansion succeeds")
        })
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_ra_bound, bench_belief_ops, bench_backup, bench_upper_bounds,
        bench_tree_expansion
}
criterion_main!(kernels);
