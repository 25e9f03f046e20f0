//! Scaled-down instances of every workload, run twice under a seed the
//! headline runs do not use: the work must repeat exactly, and the
//! traced run must reproduce it through the bench's wrappers.

use bpr_perfbench::{improve, serve};

const SEED: u64 = 9_001;

fn small_emn() -> serve::ServeSpec {
    serve::ServeSpec {
        ticks: 4,
        ..serve::emn_serve()
    }
}

fn small_fleet() -> serve::ServeSpec {
    serve::ServeSpec {
        ticks: 21,
        ..serve::fleet_burst()
    }
}

fn small_improve() -> improve::ImproveSpec {
    improve::ImproveSpec {
        runs: 3,
        ..improve::emn_improve()
    }
}

fn serve_twice(spec: &serve::ServeSpec) {
    let (setup, _) = serve::setup(spec, SEED).unwrap();
    let a = serve::run_rep(&setup, &serve::unit(&setup, 0), 0).unwrap();
    let b = serve::run_rep(&setup, &serve::unit(&setup, 0), 1).unwrap();
    assert_eq!(a.report.canonical(), b.report.canonical());
    // A fresh set-up from the same seed does the same work too.
    let (again, _) = serve::setup(spec, SEED).unwrap();
    let c = serve::run_rep(&again, &serve::unit(&again, 0), 2).unwrap();
    assert_eq!(a.report.canonical(), c.report.canonical());
    // Another unit is other work.
    let d = serve::run_rep(&again, &serve::unit(&again, 1), 3).unwrap();
    assert_ne!(a.report.canonical(), d.report.canonical());
}

#[test]
fn emn_serve_repeats_exactly() {
    serve_twice(&small_emn());
}

#[test]
fn fleet_burst_repeats_exactly() {
    serve_twice(&small_fleet());
}

#[test]
fn emn_improve_repeats_exactly() {
    let spec = small_improve();
    let (setup, _) = improve::setup().unwrap();
    for run in 0..spec.runs as u64 {
        let (a, _, _, wa) = improve::run(&setup, SEED, run).unwrap();
        let (b, _, _, wb) = improve::run(&setup, SEED, run).unwrap();
        assert_eq!(wa, wb);
        assert!(wa.reached);
        let bits = |v: &bpr_pomdp::bounds::VectorSetBound| {
            v.iter()
                .flat_map(|x| x.iter().map(|f| f.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
    }
}

#[test]
fn traced_serve_reproduces_the_daemon() {
    for spec in [small_emn(), small_fleet()] {
        let out = serve::traced(&spec, SEED).unwrap();
        let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(
            get("trace.coverage") > 0.95,
            "{}: coverage {}",
            spec.name,
            get("trace.coverage")
        );
        assert!(get("ladder.decisions_bounded") > 0.0);
        assert!(get("bounds.leaf_evals_per_decision") > 0.0);
    }
}

#[test]
fn traced_improve_reproduces_the_library_bootstrap() {
    let out = improve::traced(&small_improve(), SEED).unwrap();
    let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
    assert!(get("backup.count") > 0.0);
    assert!(get("trace.coverage") > 0.95);
    // No serve ladder runs here; `trace.decisions` counts expansions.
    assert_eq!(get("ladder.decisions_bounded"), 0.0);
    assert!(get("trace.decisions") > 0.0);
}
