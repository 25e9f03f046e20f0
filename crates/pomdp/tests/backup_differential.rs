//! Differential test of the incremental backup (paper Eq. 7) on the
//! registry's scenarios: the library kernel against the dense reference
//! in `reference/mod.rs`, bit for bit, while the RA-Bound of each
//! no-notification model grows to about 50 hyperplanes (8 on the
//! 10³-state cellfleet-mid, where the dense reference is slow), both
//! undiscounted and at β = 0.9 (where the set soon collapses to a few
//! dominating vectors and a run stops at its backup cap instead).

use bpr_core::scenario::Scenario;
use bpr_core::TerminatedModel;
use bpr_pomdp::bounds::ra_bound;
use bpr_pomdp::{Belief, StateId};
use proptest::prelude::*;
use std::sync::OnceLock;

mod reference;

struct Fixture {
    model: TerminatedModel,
    /// Hyperplane count a run grows the bound to.
    target_vectors: usize,
    /// Backup cap per run, in case the set stops growing.
    max_backups: usize,
    /// Probe beliefs, uniform fault belief first, then fault vertices.
    probes: Vec<Belief>,
    faults: Vec<StateId>,
}

fn fixture(scenario: &dyn Scenario, target_vectors: usize, max_backups: usize) -> Fixture {
    let base = scenario.build().expect("scenario builds");
    let model = base
        .without_notification(scenario.operator_response_time())
        .expect("transform succeeds");
    let probes = scenario
        .probe_beliefs(&base)
        .iter()
        .map(|b| model.extend_belief(b).expect("probe extends"))
        .collect();
    let faults = model.fault_states();
    Fixture {
        model,
        target_vectors,
        max_backups,
        probes,
        faults,
    }
}

fn fixtures() -> &'static [(&'static str, Fixture)] {
    static FIXTURES: OnceLock<Vec<(&'static str, Fixture)>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        vec![
            ("emn", fixture(&bpr_emn::EmnScenario::default(), 50, 150)),
            (
                "two-server",
                fixture(&bpr_emn::TwoServerScenario::default(), 50, 150),
            ),
            (
                "web3tier-small",
                fixture(&bpr_topo::corpus::web3tier_small(), 50, 150),
            ),
            (
                "cellfleet-shared-rack",
                fixture(&bpr_topo::corpus::cellfleet_shared_rack(), 50, 150),
            ),
            (
                "cellfleet-mid",
                fixture(&bpr_topo::corpus::cellfleet_mid(), 8, 16),
            ),
        ]
    })
}

/// Backup point `k` of a run: cycles through the uniform fault belief
/// and the fault vertices (point beliefs reach few observations), and
/// mixtures over a few random faults drawn from `picks`.
fn belief_at(f: &Fixture, k: usize, picks: &[(usize, f64)]) -> Belief {
    let n = f.model.pomdp().n_states();
    match k % 3 {
        0 => f.probes[(k / 3) % f.probes.len()].clone(),
        1 => Belief::point(n, f.faults[(k / 3 + picks[0].0) % f.faults.len()]),
        _ => {
            let mut probs = vec![0.0; n];
            let start = (k / 3) % picks.len();
            for &(pick, weight) in picks[start..].iter().chain(&picks[..start]).take(3) {
                probs[f.faults[pick % f.faults.len()].index()] += weight;
            }
            let total: f64 = probs.iter().sum();
            probs.iter_mut().for_each(|p| *p /= total);
            Belief::from_probs(probs).expect("valid belief")
        }
    }
}

fn differential_run(name: &str, f: &Fixture, picks: &[(usize, f64)], beta: f64) {
    let pomdp = f.model.pomdp();
    let mut set = ra_bound(pomdp, &Default::default()).expect("RA exists");
    let (mut k, mut added) = (0, 0);
    while set.len() < f.target_vectors && k < f.max_backups {
        added += usize::from(
            reference::backup_both(pomdp, &mut set, &belief_at(f, k, picks), beta).added,
        );
        k += 1;
    }
    assert!(
        added > 0,
        "{name} at β = {beta}: no backup was accepted ({k} backups)"
    );
    // Discounted backups soon dominate the whole set, so only the
    // undiscounted runs must leave it larger than the RA-Bound.
    assert!(
        beta < 1.0 || set.len() >= 2,
        "{name}: the bound never grew ({k} backups)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn backup_matches_dense_reference_on_registry_scenarios(
        picks in proptest::collection::vec((0usize..1024, 0.05f64..1.0), 6),
    ) {
        for (name, f) in fixtures() {
            for beta in [1.0, 0.9] {
                differential_run(name, f, &picks, beta);
            }
        }
    }
}
