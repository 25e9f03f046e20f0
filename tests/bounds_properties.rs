//! Cross-crate bound-property tests on the EMN model: the ordering
//! RA ≤ V* ≤ FIB ≤ QMDP ≤ 0, Property 1(b) (`V_B ≤ L_p V_B`), and the
//! semantics of the recovery transforms.

use bpr_core::conditions;
use bpr_emn::faults::EmnState;
use bpr_emn::EmnConfig;
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::value_iteration::Discount;
use bpr_mdp::StateId;
use bpr_pomdp::backup::incremental_backup;
use bpr_pomdp::bounds::{fib_bound, qmdp_bound, ra_bound, ValueBound};
use bpr_pomdp::{tree, Belief};

fn probe_beliefs(n: usize) -> Vec<Belief> {
    let mut beliefs = vec![Belief::uniform(n)];
    for s in 0..n.min(6) {
        beliefs.push(Belief::point(n, StateId::new(s)));
    }
    beliefs.push(Belief::uniform_over(
        n,
        &(1..n.min(8)).map(StateId::new).collect::<Vec<_>>(),
    ));
    beliefs
}

#[test]
fn bound_sandwich_on_the_emn_model() {
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config).expect("model builds");
    let t = model
        .without_notification(config.operator_response_time)
        .expect("transform");
    let pomdp = t.pomdp();
    let ra = ra_bound(pomdp, &SolveOpts::default()).expect("RA exists");
    let qmdp = qmdp_bound(pomdp, Discount::Undiscounted).expect("QMDP exists");
    let fib = fib_bound(pomdp, Discount::Undiscounted, &Default::default()).expect("FIB exists");
    for b in probe_beliefs(pomdp.n_states()) {
        let lo = ra.value(&b);
        let f = fib.value(&b);
        let hi = qmdp.value(&b);
        assert!(lo <= f + 1e-6, "RA {lo} above FIB {f} at {b:?}");
        assert!(f <= hi + 1e-6, "FIB {f} above QMDP {hi} at {b:?}");
        assert!(hi <= 1e-9, "QMDP above the trivial 0 bound");
    }
}

#[test]
fn property_1b_ra_bound_is_below_its_own_backup() {
    // Property 1(b) of §4.2: V_B(π) <= (L_p V_B)(π) when B = {RA}.
    // A depth-1 expansion with the bound at the leaves computes
    // exactly (L_p V_B)(π).
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config).expect("model builds");
    let t = model
        .without_notification(config.operator_response_time)
        .expect("transform");
    let pomdp = t.pomdp();
    let ra = ra_bound(pomdp, &SolveOpts::default()).expect("RA exists");
    for b in probe_beliefs(pomdp.n_states()) {
        let v = ra.value(&b);
        let lp = tree::expand_with_cutoff(pomdp, &b, 1, &ra, 1.0, 0.0)
            .expect("expand")
            .value;
        assert!(v <= lp + 1e-7, "V_B({b:?}) = {v} exceeds L_p V_B = {lp}");
    }
}

#[test]
fn backups_preserve_property_1b() {
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config).expect("model builds");
    let t = model
        .without_notification(config.operator_response_time)
        .expect("transform");
    let pomdp = t.pomdp();
    let mut set = ra_bound(pomdp, &SolveOpts::default()).expect("RA exists");
    let beliefs = probe_beliefs(pomdp.n_states());
    for b in &beliefs {
        incremental_backup(pomdp, &mut set, b, 1.0).expect("backup");
    }
    for b in &beliefs {
        let v = set.value(b);
        let lp = tree::expand_with_cutoff(pomdp, b, 1, &set, 1.0, 0.0)
            .expect("expand")
            .value;
        assert!(v <= lp + 1e-7, "property 1(b) broken after backups");
    }
}

#[test]
fn backups_never_exceed_the_qmdp_upper_bound() {
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config).expect("model builds");
    let t = model
        .without_notification(config.operator_response_time)
        .expect("transform");
    let pomdp = t.pomdp();
    let upper = qmdp_bound(pomdp, Discount::Undiscounted).expect("QMDP exists");
    let mut set = ra_bound(pomdp, &SolveOpts::default()).expect("RA exists");
    let beliefs = probe_beliefs(pomdp.n_states());
    for _round in 0..5 {
        for b in &beliefs {
            incremental_backup(pomdp, &mut set, b, 1.0).expect("backup");
        }
    }
    for b in &beliefs {
        assert!(
            set.value(b) <= upper.value(b) + 1e-6,
            "lower bound crossed the upper bound at {b:?}"
        );
    }
}

#[test]
fn transforms_preserve_conditions() {
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config).expect("model builds");
    // Base model satisfies both conditions by construction.
    conditions::check_condition1(model.base(), model.null_states()).expect("condition 1");
    conditions::check_condition2(model.base()).expect("condition 2");

    // The with-notification transform keeps them.
    let notified = model.with_notification().expect("transform");
    conditions::check_condition1(&notified, model.null_states()).expect("condition 1 preserved");
    conditions::check_condition2(&notified).expect("condition 2 preserved");

    // The without-notification transform keeps condition 2 and makes
    // s_T reachable from everywhere (a_T), so condition 1 holds with
    // S_phi ∪ {s_T} as targets.
    let t = model
        .without_notification(config.operator_response_time)
        .expect("transform");
    conditions::check_condition2(t.pomdp()).expect("condition 2 preserved");
    let mut targets = t.null_states().to_vec();
    targets.push(t.terminate_state());
    conditions::check_condition1(t.pomdp(), &targets).expect("condition 1 with s_T");
}

#[test]
fn no_free_actions_outside_exempt_states_in_emn() {
    // Property 1(a): every action outside S_phi ∪ {s_T} costs something
    // in the EMN model (every fault drops requests, and even Observe
    // takes 5 s at a non-zero drop rate).
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config).expect("model builds");
    let t = model
        .without_notification(config.operator_response_time)
        .expect("transform");
    let mut exempt = t.null_states().to_vec();
    exempt.push(t.terminate_state());
    conditions::check_no_free_actions(t.pomdp(), &exempt).expect("no free actions");
}

#[test]
fn zombie_beliefs_value_below_crash_beliefs() {
    // Diagnosing a crash is easy (ping monitors); zombies are hard, so
    // the QMDP value (full observability) is identical per fault class
    // cost-wise, but the *lower bound* at a zombie vertex should be no
    // better than at the corresponding crash vertex after refinement —
    // a sanity check that observation quality shows up in the bound
    // machinery (weak form: bounds exist and are finite at all
    // vertices).
    let config = EmnConfig::default();
    let model = bpr_emn::build_model(&config).expect("model builds");
    let t = model
        .without_notification(config.operator_response_time)
        .expect("transform");
    let ra = ra_bound(t.pomdp(), &SolveOpts::default()).expect("RA exists");
    for s in EmnState::all() {
        let v = ra.value(&Belief::point(t.pomdp().n_states(), s.state_id()));
        assert!(v.is_finite(), "RA-Bound infinite at {s}");
        if s == EmnState::Null {
            assert!(v <= 0.0);
        } else {
            assert!(v < 0.0, "fault state {s} has non-negative bound {v}");
        }
    }
}
