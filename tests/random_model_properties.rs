//! Property-based tests over *randomly generated* recovery models:
//! the paper's guarantees must hold for every model satisfying
//! Conditions 1–2, not just the EMN case study.

use bpr_core::{BoundedConfig, BoundedController, RecoveryController, RecoveryModel, Step};
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::value_iteration::Discount;
use bpr_mdp::{ActionId, MdpBuilder, StateId};
use bpr_pomdp::backup::incremental_backup;
use bpr_pomdp::bounds::{qmdp_bound, ra_bound, ValueBound};
use bpr_pomdp::{tree, Belief, PomdpBuilder};
use bpr_sim::World;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of a random recovery model: `n_faults` fault states (the
/// null state is state 0), one dedicated fixing action per fault plus
/// an observe action, and a noisy per-fault observation channel.
#[derive(Debug, Clone)]
struct RandomModelSpec {
    n_faults: usize,
    accuracy: f64,
    fix_costs: Vec<f64>,
    wrong_cost: f64,
    observe_cost: f64,
}

fn arb_spec() -> impl Strategy<Value = RandomModelSpec> {
    (1usize..=4)
        .prop_flat_map(|n_faults| {
            (
                Just(n_faults),
                0.5f64..0.95,
                proptest::collection::vec(0.2f64..2.0, n_faults),
                0.2f64..2.0,
                0.05f64..1.0,
            )
        })
        .prop_map(
            |(n_faults, accuracy, fix_costs, wrong_cost, observe_cost)| RandomModelSpec {
                n_faults,
                accuracy,
                fix_costs,
                wrong_cost,
                observe_cost,
            },
        )
}

fn build(spec: &RandomModelSpec) -> RecoveryModel {
    let n = spec.n_faults + 1; // state 0 = null
    let na = spec.n_faults + 1; // action i fixes fault i+1; last = observe
    let observe = na - 1;
    let mut mb = MdpBuilder::new(n, na);
    for a in 0..na {
        for s in 0..n {
            if s == 0 {
                // Null state: everything self-loops; recovery actions
                // still cost (no recovery notification), observing is
                // free.
                mb.transition(s, a, 0, 1.0);
                mb.reward(s, a, if a == observe { 0.0 } else { -spec.wrong_cost });
            } else if a + 1 == s {
                mb.transition(s, a, 0, 1.0)
                    .reward(s, a, -spec.fix_costs[s - 1]);
            } else {
                mb.transition(s, a, s, 1.0).reward(
                    s,
                    a,
                    if a == observe {
                        -spec.observe_cost
                    } else {
                        -spec.wrong_cost
                    },
                );
            }
        }
    }
    // Observations: one per fault plus "all clear". Noisy channel with
    // the remaining mass spread over the other signals.
    let no = spec.n_faults + 1;
    let mut pb = PomdpBuilder::new(mb.build().expect("random model builds"), no);
    for s in 0..n {
        let truth = if s == 0 { no - 1 } else { s - 1 }; // obs index for state
        let spread = (1.0 - spec.accuracy) / (no - 1) as f64;
        for o in 0..no {
            let q = if o == truth { spec.accuracy } else { spread };
            pb.observation_all_actions(s, o, q);
        }
    }
    let mut rates = vec![-1.0; n];
    rates[0] = 0.0;
    RecoveryModel::new(
        pb.build().expect("observations build"),
        vec![StateId::new(0)],
        rates,
        vec![ActionId::new(observe)],
    )
    .expect("random model satisfies the recovery conditions")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ra_bound_exists_and_sits_below_qmdp(spec in arb_spec(), top in 1.0f64..50.0) {
        let model = build(&spec);
        let t = model.without_notification(top).expect("transform");
        let ra = ra_bound(t.pomdp(), &SolveOpts::default()).expect("RA-Bound exists");
        let upper = qmdp_bound(t.pomdp(), Discount::Undiscounted).expect("QMDP exists");
        let n = t.pomdp().n_states();
        let mut beliefs = vec![Belief::uniform(n)];
        for s in 0..n {
            beliefs.push(Belief::point(n, StateId::new(s)));
        }
        for b in beliefs {
            let lo = ra.value(&b);
            let hi = upper.value(&b);
            prop_assert!(lo.is_finite());
            prop_assert!(lo <= hi + 1e-7, "RA {lo} above QMDP {hi}");
            prop_assert!(hi <= 1e-9);
        }
    }

    #[test]
    fn backups_improve_monotonically_and_stay_valid(spec in arb_spec(), top in 1.0f64..50.0) {
        let model = build(&spec);
        let t = model.without_notification(top).expect("transform");
        let pomdp = t.pomdp();
        let mut set = ra_bound(pomdp, &SolveOpts::default()).expect("RA-Bound exists");
        let upper = qmdp_bound(pomdp, Discount::Undiscounted).expect("QMDP exists");
        let b = Belief::uniform(pomdp.n_states());
        let mut prev = set.value(&b);
        for _ in 0..8 {
            let out = incremental_backup(pomdp, &mut set, &b, 1.0).expect("backup");
            prop_assert!(out.value_after + 1e-9 >= prev, "bound regressed");
            prev = out.value_after;
        }
        prop_assert!(prev <= upper.value(&b) + 1e-7, "bound crossed QMDP");
    }

    #[test]
    fn property_1b_holds_for_the_ra_bound(spec in arb_spec(), top in 1.0f64..50.0) {
        let model = build(&spec);
        let t = model.without_notification(top).expect("transform");
        let pomdp = t.pomdp();
        let ra = ra_bound(pomdp, &SolveOpts::default()).expect("RA-Bound exists");
        let n = pomdp.n_states();
        for s in 0..n {
            let b = Belief::point(n, StateId::new(s));
            let v = ra.value(&b);
            let lp = tree::expand_with_cutoff(pomdp, &b, 1, &ra, 1.0, 0.0).expect("expand").value;
            prop_assert!(v <= lp + 1e-7, "V_B > L_p V_B at vertex {s}");
        }
        let b = Belief::uniform(n);
        let v = ra.value(&b);
        let lp = tree::expand_with_cutoff(pomdp, &b, 1, &ra, 1.0, 0.0).expect("expand").value;
        prop_assert!(v <= lp + 1e-7);
    }

    #[test]
    fn bounded_controller_terminates_on_random_models(
        spec in arb_spec(),
        top in 2.0f64..100.0,
        seed in 0u64..1000,
        fault_pick in 0usize..4,
    ) {
        let model = build(&spec);
        let t = model.without_notification(top).expect("transform");
        let mut controller =
            BoundedController::new(t, BoundedConfig::default()).expect("controller builds");
        let fault = StateId::new(1 + fault_pick % spec.n_faults);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut world = World::new(&model, fault).expect("world builds");
        let faults: Vec<_> = (1..=spec.n_faults).map(StateId::new).collect();
        controller
            .begin(Belief::uniform_over(model.base().n_states(), &faults), None)
            .expect("begin");
        let mut steps = 0usize;
        loop {
            steps += 1;
            // Property 1: termination within a finite number of actions.
            prop_assert!(steps <= 300, "controller did not terminate");
            match controller.decide().expect("decide") {
                Step::Terminate => break,
                Step::Execute(a) => {
                    let (_, obs) = world.step(&mut rng, a);
                    controller.observe(a, obs).expect("observe");
                }
            }
        }
    }

    #[test]
    fn belief_stays_on_the_simplex_through_random_trajectories(
        spec in arb_spec(),
        seed in 0u64..1000,
    ) {
        let model = build(&spec);
        let pomdp = model.base();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut belief = Belief::uniform(pomdp.n_states());
        let mut state = StateId::new(1.min(pomdp.n_states() - 1));
        for step in 0..50 {
            let a = ActionId::new(step % pomdp.n_actions());
            let next = pomdp.sample_transition(&mut rng, state, a);
            let obs = pomdp.sample_observation(&mut rng, next, a);
            state = next;
            let (b, gamma) = belief.update(pomdp, a, obs).expect("possible observation");
            prop_assert!(gamma > 0.0 && gamma <= 1.0 + 1e-12);
            let sum: f64 = b.probs().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(b.probs().iter().all(|&p| (-1e-12..=1.0 + 1e-9).contains(&p)));
            belief = b;
        }
    }
}
