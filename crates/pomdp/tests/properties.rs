//! Property-based tests of the POMDP layer: belief algebra, bound-set
//! invariants, backup monotonicity, and tree-expansion consistency on
//! randomly generated models.

use bpr_mdp::{ActionId, MdpBuilder, StateId};
use bpr_pomdp::backup::incremental_backup;
use bpr_pomdp::bounds::{ra_bound, ValueBound, VectorSetBound};
use bpr_pomdp::{tree, Belief, Pomdp, PomdpBuilder};
use proptest::prelude::*;

mod reference;

/// A random POMDP with recovery shape: state 0 absorbing & free, every
/// other state fixable, full-support observation noise.
fn arb_pomdp() -> impl Strategy<Value = Pomdp> {
    (2usize..=5, 2usize..=4, 2usize..=4, 0.55f64..0.95)
        .prop_flat_map(|(n, na, no, acc)| {
            (
                Just(n),
                Just(na),
                Just(no),
                Just(acc),
                proptest::collection::vec(0.1f64..2.0, n * na),
            )
        })
        .prop_map(|(n, na, no, acc, costs)| {
            let mut b = MdpBuilder::new(n, na);
            for a in 0..na {
                b.transition(0, a, 0, 1.0);
            }
            for s in 1..n {
                for a in 0..na {
                    if a == s % na {
                        b.transition(s, a, 0, 1.0);
                    } else {
                        b.transition(s, a, s, 1.0);
                    }
                    b.reward(s, a, -costs[s * na + a]);
                }
            }
            let mdp = b.build().expect("mdp builds");
            let mut pb = PomdpBuilder::new(mdp, no);
            for s in 0..n {
                let truth = s % no;
                let spread = (1.0 - acc) / (no - 1) as f64;
                for o in 0..no {
                    pb.observation_all_actions(s, o, if o == truth { acc } else { spread });
                }
            }
            pb.build().expect("pomdp builds")
        })
}

/// A random recovery model with sparse observation rows (each state
/// emits one of two observations) and transitions that split mass
/// between two states, so backups meet observations that are
/// unreachable from the backed-up belief and multi-term sums.
fn arb_sparse_pomdp() -> impl Strategy<Value = Pomdp> {
    (3usize..=6, 2usize..=4, 3usize..=6)
        .prop_flat_map(|(n, na, no)| {
            (
                Just(n),
                Just(na),
                Just(no),
                proptest::collection::vec(0.05f64..0.95, n * na),
                proptest::collection::vec(0usize..64, n * na),
                proptest::collection::vec(0.1f64..2.0, n * na),
                proptest::collection::vec(0.55f64..0.95, n),
            )
        })
        .prop_map(|(n, na, no, stay, jump, costs, acc)| {
            let mut b = MdpBuilder::new(n, na);
            for a in 0..na {
                b.transition(0, a, 0, 1.0);
            }
            for s in 1..n {
                for a in 0..na {
                    let k = s * na + a;
                    let other = 1 + jump[k] % (n - 1);
                    if a == s % na {
                        b.transition(s, a, 0, 1.0);
                    } else if other == s {
                        b.transition(s, a, s, 1.0);
                    } else {
                        b.transition(s, a, s, stay[k]);
                        b.transition(s, a, other, 1.0 - stay[k]);
                    }
                    b.reward(s, a, -costs[k]);
                }
            }
            let mdp = b.build().expect("mdp builds");
            let mut pb = PomdpBuilder::new(mdp, no);
            for (s, &q) in acc.iter().enumerate() {
                pb.observation_all_actions(s, s % no, q);
                pb.observation_all_actions(s, (s + 1) % no, 1.0 - q);
            }
            pb.build().expect("pomdp builds")
        })
}

/// `p` rebuilt with the actions `actions` (each an index into `p`'s,
/// so an index may repeat) and every observation probability scaled by
/// `scale`.
fn rebuilt(p: &Pomdp, actions: &[usize], scale: f64) -> Pomdp {
    let n = p.n_states();
    let mut b = MdpBuilder::new(n, actions.len());
    for (a, &from) in actions.iter().enumerate() {
        for s in 0..n {
            for (s2, q) in p.mdp().successors(s, from) {
                b.transition(s, a, s2, q);
            }
            b.reward(s, a, p.mdp().reward(s, from));
        }
    }
    let mut pb = PomdpBuilder::new(b.build().expect("mdp builds"), p.n_observations());
    for (a, &from) in actions.iter().enumerate() {
        for s in 0..n {
            for (o, q) in p.observations_on_entering(s, from) {
                pb.observation(s, a, o, q * scale);
            }
        }
    }
    pb.build().expect("pomdp builds")
}

/// A random model whose last action is a copy of action `twin`, so
/// every backup meets a pair with equal bounds and equal values.
/// Returns the model and `twin`.
fn arb_twin_pomdp() -> impl Strategy<Value = (Pomdp, usize)> {
    (prop_oneof![arb_pomdp(), arb_sparse_pomdp()], 0usize..4).prop_map(
        |(p, pick): (Pomdp, usize)| {
            let twin = pick % p.n_actions();
            let actions: Vec<usize> = (0..p.n_actions()).chain([twin]).collect();
            (rebuilt(&p, &actions, 1.0), twin)
        },
    )
}

/// A random model whose observation rows all sum to `1 − 5e-10`, off
/// unit mass by half the builder's tolerance, so a row mass taken to be
/// 1 would overstate every row.
fn arb_short_rows_pomdp() -> impl Strategy<Value = Pomdp> {
    prop_oneof![arb_pomdp(), arb_sparse_pomdp()].prop_map(|p: Pomdp| {
        let actions: Vec<usize> = (0..p.n_actions()).collect();
        rebuilt(&p, &actions, 1.0 - 5e-10)
    })
}

/// 2–5 random hyperplanes over up to 6 states with entries in
/// `[-10, -0.1)` (all negative, as a cost bound's) or `[-10, 10)`.
fn arb_hyperplanes() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 6), 2..=5),
        0usize..2,
    )
        .prop_map(|(units, negative)| {
            let (low, width) = if negative == 1 {
                (-10.0, 9.9)
            } else {
                (-10.0, 20.0)
            };
            units
                .iter()
                .map(|v| v.iter().map(|&u| low + width * u).collect())
                .collect()
        })
}

/// One backup point of a differential run: a vertex, the uniform
/// belief, a dense mixture, or a mixture over a random subset of
/// states (which leaves some observations unreachable).
fn step_belief(n: usize, kind: usize, index: usize, weights: &[f64]) -> Belief {
    let vertex = Belief::point(n, StateId::new(index % n));
    let mixture = |w: Vec<f64>| {
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            Belief::from_probs(w.iter().map(|x| x / total).collect()).expect("valid belief")
        } else {
            vertex.clone()
        }
    };
    match kind {
        0 => vertex.clone(),
        1 => Belief::uniform(n),
        2 => mixture(weights[..n].to_vec()),
        _ => mixture(
            weights[..n]
                .iter()
                .map(|&x| if x > 0.6 { x } else { 0.0 })
                .collect(),
        ),
    }
}

/// Grows `p`'s RA-Bound by up to 50 backups (the set stops growing
/// earlier when new vectors are dominated), checking every backup
/// against the dense reference bit for bit.
fn differential_run(p: &Pomdp, steps: &[(usize, usize, Vec<f64>)], beta: f64) {
    let mut set = ra_bound(p, &Default::default()).expect("RA exists");
    let n = p.n_states();
    for (kind, index, weights) in steps {
        if set.len() >= 50 {
            break;
        }
        reference::backup_both(p, &mut set, &step_belief(n, *kind, *index, weights), beta);
    }
}

/// Backs `set` up along `steps`, checking every backup against the
/// dense reference bit for bit; returns the winning actions.
fn differential_run_from(
    p: &Pomdp,
    set: &mut VectorSetBound,
    steps: &[(usize, usize, Vec<f64>)],
    beta: f64,
) -> Vec<usize> {
    let n = p.n_states();
    steps
        .iter()
        .take(30)
        .map(|(kind, index, weights)| {
            let belief = step_belief(n, *kind, *index, weights);
            reference::backup_both(p, set, &belief, beta).action.index()
        })
        .collect()
}

fn arb_steps() -> impl Strategy<Value = Vec<(usize, usize, Vec<f64>)>> {
    proptest::collection::vec(
        (
            0usize..4,
            0usize..64,
            proptest::collection::vec(0.0f64..1.0, 6),
        ),
        50,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn observation_probabilities_are_a_distribution(p in arb_pomdp()) {
        let belief = Belief::uniform(p.n_states());
        for a in 0..p.n_actions() {
            let gammas = belief.observation_probs(&p, ActionId::new(a));
            let total: f64 = gammas.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(gammas.iter().all(|&g| g >= -1e-12));
        }
    }

    #[test]
    fn successors_partition_probability(p in arb_pomdp()) {
        let n = p.n_states();
        let belief = Belief::uniform(n);
        for a in 0..p.n_actions() {
            let succ = belief.successors(&p, ActionId::new(a), 0.0);
            let total: f64 = succ.iter().map(|(_, g, _)| g).sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            for (_, g, next) in succ {
                prop_assert!(g > 0.0);
                let sum: f64 = next.probs().iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bound_set_value_is_max_of_members(p in arb_pomdp()) {
        let ra = ra_bound(&p, &Default::default()).expect("RA exists");
        let belief = Belief::uniform(p.n_states());
        let v = ra.value(&belief);
        let best = ra
            .iter()
            .map(|b| b.iter().zip(belief.probs()).map(|(x, y)| x * y).sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((v - best).abs() < 1e-12);
    }

    #[test]
    fn backup_is_monotone_everywhere_not_just_at_the_point(
        p in arb_pomdp(),
        seed in 0u64..50,
    ) {
        // Adding a backup vector can only raise the max over
        // hyperplanes at EVERY belief.
        let mut set = ra_bound(&p, &Default::default()).expect("RA exists");
        let n = p.n_states();
        let probes: Vec<Belief> = (0..n)
            .map(|s| Belief::point(n, StateId::new(s)))
            .chain([Belief::uniform(n)])
            .collect();
        let before: Vec<f64> = probes.iter().map(|b| set.value(b)).collect();
        let backup_at = Belief::point(n, StateId::new((seed as usize) % n));
        incremental_backup(&p, &mut set, &backup_at, 1.0).expect("backup");
        for (probe, old) in probes.iter().zip(before) {
            prop_assert!(set.value(probe) + 1e-12 >= old);
        }
    }

    #[test]
    fn tree_value_is_monotone_in_depth_with_ra_leaves(
        p in arb_pomdp(),
        weights in proptest::collection::vec(0.01f64..1.0, 5),
    ) {
        let n = p.n_states();
        let sum: f64 = weights[..n].iter().sum();
        let b = Belief::from_probs(weights[..n].iter().map(|w| w / sum).collect())
            .expect("valid belief");
        let ra = ra_bound(&p, &Default::default()).expect("RA exists");
        let v1 = tree::expand_with_cutoff(&p, &b, 1, &ra, 1.0, 0.0).expect("d1").value;
        let v2 = tree::expand_with_cutoff(&p, &b, 2, &ra, 1.0, 0.0).expect("d2").value;
        prop_assert!(v2 + 1e-9 >= v1, "depth 2 ({v2}) below depth 1 ({v1})");
        prop_assert!(v1 + 1e-9 >= ra.value(&b), "L_p dropped below the bound");
    }

    #[test]
    fn belief_update_is_bayes_consistent(p in arb_pomdp(), seed in 0u64..100) {
        // After updating on observation o, re-weighting by gamma must
        // recover the predicted distribution: sum_o gamma(o) pi'(s|o)
        // == pred(s).
        let n = p.n_states();
        let belief = Belief::uniform(n);
        let a = ActionId::new((seed as usize) % p.n_actions());
        let pred = belief.predict(&p, a);
        let mut recomposed = vec![0.0; n];
        for (_, gamma, next) in belief.successors(&p, a, 0.0) {
            for (s, q) in next.probs().iter().enumerate() {
                recomposed[s] += gamma * q;
            }
        }
        for s in 0..n {
            prop_assert!((recomposed[s] - pred[s]).abs() < 1e-9);
        }
    }

    #[test]
    fn backup_matches_dense_reference_bit_for_bit(
        p in prop_oneof![arb_pomdp(), arb_sparse_pomdp()],
        steps in arb_steps(),
        discounted in 0usize..2,
    ) {
        differential_run(&p, &steps, if discounted == 1 { 0.9 } else { 1.0 });
    }

    /// Of two identical actions the lower index wins, with the same
    /// vector and usage marks as the reference, which scores every
    /// action in order.
    #[test]
    fn identical_actions_resolve_to_the_lower_index(
        (p, twin) in arb_twin_pomdp(),
        steps in arb_steps(),
        discounted in 0usize..2,
    ) {
        let mut set = ra_bound(&p, &Default::default()).expect("RA exists");
        let beta = if discounted == 1 { 0.9 } else { 1.0 };
        let winners = differential_run_from(&p, &mut set, &steps, beta);
        let copy = p.n_actions() - 1;
        prop_assert!(
            !winners.contains(&copy),
            "the copy of action {twin} won a backup: {winners:?}"
        );
    }

    /// Rows short of unit mass, under random hyperplane sets (half of
    /// them all-negative, as a cost bound's), undiscounted and at
    /// β = 0.9.
    #[test]
    fn backup_matches_dense_reference_on_rows_short_of_unit_mass(
        p in arb_short_rows_pomdp(),
        vectors in arb_hyperplanes(),
        steps in arb_steps(),
        discounted in 0usize..2,
    ) {
        let n = p.n_states();
        let mut set = VectorSetBound::new(n);
        for v in &vectors {
            set.add_vector(v[..n].to_vec()).expect("dimensions match");
        }
        let beta = if discounted == 1 { 0.9 } else { 1.0 };
        differential_run_from(&p, &mut set, &steps, beta);
    }
}
