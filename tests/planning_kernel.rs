//! Property-based equivalence tests for the fused planning kernel.
//!
//! The fused tree expansion (`bpr_pomdp::tree`) replaces the legacy
//! per-node successor rebuild with precomputed `τ_{a,o}` operators,
//! workspace scratch, a transposition cache, and optional root
//! parallelism. Its contract is *bit-identity*: the same `γ` values,
//! posteriors, branch order, q-values, tie-breaking, and node counts as
//! the retained legacy path — for every model, belief, and cutoff, not
//! just the case-study models. These properties drive randomly
//! generated POMDPs (stochastic transitions, sparse noisy observation
//! channels, beliefs with zero entries) through both paths and demand
//! exact equality.

use bpr_core::anytime_expand_with_workspace;
use bpr_mdp::MdpBuilder;
use bpr_par::WorkPool;
use bpr_pomdp::bounds::{ConstantBound, ValueBound, VectorSetBound};
use bpr_pomdp::{tree, Belief, PlanWorkspace, Pomdp, PomdpBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a random POMDP; the actual probabilities are derived from
/// `seed` so a failing case shrinks to a reproducible model.
#[derive(Debug, Clone)]
struct RandomPomdp {
    n_states: usize,
    n_actions: usize,
    n_obs: usize,
    seed: u64,
}

fn arb_pomdp() -> impl Strategy<Value = RandomPomdp> {
    (2usize..=5, 1usize..=4, 2usize..=6, 0u64..1 << 32).prop_map(
        |(n_states, n_actions, n_obs, seed)| RandomPomdp {
            n_states,
            n_actions,
            n_obs,
            seed,
        },
    )
}

/// Draws a normalised probability row with roughly `keep` of `n`
/// entries non-zero (always at least one).
fn random_row(rng: &mut StdRng, n: usize, keep: f64) -> Vec<f64> {
    let mut row = vec![0.0; n];
    for slot in row.iter_mut() {
        if rng.gen_bool(keep) {
            *slot = rng.gen::<f64>() + 0.05;
        }
    }
    if row.iter().all(|&p| p == 0.0) {
        row[rng.gen_range(0..n)] = 1.0;
    }
    let sum: f64 = row.iter().sum();
    for p in row.iter_mut() {
        *p /= sum;
    }
    row
}

fn build(spec: &RandomPomdp) -> Pomdp {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut mb = MdpBuilder::new(spec.n_states, spec.n_actions);
    for a in 0..spec.n_actions {
        for s in 0..spec.n_states {
            let row = random_row(&mut rng, spec.n_states, 0.7);
            for (s2, &p) in row.iter().enumerate() {
                if p > 0.0 {
                    mb.transition(s, a, s2, p);
                }
            }
            mb.reward(s, a, -rng.gen::<f64>() * 3.0);
        }
    }
    let mut pb = PomdpBuilder::new(mb.build().expect("random MDP builds"), spec.n_obs);
    for a in 0..spec.n_actions {
        for s2 in 0..spec.n_states {
            let row = random_row(&mut rng, spec.n_obs, 0.6);
            for (o, &q) in row.iter().enumerate() {
                if q > 0.0 {
                    pb.observation(s2, a, o, q);
                }
            }
        }
    }
    pb.build().expect("random POMDP builds")
}

/// A few beliefs probing the simplex: uniform, vertices, and a random
/// sparse interior point.
fn probe_beliefs(pomdp: &Pomdp, seed: u64) -> Vec<Belief> {
    let n = pomdp.n_states();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut out = vec![Belief::uniform(n), Belief::point(n, 0.into())];
    let mut probs = random_row(&mut rng, n, 0.8);
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
    out.push(Belief::from_probs(probs).expect("normalised"));
    out
}

/// A random all-negative hyperplane set: a valid lower bound for these
/// all-negative-reward models, cheap enough for deep proptest trees.
fn random_lower(pomdp: &Pomdp, seed: u64) -> VectorSetBound {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0b0);
    let n = pomdp.n_states();
    let mut bound = VectorSetBound::from_vector(vec![-50.0; n]).expect("non-empty vector");
    for _ in 0..2 {
        let v: Vec<f64> = (0..n).map(|_| -rng.gen::<f64>() * 40.0 - 5.0).collect();
        bound.add_vector(v).expect("same dimension");
    }
    bound
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fused_expansion_matches_legacy_decisions(
        spec in arb_pomdp(),
        depth in 1usize..=2,
        cutoff in prop_oneof![Just(0.0), 0.0f64..0.1],
    ) {
        let pomdp = build(&spec);
        let lower = random_lower(&pomdp, spec.seed);
        for belief in probe_beliefs(&pomdp, spec.seed) {
            let old = tree::legacy::expand_with_cutoff(&pomdp, &belief, depth, &lower, 1.0, cutoff)
                .expect("legacy expands");
            let new = tree::expand_with_cutoff(&pomdp, &belief, depth, &lower, 1.0, cutoff)
                .expect("fused expands");
            prop_assert_eq!(old, new);
        }
    }

    #[test]
    fn parallel_roots_match_sequential_decisions(
        spec in arb_pomdp(),
        depth in 1usize..=2,
    ) {
        let pomdp = build(&spec);
        let lower = random_lower(&pomdp, spec.seed);
        for belief in probe_beliefs(&pomdp, spec.seed) {
            let sequential = tree::expand_with_cutoff(&pomdp, &belief, depth, &lower, 1.0, 0.0)
                .expect("sequential expands");
            for width in [1usize, 2, 4] {
                let pool = WorkPool::new(width).expect("positive width");
                let parallel = tree::expand_par(&pomdp, &belief, depth, &lower, 1.0, 0.0, &pool)
                    .expect("parallel expands");
                prop_assert_eq!(&sequential, &parallel, "width {}", width);
            }
        }
    }

    #[test]
    fn fused_branch_and_bound_matches_legacy(
        spec in arb_pomdp(),
        depth in 1usize..=2,
    ) {
        // ConstantBound(0.0) is a sound upper bound (all rewards are
        // negative); a random hyperplane set is the lower bound. QMDP is
        // avoided here: its value iteration need not converge on
        // arbitrary random models.
        let pomdp = build(&spec);
        let lower = random_lower(&pomdp, spec.seed);
        let upper = ConstantBound(0.0);
        for belief in probe_beliefs(&pomdp, spec.seed) {
            let old = tree::legacy::expand_branch_and_bound(
                &pomdp, &belief, depth, &lower, &upper, 1.0, 0.0,
            )
            .expect("legacy b&b expands");
            let mut ws = PlanWorkspace::new();
            tree::expand_branch_and_bound_with_workspace(
                &pomdp, &belief, depth, &lower, &upper, 1.0, 0.0, &mut ws,
            )
            .expect("fused b&b expands");
            prop_assert_eq!(old, ws.take_decision());
        }
    }

    #[test]
    fn budgeted_and_plain_passes_share_one_root(
        spec in arb_pomdp(),
        depth in 1usize..=2,
    ) {
        // `expand_budgeted` and `expand_with_workspace` run the same
        // root loop: an exact budget completes with the plain node
        // count and a bit-identical decision, one node less aborts.
        let pomdp = build(&spec);
        let lower = random_lower(&pomdp, spec.seed);
        let mut plain_ws = PlanWorkspace::new();
        let mut ws = PlanWorkspace::new();
        for belief in probe_beliefs(&pomdp, spec.seed) {
            tree::expand_with_workspace(
                &pomdp, &belief, depth, &lower, 1.0, 0.0, &mut plain_ws,
            )
            .expect("plain expands");
            let plain = plain_ws.decision();
            let nodes = plain.nodes_expanded;
            let pass = tree::expand_budgeted(
                &pomdp, &belief, depth, &lower, 1.0, 0.0, nodes, &mut ws,
            )
            .expect("budgeted expands");
            prop_assert!(pass.completed);
            prop_assert_eq!(pass.nodes_spent, nodes);
            let budgeted = ws.decision();
            prop_assert_eq!(budgeted.action, plain.action);
            prop_assert_eq!(budgeted.value.to_bits(), plain.value.to_bits());
            prop_assert_eq!(budgeted.nodes_expanded, nodes);
            let bits =
                |d: &tree::Decision| d.q_values.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(budgeted), bits(plain));
            let short = tree::expand_budgeted(
                &pomdp, &belief, depth, &lower, 1.0, 0.0, nodes - 1, &mut ws,
            )
            .expect("budgeted expands");
            prop_assert!(!short.completed);
        }
    }

    #[test]
    fn unbounded_anytime_matches_the_plain_expansion(
        spec in arb_pomdp(),
        max_depth in 1usize..=2,
    ) {
        let pomdp = build(&spec);
        let lower = random_lower(&pomdp, spec.seed);
        let mut ws = PlanWorkspace::new();
        for belief in probe_beliefs(&pomdp, spec.seed) {
            let plain = tree::expand_with_cutoff(&pomdp, &belief, max_depth, &lower, 1.0, 0.0)
                .expect("plain expands");
            let any = anytime_expand_with_workspace(
                &pomdp, &belief, &lower, max_depth, usize::MAX, 1.0, 0.0, &mut ws,
            )
            .expect("anytime expands");
            prop_assert_eq!(any.completed_depth, max_depth);
            prop_assert!(!any.budget_exhausted);
            prop_assert_eq!(any.action, plain.action);
            prop_assert_eq!(any.value.to_bits(), plain.value.to_bits());
            prop_assert_eq!(any.q_values, plain.q_values);
        }
    }

    #[test]
    fn value_weights_agrees_with_value_on_random_bounds(
        spec in arb_pomdp(),
    ) {
        let pomdp = build(&spec);
        let bound = random_lower(&pomdp, spec.seed);
        for belief in probe_beliefs(&pomdp, spec.seed) {
            let via_belief = bound.value(&belief);
            let via_weights = bound.value_weights(belief.probs());
            prop_assert_eq!(via_belief.to_bits(), via_weights.to_bits());
        }
    }
}

#[test]
fn workspace_reuse_matches_fresh_workspaces_across_models() {
    // One workspace reused across *different* models and depths must
    // give the same decisions as a fresh workspace per call (no state
    // leaks through the arena, frames, or cache).
    let mut ws = PlanWorkspace::new();
    for seed in 0..8u64 {
        let spec = RandomPomdp {
            n_states: 3 + (seed as usize % 3),
            n_actions: 2,
            n_obs: 4,
            seed,
        };
        let pomdp = build(&spec);
        let lower = random_lower(&pomdp, seed);
        let belief = Belief::uniform(pomdp.n_states());
        for depth in 1..=2 {
            tree::expand_with_workspace(&pomdp, &belief, depth, &lower, 1.0, 0.0, &mut ws)
                .expect("reused workspace expands");
            let fresh = tree::expand_with_cutoff(&pomdp, &belief, depth, &lower, 1.0, 0.0)
                .expect("fresh workspace expands");
            assert_eq!(ws.decision(), &fresh, "seed {seed} depth {depth}");
        }
    }
}
