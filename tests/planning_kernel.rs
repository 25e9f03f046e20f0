//! Property-based equivalence tests for the fused planning kernel.
//!
//! The fused tree expansion (`bpr_pomdp::tree`) replaces the legacy
//! per-node successor rebuild with precomputed `τ_{a,o}` operators,
//! workspace scratch, a transposition cache, afterstate sharing
//! between actions of one node, and frontier nodes that skip the
//! actions the leaf bound's envelope shows cannot win. Its contract is
//! *bit-identity*: the same `γ` values,
//! posteriors, branch order, q-values, tie-breaking, and node counts as
//! the retained legacy path — for every model, belief, and cutoff, not
//! just the case-study models. These properties drive randomly
//! generated POMDPs (stochastic transitions, sparse noisy observation
//! channels, beliefs with zero entries) through both paths and demand
//! exact equality.
//!
//! Models with at least 32 states whose observation rows are mostly
//! empty (mean fill at most 1/8) run the kernel's sparse branch layout,
//! which touches only each observation row's stored states; the
//! `sparse_*` properties and the corpus test hold that layout to the
//! same bit-identity, branch-and-bound included.

use bpr_core::anytime_expand_with_workspace;
use bpr_mdp::chain::SolveOpts;
use bpr_mdp::value_iteration::Discount;
use bpr_mdp::{ActionId, MdpBuilder};
use bpr_pomdp::bounds::{qmdp_bound, ra_bound, ConstantBound, ValueBound, VectorSetBound};
use bpr_pomdp::tree::Decision;
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

/// A random model that takes the sparse branch layout: 32–44 states,
/// 16–20 observations, and every state emitting at most two of them.
fn arb_sparse_pomdp() -> impl Strategy<Value = RandomPomdp> {
    (32usize..=44, 1usize..=3, 16usize..=20, 0u64..1 << 32).prop_map(
        |(n_states, n_actions, n_obs, seed)| RandomPomdp {
            n_states,
            n_actions,
            n_obs,
            seed,
        },
    )
}

fn build_sparse(spec: &RandomPomdp) -> Pomdp {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut mb = MdpBuilder::new(spec.n_states, spec.n_actions);
    for a in 0..spec.n_actions {
        for s in 0..spec.n_states {
            let row = random_row(&mut rng, spec.n_states, 0.08);
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
            let first = rng.gen_range(0..spec.n_obs);
            let second = rng.gen_range(0..spec.n_obs);
            if first == second {
                pb.observation(s2, a, first, 1.0);
            } else {
                let q = rng.gen::<f64>() * 0.9 + 0.05;
                pb.observation(s2, a, first, q);
                pb.observation(s2, a, second, 1.0 - q);
            }
        }
    }
    let pomdp = pb.build().expect("random POMDP builds");
    assert!(takes_sparse_layout(&pomdp), "generated model is too dense");
    pomdp
}

/// The kernel's per-model layout rule, restated from the public
/// matrices: at least 32 states and `nnz(Q_aᵀ)` summed over actions at
/// most 1/8 of `|A|·|O|·|S|`.
fn takes_sparse_layout(pomdp: &Pomdp) -> bool {
    let stored: usize = (0..pomdp.n_actions())
        .map(|a| pomdp.observation_transpose(ActionId::new(a)).nnz())
        .sum();
    let cells = pomdp.n_actions() * pomdp.n_observations() * pomdp.n_states();
    pomdp.n_states() >= 32 && stored * 8 <= cells
}

/// [`random_lower`] plus a plane that is `+0.0` on state 0 and `-0.0`
/// on state 1, like the termination plane `r(·, a_T)` at the null
/// state: leaves concentrated there have an all-zero support sum.
fn random_lower_with_zero_plane(pomdp: &Pomdp, seed: u64) -> VectorSetBound {
    let mut bound = random_lower(pomdp, seed);
    let mut plane = vec![-60.0; pomdp.n_states()];
    plane[0] = 0.0;
    plane[1] = -0.0;
    bound.add_vector(plane).expect("same dimension");
    bound
}

fn decision_bits(d: &Decision) -> (usize, u64, Vec<u64>, usize) {
    let q = d.q_values.iter().map(|q| q.to_bits()).collect();
    (d.action.index(), d.value.to_bits(), q, d.nodes_expanded)
}

/// Every entry point against the legacy decision, bit for bit: the
/// workspace pass on a fresh workspace and again on one dirtied by a
/// decision on a different belief (with the same cache and afterstate
/// traffic as the fresh pass, so no entry leaks from one decision into
/// the next), an
/// exact-budget pass (and its one-short abort), and branch-and-bound
/// with `upper` against the legacy branch-and-bound.
fn assert_entry_points_match_legacy(
    pomdp: &Pomdp,
    belief: &Belief,
    depth: usize,
    leaf: &VectorSetBound,
    upper: &VectorSetBound,
    cutoff: f64,
) {
    let old = tree::legacy::expand_with_cutoff(pomdp, belief, depth, leaf, 1.0, cutoff)
        .expect("legacy expands");
    let want = decision_bits(&old);
    let mut ws = PlanWorkspace::new();
    tree::expand_with_workspace(pomdp, belief, depth, leaf, 1.0, cutoff, &mut ws)
        .expect("workspace pass expands");
    assert_eq!(decision_bits(ws.decision()), want, "workspace pass");
    let traffic = |ws: &PlanWorkspace| {
        let stats = ws.stats();
        (stats.cache_hits, stats.cache_misses, stats.afterstate_hits)
    };
    let fresh = traffic(&ws);
    let n = pomdp.n_states();
    let other = if *belief == Belief::uniform(n) {
        Belief::point(n, 0.into())
    } else {
        Belief::uniform(n)
    };
    tree::expand_with_workspace(pomdp, &other, depth, leaf, 1.0, cutoff, &mut ws)
        .expect("workspace pass expands");
    let before = traffic(&ws);
    tree::expand_with_workspace(pomdp, belief, depth, leaf, 1.0, cutoff, &mut ws)
        .expect("workspace pass expands");
    assert_eq!(decision_bits(ws.decision()), want, "dirty workspace pass");
    let after = traffic(&ws);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        fresh,
        "dirty workspace pass saw other cache or afterstate traffic than a fresh one"
    );
    let nodes = old.nodes_expanded;
    let pass = tree::expand_budgeted(pomdp, belief, depth, leaf, 1.0, cutoff, nodes, &mut ws)
        .expect("budgeted pass expands");
    assert!(pass.completed && pass.nodes_spent == nodes);
    assert_eq!(decision_bits(ws.decision()), want, "budgeted pass");
    let short = tree::expand_budgeted(pomdp, belief, depth, leaf, 1.0, cutoff, nodes - 1, &mut ws)
        .expect("budgeted pass expands");
    assert!(!short.completed);
    let old = tree::legacy::expand_branch_and_bound(pomdp, belief, depth, leaf, upper, 1.0, cutoff)
        .expect("legacy b&b expands");
    tree::expand_branch_and_bound_with_workspace(
        pomdp, belief, depth, leaf, upper, 1.0, cutoff, &mut ws,
    )
    .expect("b&b pass expands");
    assert_eq!(
        decision_bits(ws.decision()),
        decision_bits(&old),
        "branch-and-bound pass"
    );
}

/// How an action of [`build_copying`] copies an earlier one.
#[derive(Debug, Clone)]
struct CopiedRows {
    /// The earlier action copied.
    source: usize,
    /// The states whose transition rows are the source's.
    states: Vec<bool>,
    /// Whether the whole observation matrix is the source's too.
    same_observations: bool,
}

/// A random model in which some actions copy an earlier action's
/// transition rows on a random subset of states (sometimes all of
/// them), and some of those also copy its observation matrix. Two
/// such actions have bit-identical afterstates `P_aᵀπ` at every belief
/// supported on the copied states, and different ones elsewhere;
/// rewards are drawn per action, so they always differ. `sparse`
/// draws the shape of [`build_sparse`] (at most two observations per
/// state), which takes the sparse branch layout.
fn build_copying(spec: &RandomPomdp, sparse: bool) -> (Pomdp, Vec<Option<CopiedRows>>) {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xc0b1);
    let (n, na, no) = (spec.n_states, spec.n_actions, spec.n_obs);
    let mut transitions: Vec<Vec<Vec<f64>>> = Vec::with_capacity(na);
    let mut observations: Vec<Vec<Vec<f64>>> = Vec::with_capacity(na);
    let mut copies = Vec::with_capacity(na);
    for a in 0..na {
        let copy = (a > 0 && rng.gen_bool(0.7)).then(|| {
            let all = rng.gen_bool(0.25);
            CopiedRows {
                source: rng.gen_range(0..a),
                states: (0..n).map(|_| all || rng.gen_bool(0.5)).collect(),
                same_observations: rng.gen_bool(0.5),
            }
        });
        let rows = (0..n)
            .map(|s| match &copy {
                Some(c) if c.states[s] => transitions[c.source][s].clone(),
                _ => random_row(&mut rng, n, if sparse { 0.08 } else { 0.7 }),
            })
            .collect();
        let obs = match &copy {
            Some(c) if c.same_observations => observations[c.source].clone(),
            _ => (0..n)
                .map(|_| {
                    if !sparse {
                        return random_row(&mut rng, no, 0.6);
                    }
                    let mut row = vec![0.0; no];
                    let (first, second) = (rng.gen_range(0..no), rng.gen_range(0..no));
                    if first == second {
                        row[first] = 1.0;
                    } else {
                        let q = rng.gen::<f64>() * 0.9 + 0.05;
                        row[first] = q;
                        row[second] = 1.0 - q;
                    }
                    row
                })
                .collect(),
        };
        transitions.push(rows);
        observations.push(obs);
        copies.push(copy);
    }
    let mut mb = MdpBuilder::new(n, na);
    for (a, rows) in transitions.iter().enumerate() {
        for (s, row) in rows.iter().enumerate() {
            for (s2, &p) in row.iter().enumerate() {
                if p > 0.0 {
                    mb.transition(s, a, s2, p);
                }
            }
            mb.reward(s, a, -rng.gen::<f64>() * 3.0);
        }
    }
    let mut pb = PomdpBuilder::new(mb.build().expect("random MDP builds"), no);
    for (a, rows) in observations.iter().enumerate() {
        for (s2, row) in rows.iter().enumerate() {
            for (o, &q) in row.iter().enumerate() {
                if q > 0.0 {
                    pb.observation(s2, a, o, q);
                }
            }
        }
    }
    let pomdp = pb.build().expect("random POMDP builds");
    assert_eq!(
        takes_sparse_layout(&pomdp),
        sparse,
        "layout of the drawn shape"
    );
    (pomdp, copies)
}

/// [`probe_beliefs`] plus beliefs on which the first copying action's
/// afterstate equals its source's: a point on its first copied state
/// and a random mix over all its copied states.
fn copying_beliefs(pomdp: &Pomdp, copies: &[Option<CopiedRows>], seed: u64) -> Vec<Belief> {
    let mut out = probe_beliefs(pomdp, seed);
    let n = pomdp.n_states();
    let Some(copy) = copies.iter().flatten().next() else {
        return out;
    };
    let copied: Vec<usize> = (0..n).filter(|&s| copy.states[s]).collect();
    let Some(&first) = copied.first() else {
        return out;
    };
    out.push(Belief::point(n, first.into()));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51a7);
    let mut probs = vec![0.0; n];
    for &s in &copied {
        probs[s] = rng.gen::<f64>() + 0.05;
    }
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
    out.push(Belief::from_probs(probs).expect("normalised"));
    out
}

/// `expand_with_workspace` against `legacy::expand_with_cutoff`, bit
/// for bit with node counts, at every [`copying_beliefs`] belief, on
/// one reused workspace; returns the workspace's afterstate hits by
/// remaining depth.
fn assert_copying_model_matches_legacy(
    spec: &RandomPomdp,
    sparse: bool,
    depth: usize,
    cutoff: f64,
) -> Vec<u64> {
    let (pomdp, copies) = build_copying(spec, sparse);
    let lower = random_lower_with_zero_plane(&pomdp, spec.seed);
    let mut ws = PlanWorkspace::new();
    for belief in copying_beliefs(&pomdp, &copies, spec.seed) {
        let old = tree::legacy::expand_with_cutoff(&pomdp, &belief, depth, &lower, 1.0, cutoff)
            .expect("legacy expands");
        tree::expand_with_workspace(&pomdp, &belief, depth, &lower, 1.0, cutoff, &mut ws)
            .expect("workspace pass expands");
        assert_eq!(
            decision_bits(ws.decision()),
            decision_bits(&old),
            "{spec:?} sparse={sparse} depth={depth} cutoff={cutoff:e} copies={copies:?}"
        );
    }
    ws.stats().afterstate_hits_by_depth.clone()
}

fn arb_copying_pomdp() -> impl Strategy<Value = RandomPomdp> {
    (2usize..=5, 2usize..=4, 2usize..=6, 0u64..1 << 32).prop_map(
        |(n_states, n_actions, n_obs, seed)| RandomPomdp {
            n_states,
            n_actions,
            n_obs,
            seed,
        },
    )
}

fn arb_sparse_copying_pomdp() -> impl Strategy<Value = RandomPomdp> {
    (32usize..=40, 2usize..=3, 16usize..=20, 0u64..1 << 32).prop_map(
        |(n_states, n_actions, n_obs, seed)| RandomPomdp {
            n_states,
            n_actions,
            n_obs,
            seed,
        },
    )
}

#[test]
fn copied_rows_share_afterstates_at_the_root_and_inside_the_tree() {
    // The properties below would pass vacuously if no pair ever shared:
    // over a fixed set of seeds, both layouts share at the root and at
    // every interior depth. At decision depth 3 sharing nodes nest two
    // deep below the root, each depth with its own afterstate table.
    for sparse in [false, true] {
        for depth in [2, 3] {
            let mut hits = vec![0u64; depth + 1];
            for seed in 0..16u64 {
                let spec = if sparse {
                    RandomPomdp {
                        n_states: 32 + seed as usize % 9,
                        n_actions: 3,
                        n_obs: 16,
                        seed,
                    }
                } else {
                    RandomPomdp {
                        n_states: 3 + seed as usize % 3,
                        n_actions: 4,
                        n_obs: 4,
                        seed,
                    }
                };
                let by_depth = assert_copying_model_matches_legacy(&spec, sparse, depth, 0.0);
                for (total, h) in hits.iter_mut().zip(&by_depth) {
                    *total += h;
                }
            }
            assert_eq!(hits[0], 0, "leaves have no action loop");
            for (d, &h) in hits.iter().enumerate().skip(1) {
                assert!(
                    h > 0,
                    "sparse={sparse} depth={depth}: no sharing at depth {d}: {hits:?}"
                );
            }
        }
    }
}

/// A leaf set for the frontier properties, by `shape`: one random
/// negative plane; [`random_lower_with_zero_plane`] (negative planes and
/// a `±0` one); or three planes with entries of both signs, mostly
/// positive. The frontier skip argument holds for any set, so none of
/// them needs to be a sound bound.
fn frontier_leaf(pomdp: &Pomdp, seed: u64, shape: usize) -> VectorSetBound {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf407);
    let n = pomdp.n_states();
    let mut plane = |low: f64, high: f64| -> Vec<f64> {
        (0..n)
            .map(|_| low + rng.gen::<f64>() * (high - low))
            .collect()
    };
    match shape {
        0 => VectorSetBound::from_vector(plane(-40.0, -5.0)).expect("non-empty vector"),
        1 => random_lower_with_zero_plane(pomdp, seed),
        _ => {
            let mut bound = VectorSetBound::new(n);
            for _ in 0..3 {
                bound
                    .add_vector(plane(-10.0, 30.0))
                    .expect("same dimension");
            }
            bound
        }
    }
}

/// The smallest branch mass of a node one layer above the leaves of a
/// depth-2 tree from `belief`: the likeliest root branch's posterior,
/// under its first action. A cutoff equal to it drops that branch
/// (`γ > cutoff` fails) at that frontier node.
fn frontier_branch_mass(pomdp: &Pomdp, belief: &Belief) -> f64 {
    let mut root = belief.successors(pomdp, ActionId::new(0), 0.0);
    root.sort_by(|x, y| y.1.total_cmp(&x.1));
    root[0]
        .2
        .successors(pomdp, ActionId::new(0), 0.0)
        .iter()
        .map(|&(_, g, _)| g)
        .fold(f64::INFINITY, f64::min)
}

/// The frontier pass (`expand_with_workspace`, whose nodes one layer
/// above the leaves expand only the actions that can win) against
/// `legacy::expand_with_cutoff` and against an exact-budget
/// `expand_budgeted` pass, bit for bit with node counts, at every
/// [`copying_beliefs`] belief and each of three cutoffs (`0`, `1e-3`
/// and a frontier branch mass); returns how many frontier actions the
/// workspace skipped.
fn assert_frontier_matches_legacy(
    spec: &RandomPomdp,
    sparse: bool,
    depth: usize,
    shape: usize,
) -> u64 {
    let (pomdp, copies) = build_copying(spec, sparse);
    let leaf = frontier_leaf(&pomdp, spec.seed, shape);
    let mut ws = PlanWorkspace::new();
    let mut budgeted = PlanWorkspace::new();
    for belief in copying_beliefs(&pomdp, &copies, spec.seed) {
        for cutoff in [0.0, 1e-3, frontier_branch_mass(&pomdp, &belief)] {
            let case = format!(
                "{spec:?} sparse={sparse} depth={depth} shape={shape} cutoff={cutoff:e} \
                 belief={:?}",
                belief.probs()
            );
            let old = tree::legacy::expand_with_cutoff(&pomdp, &belief, depth, &leaf, 1.0, cutoff)
                .expect("legacy expands");
            let want = decision_bits(&old);
            tree::expand_with_workspace(&pomdp, &belief, depth, &leaf, 1.0, cutoff, &mut ws)
                .expect("frontier pass expands");
            assert_eq!(decision_bits(ws.decision()), want, "frontier pass: {case}");
            let nodes = old.nodes_expanded;
            let pass = tree::expand_budgeted(
                &pomdp,
                &belief,
                depth,
                &leaf,
                1.0,
                cutoff,
                nodes,
                &mut budgeted,
            )
            .expect("budgeted pass expands");
            assert!(pass.completed && pass.nodes_spent == nodes, "{case}");
            assert_eq!(
                decision_bits(budgeted.decision()),
                want,
                "exact-budget pass: {case}"
            );
        }
    }
    assert_eq!(
        budgeted.stats().frontier_skipped,
        0,
        "budgeted passes stay literal"
    );
    ws.stats().frontier_skipped
}

#[test]
fn frontier_nodes_skip_actions_on_both_layouts_and_every_leaf_shape() {
    // The frontier properties below would pass vacuously if no action
    // were ever skipped: over a fixed set of seeds, every layout, depth
    // and leaf shape skips some.
    for sparse in [false, true] {
        for depth in [2, 3] {
            for shape in 0..3 {
                let skipped: u64 = (0..6u64)
                    .map(|seed| {
                        let spec = if sparse {
                            RandomPomdp {
                                n_states: 32 + seed as usize % 5,
                                n_actions: 3,
                                n_obs: 16,
                                seed,
                            }
                        } else {
                            RandomPomdp {
                                n_states: 3 + seed as usize % 3,
                                n_actions: 4,
                                n_obs: 4,
                                seed,
                            }
                        };
                        assert_frontier_matches_legacy(&spec, sparse, depth, shape)
                    })
                    .sum();
                assert!(
                    skipped > 0,
                    "sparse={sparse} depth={depth} shape={shape}: nothing skipped"
                );
            }
        }
    }
}

/// The QMDP upper bound at discount 0.95. Every reward of the random
/// models is non-positive, so discounting only raises values and the
/// bound stays above the undiscounted value; unlike the undiscounted
/// QMDP its value iteration converges on every random model.
fn random_upper(pomdp: &Pomdp) -> VectorSetBound {
    qmdp_bound(pomdp, Discount::Factor(0.95)).expect("discounted QMDP converges")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sparse_layout_matches_legacy_on_every_entry_point(
        spec in arb_sparse_pomdp(),
        depth in 1usize..=2,
        cutoff in prop_oneof![Just(0.0), 0.0f64..0.1],
    ) {
        let pomdp = build_sparse(&spec);
        let lower = random_lower_with_zero_plane(&pomdp, spec.seed);
        let upper = random_upper(&pomdp);
        for belief in probe_beliefs(&pomdp, spec.seed) {
            assert_entry_points_match_legacy(&pomdp, &belief, depth, &lower, &upper, cutoff);
        }
    }

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
    fn equal_afterstates_match_legacy_on_the_dense_layout(
        spec in arb_copying_pomdp(),
        depth in 1usize..=3,
        cutoff in prop_oneof![Just(0.0), Just(1e-3)],
    ) {
        assert_copying_model_matches_legacy(&spec, false, depth, cutoff);
    }

    #[test]
    fn equal_afterstates_match_legacy_on_the_sparse_layout(
        spec in arb_sparse_copying_pomdp(),
        depth in 1usize..=3,
        cutoff in prop_oneof![Just(0.0), Just(1e-3)],
    ) {
        assert_copying_model_matches_legacy(&spec, true, depth, cutoff);
    }

    #[test]
    fn frontier_pass_matches_legacy_on_the_dense_layout(
        spec in arb_copying_pomdp(),
        depth in 2usize..=3,
        shape in 0usize..3,
    ) {
        assert_frontier_matches_legacy(&spec, false, depth, shape);
    }

    #[test]
    fn frontier_pass_matches_legacy_on_the_sparse_layout(
        spec in arb_sparse_copying_pomdp(),
        depth in 2usize..=3,
        shape in 0usize..3,
    ) {
        assert_frontier_matches_legacy(&spec, true, depth, shape);
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
    // leaks through the arena or cache).
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

/// Beliefs an episode visits on a corpus model: the uniform belief,
/// the null point belief, and the likeliest posteriors after one step
/// from each (the null one concentrated on the null state).
fn visited_beliefs(pomdp: &Pomdp, null: usize) -> Vec<Belief> {
    let n = pomdp.n_states();
    let mut out = vec![Belief::uniform(n), Belief::point(n, null.into())];
    for start in out.clone() {
        let mut next = start.successors(pomdp, ActionId::new(0), 0.0);
        next.sort_by(|x, y| y.1.total_cmp(&x.1));
        out.extend(next.into_iter().take(2).map(|(_, _, b)| b));
    }
    out
}

#[test]
fn corpus_visited_beliefs_match_legacy_on_both_layouts() {
    let registry = bpr::scenario::builtin();
    for (name, sparse, depth, cutoff) in [
        ("web3tier-small", false, 2, 1e-3),
        ("cellfleet-mid", true, 1, 1e-3),
        ("cellfleet-mid", true, 2, 0.05),
    ] {
        let scenario = registry.get(name).expect("corpus scenario");
        let model = scenario
            .build()
            .expect("scenario builds")
            .without_notification(scenario.operator_response_time())
            .expect("transform succeeds");
        let pomdp = model.pomdp();
        assert_eq!(takes_sparse_layout(pomdp), sparse, "{name} layout");
        // The controllers' leaf bound: the RA-Bound plus the
        // termination plane `r(·, a_T)`.
        let mut leaf = ra_bound(pomdp, &SolveOpts::default()).expect("RA-Bound exists");
        let plane = (0..pomdp.n_states())
            .map(|s| pomdp.mdp().reward(s, model.terminate_action()))
            .collect();
        leaf.add_vector(plane).expect("same dimension");
        // The branch-and-bound controller's upper bound.
        let upper = qmdp_bound(pomdp, Discount::Undiscounted).expect("QMDP converges");
        let null = model.null_states()[0].index();
        // A leaf concentrated on the null state scores exactly zero, so
        // its support sums are zero and take the dense fallback.
        let at_null = Belief::point(pomdp.n_states(), null.into());
        assert_eq!(leaf.value_weights(at_null.probs()), 0.0, "{name}");
        assert_eq!(
            leaf.value_support(at_null.probs(), &[null]).to_bits(),
            leaf.value_weights(at_null.probs()).to_bits(),
            "{name}"
        );
        for belief in visited_beliefs(pomdp, null) {
            assert_entry_points_match_legacy(pomdp, &belief, depth, &leaf, &upper, cutoff);
        }
    }
}

/// The decision bits and every [`bpr_pomdp::PlanStats`] counter except
/// `buffers_allocated` (cache hits and misses, each by remaining depth,
/// afterstate hits by depth and frontier skips) of one decision, read
/// after zeroing the counters before it.
fn decision_and_counters(ws: &PlanWorkspace) -> String {
    let s = ws.stats();
    format!(
        "{:?} {} {} {} {:?} {:?} {} {:?} {}",
        decision_bits(ws.decision()),
        s.cache_hits,
        s.cache_misses,
        s.cross_decision_hits,
        s.cache_hits_by_depth,
        s.cache_misses_by_depth,
        s.afterstate_hits,
        s.afterstate_hits_by_depth,
        s.frontier_skipped
    )
}

#[test]
fn corpus_decisions_and_counters_match_pinned_digests() {
    // A fixed decision sequence per scenario on one reused workspace:
    // the uniform belief, the null point and single-fault points, where
    // many actions leave the belief where it is and the root shares.
    let registry = bpr::scenario::builtin();
    let mut digests = Vec::new();
    for (name, depth, cutoff, pin) in [
        ("emn", 2, 1e-3, 0xead1_444e_a13c_3a53u64),
        ("emn", 3, 1e-2, 0xaa61_0c9c_2e31_3c67),
        ("web3tier-small", 2, 1e-3, 0xe483_e75e_e9e2_3af9),
        ("cellfleet-mid", 1, 1e-3, 0x6ba3_e387_1a04_874e),
    ] {
        let scenario = registry.get(name).expect("corpus scenario");
        let model = scenario
            .build()
            .expect("scenario builds")
            .without_notification(scenario.operator_response_time())
            .expect("transform succeeds");
        let pomdp = model.pomdp();
        let n = pomdp.n_states();
        let mut leaf = ra_bound(pomdp, &SolveOpts::default()).expect("RA-Bound exists");
        let plane = (0..n)
            .map(|s| pomdp.mdp().reward(s, model.terminate_action()))
            .collect();
        leaf.add_vector(plane).expect("same dimension");
        let mut beliefs = vec![Belief::uniform(n), Belief::point(n, model.null_states()[0])];
        beliefs.extend(
            model
                .fault_states()
                .into_iter()
                .take(3)
                .map(|s| Belief::point(n, s)),
        );
        let mut ws = PlanWorkspace::new();
        let mut rows = Vec::new();
        let mut root_hits = 0;
        for belief in &beliefs {
            ws.reset_stats();
            tree::expand_with_workspace(pomdp, belief, depth, &leaf, 1.0, cutoff, &mut ws)
                .expect("workspace pass expands");
            root_hits += ws
                .stats()
                .afterstate_hits_by_depth
                .get(depth)
                .copied()
                .unwrap_or(0);
            rows.push(decision_and_counters(&ws));
        }
        assert!(root_hits > 0, "{name} depth {depth}: the root never shares");
        let digest = bpr_core::snapshot::fnv1a64(rows.join("\n").as_bytes());
        digests.push((digest, pin, name, depth));
    }
    assert!(
        digests.iter().all(|&(digest, pin, ..)| digest == pin),
        "digests moved: {digests:#x?}"
    );
}
