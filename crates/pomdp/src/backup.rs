//! Incremental linear-function bound improvement (paper Eq. 7).
//!
//! Given a set of bounding hyperplanes `B` and a belief `π`, one backup
//! constructs a new hyperplane that (weakly) improves the bound at `π`
//! while remaining a valid lower bound everywhere — Hauskrecht's
//! incremental update, the refinement scheme the paper applies to the
//! RA-Bound during bootstrapping and recovery.

use crate::bounds::VectorSetBound;
use crate::{Belief, Error, Pomdp};
use bpr_linalg::dense;
use bpr_mdp::ActionId;

/// The result of one incremental backup at a belief point.
#[derive(Debug, Clone, PartialEq)]
pub struct BackupOutcome {
    /// The freshly constructed hyperplane (before insertion).
    pub vector: Vec<f64>,
    /// Whether the set accepted the vector (it was not pointwise
    /// dominated by an existing hyperplane).
    pub added: bool,
    /// Bound value at the backed-up belief before the update.
    pub value_before: f64,
    /// Bound value at the backed-up belief after the update.
    pub value_after: f64,
    /// The action whose backup vector won at the belief.
    pub action: ActionId,
}

/// Relative margin of the action-pruning test in [`incremental_backup`]
/// and of the tree kernel's frontier nodes ([`crate::tree`]).
pub(crate) const PRUNE_TOLERANCE: f64 = 1e-9;

/// Performs one incremental backup of `bounds` at `belief` and inserts
/// the resulting hyperplane into the set (paper Eq. 7).
///
/// For every action `a` it builds the vector
/// `b_a(s) = r(s, a) + β Σ_o Σ_{s'} p(s'|s,a) q(o|s',a) b^{π,a,o}(s')`,
/// where `b^{π,a,o}` is the existing hyperplane that is best for the
/// (unnormalised) successor belief after `(a, o)`; the inserted vector
/// is the `b_a` with the largest value at `belief`, ties going to the
/// lowest action index.
///
/// The new bound satisfies `V_B'(π) = (L_p V_B)(π) ≥ V_B(π)` whenever
/// the input set satisfies `V_B ≤ L_p V_B` (Property 1(b)), which the
/// RA-Bound does; backups therefore never make the bound worse anywhere
/// and weakly improve it at `π`.
///
/// # Cost
///
/// Scoring one action in full computes the per-observation hyperplane
/// choice state-major over the support of `P_aᵀπ`, in
/// O(nnz(P_a) + nnz(Q_a on supp P_aᵀπ)·|V|) plus lower-order terms
/// instead of the dense O(|O|·|V|·|S|), bit-identical to the dense
/// formulation (DESIGN.md §5l). Actions that provably cannot win are
/// not scored, so one backup costs
/// O(|S|·|V| + |A|·(nnz(P_a) + |S|)) for the envelopes and the bounds
/// plus the full score of each action that is not skipped; on the
/// paper's EMN model that is 1–2 of 10 actions in nearly every backup.
///
/// # Action pruning
///
/// With the envelopes `U(s) = max_v V_v(s)` and `M(s) = max_v |V_v(s)|`
/// of the set and the row masses `ρ(s') = Σ_o q(o|s',a)` (the builder
/// stores only positive `q`), every choice of hyperplanes gives
/// `w(s') = Σ_o q(o|s',a)·V_{choice(o)}(s') ≤ ρ(s')·U(s')`, and
/// `π·P_a w = pred_a·w` with `pred_a = P_aᵀπ ≥ 0`. So for `β ≥ 0`
///
/// `value_a = π·b_a ≤ ub_a = π·r_a + β·pred_a·(ρ∘U)`.
///
/// The mass is not assumed to be 1: the builder accepts rows within
/// `1e-9` of 1, and `U` is negative for a cost bound, so `U` alone
/// would undercut `ρ∘U`. The actions are scored in descending `ub_a`
/// (ties by index), and action `a` is skipped when `ub_a + tol_a <
/// best`, the best value scored so far, with
/// `tol_a = 1e-9·(π·|r_a| + β·pred_a·(ρ∘M))`.
///
/// Rounding: both `value_a` and `ub_a` are sums of at most
/// `|O| + 2|S| + 4` rounded operations per term over the same
/// magnitudes, `π·|r_a|` and `β·pred_a·(ρ∘M)` (`|w(s')|` is below
/// `ρ(s')·M(s')`), so each computed side is within
/// `γ_k ≈ k·2⁻⁵³` of its exact value relative to the scale inside
/// `tol_a`: below `2.3e-12` of it for `|S| + |O| ≤ 10⁴`, hundreds of
/// times less than the `1e-9` margin. A computed `value_a` therefore
/// never exceeds the computed `ub_a + tol_a` (checked by a debug
/// assertion on every scored action), a skipped action's value lies
/// strictly below one already scored, and the winner — the largest
/// value, ties to the lowest index — is the action, vector and set of
/// usage marks that scoring every action in ascending order with `>`
/// selects. A `β` below 0 or NaN leaves every bound infinite, so no
/// action is skipped.
///
/// # Errors
///
/// * [`Error::InvalidBelief`] if `bounds` is empty or has the wrong
///   dimension for the model.
pub fn incremental_backup(
    pomdp: &Pomdp,
    bounds: &mut VectorSetBound,
    belief: &Belief,
    beta: f64,
) -> Result<BackupOutcome, Error> {
    backup_counting_scored(pomdp, bounds, belief, beta).map(|(outcome, _)| outcome)
}

/// [`incremental_backup`], also returning how many actions it scored in
/// full (the rest were pruned by their upper bounds).
pub(crate) fn backup_counting_scored(
    pomdp: &Pomdp,
    bounds: &mut VectorSetBound,
    belief: &Belief,
    beta: f64,
) -> Result<(BackupOutcome, usize), Error> {
    if bounds.is_empty() {
        return Err(Error::InvalidBelief {
            reason: "cannot back up an empty bound set",
        });
    }
    if bounds.n_states() != pomdp.n_states() || belief.n_states() != pomdp.n_states() {
        return Err(Error::InvalidBelief {
            reason: "bound set and belief must match the model dimension",
        });
    }
    let n = pomdp.n_states();
    let nobs = pomdp.n_observations();
    let nv = bounds.len();
    let pi = belief.probs();
    let value_before = bounds
        .best_vector_quiet(pi)
        .map(|(_, v)| v)
        .unwrap_or(f64::NEG_INFINITY);

    // State-major copy of the set, vt[s·|V| + v] = V_v(s): the score
    // update for one successor state reads one contiguous row.
    let mut vt = vec![0.0f64; n * nv];
    for (v, vector) in bounds.iter().enumerate() {
        for (s, &x) in vector.iter().enumerate() {
            vt[s * nv + v] = x;
        }
    }
    // Scratch reused across actions. scores[o·|V| + v] accumulates
    // V_v · τ_o, where τ_o(s') = q(o|s',a)·pred(s') is the unnormalised
    // successor belief after (a, o); only reachable rows are non-zero.
    let mut pred = vec![0.0f64; n];
    let mut w = vec![0.0f64; n];
    let mut pw = vec![0.0f64; n];
    let mut ba = vec![0.0f64; n];
    let mut scores = vec![0.0f64; nobs * nv];

    // Until the first action is scored, `w` and `pw` hold the envelopes
    // U(s) = max_v V_v(s) and M(s) = max_v |V_v(s)|.
    for ((row, u), m) in vt.chunks_exact(nv).zip(&mut w).zip(&mut pw) {
        (*u, *m) = row.iter().fold((f64::NEG_INFINITY, 0.0f64), |(u, m), &x| {
            (u.max(x), m.max(x.abs()))
        });
    }
    let (upper, magnitude) = (&w, &pw);
    let mut ub = vec![f64::INFINITY; pomdp.n_actions()];
    let mut tol = vec![0.0f64; pomdp.n_actions()];
    if beta >= 0.0 {
        for (a, (ub_a, tol_a)) in ub.iter_mut().zip(&mut tol).enumerate() {
            let action = ActionId::new(a);
            pomdp
                .mdp()
                .transition_matrix(action)
                .matvec_transpose_into(pi, &mut pred)
                .expect("dimensions validated above");
            let mass = &pomdp.observation_row_masses()[pomdp.observation_class(action)];
            let (mut now, mut now_scale) = (0.0, 0.0);
            for (&p, &r) in pi.iter().zip(pomdp.mdp().reward_vector(action)) {
                now += p * r;
                now_scale += p * r.abs();
            }
            // pred · (ρ∘U) and its scale pred · (ρ∘M).
            let (mut next, mut next_scale) = (0.0, 0.0);
            for s in 0..n {
                let p = mass.positive[s];
                next += pred[s] * (p * upper[s]);
                next_scale += pred[s] * (p * magnitude[s]);
            }
            *ub_a = now + beta * next;
            *tol_a = PRUNE_TOLERANCE * (now_scale + beta * next_scale);
        }
    }
    // Best bound first; the stable sort keeps ties in index order.
    let mut order: Vec<usize> = (0..pomdp.n_actions()).collect();
    order.sort_by(|&x, &y| ub[y].total_cmp(&ub[x]));

    // Observations actually reachable from the current belief (some
    // τ_o entry is positive); the choice for an unreachable observation
    // is arbitrary (any hyperplane is sound there) and must not count
    // as usage.
    let mut reachable = vec![false; nobs];
    // choice[o] = index into the bound set of the hyperplane that is
    // best for τ_o.
    let mut choice = vec![0usize; nobs];

    let mut scored = 0;
    let mut best: Option<(f64, Vec<f64>, ActionId, Vec<usize>)> = None;
    for a in order {
        if best
            .as_ref()
            .is_some_and(|(bv, _, _, _)| ub[a] + tol[a] < *bv)
        {
            continue;
        }
        scored += 1;
        let action = ActionId::new(a);
        let transitions = pomdp.mdp().transition_matrix(action);
        transitions
            .matvec_transpose_into(pi, &mut pred)
            .expect("dimensions validated above");
        for (o, r) in reachable.iter_mut().enumerate() {
            if std::mem::take(r) {
                scores[o * nv..(o + 1) * nv].fill(0.0);
            }
        }
        // Walk the support of pred in ascending state order, so each
        // (o, v) accumulator sums the same non-zero products in the same
        // order as a dense dot product of V_v with τ_o. The skipped
        // terms (τ_o(s') = 0) are ±0 and change at most the sign of a
        // zero score, which no comparison below can see.
        for (s2, &p) in pred.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let column = &vt[s2 * nv..(s2 + 1) * nv];
            for (o, qv) in pomdp.observations_on_entering(s2, action) {
                let (o, t) = (o.index(), qv * p);
                if t > 0.0 {
                    reachable[o] = true;
                    dense::axpy(t, column, &mut scores[o * nv..(o + 1) * nv]);
                }
            }
        }
        for (o, c) in choice.iter_mut().enumerate() {
            // Ties go to the highest index, as in
            // `VectorSetBound::best_vector_quiet`. τ ≥ 0, so an
            // unreachable observation has τ_o = 0: every hyperplane
            // scores zero and the last one wins.
            *c = if reachable[o] {
                scores[o * nv..(o + 1) * nv]
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite bound values"))
                    .map_or(0, |(i, _)| i)
            } else {
                nv - 1
            };
        }
        // w(s') = Σ_o q(o|s',a) · b^{a,o}(s'), then b_a = r(a) + β P(a) w.
        for (s2, ws) in w.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (o, qv) in pomdp.observations_on_entering(s2, action) {
                acc += qv * vt[s2 * nv + choice[o.index()]];
            }
            *ws = acc;
        }
        transitions
            .matvec_into(&w, &mut pw)
            .expect("dimensions validated above");
        ba.copy_from_slice(pomdp.mdp().reward_vector(action));
        dense::axpy(beta, &pw, &mut ba);

        let value = dense::dot(pi, &ba);
        debug_assert!(
            value <= ub[a] + tol[a],
            "action {a} scored {value} above its bound {} + {}",
            ub[a],
            tol[a]
        );
        if best
            .as_ref()
            .is_none_or(|(bv, _, winner, _)| value > *bv || (value == *bv && action < *winner))
        {
            let support: Vec<usize> = (0..nobs)
                .filter(|&o| reachable[o])
                .map(|o| choice[o])
                .collect();
            best = Some((value, ba.clone(), action, support));
        }
    }
    let (value_at_pi, vector, action, support) = best.expect("model has at least one action");
    // The hyperplanes backing the winning action's reachable observation
    // branches are the ones the current policy actually leans on; mark
    // them so finite-storage eviction (paper §4.3) keeps the
    // load-bearing vectors. Recorded before insertion, while indices
    // are stable.
    for i in support {
        bounds.record_use(i);
    }
    let added = bounds.add_vector(vector.clone())?;
    let value_after = bounds
        .best_vector_quiet(pi)
        .map(|(_, v)| v)
        .unwrap_or(f64::NEG_INFINITY);
    debug_assert!(value_after + 1e-9 >= value_at_pi.min(value_before));
    Ok((
        BackupOutcome {
            vector,
            added,
            value_before,
            value_after,
            action,
        },
        scored,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::ra::tests::two_server_notified;
    use crate::bounds::{ra_bound, ValueBound};
    use bpr_mdp::chain::SolveOpts;

    #[test]
    fn backup_weakly_improves_at_the_point() {
        let p = two_server_notified();
        let mut set = ra_bound(&p, &SolveOpts::default()).unwrap();
        let b = Belief::uniform(3);
        for _ in 0..10 {
            let out = incremental_backup(&p, &mut set, &b, 1.0).unwrap();
            assert!(
                out.value_after + 1e-9 >= out.value_before,
                "backup decreased the bound: {out:?}"
            );
        }
    }

    #[test]
    fn backups_converge_toward_tighter_bound() {
        let p = two_server_notified();
        let mut set = ra_bound(&p, &SolveOpts::default()).unwrap();
        let b = Belief::uniform(3);
        let before = set.value(&b);
        // Back up at several beliefs to let information propagate.
        let points: Vec<Belief> = vec![
            Belief::uniform(3),
            Belief::from_probs(vec![0.9, 0.1, 0.0]).unwrap(),
            Belief::from_probs(vec![0.1, 0.9, 0.0]).unwrap(),
            Belief::from_probs(vec![0.45, 0.45, 0.1]).unwrap(),
        ];
        for _ in 0..50 {
            for pt in &points {
                incremental_backup(&p, &mut set, pt, 1.0).unwrap();
            }
        }
        let after = set.value(&b);
        assert!(
            after > before + 0.1,
            "expected significant improvement, got {before} -> {after}"
        );
        // And the bound stays below the optimum 0 >= V* >= -... : here
        // simply check it never crosses the trivial upper bound 0.
        assert!(after <= 1e-9);
    }

    #[test]
    fn backup_preserves_lower_bound_property_at_vertices() {
        // The bound at vertex beliefs must never exceed the MDP optimum
        // (POMDP value at a known state equals the MDP value... no:
        // the POMDP value at a vertex can be lower than the MDP value
        // because the state becomes uncertain after transitions; but it
        // can never exceed the QMDP upper bound).
        use crate::bounds::qmdp_bound;
        use bpr_mdp::value_iteration::Discount;
        let p = two_server_notified();
        let upper = qmdp_bound(&p, Discount::Undiscounted).unwrap();
        let mut set = ra_bound(&p, &SolveOpts::default()).unwrap();
        let pts: Vec<Belief> = (0..3).map(|s| Belief::point(3, s.into())).collect();
        for _ in 0..30 {
            for pt in &pts {
                incremental_backup(&p, &mut set, pt, 1.0).unwrap();
            }
        }
        for pt in &pts {
            assert!(set.value(pt) <= upper.value(pt) + 1e-7);
        }
    }

    #[test]
    fn backup_on_empty_set_is_an_error() {
        let p = two_server_notified();
        let mut set = VectorSetBound::new(3);
        assert!(matches!(
            incremental_backup(&p, &mut set, &Belief::uniform(3), 1.0),
            Err(Error::InvalidBelief { .. })
        ));
    }

    #[test]
    fn backup_reports_winning_action() {
        let p = two_server_notified();
        let mut set = ra_bound(&p, &SolveOpts::default()).unwrap();
        // Belief certain the fault is Fault(a): backing up should favour
        // Restart(a) (action 0).
        let b = Belief::point(3, 0.into());
        let out = incremental_backup(&p, &mut set, &b, 1.0).unwrap();
        assert_eq!(out.action.index(), 0);
    }

    #[test]
    fn set_growth_is_at_most_one_per_backup() {
        let p = two_server_notified();
        let mut set = ra_bound(&p, &SolveOpts::default()).unwrap();
        let mut prev = set.len();
        for i in 0..20 {
            let b = Belief::from_probs(vec![
                0.5 + 0.4 * ((i as f64) / 20.0),
                0.5 - 0.4 * ((i as f64) / 20.0),
                0.0,
            ])
            .unwrap();
            incremental_backup(&p, &mut set, &b, 1.0).unwrap();
            assert!(set.len() <= prev + 1);
            prev = set.len();
        }
    }

    /// A model whose observation matrices are given per action as
    /// `(entered, o, q)` triplets over deterministic transitions
    /// `s -> target[a]`, with rewards `(s, a, r)`.
    fn crafted(
        n: usize,
        n_obs: usize,
        target: &[usize],
        rewards: &[(usize, usize, f64)],
        observations: &[Vec<(usize, usize, f64)>],
    ) -> Pomdp {
        let mut mb = bpr_mdp::MdpBuilder::new(n, target.len());
        for (a, &t) in target.iter().enumerate() {
            for s in 0..n {
                mb.transition(s, a, t, 1.0);
            }
        }
        for &(s, a, r) in rewards {
            mb.reward(s, a, r);
        }
        let mut pb = crate::PomdpBuilder::new(mb.build().unwrap(), n_obs);
        for (a, triplets) in observations.iter().enumerate() {
            for &(s, o, q) in triplets {
                pb.observation(s, a, o, q);
            }
        }
        pb.build().unwrap()
    }

    fn set_of(vectors: &[Vec<f64>]) -> VectorSetBound {
        let mut set = VectorSetBound::new(vectors[0].len());
        for v in vectors {
            assert!(set.add_vector(v.clone()).unwrap(), "undominated");
        }
        set
    }

    #[test]
    fn an_action_whose_bound_equals_the_best_value_is_still_scored() {
        // Action 1 has the larger bound (2) but value 0: it moves to
        // state 1 or 2 with even odds, its one observation blends them,
        // and the two hyperplanes cancel there. Action 0 reaches state
        // 0, where every hyperplane is zero, so its bound is exactly 0
        // with a zero margin. It ties action 1 and must win on the
        // lower index.
        let mut mb = bpr_mdp::MdpBuilder::new(3, 2);
        for s in 0..3 {
            mb.transition(s, 0, 0, 1.0);
            mb.transition(s, 1, 1, 0.5);
            mb.transition(s, 1, 2, 0.5);
        }
        let mut pb = crate::PomdpBuilder::new(mb.build().unwrap(), 1);
        for s in 0..3 {
            pb.observation_all_actions(s, 0, 1.0);
        }
        let p = pb.build().unwrap();
        let mut set = set_of(&[vec![0.0, 2.0, -2.0], vec![0.0, -2.0, 2.0]]);
        let (out, scored) = backup_counting_scored(&p, &mut set, &Belief::uniform(3), 1.0).unwrap();
        assert_eq!(out.action.index(), 0);
        assert_eq!(scored, 2);
    }

    #[test]
    fn negative_observation_entries_are_dropped_before_the_backup() {
        // Entering state 0 under action 0 emits o0 and o1 with 0.5 +
        // 5.25e-9 each and o2..o11 with -1e-9 each (a row the builder
        // accepts: it sums to 1 + 5e-10). The builder stores only o0
        // and o1, so action 0 is worth w(0) = 1 + 10.5e-9, its row mass
        // times the best plane there, and action 1, worth 1 + 15e-9,
        // wins. Had the negative entries been kept, they would have
        // added 10e-9 through the last plane (-1 at state 0) and
        // action 0 would have won.
        let q = 0.5 + 5.25e-9;
        let row: Vec<(usize, usize, f64)> = [(0, 0, q), (0, 1, q)]
            .into_iter()
            .chain((2..12).map(|o| (0, o, -1e-9)))
            .chain([(1, 0, 1.0)])
            .collect();
        let p = crafted(
            2,
            12,
            &[0, 0],
            &[(0, 1, 15e-9), (1, 1, 15e-9)],
            &[row, vec![(0, 0, 1.0), (1, 0, 1.0)]],
        );
        let stored: Vec<(usize, f64)> = p.observation_matrix(0).row(0).collect();
        assert_eq!(stored, vec![(0, q), (1, q)]);
        let mut set = set_of(&[vec![1.0, -1.0], vec![-1.0, 1.0]]);
        let (out, scored) =
            backup_counting_scored(&p, &mut set, &Belief::point(2, 0.into()), 1.0).unwrap();
        assert_eq!(out.action.index(), 1);
        assert_eq!(out.vector[0], 1.0 + 15e-9, "{:?}", out.vector);
        assert_eq!(scored, 1, "action 0's bound (1 + 10.5e-9) is below");
    }

    #[test]
    fn an_action_scored_one_rounding_above_its_bound_still_wins() {
        // With one hyperplane every bound is exact in real arithmetic,
        // but action 0 computes w(2) = 0.1·v + 0.2·v + 0.7·v one ulp
        // above the bound (0.1 + 0.2 + 0.7)·v. Action 1 reaches state
        // 0, where the hyperplane is zero, and its reward is exactly
        // action 0's computed value, so its bound (that value) is the
        // larger one and it is scored first; action 0 ties it and must
        // win on the lower index, which only the margin lets it reach.
        let v = -7.7;
        let qs = [0.1, 0.2, 0.7];
        let w = qs.iter().fold(0.0, |acc, q| acc + q * v);
        let mass = qs.iter().fold(0.0, |acc, q| acc + q);
        assert!(w > mass * v, "the fixture rounds the way it needs to");
        let p = crafted(
            3,
            3,
            &[2, 0],
            &[(1, 1, w)],
            &[
                (0..2)
                    .map(|s| (s, 0, 1.0))
                    .chain(qs.iter().enumerate().map(|(o, &q)| (2, o, q)))
                    .collect(),
                (0..3).map(|s| (s, 0, 1.0)).collect(),
            ],
        );
        let mut set = set_of(&[vec![0.0, 0.0, v]]);
        let (out, scored) =
            backup_counting_scored(&p, &mut set, &Belief::point(3, 1.into()), 1.0).unwrap();
        assert_eq!(out.action.index(), 0);
        assert_eq!(out.vector[1].to_bits(), w.to_bits());
        assert_eq!(scored, 2);
    }

    #[test]
    #[cfg_attr(miri, ignore = "an EMN trajectory is too slow under miri")]
    fn most_actions_are_pruned_along_an_emn_trajectory() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The paper's EMN model without notification, rebuilt as this
        // crate's type from the scenario crate's copy.
        let config = bpr_emn::EmnConfig::default();
        let base = bpr_emn::build_model(&config).unwrap();
        let observe = base.observe_actions()[0];
        let model = base
            .without_notification(config.operator_response_time)
            .unwrap();
        let emn = model.pomdp();
        let mut pb = crate::PomdpBuilder::new(emn.mdp().clone(), emn.n_observations());
        for a in 0..emn.n_actions() {
            for s in 0..emn.n_states() {
                for (o, q) in emn.observation_matrix(a).row(s) {
                    pb.observation(s, a, o, q);
                }
            }
        }
        let p = pb.build().unwrap();
        let faults = model.fault_states();
        let n = p.n_states();
        // Random-bootstrap episodes: a random fault, the uniform fault
        // belief conditioned on one monitor reading, then back up and act
        // on the winning action until the fault is gone.
        let mut set = ra_bound(&p, &SolveOpts::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (mut backups, mut scored) = (0, 0);
        for _ in 0..60 {
            let mut state = faults[rng.gen_range(0..faults.len())];
            let o = p.sample_observation(&mut rng, state, observe);
            let mut belief = Belief::uniform_over(n, &faults)
                .update(&p, observe, o)
                .unwrap()
                .0;
            for _ in 0..10 {
                let (out, k) = backup_counting_scored(&p, &mut set, &belief, 1.0).unwrap();
                backups += 1;
                scored += k;
                state = p.sample_transition(&mut rng, state, out.action);
                let o = p.sample_observation(&mut rng, state, out.action);
                belief = belief.update(&p, out.action, o).unwrap().0;
                if !faults.contains(&state) {
                    break;
                }
            }
        }
        let share = scored as f64 / (backups * p.n_actions()) as f64;
        assert!(set.len() > 20, "the bound grew ({} hyperplanes)", set.len());
        assert!(
            share < 0.3,
            "{scored} of {} actions scored in {backups} backups",
            backups * p.n_actions()
        );
    }
}
