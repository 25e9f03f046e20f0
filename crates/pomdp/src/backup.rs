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

/// Performs one incremental backup of `bounds` at `belief` and inserts
/// the resulting hyperplane into the set (paper Eq. 7).
///
/// For every action `a` it builds the vector
/// `b_a(s) = r(s, a) + β Σ_o Σ_{s'} p(s'|s,a) q(o|s',a) b^{π,a,o}(s')`,
/// where `b^{π,a,o}` is the existing hyperplane that is best for the
/// (unnormalised) successor belief after `(a, o)`; the inserted vector
/// is the `b_a` with the largest value at `belief`.
///
/// The new bound satisfies `V_B'(π) = (L_p V_B)(π) ≥ V_B(π)` whenever
/// the input set satisfies `V_B ≤ L_p V_B` (Property 1(b)), which the
/// RA-Bound does; backups therefore never make the bound worse anywhere
/// and weakly improve it at `π`.
///
/// The per-observation hyperplane choice is computed state-major over
/// the support of `P_aᵀπ`, so one backup costs
/// O(|A|·(nnz(P_a) + nnz(Q_a on supp P_aᵀπ)·|V|)) plus lower-order
/// terms instead of the dense O(|A|·|O|·|V|·|S|); the result is
/// bit-identical to the dense formulation (DESIGN.md §5l).
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
    let value_before = bounds
        .best_vector_quiet(belief.probs())
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
    // Observations actually reachable from the current belief (some
    // τ_o entry is positive); the choice for an unreachable observation
    // is arbitrary (any hyperplane is sound there) and must not count
    // as usage.
    let mut reachable = vec![false; nobs];
    // choice[o] = index into the bound set of the hyperplane that is
    // best for τ_o.
    let mut choice = vec![0usize; nobs];

    let mut best: Option<(f64, Vec<f64>, ActionId, Vec<usize>)> = None;
    for a in 0..pomdp.n_actions() {
        let action = ActionId::new(a);
        let transitions = pomdp.mdp().transition_matrix(action);
        transitions
            .matvec_transpose_into(belief.probs(), &mut pred)
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

        let value = dense::dot(belief.probs(), &ba);
        if best.as_ref().is_none_or(|(bv, _, _, _)| value > *bv) {
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
        .best_vector_quiet(belief.probs())
        .map(|(_, v)| v)
        .unwrap_or(f64::NEG_INFINITY);
    debug_assert!(value_after + 1e-9 >= value_at_pi.min(value_before));
    Ok(BackupOutcome {
        vector,
        added,
        value_before,
        value_after,
        action,
    })
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
}
