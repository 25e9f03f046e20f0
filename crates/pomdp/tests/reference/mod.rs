//! Test-only reference for `bpr_pomdp::backup::incremental_backup`:
//! the dense, observation-major formulation of the paper's Eq. 7
//! backup. For every action it materialises the `|O| × |S|`
//! unnormalised successor beliefs `τ_o` and picks each observation's
//! hyperplane with one dense `best_vector_quiet` per observation.
//!
//! The library kernel must match it bit for bit; the differential
//! tests in `properties.rs` and `backup_differential.rs` hold it to
//! that.

use bpr_linalg::dense;
use bpr_mdp::ActionId;
use bpr_pomdp::backup::BackupOutcome;
use bpr_pomdp::bounds::VectorSetBound;
use bpr_pomdp::{Belief, Error, Pomdp};

/// The dense reference backup: same contract, same result as
/// `incremental_backup`.
pub fn reference_backup(
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
    let value_before = bounds
        .best_vector_quiet(belief.probs())
        .map(|(_, v)| v)
        .unwrap_or(f64::NEG_INFINITY);

    let mut best: Option<(f64, Vec<f64>, ActionId, Vec<usize>)> = None;
    for a in 0..pomdp.n_actions() {
        let action = ActionId::new(a);
        let pred = belief.predict(pomdp, action);
        // For each observation, pick the hyperplane that is best for the
        // unnormalised successor belief τ(s') = q(o|s',a)·pred(s').
        // choice[o] = index into the bound set.
        let nobs = pomdp.n_observations();
        let mut choice = vec![0usize; nobs];
        // Observations actually reachable from the current belief; the
        // choice for an unreachable observation is arbitrary (any
        // hyperplane is sound there) and must not count as usage.
        let mut reachable = vec![false; nobs];
        {
            // τ built observation-by-observation using the sparse
            // observation matrix.
            let mut tau = vec![vec![0.0f64; n]; nobs];
            for s2 in 0..n {
                if pred[s2] == 0.0 {
                    continue;
                }
                for (o, qv) in pomdp.observations_on_entering(s2, action) {
                    tau[o.index()][s2] = qv * pred[s2];
                    reachable[o.index()] |= qv * pred[s2] > 0.0;
                }
            }
            for (o, tau_o) in tau.iter().enumerate() {
                choice[o] = bounds.best_vector_quiet(tau_o).map(|(i, _)| i).unwrap_or(0);
            }
        }
        // w(s') = Σ_o q(o|s',a) · b^{a,o}(s'), then b_a = r(a) + β P(a) w.
        let set_vectors: Vec<&[f64]> = bounds.iter().collect();
        let mut w = vec![0.0f64; n];
        for s2 in 0..n {
            let mut acc = 0.0;
            for (o, qv) in pomdp.observations_on_entering(s2, action) {
                acc += qv * set_vectors[choice[o.index()]][s2];
            }
            w[s2] = acc;
        }
        let pw = pomdp
            .mdp()
            .transition_matrix(action)
            .matvec(&w)
            .expect("dimensions validated above");
        let mut ba = pomdp.mdp().reward_vector(action).to_vec();
        dense::axpy(beta, &pw, &mut ba);

        let value = dense::dot(belief.probs(), &ba);
        if best.as_ref().is_none_or(|(bv, _, _, _)| value > *bv) {
            let support: Vec<usize> = (0..nobs)
                .filter(|&o| reachable[o])
                .map(|o| choice[o])
                .collect();
            best = Some((value, ba, action, support));
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

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

fn set_bits(set: &VectorSetBound) -> Vec<Vec<u64>> {
    set.iter().map(bits).collect()
}

/// Backs `set` up at `belief` with the library kernel and a clone of it
/// with [`reference_backup`], asserts that the outcomes and the
/// resulting sets (hyperplanes and usage counts) agree bit for bit, and
/// returns the kernel's outcome.
pub fn backup_both(
    pomdp: &Pomdp,
    set: &mut VectorSetBound,
    belief: &Belief,
    beta: f64,
) -> BackupOutcome {
    let mut expected_set = set.clone();
    let expected =
        reference_backup(pomdp, &mut expected_set, belief, beta).expect("reference backup");
    let got =
        bpr_pomdp::backup::incremental_backup(pomdp, set, belief, beta).expect("kernel backup");
    assert_eq!(bits(&got.vector), bits(&expected.vector), "backup vector");
    assert_eq!(got.added, expected.added, "added");
    assert_eq!(got.action, expected.action, "winning action");
    assert_eq!(
        got.value_before.to_bits(),
        expected.value_before.to_bits(),
        "value before"
    );
    assert_eq!(
        got.value_after.to_bits(),
        expected.value_after.to_bits(),
        "value after"
    );
    assert_eq!(set_bits(set), set_bits(&expected_set), "hyperplanes");
    assert_eq!(set.usage_counts(), expected_set.usage_counts(), "usage");
    got
}
