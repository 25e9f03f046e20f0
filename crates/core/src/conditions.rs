//! Validation of the paper's structural conditions on recovery models.
//!
//! * **Condition 1** (§3.1): there is a non-empty set of null-fault
//!   states `S_φ`, and from every state at least one action sequence
//!   reaches `S_φ`.
//! * **Condition 2** (§3.2): all single-step rewards are non-positive
//!   (the model is a negative MDP; values are bounded above by 0).
//! * **No free actions** (Property 1(a), §4.2): every action outside
//!   the exempt states accrues strictly negative reward, which is what
//!   makes the bounded controller's termination argument go through.
//!
//! These checks are built on (and subsumed by) the `bpr-lint` static
//! analyzer, re-exported here as [`lint`](crate::lint): where a
//! condition check fails fast with an [`Error`] carrying **all**
//! violations, [`lint::lint_pomdp`](bpr_lint::lint_pomdp) produces the
//! full structured report with severities and fix-it hints. Use the
//! checks for construction-time gating and the analyzer for diagnosis.

use crate::Error;
use bpr_lint::checks;
pub use bpr_lint::{
    lint_pomdp, Diagnostic, LintCode, LintContext, LintReport, Severity, Stage, Termination,
};
use bpr_mdp::StateId;
use bpr_pomdp::Pomdp;

/// Checks Condition 1: `null_states` is non-empty, in bounds, and
/// reachable (under *some* action sequence) from every state.
///
/// Reachability is evaluated on the union graph of all actions — an
/// edge `s → s'` exists if any action moves `s` to `s'` with positive
/// probability — which is exactly "there is at least one way to
/// recover".
///
/// # Errors
///
/// Returns [`Error::Condition1Violated`] naming **every** offending
/// state (not just the first) in the detail message.
pub fn check_condition1(pomdp: &Pomdp, null_states: &[StateId]) -> Result<(), Error> {
    if null_states.is_empty() {
        return Err(Error::Condition1Violated {
            detail: "the set of null-fault states is empty".into(),
        });
    }
    let oob: Vec<String> = null_states
        .iter()
        .filter(|s| s.index() >= pomdp.n_states())
        .map(|s| s.to_string())
        .collect();
    if !oob.is_empty() {
        return Err(Error::Condition1Violated {
            detail: format!("null state(s) {} out of bounds", oob.join(", ")),
        });
    }
    let ctx = LintContext::raw(null_states.to_vec());
    let stranded = checks::unrecoverable_states(pomdp, &ctx);
    if !stranded.is_empty() {
        let described: Vec<String> = stranded
            .iter()
            .map(|s| format!("{} ({})", s.index(), pomdp.mdp().state_label(*s)))
            .collect();
        return Err(Error::Condition1Violated {
            detail: format!(
                "state(s) {} cannot reach any null-fault state",
                described.join(", ")
            ),
        });
    }
    Ok(())
}

/// Checks Condition 2: all single-step rewards are `<= 0`.
///
/// # Errors
///
/// Returns [`Error::Condition2Violated`] listing **every** positive
/// `(state, action, reward)` triple.
pub fn check_condition2(pomdp: &Pomdp) -> Result<(), Error> {
    let violations = checks::positive_rewards(pomdp);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(Error::Condition2Violated { violations })
    }
}

/// Checks Property 1(a): `|r(s, a)| > 0` for every action in every
/// state outside `exempt` (the null-fault states for systems with
/// recovery notification, the terminate state for systems without).
///
/// This is the strict precondition of the controller's termination
/// guarantee. Models like the paper's EMN system technically have free
/// observe actions in `S_φ`, so callers typically pass
/// `exempt = S_φ ∪ {s_T}`.
///
/// # Errors
///
/// Returns [`Error::FreeAction`] listing **every** free
/// `(state, action)` pair.
pub fn check_no_free_actions(pomdp: &Pomdp, exempt: &[StateId]) -> Result<(), Error> {
    let ctx = LintContext::raw(Vec::new()).with_exempt(exempt.to_vec());
    let violations = checks::free_action_pairs(pomdp, &ctx);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(Error::FreeAction { violations })
    }
}

/// Checks Property 1(b) at a set of probe beliefs: the bound must be
/// *uniformly improvable*, `V_B(π) ≤ (L_p V_B)(π)`, which together with
/// the no-free-actions condition yields the controller's termination
/// guarantee (§4.2).
///
/// A depth-1 Max-Avg expansion with `bound` at the leaves computes
/// exactly `(L_p V_B)(π)`. This is a sampled diagnostic, not a proof —
/// the RA-Bound satisfies the property everywhere by construction, and
/// incremental backups preserve it; use this to validate hand-built
/// bound sets.
///
/// Returns the first belief (by index) violating the property, if any.
///
/// # Errors
///
/// Propagates tree-expansion failures (e.g. an empty bound set).
pub fn check_uniform_improvability(
    pomdp: &Pomdp,
    bound: &bpr_pomdp::bounds::VectorSetBound,
    probes: &[bpr_pomdp::Belief],
    tolerance: f64,
) -> Result<Option<usize>, Error> {
    use bpr_pomdp::bounds::ValueBound;
    for (i, belief) in probes.iter().enumerate() {
        let v = bound.value(belief);
        let lp = bpr_pomdp::tree::expand_with_cutoff(pomdp, belief, 1, bound, 1.0, 0.0)
            .map_err(Error::Pomdp)?
            .value;
        if v > lp + tolerance {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpr_mdp::MdpBuilder;
    use bpr_pomdp::PomdpBuilder;

    fn pomdp_from(mb: &MdpBuilder) -> Pomdp {
        let mdp = mb.build().unwrap();
        let n = mdp.n_states();
        let mut pb = PomdpBuilder::new(mdp, 1);
        for s in 0..n {
            pb.observation_all_actions(s, 0, 1.0);
        }
        pb.build().unwrap()
    }

    #[test]
    fn condition1_accepts_recoverable_model() {
        let mut mb = MdpBuilder::new(2, 1);
        mb.transition(0, 0, 1, 1.0).reward(0, 0, -1.0);
        mb.transition(1, 0, 1, 1.0);
        let p = pomdp_from(&mb);
        assert!(check_condition1(&p, &[StateId::new(1)]).is_ok());
    }

    #[test]
    fn condition1_rejects_empty_null_set() {
        let mut mb = MdpBuilder::new(1, 1);
        mb.transition(0, 0, 0, 1.0);
        let p = pomdp_from(&mb);
        assert!(matches!(
            check_condition1(&p, &[]),
            Err(Error::Condition1Violated { .. })
        ));
    }

    #[test]
    fn condition1_rejects_unreachable_recovery() {
        // State 0 loops forever; state 1 is the null state.
        let mut mb = MdpBuilder::new(2, 1);
        mb.transition(0, 0, 0, 1.0).reward(0, 0, -1.0);
        mb.transition(1, 0, 1, 1.0);
        let p = pomdp_from(&mb);
        let err = check_condition1(&p, &[StateId::new(1)]).unwrap_err();
        match err {
            Error::Condition1Violated { detail } => assert!(detail.contains("0 (s0)")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn condition1_reports_all_stranded_states() {
        // States 0 and 1 both loop forever; only state 2 is null.
        let mut mb = MdpBuilder::new(3, 1);
        mb.transition(0, 0, 0, 1.0).reward(0, 0, -1.0);
        mb.transition(1, 0, 1, 1.0).reward(1, 0, -1.0);
        mb.transition(2, 0, 2, 1.0);
        let p = pomdp_from(&mb);
        let err = check_condition1(&p, &[StateId::new(2)]).unwrap_err();
        match err {
            Error::Condition1Violated { detail } => {
                assert!(detail.contains("0 (s0)"), "{detail}");
                assert!(detail.contains("1 (s1)"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn condition1_rejects_out_of_bounds_null_state() {
        let mut mb = MdpBuilder::new(1, 1);
        mb.transition(0, 0, 0, 1.0);
        let p = pomdp_from(&mb);
        let err = check_condition1(&p, &[StateId::new(5)]).unwrap_err();
        match err {
            Error::Condition1Violated { detail } => assert!(detail.contains("s5")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn condition1_uses_union_graph_across_actions() {
        // Recovery needs two different actions in sequence: 0 -a1-> 1 -a0-> 2.
        let mut mb = MdpBuilder::new(3, 2);
        mb.transition(0, 0, 0, 1.0).reward(0, 0, -1.0);
        mb.transition(0, 1, 1, 1.0).reward(0, 1, -1.0);
        mb.transition(1, 0, 2, 1.0).reward(1, 0, -1.0);
        mb.transition(1, 1, 1, 1.0).reward(1, 1, -1.0);
        mb.transition(2, 0, 2, 1.0);
        mb.transition(2, 1, 2, 1.0);
        let p = pomdp_from(&mb);
        assert!(check_condition1(&p, &[StateId::new(2)]).is_ok());
    }

    #[test]
    fn condition2_reports_all_positive_rewards() {
        let mut mb = MdpBuilder::new(2, 1);
        mb.transition(0, 0, 0, 1.0).reward(0, 0, 0.25);
        mb.transition(1, 0, 1, 1.0).reward(1, 0, 0.75);
        let p = pomdp_from(&mb);
        match check_condition2(&p).unwrap_err() {
            Error::Condition2Violated { violations } => {
                assert_eq!(violations, vec![(0, 0, 0.25), (1, 0, 0.75)]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn condition2_accepts_costs() {
        let mut mb = MdpBuilder::new(1, 2);
        mb.transition(0, 0, 0, 1.0).reward(0, 0, -0.1);
        mb.transition(0, 1, 0, 1.0).reward(0, 1, 0.0);
        let p = pomdp_from(&mb);
        assert!(check_condition2(&p).is_ok());
    }

    #[test]
    fn uniform_improvability_accepts_ra_and_rejects_inflated_bounds() {
        use bpr_pomdp::bounds::{ra_bound, VectorSetBound};
        use bpr_pomdp::Belief;
        let model = crate::model::tests::two_server_model()
            .without_notification(10.0)
            .unwrap();
        let probes: Vec<Belief> = (0..4)
            .map(|s| Belief::point(4, StateId::new(s)))
            .chain([Belief::uniform(4)])
            .collect();
        let ra = ra_bound(model.pomdp(), &Default::default()).unwrap();
        assert_eq!(
            check_uniform_improvability(model.pomdp(), &ra, &probes, 1e-9).unwrap(),
            None
        );
        // An inflated "bound" (all zeros) claims the faulty states are
        // free, which one Bellman application refutes.
        let zero = VectorSetBound::from_vector(vec![0.0; 4]).unwrap();
        let violation = check_uniform_improvability(model.pomdp(), &zero, &probes, 1e-9).unwrap();
        assert!(violation.is_some());
    }

    #[test]
    fn free_action_check_reports_all_pairs_with_actions() {
        let mut mb = MdpBuilder::new(2, 2);
        mb.transition(0, 0, 1, 1.0).reward(0, 0, -1.0);
        mb.transition(0, 1, 0, 1.0).reward(0, 1, 0.0);
        mb.transition(1, 0, 1, 1.0).reward(1, 0, 0.0);
        mb.transition(1, 1, 1, 1.0).reward(1, 1, 0.0);
        let p = pomdp_from(&mb);
        match check_no_free_actions(&p, &[]).unwrap_err() {
            Error::FreeAction { violations } => {
                assert_eq!(violations, vec![(0, 1), (1, 0), (1, 1)]);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(matches!(
            check_no_free_actions(&p, &[StateId::new(1)]).unwrap_err(),
            Error::FreeAction { violations } if violations == vec![(0, 1)]
        ));
    }

    #[test]
    fn condition_checks_agree_with_lint_analyzer() {
        // The fast-fail checks and the full analyzer are built on the
        // same primitives: a model failing a check must lint dirty, and
        // the clean two-server model must pass both.
        let model = crate::model::tests::two_server_model();
        assert!(check_condition1(model.base(), model.null_states()).is_ok());
        assert!(check_condition2(model.base()).is_ok());
        let report = lint_pomdp(
            model.base(),
            &LintContext::raw(model.null_states().to_vec()).full(),
        );
        assert!(!report.has_errors(), "{}", report.render());

        let mut mb = MdpBuilder::new(2, 1);
        mb.transition(0, 0, 0, 1.0).reward(0, 0, 0.5);
        mb.transition(1, 0, 1, 1.0);
        let bad = pomdp_from(&mb);
        assert!(check_condition1(&bad, &[StateId::new(1)]).is_err());
        assert!(check_condition2(&bad).is_err());
        let report = lint_pomdp(&bad, &LintContext::raw(vec![StateId::new(1)]));
        assert!(report.has_errors());
        let codes: Vec<&str> = report
            .diagnostics()
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        assert!(codes.contains(&LintCode::UnrecoverableState.as_str()));
        assert!(codes.contains(&LintCode::PositiveReward.as_str()));
    }
}
