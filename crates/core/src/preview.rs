//! Policy preview: materialise the controller's decision surface as a
//! human-readable rule table.
//!
//! The paper's introduction motivates automatic recovery by the pain of
//! hand-written "if-then" recovery rules. This module inverts that:
//! given a bounded controller's model and bound, it walks the belief
//! states reachable from an initial belief and tabulates the action the
//! controller would take in each — an automatically generated,
//! reviewable rule table for operators.

use crate::{Error, TerminatedModel};
use bpr_mdp::ActionId;
use bpr_pomdp::bounds::VectorSetBound;
use bpr_pomdp::{tree, Belief};
use std::collections::{HashMap, VecDeque};

/// One rule of the preview: in (roughly) this belief, do this.
#[derive(Debug, Clone, PartialEq)]
pub struct PreviewRow {
    /// Distance (in decisions) from the initial belief.
    pub depth: usize,
    /// The belief state the rule applies to.
    pub belief: Belief,
    /// The chosen action; `None` means terminate.
    pub action: Option<ActionId>,
    /// The expansion value of the decision.
    pub value: f64,
    /// Probability of reaching this belief from the root following the
    /// controller's own actions (product of observation likelihoods).
    pub reach_probability: f64,
}

/// Options for [`preview`].
#[derive(Debug, Clone, PartialEq)]
pub struct PreviewOpts {
    /// How many decision levels to walk.
    pub horizon: usize,
    /// Stop after this many distinct beliefs.
    pub max_rows: usize,
    /// Tree depth used for each decision.
    pub tree_depth: usize,
    /// Observation-branch cutoff during both deciding and walking.
    pub gamma_cutoff: f64,
    /// Beliefs are deduplicated after rounding probabilities to this
    /// many decimal places.
    pub dedup_decimals: u32,
}

impl Default for PreviewOpts {
    fn default() -> PreviewOpts {
        PreviewOpts {
            horizon: 4,
            max_rows: 200,
            tree_depth: 1,
            gamma_cutoff: 1e-3,
            dedup_decimals: 3,
        }
    }
}

fn dedup_key(belief: &Belief, decimals: u32) -> Vec<u64> {
    let scale = 10f64.powi(decimals as i32);
    belief
        .probs()
        .iter()
        .map(|p| (p * scale).round() as u64)
        .collect()
}

/// Walks the belief states reachable from `initial` under the
/// controller's own decisions and returns the rule table, breadth
/// first (most-reachable beliefs first within a level).
///
/// # Errors
///
/// * [`Error::InvalidInput`] for a zero horizon/tree depth or a belief
///   of the wrong dimension.
/// * Propagates expansion failures.
pub fn preview(
    model: &TerminatedModel,
    bound: &VectorSetBound,
    initial: &Belief,
    opts: &PreviewOpts,
) -> Result<Vec<PreviewRow>, Error> {
    if opts.horizon == 0 || opts.tree_depth == 0 {
        return Err(Error::InvalidInput {
            detail: "preview horizon and tree depth must be at least 1".into(),
        });
    }
    let pomdp = model.pomdp();
    let initial = model.lift(initial.clone())?;

    let mut rows = Vec::new();
    let mut seen: HashMap<Vec<u64>, ()> = HashMap::new();
    let mut queue: VecDeque<(usize, f64, Belief)> = VecDeque::new();
    queue.push_back((0, 1.0, initial));

    while let Some((depth, reach, belief)) = queue.pop_front() {
        if rows.len() >= opts.max_rows {
            break;
        }
        let key = dedup_key(&belief, opts.dedup_decimals);
        if seen.contains_key(&key) {
            continue;
        }
        seen.insert(key, ());

        let decision = tree::expand_with_cutoff(
            pomdp,
            &belief,
            opts.tree_depth,
            bound,
            1.0,
            opts.gamma_cutoff,
        )
        .map_err(Error::Pomdp)?;
        let terminate = model.terminates(decision.action, decision.value, &decision.q_values, true);
        rows.push(PreviewRow {
            depth,
            belief: belief.clone(),
            action: if terminate {
                None
            } else {
                Some(decision.action)
            },
            value: decision.value,
            reach_probability: reach,
        });
        if terminate || depth + 1 >= opts.horizon {
            continue;
        }
        for (_o, gamma, next) in belief.successors(pomdp, decision.action, opts.gamma_cutoff) {
            queue.push_back((depth + 1, reach * gamma, next));
        }
    }
    Ok(rows)
}

/// Formats a preview as an indented text table using the model's
/// state/action labels; `top_k` states are shown per belief.
pub fn render(model: &TerminatedModel, rows: &[PreviewRow], top_k: usize) -> String {
    let pomdp = model.pomdp();
    let mut out = String::new();
    for row in rows {
        let mut ranked: Vec<(usize, f64)> = row
            .belief
            .probs()
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, p)| *p > 1e-4)
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(top_k);
        let belief_desc: Vec<String> = ranked
            .iter()
            .map(|(s, p)| format!("{}:{:.2}", pomdp.mdp().state_label(*s), p))
            .collect();
        let action_desc = match row.action {
            Some(a) => pomdp.mdp().action_label(a).to_string(),
            None => "TERMINATE".to_string(),
        };
        out.push_str(&format!(
            "{:indent$}[p={:.3}] if belief ~ {{{}}} then {}\n",
            "",
            row.reach_probability,
            belief_desc.join(", "),
            action_desc,
            indent = row.depth * 2,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::two_server_model;
    use bpr_mdp::chain::SolveOpts;
    use bpr_pomdp::bounds::ra_bound;

    fn setup() -> (TerminatedModel, VectorSetBound) {
        let model = two_server_model().without_notification(25.0).unwrap();
        let bound = ra_bound(model.pomdp(), &SolveOpts::default()).unwrap();
        (model, bound)
    }

    #[test]
    fn preview_walks_reachable_beliefs() {
        let (model, bound) = setup();
        let initial = Belief::uniform_over(3, &[0.into(), 1.into()]);
        let rows = preview(&model, &bound, &initial, &PreviewOpts::default()).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(rows[0].depth, 0);
        assert_eq!(rows[0].reach_probability, 1.0);
        // Depths never exceed the horizon and are non-decreasing (BFS).
        let mut prev = 0;
        for r in &rows {
            assert!(r.depth < PreviewOpts::default().horizon);
            assert!(r.depth >= prev);
            prev = r.depth;
            assert!(r.reach_probability > 0.0 && r.reach_probability <= 1.0);
        }
    }

    #[test]
    fn terminating_beliefs_are_leaves() {
        let (model, bound) = setup();
        // Starting essentially recovered: the single row terminates.
        let initial = Belief::from_probs(vec![0.001, 0.001, 0.998]).unwrap();
        let rows = preview(&model, &bound, &initial, &PreviewOpts::default()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].action, None);
    }

    #[test]
    fn render_produces_readable_rules() {
        let (model, bound) = setup();
        let initial = Belief::uniform_over(3, &[0.into(), 1.into()]);
        let rows = preview(&model, &bound, &initial, &PreviewOpts::default()).unwrap();
        let text = render(&model, &rows, 2);
        assert!(text.contains("if belief ~"));
        assert!(text.contains("then"));
        assert!(text.lines().count() >= rows.len());
    }

    #[test]
    fn bad_options_are_rejected() {
        let (model, bound) = setup();
        let initial = Belief::uniform(3);
        for opts in [
            PreviewOpts {
                horizon: 0,
                ..PreviewOpts::default()
            },
            PreviewOpts {
                tree_depth: 0,
                ..PreviewOpts::default()
            },
        ] {
            assert!(preview(&model, &bound, &initial, &opts).is_err());
        }
        assert!(preview(&model, &bound, &Belief::uniform(9), &PreviewOpts::default()).is_err());
    }

    #[test]
    fn max_rows_caps_the_walk() {
        let (model, bound) = setup();
        let initial = Belief::uniform_over(3, &[0.into(), 1.into()]);
        let rows = preview(
            &model,
            &bound,
            &initial,
            &PreviewOpts {
                max_rows: 3,
                horizon: 10,
                ..PreviewOpts::default()
            },
        )
        .unwrap();
        assert!(rows.len() <= 3);
    }
}
