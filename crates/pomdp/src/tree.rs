//! Finite-depth Max-Avg tree expansion (paper Fig. 1(b)).
//!
//! The online controller chooses actions by unrolling the POMDP dynamic
//! programming recursion (Eq. 2) to a small depth from the current
//! belief, evaluating a bound at the leaves, and executing the action
//! that maximises the root value. With a *lower* bound at the leaves the
//! controller inherits the termination guarantees of paper §4.2.
//!
//! # The fused kernel
//!
//! Expansion runs on precomputed fused posterior operators
//! `τ_{a,o} = diag(q(o|·,a)) ∘ P_aᵀ`: one `P_aᵀ π` transpose SpMV per
//! `(node, action)` ([`bpr_linalg::CsrMatrix::matvec_transpose_into`])
//! followed by one sparse diagonal scale per observation
//! ([`bpr_linalg::CsrMatrix::row_scaled_into`] over
//! [`Pomdp::observation_transpose`]). Because the legacy scatter in
//! [`Belief::successors`] writes each `(o, s')` cell exactly once as the
//! single product `q(o|s',a) · pred(s')`, the fused path produces
//! bit-identical `γ` values, posteriors, and branch order — it only
//! removes the per-node rebuild of the `|O|`-slot scatter table. All
//! scratch lives in a caller-provided [`PlanWorkspace`], so steady-state
//! decisions allocate nothing; the pre-fusion implementation is kept
//! verbatim in [`legacy`] as the equivalence/baseline reference.

use crate::bounds::ValueBound;
use crate::plan::{BbEntry, CacheEpoch, PlanWorkspace};
use crate::{Belief, Error, Pomdp};
use bpr_linalg::dense;
use bpr_mdp::ActionId;
use bpr_par::WorkPool;

/// The decision produced by a tree expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The maximising action at the root.
    pub action: ActionId,
    /// The root value under the expansion.
    pub value: f64,
    /// Per-action root values (`q_values[a]` for action `a`).
    pub q_values: Vec<f64>,
    /// Number of belief nodes evaluated (leaves + interior).
    pub nodes_expanded: usize,
}

impl Default for Decision {
    fn default() -> Decision {
        Decision {
            action: ActionId::new(0),
            value: f64::NEG_INFINITY,
            q_values: Vec::new(),
            nodes_expanded: 0,
        }
    }
}

fn depth_zero_error() -> Error {
    Error::IndexOutOfBounds {
        what: "tree depth (must be >= 1)",
        index: 0,
        bound: usize::MAX,
    }
}

/// Expands the recursion to `depth` and returns the best root action.
///
/// `depth` counts action layers: `depth = 1` is the paper's "tree depth
/// one" — choose an action, average over the surviving observation
/// branches, and evaluate the leaf bound at the successor beliefs.
/// `depth = 0` is rejected because it makes no decision.
///
/// Observation branches with probability at or below `gamma_cutoff`
/// are pruned (their contribution to the average is bounded by the
/// cutoff times the worst bound value); `0.0` disables pruning of
/// everything except genuinely impossible observations.
///
/// Convenience wrapper over [`expand_with_workspace`] that pays one
/// workspace construction per call; controllers making repeated
/// decisions should hold a [`PlanWorkspace`] instead.
///
/// # Errors
///
/// * [`Error::IndexOutOfBounds`] if `depth == 0`.
pub fn expand_with_cutoff(
    pomdp: &Pomdp,
    belief: &Belief,
    depth: usize,
    leaf: &dyn ValueBound,
    beta: f64,
    gamma_cutoff: f64,
) -> Result<Decision, Error> {
    let mut ws = PlanWorkspace::new();
    expand_with_workspace(pomdp, belief, depth, leaf, beta, gamma_cutoff, &mut ws)?;
    Ok(ws.take_decision())
}

/// [`expand_with_cutoff`] writing into a reusable [`PlanWorkspace`].
///
/// The result lands in [`PlanWorkspace::decision`]. After the first
/// (warm-up) decision a workspace-backed expansion performs no heap
/// allocation. Values, tie-breaking, and `nodes_expanded` are exactly
/// those of [`legacy::expand_with_cutoff`].
///
/// # Errors
///
/// Same as [`expand_with_cutoff`].
#[allow(clippy::too_many_arguments)]
pub fn expand_with_workspace(
    pomdp: &Pomdp,
    belief: &Belief,
    depth: usize,
    leaf: &dyn ValueBound,
    beta: f64,
    gamma_cutoff: f64,
    ws: &mut PlanWorkspace,
) -> Result<(), Error> {
    if depth == 0 {
        return Err(depth_zero_error());
    }
    ws.begin();
    let kernel = Kernel::unbudgeted(pomdp, leaf, beta, gamma_cutoff);
    expand_root(&kernel, belief, depth, ws).expect("unbudgeted expansion never aborts");
    Ok(())
}

/// [`expand_with_workspace`] under an explicit [`CacheEpoch`]: the
/// workspace's transposition cache survives **across decisions** for
/// as long as the epoch — `(model fingerprint, bound generation, β
/// bits, cutoff bits)` — is unchanged, so consecutive decisions on the
/// same incident replay shared subtrees instead of re-expanding them.
///
/// The caller is responsible for the epoch naming every input the
/// cached values depend on: build it from
/// [`Pomdp::fingerprint`](crate::Pomdp::fingerprint), the leaf bound's
/// [`generation`](crate::bounds::VectorSetBound::generation), and the
/// exact `beta`/`gamma_cutoff` bits passed here. Under that contract
/// the produced [`Decision`] is bit-identical to
/// [`expand_with_workspace`] — cache entries are keyed on exact belief
/// bits and replay deterministic values (see `crate::plan` docs).
///
/// # Errors
///
/// Same as [`expand_with_cutoff`].
#[allow(clippy::too_many_arguments)]
pub fn expand_with_workspace_epoch(
    pomdp: &Pomdp,
    belief: &Belief,
    depth: usize,
    leaf: &dyn ValueBound,
    beta: f64,
    gamma_cutoff: f64,
    epoch: CacheEpoch,
    ws: &mut PlanWorkspace,
) -> Result<(), Error> {
    if depth == 0 {
        return Err(depth_zero_error());
    }
    ws.begin_epoch(epoch);
    let kernel = Kernel::unbudgeted(pomdp, leaf, beta, gamma_cutoff);
    expand_root(&kernel, belief, depth, ws).expect("unbudgeted expansion never aborts");
    Ok(())
}

/// The one root loop of every sequential plain expansion, budgeted or
/// not (the caller has already validated `depth` and, for unbudgeted
/// passes, opened the decision on `ws`). Writes the per-action values,
/// the last-maximal argmax, and the node count into
/// [`PlanWorkspace::decision`]; returns the nodes spent, or
/// `Err(nodes)` when `kernel.budget` ran out, in which case the
/// workspace decision is partial and must not be read.
fn expand_root(
    kernel: &Kernel,
    belief: &Belief,
    depth: usize,
    ws: &mut PlanWorkspace,
) -> Result<usize, usize> {
    ws.decision_clear();
    let mut nodes = 0usize;
    // Under epoch semantics the root's per-action values are cached
    // too, keyed `(depth, action, belief)`: repeated decisions on the
    // same belief then skip even the root-level τ computations, which
    // dominate at depth 1 on large models. A hit replays the exact q
    // and node count the subtree would have produced, so the Decision
    // stays bit-identical. Without an epoch the cache is cleared per
    // decision and root entries could never hit, so skip the traffic;
    // budgeted passes never touch the cache at all.
    let cache_root = kernel.use_cache && ws.has_epoch();
    for a in 0..kernel.pomdp.n_actions() {
        if cache_root {
            if let Some((q, sub)) = ws.root_cache_get(depth, a, belief.probs()) {
                nodes += sub;
                ws.push_q(q);
                continue;
            }
        }
        let before = nodes;
        let Some(q) = kernel.action_q(ws, belief.probs(), a, depth, &mut nodes) else {
            return Err(nodes);
        };
        if cache_root {
            ws.root_cache_put(depth, a, belief.probs(), q, nodes - before);
        }
        ws.push_q(q);
    }
    let (best_a, best_q) = argmax_last(ws.q_values());
    ws.finish_decision(ActionId::new(best_a), best_q, nodes);
    Ok(nodes)
}

/// Root-parallel [`expand_with_cutoff`]: the root actions are expanded
/// concurrently over a [`WorkPool`], each worker holding its own
/// private [`PlanWorkspace`].
///
/// The returned [`Decision`] is **bit-identical** to the sequential
/// path at every pool width: each root action's subtree value is a pure
/// function of `(belief, action, depth)`, transposition-cache hits
/// replay the exact value and node count the subtree would have
/// expanded (so per-action node counts are independent of how actions
/// are grouped onto workers or caches), and the root argmax runs over
/// the index-ordered q-values exactly as in the sequential code.
///
/// # Errors
///
/// Same as [`expand_with_cutoff`].
pub fn expand_par(
    pomdp: &Pomdp,
    belief: &Belief,
    depth: usize,
    leaf: &(dyn ValueBound + Sync),
    beta: f64,
    gamma_cutoff: f64,
    pool: &WorkPool,
) -> Result<Decision, Error> {
    if depth == 0 {
        return Err(depth_zero_error());
    }
    let results: Vec<(f64, usize)> =
        pool.map_indices_with(pomdp.n_actions(), PlanWorkspace::new, |ws, a| {
            let kernel = Kernel::unbudgeted(pomdp, leaf, beta, gamma_cutoff);
            let mut nodes = 0usize;
            let q = kernel
                .action_q(ws, belief.probs(), a, depth, &mut nodes)
                .expect("unbudgeted expansion never aborts");
            (q, nodes)
        });
    let q_values: Vec<f64> = results.iter().map(|&(q, _)| q).collect();
    let nodes_expanded = results.iter().map(|&(_, n)| n).sum();
    let (best_a, best_q) = argmax_last(&q_values);
    Ok(Decision {
        action: ActionId::new(best_a),
        value: best_q,
        q_values,
        nodes_expanded,
    })
}

/// Outcome of one budgeted (anytime) expansion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetedPass {
    /// Nodes expanded before finishing or aborting.
    pub nodes_spent: usize,
    /// Whether the pass finished within its budget. Only then does
    /// [`PlanWorkspace::decision`] hold the pass's decision; after an
    /// aborted pass it is partial and must not be read.
    pub completed: bool,
}

/// One depth-`depth` expansion pass that aborts as soon as more than
/// `budget` nodes have been expanded (the anytime controller's
/// iterative-deepening primitive). A completed pass leaves the same
/// [`Decision`] in [`PlanWorkspace::decision`] as
/// [`expand_with_workspace`] would.
///
/// The transposition cache is **not** used here: a budgeted pass's
/// abort point must depend only on the literal expansion order, so a
/// resumed or re-run pass dies at exactly the same node. Node
/// accounting matches the unbudgeted path: each belief node costs 1,
/// counted before the budget check.
///
/// # Errors
///
/// Same as [`expand_with_cutoff`].
#[allow(clippy::too_many_arguments)]
pub fn expand_budgeted(
    pomdp: &Pomdp,
    belief: &Belief,
    depth: usize,
    leaf: &dyn ValueBound,
    beta: f64,
    gamma_cutoff: f64,
    budget: usize,
    ws: &mut PlanWorkspace,
) -> Result<BudgetedPass, Error> {
    if depth == 0 {
        return Err(depth_zero_error());
    }
    let kernel = Kernel {
        use_cache: false,
        budget,
        ..Kernel::unbudgeted(pomdp, leaf, beta, gamma_cutoff)
    };
    let (nodes_spent, completed) = match expand_root(&kernel, belief, depth, ws) {
        Ok(nodes) => (nodes, true),
        Err(nodes) => (nodes, false),
    };
    Ok(BudgetedPass {
        nodes_spent,
        completed,
    })
}

/// Expands the recursion with **branch-and-bound pruning**: an upper
/// bound orders the actions and prunes those whose optimistic value
/// cannot beat the best action found so far — the use of upper bounds
/// the paper's conclusion proposes as future work. The result lands in
/// [`PlanWorkspace::decision`].
///
/// Produces exactly the same decision values as
/// [`expand_with_cutoff`] (pruned actions are provably not maximisers;
/// their reported q-value is their upper estimate), typically expanding
/// far fewer nodes, and is bit-identical to
/// [`legacy::expand_branch_and_bound`].
///
/// The root and the recursion share one collect-score-prune helper;
/// they differ only in that the root reports a q-value for every action
/// (pruned ones get their upper estimate) while interior nodes stop at
/// the first prunable entry of the sorted order.
///
/// # Errors
///
/// Same as [`expand_with_cutoff`].
#[allow(clippy::too_many_arguments)]
pub fn expand_branch_and_bound_with_workspace(
    pomdp: &Pomdp,
    belief: &Belief,
    depth: usize,
    lower: &dyn ValueBound,
    upper: &dyn ValueBound,
    beta: f64,
    gamma_cutoff: f64,
    ws: &mut PlanWorkspace,
) -> Result<(), Error> {
    if depth == 0 {
        return Err(depth_zero_error());
    }
    ws.begin();
    let na = pomdp.n_actions();
    ws.decision_fill(na, f64::NEG_INFINITY);
    let kernel = BbKernel {
        pomdp,
        lower,
        upper,
        beta,
        cutoff: gamma_cutoff,
    };
    let mut nodes = 0usize;
    let mut frame = ws.take_frame(depth);
    kernel.collect(&mut frame, belief.probs());
    let mut best_value = f64::NEG_INFINITY;
    let mut best_action = frame.entries[0].action;
    for idx in 0..frame.entries.len() {
        let e = frame.entries[idx];
        if e.q_ub <= best_value {
            // Provably cannot beat the incumbent: record the optimistic
            // estimate and skip the descent.
            ws.set_q(e.action, e.q_ub);
            continue;
        }
        let mut q = e.reward;
        for i in e.start..e.start + e.len {
            let v = kernel.value(ws, frame.post(i), depth - 1, &mut nodes);
            q += beta * frame.gammas[i] * v;
        }
        ws.set_q(e.action, q);
        if q > best_value {
            best_value = q;
            best_action = e.action;
        }
    }
    ws.put_frame(depth, frame);
    ws.finish_decision(ActionId::new(best_action), best_value, nodes);
    Ok(())
}

/// `max_by` over the q-values, replicating the iterator's
/// last-maximal-element tie-breaking of the legacy root argmax.
fn argmax_last(q_values: &[f64]) -> (usize, f64) {
    q_values
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite tree values"))
        .expect("model has at least one action")
}

/// The plain (no upper bound) fused expansion engine. `budget` is
/// `usize::MAX` for unbudgeted runs; `use_cache` is off for budgeted
/// passes so abort points stay a function of the literal expansion
/// order.
struct Kernel<'a> {
    pomdp: &'a Pomdp,
    leaf: &'a dyn ValueBound,
    beta: f64,
    cutoff: f64,
    use_cache: bool,
    budget: usize,
}

impl<'a> Kernel<'a> {
    /// The cached, unbudgeted engine every plain expansion runs on.
    fn unbudgeted(
        pomdp: &'a Pomdp,
        leaf: &'a dyn ValueBound,
        beta: f64,
        cutoff: f64,
    ) -> Kernel<'a> {
        Kernel {
            pomdp,
            leaf,
            beta,
            cutoff,
            use_cache: true,
            budget: usize::MAX,
        }
    }

    /// `Q(belief, a)` at `depth` remaining action layers; `None` if the
    /// node budget ran out mid-subtree.
    fn action_q(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        a: usize,
        depth: usize,
        nodes: &mut usize,
    ) -> Option<f64> {
        let action = ActionId::new(a);
        let mut q = dense::dot(belief, self.pomdp.mdp().reward_vector(action));
        let n = self.pomdp.n_states();
        let mut pred = ws.checkout(n);
        // Beliefs and their unnormalised posteriors are non-negative
        // with no -0.0, which is exactly the `*_unchecked` contract
        // (debug-asserted there); the dense-row fast path stays
        // bit-identical to the sparse loop (see bpr_linalg docs).
        self.pomdp
            .mdp()
            .transition_matrix(action)
            .matvec_transpose_into_unchecked(belief, &mut pred);
        let obs_t = self.pomdp.observation_transpose(action);
        let mut post = ws.checkout(n);
        let mut aborted = false;
        for o in 0..self.pomdp.n_observations() {
            let gamma = obs_t.row_scaled_into_unchecked(o, &pred, &mut post);
            if gamma > self.cutoff && gamma > 0.0 {
                if gamma.is_finite() {
                    // normalize_l1's guard: division only for a finite,
                    // non-zero mass (non-zero is established above).
                    for v in post.iter_mut() {
                        *v /= gamma;
                    }
                }
                match self.node_value(ws, &post, depth - 1, nodes) {
                    Some(v) => q += self.beta * gamma * v,
                    None => {
                        aborted = true;
                        break;
                    }
                }
            }
        }
        ws.release(post);
        ws.release(pred);
        if aborted {
            None
        } else {
            Some(q)
        }
    }

    /// `max_a Q(belief, a)` at `depth` remaining layers, or the leaf
    /// bound at depth 0.
    fn node_value(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        depth: usize,
        nodes: &mut usize,
    ) -> Option<f64> {
        *nodes += 1;
        if *nodes > self.budget {
            return None;
        }
        if self.use_cache {
            if let Some((value, sub)) = ws.cache_get(depth, belief) {
                *nodes += sub;
                return Some(value);
            }
        }
        let before = *nodes;
        let value = if depth == 0 {
            self.leaf.value_weights(belief)
        } else {
            let mut best = f64::NEG_INFINITY;
            for a in 0..self.pomdp.n_actions() {
                let q = self.action_q(ws, belief, a, depth, nodes)?;
                best = best.max(q);
            }
            best
        };
        if self.use_cache {
            ws.cache_put(depth, belief, value, *nodes - before);
        }
        Some(value)
    }
}

/// The branch-and-bound fused engine: like [`Kernel`] but with an upper
/// bound ordering and pruning the actions of every interior node.
struct BbKernel<'a> {
    pomdp: &'a Pomdp,
    lower: &'a dyn ValueBound,
    upper: &'a dyn ValueBound,
    beta: f64,
    cutoff: f64,
}

impl BbKernel<'_> {
    /// Expands one node's successor set into `frame` and sorts the
    /// per-action entries by descending upper estimate (action index
    /// breaks ties, replicating the legacy stable sort). Shared by the
    /// root and the recursion.
    fn collect(&self, frame: &mut crate::plan::BbFrame, belief: &[f64]) {
        let n = self.pomdp.n_states();
        frame.reset(n);
        for a in 0..self.pomdp.n_actions() {
            let action = ActionId::new(a);
            let reward = dense::dot(belief, self.pomdp.mdp().reward_vector(action));
            self.pomdp
                .mdp()
                .transition_matrix(action)
                .matvec_transpose_into_unchecked(belief, &mut frame.pred);
            let obs_t = self.pomdp.observation_transpose(action);
            let start = frame.branches();
            for o in 0..self.pomdp.n_observations() {
                let gamma = frame.scale_branch(obs_t, o, n);
                if gamma > self.cutoff && gamma > 0.0 {
                    frame.keep_branch(gamma);
                }
            }
            let mut q_ub = reward;
            for i in start..frame.branches() {
                q_ub += self.beta * frame.gammas[i] * self.upper.value_weights(frame.post(i));
            }
            frame.entries.push(BbEntry {
                action: a,
                reward,
                q_ub,
                start,
                len: frame.branches() - start,
            });
        }
        frame.entries.sort_unstable_by(|x, y| {
            y.q_ub
                .partial_cmp(&x.q_ub)
                .expect("finite upper estimates")
                .then(x.action.cmp(&y.action))
        });
    }

    fn value(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        depth: usize,
        nodes: &mut usize,
    ) -> f64 {
        *nodes += 1;
        if let Some((value, sub)) = ws.cache_get(depth, belief) {
            *nodes += sub;
            return value;
        }
        let before = *nodes;
        let value = if depth == 0 {
            self.lower.value_weights(belief)
        } else {
            let mut frame = ws.take_frame(depth);
            self.collect(&mut frame, belief);
            let mut best = f64::NEG_INFINITY;
            for idx in 0..frame.entries.len() {
                let e = frame.entries[idx];
                if e.q_ub <= best {
                    break; // sorted: everything after is also prunable
                }
                let mut q = e.reward;
                for i in e.start..e.start + e.len {
                    let v = self.value(ws, frame.post(i), depth - 1, nodes);
                    q += self.beta * frame.gammas[i] * v;
                }
                best = best.max(q);
            }
            ws.put_frame(depth, frame);
            best
        };
        ws.cache_put(depth, belief, value, *nodes - before);
        value
    }
}

/// The pre-fusion tree expansion, retained verbatim.
///
/// These are the implementations the fused kernel replaced: every node
/// re-derives its successors through [`Belief::successors`]'s two-pass
/// scatter and allocates fresh posterior vectors per branch. They are
/// kept as (a) the reference the equivalence tests compare bit-for-bit
/// against, and (b) the in-run baseline of `bench --bin planning`.
pub mod legacy {
    use super::{Decision, Successors};
    use crate::bounds::ValueBound;
    use crate::{Belief, Error, Pomdp};
    use bpr_mdp::ActionId;

    /// Pre-fusion [`super::expand_with_cutoff`].
    ///
    /// # Errors
    ///
    /// Same as [`super::expand_with_cutoff`].
    pub fn expand_with_cutoff(
        pomdp: &Pomdp,
        belief: &Belief,
        depth: usize,
        leaf: &dyn ValueBound,
        beta: f64,
        gamma_cutoff: f64,
    ) -> Result<Decision, Error> {
        if depth == 0 {
            return Err(super::depth_zero_error());
        }
        let mut nodes = 0usize;
        let mut q_values = Vec::with_capacity(pomdp.n_actions());
        for a in 0..pomdp.n_actions() {
            let q = action_value(
                pomdp,
                belief,
                ActionId::new(a),
                depth,
                leaf,
                beta,
                gamma_cutoff,
                &mut nodes,
            )?;
            q_values.push(q);
        }
        let (best_a, best_q) = q_values
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite tree values"))
            .expect("model has at least one action");
        Ok(Decision {
            action: ActionId::new(best_a),
            value: best_q,
            q_values,
            nodes_expanded: nodes,
        })
    }

    /// Pre-fusion [`super::expand_branch_and_bound_with_workspace`].
    ///
    /// # Errors
    ///
    /// Same as [`super::expand_with_cutoff`].
    pub fn expand_branch_and_bound(
        pomdp: &Pomdp,
        belief: &Belief,
        depth: usize,
        lower: &dyn ValueBound,
        upper: &dyn ValueBound,
        beta: f64,
        gamma_cutoff: f64,
    ) -> Result<Decision, Error> {
        if depth == 0 {
            return Err(super::depth_zero_error());
        }
        let mut nodes = 0usize;
        let na = pomdp.n_actions();
        // Per action: successors plus the optimistic one-step estimate.
        let mut entries: Vec<(usize, f64, Successors)> = Vec::with_capacity(na);
        for a in 0..na {
            let action = ActionId::new(a);
            let succ: Successors = belief
                .successors(pomdp, action, gamma_cutoff)
                .into_iter()
                .map(|(_o, g, b)| (g, b))
                .collect();
            let mut q_ub = belief.expected_reward(pomdp, action);
            for (g, b) in &succ {
                q_ub += beta * g * upper.value(b);
            }
            entries.push((a, q_ub, succ));
        }
        entries.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite upper estimates"));

        let mut q_values = vec![f64::NEG_INFINITY; na];
        let mut best_value = f64::NEG_INFINITY;
        let mut best_action = entries[0].0;
        for (a, q_ub, succ) in entries {
            if q_ub <= best_value {
                // Provably cannot beat the incumbent: record the
                // optimistic estimate and skip the descent.
                q_values[a] = q_ub;
                continue;
            }
            let action = ActionId::new(a);
            let mut q = belief.expected_reward(pomdp, action);
            for (g, b) in succ {
                let v = bb_value(
                    pomdp,
                    &b,
                    depth - 1,
                    lower,
                    upper,
                    beta,
                    gamma_cutoff,
                    &mut nodes,
                )?;
                q += beta * g * v;
            }
            q_values[a] = q;
            if q > best_value {
                best_value = q;
                best_action = a;
            }
        }
        Ok(Decision {
            action: ActionId::new(best_action),
            value: best_value,
            q_values,
            nodes_expanded: nodes,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn bb_value(
        pomdp: &Pomdp,
        belief: &Belief,
        depth: usize,
        lower: &dyn ValueBound,
        upper: &dyn ValueBound,
        beta: f64,
        gamma_cutoff: f64,
        nodes: &mut usize,
    ) -> Result<f64, Error> {
        *nodes += 1;
        if depth == 0 {
            return Ok(lower.value(belief));
        }
        let na = pomdp.n_actions();
        let mut entries: Vec<(f64, Successors, ActionId)> = Vec::with_capacity(na);
        for a in 0..na {
            let action = ActionId::new(a);
            let succ: Successors = belief
                .successors(pomdp, action, gamma_cutoff)
                .into_iter()
                .map(|(_o, g, b)| (g, b))
                .collect();
            let mut q_ub = belief.expected_reward(pomdp, action);
            for (g, b) in &succ {
                q_ub += beta * g * upper.value(b);
            }
            entries.push((q_ub, succ, action));
        }
        entries.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite upper estimates"));
        let mut best = f64::NEG_INFINITY;
        for (q_ub, succ, action) in entries {
            if q_ub <= best {
                break; // sorted: everything after is also prunable
            }
            let mut q = belief.expected_reward(pomdp, action);
            for (g, b) in succ {
                let v = bb_value(
                    pomdp,
                    &b,
                    depth - 1,
                    lower,
                    upper,
                    beta,
                    gamma_cutoff,
                    nodes,
                )?;
                q += beta * g * v;
            }
            best = best.max(q);
        }
        Ok(best)
    }

    /// Value of the belief under the expansion: `max_a Q(π, a, depth)`,
    /// or the leaf bound at depth 0.
    fn belief_value(
        pomdp: &Pomdp,
        belief: &Belief,
        depth: usize,
        leaf: &dyn ValueBound,
        beta: f64,
        gamma_cutoff: f64,
        nodes: &mut usize,
    ) -> Result<f64, Error> {
        *nodes += 1;
        if depth == 0 {
            return Ok(leaf.value(belief));
        }
        let mut best = f64::NEG_INFINITY;
        for a in 0..pomdp.n_actions() {
            let q = action_value(
                pomdp,
                belief,
                ActionId::new(a),
                depth,
                leaf,
                beta,
                gamma_cutoff,
                nodes,
            )?;
            best = best.max(q);
        }
        Ok(best)
    }

    #[allow(clippy::too_many_arguments)]
    fn action_value(
        pomdp: &Pomdp,
        belief: &Belief,
        action: ActionId,
        depth: usize,
        leaf: &dyn ValueBound,
        beta: f64,
        gamma_cutoff: f64,
        nodes: &mut usize,
    ) -> Result<f64, Error> {
        let mut q = belief.expected_reward(pomdp, action);
        for (_o, gamma, next) in belief.successors(pomdp, action, gamma_cutoff) {
            let v = belief_value(pomdp, &next, depth - 1, leaf, beta, gamma_cutoff, nodes)?;
            q += beta * gamma * v;
        }
        Ok(q)
    }
}

/// Successor beliefs of one action: `(γ(o), b')` per surviving
/// observation branch.
type Successors = Vec<(f64, Belief)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::ra::tests::two_server_notified;
    use crate::bounds::{ra_bound, ConstantBound};
    use bpr_mdp::chain::SolveOpts;

    fn bb_decision(
        pomdp: &Pomdp,
        belief: &Belief,
        depth: usize,
        lower: &dyn ValueBound,
        upper: &dyn ValueBound,
    ) -> Result<Decision, Error> {
        let mut ws = PlanWorkspace::new();
        expand_branch_and_bound_with_workspace(
            pomdp, belief, depth, lower, upper, 1.0, 0.0, &mut ws,
        )?;
        Ok(ws.take_decision())
    }

    #[test]
    fn depth_zero_is_rejected() {
        let p = two_server_notified();
        let bound = ConstantBound(0.0);
        assert!(expand_with_cutoff(&p, &Belief::uniform(3), 0, &bound, 1.0, 0.0).is_err());
        assert!(legacy::expand_with_cutoff(&p, &Belief::uniform(3), 0, &bound, 1.0, 0.0).is_err());
        let pool = WorkPool::serial();
        assert!(expand_par(&p, &Belief::uniform(3), 0, &bound, 1.0, 0.0, &pool).is_err());
        let mut ws = PlanWorkspace::new();
        assert!(
            expand_budgeted(&p, &Belief::uniform(3), 0, &bound, 1.0, 0.0, 10, &mut ws).is_err()
        );
    }

    #[test]
    fn certain_fault_picks_matching_restart() {
        let p = two_server_notified();
        let bound = ra_bound(&p, &SolveOpts::default()).unwrap();
        let d = expand_with_cutoff(&p, &Belief::point(3, 0.into()), 1, &bound, 1.0, 0.0).unwrap();
        assert_eq!(d.action.index(), 0, "q = {:?}", d.q_values);
        let d = expand_with_cutoff(&p, &Belief::point(3, 1.into()), 1, &bound, 1.0, 0.0).unwrap();
        assert_eq!(d.action.index(), 1);
    }

    #[test]
    fn null_belief_prefers_free_observe() {
        let p = two_server_notified();
        let bound = ra_bound(&p, &SolveOpts::default()).unwrap();
        let d = expand_with_cutoff(&p, &Belief::point(3, 2.into()), 2, &bound, 1.0, 0.0).unwrap();
        // Observe costs nothing in Null (the looping action with r = 0).
        assert_eq!(d.action.index(), 2, "q = {:?}", d.q_values);
        assert!((d.value - 0.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_trees_never_lower_the_root_value() {
        // With a lower bound at the leaves satisfying V <= Lp V, the
        // root value is non-decreasing in depth (each extra layer
        // applies Lp once more).
        let p = two_server_notified();
        let bound = ra_bound(&p, &SolveOpts::default()).unwrap();
        let b = Belief::uniform(3);
        let mut prev = f64::NEG_INFINITY;
        for depth in 1..=4 {
            let d = expand_with_cutoff(&p, &b, depth, &bound, 1.0, 0.0).unwrap();
            assert!(
                d.value + 1e-9 >= prev,
                "depth {depth} lowered value: {prev} -> {}",
                d.value
            );
            prev = d.value;
        }
    }

    #[test]
    fn q_values_are_reported_for_all_actions() {
        let p = two_server_notified();
        let bound = ra_bound(&p, &SolveOpts::default()).unwrap();
        let d = expand_with_cutoff(&p, &Belief::uniform(3), 1, &bound, 1.0, 0.0).unwrap();
        assert_eq!(d.q_values.len(), 3);
        assert!(d.q_values.iter().all(|q| q.is_finite()));
        let max = d.q_values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(d.value, max);
    }

    #[test]
    fn node_count_grows_with_depth() {
        let p = two_server_notified();
        let bound = ConstantBound(0.0);
        let b = Belief::uniform(3);
        let d1 = expand_with_cutoff(&p, &b, 1, &bound, 1.0, 0.0).unwrap();
        let d2 = expand_with_cutoff(&p, &b, 2, &bound, 1.0, 0.0).unwrap();
        assert!(d2.nodes_expanded > d1.nodes_expanded);
    }

    #[test]
    fn cutoff_prunes_rare_observations() {
        let p = two_server_notified();
        let bound = ConstantBound(0.0);
        let b = Belief::uniform(3);
        let full = expand_with_cutoff(&p, &b, 2, &bound, 1.0, 0.0).unwrap();
        let pruned = expand_with_cutoff(&p, &b, 2, &bound, 1.0, 0.2).unwrap();
        assert!(pruned.nodes_expanded <= full.nodes_expanded);
    }

    #[test]
    fn branch_and_bound_matches_plain_expansion() {
        use crate::bounds::qmdp_bound;
        use bpr_mdp::value_iteration::Discount;
        let p = two_server_notified();
        let lower = ra_bound(&p, &SolveOpts::default()).unwrap();
        let upper = qmdp_bound(&p, Discount::Undiscounted).unwrap();
        for probs in [
            vec![1.0, 0.0, 0.0],
            vec![0.5, 0.5, 0.0],
            vec![0.3, 0.3, 0.4],
            vec![0.05, 0.9, 0.05],
        ] {
            let b = Belief::from_probs(probs).unwrap();
            for depth in 1..=3 {
                let plain = expand_with_cutoff(&p, &b, depth, &lower, 1.0, 0.0).unwrap();
                let bb = bb_decision(&p, &b, depth, &lower, &upper).unwrap();
                assert!(
                    (bb.value - plain.value).abs() < 1e-9,
                    "depth {depth}: {} vs {}",
                    bb.value,
                    plain.value
                );
                // Tie-breaking may differ, but the chosen action must be
                // a maximiser of the plain expansion.
                assert!(
                    (plain.q_values[bb.action.index()] - plain.value).abs() < 1e-9,
                    "depth {depth}: bb picked a non-maximiser"
                );
                assert!(bb.nodes_expanded <= plain.nodes_expanded);
            }
        }
    }

    #[test]
    fn branch_and_bound_rejects_zero_depth() {
        let p = two_server_notified();
        let bound = ConstantBound(0.0);
        assert!(bb_decision(&p, &Belief::uniform(3), 0, &bound, &bound).is_err());
    }

    #[test]
    fn expansion_with_trivial_upper_bound_is_optimistic() {
        // Leaf bound 0 (upper) must give a root value >= the value with
        // the RA lower bound at the leaves.
        let p = two_server_notified();
        let lower = ra_bound(&p, &SolveOpts::default()).unwrap();
        let upper = ConstantBound(0.0);
        let b = Belief::uniform(3);
        let lo = expand_with_cutoff(&p, &b, 2, &lower, 1.0, 0.0).unwrap();
        let hi = expand_with_cutoff(&p, &b, 2, &upper, 1.0, 0.0).unwrap();
        assert!(hi.value + 1e-9 >= lo.value);
    }

    // ------------------------------------------------------------------
    // Fused-kernel equivalence against the legacy path.

    fn probe_beliefs() -> Vec<Belief> {
        vec![
            Belief::uniform(3),
            Belief::point(3, 0.into()),
            Belief::point(3, 2.into()),
            Belief::from_probs(vec![0.05, 0.9, 0.05]).unwrap(),
            Belief::from_probs(vec![0.3, 0.3, 0.4]).unwrap(),
        ]
    }

    #[test]
    fn fused_expansion_matches_legacy_exactly() {
        let p = two_server_notified();
        let ra = ra_bound(&p, &SolveOpts::default()).unwrap();
        for b in probe_beliefs() {
            for depth in 1..=3 {
                for cutoff in [0.0, 0.05] {
                    let old = legacy::expand_with_cutoff(&p, &b, depth, &ra, 1.0, cutoff).unwrap();
                    let new = expand_with_cutoff(&p, &b, depth, &ra, 1.0, cutoff).unwrap();
                    assert_eq!(old, new, "depth={depth} cutoff={cutoff}");
                }
            }
        }
    }

    #[test]
    fn fused_branch_and_bound_matches_legacy_exactly() {
        use crate::bounds::qmdp_bound;
        use bpr_mdp::value_iteration::Discount;
        let p = two_server_notified();
        let lower = ra_bound(&p, &SolveOpts::default()).unwrap();
        let upper = qmdp_bound(&p, Discount::Undiscounted).unwrap();
        for b in probe_beliefs() {
            for depth in 1..=3 {
                let old = legacy::expand_branch_and_bound(&p, &b, depth, &lower, &upper, 1.0, 0.0)
                    .unwrap();
                let new = bb_decision(&p, &b, depth, &lower, &upper).unwrap();
                assert_eq!(old, new, "depth={depth}");
            }
        }
    }

    #[test]
    fn parallel_root_expansion_is_bit_identical() {
        let p = two_server_notified();
        let ra = ra_bound(&p, &SolveOpts::default()).unwrap();
        for b in probe_beliefs() {
            for depth in 1..=3 {
                let sequential = expand_with_cutoff(&p, &b, depth, &ra, 1.0, 0.0).unwrap();
                for width in [1usize, 2, 4] {
                    let pool = WorkPool::new(width).unwrap();
                    let parallel = expand_par(&p, &b, depth, &ra, 1.0, 0.0, &pool).unwrap();
                    assert_eq!(sequential, parallel, "depth={depth} width={width}");
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_steady_state() {
        let p = two_server_notified();
        let ra = ra_bound(&p, &SolveOpts::default()).unwrap();
        let mut ws = PlanWorkspace::new();
        let b = Belief::uniform(3);
        expand_with_workspace(&p, &b, 3, &ra, 1.0, 0.0, &mut ws).unwrap();
        let first = ws.decision().clone();
        let warm = ws.stats().buffers_allocated;
        for _ in 0..5 {
            expand_with_workspace(&p, &b, 3, &ra, 1.0, 0.0, &mut ws).unwrap();
            assert_eq!(ws.decision(), &first, "decisions drifted across reuse");
        }
        assert_eq!(
            ws.stats().buffers_allocated,
            warm,
            "steady-state decisions allocated fresh buffers"
        );
    }

    #[test]
    fn epoch_expansion_is_bit_identical_and_reuses_across_decisions() {
        let p = two_server_notified();
        let ra = ra_bound(&p, &SolveOpts::default()).unwrap();
        let epoch = CacheEpoch {
            model_fingerprint: p.fingerprint(),
            bound_generation: ra.generation(),
            beta_bits: 1.0f64.to_bits(),
            cutoff_bits: 0.0f64.to_bits(),
        };
        let mut plain_ws = PlanWorkspace::new();
        let mut epoch_ws = PlanWorkspace::new();
        for b in probe_beliefs() {
            expand_with_workspace(&p, &b, 3, &ra, 1.0, 0.0, &mut plain_ws).unwrap();
            expand_with_workspace_epoch(&p, &b, 3, &ra, 1.0, 0.0, epoch, &mut epoch_ws).unwrap();
            assert_eq!(plain_ws.decision(), epoch_ws.decision());
        }
        assert_eq!(
            plain_ws.stats().cross_decision_hits,
            0,
            "plain begin() must never reuse across decisions"
        );
        // Replaying the same belief under the same epoch is answered
        // from retained entries.
        let b = Belief::uniform(3);
        expand_with_workspace_epoch(&p, &b, 3, &ra, 1.0, 0.0, epoch, &mut epoch_ws).unwrap();
        let before = epoch_ws.stats().clone();
        expand_with_workspace_epoch(&p, &b, 3, &ra, 1.0, 0.0, epoch, &mut epoch_ws).unwrap();
        let after = epoch_ws.stats();
        assert!(
            after.cross_decision_hits > before.cross_decision_hits,
            "identical decision under an unchanged epoch found no reuse: {after:?}"
        );
        // A changed epoch component invalidates the retained entries.
        let bumped = CacheEpoch {
            bound_generation: epoch.bound_generation + 1,
            ..epoch
        };
        let reuse_before = after.cross_decision_hits;
        expand_with_workspace_epoch(&p, &b, 3, &ra, 1.0, 0.0, bumped, &mut epoch_ws).unwrap();
        assert_eq!(epoch_ws.stats().cross_decision_hits, reuse_before);
        expand_with_workspace(&p, &b, 3, &ra, 1.0, 0.0, &mut plain_ws).unwrap();
        assert_eq!(epoch_ws.decision(), plain_ws.decision());
    }

    #[test]
    fn transposition_cache_fires_on_repeated_posteriors() {
        let p = two_server_notified();
        let bound = ConstantBound(0.0);
        let mut ws = PlanWorkspace::new();
        expand_with_workspace(&p, &Belief::uniform(3), 3, &bound, 1.0, 0.0, &mut ws).unwrap();
        // Restart actions collapse onto identical posteriors, so a
        // depth-3 tree revisits nodes.
        assert!(ws.stats().cache_hits > 0, "stats: {:?}", ws.stats());
    }

    #[test]
    fn budgeted_pass_matches_plain_when_budget_is_generous() {
        let p = two_server_notified();
        let ra = ra_bound(&p, &SolveOpts::default()).unwrap();
        let b = Belief::uniform(3);
        let plain = expand_with_cutoff(&p, &b, 2, &ra, 1.0, 0.0).unwrap();
        let mut ws = PlanWorkspace::new();
        let pass =
            expand_budgeted(&p, &b, 2, &ra, 1.0, 0.0, plain.nodes_expanded, &mut ws).unwrap();
        assert!(pass.completed);
        assert_eq!(pass.nodes_spent, plain.nodes_expanded);
        assert_eq!(ws.decision(), &plain);
        // One node fewer and the pass must abort.
        let pass =
            expand_budgeted(&p, &b, 2, &ra, 1.0, 0.0, plain.nodes_expanded - 1, &mut ws).unwrap();
        assert!(!pass.completed);
    }
}
