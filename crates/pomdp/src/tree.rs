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
//!
//! # Branch layouts
//!
//! The kernel runs on one of two private layouts, chosen once per model
//! from its observation matrices; every sequential expansion (plain,
//! budgeted and branch-and-bound) shares its one recursion. The dense
//! layout holds each observation branch as a full `|S|` vector. The
//! sparse layout, taken by models with mostly empty observation rows
//! (the 10³–10⁴-state corpus), writes, normalises, keys and scores
//! each branch on its observation row's stored states only, leaf
//! bounds included through
//! [`ValueBound::value_support`]. Both produce the same decisions,
//! node counts and cache statistics bit for bit.
//!
//! # What one Max-Avg node costs
//!
//! Four rules keep a `(node, action)` pair cheap on both layouts, and
//! each changes no bit of any decision or node count:
//!
//! - **Actions with the same afterstate share one expansion.** Within
//!   one node, many actions reach the same predicted belief
//!   `pred = P_aᵀ π`: a restart of a component that holds no fault
//!   mass moves the belief exactly as `observe` does. On cached,
//!   unpruned passes each node keeps a small afterstate table in the
//!   workspace (`PlanWorkspace::afterstate_open` at the start of its
//!   action loop). After computing `pred`, an action looks for an
//!   earlier action of the node with the same observation class
//!   (`Pomdp::observation_class`) and a bit-identical `pred`. On a hit
//!   it skips the branch masses and the branch loop: it adds the
//!   earlier action's stored terms `β·γ(o)·v(o)`, in ascending `o`, onto
//!   its own `dot(π, r_a)`, and adds the earlier action's subtree node
//!   count, as a transposition-cache hit does. The argument: the same
//!   `pred` bits and the same `Q_a` (one class is one bit-identical
//!   matrix) give the same `γ`, the same surviving branches and the
//!   same posteriors, hence the same child values, since a child's
//!   value is a function of its posterior and depth alone. Only the
//!   reward differs, and it is the first addend on both paths, so the
//!   q is the same sum of the same addends in the same order. The table
//!   stores no afterstate: it keys each expanded action by a 64-bit
//!   fingerprint of `pred` and its class, and a fingerprint match
//!   recomputes the earlier action's `pred` into an arena buffer and
//!   compares every bit, so a collision can never share. Budgeted
//!   passes and branch-and-bound stay literal.
//!
//! - **Branch masses first.** One transposed SpMV
//!   `γ = Q_aᵀ · (P_aᵀ π)` over the state-major
//!   [`Pomdp::observation_matrix`]
//!   ([`CsrMatrix::matvec_transpose_into_unchecked`]) accumulates every
//!   `γ(o)` in ascending state order, skipping zero prediction entries.
//!   The model gives its state-major matrices dense-row mirrors, so on
//!   EMN, whose 15 rows are mostly full, that is 15 contiguous axpys of
//!   length 129 instead of ~1 600 indirect scatters. Only the branches
//!   with `γ > cutoff ∧ γ > 0` are then scaled, normalised and valued;
//!   on EMN that is about 10 of 129. Each `γ` adds the same products in
//!   the same ascending-state order as the row scale, and every term
//!   either side skips or pads is `+0.0`, which leaves a non-negative
//!   sum that started at `+0.0` unchanged (a `debug_assert` compares
//!   the two sums bit for bit).
//! - **Leaves are evaluated, not cached.** The transposition cache
//!   holds interior nodes only, and every decision opens with an empty
//!   one (`crate::plan`). A leaf entry would replay zero extra nodes,
//!   so node counts do not change; keying a leaf (hashing, probing and
//!   storing `|S|` words) cost more than scoring it, and leaf entries
//!   were most of the cache's memory.
//! - **Four planes per pass.** The leaf bound
//!   ([`VectorSetBound::best_vector_quiet`](crate::bounds::VectorSetBound::best_vector_quiet))
//!   scores four hyperplanes per pass over the belief, each in its own
//!   accumulator summed in ascending state order from `-0.0` like
//!   `f64`'s `Sum`, so every value equals its serial dot product and
//!   the last maximal plane still wins.

use crate::bounds::ValueBound;
use crate::plan::{
    afterstate_fingerprint, AfterstateKey, BeliefKey, CacheEpoch, PlanWorkspace, Prehashed,
    SparseKey,
};
use crate::{Belief, Error, Pomdp};
use bpr_linalg::{dense, CsrMatrix};
use bpr_mdp::ActionId;

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
    Plain::unbudgeted(pomdp, leaf, beta, gamma_cutoff)
        .expand_root(belief, depth, ws)
        .expect("unbudgeted expansion never aborts");
    Ok(())
}

/// [`expand_with_workspace`]; `epoch` is ignored. Every decision
/// opens with an empty transposition cache, so there is nothing for an
/// epoch to carry. A leftover that perfbench's traced replay still
/// calls; ROADMAP item 4 deletes it with that replay.
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
    _epoch: CacheEpoch,
    ws: &mut PlanWorkspace,
) -> Result<(), Error> {
    expand_with_workspace(pomdp, belief, depth, leaf, beta, gamma_cutoff, ws)
}

/// The one root loop of every sequential expansion: plain, budgeted
/// and branch-and-bound (the caller has already validated
/// `depth` and, for unbudgeted passes, opened the decision on `ws`).
/// Writes the per-action values, the chosen action and the node count
/// into [`PlanWorkspace::decision`]; returns the nodes spent, or
/// `Err(nodes)` when the budget ran out, in which case the workspace
/// decision is partial and must not be read.
///
/// Without an upper bound every action is expanded in index order and
/// the last maximal q wins. With one, actions are expanded in
/// [`Kernel::sort_actions`] order: an action whose upper estimate
/// cannot beat the incumbent is pruned and reports that estimate, and
/// the incumbent changes only on a strictly greater q.
fn expand_root<L: Layout>(
    kernel: &Kernel<'_, L>,
    belief: &Belief,
    depth: usize,
    ws: &mut PlanWorkspace,
) -> Result<usize, usize> {
    let n_actions = kernel.plain.pomdp.n_actions();
    let probs = belief.probs();
    let mut nodes = 0usize;
    let (best_a, best_q) = if let Some(upper) = kernel.plain.upper {
        kernel.sort_actions(ws, probs, depth, upper);
        ws.decision_fill(n_actions, f64::NEG_INFINITY);
        let mut best = (ws.action_order(depth)[0].1, f64::NEG_INFINITY);
        for i in 0..n_actions {
            let (q_ub, a) = ws.action_order(depth)[i];
            let q = if q_ub <= best.1 {
                q_ub
            } else {
                let Some(q) = kernel.action_q(ws, probs, a, depth, &mut nodes) else {
                    return Err(nodes);
                };
                if q > best.1 {
                    best = (a, q);
                }
                q
            };
            ws.set_q(a, q);
        }
        best
    } else {
        ws.decision_clear();
        if kernel.plain.shares_afterstates() {
            ws.afterstate_open(depth);
        }
        for a in 0..n_actions {
            let Some(q) = kernel.action_q(ws, probs, a, depth, &mut nodes) else {
                return Err(nodes);
            };
            ws.push_q(q);
        }
        argmax_last(ws.q_values())
    };
    ws.finish_decision(ActionId::new(best_a), best_q, nodes);
    Ok(nodes)
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
    let plain = Plain {
        use_cache: false,
        budget,
        ..Plain::unbudgeted(pomdp, leaf, beta, gamma_cutoff)
    };
    let (nodes_spent, completed) = match plain.expand_root(belief, depth, ws) {
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
/// With a sound upper bound (one at or above the value of every
/// belief) the root value equals [`expand_with_cutoff`]'s and the
/// chosen action is one of its maximisers, typically after far fewer
/// nodes. Ties can break differently: this keeps the first strict
/// maximiser in upper-estimate order, the plain expansion the last
/// maximal action index. A pruned action reports its upper estimate in
/// `q_values`, not its q. The decision is bit-identical to
/// [`legacy::expand_branch_and_bound`].
///
/// Runs on the plain kernel with the upper bound switched on: every
/// interior node and the root score each action's one-step optimistic
/// value, then descend in that order until the first action that cannot
/// beat the best q found so far.
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
    Plain {
        upper: Some(upper),
        ..Plain::unbudgeted(pomdp, lower, beta, gamma_cutoff)
    }
    .expand_root(belief, depth, ws)
    .expect("unbudgeted expansion never aborts");
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

/// The parameters of one expansion. `upper`, when set, orders and
/// prunes the actions of the root and of every interior node
/// (branch-and-bound); `None` expands every action. `budget` is
/// `usize::MAX` for unbudgeted runs; `use_cache` is off for budgeted
/// passes so abort points stay a function of the literal expansion
/// order. The two entry methods run the [`Kernel`] on the model's
/// branch layout ([`Pomdp::sparse_branches`]).
#[derive(Clone, Copy)]
struct Plain<'a> {
    pomdp: &'a Pomdp,
    leaf: &'a dyn ValueBound,
    upper: Option<&'a dyn ValueBound>,
    beta: f64,
    cutoff: f64,
    use_cache: bool,
    budget: usize,
}

impl<'a> Plain<'a> {
    /// The cached, unbudgeted, unpruned engine every plain expansion
    /// runs on.
    fn unbudgeted(pomdp: &'a Pomdp, leaf: &'a dyn ValueBound, beta: f64, cutoff: f64) -> Plain<'a> {
        Plain {
            pomdp,
            leaf,
            upper: None,
            beta,
            cutoff,
            use_cache: true,
            budget: usize::MAX,
        }
    }

    /// Whether actions with the same afterstate share one branch
    /// expansion: on cached, unpruned passes only. Budgeted passes stay
    /// literal like the cache, so their abort points do not move, and
    /// branch-and-bound stays literal as well.
    fn shares_afterstates(&self) -> bool {
        self.use_cache && self.upper.is_none()
    }

    /// The kernel on `layout`.
    fn on<L: Layout>(self, layout: L) -> Kernel<'a, L> {
        Kernel {
            plain: self,
            layout,
        }
    }

    /// [`expand_root`] on the model's layout.
    fn expand_root(
        self,
        belief: &Belief,
        depth: usize,
        ws: &mut PlanWorkspace,
    ) -> Result<usize, usize> {
        if self.pomdp.sparse_branches() {
            expand_root(&self.on(Sparse), belief, depth, ws)
        } else {
            expand_root(&self.on(Dense), belief, depth, ws)
        }
    }
}

/// How the plain kernel holds one observation branch of a `(node,
/// action)` pair in its `post` buffer. Both layouts produce the same
/// bits, the same cache hits and the same node counts; they differ in
/// what they touch per observation.
trait Layout: Copy {
    /// Writes the unnormalised branch `post[s] = q(o|s,a) · pred[s]`
    /// into `post` and returns its mass `γ`, summed in ascending state
    /// order, with the branch's `support` that the other methods take:
    /// for [`Sparse`] the stored columns of row `o` of `Q_aᵀ` (the only
    /// entries the branch can make non-zero; `post` is zero elsewhere
    /// on entry and on return), for [`Dense`] nothing.
    fn scale<'m>(
        self,
        obs_t: &'m CsrMatrix,
        o: usize,
        pred: &[f64],
        post: &mut [f64],
    ) -> (f64, &'m [usize]);
    /// Divides the branch by its finite, non-zero mass `γ`.
    fn normalize(self, post: &mut [f64], support: &[usize], gamma: f64);
    /// The leaf bound at the normalised branch.
    fn leaf(self, bound: &dyn ValueBound, post: &[f64], support: &[usize]) -> f64;
    /// The transposition-cache key of a branch.
    fn key<'k>(self, post: &'k [f64], support: &'k [usize]) -> impl BeliefKey + 'k;
    /// Restores `post` to all zeros after the branch.
    fn clear(self, post: &mut [f64], support: &[usize]);
}

/// Every branch is a full `|S|` vector: the row scale zero-fills
/// `post` and the normalisation, key and leaf bound read every entry.
/// On models whose observation rows are mostly full (the paper's EMN,
/// the 10²-state corpus) this is the vectorized fast path.
#[derive(Clone, Copy)]
struct Dense;

impl Layout for Dense {
    fn scale<'m>(
        self,
        obs_t: &'m CsrMatrix,
        o: usize,
        pred: &[f64],
        post: &mut [f64],
    ) -> (f64, &'m [usize]) {
        // Beliefs and their unnormalised posteriors are non-negative
        // with no -0.0, which is exactly the `*_unchecked` contract
        // (debug-asserted there); the dense-row fast path stays
        // bit-identical to the sparse loop (see bpr_linalg docs).
        (obs_t.row_scaled_into_unchecked(o, pred, post), &[])
    }

    fn normalize(self, post: &mut [f64], _support: &[usize], gamma: f64) {
        for v in post.iter_mut() {
            *v /= gamma;
        }
    }

    fn leaf(self, bound: &dyn ValueBound, post: &[f64], _support: &[usize]) -> f64 {
        bound.value_weights(post)
    }

    fn key<'k>(self, post: &'k [f64], _support: &'k [usize]) -> impl BeliefKey + 'k {
        post
    }

    fn clear(self, _post: &mut [f64], _support: &[usize]) {
        // The next row scale zero-fills the whole buffer.
    }
}

/// A branch is written, normalised, keyed and scored on its
/// observation row's stored columns only; everything off the support
/// stays `+0.0` from the zeroed checkout, and [`Layout::clear`]
/// re-zeroes the support afterwards, so no per-observation step is
/// `O(|S|)`. Bit-identity with [`Dense`]: `γ` is the same products
/// summed in the same ascending column order; `0 / γ` is `+0.0`
/// either way; the key skips zeros, which a non-negative belief holds
/// only as `+0.0`; the leaf uses [`ValueBound::value_support`].
#[derive(Clone, Copy)]
struct Sparse;

impl Layout for Sparse {
    fn scale<'m>(
        self,
        obs_t: &'m CsrMatrix,
        o: usize,
        pred: &[f64],
        post: &mut [f64],
    ) -> (f64, &'m [usize]) {
        debug_assert!(
            post.iter().all(|v| v.to_bits() == 0),
            "sparse branch needs a zeroed buffer"
        );
        let (cols, q) = obs_t.row_slice(o);
        let mut gamma = 0.0;
        for (&c, &v) in cols.iter().zip(q) {
            let t = v * pred[c];
            post[c] = t;
            gamma += t;
        }
        (gamma, cols)
    }

    fn normalize(self, post: &mut [f64], support: &[usize], gamma: f64) {
        for &c in support {
            post[c] /= gamma;
        }
    }

    fn leaf(self, bound: &dyn ValueBound, post: &[f64], support: &[usize]) -> f64 {
        bound.value_support(post, support)
    }

    fn key<'k>(self, post: &'k [f64], support: &'k [usize]) -> impl BeliefKey + 'k {
        SparseKey {
            weights: post,
            support,
        }
    }

    fn clear(self, post: &mut [f64], support: &[usize]) {
        for &c in support {
            post[c] = 0.0;
        }
    }
}

/// The fused expansion engine on one branch layout.
struct Kernel<'a, L> {
    plain: Plain<'a>,
    layout: L,
}

impl<L: Layout> Kernel<'_, L> {
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
        let value = |ws: &mut PlanWorkspace, post: &[f64], support: &[usize], nodes: &mut usize| {
            self.node_value(ws, post, support, depth - 1, nodes)
        };
        if self.plain.shares_afterstates() {
            self.branch_sum::<true>(ws, belief, a, depth, nodes, value)
        } else {
            self.branch_sum::<false>(ws, belief, a, depth, nodes, value)
        }
    }

    /// Writes every action's `(upper estimate, action)` into the
    /// workspace's depth-`depth` action order, sorted by estimate
    /// descending, then action ascending. The estimate is one action
    /// layer with `upper` scoring each branch: `Q(belief, a)` with the
    /// upper bound at the leaves.
    fn sort_actions(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        depth: usize,
        upper: &dyn ValueBound,
    ) {
        ws.action_order(depth).clear();
        for a in 0..self.plain.pomdp.n_actions() {
            let q_ub = self
                .branch_sum::<false>(ws, belief, a, depth, &mut 0, |_, post, support, _| {
                    Some(self.layout.leaf(upper, post, support))
                })
                .expect("leaf scoring never aborts");
            ws.action_order(depth).push((q_ub, a));
        }
        ws.action_order(depth).sort_unstable_by(|x, y| {
            y.0.partial_cmp(&x.0)
                .expect("finite upper estimates")
                .then(x.1.cmp(&y.1))
        });
    }

    /// The branch loop of one `(node, action)` pair: the expected
    /// reward plus `β γ(o) value(o)` over the surviving observation
    /// branches in ascending `o`, where `value` scores the normalised
    /// branch on its support and counts its nodes; `None` as soon as
    /// `value` aborts.
    ///
    /// Branch masses come first: one transposed SpMV
    /// `γ = Q_aᵀ · pred` over the state-major observation matrix
    /// ([`CsrMatrix::matvec_transpose_into_unchecked`]) gives every
    /// `γ(o)` before any branch is written, so only the branches that
    /// pass the cutoff are scaled, normalised and valued. Each `γ(o)`
    /// adds the products `q(o|s,a) · pred(s)` in ascending `s` from
    /// `+0.0`, like the row scale; every term one of them skips (an
    /// unstored `q`, a zero `pred(s)`, a dense mirror's padding) is
    /// `+0.0`, which leaves a non-negative sum unchanged, so the two
    /// agree bit for bit (debug-asserted below).
    ///
    /// With `SHARE` the pair takes part in the afterstate table of its
    /// node, which has `depth` remaining layers: if an earlier action of
    /// the node had the same observation class and a bit-identical
    /// `pred`, its stored terms are added onto this action's reward
    /// and its node count onto `nodes`, and no branch is expanded;
    /// otherwise the pair records its own terms for later actions.
    /// `SHARE` is a const parameter so the literal loops (budgeted
    /// passes, branch-and-bound, upper estimates) compile without the
    /// table code: as a runtime flag it slowed them by about 5 % on the
    /// sparse layout.
    fn branch_sum<const SHARE: bool>(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        a: usize,
        depth: usize,
        nodes: &mut usize,
        mut value: impl FnMut(&mut PlanWorkspace, &[f64], &[usize], &mut usize) -> Option<f64>,
    ) -> Option<f64> {
        let p = &self.plain;
        let action = ActionId::new(a);
        let mut q = dense::dot(belief, p.pomdp.mdp().reward_vector(action));
        let n = p.pomdp.n_states();
        let mut pred = ws.checkout(n);
        p.pomdp
            .mdp()
            .transition_matrix(action)
            .matvec_transpose_into_unchecked(belief, &mut pred);
        let key = SHARE.then(|| {
            (
                afterstate_fingerprint(&pred),
                p.pomdp.observation_class(action),
            )
        });
        if let Some(key) = key {
            if let Some(entry) = self.earlier_afterstate(ws, belief, &pred, depth, key) {
                ws.release(pred);
                let (q, sub) = ws.afterstate_replay(depth, entry, q);
                *nodes += sub;
                return Some(q);
            }
        }
        let before = *nodes;
        let mut gammas = ws.checkout(p.pomdp.n_observations());
        p.pomdp
            .observation_matrix(action)
            .matvec_transpose_into_unchecked(&pred, &mut gammas);
        let obs_t = p.pomdp.observation_transpose(action);
        let mut post = ws.checkout(n);
        let mut aborted = false;
        for (o, &gamma) in gammas.iter().enumerate() {
            if !(gamma > p.cutoff && gamma > 0.0) {
                continue;
            }
            let (scaled, support) = self.layout.scale(obs_t, o, &pred, &mut post);
            debug_assert_eq!(
                scaled.to_bits(),
                gamma.to_bits(),
                "state-major branch mass differs from the row scale's"
            );
            if gamma.is_finite() {
                // normalize_l1's guard: division only for a finite,
                // non-zero mass (non-zero is established above).
                self.layout.normalize(&mut post, support, gamma);
            }
            match value(ws, &post, support, nodes) {
                Some(v) => {
                    let term = p.beta * gamma * v;
                    q += term;
                    if SHARE {
                        ws.afterstate_push_term(depth, term);
                    }
                }
                None => aborted = true,
            }
            self.layout.clear(&mut post, support);
            if aborted {
                break;
            }
        }
        ws.release(post);
        ws.release(gammas);
        ws.release(pred);
        if aborted {
            return None;
        }
        if let Some(key) = key {
            ws.afterstate_record(depth, key, a, *nodes - before);
        }
        Some(q)
    }

    /// The entry of an earlier action at the depth-`depth` node whose
    /// afterstate is `pred` bit for bit, under `key`'s observation
    /// class. Each fingerprint match recomputes the representative's
    /// afterstate into an arena buffer and compares every bit, so a
    /// collision never shares.
    fn earlier_afterstate(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        pred: &[f64],
        depth: usize,
        key: AfterstateKey,
    ) -> Option<usize> {
        let mut from = 0;
        while let Some((entry, rep)) = ws.afterstate_probe(depth, key, from) {
            let mut other = ws.checkout(pred.len());
            self.plain
                .pomdp
                .mdp()
                .transition_matrix(ActionId::new(rep))
                .matvec_transpose_into_unchecked(belief, &mut other);
            let same = other
                .iter()
                .zip(pred)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            ws.release(other);
            if same {
                return Some(entry);
            }
            from = entry + 1;
        }
        None
    }

    /// `max_a Q(belief, a)` at `depth ≥ 1` remaining layers with
    /// branch-and-bound: the actions are descended in
    /// [`Kernel::sort_actions`] order, stopping at the first whose upper
    /// estimate cannot beat the best q so far. Out of line: inlined into
    /// [`Kernel::node_value`] it grows the plain recursion's hot loop
    /// and measurably slows plain expansion.
    #[inline(never)]
    fn pruned_max(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        depth: usize,
        upper: &dyn ValueBound,
        nodes: &mut usize,
    ) -> Option<f64> {
        self.sort_actions(ws, belief, depth, upper);
        let mut best = f64::NEG_INFINITY;
        for i in 0..self.plain.pomdp.n_actions() {
            let (q_ub, a) = ws.action_order(depth)[i];
            if q_ub <= best {
                break; // sorted: every later action is prunable too
            }
            best = best.max(self.action_q(ws, belief, a, depth, nodes)?);
        }
        Some(best)
    }

    /// `max_a Q(belief, a)` at `depth` remaining layers, or the leaf
    /// bound at depth 0. `belief` is a normalised branch on `support`.
    /// With an upper bound the max is [`Kernel::pruned_max`].
    ///
    /// Leaves are evaluated, never cached: a leaf entry would replay
    /// `sub = 0` extra nodes, so skipping the cache leaves node counts
    /// unchanged, and keying a leaf costs more than scoring it.
    fn node_value(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        support: &[usize],
        depth: usize,
        nodes: &mut usize,
    ) -> Option<f64> {
        let p = &self.plain;
        *nodes += 1;
        if *nodes > p.budget {
            return None;
        }
        if depth == 0 {
            return Some(self.layout.leaf(p.leaf, belief, support));
        }
        // Hashed once for the lookup and, on a miss, the store.
        let key = p
            .use_cache
            .then(|| Prehashed::new(self.layout.key(belief, support)));
        if let Some(key) = &key {
            if let Some((value, sub)) = ws.cache_get(depth, key) {
                *nodes += sub;
                return Some(value);
            }
        }
        let before = *nodes;
        let value = if let Some(upper) = p.upper {
            self.pruned_max(ws, belief, depth, upper, nodes)?
        } else {
            if p.shares_afterstates() {
                ws.afterstate_open(depth);
            }
            let mut best = f64::NEG_INFINITY;
            for a in 0..p.pomdp.n_actions() {
                let q = self.action_q(ws, belief, a, depth, nodes)?;
                best = best.max(q);
            }
            best
        };
        if let Some(key) = &key {
            ws.cache_put(depth, key, value, *nodes - before);
        }
        Some(value)
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
    use crate::bounds::{qmdp_bound, ra_bound, ConstantBound, VectorSetBound};
    use bpr_mdp::chain::SolveOpts;
    use bpr_mdp::value_iteration::Discount;

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
        // Branch-and-bound on the same workspace: one warm-up decision,
        // then steady state.
        let upper = qmdp_bound(&p, Discount::Undiscounted).unwrap();
        expand_branch_and_bound_with_workspace(&p, &b, 3, &ra, &upper, 1.0, 0.0, &mut ws).unwrap();
        let first = ws.decision().clone();
        let warm = ws.stats().buffers_allocated;
        for _ in 0..5 {
            expand_branch_and_bound_with_workspace(&p, &b, 3, &ra, &upper, 1.0, 0.0, &mut ws)
                .unwrap();
            assert_eq!(ws.decision(), &first, "b&b decisions drifted across reuse");
        }
        assert_eq!(
            ws.stats().buffers_allocated,
            warm,
            "steady-state b&b decisions allocated fresh buffers"
        );
    }

    #[test]
    fn transposition_cache_fires_on_repeated_posteriors() {
        let p = two_server_notified();
        let bound = ConstantBound(0.0);
        let mut ws = PlanWorkspace::new();
        expand_with_workspace(&p, &Belief::uniform(3), 3, &bound, 1.0, 0.0, &mut ws).unwrap();
        // Restart actions collapse onto identical posteriors, so a
        // depth-3 tree revisits nodes. Where two actions of one node
        // reach the same afterstate, the second replays the first's
        // branches (an afterstate hit) and never looks its posteriors
        // up; a posterior reached from different afterstates, or from
        // another node, is still a transposition-cache hit.
        assert!(ws.stats().afterstate_hits > 0, "stats: {:?}", ws.stats());
        assert!(ws.stats().cache_hits > 0, "stats: {:?}", ws.stats());
    }

    /// Three actions with one transition matrix, so their afterstates
    /// are bit-identical at every belief. Actions 0 and 2 share an
    /// observation matrix; action 1 has its own.
    fn one_afterstate_two_classes_model() -> Pomdp {
        use crate::PomdpBuilder;
        use bpr_mdp::MdpBuilder;
        let (n, no) = (4, 3);
        let mut mb = MdpBuilder::new(n, 3);
        for a in 0..3 {
            for s in 0..n {
                mb.transition(s, a, s, 0.625);
                mb.transition(s, a, (s + 1) % n, 0.375);
                mb.reward(s, a, -1.0 - (3 * s + a) as f64 / 7.0);
            }
        }
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), no);
        for s in 0..n {
            for a in [0, 2] {
                pb.observation(s, a, s % no, 0.7);
                pb.observation(s, a, (s + 1) % no, 0.3);
            }
            pb.observation(s, 1, (s + 2) % no, 0.9);
            pb.observation(s, 1, s % no, 0.1);
        }
        pb.build().unwrap()
    }

    #[test]
    fn equal_afterstates_share_only_within_an_observation_class() {
        let p = one_afterstate_two_classes_model();
        let a = |i| ActionId::new(i);
        assert_eq!(p.observation_class(a(0)), p.observation_class(a(2)));
        assert_ne!(p.observation_class(a(0)), p.observation_class(a(1)));
        let n = p.n_states();
        let bound =
            VectorSetBound::from_vector((0..n).map(|s| -2.0 - 3.0 * s as f64).collect()).unwrap();
        let mut ws = PlanWorkspace::new();
        for b in [
            Belief::uniform(n),
            Belief::from_probs(vec![0.55, 0.05, 0.3, 0.1]).unwrap(),
        ] {
            for depth in 1..=2 {
                ws.reset_stats();
                expand_with_workspace(&p, &b, depth, &bound, 1.0, 0.0, &mut ws).unwrap();
                let old = legacy::expand_with_cutoff(&p, &b, depth, &bound, 1.0, 0.0).unwrap();
                assert_eq!(decision_bits(ws.decision()), decision_bits(&old));
                // Action 1's q differs from action 0's by more than its
                // reward: its branches are its own.
                assert_ne!(
                    old.q_values[1] - old.q_values[0],
                    b.expected_reward(&p, a(1)) - b.expected_reward(&p, a(0))
                );
                // Only action 2 replays action 0's branches: one hit at
                // the root.
                let stats = ws.stats();
                assert_eq!(stats.afterstate_hits_by_depth[depth], 1, "{stats:?}");
            }
        }
    }

    /// A 40-state model whose observation rows are mostly empty: every
    /// state emits at most two of 24 observations, so the model takes
    /// the sparse branch layout.
    fn sparse_rows_model() -> Pomdp {
        use crate::PomdpBuilder;
        use bpr_mdp::MdpBuilder;
        let (n, na, no) = (40, 3, 24);
        let mut mb = MdpBuilder::new(n, na);
        for a in 0..na {
            for s in 0..n {
                mb.transition(s, a, s, 0.5);
                mb.transition(s, a, (s + 1 + a) % n, 0.5);
                mb.reward(s, a, -((s % 7) as f64) - a as f64);
            }
        }
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), no);
        for a in 0..na {
            for s in 0..n {
                let (o1, o2) = ((s * 5 + a) % no, (s * 11 + 3) % no);
                if o1 == o2 {
                    pb.observation(s, a, o1, 1.0);
                } else {
                    pb.observation(s, a, o1, 0.75);
                    pb.observation(s, a, o2, 0.25);
                }
            }
        }
        pb.build().unwrap()
    }

    fn decision_bits(d: &Decision) -> (usize, u64, Vec<u64>, usize) {
        let q = d.q_values.iter().map(|q| q.to_bits()).collect();
        (d.action.index(), d.value.to_bits(), q, d.nodes_expanded)
    }

    #[test]
    fn both_layouts_agree_bit_for_bit_on_a_sparse_model() {
        let p = sparse_rows_model();
        assert!(p.sparse_branches(), "sparse rows take the sparse layout");
        assert!(!two_server_notified().sparse_branches());
        let n = p.n_states();
        // A flat plane, a sloped one, and one that is ±0 on states 0-1
        // (like the termination plane at the null state): leaves
        // concentrated there sum to zero and take the dense fallback.
        let mut bound = VectorSetBound::from_vector(vec![-50.0; n]).unwrap();
        bound
            .add_vector((0..n).map(|s| -10.0 - s as f64).collect())
            .unwrap();
        let mut plane = vec![-60.0; n];
        plane[0] = 0.0;
        plane[1] = -0.0;
        bound.add_vector(plane).unwrap();
        // Rewards are non-positive, so the discounted QMDP values lie
        // above the undiscounted ones: a sound upper bound.
        let upper = qmdp_bound(&p, Discount::Factor(0.95)).unwrap();
        let mut sparse_probs = vec![0.0; n];
        sparse_probs[3] = 0.5;
        sparse_probs[17] = 0.25;
        sparse_probs[30] = 0.25;
        let beliefs = [
            Belief::uniform(n),
            Belief::point(n, 0.into()),
            Belief::from_probs(sparse_probs).unwrap(),
        ];
        for b in &beliefs {
            for depth in 1..=2 {
                let plain = Plain::unbudgeted(&p, &bound, 1.0, 0.0);
                let mut dense_ws = PlanWorkspace::new();
                let mut sparse_ws = PlanWorkspace::new();
                // The second round runs on dirty workspaces.
                for _ in 0..2 {
                    dense_ws.begin();
                    sparse_ws.begin();
                    let layouts = (
                        expand_root(&plain.on(Dense), b, depth, &mut dense_ws),
                        expand_root(&plain.on(Sparse), b, depth, &mut sparse_ws),
                    );
                    assert_eq!(layouts.0, layouts.1);
                    assert_eq!(
                        decision_bits(dense_ws.decision()),
                        decision_bits(sparse_ws.decision()),
                        "depth {depth}"
                    );
                    assert_eq!(dense_ws.stats(), sparse_ws.stats(), "depth {depth}");
                }
                let old = legacy::expand_with_cutoff(&p, b, depth, &bound, 1.0, 0.0).unwrap();
                assert_eq!(decision_bits(&old), decision_bits(sparse_ws.decision()));
                // Branch-and-bound on both layouts, against legacy.
                let bb = Plain {
                    upper: Some(&upper),
                    ..plain
                };
                dense_ws.begin();
                sparse_ws.begin();
                let layouts = (
                    expand_root(&bb.on(Dense), b, depth, &mut dense_ws),
                    expand_root(&bb.on(Sparse), b, depth, &mut sparse_ws),
                );
                assert_eq!(layouts.0, layouts.1);
                assert_eq!(
                    decision_bits(dense_ws.decision()),
                    decision_bits(sparse_ws.decision()),
                    "b&b depth {depth}"
                );
                assert_eq!(dense_ws.stats(), sparse_ws.stats(), "b&b depth {depth}");
                let old = legacy::expand_branch_and_bound(&p, b, depth, &bound, &upper, 1.0, 0.0)
                    .unwrap();
                assert_eq!(decision_bits(&old), decision_bits(sparse_ws.decision()));
            }
        }
    }

    /// A deterministic xorshift stream in `[0, 1)` for the kernel tests.
    fn unit(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn branch_masses_equal_the_row_scale_sums_bit_for_bit() {
        // 24 states x 20 observations, state-major. Observations 0..8
        // are emitted by most states (their transposed rows get dense
        // mirrors), the rest by few. The builders keep exact zeros out,
        // so stored entries that contribute `+0.0` come from underflow:
        // state 5 emits every observation with q = 1e-200, and `pred`
        // holds 1e-200 there, so each of its products is `+0.0`.
        let (n, no) = (24, 20);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut triplets = Vec::new();
        for s in 0..n {
            for o in 0..no {
                let keep = if s == 5 {
                    true
                } else if o < 8 {
                    unit(&mut rng) < 0.9
                } else {
                    unit(&mut rng) < 0.15
                };
                if keep {
                    let q = if s == 5 {
                        1e-200
                    } else {
                        unit(&mut rng) + 1e-3
                    };
                    triplets.push((s, o, q));
                }
            }
        }
        let obs = CsrMatrix::from_triplets(n, no, &triplets).unwrap();
        let plain_t = obs.transpose();
        let mut mirrored_t = plain_t.clone();
        mirrored_t.enable_dense_rows();
        assert!(mirrored_t.has_dense_rows(), "some rows take the dense path");
        let mut mirrored = obs.clone();
        mirrored.enable_dense_rows();
        assert!(
            mirrored.has_dense_rows(),
            "some states emit most observations"
        );
        let mut out = vec![0.0; n];
        for trial in 0..200 {
            let mut pred: Vec<f64> = (0..n)
                .map(|_| {
                    let u = unit(&mut rng);
                    if u < 0.4 {
                        0.0
                    } else {
                        u * 10f64.powi(-(trial % 5))
                    }
                })
                .collect();
            pred[5] = if trial % 2 == 0 { 1e-200 } else { 0.0 };
            for m in [&obs, &mirrored] {
                let mut gammas = vec![1.0; no];
                m.matvec_transpose_into_unchecked(&pred, &mut gammas);
                for (o, g) in gammas.iter().enumerate() {
                    for t in [&plain_t, &mirrored_t] {
                        let sum = t.row_scaled_into_unchecked(o, &pred, &mut out);
                        assert_eq!(g.to_bits(), sum.to_bits(), "trial {trial}, o = {o}");
                    }
                }
            }
        }
    }

    #[test]
    fn tree_decisions_match_legacy_at_a_cutoff_equal_to_a_branch_mass() {
        let dense = two_server_notified();
        let sparse = sparse_rows_model();
        for p in [&dense, &sparse] {
            let n = p.n_states();
            let bound =
                VectorSetBound::from_vector((0..n).map(|s| -1.0 - s as f64).collect()).unwrap();
            let b = Belief::uniform(n);
            // The smallest root branch mass of every action: at that
            // exact cutoff the branch is pruned (`γ > cutoff` fails).
            let tight: Vec<f64> = (0..p.n_actions())
                .map(|a| {
                    b.successors(p, ActionId::new(a), 0.0)
                        .iter()
                        .map(|&(_, g, _)| g)
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            for cutoff in [0.0, 1e-4].into_iter().chain(tight) {
                for depth in 1..=2 {
                    let old =
                        legacy::expand_with_cutoff(p, &b, depth, &bound, 1.0, cutoff).unwrap();
                    let new = expand_with_cutoff(p, &b, depth, &bound, 1.0, cutoff).unwrap();
                    assert_eq!(
                        decision_bits(&old),
                        decision_bits(&new),
                        "cutoff {cutoff:e}, depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn leaves_stay_out_of_the_transposition_cache() {
        for p in [two_server_notified(), sparse_rows_model()] {
            let ra = VectorSetBound::from_vector(vec![-2.0; p.n_states()]).unwrap();
            let b = Belief::uniform(p.n_states());
            let mut ws = PlanWorkspace::new();
            for _ in 0..2 {
                expand_with_workspace(&p, &b, 2, &ra, 1.0, 0.0, &mut ws).unwrap();
                let old = legacy::expand_with_cutoff(&p, &b, 2, &ra, 1.0, 0.0).unwrap();
                assert_eq!(decision_bits(&old), decision_bits(ws.decision()));
            }
            let stats = ws.stats();
            // Only depth-1 nodes are looked up: no leaf (depth 0) and
            // no root (depth 2).
            assert_eq!(stats.cache_misses_by_depth.len(), 2, "{stats:?}");
            assert_eq!(stats.cache_misses_by_depth[0], 0, "{stats:?}");
            assert!(
                stats.cache_misses_by_depth[1] > 0,
                "interior nodes are cached"
            );
            assert!(stats.cache_hits_by_depth.len() <= 2, "{stats:?}");
            assert!(
                stats.cache_hits_by_depth.first().is_none_or(|&h| h == 0),
                "{stats:?}"
            );
        }
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
