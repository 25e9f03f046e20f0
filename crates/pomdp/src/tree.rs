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
//! from its observation matrices; every sequential expansion (plain
//! and budgeted) shares its one recursion. The dense
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
//! Five rules keep a `(node, action)` pair cheap on both layouts, and
//! each changes no bit of any decision or node count:
//!
//! - **Actions with the same afterstate share one expansion.** Within
//!   one node, many actions reach the same predicted belief
//!   `pred = P_aᵀ π`: a restart of a component that holds no fault
//!   mass moves the belief exactly as `observe` does. On cached
//!   passes each node keeps a small afterstate table in the
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
//!   passes stay literal.
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
//! - **Frontier nodes expand only the afterstates that can win.** A
//!   frontier node has one remaining layer, so every child is a leaf.
//!   On cached passes whose leaf bound has an envelope
//!   ([`ValueBound::envelope_into`]; for a hyperplane set
//!   `U(s) = max_v V_v(s)` and the floor `m = max_v min_s V_v(s)`,
//!   filled once per decision of depth ≥ 2), its action loop runs in
//!   two passes. The first groups the actions by observation class and
//!   bit-identical `pred`, computes each group's `pred` and `γ` once,
//!   keeps `pred` and the surviving branches' `(o, γ)` (a few of `|O|`),
//!   and bounds every action by `ub = dot(π, r_a) + β·(Σ_s U(s)·ρ(s)·
//!   pred(s) − m·D)`, with `ρ` the class's observation row masses and
//!   `D` the mass of the branches with `0 < γ ≤ cutoff`. The bound is
//!   sound: a surviving branch `b_o` has `L(b_o) ≤ U·b_o`, so the kept
//!   terms sum to at most `Σ_s U(s)·ρ(s)·pred(s)` minus the dropped
//!   branches' `γ_o·U·b_o`, and each of those is at least `γ_o·m`
//!   because `L(b_o) ≥ m`. The second pass visits the groups in
//!   descending `ub + tol` (`tol` the backup's relative `1e-9` margin,
//!   [`crate::backup::incremental_backup`]), ties to the lower
//!   representative, and skips a group whose bound lies strictly below
//!   the best q found so far. A skipped group still adds the leaves the
//!   literal loop would have valued (`kept × members`), so node counts,
//!   and the subtree counts the transposition cache replays, do not
//!   move. A surviving group scales, normalises and values its branches
//!   once from the stored `pred` and `(o, γ)`, and each member's q is its
//!   reward plus the same terms in ascending `o`: the literal loop's
//!   sum. Every skipped q lies strictly below an expanded one, and the
//!   survivors' q are folded with `max` in ascending action index, so
//!   the node's value has the literal loop's bits; a strictly smaller
//!   operand never decides a `max`, `±0` ties included. Budgeted
//!   passes and the root, which reports every q, stay literal, as do
//!   bounds without an envelope and `β < 0` or NaN.

use crate::backup::PRUNE_TOLERANCE;
use crate::bounds::ValueBound;
use crate::plan::{
    afterstate_fingerprint, AfterstateKey, BeliefKey, CacheEpoch, PlanWorkspace, Prehashed,
    SparseKey,
};
use crate::{Belief, Error, Pomdp};
use bpr_linalg::{dense, CsrMatrix};
use bpr_mdp::ActionId;
use std::ops::Range;

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

/// The one root loop of every sequential expansion, plain and
/// budgeted (the caller has already validated `depth` and, for
/// unbudgeted passes, opened the decision on `ws`). Expands every
/// action in index order and writes the per-action values, the last
/// maximal action and the node count into
/// [`PlanWorkspace::decision`]; returns the nodes spent, or
/// `Err(nodes)` when the budget ran out, in which case the workspace
/// decision is partial and must not be read.
fn expand_root<L: Layout>(
    kernel: &Kernel<'_, L>,
    belief: &Belief,
    depth: usize,
    ws: &mut PlanWorkspace,
) -> Result<usize, usize> {
    let p = &kernel.plain;
    let probs = belief.probs();
    let mut nodes = 0usize;
    ws.decision_clear();
    if p.use_cache {
        ws.afterstate_open(depth);
        if depth >= 2 {
            ws.frontier()
                .fill_envelope(p.leaf, p.beta, p.pomdp.n_states());
        }
    }
    for a in 0..p.pomdp.n_actions() {
        let Some(q) = kernel.action_q(ws, probs, a, depth, &mut nodes) else {
            return Err(nodes);
        };
        ws.push_q(q);
    }
    let (best_a, best_q) = argmax_last(ws.q_values());
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

/// The parameters of one expansion. `budget` is `usize::MAX` for
/// unbudgeted runs. `use_cache` is off for budgeted passes so abort
/// points stay a function of the literal expansion order; it also
/// switches on afterstate sharing and the frontier's two-pass loop,
/// which budgeted passes skip for the same reason. The two entry
/// methods run the [`Kernel`] on the model's branch layout
/// ([`Pomdp::sparse_branches`]).
#[derive(Clone, Copy)]
struct Plain<'a> {
    pomdp: &'a Pomdp,
    leaf: &'a dyn ValueBound,
    beta: f64,
    cutoff: f64,
    use_cache: bool,
    budget: usize,
}

impl<'a> Plain<'a> {
    /// The cached, unbudgeted engine every plain expansion runs on.
    fn unbudgeted(pomdp: &'a Pomdp, leaf: &'a dyn ValueBound, beta: f64, cutoff: f64) -> Plain<'a> {
        Plain {
            pomdp,
            leaf,
            beta,
            cutoff,
            use_cache: true,
            budget: usize::MAX,
        }
    }

    /// Whether an observation branch of mass `gamma` is expanded, as
    /// in [`Belief::successors`]: `γ > cutoff ∧ γ > 0`.
    fn survives(&self, gamma: f64) -> bool {
        gamma > self.cutoff && gamma > 0.0
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
        if self.plain.use_cache {
            self.branch_sum::<true>(ws, belief, a, depth, nodes)
        } else {
            self.branch_sum::<false>(ws, belief, a, depth, nodes)
        }
    }

    /// The branch loop of one `(node, action)` pair: the expected
    /// reward plus `β γ(o) v(o)` over the surviving observation
    /// branches in ascending `o`, where `v(o)` is the normalised
    /// branch's [`Kernel::node_value`] one layer down; `None` as soon
    /// as a subtree runs out of budget.
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
    /// `SHARE` is a const parameter so the literal loop of budgeted
    /// passes compiles without the table code: as a runtime flag it
    /// slowed the literal loops by about 5 % on the sparse layout.
    fn branch_sum<const SHARE: bool>(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        a: usize,
        depth: usize,
        nodes: &mut usize,
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
            if !p.survives(gamma) {
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
            match self.node_value(ws, &post, support, depth - 1, nodes) {
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

    /// `max_a Q(belief, a)` at a frontier node (one remaining layer,
    /// every child a leaf) of a cached pass whose leaf bound
    /// has the envelope floor `floor`: the value and node count of the
    /// literal action loop, from two passes (module docs, "What one
    /// Max-Avg node costs").
    ///
    /// Pass 1 groups the actions by observation class and bit-identical
    /// afterstate `pred`, computes each group's `pred` and `γ` once,
    /// keeps `pred` and the surviving `(o, γ)`, and bounds every action by `ub = r + β·(Σ_s U(s)·ρ(s)·pred(s) −
    /// m·D)`, where `D` is the mass of the branches the cutoff drops.
    /// Pass 2 visits the groups in descending bound, ties to the lower
    /// representative, and expands a group only if its largest `ub +
    /// tol` is not below the best q found so far; the expanded members'
    /// q are folded with `max` in ascending action index. Out of line,
    /// so [`Kernel::node_value`]'s literal loop, the budgeted passes'
    /// hot path, does not grow.
    #[inline(never)]
    fn frontier_max(
        &self,
        ws: &mut PlanWorkspace,
        belief: &[f64],
        floor: f64,
        nodes: &mut usize,
    ) -> f64 {
        let p = &self.plain;
        let pomdp = p.pomdp;
        let (n, n_obs) = (pomdp.n_states(), pomdp.n_observations());
        let f = ws.frontier();
        f.open(n, n_obs);
        for a in 0..pomdp.n_actions() {
            let action = ActionId::new(a);
            let rewards = pomdp.mdp().reward_vector(action);
            let reward = dense::dot(belief, rewards);
            let reward_scale: f64 = belief.iter().zip(rewards).map(|(b, r)| b * r.abs()).sum();
            let start = f.preds.len();
            f.preds.resize(start + n, 0.0);
            pomdp
                .mdp()
                .transition_matrix(action)
                .matvec_transpose_into_unchecked(belief, &mut f.preds[start..]);
            let pred = &f.preds[start..];
            let class = pomdp.observation_class(action);
            let fingerprint = afterstate_fingerprint(pred);
            let earlier = f.groups.iter().enumerate().position(|(g, group)| {
                group.class == class
                    && group.fingerprint == fingerprint
                    && f.preds[g * n..(g + 1) * n]
                        .iter()
                        .zip(pred)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
            let g = if let Some(g) = earlier {
                f.preds.truncate(start);
                g
            } else {
                pomdp
                    .observation_matrix(action)
                    .matvec_transpose_into_unchecked(pred, &mut f.gammas);
                let first = f.branches.len();
                let mut dropped = 0.0;
                for (o, &gamma) in f.gammas.iter().enumerate() {
                    if p.survives(gamma) {
                        f.branches.push((o, gamma));
                    } else if gamma > 0.0 {
                        dropped += gamma;
                    }
                }
                let mass = &pomdp.observation_row_masses()[class].positive;
                let (mut next, mut next_scale) = (0.0, 0.0);
                for (((&x, &rho), &u), &m) in pred.iter().zip(mass).zip(&f.upper).zip(&f.magnitude)
                {
                    next += x * (rho * u);
                    next_scale += x * (rho * m);
                }
                f.groups.push(Group {
                    action: a,
                    class,
                    fingerprint,
                    members: 0,
                    branches: first..f.branches.len(),
                    envelope: p.beta * (next - floor * dropped),
                    scale: p.beta * (next_scale + floor.abs() * dropped),
                    bound: f64::NEG_INFINITY,
                });
                f.groups.len() - 1
            };
            let group = &mut f.groups[g];
            group.members += 1;
            let bound = reward + group.envelope + PRUNE_TOLERANCE * (reward_scale + group.scale);
            group.bound = group.bound.max(bound);
            f.actions.push(FrontierAction {
                group: g,
                reward,
                bound,
                q: f64::NEG_INFINITY,
            });
        }
        f.order.clear();
        f.order.extend(
            f.groups
                .iter()
                .enumerate()
                .map(|(g, group)| (group.bound, g)),
        );
        f.order
            .sort_unstable_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
        let (mut incumbent, mut shared, mut skipped) = (f64::NEG_INFINITY, 0, 0);
        for i in 0..f.order.len() {
            let (bound, g) = f.order[i];
            let group = &f.groups[g];
            // A skipped member would have valued one leaf per surviving
            // branch, exactly as an expanded one does.
            *nodes += group.branches.len() * group.members;
            shared += group.members - 1;
            if bound < incumbent {
                skipped += group.members;
                continue;
            }
            // `branch_sum`'s branch loop on the stored `pred` and
            // `(o, γ)`, kept apart so the literal loop, the budgeted
            // passes' hot path, compiles as it did.
            let pred = &f.preds[g * n..(g + 1) * n];
            let obs_t = pomdp.observation_transpose(ActionId::new(group.action));
            f.terms.clear();
            for &(o, gamma) in &f.branches[group.branches.clone()] {
                let (scaled, support) = self.layout.scale(obs_t, o, pred, &mut f.post);
                debug_assert_eq!(
                    scaled.to_bits(),
                    gamma.to_bits(),
                    "state-major branch mass differs from the row scale's"
                );
                if gamma.is_finite() {
                    self.layout.normalize(&mut f.post, support, gamma);
                }
                let v = self.layout.leaf(p.leaf, &f.post, support);
                f.terms.push(p.beta * gamma * v);
                self.layout.clear(&mut f.post, support);
            }
            for action in f.actions.iter_mut().filter(|x| x.group == g) {
                let mut q = action.reward;
                for &term in &f.terms {
                    q += term;
                }
                debug_assert!(
                    q <= action.bound,
                    "frontier q {q} above its bound {}",
                    action.bound
                );
                action.q = q;
                incumbent = incumbent.max(q);
            }
        }
        // Every skipped q lies strictly below an expanded one, so the
        // literal loop's fold reaches the same bits without them; a
        // skipped action's -∞ never wins a max.
        let mut best = f64::NEG_INFINITY;
        for action in &f.actions {
            best = best.max(action.q);
        }
        ws.count_frontier(shared as u64, skipped as u64);
        best
    }

    /// `max_a Q(belief, a)` at `depth` remaining layers, or the leaf
    /// bound at depth 0. `belief` is a normalised branch on `support`.
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
        let frontier_floor = if depth == 1 && p.use_cache {
            ws.frontier().floor
        } else {
            None
        };
        let value = if let Some(floor) = frontier_floor {
            self.frontier_max(ws, belief, floor, nodes)
        } else {
            if p.use_cache {
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

/// Scratch of a frontier node's two-pass action loop
/// ([`Kernel::frontier_max`]): the leaf bound's envelope, filled once
/// per decision, and the running node's afterstate groups. Held in the
/// [`PlanWorkspace`]; frontier nodes do not nest, and every buffer keeps
/// its capacity across nodes and decisions.
#[derive(Debug, Clone, Default)]
pub(crate) struct Frontier {
    /// `U(s)` of [`ValueBound::envelope_into`].
    upper: Vec<f64>,
    /// `M(s)`, the scale of the rounding margin.
    magnitude: Vec<f64>,
    /// The envelope floor `m`; `None` (no envelope, or `β` not `≥ 0`)
    /// runs frontier nodes on the literal loop.
    floor: Option<f64>,
    /// Group `g`'s afterstate, at `preds[g·|S|..(g + 1)·|S|]`.
    preds: Vec<f64>,
    /// The branch masses `Q_aᵀ · pred` of the group being formed.
    gammas: Vec<f64>,
    /// `(o, γ)` of every group's surviving branches, ascending `o`
    /// within a group.
    branches: Vec<(usize, f64)>,
    groups: Vec<Group>,
    /// One entry per action, in index order.
    actions: Vec<FrontierAction>,
    /// `(bound, group)` in visiting order.
    order: Vec<(f64, usize)>,
    /// The branch terms `β·γ(o)·v(o)` of the group being expanded, in
    /// ascending `o`.
    terms: Vec<f64>,
    /// The branch buffer: `+0.0` everywhere between branches.
    post: Vec<f64>,
}

impl Frontier {
    /// Fills the envelope of `leaf` for a decision on an `n`-state
    /// model; with `β` below 0 or NaN no action is bounded.
    fn fill_envelope(&mut self, leaf: &dyn ValueBound, beta: f64, n: usize) {
        self.upper.resize(n, 0.0);
        self.magnitude.resize(n, 0.0);
        self.floor = if beta >= 0.0 {
            leaf.envelope_into(&mut self.upper, &mut self.magnitude)
        } else {
            None
        };
    }

    /// Empties the groups for a node of a model with `n` states and
    /// `n_obs` observations.
    fn open(&mut self, n: usize, n_obs: usize) {
        self.preds.clear();
        self.gammas.resize(n_obs, 0.0);
        self.branches.clear();
        self.groups.clear();
        self.actions.clear();
        self.post.clear();
        self.post.resize(n, 0.0);
    }
}

/// The actions of a frontier node with one observation class and one
/// afterstate: one `pred`, one `γ`, one set of branch values.
#[derive(Debug, Clone)]
struct Group {
    /// The representative, the group's lowest action.
    action: usize,
    class: usize,
    fingerprint: u64,
    members: usize,
    /// Its surviving branches (`γ > cutoff ∧ γ > 0`), as
    /// `Frontier::branches[branches]`.
    branches: Range<usize>,
    /// `β·(Σ_s U(s)·ρ(s)·pred(s) − m·D)`, `D` the dropped mass.
    envelope: f64,
    /// `β·(Σ_s M(s)·ρ(s)·pred(s) + |m|·D)`.
    scale: f64,
    /// The largest `ub + tol` of its members.
    bound: f64,
}

/// One action of a frontier node.
#[derive(Debug, Clone, Copy)]
struct FrontierAction {
    group: usize,
    /// `dot(π, r_a)`, the first addend of its q.
    reward: f64,
    /// `ub + tol`: no q of the action exceeds it.
    bound: f64,
    /// Its q once its group is expanded; `-∞` while it is skipped.
    q: f64,
}

/// The pre-fusion tree expansion, retained verbatim.
///
/// These are the implementations the fused kernel replaced: every node
/// re-derives its successors through [`Belief::successors`]'s two-pass
/// scatter and allocates fresh posterior vectors per branch. They are
/// kept as (a) the reference the equivalence tests compare bit-for-bit
/// against, and (b) the in-run baseline of `bench --bin planning`.
pub mod legacy {
    use super::Decision;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::ra::tests::two_server_notified;
    use crate::bounds::{ra_bound, ConstantBound, VectorSetBound};
    use bpr_mdp::chain::SolveOpts;

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

    /// A hyperplane set without its envelope: frontier nodes run the
    /// literal loop on it.
    struct NoEnvelope<'a>(&'a VectorSetBound);

    impl ValueBound for NoEnvelope<'_> {
        fn value(&self, belief: &Belief) -> f64 {
            self.0.value(belief)
        }

        fn value_weights(&self, weights: &[f64]) -> f64 {
            self.0.value_weights(weights)
        }

        fn value_support(&self, weights: &[f64], support: &[usize]) -> f64 {
            self.0.value_support(weights, support)
        }
    }

    #[test]
    fn frontier_skips_keep_the_literal_loops_decisions_and_counters() {
        let mut skipped = 0;
        for p in [
            two_server_notified(),
            one_afterstate_two_classes_model(),
            sparse_rows_model(),
        ] {
            let n = p.n_states();
            let mut bound =
                VectorSetBound::from_vector((0..n).map(|s| -4.0 - (s % 5) as f64).collect())
                    .unwrap();
            bound
                .add_vector((0..n).map(|s| -9.0 + (s % 3) as f64 * 3.0).collect())
                .unwrap();
            for b in [Belief::uniform(n), Belief::point(n, 1.into())] {
                for (depth, cutoff, beta) in [(2, 0.0, 1.0), (2, 0.05, 0.9), (3, 0.0, 1.0)] {
                    let mut frontier = PlanWorkspace::new();
                    let mut literal = PlanWorkspace::new();
                    expand_with_workspace(&p, &b, depth, &bound, beta, cutoff, &mut frontier)
                        .unwrap();
                    expand_with_workspace(
                        &p,
                        &b,
                        depth,
                        &NoEnvelope(&bound),
                        beta,
                        cutoff,
                        &mut literal,
                    )
                    .unwrap();
                    let case = format!("n={n} depth={depth} cutoff={cutoff}");
                    assert_eq!(
                        decision_bits(frontier.decision()),
                        decision_bits(literal.decision()),
                        "{case}"
                    );
                    // Cache and afterstate counters read as on the
                    // literal loop, which skips nothing. (Frontier
                    // nodes keep their own scratch, not arena buffers.)
                    let mut stats = frontier.stats().clone();
                    let mut want = literal.stats().clone();
                    assert_eq!(want.frontier_skipped, 0);
                    skipped += stats.frontier_skipped;
                    stats.frontier_skipped = 0;
                    stats.buffers_allocated = 0;
                    want.buffers_allocated = 0;
                    assert_eq!(stats, want, "{case}");
                }
            }
        }
        assert!(skipped > 0, "no frontier action was skipped");
    }

    #[test]
    fn a_negative_discount_bounds_no_frontier_action() {
        let p = two_server_notified();
        let bound = VectorSetBound::from_vector(vec![-3.0, -1.0, -2.0]).unwrap();
        let b = Belief::uniform(3);
        let mut ws = PlanWorkspace::new();
        expand_with_workspace(&p, &b, 2, &bound, -0.5, 0.0, &mut ws).unwrap();
        let old = legacy::expand_with_cutoff(&p, &b, 2, &bound, -0.5, 0.0).unwrap();
        assert_eq!(decision_bits(ws.decision()), decision_bits(&old));
        assert_eq!(ws.stats().frontier_skipped, 0);
        expand_with_workspace(&p, &b, 2, &bound, 1.0, 0.0, &mut ws).unwrap();
        assert!(ws.stats().frontier_skipped > 0, "{:?}", ws.stats());
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
