//! Reusable scratch state for the fused planning kernel.
//!
//! A [`PlanWorkspace`] owns everything a tree expansion
//! ([`crate::tree`]) needs beyond the model itself: a free-list arena
//! of belief buffers, per-depth branch-and-bound frames, the
//! within-decision transposition cache, and the [`Decision`] scratch
//! the result is assembled in. Controllers hold one workspace across
//! decisions, so after the first decision warms the buffers up, a
//! decision performs **zero heap allocations** (the bench suite's
//! counting allocator enforces this).
//!
//! # Transposition cache
//!
//! Recovery models produce many *identical* posteriors inside one tree:
//! several restart actions collapse the belief onto the same null-fault
//! posterior, and the EMN monitors are action-independent. The cache
//! maps `(remaining depth, belief)` to the subtree value computed the
//! first time that node was seen. Keys quantise the belief at machine
//! precision — the exact `f64` bit patterns — so a hit can only occur
//! on a bit-identical belief and caching never changes any value.
//! Each entry also stores the number of nodes the subtree expanded, and
//! a hit re-adds that count, so `Decision::nodes_expanded` is invariant
//! to both the cache and the distribution of work across parallel root
//! workers. The cache is **disabled** on budgeted anytime passes,
//! whose abort points must depend only on the literal expansion order.
//!
//! # Cache epochs (cross-decision reuse)
//!
//! Subtree values depend on exactly four inputs beyond the belief and
//! depth: the model's transition/observation/reward content, the leaf
//! bound's hyperplanes, the discount base `beta`, and the gamma-cutoff.
//! A [`CacheEpoch`] packages those as `(model fingerprint, bound
//! generation, beta bits, cutoff bits)`; entry points that open a
//! decision with [`PlanWorkspace::begin_epoch`] keep the cache
//! **across decisions** for as long as the epoch is unchanged, and
//! clear it the moment any component differs. Because keys are exact
//! belief bits and the kernel is deterministic, a retained entry is
//! bit-identical to what recomputation would produce — cross-decision
//! reuse can change timings, never values. Entry points that cannot
//! name their epoch (or mutate bounds mid-decision) use
//! [`PlanWorkspace::begin`], which keeps the original
//! clear-every-decision semantics.

use crate::tree::Decision;
use bpr_linalg::CsrMatrix;
use bpr_mdp::ActionId;

/// Cumulative counters of one workspace's planning activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Transposition-cache hits (subtrees replayed from the cache).
    pub cache_hits: u64,
    /// Transposition-cache misses (subtrees expanded and stored).
    pub cache_misses: u64,
    /// The subset of `cache_hits` whose entry was stored by an
    /// *earlier* decision — i.e. reuse enabled by the epoch cache.
    /// Always zero for decisions opened without a [`CacheEpoch`].
    pub cross_decision_hits: u64,
    /// Cache hits bucketed by remaining depth (index = depth). The
    /// vectors grow to the deepest depth seen and then stay fixed, so
    /// steady-state decisions do not allocate here.
    pub cache_hits_by_depth: Vec<u64>,
    /// Cache misses bucketed by remaining depth, parallel to
    /// [`PlanStats::cache_hits_by_depth`].
    pub cache_misses_by_depth: Vec<u64>,
    /// Belief buffers allocated because the arena was empty. Steady
    /// state is a constant value: every decision after the first warm
    /// one reuses arena buffers.
    pub buffers_allocated: u64,
}

impl PlanStats {
    fn bump_depth(buckets: &mut Vec<u64>, depth: usize) {
        if buckets.len() <= depth {
            buckets.resize(depth + 1, 0);
        }
        buckets[depth] += 1;
    }
}

/// The invariants a transposition-cache entry depends on (beyond its
/// own `(depth, belief)` key). Two decisions opened under equal epochs
/// may soundly share entries; see the module docs for the argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEpoch {
    /// [`crate::Pomdp::fingerprint`] of the planned model.
    pub model_fingerprint: u64,
    /// [`crate::bounds::VectorSetBound::generation`] of the leaf bound
    /// (or any equivalent token that changes whenever the bound does).
    pub bound_generation: u64,
    /// `f64::to_bits` of the discount base `beta`.
    pub beta_bits: u64,
    /// `f64::to_bits` of the gamma-cutoff.
    pub cutoff_bits: u64,
}

/// Reusable scratch for [`crate::tree`] expansions.
///
/// Create once (`PlanWorkspace::new()`), pass to the
/// `*_with_workspace` entry points, and read the result via
/// [`PlanWorkspace::decision`]. All scratch is retained between
/// decisions; only the transposition cache's *entries* are cleared.
#[derive(Debug, Clone, Default)]
pub struct PlanWorkspace {
    arena: Vec<Vec<f64>>,
    frames: Vec<BbFrame>,
    cache: BeliefCache,
    decision: Decision,
    stats: PlanStats,
    /// Epoch the cache entries were computed under; `None` until an
    /// epoch-aware decision opens, and after any `begin()` decision.
    epoch: Option<CacheEpoch>,
    /// Monotone decision counter; slots remember the serial they were
    /// stored under so hits from earlier decisions are distinguishable.
    decision_serial: u64,
}

impl PlanWorkspace {
    /// An empty workspace. Buffers are grown lazily by the first
    /// decisions and reused afterwards.
    pub fn new() -> PlanWorkspace {
        PlanWorkspace::default()
    }

    /// Counters accumulated over the workspace's lifetime.
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// Zeroes the cumulative counters (e.g. between a warm-up phase and
    /// a measured phase). Cache entries, arena buffers, and the current
    /// epoch are untouched.
    pub fn reset_stats(&mut self) {
        // Zero in place: replacing the struct would drop the per-depth
        // buckets' capacity and force a reallocation on the next bump,
        // breaking the steady-state zero-allocation property.
        self.stats.cache_hits = 0;
        self.stats.cache_misses = 0;
        self.stats.cross_decision_hits = 0;
        self.stats
            .cache_hits_by_depth
            .iter_mut()
            .for_each(|v| *v = 0);
        self.stats
            .cache_misses_by_depth
            .iter_mut()
            .for_each(|v| *v = 0);
        self.stats.buffers_allocated = 0;
    }

    /// The decision produced by the most recent expansion into this
    /// workspace. After a budgeted pass
    /// ([`crate::tree::expand_budgeted`]) it is valid only when the pass
    /// reported `completed`; an aborted pass leaves it partial.
    pub fn decision(&self) -> &Decision {
        &self.decision
    }

    /// Moves the most recent decision out, leaving an empty placeholder
    /// (used by the allocating convenience wrappers).
    pub fn take_decision(&mut self) -> Decision {
        std::mem::take(&mut self.decision)
    }

    /// Starts a new decision: empties the transposition cache (bounds
    /// may have changed since the previous decision) while keeping its
    /// capacity.
    pub(crate) fn begin(&mut self) {
        self.decision_serial += 1;
        self.epoch = None;
        self.cache.clear();
    }

    /// Starts a new decision under an explicit [`CacheEpoch`]: the
    /// transposition cache is cleared only when the epoch differs from
    /// the one the retained entries were computed under, so repeated
    /// decisions against an unchanged model/bound reuse subtree values
    /// across decisions.
    pub(crate) fn begin_epoch(&mut self, epoch: CacheEpoch) {
        self.decision_serial += 1;
        if self.epoch != Some(epoch) {
            self.cache.clear();
            self.epoch = Some(epoch);
        }
    }

    /// Borrows a zeroed length-`n` scratch buffer from the arena,
    /// allocating only when the free list is empty. Return it with
    /// [`PlanWorkspace::release`] so later checkouts can reuse it.
    pub fn checkout(&mut self, n: usize) -> Vec<f64> {
        match self.arena.pop() {
            Some(mut buf) => {
                if buf.len() != n {
                    buf.clear();
                    buf.resize(n, 0.0);
                }
                buf
            }
            None => {
                self.stats.buffers_allocated += 1;
                vec![0.0; n]
            }
        }
    }

    /// Returns a buffer from [`PlanWorkspace::checkout`] to the arena.
    pub fn release(&mut self, buf: Vec<f64>) {
        self.arena.push(buf);
    }

    pub(crate) fn take_frame(&mut self, depth: usize) -> BbFrame {
        if self.frames.len() <= depth {
            self.frames.resize_with(depth + 1, BbFrame::default);
        }
        std::mem::take(&mut self.frames[depth])
    }

    pub(crate) fn put_frame(&mut self, depth: usize, frame: BbFrame) {
        self.frames[depth] = frame;
    }

    /// Whether the current decision was opened with an epoch (i.e. the
    /// cache may carry entries across decisions). Root-level q-entries
    /// are only worth storing in that regime.
    pub(crate) fn has_epoch(&self) -> bool {
        self.epoch.is_some()
    }

    pub(crate) fn cache_get(&mut self, depth: usize, weights: &[f64]) -> Option<(f64, usize)> {
        self.cache_get_keyed(depth, depth, weights)
    }

    pub(crate) fn cache_put(&mut self, depth: usize, weights: &[f64], value: f64, nodes: usize) {
        self.cache
            .put(depth, weights, value, nodes, self.decision_serial);
    }

    /// Root per-action lookup: `(depth, action, belief)` keyed through
    /// the same table under a tagged key (see [`pack_root_key`]).
    pub(crate) fn root_cache_get(
        &mut self,
        depth: usize,
        action: usize,
        weights: &[f64],
    ) -> Option<(f64, usize)> {
        self.cache_get_keyed(pack_root_key(depth, action), depth, weights)
    }

    pub(crate) fn root_cache_put(
        &mut self,
        depth: usize,
        action: usize,
        weights: &[f64],
        q: f64,
        nodes: usize,
    ) {
        self.cache.put(
            pack_root_key(depth, action),
            weights,
            q,
            nodes,
            self.decision_serial,
        );
    }

    fn cache_get_keyed(
        &mut self,
        key_depth: usize,
        stat_depth: usize,
        weights: &[f64],
    ) -> Option<(f64, usize)> {
        match self.cache.get(key_depth, weights) {
            Some((value, nodes, serial)) => {
                self.stats.cache_hits += 1;
                PlanStats::bump_depth(&mut self.stats.cache_hits_by_depth, stat_depth);
                if serial != self.decision_serial {
                    self.stats.cross_decision_hits += 1;
                }
                Some((value, nodes))
            }
            None => {
                self.stats.cache_misses += 1;
                PlanStats::bump_depth(&mut self.stats.cache_misses_by_depth, stat_depth);
                None
            }
        }
    }

    pub(crate) fn decision_clear(&mut self) {
        self.decision.q_values.clear();
    }

    pub(crate) fn decision_fill(&mut self, n_actions: usize, value: f64) {
        self.decision.q_values.clear();
        self.decision.q_values.resize(n_actions, value);
    }

    pub(crate) fn push_q(&mut self, q: f64) {
        self.decision.q_values.push(q);
    }

    pub(crate) fn set_q(&mut self, action: usize, q: f64) {
        self.decision.q_values[action] = q;
    }

    pub(crate) fn q_values(&self) -> &[f64] {
        &self.decision.q_values
    }

    pub(crate) fn finish_decision(&mut self, action: ActionId, value: f64, nodes: usize) {
        self.decision.action = action;
        self.decision.value = value;
        self.decision.nodes_expanded = nodes;
    }
}

/// Per-depth scratch of one branch-and-bound node: the shared
/// predictive vector, the surviving branches (flat `gammas` +
/// posterior slots), and the per-action entries ordered for pruning.
///
/// Frames are checked out of the workspace by remaining depth via
/// [`std::mem::take`]; a node at depth `d` only ever recurses into
/// depth `d - 1`, so the frame it holds is never aliased.
#[derive(Debug, Clone, Default)]
pub(crate) struct BbFrame {
    pub(crate) pred: Vec<f64>,
    pub(crate) gammas: Vec<f64>,
    posts: Vec<Vec<f64>>,
    posts_used: usize,
    pub(crate) entries: Vec<BbEntry>,
}

/// One action's row in a branch-and-bound frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BbEntry {
    pub(crate) action: usize,
    pub(crate) reward: f64,
    pub(crate) q_ub: f64,
    /// Index of the action's first branch in `gammas`/`posts`.
    pub(crate) start: usize,
    /// Number of surviving branches.
    pub(crate) len: usize,
}

impl BbFrame {
    pub(crate) fn reset(&mut self, n_states: usize) {
        self.pred.clear();
        self.pred.resize(n_states, 0.0);
        self.gammas.clear();
        self.entries.clear();
        self.posts_used = 0;
    }

    /// Number of branches collected so far.
    pub(crate) fn branches(&self) -> usize {
        self.gammas.len()
    }

    /// Applies observation row `o` of `obs_t` to the predictive vector,
    /// writing the unnormalised posterior into the next free slot and
    /// returning `γ`. The slot is only consumed if the caller follows
    /// up with [`BbFrame::keep_branch`]. Dimensions are the kernel's
    /// own invariants, so this runs the debug-asserted unchecked scale.
    pub(crate) fn scale_branch(&mut self, obs_t: &CsrMatrix, o: usize, n_states: usize) -> f64 {
        if self.posts.len() == self.posts_used {
            self.posts.push(vec![0.0; n_states]);
        }
        let slot = &mut self.posts[self.posts_used];
        if slot.len() != n_states {
            slot.clear();
            slot.resize(n_states, 0.0);
        }
        obs_t.row_scaled_into_unchecked(o, &self.pred, slot)
    }

    /// Normalises the pending slot by `gamma` (replicating
    /// [`bpr_linalg::dense::normalize_l1`]'s finite-sum guard) and
    /// commits it as a surviving branch.
    pub(crate) fn keep_branch(&mut self, gamma: f64) {
        if gamma != 0.0 && gamma.is_finite() {
            for v in self.posts[self.posts_used].iter_mut() {
                *v /= gamma;
            }
        }
        self.gammas.push(gamma);
        self.posts_used += 1;
    }

    pub(crate) fn post(&self, i: usize) -> &[f64] {
        &self.posts[i]
    }
}

/// Open-addressing transposition table over `(depth, belief-bits)`
/// keys. No `std::collections::HashMap`: the flat key arena and
/// retained-capacity `clear` keep steady-state decisions free of
/// allocations and rehash noise.
#[derive(Debug, Clone, Default)]
struct BeliefCache {
    slots: Vec<Slot>,
    /// Flat storage of the `f64::to_bits` key words, `key_len` per
    /// entry (all beliefs of one model share a length).
    keys: Vec<u64>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    occupied: bool,
    hash: u64,
    depth: u32,
    start: usize,
    value: f64,
    nodes: u64,
    /// Decision serial the entry was stored under (cross-decision
    /// reuse accounting only; never part of the lookup key).
    serial: u64,
}

const EMPTY_SLOT: Slot = Slot {
    occupied: false,
    hash: 0,
    depth: 0,
    start: 0,
    value: 0.0,
    nodes: 0,
    serial: 0,
};

/// Tags a root per-action entry's key so it can share the node-value
/// table: bit 31 marks "root q-entry", bits 16..31 carry the action,
/// bits 0..16 the depth. Interior node entries use the bare depth,
/// which never reaches bit 31, so the two families cannot collide.
fn pack_root_key(depth: usize, action: usize) -> usize {
    debug_assert!(depth < (1 << 16), "tree depth exceeds root-key packing");
    debug_assert!(action < (1 << 15), "action count exceeds root-key packing");
    (1 << 31) | (action << 16) | depth
}

/// FNV-1a over the depth and the belief's exact bit patterns.
fn hash_key(depth: usize, weights: &[f64]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    h ^= depth as u64;
    h = h.wrapping_mul(FNV_PRIME);
    for &w in weights {
        h ^= w.to_bits();
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl BeliefCache {
    fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.occupied = false;
        }
        self.keys.clear();
        self.len = 0;
    }

    fn key_matches(&self, start: usize, weights: &[f64]) -> bool {
        self.keys[start..start + weights.len()]
            .iter()
            .zip(weights)
            .all(|(&k, &w)| k == w.to_bits())
    }

    fn get(&self, depth: usize, weights: &[f64]) -> Option<(f64, usize, u64)> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let hash = hash_key(depth, weights);
        let mut i = (hash as usize) & mask;
        loop {
            let slot = &self.slots[i];
            if !slot.occupied {
                return None;
            }
            if slot.hash == hash
                && slot.depth == depth as u32
                && self.key_matches(slot.start, weights)
            {
                return Some((slot.value, slot.nodes as usize, slot.serial));
            }
            i = (i + 1) & mask;
        }
    }

    fn put(&mut self, depth: usize, weights: &[f64], value: f64, nodes: usize, serial: u64) {
        if self.slots.is_empty() {
            self.slots = vec![EMPTY_SLOT; 64];
        } else if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let start = self.keys.len();
        self.keys.extend(weights.iter().map(|w| w.to_bits()));
        let slot = Slot {
            occupied: true,
            hash: hash_key(depth, weights),
            depth: depth as u32,
            start,
            value,
            nodes: nodes as u64,
            serial,
        };
        self.insert_slot(slot);
        self.len += 1;
    }

    fn insert_slot(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = (slot.hash as usize) & mask;
        while self.slots[i].occupied {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    fn grow(&mut self) {
        let doubled = vec![EMPTY_SLOT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for slot in old {
            if slot.occupied {
                self.insert_slot(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_only_on_exact_bits_and_depth() {
        let mut cache = BeliefCache::default();
        let a = [0.25, 0.75];
        let b = [0.25, 0.75 + 1e-16];
        assert_eq!(cache.get(2, &a), None);
        cache.put(2, &a, -1.5, 7, 1);
        assert_eq!(cache.get(2, &a), Some((-1.5, 7, 1)));
        assert_eq!(cache.get(1, &a), None, "depth is part of the key");
        if b[1] != a[1] {
            assert_eq!(cache.get(2, &b), None, "near-equal bits miss");
        }
        cache.clear();
        assert_eq!(cache.get(2, &a), None);
        assert!(!cache.slots.is_empty(), "clear keeps capacity");
    }

    #[test]
    fn cache_survives_growth() {
        let mut cache = BeliefCache::default();
        for i in 0..500usize {
            cache.put(1, &[i as f64, 1.0 - i as f64], -(i as f64), i, 3);
        }
        for i in 0..500usize {
            assert_eq!(
                cache.get(1, &[i as f64, 1.0 - i as f64]),
                Some((-(i as f64), i, 3)),
                "entry {i} lost in growth"
            );
        }
    }

    #[test]
    fn epoch_begin_retains_entries_and_counts_cross_decision_hits() {
        let epoch = CacheEpoch {
            model_fingerprint: 11,
            bound_generation: 22,
            beta_bits: 0.5f64.to_bits(),
            cutoff_bits: 0.0f64.to_bits(),
        };
        let weights = [0.125, 0.875];
        let mut ws = PlanWorkspace::new();
        ws.begin_epoch(epoch);
        assert_eq!(ws.cache_get(1, &weights), None);
        ws.cache_put(1, &weights, -2.0, 5);
        assert_eq!(ws.cache_get(1, &weights), Some((-2.0, 5)));
        assert_eq!(ws.stats().cross_decision_hits, 0, "same-decision hit");
        // Same epoch, next decision: the entry survives and the hit is
        // attributed to cross-decision reuse.
        ws.begin_epoch(epoch);
        assert_eq!(ws.cache_get(1, &weights), Some((-2.0, 5)));
        assert_eq!(ws.stats().cross_decision_hits, 1);
        assert_eq!(ws.stats().cache_hits, 2);
        assert_eq!(ws.stats().cache_hits_by_depth, vec![0, 2]);
        assert_eq!(ws.stats().cache_misses_by_depth, vec![0, 1]);
        // A changed bound generation invalidates everything.
        ws.begin_epoch(CacheEpoch {
            bound_generation: 23,
            ..epoch
        });
        assert_eq!(ws.cache_get(1, &weights), None);
        // Plain begin() always clears and never counts cross-decision.
        ws.cache_put(1, &weights, -2.0, 5);
        ws.begin();
        assert_eq!(ws.cache_get(1, &weights), None);
        ws.reset_stats();
        // Counters are zeroed in place; the per-depth buckets keep
        // their length (and capacity) so steady state stays alloc-free.
        let zeroed = PlanStats {
            cache_hits_by_depth: vec![0, 0],
            cache_misses_by_depth: vec![0, 0],
            ..PlanStats::default()
        };
        assert_eq!(ws.stats(), &zeroed);
        // Root per-action entries share the table under a tagged key:
        // no collision with node entries at the same depth, and the
        // same epoch/serial discipline applies.
        ws.begin_epoch(epoch);
        ws.cache_put(1, &weights, -2.0, 5);
        assert_eq!(ws.root_cache_get(1, 0, &weights), None);
        ws.root_cache_put(1, 0, &weights, -7.5, 3);
        assert_eq!(ws.root_cache_get(1, 0, &weights), Some((-7.5, 3)));
        assert_eq!(ws.root_cache_get(1, 1, &weights), None, "per-action keys");
        assert_eq!(ws.cache_get(1, &weights), Some((-2.0, 5)));
        ws.begin_epoch(epoch);
        assert_eq!(ws.root_cache_get(1, 0, &weights), Some((-7.5, 3)));
        assert!(ws.stats().cross_decision_hits >= 1);
    }

    #[test]
    fn workspace_arena_recycles_buffers() {
        let mut ws = PlanWorkspace::new();
        let a = ws.checkout(4);
        let b = ws.checkout(4);
        assert_eq!(ws.stats().buffers_allocated, 2);
        ws.release(a);
        ws.release(b);
        let c = ws.checkout(4);
        let d = ws.checkout(4);
        assert_eq!(ws.stats().buffers_allocated, 2, "buffers were reused");
        assert_eq!(c.len(), 4);
        assert_eq!(d.len(), 4);
        ws.release(c);
        ws.release(d);
        // A different model size reshapes, reusing the heap block when
        // capacity allows.
        let e = ws.checkout(3);
        assert_eq!(e.len(), 3);
        assert_eq!(ws.stats().buffers_allocated, 2);
    }
}
