//! Reusable scratch state for the fused planning kernel.
//!
//! A [`PlanWorkspace`] owns everything a tree expansion
//! ([`crate::tree`]) needs beyond the model itself: a free-list arena
//! of belief buffers, the per-depth action orders of branch-and-bound
//! nodes (one `(upper estimate, action)` pair per action; branch
//! posteriors live only in arena buffers), the within-decision
//! transposition cache, and the [`Decision`] scratch the result is
//! assembled in. Controllers hold one workspace across
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
//! precision — the exact `f64` bit patterns: all `|S|` words on the
//! kernel's dense branch layout, the `(index, bits)` pairs of the
//! non-zero entries on its sparse one — so a hit can only occur on a
//! bit-identical belief and caching never changes any value.
//! Each entry also stores the number of nodes the subtree expanded, and
//! a hit re-adds that count, so `Decision::nodes_expanded` is invariant
//! to both the cache and the distribution of work across parallel root
//! workers. The cache is **disabled** on budgeted anytime passes,
//! whose abort points must depend only on the literal expansion order.
//!
//! The cache holds **interior nodes (remaining depth ≥ 1) and the
//! root's per-action entries only**. Leaves are scored directly: a
//! leaf is one leaf-bound evaluation, cheaper than hashing, probing
//! and storing its key, and a leaf entry would replay zero extra
//! nodes, so leaving leaves out changes no value and no node count.
//! It also keeps the cache small — on the EMN daemon workload leaf
//! entries were about nine tenths of resident memory. The depth-0
//! buckets of [`PlanStats`] therefore stay 0.
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
    orders: Vec<Vec<(f64, usize)>>,
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
                buf.clear();
                buf.resize(n, 0.0);
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

    /// The action order of a branch-and-bound node at remaining depth
    /// `depth`: `(upper estimate, action)` pairs, one per action. A node
    /// only recurses into depth `depth - 1`, so its order survives its
    /// own descent; the vectors keep their capacity across decisions.
    pub(crate) fn action_order(&mut self, depth: usize) -> &mut Vec<(f64, usize)> {
        if self.orders.len() <= depth {
            self.orders.resize_with(depth + 1, Vec::new);
        }
        &mut self.orders[depth]
    }

    /// Whether the current decision was opened with an epoch (i.e. the
    /// cache may carry entries across decisions). Root-level q-entries
    /// are only worth storing in that regime.
    pub(crate) fn has_epoch(&self) -> bool {
        self.epoch.is_some()
    }

    pub(crate) fn cache_get(&mut self, depth: usize, key: impl BeliefKey) -> Option<(f64, usize)> {
        self.cache_get_keyed(depth, depth, key)
    }

    pub(crate) fn cache_put(
        &mut self,
        depth: usize,
        key: impl BeliefKey,
        value: f64,
        nodes: usize,
    ) {
        self.cache
            .put(depth, key, value, nodes, self.decision_serial);
    }

    /// Root per-action lookup: `(depth, action, belief)` keyed through
    /// the same table under a tagged key (see [`pack_root_key`]).
    pub(crate) fn root_cache_get(
        &mut self,
        depth: usize,
        action: usize,
        key: impl BeliefKey,
    ) -> Option<(f64, usize)> {
        self.cache_get_keyed(pack_root_key(depth, action), depth, key)
    }

    pub(crate) fn root_cache_put(
        &mut self,
        depth: usize,
        action: usize,
        key: impl BeliefKey,
        q: f64,
        nodes: usize,
    ) {
        self.cache.put(
            pack_root_key(depth, action),
            key,
            q,
            nodes,
            self.decision_serial,
        );
    }

    fn cache_get_keyed(
        &mut self,
        key_depth: usize,
        stat_depth: usize,
        key: impl BeliefKey,
    ) -> Option<(f64, usize)> {
        match self.cache.get(key_depth, key) {
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

/// How a belief is written into the transposition cache: a word
/// stream that is equal for two beliefs exactly when their bits are.
/// One model uses one key format (its branch layout is fixed at build
/// time), and a cache epoch names the model, so formats never mix.
pub(crate) trait BeliefKey {
    /// FNV-1a over the key words (the cache mixes in the depth).
    fn hash(&self) -> u64;
    /// Whether `stored` (the words of an earlier [`BeliefKey::store`])
    /// is this key.
    fn matches(&self, stored: &[u64]) -> bool;
    /// Appends the key words.
    fn store(&self, keys: &mut Vec<u64>);
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// The dense key: every entry's exact `f64` bit pattern, in order.
impl BeliefKey for &[f64] {
    fn hash(&self) -> u64 {
        self.iter().fold(FNV_OFFSET, |h, w| fnv(h, w.to_bits()))
    }

    fn matches(&self, stored: &[u64]) -> bool {
        stored.len() == self.len() && stored.iter().zip(*self).all(|(&k, &w)| k == w.to_bits())
    }

    fn store(&self, keys: &mut Vec<u64>) {
        keys.extend(self.iter().map(|w| w.to_bits()));
    }
}

/// The sparse key: `(index, bits)` of the non-zero entries among
/// `support`, in ascending index order. Beliefs here never hold `-0.0`
/// (they are non-negative), so skipping zeros loses nothing, and the
/// key depends only on the belief, not on which support it was
/// scanned over: a branch keyed over its observation row's columns and
/// the same belief keyed over all states (a root) produce one key.
pub(crate) struct SparseKey<'a, I> {
    pub(crate) weights: &'a [f64],
    pub(crate) support: I,
}

impl<I: Iterator<Item = usize> + Clone> SparseKey<'_, I> {
    /// The non-zero entries as `(index, bits)` word pairs.
    fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.support.clone().filter_map(move |i| {
            let w = self.weights[i];
            (w != 0.0).then_some((i as u64, w.to_bits()))
        })
    }
}

impl<I: Iterator<Item = usize> + Clone> BeliefKey for SparseKey<'_, I> {
    fn hash(&self) -> u64 {
        // One FNV step per entry, the index spread over the word by a
        // Fibonacci multiplier; `matches` compares both words exactly.
        self.pairs().fold(FNV_OFFSET, |h, (i, w)| {
            fnv(h, w ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        })
    }

    fn matches(&self, stored: &[u64]) -> bool {
        let mut words = stored.iter().copied();
        self.pairs()
            .all(|(i, w)| words.next() == Some(i) && words.next() == Some(w))
            && words.next().is_none()
    }

    fn store(&self, keys: &mut Vec<u64>) {
        for (i, w) in self.pairs() {
            keys.push(i);
            keys.push(w);
        }
    }
}

/// A key whose word hash is computed once and shared by several cache
/// calls: a node's lookup and its store after a miss, or the root's
/// lookups and stores for every action.
pub(crate) struct Prehashed<K> {
    key: K,
    hash: u64,
}

impl<K: BeliefKey> Prehashed<K> {
    pub(crate) fn new(key: K) -> Prehashed<K> {
        let hash = key.hash();
        Prehashed { key, hash }
    }
}

impl<K: BeliefKey> BeliefKey for &Prehashed<K> {
    fn hash(&self) -> u64 {
        self.hash
    }

    fn matches(&self, stored: &[u64]) -> bool {
        self.key.matches(stored)
    }

    fn store(&self, keys: &mut Vec<u64>) {
        self.key.store(keys);
    }
}

/// Open-addressing transposition table over `(depth, belief key)`
/// entries. No `std::collections::HashMap`: the flat key arena and
/// retained-capacity `clear` keep steady-state decisions free of
/// allocations and rehash noise.
#[derive(Debug, Clone, Default)]
struct BeliefCache {
    slots: Vec<Slot>,
    /// Flat storage of the [`BeliefKey`] words, `Slot::len` per entry.
    keys: Vec<u64>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    /// The entry's key depth, or [`VACANT`] for an empty slot.
    depth: u32,
    /// Key words of the entry: `keys[start..start + len]`.
    len: u32,
    start: usize,
    value: f64,
    nodes: u64,
    /// Decision serial the entry was stored under (cross-decision
    /// reuse accounting only; never part of the lookup key).
    serial: u64,
}

/// The `depth` of an empty slot. No key reaches it: node entries use
/// the bare depth and root entries [`pack_root_key`], which stays below
/// `u32::MAX` for every action and depth it accepts.
const VACANT: u32 = u32::MAX;

const EMPTY_SLOT: Slot = Slot {
    hash: 0,
    depth: VACANT,
    len: 0,
    start: 0,
    value: 0.0,
    nodes: 0,
    serial: 0,
};

impl Slot {
    fn occupied(&self) -> bool {
        self.depth != VACANT
    }
}

/// Tags a root per-action entry's key so it can share the node-value
/// table: bit 31 marks "root q-entry", bits 16..31 carry the action,
/// bits 0..16 the depth. Interior node entries use the bare depth,
/// which never reaches bit 31, so the two families cannot collide.
fn pack_root_key(depth: usize, action: usize) -> usize {
    // The all-ones key is the empty-slot marker `VACANT`.
    debug_assert!(depth < (1 << 16) - 1, "tree depth exceeds root-key packing");
    debug_assert!(action < (1 << 15), "action count exceeds root-key packing");
    (1 << 31) | (action << 16) | depth
}

impl BeliefCache {
    fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.depth = VACANT;
        }
        self.keys.clear();
        self.len = 0;
    }

    fn get(&self, depth: usize, key: impl BeliefKey) -> Option<(f64, usize, u64)> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let hash = fnv(key.hash(), depth as u64);
        let mut i = (hash as usize) & mask;
        loop {
            let slot = &self.slots[i];
            if !slot.occupied() {
                return None;
            }
            if slot.hash == hash
                && slot.depth == depth as u32
                && key.matches(&self.keys[slot.start..slot.start + slot.len as usize])
            {
                return Some((slot.value, slot.nodes as usize, slot.serial));
            }
            i = (i + 1) & mask;
        }
    }

    fn put(&mut self, depth: usize, key: impl BeliefKey, value: f64, nodes: usize, serial: u64) {
        if self.slots.is_empty() {
            self.slots = vec![EMPTY_SLOT; 64];
        } else if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let start = self.keys.len();
        key.store(&mut self.keys);
        let slot = Slot {
            hash: fnv(key.hash(), depth as u64),
            depth: depth as u32,
            start,
            len: u32::try_from(self.keys.len() - start).expect("cache key fits u32 words"),
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
        while self.slots[i].occupied() {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    fn grow(&mut self) {
        let doubled = vec![EMPTY_SLOT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for slot in old {
            if slot.occupied() {
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
        assert_eq!(cache.get(2, &a[..]), None);
        cache.put(2, &a[..], -1.5, 7, 1);
        assert_eq!(cache.get(2, &a[..]), Some((-1.5, 7, 1)));
        assert_eq!(cache.get(1, &a[..]), None, "depth is part of the key");
        if b[1] != a[1] {
            assert_eq!(cache.get(2, &b[..]), None, "near-equal bits miss");
        }
        cache.clear();
        assert_eq!(cache.get(2, &a[..]), None);
        assert!(!cache.slots.is_empty(), "clear keeps capacity");
    }

    #[test]
    fn cache_survives_growth() {
        let mut cache = BeliefCache::default();
        for i in 0..500usize {
            cache.put(1, &[i as f64, 1.0 - i as f64][..], -(i as f64), i, 3);
        }
        for i in 0..500usize {
            assert_eq!(
                cache.get(1, &[i as f64, 1.0 - i as f64][..]),
                Some((-(i as f64), i, 3)),
                "entry {i} lost in growth"
            );
        }
    }

    #[test]
    fn sparse_keys_ignore_zeros_and_the_scanned_support() {
        let mut cache = BeliefCache::default();
        let belief = [0.0, 0.25, 0.0, 0.75, 0.0];
        // A branch keyed over its row's support, with a stored zero.
        let branch = SparseKey {
            weights: &belief,
            support: [1usize, 2, 3].iter().copied(),
        };
        // The same belief keyed over all states, as a root is.
        let root = SparseKey {
            weights: &belief,
            support: 0..belief.len(),
        };
        assert_eq!(branch.hash(), root.hash(), "zeros do not enter the hash");
        cache.put(1, branch, -3.0, 4, 1);
        assert_eq!(cache.get(1, root), Some((-3.0, 4, 1)));
        assert_eq!(cache.keys, vec![1, 0.25f64.to_bits(), 3, 0.75f64.to_bits()]);
        // Same values at other indices, and one entry more or less, miss.
        let moved = [0.25, 0.0, 0.0, 0.75, 0.0];
        let moved = SparseKey {
            weights: &moved,
            support: 0..5,
        };
        assert_eq!(cache.get(1, moved), None);
        let longer = [0.0, 0.25, 0.0, 0.75, 0.5];
        let longer = SparseKey {
            weights: &longer,
            support: 0..5,
        };
        assert_eq!(cache.get(1, longer), None);
        let shorter = SparseKey {
            weights: &belief,
            support: [1usize].iter().copied(),
        };
        assert_eq!(cache.get(1, shorter), None);
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
        assert_eq!(ws.cache_get(1, &weights[..]), None);
        ws.cache_put(1, &weights[..], -2.0, 5);
        assert_eq!(ws.cache_get(1, &weights[..]), Some((-2.0, 5)));
        assert_eq!(ws.stats().cross_decision_hits, 0, "same-decision hit");
        // Same epoch, next decision: the entry survives and the hit is
        // attributed to cross-decision reuse.
        ws.begin_epoch(epoch);
        assert_eq!(ws.cache_get(1, &weights[..]), Some((-2.0, 5)));
        assert_eq!(ws.stats().cross_decision_hits, 1);
        assert_eq!(ws.stats().cache_hits, 2);
        assert_eq!(ws.stats().cache_hits_by_depth, vec![0, 2]);
        assert_eq!(ws.stats().cache_misses_by_depth, vec![0, 1]);
        // A changed bound generation invalidates everything.
        ws.begin_epoch(CacheEpoch {
            bound_generation: 23,
            ..epoch
        });
        assert_eq!(ws.cache_get(1, &weights[..]), None);
        // Plain begin() always clears and never counts cross-decision.
        ws.cache_put(1, &weights[..], -2.0, 5);
        ws.begin();
        assert_eq!(ws.cache_get(1, &weights[..]), None);
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
        ws.cache_put(1, &weights[..], -2.0, 5);
        assert_eq!(ws.root_cache_get(1, 0, &weights[..]), None);
        ws.root_cache_put(1, 0, &weights[..], -7.5, 3);
        assert_eq!(ws.root_cache_get(1, 0, &weights[..]), Some((-7.5, 3)));
        assert_eq!(
            ws.root_cache_get(1, 1, &weights[..]),
            None,
            "per-action keys"
        );
        assert_eq!(ws.cache_get(1, &weights[..]), Some((-2.0, 5)));
        ws.begin_epoch(epoch);
        assert_eq!(ws.root_cache_get(1, 0, &weights[..]), Some((-7.5, 3)));
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

    #[test]
    fn checkout_zeroes_a_released_dirty_buffer() {
        let mut ws = PlanWorkspace::new();
        let mut dirty = ws.checkout(4);
        dirty.copy_from_slice(&[1.0, -0.0, f64::NAN, 2.5]);
        ws.release(dirty);
        let same_len = ws.checkout(4);
        assert!(
            same_len.iter().all(|v| v.to_bits() == 0),
            "same-length checkout returned {same_len:?}"
        );
        let mut dirty = same_len;
        dirty.fill(7.0);
        ws.release(dirty);
        let shorter = ws.checkout(2);
        assert!(shorter.iter().all(|v| v.to_bits() == 0));
        assert_eq!(ws.stats().buffers_allocated, 1, "the buffer was reused");
    }
}
