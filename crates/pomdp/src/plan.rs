//! Reusable scratch state for the fused planning kernel.
//!
//! A [`PlanWorkspace`] owns everything a tree expansion
//! ([`crate::tree`]) needs beyond the model itself: a free-list arena
//! of belief buffers (branch posteriors live only there), the
//! per-depth afterstate tables of the nodes whose action loops are
//! running, the scratch of frontier nodes' two-pass action loops (the
//! leaf bound's envelope and the running node's afterstate groups), the
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
//! precision — the exact `f64` bit patterns: all `|S|` words on the
//! kernel's dense branch layout, the `(index, bits)` pairs of the
//! non-zero entries on its sparse one — so a hit can only occur on a
//! bit-identical belief and caching never changes any value.
//! Each entry also stores the number of nodes the subtree expanded, and
//! a hit re-adds that count, so `Decision::nodes_expanded` is invariant
//! to the cache. The cache is **disabled** on budgeted anytime passes,
//! whose abort points must depend only on the literal expansion order.
//!
//! The cache holds **interior nodes (remaining depth ≥ 1) only**.
//! Leaves are scored directly: a leaf is one leaf-bound evaluation,
//! cheaper than hashing, probing and storing its key, and a leaf entry
//! would replay zero extra nodes, so leaving leaves out changes no
//! value and no node count.
//! It also keeps the cache small — on the EMN daemon workload leaf
//! entries were about nine tenths of resident memory. The depth-0
//! buckets of [`PlanStats`] therefore stay 0.
//!
//! # One decision, one cache
//!
//! Every decision opens with an empty cache. Entries are not carried
//! from one decision to the next: the controller backs its bound up
//! before each decision, and a backup that adds a plane changes every
//! leaf value, so carried entries would almost never still be valid.
//!
//! Within a decision the cache catches a posterior reached from two
//! *different* afterstates (different observation masks of different
//! actions inducing one belief, as on EMN) and a posterior repeated
//! under different nodes. Two actions of one node with the same
//! afterstate `P_aᵀπ` (a restart of a component without fault mass
//! next to `observe`) produce the same posteriors branch by branch;
//! the node's afterstate table (below, and [`crate::tree`], "What one
//! Max-Avg node costs") catches those one step earlier and skips the
//! branch loop, so they never reach the cache. On `emn-serve` they were
//! most of its hits.
//!
//! # Afterstate sharing
//!
//! Each node of a cached pass opens its depth's afterstate
//! table before its action loop (a node only recurses one depth down,
//! so its table survives its own descent). An expanded action records
//! its key — a fingerprint of its afterstate's bits and its observation
//! class — the action itself, its branch terms `β·γ(o)·v(o)` in
//! ascending `o`, and the nodes its branches expanded. A later action
//! with the same key is compared bit for bit against a recomputed
//! afterstate of the recorded action; on a match it replays the terms
//! and the node count. [`PlanStats::afterstate_hits`] counts those
//! replays. The tables keep their capacity across decisions, so they
//! allocate only while the first decisions warm them up.
//!
//! Frontier nodes (one remaining layer) whose leaf bound has an
//! envelope open no table: they group their actions by afterstate in
//! their own scratch before expanding any ([`crate::tree`], "What one
//! Max-Avg node costs"), and count each group's `members − 1` sharers
//! as afterstate hits, skipped groups included, so the counters read
//! what the table would have counted. [`PlanStats::frontier_skipped`]
//! counts the actions they did not expand.

use crate::tree::{Decision, Frontier};
use bpr_mdp::ActionId;

/// Cumulative counters of one workspace's planning activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Transposition-cache hits (subtrees replayed from the cache).
    pub cache_hits: u64,
    /// Transposition-cache misses (subtrees expanded and stored).
    pub cache_misses: u64,
    /// Always 0: every decision opens with an empty cache, so no hit
    /// replays an earlier decision's entry. A leftover that perfbench's
    /// traced replay still reads; ROADMAP item 4 deletes it with that
    /// replay.
    pub cross_decision_hits: u64,
    /// Cache hits bucketed by remaining depth (index = depth). The
    /// vectors grow to the deepest depth seen and then stay fixed, so
    /// steady-state decisions do not allocate here.
    pub cache_hits_by_depth: Vec<u64>,
    /// Cache misses bucketed by remaining depth, parallel to
    /// [`PlanStats::cache_hits_by_depth`].
    pub cache_misses_by_depth: Vec<u64>,
    /// `(node, action)` pairs whose afterstate `P_aᵀπ` and observation
    /// matrix equalled an earlier action's at the same node, so they
    /// replayed that action's branch terms instead of expanding (see
    /// "Afterstate sharing" in the module docs).
    pub afterstate_hits: u64,
    /// Afterstate hits bucketed by the node's remaining depth (index =
    /// depth), grown like [`PlanStats::cache_hits_by_depth`].
    pub afterstate_hits_by_depth: Vec<u64>,
    /// Actions of frontier nodes (one remaining layer) that were not
    /// expanded because the leaf bound's envelope showed they cannot
    /// win (see [`crate::tree`], "What one Max-Avg node costs"). Their
    /// leaves still count in `nodes_expanded`.
    pub frontier_skipped: u64,
    /// Belief buffers allocated because the arena was empty. Steady
    /// state is a constant value: every decision after the first warm
    /// one reuses arena buffers.
    pub buffers_allocated: u64,
}

impl PlanStats {
    fn bump_depth(buckets: &mut Vec<u64>, depth: usize, by: u64) {
        if buckets.len() <= depth {
            buckets.resize(depth + 1, 0);
        }
        buckets[depth] += by;
    }
}

/// The inputs a cached subtree value depends on beyond its `(depth,
/// belief)` key. No planner reads it: every decision opens with an
/// empty cache, and [`crate::tree::expand_with_workspace_epoch`]
/// ignores its epoch. A leftover that perfbench's traced replay still
/// builds; ROADMAP item 4 deletes it with that replay.
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
    afterstates: Vec<AfterstateTable>,
    frontier: Frontier,
    cache: BeliefCache,
    decision: Decision,
    stats: PlanStats,
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
    /// a measured phase). Cache entries and arena buffers are
    /// untouched.
    pub fn reset_stats(&mut self) {
        // Zero in place: replacing the struct would drop the per-depth
        // buckets' capacity and force a reallocation on the next bump,
        // breaking the steady-state zero-allocation property.
        self.stats.cache_hits = 0;
        self.stats.cache_misses = 0;
        self.stats
            .cache_hits_by_depth
            .iter_mut()
            .for_each(|v| *v = 0);
        self.stats
            .cache_misses_by_depth
            .iter_mut()
            .for_each(|v| *v = 0);
        self.stats.afterstate_hits = 0;
        self.stats
            .afterstate_hits_by_depth
            .iter_mut()
            .for_each(|v| *v = 0);
        self.stats.frontier_skipped = 0;
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
        self.cache.clear();
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

    /// Empties the afterstate table of the node at remaining depth
    /// `depth`, at the start of its action loop. A node only recurses
    /// into depth `depth - 1`, so its table survives its own descent;
    /// the tables keep their capacity across decisions.
    pub(crate) fn afterstate_open(&mut self, depth: usize) {
        if self.afterstates.len() <= depth {
            self.afterstates
                .resize_with(depth + 1, AfterstateTable::default);
        }
        let table = &mut self.afterstates[depth];
        table.entries.clear();
        table.terms.clear();
    }

    /// The first entry at or after `from` in the depth-`depth` table
    /// with `key`, as `(entry, representative action)`. A match is a
    /// candidate only: the caller compares the representative's
    /// afterstate bit for bit.
    pub(crate) fn afterstate_probe(
        &self,
        depth: usize,
        key: AfterstateKey,
        from: usize,
    ) -> Option<(usize, usize)> {
        let entries = &self.afterstates[depth].entries;
        (from..entries.len())
            .find(|&i| entries[i].key == key)
            .map(|i| (i, entries[i].action))
    }

    /// Appends one branch term `β·γ(o)·v(o)` of the action being
    /// expanded at the depth-`depth` node.
    pub(crate) fn afterstate_push_term(&mut self, depth: usize, term: f64) {
        self.afterstates[depth].terms.push(term);
    }

    /// Closes the expanded action's entry: the terms pushed since the
    /// previous entry, and the `nodes` its branches expanded.
    pub(crate) fn afterstate_record(
        &mut self,
        depth: usize,
        key: AfterstateKey,
        action: usize,
        nodes: usize,
    ) {
        let table = &mut self.afterstates[depth];
        let start = table.entries.last().map_or(0, |e| e.terms.end);
        table.entries.push(Afterstate {
            key,
            action,
            terms: start..table.terms.len(),
            nodes,
        });
    }

    /// Adds `entry`'s terms onto `q` in their stored (ascending
    /// observation) order and returns the sum with the entry's node
    /// count, counting the hit.
    pub(crate) fn afterstate_replay(
        &mut self,
        depth: usize,
        entry: usize,
        mut q: f64,
    ) -> (f64, usize) {
        let table = &self.afterstates[depth];
        let e = &table.entries[entry];
        for &term in &table.terms[e.terms.clone()] {
            q += term;
        }
        let nodes = e.nodes;
        self.stats.afterstate_hits += 1;
        PlanStats::bump_depth(&mut self.stats.afterstate_hits_by_depth, depth, 1);
        (q, nodes)
    }

    /// The scratch of frontier nodes' two-pass action loops. Frontier
    /// nodes do not nest, so one scratch serves a whole decision.
    pub(crate) fn frontier(&mut self) -> &mut Frontier {
        &mut self.frontier
    }

    /// Counts one frontier node's afterstate sharers (`shared`, each an
    /// afterstate hit at remaining depth 1) and its actions that were
    /// not expanded.
    pub(crate) fn count_frontier(&mut self, shared: u64, skipped: u64) {
        if shared > 0 {
            self.stats.afterstate_hits += shared;
            PlanStats::bump_depth(&mut self.stats.afterstate_hits_by_depth, 1, shared);
        }
        self.stats.frontier_skipped += skipped;
    }

    pub(crate) fn cache_get(&mut self, depth: usize, key: impl BeliefKey) -> Option<(f64, usize)> {
        let hit = self.cache.get(depth, key);
        if hit.is_some() {
            self.stats.cache_hits += 1;
            PlanStats::bump_depth(&mut self.stats.cache_hits_by_depth, depth, 1);
        } else {
            self.stats.cache_misses += 1;
            PlanStats::bump_depth(&mut self.stats.cache_misses_by_depth, depth, 1);
        }
        hit
    }

    pub(crate) fn cache_put(
        &mut self,
        depth: usize,
        key: impl BeliefKey,
        value: f64,
        nodes: usize,
    ) {
        self.cache.put(depth, key, value, nodes);
    }

    pub(crate) fn decision_clear(&mut self) {
        self.decision.q_values.clear();
    }

    pub(crate) fn push_q(&mut self, q: f64) {
        self.decision.q_values.push(q);
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

/// What two actions at one node must share before their afterstates
/// are compared bit for bit: a fingerprint of the afterstate's bits
/// ([`afterstate_fingerprint`]) and the observation class
/// ([`crate::Pomdp::observation_class`]).
pub(crate) type AfterstateKey = (u64, usize);

/// One expanded action of a node's afterstate table.
#[derive(Debug, Clone)]
struct Afterstate {
    key: AfterstateKey,
    /// The action whose afterstate this is; a candidate recomputes it.
    action: usize,
    /// The action's branch terms: `AfterstateTable::terms[terms]`.
    terms: std::ops::Range<usize>,
    /// Nodes its branches expanded.
    nodes: usize,
}

/// The expanded actions of the node whose action loop is running at
/// one depth. No afterstate is stored: a fingerprint match recomputes
/// the representative's, so the table stays `O(|A| + branches)`.
#[derive(Debug, Clone, Default)]
struct AfterstateTable {
    entries: Vec<Afterstate>,
    terms: Vec<f64>,
}

/// A 64-bit fingerprint of an afterstate's bits: FNV-1a steps in four
/// independent lanes (entry `i` in lane `i % 4`), folded together at
/// the end. Equal vectors give equal fingerprints; a collision only
/// costs a bitwise comparison.
pub(crate) fn afterstate_fingerprint(pred: &[f64]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let chunks = pred.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (h, w) in lanes.iter_mut().zip(chunk) {
            *h = fnv(*h, w.to_bits());
        }
    }
    for (h, w) in lanes.iter_mut().zip(tail) {
        *h = fnv(*h, w.to_bits());
    }
    lanes
        .iter()
        .fold(fnv(FNV_OFFSET, pred.len() as u64), |h, &l| fnv(h, l))
}

/// How a belief is written into the transposition cache: a word
/// stream that is equal for two beliefs exactly when their bits are.
/// One model uses one key format (its branch layout is fixed at build
/// time), and the cache is emptied before every decision, so formats
/// never mix.
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

/// The sparse key: `(index, bits)` of the non-zero entries among a
/// branch's `support` (its observation row's columns, ascending).
/// Beliefs here never hold `-0.0` (they are non-negative), so skipping
/// zeros loses nothing, and the key depends only on the belief, not on
/// which support it was scanned over: two branches of different rows
/// that reach the same posterior produce one key.
pub(crate) struct SparseKey<'a> {
    pub(crate) weights: &'a [f64],
    pub(crate) support: &'a [usize],
}

impl SparseKey<'_> {
    /// The non-zero entries as `(index, bits)` word pairs.
    fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.support.iter().filter_map(move |&i| {
            let w = self.weights[i];
            (w != 0.0).then_some((i as u64, w.to_bits()))
        })
    }
}

impl BeliefKey for SparseKey<'_> {
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

/// A key whose word hash is computed once and shared by a node's
/// lookup and its store after a miss.
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
}

/// The `depth` of an empty slot. No tree is that deep.
const VACANT: u32 = u32::MAX;

const EMPTY_SLOT: Slot = Slot {
    hash: 0,
    depth: VACANT,
    len: 0,
    start: 0,
    value: 0.0,
    nodes: 0,
};

impl Slot {
    fn occupied(&self) -> bool {
        self.depth != VACANT
    }
}

impl BeliefCache {
    fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.depth = VACANT;
        }
        self.keys.clear();
        self.len = 0;
    }

    fn get(&self, depth: usize, key: impl BeliefKey) -> Option<(f64, usize)> {
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
                return Some((slot.value, slot.nodes as usize));
            }
            i = (i + 1) & mask;
        }
    }

    fn put(&mut self, depth: usize, key: impl BeliefKey, value: f64, nodes: usize) {
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
        cache.put(2, &a[..], -1.5, 7);
        assert_eq!(cache.get(2, &a[..]), Some((-1.5, 7)));
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
            cache.put(1, &[i as f64, 1.0 - i as f64][..], -(i as f64), i);
        }
        for i in 0..500usize {
            assert_eq!(
                cache.get(1, &[i as f64, 1.0 - i as f64][..]),
                Some((-(i as f64), i)),
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
            support: &[1, 2, 3],
        };
        // The same belief keyed over a wider row's support.
        let wide = SparseKey {
            weights: &belief,
            support: &[0, 1, 2, 3, 4],
        };
        assert_eq!(branch.hash(), wide.hash(), "zeros do not enter the hash");
        cache.put(1, branch, -3.0, 4);
        assert_eq!(cache.get(1, wide), Some((-3.0, 4)));
        assert_eq!(cache.keys, vec![1, 0.25f64.to_bits(), 3, 0.75f64.to_bits()]);
        // Same values at other indices, and one entry more or less, miss.
        let moved = [0.25, 0.0, 0.0, 0.75, 0.0];
        let moved = SparseKey {
            weights: &moved,
            support: &[0, 1, 2, 3, 4],
        };
        assert_eq!(cache.get(1, moved), None);
        let longer = [0.0, 0.25, 0.0, 0.75, 0.5];
        let longer = SparseKey {
            weights: &longer,
            support: &[0, 1, 2, 3, 4],
        };
        assert_eq!(cache.get(1, longer), None);
        let shorter = SparseKey {
            weights: &belief,
            support: &[1],
        };
        assert_eq!(cache.get(1, shorter), None);
    }

    #[test]
    fn begin_empties_the_cache_and_reset_zeroes_counters_in_place() {
        let weights = [0.125, 0.875];
        let mut ws = PlanWorkspace::new();
        ws.begin();
        assert_eq!(ws.cache_get(1, &weights[..]), None);
        ws.cache_put(1, &weights[..], -2.0, 5);
        assert_eq!(ws.cache_get(1, &weights[..]), Some((-2.0, 5)));
        assert_eq!(ws.stats().cache_hits_by_depth, vec![0, 1]);
        assert_eq!(ws.stats().cache_misses_by_depth, vec![0, 1]);
        // The next decision starts from an empty cache.
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
