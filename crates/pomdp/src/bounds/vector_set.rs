//! Piecewise-linear bounds represented as sets of hyperplanes.

use crate::bounds::ValueBound;
use crate::{Belief, Error};
use bpr_linalg::dense;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide generation source: every hyperplane-set mutation draws
/// a fresh value, so no two distinct bound states — even across clones
/// mutating independently — ever share a generation. The counter's
/// allocation order is scheduling-dependent; no library code reads a
/// generation, so decisions never depend on it.
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A piecewise-linear convex bound `V_B(π) = max_{b ∈ B} b · π`
/// (paper Eq. 6).
///
/// Each vector `b` is a hyperplane over the belief simplex; the bound
/// value at a belief is the best hyperplane there. The RA-Bound starts
/// as a single hyperplane and the incremental backup of
/// [`crate::backup`] grows the set.
///
/// # Examples
///
/// ```
/// use bpr_pomdp::{Belief, bounds::{ValueBound, VectorSetBound}};
///
/// # fn main() -> Result<(), bpr_pomdp::Error> {
/// let mut set = VectorSetBound::new(2);
/// set.add_vector(vec![-2.0, 0.0])?;
/// set.add_vector(vec![0.0, -2.0])?;
/// let mid = Belief::uniform(2);
/// assert_eq!(set.value(&mid), -1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VectorSetBound {
    n_states: usize,
    vectors: Vec<Vec<f64>>,
    /// How many times each vector was the argmax in `best_vector`.
    /// Used by finite-storage eviction (paper §4.3).
    usage: Vec<u64>,
    /// Changes exactly when the hyperplane set changes (adds or
    /// evictions; usage-counter updates leave values untouched and keep
    /// the generation). See [`VectorSetBound::generation`].
    generation: u64,
}

/// Equality compares the bound's mathematical content (dimension,
/// hyperplanes, usage); the generation is an identity token, not
/// content, so content-equal bounds compare equal even
/// when built through different mutation histories.
impl PartialEq for VectorSetBound {
    fn eq(&self, other: &VectorSetBound) -> bool {
        self.n_states == other.n_states
            && self.vectors == other.vectors
            && self.usage == other.usage
    }
}

impl VectorSetBound {
    /// An empty set over `n_states`-dimensional beliefs.
    ///
    /// An empty set evaluates to `-∞`; add at least one vector before
    /// using it as a leaf bound.
    ///
    /// # Panics
    ///
    /// Panics if `n_states == 0`.
    pub fn new(n_states: usize) -> VectorSetBound {
        assert!(n_states > 0, "bound needs at least one state");
        VectorSetBound {
            n_states,
            vectors: Vec::new(),
            usage: Vec::new(),
            generation: next_generation(),
        }
    }

    /// A process-unique token that changes exactly when the hyperplane
    /// set changes: two bounds (or two snapshots of one bound) with
    /// equal generations hold bit-identical hyperplanes. No planner
    /// reads it, since every decision opens with an empty cache. A
    /// leftover that perfbench's traced replay still builds a
    /// [`crate::CacheEpoch`] from; ROADMAP item 4 deletes it with that
    /// replay.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A set seeded with one hyperplane.
    ///
    /// # Errors
    ///
    /// Same as [`VectorSetBound::add_vector`].
    pub fn from_vector(vector: Vec<f64>) -> Result<VectorSetBound, Error> {
        let mut set = VectorSetBound::new(vector.len().max(1));
        set.add_vector(vector)?;
        Ok(set)
    }

    /// Dimensionality of the underlying state space.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of hyperplanes currently in the set.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True if the set holds no hyperplanes.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Iterates over the hyperplanes.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.vectors.iter().map(Vec::as_slice)
    }

    /// The hyperplane at `index`, if any (indices are parallel to
    /// [`VectorSetBound::iter`] and [`VectorSetBound::usage_counts`];
    /// policy-graph analyzers use this to name the supporting vector a
    /// decision rested on).
    pub fn vector(&self, index: usize) -> Option<&[f64]> {
        self.vectors.get(index).map(Vec::as_slice)
    }

    /// Adds a hyperplane unless it is pointwise dominated by an existing
    /// one; removes existing hyperplanes the new one pointwise
    /// dominates. Returns whether the vector was actually added.
    ///
    /// Pointwise domination (`b ≤ b'` everywhere) is a cheap sufficient
    /// condition for uselessness; vectors that are dominated only in
    /// combination are kept, matching the paper's remark that extra
    /// hyperplanes "can be discarded" but need not be.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBelief`] if the vector has the wrong
    /// length or non-finite entries.
    pub fn add_vector(&mut self, vector: Vec<f64>) -> Result<bool, Error> {
        if vector.len() != self.n_states {
            return Err(Error::InvalidBelief {
                reason: "bound vector length must equal the number of states",
            });
        }
        if !dense::all_finite(&vector) {
            return Err(Error::InvalidBelief {
                reason: "bound vector entries must be finite",
            });
        }
        const EPS: f64 = 1e-12;
        // Dominated by an existing vector?
        if self
            .vectors
            .iter()
            .any(|b| vector.iter().zip(b).all(|(v, e)| *v <= *e + EPS))
        {
            return Ok(false);
        }
        // Drop existing vectors the new one dominates.
        let keep: Vec<bool> = self
            .vectors
            .iter()
            .map(|b| !b.iter().zip(&vector).all(|(e, v)| *e <= *v + EPS))
            .collect();
        let mut idx = 0;
        self.vectors.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        let mut idx = 0;
        self.usage.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        self.vectors.push(vector);
        self.usage.push(0);
        self.generation = next_generation();
        Ok(true)
    }

    /// The best hyperplane at a belief: `(index, value)`.
    ///
    /// Records a usage hit for the winner (interior statistics used by
    /// [`VectorSetBound::evict_to`]). Returns `None` on an empty set.
    ///
    /// # Panics
    ///
    /// Panics if the belief dimension differs from the set's.
    pub fn best_vector(&mut self, belief: &Belief) -> Option<(usize, f64)> {
        let best = self.best_vector_quiet(belief.probs())?;
        self.usage[best.0] += 1;
        Some(best)
    }

    /// The best hyperplane at a (possibly unnormalised) weight vector,
    /// without recording usage.
    ///
    /// Ties resolve to the *highest* index (`Iterator::max_by` keeps the
    /// last maximum), unlike [`bpr_linalg::dense::argmax`], which keeps
    /// the lowest. An all-zero weight vector therefore selects the last
    /// hyperplane. [`crate::backup::incremental_backup`] reproduces this
    /// rule in its own selection loop, so it is pinned by a unit test.
    ///
    /// Four planes are scored per pass over `weights`, so four
    /// independent sums are in flight instead of one serial chain; the
    /// remainder planes take one [`dense::dot`] each. Each value is
    /// bit-identical to `dense::dot(weights, b)`, and the planes are
    /// offered to the running maximum in index order, so the result
    /// equals the per-plane `max_by` reference in index and value bits.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the set's dimension.
    pub fn best_vector_quiet(&self, weights: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(weights.len(), self.n_states, "weight length mismatch");
        let mut best: Option<(usize, f64)> = None;
        // `Iterator::max_by`'s rule: the candidate replaces the running
        // maximum unless the maximum compares strictly greater.
        let mut offer = |i: usize, v: f64| {
            if best.is_none_or(|(_, m)| {
                m.partial_cmp(&v).expect("finite bound values") != std::cmp::Ordering::Greater
            }) {
                best = Some((i, v));
            }
        };
        let mut quads = self.vectors.chunks_exact(4);
        for (q, quad) in quads.by_ref().enumerate() {
            for (k, v) in dot4(weights, quad).into_iter().enumerate() {
                offer(4 * q + k, v);
            }
        }
        let rest = quads.remainder();
        let base = self.vectors.len() - rest.len();
        for (k, b) in rest.iter().enumerate() {
            offer(base + k, dense::dot(weights, b));
        }
        best
    }

    /// Records a usage hit for the vector at `index` (interior
    /// statistics used by [`VectorSetBound::evict_to`]). Callers that
    /// select vectors through [`VectorSetBound::best_vector_quiet`]
    /// use this to mark the choices that actually supported a decision.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn record_use(&mut self, index: usize) {
        self.usage[index] += 1;
    }

    /// The per-hyperplane usage counters, parallel to [`VectorSetBound::iter`].
    ///
    /// Eviction under a vector cap is driven by these counters, so
    /// durable checkpoints persist them alongside the hyperplanes —
    /// dropping them would make a resumed run evict differently from an
    /// uninterrupted one.
    pub fn usage_counts(&self) -> &[u64] {
        &self.usage
    }

    /// Overwrites the usage counters (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBelief`] when `counts.len()` differs from
    /// the number of hyperplanes.
    pub fn set_usage_counts(&mut self, counts: &[u64]) -> Result<(), Error> {
        if counts.len() != self.vectors.len() {
            return Err(Error::InvalidBelief {
                reason: "usage counter length must equal the number of bound vectors",
            });
        }
        self.usage.copy_from_slice(counts);
        Ok(())
    }

    /// Shrinks the set to at most `max_len` hyperplanes by discarding
    /// the least-used ones (the finite-storage strategy suggested in
    /// paper §4.3). The most recently added vector is always kept.
    ///
    /// Returns the number of vectors evicted.
    pub fn evict_to(&mut self, max_len: usize) -> usize {
        if self.vectors.len() <= max_len || max_len == 0 {
            return 0;
        }
        let last = self.vectors.len() - 1;
        let mut order: Vec<usize> = (0..self.vectors.len()).collect();
        // Most used first; the newest vector is pinned to the front.
        order.sort_by_key(|&i| (i != last, std::cmp::Reverse(self.usage[i])));
        order.truncate(max_len);
        // Survivors keep their original relative order, so marking them
        // and retaining in place drops the losers without cloning (or
        // even moving the heap storage of) any surviving hyperplane.
        let mut keep = vec![false; self.vectors.len()];
        for &i in &order {
            keep[i] = true;
        }
        let evicted = self.vectors.len() - order.len();
        let mut idx = 0;
        self.vectors.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        let mut idx = 0;
        self.usage.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        self.generation = next_generation();
        evicted
    }
}

/// `dense::dot(weights, b)` for four planes in one pass: accumulator
/// `k` sums `weights[i] * quad[k][i]` in ascending `i` from `-0.0`, the
/// start of `f64`'s `Sum`, so each result equals the serial dot
/// product bit for bit while the four chains run side by side.
fn dot4(weights: &[f64], quad: &[Vec<f64>]) -> [f64; 4] {
    let n = weights.len();
    let (b0, b1, b2, b3) = (&quad[0][..n], &quad[1][..n], &quad[2][..n], &quad[3][..n]);
    let mut acc = [-0.0f64; 4];
    for ((((&w, &x0), &x1), &x2), &x3) in weights.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        acc[0] += w * x0;
        acc[1] += w * x1;
        acc[2] += w * x2;
        acc[3] += w * x3;
    }
    acc
}

impl VectorSetBound {
    /// Serialises the hyperplanes as tab-separated text (one vector per
    /// line, full `f64` precision). Usage counts are not persisted.
    ///
    /// Lets a deployment bootstrap once off-line and ship the refined
    /// bound with the controller.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for b in &self.vectors {
            let line: Vec<String> = b.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&line.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Parses the output of [`VectorSetBound::to_tsv`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBelief`] for empty input, ragged rows,
    /// or unparseable numbers.
    pub fn from_tsv(n_states: usize, text: &str) -> Result<VectorSetBound, Error> {
        let mut set = VectorSetBound::new(n_states);
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let vector: Result<Vec<f64>, _> =
                line.split('\t').map(|t| t.trim().parse::<f64>()).collect();
            let vector = vector.map_err(|_| Error::InvalidBelief {
                reason: "unparseable bound vector entry",
            })?;
            set.add_vector(vector)?;
        }
        if set.is_empty() {
            return Err(Error::InvalidBelief {
                reason: "serialised bound contained no vectors",
            });
        }
        Ok(set)
    }
}

impl ValueBound for VectorSetBound {
    /// `max_{b ∈ B} b · π`, or `-∞` for an empty set.
    fn value(&self, belief: &Belief) -> f64 {
        self.best_vector_quiet(belief.probs())
            .map_or(f64::NEG_INFINITY, |(_, v)| v)
    }

    /// Same maximisation straight off the weight slice — the planning
    /// kernel's allocation-free leaf evaluation.
    fn value_weights(&self, weights: &[f64]) -> f64 {
        self.best_vector_quiet(weights)
            .map_or(f64::NEG_INFINITY, |(_, v)| v)
    }

    /// The same maximisation with each dot product summed over
    /// `support` only. Off the support every term is `0 · b[i] = ±0`,
    /// and adding a signed zero to a non-zero partial sum is exact, so
    /// a non-zero support sum equals the dense [`dense::dot`] bit for
    /// bit. An all-zero sum is not: `f64`'s `Sum` folds from `-0.0`,
    /// and the sign of a zero total depends on the signs of the
    /// off-support `b[i]` (a leaf concentrated where `b` is zero, such
    /// as the null state against the termination plane `r(·, a_T)`,
    /// gets `+0.0` or `-0.0` from entries it never touches). Those
    /// hyperplanes are recomputed densely.
    fn value_support(&self, weights: &[f64], support: &[usize]) -> f64 {
        assert_eq!(weights.len(), self.n_states, "weight length mismatch");
        self.vectors
            .iter()
            .map(|b| {
                let sum: f64 = support.iter().map(|&i| weights[i] * b[i]).sum();
                if sum == 0.0 {
                    dense::dot(weights, b)
                } else {
                    sum
                }
            })
            .max_by(|a, b| a.partial_cmp(b).expect("finite bound values"))
            .unwrap_or(f64::NEG_INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_negative_infinity() {
        let set = VectorSetBound::new(2);
        assert!(set.is_empty());
        assert_eq!(set.value(&Belief::uniform(2)), f64::NEG_INFINITY);
    }

    #[test]
    fn value_is_max_over_hyperplanes() {
        let mut set = VectorSetBound::new(2);
        set.add_vector(vec![-1.0, -3.0]).unwrap();
        set.add_vector(vec![-3.0, -1.0]).unwrap();
        assert_eq!(set.len(), 2);
        let b0 = Belief::point(2, 0.into());
        let b1 = Belief::point(2, 1.into());
        assert_eq!(set.value(&b0), -1.0);
        assert_eq!(set.value(&b1), -1.0);
        assert_eq!(set.value(&Belief::uniform(2)), -2.0);
    }

    #[test]
    fn best_vector_quiet_ties_resolve_to_the_highest_index() {
        let mut set = VectorSetBound::new(2);
        set.add_vector(vec![-1.0, -3.0]).unwrap();
        set.add_vector(vec![-3.0, -1.0]).unwrap();
        set.add_vector(vec![-2.5, -2.5]).unwrap();
        // Vectors 0 and 1 tie at the uniform weights; vector 2 is lower.
        assert_eq!(set.best_vector_quiet(&[0.5, 0.5]), Some((1, -2.0)));
        // All-zero weights tie every vector (at ±0): the last one wins.
        assert_eq!(set.best_vector_quiet(&[0.0, 0.0]).map(|(i, _)| i), Some(2));
        // A strict maximum still wins wherever it sits.
        assert_eq!(set.best_vector_quiet(&[1.0, 0.0]), Some((0, -1.0)));
    }

    /// A set holding exactly `vectors`, duplicates included (the
    /// dominance filter of `add_vector` would drop exact ties).
    fn raw_set(n_states: usize, vectors: Vec<Vec<f64>>) -> VectorSetBound {
        VectorSetBound {
            n_states,
            usage: vec![0; vectors.len()],
            vectors,
            generation: next_generation(),
        }
    }

    /// The per-plane selection the four-plane pass replaced.
    fn per_plane_reference(set: &VectorSetBound, weights: &[f64]) -> Option<(usize, f64)> {
        set.vectors
            .iter()
            .enumerate()
            .map(|(i, b)| (i, dense::dot(weights, b)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite bound values"))
    }

    #[test]
    fn best_vector_quiet_matches_the_per_plane_reference_bit_for_bit() {
        let n = 5;
        // Planes: a few distinct slopes, an exact duplicate of plane 0
        // (a tie wherever plane 0 wins), and planes whose entries are
        // ±0.0 where the weights below put mass, so their products are
        // all `-0.0` or mixed-sign zeros.
        let pool: Vec<Vec<f64>> = vec![
            vec![-1.0, -3.0, -2.0, -0.5, -4.0],
            vec![-3.0, -1.0, -0.25, -4.0, -2.0],
            vec![-1.0, -3.0, -2.0, -0.5, -4.0],
            vec![-0.0, -2.0, -7.0, -1.0, -3.0],
            vec![0.0, -0.0, -1.0, -2.0, -5.0],
            vec![-2.5, -2.5, -2.5, -2.5, -2.5],
            vec![-0.0, -0.0, -0.0, -0.0, -0.0],
            vec![-1.0, -3.0, -2.0, -0.5, -4.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
        ];
        let weights: Vec<[f64; 5]> = vec![
            [0.2; 5],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [0.1, 0.2, 0.3, 0.25, 0.15],
            [0.0, 0.0, 0.5, 0.0, 0.5],
        ];
        for size in 0..=9 {
            // Rotations of the pool, so every plane (and every tie)
            // lands in each slot of a four-plane pass and in the tail.
            for shift in 0..pool.len() {
                let planes = (0..size)
                    .map(|i| pool[(i + shift) % pool.len()].clone())
                    .collect();
                let set = raw_set(n, planes);
                for w in &weights {
                    let got = set.best_vector_quiet(w);
                    let want = per_plane_reference(&set, w);
                    assert_eq!(
                        got.map(|(i, v)| (i, v.to_bits())),
                        want.map(|(i, v)| (i, v.to_bits())),
                        "size {size}, shift {shift}, weights {w:?}"
                    );
                    assert_eq!(
                        set.value_weights(w).to_bits(),
                        want.map_or(f64::NEG_INFINITY, |(_, v)| v).to_bits()
                    );
                }
            }
        }
        // The reference's zero: a plane whose every product is `-0.0`
        // sums to `-0.0` (`f64`'s `Sum` starts there) and wins alone.
        let set = raw_set(
            2,
            vec![
                vec![-5.0, -5.0],
                vec![-6.0, -6.0],
                vec![-7.0, -7.0],
                vec![-0.0, -1.0],
            ],
        );
        let (i, v) = set.best_vector_quiet(&[1.0, 0.0]).unwrap();
        assert_eq!((i, v.to_bits()), (3, (-0.0f64).to_bits()));
    }

    #[test]
    fn dominated_vectors_are_rejected() {
        let mut set = VectorSetBound::new(2);
        assert!(set.add_vector(vec![-1.0, -1.0]).unwrap());
        assert!(!set.add_vector(vec![-2.0, -2.0]).unwrap());
        assert_eq!(set.len(), 1);
        // Equal vectors are "dominated" too.
        assert!(!set.add_vector(vec![-1.0, -1.0]).unwrap());
    }

    #[test]
    fn dominating_vector_evicts_old_ones() {
        let mut set = VectorSetBound::new(2);
        set.add_vector(vec![-3.0, -3.0]).unwrap();
        set.add_vector(vec![-4.0, -1.0]).unwrap();
        assert!(set.add_vector(vec![-2.0, -1.0]).unwrap());
        // [-2,-1] dominates both previous vectors.
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap(), &[-2.0, -1.0]);
    }

    #[test]
    fn wrong_length_vector_is_rejected() {
        let mut set = VectorSetBound::new(3);
        assert!(set.add_vector(vec![0.0, 0.0]).is_err());
        assert!(set.add_vector(vec![0.0, f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn best_vector_tracks_usage_and_eviction_respects_it() {
        let mut set = VectorSetBound::new(2);
        set.add_vector(vec![-1.0, -5.0]).unwrap();
        set.add_vector(vec![-5.0, -1.0]).unwrap();
        set.add_vector(vec![-2.5, -2.5]).unwrap();
        let b0 = Belief::point(2, 0.into());
        for _ in 0..5 {
            let (i, v) = set.best_vector(&b0).unwrap();
            assert_eq!(i, 0);
            assert_eq!(v, -1.0);
        }
        // Evicting to 2 keeps the most-used (index 0) and the newest.
        let evicted = set.evict_to(2);
        assert_eq!(evicted, 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.value(&b0), -1.0);
        let b1 = Belief::point(2, 1.into());
        assert_eq!(set.value(&b1), -2.5);
    }

    #[test]
    fn tsv_roundtrip_preserves_values() {
        let mut set = VectorSetBound::new(3);
        set.add_vector(vec![-1.5, -2.25, 0.0]).unwrap();
        set.add_vector(vec![-3.0, -0.125, -1e-300]).unwrap();
        let text = set.to_tsv();
        let parsed = VectorSetBound::from_tsv(3, &text).unwrap();
        assert_eq!(parsed.len(), set.len());
        for probs in [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]] {
            let b = Belief::from_probs(probs.to_vec()).unwrap();
            assert_eq!(parsed.value(&b), set.value(&b));
        }
    }

    #[test]
    fn tsv_rejects_garbage() {
        assert!(VectorSetBound::from_tsv(2, "").is_err());
        assert!(VectorSetBound::from_tsv(2, "1.0\tx\n").is_err());
        assert!(VectorSetBound::from_tsv(2, "1.0\n").is_err()); // ragged
    }

    #[test]
    fn usage_counters_roundtrip_through_accessors() {
        let mut set = VectorSetBound::new(2);
        set.add_vector(vec![-1.0, -5.0]).unwrap();
        set.add_vector(vec![-5.0, -1.0]).unwrap();
        set.best_vector(&Belief::point(2, 0.into())).unwrap();
        assert_eq!(set.usage_counts(), &[1, 0]);
        set.set_usage_counts(&[3, 9]).unwrap();
        assert_eq!(set.usage_counts(), &[3, 9]);
        assert!(set.set_usage_counts(&[1]).is_err());
    }

    #[test]
    fn evict_retains_surviving_vectors_in_place() {
        let mut set = VectorSetBound::new(2);
        set.add_vector(vec![-1.0, -5.0]).unwrap();
        set.add_vector(vec![-5.0, -1.0]).unwrap();
        set.add_vector(vec![-4.0, -2.0]).unwrap();
        set.add_vector(vec![-2.5, -2.5]).unwrap();
        for _ in 0..3 {
            set.best_vector(&Belief::point(2, 0.into())).unwrap();
        }
        set.best_vector(&Belief::point(2, 1.into())).unwrap();
        // Survivors: index 0 (most used), index 1 (next), index 3
        // (newest, pinned). Record the heap addresses of their storage.
        let ptr0 = set.iter().next().unwrap().as_ptr();
        let ptr1 = set.iter().nth(1).unwrap().as_ptr();
        let ptr3 = set.iter().nth(3).unwrap().as_ptr();
        let evicted = set.evict_to(3);
        assert_eq!(evicted, 1);
        assert_eq!(set.len(), 3);
        let survivors: Vec<&[f64]> = set.iter().collect();
        assert_eq!(survivors[0], &[-1.0, -5.0]);
        assert_eq!(survivors[1], &[-5.0, -1.0]);
        assert_eq!(survivors[2], &[-2.5, -2.5]);
        // Values preserved and the vector contents were not reallocated:
        // each survivor still lives at its original heap address.
        assert_eq!(survivors[0].as_ptr(), ptr0);
        assert_eq!(survivors[1].as_ptr(), ptr1);
        assert_eq!(survivors[2].as_ptr(), ptr3);
        assert_eq!(set.usage_counts(), &[3, 1, 0]);
    }

    #[test]
    fn value_weights_matches_value() {
        let mut set = VectorSetBound::new(2);
        set.add_vector(vec![-1.0, -3.0]).unwrap();
        set.add_vector(vec![-3.0, -1.0]).unwrap();
        let b = Belief::from_probs(vec![0.25, 0.75]).unwrap();
        assert_eq!(set.value_weights(b.probs()), set.value(&b));
        assert_eq!(
            VectorSetBound::new(2).value_weights(&[0.5, 0.5]),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn value_support_matches_value_weights_bit_for_bit() {
        let mut set = VectorSetBound::new(4);
        set.add_vector(vec![-1.0, -3.0, -2.0, -0.5]).unwrap();
        set.add_vector(vec![-3.0, -1.0, -0.25, -4.0]).unwrap();
        let weights = [0.0, 0.25, 0.0, 0.75];
        let support = [1, 3];
        assert_eq!(
            set.value_support(&weights, &support).to_bits(),
            set.value_weights(&weights).to_bits()
        );
        // A leaf whose only support term is `1 · (-0.0)`: the support
        // sum stays at `-0.0`, while the dense sum meets the off-support
        // `0 · 1.0 = +0.0` and turns `+0.0`. The zero-sum fallback must
        // return the dense `+0.0`.
        let plane = [1.0, -0.0, -2.0];
        let weights = [0.0, 1.0, 0.0];
        let on_support: f64 = [1usize].iter().map(|&i| weights[i] * plane[i]).sum();
        assert_eq!(on_support.to_bits(), (-0.0f64).to_bits());
        let set = VectorSetBound::from_vector(plane.to_vec()).unwrap();
        let dense = set.value_weights(&weights);
        assert_eq!(dense.to_bits(), 0.0f64.to_bits(), "dense dot is +0.0");
        assert_eq!(set.value_support(&weights, &[1]).to_bits(), dense.to_bits());
        // The mirror case: every term is -0.0, and both sums agree.
        let set = VectorSetBound::from_vector(vec![-1.0, -0.0, -2.0]).unwrap();
        let dense = set.value_weights(&weights);
        assert_eq!(dense.to_bits(), (-0.0f64).to_bits(), "dense dot is -0.0");
        assert_eq!(set.value_support(&weights, &[1]).to_bits(), dense.to_bits());
        assert_eq!(
            VectorSetBound::new(2).value_support(&[0.5, 0.5], &[0, 1]),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn generation_changes_only_when_hyperplanes_change() {
        let mut set = VectorSetBound::new(2);
        let g0 = set.generation();
        set.add_vector(vec![-1.0, -5.0]).unwrap();
        let g1 = set.generation();
        assert_ne!(g0, g1);
        // A dominated vector is not added: no epoch change.
        assert!(!set.add_vector(vec![-2.0, -6.0]).unwrap());
        assert_eq!(set.generation(), g1);
        // Usage bookkeeping does not change values: no epoch change.
        set.best_vector(&Belief::point(2, 0.into())).unwrap();
        set.set_usage_counts(&[7]).unwrap();
        assert_eq!(set.generation(), g1);
        // A no-op eviction keeps the epoch; a real one bumps it.
        assert_eq!(set.evict_to(5), 0);
        assert_eq!(set.generation(), g1);
        set.add_vector(vec![-5.0, -1.0]).unwrap();
        set.add_vector(vec![-2.5, -2.5]).unwrap();
        let g2 = set.generation();
        assert_eq!(set.evict_to(2), 1);
        assert_ne!(set.generation(), g2);
        // Clones share content and generation until one mutates.
        let mut clone = set.clone();
        assert_eq!(clone.generation(), set.generation());
        assert_eq!(clone, set);
        clone.add_vector(vec![0.0, 0.0]).unwrap();
        assert_ne!(clone.generation(), set.generation());
        // Equality ignores the generation token.
        let a = VectorSetBound::from_vector(vec![-1.0, -2.0]).unwrap();
        let b = VectorSetBound::from_vector(vec![-1.0, -2.0]).unwrap();
        assert_ne!(a.generation(), b.generation());
        assert_eq!(a, b);
    }

    #[test]
    fn evict_is_noop_when_small() {
        let mut set = VectorSetBound::from_vector(vec![0.0, 0.0]).unwrap();
        assert_eq!(set.evict_to(5), 0);
        assert_eq!(set.evict_to(0), 0);
        assert_eq!(set.len(), 1);
    }
}
