//! POMDP model representation and validated construction.

use crate::Error;
use bpr_linalg::CsrMatrix;
use bpr_mdp::{ActionId, Mdp, StateId};
use rand::Rng;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of an observation (an index into the observation set).
///
/// # Examples
///
/// ```
/// use bpr_pomdp::ObservationId;
///
/// let o = ObservationId::new(5);
/// assert_eq!(o.index(), 5);
/// assert_eq!(o.to_string(), "o5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObservationId(usize);

impl ObservationId {
    /// Wraps a raw observation index.
    pub const fn new(index: usize) -> ObservationId {
        ObservationId(index)
    }

    /// The raw index into the observation set.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ObservationId {
    fn from(index: usize) -> ObservationId {
        ObservationId(index)
    }
}

impl fmt::Display for ObservationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A finite POMDP `(S, A, O, p, q, r)`.
///
/// Wraps an [`Mdp`] core and adds the observation model `q(o | s', a)`:
/// the probability of observing `o` when the system transitions *into*
/// state `s'` as a result of action `a` (paper §2). Construct through
/// [`PomdpBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Pomdp {
    mdp: Mdp,
    n_observations: usize,
    /// `obs_of[a]` indexes action `a`'s observation matrix in
    /// `observations` and `observations_t`. Monitors report on the
    /// state entered, so most actions share one matrix (EMN: 10
    /// actions, 2 distinct; cellfleet-mid: 32 actions, 2 distinct).
    obs_of: Vec<usize>,
    /// The distinct observation matrices, each stored once, in order
    /// of first use by ascending action. "Distinct" is bit-equality
    /// ([`CsrMatrix::identical`]). Each is `n_states x n_observations`;
    /// row `s'` holds `q(· | s', a)`, with dense mirrors on its
    /// high-fill rows for the tree kernel's branch masses.
    observations: Vec<CsrMatrix>,
    /// `observations_t[i] = observations[i]ᵀ` (`n_observations x
    /// n_states`), precomputed at build time, with dense mirrors; row
    /// `o` is the sparse diagonal of the fused posterior operator
    /// `τ_{a,o}` (see [`Pomdp::observation_transpose`]).
    observations_t: Vec<CsrMatrix>,
    /// `observation_row_mass[i]` summarises the rows of
    /// `observations[i]` for the backup's per-action upper bound; filled
    /// on the first backup, so models that are never backed up (the
    /// notified ones, most set-up copies) do not hold it.
    observation_row_mass: RowMassCache,
    observation_labels: Vec<String>,
    /// Content hash over dynamics, rewards, and observations, computed
    /// once at build time (see [`Pomdp::fingerprint`]).
    fingerprint: u64,
    /// Whether the tree kernel writes observation branches on their
    /// rows' supports only (see [`Pomdp::sparse_branches`]); a function
    /// of the observation matrices, chosen once at build time.
    sparse_branches: bool,
}

impl Pomdp {
    /// The underlying MDP `(S, A, p, r)`.
    pub fn mdp(&self) -> &Mdp {
        &self.mdp
    }

    /// A content fingerprint (FNV-1a over dimensions, transition and
    /// observation probabilities, rewards, and durations), computed
    /// once at build time. Two models with the same fingerprint have
    /// bit-identical planning-relevant numerics, so the planner's
    /// cross-decision cache uses it as half of its epoch key; labels
    /// are not part of it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of states `|S|`.
    pub fn n_states(&self) -> usize {
        self.mdp.n_states()
    }

    /// Number of actions `|A|`.
    pub fn n_actions(&self) -> usize {
        self.mdp.n_actions()
    }

    /// Number of observations `|O|`.
    pub fn n_observations(&self) -> usize {
        self.n_observations
    }

    /// Iterates over all observation ids.
    pub fn observations(&self) -> impl Iterator<Item = ObservationId> {
        (0..self.n_observations).map(ObservationId::new)
    }

    /// The probability `q(o | entered, action)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn observation_prob(
        &self,
        entered: impl Into<StateId>,
        action: impl Into<ActionId>,
        o: impl Into<ObservationId>,
    ) -> f64 {
        self.observation_matrix(action)
            .get(entered.into().index(), o.into().index())
    }

    /// The sparse observation matrix of one action (rows are entered
    /// states, columns observations).
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of bounds.
    pub fn observation_matrix(&self, action: impl Into<ActionId>) -> &CsrMatrix {
        &self.observations[self.obs_of[action.into().index()]]
    }

    /// The transposed observation matrix of one action
    /// (`n_observations x n_states`; row `o` holds `q(o | ·, action)`),
    /// precomputed at build time.
    ///
    /// Row `o` is the sparse diagonal of the fused posterior operator
    /// `τ_{a,o} = diag(q(o|·,a)) ∘ P_aᵀ` (paper Eq. 3–4): the planning
    /// kernel applies `P_aᵀ` once per `(node, action)` via
    /// [`bpr_linalg::CsrMatrix::matvec_transpose_into`] and then derives
    /// every observation branch with one
    /// [`bpr_linalg::CsrMatrix::row_scaled_into`] over these rows —
    /// bit-identical to [`crate::Belief::successors`] but without the
    /// per-branch scatter/rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of bounds.
    pub fn observation_transpose(&self, action: impl Into<ActionId>) -> &CsrMatrix {
        &self.observations_t[self.obs_of[action.into().index()]]
    }

    /// Whether the planning kernel uses its sparse branch layout on
    /// this model: each observation branch is written, normalised,
    /// keyed and scored on its observation row's stored states only,
    /// instead of on all `|S|` entries. Chosen once at build time from
    /// the observation matrices (see `branches_pay_sparse`), so
    /// every decision on one model — and every cache epoch, which
    /// names the model's fingerprint — uses one layout.
    pub(crate) fn sparse_branches(&self) -> bool {
        self.sparse_branches
    }

    /// The index of `action`'s observation matrix in the model's table
    /// of distinct ones; actions with equal indices share the matrix.
    pub(crate) fn observation_class(&self, action: ActionId) -> usize {
        self.obs_of[action.index()]
    }

    /// The row masses of each distinct observation matrix, indexed by
    /// [`Pomdp::observation_class`].
    pub(crate) fn observation_row_masses(&self) -> &[ObservationRowMass] {
        self.observation_row_mass.0.get_or_init(|| {
            self.observations
                .iter()
                .map(ObservationRowMass::of)
                .collect()
        })
    }

    /// How many distinct observation matrices the model stores.
    #[cfg(test)]
    pub(crate) fn n_distinct_observation_matrices(&self) -> usize {
        self.observations.len()
    }

    /// Iterates over the observations `(o, q(o|s', a))` possible when
    /// entering `entered` under `action`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn observations_on_entering(
        &self,
        entered: impl Into<StateId>,
        action: impl Into<ActionId>,
    ) -> impl Iterator<Item = (ObservationId, f64)> + '_ {
        self.observation_matrix(action)
            .row(entered.into().index())
            .map(|(o, q)| (ObservationId::new(o), q))
    }

    /// The label of an observation (defaults to `"o<i>"`).
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of bounds.
    pub fn observation_label(&self, o: impl Into<ObservationId>) -> &str {
        &self.observation_labels[o.into().index()]
    }

    /// Looks up an observation id by label.
    pub fn observation_by_label(&self, label: &str) -> Option<ObservationId> {
        self.observation_labels
            .iter()
            .position(|l| l == label)
            .map(ObservationId::new)
    }

    /// Samples a successor state `s' ~ p(·|s, a)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn sample_transition<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        from: StateId,
        action: ActionId,
    ) -> StateId {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut last = from;
        for (s2, p) in self.mdp.successors(from, action) {
            acc += p;
            last = s2;
            if u < acc {
                return s2;
            }
        }
        // Floating-point slack: fall back to the last successor.
        last
    }

    /// Samples an observation `o ~ q(·|entered, a)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds, or if the observation row
    /// is empty (the builder guarantees it never is).
    pub fn sample_observation<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        entered: StateId,
        action: ActionId,
    ) -> ObservationId {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut last = None;
        for (o, q) in self.observations_on_entering(entered, action) {
            acc += q;
            last = Some(o);
            if u < acc {
                return o;
            }
        }
        last.expect("observation distribution must be non-empty")
    }
}

/// Row masses of one observation matrix: `positive[s'] = Σ_o max(q, 0)`
/// over the stored entries `q = q(o|s', a)` of row `s'`, and the largest
/// negative mass of any row, `negative = max_s' Σ_o max(−q, 0)`. The
/// builder accepts rows summing to within `1e-9` of 1 and entries down
/// to `−1e-9`, so neither is assumed to be exactly 1 or 0.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObservationRowMass {
    pub(crate) positive: Vec<f64>,
    pub(crate) negative: f64,
}

/// The lazily filled row-mass table. It is a function of the
/// observation matrices, so it takes no part in comparing models.
#[derive(Debug, Clone, Default)]
struct RowMassCache(OnceLock<Vec<ObservationRowMass>>);

impl PartialEq for RowMassCache {
    fn eq(&self, _: &RowMassCache) -> bool {
        true
    }
}

impl ObservationRowMass {
    fn of(m: &CsrMatrix) -> ObservationRowMass {
        let mut positive = vec![0.0; m.nrows()];
        let mut negative = 0.0f64;
        for (s, p) in positive.iter_mut().enumerate() {
            let mut n = 0.0;
            for (_, q) in m.row(s) {
                if q > 0.0 {
                    *p += q;
                } else {
                    n -= q;
                }
            }
            negative = negative.max(n);
        }
        ObservationRowMass { positive, negative }
    }
}

/// Builder for [`Pomdp`] models: an already-built [`Mdp`] plus the
/// observation model.
///
/// # Examples
///
/// ```
/// use bpr_mdp::MdpBuilder;
/// use bpr_pomdp::PomdpBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mb = MdpBuilder::new(2, 1);
/// mb.transition(0, 0, 1, 1.0);
/// mb.transition(1, 0, 1, 1.0);
/// let mut pb = PomdpBuilder::new(mb.build()?, 2);
/// pb.observation(0, 0, 0, 1.0); // entering s0 yields o0
/// pb.observation(1, 0, 0, 0.25); // entering s1: o0 w.p. 1/4 ...
/// pb.observation(1, 0, 1, 0.75); // ... o1 w.p. 3/4
/// let pomdp = pb.build()?;
/// assert_eq!(pomdp.n_observations(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PomdpBuilder {
    mdp: Mdp,
    n_observations: usize,
    triplets: Vec<Vec<(usize, usize, f64)>>,
    observation_labels: Vec<String>,
}

impl PomdpBuilder {
    /// Starts a builder around an MDP core with `n_observations`
    /// possible observations.
    ///
    /// # Panics
    ///
    /// Panics if `n_observations` is zero.
    pub fn new(mdp: Mdp, n_observations: usize) -> PomdpBuilder {
        assert!(n_observations > 0, "POMDP needs at least one observation");
        let n_actions = mdp.n_actions();
        PomdpBuilder {
            mdp,
            n_observations,
            triplets: vec![Vec::new(); n_actions],
            observation_labels: (0..n_observations).map(|i| format!("o{i}")).collect(),
        }
    }

    /// Adds probability mass to `q(o | entered, action)`.
    ///
    /// Mass for the same triple accumulates across calls.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn observation(
        &mut self,
        entered: impl Into<StateId>,
        action: impl Into<ActionId>,
        o: impl Into<ObservationId>,
        q: f64,
    ) -> &mut PomdpBuilder {
        let (s, a, o) = (
            entered.into().index(),
            action.into().index(),
            o.into().index(),
        );
        assert!(s < self.mdp.n_states(), "entered-state {s} out of bounds");
        assert!(a < self.mdp.n_actions(), "action {a} out of bounds");
        assert!(o < self.n_observations, "observation {o} out of bounds");
        self.triplets[a].push((s, o, q));
        self
    }

    /// Declares that entering `entered` under *any* action produces the
    /// same observation distribution entry. A convenience for models
    /// (like the EMN system) whose monitors depend only on the state.
    pub fn observation_all_actions(
        &mut self,
        entered: impl Into<StateId>,
        o: impl Into<ObservationId>,
        q: f64,
    ) -> &mut PomdpBuilder {
        let (s, o) = (entered.into(), o.into());
        for a in 0..self.mdp.n_actions() {
            self.observation(s, a, o, q);
        }
        self
    }

    /// Sets a human-readable label for an observation.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of bounds.
    pub fn observation_label(
        &mut self,
        o: impl Into<ObservationId>,
        label: impl Into<String>,
    ) -> &mut PomdpBuilder {
        let o = o.into().index();
        assert!(o < self.n_observations, "observation {o} out of bounds");
        self.observation_labels[o] = label.into();
        self
    }

    /// Validates the observation model and builds the [`Pomdp`].
    ///
    /// Every `(entered state, action)` pair reachable in principle must
    /// have a full observation distribution; missing or non-unit rows
    /// are rejected.
    ///
    /// # Errors
    ///
    /// * [`Error::ObservationNotStochastic`] if any `q(·|s, a)` row does
    ///   not sum to 1 within `1e-9`.
    /// * [`Error::IndexOutOfBounds`] via the underlying matrix build if
    ///   triplets are malformed (the panicking setters normally prevent
    ///   this).
    pub fn build(&self) -> Result<Pomdp, Error> {
        const TOL: f64 = 1e-9;
        let n = self.mdp.n_states();
        let mut obs_of = Vec::with_capacity(self.mdp.n_actions());
        let mut observations: Vec<CsrMatrix> = Vec::new();
        for a in 0..self.mdp.n_actions() {
            let m = CsrMatrix::from_triplets(n, self.n_observations, &self.triplets[a])
                .map_err(|e| Error::Mdp(bpr_mdp::Error::Linalg(e)))?;
            for s in 0..n {
                let mut sum = 0.0;
                for (_, q) in m.row(s) {
                    if !q.is_finite() || !(-TOL..=1.0 + TOL).contains(&q) {
                        return Err(Error::ObservationNotStochastic {
                            state: s,
                            action: a,
                            sum: q,
                        });
                    }
                    sum += q;
                }
                if (sum - 1.0).abs() > TOL {
                    return Err(Error::ObservationNotStochastic {
                        state: s,
                        action: a,
                        sum,
                    });
                }
            }
            match observations.iter().position(|d| d.identical(&m)) {
                Some(i) => obs_of.push(i),
                None => {
                    obs_of.push(observations.len());
                    observations.push(m);
                }
            }
        }
        let per_action: Vec<&CsrMatrix> = obs_of.iter().map(|&i| &observations[i]).collect();
        let fingerprint = fingerprint_pomdp(&self.mdp, self.n_observations, &per_action);
        let sparse_branches = branches_pay_sparse(n, self.n_observations, &per_action);
        let observations_t: Vec<CsrMatrix> = observations
            .iter()
            .map(|m| {
                // Row `o` of the transpose is the τ-operator diagonal
                // `q(o|·,a)`; "all quiet" rows are near-dense at fleet
                // scale, so mirror them for the vectorized kernels.
                let mut t = m.transpose();
                t.enable_dense_rows();
                t
            })
            .collect();
        // Row `s'` feeds the branch-mass SpMV `Q_aᵀ · pred`; on EMN
        // every row is mostly full.
        for m in &mut observations {
            m.enable_dense_rows();
        }
        Ok(Pomdp {
            mdp: self.mdp.clone(),
            n_observations: self.n_observations,
            obs_of,
            observations,
            observations_t,
            observation_row_mass: RowMassCache::default(),
            observation_labels: self.observation_labels.clone(),
            fingerprint,
            sparse_branches,
        })
    }
}

/// Minimum state count for the sparse branch layout: below it a dense
/// branch is a few cache lines whose vectorized fill, divide and dot
/// beat index gathers.
const SPARSE_BRANCH_MIN_STATES: usize = 32;

/// Maximum mean fill of the observation rows (`nnz(Q_aᵀ) / (|O|·|S|)`
/// over all actions) for the sparse branch layout. The paper's EMN
/// model and the 10²-state corpus sit at 0.5–0.9 (a dense layout
/// wins there); cellfleet-mid is at 0.03 and region-large at 0.006.
const SPARSE_BRANCH_MAX_FILL: f64 = 0.125;

/// The per-model layout choice behind [`Pomdp::sparse_branches`]: a
/// dense branch costs `O(|S|)` per observation, a sparse one
/// `O(nnz(row))`, so the sparse layout pays once the rows are mostly
/// empty.
/// `observations[a]` is action `a`'s matrix, shared ones repeated, so
/// the fill is the mean over actions (`nnz(Q_aᵀ) = nnz(Q_a)`).
fn branches_pay_sparse(
    n_states: usize,
    n_observations: usize,
    observations: &[&CsrMatrix],
) -> bool {
    let cells = (observations.len() * n_observations * n_states) as f64;
    let stored: usize = observations.iter().map(|m| m.nnz()).sum();
    n_states >= SPARSE_BRANCH_MIN_STATES && (stored as f64) <= SPARSE_BRANCH_MAX_FILL * cells
}

/// Folds one `u64` into an FNV-1a hash.
fn fnv_fold(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a content hash over everything that affects planning values:
/// dimensions, transition rows, rewards, durations, observation rows.
/// `observations[a]` is action `a`'s matrix, shared ones repeated, so
/// the hash does not depend on how the model stores them.
fn fingerprint_pomdp(mdp: &Mdp, n_observations: usize, observations: &[&CsrMatrix]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv_fold(h, mdp.n_states() as u64);
    h = fnv_fold(h, mdp.n_actions() as u64);
    h = fnv_fold(h, n_observations as u64);
    for (a, q) in observations.iter().enumerate().take(mdp.n_actions()) {
        let p = mdp.transition_matrix(a);
        for s in 0..mdp.n_states() {
            for (s2, v) in p.row(s) {
                h = fnv_fold(h, s as u64);
                h = fnv_fold(h, s2 as u64);
                h = fnv_fold(h, v.to_bits());
            }
        }
        for &r in mdp.reward_vector(a) {
            h = fnv_fold(h, r.to_bits());
        }
        h = fnv_fold(h, mdp.duration(a).to_bits());
        for s in 0..q.nrows() {
            for (o, v) in q.row(s) {
                h = fnv_fold(h, s as u64);
                h = fnv_fold(h, o as u64);
                h = fnv_fold(h, v.to_bits());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpr_mdp::MdpBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn tiny_pomdp() -> Pomdp {
        // Two states, one action moving 0 -> 1 (1 absorbing), two obs.
        let mut mb = MdpBuilder::new(2, 1);
        mb.transition(0, 0, 1, 0.5);
        mb.transition(0, 0, 0, 0.5);
        mb.transition(1, 0, 1, 1.0);
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), 2);
        pb.observation(0, 0, 0, 0.9);
        pb.observation(0, 0, 1, 0.1);
        pb.observation(1, 0, 1, 1.0);
        pb.build().unwrap()
    }

    #[test]
    fn model_accessors() {
        let p = tiny_pomdp();
        assert_eq!(p.n_states(), 2);
        assert_eq!(p.n_actions(), 1);
        assert_eq!(p.n_observations(), 2);
        assert_eq!(p.observation_prob(0, 0, 0), 0.9);
        assert_eq!(p.observation_prob(1, 0, 0), 0.0);
        assert_eq!(p.observation_label(1), "o1");
        assert_eq!(p.observation_by_label("o0"), Some(ObservationId::new(0)));
        assert_eq!(p.observation_by_label("nope"), None);
        assert_eq!(p.observations().count(), 2);
    }

    #[test]
    fn missing_observation_row_is_rejected() {
        let mut mb = MdpBuilder::new(2, 1);
        mb.transition(0, 0, 1, 1.0);
        mb.transition(1, 0, 1, 1.0);
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), 1);
        pb.observation(0, 0, 0, 1.0);
        // State 1 has no observation distribution.
        assert!(matches!(
            pb.build(),
            Err(Error::ObservationNotStochastic { state: 1, .. })
        ));
    }

    #[test]
    fn non_unit_observation_row_is_rejected() {
        let mut mb = MdpBuilder::new(1, 1);
        mb.transition(0, 0, 0, 1.0);
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), 2);
        pb.observation(0, 0, 0, 0.5);
        pb.observation(0, 0, 1, 0.4);
        assert!(matches!(
            pb.build(),
            Err(Error::ObservationNotStochastic { .. })
        ));
    }

    #[test]
    fn observation_all_actions_covers_every_action() {
        let mut mb = MdpBuilder::new(1, 3);
        for a in 0..3 {
            mb.transition(0, a, 0, 1.0);
        }
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), 1);
        pb.observation_all_actions(0, 0, 1.0);
        let p = pb.build().unwrap();
        for a in 0..3 {
            assert_eq!(p.observation_prob(0, a, 0), 1.0);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "20k sampling draws are too slow under miri")]
    fn sampling_respects_distributions() {
        let p = tiny_pomdp();
        let mut rng = StdRng::seed_from_u64(7);
        let mut to_one = 0usize;
        let mut obs_zero = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let s2 = p.sample_transition(&mut rng, StateId::new(0), ActionId::new(0));
            if s2.index() == 1 {
                to_one += 1;
            }
            let o = p.sample_observation(&mut rng, StateId::new(0), ActionId::new(0));
            if o.index() == 0 {
                obs_zero += 1;
            }
        }
        let frac_one = to_one as f64 / n as f64;
        let frac_obs0 = obs_zero as f64 / n as f64;
        assert!((frac_one - 0.5).abs() < 0.02, "frac_one = {frac_one}");
        assert!((frac_obs0 - 0.9).abs() < 0.02, "frac_obs0 = {frac_obs0}");
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let p = tiny_pomdp();
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(
                p.sample_transition(&mut a, StateId::new(0), ActionId::new(0)),
                p.sample_transition(&mut b, StateId::new(0), ActionId::new(0))
            );
        }
    }

    #[test]
    fn fingerprint_is_content_stable_and_sensitive() {
        assert_eq!(tiny_pomdp().fingerprint(), tiny_pomdp().fingerprint());
        let mut mb = MdpBuilder::new(2, 1);
        mb.transition(0, 0, 1, 0.5);
        mb.transition(0, 0, 0, 0.5);
        mb.transition(1, 0, 1, 1.0);
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), 2);
        pb.observation(0, 0, 0, 0.8);
        pb.observation(0, 0, 1, 0.2);
        pb.observation(1, 0, 1, 1.0);
        let variant = pb.build().unwrap();
        assert_ne!(tiny_pomdp().fingerprint(), variant.fingerprint());
    }

    /// Per-action observation triplets `(s', o, q)` of a test model.
    type ObsTriplets = Vec<Vec<(usize, usize, f64)>>;

    /// A model with `triplets[a]` as action `a`'s observation model, on
    /// a chain `s → s + 1` (last state absorbing) for every action.
    fn model_with_observations(n: usize, n_obs: usize, triplets: &ObsTriplets) -> Pomdp {
        let mut mb = MdpBuilder::new(n, triplets.len());
        for a in 0..triplets.len() {
            for s in 0..n {
                mb.transition(s, a, (s + 1).min(n - 1), 1.0);
                mb.reward(s, a, -1.0 - a as f64);
            }
        }
        let mut pb = PomdpBuilder::new(mb.build().unwrap(), n_obs);
        for (a, per_action) in triplets.iter().enumerate() {
            for &(s, o, q) in per_action {
                pb.observation(s, a, o, q);
            }
        }
        pb.build().unwrap()
    }

    /// One observation model on 40 states and 20 observations: state
    /// `s` emits `s % 20` and `(s + shift) % 20`. Rows are sparse, so
    /// the model takes the sparse branch layout.
    fn shifted_observations(shift: usize) -> Vec<(usize, usize, f64)> {
        (0..40)
            .flat_map(|s| [(s, s % 20, 0.75), (s, (s + shift) % 20, 0.25)])
            .collect()
    }

    /// Four actions; actions 0, 1 and 3 share one observation model.
    fn three_of_four_shared() -> ObsTriplets {
        let shared = shifted_observations(1);
        vec![
            shared.clone(),
            shared.clone(),
            shifted_observations(7),
            shared,
        ]
    }

    /// The pre-sharing reference: each action's matrix built on its own
    /// from its triplets.
    fn per_action_reference(n: usize, n_obs: usize, triplets: &ObsTriplets) -> Vec<CsrMatrix> {
        triplets
            .iter()
            .map(|t| CsrMatrix::from_triplets(n, n_obs, t).unwrap())
            .collect()
    }

    #[test]
    fn actions_sharing_an_observation_model_store_it_once() {
        let p = model_with_observations(40, 20, &three_of_four_shared());
        assert_eq!(p.n_distinct_observation_matrices(), 2);
        assert_eq!(p.obs_of, vec![0, 0, 1, 0]);
        // A model whose actions all differ stores one per action.
        let distinct: ObsTriplets = (1..4).map(shifted_observations).collect();
        let p = model_with_observations(40, 20, &distinct);
        assert_eq!(p.n_distinct_observation_matrices(), 3);
    }

    #[test]
    fn accessors_return_each_actions_own_observation_model() {
        let triplets = three_of_four_shared();
        let p = model_with_observations(40, 20, &triplets);
        let reference = per_action_reference(40, 20, &triplets);
        for (a, q) in reference.iter().enumerate() {
            assert!(p.observation_matrix(a).identical(q), "action {a}");
            assert!(
                p.observation_transpose(a).identical(&q.transpose()),
                "action {a} transpose"
            );
            for s in 0..40 {
                let row: Vec<(ObservationId, f64)> =
                    q.row(s).map(|(o, v)| (ObservationId::new(o), v)).collect();
                assert_eq!(
                    p.observations_on_entering(s, a).collect::<Vec<_>>(),
                    row,
                    "action {a}, state {s}"
                );
                for o in 0..20 {
                    assert_eq!(
                        p.observation_prob(s, a, o).to_bits(),
                        q.get(s, o).to_bits(),
                        "q({o} | {s}, {a})"
                    );
                }
                let mut rng = StdRng::seed_from_u64((a * 40 + s) as u64);
                let mut reference_rng = rng.clone();
                for _ in 0..8 {
                    let u: f64 = reference_rng.gen();
                    let (mut acc, mut expected) = (0.0, None);
                    for (o, v) in q.row(s) {
                        acc += v;
                        expected = Some(o);
                        if u < acc {
                            break;
                        }
                    }
                    let drawn = p.sample_observation(&mut rng, StateId::new(s), ActionId::new(a));
                    assert_eq!(Some(drawn.index()), expected, "action {a}, state {s}");
                }
            }
        }
    }

    #[test]
    fn matrices_that_differ_in_one_bit_stay_separate() {
        // One ulp in one value (the row still sums to 1 within the
        // builder's tolerance).
        let base = shifted_observations(1);
        let mut nudged = base.clone();
        nudged[0].2 = f64::from_bits(nudged[0].2.to_bits() + 1);
        let p = model_with_observations(40, 20, &vec![base.clone(), nudged.clone()]);
        assert_eq!(p.n_distinct_observation_matrices(), 2);
        assert_eq!(p.observation_prob(0, 1, 0).to_bits(), nudged[0].2.to_bits());
        assert_ne!(
            p.observation_prob(0, 0, 0).to_bits(),
            p.observation_prob(0, 1, 0).to_bits()
        );

        // A signed zero: the builder stores no zeros, of either sign, so
        // `+0.0` and `-0.0` mass leave the same matrix and it is shared
        // (`CsrMatrix::identical` itself tells a stored `-0.0` from
        // `+0.0`; see its tests).
        let mut plus = base.clone();
        plus.push((0, 5, 0.0));
        let mut minus = base;
        minus.push((0, 5, -0.0));
        let p = model_with_observations(40, 20, &vec![plus, minus]);
        assert_eq!(p.n_distinct_observation_matrices(), 1);
    }

    #[test]
    fn layout_and_fingerprint_match_the_per_action_reference() {
        // Four states with full rows; action 1 spreads its mass over
        // half the observations.
        let dense_rows: ObsTriplets = (0..3)
            .map(|a| {
                let width = if a == 1 { 10 } else { 20 };
                (0..4)
                    .flat_map(|s| (0..width).map(move |o| (s, o, 1.0 / width as f64)))
                    .collect()
            })
            .collect();
        // Two actions share a fill-0.1 matrix and one has fill 0.175:
        // the mean over actions sits exactly at the sparse threshold
        // (0.125), while a mean over the 2 distinct matrices (0.1375)
        // would miss it.
        let wide: Vec<(usize, usize, f64)> = (0..40)
            .flat_map(|s| {
                let k = 3 + s % 2;
                (0..k).map(move |j| (s, (s + 5 * j) % 20, 1.0 / k as f64))
            })
            .collect();
        let threshold = vec![shifted_observations(1), shifted_observations(1), wide];
        assert!(model_with_observations(40, 20, &threshold).sparse_branches());
        for (n, triplets) in [
            (40, three_of_four_shared()),
            (40, vec![shifted_observations(1); 5]),
            (40, threshold),
            (4, dense_rows),
        ] {
            let p = model_with_observations(n, 20, &triplets);
            let reference = per_action_reference(n, 20, &triplets);
            let refs: Vec<&CsrMatrix> = reference.iter().collect();
            assert_eq!(
                p.fingerprint(),
                fingerprint_pomdp(p.mdp(), 20, &refs),
                "{n} states"
            );
            assert_eq!(
                p.sparse_branches(),
                branches_pay_sparse(n, 20, &refs),
                "{n} states"
            );
        }
        assert!(model_with_observations(40, 20, &three_of_four_shared()).sparse_branches());
        // Sharing changes nothing the hash reads: one model whose
        // actions share and one whose actions hold bit-equal copies are
        // the same model.
        let shared = model_with_observations(40, 20, &vec![shifted_observations(1); 2]);
        let copies: Vec<CsrMatrix> =
            per_action_reference(40, 20, &vec![shifted_observations(1); 2]);
        let refs: Vec<&CsrMatrix> = copies.iter().collect();
        assert_eq!(
            shared.fingerprint(),
            fingerprint_pomdp(shared.mdp(), 20, &refs)
        );
    }

    /// Reference branch masses: `γ(o) = Σ_s q(o|s) · pred(s)` scattered
    /// over the stored entries only, in ascending `s`, no dense rows.
    fn scatter_branch_masses(obs: &CsrMatrix, pred: &[f64], gammas: &mut [f64]) {
        gammas.fill(0.0);
        for (s, &w) in pred.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let (cols, q) = obs.row_slice(s);
            for (&o, &v) in cols.iter().zip(q) {
                gammas[o] += v * w;
            }
        }
    }

    /// A deterministic xorshift stream in `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The model's state-major observation matrices carry dense
        /// mirrors, and the mirrored transposed SpMV gives the branch
        /// masses of the scatter loop bit for bit, for random sparse
        /// models and predictions with zeros, tiny and mixed-scale
        /// entries.
        #[test]
        #[cfg_attr(miri, ignore = "48 random models are too slow under miri")]
        fn mirrored_branch_masses_match_the_scatter_loop(
            n in 2usize..30,
            n_obs in 16usize..48,
            n_actions in 1usize..4,
            fill in 0.05f64..0.9,
            seed in 1u64..u64::MAX,
        ) {
            let mut rng = seed;
            let triplets: ObsTriplets = (0..n_actions)
                .map(|_| {
                    let mut t = Vec::new();
                    for s in 0..n {
                        // State 0 emits every observation, so every
                        // model has at least one mirrored row.
                        let mut row = Vec::new();
                        for o in 0..n_obs {
                            if s == 0 || unit(&mut rng) < fill {
                                let tiny = unit(&mut rng) < 0.05;
                                row.push((o, if tiny { 1e-300 } else { unit(&mut rng) + 1e-3 }));
                            }
                        }
                        if row.is_empty() {
                            row.push((s % n_obs, 1.0));
                        }
                        let total: f64 = row.iter().map(|&(_, w)| w).sum();
                        t.extend(row.into_iter().map(|(o, w)| (s, o, w / total)));
                    }
                    t
                })
                .collect();
            let p = model_with_observations(n, n_obs, &triplets);
            let mut fast = vec![0.0; n_obs];
            let mut reference = vec![0.0; n_obs];
            for a in 0..n_actions {
                let q = p.observation_matrix(a);
                proptest::prop_assert!(q.has_dense_rows(), "row 0 is full");
                for trial in 0..8 {
                    let pred: Vec<f64> = (0..n)
                        .map(|_| {
                            let u = unit(&mut rng);
                            if u < 0.3 {
                                0.0
                            } else if u < 0.35 {
                                1e-300
                            } else {
                                u * 10f64.powi(-(trial % 6))
                            }
                        })
                        .collect();
                    fast.fill(1.0);
                    q.matvec_transpose_into_unchecked(&pred, &mut fast);
                    scatter_branch_masses(q, &pred, &mut reference);
                    for (o, (x, y)) in fast.iter().zip(&reference).enumerate() {
                        proptest::prop_assert_eq!(x.to_bits(), y.to_bits(), "action {}, o = {}", a, o);
                    }
                }
            }
        }
    }

    #[test]
    fn observation_id_display() {
        assert_eq!(ObservationId::new(3).to_string(), "o3");
        assert_eq!(ObservationId::from(2).index(), 2);
    }
}
