//! Sound state aggregation (lumping) for recovery POMDPs.
//!
//! Large recovery models contain many states the monitors cannot
//! distinguish: the lint analyzer reports them as *monitor-aliasing*
//! equivalence classes (`BPR017`). When aliased states additionally
//! share reward structure and have *class-respecting* transition rows,
//! the belief-state dynamics never separate them — any belief reachable
//! from a lumped initial belief assigns the class's mass indistinctly,
//! and every planning value depends only on the per-class mass. Such
//! classes can be merged into a **quotient POMDP** over the classes,
//! shrinking `|S|` without changing any [`crate::tree::Decision`].
//!
//! # Soundness
//!
//! [`lump`] starts from a caller-provided *candidate* partition (any
//! partition — typically the lint analyzer's aliasing classes; an
//! unsound seed is fine) and **refines** it until it is a strong
//! lumping certificate:
//!
//! 1. states in one class must have bit-identical observation rows
//!    `q(· | s, a)` for every action;
//! 2. states in one class must have bit-identical rewards `r(s, a)`
//!    for every action (durations are per-action and shared already);
//! 3. for every action, the class-aggregated transition mass
//!    `Σ_{s' ∈ C'} p(s' | s, a)` out of each member must agree
//!    bit-for-bit across the class, for every target class `C'` —
//!    iterated to a fixpoint, since splitting one class can break
//!    the aggregated-row agreement of another.
//!
//! All comparisons are on exact `f64` bit patterns, so the refinement
//! is conservative: it may keep apart states a real-analysis argument
//! could merge, but it never merges states whose belief dynamics could
//! diverge. With (1)–(3), projection `π ↦ π_Q` (summing belief mass
//! per class) commutes with the belief update: predicted mass,
//! per-observation `γ` values, expected rewards, and leaf-bound inputs
//! of the quotient equal those of the full model up to floating-point
//! re-association of the per-class sums. Planning values on the
//! quotient therefore match the full model's to summation tolerance —
//! and **bit-identically when the partition refines to the identity**
//! (every class a singleton), because then no re-association happens
//! at all.
//!
//! A merging quotient is rebuilt through [`bpr_mdp::MdpBuilder`] and
//! [`PomdpBuilder`], so it re-passes every stochasticity validation of
//! a hand-built model. An identity certificate's quotient is the input
//! model itself, so it is shared or cloned, never rebuilt.

use crate::{Belief, Error, Pomdp, PomdpBuilder};
use bpr_mdp::{MdpBuilder, StateId};
use std::collections::HashMap;

/// The state-aggregation map produced by [`lump`]: a partition of the
/// full state space into quotient states, with both directions of the
/// belief correspondence.
///
/// The certificate is the object the equivalence proptests pin down:
/// simulate on the full model, plan on the quotient through
/// [`LumpCertificate::project`], and the decision sequence must match
/// planning on the full model directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LumpCertificate {
    /// `class_of[s]` = quotient state of full state `s`.
    class_of: Vec<usize>,
    /// `members[c]` = full states of quotient state `c`, ascending;
    /// `members[c][0]` is the class representative.
    members: Vec<Vec<usize>>,
}

impl LumpCertificate {
    /// The trivial certificate over `n` states: every class a
    /// singleton, projection and lift both the identity. Lets callers
    /// keep one code path (always project through a certificate)
    /// while opting out of aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> LumpCertificate {
        assert!(n > 0, "identity certificate needs at least one state");
        LumpCertificate {
            class_of: (0..n).collect(),
            members: (0..n).map(|s| vec![s]).collect(),
        }
    }

    /// Number of full-model states.
    pub fn n_full(&self) -> usize {
        self.class_of.len()
    }

    /// Number of quotient states (classes).
    pub fn n_quotient(&self) -> usize {
        self.members.len()
    }

    /// True when every class is a singleton — the quotient *is* the
    /// full model (up to state identity), and planning values are
    /// bit-identical, not merely tolerance-identical.
    pub fn is_identity(&self) -> bool {
        self.members.len() == self.class_of.len()
    }

    /// The quotient state a full state belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `full` is out of bounds.
    pub fn class_of(&self, full: StateId) -> StateId {
        StateId::new(self.class_of[full.index()])
    }

    /// The full states merged into a quotient state, in ascending
    /// order; the first member is the class representative.
    ///
    /// # Panics
    ///
    /// Panics if `quotient` is out of bounds.
    pub fn members(&self, quotient: StateId) -> &[usize] {
        &self.members[quotient.index()]
    }

    /// The representative (minimal member) of a quotient state.
    ///
    /// # Panics
    ///
    /// Panics if `quotient` is out of bounds.
    pub fn representative(&self, quotient: StateId) -> StateId {
        StateId::new(self.members[quotient.index()][0])
    }

    /// Projects a full-model belief onto the quotient: class mass is
    /// the sum of its members' mass, accumulated in ascending state
    /// order (deterministic bit pattern).
    ///
    /// # Panics
    ///
    /// Panics if the belief dimension is not the full state count.
    pub fn project(&self, full: &Belief) -> Belief {
        Belief::from_raw(self.project_weights(full.probs()))
    }

    /// [`LumpCertificate::project`] on a raw weight slice (need not be
    /// normalised).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` is not the full state count.
    pub fn project_weights(&self, weights: &[f64]) -> Vec<f64> {
        assert_eq!(weights.len(), self.class_of.len(), "belief dimension");
        let mut q = vec![0.0; self.members.len()];
        for (s, &w) in weights.iter().enumerate() {
            q[self.class_of[s]] += w;
        }
        q
    }

    /// Lifts a quotient belief back to the full state space by placing
    /// each class's mass on its representative.
    ///
    /// Lumped dynamics never separate the members of a class, so every
    /// full belief consistent with a quotient belief yields the same
    /// values and decisions; the representative lift is the canonical
    /// (sparsest) such witness, and `project(lift(b)) == b` exactly.
    ///
    /// # Panics
    ///
    /// Panics if the belief dimension is not the quotient state count.
    pub fn lift(&self, quotient: &Belief) -> Belief {
        let probs = quotient.probs();
        assert_eq!(probs.len(), self.members.len(), "belief dimension");
        let mut full = vec![0.0; self.class_of.len()];
        for (c, &w) in probs.iter().enumerate() {
            full[self.members[c][0]] = w;
        }
        Belief::from_raw(full)
    }
}

/// Size accounting of one [`lump`] pass (reported by the benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LumpStats {
    /// `|S|` of the full model.
    pub full_states: usize,
    /// `|S|` of the quotient.
    pub quotient_states: usize,
    /// Number of classes holding more than one full state.
    pub merged_classes: usize,
}

/// A quotient POMDP together with the certificate relating it to the
/// full model it was lumped from.
#[derive(Debug, Clone)]
pub struct Lumping {
    /// The quotient model; plan on this.
    pub pomdp: Pomdp,
    /// The partition map; project/lift beliefs through this.
    pub certificate: LumpCertificate,
}

impl Lumping {
    /// Size accounting for reporting.
    pub fn stats(&self) -> LumpStats {
        LumpStats {
            full_states: self.certificate.n_full(),
            quotient_states: self.certificate.n_quotient(),
            merged_classes: self
                .certificate
                .members
                .iter()
                .filter(|m| m.len() > 1)
                .count(),
        }
    }
}

/// Lumps `pomdp` by the given candidate classes, refined to soundness.
///
/// `seed` lists groups of states that *may* be mergeable (e.g. the
/// lint analyzer's monitor-aliasing classes); states not mentioned
/// stay singletons. The seed only proposes — the refinement described
/// in the module docs splits every group until the partition is a
/// strong lumping, so an arbitrary (even wrong) seed yields a sound
/// quotient, just possibly a larger one. Classes are numbered by their
/// minimal member, so class order is independent of seed order.
///
/// # Errors
///
/// * [`Error::IndexOutOfBounds`] if a seed state is out of range or
///   appears in more than one group.
/// * Construction errors from the quotient rebuild are propagated
///   (they indicate a malformed input model, not a lumping failure).
pub fn lump(pomdp: &Pomdp, seed: &[Vec<StateId>]) -> Result<Lumping, Error> {
    let certificate = lump_certificate(pomdp, seed)?;
    let quotient = if certificate.is_identity() {
        pomdp.clone()
    } else {
        certificate.quotient(pomdp)?
    };
    Ok(Lumping {
        pomdp: quotient,
        certificate,
    })
}

/// The certificate [`lump`] would return, without building the
/// quotient. When it [is the identity](LumpCertificate::is_identity)
/// the quotient is the input model itself, so a caller holding the
/// model behind a shared pointer can keep sharing it; otherwise
/// [`LumpCertificate::quotient`] builds it.
///
/// Refinement stops as soon as every class is a singleton: a partition
/// of singletons cannot split further.
///
/// # Errors
///
/// [`Error::IndexOutOfBounds`] if a seed state is out of range or
/// appears in more than one group.
pub fn lump_certificate(pomdp: &Pomdp, seed: &[Vec<StateId>]) -> Result<LumpCertificate, Error> {
    let n = pomdp.n_states();
    let mut class_of = seed_partition(n, seed)?;

    // Refinement 1 + 2: exact observation rows and rewards. One
    // combined key per state; states agreeing on the key stay together.
    if class_count(&class_of) < n {
        let static_keys: Vec<Vec<u64>> = (0..n).map(|s| static_key(pomdp, s)).collect();
        split_by_key(&mut class_of, |s| static_keys[s].clone());
    }

    // Refinement 3: class-respecting transitions, to a fixpoint.
    while class_count(&class_of) < n {
        let before = class_count(&class_of);
        let snapshot = class_of.clone();
        split_by_key(&mut class_of, |s| transition_key(pomdp, s, &snapshot));
        if class_count(&class_of) == before {
            break;
        }
    }

    Ok(canonicalize(class_of))
}

/// Seed partition: listed groups get one class each, all other states
/// are singletons.
fn seed_partition(n: usize, seed: &[Vec<StateId>]) -> Result<Vec<usize>, Error> {
    const UNASSIGNED: usize = usize::MAX;
    let mut class_of = vec![UNASSIGNED; n];
    let mut next = 0usize;
    for group in seed {
        for s in group {
            let s = s.index();
            if s >= n {
                return Err(Error::IndexOutOfBounds {
                    what: "lump seed state",
                    index: s,
                    bound: n,
                });
            }
            if class_of[s] != UNASSIGNED {
                return Err(Error::IndexOutOfBounds {
                    what: "lump seed state (listed twice)",
                    index: s,
                    bound: n,
                });
            }
            class_of[s] = next;
        }
        if !group.is_empty() {
            next += 1;
        }
    }
    for c in class_of.iter_mut() {
        if *c == UNASSIGNED {
            *c = next;
            next += 1;
        }
    }
    Ok(class_of)
}

/// Observation-row + reward key of one state: exact bits, all actions.
fn static_key(pomdp: &Pomdp, s: usize) -> Vec<u64> {
    let mut key = Vec::new();
    for a in 0..pomdp.n_actions() {
        key.push(pomdp.mdp().reward_vector(a)[s].to_bits());
        for (o, q) in pomdp.observation_matrix(a).row(s) {
            key.push(o as u64);
            key.push(q.to_bits());
        }
        key.push(u64::MAX); // action separator
    }
    key
}

/// Class-aggregated transition key of one state under the current
/// partition: per action, the `(target class, summed mass)` pairs in
/// ascending class order, masses accumulated in ascending successor
/// order (deterministic bits).
fn transition_key(pomdp: &Pomdp, s: usize, class_of: &[usize]) -> Vec<u64> {
    let mut key = Vec::new();
    let mut agg: HashMap<usize, f64> = HashMap::new();
    for a in 0..pomdp.n_actions() {
        agg.clear();
        for (s2, p) in pomdp.mdp().transition_matrix(a).row(s) {
            *agg.entry(class_of[s2]).or_insert(0.0) += p;
        }
        let mut pairs: Vec<(usize, f64)> = agg.iter().map(|(&c, &m)| (c, m)).collect();
        pairs.sort_unstable_by_key(|&(c, _)| c);
        for (c, m) in pairs {
            key.push(c as u64);
            key.push(m.to_bits());
        }
        key.push(u64::MAX); // action separator
    }
    key
}

fn class_count(class_of: &[usize]) -> usize {
    let mut seen = vec![false; class_of.len()];
    let mut count = 0;
    for &c in class_of {
        if !seen[c] {
            seen[c] = true;
            count += 1;
        }
    }
    count
}

/// Splits every class by the given per-state key; states keep their
/// class only if their key matches the whole class's.
fn split_by_key(class_of: &mut [usize], key_fn: impl Fn(usize) -> Vec<u64>) {
    let mut next = 0usize;
    let mut assignment: HashMap<(usize, Vec<u64>), usize> = HashMap::new();
    let fresh: Vec<usize> = (0..class_of.len())
        .map(|s| {
            let key = (class_of[s], key_fn(s));
            *assignment.entry(key).or_insert_with(|| {
                let c = next;
                next += 1;
                c
            })
        })
        .collect();
    class_of.copy_from_slice(&fresh);
}

/// Renumbers classes by their minimal member and materialises the
/// member lists.
fn canonicalize(class_of: Vec<usize>) -> LumpCertificate {
    let mut min_member: HashMap<usize, usize> = HashMap::new();
    for (s, &c) in class_of.iter().enumerate() {
        min_member.entry(c).or_insert(s); // first visit = minimal
    }
    let mut reps: Vec<(usize, usize)> = min_member.iter().map(|(&c, &m)| (m, c)).collect();
    reps.sort_unstable();
    let mut renumber: HashMap<usize, usize> = HashMap::new();
    for (new, &(_, old)) in reps.iter().enumerate() {
        renumber.insert(old, new);
    }
    let canonical: Vec<usize> = class_of.iter().map(|c| renumber[c]).collect();
    let mut members = vec![Vec::new(); reps.len()];
    for (s, &c) in canonical.iter().enumerate() {
        members[c].push(s);
    }
    LumpCertificate {
        class_of: canonical,
        members,
    }
}

impl LumpCertificate {
    /// The quotient POMDP over this certificate's classes, rebuilt from
    /// the class representatives' rows through the validating
    /// [`bpr_mdp::MdpBuilder`] and [`PomdpBuilder`] (see the module
    /// docs). [`lump`] skips this for an identity certificate, whose
    /// quotient is the input model.
    ///
    /// # Errors
    ///
    /// Construction errors from the builders (a malformed input model,
    /// or a certificate made for another model).
    pub fn quotient(&self, pomdp: &Pomdp) -> Result<Pomdp, Error> {
        let nq = self.n_quotient();
        let na = pomdp.n_actions();
        let mdp = pomdp.mdp();
        let mut builder = MdpBuilder::new(nq, na);
        for a in 0..na {
            builder.duration(a, mdp.duration(a));
            builder.action_label(a, mdp.action_label(a));
        }
        let mut agg: HashMap<usize, f64> = HashMap::new();
        for c in 0..nq {
            let rep = self.members[c][0];
            builder.state_label(c, mdp.state_label(StateId::new(rep)));
            for a in 0..na {
                builder.reward(c, a, mdp.reward_vector(a)[rep]);
                agg.clear();
                for (s2, p) in mdp.transition_matrix(a).row(rep) {
                    *agg.entry(self.class_of[s2]).or_insert(0.0) += p;
                }
                let mut pairs: Vec<(usize, f64)> = agg.iter().map(|(&c2, &m)| (c2, m)).collect();
                pairs.sort_unstable_by_key(|&(c2, _)| c2);
                for (c2, m) in pairs {
                    builder.transition(c, a, c2, m);
                }
            }
        }
        let quotient_mdp = builder.build().map_err(Error::Mdp)?;
        let no = pomdp.n_observations();
        let mut pb = PomdpBuilder::new(quotient_mdp, no);
        for o in 0..no {
            pb.observation_label(o, pomdp.observation_label(o));
        }
        for c in 0..nq {
            let rep = self.members[c][0];
            for a in 0..na {
                for (o, q) in pomdp.observation_matrix(a).row(rep) {
                    pb.observation(c, a, o, q);
                }
            }
        }
        pb.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::ra::tests::two_server_notified;
    use crate::bounds::{ra_bound, ConstantBound};
    use crate::tree::expand_with_cutoff;
    use bpr_mdp::chain::SolveOpts;

    /// A 5-state model with a genuinely lumpable pair: states 1 and 2
    /// are replicas with identical rewards, identical observation rows,
    /// and symmetric (class-respecting) transitions.
    fn lumpable_model() -> Pomdp {
        let mut b = MdpBuilder::new(5, 2);
        // action 0: "repair" — replicas 1, 2 both go to healthy 0;
        // 3 and 4 are distinct faults with different costs.
        for s in [1usize, 2] {
            b.transition(s, 0usize, 0usize, 1.0);
            b.reward(s, 0usize, -2.0);
        }
        b.transition(0usize, 0usize, 0usize, 1.0);
        b.transition(3usize, 0usize, 3usize, 1.0);
        b.transition(4usize, 0usize, 0usize, 1.0);
        b.reward(3usize, 0usize, -5.0);
        b.reward(4usize, 0usize, -1.0);
        // action 1: "wait" — replicas drift into each other's class.
        b.transition(0usize, 1usize, 0usize, 1.0);
        b.transition(1usize, 1usize, 1usize, 0.5);
        b.transition(1usize, 1usize, 2usize, 0.5);
        b.transition(2usize, 1usize, 2usize, 0.5);
        b.transition(2usize, 1usize, 1usize, 0.5);
        b.transition(3usize, 1usize, 3usize, 1.0);
        b.transition(4usize, 1usize, 4usize, 1.0);
        for s in [1usize, 2] {
            b.reward(s, 1usize, -1.0);
        }
        b.reward(3usize, 1usize, -1.5);
        b.reward(4usize, 1usize, -0.5);
        let mdp = b.build().unwrap();
        let mut pb = PomdpBuilder::new(mdp, 2);
        // Monitors cannot tell 1 from 2; everything else is distinct.
        for a in 0..2usize {
            pb.observation(0usize, a, 0usize, 1.0);
            pb.observation(1usize, a, 1usize, 1.0);
            pb.observation(2usize, a, 1usize, 1.0);
            pb.observation(3usize, a, 1usize, 1.0);
            pb.observation(4usize, a, 0usize, 1.0);
        }
        pb.build().unwrap()
    }

    #[test]
    fn lumpable_pair_is_merged_and_nothing_else() {
        let p = lumpable_model();
        let seed = vec![vec![
            StateId::new(1),
            StateId::new(2),
            StateId::new(3), // aliased by monitors but reward-distinct
        ]];
        let l = lump(&p, &seed).unwrap();
        let stats = l.stats();
        assert_eq!(stats.full_states, 5);
        assert_eq!(stats.quotient_states, 4);
        assert_eq!(stats.merged_classes, 1);
        assert_eq!(l.certificate.members(StateId::new(1)), &[1, 2]);
        assert!(!l.certificate.is_identity());
        // Quotient transition rows are the aggregated representative
        // rows: the merged class self-loops under "wait".
        let q = &l.pomdp;
        assert_eq!(q.n_states(), 4);
        assert!((q.mdp().transition_prob(1usize, 1usize, 1usize) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unsound_seed_is_refined_apart() {
        let p = lumpable_model();
        // 3 and 4 differ in rewards, observations, and transitions;
        // seeding them together must not merge them.
        let seed = vec![vec![StateId::new(3), StateId::new(4)]];
        let l = lump(&p, &seed).unwrap();
        assert!(l.certificate.is_identity());
        assert_eq!(l.pomdp.n_states(), 5);
    }

    #[test]
    fn projection_commutes_with_belief_update() {
        let p = lumpable_model();
        let seed = vec![vec![StateId::new(1), StateId::new(2)]];
        let l = lump(&p, &seed).unwrap();
        let full = Belief::from_probs(vec![0.1, 0.3, 0.2, 0.25, 0.15]).unwrap();
        let projected = l.certificate.project(&full);
        for a in 0..p.n_actions() {
            let full_succ = full.successors(&p, bpr_mdp::ActionId::new(a), 0.0);
            let q_succ = projected.successors(&l.pomdp, bpr_mdp::ActionId::new(a), 0.0);
            assert_eq!(full_succ.len(), q_succ.len(), "branch count, action {a}");
            for ((o1, g1, b1), (o2, g2, b2)) in full_succ.iter().zip(&q_succ) {
                assert_eq!(o1, o2);
                assert!((g1 - g2).abs() < 1e-12, "gamma drift at {o1:?}");
                let reprojected = l.certificate.project_weights(b1.probs());
                for (x, y) in reprojected.iter().zip(b2.probs()) {
                    assert!((x - y).abs() < 1e-12, "posterior drift at {o1:?}");
                }
            }
        }
    }

    #[test]
    fn quotient_decisions_match_full_model_values() {
        let p = lumpable_model();
        let seed = vec![vec![StateId::new(1), StateId::new(2)]];
        let l = lump(&p, &seed).unwrap();
        let bound = ConstantBound(0.0);
        for probs in [
            vec![0.2; 5],
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.5, 0.5, 0.0, 0.0],
            vec![0.1, 0.3, 0.2, 0.25, 0.15],
        ] {
            let full_b = Belief::from_probs(probs).unwrap();
            let q_b = l.certificate.project(&full_b);
            for depth in 1..=3 {
                let full_d = expand_with_cutoff(&p, &full_b, depth, &bound, 1.0, 0.0).unwrap();
                let q_d = expand_with_cutoff(&l.pomdp, &q_b, depth, &bound, 1.0, 0.0).unwrap();
                assert_eq!(full_d.action, q_d.action, "depth {depth}");
                assert!(
                    (full_d.value - q_d.value).abs() < 1e-9,
                    "depth {depth}: {} vs {}",
                    full_d.value,
                    q_d.value
                );
                for (qf, qq) in full_d.q_values.iter().zip(&q_d.q_values) {
                    assert!((qf - qq).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn identity_lump_is_bit_identical() {
        let p = two_server_notified();
        let l = lump(&p, &[]).unwrap();
        assert!(l.certificate.is_identity());
        assert_eq!(l.pomdp.fingerprint(), p.fingerprint());
        let ra = ra_bound(&p, &SolveOpts::default()).unwrap();
        for probs in [vec![1.0, 0.0, 0.0], vec![0.3, 0.3, 0.4]] {
            let b = Belief::from_probs(probs).unwrap();
            let q_b = l.certificate.project(&b);
            assert_eq!(b.probs(), q_b.probs());
            for depth in 1..=3 {
                let full_d = expand_with_cutoff(&p, &b, depth, &ra, 1.0, 0.0).unwrap();
                let q_d = expand_with_cutoff(&l.pomdp, &q_b, depth, &ra, 1.0, 0.0).unwrap();
                assert_eq!(full_d, q_d, "identity lump drifted at depth {depth}");
            }
        }
    }

    #[test]
    fn lift_is_a_projection_section() {
        let p = lumpable_model();
        let seed = vec![vec![StateId::new(1), StateId::new(2)]];
        let l = lump(&p, &seed).unwrap();
        let q_b = Belief::from_probs(vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let lifted = l.certificate.lift(&q_b);
        assert_eq!(lifted.probs().len(), 5);
        let back = l.certificate.project(&lifted);
        assert_eq!(back.probs(), q_b.probs(), "project . lift must be identity");
    }

    #[test]
    fn bad_seeds_are_rejected() {
        let p = lumpable_model();
        assert!(lump(&p, &[vec![StateId::new(9)]]).is_err());
        assert!(lump(
            &p,
            &[
                vec![StateId::new(1)],
                vec![StateId::new(1), StateId::new(2)]
            ]
        )
        .is_err());
    }
}
