//! Value-function bounds for POMDPs.
//!
//! All bounds are functions of the belief state. Lower bounds
//! underestimate the optimal value `V*_p(π)` (and therefore
//! *overestimate* recovery cost); upper bounds do the reverse. The
//! paper's central object is the **RA-Bound** ([`ra_bound`]); the
//! BI-POMDP ([`bi_pomdp_bound`]) and blind-policy ([`blind_bound`])
//! bounds are the prior art it is compared against (§3.1), and the
//! QMDP/FIB upper bounds ([`qmdp_bound`], [`fib_bound`]) realise the
//! "generation of upper bounds" extension from the paper's conclusion.

mod bi;
mod blind;
mod pbvi;
pub(crate) mod ra;
mod upper;
mod vector_set;

pub use bi::bi_pomdp_bound;
pub use blind::blind_bound;
pub use pbvi::{pbvi_refine, simplex_grid, PbviOpts};
pub use ra::{ra_bound, ra_values};
pub use upper::{fib_bound, qmdp_bound, FibOpts};
pub use vector_set::VectorSetBound;

use crate::Belief;

/// A real-valued function of the belief state used as a bound on the
/// POMDP value function.
///
/// Implementors promise nothing about *which side* of the value function
/// they sit on; that is a property of how the object was constructed
/// (e.g. [`ra_bound`] returns lower bounds, [`qmdp_bound`] upper
/// bounds).
pub trait ValueBound {
    /// Evaluates the bound at a belief state.
    fn value(&self, belief: &Belief) -> f64;

    /// Evaluates the bound at a belief given as a raw (already
    /// normalised) probability slice.
    ///
    /// Must return exactly the same value as [`ValueBound::value`] on
    /// the [`Belief`] wrapping `weights`. The default implementation
    /// does just that (allocating a temporary belief); bound types on
    /// hot planning paths override it to evaluate allocation-free —
    /// this is what lets the tree kernel score leaves (Eq. 6) straight
    /// from its scratch buffers.
    fn value_weights(&self, weights: &[f64]) -> f64 {
        self.value(&Belief::from_raw(weights.to_vec()))
    }

    /// [`ValueBound::value_weights`] for a belief known to vanish off
    /// `support`: every index where `weights` may be non-zero, in
    /// ascending order, without repeats (the tree kernel passes the
    /// stored columns of the observation row that produced the branch).
    ///
    /// Must return exactly the bits of
    /// [`ValueBound::value_weights`]`(weights)`. The default forwards to
    /// it; [`VectorSetBound`] overrides it with support-restricted dot
    /// products, which is what keeps leaf evaluation on 10³-state
    /// models proportional to the branch's support instead of `|S|`.
    fn value_support(&self, weights: &[f64], support: &[usize]) -> f64 {
        let _ = support;
        self.value_weights(weights)
    }

    /// The bound's envelope, for planners that skip actions which
    /// cannot win. Fills `upper` and `magnitude` (one entry per state)
    /// and returns a floor `m` such that, for every normalised belief
    /// `b`, `m ≤ value_weights(b) ≤ Σ_s upper[s]·b[s]`, and the value
    /// is a sum of terms with `|term_s| ≤ b[s]·magnitude[s]` (the scale
    /// of its rounding error).
    ///
    /// The default returns `None`: no envelope is known, and the tree
    /// kernel expands every action. [`VectorSetBound`] returns
    /// `upper[s] = max_v V_v(s)`, `magnitude[s] = max_v |V_v(s)|` and
    /// `m = max_v min_s V_v(s)`.
    fn envelope_into(&self, upper: &mut [f64], magnitude: &mut [f64]) -> Option<f64> {
        let _ = (upper, magnitude);
        None
    }
}

/// A constant bound, independent of the belief.
///
/// `ConstantBound(0.0)` is the trivial upper bound for negative models
/// (all rewards ≤ 0) used on the y-axis of the paper's Figure 5(a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantBound(pub f64);

impl ValueBound for ConstantBound {
    fn value(&self, _belief: &Belief) -> f64 {
        self.0
    }

    fn value_weights(&self, _weights: &[f64]) -> f64 {
        self.0
    }
}

impl<B: ValueBound + ?Sized> ValueBound for &B {
    fn value(&self, belief: &Belief) -> f64 {
        (**self).value(belief)
    }

    fn value_weights(&self, weights: &[f64]) -> f64 {
        (**self).value_weights(weights)
    }

    fn value_support(&self, weights: &[f64], support: &[usize]) -> f64 {
        (**self).value_support(weights, support)
    }

    fn envelope_into(&self, upper: &mut [f64], magnitude: &mut [f64]) -> Option<f64> {
        (**self).envelope_into(upper, magnitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_bound_ignores_belief() {
        let c = ConstantBound(-3.5);
        assert_eq!(c.value(&Belief::uniform(2)), -3.5);
        assert_eq!(c.value(&Belief::uniform(17)), -3.5);
    }

    #[test]
    fn references_forward_value() {
        let c = ConstantBound(1.0);
        let r: &dyn ValueBound = &c;
        assert_eq!(r.value(&Belief::uniform(3)), 1.0);
        assert_eq!(c.value(&Belief::uniform(3)), 1.0);
    }
}
