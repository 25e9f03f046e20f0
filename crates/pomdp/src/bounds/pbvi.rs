//! Point-based value iteration over a fixed belief grid.
//!
//! The paper improves its bound at beliefs sampled by simulation
//! (bootstrapping). This module provides the complementary *dense*
//! refinement: incremental backups swept over a regular grid on the
//! belief simplex, in the style of point-based value iteration. On
//! small models the result approaches the optimal value function from
//! below, making it a useful reference against which the cheaper
//! bootstrap refinement can be judged.

use crate::backup::incremental_backup;
use crate::bounds::VectorSetBound;
use crate::{Belief, Error, Pomdp};

/// Options for [`pbvi_refine`].
#[derive(Debug, Clone, PartialEq)]
pub struct PbviOpts {
    /// Grid resolution: belief coordinates are multiples of
    /// `1/resolution`. The grid has `C(resolution + n - 1, n - 1)`
    /// points — keep `resolution` small for models beyond a handful of
    /// states.
    pub resolution: usize,
    /// Number of full sweeps over the grid.
    pub sweeps: usize,
    /// Discount factor (1.0 for recovery models).
    pub beta: f64,
    /// Stop early when a full sweep improves no grid point by more
    /// than this.
    pub tol: f64,
}

impl Default for PbviOpts {
    fn default() -> PbviOpts {
        PbviOpts {
            resolution: 3,
            sweeps: 50,
            beta: 1.0,
            tol: 1e-7,
        }
    }
}

/// Enumerates the regular grid on the `n`-simplex with the given
/// resolution (all compositions of `resolution` into `n` parts).
pub fn simplex_grid(n: usize, resolution: usize) -> Vec<Belief> {
    assert!(n > 0, "simplex needs at least one dimension");
    assert!(resolution > 0, "resolution must be positive");
    let mut out = Vec::new();
    let mut current = vec![0usize; n];
    fill(&mut out, &mut current, 0, resolution, resolution);
    out
}

fn fill(
    out: &mut Vec<Belief>,
    current: &mut Vec<usize>,
    index: usize,
    remaining: usize,
    resolution: usize,
) {
    if index + 1 == current.len() {
        current[index] = remaining;
        let probs: Vec<f64> = current
            .iter()
            .map(|&c| c as f64 / resolution as f64)
            .collect();
        out.push(Belief::from_probs(probs).expect("grid point is a distribution"));
        return;
    }
    for c in 0..=remaining {
        current[index] = c;
        fill(out, current, index + 1, remaining - c, resolution);
    }
}

/// Refines `bound` in place by sweeping incremental backups over the
/// simplex grid until convergence or the sweep budget runs out.
/// Returns the number of sweeps performed.
///
/// The input must be a valid lower bound satisfying `V_B ≤ L_p V_B`
/// (the RA-Bound qualifies); every backup preserves both properties,
/// so the refined set remains a provable lower bound.
///
/// # Errors
///
/// Propagates backup failures (empty or mismatched bound sets).
pub fn pbvi_refine(
    pomdp: &Pomdp,
    bound: &mut VectorSetBound,
    opts: &PbviOpts,
) -> Result<usize, Error> {
    let grid = simplex_grid(pomdp.n_states(), opts.resolution);
    for sweep in 1..=opts.sweeps {
        let mut max_improvement = 0.0f64;
        for point in &grid {
            let outcome = incremental_backup(pomdp, bound, point, opts.beta)?;
            max_improvement = max_improvement.max(outcome.value_after - outcome.value_before);
        }
        if max_improvement <= opts.tol {
            return Ok(sweep);
        }
    }
    Ok(opts.sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::ra::tests::two_server_notified;
    use crate::bounds::{qmdp_bound, ra_bound, ValueBound};
    use bpr_mdp::chain::SolveOpts;
    use bpr_mdp::value_iteration::Discount;

    #[test]
    fn grid_enumerates_all_compositions() {
        let g = simplex_grid(2, 4);
        assert_eq!(g.len(), 5); // (0,4) (1,3) (2,2) (3,1) (4,0)
        let g = simplex_grid(3, 2);
        assert_eq!(g.len(), 6); // C(4,2)
        for b in &g {
            let sum: f64 = b.probs().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        // Vertices are present.
        assert!(g.iter().any(|b| b.prob(0.into()) == 1.0));
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn zero_resolution_panics() {
        simplex_grid(2, 0);
    }

    #[test]
    fn refinement_tightens_the_ra_bound_toward_qmdp() {
        let p = two_server_notified();
        let mut bound = ra_bound(&p, &SolveOpts::default()).unwrap();
        let upper = qmdp_bound(&p, Discount::Undiscounted).unwrap();
        let probe = Belief::uniform(3);
        let before = bound.value(&probe);
        let sweeps = pbvi_refine(
            &p,
            &mut bound,
            &PbviOpts {
                resolution: 4,
                sweeps: 60,
                ..PbviOpts::default()
            },
        )
        .unwrap();
        let after = bound.value(&probe);
        assert!(
            after > before + 0.1,
            "no meaningful tightening: {before} -> {after}"
        );
        assert!(
            after <= upper.value(&probe) + 1e-7,
            "crossed the upper bound"
        );
        assert!(sweeps >= 1);
        // The refined bound still satisfies Property 1(b) at the grid.
        for b in simplex_grid(3, 3) {
            let v = bound.value(&b);
            let lp = crate::tree::expand_with_cutoff(&p, &b, 1, &bound, 1.0, 0.0)
                .unwrap()
                .value;
            assert!(v <= lp + 1e-7);
        }
    }

    #[test]
    fn refinement_converges_and_stops_early() {
        let p = two_server_notified();
        let mut bound = ra_bound(&p, &SolveOpts::default()).unwrap();
        let sweeps = pbvi_refine(
            &p,
            &mut bound,
            &PbviOpts {
                resolution: 3,
                sweeps: 500,
                ..PbviOpts::default()
            },
        )
        .unwrap();
        assert!(sweeps < 500, "never converged");
        // A second refinement changes (almost) nothing.
        let probe = Belief::uniform(3);
        let v1 = bound.value(&probe);
        pbvi_refine(&p, &mut bound, &PbviOpts::default()).unwrap();
        let v2 = bound.value(&probe);
        assert!((v2 - v1).abs() < 1e-5);
    }
}
