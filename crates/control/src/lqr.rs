//! Discrete-time linear-quadratic regulator design.
//!
//! The controllers of the benchmark applications are state-feedback LQR
//! controllers designed on the delay-augmented discretization of each plant
//! (the paper uses LQG controllers generated alongside the Jitter Margin
//! toolbox; a state-feedback LQR on the same sampled-data model is the
//! standard open substitute and produces closed loops with the same
//! delay/jitter sensitivity structure).

use crate::discretize::{augmented_system, AugmentedSystem};
use crate::error::ControlError;
use crate::linalg::{solve, Matrix};
use crate::plant::Plant;

/// The result of an LQR design: the state-feedback gain and the Riccati
/// solution.
#[derive(Debug, Clone)]
pub struct LqrDesign {
    /// The feedback gain `K`; the control law is `u(k) = -K z(k)`.
    pub gain: Matrix,
    /// The stabilizing solution of the discrete algebraic Riccati equation.
    pub riccati: Matrix,
    /// Number of value-iteration steps performed.
    pub iterations: usize,
}

/// Solves the infinite-horizon discrete-time LQR problem for
/// `x(k+1) = A x(k) + B u(k)` with stage cost `x' Q x + u' R u` by Riccati
/// value iteration.
///
/// # Errors
///
/// Returns [`ControlError::DimensionMismatch`] for inconsistent dimensions
/// and [`ControlError::NumericalFailure`] if the iteration does not converge
/// (e.g. the pair `(A, B)` is not stabilizable).
///
/// # Example
///
/// ```
/// use tsn_control::linalg::Matrix;
/// use tsn_control::dlqr;
///
/// # fn main() -> Result<(), tsn_control::ControlError> {
/// // Scalar double of the state each step, full control authority.
/// let a = Matrix::from_rows(&[&[2.0]]);
/// let b = Matrix::from_rows(&[&[1.0]]);
/// let design = dlqr(&a, &b, &Matrix::identity(1), &Matrix::identity(1))?;
/// // The closed loop a - b*k must be stable.
/// assert!((2.0 - design.gain[(0, 0)]).abs() < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn dlqr(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<LqrDesign, ControlError> {
    let n = a.rows();
    let m = b.cols();
    if !a.is_square()
        || b.rows() != n
        || q.rows() != n
        || !q.is_square()
        || r.rows() != m
        || !r.is_square()
    {
        return Err(ControlError::DimensionMismatch {
            context: "LQR requires A (n x n), B (n x m), Q (n x n), R (m x m)",
        });
    }
    let mut p = q.clone();
    let a_t = a.transpose();
    let b_t = b.transpose();
    let max_iterations = 20_000;
    for iter in 0..max_iterations {
        // K = (R + B' P B)^-1 B' P A
        let bpb = &(&b_t * &p) * b;
        let denom = r + &bpb;
        let bpa = &(&b_t * &p) * a;
        let k = solve(&denom, &bpa)?;
        // P_next = Q + A' P A - A' P B K
        let apa = &(&a_t * &p) * a;
        let apb = &(&a_t * &p) * b;
        let mut p_next = &(q + &apa) - &(&apb * &k);
        p_next.symmetrize();
        if !p_next.is_finite() || p_next.norm_max() > 1e200 {
            return Err(ControlError::NumericalFailure {
                context: "Riccati iteration diverged (system may not be stabilizable)",
            });
        }
        let delta = (&p_next - &p).norm_max();
        p = p_next;
        if delta < 1e-11 * (1.0 + p.norm_max()) {
            let bpb = &(&b_t * &p) * b;
            let denom = r + &bpb;
            let bpa = &(&b_t * &p) * a;
            let gain = solve(&denom, &bpa)?;
            return Ok(LqrDesign {
                gain,
                riccati: p,
                iterations: iter + 1,
            });
        }
    }
    Err(ControlError::NumericalFailure {
        context: "Riccati iteration did not converge",
    })
}

/// Weights used when designing the controller of a control application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerWeights {
    /// Weight on the plant state (applied as `q * C' C + small * I`).
    pub state_weight: f64,
    /// Weight on the control effort.
    pub input_weight: f64,
}

impl Default for ControllerWeights {
    fn default() -> Self {
        // A fairly aggressive design: the loop then tolerates latencies of
        // about one sampling period and jitters of a large fraction of a
        // period, which is the regime the paper's stability curves live in.
        ControllerWeights {
            state_weight: 1.0,
            input_weight: 0.01,
        }
    }
}

/// A sampled-data state-feedback controller for a plant, designed on the
/// delay-augmented model.
#[derive(Debug, Clone)]
pub struct SampledController {
    /// The feedback gain over the augmented state
    /// `[x; u(k-1); ...; u(k-d)]`.
    pub gain: Matrix,
    /// The sampling period, in seconds.
    pub period: f64,
    /// The constant delay the design assumed, in seconds.
    pub design_delay: f64,
    /// The number of stored past inputs of the augmented model.
    pub stored_inputs: usize,
}

impl SampledController {
    /// Designs an LQR controller for `plant` sampled at `period` seconds,
    /// assuming a constant sensor-to-actuator delay `design_delay`, on an
    /// augmented model that stores `stored_inputs` past control values.
    ///
    /// # Errors
    ///
    /// Propagates discretization and Riccati errors.
    pub fn design(
        plant: &Plant,
        period: f64,
        design_delay: f64,
        stored_inputs: usize,
        weights: ControllerWeights,
    ) -> Result<Self, ControlError> {
        let sys = augmented_system(plant, period, design_delay, stored_inputs)?;
        let dim = sys.dimension();
        let n = sys.plant_order;
        // Q: output weighting on the plant states, tiny regularization on the
        // stored-input states so the Riccati iteration stays well posed.
        let ctc = &plant.c().transpose() * plant.c();
        let mut q = Matrix::zeros(dim, dim);
        for i in 0..n {
            for j in 0..n {
                q[(i, j)] = weights.state_weight * ctc[(i, j)];
            }
            q[(i, i)] += 1e-6;
        }
        for i in n..dim {
            q[(i, i)] = 1e-6;
        }
        let r = Matrix::identity(sys.inputs).scale(weights.input_weight);
        let design = dlqr(&sys.a, &sys.b, &q, &r)?;
        Ok(SampledController {
            gain: design.gain,
            period,
            design_delay,
            stored_inputs,
        })
    }

    /// The closed-loop transition matrix `A_d - B_d K` of this controller on
    /// the given augmented system.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] if the system's
    /// augmentation does not match the controller's.
    pub fn closed_loop(&self, system: &AugmentedSystem) -> Result<Matrix, ControlError> {
        if system.dimension() != self.gain.cols() {
            return Err(ControlError::DimensionMismatch {
                context: "augmented system dimension does not match controller gain",
            });
        }
        Ok(&system.a - &(&system.b * &self.gain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::spectral_radius;

    #[test]
    fn scalar_lqr_matches_hand_solution() {
        // a = 1, b = 1, q = 1, r = 1: DARE gives p = (1 + sqrt(5))/2 * ... ;
        // verify via the fixed-point property instead of a closed form.
        let a = Matrix::from_rows(&[&[1.0]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let q = Matrix::identity(1);
        let r = Matrix::identity(1);
        let d = dlqr(&a, &b, &q, &r).unwrap();
        let p = d.riccati[(0, 0)];
        // DARE: p = q + a p a - (a p b)^2 / (r + b p b)
        let residual = 1.0 + p - p * p / (1.0 + p) - p;
        assert!(residual.abs() < 1e-9);
        // Closed loop |a - b k| < 1.
        assert!((1.0 - d.gain[(0, 0)]).abs() < 1.0);
    }

    #[test]
    fn lqr_stabilizes_unstable_plants() {
        for plant in Plant::benchmark_database() {
            let ctrl =
                SampledController::design(&plant, 0.01, 0.0, 1, ControllerWeights::default())
                    .unwrap();
            let sys = augmented_system(&plant, 0.01, 0.0, 1).unwrap();
            let acl = ctrl.closed_loop(&sys).unwrap();
            let rho = spectral_radius(&acl).unwrap();
            assert!(
                rho < 1.0,
                "{} closed loop must be Schur stable, rho = {rho}",
                plant.name()
            );
        }
    }

    #[test]
    fn lqr_with_design_delay_still_stabilizes() {
        let plant = Plant::dc_servo();
        let h = 0.006;
        let tau = 0.003;
        let ctrl =
            SampledController::design(&plant, h, tau, 2, ControllerWeights::default()).unwrap();
        let sys = augmented_system(&plant, h, tau, 2).unwrap();
        let acl = ctrl.closed_loop(&sys).unwrap();
        assert!(spectral_radius(&acl).unwrap() < 1.0);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let plant = Plant::dc_servo();
        let ctrl =
            SampledController::design(&plant, 0.01, 0.0, 1, ControllerWeights::default()).unwrap();
        let sys = augmented_system(&plant, 0.01, 0.0, 3).unwrap();
        assert!(ctrl.closed_loop(&sys).is_err());
    }

    #[test]
    fn dlqr_rejects_bad_dimensions() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 1);
        assert!(dlqr(&a, &b, &Matrix::identity(2), &Matrix::identity(1)).is_err());
    }

    #[test]
    fn dlqr_fails_for_unstabilizable_system() {
        // Unstable mode with zero input authority.
        let a = Matrix::diagonal(&[2.0, 0.5]);
        let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
        assert!(dlqr(&a, &b, &Matrix::identity(2), &Matrix::identity(1)).is_err());
    }
}
