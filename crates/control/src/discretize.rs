//! Sampled-data discretization of a plant under a (possibly multi-period)
//! constant input delay, and construction of the delay-augmented state-space
//! model used for stability analysis.
//!
//! Following Åström & Wittenmark (*Computer-Controlled Systems*), a plant
//! `x' = A x + B u` sampled with period `h` whose control input reaches the
//! actuator `tau` seconds after the corresponding sample obeys
//!
//! ```text
//! x(k+1) = Phi x(k) + Gamma0 u(k - q) + Gamma1 u(k - q - 1)
//! ```
//!
//! where `tau = q h + r` with `0 <= r < h`,
//! `Phi = e^{A h}`, `Gamma0 = int_0^{h-r} e^{A s} ds B` and
//! `Gamma1 = int_{h-r}^{h} e^{A s} ds B`.

use crate::error::ControlError;
use crate::linalg::{expm_with_integral, Matrix};
use crate::plant::Plant;

/// The zero-order-hold discretization of a plant for one sampling period
/// under a constant input delay.
#[derive(Debug, Clone)]
pub struct DelayedDiscretization {
    /// State transition matrix `Phi = e^{A h}`.
    pub phi: Matrix,
    /// Input matrix multiplying `u(k - q)` (the newer of the two active
    /// control values).
    pub gamma0: Matrix,
    /// Input matrix multiplying `u(k - q - 1)` (the older control value).
    pub gamma1: Matrix,
    /// Number of whole sampling periods contained in the delay.
    pub whole_periods: usize,
    /// The fractional part of the delay, in seconds (`0 <= r < h`).
    pub fractional_delay: f64,
    /// The sampling period, in seconds.
    pub period: f64,
}

/// Discretizes `plant` with sampling period `h` (seconds) under a constant
/// sensor-to-actuator delay `tau` (seconds).
///
/// # Errors
///
/// Returns [`ControlError::InvalidParameter`] if `h <= 0` or `tau < 0`, and
/// numerical errors from the matrix exponential.
///
/// # Example
///
/// ```
/// use tsn_control::{discretize_with_delay, Plant};
///
/// # fn main() -> Result<(), tsn_control::ControlError> {
/// let servo = Plant::dc_servo();
/// let d = discretize_with_delay(&servo, 0.006, 0.002)?;
/// assert_eq!(d.whole_periods, 0);
/// assert!((d.fractional_delay - 0.002).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn discretize_with_delay(
    plant: &Plant,
    h: f64,
    tau: f64,
) -> Result<DelayedDiscretization, ControlError> {
    if h <= 0.0 || !h.is_finite() {
        return Err(ControlError::InvalidParameter {
            context: "sampling period must be positive and finite",
        });
    }
    if tau < 0.0 || !tau.is_finite() {
        return Err(ControlError::InvalidParameter {
            context: "delay must be non-negative and finite",
        });
    }
    let q = (tau / h).floor() as usize;
    let r = tau - q as f64 * h;
    // Phi over a full period and the integral over the full period.
    let (phi, gamma_full) = expm_with_integral(plant.a(), plant.b(), h)?;
    // Integral over the first (h - r) seconds of the period: this is the
    // contribution of the newer input u(k - q), which is active during the
    // *last* h - r seconds of the interval (see module docs).
    let (_, gamma0) = expm_with_integral(plant.a(), plant.b(), h - r)?;
    let gamma1 = &gamma_full - &gamma0;
    Ok(DelayedDiscretization {
        phi,
        gamma0,
        gamma1,
        whole_periods: q,
        fractional_delay: r,
        period: h,
    })
}

/// A delay-augmented discrete-time model
/// `z(k+1) = A_d z(k) + B_d u(k)` with state
/// `z(k) = [x(k); u(k-1); u(k-2); ...; u(k-d)]`.
///
/// The number of stored past inputs `d` is fixed independently of the actual
/// delay (as long as `d` covers it), so that closed-loop matrices built for
/// *different* delays within an analysis interval all share the same state
/// dimension and can be compared by a common Lyapunov certificate.
#[derive(Debug, Clone)]
pub struct AugmentedSystem {
    /// The augmented state-transition matrix.
    pub a: Matrix,
    /// The augmented input matrix.
    pub b: Matrix,
    /// The plant order (number of physical states).
    pub plant_order: usize,
    /// The number of control inputs.
    pub inputs: usize,
    /// The number of stored past inputs.
    pub stored_inputs: usize,
}

impl AugmentedSystem {
    /// Total dimension of the augmented state.
    pub fn dimension(&self) -> usize {
        self.plant_order + self.stored_inputs * self.inputs
    }
}

/// Builds the delay-augmented model of `plant` sampled at `h` seconds with a
/// constant delay `tau`, storing `stored_inputs` past control values.
///
/// # Errors
///
/// Returns [`ControlError::InvalidParameter`] if the delay does not fit in
/// the requested augmentation (`tau > stored_inputs * h`) or the arguments
/// are out of range, plus numerical errors from discretization.
pub fn augmented_system(
    plant: &Plant,
    h: f64,
    tau: f64,
    stored_inputs: usize,
) -> Result<AugmentedSystem, ControlError> {
    let disc = discretize_with_delay(plant, h, tau)?;
    let n = plant.order();
    let m = plant.inputs();
    let d = stored_inputs;
    let q = disc.whole_periods;
    // u(k - q) must be either the fresh input (q = 0) or a stored one
    // (q <= d); u(k - q - 1) must be stored unless its coefficient vanishes.
    let gamma1_is_zero = disc.gamma1.norm_max() < 1e-15;
    if q > d || (q == d && !gamma1_is_zero) {
        return Err(ControlError::InvalidParameter {
            context: "delay exceeds the augmentation horizon (stored_inputs * period)",
        });
    }
    let dim = n + d * m;
    let mut a = Matrix::zeros(dim, dim);
    let mut b = Matrix::zeros(dim, m);
    // Plant rows.
    a.set_block(0, 0, &disc.phi);
    if q == 0 {
        // Newer input is the fresh u(k).
        b.set_block(0, 0, &disc.gamma0);
    } else {
        // Newer input is stored slot q (u(k - q)).
        a.set_block(0, n + (q - 1) * m, &disc.gamma0);
    }
    if !gamma1_is_zero {
        // Older input u(k - q - 1) is stored slot q + 1.
        a.set_block(0, n + q * m, &disc.gamma1);
    }
    if d > 0 {
        // Shift register: slot 1 of the next state is u(k).
        b.set_block(n, 0, &Matrix::identity(m));
        // Slot j+1 of the next state is slot j of the current state.
        for j in 1..d {
            a.set_block(n + j * m, n + (j - 1) * m, &Matrix::identity(m));
        }
    }
    Ok(AugmentedSystem {
        a,
        b,
        plant_order: n,
        inputs: m,
        stored_inputs: d,
    })
}

/// The smallest number of stored past inputs that covers a delay of `tau`
/// seconds at sampling period `h`.
pub fn required_stored_inputs(h: f64, tau: f64) -> usize {
    if tau <= 0.0 {
        1
    } else {
        (tau / h).ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::expm;

    #[test]
    fn zero_delay_matches_plain_zoh() {
        let plant = Plant::dc_servo();
        let h = 0.006;
        let d = discretize_with_delay(&plant, h, 0.0).unwrap();
        assert_eq!(d.whole_periods, 0);
        assert_eq!(d.fractional_delay, 0.0);
        // Gamma1 must vanish and Phi must equal e^{A h}.
        assert!(d.gamma1.norm_max() < 1e-14);
        let phi = expm(&plant.a().scale(h)).unwrap();
        assert!((&d.phi - &phi).norm_max() < 1e-12);
    }

    #[test]
    fn gamma_split_sums_to_full_integral() {
        let plant = Plant::dc_servo();
        let h = 0.006;
        let full = discretize_with_delay(&plant, h, 0.0).unwrap();
        for tau in [0.001, 0.003, 0.0059] {
            let d = discretize_with_delay(&plant, h, tau).unwrap();
            let sum = &d.gamma0 + &d.gamma1;
            assert!(
                (&sum - &full.gamma0).norm_max() < 1e-12,
                "Gamma0 + Gamma1 must equal the full-period integral"
            );
        }
    }

    #[test]
    fn multi_period_delay_decomposition() {
        let plant = Plant::ball_and_beam();
        let h = 0.01;
        let d = discretize_with_delay(&plant, h, 0.025).unwrap();
        assert_eq!(d.whole_periods, 2);
        assert!((d.fractional_delay - 0.005).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let plant = Plant::dc_servo();
        assert!(discretize_with_delay(&plant, 0.0, 0.0).is_err());
        assert!(discretize_with_delay(&plant, -0.01, 0.0).is_err());
        assert!(discretize_with_delay(&plant, 0.01, -0.001).is_err());
        assert!(augmented_system(&plant, 0.01, 0.05, 2).is_err());
    }

    #[test]
    fn augmented_dimensions() {
        let plant = Plant::dc_servo();
        let sys = augmented_system(&plant, 0.006, 0.002, 2).unwrap();
        assert_eq!(sys.plant_order, 2);
        assert_eq!(sys.inputs, 1);
        assert_eq!(sys.stored_inputs, 2);
        assert_eq!(sys.dimension(), 4);
        assert_eq!(sys.a.rows(), 4);
        assert_eq!(sys.b.rows(), 4);
        assert_eq!(sys.b.cols(), 1);
    }

    #[test]
    fn augmented_simulation_matches_direct_recursion() {
        // Simulate a few steps of the augmented model and compare against the
        // direct recursion x(k+1) = Phi x + Gamma0 u(k-q) + Gamma1 u(k-q-1).
        let plant = Plant::dc_servo();
        let h = 0.006;
        let tau = 0.004;
        let disc = discretize_with_delay(&plant, h, tau).unwrap();
        let sys = augmented_system(&plant, h, tau, 2).unwrap();

        let inputs = [1.0, -0.5, 0.25, 0.75, -1.0, 0.1];
        // Direct recursion.
        let mut x = Matrix::column(&[1.0, 0.0]);
        let mut x_direct = Vec::new();
        for k in 0..inputs.len() {
            let u_new = if k >= disc.whole_periods {
                inputs[k - disc.whole_periods]
            } else {
                0.0
            };
            let u_old = if k > disc.whole_periods {
                inputs[k - disc.whole_periods - 1]
            } else {
                0.0
            };
            x = &(&(&disc.phi * &x) + &disc.gamma0.scale(u_new)) + &disc.gamma1.scale(u_old);
            x_direct.push(x.clone());
        }
        // Augmented recursion.
        let mut z = Matrix::column(&[1.0, 0.0, 0.0, 0.0]);
        for (k, &u) in inputs.iter().enumerate() {
            z = &(&sys.a * &z) + &sys.b.scale(u);
            let x_aug = z.block(0, 0, 2, 1);
            assert!(
                (&x_aug - &x_direct[k]).norm_max() < 1e-10,
                "state mismatch at step {k}"
            );
        }
    }

    #[test]
    fn required_stored_inputs_covers_delay() {
        assert_eq!(required_stored_inputs(0.01, 0.0), 1);
        assert_eq!(required_stored_inputs(0.01, 0.004), 1);
        assert_eq!(required_stored_inputs(0.01, 0.01), 1);
        assert_eq!(required_stored_inputs(0.01, 0.011), 2);
        assert_eq!(required_stored_inputs(0.01, 0.035), 4);
    }

    #[test]
    fn exact_multiple_period_delay_fits_in_its_augmentation() {
        // tau = h exactly: q = 1, r = 0, Gamma1 = 0, so d = 1 suffices.
        let plant = Plant::dc_servo();
        let sys = augmented_system(&plant, 0.01, 0.01, 1).unwrap();
        assert_eq!(sys.dimension(), 3);
    }
}
