//! Continuous-time LTI plant models.
//!
//! The paper's experiments draw control applications "from a database with
//! inverted pendulums, ball and beam processes, DC servos, and harmonic
//! oscillators" (Section VI), the classic benchmark set of Åström &
//! Wittenmark. This module provides those plants plus a constructor for
//! arbitrary state-space models.

use crate::error::ControlError;
use crate::linalg::{expm, spectral_radius, Matrix};

/// A continuous-time linear time-invariant plant
/// `x'(t) = A x(t) + B u(t)`, `y(t) = C x(t)` (Eq. 1 of the paper).
///
/// # Example
///
/// ```
/// use tsn_control::Plant;
///
/// let servo = Plant::dc_servo();
/// assert_eq!(servo.order(), 2);
/// assert_eq!(servo.inputs(), 1);
/// assert!(!servo.is_open_loop_unstable());
///
/// let pendulum = Plant::inverted_pendulum();
/// assert!(pendulum.is_open_loop_unstable());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Plant {
    name: String,
    a: Matrix,
    b: Matrix,
    c: Matrix,
}

impl Plant {
    /// Creates a plant from explicit state-space matrices.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] if `A` is not square or
    /// `B`/`C` dimensions do not match `A`.
    pub fn new(
        name: impl Into<String>,
        a: Matrix,
        b: Matrix,
        c: Matrix,
    ) -> Result<Self, ControlError> {
        if !a.is_square() {
            return Err(ControlError::DimensionMismatch {
                context: "plant A matrix must be square",
            });
        }
        if b.rows() != a.rows() {
            return Err(ControlError::DimensionMismatch {
                context: "plant B matrix must have as many rows as A",
            });
        }
        if c.cols() != a.rows() {
            return Err(ControlError::DimensionMismatch {
                context: "plant C matrix must have as many columns as A",
            });
        }
        Ok(Plant {
            name: name.into(),
            a,
            b,
            c,
        })
    }

    /// The DC servo `G(s) = 1000 / (s^2 + s)` used for Figure 3 of the paper.
    pub fn dc_servo() -> Self {
        Plant::new(
            "dc-servo",
            Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -1.0]]),
            Matrix::from_rows(&[&[0.0], &[1000.0]]),
            Matrix::from_rows(&[&[1.0, 0.0]]),
        )
        .expect("static model is well formed")
    }

    /// A linearized inverted pendulum `G(s) = k / (s^2 - w^2)` — open-loop
    /// unstable.
    pub fn inverted_pendulum() -> Self {
        // w^2 = g / l with l = 0.5 m.
        let w2 = 9.81 / 0.5;
        Plant::new(
            "inverted-pendulum",
            Matrix::from_rows(&[&[0.0, 1.0], &[w2, 0.0]]),
            Matrix::from_rows(&[&[0.0], &[w2]]),
            Matrix::from_rows(&[&[1.0, 0.0]]),
        )
        .expect("static model is well formed")
    }

    /// A ball-and-beam process, modeled as a double integrator
    /// `G(s) = k / s^2`.
    pub fn ball_and_beam() -> Self {
        Plant::new(
            "ball-and-beam",
            Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]),
            Matrix::from_rows(&[&[0.0], &[7.0]]),
            Matrix::from_rows(&[&[1.0, 0.0]]),
        )
        .expect("static model is well formed")
    }

    /// A harmonic oscillator `G(s) = w^2 / (s^2 + w^2)` — marginally stable
    /// open loop.
    pub fn harmonic_oscillator() -> Self {
        let w = 10.0;
        Plant::new(
            "harmonic-oscillator",
            Matrix::from_rows(&[&[0.0, 1.0], &[-w * w, 0.0]]),
            Matrix::from_rows(&[&[0.0], &[w * w]]),
            Matrix::from_rows(&[&[1.0, 0.0]]),
        )
        .expect("static model is well formed")
    }

    /// A first-order lag `G(s) = k / (s + a)` — the simplest stable plant,
    /// useful in tests.
    pub fn first_order_lag(a: f64, k: f64) -> Self {
        Plant::new(
            "first-order-lag",
            Matrix::from_rows(&[&[-a]]),
            Matrix::from_rows(&[&[k]]),
            Matrix::from_rows(&[&[1.0]]),
        )
        .expect("static model is well formed")
    }

    /// The benchmark plant database of the paper's experiments, in a fixed
    /// order: DC servo, inverted pendulum, ball and beam, harmonic
    /// oscillator.
    pub fn benchmark_database() -> Vec<Plant> {
        vec![
            Plant::dc_servo(),
            Plant::inverted_pendulum(),
            Plant::ball_and_beam(),
            Plant::harmonic_oscillator(),
        ]
    }

    /// The human-readable name of this plant.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state matrix `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The input matrix `B`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The output matrix `C`.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// The number of states.
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// The number of control inputs.
    pub fn inputs(&self) -> usize {
        self.b.cols()
    }

    /// The number of measured outputs.
    pub fn outputs(&self) -> usize {
        self.c.rows()
    }

    /// Returns `true` if the open-loop plant has a strictly unstable mode
    /// (a continuous-time eigenvalue with positive real part), detected
    /// through the spectral radius of `e^{A}` exceeding one.
    pub fn is_open_loop_unstable(&self) -> bool {
        match expm(&self.a) {
            // rho(e^A) = e^{max Re(lambda)}; > 1 iff some Re(lambda) > 0.
            Ok(e) => spectral_radius(&e).map(|r| r > 1.0 + 1e-9).unwrap_or(true),
            Err(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_contains_the_four_benchmark_plants() {
        let db = Plant::benchmark_database();
        assert_eq!(db.len(), 4);
        let names: Vec<_> = db.iter().map(|p| p.name().to_string()).collect();
        assert!(names.contains(&"dc-servo".to_string()));
        assert!(names.contains(&"inverted-pendulum".to_string()));
        assert!(names.contains(&"ball-and-beam".to_string()));
        assert!(names.contains(&"harmonic-oscillator".to_string()));
        for p in &db {
            assert_eq!(p.order(), 2);
            assert_eq!(p.inputs(), 1);
            assert_eq!(p.outputs(), 1);
        }
    }

    #[test]
    fn open_loop_stability_classification() {
        assert!(!Plant::dc_servo().is_open_loop_unstable());
        assert!(Plant::inverted_pendulum().is_open_loop_unstable());
        assert!(!Plant::ball_and_beam().is_open_loop_unstable());
        assert!(!Plant::harmonic_oscillator().is_open_loop_unstable());
        assert!(!Plant::first_order_lag(1.0, 2.0).is_open_loop_unstable());
        // An explicitly unstable first-order system.
        let unstable = Plant::new(
            "unstable",
            Matrix::from_rows(&[&[0.5]]),
            Matrix::from_rows(&[&[1.0]]),
            Matrix::from_rows(&[&[1.0]]),
        )
        .unwrap();
        assert!(unstable.is_open_loop_unstable());
    }

    #[test]
    fn dimension_validation() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 1);
        let c = Matrix::zeros(1, 2);
        assert!(Plant::new("bad", a.clone(), b, c.clone()).is_err());
        let b = Matrix::zeros(2, 1);
        let c_bad = Matrix::zeros(1, 3);
        assert!(Plant::new("bad", a.clone(), b.clone(), c_bad).is_err());
        let non_square = Matrix::zeros(2, 3);
        assert!(Plant::new("bad", non_square, b.clone(), c.clone()).is_err());
        assert!(Plant::new("good", a, b, c).is_ok());
    }
}
