//! Random control-application generation.
//!
//! The paper's experiments "randomly choose control applications from a
//! database with inverted pendulums, ball and beam processes, DC servos, and
//! harmonic oscillators". This module reproduces that database and derives a
//! stability bound for every generated application — either directly from the
//! jitter-margin analysis of [`tsn_control`], or as a fast synthetic bound
//! with the same structure (a single `L + alpha J <= beta` segment) whose
//! parameters are drawn from the ranges observed in the paper's Table I.

use rand::Rng;
use tsn_control::{ControlError, CurveOptions, PiecewiseLinearBound, Plant, StabilityCurve};
use tsn_net::Time;

/// The benchmark plant a control application regulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlantKind {
    /// DC servo `1000 / (s^2 + s)`.
    DcServo,
    /// Linearized inverted pendulum (open-loop unstable).
    InvertedPendulum,
    /// Ball and beam (double integrator).
    BallAndBeam,
    /// Harmonic oscillator.
    HarmonicOscillator,
}

impl PlantKind {
    /// All benchmark plants, in a fixed order.
    pub const ALL: [PlantKind; 4] = [
        PlantKind::DcServo,
        PlantKind::InvertedPendulum,
        PlantKind::BallAndBeam,
        PlantKind::HarmonicOscillator,
    ];

    /// The state-space model of this plant.
    pub fn plant(self) -> Plant {
        match self {
            PlantKind::DcServo => Plant::dc_servo(),
            PlantKind::InvertedPendulum => Plant::inverted_pendulum(),
            PlantKind::BallAndBeam => Plant::ball_and_beam(),
            PlantKind::HarmonicOscillator => Plant::harmonic_oscillator(),
        }
    }
}

/// The specification of one generated control application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Name of the application.
    pub name: String,
    /// The plant it controls.
    pub plant: PlantKind,
    /// Sampling period.
    pub period: Time,
    /// Frame size in bytes.
    pub frame_bytes: u32,
    /// The stability bound used by the synthesizer.
    pub stability: PiecewiseLinearBound,
}

impl AppSpec {
    /// Generates a random application with a *synthetic* stability bound
    /// (fast, used for the large scalability sweeps of Figures 4–7).
    pub fn random_synthetic<R: Rng + ?Sized>(index: usize, period: Time, rng: &mut R) -> Self {
        let plant = PlantKind::ALL[rng.gen_range(0..PlantKind::ALL.len())];
        AppSpec {
            name: format!("app{index}-{plant:?}"),
            plant,
            period,
            frame_bytes: 1500,
            stability: synthetic_bound(period, rng),
        }
    }

    /// Generates a random application whose stability bound is computed from
    /// the plant's jitter-margin stability curve (slower, but fully grounded
    /// in the control analysis).
    ///
    /// Returns the analysis error if the curve cannot be computed for the
    /// drawn plant/period combination (e.g. a DC servo sampled at 2 ms,
    /// whose delay range exceeds the augmentation horizon).
    pub fn random_analyzed<R: Rng + ?Sized>(
        index: usize,
        period: Time,
        rng: &mut R,
    ) -> Result<Self, ControlError> {
        let plant = PlantKind::ALL[rng.gen_range(0..PlantKind::ALL.len())];
        Self::analyzed(index, plant, period)
    }

    /// The application of [`random_analyzed`](AppSpec::random_analyzed)
    /// once its plant is drawn.
    fn analyzed(index: usize, plant: PlantKind, period: Time) -> Result<Self, ControlError> {
        let curve = StabilityCurve::compute(
            &plant.plant(),
            period.as_secs_f64(),
            CurveOptions::default(),
        )?;
        Ok(AppSpec {
            name: format!("app{index}-{plant:?}"),
            plant,
            period,
            frame_bytes: 1500,
            stability: PiecewiseLinearBound::from_curve(&curve, 3)?,
        })
    }
}

/// Draws a synthetic single-segment stability bound `L + alpha J <= beta`
/// for an application of the given period.
///
/// The parameter ranges follow the paper's Table I: `alpha` between 1 and
/// 2.5, and `beta` between 60% and 160% of the period, so that some
/// applications can only be stabilized with small jitter while others are
/// lenient.
pub fn synthetic_bound<R: Rng + ?Sized>(period: Time, rng: &mut R) -> PiecewiseLinearBound {
    let alpha = rng.gen_range(1.0..2.5);
    let beta = period.as_secs_f64() * rng.gen_range(0.6..1.6);
    PiecewiseLinearBound::single_segment(alpha, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synthetic_bounds_are_valid_and_period_scaled() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let period = Time::from_millis(20);
            let bound = synthetic_bound(period, &mut rng);
            assert_eq!(bound.segments().len(), 1);
            let s = bound.segments()[0];
            assert!(s.alpha >= 1.0 && s.alpha <= 2.5);
            assert!(s.beta >= 0.012 && s.beta <= 0.032);
            // Zero latency, zero jitter is always stable.
            assert!(bound.is_stable(0.0, 0.0));
        }
    }

    #[test]
    fn random_synthetic_apps_cover_the_database() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..40 {
            let spec = AppSpec::random_synthetic(i, Time::from_millis(40), &mut rng);
            seen.insert(spec.plant);
            assert_eq!(spec.period, Time::from_millis(40));
            assert_eq!(spec.frame_bytes, 1500);
        }
        assert_eq!(seen.len(), 4, "all four benchmark plants must appear");
    }

    #[test]
    fn analyzed_app_produces_usable_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = AppSpec::random_analyzed(0, Time::from_millis(10), &mut rng)
            .expect("every plant has a curve at 10 ms");
        // Whatever the plant, the bound must accept the zero-delay point and
        // have a positive latency range.
        assert!(spec.stability.is_stable(0.0, 0.0));
        assert!(spec.stability.max_latency() > 0.0);
    }

    #[test]
    fn an_analysis_error_is_returned_not_replaced() {
        // The DC servo's curve at 2 ms cannot be computed. The error comes
        // back instead of a synthetic bound standing in for the plant's.
        let err = AppSpec::analyzed(0, PlantKind::DcServo, Time::from_millis(2))
            .expect_err("the DC servo has no curve at 2 ms");
        assert!(
            err.to_string()
                .contains("delay exceeds the augmentation horizon"),
            "{err}"
        );
    }
}
