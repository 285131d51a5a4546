//! Worst-case stability analysis of a networked control loop under latency
//! and jitter, stability-curve generation and the piecewise-linear lower
//! bound consumed by the synthesis (Section IV of the paper).
//!
//! The paper uses the MATLAB *Jitter Margin* toolbox, which provides
//! sufficient conditions for worst-case stability of a sampled-data loop
//! whose sensor-to-actuator delay has a constant part `L` (latency) and a
//! time-varying part bounded by `J` (jitter). This module provides an
//! open-source substitute with the same interface contract:
//!
//! 1. the closed loop is discretized for constant delays sampled from
//!    `[L, L + J]`;
//! 2. a common quadratic Lyapunov certificate over that family proves
//!    exponential stability for *arbitrarily* time-varying delays inside the
//!    interval (a standard sufficient condition for switched linear systems);
//! 3. sweeping `L` and binary-searching the largest certified `J` yields the
//!    stability curve, which is then lower-bounded by the piecewise-linear
//!    segments `L + alpha_j * J <= beta_j` of Eq. (2)/(3).
//!
//! The analysis is *sufficient*: it never certifies an unstable
//! configuration, but may be conservative. This matches the role the Jitter
//! Margin toolbox plays in the paper.

use crate::discretize::{augmented_system, required_stored_inputs};
use crate::error::ControlError;
use crate::linalg::{is_schur_stable, switched_system_stable, Matrix};
use crate::lqr::{ControllerWeights, SampledController};
use crate::plant::Plant;

/// Options controlling the jitter-margin stability analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterAnalysisOptions {
    /// The constant delay assumed when designing the LQR controller, in
    /// seconds.
    pub design_delay: f64,
    /// LQR weights used for the controller design.
    pub weights: ControllerWeights,
    /// The largest total delay (`latency + jitter`) the analysis considers,
    /// expressed as a multiple of the sampling period.
    pub horizon_periods: f64,
    /// Number of constant-delay samples taken inside `[L, L + J]` when
    /// searching for a common Lyapunov certificate.
    pub delay_grid_points: usize,
    /// Required spectral-radius margin for constant-delay stability.
    pub stability_margin: f64,
    /// Maximum switching-product length explored by the joint-spectral-radius
    /// certificate (see [`switched_system_stable`]). Larger values are less
    /// conservative but more expensive.
    pub max_product_length: usize,
}

impl Default for JitterAnalysisOptions {
    fn default() -> Self {
        JitterAnalysisOptions {
            design_delay: 0.0,
            weights: ControllerWeights::default(),
            horizon_periods: 3.0,
            delay_grid_points: 3,
            stability_margin: 1e-9,
            max_product_length: 8,
        }
    }
}

/// A closed-loop sampled-data model of one control application: the plant,
/// its sampling period and an LQR controller designed on the delay-augmented
/// discretization.
///
/// # Example
///
/// ```
/// use tsn_control::{ClosedLoopModel, JitterAnalysisOptions, Plant};
///
/// # fn main() -> Result<(), tsn_control::ControlError> {
/// let model = ClosedLoopModel::new(Plant::dc_servo(), 0.006, JitterAnalysisOptions::default())?;
/// assert!(model.is_stable(0.0, 0.0)?);
/// assert!(!model.is_stable(1.0, 0.0)?); // one full second of delay at h = 6 ms
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoopModel {
    plant: Plant,
    period: f64,
    controller: SampledController,
    options: JitterAnalysisOptions,
    stored_inputs: usize,
}

impl ClosedLoopModel {
    /// Designs the controller and prepares the model for analysis.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidParameter`] for a non-positive period
    /// and propagates controller-design failures.
    pub fn new(
        plant: Plant,
        period: f64,
        options: JitterAnalysisOptions,
    ) -> Result<Self, ControlError> {
        if period <= 0.0 || !period.is_finite() {
            return Err(ControlError::InvalidParameter {
                context: "sampling period must be positive and finite",
            });
        }
        let horizon = options.horizon_periods.max(1.0) * period;
        let stored_inputs = required_stored_inputs(period, horizon);
        let controller = SampledController::design(
            &plant,
            period,
            options.design_delay,
            stored_inputs,
            options.weights,
        )?;
        Ok(ClosedLoopModel {
            plant,
            period,
            controller,
            options,
            stored_inputs,
        })
    }

    /// The plant of this loop.
    pub fn plant(&self) -> &Plant {
        &self.plant
    }

    /// The sampling period, in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The largest total delay (latency + jitter) the analysis can certify,
    /// in seconds.
    pub fn horizon(&self) -> f64 {
        self.stored_inputs as f64 * self.period
    }

    /// The closed-loop transition matrix for a constant sensor-to-actuator
    /// delay `tau` (seconds).
    ///
    /// # Errors
    ///
    /// Returns an error if `tau` exceeds the analysis horizon.
    pub fn closed_loop_matrix(&self, tau: f64) -> Result<Matrix, ControlError> {
        let sys = augmented_system(&self.plant, self.period, tau, self.stored_inputs)?;
        self.controller.closed_loop(&sys)
    }

    /// Whether the loop is stable for a *constant* delay `tau`.
    ///
    /// # Errors
    ///
    /// Propagates discretization errors for out-of-range delays.
    pub fn is_stable_constant_delay(&self, tau: f64) -> Result<bool, ControlError> {
        let acl = self.closed_loop_matrix(tau)?;
        is_schur_stable(&acl, self.options.stability_margin)
    }

    /// Whether the loop is certified stable for a delay with constant part
    /// `latency` and arbitrary time variation within `[latency, latency +
    /// jitter]`.
    ///
    /// Returns `false` both when the loop is genuinely unstable and when the
    /// (sufficient) certificate cannot be found, and also when the total
    /// delay exceeds the analysis horizon.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidParameter`] for negative arguments.
    pub fn is_stable(&self, latency: f64, jitter: f64) -> Result<bool, ControlError> {
        if latency < 0.0 || jitter < 0.0 || !latency.is_finite() || !jitter.is_finite() {
            return Err(ControlError::InvalidParameter {
                context: "latency and jitter must be non-negative and finite",
            });
        }
        if latency + jitter > self.horizon() + 1e-12 {
            return Ok(false);
        }
        if jitter <= 1e-12 {
            return self.is_stable_constant_delay(latency);
        }
        let points = self.options.delay_grid_points.max(2);
        let mut family = Vec::with_capacity(points);
        for i in 0..points {
            let tau = latency + jitter * i as f64 / (points - 1) as f64;
            family.push(self.closed_loop_matrix(tau)?);
        }
        switched_system_stable(&family, self.options.max_product_length)
    }

    /// The largest jitter certified stable at the given latency, found by
    /// binary search down to `resolution` seconds. Returns `None` when not
    /// even `jitter = 0` can be certified at this latency.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn max_jitter(&self, latency: f64, resolution: f64) -> Result<Option<f64>, ControlError> {
        if !self.is_stable(latency, 0.0)? {
            return Ok(None);
        }
        let mut lo = 0.0;
        let mut hi = (self.horizon() - latency).max(0.0);
        if hi <= 0.0 {
            return Ok(Some(0.0));
        }
        if self.is_stable(latency, hi)? {
            return Ok(Some(hi));
        }
        while hi - lo > resolution.max(1e-9) {
            let mid = 0.5 * (lo + hi);
            if self.is_stable(latency, mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Some(lo))
    }
}

/// One point of a stability curve: the largest certified jitter at a given
/// latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// The constant part of the delay, in seconds.
    pub latency: f64,
    /// The largest certified jitter at that latency, in seconds.
    pub max_jitter: f64,
}

/// The stability curve of a control application (the green curve of the
/// paper's Figure 3): for every latency, the maximum tolerable response-time
/// jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityCurve {
    points: Vec<CurvePoint>,
    period: f64,
}

/// Options for stability-curve generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveOptions {
    /// Spacing of the latency grid, as a fraction of the sampling period.
    pub latency_step_fraction: f64,
    /// Jitter binary-search resolution, as a fraction of the sampling period.
    pub jitter_resolution_fraction: f64,
    /// Analysis options for the underlying closed-loop model.
    pub analysis: JitterAnalysisOptions,
}

impl Default for CurveOptions {
    fn default() -> Self {
        CurveOptions {
            latency_step_fraction: 0.125,
            jitter_resolution_fraction: 0.02,
            analysis: JitterAnalysisOptions::default(),
        }
    }
}

impl StabilityCurve {
    /// Computes the stability curve of `plant` sampled at `period` seconds.
    ///
    /// The curve is swept from zero latency upwards until constant-delay
    /// stability is lost, and is forced to be monotonically non-increasing
    /// (a larger latency never tolerates more jitter), which also guards the
    /// downstream piecewise-linear fit.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::UnstableNominalSystem`] if the loop cannot be
    /// certified stable even at zero latency and zero jitter.
    pub fn compute(
        plant: &Plant,
        period: f64,
        options: CurveOptions,
    ) -> Result<Self, ControlError> {
        let model = ClosedLoopModel::new(plant.clone(), period, options.analysis)?;
        if !model.is_stable(0.0, 0.0)? {
            return Err(ControlError::UnstableNominalSystem);
        }
        let step = (options.latency_step_fraction * period).max(1e-6);
        let resolution = (options.jitter_resolution_fraction * period).max(1e-9);
        let mut points = Vec::new();
        let mut latency = 0.0;
        let mut running_min = f64::INFINITY;
        while latency <= model.horizon() + 1e-12 {
            match model.max_jitter(latency, resolution)? {
                Some(j) => {
                    running_min = running_min.min(j);
                    points.push(CurvePoint {
                        latency,
                        max_jitter: running_min,
                    });
                }
                None => break,
            }
            latency += step;
        }
        if points.is_empty() {
            return Err(ControlError::UnstableNominalSystem);
        }
        Ok(StabilityCurve { points, period })
    }

    /// The points of the curve, ordered by increasing latency.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// The sampling period the curve was computed for, in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The largest latency that is still stable with zero jitter, in seconds.
    pub fn max_latency(&self) -> f64 {
        self.points.last().map(|p| p.latency).unwrap_or(0.0)
    }

    /// Linearly interpolated maximum jitter at the given latency, `None`
    /// beyond the end of the curve.
    pub fn max_jitter_at(&self, latency: f64) -> Option<f64> {
        if latency < 0.0 || self.points.is_empty() {
            return None;
        }
        if latency > self.max_latency() + 1e-12 {
            return None;
        }
        let mut prev = self.points[0];
        if latency <= prev.latency {
            return Some(prev.max_jitter);
        }
        for &p in &self.points[1..] {
            if latency <= p.latency {
                let t = (latency - prev.latency) / (p.latency - prev.latency);
                return Some(prev.max_jitter + t * (p.max_jitter - prev.max_jitter));
            }
            prev = p;
        }
        Some(prev.max_jitter)
    }
}

/// One segment of the piecewise-linear stability lower bound: the constraint
/// `L + alpha * J <= beta` valid while `L <= latency_limit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilitySegment {
    /// Jitter weight `alpha_j >= 0` of this segment.
    pub alpha: f64,
    /// Bound `beta_j >= 0` of this segment, in seconds.
    pub beta: f64,
    /// Upper latency limit `L^(j)` of this segment, in seconds.
    pub latency_limit: f64,
}

/// The piecewise-linear lower bound of a stability curve (the red curve of
/// the paper's Figure 3), i.e. the data `alpha_j, beta_j, L^(j)` of Eq. (2)
/// and (3).
///
/// # Example
///
/// ```
/// use tsn_control::PiecewiseLinearBound;
///
/// // Control application 1 of the paper's Table I: period 20 ms,
/// // alpha = 1.53, beta = 27.78 ms.
/// let bound = PiecewiseLinearBound::single_segment(1.53, 0.02778);
/// assert!(bound.is_stable(0.01998, 0.00001));
/// assert!(!bound.is_stable(0.02778, 0.001));
/// let margin = bound.stability_margin(0.004_81, 0.015_10);
/// assert!(margin < 0.0, "the deadline-only schedule of Table I is unstable");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinearBound {
    segments: Vec<StabilitySegment>,
}

impl PiecewiseLinearBound {
    /// Builds a bound from explicit segments.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidParameter`] if the segment list is
    /// empty, any `alpha`/`beta` is negative or non-finite, or the latency
    /// limits are not strictly increasing.
    pub fn from_segments(segments: Vec<StabilitySegment>) -> Result<Self, ControlError> {
        if segments.is_empty() {
            return Err(ControlError::InvalidParameter {
                context: "a piecewise linear bound needs at least one segment",
            });
        }
        let mut prev_limit = 0.0;
        for (i, s) in segments.iter().enumerate() {
            if !(s.alpha.is_finite() && s.beta.is_finite() && s.latency_limit.is_finite()) {
                return Err(ControlError::InvalidParameter {
                    context: "stability segment parameters must be finite",
                });
            }
            if s.alpha < 0.0 || s.beta < 0.0 {
                return Err(ControlError::InvalidParameter {
                    context: "stability segment alpha and beta must be non-negative",
                });
            }
            if s.latency_limit <= prev_limit && !(i == 0 && s.latency_limit > 0.0) {
                return Err(ControlError::InvalidParameter {
                    context: "stability segment latency limits must be strictly increasing",
                });
            }
            prev_limit = s.latency_limit;
        }
        Ok(PiecewiseLinearBound { segments })
    }

    /// A bound consisting of a single segment `L + alpha * J <= beta`,
    /// valid for `0 <= L <= beta` — the form used for every application of
    /// the paper's Table I.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` or `beta` is negative or non-finite.
    pub fn single_segment(alpha: f64, beta: f64) -> Self {
        PiecewiseLinearBound::from_segments(vec![StabilitySegment {
            alpha,
            beta,
            latency_limit: beta,
        }])
        .expect("single segment parameters must be valid")
    }

    /// Fits a conservative piecewise-linear lower bound with `segment_count`
    /// segments to a stability curve.
    ///
    /// Every segment is anchored on the curve values at its two ends and then
    /// shifted down until it lower-bounds every curve sample inside the
    /// segment, so the resulting bound never certifies a point the curve
    /// itself would reject.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidParameter`] if the curve is degenerate
    /// or `segment_count` is zero.
    pub fn from_curve(curve: &StabilityCurve, segment_count: usize) -> Result<Self, ControlError> {
        if segment_count == 0 {
            return Err(ControlError::InvalidParameter {
                context: "segment count must be positive",
            });
        }
        let l_end = curve.max_latency();
        if l_end <= 0.0 {
            return Err(ControlError::InvalidParameter {
                context: "stability curve is degenerate (no stable latency range)",
            });
        }
        let mut segments = Vec::with_capacity(segment_count);
        for s in 0..segment_count {
            let la = l_end * s as f64 / segment_count as f64;
            let lb = l_end * (s + 1) as f64 / segment_count as f64;
            let ja = curve.max_jitter_at(la).unwrap_or(0.0);
            let jb = curve.max_jitter_at(lb).unwrap_or(0.0);
            // Chord through the two end points, expressed as L + alpha J = beta.
            let alpha = if ja - jb > 1e-12 {
                ((lb - la) / (ja - jb)).max(1e-6)
            } else {
                // Flat part of the curve: a unit trade-off is always sound
                // after the shift below.
                1.0
            };
            let mut beta = la + alpha * ja;
            // Shift down so the line never exceeds the curve inside [la, lb].
            for p in curve
                .points()
                .iter()
                .filter(|p| p.latency >= la - 1e-12 && p.latency <= lb + 1e-12)
            {
                beta = beta.min(p.latency + alpha * p.max_jitter);
            }
            beta = beta.max(0.0);
            segments.push(StabilitySegment {
                alpha,
                beta,
                latency_limit: lb,
            });
        }
        PiecewiseLinearBound::from_segments(segments)
    }

    /// The segments of the bound, ordered by increasing latency limit.
    pub fn segments(&self) -> &[StabilitySegment] {
        &self.segments
    }

    /// The largest latency covered by the bound, in seconds.
    pub fn max_latency(&self) -> f64 {
        self.segments.last().map(|s| s.latency_limit).unwrap_or(0.0)
    }

    /// The segment applicable to a given latency, if any.
    pub fn segment_for(&self, latency: f64) -> Option<&StabilitySegment> {
        if latency < 0.0 {
            return None;
        }
        self.segments
            .iter()
            .find(|s| latency <= s.latency_limit + 1e-12)
    }

    /// The largest jitter the bound certifies at the given latency, `None`
    /// when the latency exceeds the bound's range.
    pub fn max_jitter(&self, latency: f64) -> Option<f64> {
        self.segment_for(latency)
            .map(|s| ((s.beta - latency) / s.alpha.max(1e-12)).max(0.0))
    }

    /// The stability margin `delta_i` of Eq. (3): `beta_j - (L + alpha_j J)`
    /// for the applicable segment, or negative infinity when the latency is
    /// outside every segment.
    pub fn stability_margin(&self, latency: f64, jitter: f64) -> f64 {
        match self.segment_for(latency) {
            Some(s) => s.beta - (latency + s.alpha * jitter),
            None => f64::NEG_INFINITY,
        }
    }

    /// Whether the bound certifies stability at the given latency and
    /// jitter (`delta_i >= 0`, Eq. (10)).
    pub fn is_stable(&self, latency: f64, jitter: f64) -> bool {
        self.stability_margin(latency, jitter) >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servo_model() -> ClosedLoopModel {
        ClosedLoopModel::new(Plant::dc_servo(), 0.006, JitterAnalysisOptions::default()).unwrap()
    }

    #[test]
    fn nominal_loop_is_stable_and_huge_delay_is_not() {
        let model = servo_model();
        assert!(model.is_stable(0.0, 0.0).unwrap());
        assert!(model.is_stable(0.001, 0.0).unwrap());
        // Beyond the analysis horizon the answer is a conservative "no".
        assert!(!model.is_stable(10.0, 0.0).unwrap());
    }

    #[test]
    fn stability_is_monotone_in_jitter() {
        let model = servo_model();
        let latency = 0.002;
        let max_j = model.max_jitter(latency, 1e-4).unwrap().unwrap();
        assert!(max_j > 0.0, "the DC servo must tolerate some jitter");
        assert!(model.is_stable(latency, max_j * 0.5).unwrap());
        // Well beyond the certified maximum the certificate must disappear.
        assert!(!model.is_stable(latency, (max_j * 3.0).min(0.017)).unwrap());
    }

    #[test]
    fn invalid_arguments_rejected() {
        let model = servo_model();
        assert!(model.is_stable(-0.001, 0.0).is_err());
        assert!(model.is_stable(0.0, -0.001).is_err());
        assert!(
            ClosedLoopModel::new(Plant::dc_servo(), 0.0, JitterAnalysisOptions::default()).is_err()
        );
    }

    #[test]
    fn stability_curve_is_monotone_and_nontrivial() {
        let curve =
            StabilityCurve::compute(&Plant::dc_servo(), 0.006, CurveOptions::default()).unwrap();
        assert!(curve.points().len() > 3, "curve must have several points");
        assert!(
            curve.max_latency() >= 0.003,
            "servo must tolerate at least half a period of latency"
        );
        assert!(curve.points()[0].max_jitter > 0.0);
        for w in curve.points().windows(2) {
            assert!(w[0].latency < w[1].latency);
            assert!(
                w[0].max_jitter + 1e-12 >= w[1].max_jitter,
                "curve must be non-increasing"
            );
        }
        // Interpolation works inside the range and fails outside.
        assert!(curve.max_jitter_at(curve.max_latency() / 2.0).is_some());
        assert!(curve.max_jitter_at(curve.max_latency() + 1.0).is_none());
        assert!(curve.max_jitter_at(-0.1).is_none());
    }

    #[test]
    fn piecewise_bound_lower_bounds_the_curve() {
        let curve =
            StabilityCurve::compute(&Plant::dc_servo(), 0.006, CurveOptions::default()).unwrap();
        let bound = PiecewiseLinearBound::from_curve(&curve, 3).unwrap();
        assert_eq!(bound.segments().len(), 3);
        for p in curve.points() {
            if let Some(j_bound) = bound.max_jitter(p.latency) {
                assert!(
                    j_bound <= p.max_jitter + 1e-9,
                    "bound must never certify more jitter than the curve at L = {}",
                    p.latency
                );
            }
        }
        // The bound is useful: it certifies a decent share of the curve at L = 0.
        let j0_curve = curve.points()[0].max_jitter;
        let j0_bound = bound.max_jitter(0.0).unwrap();
        assert!(j0_bound > 0.05 * j0_curve);
    }

    #[test]
    fn single_segment_matches_table_one_semantics() {
        // Application 2 of Table I: period 40 ms, alpha 2.27, beta 15.70 ms.
        let bound = PiecewiseLinearBound::single_segment(2.27, 0.01570);
        // Stability-aware result: latency 15.68 ms, jitter 0 -> stable.
        assert!(bound.is_stable(0.01568, 0.0));
        // Deadline result: latency 16.02 ms, jitter 22.12 ms -> unstable.
        assert!(!bound.is_stable(0.01602, 0.02212));
        assert!(bound.stability_margin(0.01602, 0.02212) < 0.0);
        assert_eq!(bound.stability_margin(1.0, 0.0), f64::NEG_INFINITY);
        assert_eq!(bound.max_jitter(1.0), None);
        let j = bound.max_jitter(0.0).unwrap();
        assert!((j - 0.01570 / 2.27).abs() < 1e-9);
    }

    #[test]
    fn from_segments_validation() {
        assert!(PiecewiseLinearBound::from_segments(vec![]).is_err());
        let bad_alpha = StabilitySegment {
            alpha: -1.0,
            beta: 1.0,
            latency_limit: 1.0,
        };
        assert!(PiecewiseLinearBound::from_segments(vec![bad_alpha]).is_err());
        let s1 = StabilitySegment {
            alpha: 1.0,
            beta: 1.0,
            latency_limit: 0.5,
        };
        let s2 = StabilitySegment {
            alpha: 1.0,
            beta: 1.0,
            latency_limit: 0.4,
        };
        assert!(PiecewiseLinearBound::from_segments(vec![s1, s2]).is_err());
        assert!(PiecewiseLinearBound::from_segments(vec![s1]).is_ok());
    }

    #[test]
    fn margin_decreases_with_latency_and_jitter() {
        let bound = PiecewiseLinearBound::single_segment(1.53, 0.02778);
        let m1 = bound.stability_margin(0.005, 0.001);
        let m2 = bound.stability_margin(0.010, 0.001);
        let m3 = bound.stability_margin(0.010, 0.005);
        assert!(m1 > m2);
        assert!(m2 > m3);
    }

    #[test]
    fn unstable_nominal_design_is_reported() {
        // A plant sampled far too slowly cannot be stabilized: the inverted
        // pendulum with a 2 s sampling period.
        let result =
            StabilityCurve::compute(&Plant::inverted_pendulum(), 2.0, CurveOptions::default());
        assert!(matches!(
            result,
            Err(ControlError::UnstableNominalSystem) | Err(ControlError::NumericalFailure { .. })
        ));
    }
}
