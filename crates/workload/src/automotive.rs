//! The reconstructed automotive case study of the paper's Table I.
//!
//! The original example comes from General Motors: 20 sensors (camera,
//! radar, lidar) and electronic control units communicating over 8 Ethernet
//! switches at 10 Mbit/s with 1500-byte frames (`ld = 1.2 ms`,
//! `sd = 5 µs`), for a total of 106 messages in the 200 ms hyper-period.
//! The paper publishes the parameters (period, alpha, beta) of five of the
//! twenty applications; the remaining fifteen are reconstructed here with
//! periods chosen so the message count is exactly 106 and with stability
//! parameters drawn from the same ranges.

use tsn_control::PiecewiseLinearBound;
use tsn_net::{builders, LinkSpec, Time};
use tsn_synthesis::{SynthesisError, SynthesisProblem};

/// The five applications published in Table I: (period ms, alpha, beta ms).
pub const TABLE1_APPS: [(i64, f64, f64); 5] = [
    (20, 1.53, 27.78),
    (40, 2.27, 15.70),
    (50, 1.07, 80.71),
    (40, 2.27, 15.70),
    (50, 1.07, 80.71),
];

/// The reconstructed fifteen remaining applications: (period ms, alpha,
/// beta ms). Periods are chosen so the total message count over the 200 ms
/// hyper-period is exactly 106 (28 messages come from the published five).
const RECONSTRUCTED_APPS: [(i64, f64, f64); 15] = [
    (20, 1.53, 27.78),
    (20, 1.60, 24.00),
    (20, 1.45, 30.00),
    (20, 1.53, 27.78),
    (40, 2.27, 15.70),
    (40, 2.00, 22.00),
    (40, 2.27, 15.70),
    (40, 1.80, 26.00),
    (50, 1.07, 80.71),
    (50, 1.20, 60.00),
    (50, 1.07, 80.71),
    (100, 1.20, 70.00),
    (100, 1.10, 90.00),
    (200, 1.10, 120.00),
    (200, 1.05, 150.00),
];

/// A fully specified automotive case study: the problem plus the indexes of
/// the five applications whose parameters the paper publishes.
#[derive(Debug, Clone)]
pub struct AutomotiveCaseStudy {
    /// The synthesis problem (topology + 20 applications).
    pub problem: SynthesisProblem,
    /// Indexes of the five applications reported in Table I, in table order.
    pub table1_apps: Vec<usize>,
}

/// Builds the automotive case study.
///
/// # Errors
///
/// Propagates problem-construction errors (which would indicate a bug in the
/// reconstruction).
pub fn automotive_case_study() -> Result<AutomotiveCaseStudy, SynthesisError> {
    let spec = LinkSpec::automotive_10mbps();
    let network = builders::automotive_backbone(20, 20, spec);
    let mut problem = SynthesisProblem::new(network.topology, Time::from_micros(5));
    let mut table1_apps = Vec::with_capacity(TABLE1_APPS.len());
    let sensor_names = ["camera", "radar", "lidar", "camera", "radar"];
    for (i, &(period_ms, alpha, beta_ms)) in TABLE1_APPS.iter().enumerate() {
        let idx = problem.add_application(
            format!("table1-{}-{}", i + 1, sensor_names[i]),
            network.sensors[i],
            network.controllers[i],
            Time::from_millis(period_ms),
            1500,
            PiecewiseLinearBound::single_segment(alpha, beta_ms / 1000.0),
        )?;
        table1_apps.push(idx);
    }
    for (i, &(period_ms, alpha, beta_ms)) in RECONSTRUCTED_APPS.iter().enumerate() {
        let slot = TABLE1_APPS.len() + i;
        problem.add_application(
            format!("ecu-{}", slot + 1),
            network.sensors[slot],
            network.controllers[slot],
            Time::from_millis(period_ms),
            1500,
            PiecewiseLinearBound::single_segment(alpha, beta_ms / 1000.0),
        )?;
    }
    Ok(AutomotiveCaseStudy {
        problem,
        table1_apps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_matches_paper_dimensions() {
        let study = automotive_case_study().unwrap();
        let p = &study.problem;
        assert_eq!(p.applications().len(), 20);
        assert_eq!(p.topology().switches().len(), 8);
        assert_eq!(p.hyperperiod(), Time::from_millis(200));
        assert_eq!(
            p.message_count(),
            106,
            "the paper schedules 106 messages in the 200 ms hyper-period"
        );
        assert_eq!(study.table1_apps.len(), 5);
        // Transmission delay on every link is the paper's 1.2 ms.
        let link = p.topology().links().next().unwrap();
        assert_eq!(link.transmission_delay(1500), Time::from_micros(1200));
        p.validate().unwrap();
    }

    #[test]
    fn table1_parameters_are_faithful() {
        let study = automotive_case_study().unwrap();
        for (pos, &idx) in study.table1_apps.iter().enumerate() {
            let app = &study.problem.applications()[idx];
            let (period_ms, alpha, beta_ms) = TABLE1_APPS[pos];
            assert_eq!(app.period, Time::from_millis(period_ms));
            let segment = app.stability.segments()[0];
            assert!((segment.alpha - alpha).abs() < 1e-12);
            assert!((segment.beta - beta_ms / 1000.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deadline_style_outcomes_of_table1_are_reproduced() {
        // The paper's Table I deadline column: three of the five published
        // applications end up unstable. Check that the published latencies
        // and jitters indeed violate / satisfy the published bounds.
        let study = automotive_case_study().unwrap();
        let deadline_results_ms = [
            (4.81, 15.10),  // app 1 -> unstable in the paper (highlighted)
            (16.02, 22.12), // app 2 -> unstable
            (17.22, 30.13), // app 3 -> stable
            (30.83, 7.70),  // app 4 -> unstable
            (13.57, 36.34), // app 5 -> stable
        ];
        let expected_stable = [false, false, true, false, true];
        for ((&idx, &(lat, jit)), &stable) in study
            .table1_apps
            .iter()
            .zip(deadline_results_ms.iter())
            .zip(expected_stable.iter())
        {
            let app = &study.problem.applications()[idx];
            let is_stable = app.is_stable(
                Time::from_secs_f64(lat / 1000.0),
                Time::from_secs_f64(jit / 1000.0),
            );
            assert_eq!(
                is_stable, stable,
                "application {} stability classification mismatch",
                app.name
            );
        }
    }
}
