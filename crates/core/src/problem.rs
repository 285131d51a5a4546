//! The synthesis problem: control applications over a TSN network.

use tsn_control::PiecewiseLinearBound;
use tsn_net::{NodeId, NodeKind, Time, Topology};

use crate::SynthesisError;

/// One control application `Lambda_i`: a sensor `S_i` periodically samples a
/// plant and sends a message over the network to its controller `C_i`
/// (Section II-C of the paper).
#[derive(Debug, Clone)]
pub struct ControlApplication {
    /// Human-readable name.
    pub name: String,
    /// The sensor end station (message source).
    pub sensor: NodeId,
    /// The controller end station (message destination).
    pub controller: NodeId,
    /// Sampling period `h_i`.
    pub period: Time,
    /// Frame size of each message, in bytes.
    pub frame_bytes: u32,
    /// The piecewise-linear stability lower bound of Eq. (2)/(3) (latencies
    /// and bounds in seconds).
    pub stability: PiecewiseLinearBound,
}

impl ControlApplication {
    /// The stability margin `delta_i` (Eq. 3) for the given latency and
    /// jitter, in seconds.
    pub fn stability_margin(&self, latency: Time, jitter: Time) -> f64 {
        self.stability
            .stability_margin(latency.as_secs_f64(), jitter.as_secs_f64())
    }

    /// Whether the application is worst-case stable under the given latency
    /// and jitter (Eq. 10).
    pub fn is_stable(&self, latency: Time, jitter: Time) -> bool {
        self.stability_margin(latency, jitter) >= 0.0
    }
}

/// The joint routing and scheduling problem (Section III of the paper): the
/// network topology, the per-switch forwarding delay `sd`, and the set of
/// control applications to be scheduled and routed.
///
/// # Example
///
/// ```
/// use tsn_control::PiecewiseLinearBound;
/// use tsn_net::{builders, LinkSpec, Time};
/// use tsn_synthesis::SynthesisProblem;
///
/// # fn main() -> Result<(), tsn_synthesis::SynthesisError> {
/// let net = builders::figure1_example(LinkSpec::automotive_10mbps());
/// let mut problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
/// problem.add_application(
///     "steering",
///     net.sensors[0],
///     net.controllers[0],
///     Time::from_millis(20),
///     1500,
///     PiecewiseLinearBound::single_segment(1.53, 0.02778),
/// )?;
/// assert_eq!(problem.applications().len(), 1);
/// assert_eq!(problem.hyperperiod(), Time::from_millis(20));
/// assert_eq!(problem.message_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SynthesisProblem {
    topology: Topology,
    forwarding_delay: Time,
    applications: Vec<ControlApplication>,
    /// The lcm of every application's period, kept as applications are
    /// added (zero while there are none).
    hyperperiod: Time,
}

impl SynthesisProblem {
    /// Creates a problem over a topology with the given switch forwarding
    /// delay `sd`.
    pub fn new(topology: Topology, forwarding_delay: Time) -> Self {
        SynthesisProblem {
            topology,
            forwarding_delay,
            applications: Vec::new(),
            hyperperiod: Time::ZERO,
        }
    }

    /// Adds a control application.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InvalidProblem`] if the endpoints do not
    /// exist or have the wrong kind, the period / frame size is not
    /// positive, or the period would take the hyper-period past the
    /// nanosecond range of [`Time`].
    pub fn add_application(
        &mut self,
        name: impl Into<String>,
        sensor: NodeId,
        controller: NodeId,
        period: Time,
        frame_bytes: u32,
        stability: PiecewiseLinearBound,
    ) -> Result<usize, SynthesisError> {
        let name = name.into();
        if period <= Time::ZERO {
            return Err(SynthesisError::InvalidProblem {
                what: format!("application {name} has a non-positive period"),
            });
        }
        if frame_bytes == 0 {
            return Err(SynthesisError::InvalidProblem {
                what: format!("application {name} has an empty frame"),
            });
        }
        let check_node = |id: NodeId, expected: NodeKind| -> Result<(), SynthesisError> {
            if id.index() >= self.topology.node_count() {
                return Err(SynthesisError::InvalidProblem {
                    what: format!("application {name}: node {id} does not exist"),
                });
            }
            if self.topology.node(id).kind() != expected {
                return Err(SynthesisError::InvalidProblem {
                    what: format!("application {name}: node {id} is not a {expected:?}"),
                });
            }
            Ok(())
        };
        check_node(sensor, NodeKind::Sensor)?;
        check_node(controller, NodeKind::Controller)?;
        let hyperperiod = if self.applications.is_empty() {
            period
        } else {
            self.hyperperiod
                .checked_lcm(period)
                .ok_or_else(|| SynthesisError::InvalidProblem {
                    what: format!(
                        "application {name}: the lcm of the hyper-period {} and the \
                         period {} overflows",
                        self.hyperperiod, period
                    ),
                })?
        };
        self.hyperperiod = hyperperiod;
        self.applications.push(ControlApplication {
            name,
            sensor,
            controller,
            period,
            frame_bytes,
            stability,
        });
        Ok(self.applications.len() - 1)
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The switch forwarding delay `sd`.
    pub fn forwarding_delay(&self) -> Time {
        self.forwarding_delay
    }

    /// The control applications.
    pub fn applications(&self) -> &[ControlApplication] {
        &self.applications
    }

    /// The hyper-period: the least common multiple of all application
    /// periods (zero if there are no applications).
    pub fn hyperperiod(&self) -> Time {
        self.hyperperiod
    }

    /// The total number of message instances inside one hyper-period — the
    /// size of the set `M` that must be scheduled and routed.
    pub fn message_count(&self) -> usize {
        let hyper = self.hyperperiod();
        if hyper == Time::ZERO {
            return 0;
        }
        self.applications
            .iter()
            .map(|a| (hyper / a.period) as usize)
            .sum()
    }

    /// Basic sanity validation: at least one application and a connected
    /// topology.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InvalidProblem`] describing the first issue
    /// found.
    pub fn validate(&self) -> Result<(), SynthesisError> {
        if self.applications.is_empty() {
            return Err(SynthesisError::InvalidProblem {
                what: "the problem has no control applications".to_string(),
            });
        }
        if !self.topology.is_connected() {
            return Err(SynthesisError::InvalidProblem {
                what: "the topology is not connected".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_net::{builders, LinkSpec};

    fn bound() -> PiecewiseLinearBound {
        PiecewiseLinearBound::single_segment(1.5, 0.030)
    }

    fn figure1_problem() -> (SynthesisProblem, Vec<NodeId>, Vec<NodeId>) {
        let net = builders::figure1_example(LinkSpec::automotive_10mbps());
        let problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
        (problem, net.sensors, net.controllers)
    }

    #[test]
    fn hyperperiod_and_message_count() {
        let (mut p, sensors, controllers) = figure1_problem();
        p.add_application(
            "a0",
            sensors[0],
            controllers[0],
            Time::from_millis(20),
            1500,
            bound(),
        )
        .unwrap();
        p.add_application(
            "a1",
            sensors[1],
            controllers[1],
            Time::from_millis(50),
            1500,
            bound(),
        )
        .unwrap();
        p.add_application(
            "a2",
            sensors[2],
            controllers[2],
            Time::from_millis(40),
            1500,
            bound(),
        )
        .unwrap();
        assert_eq!(p.hyperperiod(), Time::from_millis(200));
        // 10 + 4 + 5 messages in 200 ms.
        assert_eq!(p.message_count(), 19);
        p.validate().unwrap();
    }

    #[test]
    fn a_period_that_overflows_the_hyperperiod_is_refused() {
        // Three pairwise coprime periods near 10 ms: their lcm is about
        // 1.0e21 ns, past i64::MAX (9.2e18). It used to wrap in release
        // builds and panic in debug ones.
        let (mut p, sensors, controllers) = figure1_problem();
        let periods = [10_000_001, 10_000_003, 10_000_007].map(Time::from_nanos);
        for i in 0..2 {
            p.add_application(
                format!("a{i}"),
                sensors[i],
                controllers[i],
                periods[i],
                1500,
                bound(),
            )
            .unwrap();
        }
        let two = Time::from_nanos(10_000_001 * 10_000_003);
        assert_eq!(p.hyperperiod(), two);
        let err = p
            .add_application("a2", sensors[2], controllers[2], periods[2], 1500, bound())
            .unwrap_err();
        let SynthesisError::InvalidProblem { what } = &err else {
            panic!("expected InvalidProblem, got {err:?}");
        };
        assert!(
            what.contains(&two.to_string()) && what.contains(&periods[2].to_string()),
            "the error must name both periods: {what}"
        );
        // The refused application leaves the problem as it was.
        assert_eq!(p.applications().len(), 2);
        assert_eq!(p.hyperperiod(), two);
    }

    #[test]
    fn invalid_applications_rejected() {
        let (mut p, sensors, controllers) = figure1_problem();
        // Zero period.
        assert!(p
            .add_application("bad", sensors[0], controllers[0], Time::ZERO, 1500, bound())
            .is_err());
        // Swapped endpoints (controller given as sensor).
        assert!(p
            .add_application(
                "bad",
                controllers[0],
                sensors[0],
                Time::from_millis(10),
                1500,
                bound()
            )
            .is_err());
        // Unknown node.
        assert!(p
            .add_application(
                "bad",
                NodeId::new(200),
                controllers[0],
                Time::from_millis(10),
                1500,
                bound()
            )
            .is_err());
        // Zero-size frame.
        assert!(p
            .add_application(
                "bad",
                sensors[0],
                controllers[0],
                Time::from_millis(10),
                0,
                bound()
            )
            .is_err());
        // Empty problems do not validate.
        assert!(p.validate().is_err());
    }

    #[test]
    fn stability_margin_delegation() {
        let (mut p, sensors, controllers) = figure1_problem();
        let idx = p
            .add_application(
                "a0",
                sensors[0],
                controllers[0],
                Time::from_millis(20),
                1500,
                PiecewiseLinearBound::single_segment(1.53, 0.02778),
            )
            .unwrap();
        let app = &p.applications()[idx];
        assert!(app.is_stable(Time::from_micros(19_980), Time::from_micros(10)));
        assert!(!app.is_stable(Time::from_micros(4_810), Time::from_micros(15_100)));
        assert!(app.stability_margin(Time::from_millis(5), Time::ZERO) > 0.0);
    }
}
