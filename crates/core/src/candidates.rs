//! Message-instance expansion and candidate-route generation.

use tsn_net::{Route, Time};

use crate::{RouteStrategy, SynthesisError, SynthesisProblem};

/// One message instance `m_{i,j}`: the `j`-th message of application `i`
/// inside the hyper-period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageInstance {
    /// Index of the application in [`SynthesisProblem::applications`].
    pub app: usize,
    /// Instance number `j` within the hyper-period.
    pub instance: usize,
    /// Release time of the message at its sensor: `j * h_i`.
    pub release: Time,
}

/// Expands the applications of a problem into the full message set `M` of
/// one hyper-period, ordered by release time (then by application index).
pub fn expand_messages(problem: &SynthesisProblem) -> Vec<MessageInstance> {
    let hyper = problem.hyperperiod();
    let mut messages = Vec::with_capacity(problem.message_count());
    for (app_idx, app) in problem.applications().iter().enumerate() {
        let count = if hyper == Time::ZERO {
            0
        } else {
            hyper / app.period
        };
        for j in 0..count {
            messages.push(MessageInstance {
                app: app_idx,
                instance: j as usize,
                release: app.period * j,
            });
        }
    }
    messages.sort_by_key(|m| (m.release, m.app));
    messages
}

/// The candidate routes of every application, generated according to a
/// [`RouteStrategy`].
#[derive(Debug, Clone)]
pub struct RouteCandidates {
    per_app: Vec<Vec<Route>>,
}

impl RouteCandidates {
    /// Generates candidate routes for every application of the problem.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::NoRoute`] if some application has no route
    /// at all under the strategy.
    pub fn generate(
        problem: &SynthesisProblem,
        strategy: RouteStrategy,
    ) -> Result<Self, SynthesisError> {
        let topology = problem.topology();
        let mut per_app = Vec::with_capacity(problem.applications().len());
        for app in problem.applications() {
            let routes = match strategy {
                RouteStrategy::KShortest(k) => {
                    topology.k_shortest_routes(app.sensor, app.controller, k.max(1))
                }
                RouteStrategy::AllSimple {
                    max_hops,
                    max_routes,
                } => topology.all_simple_routes(app.sensor, app.controller, max_hops, max_routes),
            }
            .map_err(|_| SynthesisError::NoRoute {
                application: app.name.clone(),
            })?;
            if routes.is_empty() {
                return Err(SynthesisError::NoRoute {
                    application: app.name.clone(),
                });
            }
            per_app.push(routes);
        }
        Ok(RouteCandidates { per_app })
    }

    /// Builds a candidate set from explicit per-application route lists.
    ///
    /// This is the hook for callers that post-process generated candidates —
    /// e.g. the online engine filters out routes crossing failed links
    /// before admission. The routes are taken as-is; each application must
    /// keep at least one route for a later synthesis over it to succeed.
    pub fn from_routes(per_app: Vec<Vec<Route>>) -> Self {
        RouteCandidates { per_app }
    }

    /// The candidate routes of one application.
    pub fn for_app(&self, app: usize) -> &[Route] {
        &self.per_app[app]
    }

    /// The number of applications covered.
    pub fn app_count(&self) -> usize {
        self.per_app.len()
    }

    /// The total number of candidate routes across all applications.
    pub fn total_routes(&self) -> usize {
        self.per_app.iter().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec};

    fn problem() -> SynthesisProblem {
        let net = builders::figure1_example(LinkSpec::automotive_10mbps());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        let bound = PiecewiseLinearBound::single_segment(1.5, 0.050);
        p.add_application(
            "a0",
            net.sensors[0],
            net.controllers[0],
            Time::from_millis(20),
            1500,
            bound.clone(),
        )
        .unwrap();
        p.add_application(
            "a1",
            net.sensors[1],
            net.controllers[1],
            Time::from_millis(40),
            1500,
            bound,
        )
        .unwrap();
        p
    }

    #[test]
    fn message_expansion_is_sorted_and_complete() {
        let p = problem();
        let messages = expand_messages(&p);
        // Hyper-period 40 ms: app0 has 2 instances, app1 has 1.
        assert_eq!(messages.len(), 3);
        assert_eq!(p.message_count(), 3);
        assert!(messages.windows(2).all(|w| w[0].release <= w[1].release));
        let app0: Vec<_> = messages.iter().filter(|m| m.app == 0).collect();
        assert_eq!(app0.len(), 2);
        assert_eq!(app0[0].release, Time::ZERO);
        assert_eq!(app0[1].release, Time::from_millis(20));
        assert_eq!(app0[1].instance, 1);
    }

    #[test]
    fn k_shortest_candidates() {
        let p = problem();
        let candidates = RouteCandidates::generate(&p, RouteStrategy::KShortest(3)).unwrap();
        assert_eq!(candidates.app_count(), 2);
        for app in 0..2 {
            let routes = candidates.for_app(app);
            assert!(!routes.is_empty() && routes.len() <= 3);
            for r in routes {
                assert_eq!(r.source(), p.applications()[app].sensor);
                assert_eq!(r.destination(), p.applications()[app].controller);
            }
        }
        assert!(candidates.total_routes() >= 2);
    }

    #[test]
    fn all_simple_candidates_superset_of_k_shortest() {
        let p = problem();
        let k = RouteCandidates::generate(&p, RouteStrategy::KShortest(2)).unwrap();
        let all = RouteCandidates::generate(
            &p,
            RouteStrategy::AllSimple {
                max_hops: 12,
                max_routes: 500,
            },
        )
        .unwrap();
        for app in 0..2 {
            assert!(all.for_app(app).len() >= k.for_app(app).len());
            for r in k.for_app(app) {
                assert!(all.for_app(app).contains(r));
            }
        }
    }

    #[test]
    fn unroutable_application_is_reported() {
        // Build a disconnected problem: sensor attached to an isolated switch.
        use tsn_net::{NodeKind, Topology};
        let mut topo = Topology::new();
        let s = topo.add_node("s", NodeKind::Sensor);
        let sw1 = topo.add_node("sw1", NodeKind::Switch);
        let sw2 = topo.add_node("sw2", NodeKind::Switch);
        let c = topo.add_node("c", NodeKind::Controller);
        topo.connect(s, sw1, LinkSpec::fast_ethernet()).unwrap();
        topo.connect(c, sw2, LinkSpec::fast_ethernet()).unwrap();
        let mut p = SynthesisProblem::new(topo, Time::from_micros(5));
        p.add_application(
            "lonely",
            s,
            c,
            Time::from_millis(10),
            100,
            PiecewiseLinearBound::single_segment(1.0, 0.02),
        )
        .unwrap();
        let err = RouteCandidates::generate(&p, RouteStrategy::KShortest(2)).unwrap_err();
        assert!(matches!(err, SynthesisError::NoRoute { .. }));
    }
}
