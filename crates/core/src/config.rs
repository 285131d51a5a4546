//! Synthesis configuration: route strategy, constraint mode, incremental
//! stages and solver limits.

use std::time::Duration;

use tsn_net::Time;

/// How candidate routes are generated for each control application.
///
/// The paper's basic formulation considers *all* possible routes; the *route
/// subset* heuristic (Section V-C1) restricts each application to its first
/// `K` shortest routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStrategy {
    /// The first `k` shortest routes per application (the route-subset
    /// heuristic with designer-provided `K`).
    KShortest(usize),
    /// All simple routes up to the given hop bound (the basic formulation).
    AllSimple {
        /// Maximum number of hops (links) per route.
        max_hops: usize,
        /// Safety cap on the number of enumerated routes per application.
        max_routes: usize,
    },
}

impl Default for RouteStrategy {
    fn default() -> Self {
        RouteStrategy::KShortest(4)
    }
}

/// Which timing constraints the synthesis imposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstraintMode {
    /// The paper's contribution: every application must satisfy its
    /// worst-case stability condition (Eq. 2/3/10), encoded over a latency
    /// grid of the given granularity.
    StabilityAware {
        /// Width of the latency sub-intervals used to encode the stability
        /// condition in difference logic. Smaller values are closer to the
        /// exact condition but add more Boolean structure.
        granularity: Time,
    },
    /// The state-of-the-art baseline of Table I: only the implicit hard
    /// deadline `e2e <= period` is imposed.
    DeadlineOnly,
}

impl Default for ConstraintMode {
    fn default() -> Self {
        ConstraintMode::StabilityAware {
            granularity: Time::from_micros(250),
        }
    }
}

/// Full configuration of one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Candidate-route generation strategy.
    pub route_strategy: RouteStrategy,
    /// Number of time slices of the incremental-synthesis heuristic
    /// (Section V-C2); `1` solves the whole hyper-period at once.
    pub stages: usize,
    /// Constraint mode (stability-aware vs. deadline-only baseline).
    pub mode: ConstraintMode,
    /// Per-stage conflict budget for the solver (`None` = unlimited).
    pub max_conflicts_per_stage: Option<u64>,
    /// Per-stage wall-clock budget (`None` = unlimited).
    pub timeout_per_stage: Option<Duration>,
    /// Whether to run the independent schedule verifier on the result.
    pub verify: bool,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            route_strategy: RouteStrategy::default(),
            stages: 1,
            mode: ConstraintMode::default(),
            max_conflicts_per_stage: None,
            timeout_per_stage: None,
            verify: true,
        }
    }
}

impl SynthesisConfig {
    /// The paper's recommended configuration for the automotive case study:
    /// 3 alternative routes, 5 stages, stability-aware constraints.
    pub fn automotive() -> Self {
        SynthesisConfig {
            route_strategy: RouteStrategy::KShortest(3),
            stages: 5,
            ..SynthesisConfig::default()
        }
    }

    /// The deadline-only baseline with the same exploration parameters as
    /// this configuration.
    pub fn deadline_baseline(&self) -> Self {
        SynthesisConfig {
            mode: ConstraintMode::DeadlineOnly,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_documentation() {
        let c = SynthesisConfig::default();
        assert_eq!(c.route_strategy, RouteStrategy::KShortest(4));
        assert_eq!(c.stages, 1);
        assert!(matches!(c.mode, ConstraintMode::StabilityAware { .. }));
        assert!(c.verify);
    }

    #[test]
    fn automotive_configuration() {
        let c = SynthesisConfig::automotive();
        assert_eq!(c.route_strategy, RouteStrategy::KShortest(3));
        assert_eq!(c.stages, 5);
        let baseline = c.deadline_baseline();
        assert_eq!(baseline.mode, ConstraintMode::DeadlineOnly);
        assert_eq!(baseline.stages, 5);
    }
}
