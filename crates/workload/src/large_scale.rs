//! Large-scale workload generation: hundreds to thousands of time-triggered
//! control streams on 32–128-switch fabrics.
//!
//! These instances are far beyond the paper's figures (tens of loops on 15
//! switches); they exist to exercise the partitioned parallel synthesis of
//! `tsn_scale`, following the scale regime of "Just a Second — Scheduling
//! Thousands of Time-Triggered Streams in Large-Scale Networks"
//! (arXiv:2306.07710). Everything is deterministic per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsn_net::{builders, LinkSpec, NodeId, NodeKind, Time, Topology};
use tsn_synthesis::{SynthesisError, SynthesisProblem};

/// Switch-fabric family of a large-scale instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LargeTopology {
    /// A ring of switches (long routes, two route families per pair).
    Ring,
    /// A 4-row switch mesh (moderate path diversity).
    Grid,
    /// A `pods`-ary fat-tree (high path diversity, short routes) — the shape
    /// the partitioned solver scales best on.
    FatTree,
}

impl LargeTopology {
    /// All families, in a fixed order.
    pub const ALL: [LargeTopology; 3] = [
        LargeTopology::Ring,
        LargeTopology::Grid,
        LargeTopology::FatTree,
    ];
}

/// Parameters of one large-scale instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeScaleScenario {
    /// Switch-fabric family.
    pub topology: LargeTopology,
    /// Approximate number of switches (32–128 is the intended range; the
    /// fat-tree rounds to the nearest valid pod count).
    pub switches: usize,
    /// Number of control streams (sensor → controller loops). Each stream
    /// gets its own sensor and controller end station.
    pub streams: usize,
    /// Random seed identifying the instance.
    pub seed: u64,
    /// Fraction of streams running at 20 ms instead of the base 40 ms
    /// period, in percent (0–100). Higher values add message instances
    /// without adding streams.
    pub fast_stream_percent: u8,
}

impl Default for LargeScaleScenario {
    fn default() -> Self {
        LargeScaleScenario {
            topology: LargeTopology::FatTree,
            switches: 80,
            streams: 500,
            seed: 0,
            fast_stream_percent: 12,
        }
    }
}

/// The hyper-period of every large-scale instance.
const HYPERPERIOD_MS: i64 = 40;

/// Builds the switch fabric and the attachment points for end stations.
fn build_fabric(scenario: &LargeScaleScenario, spec: LinkSpec) -> (Topology, Vec<NodeId>) {
    match scenario.topology {
        LargeTopology::Ring => builders::switch_ring(scenario.switches.max(3), spec),
        LargeTopology::Grid => {
            let cols = scenario.switches.div_ceil(4).max(2);
            builders::switch_grid(4, cols, spec)
        }
        LargeTopology::FatTree => {
            let pods = builders::fat_tree_pods_for(scenario.switches);
            let (topo, layers) = builders::fat_tree(pods, spec);
            // End stations may only attach to the edge layer.
            (topo, layers.edge)
        }
    }
}

/// Builds one large-scale synthesis problem: the requested fabric with one
/// sensor and one controller end station per stream, attached to
/// deterministic-random switches (edge switches for the fat-tree), and
/// per-stream synthetic stability bounds lenient enough that instances stay
/// schedulable at scale while still rejecting high-jitter schedules.
///
/// The backbone runs at gigabit speed; end-station access links at fast
/// Ethernet — the mixed-speed regime of modern TSN deployments.
///
/// # Errors
///
/// Propagates problem-construction errors (which would indicate a generator
/// bug).
pub fn large_scale_problem(
    scenario: &LargeScaleScenario,
) -> Result<SynthesisProblem, SynthesisError> {
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0xA5C3_1E5C_A1E5_CA1E);
    let backbone = LinkSpec::gigabit_ethernet();
    let access = LinkSpec::fast_ethernet();
    let (mut topology, attach) = build_fabric(scenario, backbone);

    let mut problem_apps = Vec::with_capacity(scenario.streams);
    for i in 0..scenario.streams {
        let sensor = topology.add_node(format!("S{i}"), NodeKind::Sensor);
        let sw = attach[rng.gen_range(0..attach.len())];
        topology
            .connect(sensor, sw, access)
            .expect("fresh end station has no prior link");
        let controller = topology.add_node(format!("C{i}"), NodeKind::Controller);
        let sw = attach[rng.gen_range(0..attach.len())];
        topology
            .connect(controller, sw, access)
            .expect("fresh end station has no prior link");
        let fast = rng.gen_range(0..100u8) < scenario.fast_stream_percent.min(100);
        let period = Time::from_millis(if fast { 20 } else { HYPERPERIOD_MS });
        // Lenient single-segment bound: alpha in [1, 2], beta at 80–160 % of
        // the period, so almost every stream is schedulable but sloppy
        // high-jitter placements still fail.
        let alpha = rng.gen_range(1.0..2.0);
        let beta = period.as_secs_f64() * rng.gen_range(0.8..1.6);
        problem_apps.push((sensor, controller, period, alpha, beta));
    }

    let mut problem = SynthesisProblem::new(topology, Time::from_micros(5));
    for (i, (sensor, controller, period, alpha, beta)) in problem_apps.into_iter().enumerate() {
        problem.add_application(
            format!("stream{i}"),
            sensor,
            controller,
            period,
            1500,
            tsn_control::PiecewiseLinearBound::single_segment(alpha, beta),
        )?;
    }
    debug_assert_eq!(problem.hyperperiod(), Time::from_millis(HYPERPERIOD_MS));
    Ok(problem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let scenario = LargeScaleScenario {
            streams: 50,
            switches: 32,
            topology: LargeTopology::Ring,
            ..LargeScaleScenario::default()
        };
        let a = large_scale_problem(&scenario).unwrap();
        let b = large_scale_problem(&scenario).unwrap();
        assert_eq!(a.message_count(), b.message_count());
        assert_eq!(a.topology().link_count(), b.topology().link_count());
        assert_eq!(
            format!("{:?}", a.applications()),
            format!("{:?}", b.applications())
        );
        let c = large_scale_problem(&LargeScaleScenario {
            seed: 1,
            ..scenario
        })
        .unwrap();
        assert_ne!(
            format!("{:?}", a.applications()),
            format!("{:?}", c.applications())
        );
    }

    #[test]
    fn every_family_builds_at_target_sizes() {
        for &topology in &LargeTopology::ALL {
            let scenario = LargeScaleScenario {
                topology,
                switches: 32,
                streams: 64,
                seed: 2,
                fast_stream_percent: 25,
            };
            let problem = large_scale_problem(&scenario).unwrap();
            let switches = problem.topology().switches().len();
            // Ring and grid hit the target (up to grid rounding); the
            // fat-tree snaps to the closest valid pod configuration, which
            // for a 32-switch target is the 4-pod / 20-switch fabric.
            assert!(
                (20..=48).contains(&switches),
                "{topology:?}: {switches} switches"
            );
            assert_eq!(problem.applications().len(), 64);
            // 64 + 2*64 nodes.
            assert_eq!(problem.topology().node_count(), switches + 128);
            assert!(problem.message_count() >= 64);
            assert!(problem.message_count() <= 128);
            problem.validate().unwrap();
        }
    }

    #[test]
    fn fat_tree_streams_attach_to_edge_switches_only() {
        let scenario = LargeScaleScenario {
            streams: 40,
            ..LargeScaleScenario::default()
        };
        let problem = large_scale_problem(&scenario).unwrap();
        let topo = problem.topology();
        for app in problem.applications() {
            for node in [app.sensor, app.controller] {
                let links = topo.out_links(node);
                assert_eq!(links.len(), 1, "end stations have one port");
                let peer = topo.link(links[0]).target();
                assert!(
                    topo.node(peer).name().starts_with("EDGE"),
                    "end station attached to {}",
                    topo.node(peer).name()
                );
            }
        }
    }

    #[test]
    fn message_count_tracks_fast_stream_share() {
        let base = LargeScaleScenario {
            streams: 200,
            fast_stream_percent: 0,
            ..LargeScaleScenario::default()
        };
        let none = large_scale_problem(&base).unwrap();
        assert_eq!(none.message_count(), 200);
        let half = large_scale_problem(&LargeScaleScenario {
            fast_stream_percent: 50,
            ..base
        })
        .unwrap();
        // Every fast stream doubles its instance count.
        assert!(half.message_count() > 260 && half.message_count() < 340);
    }
}
