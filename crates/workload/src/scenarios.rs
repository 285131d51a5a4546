//! Scenario generators for the scalability experiments (Figures 4–7).

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsn_net::{builders, LinkSpec, Time};
use tsn_synthesis::{SynthesisError, SynthesisProblem};

use crate::AppSpec;

/// Parameters of one scalability problem instance (Figures 4–6): 10 control
/// applications on a 35-node network (10 sensors, 10 controllers, 15
/// switches), with the number of messages per hyper-period as the varied
/// quantity.
#[derive(Debug, Clone, Copy)]
pub struct ScalabilityScenario {
    /// Target number of messages inside one hyper-period (10–100 in the
    /// paper).
    pub messages: usize,
    /// Number of control applications (10 in the paper).
    pub applications: usize,
    /// Number of Ethernet switches (15 in the paper).
    pub switches: usize,
    /// Random seed identifying the instance.
    pub seed: u64,
}

impl Default for ScalabilityScenario {
    fn default() -> Self {
        ScalabilityScenario {
            messages: 40,
            applications: 10,
            switches: 15,
            seed: 0,
        }
    }
}

/// The hyper-period used by the scalability scenarios.
const HYPERPERIOD_MS: i64 = 40;

/// Chooses per-application periods (divisors of the 40 ms hyper-period) so
/// that the total message count matches `target` as closely as possible.
fn choose_periods(applications: usize, target: usize) -> Vec<Time> {
    // Messages per application for each allowed period.
    let options: [(i64, usize); 6] = [(40, 1), (20, 2), (10, 4), (5, 8), (4, 10), (2, 20)];
    // `counts[app]` indexes into `options`; every application starts at 1
    // message (40 ms period). The loop repeatedly upgrades the application
    // with the slowest rate; this spreads the load evenly and overshoots the
    // target by at most one upgrade step. Application 0 always keeps the
    // 40 ms period so the hyper-period stays pinned at 40 ms regardless of
    // the target.
    let mut counts = vec![0usize; applications];
    let mut total = applications;
    while total < target {
        let candidate = counts
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(_, &opt)| opt + 1 < options.len())
            .min_by_key(|&(i, &opt)| (opt, i))
            .map(|(i, _)| i);
        let Some(app) = candidate else {
            break; // every application is already at the fastest rate
        };
        let gain = options[counts[app] + 1].1 - options[counts[app]].1;
        counts[app] += 1;
        total += gain;
    }
    counts
        .into_iter()
        .map(|opt| Time::from_millis(options[opt].0))
        .collect()
}

/// Builds one random scalability problem (the instances behind Figures 4–6):
/// an Erdős–Rényi switch fabric with sensors/controllers attached and
/// randomly drawn control applications whose periods are chosen to hit the
/// requested message count.
///
/// # Errors
///
/// Propagates problem-construction errors (which would indicate a generator
/// bug).
pub fn scalability_problem(
    scenario: ScalabilityScenario,
) -> Result<SynthesisProblem, SynthesisError> {
    let mut rng = StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x9E3779B97F4A7C15));
    let spec = LinkSpec::fast_ethernet();
    let (topology, switches) =
        builders::erdos_renyi_switches(scenario.switches.max(2), 0.25, spec, &mut rng);
    let network =
        builders::attach_end_stations(topology, &switches, scenario.applications, spec, &mut rng);
    let periods = choose_periods(scenario.applications, scenario.messages);
    let mut problem = SynthesisProblem::new(network.topology, Time::from_micros(5));
    for (i, period) in periods.into_iter().enumerate() {
        let app = AppSpec::random_synthetic(i, period, &mut rng);
        problem.add_application(
            app.name,
            network.sensors[i],
            network.controllers[i],
            app.period,
            app.frame_bytes,
            app.stability,
        )?;
    }
    debug_assert_eq!(problem.hyperperiod(), Time::from_millis(HYPERPERIOD_MS));
    Ok(problem)
}

/// Builds one instance of the network-size experiment (Figure 7): 10 control
/// applications generating 45 messages per hyper-period, on an Erdős–Rényi
/// topology with the given number of switches.
///
/// # Errors
///
/// Propagates problem-construction errors.
pub fn network_size_problem(
    switches: usize,
    seed: u64,
) -> Result<SynthesisProblem, SynthesisError> {
    scalability_problem(ScalabilityScenario {
        messages: 45,
        applications: 10,
        switches,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periods_hit_the_message_target() {
        for target in [10, 20, 45, 60, 100] {
            let periods = choose_periods(10, target);
            assert_eq!(periods.len(), 10);
            let hyper = Time::from_millis(HYPERPERIOD_MS);
            let total: i64 = periods.iter().map(|&p| hyper / p).sum();
            let diff = (total - target as i64).abs();
            assert!(
                diff <= 9,
                "target {target} produced {total} messages (diff {diff})"
            );
            assert!(total >= target as i64 || total == 100);
        }
    }

    #[test]
    fn scalability_problem_matches_paper_shape() {
        let problem = scalability_problem(ScalabilityScenario {
            messages: 30,
            applications: 10,
            switches: 15,
            seed: 3,
        })
        .unwrap();
        // 35 nodes: 15 switches + 10 sensors + 10 controllers.
        assert_eq!(problem.topology().node_count(), 35);
        assert_eq!(problem.applications().len(), 10);
        assert!(problem.message_count() >= 30);
        assert!(problem.message_count() <= 40);
        problem.validate().unwrap();
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = scalability_problem(ScalabilityScenario::default()).unwrap();
        let b = scalability_problem(ScalabilityScenario::default()).unwrap();
        assert_eq!(a.message_count(), b.message_count());
        assert_eq!(a.topology().link_count(), b.topology().link_count());
        let c = scalability_problem(ScalabilityScenario {
            seed: 99,
            ..ScalabilityScenario::default()
        })
        .unwrap();
        // Different seed: almost surely a different topology.
        assert!(
            a.topology().link_count() != c.topology().link_count()
                || a.message_count() != c.message_count()
                || format!("{:?}", a.applications()) != format!("{:?}", c.applications())
        );
    }

    #[test]
    fn network_size_instances_have_45_messages() {
        for switches in [10, 25, 45] {
            let p = network_size_problem(switches, 1).unwrap();
            assert_eq!(p.topology().switches().len(), switches);
            let count = p.message_count();
            assert!((45..=54).contains(&count), "got {count} messages");
        }
    }
}
