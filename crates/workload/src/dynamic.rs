//! Dynamic-scenario generation: seeded event traces over the existing
//! topologies, for the online admission engine (`tsn_online`).
//!
//! A [`DynamicScenario`] describes a network plus a stochastic mix of
//! control loops joining and leaving and links failing and recovering. The
//! generator is fully deterministic per seed and never inspects engine
//! state: admission ids are predicted from the engine's documented contract
//! (every `AdmitApp` consumes one id, accepted or not), so the same trace
//! can be replayed against the engine, against a cold re-synthesis
//! differential, or across processes via `tsn_online::wire`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsn_net::builders::{self, BuiltNetwork};
use tsn_net::{LinkId, LinkSpec, NodeKind, Time};
use tsn_online::{AppId, NetworkEvent};
use tsn_synthesis::ControlApplication;

use crate::synthetic_bound;

/// Which network a dynamic scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicTopology {
    /// The paper's Figure-1 example network (8 switches, 3 loop slots).
    Figure1,
    /// A 2×(n/2) switch grid with `slots` sensor/controller pairs attached.
    Grid {
        /// Number of switches in the grid fabric.
        switches: usize,
    },
    /// A switch ring with `slots` sensor/controller pairs attached.
    Ring {
        /// Number of switches in the ring fabric.
        switches: usize,
    },
}

/// One dynamic scenario: a network plus a seeded event mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicScenario {
    /// The network shape.
    pub topology: DynamicTopology,
    /// Number of sensor/controller pairs (admission slots). Ignored for
    /// [`DynamicTopology::Figure1`], which always has 3.
    pub slots: usize,
    /// Number of events to generate.
    pub events: usize,
    /// Target fraction (0..=1) of slots kept occupied: higher loads bias
    /// the mix toward admissions, lower loads toward removals.
    pub load: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for DynamicScenario {
    fn default() -> Self {
        DynamicScenario {
            topology: DynamicTopology::Figure1,
            slots: 3,
            events: 40,
            load: 0.7,
            seed: 0,
        }
    }
}

/// Periods drawn for dynamic loops; all divide 40 ms so the hyper-period
/// stays bounded however the live set evolves.
const PERIODS_MS: [i64; 3] = [10, 20, 40];

/// Builds the network of a dynamic scenario (deterministic per scenario).
pub fn dynamic_network(scenario: &DynamicScenario) -> BuiltNetwork {
    let spec = LinkSpec::fast_ethernet();
    match scenario.topology {
        DynamicTopology::Figure1 => builders::figure1_example(spec),
        DynamicTopology::Grid { switches } => {
            let (topology, fabric) = builders::switch_grid(2, switches.div_ceil(2).max(1), spec);
            let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0xA11C_E5ED);
            builders::attach_end_stations(topology, &fabric, scenario.slots, spec, &mut rng)
        }
        DynamicTopology::Ring { switches } => {
            let (topology, fabric) = builders::switch_ring(switches.max(3), spec);
            let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0xA11C_E5ED);
            builders::attach_end_stations(topology, &fabric, scenario.slots, spec, &mut rng)
        }
    }
}

/// Generates the seeded event trace of a scenario over its network.
///
/// The mix contains admissions onto free slots, *doomed* admissions onto
/// already-occupied sensors (exercising the rejection path), removals of
/// previously admitted loops, and failures/recoveries of switch-to-switch
/// links (at most one physical link down at a time, so the fabric stays
/// connected on every topology this module builds).
pub fn event_trace(scenario: &DynamicScenario) -> (BuiltNetwork, Vec<NetworkEvent>) {
    let network = dynamic_network(scenario);
    let mut rng = StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let slots = network.application_slots();
    let target = ((slots as f64) * scenario.load.clamp(0.0, 1.0)).round() as usize;

    // One direction per switch-to-switch physical link is eligible to fail.
    let downable: Vec<LinkId> = network
        .topology
        .links()
        .filter(|l| {
            network.topology.node(l.source()).kind() == NodeKind::Switch
                && network.topology.node(l.target()).kind() == NodeKind::Switch
                && l.id().index() < l.reverse().index()
        })
        .map(|l| l.id())
        .collect();

    let mut events = Vec::with_capacity(scenario.events);
    let mut next_id = 0u64;
    // (predicted id, slot) of loops the generator believes are live.
    let mut occupied: Vec<(AppId, usize)> = Vec::new();
    let mut free: Vec<usize> = (0..slots).collect();
    let mut down: Option<LinkId> = None;

    let admit = |rng: &mut StdRng, slot: usize, next_id: &mut u64| -> NetworkEvent {
        let period = Time::from_millis(PERIODS_MS[rng.gen_range(0..PERIODS_MS.len())]);
        let app = ControlApplication {
            name: format!("dyn-{}", *next_id),
            sensor: network.sensors[slot],
            controller: network.controllers[slot],
            period,
            frame_bytes: 1500,
            stability: synthetic_bound(period, rng),
        };
        *next_id += 1;
        NetworkEvent::AdmitApp { app }
    };

    for _ in 0..scenario.events {
        let roll = rng.gen_range(0..100u32);
        let want_admit = occupied.len() < target || free.is_empty();
        let event = if roll < 15 && !occupied.is_empty() {
            // Doomed admission: the sensor is already in use.
            let &(_, slot) = &occupied[rng.gen_range(0..occupied.len())];
            // Rejection predicted, so no slot bookkeeping changes.
            admit(&mut rng, slot, &mut next_id)
        } else if roll < 25 && down.is_none() && !downable.is_empty() {
            let link = downable[rng.gen_range(0..downable.len())];
            down = Some(link);
            NetworkEvent::LinkDown { link }
        } else if roll < 35 && down.is_some() {
            let link = down.take().expect("checked");
            NetworkEvent::LinkUp { link }
        } else if (roll < 55 || !want_admit) && !occupied.is_empty() {
            let idx = rng.gen_range(0..occupied.len());
            let (id, slot) = occupied.remove(idx);
            free.push(slot);
            NetworkEvent::RemoveApp { app: id }
        } else if !free.is_empty() {
            let idx = rng.gen_range(0..free.len());
            let slot = free.remove(idx);
            let id = AppId(next_id);
            let e = admit(&mut rng, slot, &mut next_id);
            occupied.push((id, slot));
            e
        } else {
            // Every slot busy and nothing else applicable: remove someone.
            let (id, slot) = occupied.remove(rng.gen_range(0..occupied.len()));
            free.push(slot);
            NetworkEvent::RemoveApp { app: id }
        };
        events.push(event);
    }
    (network, events)
}

/// A correlated-failure scenario: a dying switch takes all of its fabric
/// links down **simultaneously**, followed by staggered recovery.
///
/// This is the workload the batched reconfiguration path of `tsn_online`
/// exists for: per-event processing reroutes (and possibly evicts) loops at
/// every intermediate failure state, while
/// [`process_batch`](../../tsn_online/struct.OnlineEngine.html#method.process_batch)
/// sees only the net effect of each window. The generated trace is a
/// sequence of *windows* (event batches): an admission prologue filling the
/// slots, then per burst one window with the victim switch's simultaneous
/// `LinkDown` set and — when `flap` is set — the immediate recovery of part
/// of that set in the *same* window (a flapping switch: the net failure is
/// smaller than the transient one), followed by staggered single-`LinkUp`
/// recovery windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedFailureScenario {
    /// The network shape.
    pub topology: DynamicTopology,
    /// Number of sensor/controller pairs attached to the fabric.
    pub slots: usize,
    /// Number of admissions in the prologue window (capped at `slots`).
    pub loops: usize,
    /// Number of switch-down bursts.
    pub bursts: usize,
    /// Whether part of each burst's link set recovers within the burst
    /// window itself (the flapping pattern whose net effect a batched
    /// solve exploits).
    pub flap: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for CorrelatedFailureScenario {
    fn default() -> Self {
        CorrelatedFailureScenario {
            topology: DynamicTopology::Ring { switches: 6 },
            slots: 3,
            loops: 3,
            bursts: 1,
            flap: false,
            seed: 0,
        }
    }
}

/// Generates the batched windows of a correlated-failure scenario.
///
/// Victim switches are drawn (per seed) among fabric switches with **no**
/// end stations attached, so a dead switch never strands a sensor or
/// controller — the interesting question is rerouting, not reachability.
/// Every window is intended for one `process_batch` call; concatenating the
/// windows yields the equivalent sequential trace.
pub fn correlated_failure_trace(
    scenario: &CorrelatedFailureScenario,
) -> (BuiltNetwork, Vec<Vec<NetworkEvent>>) {
    let network = dynamic_network(&DynamicScenario {
        topology: scenario.topology,
        slots: scenario.slots,
        events: 0,
        load: 1.0,
        seed: scenario.seed,
    });
    let mut rng = StdRng::seed_from_u64(scenario.seed.wrapping_mul(0xD1B5_4A32_D192_ED03));

    // Fabric switches without attached end stations are eligible victims.
    let topology = &network.topology;
    let mut victims: Vec<_> = topology
        .nodes()
        .filter(|n| n.kind() == NodeKind::Switch)
        .map(|n| n.id())
        .filter(|&sw| {
            topology.links().all(|l| {
                (l.source() != sw && l.target() != sw)
                    || (topology.node(l.source()).kind() == NodeKind::Switch
                        && topology.node(l.target()).kind() == NodeKind::Switch)
            })
        })
        .collect();
    victims.sort();

    let mut windows = Vec::new();

    // Prologue: all admissions in one window.
    let loops = scenario.loops.min(network.application_slots());
    let mut admissions = Vec::with_capacity(loops);
    for (id, slot) in (0..loops).enumerate() {
        let period = Time::from_millis(PERIODS_MS[rng.gen_range(0..PERIODS_MS.len())]);
        admissions.push(NetworkEvent::AdmitApp {
            app: ControlApplication {
                name: format!("corr-{id}"),
                sensor: network.sensors[slot],
                controller: network.controllers[slot],
                period,
                frame_bytes: 1500,
                stability: synthetic_bound(period, &mut rng),
            },
        });
    }
    windows.push(admissions);

    for _ in 0..scenario.bursts {
        if victims.is_empty() {
            break;
        }
        let victim = victims[rng.gen_range(0..victims.len())];
        // One direction per physical fabric link of the victim.
        let burst_links: Vec<LinkId> = network
            .topology
            .links()
            .filter(|l| {
                (l.source() == victim || l.target() == victim)
                    && l.id().index() < l.reverse().index()
            })
            .map(|l| l.id())
            .collect();
        let mut burst: Vec<NetworkEvent> = burst_links
            .iter()
            .map(|&link| NetworkEvent::LinkDown { link })
            .collect();
        // A flapping switch: all links go down together, but part of the
        // set is back before the window closes — the net failure is
        // strictly smaller than the transient one.
        let flapped = if scenario.flap && burst_links.len() > 1 {
            let keep_down = 1 + rng.gen_range(0..burst_links.len().max(2) - 1);
            let recovered: Vec<LinkId> = burst_links[keep_down..].to_vec();
            burst.extend(recovered.iter().map(|&link| NetworkEvent::LinkUp { link }));
            burst_links[..keep_down].to_vec()
        } else {
            burst_links.clone()
        };
        windows.push(burst);
        // Staggered recovery: one window per still-failed link.
        for link in flapped {
            windows.push(vec![NetworkEvent::LinkUp { link }]);
        }
    }
    (network, windows)
}

/// Chops a flat event trace into seeded burst windows of 1..=`max_window`
/// events — the unit fed to `process_batch` by the batched-vs-sequential
/// differential (concatenating the windows restores the original trace).
pub fn burst_windows(
    events: Vec<NetworkEvent>,
    seed: u64,
    max_window: usize,
) -> Vec<Vec<NetworkEvent>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let max = max_window.max(1);
    let mut windows = Vec::new();
    let mut events = events.into_iter().peekable();
    while events.peek().is_some() {
        let size = rng.gen_range(1..=max);
        let window: Vec<NetworkEvent> = events.by_ref().take(size).collect();
        windows.push(window);
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_per_seed() {
        let scenario = DynamicScenario::default();
        let (_, a) = event_trace(&scenario);
        let (_, b) = event_trace(&scenario);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let (_, c) = event_trace(&DynamicScenario {
            seed: 1,
            ..scenario
        });
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn traces_mix_event_kinds() {
        let scenario = DynamicScenario {
            events: 120,
            ..DynamicScenario::default()
        };
        let (network, events) = event_trace(&scenario);
        assert_eq!(events.len(), 120);
        let mut admits = 0;
        let mut removes = 0;
        let mut downs = 0;
        let mut ups = 0;
        for e in &events {
            match e {
                NetworkEvent::AdmitApp { app } => {
                    admits += 1;
                    assert!(network.sensors.contains(&app.sensor));
                    assert_eq!(app.period.as_millis() % 10, 0);
                }
                NetworkEvent::RemoveApp { .. } => removes += 1,
                NetworkEvent::LinkDown { link } => {
                    downs += 1;
                    let l = network.topology.link(*link);
                    assert_eq!(network.topology.node(l.source()).kind(), NodeKind::Switch);
                    assert_eq!(network.topology.node(l.target()).kind(), NodeKind::Switch);
                }
                NetworkEvent::LinkUp { .. } => ups += 1,
            }
        }
        assert!(admits > 10, "admits: {admits}");
        assert!(removes > 5, "removes: {removes}");
        assert!(downs >= 1, "downs: {downs}");
        assert!(
            ups <= downs,
            "a link can only come back up after going down"
        );
    }

    #[test]
    fn correlated_bursts_down_whole_switches_and_recover() {
        let scenario = CorrelatedFailureScenario {
            topology: DynamicTopology::Ring { switches: 6 },
            slots: 3,
            loops: 3,
            bursts: 2,
            flap: false,
            seed: 4,
        };
        let (network, windows) = correlated_failure_trace(&scenario);
        let (_, again) = correlated_failure_trace(&scenario);
        assert_eq!(format!("{windows:?}"), format!("{again:?}"));
        assert!(matches!(
            windows[0].as_slice(),
            [NetworkEvent::AdmitApp { .. }, ..]
        ));
        assert_eq!(windows[0].len(), 3);
        // The first burst window downs at least two links simultaneously,
        // all incident to one switch.
        let burst = &windows[1];
        let downs: Vec<_> = burst
            .iter()
            .filter_map(|e| match e {
                NetworkEvent::LinkDown { link } => Some(*link),
                _ => None,
            })
            .collect();
        assert!(downs.len() >= 2, "a switch death downs several links");
        // Every downed link touches the victim switch: the intersection of
        // endpoint sets over all downed links is non-empty.
        let endpoints = |link: LinkId| {
            let l = network.topology.link(link);
            [l.source(), l.target()]
        };
        let victim = endpoints(downs[0])
            .into_iter()
            .find(|n| downs.iter().all(|&d| endpoints(d).contains(n)))
            .expect("one common victim switch");
        assert_eq!(network.topology.node(victim).kind(), NodeKind::Switch);
        // Recovery is staggered: each downed link comes back in its own
        // later window.
        let ups: usize = windows[2..]
            .iter()
            .flatten()
            .filter(|e| matches!(e, NetworkEvent::LinkUp { .. }))
            .count();
        assert!(ups >= downs.len(), "every downed link eventually recovers");
    }

    #[test]
    fn flapping_bursts_recover_part_of_the_set_in_window() {
        let scenario = CorrelatedFailureScenario {
            flap: true,
            seed: 2,
            ..CorrelatedFailureScenario::default()
        };
        let (_, windows) = correlated_failure_trace(&scenario);
        let burst = &windows[1];
        let downs = burst
            .iter()
            .filter(|e| matches!(e, NetworkEvent::LinkDown { .. }))
            .count();
        let in_window_ups = burst
            .iter()
            .filter(|e| matches!(e, NetworkEvent::LinkUp { .. }))
            .count();
        assert!(downs >= 2);
        assert!(
            in_window_ups >= 1 && in_window_ups < downs,
            "a flap recovers part (not all) of the burst inside the window: \
             {downs} downs, {in_window_ups} ups"
        );
    }

    #[test]
    fn burst_windows_partition_the_trace() {
        let (_, events) = event_trace(&DynamicScenario {
            events: 30,
            ..DynamicScenario::default()
        });
        let windows = burst_windows(events.clone(), 9, 4);
        let windows2 = burst_windows(events.clone(), 9, 4);
        assert_eq!(format!("{windows:?}"), format!("{windows2:?}"));
        assert!(windows.iter().all(|w| !w.is_empty() && w.len() <= 4));
        assert!(windows.iter().any(|w| w.len() >= 2), "non-trivial windows");
        let flat: Vec<NetworkEvent> = windows.into_iter().flatten().collect();
        assert_eq!(format!("{flat:?}"), format!("{events:?}"));
    }

    #[test]
    fn grid_and_ring_networks_have_requested_slots() {
        for topology in [
            DynamicTopology::Grid { switches: 6 },
            DynamicTopology::Ring { switches: 5 },
        ] {
            let scenario = DynamicScenario {
                topology,
                slots: 5,
                ..DynamicScenario::default()
            };
            let network = dynamic_network(&scenario);
            assert_eq!(network.application_slots(), 5);
            builders::validate_routability(&network).unwrap();
        }
    }
}
