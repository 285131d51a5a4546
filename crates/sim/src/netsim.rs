//! Store-and-forward discrete-event simulation of a synthesized schedule.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use tsn_net::{LinkId, Time};
use tsn_synthesis::{Schedule, SynthesisProblem};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of hyper-periods to simulate.
    pub hyperperiods: usize,
    /// Fraction (0..1) of each link's idle time filled with lower-priority
    /// best-effort frames, to demonstrate that scheduled traffic is isolated
    /// from it.
    pub background_load: f64,
    /// Size of the injected best-effort frames, in bytes.
    pub background_frame_bytes: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            hyperperiods: 2,
            background_load: 0.0,
            background_frame_bytes: 1500,
        }
    }
}

/// Observed metrics of one application's flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulatedFlowMetrics {
    /// Number of frames delivered to the controller.
    pub delivered: usize,
    /// Minimum observed end-to-end delay (the latency `L_i`).
    pub latency: Time,
    /// Observed delay variation (the jitter `J_i`).
    pub jitter: Time,
    /// Maximum observed end-to-end delay.
    pub max_end_to_end: Time,
}

/// A protocol violation detected during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A gate opened before the frame it should transmit had fully arrived
    /// and been processed at the switch.
    GateBeforeArrival {
        /// Application index.
        app: usize,
        /// Message instance within the hyper-period.
        instance: usize,
        /// The egress link whose gate misfired.
        link: LinkId,
    },
    /// Two scheduled frames overlapped on the same directed link.
    LinkOverlap {
        /// The link on which the overlap happened.
        link: LinkId,
    },
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-application observed flow metrics.
    pub flows: Vec<SimulatedFlowMetrics>,
    /// Any violations detected (empty for a correct schedule).
    pub violations: Vec<Violation>,
    /// Number of best-effort frames injected.
    pub background_frames: usize,
    /// Number of best-effort frames that completed transmission.
    pub background_delivered: usize,
}

impl SimReport {
    /// Returns `true` if the simulation observed no protocol violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A store-and-forward simulator of the scheduled (time-triggered) traffic
/// class plus optional background best-effort traffic.
///
/// # Example
///
/// ```
/// use tsn_control::PiecewiseLinearBound;
/// use tsn_net::{builders, LinkSpec, Time};
/// use tsn_sim::{NetworkSimulator, SimConfig};
/// use tsn_synthesis::{SynthesisConfig, SynthesisProblem, Synthesizer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = builders::figure1_example(LinkSpec::fast_ethernet());
/// let mut problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
/// problem.add_application(
///     "app0",
///     net.sensors[0],
///     net.controllers[0],
///     Time::from_millis(10),
///     1500,
///     PiecewiseLinearBound::single_segment(2.0, 0.015),
/// )?;
/// let report = Synthesizer::new(SynthesisConfig::default()).synthesize(&problem)?;
///
/// let sim = NetworkSimulator::new(&problem, &report.schedule);
/// let result = sim.run(SimConfig::default());
/// assert!(result.is_clean());
/// assert_eq!(result.flows[0].delivered, 2); // two hyper-periods simulated
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkSimulator<'a> {
    problem: &'a SynthesisProblem,
    schedule: &'a Schedule,
}

/// One scheduled transmission: a frame leaves `link` at `start` and occupies
/// it until `end`; `hop` is its position along the message's route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Transmission {
    start: Time,
    end: Time,
    link: LinkId,
    app: usize,
    instance: usize,
    hop: usize,
}

impl<'a> NetworkSimulator<'a> {
    /// Creates a simulator for the given problem and schedule.
    pub fn new(problem: &'a SynthesisProblem, schedule: &'a Schedule) -> Self {
        NetworkSimulator { problem, schedule }
    }

    /// Runs the simulation.
    pub fn run(&self, config: SimConfig) -> SimReport {
        let hyper = self.schedule.hyperperiod;
        let repetitions = config.hyperperiods.max(1);
        let mut violations = Vec::new();

        // Expand the periodic schedule into concrete transmissions.
        let mut transmissions: Vec<Transmission> = Vec::new();
        for rep in 0..repetitions {
            let offset = hyper * rep as i64;
            for m in &self.schedule.messages {
                let app = &self.problem.applications()[m.message.app];
                for (hop, &(link, release)) in m.link_release.iter().enumerate() {
                    let ld = self
                        .problem
                        .topology()
                        .link(link)
                        .transmission_delay(app.frame_bytes);
                    let start = release + offset;
                    transmissions.push(Transmission {
                        start,
                        end: start + ld,
                        link,
                        app: m.message.app,
                        instance: m.message.instance,
                        hop,
                    });
                }
            }
        }

        // Event-driven pass: process transmissions in start order, tracking
        // per-link occupancy and per-frame arrival at each switch.
        let mut heap: BinaryHeap<Reverse<Transmission>> =
            transmissions.into_iter().map(Reverse).collect();
        // (app, instance, repetition-resolved hop) -> time the frame is ready
        // at the switch feeding that hop.
        let mut ready_at: HashMap<(usize, usize, Time, usize), Time> = HashMap::new();
        let mut link_busy_until: HashMap<LinkId, Time> = HashMap::new();
        let mut arrivals: HashMap<usize, Vec<Time>> = HashMap::new();
        let sd = self.problem.forwarding_delay();

        while let Some(Reverse(t)) = heap.pop() {
            let app = &self.problem.applications()[t.app];
            // Release period of this concrete frame (identifies the instance
            // across repetitions).
            let release = self
                .schedule
                .messages
                .iter()
                .find(|m| m.message.app == t.app && m.message.instance == t.instance);
            let Some(msg) = release else { continue };
            let base_release = msg.message.release;
            let rep_offset = t.start - msg.link_release[t.hop].1;
            let key = (t.app, t.instance, rep_offset, t.hop);

            // Store-and-forward: the frame must be ready at the transmitting
            // node when its gate opens.
            if t.hop > 0 {
                let ready = ready_at
                    .get(&(t.app, t.instance, rep_offset, t.hop - 1))
                    .copied()
                    .unwrap_or(Time::MAX);
                if t.start < ready {
                    violations.push(Violation::GateBeforeArrival {
                        app: t.app,
                        instance: t.instance,
                        link: t.link,
                    });
                }
            }
            // Link occupancy: scheduled frames must never overlap.
            if let Some(&busy_until) = link_busy_until.get(&t.link) {
                if t.start < busy_until {
                    violations.push(Violation::LinkOverlap { link: t.link });
                }
            }
            link_busy_until.insert(t.link, t.end);
            // After full reception plus the forwarding delay the frame is
            // ready at the next node.
            ready_at.insert(key, t.end + sd);

            // Final hop: record controller arrival.
            if t.hop == msg.link_release.len() - 1 {
                let e2e = t.end - (base_release + rep_offset);
                arrivals.entry(t.app).or_default().push(e2e);
                debug_assert!(e2e <= app.period, "simulated frame missed its deadline");
            }
        }

        // Background best-effort traffic: fill idle gaps of every link with
        // lower-priority frames that only start when they fit entirely before
        // the next scheduled transmission (the 802.1Qbv guard-band policy),
        // so they can never delay the time-triggered frames.
        let (background_frames, background_delivered) =
            self.inject_background(&config, repetitions);

        let flows = (0..self.problem.applications().len())
            .map(|app| {
                let observed = arrivals.get(&app).cloned().unwrap_or_default();
                if observed.is_empty() {
                    SimulatedFlowMetrics {
                        delivered: 0,
                        latency: Time::ZERO,
                        jitter: Time::ZERO,
                        max_end_to_end: Time::ZERO,
                    }
                } else {
                    let min = observed.iter().copied().min().expect("non-empty");
                    let max = observed.iter().copied().max().expect("non-empty");
                    SimulatedFlowMetrics {
                        delivered: observed.len(),
                        latency: min,
                        jitter: max - min,
                        max_end_to_end: max,
                    }
                }
            })
            .collect();

        SimReport {
            flows,
            violations,
            background_frames,
            background_delivered,
        }
    }

    /// Injects best-effort frames into the idle time of every link used by
    /// the schedule, honouring the guard band before every scheduled
    /// transmission. Returns (injected, delivered).
    fn inject_background(&self, config: &SimConfig, repetitions: usize) -> (usize, usize) {
        if config.background_load <= 0.0 {
            return (0, 0);
        }
        let hyper = self.schedule.hyperperiod;
        let horizon = hyper * repetitions as i64;
        // Collect, per link, the busy windows of the scheduled traffic.
        let mut busy: HashMap<LinkId, Vec<(Time, Time)>> = HashMap::new();
        for rep in 0..repetitions {
            let offset = hyper * rep as i64;
            for m in &self.schedule.messages {
                let app = &self.problem.applications()[m.message.app];
                for &(link, release) in &m.link_release {
                    let ld = self
                        .problem
                        .topology()
                        .link(link)
                        .transmission_delay(app.frame_bytes);
                    busy.entry(link)
                        .or_default()
                        .push((release + offset, release + offset + ld));
                }
            }
        }
        let mut injected = 0usize;
        let mut delivered = 0usize;
        for windows in busy.values_mut() {
            windows.sort();
            let link = self
                .problem
                .topology()
                .links()
                .next()
                .map(|l| l.spec())
                .unwrap_or_default();
            let be_ld = link.transmission_delay(config.background_frame_bytes);
            // Walk the idle gaps and fill a `background_load` fraction.
            let mut cursor = Time::ZERO;
            let mut window_idx = 0usize;
            while cursor < horizon {
                let next_busy = windows.get(window_idx).copied();
                let gap_end = next_busy.map(|(s, _)| s).unwrap_or(horizon);
                // Fit as many BE frames as the load fraction allows in this gap.
                let gap = gap_end - cursor;
                if gap >= be_ld {
                    let frames_fitting = (gap / be_ld) as usize;
                    let frames =
                        ((frames_fitting as f64) * config.background_load).floor() as usize;
                    injected += frames_fitting;
                    delivered += frames.min(frames_fitting);
                }
                match next_busy {
                    Some((_, busy_end)) => {
                        cursor = busy_end;
                        window_idx += 1;
                    }
                    None => break,
                }
            }
        }
        (injected, delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec};
    use tsn_synthesis::{SynthesisConfig, Synthesizer};

    fn solved(apps: usize) -> (SynthesisProblem, Schedule) {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..apps {
            p.add_application(
                format!("app{i}"),
                net.sensors[i % 3],
                net.controllers[i % 3],
                Time::from_millis(10 * (1 + (i as i64 % 2))),
                1500,
                PiecewiseLinearBound::single_segment(2.0, 0.018),
            )
            .unwrap();
        }
        let report = Synthesizer::new(SynthesisConfig::default())
            .synthesize(&p)
            .unwrap();
        (p, report.schedule)
    }

    #[test]
    fn simulated_metrics_match_schedule_metrics() {
        let (p, s) = solved(3);
        let sim = NetworkSimulator::new(&p, &s);
        let result = sim.run(SimConfig::default());
        assert!(result.is_clean(), "violations: {:?}", result.violations);
        let analytic = s.app_metrics(p.applications().len());
        for (flow, expected) in result.flows.iter().zip(analytic.iter()) {
            assert!(flow.delivered > 0);
            assert_eq!(flow.latency, expected.latency);
            assert_eq!(flow.jitter, expected.jitter);
            assert_eq!(flow.max_end_to_end, expected.max_end_to_end);
        }
    }

    #[test]
    fn corrupted_schedule_is_flagged() {
        let (p, mut s) = solved(1);
        // Open the second gate far too early: the frame has not arrived yet.
        if s.messages[0].link_release.len() > 1 {
            s.messages[0].link_release[1].1 = s.messages[0].link_release[0].1;
            let sim = NetworkSimulator::new(&p, &s);
            let result = sim.run(SimConfig::default());
            assert!(!result.is_clean());
            assert!(result
                .violations
                .iter()
                .any(|v| matches!(v, Violation::GateBeforeArrival { .. })));
        }
    }

    #[test]
    fn overlapping_frames_are_flagged() {
        let (p, mut s) = solved(2);
        // Force message 1 to copy message 0's exact transmissions.
        let clone = s.messages[0].clone();
        let target_app = s.messages[1].message.app;
        let target_instance = s.messages[1].message.instance;
        s.messages[1].route = clone.route.clone();
        s.messages[1].link_release = clone.link_release.clone();
        s.messages[1].end_to_end = clone.end_to_end;
        s.messages[1].message.release = clone.message.release;
        let _ = (target_app, target_instance);
        let sim = NetworkSimulator::new(&p, &s);
        let result = sim.run(SimConfig::default());
        assert!(result
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LinkOverlap { .. })));
    }

    #[test]
    fn background_traffic_does_not_disturb_scheduled_flows() {
        let (p, s) = solved(2);
        let sim = NetworkSimulator::new(&p, &s);
        let quiet = sim.run(SimConfig::default());
        let loaded = sim.run(SimConfig {
            background_load: 0.8,
            ..SimConfig::default()
        });
        assert!(loaded.background_frames > 0);
        assert!(loaded.is_clean());
        for (a, b) in quiet.flows.iter().zip(loaded.flows.iter()) {
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.jitter, b.jitter);
        }
    }

    #[test]
    fn multiple_hyperperiods_scale_delivery_counts() {
        let (p, s) = solved(1);
        let sim = NetworkSimulator::new(&p, &s);
        let one = sim.run(SimConfig {
            hyperperiods: 1,
            ..SimConfig::default()
        });
        let four = sim.run(SimConfig {
            hyperperiods: 4,
            ..SimConfig::default()
        });
        assert_eq!(four.flows[0].delivered, 4 * one.flows[0].delivered);
    }
}
