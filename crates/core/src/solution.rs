//! Synthesized schedules: per-message routes and release times, per-switch
//! configuration tables, and per-application latency/jitter metrics.

use std::collections::BTreeMap;

use tsn_net::{LinkId, NodeId, Route, Time, Topology};

use crate::{MessageInstance, SynthesisProblem};

/// The synthesized route and schedule of one message instance.
#[derive(Debug, Clone)]
pub struct MessageSchedule {
    /// Which message this schedules.
    pub message: MessageInstance,
    /// The selected route from sensor to controller.
    pub route: Route,
    /// Release time on every directed link of the route, in route order.
    /// The first entry is the sensor's own transmission (equal to the
    /// message release time), the following entries are the switch egress
    /// release times `gamma_ijk`.
    pub link_release: Vec<(LinkId, Time)>,
    /// End-to-end delay of this message (arrival at the controller minus
    /// release at the sensor).
    pub end_to_end: Time,
}

/// Latency, jitter and worst-case end-to-end delay of one application, as
/// reported in the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppMetrics {
    /// The constant part of the delay: `L_i = min_j e2e_{i,j}` (Eq. 9).
    pub latency: Time,
    /// The delay variation: `J_i = max_j e2e_{i,j} - L_i` (Eq. 9).
    pub jitter: Time,
    /// The worst-case end-to-end delay `max_j e2e_{i,j}`.
    pub max_end_to_end: Time,
}

/// One entry of a switch's forwarding table: message `m_{i,j}` arriving at
/// this switch leaves through `output_port` (the variable `eta_ijk`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardingEntry {
    /// Application index.
    pub app: usize,
    /// Message instance within the hyper-period.
    pub instance: usize,
    /// The egress link (output port) the message is forwarded to.
    pub output_port: LinkId,
}

/// One entry of a switch's gate-control list: message `m_{i,j}` is released
/// on `port` at `release` (the variable `gamma_ijk`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateControlEntry {
    /// Application index.
    pub app: usize,
    /// Message instance within the hyper-period.
    pub instance: usize,
    /// The egress link (output port) the entry applies to.
    pub port: LinkId,
    /// The release (gate-open) time within the hyper-period.
    pub release: Time,
}

/// The configuration stored in one switch: its forwarding table and its
/// gate-control list, which is exactly the pair of design-time outputs
/// (`eta_ijk`, `gamma_ijk`) the paper's Section III asks for.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// The switch this configuration belongs to.
    pub switch: NodeId,
    /// Forwarding entries, one per message that traverses this switch.
    pub forwarding: Vec<ForwardingEntry>,
    /// Gate-control entries, sorted by release time.
    pub gates: Vec<GateControlEntry>,
}

/// A complete synthesized schedule for one hyper-period.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The hyper-period the schedule repeats with.
    pub hyperperiod: Time,
    /// One entry per message instance.
    pub messages: Vec<MessageSchedule>,
}

impl Schedule {
    /// Per-application latency, jitter and worst-case end-to-end delay
    /// (Eq. 9), indexed by application.
    pub fn app_metrics(&self, app_count: usize) -> Vec<AppMetrics> {
        let mut min_e2e: Vec<Option<Time>> = vec![None; app_count];
        let mut max_e2e: Vec<Option<Time>> = vec![None; app_count];
        for m in &self.messages {
            let a = m.message.app;
            min_e2e[a] = Some(match min_e2e[a] {
                Some(v) => v.min(m.end_to_end),
                None => m.end_to_end,
            });
            max_e2e[a] = Some(match max_e2e[a] {
                Some(v) => v.max(m.end_to_end),
                None => m.end_to_end,
            });
        }
        (0..app_count)
            .map(|a| {
                let lo = min_e2e[a].unwrap_or(Time::ZERO);
                let hi = max_e2e[a].unwrap_or(Time::ZERO);
                AppMetrics {
                    latency: lo,
                    jitter: hi - lo,
                    max_end_to_end: hi,
                }
            })
            .collect()
    }

    /// The per-switch configuration tables (forwarding + gate control lists)
    /// implied by this schedule.
    pub fn switch_configs(&self, topology: &Topology) -> Vec<SwitchConfig> {
        let mut by_switch: BTreeMap<NodeId, SwitchConfig> = BTreeMap::new();
        for m in &self.messages {
            // Skip the first link (the sensor's own transmission): only
            // switch egress ports carry configuration.
            for (link, release) in m.link_release.iter().skip(1) {
                let switch = topology.link(*link).source();
                let entry = by_switch.entry(switch).or_insert_with(|| SwitchConfig {
                    switch,
                    forwarding: Vec::new(),
                    gates: Vec::new(),
                });
                entry.forwarding.push(ForwardingEntry {
                    app: m.message.app,
                    instance: m.message.instance,
                    output_port: *link,
                });
                entry.gates.push(GateControlEntry {
                    app: m.message.app,
                    instance: m.message.instance,
                    port: *link,
                    release: *release,
                });
            }
        }
        let mut configs: Vec<SwitchConfig> = by_switch.into_values().collect();
        for c in &mut configs {
            c.gates.sort_by_key(|g| (g.release, g.port));
            c.forwarding.sort_by_key(|f| (f.app, f.instance));
        }
        configs
    }

    /// The messages of one application, in instance order.
    pub fn messages_of_app(&self, app: usize) -> Vec<&MessageSchedule> {
        let mut v: Vec<&MessageSchedule> = self
            .messages
            .iter()
            .filter(|m| m.message.app == app)
            .collect();
        v.sort_by_key(|m| m.message.instance);
        v
    }

    /// The stability margins (Eq. 3) of every application under this
    /// schedule, in seconds.
    pub fn stability_margins(&self, problem: &SynthesisProblem) -> Vec<f64> {
        let metrics = self.app_metrics(problem.applications().len());
        problem
            .applications()
            .iter()
            .zip(metrics.iter())
            .map(|(app, m)| app.stability_margin(m.latency, m.jitter))
            .collect()
    }

    /// The number of applications whose stability condition (Eq. 10) holds
    /// under this schedule.
    pub fn stable_application_count(&self, problem: &SynthesisProblem) -> usize {
        self.stability_margins(problem)
            .iter()
            .filter(|&&margin| margin >= 0.0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MessageInstance;
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec};

    /// Builds a tiny handcrafted schedule over the Figure-1 network.
    fn handcrafted() -> (SynthesisProblem, Schedule) {
        let net = builders::figure1_example(LinkSpec::automotive_10mbps());
        let topo = net.topology.clone();
        let mut problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
        problem
            .add_application(
                "a0",
                net.sensors[0],
                net.controllers[0],
                Time::from_millis(20),
                1500,
                PiecewiseLinearBound::single_segment(1.5, 0.030),
            )
            .unwrap();
        let route = topo
            .shortest_route(net.sensors[0], net.controllers[0])
            .unwrap();
        let ld = Time::from_micros(1200);
        let sd = Time::from_micros(5);
        let make = |j: usize, extra: Time| {
            let release = Time::from_millis(20) * j as i64;
            let mut link_release = Vec::new();
            let mut t = release;
            for (idx, &link) in route.links().iter().enumerate() {
                if idx > 0 {
                    t = t + ld + sd + extra;
                }
                link_release.push((link, t));
            }
            let arrival = link_release.last().unwrap().1 + ld;
            MessageSchedule {
                message: MessageInstance {
                    app: 0,
                    instance: j,
                    release,
                },
                route: route.clone(),
                link_release,
                end_to_end: arrival - release,
            }
        };
        let schedule = Schedule {
            hyperperiod: Time::from_millis(20),
            messages: vec![make(0, Time::ZERO), make(1, Time::from_micros(100))],
        };
        (problem, schedule)
    }

    #[test]
    fn metrics_compute_latency_and_jitter() {
        let (problem, schedule) = handcrafted();
        let metrics = schedule.app_metrics(1);
        assert_eq!(metrics.len(), 1);
        let m = metrics[0];
        assert!(m.jitter > Time::ZERO);
        assert_eq!(m.max_end_to_end, m.latency + m.jitter);
        // Hop count of the shortest route is at least 3 (sensor -> switch ->
        // ... -> controller), so the latency is at least 3 * ld.
        assert!(m.latency >= Time::from_micros(3600));
        let margins = schedule.stability_margins(&problem);
        assert_eq!(margins.len(), 1);
        assert!(margins[0] > 0.0);
        assert_eq!(schedule.stable_application_count(&problem), 1);
    }

    #[test]
    fn switch_configs_cover_every_switch_hop() {
        let (problem, schedule) = handcrafted();
        let configs = schedule.switch_configs(problem.topology());
        let switch_hops: usize = schedule
            .messages
            .iter()
            .map(|m| m.link_release.len() - 1)
            .sum();
        let total_entries: usize = configs.iter().map(|c| c.gates.len()).sum();
        assert_eq!(total_entries, switch_hops);
        for c in &configs {
            assert!(problem.topology().node(c.switch).kind().is_switch());
            assert_eq!(c.gates.len(), c.forwarding.len());
            // Gates sorted by release time.
            assert!(c.gates.windows(2).all(|w| w[0].release <= w[1].release));
            // Every egress port named in the config belongs to this switch.
            for g in &c.gates {
                assert_eq!(problem.topology().link(g.port).source(), c.switch);
            }
        }
    }

    #[test]
    fn messages_of_app_sorted_by_instance() {
        let (_, schedule) = handcrafted();
        let msgs = schedule.messages_of_app(0);
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].message.instance, 0);
        assert_eq!(msgs[1].message.instance, 1);
        assert!(schedule.messages_of_app(1).is_empty());
    }
}
