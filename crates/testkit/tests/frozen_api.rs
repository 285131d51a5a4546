//! The public API `tsn_benchmark/` compiles against, as a tier-1 test.
//!
//! The benchmark is a package outside the workspace, so `cargo build` and
//! `cargo test` at the root never compile it: a renamed path, a changed
//! signature or a dropped field breaks the benchmark without failing
//! anything here. This file fails instead. It has one `use` per path the
//! benchmark imports, coerces every function the benchmark calls to an
//! explicit `fn`-pointer type and destructures every struct whose fields the
//! benchmark reads. If this file stops compiling, the benchmark has stopped
//! compiling too: keep the old path (re-export it) or change the benchmark
//! and this file together.

#![allow(unused_imports, unused_variables)]

use std::io;
use std::time::Duration;

use tsn_control::PiecewiseLinearBound;
use tsn_net::builders::BuiltNetwork;
use tsn_net::framing::{FrameReader, MAX_LINE_BYTES};
use tsn_net::json::{Json, JsonError};
use tsn_net::poll::{
    serve_lines, Completions, ConnId, Interest, LineHandler, LineOutcome, PlaneConfig, Poller,
};
use tsn_net::{builders, LinkSpec, Time, Topology};
use tsn_online::{Decision, EventReport, NetworkEvent, OnlineConfig, OnlineEngine};
use tsn_router::Ring;
use tsn_scale::heuristic::{place_app, OccupancyTable};
use tsn_scale::{
    plan_partitions, HeuristicStats, PartitionPlan, ScaleConfig, ScaleReport, ScaleSynthesizer,
    SynthesisStrategy,
};
use tsn_service::protocol::{
    event_result_json, tenant_state_json, Backend, Request, RequestBody, Response,
};
use tsn_service::{synthesize_result_json, ResultCache, Service, ServiceConfig};
use tsn_sim::{NetworkSimulator, SimConfig, SimReport};
use tsn_smt::SolverStats;
use tsn_synthesis::wire::schedule_to_json;
use tsn_synthesis::{
    expand_messages, partition_into_stages, verify_schedule, ConstraintMode, MessageInstance,
    MessageSchedule, RouteCandidates, RouteStrategy, Schedule, StageEncoder, StageOutcome,
    StageReport, SynthesisConfig, SynthesisError, SynthesisProblem, SynthesisReport, Synthesizer,
};
use tsn_telemetry::{
    dump_chrome_trace, enabled, histogram_quantile, registry, sample_value, set_enabled, span,
    HistogramSnapshot,
};
use tsn_workload::{
    automotive_case_study, event_trace, large_scale_problem, pool_problem, service_trace,
    AutomotiveCaseStudy, DynamicScenario, DynamicTopology, LargeScaleScenario, LargeTopology,
    ServiceScenario, TenantTrace,
};

type Problem = &'static SynthesisProblem;
type Candidates = &'static RouteCandidates;
type Synthesis<T> = Result<T, SynthesisError>;

/// Every function the benchmark calls, at the type it calls it with.
#[rustfmt::skip]
#[test]
fn the_benchmark_signatures_still_hold() {
    let _: fn(Problem, &Schedule, ConstraintMode) -> Result<(), String> = verify_schedule;
    let _: fn(Problem) -> Vec<MessageInstance> = expand_messages;
    let _: fn(&[MessageInstance], Time, usize) -> Vec<Vec<MessageInstance>> = partition_into_stages;
    let _: fn(&Schedule) -> Json = schedule_to_json;
    let _: fn(Problem, RouteStrategy) -> Synthesis<RouteCandidates> = RouteCandidates::generate;
    let _: fn(SynthesisConfig) -> Synthesizer = Synthesizer::new;
    let _: fn(&Synthesizer, Problem) -> Synthesis<SynthesisReport> = Synthesizer::synthesize;
    let _: fn(Problem, Candidates, &'static SynthesisConfig) -> StageEncoder<'static> = StageEncoder::new;
    let _: fn(&mut StageEncoder<'static>, &[MessageInstance], &[MessageSchedule]) = StageEncoder::encode;
    let _: fn(&mut StageEncoder<'static>, &[MessageInstance]) -> (StageOutcome, SolverStats) = StageEncoder::solve;
    let _: fn(Problem, &'static Schedule) -> NetworkSimulator<'static> = NetworkSimulator::new;
    let _: fn(&NetworkSimulator<'static>, SimConfig) -> SimReport = NetworkSimulator::run;

    let _: fn() -> Synthesis<AutomotiveCaseStudy> = automotive_case_study;
    let _: fn(usize) -> SynthesisProblem = pool_problem;
    let _: fn(&DynamicScenario) -> (BuiltNetwork, Vec<NetworkEvent>) = event_trace;
    let _: fn(&LargeScaleScenario) -> Synthesis<SynthesisProblem> = large_scale_problem;
    let _: fn(&ServiceScenario) -> Vec<TenantTrace> = service_trace;

    let _: fn(Topology, Time, OnlineConfig) -> OnlineEngine = OnlineEngine::new;
    let _: fn(&mut OnlineEngine, NetworkEvent) -> EventReport = OnlineEngine::process;
    let _: fn(ScaleConfig) -> ScaleSynthesizer = ScaleSynthesizer::new;
    let _: fn(&ScaleSynthesizer, Problem) -> Synthesis<ScaleReport> = ScaleSynthesizer::synthesize;
    let _: fn(Problem, Candidates, usize) -> PartitionPlan = plan_partitions;
    let _: fn() -> OccupancyTable = OccupancyTable::new;
    type Placed = Option<Vec<MessageSchedule>>;
    let _: fn(Problem, Candidates, usize, &[MessageInstance], &mut OccupancyTable, ConstraintMode) -> Placed = place_app;

    let _: fn(Problem, &SynthesisConfig, Backend, usize) -> Result<Json, String> = synthesize_result_json;
    let _: fn(&EventReport) -> Json = event_result_json;
    let _: fn(&str, &OnlineEngine) -> Json = tenant_state_json;
    let _: fn(ServiceConfig) -> Service = Service::new;
    let _: fn(&Service, &str) -> String = Service::handle_line;
    let _: fn(usize) -> ResultCache<Json> = ResultCache::new;
    let _: fn(&mut ResultCache<Json>, &str) -> Option<Json> = ResultCache::get;
    let _: fn(&mut ResultCache<Json>, String, Json) = ResultCache::insert;
    let _: fn(&Request) -> String = Request::to_line;
    let _: fn(&str) -> Result<Response, JsonError> = Response::parse_line;
    let _: fn(&[String], &[bool]) -> Ring = Ring::build;
    let _: fn(&Ring, &str) -> Option<usize> = Ring::shard_for_tenant;
    let _: fn(usize) -> FrameReader = FrameReader::new;
    let _: fn() -> Poller = Poller::new;
    let _: fn() -> io::Result<Completions> = Completions::new;

    let _: fn(bool) = set_enabled;
    let _: fn() -> bool = enabled;
    let _: fn(&str, &str) -> Option<f64> = sample_value;
    let _: fn(&str, &str, f64) -> Option<f64> = histogram_quantile;
    let _: fn(String) -> io::Result<()> = dump_chrome_trace;
    let _: fn(&HistogramSnapshot) -> Duration = HistogramSnapshot::sum;
}

/// Every field the benchmark reads, as a pattern.
#[rustfmt::skip]
#[allow(dead_code)]
fn the_benchmark_field_reads_still_hold(
    response: Response, report: SynthesisReport, stage: StageReport, scale: ScaleReport,
    event: EventReport, sim: SimReport,
) {
    let Response { id, trace, cached, elapsed_us, retry_after_ms, outcome } = response;
    let SynthesisReport { schedule, app_metrics, stable_applications, stages, .. } = report;
    let Schedule { hyperperiod, messages } = schedule;
    let StageReport { decisions, conflicts, propagations, theory_checks, restarts, .. } = stage;
    let StageReport { deleted_clauses, peak_live_clauses, solve_time, .. } = stage;
    let ScaleReport { report, partitions, repairs, partition_wall_time, heuristic, .. } = scale;
    let HeuristicStats { placed_apps, repaired_apps, fallback_partitions, .. } = heuristic;
    let _: Option<(usize, Duration)> = repairs.first().map(|r| (r.resolved_apps, r.solve_time));
    let EventReport { decision, rescheduled, stable_loops, total_loops, .. } = event;
    if let Decision::Rejected { .. } | Decision::AdmittedFallback { .. } = decision {}
    let SimReport { flows, violations, .. } = sim;
}

/// The registry names the benchmark reads from a daemon's `metrics` reply.
const FROZEN_METRICS: [&str; 8] = [
    "requests_total",
    "solve_seconds",
    "service_queue_wait_seconds",
    "service_shed_total",
    "smt_decide_seconds",
    "smt_propagate_seconds",
    "smt_theory_seconds",
    "smt_reduce_db_seconds",
];

#[test]
fn the_daemon_exposes_every_frozen_metric() {
    let service = Service::new(ServiceConfig::default());
    let ask = |id, body| {
        let line = Request {
            id,
            trace: None,
            body,
        }
        .to_line();
        Response::parse_line(&service.handle_line(&line))
            .unwrap()
            .outcome
    };
    // One cold solve first, so the solver's metric families exist.
    let problem = pool_problem(0);
    let (config, backend) = (None, Backend::Auto);
    assert!(ask(
        1,
        RequestBody::Synthesize {
            problem,
            config,
            backend
        }
    )
    .is_ok());
    let metrics = ask(2, RequestBody::Metrics).unwrap();
    let exposition = metrics.get("exposition").and_then(Json::as_str).unwrap();
    for name in FROZEN_METRICS {
        assert!(
            exposition.contains(&format!("# TYPE {name} ")),
            "the benchmark reads {name}, which the daemon no longer exposes"
        );
    }
}
