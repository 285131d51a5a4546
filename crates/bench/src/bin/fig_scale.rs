//! Large-scale synthesis: partitioned parallel solve time vs. stream count,
//! against the monolithic solver.
//!
//! For each stream count the same generated instance (fat-tree fabric,
//! mixed gigabit/fast links) is solved three times:
//!
//! * **heuristic-first** — `tsn_scale`'s greedy first-fit placement against
//!   one shared occupancy table, with SMT repair only for the stragglers
//!   (`SynthesisStrategy::HeuristicFirst`);
//! * **partitioned** — the contention-partitioned parallel SMT solver with
//!   conflict repair (fallback disabled, so the numbers are honest);
//! * **monolithic** — the paper-faithful `tsn_synthesis` path under a
//!   wall-clock budget; on the larger instances it is expected to time out,
//!   which is recorded as `solved = false` with the budget as its time.
//!
//! Output: a human-readable table plus a JSON document (written to `--out`,
//! default `fig_scale.json`, and echoed to stdout prefixed `JSON:`) with one
//! point per instance — solve times, speedups, partition/repair statistics,
//! aggregated solver counters and stability counts. `--smoke` runs the
//! single 500-stream flagship instance (the heavy CI job uploads its JSON as
//! a build artifact); `--full` sweeps to 2000 streams.
//!
//! `--bench-json PATH` additionally *appends* one JSON line per 500-stream
//! point to `PATH` — the workspace's perf trajectory (`BENCH_scale.json`):
//! every perf PR appends one line, so regressions are visible across the
//! whole history. The schema is the flat object written by
//! [`Point::bench_line`]; since the telemetry PR it includes the
//! `heuristic_p95_us`/`repair_p95_us` phase percentiles (one placement pass
//! and at most one straggler repair per run) from the `tsn_telemetry`
//! histograms, scoped to **this run** via
//! `Histogram::delta_since` snapshots (the registry is process-cumulative,
//! and the sweep solves every instance three times in one process).
//!
//! `--trace-out PATH` turns the flight recorder on and writes every span of
//! the run (partition solves, heuristic placement, repair rounds, SMT
//! phases) as chrome-trace JSON to `PATH`.

use std::time::{Duration, Instant};

use tsn_bench::{print_table, seconds};
use tsn_net::json::Json;
use tsn_scale::{ScaleConfig, ScaleReport, ScaleSynthesizer, SynthesisStrategy};
use tsn_synthesis::{SynthesisError, Synthesizer};
use tsn_workload::{large_scale_problem, LargeScaleScenario, LargeTopology};

/// Solver counters aggregated over every stage of one synthesis run.
#[derive(Default)]
struct SolverTotals {
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    theory_checks: u64,
    restarts: u64,
    theory_scratch_reuses: u64,
    deleted_clauses: u64,
    peak_live_clauses: u64,
}

impl SolverTotals {
    fn from_report(report: &ScaleReport) -> Self {
        let mut totals = SolverTotals::default();
        for stage in &report.report.stages {
            totals.decisions += stage.decisions;
            totals.conflicts += stage.conflicts;
            totals.propagations += stage.propagations;
            totals.theory_checks += stage.theory_checks;
            totals.restarts += stage.restarts;
            totals.theory_scratch_reuses += stage.theory_scratch_reuses;
            totals.deleted_clauses += stage.deleted_clauses;
            totals.peak_live_clauses = totals.peak_live_clauses.max(stage.peak_live_clauses);
        }
        totals
    }
}

/// One measured sweep point.
struct Point {
    streams: usize,
    switches: usize,
    messages: usize,
    heuristic_seconds: f64,
    heuristic_solved: bool,
    heuristic_placed: usize,
    heuristic_repaired: usize,
    heuristic_fallbacks: usize,
    heuristic_stable: usize,
    /// Bucket bound of the one placement pass: the delta of the
    /// process-wide `scale_heuristic_seconds` histogram across exactly this
    /// point's heuristic-first run (snapshot before, delta after), so
    /// earlier sweep points and the pure-SMT runs cannot leak in.
    heuristic_p95_us: f64,
    /// p95 of the straggler-repair time, from the same-scoped
    /// delta of `scale_repair_seconds`. Exactly `0.0` when the run repaired
    /// nothing (`repaired_apps == 0`) — straggler repair is a separate
    /// histogram from the cross-partition conflict-repair rounds, which
    /// used to pollute this number.
    repair_p95_us: f64,
    solver: SolverTotals,
    partitioned_seconds: f64,
    partitioned_solved: bool,
    partitions: usize,
    repair_rounds: usize,
    threads: usize,
    stable: usize,
    monolithic_seconds: f64,
    monolithic_solved: bool,
    monolithic_timed_out: bool,
    monolithic_budget_secs: f64,
}

impl Point {
    fn speedup(&self) -> f64 {
        if self.partitioned_seconds > 0.0 {
            self.monolithic_seconds / self.partitioned_seconds
        } else {
            f64::INFINITY
        }
    }

    /// Wall-time gain of heuristic-first over the pure-SMT partitioned path.
    fn heuristic_speedup(&self) -> f64 {
        if self.heuristic_seconds > 0.0 {
            self.partitioned_seconds / self.heuristic_seconds
        } else {
            f64::INFINITY
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("streams", Json::from(self.streams)),
            ("switches", Json::from(self.switches)),
            ("messages", Json::from(self.messages)),
            ("heuristic_seconds", Json::Float(self.heuristic_seconds)),
            ("heuristic_solved", Json::Bool(self.heuristic_solved)),
            ("heuristic_placed_apps", Json::from(self.heuristic_placed)),
            (
                "heuristic_repaired_apps",
                Json::from(self.heuristic_repaired),
            ),
            (
                "heuristic_fallback_partitions",
                Json::from(self.heuristic_fallbacks),
            ),
            (
                "heuristic_stable_applications",
                Json::from(self.heuristic_stable),
            ),
            ("heuristic_p95_us", Json::Float(self.heuristic_p95_us)),
            ("repair_p95_us", Json::Float(self.repair_p95_us)),
            ("heuristic_speedup", Json::Float(self.heuristic_speedup())),
            ("partitioned_seconds", Json::Float(self.partitioned_seconds)),
            ("partitioned_solved", Json::Bool(self.partitioned_solved)),
            ("partitions", Json::from(self.partitions)),
            ("repair_rounds", Json::from(self.repair_rounds)),
            ("threads", Json::from(self.threads)),
            ("stable_applications", Json::from(self.stable)),
            ("monolithic_seconds", Json::Float(self.monolithic_seconds)),
            ("monolithic_solved", Json::Bool(self.monolithic_solved)),
            (
                "monolithic_timed_out",
                Json::Bool(self.monolithic_timed_out),
            ),
            (
                "monolithic_budget_secs",
                Json::Float(self.monolithic_budget_secs),
            ),
            ("speedup", Json::Float(self.speedup())),
        ])
    }

    /// The flat perf-trajectory line appended to `BENCH_scale.json`: solve
    /// times of all three paths, heuristic placement statistics and the
    /// aggregated solver counters of the heuristic-first run.
    fn bench_line(&self) -> Json {
        Json::obj([
            ("streams", Json::from(self.streams)),
            ("messages", Json::from(self.messages)),
            ("heuristic_seconds", Json::Float(self.heuristic_seconds)),
            ("heuristic_solved", Json::Bool(self.heuristic_solved)),
            ("partitioned_seconds", Json::Float(self.partitioned_seconds)),
            ("monolithic_seconds", Json::Float(self.monolithic_seconds)),
            ("heuristic_speedup", Json::Float(self.heuristic_speedup())),
            ("heuristic_p95_us", Json::Float(self.heuristic_p95_us)),
            ("repair_p95_us", Json::Float(self.repair_p95_us)),
            ("placed_apps", Json::from(self.heuristic_placed)),
            ("repaired_apps", Json::from(self.heuristic_repaired)),
            ("fallback_partitions", Json::from(self.heuristic_fallbacks)),
            ("decisions", Json::Int(self.solver.decisions as i64)),
            ("conflicts", Json::Int(self.solver.conflicts as i64)),
            ("propagations", Json::Int(self.solver.propagations as i64)),
            ("theory_checks", Json::Int(self.solver.theory_checks as i64)),
            ("restarts", Json::Int(self.solver.restarts as i64)),
            (
                "theory_scratch_reuses",
                Json::Int(self.solver.theory_scratch_reuses as i64),
            ),
            (
                "deleted_clauses",
                Json::Int(self.solver.deleted_clauses as i64),
            ),
            (
                "peak_live_clauses",
                Json::Int(self.solver.peak_live_clauses as i64),
            ),
        ])
    }
}

fn scale_config(stage_timeout: Duration) -> ScaleConfig {
    ScaleConfig {
        synthesis: tsn_synthesis::SynthesisConfig {
            timeout_per_stage: Some(stage_timeout),
            ..ScaleConfig::default().synthesis
        },
        // Honest comparison: a partitioned failure is reported as such
        // rather than silently costing a monolithic solve.
        fallback_monolithic: false,
        ..ScaleConfig::default()
    }
}

fn run_point(streams: usize, budget_override: Option<Duration>, stage_timeout: Duration) -> Point {
    let scenario = LargeScaleScenario {
        topology: LargeTopology::FatTree,
        switches: 80,
        streams,
        seed: 1,
        fast_stream_percent: 12,
    };
    let problem = large_scale_problem(&scenario).expect("generator instances are well-formed");
    let switches = problem.topology().switches().len();
    let messages = problem.message_count();

    let heuristic_config = ScaleConfig {
        strategy: SynthesisStrategy::HeuristicFirst,
        ..scale_config(stage_timeout)
    };
    // Scope the phase percentiles to exactly this heuristic-first run: the
    // registry histograms are process-cumulative (earlier sweep points and
    // the pure-SMT runs below observe into them too), so snapshot before
    // and take the delta after.
    let registry = tsn_telemetry::registry();
    let heuristic_hist = registry.histogram("scale_heuristic_seconds");
    let repair_hist = registry.histogram("scale_repair_seconds");
    let heuristic_before = heuristic_hist.snapshot();
    let repair_before = repair_hist.snapshot();
    let heuristic_start = Instant::now();
    let heuristic = ScaleSynthesizer::new(heuristic_config).synthesize(&problem);
    let heuristic_seconds = heuristic_start.elapsed().as_secs_f64();
    let heuristic_p95_us = heuristic_hist
        .delta_since(&heuristic_before)
        .p95()
        .as_secs_f64()
        * 1e6;
    let repair_delta = repair_hist.delta_since(&repair_before);
    // An empty delta reports 0.0, not a bucket bound: no repairs, no p95.
    let repair_p95_us = if repair_delta.count() == 0 {
        0.0
    } else {
        repair_delta.p95().as_secs_f64() * 1e6
    };
    let (heuristic_solved, heuristic_placed, heuristic_repaired, heuristic_fallbacks, hstable) =
        match &heuristic {
            Ok(report) => (
                true,
                report.heuristic.placed_apps,
                report.heuristic.repaired_apps,
                report.heuristic.fallback_partitions,
                report.report.stable_applications,
            ),
            Err(_) => (false, 0, 0, 0, 0),
        };
    let solver = heuristic
        .as_ref()
        .map(SolverTotals::from_report)
        .unwrap_or_default();

    let partitioned_start = Instant::now();
    let partitioned = ScaleSynthesizer::new(scale_config(stage_timeout)).synthesize(&problem);
    let partitioned_seconds = partitioned_start.elapsed().as_secs_f64();
    let (partitioned_solved, partitions, repair_rounds, threads, stable) = match &partitioned {
        Ok(report) => (
            true,
            report.partitions.len(),
            report.repairs.len(),
            report.threads,
            report.report.stable_applications,
        ),
        Err(_) => (false, 0, 0, 0, 0),
    };

    // Monolithic attempt under a wall-clock budget (single stage: the
    // staging heuristic would change the explored space). The budget scales
    // with the measured partitioned time so a timeout certifies at least a
    // 6x gap on any hardware, without burning unbounded CI minutes.
    let monolithic_budget = budget_override.unwrap_or_else(|| {
        Duration::from_secs_f64((partitioned_seconds * 6.0).clamp(120.0, 900.0))
    });
    let monolithic_config = tsn_synthesis::SynthesisConfig {
        timeout_per_stage: Some(monolithic_budget),
        ..scale_config(stage_timeout).synthesis
    };
    let monolithic_start = Instant::now();
    let monolithic = Synthesizer::new(monolithic_config).synthesize(&problem);
    let monolithic_seconds = monolithic_start.elapsed().as_secs_f64();
    let (monolithic_solved, monolithic_timed_out) = match &monolithic {
        Ok(_) => (true, false),
        Err(SynthesisError::ResourceLimit { .. }) => (false, true),
        Err(_) => (false, false),
    };

    Point {
        streams,
        switches,
        messages,
        heuristic_seconds,
        heuristic_solved,
        heuristic_placed,
        heuristic_repaired,
        heuristic_fallbacks,
        heuristic_stable: hstable,
        heuristic_p95_us,
        repair_p95_us,
        solver,
        partitioned_seconds,
        partitioned_solved,
        partitions,
        repair_rounds,
        threads,
        stable,
        monolithic_seconds,
        monolithic_solved,
        monolithic_timed_out,
        monolithic_budget_secs: monolithic_budget.as_secs_f64(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "fig_scale.json".to_string());
    let bench_json = args
        .iter()
        .position(|a| a == "--bench-json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let budget_override = args
        .iter()
        .position(|a| a == "--monolithic-budget-secs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs);
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if trace_out.is_some() {
        tsn_telemetry::set_enabled(true);
    }
    let stage_timeout = Duration::from_secs(if full { 300 } else { 120 });

    let stream_counts: Vec<usize> = if smoke {
        vec![500]
    } else if full {
        vec![250, 500, 1000, 2000]
    } else {
        vec![100, 250, 500]
    };

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &streams in &stream_counts {
        let point = run_point(streams, budget_override, stage_timeout);
        rows.push(vec![
            point.streams.to_string(),
            point.messages.to_string(),
            point.switches.to_string(),
            format!(
                "{} ({} placed, {} repaired)",
                seconds(point.heuristic_seconds),
                point.heuristic_placed,
                point.heuristic_repaired
            ),
            format!(
                "{} ({} parts, {} repairs)",
                seconds(point.partitioned_seconds),
                point.partitions,
                point.repair_rounds
            ),
            if point.monolithic_solved {
                seconds(point.monolithic_seconds)
            } else if point.monolithic_timed_out {
                format!(">{}", seconds(point.monolithic_seconds))
            } else {
                "failed".to_string()
            },
            format!("{:.1}x", point.heuristic_speedup()),
            format!("{}/{}", point.stable, point.streams),
        ]);
        points.push(point);
    }

    print_table(
        "Large-scale synthesis: heuristic-first vs. partitioned vs. monolithic",
        &[
            "streams",
            "messages",
            "switches",
            "heuristic [s]",
            "partitioned [s]",
            "monolithic [s]",
            "heur. speedup",
            "stable",
        ],
        &rows,
    );

    let json = Json::obj([(
        "points",
        Json::Arr(points.iter().map(Point::to_json).collect()),
    )]);
    let text = json.to_string();
    println!("JSON:{text}");
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("could not write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if let Some(path) = trace_out {
        if let Err(e) = tsn_telemetry::dump_chrome_trace(&path) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("trace written to {path}");
    }

    if let Some(path) = bench_json {
        use std::io::Write;
        let mut lines = String::new();
        for point in points.iter().filter(|p| p.streams == 500) {
            lines.push_str(&point.bench_line().to_string());
            lines.push('\n');
        }
        if lines.is_empty() {
            eprintln!("--bench-json: no 500-stream point in this sweep, nothing appended");
        } else {
            let result = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(lines.as_bytes()));
            match result {
                Ok(()) => println!("appended {} line(s) to {path}", lines.lines().count()),
                Err(e) => {
                    eprintln!("could not append to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
