//! `tsn_benchmark` — the repository's reference meter: seven named
//! workloads, generated from a seed, each reporting end-to-end metrics from
//! an untraced pass and per-layer metrics from a traced one. See the
//! `README.md` beside this file for why each workload and metric exists.
//!
//! ```text
//! tsn_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! tsn_benchmark [--seed N] [--seconds S] [--trace 0|1] [--out FILE]  # whole suite
//! tsn_benchmark --aa N [--seed N] [--seconds S]                      # A/A check
//! ```
//!
//! A single-workload run prints every metric by name with its unit and, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when any
//! checked output was wrong.

mod check;
mod children;
mod fleet;
mod layers;
mod loadgen;
mod online;
mod paper;
mod procfs;
mod report;
mod scale;
mod serve;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;

/// The workloads, in suite order. Later issues cite these names.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "scale_flagship",
        "500 streams on an 80-switch fat-tree: greedy placement, then SMT repair of 3 in 4 apps",
    ),
    (
        "scale_smt",
        "100 streams, every partition solved by SMT: same crate, solver dominant, repair idle",
    ),
    (
        "paper_automotive",
        "the paper's Table I case study through the monolithic synthesizer; tsn_scale idle",
    ),
    (
        "online_churn",
        "110 admissions, removals and link failures through one warm incremental engine",
    ),
    (
        "serve_hot",
        "cache-hit synthesize requests to one daemon: the serving plane with the solver idle",
    ),
    (
        "serve_cold",
        "1024 distinct problems walked through a 256-entry cache: every request is a solve",
    ),
    (
        "fleet_mixed",
        "router and two shards, eight tenants mixing stateful events with cached synthesize",
    ),
];

/// Hard limit on one workload run; past it the children are killed and the
/// process exits non-zero without a result.
const WORKLOAD_TIMEOUT: Duration = Duration::from_secs(170);

/// How one workload run is sized and where it may write.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Every generated input derives from this.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Telemetry on, spans around each call into a layer, per-layer output.
    pub traced: bool,
    /// Tiny instances, one repetition: plumbing only, numbers meaningless.
    pub smoke: bool,
    /// Directory for port files and trace dumps, inside the build directory.
    pub scratch: PathBuf,
}

/// Runs `setup` repeatedly — at least five times, and cheap set-ups for a
/// fifth of a second — and returns the last value with the time of every
/// set-up. The in-process workloads call this once before and once after
/// their timed region and report the median of all samples as `setup_s`: a
/// set-up of microseconds sampled in one short stretch reads whichever way
/// the host leaned during that stretch.
pub fn repeat_setup<T>(opts: &RunOptions, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let begin = Instant::now();
    loop {
        let start = Instant::now();
        let value = std::hint::black_box(setup());
        seconds.push(start.elapsed().as_secs_f64());
        if opts.smoke || (seconds.len() >= 5 && begin.elapsed().as_secs_f64() >= 0.2) {
            return (value, seconds);
        }
    }
}

/// Wall times of the repetitions of an in-process workload.
pub struct Reps {
    /// Seconds per untraced repetition.
    pub walls: Vec<f64>,
    /// `(traced − untraced) ÷ untraced`, from one repetition each.
    pub overhead: Option<f64>,
}

/// Repeats `rep` until the timed region is used up, at least `min_reps`
/// times. A traced run instead does one repetition with telemetry off and
/// one with it on.
pub fn run_reps(
    opts: &RunOptions,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Duration,
) -> Reps {
    if opts.traced {
        let base = rep(0).as_secs_f64();
        tsn_telemetry::set_enabled(true);
        let traced = rep(1).as_secs_f64();
        tsn_telemetry::set_enabled(false);
        return Reps {
            walls: vec![base],
            overhead: Some((traced - base) / base),
        };
    }
    let min_reps = if opts.smoke { 1 } else { min_reps };
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < min_reps || (!opts.smoke && start.elapsed().as_secs_f64() < opts.seconds) {
        walls.push(rep(walls.len()).as_secs_f64());
    }
    Reps {
        walls,
        overhead: None,
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, opts: &RunOptions) -> Option<Outcome> {
    let mut outcome = match name {
        "scale_flagship" => scale::run(scale::ScaleSpec::FLAGSHIP, opts),
        "scale_smt" => scale::run(scale::ScaleSpec::SMT, opts),
        "paper_automotive" => paper::run(opts),
        "online_churn" => online::run(opts),
        "serve_hot" => serve::run(serve::ServeSpec::HOT, opts),
        "serve_cold" => serve::run(serve::ServeSpec::COLD, opts),
        "fleet_mixed" => fleet::run(opts),
        _ => return None,
    };
    // In-process workloads are metered on this process; the serving
    // workloads have already summed their children.
    if outcome.get("peak_rss_mib").is_none() {
        if let Some(mib) = procfs::peak_rss_mib(procfs::SELF) {
            outcome.set("peak_rss_mib", mib);
        }
    }
    Some(outcome)
}

/// Where port files and trace dumps go: beside the build's profile
/// directory, under a name no cargo artifact has.
fn scratch_dir() -> PathBuf {
    // `<target>/release/tsn_benchmark` → `<target>/tsn_benchmark.scratch/`.
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let profile_dir = exe.parent().expect("an executable lives in a directory");
    profile_dir
        .parent()
        .unwrap_or(profile_dir)
        .join("tsn_benchmark.scratch")
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    aa: Option<usize>,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        aa: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value"))
                .cloned()
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {text:?}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => {
                let text = value()?;
                cli.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got {text:?}"))?;
            }
            "--trace" => cli.traced = number(value()?)? != 0,
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = Some(number(value()?)?.max(1) as usize),
            "--out" => cli.out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("tsn_benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        let settings = suite::Settings {
            seed: cli.seed,
            seconds: cli.seconds,
            traced: cli.traced,
            out: cli.out,
        };
        return match cli.aa {
            Some(n) => suite::run_aa(&settings, n),
            None => suite::run_suite(&settings),
        };
    };

    let scratch = scratch_dir().join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("tsn_benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let opts = RunOptions {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        smoke: cli.smoke,
        scratch: scratch.clone(),
    };
    children::arm_watchdog(WORKLOAD_TIMEOUT);
    let Some(outcome) = run_workload(&workload, &opts) else {
        eprintln!(
            "tsn_benchmark: unknown workload {workload:?}; known: {}",
            WORKLOADS.map(|(name, _)| name).join(", ")
        );
        return ExitCode::from(2);
    };
    if opts.traced {
        let path = scratch_dir().join(format!("trace-{workload}.json"));
        match tsn_telemetry::dump_chrome_trace(&path) {
            Ok(()) => println!("{workload} trace written to {}", path.display()),
            Err(e) => eprintln!("tsn_benchmark: cannot write {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    outcome.print_metrics(&workload);
    println!("{}", outcome.result_line(opts.traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_options(scratch: &std::path::Path) -> RunOptions {
        RunOptions {
            seed: 7,
            seconds: 0.1,
            traced: false,
            smoke: true,
            scratch: scratch.to_path_buf(),
        }
    }

    /// The in-process plumbing end to end on tiny instances: generate,
    /// synthesize or replay, verify, simulate, report every end-to-end
    /// metric.
    #[test]
    fn smoke_runs_the_in_process_workloads_end_to_end() {
        let scratch = scratch_dir().join(format!("unit-test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("scratch directory");
        let opts = smoke_options(&scratch);
        for workload in ["scale_flagship", "online_churn"] {
            let outcome = run_workload(workload, &opts).expect("known workload");
            assert!(outcome.correct(), "{workload}: {:?}", outcome.failures());
            let line = outcome.result_line(false);
            assert!(line.starts_with("{\"correct\":true"), "{workload}: {line}");
            assert!(outcome.get("tsn_sim.replay_s").is_some(), "{workload}");
        }
        assert!(run_workload("no_such_workload", &opts).is_none());
        std::fs::remove_dir_all(&scratch).expect("the test's own scratch directory");
    }

    #[test]
    fn the_command_line_is_the_contract() {
        let args = |text: &str| -> Vec<String> { text.split(' ').map(str::to_string).collect() };
        let cli = parse_cli(&args(
            "--workload serve_hot --seed 42 --seconds 7 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_hot"));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (42, 7.0, true));
        let cli = parse_cli(&args("--workload serve_hot --trace 0")).unwrap();
        assert_eq!((cli.seed, cli.seconds, cli.traced), (1, 10.0, false));
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        assert!(parse_cli(&args("--frobnicate")).is_err());
    }
}
