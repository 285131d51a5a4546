//! The whole suite and the A/A check. Every workload run is a child
//! process of this same executable, so each starts with a fresh allocator,
//! telemetry registry and memory high-water mark.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use tsn_net::json::Json;

use crate::report::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::WORKLOADS;

pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: Option<String>,
}

/// The parsed result line of one workload run.
struct RunResult {
    correct: bool,
    attempted: i64,
    failed: i64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process, passing its output through, and
/// parses the result line.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload} printed nothing (exit {})", output.status))?;
    for line in lines {
        println!("  {line}");
    }
    let json = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = json.get("metrics") {
        for (name, entry) in pairs {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), value);
            }
        }
    }
    Ok(RunResult {
        correct: json.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
        attempted: json.get("attempted").and_then(Json::as_i64).unwrap_or(0),
        failed: json.get("failed").and_then(Json::as_i64).unwrap_or(0),
        metrics,
    })
}

fn metrics_json(defs: &[crate::report::MetricDef], result: &RunResult) -> Json {
    Json::obj(defs.iter().filter_map(|def| {
        let value = *result.metrics.get(def.name)?;
        Some((
            def.name,
            Json::obj([
                ("value", Json::Float(value)),
                ("unit", Json::from(def.unit)),
            ]),
        ))
    }))
}

/// Runs all seven workloads untraced (and, with `--trace 1`, once more
/// traced), prints every metric, and writes the collected results to
/// `--out`.
pub fn run_suite(settings: &Settings) -> ExitCode {
    let mut all_correct = true;
    let mut document = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        let mut entry = vec![("why".to_string(), Json::from(why))];
        let mut passes = vec![(false, END_TO_END, "end_to_end")];
        if settings.traced {
            passes.push((true, PER_LAYER, "per_layer"));
        }
        for (traced, defs, key) in passes {
            match run_child(workload, settings.seed, settings.seconds, traced) {
                Ok(result) => {
                    all_correct &= result.correct;
                    println!(
                        "{workload} {key}: correct={} failed={} of {}",
                        result.correct, result.failed, result.attempted
                    );
                    entry.push((key.to_string(), metrics_json(defs, &result)));
                    entry.push((format!("{key}_correct"), Json::Bool(result.correct)));
                }
                Err(why) => {
                    all_correct = false;
                    eprintln!("tsn_benchmark: {why}");
                }
            }
        }
        document.push((workload.to_string(), Json::Obj(entry)));
    }
    let document = Json::obj([
        ("seed", Json::Int(settings.seed as i64)),
        ("seconds", Json::Float(settings.seconds)),
        ("workloads", Json::Obj(document)),
    ]);
    if let Some(path) = &settings.out {
        if let Err(e) = std::fs::write(path, format!("{document}\n")) {
            eprintln!("tsn_benchmark: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("tsn_benchmark: at least one workload reported wrong outputs");
        ExitCode::FAILURE
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Bound {
    name: String,
    bound: f64,
}

/// Reads the regression bounds from `BENCHMARK.json` in the current
/// directory — the one place they are written down.
fn read_bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            Ok(Bound {
                name: entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("end_to_end entry without a name")?
                    .to_string(),
                bound: entry
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// Share by which `b` differs from `a`.
pub fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// A/A: the suite `n` times as set A and `n` times as set B, run `i` of
/// either set on seed `seed + i`. Prints both sets' medians and quartile
/// distances and fails when a median moved by more than the metric's bound,
/// when a workload was wrong, or when an exact count of an in-process
/// workload differs between the sets.
pub fn run_aa(settings: &Settings, n: usize) -> ExitCode {
    let bounds = match read_bounds() {
        Ok(bounds) => bounds,
        Err(why) => {
            eprintln!("tsn_benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    // samples[set][workload][metric] → one value per run.
    let mut samples: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] = Default::default();
    let mut counts: [BTreeMap<&str, BTreeMap<String, f64>>; 2] = Default::default();
    for (set, label) in ["A", "B"].iter().enumerate() {
        for i in 0..n {
            for (workload, _) in WORKLOADS {
                println!("== set {label} run {i}: {workload}");
                match run_child(workload, settings.seed + i as u64, settings.seconds, false) {
                    Ok(result) => {
                        ok &= result.correct;
                        for (name, value) in result.metrics {
                            samples[set]
                                .entry(workload)
                                .or_default()
                                .entry(name)
                                .or_default()
                                .push(value);
                        }
                    }
                    Err(why) => {
                        ok = false;
                        eprintln!("tsn_benchmark: {why}");
                    }
                }
            }
        }
        // Exact counts repeat only where no clock decides how much work is
        // done: the four in-process workloads, one traced run per set.
        for (workload, _) in &WORKLOADS[..4] {
            println!("== set {label} traced: {workload}");
            match run_child(workload, settings.seed, settings.seconds, true) {
                Ok(result) => {
                    ok &= result.correct;
                    let exact = PER_LAYER.iter().filter(|def| def.unit == "count");
                    counts[set].insert(
                        workload,
                        exact
                            .filter_map(|def| {
                                Some((def.name.to_string(), *result.metrics.get(def.name)?))
                            })
                            .collect(),
                    );
                }
                Err(why) => {
                    ok = false;
                    eprintln!("tsn_benchmark: {why}");
                }
            }
        }
    }

    println!("\n| workload | metric | A median | A iqr/median | B median | B iqr/median | A vs B | bound | |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (workload, _) in WORKLOADS {
        for bound in &bounds {
            let of = |set: usize| {
                samples[set]
                    .get(workload)
                    .and_then(|m| m.get(&bound.name))
                    .filter(|values| !values.is_empty())
                    .map(|values| Summary::of(values))
            };
            let (Some(a), Some(b)) = (of(0), of(1)) else {
                ok = false;
                println!("| {workload} | {} | missing | | | | | | FAIL |", bound.name);
                continue;
            };
            let moved = relative_difference(a.median, b.median);
            let verdict = if moved > bound.bound { "FAIL" } else { "ok" };
            ok &= moved <= bound.bound;
            println!(
                "| {workload} | {} | {:.6} | {:.1}% | {:.6} | {:.1}% | {:.1}% | {:.1}% | {verdict} |",
                bound.name,
                a.median,
                100.0 * a.iqr / a.median,
                b.median,
                100.0 * b.iqr / b.median,
                100.0 * moved,
                100.0 * bound.bound,
            );
        }
    }
    for (workload, _) in &WORKLOADS[..4] {
        if counts[0].get(workload) != counts[1].get(workload) {
            ok = false;
            println!(
                "{workload}: exact counts differ between the sets: {:?} vs {:?}",
                counts[0].get(workload),
                counts[1].get(workload)
            );
        } else {
            println!("{workload}: exact counts identical in both sets");
        }
    }
    if ok {
        println!("A/A: every end-to-end median agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A: FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference_is_a_share_of_the_first_median() {
        assert_eq!(relative_difference(2.0, 2.0), 0.0);
        assert!((relative_difference(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((relative_difference(2.0, 1.8) - 0.1).abs() < 1e-12);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
    }

    /// `BENCHMARK.json` and the catalogue in `report.rs` must name the same
    /// metrics with the same units, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        // The file sits at the repository root, some levels above whichever
        // manifest built this test.
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        };
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|e| e.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let pairs = |defs: &[crate::report::MetricDef]| -> (Vec<String>, Vec<String>) {
            (
                defs.iter().map(|d| d.name.to_string()).collect(),
                defs.iter().map(|d| d.unit.to_string()).collect(),
            )
        };
        assert_eq!(
            (listed("end_to_end", "name"), listed("end_to_end", "unit")),
            pairs(END_TO_END)
        );
        assert_eq!(
            (listed("per_layer", "name"), listed("per_layer", "unit")),
            pairs(PER_LAYER)
        );
        assert_eq!(
            listed("workloads", "name"),
            WORKLOADS.map(|(name, _)| name.to_string())
        );
    }
}
