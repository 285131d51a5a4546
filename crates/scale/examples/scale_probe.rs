//! Phase-by-phase timing probe for the partitioned synthesizer.
//!
//! Usage: `cargo run --release -p tsn_scale --example scale_probe --
//! [streams] [target] [seed] [--heuristic]`
//!
//! Prints the partition plan, per-partition solve-time distribution, repair
//! rounds and total time for one generated fat-tree instance — the first
//! thing to run when large-scale solve times regress. `--heuristic` runs
//! `SynthesisStrategy::HeuristicFirst` instead of the SMT-only default (its
//! one placement pass has no per-partition times, so that line shows the
//! pass alone), and a seed other than the benchmark's 1 draws an instance no
//! change was tuned on. Any other argument is an error.

use std::time::Duration;

use tsn_scale::{ScaleConfig, ScaleSynthesizer, SynthesisStrategy};
use tsn_workload::{large_scale_problem, LargeScaleScenario, LargeTopology};

fn main() {
    let mut heuristic = false;
    let mut numbers = Vec::new();
    for arg in std::env::args().skip(1) {
        match (arg.as_str(), arg.parse::<usize>()) {
            ("--heuristic", _) => heuristic = true,
            (_, Ok(n)) if numbers.len() < 3 => numbers.push(n),
            _ => {
                eprintln!("unexpected argument `{arg}`");
                eprintln!("usage: scale_probe [streams] [target] [seed] [--heuristic]");
                std::process::exit(2);
            }
        }
    }
    let mut numbers = numbers.into_iter();
    let streams = numbers.next().unwrap_or(500);
    let target = numbers.next().unwrap_or(16);
    let seed = numbers.next().unwrap_or(1) as u64;
    let scenario = LargeScaleScenario {
        topology: LargeTopology::FatTree,
        switches: 80,
        streams,
        seed,
        fast_stream_percent: 12,
    };
    let problem = large_scale_problem(&scenario).expect("generator instance");
    println!(
        "instance: {} streams, {} messages, {} switches",
        problem.applications().len(),
        problem.message_count(),
        problem.topology().switches().len()
    );
    let config = ScaleConfig {
        synthesis: tsn_synthesis::SynthesisConfig {
            timeout_per_stage: Some(Duration::from_secs(120)),
            ..ScaleConfig::default().synthesis
        },
        target_apps_per_partition: target,
        fallback_monolithic: false,
        strategy: if heuristic {
            SynthesisStrategy::HeuristicFirst
        } else {
            SynthesisStrategy::SmtOnly
        },
        ..ScaleConfig::default()
    };
    match ScaleSynthesizer::new(config).synthesize(&problem) {
        Ok(report) => {
            print!(
                "partitions: {} (cut {} of {} contention edges), wall {:.4}s",
                report.partitions.len(),
                report.cut_edges,
                report.contention_edges,
                report.partition_wall_time.as_secs_f64(),
            );
            if heuristic {
                println!(" (one placement pass)");
            } else {
                let mut times: Vec<f64> = report
                    .partitions
                    .iter()
                    .map(|p| p.totals.solve_time.as_secs_f64())
                    .collect();
                times.sort_by(f64::total_cmp);
                println!(
                    ", solve sum {:.4}s, min {:.4}s, median {:.4}s, max {:.4}s",
                    times.iter().sum::<f64>(),
                    times.first().copied().unwrap_or(0.0),
                    times.get(times.len() / 2).copied().unwrap_or(0.0),
                    times.last().copied().unwrap_or(0.0),
                );
            }
            for repair in &report.repairs {
                println!(
                    "repair round {}: {} conflicting apps ({} pairs), \
                     {} re-solved singly, {} escalated, {:.2}s",
                    repair.round,
                    repair.conflicting_apps,
                    repair.conflict_pairs,
                    repair.resolved_apps,
                    repair.escalated_apps,
                    repair.solve_time.as_secs_f64()
                );
            }
            let decisions: u64 = report.report.stages.iter().map(|s| s.decisions).sum();
            println!(
                "heuristic: {} placed, {} repaired by SMT, {} fallback partitions; \
                 {decisions} solver decisions",
                report.heuristic.placed_apps,
                report.heuristic.repaired_apps,
                report.heuristic.fallback_partitions,
            );
            println!(
                "total {:.3}s on {} threads; stable {}/{}",
                report.report.total_time.as_secs_f64(),
                report.threads,
                report.report.stable_applications,
                report.report.app_metrics.len()
            );
        }
        Err(e) => println!("FAILED: {e}"),
    }
}
