//! Table I: the automotive case study.
//!
//! Runs the reconstructed General-Motors-like scenario (20 control
//! applications, 8 switches, 106 messages in a 200 ms hyper-period,
//! `ld = 1.2 ms`, `sd = 5 µs`) twice: once with the stability-aware
//! synthesis at the paper's settings ([`SynthesisConfig::automotive`]: 3
//! alternative routes, 5 stages, a 250 µs stability grid) and once with the
//! deadline-only baseline, and prints the per-application maximum
//! end-to-end delay, latency and jitter of the five applications published
//! in the paper, plus the number of worst-case-stable applications of both
//! approaches.

use tsn_bench::{millis, print_table, HarnessOptions};
use tsn_synthesis::{SynthesisConfig, Synthesizer};
use tsn_workload::{automotive_case_study, TABLE1_APPS};

fn main() {
    let options = HarnessOptions::from_args();
    let study = automotive_case_study().expect("case study construction");
    let problem = &study.problem;
    println!(
        "automotive case study: {} applications, {} messages in a {} hyper-period",
        problem.applications().len(),
        problem.message_count(),
        problem.hyperperiod()
    );

    let stability_config = SynthesisConfig {
        timeout_per_stage: Some(options.stage_timeout),
        ..SynthesisConfig::automotive()
    };
    let deadline_config = stability_config.deadline_baseline();

    let stability = Synthesizer::new(stability_config)
        .synthesize(problem)
        .expect("stability-aware synthesis of the case study");
    eprintln!(
        "stability-aware synthesis: {:.1} s, {} / {} applications stable",
        stability.total_time.as_secs_f64(),
        stability.stable_applications,
        problem.applications().len()
    );
    let deadline = Synthesizer::new(deadline_config)
        .synthesize(problem)
        .expect("deadline-only synthesis of the case study");
    eprintln!(
        "deadline-only synthesis:   {:.1} s, {} / {} applications stable",
        deadline.total_time.as_secs_f64(),
        deadline.stable_applications,
        problem.applications().len()
    );

    let mut rows = Vec::new();
    for (pos, &app_idx) in study.table1_apps.iter().enumerate() {
        let (period_ms, alpha, beta_ms) = TABLE1_APPS[pos];
        let sm = &stability.app_metrics[app_idx];
        let dm = &deadline.app_metrics[app_idx];
        let deadline_stable = deadline.stability_margins[app_idx] >= 0.0;
        rows.push(vec![
            (pos + 1).to_string(),
            period_ms.to_string(),
            format!("{alpha:.2}"),
            format!("{beta_ms:.2}"),
            millis(sm.max_end_to_end),
            millis(sm.latency),
            millis(sm.jitter),
            millis(dm.max_end_to_end),
            millis(dm.latency),
            millis(dm.jitter),
            if deadline_stable { "yes" } else { "NO" }.to_string(),
        ]);
    }
    print_table(
        "Table I — stability-aware vs. deadline-only routing and scheduling",
        &[
            "app",
            "period (ms)",
            "alpha",
            "beta (ms)",
            "SA max e2e (ms)",
            "SA latency (ms)",
            "SA jitter (ms)",
            "DL max e2e (ms)",
            "DL latency (ms)",
            "DL jitter (ms)",
            "DL stable?",
        ],
        &rows,
    );

    println!();
    println!(
        "stability-aware: {} / {} applications worst-case stable (paper: 20 / 20)",
        stability.stable_applications,
        problem.applications().len()
    );
    println!(
        "deadline-only:   {} / {} applications worst-case stable (paper: 14 / 20)",
        deadline.stable_applications,
        problem.applications().len()
    );
    println!(
        "stability-aware synthesis time: {:.1} s (paper: 112 s on a 2.67 GHz Xeon with Z3)",
        stability.total_time.as_secs_f64()
    );
}
