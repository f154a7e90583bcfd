//! `loombench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two lines on standard output: the run's
//! facts, then the result (`correct`, `attempted`, `failed`, `metrics`).

use std::process::ExitCode;

use loombench::{host, Params, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: loombench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let ticks = host::cpu_ticks();
    let pinned = host::pin_to_cpu(host::LOAD_CPU);
    let params = Params::standard(seed, seconds, trace);
    let Some(mut report) = loombench::run(&workload, &params) else {
        return usage(&format!("unknown workload {workload}"));
    };
    for msg in &report.tally.messages {
        eprintln!("failed: {msg}");
    }
    report.fact("workload", &workload);
    report.fact_num("seed", seed as f64);
    report.fact_num("seconds", seconds);
    report.fact_num("trace", f64::from(u8::from(trace)));
    report.fact("commit", host::git_commit());
    report.fact("profile", host::build_profile());
    report.fact("features", "loom/default (self-obs)");
    report.fact_num("nproc", host::nproc() as f64);
    report.fact("pinned", if pinned { "yes" } else { "no" });
    report.fact("kernel", host::kernel());
    report.fact("data_fs", host::fs_type(std::path::Path::new(".")));
    report.fact_num("cpu_steal_pct", host::steal_pct(ticks));
    println!("{}", report.facts_line());
    println!("{}", report.result_line(trace));
    ExitCode::SUCCESS
}
