//! `perfbench` — runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload figures_full|hsmd_sim|compile_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics from untraced
//! runs; with `--trace 1` it runs the traced replay and prints the
//! per-layer metrics. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Run it through
//! `bash perfbench/run.sh`, which builds it and the binaries it drives.

use perfbench::{replay, timed, Env, Report, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let env = Env::locate()?;
    let set = replay::job_set(&args.workload, args.seed)?;
    if args.trace {
        replay::traced_run(&env, &args.workload, &set)
    } else if args.workload == "figures_full" {
        timed::figures_full(&env, Duration::from_secs(args.seconds))
    } else {
        timed::hsmd_workload(&env, &set, Duration::from_secs(args.seconds))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (host threads: {threads})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{:<34}{:>18}  {:<6}{:>8}", "metric", "value", "unit", "n");
    for m in &report.metrics {
        println!(
            "{:<34}{:>18.6}  {:<6}{:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<34}{:>18.6}  {:<6}{:>8}",
        "fail_ratio",
        report.checker.fail_ratio(),
        "ratio",
        report.checker.attempted
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for message in &report.checker.messages {
        eprintln!("perfbench: FAILED {message}");
    }
    println!("counters {}", report.counters_json().render_compact());
    match report.result_line() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
