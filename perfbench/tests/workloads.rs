//! Runs every workload briefly, twice untraced and once traced, through
//! `run.sh` (the command `BENCHMARK.json` names) and checks that nothing
//! failed and that every deterministic counter repeats exactly — across
//! runs, and between the untraced and the traced run.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` (about
//! two minutes on two cores).

use hsm_core::json::Json;
use std::path::Path;
use std::process::Command;

/// One run's result line and counters line.
struct Run {
    result: String,
    counters: Json,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new("bash")
        .arg(here.join("run.sh"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .current_dir(here.parent().expect("the benchmark sits in the repository"))
        .output()
        .expect("run.sh runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = |prefix: &str| {
        stdout
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
            .to_string()
    };
    let result = stdout.lines().last().expect("output").to_string();
    let counters = Json::parse(&line("counters ")).expect("counters line is JSON");
    assert!(
        result.starts_with(r#"{"correct": true, "attempted": "#),
        "{workload}: {result}"
    );
    assert!(result.contains(r#""failed": 0, "#), "{workload}: {result}");
    let section = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    let listed = listed_metrics(section);
    let reported: Vec<(String, String)> = result
        .split(r#"{"value": "#)
        .skip(1)
        .zip(result.split(r#": {"value": "#))
        .map(|(after, before)| {
            let name = before.rsplit('"').nth(1).expect("quoted name").to_string();
            let unit = after
                .split(r#""unit": ""#)
                .nth(1)
                .expect("unit")
                .split('"')
                .next();
            (name, unit.expect("quoted unit").to_string())
        })
        .collect();
    assert_eq!(
        reported, listed,
        "{workload}: metrics differ from BENCHMARK.json {section}"
    );
    Run { result, counters }
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
fn listed_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let body = doc
        .split(&format!(r#""{section}": ["#))
        .nth(1)
        .expect("section present")
        .split(']')
        .next()
        .expect("section closes");
    let field = |entry: &str, key: &str| {
        entry
            .split(&format!(r#""{key}": ""#))
            .nth(1)
            .and_then(|v| v.split('"').next())
            .expect("field present")
            .to_string()
    };
    body.split('}')
        .filter(|entry| entry.contains(r#""name""#))
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The counters both runs report must be equal.
fn assert_same(workload: &str, a: &Run, b: &Run, keys: &[&str]) {
    for key in keys {
        assert!(
            a.counters.get(key).is_some(),
            "{workload}: counter {key} missing"
        );
        assert_eq!(
            a.counters.get(key),
            b.counters.get(key),
            "{workload}: counter {key} differs"
        );
    }
}

/// A metric's value, read from the result line.
fn metric(run: &Run, name: &str) -> f64 {
    let key = format!(r#""{name}": {{"value": "#);
    let start = run
        .result
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        + key.len();
    let end = start
        + run.result[start..]
            .find(',')
            .expect("value is followed by its unit");
    run.result[start..end].parse().expect("numeric metric")
}

fn check_workload(workload: &str, keys: &[&str], traced_keys: &[&str]) -> (Run, Run) {
    let first = run(workload, 7, 0);
    let second = run(workload, 7, 0);
    assert_same(workload, &first, &second, keys);
    let traced = run(workload, 7, 1);
    assert_same(workload, &first, &traced, traced_keys);
    assert!(
        metric(&traced, "trace.replay_attributed_share") >= 0.9,
        "{workload}"
    );
    (first, traced)
}

#[test]
fn figures_full_repeats_and_pins_the_headline_geomeans() {
    let geomeans = ["sim_fig6_1_speedup_geomean", "sim_fig6_2_gain_geomean"];
    let counted = ["vm.instructions", "exec.events", geomeans[0], geomeans[1]];
    let mut keys = counted.to_vec();
    keys.extend(["timed_cycles", "figures_stdout_fnv"]);
    let (first, _) = check_workload("figures_full", &keys, &counted);
    // The exact-cycle geomeans of the 18 Fig. 6.1/6.2 points.
    assert_eq!(
        first.counters.get(geomeans[0]),
        Some(&Json::str("12.626789"))
    );
    assert_eq!(
        first.counters.get(geomeans[1]),
        Some(&Json::str("1.227002"))
    );
}

#[test]
fn hsmd_sim_repeats_in_and_out_of_process() {
    let keys = [
        "vm.instructions",
        "outcomes_fnv",
        "sim_fig6_1_speedup_geomean",
        "sim_fig6_2_gain_geomean",
    ];
    check_workload("hsmd_sim", &keys, &keys);
}

#[test]
fn compile_mix_repeats_in_and_out_of_process() {
    let keys = [
        "vm.instructions",
        "outcomes_fnv",
        "sim_fig6_1_speedup_geomean",
        "sim_fig6_2_gain_geomean",
    ];
    check_workload("compile_mix", &keys, &keys);
}
