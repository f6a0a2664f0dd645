//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures                  # everything
//! figures table4.1         # per-variable analysis table
//! figures table4.2         # sharing status per stage
//! figures example4.2       # translated RCCE source
//! figures table6.1         # SCC configuration
//! figures fig6.1           # off-chip speedups
//! figures fig6.2           # off-chip vs MPB
//! figures fig6.3           # core scaling
//! figures ablation.mc      # memory-controller contention
//! figures ablation.policy  # partition policy quality
//! figures fig7.threads     # >cores thread folding
//! figures energy           # energy estimate (power model)
//! figures stream.kernels   # per-kernel Stream bandwidth
//! figures dvfs             # frequency sweep (memory wall)
//! figures ext.jacobi       # barrier-heavy stencil extension
//! figures --json           # write the bench-out/BENCH_pipeline.json run manifest
//! figures --json --opt-level O2   # … with entries executed at O2
//! figures --json --cache-dir DIR  # … over a persistent artifact store
//! figures --host-timing    # write bench-out/BENCH_interp.json (steps/sec)
//! figures --predict        # predicted vs simulated surfaces (BENCH_predict.json)
//! figures --check-sharing  # run the corpus under the soundness oracle
//! figures --client ADDR    # sweep the corpus on a running hsmd server
//! figures --client ADDR --shutdown  # … then stop the server
//! figures --rows FILE      # sweep in-process, one SweepRow JSON line per point
//! figures --client ADDR --rows FILE  # … same rows via the server (byte-diffable)
//! ```
//!
//! The selected figure sections run as one sweep over `--workers N`
//! threads (default: one per host core): a point two sections share is
//! simulated once, and each section prints, in the order above, as soon
//! as its points are done. Any worker count prints the same bytes.
//!
//! `--json` composes with the table selectors: `figures fig6.1 --json`
//! prints Figure 6.1 and writes the manifest. `--check-sharing` runs every
//! corpus program (including `corpus/adversarial/`) under the
//! sharing-soundness oracle, prints the verdict table, folds the `sharing`
//! section into the manifest when `--json` is also given, and exits
//! non-zero if any program misses its expectation. Both sweeps fan out
//! over `--workers N` threads too; any worker count produces the same
//! manifest modulo `host_*` timing fields.
//! `--exec-model NAME` (coherent, non_coherent_wb, seq_cst_ref) switches
//! the memory model the manifest entries execute under; the default is
//! the coherent ground truth the goldens pin. `--opt-level LEVEL` (O0,
//! O1, O2) switches the bytecode optimization level the entries execute
//! at (default O0); the manifest's `opt` section always reports the
//! per-program `O0`-vs-`O2` instruction and simulated-cycle deltas
//! regardless. These execution flags (plus `--cache-dir DIR`, which
//! backs the sweep's artifact cache with a persistent content-addressed
//! store so a second run recompiles nothing) all parse into one
//! [`hsm_core::spec::SweepSpec`] — the same value an `hsmd` sweep job
//! carries.
//!
//! `--client ADDR` runs the corpus sweep on a running `hsmd` server
//! instead of in-process: it ships the spec as a sweep job, prints one
//! row per point as the server streams them back, and with `--shutdown`
//! stops the server afterwards. `--modes A,B,..` picks the scenario modes
//! (baseline, offchip, hsm, task) and repeatable `--program NAME:CORES`
//! replaces the default corpus; both parse into the spec's `Scenario`
//! list. `--rows FILE` writes one compact `SweepRow` JSON line per point
//! — the rows are deterministic and identical whether the sweep runs
//! in-process or via `--client`, which CI diffs byte-for-byte.
//!
//! `--host-timing` measures interpreter throughput (VM steps per host
//! second) for every corpus program × mode × model, prints the table and
//! writes `bench-out/BENCH_interp.json`; `--timing-runs N` overrides the
//! repetition count. `scripts/check_bench.py` diffs that file against the
//! committed `BENCH_interp.json` baseline in CI.
//!
//! All machine-readable artifacts land under `bench-out/` (gitignored;
//! created on demand) so repeated runs never dirty the work tree.
//!
//! If manifest generation fails, the manifest file is still written, as an
//! error document naming the failing pipeline stage:
//! `{"schema_version": 3, "error": {"stage": "parse", "message": …}}`.

use hsm_bench::json::Json;
use std::env;
use std::process::ExitCode;

/// Output file of `--json`.
const MANIFEST_FILE: &str = "bench-out/BENCH_pipeline.json";

/// Output file of `--host-timing`.
const INTERP_FILE: &str = "bench-out/BENCH_interp.json";

/// Output file of `--predict`.
const PREDICT_FILE: &str = "bench-out/BENCH_predict.json";

/// The error document `--json` writes when the sweep fails: the failing
/// stage name (from `PipelineError::stage`) plus the rendered error chain.
fn error_manifest(e: &hsm_core::PipelineError) -> Json {
    Json::obj(vec![
        (
            "schema_version",
            Json::UInt(hsm_bench::manifest::MANIFEST_SCHEMA_VERSION),
        ),
        (
            "error",
            Json::obj(vec![
                ("stage", Json::str(e.stage())),
                ("message", Json::Str(e.to_string())),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    match run(env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes `flag VALUE` from `args` and returns the value; a flag without
/// one is an error naming what it `needs`.
fn take_value(args: &mut Vec<String>, flag: &str, needs: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .cloned()
        .ok_or(format!("{flag} needs {needs}"))?;
    args.drain(i..=i + 1);
    Ok(Some(value))
}

/// Runs what the arguments select: `Err` for a bad command line or a
/// failed `--client`/`--rows` sweep, `Ok(false)` when a check, section or
/// artifact failed along the way.
fn run(mut args: Vec<String>) -> Result<bool, String> {
    let has = |args: &[String], flag: &str| args.iter().any(|a| a == flag);
    let flags = ["--json", "--check-sharing", "--host-timing", "--predict"];
    let [emit_json, check_sharing, host_timing, predict] = flags.map(|flag| has(&args, flag));
    let timing_runs = match take_value(&mut args, "--timing-runs", "a number")? {
        Some(value) => value.parse().map_err(|_| "--timing-runs needs a number")?,
        None => 0,
    };
    // The execution axes (--workers, --exec-model, --opt-level,
    // --cache-dir) all live in one SweepSpec — the value the manifest
    // consumes and a `--client` sweep job ships.
    let mut spec = hsm_core::spec::SweepSpec::default();
    spec.take_cli_flags(&mut args).map_err(|e| e.to_string())?;
    spec.open_cache().map_err(|e| e.to_string())?;
    let client_addr = take_value(&mut args, "--client", "a server address")?;
    let rows_file = take_value(&mut args, "--rows", "an output file")?;
    let client_shutdown = has(&args, "--shutdown");
    args.retain(|a| a != "--shutdown" && !flags.contains(&a.as_str()));

    if let Some(addr) = client_addr {
        return run_client(&addr, &spec, rows_file.as_deref(), client_shutdown).map(|()| true);
    }
    if let Some(path) = rows_file {
        return run_rows_local(&spec, &path).map(|()| true);
    }
    let workers = spec.workers;
    let all = args.is_empty() && !emit_json && !check_sharing && !host_timing && !predict;
    let want = |name: &str| all || args.iter().any(|a| a == name);
    let mut failed = false;

    let mut sharing_section = None;
    if check_sharing {
        failed |= failure(match hsm_bench::sharing::sharing_manifest_with(workers) {
            Ok(sharing) => {
                print_sharing(&sharing);
                let pass = hsm_bench::sharing::all_pass(&sharing);
                sharing_section = Some(sharing);
                let missed = "sharing check FAILED: a program missed its expectation";
                pass.then_some(()).ok_or(missed.to_string())
            }
            Err(e) => Err(format!("sharing check failed to run: {e}")),
        });
    }

    if emit_json {
        let opts = hsm_bench::manifest::ManifestOptions {
            spec: spec.clone(),
            ..Default::default()
        };
        let manifest = match hsm_bench::manifest::full_manifest(&opts) {
            Ok(mut m) => {
                if let (Some(sharing), Json::Obj(pairs)) = (sharing_section.take(), &mut m) {
                    pairs.push(("sharing".to_string(), sharing));
                }
                m
            }
            Err(e) => {
                failed |= failure(Err(format!("manifest generation failed: {e}")));
                error_manifest(&e)
            }
        };
        failed |= failure(write_artifact(MANIFEST_FILE, &manifest.render()));
    }

    if predict {
        failed |= failure(match hsm_bench::predict::predict_report() {
            Ok(report) => {
                println!("{}", hsm_bench::predict::render_predict_table(&report));
                write_artifact(PREDICT_FILE, &report.render())
            }
            Err(e) => Err(format!("predict validation failed: {e}")),
        });
    }

    if host_timing {
        failed |= failure(match hsm_bench::interp::interp_points(timing_runs) {
            Ok(points) => {
                println!("{}", hsm_bench::interp::render_interp_table(&points));
                let doc = hsm_bench::interp::interp_json(&points);
                write_artifact(INTERP_FILE, &doc.render())
            }
            Err(e) => Err(format!("host-timing sweep failed: {e}")),
        });
    }

    // The tables print before the figures are planned; the figures run
    // as one de-duplicated sweep, each printing once its points are done.
    let mut print = |section: Result<String, String>| {
        failed |= failure(section.map(|text| print!("{text}")));
    };
    hsm_bench::Plan::new(hsm_bench::table_sections(want), workers).run(&mut print);
    hsm_bench::Plan::new(hsm_bench::figure_sections(want, 1), workers).run(&mut print);

    Ok(!failed)
}

/// Prints a failed outcome's message to stderr; true if it failed.
fn failure(outcome: Result<(), String>) -> bool {
    outcome.map_err(|e| eprintln!("{e}")).is_err()
}

/// Writes a machine-readable artifact, creating its directory on demand
/// (the create-on-demand behaviour itself lives in and is unit-tested by
/// `hsm_bench::write_artifact`).
fn write_artifact(path: &str, content: &str) -> Result<(), String> {
    hsm_bench::write_artifact(path, content)
        .map(|()| println!("wrote {path}"))
        .map_err(|e| format!("writing {path} failed: {e}"))
}

/// Fills an empty program list with the manifest corpus, so `--client`
/// and `--rows` sweep the same default set the manifest reports.
fn with_default_programs(spec: &hsm_core::spec::SweepSpec) -> hsm_core::spec::SweepSpec {
    use hsm_core::api::SpecProgram;
    let mut spec = spec.clone();
    if spec.programs.is_empty() {
        spec.programs = hsm_bench::manifest::MANIFEST_PROGRAMS
            .iter()
            .map(|&(name, cores)| SpecProgram::corpus(name, cores))
            .collect();
    }
    spec
}

/// Serializes sweep rows as newline-delimited compact JSON — one
/// `SweepRow` per line, in matrix order. The encoding is deterministic,
/// so the in-process and `--client` paths produce identical bytes for
/// the same spec; CI diffs the two files directly.
fn write_rows(path: &str, rows: &[hsm_core::api::SweepRow]) -> Result<(), String> {
    let mut doc = rows
        .iter()
        .map(|row| row.to_json().render_compact())
        .collect::<Vec<_>>()
        .join("\n");
    doc.push('\n');
    write_artifact(path, &doc)
}

/// Runs the spec's sweep in this process and writes the row file —
/// the reference bytes the `--client --rows` transport must reproduce.
fn run_rows_local(spec: &hsm_core::spec::SweepSpec, path: &str) -> Result<(), String> {
    use hsm_core::api::SweepRow;
    use hsm_core::experiment::{sweep_with, SweepOptions};
    let spec = with_default_programs(spec);
    let cache = spec.open_cache().map_err(|e| e.to_string())?;
    let matrix = spec
        .to_matrix(&scc_sim::SccConfig::table_6_1())
        .map_err(|e| e.to_string())?
        .cache(cache);
    let report = sweep_with(
        &matrix,
        SweepOptions {
            predict_first: spec.predict_first,
            ..SweepOptions::default()
        },
    );
    let rows: Vec<SweepRow> = report.outcomes.iter().map(SweepRow::from_outcome).collect();
    write_rows(path, &rows)?;
    let failed = rows.iter().filter(|r| r.error.is_some()).count();
    println!("{} points, {failed} failed", rows.len());
    if failed > 0 {
        return Err(format!("{failed} sweep points failed"));
    }
    Ok(())
}

/// Runs the corpus sweep as a job on a running `hsmd` server, printing
/// one row per point as the server streams them back (matrix order).
fn run_client(
    addr: &str,
    spec: &hsm_core::spec::SweepSpec,
    rows_file: Option<&str>,
    shutdown: bool,
) -> Result<(), String> {
    use hsm_core::api::Client;
    let spec = with_default_programs(spec);
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    println!("sweeping {} programs on {addr}\n", spec.programs.len());
    println!("{:<32}{:>6}{:>14}  Output FNV", "Point", "Exit", "Cycles");
    println!("{}", "-".repeat(72));
    let rows = client
        .sweep_streaming(&spec, None, |row| match &row.error {
            Some(e) => println!("{:<32}  ERROR: {e}", row.name),
            None => println!(
                "{:<32}{:>6}{:>14}  {}",
                row.name,
                row.exit_code.unwrap_or(-1),
                row.timed_cycles.unwrap_or(0),
                row.output_fnv
                    .map(|v| format!("{v:016x}"))
                    .unwrap_or_default(),
            ),
        })
        .map_err(|e| format!("sweep failed: {e}"))?;
    let failed = rows.iter().filter(|r| r.error.is_some()).count();
    println!("\n{} points, {failed} failed", rows.len());
    if let Some(path) = rows_file {
        write_rows(path, &rows)?;
    }
    if shutdown {
        client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server shut down");
    }
    if failed > 0 {
        return Err(format!("{failed} sweep points failed"));
    }
    Ok(())
}

/// Prints the sharing-oracle verdict table for `--check-sharing`.
fn print_sharing(sharing: &Json) {
    println!("Sharing-soundness oracle — corpus sweep\n");
    println!(
        "{:<30}{:>14}{:>14}{:>8}",
        "Program", "Expected", "Observed", "Pass"
    );
    println!("{}", "-".repeat(66));
    let Some(Json::Arr(entries)) = sharing.get("programs") else {
        return;
    };
    for entry in entries {
        let field = |key| entry.get(key).and_then(Json::as_str).unwrap_or("?");
        let observed = match entry.get("violations") {
            Some(Json::Arr(vs)) if vs.is_empty() => "clean".to_string(),
            Some(Json::Arr(vs)) => {
                let mut classes: Vec<&str> = vs
                    .iter()
                    .filter_map(|v| v.get("class").and_then(Json::as_str))
                    .collect();
                classes.sort_unstable();
                classes.dedup();
                classes.join("+")
            }
            _ => "?".to_string(),
        };
        let pass = entry.get("pass") == Some(&Json::Bool(true));
        println!(
            "{:<30}{:>14}{:>14}{:>8}",
            field("name"),
            field("expected"),
            observed,
            if pass { "ok" } else { "FAIL" }
        );
    }
    println!();
}
