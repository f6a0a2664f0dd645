//! The untraced, timed runs the end-to-end metrics come from.
//!
//! A run repeats *passes* until `--seconds` is used up (at least one).
//! A pass of `figures_full` is one `figures` process; a pass of an
//! `hsmd` workload spawns a fresh server (and, for `compile_mix`, a fresh
//! pre-populated store), sends the seeded job list over one closed-loop
//! connection and shuts the server down. Per-pass walls are reported as
//! medians, so one slow pass does not move the result.

use crate::gen::{Job, JobSet, Op};
use crate::oracle::{self, Checker, Expectations, Outcome};
use crate::proc::{self, Conn, Hsmd, TempDir};
use crate::stats::{median, quantile};
use crate::{Env, Report};
use hsm_core::api::{fnv1a_bytes, JobRequest, JobResponse};
use hsm_core::experiment::{self, outputs_equivalent, Mode, SweepMatrix};
use hsm_core::json::Json;
use hsm_workloads::{reference_exit, Bench};
use scc_sim::SccConfig;
use std::time::{Duration, Instant};

/// The `figures` sections that simulate, with the selector that runs each
/// alone and the title its output starts with. Fig. 6.2 is printed from
/// the same evaluation as Fig. 6.1 and costs nothing on its own.
pub const SECTIONS: [(&str, &str); 8] = [
    ("fig6.1", "Figure 6.1"),
    ("fig6.3", "Figure 6.3"),
    ("ablation.mc", "Ablation — Dot Product"),
    ("stream.kernels", "Stream kernels"),
    ("ext.jacobi", "Extension — Jacobi"),
    ("dvfs", "DVFS sweep"),
    ("energy", "Energy estimate"),
    ("fig7.threads", "§7.2 extension"),
];

/// Extra `figures` spawns per run that only measure set-up time. One
/// spawn reads 1.0–5.5 ms, so the median of 15 moved by ±20% between
/// runs; the median of 60 moves by about ±2% and costs about 0.2 s.
const SETUP_PROBES: usize = 60;

/// The paper's reported values the `sim_*` geomeans are printed beside.
pub const PAPER_NOTE: &str =
    "paper (SCC hardware): Fig. 6.1 speedups up to 32x, Fig. 6.2 MPB gain 8x on average; \
     the simulated model is unvalidated against SCC hardware";

/// Passes continue until the run has measured for the whole budget, so
/// a run measures at least `--seconds` and at most one pass more.
fn another_pass(started: Instant, budget: Duration) -> bool {
    started.elapsed() < budget
}

/// The 18 Fig. 6.1 / 6.2 points, simulated in-process.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Timed cycles per benchmark: baseline, off-chip, HSM.
    pub cycles: Vec<(Bench, [u64; 3])>,
    /// VM instructions retired over the 18 points.
    pub instructions: u64,
    /// Scheduler events over the 18 points.
    pub events: u64,
    /// Host wall time of the sweep.
    pub wall: Duration,
}

impl Reference {
    /// Fig. 6.1 speedup and Fig. 6.2 gain geomeans from the exact cycles.
    pub fn geomeans(&self) -> (f64, f64) {
        oracle::geomeans(self.cycles.iter().map(|(_, c)| *c))
    }
}

/// Runs the Fig. 6.1 / 6.2 grid the way `figures` does (one sweep over a
/// shared cache, two workers), checking every point's exit code against
/// `reference_exit` and every translated output against the baseline.
///
/// # Errors
///
/// Reports a point that failed to run.
pub fn reference_evaluation(checker: &mut Checker) -> Result<Reference, String> {
    let benches = Bench::all();
    let modes = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];
    let units = hsm_bench::EVAL_UNITS;
    let matrix =
        SweepMatrix::benchmarks(&benches, &modes, units, SccConfig::table_6_1()).workers(2);
    let started = Instant::now();
    let report = experiment::sweep(&matrix);
    let wall = started.elapsed();
    let mut outcomes = report.outcomes.into_iter();
    let mut reference = Reference {
        cycles: Vec::new(),
        instructions: 0,
        events: 0,
        wall,
    };
    for bench in benches {
        let want = reference_exit(bench, &bench.default_params(units));
        let mut runs = Vec::new();
        for mode in modes {
            let run = outcomes
                .next()
                .ok_or("the sweep returned too few points")?
                .into_run()
                .map_err(|e| format!("{} {}: {e}", bench.name(), mode.label()))?;
            checker.record((run.exit_code != want).then(|| {
                format!(
                    "{} {}: exit {} != reference {want}",
                    bench.name(),
                    mode.label(),
                    run.exit_code
                )
            }));
            reference.instructions += run.instructions;
            reference.events += run.events;
            runs.push(run);
        }
        let matches =
            outputs_equivalent(&runs[0], &runs[1]) && outputs_equivalent(&runs[0], &runs[2]);
        checker.record(
            (!matches)
                .then(|| format!("{}: RCCE output differs from the baseline's", bench.name())),
        );
        reference.cycles.push((
            bench,
            [
                runs[0].timed_cycles,
                runs[1].timed_cycles,
                runs[2].timed_cycles,
            ],
        ));
    }
    Ok(reference)
}

/// Checks one `figures` stdout against the reference: all sections
/// present, Fig. 6.1 speedups and "ok" verdicts, Fig. 6.2 cycles.
fn check_figures_output(lines: &[String], reference: &Reference) -> Option<String> {
    for (_, title) in SECTIONS {
        if !lines.iter().any(|l| l.starts_with(title)) {
            return Some(format!("section `{title}` missing"));
        }
    }
    let table = |title: &str| -> Vec<&String> {
        let start = lines
            .iter()
            .position(|l| l.starts_with(title))
            .unwrap_or(lines.len());
        lines[start..]
            .iter()
            .skip_while(|l| !l.starts_with("---"))
            .skip(1)
            .take(reference.cycles.len())
            .collect()
    };
    for (row, (bench, [base, off, _])) in table("Figure 6.1").iter().zip(&reference.cycles) {
        let want = format!("{:.1}x", *base as f64 / *off as f64);
        let fields: Vec<&str> = row.get(18..).unwrap_or("").split_whitespace().collect();
        if !row.starts_with(bench.name()) || fields != [want.as_str(), "ok"] {
            return Some(format!(
                "Fig. 6.1 row `{row}` != {} {want} ok",
                bench.name()
            ));
        }
    }
    for (row, (bench, [_, off, hsm])) in table("Figure 6.2").iter().zip(&reference.cycles) {
        let fields: Vec<&str> = row.get(18..).unwrap_or("").split_whitespace().collect();
        let (want_off, want_hsm) = (off.to_string(), hsm.to_string());
        if !row.starts_with(bench.name())
            || fields.get(..2) != Some(&[want_off.as_str(), want_hsm.as_str()][..])
        {
            return Some(format!(
                "Fig. 6.2 row `{row}` != {} {off} {hsm}",
                bench.name()
            ));
        }
    }
    None
}

/// Section latencies of one `figures` run, in [`SECTIONS`] order: the
/// gap between the line before a section's title and the title itself,
/// i.e. the time the section spent computing before it printed.
fn section_latencies(run: &proc::FiguresRun) -> Vec<f64> {
    let mut out = Vec::new();
    for (i, (at, line)) in run.lines.iter().enumerate() {
        if SECTIONS.iter().any(|(_, title)| line.starts_with(title)) {
            let before = if i == 0 {
                Duration::ZERO
            } else {
                run.lines[i - 1].0
            };
            out.push((*at - before).as_secs_f64());
        }
    }
    out
}

/// The `figures_full` workload.
///
/// # Errors
///
/// Reports failures to spawn or observe `figures`.
pub fn figures_full(env: &Env, budget: Duration) -> Result<Report, String> {
    let mut report = Report::default();
    let reference = reference_evaluation(&mut report.checker)?;
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        setups.push(proc::figures_first_byte(&env.figures)?.as_secs_f64());
    }
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut steps = Vec::new();
    let mut rss = Vec::new();
    let mut first_stdout = None;
    loop {
        let run = proc::run_figures(&env.figures, &[])?;
        let lines: Vec<String> = run.lines.iter().map(|(_, l)| l.clone()).collect();
        let stdout = run.stdout();
        let failure = if !run.success {
            Some("figures exited with a failure status".to_string())
        } else if first_stdout.as_ref().is_some_and(|first| *first != stdout) {
            Some("figures stdout differs from the first pass".to_string())
        } else {
            check_figures_output(&lines, &reference)
        };
        report.checker.record(failure);
        first_stdout.get_or_insert(stdout);
        setups.push(run.first_byte.as_secs_f64());
        walls.push(run.wall.as_secs_f64());
        let sections = section_latencies(&run);
        if let Some(fig6) = sections.first() {
            steps.push(reference.instructions as f64 / fig6);
        }
        latencies.extend(sections);
        rss.push(run.peak_rss_mb);
        if !another_pass(started, budget) {
            break;
        }
    }
    let (g61, g62) = reference.geomeans();
    let passes = walls.len();
    let per_pass: Vec<f64> = walls.iter().map(|w| SECTIONS.len() as f64 / w).collect();
    report.metric("setup_s", "s", median(&setups), setups.len());
    report.metric("wall_s", "s", median(&walls), passes);
    report.metric("jobs_per_s", "1/s", median(&per_pass), passes);
    report.metric(
        "job_p50_ms",
        "ms",
        quantile(&latencies, 0.5) * 1e3,
        latencies.len(),
    );
    report.metric(
        "job_p95_ms",
        "ms",
        quantile(&latencies, 0.95) * 1e3,
        latencies.len(),
    );
    report.metric("sim_steps_per_s", "1/s", median(&steps), steps.len());
    report.metric("peak_rss_mb", "MiB", median(&rss), passes);
    report.metric(
        "sim_fig6_1_speedup_geomean",
        "x",
        g61,
        reference.cycles.len(),
    );
    report.metric("sim_fig6_2_gain_geomean", "x", g62, reference.cycles.len());
    report.notes.push(format!(
        "jobs are the {} simulating figures sections; sim_steps_per_s is the 18 Fig. 6.1/6.2 points' \
         instructions over that section's time; the in-process reference sweep took {:.2} s",
        SECTIONS.len(),
        reference.wall.as_secs_f64()
    ));
    report.notes.push(PAPER_NOTE.to_string());
    report.counter("vm.instructions", Json::UInt(reference.instructions));
    report.counter("exec.events", Json::UInt(reference.events));
    report.counter(
        "timed_cycles",
        Json::Arr(
            reference
                .cycles
                .iter()
                .map(|(_, c)| Json::uints(*c))
                .collect(),
        ),
    );
    report.counter("sim_fig6_1_speedup_geomean", Json::str(format!("{g61:.6}")));
    report.counter("sim_fig6_2_gain_geomean", Json::str(format!("{g62:.6}")));
    report.counter(
        "figures_stdout_fnv",
        Json::str(format!(
            "{:016x}",
            fnv1a_bytes(first_stdout.unwrap_or_default().as_bytes())
        )),
    );
    Ok(report)
}

/// The request a job sends.
pub fn request_of(set: &JobSet, job: &Job) -> JobRequest {
    let (src, cores) = set.program(job);
    let name = set.label(job);
    let source = src.to_string();
    match job.op {
        Op::Simulate => JobRequest::Simulate {
            name,
            source,
            cores,
            scenario: job.scenario,
        },
        Op::Profile => JobRequest::Profile {
            name,
            source,
            cores,
            scenario: job.scenario,
        },
        Op::Translate => JobRequest::Translate {
            name,
            source,
            cores,
        },
    }
}

/// Opens a connection and pings it, so the server has accepted it
/// before any job is timed.
fn open_conn(server: &Hsmd) -> Result<Conn, String> {
    let mut conn = server.connect()?;
    match conn.call(JobRequest::Ping)? {
        JobResponse::Pong => Ok(conn),
        other => Err(format!("ping answered {other:?}")),
    }
}

/// Sends every job of `set` over `conn`, each after the previous one's
/// response (a closed loop), returning each job's latency and outcome.
///
/// One connection, so the server and the client keep one of the two host
/// cores busy between them: with two connections both cores were busy,
/// and load from other tenants of the shared host showed one to one in
/// every time (one busy core elsewhere slowed `compile_mix` passes by
/// 43–54% with two connections, 13–15% with one).
fn closed_loop(mut conn: Conn, set: &JobSet) -> Result<Vec<(Duration, Outcome)>, String> {
    set.jobs
        .iter()
        .map(|job| {
            let request = request_of(set, job);
            let sent = Instant::now();
            let response = conn.call(request)?;
            Ok((sent.elapsed(), proc::outcome_of(response)))
        })
        .collect()
}

/// Translate jobs for the prepopulated items, so set-up can send them.
fn prepopulate_jobs(set: &JobSet) -> JobSet {
    let mut pre = set.clone();
    pre.jobs = set
        .prepopulate
        .iter()
        .map(|&program| Job {
            op: Op::Translate,
            program,
            twin: false,
            scenario: Default::default(),
        })
        .collect();
    pre
}

/// One pass over an `hsmd` workload.
struct Pass {
    // The pass's store, removed only after the run's last pass so no
    // timed phase overlaps the deletion of an earlier pass's files.
    _store: Option<TempDir>,
    setup: f64,
    wall: f64,
    latencies: Vec<f64>,
    outcomes: Vec<Outcome>,
    peak_rss_mb: f64,
}

/// Runs one pass: set-up (spawn, pre-populate), the timed closed loop,
/// shutdown. Set-up results are checked into `checker`.
fn run_pass(
    env: &Env,
    set: &JobSet,
    expect: &Expectations,
    pass: usize,
    checker: &mut Checker,
) -> Result<Pass, String> {
    // Set-up is pre-populating the store (when the workload has one) plus
    // spawning the server until its connection answered `ping`. The
    // pre-populating server's exit is not part of it: its stop is polled.
    let mut setup = Duration::ZERO;
    let store = if set.prepopulate.is_empty() {
        None
    } else {
        let dir = TempDir::new(
            env.scratch
                .join(format!("store-{}-{pass}", std::process::id())),
        )?;
        let started = Instant::now();
        let first = Hsmd::spawn(&env.hsmd, Some(&dir.0))?;
        let pre = prepopulate_jobs(set);
        let results = closed_loop(open_conn(&first)?, &pre)?;
        setup += started.elapsed();
        for ((_, outcome), job) in results.iter().zip(&pre.jobs) {
            checker.check(&pre, expect, job, outcome);
        }
        first.shutdown()?;
        proc::sync_disk()?;
        Some(dir)
    };
    let started = Instant::now();
    let server = Hsmd::spawn(&env.hsmd, store.as_ref().map(|d| d.0.as_path()))?;
    let conn = open_conn(&server)?;
    let setup = (setup + started.elapsed()).as_secs_f64();
    let timed = Instant::now();
    let results = closed_loop(conn, set)?;
    let wall = timed.elapsed().as_secs_f64();
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    server.shutdown()?;
    let (latencies, outcomes) = results
        .into_iter()
        .map(|(latency, outcome)| (latency.as_secs_f64(), outcome))
        .unzip();
    Ok(Pass {
        _store: store,
        setup,
        wall,
        latencies,
        outcomes,
        peak_rss_mb,
    })
}

/// Deterministic digest of a pass's outcomes, in job order.
pub fn outcomes_digest(outcomes: &[Outcome]) -> u64 {
    let lines: Vec<String> = outcomes.iter().map(Outcome::digest_line).collect();
    fnv1a_bytes(lines.join("\n").as_bytes())
}

/// A deterministic estimate of a job's host time in µs: store reads and
/// new translations by their measured typical cost, simulations by the
/// instructions the in-process preparation retired (~65 M/s), scaled up
/// for `non_coherent_wb` and profiling; repeats a cache answers are cheap.
fn estimated_cost(set: &JobSet, expect: &Expectations, job: &Job, repeat: bool) -> u64 {
    match job.op {
        Op::Translate if repeat => 0,
        Op::Translate if set.prepopulate.contains(&job.program) => 1_000,
        Op::Translate => 5_000,
        Op::Profile if repeat => 100,
        Op::Simulate | Op::Profile => {
            let instructions = expect.instances[job.program].instructions[match job.scenario.mode {
                Mode::PthreadBaseline => 0,
                Mode::RcceOffChip => 1,
                Mode::RcceHsm | Mode::TaskDataflow => 2,
            }];
            let mut cost = 1_000 + instructions / 65;
            if job.scenario.exec_model == hsm_core::ExecModel::NonCoherentWriteBack {
                cost = cost * 3 / 2;
            }
            if job.op == Op::Profile {
                cost = cost * 7 / 5;
            }
            cost
        }
    }
}

/// Sends the jobs longest first (by [`estimated_cost`], seeded order
/// among equals), so a pass's wall time measures throughput rather than
/// which long job happened to be sent last. Repeats stay after their
/// originals.
pub fn order_longest_first(set: &mut JobSet, expect: &Expectations) {
    let mut seen = std::collections::HashSet::new();
    let costs: Vec<u64> = set
        .jobs
        .iter()
        .map(|job| estimated_cost(set, expect, job, !seen.insert(*job)))
        .collect();
    let mut order: Vec<usize> = (0..set.jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    set.jobs = order.into_iter().map(|i| set.jobs[i]).collect();
}

/// An `hsmd` workload (`hsmd_sim` or `compile_mix`).
///
/// # Errors
///
/// Reports preparation, process and transport failures.
pub fn hsmd_workload(env: &Env, set: &JobSet, budget: Duration) -> Result<Report, String> {
    let mut report = Report::default();
    let expect = oracle::prepare(set)?;
    let mut set = set.clone();
    order_longest_first(&mut set, &expect);
    let set = &set;
    let uses_store = !set.prepopulate.is_empty();
    if uses_store {
        proc::sync_disk()?;
    }
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls = Vec::new();
    loop {
        let pass = run_pass(env, set, &expect, passes.len(), &mut report.checker)?;
        for (job, outcome) in set.jobs.iter().zip(&pass.outcomes) {
            report.checker.check(set, &expect, job, outcome);
        }
        if let Some(first) = passes.first() {
            let same = outcomes_digest(&first.outcomes) == outcomes_digest(&pass.outcomes);
            report.checker.record(
                (!same).then(|| format!("pass {} results differ from pass 0", passes.len())),
            );
        }
        walls.push(pass.wall);
        passes.push(pass);
        if !another_pass(started, budget) {
            break;
        }
    }
    let instructions: u64 = passes[0].outcomes.iter().map(Outcome::instructions).sum();
    let setups: Vec<f64> = passes.iter().map(|p| p.setup).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| set.jobs.len() as f64 / p.wall)
        .collect();
    let steps: Vec<f64> = passes
        .iter()
        .map(|p| instructions as f64 / p.wall)
        .collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    let (g61, g62) = expect.geomeans();
    let n = passes.len();
    let digest = outcomes_digest(&passes[0].outcomes);
    // Remove the stores and let the disk settle before the process exits,
    // so the deletions do not overlap whatever is measured next.
    drop(passes);
    if uses_store {
        proc::sync_disk()?;
    }
    report.metric("setup_s", "s", median(&setups), n);
    report.metric("wall_s", "s", median(&walls), n);
    report.metric("jobs_per_s", "1/s", median(&rates), n);
    report.metric(
        "job_p50_ms",
        "ms",
        quantile(&latencies, 0.5) * 1e3,
        latencies.len(),
    );
    report.metric(
        "job_p95_ms",
        "ms",
        quantile(&latencies, 0.95) * 1e3,
        latencies.len(),
    );
    report.metric("sim_steps_per_s", "1/s", median(&steps), n);
    report.metric("peak_rss_mb", "MiB", median(&rss), n);
    report.metric(
        "sim_fig6_1_speedup_geomean",
        "x",
        g61,
        expect.instances.len(),
    );
    report.metric("sim_fig6_2_gain_geomean", "x", g62, expect.instances.len());
    report.notes.push(format!(
        "{} jobs per pass over one closed-loop connection; sim_* are the Fig. 6.1/6.2 ratios over \
         this workload's {} instances (coherent, O0)",
        set.jobs.len(),
        expect.instances.len()
    ));
    report.notes.push(PAPER_NOTE.to_string());
    report.counter("vm.instructions", Json::UInt(instructions));
    report.counter("outcomes_fnv", Json::str(format!("{digest:016x}")));
    report.counter("sim_fig6_1_speedup_geomean", Json::str(format!("{g61:.6}")));
    report.counter("sim_fig6_2_gain_geomean", Json::str(format!("{g62:.6}")));
    Ok(report)
}
