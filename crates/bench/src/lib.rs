//! # hsm-bench — experiment harness shared by the benches and the
//! `figures` binary.
//!
//! [`figure_sections`] describes every table and figure of the paper as
//! a [`Section`]: the simulation points it needs plus a pure renderer
//! over their runs. A [`Plan`] runs the points of the selected sections
//! as one de-duplicated sweep and hands back each section's text in
//! order; the `figures` binary prints them (and with `--json` writes the
//! versioned run manifest from [`manifest`]).

#![warn(missing_docs)]

pub mod interp;
/// The order-preserving JSON value (now shared with the core crate's
/// spec/protocol layer; re-exported so `hsm_bench::json` keeps working).
pub use hsm_core::json;
pub mod manifest;
pub mod predict;
pub mod sharing;

use hsm_core::experiment::{
    self, BenchResult, Mode, Scenario, SweepMatrix, SweepOptions, SweepOutcome, SweepTask,
};
use hsm_core::Policy;
use hsm_exec::RunResult;
use hsm_workloads::{jacobi_source, stream_kernel_source, Bench, Params, StreamKernel};
use scc_sim::{PowerModel, SccConfig};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The evaluation's core/thread count (Table 6.1: 32).
pub const EVAL_UNITS: usize = 32;

/// Output directory for machine-readable artifacts (gitignored).
pub const BENCH_OUT_DIR: &str = "bench-out";

/// Writes a machine-readable artifact, creating its parent directory on
/// demand — `figures --json` must work in a fresh checkout where
/// `bench-out/` does not exist yet.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_artifact(path: &str, content: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, content)
}

/// The paper's running example (Example Code 4.1).
pub const EXAMPLE_4_1: &str = r#"
#include <stdio.h>
#include <pthread.h>

int global;
int *ptr;
int sum[3] = {0};

void *tf(void * tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    pthread_exit(NULL);
}

int main() {
    int local = 0;
    int tmp = 1;
    ptr = &tmp;
    pthread_t threads[3];
    int rc;
    for(local = 0; local < 3; local++) {
        rc = pthread_create(&threads[local], NULL, tf, (void *) local);
    }
    for(local = 0; local < 3; local++) {
        pthread_join(threads[local], NULL);
        printf("Sum Array: %d\n", sum[local]);
    }
    return 0;
}
"#;

/// Renders Table 4.1 and Table 4.2 for the paper's Example Code 4.1.
pub fn analysis_tables() -> (String, String) {
    let tu = hsm_cir::parse(EXAMPLE_4_1).expect("example 4.1 parses");
    let analysis = hsm_analysis::ProgramAnalysis::analyze(&tu);
    (analysis.render_table_4_1(), analysis.render_table_4_2())
}

/// One simulation a figure section asks for, placed by its mode's
/// policy. Two requests are the same point exactly when all four fields
/// are equal, and a [`Plan`] runs each distinct point once.
#[derive(Debug, Clone, PartialEq)]
struct PointRequest {
    src: Arc<str>,
    cores: usize,
    scenario: Scenario,
    config: SccConfig,
}

impl PointRequest {
    /// `src` at `cores` in `mode` on the Table 6.1 chip.
    fn new(src: &Arc<str>, cores: usize, mode: Mode) -> Self {
        PointRequest {
            src: Arc::clone(src),
            cores,
            scenario: Scenario::new(mode),
            config: SccConfig::table_6_1(),
        }
    }
}

/// `src` at `cores` in each of `modes`.
fn points(src: impl Into<Arc<str>>, cores: usize, modes: &[Mode]) -> Vec<PointRequest> {
    let src = src.into();
    modes
        .iter()
        .map(|&mode| PointRequest::new(&src, cores, mode))
        .collect()
}

/// The baseline and HSM modes most sections compare.
const BASE_HSM: [Mode; 2] = [Mode::PthreadBaseline, Mode::RcceHsm];

/// Renders a section from its runs, given in request order.
type Render = Box<dyn Fn(&[&RunResult]) -> String + Send + Sync>;

/// One printed `figures` section: the points it simulates (none for the
/// tables) and a pure renderer over their runs. The rendered text is
/// exactly what `figures` prints for the section.
pub struct Section {
    /// What the error line names when one of the points fails.
    failure: &'static str,
    /// The points, in the order the renderer reads their runs.
    requests: Vec<PointRequest>,
    render: Render,
}

impl Section {
    fn new(
        failure: &'static str,
        requests: Vec<PointRequest>,
        render: impl Fn(&[&RunResult]) -> String + Send + Sync + 'static,
    ) -> Self {
        Section {
            failure,
            requests,
            render: Box::new(render),
        }
    }

    /// A section that simulates nothing: `title`, a blank line, `body`.
    fn fixed(title: &'static str, body: fn() -> String) -> Self {
        Section::new("", Vec::new(), move |_| format!("{title}\n\n{}\n", body()))
    }

    /// A [`header`]ed table with one row per item, each rendered by `row`
    /// from the item's runs, then `footer`.
    fn table<T: Send + Sync + 'static>(
        failure: &'static str,
        title: &str,
        columns: &[(&str, usize)],
        items: impl IntoIterator<Item = (T, Vec<PointRequest>)>,
        row: impl Fn(&T, &[&RunResult]) -> String + Send + Sync + 'static,
        footer: &'static str,
    ) -> Self {
        let (keys, requests): (Vec<T>, Vec<_>) = items.into_iter().unzip();
        let per_row = requests.first().map_or(1, Vec::len);
        let head = header(title, columns);
        Section::new(failure, requests.concat(), move |runs| {
            let rows = keys.iter().zip(runs.chunks(per_row));
            let rows: String = rows.map(|(key, runs)| row(key, runs) + "\n").collect();
            format!("{head}{rows}{footer}\n")
        })
    }
}

/// The sections of one `figures` run, with their points de-duplicated
/// into one sweep: Figure 6.1's points come first, and a section that
/// repeats an earlier point reads that point's row.
pub struct Plan {
    sections: Vec<Section>,
    /// One point per distinct request, in first-request order.
    matrix: SweepMatrix,
    /// Per section, the matrix index each of its requests reads.
    rows: Vec<Vec<usize>>,
}

impl Plan {
    /// Plans `sections` (in printed order) as one sweep over `workers`
    /// threads (0 = one per host core). Simulates nothing.
    pub fn new(sections: Vec<Section>, workers: usize) -> Plan {
        let mut distinct: Vec<&PointRequest> = Vec::new();
        let mut index = |request| {
            let seen = distinct.iter().position(|&seen| seen == request);
            seen.unwrap_or_else(|| {
                distinct.push(request);
                distinct.len() - 1
            })
        };
        let rows = sections
            .iter()
            .map(|section| section.requests.iter().map(&mut index).collect())
            .collect();
        let mut matrix = SweepMatrix::new(SccConfig::table_6_1()).workers(workers);
        for (i, request) in distinct.into_iter().enumerate() {
            let (task, cores) = (SweepTask::Run(request.scenario), request.cores);
            let name = format!("{i}/{}@{cores}", task.label());
            matrix = matrix
                .point(name, Arc::clone(&request.src), task, cores)
                .point_config(request.config.clone());
        }
        Plan {
            sections,
            matrix,
            rows,
        }
    }

    /// Runs every point as one sweep and hands each section's text — or,
    /// if one of its points failed, the error line naming the first such
    /// point — to `emit`, in section order, as soon as the sweep's
    /// in-order cursor has passed the section's last point.
    pub fn run<F: FnMut(Result<String, String>) + Send>(&self, emit: F) {
        let ready: Vec<usize> = self
            .rows
            .iter()
            .map(|rows| rows.iter().max().map_or(0, |&last| last + 1))
            .collect();
        let flush = |(done, next, emit): &mut (Vec<Result<RunResult, String>>, usize, F)| {
            while *next < self.sections.len() && ready[*next] <= done.len() {
                let section = &self.sections[*next];
                let runs: Result<Vec<&RunResult>, &String> =
                    self.rows[*next].iter().map(|&i| done[i].as_ref()).collect();
                emit(match runs {
                    Ok(runs) => Ok((section.render)(&runs)),
                    Err(e) => Err(format!("{}: {e}", section.failure)),
                });
                *next += 1;
            }
        };
        let progress = Mutex::new((Vec::new(), 0, emit));
        flush(&mut progress.lock().expect("plan progress"));
        let on_row = |_: usize, outcome: &SweepOutcome| {
            let mut progress = progress.lock().expect("plan progress");
            progress.0.push(match &outcome.result {
                // The renderers never read the per-core counter matrix
                // (48 cores × 70 counters), so the kept rows drop it.
                Ok(payload) => Ok(RunResult {
                    stats_matrix: Default::default(),
                    ..payload.run_result().expect("a run point").clone()
                }),
                Err(e) => Err(e.to_string()),
            });
            flush(&mut progress);
        };
        let opts = SweepOptions {
            on_row: Some(&on_row),
            ..SweepOptions::default()
        };
        experiment::sweep_with(&self.matrix, opts);
    }
}

/// The tables the selector `want` picks: they simulate nothing and print
/// before any figure, so `figures` shows them before it plans the sweep.
pub fn table_sections(want: impl Fn(&str) -> bool) -> Vec<Section> {
    let mut out = Vec::new();
    if want("table4.1") {
        let title = "Table 4.1 — information extracted per variable (Example Code 4.1)";
        out.push(Section::fixed(title, || analysis_tables().0));
    }
    if want("table4.2") {
        let title = "Table 4.2 — variable sharing status after each stage";
        out.push(Section::fixed(title, || analysis_tables().1));
    }
    if want("example4.2") {
        let title = "Example Code 4.2 — translated RCCE source";
        out.push(Section::fixed(title, render_example_4_2));
    }
    if want("table6.1") {
        let body = || render_table_6_1(EVAL_UNITS);
        out.push(Section::fixed("Table 6.1 — SCC configuration", body));
    }
    out
}

/// Every figure section the selector `want` picks, in printed order.
/// `shrink` divides the simulated problem sizes: 1 is the paper's scale,
/// larger values give the same plan shape for fast tests.
pub fn figure_sections(want: impl Fn(&str) -> bool, shrink: usize) -> Vec<Section> {
    let (fig61, fig62) = (want("fig6.1"), want("fig6.2"));
    let sections: [(bool, &dyn Fn() -> Section); 9] = [
        (fig61 || fig62, &|| evaluation(fig61, fig62, shrink)),
        (want("fig6.3"), &|| core_scaling(shrink)),
        (want("ablation.mc"), &|| memory_controllers(shrink)),
        (want("ablation.policy"), &|| {
            let title = "Ablation — partition policy quality (Stream variables, 128 KB MPB)";
            Section::fixed(title, partition_policies)
        }),
        (want("stream.kernels"), &|| stream_kernels(shrink)),
        (want("ext.jacobi"), &|| jacobi(shrink)),
        (want("dvfs"), &|| dvfs(shrink)),
        (want("energy"), &|| energy(shrink)),
        (want("fig7.threads"), &|| thread_folding(shrink)),
    ];
    sections
        .into_iter()
        .filter_map(|(wanted, section)| wanted.then(section))
        .collect()
}

/// A benchmark's parameters at `threads`, its size divided by `shrink`.
fn sized(bench: Bench, threads: usize, shrink: usize) -> Params {
    let mut params = bench.default_params(threads);
    params.size /= shrink;
    params
}

/// `bench` at `threads` (and as many cores) in each of `modes`.
fn bench_points(bench: Bench, threads: usize, shrink: usize, modes: &[Mode]) -> Vec<PointRequest> {
    let params = sized(bench, threads, shrink);
    points(hsm_workloads::source(bench, &params), threads, modes)
}

/// Run-time ratio of `base` over `other` (the speedup of `other`).
fn speedup(base: &RunResult, other: &RunResult) -> f64 {
    base.timed_cycles as f64 / other.timed_cycles.max(1) as f64
}

/// A section's title, a blank line, then its column headings (the first
/// left-aligned, the rest right-aligned) over a rule as wide as they are.
fn header(title: &str, columns: &[(&str, usize)]) -> String {
    let (&(first, width), rest) = columns.split_first().expect("a first column");
    let mut out = format!("{title}\n\n{first:<width$}");
    for &(name, width) in rest {
        let _ = write!(out, "{name:>width$}");
    }
    let rule = columns.iter().map(|&(_, width)| width).sum();
    out + "\n" + &"-".repeat(rule) + "\n"
}

/// Figures 6.1 and 6.2: every benchmark in all three modes at 32 cores.
fn evaluation(fig61: bool, fig62: bool, shrink: usize) -> Section {
    let modes = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];
    let requests = Bench::all()
        .into_iter()
        .flat_map(|bench| bench_points(bench, EVAL_UNITS, shrink, &modes))
        .collect();
    Section::new("evaluation failed", requests, move |runs| {
        let results: Vec<BenchResult> = Bench::all()
            .into_iter()
            .zip(runs.chunks(3))
            .map(|(bench, r)| BenchResult::new(bench, r[0], r[1], r[2]))
            .collect();
        let fig61 = fig61.then(|| render_fig_6_1(&results) + "\n");
        let fig62 = fig62.then(|| render_fig_6_2(&results) + "\n");
        fig61.unwrap_or_default() + &fig62.unwrap_or_default()
    })
}

/// Renders Figure 6.1: off-chip RCCE speedup over the pthread baseline.
fn render_fig_6_1(results: &[BenchResult]) -> String {
    let mut out = header(
        "Figure 6.1 — RCCE (off-chip shared memory, 32 cores) speedup over\n\
         the 32-thread pthread program on one core",
        &[("Benchmark", 18), ("Speedup", 12), ("Match", 10)],
    );
    for r in results {
        let verdict = if r.outputs_match { "ok" } else { "DIVERGED" };
        let (name, speedup) = (r.bench.name(), r.offchip_speedup());
        let _ = writeln!(out, "{name:<18}{speedup:>10.1}x{verdict:>10}");
    }
    out
}

/// Renders Figure 6.2: run-time improvement of MPB placement over
/// off-chip-only.
fn render_fig_6_2(results: &[BenchResult]) -> String {
    let mut out = header(
        "Figure 6.2 — run time of off-chip-only vs MPB (Algorithm 3)\n\
         placement, 32 cores",
        &[
            ("Benchmark", 18),
            ("Off-chip cyc", 14),
            ("MPB cyc", 14),
            ("Improve", 12),
        ],
    );
    for r in results {
        let (name, off, hsm) = (r.bench.name(), r.offchip_cycles, r.hsm_cycles);
        let improve = r.hsm_improvement();
        let _ = writeln!(out, "{name:<18}{off:>14}{hsm:>14}{improve:>10.1}x");
    }
    let logs = results.iter().map(|r| r.hsm_improvement().ln());
    let geo = logs.sum::<f64>() / results.len() as f64;
    let _ = writeln!(out, "\ngeometric-mean improvement: {:.1}x", geo.exp());
    out
}

/// Figure 6.3: Pi Approximation speedup over the single-core pthread
/// baseline at increasing core counts.
fn core_scaling(shrink: usize) -> Section {
    let items = [1, 2, 4, 8, 16, 32, 48].map(|cores| {
        (
            cores,
            bench_points(Bench::PiApprox, cores, shrink, &BASE_HSM),
        )
    });
    Section::table(
        "figure 6.3 failed",
        "Figure 6.3 — Pi Approximation speedup over the single-core pthread\n\
         baseline at increasing core counts",
        &[("Cores", 10), ("Speedup", 12)],
        items,
        |cores, r| format!("{:<10}{:>10.1}x", cores, speedup(r[0], r[1])),
        "",
    )
}

/// Ablation E8: Dot Product off-chip run time as the number of memory
/// controllers varies (isolates MC queuing contention).
fn memory_controllers(shrink: usize) -> Section {
    const MCS: [usize; 3] = [4, 2, 1];
    let mut dot = bench_points(Bench::DotProduct, EVAL_UNITS, shrink, &[Mode::RcceOffChip]);
    let requests = MCS.map(|mcs| {
        dot[0].config.memory_controllers = mcs;
        dot[0].clone()
    });
    Section::new("MC ablation failed", requests.to_vec(), |runs| {
        let mut out = header(
            "Ablation — Dot Product (off-chip, 32 cores) vs memory controllers",
            &[("MCs", 8), ("Cycles", 14), ("Slowdown", 12)],
        );
        for (mcs, run) in MCS.iter().zip(runs) {
            let cycles = run.timed_cycles;
            let slowdown = cycles as f64 / runs[0].timed_cycles as f64;
            let _ = writeln!(out, "{mcs:<8}{cycles:>14}{slowdown:>10.2}x");
        }
        out + "\n"
    })
}

/// STREAM-style per-kernel bandwidth in all three configurations (the
/// breakdown behind the Stream bar of Figures 6.1/6.2).
fn stream_kernels(shrink: usize) -> Section {
    let params = Params {
        threads: EVAL_UNITS,
        size: 12_288 / shrink,
        reps: 2,
    };
    let modes = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];
    let items = StreamKernel::all().map(|kernel| {
        (
            kernel,
            points(stream_kernel_source(kernel, &params), EVAL_UNITS, &modes),
        )
    });
    let freq_hz = f64::from(SccConfig::table_6_1().core_freq_mhz) * 1e6;
    Section::table(
        "stream kernels failed",
        "Stream kernels — effective bandwidth (MB/s, simulated)",
        &[
            ("Kernel", 8),
            ("Pthread 1-core", 16),
            ("RCCE off-chip", 16),
            ("RCCE MPB", 16),
        ],
        items,
        move |kernel, r| {
            let bytes = (kernel.bytes_per_elem() * params.size * params.reps) as f64;
            let mbps = |run: &RunResult| bytes / (run.timed_cycles as f64 / freq_hz) / 1e6;
            let (base, off, mpb) = (mbps(r[0]), mbps(r[1]), mbps(r[2]));
            format!("{:<8}{base:>16.0}{off:>16.0}{mpb:>16.0}", kernel.name())
        },
        "",
    )
}

/// Extension: Jacobi heat diffusion — barrier-per-iteration stencil, the
/// synchronization-heavy pattern §7.3's future work targets.
fn jacobi(shrink: usize) -> Section {
    let items = [4, 8, 16, 32].map(|cores| {
        let params = Params {
            threads: cores,
            size: 4_096 / shrink + 2,
            reps: 24,
        };
        (cores, points(jacobi_source(&params), cores, &BASE_HSM))
    });
    Section::table(
        "jacobi extension failed",
        "Extension — Jacobi 1-D heat diffusion (in-worker barriers)",
        &[("Cores", 10), ("Speedup", 12), ("Imbalance", 14)],
        items,
        |cores, r| {
            let (speedup, imbalance) = (speedup(r[0], r[1]), r[1].imbalance());
            format!("{cores:<10}{speedup:>10.1}x{imbalance:>14.2}")
        },
        "\nPer-iteration chip-wide barriers shave the scaling below the\n\
         compute-bound near-linear curve of Figure 6.3; the gap widens as\n\
         the per-core slice shrinks.\n",
    )
}

/// DVFS sweep: simulated run time of a compute-bound and a memory-bound
/// benchmark at the SCC's frequency steps. Compute time scales with 1/f;
/// memory-bound time scales sub-linearly because the DRAM is a fixed
/// physical latency (the memory wall).
fn dvfs(shrink: usize) -> Section {
    let items = [1000u32, 800, 533, 266].map(|mhz| {
        let hsm = |bench| bench_points(bench, EVAL_UNITS, shrink, &[Mode::RcceHsm]);
        let mut pair = [hsm(Bench::PiApprox), hsm(Bench::Stream)].concat();
        for request in &mut pair {
            request.config = request.config.with_core_freq(mhz);
        }
        (mhz, pair)
    });
    Section::table(
        "dvfs sweep failed",
        "DVFS sweep — simulated run time (ms) of the HSM configuration",
        &[
            ("Core MHz", 12),
            ("Pi (compute)", 16),
            ("Stream (memory)", 16),
        ],
        items,
        |mhz, r| {
            let ms = |run: &RunResult| run.timed_cycles as f64 / (f64::from(*mhz) * 1e6) * 1e3;
            format!("{:<12}{:>16.3}{:>16.3}", mhz, ms(r[0]), ms(r[1]))
        },
        "",
    )
}

/// Energy comparison: the NCC/manycore motivation of Chapter 1 — what
/// the conversion means in joules, using the chip power model calibrated
/// to the paper's 25 W / 125 W operating envelope.
fn energy(shrink: usize) -> Section {
    let items = [Bench::PiApprox, Bench::Stream, Bench::DotProduct]
        .map(|bench| (bench, bench_points(bench, EVAL_UNITS, shrink, &BASE_HSM)));
    let config = SccConfig::table_6_1();
    let model = PowerModel::new(config.mesh_cols * config.mesh_rows);
    Section::table(
        "energy comparison failed",
        "Energy estimate at the Table 6.1 operating point (full chip powered)",
        &[
            ("Benchmark", 18),
            ("Baseline (mJ)", 16),
            ("HSM (mJ)", 14),
            ("Saved", 12),
        ],
        items,
        move |bench, r| {
            let mj =
                |run: &RunResult| model.energy_joules(run.timed_cycles, config.core_freq_mhz) * 1e3;
            let (base, hsm) = (mj(r[0]), mj(r[1]));
            format!(
                "{:<18}{base:>16.2}{hsm:>14.2}{:>11.1}x",
                bench.name(),
                base / hsm
            )
        },
        "\nThe chip burns the same power either way (all 48 cores stay lit);\n\
         finishing sooner is what saves energy — the free-lunch argument for\n\
         converting instead of timeslicing one core.\n",
    )
}

/// Extension E10 (§7.2): Pi with more threads than cores, the thread
/// work folded onto the chip's 48 cores by the translator's many-to-one
/// fold loop.
fn thread_folding(shrink: usize) -> Section {
    let cores = |threads: usize| threads.min(SccConfig::table_6_1().cores);
    let items = [48, 64, 96].map(|threads| {
        let params = sized(Bench::PiApprox, threads, shrink);
        let src = hsm_workloads::source(Bench::PiApprox, &params);
        (threads, points(src, cores(threads), &BASE_HSM))
    });
    Section::table(
        "thread folding failed",
        "§7.2 extension — Pi with more threads than cores (folded onto 48)",
        &[("Threads", 10), ("Cores", 10), ("Speedup", 12)],
        items,
        move |&threads, r| {
            let speedup = speedup(r[0], r[1]);
            format!("{threads:<10}{:>10}{speedup:>10.1}x", cores(threads))
        },
        "",
    )
}

/// Ablation E9: partitioning policies on a constrained MPB (Stream at a
/// deliberately small on-chip budget) — quantifies Algorithm 3's
/// size-ascending greedy against frequency-density and size-descending.
fn partition_policies() -> String {
    use hsm_partition::{partition, MemorySpec, SharedVar};
    let vars = vec![
        SharedVar::array("a", 64 * 1024, 900_000, 8),
        SharedVar::array("b", 64 * 1024, 600_000, 8),
        SharedVar::array("c", 64 * 1024, 900_000, 8),
        SharedVar::new("nthreads", 4, 64),
        SharedVar::new("n", 4, 64),
        SharedVar::new("reps", 4, 32),
    ];
    let spec = MemorySpec::with_on_chip(128 * 1024);
    let mut out = format!(
        "{:<20}{:>14}{:>20}\n{}\n",
        "Policy",
        "On-chip B",
        "On-chip access %",
        "-".repeat(54)
    );
    for policy in [
        Policy::SizeAscending,
        Policy::FrequencyDensity,
        Policy::SizeDescending,
        Policy::OffChipOnly,
    ] {
        let plan = partition(&vars, &spec, policy);
        let _ = writeln!(
            out,
            "{:<20}{:>14}{:>19.1}%",
            format!("{policy:?}"),
            plan.on_chip_used,
            plan.on_chip_access_fraction() * 100.0
        );
    }
    out
}

/// Renders Table 6.1.
pub fn render_table_6_1(units: usize) -> String {
    SccConfig::table_6_1().render_table_6_1(units, units)
}

/// Renders the translated RCCE source of Example Code 4.1 (Example 4.2).
/// Uses off-chip placement so the allocations read `RCCE_shmalloc`, as in
/// the thesis' listing.
pub fn render_example_4_2() -> String {
    let tu = hsm_cir::parse(EXAMPLE_4_1).expect("example parses");
    hsm_translate::translate(
        &tu,
        hsm_translate::TranslateOptions {
            cores: 32,
            policy: hsm_partition::Policy::OffChipOnly,
        },
    )
    .expect("example translates")
    .to_source()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full `figures` plan, built without simulating: 75 requests
    /// over 62 distinct points, each of the 13 repeats reading its
    /// twin's row.
    #[test]
    fn full_plan_runs_each_distinct_point_once() {
        let plan = Plan::new(figure_sections(|_| true, 1), 0);
        assert_eq!(plan.rows.iter().map(Vec::len).sum::<usize>(), 75);
        assert_eq!(plan.matrix.points.len(), 62);
        let [eval, fig63, mc, _, _, _, dvfs, energy, fig7] = &plan.rows[..] else {
            panic!("9 sections, got {}", plan.rows.len());
        };
        assert_eq!(eval, &(0..18).collect::<Vec<_>>(), "Fig. 6.1 goes first");
        let fig61 = |bench: Bench, mode: usize| {
            let at = Bench::all().iter().position(|&b| b == bench).unwrap();
            eval[at * 3 + mode]
        };
        let (base, off, hsm) = (0, 1, 2);
        let (pi, stream, dot) = (Bench::PiApprox, Bench::Stream, Bench::DotProduct);
        assert_eq!(fig63[10..12], [fig61(pi, base), fig61(pi, hsm)], "32 cores");
        assert_eq!(mc[0], fig61(dot, off), "4 memory controllers");
        assert_eq!(dvfs[2..4], [fig61(pi, hsm), fig61(stream, hsm)], "800 MHz");
        assert_eq!(
            energy,
            &[
                fig61(pi, base),
                fig61(pi, hsm),
                fig61(stream, base),
                fig61(stream, hsm),
                fig61(dot, base),
                fig61(dot, hsm),
            ]
        );
        assert_eq!(fig7[0..2], fig63[12..14], "48 threads = 48 cores");
        let points = &plan.matrix.points;
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                let same = a.src == b.src
                    && a.cores == b.cores
                    && a.task == b.task
                    && a.policy == b.policy
                    && a.config == b.config;
                assert!(!same, "{} and {} share a key", a.name, b.name);
            }
        }
    }

    /// Renders a plan's whole output, or panics on a section error.
    fn render(plan: &Plan) -> String {
        let mut out = String::new();
        plan.run(|section| out += &section.expect("section renders"));
        out
    }

    /// Every section at a fraction of the paper's sizes prints the same
    /// bytes, in the same order, on one worker and on two.
    #[test]
    fn reduced_plan_renders_identically_on_any_worker_count() {
        let sections = || figure_sections(|_| true, 200);
        let serial = render(&Plan::new(sections(), 1));
        assert_eq!(serial, render(&Plan::new(sections(), 2)));
        let titles = [
            "Figure 6.1",
            "Figure 6.2",
            "Figure 6.3",
            "Ablation — partition",
            "§7.2",
        ];
        let at: Vec<usize> = titles.iter().map(|t| serial.find(t).expect(t)).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "sections in order");
    }

    /// A failing point turns its section into one error line naming the
    /// section; the sections around it still print.
    #[test]
    fn a_failing_section_reports_and_the_rest_print() {
        let bad = points("int main( {", 2, &[Mode::RcceHsm]);
        let sections = vec![
            Section::fixed("before", || "a".into()),
            Section::new("broken section failed", bad, |_| unreachable!()),
            Section::fixed("after", || "b".into()),
        ];
        let mut emitted = Vec::new();
        Plan::new(sections, 2).run(|section| emitted.push(section));
        assert_eq!(emitted.len(), 3);
        assert_eq!(emitted[0].as_deref(), Ok("before\n\na\n"));
        let line = emitted[1].as_ref().unwrap_err();
        assert!(
            line.starts_with("broken section failed: parse stage: "),
            "{line}"
        );
        assert_eq!(emitted[2].as_deref(), Ok("after\n\nb\n"));
    }

    #[test]
    fn write_artifact_creates_missing_output_directories() {
        let root = std::env::temp_dir().join(format!("hsm-bench-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("nested/BENCH_test.json");
        let path = path.to_str().expect("utf-8 temp path");
        super::write_artifact(path, "{}\n").expect("writes through missing dirs");
        assert_eq!(std::fs::read_to_string(path).expect("readable"), "{}\n");
        // Overwrites in place on the second run.
        super::write_artifact(path, "{\"v\": 2}\n").expect("rewrites");
        assert_eq!(
            std::fs::read_to_string(path).expect("readable"),
            "{\"v\": 2}\n"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
