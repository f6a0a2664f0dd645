//! # perfbench — the repository's end-to-end benchmark
//!
//! Three seeded workloads run against the release `figures` and `hsmd`
//! binaries: `figures_full` (every paper figure at full scale),
//! `hsmd_sim` (simulate/profile jobs through the server) and
//! `compile_mix` (translate jobs over a persistent store). Every result
//! is checked by [`oracle`]. A separate traced run ([`replay`]) replays
//! the same jobs in-process through each layer's public entry points and
//! attributes host time to layers with spans recorded around those calls
//! ([`trace`]); nothing inside the program is instrumented.
//!
//! See `README.md` in this directory for the metric → layer → workload
//! table and the baseline numbers.

pub mod gen;
pub mod oracle;
pub mod proc;
pub mod replay;
pub mod stats;
pub mod timed;
pub mod trace;

use hsm_core::json::Json;
use std::path::PathBuf;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["figures_full", "hsmd_sim", "compile_mix"];

/// Where the benchmark finds its binaries and may write scratch files.
#[derive(Debug, Clone)]
pub struct Env {
    /// The release `figures` binary.
    pub figures: PathBuf,
    /// The release `hsmd` binary.
    pub hsmd: PathBuf,
    /// Scratch root (stores, span files); created on demand.
    pub scratch: PathBuf,
}

impl Env {
    /// Locates `figures` and `hsmd` next to the running executable, and
    /// puts scratch files beside the build output.
    ///
    /// # Errors
    ///
    /// Reports a missing binary.
    pub fn locate() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the benchmark executable has no parent directory")?;
        let env = Env {
            figures: dir.join("figures"),
            hsmd: dir.join("hsmd"),
            scratch: dir.join("perfbench-scratch"),
        };
        for bin in [&env.figures, &env.hsmd] {
            if !bin.is_file() {
                return Err(format!(
                    "{} is missing; build with `bash perfbench/run.sh`",
                    bin.display()
                ));
            }
        }
        Ok(env)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Correctness counts.
    pub checker: oracle::Checker,
    /// Deterministic counters, printed for cross-run comparison.
    pub counters: Vec<(&'static str, Json)>,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// Appends a deterministic counter.
    pub fn counter(&mut self, name: &'static str, value: Json) {
        self.counters.push((name, value));
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics, each value printed with all its digits.
    ///
    /// # Errors
    ///
    /// Rejects a metric that is not a finite number.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            metrics.push(format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                Json::str(&m.name).render_compact(),
                m.value,
                Json::str(m.unit).render_compact()
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checker.failed == 0,
            self.checker.attempted,
            self.checker.failed,
            metrics.join(", ")
        ))
    }

    /// The counters as one JSON object.
    pub fn counters_json(&self) -> Json {
        Json::obj(self.counters.iter().map(|(k, v)| (*k, v.clone())).collect())
    }
}

/// Maps `f` over `items` on up to two threads, preserving order.
///
/// # Errors
///
/// Returns the first error in item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 2);
    let mut slots: Vec<Option<Result<R, String>>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("worker thread panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item mapped"))
        .collect()
}
