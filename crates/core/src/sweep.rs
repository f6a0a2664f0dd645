//! The parallel experiment sweep engine.
//!
//! [`sweep`] executes a benchmark × mode × core-count matrix
//! ([`SweepMatrix`]) as a work-stealing fan-out over std threads: workers
//! pull points off a shared queue, each point runs one deterministic
//! single-threaded simulation through an artifact-reuse
//! [`Pipeline`] session, and every session shares one
//! [`ArtifactCache`] so the baseline, off-chip and HSM runs of a
//! benchmark parse, analyze and partition its source exactly once.
//!
//! The report records, per point, the payload plus the host wall time,
//! and globally the cache hit/miss counters — both feed the versioned
//! JSON run manifest `figures --json` writes. Results are bit-identical
//! for any worker count: the simulations are pure functions of their
//! inputs, and the cache's pending-slot discipline keeps even the
//! hit/miss counters schedule-independent.

use crate::cache::{run_hash, source_hash, ArtifactCache, CacheStats};
use crate::metrics::PipelineMetrics;
use crate::scenario::{Mode, Scenario};
use crate::{Pipeline, PipelineError, Policy, SharingCheck};
use hsm_exec::{ExecModel, RunResult};
use hsm_predict::{CacheModel, CyclePredictor, FitOptions, WorkScaling};
use hsm_workloads::Bench;
use scc_sim::SccConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one sweep point executes. Run tasks carry their full
/// [`Scenario`] — mode, memory model and opt level travel together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepTask {
    /// A plain run of the given scenario.
    Run(Scenario),
    /// A run of the given scenario with per-stage pipeline metering.
    RunMetered(Scenario),
    /// The pthread-mode sharing-soundness oracle check.
    CheckSharing,
    /// The RCCE-mode oracle check of the translated program.
    CheckSharingRcce,
}

impl SweepTask {
    /// A stable label for manifests and progress output.
    pub fn label(self) -> &'static str {
        match self {
            SweepTask::Run(s) | SweepTask::RunMetered(s) => s.label(),
            SweepTask::CheckSharing => "check_sharing",
            SweepTask::CheckSharingRcce => "check_sharing_rcce",
        }
    }

    /// The scenario a run task carries (oracle checks run with the
    /// pipeline defaults and have none).
    pub fn scenario(self) -> Option<Scenario> {
        match self {
            SweepTask::Run(s) | SweepTask::RunMetered(s) => Some(s),
            SweepTask::CheckSharing | SweepTask::CheckSharingRcce => None,
        }
    }

    /// The placement policy the task's mode implies.
    fn default_policy(self) -> Policy {
        match self.scenario() {
            Some(s) => s.mode.policy(),
            None => Policy::SizeAscending,
        }
    }
}

/// One point of the sweep matrix.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Unique name the report is keyed by.
    pub name: String,
    /// The program source (shared, not cloned, across points).
    pub src: Arc<str>,
    /// What to execute (a run task carries its [`Scenario`]: mode,
    /// memory model and opt level).
    pub task: SweepTask,
    /// Participating core count.
    pub cores: usize,
    /// Placement policy (defaults from the task's mode).
    pub policy: Policy,
    /// Extra cache-hot re-runs to time after the point completes
    /// (0 = none). Feeds the manifest's `host_timing` block.
    pub timing_runs: usize,
    /// The simulated chip, when it differs from the matrix's
    /// [`SweepMatrix::config`] (a frequency or memory-controller sweep).
    pub config: Option<SccConfig>,
}

/// A benchmark × mode × core-count matrix plus execution knobs.
#[derive(Debug, Clone)]
pub struct SweepMatrix {
    /// The points to execute, in report order.
    pub points: Vec<SweepPoint>,
    /// The simulated chip of every point that does not carry its own.
    pub config: SccConfig,
    /// Worker threads (0 = one per available host core).
    pub workers: usize,
    /// Shared artifact cache (a fresh one per sweep when `None`).
    pub cache: Option<Arc<ArtifactCache>>,
}

impl SweepMatrix {
    /// An empty matrix over `config`.
    pub fn new(config: SccConfig) -> Self {
        SweepMatrix {
            points: Vec::new(),
            config,
            workers: 0,
            cache: None,
        }
    }

    /// Sets the worker-thread count (0 = one per available host core).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches a shared cache instead of a per-sweep private one.
    #[must_use]
    pub fn cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Appends a point with the task's default policy.
    #[must_use]
    pub fn point(
        self,
        name: impl Into<String>,
        src: Arc<str>,
        task: SweepTask,
        cores: usize,
    ) -> Self {
        self.timed_point(name, src, task, cores, 0)
    }

    /// Appends a point that additionally times `timing_runs` cache-hot
    /// re-runs.
    #[must_use]
    pub fn timed_point(
        mut self,
        name: impl Into<String>,
        src: Arc<str>,
        task: SweepTask,
        cores: usize,
        timing_runs: usize,
    ) -> Self {
        self.points.push(SweepPoint {
            name: name.into(),
            src,
            task,
            cores,
            policy: task.default_policy(),
            timing_runs,
            config: None,
        });
        self
    }

    /// Runs the most recently appended point on `config` instead of the
    /// matrix's chip. No-op on an empty matrix.
    #[must_use]
    pub fn point_config(mut self, config: SccConfig) -> Self {
        if let Some(point) = self.points.last_mut() {
            point.config = Some(config);
        }
        self
    }

    /// The chip `point` runs on: its own, or the matrix's.
    fn chip<'a>(&'a self, point: &'a SweepPoint) -> &'a SccConfig {
        point.config.as_ref().unwrap_or(&self.config)
    }

    /// Replaces the scenario of the most recently appended point (and
    /// re-derives its default policy). No-op on an empty matrix or an
    /// oracle-check point.
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        if let Some(point) = self.points.last_mut() {
            point.task = match point.task {
                SweepTask::Run(_) => SweepTask::Run(scenario),
                SweepTask::RunMetered(_) => SweepTask::RunMetered(scenario),
                other => other,
            };
            point.policy = point.task.default_policy();
        }
        self
    }

    /// The full benchmark × mode grid at one core count, named
    /// `"{bench}/{mode label}"`.
    pub fn benchmarks(benches: &[Bench], modes: &[Mode], units: usize, config: SccConfig) -> Self {
        let mut matrix = SweepMatrix::new(config);
        for &bench in benches {
            let params = bench.default_params(units);
            let src: Arc<str> = hsm_workloads::source(bench, &params).into();
            for &mode in modes {
                let task = SweepTask::Run(Scenario::new(mode));
                matrix = matrix.point(
                    format!("{}/{}", bench.name(), task.label()),
                    Arc::clone(&src),
                    task,
                    params.threads,
                );
            }
        }
        matrix
    }

    /// One benchmark across several core counts in the given modes, named
    /// `"{bench}@{cores}/{mode label}"`.
    pub fn core_scaling(
        bench: Bench,
        modes: &[Mode],
        core_counts: &[usize],
        config: SccConfig,
    ) -> Self {
        let mut matrix = SweepMatrix::new(config);
        for &cores in core_counts {
            let params = bench.default_params(cores);
            let src: Arc<str> = hsm_workloads::source(bench, &params).into();
            for &mode in modes {
                let task = SweepTask::Run(Scenario::new(mode));
                matrix = matrix.point(
                    format!("{}@{}/{}", bench.name(), cores, task.label()),
                    Arc::clone(&src),
                    task,
                    cores,
                );
            }
        }
        matrix
    }
}

/// An analytical cycle prediction for one sweep point, fitted from a
/// profiled seed run of the same (program, scenario) group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted makespan cycles at the point's core count.
    pub predicted_cycles: u64,
    /// The core count of the profiled seed run the model was fitted at.
    pub seed_cores: usize,
}

/// What a completed point produced.
#[derive(Debug)]
pub enum SweepPayload {
    /// A run result, with stage metrics when the task was metered.
    Run(RunResult, Option<PipelineMetrics>),
    /// An oracle check.
    Sharing(Box<SharingCheck>),
    /// A predict-first sweep satisfied this point analytically instead
    /// of simulating it.
    Predicted(Prediction),
}

impl SweepPayload {
    /// The run result, for `Run`/`RunMetered` points.
    pub fn run_result(&self) -> Option<&RunResult> {
        match self {
            SweepPayload::Run(r, _) => Some(r),
            SweepPayload::Sharing(_) | SweepPayload::Predicted(_) => None,
        }
    }
}

/// Distribution of the cache-hot re-run timings of one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingStats {
    /// Number of timed re-runs.
    pub runs: usize,
    /// Median wall time in nanoseconds.
    pub median_nanos: u128,
    /// Fastest re-run in nanoseconds.
    pub min_nanos: u128,
    /// Slowest re-run in nanoseconds.
    pub max_nanos: u128,
}

/// One executed point of a sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The point's name.
    pub name: String,
    /// The task that ran.
    pub task: SweepTask,
    /// The core count it ran at.
    pub cores: usize,
    /// The payload, or the pipeline failure (with its failing stage).
    pub result: Result<SweepPayload, PipelineError>,
    /// Host wall time of this point, in nanoseconds.
    pub host_wall_nanos: u128,
    /// Cache-hot re-run timing, when the point requested it.
    pub timing: Option<TimingStats>,
    /// The analytical prediction a predict-first sweep attached: set on
    /// predicted points (mirroring the payload) and on the simulated
    /// seed and validation points of each group, so ground-truth error
    /// can be computed. `None` in plain sweeps.
    pub predicted: Option<Prediction>,
}

impl SweepOutcome {
    /// Consumes the outcome into its plain run result (oracle payloads
    /// yield the checked program's run).
    ///
    /// # Errors
    ///
    /// Propagates the point's pipeline failure; a predicted-only point
    /// has no run and yields [`PipelineError::PredictedOnly`].
    pub fn into_run(self) -> Result<RunResult, PipelineError> {
        self.result.and_then(|payload| match payload {
            SweepPayload::Run(r, _) => Ok(r),
            SweepPayload::Sharing(check) => Ok(check.result),
            SweepPayload::Predicted(_) => Err(PipelineError::PredictedOnly),
        })
    }
}

/// The result of one [`sweep`] call.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-point outcomes, in matrix order.
    pub outcomes: Vec<SweepOutcome>,
    /// Cache hit/miss counters accumulated across the whole sweep.
    pub cache: CacheStats,
    /// Worker threads actually used.
    pub workers: usize,
    /// Host wall time of the whole sweep, in nanoseconds.
    pub host_wall_nanos: u128,
}

impl SweepReport {
    /// Finds an outcome by point name.
    pub fn outcome(&self, name: &str) -> Option<&SweepOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }

    /// True when every point completed without a pipeline failure.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }
}

/// Resolves a worker-count request against the host.
fn effective_workers(requested: usize, points: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    workers.clamp(1, points.max(1))
}

/// The configured session for one point.
fn point_pipeline(point: &SweepPoint, config: &SccConfig, cache: &Arc<ArtifactCache>) -> Pipeline {
    let mut pipeline = Pipeline::new(Arc::clone(&point.src)).cores(point.cores);
    if let Some(scenario) = point.task.scenario() {
        pipeline = pipeline.scenario(scenario);
    }
    pipeline
        .policy(point.policy)
        .config(config.clone())
        .cache(Arc::clone(cache))
}

/// Executes one point through an artifact-reuse session.
fn run_point(point: &SweepPoint, config: &SccConfig, cache: &Arc<ArtifactCache>) -> SweepOutcome {
    let started = Instant::now();
    let pipeline = point_pipeline(point, config, cache);
    let result = match point.task {
        SweepTask::Run(_) => pipeline.run_scenario().map(|r| SweepPayload::Run(r, None)),
        SweepTask::RunMetered(_) => pipeline
            .run_scenario_metered()
            .map(|(r, m)| SweepPayload::Run(r, Some(m))),
        SweepTask::CheckSharing => pipeline
            .check_sharing()
            .map(|c| SweepPayload::Sharing(Box::new(c))),
        SweepTask::CheckSharingRcce => pipeline
            .check_sharing_rcce()
            .map(|c| SweepPayload::Sharing(Box::new(c))),
    };
    let timing = if point.timing_runs > 0 && result.is_ok() {
        Some(time_reruns(&pipeline, point.task, point.timing_runs))
    } else {
        None
    };
    SweepOutcome {
        name: point.name.clone(),
        task: point.task,
        cores: point.cores,
        result,
        host_wall_nanos: started.elapsed().as_nanos(),
        timing,
        predicted: None,
    }
}

/// Executes one point through the profiled run path, returning both the
/// outcome and the run [`Profile`](hsm_exec::Profile) (deposited in the
/// cache's `profile` shelf as a side effect).
fn run_point_profiled(
    point: &SweepPoint,
    config: &SccConfig,
    cache: &Arc<ArtifactCache>,
) -> (SweepOutcome, Option<hsm_exec::Profile>) {
    let started = Instant::now();
    let pipeline = point_pipeline(point, config, cache);
    let (result, profile) = match pipeline.run_profiled() {
        Ok((r, profile)) => (Ok(SweepPayload::Run(r, None)), Some(profile)),
        Err(e) => (Err(e), None),
    };
    let outcome = SweepOutcome {
        name: point.name.clone(),
        task: point.task,
        cores: point.cores,
        result,
        host_wall_nanos: started.elapsed().as_nanos(),
        timing: None,
        predicted: None,
    };
    (outcome, profile)
}

/// Times `runs` cache-hot repeats of the point's run path.
fn time_reruns(pipeline: &Pipeline, task: SweepTask, runs: usize) -> TimingStats {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let started = Instant::now();
        let result = match task {
            SweepTask::Run(_) | SweepTask::RunMetered(_) => pipeline.run_scenario(),
            SweepTask::CheckSharing => pipeline.check_sharing().map(|c| c.result),
            SweepTask::CheckSharingRcce => pipeline.check_sharing_rcce().map(|c| c.result),
        };
        let _ = std::hint::black_box(result);
        samples.push(started.elapsed().as_nanos());
    }
    samples.sort_unstable();
    TimingStats {
        runs,
        median_nanos: samples[runs / 2],
        min_nanos: samples[0],
        max_nanos: samples[runs - 1],
    }
}

/// Controls and callbacks for [`sweep_with`]. The plain [`sweep`] is
/// `sweep_with(matrix, SweepOptions::default())`.
#[derive(Clone, Copy, Default)]
pub struct SweepOptions<'a> {
    /// Cooperative cancellation, checked before each point starts (a
    /// running simulation is never interrupted mid-flight). Once it
    /// returns true, every remaining point completes immediately with
    /// [`PipelineError::Cancelled`] — the report still has one outcome
    /// per point, in order. The `hsmd` server uses this to enforce
    /// per-job deadlines.
    pub cancel: Option<&'a (dyn Fn() -> bool + Sync)>,
    /// Streaming hook: called exactly once per point with its index and
    /// outcome, in matrix order, as soon as the point *and every earlier
    /// one* have completed (a reorder buffer hides out-of-order worker
    /// completion). Calls are serialized; the `hsmd` server streams
    /// manifest rows to its client from here.
    pub on_row: Option<RowHook<'a>>,
    /// Predict-first triage: instead of simulating every point, group
    /// the plain run points by (source × chip, scenario, policy),
    /// simulate only each group's smallest-core **seed** (profiled, so its
    /// [`Profile`](hsm_exec::Profile) lands in the cache) and its
    /// farthest-extrapolated **validation** point (ground truth for the
    /// error bound), and satisfy the rest analytically with a fitted
    /// [`CyclePredictor`]. Groups too small to save work (fewer than
    /// three points) and metered/oracle/timed points simulate normally,
    /// so a predict-first sweep runs strictly fewer simulations than the
    /// full matrix whenever any group has three or more points. See
    /// [`SweepPayload::Predicted`] and [`SweepOutcome::predicted`].
    pub predict_first: bool,
}

/// The row-streaming callback type of [`SweepOptions::on_row`]: point
/// index plus the finished outcome, invoked in matrix order.
pub type RowHook<'a> = &'a (dyn Fn(usize, &SweepOutcome) + Sync);

impl std::fmt::Debug for SweepOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("cancel", &self.cancel.is_some())
            .field("on_row", &self.on_row.is_some())
            .field("predict_first", &self.predict_first)
            .finish()
    }
}

/// Executes every point of `matrix` across its worker threads and
/// collects the outcomes in matrix order.
///
/// Workers pull points off a shared queue (the idle ones steal whatever
/// work remains, so a slow point never serializes the rest), and all of
/// them feed one [`ArtifactCache`]. Each simulated run itself stays
/// single-threaded and deterministic; for a fixed matrix the report's
/// payloads and cache counters are identical for every worker count —
/// only the host wall times vary.
pub fn sweep(matrix: &SweepMatrix) -> SweepReport {
    sweep_with(matrix, SweepOptions::default())
}

/// [`sweep`] with cooperative cancellation, ordered row streaming and
/// predict-first triage — the engine behind the `hsmd` job server. See
/// [`SweepOptions`].
pub fn sweep_with(matrix: &SweepMatrix, opts: SweepOptions<'_>) -> SweepReport {
    if opts.predict_first {
        return sweep_predict_first(matrix, opts);
    }
    let cache = matrix.cache.clone().unwrap_or_else(ArtifactCache::shared);
    let total = matrix.points.len();
    let workers = effective_workers(matrix.workers, total);
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    // Reorder buffer cursor: index of the next outcome to hand to
    // `on_row`. Workers advance it under the lock after filling a slot.
    let next_emit = Mutex::new(0usize);
    let slots: Vec<Mutex<Option<SweepOutcome>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let point = &matrix.points[i];
                let outcome = if opts.cancel.is_some_and(|cancelled| cancelled()) {
                    SweepOutcome {
                        name: point.name.clone(),
                        task: point.task,
                        cores: point.cores,
                        result: Err(PipelineError::Cancelled),
                        host_wall_nanos: 0,
                        timing: None,
                        predicted: None,
                    }
                } else {
                    run_point(point, matrix.chip(point), &cache)
                };
                *slots[i].lock().expect("result slot") = Some(outcome);
                if let Some(on_row) = opts.on_row {
                    let mut cursor = next_emit.lock().expect("emit cursor");
                    while *cursor < total {
                        let slot = slots[*cursor].lock().expect("result slot");
                        match slot.as_ref() {
                            Some(done) => on_row(*cursor, done),
                            None => break,
                        }
                        *cursor += 1;
                    }
                }
            });
        }
    });
    let outcomes = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every point executed")
        })
        .collect();
    SweepReport {
        outcomes,
        cache: cache.stats(),
        workers,
        host_wall_nanos: started.elapsed().as_nanos(),
    }
}

/// Maps a run scenario onto the predictor's fit options: the mode picks
/// the work-scaling discipline (and the RCCE library's fixed
/// init/finalize overhead), the memory model picks the cache treatment.
pub fn fit_options_for(scenario: Scenario) -> FitOptions {
    let scaling = match scenario.mode {
        Mode::PthreadBaseline => WorkScaling::Serialized,
        Mode::TaskDataflow => WorkScaling::PartitionedWithMaster,
        Mode::RcceOffChip | Mode::RcceHsm => WorkScaling::Partitioned,
    };
    let cache = match scenario.exec_model {
        ExecModel::SeqCstReference => CacheModel::Flat,
        _ => CacheModel::Hierarchy,
    };
    let fixed_cycles = match scenario.mode {
        Mode::RcceOffChip | Mode::RcceHsm => {
            hsm_exec::syscall_cost::RCCE_INIT + hsm_exec::syscall_cost::RCCE_FINALIZE
        }
        _ => 0,
    };
    FitOptions {
        scaling,
        cache,
        fixed_cycles,
    }
}

/// A point's prediction-group key: same program on the same chip
/// ([`run_hash`]), same scenario, same policy — only the core count
/// varies along the predicted surface.
type GroupKey = (u64, Scenario, Policy);

/// The predict-first engine behind [`SweepOptions::predict_first`].
///
/// Runs serially (the whole point is to do *less* work than the
/// fan-out): per group, one profiled seed simulation, one ground-truth
/// validation simulation at the farthest-extrapolated point, and
/// constant-time analytical predictions for everything else. Outcomes
/// land in matrix order and `on_row` fires once per point, in order,
/// after the sweep completes.
fn sweep_predict_first(matrix: &SweepMatrix, opts: SweepOptions<'_>) -> SweepReport {
    let cache = matrix.cache.clone().unwrap_or_else(ArtifactCache::shared);
    let total = matrix.points.len();
    let started = Instant::now();
    let is_cancelled = || opts.cancel.is_some_and(|cancelled| cancelled());
    let cancel_outcome = |point: &SweepPoint| SweepOutcome {
        name: point.name.clone(),
        task: point.task,
        cores: point.cores,
        result: Err(PipelineError::Cancelled),
        host_wall_nanos: 0,
        timing: None,
        predicted: None,
    };

    // Group the plain, untimed run points by (source × chip, scenario,
    // policy).
    let mut groups: HashMap<GroupKey, Vec<usize>> = HashMap::new();
    for (i, point) in matrix.points.iter().enumerate() {
        if let SweepTask::Run(scenario) = point.task {
            if point.timing_runs == 0 {
                let program = run_hash(source_hash(&point.src), matrix.chip(point));
                groups
                    .entry((program, scenario, point.policy))
                    .or_default()
                    .push(i);
            }
        }
    }

    let mut outcomes: Vec<Option<SweepOutcome>> = (0..total).map(|_| None).collect();
    for ((_, scenario, _), idxs) in groups {
        if idxs.len() < 3 {
            continue; // too small to save work: simulate normally below
        }
        // Seed: the smallest core count (first on ties — deterministic,
        // since `idxs` is in matrix order).
        let seed_idx = *idxs
            .iter()
            .min_by_key(|&&i| (matrix.points[i].cores, i))
            .expect("non-empty group");
        let seed_point = &matrix.points[seed_idx];
        if is_cancelled() {
            for &i in &idxs {
                outcomes[i] = Some(cancel_outcome(&matrix.points[i]));
            }
            continue;
        }
        let seed_config = matrix.chip(seed_point);
        let (mut seed_outcome, profile) = run_point_profiled(seed_point, seed_config, &cache);
        let Some(profile) = profile else {
            // The seed failed; nothing to fit. Record the failure and
            // let the rest of the group fall through to full simulation.
            outcomes[seed_idx] = Some(seed_outcome);
            continue;
        };
        let predictor = CyclePredictor::fit(
            &profile,
            seed_point.cores,
            seed_config,
            fit_options_for(scenario),
        );
        seed_outcome.predicted = Some(Prediction {
            predicted_cycles: predictor.predict(seed_point.cores),
            seed_cores: seed_point.cores,
        });
        outcomes[seed_idx] = Some(seed_outcome);
        // Validation point: the farthest extrapolation from the seed in
        // log-space — where the model is least trustworthy.
        let validate_idx = *idxs
            .iter()
            .filter(|&&i| i != seed_idx)
            .max_by(|&&a, &&b| {
                let dist = |i: usize| {
                    (matrix.points[i].cores as f64 / seed_point.cores as f64)
                        .log2()
                        .abs()
                };
                dist(a)
                    .partial_cmp(&dist(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a)) // ties: the earlier point
            })
            .expect("group has non-seed points");
        for &i in &idxs {
            if i == seed_idx {
                continue;
            }
            let point = &matrix.points[i];
            let prediction = Prediction {
                predicted_cycles: predictor.predict(point.cores),
                seed_cores: seed_point.cores,
            };
            outcomes[i] = Some(if i == validate_idx {
                if is_cancelled() {
                    cancel_outcome(point)
                } else {
                    let mut outcome = run_point(point, matrix.chip(point), &cache);
                    outcome.predicted = Some(prediction);
                    outcome
                }
            } else {
                SweepOutcome {
                    name: point.name.clone(),
                    task: point.task,
                    cores: point.cores,
                    result: Ok(SweepPayload::Predicted(prediction)),
                    host_wall_nanos: 0,
                    timing: None,
                    predicted: Some(prediction),
                }
            });
        }
    }

    // Everything left — ungrouped points, undersized groups, failed
    // seeds' siblings — simulates normally.
    for (i, point) in matrix.points.iter().enumerate() {
        if outcomes[i].is_none() {
            outcomes[i] = Some(if is_cancelled() {
                cancel_outcome(point)
            } else {
                run_point(point, matrix.chip(point), &cache)
            });
        }
    }

    let outcomes: Vec<SweepOutcome> = outcomes
        .into_iter()
        .map(|slot| slot.expect("every point resolved"))
        .collect();
    if let Some(on_row) = opts.on_row {
        for (i, outcome) in outcomes.iter().enumerate() {
            on_row(i, outcome);
        }
    }
    SweepReport {
        outcomes,
        cache: cache.stats(),
        workers: 1,
        host_wall_nanos: started.elapsed().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pi_matrix(workers: usize) -> SweepMatrix {
        let mut params = Bench::PiApprox.default_params(4);
        params.size = 4_000;
        let src: Arc<str> = hsm_workloads::source(Bench::PiApprox, &params).into();
        SweepMatrix::new(SccConfig::table_6_1())
            .workers(workers)
            .point(
                "pi/baseline",
                Arc::clone(&src),
                SweepTask::Run(Mode::PthreadBaseline.into()),
                4,
            )
            .point(
                "pi/offchip",
                Arc::clone(&src),
                SweepTask::Run(Mode::RcceOffChip.into()),
                4,
            )
            .point("pi/hsm", src, SweepTask::Run(Mode::RcceHsm.into()), 4)
    }

    fn cycles(report: &SweepReport) -> Vec<u64> {
        report
            .outcomes
            .iter()
            .map(|o| {
                o.result
                    .as_ref()
                    .expect("point ok")
                    .run_result()
                    .expect("run payload")
                    .timed_cycles
            })
            .collect()
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        let serial = sweep(&tiny_pi_matrix(1));
        let parallel = sweep(&tiny_pi_matrix(3));
        assert_eq!(serial.workers, 1);
        assert_eq!(parallel.workers, 3);
        assert_eq!(cycles(&serial), cycles(&parallel));
        assert_eq!(
            serial.cache, parallel.cache,
            "counters schedule-independent"
        );
        assert!(serial.cache.parse.hits > 0, "modes shared the parse");
        assert_eq!(serial.cache.parse.misses, 1);
    }

    #[test]
    fn sweep_records_errors_per_point_with_stage() {
        let src: Arc<str> = "int main( {".into();
        let matrix = SweepMatrix::new(SccConfig::table_6_1()).point(
            "bad",
            src,
            SweepTask::Run(Mode::RcceHsm.into()),
            2,
        );
        let report = sweep(&matrix);
        assert!(!report.all_ok());
        let err = report.outcomes[0].result.as_ref().unwrap_err();
        assert_eq!(err.stage(), "parse");
    }

    #[test]
    fn streamed_rows_arrive_in_matrix_order() {
        let matrix = tiny_pi_matrix(3);
        let seen: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let on_row = |i: usize, o: &SweepOutcome| {
            seen.lock().unwrap().push((i, o.name.clone()));
        };
        let report = sweep_with(
            &matrix,
            SweepOptions {
                cancel: None,
                on_row: Some(&on_row),
                ..SweepOptions::default()
            },
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), report.outcomes.len());
        for (emitted, (i, name)) in seen.iter().enumerate() {
            assert_eq!(emitted, *i, "rows streamed in matrix order");
            assert_eq!(*name, report.outcomes[*i].name);
        }
    }

    #[test]
    fn cancelled_sweep_marks_remaining_points() {
        let matrix = tiny_pi_matrix(1);
        let cancel = || true;
        let report = sweep_with(
            &matrix,
            SweepOptions {
                cancel: Some(&cancel),
                on_row: None,
                ..SweepOptions::default()
            },
        );
        assert_eq!(report.outcomes.len(), 3, "one outcome per point");
        for o in &report.outcomes {
            assert!(
                matches!(o.result, Err(PipelineError::Cancelled)),
                "{} cancelled",
                o.name
            );
        }
    }

    /// The predict-first acceptance property: a predict-first sweep
    /// simulates strictly fewer points than the matrix has, attaches
    /// ground-truth predictions to its validation points, and keeps the
    /// simulated points' numbers identical to a plain sweep's.
    #[test]
    fn predict_first_simulates_strictly_fewer_points() {
        let mut params = Bench::PiApprox.default_params(4);
        params.size = 4_000;
        let src: Arc<str> = hsm_workloads::source(Bench::PiApprox, &params).into();
        let mut matrix = SweepMatrix::new(SccConfig::table_6_1()).workers(1);
        for cores in [2usize, 4, 8, 16] {
            matrix = matrix.point(
                format!("pi@{cores}/hsm"),
                Arc::clone(&src),
                SweepTask::Run(Mode::RcceHsm.into()),
                cores,
            );
        }
        let plain = sweep(&matrix);
        let predicted = sweep_with(
            &matrix,
            SweepOptions {
                predict_first: true,
                ..SweepOptions::default()
            },
        );
        assert_eq!(predicted.outcomes.len(), 4);
        let simulated: Vec<&SweepOutcome> = predicted
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.result,
                    Ok(SweepPayload::Run(..)) | Ok(SweepPayload::Sharing(..))
                )
            })
            .collect();
        assert_eq!(simulated.len(), 2, "seed + validation only");
        // The seed is the smallest core count, the validation point the
        // farthest extrapolation; both carry a prediction.
        assert_eq!(simulated[0].cores, 2);
        assert_eq!(simulated[1].cores, 16);
        for o in &simulated {
            let prediction = o.predicted.expect("ground truth carries prediction");
            assert_eq!(prediction.seed_cores, 2);
        }
        // The seed's prediction reproduces its measurement exactly.
        let seed = &predicted.outcomes[0];
        let seed_cycles = seed
            .result
            .as_ref()
            .unwrap()
            .run_result()
            .unwrap()
            .total_cycles;
        assert_eq!(seed.predicted.unwrap().predicted_cycles, seed_cycles);
        // Simulated points match the plain sweep bit-for-bit.
        for (p, q) in plain.outcomes.iter().zip(&predicted.outcomes) {
            if let (Ok(a), Ok(b)) = (&p.result, &q.result) {
                if let (Some(ra), Some(rb)) = (a.run_result(), b.run_result()) {
                    assert_eq!(ra.total_cycles, rb.total_cycles, "{}", p.name);
                    assert_eq!(ra.exit_code, rb.exit_code, "{}", p.name);
                }
            }
        }
        // Predicted points carry the payload and the field.
        for o in &predicted.outcomes {
            if let Ok(SweepPayload::Predicted(prediction)) = o.result {
                assert_eq!(Some(prediction), o.predicted);
                assert!(prediction.predicted_cycles > 0);
            }
        }
    }

    /// Predict-first leaves profiles behind: the seed's profile is in
    /// the cache's profile shelf afterwards.
    #[test]
    fn predict_first_deposits_seed_profiles() {
        let mut params = Bench::PiApprox.default_params(4);
        params.size = 4_000;
        let src: Arc<str> = hsm_workloads::source(Bench::PiApprox, &params).into();
        let mut matrix = SweepMatrix::new(SccConfig::table_6_1());
        for cores in [2usize, 4, 8] {
            matrix = matrix.point(
                format!("pi@{cores}/hsm"),
                Arc::clone(&src),
                SweepTask::Run(Mode::RcceHsm.into()),
                cores,
            );
        }
        let report = sweep_with(
            &matrix,
            SweepOptions {
                predict_first: true,
                ..SweepOptions::default()
            },
        );
        assert_eq!(report.cache.profile.misses, 1, "one profiled seed run");
    }

    /// A point's own chip overrides the matrix's, in plain sweeps and in
    /// predict-first ones (whose groups split by chip, so each chip's
    /// seed is fitted on that chip).
    #[test]
    fn points_run_on_their_own_chip() {
        let mut params = Bench::DotProduct.default_params(8);
        params.size = 256;
        let src: Arc<str> = hsm_workloads::source(Bench::DotProduct, &params).into();
        let mut one_mc = SccConfig::table_6_1();
        one_mc.memory_controllers = 1;
        let mut matrix = SweepMatrix::new(SccConfig::table_6_1()).workers(2);
        for (mcs, chip) in [(4, SccConfig::table_6_1()), (1, one_mc.clone())] {
            for cores in [2usize, 4, 8] {
                matrix = matrix
                    .point(
                        format!("dot@{cores}/mc{mcs}"),
                        Arc::clone(&src),
                        SweepTask::Run(Mode::RcceOffChip.into()),
                        cores,
                    )
                    .point_config(chip.clone());
            }
        }
        let plain = sweep(&matrix);
        let direct = Pipeline::new(Arc::clone(&src))
            .cores(8)
            .scenario(Mode::RcceOffChip.into())
            .config(one_mc)
            .run()
            .expect("direct run");
        assert_eq!(cycles(&plain)[5], direct.timed_cycles);
        assert!(cycles(&plain)[5] > cycles(&plain)[2], "1 MC is slower");
        let predicted = sweep_with(
            &matrix,
            SweepOptions {
                predict_first: true,
                ..SweepOptions::default()
            },
        );
        assert_eq!(predicted.cache.profile.misses, 2, "one seed per chip");
        for i in [0, 3] {
            let seed = predicted.outcomes[i].result.as_ref().expect("seed ran");
            let seed = seed.run_result().expect("seed simulated");
            assert_eq!(seed.timed_cycles, cycles(&plain)[i], "seed {i}");
        }
    }

    #[test]
    fn timed_points_record_cache_hot_reruns() {
        let mut matrix = tiny_pi_matrix(2);
        matrix.points[2].timing_runs = 3;
        let report = sweep(&matrix);
        let timing = report.outcomes[2].timing.expect("timing recorded");
        assert_eq!(timing.runs, 3);
        assert!(timing.min_nanos <= timing.median_nanos);
        assert!(timing.median_nanos <= timing.max_nanos);
        assert!(report.outcomes[0].timing.is_none());
    }
}
