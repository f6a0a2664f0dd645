//! The traced run: each workload's jobs replayed in-process through the
//! layers' public entry points, with one span per job and one child span
//! per layer call, followed by probes that time what a replay cannot
//! (the `figures` sections, the server's socket floor, memory-system
//! accesses, and paired runs for the coherence and profiling ratios).
//!
//! The replay mirrors what `hsmd` does per job — the same artifact-cache
//! shelves and keys, the same protocol encode/parse on both sides — so
//! its outcomes must equal the timed run's, which the traced run checks.

use crate::gen::{self, Instance, Job, JobSet, Op};
use crate::oracle::{self, Checker, Expect, Expectations, Outcome};
use crate::proc::{self, Hsmd, TempDir};
use crate::stats::median;
use crate::timed::{self, outcomes_digest, request_of, SECTIONS};
use crate::trace::{Tracer, LAYERS};
use crate::{Env, Report};
use hsm_analysis::ProgramAnalysis;
use hsm_cir::TranslationUnit;
use hsm_core::api::{
    encode_job, encode_response, parse_job, parse_response, Job as WireJob, JobRequest,
    JobResponse, SweepRow,
};
use hsm_core::cache::source_hash;
use hsm_core::json::Json;
use hsm_core::{
    ArtifactCache, ArtifactKey, ExecModel, MemorySpec, Mode, OptLevel, PipelineError, Scenario,
};
use hsm_exec::{Profile, RunResult, SyncEvent, TraceEvent, TraceSink};
use hsm_partition::Placement;
use hsm_translate::{TranslateOptions, Translation};
use hsm_vm::Program;
use hsm_workloads::{reference_exit, Bench, Params};
use scc_sim::{MemorySystem, SccConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts the synchronization operations of one run.
#[derive(Debug, Default)]
struct SyncCounter {
    task: bool,
    barriers: u64,
    lock_acquires: u64,
    spawns: u64,
    dma_bytes: u64,
}

impl TraceSink for SyncCounter {
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}

    fn sync(&mut self, event: SyncEvent) {
        match event {
            SyncEvent::BarrierArrive { .. } => self.barriers += 1,
            SyncEvent::LockAcquire { .. } => self.lock_acquires += 1,
            SyncEvent::ThreadStart { .. } if self.task => self.spawns += 1,
            _ => {}
        }
    }

    fn dma(&mut self, _from: usize, _to: usize, bytes: u64, _cycle: u64) {
        self.dma_bytes += bytes;
    }
}

/// Keeps the first `cap` accesses of a run, for the memory-system probe.
#[derive(Debug)]
struct Capture {
    cap: usize,
    accesses: Vec<(usize, u64, bool, u64)>,
}

impl TraceSink for Capture {
    fn record(&mut self, e: TraceEvent) {
        if self.accesses.len() < self.cap {
            self.accesses.push((e.core, e.addr, e.write, e.cycle));
        }
    }
}

/// Deterministic counts a replay accumulates.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Instructions retired by the jobs' outcomes (as the timed run sums them).
    pub instructions: u64,
    /// Scheduler events of the simulations the replay ran.
    pub events: u64,
    /// Private accesses that reached DRAM.
    pub private_dram: u64,
    /// Shared-DRAM accesses.
    pub shared_dram: u64,
    /// MPB accesses.
    pub mpb: u64,
    /// Cycles spent queueing at memory controllers.
    pub mc_queue_cycles: u64,
    /// Largest MPB high-water mark.
    pub mpb_high_water: u64,
    /// Barrier arrivals.
    pub barriers: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
    /// Tasks spawned.
    pub task_spawns: u64,
    /// Bytes the task runtime moved by DMA.
    pub dma_bytes: u64,
    /// Bytes partition plans placed on-chip.
    pub onchip_bytes: u64,
    /// Bytes partition plans left off-chip.
    pub spilled_bytes: u64,
    /// Bytes of RCCE source emitted by translate jobs.
    pub out_bytes: u64,
    /// Code length of compiled programs before optimization, and count.
    pub code_len_o0: (u64, u64),
    /// Code length after `O2`, and count.
    pub code_len_o2: (u64, u64),
    /// Instructions and host time of compute-bound runs.
    pub compute: (u64, Duration),
    /// Events and host time of memory-bound runs.
    pub memory: (u64, Duration),
}

impl Counts {
    fn add_run(&mut self, r: &RunResult, memory_bound: bool, host: Duration) {
        self.events += r.events;
        self.private_dram += r.mem_stats.private_dram;
        self.shared_dram += r.mem_stats.shared_dram;
        self.mpb += r.mem_stats.mpb;
        self.mc_queue_cycles += r.mem_stats.mc_queue_cycles;
        self.mpb_high_water = self.mpb_high_water.max(r.mpb_high_water as u64);
        if memory_bound {
            self.memory.0 += r.events;
            self.memory.1 += host;
        } else {
            self.compute.0 += r.instructions;
            self.compute.1 += host;
        }
    }
}

/// The span name of a run in `mode`.
fn run_span(mode: Mode) -> &'static str {
    match mode {
        Mode::PthreadBaseline => "exec.run.pthread",
        Mode::RcceOffChip | Mode::RcceHsm => "exec.run.rcce",
        Mode::TaskDataflow => "exec.run.task",
    }
}

/// Runs `program` in `scenario`'s mode and model with `sink` attached.
fn simulate<S: TraceSink>(
    program: &Program,
    cores: usize,
    config: &SccConfig,
    scenario: Scenario,
    sink: &mut S,
) -> Result<RunResult, PipelineError> {
    let model = scenario.exec_model;
    Ok(match scenario.mode {
        Mode::PthreadBaseline => hsm_exec::run_pthread_model_traced(program, config, model, sink)?,
        Mode::RcceOffChip | Mode::RcceHsm => {
            hsm_exec::run_rcce_model_traced(program, cores, config, model, sink)?
        }
        Mode::TaskDataflow => hsm_exec::run_task_model_traced(program, cores, config, model, sink)?,
    })
}

/// Runs `program` profiled.
fn simulate_profiled(
    program: &Program,
    cores: usize,
    config: &SccConfig,
    scenario: Scenario,
) -> Result<(RunResult, Profile), PipelineError> {
    let model = scenario.exec_model;
    Ok(match scenario.mode {
        Mode::PthreadBaseline => hsm_exec::run_pthread_model_profiled(program, config, model)?,
        Mode::RcceOffChip | Mode::RcceHsm => {
            hsm_exec::run_rcce_model_profiled(program, cores, config, model)?
        }
        Mode::TaskDataflow => hsm_exec::run_task_model_profiled(program, cores, config, model)?,
    })
}

/// Replays jobs through one artifact cache, the way one `hsmd` serves
/// them.
pub struct Replayer {
    cache: Arc<ArtifactCache>,
    config: SccConfig,
    /// What the replay has counted so far.
    pub counts: Counts,
    /// Scheduler events each replayed job simulated.
    pub job_events: Vec<u64>,
}

impl Replayer {
    /// A replayer over `cache`.
    pub fn new(cache: Arc<ArtifactCache>) -> Self {
        Replayer {
            cache,
            config: SccConfig::table_6_1(),
            counts: Counts::default(),
            job_events: Vec::new(),
        }
    }

    /// The cache (for its statistics).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    fn unit(&mut self, tr: &mut Tracer, src: &str) -> Result<Arc<TranslationUnit>, PipelineError> {
        let cache = Arc::clone(&self.cache);
        tr.span("core.cache.parse", |tr| {
            cache.unit_with(source_hash(src), src, || {
                tr.span("cir.parse", |_| {
                    hsm_cir::parse(src).map_err(PipelineError::from)
                })
            })
        })
    }

    /// Stages 1–5 through the cache, as `Pipeline::translation` does.
    fn translation(
        &mut self,
        tr: &mut Tracer,
        src: &str,
        cores: usize,
        mode: Mode,
    ) -> Result<Arc<Translation>, PipelineError> {
        let h = source_hash(src);
        let policy = mode.policy();
        let spec = MemorySpec::scc(cores);
        let unit = self.unit(tr, src)?;
        let cache = Arc::clone(&self.cache);
        let counts = &mut self.counts;
        let analysis = tr.span("core.cache.analyze", |tr| {
            cache.analysis_with(h, &unit, || {
                Ok::<_, PipelineError>(
                    tr.span("analysis.analyze", |_| ProgramAnalysis::analyze(&unit)),
                )
            })
        })?;
        let plan = tr.span("core.cache.partition", |tr| {
            cache.plan_with(
                ArtifactKey::Plan {
                    src: h,
                    policy,
                    spec,
                },
                || {
                    let plan = tr.span("partition.partition", |_| {
                        let shared = hsm_partition::shared_vars_from_analysis(&analysis);
                        hsm_partition::partition(&shared, &spec, policy)
                    });
                    for placed in &plan.placements {
                        let size = placed.var.mem_size as u64;
                        let on = match placed.placement {
                            Placement::OnChip => size,
                            Placement::OffChip => 0,
                            Placement::Split { on_chip_bytes } => on_chip_bytes as u64,
                        };
                        counts.onchip_bytes += on;
                        counts.spilled_bytes += size - on;
                    }
                    Ok::<_, PipelineError>(plan)
                },
            )
        })?;
        let key = ArtifactKey::Translation {
            src: h,
            cores,
            policy,
            spec,
        };
        tr.span("core.cache.translate", |tr| {
            cache.translation_with(key, &analysis, &plan, || {
                tr.span("translate.translate", |_| {
                    hsm_translate::translate_with_plan(
                        &unit,
                        &analysis,
                        &plan,
                        TranslateOptions { cores, policy },
                    )
                    .map_err(PipelineError::from)
                })
            })
        })
    }

    /// Compiles (and optimizes) `unit` into the shelf `key`.
    fn program(
        &mut self,
        tr: &mut Tracer,
        key: ArtifactKey,
        unit: &TranslationUnit,
        level: OptLevel,
    ) -> Result<Arc<Program>, PipelineError> {
        let cache = Arc::clone(&self.cache);
        let counts = &mut self.counts;
        tr.span("core.cache.compile", |tr| {
            cache.program_with(key, || {
                let program = tr.span("vm.compile", |_| hsm_vm::compile(unit))?;
                counts.code_len_o0.0 += program.code_len() as u64;
                counts.code_len_o0.1 += 1;
                if level == OptLevel::O0 {
                    return Ok::<_, PipelineError>(program);
                }
                let program = tr.span("vm.optimize", |_| hsm_vm::optimize(&program, level));
                if level == OptLevel::O2 {
                    counts.code_len_o2.0 += program.code_len() as u64;
                    counts.code_len_o2.1 += 1;
                }
                Ok(program)
            })
        })
    }

    /// The bytecode a scenario runs, as `Pipeline` derives it.
    fn front_end(
        &mut self,
        tr: &mut Tracer,
        src: &str,
        cores: usize,
        scenario: Scenario,
    ) -> Result<Arc<Program>, PipelineError> {
        let h = source_hash(src);
        let level = scenario.opt_level;
        match scenario.mode {
            Mode::PthreadBaseline | Mode::TaskDataflow => {
                let unit = self.unit(tr, src)?;
                self.program(
                    tr,
                    ArtifactKey::BaselineProgram { src: h, opt: level },
                    &unit,
                    level,
                )
            }
            Mode::RcceOffChip | Mode::RcceHsm => {
                let translation = self.translation(tr, src, cores, scenario.mode)?;
                let key = ArtifactKey::TranslatedProgram {
                    src: h,
                    cores,
                    policy: scenario.mode.policy(),
                    spec: MemorySpec::scc(cores),
                    opt: level,
                };
                self.program(tr, key, &translation.unit, level)
            }
        }
    }

    /// One counted simulation.
    fn run(
        &mut self,
        tr: &mut Tracer,
        program: &Program,
        cores: usize,
        scenario: Scenario,
        memory_bound: bool,
    ) -> Result<RunResult, PipelineError> {
        let mut sink = SyncCounter {
            task: scenario.mode == Mode::TaskDataflow,
            ..SyncCounter::default()
        };
        let started = Instant::now();
        let config = &self.config;
        let result = tr.span(run_span(scenario.mode), |_| {
            simulate(program, cores, config, scenario, &mut sink)
        })?;
        self.counts
            .add_run(&result, memory_bound, started.elapsed());
        self.counts.barriers += sink.barriers;
        self.counts.lock_acquires += sink.lock_acquires;
        self.counts.task_spawns += sink.spawns;
        self.counts.dma_bytes += sink.dma_bytes;
        Ok(result)
    }

    /// A profile through the cache's profile shelf: a hit skips the
    /// front end and the simulation, as in `Pipeline::profile`.
    fn profile(
        &mut self,
        tr: &mut Tracer,
        src: &str,
        cores: usize,
        scenario: Scenario,
        memory_bound: bool,
    ) -> Result<Arc<Profile>, PipelineError> {
        let key = ArtifactKey::Profile {
            src: source_hash(src),
            cores,
            policy: scenario.mode.policy(),
            spec: MemorySpec::scc(cores),
            scenario,
        };
        let cache = Arc::clone(&self.cache);
        tr.span("core.cache.profile", |tr| {
            cache.profile_with(key, || {
                let program = self.front_end(tr, src, cores, scenario)?;
                let started = Instant::now();
                let config = &self.config;
                let (result, profile) = tr.span("exec.profile", |_| {
                    simulate_profiled(&program, cores, config, scenario)
                })?;
                self.counts
                    .add_run(&result, memory_bound, started.elapsed());
                self.counts.barriers += profile.sync.barrier_arrivals;
                self.counts.lock_acquires += profile.sync.lock_acquires;
                if scenario.mode == Mode::TaskDataflow {
                    self.counts.task_spawns += profile.sync.thread_starts;
                }
                self.counts.dma_bytes += profile.sync.dma_bytes;
                Ok(profile)
            })
        })
    }

    /// Serves one job the way `hsmd` answers it.
    fn execute(&mut self, tr: &mut Tracer, set: &JobSet, job: &Job) -> JobResponse {
        let (src, cores) = set.program(job);
        let name = set.label(job);
        let memory_bound = job.op != Op::Translate && set.instances[job.program].memory_bound();
        match job.op {
            Op::Translate => match self.translation(tr, src, cores, Mode::RcceHsm) {
                Ok(t) => {
                    let source = tr.span("translate.print", |_| t.to_source());
                    self.counts.out_bytes += source.len() as u64;
                    JobResponse::Translated { name, source }
                }
                Err(e) => JobResponse::Error {
                    message: e.to_string(),
                },
            },
            Op::Profile => match self.profile(tr, src, cores, job.scenario, memory_bound) {
                Ok(p) => JobResponse::Profile {
                    name,
                    profile: tr.span("core.protocol.encode", |_| p.to_text()),
                },
                Err(e) => JobResponse::Error {
                    message: e.to_string(),
                },
            },
            Op::Simulate => {
                let s = job.scenario;
                let mut row = SweepRow {
                    name,
                    task: s.mode.label().to_string(),
                    cores: cores as u64,
                    exec_model: s.exec_model.label().to_string(),
                    opt_level: s.opt_level.label().to_string(),
                    exit_code: None,
                    timed_cycles: None,
                    total_cycles: None,
                    instructions: None,
                    output_fnv: None,
                    error: None,
                    predicted: None,
                };
                let result = self
                    .front_end(tr, src, cores, s)
                    .and_then(|program| self.run(tr, &program, cores, s, memory_bound));
                match result {
                    Ok(r) => {
                        row.exit_code = Some(r.exit_code);
                        row.timed_cycles = Some(r.timed_cycles);
                        row.total_cycles = Some(r.total_cycles);
                        row.instructions = Some(r.instructions);
                        row.output_fnv = Some(oracle::fingerprint(&r));
                    }
                    Err(e) => row.error = Some(e.to_string()),
                }
                JobResponse::Row(row)
            }
        }
    }

    /// One job end to end: the wire request is encoded and parsed, the
    /// job served, and the response encoded and parsed again.
    pub fn job(&mut self, tr: &mut Tracer, set: &JobSet, index: usize) -> Outcome {
        let job = &set.jobs[index];
        let id = index as u64 + 1;
        let events_before = self.counts.events;
        tr.set_job(id);
        let outcome = tr.span("job", |tr| {
            let request = request_of(set, job);
            let line = tr.span("core.protocol.encode", |_| {
                encode_job(&WireJob {
                    id,
                    timeout_ms: None,
                    request,
                })
            });
            if let Err(e) = tr.span("core.protocol.parse", |_| parse_job(&line)) {
                return Outcome::Error(e.to_string());
            }
            let response = self.execute(tr, set, job);
            let line = tr.span("core.protocol.encode", |_| encode_response(id, &response));
            match tr.span("core.protocol.parse", |_| parse_response(&line)) {
                Ok((_, response)) => proc::outcome_of(response),
                Err(e) => Outcome::Error(e.to_string()),
            }
        });
        self.counts.instructions += outcome.instructions();
        self.job_events.push(self.counts.events - events_before);
        tr.set_job(0);
        outcome
    }
}

/// The Fig. 6.1 / 6.2 points `figures` simulates at full scale, plus
/// two small probe instances whose task twins and `O2` builds exercise
/// the entry points `figures` never calls (task mode, the optimizer).
pub fn figures_jobs() -> JobSet {
    let units = hsm_bench::EVAL_UNITS;
    let mut instances: Vec<Instance> = Bench::all()
        .into_iter()
        .map(|bench| Instance::new(bench, bench.default_params(units)))
        .collect();
    let mut jobs = Vec::new();
    for program in 0..instances.len() {
        for mode in [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm] {
            jobs.push(Job {
                op: Op::Simulate,
                program,
                twin: false,
                scenario: Scenario::new(mode),
            });
        }
    }
    for (bench, size) in [(Bench::PiApprox, 20_000), (Bench::DotProduct, 2_048)] {
        instances.push(Instance::new(
            bench,
            Params {
                threads: 8,
                size,
                reps: 2,
            },
        ));
        let program = instances.len() - 1;
        for (mode, twin) in [(Mode::TaskDataflow, true), (Mode::RcceHsm, false)] {
            jobs.push(Job {
                op: Op::Simulate,
                program,
                twin,
                scenario: Scenario::new(mode).opt_level(OptLevel::O2),
            });
        }
    }
    JobSet {
        instances,
        jobs,
        ..JobSet::default()
    }
}

/// Expectations of the figures jobs: exit codes from `reference_exit`,
/// fingerprints and cycles from a first (untraced) replay's outcomes.
fn figures_expectations(set: &JobSet, outcomes: &[Outcome]) -> Result<Expectations, String> {
    let mut instances = Vec::new();
    for (program, inst) in set.instances.iter().enumerate() {
        let rows: Vec<(Mode, i64, u64, u64)> = set
            .jobs
            .iter()
            .zip(outcomes)
            .filter(|(job, _)| job.program == program)
            .filter_map(|(job, outcome)| match outcome {
                Outcome::Row {
                    exit: Some(exit),
                    fnv: Some(fnv),
                    cycles: Some(cycles),
                    ..
                } => Some((job.scenario.mode, *exit, *fnv, *cycles)),
                _ => None,
            })
            .collect();
        let find = |mode| rows.iter().find(|r| r.0 == mode).copied();
        let expect = match (
            find(Mode::PthreadBaseline),
            find(Mode::RcceOffChip),
            find(Mode::RcceHsm),
        ) {
            (Some(base), Some(off), Some(hsm)) => Expect {
                exit: reference_exit(inst.bench, &inst.params),
                fnv_baseline: base.2,
                fnv_rcce: off.2,
                cycles: [base.3, off.3, hsm.3],
                instructions: [0; 3],
            },
            _ => oracle::expect_instance(inst)?,
        };
        instances.push(expect);
    }
    Ok(Expectations {
        instances,
        items: Vec::new(),
    })
}

/// Writes the prepopulated translations into the store at `dir`.
fn prepopulate(set: &JobSet, dir: &std::path::Path) -> Result<(), String> {
    let cache = ArtifactCache::persistent(dir).map_err(|e| e.to_string())?;
    let mut replayer = Replayer::new(cache);
    let mut tr = Tracer::new(false);
    for &item in &set.prepopulate {
        let it = &set.items[item];
        replayer
            .translation(&mut tr, &it.src, it.cores, Mode::RcceHsm)
            .map_err(|e| format!("{}: {e}", it.name))?;
    }
    Ok(())
}

/// One replay of every job over a fresh cache (and, for `compile_mix`,
/// a freshly pre-populated store).
fn replay_all(
    env: &Env,
    tr: &mut Tracer,
    set: &JobSet,
    tag: &str,
) -> Result<(Replayer, Vec<Outcome>, Duration), String> {
    let store = if set.prepopulate.is_empty() {
        None
    } else {
        let dir = TempDir::new(
            env.scratch
                .join(format!("replay-{}-{tag}", std::process::id())),
        )?;
        prepopulate(set, &dir.0)?;
        Some(dir)
    };
    let cache = match &store {
        Some(dir) => ArtifactCache::persistent(&dir.0).map_err(|e| e.to_string())?,
        None => ArtifactCache::shared(),
    };
    let mut replayer = Replayer::new(cache);
    let started = Instant::now();
    let outcomes = (0..set.jobs.len())
        .map(|i| replayer.job(tr, set, i))
        .collect();
    Ok((replayer, outcomes, started.elapsed()))
}

/// Probe: the same memory-bound points re-run coherent, under
/// `non_coherent_wb`, and profiled; returns the two host-time ratios.
fn paired_runs(tr: &mut Tracer, set: &JobSet) -> Result<(f64, f64), String> {
    let mut picked: Vec<(usize, bool, Mode)> = Vec::new();
    for job in &set.jobs {
        let eligible = job.op != Op::Translate
            && job.scenario.mode != Mode::PthreadBaseline
            && set.instances[job.program].memory_bound();
        let key = (job.program, job.twin, job.scenario.mode);
        if eligible && !picked.contains(&key) && picked.len() < 2 {
            picked.push(key);
        }
    }
    let mut replayer = Replayer::new(ArtifactCache::shared());
    let (mut coherent, mut ncwb, mut profiled) = (0.0, 0.0, 0.0);
    for (program, twin, mode) in picked {
        let job = Job {
            op: Op::Simulate,
            program,
            twin,
            scenario: Scenario::new(mode),
        };
        let (src, cores) = set.program(&job);
        let bin = replayer
            .front_end(tr, src, cores, job.scenario)
            .map_err(|e| e.to_string())?;
        let config = replayer.config.clone();
        let mut time =
            |name: &'static str, scenario: Scenario, profile: bool| -> Result<f64, String> {
                let started = Instant::now();
                tr.span(name, |_| {
                    if profile {
                        simulate_profiled(&bin, cores, &config, scenario).map(|(r, _)| r)
                    } else {
                        simulate(&bin, cores, &config, scenario, &mut hsm_exec::NullSink)
                    }
                })
                .map_err(|e| e.to_string())?;
                Ok(started.elapsed().as_secs_f64())
            };
        // An untimed first run, so no variant pays for cold host caches.
        time("exec.pair.warmup", job.scenario, false)?;
        coherent += time("exec.pair.coherent", job.scenario, false)?;
        ncwb += time(
            "exec.pair.non_coherent_wb",
            job.scenario.exec_model(ExecModel::NonCoherentWriteBack),
            false,
        )?;
        profiled += time("exec.pair.profiled", job.scenario, true)?;
    }
    Ok((ncwb / coherent, profiled / coherent))
}

/// Probe: captures the first memory-bound run's access stream and
/// replays it into a fresh memory system; returns host ns per access.
fn access_probe(tr: &mut Tracer, set: &JobSet) -> Result<(f64, usize), String> {
    let job = set
        .jobs
        .iter()
        .find(|j| {
            j.op != Op::Translate
                && j.scenario.mode != Mode::PthreadBaseline
                && set.instances[j.program].memory_bound()
        })
        .or_else(|| set.jobs.iter().find(|j| j.op != Op::Translate))
        .ok_or("no simulated job to capture")?;
    let scenario = Scenario::new(job.scenario.mode);
    let (src, cores) = set.program(job);
    let config = SccConfig::table_6_1();
    let mut replayer = Replayer::new(ArtifactCache::shared());
    let program = replayer
        .front_end(tr, src, cores, scenario)
        .map_err(|e| e.to_string())?;
    let mut capture = Capture {
        cap: 1 << 20,
        accesses: Vec::new(),
    };
    tr.span("exec.capture", |_| {
        simulate(&program, cores, &config, scenario, &mut capture)
    })
    .map_err(|e| e.to_string())?;
    let accesses = capture.accesses;
    let mut samples = Vec::new();
    for _ in 0..3 {
        let mut memory = MemorySystem::new(config.clone());
        let started = Instant::now();
        tr.span("sccsim.access", |_| {
            for &(core, addr, write, now) in &accesses {
                black_box(memory.access(core, addr, write, now));
            }
        });
        samples.push(started.elapsed().as_secs_f64() * 1e9 / accesses.len().max(1) as f64);
    }
    Ok((median(&samples), accesses.len()))
}

/// Probe: round trips of `ping` through a spawned `hsmd`, in µs.
fn ping_probe(env: &Env, tr: &mut Tracer) -> Result<f64, String> {
    tr.span("core.server.ping", |_| {
        let server = Hsmd::spawn(&env.hsmd, None)?;
        let mut conn = server.connect()?;
        let mut samples = Vec::new();
        for _ in 0..200 {
            let started = Instant::now();
            match conn.call(JobRequest::Ping)? {
                JobResponse::Pong => samples.push(started.elapsed().as_secs_f64() * 1e6),
                other => return Err(format!("ping answered {other:?}")),
            }
        }
        drop(conn);
        server.shutdown()?;
        Ok(median(&samples))
    })
}

/// Probe: each simulating `figures` section run alone.
fn section_probe(
    env: &Env,
    tr: &mut Tracer,
    checker: &mut Checker,
) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (selector, _) in SECTIONS {
        let name = match selector {
            "fig6.1" => "bench.fig6.1-6.2",
            "fig6.3" => "bench.fig6.3",
            "ablation.mc" => "bench.ablation.mc",
            "stream.kernels" => "bench.stream.kernels",
            "ext.jacobi" => "bench.ext.jacobi",
            "dvfs" => "bench.dvfs",
            "energy" => "bench.energy",
            _ => "bench.fig7.threads",
        };
        let started = Instant::now();
        let run = tr.span(name, |_| proc::run_figures(&env.figures, &[selector]))?;
        checker.record((!run.success).then(|| format!("figures {selector} failed")));
        out.push((format!("{name}_s"), started.elapsed().as_secs_f64()));
    }
    Ok(out)
}

/// The traced run of one workload.
///
/// # Errors
///
/// Reports preparation, process and probe failures.
pub fn traced_run(env: &Env, workload: &str, set: &JobSet) -> Result<Report, String> {
    let mut report = Report::default();
    let mut set = set.clone();
    let expect = if workload == "figures_full" {
        None
    } else {
        let expect = oracle::prepare(&set)?;
        timed::order_longest_first(&mut set, &expect);
        Some(expect)
    };
    let set = &set;
    let mut untraced = Tracer::new(false);
    let (_, first, untraced_wall) = replay_all(env, &mut untraced, set, "untraced")?;
    let expect = match expect {
        Some(e) => e,
        None => figures_expectations(set, &first)?,
    };
    let mut tr = Tracer::new(true);
    let (replayer, outcomes, traced_wall) = replay_all(env, &mut tr, set, "traced")?;
    // A second untraced replay after the traced one: the overhead is taken
    // against the mean of both, so warm-up and drift do not pass for it.
    let (_, last, untraced_wall_2) = replay_all(env, &mut untraced, set, "untraced")?;
    let untraced_wall = (untraced_wall + untraced_wall_2) / 2;
    for (job, outcome) in set.jobs.iter().zip(&outcomes) {
        report.checker.check(set, &expect, job, outcome);
    }
    for replay in [&first, &last] {
        let same = outcomes_digest(replay) == outcomes_digest(&outcomes);
        report.checker.record(
            (!same).then(|| "traced replay results differ from an untraced replay".to_string()),
        );
    }
    let probes_started = Instant::now();
    let (ncwb_ratio, profile_ratio) = paired_runs(&mut tr, set)?;
    let (access_ns, captured) = access_probe(&mut tr, set)?;
    let ping_us = ping_probe(env, &mut tr)?;
    let sections = section_probe(env, &mut tr, &mut report.checker)?;
    // The store prepopulation before the replay is set-up, outside any
    // span; the traced wall is the replay itself plus the probes.
    let traced_total = (traced_wall + probes_started.elapsed()).as_secs_f64();

    let c = &replayer.counts;
    for (name, value) in sections {
        report.metric(name, "s", value, 1);
    }
    let mean = |name: &str| tr.mean_ms(name).unwrap_or(0.0);
    let calls = |name: &str| tr.by_name().get(name).map_or(0, |e| e.0 as usize);
    let avg = |(sum, n): (u64, u64)| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    let stats = replayer.cache().stats();
    let ratio = |s: hsm_core::StageCounters| {
        let total = s.hits + s.misses;
        if total == 0 {
            0.0
        } else {
            s.hits as f64 / total as f64
        }
    };
    let store = stats.store.unwrap_or_default();
    report.metric("cir.parse_ms", "ms", mean("cir.parse"), calls("cir.parse"));
    report.metric(
        "analysis.analyze_ms",
        "ms",
        mean("analysis.analyze"),
        calls("analysis.analyze"),
    );
    report.metric(
        "partition.partition_ms",
        "ms",
        mean("partition.partition"),
        calls("partition.partition"),
    );
    report.metric("partition.onchip_bytes", "bytes", c.onchip_bytes as f64, 1);
    report.metric(
        "partition.spilled_bytes",
        "bytes",
        c.spilled_bytes as f64,
        1,
    );
    report.metric(
        "translate.translate_ms",
        "ms",
        mean("translate.translate"),
        calls("translate.translate"),
    );
    report.metric("translate.out_bytes", "bytes", c.out_bytes as f64, 1);
    report.metric(
        "vm.compile_ms",
        "ms",
        mean("vm.compile"),
        calls("vm.compile"),
    );
    report.metric(
        "vm.optimize_ms",
        "ms",
        mean("vm.optimize"),
        calls("vm.optimize"),
    );
    report.metric(
        "vm.code_len_o0",
        "count",
        avg(c.code_len_o0),
        c.code_len_o0.1 as usize,
    );
    report.metric(
        "vm.code_len_o2",
        "count",
        avg(c.code_len_o2),
        c.code_len_o2.1 as usize,
    );
    report.metric("vm.instructions", "count", c.instructions as f64, 1);
    report.metric(
        "vm.steps_per_s.compute",
        "1/s",
        c.compute.0 as f64 / c.compute.1.as_secs_f64().max(1e-9),
        1,
    );
    report.metric("exec.events", "count", c.events as f64, 1);
    report.metric(
        "exec.ns_per_event.memory",
        "ns",
        c.memory.1.as_secs_f64() * 1e9 / c.memory.0.max(1) as f64,
        1,
    );
    report.metric(
        "exec.run_ms.pthread",
        "ms",
        mean("exec.run.pthread"),
        calls("exec.run.pthread"),
    );
    report.metric(
        "exec.run_ms.rcce",
        "ms",
        mean("exec.run.rcce"),
        calls("exec.run.rcce"),
    );
    report.metric(
        "exec.run_ms.task",
        "ms",
        mean("exec.run.task"),
        calls("exec.run.task"),
    );
    report.metric("exec.coherence.ncwb_ratio", "ratio", ncwb_ratio, 2);
    report.metric("exec.profile.overhead_ratio", "ratio", profile_ratio, 2);
    report.metric("exec.sync.barriers", "count", c.barriers as f64, 1);
    report.metric(
        "exec.sync.lock_acquires",
        "count",
        c.lock_acquires as f64,
        1,
    );
    report.metric("exec.task.spawns", "count", c.task_spawns as f64, 1);
    report.metric("exec.task.dma_bytes", "bytes", c.dma_bytes as f64, 1);
    report.metric(
        "sccsim.accesses.private_dram",
        "count",
        c.private_dram as f64,
        1,
    );
    report.metric(
        "sccsim.accesses.shared_dram",
        "count",
        c.shared_dram as f64,
        1,
    );
    report.metric("sccsim.accesses.mpb", "count", c.mpb as f64, 1);
    report.metric(
        "sccsim.mc_queue_cycles",
        "cycles",
        c.mc_queue_cycles as f64,
        1,
    );
    report.metric("sccsim.mpb_high_water", "bytes", c.mpb_high_water as f64, 1);
    report.metric("sccsim.access_ns", "ns", access_ns, captured);
    for (stage, counters) in [
        ("parse", stats.parse),
        ("analyze", stats.analyze),
        ("partition", stats.partition),
        ("translate", stats.translate),
        ("compile", stats.compile),
        ("profile", stats.profile),
    ] {
        report.metric(
            format!("core.cache.hit_ratio.{stage}"),
            "ratio",
            ratio(counters),
            1,
        );
    }
    report.metric("core.store.loads", "count", store.total_loads() as f64, 1);
    report.metric("core.store.writes", "count", store.total_writes() as f64, 1);
    report.metric("core.store.misses", "count", store.total_misses() as f64, 1);
    report.metric("core.server.ping_us", "us", ping_us, 200);
    let per_call_us = |name: &str| mean(name) * 1e3;
    report.metric(
        "core.protocol.encode_us",
        "us",
        per_call_us("core.protocol.encode"),
        calls("core.protocol.encode"),
    );
    report.metric(
        "core.protocol.parse_us",
        "us",
        per_call_us("core.protocol.parse"),
        calls("core.protocol.parse"),
    );

    let layer_sum = |times: &std::collections::BTreeMap<&str, Duration>| -> f64 {
        LAYERS
            .iter()
            .map(|l| times.get(l).map_or(0.0, Duration::as_secs_f64))
            .sum()
    };
    let whole = tr.self_times(false);
    for layer in LAYERS {
        let value = whole.get(layer).map_or(0.0, Duration::as_secs_f64);
        report.metric(format!("layer.{layer}.self_s"), "s", value, 1);
    }
    let replay_wall = traced_wall.as_secs_f64();
    let replay_attributed = layer_sum(&tr.self_times(true));
    report.metric("trace.wall_s", "s", traced_total, 1);
    report.metric(
        "trace.unattributed_s",
        "s",
        (traced_total - layer_sum(&whole)).max(0.0),
        1,
    );
    report.metric("trace.replay_s", "s", replay_wall, set.jobs.len());
    report.metric(
        "trace.replay_attributed_share",
        "ratio",
        replay_attributed / replay_wall,
        set.jobs.len(),
    );
    report.metric(
        "trace.overhead_s",
        "s",
        traced_wall.as_secs_f64() - untraced_wall.as_secs_f64(),
        1,
    );

    let spans = env
        .scratch
        .join(format!("spans-{workload}-{}.jsonl", std::process::id()));
    tr.write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    report.notes.push(format!(
        "{} spans written to {}",
        tr.spans().len(),
        spans.display()
    ));
    // The counters cover the jobs the untraced run also measures: for
    // `figures_full`, the 18 Fig. 6.1/6.2 points without the probe jobs.
    let (counted, g61, g62) = if workload == "figures_full" {
        let paper = Bench::all().len();
        let (g61, g62) = oracle::geomeans(expect.instances.iter().take(paper).map(|e| e.cycles));
        (paper * 3, g61, g62)
    } else {
        let (g61, g62) = expect.geomeans();
        (set.jobs.len(), g61, g62)
    };
    let instructions: u64 = outcomes[..counted].iter().map(Outcome::instructions).sum();
    report.counter("vm.instructions", Json::UInt(instructions));
    report.counter(
        "exec.events",
        Json::UInt(replayer.job_events[..counted].iter().sum()),
    );
    report.counter(
        "outcomes_fnv",
        Json::str(format!("{:016x}", outcomes_digest(&outcomes[..counted]))),
    );
    report.counter("sim_fig6_1_speedup_geomean", Json::str(format!("{g61:.6}")));
    report.counter("sim_fig6_2_gain_geomean", Json::str(format!("{g62:.6}")));
    Ok(report)
}

/// The job set of a workload.
///
/// # Errors
///
/// Rejects an unknown workload name.
pub fn job_set(workload: &str, seed: u64) -> Result<JobSet, String> {
    match workload {
        "figures_full" => Ok(figures_jobs()),
        "hsmd_sim" => Ok(gen::hsmd_sim(seed)),
        "compile_mix" => Ok(gen::compile_mix(seed)),
        other => Err(format!("unknown workload `{other}`")),
    }
}
