//! The artifact-reuse `Pipeline` session.
//!
//! A [`Pipeline`] is a configured view of one C source through the
//! five-stage pipeline (parse → analyze → partition → translate →
//! compile) plus the simulated executions built on top of it. It is a
//! builder —
//!
//! ```
//! use hsm_core::{Pipeline, Policy};
//!
//! let src = "int main() { return 7; }";
//! let session = Pipeline::new(src).cores(4).policy(Policy::SizeAscending);
//! let result = session.run_baseline().expect("runs");
//! assert_eq!(result.exit_code, 7);
//! ```
//!
//! — and every intermediate artifact it computes ([`Pipeline::unit`],
//! [`Pipeline::analysis`], [`Pipeline::plan`], [`Pipeline::translation`],
//! [`Pipeline::program`]) is memoized in an [`ArtifactCache`] keyed by
//! *source hash × cores × policy × spec*. Cloning the session (or
//! sharing its cache handle across sessions) reuses those artifacts: the
//! baseline, off-chip and HSM runs of one benchmark parse and analyze the
//! source exactly once.
//!
//! The session never hardcodes the partition spec: unless
//! [`Pipeline::spec`] overrides it, the spec is [`MemorySpec::scc`] of
//! the configured core count, so the on-chip budget follows `.cores(n)`.
//!
//! [`Pipeline::scenario`] configures every execution axis — the mode
//! (baseline / RCCE / task-dataflow), the memory model and the opt level
//! — from one [`Scenario`] value; [`Pipeline::run_scenario`] dispatches
//! on it. The memory model is deliberately *not* part of any artifact
//! key: it changes what a run observes, not what the translator
//! produces, so a multi-model sweep of one benchmark still parses,
//! analyzes, translates and compiles exactly once.

use crate::cache::{run_hash, source_hash, ArtifactCache, ArtifactKey};
use crate::metrics::PipelineMetrics;
use crate::scenario::{Mode, Scenario};
use crate::{PipelineError, SharingCheck};
use hsm_analysis::ProgramAnalysis;
use hsm_cir::TranslationUnit;
use hsm_exec::{ExecModel, RunResult};
use hsm_partition::{MemorySpec, PartitionPlan, Policy};
use hsm_translate::{TranslateOptions, Translation};
use hsm_vm::OptLevel;
use scc_sim::SccConfig;
use std::sync::Arc;

/// A configured pipeline session over one C source. See the
/// crate-level docs for the builder protocol and caching semantics.
#[derive(Debug, Clone)]
pub struct Pipeline {
    src: Arc<str>,
    src_hash: u64,
    cores: usize,
    mode: Mode,
    policy: Policy,
    spec: Option<MemorySpec>,
    config: SccConfig,
    exec_model: ExecModel,
    opt_level: OptLevel,
    cache: Arc<ArtifactCache>,
}

impl Pipeline {
    /// A session over `src` with the evaluation defaults: 32 cores,
    /// the default [`Scenario`] (HSM mode, coherent, `O0`,
    /// [`Policy::SizeAscending`]), a spec following the core count, the
    /// Table 6.1 chip, and a fresh private cache.
    pub fn new(src: impl Into<Arc<str>>) -> Self {
        let src = src.into();
        let src_hash = source_hash(&src);
        Pipeline {
            src,
            src_hash,
            cores: 32,
            mode: Mode::RcceHsm,
            policy: Policy::SizeAscending,
            spec: None,
            config: SccConfig::table_6_1(),
            exec_model: ExecModel::Coherent,
            opt_level: OptLevel::O0,
            cache: ArtifactCache::shared(),
        }
    }

    /// Configures every execution axis from one [`Scenario`]: mode,
    /// memory model, optimization level, and the placement policy the
    /// mode implies (a later [`Pipeline::policy`] call still overrides
    /// the policy). This is the only way to select axes — the old
    /// per-axis setters (`exec_model`, `opt_level`) are gone.
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.mode = scenario.mode;
        self.exec_model = scenario.exec_model;
        self.opt_level = scenario.opt_level;
        self.policy = scenario.mode.policy();
        self
    }

    /// Sets the participating core count (also sizes the default spec).
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the Stage 4 placement policy.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the partition spec (default: [`MemorySpec::scc`] of the
    /// configured core count).
    #[must_use]
    pub fn spec(mut self, spec: MemorySpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Sets the simulated chip configuration.
    #[must_use]
    pub fn config(mut self, config: SccConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a shared [`ArtifactCache`] so several sessions reuse each
    /// other's artifacts.
    #[must_use]
    pub fn cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The session's source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The configured core count.
    pub fn configured_cores(&self) -> usize {
        self.cores
    }

    /// The configured placement policy.
    pub fn configured_policy(&self) -> Policy {
        self.policy
    }

    /// The chip configuration runs execute on.
    pub fn chip(&self) -> &SccConfig {
        &self.config
    }

    /// The memory model runs execute under.
    pub fn configured_exec_model(&self) -> ExecModel {
        self.exec_model
    }

    /// The bytecode optimization level programs compile at.
    pub fn configured_opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// The session's axes as one [`Scenario`].
    pub fn configured_scenario(&self) -> Scenario {
        Scenario {
            mode: self.mode,
            exec_model: self.exec_model,
            opt_level: self.opt_level,
        }
    }

    /// The partition spec in effect: the explicit override, or the SCC
    /// spec sized to the configured core count.
    pub fn effective_spec(&self) -> MemorySpec {
        self.spec.unwrap_or_else(|| MemorySpec::scc(self.cores))
    }

    /// The session's cache handle (hand it to another session, or read
    /// its [`stats`](ArtifactCache::stats)).
    pub fn cache_handle(&self) -> Arc<ArtifactCache> {
        Arc::clone(&self.cache)
    }

    fn translation_key(&self) -> ArtifactKey {
        ArtifactKey::Translation {
            src: self.src_hash,
            cores: self.cores,
            policy: self.policy,
            spec: self.effective_spec(),
        }
    }

    fn profile_key(&self) -> ArtifactKey {
        ArtifactKey::Profile {
            src: run_hash(self.src_hash, &self.config),
            cores: self.cores,
            policy: self.policy,
            spec: self.effective_spec(),
            scenario: self.configured_scenario(),
        }
    }

    // ------------------------------------------------------ artifacts --
    //
    // Each public getter performs exactly one cache lookup per shelf: the
    // private `*_of` helpers take their dependencies as arguments instead
    // of re-resolving them, so the hit/miss counters read as "how many
    // operations reused this artifact", not as internal call chatter.

    /// The parsed translation unit (memoized per source).
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn unit(&self) -> Result<Arc<TranslationUnit>, PipelineError> {
        self.cache
            .unit_with(self.src_hash, &self.src, || Ok(hsm_cir::parse(&self.src)?))
    }

    /// Stage 1–3 over an already-parsed unit (one `analyze` lookup).
    fn analysis_of(&self, unit: &TranslationUnit) -> Result<Arc<ProgramAnalysis>, PipelineError> {
        self.cache
            .analysis_with(self.src_hash, unit, || Ok(ProgramAnalysis::analyze(unit)))
    }

    /// Stage 4 over an already-computed analysis (one `partition` lookup).
    fn plan_of(&self, analysis: &ProgramAnalysis) -> Result<Arc<PartitionPlan>, PipelineError> {
        let spec = self.effective_spec();
        let key = ArtifactKey::Plan {
            src: self.src_hash,
            policy: self.policy,
            spec,
        };
        self.cache.plan_with(key, || {
            let shared = hsm_partition::shared_vars_from_analysis(analysis);
            Ok(hsm_partition::partition(&shared, &spec, self.policy))
        })
    }

    /// Stage 5 over already-computed inputs (one `translate` lookup).
    fn translation_of(
        &self,
        unit: &TranslationUnit,
        analysis: &ProgramAnalysis,
        plan: &PartitionPlan,
    ) -> Result<Arc<Translation>, PipelineError> {
        self.cache
            .translation_with(self.translation_key(), analysis, plan, || {
                Ok(hsm_translate::translate_with_plan(
                    unit,
                    analysis,
                    plan,
                    TranslateOptions {
                        cores: self.cores,
                        policy: self.policy,
                    },
                )?)
            })
    }

    /// Bytecode of an already-computed translation (one `compile` lookup).
    fn program_of(&self, translation: &Translation) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        let level = self.opt_level;
        let key = ArtifactKey::TranslatedProgram {
            src: self.src_hash,
            cores: self.cores,
            policy: self.policy,
            spec: self.effective_spec(),
            opt: level,
        };
        self.cache.program_with(key, || {
            let program = hsm_vm::compile(&translation.unit)?;
            Ok(match level {
                OptLevel::O0 => program,
                _ => hsm_vm::optimize(&program, level),
            })
        })
    }

    /// Baseline bytecode of an already-parsed unit (one `compile` lookup).
    fn baseline_program_of(
        &self,
        unit: &TranslationUnit,
    ) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        let level = self.opt_level;
        let key = ArtifactKey::BaselineProgram {
            src: self.src_hash,
            opt: level,
        };
        self.cache.program_with(key, || {
            let program = hsm_vm::compile(unit)?;
            Ok(match level {
                OptLevel::O0 => program,
                _ => hsm_vm::optimize(&program, level),
            })
        })
    }

    /// The Stage 1–3 analysis (memoized per source).
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn analysis(&self) -> Result<Arc<ProgramAnalysis>, PipelineError> {
        let unit = self.unit()?;
        self.analysis_of(&unit)
    }

    /// The Stage 4 partition plan against [`Pipeline::effective_spec`]
    /// (memoized per source × policy × spec).
    ///
    /// # Errors
    ///
    /// Propagates parse failures.
    pub fn plan(&self) -> Result<Arc<PartitionPlan>, PipelineError> {
        let analysis = self.analysis()?;
        self.plan_of(&analysis)
    }

    /// The Stage 5 translation to RCCE C (memoized per source × cores ×
    /// policy × spec).
    ///
    /// # Errors
    ///
    /// Propagates parse and translation failures.
    pub fn translation(&self) -> Result<Arc<Translation>, PipelineError> {
        let unit = self.unit()?;
        let analysis = self.analysis_of(&unit)?;
        let plan = self.plan_of(&analysis)?;
        self.translation_of(&unit, &analysis, &plan)
    }

    /// The compiled bytecode of the translated RCCE program.
    ///
    /// # Errors
    ///
    /// Propagates parse, translation and compilation failures.
    pub fn program(&self) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        let translation = self.translation()?;
        self.program_of(&translation)
    }

    /// The compiled bytecode of the unmodified pthread program.
    ///
    /// # Errors
    ///
    /// Propagates parse and compilation failures.
    pub fn baseline_program(&self) -> Result<Arc<hsm_vm::Program>, PipelineError> {
        let unit = self.unit()?;
        self.baseline_program_of(&unit)
    }

    // ----------------------------------------------------------- runs --

    /// Runs the program the way the configured [`Scenario`] selects:
    /// the pthread interpreter, the translated RCCE program, or the
    /// task-dataflow runtime.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run_scenario(&self) -> Result<RunResult, PipelineError> {
        match self.mode {
            Mode::PthreadBaseline => self.run_baseline(),
            Mode::RcceOffChip | Mode::RcceHsm => self.run(),
            Mode::TaskDataflow => self.run_task(),
        }
    }

    /// [`Pipeline::run_scenario`] with per-stage metering: the RCCE modes
    /// meter all five stages, the baseline and task modes their two
    /// (parse, compile).
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run_scenario_metered(&self) -> Result<(RunResult, PipelineMetrics), PipelineError> {
        match self.mode {
            Mode::PthreadBaseline => self.run_baseline_metered(),
            Mode::RcceOffChip | Mode::RcceHsm => self.run_metered(),
            Mode::TaskDataflow => {
                let (program, metrics) = self.task_program_metered()?;
                Ok((
                    hsm_exec::run_task_model(&program, self.cores, &self.config, self.exec_model)?,
                    metrics,
                ))
            }
        }
    }

    /// The mode-matched profiled execution, without cache interaction.
    fn compute_profiled(&self) -> Result<(RunResult, hsm_exec::Profile), PipelineError> {
        Ok(match self.mode {
            Mode::PthreadBaseline => {
                let program = self.baseline_program()?;
                hsm_exec::run_pthread_model_profiled(&program, &self.config, self.exec_model)?
            }
            Mode::RcceOffChip | Mode::RcceHsm => {
                let program = self.program()?;
                hsm_exec::run_rcce_model_profiled(
                    &program,
                    self.cores,
                    &self.config,
                    self.exec_model,
                )?
            }
            Mode::TaskDataflow => {
                let program = self.baseline_program()?;
                hsm_exec::run_task_model_profiled(
                    &program,
                    self.cores,
                    &self.config,
                    self.exec_model,
                )?
            }
        })
    }

    /// [`Pipeline::run_scenario`] with profiling: always simulates, and
    /// deposits the resulting [`Profile`](hsm_exec::Profile) in the
    /// cache's `profile` shelf (keyed like any other stage artifact, so
    /// a warm sweep can reuse it without re-running) as a side effect.
    ///
    /// Profiling never perturbs timing — the returned [`RunResult`] is
    /// identical to what [`Pipeline::run_scenario`] reports.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run_profiled(&self) -> Result<(RunResult, hsm_exec::Profile), PipelineError> {
        let (result, profile) = self.compute_profiled()?;
        let stored = profile.clone();
        self.cache
            .profile_with(self.profile_key(), move || Ok::<_, PipelineError>(stored))?;
        Ok((result, profile))
    }

    /// The run profile for the configured scenario (memoized per source
    /// × chip × cores × policy × spec × scenario). A cache hit — in
    /// memory or through the persistent store — skips simulation
    /// entirely; a miss simulates once via the mode-matched profiled
    /// entry point.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn profile(&self) -> Result<Arc<hsm_exec::Profile>, PipelineError> {
        self.cache.profile_with(self.profile_key(), || {
            self.compute_profiled().map(|(_, profile)| profile)
        })
    }

    /// Runs the task-annotated program (`task_spawn`/`task_wait_all`)
    /// under the dependence-tracking task scheduler. The source is
    /// compiled directly — the pthread→RCCE translation stages do not
    /// apply to task programs.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run_task(&self) -> Result<RunResult, PipelineError> {
        let program = self.baseline_program()?;
        Ok(hsm_exec::run_task_model(
            &program,
            self.cores,
            &self.config,
            self.exec_model,
        )?)
    }

    /// Parses and compiles a task program with the two stages metered.
    fn task_program_metered(
        &self,
    ) -> Result<(Arc<hsm_vm::Program>, PipelineMetrics), PipelineError> {
        let mut metrics = PipelineMetrics::default();
        let unit = metrics.measure("parse", || {
            self.unit().map(|u| {
                let size = hsm_cir::print_unit(&u).len();
                (u, size)
            })
        })?;
        let program = metrics.measure("compile", || {
            self.baseline_program_of(&unit).map(|p| {
                let len = p.code_len();
                (p, len)
            })
        })?;
        Ok((program, metrics))
    }

    /// Translates (reusing cached artifacts) and runs the RCCE program on
    /// the configured cores.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run(&self) -> Result<RunResult, PipelineError> {
        let program = self.program()?;
        Ok(hsm_exec::run_rcce_model(
            &program,
            self.cores,
            &self.config,
            self.exec_model,
        )?)
    }

    /// Runs the unmodified pthread program on one simulated core.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run_baseline(&self) -> Result<RunResult, PipelineError> {
        let program = self.baseline_program()?;
        Ok(hsm_exec::run_pthread_model(
            &program,
            &self.config,
            self.exec_model,
        )?)
    }

    /// [`Pipeline::run`] with per-stage metering of all five stages.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run_metered(&self) -> Result<(RunResult, PipelineMetrics), PipelineError> {
        let (_, program, metrics) = self.compile_metered()?;
        Ok((
            hsm_exec::run_rcce_model(&program, self.cores, &self.config, self.exec_model)?,
            metrics,
        ))
    }

    /// [`Pipeline::run_baseline`] with metering of the baseline's two
    /// stages (parse, compile).
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn run_baseline_metered(&self) -> Result<(RunResult, PipelineMetrics), PipelineError> {
        let mut metrics = PipelineMetrics::default();
        let unit = metrics.measure("parse", || {
            self.unit().map(|u| {
                let size = hsm_cir::print_unit(&u).len();
                (u, size)
            })
        })?;
        let program = metrics.measure("compile", || {
            self.baseline_program_of(&unit).map(|p| {
                let len = p.code_len();
                (p, len)
            })
        })?;
        Ok((
            hsm_exec::run_pthread_model(&program, &self.config, self.exec_model)?,
            metrics,
        ))
    }

    /// Drives the five stages one at a time so each gets its own
    /// [`StageMetric`](crate::StageMetric). Cached stages still report
    /// their deterministic IR sizes; only the wall times shrink.
    ///
    /// # Errors
    ///
    /// Propagates parse, translation and compilation failures.
    pub fn compile_metered(
        &self,
    ) -> Result<(Arc<Translation>, Arc<hsm_vm::Program>, PipelineMetrics), PipelineError> {
        let mut metrics = PipelineMetrics::default();
        let unit = metrics.measure("parse", || {
            self.unit().map(|u| {
                let size = hsm_cir::print_unit(&u).len();
                (u, size)
            })
        })?;
        let analysis = metrics.measure("analyze", || {
            self.analysis_of(&unit).map(|a| {
                let vars = a.sharing.variables().count();
                (a, vars)
            })
        })?;
        let plan = metrics.measure("partition", || {
            self.plan_of(&analysis).map(|p| {
                let placements = p.placements.len();
                (p, placements)
            })
        })?;
        let translation = metrics.measure("translate", || {
            self.translation_of(&unit, &analysis, &plan).map(|t| {
                let size = t.to_source().len();
                (t, size)
            })
        })?;
        let program = metrics.measure("compile", || {
            self.program_of(&translation).map(|p| {
                let len = p.code_len();
                (p, len)
            })
        })?;
        Ok((translation, program, metrics))
    }

    // --------------------------------------------------------- oracle --

    /// Runs the pthread program under the sharing-soundness oracle,
    /// validating the Stage 1–3 classification (and the Stage 4 placement
    /// annotations, derived from the session's policy and spec) against
    /// the ground-truth thread semantics.
    ///
    /// # Errors
    ///
    /// Propagates parse, compile and execution failures.
    pub fn check_sharing(&self) -> Result<SharingCheck, PipelineError> {
        let unit = self.unit()?;
        let analysis = self.analysis_of(&unit)?;
        let mut manifest = hsm_analysis::ClassificationManifest::from_analysis(&analysis);
        let plan = self.plan_of(&analysis)?;
        hsm_partition::annotate_manifest(&plan, &mut manifest);
        let program = self.baseline_program_of(&unit)?;
        let mut oracle = hsm_exec::Oracle::new(
            &program,
            manifest.clone(),
            hsm_exec::OracleMode::Pthread,
            self.config.line_bytes,
        );
        let result = hsm_exec::run_pthread_model_traced(
            &program,
            &self.config,
            self.exec_model,
            &mut oracle,
        )?;
        Ok(SharingCheck {
            manifest,
            report: oracle.finish(),
            result,
        })
    }

    /// Translates and runs the RCCE program under the oracle in RCCE
    /// mode: pure happens-before race detection over the shared regions,
    /// validating the synchronization the translator inserted.
    ///
    /// # Errors
    ///
    /// Propagates parse, translation, compile and execution failures.
    pub fn check_sharing_rcce(&self) -> Result<SharingCheck, PipelineError> {
        let program = self.program()?;
        let mut oracle = hsm_exec::Oracle::new(
            &program,
            hsm_analysis::ClassificationManifest::empty(),
            hsm_exec::OracleMode::Rcce,
            self.config.line_bytes,
        );
        let result = hsm_exec::run_rcce_model_traced(
            &program,
            self.cores,
            &self.config,
            self.exec_model,
            &mut oracle,
        )?;
        Ok(SharingCheck {
            manifest: hsm_analysis::ClassificationManifest::empty(),
            report: oracle.finish(),
            result,
        })
    }

    /// Runs the task program under the oracle in pthread mode with an
    /// empty classification manifest: pure happens-before race detection
    /// over the spawn/dependence/wait edges the task runtime emits. A
    /// task program whose in/out annotations cover its sharing is clean;
    /// undeclared sharing shows up as a data race.
    ///
    /// # Errors
    ///
    /// Propagates parse, compile and execution failures.
    pub fn check_sharing_task(&self) -> Result<SharingCheck, PipelineError> {
        let program = self.baseline_program()?;
        let mut oracle = hsm_exec::Oracle::new(
            &program,
            hsm_analysis::ClassificationManifest::empty(),
            hsm_exec::OracleMode::Pthread,
            self.config.line_bytes,
        );
        let result = hsm_exec::run_task_model_traced(
            &program,
            self.cores,
            &self.config,
            self.exec_model,
            &mut oracle,
        )?;
        Ok(SharingCheck {
            manifest: hsm_analysis::ClassificationManifest::empty(),
            report: oracle.finish(),
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
int sum[2];
void *tf(void *tid) { sum[(int)tid] = (int)tid + 1; return tid; }
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    return sum[0] + sum[1];
}
"#;

    #[test]
    fn spec_follows_core_count_unless_overridden() {
        let p = Pipeline::new(SRC).cores(4);
        assert_eq!(p.effective_spec(), MemorySpec::scc(4));
        let q = Pipeline::new(SRC).cores(4).spec(MemorySpec::scc(48));
        assert_eq!(q.effective_spec(), MemorySpec::scc(48));
        assert_eq!(q.plan().expect("plan").spec, MemorySpec::scc(48));
    }

    #[test]
    fn cloned_sessions_share_artifacts() {
        let base = Pipeline::new(SRC).cores(2);
        let off = base.clone().policy(Policy::OffChipOnly);
        let _ = base.run_baseline().expect("baseline");
        let _ = off.run().expect("off-chip");
        let stats = base.cache_handle().stats();
        assert_eq!(stats.parse.misses, 1, "one parse for both sessions");
        assert!(stats.parse.hits > 0, "the clone reused the parse");
    }

    #[test]
    fn artifacts_are_computed_once_per_key() {
        let p = Pipeline::new(SRC).cores(2);
        let a = p.translation().expect("first");
        let b = p.translation().expect("second");
        assert!(Arc::ptr_eq(&a, &b), "same memoized artifact");
        assert_eq!(p.cache_handle().stats().translate.misses, 1);
    }

    #[test]
    fn baseline_and_translated_agree() {
        let p = Pipeline::new(SRC).cores(2);
        let base = p.run_baseline().expect("baseline");
        let hsm = p.run().expect("hsm");
        assert_eq!(base.exit_code, 3);
        assert_eq!(hsm.exit_code, 3);
    }

    #[test]
    fn exec_models_share_every_artifact() {
        let p = Pipeline::new(SRC).cores(2);
        let coherent = p.run().expect("coherent");
        let stale = p
            .clone()
            .scenario(Scenario::default().exec_model(ExecModel::NonCoherentWriteBack))
            .run()
            .expect("non-coherent");
        // The translated program is staleness-immune by construction.
        assert_eq!(coherent.exit_code, stale.exit_code);
        let stats = p.cache_handle().stats();
        assert_eq!(stats.translate.misses, 1, "model is not an artifact key");
        assert_eq!(stats.compile.misses, 1);
        assert!(stats.compile.hits > 0, "second model reused the bytecode");
    }

    /// Ported from the deprecated-setter migration check (the per-axis
    /// setters are gone): `Pipeline::scenario` must configure every axis
    /// the setters used to reach, and the round trip through
    /// `configured_scenario` must be lossless.
    #[test]
    fn scenario_configures_every_axis() {
        let scenario = Scenario::default()
            .exec_model(ExecModel::SeqCstReference)
            .opt_level(hsm_vm::OptLevel::O2);
        let p = Pipeline::new(SRC).scenario(scenario);
        assert_eq!(p.configured_exec_model(), ExecModel::SeqCstReference);
        assert_eq!(p.configured_opt_level(), hsm_vm::OptLevel::O2);
        assert_eq!(p.configured_scenario(), scenario);
    }

    #[test]
    fn profiles_are_cached_and_match_the_plain_run() {
        let p = Pipeline::new(SRC).cores(2);
        let plain = p.run().expect("plain run");
        let (profiled, profile) = p.run_profiled().expect("profiled run");
        assert_eq!(plain.total_cycles, profiled.total_cycles);
        assert_eq!(profile.total_cycles, plain.total_cycles);
        assert_eq!(profile.exit_code, plain.exit_code);
        // run_profiled deposited the artifact: profile() is now a hit.
        let cached = p.profile().expect("cached profile");
        assert_eq!(cached.total_cycles, profile.total_cycles);
        let stats = p.cache_handle().stats();
        assert_eq!(stats.profile.misses, 1, "one profile computed");
        assert!(stats.profile.hits > 0, "the lookup reused it");
    }

    #[test]
    fn profile_keys_distinguish_scenarios() {
        let p = Pipeline::new(SRC).cores(2);
        let hsm = p.profile().expect("hsm profile");
        let base = p
            .clone()
            .scenario(Scenario::default().mode(Mode::PthreadBaseline))
            .profile()
            .expect("baseline profile");
        assert_eq!(hsm.exit_code, base.exit_code);
        assert!(base.active_cores() <= hsm.active_cores());
        assert_eq!(p.cache_handle().stats().profile.misses, 2);
    }

    /// Two sessions over one cache that differ only in the simulated chip
    /// must not share a profile: with one memory controller instead of
    /// four, off-chip Dot Product queues longer and runs slower.
    #[test]
    fn profile_keys_distinguish_chips() {
        let mut params = hsm_workloads::Bench::DotProduct.default_params(8);
        params.size = 256;
        let src = hsm_workloads::source(hsm_workloads::Bench::DotProduct, &params);
        let four = Pipeline::new(src)
            .cores(8)
            .scenario(Scenario::new(Mode::RcceOffChip));
        let mut one_mc = SccConfig::table_6_1();
        one_mc.memory_controllers = 1;
        let one = four.clone().config(one_mc);
        let p4 = four.profile().expect("4-MC profile");
        let p1 = one.profile().expect("1-MC profile");
        assert!(
            p1.total_cycles > p4.total_cycles,
            "1 MC ({}) must be slower than 4 ({})",
            p1.total_cycles,
            p4.total_cycles
        );
        assert_eq!(four.cache_handle().stats().profile.misses, 2);
    }
}
