//! The correctness oracle: expected results computed in-process before
//! the timed phase, and the checker every timed result goes through.

use crate::gen::{Instance, Job, JobSet, Op};
use hsm_core::api::{fnv1a_bytes, SweepRow};
use hsm_core::experiment::outputs_equivalent;
use hsm_core::{Mode, Pipeline, PipelineError, Scenario};
use hsm_exec::RunResult;

/// What every run of one instance must produce, under any mode, memory
/// model and opt level the mix allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// `hsm_workloads::reference_exit`.
    pub exit: i64,
    /// Output fingerprint of the pthread baseline (and of the task twin,
    /// which prints the same lines once, like the baseline).
    pub fnv_baseline: u64,
    /// Output fingerprint of the RCCE runs. Every core of a translated
    /// program prints the post-join lines, so the raw fingerprint differs
    /// from the baseline's; the preparation step checks that the two
    /// outputs are equal as line sets, the relation `figures` reports as
    /// "Match".
    pub fnv_rcce: u64,
    /// Simulated cycles of the baseline, off-chip and HSM runs (coherent,
    /// O0): the Fig. 6.1 / 6.2 ratios of this instance.
    pub cycles: [u64; 3],
    /// VM instructions those three runs retired.
    pub instructions: [u64; 3],
}

/// The expectations of a whole job set.
#[derive(Debug, Clone, Default)]
pub struct Expectations {
    /// Per instance.
    pub instances: Vec<Expect>,
    /// Fingerprint of each translate item's emitted RCCE source.
    pub items: Vec<u64>,
}

impl Expectations {
    /// Geometric means over the instances of baseline ÷ off-chip
    /// (Fig. 6.1) and off-chip ÷ HSM (Fig. 6.2) simulated cycles.
    pub fn geomeans(&self) -> (f64, f64) {
        geomeans(self.instances.iter().map(|e| e.cycles))
    }
}

/// Geometric means of the Fig. 6.1 speedup and the Fig. 6.2 gain over
/// `[baseline, offchip, hsm]` cycle triples.
pub fn geomeans(triples: impl Iterator<Item = [u64; 3]>) -> (f64, f64) {
    let (mut s61, mut s62, mut n) = (0.0, 0.0, 0.0);
    for [base, off, hsm] in triples {
        s61 += (base as f64 / off as f64).ln();
        s62 += (off as f64 / hsm as f64).ln();
        n += 1.0;
    }
    ((s61 / n).exp(), (s62 / n).exp())
}

/// The output fingerprint rows carry.
pub fn fingerprint(result: &RunResult) -> u64 {
    SweepRow::output_hash(result)
}

/// Runs an instance in the three paper modes (coherent, O0) and derives
/// its expectation, failing if any run disagrees with the reference exit
/// code or the baseline's output.
///
/// # Errors
///
/// Describes the first disagreement or pipeline failure.
pub fn expect_instance(inst: &Instance) -> Result<Expect, String> {
    let run = |mode| -> Result<RunResult, String> {
        Pipeline::new(inst.src.clone())
            .cores(inst.cores())
            .scenario(Scenario::new(mode))
            .run_scenario()
            .map_err(|e: PipelineError| format!("{} {}: {e}", inst.bench.name(), mode.label()))
    };
    let base = run(Mode::PthreadBaseline)?;
    let off = run(Mode::RcceOffChip)?;
    let hsm = run(Mode::RcceHsm)?;
    for (label, r) in [("baseline", &base), ("offchip", &off), ("hsm", &hsm)] {
        if r.exit_code != inst.expected_exit {
            return Err(format!(
                "{} {label}: exit {} != reference {}",
                inst.bench.name(),
                r.exit_code,
                inst.expected_exit
            ));
        }
    }
    if !outputs_equivalent(&base, &off) || !outputs_equivalent(&base, &hsm) {
        return Err(format!(
            "{}: RCCE output differs from the baseline's",
            inst.bench.name()
        ));
    }
    if fingerprint(&off) != fingerprint(&hsm) {
        return Err(format!(
            "{}: off-chip and HSM outputs differ",
            inst.bench.name()
        ));
    }
    Ok(Expect {
        exit: inst.expected_exit,
        fnv_baseline: fingerprint(&base),
        fnv_rcce: fingerprint(&off),
        cycles: [base.timed_cycles, off.timed_cycles, hsm.timed_cycles],
        instructions: [base.instructions, off.instructions, hsm.instructions],
    })
}

/// The emitted-source fingerprint of a translate item.
///
/// # Errors
///
/// Propagates the pipeline failure.
pub fn expect_translation(src: &str, cores: usize) -> Result<u64, String> {
    Pipeline::new(src)
        .cores(cores)
        .translation()
        .map(|t| fnv1a_bytes(t.to_source().as_bytes()))
        .map_err(|e| e.to_string())
}

/// Computes every expectation of a job set, on up to two threads.
///
/// # Errors
///
/// Reports the first instance or item whose expectation cannot be met.
pub fn prepare(set: &JobSet) -> Result<Expectations, String> {
    let instances = crate::par_map(&set.instances, expect_instance)?;
    let items = crate::par_map(&set.items, |item| {
        expect_translation(&item.src, item.cores).map_err(|e| format!("{}: {e}", item.name))
    })?;
    Ok(Expectations { instances, items })
}

/// A job's result as the server reported it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A simulate row.
    Row {
        /// Exit code (absent on error).
        exit: Option<i64>,
        /// Output fingerprint (absent on error).
        fnv: Option<u64>,
        /// Retired VM instructions (absent on error).
        instructions: Option<u64>,
        /// Simulated `wtime`-bracketed cycles (absent on error).
        cycles: Option<u64>,
        /// The pipeline error, if the point failed.
        error: Option<String>,
    },
    /// A parsed profile.
    Profile {
        /// The profiled run's exit code.
        exit: i64,
        /// Its retired VM instructions.
        instructions: u64,
    },
    /// A translation.
    Translated {
        /// Fingerprint of the emitted source.
        fnv: u64,
    },
    /// An error response, or a response the job did not ask for.
    Error(String),
}

impl Outcome {
    /// Instructions the job retired (simulate and profile jobs).
    pub fn instructions(&self) -> u64 {
        match self {
            Outcome::Row { instructions, .. } => instructions.unwrap_or(0),
            Outcome::Profile { instructions, .. } => *instructions,
            Outcome::Translated { .. } | Outcome::Error(_) => 0,
        }
    }

    /// The deterministic part of the outcome, for cross-run digests.
    pub fn digest_line(&self) -> String {
        match self {
            Outcome::Row {
                exit,
                fnv,
                instructions,
                cycles,
                error,
            } => format!(
                "row {exit:?} {fnv:?} {instructions:?} {cycles:?} {}",
                error.is_some()
            ),
            Outcome::Profile { exit, instructions } => format!("profile {exit} {instructions}"),
            Outcome::Translated { fnv } => format!("translated {fnv:016x}"),
            Outcome::Error(_) => "error".to_string(),
        }
    }
}

/// Counts attempted and failed operations, keeping the first few
/// failure messages.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

impl Checker {
    /// Records one operation; `failure` is `None` when it was correct.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(message) = failure {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(message);
            }
        }
    }

    /// Checks one job's outcome against the expectations.
    pub fn check(&mut self, set: &JobSet, expect: &Expectations, job: &Job, outcome: &Outcome) {
        let failure =
            check_outcome(expect, job, outcome).map(|e| format!("{}: {e}", set.label(job)));
        self.record(failure);
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Why an outcome is wrong, or `None` when it is right.
pub fn check_outcome(expect: &Expectations, job: &Job, outcome: &Outcome) -> Option<String> {
    match (job.op, outcome) {
        (_, Outcome::Error(message)) => Some(format!("error response: {message}")),
        (Op::Simulate, Outcome::Row { error: Some(e), .. }) => Some(format!("pipeline error: {e}")),
        (
            Op::Simulate,
            Outcome::Row {
                exit: Some(exit),
                fnv: Some(fnv),
                ..
            },
        ) => {
            let want = &expect.instances[job.program];
            let want_fnv = match job.scenario.mode {
                Mode::PthreadBaseline | Mode::TaskDataflow => want.fnv_baseline,
                Mode::RcceOffChip | Mode::RcceHsm => want.fnv_rcce,
            };
            if *exit != want.exit {
                Some(format!("exit {exit} != expected {}", want.exit))
            } else if *fnv != want_fnv {
                Some(format!(
                    "output fingerprint {fnv:016x} != expected {want_fnv:016x}"
                ))
            } else {
                None
            }
        }
        (Op::Profile, Outcome::Profile { exit, .. }) => {
            let want = expect.instances[job.program].exit;
            (*exit != want).then(|| format!("profiled exit {exit} != expected {want}"))
        }
        (Op::Translate, Outcome::Translated { fnv }) => {
            let want = expect.items[job.program];
            (*fnv != want).then(|| format!("translation {fnv:016x} != expected {want:016x}"))
        }
        (op, other) => Some(format!("{op:?} job got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Instance};
    use hsm_workloads::{Bench, Params};

    fn small(bench: Bench) -> Instance {
        let size = match bench {
            Bench::PiApprox => 400,
            Bench::Sum35 => 600,
            Bench::CountPrimes => 60,
            Bench::DotProduct => 64,
            Bench::Stream => 48,
            Bench::LuDecomp => 4,
        };
        let reps = if bench == Bench::LuDecomp { 4 } else { 1 };
        Instance::new(
            bench,
            Params {
                threads: 4,
                size,
                reps,
            },
        )
    }

    /// The task-form twins compute the barrier original's exit code and
    /// print its lines, under every memory model and at O0 and O2.
    #[test]
    fn task_twins_match_their_barrier_originals() {
        for bench in Bench::all() {
            let inst = small(bench);
            let expect = expect_instance(&inst).expect("instance is consistent");
            let Some(twin) = &inst.twin else { continue };
            for model in hsm_core::ExecModel::ALL {
                for level in [hsm_core::OptLevel::O0, hsm_core::OptLevel::O2] {
                    let r = Pipeline::new(twin.clone())
                        .cores(inst.cores())
                        .scenario(
                            Scenario::new(Mode::TaskDataflow)
                                .exec_model(model)
                                .opt_level(level),
                        )
                        .run_scenario()
                        .expect("twin runs");
                    assert_eq!(r.exit_code, expect.exit, "{bench:?} {model:?} {level:?}");
                    assert_eq!(
                        fingerprint(&r),
                        expect.fnv_baseline,
                        "{bench:?} {model:?} {level:?}"
                    );
                }
            }
        }
    }

    /// The pairing the mix excludes really is wrong by design: the
    /// baseline under `non_coherent_wb` misses the reference exit code on
    /// every benchmark.
    #[test]
    fn baseline_under_non_coherent_wb_is_wrong_on_every_benchmark() {
        assert!(!gen::valid_pairings().contains(&(
            Mode::PthreadBaseline,
            hsm_core::ExecModel::NonCoherentWriteBack
        )));
        for bench in Bench::all() {
            let mut inst = small(bench);
            inst = Instance::new(
                bench,
                Params {
                    threads: 8,
                    ..inst.params
                },
            );
            let r = Pipeline::new(inst.src.clone())
                .cores(8)
                .scenario(
                    Scenario::new(Mode::PthreadBaseline)
                        .exec_model(hsm_core::ExecModel::NonCoherentWriteBack),
                )
                .run_scenario()
                .expect("runs");
            assert_ne!(r.exit_code, inst.expected_exit, "{bench:?}");
        }
    }

    /// A deliberately wrong expected exit code is counted as a failure.
    #[test]
    fn checker_fires_on_a_wrong_expected_exit_code() {
        let inst = small(Bench::PiApprox);
        let expect = expect_instance(&inst).expect("consistent");
        let set = JobSet {
            instances: vec![inst.clone()],
            ..JobSet::default()
        };
        let job = Job {
            op: Op::Simulate,
            program: 0,
            twin: false,
            scenario: Scenario::new(Mode::RcceHsm),
        };
        let r = Pipeline::new(inst.src.clone())
            .cores(inst.cores())
            .scenario(job.scenario)
            .run_scenario()
            .expect("runs");
        let outcome = Outcome::Row {
            exit: Some(r.exit_code),
            fnv: Some(fingerprint(&r)),
            instructions: Some(r.instructions),
            cycles: Some(r.timed_cycles),
            error: None,
        };
        let right = Expectations {
            instances: vec![expect],
            items: vec![],
        };
        let mut wrong = right.clone();
        wrong.instances[0].exit += 1;
        let mut checker = Checker::default();
        checker.check(&set, &right, &job, &outcome);
        assert_eq!((checker.attempted, checker.failed), (1, 0));
        checker.check(&set, &wrong, &job, &outcome);
        assert_eq!((checker.attempted, checker.failed), (2, 1));
        assert!(
            checker.messages[0].contains("exit"),
            "{:?}",
            checker.messages
        );
    }
}
