//! Seeded workload generation: program instances, their task-form twins,
//! and the per-pass job lists of the two `hsmd` workloads.
//!
//! Everything here is a pure function of the seed, so two runs with the
//! same `--seed` send byte-identical jobs.

use hsm_core::{ExecModel, Mode, OptLevel, Scenario};
use hsm_workloads::{reference_exit, source, Bench, Params};
use std::collections::HashSet;
use std::sync::Arc;
use testkit::SplitMix64;

/// The SCC's per-core MPB share: Algorithm 3's on-chip budget is
/// `cores × MPB_PER_CORE` bytes.
pub const MPB_PER_CORE: usize = 8 * 1024;

/// The modelled L2 capacity (Table 6.1).
pub const L2_BYTES: usize = 256 * 1024;

/// What a job asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Run the program and return its row.
    Simulate,
    /// Run the program profiled and return its `Profile`.
    Profile,
    /// Translate the program to RCCE C.
    Translate,
}

/// One paper-benchmark instance at a reduced, seeded size.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The benchmark.
    pub bench: Bench,
    /// Its parameters (`threads` is also the core count).
    pub params: Params,
    /// The pthread source.
    pub src: Arc<str>,
    /// The task-form twin, for benchmarks that have one.
    pub twin: Option<Arc<str>>,
    /// `hsm_workloads::reference_exit` of the instance.
    pub expected_exit: i64,
}

impl Instance {
    /// Builds an instance and its twin.
    pub fn new(bench: Bench, params: Params) -> Self {
        Instance {
            bench,
            params,
            src: source(bench, &params).into(),
            twin: task_twin(bench, &params).map(Into::into),
            expected_exit: reference_exit(bench, &params),
        }
    }

    /// Participating core count.
    pub fn cores(&self) -> usize {
        self.params.threads
    }

    /// Whether the benchmark is bound by memory rather than dispatch.
    pub fn memory_bound(&self) -> bool {
        matches!(
            self.bench,
            Bench::Stream | Bench::DotProduct | Bench::LuDecomp
        )
    }
}

/// One job of a pass. `program` indexes the workload's instance list
/// (simulate/profile jobs) or translate-item list (translate jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// The operation.
    pub op: Op,
    /// Index of the program the job runs.
    pub program: usize,
    /// Run the task-form twin instead of the pthread source (task mode).
    pub twin: bool,
    /// Mode × memory model × opt level (ignored by translate jobs).
    pub scenario: Scenario,
}

/// One distinct translate request of `compile_mix`.
#[derive(Debug, Clone)]
pub struct TranslateItem {
    /// Label for error messages.
    pub name: String,
    /// The pthread source.
    pub src: Arc<str>,
    /// Participating core count.
    pub cores: usize,
}

/// The generated inputs of one `hsmd` workload: every pass sends `jobs`.
#[derive(Debug, Clone, Default)]
pub struct JobSet {
    /// Benchmark instances simulate/profile jobs refer to.
    pub instances: Vec<Instance>,
    /// Translate items translate jobs refer to.
    pub items: Vec<TranslateItem>,
    /// Indices into `items` translated into the store during set-up.
    pub prepopulate: Vec<usize>,
    /// The timed jobs, in send order.
    pub jobs: Vec<Job>,
}

impl JobSet {
    /// The source and core count a job runs.
    pub fn program(&self, job: &Job) -> (&Arc<str>, usize) {
        match job.op {
            Op::Translate => {
                let item = &self.items[job.program];
                (&item.src, item.cores)
            }
            Op::Simulate | Op::Profile => {
                let inst = &self.instances[job.program];
                let src = if job.twin {
                    inst.twin
                        .as_ref()
                        .expect("twin jobs only for benches with twins")
                } else {
                    &inst.src
                };
                (src, inst.cores())
            }
        }
    }

    /// A short label for error messages.
    pub fn label(&self, job: &Job) -> String {
        match job.op {
            Op::Translate => format!("translate {}", self.items[job.program].name),
            op => {
                let inst = &self.instances[job.program];
                format!(
                    "{:?} {}@{} size {} {}/{}/{}{}",
                    op,
                    inst.bench.name(),
                    inst.cores(),
                    inst.params.size,
                    job.scenario.mode.label(),
                    job.scenario.exec_model.label(),
                    job.scenario.opt_level.label(),
                    if job.twin { " (task twin)" } else { "" }
                )
            }
        }
    }
}

/// Every mode × memory model pairing a job may use. Baseline ×
/// `non_coherent_wb` is left out on purpose: an untranslated pthread
/// program never flushes its write-back view, so it computes a wrong
/// answer by design (all six benchmarks return a wrong exit code there).
pub fn valid_pairings() -> Vec<(Mode, ExecModel)> {
    let mut out = Vec::new();
    for mode in Mode::ALL {
        for model in ExecModel::ALL {
            if mode == Mode::PthreadBaseline && model == ExecModel::NonCoherentWriteBack {
                continue;
            }
            out.push((mode, model));
        }
    }
    out
}

/// Parameters of `bench` at `cores` cores whose shared footprint lands
/// in `class`: 0 fits the MPB budget, 1 spills it but fits the L2, 2
/// exceeds the L2. Compute-bound benchmarks have no footprint to speak
/// of; the class scales their length instead.
fn sized_params(bench: Bench, cores: usize, class: usize) -> Params {
    let budget = cores * MPB_PER_CORE;
    let footprint = match class {
        0 => budget / 2,
        1 => (budget * 2).min(L2_BYTES * 85 / 100).max(budget * 5 / 4),
        _ => L2_BYTES * 112 / 100,
    };
    let (size, reps) = match bench {
        Bench::PiApprox => (15_000 * (class + 1), 1),
        Bench::Sum35 => (30_000 * (class + 1), 1),
        Bench::CountPrimes => (600 + 300 * class, 1),
        Bench::DotProduct => ((footprint - cores * 8) / 16, if class == 2 { 1 } else { 2 }),
        Bench::Stream => (footprint / 24, 1),
        Bench::LuDecomp => {
            let n = 8 - class;
            (n, (footprint / (n * n * 8)).max(cores))
        }
    };
    Params {
        threads: cores,
        size,
        reps,
    }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range_usize(0, i + 1);
        items.swap(i, j);
    }
}

/// Shuffles `jobs`, then inserts each job of `repeats` (indices into
/// the unshuffled `jobs`) again at a random position after its original.
fn order_with_repeats(rng: &mut SplitMix64, jobs: Vec<Job>, repeats: &[usize]) -> Vec<Job> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    shuffle(rng, &mut order);
    let mut out: Vec<Job> = order.iter().map(|&i| jobs[i]).collect();
    for &r in repeats {
        let original = out
            .iter()
            .position(|j| *j == jobs[r])
            .expect("original is sent");
        let at = rng.gen_range_usize(original + 1, out.len() + 1);
        out.insert(at, jobs[r]);
    }
    out
}

/// The mixes are stratified — fixed instances and fixed counts per
/// benchmark, footprint class, mode, memory model and opt level — so
/// every seed sends the same amount of work; the seed picks which job
/// gets which memory model, opt level, profile op or repeat, and the
/// order jobs are sent in.
/// Instances of `hsmd_sim`: the six benchmarks × three footprint classes.
pub const SIM_INSTANCES: usize = 18;

/// `hsmd_sim`: the six paper benchmarks at reduced sizes on 4–16 cores,
/// footprints on both sides of the MPB budget and the L2, every mode ×
/// memory model × {O0, O2}; ~15% profile jobs and ~30% repeats.
pub fn hsmd_sim(seed: u64) -> JobSet {
    let mut rng = SplitMix64::new(seed ^ 0x6873_6d64_5f73_696d);
    let instances: Vec<Instance> = (0..SIM_INSTANCES)
        .map(|i| {
            let (b, class) = (i % 6, i / 6);
            let bench = Bench::all()[b];
            let cores = [4, 8, 16][(b + class) % 3];
            Instance::new(bench, sized_params(bench, cores, class))
        })
        .collect();
    let levels = [OptLevel::O0, OptLevel::O2];
    let mut jobs = Vec::new();
    for (program, inst) in instances.iter().enumerate() {
        // One baseline, one off-chip, one HSM and one task (or second
        // RCCE) job per instance; the three non-baseline jobs take one
        // memory model each, rotated by the seed.
        let rotation = rng.gen_range_usize(0, 3);
        let model = |k: usize| ExecModel::ALL[(rotation + k) % 3];
        let fourth = if inst.twin.is_some() {
            Mode::TaskDataflow
        } else {
            *rng.choose(&[Mode::RcceOffChip, Mode::RcceHsm])
        };
        let baseline = *rng.choose(&[ExecModel::Coherent, ExecModel::SeqCstReference]);
        let mut level = [levels[0], levels[0], levels[1], levels[1]];
        shuffle(&mut rng, &mut level);
        for (k, (mode, model)) in [
            (Mode::PthreadBaseline, baseline),
            (Mode::RcceOffChip, model(0)),
            (Mode::RcceHsm, model(1)),
            (fourth, model(2)),
        ]
        .into_iter()
        .enumerate()
        {
            jobs.push(Job {
                op: Op::Simulate,
                program,
                twin: mode == Mode::TaskDataflow,
                scenario: Scenario::new(mode).exec_model(model).opt_level(level[k]),
            });
        }
    }
    debug_assert!(jobs
        .iter()
        .all(|j| valid_pairings().contains(&(j.scenario.mode, j.scenario.exec_model))));
    // Per benchmark: the instances of the two smaller footprint classes
    // get one profile job each; five repeats are spread 2/2/1 over the
    // three classes, and the smallest class repeats its profile job, so
    // profile repeats are cache reads beside re-simulated repeats.
    let mut repeats = Vec::new();
    for b in 0..6 {
        for class in 0..3 {
            let program = class * 6 + b;
            let mut slots = [0, 1, 2, 3];
            shuffle(&mut rng, &mut slots);
            if class < 2 {
                jobs[program * 4 + slots[0]].op = Op::Profile;
            }
            let repeated = match class {
                0 => &slots[..2],
                1 => &slots[1..3],
                _ => &slots[1..2],
            };
            repeats.extend(repeated.iter().map(|s| program * 4 + s));
        }
    }
    JobSet {
        jobs: order_with_repeats(&mut rng, jobs, &repeats),
        instances,
        ..JobSet::default()
    }
}

/// The corpus's pthread programs (the task ports cannot be translated).
pub const CORPUS: [(&str, &str); 6] = [
    ("dot_product", include_str!("../../corpus/dot_product.c")),
    (
        "escaping_local",
        include_str!("../../corpus/escaping_local.c"),
    ),
    ("example_4_1", include_str!("../../corpus/example_4_1.c")),
    (
        "matrix_vector",
        include_str!("../../corpus/matrix_vector.c"),
    ),
    (
        "mutex_histogram",
        include_str!("../../corpus/mutex_histogram.c"),
    ),
    (
        "switch_classifier",
        include_str!("../../corpus/switch_classifier.c"),
    ),
];

/// Distinct translate items of one `compile_mix` pass: each corpus
/// program 6 times and each benchmark generator 24 times, at core
/// counts spread over 2–48.
pub const MIX_ITEMS: usize = 180;
/// In-memory repeats among the translate jobs.
pub const MIX_REPEATS: usize = 20;

/// `compile_mix`: translate jobs of distinct sources at 2–48 cores
/// (about half store reads, 40% new, 10% in-memory repeats) plus ~20%
/// simulate jobs of tiny instances at O1/O2, so that the front end, the
/// store and the protocol do the work.
pub fn compile_mix(seed: u64) -> JobSet {
    let mut rng = SplitMix64::new(seed ^ 0x636f_6d70_5f6d_6978);
    // A fixed cycle of 30 program kinds — each corpus program once, each
    // benchmark four times — so any prefix has the same composition for
    // every seed; `None` marks a corpus slot.
    let cycle: Vec<(Option<Bench>, usize)> = (0..30)
        .map(|k| {
            if k % 5 == 0 {
                (None, k / 5)
            } else {
                (Some(Bench::all()[(k - k / 5 - 1) % 6]), 0)
            }
        })
        .collect();
    let mut seen = HashSet::new();
    let mut occurrences = std::collections::HashMap::new();
    let mut items = Vec::new();
    for p in 0..MIX_ITEMS {
        let (bench, corpus) = cycle[p % cycle.len()];
        let per_kind = if bench.is_some() {
            MIX_ITEMS * 4 / 30
        } else {
            MIX_ITEMS / 30
        };
        let k = occurrences
            .entry((bench.map(Bench::name), corpus))
            .or_insert(0usize);
        // The k-th occurrence of a kind draws its core count from the
        // k-th of `per_kind` equal bins of 2..=48.
        let lo = 2 + 47 * *k / per_kind;
        let hi = (2 + 47 * (*k + 1) / per_kind).max(lo + 1);
        *k += 1;
        loop {
            let cores = rng.gen_range_usize(lo, hi);
            let (name, src): (String, Arc<str>) = match bench {
                None => (CORPUS[corpus].0.to_string(), CORPUS[corpus].1.into()),
                Some(bench) => {
                    let mut params = bench.default_params(cores);
                    params.size = rng.gen_range_usize(params.size / 4, params.size + 1).max(8);
                    (
                        format!("{}-{}", bench.name(), params.size),
                        source(bench, &params).into(),
                    )
                }
            };
            if seen.insert((hsm_core::api::fnv1a_bytes(src.as_bytes()), cores)) {
                items.push(TranslateItem {
                    name: format!("{name}@{cores}"),
                    src,
                    cores,
                });
                break;
            }
        }
    }
    // Five of every nine items are written to the store during set-up.
    let prepopulate: Vec<usize> = (0..MIX_ITEMS).filter(|p| p % 9 < 5).collect();
    let instances: Vec<Instance> = (0..12)
        .map(|i| {
            let bench = Bench::all()[i % 6];
            let cores = [4, 8][i / 6];
            let (size, reps) = match bench {
                Bench::PiApprox => (256, 1),
                Bench::Sum35 => (512, 1),
                Bench::CountPrimes | Bench::DotProduct | Bench::Stream => (64, 1),
                Bench::LuDecomp => (4, cores),
            };
            Instance::new(
                bench,
                Params {
                    threads: cores,
                    size,
                    reps,
                },
            )
        })
        .collect();
    let translate = |program| Job {
        op: Op::Translate,
        program,
        twin: false,
        scenario: Scenario::default(),
    };
    let mut jobs: Vec<Job> = (0..MIX_ITEMS).map(translate).collect();
    let levels = [OptLevel::O1, OptLevel::O2];
    for (program, inst) in instances.iter().enumerate() {
        let fourth = if inst.twin.is_some() {
            Mode::TaskDataflow
        } else {
            Mode::RcceOffChip
        };
        let mut level = [levels[0], levels[0], levels[1], levels[1]];
        shuffle(&mut rng, &mut level);
        if fourth == Mode::RcceOffChip && level[1] == level[3] {
            level.swap(0, 1);
        }
        for (k, mode) in [
            Mode::PthreadBaseline,
            Mode::RcceOffChip,
            Mode::RcceHsm,
            fourth,
        ]
        .into_iter()
        .enumerate()
        {
            jobs.push(Job {
                op: Op::Simulate,
                program,
                twin: mode == Mode::TaskDataflow,
                scenario: Scenario::new(mode).opt_level(level[k]),
            });
        }
    }
    let repeats: Vec<usize> = (0..MIX_REPEATS)
        .map(|_| rng.gen_range_usize(0, MIX_ITEMS))
        .collect();
    JobSet {
        jobs: order_with_repeats(&mut rng, jobs, &repeats),
        instances,
        items,
        prepopulate,
    }
}

/// The task-form twin of a benchmark: the same per-thread computation as
/// `hsm_workloads::source`, spawned as tasks whose `in`/`out` regions
/// cover every data flow, with the same printed lines and exit code.
/// Stream and LU write more than one output region per worker, which a
/// task cannot declare, so they have no twin.
pub fn task_twin(bench: Bench, p: &Params) -> Option<String> {
    let nt = p.threads;
    let n = p.size;
    let reps = p.reps;
    let range = |total: &str| {
        format!(
            "    int chunk = {total} / {nt};\n    int lo = id * chunk;\n    int hi = lo + chunk;\n    if (id == {nt} - 1) hi = {total};\n"
        )
    };
    Some(match bench {
        Bench::PiApprox => format!(
            r#"
#include <stdio.h>

double partial[{nt}];

void worker(int id) {{
{range}    double step = 1.0 / {n};
    double sum = 0.0;
    int i;
    for (i = lo; i < hi; i++) {{
        double x = (i + 0.5) * step;
        sum = sum + 4.0 / (1.0 + x * x);
    }}
    partial[id] = sum;
}}

int main() {{
    int t;
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) task_spawn(worker, t, 0, 0, 0, 0, &partial[t], 8);
    task_wait_all();
    double t1 = wtime();
    double pi = 0.0;
    for (t = 0; t < {nt}; t++) pi += partial[t];
    pi = pi / {n};
    printf("pi %.6f\n", pi);
    return (int)(pi * 1000000.0);
}}
"#,
            range = range(&n.to_string())
        ),
        Bench::Sum35 => format!(
            r#"
#include <stdio.h>

long partial[{nt}];

void worker(int id) {{
    long chunk = {n} / {nt};
    long lo = id * chunk;
    long hi = lo + chunk;
    if (id == {nt} - 1) hi = {n};
    long sum = 0;
    long i;
    for (i = lo; i < hi; i++) {{
        if (i % 3 == 0 || i % 5 == 0) sum = sum + i;
    }}
    partial[id] = sum;
}}

int main() {{
    int t;
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) task_spawn(worker, t, 0, 0, 0, 0, &partial[t], 8);
    task_wait_all();
    double t1 = wtime();
    long total = 0;
    for (t = 0; t < {nt}; t++) total += partial[t];
    printf("sum35 %ld\n", total);
    return (int)(total % 1000000007);
}}
"#
        ),
        Bench::CountPrimes => format!(
            r#"
#include <stdio.h>

int counts[{nt}];

void worker(int id) {{
    int chunk = ({n} - 2) / {nt};
    int lo = 2 + id * chunk;
    int hi = lo + chunk;
    if (id == {nt} - 1) hi = {n};
    int total = 0;
    int i;
    for (i = lo; i < hi; i++) {{
        int prime = 1;
        int j;
        for (j = 2; j < i; j++) {{
            if (i % j == 0) {{ prime = 0; break; }}
        }}
        total = total + prime;
    }}
    counts[id] = total;
}}

int main() {{
    int t;
    double t0 = wtime();
    for (t = 0; t < {nt}; t++) task_spawn(worker, t, 0, 0, 0, 0, &counts[t], 4);
    task_wait_all();
    for (t = 0; t < {nt}; t++) printf("primes %d %d\n", t, counts[t]);
    double t1 = wtime();
    int total = 0;
    for (t = 0; t < {nt}; t++) total += counts[t];
    return total;
}}
"#
        ),
        Bench::DotProduct => format!(
            r#"
#include <stdio.h>

double a[{n}];
double b[{n}];
double partial[{nt}];

void worker(int id) {{
{range}    double sum = 0.0;
    int r;
    int i;
    for (r = 0; r < {reps}; r++) {{
        for (i = lo; i < hi; i++) {{
            sum = sum + a[i] * b[i];
        }}
    }}
    partial[id] = sum;
}}

int main() {{
    int t;
    int i;
    for (i = 0; i < {n}; i++) {{
        a[i] = (i % 10) * 0.5;
        b[i] = ((i + 3) % 7) * 0.25;
    }}
    double t0 = wtime();
    int chunk = {n} / {nt};
    for (t = 0; t < {nt}; t++) {{
        int lo = t * chunk;
        int len = chunk;
        if (t == {nt} - 1) len = {n} - lo;
        task_spawn(worker, t, &a[lo], len * 8, &b[lo], len * 8, &partial[t], 8);
    }}
    task_wait_all();
    double t1 = wtime();
    double total = 0.0;
    for (t = 0; t < {nt}; t++) total += partial[t];
    printf("dot %.3f\n", total);
    return (int)(total / {reps});
}}
"#,
            range = range(&n.to_string())
        ),
        Bench::Stream | Bench::LuDecomp => return None,
    })
}
