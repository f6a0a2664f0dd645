//! Keyed, thread-safe memoization of pipeline artifacts — in memory and,
//! optionally, on disk.
//!
//! A [`Pipeline`](crate::Pipeline) session produces five intermediate
//! artifacts on the way from C source to a simulated run: the parsed
//! [`TranslationUnit`], the Stage 1–3 [`ProgramAnalysis`], the Stage 4
//! [`PartitionPlan`], the Stage 5 [`Translation`] and the compiled
//! [`hsm_vm::Program`]. Every one of them is a pure function of the
//! source plus the session's configuration, so an [`ArtifactCache`]
//! memoizes them behind one [`ArtifactKey`] space of the form *source
//! hash × cores × policy × spec × opt level* (each stage keyed by exactly
//! the inputs it depends on — a parse does not care about the core count,
//! a partition plan does not care how many cores execute it, only how
//! much MPB the spec grants).
//!
//! The cache is shared: cloning a `Pipeline`, or handing the same
//! `Arc<ArtifactCache>` to several sessions (as
//! [`experiment::sweep`](crate::experiment::sweep) does across its worker
//! threads, and as the `hsmd` server does across its clients), makes the
//! baseline, off-chip and HSM runs of one benchmark share a single parse
//! and analysis instead of re-deriving them.
//!
//! Concurrency follows the *pending slot* discipline: the first caller of
//! a key inserts an empty slot (counted as a **miss**) and computes the
//! artifact; concurrent callers find the slot (counted as a **hit**) and
//! block until it fills. Hit/miss counters are therefore deterministic
//! for a fixed access sequence regardless of how many threads drive the
//! cache — the property the sweep determinism test pins.
//!
//! # Persistence
//!
//! [`ArtifactCache::persistent`] attaches a [`DiskStore`]: before a miss
//! computes, the pending-slot holder tries the key's on-disk entry
//! (decoding it through the stage's codec); after a successful compute it
//! writes the entry back. Disk activity is tracked in a separate
//! [`StoreStats`] block — the in-memory hit/miss counters keep their
//! process-local meaning, so a cold and a warm run of the same sweep
//! render byte-identical manifests while the warm run's *store* counters
//! show zero misses. Store entries that fail to verify or decode count as
//! **corrupt**, are removed, and fall back to a plain recompute; errors
//! are never cached, in memory or on disk.

use crate::store::{DiskStore, LoadOutcome};
use hsm_analysis::ProgramAnalysis;
use hsm_cir::TranslationUnit;
use hsm_partition::{MemorySpec, PartitionPlan, Policy};
use hsm_translate::Translation;
use hsm_vm::OptLevel;
use scc_sim::SccConfig;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a hash of a program source — the first component of every key.
pub fn source_hash(src: &str) -> u64 {
    crate::store::fnv1a_bytes(src.as_bytes())
}

/// The `src` component of an [`ArtifactKey::Profile`]: the program's
/// [`source_hash`] combined with a fingerprint of the simulated chip.
/// A profile depends on every [`SccConfig`] field (clock, memory
/// controllers, latencies), which no other key carries; the fingerprint
/// is the FNV-1a hash of the config's derived `Debug` form, so it covers
/// every field, including ones added later.
pub fn run_hash(src: u64, config: &SccConfig) -> u64 {
    let chip = format!("{src:016x} {config:?}");
    crate::store::fnv1a_bytes(chip.as_bytes())
}

/// The key of any cached artifact: one documented enum covering all five
/// shelves, replacing the former `PlanKey`/`TranslationKey`/`ProgramKey`
/// trio. Each variant carries exactly the inputs its artifact depends
/// on, and [`ArtifactKey::path`] gives a stable string form that doubles
/// as the entry's relative path in the persistent [`DiskStore`].
///
/// The execution model is deliberately absent everywhere: it changes
/// what a run observes, not what any pipeline stage produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKey {
    /// A parsed translation unit — depends only on the source.
    Parse {
        /// [`source_hash`] of the program.
        src: u64,
    },
    /// A Stage 1–3 analysis — depends only on the source.
    Analysis {
        /// [`source_hash`] of the program.
        src: u64,
    },
    /// A Stage 4 partition plan — the plan depends on the analysis
    /// (hence the source), the placement policy and the memory spec, but
    /// not on the executing core count except through the spec derived
    /// from it.
    Plan {
        /// [`source_hash`] of the program.
        src: u64,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
    },
    /// A Stage 5 translation — everything a plan captures plus the
    /// participating core count the translator bakes into the emitted
    /// RCCE source.
    Translation {
        /// [`source_hash`] of the program.
        src: u64,
        /// Participating core count.
        cores: usize,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
    },
    /// Bytecode of the unmodified pthread program at one [`OptLevel`].
    BaselineProgram {
        /// [`source_hash`] of the program.
        src: u64,
        /// Bytecode optimization level.
        opt: OptLevel,
    },
    /// Bytecode of the translated RCCE program: the full translation key
    /// plus the [`OptLevel`], so artifacts for different levels coexist
    /// in one cache (an `O0`-vs-`O2` sweep shares every stage up to
    /// translation and only compiles twice).
    TranslatedProgram {
        /// [`source_hash`] of the program.
        src: u64,
        /// Participating core count.
        cores: usize,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
        /// Bytecode optimization level.
        opt: OptLevel,
    },
    /// A [`Profile`](hsm_exec::Profile) of one simulated run. Unlike the
    /// compile-side artifacts, a profile depends on *everything* that
    /// selects the run — including the full [`Scenario`](crate::Scenario),
    /// because the execution model changes what the run observes even
    /// though it changes no compiled artifact, and the simulated chip.
    Profile {
        /// [`run_hash`] of the program's [`source_hash`] and the
        /// simulated chip.
        src: u64,
        /// Simulated core count.
        cores: usize,
        /// Placement policy.
        policy: Policy,
        /// Memory spec partitioned against.
        spec: MemorySpec,
        /// The full scenario (mode × exec model × opt level).
        scenario: crate::Scenario,
    },
}

impl ArtifactKey {
    /// The pipeline stage this key's artifact belongs to — the stats
    /// bucket it counts under and the store subdirectory it lives in
    /// (`"parse"`, `"analyze"`, `"partition"`, `"translate"` or
    /// `"compile"`).
    pub fn stage(&self) -> &'static str {
        match self {
            ArtifactKey::Parse { .. } => "parse",
            ArtifactKey::Analysis { .. } => "analyze",
            ArtifactKey::Plan { .. } => "partition",
            ArtifactKey::Translation { .. } => "translate",
            ArtifactKey::BaselineProgram { .. } | ArtifactKey::TranslatedProgram { .. } => {
                "compile"
            }
            ArtifactKey::Profile { .. } => "profile",
        }
    }

    /// The stable string form: `<stage>/<key fields>`, usable as a
    /// relative filesystem path. Two processes deriving the same key
    /// always produce the same string, which is what makes the
    /// [`DiskStore`] content-addressed.
    pub fn path(&self) -> String {
        match self {
            ArtifactKey::Parse { src } => format!("parse/{src:016x}"),
            ArtifactKey::Analysis { src } => format!("analyze/{src:016x}"),
            ArtifactKey::Plan { src, policy, spec } => format!(
                "partition/{src:016x}-{}-m{}x{}",
                policy.label(),
                spec.on_chip_capacity,
                spec.off_chip_capacity
            ),
            ArtifactKey::Translation {
                src,
                cores,
                policy,
                spec,
            } => format!(
                "translate/{src:016x}-c{cores}-{}-m{}x{}",
                policy.label(),
                spec.on_chip_capacity,
                spec.off_chip_capacity
            ),
            ArtifactKey::BaselineProgram { src, opt } => {
                format!("compile/{src:016x}-base-{}", opt.label())
            }
            ArtifactKey::TranslatedProgram {
                src,
                cores,
                policy,
                spec,
                opt,
            } => format!(
                "compile/{src:016x}-c{cores}-{}-m{}x{}-{}",
                policy.label(),
                spec.on_chip_capacity,
                spec.off_chip_capacity,
                opt.label()
            ),
            ArtifactKey::Profile {
                src,
                cores,
                policy,
                spec,
                scenario,
            } => format!(
                "profile/{src:016x}-c{cores}-{}-m{}x{}-{}-{}-{}",
                policy.label(),
                spec.on_chip_capacity,
                spec.off_chip_capacity,
                scenario.mode.label(),
                scenario.exec_model.label(),
                scenario.opt_level.label()
            ),
        }
    }
}

/// Hit/miss counters of one artifact kind (in-memory lookups).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Lookups served from (or queued behind) an existing artifact.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
}

/// Disk-store counters of one artifact kind. Only misses that reached
/// the store are counted (an in-memory hit never touches disk).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Entries loaded and decoded from disk instead of computed.
    pub loads: u64,
    /// Lookups that found no on-disk entry and had to compute.
    pub misses: u64,
    /// Entries written back after a compute.
    pub writes: u64,
    /// Entries that existed but failed verification or decode (removed,
    /// then recomputed).
    pub corrupt: u64,
}

/// A snapshot of every shelf's disk-store counters, plus the store-wide
/// eviction count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Parsed translation units (payload: the original C source).
    pub parse: StoreCounters,
    /// Stage 1–3 analyses (payload: a witness marker; the analysis is
    /// re-derived from the cached unit on load).
    pub analyze: StoreCounters,
    /// Stage 4 partition plans (payload: the plan text codec).
    pub partition: StoreCounters,
    /// Stage 5 translations (payload: RCCE source plus pass trace).
    pub translate: StoreCounters,
    /// Compiled bytecode programs (payload: the versioned `hsm_vm`
    /// serial format).
    pub compile: StoreCounters,
    /// Run profiles (payload: the `hsmprofile` text codec).
    pub profile: StoreCounters,
    /// Entries evicted to enforce the store's byte capacity.
    pub evictions: u64,
}

impl StoreStats {
    /// Total entries loaded from disk across all artifact kinds.
    pub fn total_loads(&self) -> u64 {
        self.parse.loads
            + self.analyze.loads
            + self.partition.loads
            + self.translate.loads
            + self.compile.loads
            + self.profile.loads
    }

    /// Total on-disk misses across all artifact kinds.
    pub fn total_misses(&self) -> u64 {
        self.parse.misses
            + self.analyze.misses
            + self.partition.misses
            + self.translate.misses
            + self.compile.misses
            + self.profile.misses
    }

    /// Total entries written back across all artifact kinds.
    pub fn total_writes(&self) -> u64 {
        self.parse.writes
            + self.analyze.writes
            + self.partition.writes
            + self.translate.writes
            + self.compile.writes
            + self.profile.writes
    }

    /// Total corrupt entries encountered across all artifact kinds.
    pub fn total_corrupt(&self) -> u64 {
        self.parse.corrupt
            + self.analyze.corrupt
            + self.partition.corrupt
            + self.translate.corrupt
            + self.compile.corrupt
            + self.profile.corrupt
    }
}

/// A snapshot of every shelf's counters. The in-memory hit/miss counters
/// are process-local and schedule-independent; `store` is present only
/// when a [`DiskStore`] is attached and reflects host disk state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Parsed translation units.
    pub parse: StageCounters,
    /// Stage 1–3 analyses.
    pub analyze: StageCounters,
    /// Stage 4 partition plans.
    pub partition: StageCounters,
    /// Stage 5 translations.
    pub translate: StageCounters,
    /// Compiled bytecode programs.
    pub compile: StageCounters,
    /// Run profiles.
    pub profile: StageCounters,
    /// Persistent-store counters, when a store is attached.
    pub store: Option<StoreStats>,
}

impl CacheStats {
    /// Total hits across all artifact kinds.
    pub fn total_hits(&self) -> u64 {
        self.parse.hits
            + self.analyze.hits
            + self.partition.hits
            + self.translate.hits
            + self.compile.hits
            + self.profile.hits
    }

    /// Total misses across all artifact kinds.
    pub fn total_misses(&self) -> u64 {
        self.parse.misses
            + self.analyze.misses
            + self.partition.misses
            + self.translate.misses
            + self.compile.misses
            + self.profile.misses
    }
}

/// A slot that is either filled with the artifact or pending while the
/// first caller computes it.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// One artifact kind's keyed store.
struct Shelf<V> {
    slots: Mutex<HashMap<ArtifactKey, Slot<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
    store_misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
}

impl<V> Default for Shelf<V> {
    fn default() -> Self {
        Shelf {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }
}

impl<V> Shelf<V> {
    /// Returns the cached artifact for `key`, trying the disk store (if
    /// any) and then `compute` on a miss. Concurrent callers of the same
    /// key block until the first one's artifact lands; a failed
    /// computation vacates the key so later callers retry (errors are
    /// never cached). `decode`/`encode` are the stage's store codec; a
    /// decode failure counts as corruption and falls back to `compute`.
    fn get_or_try_insert<E>(
        &self,
        key: ArtifactKey,
        store: Option<&DiskStore>,
        decode: impl FnOnce(&[u8]) -> Option<V>,
        encode: impl FnOnce(&V) -> Vec<u8>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let slot = {
            let mut slots = self.slots.lock().expect("cache map lock");
            match slots.get(&key) {
                Some(slot) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(slot)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let slot: Slot<V> = Arc::new(Mutex::new(None));
                    slots.insert(key, Arc::clone(&slot));
                    slot
                }
            }
        };
        let mut filled = slot.lock().expect("cache slot lock");
        if let Some(v) = filled.as_ref() {
            return Ok(Arc::clone(v));
        }
        if let Some(store) = store {
            match store.load(&key) {
                LoadOutcome::Hit(payload) => match decode(&payload) {
                    Some(v) => {
                        self.loads.fetch_add(1, Ordering::Relaxed);
                        let v = Arc::new(v);
                        *filled = Some(Arc::clone(&v));
                        return Ok(v);
                    }
                    None => {
                        // Verified bytes, but the stage codec rejected
                        // them (stale stage format, hash collision):
                        // same corruption handling, one layer up.
                        self.corrupt.fetch_add(1, Ordering::Relaxed);
                        store.remove(&key);
                    }
                },
                LoadOutcome::Corrupt => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                LoadOutcome::Miss => {
                    self.store_misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        match compute() {
            Ok(v) => {
                if let Some(store) = store {
                    // Best-effort write-through: an I/O failure keeps the
                    // in-memory artifact and simply stays a disk miss.
                    if store.save(&key, &encode(&v)).is_ok() {
                        self.writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let v = Arc::new(v);
                *filled = Some(Arc::clone(&v));
                Ok(v)
            }
            Err(e) => {
                self.slots.lock().expect("cache map lock").remove(&key);
                Err(e)
            }
        }
    }

    fn counters(&self) -> StageCounters {
        StageCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn store_counters(&self) -> StoreCounters {
        StoreCounters {
            loads: self.loads.load(Ordering::Relaxed),
            misses: self.store_misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// The keyed artifact store shared by [`Pipeline`](crate::Pipeline)
/// sessions, [`experiment::sweep`](crate::experiment::sweep) workers and
/// `hsmd` clients. Optionally backed by a persistent [`DiskStore`] (see
/// the module docs).
#[derive(Default)]
pub struct ArtifactCache {
    parse: Shelf<TranslationUnit>,
    analyze: Shelf<ProgramAnalysis>,
    partition: Shelf<PartitionPlan>,
    translate: Shelf<Translation>,
    compile: Shelf<hsm_vm::Program>,
    profile: Shelf<hsm_exec::Profile>,
    store: Option<DiskStore>,
}

impl ArtifactCache {
    /// A fresh in-memory cache behind an [`Arc`], ready to hand to
    /// several [`Pipeline`](crate::Pipeline) sessions.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A cache backed by a persistent store rooted at `dir` (created if
    /// needed). Entries survive the process; any cache opened over the
    /// same directory — concurrently or later — reuses them.
    ///
    /// # Errors
    ///
    /// Propagates store-directory creation failures.
    pub fn persistent(dir: impl AsRef<Path>) -> io::Result<Arc<Self>> {
        Ok(Self::with_store(DiskStore::open(dir.as_ref())?))
    }

    /// A cache backed by an explicitly configured [`DiskStore`] (e.g.
    /// one with a byte capacity).
    pub fn with_store(store: DiskStore) -> Arc<Self> {
        Arc::new(ArtifactCache {
            store: Some(store),
            ..Self::default()
        })
    }

    /// The attached persistent store, when there is one.
    pub fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }

    /// A snapshot of the counters of every shelf (plus the store block
    /// when a [`DiskStore`] is attached).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            parse: self.parse.counters(),
            analyze: self.analyze.counters(),
            partition: self.partition.counters(),
            translate: self.translate.counters(),
            compile: self.compile.counters(),
            profile: self.profile.counters(),
            store: self.store.as_ref().map(|s| StoreStats {
                parse: self.parse.store_counters(),
                analyze: self.analyze.store_counters(),
                partition: self.partition.store_counters(),
                translate: self.translate.store_counters(),
                compile: self.compile.store_counters(),
                profile: self.profile.store_counters(),
                evictions: s.evictions(),
            }),
        }
    }

    /// Memoized parse of `source` (whose [`source_hash`] is `src`).
    ///
    /// The store payload is the original source text itself — the parse
    /// re-runs on load, which guarantees a warm unit is identical to a
    /// cold one and makes a 64-bit hash collision detectable instead of
    /// silently wrong.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn unit_with<E>(
        &self,
        src: u64,
        source: &str,
        compute: impl FnOnce() -> Result<TranslationUnit, E>,
    ) -> Result<Arc<TranslationUnit>, E> {
        self.parse.get_or_try_insert(
            ArtifactKey::Parse { src },
            self.store.as_ref(),
            |payload| {
                if payload != source.as_bytes() {
                    return None; // hash collision or stale entry
                }
                hsm_cir::parse(source).ok()
            },
            |_| source.as_bytes().to_vec(),
            compute,
        )
    }

    /// Memoized Stage 1–3 analysis of the source identified by `src`.
    ///
    /// The analysis holds private derivation state that cannot be
    /// reconstructed field-by-field, so the store entry is a witness
    /// marker and the artifact is re-derived from `unit` on load (still
    /// counted as a load: the marker proves a prior run produced it).
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn analysis_with<E>(
        &self,
        src: u64,
        unit: &TranslationUnit,
        compute: impl FnOnce() -> Result<ProgramAnalysis, E>,
    ) -> Result<Arc<ProgramAnalysis>, E> {
        let marker = format!("hsmanalysis 1 {src:016x}\n");
        let expected = marker.clone();
        self.analyze.get_or_try_insert(
            ArtifactKey::Analysis { src },
            self.store.as_ref(),
            move |payload| {
                if payload != expected.as_bytes() {
                    return None;
                }
                Some(ProgramAnalysis::analyze(unit))
            },
            move |_| marker.into_bytes(),
            compute,
        )
    }

    /// Memoized Stage 4 partition plan for `key` (a
    /// [`ArtifactKey::Plan`]). The store payload is the
    /// [`hsm_partition::serialize_plan`] text codec.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn plan_with<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<PartitionPlan, E>,
    ) -> Result<Arc<PartitionPlan>, E> {
        debug_assert!(matches!(key, ArtifactKey::Plan { .. }));
        self.partition.get_or_try_insert(
            key,
            self.store.as_ref(),
            |payload| {
                let text = std::str::from_utf8(payload).ok()?;
                hsm_partition::parse_plan(text).ok()
            },
            |plan| hsm_partition::serialize_plan(plan).into_bytes(),
            compute,
        )
    }

    /// Memoized Stage 5 translation for `key` (a
    /// [`ArtifactKey::Translation`]). The store payload is the emitted
    /// RCCE source plus the pass trace; on load the source is re-parsed
    /// and the trace re-interned against the standard driver's pass
    /// names, while `analysis` and `plan` (already cached one shelf up)
    /// fill the translation's context fields.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn translation_with<E>(
        &self,
        key: ArtifactKey,
        analysis: &ProgramAnalysis,
        plan: &PartitionPlan,
        compute: impl FnOnce() -> Result<Translation, E>,
    ) -> Result<Arc<Translation>, E> {
        debug_assert!(matches!(key, ArtifactKey::Translation { .. }));
        self.translate.get_or_try_insert(
            key,
            self.store.as_ref(),
            |payload| decode_translation(payload, analysis, plan),
            encode_translation,
            compute,
        )
    }

    /// Memoized bytecode compilation for `key` (a
    /// [`ArtifactKey::BaselineProgram`] or
    /// [`ArtifactKey::TranslatedProgram`]). The store payload is the
    /// versioned [`hsm_vm::serial`] text format — an exact round-trip,
    /// so a warm run executes bit-identical bytecode.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn program_with<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<hsm_vm::Program, E>,
    ) -> Result<Arc<hsm_vm::Program>, E> {
        debug_assert!(matches!(
            key,
            ArtifactKey::BaselineProgram { .. } | ArtifactKey::TranslatedProgram { .. }
        ));
        self.compile.get_or_try_insert(
            key,
            self.store.as_ref(),
            |payload| {
                let text = std::str::from_utf8(payload).ok()?;
                hsm_vm::parse_program(text).ok()
            },
            |program| hsm_vm::serialize_program(program).into_bytes(),
            compute,
        )
    }

    /// Memoized run profile for `key` (an [`ArtifactKey::Profile`]). The
    /// store payload is the deterministic `hsmprofile` text codec, so a
    /// warm sweep serves profiles from disk without re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error without caching it.
    pub fn profile_with<E>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<hsm_exec::Profile, E>,
    ) -> Result<Arc<hsm_exec::Profile>, E> {
        debug_assert!(matches!(key, ArtifactKey::Profile { .. }));
        self.profile.get_or_try_insert(
            key,
            self.store.as_ref(),
            |payload| {
                let text = std::str::from_utf8(payload).ok()?;
                hsm_exec::Profile::from_text(text).ok()
            },
            |profile| profile.to_text().into_bytes(),
            compute,
        )
    }
}

/// Store codec of the translate shelf: header, pass names, RCCE source.
fn encode_translation(t: &Translation) -> Vec<u8> {
    let mut out = format!("hsmtrans 1 {}\n", t.pass_trace.len());
    for name in &t.pass_trace {
        out.push_str(name);
        out.push('\n');
    }
    out.push_str(&t.to_source());
    out.into_bytes()
}

/// Inverse of [`encode_translation`]; `None` marks the entry corrupt.
fn decode_translation(
    payload: &[u8],
    analysis: &ProgramAnalysis,
    plan: &PartitionPlan,
) -> Option<Translation> {
    let text = std::str::from_utf8(payload).ok()?;
    let (header, rest) = text.split_once('\n')?;
    let n = header.strip_prefix("hsmtrans 1 ")?.parse::<usize>().ok()?;
    let known = hsm_translate::standard_driver().pass_names();
    let mut parts = rest.splitn(n + 1, '\n');
    let mut pass_trace = Vec::with_capacity(n);
    for _ in 0..n {
        let name = parts.next()?;
        pass_trace.push(*known.iter().find(|k| **k == name)?);
    }
    let source = parts.next()?;
    let unit = hsm_cir::parse(source).ok()?;
    Some(Translation {
        unit,
        analysis: analysis.clone(),
        plan: plan.clone(),
        pass_trace,
    })
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_decode<V>(_: &[u8]) -> Option<V> {
        None
    }

    fn no_encode<V>(_: &V) -> Vec<u8> {
        Vec::new()
    }

    #[test]
    fn source_hash_distinguishes_sources() {
        assert_ne!(source_hash("int main() {}"), source_hash("int main( ) {}"));
        assert_eq!(source_hash("x"), source_hash("x"));
    }

    #[test]
    fn shelf_counts_hits_and_misses() {
        let shelf: Shelf<u32> = Shelf::default();
        let key = ArtifactKey::Parse { src: 1 };
        let a = shelf
            .get_or_try_insert::<()>(key, None, no_decode, no_encode, || Ok(10))
            .expect("first insert");
        let b = shelf
            .get_or_try_insert::<()>(key, None, no_decode, no_encode, || {
                panic!("must not recompute")
            })
            .expect("hit");
        assert_eq!(*a, 10);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shelf.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn shelf_does_not_cache_errors() {
        let shelf: Shelf<u32> = Shelf::default();
        let key = ArtifactKey::Parse { src: 7 };
        let err = shelf
            .get_or_try_insert(key, None, no_decode, no_encode, || Err("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        // The failed key was vacated: the next caller recomputes.
        let ok = shelf
            .get_or_try_insert::<&str>(key, None, no_decode, no_encode, || Ok(3))
            .expect("retry");
        assert_eq!(*ok, 3);
        assert_eq!(shelf.counters().misses, 2);
    }

    #[test]
    fn concurrent_lookups_compute_once() {
        let shelf: Arc<Shelf<u64>> = Arc::new(Shelf::default());
        let computed = Arc::new(AtomicU64::new(0));
        let key = ArtifactKey::Parse { src: 42 };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let shelf = Arc::clone(&shelf);
                let computed = Arc::clone(&computed);
                s.spawn(move || {
                    let v = shelf
                        .get_or_try_insert::<()>(key, None, no_decode, no_encode, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            Ok(99)
                        })
                        .expect("value");
                    assert_eq!(*v, 99);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "computed exactly once");
        let c = shelf.counters();
        assert_eq!(c.hits + c.misses, 8);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn artifact_key_paths_are_stable_and_distinct() {
        let spec = MemorySpec::scc(4);
        let keys = [
            ArtifactKey::Parse { src: 0xabcd },
            ArtifactKey::Analysis { src: 0xabcd },
            ArtifactKey::Plan {
                src: 0xabcd,
                policy: Policy::SizeAscending,
                spec,
            },
            ArtifactKey::Translation {
                src: 0xabcd,
                cores: 4,
                policy: Policy::SizeAscending,
                spec,
            },
            ArtifactKey::BaselineProgram {
                src: 0xabcd,
                opt: OptLevel::O2,
            },
            ArtifactKey::TranslatedProgram {
                src: 0xabcd,
                cores: 4,
                policy: Policy::SizeAscending,
                spec,
                opt: OptLevel::O2,
            },
            ArtifactKey::Profile {
                src: 0xabcd,
                cores: 4,
                policy: Policy::SizeAscending,
                spec,
                scenario: crate::Scenario::default(),
            },
        ];
        let paths: Vec<String> = keys.iter().map(ArtifactKey::path).collect();
        for (i, p) in paths.iter().enumerate() {
            assert!(p.starts_with(keys[i].stage()), "{p} under its stage dir");
            for (j, q) in paths.iter().enumerate() {
                if i != j {
                    assert_ne!(p, q, "distinct keys, distinct paths");
                }
            }
        }
        // Pinned spellings: these are an on-disk format, not free to drift.
        assert_eq!(paths[0], "parse/000000000000abcd");
        assert_eq!(
            paths[3],
            format!(
                "translate/000000000000abcd-c4-size_ascending-m{}x{}",
                spec.on_chip_capacity, spec.off_chip_capacity
            )
        );
        assert_eq!(
            paths[6],
            format!(
                "profile/000000000000abcd-c4-size_ascending-m{}x{}-hsm-coherent-O0",
                spec.on_chip_capacity, spec.off_chip_capacity
            )
        );
    }

    /// A profile's key fingerprints the simulated chip: the same program
    /// on another chip is another entry, and the Table 6.1 chip's
    /// fingerprint is pinned, since it is part of the on-disk path.
    #[test]
    fn profile_keys_fingerprint_the_chip() {
        let table = SccConfig::table_6_1();
        let mut one_mc = table.clone();
        one_mc.memory_controllers = 1;
        assert_eq!(run_hash(0xabcd, &table), run_hash(0xabcd, &table.clone()));
        assert_ne!(run_hash(0xabcd, &table), run_hash(0xabcd, &one_mc));
        assert_ne!(run_hash(0xabcd, &table), run_hash(0xabce, &table));
        assert_eq!(
            format!("{:016x}", run_hash(0xabcd, &table)),
            "72ec91739c765859"
        );
    }

    #[test]
    fn stats_without_store_have_no_store_block() {
        let cache = ArtifactCache::shared();
        assert!(cache.stats().store.is_none());
        assert!(cache.store().is_none());
    }
}
