//! The pass-managed compiler session: one instrumented, cache-aware
//! pipeline from RDL source (or a programmatic network) to executable
//! tape.
//!
//! Every pipeline entry point in the workspace — `rms_suite`'s
//! `compile_source`, the workload generators, `rms-serve`, the
//! parallel estimator's model setup — routes through [`CompilerSession`];
//! there is exactly one way to run the pipeline. Each stage consumes and
//! produces typed artifacts, records wall time and artifact sizes into a
//! [`PipelineReport`], and can dump its IR ([`SessionOptions::dump`]).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rms_core::{
    compile_jacobian_timed, compile_sensitivity_timed, optimize_traced, CompiledOde, CseOptions,
    DerivTapes, DerivTimes, ExecTape, JacobianTapes, OptLevel, PassTrace, SensitivityTapes,
};
use rms_odegen::{generate, GenerateOptions, OdeSystem};
use rms_rcip::RateTable;
use rms_rdl::{
    compile_with_options, expand_program, parse_rdl, CompiledModel, EngineOptions, ReactionNetwork,
};

use crate::cache::{self, CacheMode, CacheStatus};
use crate::diag::Diagnostic;
use crate::engine::{Kernels, Planned};
use crate::report::{PipelineReport, StageRecord};
use crate::serial;
use crate::stage::Stage;

/// Everything that affects what the pipeline produces — and therefore
/// everything that feeds the cache key.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Named optimization level.
    pub level: OptLevel,
    /// Override the equation generator's on-the-fly §3.1 merging. The
    /// default follows the level's simplify pass switch (off only at
    /// [`OptLevel::None`], Table 1's baseline).
    pub gen_simplify: Option<bool>,
    /// Also compile the analytic sparse Jacobian tapes (the *Deriv*
    /// stage).
    pub deriv: bool,
    /// Extend the Jacobian tapes by the parameter-sensitivity tail
    /// (`∂f/∂p`, sharing their register file), part of the *Deriv* stage:
    /// enables one-solve residual Jacobians in the estimator. Implies
    /// [`deriv`](SessionOptions::deriv).
    pub sensitivity: bool,
    /// Emit C for the tape(s), compile it with the system C compiler, and
    /// `dlopen` the result (the *Codegen* stage); the artifact's solves
    /// then run it. Codegen failures never fail the compile: the artifact
    /// carries a diagnostic instead of a kernel and solves run exec.
    pub native: bool,
    /// Cache participation.
    pub cache: CacheMode,
    /// On-disk cache directory (e.g. `.rms-cache/`); `None` keeps the
    /// cache in-memory only.
    pub cache_dir: Option<PathBuf>,
    /// Dump the IR after this stage. Dump requests force a cold,
    /// cache-bypassing compile so the requested intermediate actually
    /// exists.
    pub dump: Option<Stage>,
}

impl SessionOptions {
    /// Defaults at a named level: derived pass switches, no Jacobian,
    /// in-memory cache, no dumps.
    pub fn new(level: OptLevel) -> SessionOptions {
        SessionOptions {
            level,
            gen_simplify: None,
            deriv: false,
            sensitivity: false,
            native: false,
            cache: CacheMode::default(),
            cache_dir: None,
            dump: None,
        }
    }

    /// The equation generator's simplify switch actually used.
    pub fn effective_gen_simplify(&self) -> bool {
        self.gen_simplify
            .unwrap_or_else(|| self.level.passes().simplify)
    }

    /// Hash every compilation-relevant option into `h`.
    fn hash_into(&self, h: &mut impl Hasher) {
        let passes = self.level.passes();
        passes.simplify.hash(h);
        passes.distribute.hash(h);
        match passes.cse {
            None => 0u8.hash(h),
            Some(CseOptions {
                min_uses,
                prefix_matching,
            }) => {
                1u8.hash(h);
                min_uses.hash(h);
                prefix_matching.hash(h);
            }
        }
        self.effective_gen_simplify().hash(h);
        self.deriv.hash(h);
        self.sensitivity.hash(h);
        self.native.hash(h);
        // Where the frontend thread count used to be (always 0, one worker
        // per core, for a default session): hashing the constant keeps
        // every key computed before that option went, and so every disk
        // cache entry.
        0usize.hash(h);
    }
}

/// The cached output of a full pipeline run: every stage's artifact kept
/// together, plus the report describing how it was built.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    /// Model label (file name or workload case name).
    pub name: String,
    /// Reaction network (chemical-compiler output).
    pub network: ReactionNetwork,
    /// Evaluated, value-deduplicated rate constants (RCIP output).
    pub rates: RateTable,
    /// ODE system (equation-generator output).
    pub system: OdeSystem,
    /// Optimizer output: forest, tape, per-stage op counts.
    pub compiled: CompiledOde,
    /// Analytic sparse Jacobian tapes, when the *Deriv* stage ran.
    pub jacobian: Option<Arc<JacobianTapes>>,
    /// The Jacobian tapes with their `∂f/∂p` tail, when requested: its
    /// [`state`](SensitivityTapes::state) *is* `jacobian` (the same
    /// allocation), so a plain and a sensitivity-augmented solve read one
    /// Jacobian.
    pub sensitivity: Option<Arc<SensitivityTapes>>,
    /// Pre-decoded execution tape (the *ExecDecode* stage output). Every
    /// artifact carries one: a solve runs it unless a native kernel loaded.
    pub exec: Option<Arc<ExecTape>>,
    /// Loaded native kernel, when the *Codegen* stage ran and succeeded:
    /// then every solve over the artifact runs it.
    pub native: Option<Arc<rms_core::NativeKernel>>,
    /// Why there is no native kernel although one was requested (missing
    /// toolchain, compile failure, …); drives the engine-fallback
    /// diagnostic.
    pub native_diag: Option<String>,
    /// Non-fatal diagnostics from the compile (e.g. the closure hit
    /// `max_generations` while rules were still producing new species).
    /// Persisted: a revived artifact repeats what its cold compile said.
    pub warnings: Vec<Diagnostic>,
    /// Per-stage instrumentation of the compile that built this artifact.
    pub report: PipelineReport,
    /// Content-address under which the artifact is cached.
    pub key: u128,
    /// The equation generator's simplify switch used (needed to
    /// regenerate the system identically when reviving from disk).
    pub gen_simplify: bool,
    /// The tapes and the native object above as [`rms_core::Kernel`]s,
    /// reached through [`CompiledArtifact::kernel`], with the sparsity
    /// patterns they fill and the sparse-Newton plan over them (a disk
    /// entry persists the plan's elimination order, not the plan).
    pub(crate) kernels: Kernels,
}

impl CompiledArtifact {
    /// Rough in-memory footprint, used by the cache's memory-budget
    /// eviction. Counts the dominant allocations (tapes, Jacobian,
    /// system, network) at fixed per-element costs rather than chasing
    /// every string — eviction needs ordering-quality estimates, not
    /// accounting-quality ones.
    pub fn approx_bytes(&self) -> u64 {
        const INSTR: u64 = 48; // Instr/ExecInstr upper bound, with slack
        let tape = |t: &rms_core::Tape| INSTR * t.instrs.len() as u64;
        let mut total = 4096u64; // report, names, rate table, headers
        total += tape(&self.compiled.tape);
        if let Some(j) = &self.jacobian {
            total += tape(&j.rhs) + tape(&j.jac) + 8 * j.entries.len() as u64;
        }
        if let Some(s) = &self.sensitivity {
            total += tape(&s.dfdp) + 8 * s.dfdp_entries.len() as u64;
        }
        if let Some(exec) = &self.exec {
            total += INSTR * exec.len() as u64;
        }
        total += 64 * self.system.len() as u64;
        total += 64 * self.network.reaction_count() as u64;
        total
    }
}

/// A compile result: the (possibly shared) artifact plus provenance.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The artifact; cache hits share one allocation process-wide.
    pub artifact: Arc<CompiledArtifact>,
    /// How the request was satisfied.
    pub status: CacheStatus,
    /// Rendered IR of the requested dump stage, when one was requested
    /// and the stage ran.
    pub dump: Option<String>,
}

/// The pass-managed pipeline driver. Cheap to construct; all state lives
/// in the options and the process-wide cache.
#[derive(Debug, Clone)]
pub struct CompilerSession {
    options: SessionOptions,
}

impl CompilerSession {
    /// Session at a named optimization level with default options.
    pub fn new(level: OptLevel) -> CompilerSession {
        CompilerSession::with_options(SessionOptions::new(level))
    }

    /// Session with explicit options.
    pub fn with_options(options: SessionOptions) -> CompilerSession {
        CompilerSession { options }
    }

    /// The session's options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Compile RDL source text through the full pipeline. `name` labels
    /// the model in reports and diagnostics (typically the file name).
    pub fn compile_source(&self, name: &str, source: &str) -> Result<Compiled, Diagnostic> {
        let key = self.fingerprint(|h| {
            "rdl-source".hash(h);
            source.hash(h);
        });
        self.run_cached(key, || self.build_from_source(name, source, key))
    }

    /// Compile an already-built network (programmatic workloads). The
    /// pipeline starts at the *OdeGen* stage; the network and rate table
    /// are fingerprinted structurally for the cache key.
    pub fn compile_network(
        &self,
        name: &str,
        network: ReactionNetwork,
        rates: RateTable,
    ) -> Result<Compiled, Diagnostic> {
        let key = self.fingerprint(|h| {
            "network".hash(h);
            hash_network(&network, h);
            hash_rates(&rates, h);
        });
        self.run_cached(key, || {
            let mut dump = DumpSink::new(self.options.dump);
            let mut records = Vec::new();
            let frontend = FrontendOutput {
                network,
                rates,
                warnings: Vec::new(),
            };
            let artifact = self.build_from_network(name, key, frontend, &mut records, &mut dump)?;
            Ok((artifact, dump.take()))
        })
    }

    /// Dispatch through the cache (or straight to `build` when bypassed
    /// or dumping).
    fn run_cached(
        &self,
        key: u128,
        build: impl FnOnce() -> Result<(CompiledArtifact, Option<String>), Diagnostic>,
    ) -> Result<Compiled, Diagnostic> {
        if self.options.cache == CacheMode::Bypass || self.options.dump.is_some() {
            let (artifact, dump) = build()?;
            return Ok(Compiled {
                artifact: Arc::new(artifact),
                status: CacheStatus::Cold,
                dump,
            });
        }
        let disk = self
            .options
            .cache_dir
            .as_ref()
            .map(|dir| cache::disk_path(dir, key));
        let (artifact, status) = cache::lookup_or_build(
            key,
            disk.as_deref(),
            |path| match serial::load(path, key).and_then(|a| self.revive(a)) {
                Ok(artifact) => Some(artifact),
                Err(serial::LoadError::Missing) => None,
                Err(serial::LoadError::Corrupt) => {
                    // Truncated/bit-flipped/stale entry, or one that
                    // lacks what this request compiles: move it aside
                    // and fall through to a cold compile, whose
                    // `persist` rewrites a good file.
                    serial::quarantine(path);
                    cache::note_quarantine();
                    None
                }
            },
            || build().map(|(artifact, _)| artifact),
            serial::store,
        )?;
        Ok(Compiled {
            artifact,
            status,
            dump: None,
        })
    }

    /// The 128-bit content address of a compile request: model content
    /// (via `seed`) plus every compilation-relevant option, walked once
    /// into two std hashers with distinct domain prefixes.
    fn fingerprint(&self, seed: impl FnOnce(&mut TwoLanes)) -> u128 {
        let mut h = TwoLanes([DefaultHasher::new(), DefaultHasher::new()]);
        for (i, lane) in h.0.iter_mut().enumerate() {
            (0x9e37_79b9_97f4_a7c1_u64 ^ (i as u64)).hash(lane);
        }
        seed(&mut h);
        self.options.hash_into(&mut h);
        ((h.0[0].finish() as u128) << 64) | h.0[1].finish() as u128
    }

    /// Frontend stages: Parse → Expand → Rcip → Network, then the shared
    /// backend.
    fn build_from_source(
        &self,
        name: &str,
        source: &str,
        key: u128,
    ) -> Result<(CompiledArtifact, Option<String>), Diagnostic> {
        let mut dump = DumpSink::new(self.options.dump);
        let mut records = Vec::new();

        let clock = Instant::now();
        let program = parse_rdl(source)?;
        records.push(
            StageRecord::new(Stage::Parse, clock.elapsed().as_secs_f64())
                .metric("molecules", program.molecules.len() as f64)
                .metric("rules", program.rules.len() as f64),
        );
        dump.offer(Stage::Parse, || format!("{program:#?}"));

        let clock = Instant::now();
        let seeds = expand_program(&program)?;
        records.push(
            StageRecord::new(Stage::Expand, clock.elapsed().as_secs_f64())
                .metric("variants", seeds.len() as f64),
        );
        dump.offer(Stage::Expand, || {
            seeds
                .iter()
                .map(|s| {
                    format!(
                        "{} (family {}) = \"{}\" init {}\n",
                        s.name, s.family, s.smiles, s.initial
                    )
                })
                .collect()
        });

        let clock = Instant::now();
        let rates = RateTable::parse(&program.rate_source)?;
        records.push(
            StageRecord::new(Stage::Rcip, clock.elapsed().as_secs_f64())
                .metric("names", rates.name_count() as f64)
                .metric("distinct", rates.distinct_count() as f64),
        );
        dump.offer(Stage::Rcip, || render_rates(&rates));

        let clock = Instant::now();
        let CompiledModel {
            network,
            rates,
            stats,
        } = compile_with_options(&program, rates, &seeds, &EngineOptions::default())?;
        records.push(
            StageRecord::new(Stage::Network, clock.elapsed().as_secs_f64())
                .metric("species", network.species_count() as f64)
                .metric("reactions", network.reaction_count() as f64)
                .metric("rule_applications", stats.rule_applications as f64)
                .metric("canonicalizations", stats.canonicalizations as f64)
                .metric("identity_slow_path", stats.identity_slow_path as f64)
                .metric("prefilter_hit_rate", stats.prefilter_hit_rate())
                .metric("peak_frontier", stats.peak_frontier as f64)
                .metric("generations", stats.generations as f64)
                .metric(
                    "gen_max_seconds",
                    stats.generation_seconds.iter().copied().fold(0.0, f64::max),
                )
                .metric("threads", stats.threads as f64),
        );
        dump.offer(Stage::Network, || render_network(&network));

        let mut warnings = Vec::new();
        if !stats.fixpoint && !stats.growing_rules.is_empty() {
            let mut warning = Diagnostic::warning(
                Stage::Network,
                format!(
                    "network closure stopped at the generation cap ({}) without \
                     reaching a fixpoint; still-growing rules: {}",
                    program.limits.max_generations,
                    stats.growing_rules.join(", ")
                ),
            );
            if let Some((line, column)) = program.generations_span {
                warning = warning.with_span(line, column);
            }
            warnings.push(warning);
        }

        let frontend = FrontendOutput {
            network,
            rates,
            warnings,
        };
        let artifact = self.build_from_network(name, key, frontend, &mut records, &mut dump)?;
        Ok((artifact, dump.take()))
    }

    /// Backend stages shared by both entry points: OdeGen → optimizer
    /// passes → Deriv → Lower → ExecDecode.
    fn build_from_network(
        &self,
        name: &str,
        key: u128,
        frontend: FrontendOutput,
        records: &mut Vec<StageRecord>,
        dump: &mut DumpSink,
    ) -> Result<CompiledArtifact, Diagnostic> {
        let FrontendOutput {
            network,
            rates,
            warnings,
        } = frontend;
        let gen_simplify = self.options.effective_gen_simplify();
        let clock = Instant::now();
        let system = generate(
            &network,
            &rates,
            GenerateOptions {
                simplify: gen_simplify,
            },
        )?;
        let mut odegen_record = StageRecord::new(Stage::OdeGen, clock.elapsed().as_secs_f64())
            .metric("equations", system.len() as f64)
            .metric("terms", system.term_count() as f64);
        dump.offer(Stage::OdeGen, || system.display());

        // Optimizer passes, traced. IR capture only when a pass-stage dump
        // was requested (it costs a formatting walk per pass).
        let wants_pass_ir = matches!(
            self.options.dump,
            Some(Stage::Simplify | Stage::Distribute | Stage::Cse)
        );
        let mut trace = if wants_pass_ir {
            PassTrace::with_ir()
        } else {
            PassTrace::default()
        };
        let compiled = optimize_traced(&system, self.options.level.passes(), Some(&mut trace));
        for event in trace.events {
            let stage = match event.pass {
                // Forest construction is bookkeeping of the generator's
                // output; attribute it to OdeGen.
                "input" => {
                    odegen_record.seconds += event.seconds;
                    odegen_record = odegen_record.metric("ir_nodes", event.nodes as f64);
                    continue;
                }
                "simplify" => Stage::Simplify,
                "distribute" => Stage::Distribute,
                "cse" => Stage::Cse,
                "lower" => Stage::Lower,
                other => unreachable!("unknown optimizer pass '{other}'"),
            };
            let rec = StageRecord::new(stage, event.seconds)
                .metric("mults", event.counts.mults as f64)
                .metric("adds", event.counts.adds as f64)
                .metric(
                    if stage == Stage::Lower {
                        "instrs"
                    } else {
                        "ir_nodes"
                    },
                    event.nodes as f64,
                );
            if let Some(ir) = event.ir {
                dump.offer(stage, || ir);
            }
            records.push(rec);
        }
        // OdeGen ran before the optimizer; keep records in stage order.
        let insert_at = records
            .iter()
            .position(|r| r.stage > Stage::OdeGen)
            .unwrap_or(records.len());
        records.insert(insert_at, odegen_record);
        dump.offer(Stage::Lower, || compiled.tape.to_string());

        let mut planned = Planned::No;
        let derivs = (self.options.deriv || self.options.sensitivity).then(|| {
            let stage_clock = Instant::now();
            let mut times = DerivTimes::default();
            let cse = Some(CseOptions::default());
            // One register-sharing group per request: the Jacobian pair,
            // with the `∂f/∂p` tail when sensitivities were asked for.
            let derivs = if self.options.sensitivity {
                let tapes = compile_sensitivity_timed(&compiled.forest, cse, &mut times);
                DerivTapes::Sensitivity(Arc::new(tapes))
            } else {
                let tapes = compile_jacobian_timed(&compiled.forest, cse, &mut times);
                DerivTapes::Jacobian(Arc::new(tapes))
            };
            let tapes = derivs.state();
            // Sparse-Newton analysis of I − hβJ over the exact compiled
            // sparsity: the fill the stiff solver's sparse path carries
            // (nnz(L+U) under the fill-reducing ordering). The artifact
            // keeps the plan, so no solve over it analyzes again.
            let clock = Instant::now();
            let pattern = rms_solver::PlannedPattern::new(rms_solver::SparsityPattern::new(
                tapes.pattern_rows(),
                tapes.n_species,
            ));
            let plan = pattern.plan();
            let of_plan = |f: fn(&rms_solver::NewtonPlan) -> f64| plan.as_deref().map_or(0.0, f);
            // `passes` and where they went; with `symbolic_seconds` the
            // split accounts for `seconds`.
            let mut record = StageRecord::new(Stage::Deriv, 0.0)
                .metric("passes", times.passes as f64)
                .metric("diff_seconds", times.diff_seconds)
                .metric("cse_seconds", times.cse_seconds)
                .metric("lower_seconds", times.lower_seconds)
                .metric("nnz", tapes.entries.len() as f64)
                .metric("rhs_instrs", tapes.rhs.instrs.len() as f64)
                .metric("jac_instrs", tapes.jac.instrs.len() as f64)
                .metric("iter_nnz", of_plan(|p| p.iter_nnz() as f64))
                .metric("lu_fill_nnz", of_plan(|p| p.fill_nnz() as f64))
                // What `LinearSolver::Auto` decides from, and its verdict.
                .metric("lu_factor_macs", of_plan(|p| p.factor_macs() as f64))
                .metric("dense_factor_macs", of_plan(|p| p.dense_factor_macs()))
                .metric(
                    "sparse_newton",
                    of_plan(|p| f64::from(u8::from(p.prefers_sparse()))),
                )
                .metric("symbolic_seconds", clock.elapsed().as_secs_f64());
            planned = Planned::Analyzed(pattern);
            if let Some(tail) = derivs.sensitivity() {
                record = record
                    .metric("dfdp_nnz", tail.dfdp_entries.len() as f64)
                    .metric("dfdp_instrs", tail.dfdp.instrs.len() as f64);
            }
            record.seconds = stage_clock.elapsed().as_secs_f64();
            // Deriv sits between Cse and Lower in the stage order.
            let at = records
                .iter()
                .position(|r| r.stage > Stage::Deriv)
                .unwrap_or(records.len());
            records.insert(at, record);
            dump.offer(Stage::Deriv, || {
                let mut out = format!(
                    "; jacobian: {} nonzero entries {:?}\n; shared rhs tape:\n{}; jac tape:\n{}",
                    tapes.entries.len(),
                    tapes.entries,
                    tapes.rhs,
                    tapes.jac
                );
                if let Some(tail) = derivs.sensitivity() {
                    out.push_str(&format!(
                        "; dfdp: {} nonzero (species, rate) entries {:?}\n; dfdp tape:\n{}",
                        tail.dfdp_entries.len(),
                        tail.dfdp_entries,
                        tail.dfdp
                    ));
                }
                out
            });
            derivs
        });

        let clock = Instant::now();
        let exec = Arc::new(ExecTape::compile(&compiled.tape));
        records.push(
            StageRecord::new(Stage::ExecDecode, clock.elapsed().as_secs_f64())
                .metric("instrs", exec.len() as f64)
                .metric("fused", (compiled.tape.instrs.len() - exec.len()) as f64),
        );
        dump.offer(Stage::ExecDecode, || {
            format!(
                "; exec tape: {} instrs (fused from {}), op counts {}\n",
                exec.len(),
                compiled.tape.instrs.len(),
                exec.op_counts()
            )
        });

        let (native, native_diag) = if self.options.native {
            let clock = Instant::now();
            let outcome = self.native_kernel(name, &compiled.tape, derivs.as_ref(), key);
            dump.offer(Stage::Codegen, || {
                crate::codegen::render_kernel(name, &compiled.tape, derivs.as_ref(), key)
                    .units
                    .join(crate::codegen::UNIT_BREAK)
            });
            records.push(
                StageRecord::new(Stage::Codegen, clock.elapsed().as_secs_f64())
                    .metric("render_seconds", outcome.render_seconds)
                    .metric("cc_seconds", outcome.cc_seconds)
                    .metric("source_bytes", outcome.source_bytes as f64)
                    .metric("cc_units", outcome.cc_units as f64)
                    .metric(
                        "cc_unit_max_seconds",
                        outcome.cc_unit_seconds.iter().copied().fold(0.0, f64::max),
                    )
                    .metric("link_seconds", outcome.link_seconds)
                    .metric("loops", outcome.loop_count as f64)
                    .metric("rolled_instrs", outcome.rolled_instrs as f64)
                    .metric("reused", if outcome.reused { 1.0 } else { 0.0 })
                    .metric("loaded", if outcome.kernel.is_some() { 1.0 } else { 0.0 }),
            );
            (outcome.kernel, outcome.diag)
        } else {
            (None, None)
        };

        let mut report = PipelineReport {
            model: name.to_string(),
            level: self.options.level.to_string(),
            species: network.species_count(),
            reactions: network.reaction_count(),
            rates: rates.distinct_count(),
            stages: std::mem::take(records),
            counts: compiled.stages,
            total_seconds: 0.0,
        };
        report.finish();

        let kernels = Kernels::new(&compiled.tape, &exec, &derivs, &native, planned);
        let (jacobian, sensitivity) = views(derivs);
        Ok(CompiledArtifact {
            name: name.to_string(),
            network,
            rates,
            system,
            compiled,
            jacobian,
            sensitivity,
            exec: Some(exec),
            native,
            native_diag,
            warnings,
            report,
            key,
            gen_simplify,
            kernels,
        })
    }

    /// Finish reviving a disk-loaded artifact: regenerate the ODE system
    /// (not serialized), re-decode the exec tape and re-attach the native
    /// kernel. Nothing is derived: an entry whose derivative group is not
    /// the one this request compiles, or that disagrees with it otherwise,
    /// is corrupt.
    fn revive(&self, partial: serial::DiskArtifact) -> Result<CompiledArtifact, serial::LoadError> {
        let serial::DiskArtifact {
            name,
            network,
            rates,
            compiled,
            derivs,
            order,
            warnings,
            report,
            key,
            gen_simplify,
        } = partial;
        let tail = derivs.as_ref().and_then(DerivTapes::sensitivity);
        let as_requested = gen_simplify == self.options.effective_gen_simplify()
            && derivs.is_some() == (self.options.deriv || self.options.sensitivity)
            && tail.is_some() == self.options.sensitivity;
        let simplify = gen_simplify;
        let system = generate(&network, &rates, GenerateOptions { simplify })
            .ok()
            .filter(|system| as_requested && system.len() == compiled.tape.n_species)
            .filter(|system| system.n_rates == compiled.tape.n_rates)
            .ok_or(serial::LoadError::Corrupt)?;
        let exec = Arc::new(ExecTape::compile(&compiled.tape));
        // Re-attach the native kernel: usually a straight dlopen of the
        // `.so` cached beside the artifact, recompiling if it is missing
        // or was quarantined.
        let (native, native_diag) = if self.options.native {
            let outcome = self.native_kernel(&name, &compiled.tape, derivs.as_ref(), key);
            (outcome.kernel, outcome.diag)
        } else {
            (None, None)
        };
        let planned = order.map_or(Planned::No, Planned::Order);
        let kernels = Kernels::new(&compiled.tape, &exec, &derivs, &native, planned);
        let (jacobian, sensitivity) = views(derivs);
        Ok(CompiledArtifact {
            name,
            network,
            rates,
            system,
            compiled,
            jacobian,
            sensitivity,
            exec: Some(exec),
            native,
            native_diag,
            warnings,
            report,
            key,
            gen_simplify,
            kernels,
        })
    }

    /// The *Codegen* stage proper: load the object cached for `key`, or
    /// render the kernel source and compile it.
    fn native_kernel(
        &self,
        name: &str,
        tape: &rms_core::Tape,
        derivs: Option<&DerivTapes>,
        key: u128,
    ) -> crate::codegen::CodegenOutcome {
        let meta = rms_core::KernelMeta {
            key,
            n_species: tape.n_species,
            n_rates: tape.n_rates,
            jac_nnz: derivs.map(|d| d.state().nnz()),
            dfdp_nnz: derivs
                .and_then(DerivTapes::sensitivity)
                .map(|s| s.dfdp_nnz()),
        };
        let path = crate::codegen::kernel_path(self.options.cache_dir.as_deref(), key);
        crate::codegen::build_kernel(&path, &meta, || {
            crate::codegen::render_kernel(name, tape, derivs, key)
        })
    }
}

/// The artifact's two public views of its one derivative group.
fn views(
    derivs: Option<DerivTapes>,
) -> (Option<Arc<JacobianTapes>>, Option<Arc<SensitivityTapes>>) {
    let tail = derivs.as_ref().and_then(DerivTapes::sensitivity).cloned();
    (derivs.map(|d| d.state().clone()), tail)
}

/// Two std hashers fed the same bytes: one walk of the model content
/// gives both halves of the 128-bit key. Every `Hash` impl reaches a
/// `Hasher` through `write` (the integer and `str` methods default to it,
/// and `DefaultHasher` overrides them to the same bytes), so each lane
/// ends where a hasher walked alone would.
struct TwoLanes([DefaultHasher; 2]);

impl Hasher for TwoLanes {
    fn write(&mut self, bytes: &[u8]) {
        self.0[0].write(bytes);
        self.0[1].write(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("the lanes finish separately, in `fingerprint`")
    }
}

/// Frontend output handed to the shared backend stages: the closed
/// network, evaluated rates, and any non-fatal diagnostics raised along
/// the way (the network entry point has none — warnings are a source
/// frontend concern).
struct FrontendOutput {
    network: ReactionNetwork,
    rates: RateTable,
    warnings: Vec<Diagnostic>,
}

/// Captures at most one stage's IR dump.
struct DumpSink {
    want: Option<Stage>,
    text: Option<String>,
}

impl DumpSink {
    fn new(want: Option<Stage>) -> DumpSink {
        DumpSink { want, text: None }
    }

    /// Render and keep the dump if `stage` is the requested one.
    fn offer(&mut self, stage: Stage, render: impl FnOnce() -> String) {
        if self.want == Some(stage) && self.text.is_none() {
            self.text = Some(render());
        }
    }

    fn take(&mut self) -> Option<String> {
        self.text.take()
    }
}

/// Network listing for `--dump-ir=network`: every species in id order
/// (name, canonical SMILES, initial concentration), then the reaction
/// equations in insertion order.
fn render_network(network: &ReactionNetwork) -> String {
    let mut out = format!("; {} species\n", network.species_count());
    for (id, species) in network.species_iter() {
        let canonical = network
            .canonical_smiles(id)
            .unwrap_or_else(|| "?".to_string());
        out.push_str(&format!(
            "s{} {} = \"{}\" init {}\n",
            id.0, species.name, canonical, species.initial_concentration
        ));
    }
    out.push_str(&format!("; {} reactions\n", network.reaction_count()));
    out.push_str(&network.display_equations());
    out
}

/// Rate-table listing for `--dump-ir=rcip`: every name with its value and
/// canonical id.
fn render_rates(rates: &RateTable) -> String {
    let mut out = String::new();
    for name in rates.names() {
        let id = rates.id(name).expect("listed name resolves");
        out.push_str(&format!(
            "{name} = {} (k{}{})\n",
            rates.get(name).expect("listed name has a value"),
            id.0,
            if rates.canonical_name(id) == name {
                ", canonical".to_string()
            } else {
                format!(", alias of {}", rates.canonical_name(id))
            }
        ));
    }
    out
}

/// Structural fingerprint of a network: species (name, initial) in id
/// order plus reactions (ids, rate, rule) in insertion order.
fn hash_network(network: &ReactionNetwork, h: &mut impl Hasher) {
    network.species_count().hash(h);
    for (_, species) in network.species_iter() {
        species.name.hash(h);
        species.initial_concentration.to_bits().hash(h);
    }
    network.reaction_count().hash(h);
    for reaction in network.reactions() {
        for id in &reaction.reactants {
            id.0.hash(h);
        }
        u32::MAX.hash(h); // separator
        for id in &reaction.products {
            id.0.hash(h);
        }
        reaction.rate.hash(h);
        reaction.rule.hash(h);
    }
}

/// Structural fingerprint of a rate table: names with value bits in
/// definition order plus bounds per canonical id.
fn hash_rates(rates: &RateTable, h: &mut impl Hasher) {
    rates.name_count().hash(h);
    for name in rates.names() {
        name.hash(h);
        rates
            .get(name)
            .expect("listed name has a value")
            .to_bits()
            .hash(h);
    }
    for id in 0..rates.distinct_count() {
        match rates.bounds(rms_rcip::RateId(id as u32)) {
            None => 0u8.hash(h),
            Some(b) => {
                1u8.hash(h);
                b.lo.to_bits().hash(h);
                b.hi.to_bits().hash(h);
            }
        }
    }
}
