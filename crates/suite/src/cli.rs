//! The `rmsc` command-line driver: compile, inspect, simulate, and fit
//! RDL models from the shell. All logic lives here (pure functions over
//! parsed arguments) so it is unit-testable; `src/bin/rmsc.rs` is a thin
//! wrapper.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rms_nlopt::FitStatistics;
use rms_parallel::{EstimatorConfig, ExperimentFile, FailurePolicy, RetryPolicy};

use crate::{
    CompilerSession, EngineMode, JacobianMode, LinearSolver, LmOptions, OptLevel,
    ParallelEstimator, ResidualJacobianMode, SessionOptions, SolverOptions, Stage, SuiteModel,
};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Compile an RDL file and print one of its artifacts.
    Compile {
        /// RDL source path.
        input: PathBuf,
        /// Optimization level.
        level: OptLevel,
        /// What to print.
        emit: Emit,
        /// Print this stage's IR instead of the `--emit` artifact.
        dump: Option<Stage>,
        /// Worker threads for network closure (0 = one per core).
        frontend_threads: usize,
        /// On-disk artifact cache directory.
        cache_dir: Option<PathBuf>,
    },
    /// Integrate the model and print a concentration table.
    Simulate {
        /// RDL source path.
        input: PathBuf,
        /// Optimization level.
        level: OptLevel,
        /// Final time.
        tend: f64,
        /// Number of equally spaced output rows.
        steps: usize,
        /// Species to print (empty = all).
        observe: Vec<String>,
        /// Jacobian source for the BDF solver.
        jacobian: JacobianMode,
        /// Direct method for the Newton iteration matrix.
        linear_solver: LinearSolver,
        /// Right-hand-side evaluator.
        engine: EngineMode,
        /// Worker threads for network closure (0 = one per core).
        frontend_threads: usize,
        /// On-disk artifact cache directory.
        cache_dir: Option<PathBuf>,
    },
    /// Synthesize experiment files from the model's nominal kinetics.
    Synthesize {
        /// RDL source path.
        input: PathBuf,
        /// Species whose summed concentration is the measured property.
        observe: Vec<String>,
        /// Output directory for `formulation_XX.dat`.
        out_dir: PathBuf,
        /// Number of files.
        files: usize,
        /// Records per file.
        records: usize,
        /// Cure horizon.
        tend: f64,
    },
    /// Fit the model's bounded rate constants to experiment files.
    Estimate {
        /// RDL source path.
        input: PathBuf,
        /// Directory of `.dat` files.
        data_dir: PathBuf,
        /// Observed species (summed).
        observe: Vec<String>,
        /// Worker ranks.
        workers: usize,
        /// Deadline (seconds) for each collective; `None` waits forever.
        collective_timeout: Option<f64>,
        /// Retry budget for failing simulations.
        max_retries: usize,
        /// Penalize or abort on a permanently failing file.
        on_failure: FailurePolicy,
        /// Jacobian source for the BDF solver in each simulation.
        jacobian: JacobianMode,
        /// How the optimizer builds the residual Jacobian `∂r/∂p`.
        residual_jacobian: ResidualJacobianMode,
        /// Relative finite-difference step for the residual Jacobian and
        /// the fit statistics; `None` derives it from the solver
        /// tolerance (`√rtol`).
        fd_step: Option<f64>,
        /// Direct method for the Newton iteration matrix.
        linear_solver: LinearSolver,
        /// Worker threads for network closure (0 = one per core).
        frontend_threads: usize,
        /// On-disk artifact cache directory.
        cache_dir: Option<PathBuf>,
    },
    /// Run the line-delimited JSON job server on stdin/stdout.
    Serve {
        /// Worker threads executing jobs.
        workers: usize,
        /// Admission-queue bound (full queue rejects immediately).
        queue_capacity: usize,
        /// On-disk artifact cache directory shared by all jobs.
        cache_dir: Option<PathBuf>,
        /// In-memory artifact cache budget in MiB.
        memory_budget_mb: Option<u64>,
        /// Retry budget for transient solver failures.
        max_retries: usize,
        /// Base delay (ms) of the exponential retry backoff.
        retry_base_ms: u64,
        /// Default deadline (ms) for jobs that carry none.
        deadline_ms: Option<u64>,
        /// Chaos: admission sequence numbers whose jobs panic.
        chaos_panic: Vec<usize>,
        /// Chaos: `(sequence, ms)` stalls injected into jobs.
        chaos_stall: Vec<(usize, u64)>,
    },
    /// Print usage.
    Help,
}

/// What `rmsc compile` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// The reaction network in Fig. 3 form.
    Network,
    /// The ODE system in Fig. 5 form.
    Odes,
    /// The generated native kernel source (scalar + batched RHS,
    /// analytic Jacobian, sensitivity tail).
    C,
    /// Optimizer stage statistics.
    Stats,
    /// Linear conservation laws of the network.
    Conservation,
    /// The staged pipeline report as JSON.
    Report,
}

/// CLI errors, split by phase so the binary can exit with the
/// conventional code: 2 for a bad invocation, 1 for a runtime failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The argument vector was malformed (exit code 2).
    Usage(String),
    /// The compiler rejected the model; the message is the rendered,
    /// span-annotated diagnostic (exit code 2 — the input is at fault,
    /// like a bad invocation).
    Diagnostic(String),
    /// The command itself failed (exit code 1).
    Runtime(String),
}

impl CliError {
    /// The message without the phase tag.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Diagnostic(m) | CliError::Runtime(m) => m,
        }
    }

    /// Conventional process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) | CliError::Diagnostic(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
rmsc — Reaction Modeling Suite driver

USAGE:
  rmsc compile  <model.rdl> [--level none|simplify|algebraic|full]
                [--emit network|odes|c|stats|conservation|report]
                [--dump-ir STAGE]
                [--frontend-threads N] [--cache-dir DIR]
  rmsc compile-report <model.rdl> [--level L] [--frontend-threads N]
                [--cache-dir DIR]
  rmsc simulate <model.rdl> [--tend T] [--steps N] [--observe A,B,...] [--level L]
                [--jacobian analytic|fd-colored|fd-dense]   (default analytic)
                [--linear-solver dense|sparse|auto]         (default auto)
                [--engine interp|exec|native|auto]          (default exec)
                [--frontend-threads N] [--cache-dir DIR]
  rmsc synthesize <model.rdl> --observe A,B,... --out DIR [--files N] [--records N] [--tend T]
  rmsc estimate <model.rdl> --data DIR --observe A,B,... [--workers N]
                [--collective-timeout SECS] [--max-retries N]
                [--on-solver-failure penalize|abort]
                [--jacobian analytic|fd-colored|fd-dense]   (default analytic)
                [--residual-jacobian analytic|fd]           (default analytic)
                [--fd-step REL]                             (default sqrt(solver rtol))
                [--linear-solver dense|sparse|auto]         (default auto)
                [--frontend-threads N] [--cache-dir DIR]
  rmsc serve    [--workers N] [--queue-capacity N] [--cache-dir DIR]
                [--memory-budget-mb N] [--max-retries N] [--retry-base-ms MS]
                [--deadline-ms MS]
                [--chaos-panic SEQ,SEQ,...] [--chaos-stall SEQ:MS,SEQ:MS,...]
  rmsc help

'serve' reads one JSON job request per line from stdin and streams
JSON events (accepted, result, error, drained) to stdout; see
DESIGN.md §12 for the protocol and failure model. The --chaos-*
flags deterministically inject panics/stalls into the jobs with the
given admission sequence numbers (testing only).

'compile-report' (or 'compile --emit report') prints the staged
pipeline report as JSON: per-stage wall time and artifact sizes, plus
the optimizer's operation counts (the paper's Table 1 columns). It
compiles what 'simulate' compiles, the deriv stage included.

--dump-ir prints one stage's intermediate representation and exits;
STAGE is one of parse, expand, rcip, network, odegen, simplify,
distribute, cse, deriv, lower, exec-decode, codegen.

--frontend-threads sets the worker-thread count for the network-closure
stage (rule matching, graph edits, canonicalization); 0 or omitted uses
one thread per available core, 1 runs the serial path. The generated
network is bit-identical at every thread count — the flag trades wall
time only.

--cache-dir enables the on-disk artifact cache: recompiles of an
unchanged model at the same options are served from DIR.

The --jacobian modes: 'analytic' runs the compiler-emitted sparse
Jacobian tapes (exact derivatives, CSE-shared with the RHS tape);
'fd-colored' uses colored finite differences over the structural
sparsity; 'fd-dense' perturbs every state variable.

The --residual-jacobian modes select how the optimizer obtains the
residual Jacobian ∂r/∂p: 'analytic' integrates the forward sensitivity
ODEs alongside each simulation (one augmented solve per file per
Jacobian, independent of the parameter count, falling back to finite
differences when sensitivities are unavailable); 'fd' re-solves every
file once per parameter with a bound-aware forward difference.
--fd-step sets the relative finite-difference step used by the 'fd'
mode, the fallback path, and the fit statistics; the default √rtol
sits above the ODE solver's noise floor.

The --linear-solver methods factor the Newton iteration matrix
I − hβJ: 'dense' is LU with partial pivoting; 'sparse' is a
fill-reducing (minimum-degree) sparse LU whose ordering and symbolic
analysis are computed once per compiled model from its Jacobian
sparsity and shared by every solve over it (compile-report shows the
cost as the Deriv stage's symbolic_seconds); 'auto' decides from that
analysis: sparse when one refactorization over its fill costs fewer
multiply-adds than the n³/3 of a dense LU (compile-report shows both
counts and the verdict as lu_factor_macs, dense_factor_macs and
sparse_newton), falling back to dense for the rest of a solve whose
sparse factorization meets a zero pivot on the diagonal.

The --engine modes: 'exec' pre-decodes the tape into the fused
execution engine (operands resolved to frame indices, FMA
superinstructions, SIMD-batched Jacobian sweeps); 'interp' walks the
legacy tape interpreter; 'native' compiles the optimized tape to C,
builds a shared object with the system C compiler (honoring $CC),
caches it by content address in --cache-dir, and dlopens it. When no
toolchain is available the run degrades to 'exec' with a printed
diagnostic rather than failing. 'auto' picks between exec and native
by kernel shape: a kernel with loop regions (runs of structurally
identical per-reaction stanzas, which codegen renders as data-driven C
loops over static stride/index tables) always wins, a kernel without
any wins only below the I-cache crossover (~32k instructions), and a
missing kernel falls back to exec; the chosen engine and the reason
are printed before the table.

'compile --emit c' prints the complete native kernel source: the
specialized scalar ode_rhs, the batched ode_rhs_batch, the analytic
Jacobian ode_jac and the sensitivity tail ode_sens — exactly what
the native engine hands to the C compiler.
";

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_level(args: &[String]) -> Result<OptLevel, CliError> {
    match flag_value(args, "--level") {
        None => Ok(OptLevel::Full),
        Some(v) => v
            .parse()
            .map_err(|_: String| usage_err(format!("unknown --level '{v}'"))),
    }
}

/// `--jacobian`, for `simulate` and `estimate` alike: the analytic tapes
/// unless asked otherwise — what `rms-serve` and the benchmark run.
fn parse_jacobian(args: &[String]) -> Result<JacobianMode, CliError> {
    match flag_value(args, "--jacobian") {
        None => Ok(JacobianMode::Analytic),
        Some(v) => v.parse().map_err(|e: String| usage_err(e)),
    }
}

fn parse_linear_solver(args: &[String]) -> Result<LinearSolver, CliError> {
    match flag_value(args, "--linear-solver") {
        None => Ok(LinearSolver::default()),
        Some(v) => v.parse().map_err(|e: String| usage_err(e)),
    }
}

fn parse_engine(args: &[String]) -> Result<EngineMode, CliError> {
    match flag_value(args, "--engine") {
        None => Ok(EngineMode::default()),
        Some(v) => v.parse().map_err(|e: String| usage_err(e)),
    }
}

fn parse_observe(args: &[String]) -> Vec<String> {
    flag_value(args, "--observe")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_default()
}

fn parse_cache_dir(args: &[String]) -> Option<PathBuf> {
    flag_value(args, "--cache-dir").map(PathBuf::from)
}

fn parse_dump(args: &[String]) -> Result<Option<Stage>, CliError> {
    match flag_value(args, "--dump-ir") {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(usage_err),
    }
}

/// Reject any `--flag` not in `known`, and any known one without a value
/// (at the end of the line, or followed by another `--flag`): every flag
/// of every subcommand takes one, and a typo'd or half-typed option is a
/// usage error instead of being silently ignored.
fn check_flags(args: &[String], known: &[&str]) -> Result<(), CliError> {
    for (i, flag) in args.iter().enumerate().filter(|(_, a)| a.starts_with("--")) {
        if !known.contains(&flag.as_str()) {
            return Err(usage_err(format!(
                "unknown option '{flag}' (expected one of: {})",
                known.join(", ")
            )));
        }
        if args.get(i + 1).is_none_or(|next| next.starts_with("--")) {
            return Err(usage_err(format!("option '{flag}' takes a value")));
        }
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, CliError> {
    match flag_value(args, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage_err(format!("{key} takes a number, got '{v}'"))),
    }
}

/// Parse an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let input = |idx: usize| -> Result<PathBuf, CliError> {
        args.get(idx)
            .filter(|a| !a.starts_with("--"))
            .map(PathBuf::from)
            .ok_or_else(|| usage_err("expected a model file path"))
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "compile" => Ok(Command::Compile {
            input: {
                check_flags(
                    args,
                    &[
                        "--level",
                        "--emit",
                        "--dump-ir",
                        "--frontend-threads",
                        "--cache-dir",
                    ],
                )?;
                input(1)?
            },
            level: parse_level(args)?,
            emit: match flag_value(args, "--emit") {
                None | Some("stats") => Emit::Stats,
                Some("network") => Emit::Network,
                Some("odes") => Emit::Odes,
                Some("c") => Emit::C,
                Some("conservation") => Emit::Conservation,
                Some("report") => Emit::Report,
                Some(other) => return Err(usage_err(format!("unknown --emit '{other}'"))),
            },
            dump: parse_dump(args)?,
            frontend_threads: parse_num(args, "--frontend-threads", 0)?,
            cache_dir: parse_cache_dir(args),
        }),
        "compile-report" => Ok(Command::Compile {
            input: {
                check_flags(args, &["--level", "--frontend-threads", "--cache-dir"])?;
                input(1)?
            },
            level: parse_level(args)?,
            emit: Emit::Report,
            dump: None,
            frontend_threads: parse_num(args, "--frontend-threads", 0)?,
            cache_dir: parse_cache_dir(args),
        }),
        "simulate" => Ok(Command::Simulate {
            input: {
                check_flags(
                    args,
                    &[
                        "--level",
                        "--tend",
                        "--steps",
                        "--observe",
                        "--jacobian",
                        "--linear-solver",
                        "--engine",
                        "--frontend-threads",
                        "--cache-dir",
                    ],
                )?;
                input(1)?
            },
            level: parse_level(args)?,
            tend: parse_num(args, "--tend", 1.0)?,
            steps: parse_num(args, "--steps", 10)?,
            observe: parse_observe(args),
            jacobian: parse_jacobian(args)?,
            linear_solver: parse_linear_solver(args)?,
            engine: parse_engine(args)?,
            frontend_threads: parse_num(args, "--frontend-threads", 0)?,
            cache_dir: parse_cache_dir(args),
        }),
        "synthesize" => Ok(Command::Synthesize {
            input: {
                check_flags(
                    args,
                    &["--observe", "--out", "--files", "--records", "--tend"],
                )?;
                input(1)?
            },
            observe: parse_observe(args),
            out_dir: flag_value(args, "--out")
                .map(PathBuf::from)
                .ok_or_else(|| usage_err("synthesize requires --out DIR"))?,
            files: parse_num(args, "--files", 16)?,
            records: parse_num(args, "--records", 200)?,
            tend: parse_num(args, "--tend", 2.0)?,
        }),
        "estimate" => {
            check_flags(
                args,
                &[
                    "--data",
                    "--observe",
                    "--workers",
                    "--collective-timeout",
                    "--max-retries",
                    "--on-solver-failure",
                    "--jacobian",
                    "--residual-jacobian",
                    "--fd-step",
                    "--linear-solver",
                    "--frontend-threads",
                    "--cache-dir",
                ],
            )?;
            let workers = parse_num(args, "--workers", 2)?;
            if workers == 0 {
                return Err(usage_err("--workers must be at least 1"));
            }
            let collective_timeout = match flag_value(args, "--collective-timeout") {
                None => None,
                Some(v) => {
                    let secs: f64 = v.parse().map_err(|_| {
                        usage_err(format!("--collective-timeout takes seconds, got '{v}'"))
                    })?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(usage_err(format!(
                            "--collective-timeout must be a positive number of seconds, got '{v}'"
                        )));
                    }
                    Some(secs)
                }
            };
            let on_failure = match flag_value(args, "--on-solver-failure") {
                None => FailurePolicy::Penalize,
                Some(v) => v.parse().map_err(|e: String| usage_err(e))?,
            };
            let residual_jacobian = match flag_value(args, "--residual-jacobian") {
                None => ResidualJacobianMode::default(),
                Some(v) => v.parse().map_err(|e: String| usage_err(e))?,
            };
            let fd_step = match flag_value(args, "--fd-step") {
                None => None,
                Some(v) => {
                    let step: f64 = v
                        .parse()
                        .map_err(|_| usage_err(format!("--fd-step takes a number, got '{v}'")))?;
                    if !step.is_finite() || step <= 0.0 {
                        return Err(usage_err(format!(
                            "--fd-step must be a positive relative step, got '{v}'"
                        )));
                    }
                    Some(step)
                }
            };
            Ok(Command::Estimate {
                input: input(1)?,
                data_dir: flag_value(args, "--data")
                    .map(PathBuf::from)
                    .ok_or_else(|| usage_err("estimate requires --data DIR"))?,
                observe: parse_observe(args),
                workers,
                collective_timeout,
                max_retries: parse_num(args, "--max-retries", 1)?,
                on_failure,
                jacobian: parse_jacobian(args)?,
                residual_jacobian,
                fd_step,
                linear_solver: parse_linear_solver(args)?,
                frontend_threads: parse_num(args, "--frontend-threads", 0)?,
                cache_dir: parse_cache_dir(args),
            })
        }
        "serve" => {
            check_flags(
                args,
                &[
                    "--workers",
                    "--queue-capacity",
                    "--cache-dir",
                    "--memory-budget-mb",
                    "--max-retries",
                    "--retry-base-ms",
                    "--deadline-ms",
                    "--chaos-panic",
                    "--chaos-stall",
                ],
            )?;
            let workers = parse_num(args, "--workers", 2)?;
            if workers == 0 {
                return Err(usage_err("--workers must be at least 1"));
            }
            let chaos_panic = match flag_value(args, "--chaos-panic") {
                None => Vec::new(),
                Some(list) => list
                    .split(',')
                    .map(|s| {
                        s.trim().parse().map_err(|_| {
                            usage_err(format!("--chaos-panic takes sequence numbers, got '{s}'"))
                        })
                    })
                    .collect::<Result<_, _>>()?,
            };
            let chaos_stall = match flag_value(args, "--chaos-stall") {
                None => Vec::new(),
                Some(list) => list
                    .split(',')
                    .map(|pair| {
                        pair.split_once(':')
                            .and_then(|(seq, ms)| {
                                Some((seq.trim().parse().ok()?, ms.trim().parse().ok()?))
                            })
                            .ok_or_else(|| {
                                usage_err(format!("--chaos-stall takes SEQ:MS pairs, got '{pair}'"))
                            })
                    })
                    .collect::<Result<_, _>>()?,
            };
            Ok(Command::Serve {
                workers,
                queue_capacity: parse_num(args, "--queue-capacity", 32)?,
                cache_dir: parse_cache_dir(args),
                memory_budget_mb: flag_value(args, "--memory-budget-mb")
                    .map(|v| {
                        v.parse().map_err(|_| {
                            usage_err(format!("--memory-budget-mb takes a number, got '{v}'"))
                        })
                    })
                    .transpose()?,
                max_retries: parse_num(args, "--max-retries", 1)?,
                retry_base_ms: parse_num(args, "--retry-base-ms", 0)?,
                deadline_ms: flag_value(args, "--deadline-ms")
                    .map(|v| {
                        v.parse().map_err(|_| {
                            usage_err(format!("--deadline-ms takes milliseconds, got '{v}'"))
                        })
                    })
                    .transpose()?,
                chaos_panic,
                chaos_stall,
            })
        }
        other => Err(usage_err(format!("unknown subcommand '{other}'\n{USAGE}"))),
    }
}

/// Everything the CLI can ask of a compile beyond the level.
#[derive(Default)]
struct LoadOptions<'a> {
    cache_dir: Option<&'a Path>,
    dump: Option<Stage>,
    /// Run the *Deriv* stage so the artifact carries the analytic
    /// Jacobian tapes (set when `--jacobian analytic` will use them).
    deriv: bool,
    /// Also compile the parameter-sensitivity tapes (set when
    /// `--residual-jacobian analytic` will consume them).
    sensitivity: bool,
    /// Run the *Codegen* stage: emit C, invoke the system compiler and
    /// attach the dlopened kernel (set when `--engine native` or
    /// `--engine auto`). Codegen failures never fail the compile — the
    /// artifact carries a diagnostic instead.
    native: bool,
    /// Worker threads for the network-closure stage
    /// (`--frontend-threads N`; 0 = one per available core).
    frontend_threads: usize,
}

/// Compile `path` through a [`CompilerSession`]. A missing or unreadable
/// file is a runtime failure (exit 1); a model the compiler rejects is a
/// rendered, span-annotated diagnostic (exit 2).
fn load_model(
    path: &Path,
    level: OptLevel,
    opts: LoadOptions,
) -> Result<(SuiteModel, Option<String>), CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
    let filename = path.display().to_string();
    let mut session = SessionOptions::new(level);
    session.cache_dir = opts.cache_dir.map(Path::to_path_buf);
    session.dump = opts.dump;
    session.deriv = opts.deriv;
    session.sensitivity = opts.sensitivity;
    session.native = opts.native;
    session.frontend_threads = opts.frontend_threads;
    let compiled = CompilerSession::with_options(session)
        .compile_source(&filename, &source)
        .map_err(|d| CliError::Diagnostic(d.render(&filename, &source)))?;
    // Warnings (e.g. closure stopped at the generation cap while rules
    // were still growing) go to stderr and do not change the exit code.
    for warning in &compiled.artifact.warnings {
        eprintln!("{}", warning.render(&filename, &source));
    }
    Ok((SuiteModel::from_artifact(compiled.artifact), compiled.dump))
}

fn observable_or_all(model: &SuiteModel, observe: &[String]) -> Result<Vec<f64>, CliError> {
    let mut weights = vec![0.0; model.system.len()];
    if observe.is_empty() {
        weights.iter_mut().for_each(|w| *w = 1.0);
        return Ok(weights);
    }
    for name in observe {
        let idx = model
            .species_index(name)
            .ok_or_else(|| err(format!("unknown species '{name}'")))?;
        weights[idx] = 1.0;
    }
    Ok(weights)
}

/// Execute a command, returning its stdout text.
pub fn run(command: &Command) -> Result<String, CliError> {
    use std::fmt::Write;
    match command {
        Command::Help => Ok(USAGE.to_string()),
        // Streams events to stdout directly (the one command whose
        // output is unbounded and interactive); returns nothing.
        Command::Serve {
            workers,
            queue_capacity,
            cache_dir,
            memory_budget_mb,
            max_retries,
            retry_base_ms,
            deadline_ms,
            chaos_panic,
            chaos_stall,
        } => {
            let faults = if chaos_panic.is_empty() && chaos_stall.is_empty() {
                None
            } else {
                let mut plan = rms_parallel::FaultPlan::new();
                for &seq in chaos_panic {
                    plan = plan.panic_file(seq);
                }
                for &(seq, ms) in chaos_stall {
                    plan = plan.stall_file(seq, Duration::from_millis(ms));
                }
                Some(plan)
            };
            let config = rms_serve::ServerConfig {
                workers: *workers,
                queue_capacity: *queue_capacity,
                cache_dir: cache_dir.clone(),
                memory_budget: memory_budget_mb.map(|mb| mb * 1024 * 1024),
                retry: RetryPolicy {
                    max_retries: *max_retries,
                    base_delay: Duration::from_millis(*retry_base_ms),
                    ..RetryPolicy::default()
                },
                default_deadline_ms: *deadline_ms,
                faults,
            };
            rms_serve::serve_lines(std::io::stdin().lock(), std::io::stdout(), config)
                .map_err(|e| err(format!("serve transport: {e}")))?;
            Ok(String::new())
        }
        Command::Compile {
            input,
            level,
            emit,
            dump,
            frontend_threads,
            cache_dir,
        } => {
            let (model, dumped) = load_model(
                input,
                *level,
                LoadOptions {
                    cache_dir: cache_dir.as_deref(),
                    dump: *dump,
                    // The report covers the compile `simulate` does.
                    deriv: *dump == Some(Stage::Deriv) || *emit == Emit::Report,
                    sensitivity: false,
                    native: *dump == Some(Stage::Codegen),
                    frontend_threads: *frontend_threads,
                },
            )?;
            if dump.is_some() {
                return Ok(dumped.unwrap_or_else(|| {
                    format!("(stage {} did not run at level {level})\n", dump.unwrap())
                }));
            }
            Ok(match emit {
                Emit::Network => model.network.display_equations(),
                Emit::Odes => model.system.display(),
                Emit::C => model.emit_native_c(),
                Emit::Report => {
                    let mut json = model.report.to_json();
                    json.push('\n');
                    json
                }
                Emit::Conservation => {
                    let laws = rms_odegen::conservation_laws(&model.network);
                    let mut out = String::new();
                    let _ = writeln!(out, "{} conservation law(s) (w . y = const):", laws.len());
                    for (i, w) in laws.iter().enumerate() {
                        let _ = write!(out, "  law {i}: ");
                        let mut first = true;
                        for (j, &coeff) in w.iter().enumerate() {
                            if coeff == 0.0 {
                                continue;
                            }
                            let name = model
                                .network
                                .species(rms_rdl::SpeciesId(j as u32))
                                .name
                                .clone();
                            if !first {
                                let _ = write!(out, " + ");
                            }
                            if (coeff - 1.0).abs() < 1e-9 {
                                let _ = write!(out, "[{name}]");
                            } else {
                                let _ = write!(out, "{coeff:.3}*[{name}]");
                            }
                            first = false;
                        }
                        let _ = writeln!(out);
                    }
                    out
                }
                Emit::Stats => {
                    let s = model.compiled.stages;
                    let mut out = String::new();
                    let _ = writeln!(
                        out,
                        "species: {}  reactions: {}  distinct rates: {}",
                        model.network.species_count(),
                        model.network.reaction_count(),
                        model.rates.distinct_count()
                    );
                    let _ = writeln!(out, "level: {level}");
                    let _ = writeln!(out, "input ops:        {}", s.input);
                    let _ = writeln!(out, "after simplify:   {}", s.after_simplify);
                    let _ = writeln!(out, "after distribute: {}", s.after_distribute);
                    let _ = writeln!(out, "after CSE:        {}", s.after_cse);
                    let _ = writeln!(
                        out,
                        "tape: {} instrs, {} registers ({:.1}% of input ops remain)",
                        model.compiled.tape.len(),
                        model.compiled.tape.n_regs,
                        100.0 * model.compiled.remaining_fraction()
                    );
                    out
                }
            })
        }
        Command::Simulate {
            input,
            level,
            tend,
            steps,
            observe,
            jacobian,
            linear_solver,
            engine,
            frontend_threads,
            cache_dir,
        } => {
            let (model, _) = load_model(
                input,
                *level,
                LoadOptions {
                    cache_dir: cache_dir.as_deref(),
                    deriv: *jacobian == JacobianMode::Analytic,
                    native: engine.wants_native(),
                    frontend_threads: *frontend_threads,
                    ..LoadOptions::default()
                },
            )?;
            let times: Vec<f64> = (1..=*steps)
                .map(|i| tend * i as f64 / *steps as f64)
                .collect();
            let options = SolverOptions {
                linear_solver: *linear_solver,
                ..SolverOptions::default()
            };
            let mut out = String::new();
            // The engine that runs is the artifact's choice, not the flag.
            // A native request without a kernel says why and runs on the
            // stand-in anyway (exit 0 — degradation, not failure); `auto`
            // records what it picked, so the choice is auditable from the
            // output.
            let choice = model.kernel(*engine);
            if choice.degraded {
                let _ = writeln!(out, "warning: {}", choice.reason);
                let _ = writeln!(out, "warning: falling back to the {} engine", choice.engine);
            } else if choice.engine != *engine {
                let _ = writeln!(out, "engine: {} ({})", choice.engine, choice.reason);
            }
            let solution = model
                .simulate_configured(&times, options, *jacobian, *engine)
                .map_err(|e| err(format!("solver: {e}")))?;
            let names: Vec<String> = if observe.is_empty() {
                model
                    .network
                    .species_iter()
                    .map(|(_, sp)| sp.name.clone())
                    .collect()
            } else {
                observe.clone()
            };
            let indices: Vec<usize> = names
                .iter()
                .map(|n| {
                    model
                        .species_index(n)
                        .ok_or_else(|| err(format!("unknown species '{n}'")))
                })
                .collect::<Result<_, _>>()?;
            let _ = write!(out, "{:>10}", "t");
            for n in &names {
                let _ = write!(out, "{n:>16}");
            }
            let _ = writeln!(out);
            for (t, y) in times.iter().zip(&solution) {
                let _ = write!(out, "{t:>10.4}");
                for &i in &indices {
                    let _ = write!(out, "{:>16.8}", y[i]);
                }
                let _ = writeln!(out);
            }
            Ok(out)
        }
        Command::Synthesize {
            input,
            observe,
            out_dir,
            files,
            records,
            tend,
        } => {
            let (model, _) = load_model(input, OptLevel::Full, LoadOptions::default())?;
            let weights = observable_or_all(&model, observe)?;
            let simulator = crate::TapeSimulator::from_artifact(model.artifact(), weights);
            let rates = model.system.rate_values.clone();
            let data = crate::workload::synthesize(
                &simulator,
                &rates,
                crate::workload::ExpDataSpec {
                    n_files: *files,
                    records: *records,
                    base_horizon: *tend,
                    horizon_skew: 0.25,
                    noise: 1e-3,
                    seed: 2007,
                },
            )
            .map_err(|e| err(format!("synthesis: {e}")))?;
            std::fs::create_dir_all(out_dir)
                .map_err(|e| err(format!("cannot create {}: {e}", out_dir.display())))?;
            let mut out = String::new();
            for file in &data {
                let path = out_dir.join(format!("{}.dat", file.label));
                file.write(&path)
                    .map_err(|e| err(format!("write {}: {e}", path.display())))?;
                let _ = writeln!(out, "wrote {} ({} records)", path.display(), file.len());
            }
            Ok(out)
        }
        Command::Estimate {
            input,
            data_dir,
            observe,
            workers,
            collective_timeout,
            max_retries,
            on_failure,
            jacobian,
            residual_jacobian,
            fd_step,
            linear_solver,
            frontend_threads,
            cache_dir,
        } => {
            let (model, _) = load_model(
                input,
                OptLevel::Full,
                LoadOptions {
                    cache_dir: cache_dir.as_deref(),
                    deriv: *jacobian == JacobianMode::Analytic,
                    sensitivity: *residual_jacobian == ResidualJacobianMode::Analytic,
                    frontend_threads: *frontend_threads,
                    ..LoadOptions::default()
                },
            )?;
            let weights = observable_or_all(&model, observe)?;
            // `--jacobian analytic` compiled the Deriv stage, so the
            // artifact already carries the tapes the simulator attaches.
            let mut simulator = crate::TapeSimulator::from_artifact(model.artifact(), weights);
            simulator.set_jacobian_mode(*jacobian);
            simulator.set_linear_solver(*linear_solver);
            // Load every .dat file, sorted by name for determinism.
            let mut paths: Vec<PathBuf> = std::fs::read_dir(data_dir)
                .map_err(|e| err(format!("cannot read {}: {e}", data_dir.display())))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "dat"))
                .collect();
            paths.sort();
            if paths.is_empty() {
                return Err(err(format!("no .dat files in {}", data_dir.display())));
            }
            let data: Vec<ExperimentFile> = paths
                .iter()
                .map(|p| ExperimentFile::read(p).map_err(|e| err(format!("{}: {e}", p.display()))))
                .collect::<Result<_, _>>()?;

            if *workers == 0 {
                return Err(err("--workers must be at least 1"));
            }
            let config = EstimatorConfig {
                dynamic_lb: true,
                retry: RetryPolicy::with_max_retries(*max_retries),
                on_failure: *on_failure,
                collective_timeout: collective_timeout.map(Duration::from_secs_f64),
                ..EstimatorConfig::default()
            };
            let estimator = ParallelEstimator::with_config(&simulator, data, *workers, config);
            let names: Vec<String> = (0..model.rates.distinct_count())
                .map(|i| {
                    model
                        .rates
                        .canonical_name(rms_rcip::RateId(i as u32))
                        .to_string()
                })
                .collect();
            let start = model.system.rate_values.clone();
            let (lo, hi) = model.rates.bounds_vectors();
            // The residual is an adaptive ODE solve, so its
            // finite-difference noise floor sits near the solver
            // tolerance: derive the default step from it (√rtol) rather
            // than LmOptions' analytically-smooth √ε default.
            let step = fd_step.unwrap_or_else(|| simulator.options.rtol.sqrt());
            let options = LmOptions {
                max_iters: 60,
                fd_step: step,
                ..LmOptions::default()
            };
            let result = estimator
                .estimate_with_jacobian(&start, &lo, &hi, options, *residual_jacobian)
                .map_err(|e| err(format!("estimation: {e}")))?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "converged: {:?} after {} iterations, {} residual evals, {} Jacobian builds ({residual_jacobian})",
                result.stop, result.iterations, result.fevals, result.jevals
            );
            let _ = writeln!(out, "{:<14} {:>12} {:>12}", "parameter", "start", "fitted");
            for (i, name) in names.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{name:<14} {:>12.6} {:>12.6}",
                    start[i], result.params[i]
                );
            }
            let _ = writeln!(out, "final cost: {:.6e}", result.cost);
            // Statistical information (Fig. 2's dashed component).
            struct Wrap<'a, S: crate::Simulator> {
                estimator: &'a ParallelEstimator<'a, S>,
                n: usize,
                m: usize,
            }
            impl<S: crate::Simulator> rms_nlopt::Residual for Wrap<'_, S> {
                fn n_params(&self) -> usize {
                    self.n
                }
                fn n_residuals(&self) -> usize {
                    self.m
                }
                fn eval(&self, p: &[f64], out: &mut [f64]) -> Result<(), String> {
                    let o = self.estimator.objective(p).map_err(|e| e.to_string())?;
                    out.copy_from_slice(&o.error_vector);
                    Ok(())
                }
            }
            let wrap = Wrap {
                estimator: &estimator,
                n: start.len(),
                m: result.residuals.len(),
            };
            if let Ok(stats) = FitStatistics::evaluate_bounded(
                &wrap,
                &result.params,
                None,
                &lo,
                &hi,
                options.fd_step,
            ) {
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let _ = writeln!(out, "{}", stats.report(&name_refs));
            }
            // Degradation telemetry: silent when the run was clean.
            let health = estimator.cumulative_health();
            if !health.is_healthy() {
                let _ = write!(out, "{}", health.summary());
            }
            let fallback = simulator.fallback_stats();
            if fallback.bdf_failures > 0 {
                let _ = writeln!(
                    out,
                    "solver fallback: {} BDF failure(s), {} recovered by tightened tolerances, {} by RK45",
                    fallback.bdf_failures,
                    fallback.tightened_recoveries,
                    fallback.rk45_recoveries
                );
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn serve_args_parse_with_chaos_hooks() {
        let cmd = parse_args(&argv(
            "serve --workers 4 --queue-capacity 8 --deadline-ms 500 \
             --max-retries 2 --retry-base-ms 10 --memory-budget-mb 64 \
             --chaos-panic 1,3 --chaos-stall 0:200,2:50",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                workers,
                queue_capacity,
                memory_budget_mb,
                max_retries,
                retry_base_ms,
                deadline_ms,
                chaos_panic,
                chaos_stall,
                ..
            } => {
                assert_eq!(workers, 4);
                assert_eq!(queue_capacity, 8);
                assert_eq!(memory_budget_mb, Some(64));
                assert_eq!(max_retries, 2);
                assert_eq!(retry_base_ms, 10);
                assert_eq!(deadline_ms, Some(500));
                assert_eq!(chaos_panic, vec![1, 3]);
                assert_eq!(chaos_stall, vec![(0, 200), (2, 50)]);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(matches!(
            parse_args(&argv("serve --bogus 1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("serve --chaos-stall 3")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&argv("serve --workers 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn a_flag_without_its_value_is_a_usage_error_in_every_subcommand() {
        for (line, flag) in [
            ("compile m.rdl --emit c --level", "--level"),
            ("compile-report m.rdl --cache-dir", "--cache-dir"),
            ("simulate m.rdl --steps 2 --tend", "--tend"),
            ("synthesize m.rdl --out d --records", "--records"),
            ("estimate m.rdl --data d --workers", "--workers"),
            ("serve --queue-capacity 8 --deadline-ms", "--deadline-ms"),
            // Not only in last position: the next flag is not a value.
            ("simulate m.rdl --tend --steps 2", "--tend"),
            ("estimate m.rdl --data --observe A", "--data"),
        ] {
            match parse_args(&argv(line)) {
                Err(CliError::Usage(message)) => {
                    assert_eq!(message, format!("option '{flag}' takes a value"), "{line}")
                }
                other => panic!("{line}: {other:?}"),
            }
        }
        // A negative number is a value, whatever the subcommand then
        // makes of it.
        assert!(parse_args(&argv("simulate m.rdl --tend -1")).is_ok());
    }

    const MODEL: &str = r#"
        rate K_sc = 2;
        molecule DiS = "CSSC" init 1.0;
        rule scission {
            site bond S ~ S order single;
            action disconnect;
            rate K_sc;
        }
    "#;

    fn write_model(dir: &Path) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("model.rdl");
        std::fs::write(&path, MODEL).unwrap();
        path
    }

    #[test]
    fn parse_compile_variants() {
        let cmd = parse_args(&argv("compile m.rdl --level algebraic --emit c")).unwrap();
        assert_eq!(
            cmd,
            Command::Compile {
                input: PathBuf::from("m.rdl"),
                level: OptLevel::Algebraic,
                emit: Emit::C,
                dump: None,
                frontend_threads: 0,
                cache_dir: None,
            }
        );
        // compile-report is sugar for compile --emit report.
        let cmd = parse_args(&argv("compile-report m.rdl --cache-dir .rms-cache")).unwrap();
        assert_eq!(
            cmd,
            Command::Compile {
                input: PathBuf::from("m.rdl"),
                level: OptLevel::Full,
                emit: Emit::Report,
                dump: None,
                frontend_threads: 0,
                cache_dir: Some(PathBuf::from(".rms-cache")),
            }
        );
        // --dump-ir takes a stage name; bad names are usage errors.
        match parse_args(&argv("compile m.rdl --dump-ir cse")).unwrap() {
            Command::Compile { dump, .. } => assert_eq!(dump, Some(Stage::Cse)),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&argv("compile m.rdl --dump-ir bogus")).is_err());
        assert!(parse_args(&argv("compile m.rdl --emit bogus")).is_err());
        assert!(parse_args(&argv("compile")).is_err());
        assert!(parse_args(&argv("frobnicate x")).is_err());
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn compile_and_simulate_real_model() {
        let dir = std::env::temp_dir().join("rmsc_cli_test");
        let model = write_model(&dir);
        let model_arg = model.display().to_string();

        let out =
            run(&parse_args(&argv(&format!("compile {model_arg} --emit stats"))).unwrap()).unwrap();
        assert!(out.contains("distinct rates: 1"), "{out}");

        let out =
            run(&parse_args(&argv(&format!("compile {model_arg} --emit c"))).unwrap()).unwrap();
        assert!(out.contains("void ode_rhs"), "{out}");

        let out = run(&parse_args(&argv(&format!(
            "simulate {model_arg} --tend 0.5 --steps 4 --observe DiS"
        )))
        .unwrap())
        .unwrap();
        assert_eq!(out.lines().count(), 5, "{out}");
        assert!(out.contains("DiS"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthesize_then_estimate_round_trip() {
        let dir = std::env::temp_dir().join("rmsc_cli_estimate");
        std::fs::remove_dir_all(&dir).ok();
        let model = write_model(&dir);
        let model_arg = model.display().to_string();
        let data_dir = dir.join("data");
        let data_arg = data_dir.display().to_string();

        let out = run(&parse_args(&argv(&format!(
            "synthesize {model_arg} --out {data_arg} --files 4 --records 20 --tend 0.5"
        )))
        .unwrap())
        .unwrap();
        assert_eq!(out.lines().count(), 4, "{out}");

        let estimate = |workers: usize| {
            run(&parse_args(&argv(&format!(
                "estimate {model_arg} --data {data_arg} --workers {workers}"
            )))
            .unwrap())
            .unwrap()
        };
        let out = estimate(4);
        assert!(out.contains("K_sc"), "{out}");
        assert!(out.contains("final cost"), "{out}");
        // More workers than files is four ranks again, not 64 threads.
        assert_eq!(estimate(64), out);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_reported() {
        let cmd = parse_args(&argv("compile /definitely/not/here.rdl")).unwrap();
        let result = run(&cmd);
        assert!(result.is_err());
        let error = result.unwrap_err();
        assert!(error.message().contains("cannot read"));
        // A missing file is a runtime failure (exit 1), not a usage error.
        assert_eq!(error.exit_code(), 1);
    }

    #[test]
    fn malformed_model_renders_spanned_diagnostic() {
        let dir = std::env::temp_dir().join("rmsc_cli_diag");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.rdl");
        std::fs::write(&path, "molecule = ;\n").unwrap();
        let cmd = parse_args(&argv(&format!("compile {}", path.display()))).unwrap();
        let error = run(&cmd).unwrap_err();
        // Rejected input exits 2 with a rendered, caret-annotated span.
        assert_eq!(error.exit_code(), 2);
        assert!(error.message().starts_with("error[parse]:"), "{error}");
        assert!(error.message().contains("bad.rdl:1:"), "{error}");
        assert!(error.message().contains('^'), "{error}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compile_report_emits_pipeline_json() {
        let dir = std::env::temp_dir().join("rmsc_cli_report");
        let model = write_model(&dir);
        let out = run(&parse_args(&argv(&format!("compile-report {}", model.display()))).unwrap())
            .unwrap();
        assert!(out.contains("\"stages\""), "{out}");
        assert!(out.contains("\"stage\":\"parse\""), "{out}");
        assert!(out.contains("\"counts\""), "{out}");
        // The Deriv stage says what the sparse-Newton analysis found and
        // cost, and which way `--linear-solver auto` will go on it.
        assert!(out.contains("\"stage\":\"deriv\""), "{out}");
        for metric in [
            "lu_fill_nnz",
            "lu_factor_macs",
            "dense_factor_macs",
            "sparse_newton",
            "symbolic_seconds",
            "diff_seconds",
            "cse_seconds",
            "lower_seconds",
        ] {
            assert!(out.contains(&format!("\"{metric}\"")), "{metric}: {out}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_ir_prints_the_requested_stage() {
        let dir = std::env::temp_dir().join("rmsc_cli_dump");
        let model = write_model(&dir);
        let model_arg = model.display().to_string();
        let out =
            run(&parse_args(&argv(&format!("compile {model_arg} --dump-ir odegen"))).unwrap())
                .unwrap();
        assert!(out.contains("d["), "{out}");
        let out = run(&parse_args(&argv(&format!("compile {model_arg} --dump-ir lower"))).unwrap())
            .unwrap();
        assert!(out.contains("; tape:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_dir_round_trips_through_cli() {
        let dir = std::env::temp_dir().join("rmsc_cli_cache");
        std::fs::remove_dir_all(&dir).ok();
        let model = write_model(&dir);
        let cache = dir.join("cache");
        let cmd = format!(
            "compile {} --emit stats --cache-dir {}",
            model.display(),
            cache.display()
        );
        let first = run(&parse_args(&argv(&cmd)).unwrap()).unwrap();
        // The artifact landed on disk and a recompile agrees.
        assert!(std::fs::read_dir(&cache).unwrap().count() > 0);
        let second = run(&parse_args(&argv(&cmd)).unwrap()).unwrap();
        assert_eq!(first, second);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn estimate_flags_parse_and_validate() {
        let cmd = parse_args(&argv(
            "estimate m.rdl --data d --workers 3 --collective-timeout 2.5 \
             --max-retries 4 --on-solver-failure abort",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Estimate {
                input: PathBuf::from("m.rdl"),
                data_dir: PathBuf::from("d"),
                observe: vec![],
                workers: 3,
                collective_timeout: Some(2.5),
                max_retries: 4,
                on_failure: FailurePolicy::Abort,
                jacobian: JacobianMode::Analytic,
                linear_solver: LinearSolver::Auto,
                frontend_threads: 0,
                cache_dir: None,
                residual_jacobian: ResidualJacobianMode::Analytic,
                fd_step: None,
            }
        );
        // Defaults: 2 workers, no deadline, 1 retry, penalize, analytic.
        let cmd = parse_args(&argv("estimate m.rdl --data d")).unwrap();
        assert_eq!(
            cmd,
            Command::Estimate {
                input: PathBuf::from("m.rdl"),
                data_dir: PathBuf::from("d"),
                observe: vec![],
                workers: 2,
                collective_timeout: None,
                max_retries: 1,
                on_failure: FailurePolicy::Penalize,
                jacobian: JacobianMode::Analytic,
                linear_solver: LinearSolver::Auto,
                frontend_threads: 0,
                cache_dir: None,
                residual_jacobian: ResidualJacobianMode::Analytic,
                fd_step: None,
            }
        );
        // The residual-Jacobian mode and FD step are tunable.
        match parse_args(&argv(
            "estimate m.rdl --data d --residual-jacobian fd --fd-step 5e-4",
        ))
        .unwrap()
        {
            Command::Estimate {
                residual_jacobian,
                fd_step,
                ..
            } => {
                assert_eq!(residual_jacobian, ResidualJacobianMode::Fd);
                assert_eq!(fd_step, Some(5e-4));
            }
            other => panic!("{other:?}"),
        }
        // Malformed invocations are usage errors (exit 2).
        for bad in [
            "estimate m.rdl --data d --workers 0",
            "estimate m.rdl --data d --collective-timeout -3",
            "estimate m.rdl --data d --collective-timeout soon",
            "estimate m.rdl --data d --on-solver-failure shrug",
            "estimate m.rdl --data d --max-retries many",
            // Typo'd flags must not be silently ignored.
            "estimate m.rdl --data d --collective-timeut 3",
            "simulate m.rdl --setps 5",
            "compile m.rdl --emti odes",
            // Bad --jacobian values are usage errors too.
            "simulate m.rdl --jacobian newton",
            "estimate m.rdl --data d --jacobian sparse",
            // ... and bad --engine values.
            "simulate m.rdl --engine jit",
            // ... and bad --linear-solver values.
            "simulate m.rdl --linear-solver cholesky",
            "estimate m.rdl --data d --linear-solver qr",
            // ... and bad residual-Jacobian flags.
            "estimate m.rdl --data d --residual-jacobian wrong",
            "estimate m.rdl --data d --fd-step nope",
            "estimate m.rdl --data d --fd-step -1",
            "simulate m.rdl --residual-jacobian analytic",
        ] {
            let error = parse_args(&argv(bad)).unwrap_err();
            assert_eq!(error.exit_code(), 2, "{bad}: {error}");
            assert!(!error.message().is_empty());
        }
        // --help anywhere shows usage rather than an unknown-option error.
        assert_eq!(parse_args(&argv("estimate --help")).unwrap(), Command::Help);
    }

    #[test]
    fn jacobian_flag_parses_on_both_subcommands() {
        // simulate defaults to the compiled tapes (what a simulator built
        // from a Deriv artifact picks itself); estimate to colored FD.
        match parse_args(&argv("simulate m.rdl")).unwrap() {
            Command::Simulate { jacobian, .. } => assert_eq!(jacobian, JacobianMode::Analytic),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("simulate m.rdl --jacobian fd-dense")).unwrap() {
            Command::Simulate { jacobian, .. } => assert_eq!(jacobian, JacobianMode::FdDense),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("estimate m.rdl --data d --jacobian analytic")).unwrap() {
            Command::Estimate { jacobian, .. } => assert_eq!(jacobian, JacobianMode::Analytic),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("estimate m.rdl --data d --jacobian fd-dense")).unwrap() {
            Command::Estimate { jacobian, .. } => assert_eq!(jacobian, JacobianMode::FdDense),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn linear_solver_flag_parses_on_both_subcommands() {
        // Both subcommands default to auto.
        match parse_args(&argv("simulate m.rdl")).unwrap() {
            Command::Simulate { linear_solver, .. } => {
                assert_eq!(linear_solver, LinearSolver::Auto)
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("simulate m.rdl --linear-solver sparse")).unwrap() {
            Command::Simulate { linear_solver, .. } => {
                assert_eq!(linear_solver, LinearSolver::Sparse)
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("simulate m.rdl --linear-solver dense")).unwrap() {
            Command::Simulate { linear_solver, .. } => {
                assert_eq!(linear_solver, LinearSolver::Dense)
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("estimate m.rdl --data d --linear-solver sparse")).unwrap() {
            Command::Estimate { linear_solver, .. } => {
                assert_eq!(linear_solver, LinearSolver::Sparse)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn engine_flag_parses_with_exec_default() {
        match parse_args(&argv("simulate m.rdl")).unwrap() {
            Command::Simulate { engine, .. } => assert_eq!(engine, EngineMode::Exec),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("simulate m.rdl --engine interp")).unwrap() {
            Command::Simulate { engine, .. } => assert_eq!(engine, EngineMode::Interp),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("simulate m.rdl --engine exec")).unwrap() {
            Command::Simulate { engine, .. } => assert_eq!(engine, EngineMode::Exec),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("simulate m.rdl --engine auto")).unwrap() {
            Command::Simulate { engine, .. } => assert_eq!(engine, EngineMode::Auto),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frontend_threads_flag_parses_everywhere() {
        // Defaults to 0 (one thread per core) on every subcommand.
        match parse_args(&argv("compile m.rdl")).unwrap() {
            Command::Compile {
                frontend_threads, ..
            } => assert_eq!(frontend_threads, 0),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("compile m.rdl --frontend-threads 4")).unwrap() {
            Command::Compile {
                frontend_threads, ..
            } => assert_eq!(frontend_threads, 4),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("compile-report m.rdl --frontend-threads 2")).unwrap() {
            Command::Compile {
                frontend_threads, ..
            } => assert_eq!(frontend_threads, 2),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("simulate m.rdl --frontend-threads 8")).unwrap() {
            Command::Simulate {
                frontend_threads, ..
            } => assert_eq!(frontend_threads, 8),
            other => panic!("{other:?}"),
        }
        match parse_args(&argv("estimate m.rdl --data d --frontend-threads 1")).unwrap() {
            Command::Estimate {
                frontend_threads, ..
            } => assert_eq!(frontend_threads, 1),
            other => panic!("{other:?}"),
        }
        // Non-numeric values are usage errors (exit 2).
        let error = parse_args(&argv("compile m.rdl --frontend-threads lots")).unwrap_err();
        assert_eq!(error.exit_code(), 2);
    }

    #[test]
    fn opt_reroll_flag_is_a_usage_error() {
        // The flag went with the emission forms it selected; like any
        // unknown option it is refused, not silently ignored.
        for bad in [
            "simulate m.rdl --opt reroll=off",
            "compile m.rdl --opt reroll=on",
        ] {
            let error = parse_args(&argv(bad)).unwrap_err();
            assert!(matches!(error, CliError::Usage(_)), "{bad}: {error:?}");
            assert_eq!(error.exit_code(), 2, "{bad}");
        }
    }

    #[test]
    fn simulate_engines_print_identical_tables() {
        let dir = std::env::temp_dir().join("rmsc_cli_engine");
        let model = write_model(&dir);
        let model_arg = model.display().to_string();
        let base = format!("simulate {model_arg} --tend 0.5 --steps 4 --observe DiS");
        let exec = run(&parse_args(&argv(&base)).unwrap()).unwrap();
        let interp = run(&parse_args(&argv(&format!("{base} --engine interp"))).unwrap()).unwrap();
        // Without FMA contraction the engines are bitwise identical;
        // with it, step-size decisions could in principle drift, so only
        // the table shape is checked.
        if crate::FMA_CONTRACTS {
            assert_eq!(exec.lines().count(), interp.lines().count());
        } else {
            assert_eq!(exec, interp);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_engine_auto_reports_its_choice() {
        let dir = std::env::temp_dir().join("rmsc_cli_engine_auto");
        let model = write_model(&dir);
        let model_arg = model.display().to_string();
        let base = format!("simulate {model_arg} --tend 0.5 --steps 4 --observe DiS");
        let auto = run(&parse_args(&argv(&format!("{base} --engine auto"))).unwrap()).unwrap();
        // The first line states which engine auto picked and why; the
        // table below it has the same shape as an explicit-engine run.
        let first = auto.lines().next().unwrap();
        assert!(first.starts_with("engine: "), "{first}");
        assert!(first.contains("auto"), "{first}");
        let exec = run(&parse_args(&argv(&base)).unwrap()).unwrap();
        assert_eq!(auto.lines().count(), exec.lines().count() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_jacobian_modes_print_the_same_table_shape() {
        let dir = std::env::temp_dir().join("rmsc_cli_jacobian");
        let model = write_model(&dir);
        let model_arg = model.display().to_string();
        let base = format!("simulate {model_arg} --tend 0.5 --steps 4 --observe DiS");
        let analytic = run(&parse_args(&argv(&base)).unwrap()).unwrap();
        let dense =
            run(&parse_args(&argv(&format!("{base} --jacobian fd-dense"))).unwrap()).unwrap();
        let colored =
            run(&parse_args(&argv(&format!("{base} --jacobian fd-colored"))).unwrap()).unwrap();
        // Identical table shape, values within solver tolerance of each
        // other (they agree to the printed precision on this tiny model).
        assert_eq!(dense.lines().count(), analytic.lines().count());
        assert_eq!(dense.lines().count(), colored.lines().count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_species_reported() {
        let dir = std::env::temp_dir().join("rmsc_cli_species");
        let model = write_model(&dir);
        let cmd = parse_args(&argv(&format!(
            "simulate {} --observe Unobtainium",
            model.display()
        )))
        .unwrap();
        let result = run(&cmd);
        assert!(result.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
