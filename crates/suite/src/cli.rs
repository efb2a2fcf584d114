//! The `rmsc` command-line driver: compile, inspect, simulate, and fit
//! RDL models from the shell. All logic lives here (pure functions over
//! parsed arguments) so it is unit-testable; `src/bin/rmsc.rs` is a thin
//! wrapper. Each subcommand's flags are declared once, in the
//! `SUBCOMMANDS` table: it parses and validates an argument vector, and
//! renders `rmsc help` and README's flag tables.

use std::any::Any;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use rms_nlopt::{FitStatistics, FnResidual};
use rms_parallel::{EstimatorConfig, ExperimentFile, FailurePolicy};

use crate::{
    CacheMode, Compiled, CompiledArtifact, CompilerSession, LmOptions, OptLevel, ParallelEstimator,
    SessionOptions, Stage, TapeSimulator,
};

/// A parsed CLI invocation. A field holds its flag's value, or the
/// flag's default (`input` is the operand); `rmsc help` says what each
/// flag means.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `rmsc compile` (and `compile-report`, which is `--emit report`):
    /// compile an RDL file and print one of its artifacts.
    Compile {
        input: PathBuf,
        level: OptLevel,
        emit: Emit,
        /// `--dump-ir`: print this stage's IR instead of `emit`.
        dump: Option<Stage>,
        cache_dir: Option<PathBuf>,
    },
    /// `rmsc simulate`: integrate the model and print a concentration
    /// table (`observe` empty: every species).
    Simulate {
        input: PathBuf,
        level: OptLevel,
        tend: f64,
        steps: usize,
        observe: Vec<String>,
        /// `--engine native`: compile the kernel to machine code too.
        native: bool,
        cache_dir: Option<PathBuf>,
    },
    /// `rmsc synthesize`: write experiment files from the model's nominal
    /// kinetics.
    Synthesize {
        input: PathBuf,
        observe: Vec<String>,
        out_dir: PathBuf,
        files: usize,
        records: usize,
        tend: f64,
    },
    /// `rmsc estimate`: fit the model's bounded rate constants to
    /// experiment files.
    Estimate {
        input: PathBuf,
        data_dir: PathBuf,
        observe: Vec<String>,
        workers: usize,
        on_failure: FailurePolicy,
        cache_dir: Option<PathBuf>,
    },
    /// `rmsc serve`: run the line-delimited JSON job server on
    /// stdin/stdout.
    Serve {
        workers: usize,
        queue_capacity: usize,
        cache_dir: Option<PathBuf>,
        memory_budget_mb: Option<u64>,
        deadline_ms: Option<u64>,
        chaos_panic: Vec<usize>,
        /// `(sequence, ms)` pairs.
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
    /// The generated native kernel source (RHS, analytic Jacobian,
    /// sensitivity tail).
    C,
    /// Optimizer stage statistics.
    Stats,
    /// Per element, its count in every species, or the rules that change
    /// its total.
    Conservation,
    /// The staged pipeline report as JSON.
    Report,
}

impl FromStr for Emit {
    type Err = String;

    fn from_str(s: &str) -> Result<Emit, String> {
        Ok(match s {
            "network" => Emit::Network,
            "odes" => Emit::Odes,
            "c" => Emit::C,
            "stats" => Emit::Stats,
            "conservation" => Emit::Conservation,
            "report" => Emit::Report,
            other => return Err(format!("unknown --emit '{other}'")),
        })
    }
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

/// One declared flag; every flag takes a value.
struct Flag {
    name: &'static str,
    /// Placeholder for the value: `N`, `DIR`, or the choices.
    value: &'static str,
    /// The value an absent flag stands for, as text — or, for a flag
    /// read with [`Args::opt`], a word for what absence means (`none`,
    /// `all`, [`REQUIRED`]).
    default: &'static str,
    meaning: &'static str,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    default: &'static str,
    meaning: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        default,
        meaning,
    }
}

impl Flag {
    fn synopsis(&self) -> String {
        format!("{} {}", self.name, self.value)
    }
}

const REQUIRED: &str = "required";

/// One subcommand: its operand, then its flags in synopsis order.
struct Subcommand {
    name: &'static str,
    operand: Option<&'static str>,
    flags: &'static [Flag],
}

const MODEL: Option<&str> = Some("<model.rdl>");
#[rustfmt::skip]
const LEVEL: Flag = flag("--level", "none|simplify|algebraic|full", "full", "optimization level");
const CACHE_DIR: Flag = flag("--cache-dir", "DIR", "none", "on-disk artifact cache");

/// Every subcommand but `help`: what [`parse_args`] accepts, what
/// [`usage`] lists and what README's flag tables show. One flag a line.
#[rustfmt::skip]
static SUBCOMMANDS: [Subcommand; 6] = [
    Subcommand { name: "compile", operand: MODEL, flags: &[
        LEVEL,
        flag("--emit", "network|odes|c|stats|conservation|report", "stats", "what to print"),
        flag("--dump-ir", "STAGE", "none", "print this stage's IR instead, and exit"),
        CACHE_DIR,
    ] },
    Subcommand { name: "compile-report", operand: MODEL, flags: &[
        LEVEL,
        CACHE_DIR,
    ] },
    Subcommand { name: "simulate", operand: MODEL, flags: &[
        flag("--tend", "T", "1", "final time"),
        flag("--steps", "N", "10", "output rows, equally spaced"),
        flag("--observe", "A,B,...", "all", "species to print"),
        LEVEL,
        flag("--engine", "exec|native", "exec", "kernel the solve runs"),
        CACHE_DIR,
    ] },
    Subcommand { name: "synthesize", operand: MODEL, flags: &[
        flag("--observe", "A,B,...", "all", "species summed into the measured property"),
        flag("--out", "DIR", REQUIRED, "directory for the formulation_XX.dat files"),
        flag("--files", "N", "16", "experiment files"),
        flag("--records", "N", "200", "records per file"),
        flag("--tend", "T", "2", "cure horizon"),
    ] },
    Subcommand { name: "estimate", operand: MODEL, flags: &[
        flag("--data", "DIR", REQUIRED, "directory of .dat files"),
        flag("--observe", "A,B,...", "all", "species summed into the observable"),
        flag("--workers", "N", "2", "ranks of the thread-backed SPMD cluster"),
        flag("--on-solver-failure", "penalize|abort", "penalize", "what a file whose solve failed does"),
        CACHE_DIR,
    ] },
    Subcommand { name: "serve", operand: None, flags: &[
        flag("--workers", "N", "2", "worker threads executing jobs"),
        flag("--queue-capacity", "N", "32", "admission-queue bound"),
        CACHE_DIR,
        flag("--memory-budget-mb", "N", "none", "in-memory artifact cache budget (LRU)"),
        flag("--deadline-ms", "MS", "none", "deadline of a job that carries none"),
        flag("--chaos-panic", "SEQ,SEQ,...", "none", "admitted jobs that panic (testing)"),
        flag("--chaos-stall", "SEQ:MS,SEQ:MS,...", "none", "stalls injected into jobs (testing)"),
    ] },
];

/// Usage text: the synopsis rendered from `SUBCOMMANDS` — every flag
/// with its default and meaning — then the longer explanations.
pub fn usage() -> String {
    use std::fmt::Write;
    let widest = |cell: fn(&Flag) -> String| {
        let cells = SUBCOMMANDS.iter().flat_map(|sub| sub.flags).map(cell);
        cells.map(|c| c.chars().count()).max().unwrap_or(0)
    };
    let (width, dwidth) = (widest(Flag::synopsis), widest(|f| f.default.into()));
    let mut out = String::from("rmsc — Reaction Modeling Suite driver\n\nUSAGE:\n");
    for sub in &SUBCOMMANDS {
        let operand = sub.operand.map_or(String::new(), |o| format!(" {o}"));
        let _ = writeln!(out, "  rmsc {}{operand}", sub.name);
        for f in sub.flags {
            let (synopsis, default) = (f.synopsis(), f.default);
            let _ = writeln!(
                out,
                "      {synopsis:<width$}  {default:<dwidth$}  {}",
                f.meaning
            );
        }
    }
    out + "  rmsc help\n\n" + NOTES
}

/// What one line per flag cannot say; README.md says it at length.
const NOTES: &str = "\
'serve' reads one JSON job request per stdin line and streams events
(accepted, result, error, drained) to stdout (DESIGN.md §12). The
--chaos-* flags inject panics/stalls into the jobs with those admission
sequence numbers (testing only).

'compile-report' ('compile --emit report') prints the pipeline report
as JSON: per-stage wall time, artifact sizes and the optimizer's
operation counts (Table 1), for the compile 'simulate' does. 'compile
--emit c' prints the kernel source the native engine compiles.

--dump-ir STAGE is one of parse, expand, rcip, network, odegen,
simplify, distribute, cse, deriv, lower, exec-decode, codegen.

'compile --emit conservation' prints one line per element, in Hill
order: the atoms of it in each species, when every reaction conserves
it, or else the rules whose reactions change it. It counts species
structures, which a cache entry does not keep, so like --dump-ir it
compiles cold.

'simulate' and 'estimate' configure the solve themselves: BDF runs on
the compiled analytic Jacobian, and factors I − hβJ by a sparse LU when
that costs fewer multiply-adds than a dense one (compile-report:
sparse_newton). 'estimate' builds ∂r/∂p from the forward sensitivities
it compiles too, by finite differences at a step of √rtol where a
sensitivity solve fails.

--engine: 'exec' runs the pre-decoded fused engine; 'native' also
compiles the kernel with the system C compiler ($CC), caches it in
--cache-dir, dlopens it and runs that — without a toolchain it warns and
runs 'exec'.
";

/// An argument vector checked against one subcommand's declaration:
/// its operand and each flag's value as given.
struct Args<'a> {
    sub: &'static Subcommand,
    /// Empty for `serve`, which takes none.
    operand: &'a str,
    /// Parallel to `sub.flags`; `None` where a flag is absent.
    given: Vec<Option<&'a str>>,
}

impl<'a> Args<'a> {
    /// Accept the operand and declared flags, each once and with its
    /// value; any other word is a usage error rather than ignored.
    fn walk(sub: &'static Subcommand, args: &'a [String]) -> Result<Args<'a>, CliError> {
        let mut given = vec![None; sub.flags.len()];
        let mut operand = None;
        let mut words = args.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if let Some(i) = sub.flags.iter().position(|f| f.name == word) {
                // A negative number is a value; the next flag is not.
                let value = words.next().filter(|v| !v.starts_with("--"));
                let value =
                    value.ok_or_else(|| usage_err(format!("option '{word}' takes a value")))?;
                if given[i].replace(value).is_some() {
                    return Err(usage_err(format!("option '{word}' is given twice")));
                }
            } else if word.starts_with("--") {
                let names: Vec<&str> = sub.flags.iter().map(|f| f.name).collect();
                let expected = names.join(", ");
                return Err(usage_err(format!(
                    "unknown option '{word}' (expected one of: {expected})"
                )));
            } else if sub.operand.is_some() && operand.is_none() {
                operand = Some(word);
            } else {
                return Err(usage_err(format!("unexpected argument '{word}'")));
            }
        }
        if sub.operand.is_some() && operand.is_none() {
            return Err(usage_err("expected a model file path"));
        }
        Ok(Args {
            sub,
            operand: operand.unwrap_or_default(),
            given,
        })
    }

    fn lookup(&self, name: &str) -> (&'static Flag, Option<&'a str>) {
        let i = self.sub.flags.iter().position(|f| f.name == name);
        let i = i.expect("parse_args reads only declared flags");
        (&self.sub.flags[i], self.given[i])
    }

    /// The flag's value, or its declared default when absent.
    fn get<T: FromStr<Err: 'static>>(&self, name: &str) -> Result<T, CliError> {
        let (flag, given) = self.lookup(name);
        parse(flag, given.unwrap_or(flag.default))
    }

    /// The flag's value; `None` when absent.
    fn opt<T: FromStr<Err: 'static>>(&self, name: &str) -> Result<Option<T>, CliError> {
        let (flag, given) = self.lookup(name);
        given.map(|v| parse(flag, v)).transpose()
    }

    /// A flag declared [`REQUIRED`].
    fn required<T: FromStr<Err: 'static>>(&self, name: &str) -> Result<T, CliError> {
        let (flag, _) = self.lookup(name);
        self.opt(name)?
            .ok_or_else(|| usage_err(format!("{} requires {}", self.sub.name, flag.synopsis())))
    }

    /// A comma-separated list (`A,B,...`, items trimmed); empty when absent.
    fn list<T: FromStr<Err: 'static>>(&self, name: &str) -> Result<Vec<T>, CliError> {
        let (flag, given) = self.lookup(name);
        let items = given.map_or(Vec::new(), |v| v.split(',').collect());
        items.iter().map(|item| parse(flag, item.trim())).collect()
    }

    /// A count flag that must be at least 1.
    fn at_least_one(&self, name: &str) -> Result<usize, CliError> {
        match self.get(name)? {
            0 => Err(usage_err(format!("{name} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// A count flag that must be at least 1 and small enough that its
    /// buffers, `item` bytes for each unit, can be allocated. They are
    /// built after the compile; refusing here keeps a count no host can
    /// hold from aborting the process there.
    fn count(&self, name: &str, item: usize) -> Result<usize, CliError> {
        let n = self.at_least_one(name)?;
        // Reserved and released at once: no page is touched.
        let fits = |bytes| Vec::<u8>::new().try_reserve_exact(bytes).is_ok();
        match n.checked_mul(item) {
            Some(bytes) if fits(bytes) => Ok(n),
            _ => Err(usage_err(format!(
                "{name} {n} needs more memory than can be allocated"
            ))),
        }
    }

    /// A time horizon: finite and past zero.
    fn horizon(&self, name: &str) -> Result<f64, CliError> {
        match self.get(name)? {
            t if f64::is_finite(t) && t > 0.0 => Ok(t),
            t => Err(usage_err(format!("{name} must be finite and > 0, got {t}"))),
        }
    }

    /// `--engine`: whether the compile builds the native kernel.
    fn native(&self) -> Result<bool, CliError> {
        match self.get::<String>("--engine")?.as_str() {
            "exec" => Ok(false),
            "native" => Ok(true),
            other => Err(usage_err(format!(
                "unknown engine '{other}' (expected exec or native)"
            ))),
        }
    }
}

/// Parse one flag value. The workspace's enums say what they accept in
/// a `String` error, which passes through unchanged; any other failure
/// (a number) is reported against the flag's placeholder.
fn parse<T: FromStr<Err: 'static>>(flag: &Flag, text: &str) -> Result<T, CliError> {
    text.parse().map_err(|e: T::Err| {
        usage_err(match (&e as &dyn Any).downcast_ref::<String>() {
            Some(own) => own.clone(),
            None => format!("{} takes {}, got '{text}'", flag.name, flag.value),
        })
    })
}

/// One `SEQ:MS` item of `--chaos-stall`.
struct Stall(usize, u64);

impl FromStr for Stall {
    type Err = Box<dyn std::error::Error>;

    fn from_str(s: &str) -> Result<Stall, Self::Err> {
        let (seq, ms) = s.split_once(':').ok_or("no ':'")?;
        Ok(Stall(seq.trim().parse()?, ms.trim().parse()?))
    }
}

/// Parse an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(name) = args.first() else {
        return Ok(Command::Help);
    };
    if name == "help" || args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let sub = SUBCOMMANDS.iter().find(|sub| sub.name == name);
    let sub = sub.ok_or_else(|| usage_err(format!("unknown subcommand '{name}'\n{}", usage())))?;
    let a = Args::walk(sub, &args[1..])?;
    Ok(match sub.name {
        "compile" => Command::Compile {
            input: a.operand.into(),
            level: a.get("--level")?,
            emit: a.get("--emit")?,
            dump: a.opt("--dump-ir")?,
            cache_dir: a.opt("--cache-dir")?,
        },
        "compile-report" => Command::Compile {
            input: a.operand.into(),
            level: a.get("--level")?,
            emit: Emit::Report,
            dump: None,
            cache_dir: a.opt("--cache-dir")?,
        },
        "simulate" => Command::Simulate {
            input: a.operand.into(),
            level: a.get("--level")?,
            tend: a.horizon("--tend")?,
            // An output time and a state row per step.
            steps: a.count("--steps", size_of::<f64>() + size_of::<Vec<f64>>())?,
            observe: a.list("--observe")?,
            native: a.native()?,
            cache_dir: a.opt("--cache-dir")?,
        },
        "synthesize" => Command::Synthesize {
            input: a.operand.into(),
            observe: a.list("--observe")?,
            out_dir: a.required("--out")?,
            files: a.count("--files", size_of::<ExperimentFile>())?,
            // A time, a solved and a noisy value per record.
            records: a.count("--records", 3 * size_of::<f64>())?,
            tend: a.horizon("--tend")?,
        },
        "estimate" => Command::Estimate {
            input: a.operand.into(),
            data_dir: a.required("--data")?,
            observe: a.list("--observe")?,
            workers: a.at_least_one("--workers")?,
            on_failure: a.get("--on-solver-failure")?,
            cache_dir: a.opt("--cache-dir")?,
        },
        "serve" => Command::Serve {
            workers: a.at_least_one("--workers")?,
            queue_capacity: a.get("--queue-capacity")?,
            cache_dir: a.opt("--cache-dir")?,
            memory_budget_mb: a.opt("--memory-budget-mb")?,
            deadline_ms: a.opt("--deadline-ms")?,
            chaos_panic: a.list("--chaos-panic")?,
            chaos_stall: (a.list("--chaos-stall")?.into_iter())
                .map(|Stall(seq, ms)| (seq, ms))
                .collect(),
        },
        other => unreachable!("subcommand '{other}' is declared but not parsed"),
    })
}

/// Compile `path` through a [`CompilerSession`]. A missing or unreadable
/// file is a runtime failure (exit 1); a model the compiler rejects is a
/// rendered, span-annotated diagnostic (exit 2).
fn load_model(path: &Path, opts: SessionOptions) -> Result<Compiled, CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
    let filename = path.display().to_string();
    let compiled = CompilerSession::with_options(opts)
        .compile_source(&filename, &source)
        .map_err(|d| CliError::Diagnostic(d.render(&filename, &source)))?;
    // Warnings (e.g. closure stopped at the generation cap while rules
    // were still growing) go to stderr and do not change the exit code.
    for warning in &compiled.artifact.warnings {
        eprintln!("{}", warning.render(&filename, &source));
    }
    Ok(compiled)
}

/// Concentration index of a named species.
fn species_index(model: &CompiledArtifact, name: &str) -> Result<usize, CliError> {
    let id = model.network.species_by_name(name);
    id.map(|id| id.0 as usize)
        .ok_or_else(|| err(format!("unknown species '{name}'")))
}

fn observable_or_all(model: &CompiledArtifact, observe: &[String]) -> Result<Vec<f64>, CliError> {
    if observe.is_empty() {
        return Ok(vec![1.0; model.system.len()]);
    }
    let mut weights = vec![0.0; model.system.len()];
    for name in observe {
        weights[species_index(model, name)?] = 1.0;
    }
    Ok(weights)
}

/// Execute a command, returning its stdout text.
pub fn run(command: &Command) -> Result<String, CliError> {
    use std::fmt::Write;
    match command {
        Command::Help => Ok(usage()),
        // Streams events to stdout directly (the one command whose
        // output is unbounded and interactive); returns nothing.
        Command::Serve {
            workers,
            queue_capacity,
            cache_dir,
            memory_budget_mb,
            deadline_ms,
            chaos_panic,
            chaos_stall,
        } => {
            let mut plan = rms_parallel::FaultPlan::new();
            for &seq in chaos_panic {
                plan = plan.panic_file(seq);
            }
            for &(seq, ms) in chaos_stall {
                plan = plan.stall_file(seq, Duration::from_millis(ms));
            }
            let faults = (!chaos_panic.is_empty() || !chaos_stall.is_empty()).then_some(plan);
            let config = rms_serve::ServerConfig {
                workers: *workers,
                queue_capacity: *queue_capacity,
                cache_dir: cache_dir.clone(),
                memory_budget: memory_budget_mb.map(|mb| mb * 1024 * 1024),
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
            cache_dir,
        } => {
            let options = SessionOptions {
                cache_dir: cache_dir.clone(),
                dump: *dump,
                // The report covers the compile `simulate` does.
                deriv: *dump == Some(Stage::Deriv) || *emit == Emit::Report,
                native: *dump == Some(Stage::Codegen),
                // A disk entry carries no species structures to count.
                cache: if *emit == Emit::Conservation {
                    CacheMode::Bypass
                } else {
                    CacheMode::ReadWrite
                },
                ..SessionOptions::new(*level)
            };
            let compiled = load_model(input, options)?;
            if dump.is_some() {
                return Ok(compiled.dump.unwrap_or_else(|| {
                    format!("(stage {} did not run at level {level})\n", dump.unwrap())
                }));
            }
            let model = compiled.artifact;
            Ok(match emit {
                Emit::Network => model.network.display_equations(),
                Emit::Odes => model.system.display(),
                Emit::C => rms_driver::codegen::emit_native_c(&model),
                Emit::Report => model.report.to_json() + "\n",
                Emit::Conservation => {
                    let mut out = String::new();
                    for row in model.network.element_balance() {
                        let symbol = row.element.symbol();
                        if row.is_conserved() {
                            let _ = write!(out, "{symbol} conserved:");
                            let species = model.network.species_iter().zip(&row.counts);
                            for (k, ((_, sp), &c)) in species.filter(|(_, &c)| c > 0).enumerate() {
                                let sep = if k == 0 { " " } else { " + " };
                                let _ = match c {
                                    1 => write!(out, "{sep}[{}]", sp.name),
                                    c => write!(out, "{sep}{c}*[{}]", sp.name),
                                };
                            }
                        } else {
                            let _ = write!(out, "{symbol} not conserved:");
                            for (k, (rule, n)) in row.broken_by.iter().enumerate() {
                                let sep = if k == 0 { " " } else { ", " };
                                let plural = if *n == 1 { "" } else { "s" };
                                let _ = write!(out, "{sep}{rule} ({n} reaction{plural})");
                            }
                        }
                        out.push('\n');
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
            native,
            cache_dir,
        } => {
            let options = SessionOptions {
                cache_dir: cache_dir.clone(),
                deriv: true,
                native: *native,
                ..SessionOptions::new(*level)
            };
            let model = load_model(input, options)?.artifact;
            let times: Vec<f64> = (1..=*steps)
                .map(|i| tend * i as f64 / *steps as f64)
                .collect();
            // The one solve path, observing nothing: states print whole.
            let simulator = TapeSimulator::from_artifact(&model, Vec::new());
            let mut out = String::new();
            // The artifact runs its native kernel when one loaded. A native
            // request without one says why and runs exec anyway (exit 0 —
            // degradation, not failure).
            if let Some(why) = &model.native_diag {
                let _ = writeln!(out, "warning: native engine unavailable: {why}");
                let _ = writeln!(out, "warning: falling back to the exec engine");
            }
            let solution = simulator
                .trajectory(&model.system.rate_values, 0, &times)
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
                .map(|n| species_index(&model, n))
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
            let options = SessionOptions {
                deriv: true,
                ..SessionOptions::new(OptLevel::Full)
            };
            let model = load_model(input, options)?.artifact;
            let weights = observable_or_all(&model, observe)?;
            let simulator = TapeSimulator::from_artifact(&model, weights);
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
            on_failure,
            cache_dir,
        } => {
            let options = SessionOptions {
                cache_dir: cache_dir.clone(),
                deriv: true,
                sensitivity: true,
                ..SessionOptions::new(OptLevel::Full)
            };
            let model = load_model(input, options)?.artifact;
            let weights = observable_or_all(&model, observe)?;
            // The artifact carries the Jacobian and sensitivity tapes the
            // simulator solves on.
            let simulator = TapeSimulator::from_artifact(&model, weights);
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

            let config = EstimatorConfig {
                dynamic_lb: true,
                on_failure: *on_failure,
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
            // tolerance: derive the step from it (√rtol) rather than
            // LmOptions' analytically-smooth √ε default.
            let options = LmOptions {
                max_iters: 60,
                fd_step: simulator.options.rtol.sqrt(),
                ..LmOptions::default()
            };
            let result = estimator
                .estimate(&start, &lo, &hi, options)
                .map_err(|e| err(format!("estimation: {e}")))?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "converged: {:?} after {} iterations, {} residual evals, {} Jacobian builds (analytic)",
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
            let residual = FnResidual::new(start.len(), result.residuals.len(), |p, out| {
                let o = estimator.objective(p).map_err(|e| e.to_string())?;
                out.copy_from_slice(&o.error_vector);
                Ok(())
            });
            if let Ok(stats) = FitStatistics::evaluate_bounded(
                &residual,
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
             --memory-budget-mb 64 --chaos-panic 1,3 --chaos-stall 0:200,2:50",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                workers,
                queue_capacity,
                memory_budget_mb,
                deadline_ms,
                chaos_panic,
                chaos_stall,
                ..
            } => {
                assert_eq!(workers, 4);
                assert_eq!(queue_capacity, 8);
                assert_eq!(memory_budget_mb, Some(64));
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
        match parse_args(&argv("simulate m.rdl --tend -1")) {
            Err(CliError::Usage(message)) => {
                assert_eq!(message, "--tend must be finite and > 0, got -1")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stray_words_and_repeated_flags_are_usage_errors_in_every_subcommand() {
        for (line, message) in [
            ("compile m.rdl extra", "unexpected argument 'extra'"),
            ("compile-report m.rdl extra", "unexpected argument 'extra'"),
            (
                "simulate models/quickstart.rdl 2 --steps 2 --observe PolyS_2",
                "unexpected argument '2'",
            ),
            (
                "synthesize m.rdl --out d extra",
                "unexpected argument 'extra'",
            ),
            (
                "estimate m.rdl extra --data d",
                "unexpected argument 'extra'",
            ),
            ("serve extra", "unexpected argument 'extra'"),
            (
                "compile m.rdl --level full --level none",
                "option '--level' is given twice",
            ),
            (
                "compile-report m.rdl --level full --level full",
                "option '--level' is given twice",
            ),
            (
                "simulate m.rdl --steps 2 --steps 3",
                "option '--steps' is given twice",
            ),
            (
                "synthesize m.rdl --out d --out e",
                "option '--out' is given twice",
            ),
            (
                "estimate m.rdl --data d --data e",
                "option '--data' is given twice",
            ),
            (
                "serve --workers 2 --workers 3",
                "option '--workers' is given twice",
            ),
        ] {
            match parse_args(&argv(line)) {
                Err(CliError::Usage(got)) => assert_eq!(got, message, "{line}"),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    /// README's flag table for one subcommand, as the declarations render it.
    fn markdown_table(sub: &Subcommand) -> String {
        let mut table = String::from("| flag | default | meaning |\n|---|---|---|\n");
        for f in sub.flags {
            let synopsis = f.synopsis().replace('|', "\\|");
            table += &format!("| `{synopsis}` | {} | {} |\n", f.default, f.meaning);
        }
        table
    }

    #[test]
    fn help_readme_and_parser_read_one_declaration_per_flag() {
        let counts: Vec<usize> = SUBCOMMANDS.iter().map(|sub| sub.flags.len()).collect();
        assert_eq!(counts, [4, 2, 6, 5, 5, 7]);
        let help = usage();
        let readme = include_str!("../../../README.md");
        for sub in &SUBCOMMANDS {
            for f in sub.flags {
                assert!(
                    help.lines()
                        .any(|l| l.contains(&f.synopsis()) && l.contains(f.default)),
                    "`rmsc help` lacks {} with its default",
                    f.name
                );
            }
            let table = markdown_table(sub);
            assert!(
                readme.contains(&format!("\n\n{table}\n")),
                "README.md's `rmsc {}` flag table is not the declared one; expected:\n\n{table}",
                sub.name
            );
        }
        // Every default a flag is read with parses: the bare invocations.
        for line in [
            "compile m.rdl",
            "compile-report m.rdl",
            "simulate m.rdl",
            "synthesize m.rdl --out d",
            "estimate m.rdl --data d",
            "serve",
        ] {
            assert!(parse_args(&argv(line)).is_ok(), "{line}");
        }
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
    fn a_non_finite_horizon_and_an_empty_data_file_are_refused() {
        let dir = std::env::temp_dir().join("rmsc_cli_refusals");
        std::fs::remove_dir_all(&dir).ok();
        let model = write_model(&dir).display().to_string();
        let data = dir.join("data");
        // A horizon that is not finite and past zero, no output rows, or
        // more than can be allocated is a usage error: nothing is
        // compiled, solved or written.
        let out = data.display();
        let horizon = |got: &str| format!("--tend must be finite and > 0, got {got}");
        let too_many = |flag: &str| {
            format!(
                "{flag} {} needs more memory than can be allocated",
                i64::MAX
            )
        };
        for (line, message) in [
            (
                format!("simulate {model} --steps 2 --tend nan"),
                horizon("NaN"),
            ),
            (format!("simulate {model} --tend inf"), horizon("inf")),
            (format!("simulate {model} --tend 0"), horizon("0")),
            (format!("simulate {model} --tend -1"), horizon("-1")),
            (
                format!("simulate {model} --steps 0"),
                "--steps must be at least 1".into(),
            ),
            (
                format!("synthesize {model} --out {out} --tend nan"),
                horizon("NaN"),
            ),
            // A count whose buffers exceed isize::MAX bytes, on any host.
            (
                format!("simulate {model} --steps {}", i64::MAX),
                too_many("--steps"),
            ),
            (
                format!("synthesize {model} --out {out} --records {}", i64::MAX),
                too_many("--records"),
            ),
            (
                format!("synthesize {model} --out {out} --files {}", i64::MAX),
                too_many("--files"),
            ),
            (
                format!("synthesize {model} --out {out} --tend inf"),
                horizon("inf"),
            ),
            (
                format!("synthesize {model} --out {out} --tend 0"),
                horizon("0"),
            ),
            (
                format!("synthesize {model} --out {out} --tend -1"),
                horizon("-1"),
            ),
        ] {
            let error = parse_args(&argv(&line)).unwrap_err();
            assert_eq!(error.exit_code(), 2, "{line}: {error}");
            assert_eq!(error.message(), message, "{line}");
        }
        let fails = |line: String| {
            let error = run(&parse_args(&argv(&line)).unwrap()).unwrap_err();
            assert_eq!(error.exit_code(), 1, "{line}: {error}");
            error.message().to_string()
        };
        // A file with a header and no records has nothing to fit.
        std::fs::create_dir_all(&data).unwrap();
        std::fs::write(data.join("empty.dat"), "# records: 0\n").unwrap();
        let error = fails(format!("estimate {model} --data {}", data.display()));
        assert!(error.ends_with("empty.dat: no records"), "{error}");
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
        // cost, and which way `LinearSolver::Auto` will go on it.
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
            "estimate m.rdl --data d --workers 3 --on-solver-failure abort",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Estimate {
                input: PathBuf::from("m.rdl"),
                data_dir: PathBuf::from("d"),
                observe: vec![],
                workers: 3,
                on_failure: FailurePolicy::Abort,
                cache_dir: None,
            }
        );
        // Defaults: 2 workers, penalize.
        let cmd = parse_args(&argv("estimate m.rdl --data d")).unwrap();
        assert_eq!(
            cmd,
            Command::Estimate {
                input: PathBuf::from("m.rdl"),
                data_dir: PathBuf::from("d"),
                observe: vec![],
                workers: 2,
                on_failure: FailurePolicy::Penalize,
                cache_dir: None,
            }
        );
        // Malformed invocations are usage errors (exit 2).
        for bad in [
            "estimate m.rdl --data d --workers 0",
            "synthesize m.rdl --out d --files 0",
            "synthesize m.rdl --out d --records 0",
            "estimate m.rdl --data d --on-solver-failure shrug",
            // Typo'd flags must not be silently ignored.
            "estimate m.rdl --data d --on-solver-falure abort",
            "simulate m.rdl --setps 5",
            "compile m.rdl --emti odes",
            // Bad --engine values are usage errors too.
            "simulate m.rdl --engine jit",
        ] {
            let error = parse_args(&argv(bad)).unwrap_err();
            assert_eq!(error.exit_code(), 2, "{bad}: {error}");
            assert!(!error.message().is_empty());
        }
        // --help anywhere shows usage rather than an unknown-option error.
        assert_eq!(parse_args(&argv("estimate --help")).unwrap(), Command::Help);
    }

    #[test]
    fn engine_flag_parses_with_exec_default() {
        for (line, want) in [
            ("simulate m.rdl", false),
            ("simulate m.rdl --engine exec", false),
            ("simulate m.rdl --engine native", true),
        ] {
            match parse_args(&argv(line)).unwrap() {
                Command::Simulate { native, .. } => assert_eq!(native, want, "{line}"),
                other => panic!("{other:?}"),
            }
        }
        // The interpreter is the tests' oracle, and the artifact decides
        // what runs: neither is a value.
        for gone in ["interp", "auto"] {
            let error = parse_args(&argv(&format!("simulate m.rdl --engine {gone}"))).unwrap_err();
            assert_eq!(
                error,
                CliError::Usage(format!("unknown engine '{gone}' (expected exec or native)"))
            );
        }
    }

    fn assert_unknown_options(cases: &[&str]) {
        for bad in cases {
            let error = parse_args(&argv(bad)).unwrap_err();
            assert!(
                error.message().starts_with("unknown option '--"),
                "{bad}: {error}"
            );
            assert_eq!(error.exit_code(), 2, "{bad}");
        }
    }

    #[test]
    fn jacobian_flags_are_unknown_options_on_both_subcommands() {
        // The artifact decides the Jacobian and the sensitivities: neither
        // the state Jacobian nor the estimator's ∂r/∂p is a flag.
        assert_unknown_options(&[
            "simulate m.rdl --jacobian fd-dense",
            "estimate m.rdl --data d --jacobian analytic",
            "estimate m.rdl --data d --residual-jacobian fd",
            "estimate m.rdl --data d --fd-step 1e-4",
        ]);
    }

    #[test]
    fn frontend_threads_flag_is_an_unknown_option_everywhere() {
        // The Network stage runs one worker per core.
        assert_unknown_options(&[
            "compile m.rdl --frontend-threads 4",
            "compile-report m.rdl --frontend-threads 2",
            "simulate m.rdl --frontend-threads 8",
            "estimate m.rdl --data d --frontend-threads 1",
        ]);
    }

    #[test]
    fn linear_solver_flag_is_an_unknown_option_on_both_subcommands() {
        // The matrix decides how it is factored.
        assert_unknown_options(&[
            "simulate m.rdl --linear-solver dense",
            "estimate m.rdl --data d --linear-solver sparse",
        ]);
    }

    #[test]
    fn opt_reroll_flag_is_a_usage_error() {
        // The flag went with the emission forms it selected; like any
        // unknown option it is refused, not silently ignored.
        for bad in [
            "simulate m.rdl --opt reroll=off",
            "compile m.rdl --opt reroll=on",
            // So did the retry and collective-deadline flags.
            "estimate m.rdl --data d --collective-timeout 30",
            "estimate m.rdl --data d --max-retries 2",
            "serve --max-retries 2",
            "serve --retry-base-ms 10",
        ] {
            let error = parse_args(&argv(bad)).unwrap_err();
            assert!(matches!(error, CliError::Usage(_)), "{bad}: {error:?}");
            assert!(
                error.message().starts_with("unknown option '--"),
                "{bad}: {error}"
            );
            assert_eq!(error.exit_code(), 2, "{bad}");
        }
    }

    #[test]
    fn simulate_engines_print_identical_tables() {
        if let Err(e) = crate::probe_toolchain() {
            eprintln!("SKIP: native table: {e}");
            return;
        }
        let dir = std::env::temp_dir().join("rmsc_cli_engine");
        let model = write_model(&dir);
        let model_arg = model.display().to_string();
        let cache = dir.join("cache").display().to_string();
        let base = format!("simulate {model_arg} --tend 0.5 --steps 4 --observe DiS");
        let exec = run(&parse_args(&argv(&base)).unwrap()).unwrap();
        let native = format!("{base} --engine native --cache-dir {cache}");
        let native = run(&parse_args(&argv(&native)).unwrap()).unwrap();
        // The native kernel replays the tape's rounding sequence, compiled
        // without contraction; exec fuses multiply-adds on FMA builds, so
        // there only the table shape is checked.
        if crate::FMA_CONTRACTS {
            assert_eq!(exec.lines().count(), native.lines().count());
        } else {
            assert_eq!(exec, native);
        }
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
