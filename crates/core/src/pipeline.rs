//! The optimizer pipeline: ODE system → (simplify → distribute → CSE) →
//! tape, with per-stage operation statistics for the Table 1 harness.

use std::sync::Arc;

use rms_odegen::{OdeSystem, OpCounts};

use crate::cse::{cse_forest, CseOptions};
use crate::distopt::distribute_forest;
use crate::expr::ExprForest;
use crate::simplify::simplify_forest;
use crate::tape::{compact_registers, lower, Tape};

/// Named optimization levels matching the paper's experimental
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// No optimization: naive sum-of-products evaluation (Table 1's
    /// "without algebraic/CSE optimizations").
    None,
    /// §3.1 equation simplification only.
    Simplify,
    /// Simplification + §3.2 distributive optimization.
    Algebraic,
    /// Simplification + distribution + §3.3 CSE (Table 1's "with
    /// algebraic/CSE optimizations"). The paper notes CSE cannot run
    /// without the algebraic passes; this level encodes that ordering.
    Full,
}

impl OptLevel {
    /// All levels, weakest first.
    pub const ALL: [OptLevel; 4] = [
        OptLevel::None,
        OptLevel::Simplify,
        OptLevel::Algebraic,
        OptLevel::Full,
    ];

    /// Expand into individual pass switches.
    pub fn passes(self) -> Passes {
        match self {
            OptLevel::None => Passes {
                simplify: false,
                distribute: false,
                cse: None,
            },
            OptLevel::Simplify => Passes {
                simplify: true,
                distribute: false,
                cse: None,
            },
            OptLevel::Algebraic => Passes {
                simplify: true,
                distribute: true,
                cse: None,
            },
            OptLevel::Full => Passes {
                simplify: true,
                distribute: true,
                cse: Some(CseOptions::default()),
            },
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OptLevel::None => "none",
            OptLevel::Simplify => "simplify",
            OptLevel::Algebraic => "simplify+distopt",
            OptLevel::Full => "simplify+distopt+cse",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    /// The names users type (`--level`, a job's `"level"`), not the
    /// pass lists [`Display`](std::fmt::Display) prints.
    fn from_str(s: &str) -> Result<OptLevel, String> {
        match s {
            "none" => Ok(OptLevel::None),
            "simplify" => Ok(OptLevel::Simplify),
            "algebraic" => Ok(OptLevel::Algebraic),
            "full" => Ok(OptLevel::Full),
            other => Err(format!(
                "unknown level '{other}' (expected none|simplify|algebraic|full)"
            )),
        }
    }
}

/// Individual pass switches (for ablation studies; [`OptLevel`] covers the
/// paper's configurations).
#[derive(Debug, Clone, Copy, Default)]
pub struct Passes {
    /// Run §3.1 equation simplification.
    pub simplify: bool,
    /// Run §3.2 distributive optimization.
    pub distribute: bool,
    /// Run §3.3 CSE with these options.
    pub cse: Option<CseOptions>,
}

/// Per-stage operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Counts of the input sum-of-products form.
    pub input: OpCounts,
    /// After simplification (equals `input` when the pass is off).
    pub after_simplify: OpCounts,
    /// After distribution.
    pub after_distribute: OpCounts,
    /// After CSE (the final expression-level counts).
    pub after_cse: OpCounts,
    /// Counts of the lowered tape (what actually executes; may include a
    /// few extra sign ops).
    pub tape: OpCounts,
}

/// A fully compiled ODE right-hand side.
#[derive(Debug, Clone)]
pub struct CompiledOde {
    /// Final expression forest (for C emission and inspection).
    pub forest: ExprForest,
    /// Executable tape, shared (never copied) with the kernels built
    /// over it.
    pub tape: Arc<Tape>,
    /// Per-stage statistics.
    pub stages: StageCounts,
}

impl CompiledOde {
    /// Fraction of input arithmetic remaining after optimization
    /// (the paper reports 6.9 % for its largest case).
    pub fn remaining_fraction(&self) -> f64 {
        let input = self.stages.input.total();
        if input == 0 {
            return 1.0;
        }
        self.stages.after_cse.total() as f64 / input as f64
    }
}

/// One observed optimizer pass: wall time plus the size of its output IR.
#[derive(Debug, Clone)]
pub struct PassEvent {
    /// Pass name (`"input"`, `"simplify"`, `"distribute"`, `"cse"`,
    /// `"lower"`).
    pub pass: &'static str,
    /// Wall-clock seconds spent in the pass.
    pub seconds: f64,
    /// Arithmetic operation counts of the pass output.
    pub counts: OpCounts,
    /// IR node count of the pass output (tape instruction count for
    /// `"lower"`).
    pub nodes: usize,
    /// Rendered IR after the pass, when capture was requested.
    pub ir: Option<String>,
}

/// Collects [`PassEvent`]s during [`optimize_traced`]. The pipeline
/// driver turns these into stage records of its `PipelineReport`.
#[derive(Debug, Default, Clone)]
pub struct PassTrace {
    /// Events in execution order. Only passes that actually ran appear;
    /// `"input"` and `"lower"` always do.
    pub events: Vec<PassEvent>,
    /// Capture a rendered IR snapshot after every pass (for
    /// `--dump-ir`); costs an extra formatting walk per pass.
    pub capture_ir: bool,
}

impl PassTrace {
    /// A trace that records IR snapshots alongside timings.
    pub fn with_ir() -> PassTrace {
        PassTrace {
            events: Vec::new(),
            capture_ir: true,
        }
    }

    fn record(&mut self, pass: &'static str, seconds: f64, forest: &ExprForest) {
        self.events.push(PassEvent {
            pass,
            seconds,
            counts: forest.op_counts(),
            nodes: forest.node_count(),
            ir: self.capture_ir.then(|| forest.to_string()),
        });
    }
}

/// Optimize an ODE system at a named level.
pub fn optimize(system: &OdeSystem, level: OptLevel) -> CompiledOde {
    optimize_with_passes(system, level.passes())
}

/// Optimize with explicit pass switches.
pub fn optimize_with_passes(system: &OdeSystem, passes: Passes) -> CompiledOde {
    optimize_traced(system, passes, None)
}

/// [`optimize_with_passes`] with optional per-pass instrumentation.
///
/// Behaviorally identical to the untraced form — the trace only observes
/// pass boundaries; it never alters pass order, the (distribute ∘ cse)
/// fixpoint, or the lowered tape.
pub fn optimize_traced(
    system: &OdeSystem,
    passes: Passes,
    mut trace: Option<&mut PassTrace>,
) -> CompiledOde {
    let mut clock = std::time::Instant::now();
    let mut lap = |trace: &mut Option<&mut PassTrace>, pass: &'static str, forest: &ExprForest| {
        let seconds = clock.elapsed().as_secs_f64();
        if let Some(t) = trace.as_deref_mut() {
            t.record(pass, seconds, forest);
        }
        clock = std::time::Instant::now();
    };

    let mut forest = ExprForest::from_system(system);
    lap(&mut trace, "input", &forest);
    let mut stages = StageCounts {
        input: forest.op_counts(),
        ..StageCounts::default()
    };
    if passes.simplify {
        forest = simplify_forest(&forest);
        lap(&mut trace, "simplify", &forest);
    }
    stages.after_simplify = forest.op_counts();
    if passes.distribute {
        forest = distribute_forest(&forest);
        lap(&mut trace, "distribute", &forest);
    }
    stages.after_distribute = forest.op_counts();
    if let Some(cse_options) = passes.cse {
        forest = cse_forest(&forest, cse_options);
        if passes.distribute {
            // Iterate (distribute ∘ cse) to a fixpoint: once CSE has named
            // a shared sum (e.g. the total rubber concentration Σ R_f),
            // the distributive pass can factor that temporary out of the
            // equations that use it — `Σ_i Σ_f k·As_i·R_f` collapses to
            // `k·(Σ As_i)·(Σ R_f)`. This cross-pass interplay is where
            // the paper's large cases earn their 14x op reduction.
            let mut best = forest.op_counts().total();
            for _round in 0..8 {
                let candidate = cse_forest(&distribute_forest(&forest), cse_options);
                let total = candidate.op_counts().total();
                if total >= best {
                    break;
                }
                best = total;
                forest = candidate;
            }
        }
        lap(&mut trace, "cse", &forest);
    }
    stages.after_cse = forest.op_counts();
    let tape = compact_registers(&lower(&forest));
    debug_assert!(
        !tape.instrs.iter().any(|i| matches!(
            i,
            crate::tape::Instr::Copy {
                a: crate::tape::Operand::Reg(_),
                ..
            }
        )),
        "register-to-register copies must not survive lowering"
    );
    stages.tape = tape.op_counts();
    if let Some(t) = trace {
        let seconds = clock.elapsed().as_secs_f64();
        t.events.push(PassEvent {
            pass: "lower",
            seconds,
            counts: tape.op_counts(),
            nodes: tape.instrs.len(),
            ir: t.capture_ir.then(|| format!("{tape}")),
        });
    }
    CompiledOde {
        forest,
        tape: Arc::new(tape),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_rcip::RateTable;
    use rms_rdl::{Reaction, ReactionNetwork};

    /// A small network with heavy redundancy: many reactions sharing rate
    /// constants and reactants.
    fn redundant_system() -> OdeSystem {
        let mut n = ReactionNetwork::new();
        let ids: Vec<_> = (0..8)
            .map(|i| n.add_abstract_species(&format!("S{i}"), 1.0 / (i as f64 + 1.0)))
            .collect();
        // Reactions: S_i + S_(i+1) -> S_(i+2), cycling, two rate constants.
        for i in 0..8 {
            n.add_reaction(Reaction {
                reactants: vec![ids[i % 8], ids[(i + 1) % 8]],
                products: vec![ids[(i + 2) % 8]],
                rate: if i % 2 == 0 { "K_even" } else { "K_odd" }.to_string(),
                rule: "r".to_string(),
            });
        }
        let rates = RateTable::parse("rate K_even = 2; rate K_odd = 3;").unwrap();
        rms_odegen::generate(&n, &rates, rms_odegen::GenerateOptions { simplify: false }).unwrap()
    }

    #[test]
    fn levels_monotonically_reduce_ops() {
        let sys = redundant_system();
        let mut last = usize::MAX;
        for level in OptLevel::ALL {
            let compiled = optimize(&sys, level);
            let total = compiled.stages.after_cse.total();
            assert!(total <= last, "{level} increased ops: {total} > {last}");
            last = total;
        }
    }

    #[test]
    fn all_levels_agree_semantically() {
        let sys = redundant_system();
        let y: Vec<f64> = (0..sys.len()).map(|i| 0.1 + i as f64 * 0.3).collect();
        let reference = sys.eval_nominal(&y);
        for level in OptLevel::ALL {
            let compiled = optimize(&sys, level);
            let mut got = vec![0.0; sys.len()];
            compiled.tape.eval(&sys.rate_values, &y, &mut got);
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "{level} eq {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn cse_alone_shares_mass_action_products() {
        // On the flat (fully non-distributed) form, each of the 8 distinct
        // mass-action products K*Si*Sj appears in 3 equations; CSE computes
        // each once: 2 mults per reaction.
        let sys = redundant_system();
        let compiled = optimize_with_passes(
            &sys,
            Passes {
                simplify: true,
                distribute: false,
                cse: Some(crate::cse::CseOptions::default()),
            },
        );
        assert_eq!(compiled.stages.after_cse.mults, 16, "{:?}", compiled.stages);
        let y: Vec<f64> = (0..sys.len()).map(|i| 0.1 + i as f64 * 0.3).collect();
        let mut got = vec![0.0; sys.len()];
        compiled.tape.eval(&sys.rate_values, &y, &mut got);
        let expect = sys.eval_nominal(&y);
        for (a, b) in expect.iter().zip(&got) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
    }

    #[test]
    fn full_level_reduces_ops() {
        let sys = redundant_system();
        let compiled = optimize(&sys, OptLevel::Full);
        assert!(
            compiled.stages.after_cse.total() < compiled.stages.input.total(),
            "{:?}",
            compiled.stages
        );
        assert!(compiled.remaining_fraction() < 1.0);
    }

    #[test]
    fn stage_counts_populated() {
        let sys = redundant_system();
        let compiled = optimize(&sys, OptLevel::Full);
        assert!(compiled.stages.input.total() > 0);
        assert!(compiled.stages.after_cse.total() > 0);
        assert!(compiled.stages.tape.total() >= compiled.stages.after_cse.total());
    }

    #[test]
    fn none_level_matches_system_counts() {
        let sys = redundant_system();
        let compiled = optimize(&sys, OptLevel::None);
        assert_eq!(compiled.stages.after_cse, sys.op_counts());
    }

    #[test]
    fn display_names() {
        assert_eq!(OptLevel::Full.to_string(), "simplify+distopt+cse");
        assert_eq!(OptLevel::None.to_string(), "none");
    }
}
