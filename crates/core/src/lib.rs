//! # rms-core — the optimizing compiler (the paper's core contribution)
//!
//! Takes the ODE systems produced by `rms-odegen` — machine-generated
//! code whose largest basic blocks held ~3.3 million floating-point
//! operations in the paper — and removes their massive redundancy through
//! three domain-specific passes:
//!
//! 1. **Equation simplification** (§3.1, [`simplify`]): merge products
//!    differing only in constants;
//! 2. **Distributive optimization** (§3.2, Fig. 6, [`distopt`]): recursive
//!    factoring of the most frequent term;
//! 3. **Domain CSE** (§3.3, Fig. 7, [`cse`]): canonical-order,
//!    length-indexed exact and prefix matching with temporaries emitted
//!    write-before-read.
//!
//! The optimized forest lowers to an executable [`tape::Tape`] (our analog
//! of the generated C function) or to actual C text ([`emit_c`]). The
//! [`generic`] module models the *commercial* compiler of Table 1 — a
//! syntactic value-numbering optimizer with a memory budget that fails
//! with "lack of space" on exactly the paper's failure pattern.

#![warn(missing_docs)]

pub mod cse;
pub mod deriv;
pub mod distopt;
pub mod emit_c;
pub mod exec;
pub mod expr;
pub mod generic;
pub mod kernel;
pub mod native;
pub mod pipeline;
pub mod simplify;
pub mod tape;

pub use cse::{cse_forest, CseOptions};
pub use deriv::{
    compile_jacobian, compile_jacobian_timed, compile_sensitivity, compile_sensitivity_timed,
    differentiate_forest, differentiate_forest_sensitivity, DerivTapes, DerivTimes, JacobianTapes,
    SensitivityTapes,
};
pub use distopt::{distribute_expr, distribute_forest};
pub use emit_c::{
    c_f64, emit_c, emit_kernel, EmittedKernel, KernelSpec, KERNEL_ABI_VERSION, KERNEL_LANES,
};
pub use exec::{ExecFrame, ExecInstr, ExecTape, FMA_CONTRACTS, LANES};
pub use expr::{Coeff, Expr, ExprForest, TempId};
pub use generic::{
    generic_compile, generic_compile_best_effort, GenericError, GenericOptions, GenericResult,
    IR_BYTES_PER_OP, PAPER_MEMORY_BUDGET,
};
pub use kernel::{Kernel, KernelScratch, TapeKernel};
pub use native::{
    compile_and_load, compile_kernel, probe_toolchain, CompileTiming, KernelMeta, NativeError,
    NativeKernel, Toolchain,
};
pub use pipeline::{
    optimize, optimize_traced, optimize_with_passes, CompiledOde, OptLevel, PassEvent, PassTrace,
    Passes, StageCounts,
};
pub use simplify::{simplify_expr, simplify_forest};
pub use tape::{
    compact_registers, compact_registers_multi, forward_copies, loop_slot_patterns, lower,
    lower_split_multi, reroll, resolve_instr, species_dependencies, validate_program, Instr,
    Operand, RerollOptions, RolledSegment, RolledTape, SlotPattern, Tape, TapeLoop,
};
