//! The §3.3/§5.3 compiler-limit claims: the commercial compiler fails
//! with "lack of space" on large unoptimized systems, fails *earlier* at
//! higher `-O` levels, and "we can compile programs at least 10 times
//! larger using our optimizations than when not using them".

use std::sync::Arc;

use rms_suite::workload::{generate_model, VulcanizationSpec};
use rms_suite::{
    compile_model, generic_compile, generic_compile_best_effort, CompiledArtifact, GenericError,
    GenericOptions, OptLevel,
};

/// Compile the `equations`-sized workload case through the pipeline
/// session at a level. The process-wide cache dedupes repeat compiles of
/// the same case across the tests in this binary.
fn compiled_at(equations: usize, level: OptLevel) -> Arc<CompiledArtifact> {
    let model = generate_model(VulcanizationSpec::for_equation_count(equations));
    compile_model(model.network, model.rates, level).expect("valid rates")
}

/// Unoptimized tape size for a given equation count.
fn unopt_tape_len(equations: usize) -> usize {
    compiled_at(equations, OptLevel::None).compiled.tape.len()
}

#[test]
fn higher_opt_levels_fail_earlier() {
    let suite = compiled_at(800, OptLevel::None);
    let tape = &suite.compiled.tape;
    // Budget sized so -O0 fits but -O4 does not (the Table 1 pattern
    // where xlc compiled case 4 at default opt but died at -O4 on case 3).
    let budget = tape.len() * 5_000;
    assert!(generic_compile(
        tape,
        GenericOptions {
            opt_level: 0,
            memory_budget: budget
        }
    )
    .is_ok());
    assert!(matches!(
        generic_compile(
            tape,
            GenericOptions {
                opt_level: 4,
                memory_budget: budget
            }
        ),
        Err(GenericError::OutOfSpace { opt_level: 4, .. })
    ));
    // Best effort lands on the highest level that fits.
    let (level, _) = generic_compile_best_effort(tape, budget).expect("O0 fits");
    assert!(level < 4);
}

#[test]
fn optimizations_admit_substantially_larger_programs() {
    // Paper §3.3: "we can compile programs at least 10 times larger using
    // our optimizations than when not using them." The multiplier equals
    // the optimizer's compression factor on the workload — ~14x on the
    // authors' proprietary models, ~4x on our synthetic generator (see
    // EXPERIMENTS.md). Reproduce the *mechanism* and assert our measured
    // multiplier: a budget that barely fits the unoptimized small case
    // rejects the unoptimized larger cases but accepts the optimized one,
    // for a size multiplier of at least 3x.
    let small = 400usize;
    let large = small * 3;
    let budget = unopt_tape_len(small) * rms_suite::IR_BYTES_PER_OP[0] + 1;

    // Sanity: the unoptimized large case must NOT fit.
    let unopt_large = compiled_at(large, OptLevel::None);
    assert!(
        matches!(
            generic_compile_best_effort(&unopt_large.compiled.tape, budget),
            Err(GenericError::OutOfSpace { .. })
        ),
        "large unoptimized case should exceed the budget"
    );

    // With our optimizations the same large case compiles.
    let opt_large = compiled_at(large, OptLevel::Full);
    let (level, _) = generic_compile_best_effort(&opt_large.compiled.tape, budget)
        .expect("optimized 3x case must fit the same budget");
    assert!(level <= 4);

    // Report the actual multiplier: the largest optimized model that fits
    // the budget, relative to the largest unoptimized one (= `small`).
    let mut multiplier = 3;
    while multiplier < 20 {
        let next = small * (multiplier + 1);
        let compiled = compiled_at(next, OptLevel::Full);
        if generic_compile_best_effort(&compiled.compiled.tape, budget).is_err() {
            break;
        }
        multiplier += 1;
    }
    println!("size multiplier admitted by optimization: {multiplier}x (paper: >=10x)");
    assert!(multiplier >= 3);
}

#[test]
fn optimized_tape_valid_after_generic_pass() {
    // Composing our optimizer with the generic compiler (the real
    // deployment: our C feeds xlc) must preserve semantics.
    let suite = compiled_at(300, OptLevel::Full);
    let (system, ours) = (&suite.system, &suite.compiled);
    // VN runs on the emitted-C shape (SSA); composing it with the
    // compacted execution tape is also sound (see rms-core::generic) but
    // finds less.
    let ssa = rms_suite::lower(&ours.forest);
    let result = generic_compile(
        &ssa,
        GenericOptions {
            opt_level: 4,
            memory_budget: usize::MAX,
        },
    )
    .expect("fits");
    let n = system.len();
    let y: Vec<f64> = (0..n).map(|i| 0.05 + (i % 9) as f64 * 0.1).collect();
    let mut a = vec![0.0; n];
    let mut b = vec![0.0; n];
    ours.tape.eval(&system.rate_values, &y, &mut a);
    result.tape.eval(&system.rate_values, &y, &mut b);
    // Also: VN directly on the compacted tape must stay *correct*.
    let on_compacted = generic_compile(
        &ours.tape,
        GenericOptions {
            opt_level: 4,
            memory_budget: usize::MAX,
        },
    )
    .expect("fits");
    let mut c = vec![0.0; n];
    on_compacted.tape.eval(&system.rate_values, &y, &mut c);
    for (x, z) in a.iter().zip(&c) {
        assert!((x - z).abs() <= 1e-12 * x.abs().max(1.0), "{x} vs {z}");
    }
    for (x, z) in a.iter().zip(&b) {
        assert!((x - z).abs() <= 1e-12 * x.abs().max(1.0), "{x} vs {z}");
    }
}

#[test]
fn forest_node_count_tracks_memory_model() {
    // The optimizer also shrinks the IR fed to the downstream compiler:
    // node counts drop alongside op counts.
    let unopt = compiled_at(450, OptLevel::None);
    let opt = compiled_at(450, OptLevel::Full);
    assert!(
        opt.compiled.forest.node_count() < unopt.compiled.forest.node_count(),
        "{} vs {}",
        opt.compiled.forest.node_count(),
        unopt.compiled.forest.node_count()
    );
    assert!(opt.compiled.tape.len() < unopt.compiled.tape.len());
}
