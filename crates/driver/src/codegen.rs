//! The *Codegen* stage: native kernel build/load with a content-addressed
//! `.so` cache.
//!
//! The emitted C source and compiled shared object live next to the
//! serialized artifact in `--cache-dir` as `<key>.so.c` / `<key>.so`, so a
//! second process compiling the same model reuses the machine code without
//! re-invoking the C compiler. A `.so` that fails to `dlopen` or whose
//! baked-in fingerprint disagrees with the artifact is quarantined
//! (renamed `*.corrupt`, mirroring the serialized-artifact cache) and
//! rebuilt.
//!
//! Codegen never fails a compile: every problem — no toolchain, compiler
//! error, unloadable object — degrades to an artifact without a kernel
//! plus a human-readable diagnostic, and the simulator falls back to the
//! exec engine.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rms_core::emit_c::EmittedKernel;
use rms_core::native::{self, KernelMeta, NativeError, NativeKernel};

use crate::cache;
use crate::serial;
use crate::CompiledArtifact;

/// What the Codegen stage produced, plus its instrumentation.
#[derive(Debug, Default)]
pub struct CodegenOutcome {
    /// The loaded kernel, when everything worked.
    pub kernel: Option<Arc<NativeKernel>>,
    /// Why there is no kernel, when there isn't.
    pub diag: Option<String>,
    /// Seconds spent rendering C source (0 when a cached object loaded).
    pub render_seconds: f64,
    /// Seconds spent in the C compiler (0 when a cached object loaded).
    pub cc_seconds: f64,
    /// Rendered source size (0 when a cached object loaded).
    pub source_bytes: usize,
    /// Translation units the source was split into (0 when a cached
    /// object loaded).
    pub cc_units: usize,
    /// Per-unit compile wall-times. Units compile concurrently, so the
    /// build's compile wall-clock is the maximum, not the sum.
    pub cc_unit_seconds: Vec<f64>,
    /// Seconds in the final link (0 for single-unit or cached builds).
    pub link_seconds: f64,
    /// Loop regions the emitter rendered into the kernel (0 when no tape
    /// had a repeating stanza run).
    pub loop_count: usize,
    /// Flat instructions absorbed into rendered loops.
    pub rolled_instrs: usize,
    /// A cached `.so` was reused without recompiling.
    pub reused: bool,
    /// A stale or corrupt cached `.so` was moved aside.
    pub quarantined: bool,
}

/// What separates the translation units of a multi-unit kernel wherever
/// they are printed as one text (`--dump-ir codegen`, `compile --emit c`).
pub const UNIT_BREAK: &str = "\n/* ---------------- unit break ---------------- */\n";

/// Render the native kernel source for an artifact, sizing the
/// translation-unit split to the kernel (the emitter rerolls the tapes
/// itself).
///
/// Unit count scales with emitted work and is capped by the host's core
/// count: small kernels build as a single translation unit, huge ones
/// split so their chunks compile concurrently.
pub fn render_kernel(
    name: &str,
    tape: &rms_core::Tape,
    derivs: Option<&rms_core::DerivTapes>,
    key: u128,
) -> EmittedKernel {
    let group = |d: &rms_core::DerivTapes| {
        let state = d.state();
        let tail = d.sensitivity().map_or(0, |s| s.dfdp.instrs.len());
        state.rhs.instrs.len() + state.jac.instrs.len() + tail
    };
    let total = tape.instrs.len() + derivs.map_or(0, group);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let units = (total / 16_384).clamp(1, cores.min(8));
    rms_core::emit_kernel(
        &rms_core::KernelSpec {
            name,
            rhs: tape,
            derivs,
            key,
        },
        units,
    )
}

/// What `rmsc compile --emit c` prints: the artifact's whole kernel
/// source, rendered by [`render_kernel`] (with the sensitivity tail
/// compiled, the source the *Codegen* stage compiles), its translation
/// units joined by [`UNIT_BREAK`].
pub fn emit_native_c(artifact: &CompiledArtifact) -> String {
    // All four entry points, whether or not the session compiled the
    // derivative group with its tail.
    let sensitivity = artifact.sensitivity.clone().unwrap_or_else(|| {
        let (forest, cse) = (&artifact.compiled.forest, rms_core::CseOptions::default());
        Arc::new(rms_core::compile_sensitivity(forest, Some(cse)))
    });
    let derivs = rms_core::DerivTapes::Sensitivity(sensitivity);
    let tape = &artifact.compiled.tape;
    render_kernel(&artifact.name, tape, Some(&derivs), artifact.key)
        .units
        .join(UNIT_BREAK)
}

/// Where the compiled object for `key` lives: beside the serialized
/// artifact when a cache directory is configured, otherwise under a
/// process-shared scratch directory in `$TMPDIR` (still content-addressed,
/// so concurrent processes share it).
pub fn kernel_path(cache_dir: Option<&Path>, key: u128) -> PathBuf {
    let dir = match cache_dir {
        Some(dir) => dir.to_path_buf(),
        None => std::env::temp_dir().join("rms-native"),
    };
    dir.join(format!("{key:032x}.so"))
}

/// Load the cached kernel at `path`, or render (via `render`) and compile
/// it. Validation failures quarantine the bad object and rebuild.
///
/// Multi-unit renders compile each translation unit concurrently and
/// link once; the per-unit wall-times land in the outcome. When a cached
/// object loads, the emitter never runs and the reroll counters come
/// from the object's own metadata exports.
pub fn build_kernel(
    path: &Path,
    meta: &KernelMeta,
    render: impl FnOnce() -> EmittedKernel,
) -> CodegenOutcome {
    let mut outcome = CodegenOutcome::default();
    if path.exists() {
        match NativeKernel::load(path, meta) {
            Ok(kernel) => {
                outcome.loop_count = kernel.loop_count();
                outcome.rolled_instrs = kernel.rolled_instrs();
                outcome.kernel = Some(Arc::new(kernel));
                outcome.reused = true;
                return outcome;
            }
            Err(NativeError::LoadFailed(_) | NativeError::Mismatch(_)) => {
                serial::quarantine(path);
                cache::note_quarantine();
                outcome.quarantined = true;
            }
            Err(e) => {
                outcome.diag = Some(e.to_string());
                return outcome;
            }
        }
    }
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            outcome.diag = Some(format!("cannot create {}: {e}", dir.display()));
            return outcome;
        }
    }
    let clock = Instant::now();
    let emitted = render();
    outcome.render_seconds = clock.elapsed().as_secs_f64();
    outcome.source_bytes = emitted.source_bytes;
    outcome.cc_units = emitted.units.len();
    outcome.loop_count = emitted.loop_count;
    outcome.rolled_instrs = emitted.rolled_instrs;
    let clock = Instant::now();
    match native::compile_and_load(&emitted.units, path, meta) {
        Ok((kernel, timing)) => {
            outcome.cc_seconds = clock.elapsed().as_secs_f64();
            outcome.cc_unit_seconds = timing.unit_seconds;
            outcome.link_seconds = timing.link_seconds;
            outcome.kernel = Some(Arc::new(kernel));
        }
        Err(e) => {
            outcome.cc_seconds = clock.elapsed().as_secs_f64();
            outcome.diag = Some(e.to_string());
        }
    }
    outcome
}
