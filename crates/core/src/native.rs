//! Native kernel compilation and loading.
//!
//! Takes the translation units produced by
//! [`emit_kernel`](crate::emit_c::emit_kernel), hands them to the platform
//! C compiler (`$CC`, falling back to `cc`, `gcc`, `clang`) as `-O2 -fPIC
//! -shared -ffp-contract=off`, and `dlopen`s the resulting shared object
//! behind the safe [`NativeKernel`] wrapper. This is the last mile of the
//! paper's pipeline: the optimized forest executing as real machine code
//! rather than an interpreted tape.
//!
//! Every kernel object exports its artifact fingerprint and dimensions
//! (`rms_key`, `rms_n_species`, …); [`NativeKernel::load`] validates them
//! against the expected [`KernelMeta`] before trusting any function pointer,
//! so a stale or truncated `.so` in the cache directory is detected and can
//! be quarantined by the caller instead of corrupting a simulation.
//!
//! Nothing in this module panics on a missing toolchain: every failure is a
//! diagnosable [`NativeError`] so the driver can fall back to the exec
//! engine.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Why a native kernel could not be produced or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeError {
    /// No working C compiler was found on this machine.
    NoToolchain(String),
    /// The compiler ran but failed; payload holds its stderr.
    CompileFailed(String),
    /// `dlopen`/`dlsym` failed on the shared object.
    LoadFailed(String),
    /// The object loaded but its fingerprint or dimensions disagree with
    /// the artifact (stale or foreign `.so`).
    Mismatch(String),
    /// Native kernels are not supported on this platform.
    Unsupported(String),
    /// Filesystem error while writing source or renaming objects.
    Io(String),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::NoToolchain(m) => write!(f, "no C toolchain: {m}"),
            NativeError::CompileFailed(m) => write!(f, "C compilation failed: {m}"),
            NativeError::LoadFailed(m) => write!(f, "loading shared object failed: {m}"),
            NativeError::Mismatch(m) => write!(f, "kernel object mismatch: {m}"),
            NativeError::Unsupported(m) => write!(f, "native kernels unsupported: {m}"),
            NativeError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for NativeError {}

/// A detected C compiler.
#[derive(Debug, Clone)]
pub struct Toolchain {
    /// Command name or path (e.g. `cc`).
    pub cc: String,
    /// First line of `--version` output.
    pub version: String,
}

/// Find a working C compiler.
///
/// Honors `$CC` when set and non-empty (and then tries *only* that, so an
/// explicit override never silently falls back to a different compiler);
/// otherwise probes `cc`, `gcc`, `clang` in order. Probing is a single
/// `--version` spawn per candidate — cheap next to an actual compile, and
/// deliberately uncached so tests and long-running services observe
/// environment changes.
pub fn probe_toolchain() -> Result<Toolchain, NativeError> {
    let explicit = std::env::var("CC").ok().filter(|s| !s.trim().is_empty());
    let candidates: Vec<String> = match &explicit {
        Some(cc) => vec![cc.clone()],
        None => ["cc", "gcc", "clang"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    for cand in &candidates {
        if let Ok(out) = Command::new(cand).arg("--version").output() {
            if out.status.success() {
                let version = String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                return Ok(Toolchain {
                    cc: cand.clone(),
                    version,
                });
            }
        }
    }
    Err(NativeError::NoToolchain(format!(
        "tried {} (set $CC to override)",
        candidates.join(", ")
    )))
}

/// Wall-clock breakdown of a (possibly multi-unit) kernel build, for the
/// driver's pipeline report.
#[derive(Debug, Clone, Default)]
pub struct CompileTiming {
    /// Seconds spent compiling each translation unit. Units compile
    /// concurrently, so the build's compile wall-time is the maximum,
    /// not the sum.
    pub unit_seconds: Vec<f64>,
    /// Seconds spent in the final link (0 for single-unit builds, which
    /// compile and link in one compiler invocation).
    pub link_seconds: f64,
}

/// Invoke the C compiler once, retrying without `-march=native` for
/// compilers that reject it.
///
/// `-march=native` lets the compiler use the host's widest SIMD for the
/// rerolled loops (the cache directory is per-machine, so host-tuned
/// objects are safe).
/// `-ffp-contract=off` keeps the op-for-op rounding identical to the
/// interpreter either way.
fn run_cc(toolchain: &Toolchain, args: &[&std::ffi::OsStr]) -> Result<(), NativeError> {
    let run = |march: bool| {
        let mut cmd = Command::new(&toolchain.cc);
        if march {
            cmd.arg("-march=native");
        }
        cmd.args(args)
            .output()
            .map_err(|e| NativeError::NoToolchain(format!("{}: {e}", toolchain.cc)))
    };
    let mut out = run(true)?;
    if !out.status.success() {
        out = run(false)?;
    }
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().take(4).collect::<Vec<_>>().join("; ");
        return Err(NativeError::CompileFailed(format!(
            "{} exited with {}: {first}",
            toolchain.cc, out.status
        )));
    }
    Ok(())
}

/// Compile one or more translation units to a shared object at `out_so`.
///
/// A single unit compiles and links in one compiler invocation. With
/// several units, each `cc -c` runs on its own thread — chunked kernels
/// are embarrassingly parallel to compile — followed by a single
/// `cc -shared` link. Sources stay next to the object (`<out_so>.c` or
/// `<out_so>.u<i>.c`) for inspection; the object is built at a
/// process-unique temporary and renamed into place, so concurrent
/// builders of the same key race benignly.
pub fn compile_kernel(
    units: &[String],
    out_so: &Path,
    toolchain: &Toolchain,
) -> Result<CompileTiming, NativeError> {
    use std::time::Instant;
    assert!(!units.is_empty(), "no translation units to compile");
    let pid = std::process::id();
    let tmp = out_so.with_extension(format!("so.{pid}.tmp"));
    let fail_io = |p: &Path, e: std::io::Error| NativeError::Io(format!("{}: {e}", p.display()));

    if units.len() == 1 {
        let c_path = out_so.with_extension("so.c");
        std::fs::write(&c_path, &units[0]).map_err(|e| fail_io(&c_path, e))?;
        let clock = Instant::now();
        let args = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-o"];
        let mut full: Vec<&std::ffi::OsStr> = args.iter().map(|s| s.as_ref()).collect();
        full.push(tmp.as_os_str());
        full.push(c_path.as_os_str());
        if let Err(e) = run_cc(toolchain, &full) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        let timing = CompileTiming {
            unit_seconds: vec![clock.elapsed().as_secs_f64()],
            link_seconds: 0.0,
        };
        std::fs::rename(&tmp, out_so).map_err(|e| fail_io(out_so, e))?;
        return Ok(timing);
    }

    // Write every unit, then compile them concurrently.
    let mut c_paths = Vec::with_capacity(units.len());
    let mut obj_paths = Vec::with_capacity(units.len());
    for (i, unit) in units.iter().enumerate() {
        let c_path = out_so.with_extension(format!("so.u{i}.c"));
        std::fs::write(&c_path, unit).map_err(|e| fail_io(&c_path, e))?;
        obj_paths.push(out_so.with_extension(format!("so.u{i}.{pid}.o")));
        c_paths.push(c_path);
    }
    let cleanup = |paths: &[PathBuf]| {
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    };
    let compiled: Vec<Result<f64, NativeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..units.len())
            .map(|i| {
                let (c_path, obj_path) = (&c_paths[i], &obj_paths[i]);
                scope.spawn(move || {
                    let clock = Instant::now();
                    let args = ["-O2", "-fPIC", "-c", "-ffp-contract=off", "-o"];
                    let mut full: Vec<&std::ffi::OsStr> = args.iter().map(|s| s.as_ref()).collect();
                    full.push(obj_path.as_os_str());
                    full.push(c_path.as_os_str());
                    run_cc(toolchain, &full).map(|()| clock.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("unit compile thread panicked"))
            .collect()
    });
    let mut unit_seconds = Vec::with_capacity(units.len());
    for r in compiled {
        match r {
            Ok(secs) => unit_seconds.push(secs),
            Err(e) => {
                cleanup(&obj_paths);
                return Err(e);
            }
        }
    }

    let clock = Instant::now();
    let args = ["-shared", "-o"];
    let mut full: Vec<&std::ffi::OsStr> = args.iter().map(|s| s.as_ref()).collect();
    full.push(tmp.as_os_str());
    for obj in &obj_paths {
        full.push(obj.as_os_str());
    }
    let linked = run_cc(toolchain, &full);
    let link_seconds = clock.elapsed().as_secs_f64();
    cleanup(&obj_paths);
    if let Err(e) = linked {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, out_so).map_err(|e| fail_io(out_so, e))?;
    Ok(CompileTiming {
        unit_seconds,
        link_seconds,
    })
}

/// Expected identity of a kernel object, validated on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelMeta {
    /// Content-addressed artifact fingerprint.
    pub key: u128,
    /// State dimension.
    pub n_species: usize,
    /// Rate-constant count.
    pub n_rates: usize,
    /// Analytic-Jacobian nnz when `ode_jac` is expected.
    pub jac_nnz: Option<usize>,
    /// `∂f/∂p` nnz when `ode_sens` (which also writes the Jacobian
    /// `ode_jac` writes) is expected.
    pub dfdp_nnz: Option<usize>,
}

type RhsFn = unsafe extern "C" fn(*const f64, *const f64, *mut f64);
type JacFn = unsafe extern "C" fn(*const f64, *const f64, *mut f64, *mut f64);
type SensFn = unsafe extern "C" fn(*const f64, *const f64, *mut f64, *mut f64, *mut f64);

/// A loaded native kernel: a `dlopen`ed shared object whose exported
/// functions evaluate the RHS, and optionally the analytic Jacobian and
/// sensitivity tails, of one compiled model.
///
/// All entry points take slices and assert dimensions, so no unsafety
/// leaks to callers. The underlying handle is closed on drop.
pub struct NativeKernel {
    #[cfg(unix)]
    handle: *mut std::os::raw::c_void,
    rhs: RhsFn,
    jac: Option<JacFn>,
    sens: Option<SensFn>,
    meta: KernelMeta,
    loop_count: usize,
    rolled_instrs: usize,
    path: PathBuf,
}

// Safety: the kernel functions are pure (read inputs, write the provided
// output buffers, no global state), and the raw handle is only used by
// `Drop`, which runs at most once after all borrows end.
unsafe impl Send for NativeKernel {}
unsafe impl Sync for NativeKernel {}

impl fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeKernel")
            .field("path", &self.path)
            .field("key", &format_args!("{:032x}", self.meta.key))
            .field("n_species", &self.meta.n_species)
            .field("n_rates", &self.meta.n_rates)
            .field("jac", &self.jac.is_some())
            .field("sens", &self.sens.is_some())
            .finish()
    }
}

#[cfg(unix)]
mod dl {
    use std::os::raw::{c_char, c_int, c_void};

    #[link(name = "dl")]
    extern "C" {
        pub fn dlopen(filename: *const c_char, flag: c_int) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlclose(handle: *mut c_void) -> c_int;
        pub fn dlerror() -> *mut c_char;
    }

    pub const RTLD_NOW: c_int = 2;

    /// Drain and render the thread's dlerror state.
    pub fn last_error() -> String {
        unsafe {
            let p = dlerror();
            if p.is_null() {
                "unknown dl error".to_string()
            } else {
                std::ffi::CStr::from_ptr(p).to_string_lossy().into_owned()
            }
        }
    }
}

#[cfg(unix)]
impl NativeKernel {
    /// Load and validate a kernel object.
    ///
    /// Returns [`NativeError::LoadFailed`] when the file is not a loadable
    /// shared object, and [`NativeError::Mismatch`] when it loads but was
    /// built for a different artifact (wrong fingerprint, dimensions, ABI,
    /// or missing an expected function). Both cases mean the file should
    /// be quarantined and rebuilt.
    pub fn load(path: &Path, expect: &KernelMeta) -> Result<Self, NativeError> {
        use std::ffi::CString;

        let c_path = CString::new(path.as_os_str().as_encoded_bytes())
            .map_err(|_| NativeError::LoadFailed("path contains NUL".to_string()))?;
        let handle = unsafe { dl::dlopen(c_path.as_ptr(), dl::RTLD_NOW) };
        if handle.is_null() {
            return Err(NativeError::LoadFailed(dl::last_error()));
        }
        // From here on, close the handle on any failure path.
        let close = |e: NativeError| -> NativeError {
            unsafe { dl::dlclose(handle) };
            e
        };
        let sym = |name: &str| -> Result<*mut std::os::raw::c_void, NativeError> {
            let c_name = CString::new(name).expect("symbol names are NUL-free");
            let p = unsafe { dl::dlsym(handle, c_name.as_ptr()) };
            if p.is_null() {
                Err(NativeError::Mismatch(format!("missing symbol {name}")))
            } else {
                Ok(p)
            }
        };
        let read_i32 =
            |name: &str| -> Result<i32, NativeError> { Ok(unsafe { *(sym(name)? as *const i32) }) };
        let read_i64 =
            |name: &str| -> Result<i64, NativeError> { Ok(unsafe { *(sym(name)? as *const i64) }) };

        let result = (|| -> Result<Self, NativeError> {
            let abi = read_i32("rms_abi_version")?;
            if abi != crate::emit_c::KERNEL_ABI_VERSION {
                return Err(NativeError::Mismatch(format!(
                    "abi version {abi}, expected {}",
                    crate::emit_c::KERNEL_ABI_VERSION
                )));
            }
            let key_ptr = sym("rms_key")? as *const u64;
            let key = unsafe { (*key_ptr as u128) | ((*key_ptr.add(1) as u128) << 64) };
            if key != expect.key {
                return Err(NativeError::Mismatch(format!(
                    "fingerprint {key:032x}, expected {:032x}",
                    expect.key
                )));
            }
            let n_species = read_i32("rms_n_species")? as usize;
            let n_rates = read_i32("rms_n_rates")? as usize;
            if n_species != expect.n_species || n_rates != expect.n_rates {
                return Err(NativeError::Mismatch(format!(
                    "dimensions {n_species}x{n_rates}, expected {}x{}",
                    expect.n_species, expect.n_rates
                )));
            }
            let jac_nnz = read_i64("rms_jac_nnz")?;
            let dfdp_nnz = read_i64("rms_dfdp_nnz")?;
            // ABI v2 objects always export the reroll counters (0 when
            // no tape of the kernel had a repeating stanza run).
            let loop_count = read_i64("rms_loop_count")?.max(0) as usize;
            let rolled_instrs = read_i64("rms_rolled_instrs")?.max(0) as usize;

            let rhs: RhsFn = unsafe { std::mem::transmute(sym("ode_rhs")?) };
            let jac = match expect.jac_nnz {
                None => None,
                Some(n) => {
                    if jac_nnz != n as i64 {
                        return Err(NativeError::Mismatch(format!(
                            "jacobian nnz {jac_nnz}, expected {n}"
                        )));
                    }
                    Some(unsafe {
                        std::mem::transmute::<*mut std::ffi::c_void, JacFn>(sym("ode_jac")?)
                    })
                }
            };
            let sens = match expect.dfdp_nnz {
                None => None,
                Some(n) => {
                    if jac.is_none() || dfdp_nnz != n as i64 {
                        return Err(NativeError::Mismatch(format!(
                            "sensitivity nnz {dfdp_nnz}, expected {n} after a Jacobian"
                        )));
                    }
                    Some(unsafe {
                        std::mem::transmute::<*mut std::ffi::c_void, SensFn>(sym("ode_sens")?)
                    })
                }
            };
            Ok(NativeKernel {
                handle,
                rhs,
                jac,
                sens,
                meta: *expect,
                loop_count,
                rolled_instrs,
                path: path.to_path_buf(),
            })
        })();
        result.map_err(close)
    }
}

#[cfg(not(unix))]
impl NativeKernel {
    /// Native kernels require `dlopen`; unsupported on this platform.
    pub fn load(_path: &Path, _expect: &KernelMeta) -> Result<Self, NativeError> {
        Err(NativeError::Unsupported(
            "dlopen-based kernel loading is only implemented for unix".to_string(),
        ))
    }
}

impl NativeKernel {
    /// State dimension.
    pub fn n_species(&self) -> usize {
        self.meta.n_species
    }

    /// Rate-constant count.
    pub fn n_rates(&self) -> usize {
        self.meta.n_rates
    }

    /// Fingerprint baked into the object.
    pub fn key(&self) -> u128 {
        self.meta.key
    }

    /// Path of the loaded shared object.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loop regions the object's kernel was rendered with (0 when it is
    /// straight-line code throughout).
    pub fn loop_count(&self) -> usize {
        self.loop_count
    }

    /// Flat instructions the emitter absorbed into rendered loops.
    pub fn rolled_instrs(&self) -> usize {
        self.rolled_instrs
    }

    /// Evaluate the RHS for one state.
    pub fn eval(&self, rates: &[f64], y: &[f64], ydot: &mut [f64]) {
        assert_eq!(rates.len(), self.meta.n_rates);
        assert_eq!(y.len(), self.meta.n_species);
        assert_eq!(ydot.len(), self.meta.n_species);
        unsafe { (self.rhs)(rates.as_ptr(), y.as_ptr(), ydot.as_mut_ptr()) }
    }

    /// Evaluate RHS + analytic Jacobian values (tape entry order).
    ///
    /// Panics if the kernel was built without `ode_jac`.
    pub fn eval_rhs_jac(&self, rates: &[f64], y: &[f64], ydot: &mut [f64], jac_vals: &mut [f64]) {
        let jac = self.jac.expect("kernel has no ode_jac");
        assert_eq!(rates.len(), self.meta.n_rates);
        assert_eq!(y.len(), self.meta.n_species);
        assert_eq!(ydot.len(), self.meta.n_species);
        assert_eq!(jac_vals.len(), self.meta.jac_nnz.unwrap_or(0));
        unsafe {
            jac(
                rates.as_ptr(),
                y.as_ptr(),
                ydot.as_mut_ptr(),
                jac_vals.as_mut_ptr(),
            )
        }
    }

    /// Evaluate RHS + Jacobian + `∂f/∂p` values (tape entry order).
    ///
    /// Panics if the kernel was built without `ode_sens`.
    pub fn eval_all(
        &self,
        rates: &[f64],
        y: &[f64],
        ydot: &mut [f64],
        jac_vals: &mut [f64],
        dfdp_vals: &mut [f64],
    ) {
        let sens = self.sens.expect("kernel has no ode_sens");
        assert_eq!(rates.len(), self.meta.n_rates);
        assert_eq!(y.len(), self.meta.n_species);
        assert_eq!(ydot.len(), self.meta.n_species);
        assert_eq!(jac_vals.len(), self.meta.jac_nnz.unwrap_or(0));
        assert_eq!(dfdp_vals.len(), self.meta.dfdp_nnz.unwrap_or(0));
        unsafe {
            sens(
                rates.as_ptr(),
                y.as_ptr(),
                ydot.as_mut_ptr(),
                jac_vals.as_mut_ptr(),
                dfdp_vals.as_mut_ptr(),
            )
        }
    }
}

impl Drop for NativeKernel {
    fn drop(&mut self) {
        #[cfg(unix)]
        unsafe {
            dl::dlclose(self.handle);
        }
    }
}

/// Probe the toolchain, compile the translation units (concurrently when
/// there are several) to `out_so`, and load the linked object.
pub fn compile_and_load(
    units: &[String],
    out_so: &Path,
    meta: &KernelMeta,
) -> Result<(NativeKernel, CompileTiming), NativeError> {
    if !cfg!(unix) {
        return Err(NativeError::Unsupported(
            "native kernels are only implemented for unix".to_string(),
        ));
    }
    let toolchain = probe_toolchain()?;
    let timing = compile_kernel(units, out_so, &toolchain)?;
    Ok((NativeKernel::load(out_so, meta)?, timing))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::deriv::{compile_sensitivity, DerivTapes};
    use crate::emit_c::{emit_kernel, EmittedKernel, KernelSpec};
    use crate::expr::{Expr, ExprForest};
    use crate::tape::{lower, reroll, RerollOptions, Tape};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rms-native-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn toy_forest() -> ExprForest {
        // ydot0 = -k0*y0*y1 + k1*y2 ; ydot1 = same ; ydot2 = k0*y0*y1 - k1*y2
        let fwd = |c: f64| Expr::prod(c, vec![Expr::Rate(0), Expr::Species(0), Expr::Species(1)]);
        let rev = |c: f64| Expr::prod(c, vec![Expr::Rate(1), Expr::Species(2)]);
        ExprForest {
            temps: vec![],
            rhs: vec![
                Expr::sum(vec![fwd(-1.0), rev(1.0)]),
                Expr::sum(vec![fwd(-1.0), rev(1.0)]),
                Expr::sum(vec![fwd(1.0), rev(-1.0)]),
            ],
            n_species: 3,
            n_rates: 2,
        }
    }

    fn skip_without_toolchain() -> Option<Toolchain> {
        match probe_toolchain() {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("SKIP: {e}");
                None
            }
        }
    }

    /// A forest lowered to everything a full kernel needs.
    struct Model {
        tape: Tape,
        derivs: DerivTapes,
    }

    impl Model {
        fn new(forest: &ExprForest) -> Model {
            Model {
                tape: lower(forest),
                derivs: DerivTapes::Sensitivity(compile_sensitivity(forest, None).into()),
            }
        }

        fn emit(&self, name: &str, key: u128, max_units: usize) -> EmittedKernel {
            emit_kernel(
                &KernelSpec {
                    name,
                    rhs: &self.tape,
                    derivs: Some(&self.derivs),
                    key,
                },
                max_units,
            )
        }

        fn meta(&self, key: u128) -> KernelMeta {
            KernelMeta {
                key,
                n_species: self.tape.n_species,
                n_rates: self.tape.n_rates,
                jac_nnz: Some(self.derivs.state().nnz()),
                dfdp_nnz: self.derivs.sensitivity().map(|st| st.dfdp_nnz()),
            }
        }

        /// Every entry point of `kernel` against the interpreted tapes,
        /// bit for bit, at a few states.
        fn assert_matches_interpreter(&self, kernel: &NativeKernel) {
            let (tape, jt) = (&self.tape, self.derivs.state());
            let st = self.derivs.sensitivity().expect("compiled with the tail");
            let n = tape.n_species;
            let rates: Vec<f64> = (0..tape.n_rates).map(|i| 0.3 + 0.17 * i as f64).collect();
            let y: Vec<f64> = (0..n).map(|i| 0.05 + 0.011 * i as f64).collect();
            let mut regs = Vec::new();
            let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
            for s in 0..3 {
                let y: Vec<f64> = (0..n)
                    .map(|i| 0.02 + 0.003 * ((i + 5 * s) % 37) as f64)
                    .collect();
                tape.eval_with_scratch(&rates, &y, &mut want, &mut regs);
                kernel.eval(&rates, &y, &mut got);
                assert_eq!(want, got, "rhs at state {s} must be bit-identical");
            }

            // Jacobian and sensitivity groups.
            let mut ydot_a = vec![0.0; n];
            let mut vals_a = vec![0.0; jt.nnz()];
            jt.eval_with_scratch(&rates, &y, &mut ydot_a, &mut vals_a, &mut regs);
            let mut ydot_b = vec![0.0; n];
            let mut vals_b = vec![0.0; jt.nnz()];
            kernel.eval_rhs_jac(&rates, &y, &mut ydot_b, &mut vals_b);
            assert_eq!(vals_a, vals_b);
            assert_eq!(ydot_a, ydot_b);

            let mut jv_a = vec![0.0; st.jac_nnz()];
            let mut dv_a = vec![0.0; st.dfdp_nnz()];
            st.eval_all(&rates, &y, &mut ydot_a, &mut jv_a, &mut dv_a, &mut regs);
            let mut jv_b = vec![0.0; st.jac_nnz()];
            let mut dv_b = vec![0.0; st.dfdp_nnz()];
            kernel.eval_all(&rates, &y, &mut ydot_b, &mut jv_b, &mut dv_b);
            assert_eq!(jv_a, jv_b);
            assert_eq!(dv_a, dv_b);
            assert_eq!(ydot_a, ydot_b);
        }
    }

    #[test]
    fn compiles_loads_and_matches_interpreter() {
        let Some(_) = skip_without_toolchain() else {
            return;
        };
        let model = Model::new(&toy_forest());
        let key = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        let emitted = model.emit("toy", key, 1);
        let dir = tmpdir("roundtrip");
        let so = dir.join("toy.so");
        let (kernel, _) =
            compile_and_load(&emitted.units, &so, &model.meta(key)).expect("compile+load");
        model.assert_matches_interpreter(&kernel);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_corrupt_objects_are_rejected() {
        let Some(_) = skip_without_toolchain() else {
            return;
        };
        let tape = lower(&toy_forest());
        let key = 42u128;
        let emitted = emit_kernel(
            &KernelSpec {
                name: "toy",
                rhs: &tape,
                derivs: None,
                key,
            },
            1,
        );
        let meta = KernelMeta {
            key,
            n_species: 3,
            n_rates: 2,
            jac_nnz: None,
            dfdp_nnz: None,
        };
        let dir = tmpdir("stale");
        let so = dir.join("toy.so");
        compile_and_load(&emitted.units, &so, &meta).expect("compile+load");

        // Wrong fingerprint → Mismatch (stale object for a different model).
        let wrong = KernelMeta { key: 43, ..meta };
        match NativeKernel::load(&so, &wrong) {
            Err(NativeError::Mismatch(m)) => assert!(m.contains("fingerprint"), "{m}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // Expecting a Jacobian the object does not have → Mismatch.
        let wants_jac = KernelMeta {
            jac_nnz: Some(7),
            ..meta
        };
        assert!(matches!(
            NativeKernel::load(&so, &wants_jac),
            Err(NativeError::Mismatch(_))
        ));
        // Garbage bytes → LoadFailed.
        std::fs::write(&so, b"not an elf object").unwrap();
        assert!(matches!(
            NativeKernel::load(&so, &meta),
            Err(NativeError::LoadFailed(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn term(c: f64, rate: u32, species: &[u32]) -> Expr {
        let mut f = vec![Expr::Rate(rate)];
        f.extend(species.iter().map(|&s| Expr::Species(s)));
        Expr::prod(c, f)
    }

    /// Structurally identical reaction stanzas — the reroll pass's target.
    fn stanza_forest(n_eq: usize) -> ExprForest {
        let rhs = (0..n_eq)
            .map(|i| {
                let i = i as u32;
                Expr::sum(vec![
                    term(1.0, i % 8, &[i % 5, (i + 1) % 5]),
                    term(-2.5, (i + 3) % 8, &[(i + 2) % 5]),
                ])
            })
            .collect();
        ExprForest {
            temps: vec![],
            rhs,
            n_species: n_eq.max(5),
            n_rates: 8,
        }
    }

    #[test]
    fn rolled_multiunit_kernel_matches_interpreter_bitwise() {
        let Some(toolchain) = skip_without_toolchain() else {
            return;
        };
        let model = Model::new(&stanza_forest(96));
        let key = 0xfeed_0000_0000_0000_0000_0000_0000_beefu128;
        let emitted = model.emit("stanzas", key, 3);
        assert!(emitted.units.len() > 1, "expected a multi-unit build");
        let dir = tmpdir("rolled");
        let so = dir.join("stanzas.so");
        let timing = compile_kernel(&emitted.units, &so, &toolchain).expect("compile units");
        assert_eq!(timing.unit_seconds.len(), emitted.units.len());
        assert!(
            timing.link_seconds > 0.0,
            "multi-unit builds link separately"
        );
        let kernel = NativeKernel::load(&so, &model.meta(key)).expect("load");
        assert_eq!(kernel.loop_count(), emitted.loop_count);
        assert_eq!(kernel.rolled_instrs(), emitted.rolled_instrs);
        assert!(kernel.loop_count() > 0, "stanza forest must reroll");
        model.assert_matches_interpreter(&kernel);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Equations that share no run of shapes: term counts, species counts
    /// and coefficient classes (1, −1, other) drawn from a seeded stream.
    fn irregular_forest(n_eq: usize, seed: u64) -> ExprForest {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_species = n_eq.max(6) as u32;
        let rhs = (0..n_eq)
            .map(|_| {
                Expr::sum(
                    (0..rng.gen_range(1..6))
                        .map(|_| {
                            let species: Vec<u32> = (0..rng.gen_range(1..4))
                                .map(|_| rng.gen_range(0..n_species))
                                .collect();
                            let c = [1.0, -1.0, 2.5, -0.75][rng.gen_range(0..4)];
                            term(c, rng.gen_range(0..8), &species)
                        })
                        .collect(),
                )
            })
            .collect();
        ExprForest {
            temps: vec![],
            rhs,
            n_species: n_species as usize,
            n_rates: 8,
        }
    }

    /// The shapes the locals and spill-planned emission forms used to
    /// serve: tapes in which nothing repeats, one small enough for a
    /// single chunk function per member, one whose groups span several
    /// chunk functions and two translation units.
    #[test]
    fn loop_free_kernels_match_interpreter_bitwise() {
        let Some(_) = skip_without_toolchain() else {
            return;
        };
        let dir = tmpdir("loopfree");
        for (tag, n_eq, seed, max_units) in [("small", 14, 3u64, 1), ("large", 60, 5, 2)] {
            let model = Model::new(&irregular_forest(n_eq, seed));
            let len = model.tape.len();
            assert_eq!(
                reroll(&model.tape, &RerollOptions::default()).loop_count(),
                0,
                "{tag}: the forest is meant to be irregular"
            );
            let key = 0xabcd_0000 + n_eq as u128;
            let emitted = model.emit(tag, key, max_units);
            assert_eq!(emitted.units.len(), max_units, "{tag}");
            if max_units == 1 {
                assert!(len <= 256, "{tag}: {len} instructions");
                assert!(!emitted.units[0].contains("rms_ode_rhs_k1("));
            } else {
                assert!(len > 512, "{tag}: {len} instructions");
                assert!(emitted.units.concat().contains("rms_ode_rhs_k2("));
            }
            let so = dir.join(format!("{tag}.so"));
            let (kernel, _) =
                compile_and_load(&emitted.units, &so, &model.meta(key)).expect("compile+load");
            assert_eq!(kernel.loop_count(), emitted.loop_count);
            model.assert_matches_interpreter(&kernel);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
