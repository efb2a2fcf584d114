//! Totality of the disk-cache entry format, byte by byte: whatever is in
//! a cache file — a torn write, a flipped bit, or bytes crafted to pass
//! the checksum — loading it ends in a revived artifact that is
//! well-formed or in quarantine + a cold compile. Never a panic, never a
//! hang, never an allocation the file's length does not pay for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rms_driver::serial;
use rms_suite::{cache, CacheStatus, Compiled, CompilerSession, OptLevel, SessionOptions};

/// The system allocator, remembering the largest single request.
struct Watched;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic beside it.
unsafe impl GlobalAlloc for Watched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's arguments, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watched = Watched;

/// Five species, one reaction family, a closure that stops at its
/// generation cap: an entry with every section — the derivative group
/// with its optional tail, the plan's elimination order, a span-carrying
/// warning — in ~2 KB.
const MODEL: &str = "rate K_sc = 2;\n\
    molecule Sx = \"CSSSSC\" init 1.0;\n\
    rule scission { site bond S ~ S order single; action disconnect; rate K_sc; }\n\
    limit generations 1;\n";

/// The checksum of the format, stated independently: FNV-1a over
/// little-endian 8-byte words, the tail zero-padded, the length last.
fn checksum(payload: &[u8]) -> u64 {
    let mut words = payload.to_vec();
    words.resize((payload.len() / 8 + 1) * 8, 0);
    words.extend((payload.len() as u64).to_le_bytes());
    words.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bytes of the header: magic, version, checksum.
const HEADER: usize = 16;

fn compile(session: &CompilerSession) -> Compiled {
    cache::clear_memory();
    session
        .compile_source("capped.rdl", MODEL)
        .expect("the model compiles")
}

/// What the decoder made of `bytes`, and the largest allocation it asked
/// for on the way.
fn decode(bytes: &[u8], key: u128) -> (Option<serial::DiskArtifact>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let decoded = serial::decode(bytes, key);
    (decoded, LARGEST.load(Ordering::Relaxed))
}

/// The well-formedness `decode` promises of what it accepts, restated.
fn assert_well_formed(artifact: serial::DiskArtifact, what: &str) {
    let n = artifact.compiled.tape.n_species;
    artifact.compiled.tape.validate().expect(what);
    let derivs = artifact.derivs.expect(what);
    let state = derivs.state();
    let mut program = vec![(&state.rhs, n), (&state.jac, state.entries.len())];
    let tail = derivs.sensitivity();
    program.extend(tail.map(|s| (&s.dfdp, s.dfdp_entries.len())));
    rms_core::validate_program(&program).expect(what);
    let order = artifact.order.expect(what);
    assert!(rms_solver::is_permutation(&order, n), "{what}");
}

#[test]
fn no_stored_byte_can_do_worse_than_a_cold_compile() {
    let dir = std::env::temp_dir().join(format!("rms-cache-totality-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.sensitivity = true;
    options.cache_dir = Some(dir.clone());
    let session = CompilerSession::with_options(options);

    let cold = compile(&session);
    assert_eq!(cold.status, CacheStatus::Cold);
    let key = cold.artifact.key;
    let path = cache::disk_path(&dir, key);
    let good = std::fs::read(&path).expect("the cold compile stored its entry");
    assert_eq!(
        u64::from_le_bytes(good[8..HEADER].try_into().unwrap()),
        checksum(&good[HEADER..]),
        "the test's statement of the checksum is the format's"
    );
    let intact = serial::decode(&good, key).expect("the entry decodes");
    assert_eq!(intact.warnings, cold.artifact.warnings);
    assert_eq!(intact.warnings.len(), 1);
    // Where the optional tail's `∂f/∂p` entry list sits in the entry: a
    // count, then `(row, rate)` pairs of little-endian `u32`s.
    let tail = intact.derivs.as_ref().and_then(|d| d.sensitivity());
    let dfdp_entries = &tail.expect("compiled with the tail").dfdp_entries;
    let mut list = (2 * dfdp_entries.len() as u64).to_le_bytes().to_vec();
    for &(row, rate) in dfdp_entries {
        list.extend(row.to_le_bytes());
        list.extend(rate.to_le_bytes());
    }
    let tail_at = (HEADER..good.len() - list.len())
        .find(|&at| good[at..].starts_with(&list))
        .expect("the tail's entry list is in the entry");
    let in_tail = |at: usize| (tail_at..tail_at + list.len()).contains(&at);
    assert_well_formed(intact, "the entry as stored");
    // Every byte of a small entry; a larger one is sampled.
    let stride = good.len() / 4_000 + 1;
    assert_eq!(stride, 1, "the tail is visited byte by byte");
    // What the session makes of a refused entry: quarantine, a cold
    // compile, a good entry in its place.
    let assert_recovers = |bad: &[u8], what: &str| {
        std::fs::write(&path, bad).expect("entry overwritten");
        let quarantines = cache::stats().quarantines;
        assert_eq!(compile(&session).status, CacheStatus::Cold, "{what}");
        assert_eq!(cache::stats().quarantines, quarantines + 1, "{what}");
        let kept = std::fs::read(format!("{}.corrupt", path.display())).unwrap();
        assert!(kept == bad, "{what}: the bad bytes are kept aside");
        assert_eq!(compile(&session).status, CacheStatus::Disk, "{what}");
    };

    // Every truncation and every single-byte flip is refused; through
    // the session (one case in 256), that is `Cold` and one more
    // quarantine.
    for len in (0..good.len()).step_by(stride) {
        let what = format!("truncated to {len}");
        assert!(decode(&good[..len], key).0.is_none(), "{what}");
        if len % 256 == 0 {
            assert_recovers(&good[..len], &what);
        }
    }
    // An entry of the layout before this one — each derivative group in a
    // section of its own — is refused on its version, whatever follows.
    let mut bytes = good.clone();
    assert_eq!(bytes[4..8], 4u32.to_le_bytes());
    bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
    assert!(decode(&bytes, key).0.is_none(), "version 3");
    assert_recovers(&bytes, "version 3");
    let mut bytes = good.clone();
    for at in (0..good.len()).step_by(stride) {
        for mask in [0x01, 0x80] {
            let what = format!("byte {at} ^ {mask:#x}");
            bytes[at] ^= mask;
            assert!(decode(&bytes, key).0.is_none(), "{what}");
            if at % 256 == 0 {
                assert_recovers(&bytes, &what);
            }
            bytes[at] ^= mask;
        }
    }

    // The same flips with the checksum re-stamped, so that the payload
    // parsers meet them: refused, or an artifact whose every program
    // validates and whose stored order is a permutation — which the
    // session (one case in 64) revives or recompiles, but survives.
    let (mut refused, mut accepted, mut refused_in_tail) = (0, 0, 0);
    for at in (HEADER..good.len()).step_by(stride) {
        for mask in [0x01, 0x80] {
            let what = format!("byte {at} ^ {mask:#x}, re-stamped");
            bytes[at] ^= mask;
            let stamp = checksum(&bytes[HEADER..]).to_le_bytes();
            bytes[8..HEADER].copy_from_slice(&stamp);
            let (decoded, largest) = decode(&bytes, key);
            assert!(
                largest <= 32 * bytes.len(),
                "{what}: one allocation of {largest} bytes for a {}-byte entry",
                bytes.len()
            );
            match decoded {
                None => {
                    refused += 1;
                    refused_in_tail += usize::from(in_tail(at));
                }
                Some(artifact) => {
                    accepted += 1;
                    assert_well_formed(artifact, &what);
                }
            }
            if at % 64 == 0 {
                std::fs::write(&path, &bytes).expect("entry overwritten");
                assert_ne!(compile(&session).status, CacheStatus::Memory, "{what}");
            }
            bytes[at] ^= mask;
        }
    }
    // Both outcomes occur: structure is checked, values (an f64 constant,
    // a stage's seconds) are the checksum's to protect.
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );
    // The tail's structure is checked like the rest: an entry out of
    // range or out of order is refused, not revived.
    assert!(refused_in_tail > 0, "no flip inside the tail was refused");
    let _ = std::fs::remove_dir_all(&dir);
}
