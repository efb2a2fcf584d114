//! Content-addressed artifact cache.
//!
//! Keyed by a 128-bit fingerprint of the model source plus every option
//! that affects compilation (see `CompilerSession::fingerprint`). Two
//! layers:
//!
//! * **in-memory** — a process-wide map of `Arc`-shared artifacts with
//!   per-key build locks, so concurrent requests for the same model
//!   compile it exactly once per process (the others block and share the
//!   result);
//! * **on-disk** (optional) — a `.rms-cache/` directory of serialized
//!   artifacts surviving across processes; best-effort (I/O errors are
//!   treated as misses, writes go through a temp file + rename).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::diag::Diagnostic;
use crate::session::CompiledArtifact;

/// How a compile request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Compiled from scratch this call.
    Cold,
    /// Served from the in-process cache.
    Memory,
    /// Revived from the on-disk cache.
    Disk,
}

impl CacheStatus {
    /// Stable lowercase name (JSON/CLI).
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Cold => "cold",
            CacheStatus::Memory => "memory",
            CacheStatus::Disk => "disk",
        }
    }
}

/// Whether a session consults the cache at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Read and populate both cache layers.
    #[default]
    ReadWrite,
    /// Always compile cold; never read or write either layer.
    Bypass,
}

/// Cumulative process-wide cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// In-memory hits.
    pub hits: u64,
    /// On-disk revivals.
    pub disk_hits: u64,
    /// Successful cold builds.
    pub misses: u64,
    /// In-memory artifacts dropped by the memory-budget eviction.
    pub evictions: u64,
    /// Corrupt on-disk entries moved aside by the read path.
    pub quarantines: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static QUARANTINES: AtomicU64 = AtomicU64::new(0);
/// Memory budget in bytes; `u64::MAX` = unlimited (the default).
static MEMORY_BUDGET: AtomicU64 = AtomicU64::new(u64::MAX);
/// Monotonic logical clock for LRU ordering.
static USE_CLOCK: AtomicU64 = AtomicU64::new(0);

/// A cached artifact and the disk entries known to hold it: a memory hit
/// persists into a cache directory it has not seen (one `stat`, once per
/// directory), so whichever session compiled the model first, every
/// session with a cache directory leaves its entry behind.
struct Cached {
    artifact: Arc<CompiledArtifact>,
    on_disk: Vec<PathBuf>,
}

impl Cached {
    fn new(artifact: CompiledArtifact, disk: Option<&Path>) -> Cached {
        Cached {
            artifact: Arc::new(artifact),
            on_disk: disk.map(Path::to_path_buf).into_iter().collect(),
        }
    }
}

type Slot = Arc<Mutex<Option<Cached>>>;

/// One cached key: the artifact slot plus LRU bookkeeping.
struct Entry {
    slot: Slot,
    /// `USE_CLOCK` value at the last lookup (under the registry lock).
    last_used: u64,
}

impl Default for Entry {
    fn default() -> Entry {
        Entry {
            slot: Slot::default(),
            last_used: USE_CLOCK.fetch_add(1, Ordering::Relaxed),
        }
    }
}

fn registry() -> &'static Mutex<HashMap<u128, Entry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u128, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Lock, tolerating poisoning: a panicked builder must not wedge every
/// later compile of the same model.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Snapshot of the process-wide statistics.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        disk_hits: DISK_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        quarantines: QUARANTINES.load(Ordering::Relaxed),
    }
}

/// Record that a corrupt disk entry was quarantined (called by the
/// session's disk-read path).
pub fn note_quarantine() {
    QUARANTINES.fetch_add(1, Ordering::Relaxed);
}

/// Bound the in-memory layer to roughly `bytes` (`None` = unlimited).
/// When an insert pushes the estimated total over the budget,
/// least-recently-used artifacts are dropped (the disk layer, when
/// configured, still serves them without a recompile).
pub fn set_memory_budget(bytes: Option<u64>) {
    MEMORY_BUDGET.store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
    if bytes.is_some() {
        enforce_budget(None);
    }
}

/// Evict least-recently-used artifacts until the estimated total fits
/// the budget. `protect` (the key just inserted) is never evicted, so a
/// single over-budget artifact still caches. Slots whose mutex is held
/// elsewhere (a build in progress) are skipped via `try_lock`; lock
/// order is registry → slot, the same as `lookup_or_build`, and slot
/// acquisition never blocks, so the inversion cannot deadlock.
fn enforce_budget(protect: Option<u128>) {
    let budget = MEMORY_BUDGET.load(Ordering::Relaxed);
    if budget == u64::MAX {
        return;
    }
    let mut reg = lock(registry());
    let mut filled: Vec<(u128, u64, u64)> = Vec::new();
    let mut total: u64 = 0;
    for (&key, entry) in reg.iter() {
        let Ok(guard) = entry.slot.try_lock() else {
            continue;
        };
        if let Some(cached) = guard.as_ref() {
            let bytes = cached.artifact.approx_bytes();
            total += bytes;
            filled.push((key, entry.last_used, bytes));
        }
    }
    if total <= budget {
        return;
    }
    filled.sort_by_key(|&(_, last_used, _)| last_used);
    for (key, _, bytes) in filled {
        if Some(key) == protect {
            continue;
        }
        if let Some(entry) = reg.get(&key) {
            if let Ok(mut guard) = entry.slot.try_lock() {
                *guard = None;
            } else {
                continue; // picked up by a hit since the scan; keep it
            }
        }
        reg.remove(&key);
        EVICTIONS.fetch_add(1, Ordering::Relaxed);
        total = total.saturating_sub(bytes);
        if total <= budget {
            break;
        }
    }
}

/// Drop every in-memory artifact (the disk layer is untouched). Intended
/// for tests that exercise the disk path.
pub fn clear_memory() {
    lock(registry()).clear();
}

/// Path of the serialized artifact for `key` under a cache directory.
pub fn disk_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!("{key:032x}.rmsc"))
}

/// Serve `key` from memory, then disk, then a cold build — whichever
/// comes first. The per-key slot lock guarantees at most one cold build
/// per key per process even under concurrency; losers of the race block
/// and then share the winner's artifact.
///
/// `disk` is the session's entry for `key` ([`disk_path`]), `None` for
/// sessions without a cache directory; `try_disk` reads it and `persist`
/// writes it. A successful call leaves the entry behind, a memory hit
/// included — checked once per cache directory per process, so an entry
/// deleted while its slot stays in memory is not written again. A failed
/// build leaves the slot empty (the next request retries) and counts
/// nothing.
pub fn lookup_or_build(
    key: u128,
    disk: Option<&Path>,
    try_disk: impl FnOnce(&Path) -> Option<CompiledArtifact>,
    build: impl FnOnce() -> Result<CompiledArtifact, Diagnostic>,
    persist: impl FnOnce(&Path, &CompiledArtifact),
) -> Result<(Arc<CompiledArtifact>, CacheStatus), Diagnostic> {
    let slot: Slot = {
        let mut reg = lock(registry());
        let entry = reg.entry(key).or_default();
        entry.last_used = USE_CLOCK.fetch_add(1, Ordering::Relaxed);
        entry.slot.clone()
    };
    let mut guard = lock(&slot);
    if let Some(cached) = guard.as_mut() {
        HITS.fetch_add(1, Ordering::Relaxed);
        if let Some(path) = disk.filter(|path| !cached.on_disk.iter().any(|p| p == path)) {
            if !path.exists() {
                persist(path, &cached.artifact);
            }
            cached.on_disk.push(path.to_path_buf());
        }
        return Ok((Arc::clone(&cached.artifact), CacheStatus::Memory));
    }
    let (cached, status) = match disk.and_then(try_disk) {
        Some(artifact) => {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
            (Cached::new(artifact, disk), CacheStatus::Disk)
        }
        None => {
            let artifact = build()?;
            MISSES.fetch_add(1, Ordering::Relaxed);
            if let Some(path) = disk {
                persist(path, &artifact);
            }
            (Cached::new(artifact, disk), CacheStatus::Cold)
        }
    };
    let artifact = Arc::clone(&cached.artifact);
    *guard = Some(cached);
    drop(guard);
    enforce_budget(Some(key));
    Ok((artifact, status))
}
