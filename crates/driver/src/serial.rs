//! Best-effort binary serialization for the on-disk artifact cache.
//!
//! Hand-rolled, versioned little-endian format (the workspace carries no
//! serde). The disk layer is a cache, not an interchange format: any
//! parse problem, version skew, or key mismatch is treated as a miss and
//! the model recompiles cold.
//!
//! An entry holds what a solve over the artifact needs, so that reviving
//! it derives nothing: network topology (names/initials/reactions —
//! molecule structures are intentionally dropped), the rate table, the
//! optimized forest + tape + stage counts, the derivative group the
//! request compiled (the Jacobian pair, then the `∂f/∂p` tail if it has
//! one, validated on load as one program over the shared register file),
//! the elimination order of the sparse-Newton plan (the plan itself is the
//! symbolic fill under that order, rebuilt on first use), the compile's
//! warnings, and the pipeline report. The ODE system is *not* stored — it
//! regenerates deterministically from network + rates — and the exec
//! tape re-decodes from the stored tape.
//!
//! Every length read from the file is checked against the bytes that are
//! left before anything is allocated for it, so no input — truncated,
//! bit-flipped, or crafted with a matching checksum — makes a load panic,
//! hang, or allocate more than a small multiple of the file's size.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use rms_core::{
    CompiledOde, DerivTapes, Expr, ExprForest, Instr, JacobianTapes, Operand, SensitivityTapes,
    StageCounts, Tape, TempId,
};
use rms_odegen::OpCounts;
use rms_rcip::{RateId, RateTable};
use rms_rdl::{Reaction, ReactionNetwork, SpeciesId};

use crate::diag::Diagnostic;
use crate::report::{PipelineReport, StageRecord};
use crate::session::CompiledArtifact;
use crate::stage::Stage;

const MAGIC: &[u8; 4] = b"RMSC";
const VERSION: u32 = 4;

/// Why a disk-cache load failed. The caller's policy differs: a missing
/// entry is an ordinary miss, while a corrupt one should be quarantined
/// so the cold compile can rewrite a good entry in its place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// No readable file at the path (never cached, or unreadable).
    Missing,
    /// The file exists but failed the magic, version, checksum, key, or
    /// structural checks — truncated, bit-flipped, stale-format, or
    /// foreign content.
    Corrupt,
}

/// FNV-1a 64-bit over `bytes` taken as little-endian 8-byte words (the
/// tail zero-padded, the length folded in last): cheap, dependency-free
/// integrity check for the payload (this is corruption detection, not
/// authentication). Each step is a bijection of the state, so any change
/// confined to one word — every single-byte flip — changes the sum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let words = bytes.chunks_exact(8);
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let h = words
        .map(|w| u64::from_le_bytes(w.try_into().expect("chunks of 8")))
        .fold(0xcbf2_9ce4_8422_2325, step);
    step(step(h, u64::from_le_bytes(tail)), bytes.len() as u64)
}

/// Move a corrupt cache entry aside (same directory, `.corrupt` suffix)
/// so the next store can rewrite a good file and the bad bytes stay
/// available for postmortems. Best-effort: on rename failure the entry
/// is deleted instead, and failure to delete is swallowed.
pub fn quarantine(path: &Path) {
    let mut quarantined = path.as_os_str().to_owned();
    quarantined.push(".corrupt");
    if std::fs::rename(path, &quarantined).is_err() {
        let _ = std::fs::remove_file(path);
    }
}

/// The disk-resident subset of a [`CompiledArtifact`]; the session
/// regenerates the rest on revival.
pub struct DiskArtifact {
    /// Model label.
    pub name: String,
    /// Network topology (structureless species).
    pub network: ReactionNetwork,
    /// Rate table (ids and canonical names reproduced exactly).
    pub rates: RateTable,
    /// Optimizer output.
    pub compiled: CompiledOde,
    /// The derivative group, when the original compile ran *Deriv*.
    pub derivs: Option<DerivTapes>,
    /// Elimination order of the sparse-Newton plan over the analytic
    /// Jacobian pattern, when the artifact had one: a permutation of
    /// `0..n_species`.
    pub order: Option<Vec<u32>>,
    /// The original compile's warnings.
    pub warnings: Vec<Diagnostic>,
    /// The original compile's report.
    pub report: PipelineReport,
    /// Content address (verified against the requested key on load).
    pub key: u128,
    /// Equation-generator simplify switch of the original compile.
    pub gen_simplify: bool,
}

/// Serialize `artifact` to `path`, via a temp file + rename so a crashed
/// writer never leaves a torn entry. Errors are swallowed: the disk
/// layer is best-effort.
pub fn store(path: &Path, artifact: &CompiledArtifact) {
    let mut w = Writer::default();
    w.u128(artifact.key);
    w.bool(artifact.gen_simplify);
    w.str(&artifact.name);
    write_network(&mut w, &artifact.network);
    write_rates(&mut w, &artifact.rates);
    write_forest(&mut w, &artifact.compiled.forest);
    write_tape(&mut w, &artifact.compiled.tape);
    write_stage_counts(&mut w, &artifact.compiled.stages);
    w.opt(artifact.jacobian.as_deref(), |w, state| {
        write_group(w, state, artifact.sensitivity.as_deref());
    });
    let order = artifact.kernels.patterns().order();
    w.opt(order, |w, order| w.u32s(order.iter().copied()));
    w.seq(&artifact.warnings, |w, warning| {
        w.str(warning.stage.name());
        w.str(&warning.message);
        // Line 0 is "no span" (`Diagnostic::with_span` drops it).
        w.usize(warning.span.map_or(0, |s| s.line));
        w.usize(warning.span.map_or(0, |s| s.column));
    });
    write_report(&mut w, &artifact.report);

    // Header: magic + version + payload checksum. The checksum turns a
    // silent bit flip in stored f64 data (which would otherwise revive
    // into a wrong-but-plausible artifact) into a detectable corruption.
    let mut h = Writer::default();
    h.bytes(MAGIC);
    h.u32(VERSION);
    h.u64(fnv1a64(&w.buf));

    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let ok = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(&h.buf).and_then(|()| f.write_all(&w.buf)))
        .and_then(|()| std::fs::rename(&tmp, path));
    if ok.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Deserialize the artifact at `path`. [`LoadError::Missing`] when the
/// file cannot be read at all; [`LoadError::Corrupt`] when it exists but
/// fails any format, checksum, version, key, or structural check.
pub fn load(path: &Path, expected_key: u128) -> Result<DiskArtifact, LoadError> {
    let buf = std::fs::read(path).map_err(|_| LoadError::Missing)?;
    decode(&buf, expected_key).ok_or(LoadError::Corrupt)
}

/// [`load`] on the bytes of an entry: header (magic, version, payload
/// checksum), then the payload.
pub fn decode(buf: &[u8], expected_key: u128) -> Option<DiskArtifact> {
    let mut r = Reader { buf, at: 0 };
    if r.bytes(4)? != MAGIC || r.u32()? != VERSION || r.u64()? != fnv1a64(&buf[r.at..]) {
        return None;
    }
    parse_payload(&mut r, expected_key)
}

/// Parse the checksummed payload (everything after the header).
fn parse_payload(r: &mut Reader, expected_key: u128) -> Option<DiskArtifact> {
    let key = r.u128()?;
    if key != expected_key {
        return None;
    }
    let gen_simplify = r.bool()?;
    let name = r.str()?;
    let network = read_network(r)?;
    let rates = read_rates(r)?;
    let forest = read_forest(r)?;
    let tape = read_tape(r)?;
    tape.validate().ok()?;
    let stages = read_stage_counts(r)?;
    let derivs = r.opt(|r| read_group(r, &tape))?;
    let order = r.opt(|r| {
        r.u32s()
            .filter(|order| rms_solver::is_permutation(order, tape.n_species))
    })?;
    let warnings = r.seq(32, |r| {
        let stage: Stage = r.str()?.parse().ok()?;
        let warning = Diagnostic::warning(stage, r.str()?);
        Some(warning.with_span(r.usize()?, r.usize()?))
    })?;
    let report = read_report(r)?;
    if r.at != r.buf.len() {
        return None;
    }
    Some(DiskArtifact {
        name,
        network,
        rates,
        compiled: CompiledOde {
            forest,
            tape: Arc::new(tape),
            stages,
        },
        derivs,
        order,
        warnings,
        report,
        key,
        gen_simplify,
    })
}

// ---- primitives -------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
    /// A one-byte variant tag and the index it carries.
    fn tagged(&mut self, tag: u8, index: u32) {
        self.u8(tag);
        self.u32(index);
    }
    /// A length-prefixed array, one bulk run of little-endian words.
    fn u32s(&mut self, v: impl ExactSizeIterator<Item = u32>) {
        self.usize(v.len());
        v.for_each(|x| self.u32(x));
    }
    /// An entry list as the `u32` array `[row₀, col₀, row₁, col₁, …]`.
    fn pairs(&mut self, v: &[(u32, u32)]) {
        self.usize(2 * v.len());
        for &(i, j) in v {
            self.u32(i);
            self.u32(j);
        }
    }
    /// A presence byte, then the value if there is one.
    fn opt<T: ?Sized>(&mut self, v: Option<&T>, write: impl FnOnce(&mut Writer, &T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            write(self, v);
        }
    }
    /// A count, then every item.
    fn seq<T>(&mut self, items: &[T], write: impl Fn(&mut Writer, &T)) {
        self.usize(items.len());
        for item in items {
            write(self, item);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn bytes(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.at..end];
        self.at = end;
        Some(out)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }
    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.bytes(16)?.try_into().ok()?))
    }
    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.usize()?;
        String::from_utf8(self.bytes(n)?.to_vec()).ok()
    }
    /// An element count, refused unless the bytes that are left can hold
    /// that many elements of at least `min_bytes` each — so a caller may
    /// allocate for the count it gets.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = self.usize()?;
        (n.checked_mul(min_bytes)? <= self.buf.len() - self.at).then_some(n)
    }
    /// A size a tape or forest declares (registers, species, rates): the
    /// evaluators allocate that much, and an entry that really has that
    /// many of anything is longer than the number.
    fn dim(&mut self) -> Option<usize> {
        self.usize().filter(|&n| n <= self.buf.len())
    }
    fn u32s(&mut self) -> Option<Vec<u32>> {
        let n = self.count(4)?;
        let word = |w: &[u8]| u32::from_le_bytes(w.try_into().expect("chunks of 4"));
        Some(self.bytes(4 * n)?.chunks_exact(4).map(word).collect())
    }
    fn pairs(&mut self) -> Option<Entries> {
        let flat = self.u32s()?;
        (flat.len() % 2 == 0).then(|| flat.chunks_exact(2).map(|p| (p[0], p[1])).collect())
    }
    fn opt<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.bool()? {
            read(self).map(Some)
        } else {
            Some(None)
        }
    }
    /// [`count`](Reader::count) items, each through `read`.
    fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.count(min_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Some(out)
    }
}

// ---- composites -------------------------------------------------------

fn write_network(w: &mut Writer, network: &ReactionNetwork) {
    w.usize(network.species_count());
    for (_, species) in network.species_iter() {
        w.str(&species.name);
        w.f64(species.initial_concentration);
    }
    w.usize(network.reaction_count());
    for reaction in network.reactions() {
        w.u32s(reaction.reactants.iter().map(|id| id.0));
        w.u32s(reaction.products.iter().map(|id| id.0));
        w.str(&reaction.rate);
        w.str(&reaction.rule);
    }
}

fn read_network(r: &mut Reader) -> Option<ReactionNetwork> {
    let mut network = ReactionNetwork::new();
    let n_species = r.count(16)?;
    for i in 0..n_species {
        let name = r.str()?;
        let initial = r.f64()?;
        let id = network.add_abstract_species(&name, initial);
        if id != SpeciesId(i as u32) {
            return None; // duplicate name: ids would shift
        }
    }
    let side = |r: &mut Reader| -> Option<Vec<SpeciesId>> {
        let ids = r.u32s()?;
        let known = ids.iter().all(|&id| (id as usize) < n_species);
        known.then(|| ids.into_iter().map(SpeciesId).collect())
    };
    for _ in 0..r.count(32)? {
        network.add_reaction_event(Reaction {
            reactants: side(r)?,
            products: side(r)?,
            rate: r.str()?,
            rule: r.str()?,
        });
    }
    Some(network)
}

fn write_rates(w: &mut Writer, rates: &RateTable) {
    w.usize(rates.name_count());
    for name in rates.names() {
        w.str(name);
        w.f64(rates.get(name).expect("listed name has a value"));
    }
    w.usize(rates.distinct_count());
    for id in 0..rates.distinct_count() {
        w.opt(rates.bounds(RateId(id as u32)).as_ref(), |w, b| {
            w.f64(b.lo);
            w.f64(b.hi);
        });
    }
}

fn read_rates(r: &mut Reader) -> Option<RateTable> {
    let mut rates = RateTable::default();
    for _ in 0..r.count(16)? {
        let name = r.str()?;
        let value = r.f64()?;
        rates.define(&name, value).ok()?;
    }
    let distinct = r.usize()?;
    if distinct != rates.distinct_count() {
        return None;
    }
    for id in 0..distinct {
        if let Some((lo, hi)) = r.opt(|r| Some((r.f64()?, r.f64()?)))? {
            rates.set_bounds(RateId(id as u32), lo, hi).ok()?;
        }
    }
    Some(rates)
}

fn write_expr(w: &mut Writer, expr: &Expr) {
    match expr {
        Expr::Const(c) => {
            w.u8(0);
            w.f64(c.0);
        }
        Expr::Rate(i) => w.tagged(1, *i),
        Expr::Species(i) => w.tagged(2, *i),
        Expr::Temp(t) => w.tagged(3, t.0),
        Expr::Prod(c, factors) => {
            w.u8(4);
            w.f64(c.0);
            w.seq(factors, write_expr);
        }
        Expr::Sum(children) => {
            w.u8(5);
            w.seq(children, write_expr);
        }
    }
}

fn read_expr(r: &mut Reader, depth: usize) -> Option<Expr> {
    if depth > 512 {
        return None; // corrupt nesting; real forests are shallow
    }
    let child = |r: &mut Reader| read_expr(r, depth + 1);
    Some(match r.u8()? {
        0 => Expr::constant(r.f64()?),
        1 => Expr::Rate(r.u32()?),
        2 => Expr::Species(r.u32()?),
        3 => Expr::Temp(TempId(r.u32()?)),
        // Bypass the smart constructor: the stored tree is already
        // canonical; re-normalizing must not alter it.
        4 => Expr::Prod(rms_core::Coeff(r.f64()?), r.seq(5, child)?),
        5 => Expr::Sum(r.seq(5, child)?),
        _ => return None,
    })
}

fn write_forest(w: &mut Writer, forest: &ExprForest) {
    w.seq(&forest.temps, write_expr);
    w.seq(&forest.rhs, write_expr);
    w.usize(forest.n_species);
    w.usize(forest.n_rates);
}

fn read_forest(r: &mut Reader) -> Option<ExprForest> {
    Some(ExprForest {
        temps: r.seq(5, |r| read_expr(r, 0))?,
        rhs: r.seq(5, |r| read_expr(r, 0))?,
        n_species: r.dim()?,
        n_rates: r.dim()?,
    })
}

fn write_operand(w: &mut Writer, op: &Operand) {
    match op {
        Operand::Reg(i) => w.tagged(0, *i),
        Operand::Species(i) => w.tagged(1, *i),
        Operand::Rate(i) => w.tagged(2, *i),
        Operand::Const(v) => {
            w.u8(3);
            w.f64(*v);
        }
    }
}

fn read_operand(r: &mut Reader) -> Option<Operand> {
    Some(match r.u8()? {
        0 => Operand::Reg(r.u32()?),
        1 => Operand::Species(r.u32()?),
        2 => Operand::Rate(r.u32()?),
        3 => Operand::Const(r.f64()?),
        _ => return None,
    })
}

fn write_tape(w: &mut Writer, tape: &Tape) {
    w.seq(&tape.instrs, |w, instr| {
        let (tag, dst, a, b) = match *instr {
            Instr::Add { dst, a, b } => (0, dst, a, Some(b)),
            Instr::Sub { dst, a, b } => (1, dst, a, Some(b)),
            Instr::Mul { dst, a, b } => (2, dst, a, Some(b)),
            Instr::Neg { dst, a } => (3, dst, a, None),
            Instr::Copy { dst, a } => (4, dst, a, None),
            Instr::Store { idx, a } => (5, idx, a, None),
        };
        w.tagged(tag, dst);
        write_operand(w, &a);
        if let Some(b) = b {
            write_operand(w, &b);
        }
    });
    w.usize(tape.n_regs);
    w.usize(tape.n_species);
    w.usize(tape.n_rates);
}

fn read_tape(r: &mut Reader) -> Option<Tape> {
    let instrs = r.seq(10, |r| {
        let (tag, dst, a) = (r.u8()?, r.u32()?, read_operand(r)?);
        let mut b = || read_operand(r);
        Some(match tag {
            0 => Instr::Add { dst, a, b: b()? },
            1 => Instr::Sub { dst, a, b: b()? },
            2 => Instr::Mul { dst, a, b: b()? },
            3 => Instr::Neg { dst, a },
            4 => Instr::Copy { dst, a },
            5 => Instr::Store { idx: dst, a },
            _ => return None,
        })
    })?;
    // No standalone validation here: a derivative tape is only
    // well-formed as part of its group's program (see `read_group`).
    Some(Tape {
        instrs,
        n_regs: r.dim()?,
        n_species: r.dim()?,
        n_rates: r.dim()?,
    })
}

/// Where a derivative tape's outputs land: one `(row, column)` each.
type Entries = Vec<(u32, u32)>;

/// The derivative group: tapes that run back to back on one register
/// file — the RHS and the Jacobian tape with the `(row, column)` its
/// outputs land at, then, behind a presence byte, the `∂f/∂p` tape with
/// its `(row, rate)` list.
fn write_group(w: &mut Writer, state: &JacobianTapes, tail: Option<&SensitivityTapes>) {
    write_tape(w, &state.rhs);
    write_tape(w, &state.jac);
    w.pairs(&state.entries);
    w.opt(tail, |w, tail| {
        write_tape(w, &tail.dfdp);
        w.pairs(&tail.dfdp_entries);
    });
}

/// Read the group compiled beside `main` (the same species and rates).
/// Entries are row-major, strictly ascending and in range, and the tapes
/// validate as one program — a derivative tape reads registers the
/// earlier ones wrote and stores one slot per entry.
fn read_group(r: &mut Reader, main: &Tape) -> Option<DerivTapes> {
    let rhs = read_tape(r)?;
    let (n_species, n_rates) = (rhs.n_species, rhs.n_rates);
    if (n_species, n_rates) != (main.n_species, main.n_rates) {
        return None;
    }
    // A derivative tape and its entry list, differentiating by `n_cols`
    // variables.
    let deriv = |r: &mut Reader, n_cols: usize| {
        let (tape, entries) = (read_tape(r)?, r.pairs()?);
        let in_range = |&(i, j): &(u32, u32)| (i as usize) < n_species && (j as usize) < n_cols;
        let ordered = entries.windows(2).all(|w| w[0] < w[1]);
        (ordered && entries.iter().all(in_range)).then_some((tape, entries))
    };
    let (jac, entries) = deriv(r, n_species)?;
    let tail = r.opt(|r| deriv(r, n_rates))?;
    let mut program = vec![(&rhs, n_species), (&jac, entries.len())];
    program.extend(tail.iter().map(|(dfdp, list)| (dfdp, list.len())));
    rms_core::validate_program(&program).ok()?;
    let state = Arc::new(JacobianTapes {
        rhs,
        jac,
        entries,
        n_species,
    });
    Some(match tail {
        None => DerivTapes::Jacobian(state),
        Some((dfdp, dfdp_entries)) => DerivTapes::Sensitivity(Arc::new(SensitivityTapes {
            state,
            dfdp,
            dfdp_entries,
            n_rates,
        })),
    })
}

fn write_counts(w: &mut Writer, c: OpCounts) {
    w.usize(c.mults);
    w.usize(c.adds);
}

fn read_counts(r: &mut Reader) -> Option<OpCounts> {
    Some(OpCounts {
        mults: r.usize()?,
        adds: r.usize()?,
    })
}

fn write_stage_counts(w: &mut Writer, s: &StageCounts) {
    write_counts(w, s.input);
    write_counts(w, s.after_simplify);
    write_counts(w, s.after_distribute);
    write_counts(w, s.after_cse);
    write_counts(w, s.tape);
}

fn read_stage_counts(r: &mut Reader) -> Option<StageCounts> {
    Some(StageCounts {
        input: read_counts(r)?,
        after_simplify: read_counts(r)?,
        after_distribute: read_counts(r)?,
        after_cse: read_counts(r)?,
        tape: read_counts(r)?,
    })
}

fn write_report(w: &mut Writer, report: &PipelineReport) {
    w.str(&report.model);
    w.str(&report.level);
    w.usize(report.species);
    w.usize(report.reactions);
    w.usize(report.rates);
    w.f64(report.total_seconds);
    write_stage_counts(w, &report.counts);
    w.seq(&report.stages, |w, rec| {
        w.str(rec.stage.name());
        w.f64(rec.seconds);
        w.seq(&rec.metrics, |w, (name, value)| {
            w.str(name);
            w.f64(*value);
        });
    });
}

fn read_report(r: &mut Reader) -> Option<PipelineReport> {
    // Fields in stored order: a struct literal evaluates as written.
    Some(PipelineReport {
        model: r.str()?,
        level: r.str()?,
        species: r.usize()?,
        reactions: r.usize()?,
        rates: r.usize()?,
        total_seconds: r.f64()?,
        counts: read_stage_counts(r)?,
        stages: r.seq(24, |r| {
            Some(StageRecord {
                stage: r.str()?.parse().ok()?,
                seconds: r.f64()?,
                metrics: r.seq(16, |r| Some((r.str()?, r.f64()?)))?,
            })
        })?,
    })
}
