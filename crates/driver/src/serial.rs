//! Best-effort binary serialization for the on-disk artifact cache.
//!
//! Hand-rolled, versioned little-endian format (the workspace carries no
//! serde). The disk layer is a cache, not an interchange format: any
//! parse problem, version skew, or key mismatch is treated as a miss and
//! the model recompiles cold.
//!
//! What is stored: network topology (names/initials/reactions — molecule
//! structures are intentionally dropped), the rate table, the optimized
//! forest + tape + stage counts, the optional Jacobian tapes, and the
//! pipeline report. The ODE system is *not* stored — it regenerates
//! deterministically from network + rates, and the optional exec tape
//! re-decodes from the stored tape.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use rms_core::{
    CompiledOde, Expr, ExprForest, Instr, JacobianTapes, Operand, StageCounts, Tape, TempId,
};
use rms_odegen::OpCounts;
use rms_rcip::{RateId, RateTable};
use rms_rdl::{Reaction, ReactionNetwork, SpeciesId};

use crate::report::{PipelineReport, StageRecord};
use crate::session::CompiledArtifact;
use crate::stage::Stage;

const MAGIC: &[u8; 4] = b"RMSC";
const VERSION: u32 = 2;

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

/// FNV-1a 64-bit over `bytes`: cheap, dependency-free integrity check
/// for the payload (this is corruption detection, not authentication).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    /// Jacobian tapes, when the original compile ran *Deriv*.
    pub jacobian: Option<JacobianTapes>,
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
    match &artifact.jacobian {
        None => w.u8(0),
        Some(j) => {
            w.u8(1);
            write_tape(&mut w, &j.rhs);
            write_tape(&mut w, &j.jac);
            w.usize(j.entries.len());
            for &(r, c) in &j.entries {
                w.u32(r);
                w.u32(c);
            }
            w.usize(j.n_species);
        }
    }
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
    let mut r = Reader { buf: &buf, at: 0 };
    let header_ok = (|| {
        if r.bytes(4)? != MAGIC || r.u32()? != VERSION {
            return None;
        }
        let checksum = r.u64()?;
        (checksum == fnv1a64(&buf[r.at..])).then_some(())
    })();
    if header_ok.is_none() {
        return Err(LoadError::Corrupt);
    }
    parse_payload(&mut r, expected_key).ok_or(LoadError::Corrupt)
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
    let jacobian = match r.u8()? {
        0 => None,
        1 => {
            let rhs = read_tape(r)?;
            let jac = read_tape(r)?;
            let n = r.usize()?;
            let mut entries = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                entries.push((r.u32()?, r.u32()?));
            }
            let n_species = r.usize()?;
            // The Jacobian pair shares one register file: `jac` reads
            // registers `rhs` wrote and stores one slot per nonzero, so
            // the tapes only validate as a program, not individually.
            rms_core::validate_program(&[(&rhs, n_species), (&jac, entries.len())]).ok()?;
            Some(JacobianTapes {
                rhs,
                jac,
                entries,
                n_species,
            })
        }
        _ => return None,
    };
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
        jacobian,
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
        w.usize(reaction.reactants.len());
        for id in &reaction.reactants {
            w.u32(id.0);
        }
        w.usize(reaction.products.len());
        for id in &reaction.products {
            w.u32(id.0);
        }
        w.str(&reaction.rate);
        w.str(&reaction.rule);
    }
}

fn read_network(r: &mut Reader) -> Option<ReactionNetwork> {
    let mut network = ReactionNetwork::new();
    let n_species = r.usize()?;
    for i in 0..n_species {
        let name = r.str()?;
        let initial = r.f64()?;
        let id = network.add_abstract_species(&name, initial);
        if id != SpeciesId(i as u32) {
            return None; // duplicate name: ids would shift
        }
    }
    let n_reactions = r.usize()?;
    for _ in 0..n_reactions {
        let n = r.usize()?;
        let mut reactants = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = r.u32()?;
            if id as usize >= n_species {
                return None;
            }
            reactants.push(SpeciesId(id));
        }
        let n = r.usize()?;
        let mut products = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = r.u32()?;
            if id as usize >= n_species {
                return None;
            }
            products.push(SpeciesId(id));
        }
        let rate = r.str()?;
        let rule = r.str()?;
        network.add_reaction_event(Reaction {
            reactants,
            products,
            rate,
            rule,
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
        match rates.bounds(RateId(id as u32)) {
            None => w.u8(0),
            Some(b) => {
                w.u8(1);
                w.f64(b.lo);
                w.f64(b.hi);
            }
        }
    }
}

fn read_rates(r: &mut Reader) -> Option<RateTable> {
    let mut rates = RateTable::default();
    let n = r.usize()?;
    for _ in 0..n {
        let name = r.str()?;
        let value = r.f64()?;
        rates.define(&name, value).ok()?;
    }
    let distinct = r.usize()?;
    if distinct != rates.distinct_count() {
        return None;
    }
    for id in 0..distinct {
        match r.u8()? {
            0 => {}
            1 => {
                let lo = r.f64()?;
                let hi = r.f64()?;
                rates.set_bounds(RateId(id as u32), lo, hi).ok()?;
            }
            _ => return None,
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
        Expr::Rate(i) => {
            w.u8(1);
            w.u32(*i);
        }
        Expr::Species(i) => {
            w.u8(2);
            w.u32(*i);
        }
        Expr::Temp(t) => {
            w.u8(3);
            w.u32(t.0);
        }
        Expr::Prod(c, factors) => {
            w.u8(4);
            w.f64(c.0);
            w.usize(factors.len());
            for f in factors {
                write_expr(w, f);
            }
        }
        Expr::Sum(children) => {
            w.u8(5);
            w.usize(children.len());
            for c in children {
                write_expr(w, c);
            }
        }
    }
}

fn read_expr(r: &mut Reader, depth: usize) -> Option<Expr> {
    if depth > 512 {
        return None; // corrupt nesting; real forests are shallow
    }
    Some(match r.u8()? {
        0 => Expr::constant(r.f64()?),
        1 => Expr::Rate(r.u32()?),
        2 => Expr::Species(r.u32()?),
        3 => Expr::Temp(TempId(r.u32()?)),
        4 => {
            let c = r.f64()?;
            let n = r.usize()?;
            let mut factors = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                factors.push(read_expr(r, depth + 1)?);
            }
            // Bypass the smart constructor: the stored tree is already
            // canonical; re-normalizing must not alter it.
            Expr::Prod(rms_core::Coeff(c), factors)
        }
        5 => {
            let n = r.usize()?;
            let mut children = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                children.push(read_expr(r, depth + 1)?);
            }
            Expr::Sum(children)
        }
        _ => return None,
    })
}

fn write_forest(w: &mut Writer, forest: &ExprForest) {
    w.usize(forest.temps.len());
    for t in &forest.temps {
        write_expr(w, t);
    }
    w.usize(forest.rhs.len());
    for e in &forest.rhs {
        write_expr(w, e);
    }
    w.usize(forest.n_species);
    w.usize(forest.n_rates);
}

fn read_forest(r: &mut Reader) -> Option<ExprForest> {
    let n = r.usize()?;
    let mut temps = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        temps.push(read_expr(r, 0)?);
    }
    let n = r.usize()?;
    let mut rhs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        rhs.push(read_expr(r, 0)?);
    }
    let n_species = r.usize()?;
    let n_rates = r.usize()?;
    Some(ExprForest {
        temps,
        rhs,
        n_species,
        n_rates,
    })
}

fn write_operand(w: &mut Writer, op: &Operand) {
    match op {
        Operand::Reg(i) => {
            w.u8(0);
            w.u32(*i);
        }
        Operand::Species(i) => {
            w.u8(1);
            w.u32(*i);
        }
        Operand::Rate(i) => {
            w.u8(2);
            w.u32(*i);
        }
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
    w.usize(tape.instrs.len());
    for instr in &tape.instrs {
        match instr {
            Instr::Add { dst, a, b } => {
                w.u8(0);
                w.u32(*dst);
                write_operand(w, a);
                write_operand(w, b);
            }
            Instr::Sub { dst, a, b } => {
                w.u8(1);
                w.u32(*dst);
                write_operand(w, a);
                write_operand(w, b);
            }
            Instr::Mul { dst, a, b } => {
                w.u8(2);
                w.u32(*dst);
                write_operand(w, a);
                write_operand(w, b);
            }
            Instr::Neg { dst, a } => {
                w.u8(3);
                w.u32(*dst);
                write_operand(w, a);
            }
            Instr::Copy { dst, a } => {
                w.u8(4);
                w.u32(*dst);
                write_operand(w, a);
            }
            Instr::Store { idx, a } => {
                w.u8(5);
                w.u32(*idx);
                write_operand(w, a);
            }
        }
    }
    w.usize(tape.n_regs);
    w.usize(tape.n_species);
    w.usize(tape.n_rates);
}

fn read_tape(r: &mut Reader) -> Option<Tape> {
    let n = r.usize()?;
    let mut instrs = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let tag = r.u8()?;
        instrs.push(match tag {
            0..=2 => {
                let dst = r.u32()?;
                let a = read_operand(r)?;
                let b = read_operand(r)?;
                match tag {
                    0 => Instr::Add { dst, a, b },
                    1 => Instr::Sub { dst, a, b },
                    _ => Instr::Mul { dst, a, b },
                }
            }
            3 => Instr::Neg {
                dst: r.u32()?,
                a: read_operand(r)?,
            },
            4 => Instr::Copy {
                dst: r.u32()?,
                a: read_operand(r)?,
            },
            5 => Instr::Store {
                idx: r.u32()?,
                a: read_operand(r)?,
            },
            _ => return None,
        });
    }
    let n_regs = r.usize()?;
    let n_species = r.usize()?;
    let n_rates = r.usize()?;
    // No standalone validation here: a secondary Jacobian tape is only
    // well-formed as part of a multi-tape program (see `load`).
    Some(Tape {
        instrs,
        n_regs,
        n_species,
        n_rates,
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
    w.usize(report.stages.len());
    for rec in &report.stages {
        w.str(rec.stage.name());
        w.f64(rec.seconds);
        w.usize(rec.metrics.len());
        for (name, value) in &rec.metrics {
            w.str(name);
            w.f64(*value);
        }
    }
}

fn read_report(r: &mut Reader) -> Option<PipelineReport> {
    let model = r.str()?;
    let level = r.str()?;
    let species = r.usize()?;
    let reactions = r.usize()?;
    let rates = r.usize()?;
    let total_seconds = r.f64()?;
    let counts = read_stage_counts(r)?;
    let n = r.usize()?;
    let mut stages = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let stage: Stage = r.str()?.parse().ok()?;
        let seconds = r.f64()?;
        let m = r.usize()?;
        let mut metrics = Vec::with_capacity(m.min(64));
        for _ in 0..m {
            let name = r.str()?;
            let value = r.f64()?;
            metrics.push((name, value));
        }
        stages.push(StageRecord {
            stage,
            seconds,
            metrics,
        });
    }
    Some(PipelineReport {
        model,
        level,
        species,
        reactions,
        rates,
        stages,
        counts,
        total_seconds,
    })
}
