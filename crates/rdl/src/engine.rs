//! The rule engine: applies RDL rules to the molecule set until closure,
//! producing the reaction network (paper §2, "the chemical compiler
//! automatically generates the reaction network that describes all
//! possible reactions").
//!
//! The closure loop is **frontier-driven**: every rule keeps a cursor into
//! the species list and each run scans only the species added since that
//! rule last ran, eliminating the O(generations × species) rescan of the
//! naive algorithm. Within one rule run the match/edit/canonicalize work
//! fans out over an `rms-parallel` scoped worker pool and the results are
//! merged strictly in work-item order, so the resulting network — species
//! ids, names, reaction list, equation table — is bit-identical to the
//! serial path at any thread count.
//!
//! Why the frontier is exact (not an approximation): rescanning a species
//! a rule has already seen can only regenerate reactions that were
//! recorded when the rule first saw it — sites, edits and products are
//! pure functions of the unchanged molecule, and the network dedups both
//! species and reactions — so the rescan contributes no state changes.
//! Dropping it removes work whose only effect was to be deduplicated.
//! For pair sites the same argument applies to pairs: only pairs with at
//! least one not-yet-seen member can produce anything new, and they are
//! visited in the same relative order the full scan would have used.
//!
//! Species dedup runs on interned identities ([`rms_molecule::intern`]):
//! workers compute each fragment's exact canonical certificate, and the
//! merge looks it up by its 64-bit hash, comparing certificates only on a
//! bucket hit. The `oracle` cargo feature adds `compile_with_oracle`,
//! which can dedup on canonical SMILES strings instead and restore the
//! full rescan-every-generation schedule — the pre-frontier engine, kept
//! for differential tests (`tests/frontend_determinism.rs`), not for
//! products.

use std::time::Instant;

use rms_molecule::{
    identify, parse_smiles, AtomPredicate, BondOrder, BondPredicate, Element, Formula, KeyTable,
    MolIdentity, Molecule,
};
use rms_parallel::{available_threads, scoped_map};
use rms_rcip::RateTable;

use crate::ast::{Action, Forbid, Limits, Program, RuleDecl, Scope, Site};
use crate::error::{RdlError, Result};
use crate::expand::{expand_program, SeedVariant};
use crate::network::{Reaction, ReactionNetwork, SpeciesId};

/// How many work items (species or species pairs) each parallel dispatch
/// processes before merging, bounding the number of un-merged candidate
/// molecules held in memory at once.
const WORK_BATCH: usize = 4096;

/// Frontend execution options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOptions {
    /// Worker threads for rule application; `0` means one per core.
    pub threads: usize,
}

/// The engine's reference paths: slower ways to the same network, for
/// differential tests and baselines.
#[cfg(feature = "oracle")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Oracle {
    /// Dedup species on canonical SMILES strings instead of interned
    /// certificates.
    pub string_keys: bool,
    /// Restore the pre-frontier schedule: every rule rescans the full
    /// species set every generation.
    pub legacy_rescan: bool,
}

/// Metrics from one network-generation run, surfaced in the driver's
/// pipeline report.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Closure generations executed.
    pub generations: usize,
    /// Whether a generation completed with no new species or reactions
    /// (the closure converged) before the generation cap.
    pub fixpoint: bool,
    /// Rules that still produced new species/reactions in the final
    /// executed generation, when the cap was hit without a fixpoint.
    pub growing_rules: Vec<String>,
    /// Successful rule applications (candidate product molecules built).
    pub rule_applications: u64,
    /// Per-fragment canonical identity computations, plus one per seed.
    pub canonicalizations: u64,
    /// Of those, identities whose refinement left tied atoms and needed
    /// the individualization tie-break: symmetric molecules.
    pub identity_slow_path: u64,
    /// Interned dedup lookups.
    pub prefilter_lookups: u64,
    /// Lookups settled by an empty hash bucket — no certificate compared.
    pub prefilter_hits: u64,
    /// Largest per-rule frontier (species not yet seen by a rule at the
    /// start of one of its runs).
    pub peak_frontier: usize,
    /// Wall-clock seconds per executed generation.
    pub generation_seconds: Vec<f64>,
    /// Resolved worker-thread count.
    pub threads: usize,
}

impl NetworkStats {
    /// Fraction of dedup lookups settled by the invariant-hash prefilter.
    pub fn prefilter_hit_rate(&self) -> f64 {
        if self.prefilter_lookups == 0 {
            0.0
        } else {
            self.prefilter_hits as f64 / self.prefilter_lookups as f64
        }
    }
}

/// The chemical compiler's output: the reaction network plus the evaluated
/// rate-constant table.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// All species and reactions.
    pub network: ReactionNetwork,
    /// Evaluated, value-deduplicated rate constants.
    pub rates: RateTable,
    /// Generation metrics for the pipeline report.
    pub stats: NetworkStats,
}

/// Compile an RDL program: expand variants, evaluate rate constants, and
/// apply rules to closure.
///
/// Convenience wrapper over the individually observable phases — rate
/// evaluation ([`RateTable::parse`]), variant expansion
/// ([`expand_program`]), and network closure ([`compile_with_options`]).
/// Pipeline drivers that want per-phase timing call the phases directly.
pub fn compile(program: &Program) -> Result<CompiledModel> {
    let rates = RateTable::parse(&program.rate_source)?;
    let seeds = expand_program(program)?;
    compile_with_options(program, rates, &seeds, &EngineOptions::default())
}

/// The *Network* phase alone: validate rules against an already-evaluated
/// rate table, seed species from already-expanded variants, and apply
/// rules to closure. The produced network is identical at every thread
/// count; only the cost differs.
pub fn compile_with_options(
    program: &Program,
    rates: RateTable,
    seeds: &[SeedVariant],
    options: &EngineOptions,
) -> Result<CompiledModel> {
    close(
        program,
        rates,
        seeds,
        options,
        #[cfg(feature = "oracle")]
        Oracle::default(),
    )
}

/// [`compile_with_options`] along the given reference paths. The network
/// is identical to the product's for every combination.
#[cfg(feature = "oracle")]
pub fn compile_with_oracle(
    program: &Program,
    rates: RateTable,
    seeds: &[SeedVariant],
    options: &EngineOptions,
    oracle: Oracle,
) -> Result<CompiledModel> {
    close(program, rates, seeds, options, oracle)
}

fn close(
    program: &Program,
    rates: RateTable,
    seeds: &[SeedVariant],
    options: &EngineOptions,
    #[cfg(feature = "oracle")] oracle: Oracle,
) -> Result<CompiledModel> {
    // Rule validation up front: rates and scope names must resolve.
    for rule in &program.rules {
        if rates.get(&rule.rate).is_none() {
            return Err(RdlError::UnknownRate {
                rule: rule.name.clone(),
                rate: rule.rate.clone(),
            });
        }
        if let Scope::Named(names) = &rule.scope {
            for name in names {
                if !program.molecules.iter().any(|m| &m.name == name) {
                    return Err(RdlError::UnknownMolecule {
                        rule: rule.name.clone(),
                        molecule: name.clone(),
                    });
                }
            }
        }
    }

    let threads = if options.threads == 0 {
        available_threads()
    } else {
        options.threads
    };
    let mut engine = Engine {
        network: ReactionNetwork::new(),
        families: Vec::new(),
        limits: program.limits,
        forbids: program.forbids.clone(),
        threads,
        #[cfg(feature = "oracle")]
        oracle,
        #[cfg(feature = "oracle")]
        string_ids: std::collections::HashMap::new(),
        table: KeyTable::new(),
        cursors: vec![0; program.rules.len()],
        pair_caches: (0..program.rules.len())
            .map(|_| PairCache::default())
            .collect(),
        stats: NetworkStats {
            threads,
            ..NetworkStats::default()
        },
    };

    // Seed species from the expanded molecule declarations.
    let mut seeded = WorkOut::default();
    for variant in seeds {
        let mol = parse_smiles(&variant.smiles).map_err(|cause| RdlError::BadSmiles {
            molecule: variant.name.clone(),
            smiles: variant.smiles.clone(),
            cause,
        })?;
        // A seed is held to `limit atoms` like every product, literal or
        // expanded: past it, rule matching over its sites never ends.
        let (atoms, max) = (mol.atom_count(), program.limits.max_atoms);
        if atoms > max {
            return Err(RdlError::SeedLimit {
                molecule: variant.name.clone(),
                message: format!("{atoms} atoms, more than limit atoms {max}"),
            });
        }
        seeded.canonicalizations += 1;
        let ident = engine.work_ctx().identity(&mol, &mut seeded);
        let (id, _) = engine.admit(mol, ident, &variant.name, variant.initial);
        // A duplicate seed structure keeps the first declaration's id and
        // the later one's family, matching the pre-frontier engine.
        engine.families[id.0 as usize] = Some(variant.family.clone());
    }
    engine.stats.canonicalizations = seeded.canonicalizations;
    engine.stats.identity_slow_path = seeded.identity_slow_path;

    // Closure: apply every rule each generation until no new species or
    // reactions appear (or the generation limit is reached).
    let mut growing: Vec<String> = Vec::new();
    for _generation in 0..program.limits.max_generations {
        let started = Instant::now();
        let mut changed_rules: Vec<String> = Vec::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            if engine.run_rule(ri, rule)? {
                changed_rules.push(rule.name.clone());
            }
        }
        engine
            .stats
            .generation_seconds
            .push(started.elapsed().as_secs_f64());
        engine.stats.generations += 1;
        if changed_rules.is_empty() {
            engine.stats.fixpoint = true;
            break;
        }
        growing = changed_rules;
    }
    if !engine.stats.fixpoint {
        engine.stats.growing_rules = growing;
    }
    engine.stats.prefilter_lookups = engine.table.lookups;
    engine.stats.prefilter_hits = engine.table.prefilter_hits;

    Ok(CompiledModel {
        network: engine.network,
        rates,
        stats: engine.stats,
    })
}

/// Cached pair-rule site selections, extended incrementally as species are
/// added so old species are never re-scanned for sites.
#[derive(Default)]
struct PairCache {
    /// Species ids `< scanned` have been classified into `xs`/`ys`.
    scanned: usize,
    /// Species (ascending id) with a non-empty first-position site list.
    xs: Vec<(u32, Vec<usize>)>,
    /// Species (ascending id) with a non-empty second-position site list.
    ys: Vec<(u32, Vec<usize>)>,
}

struct Engine {
    network: ReactionNetwork,
    /// species → declared family name, aligned with species ids (seeds
    /// only; generated species have no family and match only `Scope::Any`).
    families: Vec<Option<String>>,
    limits: Limits,
    forbids: Vec<Forbid>,
    threads: usize,
    #[cfg(feature = "oracle")]
    oracle: Oracle,
    /// The string-keyed oracle's species index.
    #[cfg(feature = "oracle")]
    string_ids: std::collections::HashMap<String, SpeciesId>,
    /// Interned identities of every species. Symbols and species ids are
    /// both dense and first-seen ordered, and every species enters through
    /// [`Engine::admit`], so a symbol *is* the species id.
    table: KeyTable,
    /// Per-rule frontier cursor: species ids below it have been scanned.
    cursors: Vec<usize>,
    pair_caches: Vec<PairCache>,
    stats: NetworkStats,
}

/// A rule's site selector, resolved once per rule run.
enum SitePred {
    Bond(BondPredicate),
    Atom(AtomPredicate),
}

/// A fragment's dedup identity, computed on worker threads.
enum FragId {
    Cert(MolIdentity),
    #[cfg(feature = "oracle")]
    Key(String),
}

/// What a worker reads besides its work item.
#[derive(Clone, Copy)]
struct WorkCtx<'a> {
    net: &'a ReactionNetwork,
    limits: Limits,
    forbids: &'a [Forbid],
    #[cfg(feature = "oracle")]
    string_keys: bool,
}

/// One product fragment ready for the merge: structure, identity, and the
/// formula-derived display-name hint.
struct FragCand {
    mol: Molecule,
    ident: FragId,
    name_hint: String,
}

/// One candidate reaction produced by a worker.
struct Candidate {
    reactants: Vec<SpeciesId>,
    frags: Vec<FragCand>,
}

/// Per-work-item worker output.
#[derive(Default)]
struct WorkOut {
    candidates: Vec<Candidate>,
    applications: u64,
    canonicalizations: u64,
    identity_slow_path: u64,
}

impl Engine {
    /// Apply one rule across its current frontier. Returns whether
    /// anything new was added.
    fn run_rule(&mut self, ri: usize, rule: &RuleDecl) -> Result<bool> {
        match &rule.site {
            Site::Bond { .. } | Site::Atom(_) => self.run_uni_rule(ri, rule),
            Site::Pair { first, second } => {
                let (first, second) = (first.clone(), second.clone());
                self.run_pair_rule(ri, rule, &first, &second)
            }
        }
    }

    fn work_ctx(&self) -> WorkCtx<'_> {
        WorkCtx {
            net: &self.network,
            limits: self.limits,
            forbids: &self.forbids,
            #[cfg(feature = "oracle")]
            string_keys: self.oracle.string_keys,
        }
    }

    fn take_frontier(&mut self, ri: usize) -> (usize, usize) {
        let count = self.network.species_count();
        // The rescan schedule is the frontier schedule with amnesia.
        #[cfg(feature = "oracle")]
        if self.oracle.legacy_rescan {
            self.cursors[ri] = 0;
            self.pair_caches[ri] = PairCache::default();
        }
        let cursor = self.cursors[ri];
        self.cursors[ri] = count;
        self.stats.peak_frontier = self.stats.peak_frontier.max(count - cursor);
        (cursor, count)
    }

    fn run_uni_rule(&mut self, ri: usize, rule: &RuleDecl) -> Result<bool> {
        let (cursor, count) = self.take_frontier(ri);
        let ids: Vec<u32> = (cursor..count)
            .filter(|&i| {
                in_scope(&self.families, SpeciesId(i as u32), &rule.scope, 0)
                    && self
                        .network
                        .species(SpeciesId(i as u32))
                        .structure
                        .is_some()
            })
            .map(|i| i as u32)
            .collect();
        let site = match &rule.site {
            Site::Bond { left, right, order } => SitePred::Bond(BondPredicate {
                left: left.clone(),
                right: right.clone(),
                order: *order,
            }),
            Site::Atom(pred) => SitePred::Atom(pred.clone()),
            Site::Pair { .. } => unreachable!("handled in run_pair_rule"),
        };
        let mut changed = false;
        for batch in ids.chunks(WORK_BATCH) {
            let ctx = self.work_ctx();
            let outs = scoped_map(self.threads, batch, |&id| {
                uni_work(ctx, &site, rule.action, id)
            });
            changed |= self.merge_outputs(rule, outs)?;
        }
        Ok(changed)
    }

    fn run_pair_rule(
        &mut self,
        ri: usize,
        rule: &RuleDecl,
        first: &AtomPredicate,
        second: &AtomPredicate,
    ) -> Result<bool> {
        let Action::Connect(order) = rule.action else {
            unreachable!("validated at parse time")
        };
        let (cursor, count) = self.take_frontier(ri);

        // Extend the cached site lists to cover new species.
        let mut cache = std::mem::take(&mut self.pair_caches[ri]);
        let new_ids: Vec<u32> = (cache.scanned..count).map(|i| i as u32).collect();
        cache.scanned = count;
        let selections = {
            let net = &self.network;
            let families = &self.families[..];
            scoped_map(self.threads, &new_ids, |&id| {
                let sid = SpeciesId(id);
                let Some(mol) = net.species(sid).structure.as_ref() else {
                    return (None, None);
                };
                let sx = in_scope(families, sid, &rule.scope, 0)
                    .then(|| first.select(mol))
                    .filter(|s| !s.is_empty());
                let sy = in_scope(families, sid, &rule.scope, 1)
                    .then(|| second.select(mol))
                    .filter(|s| !s.is_empty());
                (sx, sy)
            })
        };
        for (id, (sx, sy)) in new_ids.iter().zip(selections) {
            if let Some(s) = sx {
                cache.xs.push((*id, s));
            }
            if let Some(s) = sy {
                cache.ys.push((*id, s));
            }
        }

        // New pairs in the order the full x-major scan would visit them:
        // pairs where both members were already seen produced everything
        // they can the last time this rule ran.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (xi, x_entry) in cache.xs.iter().enumerate() {
            for (yi, y_entry) in cache.ys.iter().enumerate() {
                if (x_entry.0 as usize) < cursor && (y_entry.0 as usize) < cursor {
                    continue;
                }
                pairs.push((xi as u32, yi as u32));
            }
        }

        let mut changed = false;
        for batch in pairs.chunks(WORK_BATCH) {
            let ctx = self.work_ctx();
            let outs = scoped_map(self.threads, batch, |&(xi, yi)| {
                pair_work(ctx, &cache.xs[xi as usize], &cache.ys[yi as usize], order)
            });
            changed |= self.merge_outputs(rule, outs)?;
        }
        self.pair_caches[ri] = cache;
        Ok(changed)
    }

    /// Merge worker outputs into the network strictly in work-item order —
    /// the single serialization point that makes parallel generation
    /// deterministic.
    fn merge_outputs(&mut self, rule: &RuleDecl, outs: Vec<WorkOut>) -> Result<bool> {
        let mut changed = false;
        for out in outs {
            self.stats.rule_applications += out.applications;
            self.stats.canonicalizations += out.canonicalizations;
            self.stats.identity_slow_path += out.identity_slow_path;
            for cand in out.candidates {
                changed |= self.merge_candidate(rule, cand)?;
            }
        }
        Ok(changed)
    }

    /// Resolve a molecule to its species, adding it when its identity is
    /// new; says whether it was.
    fn admit(
        &mut self,
        mol: Molecule,
        ident: FragId,
        name_hint: &str,
        initial: f64,
    ) -> (SpeciesId, bool) {
        let next = SpeciesId(self.network.species_count() as u32);
        let known = match ident {
            FragId::Cert(identity) => {
                let (sym, is_new) = self.table.intern(identity);
                debug_assert!(!is_new || sym == next.0);
                (!is_new).then_some(SpeciesId(sym))
            }
            #[cfg(feature = "oracle")]
            FragId::Key(key) => {
                let id = *self.string_ids.entry(key).or_insert(next);
                (id != next).then_some(id)
            }
        };
        if let Some(id) = known {
            return (id, false);
        }
        self.families.push(None);
        (self.network.add_species(mol, name_hint, initial), true)
    }

    fn merge_candidate(&mut self, rule: &RuleDecl, cand: Candidate) -> Result<bool> {
        let mut product_ids = Vec::with_capacity(cand.frags.len());
        let mut new_species = false;
        for frag in cand.frags {
            let (pid, is_new) = self.admit(frag.mol, frag.ident, &frag.name_hint, 0.0);
            new_species |= is_new;
            product_ids.push(pid);
        }
        if self.network.species_count() > self.limits.max_species {
            return Err(RdlError::SpeciesLimitExceeded(self.limits.max_species));
        }
        let new_reaction = self.network.add_reaction(Reaction {
            reactants: cand.reactants,
            products: product_ids,
            rate: rule.rate.clone(),
            rule: rule.name.clone(),
        });
        Ok(new_species || new_reaction)
    }
}

fn in_scope(families: &[Option<String>], id: SpeciesId, scope: &Scope, position: usize) -> bool {
    match scope {
        Scope::Any => true,
        Scope::Named(names) => {
            let Some(Some(family)) = families.get(id.0 as usize) else {
                return false;
            };
            if names.len() >= 2 {
                // Positional scopes for pair sites.
                names.get(position).is_some_and(|n| n == family)
            } else {
                names.iter().any(|n| n == family)
            }
        }
    }
}

fn uni_work(ctx: WorkCtx<'_>, site: &SitePred, action: Action, id: u32) -> WorkOut {
    let mut out = WorkOut::default();
    let sid = SpeciesId(id);
    let Some(mol) = ctx.net.species(sid).structure.as_ref() else {
        return out;
    };
    let edits: Vec<MolEdit> = match site {
        SitePred::Bond(pred) => pred
            .select(mol)
            .into_iter()
            .map(|(a, b)| MolEdit::OnBond(a, b))
            .collect(),
        SitePred::Atom(pred) => pred.select(mol).into_iter().map(MolEdit::OnAtom).collect(),
    };
    for edit in edits {
        // Feasibility precheck on the unmodified molecule: a matched site
        // whose edit is chemically impossible (e.g. raising the order of a
        // saturated bond) is rejected without paying for a clone.
        if !edit_feasible(mol, edit, action) {
            continue;
        }
        let mut product = mol.clone();
        let outcome = match (edit, action) {
            (MolEdit::OnBond(a, b), Action::Disconnect) => product.disconnect(a, b),
            (MolEdit::OnBond(a, b), Action::IncreaseBond) => product.increase_bond_order(a, b),
            (MolEdit::OnBond(a, b), Action::DecreaseBond) => product.decrease_bond_order(a, b),
            (MolEdit::OnAtom(a), Action::RemoveHydrogen) => product.remove_hydrogen(a),
            (MolEdit::OnAtom(a), Action::AddHydrogen) => product.add_hydrogen(a),
            _ => unreachable!("validated at parse time"),
        };
        debug_assert!(outcome.is_ok(), "edit_feasible admitted an infeasible edit");
        if outcome.is_err() {
            continue;
        }
        out.applications += 1;
        if let Some(cand) = build_candidate(ctx, product, vec![sid], &mut out) {
            out.candidates.push(cand);
        }
    }
    out
}

fn pair_work(
    ctx: WorkCtx<'_>,
    (x, sites_x): &(u32, Vec<usize>),
    (y, sites_y): &(u32, Vec<usize>),
    order: BondOrder,
) -> WorkOut {
    let mut out = WorkOut::default();
    let structure = |id: u32| {
        ctx.net
            .species(SpeciesId(id))
            .structure
            .as_ref()
            .expect("site cache only lists structured species")
    };
    let (mol_x, mol_y) = (structure(*x), structure(*y));
    if mol_x.atom_count() + mol_y.atom_count() > ctx.limits.max_atoms {
        return out;
    }
    for &sx in sites_x {
        for &sy in sites_y {
            // Valence precheck on both endpoints before cloning + merging.
            if !connect_feasible(mol_x, sx, order) || !connect_feasible(mol_y, sy, order) {
                continue;
            }
            let mut merged = mol_x.clone();
            let offset = merged.merge(mol_y);
            if merged.connect(sx, sy + offset, order).is_err() {
                continue;
            }
            out.applications += 1;
            let reactants = vec![SpeciesId(*x), SpeciesId(*y)];
            if let Some(cand) = build_candidate(ctx, merged, reactants, &mut out) {
                out.candidates.push(cand);
            }
        }
    }
    out
}

/// Split a product into fragments, filter forbidden/oversized forms, and
/// compute each fragment's dedup identity. `None` discards the whole
/// reaction (matching the serial engine's whole-reaction filtering).
fn build_candidate(
    ctx: WorkCtx<'_>,
    product: Molecule,
    reactants: Vec<SpeciesId>,
    out: &mut WorkOut,
) -> Option<Candidate> {
    let fragments = product.split_components();
    for frag in &fragments {
        if frag.atom_count() > ctx.limits.max_atoms || is_forbidden(frag, ctx.forbids) {
            return None;
        }
    }
    let mut frags = Vec::with_capacity(fragments.len());
    for frag in fragments {
        out.canonicalizations += 1;
        let ident = ctx.identity(&frag, out);
        let name_hint = format!("{}", Formula::of(&frag));
        frags.push(FragCand {
            mol: frag,
            ident,
            name_hint,
        });
    }
    Some(Candidate { reactants, frags })
}

impl WorkCtx<'_> {
    /// A fragment's dedup identity.
    fn identity(self, frag: &Molecule, out: &mut WorkOut) -> FragId {
        #[cfg(feature = "oracle")]
        if self.string_keys {
            return FragId::Key(rms_molecule::canonical_key(frag));
        }
        let identity = identify(frag);
        out.identity_slow_path += identity.slow_path as u64;
        FragId::Cert(identity)
    }
}

/// Exact mirror of the [`Molecule`] edit preconditions, evaluated without
/// mutating (or cloning) the molecule.
fn edit_feasible(mol: &Molecule, edit: MolEdit, action: Action) -> bool {
    let capacity = |i: usize| {
        mol.atom(i)
            .map(|a| a.radicals.saturating_add(a.hydrogens))
            .unwrap_or(0)
    };
    match (edit, action) {
        (MolEdit::OnBond(a, b), Action::Disconnect) => mol.bond_between(a, b).is_some(),
        (MolEdit::OnBond(a, b), Action::IncreaseBond) => {
            mol.bond_between(a, b).is_some_and(|bond| {
                bond.order.increased().is_some() && capacity(a) >= 1 && capacity(b) >= 1
            })
        }
        (MolEdit::OnBond(a, b), Action::DecreaseBond) => mol
            .bond_between(a, b)
            .is_some_and(|bond| bond.order.decreased().is_some()),
        (MolEdit::OnAtom(a), Action::RemoveHydrogen) => {
            mol.atom(a).is_ok_and(|atom| atom.hydrogens > 0)
        }
        (MolEdit::OnAtom(a), Action::AddHydrogen) => mol.atom(a).is_ok_and(|atom| {
            atom.radicals > 0 || {
                let needed = mol.bond_order_sum(a) + atom.hydrogens + 1;
                atom.element.default_valences().iter().any(|&v| v >= needed)
            }
        }),
        _ => false,
    }
}

/// Whether `connect` at this endpoint would fail its valence check.
fn connect_feasible(mol: &Molecule, idx: usize, order: BondOrder) -> bool {
    mol.atom(idx)
        .is_ok_and(|a| a.radicals.saturating_add(a.hydrogens) >= order.valence_units())
}

fn is_forbidden(mol: &Molecule, forbids: &[Forbid]) -> bool {
    forbids.iter().any(|f| match f {
        Forbid::ChainLongerThan(elem, len) => max_chain(mol, *elem) > *len,
        Forbid::AtomMatching(pred) => (0..mol.atom_count()).any(|i| pred.matches(mol, i)),
    })
}

#[derive(Clone, Copy)]
enum MolEdit {
    OnBond(usize, usize),
    OnAtom(usize),
}

/// Size of the largest connected same-element component.
fn max_chain(mol: &Molecule, elem: Element) -> usize {
    let n = mol.atom_count();
    let mut seen = vec![false; n];
    let mut best = 0;
    for start in 0..n {
        if seen[start] || mol.atom(start).map(|a| a.element) != Ok(elem) {
            continue;
        }
        let mut size = 0;
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(at) = stack.pop() {
            size += 1;
            for nb in mol.neighbors(at).collect::<Vec<_>>() {
                if !seen[nb] && mol.atom(nb).map(|a| a.element) == Ok(elem) {
                    seen[nb] = true;
                    stack.push(nb);
                }
            }
        }
        best = best.max(size);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rdl;

    fn compile_src(src: &str) -> CompiledModel {
        compile(&parse_rdl(src).unwrap()).unwrap()
    }

    #[test]
    fn scission_generates_radical_fragments() {
        let model = compile_src(
            r#"
            rate K_sc = 2;
            molecule DiS = "CSSC" init 1.0;
            rule scission {
                site bond S ~ S order single;
                action disconnect;
                rate K_sc;
            }
            "#,
        );
        // CSSC -> 2 CS radicals: one new species, one reaction.
        assert_eq!(model.network.species_count(), 2);
        assert_eq!(model.network.reaction_count(), 1);
        let r = &model.network.reactions()[0];
        assert_eq!(r.reactants.len(), 1);
        assert_eq!(r.products.len(), 2);
        assert_eq!(r.products[0], r.products[1], "symmetric fragments dedup");
    }

    #[test]
    fn variant_expansion_seeds_all_lengths() {
        let model = compile_src(
            r#"
            rate K = 1;
            molecule Sx = "CS{n}C" for n in 2..4 init 0.1;
            rule noop {
                site bond S ~ S order double;
                action disconnect;
                rate K;
            }
            "#,
        );
        assert_eq!(model.network.species_count(), 3);
        assert!(model.network.species_by_name("Sx_2").is_some());
        assert!(model.network.species_by_name("Sx_4").is_some());
        // No S=S double bonds: nothing reacted.
        assert_eq!(model.network.reaction_count(), 0);
    }

    #[test]
    fn closure_cascades_scission() {
        // CSSSSC can break at 3 S-S bonds; fragments keep breaking.
        let model = compile_src(
            r#"
            rate K = 1;
            molecule S4 = "CS{n}C" for n in 4..4 init 1.0;
            rule scission {
                site bond S ~ S order single;
                action disconnect;
                rate K;
            }
            "#,
        );
        // Fragments: CS., CSS., CSSS. from first scissions, then further
        // breaking of those radicals.
        assert!(model.network.species_count() >= 4, "{}", model.network);
        assert!(model.network.reaction_count() >= 3, "{}", model.network);
    }

    #[test]
    fn chain_depth_context_restricts_scission() {
        // Only interior S-S bonds (both ends depth >= 3) may break.
        let model = compile_src(
            r#"
            rate K = 1;
            molecule S8 = "CS{n}C" for n in 8..8 init 1.0;
            rule interior_scission {
                site bond S & chain(S) >= 3 ~ S & chain(S) >= 3;
                action disconnect;
                rate K;
            }
            "#,
        );
        // The seed has 3 qualifying bonds, producing fragment pairs
        // (S3., S5.) and (S4., S4.). Fragments have no interior bonds deep
        // enough... S5 radical chain: depths 1..: for a 5-chain ends depth 1;
        // interior atom depths 2,3,2? chain of 5: [1,2,3,2,1] -> no bond
        // with both >= 3. So closure stops after one generation.
        let seed_reactions = model
            .network
            .reactions()
            .iter()
            .filter(|r| model.network.species(r.reactants[0]).name == "S8_8")
            .count();
        assert_eq!(seed_reactions, 2, "{}", model.network.display_equations());
        // (3,4) and (4,5) splits give {S3,S5} and {S4,S4}; (5,6) duplicates
        // {S5,S3} and dedups away.
        assert_eq!(model.network.reaction_count(), 2);
    }

    #[test]
    fn crosslink_pair_rule() {
        let model = compile_src(
            r#"
            rate K_h = 1;
            rate K_cl = 2;
            molecule Rubber = "CC=CC" init 1.0;
            molecule Thiyl = "C[S]" init 0.2;
            rule abstraction {
                on Rubber;
                site atom C & allylic & hydrogens >= 1;
                action remove_h;
                rate K_h;
            }
            rule crosslink {
                site pair S & radical, C & radical;
                action connect single;
                rate K_cl;
            }
            "#,
        );
        // Abstraction creates the allylic radical (the two allylic carbons
        // of CC=CC are symmetric, so one deduped reaction); crosslink then
        // couples it with the thiyl radical.
        assert_eq!(
            model.network.reaction_count(),
            2,
            "{}",
            model.network.display_equations()
        );
        let has_crosslink = model
            .network
            .reactions()
            .iter()
            .any(|r| r.rule == "crosslink" && r.reactants.len() == 2);
        assert!(has_crosslink);
    }

    #[test]
    fn forbid_chain_prunes_products() {
        // Recombination of thiyl radicals would form S4 chains; forbidding
        // chains > 3 blocks it.
        let model = compile_src(
            r#"
            rate K = 1;
            molecule Thiyl = "CSS" init 0.2;
            rule homolysis {
                site atom S & bonded(S) & hydrogens >= 1;
                action remove_h;
                rate K;
            }
            rule recombine {
                site pair S & radical, S & radical;
                action connect single;
                rate K;
            }
            forbid chain S > 3;
            "#,
        );
        for (_, s) in model.network.species_iter() {
            if let Some(m) = &s.structure {
                assert!(max_chain(m, Element::S) <= 3, "species {}", s.name);
            }
        }
    }

    #[test]
    fn unknown_rate_rejected() {
        let program = parse_rdl(
            "molecule A = \"C\"; rule r { site atom C; action remove_h; rate K_missing; }",
        )
        .unwrap();
        assert!(matches!(
            compile(&program),
            Err(RdlError::UnknownRate { .. })
        ));
    }

    #[test]
    fn unknown_scope_molecule_rejected() {
        let program = parse_rdl(
            "rate K = 1; molecule A = \"C\"; rule r { on B; site atom C; action remove_h; rate K; }",
        )
        .unwrap();
        assert!(matches!(
            compile(&program),
            Err(RdlError::UnknownMolecule { .. })
        ));
    }

    #[test]
    fn species_limit_enforced() {
        let program = parse_rdl(
            r#"
            rate K = 1;
            molecule Sx = "CS{n}C" for n in 2..4 init 1.0;
            rule scission { site bond S ~ S; action disconnect; rate K; }
            limit species 5;
            "#,
        )
        .unwrap();
        assert!(matches!(
            compile(&program),
            Err(RdlError::SpeciesLimitExceeded(5))
        ));
    }

    #[test]
    fn generation_limit_bounds_work() {
        let model = compile_src(
            r#"
            rate K = 1;
            molecule Sx = "CS{n}C" for n in 8..8 init 1.0;
            rule scission { site bond S ~ S; action disconnect; rate K; }
            limit generations 1;
            "#,
        );
        // One generation: only the seed's bonds break (9 bonds, but C-S
        // don't match; 7 S-S bonds giving 4 distinct splits).
        let products_of_seed: Vec<_> = model
            .network
            .reactions()
            .iter()
            .filter(|r| model.network.species(r.reactants[0]).name == "Sx_8")
            .collect();
        assert_eq!(model.network.reaction_count(), products_of_seed.len());
    }

    #[test]
    fn max_chain_helper() {
        let m = parse_smiles("CSSSSC").unwrap();
        assert_eq!(max_chain(&m, Element::S), 4);
        assert_eq!(max_chain(&m, Element::C), 1);
        assert_eq!(max_chain(&m, Element::O), 0);
    }

    // ---- thread-count and oracle equivalence ----------------------------

    /// A cascading program exercising every rule kind, scopes, forbids,
    /// and multi-generation closure.
    const CASCADE: &str = r#"
        rate K_sc = 1;
        rate K_h = 2;
        rate K_cl = 3;
        molecule Sx = "CS{n}C" for n in 2..6 init 1.0;
        molecule Rubber = "CC=CC" init 0.5;
        rule scission { site bond S ~ S order single; action disconnect; rate K_sc; }
        rule abstraction { on Rubber; site atom C & allylic & hydrogens >= 1; action remove_h; rate K_h; }
        rule couple { site pair S & radical, C & radical; action connect single; rate K_cl; }
        rule recombine { site pair S & radical, S & radical; action connect single; rate K_cl; }
        forbid chain S > 6;
        limit species 500;
    "#;

    /// Full observable serialization of a network: species (name, initial,
    /// canonical structure) in id order plus the equation table.
    fn serialize(network: &ReactionNetwork) -> String {
        let mut out = String::new();
        for (id, s) in network.species_iter() {
            out.push_str(&format!(
                "{}|{}|{}\n",
                s.name,
                s.initial_concentration,
                network.canonical_smiles(id).unwrap_or_default()
            ));
        }
        out.push_str(&network.display_equations());
        out
    }

    fn compile_threads(src: &str, threads: usize) -> Result<CompiledModel> {
        let program = parse_rdl(src).unwrap();
        let rates = RateTable::parse(&program.rate_source)?;
        let seeds = expand_program(&program)?;
        compile_with_options(&program, rates, &seeds, &EngineOptions { threads })
    }

    #[cfg(feature = "oracle")]
    #[test]
    fn oracle_paths_build_the_product_network() {
        let program = parse_rdl(CASCADE).unwrap();
        let product = compile_threads(CASCADE, 1).unwrap();
        for (string_keys, legacy_rescan) in [(true, true), (true, false), (false, true)] {
            let oracle = Oracle {
                string_keys,
                legacy_rescan,
            };
            let rates = RateTable::parse(&program.rate_source).unwrap();
            let seeds = expand_program(&program).unwrap();
            let options = EngineOptions { threads: 1 };
            let model = compile_with_oracle(&program, rates, &seeds, &options, oracle).unwrap();
            assert_eq!(
                serialize(&model.network),
                serialize(&product.network),
                "{oracle:?}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_network() {
        let reference = compile_threads(CASCADE, 1).unwrap();
        for threads in [2, 3, 8] {
            let parallel = compile_threads(CASCADE, threads).unwrap();
            assert_eq!(
                serialize(&reference.network),
                serialize(&parallel.network),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn stats_populated_on_fixpoint() {
        let model = compile_threads(CASCADE, 0).unwrap();
        let stats = &model.stats;
        assert!(stats.fixpoint);
        assert!(stats.growing_rules.is_empty());
        assert!(stats.generations >= 2);
        assert_eq!(stats.generation_seconds.len(), stats.generations);
        assert!(stats.rule_applications > 0);
        assert!(stats.canonicalizations > 0);
        // The symmetric seeds (`CS{n}C`, `CC=CC`) alone need the tie-break.
        assert!((6..stats.canonicalizations).contains(&stats.identity_slow_path));
        assert!(stats.prefilter_lookups > 0);
        assert!(stats.prefilter_hits > 0);
        assert!(stats.prefilter_hit_rate() > 0.0);
        assert!(stats.peak_frontier > 0);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn generation_cap_reports_growing_rules() {
        let model = compile_src(
            r#"
            rate K = 1;
            molecule Sx = "CS{n}C" for n in 8..8 init 1.0;
            rule scission { site bond S ~ S; action disconnect; rate K; }
            limit generations 1;
            "#,
        );
        assert!(!model.stats.fixpoint);
        assert_eq!(model.stats.growing_rules, vec!["scission".to_string()]);
        assert_eq!(model.stats.generations, 1);
    }

    #[test]
    fn edit_feasibility_mirrors_graph_preconditions() {
        // For every bond/atom of a few molecules and every unimolecular
        // action, the precheck must agree exactly with attempting the edit.
        let mut mols = vec![
            parse_smiles("CSSC").unwrap(),
            parse_smiles("CC=CC").unwrap(),
            parse_smiles("C#CC").unwrap(),
            parse_smiles("CS").unwrap(),
        ];
        let mut radical = parse_smiles("CSSC").unwrap();
        radical.disconnect(1, 2).unwrap();
        mols.extend(radical.split_components());
        for mol in &mols {
            let bonds: Vec<(usize, usize)> = mol.bonds().map(|b| (b.a, b.b)).collect();
            for &(a, b) in &bonds {
                for action in [
                    Action::Disconnect,
                    Action::IncreaseBond,
                    Action::DecreaseBond,
                ] {
                    let edit = MolEdit::OnBond(a, b);
                    let mut probe = mol.clone();
                    let actual = match action {
                        Action::Disconnect => probe.disconnect(a, b).is_ok(),
                        Action::IncreaseBond => probe.increase_bond_order(a, b).is_ok(),
                        Action::DecreaseBond => probe.decrease_bond_order(a, b).is_ok(),
                        _ => unreachable!(),
                    };
                    assert_eq!(edit_feasible(mol, edit, action), actual);
                }
            }
            for i in 0..mol.atom_count() {
                for action in [Action::RemoveHydrogen, Action::AddHydrogen] {
                    let edit = MolEdit::OnAtom(i);
                    let mut probe = mol.clone();
                    let actual = match action {
                        Action::RemoveHydrogen => probe.remove_hydrogen(i).is_ok(),
                        Action::AddHydrogen => probe.add_hydrogen(i).is_ok(),
                        _ => unreachable!(),
                    };
                    assert_eq!(edit_feasible(mol, edit, action), actual);
                }
            }
        }
    }
}
