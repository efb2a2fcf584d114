//! Canonical atom ranking: equitable-partition refinement by cell
//! splitting over a worklist, with individualization tie-breaking — the
//! basis for canonical SMILES, molecule equality and hashing.
//!
//! The paper relies on the CDK for "isomorphism checking" when deduping
//! molecules produced by rule application; canonical labeling gives us the
//! same capability with O(1) equality via the canonical form.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::bond::BondOrder;
use crate::graph::Molecule;

/// Initial per-atom invariant (element, connectivity, hydrogen count,
/// charge, radicals, aromaticity).
pub(crate) fn initial_invariants(mol: &Molecule) -> Vec<u64> {
    mol.atoms()
        .map(|(i, a)| {
            let mut v: u64 = a.element.atomic_number() as u64;
            v = v * 16 + mol.degree(i) as u64;
            v = v * 16 + a.hydrogens as u64;
            v = v * 32 + (a.charge as i64 + 8) as u64;
            v = v * 8 + a.radicals as u64;
            v = v * 2 + a.aromatic as u64;
            v
        })
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Adjacency entries visited by refinements on this thread (the
    /// complexity pin counts work, not time).
    static ADJ_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

thread_local! {
    /// One refiner per thread: a closure worker refines tens of thousands
    /// of molecules and should not allocate a dozen vectors for each.
    static REFINER: RefCell<Refiner> = RefCell::default();
}

/// Working storage of [`Refiner::refine`], reused from call to call.
///
/// Cells are contiguous runs of `order` and are named by their start
/// position; `len`, `tail` and `queued` are indexed by that name.
#[derive(Default)]
struct Refiner {
    /// CSR adjacency: atom `a`'s entries are `adj[adj_start[a]..adj_start[a + 1]]`.
    adj_start: Vec<u32>,
    /// (neighbour, bond weight): one 16-bit lane per [`BondOrder`], so the
    /// sum over an atom's bonds into a cell says how many of each order.
    adj: Vec<(u32, u64)>,
    order: Vec<u32>,
    pos: Vec<u32>,
    cell: Vec<u32>,
    len: Vec<u32>,
    /// Members of a cell moved to its tail because the splitter touches them.
    tail: Vec<u32>,
    queued: Vec<bool>,
    queue: VecDeque<u32>,
    /// Per-atom weighted bond count into the current splitter.
    count: Vec<u64>,
    touched: Vec<u32>,
    hit_cells: Vec<u32>,
    fragments: Vec<u32>,
}

impl Refiner {
    /// Refine the partition induced by `start` (cells in ascending value
    /// order) to the coarsest equitable partition. Returns each atom's
    /// rank — the number of atoms in the cells before its own, so `0..n`
    /// when the partition is discrete — and the number of cells.
    ///
    /// Splitter cells leave a FIFO queue; each neighbour of the splitter
    /// accumulates its weighted bond count into it, only the *touched*
    /// atoms move (to the tail of their cell, which alone is sorted), a
    /// cell splits in ascending count order, and every fragment but the
    /// largest is queued — all fragments if the cell itself was still
    /// queued. Total work is O((n + m) log n). Cell position, count order,
    /// the order cells are split in and the first-largest tie are all
    /// functions of invariant quantities, so the ranks do not depend on
    /// how the atoms are numbered; the order *within* a cell does, and
    /// nothing reads it.
    fn refine(&mut self, mol: &Molecule, start: &[u64]) -> (Vec<u32>, usize) {
        let n = mol.atom_count();
        self.adj_start.clear();
        self.adj.clear();
        self.adj_start.push(0);
        for a in 0..n {
            self.adj.extend(mol.bonds_at(a).map(|b| {
                let other = b.other(a).expect("a bond at `a` has `a` as an endpoint");
                (other as u32, 1u64 << (16 * b.order as u32))
            }));
            self.adj_start.push(self.adj.len() as u32);
        }
        for v in [&mut self.pos, &mut self.cell, &mut self.len, &mut self.tail] {
            v.clear();
            v.resize(n, 0);
        }
        self.queued.clear();
        self.queued.resize(n, false);
        self.count.clear();
        self.count.resize(n, 0);
        self.queue.clear();
        self.order.clear();
        self.order.extend(0..n as u32);
        self.order.sort_unstable_by_key(|&a| start[a as usize]);
        let mut s = 0;
        while s < n {
            let key = start[self.order[s] as usize];
            let mut e = s;
            while e < n && start[self.order[e] as usize] == key {
                self.cell[self.order[e] as usize] = s as u32;
                self.pos[self.order[e] as usize] = e as u32;
                e += 1;
            }
            self.len[s] = (e - s) as u32;
            self.queued[s] = true;
            self.queue.push_back(s as u32);
            s = e;
        }
        let mut cells = self.queue.len();

        while let Some(splitter) = self.queue.pop_front() {
            if cells == n {
                break;
            }
            let s = splitter as usize;
            self.queued[s] = false;
            for p in s..s + self.len[s] as usize {
                let u = self.order[p] as usize;
                let row = self.adj_start[u] as usize..self.adj_start[u + 1] as usize;
                #[cfg(test)]
                ADJ_VISITS.with(|c| c.set(c.get() + row.len() as u64));
                for &(v, weight) in &self.adj[row] {
                    if self.count[v as usize] == 0 {
                        self.touched.push(v);
                    }
                    // Saturating: a touched atom's count never returns to 0.
                    self.count[v as usize] = self.count[v as usize].saturating_add(weight);
                }
            }
            // Only now move the touched atoms: the splitter may touch itself.
            for &v in &self.touched {
                let c = self.cell[v as usize] as usize;
                if self.tail[c] == 0 {
                    self.hit_cells.push(c as u32);
                }
                self.tail[c] += 1;
                let dest = c + (self.len[c] - self.tail[c]) as usize;
                let (from, displaced) = (self.pos[v as usize] as usize, self.order[dest]);
                self.order[from] = displaced;
                self.pos[displaced as usize] = from as u32;
                self.order[dest] = v;
                self.pos[v as usize] = dest as u32;
            }
            self.hit_cells.sort_unstable();
            for i in 0..self.hit_cells.len() {
                cells += self.split(self.hit_cells[i] as usize);
            }
            for &v in &self.touched {
                self.count[v as usize] = 0;
            }
            self.touched.clear();
            self.hit_cells.clear();
        }

        (self.cell.clone(), cells)
    }

    /// Split cell `c` by the counts of its touched tail; returns how many
    /// cells that added. Untouched members (count 0) keep the head.
    fn split(&mut self, c: usize) -> usize {
        let end = c + self.len[c] as usize;
        let tail_start = end - self.tail[c] as usize;
        self.tail[c] = 0;
        let count = &self.count;
        self.order[tail_start..end].sort_unstable_by_key(|&a| count[a as usize]);
        self.fragments.clear();
        if tail_start > c {
            self.fragments.push(c as u32);
        }
        for p in tail_start..end {
            let a = self.order[p] as usize;
            self.pos[a] = p as u32;
            if p == tail_start || count[a] != count[self.order[p - 1] as usize] {
                self.fragments.push(p as u32);
            }
        }
        if self.fragments.len() == 1 {
            return 0;
        }
        let was_queued = self.queued[c];
        let (mut largest, mut largest_len) = (c, 0);
        for i in 0..self.fragments.len() {
            let f = self.fragments[i] as usize;
            let f_end = self.fragments.get(i + 1).map_or(end, |&next| next as usize);
            self.len[f] = (f_end - f) as u32;
            if f != c {
                for p in f..f_end {
                    self.cell[self.order[p] as usize] = f as u32;
                }
            }
            if f_end - f > largest_len {
                (largest, largest_len) = (f, f_end - f);
            }
        }
        for &f in &self.fragments {
            // A queued cell stays queued as its head fragment; a cell that
            // already served as a splitter needs all fragments but one.
            let skip = if was_queued { c } else { largest };
            if f as usize != skip {
                self.queued[f as usize] = true;
                self.queue.push_back(f);
            }
        }
        self.fragments.len() - 1
    }
}

/// Refine the partition `start` induces to the coarsest equitable one
/// ([`Refiner::refine`] on this thread's refiner).
pub(crate) fn refine_to_fixpoint(mol: &Molecule, start: Vec<u64>) -> (Vec<u32>, usize) {
    REFINER.with_borrow_mut(|refiner| refiner.refine(mol, &start))
}

/// Compute canonical ranks for all atoms: a permutation-invariant total
/// order (ties broken by systematic individualization, choosing the branch
/// with the lexicographically smallest certificate).
pub fn canonical_ranks(mol: &Molecule) -> Vec<u32> {
    let (ranks, classes) = refine_to_fixpoint(mol, initial_invariants(mol));
    complete(mol, ranks, classes)
}

/// Make an equitable partition discrete. A discrete one is returned as it
/// is; a disconnected molecule is completed component by component;
/// otherwise individualize-and-refine depth first and keep the leaf with
/// the smallest certificate.
pub(crate) fn complete(mol: &Molecule, ranks: Vec<u32>, classes: usize) -> Vec<u32> {
    if classes == ranks.len() {
        return ranks;
    }
    let components = mol.components();
    if components.len() > 1 {
        return by_component(mol, &components);
    }
    let mut search = Search {
        mol,
        best: None,
        automorphisms: Vec::new(),
        path: Vec::new(),
    };
    search.visit(ranks, classes);
    search.best.expect("the search reaches a leaf").1
}

/// Canonical ranks of a disconnected molecule: each component ranked on
/// its own, the components laid out in the order of their certificates.
/// Components with equal certificates are isomorphic, so their order
/// among themselves does not change the labelled graph. A search over
/// the whole molecule would have to find that out by individualizing: on
/// k identical fragments it grows about as k⁷.
fn by_component(mol: &Molecule, components: &[Vec<usize>]) -> Vec<u32> {
    let parts = mol.clone().split_components();
    let mut ranked: Vec<(Vec<u64>, &[usize], Vec<u32>)> = parts
        .iter()
        .zip(components)
        .map(|(part, atoms)| {
            let ranks = canonical_ranks(part);
            let mut cert = vec![0u64; atoms.len()];
            for (atom, invariant) in initial_invariants(part).into_iter().enumerate() {
                cert[ranks[atom] as usize] = invariant;
            }
            cert.extend(certificate(part, &ranks));
            (cert, atoms.as_slice(), ranks)
        })
        .collect();
    ranked.sort_by(|a, b| (a.1.len(), &a.0).cmp(&(b.1.len(), &b.0)));
    let mut out = vec![0u32; mol.atom_count()];
    let mut offset = 0;
    for (_, atoms, ranks) in ranked {
        // `split_components` keeps each component's atoms in ascending order.
        for (&atom, &r) in atoms.iter().zip(&ranks) {
            out[atom] = offset + r;
        }
        offset += atoms.len() as u32;
    }
    out
}

/// Individualization-refinement search. Two leaves with equal certificates
/// differ by an automorphism; a candidate that such automorphisms (those
/// fixing the atoms individualized so far) map an explored sibling onto
/// heads an identical subtree and is skipped, which keeps symmetric
/// molecules — k independent mirror pairs are 2^k leaves unpruned — at a
/// number of refinements polynomial in the atom count.
struct Search<'a> {
    mol: &'a Molecule,
    /// Smallest leaf so far: (certificate, ranks).
    best: Option<(Vec<u64>, Vec<u32>)>,
    /// Each maps atom → image.
    automorphisms: Vec<Vec<u32>>,
    /// Atoms individualized between the root and the current node.
    path: Vec<usize>,
}

impl Search<'_> {
    fn visit(&mut self, ranks: Vec<u32>, classes: usize) {
        let n = ranks.len();
        if classes == n {
            let cert = certificate(self.mol, &ranks);
            match &self.best {
                Some((best_cert, best_ranks)) if *best_cert == cert => {
                    let mut at_rank = vec![0u32; n];
                    for (atom, &r) in best_ranks.iter().enumerate() {
                        at_rank[r as usize] = atom as u32;
                    }
                    self.automorphisms
                        .push(ranks.iter().map(|&r| at_rank[r as usize]).collect());
                }
                Some((best_cert, _)) if *best_cert < cert => {}
                _ => self.best = Some((cert, ranks)),
            }
            return;
        }
        let mut sizes = vec![0u32; n];
        for &r in &ranks {
            sizes[r as usize] += 1;
        }
        let tied = sizes.iter().position(|&s| s > 1).expect("not discrete") as u32;
        let mut explored: Vec<usize> = Vec::new();
        for atom in (0..n).filter(|&a| ranks[a] == tied) {
            if self.image_of_explored(atom, &explored) {
                continue;
            }
            explored.push(atom);
            let mut seed: Vec<u64> = ranks.iter().map(|&r| r as u64 * 2).collect();
            seed[atom] += 1; // individualize
            let (refined, refined_classes) = refine_to_fixpoint(self.mol, seed);
            self.path.push(atom);
            self.visit(refined, refined_classes);
            self.path.pop();
        }
    }

    /// Whether `atom` shares an orbit with an explored sibling under the
    /// known automorphisms that fix every atom on the path.
    fn image_of_explored(&self, atom: usize, explored: &[usize]) -> bool {
        let generators: Vec<&Vec<u32>> = self
            .automorphisms
            .iter()
            .filter(|g| self.path.iter().all(|&a| g[a] as usize == a))
            .collect();
        // A permutation has finite order, so images alone close the orbit.
        let mut in_orbit = vec![false; self.mol.atom_count()];
        let mut orbit = vec![atom];
        in_orbit[atom] = true;
        while let Some(a) = orbit.pop() {
            for g in &generators {
                let image = g[a] as usize;
                if !in_orbit[image] {
                    in_orbit[image] = true;
                    orbit.push(image);
                }
            }
        }
        explored.iter().any(|&e| in_orbit[e])
    }
}

/// A canonical certificate: the bond relation, orders included, rewritten
/// in rank space. Two rank assignments of the same molecule compare
/// meaningfully.
pub(crate) fn certificate(mol: &Molecule, ranks: &[u32]) -> Vec<u64> {
    let n = mol.atom_count() as u64;
    let mut edges: Vec<u64> = mol
        .bonds()
        .map(|b| {
            let (ra, rb) = (ranks[b.a] as u64, ranks[b.b] as u64);
            (ra.min(rb) * n + ra.max(rb)) * 8 + b.order as u64
        })
        .collect();
    edges.sort_unstable();
    edges
}

// `BondOrder as u64` above and the 16-bit count lanes in `Refiner::refine`
// need the discriminants to be 0..=3.
const _: () = assert!(BondOrder::Aromatic as u32 == 3);

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::{Duration, Instant};

    use proptest::prelude::*;

    use super::*;
    use crate::atom::Atom;
    use crate::element::Element;
    use crate::smiles::parse_smiles;

    fn chain(elements: &[Element]) -> Molecule {
        let mut m = Molecule::new();
        let idx: Vec<usize> = elements.iter().map(|&e| m.add_atom(Atom::new(e))).collect();
        m.infer_all_hydrogens().unwrap();
        for w in idx.windows(2) {
            m.connect(w[0], w[1], BondOrder::Single).unwrap();
            m.infer_all_hydrogens().unwrap();
        }
        m
    }

    /// `mol` with its atoms renumbered by a permutation drawn from `seed`.
    fn relabel(mol: &Molecule, seed: u64) -> Molecule {
        let n = mol.atom_count();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut old_to_new = vec![0; n];
        let mut out = Molecule::new();
        for (new, &old) in perm.iter().enumerate() {
            out.add_atom(*mol.atom(old).unwrap());
            old_to_new[old] = new;
        }
        let mut bonds: Vec<_> = mol.bonds().copied().collect();
        let shift = (seed % 7) as usize % bonds.len().max(1);
        bonds.rotate_left(shift);
        for b in bonds {
            out.add_bond(old_to_new[b.a], old_to_new[b.b], b.order)
                .unwrap();
        }
        out
    }

    // ---- the round-synchronous oracle ------------------------------------
    //
    // Morgan refinement as this module ran it before the worklist: one full
    // pass over all atoms per round, each atom folding the sorted multiset
    // of (bond order, neighbour rank) into a hash, until the class count
    // stops growing. Kept to check that the worklist reaches the same
    // partition.

    fn densify(values: &[u64]) -> (Vec<u32>, usize) {
        let mut sorted: Vec<u64> = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let index: HashMap<u64, u32> = sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        (values.iter().map(|v| index[v]).collect(), sorted.len())
    }

    fn refine_once(mol: &Molecule, ranks: &[u32]) -> Vec<u64> {
        let n = mol.atom_count();
        (0..n)
            .map(|i| {
                let mut nbrs: Vec<u64> = mol
                    .bonds_at(i)
                    .map(|b| {
                        let j = b.other(i).unwrap();
                        (b.order as u64 + 1) * (n as u64 + 1) + ranks[j] as u64
                    })
                    .collect();
                nbrs.sort_unstable();
                nbrs.iter()
                    .fold(0xcbf2_9ce4_8422_2325 ^ (ranks[i] as u64), |h, v| {
                        (h ^ v).wrapping_mul(0x1000_0000_01b3)
                    })
            })
            .collect()
    }

    fn oracle_refine(mol: &Molecule, start: &[u64]) -> (Vec<u32>, usize) {
        let (mut ranks, mut classes) = densify(start);
        loop {
            let combined: Vec<u64> = refine_once(mol, &ranks)
                .iter()
                .zip(&ranks)
                .map(|(&h, &r)| h.wrapping_mul(31).wrapping_add(r as u64 + 1))
                .collect();
            let (new_ranks, new_classes) = densify(&combined);
            if new_classes == classes {
                return (ranks, classes);
            }
            (ranks, classes) = (new_ranks, new_classes);
        }
    }

    /// A partition as a set of cells, forgetting how the cells are ranked.
    fn cells(ranks: &[u32]) -> Vec<Vec<usize>> {
        let mut by_rank: HashMap<u32, Vec<usize>> = HashMap::new();
        for (atom, &r) in ranks.iter().enumerate() {
            by_rank.entry(r).or_default().push(atom);
        }
        let mut out: Vec<Vec<usize>> = by_rank.into_values().collect();
        out.sort();
        out
    }

    /// Random trees plus ring closures over {C, N, O, S} with mixed bond
    /// orders. Structure only: valences are not checked, refinement and
    /// identity do not care.
    fn arb_graph() -> impl Strategy<Value = Molecule> {
        let elems = prop::sample::select(vec![Element::C, Element::N, Element::O, Element::S]);
        let orders = || {
            prop::sample::select(vec![
                BondOrder::Single,
                BondOrder::Single,
                BondOrder::Double,
                BondOrder::Triple,
                BondOrder::Aromatic,
            ])
        };
        let nodes = prop::collection::vec((elems, any::<u8>(), orders()), 1..24);
        let rings = prop::collection::vec((any::<u8>(), any::<u8>(), orders()), 0..4);
        (nodes, rings).prop_map(|(nodes, rings)| {
            let mut m = Molecule::new();
            for (i, (e, parent, order)) in nodes.iter().enumerate() {
                m.add_atom(Atom::new(*e));
                if i > 0 {
                    m.add_bond(*parent as usize % i, i, *order).unwrap();
                }
            }
            let n = m.atom_count();
            for (a, b, order) in rings {
                // Self bonds and duplicates are refused; skip those draws.
                let _ = m.add_bond(a as usize % n, b as usize % n, order);
            }
            m
        })
    }

    /// The disjoint union of `parts`, in order.
    fn disjoint_union<'a>(parts: impl IntoIterator<Item = &'a Molecule>) -> Molecule {
        let mut out = Molecule::new();
        for part in parts {
            let base = out.atom_count();
            for (_, atom) in part.atoms() {
                out.add_atom(*atom);
            }
            for b in part.bonds() {
                out.add_bond(base + b.a, base + b.b, b.order).unwrap();
            }
        }
        out
    }

    /// Up to three random graphs, each repeated up to three times: a
    /// disconnected molecule whose identical fragments leave the
    /// refinement partition symmetric.
    fn arb_fragments() -> impl Strategy<Value = Molecule> {
        prop::collection::vec((arb_graph(), 1usize..4), 1..4).prop_map(|kinds| {
            let parts: Vec<&Molecule> = kinds
                .iter()
                .flat_map(|(m, copies)| std::iter::repeat_n(m, *copies))
                .collect();
            disjoint_union(parts)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn identity_is_invariant_under_relabeling_of_disconnected_graphs(
            m in arb_fragments(),
            seed in any::<u64>(),
        ) {
            let (a, b) = (crate::identify(&m), crate::identify(&relabel(&m, seed)));
            prop_assert_eq!(&a.cert, &b.cert);
            prop_assert_eq!(a.hash, b.hash);
            prop_assert_eq!(a.slow_path, b.slow_path);
            let key = crate::canonical_key(&m);
            prop_assert_eq!(&key, &crate::canonical_key(&relabel(&m, seed)));
        }

        #[test]
        fn worklist_partition_equals_round_synchronous_oracle(m in arb_graph()) {
            let init = initial_invariants(&m);
            let (ranks, classes) = refine_to_fixpoint(&m, init.clone());
            let (oracle_ranks, oracle_classes) = oracle_refine(&m, &init);
            prop_assert_eq!(classes, oracle_classes);
            prop_assert_eq!(cells(&ranks), cells(&oracle_ranks));
        }

        #[test]
        fn identity_is_invariant_under_relabeling(m in arb_graph(), seed in any::<u64>()) {
            let (a, b) = (crate::identify(&m), crate::identify(&relabel(&m, seed)));
            prop_assert_eq!(&a.cert, &b.cert);
            prop_assert_eq!(a.hash, b.hash);
            prop_assert_eq!(a.slow_path, b.slow_path);
        }
    }

    #[test]
    fn refiner_reuse_does_not_leak_state_between_molecules() {
        let mut reused = Refiner::default();
        for smiles in [
            "CSSSSOOOC",
            "C1CCCCC1",
            "CC(C)(C)C",
            "CS",
            "c1ccccc1-c1ccccc1",
        ] {
            let m = parse_smiles(smiles).unwrap();
            let init = initial_invariants(&m);
            assert_eq!(
                reused.refine(&m, &init),
                Refiner::default().refine(&m, &init),
                "{smiles}"
            );
        }
    }

    /// `C S{a} O{a} C`: the closure's typical product, and the worst case
    /// of the round-synchronous refinement (~a/2 rounds of n atoms each).
    fn mixed_chain(a: usize) -> Molecule {
        let mut elements = vec![Element::C];
        elements.extend(std::iter::repeat_n(Element::S, a));
        elements.extend(std::iter::repeat_n(Element::O, a));
        elements.push(Element::C);
        chain(&elements)
    }

    #[test]
    fn refinement_work_is_near_linear_on_mixed_chains() {
        let visits: Vec<u64> = [20, 40, 80, 160]
            .iter()
            .map(|&a| {
                let m = mixed_chain(a);
                ADJ_VISITS.with(|c| c.set(0));
                let (_, classes) = refine_to_fixpoint(&m, initial_invariants(&m));
                assert_eq!(classes, m.atom_count(), "a = {a}");
                ADJ_VISITS.with(|c| c.get())
            })
            .collect();
        for pair in visits.windows(2) {
            assert!(
                (pair[1] as f64) < 2.5 * pair[0] as f64,
                "adjacency visits per doubling: {visits:?}"
            );
        }
    }

    #[test]
    fn symmetric_inputs_canonicalize_fast_and_relabeling_invariantly() {
        // A 60-atom comb: 20 backbone carbons, two methyls on each — 20
        // independent mirror pairs, 2^20 leaves for an unpruned search.
        let comb = format!("C{}C", "C(C)(C)".repeat(19));
        let cases = [
            ("S8", "S1SSSSSSS1".to_string()),
            ("neopentane", "CC(C)(C)C".to_string()),
            ("cyclohexane", "C1CCCCC1".to_string()),
            ("CS40C", format!("C{}C", "S".repeat(40))),
            ("comb", comb),
        ];
        for (name, smiles) in cases {
            let m = parse_smiles(&smiles).unwrap();
            let started = Instant::now();
            let mut ranks = canonical_ranks(&m);
            let reference = certificate(&m, &ranks);
            for seed in 1..=4 {
                let other = relabel(&m, seed);
                assert_eq!(
                    certificate(&other, &canonical_ranks(&other)),
                    reference,
                    "{name} seed {seed}"
                );
            }
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "{name} took {:?}",
                started.elapsed()
            );
            ranks.sort_unstable();
            assert_eq!(ranks, (0..m.atom_count() as u32).collect::<Vec<_>>());
        }
    }

    /// Identical fragments are a partition the refinement cannot split,
    /// and a search over the whole molecule grows about as k⁷ on k of
    /// them. Ranked a component at a time, the work is linear in k.
    #[test]
    fn identical_fragments_canonicalize_in_linear_work() {
        for fragment in ["S", "CSSC"] {
            let mut visits = Vec::new();
            for k in [16, 64] {
                let m = parse_smiles(&vec![fragment; k].join(".")).unwrap();
                let started = Instant::now();
                ADJ_VISITS.with(|c| c.set(0));
                let id = crate::identify(&m);
                visits.push(ADJ_VISITS.with(|c| c.get()));
                assert!(id.slow_path, "{k} × {fragment}");
                assert_eq!(
                    id,
                    crate::identify(&relabel(&m, k as u64)),
                    "{k} × {fragment}"
                );
                assert!(
                    started.elapsed() < Duration::from_secs(2),
                    "{k} × {fragment} took {:?}",
                    started.elapsed()
                );
            }
            assert!(
                visits[1] <= 5 * visits[0],
                "{fragment}: adjacency visits at 16 and 64 fragments {visits:?}"
            );
        }
        // The fragments still count: a different multiset of them is a
        // different molecule, and their order is not.
        let id = |smiles: &str| crate::identify(&parse_smiles(smiles).unwrap()).cert;
        assert_eq!(id("CSSC.S.CSSC"), id("S.CSSC.CSSC"));
        assert_ne!(id("CSSC.S.S"), id("S.CSSC.CSSC"));
        assert_ne!(id("CSSC.CSSC"), id("CSSSSC"));
    }

    #[test]
    fn ranks_are_a_permutation() {
        let m = chain(&[Element::C, Element::S, Element::O, Element::C]);
        let mut r = canonical_ranks(&m);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3]);
    }

    #[test]
    fn symmetric_chain_ends_tie_broken() {
        // propane: the two CH3 are equivalent; ranks must still be discrete.
        let m = chain(&[Element::C, Element::C, Element::C]);
        let mut r = canonical_ranks(&m);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2]);
    }

    #[test]
    fn relabeling_gives_same_certificate() {
        // Build CCO and OCC (reverse labeling); certificates must agree.
        let a = chain(&[Element::C, Element::C, Element::O]);
        let b = chain(&[Element::O, Element::C, Element::C]);
        let ca = certificate(&a, &canonical_ranks(&a));
        let cb = certificate(&b, &canonical_ranks(&b));
        assert_eq!(ca, cb);
    }

    #[test]
    fn different_molecules_differ() {
        let a = chain(&[Element::C, Element::C, Element::O]);
        let b = chain(&[Element::C, Element::O, Element::C]);
        let ca = certificate(&a, &canonical_ranks(&a));
        let cb = certificate(&b, &canonical_ranks(&b));
        assert_ne!(ca, cb);
    }

    #[test]
    fn empty_molecule() {
        let m = Molecule::new();
        assert!(canonical_ranks(&m).is_empty());
    }
}
