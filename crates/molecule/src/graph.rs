//! The molecular graph and the six reaction-rule primitives.
//!
//! The paper (§2) lists six rule kinds the chemical compiler can apply:
//! (1) disconnect two atoms; (2) connect two atoms; (3) decrease the bond
//! order; (4) increase the bond order; (5) remove a hydrogen atom; and
//! (6) add hydrogen atoms. [`Molecule`] implements each as a checked edit.

use crate::atom::Atom;
use crate::bond::{Bond, BondOrder};
use crate::element::Element;
use crate::error::{MoleculeError, Result};

/// A molecule (or radical) as an undirected labelled graph.
///
/// Atom indices are dense (`0..atom_count()`) and remain stable across bond
/// edits; removing atoms (via [`Molecule::split_components`]) produces new
/// molecules with re-indexed atoms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Molecule {
    atoms: Vec<Atom>,
    bonds: Vec<Bond>,
    /// adjacency[i] = indices into `bonds` touching atom i.
    adjacency: Vec<Vec<usize>>,
}

impl Molecule {
    /// An empty molecule.
    pub fn new() -> Molecule {
        Molecule::default()
    }

    /// Number of (heavy, explicit) atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of bonds.
    pub fn bond_count(&self) -> usize {
        self.bonds.len()
    }

    /// Append an atom, returning its index.
    pub fn add_atom(&mut self, atom: Atom) -> usize {
        self.atoms.push(atom);
        self.adjacency.push(Vec::new());
        self.atoms.len() - 1
    }

    /// Immutable atom access.
    pub fn atom(&self, idx: usize) -> Result<&Atom> {
        self.atoms.get(idx).ok_or(MoleculeError::InvalidAtom(idx))
    }

    /// Mutable atom access.
    pub fn atom_mut(&mut self, idx: usize) -> Result<&mut Atom> {
        self.atoms
            .get_mut(idx)
            .ok_or(MoleculeError::InvalidAtom(idx))
    }

    /// Iterate over atoms with indices.
    pub fn atoms(&self) -> impl Iterator<Item = (usize, &Atom)> {
        self.atoms.iter().enumerate()
    }

    /// Iterate over bonds.
    pub fn bonds(&self) -> impl Iterator<Item = &Bond> {
        self.bonds.iter()
    }

    /// Neighbor atom indices of `idx` (unordered).
    pub fn neighbors(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency
            .get(idx)
            .into_iter()
            .flatten()
            .filter_map(move |&bi| self.bonds[bi].other(idx))
    }

    /// The bonds touching atom `idx` (unordered).
    pub(crate) fn bonds_at(&self, idx: usize) -> impl Iterator<Item = &Bond> + '_ {
        self.adjacency[idx].iter().map(move |&bi| &self.bonds[bi])
    }

    /// Degree (number of explicit bonds) of atom `idx`.
    pub fn degree(&self, idx: usize) -> usize {
        self.adjacency.get(idx).map_or(0, |v| v.len())
    }

    /// Find the bond between `a` and `b`, returning its index into the
    /// internal bond list.
    fn bond_index(&self, a: usize, b: usize) -> Option<usize> {
        self.adjacency
            .get(a)?
            .iter()
            .copied()
            .find(|&bi| self.bonds[bi].touches(b))
    }

    /// The bond between `a` and `b`, if any.
    pub fn bond_between(&self, a: usize, b: usize) -> Option<&Bond> {
        self.bond_index(a, b).map(|bi| &self.bonds[bi])
    }

    /// Sum of bond valence units incident to atom `idx`.
    pub fn bond_order_sum(&self, idx: usize) -> u8 {
        self.adjacency.get(idx).map_or(0, |v| {
            v.iter()
                .map(|&bi| self.bonds[bi].order.valence_units())
                .sum()
        })
    }

    /// Recompute the implicit hydrogen count for atom `idx` from its
    /// default valences, unless the count was fixed explicitly.
    pub fn infer_hydrogens(&mut self, idx: usize) -> Result<()> {
        let sum = self.bond_order_sum(idx);
        let atom = self.atom(idx)?;
        if atom.fixed_hydrogens {
            return Ok(());
        }
        let radicals = atom.radicals;
        let h = match atom.target_valence(sum) {
            Some(v) => v - sum - radicals,
            None => 0,
        };
        self.atoms[idx].hydrogens = h;
        Ok(())
    }

    /// Recompute implicit hydrogens for every atom.
    pub fn infer_all_hydrogens(&mut self) -> Result<()> {
        for i in 0..self.atom_count() {
            self.infer_hydrogens(i)?;
        }
        Ok(())
    }

    /// Add a bond with structural checks only (indices, self-bond,
    /// duplicates) and **no** hydrogen/radical accounting. Used by parsers
    /// and structure builders that infer hydrogens in a separate pass; the
    /// reaction-rule primitives below do full valence bookkeeping instead.
    pub fn add_bond(&mut self, a: usize, b: usize, order: BondOrder) -> Result<()> {
        if a == b {
            return Err(MoleculeError::SelfBond(a));
        }
        self.atom(a)?;
        self.atom(b)?;
        if self.bond_between(a, b).is_some() {
            return Err(MoleculeError::BondExists(a, b));
        }
        let bi = self.bonds.len();
        self.bonds.push(Bond::new(a, b, order));
        self.adjacency[a].push(bi);
        self.adjacency[b].push(bi);
        Ok(())
    }

    // ---- the six reaction-rule primitives -------------------------------

    /// Rule (2): connect two atoms with a bond of the given order.
    ///
    /// Each endpoint must have capacity: a free implicit hydrogen or an
    /// unpaired electron is consumed to form the bond (radical coupling
    /// preferred, mirroring sulfur-radical crosslink formation).
    pub fn connect(&mut self, a: usize, b: usize, order: BondOrder) -> Result<()> {
        if a == b {
            return Err(MoleculeError::SelfBond(a));
        }
        self.atom(a)?;
        self.atom(b)?;
        if self.bond_between(a, b).is_some() {
            return Err(MoleculeError::BondExists(a, b));
        }
        let units = order.valence_units();
        for &idx in &[a, b] {
            let atom = &self.atoms[idx];
            let capacity = atom.radicals.saturating_add(atom.hydrogens);
            if capacity < units {
                return Err(MoleculeError::ValenceViolation {
                    atom: idx,
                    detail: format!(
                        "needs {units} valence unit(s) to bond but only {capacity} available"
                    ),
                });
            }
        }
        for &idx in &[a, b] {
            let mut remaining = units;
            let atom = &mut self.atoms[idx];
            let from_radicals = remaining.min(atom.radicals);
            atom.radicals -= from_radicals;
            remaining -= from_radicals;
            atom.hydrogens -= remaining;
            atom.fixed_hydrogens = true;
        }
        let bi = self.bonds.len();
        self.bonds.push(Bond::new(a, b, order));
        self.adjacency[a].push(bi);
        self.adjacency[b].push(bi);
        Ok(())
    }

    /// Rule (1): disconnect two atoms (homolytic cleavage).
    ///
    /// Removes the bond and leaves each endpoint with unpaired electrons
    /// equal to the broken bond's order — exactly the sulfur-radical pairs
    /// produced by S–S scission during vulcanization.
    pub fn disconnect(&mut self, a: usize, b: usize) -> Result<()> {
        let bi = self
            .bond_index(a, b)
            .ok_or(MoleculeError::NoSuchBond(a, b))?;
        let order = self.bonds[bi].order;
        self.remove_bond_at(bi);
        for &idx in &[a, b] {
            self.atoms[idx].radicals = self.atoms[idx]
                .radicals
                .saturating_add(order.valence_units());
        }
        Ok(())
    }

    /// Rule (4): increase the bond order between two atoms by one step,
    /// consuming one hydrogen-or-radical valence unit at each endpoint.
    pub fn increase_bond_order(&mut self, a: usize, b: usize) -> Result<()> {
        let bi = self
            .bond_index(a, b)
            .ok_or(MoleculeError::NoSuchBond(a, b))?;
        let next = self.bonds[bi]
            .order
            .increased()
            .ok_or(MoleculeError::BondOrderLimit(a, b))?;
        for &idx in &[a, b] {
            let atom = &self.atoms[idx];
            if atom.radicals == 0 && atom.hydrogens == 0 {
                return Err(MoleculeError::ValenceViolation {
                    atom: idx,
                    detail: "no valence unit available to raise bond order".to_string(),
                });
            }
        }
        for &idx in &[a, b] {
            let atom = &mut self.atoms[idx];
            if atom.radicals > 0 {
                atom.radicals -= 1;
            } else {
                atom.hydrogens -= 1;
                atom.fixed_hydrogens = true;
            }
        }
        self.bonds[bi].order = next;
        Ok(())
    }

    /// Rule (3): decrease the bond order between two atoms by one step,
    /// releasing one unpaired electron at each endpoint.
    pub fn decrease_bond_order(&mut self, a: usize, b: usize) -> Result<()> {
        let bi = self
            .bond_index(a, b)
            .ok_or(MoleculeError::NoSuchBond(a, b))?;
        let next = self.bonds[bi]
            .order
            .decreased()
            .ok_or(MoleculeError::BondOrderLimit(a, b))?;
        self.bonds[bi].order = next;
        for &idx in &[a, b] {
            self.atoms[idx].radicals = self.atoms[idx].radicals.saturating_add(1);
        }
        Ok(())
    }

    /// Rule (5): remove a hydrogen atom, leaving a radical (hydrogen
    /// abstraction, e.g. at an allylic carbon).
    pub fn remove_hydrogen(&mut self, idx: usize) -> Result<()> {
        let atom = self.atom_mut(idx)?;
        if atom.hydrogens == 0 {
            return Err(MoleculeError::NoHydrogen(idx));
        }
        atom.hydrogens -= 1;
        atom.radicals = atom.radicals.saturating_add(1);
        atom.fixed_hydrogens = true;
        Ok(())
    }

    /// Rule (6): add a hydrogen atom, quenching a radical if present or
    /// extending valence.
    pub fn add_hydrogen(&mut self, idx: usize) -> Result<()> {
        let sum = self.bond_order_sum(idx);
        let atom = self.atom_mut(idx)?;
        if atom.radicals > 0 {
            atom.radicals -= 1;
            atom.hydrogens += 1;
            atom.fixed_hydrogens = true;
            return Ok(());
        }
        // No radical: adding H must still fit some standard valence.
        let needed = sum + atom.hydrogens + 1;
        let fits = atom.element.default_valences().iter().any(|&v| v >= needed);
        if !fits {
            return Err(MoleculeError::ValenceViolation {
                atom: idx,
                detail: format!("adding H would exceed max valence (needs {needed})"),
            });
        }
        atom.hydrogens += 1;
        atom.fixed_hydrogens = true;
        Ok(())
    }

    // ---- structural queries used by rule predicates ----------------------

    /// Length of the maximal chain of `element` atoms through `idx`:
    /// returns, for an atom of that element, the minimum number of
    /// same-element atoms (including itself) between it and the nearest end
    /// of its same-element chain. The paper's example predicate — "only
    /// break S–S bonds at least three atoms from the end of a sulfur
    /// chain" — is expressed as `chain_depth(i) >= 3`.
    pub fn chain_depth(&self, idx: usize, element: Element) -> usize {
        if self.atoms.get(idx).map(|a| a.element) != Some(element) {
            return 0;
        }
        // BFS over the same-element subgraph, recording distances from idx.
        let mut dist = vec![usize::MAX; self.atom_count()];
        dist[idx] = 0;
        let mut queue = std::collections::VecDeque::from([idx]);
        let mut component = vec![idx];
        while let Some(at) = queue.pop_front() {
            for nb in self.neighbors(at).collect::<Vec<_>>() {
                if self.atoms[nb].element == element && dist[nb] == usize::MAX {
                    dist[nb] = dist[at] + 1;
                    component.push(nb);
                    queue.push_back(nb);
                }
            }
        }
        // Chain ends: same-element atoms with at most one same-element
        // neighbor. Depth = 1 + distance to the nearest end (so a terminal
        // atom has depth 1); a pure cycle has no ends and every atom gets
        // the cycle length.
        let min_to_end = component
            .iter()
            .filter(|&&at| {
                self.neighbors(at)
                    .filter(|&n| self.atoms[n].element == element)
                    .count()
                    <= 1
            })
            .map(|&at| dist[at])
            .min();
        match min_to_end {
            Some(d) => d + 1,
            None => component.len(),
        }
    }

    /// Whether atom `idx` is an sp3 carbon adjacent to a C=C double bond
    /// (allylic position) — the crosslink attachment site in rubber.
    pub fn is_allylic_carbon(&self, idx: usize) -> bool {
        let Some(atom) = self.atoms.get(idx) else {
            return false;
        };
        if atom.element != Element::C {
            return false;
        }
        // idx itself must not be part of a double bond…
        let in_double = self.adjacency[idx]
            .iter()
            .any(|&bi| self.bonds[bi].order == BondOrder::Double);
        if in_double {
            return false;
        }
        // …but a neighboring carbon must be.
        self.neighbors(idx).any(|n| {
            self.atoms[n].element == Element::C
                && self.adjacency[n].iter().any(|&bi| {
                    let bond = &self.bonds[bi];
                    bond.order == BondOrder::Double && {
                        let other = bond.other(n).unwrap();
                        self.atoms[other].element == Element::C
                    }
                })
        })
    }

    /// Indices of atoms carrying unpaired electrons.
    pub fn radical_sites(&self) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_radical())
            .map(|(i, _)| i)
            .collect()
    }

    /// Total number of implicit hydrogens in the molecule.
    pub fn total_hydrogens(&self) -> u32 {
        self.atoms.iter().map(|a| a.hydrogens as u32).sum()
    }

    /// Connected components as atom-index sets (sorted).
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.atom_count();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut queue = vec![start];
            while let Some(at) = queue.pop() {
                for nb in self.neighbors(at) {
                    if !seen[nb] {
                        seen[nb] = true;
                        comp.push(nb);
                        queue.push(nb);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// Split into connected-component molecules (re-indexed), in component
    /// order. A connected molecule is handed back without a rebuild, with
    /// each atom's bond list put in the ascending order a rebuild leaves.
    pub fn split_components(mut self) -> Vec<Molecule> {
        let comps = self.components();
        if comps.len() == 1 {
            for list in &mut self.adjacency {
                list.sort_unstable();
            }
            return vec![self];
        }
        comps
            .iter()
            .map(|comp| {
                let mut m = Molecule::new();
                let mut map = vec![usize::MAX; self.atom_count()];
                for &old in comp {
                    map[old] = m.add_atom(self.atoms[old]);
                }
                for bond in &self.bonds {
                    if map[bond.a] != usize::MAX && map[bond.b] != usize::MAX {
                        let bi = m.bonds.len();
                        m.bonds
                            .push(Bond::new(map[bond.a], map[bond.b], bond.order));
                        m.adjacency[map[bond.a]].push(bi);
                        m.adjacency[map[bond.b]].push(bi);
                    }
                }
                m
            })
            .collect()
    }

    /// Release the capacity edits left unused: for molecules kept for the
    /// life of a network.
    pub fn shrink_to_fit(&mut self) {
        self.atoms.shrink_to_fit();
        self.bonds.shrink_to_fit();
        self.adjacency.shrink_to_fit();
    }

    /// Merge another molecule into this one (disjoint union), returning
    /// the index offset applied to the other molecule's atoms.
    pub fn merge(&mut self, other: &Molecule) -> usize {
        let offset = self.atom_count();
        for atom in &other.atoms {
            self.add_atom(*atom);
        }
        for bond in &other.bonds {
            let bi = self.bonds.len();
            self.bonds
                .push(Bond::new(bond.a + offset, bond.b + offset, bond.order));
            self.adjacency[bond.a + offset].push(bi);
            self.adjacency[bond.b + offset].push(bi);
        }
        offset
    }

    fn remove_bond_at(&mut self, bi: usize) {
        let bond = self.bonds[bi];
        // Swap-remove the bond and fix adjacency references to the moved one.
        let last = self.bonds.len() - 1;
        self.bonds.swap_remove(bi);
        for &idx in &[bond.a, bond.b] {
            self.adjacency[idx].retain(|&x| x != bi);
        }
        if bi != last {
            let moved = self.bonds[bi];
            for &idx in &[moved.a, moved.b] {
                for slot in &mut self.adjacency[idx] {
                    if *slot == last {
                        *slot = bi;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sulfur_chain(n: usize) -> Molecule {
        let mut m = Molecule::new();
        let idx: Vec<usize> = (0..n).map(|_| m.add_atom(Atom::new(Element::S))).collect();
        for w in idx.windows(2) {
            m.infer_all_hydrogens().unwrap();
            m.connect(w[0], w[1], BondOrder::Single).unwrap();
        }
        m.infer_all_hydrogens().unwrap();
        m
    }

    #[test]
    fn ethane_hydrogens() {
        let mut m = Molecule::new();
        let c0 = m.add_atom(Atom::new(Element::C));
        let c1 = m.add_atom(Atom::new(Element::C));
        m.infer_all_hydrogens().unwrap();
        assert_eq!(m.atom(c0).unwrap().hydrogens, 4);
        m.connect(c0, c1, BondOrder::Single).unwrap();
        m.infer_all_hydrogens().unwrap();
        assert_eq!(m.atom(c0).unwrap().hydrogens, 3);
        assert_eq!(m.atom(c1).unwrap().hydrogens, 3);
    }

    #[test]
    fn disconnect_creates_radical_pair() {
        let mut m = sulfur_chain(2);
        m.disconnect(0, 1).unwrap();
        assert_eq!(m.bond_count(), 0);
        assert_eq!(m.atom(0).unwrap().radicals, 1);
        assert_eq!(m.atom(1).unwrap().radicals, 1);
    }

    #[test]
    fn connect_consumes_radicals_first() {
        let mut m = sulfur_chain(2);
        m.disconnect(0, 1).unwrap();
        let h_before = m.atom(0).unwrap().hydrogens;
        m.connect(0, 1, BondOrder::Single).unwrap();
        assert_eq!(m.atom(0).unwrap().radicals, 0);
        assert_eq!(m.atom(0).unwrap().hydrogens, h_before);
    }

    #[test]
    fn connect_rejects_existing_bond_and_self_bond() {
        let mut m = sulfur_chain(2);
        assert_eq!(
            m.connect(0, 1, BondOrder::Single),
            Err(MoleculeError::BondExists(0, 1))
        );
        assert_eq!(
            m.connect(0, 0, BondOrder::Single),
            Err(MoleculeError::SelfBond(0))
        );
    }

    #[test]
    fn bond_order_round_trip_preserves_hydrogens() {
        let mut m = Molecule::new();
        let c0 = m.add_atom(Atom::new(Element::C));
        let c1 = m.add_atom(Atom::new(Element::C));
        m.infer_all_hydrogens().unwrap();
        m.connect(c0, c1, BondOrder::Single).unwrap();
        m.infer_all_hydrogens().unwrap();
        m.increase_bond_order(c0, c1).unwrap();
        assert_eq!(m.bond_between(c0, c1).unwrap().order, BondOrder::Double);
        assert_eq!(m.atom(c0).unwrap().hydrogens, 2);
        m.decrease_bond_order(c0, c1).unwrap();
        // decreasing leaves a diradical, not hydrogens
        assert_eq!(m.atom(c0).unwrap().radicals, 1);
        assert_eq!(m.atom(c0).unwrap().hydrogens, 2);
    }

    #[test]
    fn triple_bond_cannot_increase() {
        let mut m = Molecule::new();
        let c0 = m.add_atom(Atom::new(Element::C));
        let c1 = m.add_atom(Atom::new(Element::C));
        m.infer_all_hydrogens().unwrap();
        m.connect(c0, c1, BondOrder::Triple).unwrap();
        assert_eq!(
            m.increase_bond_order(c0, c1),
            Err(MoleculeError::BondOrderLimit(0, 1))
        );
    }

    #[test]
    fn hydrogen_abstraction_and_quench() {
        let mut m = Molecule::new();
        let c = m.add_atom(Atom::new(Element::C));
        m.infer_all_hydrogens().unwrap();
        assert_eq!(m.atom(c).unwrap().hydrogens, 4);
        m.remove_hydrogen(c).unwrap();
        assert_eq!(m.atom(c).unwrap().hydrogens, 3);
        assert!(m.atom(c).unwrap().is_radical());
        m.add_hydrogen(c).unwrap();
        assert_eq!(m.atom(c).unwrap().hydrogens, 4);
        assert!(!m.atom(c).unwrap().is_radical());
    }

    #[test]
    fn remove_hydrogen_fails_without_h() {
        let mut m = Molecule::new();
        let f = m.add_atom(Atom::with_hydrogens(Element::F, 0));
        assert_eq!(m.remove_hydrogen(f), Err(MoleculeError::NoHydrogen(0)));
    }

    #[test]
    fn chain_depth_on_s8() {
        let m = sulfur_chain(8);
        // ends have depth 1, the middle atoms 4.
        assert_eq!(m.chain_depth(0, Element::S), 1);
        assert_eq!(m.chain_depth(1, Element::S), 2);
        assert_eq!(m.chain_depth(3, Element::S), 4);
        assert_eq!(m.chain_depth(4, Element::S), 4);
        assert_eq!(m.chain_depth(7, Element::S), 1);
    }

    #[test]
    fn chain_depth_wrong_element_is_zero() {
        let m = sulfur_chain(3);
        assert_eq!(m.chain_depth(0, Element::C), 0);
    }

    #[test]
    fn allylic_detection() {
        // propene: C=C-C ; the methyl carbon (2) is allylic.
        let mut m = Molecule::new();
        let c0 = m.add_atom(Atom::new(Element::C));
        let c1 = m.add_atom(Atom::new(Element::C));
        let c2 = m.add_atom(Atom::new(Element::C));
        m.infer_all_hydrogens().unwrap();
        m.connect(c0, c1, BondOrder::Double).unwrap();
        m.connect(c1, c2, BondOrder::Single).unwrap();
        m.infer_all_hydrogens().unwrap();
        assert!(!m.is_allylic_carbon(c0));
        assert!(!m.is_allylic_carbon(c1));
        assert!(m.is_allylic_carbon(c2));
    }

    #[test]
    fn split_after_scission_gives_two_fragments() {
        let mut m = sulfur_chain(4);
        m.disconnect(1, 2).unwrap();
        let frags = m.split_components();
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].atom_count(), 2);
        assert_eq!(frags[1].atom_count(), 2);
        assert!(frags[0].atoms().any(|(_, a)| a.is_radical()));
    }

    #[test]
    fn connected_split_equals_a_rebuild() {
        // Break and re-form a bond so bond slots and per-atom bond lists
        // are out of index order, as after a rule edit.
        let mut m = sulfur_chain(5);
        m.disconnect(0, 1).unwrap();
        m.connect(0, 1, BondOrder::Single).unwrap();
        let mut rebuilt = Molecule::new();
        for (_, atom) in m.atoms() {
            rebuilt.add_atom(*atom);
        }
        for bond in m.bonds() {
            rebuilt.add_bond(bond.a, bond.b, bond.order).unwrap();
        }
        assert_ne!(m, rebuilt, "the edit left the bond lists in rebuild order");
        assert_eq!(m.split_components(), vec![rebuilt]);
    }

    #[test]
    fn merge_is_disjoint_union() {
        let mut m = sulfur_chain(2);
        let other = sulfur_chain(3);
        let off = m.merge(&other);
        assert_eq!(off, 2);
        assert_eq!(m.atom_count(), 5);
        assert_eq!(m.bond_count(), 3);
        assert!(m.bond_between(off, off + 1).is_some());
        assert!(m.bond_between(1, off).is_none());
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut m = sulfur_chain(2);
        m.add_atom(Atom::new(Element::C));
        let comps = m.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2]);
    }

    #[test]
    fn swap_remove_bond_keeps_adjacency_consistent() {
        let mut m = sulfur_chain(4); // bonds 0-1,1-2,2-3
        m.disconnect(0, 1).unwrap(); // removes first bond; last bond swaps in
        assert!(m.bond_between(1, 2).is_some());
        assert!(m.bond_between(2, 3).is_some());
        assert!(m.bond_between(0, 1).is_none());
        assert_eq!(m.neighbors(2).count(), 2);
    }
}
