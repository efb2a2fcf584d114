//! SMILES output, including the canonical form used for molecule equality.

use std::collections::HashMap;

use crate::bond::BondOrder;
use crate::canon::canonical_ranks;
use crate::graph::Molecule;

/// Write SMILES visiting atoms in their current index order.
pub fn write_smiles(mol: &Molecule) -> String {
    let ranks: Vec<u32> = (0..mol.atom_count() as u32).collect();
    write_with_ranks(mol, &ranks)
}

/// Write canonical SMILES: identical strings iff the molecules are
/// isomorphic (same elements, bonds, hydrogen counts, charges, radicals).
pub fn write_smiles_canonical(mol: &Molecule) -> String {
    let ranks = canonical_ranks(mol);
    write_with_ranks(mol, &ranks)
}

/// One step of the depth-first emission walk, which keeps its own stack:
/// a chain of any length is written in constant native stack.
enum Step {
    /// Write the bond from `parent` (none for a component's first atom),
    /// the atom, its ring digits, and schedule its children — unless a
    /// ring reached the atom while an earlier sibling was written.
    /// `branch` wraps the subtree in parentheses.
    Enter {
        at: usize,
        parent: usize,
        branch: bool,
    },
    /// Close a branch.
    Close,
}

fn write_with_ranks(mol: &Molecule, ranks: &[u32]) -> String {
    let n = mol.atom_count();
    if n == 0 {
        return String::new();
    }
    let mut out = String::new();
    let mut visited = vec![false; n];
    // Ring bonds found by the pre-pass, and per atom the ring bonds
    // (indices into `ring_bonds`) it writes a digit for.
    let mut ring_bonds: Vec<(usize, usize, &'static str)> = Vec::new();
    let mut ring_at: HashMap<usize, Vec<usize>> = HashMap::new();
    // Per ring bond, the digit it opened with (0 until it opens); per
    // digit, whether a ring holds it (0 is never written).
    let mut digit_of: Vec<usize> = Vec::new();
    let mut in_use = vec![true];
    let mut in_tree = vec![false; n];
    let mut tree_parent = vec![usize::MAX; n];

    // Process each connected component, smallest-rank atom first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| ranks[i]);

    for &start in &order {
        if visited[start] {
            continue;
        }
        if !out.is_empty() {
            out.push('.');
        }

        // Pre-pass: find back edges (ring bonds) in DFS-by-rank order.
        let first_ring = ring_bonds.len();
        let mut stack = vec![(start, usize::MAX)];
        while let Some((at, parent)) = stack.pop() {
            if in_tree[at] {
                continue;
            }
            in_tree[at] = true;
            tree_parent[at] = parent;
            let mut nbrs: Vec<usize> = mol.neighbors(at).filter(|&x| x != parent).collect();
            nbrs.sort_by_key(|&x| std::cmp::Reverse(ranks[x]));
            for nb in nbrs {
                if in_tree[nb] {
                    if tree_parent[at] != nb {
                        let bond = mol.bond_between(at, nb).expect("neighbor bond");
                        // Record only once per ring bond.
                        if !ring_bonds[first_ring..]
                            .iter()
                            .any(|&(a, b, _)| (a, b) == (nb, at) || (a, b) == (at, nb))
                        {
                            let symbol = bond_symbol(mol, at, nb, bond.order);
                            ring_bonds.push((at, nb, symbol));
                        }
                    }
                } else {
                    stack.push((nb, at));
                }
            }
        }
        for (i, &(a, b, _)) in ring_bonds.iter().enumerate().skip(first_ring) {
            ring_at.entry(a).or_default().push(i);
            ring_at.entry(b).or_default().push(i);
        }
        digit_of.resize(ring_bonds.len(), 0);

        let mut steps = vec![Step::Enter {
            at: start,
            parent: usize::MAX,
            branch: false,
        }];
        while let Some(step) = steps.pop() {
            match step {
                Step::Enter { at, .. } if visited[at] => {}
                Step::Enter { at, parent, branch } => {
                    if branch {
                        out.push('(');
                        steps.push(Step::Close);
                    }
                    if let Some(bond) = mol.bond_between(parent, at) {
                        out.push_str(bond_symbol(mol, parent, at, bond.order));
                    }
                    visited[at] = true;
                    out.push_str(&atom_token(mol, at));
                    let rings = ring_at.get(&at).map_or(&[][..], Vec::as_slice);
                    // A ring opens on the lowest free digit and frees it
                    // when it closes — after this atom's digits are
                    // written, so one atom never closes and reopens a digit.
                    let mut closed = Vec::new();
                    for &ring in rings {
                        if digit_of[ring] == 0 {
                            let digit = in_use.iter().position(|&used| !used);
                            let digit = digit.unwrap_or(in_use.len());
                            in_use.resize(in_use.len().max(digit + 1), true);
                            in_use[digit] = true;
                            digit_of[ring] = digit;
                        } else {
                            closed.push(digit_of[ring]);
                        }
                        out.push_str(ring_bonds[ring].2);
                        push_ring_digit(&mut out, digit_of[ring]);
                    }
                    for digit in closed {
                        in_use[digit] = false;
                    }
                    let mut children: Vec<usize> = mol
                        .neighbors(at)
                        .filter(|&x| x != parent && !visited[x])
                        .collect();
                    children.sort_by_key(|&x| ranks[x]);
                    let last = children.len().saturating_sub(1);
                    for (i, &child) in children.iter().enumerate().rev() {
                        steps.push(Step::Enter {
                            at: child,
                            parent: at,
                            branch: i != last,
                        });
                    }
                }
                Step::Close => out.push(')'),
            }
        }
    }
    out
}

/// A ring-closure digit: `1`–`9`, `%10`–`%99`, then `%(100)` onwards.
fn push_ring_digit(out: &mut String, digit: usize) {
    use std::fmt::Write;
    let _ = match digit {
        0..=9 => write!(out, "{digit}"),
        10..=99 => write!(out, "%{digit}"),
        _ => write!(out, "%({digit})"),
    };
}

/// The symbol to write for a bond. Between two aromatic atoms a parser
/// reads an unmarked bond as aromatic, so there it is the *single* bond
/// that must be spelled out (`c1ccccc1-c1ccccc1`); everywhere else single
/// is the implicit order and an aromatic bond needs its `:`.
fn bond_symbol(mol: &Molecule, a: usize, b: usize, order: BondOrder) -> &'static str {
    let aromatic = |i: usize| mol.atom(i).is_ok_and(|atom| atom.aromatic);
    match (order, aromatic(a) && aromatic(b)) {
        (BondOrder::Single, true) => "-",
        (BondOrder::Aromatic, true) => "",
        _ => order.smiles_symbol(),
    }
}

/// Render one atom, choosing the bare organic-subset form when the implicit
/// hydrogen count is recoverable, otherwise a bracket atom.
fn atom_token(mol: &Molecule, at: usize) -> String {
    let atom = mol.atom(at).expect("valid atom");
    let symbol = if atom.aromatic {
        atom.element.symbol().to_ascii_lowercase()
    } else {
        atom.element.symbol().to_string()
    };
    let plain_ok = atom.charge == 0
        && atom.radicals == 0
        && atom.element.in_organic_subset()
        && inferred_hydrogens(mol, at) == Some(atom.hydrogens);
    if plain_ok {
        return symbol;
    }
    let mut tok = String::from("[");
    tok.push_str(&symbol);
    match atom.hydrogens {
        0 => {}
        1 => tok.push('H'),
        h => {
            tok.push('H');
            tok.push(char::from(b'0' + h));
        }
    }
    match atom.charge.cmp(&0) {
        std::cmp::Ordering::Greater => {
            for _ in 0..atom.charge {
                tok.push('+');
            }
        }
        std::cmp::Ordering::Less => {
            for _ in 0..(-atom.charge) {
                tok.push('-');
            }
        }
        std::cmp::Ordering::Equal => {}
    }
    tok.push(']');
    tok
}

/// The hydrogen count a parser would infer for this atom if written bare.
fn inferred_hydrogens(mol: &Molecule, at: usize) -> Option<u8> {
    let atom = mol.atom(at).ok()?;
    let sum = mol.bond_order_sum(at);
    let effective = if atom.aromatic { sum + 1 } else { sum };
    atom.element
        .default_valences()
        .iter()
        .copied()
        .find(|&v| v >= effective)
        .map(|v| v - effective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smiles::parse_smiles;

    #[test]
    fn plain_atoms_written_bare() {
        let m = parse_smiles("CCO").unwrap();
        let s = write_smiles(&m);
        assert!(!s.contains('['), "{s}");
    }

    #[test]
    fn radical_written_in_brackets() {
        let mut m = parse_smiles("CC").unwrap();
        m.remove_hydrogen(0).unwrap();
        let s = write_smiles_canonical(&m);
        assert!(s.contains("[CH2]"), "{s}");
        let m2 = parse_smiles(&s).unwrap();
        assert_eq!(m2.radical_sites().len(), 1);
    }

    #[test]
    fn charge_round_trips() {
        let m = parse_smiles("[NH4+]").unwrap();
        let s = write_smiles(&m);
        assert_eq!(s, "[NH4+]");
    }

    #[test]
    fn ring_digit_emitted() {
        let m = parse_smiles("C1CCCCC1").unwrap();
        let s = write_smiles_canonical(&m);
        assert!(s.contains('1'), "{s}");
        let m2 = parse_smiles(&s).unwrap();
        assert_eq!(m2.bond_count(), 6);
    }

    #[test]
    fn double_bond_symbol_preserved() {
        let m = parse_smiles("C=CC").unwrap();
        let s = write_smiles_canonical(&m);
        assert!(s.contains('='), "{s}");
    }

    #[test]
    fn fragments_dot_separated() {
        let m = parse_smiles("C.O").unwrap();
        let s = write_smiles_canonical(&m);
        assert!(s.contains('.'), "{s}");
        let m2 = parse_smiles(&s).unwrap();
        assert_eq!(m2.components().len(), 2);
    }

    /// A 100,002-atom chain is written in constant stack: the walk keeps
    /// its own (the recursive writer ran a thread off its stack).
    #[test]
    fn a_long_chain_is_written_in_constant_stack() {
        let smiles = format!("C{}C", "S".repeat(100_000));
        let m = parse_smiles(&smiles).unwrap();
        let written = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || (write_smiles(&m), write_smiles_canonical(&m)))
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(written.0, smiles);
        assert_eq!(written.1, smiles);
    }

    /// Digits are reused once their ring closes: 100 cyclopropanes need
    /// one digit, not 100 (past 99 the old writer wrote `%:0`).
    #[test]
    fn closed_ring_digits_are_reused() {
        let smiles = vec!["C1CC1"; 100].join(".");
        let m = parse_smiles(&smiles).unwrap();
        let s = write_smiles_canonical(&m);
        let one = write_smiles_canonical(&parse_smiles("C1CC1").unwrap());
        assert_eq!(s, vec![one.as_str(); 100].join("."));
        assert!(!s.contains('2') && !s.contains('%'), "{s}");
        let m2 = parse_smiles(&s).unwrap();
        assert_eq!(m2.components().len(), 100);
        assert_eq!(m2.bond_count(), 300);
    }

    #[test]
    fn open_rings_past_99_write_parenthesized_numbers() {
        // A ladder of 120 rungs: the walk runs down one rail, opening a
        // ring at every rung, and closes them all on the way back.
        let n = 120;
        let mut m = Molecule::new();
        for _ in 0..2 * n {
            m.add_atom(crate::atom::Atom::new(crate::element::Element::C));
        }
        m.infer_all_hydrogens().unwrap();
        for i in 0..n {
            m.connect(i, n + i, BondOrder::Single).unwrap();
            if i + 1 < n {
                m.connect(i, i + 1, BondOrder::Single).unwrap();
                m.connect(n + i, n + i + 1, BondOrder::Single).unwrap();
            }
        }
        let s = write_smiles(&m);
        assert!(s.contains("%(100)"), "{s}");
        let m2 = parse_smiles(&s).unwrap();
        assert_eq!(m2.atom_count(), m.atom_count());
        assert_eq!(m2.bond_count(), m.bond_count());
        assert_eq!(write_smiles_canonical(&m2), write_smiles_canonical(&m));
    }

    #[test]
    fn bicyclic_round_trip() {
        let m = parse_smiles("C1CC2CCC1CC2").unwrap();
        let s = write_smiles_canonical(&m);
        let m2 = parse_smiles(&s).unwrap();
        assert_eq!(m.atom_count(), m2.atom_count());
        assert_eq!(m.bond_count(), m2.bond_count());
        assert_eq!(write_smiles_canonical(&m2), s);
    }
}
