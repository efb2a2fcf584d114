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

fn write_with_ranks(mol: &Molecule, ranks: &[u32]) -> String {
    let n = mol.atom_count();
    if n == 0 {
        return String::new();
    }
    let mut out = String::new();
    let mut visited = vec![false; n];
    // Ring-closure bookkeeping: per atom, list of (digit, bond symbol) to emit.
    let mut ring_digits: HashMap<usize, Vec<(u8, &'static str)>> = HashMap::new();
    let mut next_digit = 1u8;

    // Process each connected component, smallest-rank atom first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| ranks[i]);

    let mut first_component = true;
    for &start in &order {
        if visited[start] {
            continue;
        }
        if !first_component {
            out.push('.');
        }
        first_component = false;

        // Pre-pass: find back edges (ring bonds) in DFS-by-rank order and
        // assign digits.
        let mut in_tree = vec![false; n];
        let mut stack = vec![(start, usize::MAX)];
        let mut tree_parent = vec![usize::MAX; n];
        let mut ring_bonds: Vec<(usize, usize, BondOrder)> = Vec::new();
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
                        if !ring_bonds
                            .iter()
                            .any(|&(a, b, _)| (a, b) == (nb, at) || (a, b) == (at, nb))
                        {
                            ring_bonds.push((at, nb, bond.order));
                        }
                    }
                } else {
                    stack.push((nb, at));
                }
            }
        }
        for (a, b, ord) in ring_bonds {
            let digit = next_digit;
            next_digit = next_digit.wrapping_add(1);
            let symbol = bond_symbol(mol, a, b, ord);
            ring_digits.entry(a).or_default().push((digit, symbol));
            ring_digits.entry(b).or_default().push((digit, symbol));
        }

        emit_atom(
            mol,
            ranks,
            start,
            usize::MAX,
            &mut visited,
            &ring_digits,
            &mut out,
        );
    }
    out
}

fn emit_atom(
    mol: &Molecule,
    ranks: &[u32],
    at: usize,
    parent: usize,
    visited: &mut [bool],
    ring_digits: &HashMap<usize, Vec<(u8, &'static str)>>,
    out: &mut String,
) {
    visited[at] = true;
    out.push_str(&atom_token(mol, at));
    if let Some(digits) = ring_digits.get(&at) {
        for &(digit, symbol) in digits {
            out.push_str(symbol);
            if digit < 10 {
                out.push(char::from(b'0' + digit));
            } else {
                out.push('%');
                out.push(char::from(b'0' + digit / 10));
                out.push(char::from(b'0' + digit % 10));
            }
        }
    }
    let mut children: Vec<usize> = mol
        .neighbors(at)
        .filter(|&x| x != parent && !visited[x])
        .collect();
    children.sort_by_key(|&x| ranks[x]);
    let last = children.len().saturating_sub(1);
    for (i, child) in children.into_iter().enumerate() {
        // A child may have been visited through a ring while emitting an
        // earlier sibling branch.
        if visited[child] {
            continue;
        }
        let bond = mol.bond_between(at, child).expect("child bond");
        let branch = i != last;
        if branch {
            out.push('(');
        }
        out.push_str(bond_symbol(mol, at, child, bond.order));
        emit_atom(mol, ranks, child, at, visited, ring_digits, out);
        if branch {
            out.push(')');
        }
    }
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
