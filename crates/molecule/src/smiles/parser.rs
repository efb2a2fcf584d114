//! SMILES parser (recursive descent over a byte cursor).

use std::collections::HashMap;

use crate::atom::Atom;
use crate::bond::BondOrder;
use crate::element::Element;
use crate::error::{MoleculeError, Result};
use crate::graph::Molecule;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn error(&self, message: impl Into<String>) -> MoleculeError {
        MoleculeError::SmilesSyntax {
            offset: self.pos,
            message: message.into(),
        }
    }
}

/// Pending ring-closure bookkeeping: which atom opened the digit and what
/// bond symbol (if any) was attached at the opening site.
struct RingOpen {
    atom: usize,
    order: Option<BondOrder>,
}

/// Parse a SMILES string into a [`Molecule`]. Implicit hydrogens are
/// inferred for organic-subset atoms; bracket atoms keep their explicit
/// hydrogen counts and gain radicals equal to their valence deficit.
pub fn parse_smiles(input: &str) -> Result<Molecule> {
    let mut cur = Cursor {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let mut mol = Molecule::new();
    // Stack of "previous atom" indices for branch handling; None at the
    // start of the string or right after a dot.
    let mut prev: Option<usize> = None;
    let mut branch_stack: Vec<Option<usize>> = Vec::new();
    let mut pending_bond: Option<BondOrder> = None;
    let mut rings: HashMap<u32, RingOpen> = HashMap::new();

    while let Some(b) = cur.peek() {
        match b {
            b'(' => {
                cur.bump();
                branch_stack.push(prev);
            }
            b')' => {
                cur.bump();
                prev = branch_stack
                    .pop()
                    .ok_or_else(|| cur.error("unbalanced ')'"))?;
            }
            b'.' => {
                cur.bump();
                prev = None;
                pending_bond = None;
            }
            b'-' => {
                cur.bump();
                pending_bond = Some(BondOrder::Single);
            }
            b'=' => {
                cur.bump();
                pending_bond = Some(BondOrder::Double);
            }
            b'#' => {
                cur.bump();
                pending_bond = Some(BondOrder::Triple);
            }
            b':' => {
                cur.bump();
                pending_bond = Some(BondOrder::Aromatic);
            }
            b'/' | b'\\' => {
                // Stereo bond markers: treated as single bonds.
                cur.bump();
                pending_bond = Some(BondOrder::Single);
            }
            b'0'..=b'9' => {
                cur.bump();
                let digit = u32::from(b - b'0');
                handle_ring(&mut mol, &mut rings, prev, &mut pending_bond, digit, &cur)?;
            }
            b'%' => {
                cur.bump();
                let digit = parse_ring_number(&mut cur)?;
                handle_ring(&mut mol, &mut rings, prev, &mut pending_bond, digit, &cur)?;
            }
            b'[' => {
                cur.bump();
                let (atom, aromatic) = parse_bracket_atom(&mut cur)?;
                let idx = mol.add_atom(atom);
                attach(&mut mol, &mut prev, idx, &mut pending_bond, aromatic)?;
            }
            _ => {
                let (atom, aromatic) = parse_organic_atom(&mut cur)?;
                let idx = mol.add_atom(atom);
                attach(&mut mol, &mut prev, idx, &mut pending_bond, aromatic)?;
            }
        }
    }

    if !branch_stack.is_empty() {
        return Err(cur.error("unbalanced '('"));
    }
    if let Some((&digit, _)) = rings.iter().next() {
        return Err(MoleculeError::UnclosedRing(digit));
    }

    finalize_hydrogens(&mut mol)?;
    Ok(mol)
}

/// The ring number after a `%`: two digits (`%12`), or up to five in
/// parentheses (`%(123)`, OpenSMILES, which sets no bound).
fn parse_ring_number(cur: &mut Cursor<'_>) -> Result<u32> {
    let parenthesized = cur.eat(b'(');
    let limit = if parenthesized { 5 } else { 2 };
    let (mut number, mut digits) = (0u32, 0);
    while let Some(d) = cur.peek().filter(|d| d.is_ascii_digit() && digits < limit) {
        cur.bump();
        (number, digits) = (number * 10 + u32::from(d - b'0'), digits + 1);
    }
    match parenthesized {
        false if digits == 2 => Ok(number),
        true if digits > 0 && cur.eat(b')') => Ok(number),
        _ => Err(cur.error("expected two digits after %, or up to five in parentheses")),
    }
}

fn handle_ring(
    mol: &mut Molecule,
    rings: &mut HashMap<u32, RingOpen>,
    prev: Option<usize>,
    pending_bond: &mut Option<BondOrder>,
    digit: u32,
    cur: &Cursor<'_>,
) -> Result<()> {
    let here = prev.ok_or_else(|| cur.error("ring closure before any atom"))?;
    match rings.remove(&digit) {
        None => {
            rings.insert(
                digit,
                RingOpen {
                    atom: here,
                    order: pending_bond.take(),
                },
            );
        }
        Some(open) => {
            let order = match (open.order, pending_bond.take()) {
                (Some(a), Some(b)) if a != b => return Err(MoleculeError::RingBondMismatch(digit)),
                (Some(a), _) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    // Bond defaults to aromatic if both ends are aromatic;
                    // decided in connect step below by looking at atoms.
                    let both_aromatic = mol.atom(open.atom)?.aromatic && mol.atom(here)?.aromatic;
                    if both_aromatic {
                        BondOrder::Aromatic
                    } else {
                        BondOrder::Single
                    }
                }
            };
            connect_lenient(mol, open.atom, here, order)?;
        }
    }
    Ok(())
}

/// Connect two parsed atoms structurally; hydrogen/radical inference
/// runs once at the end of parsing instead.
fn connect_lenient(mol: &mut Molecule, a: usize, b: usize, order: BondOrder) -> Result<()> {
    mol.add_bond(a, b, order)
}

fn attach(
    mol: &mut Molecule,
    prev: &mut Option<usize>,
    idx: usize,
    pending_bond: &mut Option<BondOrder>,
    aromatic: bool,
) -> Result<()> {
    if let Some(p) = *prev {
        let order = pending_bond.take().unwrap_or_else(|| {
            if aromatic && mol.atom(p).map(|a| a.aromatic).unwrap_or(false) {
                BondOrder::Aromatic
            } else {
                BondOrder::Single
            }
        });
        connect_lenient(mol, p, idx, order)?;
    }
    *prev = Some(idx);
    Ok(())
}

fn parse_organic_atom(cur: &mut Cursor<'_>) -> Result<(Atom, bool)> {
    let b = cur.bump().ok_or_else(|| cur.error("unexpected end"))?;
    let (element, aromatic) = match b {
        b'B' => {
            if cur.eat(b'r') {
                (Element::Br, false)
            } else {
                (Element::B, false)
            }
        }
        b'C' => {
            if cur.eat(b'l') {
                (Element::Cl, false)
            } else {
                (Element::C, false)
            }
        }
        b'N' => (Element::N, false),
        b'O' => (Element::O, false),
        b'F' => (Element::F, false),
        b'P' => (Element::P, false),
        b'S' => (Element::S, false),
        b'I' => (Element::I, false),
        b'b' => (Element::B, true),
        b'c' => (Element::C, true),
        b'n' => (Element::N, true),
        b'o' => (Element::O, true),
        b'p' => (Element::P, true),
        b's' => {
            if cur.eat(b'e') {
                (Element::Se, true)
            } else {
                (Element::S, true)
            }
        }
        other => return Err(cur.error(format!("unexpected character '{}'", char::from(other)))),
    };
    let mut atom = Atom::new(element);
    if aromatic {
        atom.aromatic = true;
    }
    Ok((atom, aromatic))
}

fn parse_bracket_atom(cur: &mut Cursor<'_>) -> Result<(Atom, bool)> {
    // Optional isotope number (ignored).
    while cur.peek().is_some_and(|b| b.is_ascii_digit()) {
        cur.bump();
    }
    let first = cur
        .bump()
        .ok_or_else(|| cur.error("unterminated bracket atom"))?;
    let mut aromatic = false;
    let mut symbol = String::new();
    if first.is_ascii_lowercase() {
        aromatic = true;
        symbol.push(char::from(first.to_ascii_uppercase()));
    } else {
        symbol.push(char::from(first));
        if cur.peek().is_some_and(|b| b.is_ascii_lowercase()) && cur.peek() != Some(b'h')
        // [CH3]: 'H' is uppercase; lowercase h never follows element here
        {
            // Two-letter symbol (Cl, Br, Si, Se, Zn).
            let second = cur.bump().unwrap();
            symbol.push(char::from(second));
            if Element::from_symbol(&symbol).is_none() {
                // Not a two-letter element: put the char back conceptually
                // by erroring (we do not support other two-letter symbols).
                return Err(cur.error(format!("unknown element '{symbol}'")));
            }
        }
    }
    let element = Element::from_symbol(&symbol)
        .ok_or_else(|| cur.error(format!("unknown element '{symbol}'")))?;
    if aromatic && !element.can_be_aromatic() {
        return Err(cur.error(format!("element {symbol} cannot be aromatic")));
    }

    // Chirality markers @ / @@ — accepted, ignored.
    while cur.eat(b'@') {}

    // Explicit hydrogen count.
    let mut hydrogens = 0u8;
    if cur.eat(b'H') {
        hydrogens = 1;
        if let Some(d) = cur.peek().filter(u8::is_ascii_digit) {
            cur.bump();
            hydrogens = d - b'0';
        }
    }

    // Charge.
    let mut charge: i8 = 0;
    while let Some(sign) = cur.peek().filter(|&b| b == b'+' || b == b'-') {
        cur.bump();
        let delta = if sign == b'+' { 1 } else { -1 };
        if let Some(d) = cur.peek().filter(u8::is_ascii_digit) {
            cur.bump();
            charge += delta * (d - b'0') as i8;
        } else {
            charge += delta;
        }
    }

    if !cur.eat(b']') {
        return Err(cur.error("expected ']'"));
    }

    let mut atom = Atom::with_hydrogens(element, hydrogens);
    atom.charge = charge;
    atom.aromatic = aromatic;
    Ok((atom, aromatic))
}

/// Final pass: infer implicit hydrogens for organic-subset atoms and
/// radicals for bracket atoms (valence deficit convention).
fn finalize_hydrogens(mol: &mut Molecule) -> Result<()> {
    for idx in 0..mol.atom_count() {
        let sum = mol.bond_order_sum(idx);
        let atom = *mol.atom(idx)?;
        // Aromatic atoms: charge one extra valence unit for the pi system.
        let effective = if atom.aromatic { sum + 1 } else { sum };
        if atom.fixed_hydrogens {
            // Bracket atom: radical count = deficit w.r.t. the smallest
            // standard valence >= bonds + H (no deficit -> closed shell).
            let committed = effective + atom.hydrogens;
            let radicals = atom
                .element
                .default_valences()
                .iter()
                .copied()
                .find(|&v| v >= committed)
                .map(|v| v - committed)
                .unwrap_or(0);
            mol.atom_mut(idx)?.radicals = radicals;
        } else {
            let h = atom
                .element
                .default_valences()
                .iter()
                .copied()
                .find(|&v| v >= effective)
                .map(|v| v - effective)
                .unwrap_or(0);
            mol.atom_mut(idx)?.hydrogens = h;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methane_has_four_hydrogens() {
        let m = parse_smiles("C").unwrap();
        assert_eq!(m.atom(0).unwrap().hydrogens, 4);
    }

    #[test]
    fn double_bond_reduces_hydrogens() {
        let m = parse_smiles("C=C").unwrap();
        assert_eq!(m.atom(0).unwrap().hydrogens, 2);
        assert_eq!(m.bond_between(0, 1).unwrap().order, BondOrder::Double);
    }

    #[test]
    fn branch_structure() {
        let m = parse_smiles("CC(C)C").unwrap(); // isobutane
        assert_eq!(m.atom_count(), 4);
        assert_eq!(m.degree(1), 3);
        assert_eq!(m.atom(1).unwrap().hydrogens, 1);
    }

    #[test]
    fn ring_closure_cyclohexane() {
        let m = parse_smiles("C1CCCCC1").unwrap();
        assert_eq!(m.atom_count(), 6);
        assert_eq!(m.bond_count(), 6);
        for (i, a) in m.atoms() {
            assert_eq!(a.hydrogens, 2, "atom {i}");
        }
    }

    #[test]
    fn aromatic_benzene() {
        let m = parse_smiles("c1ccccc1").unwrap();
        assert_eq!(m.bond_count(), 6);
        for (_, a) in m.atoms() {
            assert!(a.aromatic);
            assert_eq!(a.hydrogens, 1);
        }
        assert!(m.bonds().all(|b| b.order == BondOrder::Aromatic));
    }

    #[test]
    fn bracket_charge() {
        let m = parse_smiles("[NH4+]").unwrap();
        let a = m.atom(0).unwrap();
        assert_eq!(a.hydrogens, 4);
        assert_eq!(a.charge, 1);
    }

    #[test]
    fn percent_ring_closure() {
        let a = parse_smiles("C%12CCCCC%12").unwrap();
        let b = parse_smiles("C1CCCCC1").unwrap();
        assert_eq!(a.bond_count(), b.bond_count());
    }

    #[test]
    fn parenthesized_ring_numbers() {
        let a = parse_smiles("C%(123)CCC%(123)").unwrap();
        assert_eq!(a.bond_count(), 4);
        for bad in ["C%(1CC%(1", "C%()CC", "C%(123456)CC%(123456)", "C%1CC%1"] {
            assert!(
                matches!(parse_smiles(bad), Err(MoleculeError::SmilesSyntax { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn errors_reported() {
        assert!(matches!(
            parse_smiles("C(C"),
            Err(MoleculeError::SmilesSyntax { .. })
        ));
        assert!(matches!(
            parse_smiles("C1CC"),
            Err(MoleculeError::UnclosedRing(1))
        ));
        assert!(matches!(
            parse_smiles("C)"),
            Err(MoleculeError::SmilesSyntax { .. })
        ));
        assert!(matches!(
            parse_smiles("[Xx]"),
            Err(MoleculeError::SmilesSyntax { .. })
        ));
        assert!(matches!(
            parse_smiles("C=1CCCCC#1"),
            Err(MoleculeError::RingBondMismatch(1))
        ));
    }

    #[test]
    fn ring_bond_order_on_either_end() {
        let a = parse_smiles("C=1CCCCC=1").unwrap();
        assert!(a.bonds().any(|b| b.order == BondOrder::Double));
        let b = parse_smiles("C=1CCCCC1").unwrap();
        assert!(b.bonds().any(|x| x.order == BondOrder::Double));
    }

    #[test]
    fn polysulfide_bridge() {
        // dimethyl tetrasulfide CH3-S-S-S-S-CH3
        let m = parse_smiles("CSSSSC").unwrap();
        assert_eq!(m.atom_count(), 6);
        let s_chain: Vec<usize> = m
            .atoms()
            .filter(|(_, a)| a.element == Element::S)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(s_chain.len(), 4);
        for &s in &s_chain {
            assert_eq!(m.atom(s).unwrap().hydrogens, 0);
        }
    }
}
