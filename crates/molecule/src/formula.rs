//! Molecular formulas (Hill order) and weights.

use std::fmt;

use crate::element::Element;
use crate::graph::Molecule;

/// A molecular formula: each element with its count, in Hill order (C
/// first, H second, the rest alphabetically).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Formula {
    counts: Vec<(Element, u32)>,
}

impl Formula {
    /// Compute the formula of a molecule, counting implicit hydrogens.
    pub fn of(mol: &Molecule) -> Formula {
        let mut counts = [0u32; Element::ALL.len()];
        for (_, atom) in mol.atoms() {
            counts[atom.element as usize] += 1;
            counts[Element::H as usize] += u32::from(atom.hydrogens);
        }
        let mut counts: Vec<(Element, u32)> = (Element::ALL.iter())
            .map(|&e| (e, counts[e as usize]))
            .filter(|&(_, c)| c > 0)
            .collect();
        counts.sort_by_key(|&(e, _)| hill_key(e));
        Formula { counts }
    }

    /// Count of a specific element (implicit H included).
    pub fn count(&self, element: Element) -> u32 {
        let entry = self.counts.iter().find(|&&(e, _)| e == element);
        entry.map_or(0, |&(_, c)| c)
    }

    /// Each element with its count, in Hill order.
    pub fn elements(&self) -> &[(Element, u32)] {
        &self.counts
    }

    /// Molecular weight in g/mol.
    pub fn weight(&self) -> f64 {
        self.counts
            .iter()
            .map(|&(e, c)| e.atomic_weight() * c as f64)
            .sum()
    }
}

/// Sort key for Hill order: C, H, then alphabetical by symbol.
pub fn hill_key(e: Element) -> (u8, &'static str) {
    let rank = match e {
        Element::C => 0,
        Element::H => 1,
        _ => 2,
    };
    (rank, e.symbol())
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &(e, c) in &self.counts {
            match c {
                1 => write!(f, "{}", e.symbol())?,
                c => write!(f, "{}{c}", e.symbol())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smiles::parse_smiles;

    #[test]
    fn methane_formula() {
        let m = parse_smiles("C").unwrap();
        let f = Formula::of(&m);
        assert_eq!(f.to_string(), "CH4");
        assert_eq!(f.count(Element::H), 4);
    }

    #[test]
    fn hill_order() {
        let m = parse_smiles("CS(=O)O").unwrap();
        let f = Formula::of(&m);
        assert_eq!(f.to_string(), "CH4O2S");
        let order: Vec<Element> = f.elements().iter().map(|&(e, _)| e).collect();
        assert_eq!(order, [Element::C, Element::H, Element::O, Element::S]);
    }

    #[test]
    fn weight_of_water() {
        let m = parse_smiles("O").unwrap();
        let w = Formula::of(&m).weight();
        assert!((w - 18.015).abs() < 0.01, "{w}");
    }

    #[test]
    fn conservation_check_usage() {
        // CSSC -> scission -> two CS radicals: formulas must sum equal.
        let whole = parse_smiles("CSSC").unwrap();
        let mut broken = whole.clone();
        broken.disconnect(1, 2).unwrap();
        let frags = broken.split_components();
        assert_eq!(frags.len(), 2);
        let mut sum = [0; Element::ALL.len()];
        for frag in &frags {
            for &(e, c) in Formula::of(frag).elements() {
                sum[e as usize] += c;
            }
        }
        for &(e, c) in Formula::of(&whole).elements() {
            assert_eq!(sum[e as usize], c, "{e:?}");
        }
    }

    #[test]
    fn empty_molecule_formula() {
        let f = Formula::of(&Molecule::new());
        assert!(f.elements().is_empty());
        assert_eq!(f.to_string(), "");
    }
}
