//! Interned molecule identity: an exact canonical certificate plus a 64-bit
//! hash of it, replacing canonical SMILES strings as the dedup key on the
//! network-generation hot path.
//!
//! 1. [`identify`] refines the atom partition once ([`crate::canon`],
//!    O((n + m) log n)); a discrete partition — most generated fragments —
//!    is already the canonical ranking, a symmetric molecule pays for the
//!    individualization tie-break on top. The **certificate** is the
//!    labelled graph rewritten in rank space and the **hash** is a fold
//!    over it, so neither needs a string.
//! 2. [`KeyTable`] interns identities into dense [`Sym`] symbols. An empty
//!    hash bucket proves a molecule new without comparing a certificate;
//!    an occupied one compares certificates (almost always against the
//!    single isomorphic occupant). The hash saves certificate
//!    *comparisons*, never labelling: the certificate is what it hashes.
//!
//! Equal certificates ⇔ isomorphic molecules ⇔ equal canonical SMILES, so
//! a network deduplicated through a `KeyTable` is identical to one
//! deduplicated through [`crate::canonical_key`] strings.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::canon::{certificate, complete, initial_invariants, refine_to_fixpoint};
use crate::graph::Molecule;

/// Dense symbol assigned by a [`KeyTable`], in first-seen order.
pub type Sym = u32;

/// Precomputed identity of a molecule: the prefilter hash and the exact
/// canonical certificate. Cheap to compare, `Send` across worker threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MolIdentity {
    /// 64-bit hash of the certificate (the prefilter key).
    pub hash: u64,
    /// Exact canonical certificate: atom count, per-rank atom invariants,
    /// then the bond relation (orders included) in rank space. Equal iff
    /// isomorphic.
    pub cert: Vec<u64>,
    /// Whether computing the certificate needed the individualization
    /// tie-break (the refinement partition was not discrete).
    pub slow_path: bool,
}

/// Compute a molecule's interned identity: one refinement yields the
/// canonical ranking when its partition is discrete; symmetric molecules
/// complete it by individualization.
pub fn identify(mol: &Molecule) -> MolIdentity {
    let n = mol.atom_count();
    let init = initial_invariants(mol);
    let (ranks, classes) = refine_to_fixpoint(mol, init.clone());
    let slow_path = classes < n;
    let ranks = complete(mol, ranks, classes);
    let mut cert = vec![0u64; 1 + n];
    cert[0] = n as u64;
    for (atom, &r) in ranks.iter().enumerate() {
        cert[1 + r as usize] = init[atom];
    }
    cert.extend(certificate(mol, &ranks));
    let hash = cert.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        (h ^ v).wrapping_mul(0x1000_0000_01b3)
    });
    MolIdentity {
        hash,
        cert,
        slow_path,
    }
}

/// Interned symbol table over molecule identities, with prefilter
/// statistics. Symbols are dense and assigned in first-intern order, so a
/// caller can map them 1:1 onto its own id space with a plain `Vec`.
#[derive(Debug, Clone, Default)]
pub struct KeyTable {
    buckets: HashMap<u64, Vec<Sym>>,
    certs: Vec<Vec<u64>>,
    /// Total [`KeyTable::intern`] calls.
    pub lookups: u64,
    /// Lookups resolved as definitely-new by an empty hash bucket,
    /// without comparing any certificate.
    pub prefilter_hits: u64,
    /// Certificate comparisons performed on bucket collisions.
    pub cert_compares: u64,
}

impl KeyTable {
    /// Empty table.
    pub fn new() -> KeyTable {
        KeyTable::default()
    }

    /// Number of distinct interned identities.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// Intern an identity: returns its symbol and whether it was new.
    pub fn intern(&mut self, id: MolIdentity) -> (Sym, bool) {
        self.lookups += 1;
        let next = self.certs.len() as Sym;
        match self.buckets.entry(id.hash) {
            Entry::Occupied(mut bucket) => {
                for &sym in bucket.get().iter() {
                    self.cert_compares += 1;
                    if self.certs[sym as usize] == id.cert {
                        return (sym, false);
                    }
                }
                bucket.get_mut().push(next);
            }
            Entry::Vacant(slot) => {
                self.prefilter_hits += 1;
                slot.insert(vec![next]);
            }
        }
        self.certs.push(id.cert);
        (next, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smiles::parse_smiles;
    use crate::{Atom, BondOrder, Element};

    #[test]
    fn isomorphic_molecules_share_identity() {
        let a = parse_smiles("CCO").unwrap();
        let b = parse_smiles("OCC").unwrap();
        let (ia, ib) = (identify(&a), identify(&b));
        assert_eq!(ia.hash, ib.hash);
        assert_eq!(ia.cert, ib.cert);
    }

    #[test]
    fn distinct_molecules_differ() {
        let a = parse_smiles("CCO").unwrap();
        let b = parse_smiles("COC").unwrap();
        assert_ne!(identify(&a).cert, identify(&b).cert);
    }

    #[test]
    fn symmetric_molecule_takes_slow_path_but_still_matches() {
        // CSSC is mirror-symmetric: refinement alone cannot make the
        // partition discrete.
        let a = parse_smiles("CSSC").unwrap();
        let ia = identify(&a);
        assert!(ia.slow_path);
        let b = parse_smiles("CSSC").unwrap();
        assert_eq!(ia.cert, identify(&b).cert);
    }

    #[test]
    fn asymmetric_chain_avoids_slow_path() {
        let a = parse_smiles("CSSOC").unwrap();
        assert!(!identify(&a).slow_path);
    }

    #[test]
    fn table_interns_and_dedups() {
        let mut t = KeyTable::new();
        let a = identify(&parse_smiles("CCO").unwrap());
        let b = identify(&parse_smiles("OCC").unwrap());
        let c = identify(&parse_smiles("CCS").unwrap());
        let (sa, new_a) = t.intern(a);
        let (sb, new_b) = t.intern(b);
        let (sc, new_c) = t.intern(c);
        assert!(new_a && !new_b && new_c);
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookups, 3);
        // First sights of CCO and CCS hit the prefilter; the OCC lookup
        // collided and compared one certificate.
        assert_eq!(t.prefilter_hits, 2);
        assert_eq!(t.cert_compares, 1);
    }

    #[test]
    fn single_and_aromatic_bonds_are_told_apart() {
        // Two aromatic CH joined once by a single, once by an aromatic
        // bond: both orders count one valence unit, the molecules differ.
        let build = |order| {
            let mut m = Molecule::new();
            for _ in 0..2 {
                m.add_atom(Atom::with_hydrogens(Element::C, 1).aromatic());
            }
            m.add_bond(0, 1, order).unwrap();
            m
        };
        let (single, aromatic) = (build(BondOrder::Single), build(BondOrder::Aromatic));
        let (a, b) = (identify(&single), identify(&aromatic));
        assert_ne!(a.cert, b.cert);
        assert_ne!(a.hash, b.hash);
        assert_ne!(
            crate::canonical_key(&single),
            crate::canonical_key(&aromatic)
        );
    }

    #[test]
    fn biphenyl_survives_the_canonical_round_trip() {
        // The inter-ring bond is single; written without its `-` it would
        // be read back as a thirteenth aromatic bond.
        let biphenyl = parse_smiles("c1ccccc1-c1ccccc1").unwrap();
        let key = crate::canonical_key(&biphenyl);
        let reparsed = parse_smiles(&key).unwrap();
        assert_eq!(
            reparsed
                .bonds()
                .filter(|b| b.order == BondOrder::Single)
                .count(),
            1,
            "{key}"
        );
        assert_eq!(crate::canonical_key(&reparsed), key);
        assert_eq!(identify(&reparsed), identify(&biphenyl));
    }

    #[test]
    fn identity_matches_canonical_key_equality() {
        // The interned identity and the canonical SMILES string must induce
        // the same equivalence classes.
        let pool = ["CSSC", "CSSSC", "CS", "CCO", "OCC", "CC(C)C", "CSC"];
        for x in pool {
            for y in pool {
                let (mx, my) = (parse_smiles(x).unwrap(), parse_smiles(y).unwrap());
                let by_string = crate::canonical_key(&mx) == crate::canonical_key(&my);
                let by_cert = identify(&mx).cert == identify(&my).cert;
                assert_eq!(by_string, by_cert, "{x} vs {y}");
            }
        }
    }
}
