//! Molecule variant expansion.
//!
//! "Each molecule specified can have variants that arise because many
//! molecules differ from one another only in the lengths of chains of some
//! atom (typically sulfur in rubbers). Our input language allows all these
//! variants to be expressed in a compact form which is then expanded by
//! the chemical compiler." (§2)
//!
//! A template like `CS{n}C for n in 2..4` expands to `CSSC`, `CSSSC`,
//! `CSSSSC`: the single-atom symbol immediately before `{n}` is repeated
//! `n` times.

use crate::ast::{Limits, MoleculeDecl};
use crate::error::{RdlError, Result};

/// One expanded variant of a molecule declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Display name: the declared name, with `_n` appended for
    /// parameterized templates.
    pub name: String,
    /// Concrete SMILES after substitution.
    pub smiles: String,
    /// The variant parameter value, when parameterized.
    pub n: Option<u32>,
}

/// A fully expanded seed species: one concrete variant of a declared
/// molecule, tagged with the family (declared) name it expanded from.
///
/// This is the artifact the *Expand* pipeline stage produces; the rule
/// engine ([`crate::engine::compile_with_options`]) consumes it when seeding the
/// reaction network.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedVariant {
    /// The declared molecule name (scope/family name for `on` clauses).
    pub family: String,
    /// Display name of this variant (family plus `_n` when parameterized).
    pub name: String,
    /// Concrete SMILES after `{n}` substitution.
    pub smiles: String,
    /// Declared initial concentration (shared by all variants).
    pub initial: f64,
}

/// Expand every molecule declaration of a program into concrete seed
/// variants, in declaration order, within the program's limits.
pub fn expand_program(program: &crate::ast::Program) -> Result<Vec<SeedVariant>> {
    let mut seeds = Vec::new();
    for decl in &program.molecules {
        for variant in expand(decl, &program.limits, seeds.len())? {
            seeds.push(SeedVariant {
                family: decl.name.clone(),
                name: variant.name,
                smiles: variant.smiles,
                initial: decl.initial_concentration,
            });
        }
    }
    Ok(seeds)
}

/// Expand a declaration into its variants. Non-parameterized declarations
/// yield exactly one variant with the declared name.
///
/// Before any string is built, a declaration is refused when its range
/// reaches `n` past `limits.max_atoms` (a variant holds at least `n`
/// atoms) or its variants would take the `seeded` seeds declared before
/// it past `limits.max_species`: both are sizes the program declares
/// itself, and a range is as cheap to write as it is costly to expand.
pub fn expand(decl: &MoleculeDecl, limits: &Limits, seeded: usize) -> Result<Vec<Variant>> {
    let over = |message: String| RdlError::SeedLimit {
        molecule: decl.name.clone(),
        message,
    };
    let count = match decl.variants {
        Some((lo, hi)) if lo > hi || lo == 0 => {
            let molecule = decl.name.clone();
            return Err(RdlError::BadVariantRange { molecule, lo, hi });
        }
        Some((_, hi)) if hi as usize > limits.max_atoms => {
            let max = limits.max_atoms;
            return Err(over(format!(
                "variant range reaches n = {hi}, past limit atoms {max}"
            )));
        }
        Some((lo, hi)) => (hi - lo) as usize + 1,
        None => 1,
    };
    if seeded + count > limits.max_species {
        let max = limits.max_species;
        return Err(over(format!(
            "{count} variant(s) take the seeds past limit species {max}"
        )));
    }
    match decl.variants {
        None => {
            if decl.template.contains("{n}") {
                return Err(RdlError::Syntax {
                    line: 0,
                    column: 0,
                    message: format!(
                        "molecule '{}' uses {{n}} but has no variant range",
                        decl.name
                    ),
                });
            }
            Ok(vec![Variant {
                name: decl.name.clone(),
                smiles: decl.template.clone(),
                n: None,
            }])
        }
        Some((lo, hi)) => (lo..=hi)
            .map(|n| {
                Ok(Variant {
                    name: format!("{}_{}", decl.name, n),
                    smiles: substitute(&decl.template, n, &decl.name)?,
                    n: Some(n),
                })
            })
            .collect(),
    }
}

/// Replace every `X{n}` (X a one- or two-letter atom symbol) with X
/// repeated `n` times.
fn substitute(template: &str, n: u32, molecule: &str) -> Result<String> {
    let mut out = String::with_capacity(template.len() + n as usize * 2);
    let bytes = template.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i..].starts_with(b"{n}") {
            // Find the atom symbol just written: a trailing uppercase letter
            // optionally followed by one lowercase letter.
            let sym = trailing_symbol(&out);
            let Some(sym) = sym else {
                return Err(RdlError::Syntax {
                    line: 0,
                    column: i,
                    message: format!(
                        "molecule '{molecule}': {{n}} must follow an atom symbol in '{template}'"
                    ),
                });
            };
            // `out` already contains one copy; append n-1 more.
            for _ in 1..n {
                out.push_str(&sym);
            }
            i += 3;
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    Ok(out)
}

/// The atom symbol at the end of the string: an uppercase letter plus an
/// optional lowercase letter (e.g. `S`, `Cl`), or a single lowercase
/// aromatic symbol.
fn trailing_symbol(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let last = *bytes.last()?;
    if last.is_ascii_lowercase() {
        // Could be 2nd char of "Cl"/"Br" or an aromatic atom.
        if bytes.len() >= 2 && bytes[bytes.len() - 2].is_ascii_uppercase() {
            return Some(s[s.len() - 2..].to_string());
        }
        return Some((last as char).to_string());
    }
    if last.is_ascii_uppercase() {
        return Some((last as char).to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, template: &str, variants: Option<(u32, u32)>) -> MoleculeDecl {
        MoleculeDecl {
            name: name.to_string(),
            template: template.to_string(),
            variants,
            initial_concentration: 0.0,
        }
    }

    /// `decl`'s variants under the default limits, as the first declaration.
    fn variants(decl: &MoleculeDecl) -> Result<Vec<Variant>> {
        expand(decl, &Limits::default(), 0)
    }

    #[test]
    fn non_parameterized_single_variant() {
        let vs = variants(&decl("Poly", "CC=CC", None)).unwrap();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].name, "Poly");
        assert_eq!(vs[0].smiles, "CC=CC");
        assert_eq!(vs[0].n, None);
    }

    #[test]
    fn sulfur_chain_expansion() {
        let vs = variants(&decl("Sx", "CS{n}C", Some((2, 4)))).unwrap();
        assert_eq!(
            vs.iter().map(|v| v.smiles.as_str()).collect::<Vec<_>>(),
            vec!["CSSC", "CSSSC", "CSSSSC"]
        );
        assert_eq!(vs[0].name, "Sx_2");
        assert_eq!(vs[2].n, Some(4));
    }

    #[test]
    fn n_equals_one_keeps_single_atom() {
        let vs = variants(&decl("S1", "CS{n}C", Some((1, 1)))).unwrap();
        assert_eq!(vs[0].smiles, "CSC");
    }

    #[test]
    fn two_letter_symbol_repetition() {
        let vs = variants(&decl("X", "CCl{n}", Some((2, 2)))).unwrap();
        assert_eq!(vs[0].smiles, "CClCl");
    }

    #[test]
    fn multiple_placeholders() {
        let vs = variants(&decl("X", "S{n}CS{n}", Some((2, 2)))).unwrap();
        assert_eq!(vs[0].smiles, "SSCSS");
    }

    #[test]
    fn bad_range_rejected() {
        assert!(matches!(
            variants(&decl("X", "S{n}", Some((3, 2)))),
            Err(RdlError::BadVariantRange { .. })
        ));
        assert!(matches!(
            variants(&decl("X", "S{n}", Some((0, 2)))),
            Err(RdlError::BadVariantRange { .. })
        ));
    }

    #[test]
    fn placeholder_without_range_rejected() {
        assert!(variants(&decl("X", "S{n}", None)).is_err());
    }

    #[test]
    fn placeholder_without_symbol_rejected() {
        assert!(variants(&decl("X", "{n}S", Some((1, 2)))).is_err());
        assert!(variants(&decl("X", "(S){n}", Some((1, 2)))).is_err());
    }

    #[test]
    fn declared_limits_refuse_a_range_before_expanding_it() {
        let limits = Limits {
            max_atoms: 12,
            max_species: 5,
            ..Limits::default()
        };
        let refused = |decl: &MoleculeDecl, seeded| match expand(decl, &limits, seeded) {
            Err(RdlError::SeedLimit { molecule, message }) => (molecule, message),
            other => panic!("{other:?}"),
        };
        // n past `limit atoms`: even four billion is refused at once.
        for hi in [13, 4_000_000_000] {
            let (molecule, message) = refused(&decl("PolyS", "CS{n}C", Some((2, hi))), 0);
            assert_eq!(molecule, "PolyS");
            assert!(message.contains("limit atoms 12"), "{message}");
        }
        // Variants past `limit species`, counting the seeds before them.
        let (_, message) = refused(&decl("PolyS", "CS{n}C", Some((2, 7))), 0);
        assert!(message.contains("limit species 5"), "{message}");
        refused(&decl("PolyS", "CS{n}C", Some((2, 4))), 3);
        refused(&decl("Rubber", "CC=CC", None), 5);
        assert_eq!(
            expand(&decl("PolyS", "CS{n}C", Some((2, 4))), &limits, 2)
                .unwrap()
                .len(),
            3
        );
        // An inverted range is still a bad range, whatever its bounds.
        assert!(matches!(
            expand(&decl("X", "S{n}", Some((u32::MAX, 2))), &limits, 0),
            Err(RdlError::BadVariantRange { .. })
        ));
    }
}
