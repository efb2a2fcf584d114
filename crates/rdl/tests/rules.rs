//! Rule-engine coverage for the remaining primitive actions and scope
//! forms (disconnect/connect/remove_h are covered by unit tests).

use rms_rdl::{compile, parse_rdl, RdlError};

fn network(src: &str) -> rms_rdl::ReactionNetwork {
    compile(&parse_rdl(src).unwrap()).unwrap().network
}

#[test]
fn increase_bond_order_dehydrogenation() {
    // Ethane's C-C can be raised to C=C (consuming one H per carbon).
    let n = network(
        r#"
        rate K = 1;
        molecule Ethane = "CC" init 1.0;
        rule dehydrogenate {
            site bond C ~ C order single;
            action increase;
            rate K;
        }
        "#,
    );
    // Ethane -> ethene; ethene's C=C does not match `order single`,
    // so closure stops after one new species... but ethene C=C with
    // H2C=CH2 can still be raised to a triple bond by a second rule
    // application? No: the rule requires a *single* bond site.
    assert_eq!(n.species_count(), 2);
    assert_eq!(n.reaction_count(), 1);
    let r = &n.reactions()[0];
    assert_eq!(r.products.len(), 1);
    let product = n.species(r.products[0]);
    let mol = product.structure.as_ref().unwrap();
    assert!(mol
        .bonds()
        .any(|b| b.order == rms_molecule::BondOrder::Double));
}

#[test]
fn decrease_bond_order_creates_diradical() {
    let n = network(
        r#"
        rate K = 1;
        molecule Ethene = "C=C" init 1.0;
        rule open_pi {
            site bond C ~ C order double;
            action decrease;
            rate K;
        }
        "#,
    );
    assert_eq!(n.reaction_count(), 1);
    let r = &n.reactions()[0];
    let product = n.species(r.products[0]);
    let mol = product.structure.as_ref().unwrap();
    assert_eq!(mol.radical_sites().len(), 2, "diradical expected");
}

#[test]
fn add_hydrogen_quenches_radicals() {
    let n = network(
        r#"
        rate K = 1;
        molecule Methyl = "[CH3]" init 0.5;
        rule quench {
            site atom C & radical;
            action add_h;
            rate K;
        }
        "#,
    );
    assert_eq!(n.reaction_count(), 1);
    let r = &n.reactions()[0];
    let product = n.species(r.products[0]);
    let mol = product.structure.as_ref().unwrap();
    assert!(mol.radical_sites().is_empty());
    assert_eq!(mol.total_hydrogens(), 4); // methane
}

#[test]
fn positional_pair_scope() {
    // `on Thiyl, Alkene;`: the first predicate only matches Thiyl-family
    // molecules, the second only Alkene-family — so no Thiyl+Thiyl or
    // Alkene+Alkene couplings appear.
    let n = network(
        r#"
        rate K = 1;
        molecule Thiyl  = "C[S]" init 0.5;
        molecule Alkene = "[CH2]C" init 0.5;
        rule couple {
            on Thiyl, Alkene;
            site pair S & radical, C & radical;
            action connect single;
            rate K;
        }
        "#,
    );
    assert_eq!(n.reaction_count(), 1, "{}", n.display_equations());
    let r = &n.reactions()[0];
    assert_eq!(r.reactants.len(), 2);
    assert_ne!(r.reactants[0], r.reactants[1]);
}

#[test]
fn unscoped_pair_allows_self_coupling() {
    let n = network(
        r#"
        rate K = 1;
        molecule Thiyl = "C[S]" init 0.5;
        rule dimerize {
            site pair S & radical, S & radical;
            action connect single;
            rate K;
        }
        "#,
    );
    // Thiyl + Thiyl -> CSSC.
    assert_eq!(n.reaction_count(), 1);
    let r = &n.reactions()[0];
    assert_eq!(r.reactants[0], r.reactants[1], "self-coupling expected");
}

#[test]
fn saturated_sites_skip_silently() {
    // `increase` on an already-triple bond must not error or loop.
    let n = network(
        r#"
        rate K = 1;
        molecule Yne = "C#C" init 1.0;
        rule raise {
            site bond C ~ C;
            action increase;
            rate K;
        }
        "#,
    );
    assert_eq!(n.reaction_count(), 0);
    assert_eq!(n.species_count(), 1);
}

#[test]
fn forbid_atom_predicate_blocks_products() {
    // Forbid any 3-coordinate sulfur: recombination to branched sulfide
    // patterns is pruned while plain dimerization survives.
    let with_forbid = network(
        r#"
        rate K = 1;
        molecule Thiyl = "C[S]" init 0.5;
        rule dimerize {
            site pair S & radical, S & radical;
            action connect single;
            rate K;
        }
        forbid atom S & degree >= 2;
        "#,
    );
    assert_eq!(
        with_forbid.reaction_count(),
        0,
        "{}",
        with_forbid.display_equations()
    );
}

#[test]
fn generated_species_participate_in_later_generations() {
    // Chain: CSSC scission -> thiyl radicals -> quench to thiol; the
    // quench rule only fires on a *generated* species.
    let n = network(
        r#"
        rate K1 = 1;
        rate K2 = 2;
        molecule DiS = "CSSC" init 1.0;
        rule scission {
            site bond S ~ S;
            action disconnect;
            rate K1;
        }
        rule quench {
            site atom S & radical;
            action add_h;
            rate K2;
        }
        "#,
    );
    // Reactions: scission (1) + quench of the thiyl radical (1).
    assert_eq!(n.reaction_count(), 2, "{}", n.display_equations());
    let quench = n.reactions().iter().find(|r| r.rule == "quench").unwrap();
    let product = n.species(quench.products[0]);
    let mol = product.structure.as_ref().unwrap();
    assert!(mol.radical_sites().is_empty());
}

#[test]
fn species_limit_is_a_hard_error() {
    let program = parse_rdl(
        r#"
        rate K = 1;
        molecule Sx = "CS{n}C" for n in 2..4 init 1.0;
        rule scission { site bond S ~ S; action disconnect; rate K; }
        limit species 4;
        "#,
    )
    .unwrap();
    assert!(matches!(
        compile(&program),
        Err(RdlError::SpeciesLimitExceeded(4))
    ));
}
