//! Pinned digests of generated reaction networks: species (id, name,
//! initial concentration) and reactions (operand ids, rate, rule) for
//! three models, recorded at the commit *before* the worklist partition
//! refinement replaced round-synchronous Morgan refinement in
//! `rms_molecule::canon`. Canonical strings are excluded on purpose —
//! atom ranks (and hence canonical SMILES spellings) may change with the
//! labelling algorithm, isomorphism classes may not, so species ids,
//! names and the reaction list must stay byte-identical.

use rms_suite::{compile_network, parse_rdl, ReactionNetwork};
use rms_workload::FrontierSpec;

/// FNV-1a over the rendered network (a fixed function, unlike
/// `DefaultHasher`, whose algorithm the standard library may change).
fn digest(network: &ReactionNetwork) -> u64 {
    let mut text = String::new();
    for (id, species) in network.species_iter() {
        text.push_str(&format!(
            "s{} {} init {}\n",
            id.0, species.name, species.initial_concentration
        ));
    }
    for reaction in network.reactions() {
        let ids = |side: &[rms_rdl::SpeciesId]| {
            side.iter()
                .map(|s| s.0.to_string())
                .collect::<Vec<_>>()
                .join("+")
        };
        text.push_str(&format!(
            "{} -> {} rate {} rule {}\n",
            ids(&reaction.reactants),
            ids(&reaction.products),
            reaction.rate,
            reaction.rule
        ));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

fn pinned(source: &str) -> (usize, usize, u64) {
    let model = compile_network(&parse_rdl(source).expect("model parses")).expect("model closes");
    (
        model.network.species_count(),
        model.network.reaction_count(),
        digest(&model.network),
    )
}

#[test]
fn vulcanization_network_is_pinned() {
    assert_eq!(
        pinned(include_str!("../models/vulcanization.rdl")),
        (47, 108, 12_030_277_382_349_636_692)
    );
}

#[test]
fn quickstart_network_is_pinned() {
    assert_eq!(
        pinned(include_str!("../models/quickstart.rdl")),
        (11, 28, 7_248_807_756_198_422_978)
    );
}

#[test]
fn frontier_arms_8_network_is_pinned() {
    assert_eq!(
        pinned(&FrontierSpec { arms: 8 }.rdl_source()),
        (189, 195, 16_277_217_503_473_393_751)
    );
}
