//! Totality of the rate-constant parser and evaluator: whatever text a
//! model's rate section holds — random bytes, a torn write, a flipped
//! bit, an expression nested a hundred thousand deep —
//! `RateTable::parse` returns a table of finite constants or a structured
//! error. Never a panic, never a stack overflow, and never an allocation
//! the text's length does not pay for.
//!
//! An RDL file reaches the parser as UTF-8 text (`fs::read_to_string`
//! refuses anything else), so arbitrary bytes are decoded lossily here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rms_rcip::{RateTable, RcipError};

/// The system allocator, remembering the largest single request made on
/// each thread (the tests in this binary run concurrently).
struct Watched;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot is gone while its thread is torn down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic beside it.
unsafe impl GlobalAlloc for Watched {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's arguments, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watched = Watched;

/// What one allocation may take beyond 32 bytes per input byte: the
/// first growth of an empty `Vec` or map, and an error's message.
const SLACK: usize = 1024;

/// Parse the lossy decoding of `bytes` and hold the result to the
/// processor's promises. Whether the text was accepted.
fn check(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    LARGEST.with(|largest| largest.set(0));
    let parsed = RateTable::parse(&text);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 32 * text.len() + SLACK,
        "one allocation of {largest} bytes for {} bytes of text: {text:?}",
        text.len()
    );
    match parsed {
        Ok(table) => {
            for name in table.names() {
                let value = table.get(name).expect("a listed name has a value");
                assert!(value.is_finite(), "{name} = {value}: {text:?}");
                let id = table.id(name).expect("a listed name has an id");
                assert_eq!(table.value(id).to_bits(), value.to_bits(), "{text:?}");
                if let Some(bounds) = table.bounds(id) {
                    assert!(bounds.lo <= bounds.hi, "{name}: {bounds:?}: {text:?}");
                }
            }
            true
        }
        Err(RcipError::Syntax { line, column, .. }) => {
            let lines = text.split('\n').count();
            assert!(
                (1..=lines).contains(&line) && column >= 1,
                "{line}:{column} of {lines} lines: {text:?}"
            );
            false
        }
        Err(other) => {
            assert!(!other.to_string().is_empty());
            false
        }
    }
}

/// The rate sections of the bundled models, as the RDL parser hands them
/// on, and one written by hand that uses every operator.
fn rate_sections() -> [String; 3] {
    let section = |model: &str| -> String {
        let lines = model
            .lines()
            .filter(|l| l.starts_with("rate ") || l.starts_with("bound "));
        lines.map(|l| format!("{l}\n")).collect()
    };
    let by_hand = "# every operator\nrate A = 2;\nrate B = (A + 1) * 3 - -A / 4;\n\
                   rate C = 1.5e-1 * B; bound A in [-1, 1e2];\nbound C in [0.01, 10];\n";
    [
        section(include_str!("../../../models/quickstart.rdl")),
        section(include_str!("../../../models/vulcanization.rdl")),
        by_hand.to_string(),
    ]
}

/// Every prefix and every single-bit flip of the three rate sections.
#[test]
fn every_truncation_and_bit_flip_of_a_rate_section_is_total() {
    let mut cases = 0;
    for section in rate_sections() {
        assert!(
            check(section.as_bytes()),
            "the section itself parses: {section:?}"
        );
        let bytes = section.as_bytes();
        let (mut accepted, mut refused) = (0, 0);
        for len in 0..bytes.len() {
            if check(&bytes[..len]) {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
        let mut flipped = bytes.to_vec();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                if check(&flipped) {
                    accepted += 1;
                } else {
                    refused += 1;
                }
                flipped[at] ^= 1 << bit;
            }
        }
        // Both outcomes occur: the cases reach past the first statement.
        assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
        cases += accepted + refused;
    }
    eprintln!("rcip totality: {cases} truncations and bit flips");
}

/// Inputs at the edges of the format, pinned.
#[test]
fn edge_cases_are_total() {
    for text in [
        "",
        "#",
        "rate",
        "rate K",
        "rate K =",
        "rate K = ;",
        "rate K = 1",
        "bound K in [0, 1];",
        "rate K = 1; bound K in [2, 1];",
        "rate K = 1 / 0;",
        "rate K = K;",
        "rate K = 1; rate K = 1;",
        "rate K = 1..2;",
        "rate K = 1e;",
        "rate K = \u{FFFD};",
        "rate K = 1;\r\nrate J = K;\r\n",
    ] {
        check(text.as_bytes());
    }
}

/// Constants that overflow to infinity, or to NaN through arithmetic, are
/// refused: a rate constant the solver would integrate with is a finite
/// number.
#[test]
fn a_constant_that_is_not_finite_is_refused() {
    for text in [
        "rate K = 1e400;",
        "rate K = 1e300 * 1e300;",
        "rate K = -1e308 - 1e308;",
        "rate K = 1e308 * 10 - 1e308 * 10;",
        "rate K = 1 / 1e-320 / 1e-320;",
        "rate A = 1e400; rate B = 2;",
    ] {
        match RateTable::parse(text) {
            Err(RcipError::NotFinite { name, .. }) => assert!(text.contains(&name), "{text}"),
            other => panic!("{text}: {other:?}"),
        }
        assert!(!check(text.as_bytes()), "{text}");
    }
}

/// Nesting as deep as text allows — parentheses, negations, an operator
/// chain, a chain of definitions — is refused with an error instead of
/// running the parser, the evaluator or the drop of the tree off the
/// stack; nesting a chemist writes is not.
#[test]
fn deep_nesting_is_refused_not_overflowed() {
    // Each definition names the one after it, so evaluating the first
    // walks the whole chain.
    let chain = |links: usize| -> String {
        let text: String = (1..links)
            .rev()
            .map(|i| format!("rate A{i} = A{};\n", i - 1))
            .collect();
        text + "rate A0 = 1;\n"
    };
    let deep = 100_000;
    for text in [
        format!("rate K = {}1{};", "(".repeat(deep), ")".repeat(deep)),
        format!("rate K = {}1;", "-".repeat(deep)),
        format!("rate K = {}1;", "1 + ".repeat(deep)),
        format!("rate K = {}1;", "2 * ".repeat(deep)),
    ] {
        match RateTable::parse(&text) {
            Err(RcipError::Syntax { message, .. }) => {
                assert_eq!(message, "expression has more than 128 factors")
            }
            other => panic!("{}: {other:?}", &text[..20]),
        }
        assert!(!check(text.as_bytes()));
    }
    let long_chain = chain(deep);
    assert_eq!(
        RateTable::parse(&long_chain).unwrap_err(),
        RcipError::TooDeep(format!("A{}", deep - 1))
    );
    assert!(!check(long_chain.as_bytes()));
    // Up to the limits, the same shapes evaluate.
    let at_the_limit = format!(
        "rate K = {}1{}; rate J = {}K; rate S = {}1;",
        "(".repeat(127),
        ")".repeat(127),
        "-".repeat(127),
        "1 + ".repeat(127)
    );
    assert!(check(at_the_limit.as_bytes()));
    assert!(check(chain(100).as_bytes()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bytes.
    #[test]
    fn random_bytes_are_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        check(&bytes);
    }

    /// Statement and expression soup: deeper than random bytes reach.
    #[test]
    fn expression_soup_is_total(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "rate", "bound", "K", "K2", "=", ";", "+", "-", "*", "/",
                "(", ")", "[", "]", ",", "in", "1", "2.5", "1e300", "0",
            ]),
            0..120,
        )
    ) {
        check(words.join(" ").as_bytes());
    }
}
