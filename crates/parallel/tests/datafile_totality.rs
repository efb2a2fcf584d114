//! Totality of the experiment data-file parser: whatever text a `.dat`
//! file holds — random bytes, a torn write, a flipped bit —
//! `ExperimentFile::parse` returns a file that keeps the record rule or
//! a structured error naming a line of the input. Never a panic, and
//! never an allocation the text's length does not pay for.
//!
//! A file on disk reaches the parser through `fs::read_to_string`, which
//! refuses invalid UTF-8; arbitrary bytes are therefore decoded lossily
//! here, which is the most any file can put in front of the parser.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rms_parallel::{DataFileError, ExperimentFile};

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
/// first growth of an empty `Vec` and the file's label.
const SLACK: usize = 1024;

/// Parse the lossy decoding of `bytes` and hold the result to the
/// parser's promises. Whether the text was accepted.
fn check(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    LARGEST.with(|largest| largest.set(0));
    let parsed = ExperimentFile::parse("formulation_00", &text);
    let largest = LARGEST.with(Cell::get);
    assert!(largest > 0, "the allocator is watched");
    assert!(
        largest <= 32 * text.len() + SLACK,
        "one allocation of {largest} bytes for {} bytes of text: {text:?}",
        text.len()
    );
    let lines = text.lines().count();
    match parsed {
        Ok(file) => {
            assert_eq!(file.times.len(), file.values.len(), "{text:?}");
            assert!(
                file.times.iter().all(|t| t.is_finite() && *t >= 0.0),
                "{text:?}"
            );
            assert!(file.times.windows(2).all(|w| w[0] < w[1]), "{text:?}");
            assert!(file.values.iter().all(|v| v.is_finite()), "{text:?}");
            true
        }
        Err(DataFileError::Parse { line, .. } | DataFileError::NonMonotonicTime { line }) => {
            assert!(
                (1..=lines).contains(&line),
                "line {line} of {lines}: {text:?}"
            );
            false
        }
        Err(DataFileError::Io(e)) => panic!("parsing text did I/O: {e}"),
    }
}

/// A file as `rmsc synthesize` writes it, and one written by hand:
/// comments, blank lines, inline comments, signs and exponents.
fn valid_files() -> [String; 2] {
    let written = ExperimentFile {
        label: "formulation_00".to_string(),
        times: (1..=40).map(|i| f64::from(i) * 0.05).collect(),
        values: (1..=40).map(|i| (-0.1 * f64::from(i)).exp()).collect(),
    };
    let by_hand = "# cure curve, rheometer 2\n\n0 0.0\n0.5 +1.25e-1  # torque\n\t1.0\t-2E0\n\n\
                   1.5e0 3\n# end\n"
        .to_string();
    [written.to_text(), by_hand]
}

/// Every prefix and every single-bit flip of both valid files.
#[test]
fn every_truncation_and_bit_flip_of_a_valid_file_is_total() {
    let mut cases = 0;
    for file in valid_files() {
        assert!(check(file.as_bytes()), "the file itself parses: {file:?}");
        let bytes = file.as_bytes();
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
        // Both outcomes occur: the cases reach past the first line.
        assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
        cases += accepted + refused;
    }
    eprintln!("datafile totality: {cases} truncations and bit flips");
}

/// Inputs at the edges of the format, pinned.
#[test]
fn edge_cases_are_total() {
    for text in [
        "",
        "#",
        "\n\n\n",
        "1",
        "1 2 3",
        "nan 1",
        "1 nan",
        "inf 1",
        "-0 1",
        "1e400 1",
        "1 1e400",
        "1 1\n1 1",
        "\u{FFFD} 1",
        "1 1\r\n2 2\r\n",
        "0x10 1",
    ] {
        check(text.as_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bytes.
    #[test]
    fn random_bytes_are_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        check(&bytes);
    }

    /// Records, comments and numbers in any order: deeper than random
    /// bytes reach.
    #[test]
    fn record_soup_is_total(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "0", "1", "2.5", "-1", "1e-3", "1e308", "1e309", "nan", "inf", "-inf",
                "+0", "-0", ".5", "5.", "e", "#", "# c", " ", "\t", "\n", "\r\n", "x",
            ]),
            0..120,
        )
    ) {
        check(words.concat().as_bytes());
    }
}
