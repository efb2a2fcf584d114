//! Totality of the job-request boundary: whatever a client writes on a
//! line — random bytes, a torn write, a flipped bit — `JobRequest::parse`
//! returns a request that keeps the protocol's rules or an `invalid`
//! error, and the server answers the line and keeps serving. Never a
//! panic, and never an allocation the line's length does not pay for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rms_serve::json::{self, Value};
use rms_serve::{serve_lines, JobKind, JobRequest, ServerConfig};

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

/// What one allocation may take beyond 32 bytes per input byte: a JSON
/// object's first tree node, the first growth of an empty `Vec`.
const SLACK: usize = 1024;

/// Parse the lossy decoding of `bytes` (the server refuses a line that is
/// not UTF-8 before parsing it) and hold the result to the protocol's
/// promises. Whether the line was accepted.
fn check(bytes: &[u8]) -> bool {
    let line = String::from_utf8_lossy(bytes);
    LARGEST.with(|largest| largest.set(0));
    let parsed = JobRequest::parse(&line);
    let largest = LARGEST.with(Cell::get);
    assert!(largest > 0, "the allocator is watched");
    assert!(
        largest <= 32 * line.len() + SLACK,
        "one allocation of {largest} bytes for a {}-byte line: {line:?}",
        line.len()
    );
    match parsed {
        Ok(request) => {
            match request.kind {
                JobKind::Simulate { times } => {
                    assert!(times.first().is_some_and(|&t| t > 0.0), "{line:?}");
                    assert!(times.windows(2).all(|w| w[0] < w[1]), "{line:?}");
                    assert!(times.iter().all(|t| t.is_finite()), "{line:?}");
                }
                JobKind::Estimate { files, workers } => {
                    assert!(workers >= 1 && !files.is_empty(), "{line:?}");
                    for file in files {
                        assert!(!file.is_empty(), "{line:?}");
                        assert_eq!(file.times.len(), file.values.len(), "{line:?}");
                        assert!(file.times.windows(2).all(|w| w[0] < w[1]), "{line:?}");
                    }
                }
            }
            true
        }
        Err(e) => {
            assert_eq!(e.kind(), "invalid", "{line:?}: {e}");
            false
        }
    }
}

/// The job lines of README.md's `rmsc serve` example, `$MODEL`
/// substituted as the shell substitutes it.
fn readme_job_lines() -> Vec<String> {
    let readme = include_str!("../../../README.md");
    let model = readme.split("$ MODEL='").nth(1);
    let model = model.and_then(|rest| rest.split('\'').next());
    let model = model.expect("README.md's serve example defines $MODEL");
    let lines: Vec<String> = readme
        .lines()
        .filter_map(|line| {
            let line = line.trim_start().trim_start_matches("$ { ");
            let format = line.strip_prefix("printf '")?.split("\\n'").next()?;
            Some(format.replace("%s", model))
        })
        .collect();
    assert_eq!(lines.len(), 3, "README.md's serve example sends three jobs");
    lines
}

/// README.md's job lines and an estimate job exercising every field.
fn valid_lines() -> Vec<String> {
    let mut lines = readme_job_lines();
    lines.push(
        r#"{"id":"e1","tenant":"acme","kind":"estimate","source":"rate K = 1;","workers":3,"#
            .to_string()
            + r#""files":[{"label":"a","times":[0.1,0.2],"values":[1.0,2.5e-1]},"#
            + r#"{"times":[0.5],"values":[0.25]}],"deadline_ms":500,"level":"algebraic","#
            + r#""observe":["DiS","S\u00e9"]}"#,
    );
    lines
}

/// Every prefix and every single-bit flip of every valid line.
#[test]
fn every_truncation_and_bit_flip_of_a_valid_line_is_total() {
    let mut cases = 0;
    for line in valid_lines() {
        assert!(check(line.as_bytes()), "the line itself parses: {line}");
        let bytes = line.as_bytes();
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
        // Both outcomes occur: a flip inside a string value is a
        // different, valid request.
        assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
        cases += accepted + refused;
    }
    eprintln!("request totality: {cases} truncations and bit flips");
}

/// A line that is not UTF-8 is answered like any malformed line — an
/// `invalid` error — and the server goes on to the next one.
#[test]
fn a_line_that_is_not_utf8_is_refused_and_serving_goes_on() {
    let input: &[u8] = b"{\"id\":\"before\"}\n{\"id\":\"\xff\xfe\"}\n{\"id\":\"after\"}\n";
    let mut output = Vec::new();
    let stats = serve_lines(input, &mut output, ServerConfig::default())
        .expect("a bad line does not end the session");
    assert_eq!(stats.admitted, 0);
    let events: Vec<Value> = String::from_utf8(output)
        .expect("events are UTF-8")
        .lines()
        .map(|line| json::parse(line).expect("events are JSON"))
        .collect();
    let kind = |v: &Value| {
        let error = v.get("error").and_then(|e| e.get("kind"));
        error.and_then(Value::as_str).map(str::to_string)
    };
    let kinds: Vec<Option<String>> = events.iter().map(kind).collect();
    let invalid = Some("invalid".to_string());
    assert_eq!(kinds, [invalid.clone(), invalid.clone(), invalid, None]);
    let drained = events[3].get("event").and_then(Value::as_str);
    assert_eq!(drained, Some("drained"));
}

/// Inputs at the edges of the format, pinned.
#[test]
fn edge_cases_are_total() {
    for line in [
        "",
        "{}",
        "[]",
        "null",
        r#"{"id":"x","source":"s","times":[1e400]}"#,
        r#"{"id":"x","source":"s","times":[0.5],"deadline_ms":1e300}"#,
        r#"{"id":"x","source":"s","kind":"estimate","workers":1e300,"files":[{"times":[1],"values":[1]}]}"#,
        r#"{"id":"x","source":"s","kind":"estimate","files":[{},{},{},{},{},{},{},{}]}"#,
        r#"{"id":"\ud800","source":"s","times":[1]}"#,
        r#"{"id":"\u+041","source":"s","times":[1]}"#,
        r#"{"id":"x","source":"s","times":[-0]}"#,
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
        "\"\\u",
        "-",
        "1e",
    ] {
        check(line.as_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bytes.
    #[test]
    fn random_bytes_are_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        check(&bytes);
    }

    /// JSON tokens and protocol field names in any order: deeper than
    /// random bytes reach.
    #[test]
    fn token_soup_is_total(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "{", "}", "[", "]", ":", ",", "\"id\"", "\"source\"", "\"times\"",
                "\"kind\"", "\"estimate\"", "\"simulate\"", "\"files\"", "\"values\"",
                "\"workers\"", "\"deadline_ms\"", "\"level\"", "\"full\"", "\"observe\"",
                "\"tenant\"", "\"label\"", "\"x\"", "0", "1", "0.5", "-1", "1e3", "1e999",
                "null", "true", "\"\\u00e9\"", "\"\\\"\"", " ",
            ]),
            0..80,
        )
    ) {
        check(words.concat().as_bytes());
    }
}
