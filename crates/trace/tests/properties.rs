//! Property-based tests for the JSON parser's string scan, on the in-tree
//! `pl-test` harness.

use pl_test::{check, one_of, prop_assert_eq, u64_in, vec_of, StrategyExt};
use pl_trace::json::{escape, parse, Value};

/// A char drawn from `lo..hi`, skipping the UTF-16 surrogate range.
fn char_in(lo: u32, hi: u32) -> impl pl_test::Strategy<Value = String> {
    u64_in(lo as u64..hi as u64).map(|c| {
        let c = c as u32;
        let c = if (0xD800..0xE000).contains(&c) {
            c + 0x800
        } else {
            c
        };
        char::from_u32(c).expect("surrogates skipped").to_string()
    })
}

/// Strings mixing ASCII runs, 2/3/4-byte UTF-8 characters, control
/// characters, `"` and `\`.
fn mixed_string() -> impl pl_test::Strategy<Value = String> {
    let piece = one_of(vec![
        vec_of(char_in(0x20, 0x7f), 0..12)
            .map(|run| run.concat())
            .boxed(),
        char_in(0x80, 0x800).boxed(),
        char_in(0x800, 0x10000).boxed(),
        char_in(0x10000, 0x110000).boxed(),
        char_in(0, 0x20).boxed(),
        pl_test::just("\"".to_string()).boxed(),
        pl_test::just("\\".to_string()).boxed(),
    ]);
    vec_of(piece, 0..40).map(|pieces| pieces.concat())
}

/// `s` as a JSON string body with every non-ASCII char written as a
/// `\u` escape, non-BMP chars as a UTF-16 surrogate pair (what Python's
/// `json.dumps` emits by default).
fn ascii_escape(s: &str) -> String {
    let mut out = String::new();
    for c in escape(s).chars() {
        if c.is_ascii() {
            out.push(c);
        } else {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        }
    }
    out
}

#[test]
fn escaped_strings_parse_back() {
    check("escaped_strings_parse_back", &mixed_string(), |s| {
        for body in [escape(s), ascii_escape(s)] {
            let alone = parse(&format!("\"{body}\"")).map_err(pl_test::PropFail::new)?;
            prop_assert_eq!(alone.as_str(), Some(s.as_str()));
            let nested = parse(&format!("[{{\"k\":\"{body}\"}}, \"{body}\"]"))
                .map_err(pl_test::PropFail::new)?;
            let items = nested.as_arr().unwrap_or_default();
            prop_assert_eq!(items.len(), 2);
            prop_assert_eq!(items[0].get("k").and_then(Value::as_str), Some(s.as_str()));
            prop_assert_eq!(items[1].as_str(), Some(s.as_str()));
        }
        Ok(())
    });
}
