//! A minimal JSON parser and string escaper.
//!
//! The workspace is hermetic (no external crates), so the exporters write
//! JSON by hand and the test suites validate it with this parser. It
//! supports the full JSON grammar the exporters can produce: objects,
//! arrays, strings with escapes, numbers, booleans, and null.
//!
//! # Examples
//!
//! ```
//! use pl_trace::json;
//! let v = json::parse(r#"{"a": [1, 2.5, "x"], "ok": true}"#).unwrap();
//! let arr = v.get("a").and_then(|a| a.as_arr()).unwrap();
//! assert_eq!(arr.len(), 3);
//! assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
//! ```

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is not preserved.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Looks up `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal.
///
/// # Examples
///
/// ```
/// assert_eq!(pl_trace::json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
/// ```
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Deepest array/object nesting [`parse`] accepts. Everything the
/// workspace writes nests fewer than 10 levels; the bound keeps the
/// recursive descent from overflowing the stack on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the first
/// syntax error, including trailing garbage after the document and
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        text,
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input; `bytes` is the same text, for byte-wise scanning.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                self.enter()?;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'[') => {
                self.enter()?;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Opens one array or object, refusing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next `"` or `\`.
            // Both are ASCII, so the run ends on a char boundary of `text`.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`, joining a UTF-16
    /// surrogate pair `\uD8xx\uDCxx` into one char, and leaves `pos` on
    /// the escape's last hex digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let escape_at = self.pos - 1;
        let code = self.hex4(self.pos + 1)?;
        self.pos += 4;
        let joined = if (0xD800..0xDC00).contains(&code)
            && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
        {
            let low = self.hex4(self.pos + 3)?;
            if (0xDC00..0xE000).contains(&low) {
                self.pos += 6;
                Some(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
            } else {
                None
            }
        } else {
            Some(code)
        };
        joined
            .and_then(char::from_u32)
            .ok_or_else(|| format!("lone surrogate in \\u escape at byte {escape_at}"))
    }

    /// The four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        let mut code = 0;
        for (i, &b) in hex.iter().enumerate() {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| format!("invalid hex digit in \\u escape at byte {}", at + i))?;
            code = code << 4 | digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "c"}], "d": {}}"#).unwrap();
        let a = v.get("a").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").and_then(|x| x.as_str()), Some("c"));
        assert_eq!(v.get("d"), Some(&Value::Obj(BTreeMap::new())));
    }

    #[test]
    fn parses_string_escapes() {
        let v = parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode é";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn bounds_nesting_depth() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let obj = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&obj).unwrap_err().contains("nesting deeper"));
        // Far past any stack budget: rejected, not a stack overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn joins_surrogate_pairs_and_rejects_lone_surrogates() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
        assert_eq!(
            parse(r#""a\uD834\uDD1Eb""#).unwrap().as_str(),
            Some("a\u{1d11e}b")
        );
        for (doc, at) in [
            (r#""\ud83d""#, 1),
            (r#""\ud83dx""#, 1),
            (r#""\ud83d\u0041""#, 1),
            (r#""x\ude00""#, 2),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!(err, format!("lone surrogate in \\u escape at byte {at}"));
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u00e9\u00C9""#).unwrap().as_str(), Some("éÉ"));
        for (doc, at) in [
            (r#"{"cmd":"ping","x":"\u+041"}"#, 21),
            (r#""\u-041""#, 3),
            (r#""\u 041""#, 3),
            (r#""\u00g1""#, 5),
            (r#""\u004""#, 6),
            (r#""\ud83d\u+e00""#, 9),
            ("\"\\u00\u{e9}\"", 5),
        ] {
            let err = parse(doc).unwrap_err();
            assert_eq!(
                err,
                format!("invalid hex digit in \\u escape at byte {at}"),
                "{doc}"
            );
        }
        assert_eq!(parse(r#""\u004"#).unwrap_err(), "truncated \\u escape");
    }

    #[test]
    fn parses_a_one_mebibyte_string() {
        let unit = "plain ascii, é, 日本, 😀, \"quoted\", back\\slash, \u{1}\n";
        let want = unit.repeat((1 << 20) / unit.len() + 1);
        let doc = format!("[{{\"s\":\"{}\"}}]", escape(&want));
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.as_arr().unwrap()[0].get("s").and_then(Value::as_str),
            Some(&*want)
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse(" { } ").unwrap(), Value::Obj(BTreeMap::new()));
    }
}
