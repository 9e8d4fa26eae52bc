//! Offline drop-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], and [`from_str`], operating on the
//! stub serde's [`Value`] tree ([`Value`] is re-exported here so callers
//! can parse arbitrary documents, upstream-style).
//!
//! The parser recurses once per array or object level, so [`from_str`]
//! refuses documents nested deeper than [`MAX_DEPTH`] with an [`Error`]
//! instead of overflowing the stack on hostile input.

#![deny(missing_docs)]

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Error from JSON parsing or value conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Self(e.0)
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Deepest array/object nesting [`from_str`] accepts — upstream
/// `serde_json`'s recursion limit.
pub const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // Match serde_json: integral floats render with a trailing `.0`.
        if f == f.trunc() && f.abs() < 1e16 {
            out.push_str(&format!("{f:.1}"));
        } else {
            out.push_str(&format!("{f}"));
        }
    } else {
        out.push_str("null");
    }
}

fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    const STEP: &str = "  ";
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, val, indent + 1);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// Serializes a value as compact JSON.
///
/// # Errors
///
/// Never fails for the value model this stub supports; the `Result`
/// mirrors the upstream signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_compact(&mut out, &value.to_value());
    Ok(out)
}

/// Serializes a value as two-space-indented JSON.
///
/// # Errors
///
/// Never fails for the value model this stub supports.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a value from a JSON string.
///
/// # Errors
///
/// Fails on malformed JSON or a tree that doesn't match `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser::new(s);
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(T::from_value(&value)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Inner(u8);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Mode {
        Fast,
        Slow,
        Custom(f64),
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Demo {
        name: String,
        values: Vec<f64>,
        pair: (i32, String),
        nib: Inner,
        mode: Mode,
        alt: Mode,
        missing: Option<u32>,
    }

    fn demo() -> Demo {
        Demo {
            name: "hello \"world\"\n".into(),
            values: vec![1.0, -2.5, 3e-7],
            pair: (-4, "x".into()),
            nib: Inner(7),
            mode: Mode::Slow,
            alt: Mode::Custom(0.125),
            missing: None,
        }
    }

    #[test]
    fn derive_round_trip_compact() {
        let d = demo();
        let json = to_string(&d).expect("serializes");
        let back: Demo = from_str(&json).expect("parses");
        assert_eq!(back, d);
    }

    #[test]
    fn derive_round_trip_pretty() {
        let d = demo();
        let json = to_string_pretty(&d).expect("serializes");
        assert!(json.contains('\n'));
        let back: Demo = from_str(&json).expect("parses");
        assert_eq!(back, d);
    }

    #[test]
    fn unit_enum_renders_as_string() {
        assert_eq!(to_string(&Mode::Fast).unwrap(), "\"Fast\"");
        assert_eq!(from_str::<Mode>("\"Fast\"").unwrap(), Mode::Fast);
        assert!(from_str::<Mode>("\"Nope\"").is_err());
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(to_string(&Inner(9)).unwrap(), "9");
    }

    #[test]
    fn floats_keep_trailing_zero() {
        assert_eq!(to_string(&vec![2.0f64]).unwrap(), "[2.0]");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "0" + &"}".repeat(n);
        for doc in [arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
            from_str::<Value>(&doc).expect("MAX_DEPTH levels parse");
        }
        for doc in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
        ] {
            let err = from_str::<Value>(&doc).expect_err("too deep");
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(from_str::<Vec<f64>>("[1, 2").is_err());
        assert!(from_str::<Vec<f64>>("[1] junk").is_err());
    }
}
