//! A minimal order-preserving JSON value, writer and reader.
//!
//! The run manifest must be reproducible byte for byte (it is diffed
//! against checked-in goldens), so keys keep their insertion order and the
//! rendering is fully deterministic — no external serialization crate, no
//! hash-map ordering, no locale-dependent formatting.
//!
//! Two renderings exist: [`Json::render`] pretty-prints for manifests and
//! goldens, [`Json::render_compact`] emits a single line for the `hsmd`
//! line-delimited socket protocol. [`Json::parse`] reads either form back
//! (the [`protocol`](crate::protocol) request/response codecs and tests
//! round-trip through it), and every wire decoder reads the parsed
//! object's fields through the crate's typed `Fields` readers.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, sizes, cycles).
    UInt(u64),
    /// A signed integer (exit codes).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an object from `(key, value)` pairs, leaving out the keys
    /// whose value is `None` (a wire type's absent optional fields).
    pub(crate) fn obj_some(pairs: Vec<(&str, Option<Json>)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .filter_map(|(k, v)| Some((k.to_string(), v?)))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an array of unsigned integers.
    pub fn uints(values: impl IntoIterator<Item = u64>) -> Json {
        Json::Arr(values.into_iter().map(Json::UInt).collect())
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one (a non-negative
    /// `Int` also qualifies — the reader cannot know which was written).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, when it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on a single line with no whitespace — one protocol frame.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Parses a JSON document (integers only — the manifest and protocol
    /// never write floats, so none are accepted).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first offending byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Writes the value pretty-printed at depth `indent`, or compact when
    /// `indent` is `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            // Pretty arrays of scalars render inline; nested structures
            // get one element per line.
            Json::Arr(items)
                if indent.is_none()
                    || items
                        .iter()
                        .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))) =>
            {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { ", " } else { "," });
                    }
                    item.write(out, indent);
                }
                out.push(']');
            }
            Json::Arr(items) => write_block(out, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => {
                write_block(out, indent, "{}", pairs.iter().map(|(k, v)| (Some(k), v)));
            }
        }
    }
}

/// Writes an object, or a pretty array of nested values, one entry per
/// line when pretty-printing. `brackets` is the open/close pair.
fn write_block<'j>(
    out: &mut String,
    indent: Option<usize>,
    brackets: &str,
    entries: impl ExactSizeIterator<Item = (Option<&'j String>, &'j Json)>,
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let inner = indent.map(|d| d + 1);
    let empty = entries.len() == 0;
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            pad(out, d);
        }
        if let Some(key) = key {
            write_escaped(out, key);
            out.push_str(if inner.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
    }
    if let (Some(d), false) = (indent, empty) {
        out.push('\n');
        pad(out, d);
    }
    out.push_str(close);
}

/// A JSON parse failure, with the byte offset of the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A missing or mistyped object field, as reported by [`Fields`]: the
/// message names the key and the object it was read from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FieldError {
    /// What was wrong.
    pub(crate) message: String,
}

/// Typed field readers over one JSON object — the decoding step every
/// wire type shares. Each reader looks its key up and checks the value's
/// type, and every failure is a [`FieldError`] naming the key and the
/// object (`what`, e.g. `"row"`). The `opt_*` readers return `None` for
/// a missing key but still reject a present key of the wrong type. A
/// document that is not an object has no keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fields<'a> {
    doc: &'a Json,
    what: &'a str,
}

impl<'a> Fields<'a> {
    /// Reads `doc` as the object `what`.
    pub(crate) fn new(doc: &'a Json, what: &'a str) -> Self {
        Fields { doc, what }
    }

    fn opt<T>(
        &self,
        key: &str,
        expected: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, FieldError> {
        match self.doc.get(key) {
            None => Ok(None),
            Some(value) => read(value).map(Some).ok_or_else(|| FieldError {
                message: format!("{} `{key}` must be {expected}", self.what),
            }),
        }
    }

    /// Turns an `opt_*` reader's `None` into a missing-`key` error.
    pub(crate) fn required<T>(&self, key: &str, value: Option<T>) -> Result<T, FieldError> {
        value.ok_or_else(|| FieldError {
            message: format!("{} missing `{key}`", self.what),
        })
    }

    /// An optional string.
    pub(crate) fn opt_str(&self, key: &str) -> Result<Option<String>, FieldError> {
        self.opt(key, "a string", |v| v.as_str().map(str::to_string))
    }

    /// A required string.
    pub(crate) fn str(&self, key: &str) -> Result<String, FieldError> {
        self.required(key, self.opt_str(key)?)
    }

    /// An optional non-negative integer.
    pub(crate) fn opt_u64(&self, key: &str) -> Result<Option<u64>, FieldError> {
        self.opt(key, "a non-negative integer", Json::as_u64)
    }

    /// A required non-negative integer.
    pub(crate) fn u64(&self, key: &str) -> Result<u64, FieldError> {
        self.required(key, self.opt_u64(key)?)
    }

    /// A required positive integer (core counts).
    pub(crate) fn positive(&self, key: &str) -> Result<usize, FieldError> {
        let read = |v: &Json| v.as_u64().filter(|&n| n > 0).map(|n| n as usize);
        self.required(key, self.opt(key, "a positive integer", read)?)
    }

    /// An optional signed integer.
    pub(crate) fn opt_i64(&self, key: &str) -> Result<Option<i64>, FieldError> {
        self.opt(key, "an integer", Json::as_i64)
    }

    /// An optional boolean.
    pub(crate) fn opt_bool(&self, key: &str) -> Result<Option<bool>, FieldError> {
        self.opt(key, "a boolean", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// An optional array.
    pub(crate) fn opt_arr(&self, key: &str) -> Result<Option<&'a [Json]>, FieldError> {
        self.opt(key, "an array", Json::as_arr)
    }

    /// An optional nested object (handed on to that type's decoder).
    pub(crate) fn opt_obj(&self, key: &str) -> Result<Option<&'a Json>, FieldError> {
        self.opt(key, "an object", |v| matches!(v, Json::Obj(_)).then_some(v))
    }

    /// A required nested object (handed on to that type's decoder).
    pub(crate) fn obj(&self, key: &str) -> Result<&'a Json, FieldError> {
        self.required(key, self.opt_obj(key)?)
    }

    /// An optional label, decoded by `parse` (a `label → value` lookup
    /// such as `OptLevel::parse`); an unknown label is an error naming
    /// `kind`.
    pub(crate) fn opt_label<T>(
        &self,
        key: &str,
        kind: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, FieldError> {
        self.opt(key, "a string", Json::as_str)?
            .map(|label| {
                parse(label).ok_or_else(|| FieldError {
                    message: format!("unknown {kind} `{label}`"),
                })
            })
            .transpose()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // The writer only emits \u for control bytes;
                            // surrogate pairs never appear.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar straight from the input
                    // text (`pos` is always on a char boundary here).
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next());
                    let c = c.ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not part of the manifest/protocol schema"));
        }
        if let Some(stripped) = text.strip_prefix('-') {
            if stripped.is_empty() {
                return Err(self.err("lone '-'"));
            }
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_plainly() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::UInt(42).render(), "42\n");
        assert_eq!(Json::Int(-7).render(), "-7\n");
        assert_eq!(Json::str("hi").render(), "\"hi\"\n");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"\n");
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let j = Json::obj(vec![("zebra", Json::UInt(1)), ("apple", Json::UInt(2))]);
        assert_eq!(j.render(), "{\n  \"zebra\": 1,\n  \"apple\": 2\n}\n");
    }

    #[test]
    fn scalar_arrays_inline_nested_break() {
        assert_eq!(Json::uints([1, 2, 3]).render(), "[1, 2, 3]\n");
        let nested = Json::Arr(vec![Json::obj(vec![("k", Json::UInt(1))])]);
        assert_eq!(nested.render(), "[\n  {\n    \"k\": 1\n  }\n]\n");
    }

    #[test]
    fn get_finds_keys() {
        let j = Json::obj(vec![("a", Json::UInt(1))]);
        assert_eq!(j.get("a"), Some(&Json::UInt(1)));
        assert_eq!(j.get("b"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn compact_rendering_is_one_line() {
        let j = Json::obj(vec![
            ("op", Json::str("sweep")),
            ("rows", Json::uints([1, 2])),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        let line = j.render_compact();
        assert!(!line.contains('\n'));
        assert_eq!(line, r#"{"op":"sweep","rows":[1,2],"nested":{"ok":true}}"#);
    }

    #[test]
    fn parse_round_trips_both_renderings() {
        let j = Json::obj(vec![
            ("name", Json::str("pi/hsm \"quoted\"\n")),
            ("cores", Json::UInt(4)),
            ("exit", Json::Int(-3)),
            ("flags", Json::Arr(vec![Json::Null, Json::Bool(false)])),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        assert_eq!(Json::parse(&j.render()).expect("pretty"), j);
        assert_eq!(Json::parse(&j.render_compact()).expect("compact"), j);
    }

    #[test]
    fn parse_reports_errors_with_offsets() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("1.5").is_err(), "floats are rejected");
        assert!(Json::parse("{} trailing").is_err());
        let err = Json::parse("nulL").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }

    #[test]
    fn parse_preserves_key_order() {
        let j = Json::parse(r#"{"z":1,"a":2}"#).expect("parses");
        assert_eq!(
            j,
            Json::Obj(vec![
                ("z".to_string(), Json::UInt(1)),
                ("a".to_string(), Json::UInt(2)),
            ])
        );
    }

    #[test]
    fn negative_numbers_parse_as_int() {
        assert_eq!(Json::parse("-12").expect("int"), Json::Int(-12));
        assert_eq!(Json::parse("12").expect("uint"), Json::UInt(12));
    }
}
