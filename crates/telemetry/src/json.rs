//! A minimal, dependency-free JSON value with a writer, a strict
//! recursive-descent parser, and the typed member reader every wire
//! format decodes through (DESIGN.md §9.1: one writer, one reader).
//!
//! The observability layer serialises [`crate::TraceEvent`]s as JSONL
//! (one object per line). The offline build cannot pull `serde`, and the
//! schema is small and flat, so a hand-rolled value type is both simpler
//! and faster to compile. Only the subset of JSON the trace schema needs
//! is produced, but the parser accepts any well-formed JSON document.

use std::fmt::{self, Write as _};

/// A parsed JSON value. Object member order is preserved so encode →
/// parse → encode is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2⁵³ round-trip
    /// exactly, far beyond any epoch counter this crate emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered list of `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a member of an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a `u64` written by [`JsonSink::hex16`]: a string that
    /// `u64::from_str_radix(_, 16)` accepts (hex digits of either case,
    /// after an optional `+`, whose value fits a `u64`).
    pub fn as_hex_u64(&self) -> Option<u64> {
        self.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// Containers may nest at most [`MAX_DEPTH`] levels; deeper documents
    /// are rejected with a parse error rather than recursing without
    /// bound (a `[[[[…` bomb would otherwise overflow the stack).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// The typed member reader every wire format decodes through: each
/// method looks `key` up in an object and checks its type, and a missing
/// or ill-typed member is one [`FieldError`] naming both. The rules are
/// the `as_*` accessors' — in particular an integer is a non-negative
/// integral number no larger than 2⁵³ that fits the requested width.
impl Json {
    fn typed<'a, T>(
        &'a self,
        key: &str,
        expected: &'static str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, FieldError> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| FieldError::new(key, expected))
    }

    /// The member `key`, of any type.
    pub fn member(&self, key: &str) -> Result<&Json, FieldError> {
        self.typed(key, "value", Some)
    }

    /// An unsigned integer member, in any width `u64` converts into.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, FieldError> {
        self.typed(key, std::any::type_name::<T>(), |v| {
            v.as_u64().and_then(|n| T::try_from(n).ok())
        })
    }

    /// A `u64` member written by [`JsonSink::hex16`] (see
    /// [`Json::as_hex_u64`]).
    pub fn hex_u64(&self, key: &str) -> Result<u64, FieldError> {
        self.typed(key, "hex u64", Json::as_hex_u64)
    }

    /// An `f64` member travelling as the hex of its bit pattern.
    pub fn hex_f64(&self, key: &str) -> Result<f64, FieldError> {
        self.typed(key, "hex f64 bits", |v| v.as_hex_u64().map(f64::from_bits))
    }

    /// A string member.
    pub fn string(&self, key: &str) -> Result<&str, FieldError> {
        self.typed(key, "string", Json::as_str)
    }

    /// A bool member.
    pub fn boolean(&self, key: &str) -> Result<bool, FieldError> {
        self.typed(key, "bool", Json::as_bool)
    }

    /// An array member.
    pub fn array(&self, key: &str) -> Result<&[Json], FieldError> {
        self.typed(key, "array", Json::as_arr)
    }

    /// A number member.
    pub fn number(&self, key: &str) -> Result<f64, FieldError> {
        self.typed(key, "number", Json::as_f64)
    }
}

/// A member a decoder needed that is missing or of the wrong type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The member's key (for an array entry, the array's key).
    key: String,
    /// What the decoder expected there (`u16`, `hex u64`, `string`, …).
    expected: &'static str,
}

impl FieldError {
    /// `key` is missing or is not `expected`.
    pub fn new(key: &str, expected: &'static str) -> FieldError {
        FieldError {
            key: key.to_string(),
            expected,
        }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field {:?}: expected {}", self.key, self.expected)
    }
}

impl std::error::Error for FieldError {}

impl Json {
    /// Replays the tree into `sink`, member by member. Rendering
    /// ([`fmt::Display`], hence `to_string`) is this walk into a
    /// [`JsonWriter`], so a tree and a hand-streamed field list that
    /// make the same calls produce the same bytes.
    pub fn emit<S: JsonSink>(&self, sink: &mut S) {
        match self {
            Json::Null => sink.null(),
            Json::Bool(b) => sink.bool(*b),
            Json::Num(x) => sink.num(*x),
            Json::Str(s) => sink.str(s),
            Json::Arr(items) => {
                sink.begin_arr();
                for item in items {
                    item.emit(sink);
                }
                sink.end_arr()
            }
            Json::Obj(members) => {
                sink.begin_obj();
                for (k, v) in members {
                    sink.key(k);
                    v.emit(sink);
                }
                sink.end_obj()
            }
        };
    }

    /// Builds a tree from the calls `fill` makes on a [`JsonTree`] — the
    /// tree-shaped landing place for a field list written once against
    /// [`JsonSink`].
    ///
    /// # Panics
    ///
    /// Panics when `fill` does not emit exactly one complete value.
    pub fn build(fill: impl FnOnce(&mut JsonTree)) -> Json {
        let mut tree = JsonTree::default();
        fill(&mut tree);
        assert!(tree.open.is_empty(), "unclosed JSON container");
        tree.root.expect("no JSON value was emitted")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.emit(&mut JsonWriter::new(&mut text));
        f.write_str(&text)
    }
}

/// A push interface for one JSON value: the calls a struct's field list
/// makes, independent of where they land. [`JsonWriter`] appends the
/// wire text to a `String`; [`JsonTree`] builds a [`Json`]. Callers make
/// well-formed sequences (a `key` before each object member, every
/// `begin_*` closed); the sinks do not validate them.
pub trait JsonSink {
    /// Opens an object.
    fn begin_obj(&mut self) -> &mut Self;
    /// Closes the innermost object.
    fn end_obj(&mut self) -> &mut Self;
    /// Opens an array.
    fn begin_arr(&mut self) -> &mut Self;
    /// Closes the innermost array.
    fn end_arr(&mut self) -> &mut Self;
    /// Names the next value inside an object.
    fn key(&mut self, key: &str) -> &mut Self;
    /// A string value.
    fn str(&mut self, s: &str) -> &mut Self;
    /// A number value (non-finite numbers become `null`).
    fn num(&mut self, x: f64) -> &mut Self;
    /// A boolean value.
    fn bool(&mut self, b: bool) -> &mut Self;
    /// A `null` value.
    fn null(&mut self) -> &mut Self;
    /// A `u64` as a string of exactly sixteen lowercase hex digits —
    /// what `format!("{v:016x}")` produces, exact for the full range.
    fn hex16(&mut self, v: u64) -> &mut Self;
}

/// The one definition of the wire text: an append-only JSON emitter over
/// a caller-owned `String`. It owns comma placement, string escaping and
/// number formatting, and nothing else renders JSON in this workspace's
/// production crates (DESIGN.md §9.1).
///
/// * Strings: a quote, a backslash, and the newline, carriage-return and
///   tab characters get their two-character escapes, other bytes below
///   0x20 become `\u00XX` (lowercase hex), everything else
///   (including 0x7f and multi-byte UTF-8) is copied through unchanged.
/// * Numbers: Rust's shortest round-trip `{x}` for finite values
///   (integers print without a fraction), `null` for NaN and ±∞.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Whether the next key or value must be preceded by a `,`: set by
    /// every completed value, cleared by an opening bracket and by a key.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// Starts one value at the end of `out` (which may already hold
    /// text, e.g. earlier lines).
    pub fn new(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter { out, comma: false }
    }

    /// Writes the separator a value needs and marks one as due after it.
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.value().push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }
}

impl JsonSink for JsonWriter<'_> {
    fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    fn key(&mut self, key: &str) -> &mut Self {
        push_escaped(self.value(), key);
        self.out.push(':');
        self.comma = false;
        self
    }

    fn str(&mut self, s: &str) -> &mut Self {
        push_escaped(self.value(), s);
        self
    }

    fn num(&mut self, x: f64) -> &mut Self {
        let out = self.value();
        // `{x}` prints a non-negative integer up to 2⁵³ as its plain
        // decimal digits; epochs, way counts and CLOS ids are most of
        // the numbers written, so they skip the float formatter. The
        // cast saturates (NaN → 0, ∞ → u64::MAX), so no non-finite or
        // fractional value converts back to itself; `-0.0` does, prints
        // as `-0`, and is kept off this path by its sign.
        let int = x as u64;
        if int as f64 == x && int <= MAX_EXACT_INT && x.is_sign_positive() {
            push_decimal(out, int);
        } else if x.is_finite() {
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{x}");
        } else {
            // JSON has no Infinity/NaN; `null` is the documented
            // encoding (DESIGN.md, Observability).
            out.push_str("null");
        }
        self
    }

    fn bool(&mut self, b: bool) -> &mut Self {
        self.value().push_str(if b { "true" } else { "false" });
        self
    }

    fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    fn hex16(&mut self, v: u64) -> &mut Self {
        let quoted = quoted_hex16(v);
        self.value()
            .push_str(std::str::from_utf8(&quoted).expect("hex digits are ASCII"));
        self
    }
}

/// 2⁵³: every non-negative integer up to here is an exact `f64`.
const MAX_EXACT_INT: u64 = 1 << 53;

/// `v` as sixteen lowercase hex digits between double quotes.
fn quoted_hex16(v: u64) -> [u8; 18] {
    let mut quoted = *b"\"0000000000000000\"";
    for (i, digit) in quoted[1..17].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(v >> (60 - 4 * i) & 0xf) as usize];
    }
    quoted
}

fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Appends `s` quoted and escaped, copying each run of plain bytes in
/// one piece. Every byte that needs an escape is ASCII, so the runs
/// between them start and end on character boundaries.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run_start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

/// The tree-building [`JsonSink`]: the same calls that stream text into a
/// [`JsonWriter`] build a [`Json`] here (see [`Json::build`]).
#[derive(Debug, Default)]
pub struct JsonTree {
    /// Containers still open, outermost first.
    open: Vec<OpenContainer>,
    root: Option<Json>,
}

#[derive(Debug)]
enum OpenContainer {
    /// Members so far, and the key waiting for its value.
    Obj(Vec<(String, Json)>, Option<String>),
    Arr(Vec<Json>),
}

impl JsonTree {
    fn value(&mut self, v: Json) -> &mut Self {
        match self.open.last_mut() {
            Some(OpenContainer::Obj(members, key)) => {
                members.push((key.take().expect("an object member needs a key"), v));
            }
            Some(OpenContainer::Arr(items)) => items.push(v),
            None => self.root = Some(v),
        }
        self
    }
}

impl JsonSink for JsonTree {
    fn begin_obj(&mut self) -> &mut Self {
        self.open.push(OpenContainer::Obj(Vec::new(), None));
        self
    }

    fn end_obj(&mut self) -> &mut Self {
        match self.open.pop() {
            Some(OpenContainer::Obj(members, _)) => self.value(Json::Obj(members)),
            _ => panic!("end_obj without a matching begin_obj"),
        }
    }

    fn begin_arr(&mut self) -> &mut Self {
        self.open.push(OpenContainer::Arr(Vec::new()));
        self
    }

    fn end_arr(&mut self) -> &mut Self {
        match self.open.pop() {
            Some(OpenContainer::Arr(items)) => self.value(Json::Arr(items)),
            _ => panic!("end_arr without a matching begin_arr"),
        }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        match self.open.last_mut() {
            Some(OpenContainer::Obj(_, slot)) => *slot = Some(key.to_string()),
            _ => panic!("key outside an object"),
        }
        self
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.value(Json::Str(s.to_string()))
    }

    fn num(&mut self, x: f64) -> &mut Self {
        self.value(Json::Num(x))
    }

    fn bool(&mut self, b: bool) -> &mut Self {
        self.value(Json::Bool(b))
    }

    fn null(&mut self) -> &mut Self {
        self.value(Json::Null)
    }

    fn hex16(&mut self, v: u64) -> &mut Self {
        let quoted = quoted_hex16(v);
        self.str(std::str::from_utf8(&quoted[1..17]).expect("hex digits are ASCII"))
    }
}

/// A parse failure: byte offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting depth [`Json::parse`] accepts. The trace
/// schema is flat (depth ≤ 3); 128 leaves generous headroom for foreign
/// documents while keeping the recursive-descent parser's stack usage
/// bounded on any platform.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Bounds container recursion: every `object()`/`array()` frame
    /// passes through here first, so a `[[[[…` bomb is rejected with a
    /// parse error instead of overflowing the stack.
    fn enter(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("containers nested deeper than 128 levels"));
        }
        self.depth += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let result = self.object_inner();
        self.depth -= 1;
        result
    }

    fn object_inner(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let result = self.array_inner();
        self.depth -= 1;
        result
    }

    fn array_inner(&mut self) -> Result<Json, JsonError> {
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + lo.checked_sub(0xDC00)
                                            .ok_or_else(|| self.err("invalid low surrogate"))?;
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            cp = cp * 16 + digit;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-1", "3.5", "1e9", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let again = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn object_round_trip_preserves_order_and_values() {
        let v = Json::Obj(vec![
            ("b".into(), Json::Num(2.0)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s".into(), Json::Str("line\n\"quoted\" \\ tab\t".into())),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn float_shortest_form_round_trips() {
        for x in [0.1, 1.0 / 3.0, 2.5e-7, 1.2345678901234567, 9e15] {
            let text = Json::Num(x).to_string();
            let parsed = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed, x, "{text}");
        }
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    /// One field list, both landing places: the text a `JsonWriter`
    /// streams is the rendering of the tree a `JsonTree` builds.
    #[test]
    fn a_field_list_lands_as_the_same_text_or_tree() {
        fn fields<S: JsonSink>(s: &mut S) {
            s.begin_obj();
            s.key("n").num(3.0).key("h").hex16(0xdead_beef);
            s.key("a")
                .begin_arr()
                .null()
                .bool(true)
                .begin_arr()
                .end_arr();
            s.begin_obj().end_obj().end_arr();
            s.key("s").str("x").end_obj();
        }
        let mut text = String::from("kept\n");
        fields(&mut JsonWriter::new(&mut text));
        let expected = r#"{"n":3,"h":"00000000deadbeef","a":[null,true,[],{}],"s":"x"}"#;
        assert_eq!(text, format!("kept\n{expected}"));
        let tree = Json::build(fields);
        assert_eq!(tree.to_string(), expected);
        assert_eq!(Json::parse(expected).unwrap(), tree);
    }

    #[test]
    fn writer_escapes_by_run_and_prints_numbers_by_the_display_rule() {
        let render = |v: Json| v.to_string();
        assert_eq!(
            render(Json::Str("a\"b\\c\nd\re\tf\u{0}g\u{1f}h\u{7f}é😀".into())),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000g\\u001fh\u{7f}é😀\""
        );
        for (x, text) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (-7.0, "-7"),
            (0.1, "0.1"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (9_007_199_254_740_994.0, "9007199254740994"),
            (1e21, "1000000000000000000000"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(render(Json::Num(x)), text);
            assert!(!x.is_finite() || text == format!("{x}"));
        }
        for v in [0, 1, 0xf0, u64::MAX, 0x0123_4567_89ab_cdef] {
            let mut text = String::new();
            JsonWriter::new(&mut text).hex16(v);
            assert_eq!(text, format!("\"{v:016x}\""));
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"abc", "{} extra",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    /// Regression: `copart-check`'s json-depth oracle found that a
    /// `[[[[…` bomb recursed unbounded and overflowed the stack (corpus
    /// entry `json-depth-limit-bomb.case`). Depths at the limit parse;
    /// one past it is a parse error, not a crash.
    #[test]
    fn nesting_depth_is_bounded() {
        let nested = |d: usize| format!("{}0{}", "[".repeat(d), "]".repeat(d));
        let at_limit = nested(MAX_DEPTH);
        assert!(Json::parse(&at_limit).is_ok(), "depth {MAX_DEPTH} parses");
        let over = nested(MAX_DEPTH + 1);
        let err = Json::parse(&over).unwrap_err();
        assert!(err.msg.contains("nested"), "{err}");
        // Far beyond the limit — the pre-fix parser died here.
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
        // Mixed object/array nesting counts every container level.
        let mixed = format!(
            "{}0{}",
            "{\"k\":[".repeat(MAX_DEPTH / 2 + 1),
            "]}".repeat(MAX_DEPTH / 2 + 1)
        );
        assert!(Json::parse(&mixed).is_err());
    }

    /// The member reader, pinned: every accepted input with its value,
    /// every refused one with its error, which names the key.
    #[test]
    fn member_reader_accepts_exactly_the_accessor_rules() {
        let doc = Json::parse(
            r#"{"u8":255,"u8_over":256,"u16":65535,"u16_over":65536,
                "u32":4294967295,"u32_over":4294967296,"exact":9007199254740992,
                "exact_plus_1":9007199254740993,"next":9007199254740994,
                "neg":-1,"frac":1.5,"huge":1e300,"quoted":"7",
                "hex":"00000000000000ff","short":"ff","upper":"FF","plus":"+f",
                "zeros":"000000000000000000ff","empty":"","nonhex":"xyz",
                "long":"10000000000000000","one":"3ff0000000000000",
                "s":"x","b":true,"a":[1],"null":null}"#,
        )
        .unwrap();
        let read = |method: &str, key: &str| -> Result<String, FieldError> {
            Ok(match method {
                "u8" => doc.uint::<u8>(key)?.to_string(),
                "u16" => doc.uint::<u16>(key)?.to_string(),
                "u32" => doc.uint::<u32>(key)?.to_string(),
                "u64" => doc.uint::<u64>(key)?.to_string(),
                "hex_u64" => doc.hex_u64(key)?.to_string(),
                "hex_f64" => doc.hex_f64(key)?.to_string(),
                "string" => doc.string(key)?.to_string(),
                "boolean" => doc.boolean(key)?.to_string(),
                "array" => doc.array(key)?.len().to_string(),
                "number" => doc.number(key)?.to_string(),
                "member" => doc.member(key)?.to_string(),
                _ => Json::Null.string(key)?.to_string(),
            })
        };
        // `Ok` holds the value read, `Err` the expected type named.
        let cases: &[(&str, &str, Result<&str, &str>)] = &[
            ("u8", "u8", Ok("255")),
            ("u8", "u8_over", Err("u8")),
            ("u16", "u16", Ok("65535")),
            ("u16", "u16_over", Err("u16")),
            ("u32", "u32", Ok("4294967295")),
            ("u32", "u32_over", Err("u32")),
            ("u64", "exact", Ok("9007199254740992")),
            // The parser rounds 2⁵³+1 to the nearest f64, 2⁵³; the reader
            // sees (and accepts) that. The next f64 up is refused.
            ("u64", "exact_plus_1", Ok("9007199254740992")),
            ("u64", "next", Err("u64")),
            ("u64", "neg", Err("u64")),
            ("u64", "frac", Err("u64")),
            ("u64", "huge", Err("u64")),
            ("u64", "quoted", Err("u64")),
            ("u64", "absent", Err("u64")),
            ("hex_u64", "hex", Ok("255")),
            ("hex_u64", "short", Ok("255")),
            ("hex_u64", "upper", Ok("255")),
            ("hex_u64", "plus", Ok("15")),
            ("hex_u64", "zeros", Ok("255")),
            ("hex_u64", "empty", Err("hex u64")),
            ("hex_u64", "nonhex", Err("hex u64")),
            ("hex_u64", "long", Err("hex u64")),
            ("hex_u64", "u8", Err("hex u64")),
            ("hex_f64", "one", Ok("1")),
            ("hex_f64", "nonhex", Err("hex f64 bits")),
            ("string", "s", Ok("x")),
            ("string", "u8", Err("string")),
            ("boolean", "b", Ok("true")),
            ("boolean", "s", Err("bool")),
            ("array", "a", Ok("1")),
            ("array", "null", Err("array")),
            ("number", "frac", Ok("1.5")),
            ("number", "null", Err("number")),
            ("member", "null", Ok("null")),
            ("member", "absent", Err("value")),
            ("on a non-object", "s", Err("string")),
        ];
        for (method, key, want) in cases {
            let got = read(method, key).map_err(|e| e.to_string());
            let want = want
                .map(str::to_string)
                .map_err(|expected| format!("field \"{key}\": expected {expected}"));
            assert_eq!(got, want, "{method}({key:?})");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"n\":3,\"s\":\"x\",\"b\":false,\"a\":[1]}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }
}
