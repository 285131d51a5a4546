//! The workspace's one JSON stack: a value type, a printer, a depth-capped
//! parser and the string escaper — no dependencies, below every other crate.
//!
//! The workspace builds without registry access, so it has no third-party
//! JSON crate. Reports, schedules and online event traces are the
//! cross-process interface of the daemon and the router, the figure binaries
//! emit machine-readable sweeps, and `tsn_telemetry` writes its structured
//! log and chrome traces — all of them need an actual wire format. This crate
//! is that format: a small JSON document model with explicit `Int`/`Float`
//! variants so nanosecond timestamps round-trip exactly (an `f64` mantissa
//! would silently truncate them past 2^53).
//!
//! It sits at the bottom of the workspace so that `tsn_telemetry` (below
//! everything else) and `tsn_net` (which re-exports it as `tsn_net::json`,
//! the path every wire module imports it by) share one parser, one printer
//! and one escaper. Higher layers implement `to_json`/`from_json` pairs on
//! top of it (see `tsn_synthesis::wire`, `tsn_online::wire` and
//! `tsn_telemetry::log`).
//!
//! The parser reads bytes that arrive from the network, so its recursion is
//! bounded: a document nested deeper than [`MAX_DEPTH`] is a typed
//! [`JsonErrorKind::TooDeep`] error, never a stack overflow.
//!
//! Parsing and printing are linear in the length of the text. Both event
//! loops parse every request line on their single loop thread, and a frame
//! may be 16 MiB, so a string costs one scan: the parser copies each run of
//! unescaped bytes between two escapes in one piece, and the escaper writes
//! each run between two escaped characters with one `write_str`.
//!
//! # Example
//!
//! ```
//! use tsn_json::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::from("fig_online")),
//!     ("events", Json::from(42i64)),
//!     ("latencies", Json::Arr(vec![Json::from(1.5), Json::from(2.5)])),
//! ]);
//! let text = doc.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(doc, back);
//! assert_eq!(back.get("events").and_then(Json::as_i64), Some(42));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

/// A JSON document: the usual six value kinds, with numbers split into exact
/// integers and floats.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed without a decimal point and parsed exactly.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs (insertion order is preserved).
    Obj(Vec<(String, Json)>),
}

/// The deepest container nesting [`Json::parse`] accepts. The deepest
/// document the workspace itself emits (a `migrate_in` envelope carrying a
/// session snapshot) nests 9 containers — `wire_malformed.rs` holds every
/// specimen under half of this — so the cap costs no real document anything
/// while keeping the parser's recursion within a few kilobytes of stack.
pub const MAX_DEPTH: usize = 64;

/// The class of a [`JsonError`], for callers that map it onto their own
/// error type without matching on the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text is not well-formed JSON.
    Syntax,
    /// A well-formed document is followed by further characters.
    Trailing,
    /// Containers are nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// The text parsed, but a `from_json` decoder rejected the document
    /// (a missing member, a wrong type, an out-of-range value).
    Decode,
}

/// A parse or decode failure: its class, what went wrong and the byte offset
/// it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// The class of the failure.
    pub kind: JsonErrorKind,
    /// Description of the failure.
    pub what: String,
    /// Byte offset into the input (0 for decode errors).
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// `value` Debug-quoted for an error message: whole when it is at most 64
/// bytes long, else its first 64 bytes (cut back to a char boundary) and its
/// length. Errors are answered on the wire and kept by logs, so what they
/// quote of a request must not grow with it.
pub fn echo(value: &str) -> String {
    const ECHO_BYTES: usize = 64;
    if value.len() <= ECHO_BYTES {
        return format!("{value:?}");
    }
    let mut end = ECHO_BYTES;
    while !value.is_char_boundary(end) {
        end -= 1;
    }
    format!("{:?}… ({} bytes)", &value[..end], value.len())
}

/// Builds a decoder error (shared by every `from_json` in the workspace).
pub fn bad(what: impl Into<String>) -> JsonError {
    JsonError {
        kind: JsonErrorKind::Decode,
        what: what.into(),
        at: 0,
    }
}

/// Reads a required integer member.
///
/// # Errors
///
/// Returns a [`JsonError`] when the member is missing or not an integer.
pub fn get_i64(json: &Json, key: &str) -> Result<i64, JsonError> {
    json.field(key)?
        .as_i64()
        .ok_or_else(|| bad(format!("member {key:?} is not an integer")))
}

/// Reads a required non-negative integer member as `u64`.
///
/// # Errors
///
/// Returns a [`JsonError`] when the member is missing, non-integer or
/// negative.
pub fn get_u64(json: &Json, key: &str) -> Result<u64, JsonError> {
    u64::try_from(get_i64(json, key)?).map_err(|_| bad(format!("member {key:?} is negative")))
}

/// Reads a required non-negative integer member as `usize`.
///
/// # Errors
///
/// Returns a [`JsonError`] when the member is missing, non-integer or
/// negative.
pub fn get_usize(json: &Json, key: &str) -> Result<usize, JsonError> {
    usize::try_from(get_i64(json, key)?).map_err(|_| bad(format!("member {key:?} is negative")))
}

/// Reads a required numeric member as `f64` (integers are widened).
///
/// # Errors
///
/// Returns a [`JsonError`] when the member is missing or not a number.
pub fn get_f64(json: &Json, key: &str) -> Result<f64, JsonError> {
    json.field(key)?
        .as_f64()
        .ok_or_else(|| bad(format!("member {key:?} is not a number")))
}

/// Reads a required string member.
///
/// # Errors
///
/// Returns a [`JsonError`] when the member is missing or not a string.
pub fn get_str<'a>(json: &'a Json, key: &str) -> Result<&'a str, JsonError> {
    json.field(key)?
        .as_str()
        .ok_or_else(|| bad(format!("member {key:?} is not a string")))
}

/// Reads a required Boolean member.
///
/// # Errors
///
/// Returns a [`JsonError`] when the member is missing or not a Boolean.
pub fn get_bool(json: &Json, key: &str) -> Result<bool, JsonError> {
    json.field(key)?
        .as_bool()
        .ok_or_else(|| bad(format!("member {key:?} is not a boolean")))
}

/// Reads a required array member.
///
/// # Errors
///
/// Returns a [`JsonError`] when the member is missing or not an array.
pub fn get_arr<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], JsonError> {
    json.field(key)?
        .as_arr()
        .ok_or_else(|| bad(format!("member {key:?} is not an array")))
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value of an object member, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`get`](Json::get) but returns an error naming the missing key,
    /// for use in `from_json` decoders.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| bad(format!("missing object member {key:?}")))
    }

    /// The value of an optional object member: `None` when the member is
    /// absent or `null` (the two spell "not given" identically on the wire).
    pub fn opt(&self, key: &str) -> Option<&Json> {
        self.get(key).filter(|value| **value != Json::Null)
    }

    /// An optional integer member (see [`opt`](Json::opt)).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the member is present but not an integer.
    pub fn opt_i64(&self, key: &str) -> Result<Option<i64>, JsonError> {
        self.opt(key).map(|_| get_i64(self, key)).transpose()
    }

    /// An optional non-negative integer member (see [`opt`](Json::opt)).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the member is present but not a
    /// non-negative integer.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, JsonError> {
        self.opt(key).map(|_| get_u64(self, key)).transpose()
    }

    /// The integer value, if this is an `Int` (floats are not coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as a float (`Int` is widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The Boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses a JSON document from text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem;
    /// nesting past [`MAX_DEPTH`] is [`JsonErrorKind::TooDeep`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(JsonError {
                kind: JsonErrorKind::Trailing,
                what: "trailing characters after the document".to_string(),
                at: pos,
            });
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Float(v) => {
                if v.is_finite() {
                    // Guarantee a float-shaped token so parsing restores the
                    // Float variant (and `v.fract() == 0.0` values survive).
                    let s = format!("{v}");
                    if s.contains(['.', 'e', 'E']) {
                        write!(f, "{s}")
                    } else {
                        write!(f, "{s}.0")
                    }
                } else {
                    // JSON has no NaN/Infinity; null is the standard fallback.
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_json_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_json_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Writes `s` as a complete JSON string token (surrounding quotes included),
/// escaping quotes, backslashes and every control character below U+0020.
///
/// This is the single escaping routine of the workspace: [`Json`]'s printer
/// uses it, and any code that hand-emits JSON text (log lines, wire
/// envelopes) must route string emission through it (or [`json_escape`])
/// rather than interpolating raw strings into a format template.
///
/// # Errors
///
/// Propagates errors of the underlying writer.
pub fn write_json_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs escaping is ASCII, and an ASCII byte is always a
    // char boundary, so the text between two of them goes out in one piece.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match short {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Returns `s` as a complete JSON string token (see [`write_json_escaped`]).
///
/// # Example
///
/// ```
/// use tsn_json::json_escape;
///
/// assert_eq!(json_escape("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
/// ```
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_escaped(&mut out, s).expect("writing to a String cannot fail");
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn error(what: impl Into<String>, at: usize) -> JsonError {
    JsonError {
        kind: JsonErrorKind::Syntax,
        what: what.into(),
        at,
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(error(format!("expected {:?}", byte as char), *pos))
    }
}

/// Parses one value; `depth` is the number of containers already open
/// around it.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(error("unexpected end of input", *pos)),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(JsonError {
            kind: JsonErrorKind::TooDeep,
            what: format!("nesting deeper than {MAX_DEPTH} containers"),
            at: *pos,
        }),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(error("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(error("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(error(format!("expected {word:?}"), *pos))
    }
}

/// Parses one string token. `text[*pos..]` must start on a char boundary.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote, backslash or control
        // character in one piece. All three are ASCII, so the run ends on a
        // char boundary; every escape below consumes ASCII only, so the next
        // run starts on one too.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(bytes.len() - *pos);
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(error("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // JSON admits U+0000–U+001F only escaped.
            Some(&b) if b < 0x20 => return Err(error("control character in string", *pos)),
            Some(_) => {
                // The run stopped at a backslash.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let high = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&high) {
                            // High surrogate: JSON encodes astral characters
                            // as a \uD800-\uDBFF + \uDC00-\uDFFF pair. An
                            // unpaired surrogate decodes to U+FFFD.
                            let paired = bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u');
                            let low = if paired {
                                hex4(bytes, *pos + 3)
                                    .ok()
                                    .filter(|c| (0xDC00..0xE000).contains(c))
                            } else {
                                None
                            };
                            match low {
                                Some(low) => {
                                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                    *pos += 6;
                                }
                                None => out.push('\u{fffd}'),
                            }
                        } else {
                            // Low surrogates cannot start a pair and fall to
                            // U+FFFD through the from_u32 conversion.
                            out.push(char::from_u32(high).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err(error("invalid escape", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

/// Reads four hex digits starting at `at` (the payload of a `\u` escape).
fn hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| error("truncated \\u escape", at))?;
    // Exactly four ASCII hex digits: `u32::from_str_radix` would also take
    // a leading `+`.
    hex.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| error("invalid \\u escape", at))?;
        Ok(code << 4 | digit)
    })
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| error("bad number", start))?;
    if text.is_empty() || text == "-" {
        return Err(error("expected a value", start));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| error(format!("invalid float {text:?}"), start))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| error(format!("integer out of range {text:?}"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-40_000_000),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Float(1.5),
            Json::Float(-0.25),
            Json::Float(3.0),
            Json::Str("hello \"world\"\n\t\\".to_string()),
            Json::Str("unicode: åäö ↦".to_string()),
        ] {
            let text = doc.to_string();
            assert_eq!(Json::parse(&text).unwrap(), doc, "text: {text}");
        }
    }

    #[test]
    fn integers_past_f64_precision_survive() {
        let big = Json::Int(9_007_199_254_740_993); // 2^53 + 1
        let back = Json::parse(&big.to_string()).unwrap();
        assert_eq!(back.as_i64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn whole_floats_stay_floats() {
        let doc = Json::Float(40.0);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn containers_round_trip() {
        let doc = Json::obj([
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(Vec::<(String, Json)>::new())),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("k", Json::Int(1))]),
                    Json::Null,
                    Json::Arr(vec![Json::Bool(false)]),
                ]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 1, "b": [true, 2.5], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_i64), Some(1));
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.0));
        let arr = doc.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        assert!(doc.get("missing").is_none());
        assert!(doc.field("missing").is_err());
        assert!(doc.field("a").is_ok());
    }

    #[test]
    fn parse_errors_carry_positions() {
        for bad in ["", "{", "[1,", "tru", "\"abc", "1 2", "{\"a\" 1}", "nul"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.what.is_empty(), "input {bad:?}");
        }
        assert!(Json::parse("99999999999999999999999").is_err());
    }

    #[test]
    fn errors_are_classified() {
        for (text, kind) in [
            ("", JsonErrorKind::Syntax),
            ("[1,", JsonErrorKind::Syntax),
            ("{\"a\" 1}", JsonErrorKind::Syntax),
            ("1 2", JsonErrorKind::Trailing),
            ("{} x", JsonErrorKind::Trailing),
        ] {
            assert_eq!(Json::parse(text).unwrap_err().kind, kind, "{text:?}");
        }
        let doc = Json::parse("{}").unwrap();
        assert_eq!(doc.field("a").unwrap_err().kind, JsonErrorKind::Decode);
        assert_eq!(get_i64(&doc, "a").unwrap_err().kind, JsonErrorKind::Decode);
        assert_eq!(bad("x").kind, JsonErrorKind::Decode);
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        // Exactly MAX_DEPTH containers parse; one more is a typed error at
        // the offending bracket, for arrays, objects and mixtures of both.
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        for text in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            format!("{{\"a\":{}}}", arrays(MAX_DEPTH)),
        ] {
            let err = Json::parse(&text).unwrap_err();
            assert_eq!(err.kind, JsonErrorKind::TooDeep, "{text}");
            assert!(matches!(text.as_bytes()[err.at], b'[' | b'{'));
        }
        // Unclosed bombs far past any thread's stack are the same error.
        for bomb in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            assert_eq!(Json::parse(&bomb).unwrap_err().kind, JsonErrorKind::TooDeep);
        }
    }

    #[test]
    fn optional_members_are_absent_or_null() {
        let doc = Json::parse(r#"{"n": 7, "z": null, "s": "x", "neg": -1}"#).unwrap();
        assert_eq!(doc.opt("n"), Some(&Json::Int(7)));
        assert_eq!(doc.opt("z"), None);
        assert_eq!(doc.opt("absent"), None);
        assert_eq!(doc.opt_i64("n"), Ok(Some(7)));
        assert_eq!(doc.opt_i64("z"), Ok(None));
        assert_eq!(doc.opt_i64("absent"), Ok(None));
        assert_eq!(doc.opt_i64("neg"), Ok(Some(-1)));
        assert_eq!(doc.opt_u64("n"), Ok(Some(7)));
        assert_eq!(doc.opt_u64("absent"), Ok(None));
        assert!(doc.opt_i64("s").is_err());
        assert!(doc.opt_u64("s").is_err());
        assert!(doc.opt_u64("neg").is_err());
        assert_eq!(Json::Int(1).opt("n"), None);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let doc = Json::parse(" \n{ \"a\" : [ 1 , 2 ] , \"b\" : null }\t").unwrap();
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn nonfinite_floats_degrade_to_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn hostile_strings_round_trip() {
        // Every control character, quotes, backslashes, backslash-lookalike
        // sequences and astral characters survive print -> parse exactly.
        let mut all_controls = String::new();
        for c in 0u32..0x20 {
            all_controls.push(char::from_u32(c).unwrap());
        }
        for hostile in [
            all_controls.as_str(),
            "\" onload=\"alert(1)",
            "back\\slash \\n not a newline",
            "\\u0041 literal, not an escape",
            "newline\nreturn\rtab\tquote\"backslash\\",
            "astral: \u{1F600} \u{10FFFF}",
            "nul byte: \u{0} end",
            "{\"looks\":\"like json\"}",
            "trailing backslash \\",
        ] {
            let doc = Json::Str(hostile.to_string());
            let text = doc.to_string();
            assert!(!text.contains('\n'), "newline leaked into one-line wire");
            assert_eq!(Json::parse(&text).unwrap(), doc, "text: {text}");
        }
    }

    #[test]
    fn json_escape_matches_the_printer() {
        for s in ["plain", "quo\"te", "b\\s", "ctl\u{1}\u{1f}", "nl\n"] {
            assert_eq!(json_escape(s), Json::Str(s.to_string()).to_string());
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        // A surrogate-pair escape decodes to the astral scalar and re-prints
        // as literal UTF-8.
        let escaped = "\"\\uD83D\\uDE00\"";
        let doc = Json::parse(escaped).unwrap();
        assert_eq!(doc.as_str(), Some("\u{1F600}"));
        // Unpaired or malformed surrogates degrade to U+FFFD, never panic.
        assert_eq!(
            Json::parse(r#""\uD83D""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        assert_eq!(
            Json::parse(r#""\uD83Dx""#).unwrap().as_str(),
            Some("\u{fffd}x")
        );
        assert_eq!(
            Json::parse(r#""\uDE00""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        assert_eq!(
            Json::parse(r#""\uD83DA""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
        assert!(Json::parse(r#""\uD83"#).is_err());
    }

    /// The escaper as it was before it wrote runs: one `write_char` per
    /// character. The run-wise [`write_json_escaped`] must stay
    /// byte-identical to it.
    fn escape_charwise(s: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// SplitMix64: a seeded stream for the random-string tests (this crate
    /// has no dependencies, `rand` included).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }
    }

    /// Characters the escaper treats differently: quotes, backslashes,
    /// every control character, plain ASCII, DEL, and one- to four-byte
    /// UTF-8 at the edges of each width.
    fn alphabet() -> Vec<char> {
        let mut chars: Vec<char> = (0u32..0x20).filter_map(char::from_u32).collect();
        chars.extend([
            '"',
            '\\',
            '/',
            'a',
            'Z',
            '0',
            ' ',
            '\u{7f}',
            '\u{80}',
            'é',
            '\u{7ff}',
            '\u{800}',
            '↦',
            '\u{fffd}',
            '\u{ffff}',
            '\u{10000}',
            '\u{1F600}',
            '\u{10FFFF}',
        ]);
        chars
    }

    fn random_string(rng: &mut Rng, chars: &[char]) -> String {
        let len = rng.below(40);
        (0..len).map(|_| *rng.pick(chars)).collect()
    }

    #[test]
    fn run_wise_escaper_matches_the_charwise_reference() {
        let chars = alphabet();
        // Escapes at both ends of a run, at both ends of the string, next
        // to each other and next to multibyte characters.
        let mut cases: Vec<String> = [
            "",
            "\"",
            "\\",
            "\"plain\"",
            "\\\\\"\"",
            "é\n",
            "\n\u{1F600}",
            "\u{1F600}\u{0}\u{1F600}",
            "\u{1f}\u{20}\u{7f}",
            "run\tof\rescapes\u{8}\u{c}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cases.push(chars.iter().collect());
        let mut rng = Rng(0x5EED);
        cases.extend((0..5_000).map(|_| random_string(&mut rng, &chars)));
        for s in &cases {
            let expected = escape_charwise(s);
            assert_eq!(json_escape(s), expected, "{s:?}");
            assert_eq!(Json::Str(s.clone()).to_string(), expected, "{s:?}");
            assert_eq!(
                Json::obj([(s.as_str(), Json::Null)]).to_string(),
                format!("{{{expected}:null}}"),
                "{s:?} as a key"
            );
        }
    }

    /// One escaped JSON string token built piece by piece, with the string
    /// it must decode to.
    fn random_escaped(rng: &mut Rng, chars: &[char]) -> (String, String) {
        let mut text = String::from('"');
        let mut decoded = String::new();
        for _ in 0..rng.below(24) {
            match rng.below(7) {
                // A raw character. The quote and the backslash take a
                // backslash; control characters, which the parser refuses
                // raw, take a `\u` escape.
                0 | 1 => {
                    let c = *rng.pick(chars);
                    if c < ' ' {
                        text.push_str(&format!("\\u{:04x}", u32::from(c)));
                    } else {
                        if c == '"' || c == '\\' {
                            text.push('\\');
                        }
                        text.push(c);
                    }
                    decoded.push(c);
                }
                2 => {
                    let (escape, c) = *rng.pick(&[
                        ("\\\"", '"'),
                        ("\\\\", '\\'),
                        ("\\/", '/'),
                        ("\\n", '\n'),
                        ("\\r", '\r'),
                        ("\\t", '\t'),
                        ("\\b", '\u{8}'),
                        ("\\f", '\u{c}'),
                    ]);
                    text.push_str(escape);
                    decoded.push(c);
                }
                // A `\u` escape of a scalar outside the surrogate range, in
                // either hex case.
                3 => {
                    let code = match rng.below(2) {
                        0 => rng.below(0xD800) as u32,
                        _ => 0xE000 + rng.below(0x2000) as u32,
                    };
                    let hex = format!("{code:04x}");
                    text.push_str("\\u");
                    text.push_str(&if rng.below(2) == 0 {
                        hex
                    } else {
                        hex.to_uppercase()
                    });
                    decoded.push(char::from_u32(code).unwrap());
                }
                // A surrogate pair: one astral scalar.
                4 => {
                    let code = 0x10000 + rng.below(0x10_0000) as u32;
                    let high = 0xD800 + ((code - 0x10000) >> 10);
                    let low = 0xDC00 + ((code - 0x10000) & 0x3FF);
                    text.push_str(&format!("\\u{high:04X}\\u{low:04x}"));
                    decoded.push(char::from_u32(code).unwrap());
                }
                // A lone high surrogate, closed by a character that cannot
                // pair with it (a plain one, or a `\u` escape of one).
                5 => {
                    let high = 0xD800 + rng.below(0x400) as u32;
                    text.push_str(&format!("\\u{high:04x}"));
                    decoded.push('\u{fffd}');
                    if rng.below(2) == 0 {
                        text.push('x');
                        decoded.push('x');
                    } else {
                        text.push_str("\\u0041");
                        decoded.push('A');
                    }
                }
                // A lone low surrogate.
                _ => {
                    let low = 0xDC00 + rng.below(0x400) as u32;
                    text.push_str(&format!("\\u{low:04x}"));
                    decoded.push('\u{fffd}');
                }
            }
        }
        text.push('"');
        (text, decoded)
    }

    #[test]
    fn escaped_strings_decode_and_round_trip() {
        let chars = alphabet();
        let mut cases = vec![
            (r#""😀""#.to_string(), "\u{1F600}".to_string()),
            (r#""\uD83D""#.to_string(), "\u{fffd}".to_string()),
            (
                r#""\uDE00\uD83D""#.to_string(),
                "\u{fffd}\u{fffd}".to_string(),
            ),
            (r#""a😀b""#.to_string(), "a\u{1F600}b".to_string()),
        ];
        let mut rng = Rng(0xE5C);
        cases.extend((0..5_000).map(|_| random_escaped(&mut rng, &chars)));
        for (text, decoded) in &cases {
            // parse -> print -> parse: the decoded string survives, and the
            // printed form is a fixed point.
            let doc = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(doc.as_str(), Some(decoded.as_str()), "{text}");
            let printed = doc.to_string();
            assert_eq!(printed, escape_charwise(decoded), "{text}");
            let again = Json::parse(&printed).unwrap();
            assert_eq!(again, doc, "{printed}");
            assert_eq!(again.to_string(), printed);
        }
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        for (text, at) in [
            (r#""abc"#, 4),
            ("\"é↦", 6),
            (r#""ab\q""#, 4),
            (r#""ab\"#, 4),
            (r#""ab\u12"#, 5),
            (r#""ab\u12g4""#, 5),
            (r#""é\u00"#, 5),
            // Four hex digits and nothing else: `u32::from_str_radix` takes
            // a leading sign, and `\u+041` used to parse as "A".
            (r#""ab\u+041""#, 5),
            (r#""ab\u-041""#, 5),
            (r#""ab\u 041""#, 5),
            (r#""\uD83D\u+DE00""#, 9),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!((err.kind, err.at), (JsonErrorKind::Syntax, at), "{text}");
        }
    }

    #[test]
    fn echo_quotes_at_most_64_bytes() {
        assert_eq!(echo("abc"), r#""abc""#);
        assert_eq!(echo(&"x".repeat(64)), format!("{:?}", "x".repeat(64)));
        let long = "é".repeat(40);
        assert_eq!(echo(&long), format!("{:?}… (80 bytes)", "é".repeat(32)));
        // Byte 64 falls inside a character: the cut moves back to 63.
        let odd = format!("a{long}");
        let kept = format!("a{}", "é".repeat(31));
        assert_eq!(echo(&odd), format!("{kept:?}… (81 bytes)"));
    }

    #[test]
    fn raw_control_characters_are_refused() {
        for code in 0..0x20u32 {
            let c = char::from_u32(code).unwrap();
            let text = format!("\"ab{c}cd\"");
            let err = Json::parse(&text).unwrap_err();
            assert_eq!((err.kind, err.at), (JsonErrorKind::Syntax, 3), "{code:#x}");
            // Escaped, the same character is fine.
            let escaped = format!("\"ab{}cd\"", json_escape(&c.to_string()).trim_matches('"'));
            let doc = Json::parse(&escaped).unwrap();
            assert_eq!(doc.as_str(), Some(format!("ab{c}cd").as_str()), "{code:#x}");
        }
        // Unicode's other control characters need no escape.
        assert_eq!(
            Json::parse("\"\u{7f}\u{85}\"").unwrap().as_str(),
            Some("\u{7f}\u{85}")
        );
    }

    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        // Parsing used to re-validate the rest of the input once per
        // character: 7.5 s for this document even in a release build.
        let content = "abcdeé↦\u{1F600}\\\"".repeat(1 << 16);
        assert_eq!(content.len(), 1 << 20);
        let text = json_escape(&content);
        let started = std::time::Instant::now();
        let doc = Json::parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(doc.as_str(), Some(content.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "a {} B string took {elapsed:?} to parse",
            text.len()
        );
    }

    #[test]
    fn typed_getters_report_missing_members() {
        let doc = Json::parse(r#"{"n": 1, "s": "x", "b": true, "a": []}"#).unwrap();
        assert_eq!(get_i64(&doc, "n").unwrap(), 1);
        assert_eq!(get_u64(&doc, "n").unwrap(), 1);
        assert_eq!(get_usize(&doc, "n").unwrap(), 1);
        assert_eq!(get_f64(&doc, "n").unwrap(), 1.0);
        assert_eq!(get_str(&doc, "s").unwrap(), "x");
        assert!(get_bool(&doc, "b").unwrap());
        assert!(get_arr(&doc, "a").unwrap().is_empty());
        for key in ["nope", "s"] {
            assert!(get_i64(&doc, key).is_err());
        }
        assert!(get_u64(&Json::obj([("n", Json::Int(-1))]), "n").is_err());
        assert!(get_str(&doc, "n").is_err());
        assert!(get_bool(&doc, "n").is_err());
        assert!(get_arr(&doc, "n").is_err());
    }
}
