//! Dependency-free JSON support: a streaming writer used by every exporter
//! and a small recursive-descent parser used by tests and CI validation.
//! The workspace is offline (vendored crates only, no serde), so both are
//! hand-rolled and deliberately minimal.

use std::fmt::Write as _;

/// Streaming JSON writer producing compact (single-line) output.
///
/// Keys are passed as `Some(name)` inside objects and `None` inside arrays;
/// commas and separators are inserted automatically.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it holds an element.
    stack: Vec<bool>,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    fn pre(&mut self, key: Option<&str>) {
        if let Some(has_elem) = self.stack.last_mut() {
            if *has_elem {
                self.out.push(',');
            }
            *has_elem = true;
        }
        if let Some(k) = key {
            write_escaped(&mut self.out, k);
            self.out.push(':');
        }
    }

    pub fn begin_obj(&mut self, key: Option<&str>) {
        self.pre(key);
        self.out.push('{');
        self.stack.push(false);
    }

    pub fn end_obj(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    pub fn begin_arr(&mut self, key: Option<&str>) {
        self.pre(key);
        self.out.push('[');
        self.stack.push(false);
    }

    pub fn end_arr(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    pub fn str_(&mut self, key: Option<&str>, v: &str) {
        self.pre(key);
        write_escaped(&mut self.out, v);
    }

    pub fn f64(&mut self, key: Option<&str>, v: f64) {
        self.pre(key);
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            // JSON has no NaN/Inf; null is the conventional stand-in.
            self.out.push_str("null");
        }
    }

    pub fn u64(&mut self, key: Option<&str>, v: u64) {
        self.pre(key);
        let _ = write!(self.out, "{v}");
    }

    pub fn i64(&mut self, key: Option<&str>, v: i64) {
        self.pre(key);
        let _ = write!(self.out, "{v}");
    }

    pub fn bool_(&mut self, key: Option<&str>, v: bool) {
        self.pre(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Splice a pre-rendered JSON fragment in as one element.
    pub fn raw(&mut self, key: Option<&str>, fragment: &str) {
        self.pre(key);
        self.out.push_str(fragment);
    }

    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
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

/// Parsed JSON value. Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. Every
/// document this repository writes nests fewer than 10 levels; the
/// bound keeps a hostile body from recursing the parser off the end of
/// its thread's stack.
const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// An array or object one level down, refused when `MAX_DEPTH`
    /// levels are already open.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            let at = self.pos;
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {at}"
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut elems = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(elems));
        }
        loop {
            self.skip_ws();
            elems.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(elems));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: interop clients (notably
                            // python's json.dumps with the default
                            // ensure_ascii=True) encode astral characters
                            // as \uD800-\uDBFF + \uDC00-\uDFFF pairs.
                            let code = if (0xd800..0xdc00).contains(&code)
                                && self.bytes.get(self.pos) == Some(&b'\\')
                                && self.bytes.get(self.pos + 1) == Some(&b'u')
                            {
                                let mark = self.pos;
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if (0xdc00..0xe000).contains(&lo) {
                                    0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00)
                                } else {
                                    // Not a low surrogate: rewind so the
                                    // second escape decodes on its own.
                                    self.pos = mark;
                                    code
                                }
                            } else {
                                code
                            };
                            // Lone surrogates have no scalar value; map
                            // them to U+FFFD rather than failing the doc.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged since the input is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// Exactly four ASCII hex digits of a `\u` escape (the `\u` itself
    /// already consumed): no sign, unlike `u32::from_str_radix`.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let code = hex
            .iter()
            .try_fold(0, |code, &b| Some(16 * code + (b as char).to_digit(16)?))
            .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    /// RFC 8259's number: `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`,
    /// refused unless its value is finite.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let invalid = || format!("invalid number at byte {start}");
        self.eat(|b| b == b'-');
        if !self.eat(|b| b == b'0') && self.digits() == 0 {
            return Err(invalid());
        }
        if self.eat(|b| b == b'.') && self.digits() == 0 {
            return Err(invalid());
        }
        if self.eat(|b| matches!(b, b'e' | b'E')) {
            self.eat(|b| matches!(b, b'+' | b'-'));
            if self.digits() == 0 {
                return Err(invalid());
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or_else(invalid)
    }

    /// Consume one byte if it matches.
    fn eat(&mut self, want: impl Fn(u8) -> bool) -> bool {
        let hit = self.peek().is_some_and(want);
        self.pos += hit as usize;
        hit
    }

    /// Consume a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.eat(|b| b.is_ascii_digit()) {}
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_roundtrips_through_parser() {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.str_(Some("name"), "al\"pha\n");
        w.f64(Some("x"), -1.5);
        w.f64(Some("nan"), f64::NAN);
        w.u64(Some("n"), 42);
        w.bool_(Some("ok"), true);
        w.begin_arr(Some("xs"));
        w.f64(None, 1.0);
        w.f64(None, 2.0);
        w.end_arr();
        w.begin_obj(Some("inner"));
        w.end_obj();
        w.end_obj();
        let s = w.finish();
        let v = parse(&s).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "al\"pha\n");
        assert_eq!(v.get("x").unwrap().as_f64().unwrap(), -1.5);
        assert_eq!(v.get("nan").unwrap(), &Value::Null);
        assert_eq!(v.get("n").unwrap().as_f64().unwrap(), 42.0);
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("inner").unwrap(), &Value::Obj(vec![]));
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a": [1, {"b": "A\t"}, null, false], "c": 1e-3}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].get("b").unwrap().as_str().unwrap(), "A\t");
        assert_eq!(arr[2], Value::Null);
        assert_eq!(v.get("c").unwrap().as_f64().unwrap(), 1e-3);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn parser_rejects_malformed_strings_and_numbers() {
        // Unterminated string.
        assert!(parse(r#"{"a": "never ends}"#).is_err());
        // Bad escape sequence.
        assert!(parse(r#"{"a": "\q"}"#).is_err());
        // Truncated unicode escape, and one with a sign where a digit
        // belongs.
        assert!(parse(r#"{"a": "\u00"}"#).is_err());
        assert!(parse(r#"{"a": "\u+041"}"#).is_err());
        // Numbers outside RFC 8259's grammar, and ones too large for an
        // f64.
        for bad in [
            "[1.2.3]", "[1e]", "[+1]", "[.5]", "[1.]", "[01]", "[-]", "[1e+]",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert!(parse("[1e999]").is_err());
        assert!(parse("[-1e999]").is_err());
        let ok = parse("[0, -0.5, 10, 1e3, 2E-2, 1.5e+2]").unwrap();
        let xs: Vec<f64> = ok
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(xs, [0.0, -0.5, 10.0, 1e3, 2e-2, 150.0]);
        // Missing value after key, missing colon, trailing comma in object.
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse(r#"{"a": 1,}"#).is_err());
        // Unclosed array at EOF.
        assert!(parse("[1, 2").is_err());
        // Empty input.
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
    }

    #[test]
    fn control_characters_round_trip() {
        // Every C0 control character must escape on write and decode on
        // parse — an HTTP job name with a tab or bell must stay valid JSON.
        let nasty: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.str_(Some("name"), &nasty);
        w.end_obj();
        let s = w.finish();
        assert!(
            s.bytes().all(|b| b >= 0x20),
            "raw control bytes leaked into the document: {s:?}"
        );
        let v = parse(&s).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        // BMP escape.
        let v = parse(r#"{"a": "\u00e9\t"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_str().unwrap(), "\u{e9}\t");
        // Astral plane via surrogate pair (python json.dumps default).
        let v = parse(r#"{"e": "\ud83d\ude80!"}"#).unwrap();
        assert_eq!(v.get("e").unwrap().as_str().unwrap(), "\u{1f680}!");
        // A writer round trip of an astral char parses back equal whether
        // the transport re-encodes it or not.
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.str_(Some("e"), "\u{1f680}");
        w.end_obj();
        assert_eq!(
            parse(&w.finish()).unwrap().get("e").unwrap().as_str(),
            Some("\u{1f680}")
        );
        // Lone surrogates degrade to U+FFFD instead of failing the doc…
        let v = parse(r#"{"x": "\ud800"}"#).unwrap();
        assert_eq!(v.get("x").unwrap().as_str().unwrap(), "\u{fffd}");
        // …including a high surrogate followed by a non-surrogate escape,
        // which must still decode the second escape on its own.
        let v = parse(r#"{"x": "\ud800A"}"#).unwrap();
        assert_eq!(v.get("x").unwrap().as_str().unwrap(), "\u{fffd}A");
        // Truncated pair tail is still an error.
        assert!(parse(r#"{"x": "\ud83d\ud"}"#).is_err());
    }

    /// Nesting past `MAX_DEPTH` is refused at the byte that opens the
    /// level too many, long before the recursion could exhaust a 2 MiB
    /// test thread's stack.
    #[test]
    fn parser_refuses_nesting_past_the_depth_limit() {
        for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
            let ok = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(parse(&ok).is_ok(), "{MAX_DEPTH} levels of {open}");
            let err = parse(&open.repeat(100_000)).unwrap_err();
            let at = MAX_DEPTH * open.len();
            assert_eq!(
                err,
                format!("nesting deeper than {MAX_DEPTH} levels at byte {at}")
            );
        }
    }

    #[test]
    fn parser_errors_carry_byte_offsets() {
        let err = parse(r#"{"a": nope}"#).unwrap_err();
        assert!(err.contains("byte"), "error should locate the fault: {err}");
    }
}
