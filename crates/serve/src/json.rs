//! A minimal, allocation-bounded JSON reader for untrusted request
//! payloads.
//!
//! The workspace carries no serde (no crates.io access), and every
//! other JSON producer here hand-formats its output — but the server
//! must also *parse* JSON that a hostile client controls. This module
//! is that parser: recursive descent over a byte slice with
//!
//! - a hard nesting-depth cap ([`MAX_DEPTH`]) so a `[[[[…` bomb cannot
//!   blow the stack,
//! - allocations linear in the input (which framing already caps at
//!   [`crate::frame::MAX_FRAME`] bytes),
//! - numbers kept as their raw text — `as_u64` re-parses the digits,
//!   so a 64-bit index never loses precision through an `f64`,
//! - and no panics on any input (pinned by the fuzz suite).

/// Maximum container nesting depth accepted by [`Json::parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys keep insertion order; duplicate
/// keys are retained, [`Json::get`] returns the first.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing bytes after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`: digits only, no sign, fraction,
    /// exponent, or leading zeros beyond a lone `0`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => {
                if raw.len() > 1 && raw.starts_with('0') {
                    return None;
                }
                if !raw.bytes().all(|b| b.is_ascii_digit()) {
                    return None;
                }
                raw.parse().ok()
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal.
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

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, text: &'static [u8], msg: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the depth cap"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal(b"null", "expected null").map(|_| Json::Null),
            Some(b't') => self
                .literal(b"true", "expected true")
                .map(|_| Json::Bool(true)),
            Some(b'f') => self
                .literal(b"false", "expected false")
                .map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        Ok(Json::Num(raw.to_string()))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("unterminated \\u"))?;
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = (v << 4) | digit as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let e = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.literal(b"\\u", "lone high surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => {
                    // Validate one UTF-8 scalar and copy it through.
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        0x00..=0x7F => 1,
                        0xC2..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF4 => 4,
                        _ => return Err(self.err("invalid UTF-8")),
                    };
                    let chunk = rest
                        .get(..len)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_shape() {
        let v = Json::parse(br#"{"id":7,"cmd":"block","n":8,"start":0,"end":40320}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("block"));
        assert_eq!(v.get("end").and_then(Json::as_u64), Some(40320));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_precision_is_exact() {
        let v = Json::parse(b"18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        // One past u64::MAX parses as a number but not as a u64.
        let v = Json::parse(b"18446744073709551616").unwrap();
        assert_eq!(v.as_u64(), None);
        // Signs, fractions, exponents and leading zeros are not indices.
        for raw in ["-3", "1.5", "1e3", "007"] {
            assert_eq!(Json::parse(raw.as_bytes()).unwrap().as_u64(), None, "{raw}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::parse(br#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }

    #[test]
    fn depth_bomb_is_rejected_cleanly() {
        let bomb: Vec<u8> = std::iter::repeat_n(b'[', 100_000).collect();
        let e = Json::parse(&bomb).unwrap_err();
        assert_eq!(e.msg, "nesting deeper than the depth cap");
        // Depth at the cap still parses.
        let mut ok = vec![b'['; MAX_DEPTH];
        ok.push(b'1');
        ok.extend(std::iter::repeat_n(b']', MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn malformed_documents_error_with_positions() {
        for bad in [
            &b"{"[..],
            b"{\"a\"}",
            b"[1,]",
            b"\"unterminated",
            b"nul",
            b"1 2",
            b"{\"a\":}",
            b"\x80",
            b"\"\x80\"",
            b"\"\\ud800\"",
            b"\"\\q\"",
            b"",
            b"  ",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.pos <= bad.len(), "{bad:?}: {e}");
        }
        // "01" parses leniently as a number but is rejected as an
        // index — leading zeros never smuggle past as_u64.
        assert_eq!(Json::parse(b"01").unwrap().as_u64(), None);
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first() {
        let v = Json::parse(br#"{"n":4,"n":9}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
    }
}
