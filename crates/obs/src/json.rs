//! The one JSON writer and the one JSON reader of the simulator.
//!
//! Every document HORNET-RS emits — `/status`, `/alerts`, `/trace`, the
//! telemetry NDJSON stream and its summary records, trace-dump exports and
//! `SimReport::to_json` — is written through [`object`] and the [`Obj`]
//! builder, so string escaping and number formatting exist once.
//! Members are emitted in call order with no whitespace; brace and bracket
//! balance follows from the closures that scope each container.
//!
//! [`Json`] is the matching reader: a value tree plus a recursive-descent
//! parser for `hornet-dist watch`, `hornet-dist validate-metrics` and the
//! tests. It reads bytes from sockets and files, so nesting is bounded by
//! [`MAX_DEPTH`] rather than by the stack.

use std::fmt::Write as _;

/// Writes one JSON object into `out`; `members` adds its members.
pub fn object(out: &mut String, members: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    members(&mut Obj { out, empty: true });
    out.push('}');
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
fn string(out: &mut String, s: &str) {
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

/// Member writer of one open JSON object.
pub struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// `"key":v` for an unsigned integer.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// `"key":v` for a signed integer.
    pub fn i64(&mut self, key: &str, v: i64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// `"key":v` with `precision` fractional digits; `null` for `None` and
    /// for a value that is not finite (JSON has no NaN or infinity).
    pub fn f64(&mut self, key: &str, v: impl Into<Option<f64>>, precision: usize) -> &mut Self {
        let out = self.key(key);
        match v.into().filter(|v| v.is_finite()) {
            Some(v) => {
                let _ = write!(out, "{v:.precision$}");
            }
            None => out.push_str("null"),
        }
        self
    }

    /// `"key":"v"`, escaped.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        string(self.key(key), v);
        self
    }

    /// `"key":true|false`.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// `"key":null`.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// `"key":{…}`; `members` adds the nested object's members.
    pub fn object(&mut self, key: &str, members: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        object(self.key(key), members);
        self
    }

    /// `"key":[{…},…]`: one object per item, `members` adds its members.
    pub fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut members: impl FnMut(&mut Obj<'_>, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            object(out, |o| members(o, item));
        }
        out.push(']');
        self
    }
}

/// Deepest container nesting [`Json::parse`] accepts. The deepest document
/// the simulator emits nests four containers (`/status`'s per-shard
/// `stall`, a Chrome trace event's `args`); anything deeper is not ours.
pub const MAX_DEPTH: usize = 8;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, or of nesting deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = JsonParser { src: s, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    src: &'a str,
    pos: usize,
}

impl JsonParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// The value at the cursor, inside `depth` enclosing containers.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(depth, b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.seq(depth, b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    p.skip_ws();
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    /// The comma-separated `item`s of the container opening at the cursor,
    /// through its `close` byte, refused once `depth` reaches [`MAX_DEPTH`].
    fn seq(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected ',' or {close:?} at byte {}", self.pos));
                }
            }
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // Both ends sit on ASCII bytes (or the end), so this is a
            // whole number of characters.
            out.push_str(&self.src[start..self.pos]);
            let escape = match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.src.as_bytes().get(self.pos + 1).copied(),
            };
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .src
                        .get(self.pos + 2..self.pos + 6)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    self.pos += 4;
                    char::from_u32(hex).unwrap_or('\u{fffd}')
                }
                _ => return Err("bad escape".into()),
            });
            self.pos += 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_nests_and_formats_numbers() {
        let mut s = String::new();
        object(&mut s, |o| {
            o.u64("n", 7)
                .i64("i", -1)
                .f64("x", 2.0 / 3.0, 2)
                .f64("nan", f64::NAN, 1)
                .f64("none", None, 1)
                .str("s", "a\"b\\c\n\u{1}")
                .bool("t", true)
                .object("o", |_| {})
                .array("a", [1, 0], |o, k| {
                    if k > 0 {
                        o.u64("k", k);
                    }
                });
        });
        assert_eq!(
            s,
            r#"{"n":7,"i":-1,"x":0.67,"nan":null,"none":null,"s":"a\"b\\c\n\u0001","t":true,"o":{},"a":[{"k":1},{}]}"#
        );
        let back = Json::parse(&s).expect("the writer's output parses");
        assert_eq!(back.get("s"), Some(&Json::Str("a\"b\\c\n\u{1}".into())));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_errors() {
        let doc = Json::parse(r#"{"a":[1,2.5,-3],"b":{"c":"x\"y\n"},"d":null,"e":true}"#).unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c"),
            Some(&Json::Str("x\"y\n".into()))
        );
        let utf8 = Json::parse("\"é\\u00e9\\/\"").unwrap();
        assert_eq!(utf8, Json::Str("éé/".into()));
        assert!(Json::parse("\"\\u00\"").is_err());
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(1_000_000)).is_err());
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }
}
