//! Self-contained JSON support for the exporters: a value model, a
//! recursive-descent parser, a pretty printer, and the [`ToJson`] /
//! [`FromJson`] conversion traits every schema'd artifact implements.
//!
//! The workspace deliberately carries no JSON dependency; the artifact
//! schemas (`dita-obs/v1`, `dita-obs/critpath/v1`) are small and
//! explicit, so hand-written conversions double as schema
//! documentation. Numbers are stored as `f64` (like JSON itself);
//! non-finite values serialize as `null` because JSON has no infinity
//! literal.

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order so serialized
/// artifacts are stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

/// Parse or conversion error, with a byte offset for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    at: Option<usize>,
}

impl Error {
    /// A conversion (non-positional) error.
    pub fn msg(msg: impl Into<String>) -> Error {
        Error {
            msg: msg.into(),
            at: None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "{} at byte {}", self.msg, at),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for JSON operations.
pub type Result<T> = std::result::Result<T, Error>;

impl Value {
    /// Parses a JSON document (exactly one value plus whitespace).
    pub fn parse(s: &str) -> Result<Value> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Pretty-prints with two-space indentation and a trailing newline-free
    /// body (callers append the newline when writing files).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required typed member: error when missing.
    pub fn req<T: FromJson>(&self, key: &str) -> Result<T> {
        match self.get(key) {
            Some(v) => T::from_json(v),
            None => Err(Error::msg(format!("missing field `{key}`"))),
        }
    }

    /// An optional typed member: `None` when missing or `null`.
    pub fn opt<T: FromJson>(&self, key: &str) -> Result<Option<T>> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => T::from_json(v).map(Some),
        }
    }

    /// A defaulting typed member: `T::default()` when missing or `null`
    /// (the `#[serde(default)]` idiom — old artifacts keep parsing as the
    /// schema grows).
    pub fn or_default<T: FromJson + Default>(&self, key: &str) -> Result<T> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(T::default()),
            Some(v) => T::from_json(v),
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's float Display emits the shortest decimal string that parses
    // back to the same bits, so numeric round-trips are lossless. Integral
    // values print without a fractional part (`7`, not `7.0`), matching
    // how the historical artifacts were written.
    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: msg.to_string(),
            at: Some(self.pos),
        }
    }

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

    fn eat(&mut self, b: u8, what: &str) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[', "expected `[`")?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{', "expected `{`")?;
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
            self.eat(b':', "expected `:`")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"', "expected `\"`")?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
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
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Conversion into a [`Value`].
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

/// Conversion from a [`Value`].
pub trait FromJson: Sized {
    /// Parses `self` out of a JSON value.
    fn from_json(v: &Value) -> Result<Self>;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Value> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<bool> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::msg("expected a bool")),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<f64> {
        match v {
            Value::Num(n) => Ok(*n),
            // `null` is how a non-finite value was serialized.
            Value::Null => Ok(0.0),
            _ => Err(Error::msg("expected a number")),
        }
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<$t> {
                match v {
                    Value::Num(n) if *n >= 0.0 => Ok(*n as $t),
                    Value::Num(_) => Err(Error::msg("expected a non-negative integer")),
                    _ => Err(Error::msg("expected a number")),
                }
            }
        }
    )*};
}

int_json!(u32, u64, usize);

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::msg("expected a string")),
        }
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Vec<T>> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => Err(Error::msg("expected an array")),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Option<T>> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl ToJson for (String, String) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![Value::Str(self.0.clone()), Value::Str(self.1.clone())])
    }
}

impl FromJson for (String, String) {
    fn from_json(v: &Value) -> Result<(String, String)> {
        match v {
            Value::Arr(items) if items.len() == 2 => {
                Ok((String::from_json(&items[0])?, String::from_json(&items[1])?))
            }
            _ => Err(Error::msg("expected a two-element string array")),
        }
    }
}

/// Ordered builder for object values, used by every struct's [`ToJson`].
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    /// An empty object builder.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends a field.
    pub fn field(mut self, key: &str, v: &impl ToJson) -> Obj {
        self.0.push((key.to_string(), v.to_json()));
        self
    }

    /// Appends a field only when `cond` holds — the
    /// `skip_serializing_if` idiom that keeps optional schema sections out
    /// of artifacts that don't use them.
    pub fn field_if(self, cond: bool, key: &str, v: &impl ToJson) -> Obj {
        if cond {
            self.field(key, v)
        } else {
            self
        }
    }

    /// Finalizes into a [`Value::Obj`].
    pub fn build(self) -> Value {
        Value::Obj(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = Value::parse(r#"{"a": [1, -2.5, 1e3, true, null], "b": {"c": "x"}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(-2.5),
                Value::Num(1000.0),
                Value::Bool(true),
                Value::Null,
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Str("x".into())));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" slash\\ newline\n tab\t unicode\u{1f}é 𝄞";
        let json = Value::Str(original.to_string()).pretty();
        let back = Value::parse(&json).unwrap();
        assert_eq!(back, Value::Str(original.to_string()));
        // And escaped input parses too, including a surrogate pair.
        let v = Value::parse(r#""a\u0041\ud834\udd1e\n""#).unwrap();
        assert_eq!(v, Value::Str("aA𝄞\n".to_string()));
    }

    #[test]
    fn numbers_round_trip_losslessly() {
        for n in [0.0, 7.0, -3.25, 0.121, 1e-6, 68.27, 124730.0, 2e-6] {
            let json = Value::Num(n).pretty();
            assert_eq!(Value::parse(&json).unwrap(), Value::Num(n), "{json}");
        }
        assert_eq!(Value::Num(7.0).pretty(), "7");
        assert_eq!(Value::Num(f64::INFINITY).pretty(), "null");
    }

    #[test]
    fn pretty_format_is_two_space_indented() {
        let v = Value::Obj(vec![
            ("k".to_string(), Value::Arr(vec![Value::Num(1.0)])),
            ("e".to_string(), Value::Obj(Vec::new())),
        ]);
        assert_eq!(v.pretty(), "{\n  \"k\": [\n    1\n  ],\n  \"e\": {}\n}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\"", ""] {
            assert!(Value::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn field_helpers_apply_defaults() {
        let v = Value::parse(r#"{"present": 3, "nul": null}"#).unwrap();
        assert_eq!(v.req::<u64>("present").unwrap(), 3);
        assert!(v.req::<u64>("absent").is_err());
        assert_eq!(v.opt::<u64>("nul").unwrap(), None);
        assert_eq!(v.opt::<u64>("absent").unwrap(), None);
        assert_eq!(v.or_default::<u64>("absent").unwrap(), 0);
        assert_eq!(v.or_default::<u64>("present").unwrap(), 3);
    }

    #[test]
    fn obj_builder_preserves_order_and_skips() {
        let v = Obj::new()
            .field("b", &1u64)
            .field_if(false, "skipped", &2u64)
            .field("a", &"x")
            .build();
        assert_eq!(v.pretty(), "{\n  \"b\": 1,\n  \"a\": \"x\"\n}");
    }
}
