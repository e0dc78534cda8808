//! A minimal JSON reader and string escaper (std only: the workspace builds
//! offline, so no serde). Reads the files this benchmark owns —
//! `BENCHMARK.json`, `anchors.json`, `golden/*.json` and `run --out` results.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects keep sorted keys so every traversal that
/// feeds output is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

impl Value {
    pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// Indented text; a container of scalars only stays on one line, so a
    /// sample list or a metric record reads as one row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => return out.push_str(&num(*n)),
            Value::Str(s) => return out.push_str(&quote(s)),
            Value::Arr(a) => ('[', ']', a.iter().map(|v| (None, v)).collect()),
            Value::Obj(m) => (
                '{',
                '}',
                m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let inline = items.iter().all(|(_, v)| v.is_scalar());
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if inline {
                if i > 0 {
                    out.push(' ');
                }
            } else {
                out.push('\n');
                out.push_str(&" ".repeat(depth + 1));
            }
            if let Some(k) = key {
                out.push_str(&quote(k));
                out.push_str(": ");
            }
            v.render_into(out, depth + 1);
        }
        if !inline && !items.is_empty() {
            out.push('\n');
            out.push_str(&" ".repeat(depth));
        }
        out.push(close);
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            if self.eat("}") {
                return Ok(Value::Obj(map));
            }
            return Err(self.err("expected ',' or '}'"));
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            return Err(self.err("expected ',' or ']'"));
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("invalid utf-8 in string"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Quote and escape `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` with all its digits (Rust's shortest round-trip form);
/// JSON has no NaN/inf, so those become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#)
            .expect("valid");
        let a = v.get("a").and_then(Value::as_arr).expect("array");
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].as_f64(), Some(-300.0));
        let b = v.get("b").expect("object");
        assert_eq!(b.get("c").and_then(Value::as_str), Some("x\ny"));
        assert_eq!(b.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(b.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", r#"{"a" 1}"#, "tru", r#""open"#, "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn quote_round_trips_through_parse() {
        let s = "tab\t quote\" slash\\ nl\n µs \u{1}";
        assert_eq!(parse(&quote(s)).expect("valid").as_str(), Some(s));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let v = Value::obj([
            ("name", Value::str("a \"b\"")),
            (
                "samples",
                Value::Arr(vec![Value::Num(1.5), Value::Num(0.1 + 0.2)]),
            ),
            (
                "nested",
                Value::obj([(
                    "rows",
                    Value::Arr(vec![Value::obj([("ok", Value::Bool(true))])]),
                )]),
            ),
            ("none", Value::Null),
            ("empty", Value::Arr(vec![])),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).expect("own output parses"), v);
        assert!(
            text.contains("\"samples\": [1.5, 0.30000000000000004]"),
            "{text}"
        );
    }

    #[test]
    fn num_keeps_every_digit() {
        let x = 0.1 + 0.2;
        assert_eq!(num(x).parse::<f64>().expect("float").to_bits(), x.to_bits());
        assert_eq!(num(f64::NAN), "null");
    }
}
