//! A small JSON reader — enough for result files, `BENCHMARK.json` and the
//! one-line results of child runs. Writing is done with `format!` where the
//! values are produced.

use std::fmt;

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Why a document did not parse.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub at: usize,
    /// What it expected there.
    pub expected: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON: expected {} at byte {}", self.expected, self.at)
    }
}

impl Value {
    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("end of document"));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            expected,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, expected: &'static str) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("a value"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "'{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "'\"'")?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or(self.err("'\"'"))?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or(self.err("an escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
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
                                .ok_or(self.err("four hex digits"))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("an escape")),
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("UTF-8"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or(ParseError {
                at: start,
                expected: "a number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let v = Value::parse(
            r#"{"correct": true, "attempted": 10, "failed": 0,
                "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn parses_arrays_escapes_and_exponents() {
        let v = Value::parse(r#"[1e-3, -2.5, "a\"bé\n", null, [], {}]"#).unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0], Value::Num(0.001));
        assert_eq!(a[1], Value::Num(-2.5));
        assert_eq!(a[2], Value::Str("a\"bé\n".into()));
        assert_eq!(a[3], Value::Null);
        assert_eq!(a[4], Value::Arr(vec![]));
        assert_eq!(a[5], Value::Obj(vec![]));
    }

    #[test]
    fn numbers_round_trip_with_all_their_digits() {
        let x = 0.123_456_789_012_345_67_f64;
        let v = Value::parse(&format!("{x}")).unwrap();
        assert_eq!(v.as_f64(), Some(x));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
