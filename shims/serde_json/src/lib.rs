//! Offline stand-in for `serde_json`: renders any `Serialize` type as
//! JSON text through the serde shim's streaming [`JsonWriter`], and
//! parses JSON text into a [`Value`] tree.
//!
//! Numbers are carried as `f64` (every integer the workspace serializes —
//! ids, microsecond timestamps, tensor shapes — is far below 2^53, and
//! `f32` payloads round-trip exactly through `f64`). Integral numbers are
//! emitted without a fractional part so the output looks like ordinary
//! JSON.

pub use serde::{Error, JsonWriter, Value};

/// Serializes a value to a JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    render(value, JsonWriter::compact())
}

/// Serializes a value to JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Serializes a value to a two-space-indented JSON string (real
/// serde_json's `to_string_pretty`; like the real one, no trailing
/// newline) — for documents meant to be read, like `ctlm-lab` reports.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    render(value, JsonWriter::pretty())
}

fn render<T: serde::Serialize + ?Sized>(value: &T, mut w: JsonWriter) -> Result<String, Error> {
    value.write_json(&mut w)?;
    Ok(w.into_string())
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::msg(e.to_string()))?;
    from_str(s)
}

/// Builds a [`Value`] from JSON-like syntax (array/object literals plus
/// arbitrary serializable leaf expressions).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:literal : $val:tt),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::json!($val)) ),* ])
    };
    ($other:expr) => { $crate::__to_value(&$other) };
}

/// Implementation detail of [`json!`].
pub fn __to_value<T: serde::Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses a JSON document into a [`Value`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected , or ] at byte {}, got {other:?}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected , or }} at byte {}, got {other:?}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
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
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| Error::msg(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| Error::msg(e.to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| Error::msg(e.to_string()))?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error::msg(e.to_string()))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| Error::msg(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let v = json!({
            "name": "cell-c",
            "ids": [1, 2, 3],
            "nested": {"ok": true, "none": null},
            "f": 0.25
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parses_escapes_and_negatives() {
        let v: Value = from_str(r#"{"s":"a\"b\ncA","n":-12.5e2}"#).unwrap();
        assert_eq!(v["s"], Value::Str("a\"b\nc\u{41}".into()));
        assert_eq!(v["n"], Value::Num(-1250.0));
    }

    #[test]
    fn integral_floats_print_without_fraction() {
        assert_eq!(
            to_string(&json!([1, 2.5, 1000000000000u64])).unwrap(),
            "[1,2.5,1000000000000]"
        );
    }

    #[test]
    fn f32_payloads_roundtrip_exactly() {
        let xs = vec![0.1f32, -3.75, 1.0e-7, 123456.78];
        let text = to_string(&xs).unwrap();
        let back: Vec<f32> = from_str(&text).unwrap();
        assert_eq!(xs, back);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("{} x").is_err());
    }

    #[test]
    fn pretty_output_roundtrips_and_indents() {
        let v = json!({"a": [1, 2], "b": {"c": null}, "empty": []});
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": null\n  },\n  \"empty\": []\n}"
        );
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);

        // Nested, empty and mixed containers, pretty and compact, pinned
        // byte for byte: every checked-in export digest depends on them.
        let v: Value = from_str(
            r#"{"a": [1, 2], "b": {"c": null}, "empty": [], "eo": {},
                "mixed": [[], {}, [[]], {"x": [true, false]}, "s", -3, 0.5, -0.0, 1e20, 0.1],
                "nested": [[1, [2, {"d": []}]]]}"#,
        )
        .unwrap();
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"a\":[1,2],\"b\":{\"c\":null},\"empty\":[],\"eo\":{},\"mixed\":[[],{},[[]],\
             {\"x\":[true,false]},\"s\",-3,0.5,0,100000000000000000000,0.1],\
             \"nested\":[[1,[2,{\"d\":[]}]]]}"
        );
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": null\n  },\n  \
             \"empty\": [],\n  \"eo\": {},\n  \"mixed\": [\n    [],\n    {},\n    [\n      []\n    ],\n    \
             {\n      \"x\": [\n        true,\n        false\n      ]\n    },\n    \"s\",\n    -3,\n    \
             0.5,\n    0,\n    100000000000000000000,\n    0.1\n  ],\n  \"nested\": [\n    [\n      1,\n      \
             [\n        2,\n        {\n          \"d\": []\n        }\n      ]\n    ]\n  ]\n}"
        );
        assert_eq!(
            from_str::<Value>(&to_string_pretty(&v).unwrap()).unwrap(),
            v
        );
        assert_eq!(to_string(&Value::Array(Vec::new())).unwrap(), "[]");
        assert_eq!(to_string_pretty(&Value::Object(Vec::new())).unwrap(), "{}");
    }

    #[test]
    fn keys_and_strings_are_escaped() {
        let v = Value::Object(vec![(
            "a\"b\\c\n\r\t\u{1}é".to_string(),
            Value::Str("x\u{1f}y/\u{7f}".into()),
        )]);
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"a\\\"b\\\\c\\n\\r\\t\\u0001é\":\"x\\u001fy/\u{7f}\"}"
        );
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\\\"b\\\\c\\n\\r\\t\\u0001é\": \"x\\u001fy/\u{7f}\"\n}"
        );
        assert_eq!(from_str::<Value>(&to_string(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn rejects_non_finite_numbers_at_serialization() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&vec![1.0f64, f64::INFINITY]).is_err());
    }

    #[test]
    fn integer_deserialization_rejects_out_of_range() {
        assert!(from_str::<Vec<u8>>("[300]").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<i32>("1.5").is_err());
        assert_eq!(from_str::<Vec<u8>>("[255, 0]").unwrap(), vec![255, 0]);
    }
}
