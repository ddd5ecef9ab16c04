//! The one JSON renderer: a streaming writer that emits compact or
//! two-space-indented text straight into a `String`, so documents never
//! have to be lowered to a [`Value`] tree first.

use crate::{Error, Value};

/// Streams JSON text, compact (`[1,2]`) or pretty (real serde_json's
/// two-space layout, `[]`/`{}` for empty containers, no trailing
/// newline).
///
/// Calls nest like the document: `begin_object`, then `key` + one value
/// per field, then `end_object`; arrays take values between
/// `begin_array` and `end_array`. Separators, newlines and indentation
/// are the writer's job.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// The innermost open container has no element yet.
    first: bool,
    /// A key was just written, so the next value needs no separator.
    after_key: bool,
}

impl JsonWriter {
    /// A writer producing compact JSON.
    pub fn compact() -> Self {
        Self::new(false)
    }

    /// A writer producing two-space-indented JSON.
    pub fn pretty() -> Self {
        Self::new(true)
    }

    fn new(pretty: bool) -> Self {
        Self {
            out: String::new(),
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Separator, newline and indentation before the next element of
    /// the innermost container (nothing at the top level or after a
    /// key).
    fn element(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if self.depth == 0 {
            return;
        }
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        if self.pretty {
            self.out.push('\n');
            self.indent();
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, bracket: char) {
        self.element();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: char) {
        debug_assert!(self.depth > 0, "close without open");
        self.depth -= 1;
        if self.pretty && !self.first {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(bracket);
        // The closed container was an element of its parent.
        self.first = false;
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) {
        self.element();
        self.escaped(k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) {
        self.element();
        self.escaped(s);
    }

    /// Writes an unsigned integer, exactly as `Value::Num(n as f64)`
    /// renders (integers from 9e15 up go through the `f64` path, where
    /// large values may not be exact).
    pub fn u64(&mut self, n: u64) {
        if n < 9_000_000_000_000_000 {
            self.element();
            self.integer(n, false);
        } else {
            self.num(n as f64).expect("u64 is finite as f64");
        }
    }

    /// Writes a number. Integral values below 9e15 in magnitude print
    /// without a fractional part. JSON has no NaN/Infinity, so those are
    /// an error (like real serde_json) rather than a document no parser
    /// accepts.
    pub fn num(&mut self, n: f64) -> Result<(), Error> {
        if !n.is_finite() {
            return Err(Error::msg(format!(
                "cannot serialize non-finite number {n}"
            )));
        }
        self.element();
        if n.fract() == 0.0 && n.abs() < 9.0e15 {
            self.integer(n.abs() as u64, n < 0.0);
        } else {
            use std::fmt::Write as _;
            write!(self.out, "{n}").expect("string write");
        }
        Ok(())
    }

    /// Writes a whole value tree (without cloning it).
    pub fn value(&mut self, v: &Value) -> Result<(), Error> {
        match v {
            Value::Null => self.literal("null"),
            Value::Bool(b) => self.literal(if *b { "true" } else { "false" }),
            Value::Num(n) => self.num(*n)?,
            Value::Str(s) => self.str(s),
            Value::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item)?;
                }
                self.end_array();
            }
            Value::Object(pairs) => {
                self.begin_object();
                for (k, val) in pairs {
                    self.key(k);
                    self.value(val)?;
                }
                self.end_object();
            }
        }
        Ok(())
    }

    fn literal(&mut self, word: &str) {
        self.element();
        self.out.push_str(word);
    }

    /// Decimal digits of `n`, with a leading `-` when `negative`.
    fn integer(&mut self, mut n: u64, negative: bool) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if negative {
            self.out.push('-');
        }
        self.out
            .push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
    }

    /// `s` as a quoted JSON string: `"` and `\` escaped, control
    /// characters as `\n`/`\r`/`\t` or `\u00XX`.
    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escapable bytes are ASCII, so `i` is a char boundary.
            self.out.push_str(&s[run..i]);
            if esc.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                self.out.push_str("\\u00");
                self.out.push(HEX[(b >> 4) as usize] as char);
                self.out.push(HEX[(b & 0xf) as usize] as char);
            } else {
                self.out.push_str(esc);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Serialize;

    fn compact(f: impl FnOnce(&mut JsonWriter) -> Result<(), Error>) -> Result<String, Error> {
        let mut w = JsonWriter::compact();
        f(&mut w)?;
        Ok(w.into_string())
    }

    #[test]
    fn u64_renders_like_the_f64_value_path() {
        // Both paths print the same text: exact below 9e15, the f64's
        // shortest form from there up.
        for (n, want) in [
            (0, "0"),
            (8_999_999_999_999_999, "8999999999999999"),
            (9_000_000_000_000_000, "9000000000000000"),
            (1 << 53, "9007199254740992"),
            ((1 << 53) + 1, "9007199254740992"),
            (u64::MAX, "18446744073709552000"),
        ] {
            let via_u64 = compact(|w| {
                w.u64(n);
                Ok(())
            });
            assert_eq!(via_u64.unwrap(), want, "u64 {n}");
            assert_eq!(
                compact(|w| w.value(&Value::Num(n as f64))).unwrap(),
                want,
                "Value::Num({n} as f64)"
            );
        }
    }

    #[test]
    fn non_finite_numbers_are_an_error() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(compact(|w| x.write_json(w)).is_err());
            assert!(compact(|w| vec![1.0, x].write_json(w)).is_err());
            assert!(compact(|w| w.num(x)).is_err());
        }
    }

    /// Streams a fixed document, and has a `to_value` that differs from it
    /// so the tests can tell which path rendered.
    struct Streamed;

    impl Serialize for Streamed {
        fn to_value(&self) -> Value {
            Value::Str("tree".into())
        }

        fn write_json(&self, w: &mut JsonWriter) -> Result<(), Error> {
            w.begin_object();
            w.key("streamed");
            w.begin_array();
            w.u64(7);
            w.str("x");
            w.end_array();
            w.end_object();
            Ok(())
        }
    }

    #[test]
    fn references_forward_to_the_overriding_impl() {
        let want = r#"{"streamed":[7,"x"]}"#;
        assert_eq!(compact(|w| Streamed.write_json(w)).unwrap(), want);
        // `Self = &Streamed` and `Self = &&Streamed`: the `&T` impl.
        assert_eq!(
            compact(|w| Serialize::write_json(&&Streamed, w)).unwrap(),
            want
        );
        assert_eq!(
            compact(|w| Serialize::write_json(&&&Streamed, w)).unwrap(),
            want
        );
        // The default still renders the tree.
        assert_eq!(
            compact(|w| Some(Streamed).write_json(w)).unwrap(),
            r#""tree""#
        );
    }
}
